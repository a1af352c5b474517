//! aarch64 NEON kernel arms.
//!
//! Same bit-exactness contract as the x86 arms (see [`super::x86`] module
//! docs): vectorize across output columns, walk `k` ascending with separate
//! multiply and add, mirror `Matrix::dot`'s four stride-4 chains exactly.
//! This arm favours being obviously correct over squeezing the last cycle:
//! column tails run the scalar chain directly (no masked loads), and the
//! sigmoid uses real `vdivq_f64` divisions everywhere instead of the
//! Markstein emulation the x86 arms use — hardware division is trivially
//! bit-exact and this keeps the only hand-written aarch64 float path free
//! of correctness cleverness that can't be exhaustively validated in CI
//! until an aarch64 runner exists. The parity suite exercises every kernel
//! here on any NEON host.

#![allow(clippy::missing_safety_doc)]

use std::arch::aarch64::*;

const LN2: f64 = std::f64::consts::LN_2;

// ---------------------------------------------------------------------------
// GEMM arms: C[m×n] = A[m×kd]·B[kd×n] and the Aᵀ·B variant.
// f32 uses 4-lane tiles, f64 2-lane; `rem = n % lanes` columns fall back to
// the scalar ascending-k chain, which is the same arithmetic per element.
// ---------------------------------------------------------------------------

macro_rules! neon_gemm {
    (
        ty: $ty:ty, lanes: $L:expr,
        ld: $ld:ident, st: $st:ident, dup: $dup:ident,
        add: $add:ident, mul: $mul:ident,
        matmul: $matmul:ident, tmm: $tmm:ident,
    ) => {
        #[target_feature(enable = "neon")]
        pub(super) unsafe fn $matmul(
            a: &[$ty],
            b: &[$ty],
            c: &mut [$ty],
            m: usize,
            kd: usize,
            n: usize,
        ) {
            debug_assert!(a.len() >= m * kd && b.len() >= kd * n && c.len() >= m * n);
            const L: usize = $L;
            let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
            for i in 0..m {
                let mut j = 0usize;
                while j + L <= n {
                    let mut acc = $dup(0.0);
                    for p in 0..kd {
                        let av = $dup(*ap.add(i * kd + p));
                        acc = $add(acc, $mul(av, $ld(bp.add(p * n + j))));
                    }
                    $st(cp.add(i * n + j), acc);
                    j += L;
                }
                while j < n {
                    let mut s = 0.0;
                    for p in 0..kd {
                        s += *ap.add(i * kd + p) * *bp.add(p * n + j);
                    }
                    *cp.add(i * n + j) = s;
                    j += 1;
                }
            }
        }

        #[target_feature(enable = "neon")]
        pub(super) unsafe fn $tmm(
            a: &[$ty],
            b: &[$ty],
            c: &mut [$ty],
            mm: usize,
            kd: usize,
            n: usize,
        ) {
            debug_assert!(a.len() >= kd * mm && b.len() >= kd * n && c.len() >= mm * n);
            const L: usize = $L;
            let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
            for i in 0..mm {
                let mut j = 0usize;
                while j + L <= n {
                    let mut acc = $dup(0.0);
                    for p in 0..kd {
                        let av = $dup(*ap.add(p * mm + i));
                        acc = $add(acc, $mul(av, $ld(bp.add(p * n + j))));
                    }
                    $st(cp.add(i * n + j), acc);
                    j += L;
                }
                while j < n {
                    let mut s = 0.0;
                    for p in 0..kd {
                        s += *ap.add(p * mm + i) * *bp.add(p * n + j);
                    }
                    *cp.add(i * n + j) = s;
                    j += 1;
                }
            }
        }
    };
}

neon_gemm! {
    ty: f32, lanes: 4,
    ld: vld1q_f32, st: vst1q_f32, dup: vdupq_n_f32,
    add: vaddq_f32, mul: vmulq_f32,
    matmul: matmul_f32, tmm: transpose_matmul_f32,
}

neon_gemm! {
    ty: f64, lanes: 2,
    ld: vld1q_f64, st: vst1q_f64, dup: vdupq_n_f64,
    add: vaddq_f64, mul: vmulq_f64,
    matmul: matmul_f64, tmm: transpose_matmul_f64,
}

// ---------------------------------------------------------------------------
// matmul_transpose: `Matrix::dot`'s four stride-4 chains. f32 keeps all
// four chains in one float32x4; f64 splits them across two float64x2
// (lanes {0,1} and {2,3}), then both reduce in the scalar order
// ((l0+l1)+(l2+l3))+tail.
// ---------------------------------------------------------------------------

#[inline]
#[target_feature(enable = "neon")]
unsafe fn dot4_f32(a: *const f32, b: *const f32, kd: usize) -> f32 {
    let kd4 = kd & !3;
    let mut acc = vdupq_n_f32(0.0);
    let mut p = 0usize;
    while p < kd4 {
        acc = vaddq_f32(acc, vmulq_f32(vld1q_f32(a.add(p)), vld1q_f32(b.add(p))));
        p += 4;
    }
    let mut tail = 0.0f32;
    for idx in kd4..kd {
        tail += *a.add(idx) * *b.add(idx);
    }
    ((vgetq_lane_f32(acc, 0) + vgetq_lane_f32(acc, 1))
        + (vgetq_lane_f32(acc, 2) + vgetq_lane_f32(acc, 3)))
        + tail
}

#[inline]
#[target_feature(enable = "neon")]
unsafe fn dot4_f64(a: *const f64, b: *const f64, kd: usize) -> f64 {
    let kd4 = kd & !3;
    let mut acc01 = vdupq_n_f64(0.0);
    let mut acc23 = vdupq_n_f64(0.0);
    let mut p = 0usize;
    while p < kd4 {
        acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(a.add(p)), vld1q_f64(b.add(p))));
        acc23 = vaddq_f64(
            acc23,
            vmulq_f64(vld1q_f64(a.add(p + 2)), vld1q_f64(b.add(p + 2))),
        );
        p += 4;
    }
    let mut tail = 0.0f64;
    for idx in kd4..kd {
        tail += *a.add(idx) * *b.add(idx);
    }
    ((vgetq_lane_f64(acc01, 0) + vgetq_lane_f64(acc01, 1))
        + (vgetq_lane_f64(acc23, 0) + vgetq_lane_f64(acc23, 1)))
        + tail
}

macro_rules! neon_matmul_transpose {
    ($name:ident, $ty:ty, $dot:ident) => {
        #[target_feature(enable = "neon")]
        pub(super) unsafe fn $name(
            a: &[$ty],
            b: &[$ty],
            c: &mut [$ty],
            m: usize,
            n: usize,
            kd: usize,
        ) {
            debug_assert!(a.len() >= m * kd && b.len() >= n * kd && c.len() >= m * n);
            let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
            for i in 0..m {
                let arow = ap.add(i * kd);
                for j in 0..n {
                    *cp.add(i * n + j) = $dot(arow, bp.add(j * kd), kd);
                }
            }
        }
    };
}

neon_matmul_transpose!(matmul_transpose_f32, f32, dot4_f32);
neon_matmul_transpose!(matmul_transpose_f64, f64, dot4_f64);

// ---------------------------------------------------------------------------
// Sigmoid: lane-parallel `crate::math::sigmoid` on the easy band
// (|x| < 700), real divisions throughout, per-lane scalar fallback for
// hard blocks — identical structure to the scalar sigmoid4/sigmoid16 path.
// ---------------------------------------------------------------------------

/// 2-lane `crate::math::sigmoid`, easy path only (both lanes `|x| < 700`).
#[inline]
#[target_feature(enable = "neon")]
unsafe fn sigmoid2(x: float64x2_t) -> float64x2_t {
    let sign = vdupq_n_s64(i64::MIN);
    let neg = vreinterpretq_f64_s64(vorrq_s64(vreinterpretq_s64_f64(x), sign)); // -|x|
    let q = vdivq_f64(neg, vdupq_n_f64(LN2));
    let ge0 = vcgezq_f64(neg);
    let half = vbslq_f64(ge0, vdupq_n_f64(0.5), vdupq_n_f64(-0.5));
    let k = vcvtq_s64_f64(vaddq_f64(q, half)); // FCVTZS truncates like `as i64`
    let kf = vcvtq_f64_s64(k);
    // r = neg - kf·LN2 as separate mul+add (never fused).
    let r = vaddq_f64(neg, vmulq_f64(kf, vdupq_n_f64(-LN2)));
    let r3 = vdivq_f64(r, vdupq_n_f64(3.0));
    let r5 = vdivq_f64(r, vdupq_n_f64(5.0));
    let r7 = vdivq_f64(r, vdupq_n_f64(7.0));
    let r9 = vdivq_f64(r, vdupq_n_f64(9.0));
    let r11 = vdivq_f64(r, vdupq_n_f64(11.0));
    let r13 = vdivq_f64(r, vdupq_n_f64(13.0));
    let one = vdupq_n_f64(1.0);
    let mut term = r;
    let mut sum = vaddq_f64(one, term);
    macro_rules! step {
        ($f:expr) => {
            term = vmulq_f64(term, $f);
            sum = vaddq_f64(sum, term);
        };
    }
    let half_c = vdupq_n_f64(0.5);
    let quarter = vdupq_n_f64(0.25);
    step!(vmulq_f64(r, half_c));
    step!(r3);
    step!(vmulq_f64(r, quarter));
    step!(r5);
    step!(vmulq_f64(r3, half_c));
    step!(r7);
    step!(vmulq_f64(r, vdupq_n_f64(0.125)));
    step!(r9);
    step!(vmulq_f64(r5, half_c));
    step!(r11);
    step!(vmulq_f64(r3, quarter));
    step!(r13);
    // e = sum·2^k by exponent-field add (sum positive normal, k in range).
    let bits = vreinterpretq_s64_f64(sum);
    let e = vreinterpretq_f64_s64(vaddq_s64(bits, vshlq_n_s64::<52>(k)));
    let xge0 = vcgezq_f64(x);
    let num = vbslq_f64(xge0, one, e);
    vdivq_f64(num, vaddq_f64(one, e))
}

/// Both lanes strictly inside the easy band (NaN lanes fail the compare).
#[inline]
#[target_feature(enable = "neon")]
unsafe fn easy2(x: float64x2_t) -> bool {
    let lt = vcltq_f64(vabsq_f64(x), vdupq_n_f64(700.0));
    vgetq_lane_u64(lt, 0) != 0 && vgetq_lane_u64(lt, 1) != 0
}

#[target_feature(enable = "neon")]
pub(super) unsafe fn sigmoid_slice_f64(input: &[f64], out: &mut [f64]) {
    debug_assert_eq!(input.len(), out.len());
    let n = input.len();
    let (ip, op) = (input.as_ptr(), out.as_mut_ptr());
    let mut i = 0usize;
    while i + 2 <= n {
        let x = vld1q_f64(ip.add(i));
        if easy2(x) {
            vst1q_f64(op.add(i), sigmoid2(x));
        } else {
            *op.add(i) = crate::math::sigmoid(*ip.add(i));
            *op.add(i + 1) = crate::math::sigmoid(*ip.add(i + 1));
        }
        i += 2;
    }
    if i < n {
        *op.add(i) = crate::math::sigmoid(*ip.add(i));
    }
}

// f32 contract: widen → f64 sigmoid → narrow by `as f32` (FCVTN rounds to
// nearest, matching the scalar cast).
#[target_feature(enable = "neon")]
pub(super) unsafe fn sigmoid_slice_f32(input: &[f32], out: &mut [f32]) {
    debug_assert_eq!(input.len(), out.len());
    let n = input.len();
    let (ip, op) = (input.as_ptr(), out.as_mut_ptr());
    let mut i = 0usize;
    while i + 2 <= n {
        let x = vcvt_f64_f32(vld1_f32(ip.add(i)));
        if easy2(x) {
            vst1_f32(op.add(i), vcvt_f32_f64(sigmoid2(x)));
        } else {
            *op.add(i) = crate::math::sigmoid(*ip.add(i) as f64) as f32;
            *op.add(i + 1) = crate::math::sigmoid(*ip.add(i + 1) as f64) as f32;
        }
        i += 2;
    }
    if i < n {
        *op.add(i) = crate::math::sigmoid(*ip.add(i) as f64) as f32;
    }
}
