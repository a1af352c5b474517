//! x86_64 kernel arms: AVX2(+FMA) and AVX-512F.
//!
//! Every GEMM arm vectorizes across the columns of its output (the `j`/`n`
//! axis) and walks the shared dimension `k` in ascending order with
//! separate `vmulp*`/`vaddp*` instructions, so each output element sees
//! exactly the scalar kernel's `add(mul(..))` chain — bit-identical at any
//! lane width — and a bias, when given, is added to the finished chain in
//! the store. For a linear layer's forward pass those columns are either
//! the layer's outputs (row-major `matmul`) or, for a batch staged
//! feature-major, the batch's rows (`transpose_matmul` with a bias:
//! `Cᵀ = Wᵀ·Xᵀ`), so a 2-, 4- or 10-wide layer still fills every lane.
//! Training runs feature-major too. Its input gradient (`matmul_dot`,
//! `W·dYᵀ`) puts the batch across the lanes, and a lane carries all of a
//! four-lane dot product's state for its sample — the four stride-4
//! accumulator chains and the sequential tail — reduced in the scalar
//! order. Its parameter gradients (`linear_grads`) put the layer's outputs
//! across the lanes and gather each sample's column of `dYᵀ` where it lies
//! (see the arms).
//!
//! The f32 forward products take one kind of product differently. A hidden
//! activation σ(x) for x in (−103, −87) is an f32 subnormal, and a quarter
//! to a half of the rows the fleet server batches hold one (EXPERIMENTS.md
//! E28); a `vmulps` with a subnormal operand or result costs a ~57 ns
//! microcode assist. So each product of a nonzero activation below 2^-100
//! may be taken in f64: both operands widen exactly (`vcvtps2pd`), the
//! product of two 24-bit significands fits in f64's 53 and is exact and
//! normal there, and one `vcvtpd2ps` rounds it to nearest even into f32,
//! gradual underflow included. One rounding of the exact product is the
//! definition of the IEEE f32 product, so the bits are `vmulps`'s for any
//! operand, tiny or not; the chain's `vaddps` is unchanged, and neither
//! conversion nor `vaddps` takes an assist on subnormals. The route goes
//! with the operand the activations are in: row-major, a row block holding
//! a tiny activation takes each such activation's products exactly;
//! feature-major, where a loaded vector holds sixteen rows' activations,
//! a vector with a tiny lane (one integer compare per vector) takes all of
//! its products exactly. A product the route misses (a weight below 2^-26
//! against a normal activation) still runs `vmulps`: correct, only slow.
//!
//! The sigmoid arms evaluate `crate::math::sigmoid`'s exact operation
//! sequence lane-parallel, around an `exp` core the block `exp` arms (the
//! softmax pass of the cross-entropy loss) share. The seven
//! constant-divisor divisions
//! (`x/LN2`, `r/3 … r/13`) use Markstein's two-step emulation — with a
//! correctly-rounded reciprocal `y = RN(1/c)`:
//!
//! ```text
//! q0 = RN(a·y);  rr = RN(a − c·q0)  (FMA, residual is exact);
//! q1 = RN(q0 + rr·y)
//! ```
//!
//! which returns bits identical to hardware `vdivpd` for the normal-range
//! inputs the easy path admits (validated exhaustively against `vdivpd`
//! over millions of values at both lane widths before landing). The final
//! `num/(1+e)` stays a real division. A lane outside that range is
//! settled on its own while the rest of its block stays lane-parallel:
//! `|x| > 745` by a blend (scalar `exp` clamps to 0 there, so the quotient
//! is exactly 0 or 1), and `700 ≤ |x| ≤ 745` or NaN by a call to
//! `crate::math::sigmoid` (per-lane bits are identical on every path; the
//! guards only pick the faster one). A deployed loop's hidden layer has
//! such lanes on most windows — far-out-of-range features saturate most
//! units — so sending the whole block down the scalar function after one
//! of them cost more than the lanes it served (EXPERIMENTS.md E20).
//!
//! One block's `exp` is a ~135-cycle dependency chain (the reduction, six
//! quotients, twelve Taylor steps, the splice, then σ's division), so a
//! slice runs four blocks at a time through a core generic in the block
//! count: each step is taken across all four blocks before the next, and
//! program order follows dependency depth — four chains in flight where
//! one left the multiplier idle. A group with a hard lane, and whatever is
//! left after the last whole group, take the one-block path above; a slice
//! shorter than a group (a single-row layer) reaches it after one compare.
//!
//! The f32 sigmoid arms need only the f32 that chain narrows to, so they
//! first take a fast route: `t = −|x|` reduced by `k = round(t·log2 e)` in
//! two FMAs, `e^r` as a degree-11 polynomial in Estrin form, the scale by
//! `vscalefpd` (an exponent add on AVX2), and `num/(1+e)` through
//! `vrcp14pd` and two Newton steps (`vdivpd` on AVX2); `x ≥ 18` is 1.0 and
//! `x ≤ −104` is +0.0. That value `y` is within `2^-46` of σ, and the
//! exact chain within `2^-43`, so when `y·(1 − 2^-40)` and `y·(1 + 2^-40)`
//! narrow to the same f32 — the *rounding test* — so does the exact
//! chain, and that f32 is the answer. A block with a lane the test does
//! not settle (1 in ~46,000 eight-lane blocks without a NaN), or with a NaN, is recomputed
//! whole by the exact arm. The fast route's FMAs and reciprocal therefore
//! never reach an output the test did not settle; the proof that the
//! window suffices is `tests/sigmoid_f32_exhaustive.rs`, every f32 through
//! every arm. The f64 sigmoid arms and the `exp` arms are the exact chain
//! alone.
//!
//! AVX-512 arms deliberately require only `avx512f`: bitwise ops on floats
//! go through `_mm512_or_si512`/`_mm512_and_si512` with casts because the
//! `_pd` forms are AVX-512DQ.

#![allow(clippy::missing_safety_doc)]

use std::arch::x86_64::*;
use std::array::from_fn;

const LN2: f64 = std::f64::consts::LN_2;

// Sliding masks for AVX2 ragged edges: loading at offset `lanes - rem`
// yields `rem` leading all-ones lanes. (AVX-512 uses mask registers.)
static MASK_E32: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
static MASK_E64: [i64; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];

// ---------------------------------------------------------------------------
// Masked load/store helpers (edge tiles with `rem ∈ 1..lanes` live columns).
// Inactive lanes load as zero and are never stored; vmaskmov / maskz loads
// do not fault on the masked-out tail.
// ---------------------------------------------------------------------------

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mload_f32_avx2(p: *const f32, rem: usize) -> __m256 {
    let mask = _mm256_loadu_si256(MASK_E32.as_ptr().add(8 - rem) as *const __m256i);
    _mm256_maskload_ps(p, mask)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mstore_f32_avx2(p: *mut f32, rem: usize, v: __m256) {
    let mask = _mm256_loadu_si256(MASK_E32.as_ptr().add(8 - rem) as *const __m256i);
    _mm256_maskstore_ps(p, mask, v);
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mload_f64_avx2(p: *const f64, rem: usize) -> __m256d {
    let mask = _mm256_loadu_si256(MASK_E64.as_ptr().add(4 - rem) as *const __m256i);
    _mm256_maskload_pd(p, mask)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mstore_f64_avx2(p: *mut f64, rem: usize, v: __m256d) {
    let mask = _mm256_loadu_si256(MASK_E64.as_ptr().add(4 - rem) as *const __m256i);
    _mm256_maskstore_pd(p, mask, v);
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn mload_f32_avx512(p: *const f32, rem: usize) -> __m512 {
    _mm512_maskz_loadu_ps(((1u32 << rem) - 1) as __mmask16, p)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn mstore_f32_avx512(p: *mut f32, rem: usize, v: __m512) {
    _mm512_mask_storeu_ps(p, ((1u32 << rem) - 1) as __mmask16, v);
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn mload_f64_avx512(p: *const f64, rem: usize) -> __m512d {
    _mm512_maskz_loadu_pd(((1u32 << rem) - 1) as __mmask8, p)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn mstore_f64_avx512(p: *mut f64, rem: usize, v: __m512d) {
    _mm512_mask_storeu_pd(p, ((1u32 << rem) - 1) as __mmask8, v);
}

// ---------------------------------------------------------------------------
// GEMM arms, stamped per ISA × element type.
//
// `matmul`:           C[m×n] = A[m×kd]·B[kd×n] (+ bias per column)
// `transpose_matmul`: C[mm×n] = Aᵀ·B with A kd×mm (+ bias per row)
//
// Chains start at zero; a bias is added to each finished chain as it is
// stored — a linear layer's `+ b`, one `add` with no pass of its own. Row
// blocks of 4 amortize each B-row vector load across four broadcast
// multiplies; the j loop runs 2-wide tiles, then 1-wide, then one masked
// edge tile. All of it lives inside a single `#[target_feature]` function
// so nothing crosses a non-inlinable feature boundary. Both products run
// the one row kernel; they differ only in how A is laid out.
//
// A linear layer's forward pass runs either product. Row-major (`matmul`,
// A the activations) puts the layer's outputs across the lanes; a batch
// staged feature-major (`transpose_matmul` with a bias, A the weights)
// puts the batch across them, so a 2- or 4-wide layer fills every lane.
// The f32 arms (`exact:`) route tiny activations (`tiny_f32`) with `X`
// set: row-major, a row block holding one; feature-major, a B vector with
// one in any lane. There each such product is the exact widened one
// (`mul_exact_f32_*`); every other product is still one `vmulps`.
// ---------------------------------------------------------------------------

/// `2^-100` as f32 bits: at or above it, an activation times any weight of
/// magnitude `2^-26` or more is a normal f32.
const TINY_F32_BITS: u32 = 0x0d80_0000;

/// Whether `v` is nonzero and below `2^-100` in magnitude: a subnormal, or
/// a normal whose products with ordinary weights are subnormal. A `vmulps`
/// with a subnormal operand or result takes a microcode assist (~57 ns,
/// EXPERIMENTS.md E28); a zero takes none.
#[inline]
pub(super) fn tiny_f32(v: f32) -> bool {
    (v.to_bits() & 0x7fff_ffff).wrapping_sub(1) < TINY_F32_BITS - 1
}

/// Whether any lane of `v` is [`tiny_f32`]: the one route test of a B
/// vector in the feature-major product. `0 < |v| < 2^-100` on the bits;
/// both compares are signed, which the cleared sign bit makes exact.
///
/// # Safety
///
/// The CPU supports AVX2.
#[inline]
#[target_feature(enable = "avx2")]
pub(super) unsafe fn tiny_lanes_f32_avx2(v: __m256) -> bool {
    let bits = _mm256_and_si256(_mm256_castps_si256(v), _mm256_set1_epi32(i32::MAX));
    let below = _mm256_cmpgt_epi32(_mm256_set1_epi32(TINY_F32_BITS as i32), bits);
    let nonzero = _mm256_cmpgt_epi32(bits, _mm256_setzero_si256());
    _mm256_testz_si256(below, nonzero) == 0
}

/// 16-lane [`tiny_lanes_f32_avx2`], as [`tiny_f32`] computes it: one
/// unsigned compare of `|v| − 1`.
///
/// # Safety
///
/// The CPU supports AVX-512F.
#[inline]
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn tiny_lanes_f32_avx512(v: __m512) -> bool {
    let bits = _mm512_and_si512(_mm512_castps_si512(v), _mm512_set1_epi32(i32::MAX));
    let less = _mm512_sub_epi32(bits, _mm512_set1_epi32(1));
    _mm512_cmplt_epu32_mask(less, _mm512_set1_epi32(TINY_F32_BITS as i32 - 1)) != 0
}

/// `set1(a) · b`, bit for bit as `vmulps` makes it and without its assist:
/// both operands widen exactly to f64, where the 24 × 24-bit product is
/// exact and normal, and `vcvtpd2ps` rounds it once, to nearest even, into
/// f32 — gradual underflow included. That single rounding of the exact
/// product is what IEEE 754 defines the f32 product to be. The conversions
/// take no assist on subnormals.
///
/// # Safety
///
/// The CPU supports AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_exact_f32_avx2(a: f32, b: __m256) -> __m256 {
    let av = _mm256_set1_pd(a as f64);
    let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(b));
    let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1));
    let lo = _mm256_cvtpd_ps(_mm256_mul_pd(av, lo));
    let hi = _mm256_cvtpd_ps(_mm256_mul_pd(av, hi));
    _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1)
}

/// 16-lane [`mul_exact_f32_avx2`].
///
/// # Safety
///
/// The CPU supports AVX-512F.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn mul_exact_f32_avx512(a: f32, b: __m512) -> __m512 {
    let av = _mm512_set1_pd(a as f64);
    let bd = _mm512_castps_pd(b);
    let lo = _mm512_cvtps_pd(_mm512_castps512_ps256(b));
    let hi = _mm512_cvtps_pd(_mm256_castpd_ps(_mm512_extractf64x4_pd(bd, 1)));
    let lo = _mm512_cvtpd_ps(_mm512_mul_pd(av, lo));
    let hi = _mm256_castps_pd(_mm512_cvtpd_ps(_mm512_mul_pd(av, hi)));
    _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castps_pd(_mm512_castps256_ps512(lo)),
        hi,
        1,
    ))
}

macro_rules! gemm_arm {
    (
        feat: $feat:literal, ty: $ty:ty, lanes: $L:expr,
        loadu: $loadu:ident, storeu: $storeu:ident, set1: $set1:ident,
        setzero: $setzero:ident, add: $add:ident, mul: $mul:ident,
        mload: $mload:ident, mstore: $mstore:ident,
        matmul: $matmul:ident, tmm: $tmm:ident, rows: $rows:ident,
        $(exact: $xmul:ident if $tiny:ident or $tinyv:ident,)?
    ) => {
        /// Rows `i..i + R` of C, every column tile, with element (r, p) of
        /// the left operand at `a[(i + r) * lda + p]`, or at
        /// `a[p * lda + i + r]` when `T` (A stored transposed). `X` routes
        /// tiny activations exactly: A's elements of this block, or with
        /// `T` each B vector (the batch across the lanes) that holds one.
        /// A non-null `bias` is added in the store: `bias[j]` to column
        /// `j`, or with `T` `bias[i + r]` to row `i + r`.
        ///
        /// # Safety
        ///
        /// The CPU has the arm's features; `a` holds every element named
        /// above for `r < R` and `p < kd`, `b` is `kd × n`, `c` has rows
        /// `i..i + R` of width `n`, and a non-null `bias` holds `n` (or
        /// with `T`, `i + R`) elements.
        #[inline]
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = $feat)]
        unsafe fn $rows<const R: usize, const X: bool, const T: bool>(
            a: *const $ty,
            lda: usize,
            b: *const $ty,
            bias: *const $ty,
            c: *mut $ty,
            i: usize,
            kd: usize,
            n: usize,
        ) {
            const L: usize = $L;
            let at = |r: usize, p: usize| {
                *a.add(if T { p * lda + i + r } else { (i + r) * lda + p })
            };
            // One product of a chain: exact for a tiny activation of a
            // routed block (`ex`: with `T`, its B vector holds one),
            // `vmulp*` otherwise.
            #[allow(unused_variables)]
            let prod = |av: $ty, bv, ex: bool| {
                $(if X && (if T { ex } else { $tiny(av) }) {
                    return $xmul(av, bv);
                })?
                $mul($set1(av), bv)
            };
            // `$t` vectors of C's rows from column `j`: `$ld(p, t)` loads
            // them from B's row `p`, `$bl(t)` the bias of their columns,
            // `$st(r, t, v)` stores row `r`'s.
            macro_rules! tile {
                ($t:literal, $ld:expr, $bl:expr, $st:expr) => {{
                    let mut acc = [[$setzero(); $t]; R];
                    for p in 0..kd {
                        let bv: [_; $t] = from_fn(|t| $ld(p, t));
                        for t in 0..$t {
                            let ex = false $(|| X && T && $tinyv(bv[t]))?;
                            for r in 0..R {
                                acc[r][t] = $add(acc[r][t], prod(at(r, p), bv[t], ex));
                            }
                        }
                    }
                    for r in 0..R {
                        for t in 0..$t {
                            let mut v = acc[r][t];
                            if !bias.is_null() {
                                v = $add(v, if T { $set1(*bias.add(i + r)) } else { $bl(t) });
                            }
                            $st(r, t, v);
                        }
                    }
                }};
            }
            let mut j = 0usize;
            while j + 2 * L <= n {
                tile!(
                    2,
                    |p, t| $loadu(b.add(p * n + j + t * L)),
                    |t| $loadu(bias.add(j + t * L)),
                    |r, t, v| $storeu(c.add((i + r) * n + j + t * L), v)
                );
                j += 2 * L;
            }
            while j + L <= n {
                tile!(
                    1,
                    |p, _| $loadu(b.add(p * n + j)),
                    |_| $loadu(bias.add(j)),
                    |r, _, v| $storeu(c.add((i + r) * n + j), v)
                );
                j += L;
            }
            if j < n {
                let rem = n - j;
                tile!(
                    1,
                    |p, _| $mload(b.add(p * n + j), rem),
                    |_| $mload(bias.add(j), rem),
                    |r, _, v| $mstore(c.add((i + r) * n + j), rem, v)
                );
            }
        }

        /// `C[m×n] = A[m×kd]·B[kd×n]`, plus `bias[j]` on column `j` if
        /// given: the row-major forward product of a linear layer (A the
        /// batch's activations, B its weights).
        #[target_feature(enable = $feat)]
        pub(super) unsafe fn $matmul(
            a: &[$ty],
            b: &[$ty],
            bias: Option<&[$ty]>,
            c: &mut [$ty],
            m: usize,
            kd: usize,
            n: usize,
        ) {
            debug_assert!(a.len() >= m * kd && b.len() >= kd * n && c.len() >= m * n);
            debug_assert!(bias.is_none_or(|v| v.len() >= n));
            let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
            let bias = bias.map_or(std::ptr::null(), <[$ty]>::as_ptr);
            let mut i = 0usize;
            // Rows `i..i + R` are routed exactly if one of them holds a tiny
            // activation; a layer with none anywhere skips the scan per
            // block.
            #[allow(unused_variables)]
            let tiny = |rows: &[$ty]| rows.iter().fold(false, |t, &v| t $(| $tiny(v))?);
            let routed = tiny(&a[..m * kd]);
            macro_rules! rows {
                ($r:literal) => {
                    if routed && tiny(&a[i * kd..(i + $r) * kd]) {
                        $rows::<$r, true, false>(ap, kd, bp, bias, cp, i, kd, n)
                    } else {
                        $rows::<$r, false, false>(ap, kd, bp, bias, cp, i, kd, n)
                    }
                };
            }
            while i + 4 <= m {
                rows!(4);
                i += 4;
            }
            while i < m {
                rows!(1);
                i += 1;
            }
        }

        /// `C[mm×n] = Aᵀ·B` with A `kd×mm`, plus `bias[i]` on row `i` if
        /// given: the feature-major forward product of a linear layer — A
        /// its weights, B the batch's activations `kd × n` with the batch
        /// across the lanes — where each B vector holding a tiny
        /// activation takes exact products.
        #[target_feature(enable = $feat)]
        pub(super) unsafe fn $tmm(
            a: &[$ty],
            b: &[$ty],
            bias: Option<&[$ty]>,
            c: &mut [$ty],
            mm: usize,
            kd: usize,
            n: usize,
        ) {
            debug_assert!(a.len() >= kd * mm && b.len() >= kd * n && c.len() >= mm * n);
            debug_assert!(bias.is_none_or(|v| v.len() >= mm));
            let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
            // Every product of an arm with an exact route is routed: an f64
            // arm's `routed` is the literal `false`, so it compiles no
            // routed blocks, and an f32 arm's the literal `true`.
            let routed = false $(|| { let _ = $xmul; true })?;
            let bias = bias.map_or(std::ptr::null(), <[$ty]>::as_ptr);
            let mut i = 0usize;
            macro_rules! rows {
                ($r:literal) => {
                    if routed {
                        $rows::<$r, true, true>(ap, mm, bp, bias, cp, i, kd, n)
                    } else {
                        $rows::<$r, false, true>(ap, mm, bp, bias, cp, i, kd, n)
                    }
                };
            }
            while i + 4 <= mm {
                rows!(4);
                i += 4;
            }
            // The last rows in one block: a 10-, 15- or 2-wide layer's
            // remainder keeps two or three chains per vector in flight.
            match mm - i {
                3 => rows!(3),
                2 => rows!(2),
                1 => rows!(1),
                _ => {}
            }
        }
    };
}

gemm_arm! {
    feat: "avx2", ty: f32, lanes: 8,
    loadu: _mm256_loadu_ps, storeu: _mm256_storeu_ps, set1: _mm256_set1_ps,
    setzero: _mm256_setzero_ps, add: _mm256_add_ps, mul: _mm256_mul_ps,
    mload: mload_f32_avx2, mstore: mstore_f32_avx2,
    matmul: matmul_f32_avx2, tmm: transpose_matmul_f32_avx2, rows: gemm_rows_f32_avx2,
    exact: mul_exact_f32_avx2 if tiny_f32 or tiny_lanes_f32_avx2,
}

gemm_arm! {
    feat: "avx2", ty: f64, lanes: 4,
    loadu: _mm256_loadu_pd, storeu: _mm256_storeu_pd, set1: _mm256_set1_pd,
    setzero: _mm256_setzero_pd, add: _mm256_add_pd, mul: _mm256_mul_pd,
    mload: mload_f64_avx2, mstore: mstore_f64_avx2,
    matmul: matmul_f64_avx2, tmm: transpose_matmul_f64_avx2, rows: gemm_rows_f64_avx2,
}

gemm_arm! {
    feat: "avx512f", ty: f32, lanes: 16,
    loadu: _mm512_loadu_ps, storeu: _mm512_storeu_ps, set1: _mm512_set1_ps,
    setzero: _mm512_setzero_ps, add: _mm512_add_ps, mul: _mm512_mul_ps,
    mload: mload_f32_avx512, mstore: mstore_f32_avx512,
    matmul: matmul_f32_avx512, tmm: transpose_matmul_f32_avx512, rows: gemm_rows_f32_avx512,
    exact: mul_exact_f32_avx512 if tiny_f32 or tiny_lanes_f32_avx512,
}

gemm_arm! {
    feat: "avx512f", ty: f64, lanes: 8,
    loadu: _mm512_loadu_pd, storeu: _mm512_storeu_pd, set1: _mm512_set1_pd,
    setzero: _mm512_setzero_pd, add: _mm512_add_pd, mul: _mm512_mul_pd,
    mload: mload_f64_avx512, mstore: mstore_f64_avx512,
    matmul: matmul_f64_avx512, tmm: transpose_matmul_f64_avx512, rows: gemm_rows_f64_avx512,
}

// ---------------------------------------------------------------------------
// The training step's two backward products over a feature-major batch
// (`m` samples along the rows of every operand).
//
// `matmul_dot`: C[mm×n] = A[mm×kd]·B[kd×n] in the four-chain dot schedule
// of `Matrix::matmul_dot_into` — a linear layer's `dXᵀ = W·dYᵀ`, A its
// weights, B `dYᵀ`, the batch across the lanes. Each element is four chains
// from zero (chain l takes the p ≡ l mod 4 below `kd & !3`, ascending) and a
// sequential tail over the rest, reduced as ((l0+l1)+(l2+l3))+tail, each term
// `B[p][j] · A[i][p]`: a lane carries all of that state for one sample, and
// the vector reduction in the scalar order gives its bits. A B vector is
// loaded once per block of rows. Given the output of a sigmoid that feeds
// the layer, each element leaves the store as `g · (v · (1 − v))`: the
// sigmoid's backward pass, operation for operation, without its own pass.
//
// `linear_grads`: dW[ind×outd] = X·dYᵀ and db = dY's row sums — a linear
// layer's parameter gradients, X `Xᵀ` (`ind × m`). Each element is one chain
// from zero over the samples in ascending order, as the scalar kernel's. The
// lanes are the layer's outputs: column s of dY (stride m) is gathered once
// per sample and block of lanes, masked past the last output, and shared by
// a block of rows of X, each product `set1(X[i][s]) · column`; db rides in
// the first block as that column's own chain.
// ---------------------------------------------------------------------------

/// `$body` with the constant `$R` equal to `$rows`, one of `$r`.
macro_rules! by_rows {
    ($rows:expr, [$($r:literal)*], $R:ident => $body:expr) => {
        match $rows {
            $($r => {
                const $R: usize = $r;
                $body
            })*
            _ => unreachable!("a block of {} rows", $rows),
        }
    };
}

macro_rules! backward_arm {
    (
        feat: $feat:literal, ty: $ty:ty, lanes: $L:expr,
        loadu: $loadu:ident, storeu: $storeu:ident, set1: $set1:ident,
        setzero: $setzero:ident, add: $add:ident, sub: $sub:ident, mul: $mul:ident,
        mload: $mload:ident, mstore: $mstore:ident,
        column: $column:expr, gather: $gather:expr,
        dot: $dot:ident, dot_rows: $dot_rows:ident, dot_block: [$($dr:literal)*],
        grads: $grads:ident, grad_rows: $grad_rows:ident, grad_block: [$($gr:literal)*],
    ) => {
        /// Rows `i..i + R` of [`$dot`]'s C, every column vector.
        ///
        /// # Safety
        ///
        /// The CPU has the arm's features; `a` is `mm × kd` with
        /// `i + R ≤ mm`, `b` is `kd × n`, `c` is `mm × n`, and a non-null
        /// `sigmoid` is `mm × n`.
        #[inline]
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $dot_rows<const R: usize>(
            a: *const $ty,
            b: *const $ty,
            sigmoid: *const $ty,
            c: *mut $ty,
            i: usize,
            kd: usize,
            n: usize,
        ) {
            const L: usize = $L;
            let kd4 = kd & !3;
            // C's vector at column `$j`: `$ld(q)` loads a vector of that
            // width from `q` (whole or masked), `$st(q, v)` stores one.
            macro_rules! tile {
                ($j:expr, $ld:expr, $st:expr) => {{
                    let z = $setzero();
                    let (mut acc, mut tail) = ([[z; 4]; R], [z; R]);
                    let w = |r: usize, p: usize| $set1(*a.add((i + r) * kd + p));
                    let mut p = 0usize;
                    while p < kd4 {
                        for l in 0..4 {
                            let bv = $ld(b.add((p + l) * n + $j));
                            for r in 0..R {
                                acc[r][l] = $add(acc[r][l], $mul(bv, w(r, p + l)));
                            }
                        }
                        p += 4;
                    }
                    while p < kd {
                        let bv = $ld(b.add(p * n + $j));
                        for r in 0..R {
                            tail[r] = $add(tail[r], $mul(bv, w(r, p)));
                        }
                        p += 1;
                    }
                    for r in 0..R {
                        let lo = $add(acc[r][0], acc[r][1]);
                        let hi = $add(acc[r][2], acc[r][3]);
                        let mut g = $add($add(lo, hi), tail[r]);
                        if !sigmoid.is_null() {
                            let v = $ld(sigmoid.add((i + r) * n + $j));
                            g = $mul(g, $mul(v, $sub($set1(1.0), v)));
                        }
                        $st(c.add((i + r) * n + $j), g);
                    }
                }};
            }
            let mut j = 0usize;
            while j + L <= n {
                tile!(j, |q| $loadu(q), |q, v| $storeu(q, v));
                j += L;
            }
            if j < n {
                let rem = n - j;
                tile!(j, |q| $mload(q, rem), |q, v| $mstore(q, rem, v));
            }
        }

        /// `C[mm×n] = A[mm×kd]·B[kd×n]` in the four-chain dot schedule, the
        /// columns of C across the lanes; with `sigmoid` (`mm × n`), each
        /// element times `v·(1 − v)` of the sigmoid output at its place.
        #[target_feature(enable = $feat)]
        pub(super) unsafe fn $dot(
            a: &[$ty],
            b: &[$ty],
            sigmoid: Option<&[$ty]>,
            c: &mut [$ty],
            mm: usize,
            kd: usize,
            n: usize,
        ) {
            debug_assert!(a.len() >= mm * kd && b.len() >= kd * n && c.len() >= mm * n);
            debug_assert!(sigmoid.is_none_or(|v| v.len() >= mm * n));
            let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
            let sp = sigmoid.map_or(std::ptr::null(), <[$ty]>::as_ptr);
            const BLOCK: usize = [$($dr),*].len();
            let mut i = 0usize;
            while i < mm {
                let rows = (mm - i).min(BLOCK);
                by_rows!(rows, [$($dr)*], R => $dot_rows::<R>(ap, bp, sp, cp, i, kd, n));
                i += rows;
            }
        }

        /// Rows `i..i + R` of [`$grads`]'s dW at the `live` outputs from
        /// `o`, and with `D` those lanes of db.
        ///
        /// # Safety
        ///
        /// The CPU has the arm's features; `x` is `ind × m` with
        /// `i + R ≤ ind`, `dy` is `outd × m` with `o + live ≤ outd` and
        /// `live ≤ L`, `dw` is `ind × outd` and `db` holds `outd`.
        #[inline]
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = $feat)]
        unsafe fn $grad_rows<const R: usize, const D: bool>(
            x: *const $ty,
            dy: *const $ty,
            dw: *mut $ty,
            db: *mut $ty,
            i: usize,
            o: usize,
            live: usize,
            outd: usize,
            m: usize,
        ) {
            // Lane offsets `0, m, 2m, …` (`simd::gatherable` bounds them
            // in `i32`) and the mask of the live lanes.
            let (idx, mask) = $column(m as i32, live);
            let column = dy.add(o * m);
            let (mut acc, mut sum) = ([$setzero(); R], $setzero());
            for s in 0..m {
                let g = $gather(column.add(s), idx, mask);
                for r in 0..R {
                    acc[r] = $add(acc[r], $mul($set1(*x.add((i + r) * m + s)), g));
                }
                if D {
                    sum = $add(sum, g);
                }
            }
            let store = |p: *mut $ty, v| {
                if live == $L {
                    $storeu(p, v)
                } else {
                    $mstore(p, live, v)
                }
            };
            for r in 0..R {
                store(dw.add((i + r) * outd + o), acc[r]);
            }
            if D {
                store(db.add(o), sum);
            }
        }

        /// `dw[ind×outd] = x[ind×m]·dy[outd×m]ᵀ` and `db` the row sums of
        /// `dy`, every chain ascending the samples from zero, the outputs
        /// across the lanes. The first block of rows is the short one and
        /// carries db.
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = $feat)]
        pub(super) unsafe fn $grads(
            x: &[$ty],
            dy: &[$ty],
            dw: &mut [$ty],
            db: &mut [$ty],
            ind: usize,
            outd: usize,
            m: usize,
        ) {
            debug_assert!(x.len() >= ind * m && dy.len() >= outd * m);
            debug_assert!(dw.len() >= ind * outd && db.len() >= outd);
            let (xp, yp, wp, bp) = (x.as_ptr(), dy.as_ptr(), dw.as_mut_ptr(), db.as_mut_ptr());
            const BLOCK: usize = [$($gr),*].len();
            let mut o = 0usize;
            while o < outd {
                let live = (outd - o).min($L);
                if ind == 0 {
                    $grad_rows::<0, true>(xp, yp, wp, bp, 0, o, live, outd, m);
                } else {
                    let first = (ind - 1) % BLOCK + 1;
                    by_rows!(first, [$($gr)*], R => {
                        $grad_rows::<R, true>(xp, yp, wp, bp, 0, o, live, outd, m)
                    });
                    let mut i = first;
                    while i < ind {
                        $grad_rows::<BLOCK, false>(xp, yp, wp, bp, i, o, live, outd, m);
                        i += BLOCK;
                    }
                }
                o += live;
            }
        }
    };
}

backward_arm! {
    feat: "avx2", ty: f32, lanes: 8,
    loadu: _mm256_loadu_ps, storeu: _mm256_storeu_ps, set1: _mm256_set1_ps,
    setzero: _mm256_setzero_ps, add: _mm256_add_ps, sub: _mm256_sub_ps, mul: _mm256_mul_ps,
    mload: mload_f32_avx2, mstore: mstore_f32_avx2,
    column: |m, live: usize| (
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(m)),
        _mm256_castsi256_ps(_mm256_loadu_si256(MASK_E32.as_ptr().add(8 - live) as *const _)),
    ),
    gather: |p, idx, mask| _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), p, idx, mask),
    dot: matmul_dot_f32_avx2, dot_rows: dot_rows_f32_avx2, dot_block: [1 2],
    grads: linear_grads_f32_avx2, grad_rows: grad_rows_f32_avx2, grad_block: [1 2 3 4 5 6 7 8],
}

backward_arm! {
    feat: "avx2", ty: f64, lanes: 4,
    loadu: _mm256_loadu_pd, storeu: _mm256_storeu_pd, set1: _mm256_set1_pd,
    setzero: _mm256_setzero_pd, add: _mm256_add_pd, sub: _mm256_sub_pd, mul: _mm256_mul_pd,
    mload: mload_f64_avx2, mstore: mstore_f64_avx2,
    column: |m, live: usize| (
        _mm_mullo_epi32(_mm_setr_epi32(0, 1, 2, 3), _mm_set1_epi32(m)),
        _mm256_castsi256_pd(_mm256_loadu_si256(MASK_E64.as_ptr().add(4 - live) as *const _)),
    ),
    gather: |p, idx, mask| _mm256_mask_i32gather_pd::<8>(_mm256_setzero_pd(), p, idx, mask),
    dot: matmul_dot_f64_avx2, dot_rows: dot_rows_f64_avx2, dot_block: [1 2],
    grads: linear_grads_f64_avx2, grad_rows: grad_rows_f64_avx2, grad_block: [1 2 3 4 5 6 7 8],
}

backward_arm! {
    feat: "avx512f", ty: f32, lanes: 16,
    loadu: _mm512_loadu_ps, storeu: _mm512_storeu_ps, set1: _mm512_set1_ps,
    setzero: _mm512_setzero_ps, add: _mm512_add_ps, sub: _mm512_sub_ps, mul: _mm512_mul_ps,
    mload: mload_f32_avx512, mstore: mstore_f32_avx512,
    column: |m, live: usize| (
        _mm512_mullo_epi32(
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            _mm512_set1_epi32(m),
        ),
        ((1u32 << live) - 1) as __mmask16,
    ),
    gather: |p, idx, mask| _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), mask, idx, p),
    dot: matmul_dot_f32_avx512, dot_rows: dot_rows_f32_avx512, dot_block: [1 2 3 4],
    grads: linear_grads_f32_avx512, grad_rows: grad_rows_f32_avx512,
    grad_block: [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16],
}

backward_arm! {
    feat: "avx512f", ty: f64, lanes: 8,
    loadu: _mm512_loadu_pd, storeu: _mm512_storeu_pd, set1: _mm512_set1_pd,
    setzero: _mm512_setzero_pd, add: _mm512_add_pd, sub: _mm512_sub_pd, mul: _mm512_mul_pd,
    mload: mload_f64_avx512, mstore: mstore_f64_avx512,
    column: |m, live: usize| (
        _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(m)),
        ((1u32 << live) - 1) as __mmask8,
    ),
    gather: |p, idx, mask| _mm512_mask_i32gather_pd::<8>(_mm512_setzero_pd(), mask, idx, p),
    dot: matmul_dot_f64_avx512, dot_rows: dot_rows_f64_avx512, dot_block: [1 2 3 4],
    grads: linear_grads_f64_avx512, grad_rows: grad_rows_f64_avx512,
    grad_block: [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16],
}

// ---------------------------------------------------------------------------
// Sigmoid and `exp` arms. See module docs for the Markstein division
// emulation.
// ---------------------------------------------------------------------------

#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn div_const4(a: __m256d, c: f64, y: f64) -> __m256d {
    let yv = _mm256_set1_pd(y);
    let q0 = _mm256_mul_pd(a, yv);
    let rr = _mm256_fnmadd_pd(_mm256_set1_pd(c), q0, a);
    _mm256_fmadd_pd(rr, yv, q0)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn div_const8(a: __m512d, c: f64, y: f64) -> __m512d {
    let yv = _mm512_set1_pd(y);
    let q0 = _mm512_mul_pd(a, yv);
    let rr = _mm512_fnmadd_pd(_mm512_set1_pd(c), q0, a);
    _mm512_fmadd_pd(rr, yv, q0)
}

/// `crate::math::exp` of `N` 4-lane blocks, easy path only (every lane
/// `|x| < 700`): the reduction, the Taylor chain and the exponent splice,
/// operation for operation. Each step is taken across all `N` blocks
/// before the next, so `N` independent dependency chains are in flight
/// (one block's chain is ~135 cycles of latency for a few dozen
/// instructions). The core of both the sigmoid and the block `exp` arms,
/// at `N` = 1 for a lone block and 4 for a group.
///
/// The cores carry no `#[target_feature]` because `#[inline(always)]`
/// cannot sit beside one: they are called only from arms that enable the
/// feature and always compiled inside them, intrinsics included. Left to
/// the inliner, the four-block form went out of line, so its blocks made a
/// round trip through memory per group (EXPERIMENTS.md E28).
///
/// # Safety
///
/// The CPU supports AVX2 and FMA, and the caller is compiled with them.
#[inline(always)]
unsafe fn exp_avx2<const N: usize>(x: [__m256d; N]) -> [__m256d; N] {
    let k32: [__m128i; N] = from_fn(|b| {
        let q = div_const4(x[b], LN2, 1.0 / LN2);
        let ge0 = _mm256_cmp_pd(x[b], _mm256_setzero_pd(), _CMP_GE_OQ);
        let half = _mm256_blendv_pd(_mm256_set1_pd(-0.5), _mm256_set1_pd(0.5), ge0);
        _mm256_cvttpd_epi32(_mm256_add_pd(q, half)) // trunc == `as i64`
    });
    // r = x - kf·LN2 as separate mul+add (never fused).
    let r: [__m256d; N] = from_fn(|b| {
        let kf = _mm256_cvtepi32_pd(k32[b]);
        _mm256_add_pd(x[b], _mm256_mul_pd(kf, _mm256_set1_pd(-LN2)))
    });
    let dv = |c: f64| -> [__m256d; N] { from_fn(|b| div_const4(r[b], c, 1.0 / c)) };
    let (r3, r5, r7, r9, r11, r13) = (dv(3.0), dv(5.0), dv(7.0), dv(9.0), dv(11.0), dv(13.0));
    let scaled = |v: [__m256d; N], s: f64| -> [__m256d; N] {
        from_fn(|b| _mm256_mul_pd(v[b], _mm256_set1_pd(s)))
    };
    let mut term = r;
    let mut sum: [__m256d; N] = from_fn(|b| _mm256_add_pd(_mm256_set1_pd(1.0), r[b]));
    macro_rules! step {
        ($f:expr) => {
            let f = $f;
            for b in 0..N {
                term[b] = _mm256_mul_pd(term[b], f[b]);
                sum[b] = _mm256_add_pd(sum[b], term[b]);
            }
        };
    }
    step!(scaled(r, 0.5));
    step!(r3);
    step!(scaled(r, 0.25));
    step!(r5);
    step!(scaled(r3, 0.5));
    step!(r7);
    step!(scaled(r, 0.125));
    step!(r9);
    step!(scaled(r5, 0.5));
    step!(r11);
    step!(scaled(r3, 0.25));
    step!(r13);
    // e = sum·2^k by exponent-field add (sum is a positive normal and k is
    // in range on the easy path — same argument as scalar scale_by_pow2).
    from_fn(|b| {
        let k64 = _mm256_cvtepi32_epi64(k32[b]);
        let bits = _mm256_castpd_si256(sum[b]);
        _mm256_castsi256_pd(_mm256_add_epi64(bits, _mm256_slli_epi64(k64, 52)))
    })
}

/// `crate::math::sigmoid` of `N` 4-lane blocks through [`exp_avx2`], easy
/// path only (every lane `|x| < 700`). Inlined as `exp_avx2` is.
///
/// # Safety
///
/// As for [`exp_avx2`].
#[inline(always)]
unsafe fn sigmoid_avx2<const N: usize>(x: [__m256d; N]) -> [__m256d; N] {
    // -|x|: inside the core only -0.0 compares >= 0, matching scalar's
    // x >= 0 branch.
    let e = exp_avx2::<N>(from_fn(|b| _mm256_or_pd(x[b], _mm256_set1_pd(-0.0))));
    let one = _mm256_set1_pd(1.0);
    from_fn(|b| {
        let xge0 = _mm256_cmp_pd(x[b], _mm256_setzero_pd(), _CMP_GE_OQ);
        let num = _mm256_blendv_pd(e[b], one, xge0);
        _mm256_div_pd(num, _mm256_add_pd(one, e[b]))
    })
}

/// 8-lane [`exp_avx2`].
///
/// # Safety
///
/// The CPU supports AVX-512F, and the caller is compiled with it.
#[inline(always)]
unsafe fn exp_avx512<const N: usize>(x: [__m512d; N]) -> [__m512d; N] {
    let k32: [__m256i; N] = from_fn(|b| {
        let q = div_const8(x[b], LN2, 1.0 / LN2);
        let ge0 = _mm512_cmp_pd_mask(x[b], _mm512_setzero_pd(), _CMP_GE_OQ);
        let half = _mm512_mask_blend_pd(ge0, _mm512_set1_pd(-0.5), _mm512_set1_pd(0.5));
        _mm512_cvttpd_epi32(_mm512_add_pd(q, half))
    });
    let r: [__m512d; N] = from_fn(|b| {
        let kf = _mm512_cvtepi32_pd(k32[b]);
        _mm512_add_pd(x[b], _mm512_mul_pd(kf, _mm512_set1_pd(-LN2)))
    });
    let dv = |c: f64| -> [__m512d; N] { from_fn(|b| div_const8(r[b], c, 1.0 / c)) };
    let (r3, r5, r7, r9, r11, r13) = (dv(3.0), dv(5.0), dv(7.0), dv(9.0), dv(11.0), dv(13.0));
    let scaled = |v: [__m512d; N], s: f64| -> [__m512d; N] {
        from_fn(|b| _mm512_mul_pd(v[b], _mm512_set1_pd(s)))
    };
    let mut term = r;
    let mut sum: [__m512d; N] = from_fn(|b| _mm512_add_pd(_mm512_set1_pd(1.0), r[b]));
    macro_rules! step {
        ($f:expr) => {
            let f = $f;
            for b in 0..N {
                term[b] = _mm512_mul_pd(term[b], f[b]);
                sum[b] = _mm512_add_pd(sum[b], term[b]);
            }
        };
    }
    step!(scaled(r, 0.5));
    step!(r3);
    step!(scaled(r, 0.25));
    step!(r5);
    step!(scaled(r3, 0.5));
    step!(r7);
    step!(scaled(r, 0.125));
    step!(r9);
    step!(scaled(r5, 0.5));
    step!(r11);
    step!(scaled(r3, 0.25));
    step!(r13);
    from_fn(|b| {
        let k64 = _mm512_cvtepi32_epi64(k32[b]);
        let bits = _mm512_castpd_si512(sum[b]);
        _mm512_castsi512_pd(_mm512_add_epi64(bits, _mm512_slli_epi64(k64, 52)))
    })
}

/// 8-lane [`sigmoid_avx2`].
///
/// # Safety
///
/// As for [`exp_avx512`].
#[inline(always)]
unsafe fn sigmoid_avx512<const N: usize>(x: [__m512d; N]) -> [__m512d; N] {
    let sign = _mm512_set1_epi64(i64::MIN);
    let e = exp_avx512::<N>(from_fn(|b| {
        _mm512_castsi512_pd(_mm512_or_si512(_mm512_castpd_si512(x[b]), sign)) // -|x|
    }));
    let one = _mm512_set1_pd(1.0);
    from_fn(|b| {
        let xge0 = _mm512_cmp_pd_mask(x[b], _mm512_setzero_pd(), _CMP_GE_OQ);
        let num = _mm512_mask_blend_pd(xge0, e[b], one);
        _mm512_div_pd(num, _mm512_add_pd(one, e[b]))
    })
}

/// A bit per lane outside the easy band: `|x| ≥ 700`, or NaN (the compare
/// fails). A ragged tail's padding loads as 0.0 and is never one.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hard4(x: __m256d) -> u32 {
    let absx = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
    let easy = _mm256_cmp_pd(absx, _mm256_set1_pd(700.0), _CMP_LT_OQ);
    !_mm256_movemask_pd(easy) as u32 & 0xf
}

/// 8-lane [`hard4`].
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn hard8(x: __m512d) -> u32 {
    let absmask = _mm512_set1_epi64(i64::MAX);
    let absx = _mm512_castsi512_pd(_mm512_and_si512(_mm512_castpd_si512(x), absmask));
    !_mm512_cmp_pd_mask(absx, _mm512_set1_pd(700.0), _CMP_LT_OQ) as u32 & 0xff
}

/// A block with at least one lane in `hard` (from [`hard4`]): every lane
/// that needs no scalar care, and a bit per lane that does. Easy lanes go
/// through [`sigmoid_avx2`] — the others ride along as 0.0, so nothing
/// they hold can trap or take an assist there — and saturated lanes
/// (`|x| > 745`, where scalar `exp(-|x|)` clamps to 0 and the quotient is
/// exactly 0 or 1) are a blend. What is left of `hard` — `700 ≤ |x| ≤ 745`
/// and NaN — is returned; those lanes of the block are unspecified.
/// `live` has a bit per lane that holds input (a tail's padding is easy,
/// and must not by itself send the block through the vector core). Kept
/// out of line: it would otherwise drag the all-easy path of every caller
/// out with it.
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
unsafe fn sigmoid4_mixed_avx2(x: __m256d, hard: u32, live: u32) -> (__m256d, u32) {
    let absx = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
    let easy = _mm256_cmp_pd(absx, _mm256_set1_pd(700.0), _CMP_LT_OQ);
    let sat = _mm256_cmp_pd(absx, _mm256_set1_pd(745.0), _CMP_GT_OQ);
    let mut y = _mm256_setzero_pd();
    if !hard & live != 0 {
        [y] = sigmoid_avx2([_mm256_and_pd(x, easy)]);
    }
    let pos = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_GT_OQ);
    let ends = _mm256_and_pd(_mm256_set1_pd(1.0), pos);
    (
        _mm256_blendv_pd(y, ends, sat),
        hard & !(_mm256_movemask_pd(sat) as u32),
    )
}

/// 8-lane [`sigmoid4_mixed_avx2`].
#[inline(never)]
#[target_feature(enable = "avx512f")]
unsafe fn sigmoid8_mixed_avx512(x: __m512d, hard: u32, live: u32) -> (__m512d, u32) {
    let absmask = _mm512_set1_epi64(i64::MAX);
    let absx = _mm512_castsi512_pd(_mm512_and_si512(_mm512_castpd_si512(x), absmask));
    let sat = _mm512_cmp_pd_mask(absx, _mm512_set1_pd(745.0), _CMP_GT_OQ);
    let mut y = _mm512_setzero_pd();
    if !hard & live != 0 {
        [y] = sigmoid_avx512([_mm512_maskz_mov_pd(!hard as __mmask8, x)]);
    }
    let pos = _mm512_cmp_pd_mask(x, _mm512_setzero_pd(), _CMP_GT_OQ);
    let ends = _mm512_maskz_mov_pd(pos, _mm512_set1_pd(1.0));
    (_mm512_mask_mov_pd(y, sat, ends), hard & !(sat as u32))
}

/// A block of the `exp` arm with at least one lane in `hard`: the others
/// through [`exp_avx2`] with the hard ones riding along as 0.0, and all of
/// `hard` handed back for the scalar function (`live` as in
/// [`sigmoid4_mixed_avx2`], and out of line for the same reason).
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp4_mixed_avx2(x: __m256d, hard: u32, live: u32) -> (__m256d, u32) {
    let absx = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
    let easy = _mm256_cmp_pd(absx, _mm256_set1_pd(700.0), _CMP_LT_OQ);
    let mut y = _mm256_setzero_pd();
    if !hard & live != 0 {
        [y] = exp_avx2([_mm256_and_pd(x, easy)]);
    }
    (y, hard)
}

/// 8-lane [`exp4_mixed_avx2`].
#[inline(never)]
#[target_feature(enable = "avx512f")]
unsafe fn exp8_mixed_avx512(x: __m512d, hard: u32, live: u32) -> (__m512d, u32) {
    let mut y = _mm512_setzero_pd();
    if !hard & live != 0 {
        [y] = exp_avx512([_mm512_maskz_mov_pd(!hard as __mmask8, x)]);
    }
    (y, hard)
}

/// The scalar sigmoid of one lane the vector arms hand back. Out of line
/// on purpose: inlined into an arm's patch loop it is compiled with the
/// arm's target features, and that copy measured about twice the cost per
/// lane of this stand-alone one (≈ 50 against ≈ 25 ns on an AVX-512 host,
/// EXPERIMENTS.md E20).
#[inline(never)]
fn sigmoid_lane(x: f64) -> f64 {
    crate::math::sigmoid(x)
}

/// [`sigmoid_lane`] for the `exp` arms.
#[inline(never)]
fn exp_lane(x: f64) -> f64 {
    crate::math::exp(x)
}

// ---------------------------------------------------------------------------
// The f32 sigmoid's fast route: σ in f64 to well under the f32 rounding
// step, kept only where the rounding test proves the exact chain narrows to
// the same f32 (module docs).
// ---------------------------------------------------------------------------

/// Relative half-width of the rounding test's window, `2^-40`: it covers the
/// exact chain's error (< 1e-13, about `2^-43`) and the fast route's (below
/// `2^-46`). The exhaustive sweep (`tests/sigmoid_f32_exhaustive.rs`) is
/// the proof that it suffices.
const WINDOW: f64 = 1.0 / (1u64 << 40) as f64;
/// From here up σ(x) narrows to 1.0: `1 − σ < 2^-25`, below half an f32 ulp.
const SAT_HI: f64 = 18.0;
/// From here down σ(x) narrows to +0.0: `σ < 2^-150`, half the least f32
/// subnormal. Also the clamp on `−|x|`, so every lane's reduction and scale
/// stay in normal f64 range.
const SAT_LO: f64 = -104.0;
/// `ln 2 − LN2`, the low half of the two-step reduction.
const LN2_LO: f64 = 2.319_046_813_846_299_6e-17;
/// Round to nearest, exceptions suppressed.
const NEAREST: i32 = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
/// `1/n!`, `n = 0..=11`: the degree-11 Taylor polynomial of `e^r`.
const EXP_POLY: [f64; 12] = {
    let (mut c, mut n) = ([1.0; 12], 2);
    while n < 12 {
        c[n] = c[n - 1] / n as f64;
        n += 1;
    }
    c
};

/// [`EXP_POLY`] at `r` in Estrin form, through one ISA's `fma` / `mul` /
/// `set1`: `e^r` for `|r| ≤ ln2/2`.
macro_rules! exp_poly {
    ($r:expr, $fma:ident, $mul:ident, $set1:ident) => {{
        let r = $r;
        let p = |i: usize| $fma(r, $set1(EXP_POLY[i + 1]), $set1(EXP_POLY[i]));
        let r2 = $mul(r, r);
        let lo = |i: usize| $fma(r2, p(i + 2), p(i));
        let r4 = $mul(r2, r2);
        $fma($mul(r4, r4), lo(8), $fma(r4, lo(4), lo(0)))
    }};
}

/// The fast route over `N` 4-lane blocks: per block σ of every lane
/// narrowed to f32, and a bit in the mask for each block the rounding test
/// did not settle (a lane whose window straddles an f32 rounding boundary,
/// or a NaN: `_CMP_NEQ_UQ` is true for it). A flagged block's f32 lanes are
/// unspecified. Each step is taken across all `N` blocks before the next,
/// as in [`exp_avx2`].
///
/// # Safety
///
/// The CPU supports AVX2 and FMA.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn sigmoid_fast_avx2<const N: usize>(x: [__m256d; N]) -> ([__m128; N], u32) {
    let (c, one) = (|v: f64| _mm256_set1_pd(v), _mm256_set1_pd(1.0));
    let (mut t, mut k, mut e) = (x, x, x);
    for b in 0..N {
        // max(lo, −|x|) keeps a NaN (`vmaxpd` returns its second operand).
        t[b] = _mm256_max_pd(c(SAT_LO), _mm256_or_pd(x[b], c(-0.0)));
        k[b] = _mm256_round_pd::<NEAREST>(_mm256_mul_pd(t[b], c(std::f64::consts::LOG2_E)));
    }
    for b in 0..N {
        let r = _mm256_fnmadd_pd(k[b], c(LN2_LO), _mm256_fnmadd_pd(k[b], c(LN2), t[b]));
        let p = exp_poly!(r, _mm256_fmadd_pd, _mm256_mul_pd, _mm256_set1_pd);
        // · 2^k by exponent add: k ∈ [−150, 0] keeps `p·2^k` normal.
        let k = _mm256_slli_epi64::<52>(_mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k[b])));
        e[b] = _mm256_castsi256_pd(_mm256_add_epi64(_mm256_castpd_si256(p), k));
    }
    let (mut y, mut bad) = ([_mm_setzero_ps(); N], 0);
    for b in 0..N {
        let ge = |v: f64| _mm256_cmp_pd::<_CMP_GE_OQ>(x[b], c(v));
        let s = _mm256_div_pd(
            _mm256_blendv_pd(e[b], one, ge(0.0)),
            _mm256_add_pd(one, e[b]),
        );
        let s = _mm256_blendv_pd(s, one, ge(SAT_HI));
        let s = _mm256_andnot_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(x[b], c(SAT_LO)), s);
        y[b] = _mm256_cvtpd_ps(_mm256_mul_pd(s, c(1.0 - WINDOW)));
        let hi = _mm256_cvtpd_ps(_mm256_mul_pd(s, c(1.0 + WINDOW)));
        bad |= u32::from(_mm_movemask_ps(_mm_cmp_ps::<_CMP_NEQ_UQ>(y[b], hi)) != 0) << b;
    }
    (y, bad)
}

/// 8-lane [`sigmoid_fast_avx2`]: `vscalefpd` for the scale, and
/// `vrcp14pd` with two Newton steps for the quotient.
///
/// # Safety
///
/// The CPU supports AVX-512F.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn sigmoid_fast_avx512<const N: usize>(x: [__m512d; N]) -> ([__m256; N], u32) {
    let (c, one) = (|v: f64| _mm512_set1_pd(v), _mm512_set1_pd(1.0));
    let (mut t, mut k, mut e) = (x, x, x);
    for b in 0..N {
        let sign = _mm512_or_si512(_mm512_castpd_si512(x[b]), _mm512_set1_epi64(i64::MIN));
        t[b] = _mm512_max_pd(c(SAT_LO), _mm512_castsi512_pd(sign));
        k[b] = _mm512_roundscale_pd::<NEAREST>(_mm512_mul_pd(t[b], c(std::f64::consts::LOG2_E)));
    }
    for b in 0..N {
        let r = _mm512_fnmadd_pd(k[b], c(LN2_LO), _mm512_fnmadd_pd(k[b], c(LN2), t[b]));
        let p = exp_poly!(r, _mm512_fmadd_pd, _mm512_mul_pd, _mm512_set1_pd);
        e[b] = _mm512_scalef_pd(p, k[b]);
    }
    let (mut y, mut bad) = ([_mm256_setzero_ps(); N], 0);
    for b in 0..N {
        let d = _mm512_add_pd(one, e[b]);
        let mut q = _mm512_rcp14_pd(d);
        for _ in 0..2 {
            q = _mm512_fmadd_pd(q, _mm512_fnmadd_pd(d, q, one), q);
        }
        let ge = |v: f64| _mm512_cmp_pd_mask::<_CMP_GE_OQ>(x[b], c(v));
        let s = _mm512_mul_pd(_mm512_mask_blend_pd(ge(0.0), e[b], one), q);
        let s = _mm512_mask_mov_pd(s, ge(SAT_HI), one);
        let s = _mm512_maskz_mov_pd(!_mm512_cmp_pd_mask::<_CMP_LE_OQ>(x[b], c(SAT_LO)), s);
        y[b] = _mm512_cvtpd_ps(_mm512_mul_pd(s, c(1.0 - WINDOW)));
        let hi = _mm512_castps256_ps512(_mm512_cvtpd_ps(_mm512_mul_pd(s, c(1.0 + WINDOW))));
        let ne = _mm512_mask_cmp_ps_mask::<_CMP_NEQ_UQ>(0xff, _mm512_castps256_ps512(y[b]), hi);
        bad |= u32::from(ne != 0) << b;
    }
    (y, bad)
}

/// One fast f32 sigmoid arm over a slice: groups of four blocks of
/// `$lanes` elements through the block-generic `$fast` core, then what is
/// left one masked block at a time (padding is 0.0, which the test always
/// settles). Each block the rounding test flags is computed again by
/// `$exact`, the exact-chain arm, over that block's elements alone.
/// Returns how many blocks that was.
macro_rules! sigmoid_f32_arm {
    ($feature:literal, $slice:ident, $exact:ident, $lanes:literal, $fast:ident,
     $load:expr, $store:expr, $mload:expr, $mstore:expr) => {
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn $slice(input: &[f32], out: &mut [f32]) -> usize {
            debug_assert_eq!(input.len(), out.len());
            let (n, ip, op) = (input.len(), input.as_ptr(), out.as_mut_ptr());
            let mut redone = 0usize;
            // Reruns every block of the `bad` mask from element `i`.
            let mut redo = |i: usize, mut bad: u32, live: usize| {
                while bad != 0 {
                    let at = i + bad.trailing_zeros() as usize * $lanes;
                    let x = std::slice::from_raw_parts(ip.add(at), live);
                    $exact(x, std::slice::from_raw_parts_mut(op.add(at), live));
                    redone += 1;
                    bad &= bad - 1;
                }
            };
            let mut i = 0usize;
            while i + 4 * $lanes <= n {
                let (y, bad) = $fast::<4>(from_fn(|b| $load(ip.add(i + b * $lanes))));
                for (b, y) in y.into_iter().enumerate() {
                    $store(op.add(i + b * $lanes), y);
                }
                redo(i, bad, $lanes);
                i += 4 * $lanes;
            }
            while i < n {
                let live = (n - i).min($lanes);
                let ([y], bad) = $fast([$mload(ip.add(i), live)]);
                $mstore(op.add(i), live, y);
                redo(i, bad, live);
                i += live;
            }
            redone
        }
    };
}

sigmoid_f32_arm!(
    "avx2,fma",
    sigmoid_slice_f32_avx2,
    sigmoid_slice_f32_exact_avx2,
    4,
    sigmoid_fast_avx2,
    |p| _mm256_cvtps_pd(_mm_loadu_ps(p)),
    |p, y| _mm_storeu_ps(p, y),
    |p, live| _mm256_cvtps_pd(_mm256_castps256_ps128(mload_f32_avx2(p, live))),
    |p, live, y| mstore_f32_avx2(p, live, _mm256_castps128_ps256(y))
);
sigmoid_f32_arm!(
    "avx512f",
    sigmoid_slice_f32_avx512,
    sigmoid_slice_f32_exact_avx512,
    8,
    sigmoid_fast_avx512,
    |p| _mm512_cvtps_pd(_mm256_loadu_ps(p)),
    |p, y| _mm256_storeu_ps(p, y),
    |p, live| _mm512_cvtps_pd(_mm512_castps512_ps256(mload_f32_avx512(p, live))),
    |p, live, y| mstore_f32_avx512(p, live, _mm512_castps256_ps512(y))
);

/// One element-wise arm over a slice: groups of four full blocks of
/// `$lanes` elements, then single full blocks, through `$load` / `$store`,
/// then the ragged tail as one masked block of `rem` lanes through
/// `$mload` / `$mstore` (the masked helpers above; f32 is widened to and
/// narrowed from f64 either way). An all-easy group is one call of the
/// block-generic core `$easy` at four blocks, its four chains interleaved
/// step by step; a group with a hard lane takes the single-block path
/// block by block. There an all-easy block is `$easy` at one block,
/// inline; any other goes through `$mixed`, which settles every lane it
/// can in vector registers, and each lane it hands back then takes the
/// scalar `$lane` alone — so what a NaN or a subnormal-band value costs is
/// its own scalar call, not its neighbours' too. A slice shorter than a
/// group (a single-row layer) pays one compare for the group loop. Out of
/// line: the fast f32 arms call theirs for the rare block the rounding
/// test flags, and must not carry its body in their own loop.
macro_rules! lane_map_arm {
    ($feature:literal, $slice:ident, $t:ty, $lanes:literal,
     $load:expr, $store:expr, $mload:expr, $mstore:expr,
     $hard:ident, $easy:ident, $mixed:ident, $lane:ident) => {
        #[inline(never)]
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn $slice(input: &[$t], out: &mut [$t]) {
            debug_assert_eq!(input.len(), out.len());
            let n = input.len();
            let (ip, op) = (input.as_ptr(), out.as_mut_ptr());
            // `$x` holds the `$live` lanes at `$i`; `$put` stores them.
            macro_rules! block {
                ($i:expr, $live:expr, $x:expr, $put:expr) => {
                    let x = $x;
                    let hard = $hard(x);
                    let (y, mut rest) = if hard == 0 {
                        ($easy([x])[0], 0)
                    } else {
                        $mixed(x, hard, $live)
                    };
                    $put(y);
                    while rest != 0 {
                        let l = $i + rest.trailing_zeros() as usize;
                        *op.add(l) = $lane(*ip.add(l) as f64) as $t;
                        rest &= rest - 1;
                    }
                };
            }
            let mut i = 0usize;
            while i + 4 * $lanes <= n {
                let x: [_; 4] = from_fn(|b| $load(ip.add(i + b * $lanes)));
                if x.iter().fold(0, |h, &x| h | $hard(x)) == 0 {
                    for (b, y) in $easy(x).into_iter().enumerate() {
                        $store(op.add(i + b * $lanes), y);
                    }
                } else {
                    for (b, x) in x.into_iter().enumerate() {
                        let at = i + b * $lanes;
                        block!(at, (1u32 << $lanes) - 1, x, |y| $store(op.add(at), y));
                    }
                }
                i += 4 * $lanes;
            }
            while i + $lanes <= n {
                block!(i, (1u32 << $lanes) - 1, $load(ip.add(i)), |y| $store(
                    op.add(i),
                    y
                ));
                i += $lanes;
            }
            if i < n {
                let rem = n - i;
                block!(i, (1u32 << rem) - 1, $mload(ip.add(i), rem), |y| $mstore(
                    op.add(i),
                    rem,
                    y
                ));
            }
        }
    };
}

lane_map_arm!(
    "avx2,fma",
    sigmoid_slice_f64_avx2,
    f64,
    4,
    |p| _mm256_loadu_pd(p),
    |p, y| _mm256_storeu_pd(p, y),
    |p, rem| mload_f64_avx2(p, rem),
    |p, rem, y| mstore_f64_avx2(p, rem, y),
    hard4,
    sigmoid_avx2,
    sigmoid4_mixed_avx2,
    sigmoid_lane
);
lane_map_arm!(
    "avx512f",
    sigmoid_slice_f64_avx512,
    f64,
    8,
    |p| _mm512_loadu_pd(p),
    |p, y| _mm512_storeu_pd(p, y),
    |p, rem| mload_f64_avx512(p, rem),
    |p, rem, y| mstore_f64_avx512(p, rem, y),
    hard8,
    sigmoid_avx512,
    sigmoid8_mixed_avx512,
    sigmoid_lane
);
// The f32 activation contract is widen → f64 sigmoid → narrow-by-`as`;
// `vcvtps2pd` is exact and `vcvtpd2ps` rounds to nearest like `as f32`.
// A tail block is the low half of a masked f32 vector (`rem` never
// exceeds it). These exact-chain arms are what the fast f32 arms above
// rerun a block through when the rounding test does not settle it.
lane_map_arm!(
    "avx2,fma",
    sigmoid_slice_f32_exact_avx2,
    f32,
    4,
    |p| _mm256_cvtps_pd(_mm_loadu_ps(p)),
    |p, y| _mm_storeu_ps(p, _mm256_cvtpd_ps(y)),
    |p, rem| _mm256_cvtps_pd(_mm256_castps256_ps128(mload_f32_avx2(p, rem))),
    |p, rem, y| mstore_f32_avx2(p, rem, _mm256_castps128_ps256(_mm256_cvtpd_ps(y))),
    hard4,
    sigmoid_avx2,
    sigmoid4_mixed_avx2,
    sigmoid_lane
);
lane_map_arm!(
    "avx512f",
    sigmoid_slice_f32_exact_avx512,
    f32,
    8,
    |p| _mm512_cvtps_pd(_mm256_loadu_ps(p)),
    |p, y| _mm256_storeu_ps(p, _mm512_cvtpd_ps(y)),
    |p, rem| _mm512_cvtps_pd(_mm512_castps512_ps256(mload_f32_avx512(p, rem))),
    |p, rem, y| mstore_f32_avx512(p, rem, _mm512_castps256_ps512(_mm512_cvtpd_ps(y))),
    hard8,
    sigmoid_avx512,
    sigmoid8_mixed_avx512,
    sigmoid_lane
);
// The block `exp` of the softmax pass: f64 only (the losses stage in f64).
lane_map_arm!(
    "avx2,fma",
    exp_slice_avx2,
    f64,
    4,
    |p| _mm256_loadu_pd(p),
    |p, y| _mm256_storeu_pd(p, y),
    |p, rem| mload_f64_avx2(p, rem),
    |p, rem, y| mstore_f64_avx2(p, rem, y),
    hard4,
    exp_avx2,
    exp4_mixed_avx2,
    exp_lane
);
lane_map_arm!(
    "avx512f",
    exp_slice_avx512,
    f64,
    8,
    |p| _mm512_loadu_pd(p),
    |p, y| _mm512_storeu_pd(p, y),
    |p, rem| mload_f64_avx512(p, rem),
    |p, rem, y| mstore_f64_avx512(p, rem, y),
    hard8,
    exp_avx512,
    exp8_mixed_avx512,
    exp_lane
);
