//! Runtime-dispatched explicit-SIMD kernel backends.
//!
//! The scalar blocked kernels in [`crate::matrix`] define the arithmetic
//! contract: every GEMM output element is a single ascending-`k` chain of
//! `add(mul(..))` steps (never an FMA contraction), an element of
//! `Matrix::matmul_dot_into` is exactly four stride-4 accumulator chains
//! and a tail reduced in a fixed order, and the
//! activation lanes reproduce [`crate::math::sigmoid`] bit-for-bit per lane
//! (an f32 lane is that f64 value narrowed).
//! Any vectorization that keeps those chains intact — vectorizing across
//! *output columns* while walking `k` in ascending order with separate
//! multiply and add instructions — produces bit-identical results at any
//! lane width, because each output element still sees the exact same
//! sequence of IEEE operations. Which axis those columns are is the
//! caller's choice: a linear layer's outputs, or, for a batch staged
//! feature-major, its rows (`Cᵀ = Wᵀ·Xᵀ`, each chain the same with the
//! operands of every product swapped, which IEEE multiplication allows). That is the invariant every kernel in this
//! module maintains, and `tests/kernel_parity.rs` enforces it against the
//! scalar reference for every arm the host CPU can run. An operation may be
//! computed any way that returns its IEEE bits: the f32 forward products take
//! the products of activations below 2^-100 as exact f64 products rounded
//! once to f32 — the f32 product itself, without the microcode assist a
//! subnormal `vmulps` costs (see [`x86`] module docs). And an f32 sigmoid
//! lane may come from a faster f64 value wherever a rounding test proves
//! the exact chain narrows to the same f32; every other block runs the
//! exact chain.
//!
//! Backends:
//! - **scalar** — the existing blocked kernels; always available, and the
//!   arithmetic ground truth. Forced with `KML_FORCE_SCALAR=1`.
//! - **avx2** (x86_64, AVX2+FMA) — 8×f32 / 4×f64 lanes. FMA never contracts
//!   a mul+add pair of a contract chain: it appears inside the Markstein
//!   constant-divisor division emulation of the exact sigmoid chain, which
//!   returns bits identical to a hardware `vdivpd`, and in the f32
//!   sigmoid's fast route, whose value reaches an output only where the
//!   rounding test settled it (see [`x86`] module docs).
//! - **avx512** (x86_64, AVX-512F) — 16×f32 / 8×f64 lanes, same contract.
//!
//! Every other target (aarch64 included) runs the scalar kernels: an arm
//! ships only with a build that runs `tests/kernel_parity.rs` on it, and the
//! reference is bit-identical to every arm by construction.
//!
//! Selection happens once per process (relaxed `OnceLock`), so the hot path
//! pays one predictable load+branch.
//!
//! The int8 (Q8) fleet-serving engine in [`crate::quant`] is *not* part of
//! this bit-exact family: it is a bounded-error path gated by decision
//! agreement, documented separately (DESIGN §10).

pub(crate) mod q8;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::OnceLock;

/// The kernel backend selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable scalar blocked kernels (the arithmetic reference).
    Scalar,
    /// x86_64 AVX2 + FMA.
    Avx2,
    /// x86_64 AVX-512F.
    Avx512,
}

impl KernelBackend {
    /// Short name for logs, `repro --json` schema lines, and benches.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        }
    }

    /// Stable small integer for telemetry gauges and the ledger's
    /// `kml-core.kernel_backend` (0 = scalar, 1 = avx2, 2 = avx512).
    pub fn gauge_value(self) -> u64 {
        match self {
            KernelBackend::Scalar => 0,
            KernelBackend::Avx2 => 1,
            KernelBackend::Avx512 => 2,
        }
    }
}

static BACKEND: OnceLock<KernelBackend> = OnceLock::new();

/// The backend every f32/f64 kernel dispatches to, detected once per
/// process: `KML_FORCE_SCALAR=1` (or `true`) pins the scalar reference;
/// otherwise the widest supported instruction set wins.
pub fn kernel_backend() -> KernelBackend {
    *BACKEND.get_or_init(detect)
}

/// [`KernelBackend::name`] of the selected backend.
pub fn backend_name() -> &'static str {
    kernel_backend().name()
}

/// Whether the bounded-error int8 serving engine ([`crate::quant`]) runs
/// its vector fast path on the dispatched backend. `false` on scalar
/// dispatch (`KML_FORCE_SCALAR=1`, and every non-x86 host) — those serve
/// Q8 through the scalar reference engine instead.
pub fn q8_vector_active() -> bool {
    q8::active()
}

fn detect() -> KernelBackend {
    if std::env::var("KML_FORCE_SCALAR")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
    {
        return KernelBackend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            return KernelBackend::Avx512;
        }
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            return KernelBackend::Avx2;
        }
    }
    KernelBackend::Scalar
}

// ---------------------------------------------------------------------------
// Dispatch entry points (crate-internal; called from the `Scalar` hooks).
// Each returns `false` when the scalar path should run instead.
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($f32_512:path, $f32_256:path, $args:tt) => {{
        match kernel_backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the backend was selected by runtime feature detection.
            KernelBackend::Avx512 => unsafe {
                $f32_512 $args;
                true
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            KernelBackend::Avx2 => unsafe {
                $f32_256 $args;
                true
            },
            _ => false,
        }
    }};
}

pub(crate) fn matmul_f32(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
) -> bool {
    dispatch!(
        x86::matmul_f32_avx512,
        x86::matmul_f32_avx2,
        (a, b, bias, c, m, kd, n)
    )
}

pub(crate) fn matmul_f64(
    a: &[f64],
    b: &[f64],
    bias: Option<&[f64]>,
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
) -> bool {
    dispatch!(
        x86::matmul_f64_avx512,
        x86::matmul_f64_avx2,
        (a, b, bias, c, m, kd, n)
    )
}

pub(crate) fn transpose_matmul_f32(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    c: &mut [f32],
    mm: usize,
    kd: usize,
    n: usize,
) -> bool {
    dispatch!(
        x86::transpose_matmul_f32_avx512,
        x86::transpose_matmul_f32_avx2,
        (a, b, bias, c, mm, kd, n)
    )
}

pub(crate) fn transpose_matmul_f64(
    a: &[f64],
    b: &[f64],
    bias: Option<&[f64]>,
    c: &mut [f64],
    mm: usize,
    kd: usize,
    n: usize,
) -> bool {
    dispatch!(
        x86::transpose_matmul_f64_avx512,
        x86::transpose_matmul_f64_avx2,
        (a, b, bias, c, mm, kd, n)
    )
}

pub(crate) fn matmul_dot_f32(
    a: &[f32],
    b: &[f32],
    sigmoid: Option<&[f32]>,
    c: &mut [f32],
    m: usize,
    kd: usize,
    n: usize,
) -> bool {
    dispatch!(
        x86::matmul_dot_f32_avx512,
        x86::matmul_dot_f32_avx2,
        (a, b, sigmoid, c, m, kd, n)
    )
}

pub(crate) fn matmul_dot_f64(
    a: &[f64],
    b: &[f64],
    sigmoid: Option<&[f64]>,
    c: &mut [f64],
    m: usize,
    kd: usize,
    n: usize,
) -> bool {
    dispatch!(
        x86::matmul_dot_f64_avx512,
        x86::matmul_dot_f64_avx2,
        (a, b, sigmoid, c, m, kd, n)
    )
}

/// Whether the gathers of [`linear_grads_f32`] / [`linear_grads_f64`] can
/// address a column of `dy`: their lane offsets are `i32` multiples of `m`.
fn gatherable(m: usize) -> bool {
    m <= i32::MAX as usize / 16
}

pub(crate) fn linear_grads_f32(
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
    ind: usize,
    outd: usize,
    m: usize,
) -> bool {
    gatherable(m)
        && dispatch!(
            x86::linear_grads_f32_avx512,
            x86::linear_grads_f32_avx2,
            (x, dy, dw, db, ind, outd, m)
        )
}

pub(crate) fn linear_grads_f64(
    x: &[f64],
    dy: &[f64],
    dw: &mut [f64],
    db: &mut [f64],
    ind: usize,
    outd: usize,
    m: usize,
) -> bool {
    gatherable(m)
        && dispatch!(
            x86::linear_grads_f64_avx512,
            x86::linear_grads_f64_avx2,
            (x, dy, dw, db, ind, outd, m)
        )
}

pub(crate) fn sigmoid_map_f32(input: &[f32], out: &mut [f32]) -> bool {
    dispatch!(
        x86::sigmoid_slice_f32_avx512,
        x86::sigmoid_slice_f32_avx2,
        (input, out)
    )
}

pub(crate) fn sigmoid_map_f64(input: &[f64], out: &mut [f64]) -> bool {
    dispatch!(
        x86::sigmoid_slice_f64_avx512,
        x86::sigmoid_slice_f64_avx2,
        (input, out)
    )
}

/// Element-wise [`crate::math::exp`] of `xs` into `out`, bit-identical per
/// element on every backend: the x86 arms run the `exp` core their sigmoid
/// arms are built around, everything else [`crate::math::exp_slice`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub(crate) fn exp_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "exp_slice length mismatch");
    match kernel_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the backend was selected by runtime feature detection.
        KernelBackend::Avx512 => unsafe { x86::exp_slice_avx512(xs, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        KernelBackend::Avx2 => unsafe { x86::exp_slice_avx2(xs, out) },
        _ => crate::math::exp_slice(xs, out),
    }
}

// ---------------------------------------------------------------------------
// Per-arm entry points for the parity suite. Each runs one *specific* ISA
// arm regardless of the dispatched backend, returning `false` when the host
// CPU lacks the feature so tests can skip that arm. Not public API.
// ---------------------------------------------------------------------------
#[doc(hidden)]
pub mod testing {
    /// Which per-ISA arms the parity suite can exercise on this host.
    pub fn available_arms() -> Vec<&'static str> {
        let mut arms = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                arms.push("avx2");
            }
            if std::is_x86_feature_detected!("avx512f") {
                arms.push("avx512");
            }
        }
        arms
    }

    #[cfg(target_arch = "x86_64")]
    mod x86_arms {
        use super::super::x86;

        macro_rules! arm_fn {
            ($name:ident, $feat:expr, $inner:path,
             ($($arg:ident: $ty:ty),*)) => {
                pub fn $name($($arg: $ty),*) -> bool {
                    if !$feat {
                        return false;
                    }
                    // SAFETY: guarded by the runtime feature check above.
                    unsafe { $inner($($arg),*) };
                    true
                }
            };
        }

        fn has_avx2() -> bool {
            std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
        }
        fn has_avx512() -> bool {
            std::is_x86_feature_detected!("avx512f")
        }

        arm_fn!(avx2_matmul_f32, has_avx2(), x86::matmul_f32_avx2,
            (a: &[f32], b: &[f32], bias: Option<&[f32]>, c: &mut [f32], m: usize, kd: usize, n: usize));
        arm_fn!(avx2_matmul_f64, has_avx2(), x86::matmul_f64_avx2,
            (a: &[f64], b: &[f64], bias: Option<&[f64]>, c: &mut [f64], m: usize, kd: usize, n: usize));
        arm_fn!(avx512_matmul_f32, has_avx512(), x86::matmul_f32_avx512,
            (a: &[f32], b: &[f32], bias: Option<&[f32]>, c: &mut [f32], m: usize, kd: usize, n: usize));
        arm_fn!(avx512_matmul_f64, has_avx512(), x86::matmul_f64_avx512,
            (a: &[f64], b: &[f64], bias: Option<&[f64]>, c: &mut [f64], m: usize, kd: usize, n: usize));
        arm_fn!(avx2_transpose_matmul_f32, has_avx2(), x86::transpose_matmul_f32_avx2,
            (a: &[f32], b: &[f32], bias: Option<&[f32]>, c: &mut [f32], mm: usize, kd: usize, n: usize));
        arm_fn!(avx2_transpose_matmul_f64, has_avx2(), x86::transpose_matmul_f64_avx2,
            (a: &[f64], b: &[f64], bias: Option<&[f64]>, c: &mut [f64], mm: usize, kd: usize, n: usize));
        arm_fn!(avx512_transpose_matmul_f32, has_avx512(), x86::transpose_matmul_f32_avx512,
            (a: &[f32], b: &[f32], bias: Option<&[f32]>, c: &mut [f32], mm: usize, kd: usize, n: usize));
        arm_fn!(avx512_transpose_matmul_f64, has_avx512(), x86::transpose_matmul_f64_avx512,
            (a: &[f64], b: &[f64], bias: Option<&[f64]>, c: &mut [f64], mm: usize, kd: usize, n: usize));
        arm_fn!(avx2_matmul_dot_f32, has_avx2(), x86::matmul_dot_f32_avx2,
            (a: &[f32], b: &[f32], sigmoid: Option<&[f32]>, c: &mut [f32], m: usize, kd: usize, n: usize));
        arm_fn!(avx2_matmul_dot_f64, has_avx2(), x86::matmul_dot_f64_avx2,
            (a: &[f64], b: &[f64], sigmoid: Option<&[f64]>, c: &mut [f64], m: usize, kd: usize, n: usize));
        arm_fn!(avx512_matmul_dot_f32, has_avx512(), x86::matmul_dot_f32_avx512,
            (a: &[f32], b: &[f32], sigmoid: Option<&[f32]>, c: &mut [f32], m: usize, kd: usize, n: usize));
        arm_fn!(avx512_matmul_dot_f64, has_avx512(), x86::matmul_dot_f64_avx512,
            (a: &[f64], b: &[f64], sigmoid: Option<&[f64]>, c: &mut [f64], m: usize, kd: usize, n: usize));
        arm_fn!(avx2_linear_grads_f32, has_avx2(), x86::linear_grads_f32_avx2,
            (x: &[f32], dy: &[f32], dw: &mut [f32], db: &mut [f32], ind: usize, outd: usize, m: usize));
        arm_fn!(avx2_linear_grads_f64, has_avx2(), x86::linear_grads_f64_avx2,
            (x: &[f64], dy: &[f64], dw: &mut [f64], db: &mut [f64], ind: usize, outd: usize, m: usize));
        arm_fn!(avx512_linear_grads_f32, has_avx512(), x86::linear_grads_f32_avx512,
            (x: &[f32], dy: &[f32], dw: &mut [f32], db: &mut [f32], ind: usize, outd: usize, m: usize));
        arm_fn!(avx512_linear_grads_f64, has_avx512(), x86::linear_grads_f64_avx512,
            (x: &[f64], dy: &[f64], dw: &mut [f64], db: &mut [f64], ind: usize, outd: usize, m: usize));
        arm_fn!(avx2_sigmoid_f32, has_avx2(), x86::sigmoid_slice_f32_avx2,
            (input: &[f32], out: &mut [f32]));
        arm_fn!(avx2_sigmoid_f64, has_avx2(), x86::sigmoid_slice_f64_avx2,
            (input: &[f64], out: &mut [f64]));
        arm_fn!(avx512_sigmoid_f32, has_avx512(), x86::sigmoid_slice_f32_avx512,
            (input: &[f32], out: &mut [f32]));
        arm_fn!(avx512_sigmoid_f64, has_avx512(), x86::sigmoid_slice_f64_avx512,
            (input: &[f64], out: &mut [f64]));
        arm_fn!(avx2_sigmoid_f32_exact, has_avx2(), x86::sigmoid_slice_f32_exact_avx2,
            (input: &[f32], out: &mut [f32]));
        arm_fn!(avx512_sigmoid_f32_exact, has_avx512(), x86::sigmoid_slice_f32_exact_avx512,
            (input: &[f32], out: &mut [f32]));
        arm_fn!(avx2_exp_f64, has_avx2(), x86::exp_slice_avx2,
            (input: &[f64], out: &mut [f64]));
        arm_fn!(avx512_exp_f64, has_avx512(), x86::exp_slice_avx512,
            (input: &[f64], out: &mut [f64]));

        /// The fast f32 sigmoid arm of ISA `arm` (a name from
        /// [`available_arms`](super::available_arms)) over `input`, and how
        /// many of its blocks the rounding test sent down the exact chain;
        /// `None` if the host lacks the arm.
        pub fn sigmoid_f32_fallbacks(arm: &str, input: &[f32], out: &mut [f32]) -> Option<usize> {
            // SAFETY: each call is guarded by its runtime feature check.
            match arm {
                "avx2" if has_avx2() => Some(unsafe { x86::sigmoid_slice_f32_avx2(input, out) }),
                "avx512" if has_avx512() => {
                    Some(unsafe { x86::sigmoid_slice_f32_avx512(input, out) })
                }
                _ => None,
            }
        }

        /// Whether the f32 `matmul` arms take the products of activation
        /// `a` by the exact widened route rather than one `vmulps`.
        pub fn exact_product_route(a: f32) -> bool {
            x86::tiny_f32(a)
        }

        /// Whether the feature-major product of ISA `arm` routes a loaded
        /// vector holding `lanes` (8 for AVX2, 16 for AVX-512) exactly;
        /// `None` if the host lacks the arm or the length is not its width.
        pub fn exact_vector_route(arm: &str, lanes: &[f32]) -> Option<bool> {
            use std::arch::x86_64::{_mm256_loadu_ps, _mm512_loadu_ps};
            // SAFETY: each load is guarded by its feature check and length.
            match (arm, lanes.len()) {
                ("avx2", 8) if has_avx2() => unsafe {
                    Some(x86::tiny_lanes_f32_avx2(_mm256_loadu_ps(lanes.as_ptr())))
                },
                ("avx512", 16) if has_avx512() => unsafe {
                    Some(x86::tiny_lanes_f32_avx512(_mm512_loadu_ps(lanes.as_ptr())))
                },
                _ => None,
            }
        }
    }
    #[cfg(target_arch = "x86_64")]
    pub use x86_arms::*;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_is_stable_and_named() {
        let b = kernel_backend();
        assert_eq!(b, kernel_backend(), "dispatch must be one-time");
        assert!(["scalar", "avx2", "avx512"].contains(&b.name()));
        assert_eq!(backend_name(), b.name());
    }

    #[test]
    fn gauge_values_are_distinct() {
        // The ledger reads these ids: they are pinned, not just distinct.
        let all = [
            KernelBackend::Scalar,
            KernelBackend::Avx2,
            KernelBackend::Avx512,
        ];
        assert_eq!(all.map(KernelBackend::gauge_value), [0, 1, 2]);
        assert_eq!(all.map(KernelBackend::name), ["scalar", "avx2", "avx512"]);
    }
}
