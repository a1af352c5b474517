//! The [`Scalar`] abstraction over matrix element types.
//!
//! KML "supports *integer*, *floating-point*, and *double* precision
//! matrices" (§3.1) so the same model code can run with the FPU disabled
//! (fixed-point) or enabled (f32/f64). `Scalar` is the sealed trait that
//! matrices and layers are generic over; the three implementations are `f32`,
//! `f64`, and [`crate::fixed::Fix32`] (Q16.16 fixed point standing in for the
//! paper's integer matrices).

use crate::fixed::Fix32;

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
    impl Sealed for crate::fixed::Fix32 {}
}

/// Element type usable inside a [`crate::matrix::Matrix`].
///
/// This trait is sealed: the supported scalar types are exactly `f32`, `f64`
/// and [`Fix32`], matching the three matrix precisions the paper lists.
pub trait Scalar:
    private::Sealed
    + Copy
    + Clone
    + std::fmt::Debug
    + std::fmt::Display
    + PartialEq
    + PartialOrd
    + Default
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Short name stored in model files (`"f32"`, `"f64"`, `"q16"`).
    const DTYPE: &'static str;
    /// Whether arithmetic on this type uses the floating-point unit
    /// (and therefore must run inside an [`kml_platform::fpu::FpuGuard`]).
    const USES_FPU: bool;
    /// Bytes per element (for the memory-footprint accounting in §4).
    const BYTES: usize = std::mem::size_of::<Self>();

    /// Converts from `f64`, saturating where the representation requires.
    fn from_f64(v: f64) -> Self;
    /// Converts to `f64` (exact for f32/f64, exact by construction for Q16.16).
    fn to_f64(self) -> f64;

    /// Addition.
    fn add(self, rhs: Self) -> Self;
    /// Subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Division.
    fn div(self, rhs: Self) -> Self;
    /// Multiply-accumulate `self + a*b` (the inner-product kernel).
    /// Named `mul_acc` to avoid colliding with `f64::mul_add`, whose argument
    /// convention (`self*a + b`) differs.
    fn mul_acc(self, a: Self, b: Self) -> Self {
        self.add(a.mul(b))
    }

    /// Logistic sigmoid. The default routes through the `f64` approximation
    /// in [`crate::math`]; FPU-free scalars override it.
    fn sigmoid(self) -> Self {
        Self::from_f64(crate::math::sigmoid(self.to_f64()))
    }

    /// Element-wise sigmoid over a slice, bit-identical to mapping
    /// [`Scalar::sigmoid`] per element. The default is that loop; the float
    /// impls override it with the four-lane SLP path
    /// ([`crate::math::sigmoid4`]), whose packed divides are what make the
    /// activation layers cheap.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn sigmoid_map(input: &[Self], out: &mut [Self]) {
        assert_eq!(input.len(), out.len(), "sigmoid_map length mismatch");
        for (o, &x) in out.iter_mut().zip(input) {
            *o = x.sigmoid();
        }
    }

    /// Hyperbolic tangent, same routing policy as [`Scalar::sigmoid`].
    fn tanh(self) -> Self {
        Self::from_f64(crate::math::tanh(self.to_f64()))
    }

    /// Rectified linear unit (`max(0, x)`), FPU-free for every scalar.
    fn relu(self) -> Self {
        if self > Self::ZERO {
            self
        } else {
            Self::ZERO
        }
    }

    // Whole-operation SIMD hooks, dispatched per process by
    // [`crate::simd::kernel_backend`]. Each returns `true` when a
    // bit-identical vector kernel handled the operation, `false` when the
    // caller must run the scalar blocked kernel. The defaults (always
    // `false`) cover [`Fix32`], whose widening integer arithmetic stays on
    // the scalar path; f32/f64 override. Hidden: these are kernel plumbing,
    // not part of the scalar algebra.

    /// `c[m×n] = a[m×kd]·b[kd×n]` (+ `bias[j]` on column `j`) via the
    /// dispatched SIMD backend.
    #[doc(hidden)]
    fn simd_matmul(
        _a: &[Self],
        _b: &[Self],
        _bias: Option<&[Self]>,
        _c: &mut [Self],
        _m: usize,
        _kd: usize,
        _n: usize,
    ) -> bool {
        false
    }

    /// `c[m×n] = a[m×kd]·b[kd×n]`, each element in the four-chain dot
    /// schedule of `Matrix::matmul_dot_into` (times `v·(1 − v)` of the
    /// sigmoid output at its place, if given), via the dispatched SIMD
    /// backend.
    #[doc(hidden)]
    fn simd_matmul_dot(
        _a: &[Self],
        _b: &[Self],
        _sigmoid: Option<&[Self]>,
        _c: &mut [Self],
        _m: usize,
        _kd: usize,
        _n: usize,
    ) -> bool {
        false
    }

    /// `dw[ind×outd] = x[ind×m]·dy[outd×m]ᵀ` and `db` the row sums of
    /// `dy`, chains ascending `m`, via the dispatched SIMD backend.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    fn simd_linear_grads(
        _x: &[Self],
        _dy: &[Self],
        _dw: &mut [Self],
        _db: &mut [Self],
        _ind: usize,
        _outd: usize,
        _m: usize,
    ) -> bool {
        false
    }

    /// `c[mm×n] = a[kd×mm]ᵀ·b[kd×n]` (+ `bias[i]` on row `i`) via the
    /// dispatched SIMD backend.
    #[doc(hidden)]
    fn simd_transpose_matmul(
        _a: &[Self],
        _b: &[Self],
        _bias: Option<&[Self]>,
        _c: &mut [Self],
        _mm: usize,
        _kd: usize,
        _n: usize,
    ) -> bool {
        false
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const DTYPE: &'static str = "f32";
    const USES_FPU: bool = true;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }

    fn sigmoid_map(input: &[Self], out: &mut [Self]) {
        assert_eq!(input.len(), out.len(), "sigmoid_map length mismatch");
        if crate::simd::sigmoid_map_f32(input, out) {
            return;
        }
        // Widen to f64 lanes — sixteen at a time while the slice lasts,
        // then four — narrowing back exactly like the scalar
        // `from_f64(sigmoid(to_f64(x)))` route.
        let mut oc16 = out.chunks_exact_mut(16);
        let mut ic16 = input.chunks_exact(16);
        for (o16, i16) in (&mut oc16).zip(&mut ic16) {
            let mut wide = [0.0f64; 16];
            for (w, &x) in wide.iter_mut().zip(i16) {
                *w = x as f64;
            }
            let y = crate::math::sigmoid16(&wide);
            for (o, &v) in o16.iter_mut().zip(&y) {
                *o = v as f32;
            }
        }
        let mut oc = oc16.into_remainder().chunks_exact_mut(4);
        let mut ic = ic16.remainder().chunks_exact(4);
        for (o4, i4) in (&mut oc).zip(&mut ic) {
            let y = crate::math::sigmoid4([i4[0] as f64, i4[1] as f64, i4[2] as f64, i4[3] as f64]);
            o4[0] = y[0] as f32;
            o4[1] = y[1] as f32;
            o4[2] = y[2] as f32;
            o4[3] = y[3] as f32;
        }
        for (o, &x) in oc.into_remainder().iter_mut().zip(ic.remainder()) {
            *o = x.sigmoid();
        }
    }

    #[doc(hidden)]
    fn simd_matmul(
        a: &[Self],
        b: &[Self],
        bias: Option<&[Self]>,
        c: &mut [Self],
        m: usize,
        kd: usize,
        n: usize,
    ) -> bool {
        crate::simd::matmul_f32(a, b, bias, c, m, kd, n)
    }

    #[doc(hidden)]
    fn simd_matmul_dot(
        a: &[Self],
        b: &[Self],
        sigmoid: Option<&[Self]>,
        c: &mut [Self],
        m: usize,
        kd: usize,
        n: usize,
    ) -> bool {
        crate::simd::matmul_dot_f32(a, b, sigmoid, c, m, kd, n)
    }

    #[doc(hidden)]
    fn simd_linear_grads(
        x: &[Self],
        dy: &[Self],
        dw: &mut [Self],
        db: &mut [Self],
        ind: usize,
        outd: usize,
        m: usize,
    ) -> bool {
        crate::simd::linear_grads_f32(x, dy, dw, db, ind, outd, m)
    }

    #[doc(hidden)]
    fn simd_transpose_matmul(
        a: &[Self],
        b: &[Self],
        bias: Option<&[Self]>,
        c: &mut [Self],
        mm: usize,
        kd: usize,
        n: usize,
    ) -> bool {
        crate::simd::transpose_matmul_f32(a, b, bias, c, mm, kd, n)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const DTYPE: &'static str = "f64";
    const USES_FPU: bool = true;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }

    fn sigmoid_map(input: &[Self], out: &mut [Self]) {
        assert_eq!(input.len(), out.len(), "sigmoid_map length mismatch");
        if crate::simd::sigmoid_map_f64(input, out) {
            return;
        }
        crate::math::sigmoid_slice(input, out);
    }

    #[doc(hidden)]
    fn simd_matmul(
        a: &[Self],
        b: &[Self],
        bias: Option<&[Self]>,
        c: &mut [Self],
        m: usize,
        kd: usize,
        n: usize,
    ) -> bool {
        crate::simd::matmul_f64(a, b, bias, c, m, kd, n)
    }

    #[doc(hidden)]
    fn simd_matmul_dot(
        a: &[Self],
        b: &[Self],
        sigmoid: Option<&[Self]>,
        c: &mut [Self],
        m: usize,
        kd: usize,
        n: usize,
    ) -> bool {
        crate::simd::matmul_dot_f64(a, b, sigmoid, c, m, kd, n)
    }

    #[doc(hidden)]
    fn simd_linear_grads(
        x: &[Self],
        dy: &[Self],
        dw: &mut [Self],
        db: &mut [Self],
        ind: usize,
        outd: usize,
        m: usize,
    ) -> bool {
        crate::simd::linear_grads_f64(x, dy, dw, db, ind, outd, m)
    }

    #[doc(hidden)]
    fn simd_transpose_matmul(
        a: &[Self],
        b: &[Self],
        bias: Option<&[Self]>,
        c: &mut [Self],
        mm: usize,
        kd: usize,
        n: usize,
    ) -> bool {
        crate::simd::transpose_matmul_f64(a, b, bias, c, mm, kd, n)
    }
}

impl Scalar for Fix32 {
    const ZERO: Self = Fix32::ZERO;
    const ONE: Self = Fix32::ONE;
    const DTYPE: &'static str = "q16";
    const USES_FPU: bool = false;

    #[inline]
    fn from_f64(v: f64) -> Self {
        Fix32::from_f64(v)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        Fix32::to_f64(self)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }

    /// FPU-free piecewise-linear sigmoid (the fixed-point trick the paper's
    /// §3.1 discussion motivates): exact at 0 and saturated beyond |x| ≥ 5,
    /// linear interpolation on 10 integer-boundary segments in between.
    /// Max absolute error ≈ 0.02 — enough for classification, measured in
    /// the `ablate_dtype` benchmark.
    fn sigmoid(self) -> Self {
        // Knot table: sigmoid at x = 0..=5, Q16.16-encoded.
        const KNOTS: [i64; 6] = [32768, 47911, 57723, 62428, 64357, 65097];
        let x = self.to_bits() as i64;
        let (neg, ax) = if x < 0 { (true, -x) } else { (false, x) };
        let y = if ax >= (5 << 16) {
            65536 // saturate at 1.0
        } else {
            let seg = (ax >> 16) as usize;
            let frac = ax & 0xffff; // position within the segment, Q0.16
            let lo = KNOTS[seg];
            let hi = KNOTS[seg + 1];
            lo + (((hi - lo) * frac) >> 16)
        };
        let y = if neg { 65536 - y } else { y };
        Fix32::from_bits(y as i32)
    }

    /// FPU-free tanh via the identity `tanh(x) = 2σ(2x) − 1` on the
    /// piecewise-linear sigmoid.
    fn tanh(self) -> Self {
        let two = Fix32::from_bits(2 << 16);
        let two_x = self * two;
        (Scalar::sigmoid(two_x) * two) - Fix32::ONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_names_are_distinct() {
        assert_ne!(f32::DTYPE, f64::DTYPE);
        assert_ne!(f64::DTYPE, Fix32::DTYPE);
    }

    #[test]
    fn fpu_flags_match_representation() {
        // Compile-time constants; compare against runtime values so the
        // intent (floats guard, fixed point does not) stays asserted.
        let flags = [f32::USES_FPU, f64::USES_FPU, Fix32::USES_FPU];
        assert_eq!(flags, [true, true, false]);
    }

    #[test]
    fn f64_round_trip_is_exact() {
        for &v in &[-3.25, 0.0, 1.0, 12345.6789] {
            assert_eq!(f64::from_f64(v).to_f64(), v);
        }
    }

    #[test]
    fn mul_acc_default_matches_composition() {
        let acc = 1.5f64;
        assert_eq!(Scalar::mul_acc(acc, 2.0, 3.0), 1.5 + 2.0 * 3.0);
    }

    #[test]
    fn bytes_constant_matches_size_of() {
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f64::BYTES, 8);
        assert_eq!(Fix32::BYTES, 4);
    }

    #[test]
    fn fixed_sigmoid_tracks_float_sigmoid() {
        let mut x = -8.0;
        while x <= 8.0 {
            let want = crate::math::sigmoid(x);
            let got = Scalar::sigmoid(Fix32::from_f64(x)).to_f64();
            assert!(
                (got - want).abs() < 0.025,
                "piecewise sigmoid({x}): got {got}, want {want}"
            );
            x += 0.13;
        }
    }

    #[test]
    fn fixed_sigmoid_is_monotone_and_symmetric() {
        let mut prev = -1.0;
        let mut x = -10.0;
        while x <= 10.0 {
            let s = Scalar::sigmoid(Fix32::from_f64(x)).to_f64();
            assert!(s >= prev, "monotonicity broken at {x}");
            let mirrored = Scalar::sigmoid(Fix32::from_f64(-x)).to_f64();
            assert!((s + mirrored - 1.0).abs() < 2e-4, "symmetry broken at {x}");
            prev = s;
            x += 0.25;
        }
    }

    #[test]
    fn fixed_tanh_tracks_float_tanh() {
        let mut x = -3.0;
        while x <= 3.0 {
            let want = crate::math::tanh(x);
            let got = Scalar::tanh(Fix32::from_f64(x)).to_f64();
            assert!(
                (got - want).abs() < 0.05,
                "piecewise tanh({x}): {got} vs {want}"
            );
            x += 0.11;
        }
    }

    #[test]
    fn relu_zeroes_negatives_for_all_scalars() {
        assert_eq!(Scalar::relu(-1.0f64), 0.0);
        assert_eq!(Scalar::relu(2.0f64), 2.0);
        assert_eq!(Scalar::relu(Fix32::from_f64(-3.0)), Fix32::ZERO);
        assert_eq!(Scalar::relu(Fix32::from_f64(3.0)).to_f64(), 3.0);
    }

    #[test]
    fn sigmoid_map_matches_per_element_for_every_scalar() {
        fn check<S: Scalar>() {
            // Lengths straddling the quad boundary, mixed-sign values.
            for len in [0usize, 1, 3, 4, 5, 8, 17] {
                let input: Vec<S> = (0..len)
                    .map(|i| S::from_f64(i as f64 * 0.63 - 3.1))
                    .collect();
                let mut out = vec![S::ZERO; len];
                S::sigmoid_map(&input, &mut out);
                for (&x, &got) in input.iter().zip(&out) {
                    let want = x.sigmoid();
                    assert!(
                        got.to_f64().to_bits() == want.to_f64().to_bits(),
                        "{}: sigmoid_map({:?}) = {got:?}, want {want:?}",
                        S::DTYPE,
                        x
                    );
                }
            }
        }
        check::<f32>();
        check::<f64>();
        check::<Fix32>();
    }

    #[test]
    fn float_sigmoid_default_matches_math() {
        let got = Scalar::sigmoid(0.7f64);
        assert!((got - crate::math::sigmoid(0.7)).abs() < 1e-15);
    }
}
