//! The [`Scalar`] abstraction over matrix element types.
//!
//! KML "supports *integer*, *floating-point*, and *double* precision
//! matrices" (§3.1); the loop it deploys runs f32 inside
//! `kernel_fpu_begin/end`, and so does this one. `Scalar` is the sealed
//! trait that matrices and layers are generic over; the two implementations
//! are `f32` and `f64`, and every model runs inside an
//! [`kml_platform::fpu::FpuGuard`].

mod private {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Element type usable inside a [`crate::matrix::Matrix`].
///
/// This trait is sealed: the supported scalar types are exactly `f32` and
/// `f64`.
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
    /// Short name stored in model files (`"f32"`, `"f64"`).
    const DTYPE: &'static str;
    /// Bytes per element (for the memory-footprint accounting in §4).
    const BYTES: usize = std::mem::size_of::<Self>();

    /// Converts from `f64`, rounding to nearest where the type is narrower.
    fn from_f64(v: f64) -> Self;
    /// Converts to `f64` (exact for both).
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

    /// Logistic sigmoid, through the `f64` approximation in [`crate::math`].
    fn sigmoid(self) -> Self {
        Self::from_f64(crate::math::sigmoid(self.to_f64()))
    }

    /// Element-wise sigmoid over a slice, bit-identical to mapping
    /// [`Scalar::sigmoid`] per element: the dispatched SIMD arm, else the
    /// four- and sixteen-lane SLP paths ([`crate::math::sigmoid4`]), whose
    /// packed divides are what make the activation layers cheap.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn sigmoid_map(input: &[Self], out: &mut [Self]);

    /// Hyperbolic tangent, same routing policy as [`Scalar::sigmoid`].
    fn tanh(self) -> Self {
        Self::from_f64(crate::math::tanh(self.to_f64()))
    }

    /// Rectified linear unit (`max(0, x)`).
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
    // caller must run the scalar blocked kernel. Hidden: these are kernel
    // plumbing, not part of the scalar algebra.

    /// `c[m×n] = a[m×kd]·b[kd×n]` (+ `bias[j]` on column `j`) via the
    /// dispatched SIMD backend.
    #[doc(hidden)]
    fn simd_matmul(
        a: &[Self],
        b: &[Self],
        bias: Option<&[Self]>,
        c: &mut [Self],
        m: usize,
        kd: usize,
        n: usize,
    ) -> bool;

    /// `c[m×n] = a[m×kd]·b[kd×n]`, each element in the four-chain dot
    /// schedule of `Matrix::matmul_dot_into` (times `v·(1 − v)` of the
    /// sigmoid output at its place, if given), via the dispatched SIMD
    /// backend.
    #[doc(hidden)]
    fn simd_matmul_dot(
        a: &[Self],
        b: &[Self],
        sigmoid: Option<&[Self]>,
        c: &mut [Self],
        m: usize,
        kd: usize,
        n: usize,
    ) -> bool;

    /// `dw[ind×outd] = x[ind×m]·dy[outd×m]ᵀ` and `db` the row sums of
    /// `dy`, chains ascending `m`, via the dispatched SIMD backend.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    fn simd_linear_grads(
        x: &[Self],
        dy: &[Self],
        dw: &mut [Self],
        db: &mut [Self],
        ind: usize,
        outd: usize,
        m: usize,
    ) -> bool;

    /// `c[mm×n] = a[kd×mm]ᵀ·b[kd×n]` (+ `bias[i]` on row `i`) via the
    /// dispatched SIMD backend.
    #[doc(hidden)]
    fn simd_transpose_matmul(
        a: &[Self],
        b: &[Self],
        bias: Option<&[Self]>,
        c: &mut [Self],
        mm: usize,
        kd: usize,
        n: usize,
    ) -> bool;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const DTYPE: &'static str = "f32";

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_names_are_distinct() {
        assert_ne!(f32::DTYPE, f64::DTYPE);
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
    }

    #[test]
    fn relu_zeroes_negatives_for_all_scalars() {
        assert_eq!(Scalar::relu(-1.0f64), 0.0);
        assert_eq!(Scalar::relu(2.0f64), 2.0);
        assert_eq!(Scalar::relu(-3.0f32), 0.0);
        assert_eq!(Scalar::relu(3.0f32), 3.0);
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
    }

    #[test]
    fn float_sigmoid_default_matches_math() {
        let got = Scalar::sigmoid(0.7f64);
        assert!((got - crate::math::sigmoid(0.7)).abs() < 1e-15);
    }
}
