//! From-scratch math approximations (paper §2 "Math and matrix operations").
//!
//! The kernel offers no `libm`, so KML "implemented must-have functions such
//! as logarithm, softmax, and logistic from scratch using approximation
//! algorithms". This module is that layer: every transcendental used by the
//! library is computed here with classic range-reduction + polynomial /
//! iterative schemes, using only `f64` arithmetic primitives (`+ - * /`) and
//! integer bit manipulation. Accuracy targets are documented per function and
//! locked in by tests against `std` implementations.

/// Natural exponential via range reduction and an order-11 Taylor core.
///
/// Reduces `x = k·ln2 + r` with `|r| ≤ ln2/2`, evaluates the Taylor series of
/// `e^r` (converges fast on the reduced range), and reassembles with an exact
/// power-of-two scale. Relative error < 1e-13 on `[-700, 700]`.
///
/// # Example
///
/// ```
/// let y = kml_core::math::exp(1.0);
/// assert!((y - std::f64::consts::E).abs() < 1e-12);
/// ```
#[inline]
pub fn exp(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    // Overflow / underflow clamps for f64.
    if x > 709.78 {
        return f64::INFINITY;
    }
    if x < -745.0 {
        return 0.0;
    }
    const LN2: f64 = std::f64::consts::LN_2;
    // x = k*ln2 + r. The k computation must stay a division: multiplying
    // by a precomputed 1/ln2 can flip k near half-integer quotients.
    let k = (x / LN2 + if x >= 0.0 { 0.5 } else { -0.5 }) as i64;
    let r = x - (k as f64) * LN2;
    // Taylor series e^r = sum r^n / n! for |r| <= ln2/2 ≈ 0.347, evaluated
    // with term_n = term_{n-1} · (r/n) exactly like the original loop — but
    // only six of the thirteen r/n quotients need a real division. The rest
    // are exact power-of-two scalings of those (r/2 = r·½, r/6 = (r/3)·½,
    // r/12 = (r/3)·¼, …): |r/n| stays far from subnormals, so scaling by
    // ½/¼/⅛ commutes with rounding and each product is bit-identical to the
    // divided form. r/9 keeps its own division — (r/3)/3 would round twice.
    // The six divisions are independent, so they pipeline instead of
    // serializing on the divider the way the loop-carried r/n chain did.
    let r3 = r / 3.0;
    let r5 = r / 5.0;
    let r7 = r / 7.0;
    let r9 = r / 9.0;
    let r11 = r / 11.0;
    let r13 = r / 13.0;
    let mut term = r;
    let mut sum = 1.0 + term;
    term *= r * 0.5;
    sum += term;
    term *= r3;
    sum += term;
    term *= r * 0.25;
    sum += term;
    term *= r5;
    sum += term;
    term *= r3 * 0.5;
    sum += term;
    term *= r7;
    sum += term;
    term *= r * 0.125;
    sum += term;
    term *= r9;
    sum += term;
    term *= r5 * 0.5;
    sum += term;
    term *= r11;
    sum += term;
    term *= r3 * 0.25;
    sum += term;
    term *= r13;
    sum += term;
    scale_by_pow2(sum, k as i32)
}

/// Multiplies finite `x` by `2^k` using exponent-field manipulation: exact
/// while the result is normal, and rounded as `-k` successive halvings
/// would round it once it is not (see [`halve_into_subnormal`]).
fn scale_by_pow2(x: f64, k: i32) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let bits = x.to_bits();
    let exp_bits = ((bits >> 52) & 0x7ff) as i64;
    let new_exp = exp_bits + k as i64;
    if new_exp <= 0 {
        // The result is an f64 subnormal: every `exp` argument in
        // (-745, -708), hence every sigmoid input with |x| in that band.
        // Not rare — a closed loop fed offsets far outside its normaliser's
        // training range lands a hidden unit here on almost every window
        // (0.94 times per inference on `loop-replay`, EXPERIMENTS.md E20) —
        // so the tail is outlined to keep this function inlinable, not
        // because it is seldom taken.
        return halve_into_subnormal(bits, k);
    }
    if new_exp >= 0x7ff {
        return if x > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    f64::from_bits((bits & !(0x7ffu64 << 52)) | ((new_exp as u64) << 52))
}

/// The subnormal tail of [`scale_by_pow2`]: a finite non-zero f64, given
/// as its `bits`, after `-k` successive `* 0.5`s, for an exponent field
/// plus `k` at or below zero, computed on the integer significand.
///
/// A halving whose result is normal only decrements the exponent field and
/// is exact, so all of those collapse into setting the field to 1, where
/// the value is `m · 2^-1074` with `m` the 53-bit significand (a subnormal
/// input is already on that scale, without the implicit bit). From there
/// the representable values are the integers `m`, each `* 0.5` is `m / 2`
/// rounded half to even — `m >> 1`, plus one when the dropped bit and the
/// kept low bit are both set — and `m` itself is the result's encoding
/// (`2^52`, the one way to round back up, is the smallest normal). 54 steps
/// take any `m < 2^53` to zero, which bounds the loop whatever `k` is.
#[cold]
#[inline(never)]
fn halve_into_subnormal(bits: u64, k: i32) -> f64 {
    const FRAC: u64 = (1 << 52) - 1;
    let exp_bits = ((bits >> 52) & 0x7ff) as i64;
    let (mut m, exact) = if exp_bits == 0 {
        (bits & FRAC, 0)
    } else {
        ((bits & FRAC) | (1 << 52), exp_bits - 1)
    };
    for _ in 0..(-(k as i64) - exact).min(54) {
        m = (m >> 1) + (m & (m >> 1) & 1);
    }
    f64::from_bits((bits & (1 << 63)) | m)
}

/// Natural logarithm via exponent extraction and the `atanh` series.
///
/// Writes `x = m·2^e` with `m ∈ [√½, √2)`, then `ln m = 2·atanh((m-1)/(m+1))`
/// evaluated as an odd polynomial. Relative error < 1e-14 for normal inputs.
///
/// Returns NaN for negative inputs and `-inf` for zero, matching `f64::ln`.
///
/// # Example
///
/// ```
/// assert!((kml_core::math::ln(10.0) - 10.0_f64.ln()).abs() < 1e-13);
/// ```
pub fn ln(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x.is_infinite() {
        return f64::INFINITY;
    }
    if x < f64::MIN_POSITIVE {
        // Subnormal: normalize by scaling up.
        let y = x * scale_by_pow2(1.0, 60);
        return ln(y) - 60.0 * std::f64::consts::LN_2;
    }
    ln_core([x])[0]
}

/// Lane-generic [`ln`] core — the function itself for one lane, and the
/// block form [`ln_slice`] runs at four. Caller guarantees every lane is a
/// positive, normal, finite number, so none of `ln`'s special cases can
/// fire; the per-lane operation sequence never depends on `N`, so each lane
/// comes out bit for bit as `ln` makes it. The thirteen `power / (2n+1)`
/// quotients stay real divisions (`power` reaches the subnormals for
/// mantissas next to 1, where no multiply-by-reciprocal scheme is exact);
/// they are independent of one another, so a block keeps the divider busy
/// instead of waiting on it lane by lane.
#[inline]
fn ln_core<const N: usize>(x: [f64; N]) -> [f64; N] {
    const SQRT2: f64 = std::f64::consts::SQRT_2;
    let (mut t, mut t2, mut e) = ([0.0f64; N], [0.0f64; N], [0.0f64; N]);
    for i in 0..N {
        let bits = x[i].to_bits();
        let mut exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let mut mant = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
        // Bring mantissa into [sqrt(1/2), sqrt(2)) for fast series convergence.
        if mant > SQRT2 {
            mant *= 0.5;
            exp += 1;
        }
        t[i] = (mant - 1.0) / (mant + 1.0);
        t2[i] = t[i] * t[i];
        e[i] = exp as f64;
    }
    // 2*atanh(t) = 2t (1 + t²/3 + t⁴/5 + ...)
    let mut sum = [0.0f64; N];
    let mut power = [1.0f64; N];
    for n in 0..13 {
        let d = (2 * n + 1) as f64;
        for i in 0..N {
            sum[i] += power[i] / d;
            power[i] *= t2[i];
        }
    }
    let mut out = [0.0f64; N];
    for i in 0..N {
        out[i] = 2.0 * t[i] * sum[i] + e[i] * std::f64::consts::LN_2;
    }
    out
}

/// Element-wise [`ln`] of `xs` into `out`, bit-identical per element: four
/// lanes at a time through [`ln_core`] while a whole quad is positive,
/// normal and finite, the scalar function for any other quad and the tail.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn ln_slice(xs: &[f64], out: &mut [f64]) {
    // The range test is false for NaN, so NaN lanes also go scalar.
    let easy = |v: &f64| (f64::MIN_POSITIVE..f64::INFINITY).contains(v);
    quad_map(xs, out, easy, ln_core, ln);
}

/// `out[i] = scalar(xs[i])`, four lanes at a time through `core` — the
/// straight-line middle of `scalar`, bit-identical to it on lanes `easy`
/// admits — while a whole quad is easy; any other quad and the tail take
/// `scalar` itself, so every special case keeps its exact scalar bits.
fn quad_map(
    xs: &[f64],
    out: &mut [f64],
    easy: impl Fn(&f64) -> bool,
    core: impl Fn([f64; 4]) -> [f64; 4],
    scalar: fn(f64) -> f64,
) {
    assert_eq!(xs.len(), out.len(), "block map length mismatch");
    let mut oc = out.chunks_exact_mut(4);
    let mut ic = xs.chunks_exact(4);
    for (o4, i4) in (&mut oc).zip(&mut ic) {
        let x: [f64; 4] = i4.try_into().expect("exact chunk");
        o4.copy_from_slice(&if x.iter().all(&easy) {
            core(x)
        } else {
            x.map(scalar)
        });
    }
    for (o, &v) in oc.into_remainder().iter_mut().zip(ic.remainder()) {
        *o = scalar(v);
    }
}

/// Logistic sigmoid `1/(1+e^{-x})`, numerically stable on both tails.
///
/// # Example
///
/// ```
/// assert_eq!(kml_core::math::sigmoid(0.0), 0.5);
/// assert!(kml_core::math::sigmoid(40.0) > 0.999999);
/// ```
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    // One exp of -|x| replaces the classic two-sided branch: for x ≥ 0 the
    // argument is -x and for x < 0 it is x, exactly the operand each branch
    // used, so the result is bit-identical. The payoff is predictability —
    // exp's internal sign test always sees a non-positive argument, so in a
    // loop over mixed-sign activations every branch is static and several
    // elements' Taylor chains stay in flight at once.
    let e = exp(-x.abs());
    let num = if x >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// Four-lane sigmoid, bit-identical to [`sigmoid`] per lane.
///
/// The straight-line core repeats [`exp`]'s arithmetic op-for-op across four
/// independent lanes, which the SLP vectorizer turns into packed SSE2
/// arithmetic — crucially one packed divide per `r/n` quotient instead of
/// four serialized scalar divides (the divider, not the multiply chain, is
/// what bounds the scalar path). Any lane outside `(-700, 700)` — the
/// clamps, NaN, the subnormal band — sends the whole quad down the scalar
/// function, so every special case keeps its exact scalar bits. That is
/// the common case, not the exception, for a deployed loop: features far
/// outside the normaliser's training range saturate most hidden units and
/// leave one of them in `exp`'s subnormal band on nearly every window
/// (EXPERIMENTS.md E20), which is why `exp` is constant-time there and why
/// the x86 arms (`simd::x86`) settle clamped lanes in-register and call
/// the scalar function for the band and NaN lanes alone. This portable
/// fall-back keeps the quad demotion: it costs at most three neighbours.
#[inline]
pub fn sigmoid4(x: [f64; 4]) -> [f64; 4] {
    let mut easy = true;
    for &xi in &x {
        // Comparison is false for NaN, so NaN lanes also fall back.
        easy &= xi.abs() < 700.0;
    }
    if !easy {
        return [sigmoid(x[0]), sigmoid(x[1]), sigmoid(x[2]), sigmoid(x[3])];
    }
    sigmoid_core(&x)
}

/// Sixteen-lane sigmoid, bit-identical to [`sigmoid`] per lane.
///
/// Four independent quad-chains in flight at once: the Taylor recurrence in
/// [`exp_core`] is latency-bound at four lanes (each `term` update waits on
/// the previous one), so widening to sixteen keeps the multiplier and
/// divider pipelines full and roughly halves the per-element cost. Only
/// long activation slices can use this width — a single-row inference over
/// a 10- or 15-unit layer never reaches 16 contiguous elements, which is
/// exactly why batched serving pulls ahead of per-row serving on the same
/// arithmetic. Any hard lane (|x| ≥ 700, NaN) demotes the whole block to
/// [`sigmoid4`], preserving scalar special-case bits.
#[inline]
pub fn sigmoid16(x: &[f64; 16]) -> [f64; 16] {
    let mut easy = true;
    for &xi in x {
        easy &= xi.abs() < 700.0;
    }
    if !easy {
        let mut out = [0.0f64; 16];
        for (o4, i4) in out.chunks_exact_mut(4).zip(x.chunks_exact(4)) {
            o4.copy_from_slice(&sigmoid4([i4[0], i4[1], i4[2], i4[3]]));
        }
        return out;
    }
    sigmoid_core(x)
}

/// Lane-generic easy-path core: σ(x) = num / (1 + e) with `e = exp(-|x|)`,
/// exactly as in [`sigmoid`]. Caller guarantees every lane is in
/// `(-700, 700)`.
#[inline]
fn sigmoid_core<const N: usize>(x: &[f64; N]) -> [f64; N] {
    let mut neg = [0.0f64; N];
    for i in 0..N {
        neg[i] = -x[i].abs();
    }
    let e = exp_core(neg);
    let mut out = [0.0f64; N];
    for i in 0..N {
        let num = if x[i] >= 0.0 { 1.0 } else { e[i] };
        out[i] = num / (1.0 + e[i]);
    }
    out
}

/// Element-wise [`sigmoid`] of `xs` into `out`: sixteen lanes at a time
/// while the slice lasts, then four, then scalar.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sigmoid_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "sigmoid_slice length mismatch");
    let mut oc16 = out.chunks_exact_mut(16);
    let mut ic16 = xs.chunks_exact(16);
    for (o16, i16) in (&mut oc16).zip(&mut ic16) {
        o16.copy_from_slice(&sigmoid16(i16.try_into().expect("exact chunk")));
    }
    let mut oc = oc16.into_remainder().chunks_exact_mut(4);
    let mut ic = ic16.remainder().chunks_exact(4);
    for (o4, i4) in (&mut oc).zip(&mut ic) {
        o4.copy_from_slice(&sigmoid4([i4[0], i4[1], i4[2], i4[3]]));
    }
    for (o, &v) in oc.into_remainder().iter_mut().zip(ic.remainder()) {
        *o = sigmoid(v);
    }
}

/// Element-wise [`exp`] of `xs` into `out`, bit-identical per element: four
/// lanes at a time through [`exp_core`] while a whole quad is inside
/// `(-700, 700)`, the scalar function for any other quad (the clamps, NaN,
/// the subnormal band) and for the tail. The portable form of the block
/// `exp` the softmax pass runs; the x86 arms (`simd::x86`) share their
/// sigmoid's core the same way.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn exp_slice(xs: &[f64], out: &mut [f64]) {
    quad_map(xs, out, |v| v.abs() < 700.0, exp_core, exp);
}

/// Lane-generic [`exp`] core. Caller guarantees every lane is in
/// `(-700, 700)` so none of the scalar function's clamp or subnormal
/// branches can fire; on that range each lane reproduces `exp` bit-for-bit
/// at any width (the per-lane op sequence never depends on `N`). Four
/// lanes saturate SSE2 register width; sixteen keep four independent
/// Taylor chains in flight so the multiplier pipeline stays full.
#[inline]
fn exp_core<const N: usize>(x: [f64; N]) -> [f64; N] {
    #[inline(always)]
    fn vdiv<const N: usize>(a: [f64; N], d: f64) -> [f64; N] {
        let mut o = [0.0f64; N];
        for i in 0..N {
            o[i] = a[i] / d;
        }
        o
    }
    #[inline(always)]
    fn vmuls<const N: usize>(a: [f64; N], s: f64) -> [f64; N] {
        let mut o = [0.0f64; N];
        for i in 0..N {
            o[i] = a[i] * s;
        }
        o
    }
    #[inline(always)]
    fn vmul<const N: usize>(a: [f64; N], b: [f64; N]) -> [f64; N] {
        let mut o = [0.0f64; N];
        for i in 0..N {
            o[i] = a[i] * b[i];
        }
        o
    }
    #[inline(always)]
    fn vadd<const N: usize>(a: [f64; N], b: [f64; N]) -> [f64; N] {
        let mut o = [0.0f64; N];
        for i in 0..N {
            o[i] = a[i] + b[i];
        }
        o
    }
    const LN2: f64 = std::f64::consts::LN_2;
    // Same reduction as [`exp`]: the quotient stays a division, the ±0.5
    // rounding bias a select. (`x - kf·LN2` equals `x + kf·(-LN2)` exactly —
    // IEEE sign flips are exact — so the fused form below keeps `r`'s bits.)
    let q = vdiv(x, LN2);
    let mut k = [0i64; N];
    let mut kf = [0.0f64; N];
    for i in 0..N {
        let half = if x[i] >= 0.0 { 0.5 } else { -0.5 };
        k[i] = (q[i] + half) as i64;
        kf[i] = k[i] as f64;
    }
    let r = vadd(x, vmuls(kf, -LN2));
    // The [`exp`] Taylor chain, lane-parallel: identical term/sum updates in
    // identical order, so each lane's rounding matches the scalar walk.
    let r3 = vdiv(r, 3.0);
    let r5 = vdiv(r, 5.0);
    let r7 = vdiv(r, 7.0);
    let r9 = vdiv(r, 9.0);
    let r11 = vdiv(r, 11.0);
    let r13 = vdiv(r, 13.0);
    let mut term = r;
    let mut sum = vadd([1.0; N], term);
    term = vmul(term, vmuls(r, 0.5));
    sum = vadd(sum, term);
    term = vmul(term, r3);
    sum = vadd(sum, term);
    term = vmul(term, vmuls(r, 0.25));
    sum = vadd(sum, term);
    term = vmul(term, r5);
    sum = vadd(sum, term);
    term = vmul(term, vmuls(r3, 0.5));
    sum = vadd(sum, term);
    term = vmul(term, r7);
    sum = vadd(sum, term);
    term = vmul(term, vmuls(r, 0.125));
    sum = vadd(sum, term);
    term = vmul(term, r9);
    sum = vadd(sum, term);
    term = vmul(term, vmuls(r5, 0.5));
    sum = vadd(sum, term);
    term = vmul(term, r11);
    sum = vadd(sum, term);
    term = vmul(term, vmuls(r3, 0.25));
    sum = vadd(sum, term);
    term = vmul(term, r13);
    sum = vadd(sum, term);
    // In-range scale_by_pow2: `sum` is never zero and the shifted exponent
    // stays inside (0, 0x7ff), so the bit splice needs no branches.
    let mut out = [0.0f64; N];
    for i in 0..N {
        let bits = sum[i].to_bits();
        let exp_bits = ((bits >> 52) & 0x7ff) as i64;
        let new_exp = (exp_bits + k[i]) as u64;
        out[i] = f64::from_bits((bits & !(0x7ffu64 << 52)) | (new_exp << 52));
    }
    out
}

/// Hyperbolic tangent via the stable identity `tanh(x) = 2σ(2x) − 1`.
///
/// # Example
///
/// ```
/// assert!((kml_core::math::tanh(0.5) - 0.5_f64.tanh()).abs() < 1e-12);
/// ```
#[inline]
pub fn tanh(x: f64) -> f64 {
    2.0 * sigmoid(2.0 * x) - 1.0
}

/// Square root by Newton–Raphson on a bit-level initial guess.
///
/// Returns NaN for negative inputs. Relative error < 1e-15.
///
/// # Example
///
/// ```
/// assert!((kml_core::math::sqrt(2.0) - std::f64::consts::SQRT_2).abs() < 1e-14);
/// ```
pub fn sqrt(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 || x.is_infinite() {
        return x;
    }
    // Initial guess: halve the exponent (classic bit hack for doubles).
    let guess = f64::from_bits((x.to_bits() >> 1) + (1023u64 << 51));
    let mut y = guess;
    for _ in 0..5 {
        y = 0.5 * (y + x / y);
    }
    y
}

/// In-place softmax over `v` with max-subtraction for numerical stability.
///
/// After the call `v` sums to 1 (within FP error) and every element is in
/// `(0, 1]`. Empty slices are left untouched.
///
/// # Example
///
/// ```
/// let mut v = [1.0, 2.0, 3.0];
/// kml_core::math::softmax_in_place(&mut v);
/// let sum: f64 = v.iter().sum();
/// assert!((sum - 1.0).abs() < 1e-12);
/// assert!(v[2] > v[1] && v[1] > v[0]);
/// ```
pub fn softmax_in_place(v: &mut [f64]) {
    if v.is_empty() {
        return;
    }
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for x in v.iter_mut() {
        *x = exp(*x - max);
        sum += *x;
    }
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

/// `log(softmax(v))[i]` computed stably (used by cross-entropy).
///
/// # Panics
///
/// Panics if `i >= v.len()` or `v` is empty.
pub fn log_softmax_at(v: &[f64], i: usize) -> f64 {
    assert!(!v.is_empty(), "log_softmax_at on empty slice");
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for &x in v {
        sum += exp(x - max);
    }
    (v[i] - max) - ln(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// FNV-1a of every output's bits over each band test's grid, and a
    /// few outputs as literals, recorded from the repeated-halving
    /// reference — `scale_by_pow2` as it was before the integer tail, `-k`
    /// serial `* 0.5`s once the result leaves the normal range, and `exp`
    /// / `sigmoid` over it — before that reference was retired.
    const HALVING_SCALE_GRID: u64 = 0xaafd_6f0b_33aa_f221;
    const HALVING_EXP_BAND: u64 = 0x16ce_4f76_0d6d_0f70;
    const HALVING_SIGMOID_BAND: u64 = 0xaad9_1d34_0cc9_10b9;
    const HALVING_TANH_BAND: u64 = 0xb918_8969_4a74_4f85;

    /// FNV-1a of the bits of `values`.
    fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut h = kml_platform::bytes::Fnv1a::new();
        for v in values {
            h.fold_u64(v.to_bits());
        }
        h.finish()
    }

    fn same_bits(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    /// Significands that stress round-half-to-even: all zeros, all ones,
    /// every single bit, runs of ones from either end, exact ties at every
    /// depth (a one with zeros below it, over odd and over even), the
    /// alternating patterns whose repeated rounding differs most from one
    /// rounding of the whole shift, and a seeded random fill.
    fn significands() -> Vec<u64> {
        const FRAC: u64 = (1 << 52) - 1;
        let mut v = vec![0, FRAC, 0x5_5555_5555_5555, 0xa_aaaa_aaaa_aaaa];
        v.extend([0x3_3333_3333_3333, 0x6_db6d_b6db_6db6, 0xc_cccc_cccc_cccc]);
        for bit in 0..52 {
            v.push(1 << bit);
            v.push((1 << bit) - 1);
            v.push(FRAC & !((1 << bit) - 1));
            v.push(FRAC & (0b11 << bit)); // tie over an odd kept bit
            v.push(FRAC & (0b101 << bit)); // tie over an even kept bit
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push((state >> 12) & FRAC);
        }
        v
    }

    #[test]
    fn integer_halving_equals_repeated_halving_at_every_landing_exponent() {
        let fracs = significands();
        let mut got = Vec::new();
        // Exponent fields: subnormal input (0), the smallest normals, around
        // `exp`'s own `sum` (1022 / 1023), and the largest finite.
        for exp_bits in [0u64, 1, 2, 53, 54, 1022, 1023, 1024, 2046] {
            // Landing exponent field 0 (the first inexact step) down to -57,
            // past the 54 steps that take any significand to zero.
            for landing in -57i64..=0 {
                let k = (landing - exp_bits as i64) as i32;
                for &frac in &fracs {
                    if exp_bits == 0 && frac == 0 {
                        continue; // zero: scale_by_pow2 returns before the tail
                    }
                    for sign in [0u64, 1 << 63] {
                        let x = f64::from_bits(sign | (exp_bits << 52) | frac);
                        got.push(scale_by_pow2(x, k));
                    }
                }
            }
        }
        assert_eq!(got.len(), 345_332);
        assert_eq!(fnv(got), HALVING_SCALE_GRID);
        // Ties and the last steps to zero, as the halving loop left them.
        for (x, k, want) in [
            (0x0010_0000_0000_0003, -2, 0x0004_0000_0000_0001u64),
            (0x000f_ffff_ffff_ffff, -1, 0x0008_0000_0000_0000),
            (0xbff8_0000_0000_0000, -1075, 0x8000_0000_0000_0001),
            (0x3ff8_0000_0000_0000, -1023, 0x000c_0000_0000_0000),
            (0x3fff_ffff_ffff_ffff, -1074, 0x0000_0000_0000_0002),
        ] {
            let got = scale_by_pow2(f64::from_bits(x), k);
            assert_eq!(got.to_bits(), want, "scale_by_pow2({x:#018x}, {k})");
        }
        // A subnormal scaled by 2^0 takes the tail with nothing to do.
        let tiny = f64::from_bits(0x000f_ffff_ffff_ffff);
        assert_eq!(scale_by_pow2(tiny, 0).to_bits(), tiny.to_bits());
        // Far past zero the step count is capped, not run.
        assert_eq!(
            scale_by_pow2(-1.5, i32::MIN + 1).to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn exp_bit_identical_to_halving_reference_across_the_subnormal_band() {
        // 39,001 points over [-746, -707]: both clamps' edges, the whole
        // band, and the first normal results above it.
        let got: Vec<f64> = (0..=39_000)
            .map(|i| exp(-746.0 + i as f64 * 0.001))
            .collect();
        let in_band = got.iter().filter(|&&y| y != 0.0 && y < f64::MIN_POSITIVE);
        assert!(in_band.count() > 36_000, "grid missed the band");
        assert_eq!(fnv(got), HALVING_EXP_BAND);
        for (x, want) in [
            (-745.0, 0u64),
            (-744.5, 1),
            (-708.4, 0x000f_f15b_469e_df0e),
            (-720.25, 0x0000_0007_7564_1450),
            (-730.0, 0x0000_0000_001c_7ea2),
        ] {
            assert_eq!(exp(x).to_bits(), want, "exp({x})");
        }
    }

    /// Arguments of both signs from just below the band (|x| = 707.75,
    /// still a normal result) to just inside the clamp (744.97).
    fn band_lanes() -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..75 {
            let x = 707.75 + i as f64 * 0.503;
            v.extend([x, -x]);
        }
        v
    }

    #[test]
    fn sigmoid_and_tanh_match_halving_reference_in_the_band() {
        let sigmoids = band_lanes().into_iter().map(sigmoid);
        assert_eq!(fnv(sigmoids), HALVING_SIGMOID_BAND);
        // tanh(x) = 2σ(2x) − 1: its band is |x| in [354, 373].
        let tanhs = band_lanes().into_iter().map(|x| tanh(x / 2.0));
        assert_eq!(fnv(tanhs), HALVING_TANH_BAND);
        assert_eq!(sigmoid(-720.25).to_bits(), 0x0000_0007_7564_1450);
        assert_eq!(sigmoid(-744.97).to_bits(), 0);
    }

    #[test]
    fn wide_sigmoids_match_the_scalar_one_with_a_band_lane_in_every_position() {
        // The scalar sigmoid is the reference: the band test above pins it
        // to the halving loop's bits on these lanes.
        let easy: Vec<f64> = (0..16).map(|i| i as f64 * 1.7 - 12.0).collect();
        for (n, band) in band_lanes().into_iter().enumerate() {
            for lane in 0..16 {
                let mut x16: [f64; 16] = easy.as_slice().try_into().unwrap();
                x16[lane] = band;
                // A second hard lane elsewhere now and then: two band values
                // in one quad, or in two quads of one block.
                if n % 3 == 0 {
                    x16[(lane + 5) % 16] = -band;
                }
                let want = x16.map(sigmoid);
                let got16 = sigmoid16(&x16);
                let quad = lane / 4 * 4;
                let got4 = sigmoid4(x16[quad..quad + 4].try_into().unwrap());
                // 23 elements: one 16-block, one quad, three scalars; the
                // band lane walks through all three as `lane` moves.
                let mut xs = x16.to_vec();
                xs.extend_from_slice(&easy[..7]);
                xs[22 - lane] = band;
                let mut got_slice = vec![0.0; xs.len()];
                sigmoid_slice(&xs, &mut got_slice);
                for i in 0..16 {
                    assert!(
                        same_bits(got16[i], want[i]),
                        "sigmoid16 lane {i} of {x16:?}"
                    );
                }
                for i in 0..4 {
                    assert!(same_bits(got4[i], want[quad + i]), "sigmoid4 lane {i}");
                }
                for (i, &x) in xs.iter().enumerate() {
                    assert!(
                        same_bits(got_slice[i], sigmoid(x)),
                        "sigmoid_slice[{i}] of {xs:?}"
                    );
                }
            }
        }
    }

    /// Both signs of every binade, three significands each, subnormals
    /// included (5,000-odd values: magnitude is what picks a lane's path).
    fn every_binade() -> Vec<f64> {
        let mut v = vec![0.0, -0.0];
        for e in -1074..=1023 {
            let p = scale_by_pow2(1.0, e);
            for s in [1.0, 1.5, 1.9999999999999998] {
                v.extend([p * s, -p * s]);
            }
        }
        v
    }

    /// `slice` against `scalar` element for element: on `sweep` as it is,
    /// then with each of `hard` in every position of a 1..=11-long slice of
    /// `easy` values (every lane of a quad, a second quad, the tail), a
    /// second hard value two lanes on now and then.
    fn check_block_fn(
        name: &str,
        slice: fn(&[f64], &mut [f64]),
        scalar: fn(f64) -> f64,
        sweep: &[f64],
        easy: fn(usize) -> f64,
        hard: &[f64],
    ) {
        let check = |xs: &[f64]| {
            let mut out = vec![f64::NAN; xs.len()];
            slice(xs, &mut out);
            for (&x, &got) in xs.iter().zip(&out) {
                assert!(
                    same_bits(got, scalar(x)),
                    "{name}({x:e}): block {got:e}, scalar {:e}",
                    scalar(x)
                );
            }
        };
        check(sweep);
        for len in 1..=11usize {
            for pos in 0..len {
                for (n, &h) in hard.iter().enumerate() {
                    let mut xs: Vec<f64> = (0..len).map(easy).collect();
                    if n % 3 == 0 {
                        xs[(pos + 2) % len] = hard[(n + 1) % hard.len()];
                    }
                    xs[pos] = h;
                    check(&xs);
                }
            }
        }
    }

    #[test]
    fn exp_slice_bit_identical_to_scalar_everywhere() {
        let hard = [
            700.0,
            -700.0,
            699.9999999999999,
            -699.9999999999999,
            -708.4,
            -708.5,
            -744.99,
            -745.0,
            -745.0000000000001,
            709.78,
            709.7800000000001,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let easy = |i: usize| i as f64 * 1.3 - 9.0;
        check_block_fn("exp", exp_slice, exp, &every_binade(), easy, &hard);
    }

    #[test]
    fn ln_slice_bit_identical_to_scalar_everywhere() {
        // What a softmax row can sum to and what it cannot: the smallest
        // normal and its neighbours, subnormal and zero sums, 1 and its
        // neighbours (where `power` underflows), sqrt(2)'s (the mantissa
        // fold), infinities, negatives, NaN.
        let hard = [
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * 0.5,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::from_bits((1 << 52) + 1),
            0.0,
            -0.0,
            -1.0,
            1.0,
            1.0 + f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            std::f64::consts::SQRT_2,
            f64::from_bits(std::f64::consts::SQRT_2.to_bits() + 1),
            f64::from_bits(std::f64::consts::SQRT_2.to_bits() - 1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let easy = |i: usize| 1.0 + i as f64 * 0.37;
        check_block_fn("ln", ln_slice, ln, &every_binade(), easy, &hard);
        // `ln` is the one-lane core now, so the comparison above shares a
        // sequence with what it checks: hold both to the scalar function
        // as it was written before the core existed.
        check_block_fn(
            "ln (pre-core)",
            ln_slice,
            ln_before_core,
            &every_binade(),
            easy,
            &hard,
        );
    }

    /// `ln` verbatim from before `ln_core` was lifted out of it.
    fn ln_before_core(x: f64) -> f64 {
        if x.is_nan() || x < 0.0 {
            return f64::NAN;
        }
        if x == 0.0 {
            return f64::NEG_INFINITY;
        }
        if x.is_infinite() {
            return f64::INFINITY;
        }
        let bits = x.to_bits();
        let mut exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let mut mant = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
        if exp == -1023 {
            let y = x * scale_by_pow2(1.0, 60);
            return ln_before_core(y) - 60.0 * std::f64::consts::LN_2;
        }
        const SQRT2: f64 = std::f64::consts::SQRT_2;
        if mant > SQRT2 {
            mant *= 0.5;
            exp += 1;
        }
        let t = (mant - 1.0) / (mant + 1.0);
        let t2 = t * t;
        let mut sum = 0.0f64;
        let mut power = 1.0f64;
        for n in 0..13 {
            sum += power / (2 * n + 1) as f64;
            power *= t2;
        }
        2.0 * t * sum + (exp as f64) * std::f64::consts::LN_2
    }

    #[test]
    fn exp_matches_std_on_grid() {
        let mut x = -30.0;
        while x <= 30.0 {
            let got = exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-12, "exp({x}): got {got}, want {want}, rel {rel}");
            x += 0.37;
        }
    }

    #[test]
    fn exp_extremes() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(1000.0), f64::INFINITY);
        assert_eq!(exp(-1000.0), 0.0);
        assert!(exp(f64::NAN).is_nan());
    }

    #[test]
    fn ln_matches_std_on_grid() {
        for &x in &[
            1e-8,
            1e-3,
            0.5,
            1.0,
            2.0,
            std::f64::consts::E,
            10.0,
            12345.678,
            1e12,
        ] {
            let got = ln(x);
            let want = x.ln();
            assert!(
                (got - want).abs() < 1e-12 * want.abs().max(1.0),
                "ln({x}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn ln_edge_cases() {
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert!(ln(-1.0).is_nan());
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        // Subnormal input.
        let tiny = f64::MIN_POSITIVE / 8.0;
        assert!((ln(tiny) - tiny.ln()).abs() < 1e-9);
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        for &x in &[-50.0, -5.0, -0.1, 0.0, 0.1, 5.0, 50.0] {
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s));
            assert!(
                (s + sigmoid(-x) - 1.0).abs() < 1e-12,
                "sigmoid symmetry at {x}"
            );
        }
    }

    #[test]
    fn sigmoid4_bit_identical_to_scalar_everywhere() {
        // Dense sweep across the vector range plus every special band:
        // clamps, the subnormal window (-745, -708), NaN, signed zero.
        let mut xs = vec![
            -750.0,
            -745.1,
            -710.0,
            -708.5,
            -700.0001,
            -699.9,
            0.0,
            -0.0,
            699.9,
            700.1,
            709.9,
            750.0,
            f64::NAN,
            1e-300,
            -1e-300,
        ];
        for i in 0..4000 {
            xs.push((i as f64) * 0.37 - 740.0);
        }
        while !xs.len().is_multiple_of(4) {
            xs.push(0.1);
        }
        let mut out = vec![0.0f64; xs.len()];
        sigmoid_slice(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            let want = sigmoid(x);
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "sigmoid4({x}): got {got:?}, want {want:?}"
            );
        }
    }

    #[test]
    fn sigmoid_slice_handles_remainder_lanes() {
        // Lengths crossing both the 16-lane and 4-lane chunk boundaries.
        for len in 0..40 {
            let xs: Vec<f64> = (0..len).map(|i| i as f64 * 0.7 - 2.0).collect();
            let mut out = vec![0.0f64; len];
            sigmoid_slice(&xs, &mut out);
            for (&x, &got) in xs.iter().zip(&out) {
                assert_eq!(got.to_bits(), sigmoid(x).to_bits());
            }
        }
    }

    #[test]
    fn sigmoid16_bit_identical_to_scalar_everywhere() {
        // Same sweep policy as the sigmoid4 test, taken 16 lanes at a time,
        // with hard lanes (clamps, NaN, subnormal band) planted at varying
        // positions so the whole-block demotion path is exercised too.
        let mut xs: Vec<f64> = (0..4000).map(|i| (i as f64) * 0.37 - 740.0).collect();
        let specials = [
            -750.0,
            -745.1,
            -710.0,
            -700.0001,
            0.0,
            -0.0,
            699.9,
            700.1,
            750.0,
            f64::NAN,
            1e-300,
        ];
        for (i, &s) in specials.iter().enumerate() {
            xs[i * 17 + i] = s; // stride 17 ≠ 16 → every lane index hit
        }
        for block in xs.chunks_exact(16) {
            let got = sigmoid16(block.try_into().unwrap());
            for (&x, &g) in block.iter().zip(&got) {
                let want = sigmoid(x);
                assert!(
                    g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()),
                    "sigmoid16({x}): got {g:?}, want {want:?}"
                );
            }
        }
    }

    #[test]
    fn tanh_matches_std() {
        let mut x = -5.0;
        while x <= 5.0 {
            assert!((tanh(x) - x.tanh()).abs() < 1e-11, "tanh({x})");
            x += 0.19;
        }
    }

    #[test]
    fn sqrt_matches_std() {
        for &x in &[0.0, 1e-12, 0.25, 1.0, 2.0, 3.0, 1e6, 1e300] {
            let got = sqrt(x);
            let want = x.sqrt();
            if want == 0.0 {
                assert_eq!(got, 0.0);
            } else {
                assert!(((got - want) / want).abs() < 1e-14, "sqrt({x})");
            }
        }
        assert!(sqrt(-1.0).is_nan());
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut v = vec![-2.0, 0.0, 3.0, 3.0];
        softmax_in_place(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v[2] > v[1] && v[1] > v[0]);
        assert!((v[2] - v[3]).abs() < 1e-12);
    }

    #[test]
    fn softmax_stable_for_huge_logits() {
        let mut v = vec![1000.0, 1001.0, 999.0];
        softmax_in_place(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let v = vec![0.3, -1.2, 2.5];
        let mut s = v.clone();
        softmax_in_place(&mut s);
        for (i, &si) in s.iter().enumerate() {
            assert!((log_softmax_at(&v, i) - ln(si)).abs() < 1e-10);
        }
    }

    proptest! {
        #[test]
        fn prop_exp_ln_inverse(x in 1e-6f64..1e6) {
            let y = ln(exp(ln(x)).max(f64::MIN_POSITIVE));
            prop_assert!((y - ln(x)).abs() < 1e-9 * ln(x).abs().max(1.0));
        }

        #[test]
        fn prop_exp_positive(x in -700.0f64..700.0) {
            prop_assert!(exp(x) > 0.0);
        }

        #[test]
        fn prop_sigmoid_monotone(a in -100.0f64..100.0, d in 1e-6f64..10.0) {
            prop_assert!(sigmoid(a + d) >= sigmoid(a));
        }

        #[test]
        fn prop_softmax_is_distribution(v in proptest::collection::vec(-50.0f64..50.0, 1..16)) {
            let mut s = v.clone();
            softmax_in_place(&mut s);
            let sum: f64 = s.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(s.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        }

        #[test]
        fn prop_sqrt_squares_back(x in 1e-12f64..1e12) {
            let r = sqrt(x);
            prop_assert!(((r * r - x) / x).abs() < 1e-12);
        }
    }
}
