//! Minimal complex-number type used by the FFT and spectral routines.
//!
//! The crate deliberately avoids external numeric dependencies, so this is a
//! small, `Copy`, `f64`-based complex type with just the operations the DSP
//! code needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` over `f64`.
///
/// # Example
///
/// ```
/// use ht_dsp::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// let c = a * b;
/// assert_eq!(c, Complex::new(5.0, 5.0));
/// assert!((a.abs() - 5.0_f64.sqrt()).abs() < 1e-12);
/// ```
///
/// `#[repr(C)]` pins the layout to `[re, im]` with no padding, so a
/// `[Complex]` slice is an interleaved `f64` array; the SIMD FFT
/// butterflies in [`crate::fft::plan`] rely on this.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates `e^{iθ} = cos θ + i sin θ` (a unit phasor).
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Creates a complex number from polar coordinates.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`; cheaper than [`abs`](Self::abs) when only
    /// relative magnitudes matter.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Complex reciprocal `1/z`.
    ///
    /// Returns [`Complex::ZERO`] for a zero input rather than producing NaNs;
    /// callers in PHAT weighting rely on this to treat empty bins as silent.
    #[inline]
    pub fn recip(self) -> Self {
        let n = self.norm_sqr();
        if n == 0.0 {
            Complex::ZERO
        } else {
            Complex {
                re: self.re / n,
                im: -self.im / n,
            }
        }
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// `true` if either part is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w == z * w.recip()
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, z| acc + z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z + Complex::ZERO, z);
        assert_eq!(z * Complex::ONE, z);
        assert_eq!(z - z, Complex::ZERO);
        assert_eq!(-z, Complex::new(-3.0, 4.0));
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        let a = Complex::new(2.0, 3.0);
        let b = Complex::new(4.0, -5.0);
        // (2+3i)(4-5i) = 8 -10i +12i -15i^2 = 23 + 2i
        assert_eq!(a * b, Complex::new(23.0, 2.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.5, 3.0);
        let q = (a * b) / b;
        assert!((q.re - a.re).abs() < EPS);
        assert!((q.im - a.im).abs() < EPS);
    }

    #[test]
    fn magnitude_and_phase() {
        let z = Complex::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < EPS);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
        let p = Complex::from_polar(5.0, z.arg());
        assert!((p.re - 3.0).abs() < 1e-9);
        assert!((p.im - 4.0).abs() < 1e-9);
    }

    #[test]
    fn unit_phasor_has_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            assert!((Complex::from_angle(theta).abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn recip_of_zero_is_zero() {
        assert_eq!(Complex::ZERO.recip(), Complex::ZERO);
    }

    #[test]
    fn conj_negates_phase() {
        let z = Complex::new(1.0, 2.0);
        assert!((z.conj().arg() + z.arg()).abs() < EPS);
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let z = (Complex::I * std::f64::consts::PI).exp();
        assert!((z.re + 1.0).abs() < EPS);
        assert!(z.im.abs() < EPS);
    }

    #[test]
    fn sum_iterator() {
        let total: Complex = (0..4).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex::new(6.0, 4.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
