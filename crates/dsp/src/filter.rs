//! IIR filtering: biquad sections and Butterworth designs.
//!
//! The paper's preprocessing stage applies a *fifth-order Butterworth
//! band-pass filter* keeping 100–16 000 Hz (§III). We realize Butterworth
//! low-/high-pass designs of arbitrary order as cascaded second-order
//! sections (the numerically robust factored form), and the band-pass as a
//! high-pass/low-pass cascade, which has the same pass band and monotone
//! Butterworth roll-off on both skirts.

use crate::error::DspError;

/// One second-order IIR section (biquad) in direct form I coefficients,
/// normalized so `a0 == 1`:
///
/// `y[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2] - a1 y[n-1] - a2 y[n-2]`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    /// Feed-forward coefficients.
    pub b: [f64; 3],
    /// Feedback coefficients `[a1, a2]` (with `a0` normalized to 1).
    pub a: [f64; 2],
}

impl Biquad {
    /// Identity (pass-through) section.
    pub const IDENTITY: Biquad = Biquad {
        b: [1.0, 0.0, 0.0],
        a: [0.0, 0.0],
    };

    /// RBJ-cookbook second-order Butterworth-style low-pass with quality `q`.
    fn lowpass_q(fc: f64, fs: f64, q: f64) -> Biquad {
        let w0 = 2.0 * std::f64::consts::PI * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Biquad {
            b: [
                (1.0 - cw) / 2.0 / a0,
                (1.0 - cw) / a0,
                (1.0 - cw) / 2.0 / a0,
            ],
            a: [-2.0 * cw / a0, (1.0 - alpha) / a0],
        }
    }

    /// RBJ-cookbook second-order high-pass with quality `q`.
    fn highpass_q(fc: f64, fs: f64, q: f64) -> Biquad {
        let w0 = 2.0 * std::f64::consts::PI * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Biquad {
            b: [
                (1.0 + cw) / 2.0 / a0,
                -(1.0 + cw) / a0,
                (1.0 + cw) / 2.0 / a0,
            ],
            a: [-2.0 * cw / a0, (1.0 - alpha) / a0],
        }
    }

    /// First-order low-pass realized as a biquad (bilinear transform).
    fn lowpass_first_order(fc: f64, fs: f64) -> Biquad {
        let k = (std::f64::consts::PI * fc / fs).tan();
        let norm = 1.0 / (k + 1.0);
        Biquad {
            b: [k * norm, k * norm, 0.0],
            a: [(k - 1.0) * norm, 0.0],
        }
    }

    /// First-order high-pass realized as a biquad (bilinear transform).
    fn highpass_first_order(fc: f64, fs: f64) -> Biquad {
        let k = (std::f64::consts::PI * fc / fs).tan();
        let norm = 1.0 / (k + 1.0);
        Biquad {
            b: [norm, -norm, 0.0],
            a: [(k - 1.0) * norm, 0.0],
        }
    }

    /// Complex frequency response `H(e^{jω})` magnitude at frequency `f` Hz.
    pub fn magnitude_at(&self, f: f64, fs: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f / fs;
        let z1 = crate::Complex::from_angle(-w);
        let z2 = crate::Complex::from_angle(-2.0 * w);
        let num = crate::Complex::from_real(self.b[0]) + z1 * self.b[1] + z2 * self.b[2];
        let den = crate::Complex::ONE + z1 * self.a[0] + z2 * self.a[1];
        (num / den).abs()
    }
}

/// A cascade of second-order sections with per-section state, i.e. a complete
/// IIR filter.
///
/// # Example
///
/// ```
/// use ht_dsp::filter::Butterworth;
///
/// # fn main() -> Result<(), ht_dsp::DspError> {
/// // The paper's pre-filter: 5th-order band-pass keeping 100–16 000 Hz.
/// let bp = Butterworth::bandpass(5, 100.0, 16_000.0, 48_000.0)?;
/// let noisy: Vec<f64> = (0..4800).map(|n| (n as f64 * 0.001).sin()).collect();
/// let clean = bp.filtfilt(&noisy);
/// assert_eq!(clean.len(), noisy.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sos {
    sections: Vec<Biquad>,
}

impl Sos {
    /// Builds a cascade from explicit sections.
    pub fn new(sections: Vec<Biquad>) -> Self {
        Sos { sections }
    }

    /// The individual second-order sections.
    pub fn sections(&self) -> &[Biquad] {
        &self.sections
    }

    /// Filters `x` (zero initial state), returning a signal of equal length.
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut y = x.to_vec();
        for s in &self.sections {
            let mut x1 = 0.0;
            let mut x2 = 0.0;
            let mut y1 = 0.0;
            let mut y2 = 0.0;
            for v in y.iter_mut() {
                let xin = *v;
                let yout = s.b[0] * xin + s.b[1] * x1 + s.b[2] * x2 - s.a[0] * y1 - s.a[1] * y2;
                x2 = x1;
                x1 = xin;
                y2 = y1;
                y1 = yout;
                *v = yout;
            }
        }
        y
    }

    /// Zero-phase filtering: forward pass, time reversal, second pass,
    /// reversal again. Edge transients are reduced by odd-reflection padding.
    ///
    /// Zero phase matters for the orientation features: a phase-warping
    /// pre-filter would shift the inter-microphone delays that GCC-PHAT
    /// measures.
    pub fn filtfilt(&self, x: &[f64]) -> Vec<f64> {
        if x.is_empty() {
            return Vec::new();
        }
        let pad = (6 * (self.sections.len() + 1)).min(x.len().saturating_sub(1));
        // Odd reflection: 2*x[0] - x[pad..1], signal, 2*x[last] - x[n-2..].
        let mut ext = Vec::with_capacity(x.len() + 2 * pad);
        for i in (1..=pad).rev() {
            ext.push(2.0 * x[0] - x[i]);
        }
        ext.extend_from_slice(x);
        let n = x.len();
        for i in 1..=pad {
            ext.push(2.0 * x[n - 1] - x[n - 1 - i]);
        }
        let mut y = self.filter(&ext);
        y.reverse();
        let mut y = self.filter(&y);
        y.reverse();
        y[pad..pad + n].to_vec()
    }

    /// Cascade magnitude response at frequency `f` Hz.
    pub fn magnitude_at(&self, f: f64, fs: f64) -> f64 {
        self.sections
            .iter()
            .map(|s| s.magnitude_at(f, fs))
            .product()
    }
}

/// A causal, chunk-streaming view of an [`Sos`] cascade.
///
/// [`Sos::filter`] runs section-major over a whole signal from zero state.
/// This wrapper carries each section's direct-form-I state across calls
/// instead, so a signal fed chunk by chunk — any chunk boundaries —
/// produces exactly the bytes one `Sos::filter` call produces on the
/// concatenation: every output sample is computed by the same recurrence
/// expression from the same operand values (each section is an independent
/// causal recurrence, so sample-major vs. section-major visiting order
/// changes nothing), and no accumulation is reassociated.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSos {
    sos: Sos,
    /// Per-section `[x1, x2, y1, y2]` direct-form-I state.
    state: Vec<[f64; 4]>,
}

impl StreamingSos {
    /// Wraps a cascade with zeroed state.
    pub fn new(sos: Sos) -> StreamingSos {
        let n = sos.sections().len();
        StreamingSos {
            sos,
            state: vec![[0.0; 4]; n],
        }
    }

    /// The wrapped cascade.
    pub fn sos(&self) -> &Sos {
        &self.sos
    }

    /// Filters one chunk, appending the output samples to `out`.
    /// Allocation-free once `out` has capacity for the chunk.
    pub fn process(&mut self, x: &[f64], out: &mut Vec<f64>) {
        out.reserve(x.len());
        for &sample in x {
            let mut v = sample;
            for (s, st) in self.sos.sections().iter().zip(self.state.iter_mut()) {
                let [x1, x2, y1, y2] = *st;
                let yout = s.b[0] * v + s.b[1] * x1 + s.b[2] * x2 - s.a[0] * y1 - s.a[1] * y2;
                *st = [v, x1, yout, y1];
                v = yout;
            }
            out.push(v);
        }
    }

    /// Zeroes the carried state: a reset filter is bit-identical to a
    /// freshly built one (pooled stream slots depend on this).
    pub fn reset(&mut self) {
        for st in &mut self.state {
            *st = [0.0; 4];
        }
    }
}

/// Butterworth filter designs, realized as [`Sos`] cascades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Butterworth;

impl Butterworth {
    fn validate(order: usize, fc: f64, fs: f64, name: &'static str) -> Result<(), DspError> {
        if order == 0 {
            return Err(DspError::param("order", "must be at least 1"));
        }
        if fs <= 0.0 || fs.is_nan() {
            return Err(DspError::param("sample_rate", "must be positive"));
        }
        if fc <= 0.0 || fc.is_nan() || fc >= fs / 2.0 {
            return Err(DspError::param(
                name,
                format!("must be in (0, fs/2) = (0, {}), got {fc}", fs / 2.0),
            ));
        }
        Ok(())
    }

    /// Quality factors of the second-order sections of an `order`-N
    /// Butterworth filter; `(qs, has_first_order)`.
    fn section_qs(order: usize) -> (Vec<f64>, bool) {
        let n = order;
        let pairs = n / 2;
        let odd = n % 2 == 1;
        let qs = (0..pairs)
            .map(|k| {
                // Pole-pair angle off the negative real axis.
                let theta = std::f64::consts::PI * (2.0 * k as f64 + 1.0) / (2.0 * n as f64);
                let theta = if odd {
                    // For odd orders, pairs sit at k*pi/n off the real axis.
                    std::f64::consts::PI * (k as f64 + 1.0) / n as f64
                } else {
                    theta
                };
                1.0 / (2.0 * theta.cos())
            })
            .collect();
        (qs, odd)
    }

    /// Designs an `order`-N Butterworth low-pass with corner `fc` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `order == 0`, `fs <= 0`, or
    /// `fc` is not strictly between 0 and Nyquist.
    pub fn lowpass(order: usize, fc: f64, fs: f64) -> Result<Sos, DspError> {
        Self::validate(order, fc, fs, "fc")?;
        let (qs, odd) = Self::section_qs(order);
        let mut sections: Vec<Biquad> = qs
            .into_iter()
            .map(|q| Biquad::lowpass_q(fc, fs, q))
            .collect();
        if odd {
            sections.push(Biquad::lowpass_first_order(fc, fs));
        }
        Ok(Sos::new(sections))
    }

    /// Designs an `order`-N Butterworth high-pass with corner `fc` Hz.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Butterworth::lowpass`].
    pub fn highpass(order: usize, fc: f64, fs: f64) -> Result<Sos, DspError> {
        Self::validate(order, fc, fs, "fc")?;
        let (qs, odd) = Self::section_qs(order);
        let mut sections: Vec<Biquad> = qs
            .into_iter()
            .map(|q| Biquad::highpass_q(fc, fs, q))
            .collect();
        if odd {
            sections.push(Biquad::highpass_first_order(fc, fs));
        }
        Ok(Sos::new(sections))
    }

    /// Designs the band-pass used by the paper's preprocessing block: an
    /// `order`-N Butterworth high-pass at `f_lo` cascaded with an `order`-N
    /// Butterworth low-pass at `f_hi`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if either corner is invalid or
    /// `f_lo >= f_hi`.
    pub fn bandpass(order: usize, f_lo: f64, f_hi: f64, fs: f64) -> Result<Sos, DspError> {
        if f_lo >= f_hi {
            return Err(DspError::param(
                "f_lo",
                format!("low corner {f_lo} must be below high corner {f_hi}"),
            ));
        }
        let hp = Self::highpass(order, f_lo, fs)?;
        let lp = Self::lowpass(order, f_hi, fs)?;
        let mut sections = hp.sections;
        sections.extend(lp.sections);
        Ok(Sos::new(sections))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{rms, tone};

    const FS: f64 = 48_000.0;

    #[test]
    fn lowpass_magnitude_response_is_butterworth() {
        for order in [1usize, 2, 3, 5, 8] {
            let f = Butterworth::lowpass(order, 1000.0, FS).unwrap();
            // -3 dB at the corner.
            let hc = f.magnitude_at(1000.0, FS);
            assert!(
                (hc - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01,
                "order {order}: |H(fc)| = {hc}"
            );
            // Unit gain at DC-ish, monotone decay beyond the corner.
            assert!((f.magnitude_at(1.0, FS) - 1.0).abs() < 1e-3);
            assert!(f.magnitude_at(4000.0, FS) < f.magnitude_at(2000.0, FS));
        }
    }

    #[test]
    fn lowpass_rolloff_scales_with_order() {
        // One octave above the corner, an order-N Butterworth is ~6N dB down.
        for order in [2usize, 5] {
            let f = Butterworth::lowpass(order, 1000.0, FS).unwrap();
            let db = 20.0 * f.magnitude_at(2000.0, FS).log10();
            let expect = -10.0 * (1.0 + 2f64.powi(2 * order as i32)).log10();
            assert!((db - expect).abs() < 0.5, "order {order}: {db} vs {expect}");
        }
    }

    #[test]
    fn highpass_mirror_behaviour() {
        let f = Butterworth::highpass(5, 1000.0, FS).unwrap();
        assert!((f.magnitude_at(1000.0, FS) - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.01);
        assert!(f.magnitude_at(100.0, FS) < 0.01);
        assert!((f.magnitude_at(10_000.0, FS) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn bandpass_passes_speech_band_and_rejects_outside() {
        let f = Butterworth::bandpass(5, 100.0, 16_000.0, FS).unwrap();
        // Mid band: close to unity.
        assert!((f.magnitude_at(1000.0, FS) - 1.0).abs() < 0.01);
        // Well below the low corner and near DC: strongly attenuated.
        assert!(f.magnitude_at(10.0, FS) < 0.01);
        // Above the high corner: attenuated.
        assert!(f.magnitude_at(22_000.0, FS) < 0.1);
    }

    #[test]
    fn bandpass_rejects_inverted_corners() {
        assert!(Butterworth::bandpass(5, 2000.0, 100.0, FS).is_err());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Butterworth::lowpass(0, 100.0, FS).is_err());
        assert!(Butterworth::lowpass(5, 0.0, FS).is_err());
        assert!(Butterworth::lowpass(5, 24_000.0, FS).is_err());
        assert!(Butterworth::lowpass(5, 100.0, 0.0).is_err());
        assert!(Butterworth::bandpass(5, 100.0, 16_000.0, 30_000.0).is_err());
    }

    #[test]
    fn filter_attenuates_out_of_band_tone() {
        let f = Butterworth::lowpass(5, 1000.0, FS).unwrap();
        let hi = tone(8000.0, FS, 4800, 1.0);
        let lo = tone(200.0, FS, 4800, 1.0);
        let hi_out = f.filter(&hi);
        let lo_out = f.filter(&lo);
        assert!(rms(&hi_out[2400..]) < 0.01);
        assert!(rms(&lo_out[2400..]) > 0.65);
    }

    #[test]
    fn filtfilt_is_zero_phase() {
        // A zero-phase filter must not shift a mid-band tone; correlate the
        // in-band output against the input and check the lag-0 alignment.
        let f = Butterworth::lowpass(4, 2000.0, FS).unwrap();
        let x = tone(500.0, FS, 4096, 1.0);
        let y = f.filtfilt(&x);
        assert_eq!(y.len(), x.len());
        // At 500 Hz (passband) gain ~1 and phase ~0: samples nearly match.
        let err: f64 = (1000..3000)
            .map(|i| (y[i] - x[i]).abs())
            .fold(0.0, f64::max);
        assert!(err < 0.01, "max passband deviation {err}");
    }

    #[test]
    fn filtfilt_handles_short_and_empty_inputs() {
        let f = Butterworth::lowpass(3, 1000.0, FS).unwrap();
        assert!(f.filtfilt(&[]).is_empty());
        let y = f.filtfilt(&[1.0, 0.5]);
        assert_eq!(y.len(), 2);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn identity_biquad_passes_through() {
        let sos = Sos::new(vec![Biquad::IDENTITY]);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(sos.filter(&x), x);
    }

    /// Deterministic noise in [-1, 1) (xorshift; tests must not use wall
    /// clocks or OS entropy).
    fn noise(n: usize, mut seed: u64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn streaming_sos_matches_batch_for_any_chunking() {
        let sos = Butterworth::bandpass(5, 100.0, 16_000.0, FS).unwrap();
        for (len, seed) in [(1usize, 1u64), (7, 2), (960, 3), (4801, 4)] {
            let x = noise(len, seed);
            let want = sos.filter(&x);
            for chunk in [1usize, 2, 13, 480, 5000] {
                let mut stream = StreamingSos::new(sos.clone());
                let mut got = Vec::new();
                for c in x.chunks(chunk) {
                    stream.process(c, &mut got);
                }
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "len {len} chunk {chunk} sample {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_sos_reset_matches_fresh() {
        let sos = Butterworth::bandpass(3, 200.0, 4000.0, FS).unwrap();
        let x = noise(500, 7);
        let want = sos.filter(&x);
        let mut stream = StreamingSos::new(sos);
        let mut scratch = Vec::new();
        stream.process(&noise(123, 8), &mut scratch);
        stream.reset();
        let mut got = Vec::new();
        stream.process(&x, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert_eq!(stream.sos().sections().len(), 4);
    }
}
