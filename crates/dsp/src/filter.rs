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

    /// Filters `x` (zero initial state), returning a signal of equal length:
    /// a fresh [`StreamingSos`] fed the whole input.
    pub fn filter(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::with_capacity(x.len());
        StreamingSos::new(self.clone()).process(x, &mut y);
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

/// Cascade lengths the AVX2 wavefront runs: its two registers hold up to
/// eight sections, and a lone section has nothing to overlap with.
#[cfg(target_arch = "x86_64")]
const WAVEFRONT_SECTIONS: std::ops::RangeInclusive<usize> = 2..=8;

/// A causal, chunk-streaming view of an [`Sos`] cascade: the one IIR
/// kernel, which [`Sos::filter`] feeds the whole input from zero state.
///
/// It carries each section's direct-form-I state across calls, so a signal
/// fed chunk by chunk — any chunk boundaries — produces exactly the bytes
/// one call produces on the concatenation: every output sample is computed
/// by the same recurrence expression, `b0·v + b1·x1 + b2·x2 − a0·y1 −
/// a1·y2` evaluated left to right, from the same operand values. Each
/// section is an independent causal recurrence, so the order in which
/// sections and samples are visited changes no bit, and no accumulation is
/// reassociated.
///
/// The portable path runs section-major over the chunk with each section's
/// state in locals. On x86_64 machines with AVX2, cascades of two to eight
/// sections run as a wavefront instead: even sections in one register's
/// lanes, odd sections in another's, section `j` on sample `t − 2j` at step
/// `t`, so a step waits on one section's own recurrence rather than on the
/// whole chain. Each lane runs the scalar expression with separate
/// multiplies and adds (no FMA), so both paths give the same bits.
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
        self.process_with(x, out, true);
    }

    /// [`process`](Self::process) on the portable section-major path, the
    /// one machines without AVX2 run; public so benches can time the two
    /// paths against each other. Same bits as `process`.
    pub fn process_scalar(&mut self, x: &[f64], out: &mut Vec<f64>) {
        self.process_with(x, out, false);
    }

    /// Filters `x` in place in `out`'s tail, on the AVX2 wavefront when
    /// `simd` is set, the machine has AVX2 and the cascade length suits it.
    fn process_with(&mut self, x: &[f64], out: &mut Vec<f64>, simd: bool) {
        let first = out.len();
        out.extend_from_slice(x);
        let y = &mut out[first..];
        let sections = self.sos.sections();
        #[cfg(target_arch = "x86_64")]
        if simd && WAVEFRONT_SECTIONS.contains(&sections.len()) && crate::kernels::avx2_available()
        {
            // SAFETY: AVX2 was detected above.
            unsafe { x86::wavefront(sections, &mut self.state, y) };
            return;
        }
        let _ = simd;
        for (s, st) in sections.iter().zip(&mut self.state) {
            let [mut x1, mut x2, mut y1, mut y2] = *st;
            for v in y.iter_mut() {
                let xin = *v;
                let yout = s.b[0] * xin + s.b[1] * x1 + s.b[2] * x2 - s.a[0] * y1 - s.a[1] * y2;
                x2 = x1;
                x1 = xin;
                y2 = y1;
                y1 = yout;
                *v = yout;
            }
            *st = [x1, x2, y1, y2];
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

#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod x86 {
    //! The AVX2 wavefront of [`super::StreamingSos`].
    //!
    //! Section `j` sits in lane `j / 2` of the even register when `j` is
    //! even and of the odd register when it is odd, and works on sample
    //! `t − 2j` at step `t`. Odd section `2k + 1` takes the output even
    //! section `2k` gave two steps earlier, the same lane of the other
    //! register; even section `2k + 2` takes odd section `2k + 1`'s, one
    //! lane up, with the new input sample blended into lane 0. A step's
    //! lanes are thus independent, and the next step waits only on each
    //! section's own `y1` term.
    //!
    //! A call runs `len + 2(n − 1)` steps from an aligned state. Lane `j`
    //! holds a sample only for `2j ≤ t < len + 2j`: in the first and last
    //! `2(n − 1)` steps the other lanes compute but keep their state (the
    //! ramp masks), so each section advances exactly `len` samples and the
    //! state is aligned again at return. Lanes past the cascade start at
    //! step +∞ and never hold a sample.

    use super::Biquad;
    use std::arch::x86_64::*;

    /// Four sections, one per lane: coefficients, direct-form-I state, and
    /// the steps at which each lane's samples start and end.
    struct Group {
        /// `b0, b1, b2, a0, a1` of the recurrence, per lane.
        coef: [__m256d; 5],
        x1: __m256d,
        x2: __m256d,
        y1: __m256d,
        y2: __m256d,
        start: __m256d,
        end: __m256d,
    }

    impl Group {
        /// One step on input `v`, returning every lane's output. With
        /// `MASKED`, lanes holding no sample at step `t` keep their state.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn step<const MASKED: bool>(&mut self, v: __m256d, t: __m256d) -> __m256d {
            let [b0, b1, b2, a0, a1] = self.coef;
            let acc = _mm256_add_pd(_mm256_mul_pd(b0, v), _mm256_mul_pd(b1, self.x1));
            let acc = _mm256_add_pd(acc, _mm256_mul_pd(b2, self.x2));
            let acc = _mm256_sub_pd(acc, _mm256_mul_pd(a0, self.y1));
            let y = _mm256_sub_pd(acc, _mm256_mul_pd(a1, self.y2));
            if MASKED {
                let live = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LE_OQ>(self.start, t),
                    _mm256_cmp_pd::<_CMP_LT_OQ>(t, self.end),
                );
                self.x2 = _mm256_blendv_pd(self.x2, self.x1, live);
                self.x1 = _mm256_blendv_pd(self.x1, v, live);
                self.y2 = _mm256_blendv_pd(self.y2, self.y1, live);
                self.y1 = _mm256_blendv_pd(self.y1, y, live);
            } else {
                self.x2 = self.x1;
                self.x1 = v;
                self.y2 = self.y1;
                self.y1 = y;
            }
            y
        }
    }

    /// The two groups and their outputs of the last two steps.
    struct Wave {
        even: Group,
        odd: Group,
        /// Even and odd outputs one step back (`[0]`) and two (`[1]`).
        even_out: [__m256d; 2],
        odd_out: [__m256d; 2],
    }

    impl Wave {
        /// Step `t` with `input` entering section 0.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn step<const MASKED: bool>(&mut self, input: f64, t: f64) {
            let t = _mm256_set1_pd(t);
            let up = _mm256_permute4x64_pd::<0b10_01_00_00>(self.odd_out[1]);
            let v_even = _mm256_blend_pd::<0b0001>(up, _mm256_set1_pd(input));
            let y_even = self.even.step::<MASKED>(v_even, t);
            let y_odd = self.odd.step::<MASKED>(self.even_out[1], t);
            self.even_out = [y_even, self.even_out[0]];
            self.odd_out = [y_odd, self.odd_out[0]];
        }

        /// The last section's output of the latest step.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn output(&self, last: usize) -> f64 {
            let group = if last.is_multiple_of(2) {
                self.even_out[0]
            } else {
                self.odd_out[0]
            };
            let mut lanes = [0.0; 4];
            // SAFETY: `lanes` holds four writable `f64`s.
            unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), group) };
            lanes[last / 2]
        }
    }

    /// Runs `sections` over `y` in place, carrying `state`.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn wavefront(sections: &[Biquad], state: &mut [[f64; 4]], y: &mut [f64]) {
        let n = sections.len();
        assert!(super::WAVEFRONT_SECTIONS.contains(&n) && state.len() == n);
        let len = y.len();
        let lag = 2 * (n - 1);
        // Per group: five coefficient rows, four state rows, start steps.
        let mut coef = [[[0.0f64; 4]; 5]; 2];
        let mut st = [[[0.0f64; 4]; 4]; 2];
        let mut start = [[f64::INFINITY; 4]; 2];
        for (j, (s, q)) in sections.iter().zip(state.iter()).enumerate() {
            let (g, lane) = (j % 2, j / 2);
            for (row, c) in coef[g]
                .iter_mut()
                .zip([s.b[0], s.b[1], s.b[2], s.a[0], s.a[1]])
            {
                row[lane] = c;
            }
            for (row, v) in st[g].iter_mut().zip(q) {
                row[lane] = *v;
            }
            start[g][lane] = (2 * j) as f64;
        }
        let group = |g: usize| {
            // SAFETY: every row is four readable `f64`s.
            let load = |row: &[f64; 4]| unsafe { _mm256_loadu_pd(row.as_ptr()) };
            let begin = load(&start[g]);
            Group {
                coef: coef[g].each_ref().map(load),
                x1: load(&st[g][0]),
                x2: load(&st[g][1]),
                y1: load(&st[g][2]),
                y2: load(&st[g][3]),
                start: begin,
                end: _mm256_add_pd(begin, _mm256_set1_pd(len as f64)),
            }
        };
        let zero = _mm256_setzero_pd();
        let mut wave = Wave {
            even: group(0),
            odd: group(1),
            even_out: [zero; 2],
            odd_out: [zero; 2],
        };
        // Ramp up: lanes past the first hold no sample yet. No output
        // leaves the last section before step `lag`.
        let full = lag.min(len);
        for (t, &x) in y[..full].iter().enumerate() {
            wave.step::<true>(x, t as f64);
        }
        // Every lane holds a sample.
        for t in full..len {
            wave.step::<false>(y[t], t as f64);
            y[t - lag] = wave.output(n - 1);
        }
        // Ramp down: the input has run out; lanes drain one by one.
        for t in len..len + lag {
            wave.step::<true>(0.0, t as f64);
            if t >= lag {
                y[t - lag] = wave.output(n - 1);
            }
        }
        let mut rows = [[0.0f64; 4]; 4];
        for (g, group) in [&wave.even, &wave.odd].into_iter().enumerate() {
            for (row, v) in rows
                .iter_mut()
                .zip([group.x1, group.x2, group.y1, group.y2])
            {
                // SAFETY: `row` holds four writable `f64`s.
                unsafe { _mm256_storeu_pd(row.as_mut_ptr(), v) };
            }
            for (j, q) in state.iter_mut().enumerate().skip(g).step_by(2) {
                *q = rows.map(|row| row[j / 2]);
            }
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

    /// The sample-major loop `StreamingSos::process` once ran: every
    /// section advances one sample before the next sample enters, state in
    /// memory. The bit-identity oracle of the section-major scalar path
    /// and of the AVX2 wavefront.
    fn sample_major(sos: &Sos, state: &mut [[f64; 4]], x: &[f64], out: &mut Vec<f64>) {
        for &sample in x {
            let mut v = sample;
            for (s, st) in sos.sections().iter().zip(state.iter_mut()) {
                let [x1, x2, y1, y2] = *st;
                let yout = s.b[0] * v + s.b[1] * x1 + s.b[2] * x2 - s.a[0] * y1 - s.a[1] * y2;
                *st = [v, x1, yout, y1];
                v = yout;
            }
            out.push(v);
        }
    }

    /// The oracle over a whole signal from zero state.
    fn oracle(sos: &Sos, x: &[f64]) -> Vec<f64> {
        let mut state = vec![[0.0; 4]; sos.sections().len()];
        let mut out = Vec::new();
        sample_major(sos, &mut state, x, &mut out);
        out
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn state_bits(state: &[[f64; 4]]) -> Vec<[u64; 4]> {
        state.iter().map(|q| q.map(f64::to_bits)).collect()
    }

    #[test]
    fn streaming_sos_matches_batch_for_any_chunking() {
        let sos = Butterworth::bandpass(5, 100.0, 16_000.0, FS).unwrap();
        for (len, seed) in [(1usize, 1u64), (7, 2), (960, 3), (4801, 4)] {
            let x = noise(len, seed);
            let want = oracle(&sos, &x);
            assert_eq!(bits(&sos.filter(&x)), bits(&want), "len {len}: filter");
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
        let want = oracle(&sos, &x);
        let mut stream = StreamingSos::new(sos);
        let mut scratch = Vec::new();
        stream.process(&noise(123, 8), &mut scratch);
        stream.reset();
        let mut got = Vec::new();
        stream.process(&x, &mut got);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(stream.sos().sections().len(), 4);
    }

    /// The first `n` of ten mixed sections: the paper band-pass's six (two
    /// second-order and one first-order high-pass, then the matching
    /// low-pass) and an eighth-order low-pass's four.
    fn cascade(n: usize) -> Sos {
        let mut sections = Butterworth::bandpass(5, 100.0, 16_000.0, FS)
            .unwrap()
            .sections()
            .to_vec();
        sections.extend_from_slice(Butterworth::lowpass(8, 3_000.0, FS).unwrap().sections());
        Sos::new(sections[..n].to_vec())
    }

    /// Noise, then noise with three samples in four replaced by signed
    /// zeros, then noise scaled into the subnormals and up near 1e300.
    fn hostile_signals(len: usize, seed: u64) -> [Vec<f64>; 4] {
        let base = noise(len, seed);
        let zeros = base
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 4 == 0 { v } else { 0.0f64.copysign(v) })
            .collect();
        [
            base.clone(),
            zeros,
            base.iter().map(|v| v * 1e-310).collect(),
            base.iter().map(|v| v * 1e300).collect(),
        ]
    }

    /// Feeds `x` to fresh filters over `sos` in the chunks `lens` cycles
    /// through, on both paths, and checks each call's output and every
    /// section's state after it against the sample-major oracle.
    fn check_chunked(sos: &Sos, x: &[f64], lens: &[usize], what: &str) {
        let mut want_state = vec![[0.0; 4]; sos.sections().len()];
        let mut want = Vec::new();
        let mut paths = [
            StreamingSos::new(sos.clone()),
            StreamingSos::new(sos.clone()),
        ];
        let mut got = [Vec::new(), Vec::new()];
        let (mut at, mut call) = (0, 0);
        while at < x.len() {
            let end = (at + lens[call % lens.len()]).min(x.len());
            sample_major(sos, &mut want_state, &x[at..end], &mut want);
            paths[0].process(&x[at..end], &mut got[0]);
            paths[1].process_scalar(&x[at..end], &mut got[1]);
            for (path, (stream, out)) in ["dispatched", "scalar"].iter().zip(paths.iter().zip(&got))
            {
                assert!(
                    bits(&out[at..]) == bits(&want[at..]),
                    "{what}, {path} path: output differs after call {call} (samples {at}..{end})"
                );
                assert!(
                    state_bits(&stream.state) == state_bits(&want_state),
                    "{what}, {path} path: state differs after call {call} (samples {at}..{end})"
                );
            }
            at = end;
            call += 1;
        }
    }

    /// On AVX2 machines every cascade of 2–8 sections runs the wavefront;
    /// both it and the section-major scalar path must give the oracle's
    /// bits, output and state, for every section count 1–10, on chunks
    /// that end inside and around the ramps, and on hostile values.
    #[test]
    fn both_paths_match_the_sample_major_oracle_bit_for_bit() {
        if !crate::kernels::avx2_available() {
            eprintln!("notice: AVX2 not available on this machine; checking the scalar path only");
        }
        for n in 1..=10 {
            let sos = cascade(n);
            let lag = 2 * (n - 1);
            let mut lens = vec![
                1,
                2,
                lag.saturating_sub(1),
                lag,
                lag + 1,
                120,
                480,
                960,
                5000,
            ];
            lens.retain(|&l| l > 0);
            lens.dedup();
            for (kind, x) in hostile_signals(5003, 0xB1_0AD + n as u64)
                .iter()
                .enumerate()
            {
                for &len in &lens {
                    check_chunked(
                        &sos,
                        x,
                        &[len],
                        &format!("{n} sections, signal {kind}, chunk {len}"),
                    );
                }
            }
        }
    }

    #[test]
    fn both_paths_match_the_oracle_on_random_chunkings() {
        crate::check::property("streaming_sos_random_chunkings").run(|g| {
            let n = g.usize_in(1..11);
            let x = &hostile_signals(g.usize_in(1..3000), g.usize_in(1..1 << 30) as u64)
                [g.usize_in(0..4)];
            let max = if g.bool() { 12 } else { 700 };
            let lens: Vec<usize> = (0..g.usize_in(1..8)).map(|_| g.usize_in(1..max)).collect();
            check_chunked(
                &cascade(n),
                x,
                &lens,
                &format!("{n} sections, chunks {lens:?}"),
            );
        });
    }

    #[test]
    fn reused_filters_match_fresh_ones_after_reset() {
        for n in 1..=10 {
            let sos = cascade(n);
            let x = noise(700, 0x5E7 + n as u64);
            let want = oracle(&sos, &x);
            let mut stream = StreamingSos::new(sos);
            for len in [3, 480] {
                let mut scratch = Vec::new();
                stream.process(&noise(len, 9), &mut scratch);
                stream.reset();
                let mut got = Vec::new();
                for c in x.chunks(97) {
                    stream.process(c, &mut got);
                }
                assert_eq!(bits(&got), bits(&want), "{n} sections after {len} samples");
            }
        }
    }
}
