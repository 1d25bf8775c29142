//! Cross-correlation and GCC-PHAT (Generalized Cross-Correlation with Phase
//! Transform, Knapp & Carter 1976), Eq. 5 of the paper.
//!
//! GCC-PHAT whitens the cross-power spectrum so that the correlation peak
//! reflects pure time delay rather than spectral coloration — this is what
//! makes it usable for time-difference-of-arrival (TDoA) estimation in
//! reverberant rooms.
//!
//! [`gcc_phat`], [`xcorr`] and [`tdoa_samples`] are one-shot functions over
//! whole equal-length channels; summing the pairwise [`gcc_phat`] curves of
//! a capture gives its SRP-PHAT curve (Eq. 6). The decision path does not
//! call them: the streaming frame analyzer (`ht_stream::FrameAnalyzer`)
//! whitens each channel once with [`crate::kernels::channel_phat_accumulate`]
//! and reads its per-pair sums back through [`lag_window_into`].

use crate::complex::Complex;
use crate::error::DspError;
use crate::fft::{self, RealFftPlan, RealFftScratch};
use crate::kernels::{self, QuantMode};

/// A lag-domain correlation curve restricted to `±max_lag` samples.
///
/// `values[k]` corresponds to lag `k as isize - max_lag as isize`; positive
/// lag means the first signal *leads* (the second is a delayed copy).
#[derive(Debug, Clone, PartialEq)]
pub struct LagCurve {
    /// Correlation values for lags `-max_lag ..= +max_lag`.
    pub values: Vec<f64>,
    /// Half-width of the lag window in samples.
    pub max_lag: usize,
}

impl LagCurve {
    /// The lag (in samples, possibly negative) with the largest value.
    pub fn peak_lag(&self) -> isize {
        let idx = crate::peak::argmax(&self.values).unwrap_or(self.max_lag);
        idx as isize - self.max_lag as isize
    }

    /// Sub-sample peak location via parabolic interpolation around the
    /// discrete maximum. Falls back to the discrete lag at the window edges.
    pub fn peak_lag_interpolated(&self) -> f64 {
        let idx = crate::peak::argmax(&self.values).unwrap_or(self.max_lag);
        let coarse = idx as f64 - self.max_lag as f64;
        if idx == 0 || idx + 1 >= self.values.len() {
            return coarse;
        }
        let (ym1, y0, yp1) = (self.values[idx - 1], self.values[idx], self.values[idx + 1]);
        let denom = ym1 - 2.0 * y0 + yp1;
        if denom.abs() < 1e-15 {
            coarse
        } else {
            coarse + 0.5 * (ym1 - yp1) / denom
        }
    }

    /// Value at an explicit lag.
    ///
    /// # Panics
    ///
    /// Panics if `|lag| > max_lag`.
    pub fn at(&self, lag: isize) -> f64 {
        assert!(
            lag.unsigned_abs() <= self.max_lag,
            "lag {lag} outside ±{}",
            self.max_lag
        );
        self.values[(lag + self.max_lag as isize) as usize]
    }
}

/// Inverse-transforms a one-sided cross spectrum into `r` (the
/// `plan.len()`-point circular correlation) and copies its `±max_lag`
/// window into `values`. Allocation-free once `scratch` has warmed up to
/// the plan's size. The inverse is linear, so the window of a sum of cross
/// spectra is the sum of their windows (up to rounding): the streaming
/// frame analyzer accumulates whitened spectra and inverts each sum once.
///
/// # Panics
///
/// Panics if `cross.len() != plan.onesided_len()`, `r.len() != plan.len()`,
/// `values.len() != 2 * max_lag + 1`, or `max_lag >= plan.len()` (the
/// circular correlation has no such lag).
pub fn lag_window_into(
    plan: &RealFftPlan,
    cross: &[Complex],
    max_lag: usize,
    r: &mut [f64],
    scratch: &mut RealFftScratch,
    values: &mut [f64],
) {
    assert_eq!(values.len(), 2 * max_lag + 1, "lag window length");
    assert!(
        max_lag < plan.len(),
        "max_lag {} outside the {}-point circular correlation",
        max_lag,
        plan.len()
    );
    // The cross spectrum of two real signals is conjugate-symmetric, so
    // its inverse is real and the one-sided inverse applies directly.
    plan.inverse_into(cross, r, scratch);
    extract_lags(r, max_lag, values);
}

/// Copies the circular correlation `r` into the `±max_lag` window: lag
/// `l >= 0` lives at index `l`, lag `l < 0` at index `r.len() + l`.
fn extract_lags(r: &[f64], max_lag: usize, values: &mut [f64]) {
    let total = r.len();
    let lags = -(max_lag as isize)..=(max_lag as isize);
    for (slot, l) in values.iter_mut().zip(lags) {
        let idx = if l >= 0 {
            l as usize
        } else {
            (total as isize + l) as usize
        };
        *slot = r[idx];
    }
}

/// Reusable working storage for [`gcc_phat_from_spectra_into_mode`]: the
/// cross spectrum, the lag-domain inverse and the FFT scratch. Buffers grow
/// to the plan's size on first use and are reused verbatim afterwards, so
/// every call after the first is allocation-free.
#[derive(Debug, Clone)]
pub struct SpectraGccScratch {
    cross: Vec<Complex>,
    mags: Vec<f64>,
    r: Vec<f64>,
    fft: RealFftScratch,
}

impl SpectraGccScratch {
    /// An empty scratch; buffers are sized lazily by the first call.
    pub fn new() -> SpectraGccScratch {
        SpectraGccScratch {
            cross: Vec::new(),
            mags: Vec::new(),
            r: Vec::new(),
            fft: RealFftScratch::new(),
        }
    }
}

impl Default for SpectraGccScratch {
    fn default() -> Self {
        SpectraGccScratch::new()
    }
}

/// GCC-PHAT of one pair from two already-transformed one-sided spectra (as
/// produced by `plan.forward_into` on the padded channels) into a
/// caller-provided `±max_lag` window, whitened per pair by
/// [`kernels::cross_whiten_reference_into`]: the values are bit-identical
/// to [`gcc_phat`] on the time-domain channels. Allocation-free once
/// `scratch` has warmed up to the plan's size.
///
/// `_mode` selects nothing: both [`QuantMode`]s run the reference kernel.
/// No decision calls this function; the end-to-end benchmark's per-layer
/// replay still times it per frame, so its signature stays.
///
/// # Panics
///
/// Panics if a spectrum's length differs from `plan.onesided_len()`, if
/// `values.len() != 2 * max_lag + 1`, or if `max_lag >= plan.len()` (the
/// circular correlation has no such lag).
#[allow(clippy::too_many_arguments)]
pub fn gcc_phat_from_spectra_into_mode(
    xf: &[Complex],
    yf: &[Complex],
    plan: &RealFftPlan,
    max_lag: usize,
    scratch: &mut SpectraGccScratch,
    values: &mut [f64],
    _mode: QuantMode,
) {
    let bins = plan.onesided_len();
    assert_eq!(xf.len(), bins, "x spectrum length");
    assert_eq!(yf.len(), bins, "y spectrum length");
    scratch.cross.resize(bins, Complex::ZERO);
    scratch.mags.resize(bins, 0.0);
    scratch.r.resize(plan.len(), 0.0);
    kernels::cross_whiten_reference_into(xf, yf, &mut scratch.cross, &mut scratch.mags);
    lag_window_into(
        plan,
        &scratch.cross,
        max_lag,
        &mut scratch.r,
        &mut scratch.fft,
        values,
    );
}

/// Computes the whitened (`phat = true`) or plain cross-correlation of two
/// equal-length channels over lags `±max_lag` (clamped to `n − 1`).
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] for empty or length-mismatched inputs.
fn cross_correlate(x: &[f64], y: &[f64], max_lag: usize, phat: bool) -> Result<LagCurve, DspError> {
    if x.is_empty() || y.is_empty() {
        return Err(DspError::length("signal", "must be non-empty"));
    }
    if x.len() != y.len() {
        return Err(DspError::length(
            "signal",
            format!("channel lengths differ: {} vs {}", x.len(), y.len()),
        ));
    }
    let max_lag = max_lag.min(x.len() - 1);
    // Pad to avoid circular aliasing of lags we care about.
    let plan = fft::rfft_plan(fft::next_pow2(x.len() + max_lag + 1));
    let (xf, yf) = (plan.forward(x), plan.forward(y));
    let mut cross = vec![Complex::ZERO; xf.len()];
    if phat {
        let mut mags = vec![0.0; xf.len()];
        kernels::cross_whiten_reference_into(&xf, &yf, &mut cross, &mut mags);
    } else {
        for ((c, a), b) in cross.iter_mut().zip(&xf).zip(&yf) {
            *c = *a * b.conj();
        }
    }
    let mut values = vec![0.0; 2 * max_lag + 1];
    extract_lags(&plan.inverse(&cross), max_lag, &mut values);
    Ok(LagCurve { values, max_lag })
}

/// Plain cross-correlation over lags `±max_lag`.
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] for empty or mismatched inputs.
pub fn xcorr(x: &[f64], y: &[f64], max_lag: usize) -> Result<LagCurve, DspError> {
    cross_correlate(x, y, max_lag, false)
}

/// GCC-PHAT of two equal-length channels over lags `±max_lag` (Eq. 5).
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] for empty or mismatched inputs.
///
/// # Example
///
/// ```
/// use ht_dsp::correlate::gcc_phat;
/// use ht_dsp::signal::fractional_delay;
///
/// # fn main() -> Result<(), ht_dsp::DspError> {
/// // y is x delayed by 4 samples; the GCC-PHAT peak sits at lag -4
/// // (negative lag: the first argument is the earlier signal).
/// # let mut s = 1234567u64;
/// # let mut next = move || { s = s.wrapping_mul(6364136223846793005).wrapping_add(1); ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0 };
/// let x: Vec<f64> = (0..512).map(|_| next()).collect();
/// let y = fractional_delay(&x, 4.0, 16);
/// let gcc = gcc_phat(&x, &y, 10)?;
/// assert_eq!(gcc.peak_lag(), -4);
/// # Ok(())
/// # }
/// ```
pub fn gcc_phat(x: &[f64], y: &[f64], max_lag: usize) -> Result<LagCurve, DspError> {
    cross_correlate(x, y, max_lag, true)
}

/// Estimates the TDoA between two channels in samples (positive when `x`
/// arrives later than `y`), using GCC-PHAT with parabolic refinement.
///
/// # Errors
///
/// Returns [`DspError::InvalidLength`] for empty or mismatched inputs.
pub fn tdoa_samples(x: &[f64], y: &[f64], max_lag: usize) -> Result<f64, DspError> {
    Ok(gcc_phat(x, y, max_lag)?.peak_lag_interpolated())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::fractional_delay;

    fn chirp(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| {
                let t = k as f64 / n as f64;
                (2.0 * std::f64::consts::PI * (50.0 * t + 400.0 * t * t)).sin()
            })
            .collect()
    }

    /// Deterministic broadband test signal (LCG white noise) — sub-sample
    /// delay estimation needs energy across the whole band.
    fn broadband(n: usize) -> Vec<f64> {
        let mut state = 0x2545F4914F6CDD1Du64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn autocorrelation_peaks_at_zero() {
        let x = chirp(1024);
        let c = xcorr(&x, &x, 20).unwrap();
        assert_eq!(c.peak_lag(), 0);
        let g = gcc_phat(&x, &x, 20).unwrap();
        assert_eq!(g.peak_lag(), 0);
    }

    #[test]
    fn integer_delay_is_recovered() {
        let x = chirp(2048);
        for d in [1usize, 3, 7, 12] {
            let y = fractional_delay(&x, d as f64, 16);
            let g = gcc_phat(&x, &y, 16).unwrap();
            assert_eq!(g.peak_lag(), -(d as isize), "delay {d}");
            // Swapped arguments flip the sign.
            let g2 = gcc_phat(&y, &x, 16).unwrap();
            assert_eq!(g2.peak_lag(), d as isize);
        }
    }

    #[test]
    fn fractional_delay_is_recovered_subsample() {
        let x = broadband(4096);
        let d = 3.4;
        let y = fractional_delay(&x, d, 24);
        let est = tdoa_samples(&y, &x, 16).unwrap();
        assert!((est - d).abs() < 0.2, "estimated {est}, expected {d}");
    }

    #[test]
    fn phat_is_robust_to_spectral_coloring() {
        // Color one channel with a strong zero-phase low-pass; PHAT should
        // still find the true delay while keeping a sharp peak.
        let x = broadband(4096);
        let lp = crate::filter::Butterworth::lowpass(4, 2_000.0, 48_000.0).unwrap();
        let y = lp.filtfilt(&fractional_delay(&x, 5.0, 16));
        let g = gcc_phat(&x, &y, 16).unwrap();
        assert_eq!(g.peak_lag(), -5);
    }

    #[test]
    fn lag_window_clamps_to_signal_length() {
        let x = vec![1.0, 0.0, 0.0];
        let c = xcorr(&x, &x, 100).unwrap();
        assert_eq!(c.max_lag, 2);
        assert_eq!(c.values.len(), 5);
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        assert!(gcc_phat(&[1.0, 2.0], &[1.0], 1).is_err());
        assert!(gcc_phat(&[], &[], 1).is_err());
    }

    #[test]
    fn at_indexes_by_lag() {
        let x = chirp(512);
        let y = fractional_delay(&x, 2.0, 16);
        let g = gcc_phat(&x, &y, 8).unwrap();
        let m = crate::stats::max(&g.values);
        assert!((g.at(-2) - m).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn at_rejects_out_of_window_lag() {
        let x = chirp(256);
        let g = gcc_phat(&x, &x, 4).unwrap();
        g.at(5);
    }

    #[test]
    fn silence_produces_flat_curve_not_nan() {
        let z = vec![0.0; 256];
        let g = gcc_phat(&z, &z, 8).unwrap();
        assert!(g.values.iter().all(|v| v.is_finite()));
        // A flat curve's maximum ties everywhere; `peak::argmax` keeps the
        // last, so the TDoA is +max_lag.
        assert_eq!(g.peak_lag_interpolated(), 8.0);
    }

    #[test]
    fn spectra_gcc_matches_time_domain_gcc_bitwise() {
        // Shared forward FFTs + scratch reuse must be indistinguishable
        // from the one-shot time-domain GCC-PHAT.
        let x = chirp(960);
        let y = fractional_delay(&x, 6.0, 16);
        let max_lag = 13;
        let plan = fft::rfft_plan(fft::next_pow2(x.len() + max_lag + 1));
        let xf = plan.forward(&x);
        let yf = plan.forward(&y);
        let reference = gcc_phat(&x, &y, max_lag).unwrap();
        // Scratch reuse across calls changes nothing.
        let mut scratch = SpectraGccScratch::new();
        let mut values = vec![0.0; 2 * max_lag + 1];
        for _ in 0..3 {
            gcc_phat_from_spectra_into_mode(
                &xf,
                &yf,
                &plan,
                max_lag,
                &mut scratch,
                &mut values,
                QuantMode::Reference,
            );
            assert_eq!(values, reference.values);
        }
    }

    #[test]
    fn both_quant_modes_give_the_reference_gcc_bit_for_bit() {
        // The mode selects no kernel: a whitening that divided by
        // `√(re² + im²)` instead of `hypot` would differ here in low bits.
        let x = broadband(960);
        let y = fractional_delay(&x, 6.0, 16);
        let max_lag = 13;
        let plan = fft::rfft_plan(fft::next_pow2(x.len() + max_lag + 1));
        let xf = plan.forward(&x);
        let yf = plan.forward(&y);
        let reference = gcc_phat(&x, &y, max_lag).unwrap();
        let mut scratch = SpectraGccScratch::new();
        for mode in [QuantMode::Reference, QuantMode::Int8] {
            let mut values = vec![0.0; 2 * max_lag + 1];
            gcc_phat_from_spectra_into_mode(
                &xf,
                &yf,
                &plan,
                max_lag,
                &mut scratch,
                &mut values,
                mode,
            );
            for (k, (got, want)) in values.iter().zip(&reference.values).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "{mode:?} lag index {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lag window length")]
    fn spectra_gcc_rejects_wrong_window_length() {
        let x = chirp(256);
        let plan = fft::rfft_plan(512);
        let xf = plan.forward(&x);
        let mut scratch = SpectraGccScratch::new();
        let mut values = vec![0.0; 3];
        gcc_phat_from_spectra_into_mode(
            &xf,
            &xf,
            &plan,
            8,
            &mut scratch,
            &mut values,
            QuantMode::Reference,
        );
    }
}
