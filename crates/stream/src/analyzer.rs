//! Per-frame spectral analysis: one shared forward FFT per channel, then
//! PHAT-whitened cross spectra for every microphone pair from those shared
//! spectra.
//!
//! The analyzer owns every buffer it needs — STFT plan and scratch,
//! per-channel spectra, whitening and inverse-FFT workspaces, the spectral
//! accumulators — all sized in [`FrameAnalyzer::new`], so
//! [`analyze`](FrameAnalyzer::analyze) is allocation-free from the first
//! frame. Frames are zero-padded to `next_pow2(frame_len + max_lag + 1)` so
//! circular GCC lags up to `±max_lag` never alias (the same pad rule as the
//! batch `ht_dsp::srp::srp_phat`).
//!
//! GCC-PHAT stays in the frequency domain until it is read. Each frame adds
//! every pair's whitened cross spectrum to that pair's running sum and to
//! the frame's sum over pairs; the inverse FFT is linear, so one inverse of
//! the pair sum gives the frame's SRP curve (Eq. 6) for the early-exit
//! gate, whatever the pair count.
//! [`assemble_features_into`](FrameAnalyzer::assemble_features_into)
//! inverts each pair's running sum once per decision, giving the
//! frame-averaged GCC lag curves (Eq. 5) that the reverberation half of
//! the §III-B3 feature vector is built from, in time independent of the
//! capture's length and without revisiting any audio. (The directivity
//! half accumulates in [`crate::directivity::DirectivityAccum`], which
//! needs longer windows than one analysis frame.)

use crate::error::StreamError;
use ht_dsp::complex::Complex;
use ht_dsp::correlate::lag_window_into;
use ht_dsp::fft::{self, RealFftPlan, RealFftScratch};
use ht_dsp::kernels::{self, QuantMode};
use ht_dsp::spectrum::{HIGH_BAND_HZ, LOW_BAND_HZ};
use ht_dsp::stft::StftProcessor;
use ht_dsp::window::Window;
use std::sync::Arc;

/// Spectral evidence extracted from one analysis frame.
///
/// These are *incremental* observations for the early-exit gate and the
/// latency instrumentation — deliberately cheaper and coarser than the
/// batch feature vector, which remains the sole input to the trained
/// models.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameFeatures {
    /// 0-based index of the frame within the stream.
    pub frame_index: u64,
    /// RMS of the first channel's frame (the gate's voicing signal).
    pub rms: f64,
    /// Peak of the summed SRP-PHAT curve across all pairs.
    pub srp_peak: f64,
    /// Mean absolute value of the summed SRP-PHAT curve.
    pub srp_mean_abs: f64,
    /// Mean magnitude of the paper's 100–400 Hz low band (channel 0).
    pub low_band: f64,
    /// Mean magnitude of the paper's 500–4000 Hz high band (channel 0).
    pub high_band: f64,
}

impl FrameFeatures {
    /// SRP peak-to-mean ratio: a sharp dominant peak means a strong direct
    /// path — the frontal-orientation signature. 0 for a silent frame.
    ///
    /// The ratio is **not** bounded below by 1: `srp_peak` is the signed
    /// maximum of the summed PHAT curve while `srp_mean_abs` averages
    /// magnitudes, so a sign-mixed curve whose positive peak is small
    /// relative to its negative excursions scores below 1 (a single pair's
    /// whitened correlation oscillates around zero by construction).
    pub fn srp_sharpness(&self) -> f64 {
        if self.srp_mean_abs > 0.0 {
            self.srp_peak / self.srp_mean_abs
        } else {
            0.0
        }
    }

    /// High/low band ratio of this frame (the per-frame analogue of
    /// `ht_dsp::spectrum::hlbr`): replay speakers attenuate highs, so live
    /// speech scores higher. 0 when the low band is silent.
    pub fn band_ratio(&self) -> f64 {
        if self.low_band > 0.0 {
            self.high_band / self.low_band
        } else {
            0.0
        }
    }
}

/// A reusable per-frame analysis engine for one stream geometry.
#[derive(Debug, Clone)]
pub struct FrameAnalyzer {
    channels: usize,
    frame_len: usize,
    max_lag: usize,
    stft: StftProcessor,
    plan: Arc<RealFftPlan>,
    spectra: Vec<Vec<Complex>>,
    pairs: Vec<(usize, usize)>,
    /// One pair's whitened cross spectrum and the kernel's magnitude
    /// scratch.
    cross: Vec<Complex>,
    mags: Vec<f64>,
    /// This frame's whitened cross spectra summed over pairs; its inverse
    /// is the frame's SRP curve.
    pair_sum: Vec<Complex>,
    /// Running per-pair sums of whitened cross spectra, `pairs × bins`
    /// laid out pair-major. A pair's inverse divided by the frame count is
    /// its Welch-style frame-averaged GCC lag curve.
    spec_accum: Vec<Complex>,
    /// Inverse-FFT output (`n_fft` samples) and scratch.
    r: Vec<f64>,
    fft: RealFftScratch,
    /// Per-pair lag windows of the running sums, `pairs × (2·max_lag + 1)`,
    /// filled and then frame-averaged by assembly.
    lag_sums: Vec<f64>,
    srp: Vec<f64>,
    /// `[lo, hi)` bin ranges of the paper's low/high bands for this
    /// geometry (fixed at construction — this is why a mid-stream sample
    /// rate change must be rejected upstream).
    low_bins: (usize, usize),
    high_bins: (usize, usize),
    frames: u64,
    features: FrameFeatures,
    /// Which whitening kernel runs: the byte-stable reference (default) or
    /// the vectorized Int8-path variant.
    quant: QuantMode,
}

impl FrameAnalyzer {
    /// Builds an analyzer for `channels`-channel frames of `frame_len`
    /// samples at `sample_rate`, correlating every pair over `±max_lag`
    /// (clamped to `frame_len − 1`).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::BadGeometry`] for fewer than two channels, a
    /// zero frame length, or a non-positive sample rate.
    pub fn new(
        channels: usize,
        frame_len: usize,
        max_lag: usize,
        sample_rate: f64,
    ) -> Result<FrameAnalyzer, StreamError> {
        if channels < 2 {
            return Err(StreamError::BadGeometry(format!(
                "analyzer needs at least two channels for TDoA, got {channels}"
            )));
        }
        if frame_len == 0 {
            return Err(StreamError::BadGeometry(
                "frame length must be positive".into(),
            ));
        }
        if sample_rate <= 0.0 || !sample_rate.is_finite() {
            return Err(StreamError::BadGeometry(format!(
                "sample rate must be positive and finite, got {sample_rate}"
            )));
        }
        let max_lag = max_lag.min(frame_len - 1);
        // Same pad rule as the batch SRP-PHAT: room for every lag we read.
        let n_fft = fft::next_pow2(frame_len + max_lag + 1);
        let mut stft = StftProcessor::with_n_fft(frame_len, n_fft, Window::Hann);
        let plan = fft::rfft_plan(n_fft);
        let bins = plan.onesided_len();
        let pairs: Vec<(usize, usize)> = (0..channels)
            .flat_map(|i| ((i + 1)..channels).map(move |j| (i, j)))
            .collect();
        let hz_to_bin = |hz: f64| {
            let k = (hz * n_fft as f64 / sample_rate).round() as usize;
            k.min(bins - 1)
        };
        let n_pairs = pairs.len();
        let w = 2 * max_lag + 1;
        let mut spectra = vec![vec![Complex::ZERO; bins]; channels];
        let pair_sum = vec![Complex::ZERO; bins];
        let mut r = vec![0.0; n_fft];
        // Throwaway transforms warm both lazily sized FFT scratches, so a
        // pooled analyzer allocates nothing from its first frame on.
        stft.process_into(&[], &mut spectra[0]);
        let mut scratch = RealFftScratch::new();
        plan.inverse_into(&pair_sum, &mut r, &mut scratch);
        Ok(FrameAnalyzer {
            channels,
            frame_len,
            max_lag,
            stft,
            spectra,
            pairs,
            cross: vec![Complex::ZERO; bins],
            mags: vec![0.0; bins],
            pair_sum,
            spec_accum: vec![Complex::ZERO; n_pairs * bins],
            r,
            fft: scratch,
            lag_sums: vec![0.0; n_pairs * w],
            srp: vec![0.0; w],
            low_bins: (hz_to_bin(LOW_BAND_HZ.0), hz_to_bin(LOW_BAND_HZ.1)),
            high_bins: (hz_to_bin(HIGH_BAND_HZ.0), hz_to_bin(HIGH_BAND_HZ.1)),
            frames: 0,
            features: FrameFeatures {
                frame_index: 0,
                rms: 0.0,
                srp_peak: 0.0,
                srp_mean_abs: 0.0,
                low_band: 0.0,
                high_band: 0.0,
            },
            plan,
            quant: QuantMode::Reference,
        })
    }

    /// Selects the whitening kernel for subsequent frames. Streams mixing
    /// modes mid-capture would mix accumulator provenances, so callers set
    /// this once, right after construction or a [`reset`](Self::reset).
    pub fn set_quant_mode(&mut self, mode: QuantMode) {
        self.quant = mode;
    }

    /// The active whitening-kernel selection.
    pub fn quant_mode(&self) -> QuantMode {
        self.quant
    }

    /// Analyzes one frame (`channels` buffers of exactly `frame_len`
    /// samples) and returns the evidence. Allocation-free; the returned
    /// reference borrows internal storage that the next call overwrites.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::ChannelCountChanged`] /
    /// [`StreamError::BadGeometry`] for a frame of the wrong shape.
    pub fn analyze(&mut self, frame: &[Vec<f64>]) -> Result<&FrameFeatures, StreamError> {
        if frame.len() != self.channels {
            return Err(StreamError::ChannelCountChanged {
                expected: self.channels,
                got: frame.len(),
            });
        }
        for c in frame {
            if c.len() != self.frame_len {
                return Err(StreamError::BadGeometry(format!(
                    "frame length {} differs from the analyzer's {}",
                    c.len(),
                    self.frame_len
                )));
            }
        }
        {
            let _stft = ht_obs::span("stream.stft");
            for (spec, c) in self.spectra.iter_mut().zip(frame) {
                self.stft.process_into(c, spec);
            }
        }
        {
            let _srp = ht_obs::span("stream.srp");
            let bins = self.pair_sum.len();
            self.pair_sum.fill(Complex::ZERO);
            let accums = self.spec_accum.chunks_exact_mut(bins);
            for (&(i, j), accum) in self.pairs.iter().zip(accums) {
                kernels::cross_whiten_into(
                    self.quant,
                    &self.spectra[i],
                    &self.spectra[j],
                    &mut self.cross,
                    &mut self.mags,
                );
                for ((a, s), c) in accum.iter_mut().zip(&mut self.pair_sum).zip(&self.cross) {
                    *a += *c;
                    *s += *c;
                }
            }
            lag_window_into(
                &self.plan,
                &self.pair_sum,
                self.max_lag,
                &mut self.r,
                &mut self.fft,
                &mut self.srp,
            );
        }
        let f = &mut self.features;
        f.frame_index = self.frames;
        f.rms = ht_dsp::signal::rms(&frame[0]);
        f.srp_peak = self.srp.iter().copied().fold(f64::MIN, f64::max);
        f.srp_mean_abs = self.srp.iter().map(|v| v.abs()).sum::<f64>() / self.srp.len() as f64;
        let mags = &self.spectra[0];
        f.low_band = band_mean(mags, self.low_bins);
        f.high_band = band_mean(mags, self.high_bins);
        self.frames += 1;
        Ok(&self.features)
    }

    /// The configured channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The configured frame length in samples.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// The effective lag half-width (after clamping).
    pub fn max_lag(&self) -> usize {
        self.max_lag
    }

    /// The microphone pairs correlated per frame, in feature order.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// The FFT length frames are padded to.
    pub fn n_fft(&self) -> usize {
        self.stft.n_fft()
    }

    /// Frames analyzed so far.
    pub fn frames_analyzed(&self) -> u64 {
        self.frames
    }

    /// Assembles the reverberation half of the §III-B3 feature vector from
    /// the accumulated evidence, appending `srp_peaks + 5 +
    /// pairs·(window + 6)` values to `out`. Runs one inverse FFT per pair
    /// and revisits no audio; once `out` has capacity, no allocation
    /// happens. (The directivity features follow from
    /// [`crate::directivity::DirectivityAccum`].)
    ///
    /// Non-destructive and idempotent — the accumulators are left intact,
    /// so more frames may be analyzed and the vector assembled again.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NoFrames`] when no complete frame has been
    /// analyzed yet (`out` is left untouched).
    pub fn assemble_features_into(
        &mut self,
        srp_peaks: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), StreamError> {
        if self.frames == 0 {
            return Err(StreamError::NoFrames);
        }
        let frames = self.frames as f64;
        let w = 2 * self.max_lag + 1;
        let bins = self.pair_sum.len();

        // Per-pair lag-window sums: one inverse FFT of each pair's running
        // spectral sum.
        for (sum, window) in self
            .spec_accum
            .chunks_exact(bins)
            .zip(self.lag_sums.chunks_exact_mut(w))
        {
            lag_window_into(
                &self.plan,
                sum,
                self.max_lag,
                &mut self.r,
                &mut self.fft,
                window,
            );
        }

        // Frame-averaged SRP curve: sum of per-pair lag sums, then one
        // division per lag.
        self.srp.fill(0.0);
        for window in self.lag_sums.chunks_exact(w) {
            for (s, v) in self.srp.iter_mut().zip(window) {
                *s += v;
            }
        }
        for s in &mut self.srp {
            *s /= frames;
        }
        ht_dsp::peak::push_top_k_peak_values(&self.srp, srp_peaks, out);
        out.extend_from_slice(&ht_dsp::stats::feature_summary(&self.srp));

        // Per-pair frame-averaged GCC windows: full window, interpolated
        // TDoA, summary statistics.
        for window in self.lag_sums.chunks_exact_mut(w) {
            for v in window.iter_mut() {
                *v /= frames;
            }
            out.extend_from_slice(window);
            out.push(peak_lag_interpolated(window, self.max_lag));
            out.extend_from_slice(&ht_dsp::stats::feature_summary(window));
        }
        Ok(())
    }

    /// Rewinds the frame counter and zeroes the feature accumulators so a
    /// pooled analyzer can serve a new stream without leaking evidence
    /// between sessions. All plan, scratch, and spectra buffers are kept —
    /// analysis after a reset is byte-identical to a freshly built
    /// analyzer's and allocation-free from the first frame.
    pub fn reset(&mut self) {
        self.frames = 0;
        self.spec_accum.fill(Complex::ZERO);
    }
}

/// Mean magnitude over the one-sided bins `[lo, hi)` (0 for an empty band).
fn band_mean(spec: &[Complex], (lo, hi): (usize, usize)) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    spec[lo..hi].iter().map(|z| z.abs()).sum::<f64>() / (hi - lo) as f64
}

/// Sub-sample peak of a `±max_lag` window via parabolic interpolation
/// (mirrors `LagCurve::peak_lag_interpolated`).
fn peak_lag_interpolated(values: &[f64], max_lag: usize) -> f64 {
    let mut idx = 0;
    let mut best = f64::MIN;
    for (k, &v) in values.iter().enumerate() {
        if v > best {
            best = v;
            idx = k;
        }
    }
    let coarse = idx as f64 - max_lag as f64;
    if idx == 0 || idx + 1 >= values.len() {
        return coarse;
    }
    let (ym1, y0, yp1) = (values[idx - 1], values[idx], values[idx + 1]);
    let denom = ym1 - 2.0 * y0 + yp1;
    if denom.abs() < 1e-15 {
        coarse
    } else {
        coarse + 0.5 * (ym1 - yp1) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::correlate::{gcc_phat_from_spectra_into_mode, SpectraGccScratch};
    use ht_dsp::signal::{fractional_delay, tone};

    fn noise(n: usize, mut state: u64) -> Vec<f64> {
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
    fn recovers_the_inter_channel_delay() {
        let x = noise(960, 7);
        let y = fractional_delay(&x, 4.0, 16);
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        assert!(a.analyze(&[x, y]).unwrap().srp_sharpness() > 1.0);
        let mut out = Vec::new();
        a.assemble_features_into(3, &mut out).unwrap();
        // The pair's TDoA follows the SRP block (3 peaks + 5 stats) and
        // the pair's 27-lag window. Negative lag: the first channel leads
        // (mirrors gcc_phat).
        let tdoa = out[3 + 5 + 27];
        assert!((tdoa + 4.0).abs() < 0.3, "tdoa {tdoa}");
    }

    #[test]
    fn pair_order_matches_the_batch_srp_convention() {
        let a = FrameAnalyzer::new(4, 960, 13, 48_000.0).unwrap();
        assert_eq!(a.pairs(), &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(a.n_fft(), 1024);
    }

    #[test]
    fn band_ratio_separates_bright_from_dull_frames() {
        let sr = 48_000.0;
        let n = 960;
        // Bright: energy at 2 kHz (high band). Dull: 200 Hz (low band).
        let bright = tone(2000.0, sr, n, 1.0);
        let dull = tone(200.0, sr, n, 1.0);
        let mut a = FrameAnalyzer::new(2, n, 13, sr).unwrap();
        let rb = a.analyze(&[bright.clone(), bright]).unwrap().band_ratio();
        let rd = a.analyze(&[dull.clone(), dull]).unwrap().band_ratio();
        assert!(rb > 10.0 * rd.max(1e-12), "bright {rb} dull {rd}");
    }

    #[test]
    fn silent_frames_are_finite_and_flat() {
        let mut a = FrameAnalyzer::new(2, 480, 13, 48_000.0).unwrap();
        let z = vec![0.0; 480];
        let f = a.analyze(&[z.clone(), z]).unwrap();
        assert_eq!(f.rms, 0.0);
        assert_eq!(f.srp_sharpness(), 0.0);
        assert_eq!(f.band_ratio(), 0.0);
        assert_eq!(f.srp_peak, 0.0);
        assert_eq!(f.srp_mean_abs, 0.0);
    }

    #[test]
    fn frame_indices_count_up() {
        let mut a = FrameAnalyzer::new(2, 64, 8, 48_000.0).unwrap();
        let z = vec![0.1; 64];
        for i in 0..3 {
            let f = a.analyze(&[z.clone(), z.clone()]).unwrap();
            assert_eq!(f.frame_index, i);
        }
        assert_eq!(a.frames_analyzed(), 3);
    }

    #[test]
    fn wrong_shapes_are_rejected() {
        let mut a = FrameAnalyzer::new(2, 64, 8, 48_000.0).unwrap();
        let z = vec![0.0; 64];
        assert!(matches!(
            a.analyze(std::slice::from_ref(&z)),
            Err(StreamError::ChannelCountChanged {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            a.analyze(&[z.clone(), vec![0.0; 32]]),
            Err(StreamError::BadGeometry(_))
        ));
        // Still usable after a rejection.
        assert!(a.analyze(&[z.clone(), z]).is_ok());
    }

    #[test]
    fn geometry_validation() {
        assert!(FrameAnalyzer::new(1, 64, 8, 48_000.0).is_err());
        assert!(FrameAnalyzer::new(2, 0, 8, 48_000.0).is_err());
        assert!(FrameAnalyzer::new(2, 64, 8, 0.0).is_err());
        assert!(FrameAnalyzer::new(2, 64, 8, f64::NAN).is_err());
        // Lag clamps like the batch Correlator.
        let a = FrameAnalyzer::new(2, 8, 100, 48_000.0).unwrap();
        assert_eq!(a.max_lag(), 7);
    }

    #[test]
    fn reset_matches_a_fresh_analyzer() {
        let x = noise(960, 21);
        let y = fractional_delay(&x, 3.0, 16);
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        let fresh = a.analyze(&[x.clone(), y.clone()]).unwrap().clone();
        // Drift the internal state, then reset.
        let _ = a.analyze(&[y.clone(), x.clone()]).unwrap();
        a.reset();
        assert_eq!(a.frames_analyzed(), 0);
        let again = a.analyze(&[x, y]).unwrap();
        assert_eq!(again.frame_index, 0);
        assert_eq!(again.srp_peak.to_bits(), fresh.srp_peak.to_bits());
        assert_eq!(again.srp_mean_abs.to_bits(), fresh.srp_mean_abs.to_bits());
        assert_eq!(again.low_band.to_bits(), fresh.low_band.to_bits());
    }

    #[test]
    fn sharpness_is_zero_for_silence_and_can_dip_below_one() {
        // Silent frame: mean_abs == 0, sharpness defined as 0.
        let mut a = FrameAnalyzer::new(2, 480, 13, 48_000.0).unwrap();
        let z = vec![0.0; 480];
        assert_eq!(a.analyze(&[z.clone(), z]).unwrap().srp_sharpness(), 0.0);

        // Single pair, sign-mixed curve: a polarity-inverted second channel
        // puts a large *negative* PHAT spike at lag 0, so the signed peak
        // (small positive ripple) sits below the mean magnitude — which is
        // why the accessor makes no ">= 1" promise.
        let x = noise(480, 17);
        let inv: Vec<f64> = x.iter().map(|v| -v).collect();
        let f = a.analyze(&[x, inv]).unwrap();
        let s = f.srp_sharpness();
        assert!(s.is_finite() && s >= 0.0);
        assert!(
            s < 1.0,
            "inverted-polarity pair should dip below 1, got {s}"
        );
    }

    #[test]
    fn assemble_produces_fixed_width_and_is_idempotent() {
        let x = noise(960, 3);
        let y = fractional_delay(&x, 4.0, 16);
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();

        // Before any frame: NoFrames, and `out` stays untouched.
        let mut out = vec![42.0];
        assert_eq!(
            a.assemble_features_into(3, &mut out),
            Err(StreamError::NoFrames)
        );
        assert_eq!(out, vec![42.0]);

        a.analyze(&[x.clone(), y.clone()]).unwrap();
        a.analyze(&[y.clone(), x.clone()]).unwrap();
        out.clear();
        a.assemble_features_into(3, &mut out).unwrap();
        // srp(3+5) + 1 pair × (27+1+5).
        assert_eq!(out.len(), 3 + 5 + 33);
        assert!(out.iter().all(|v| v.is_finite()));

        // Assembly is non-destructive: a second call appends the same bits.
        let mut again = Vec::new();
        a.assemble_features_into(3, &mut again).unwrap();
        assert_eq!(out.len(), again.len());
        for (o, g) in out.iter().zip(&again) {
            assert_eq!(o.to_bits(), g.to_bits());
        }

        // ... and analysis may continue after an assembly.
        a.analyze(&[x, y]).unwrap();
        assert_eq!(a.frames_analyzed(), 3);
    }

    #[test]
    fn reset_clears_accumulated_evidence() {
        let x = noise(960, 5);
        let y = fractional_delay(&x, 2.0, 16);
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();

        a.analyze(&[x.clone(), y.clone()]).unwrap();
        let mut fresh = Vec::new();
        a.assemble_features_into(3, &mut fresh).unwrap();

        // Pollute the accumulators with a different stream, then reset.
        let other = noise(960, 99);
        a.analyze(&[other.clone(), other]).unwrap();
        a.reset();
        assert_eq!(
            a.assemble_features_into(3, &mut Vec::new()),
            Err(StreamError::NoFrames)
        );

        // Same stream after reset: bit-identical features (no evidence
        // leaks between pooled sessions).
        a.analyze(&[x, y]).unwrap();
        let mut again = Vec::new();
        a.assemble_features_into(3, &mut again).unwrap();
        assert_eq!(fresh.len(), again.len());
        for (f, g) in fresh.iter().zip(&again) {
            assert_eq!(f.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn int8_mode_agrees_with_reference_and_survives_reset() {
        let x = noise(960, 31);
        let y = fractional_delay(&x, 3.0, 16);
        let mut reference = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        let mut fast = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        fast.set_quant_mode(QuantMode::Int8);
        assert_eq!(fast.quant_mode(), QuantMode::Int8);

        reference.analyze(&[x.clone(), y.clone()]).unwrap();
        fast.analyze(&[x.clone(), y.clone()]).unwrap();
        let mut want = Vec::new();
        reference.assemble_features_into(3, &mut want).unwrap();
        let mut got = Vec::new();
        fast.assemble_features_into(3, &mut got).unwrap();
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() < 1e-8, "{w} vs {g}");
        }

        // Reset keeps the configured mode (pooled slots set it once).
        fast.reset();
        assert_eq!(fast.quant_mode(), QuantMode::Int8);
    }

    #[test]
    fn repeated_analysis_is_deterministic() {
        let x = noise(960, 11);
        let y = fractional_delay(&x, 2.5, 16);
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        let first = a.analyze(&[x.clone(), y.clone()]).unwrap().clone();
        for _ in 0..3 {
            let again = a.analyze(&[x.clone(), y.clone()]).unwrap();
            assert_eq!(again.srp_peak.to_bits(), first.srp_peak.to_bits());
            assert_eq!(again.srp_mean_abs.to_bits(), first.srp_mean_abs.to_bits());
            assert_eq!(again.low_band.to_bits(), first.low_band.to_bits());
        }
    }

    /// Analyzes `frames` with `a` and checks each frame's SRP bits against
    /// a lag-domain oracle: every pair's per-frame GCC-PHAT window from the
    /// analyzer's own spectra, summed over pairs — what the analyzer
    /// computed before it accumulated in the frequency domain. Returns each
    /// pair's windows summed over frames.
    fn lag_domain_oracle(a: &mut FrameAnalyzer, frames: &[Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
        let w = 2 * a.max_lag() + 1;
        let mut scratch = SpectraGccScratch::new();
        let mut window = vec![0.0; w];
        let mut pair_sums = vec![vec![0.0; w]; a.pairs().len()];
        for frame in frames {
            let got = a.analyze(frame).unwrap();
            let (peak, mean_abs) = (got.srp_peak, got.srp_mean_abs);
            let mut srp = vec![0.0; w];
            for (p, &(i, j)) in a.pairs.iter().enumerate() {
                gcc_phat_from_spectra_into_mode(
                    &a.spectra[i],
                    &a.spectra[j],
                    &a.plan,
                    a.max_lag,
                    &mut scratch,
                    &mut window,
                    a.quant,
                );
                for ((s, acc), v) in srp.iter_mut().zip(&mut pair_sums[p]).zip(&window) {
                    *s += v;
                    *acc += v;
                }
            }
            let want_peak = srp.iter().copied().fold(f64::MIN, f64::max);
            let want_mean_abs = srp.iter().map(|v| v.abs()).sum::<f64>() / w as f64;
            let tol = 1e-12 * srp.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!((peak - want_peak).abs() <= tol, "{peak} vs {want_peak}");
            assert!(
                (mean_abs - want_mean_abs).abs() <= tol,
                "{mean_abs} vs {want_mean_abs}"
            );
        }
        pair_sums
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        let tol = 1e-12 * want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() <= tol, "{g} vs {w} (tol {tol})");
        }
    }

    #[test]
    fn frequency_domain_sums_equal_the_lag_domain_oracle() {
        let (frame_len, hop, n_frames) = (960, 480, 9);
        let len = frame_len + (n_frames - 1) * hop;
        for channels in [2, 4] {
            let x = noise(len + 16, 41 + channels as u64);
            let signals: Vec<Vec<f64>> = (0..channels)
                .map(|c| fractional_delay(&x, 1.5 * c as f64 + 0.25, 16))
                .collect();
            let frames: Vec<Vec<Vec<f64>>> = (0..n_frames)
                .map(|f| {
                    let at = f * hop;
                    signals
                        .iter()
                        .map(|s| s[at..at + frame_len].to_vec())
                        .collect()
                })
                .collect();
            for mode in [QuantMode::Reference, QuantMode::Int8] {
                let mut a = FrameAnalyzer::new(channels, frame_len, 13, 48_000.0).unwrap();
                a.set_quant_mode(mode);
                let w = 2 * a.max_lag() + 1;
                for round in 0..2 {
                    if round == 1 {
                        a.reset();
                    }
                    let pair_sums = lag_domain_oracle(&mut a, &frames);
                    let mut out = Vec::new();
                    a.assemble_features_into(3, &mut out).unwrap();
                    let mut want_srp = vec![0.0; w];
                    for (p, sums) in pair_sums.iter().enumerate() {
                        let want: Vec<f64> = sums.iter().map(|v| v / n_frames as f64).collect();
                        let at = 3 + 5 + p * (w + 6);
                        assert_close(&out[at..at + w], &want);
                        for (s, v) in want_srp.iter_mut().zip(sums) {
                            *s += v;
                        }
                    }
                    for s in &mut want_srp {
                        *s /= n_frames as f64;
                    }
                    // Assembly leaves the frame-averaged SRP curve in `srp`.
                    assert_close(&a.srp, &want_srp);
                }
            }
        }
    }
}
