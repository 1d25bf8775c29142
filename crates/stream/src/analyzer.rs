//! Per-frame spectral analysis: one shared forward FFT per channel, each
//! channel PHAT-whitened once, and every microphone pair's whitened cross
//! spectrum formed from those unit spectra.
//!
//! The analyzer owns every buffer it needs — STFT plan and scratch,
//! per-channel spectra and magnitudes, the inverse-FFT output, the
//! spectral accumulators — all sized in [`FrameAnalyzer::new`], which runs
//! no transform (the STFT's FFT scratch comes presized from
//! [`RealFftPlan::scratch`](ht_dsp::fft::RealFftPlan::scratch), and the
//! assembly-time inverses reuse its plan and scratch), so
//! [`analyze`](FrameAnalyzer::analyze) is allocation-free from the first
//! frame. Frames are zero-padded to
//! `next_pow2(frame_len + max_lag + 1)` so circular GCC lags up to
//! `±max_lag` never alias (the same pad rule as the one-shot
//! `ht_dsp::correlate::gcc_phat`).
//!
//! PHAT whitening is separable (`XᵢXⱼ*/|XᵢXⱼ*| = uᵢ·conj(uⱼ)`, `u = X/|X|`),
//! so [`ht_dsp::kernels::channel_phat_accumulate`] normalizes each channel's
//! spectrum once and adds every pair's masked unit product to that pair's
//! running sum. It is the only whitening step, whatever the [`QuantMode`]:
//! frame analysis does not depend on the mode.
//!
//! GCC-PHAT stays in the frequency domain until it is read. A frame runs no
//! inverse FFT: a 4-mic frame costs 4 forward FFTs and 4 magnitude passes.
//! [`assemble_features_into`](FrameAnalyzer::assemble_features_into)
//! inverts each pair's running sum once per decision — the inverse FFT is
//! linear, so that gives the frame-averaged GCC lag curves (Eq. 5) and
//! their sum, the SRP curve (Eq. 6), that the reverberation half of the
//! §III-B3 feature vector is built from, in time independent of the
//! capture's length and without revisiting any audio. (The directivity
//! half accumulates in [`crate::directivity::DirectivityAccum`], which
//! needs longer windows than one analysis frame.)

use crate::error::StreamError;
use ht_dsp::complex::Complex;
use ht_dsp::correlate::lag_window_into;
use ht_dsp::fft;
use ht_dsp::kernels::{self, QuantMode};
use ht_dsp::stft::StftProcessor;
use ht_dsp::window::Window;

/// A reusable per-frame analysis engine for one stream geometry.
#[derive(Debug, Clone)]
pub struct FrameAnalyzer {
    channels: usize,
    frame_len: usize,
    max_lag: usize,
    /// The per-frame forward transforms; its plan and scratch also run the
    /// assembly-time inverses.
    stft: StftProcessor,
    /// Per-channel spectra, whitened in place to unit magnitude by
    /// `analyze`.
    spectra: Vec<Vec<Complex>>,
    /// Their magnitudes, `channels × bins` laid out channel-major.
    mags: Vec<f64>,
    pairs: Vec<(usize, usize)>,
    /// Running per-pair sums of whitened cross spectra, `pairs × bins`
    /// laid out pair-major. A pair's inverse divided by the frame count is
    /// its Welch-style frame-averaged GCC lag curve.
    spec_accum: Vec<Complex>,
    /// Inverse-FFT output (`n_fft` samples).
    r: Vec<f64>,
    /// Per-pair lag windows of the running sums, `pairs × (2·max_lag + 1)`,
    /// filled and then frame-averaged by assembly.
    lag_sums: Vec<f64>,
    /// The frame-averaged SRP curve, filled by assembly.
    srp: Vec<f64>,
    frames: u64,
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
        // Same pad rule as `gcc_phat`: room for every lag we read.
        let n_fft = fft::next_pow2(frame_len + max_lag + 1);
        let stft = StftProcessor::with_n_fft(frame_len, n_fft, Window::Hann);
        let bins = stft.onesided_len();
        let pairs: Vec<(usize, usize)> = (0..channels)
            .flat_map(|i| ((i + 1)..channels).map(move |j| (i, j)))
            .collect();
        let n_pairs = pairs.len();
        let w = 2 * max_lag + 1;
        Ok(FrameAnalyzer {
            channels,
            frame_len,
            max_lag,
            stft,
            spectra: vec![vec![Complex::ZERO; bins]; channels],
            mags: vec![0.0; channels * bins],
            pairs,
            spec_accum: vec![Complex::ZERO; n_pairs * bins],
            r: vec![0.0; n_fft],
            lag_sums: vec![0.0; n_pairs * w],
            srp: vec![0.0; w],
            frames: 0,
        })
    }

    /// Selects nothing: every [`QuantMode`] runs the same per-channel
    /// whitening kernel, so analysis is bit-identical in both. Kept so
    /// callers that set a mode per analyzer keep compiling.
    pub fn set_quant_mode(&mut self, _mode: QuantMode) {}

    /// Analyzes one frame (`channels` buffers of exactly `frame_len`
    /// samples): one forward FFT per channel, each channel whitened once,
    /// then every pair's whitened cross spectrum added to that pair's
    /// running sum. Allocation-free; nothing is read back until
    /// [`assemble_features_into`](Self::assemble_features_into).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::ChannelCountChanged`] /
    /// [`StreamError::BadGeometry`] for a frame of the wrong shape.
    pub fn analyze(&mut self, frame: &[Vec<f64>]) -> Result<(), StreamError> {
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
            kernels::channel_phat_accumulate(
                &mut self.spectra,
                &mut self.mags,
                &self.pairs,
                &mut self.spec_accum,
            );
        }
        self.frames += 1;
        Ok(())
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
        let bins = self.stft.onesided_len();

        // Per-pair lag-window sums: one inverse FFT of each pair's running
        // spectral sum.
        let (plan, scratch) = self.stft.plan_and_scratch();
        for (sum, window) in self
            .spec_accum
            .chunks_exact(bins)
            .zip(self.lag_sums.chunks_exact_mut(w))
        {
            lag_window_into(plan, sum, self.max_lag, &mut self.r, scratch, window);
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

/// Sub-sample peak of a `±max_lag` window via parabolic interpolation, as
/// `LagCurve::peak_lag_interpolated` computes it except for ties: this
/// takes the *first* maximum, `LagCurve` (through `peak::argmax`) the last.
/// On a flat window (a silent pair or a dead microphone) the TDoA is
/// therefore `−max_lag` here and `+max_lag` from `gcc_phat`.
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
    use ht_dsp::signal::fractional_delay;

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
        a.analyze(&[x, y]).unwrap();
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

    /// The analyzer's assembled features, fresh from `assemble_features_into`.
    fn assembled(a: &mut FrameAnalyzer) -> Vec<f64> {
        let mut out = Vec::new();
        a.assemble_features_into(3, &mut out).unwrap();
        out
    }

    fn assert_bits_eq(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "feature {i}: {g} vs {w}");
        }
    }

    #[test]
    fn silent_frames_are_finite_and_flat() {
        let mut a = FrameAnalyzer::new(2, 480, 13, 48_000.0).unwrap();
        let z = vec![0.0; 480];
        a.analyze(&[z.clone(), z.clone()]).unwrap();
        a.analyze(&[z.clone(), z]).unwrap();
        let out = assembled(&mut a);
        assert!(out.iter().all(|v| v.is_finite()));
        // Silence whitens to nothing: the SRP block (3 peaks + 5 stats)
        // and the pair's 27-lag window are all zero.
        let w = 2 * a.max_lag() + 1;
        assert!(out[..3 + 5 + w].iter().all(|&v| v == 0.0), "{out:?}");
        // On the flat window the first maximum wins: the TDoA is exactly
        // −max_lag.
        assert_eq!(out[3 + 5 + w], -(a.max_lag() as f64));
    }

    #[test]
    fn frame_indices_count_up() {
        let mut a = FrameAnalyzer::new(2, 64, 8, 48_000.0).unwrap();
        let z = vec![0.1; 64];
        for i in 1..=3 {
            a.analyze(&[z.clone(), z.clone()]).unwrap();
            assert_eq!(a.frames_analyzed(), i);
        }
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
        // Lag clamps like `gcc_phat`.
        let a = FrameAnalyzer::new(2, 8, 100, 48_000.0).unwrap();
        assert_eq!(a.max_lag(), 7);
    }

    #[test]
    fn reset_matches_a_fresh_analyzer() {
        let x = noise(960, 21);
        let y = fractional_delay(&x, 3.0, 16);
        let mut fresh = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        fresh.analyze(&[x.clone(), y.clone()]).unwrap();
        let want = assembled(&mut fresh);
        // Drift a second analyzer's state, then reset it.
        let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        a.analyze(&[y.clone(), x.clone()]).unwrap();
        a.analyze(&[x.clone(), x.clone()]).unwrap();
        a.reset();
        assert_eq!(a.frames_analyzed(), 0);
        a.analyze(&[x, y]).unwrap();
        assert_eq!(a.frames_analyzed(), 1);
        assert_bits_eq(&assembled(&mut a), &want);
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
        let z = noise(960, 32);
        let mut reference = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        let mut fast = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
        fast.set_quant_mode(QuantMode::Int8);

        // Frame analysis does not depend on the mode: bit-identical
        // features, before and after a reset.
        for round in 0..2 {
            if round == 1 {
                reference.reset();
                fast.reset();
            }
            for frame in [[x.clone(), y.clone()], [z.clone(), x.clone()]] {
                reference.analyze(&frame).unwrap();
                fast.analyze(&frame).unwrap();
            }
            assert_bits_eq(&assembled(&mut fast), &assembled(&mut reference));
        }
    }

    #[test]
    fn repeated_analysis_is_deterministic() {
        let x = noise(960, 11);
        let y = fractional_delay(&x, 2.5, 16);
        let frames = [[x.clone(), y.clone()], [y, x]];
        let run = || {
            let mut a = FrameAnalyzer::new(2, 960, 13, 48_000.0).unwrap();
            for frame in &frames {
                a.analyze(frame).unwrap();
            }
            assembled(&mut a)
        };
        let first = run();
        for _ in 0..3 {
            assert_bits_eq(&run(), &first);
        }
    }

    /// Analyzes `frames` with `a` and returns a lag-domain oracle: every
    /// pair's per-frame GCC-PHAT window from the raw spectra of the same
    /// frames (the per-pair reference kernel, one inverse per pair and
    /// frame), summed over frames — what the analyzer computed before it
    /// whitened per channel and accumulated in the frequency domain.
    fn lag_domain_oracle(a: &mut FrameAnalyzer, frames: &[Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
        let w = 2 * a.max_lag() + 1;
        let mut stft = StftProcessor::with_n_fft(a.frame_len(), a.n_fft(), Window::Hann);
        let plan = fft::rfft_plan(a.n_fft());
        let mut spectra = vec![vec![Complex::ZERO; plan.onesided_len()]; a.channels()];
        let mut scratch = SpectraGccScratch::new();
        let mut window = vec![0.0; w];
        let mut pair_sums = vec![vec![0.0; w]; a.pairs().len()];
        for frame in frames {
            a.analyze(frame).unwrap();
            for (spec, c) in spectra.iter_mut().zip(frame) {
                stft.process_into(c, spec);
            }
            for (p, &(i, j)) in a.pairs.iter().enumerate() {
                gcc_phat_from_spectra_into_mode(
                    &spectra[i],
                    &spectra[j],
                    &plan,
                    a.max_lag,
                    &mut scratch,
                    &mut window,
                    QuantMode::Reference,
                );
                for (acc, v) in pair_sums[p].iter_mut().zip(&window) {
                    *acc += v;
                }
            }
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
