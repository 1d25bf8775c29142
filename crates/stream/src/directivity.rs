//! Incremental speech-directivity evidence: a Welch-style running average
//! of long channel-mean magnitude spectra.
//!
//! The §III-B3 directivity features (HLBR and the 100–400 Hz low-band
//! chunk statistics) need *fine* spectral resolution — 20 chunks across a
//! 300 Hz band is 15 Hz per chunk, and the statistics inside each chunk
//! only carry information when the analysis window resolves the voice's
//! harmonic structure. A 20 ms analysis frame (≈100 Hz rectangular-window
//! resolution) cannot do that, so the directivity evidence accumulates
//! here over much longer segments than the per-frame SRP/GCC analysis:
//! non-overlapping, unweighted (rectangular) segments of the channel-mean
//! signal, each transformed once by the segment plan's
//! [`forward_into`](RealFftPlan::forward_into) and summed per bin.
//! Construction sizes every buffer, the FFT scratch included, and runs no
//! transform, so pushing and flushing never allocate.
//!
//! The spectrum is band-limited to what the features read: every
//! transform, magnitude sum and flushed [`Spectrum`] stops at
//! [`directivity_bins`] of its grid, the bin nearest 4 kHz (2,732 of the
//! 16,385 one-sided bins of the 32,768-point segment grid at 48 kHz). The
//! kept bins are computed exactly as a full-spectrum pass computes them,
//! so the features' bits do not depend on the cut.
//!
//! The accumulator is chunking-independent by construction: samples fill
//! the segment buffer by absolute index, so any split of the capture into
//! push calls produces the same segment boundaries, the same FFT inputs,
//! and bit-identical averaged magnitudes.
//!
//! Flushing is adaptive, and every flush runs at most one FFT, over the
//! partial segment the accumulator holds at that moment. When no segment
//! has completed yet — the common case for sub-second serving captures
//! against a 32k-sample Welch segment — the partial tail is transformed
//! at the next power of two ≥ its own length (floored at
//! [`MIN_PARTIAL_N_FFT`] so the 100–400 Hz chunk statistics stay
//! resolved), not zero-padded to the full segment: the produced
//! [`Spectrum`] carries its own `n_fft` so the band helpers read the same
//! underlying DTFT on a coarser grid at a fraction of the transform cost.

use crate::error::StreamError;
use ht_dsp::complex::Complex;
use ht_dsp::fft::{rfft_plan, RealFftPlan, RealFftScratch};
use ht_dsp::spectrum::{directivity_bins, Spectrum};
use std::sync::Arc;

/// Resolution floor for the adaptive short-capture flush: at 48 kHz a
/// 4096-point grid gives ≈11.7 Hz bins, enough to keep every 15 Hz
/// low-band chunk populated. Captures whose next power of two is at
/// least the segment FFT length use the full segment grid (bit-identical
/// to the historical full-pad flush), so this floor only engages for
/// genuinely short captures.
pub const MIN_PARTIAL_N_FFT: usize = 4096;

/// Running channel-mean spectrum accumulator for the directivity features.
#[derive(Debug, Clone)]
pub struct DirectivityAccum {
    channels: usize,
    seg_len: usize,
    /// Plan for the segment FFT length (the full-resolution grid).
    plan: Arc<RealFftPlan>,
    /// Channel-mean samples of the segment currently being filled
    /// (`len() < seg_len` between pushes).
    buf: Vec<f64>,
    /// FFT output for completed and flushed segments: the
    /// [`directivity_bins`] of the segment grid.
    bins: Vec<Complex>,
    /// Running per-bin magnitude sums over completed segments, over the
    /// same bins.
    mag_accum: Vec<f64>,
    /// Completed (full-length) segments accumulated.
    segments: u64,
    /// Reused facade over the averaged magnitudes so callers can use the
    /// batch `hlbr`/chunk-stats helpers without allocating.
    spectrum: Spectrum,
    /// FFT scratch for every transform, presized to the segment plan so
    /// no flush grid can grow it.
    scratch: RealFftScratch,
}

impl DirectivityAccum {
    /// Builds an accumulator for `channels`-channel audio at `sample_rate`,
    /// averaging spectra over non-overlapping `seg_len`-sample segments of
    /// the channel mean.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::BadGeometry`] for zero channels, a zero
    /// segment length, or a non-positive sample rate.
    pub fn new(
        channels: usize,
        seg_len: usize,
        sample_rate: f64,
    ) -> Result<DirectivityAccum, StreamError> {
        if channels == 0 {
            return Err(StreamError::BadGeometry(
                "directivity accumulator needs at least one channel".into(),
            ));
        }
        if seg_len == 0 {
            return Err(StreamError::BadGeometry(
                "directivity segment length must be positive".into(),
            ));
        }
        if sample_rate <= 0.0 || !sample_rate.is_finite() {
            return Err(StreamError::BadGeometry(format!(
                "sample rate must be positive and finite, got {sample_rate}"
            )));
        }
        let plan = rfft_plan(seg_len);
        // The widest kept run of any flush grid: the kept count only grows
        // with the grid, and no grid exceeds the segment plan's.
        let bins = directivity_bins(plan.len(), sample_rate);
        Ok(DirectivityAccum {
            channels,
            seg_len,
            buf: Vec::with_capacity(seg_len),
            bins: vec![Complex::ZERO; bins],
            mag_accum: vec![0.0; bins],
            segments: 0,
            spectrum: Spectrum {
                magnitudes: vec![0.0; bins],
                sample_rate,
                n_fft: plan.len(),
            },
            // Sized for the largest grid any transform here uses, so the
            // first segment to complete mid-stream and every flush grid
            // allocate nothing.
            scratch: plan.scratch(),
            plan,
        })
    }

    /// Ingests one chunk (`channels` equally long sample slices), folding
    /// the per-sample channel mean into the current segment and
    /// transforming every segment that completes. Allocation-free after
    /// construction; amortized one FFT per `seg_len` samples.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::ChannelCountChanged`] /
    /// [`StreamError::RaggedChunk`] for a chunk of the wrong shape (the
    /// accumulator state is untouched).
    pub fn push(&mut self, chunk: &[&[f64]]) -> Result<(), StreamError> {
        if chunk.len() != self.channels {
            return Err(StreamError::ChannelCountChanged {
                expected: self.channels,
                got: chunk.len(),
            });
        }
        let len = chunk[0].len();
        if let Some(other) = chunk.iter().find(|c| c.len() != len) {
            return Err(StreamError::RaggedChunk {
                first: len,
                other: other.len(),
            });
        }
        let n = self.channels as f64;
        let mut pos = 0;
        while pos < len {
            // The run of samples up to the chunk's end or the segment
            // boundary, whichever comes first: each sample's mean is
            // `(0.0 + c₀ + c₁ + …) / n`, summed channel by channel.
            let start = self.buf.len();
            let take = (self.seg_len - start).min(len - pos);
            self.buf.resize(start + take, 0.0);
            let run = &mut self.buf[start..];
            for c in chunk {
                for (m, s) in run.iter_mut().zip(&c[pos..pos + take]) {
                    *m += s;
                }
            }
            for m in run.iter_mut() {
                *m /= n;
            }
            pos += take;
            if self.buf.len() == self.seg_len {
                let _span = ht_obs::span("stream.directivity");
                self.plan
                    .forward_into(&self.buf, &mut self.bins, &mut self.scratch);
                for (acc, z) in self.mag_accum.iter_mut().zip(&self.bins) {
                    *acc += z.abs();
                }
                self.segments += 1;
                self.buf.clear();
            }
        }
        Ok(())
    }

    /// Assembles the averaged magnitude spectrum over every completed
    /// segment *plus* the current partial segment (zero-padded), so short
    /// captures — down to a single sample — still yield directivity
    /// evidence. Non-destructive and idempotent: more audio may be pushed
    /// afterwards, and a repeat call returns the same bits. Each call runs
    /// at most one forward FFT, over the partial segment; averaging
    /// completed segments runs none.
    ///
    /// While no segment has completed, the flush is the whole-capture
    /// magnitude spectrum at `next_pow2(capture_len)` resolution (floored
    /// at [`MIN_PARTIAL_N_FFT`], capped at the segment FFT length) —
    /// exactly the leading bins of what [`Spectrum::of`] computes for the
    /// batch Fig. 3 analysis — instead of a full-segment zero-pad. The
    /// coarser grid samples the *same* DTFT, so band statistics agree with
    /// the full-pad flush at every shared frequency, for a fraction of the
    /// transform cost. Once a segment completes, the full-grid Welch
    /// average is bit-for-bit unchanged.
    ///
    /// The spectrum stops at the features' band: `magnitudes` holds the
    /// leading [`directivity_bins`]`(n_fft, sample_rate)` bins, through the
    /// bin nearest 4 kHz, while `n_fft` stays the grid length, so
    /// [`Spectrum::bin_to_hz`] and [`Spectrum::band`] map as on the full
    /// spectrum.
    ///
    /// Returns `None` when no sample has been pushed at all.
    pub fn flush_spectrum(&mut self) -> Option<&Spectrum> {
        let partial = self.buf.len();
        if self.segments == 0 && partial == 0 {
            return None;
        }
        let _span = ht_obs::span("stream.directivity");
        if self.segments == 0 {
            // Short capture: one transform at the capture's own grid.
            let m = ht_dsp::fft::next_pow2(partial)
                .max(MIN_PARTIAL_N_FFT)
                .min(self.plan.len());
            let kept = directivity_bins(m, self.spectrum.sample_rate);
            rfft_plan(m).forward_into(&self.buf, &mut self.bins[..kept], &mut self.scratch);
            self.spectrum.magnitudes.resize(kept, 0.0);
            for (mag, z) in self.spectrum.magnitudes.iter_mut().zip(&self.bins) {
                *mag = z.abs();
            }
            self.spectrum.n_fft = m;
        } else {
            self.spectrum.magnitudes.resize(self.mag_accum.len(), 0.0);
            self.spectrum.n_fft = self.plan.len();
            let mut total = self.segments as f64;
            if partial > 0 {
                total += 1.0;
                // `forward_into` zero-pads the partial segment itself.
                self.plan
                    .forward_into(&self.buf, &mut self.bins, &mut self.scratch);
                for ((m, acc), z) in self
                    .spectrum
                    .magnitudes
                    .iter_mut()
                    .zip(&self.mag_accum)
                    .zip(&self.bins)
                {
                    *m = (acc + z.abs()) / total;
                }
            } else {
                for (m, acc) in self.spectrum.magnitudes.iter_mut().zip(&self.mag_accum) {
                    *m = acc / total;
                }
            }
        }
        Some(&self.spectrum)
    }

    /// The configured channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The segment length in samples.
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// Completed (full-length) segments accumulated so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Samples folded into the current partial segment.
    pub fn pending_samples(&self) -> usize {
        self.buf.len()
    }

    /// Clears all accumulated evidence while keeping every buffer at
    /// capacity, so a pooled session can reuse the accumulator with no
    /// allocations and bit-identical results to a fresh one.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.mag_accum.fill(0.0);
        self.segments = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn chunking_does_not_change_the_spectrum() {
        let x = noise(5000, 9);
        let y = noise(5000, 11);
        for chunk in [1usize, 7, 480, 1024, 6000] {
            let mut whole = DirectivityAccum::new(2, 1024, 48_000.0).unwrap();
            whole.push(&[&x, &y]).unwrap();
            let reference = whole.flush_spectrum().unwrap().clone();

            let mut split = DirectivityAccum::new(2, 1024, 48_000.0).unwrap();
            let mut pos = 0;
            while pos < x.len() {
                let end = (pos + chunk).min(x.len());
                split.push(&[&x[pos..end], &y[pos..end]]).unwrap();
                pos = end;
            }
            let got = split.flush_spectrum().unwrap();
            assert_eq!(got.magnitudes.len(), reference.magnitudes.len());
            for (g, r) in got.magnitudes.iter().zip(&reference.magnitudes) {
                assert_eq!(g.to_bits(), r.to_bits(), "chunk {chunk}");
            }
        }
    }

    #[test]
    fn short_capture_matches_zero_padded_whole_capture_fft() {
        // One partial segment: the flushed spectrum is the plain magnitude
        // spectrum of the zero-padded capture mean.
        let x = noise(300, 3);
        let mut acc = DirectivityAccum::new(1, 1024, 48_000.0).unwrap();
        acc.push(&[&x]).unwrap();
        assert_eq!(acc.segments(), 0);
        assert_eq!(acc.pending_samples(), 300);
        let got = acc.flush_spectrum().unwrap().clone();
        let mut padded = x.clone();
        padded.resize(1024, 0.0);
        let reference = ht_dsp::fft::rfft_magnitude(&padded);
        assert_eq!(got.magnitudes.len(), directivity_bins(1024, 48_000.0));
        for (g, r) in got.magnitudes.iter().zip(&reference) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn flush_is_non_destructive_and_idempotent() {
        let x = noise(2500, 21);
        let mut acc = DirectivityAccum::new(1, 1024, 48_000.0).unwrap();
        acc.push(&[&x[..1500]]).unwrap();
        let first = acc.flush_spectrum().unwrap().clone();
        let again = acc.flush_spectrum().unwrap().clone();
        assert_eq!(first, again);

        // Continue pushing after a flush: same as never having flushed.
        acc.push(&[&x[1500..]]).unwrap();
        let streamed = acc.flush_spectrum().unwrap().clone();
        let mut fresh = DirectivityAccum::new(1, 1024, 48_000.0).unwrap();
        fresh.push(&[&x]).unwrap();
        let reference = fresh.flush_spectrum().unwrap();
        for (s, r) in streamed.magnitudes.iter().zip(&reference.magnitudes) {
            assert_eq!(s.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn empty_accumulator_has_no_spectrum_and_reset_matches_fresh() {
        let mut acc = DirectivityAccum::new(2, 512, 48_000.0).unwrap();
        assert!(acc.flush_spectrum().is_none());

        let x = noise(700, 5);
        let y = noise(700, 6);
        acc.push(&[&x, &y]).unwrap();
        let first = acc.flush_spectrum().unwrap().clone();

        // Pollute with different audio, reset, replay: identical bits.
        acc.push(&[&y, &x]).unwrap();
        acc.reset();
        assert!(acc.flush_spectrum().is_none());
        acc.push(&[&x, &y]).unwrap();
        let again = acc.flush_spectrum().unwrap();
        for (f, a) in first.magnitudes.iter().zip(&again.magnitudes) {
            assert_eq!(f.to_bits(), a.to_bits());
        }
    }

    #[test]
    fn all_silent_capture_flushes_the_exact_zero_spectrum_idempotently() {
        // A soft-muted microphone delivers exact zeros: every segment (and
        // the zero-padded partial) transforms to the zero spectrum, so the
        // documented result is exactly-zero magnitudes — not a partial
        // window, not NaN — and repeated flushes return the same bits.
        for len in [1usize, 100, 512, 700, 2048] {
            let z = vec![0.0; len];
            let mut acc = DirectivityAccum::new(2, 512, 48_000.0).unwrap();
            acc.push(&[&z, &z]).unwrap();
            for round in 0..3 {
                let spec = acc.flush_spectrum().unwrap().clone();
                assert!(
                    spec.magnitudes.iter().all(|&m| m == 0.0),
                    "len {len} round {round}: non-zero magnitude"
                );
            }
            // Still ingesting after the flushes: state was untouched.
            acc.push(&[&z, &z]).unwrap();
            assert!(acc
                .flush_spectrum()
                .unwrap()
                .magnitudes
                .iter()
                .all(|&m| m == 0.0));
        }
    }

    #[test]
    fn short_capture_flush_property() {
        // Property (alongside the non-destructive-flush pin): for any
        // capture shorter than one Welch segment, pushed in any chunking,
        // the flush is the zero-padded whole-capture spectrum — never a
        // partial window — and flushing is idempotent.
        ht_dsp::check::property("directivity_short_capture_flush")
            .cases(40)
            .run(|g| {
                let seg_len = *g.choose(&[256usize, 512, 1024]);
                let len = g.usize_in(1..seg_len);
                let x = g.vec_f64(-1.0..1.0, len..len + 1);
                let mut acc = DirectivityAccum::new(1, seg_len, 48_000.0).unwrap();
                let mut pos = 0;
                while pos < len {
                    let end = (pos + g.usize_in(1..len + 1)).min(len);
                    acc.push(&[&x[pos..end]]).unwrap();
                    pos = end;
                }
                assert_eq!(acc.segments(), 0, "capture shorter than one segment");
                let first = acc.flush_spectrum().unwrap().clone();
                let again = acc.flush_spectrum().unwrap().clone();
                assert_eq!(first, again, "flush must be idempotent");
                let n_fft = ht_dsp::fft::next_pow2(seg_len);
                let mut padded = x.clone();
                padded.resize(n_fft, 0.0);
                let reference = ht_dsp::fft::rfft_magnitude(&padded);
                assert_eq!(first.magnitudes.len(), directivity_bins(n_fft, 48_000.0));
                for (f, r) in first.magnitudes.iter().zip(&reference) {
                    assert_eq!(f.to_bits(), r.to_bits(), "partial-window leak");
                }
            });
    }

    #[test]
    fn complete_segment_flush_performs_no_fft_and_caches() {
        // With no partial segment the flush only averages the per-segment
        // magnitudes summed at push time, so repeat flushes agree.
        let x = noise(2048, 41);
        let mut acc = DirectivityAccum::new(1, 1024, 48_000.0).unwrap();
        acc.push(&[&x]).unwrap();
        assert_eq!(acc.segments(), 2);
        assert_eq!(acc.pending_samples(), 0);
        let first = acc.flush_spectrum().unwrap().clone();
        let again = acc.flush_spectrum().unwrap().clone();
        assert_eq!(first, again);
        let a = ht_dsp::fft::rfft_magnitude(&x[..1024]);
        let b = ht_dsp::fft::rfft_magnitude(&x[1024..]);
        assert_eq!(first.magnitudes.len(), directivity_bins(1024, 48_000.0));
        for ((f, a), b) in first.magnitudes.iter().zip(&a).zip(&b) {
            assert_eq!(f.to_bits(), ((a + b) / 2.0).to_bits());
        }
    }

    #[test]
    fn short_capture_against_large_segment_uses_adaptive_grid() {
        // A 4800-sample capture against a 32k Welch segment (the serving
        // shape) transforms at next_pow2(4800) = 8192 — the whole-capture
        // spectrum `Spectrum::of` computes — not the full 32k pad.
        let x = noise(4800, 5);
        let mut acc = DirectivityAccum::new(1, 32_768, 48_000.0).unwrap();
        acc.push(&[&x]).unwrap();
        let got = acc.flush_spectrum().unwrap().clone();
        assert_eq!(got.n_fft, 8192);
        assert_eq!(got.magnitudes.len(), directivity_bins(8192, 48_000.0));
        let reference = ht_dsp::fft::rfft_magnitude(&x);
        for (g, r) in got.magnitudes.iter().zip(&reference) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn tiny_capture_flush_floors_at_min_partial_n_fft() {
        let x = noise(10, 3);
        let mut acc = DirectivityAccum::new(1, 32_768, 48_000.0).unwrap();
        acc.push(&[&x]).unwrap();
        let got = acc.flush_spectrum().unwrap().clone();
        assert_eq!(got.n_fft, MIN_PARTIAL_N_FFT);
        let mut padded = x.clone();
        padded.resize(MIN_PARTIAL_N_FFT, 0.0);
        let reference = ht_dsp::fft::rfft_magnitude(&padded);
        for (g, r) in got.magnitudes.iter().zip(&reference) {
            assert_eq!(g.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn adaptive_grid_samples_the_full_pad_dtft() {
        // The coarse M-point grid samples the same DTFT as the historical
        // full-segment zero-pad at every (n_fft / M)-th bin: the grid
        // change trades resolution, never accuracy.
        let x = noise(4800, 21);
        let mut acc = DirectivityAccum::new(1, 32_768, 48_000.0).unwrap();
        acc.push(&[&x]).unwrap();
        let got = acc.flush_spectrum().unwrap().clone();
        assert_eq!(got.n_fft, 8192);
        let mut padded = x.clone();
        padded.resize(32_768, 0.0);
        let full = ht_dsp::fft::rfft_magnitude(&padded);
        let stride = 32_768 / got.n_fft;
        for (k, g) in got.magnitudes.iter().enumerate() {
            let r = full[k * stride];
            assert!(
                (g - r).abs() <= 1e-9 * r.abs().max(1.0),
                "bin {k}: {g} vs {r}"
            );
        }
    }

    #[test]
    fn adaptive_flush_is_non_destructive_across_the_grid_transition() {
        // Flushing on the adaptive grid, then streaming past the segment
        // boundary, must yield the same full-grid Welch average as never
        // having flushed.
        let x = noise(40_000, 31);
        let mut acc = DirectivityAccum::new(1, 32_768, 48_000.0).unwrap();
        acc.push(&[&x[..4800]]).unwrap();
        assert_eq!(acc.flush_spectrum().unwrap().n_fft, 8192);
        acc.push(&[&x[4800..]]).unwrap();
        let streamed = acc.flush_spectrum().unwrap().clone();
        assert_eq!(
            streamed.n_fft, 32_768,
            "full grid returns with the first segment"
        );

        let mut fresh = DirectivityAccum::new(1, 32_768, 48_000.0).unwrap();
        fresh.push(&[&x]).unwrap();
        let reference = fresh.flush_spectrum().unwrap();
        assert_eq!(streamed.magnitudes.len(), reference.magnitudes.len());
        for (s, r) in streamed.magnitudes.iter().zip(&reference.magnitudes) {
            assert_eq!(s.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn cached_flush_interleaving_property() {
        // Property: for any chunking with flushes interleaved at random
        // points, the final spectrum is bit-identical to a single-push
        // fresh accumulator, every interleaved double flush returns the
        // same bits, and flushing never perturbs later evidence.
        ht_dsp::check::property("directivity_cached_flush_interleaving")
            .cases(30)
            .run(|g| {
                let seg_len = *g.choose(&[512usize, 1024, 8192]);
                let len = g.usize_in(1..3 * seg_len);
                let x = g.vec_f64(-1.0..1.0, len..len + 1);
                let mut acc = DirectivityAccum::new(1, seg_len, 48_000.0).unwrap();
                let mut pos = 0;
                while pos < len {
                    let end = (pos + g.usize_in(1..len + 1)).min(len);
                    acc.push(&[&x[pos..end]]).unwrap();
                    pos = end;
                    if g.usize_in(0..3) == 0 {
                        let first = acc.flush_spectrum().unwrap().clone();
                        let again = acc.flush_spectrum().unwrap();
                        assert_eq!(&first, again, "repeat flush must be bit-stable");
                    }
                }
                let streamed = acc.flush_spectrum().unwrap().clone();
                let mut fresh = DirectivityAccum::new(1, seg_len, 48_000.0).unwrap();
                fresh.push(&[&x]).unwrap();
                let reference = fresh.flush_spectrum().unwrap();
                assert_eq!(streamed.n_fft, reference.n_fft);
                assert_eq!(streamed.magnitudes.len(), reference.magnitudes.len());
                for (s, r) in streamed.magnitudes.iter().zip(&reference.magnitudes) {
                    assert_eq!(s.to_bits(), r.to_bits());
                }
            });
    }

    /// The full-length oracle for a `channels`-channel capture: the
    /// channel mean, split into `seg_len`-sample segments, each segment's
    /// whole one-sided `rfft_magnitude` summed in order, plus the
    /// zero-padded partial, then averaged — or, with no complete segment,
    /// the whole capture's spectrum on the adaptive grid.
    fn welch_oracle(capture: &[Vec<f64>], seg_len: usize) -> Spectrum {
        let n = capture.len() as f64;
        let mean: Vec<f64> = (0..capture[0].len())
            .map(|i| capture.iter().fold(0.0, |m, c| m + c[i]) / n)
            .collect();
        let segment_grid = ht_dsp::fft::next_pow2(seg_len);
        let padded_magnitudes = |x: &[f64], n_fft: usize| {
            let mut padded = x.to_vec();
            padded.resize(n_fft, 0.0);
            ht_dsp::fft::rfft_magnitude(&padded)
        };
        if mean.len() < seg_len {
            let n_fft = ht_dsp::fft::next_pow2(mean.len())
                .max(MIN_PARTIAL_N_FFT)
                .min(segment_grid);
            return Spectrum {
                magnitudes: padded_magnitudes(&mean, n_fft),
                sample_rate: 48_000.0,
                n_fft,
            };
        }
        // `chunks` ends with the partial segment, if any.
        let mut sum = vec![0.0; segment_grid / 2 + 1];
        let mut total = 0.0;
        for seg in mean.chunks(seg_len) {
            for (s, m) in sum.iter_mut().zip(padded_magnitudes(seg, segment_grid)) {
                *s += m;
            }
            total += 1.0;
        }
        Spectrum {
            magnitudes: sum.iter().map(|s| s / total).collect(),
            sample_rate: 48_000.0,
            n_fft: segment_grid,
        }
    }

    #[test]
    fn flushed_features_equal_the_full_spectrum_oracle() {
        use ht_dsp::spectrum::{hlbr, push_low_band_chunk_stats};
        // Around one and two segments, at the serving segment length and a
        // short one: the band-limited flush must give the full-length
        // oracle's HLBR and chunk statistics bit for bit, and its kept bins.
        for seg_len in [1024usize, 32_768] {
            for len in [
                seg_len - 1,
                seg_len,
                seg_len + 1,
                2 * seg_len - 1,
                2 * seg_len,
                2 * seg_len + 1,
            ] {
                let capture = vec![noise(len, 61), noise(len, 62)];
                let mut acc = DirectivityAccum::new(2, seg_len, 48_000.0).unwrap();
                let views: Vec<&[f64]> = capture.iter().map(Vec::as_slice).collect();
                acc.push(&views).unwrap();
                let got = acc.flush_spectrum().unwrap().clone();
                let want = welch_oracle(&capture, seg_len);
                let at = format!("segment {seg_len}, {len} samples");
                assert_eq!(got.n_fft, want.n_fft, "{at}");
                assert_eq!(
                    got.magnitudes.len(),
                    directivity_bins(want.n_fft, 48_000.0),
                    "{at}"
                );
                for (k, (g, w)) in got.magnitudes.iter().zip(&want.magnitudes).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{at}: bin {k}");
                }
                assert_eq!(hlbr(&got).to_bits(), hlbr(&want).to_bits(), "{at}: HLBR");
                let (mut g, mut w) = (Vec::new(), Vec::new());
                push_low_band_chunk_stats(&got, 20, &mut g);
                push_low_band_chunk_stats(&want, 20, &mut w);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&g), bits(&w), "{at}: chunk statistics");
            }
        }
    }

    #[test]
    fn bad_shapes_are_rejected_without_state_damage() {
        let mut acc = DirectivityAccum::new(2, 256, 48_000.0).unwrap();
        let x = noise(100, 1);
        assert!(matches!(
            acc.push(&[&x]),
            Err(StreamError::ChannelCountChanged {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            acc.push(&[&x, &x[..50]]),
            Err(StreamError::RaggedChunk { .. })
        ));
        assert_eq!(acc.pending_samples(), 0);
        acc.push(&[&x, &x]).unwrap();
        assert_eq!(acc.pending_samples(), 100);
    }

    #[test]
    fn geometry_validation() {
        assert!(DirectivityAccum::new(0, 256, 48_000.0).is_err());
        assert!(DirectivityAccum::new(2, 0, 48_000.0).is_err());
        assert!(DirectivityAccum::new(2, 256, 0.0).is_err());
        assert!(DirectivityAccum::new(2, 256, f64::NAN).is_err());
    }
}
