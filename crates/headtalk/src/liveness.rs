//! Liveness detection: human vs. mechanical speaker (§III-A).
//!
//! The paper fine-tunes wav2vec2 on ASVspoof 2019 and then incrementally
//! adapts it to its own Sony-speaker replays. The reproduction's
//! "wav2vec2-mini" network (see [`ht_ml::nn`]) keeps the same input
//! contract — raw 16 kHz audio, zero mean / unit variance — and the same
//! adaptation protocol ([`LivenessDetector::adapt`]).

use crate::HeadTalkError;
use ht_dsp::QuantMode;
use ht_ml::dataset::Dataset;
use ht_ml::nn::{NeuralNet, NeuralNetConfig};
use ht_ml::quant::QuantizedNet;
use ht_ml::Classifier;

/// Labels used by the liveness task.
pub const LIVE_HUMAN: usize = 1;
/// Label for loudspeaker-replayed audio.
pub const REPLAYED: usize = 0;

/// Prepares 16 kHz audio for the liveness network (the wav2vec2 input
/// contract): center-crop or zero-pad it to `target_len` into `out`
/// (cleared first), guard against zero variance, and z-score in place.
/// Allocation-free once `out` has capacity — evidence assembly calls this
/// on a reused scratch buffer with the decimated channel-0 samples it
/// accumulated.
///
/// # Errors
///
/// Returns [`HeadTalkError::InvalidInput`] for silent or DC-only audio:
/// after cropping, such a capture has (numerically) zero variance, so
/// z-scoring would hand the network an all-zero — or
/// rounding-noise-amplified — input instead of an utterance.
pub fn prepare_decimated_into(
    x16k: &[f64],
    target_len: usize,
    out: &mut Vec<f64>,
) -> Result<(), HeadTalkError> {
    let _span = ht_obs::span("wake.liveness_prepare");
    out.clear();
    match x16k.len().cmp(&target_len) {
        std::cmp::Ordering::Greater => {
            let start = (x16k.len() - target_len) / 2;
            out.extend_from_slice(&x16k[start..start + target_len]);
        }
        std::cmp::Ordering::Less => {
            out.extend_from_slice(x16k);
            out.resize(target_len, 0.0);
        }
        std::cmp::Ordering::Equal => out.extend_from_slice(x16k),
    }
    // Zero-variance guard, relative to the DC level so a constant capture
    // whose cropped window differs from its mean only by float rounding is
    // still caught (an exact `== 0.0` would miss it).
    let mean = ht_dsp::stats::mean(out);
    let var = ht_dsp::stats::variance(out);
    if var <= 1e-20 * (1.0 + mean * mean) {
        return Err(HeadTalkError::InvalidInput(format!(
            "zero-variance liveness input after resampling (mean {mean:.3e}): \
             silent or DC-only audio is not a classifiable utterance"
        )));
    }
    ht_dsp::signal::normalize_zscore(out);
    Ok(())
}

/// A trained liveness detector.
#[derive(Debug, Clone)]
pub struct LivenessDetector {
    net: NeuralNet,
    input_len: usize,
    /// Int8 backend, built offline by [`LivenessDetector::calibrate_int8`].
    /// `None` until calibrated; the f64 net above stays the byte-stable
    /// reference either way.
    quantized: Option<QuantizedNet>,
}

impl LivenessDetector {
    /// Trains on a dataset of *prepared* inputs (see
    /// [`HeadTalk::liveness_input`](crate::HeadTalk::liveness_input))
    /// labeled [`LIVE_HUMAN`] / [`REPLAYED`]. A pipeline accepts the
    /// detector only when the dataset's width is the configuration's
    /// [`liveness_input_len`](crate::PipelineConfig::liveness_input_len).
    ///
    /// # Errors
    ///
    /// Propagates network-training errors.
    pub fn fit(ds: &Dataset, epochs: usize, seed: u64) -> Result<LivenessDetector, HeadTalkError> {
        let mut config = NeuralNetConfig::wav2vec2_mini();
        config.epochs = epochs;
        config.seed = seed;
        Self::fit_with_config(ds, &config)
    }

    /// Trains with an explicit network configuration (smaller encoders for
    /// short inputs, ablations, …).
    ///
    /// # Errors
    ///
    /// Propagates network-training errors.
    pub fn fit_with_config(
        ds: &Dataset,
        config: &NeuralNetConfig,
    ) -> Result<LivenessDetector, HeadTalkError> {
        let net = NeuralNet::fit(ds, config)?;
        Ok(LivenessDetector {
            net,
            input_len: ds.dim(),
            quantized: None,
        })
    }

    /// The incremental adaptation protocol of §IV-A1: continue training on a
    /// (small) new labeled dataset for a few epochs. The paper recovers from
    /// 84.87 % to 98.68 % accuracy with 20 % new data and 10 epochs.
    ///
    /// # Errors
    ///
    /// Propagates network errors (e.g. input-length mismatch).
    pub fn adapt(&mut self, new_data: &Dataset, epochs: usize) -> Result<(), HeadTalkError> {
        self.net.fit_more(new_data, epochs)?;
        // The weights moved: any calibrated scales are stale. Drop the int8
        // backend; callers recalibrate when they re-enable it.
        self.quantized = None;
        Ok(())
    }

    /// Builds the int8 inference backend from *prepared* calibration inputs
    /// (the same representation the detector scores — see
    /// [`HeadTalk::liveness_input`](crate::HeadTalk::liveness_input)). The
    /// f64 network is untouched.
    ///
    /// # Errors
    ///
    /// Propagates [`HeadTalkError::Ml`] for an empty calibration set or
    /// rows of the wrong width.
    pub fn calibrate_int8(&mut self, calib: &[&[f64]]) -> Result<(), HeadTalkError> {
        self.quantized = Some(QuantizedNet::from_net(&self.net, calib)?);
        Ok(())
    }

    /// Probability that a prepared input is live human speech:
    /// [`QuantMode::Int8`] runs the quantized backend when calibrated and
    /// falls back to the byte-stable f64 reference otherwise.
    pub fn live_probability_mode(&self, prepared: &[f64], mode: QuantMode) -> f64 {
        match (&self.quantized, mode) {
            (Some(q), QuantMode::Int8) => q.predict_proba(prepared),
            _ => self.net.predict_proba(prepared),
        }
    }

    /// The expected prepared-input length.
    pub fn input_len(&self) -> usize {
        self.input_len
    }
}

impl Classifier for LivenessDetector {
    fn predict(&self, x: &[f64]) -> usize {
        self.net.predict(x)
    }

    fn decision_score(&self, x: &[f64]) -> f64 {
        self.net.decision_score(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::rng::StdRng;
    use ht_dsp::rng::{Rng, SeedableRng};
    use ht_ml::nn::{ConvSpec, NeuralNetConfig};

    /// A miniature encoder that fits the short unit-test inputs (the real
    /// `wav2vec2_mini` stack needs ≥ ~1000-sample inputs).
    fn tiny_fit(ds: &Dataset, epochs: usize, seed: u64) -> LivenessDetector {
        let config = NeuralNetConfig {
            conv: vec![
                ConvSpec {
                    out_channels: 4,
                    kernel: 8,
                    stride: 4,
                },
                ConvSpec {
                    out_channels: 8,
                    kernel: 4,
                    stride: 2,
                },
            ],
            hidden: vec![8],
            learning_rate: 5e-3,
            epochs,
            batch: 8,
            seed,
        };
        LivenessDetector::fit_with_config(ds, &config).unwrap()
    }

    /// Miniature live-vs-replayed corpus: "live" has a high-frequency
    /// component, "replayed" is low-passed — the Fig. 3 signature scaled to
    /// a unit test.
    fn corpus(n_per: usize, seed: u64, len: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(len);
        for _ in 0..n_per {
            let live: Vec<f64> = (0..len)
                .map(|t| {
                    (t as f64 * 0.3).sin()
                        + 0.5 * (t as f64 * 2.8).sin()
                        + 0.1 * ht_dsp::rng::gaussian(&mut rng)
                })
                .collect();
            let mut live = live;
            ht_dsp::signal::normalize_zscore(&mut live);
            ds.push(live, LIVE_HUMAN).unwrap();
            let phase: f64 = rng.gen::<f64>() * 6.3;
            let replayed: Vec<f64> = (0..len)
                .map(|t| (t as f64 * 0.3 + phase).sin() + 0.1 * ht_dsp::rng::gaussian(&mut rng))
                .collect();
            let mut replayed = replayed;
            ht_dsp::signal::normalize_zscore(&mut replayed);
            ds.push(replayed, REPLAYED).unwrap();
        }
        ds
    }

    fn prepare(x16k: &[f64], target_len: usize) -> Result<Vec<f64>, HeadTalkError> {
        let mut out = Vec::new();
        prepare_decimated_into(x16k, target_len, &mut out)?;
        Ok(out)
    }

    #[test]
    fn prepare_input_shapes_and_normalizes() {
        let audio = ht_dsp::signal::tone(440.0, 16_000.0, 16_000, 0.3);
        let x = prepare(&audio, 8_000).unwrap();
        assert_eq!(x.len(), 8_000);
        let mean = ht_dsp::stats::mean(&x);
        let var = ht_dsp::stats::variance(&x);
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-6);
        // Short audio is padded.
        let short = ht_dsp::signal::tone(440.0, 16_000.0, 2_000, 0.3);
        assert_eq!(prepare(&short, 8_000).unwrap().len(), 8_000);
        assert!(prepare(&[], 8_000).is_err());
    }

    #[test]
    fn silent_and_dc_only_audio_is_rejected() {
        // A soft-muted microphone delivers exact zeros.
        let err = prepare(&vec![0.0; 16_000], 8_000).unwrap_err();
        assert!(err.to_string().contains("zero-variance"), "{err}");
        // A DC offset survives the decimation FIR with rounding-level —
        // not exactly zero — variance; the relative threshold catches it.
        let mut dec = ht_dsp::resample::StreamDecimator::new(3).unwrap();
        let mut dc = Vec::new();
        dec.push(&vec![0.75; 48_000], &mut dc);
        dec.flush_into(&mut dc);
        let err = prepare(&dc, 8_000).unwrap_err();
        assert!(err.to_string().contains("zero-variance"), "{err}");
    }

    #[test]
    fn detector_separates_live_from_replayed() {
        let train = corpus(25, 1, 256);
        let test = corpus(25, 2, 256);
        let det = tiny_fit(&train, 25, 3);
        let preds = det.predict_batch(test.features());
        let acc = ht_ml::metrics::accuracy(test.labels(), &preds);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn probabilities_are_bounded() {
        let train = corpus(10, 4, 256);
        let det = tiny_fit(&train, 5, 5);
        for i in 0..train.len() {
            let p = det.live_probability_mode(train.sample(i).0, QuantMode::Reference);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn adapt_improves_on_shifted_data() {
        let train = corpus(20, 6, 256);
        let mut det = tiny_fit(&train, 15, 7);
        // Shifted corpus: different noise level.
        let shifted = |seed| {
            let base = corpus(20, seed, 256);
            let feats: Vec<Vec<f64>> = base
                .features()
                .iter()
                .map(|f| {
                    let mut v: Vec<f64> = f.iter().map(|x| x * 0.3).collect();
                    ht_dsp::signal::normalize_zscore(&mut v);
                    v
                })
                .collect();
            Dataset::from_parts(feats, base.labels().to_vec()).unwrap()
        };
        let new_train = shifted(8);
        let new_test = shifted(9);
        let before =
            ht_ml::metrics::accuracy(new_test.labels(), &det.predict_batch(new_test.features()));
        det.adapt(&new_train, 10).unwrap();
        let after =
            ht_ml::metrics::accuracy(new_test.labels(), &det.predict_batch(new_test.features()));
        assert!(after >= before - 0.05, "before {before}, after {after}");
    }

    #[test]
    fn input_len_is_remembered() {
        let train = corpus(5, 10, 128);
        let det = tiny_fit(&train, 2, 11);
        assert_eq!(det.input_len(), 128);
    }
}
