//! Orientation feature extraction (§III-B3).
//!
//! From a raw multichannel capture the extractor produces one fixed-width
//! feature vector composed of:
//!
//! * **Speech reverberation** features — the frame-averaged weighted
//!   SRP-PHAT curve's top peaks and statistical summary, plus for every
//!   microphone pair the frame-averaged GCC-PHAT lag window, its TDoA, and
//!   its statistical summary (kurtosis, skewness, max, MAD, std; §III-B3);
//! * **Speech directivity** features — the high/low band ratio (HLBR) and
//!   per-chunk (mean, RMS, std) statistics of the 100–400 Hz low band split
//!   into 20 chunks, computed on the frame-averaged channel-mean spectrum.
//!
//! The extraction is *frame-based*: the capture is cut into the
//! [`PipelineConfig::analysis_frame_geometry`] frames, each frame is
//! analyzed by the streaming engine's [`FrameAnalyzer`], and the vector is
//! assembled from the accumulated Welch-style evidence. This makes the
//! batch extractor and the incremental `WakeStream::finalize` path one
//! code path — the golden/property tests pin them bit-identical for any
//! chunking and any `HT_THREADS`.

use crate::config::PipelineConfig;
use crate::HeadTalkError;
use ht_dsp::{spectrum, QuantMode};
use ht_stream::analyzer::FrameAnalyzer;
use ht_stream::directivity::DirectivityAccum;
use ht_stream::error::StreamError;

/// Computes the width of the feature vector for `n_channels` microphones
/// under a configuration (feature vectors are fixed-width per device).
pub fn feature_width(n_channels: usize, config: &PipelineConfig) -> usize {
    let pairs = n_channels * (n_channels - 1) / 2;
    let window = 2 * config.max_lag + 1;
    // SRP: top peaks + 5 summary stats.
    let srp = config.srp_peaks + 5;
    // Per pair: GCC window + TDoA + 5 summary stats.
    let gcc = pairs * (window + 1 + 5);
    // Directivity: HLBR + chunks × (mean, rms, std).
    let directivity = 1 + 3 * config.low_band_chunks;
    srp + gcc + directivity
}

/// Extracts the §III-B3 feature vector from raw channels by framing the
/// capture with [`PipelineConfig::analysis_frame_geometry`] and running
/// each frame through the streaming [`FrameAnalyzer`]. Any trailing
/// samples past the last complete frame are ignored — the streaming
/// engine holds the same partial frame back, which is one of the two
/// facts behind incremental/batch bit-identity (the other: assembly reads
/// only the accumulated evidence, never the audio). The analyzer whitens
/// with the byte-stable [`QuantMode::Reference`] kernel, the view training
/// and calibration use.
///
/// # Errors
///
/// Returns [`HeadTalkError::InvalidInput`] for fewer than two channels,
/// ragged channels, or a capture too short to hold one complete analysis
/// frame.
pub fn extract(channels: &[Vec<f64>], config: &PipelineConfig) -> Result<Vec<f64>, HeadTalkError> {
    extract_mode(channels, config, QuantMode::Reference)
}

/// [`extract`] with the analyzer's whitening kernel following `quant`,
/// as a [`WakeStream`](crate::WakeStream) of a pipeline in that mode
/// does, so the batch decision path stays bit-identical to the stream.
///
/// # Errors
///
/// As for [`extract`].
pub(crate) fn extract_mode(
    channels: &[Vec<f64>],
    config: &PipelineConfig,
    quant: QuantMode,
) -> Result<Vec<f64>, HeadTalkError> {
    if channels.len() < 2 {
        return Err(HeadTalkError::InvalidInput(format!(
            "orientation features need at least 2 channels, got {}",
            channels.len()
        )));
    }
    let len = channels[0].len();
    if channels.iter().any(|c| c.len() != len) {
        return Err(HeadTalkError::InvalidInput(
            "all channels must share one length".into(),
        ));
    }
    let (frame_len, hop) = config.analysis_frame_geometry();
    if len < frame_len {
        return Err(HeadTalkError::InvalidInput(format!(
            "capture too short for fixed-width features: {len}-sample \
             channels hold no complete {frame_len}-sample analysis frame"
        )));
    }

    let mut analyzer = FrameAnalyzer::new(
        channels.len(),
        frame_len,
        config.max_lag,
        config.sample_rate,
    )
    .map_err(stream_error)?;
    analyzer.set_quant_mode(quant);
    let mut dir = DirectivityAccum::new(
        channels.len(),
        config.directivity_segment_len(),
        config.sample_rate,
    )
    .map_err(stream_error)?;
    let refs: Vec<&[f64]> = channels.iter().map(|c| c.as_slice()).collect();
    dir.push(&refs).map_err(stream_error)?;
    let mut frame: Vec<Vec<f64>> = vec![vec![0.0; frame_len]; channels.len()];
    let mut start = 0;
    while start + frame_len <= len {
        for (dst, c) in frame.iter_mut().zip(channels) {
            dst.copy_from_slice(&c[start..start + frame_len]);
        }
        analyzer.analyze(&frame).map_err(stream_error)?;
        start += hop;
    }

    let mut features = Vec::with_capacity(feature_width(channels.len(), config));
    assemble_into(&mut analyzer, &mut dir, config, &mut features)?;
    Ok(features)
}

/// Assembles the feature vector from the accumulated evidence — the
/// analyzer's SRP/GCC sums followed by the directivity accumulator's
/// averaged spectrum — translating streaming-layer errors into the
/// pipeline's error type. This is the one assembly call both the batch
/// extractor above and the incremental `WakeStream` finalize path go
/// through, which is what makes their features structurally bit-identical.
///
/// # Errors
///
/// Returns [`HeadTalkError::InvalidInput`] when no complete frame has been
/// analyzed (capture shorter than one frame).
pub(crate) fn assemble_into(
    analyzer: &mut FrameAnalyzer,
    dir: &mut DirectivityAccum,
    config: &PipelineConfig,
    out: &mut Vec<f64>,
) -> Result<(), HeadTalkError> {
    let _span = ht_obs::span("wake.feature_extract");
    analyzer
        .assemble_features_into(config.srp_peaks, out)
        .map_err(stream_error)?;
    // ≥1 analyzed frame implies ≥frame_len pushed samples, so the
    // accumulator always has a spectrum here.
    let spec = dir.flush_spectrum().ok_or_else(|| {
        HeadTalkError::InvalidInput("no directivity evidence accumulated: capture is empty".into())
    })?;
    out.push(spectrum::hlbr(spec));
    spectrum::push_low_band_chunk_stats(spec, config.low_band_chunks, out);
    Ok(())
}

/// Maps a streaming-layer error onto the pipeline's error type, keeping
/// the user-facing "capture too short" phrasing for the no-frames case.
fn stream_error(e: StreamError) -> HeadTalkError {
    match e {
        StreamError::NoFrames => HeadTalkError::InvalidInput(
            "capture too short for fixed-width features: no complete \
             analysis frame was accumulated"
                .into(),
        ),
        other => HeadTalkError::InvalidInput(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::rng::SeedableRng;
    use ht_dsp::signal::fractional_delay;

    fn test_channels(n: usize, len: usize) -> Vec<Vec<f64>> {
        let mut rng = ht_dsp::rng::StdRng::seed_from_u64(1);
        let base = ht_dsp::rng::white_noise(&mut rng, len);
        (0..n)
            .map(|k| fractional_delay(&base, k as f64 * 1.5, 16))
            .collect()
    }

    #[test]
    fn width_formula_matches_extraction() {
        let cfg = PipelineConfig::default();
        for n in [2usize, 4, 6] {
            let ch = test_channels(n, 2048);
            let f = extract(&ch, &cfg).unwrap();
            assert_eq!(f.len(), feature_width(n, &cfg), "{n} channels");
        }
    }

    #[test]
    fn paper_gcc_vector_width_for_d2() {
        // §III-B3: for D2 (4 selected mics, ±13 lag) the GCC+TDoA feature
        // is 6×27 + 6 = 168 values.
        let cfg = PipelineConfig::default(); // max_lag 13
        let pairs = 6;
        let window = 27;
        let gcc_part = pairs * (window + 1); // + TDoA
        assert_eq!(gcc_part, 168);
        // The full width adds SRP and directivity features on top.
        assert!(feature_width(4, &cfg) > gcc_part);
    }

    #[test]
    fn features_are_finite() {
        let cfg = PipelineConfig::default();
        let ch = test_channels(4, 4096);
        let f = extract(&ch, &cfg).unwrap();
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn single_channel_is_rejected() {
        let cfg = PipelineConfig::default();
        let ch = test_channels(1, 1024);
        assert!(extract(&ch, &cfg).is_err());
    }

    #[test]
    fn tdoa_features_reflect_geometry() {
        // Channels delayed by 1.5 samples each: pair (0,1) TDoA ≈ -1.5.
        let cfg = PipelineConfig::default();
        let ch = test_channels(2, 4096);
        let f = extract(&ch, &cfg).unwrap();
        // Layout: srp_peaks (3) + srp stats (5) + gcc window (27) + tdoa.
        let tdoa_idx = 3 + 5 + 27;
        assert!(
            (f[tdoa_idx] + 1.5).abs() < 0.3,
            "TDoA feature {} should be ≈ -1.5",
            f[tdoa_idx]
        );
    }

    #[test]
    fn silence_produces_finite_features() {
        let cfg = PipelineConfig::default();
        let ch = vec![vec![0.0; 1024], vec![0.0; 1024]];
        let f = extract(&ch, &cfg).unwrap();
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
