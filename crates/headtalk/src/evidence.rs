//! The one route from raw samples to decision evidence.
//!
//! HeadTalk scores two pieces of evidence per wake-word capture: the
//! §III-B3 orientation feature vector from every channel and the 16 kHz
//! liveness input from channel 0 (§IV-B15). [`Evidence`] builds both chunk
//! by chunk. The [`FrameRing`] refuses a malformed or non-finite chunk
//! before any state changes and frames the capture at
//! [`PipelineConfig::analysis_frame_geometry`]; every frame a chunk
//! completes goes through the [`FrameAnalyzer`] before the push returns,
//! while the [`DirectivityAccum`] folds in every sample; channel 0 runs
//! the preprocessing band-pass causally, then a streaming ÷3 decimator.
//! [`assemble`](Evidence::assemble) reads only the accumulators, in time
//! independent of the capture's length.
//!
//! A [`WakeStream`](crate::WakeStream) pushes microphone chunks;
//! [`HeadTalk::decide_batch`] and [`HeadTalk::enable_int8`] push a finished
//! capture as one chunk. A chunk longer than two hops is checked whole, so
//! a bad sample is reported at its index in the chunk, then ingested in
//! pieces of at most two hops: the ring and the liveness filter buffer
//! never grow past the size they are built at. With one implementation,
//! stream and batch agree bit for bit for any chunking. Evidence takes no
//! [`QuantMode`](ht_dsp::QuantMode): the analyzer whitens each channel
//! with one kernel in every mode, so int8 calibration, training and
//! decisions all see the same features, and the mode selects only the
//! model backends in [`HeadTalk::infer_assembled`]. Both routes refuse a
//! capture longer than [`PipelineConfig::max_capture_samples`] (4 s of
//! audio), the length the liveness branch is presized for.
//! The training helpers [`HeadTalk::orientation_features`] and
//! [`HeadTalk::liveness_input`] each run only the half whose output they
//! return.

use crate::config::{PipelineConfig, LOW_BAND_CHUNKS, SRP_PEAKS};
use crate::features;
use crate::liveness::prepare_decimated_into;
use crate::pipeline::HeadTalk;
use crate::preprocess::Preprocessor;
use crate::HeadTalkError;
use ht_dsp::filter::StreamingSos;
use ht_dsp::resample::StreamDecimator;
use ht_dsp::spectrum;
use ht_stream::ring::check_chunk;
use ht_stream::{DirectivityAccum, FrameAnalyzer, FrameRing, StreamError};

/// The capture length cap in seconds, and the length the liveness branch
/// is presized for: a capture never reallocates it.
pub(crate) const PRESIZE_SECS: f64 = 4.0;

/// The assembled decision evidence, borrowed from an [`Evidence`]'s
/// scratch: feed it to [`HeadTalk::infer_assembled`] without a copy.
#[derive(Debug, Clone, Copy)]
pub struct AssembledEvidence<'s> {
    /// The §III-B3 orientation feature vector.
    pub features: &'s [f64],
    /// The z-scored fixed-width 16 kHz liveness input.
    pub liveness_input: &'s [f64],
}

/// Incremental decision evidence for `n_channels`-channel audio. Needs no
/// trained model.
#[derive(Debug, Clone)]
pub struct Evidence {
    orientation: OrientationHalf,
    liveness: LivenessHalf,
    max_samples: usize,
}

impl Evidence {
    /// Builds an accumulator for `n_channels`-channel audio.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] for fewer than two channels and
    /// [`HeadTalkError::Dsp`] for a band-pass the configuration cannot
    /// design.
    pub fn new(config: &PipelineConfig, n_channels: usize) -> Result<Evidence, HeadTalkError> {
        Ok(Evidence {
            orientation: OrientationHalf::new(config, n_channels)?,
            liveness: LivenessHalf::new(config)?,
            max_samples: config.max_capture_samples(),
        })
    }

    /// Ingests one chunk of any length and analyzes every frame it
    /// completes. An empty chunk (channels of length 0) is accepted and
    /// changes nothing: it completes no frame and adds no liveness sample.
    /// A chunk longer than two hops is ingested in pieces of at most two
    /// hops, so it grows no buffer.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] with
    /// [`StreamError::CaptureTooLong`] for a chunk that would take the
    /// capture past [`PipelineConfig::max_capture_samples`], and for a
    /// chunk with the wrong channel count, ragged channels or a NaN or
    /// infinite sample. Every check runs over the whole chunk before
    /// anything is written, so a refused chunk changes nothing.
    pub fn push(&mut self, chunk: &[&[f64]]) -> Result<(), HeadTalkError> {
        let piece = 2 * self.orientation.ring.hop();
        if chunk.first().map_or(0, |c| c.len()) <= piece {
            return self.push_piece(chunk);
        }
        let channels = self.orientation.ring.channels();
        let (pushed, limit) = (self.samples_per_channel(), self.max_samples);
        push_in_pieces(chunk, channels, pushed, limit, piece, |p| {
            self.push_piece(p)
        })
    }

    /// [`push`](Evidence::push) for a chunk of at most two hops, which the
    /// ring and the liveness filter buffer hold as built. The ring runs the
    /// channel and sample checks before anything is written.
    fn push_piece(&mut self, chunk: &[&[f64]]) -> Result<(), HeadTalkError> {
        {
            let _ingest = ht_obs::span("stream.ingest");
            let got = self.samples_per_channel() + chunk.first().map_or(0, |c| c.len());
            check_capture_len(got, self.max_samples)?;
            self.orientation.push(chunk)?;
            self.liveness.push(chunk[0]);
        }
        self.orientation.analyze_ready()
    }

    /// Pushes a finished capture as one chunk, analyzing every frame.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::InvalidInput`] without a non-empty first
    /// channel, and [`HeadTalkError::Stream`] as [`push`](Evidence::push)
    /// does, with a bad sample reported at its index in the capture.
    pub(crate) fn push_capture(&mut self, channels: &[Vec<f64>]) -> Result<(), HeadTalkError> {
        self.push(&capture_views(channels)?)
    }

    /// Assembles the feature vector and the liveness input from the
    /// accumulators, in time independent of the capture's length.
    /// Non-destructive (more audio may follow) and allocation-free once the
    /// scratch has grown.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] with [`StreamError::NoFrames`] for
    /// a capture shorter than one analysis frame, and
    /// [`HeadTalkError::InvalidInput`] for a silent or DC-only liveness
    /// window.
    pub fn assemble(&mut self) -> Result<AssembledEvidence<'_>, HeadTalkError> {
        let _span = ht_obs::span("stream.assemble");
        Ok(AssembledEvidence {
            features: self.orientation.assemble()?,
            liveness_input: self.liveness.assemble()?,
        })
    }

    /// Returns to the just-built state, keeping every buffer's capacity:
    /// results are bit-identical to a fresh accumulator's.
    pub fn reset(&mut self) {
        self.orientation.reset();
        self.liveness.reset();
    }

    /// Frames analyzed so far.
    pub(crate) fn frames(&self) -> u64 {
        self.orientation.analyzer.frames_analyzed()
    }

    /// Samples ingested per channel so far.
    pub(crate) fn samples_per_channel(&self) -> usize {
        self.orientation.ring.samples_pushed() as usize
    }
}

impl HeadTalk {
    /// The orientation feature vector of a raw capture: the orientation
    /// half of [`Evidence`], bit for bit the vector
    /// [`decide_batch`](HeadTalk::decide_batch) scores in either
    /// [`QuantMode`](ht_dsp::QuantMode).
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] for fewer than two channels,
    /// ragged channels, a NaN or infinite sample, or a capture shorter than
    /// one analysis frame or longer than
    /// [`PipelineConfig::max_capture_samples`], and
    /// [`HeadTalkError::InvalidInput`] without a non-empty first channel.
    pub fn orientation_features(
        config: &PipelineConfig,
        channels: &[Vec<f64>],
    ) -> Result<Vec<f64>, HeadTalkError> {
        let mut half = OrientationHalf::new(config, channels.len())?;
        let views = capture_views(channels)?;
        let (piece, limit) = (2 * half.ring.hop(), config.max_capture_samples());
        push_in_pieces(&views, views.len(), 0, limit, piece, |p| {
            half.push(p)?;
            half.analyze_ready()
        })?;
        Ok(half.assemble()?.to_vec())
    }

    /// The liveness input of a raw capture: the liveness half of
    /// [`Evidence`] (causal band-pass on channel 0, ÷3 decimation,
    /// crop or pad to [`PipelineConfig::liveness_input_len`], z-score), bit
    /// for bit the input a decision scores.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] for ragged channels, a NaN or
    /// infinite sample or a capture longer than
    /// [`PipelineConfig::max_capture_samples`], and
    /// [`HeadTalkError::InvalidInput`] without a non-empty first channel or
    /// for a silent or DC-only liveness window.
    pub fn liveness_input(
        config: &PipelineConfig,
        channels: &[Vec<f64>],
    ) -> Result<Vec<f64>, HeadTalkError> {
        let mut half = LivenessHalf::new(config)?;
        let views = capture_views(channels)?;
        let (_, hop) = config.analysis_frame_geometry();
        let limit = config.max_capture_samples();
        push_in_pieces(&views, views.len(), 0, limit, 2 * hop, |p| {
            half.push(p[0]);
            Ok(())
        })?;
        Ok(half.assemble()?.to_vec())
    }
}

/// Ring framing, per-frame analysis and the directivity spectrum.
#[derive(Debug, Clone)]
struct OrientationHalf {
    ring: FrameRing,
    frame: Vec<Vec<f64>>,
    analyzer: FrameAnalyzer,
    dir: DirectivityAccum,
    features: Vec<f64>,
}

impl OrientationHalf {
    fn new(config: &PipelineConfig, n_channels: usize) -> Result<OrientationHalf, HeadTalkError> {
        let (frame_len, hop) = config.analysis_frame_geometry();
        // Built first: it refuses fewer than two channels before the
        // width arithmetic below.
        let analyzer =
            FrameAnalyzer::new(n_channels, frame_len, config.max_lag, config.sample_rate)?;
        Ok(OrientationHalf {
            ring: FrameRing::with_capacity(n_channels, frame_len, hop, frame_len + 2 * hop)?,
            frame: vec![vec![0.0; frame_len]; n_channels],
            analyzer,
            dir: DirectivityAccum::new(
                n_channels,
                config.directivity_segment_len(),
                config.sample_rate,
            )?,
            features: Vec::with_capacity(features::feature_width(n_channels, config)),
        })
    }

    fn push(&mut self, chunk: &[&[f64]]) -> Result<(), HeadTalkError> {
        self.ring.push(chunk)?;
        self.dir.push(chunk)?;
        Ok(())
    }

    /// Pops and analyzes every frame the ring holds, each under its own
    /// `stream.frame` span.
    fn analyze_ready(&mut self) -> Result<(), HeadTalkError> {
        while self.ring.ready_frames() > 0 {
            let _frame = ht_obs::span("stream.frame");
            self.ring.pop_frame_into(&mut self.frame);
            self.analyzer.analyze(&self.frame)?;
        }
        Ok(())
    }

    fn assemble(&mut self) -> Result<&[f64], HeadTalkError> {
        let _span = ht_obs::span("wake.feature_extract");
        self.features.clear();
        self.analyzer
            .assemble_features_into(SRP_PEAKS, &mut self.features)?;
        // A frame implies pushed samples, so a spectrum exists.
        let spec = self.dir.flush_spectrum().ok_or(StreamError::NoFrames)?;
        self.features.push(spectrum::hlbr(spec));
        spectrum::push_low_band_chunk_stats(spec, LOW_BAND_CHUNKS, &mut self.features);
        Ok(&self.features)
    }

    fn reset(&mut self) {
        self.ring.reset();
        self.analyzer.reset();
        self.dir.reset();
    }
}

/// Channel 0 through the causal band-pass and the ÷3 decimator, then
/// crop or pad and z-score.
#[derive(Debug, Clone)]
struct LivenessHalf {
    sos: StreamingSos,
    filtered: Vec<f64>,
    dec: StreamDecimator,
    x16k: Vec<f64>,
    prepared: Vec<f64>,
    input_len: usize,
}

impl LivenessHalf {
    fn new(config: &PipelineConfig) -> Result<LivenessHalf, HeadTalkError> {
        let (_, hop) = config.analysis_frame_geometry();
        let presize = config.max_capture_samples() / 3;
        Ok(LivenessHalf {
            sos: StreamingSos::new(Preprocessor::new(config)?.sos().clone()),
            filtered: Vec::with_capacity(2 * hop + 16),
            dec: StreamDecimator::new(3)?,
            // Room for the decimator's flushed FIR tail too.
            x16k: Vec::with_capacity(presize + 128),
            prepared: Vec::with_capacity(config.liveness_input_len),
            input_len: config.liveness_input_len,
        })
    }

    fn push(&mut self, x: &[f64]) {
        self.filtered.clear();
        self.sos.process(x, &mut self.filtered);
        self.dec.push(&self.filtered, &mut self.x16k);
    }

    /// Prepares the decimated samples plus the decimator's flushed tail,
    /// then drops the tail again so more audio can follow.
    fn assemble(&mut self) -> Result<&[f64], HeadTalkError> {
        let emitted = self.x16k.len();
        self.dec.flush_into(&mut self.x16k);
        let prepared = prepare_decimated_into(&self.x16k, self.input_len, &mut self.prepared);
        self.x16k.truncate(emitted);
        prepared?;
        Ok(&self.prepared)
    }

    fn reset(&mut self) {
        self.sos.reset();
        self.dec.reset();
        self.x16k.clear();
    }
}

/// Refuses a capture of `got` samples per channel past the `limit` cap.
fn check_capture_len(got: usize, limit: usize) -> Result<(), StreamError> {
    if got > limit {
        return Err(StreamError::CaptureTooLong { limit, got });
    }
    Ok(())
}

/// Borrows a finished capture's channels as one chunk.
fn capture_views(channels: &[Vec<f64>]) -> Result<Vec<&[f64]>, HeadTalkError> {
    if channels.first().is_none_or(Vec::is_empty) {
        return Err(HeadTalkError::InvalidInput(
            "capture must have at least one non-empty channel".into(),
        ));
    }
    Ok(channels.iter().map(Vec::as_slice).collect())
}

/// Checks `chunk` whole — the `limit` cap on a capture already holding
/// `pushed` samples per channel, then `channels` channels of one length
/// with finite samples — so a refused chunk reaches no `push`, then calls
/// `push` on consecutive views of at most `piece` samples per channel.
fn push_in_pieces(
    chunk: &[&[f64]],
    channels: usize,
    pushed: usize,
    limit: usize,
    piece: usize,
    mut push: impl FnMut(&[&[f64]]) -> Result<(), HeadTalkError>,
) -> Result<(), HeadTalkError> {
    check_capture_len(pushed + chunk.first().map_or(0, |c| c.len()), limit)?;
    if chunk.len() != channels {
        return Err(StreamError::ChannelCountChanged {
            expected: channels,
            got: chunk.len(),
        }
        .into());
    }
    let len = check_chunk(chunk)?;
    let mut views = Vec::with_capacity(channels);
    for start in (0..len).step_by(piece) {
        views.clear();
        views.extend(chunk.iter().map(|c| &c[start..len.min(start + piece)]));
        push(&views)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::rng::{gaussian, SeedableRng, StdRng};

    #[test]
    fn a_four_second_chunk_grows_no_buffer() {
        let config = PipelineConfig::default();
        let len = config.max_capture_samples();
        let mut rng = StdRng::seed_from_u64(0x5107);
        let capture: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..len).map(|_| 0.1 * gaussian(&mut rng)).collect())
            .collect();
        let views: Vec<&[f64]> = capture.iter().map(Vec::as_slice).collect();

        let mut whole = Evidence::new(&config, 4).unwrap();
        whole.push(&views).unwrap();
        let mut hops = Evidence::new(&config, 4).unwrap();
        let hop = hops.orientation.ring.hop();
        for start in (0..len).step_by(hop) {
            let chunk: Vec<&[f64]> = views.iter().map(|c| &c[start..start + hop]).collect();
            hops.push(&chunk).unwrap();
        }
        let (a, b) = (whole.assemble().unwrap(), hops.assemble().unwrap());
        for (x, y) in [
            (a.features, b.features),
            (a.liveness_input, b.liveness_input),
        ] {
            assert_eq!(x.len(), y.len());
            for (i, (x, y)) in x.iter().zip(y).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "value {i}");
            }
        }

        whole.reset();
        let fresh = Evidence::new(&config, 4).unwrap();
        assert_eq!(
            whole.orientation.ring.capacity(),
            fresh.orientation.ring.capacity(),
            "ring capacity per channel"
        );
        assert_eq!(
            whole.liveness.filtered.capacity(),
            fresh.liveness.filtered.capacity(),
            "liveness filter buffer capacity"
        );
    }
}
