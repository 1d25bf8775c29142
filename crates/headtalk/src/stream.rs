//! The streaming wake engine: frame-by-frame ingest in front of the final
//! decision.
//!
//! A [`WakeStream`] is a pipeline reference plus an [`Evidence`]
//! accumulator: every push analyzes the frames it completes, and
//! [`finalize`](WakeStream::finalize) assembles the evidence in
//! O(features) and runs the models. [`HeadTalk::decide_batch`] pushes a
//! finished capture through the same [`Evidence`], so a stream's outcome
//! is bit-identical to it for any chunking at any `HT_THREADS`.
//!
//! ```no_run
//! # fn main() -> Result<(), headtalk::HeadTalkError> {
//! # let ht: headtalk::HeadTalk = unimplemented!();
//! let mut stream = ht.streamer(4)?;
//! // Feed 10 ms chunks as the microphone delivers them:
//! # let chunk: Vec<&[f64]> = Vec::new();
//! stream.push(&chunk)?;
//! let outcome = stream.finalize()?;
//! if outcome.verdict == headtalk::stream::WakeVerdict::SoftMute {
//!     // not live, or not facing: the assistant stays muted
//! }
//! # Ok(()) }
//! ```

use crate::config::PipelineConfig;
use crate::evidence::Evidence;
use crate::pipeline::{HeadTalk, WakeDecision};
use crate::HeadTalkError;

pub use crate::evidence::AssembledEvidence;
pub use ht_stream::StreamError;

/// A stream's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeVerdict {
    /// No decision yet. A finalized [`StreamOutcome`] never carries it;
    /// code that folds verdicts into codes keeps a value for it.
    Undecided,
    /// The pipeline accepted the capture (live *and* facing).
    Allow,
    /// The pipeline rejected the capture; the assistant should stay muted.
    SoftMute,
}

/// The analysis geometry of a [`WakeStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Analysis frame length in samples: the pipeline's
    /// [`PipelineConfig::analysis_frame_geometry`] frame length.
    pub frame_len: usize,
    /// Hop between frames in samples (the real-time deadline: each frame's
    /// processing must finish within `hop / sample_rate` seconds): the
    /// pipeline's analysis hop.
    pub hop: usize,
}

impl StreamConfig {
    /// The geometry for a pipeline configuration:
    /// [`PipelineConfig::analysis_frame_geometry`] (20 ms frames advancing
    /// by 10 ms — 960/480 samples at the paper's 48 kHz). It is the only
    /// geometry a stream runs at, because it is the one the batch decision
    /// frames at.
    pub fn for_pipeline(config: &PipelineConfig) -> StreamConfig {
        let (frame_len, hop) = config.analysis_frame_geometry();
        StreamConfig { frame_len, hop }
    }

    /// The per-frame real-time budget in seconds: one hop of audio.
    pub fn hop_deadline_secs(&self, sample_rate: f64) -> f64 {
        self.hop as f64 / sample_rate
    }
}

/// Everything a finished stream knows.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// [`WakeVerdict::Allow`] when the decision accepted,
    /// [`WakeVerdict::SoftMute`] when it rejected.
    pub verdict: WakeVerdict,
    /// The decision over the accumulated evidence. Always `Some`: a capture
    /// that cannot be decided is an error, not an outcome.
    pub decision: Option<WakeDecision>,
    /// The orientation feature vector behind `decision`. Byte-identical to
    /// the batch path's features.
    pub features: Vec<f64>,
    /// Frames analyzed.
    pub frames: u64,
    /// Samples ingested per channel.
    pub samples_per_channel: usize,
}

/// A live streaming session borrowing a [`HeadTalk`] pipeline.
#[derive(Debug, Clone)]
pub struct WakeStream<'a> {
    ht: &'a HeadTalk,
    evidence: Evidence,
}

impl HeadTalk {
    /// Opens a streaming session for an `n_channels` microphone array,
    /// framed at [`StreamConfig::for_pipeline`].
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] for fewer than two channels, and
    /// [`HeadTalkError::InvalidInput`] when `n_channels` gives a feature
    /// width the orientation model wasn't trained on (the same up-front
    /// checks as [`decide_batch`](HeadTalk::decide_batch)).
    pub fn streamer(&self, n_channels: usize) -> Result<WakeStream<'_>, HeadTalkError> {
        Ok(WakeStream {
            ht: self,
            evidence: self.evidence(n_channels)?,
        })
    }
}

impl WakeStream<'_> {
    /// Ingests one chunk (any length; hop-aligned or ragged) and analyzes
    /// every frame it completes. An empty chunk is accepted and changes
    /// nothing: no frame, no liveness sample.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] for a chunk whose channel count
    /// differs from the stream's, whose channels have unequal lengths, that
    /// holds a NaN or infinite sample ([`StreamError::NonFinite`]), or that
    /// would take the capture past
    /// [`PipelineConfig::max_capture_samples`]
    /// ([`StreamError::CaptureTooLong`]). The chunk is refused whole before
    /// anything is written, so the stream state is untouched and
    /// subsequent valid pushes work.
    pub fn push(&mut self, chunk: &[&[f64]]) -> Result<(), HeadTalkError> {
        self.evidence.push(chunk)
    }

    /// Frames analyzed so far.
    pub fn frames(&self) -> u64 {
        self.evidence.frames()
    }

    /// Samples ingested per channel so far.
    pub fn samples_per_channel(&self) -> usize {
        self.evidence.samples_per_channel()
    }

    /// Assembles and exposes the decision evidence without running the
    /// models (borrowed from internal scratch; the next push or assembly
    /// overwrites it), so assembly can be inspected or timed apart from
    /// [`HeadTalk::infer_assembled`].
    ///
    /// # Errors
    ///
    /// As for [`finalize`](WakeStream::finalize).
    pub fn assemble(&mut self) -> Result<AssembledEvidence<'_>, HeadTalkError> {
        self.evidence.assemble()
    }

    /// Finalizes the stream: assembles the feature vector and liveness
    /// input from the accumulated evidence — O(features), not O(capture) —
    /// and runs the trained models. The decision and features are
    /// bit-identical to [`HeadTalk::decide_batch`] over the same capture.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors: a capture shorter than one analysis
    /// frame, or a silent or DC-only liveness window.
    pub fn finalize(mut self) -> Result<StreamOutcome, HeadTalkError> {
        self.outcome()
    }

    /// [`finalize`](WakeStream::finalize) without consuming the stream, so
    /// a pooled session slot can be [`reset`](WakeStream::reset) and reused
    /// afterwards (the multi-tenant server's steady state). Identical
    /// semantics and byte-identical results.
    ///
    /// # Errors
    ///
    /// As for [`finalize`](WakeStream::finalize).
    pub fn outcome(&mut self) -> Result<StreamOutcome, HeadTalkError> {
        let evidence = self.evidence.assemble()?;
        let decision = self
            .ht
            .infer_assembled(evidence.features, evidence.liveness_input);
        Ok(StreamOutcome {
            verdict: if decision.accepted() {
                WakeVerdict::Allow
            } else {
                WakeVerdict::SoftMute
            },
            decision: Some(decision),
            features: evidence.features.to_vec(),
            frames: self.evidence.frames(),
            samples_per_channel: self.evidence.samples_per_channel(),
        })
    }

    /// Returns the stream to its just-opened state — cleared evidence —
    /// keeping every buffer. A reset stream produces byte-identical results
    /// to a freshly opened one, and reusing it costs no heap allocations,
    /// since no push grows a buffer past the size it was built at; the
    /// serving layer's pooled session slots depend on this.
    pub fn reset(&mut self) {
        self.evidence.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_20ms_frames_10ms_hop() {
        let cfg = StreamConfig::for_pipeline(&PipelineConfig::default());
        assert_eq!(cfg.frame_len, 960);
        assert_eq!(cfg.hop, 480);
        assert!((cfg.hop_deadline_secs(48_000.0) - 0.010).abs() < 1e-12);
    }

    #[test]
    fn odd_sample_rates_round_to_positive_hops() {
        let cfg = StreamConfig::for_pipeline(&PipelineConfig {
            sample_rate: 44_100.0,
            ..PipelineConfig::default()
        });
        assert_eq!(cfg.hop, 441);
        assert_eq!(cfg.frame_len, 882);
    }
}
