//! The streaming wake engine: frame-by-frame ingest with an early-exit
//! soft-mute gate in front of the final decision.
//!
//! A [`WakeStream`] is an [`Evidence`] accumulator plus the
//! [`EarlyExitGate`], which scores every analyzed frame from its cheap
//! evidence ([`crate::liveness::frame_live_evidence`],
//! [`crate::orientation::frame_facing_evidence`]).
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
//! let verdict = stream.push(&chunk)?;
//! if verdict == headtalk::stream::WakeVerdict::SoftMute {
//!     // the gate concluded mid-utterance: not live, or not facing
//! }
//! let outcome = stream.finalize()?;
//! # Ok(()) }
//! ```

use crate::config::PipelineConfig;
use crate::evidence::Evidence;
use crate::liveness::frame_live_evidence;
use crate::orientation::frame_facing_evidence;
use crate::pipeline::{HeadTalk, WakeDecision};
use crate::HeadTalkError;
use ht_stream::EarlyExitGate;

pub use crate::evidence::AssembledEvidence;
pub use ht_stream::{
    AudioChunk, EarlyExit, ExitReason, GateConfig, GateMode, StreamError, WakeVerdict,
};

/// Geometry and gate tuning for a [`WakeStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Analysis frame length in samples. Must equal the pipeline's
    /// [`PipelineConfig::analysis_frame_geometry`] frame length.
    pub frame_len: usize,
    /// Hop between frames in samples (the real-time deadline: each frame's
    /// processing must finish within `hop / sample_rate` seconds). Must
    /// equal the pipeline's analysis hop.
    pub hop: usize,
    /// Early-exit gate tuning.
    pub gate: GateConfig,
}

impl StreamConfig {
    /// The geometry for a pipeline configuration:
    /// [`PipelineConfig::analysis_frame_geometry`] (20 ms frames advancing
    /// by 10 ms — 960/480 samples at the paper's 48 kHz) with an advisory
    /// gate. It is the only geometry a stream accepts, because it is the
    /// one the batch decision frames at.
    pub fn for_pipeline(config: &PipelineConfig) -> StreamConfig {
        let (frame_len, hop) = config.analysis_frame_geometry();
        StreamConfig {
            frame_len,
            hop,
            gate: GateConfig::default(),
        }
    }

    /// The per-frame real-time budget in seconds: one hop of audio.
    pub fn hop_deadline_secs(&self, sample_rate: f64) -> f64 {
        self.hop as f64 / sample_rate
    }
}

/// Everything a finished stream knows.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The stream's verdict: [`WakeVerdict::Allow`] only when the finalized
    /// decision accepted; [`WakeVerdict::SoftMute`] when the decision
    /// rejected *or* an enforcing gate stopped the stream early.
    pub verdict: WakeVerdict,
    /// The decision over the accumulated evidence. `None` only when an
    /// enforcing gate stopped ingestion before a decidable capture
    /// accumulated.
    pub decision: Option<WakeDecision>,
    /// The orientation feature vector behind `decision` (empty when
    /// `decision` is `None`). Byte-identical to the batch path's features.
    pub features: Vec<f64>,
    /// The gate's early exit, if it fired (recorded in advisory mode,
    /// enforced in enforcing mode).
    pub early_exit: Option<EarlyExit>,
    /// Frames analyzed.
    pub frames: u64,
    /// Samples ingested per channel.
    pub samples_per_channel: usize,
}

/// A live streaming session borrowing a [`HeadTalk`] pipeline.
#[derive(Debug, Clone)]
pub struct WakeStream<'a> {
    ht: &'a HeadTalk,
    config: StreamConfig,
    evidence: Evidence,
    gate: EarlyExitGate,
    /// `true` once an enforcing gate has stopped ingestion.
    muted: bool,
}

impl HeadTalk {
    /// Opens a streaming session for an `n_channels` microphone array with
    /// the default [`StreamConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] for fewer than two channels, and
    /// [`HeadTalkError::InvalidInput`] when `n_channels` gives a feature
    /// width the orientation model wasn't trained on (the same up-front
    /// checks as [`decide_batch`](HeadTalk::decide_batch)).
    pub fn streamer(&self, n_channels: usize) -> Result<WakeStream<'_>, HeadTalkError> {
        self.streamer_with(n_channels, StreamConfig::for_pipeline(self.config()))
    }

    /// Opens a streaming session with explicit gate tuning.
    ///
    /// # Errors
    ///
    /// As for [`streamer`](HeadTalk::streamer), plus
    /// [`StreamError::BadGeometry`] when `config`'s frame length or hop
    /// differs from [`StreamConfig::for_pipeline`]'s: a stream framed
    /// differently would not decide what the batch path decides.
    pub fn streamer_with(
        &self,
        n_channels: usize,
        config: StreamConfig,
    ) -> Result<WakeStream<'_>, HeadTalkError> {
        let (frame_len, hop) = self.config().analysis_frame_geometry();
        if (config.frame_len, config.hop) != (frame_len, hop) {
            return Err(StreamError::BadGeometry(format!(
                "stream geometry {}/{} differs from the pipeline's {frame_len}/{hop}-sample \
                 analysis frames",
                config.frame_len, config.hop
            ))
            .into());
        }
        Ok(WakeStream {
            ht: self,
            evidence: self.evidence(n_channels, self.quant_mode())?,
            gate: EarlyExitGate::new(config.gate),
            muted: false,
            config,
        })
    }
}

impl WakeStream<'_> {
    /// Ingests one chunk (any length; hop-aligned or ragged) and processes
    /// every frame that becomes ready. Returns the rolling verdict. An
    /// empty chunk is accepted and changes nothing: no frame, no liveness
    /// sample, the same verdict.
    ///
    /// After an enforcing gate has fired, further pushes are dropped and
    /// return [`WakeVerdict::SoftMute`] immediately — the soft mute is the
    /// point: no more audio leaves the device.
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
    pub fn push(&mut self, chunk: &[&[f64]]) -> Result<WakeVerdict, HeadTalkError> {
        if self.muted {
            return Ok(WakeVerdict::SoftMute);
        }
        self.evidence.push(chunk)?;
        while !self.muted && self.evidence.frame_ready() {
            let _frame_span = ht_obs::span("stream.frame");
            let Some(features) = self.evidence.next_frame()? else {
                break;
            };
            let (rms, live_evidence, facing_evidence) = {
                let _score = ht_obs::span("stream.score");
                (
                    features.rms,
                    frame_live_evidence(features),
                    frame_facing_evidence(features),
                )
            };
            let verdict = {
                let _gate = ht_obs::span("stream.gate");
                self.gate.observe(rms, live_evidence, facing_evidence)
            };
            if verdict == WakeVerdict::SoftMute && self.config.gate.mode == GateMode::Enforcing {
                self.muted = true;
            }
        }
        Ok(self.verdict())
    }

    /// Like [`push`](WakeStream::push), but verifies the chunk's claimed
    /// sample rate against the pipeline's.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] with
    /// [`StreamError::SampleRateChanged`] for a rate mismatch (compared at
    /// integer-Hz resolution), plus everything [`push`](WakeStream::push)
    /// returns.
    pub fn push_audio(&mut self, chunk: AudioChunk<'_>) -> Result<WakeVerdict, HeadTalkError> {
        let expected_hz = self.ht.config().sample_rate.round() as u32;
        let got_hz = chunk.sample_rate.round() as u32;
        if got_hz != expected_hz {
            return Err(StreamError::SampleRateChanged {
                expected_hz,
                got_hz,
            }
            .into());
        }
        self.push(chunk.channels)
    }

    /// The rolling verdict: [`WakeVerdict::SoftMute`] once the gate has
    /// fired, [`WakeVerdict::Undecided`] otherwise. (An Allow only ever
    /// comes from [`finalize`](WakeStream::finalize) — the models, not the
    /// gate, grant it.)
    pub fn verdict(&self) -> WakeVerdict {
        if self.gate.fired().is_some() {
            WakeVerdict::SoftMute
        } else {
            WakeVerdict::Undecided
        }
    }

    /// The gate's early exit, if it has fired.
    pub fn early_exit(&self) -> Option<EarlyExit> {
        self.gate.fired()
    }

    /// Frames analyzed so far.
    pub fn frames(&self) -> u64 {
        self.evidence.frames()
    }

    /// Samples ingested per channel so far.
    pub fn samples_per_channel(&self) -> usize {
        self.evidence.samples_per_channel()
    }

    /// Forward FFTs the directivity accumulator's flush has performed
    /// since this stream was constructed (a repeat flush at an unchanged
    /// sample count hits the epoch cache and performs none). Survives
    /// [`reset`](WakeStream::reset), so a pooled slot keeps a running
    /// total — the serving layer's retry-hits-the-cache regression tests
    /// pin this.
    pub fn directivity_flush_ffts(&self) -> u64 {
        self.evidence.directivity_flush_ffts()
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
    /// runs the trained models, and folds in the gate's early exit.
    ///
    /// The decision and features are bit-identical to
    /// [`HeadTalk::decide_batch`] over the same capture. In enforcing mode
    /// the evidence may have been truncated at the mute point; if too
    /// little audio accumulated to decide, the outcome carries the gate's
    /// soft-mute with `decision: None` instead of an error.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors (short or silent/DC-only captures) when
    /// the gate did not stop the stream.
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
        let (decision, features) = match self.evidence.assemble() {
            Ok(evidence) => (
                Some(
                    self.ht
                        .infer_assembled(evidence.features, evidence.liveness_input),
                ),
                evidence.features.to_vec(),
            ),
            Err(_) if self.muted => (None, Vec::new()),
            Err(e) => return Err(e),
        };
        let verdict = match decision {
            Some(d) if !self.muted && d.accepted() => WakeVerdict::Allow,
            _ => WakeVerdict::SoftMute,
        };
        Ok(StreamOutcome {
            verdict,
            decision,
            features,
            early_exit: self.gate.fired(),
            frames: self.evidence.frames(),
            samples_per_channel: self.evidence.samples_per_channel(),
        })
    }

    /// Returns the stream to its just-opened state — cleared evidence and
    /// a fresh gate — while keeping every buffer at its grown capacity. A
    /// reset stream produces byte-identical results to a freshly opened
    /// one, but reusing it costs no heap allocations once its buffers have
    /// grown to the working capture length; the serving layer's session
    /// arenas depend on this.
    pub fn reset(&mut self) {
        self.evidence.reset();
        self.gate.reset();
        self.muted = false;
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
        assert_eq!(cfg.gate.mode, GateMode::Advisory);
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
