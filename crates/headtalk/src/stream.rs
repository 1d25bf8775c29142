//! The streaming wake engine: frame-by-frame ingest with an early-exit
//! soft-mute gate in front of the batch-identical final decision.
//!
//! [`WakeStream`] composes the `ht-stream` substrate (ring ingest, per-frame
//! STFT + sliding SRP-PHAT, evidence gate) with this crate's trained
//! models. While audio arrives, every frame is analyzed incrementally and
//! scored by the [`EarlyExitGate`] using the cheap per-frame evidence
//! ([`crate::liveness::frame_live_evidence`],
//! [`crate::orientation::frame_facing_evidence`]) — and, on the same
//! alloc-free scratch paths, the *batch* evidence accumulates too: per-pair
//! GCC lag sums and the directivity spectrum inside the analyzer, plus a
//! causally band-passed, streaming-decimated 16 kHz liveness branch in the
//! stream itself. [`finalize`](WakeStream::finalize) therefore assembles
//! the §III-B3 feature vector and the liveness input in O(features) — no
//! audio is stored or revisited — and at the default
//! [`PipelineConfig::analysis_frame_geometry`] the result is bit-identical
//! to [`HeadTalk::decide_batch`] for any chunking at any `HT_THREADS`; the
//! golden and property tests pin this.
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
use crate::liveness::{frame_live_evidence, prepare_decimated_into};
use crate::orientation::frame_facing_evidence;
use crate::pipeline::{HeadTalk, WakeDecision};
use crate::{features, HeadTalkError};
use ht_dsp::filter::StreamingSos;
use ht_dsp::resample::StreamDecimator;
use ht_stream::{DirectivityAccum, EarlyExitGate, FrameAnalyzer, FrameRing};

pub use ht_stream::{
    AudioChunk, EarlyExit, ExitReason, GateConfig, GateMode, StreamError, WakeVerdict,
};

/// Geometry and gate tuning for a [`WakeStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Analysis frame length in samples.
    pub frame_len: usize,
    /// Hop between frames in samples (the real-time deadline: each frame's
    /// processing must finish within `hop / sample_rate` seconds).
    pub hop: usize,
    /// Early-exit gate tuning.
    pub gate: GateConfig,
    /// Expected capture length in samples (presizes the liveness branch so
    /// steady-state pushes don't reallocate it); 0 for a modest default.
    pub capacity_hint: usize,
}

impl StreamConfig {
    /// The default geometry for a pipeline configuration:
    /// [`PipelineConfig::analysis_frame_geometry`] (20 ms frames advancing
    /// by 10 ms — 960/480 samples at the paper's 48 kHz) with an advisory
    /// gate. Streams at this geometry finalize bit-identically to
    /// [`HeadTalk::decide_batch`]; a custom geometry still works but frames
    /// the capture differently than the batch reference.
    pub fn for_pipeline(config: &PipelineConfig) -> StreamConfig {
        let (frame_len, hop) = config.analysis_frame_geometry();
        StreamConfig {
            frame_len,
            hop,
            gate: GateConfig::default(),
            capacity_hint: 0,
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

/// The assembled decision evidence, borrowed from the stream's scratch
/// buffers: the fixed-width orientation feature vector and the prepared
/// liveness input. Feed them to [`HeadTalk::infer_assembled`] — or inspect
/// them — without any copy.
#[derive(Debug, Clone, Copy)]
pub struct AssembledEvidence<'s> {
    /// The §III-B3 orientation feature vector.
    pub features: &'s [f64],
    /// The z-scored fixed-width 16 kHz liveness input.
    pub liveness_input: &'s [f64],
}

/// A live streaming session borrowing a [`HeadTalk`] pipeline.
#[derive(Debug, Clone)]
pub struct WakeStream<'a> {
    ht: &'a HeadTalk,
    config: StreamConfig,
    ring: FrameRing,
    analyzer: FrameAnalyzer,
    gate: EarlyExitGate,
    /// Welch accumulator for the speech-directivity spectrum.
    dir: DirectivityAccum,
    /// Samples ingested per channel (the stream stores no audio beyond the
    /// ring's working window and the decimated liveness branch).
    samples: usize,
    /// Scratch frame the ring pops into.
    frame: Vec<Vec<f64>>,
    /// Carried band-pass state of the causal liveness filter (channel 0).
    liv_sos: StreamingSos,
    /// Per-chunk scratch for the filtered channel-0 samples.
    liv_filtered: Vec<f64>,
    /// Streaming ÷3 decimator carrying the anti-alias FIR tail.
    liv_dec: StreamDecimator,
    /// Decimated 16 kHz liveness samples emitted so far.
    liv_16k: Vec<f64>,
    /// Finalize-time scratch: `liv_16k` plus the decimator's flushed tail.
    liv_tail: Vec<f64>,
    /// Finalize-time scratch: the cropped/padded, z-scored liveness input.
    liv_prepared: Vec<f64>,
    /// Finalize-time scratch: the assembled feature vector.
    features: Vec<f64>,
    /// The liveness model's fixed input width in 16 kHz samples.
    liv_input_len: usize,
    /// `true` once an enforcing gate has stopped ingestion.
    muted: bool,
}

impl HeadTalk {
    /// Opens a streaming session for an `n_channels` microphone array with
    /// the default [`StreamConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::InvalidInput`] when `n_channels` gives a
    /// feature width the orientation model wasn't trained on (the same
    /// up-front check as [`decide_batch`](HeadTalk::decide_batch)), or
    /// [`HeadTalkError::Stream`] for bad geometry.
    pub fn streamer(&self, n_channels: usize) -> Result<WakeStream<'_>, HeadTalkError> {
        self.streamer_with(n_channels, StreamConfig::for_pipeline(self.config()))
    }

    /// Opens a streaming session with explicit geometry and gate tuning.
    ///
    /// # Errors
    ///
    /// As for [`streamer`](HeadTalk::streamer).
    pub fn streamer_with(
        &self,
        n_channels: usize,
        config: StreamConfig,
    ) -> Result<WakeStream<'_>, HeadTalkError> {
        self.validate_feature_width(n_channels)?;
        let ring = FrameRing::with_capacity(
            n_channels,
            config.frame_len,
            config.hop,
            config.frame_len + 2 * config.hop,
        )?;
        let mut analyzer = FrameAnalyzer::new(
            n_channels,
            config.frame_len,
            self.config().max_lag,
            self.config().sample_rate,
        )?;
        // The per-frame GCC kernels follow the pipeline's backend: fast
        // squared-magnitude whitening under Int8, byte-stable hypot
        // whitening under Reference.
        analyzer.set_quant_mode(self.quant_mode());
        let capacity = if config.capacity_hint > 0 {
            config.capacity_hint
        } else {
            // Default to 4 s of audio at the configured rate.
            (self.config().sample_rate * 4.0) as usize
        };
        let liv_input_len = self.liveness_input_len();
        let feature_cap = features::feature_width(n_channels, self.config());
        Ok(WakeStream {
            ht: self,
            ring,
            analyzer,
            gate: EarlyExitGate::new(config.gate),
            dir: DirectivityAccum::new(
                n_channels,
                self.config().directivity_segment_len(),
                self.config().sample_rate,
            )?,
            samples: 0,
            frame: vec![vec![0.0; config.frame_len]; n_channels],
            liv_sos: StreamingSos::new(self.preprocessor().sos().clone()),
            liv_filtered: Vec::with_capacity(2 * config.hop + 16),
            liv_dec: StreamDecimator::new(3)?,
            liv_16k: Vec::with_capacity(capacity / 3 + 64),
            liv_tail: Vec::with_capacity(capacity / 3 + 128),
            liv_prepared: Vec::with_capacity(liv_input_len),
            features: Vec::with_capacity(feature_cap),
            liv_input_len,
            muted: false,
            config,
        })
    }
}

impl WakeStream<'_> {
    /// Ingests one chunk (any length; hop-aligned or ragged) and processes
    /// every frame that becomes ready. Returns the rolling verdict.
    ///
    /// After an enforcing gate has fired, further pushes are dropped and
    /// return [`WakeVerdict::SoftMute`] immediately — the soft mute is the
    /// point: no more audio leaves the device.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Stream`] for a chunk whose channel count
    /// differs from the stream's, whose channels have unequal lengths, or
    /// that holds a NaN or infinite sample ([`StreamError::NonFinite`]);
    /// the ring is the first stage to see the chunk and refuses it whole,
    /// so the stream state is untouched and subsequent valid pushes work.
    pub fn push(&mut self, chunk: &[&[f64]]) -> Result<WakeVerdict, HeadTalkError> {
        if self.muted {
            return Ok(WakeVerdict::SoftMute);
        }
        {
            let _ingest = ht_obs::span("stream.ingest");
            self.ring.push(chunk)?;
            self.dir.push(chunk)?;
            self.samples += chunk[0].len();
            // Liveness branch: causal band-pass with carried state, then
            // streaming decimation — bit-identical to filtering and
            // decimating the whole capture at once, at O(chunk) per push.
            self.liv_filtered.clear();
            self.liv_sos.process(chunk[0], &mut self.liv_filtered);
            self.liv_dec.push(&self.liv_filtered, &mut self.liv_16k);
        }
        while !self.muted && self.ring.pop_frame_into(&mut self.frame) {
            let _frame_span = ht_obs::span("stream.frame");
            let (rms, live_evidence, facing_evidence) = {
                let features = self.analyzer.analyze(&self.frame)?;
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

    /// `true` once an enforcing gate has stopped ingestion.
    pub fn is_muted(&self) -> bool {
        self.muted
    }

    /// Frames analyzed so far.
    pub fn frames(&self) -> u64 {
        self.analyzer.frames_analyzed()
    }

    /// Samples ingested per channel so far.
    pub fn samples_per_channel(&self) -> usize {
        self.samples
    }

    /// Forward FFTs the directivity accumulator's flush has performed
    /// since this stream was constructed (a repeat flush at an unchanged
    /// sample count hits the epoch cache and performs none). Survives
    /// [`reset`](WakeStream::reset), so a pooled slot keeps a running
    /// total — the serving layer's retry-hits-the-cache regression tests
    /// pin this.
    pub fn directivity_flush_ffts(&self) -> u64 {
        self.dir.flush_ffts()
    }

    /// The stream's hop in samples (the natural push granularity).
    pub fn hop(&self) -> usize {
        self.config.hop
    }

    /// The stream's configuration.
    pub fn stream_config(&self) -> &StreamConfig {
        &self.config
    }

    /// Assembles the decision evidence from the accumulated statistics into
    /// the stream's scratch buffers: the feature vector from the analyzer's
    /// Welch accumulators, and the liveness input from the decimated branch
    /// plus the decimator's flushed FIR tail. O(features), allocation-free
    /// once the scratch has grown, and non-destructive — analysis may
    /// continue and the evidence be assembled again.
    fn assemble_evidence(&mut self) -> Result<(), HeadTalkError> {
        let _span = ht_obs::span("stream.assemble");
        self.features.clear();
        features::assemble_into(
            &mut self.analyzer,
            &mut self.dir,
            self.ht.config(),
            &mut self.features,
        )?;
        self.liv_tail.clear();
        self.liv_tail.extend_from_slice(&self.liv_16k);
        self.liv_dec.flush_into(&mut self.liv_tail);
        prepare_decimated_into(&self.liv_tail, self.liv_input_len, &mut self.liv_prepared)
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
        self.assemble_evidence()?;
        Ok(AssembledEvidence {
            features: &self.features,
            liveness_input: &self.liv_prepared,
        })
    }

    /// Finalizes the stream: assembles the feature vector and liveness
    /// input from the accumulated evidence — O(features), not O(capture) —
    /// runs the trained models, and folds in the gate's early exit.
    ///
    /// At the default [`PipelineConfig::analysis_frame_geometry`] the
    /// decision and features are bit-identical to
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
        let early_exit = self.gate.fired();
        let frames = self.analyzer.frames_analyzed();
        let samples_per_channel = self.samples;
        match self.assemble_evidence() {
            Ok(()) => {
                let decision = self.ht.infer_assembled(&self.features, &self.liv_prepared);
                Ok(StreamOutcome {
                    verdict: if self.muted || !decision.accepted() {
                        WakeVerdict::SoftMute
                    } else {
                        WakeVerdict::Allow
                    },
                    decision: Some(decision),
                    features: self.features.clone(),
                    early_exit,
                    frames,
                    samples_per_channel,
                })
            }
            Err(_) if self.muted => Ok(StreamOutcome {
                verdict: WakeVerdict::SoftMute,
                decision: None,
                features: Vec::new(),
                early_exit,
                frames,
                samples_per_channel,
            }),
            Err(e) => Err(e),
        }
    }

    /// Returns the stream to its just-opened state — empty ring, rewound
    /// analyzer, fresh gate and filter/decimator state, cleared liveness
    /// branch — while keeping every buffer at its grown capacity. A reset
    /// stream produces byte-identical results to a freshly opened one, but
    /// reusing it costs no heap allocations once its buffers have grown to
    /// the working capture length; the serving layer's session arenas
    /// depend on this.
    pub fn reset(&mut self) {
        self.ring.reset();
        self.analyzer.reset();
        self.gate.reset();
        self.dir.reset();
        self.samples = 0;
        self.liv_sos.reset();
        self.liv_dec.reset();
        self.liv_filtered.clear();
        self.liv_16k.clear();
        self.liv_tail.clear();
        self.liv_prepared.clear();
        self.features.clear();
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
