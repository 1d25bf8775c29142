//! # headtalk — speaker orientation-aware privacy control for voice assistants
//!
//! A Rust reproduction of *"Speaker Orientation-Aware Privacy Control to
//! Thwart Misactivation of Voice Assistants"* (Zhang, Sabir, Das — DSN 2023).
//!
//! HeadTalk adds a device-free privacy control to a voice assistant: a wake
//! command is only forwarded to the cloud when (1) a *live human* produced it
//! (not a loudspeaker replay) and (2) the human was *facing* the device. Both
//! checks run on the assistant's own microphones.
//!
//! ## Architecture (Fig. 2 of the paper)
//!
//! * [`preprocess`] — 5th-order Butterworth band-pass (100–16 000 Hz) and
//!   normalization,
//! * [`evidence`] — the one route from raw samples to decision evidence:
//!   frame-by-frame orientation features from every channel and the
//!   causally band-passed 16 kHz liveness input from channel 0, shared by
//!   the batch decision, the stream and the training helpers,
//! * [`liveness`] — human-vs-mechanical-speaker detection on downsampled
//!   16 kHz audio ("wav2vec2-mini", §III-A),
//! * [`features`] — the orientation feature layout: SRP-PHAT peaks,
//!   pairwise GCC-PHAT vectors and TDoAs with statistical summaries, plus
//!   speech directivity features (HLBR, low-band chunks) (§III-B3),
//! * [`facing`] — the facing/blind/non-facing zones and the four
//!   training-label definitions of Table III,
//! * [`orientation`] — the facing classifier (SVM by default; RF/DT/kNN for
//!   the §IV-A comparison),
//! * [`pipeline`] — the end-to-end wake-command decision,
//! * [`stream`] — the frame-by-frame streaming engine, bit-identical to
//!   the batch [`decide_batch`](HeadTalk::decide_batch) because both build
//!   their evidence through [`evidence`],
//! * [`control`] — the privacy-mode state machine of Fig. 1 (Normal, Mute,
//!   HeadTalk; soft mute; session semantics),
//! * [`userstudy`] — SUS scoring and the paper's Table V survey data.
//!
//! ## Example
//!
//! ```no_run
//! use headtalk::control::{PrivacyController, VaEvent, VaMode};
//!
//! let mut va = PrivacyController::new();
//! va.handle(VaEvent::EnterHeadTalkMode);
//! assert_eq!(va.mode(), VaMode::HeadTalk);
//! // A wake word from a facing, live human starts a session:
//! let response = va.handle(VaEvent::WakeDetected { live: true, facing: true });
//! assert!(response.audio_forwarded_to_cloud());
//! ```

pub mod config;
pub mod control;
pub mod error;
pub mod evidence;
pub mod facing;
pub mod features;
pub mod liveness;
pub mod orientation;
pub mod pipeline;
pub mod preprocess;
pub mod stream;
pub mod userstudy;

pub use config::PipelineConfig;
pub use error::HeadTalkError;
pub use ht_dsp::QuantMode;
pub use pipeline::{HeadTalk, WakeDecision};
pub use stream::{StreamConfig, StreamOutcome, WakeStream};
