//! # ht-stream — the streaming frame substrate for the wake pipeline
//!
//! The paper's orientation-aware privacy control only thwarts misactivation
//! if the decision lands *before* the assistant wakes, which means the
//! pipeline must run online, frame by frame, not batch over a finished
//! capture. This crate provides the generic, model-free substrate for that:
//!
//! * [`FrameRing`] — multi-channel ring-buffered PCM ingest with fixed
//!   frame/hop geometry; accepts pushes of any size and yields overlapping
//!   analysis frames with no steady-state allocations.
//! * [`FrameAnalyzer`] — one shared forward FFT per channel per frame
//!   (the alloc-free `StftProcessor` scratch path), each channel
//!   PHAT-whitened once, then every microphone pair's whitened cross
//!   spectrum accumulated in the frequency domain with no inverse FFT per
//!   frame; one inverse per pair at assembly gives the frame-averaged GCC
//!   curves and their sum, the SRP curve. The same kernel runs in every
//!   `QuantMode`.
//! * [`DirectivityAccum`] — Welch-style running average of long
//!   channel-mean magnitude spectra, the incremental carrier of the
//!   paper's speech-directivity evidence (HLBR + low-band chunks).
//! * [`StreamError`] — typed rejection of mid-stream geometry changes
//!   (channel count, ragged chunks) that would otherwise produce silently
//!   wrong GCC lags, of non-finite samples and of over-long captures.
//!
//! `headtalk::evidence::Evidence` composes the ring, the analyzer and the
//! directivity accumulator into the decision evidence, and
//! `headtalk::stream::WakeStream` adds the trained models; this crate
//! stays zero-dependency on the model layer so the substrate can be reused
//! (and tested) in isolation.

pub mod analyzer;
pub mod directivity;
pub mod error;
pub mod ring;

pub use analyzer::FrameAnalyzer;
pub use directivity::DirectivityAccum;
pub use error::StreamError;
pub use ring::FrameRing;
