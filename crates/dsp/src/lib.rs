//! # ht-dsp — signal-processing primitives for the HeadTalk reproduction
//!
//! This crate is the digital-signal-processing substrate of the HeadTalk
//! (DSN 2023) reproduction. It is a dependency-free (apart from `std`)
//! implementation of everything the paper's pipeline needs:
//!
//! * complex arithmetic and a planned power-of-two real [FFT](fft),
//! * [window functions](window) and the [short-time Fourier transform](stft),
//! * [Butterworth IIR filters](filter) (the paper's 5th-order 100–16 000 Hz
//!   band-pass pre-filter) with zero-phase `filtfilt`,
//! * [resampling](resample) (the 48 kHz → 16 kHz decimation feeding liveness
//!   detection),
//! * [cross-correlation and GCC-PHAT](correlate), whose pairwise curves sum
//!   to the SRP-PHAT steered-response power used as orientation features,
//! * the PHAT whitening [kernels] of the decision path,
//! * [spectral analysis](spectrum) (band energies, Welch PSD, the high/low
//!   band ratio of §III-B3),
//! * [descriptive statistics](stats) (kurtosis, skewness, MAD, …) used as
//!   feature summaries, and
//! * [peak picking](peak).
//!
//! Because the workspace builds fully offline with zero external crates,
//! this crate also hosts the shared infrastructure the other crates lean
//! on: deterministic [random number generation](rng) (SplitMix64 +
//! xoshiro256++), a minimal [JSON](json) reader/writer for reports and
//! caches, byte-stable [JSON export of observability snapshots](obs), and a
//! small [property-testing harness and counting allocator](check).
//!
//! # Example
//!
//! ```
//! use ht_dsp::{fft, signal};
//!
//! // A 1 kHz tone sampled at 48 kHz shows a spectral peak near 1 kHz.
//! let sr = 48_000.0;
//! let tone: Vec<f64> = (0..48_000)
//!     .map(|n| (2.0 * std::f64::consts::PI * 1000.0 * n as f64 / sr).sin())
//!     .collect();
//! let spec = fft::rfft_magnitude(&tone);
//! let peak_bin = spec
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.total_cmp(b.1))
//!     .map(|(i, _)| i)
//!     .unwrap();
//! let n_fft = (spec.len() - 1) * 2;
//! let bin_hz = sr / n_fft as f64;
//! assert!((peak_bin as f64 * bin_hz - 1000.0).abs() < 5.0);
//! assert!(signal::rms(&tone) > 0.5);
//! ```

pub mod check;
pub mod complex;
pub mod correlate;
pub mod error;
pub mod fft;
pub mod filter;
pub mod json;
pub mod kernels;
pub mod obs;
pub mod peak;
pub mod resample;
pub mod rng;
pub mod signal;
pub mod spectrum;
pub mod stats;
pub mod stft;
pub mod window;

pub use complex::Complex;
pub use error::DspError;
pub use kernels::QuantMode;
