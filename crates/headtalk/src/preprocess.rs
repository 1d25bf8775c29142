//! Preprocessing: the paper's denoising block (§III).
//!
//! *"In order to remove low-frequency and high-frequency components
//! generated from the surrounding environment, we adopted the fifth-order
//! Butterworth bandpass filter to keep the audio within the frequency range
//! of 100∼16000 Hz."* Filtering is zero-phase so inter-channel delays (the
//! TDoA information) survive.

use crate::config::{PipelineConfig, PREPROCESS_HI_HZ, PREPROCESS_LO_HZ};
use crate::HeadTalkError;
use ht_dsp::filter::{Butterworth, Sos};

/// The preprocessing stage: band-pass denoising plus amplitude
/// normalization.
#[derive(Debug, Clone)]
pub struct Preprocessor {
    filter: Sos,
}

impl Preprocessor {
    /// Builds the preprocessor for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::Dsp`] when the corners are invalid for the
    /// sample rate.
    pub fn new(config: &PipelineConfig) -> Result<Preprocessor, HeadTalkError> {
        let filter =
            Butterworth::bandpass(5, PREPROCESS_LO_HZ, PREPROCESS_HI_HZ, config.sample_rate)?;
        Ok(Preprocessor { filter })
    }

    /// Denoises one channel (zero-phase band-pass).
    pub fn denoise(&self, x: &[f64]) -> Vec<f64> {
        self.filter.filtfilt(x)
    }

    /// The band-pass cascade itself, for callers that run it causally with
    /// carried state: the decision path's liveness branch
    /// ([`Evidence`](crate::evidence::Evidence)) filters channel 0 through
    /// an `ht_dsp::filter::StreamingSos` over this cascade, so a chunked
    /// stream and a finished capture get the same bits. Orientation reads
    /// raw frames, so no filter phase touches the TDoA evidence.
    pub fn sos(&self) -> &Sos {
        &self.filter
    }

    /// Denoises all channels of a multichannel capture, applying one common
    /// gain afterwards so the *relative* channel levels (a directional cue)
    /// are preserved while the overall peak is normalized to ±1.
    ///
    /// # Errors
    ///
    /// Returns [`HeadTalkError::InvalidInput`] for an empty capture or
    /// mismatched channel lengths.
    pub fn denoise_channels(&self, channels: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, HeadTalkError> {
        let _span = ht_obs::span("wake.denoise");
        if channels.is_empty() || channels[0].is_empty() {
            return Err(HeadTalkError::InvalidInput(
                "capture must have at least one non-empty channel".into(),
            ));
        }
        let len = channels[0].len();
        if channels.iter().any(|c| c.len() != len) {
            return Err(HeadTalkError::InvalidInput(
                "all channels must share one length".into(),
            ));
        }
        // Per-channel denoising is a pure function of the channel, so the
        // parallel map is exactly the serial map; the common gain below is
        // computed after the barrier over all channels.
        let mut out: Vec<Vec<f64>> = ht_par::par_map(channels, |c| self.denoise(c));
        let peak = out
            .iter()
            .map(|c| ht_dsp::signal::peak(c))
            .fold(0.0f64, f64::max);
        if peak > 0.0 {
            let g = 1.0 / peak;
            for c in &mut out {
                for v in c.iter_mut() {
                    *v *= g;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::signal::{rms, tone};

    fn pre() -> Preprocessor {
        Preprocessor::new(&PipelineConfig::default()).unwrap()
    }

    #[test]
    fn rejects_out_of_band_noise() {
        let p = pre();
        // 30 Hz rumble is outside the 100–16k band.
        let rumble = tone(30.0, 48_000.0, 9600, 1.0);
        let out = p.denoise(&rumble);
        assert!(rms(&out[2400..7200]) < 0.05 * rms(&rumble[2400..7200]));
        // 1 kHz speech-band content passes.
        let speech = tone(1000.0, 48_000.0, 9600, 1.0);
        let out = p.denoise(&speech);
        assert!(rms(&out[2400..7200]) > 0.9 * rms(&speech[2400..7200]));
    }

    #[test]
    fn common_gain_preserves_channel_ratios() {
        let p = pre();
        let a = tone(1000.0, 48_000.0, 4800, 0.8);
        let b = tone(1000.0, 48_000.0, 4800, 0.4);
        let out = p.denoise_channels(&[a, b]).unwrap();
        let ratio = rms(&out[0][1200..3600]) / rms(&out[1][1200..3600]);
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
        // Normalized to peak 1 across the capture.
        let peak = out
            .iter()
            .map(|c| ht_dsp::signal::peak(c))
            .fold(0.0f64, f64::max);
        assert!((peak - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_captures_are_rejected() {
        let p = pre();
        assert!(p.denoise_channels(&[]).is_err());
        assert!(p.denoise_channels(&[vec![]]).is_err());
        assert!(p.denoise_channels(&[vec![0.0; 10], vec![0.0; 5]]).is_err());
    }

    #[test]
    fn silence_stays_silent() {
        let p = pre();
        let out = p.denoise_channels(&[vec![0.0; 256]]).unwrap();
        assert!(out[0].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bad_config_is_rejected() {
        let cfg = PipelineConfig {
            sample_rate: 8_000.0, // 16 kHz corner above Nyquist
            ..PipelineConfig::default()
        };
        assert!(Preprocessor::new(&cfg).is_err());
    }
}
