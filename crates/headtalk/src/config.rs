//! Pipeline configuration.

use ht_acoustics::array::Device;

/// Pre-filter low corner in Hz (paper: 100 Hz).
pub const PREPROCESS_LO_HZ: f64 = 100.0;

/// Pre-filter high corner in Hz (paper: 16 000 Hz).
pub const PREPROCESS_HI_HZ: f64 = 16_000.0;

/// Number of top SRP peaks kept as features (paper: 3).
pub const SRP_PEAKS: usize = 3;

/// Number of low-band chunks for the directivity features (paper: 20).
pub const LOW_BAND_CHUNKS: usize = 20;

/// End-to-end pipeline configuration. The paper's fixed choices (the
/// pre-filter corners, [`SRP_PEAKS`], [`LOW_BAND_CHUNKS`]) are constants
/// beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Input sample rate in Hz (the prototype devices record at 48 kHz).
    pub sample_rate: f64,
    /// One-sided SRP/GCC lag window in samples (device dependent: ±12 for
    /// D1, ±13 for D2, ±10 for D3; §III-B3).
    pub max_lag: usize,
    /// Liveness input length in samples at 16 kHz (utterances are padded or
    /// center-cropped to this length).
    pub liveness_input_len: usize,
}

impl PipelineConfig {
    /// Configuration for one of the three prototype devices, matching the
    /// paper's per-device lag windows.
    pub fn for_device(device: Device) -> PipelineConfig {
        PipelineConfig {
            max_lag: device.srp_max_lag(),
            ..PipelineConfig::default()
        }
    }

    /// The analysis frame geometry `(frame_len, hop)` this configuration
    /// implies: 20 ms frames advancing by 10 ms (960/480 samples at the
    /// paper's 48 kHz), the classic speech-analysis framing.
    /// [`Evidence`](crate::evidence::Evidence), the one route every
    /// decision takes, frames at this geometry.
    pub fn analysis_frame_geometry(&self) -> (usize, usize) {
        let hop = (self.sample_rate / 100.0).round().max(1.0) as usize;
        (2 * hop, hop)
    }

    /// The longest capture a decision accepts, in samples per channel:
    /// 4 s of audio (192 000 samples at 48 kHz), the length the liveness
    /// buffer is presized for. [`Evidence`](crate::evidence::Evidence)
    /// refuses a push past it with
    /// [`StreamError::CaptureTooLong`](ht_stream::StreamError::CaptureTooLong),
    /// so a session that never stops pushing stays bounded.
    pub fn max_capture_samples(&self) -> usize {
        (self.sample_rate * crate::evidence::PRESIZE_SECS) as usize
    }

    /// The directivity accumulation segment length in samples: the next
    /// power of two above half a second of audio (32 768 at the paper's
    /// 48 kHz, ≈683 ms — ≈1.5 Hz bins), long enough to resolve the voice's
    /// harmonic structure inside each 15 Hz low-band chunk.
    pub fn directivity_segment_len(&self) -> usize {
        let half_second = (self.sample_rate * 0.5).ceil().max(1.0) as usize;
        half_second.next_power_of_two()
    }
}

impl Default for PipelineConfig {
    /// The paper's default setup: device D2 at 48 kHz.
    fn default() -> Self {
        PipelineConfig {
            sample_rate: 48_000.0,
            max_lag: Device::D2.srp_max_lag(),
            liveness_input_len: 8_000, // 0.5 s at 16 kHz
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = PipelineConfig::default();
        assert_eq!(c.sample_rate, 48_000.0);
        assert_eq!(PREPROCESS_LO_HZ, 100.0);
        assert_eq!(PREPROCESS_HI_HZ, 16_000.0);
        assert_eq!(c.max_lag, 13); // D2
        assert_eq!(SRP_PEAKS, 3);
        assert_eq!(LOW_BAND_CHUNKS, 20);
    }

    #[test]
    fn per_device_lag_windows() {
        assert_eq!(PipelineConfig::for_device(Device::D1).max_lag, 12);
        assert_eq!(PipelineConfig::for_device(Device::D2).max_lag, 13);
        assert_eq!(PipelineConfig::for_device(Device::D3).max_lag, 10);
    }
}
