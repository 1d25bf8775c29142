//! Framing and the short-time Fourier transform: [`frames`] splits a
//! signal, and a [`StftProcessor`] transforms one windowed frame at a time
//! with no allocation.

use crate::complex::Complex;
use crate::fft;
use crate::window::Window;

/// Splits `x` into frames of `size` samples advancing by `hop` samples.
/// The final partial frame is zero-padded. Returns no frames for an empty
/// signal.
///
/// # Panics
///
/// Panics if `size == 0` or `hop == 0`.
pub fn frames(x: &[f64], size: usize, hop: usize) -> Vec<Vec<f64>> {
    assert!(size > 0, "frame size must be positive");
    assert!(hop > 0, "hop must be positive");
    if x.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut start = 0;
    while start < x.len() {
        let end = (start + size).min(x.len());
        let mut frame = x[start..end].to_vec();
        frame.resize(size, 0.0);
        out.push(frame);
        start += hop;
    }
    out
}

/// A streaming single-frame STFT engine: window coefficients, the FFT plan
/// and all working buffers are allocated once at construction, so
/// [`process_into`](StftProcessor::process_into) is allocation-free — one
/// processor serves every frame of a capture (and the next capture of the
/// same geometry).
#[derive(Debug, Clone)]
pub struct StftProcessor {
    plan: std::sync::Arc<fft::RealFftPlan>,
    window: Vec<f64>,
    buf: Vec<f64>,
    scratch: fft::RealFftScratch,
}

impl StftProcessor {
    /// Builds a processor for frames of `frame_size` samples, weighted by
    /// `window` and zero-padded to at least `n_fft` samples (rounded up to
    /// a power of two by the plan cache). Streaming correlation wants a pad
    /// margin: circular GCC lags up to `±max_lag` only stay alias-free when
    /// `n_fft ≥ frame_size + max_lag + 1`. The FFT scratch is presized
    /// here, so the first frame costs what every later one does.
    ///
    /// # Panics
    ///
    /// Panics if `frame_size == 0` or `n_fft < frame_size`.
    pub fn with_n_fft(frame_size: usize, n_fft: usize, window: Window) -> StftProcessor {
        assert!(frame_size > 0, "frame size must be positive");
        assert!(
            n_fft >= frame_size,
            "n_fft {n_fft} must cover the frame size {frame_size}"
        );
        let plan = fft::rfft_plan(n_fft);
        StftProcessor {
            window: window.coefficients(frame_size),
            buf: vec![0.0; frame_size],
            scratch: plan.scratch(),
            plan,
        }
    }

    /// The frame size the window was built for.
    pub fn frame_size(&self) -> usize {
        self.window.len()
    }

    /// The FFT length frames are zero-padded to.
    pub fn n_fft(&self) -> usize {
        self.plan.len()
    }

    /// Number of one-sided output bins, `n_fft/2 + 1` — the required
    /// length of the `out` buffer for
    /// [`process_into`](StftProcessor::process_into).
    pub fn onesided_len(&self) -> usize {
        self.plan.onesided_len()
    }

    /// The processor's plan and FFT scratch, for other transforms of the
    /// same size between frames: the frame analyzer runs its assembly-time
    /// inverses through them, so it holds no second plan handle or
    /// scratch.
    pub fn plan_and_scratch(&mut self) -> (&fft::RealFftPlan, &mut fft::RealFftScratch) {
        (&self.plan, &mut self.scratch)
    }

    /// Windows one frame and writes its one-sided spectrum into `out`.
    /// Frames shorter than [`frame_size`](StftProcessor::frame_size) are
    /// zero-padded. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len() > self.frame_size()` or
    /// `out.len() != self.onesided_len()`.
    pub fn process_into(&mut self, frame: &[f64], out: &mut [Complex]) {
        assert!(
            frame.len() <= self.frame_size(),
            "frame length {} exceeds the processor's frame size {}",
            frame.len(),
            self.frame_size()
        );
        assert_eq!(out.len(), self.onesided_len(), "one-sided output length");
        for ((b, w), s) in self.buf.iter_mut().zip(&self.window).zip(frame) {
            *b = s * w;
        }
        self.buf[frame.len()..].fill(0.0);
        self.plan.forward_into(&self.buf, out, &mut self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::tone;

    #[test]
    fn frame_count_and_padding() {
        let x = vec![1.0; 10];
        let f = frames(&x, 4, 2);
        assert_eq!(f.len(), 5); // starts at 0,2,4,6,8
        assert_eq!(f[4], vec![1.0, 1.0, 0.0, 0.0]);
        assert!(frames(&[], 4, 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "hop")]
    fn zero_hop_panics() {
        frames(&[1.0], 4, 0);
    }

    #[test]
    fn stft_tone_concentrates_in_one_bin() {
        let sr = 16_000.0;
        let x = tone(2000.0, sr, 16_000, 1.0);
        let mut p = StftProcessor::with_n_fft(512, 512, Window::Hann);
        let mut out = vec![Complex::ZERO; p.onesided_len()];
        let mut avg = vec![0.0; p.onesided_len()];
        for frame in frames(&x, 512, 256) {
            p.process_into(&frame, &mut out);
            for (a, z) in avg.iter_mut().zip(&out) {
                *a += z.abs();
            }
        }
        let peak = crate::peak::argmax(&avg).unwrap();
        assert!((peak as f64 * sr / 512.0 - 2000.0).abs() < sr / 512.0);
    }

    #[test]
    fn stft_dimensions() {
        let p = StftProcessor::with_n_fft(256, 256, Window::Blackman);
        assert_eq!(p.frame_size(), 256);
        assert_eq!(p.n_fft(), 256);
        assert_eq!(p.onesided_len(), 129);
        assert_eq!(frames(&[0.5; 1000], 256, 128).len(), 8);
    }

    #[test]
    fn empty_signal_yields_no_frames() {
        assert!(frames(&[], 256, 128).is_empty());
    }

    #[test]
    fn with_n_fft_adds_pad_margin_without_changing_covered_bins() {
        // A 960-sample frame padded to 1024 (the streaming geometry: pad
        // margin ≥ max_lag keeps circular GCC lags alias-free).
        let mut p = StftProcessor::with_n_fft(960, 1024, Window::Hann);
        assert_eq!(p.frame_size(), 960);
        assert_eq!(p.n_fft(), 1024);
        // Identical to hand-padding the windowed frame through the plan.
        let x = tone(997.0, 48_000.0, 960, 0.7);
        let mut out = vec![Complex::ZERO; p.onesided_len()];
        p.process_into(&x, &mut out);
        let coeffs = Window::Hann.coefficients(960);
        let mut windowed: Vec<f64> = x.iter().zip(&coeffs).map(|(s, w)| s * w).collect();
        windowed.resize(1024, 0.0);
        assert_eq!(out, crate::fft::rfft_onesided(&windowed));
    }

    #[test]
    #[should_panic(expected = "must cover")]
    fn with_n_fft_rejects_short_fft() {
        StftProcessor::with_n_fft(960, 512, Window::Hann);
    }

    #[test]
    fn processor_zero_pads_short_frames() {
        let mut p = StftProcessor::with_n_fft(64, 64, Window::Hann);
        let mut out = vec![Complex::ZERO; p.onesided_len()];
        // A half-filled frame equals a fully zero-padded one.
        p.process_into(&[1.0; 32], &mut out);
        let mut padded = [0.0; 64];
        padded[..32].fill(1.0);
        let mut expect = vec![Complex::ZERO; p.onesided_len()];
        p.process_into(&padded, &mut expect);
        assert_eq!(out, expect);
    }
}
