//! Window functions for spectral analysis and FIR design.

/// Supported window shapes.
///
/// # Example
///
/// ```
/// use ht_dsp::window::Window;
///
/// let w = Window::Hann.coefficients(8);
/// assert_eq!(w.len(), 8);
/// // Hann endpoints are zero.
/// assert!(w[0].abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Window {
    /// Hann (raised cosine); the default for STFT work.
    #[default]
    Hann,
    /// Blackman.
    Blackman,
}

impl Window {
    /// Generates the window coefficients for a window of length `n`.
    ///
    /// Uses the periodic ("DFT-even") convention for `n > 1`, which is the
    /// right choice for STFT analysis with overlap-add.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        let nf = n as f64;
        (0..n)
            .map(|i| {
                let x = 2.0 * std::f64::consts::PI * i as f64 / nf;
                match self {
                    Window::Hann => 0.5 - 0.5 * x.cos(),
                    Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
                }
            })
            .collect()
    }
}

/// Symmetric windowed-sinc low-pass FIR prototype with `taps` coefficients
/// and cutoff `fc` (normalized to the sample rate, 0 < fc < 0.5), windowed by
/// `window`. Used by the resampler's anti-alias filter.
///
/// The kernel is normalized to unit DC gain.
pub fn sinc_lowpass(taps: usize, fc: f64, window: Window) -> Vec<f64> {
    assert!(taps >= 1, "FIR length must be at least 1");
    assert!(fc > 0.0 && fc < 0.5, "cutoff must be in (0, 0.5)");
    let m = (taps - 1) as f64 / 2.0;
    let w = symmetric_coefficients(window, taps);
    let mut h: Vec<f64> = (0..taps)
        .map(|i| {
            let t = i as f64 - m;
            let sinc = if t.abs() < 1e-12 {
                2.0 * fc
            } else {
                (2.0 * std::f64::consts::PI * fc * t).sin() / (std::f64::consts::PI * t)
            };
            sinc * w[i]
        })
        .collect();
    let sum: f64 = h.iter().sum();
    for v in &mut h {
        *v /= sum;
    }
    h
}

/// Symmetric (filter-design) variant of the window coefficients.
fn symmetric_coefficients(window: Window, n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![1.0; n];
    }
    let nf = (n - 1) as f64;
    (0..n)
        .map(|i| {
            let x = 2.0 * std::f64::consts::PI * i as f64 / nf;
            match window {
                Window::Hann => 0.5 - 0.5 * x.cos(),
                Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_edges() {
        for w in [Window::Hann, Window::Blackman] {
            assert!(w.coefficients(0).is_empty());
            assert_eq!(w.coefficients(1), vec![1.0]);
            assert_eq!(w.coefficients(64).len(), 64);
        }
    }

    #[test]
    fn windows_are_bounded_by_unity() {
        for w in [Window::Hann, Window::Blackman] {
            for c in w.coefficients(128) {
                assert!((-1e-12..=1.0 + 1e-12).contains(&c), "{w:?} produced {c}");
            }
        }
    }

    #[test]
    fn hann_peak_is_at_center() {
        let c = Window::Hann.coefficients(64);
        let (imax, _) = c
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(imax, 32); // periodic convention peaks at n/2
    }

    #[test]
    fn sinc_lowpass_has_unit_dc_gain() {
        let h = sinc_lowpass(63, 0.15, Window::Hann);
        let dc: f64 = h.iter().sum();
        assert!((dc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sinc_lowpass_attenuates_high_frequency() {
        let h = sinc_lowpass(127, 0.1, Window::Blackman);
        // Evaluate |H(f)| at f = 0.05 (passband) and f = 0.25 (stopband).
        let mag = |f: f64| {
            let (mut re, mut im) = (0.0, 0.0);
            for (n, &c) in h.iter().enumerate() {
                let p = -2.0 * std::f64::consts::PI * f * n as f64;
                re += c * p.cos();
                im += c * p.sin();
            }
            (re * re + im * im).sqrt()
        };
        assert!(mag(0.05) > 0.9);
        assert!(mag(0.25) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn sinc_lowpass_rejects_bad_cutoff() {
        sinc_lowpass(11, 0.6, Window::Hann);
    }
}
