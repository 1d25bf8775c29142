//! Property-based tests for the DSP crate's numerical invariants, running
//! on the in-repo `ht_dsp::check` harness (deterministic per-case seeds,
//! `HT_CHECK_SEED=…` replay).
#![allow(clippy::manual_range_contains)]

use ht_dsp::check::property;
use ht_dsp::filter::Butterworth;
use ht_dsp::window::Window;

#[test]
fn convolution_is_linear() {
    property("convolution_is_linear").run(|g| {
        let a = g.vec_f64(-1.0..1.0, 4..64);
        let b = g.vec_f64(-1.0..1.0, 4..64);
        let k = g.vec_f64(-1.0..1.0, 2..16);
        // conv(a + b, k) == conv(a, k) + conv(b, k) for equal-length a, b.
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let sum: Vec<f64> = a.iter().zip(b).map(|(x, y)| x + y).collect();
        let lhs = ht_dsp::convolve::convolve_direct(&sum, &k);
        let ca = ht_dsp::convolve::convolve_direct(a, &k);
        let cb = ht_dsp::convolve::convolve_direct(b, &k);
        for ((l, x), y) in lhs.iter().zip(ca.iter()).zip(cb.iter()) {
            assert!((l - (x + y)).abs() < 1e-9);
        }
    });
}

#[test]
fn fft_and_direct_convolution_agree() {
    property("fft_and_direct_convolution_agree").run(|g| {
        let x = g.vec_f64(-1.0..1.0, 8..128);
        let h = g.vec_f64(-1.0..1.0, 2..32);
        let direct = ht_dsp::convolve::convolve_direct(&x, &h);
        let fft = ht_dsp::convolve::convolve_fft(&x, &h);
        assert_eq!(direct.len(), fft.len());
        for (d, f) in direct.iter().zip(fft.iter()) {
            assert!((d - f).abs() < 1e-8);
        }
    });
}

#[test]
fn decimation_preserves_dc() {
    property("decimation_preserves_dc").run(|g| {
        let level = g.f64_in(-2.0..2.0);
        let factor = g.usize_in(1..5);
        // A constant signal stays (approximately) constant after the
        // anti-aliased decimator, away from the edges.
        let x = vec![level; 600];
        let y = ht_dsp::resample::decimate(&x, factor).unwrap();
        let mid = &y[y.len() / 4..y.len() * 3 / 4];
        for v in mid {
            assert!((v - level).abs() < 0.02 * level.abs().max(0.1));
        }
    });
}

#[test]
fn filters_are_stable() {
    property("filters_are_stable").run(|g| {
        let order = g.usize_in(1..8);
        let fc = g.f64_in(100.0..20_000.0);
        let x = g.vec_f64(-1.0..1.0, 32..256);
        let f = Butterworth::lowpass(order, fc, 48_000.0).unwrap();
        let y = f.filter(&x);
        // Bounded input, bounded output: no blow-ups for any valid design.
        assert!(y.iter().all(|v| v.is_finite() && v.abs() < 100.0));
    });
}

#[test]
fn windows_never_amplify() {
    property("windows_never_amplify").run(|g| {
        let n = g.usize_in(1..512);
        for w in [
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::Rect,
        ] {
            let c = w.coefficients(n);
            assert_eq!(c.len(), n);
            assert!(c.iter().all(|&v| v <= 1.0 + 1e-12 && v >= -1e-12));
        }
    });
}

#[test]
fn statistics_shift_invariance() {
    property("statistics_shift_invariance").run(|g| {
        let x = g.vec_f64(-10.0..10.0, 3..64);
        let shift = g.f64_in(-100.0..100.0);
        let shifted: Vec<f64> = x.iter().map(|v| v + shift).collect();
        assert!((ht_dsp::stats::std_dev(&x) - ht_dsp::stats::std_dev(&shifted)).abs() < 1e-8);
        assert!((ht_dsp::stats::mad(&x) - ht_dsp::stats::mad(&shifted)).abs() < 1e-8);
        assert!((ht_dsp::stats::skewness(&x) - ht_dsp::stats::skewness(&shifted)).abs() < 1e-6);
        assert!((ht_dsp::stats::kurtosis(&x) - ht_dsp::stats::kurtosis(&shifted)).abs() < 1e-6);
    });
}

#[test]
fn percentile_is_monotone() {
    property("percentile_is_monotone").run(|g| {
        let mut x = g.vec_f64(-10.0..10.0, 2..64);
        let p1 = g.f64_in(0.0..100.0);
        let p2 = g.f64_in(0.0..100.0);
        x.sort_by(f64::total_cmp);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(ht_dsp::stats::percentile(&x, lo) <= ht_dsp::stats::percentile(&x, hi) + 1e-12);
    });
}

#[test]
fn zscore_is_idempotent_in_distribution() {
    property("zscore_is_idempotent_in_distribution").run(|g| {
        let x = g.vec_f64(-5.0..5.0, 8..128);
        // Skip near-constant inputs (z-scoring maps them to zero).
        if ht_dsp::stats::std_dev(&x) <= 1e-6 {
            return;
        }
        let mut once = x.clone();
        ht_dsp::signal::normalize_zscore(&mut once);
        let mut twice = once.clone();
        ht_dsp::signal::normalize_zscore(&mut twice);
        for (a, b) in once.iter().zip(twice.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    });
}
