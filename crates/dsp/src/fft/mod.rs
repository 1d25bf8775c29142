//! Fast Fourier transform: power-of-two real FFTs executed through cached
//! [plans](plan).
//!
//! Forward transforms are unnormalized; the inverse
//! ([`RealFftPlan::inverse_into`]) divides by the length, so the pair
//! round-trips.
//!
//! [`rfft_onesided`] and [`rfft_magnitude`] are one-shot wrappers over the
//! process-wide plan cache ([`rfft_plan`]) for whole-signal analyses such
//! as [`crate::spectrum::Spectrum::of`]; each call allocates its output and
//! a scratch. Hot loops hold a plan and a presized scratch directly — see
//! [`RealFftPlan::forward_into`], [`crate::stft::StftProcessor`] and
//! [`crate::correlate::lag_window_into`].

pub mod plan;

use crate::complex::Complex;

pub use plan::{rfft_plan, RealFftPlan, RealFftScratch};

/// Returns the smallest power of two `>= n` (and at least 1).
///
/// # Example
///
/// ```
/// assert_eq!(ht_dsp::fft::next_pow2(1000), 1024);
/// assert_eq!(ht_dsp::fft::next_pow2(1024), 1024);
/// assert_eq!(ht_dsp::fft::next_pow2(0), 1);
/// ```
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// One-sided forward FFT of a real signal, zero-padded to the next power of
/// two: bins `0 ..= n/2` of the `n = next_pow2(x.len())`-point DFT. The
/// remaining bins are redundant for real input (conjugate symmetry).
pub fn rfft_onesided(x: &[f64]) -> Vec<Complex> {
    let p = rfft_plan(x.len());
    let mut out = vec![Complex::ZERO; p.onesided_len()];
    p.forward_into(x, &mut out, &mut p.scratch());
    out
}

/// One-sided magnitude spectrum of a real signal: `|X[0..=N/2]|` with
/// `N = next_pow2(x.len())`, so the length is `N/2 + 1` and bin `k`
/// corresponds to frequency `k * sample_rate / N`; the last bin is exactly
/// Nyquist.
pub fn rfft_magnitude(x: &[f64]) -> Vec<f64> {
    rfft_onesided(x).into_iter().map(|z| z.abs()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    /// Exact DFT bin `X[k]` by compensated (Kahan) summation over an
    /// independently rounded twiddle table, so the reference error stays
    /// near machine epsilon even for long transforms.
    fn dft_bin(x: &[Complex], table: &[Complex], k: usize) -> Complex {
        let n = x.len();
        let (mut sr, mut si, mut cr, mut ci) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (j, xj) in x.iter().enumerate() {
            let p = *xj * table[(k * j) % n];
            let yr = p.re - cr;
            let tr = sr + yr;
            cr = (tr - sr) - yr;
            sr = tr;
            let yi = p.im - ci;
            let ti = si + yi;
            ci = (ti - si) - yi;
            si = ti;
        }
        Complex::new(sr, si)
    }

    fn twiddle_table(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|t| Complex::from_angle(-2.0 * std::f64::consts::PI * t as f64 / n as f64))
            .collect()
    }

    /// One-sided bins of the exact DFT of `x` zero-padded to `n` — the
    /// naive O(N²) ground truth for small sizes.
    fn dft_onesided(x: &[f64], n: usize) -> Vec<Complex> {
        let mut padded: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
        padded.resize(n, Complex::ZERO);
        let table = twiddle_table(n);
        (0..=n / 2).map(|k| dft_bin(&padded, &table, k)).collect()
    }

    fn ramp(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| k as f64 * 0.5 - 1.0 + (k as f64 * 0.3).sin())
            .collect()
    }

    /// `forward_into` through a presized scratch.
    fn forward(plan: &RealFftPlan, x: &[f64]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; plan.onesided_len()];
        plan.forward_into(x, &mut out, &mut plan.scratch());
        out
    }

    /// `inverse_into` through a presized scratch.
    fn inverse(plan: &RealFftPlan, spec: &[Complex]) -> Vec<f64> {
        let mut out = vec![0.0; plan.len()];
        plan.inverse_into(spec, &mut out, &mut plan.scratch());
        out
    }

    #[test]
    fn fft_matches_naive_dft_pow2() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = ramp(n);
            assert!(
                max_err(&rfft_onesided(&x), &dft_onesided(&x, n)) < 1e-9,
                "n = {n}"
            );
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        for n in [1usize, 2, 8, 64, 1024] {
            let plan = RealFftPlan::new(n);
            let x = ramp(n);
            let back = inverse(&plan, &forward(&plan, &x));
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "n = {n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![0.0; 16];
        x[0] = 1.0;
        for bin in rfft_onesided(&x) {
            assert!((bin.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let x = ramp(n);
        let spec = rfft_onesided(&x);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        // Bins 1 .. n/2 − 1 stand for two bins of the full spectrum each.
        let edges = spec[0].norm_sqr() + spec[n / 2].norm_sqr();
        let inner: f64 = spec[1..n / 2].iter().map(|z| z.norm_sqr()).sum();
        let freq_energy = (edges + 2.0 * inner) / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn rfft_matches_complex_fft_of_padded_input() {
        for len in [1usize, 2, 5, 17, 100, 260] {
            let x: Vec<f64> = (0..len).map(|k| ((k * k) as f64 * 0.013).sin()).collect();
            let onesided = rfft_onesided(&x);
            let exact = dft_onesided(&x, next_pow2(len));
            assert_eq!(onesided.len(), exact.len());
            assert!(
                max_err(&onesided, &exact) < 1e-9,
                "one-sided spectrum disagrees at len {len}"
            );
        }
    }

    #[test]
    fn rfft_magnitude_locates_tone() {
        let sr = 48_000.0;
        let f = 3000.0;
        let x: Vec<f64> = (0..4096)
            .map(|n| (2.0 * std::f64::consts::PI * f * n as f64 / sr).sin())
            .collect();
        let mag = rfft_magnitude(&x);
        let peak = mag
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let hz_per_bin = sr / 4096.0;
        assert!((peak as f64 * hz_per_bin - f).abs() <= hz_per_bin);
    }

    #[test]
    fn onesided_len_matches_magnitude_output() {
        for n in [1usize, 5, 16, 1000] {
            let x = vec![0.25; n];
            let plan = rfft_plan(n);
            assert_eq!(rfft_magnitude(&x).len(), plan.onesided_len(), "n = {n}");
            assert_eq!(plan.len(), next_pow2(n));
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(rfft_onesided(&[]), vec![Complex::ZERO]);
        assert_eq!(rfft_onesided(&[2.5]), vec![Complex::new(2.5, 0.0)]);
        assert_eq!(
            inverse(&RealFftPlan::new(1), &[Complex::new(2.5, 0.0)]),
            [2.5]
        );
        // n = 2: the half-size complex transform has length 1.
        let two = RealFftPlan::new(2);
        let spec = forward(&two, &[1.0, 3.0]);
        assert_eq!(spec, [Complex::new(4.0, 0.0), Complex::new(-2.0, 0.0)]);
        assert_eq!(inverse(&two, &spec), [1.0, 3.0]);
    }

    #[test]
    fn linearity_of_transform() {
        let a = ramp(32);
        let b: Vec<f64> = a.iter().map(|v| (v * 1.7).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + 0.3 * y).collect();
        let lhs = rfft_onesided(&sum);
        let fa = rfft_onesided(&a);
        let fb = rfft_onesided(&b);
        let rhs: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x + y.scale(0.3)).collect();
        assert!(max_err(&lhs, &rhs) < 1e-9);
    }

    /// Accuracy regression at n = 16384 against the exact DFT, evaluated on
    /// a strided sample of bins (rounding error spreads over the whole
    /// spectrum, so a sample captures it; the full O(N²) reference would
    /// take minutes in a debug build). Every twiddle is an independently
    /// rounded table entry rather than a `w *= wlen` running product, so
    /// the error must stay below `PLANNED_CEILING`.
    #[test]
    fn planned_fft_error_at_16384_stays_under_ceiling() {
        const N: usize = 16384;
        const PLANNED_CEILING: f64 = 1e-10;

        let x: Vec<f64> = (0..N)
            .map(|k| {
                let t = k as f64 * 0.001;
                (3.1 * t).sin() + 0.25 * (17.0 * t).cos() + 0.5 * (0.7 * t).sin()
            })
            .collect();
        let planned = forward(&RealFftPlan::new(N), &x);

        let table = twiddle_table(N);
        let complex: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
        // Stride coprime to N so the sampled bins sweep the one-sided
        // spectrum, plus the edge bins.
        let bins: Vec<usize> = (0..=N / 2).step_by(67).chain([1, N / 2]).collect();
        let mut scale = 0.0f64;
        let mut planned_err = 0.0f64;
        for &k in &bins {
            let exact = dft_bin(&complex, &table, k);
            scale = scale.max(exact.abs());
            planned_err = planned_err.max((planned[k] - exact).abs());
        }
        let planned_err = planned_err / scale;
        assert!(
            planned_err < PLANNED_CEILING,
            "planned table error too large: {planned_err:.3e}"
        );
    }

    #[test]
    fn planned_fft_matches_kahan_dft_on_pow2_sizes() {
        crate::check::property("planned_fft_matches_kahan_dft_on_pow2_sizes").run(|g| {
            let n = 1usize << g.usize_in(0..12);
            let x: Vec<f64> = (0..n).map(|_| g.f64_in(-1.0..1.0)).collect();
            let plan = RealFftPlan::new(n);
            let planned = forward(&plan, &x);
            for (p, e) in planned.iter().zip(&dft_onesided(&x, n)) {
                assert!((*p - *e).abs() < 1e-8 * (n as f64).max(1.0), "n = {n}");
            }
            let back = inverse(&plan, &planned);
            for (b, orig) in back.iter().zip(&x) {
                assert!((b - orig).abs() < 1e-9, "round trip at n = {n}");
            }
        });
    }

    #[test]
    fn real_plan_round_trips_through_scratch() {
        let p = plan::RealFftPlan::new(256);
        let mut scratch = plan::RealFftScratch::new();
        let x: Vec<f64> = (0..256).map(|k| ((k * 7) as f64 * 0.02).sin()).collect();
        let mut spec = vec![Complex::ZERO; p.onesided_len()];
        p.forward_into(&x, &mut spec, &mut scratch);
        let mut back = vec![0.0; p.len()];
        p.inverse_into(&spec, &mut back, &mut scratch);
        for (a, b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn plan_cache_returns_shared_instances() {
        let a = plan::rfft_plan(1024);
        let b = plan::rfft_plan(1000); // rounds up to the same 1024 entry
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert!(!std::sync::Arc::ptr_eq(&a, &plan::rfft_plan(2048)));
    }
}
