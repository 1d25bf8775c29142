//! Property tests for the planned FFT engine: real-FFT round-trips over
//! random lengths and race-free deterministic plan-cache sharing across
//! `ht-par` workers. Agreement with the exact DFT is checked in the
//! `fft` unit tests, next to their compensated reference.

use ht_dsp::check::property;
use ht_dsp::fft;
use ht_dsp::Complex;
use ht_par::Pool;

#[test]
fn irfft_real_round_trips_rfft_over_random_lengths() {
    property("irfft_real_round_trips_rfft_over_random_lengths").run(|g| {
        let x = g.vec_f64(-2.0..2.0, 1..1500);
        let spec = fft::rfft(&x);
        assert_eq!(spec.len(), fft::rfft_len(x.len()));
        let back = fft::irfft_real(&spec);
        for (k, (b, orig)) in back.iter().zip(&x).enumerate() {
            assert!(
                (b - orig).abs() < 1e-9,
                "sample {k} of {}: {b} vs {orig}",
                x.len()
            );
        }
        // The zero-padded tail comes back as (numerical) zeros.
        for (k, b) in back.iter().enumerate().skip(x.len()) {
            assert!(b.abs() < 1e-9, "tail sample {k} is {b}");
        }
    });
}

#[test]
fn real_plan_inverse_inverts_forward_over_random_lengths() {
    property("real_plan_inverse_inverts_forward_over_random_lengths").run(|g| {
        let n = 1usize << g.usize_in(0..13);
        let plan = fft::rfft_plan(n);
        let x: Vec<f64> = (0..n).map(|_| g.f64_in(-1.0..1.0)).collect();
        let mut scratch = fft::RealFftScratch::new();
        let mut spec = vec![Complex::ZERO; plan.onesided_len()];
        plan.forward_into(&x, &mut spec, &mut scratch);
        // Edge bins of a real signal's spectrum are real.
        assert_eq!(spec[0].im, 0.0);
        assert_eq!(spec[plan.onesided_len() - 1].im, 0.0);
        let mut back = vec![0.0; n];
        plan.inverse_into(&spec, &mut back, &mut scratch);
        for (k, (b, orig)) in back.iter().zip(&x).enumerate() {
            assert!((b - orig).abs() < 1e-10, "n = {n}, sample {k}");
        }
    });
}

#[test]
fn one_sided_rfft_matches_full_spectrum_prefix() {
    property("one_sided_rfft_matches_full_spectrum_prefix").run(|g| {
        let x = g.vec_f64(-1.0..1.0, 1..2000);
        let full = fft::rfft(&x);
        let onesided = fft::rfft_onesided(&x);
        assert_eq!(onesided.len(), fft::rfft_onesided_len(x.len()));
        for (k, (o, f)) in onesided.iter().zip(&full).enumerate() {
            assert_eq!(*o, *f, "bin {k}: one-sided and full prefix diverge");
        }
    });
}

/// Plan-cache sharing across a 4-worker pool must be race-free and produce
/// bit-identical results to the serial path, including when the workers all
/// miss (and build) the same sizes simultaneously.
#[test]
fn plan_cache_is_race_free_and_deterministic_across_workers() {
    // Sizes chosen to overlap heavily across workers; a fresh test binary
    // means a cold cache, so the first wave of lookups races on building.
    let sizes = [
        256usize, 300, 256, 1024, 300, 777, 1024, 256, 777, 300, 512, 512,
    ];
    let signals: Vec<Vec<f64>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            (0..n)
                .map(|k| ((k * (i + 3)) as f64 * 0.01).sin())
                .collect()
        })
        .collect();

    let serial = Pool::new(1).install(|| ht_par::par_map(&signals, |x| fft::rfft(x)));
    for _ in 0..3 {
        let parallel = Pool::new(4).install(|| ht_par::par_map(&signals, |x| fft::rfft(x)));
        assert_eq!(serial, parallel, "thread count changed rfft results");
    }

    // The cache hands every worker the same shared plan instance.
    let arcs = Pool::new(4).install(|| ht_par::par_map(&sizes, |&n| fft::rfft_plan(n)));
    for (a, &n) in arcs.iter().zip(&sizes) {
        assert!(
            std::sync::Arc::ptr_eq(a, &fft::rfft_plan(n)),
            "size {n} not served from the shared cache"
        );
    }
}
