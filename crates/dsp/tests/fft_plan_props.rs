//! Property tests for the planned FFT engine: zero-padding and
//! round-trips of the real plan over random lengths, and race-free
//! deterministic plan-cache sharing across `ht-par` workers. Agreement with
//! the exact DFT is checked in the `fft` unit tests, next to their
//! compensated reference.

use ht_dsp::check::property;
use ht_dsp::fft;
use ht_dsp::Complex;
use ht_par::Pool;

/// `forward_into` of a short input equals, bit for bit, `forward_into` of
/// the same input zero-padded to the plan length — the equality the
/// directivity accumulator's partial-segment flush relies on.
#[test]
fn forward_into_zero_pads_short_input_bit_for_bit() {
    property("forward_into_zero_pads_short_input_bit_for_bit").run(|g| {
        let n = 1usize << g.usize_in(0..13);
        let len = g.usize_in(0..n + 1);
        let x: Vec<f64> = (0..len).map(|_| g.f64_in(-2.0..2.0)).collect();
        let plan = fft::rfft_plan(n);
        let mut scratch = plan.scratch();
        let mut short = vec![Complex::ZERO; plan.onesided_len()];
        plan.forward_into(&x, &mut short, &mut scratch);
        let mut padded = x.clone();
        padded.resize(n, 0.0);
        let mut full = vec![Complex::ZERO; plan.onesided_len()];
        plan.forward_into(&padded, &mut full, &mut scratch);
        for (k, (s, f)) in short.iter().zip(&full).enumerate() {
            assert!(
                s.re.to_bits() == f.re.to_bits() && s.im.to_bits() == f.im.to_bits(),
                "n = {n}, len = {len}, bin {k}: {s:?} vs {f:?}"
            );
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

    let serial = Pool::new(1).install(|| ht_par::par_map(&signals, |x| fft::rfft_onesided(x)));
    for _ in 0..3 {
        let parallel =
            Pool::new(4).install(|| ht_par::par_map(&signals, |x| fft::rfft_onesided(x)));
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
