//! Proof that the steady-state STFT and GCC-PHAT paths make zero heap
//! allocations per frame: a counting global allocator wraps `System`, and
//! repeated `process_into` / `gcc_phat_from_spectra_into_mode` calls must
//! not allocate at all — an STFT processor and a plan's presized scratch
//! from their first call, a lazily sized GCC scratch after one warm-up
//! call.

use ht_dsp::check::{allocs_during, CountingAlloc};
use ht_dsp::correlate::{gcc_phat_from_spectra_into_mode, SpectraGccScratch};
use ht_dsp::stft::StftProcessor;
use ht_dsp::window::Window;
use ht_dsp::{Complex, QuantMode};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn stft_processor_is_allocation_free_after_warmup() {
    // Keep observability recording on: counters and spans must stay out of
    // the per-frame path, so the guarantee holds in instrumented runs too.
    ht_obs::set_mode(ht_obs::Mode::Json);
    let frame: Vec<f64> = (0..480).map(|k| (k as f64 * 0.07).sin()).collect();
    let mut processor = StftProcessor::with_n_fft(480, 512, Window::Hann);
    let mut out = vec![Complex::ZERO; processor.onesided_len()];

    // The scratch is presized at construction: the first frame is
    // allocation-free too.
    let n = allocs_during(|| {
        for _ in 0..64 {
            processor.process_into(&frame, &mut out);
        }
    });
    ht_obs::set_mode(ht_obs::Mode::Off);
    assert_eq!(n, 0, "steady-state STFT frames allocated {n} times");
}

#[test]
fn gcc_phat_is_allocation_free_after_warmup() {
    ht_obs::set_mode(ht_obs::Mode::Json);
    let x: Vec<f64> = (0..2048).map(|k| ((k * k) as f64 * 0.001).sin()).collect();
    let y: Vec<f64> = (0..2048).map(|k| ((k * k) as f64 * 0.001).cos()).collect();
    let plan = ht_dsp::fft::rfft_plan(ht_dsp::fft::next_pow2(2048 + 13 + 1));
    let (mut xf, mut yf) = (
        vec![Complex::ZERO; plan.onesided_len()],
        vec![Complex::ZERO; plan.onesided_len()],
    );
    plan.forward_into(&x, &mut xf, &mut plan.scratch());
    plan.forward_into(&y, &mut yf, &mut plan.scratch());
    let mut scratch = SpectraGccScratch::new();
    let mut values = vec![0.0; 2 * 13 + 1];
    let mut gcc = |mode| {
        gcc_phat_from_spectra_into_mode(&xf, &yf, &plan, 13, &mut scratch, &mut values, mode)
    };
    gcc(QuantMode::Reference);

    let n = allocs_during(|| {
        for _ in 0..64 {
            gcc(QuantMode::Reference);
            gcc(QuantMode::Int8);
        }
    });
    ht_obs::set_mode(ht_obs::Mode::Off);
    assert_eq!(n, 0, "steady-state GCC-PHAT frames allocated {n} times");
}

#[test]
fn warmed_plan_forward_into_is_allocation_free() {
    let plan = ht_dsp::fft::rfft_plan(4096);
    let x: Vec<f64> = (0..4096).map(|k| (k as f64 * 0.013).cos()).collect();
    let mut spec = vec![Complex::ZERO; plan.onesided_len()];
    let mut back = vec![0.0; plan.len()];
    // A presized scratch needs no warm-up; a lazily sized one grows once.
    let mut scratch = plan.scratch();
    let mut lazy = ht_dsp::fft::RealFftScratch::new();
    plan.forward_into(&x, &mut spec, &mut lazy);

    let n = allocs_during(|| {
        for _ in 0..64 {
            plan.forward_into(&x, &mut spec, &mut scratch);
            plan.inverse_into(&spec, &mut back, &mut scratch);
            plan.forward_into(&x, &mut spec, &mut lazy);
            plan.inverse_into(&spec, &mut back, &mut lazy);
        }
    });
    assert_eq!(n, 0, "warmed real-FFT plan allocated {n} times");
}
