//! Proof that the steady-state STFT and GCC-PHAT paths make zero heap
//! allocations per frame: a counting global allocator wraps `System`, and
//! after one warm-up call (which sizes the plan scratch) repeated
//! `process_into` / `gcc_phat_from_spectra_into_mode` calls must not
//! allocate at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ht_dsp::correlate::{gcc_phat_from_spectra_into_mode, SpectraGccScratch};
use ht_dsp::stft::StftProcessor;
use ht_dsp::window::Window;
use ht_dsp::{Complex, QuantMode};

struct CountingAlloc;

thread_local! {
    // Const-initialized `Cell<u64>`: no lazy-init allocation and no
    // destructor, so the counter itself never perturbs the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

#[test]
fn stft_processor_is_allocation_free_after_warmup() {
    // Keep observability recording on: counters and spans must stay out of
    // the per-frame path, so the guarantee holds in instrumented runs too.
    ht_obs::set_mode(ht_obs::Mode::Json);
    let frame: Vec<f64> = (0..480).map(|k| (k as f64 * 0.07).sin()).collect();
    let mut processor = StftProcessor::new(480, Window::Hann);
    let mut out = vec![Complex::ZERO; processor.onesided_len()];
    // Warm-up: builds/fetches the plan and sizes the packed scratch.
    processor.process_into(&frame, &mut out);

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
    let (xf, yf) = (plan.forward(&x), plan.forward(&y));
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
    let mut scratch = ht_dsp::fft::RealFftScratch::new();
    plan.forward_into(&x, &mut spec, &mut scratch);
    plan.inverse_into(&spec, &mut back, &mut scratch);

    let n = allocs_during(|| {
        for _ in 0..64 {
            plan.forward_into(&x, &mut spec, &mut scratch);
            plan.inverse_into(&spec, &mut back, &mut scratch);
        }
    });
    assert_eq!(n, 0, "warmed real-FFT plan allocated {n} times");
}
