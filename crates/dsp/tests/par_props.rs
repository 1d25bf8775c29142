//! Property-based tests for the `ht-par` determinism contract, running on
//! the in-repo `ht_dsp::check` harness (deterministic per-case seeds,
//! `HT_CHECK_SEED=…` replay).
//!
//! The contract under test: for any input and any thread count, every
//! `par_*` operation returns exactly what the serial equivalent returns —
//! including outputs driven by per-index RNG streams — and panics inside
//! worker closures surface to the caller with their payload intact.

use ht_dsp::check::property;
use ht_dsp::rng::{split_stream, Rng};
use ht_par::Pool;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The thread widths every property sweeps: serial, even, odd, and
/// oversubscribed relative to the test inputs.
const WIDTHS: [usize; 4] = [1, 2, 3, 8];

#[test]
fn par_map_equals_serial_map() {
    property("par_map_equals_serial_map").run(|g| {
        let xs = g.vec_f64(-1e6..1e6, 0..200);
        let serial: Vec<f64> = xs.iter().map(|&x| (x * 1.5).sin() + x).collect();
        for threads in WIDTHS {
            let par = Pool::new(threads).par_map(&xs, |&x| (x * 1.5).sin() + x);
            // Bit-exact, not approximately equal: scheduling must never
            // change what is computed, only when.
            assert_eq!(
                par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    });
}

#[test]
fn par_map_indexed_with_split_stream_is_width_independent() {
    property("par_map_indexed_with_split_stream_is_width_independent").run(|g| {
        let seed = g.u64_in(0..u64::MAX);
        let n = g.usize_in(0..120);
        let items: Vec<usize> = (0..n).collect();
        // Per-item RNG forked from (seed, index): the canonical pattern the
        // workspace uses for deterministic parallel randomness.
        let draw = |i: usize| split_stream(seed, i as u64).next_u64();
        let serial: Vec<u64> = items.iter().map(|&i| draw(i)).collect();
        for threads in WIDTHS {
            let par = Pool::new(threads).par_map_indexed(&items, |i, _| draw(i));
            assert_eq!(par, serial, "{threads} threads");
        }
    });
}

#[test]
fn empty_and_singleton_inputs_for_every_width() {
    property("empty_and_singleton_inputs_for_every_width").run(|g| {
        let lone = g.f64_in(-10.0..10.0);
        for threads in WIDTHS {
            let pool = Pool::new(threads);
            let empty: Vec<f64> = Vec::new();
            assert!(pool.par_map(&empty, |&x| x * 2.0).is_empty());
            assert_eq!(pool.par_map(&[lone], |&x| x * 2.0), vec![lone * 2.0]);
        }
    });
}

#[test]
fn panics_propagate_from_any_item_and_width() {
    property("panics_propagate_from_any_item_and_width").run(|g| {
        let n = g.usize_in(1..80);
        let bomb = g.usize_in(0..n);
        let items: Vec<usize> = (0..n).collect();
        for threads in WIDTHS {
            let pool = Pool::new(threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.par_map(&items, |&x| {
                    assert!(x != bomb, "bomb at {x}");
                    x
                })
            }));
            let payload = result.expect_err("panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("assert! payload is a String");
            assert!(msg.contains("bomb"), "unexpected payload: {msg}");
            // The pool stays usable after a panicked job.
            assert_eq!(pool.par_map(&items, |&x| x + 1).len(), n);
        }
    });
}
