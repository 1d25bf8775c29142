//! # ht-par — deterministic data parallelism for the workspace
//!
//! A zero-dependency, persistent thread pool powering the reproduction's
//! hot paths (image-source rendering, GCC-PHAT pair extraction,
//! random-forest training, fold evaluation, shard-parallel serving)
//! **without breaking the determinism contract**: for a fixed input and
//! seed, every `par_*` result is byte-identical for any thread count,
//! because
//!
//! * results are written to their input index (scheduling never reorders
//!   outputs),
//! * per-item randomness comes from `ht_dsp::rng::split_stream(seed, index)`
//!   — a deterministic fork per index, never a shared sequential stream.
//!
//! Every participant of a job (the submitting thread included) claims the
//! next unclaimed index from one shared cursor, so no thread idles while
//! work remains. The pool spawns its threads once and parks them between
//! jobs, so a `par_map` over four items costs a condvar wake, not four
//! `thread::spawn`s, and the thread-local FFT and int8 inference scratch
//! survives from call to call. The global pool's width comes from
//! [`default_threads`]: `HT_THREADS`, else every available core (the
//! submitting thread counts as one); tests and benches that need a
//! specific width create a dedicated [`Pool`] and run under
//! [`Pool::install`].
//!
//! # Example
//!
//! ```
//! let squares = ht_par::par_map(&[1i64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // A dedicated 3-thread pool, results identical to serial:
//! let pool = ht_par::Pool::new(3);
//! let serial: Vec<i64> = (0..100).map(|x| x * 2).collect();
//! let input: Vec<i64> = (0..100).collect();
//! assert_eq!(pool.par_map(&input, |&x| x * 2), serial);
//! ```

mod pool;

pub use pool::{default_threads, Pool};

/// [`Pool::par_map`] on the current pool (the innermost [`Pool::install`]
/// on this thread, else the global pool).
///
/// # Panics
///
/// Propagates the first panic raised by `f`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    pool::current().par_map(items, f)
}

/// [`Pool::par_map_indexed`] on the current pool.
///
/// # Panics
///
/// Propagates the first panic raised by `f`.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    pool::current().par_map_indexed(items, f)
}

/// The current pool's total parallelism (≥ 1).
pub fn current_threads() -> usize {
    pool::current().threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier, Mutex};
    use std::time::Duration;

    #[test]
    fn par_map_preserves_order_for_every_width() {
        let items: Vec<usize> = (0..257).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            assert_eq!(pool.par_map(&items, |&x| x * 3 + 1), serial, "{threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        let empty: Vec<i32> = Vec::new();
        assert!(pool.par_map(&empty, |&x| x).is_empty());
        assert_eq!(pool.par_map(&[9], |&x| x + 1), vec![10]);
    }

    #[test]
    fn indexed_map_sees_the_input_index() {
        let pool = Pool::new(3);
        let items = vec![10usize; 40];
        let out = pool.par_map_indexed(&items, |i, &x| i * 100 + x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 100 + 10);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let pool = Pool::new(4);
        let out = pool.par_map(&items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out, items);
    }

    #[test]
    fn panics_propagate_with_payload() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&x| {
                if x == 37 {
                    panic!("item 37 exploded");
                }
                x
            })
        }));
        let payload = result.expect_err("the panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_else(|| {
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap()
        });
        assert!(msg.contains("item 37 exploded"));
        // The pool survives a panicked job.
        assert_eq!(pool.par_map(&[1, 2, 3], |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let pool = Pool::new(4);
        let outer: Vec<usize> = (0..16).collect();
        let out = pool.par_map(&outer, |&x| {
            // Nested par_map (free function → global pool) must not block
            // on this pool's busy workers.
            let inner: Vec<usize> = (0..8).collect();
            par_map(&inner, |&y| y + x).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..16).map(|x| (0..8).map(|y| y + x).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn install_routes_free_functions() {
        let pool = Pool::new(2);
        let (width, out) =
            pool.install(|| (current_threads(), par_map(&[1, 2, 3], |&x: &i32| x * 10)));
        assert_eq!(width, 2);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn many_threads_few_items_is_fine() {
        let pool = Pool::new(16);
        assert_eq!(pool.par_map(&[5, 6], |&x| x), vec![5, 6]);
    }

    #[test]
    fn an_idle_participant_claims_every_unclaimed_index() {
        // The barrier holds item 0 until item 2 has started, so items 0
        // and 2 run on different participants. Item 2 then waits for item
        // 3 to start, which only the participant that ran item 0 can do:
        // a scheduler that parks an unclaimed index behind a busy
        // participant trips the 5 s guard.
        let both_running = Barrier::new(2);
        let (started, item_3) = mpsc::channel();
        let item_3 = Mutex::new(item_3);
        let items: Vec<usize> = (0..5).collect();
        let out = Pool::new(2).par_map(&items, |&i| {
            match i {
                0 => {
                    both_running.wait();
                }
                2 => {
                    both_running.wait();
                    item_3
                        .lock()
                        .expect("item 3 channel")
                        .recv_timeout(Duration::from_secs(5))
                        .expect("item 3 never started while item 2 waited");
                }
                3 => started.send(()).expect("item 2 is waiting"),
                _ => {}
            }
            i
        });
        assert_eq!(out, items);
    }
}
