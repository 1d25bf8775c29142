//! The persistent thread pool.
//!
//! Threads are spawned **once** (per [`Pool`]) and parked on a condvar
//! between jobs; a job is a lifetime-erased `Fn()` that every participant
//! (the submitting thread included) runs to completion before the
//! submitting call returns, which is what makes borrowing from the
//! caller's stack sound.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A lifetime-erased pointer to the current job's participant body.
///
/// Soundness: the pointer is only dereferenced by pool workers between job
/// publication and the final `active == 0` handshake, and `run_job` does
/// not return (keeping the pointee alive on its stack) until that handshake
/// completes.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared-called from many threads) and the
// pool's completion handshake bounds its lifetime; sending the pointer to
// worker threads is therefore sound.
unsafe impl Send for Job {}

struct State {
    /// Bumped for every published job so parked workers can tell a fresh
    /// job from the one they last ran.
    seq: u64,
    job: Option<Job>,
    /// Pool workers still running the current job.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    job_ready: Condvar,
    job_done: Condvar,
}

thread_local! {
    /// Set while a thread is executing inside a pool job; nested `par_*`
    /// calls run inline (serial) instead of deadlocking on busy workers.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// The pool [`Pool::install`] made current on this thread, if any.
    static CURRENT: Cell<*const Pool> = const { Cell::new(std::ptr::null()) };
}

/// Restores a thread-local `Cell` on drop (panic-safe).
struct Restore<T: Copy + 'static> {
    cell: &'static std::thread::LocalKey<Cell<T>>,
    prev: T,
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.cell.with(|c| c.set(self.prev));
    }
}

fn set_tls<T: Copy + 'static>(
    cell: &'static std::thread::LocalKey<Cell<T>>,
    value: T,
) -> Restore<T> {
    let prev = cell.with(|c| c.replace(value));
    Restore { cell, prev }
}

/// A persistent thread pool.
///
/// `Pool::new(t)` spawns `t - 1` worker threads; the thread that submits a
/// job participates too, so `t` is the total parallelism. All `par_*`
/// results are **independent of the thread count and of which participant
/// runs which item**: each item's result is written to its input index, so
/// a pool of 8 produces bytes identical to a pool of 1.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serializes concurrent job submissions from different threads.
    submit: Mutex<()>,
}

impl Pool {
    /// A pool with `threads` total participants (clamped to ≥ 1; 1 means
    /// every `par_*` call runs inline).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                seq: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ht-par-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            threads,
            submit: Mutex::new(()),
        }
    }

    /// The global pool, sized by [`default_threads`]. Initialized on first
    /// use; `HT_THREADS` is read once.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// Total participants (worker threads + the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with this pool as the thread's current pool: free-function
    /// `par_*` calls inside `f` (on this thread) dispatch here instead of
    /// the global pool. Restored on exit, panic included.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _restore = set_tls(&CURRENT, self as *const Pool);
        f()
    }

    /// Applies `f` to every item, preserving input order in the output.
    ///
    /// The output is identical to `items.iter().map(&f).collect()` for any
    /// thread count (determinism contract).
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f`.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_indexed(items, |_, item| f(item))
    }

    /// [`Pool::par_map`] where `f` also receives the item index — the hook
    /// for deterministic per-item RNG streams
    /// (`ht_dsp::rng::split_stream(seed, index)`).
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `f`.
    pub fn par_map_indexed<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let slots = SlotWriter(out.as_mut_ptr());
            self.run_indexed(n, |i| {
                let value = f(i, &items[i]);
                // SAFETY: `run_indexed` executes every index exactly once,
                // and distinct indices address distinct slots.
                unsafe { slots.write(i, value) };
            });
        }
        out.into_iter()
            .map(|slot| slot.expect("run_indexed fills every slot"))
            .collect()
    }

    /// Executes `f(i)` exactly once for every `i in 0..n`. Every
    /// participant claims the next index from one shared cursor until the
    /// cursor passes `n`, so no participant sits idle while an index is
    /// unclaimed.
    fn run_indexed<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        // Inline paths: trivial input, a serial pool, or a nested call from
        // inside a pool job (workers must not wait on their own pool).
        if n == 1 || self.threads == 1 || IN_POOL.with(Cell::get) {
            (0..n).for_each(f);
            publish_obs(n);
            return;
        }

        let cursor = AtomicUsize::new(0);
        let payload: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let participant = || loop {
            // The completion handshake in `run_job` publishes every write
            // `f` made, so the cursor itself needs no ordering.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                // Keep the first payload, and move the cursor to `n` so the
                // other participants stop claiming.
                payload.lock().expect("panic slot").get_or_insert(p);
                cursor.store(n, Ordering::Relaxed);
                return;
            }
        };

        self.run_job(&participant);
        publish_obs(n);

        if let Some(p) = payload.into_inner().expect("panic slot") {
            resume_unwind(p);
        }
    }

    /// Publishes `task` to the worker threads, runs it on this thread too,
    /// and blocks until every worker has finished it.
    fn run_job(&self, task: &(dyn Fn() + Sync)) {
        let _submit = self.submit.lock().expect("submit lock");
        let n_workers = self.handles.len();
        // SAFETY: pure lifetime erasure on a fat pointer (layout is
        // unchanged); the completion handshake below keeps the pointee
        // alive for as long as any worker can dereference it.
        let erased: *const (dyn Fn() + Sync + 'static) = unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync + 'static)>(
                task as *const _,
            )
        };
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.seq += 1;
            st.active = n_workers;
            st.job = Some(Job(erased));
            self.shared.job_ready.notify_all();
        }
        {
            let _inside = set_tls(&IN_POOL, true);
            task();
        }
        let mut st = self.shared.state.lock().expect("pool state");
        while st.active > 0 {
            st = self.shared.job_done.wait(st).expect("pool state");
        }
        st.job = None;
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The parked-worker loop: wait for a fresh job, run it, hand shake, park.
fn worker_loop(shared: &Shared) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq != last_seq {
                    if let Some(job) = st.job {
                        last_seq = st.seq;
                        break job;
                    }
                }
                st = shared.job_ready.wait(st).expect("pool state");
            }
        };
        {
            let _inside = set_tls(&IN_POOL, true);
            // SAFETY: `run_job` keeps the pointee alive until `active`
            // reaches 0, which only happens after this call returns.
            unsafe { (*job.0)() };
        }
        let mut st = shared.state.lock().expect("pool state");
        st.active -= 1;
        if st.active == 0 {
            shared.job_done.notify_all();
        }
    }
}

/// A `Sync` wrapper over the output slot array: each executed index writes
/// its own slot exactly once, so concurrent writers never alias.
struct SlotWriter<U>(*mut Option<U>);

// SAFETY: distinct indices address distinct slots and `run_indexed`
// executes each index exactly once; `U: Send` moves values across threads.
unsafe impl<U: Send> Sync for SlotWriter<U> {}

impl<U> SlotWriter<U> {
    /// # Safety
    ///
    /// `i` must be in bounds and written at most once across all threads.
    unsafe fn write(&self, i: usize, value: U) {
        *self.0.add(i) = Some(value);
    }
}

/// Mirrors a finished job into the ht-obs registry (no-op when `HT_OBS` is
/// off).
fn publish_obs(n: usize) {
    ht_obs::counter_add("par.jobs", 1);
    ht_obs::counter_add("par.tasks", n as u64);
}

/// The default pool width: `HT_THREADS` when set (parsed, clamped to
/// ≥ 1), otherwise the machine's available parallelism (4 when it cannot
/// be read). The width counts the submitting thread, so the global pool
/// keeps every core busy.
pub fn default_threads() -> usize {
    threads_from(
        std::env::var("HT_THREADS").ok().as_deref(),
        std::thread::available_parallelism().ok().map(usize::from),
    )
}

/// [`default_threads`] given the `HT_THREADS` value and the available
/// parallelism.
fn threads_from(env: Option<&str>, available: Option<usize>) -> usize {
    if let Some(s) = env {
        if let Ok(v) = s.trim().parse::<usize>() {
            return v.max(1);
        }
        eprintln!("[ht-par] ignoring unparseable HT_THREADS={s:?}");
    }
    available.unwrap_or(4)
}

/// The pool free `par_*` functions dispatch to: the innermost
/// [`Pool::install`] on this thread, else the global pool.
pub fn current() -> &'static Pool {
    let ptr = CURRENT.with(Cell::get);
    if ptr.is_null() {
        Pool::global()
    } else {
        // SAFETY: `install` borrows the pool for the closure's duration and
        // restores the previous pointer on exit, so a non-null pointer is
        // always live on this thread. The `'static` return is a lie only in
        // lifetime position; the pointer is never retained past the
        // `install` scope by the free functions.
        unsafe { &*ptr }
    }
}

#[cfg(test)]
mod tests {
    use super::{default_threads, threads_from};

    #[test]
    fn default_width_is_every_core_unless_ht_threads_says_otherwise() {
        // Without HT_THREADS the pool takes every core: the submitting
        // thread is one of its participants.
        assert_eq!(threads_from(None, Some(2)), 2);
        assert_eq!(threads_from(None, Some(1)), 1);
        assert_eq!(threads_from(None, None), 4);
        if std::env::var_os("HT_THREADS").is_none() {
            let cores = std::thread::available_parallelism().map_or(4, usize::from);
            assert_eq!(default_threads(), cores);
        }
        // The override wins, clamped to at least 1; garbage is ignored.
        assert_eq!(threads_from(Some(" 3 "), Some(2)), 3);
        assert_eq!(threads_from(Some("0"), Some(2)), 1);
        assert_eq!(threads_from(Some("many"), Some(2)), 2);
    }
}
