//! # ht-obs — zero-dependency observability for the HeadTalk pipeline
//!
//! The paper reports per-stage runtime as a first-class result (§IV-B15:
//! liveness on one channel, orientation on four); this crate is the
//! telemetry substrate that lets the reproduction attribute wall-clock to
//! denoise vs. SRP-PHAT vs. classification, and every future scaling layer
//! (batching, sharding, async serving) report through one registry.
//!
//! Three pieces, all `std`-only (the workspace's hermetic-build contract):
//!
//! * [`span`] — structured, nestable timing scopes. A [`Span`] is a drop
//!   guard: it samples the clock on creation and records the elapsed
//!   nanoseconds into the global registry on drop. **When observability is
//!   off the span is free**: creating one costs an atomic load and a
//!   branch, and its drop is a `None` check — no clock read, no lock.
//! * [`counter_add`] — monotonic named counters (pool jobs and tasks,
//!   FFT plan hits, …).
//! * [`Registry`] — the thread-safe global store: counters plus log-scale
//!   latency histograms per span name, snapshotted as p50/p95/p99 with
//!   deterministic (sorted) ordering so serialized reports are byte-stable
//!   for a given snapshot.
//!
//! The mode switch is the `HT_OBS` environment variable (`off` | `summary`
//! | `json`, default `off`), read once; tests and harnesses override it
//! programmatically with [`set_mode`]. The recording *content* is wall-clock
//! and therefore run-dependent, but recording **never perturbs computed
//! results** — the workspace's golden-determinism test proves the pipeline's
//! reports are byte-identical with observability off and on.
//!
//! # Example
//!
//! ```
//! ht_obs::set_mode(ht_obs::Mode::Json);
//! ht_obs::registry().reset();
//! {
//!     let _outer = ht_obs::span("example.outer");
//!     let _inner = ht_obs::span("example.inner"); // nests freely
//!     ht_obs::counter_add("example.items", 3);
//! }
//! let snap = ht_obs::registry().snapshot();
//! assert_eq!(snap.counter("example.items"), Some(3));
//! assert_eq!(snap.span("example.inner").unwrap().count, 1);
//! ht_obs::set_mode(ht_obs::Mode::Off);
//! ```

mod hist;

pub use hist::{Hist, HistSnapshot};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The observability mode (the `HT_OBS` environment switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Record nothing; spans and counters are no-ops (the default).
    Off,
    /// Record, and consumers print a human-readable table.
    Summary,
    /// Record, and consumers emit machine-readable JSON reports.
    Json,
}

/// Mode encoding in [`MODE`]: 0 = uninitialized (read `HT_OBS` on first
/// use), then `Mode as u8 + 1`.
static MODE: AtomicU8 = AtomicU8::new(0);

/// The active mode: `HT_OBS` on first call (`off` | `summary` | `json`;
/// unknown values warn once and mean `off`), or the latest [`set_mode`].
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        1 => Mode::Off,
        2 => Mode::Summary,
        3 => Mode::Json,
        _ => init_mode_from_env(),
    }
}

#[cold]
fn init_mode_from_env() -> Mode {
    let m = match std::env::var("HT_OBS").as_deref() {
        Ok("summary") => Mode::Summary,
        Ok("json") => Mode::Json,
        Ok("off") | Ok("") | Err(_) => Mode::Off,
        Ok(other) => {
            eprintln!("[ht-obs] ignoring unknown HT_OBS={other:?} (use off|summary|json)");
            Mode::Off
        }
    };
    set_mode(m);
    m
}

/// Overrides the mode (tests, benches, harnesses). Takes effect for every
/// span/counter created afterwards, process-wide.
pub fn set_mode(m: Mode) {
    MODE.store(m as u8 + 1, Ordering::Relaxed);
}

/// `true` when spans and counters record (mode is not [`Mode::Off`]).
///
/// This is the disabled-path contract: the whole check is one relaxed
/// atomic load plus a branch (after the one-time env read).
#[inline]
pub fn enabled() -> bool {
    // 1 encodes Off; 0 (uninitialized) falls through to the env read.
    match MODE.load(Ordering::Relaxed) {
        1 => false,
        2 | 3 => true,
        _ => init_mode_from_env() != Mode::Off,
    }
}

/// A structured timing scope: records `name → elapsed ns` into the global
/// registry when dropped. Obtain via [`span`]; spans nest freely (each guard
/// times its own scope independently).
#[must_use = "a span measures the scope it is bound to; an unbound span measures nothing"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// The span's registry key.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            record_ns(self.name, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Opens a timing scope. When observability is off this is an atomic load,
/// a branch, and a `None` — the clock is never read.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

/// Records one latency observation directly (the hook [`Span`] uses; public
/// so harnesses can feed externally-timed values). No-op when off.
pub fn record_ns(name: &'static str, ns: u64) {
    if enabled() {
        registry().record_ns(name, ns);
    }
}

/// Adds to a named monotonic counter. No-op when off.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if enabled() {
        registry().counter_add(name, n);
    }
}

/// Raises a named high-water-mark counter to `v` if `v` exceeds its current
/// value (gauge maxima: queue depths, arena occupancy, in-flight sessions).
/// No-op when off. Use names distinct from [`counter_add`] counters — both
/// share one namespace, and mixing sum and max semantics on one name would
/// corrupt it.
#[inline]
pub fn counter_max(name: &'static str, v: u64) {
    if enabled() {
        registry().counter_max(name, v);
    }
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

struct Inner {
    counters: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, Hist>,
}

/// A thread-safe store of counters and per-span latency histograms.
///
/// Keys are `&'static str` (span names are code, not data), and snapshots
/// iterate the underlying `BTreeMap`s, so a snapshot's ordering — and
/// therefore its serialized form — is deterministic.
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                spans: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Observability must never take the process down: a panic while the
        // lock was held leaves the data intact (only u64 bumps happen under
        // the lock), so clear the poison and carry on.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one latency observation under `name`.
    pub fn record_ns(&self, name: &'static str, ns: u64) {
        self.lock().spans.entry(name).or_default().record(ns);
    }

    /// Adds to the counter `name`.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        *self.lock().counters.entry(name).or_insert(0) += n;
    }

    /// Raises the counter `name` to `v` if `v` exceeds its current value.
    pub fn counter_max(&self, name: &'static str, v: u64) {
        let mut inner = self.lock();
        let slot = inner.counters.entry(name).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Clears every counter and histogram (per-experiment scoping).
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.counters.clear();
        inner.spans.clear();
    }

    /// A point-in-time copy of every counter and histogram summary, sorted
    /// by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.lock();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(k, h)| (k.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// A deterministic (name-sorted) snapshot of the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` latency histograms, sorted by name.
    pub spans: Vec<(String, HistSnapshot)>,
}

impl RegistrySnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a span summary by name.
    pub fn span(&self, name: &str) -> Option<&HistSnapshot> {
        self.spans.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty()
    }

    /// A human-readable table (the `HT_OBS=summary` rendering).
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "{:<38} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                "span", "count", "p50", "p95", "p99", "mean"
            ));
            for (name, h) in &self.spans {
                out.push_str(&format!(
                    "{:<38} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                    name,
                    h.count,
                    fmt_ns(h.p50_ns as f64),
                    fmt_ns(h.p95_ns as f64),
                    fmt_ns(h.p99_ns as f64),
                    fmt_ns(h.mean_ns),
                ));
            }
        }
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<38} {v:>8}\n"));
        }
        out
    }
}

/// Human-readable nanoseconds (`412ns`, `1.7µs`, `2.1ms`, `4.2s`).
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the global-state tests (mode and registry are process-wide).
    fn lock_global() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_record_only_when_enabled() {
        let _g = lock_global();
        set_mode(Mode::Off);
        registry().reset();
        {
            let _s = span("test.off");
        }
        assert!(registry().snapshot().span("test.off").is_none());

        set_mode(Mode::Json);
        {
            let _s = span("test.on");
        }
        let snap = registry().snapshot();
        assert_eq!(snap.span("test.on").unwrap().count, 1);
        set_mode(Mode::Off);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = lock_global();
        set_mode(Mode::Summary);
        registry().reset();
        counter_add("test.counter", 2);
        counter_add("test.counter", 3);
        assert_eq!(registry().snapshot().counter("test.counter"), Some(5));
        registry().reset();
        assert!(registry().snapshot().is_empty());
        set_mode(Mode::Off);
    }

    #[test]
    fn counter_max_keeps_the_high_water_mark() {
        let _g = lock_global();
        set_mode(Mode::Json);
        registry().reset();
        counter_max("test.hwm", 3);
        counter_max("test.hwm", 9);
        counter_max("test.hwm", 5);
        assert_eq!(registry().snapshot().counter("test.hwm"), Some(9));
        set_mode(Mode::Off);
        counter_max("test.hwm", 100);
        assert_eq!(
            registry().snapshot().counter("test.hwm"),
            Some(9),
            "disabled counter_max must not record"
        );
        registry().reset();
    }

    #[test]
    fn snapshot_ordering_is_sorted_and_stable() {
        let _g = lock_global();
        set_mode(Mode::Json);
        registry().reset();
        counter_add("z.last", 1);
        counter_add("a.first", 1);
        record_ns("m.middle", 100);
        let snap = registry().snapshot();
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counters[1].0, "z.last");
        assert_eq!(snap, registry().snapshot());
        set_mode(Mode::Off);
        registry().reset();
    }

    #[test]
    fn nested_spans_each_record() {
        let _g = lock_global();
        set_mode(Mode::Json);
        registry().reset();
        {
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        let snap = registry().snapshot();
        assert_eq!(snap.span("test.outer").unwrap().count, 1);
        assert_eq!(snap.span("test.inner").unwrap().count, 1);
        set_mode(Mode::Off);
        registry().reset();
    }

    #[test]
    fn summary_table_mentions_every_name() {
        let _g = lock_global();
        set_mode(Mode::Summary);
        registry().reset();
        record_ns("test.table_span", 1_500);
        counter_add("test.table_counter", 7);
        let table = registry().snapshot().summary_table();
        assert!(table.contains("test.table_span"));
        assert!(table.contains("test.table_counter"));
        assert!(table.contains("p99"));
        set_mode(Mode::Off);
        registry().reset();
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(412.0), "412ns");
        assert_eq!(fmt_ns(1_700.0), "1.7µs");
        assert_eq!(fmt_ns(2_100_000.0), "2.1ms");
        assert_eq!(fmt_ns(4_200_000_000.0), "4.20s");
    }
}
