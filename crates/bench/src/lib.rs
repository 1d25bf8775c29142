//! # ht-bench — the workspace's built-in benchmark harness
//!
//! A dependency-free replacement for Criterion: each file in `benches/`
//! (still `harness = false`) builds a [`Suite`], registers benchmarks with
//! [`Suite::bench`], and calls [`Suite::finish`], which prints a table and
//! writes `BENCH_<suite>.json` so successive runs are diffable.
//!
//! Methodology: every benchmark is warmed up, then timed as `samples`
//! wall-clock samples of `iters` iterations each (`iters` auto-sized so a
//! sample takes ≥ ~5 ms); the reported statistic is the **median**
//! per-iteration time, which is robust against scheduler noise. Use
//! `HT_BENCH_SAMPLES` / `HT_BENCH_FAST=1` to trade precision for speed and
//! `HT_BENCH_DIR` to redirect the JSON output (default: current
//! directory — run `cargo bench` from the repo root).
//!
//! The perf trajectory lives in `BENCH_trajectory.jsonl` at the repo root:
//! one row per end-to-end `perfbench` workload per performance-relevant
//! change. The `BENCH_*.json` files these suites write are per-run
//! snapshots, overwritten on every run.

use ht_dsp::json::{Json, ToJson};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock time of one timed sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(5);

/// Default number of timed samples per benchmark.
const DEFAULT_SAMPLES: usize = 15;

/// The result of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Median per-iteration time in nanoseconds (the headline statistic).
    pub median_ns: f64,
    /// Fastest sample's per-iteration time in nanoseconds.
    pub min_ns: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: usize,
}

impl ToJson for Measurement {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.name.as_str())
            .set("median_ns", self.median_ns)
            .set("min_ns", self.min_ns)
            .set("mean_ns", self.mean_ns)
            .set("samples", self.samples)
            .set("iters_per_sample", self.iters_per_sample)
    }
}

/// A named collection of benchmarks that reports as one JSON artifact.
pub struct Suite {
    name: String,
    samples: usize,
    results: Vec<Measurement>,
}

impl Suite {
    /// A suite named `name` (controls the `BENCH_<name>.json` filename).
    pub fn new(name: &str) -> Suite {
        let fast = std::env::var("HT_BENCH_FAST").is_ok_and(|v| v != "0");
        let samples = std::env::var("HT_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if fast { 5 } else { DEFAULT_SAMPLES })
            .max(1);
        eprintln!("suite {name}: {samples} samples per benchmark");
        Suite {
            name: name.to_string(),
            samples,
            results: Vec::new(),
        }
    }

    /// Times `f` (warmup, then `samples` timed samples) and records the
    /// result. The closure's return value is black-boxed so the work
    /// cannot be optimized away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        // Warmup: run until the workload has executed for ≥ one sample
        // target (fills caches, resolves lazy statics) and estimate cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u32;
        loop {
            black_box(f());
            warm_iters += 1;
            if warm_start.elapsed() >= SAMPLE_TARGET || warm_iters >= 1000 {
                break;
            }
        }
        let per_iter = warm_start.elapsed() / warm_iters;
        let iters = if per_iter >= SAMPLE_TARGET {
            1
        } else {
            // Aim for SAMPLE_TARGET per sample, capped to keep total
            // bench time bounded for very cheap workloads.
            ((SAMPLE_TARGET.as_nanos() / per_iter.as_nanos().max(1)) as usize).clamp(1, 100_000)
        };

        let mut per_iter_ns: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter_ns.sort_by(f64::total_cmp);
        let median = per_iter_ns[per_iter_ns.len() / 2];
        let m = Measurement {
            name: name.to_string(),
            median_ns: median,
            min_ns: per_iter_ns[0],
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
            samples: self.samples,
            iters_per_sample: iters,
        };
        eprintln!(
            "  {name:<44} median {:>12}  min {:>12}  ({} x {} iters)",
            format_ns(m.median_ns),
            format_ns(m.min_ns),
            m.samples,
            m.iters_per_sample,
        );
        self.results.push(m);
    }

    /// The measurements so far (for tests and custom reporting).
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Serializes the suite (shared by [`Suite::finish`] and the baseline
    /// merge tooling).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("suite", self.name.as_str())
            .set("benches", self.results.to_json())
    }

    /// Writes `BENCH_<suite>.json` into `HT_BENCH_DIR` (default `.`).
    ///
    /// # Panics
    ///
    /// Panics when the output file cannot be written (a bench run that
    /// cannot record its results should fail loudly).
    pub fn finish(self) {
        let dir = std::env::var("HT_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let _ = std::fs::create_dir_all(&dir);
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json().pretty() + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("suite {}: wrote {}", self.name, path.display());
    }
}

/// Human-readable nanoseconds (`412 ns`, `1.73 µs`, `2.10 ms`, `4.20 s`).
pub fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_sane_numbers() {
        std::env::set_var("HT_BENCH_SAMPLES", "3");
        let mut suite = Suite::new("selftest");
        suite.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        std::env::remove_var("HT_BENCH_SAMPLES");
        let m = &suite.results()[0];
        assert_eq!(m.name, "spin");
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.samples == 3);
    }

    #[test]
    fn suite_json_shape() {
        let suite = Suite {
            name: "shape".into(),
            samples: 1,
            results: vec![Measurement {
                name: "a".into(),
                median_ns: 10.0,
                min_ns: 9.0,
                mean_ns: 10.5,
                samples: 1,
                iters_per_sample: 100,
            }],
        };
        let v = suite.to_json();
        assert_eq!(v.get("suite").and_then(Json::as_str), Some("shape"));
        let benches = v.get("benches").unwrap().as_array().unwrap();
        assert_eq!(benches[0].get("name").and_then(Json::as_str), Some("a"));
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(412.0), "412 ns");
        assert_eq!(format_ns(1_730.0), "1.73 µs");
        assert_eq!(format_ns(2_100_000.0), "2.10 ms");
        assert_eq!(format_ns(4_200_000_000.0), "4.20 s");
    }
}
