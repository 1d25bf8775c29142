//! The benchmark's self-test: seconds-long runs of every workload in
//! `BENCHMARK.json`, checking the output contract, failure accounting and
//! seed determinism.
//!
//! `--seconds 0.01` makes each drive one deterministic unit of work (one
//! closed-loop `run_load` call, one batch pass, a half-second open-loop window), so
//! counts repeat exactly for one seed.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

use ht_dsp::json::Json;

/// Runs one benchmark process at a time: each trains a pipeline on both
/// CPUs and holds a few hundred MiB.
static SERIAL: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn workloads() -> Vec<String> {
    benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// `name → unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("metric field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// One run's stdout lines, parsed: `(context, diagnostics, result)`.
struct Run {
    context: Json,
    diagnostics: Json,
    result: Json,
}

fn run(workload: &str, seed: u64, trace: bool, truncate: bool) -> Run {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.01"])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if truncate {
        cmd.arg("--truncate-one");
    }
    let out = cmd.output().expect("spawn perfbench");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 3, "{workload}: short output {stdout}");
    let parse = |i: usize| Json::parse(lines[lines.len() - 3 + i]).expect("JSON line");
    let context = parse(0).get("context").expect("context line").clone();
    let diagnostics = parse(1)
        .get("diagnostics")
        .expect("diagnostics line")
        .clone();
    Run {
        context,
        diagnostics,
        result: parse(2),
    }
}

fn count(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{key} is a count"))
}

fn assert_metrics(workload: &str, r: &Json, list: &str) {
    let keys: Vec<&str> = r
        .as_object()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    let metrics = r.get("metrics").and_then(Json::as_object).expect("metrics");
    let got: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(got, declared(list), "{workload}: {list} names and units");
}

#[test]
fn every_workload_emits_its_metrics_and_repeats_for_one_seed() {
    for w in workloads() {
        let a = run(&w, 7, false, false);
        let b = run(&w, 7, false, false);
        assert_metrics(&w, &a.result, "end_to_end");
        assert_eq!(a.result.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(count(&a.result, "failed"), 0, "{w}");
        assert!(count(&a.result, "attempted") >= 1, "{w}");
        for key in ["attempted", "failed"] {
            assert_eq!(count(&a.result, key), count(&b.result, key), "{w}: {key}");
        }
        for key in [
            "decisions",
            "accepts",
            "orientation_rejects",
            "liveness_rejects",
            "mismatches",
        ] {
            assert_eq!(
                count(&a.diagnostics, key),
                count(&b.diagnostics, key),
                "{w}: {key}"
            );
        }
        for key in ["input_checksum", "schedule_checksum"] {
            assert_eq!(a.context.get(key), b.context.get(key), "{w}: {key}");
        }
        let other = run(&w, 8, false, false);
        assert_eq!(
            a.context.get("input_checksum"),
            other.context.get("input_checksum"),
            "{w}: inputs do not depend on the seed"
        );
        assert_ne!(
            a.context.get("schedule_checksum"),
            other.context.get("schedule_checksum"),
            "{w}: the seed draws the schedule"
        );

        let traced = run(&w, 7, true, false);
        assert_metrics(&w, &traced.result, "per_layer");
    }
}

#[test]
fn a_truncated_session_counts_as_failed() {
    for w in workloads() {
        let r = run(&w, 7, false, true).result;
        let failed = count(&r, "failed");
        assert!(
            failed >= 1,
            "{w}: the truncated session must count as failed"
        );
        assert!(
            count(&r, "attempted") >= failed,
            "{w}: failures are attempts"
        );
    }
}
