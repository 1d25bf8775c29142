//! Instrumentation overhead of the ht-obs observability layer.
//!
//! The disabled-path contract (see `crates/obs`): with `HT_OBS=off` a span
//! is one relaxed atomic load plus a branch — no clock read, no lock. This
//! suite measures that path directly, the enabled path for comparison, and
//! the decision route's evidence accumulation under both modes so the
//! end-to-end cost of leaving spans compiled into the hot layers is a
//! recorded number, not a belief.
//!
//! The suite doubles as CI's overhead gate: a disabled span/counter whose
//! median exceeds [`DISABLED_NS_BOUND`] fails the run. The bound is 50 ns —
//! an order of magnitude above what an atomic load + branch costs on any
//! supported machine, low enough to catch an accidental clock read
//! (~20–60 ns) or lock acquisition sneaking onto the disabled path.

use headtalk::evidence::Evidence;
use headtalk::PipelineConfig;
use ht_bench::{black_box, Suite};
use ht_dsp::rng::SeedableRng;

/// Upper bound (ns, median) for the disabled span and counter paths.
const DISABLED_NS_BOUND: f64 = 50.0;

fn bench_primitives(s: &mut Suite) {
    ht_obs::set_mode(ht_obs::Mode::Off);
    s.bench("obs/span_disabled", || ht_obs::span("bench.disabled"));
    s.bench("obs/counter_disabled", || {
        ht_obs::counter_add("bench.counter_disabled", 1)
    });

    ht_obs::set_mode(ht_obs::Mode::Json);
    ht_obs::registry().reset();
    s.bench("obs/span_enabled", || ht_obs::span("bench.enabled"));
    s.bench("obs/counter_enabled", || {
        ht_obs::counter_add("bench.counter_enabled", 1)
    });
    s.bench("obs/registry_snapshot", || ht_obs::registry().snapshot());
    ht_obs::set_mode(ht_obs::Mode::Off);
    ht_obs::registry().reset();
}

/// The decision route's evidence accumulator on a 0.25 s 4-mic capture:
/// reset, push hop by hop, assemble — every span a decision records before
/// inference. It is allocation-free once warm, so the off/on delta is the
/// cost of recording alone; a workload that allocates per call lets heap
/// state move that delta by a third.
fn bench_instrumented_workload(s: &mut Suite) {
    let cfg = PipelineConfig::default();
    let mut rng = ht_dsp::rng::StdRng::seed_from_u64(0x0B5);
    let base = ht_dsp::rng::white_noise(&mut rng, 12_000);
    let channels: Vec<Vec<f64>> = (0..4)
        .map(|k| ht_dsp::signal::fractional_delay(&base, 1.5 * k as f64, 16))
        .collect();
    let (_, hop) = cfg.analysis_frame_geometry();
    let mut evidence = Evidence::new(&cfg, channels.len()).expect("4-mic evidence");
    let mut decide = || {
        evidence.reset();
        for at in (0..base.len()).step_by(hop) {
            let end = (at + hop).min(base.len());
            let chunk: [&[f64]; 4] = std::array::from_fn(|k| &channels[k][at..end]);
            evidence.push(black_box(&chunk)).expect("finite chunk");
        }
        evidence.assemble().expect("voiced capture").features[0]
    };

    ht_obs::set_mode(ht_obs::Mode::Off);
    s.bench("obs/evidence_4ch_12000_obs_off", &mut decide);
    ht_obs::set_mode(ht_obs::Mode::Json);
    ht_obs::registry().reset();
    s.bench("obs/evidence_4ch_12000_obs_json", &mut decide);
    ht_obs::set_mode(ht_obs::Mode::Off);
    ht_obs::registry().reset();
}

fn main() {
    let mut s = Suite::new("obs");
    bench_primitives(&mut s);
    bench_instrumented_workload(&mut s);

    // Overhead gate: the disabled paths must stay branch-cheap.
    let mut violations = Vec::new();
    for m in s.results() {
        if m.name.ends_with("_disabled") && m.median_ns > DISABLED_NS_BOUND {
            violations.push(format!(
                "{}: median {:.1} ns exceeds the {DISABLED_NS_BOUND:.0} ns disabled-path bound",
                m.name, m.median_ns
            ));
        }
    }
    s.finish();
    assert!(
        violations.is_empty(),
        "ht-obs disabled-path overhead gate failed:\n{}",
        violations.join("\n")
    );
}
