//! Per-frame latency and allocation budget of the streaming wake pipeline.
//!
//! The real-time contract: each analysis frame (STFT → whitened cross
//! spectra accumulated per microphone pair) must finish well inside one hop
//! of audio (10 ms at 48 kHz), and the steady-state loop must not touch the
//! heap. This bench drives [`headtalk::WakeStream`] over rendered
//! `ht-datagen` scenarios with observability on, reads the per-stage
//! latency histograms back out of the `ht-obs` registry, and doubles as
//! CI's gate on both budgets:
//!
//! * `stream.frame` p95 must stay under [`DEADLINE_FRACTION`] of the hop
//!   deadline (real-time with headroom),
//! * the post-warmup push loop must make **zero** heap allocations
//!   (counted by a wrapping global allocator, as in
//!   `crates/dsp/tests/alloc_free.rs`).
//!
//! Writes `BENCH_stream.json` (frame/stage percentiles, frames per
//! second, per-scenario frame counts) into `HT_BENCH_DIR`.

use headtalk::liveness::LivenessDetector;
use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::{HeadTalk, PipelineConfig, StreamConfig};
use ht_bench::format_ns;
use ht_datagen::{CaptureSpec, SourceKind};
use ht_dsp::check::{allocs_during, CountingAlloc};
use ht_dsp::json::Json;
use ht_dsp::rng::{gaussian, SeedableRng, StdRng};
use ht_ml::Dataset;
use ht_obs::HistSnapshot;
use ht_speech::replay::SpeakerModel;
use ht_speech::voice::VoiceProfile;

/// The frame p95 must fit in this fraction of the hop deadline. 0.5 keeps
/// half the budget as headroom for slower CI machines.
const DEADLINE_FRACTION: f64 = 0.5;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A pipeline with quickly trained stand-in models. The per-frame path
/// under test never consults the models (they only run at finalization),
/// but `WakeStream` borrows a full `HeadTalk`; training on tiny synthetic
/// datasets keeps bench startup in milliseconds instead of minutes.
fn toy_pipeline() -> HeadTalk {
    let config = PipelineConfig::default();
    let mut rng = StdRng::seed_from_u64(0x57EA);

    let width = headtalk::features::feature_width(4, &config);
    let mut orient = Dataset::new(width);
    for i in 0..12 {
        let offset = if i % 2 == 0 { 1.0 } else { -1.0 };
        let row: Vec<f64> = (0..width)
            .map(|_| offset + 0.3 * gaussian(&mut rng))
            .collect();
        orient.push(row, (i % 2 == 0) as usize).expect("push");
    }
    let orientation =
        OrientationDetector::fit(&orient, ModelKind::Svm, 7).expect("orientation training");

    let mut live = Dataset::new(config.liveness_input_len);
    for i in 0..8 {
        let offset = if i % 2 == 0 { 0.5 } else { -0.5 };
        let row: Vec<f64> = (0..config.liveness_input_len)
            .map(|_| offset + 0.1 * gaussian(&mut rng))
            .collect();
        live.push(row, (i % 2 == 0) as usize).expect("push");
    }
    let liveness = LivenessDetector::fit(&live, 8, 2).expect("liveness training");

    HeadTalk::new(config, liveness, orientation).expect("pipeline assembly")
}

struct ScenarioReport {
    name: &'static str,
    frames: u64,
    steady_allocs: u64,
}

/// Streams one capture `passes` times (pass 0 is warmup: it populates the
/// obs registry entries and the FFT plan cache). Later passes count heap
/// allocations over the post-warmup portion of the push loop.
fn run_scenario(
    ht: &HeadTalk,
    name: &'static str,
    channels: &[Vec<f64>],
    passes: usize,
) -> ScenarioReport {
    let len = channels[0].len();
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    // Per-stream warmup: the first few chunks settle lazily sized scratch.
    let warm_chunks = 4;

    let mut steady_allocs = 0u64;
    let mut report = None;
    for pass in 0..passes.max(2) {
        let mut stream = ht.streamer(channels.len()).expect("streamer");
        let mut chunk: Vec<&[f64]> = Vec::with_capacity(channels.len());
        let mut push_range = |stream: &mut headtalk::WakeStream<'_>, from: usize, to: usize| {
            let mut pos = from;
            while pos < to {
                let end = (pos + hop).min(to);
                chunk.clear();
                chunk.extend(channels.iter().map(|c| &c[pos..end]));
                stream.push(&chunk).expect("push");
                pos = end;
            }
        };
        let warm_end = (warm_chunks * hop).min(len);
        push_range(&mut stream, 0, warm_end);
        let allocs = allocs_during(|| push_range(&mut stream, warm_end, len));
        if pass > 0 {
            steady_allocs = steady_allocs.max(allocs);
        }
        report = Some(ScenarioReport {
            name,
            frames: stream.frames(),
            steady_allocs,
        });
    }
    report.expect("at least one pass ran")
}

fn hist_json(name: &str, h: &HistSnapshot) -> Json {
    Json::obj()
        .set("name", name)
        .set("count", h.count)
        .set("mean_ns", h.mean_ns)
        .set("p50_ns", h.p50_ns)
        .set("p95_ns", h.p95_ns)
        .set("p99_ns", h.p99_ns)
        .set("min_ns", h.min_ns)
        .set("max_ns", h.max_ns)
}

fn main() {
    let fast = std::env::var("HT_BENCH_FAST").is_ok_and(|v| v != "0");
    let passes = if fast { 2 } else { 6 };

    let ht = toy_pipeline();
    let config = StreamConfig::for_pipeline(ht.config());
    let deadline_ns = config.hop_deadline_secs(ht.config().sample_rate) * 1e9;
    let budget_ns = DEADLINE_FRACTION * deadline_ns;
    eprintln!(
        "suite stream: frame {} / hop {} samples, {} hop deadline, {} frame p95 budget, {passes} passes",
        config.frame_len,
        config.hop,
        format_ns(deadline_ns),
        format_ns(budget_ns),
    );

    let scenarios: Vec<(&'static str, CaptureSpec)> = vec![
        ("facing_human", CaptureSpec::baseline(0x57E0)),
        (
            "backward_human",
            CaptureSpec {
                angle_deg: 180.0,
                ..CaptureSpec::baseline(0x57E1)
            },
        ),
        (
            "facing_replay",
            CaptureSpec {
                source: SourceKind::Replay {
                    model: SpeakerModel::SonySrsX5,
                    voice: VoiceProfile::adult_male(),
                },
                ..CaptureSpec::baseline(0x57E2)
            },
        ),
    ];

    ht_obs::set_mode(ht_obs::Mode::Json);
    ht_obs::registry().reset();

    let mut reports = Vec::new();
    for (name, spec) in scenarios {
        let channels = spec.render().expect("render");
        let r = run_scenario(&ht, name, &channels, passes);
        eprintln!(
            "  {:<16} {:>4} frames  steady allocs {}",
            r.name, r.frames, r.steady_allocs,
        );
        reports.push(r);
    }

    let snapshot = ht_obs::registry().snapshot();
    ht_obs::set_mode(ht_obs::Mode::Off);

    let stage_names = ["stream.ingest", "stream.stft", "stream.srp", "stream.frame"];
    let mut stages = Vec::new();
    for name in stage_names {
        let h = snapshot
            .span(name)
            .unwrap_or_else(|| panic!("span {name} was never recorded"));
        eprintln!(
            "  {name:<16} p50 {:>10}  p95 {:>10}  p99 {:>10}  ({} samples)",
            format_ns(h.p50_ns as f64),
            format_ns(h.p95_ns as f64),
            format_ns(h.p99_ns as f64),
            h.count,
        );
        stages.push(hist_json(name, h));
    }

    let frame = *snapshot.span("stream.frame").expect("frame span");
    let frames_per_sec = if frame.mean_ns > 0.0 {
        1e9 / frame.mean_ns
    } else {
        0.0
    };
    eprintln!("  throughput       {frames_per_sec:.0} frames/s");

    let json = Json::obj()
        .set("suite", "stream")
        .set(
            "geometry",
            Json::obj()
                .set("frame_len", config.frame_len)
                .set("hop", config.hop)
                .set("sample_rate_hz", ht.config().sample_rate)
                .set("hop_deadline_ns", deadline_ns)
                .set("frame_p95_budget_ns", budget_ns),
        )
        .set("frames_per_sec", frames_per_sec)
        .set("stages", Json::Arr(stages))
        .set(
            "scenarios",
            Json::Arr(
                reports
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .set("name", r.name)
                            .set("frames", r.frames)
                            .set("steady_allocs", r.steady_allocs)
                    })
                    .collect(),
            ),
        );
    let dir = std::env::var("HT_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let _ = std::fs::create_dir_all(&dir);
    let path = std::path::Path::new(&dir).join("BENCH_stream.json");
    std::fs::write(&path, json.pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("suite stream: wrote {}", path.display());

    // The CI gates: real-time with headroom, and a heap-silent loop.
    let mut violations = Vec::new();
    if (frame.p95_ns as f64) > budget_ns {
        violations.push(format!(
            "stream.frame p95 {} exceeds the {} budget ({DEADLINE_FRACTION} x {} hop deadline)",
            format_ns(frame.p95_ns as f64),
            format_ns(budget_ns),
            format_ns(deadline_ns),
        ));
    }
    for r in &reports {
        if r.steady_allocs > 0 {
            violations.push(format!(
                "{}: steady-state push loop made {} heap allocations (must be 0)",
                r.name, r.steady_allocs
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "stream latency gate failed:\n{}",
        violations.join("\n")
    );
    eprintln!(
        "suite stream: gate ok (p95 {} < {} budget, 0 steady-state allocations)",
        format_ns(frame.p95_ns as f64),
        format_ns(budget_ns),
    );
}
