//! Sustained multi-tenant serving throughput and tail latency.
//!
//! Drives the deterministic load generator (`ht_serve::run_load`) over a
//! sharded [`WakeServer`] — thousands of sessions, ragged seeded
//! interleavings — with observability on, then reads the serving-layer
//! histograms back out of the `ht-obs` registry. Doubles as CI's gate on
//! the serving budgets:
//!
//! * sustained end-to-end wake decisions per second must stay above
//!   [`DECISIONS_PER_SEC_FLOOR`],
//! * the decision path itself (one session's finalize: evidence
//!   assembly, model inference and slot release — the `serve.decision`
//!   span, measured at the median per session) must sustain
//!   [`FINALIZE_DECISIONS_PER_SEC_FLOOR`]: before the incremental
//!   finalize this path re-transformed the whole capture at
//!   ~4.5 ms/session (~144 decisions/s single-core); incremental
//!   assembly with f64 inference reached ~620/s; int8 decision
//!   backends ~930/s; the adaptive directivity flush and AVX2 i8 dot
//!   kernels put the measured path at ~1.8k/s, and the floor sits above
//!   every slower configuration so losing any of the optimizations
//!   cannot land,
//! * the median `stream.assemble` (the `WakeStream` evidence assembly
//!   inside each finalize) must stay under [`ASSEMBLE_P50_CEILING_NS`] —
//!   the directivity-flush half of the decision path, pinned separately
//!   so inference speed cannot mask a flush regression,
//! * the per-session finalize p99 (`serve.decision`) must stay under
//!   [`FINALIZE_P99_CEILING_NS`],
//! * the per-chunk `serve.push` p99 must stay under
//!   [`PUSH_P99_CEILING_NS`] (the tail a fleet feels as added wake
//!   latency).
//!
//! Writes `BENCH_server.json` (throughput, span percentiles, serve
//! counters, replay checksum) into `HT_BENCH_DIR`.

use std::time::Instant;

use ht_bench::format_ns;
use ht_dsp::json::Json;
use ht_obs::HistSnapshot;
use ht_serve::{
    noise_captures, run_load, toy_pipeline, LoadConfig, ServeConfig, TokenBucketConfig, WakeServer,
};

/// CI floor on sustained end-to-end wake decisions per second (pushes,
/// scheduling, and finalization all included). Measured ~530/s in fast
/// mode on a single core with prewarmed slots — per-frame analysis
/// happens on the push path, so this number is bounded by total DSP
/// work, not by finalize; the floor sits well below so only a serving
/// regression (lock contention, lost parallelism, per-session rebuild
/// costs, losing prewarm) can cross it, not machine noise.
const DECISIONS_PER_SEC_FLOOR: f64 = 150.0;

/// CI floor on decision-path throughput: the inverse of the median
/// per-session `serve.decision` span, which covers one session's whole
/// finalize (evidence assembly, inference, slot release). The
/// pre-incremental path re-ran the full STFT/SRP/feature pipeline at
/// finalize (~4.5 ms/session, ~144/s single-core); incremental assembly
/// is O(features) (~1.6 ms/session, ~620/s with f64 inference); int8
/// decision inference (`QuantMode::Int8`, calibrated below) cut the
/// `serve.decision` median from ~0.8 ms to ~0.25 ms (~930/s); the
/// adaptive directivity flush (partial captures transform at the next
/// power of two instead of the full 32k segment) plus the AVX2 i8 dot
/// kernels push the measured path to ~1.8k/s. 1200/s sits above
/// everything the old full-segment flush could reach, so regressing the
/// flush grid, the quantized backend, or the capture re-transform cannot
/// pass. Gated at the median so isolated scheduler stalls on a loaded
/// CI runner don't fail a healthy path.
const FINALIZE_DECISIONS_PER_SEC_FLOOR: f64 = 1200.0;

/// CI ceiling on the median `stream.assemble` cost in nanoseconds: the
/// evidence-assembly half of the decision path, dominated by the
/// directivity flush. With the adaptive flush the median sits at
/// ~180–280 µs for the bench's half-second captures; a regression back
/// to transforming the full 32k segment costs over a millisecond and
/// trips this even when `serve.decision` stays fast.
const ASSEMBLE_P50_CEILING_NS: u64 = 300_000;

/// CI ceiling on the per-session finalize (`serve.decision`) p99 in
/// nanoseconds. Measured ~0.8 ms (one conv-net forward + the facing
/// classifier); 4 ms sits under the old ~4.5 ms re-transform cost so a
/// regression to whole-capture finalization trips it even before the
/// throughput floor does.
const FINALIZE_P99_CEILING_NS: u64 = 4_000_000;

/// CI ceiling on the `serve.push` p99 in nanoseconds. Measured ~0.56 ms;
/// 5 ms (half a hop of audio) is the point where per-chunk tail latency
/// would threaten the real-time budget.
const PUSH_P99_CEILING_NS: u64 = 5_000_000;

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
    let n_sessions = if fast { 300 } else { 2000 };

    let mut ht = toy_pipeline();
    let serve_config = ServeConfig {
        n_shards: 4,
        sessions_per_shard: 32,
        // Build every slot at server construction: `serve.open` then never
        // pays first-session stream construction, which used to put tens
        // of milliseconds into the open p99 recorded below.
        prewarm_slots: 32,
        bucket: TokenBucketConfig {
            capacity: u64::MAX,
            refill_per_sec: 0,
        },
        ..ServeConfig::for_pipeline(ht.config())
    };
    let load_config = LoadConfig {
        seed: 0xBE7C,
        n_sessions,
        ..LoadConfig::default()
    };
    let captures = noise_captures(8, serve_config.n_channels, 4800, 0, 0x5E55);
    // Serve the way a deployed fleet would: int8 decision backends
    // calibrated offline on the drive's own capture family. The server
    // inherits the mode through `Pipeline::infer_assembled`, so the
    // decision-path floor below gates the quantized inference speedup
    // end-to-end, not just in a kernel microbench.
    ht.enable_int8(&captures).expect("int8 calibration");

    eprintln!(
        "suite server: {n_sessions} sessions, {} shards x {} slots, {} threads",
        serve_config.n_shards,
        serve_config.sessions_per_shard,
        ht_par::current_threads(),
    );

    // Warmup drive: builds the session slots and settles the FFT plan
    // cache — the steady state the throughput claim is about.
    {
        let server = WakeServer::new(&ht, serve_config);
        let warm = LoadConfig {
            n_sessions: 2 * serve_config.n_shards * serve_config.sessions_per_shard,
            ..load_config
        };
        run_load(&server, &captures, &warm).expect("warmup drive");
    }

    // Two measured drives; the faster one is gated. A single drive is
    // hostage to transient contention (fast mode is only ~1.5 s of work),
    // and both drives must replay to the same checksum anyway — asserted
    // below, making the bench double as a determinism check.
    let mut best: Option<(ht_serve::LoadReport, ht_obs::RegistrySnapshot, f64, usize)> = None;
    for _ in 0..2 {
        ht_obs::set_mode(ht_obs::Mode::Json);
        ht_obs::registry().reset();
        let server = WakeServer::new(&ht, serve_config);
        let start = Instant::now();
        let report = run_load(&server, &captures, &load_config).expect("measured drive");
        let elapsed = start.elapsed().as_secs_f64();
        let snapshot = ht_obs::registry().snapshot();
        ht_obs::set_mode(ht_obs::Mode::Off);
        let slots_built = server.stats().slots_built;
        match &best {
            Some((prev_report, _, prev_elapsed, _)) => {
                assert_eq!(
                    prev_report.checksum, report.checksum,
                    "two identical drives produced different checksums"
                );
                if elapsed < *prev_elapsed {
                    best = Some((report, snapshot, elapsed, slots_built));
                }
            }
            None => best = Some((report, snapshot, elapsed, slots_built)),
        }
    }
    let (report, snapshot, elapsed, slots_built) = best.expect("at least one drive");

    assert_eq!(report.decided, n_sessions, "every session must decide");
    let decisions_per_sec = report.decided as f64 / elapsed.max(1e-9);
    eprintln!(
        "  decided {} ({} accepted, {} muted) in {elapsed:.3} s  ->  {decisions_per_sec:.0} decisions/s",
        report.decided, report.accepted, report.soft_muted,
    );
    eprintln!("  checksum {:#018x}", report.checksum);

    let span_names = [
        "serve.open",
        "serve.push",
        "stream.assemble",
        "serve.decision",
    ];
    let mut spans = Vec::new();
    for name in span_names {
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
        spans.push(hist_json(name, h));
    }
    let open = *snapshot.span("serve.open").expect("open span");
    let push = *snapshot.span("serve.push").expect("push span");
    let assemble = *snapshot.span("stream.assemble").expect("assemble span");
    let decision = *snapshot.span("serve.decision").expect("decision span");

    // Decision-path throughput: time spent finalizing sessions —
    // assembling evidence and running models, all inside the
    // `serve.decision` span — the quantity the incremental finalize changed
    // (end-to-end decisions/s above is bounded by push-path DSP work and
    // machine parallelism). Two views: the mean-based total is reported,
    // the median-based typical cost is gated. The gate uses medians
    // because on a busy single-core CI runner a few scheduler/paging
    // stalls can drop 30+ ms into an assemble tail and triple the mean
    // while the typical per-session cost is untouched; a regression back
    // to re-transforming the capture moves the median itself (~4.5 ms),
    // so the floor still catches it.
    let decision_path_secs = decision.mean_ns * decision.count as f64 / 1e9;
    let mean_decisions_per_sec = report.decided as f64 / decision_path_secs.max(1e-9);
    let finalize_decisions_per_sec = 1e9 / (decision.p50_ns as f64).max(1e-9);
    eprintln!(
        "  decision path: {decision_path_secs:.3} s total ({mean_decisions_per_sec:.0}/s mean)  ->  \
         {finalize_decisions_per_sec:.0} decisions/s typical"
    );

    let counters = Json::obj()
        .set("admitted", snapshot.counter("serve.admitted").unwrap_or(0))
        .set(
            "decisions",
            snapshot.counter("serve.decisions").unwrap_or(0),
        )
        .set(
            "shard_sessions_hwm",
            snapshot.counter("serve.shard_sessions_hwm").unwrap_or(0),
        );

    let json = Json::obj()
        .set("suite", "server")
        .set(
            "config",
            Json::obj()
                .set("sessions", n_sessions)
                .set("n_shards", serve_config.n_shards)
                .set("sessions_per_shard", serve_config.sessions_per_shard)
                .set("threads", ht_par::current_threads())
                .set("seed", load_config.seed),
        )
        .set("decisions_per_sec", decisions_per_sec)
        .set("decisions_per_sec_floor", DECISIONS_PER_SEC_FLOOR)
        .set("finalize_decisions_per_sec", finalize_decisions_per_sec)
        .set("finalize_decisions_per_sec_mean", mean_decisions_per_sec)
        .set(
            "finalize_decisions_per_sec_floor",
            FINALIZE_DECISIONS_PER_SEC_FLOOR,
        )
        .set("finalize_p99_ceiling_ns", FINALIZE_P99_CEILING_NS)
        .set("assemble_p50_ns", assemble.p50_ns)
        .set("assemble_p50_ceiling_ns", ASSEMBLE_P50_CEILING_NS)
        .set("open_p99_ns", open.p99_ns)
        .set("push_p99_ceiling_ns", PUSH_P99_CEILING_NS)
        .set("elapsed_s", elapsed)
        .set("decided", report.decided)
        .set("accepted", report.accepted)
        .set("soft_muted", report.soft_muted)
        .set("frames", report.frames)
        .set("samples", report.samples)
        .set("checksum", format!("{:#018x}", report.checksum))
        .set("slots_built", slots_built)
        .set("spans", Json::Arr(spans))
        .set("counters", counters);
    let dir = std::env::var("HT_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let _ = std::fs::create_dir_all(&dir);
    let path = std::path::Path::new(&dir).join("BENCH_server.json");
    std::fs::write(&path, json.pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("suite server: wrote {}", path.display());

    // The CI gates: sustained throughput, incremental finalize, and
    // bounded tails.
    let mut violations = Vec::new();
    if decisions_per_sec < DECISIONS_PER_SEC_FLOOR {
        violations.push(format!(
            "{decisions_per_sec:.0} decisions/s is under the {DECISIONS_PER_SEC_FLOOR:.0}/s floor"
        ));
    }
    if finalize_decisions_per_sec < FINALIZE_DECISIONS_PER_SEC_FLOOR {
        violations.push(format!(
            "decision path sustains {finalize_decisions_per_sec:.0} decisions/s at the median, \
             under the {FINALIZE_DECISIONS_PER_SEC_FLOOR:.0}/s floor (above the f64-inference \
             ceiling)"
        ));
    }
    if assemble.p50_ns > ASSEMBLE_P50_CEILING_NS {
        violations.push(format!(
            "stream.assemble p50 {} exceeds the {} ceiling",
            format_ns(assemble.p50_ns as f64),
            format_ns(ASSEMBLE_P50_CEILING_NS as f64),
        ));
    }
    if decision.p99_ns > FINALIZE_P99_CEILING_NS {
        violations.push(format!(
            "serve.decision p99 {} exceeds the {} ceiling",
            format_ns(decision.p99_ns as f64),
            format_ns(FINALIZE_P99_CEILING_NS as f64),
        ));
    }
    if push.p99_ns > PUSH_P99_CEILING_NS {
        violations.push(format!(
            "serve.push p99 {} exceeds the {} ceiling",
            format_ns(push.p99_ns as f64),
            format_ns(PUSH_P99_CEILING_NS as f64),
        ));
    }
    assert!(
        violations.is_empty(),
        "server throughput gate failed:\n{}",
        violations.join("\n")
    );
    eprintln!(
        "suite server: gate ok ({decisions_per_sec:.0} decisions/s >= {DECISIONS_PER_SEC_FLOOR:.0}, \
         decision path {finalize_decisions_per_sec:.0}/s >= {FINALIZE_DECISIONS_PER_SEC_FLOOR:.0}, \
         assemble p50 {} < {}, finalize p99 {} < {}, push p99 {} < {})",
        format_ns(assemble.p50_ns as f64),
        format_ns(ASSEMBLE_P50_CEILING_NS as f64),
        format_ns(decision.p99_ns as f64),
        format_ns(FINALIZE_P99_CEILING_NS as f64),
        format_ns(push.p99_ns as f64),
        format_ns(PUSH_P99_CEILING_NS as f64),
    );
}
