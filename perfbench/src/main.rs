//! `perfbench` — the repository's end-to-end benchmark of wake decisions.
//!
//! ```text
//! perfbench --workload <serve-closed|serve-open|batch-corpus> --seed <n>
//!           --seconds <n> --trace <0|1> [--truncate-one]
//! ```
//!
//! Every workload trains a real pipeline on rendered captures (timed as
//! `setup_s`, repeated [`SETUPS`] times, median reported), computes a
//! solo reference for every input, then drives the workload for
//! `--seconds` and checks each decision against its reference. Every
//! timing is scaled to the reference host by calibration samples taken
//! next to it (see `calib.rs`). With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics from replays that time
//! each layer's public calls (see `README.md`). `--truncate-one` injects a
//! capture too short to decide, for the self-test's failure accounting.

mod calib;
mod drive;
mod inputs;
mod layers;
mod setup;
mod sys;

use ht_dsp::json::Json;
use ht_dsp::rng::{derive_seed, SeedableRng, StdRng};

use crate::calib::Calibrator;
use crate::drive::{Drive, Expected};
use crate::inputs::Capture;
use crate::layers::{Chunking, Layers, Pacing};
use crate::setup::SetupTimes;
use crate::sys::{median, quantile};

/// Threads the pool runs on: pinned, because the default is nproc − 1.
const THREADS: &str = "2";

/// The open loop's arrival rate, sessions per second: about a quarter of
/// the closed loop's measured capacity on a 2-vCPU machine. Fixed here
/// (and in `BENCHMARK.json`), never derived at run time.
const OPEN_RATE_PER_S: f64 = 28.0;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Calibration samples taken before and after the open loop, whose
/// generator threads must not be held up by one in the middle.
const OPEN_CALIBRATIONS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeClosed,
    ServeOpen,
    BatchCorpus,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-closed" => Some(Workload::ServeClosed),
            "serve-open" => Some(Workload::ServeOpen),
            "batch-corpus" => Some(Workload::BatchCorpus),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeClosed => "serve-closed",
            Workload::ServeOpen => "serve-open",
            Workload::BatchCorpus => "batch-corpus",
        }
    }

    fn serving(self) -> bool {
        self != Workload::BatchCorpus
    }

    /// The workload's captures: the serving pool or the batch corpus.
    fn specs(self) -> Vec<ht_datagen::CaptureSpec> {
        if self.serving() {
            inputs::serve_specs()
        } else {
            inputs::corpus_specs()
        }
    }
}

/// First argument of the child process that renders missing inputs.
const RENDER_INPUTS: &str = "--render-inputs";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    truncate: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <serve-closed|serve-open|batch-corpus> \
         --seed <n> --seconds <n> --trace <0|1> [--truncate-one]"
    );
    std::process::exit(2);
}

fn bad<T>(flag: &str, value: &str) -> T {
    usage(&format!("bad value {value:?} for {flag}"))
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut truncate = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--truncate-one" {
            truncate = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).unwrap_or_else(|| bad(&flag, &value)))
            }
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad(&flag, &value))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| bad(&flag, &value)),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&flag, &value),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        truncate,
    }
}

/// Applies one permutation to parallel vectors.
fn permute<T>(v: &mut Vec<T>, perm: &[usize]) {
    let mut taken: Vec<Option<T>> = v.drain(..).map(Some).collect();
    v.extend(
        perm.iter()
            .map(|&i| taken[i].take().expect("permutation index")),
    );
}

/// One metric for the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn main() {
    // Pin what the numbers depend on before any pool or registry starts.
    std::env::set_var("HT_THREADS", THREADS);
    std::env::set_var("HT_OBS", "off");
    ht_obs::set_mode(ht_obs::Mode::Off);
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(RENDER_INPUTS) {
        // The child that fills the render cache for its parent's run.
        let w = argv
            .get(2)
            .and_then(|name| Workload::parse(name))
            .unwrap_or_else(|| usage("--render-inputs needs a workload"));
        let n = inputs::render_missing(&w.specs());
        eprintln!("perfbench: rendered {n} captures into the cache");
        return;
    }
    let args = parse_args();
    let w = args.workload;

    eprintln!(
        "perfbench: {} seed {} — preparing inputs",
        w.name(),
        args.seed
    );
    let mut render = std::process::Command::new(std::env::current_exe().expect("own path"));
    render.args([RENDER_INPUTS, w.name()]);
    let inputs = inputs::generate(w.specs(), render);
    // Allocated before the reset, so its buffer is a constant part of
    // `rss_peak_mb` rather than a peak that depends on when it runs.
    let mut cal = Calibrator::new();
    let rss_reset = sys::reset_peak_rss();

    // The set-up that serves the drive; the repeats that `setup_s` takes
    // its median over run after the drive, so `rss_peak_mb` covers exactly
    // one set-up. Calibration samples run between set-ups and between
    // measured units, so their median covers the whole run.
    cal.sample();
    let mut trained = setup::train(&inputs.training, w.serving());
    if args.trace && w.serving() {
        trained
            .models
            .calibrate_int8(trained.ht.config(), &inputs.training);
    }
    let server = w.serving().then(|| {
        let (server, build_s) = setup::build_server(&trained.ht);
        trained.times.server_build_s = build_s;
        trained.times.total_s += build_s;
        server
    });
    cal.sample();
    let mut setups: Vec<SetupTimes> = vec![trained.times];
    let ht = &trained.ht;
    let rss_after_setup_mb = sys::peak_rss_mb();

    // References (untimed), then the seeded order of the workload's inputs.
    let mut captures: Vec<Capture> = inputs.captures;
    let mut exp: Vec<Expected> = drive::references(ht, &inputs.specs, &captures, w.serving());
    let perm = drive::permutation(captures.len(), &mut StdRng::seed_from_u64(args.seed));
    permute(&mut captures, &perm);
    permute(&mut exp, &perm);

    let d: Drive = match w {
        Workload::ServeClosed => {
            let server = server.as_ref().expect("serving server");
            // Warm-up call: grows every slot's buffers before timing.
            drive::closed(
                server,
                &mut captures,
                &mut exp,
                &mut cal,
                derive_seed(args.seed, 9),
                0.0,
                false,
            );
            drive::closed(
                server,
                &mut captures,
                &mut exp,
                &mut cal,
                args.seed,
                args.seconds,
                args.truncate,
            )
        }
        Workload::ServeOpen => {
            let server = server.as_ref().expect("serving server");
            drive::closed(
                server,
                &mut captures,
                &mut exp,
                &mut cal,
                derive_seed(args.seed, 9),
                0.0,
                false,
            );
            for _ in 0..OPEN_CALIBRATIONS {
                cal.sample();
            }
            let d = drive::open(
                server,
                &captures,
                &exp,
                args.seed,
                args.seconds,
                OPEN_RATE_PER_S,
                args.truncate,
            );
            for _ in 0..OPEN_CALIBRATIONS {
                cal.sample();
            }
            d
        }
        Workload::BatchCorpus => drive::batch(
            ht,
            &captures,
            &exp,
            &mut cal,
            args.seed,
            args.seconds,
            args.truncate,
        ),
    };
    let t = &d.tally;
    let decisions = t.decisions as f64;
    // Closed loop and batch: every call or pass does the same work; the run
    // reports the median over them. Open loop: the whole drive, whose rate
    // is the offered load, which no host speed changes.
    let raw = if d.unit_rates.is_empty() {
        (
            decisions / d.wall_s,
            d.cpu_s * 1e3 / decisions,
            median(&d.decision_ms),
        )
    } else {
        (
            median(&d.unit_rates),
            median(&d.unit_cpu_ms),
            median(&d.unit_p50_ms),
        )
    };
    let accuracy = t.truthful as f64 / decisions;
    let rss_peak_mb = sys::peak_rss_mb();
    for _ in 1..SETUPS {
        setups.push(setup::timed(&inputs.training, w.serving()));
        cal.sample();
    }
    let setup_raw = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
    // Every timing scaled to the reference host by the whole run's samples.
    let scale = cal.scale();
    let decisions_per_s = if w == Workload::ServeOpen {
        raw.0
    } else {
        raw.0 / scale
    };
    let cpu_ms_per_decision = raw.1 * scale;
    let decision_ms_p50 = raw.2 * scale;
    let setup_s = setup_raw * scale;
    eprintln!(
        "perfbench: set-up {setup_s:.3} s (median of {}; {setup_raw:.3} s before scaling by {scale:.3})",
        setups.len()
    );
    let mix_ok = t.accepts > 0 && t.orientation_rejects > 0 && t.liveness_rejects > 0;
    let correct = t.mismatches == 0 && mix_ok;
    eprintln!(
        "perfbench: {} decisions in {:.3} s ({decisions_per_s:.1}/s), {} failed, mix {}/{}/{} \
         (accept/orientation/liveness), accuracy {accuracy:.4}",
        t.decisions, d.wall_s, t.failed, t.accepts, t.orientation_rejects, t.liveness_rejects
    );

    let mut diagnostics = Json::obj()
        .set("decisions", t.decisions)
        .set("mismatches", t.mismatches)
        .set("accepts", t.accepts)
        .set("orientation_rejects", t.orientation_rejects)
        .set("liveness_rejects", t.liveness_rejects)
        .set("rejected", t.rejected)
        .set("evicted", t.evicted)
        .set("finalize_retries", t.finalize_retries)
        .set("decision_ms_p99", quantile(&d.decision_ms, 0.99))
        .set("decision_samples", d.decision_ms.len())
        .set(
            "unit_rates",
            Json::Arr(d.unit_rates.iter().map(|v| Json::F64(*v)).collect()),
        )
        .set(
            "unit_cpu_ms",
            Json::Arr(d.unit_cpu_ms.iter().map(|v| Json::F64(*v)).collect()),
        )
        .set("host_scale", scale)
        .set("raw_decisions_per_s", raw.0)
        .set("raw_cpu_ms_per_decision", raw.1)
        .set("raw_decision_ms_p50", raw.2)
        .set("raw_setup_s", setup_raw)
        .set(
            "calibration_s",
            Json::Arr(cal.samples.iter().map(|v| Json::F64(*v)).collect()),
        )
        .set("rss_peak_after_setup_mb", rss_after_setup_mb)
        .set(
            "setup_s_each",
            Json::Arr(setups.iter().map(|s| Json::F64(s.total_s)).collect()),
        )
        .set(
            "liveness_fit_s_each",
            Json::Arr(setups.iter().map(|s| Json::F64(s.liveness_fit_s)).collect()),
        );
    if w == Workload::ServeOpen {
        diagnostics = diagnostics
            .set("late_ms_p50", median(&d.late_ms))
            .set("late_ms_p99", quantile(&d.late_ms, 0.99))
            .set("late_ms_max", sys::max(&d.late_ms))
            .set("chunk_ms_p99", quantile(&d.chunk_ms, 0.99))
            .set("chunk_ms_p50", median(&d.chunk_ms))
            .set("last_chunk_late_ms_p50", median(&d.last_late_ms))
            .set("finalize_ms_p50", median(&d.finalize_ms))
            .set("chunk_samples", d.chunk_ms.len());
    }
    let mut context = Json::obj()
        .set("workload", w.name())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("setups", SETUPS)
        .set("calibration_ref_s", calib::REF_S)
        .set("HT_THREADS", THREADS)
        .set("HT_OBS", "off")
        .set("pool_threads", ht_par::current_threads())
        .set("nproc", sys::nproc())
        .set("cpu_model", sys::cpu_model())
        .set("quant_mode", format!("{:?}", ht.quant_mode()))
        .set("input_checksum", format!("{:#018x}", inputs.checksum))
        .set("schedule_checksum", format!("{:#018x}", t.schedule))
        .set("captures_rendered", inputs.rendered)
        .set("workload_captures", captures.len())
        .set("vmhwm_reset_after_inputs", rss_reset);
    if w == Workload::ServeOpen {
        context = context.set("open_rate_per_s", OPEN_RATE_PER_S);
    }
    println!("{}", Json::obj().set("context", context).dump());
    println!("{}", Json::obj().set("diagnostics", diagnostics).dump());

    let metrics = if args.trace {
        let sample: Vec<&Capture> = captures.iter().take(8).collect();
        let chunking = if w == Workload::ServeClosed {
            Chunking::Ragged
        } else {
            Chunking::Aligned
        };
        let l = layers::replay(ht, &trained.models, &sample, chunking, args.seed);
        let pacing = if w == Workload::ServeOpen {
            Pacing {
                late_ms: d.late_ms.clone(),
                chunk_ms: d.chunk_ms.clone(),
            }
        } else {
            layers::paced(ht, sample[0])
        };
        let int8_calibrate_s = if w.serving() {
            median(
                &setups
                    .iter()
                    .map(|s| s.int8_calibrate_s)
                    .collect::<Vec<_>>(),
            )
        } else {
            let mut copy = ht.clone();
            let t0 = std::time::Instant::now();
            copy.enable_int8(&inputs.training.captures)
                .expect("int8 calibration");
            sys::secs(t0)
        };
        let (serve_build_s, slots_built) = match &server {
            Some(s) => (
                median(&setups.iter().map(|s| s.server_build_s).collect::<Vec<_>>()),
                s.stats().slots_built as f64,
            ),
            None => (l.serve_build_s, l.serve_slots_built),
        };
        let threads = ht_par::current_threads() as f64;
        let layer_sum = if w.serving() {
            l.serve_layer_sum_ms
        } else {
            l.batch_layer_sum_ms
        };
        per_layer(
            &l,
            &pacing,
            &d,
            &setups,
            LayerExtras {
                int8_calibrate_s,
                serve_build_s,
                slots_built,
                busy_share: d.cpu_s / (d.wall_s * threads),
                raw_cpu_ms_per_decision: raw.1,
                calibration_ms: median(&cal.samples) * 1e3,
                decisions_per_s,
                cpu_ms_per_decision,
                decision_ms_p50,
                layer_sum,
            },
        )
    } else {
        vec![
            m("setup_s", setup_s, "s"),
            m("rss_peak_mb", rss_peak_mb, "MiB"),
            m("decisions_per_s", decisions_per_s, "1/s"),
            m("cpu_ms_per_decision", cpu_ms_per_decision, "ms"),
            m("decision_ms_p50", decision_ms_p50, "ms"),
            m("accuracy", accuracy, "fraction"),
        ]
    };
    let mut obj = Json::obj();
    for metric in &metrics {
        obj = obj.set(
            metric.name,
            Json::obj()
                .set("value", metric.value)
                .set("unit", metric.unit),
        );
    }
    let result = Json::obj()
        .set("correct", correct)
        .set("attempted", t.attempted.max(1))
        .set("failed", t.failed)
        .set("metrics", obj);
    println!("{}", result.dump());
}

/// The traced run's values that do not come from the layer replays.
struct LayerExtras {
    int8_calibrate_s: f64,
    serve_build_s: f64,
    slots_built: f64,
    busy_share: f64,
    decisions_per_s: f64,
    cpu_ms_per_decision: f64,
    decision_ms_p50: f64,
    layer_sum: f64,
    /// Unscaled, like the layer replays the ratio sets it against.
    raw_cpu_ms_per_decision: f64,
    calibration_ms: f64,
}

fn per_layer(
    l: &Layers,
    p: &Pacing,
    d: &Drive,
    setups: &[SetupTimes],
    x: LayerExtras,
) -> Vec<Metric> {
    let t = &d.tally;
    let per_decision = |v: u64| v as f64 / t.decisions as f64;
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let (late_p50, late_p99, late_max) = p.late();
    vec![
        m("serve.push_us_p50", l.serve_push_us_p50, "us"),
        m("serve.push_overhead_us", l.serve_push_overhead_us, "us"),
        m(
            "serve.finalize_batch_ms_per_session",
            l.serve_finalize_batch_ms_per_session,
            "ms",
        ),
        m("serve.finalize_ms_p50", l.serve_finalize_ms_p50, "ms"),
        m("serve.build_s", x.serve_build_s, "s"),
        m("serve.slots_built", x.slots_built, "count"),
        m("serve.rejected", t.rejected as f64, "count"),
        m("serve.evicted", t.evicted as f64, "count"),
        m("serve.finalize_retries", t.finalize_retries as f64, "count"),
        m("par.busy_share", x.busy_share, "fraction"),
        m("headtalk.push_us_p50", l.headtalk_push_us_p50, "us"),
        m("headtalk.assemble_ms_p50", l.headtalk_assemble_ms_p50, "ms"),
        m("headtalk.infer_us_p50", l.headtalk_infer_us_p50, "us"),
        m(
            "headtalk.decide_batch_ms_p50",
            l.headtalk_decide_batch_ms_p50,
            "ms",
        ),
        m("headtalk.extract_ms_p50", l.headtalk_extract_ms_p50, "ms"),
        m(
            "headtalk.liveness_input_ms_p50",
            l.headtalk_liveness_input_ms_p50,
            "ms",
        ),
        m("headtalk.int8_calibrate_s", x.int8_calibrate_s, "s"),
        m(
            "headtalk.frames_per_decision",
            per_decision(t.frames),
            "count",
        ),
        m(
            "headtalk.samples_per_decision",
            per_decision(t.samples),
            "count",
        ),
        m("stream.analyze_us_p50", l.stream_analyze_us_p50, "us"),
        m("stream.ring_us_per_chunk", l.stream_ring_us_per_chunk, "us"),
        m(
            "stream.directivity_push_us_per_chunk",
            l.stream_directivity_push_us_per_chunk,
            "us",
        ),
        m(
            "stream.directivity_flush_ms",
            l.stream_directivity_flush_ms,
            "ms",
        ),
        m("dsp.stft_us_per_frame", l.dsp_stft_us_per_frame, "us"),
        m("dsp.gcc_us_per_frame", l.dsp_gcc_us_per_frame, "us"),
        m("ml.liveness_us_p50", l.ml_liveness_us_p50, "us"),
        m("ml.orientation_us_p50", l.ml_orientation_us_p50, "us"),
        m("ml.liveness_fit_s", setup_median(|s| s.liveness_fit_s), "s"),
        m(
            "ml.orientation_fit_s",
            setup_median(|s| s.orientation_fit_s),
            "s",
        ),
        m("gen.late_ms_p50", late_p50, "ms"),
        m("gen.late_ms_p99", late_p99, "ms"),
        m("gen.late_ms_max", late_max, "ms"),
        m("gen.chunk_ms_p99", quantile(&p.chunk_ms, 0.99), "ms"),
        m("gen.decision_ms_p99", quantile(&d.decision_ms, 0.99), "ms"),
        m("trace.decisions_per_s", x.decisions_per_s, "1/s"),
        m("trace.cpu_ms_per_decision", x.cpu_ms_per_decision, "ms"),
        m("trace.decision_ms_p50", x.decision_ms_p50, "ms"),
        m("trace.layer_sum_ms_per_decision", x.layer_sum, "ms"),
        m(
            "trace.layer_sum_ratio",
            x.layer_sum / x.raw_cpu_ms_per_decision,
            "fraction",
        ),
        m("host.calibration_ms", x.calibration_ms, "ms"),
    ]
}
