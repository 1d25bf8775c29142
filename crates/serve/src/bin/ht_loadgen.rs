//! `ht_loadgen` — deterministic load generator for the wake-word server.
//!
//! Replays thousands of synthetic wake events through a [`WakeServer`]
//! under a seeded interleaving schedule. Results (every decision bit and
//! rejection) are fully determined by `(--seed, scenario set)` at any
//! `HT_THREADS`; the printed checksum is the replay fingerprint. Wall-clock
//! throughput is reported for the operator but never feeds back into
//! results.
//!
//! ```text
//! ht_loadgen [--sessions N] [--seed S] [--shards N] [--slots N]
//!            [--bucket-capacity N] [--refill-per-sec N] [--spacing-ns N]
//!            [--chunk-min N] [--chunk-max N] [--captures N] [--render]
//! ```
//!
//! By default sessions stream seeded noise captures (fast, serving-layer
//! focused); `--render` draws the captures from `ht-datagen`'s
//! `serve_scenarios` acoustic renders instead (slower startup, exercises
//! real accept/reject decision traffic). Set `HT_OBS=json` or
//! `HT_OBS=summary` for the per-stage latency histograms and serve
//! counters.
//!
//! Unparsable or out-of-range values (zero shards, slots, captures or
//! minimum chunk, `--chunk-min` above `--chunk-max`, or so many noise
//! captures that the longest passes the pipeline's capture cap) print the
//! usage text and exit with status 2.

use std::time::Instant;

use headtalk::PipelineConfig;
use ht_serve::{
    noise_captures, run_load, toy_pipeline, LoadConfig, ServeConfig, TokenBucketConfig, WakeServer,
};

/// Samples per channel of the first noise capture.
const NOISE_LEN: usize = 4800;
/// Samples each further noise capture adds: capture `i` is
/// `NOISE_LEN + i * NOISE_JITTER` samples long.
const NOISE_JITTER: usize = 480;

struct Args {
    sessions: usize,
    seed: u64,
    shards: usize,
    slots: usize,
    bucket_capacity: u64,
    refill_per_sec: u64,
    spacing_ns: u64,
    chunk_min: usize,
    chunk_max: usize,
    captures: usize,
    render: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            sessions: 2000,
            seed: 0x10AD,
            shards: 4,
            slots: 64,
            bucket_capacity: 256,
            refill_per_sec: 1_000_000,
            spacing_ns: 1_000_000,
            chunk_min: 120,
            chunk_max: 960,
            captures: 8,
            render: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ht_loadgen [--sessions N] [--seed S] [--shards N] [--slots N]\n\
         \x20                 [--bucket-capacity N] [--refill-per-sec N] [--spacing-ns N]\n\
         \x20                 [--chunk-min N] [--chunk-max N] [--captures N] [--render]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--render" {
            args.render = true;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            usage();
        }
        let value = it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage();
        });
        // Seeds are conventionally written in hex throughout the repo
        // (HT_CHECK_SEED replay lines), so accept an 0x prefix everywhere.
        let parse = |what: &str| -> u64 {
            let parsed = match value.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => value.parse(),
            };
            parsed.unwrap_or_else(|_| {
                eprintln!("bad {what}: {value:?}");
                usage();
            })
        };
        match flag.as_str() {
            "--sessions" => args.sessions = parse("session count") as usize,
            "--seed" => args.seed = parse("seed"),
            "--shards" => args.shards = parse("shard count") as usize,
            "--slots" => args.slots = parse("slot count") as usize,
            "--bucket-capacity" => args.bucket_capacity = parse("bucket capacity"),
            "--refill-per-sec" => args.refill_per_sec = parse("refill rate"),
            "--spacing-ns" => args.spacing_ns = parse("spacing"),
            "--chunk-min" => args.chunk_min = parse("chunk min") as usize,
            "--chunk-max" => args.chunk_max = parse("chunk max") as usize,
            "--captures" => args.captures = parse("capture count") as usize,
            _ => {
                eprintln!("unknown flag {flag}");
                usage();
            }
        }
    }
    for (value, what) in [
        (args.shards, "--shards"),
        (args.slots, "--slots"),
        (args.captures, "--captures"),
        (args.chunk_min, "--chunk-min"),
    ] {
        if value == 0 {
            eprintln!("{what} must be at least 1");
            usage();
        }
    }
    if args.chunk_min > args.chunk_max {
        eprintln!(
            "--chunk-min {} exceeds --chunk-max {}",
            args.chunk_min, args.chunk_max
        );
        usage();
    }
    // `toy_pipeline` runs the default configuration.
    let cap = PipelineConfig::default().max_capture_samples();
    let longest = NOISE_JITTER
        .saturating_mul(args.captures - 1)
        .saturating_add(NOISE_LEN);
    if !args.render && longest > cap {
        eprintln!(
            "--captures {}: the longest noise capture ({longest} samples) passes the \
             {cap}-sample capture cap",
            args.captures
        );
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let ht = toy_pipeline();

    eprintln!(
        "loadgen: {} sessions, seed {:#x}, {} shards x {} slots, bucket {}+{}/s, chunks {}..={}",
        args.sessions,
        args.seed,
        args.shards,
        args.slots,
        args.bucket_capacity,
        args.refill_per_sec,
        args.chunk_min,
        args.chunk_max,
    );

    let captures: Vec<Vec<Vec<f64>>> = if args.render {
        eprintln!(
            "loadgen: rendering {} ht-datagen serve scenarios...",
            args.captures
        );
        let specs = ht_datagen::datasets::serve_scenarios(args.captures, args.seed);
        ht_par::par_map(&specs, |spec| spec.render().expect("scenario render"))
    } else {
        noise_captures(args.captures, 4, NOISE_LEN, NOISE_JITTER, args.seed)
    };

    let server = WakeServer::new(
        &ht,
        ServeConfig {
            n_shards: args.shards,
            sessions_per_shard: args.slots,
            bucket: TokenBucketConfig {
                capacity: args.bucket_capacity,
                refill_per_sec: args.refill_per_sec,
            },
            ..ServeConfig::for_pipeline(ht.config())
        },
    );
    let config = LoadConfig {
        seed: args.seed,
        n_sessions: args.sessions,
        open_spacing_ns: args.spacing_ns,
        chunk_min: args.chunk_min,
        chunk_max: args.chunk_max,
    };

    let start = Instant::now();
    let report = match run_load(&server, &captures, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: drive failed: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.stats();

    println!("sessions          {}", args.sessions);
    println!("decided           {}", report.decided);
    println!("  accepted        {}", report.accepted);
    println!("  soft-muted      {}", report.soft_muted);
    println!("rejected (rate)   {}", report.rejected_rate);
    println!("rejected (full)   {}", report.rejected_capacity);
    println!("frames            {}", report.frames);
    println!("samples           {}", report.samples);
    println!("slots built       {}", stats.slots_built);
    println!("checksum          {:#018x}", report.checksum);
    println!(
        "wall clock        {elapsed:.3} s  ({:.0} decisions/s, {} threads)",
        report.decided as f64 / elapsed.max(1e-9),
        ht_par::current_threads(),
    );

    let obs = ht_obs::registry().snapshot();
    if !obs.is_empty() {
        eprintln!("{}", obs.summary_table());
    }
}
