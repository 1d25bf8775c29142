//! The three measured drives. Each checks every decision it makes against
//! a reference computed before timing, and counts every error, reject,
//! eviction and mismatch as a failed operation.

use std::time::{Duration, Instant};

use headtalk::stream::{StreamOutcome, WakeVerdict};
use headtalk::{HeadTalk, WakeDecision};
use ht_datagen::CaptureSpec;
use ht_dsp::rng::{derive_seed, Rng, SeedableRng, StdRng};
use ht_serve::{run_load, LoadConfig, ServeError, WakeServer};

use crate::calib::Calibrator;
use crate::inputs::{Capture, Truth};
use crate::sys::{median, secs, Fnv, Phase};

/// Samples per pushed chunk in the open loop: one 10 ms hop at 48 kHz.
pub const OPEN_CHUNK: usize = 480;
/// Ragged chunk bounds of the closed loop, in samples.
pub const CLOSED_CHUNK: (usize, usize) = (120, 960);
/// Sessions per `run_load` call in the closed loop: two waves of 64 (half
/// of every shard's 32 slots each), so the second wave's admission runs
/// overlapped with the first wave's streaming.
pub const CLOSED_CALL: usize = 128;
/// Fewer samples than one analysis frame: the self-test's truncated
/// session, which no layer can decide.
const TRUNCATED_LEN: usize = 400;

/// What a decision said, in the terms the verdict mix and the
/// correctness check use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub accepted: bool,
    pub live: bool,
    pub facing: bool,
}

impl Verdict {
    fn of(d: &WakeDecision) -> Verdict {
        Verdict {
            accepted: d.accepted(),
            live: d.live,
            facing: d.facing,
        }
    }

    fn served(o: &StreamOutcome) -> Option<Verdict> {
        let d = o.decision.as_ref()?;
        Some(Verdict {
            accepted: o.verdict == WakeVerdict::Allow,
            live: d.live,
            facing: d.facing,
        })
    }
}

/// The reference for one capture, computed before anything is timed.
#[derive(Debug, Clone)]
pub struct Expected {
    pub truth: Truth,
    /// Solo `decide_batch` in the pipeline's quant mode.
    pub batch: WakeDecision,
    pub batch_verdict: Verdict,
    /// A solo `WakeStream` over hop-aligned chunks: the exact bits any
    /// served session of this capture must reproduce.
    pub stream: Option<StreamBits>,
    pub len: usize,
    pub channels: usize,
}

/// The fields `run_load` folds into its checksum for one session.
#[derive(Debug, Clone, Copy)]
pub struct StreamBits {
    pub verdict: Verdict,
    verdict_code: u64,
    live_bits: u64,
    facing_bits: u64,
    feature_fold: u64,
    pub frames: u64,
    samples: u64,
}

impl StreamBits {
    fn of(o: &StreamOutcome, channels: usize) -> StreamBits {
        let d = o.decision.expect("advisory streams always decide");
        let mut fold = Fnv::new();
        for f in &o.features {
            fold.mix(f.to_bits());
        }
        StreamBits {
            verdict: Verdict::served(o).expect("decision present"),
            verdict_code: match o.verdict {
                WakeVerdict::Allow => 1,
                WakeVerdict::SoftMute => 2,
                WakeVerdict::Undecided => 3,
            },
            live_bits: d.live_probability.to_bits(),
            facing_bits: d.facing_score.to_bits(),
            feature_fold: fold.0,
            frames: o.frames,
            samples: (o.samples_per_channel * channels) as u64,
        }
    }

    fn matches(&self, o: &StreamOutcome) -> bool {
        o.decision.is_some_and(|d| {
            d.live_probability.to_bits() == self.live_bits
                && d.facing_score.to_bits() == self.facing_bits
        }) && o.frames == self.frames
            && Verdict::served(o) == Some(self.verdict)
    }
}

/// Computes every capture's reference; `with_stream` adds the solo stream
/// replay the serving drives compare against.
pub fn references(
    ht: &HeadTalk,
    specs: &[CaptureSpec],
    captures: &[Capture],
    with_stream: bool,
) -> Vec<Expected> {
    specs
        .iter()
        .zip(captures)
        .map(|(spec, capture)| {
            let (batch, _) = ht.decide_batch(capture).expect("reference decide_batch");
            let stream = with_stream.then(|| {
                let mut s = ht.streamer(capture.len()).expect("reference stream");
                for chunk in chunks(capture, OPEN_CHUNK) {
                    s.push(&chunk).expect("reference push");
                }
                StreamBits::of(&s.finalize().expect("reference finalize"), capture.len())
            });
            Expected {
                truth: Truth::of(spec),
                batch,
                batch_verdict: Verdict::of(&batch),
                stream,
                len: capture[0].len(),
                channels: capture.len(),
            }
        })
        .collect()
}

/// `capture` cut into consecutive chunks of `size` samples per channel.
pub fn chunks(capture: &Capture, size: usize) -> Vec<Vec<&[f64]>> {
    let len = capture[0].len();
    (0..len)
        .step_by(size)
        .map(|pos| {
            capture
                .iter()
                .map(|c| &c[pos..(pos + size).min(len)])
                .collect()
        })
        .collect()
}

/// `capture` cut into seeded ragged chunks within `bounds`.
pub fn ragged_chunks<'c>(
    capture: &'c Capture,
    bounds: (usize, usize),
    rng: &mut StdRng,
) -> Vec<Vec<&'c [f64]>> {
    let len = capture[0].len();
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < len {
        let take = rng.gen_range(bounds.0..bounds.1 + 1).min(len - pos);
        out.push(capture.iter().map(|c| &c[pos..pos + take]).collect());
        pos += take;
    }
    out
}

fn truncated(capture: &Capture) -> Capture {
    capture
        .iter()
        .map(|c| c[..TRUNCATED_LEN].to_vec())
        .collect()
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..i + 1));
    }
    p
}

/// Operations attempted and how they ended.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Decisions that differ from their reference (counted in `failed`).
    pub mismatches: u64,
    pub decisions: u64,
    /// Decisions that agree with the scenario's ground truth.
    pub truthful: u64,
    pub accepts: u64,
    pub orientation_rejects: u64,
    pub liveness_rejects: u64,
    /// Admission refusals (counted in `failed`).
    pub rejected: u64,
    /// Mid-stream evictions and other push errors (counted in `failed`).
    pub evicted: u64,
    /// Finalize calls that could not decide (counted in `failed`).
    pub finalize_retries: u64,
    pub frames: u64,
    pub samples: u64,
    /// Fingerprint of the seeded schedule this drive ran.
    pub schedule: u64,
}

impl Tally {
    /// Books one decision that matched its reference.
    fn decided(&mut self, v: Verdict, truth: Truth) {
        self.decisions += 1;
        let class = match (v.accepted, v.live) {
            (true, _) => Truth::Accept,
            (false, true) => Truth::OrientationReject,
            (false, false) => Truth::LivenessReject,
        };
        match class {
            Truth::Accept => self.accepts += 1,
            Truth::OrientationReject => self.orientation_rejects += 1,
            Truth::LivenessReject => self.liveness_rejects += 1,
        }
        if class == truth {
            self.truthful += 1;
        }
    }

    fn mismatch(&mut self) {
        self.failed += 1;
        self.mismatches += 1;
    }

    fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.decisions += o.decisions;
        self.truthful += o.truthful;
        self.accepts += o.accepts;
        self.orientation_rejects += o.orientation_rejects;
        self.liveness_rejects += o.liveness_rejects;
        self.rejected += o.rejected;
        self.evicted += o.evicted;
        self.finalize_retries += o.finalize_retries;
        self.frames += o.frames;
        self.samples += o.samples;
    }
}

/// One drive's measurements.
#[derive(Debug, Default)]
pub struct Drive {
    pub tally: Tally,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per-decision latency samples, in ms (see each drive for the span).
    pub decision_ms: Vec<f64>,
    /// Open loop only: how late each chunk push started, in ms.
    pub late_ms: Vec<f64>,
    /// Open loop only: due time to push completion per chunk, in ms.
    pub chunk_ms: Vec<f64>,
    /// Per measured unit (a closed-loop `run_load` call or a batch pass): decisions
    /// per wall second.
    pub unit_rates: Vec<f64>,
    /// Per measured unit: process CPU ms per decision.
    pub unit_cpu_ms: Vec<f64>,
    /// Per measured unit: median decision latency, in ms.
    pub unit_p50_ms: Vec<f64>,
    /// Open loop only: the single `finalize` call per decision, in ms.
    pub finalize_ms: Vec<f64>,
    /// Open loop only: due time to the start of each last chunk, in ms.
    pub last_late_ms: Vec<f64>,
}

/// The `run_load` checksum a call of `n` sessions over `exp` (session `i`
/// streams `exp[i % exp.len()]`) must produce when every session decides
/// exactly as its solo stream does.
fn call_checksum(exp: &[Expected], n: usize) -> u64 {
    let mut fp = Fnv::new();
    for id in 0..n {
        let b = exp[id % exp.len()].stream.expect("serving references");
        fp.mix(id as u64);
        fp.mix(b.verdict_code);
        fp.mix(b.live_bits);
        fp.mix(b.facing_bits);
        fp.mix(b.feature_fold);
        fp.mix(b.frames);
        fp.mix(b.samples);
    }
    fp.0
}

/// `serve-closed`: closed-loop saturation through `ht_serve::run_load`.
/// Each call streams [`CLOSED_CALL`] sessions over a seeded rotation of the
/// pool in seeded ragged chunks, one `finalize_batch` per wave; a session's
/// latency is its call's wall time, since the call reports its verdicts
/// only when it returns. A calibration sample follows every call.
pub fn closed(
    server: &WakeServer<'_>,
    pool: &mut [Capture],
    exp: &mut [Expected],
    cal: &mut Calibrator,
    seed: u64,
    seconds: f64,
    truncate: bool,
) -> Drive {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
    let mut d = Drive::default();
    let mut schedule = Fnv::new();
    cal.sample();
    let phase = Phase::start();
    let mut call = 0u64;
    while call == 0 || phase.stop().0 < seconds {
        let shift = rng.gen_range(0..pool.len());
        pool.rotate_left(shift);
        exp.rotate_left(shift);
        let config = LoadConfig {
            seed: derive_seed(seed, 1000 + call),
            n_sessions: CLOSED_CALL,
            open_spacing_ns: 1_000,
            chunk_min: CLOSED_CHUNK.0,
            chunk_max: CLOSED_CHUNK.1,
        };
        schedule.mix(shift as u64);
        schedule.mix(config.seed);
        // The self-test's fault: the first call's first session streams a
        // capture too short to decide.
        let saved = (truncate && call == 0).then(|| {
            let short = truncated(&pool[0]);
            std::mem::replace(&mut pool[0], short)
        });
        let unit = Phase::start();
        let result = run_load(server, pool, &config);
        let (unit_wall, unit_cpu) = unit.stop();
        cal.sample();
        let latency_ms = unit_wall * 1e3;
        if let Some(original) = saved {
            pool[0] = original;
        }
        d.tally.attempted += CLOSED_CALL as u64;
        match result {
            Ok(report) => {
                let rejected = (report.rejected_rate + report.rejected_capacity) as u64;
                d.tally.rejected += rejected;
                d.tally.failed += rejected;
                if report.checksum != call_checksum(exp, CLOSED_CALL) || rejected > 0 {
                    // Some session decided differently from its solo
                    // stream; the checksum cannot say which, so the whole
                    // call counts as failed.
                    for _ in 0..report.decided {
                        d.tally.mismatch();
                    }
                } else {
                    d.unit_rates.push(CLOSED_CALL as f64 / unit_wall);
                    d.unit_cpu_ms.push(unit_cpu * 1e3 / CLOSED_CALL as f64);
                    d.unit_p50_ms.push(latency_ms);
                    for id in 0..CLOSED_CALL {
                        let e = &exp[id % exp.len()];
                        let bits = e.stream.expect("serving references");
                        if bits.verdict == e.batch_verdict {
                            d.tally.decided(bits.verdict, e.truth);
                            d.decision_ms.push(latency_ms);
                        } else {
                            d.tally.mismatch();
                        }
                    }
                }
                d.tally.frames += report.frames;
                d.tally.samples += report.samples;
            }
            Err(e) => {
                // The call aborted: nothing it decided was reported, so
                // every session in it failed. Close whatever it left open.
                match e {
                    ServeError::Evicted { .. } => d.tally.evicted += 1,
                    ServeError::Pipeline(_) => d.tally.finalize_retries += 1,
                    _ => {}
                }
                d.tally.failed += CLOSED_CALL as u64;
                for id in 0..CLOSED_CALL as u64 {
                    let _ = server.close(id);
                }
            }
        }
        call += 1;
    }
    (d.wall_s, d.cpu_s) = phase.stop();
    d.tally.schedule = schedule.0;
    d
}

/// One open-loop session: which capture it streams and when it arrives.
#[derive(Debug, Clone, Copy)]
struct Session {
    id: u64,
    capture: usize,
    arrival_ns: u64,
}

/// One chunk due at a wall-clock offset.
#[derive(Debug, Clone, Copy)]
struct Event {
    due_ns: u64,
    session: usize,
    chunk: usize,
}

/// Seeded open-loop sessions: `n` arrivals of a Poisson process conditioned
/// on its count (sorted uniform times over `window_s`), each streaming the
/// next capture of a fresh seeded permutation of the pool every
/// `pool_len` sessions.
fn open_sessions(n: usize, window_s: f64, pool_len: usize, rng: &mut StdRng) -> Vec<Session> {
    let mut arrivals: Vec<u64> = (0..n)
        .map(|_| (rng.next_f64() * window_s * 1e9) as u64)
        .collect();
    arrivals.sort_unstable();
    let mut order = Vec::new();
    arrivals
        .into_iter()
        .enumerate()
        .map(|(k, arrival_ns)| {
            if k % pool_len == 0 {
                order = permutation(pool_len, rng);
            }
            Session {
                id: k as u64,
                capture: order[k % pool_len],
                arrival_ns,
            }
        })
        .collect()
}

/// `serve-open`: independent devices arrive as a seeded Poisson process at
/// `rate_per_s`. Each pushes hop-aligned chunks paced on the wall clock
/// (a chunk is due when its last sample would have been spoken) and calls
/// single `finalize` after its last chunk. Two generator threads each own the
/// sessions of one id parity — half the shards — so they never share a
/// lock. A decision's latency runs from its last chunk's due time to the
/// verdict.
pub fn open(
    server: &WakeServer<'_>,
    pool: &[Capture],
    exp: &[Expected],
    seed: u64,
    seconds: f64,
    rate_per_s: f64,
    truncate: bool,
) -> Drive {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2));
    // Arrivals stop early enough for the longest capture to finish inside
    // the run.
    let window_s = (seconds - 1.0).max(0.5);
    // Whole cycles of the pool, so every run serves the same verdict mix.
    let cycles = (rate_per_s * window_s / pool.len() as f64).round().max(1.0) as usize;
    let n = cycles * pool.len();
    let sessions = open_sessions(n, window_s, pool.len(), &mut rng);
    let short = truncate.then(|| truncated(&pool[sessions[0].capture]));
    let capture_of = |s: &Session| -> &Capture {
        match &short {
            Some(c) if s.id == 0 => c,
            _ => &pool[s.capture],
        }
    };
    let sample_ns = 1e9 / headtalk::PipelineConfig::default().sample_rate;
    let mut schedule = Fnv::new();
    for s in &sessions {
        schedule.mix(s.id);
        schedule.mix(s.capture as u64);
        schedule.mix(s.arrival_ns);
    }

    let phase = Phase::start();
    let start = Instant::now();
    let parts: Vec<Drive> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|parity| {
                let mine: Vec<Session> = sessions
                    .iter()
                    .filter(|s| s.id % 2 == parity)
                    .copied()
                    .collect();
                let capture_of = &capture_of;
                scope.spawn(move || open_worker(server, &mine, capture_of, exp, start, sample_ns))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop generator thread"))
            .collect()
    });
    let mut d = Drive::default();
    (d.wall_s, d.cpu_s) = phase.stop();
    for p in parts {
        d.tally.merge(&p.tally);
        d.decision_ms.extend(p.decision_ms);
        d.late_ms.extend(p.late_ms);
        d.chunk_ms.extend(p.chunk_ms);
        d.finalize_ms.extend(p.finalize_ms);
        d.last_late_ms.extend(p.last_late_ms);
    }
    d.tally.schedule = schedule.0;
    d
}

fn open_worker<'p>(
    server: &WakeServer<'_>,
    sessions: &[Session],
    capture_of: &dyn Fn(&Session) -> &'p Capture,
    exp: &[Expected],
    start: Instant,
    sample_ns: f64,
) -> Drive {
    let mut d = Drive::default();
    let split: Vec<Vec<Vec<&[f64]>>> = sessions
        .iter()
        .map(|s| chunks(capture_of(s), OPEN_CHUNK))
        .collect();
    let mut events: Vec<Event> = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        let mut end = 0;
        for (j, chunk) in split[i].iter().enumerate() {
            end += chunk[0].len();
            events.push(Event {
                due_ns: s.arrival_ns + (end as f64 * sample_ns) as u64,
                session: i,
                chunk: j,
            });
        }
    }
    events.sort_by_key(|e| (e.due_ns, e.session));
    let mut alive = vec![true; sessions.len()];
    for ev in events {
        let s = &sessions[ev.session];
        if !alive[ev.session] {
            continue;
        }
        let due = Duration::from_nanos(ev.due_ns);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let began = start.elapsed();
        d.late_ms
            .push(began.saturating_sub(due).as_secs_f64() * 1e3);
        if ev.chunk == 0 {
            d.tally.attempted += 1;
            if server.open(s.id, ev.due_ns).is_err() {
                d.tally.rejected += 1;
                d.tally.failed += 1;
                alive[ev.session] = false;
                continue;
            }
        }
        if server
            .push(s.id, &split[ev.session][ev.chunk], ev.due_ns)
            .is_err()
        {
            d.tally.evicted += 1;
            d.tally.failed += 1;
            alive[ev.session] = false;
            let _ = server.close(s.id);
            continue;
        }
        d.chunk_ms
            .push(start.elapsed().saturating_sub(due).as_secs_f64() * 1e3);
        if ev.chunk + 1 < split[ev.session].len() {
            continue;
        }
        d.last_late_ms
            .push(began.saturating_sub(due).as_secs_f64() * 1e3);
        let t = Instant::now();
        let finalized = server.finalize(s.id, ev.due_ns);
        d.finalize_ms.push(secs(t) * 1e3);
        let decided_at = start.elapsed();
        match finalized {
            Ok(outcome) => {
                d.decision_ms
                    .push(decided_at.saturating_sub(due).as_secs_f64() * 1e3);
                let e = &exp[s.capture];
                let bits = e.stream.expect("serving references");
                let verdict = Verdict::served(&outcome);
                if bits.matches(&outcome) && verdict == Some(e.batch_verdict) {
                    d.tally.decided(e.batch_verdict, e.truth);
                } else {
                    d.tally.mismatch();
                }
                d.tally.frames += outcome.frames;
                d.tally.samples += (outcome.samples_per_channel * e.channels) as u64;
            }
            Err(_) => {
                d.tally.finalize_retries += 1;
                d.tally.failed += 1;
                let _ = server.close(s.id);
            }
        }
    }
    d
}

/// `batch-corpus`: offline `decide_batch` over the whole corpus through
/// `ht_par::par_map`, one seeded order per pass, until the time is up. A
/// decision's latency is its `decide_batch` call. A calibration sample
/// follows every pass.
pub fn batch(
    ht: &HeadTalk,
    corpus: &[Capture],
    exp: &[Expected],
    cal: &mut Calibrator,
    seed: u64,
    seconds: f64,
    truncate: bool,
) -> Drive {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3));
    let mut d = Drive::default();
    let mut schedule = Fnv::new();
    let short = truncate.then(|| truncated(&corpus[0]));
    cal.sample();
    let phase = Phase::start();
    let mut pass = 0;
    while pass == 0 || phase.stop().0 < seconds {
        let order = permutation(corpus.len(), &mut rng);
        for &i in &order {
            schedule.mix(i as u64);
        }
        let unit = Phase::start();
        let results = ht_par::par_map(&order, |&i| {
            let capture = match &short {
                Some(c) if pass == 0 && i == 0 => c,
                _ => &corpus[i],
            };
            let t = Instant::now();
            let r = ht.decide_batch(capture).map(|(decision, _)| decision);
            (i, r, secs(t) * 1e3)
        });
        let (unit_wall, unit_cpu) = unit.stop();
        cal.sample();
        d.unit_rates.push(order.len() as f64 / unit_wall);
        d.unit_cpu_ms.push(unit_cpu * 1e3 / order.len() as f64);
        let pass_ms: Vec<f64> = results.iter().map(|(_, _, ms)| *ms).collect();
        d.unit_p50_ms.push(median(&pass_ms));
        for (i, r, ms) in results {
            let e = &exp[i];
            d.tally.attempted += 1;
            match r {
                Ok(got) => {
                    d.decision_ms.push(ms);
                    let same = got.live_probability.to_bits() == e.batch.live_probability.to_bits()
                        && got.facing_score.to_bits() == e.batch.facing_score.to_bits();
                    if same {
                        d.tally.decided(Verdict::of(&got), e.truth);
                    } else {
                        d.tally.mismatch();
                    }
                    d.tally.frames += frames_in(e.len, ht);
                    d.tally.samples += (e.len * e.channels) as u64;
                }
                Err(_) => d.tally.failed += 1,
            }
        }
        pass += 1;
    }
    (d.wall_s, d.cpu_s) = phase.stop();
    d.tally.schedule = schedule.0;
    d
}

/// Analysis frames in a `len`-sample capture at the pipeline's geometry.
pub fn frames_in(len: usize, ht: &HeadTalk) -> u64 {
    let (frame, hop) = ht.config().analysis_frame_geometry();
    if len < frame {
        0
    } else {
        ((len - frame) / hop + 1) as u64
    }
}
