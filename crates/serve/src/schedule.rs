//! Deterministic load generation: seeded session schedules over a
//! [`WakeServer`].
//!
//! The driver replays `n_sessions` synthetic wake events through the
//! server in **waves**, each wave running three phases:
//!
//! 1. **Admission (serial).** Sessions open one at a time in id order on a
//!    logical clock that advances `open_spacing_ns` per attempt, so the
//!    token bucket sees one well-defined arrival sequence regardless of
//!    thread count.
//! 2. **Streaming (shard-parallel).** Admitted sessions are grouped by
//!    shard and the groups run on the `ht-par` pool. Within a group, a
//!    per-`(seed, wave, shard)` RNG interleaves the sessions' pushes with
//!    ragged chunk sizes drawn from `[chunk_min, chunk_max]` — thousands
//!    of sessions' chunks arbitrarily interleaved, yet fully determined by
//!    `(seed, scenario set)`.
//! 3. **Finalization (batched).** The wave's sessions decide through
//!    [`WakeServer::finalize_batch`]: one pool task per shard decides that
//!    shard's sessions in id order, each through the same routine as
//!    [`WakeServer::finalize`] — O(features) evidence assembly from the
//!    incremental accumulators (no capture re-transform), then the
//!    models.
//!
//! Waves **overlap**: while wave `w` streams, wave `w+1`'s admission runs
//! concurrently, so the serial admission phase costs no wall-clock between
//! waves. Overlap is safe for determinism because waves are sized to half
//! of each shard's slots — two waves in flight can never fill a shard, so
//! admission outcomes depend only on the serial token-bucket sequence,
//! never on how far the concurrent streaming has progressed. (A
//! single-slot-per-shard server degenerates to drained, non-overlapped
//! waves.)
//!
//! Because shards share no state and each shard's event order is fixed by
//! the seed (never by scheduling), the whole run — every decision bit,
//! every rejection — is byte-identical at any `HT_THREADS`. The
//! [`LoadReport::checksum`] folds all of it into one replayable
//! fingerprint; two runs agree iff their checksums do.

use headtalk::liveness::LivenessDetector;
use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::stream::WakeVerdict;
use headtalk::{HeadTalk, PipelineConfig};
use ht_dsp::rng::{derive_seed, gaussian, split_stream, Rng, SeedableRng, StdRng};
use ht_ml::Dataset;

use crate::admission::RejectReason;
use crate::server::{ServeError, WakeServer};

/// Tuning for one [`run_load`] drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadConfig {
    /// Master seed; `(seed, captures)` fully determines the run.
    pub seed: u64,
    /// Synthetic wake events to replay.
    pub n_sessions: usize,
    /// Logical nanoseconds between admission attempts (what the token
    /// bucket experiences as the arrival rate).
    pub open_spacing_ns: u64,
    /// Smallest push chunk in samples (≥ 1).
    pub chunk_min: usize,
    /// Largest push chunk in samples (≥ `chunk_min`).
    pub chunk_max: usize,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            seed: 0x10AD,
            n_sessions: 1000,
            open_spacing_ns: 1_000_000,
            chunk_min: 120,
            chunk_max: 960,
        }
    }
}

/// What one [`run_load`] drive did, deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Sessions admitted and streamed to a decision.
    pub decided: usize,
    /// Decisions that accepted the wake (live human, facing).
    pub accepted: usize,
    /// Decisions that soft-muted (rejected the wake).
    pub soft_muted: usize,
    /// Opens refused by the token bucket.
    pub rejected_rate: usize,
    /// Opens refused because the target shard was full.
    pub rejected_capacity: usize,
    /// Analysis frames processed across all sessions.
    pub frames: u64,
    /// Samples ingested across all sessions and channels.
    pub samples: u64,
    /// FNV-1a fold of every per-session result (decision bits, feature
    /// bits, frame counts, rejections) in session-id order. Two runs are
    /// byte-identical iff their checksums match.
    pub checksum: u64,
}

/// FNV-1a over little-endian u64 words — the workspace's standard cheap
/// fingerprint (same constants as `ht_dsp::check`'s seed streams).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One admitted session waiting to stream.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    capture: usize,
}

/// One wave's serial admission outcome.
struct AdmitResult {
    /// Admitted sessions, grouped by shard.
    groups: Vec<Vec<Pending>>,
    /// Rejected ids with their checksum tags, in admission order.
    rejections: Vec<(u64, u64)>,
    rejected_rate: usize,
    rejected_capacity: usize,
    /// The logical clock after the wave's last admission attempt.
    end_ns: u64,
}

/// One unit of super-step work: stream a shard's admitted group, or run
/// the next wave's serial admission (concurrently with the streaming).
enum Task<'a> {
    Admit {
        base_id: u64,
        start_ns: u64,
        count: usize,
    },
    Stream {
        shard: usize,
        group: &'a [Pending],
        now_ns: u64,
        wave_seed: u64,
    },
}

enum TaskOut {
    Admitted(AdmitResult),
    Streamed(Result<(), ServeError>),
}

/// Admits `count` consecutive session ids starting at `base_id`, one per
/// `open_spacing_ns` tick of the logical clock.
fn admit_wave(
    server: &WakeServer<'_>,
    config: &LoadConfig,
    captures_len: usize,
    base_id: u64,
    start_ns: u64,
    count: usize,
) -> AdmitResult {
    let n_shards = server.config().n_shards;
    let mut groups: Vec<Vec<Pending>> = vec![Vec::new(); n_shards];
    let mut rejections = Vec::new();
    let mut rejected_rate = 0;
    let mut rejected_capacity = 0;
    let mut now_ns = start_ns;
    for offset in 0..count as u64 {
        let id = base_id + offset;
        now_ns += config.open_spacing_ns;
        match server.open(id, now_ns) {
            Ok(()) => groups[server.shard_of(id)].push(Pending {
                id,
                capture: (id % captures_len as u64) as usize,
            }),
            Err(ServeError::Rejected(RejectReason::RateLimited { .. })) => {
                rejected_rate += 1;
                rejections.push((id, u64::MAX - 1));
            }
            Err(ServeError::Rejected(RejectReason::ShardFull { .. })) => {
                rejected_capacity += 1;
                rejections.push((id, u64::MAX - 2));
            }
            // Consecutive fresh ids cannot be duplicates, and the wave
            // sizing keeps shards under capacity; anything else here is a
            // driver bug worth failing loudly on.
            Err(e) => panic!("unexpected admission error for session {id}: {e}"),
        }
    }
    AdmitResult {
        groups,
        rejections,
        rejected_rate,
        rejected_capacity,
        end_ns: now_ns,
    }
}

/// Replays `config.n_sessions` wake events from `captures` through
/// `server` under the seeded interleaving schedule. Session `i` (id `i`)
/// streams `captures[i % captures.len()]`.
///
/// # Errors
///
/// Propagates unexpected serving errors (the schedule itself never sends
/// malformed chunks, so evictions and pipeline failures here mean the
/// captures are degenerate). Before returning one, closes every session
/// this call opened that is still open.
///
/// # Panics
///
/// Panics when `captures` is empty or the chunk bounds are inverted/zero.
pub fn run_load(
    server: &WakeServer<'_>,
    captures: &[Vec<Vec<f64>>],
    config: &LoadConfig,
) -> Result<LoadReport, ServeError> {
    assert!(!captures.is_empty(), "load generation needs captures");
    assert!(
        config.chunk_min >= 1 && config.chunk_min <= config.chunk_max,
        "chunk bounds must satisfy 1 <= min <= max"
    );
    let n_shards = server.config().n_shards;
    let sessions_per_shard = server.config().sessions_per_shard;
    // Overlap-safe wave size: half of each shard's slots, so two waves in
    // flight (one streaming, the next admitting concurrently) can never
    // fill a shard — admission outcomes stay a pure function of the serial
    // token-bucket sequence. Waves take consecutive ids, so a wave of
    // `n_shards * k` lands at most `k` sessions on any shard.
    let overlap = sessions_per_shard >= 2;
    let wave_cap = if overlap {
        n_shards * (sessions_per_shard / 2)
    } else {
        n_shards * sessions_per_shard
    };

    let mut report = LoadReport::default();
    let mut checksum = Fnv::new();
    let mut now_ns = 0u64;
    let mut next_id = 0u64;
    let mut remaining = config.n_sessions;
    let mut wave_idx = 0u64;

    // Wave 0 admits with nothing to overlap.
    let mut current: Option<AdmitResult> = (remaining > 0).then(|| {
        let count = remaining.min(wave_cap);
        remaining -= count;
        let r = admit_wave(server, config, captures.len(), next_id, now_ns, count);
        next_id += count as u64;
        now_ns = r.end_ns;
        r
    });

    while let Some(wave) = current.take() {
        // The wave's logical time: frozen after its own admission, shared
        // by its pushes and its finalization regardless of how far the
        // overlapped next-wave admission advances the clock.
        let stream_now = now_ns;
        let next_count = remaining.min(wave_cap);

        // Super-step: this wave's shard groups stream in parallel; each
        // group's event order comes from its own (seed, wave, shard) RNG
        // stream, so the pool's scheduling cannot reorder anything
        // observable. With overlap, the next wave's serial admission rides
        // along as one more task.
        let wave_seed = derive_seed(config.seed, wave_idx);
        let mut tasks: Vec<Task<'_>> = wave
            .groups
            .iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .map(|(shard, group)| Task::Stream {
                shard,
                group,
                now_ns: stream_now,
                wave_seed,
            })
            .collect();
        if overlap && next_count > 0 {
            tasks.push(Task::Admit {
                base_id: next_id,
                start_ns: now_ns,
                count: next_count,
            });
        }
        let mut next: Option<AdmitResult> = None;
        let mut streamed = Ok(());
        for out in ht_par::par_map(&tasks, |task| match task {
            Task::Stream {
                shard,
                group,
                now_ns,
                wave_seed,
            } => TaskOut::Streamed(run_shard_group(
                server, *shard, group, *wave_seed, config, captures, *now_ns,
            )),
            Task::Admit {
                base_id,
                start_ns,
                count,
            } => TaskOut::Admitted(admit_wave(
                server,
                config,
                captures.len(),
                *base_id,
                *start_ns,
                *count,
            )),
        }) {
            match out {
                TaskOut::Streamed(r) => streamed = streamed.and(r),
                TaskOut::Admitted(a) => next = Some(a),
            }
        }
        if let Err(e) = streamed {
            return Err(abandon(server, &wave, next.as_ref(), e));
        }
        if let Some(a) = &next {
            remaining -= next_count;
            next_id += next_count as u64;
            now_ns = a.end_ns;
        }

        // The wave decides as one batch: one pool task per shard, each
        // deciding its sessions in id order under its own shard lock.
        let mut ids: Vec<u64> = wave.groups.iter().flatten().map(|p| p.id).collect();
        ids.sort_unstable();
        let finalized = server.finalize_batch(&ids, stream_now);

        // Fold the wave into the report: rejections in admission order,
        // then outcomes in session-id order — schedule-free.
        for (id, tag) in &wave.rejections {
            checksum.mix(*id);
            checksum.mix(*tag);
        }
        report.rejected_rate += wave.rejected_rate;
        report.rejected_capacity += wave.rejected_capacity;
        for (id, result) in finalized {
            let outcome = match result {
                Ok(outcome) => outcome,
                Err(e) => return Err(abandon(server, &wave, next.as_ref(), e)),
            };
            let n_channels = captures[(id % captures.len() as u64) as usize].len();
            let mut fold = Fnv::new();
            for f in &outcome.features {
                fold.mix(f.to_bits());
            }
            let samples = (outcome.samples_per_channel * n_channels) as u64;
            report.decided += 1;
            if outcome.decision.as_ref().is_some_and(|d| d.accepted()) {
                report.accepted += 1;
            } else {
                report.soft_muted += 1;
            }
            report.frames += outcome.frames;
            report.samples += samples;
            checksum.mix(id);
            checksum.mix(match outcome.verdict {
                WakeVerdict::Allow => 1,
                WakeVerdict::SoftMute => 2,
                WakeVerdict::Undecided => 3,
            });
            checksum.mix(
                outcome
                    .decision
                    .as_ref()
                    .map_or(0, |d| d.live_probability.to_bits()),
            );
            checksum.mix(
                outcome
                    .decision
                    .as_ref()
                    .map_or(0, |d| d.facing_score.to_bits()),
            );
            checksum.mix(fold.0);
            checksum.mix(outcome.frames);
            checksum.mix(samples);
        }

        // Degenerate single-slot shards cannot overlap: admit the next
        // wave only now, after this wave drained.
        if !overlap && next_count > 0 {
            remaining -= next_count;
            let r = admit_wave(server, config, captures.len(), next_id, now_ns, next_count);
            next_id += next_count as u64;
            now_ns = r.end_ns;
            next = Some(r);
        }
        current = next;
        wave_idx += 1;
    }
    report.checksum = checksum.0;
    Ok(report)
}

/// Closes every session of the waves in flight that is still open and
/// hands back `err`, so a failed drive never leaves its undecided sessions
/// holding slots until `evict_idle` reaps them.
fn abandon(
    server: &WakeServer<'_>,
    wave: &AdmitResult,
    next: Option<&AdmitResult>,
    err: ServeError,
) -> ServeError {
    for pending in std::iter::once(wave)
        .chain(next)
        .flat_map(|w| w.groups.iter().flatten())
    {
        // Decided and evicted sessions are closed already.
        let _ = server.close(pending.id);
    }
    err
}

/// Streams one shard's admitted sessions to completion under the group's
/// seeded interleaving. Finalization happens afterwards, batched across
/// the whole wave by the driver.
fn run_shard_group(
    server: &WakeServer<'_>,
    shard_idx: usize,
    group: &[Pending],
    wave_seed: u64,
    config: &LoadConfig,
    captures: &[Vec<Vec<f64>>],
    now_ns: u64,
) -> Result<(), ServeError> {
    let mut rng = split_stream(wave_seed, shard_idx as u64);
    let mut cursors: Vec<(Pending, usize)> = group.iter().map(|&p| (p, 0usize)).collect();
    let mut chunk: Vec<&[f64]> = Vec::new();
    while !cursors.is_empty() {
        let pick = rng.gen_range(0..cursors.len());
        let (pending, pos) = cursors[pick];
        let capture = &captures[pending.capture];
        let len = capture[0].len();
        let take = rng
            .gen_range(config.chunk_min..config.chunk_max + 1)
            .min(len - pos);
        chunk.clear();
        chunk.extend(capture.iter().map(|c| &c[pos..pos + take]));
        server.push(pending.id, &chunk, now_ns)?;
        let pos = pos + take;
        cursors[pick].1 = pos;
        if pos == len {
            cursors.swap_remove(pick);
        }
    }
    Ok(())
}

/// A pipeline with quickly trained stand-in models, for load generation,
/// benches, and tests. The streaming path under load never consults the
/// models until finalization, but every session borrows a full
/// [`HeadTalk`]; tiny synthetic training sets keep startup in
/// milliseconds. Fully seeded — two calls build byte-identical pipelines.
pub fn toy_pipeline() -> HeadTalk {
    let config = PipelineConfig::default();
    let mut rng = StdRng::seed_from_u64(0x5E54);

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
        OrientationDetector::fit(&orient, ModelKind::Knn, 3).expect("orientation training");

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

/// `n` deterministic multi-channel noise captures for load drives that
/// don't need rendered acoustics (tests, the soak): capture `i` is
/// `len + i * jitter` samples of seeded white noise per channel, so
/// lengths are deliberately unequal across sessions.
pub fn noise_captures(
    n: usize,
    n_channels: usize,
    len: usize,
    jitter: usize,
    seed: u64,
) -> Vec<Vec<Vec<f64>>> {
    (0..n)
        .map(|i| {
            let mut rng = split_stream(seed, i as u64);
            let this_len = len + i * jitter;
            (0..n_channels)
                .map(|_| (0..this_len).map(|_| 0.1 * gaussian(&mut rng)).collect())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::TokenBucketConfig;
    use crate::server::ServeConfig;

    fn small_server_config(ht: &HeadTalk) -> ServeConfig {
        ServeConfig {
            n_shards: 2,
            sessions_per_shard: 4,
            bucket: TokenBucketConfig {
                capacity: 16,
                refill_per_sec: 1_000_000,
            },
            ..ServeConfig::for_pipeline(ht.config())
        }
    }

    #[test]
    fn same_seed_same_checksum_different_seed_different_schedule() {
        let ht = toy_pipeline();
        let captures = noise_captures(3, 4, 4800, 240, 0xCAFE);
        let config = LoadConfig {
            n_sessions: 24,
            ..LoadConfig::default()
        };

        let a = {
            let server = WakeServer::new(&ht, small_server_config(&ht));
            run_load(&server, &captures, &config).unwrap()
        };
        let b = {
            let server = WakeServer::new(&ht, small_server_config(&ht));
            run_load(&server, &captures, &config).unwrap()
        };
        assert_eq!(a, b, "same (seed, captures) must replay identically");
        assert_eq!(a.decided, 24);
        assert_eq!(a.decided, a.accepted + a.soft_muted);
        assert!(a.frames > 0 && a.samples > 0);

        // The decision bits are seed-independent (they depend only on the
        // captures), but the checksum also folds rejections — with this
        // generous bucket there are none, so a different interleaving seed
        // must still produce the same fingerprint: the point of the
        // determinism contract.
        let c = {
            let server = WakeServer::new(&ht, small_server_config(&ht));
            run_load(
                &server,
                &captures,
                &LoadConfig {
                    seed: 0xD00D,
                    ..config
                },
            )
            .unwrap()
        };
        assert_eq!(
            a.checksum, c.checksum,
            "outcomes must not depend on the interleaving"
        );
    }

    #[test]
    fn drained_bucket_rejections_are_deterministic() {
        let ht = toy_pipeline();
        let captures = noise_captures(2, 4, 4800, 0, 0xBEEF);
        let mut server_config = small_server_config(&ht);
        // 4 tokens, no refill: exactly 4 of 12 sessions admit.
        server_config.bucket = TokenBucketConfig {
            capacity: 4,
            refill_per_sec: 0,
        };
        let config = LoadConfig {
            n_sessions: 12,
            ..LoadConfig::default()
        };
        let run = |_: ()| {
            let server = WakeServer::new(&ht, server_config);
            run_load(&server, &captures, &config).unwrap()
        };
        let a = run(());
        assert_eq!(a.decided, 4);
        assert_eq!(a.rejected_rate, 8);
        assert_eq!(a.rejected_capacity, 0);
        assert_eq!(a, run(()), "rejection pattern must replay");
    }

    #[test]
    fn a_failed_drive_closes_every_session_it_opened() {
        let ht = toy_pipeline();
        // 100 samples hold no analysis frame, so every finalize fails; a
        // NaN sample evicts its session mid-stream instead. Either error
        // surfaces while the next wave is already admitted.
        let short = noise_captures(1, 4, 100, 0, 0xF00D);
        let mut poisoned = noise_captures(1, 4, 4800, 0, 0xF00D);
        poisoned[0][2][1000] = f64::NAN;
        let config = LoadConfig {
            n_sessions: 16,
            ..LoadConfig::default()
        };
        for (name, captures) in [("short", short), ("poisoned", poisoned)] {
            let server = WakeServer::new(&ht, small_server_config(&ht));
            assert!(run_load(&server, &captures, &config).is_err(), "{name}");
            assert_eq!(
                server.stats().live,
                0,
                "{name}: a failed drive pinned slots"
            );
        }
    }
}
