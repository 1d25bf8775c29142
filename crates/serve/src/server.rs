//! The multi-tenant wake-word server.
//!
//! A [`WakeServer`] fronts one trained [`HeadTalk`] pipeline with many
//! concurrent device sessions. Sessions are sharded by id (`id mod
//! n_shards`); each shard is one table behind its own lock: its reusable
//! [`WakeStream`] slots, their free list and the sessions holding them.
//! Streaming work for different shards proceeds in parallel on the
//! `ht-par` pool with no cross-shard contention. Admission is a single
//! [`TokenBucket`] over the caller's logical clock plus a per-shard slot
//! cap — both produce typed [`RejectReason`]s instead of unbounded queues.
//!
//! A slot is built once, by [`ServeConfig::prewarm_slots`] at construction
//! or lazily by the first `open` that finds no free slot, and **reset,
//! never dropped** between sessions: every buffer a slot holds is sized at
//! construction and no push grows it, so steady-state serving never
//! touches the heap. Two monotone marks show a leak:
//! [`ShardStats::live_hwm`] rises when a failed or evicted session keeps
//! its slot, and [`ShardStats::slots_built`] rises when a closed session's
//! slot is dropped instead of reset.
//!
//! Determinism contract: the server itself never reads a clock or an RNG.
//! Every entry point takes a logical `now_ns`, every decision comes from
//! one routine that runs `WakeStream::outcome` under its shard's lock —
//! bit-identical to solo `decide_batch` over the same capture — and slot
//! reuse is invisible to results (a reset slot is byte-identical to a
//! fresh one — pinned by the interleaving suite).
//!
//! Failure policy: a mid-stream geometry violation (channel count change,
//! ragged chunk) is not survivable for that session — the stream's state
//! can no longer be trusted — so the session is **eagerly evicted**: its
//! slot is reset and freed before the error reaches the caller. Nothing
//! stays pinned until some later cleanup pass; repeated failing sessions
//! leave the shard's marks flat (regression test:
//! `eager_eviction_keeps_arena_marks_flat`).

use std::collections::BTreeMap;
use std::sync::Mutex;

use headtalk::stream::StreamOutcome;
use headtalk::{HeadTalk, HeadTalkError, PipelineConfig, WakeStream};
use ht_stream::StreamError;

use crate::admission::{RejectReason, TokenBucket, TokenBucketConfig};

/// Tuning for a [`WakeServer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of session shards (parallelism grain; must be ≥ 1).
    pub n_shards: usize,
    /// Session-slot capacity per shard; the hard bound on in-flight
    /// sessions is `n_shards * sessions_per_shard`.
    pub sessions_per_shard: usize,
    /// Admission-rate control for `open`.
    pub bucket: TokenBucketConfig,
    /// Sessions idle longer than this (no push/finalize) are evicted by
    /// [`WakeServer::evict_idle`].
    pub session_idle_timeout_ns: u64,
    /// Microphone channels per session.
    pub n_channels: usize,
    /// Session slots to build eagerly per shard at construction (clamped
    /// to `sessions_per_shard`). Lazy slot construction puts a
    /// multi-millisecond burst on the first `open` to touch each slot;
    /// prewarming moves that cost to startup so open tail latency stays
    /// flat. `0` keeps the historical fully lazy behavior.
    pub prewarm_slots: usize,
}

impl ServeConfig {
    /// Defaults for a pipeline: 4 shards of 64 slots of 4 channels, the
    /// default admission bucket and a 30 s (logical) idle timeout. Every
    /// slot is a [`HeadTalk::streamer`] stream, framed at the pipeline's
    /// own analysis geometry, so no field depends on `_config`.
    pub fn for_pipeline(_config: &PipelineConfig) -> ServeConfig {
        ServeConfig {
            n_shards: 4,
            sessions_per_shard: 64,
            bucket: TokenBucketConfig::default(),
            session_idle_timeout_ns: 30_000_000_000,
            n_channels: 4,
            prewarm_slots: 0,
        }
    }
}

/// An error from the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// `open` refused the session; the reason says when to retry.
    Rejected(RejectReason),
    /// The session id is not open on this server.
    UnknownSession(u64),
    /// `open` was called for an id that is already in flight.
    DuplicateSession(u64),
    /// The session hit a mid-stream geometry violation or a non-finite
    /// sample and was eagerly evicted — its slot is already reset and
    /// free; the id is closed.
    Evicted {
        /// The evicted session.
        id: u64,
        /// What the stream rejected.
        cause: StreamError,
    },
    /// The underlying pipeline failed (finalization of a degenerate
    /// capture, slot construction with an untrained width, …).
    Pipeline(HeadTalkError),
    /// A server-internal lock was poisoned: a thread panicked while
    /// holding it, so its shard (or the admission bucket) can no longer be
    /// trusted for request work. The string names the lock. Surfaced as a
    /// typed error instead of propagating the panic into every subsequent
    /// caller.
    LockPoisoned(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(r) => write!(f, "admission rejected: {r}"),
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::DuplicateSession(id) => write!(f, "session {id} is already open"),
            ServeError::Evicted { id, cause } => {
                write!(f, "session {id} evicted: {cause}")
            }
            ServeError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            ServeError::LockPoisoned(what) => {
                write!(f, "{what} lock poisoned by a panicked handler")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Evicted { cause, .. } => Some(cause),
            ServeError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeadTalkError> for ServeError {
    fn from(e: HeadTalkError) -> Self {
        ServeError::Pipeline(e)
    }
}

/// One in-flight session's bookkeeping.
#[derive(Debug)]
struct Session {
    slot: usize,
    last_active_ns: u64,
}

/// Why a slot build after [`WakeServer::new`] cannot fail.
const SLOT_SHAPE_CHECKED: &str = "WakeServer::new checked that this slot shape builds";

/// One shard's table. Every slot is either on the free list or held by
/// exactly one session, so `slots.len() == free.len() + sessions.len()`.
#[derive(Debug)]
struct Shard<'ht> {
    /// Every slot built so far; slots are reset between sessions, never
    /// dropped.
    slots: Vec<WakeStream<'ht>>,
    /// Indices of free slots; the most recently freed is reused first
    /// (its buffers are hottest).
    free: Vec<usize>,
    sessions: BTreeMap<u64, Session>,
    /// Most sessions this shard ever held at once.
    live_hwm: usize,
}

impl<'ht> Shard<'ht> {
    /// A shard holding `prewarm` free slots built up front. The builds
    /// cannot fail: [`WakeServer::new`] has checked the slot shape.
    fn new(ht: &'ht HeadTalk, n_channels: usize, prewarm: usize) -> Shard<'ht> {
        let slots: Vec<WakeStream<'ht>> = (0..prewarm)
            .map(|_| ht.streamer(n_channels).expect(SLOT_SHAPE_CHECKED))
            .collect();
        Shard {
            free: (0..slots.len()).collect(),
            slots,
            sessions: BTreeMap::new(),
            live_hwm: 0,
        }
    }

    /// Ends session `id`: resets its slot and pushes it on the free list.
    /// Returns `false`, changing nothing, when `id` is not open here.
    fn close(&mut self, id: u64) -> bool {
        let Some(session) = self.sessions.remove(&id) else {
            return false;
        };
        self.slots[session.slot].reset();
        self.free.push(session.slot);
        true
    }

    /// The one finalize routine behind [`WakeServer::finalize`] and
    /// [`WakeServer::finalize_batch`], run under this shard's lock: marks
    /// the session active at `now_ns`, decides it through
    /// [`WakeStream::outcome`], and on
    /// success closes it and recycles its slot. An undecidable capture
    /// leaves the session open for a retry.
    fn finalize(&mut self, id: u64, now_ns: u64) -> Result<StreamOutcome, ServeError> {
        let _span = ht_obs::span("serve.decision");
        let slot = match self.sessions.get_mut(&id) {
            Some(session) => {
                session.last_active_ns = now_ns;
                session.slot
            }
            None => return Err(ServeError::UnknownSession(id)),
        };
        match self.slots[slot].outcome() {
            Ok(o) => {
                self.close(id);
                ht_obs::counter_add("serve.decisions", 1);
                Ok(o)
            }
            Err(e) => {
                ht_obs::counter_add("serve.finalize_retry", 1);
                Err(ServeError::Pipeline(e))
            }
        }
    }
}

/// Per-shard load numbers from [`WakeServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Sessions currently in flight on this shard.
    pub live: usize,
    /// Most sessions this shard ever held at once.
    pub live_hwm: usize,
    /// Session slots this shard has constructed.
    pub slots_built: usize,
}

/// A point-in-time load summary from [`WakeServer::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions currently in flight across all shards.
    pub live: usize,
    /// Session slots constructed across all shards (each construction is
    /// one burst of heap allocations; flat in steady state).
    pub slots_built: usize,
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
}

/// A sharded multi-tenant front end over one [`HeadTalk`] pipeline.
///
/// All entry points take `&self`; shards lock independently, so callers on
/// different shards never contend. No code path holds more than one shard
/// lock, and the only nesting is `open`'s, which takes its shard's lock
/// first and the bucket's second, so the server cannot deadlock against
/// itself.
#[derive(Debug)]
pub struct WakeServer<'ht> {
    ht: &'ht HeadTalk,
    config: ServeConfig,
    bucket: Mutex<TokenBucket>,
    shards: Vec<Mutex<Shard<'ht>>>,
}

impl<'ht> WakeServer<'ht> {
    /// A server over `ht` with no sessions yet. With
    /// [`ServeConfig::prewarm_slots`] at 0, session slots are built lazily
    /// on first use, per shard; otherwise each shard builds that many
    /// slots (up to its capacity) here and the rest lazily.
    ///
    /// # Panics
    ///
    /// Panics when `config.n_shards` or `config.sessions_per_shard` is
    /// zero, and when `ht` cannot stream `config.n_channels` channels:
    /// fewer than two, or a feature width its orientation model was not
    /// trained on. A structurally useless server is a deployment bug, not a
    /// runtime condition. A slot build depends only on the pipeline and
    /// the channel count, so `new` builds one trial slot, whatever
    /// [`ServeConfig::prewarm_slots`] says, and no later build, eager or
    /// lazy, can fail.
    pub fn new(ht: &'ht HeadTalk, config: ServeConfig) -> WakeServer<'ht> {
        assert!(config.n_shards > 0, "a server needs at least one shard");
        assert!(
            config.sessions_per_shard > 0,
            "a shard needs at least one session slot"
        );
        if let Err(e) = ht.streamer(config.n_channels) {
            panic!(
                "sessions of {} channel(s) cannot stream on this pipeline: {e}",
                config.n_channels
            );
        }
        let prewarm = config.prewarm_slots.min(config.sessions_per_shard);
        WakeServer {
            ht,
            config,
            bucket: Mutex::new(TokenBucket::new(config.bucket)),
            shards: (0..config.n_shards)
                .map(|_| Mutex::new(Shard::new(ht, config.n_channels, prewarm)))
                .collect(),
        }
    }

    /// The configuration this server runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shard a session id maps to.
    pub fn shard_of(&self, id: u64) -> usize {
        (id % self.config.n_shards as u64) as usize
    }

    /// Locks shard `idx` for request work, turning poisoning into a typed
    /// error instead of a propagated panic.
    fn lock_shard(&self, idx: usize) -> Result<std::sync::MutexGuard<'_, Shard<'ht>>, ServeError> {
        self.shards[idx]
            .lock()
            .map_err(|_| ServeError::LockPoisoned("shard"))
    }

    /// Opens a session at logical time `now_ns`.
    ///
    /// Admission runs duplicate check → shard-slot check → token bucket,
    /// in that order, so a rejected open consumes **nothing**: no token is
    /// burned on a duplicate or a full shard, and no slot is touched on a
    /// rate limit. Rejected sessions leave zero residual shard state. An
    /// admitted open that finds no free slot builds one, which cannot fail
    /// ([`WakeServer::new`] checked the slot shape), so no open spends a
    /// token and then errs.
    ///
    /// # Errors
    ///
    /// [`ServeError::DuplicateSession`] for an id already in flight,
    /// [`ServeError::Rejected`] when admission refuses,
    /// [`ServeError::LockPoisoned`] when a handler panicked while holding
    /// this shard's (or the bucket's) lock.
    pub fn open(&self, id: u64, now_ns: u64) -> Result<(), ServeError> {
        let _span = ht_obs::span("serve.open");
        let shard_idx = self.shard_of(id);
        let mut shard = self.lock_shard(shard_idx)?;
        if shard.sessions.contains_key(&id) {
            return Err(ServeError::DuplicateSession(id));
        }
        let capacity = self.config.sessions_per_shard;
        if shard.sessions.len() >= capacity {
            ht_obs::counter_add("serve.rejected.capacity", 1);
            return Err(ServeError::Rejected(RejectReason::ShardFull {
                shard: shard_idx,
                capacity,
            }));
        }
        let admit = self
            .bucket
            .lock()
            .map_err(|_| ServeError::LockPoisoned("bucket"))?
            .try_take(now_ns);
        if let Err(reject) = admit {
            ht_obs::counter_add("serve.rejected.rate", 1);
            return Err(ServeError::Rejected(reject));
        }
        // With no free slot every slot is held by a session, so the shard
        // holds fewer than `capacity` slots and may build one.
        let slot = match shard.free.pop() {
            Some(slot) => slot,
            None => {
                let stream = self
                    .ht
                    .streamer(self.config.n_channels)
                    .expect(SLOT_SHAPE_CHECKED);
                shard.slots.push(stream);
                shard.slots.len() - 1
            }
        };
        shard.sessions.insert(
            id,
            Session {
                slot,
                last_active_ns: now_ns,
            },
        );
        shard.live_hwm = shard.live_hwm.max(shard.sessions.len());
        ht_obs::counter_add("serve.admitted", 1);
        ht_obs::counter_max("serve.shard_sessions_hwm", shard.sessions.len() as u64);
        Ok(())
    }

    /// Streams one audio chunk into a session at logical time `now_ns`.
    /// An empty chunk changes no evidence but still marks the session
    /// active at `now_ns`, so it defers idle eviction like any push.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for an id that isn't open,
    /// [`ServeError::LockPoisoned`] for a shard wrecked by a panicked
    /// handler. A mid-stream geometry violation, a NaN/infinite sample or
    /// a chunk past the capture cap
    /// ([`PipelineConfig::max_capture_samples`](headtalk::PipelineConfig::max_capture_samples))
    /// eagerly evicts the session (slot reset and released before
    /// returning) and surfaces as [`ServeError::Evicted`].
    pub fn push(&self, id: u64, chunk: &[&[f64]], now_ns: u64) -> Result<(), ServeError> {
        let _span = ht_obs::span("serve.push");
        let mut shard = self.lock_shard(self.shard_of(id))?;
        let slot = match shard.sessions.get_mut(&id) {
            Some(session) => {
                session.last_active_ns = now_ns;
                session.slot
            }
            None => return Err(ServeError::UnknownSession(id)),
        };
        match shard.slots[slot].push(chunk) {
            Ok(()) => Ok(()),
            Err(e) => {
                // The stream can't be trusted past a geometry violation:
                // evict eagerly so the slot (and its ring memory) is freed
                // at once instead of staying pinned behind a dead session.
                shard.close(id);
                ht_obs::counter_add("serve.evicted.error", 1);
                match e {
                    HeadTalkError::Stream(cause) => Err(ServeError::Evicted { id, cause }),
                    other => Err(ServeError::Pipeline(other)),
                }
            }
        }
    }

    /// Finalizes a session at logical time `now_ns`: assembles the
    /// incrementally accumulated evidence (O(features) — the capture is
    /// never re-transformed), runs the models, closes the session, and
    /// recycles its slot.
    ///
    /// A finalize that cannot decide — typically a capture still too short
    /// to hold one analysis frame — is **retryable**: the session stays
    /// open, marked active at `now_ns` (so it is not counted idle relative
    /// to this attempt), and more audio may be pushed before trying again.
    /// A session that should be abandoned instead goes through
    /// [`close`](WakeServer::close); idle eviction reaps the rest.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for an id that isn't open;
    /// [`ServeError::Pipeline`] when the evidence cannot yet decide (the
    /// session remains open); [`ServeError::LockPoisoned`] for a shard
    /// wrecked by a panicked handler.
    pub fn finalize(&self, id: u64, now_ns: u64) -> Result<StreamOutcome, ServeError> {
        self.lock_shard(self.shard_of(id))?.finalize(id, now_ns)
    }

    /// Closes a session without deciding, releasing its slot. The explicit
    /// companion to retryable [`finalize`](WakeServer::finalize) for
    /// callers abandoning an undecidable session.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for an id that isn't open,
    /// [`ServeError::LockPoisoned`] for a shard wrecked by a panicked
    /// handler.
    pub fn close(&self, id: u64) -> Result<(), ServeError> {
        if !self.lock_shard(self.shard_of(id))?.close(id) {
            return Err(ServeError::UnknownSession(id));
        }
        ht_obs::counter_add("serve.closed", 1);
        Ok(())
    }

    /// Finalizes many sessions at logical time `now_ns`, grouped by shard
    /// with one `ht-par` task per shard the batch touches.
    ///
    /// Each task locks only its own shard and decides that shard's
    /// members in input order through the same per-session routine as
    /// [`finalize`](WakeServer::finalize), so sessions on different shards
    /// decide in parallel while a shard's own members decide serially.
    /// Results come back in input order with per-session errors. A
    /// repeated id sees whatever its earlier occurrence left behind,
    /// exactly as serial `finalize` calls would; an undecidable session
    /// stays open (retryable, marked active at `now_ns`) and never blocks
    /// its batch neighbours; a wrecked shard fails only its own members.
    /// Outcomes are byte-identical to calling
    /// [`finalize`](WakeServer::finalize) per id, at any `HT_THREADS`.
    pub fn finalize_batch(
        &self,
        ids: &[u64],
        now_ns: u64,
    ) -> Vec<(u64, Result<StreamOutcome, ServeError>)> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (pos, &id) in ids.iter().enumerate() {
            by_shard[self.shard_of(id)].push(pos);
        }
        let groups: Vec<(usize, Vec<usize>)> = by_shard
            .into_iter()
            .enumerate()
            .filter(|(_, positions)| !positions.is_empty())
            .collect();
        let mut decided: Vec<(usize, Result<StreamOutcome, ServeError>)> =
            ht_par::par_map(&groups, |(shard_idx, positions)| {
                let mut shard = self.lock_shard(*shard_idx);
                positions
                    .iter()
                    .map(|&pos| {
                        let outcome = match &mut shard {
                            Ok(shard) => shard.finalize(ids[pos], now_ns),
                            Err(e) => Err(e.clone()),
                        };
                        (pos, outcome)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        // Every input position sits in exactly one shard's group.
        decided.sort_unstable_by_key(|&(pos, _)| pos);
        decided
            .into_iter()
            .map(|(pos, outcome)| (ids[pos], outcome))
            .collect()
    }

    /// Evicts every session idle since before `now_ns -
    /// session_idle_timeout_ns`, releasing their slots. Returns the number
    /// evicted. Deterministic: sessions are scanned in shard order, then
    /// id order.
    ///
    /// A shard whose lock was poisoned by a panicked handler is recovered
    /// and swept anyway: the session map and the free list only mutate in
    /// paired, non-unwinding steps, so the bookkeeping is structurally
    /// sound even after a panic, and reaping the reaper would leak every
    /// slot on that shard forever.
    pub fn evict_idle(&self, now_ns: u64) -> usize {
        let timeout = self.config.session_idle_timeout_ns;
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let stale: Vec<u64> = shard
                .sessions
                .iter()
                .filter(|(_, s)| now_ns.saturating_sub(s.last_active_ns) > timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in stale {
                if shard.close(id) {
                    evicted += 1;
                }
            }
        }
        if evicted > 0 {
            ht_obs::counter_add("serve.evicted.idle", evicted as u64);
        }
        evicted
    }

    /// Admission tokens available at logical time `now_ns`. Read-only, so
    /// a poisoned bucket lock is recovered rather than propagated — the
    /// count stays observable after a handler panic.
    pub fn tokens_available(&self, now_ns: u64) -> u64 {
        self.bucket
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .available(now_ns)
    }

    /// A point-in-time load summary across all shards. Read-only, so
    /// poisoned shard locks are recovered rather than propagated —
    /// diagnostics must stay reachable precisely when a handler has
    /// panicked.
    pub fn stats(&self) -> ServeStats {
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .map(|shard| {
                let shard = shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                ShardStats {
                    live: shard.sessions.len(),
                    live_hwm: shard.live_hwm,
                    slots_built: shard.slots.len(),
                }
            })
            .collect();
        ServeStats {
            live: shards.iter().map(|s| s.live).sum(),
            slots_built: shards.iter().map(|s| s.slots_built).sum(),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::toy_pipeline;
    use ht_dsp::rng::{gaussian, SeedableRng, StdRng};

    fn noise_capture(seed: u64, n_channels: usize, len: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_channels)
            .map(|_| (0..len).map(|_| 0.1 * gaussian(&mut rng)).collect())
            .collect()
    }

    fn serve_config(ht: &HeadTalk) -> ServeConfig {
        ServeConfig {
            n_shards: 2,
            sessions_per_shard: 2,
            bucket: TokenBucketConfig {
                capacity: 64,
                refill_per_sec: 0,
            },
            session_idle_timeout_ns: 1_000_000_000,
            ..ServeConfig::for_pipeline(ht.config())
        }
    }

    #[test]
    #[should_panic(expected = "1 channel(s) cannot stream")]
    fn new_refuses_a_single_channel() {
        let ht = toy_pipeline();
        WakeServer::new(
            &ht,
            ServeConfig {
                n_channels: 1,
                ..serve_config(&ht)
            },
        );
    }

    #[test]
    #[should_panic(expected = "trained on feature width")]
    fn new_refuses_a_channel_count_the_model_was_not_trained_on() {
        // The toy pipeline's orientation model is trained on 4 channels.
        let ht = toy_pipeline();
        WakeServer::new(
            &ht,
            ServeConfig {
                n_channels: 3,
                ..serve_config(&ht)
            },
        );
    }

    fn push_all(server: &WakeServer<'_>, id: u64, capture: &[Vec<f64>], now_ns: u64) {
        let (_, hop) = PipelineConfig::default().analysis_frame_geometry();
        let len = capture[0].len();
        let mut pos = 0;
        while pos < len {
            let end = (pos + hop).min(len);
            let chunk: Vec<&[f64]> = capture.iter().map(|c| &c[pos..end]).collect();
            server.push(id, &chunk, now_ns).expect("push");
            pos = end;
        }
    }

    #[test]
    fn session_outcome_matches_solo_batch() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        let capture = noise_capture(0x11, 4, 4800);

        server.open(7, 0).unwrap();
        push_all(&server, 7, &capture, 1);
        let served = server.finalize(7, 2).unwrap();

        let (decision, features) = ht.decide_batch(&capture).unwrap();
        let d = served.decision.expect("decision");
        assert_eq!(d.live, decision.live);
        assert_eq!(d.facing, decision.facing);
        assert_eq!(
            d.live_probability.to_bits(),
            decision.live_probability.to_bits()
        );
        assert_eq!(d.facing_score.to_bits(), decision.facing_score.to_bits());
        assert_eq!(served.features.len(), features.len());
        for (a, b) in served.features.iter().zip(&features) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(server.stats().live, 0, "finalize closes the session");
        // The decided session's slot serves the next one on its shard.
        server.open(9, 3).unwrap();
        let shard = server.stats().shards[server.shard_of(9)];
        assert_eq!((shard.slots_built, shard.live_hwm), (1, 1));
    }

    #[test]
    fn duplicate_and_unknown_sessions_are_typed() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        server.open(1, 0).unwrap();
        assert_eq!(server.open(1, 0), Err(ServeError::DuplicateSession(1)));
        assert_eq!(
            server.push(99, &[&[0.0][..]; 4], 0).unwrap_err(),
            ServeError::UnknownSession(99)
        );
        assert!(matches!(
            server.finalize(99, 0),
            Err(ServeError::UnknownSession(99))
        ));
    }

    #[test]
    fn rejected_opens_consume_nothing_and_leave_no_state() {
        let ht = toy_pipeline();
        let mut config = serve_config(&ht);
        config.bucket.capacity = 2;
        let server = WakeServer::new(&ht, config);

        // Shard 0 holds ids 0, 2, 4, …; fill its two slots.
        server.open(0, 0).unwrap();
        server.open(2, 0).unwrap();
        // Shard full: refused *before* the bucket, so no token burns.
        assert_eq!(
            server.open(4, 0),
            Err(ServeError::Rejected(RejectReason::ShardFull {
                shard: 0,
                capacity: 2
            }))
        );
        assert_eq!(server.tokens_available(0), 0, "both tokens went to admits");
        // Bucket empty: shard 1 has room but the rate limiter refuses.
        assert_eq!(
            server.open(1, 0),
            Err(ServeError::Rejected(RejectReason::RateLimited {
                retry_after_ns: None
            }))
        );
        let stats = server.stats();
        assert_eq!(stats.live, 2);
        assert_eq!(stats.shards[1].live, 0, "rejected open left no state");
        assert_eq!(stats.shards[1].slots_built, 0);
    }

    #[test]
    fn geometry_violation_evicts_eagerly() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        server.open(3, 0).unwrap();
        // 2 channels into a 4-channel session: geometry violation.
        let bad: Vec<&[f64]> = vec![&[0.0; 16], &[0.0; 16]];
        let err = server.push(3, &bad, 1).unwrap_err();
        assert_eq!(
            err,
            ServeError::Evicted {
                id: 3,
                cause: StreamError::ChannelCountChanged {
                    expected: 4,
                    got: 2
                }
            }
        );
        assert_eq!(server.stats().live, 0, "evicted immediately");
        assert_eq!(
            server.push(3, &bad, 2).unwrap_err(),
            ServeError::UnknownSession(3),
            "the id is closed after eviction"
        );
    }

    #[test]
    fn non_finite_chunk_evicts_only_its_session() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        let capture = noise_capture(0x55, 4, 4800);
        // Ids 4 and 6 share shard 0, so the eviction happens in the
        // neighbour's own shard.
        server.open(4, 0).unwrap();
        server.open(6, 0).unwrap();
        let half: Vec<Vec<f64>> = capture.iter().map(|c| c[..2400].to_vec()).collect();
        push_all(&server, 6, &half, 1);

        let mut bad = vec![vec![0.1; 480]; 4];
        bad[3][7] = f64::NAN;
        let views: Vec<&[f64]> = bad.iter().map(Vec::as_slice).collect();
        assert_eq!(
            server.push(4, &views, 2).unwrap_err(),
            ServeError::Evicted {
                id: 4,
                cause: StreamError::NonFinite {
                    channel: 3,
                    index: 7
                }
            }
        );
        assert_eq!(server.stats().live, 1, "only the poisoned session left");

        let rest: Vec<Vec<f64>> = capture.iter().map(|c| c[2400..].to_vec()).collect();
        push_all(&server, 6, &rest, 3);
        let served = server.finalize(6, 4).unwrap();
        let (decision, features) = ht.decide_batch(&capture).unwrap();
        let d = served.decision.expect("decision");
        assert_eq!(
            d.live_probability.to_bits(),
            decision.live_probability.to_bits()
        );
        assert_eq!(d.facing_score.to_bits(), decision.facing_score.to_bits());
        assert_eq!(served.features.len(), features.len());
        for (a, b) in served.features.iter().zip(&features) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pushing_past_the_capture_cap_evicts_the_session() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        let limit = ht.config().max_capture_samples();
        let quarter = noise_capture(0x77, 4, limit / 4);
        let views: Vec<&[f64]> = quarter.iter().map(Vec::as_slice).collect();
        server.open(5, 0).unwrap();
        // Four quarters fill the cap exactly; one more sample passes it.
        for t in 1..=4 {
            server.push(5, &views, t).unwrap();
        }
        let one: Vec<&[f64]> = quarter.iter().map(|c| &c[..1]).collect();
        assert_eq!(
            server.push(5, &one, 5).unwrap_err(),
            ServeError::Evicted {
                id: 5,
                cause: StreamError::CaptureTooLong {
                    limit,
                    got: limit + 1
                }
            }
        );
        assert_eq!(server.stats().live, 0, "evicted immediately");
        assert_eq!(
            server.push(5, &one, 6).unwrap_err(),
            ServeError::UnknownSession(5)
        );
    }

    #[test]
    fn eager_eviction_keeps_arena_marks_flat() {
        // Regression: before eager eviction, each failed session left its
        // slot pinned, so repeated failures used up the shard's slots until
        // it wedged. Now the marks must stay flat.
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        let bad: Vec<&[f64]> = vec![&[0.0; 16]; 2];
        for round in 0..20 {
            server.open(0, round).unwrap();
            assert!(matches!(
                server.push(0, &bad, round).unwrap_err(),
                ServeError::Evicted { .. }
            ));
            let shard0 = server.stats().shards[0];
            assert_eq!(shard0.slots_built, 1, "round {round}: slots never grow");
            assert_eq!(shard0.live_hwm, 1, "round {round}: hwm stays flat");
            assert_eq!(shard0.live, 0, "round {round}: nothing stays pinned");
        }
    }

    #[test]
    fn finalize_time_counts_as_activity() {
        // Satellite regression: `finalize` used to ignore its `now_ns`, so
        // a failed (retryable) finalize left `last_active_ns` at the last
        // push — the session could be idle-evicted relative to a moment it
        // was demonstrably active.
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht)); // 1 s timeout
        server.open(0, 0).unwrap();
        // One 16-sample push at t=0: far too short to hold a frame.
        let tiny = noise_capture(0x33, 4, 16);
        let views: Vec<&[f64]> = tiny.iter().map(Vec::as_slice).collect();
        server.push(0, &views, 0).unwrap();
        // Retryable finalize at t=0.5 s: fails, but counts as activity.
        assert!(matches!(
            server.finalize(0, 500_000_000),
            Err(ServeError::Pipeline(_))
        ));
        assert_eq!(server.stats().live, 1, "retryable finalize keeps it open");
        // At t=1.5 s the session is 1.0 s idle relative to the finalize —
        // not past the 1 s timeout. Measured from the push it would be
        // 1.5 s idle and wrongly evicted.
        assert_eq!(server.evict_idle(1_500_000_000), 0);
        assert_eq!(server.stats().live, 1);
        assert_eq!(server.evict_idle(1_500_000_001), 1, "now truly idle");
    }

    #[test]
    fn undecidable_finalize_is_retryable_with_more_audio() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        server.open(0, 0).unwrap();
        let tiny = noise_capture(0x44, 4, 64);
        let views: Vec<&[f64]> = tiny.iter().map(Vec::as_slice).collect();
        server.push(0, &views, 0).unwrap();
        assert!(matches!(
            server.finalize(0, 1),
            Err(ServeError::Pipeline(_))
        ));
        // The stream state survived the failed attempt: feed a decidable
        // capture and retry.
        let rest = noise_capture(0x45, 4, 4800);
        push_all(&server, 0, &rest, 2);
        let outcome = server.finalize(0, 3).expect("retry decides");
        assert!(outcome.decision.is_some());
        assert_eq!(server.stats().live, 0);
    }

    #[test]
    fn close_releases_without_deciding() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        server.open(0, 0).unwrap();
        server.close(0).unwrap();
        assert_eq!(server.stats().live, 0);
        assert_eq!(server.close(0), Err(ServeError::UnknownSession(0)));
        // The slot is recycled, not rebuilt.
        server.open(2, 1).unwrap();
        assert_eq!(server.stats().shards[0].slots_built, 1);

        // The most recently freed slot is reused first.
        let slot_of = |id: u64| server.shards[0].lock().unwrap().sessions[&id].slot;
        server.open(4, 2).unwrap();
        let (first, second) = (slot_of(2), slot_of(4));
        server.close(2).unwrap();
        server.close(4).unwrap();
        server.open(6, 3).unwrap();
        assert_eq!(slot_of(6), second);
        server.open(8, 3).unwrap();
        assert_eq!(slot_of(8), first);
        let shard = server.stats().shards[0];
        assert_eq!((shard.slots_built, shard.live_hwm), (2, 2));
    }

    #[test]
    fn evict_idle_boundary_is_exclusive() {
        // Satellite: a session idle *exactly* the timeout is not evicted —
        // eviction requires idle time strictly greater.
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht)); // 1 s timeout
        server.open(0, 1_000).unwrap();
        assert_eq!(
            server.evict_idle(1_000_000_999),
            0,
            "just under the boundary"
        );
        assert_eq!(server.evict_idle(1_000_001_000), 0, "exactly at boundary");
        assert_eq!(server.evict_idle(1_000_001_001), 1, "strictly past it");
    }

    #[test]
    fn evict_idle_never_underflows_on_early_clocks() {
        // Satellite: `now_ns` earlier than a session's last activity (clock
        // skew, reordered events) or smaller than the timeout itself must
        // not wrap around into a huge idle time.
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht)); // 1 s timeout
        server.open(0, 5_000_000_000).unwrap();
        assert_eq!(server.evict_idle(0), 0, "now < timeout");
        assert_eq!(server.evict_idle(4_000_000_000), 0, "now < last_active");
        assert_eq!(server.stats().live, 1);
    }

    #[test]
    fn finalize_batch_matches_single_finalize() {
        let ht = toy_pipeline();
        let captures: Vec<Vec<Vec<f64>>> = (0..4)
            .map(|i| noise_capture(0x60 + i, 4, 4800 + 480 * i as usize))
            .collect();

        // Drive two identical servers identically; finalize one per id and
        // the other in a single batch.
        let single = WakeServer::new(&ht, serve_config(&ht));
        let batch = WakeServer::new(&ht, serve_config(&ht));
        for (i, capture) in captures.iter().enumerate() {
            let id = i as u64;
            single.open(id, 0).unwrap();
            batch.open(id, 0).unwrap();
            push_all(&single, id, capture, 1);
            push_all(&batch, id, capture, 1);
        }
        // The batch includes an unknown id; order is preserved.
        let results = batch.finalize_batch(&[0, 99, 1, 2, 3], 2);
        assert_eq!(results.len(), 5);
        assert_eq!(results[1].0, 99);
        assert!(matches!(results[1].1, Err(ServeError::UnknownSession(99))));
        for (id, result) in results.into_iter().filter(|(id, _)| *id != 99) {
            let b = result.expect("batch outcome");
            let s = single.finalize(id, 2).expect("single outcome");
            assert_eq!(b.verdict, s.verdict, "session {id}");
            let (bd, sd) = (b.decision.unwrap(), s.decision.unwrap());
            assert_eq!(
                bd.live_probability.to_bits(),
                sd.live_probability.to_bits(),
                "session {id}: live bits"
            );
            assert_eq!(
                bd.facing_score.to_bits(),
                sd.facing_score.to_bits(),
                "session {id}: facing bits"
            );
            assert_eq!(b.features.len(), s.features.len());
            for (x, y) in b.features.iter().zip(&s.features) {
                assert_eq!(x.to_bits(), y.to_bits(), "session {id}: feature bits");
            }
        }
        assert_eq!(batch.stats().live, 0);
        assert_eq!(single.stats().live, 0);
    }

    #[test]
    fn prewarm_moves_slot_construction_off_the_open_path() {
        let ht = toy_pipeline();
        let mut config = serve_config(&ht);
        config.prewarm_slots = 2;
        let server = WakeServer::new(&ht, config);
        let stats = server.stats();
        assert_eq!(stats.slots_built, 4, "2 slots × 2 shards built at startup");
        assert_eq!(stats.live, 0);
        // Opens reuse the prewarmed slots: `built` stays flat.
        server.open(0, 0).unwrap();
        server.open(1, 0).unwrap();
        server.open(2, 0).unwrap();
        server.open(3, 0).unwrap();
        assert_eq!(server.stats().slots_built, 4, "no lazy construction");

        // Prewarming past capacity builds each shard's capacity and no
        // more; the capacity check still bounds opens.
        config.prewarm_slots = 10;
        let server = WakeServer::new(&ht, config);
        assert_eq!(server.stats().slots_built, 4, "clamped to 2 per shard");
        server.open(0, 0).unwrap();
        server.open(2, 0).unwrap();
        assert!(matches!(
            server.open(4, 0),
            Err(ServeError::Rejected(RejectReason::ShardFull { .. }))
        ));

        // A partly prewarmed shard builds the rest lazily, up to capacity.
        config.prewarm_slots = 1;
        let server = WakeServer::new(&ht, config);
        assert_eq!(server.stats().slots_built, 2);
        server.open(0, 0).unwrap();
        assert_eq!(
            server.stats().shards[0].slots_built,
            1,
            "prewarmed slot reused"
        );
        server.open(2, 0).unwrap();
        assert_eq!(
            server.stats().shards[0].slots_built,
            2,
            "second slot built lazily"
        );
    }

    #[test]
    fn finalize_batch_with_repeated_ids_matches_serial_semantics() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        let good = noise_capture(0x90, 4, 4800);
        let tiny = noise_capture(0x91, 4, 32);
        server.open(0, 0).unwrap();
        server.open(1, 0).unwrap();
        push_all(&server, 0, &good, 1);
        let views: Vec<&[f64]> = tiny.iter().map(Vec::as_slice).collect();
        server.push(1, &views, 1).unwrap();

        // id 0 decides on its first occurrence, so the repeat sees a
        // closed session; id 1 is retryable on both occurrences — exactly
        // what two serial finalize calls per id produce.
        let results = server.finalize_batch(&[0, 1, 0, 1], 2);
        assert!(results[0].1.is_ok());
        assert!(matches!(&results[1].1, Err(ServeError::Pipeline(_))));
        assert!(matches!(&results[2].1, Err(ServeError::UnknownSession(0))));
        assert!(matches!(&results[3].1, Err(ServeError::Pipeline(_))));
        assert_eq!(server.stats().live, 1, "retryable session stays open");
        server.close(1).unwrap();
    }

    #[test]
    fn finalize_batch_keeps_undecidable_sessions_open() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        let good = noise_capture(0x70, 4, 4800);
        let tiny = noise_capture(0x71, 4, 32);
        server.open(0, 0).unwrap();
        server.open(1, 0).unwrap();
        push_all(&server, 0, &good, 1);
        let views: Vec<&[f64]> = tiny.iter().map(Vec::as_slice).collect();
        server.push(1, &views, 1).unwrap();

        let results = server.finalize_batch(&[0, 1], 2);
        assert!(results[0].1.is_ok(), "decidable neighbour unaffected");
        assert!(matches!(&results[1].1, Err(ServeError::Pipeline(_))));
        assert_eq!(server.stats().live, 1, "undecidable session stays open");
        server.close(1).unwrap();
    }

    /// Panics while holding the given lock from another thread, leaving it
    /// poisoned.
    fn poison<T>(lock: &Mutex<T>)
    where
        T: Send,
    {
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = lock.lock().unwrap();
                panic!("poisoning the lock under test");
            });
            assert!(handle.join().is_err());
        });
        assert!(lock.lock().is_err(), "lock is poisoned");
    }

    #[test]
    fn poisoned_shard_is_a_typed_error_for_request_paths() {
        // Satellite regression: every request entry point used to
        // `expect("shard lock")`, so one panicked handler turned every
        // subsequent request on that shard into a panic of its own. Now
        // requests get a typed error, other shards keep serving, and the
        // maintenance paths still reach the wrecked shard.
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        server.open(0, 0).unwrap();
        server.open(1, 0).unwrap();
        poison(&server.shards[0]);

        let chunk = noise_capture(0x50, 4, 16);
        let views: Vec<&[f64]> = chunk.iter().map(Vec::as_slice).collect();
        assert_eq!(server.open(2, 1), Err(ServeError::LockPoisoned("shard")));
        assert_eq!(
            server.push(0, &views, 1).unwrap_err(),
            ServeError::LockPoisoned("shard")
        );
        assert!(matches!(
            server.finalize(0, 1),
            Err(ServeError::LockPoisoned("shard"))
        ));
        assert_eq!(server.close(0), Err(ServeError::LockPoisoned("shard")));
        // Shard 1 (odd ids) is unaffected by shard 0's corpse.
        server.push(1, &views, 1).unwrap();
        // A batch fails only the wrecked shard's members.
        let results = server.finalize_batch(&[0, 1], 2);
        assert!(matches!(
            &results[0].1,
            Err(ServeError::LockPoisoned("shard"))
        ));
        assert!(
            !matches!(&results[1].1, Err(ServeError::LockPoisoned(_))),
            "healthy shard member decided independently"
        );
        // Diagnostics and the reaper recover the poisoned lock: the
        // sessions are still visible and idle eviction still frees slots.
        assert_eq!(server.stats().live, 2);
        assert_eq!(server.evict_idle(u64::MAX), 2);
        assert_eq!(server.stats().live, 0);
    }

    #[test]
    fn poisoned_bucket_is_typed_for_open_and_recovered_for_reads() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        poison(&server.bucket);
        assert_eq!(server.open(0, 0), Err(ServeError::LockPoisoned("bucket")));
        assert_eq!(server.tokens_available(0), 64, "read path recovers");
    }

    #[test]
    fn int8_pipeline_serves_with_batch_single_and_solo_agreement() {
        // The server inherits the pipeline's quantization mode through
        // `infer_assembled`: an int8-calibrated pipeline must serve with
        // the same bits — features included — whether a session is
        // finalized solo, singly, or batched.
        let mut ht = toy_pipeline();
        let captures: Vec<Vec<Vec<f64>>> = (0..3)
            .map(|i| noise_capture(0x80 + i, 4, 4800 + 480 * i as usize))
            .collect();
        ht.enable_int8(&captures).expect("calibration");
        assert_eq!(ht.quant_mode(), headtalk::QuantMode::Int8);

        let single = WakeServer::new(&ht, serve_config(&ht));
        let batch = WakeServer::new(&ht, serve_config(&ht));
        for (i, capture) in captures.iter().enumerate() {
            let id = i as u64;
            single.open(id, 0).unwrap();
            batch.open(id, 0).unwrap();
            push_all(&single, id, capture, 1);
            push_all(&batch, id, capture, 1);
        }
        for (id, result) in batch.finalize_batch(&[0, 1, 2], 2) {
            let b = result.expect("batch outcome");
            let s = single.finalize(id, 2).expect("single outcome");
            let (solo, solo_features) = ht.decide_batch(&captures[id as usize]).unwrap();
            assert_eq!(b.features.len(), solo_features.len());
            for (i, ((x, y), z)) in b
                .features
                .iter()
                .zip(&s.features)
                .zip(&solo_features)
                .enumerate()
            {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "session {id}: batch vs single feature {i}"
                );
                assert_eq!(
                    x.to_bits(),
                    z.to_bits(),
                    "session {id}: served vs solo feature {i}"
                );
            }
            let (bd, sd) = (b.decision.unwrap(), s.decision.unwrap());
            assert_eq!(
                bd.live_probability.to_bits(),
                sd.live_probability.to_bits(),
                "session {id}: batch vs single live bits"
            );
            assert_eq!(
                bd.live_probability.to_bits(),
                solo.live_probability.to_bits(),
                "session {id}: served vs solo live bits"
            );
            assert_eq!(bd.facing_score.to_bits(), sd.facing_score.to_bits());
            assert_eq!(bd.facing_score.to_bits(), solo.facing_score.to_bits());
        }
    }

    #[test]
    fn idle_sessions_are_evicted_and_slots_recycled() {
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        server.open(0, 0).unwrap();
        server.open(1, 0).unwrap();
        // id 1 stays active; id 0 goes idle past the 1 s timeout.
        let chunk = noise_capture(0x22, 4, 480);
        let views: Vec<&[f64]> = chunk.iter().map(Vec::as_slice).collect();
        server.push(1, &views, 1_500_000_000).unwrap();
        assert_eq!(server.evict_idle(2_000_000_000), 1);
        assert_eq!(
            server.push(0, &views, 2_000_000_001).unwrap_err(),
            ServeError::UnknownSession(0)
        );
        assert_eq!(server.stats().live, 1, "active session survives");
        // The freed slot serves a new session without building another.
        server.open(2, 2_000_000_002).unwrap();
        assert_eq!(server.stats().shards[0].slots_built, 1);
    }
}
