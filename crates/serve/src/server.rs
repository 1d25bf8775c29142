//! The multi-tenant wake-word server.
//!
//! A [`WakeServer`] fronts one trained [`HeadTalk`] pipeline with many
//! concurrent device sessions. Sessions are sharded by id (`id mod
//! n_shards`); each shard owns a [`ShardArena`] of reusable
//! [`WakeStream`](headtalk::WakeStream) slots behind its own lock, so
//! streaming work for different shards proceeds in parallel on the
//! `ht-par` pool with no cross-shard contention. Admission is a single
//! [`TokenBucket`] over the caller's logical clock plus a per-shard slot
//! cap — both produce typed [`RejectReason`]s instead of unbounded queues.
//!
//! Determinism contract: the server itself never reads a clock or an RNG.
//! Every entry point takes a logical `now_ns`, every per-session result is
//! produced by the same `WakeStream` → `decide_batch` path as solo batch
//! processing, and the arena reuse is invisible to results (a reset slot
//! is byte-identical to a fresh one — pinned by the interleaving suite).
//!
//! Failure policy: a mid-stream geometry violation (channel count change,
//! ragged chunk) is not survivable for that session — the stream's state
//! can no longer be trusted — so the session is **eagerly evicted**: its
//! slot is reset and returned to the arena before the error reaches the
//! caller. Nothing stays pinned until some later cleanup pass; repeated
//! failing sessions leave the arena high-water marks flat (regression
//! test: `eager_eviction_keeps_arena_marks_flat`).

use std::collections::BTreeMap;
use std::sync::Mutex;

use headtalk::stream::{StreamOutcome, WakeVerdict};
use headtalk::{HeadTalk, HeadTalkError, PipelineConfig, StreamConfig};
use ht_stream::StreamError;

use crate::admission::{RejectReason, TokenBucket, TokenBucketConfig};
use crate::arena::ShardArena;

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
    /// Stream geometry and gate tuning shared by every session.
    pub stream: StreamConfig,
    /// Session slots to build eagerly per shard at construction (clamped
    /// to `sessions_per_shard`). Lazy slot construction puts a
    /// multi-millisecond burst on the first `open` to touch each slot;
    /// prewarming moves that cost to startup so open tail latency stays
    /// flat. `0` keeps the historical fully lazy behavior.
    pub prewarm_slots: usize,
}

impl ServeConfig {
    /// Defaults for a pipeline configuration: 4 shards of 64 slots, the
    /// default admission bucket, a 30 s (logical) idle timeout, and the
    /// pipeline's natural stream geometry.
    pub fn for_pipeline(config: &PipelineConfig) -> ServeConfig {
        ServeConfig {
            n_shards: 4,
            sessions_per_shard: 64,
            bucket: TokenBucketConfig::default(),
            session_idle_timeout_ns: 30_000_000_000,
            n_channels: 4,
            stream: StreamConfig::for_pipeline(config),
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
    /// sample and was eagerly evicted — its slot is already back in the
    /// arena; the id is closed.
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
    /// A server-internal invariant broke (a bug, not a caller error); the
    /// string says which one. Exists so hot paths degrade to a typed error
    /// instead of panicking mid-request.
    Internal(&'static str),
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
            ServeError::Internal(what) => write!(f, "internal invariant broken: {what}"),
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

#[derive(Debug)]
struct Shard<'ht> {
    arena: ShardArena<'ht>,
    sessions: BTreeMap<u64, Session>,
}

/// Per-shard load numbers from [`WakeServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Sessions currently in flight on this shard.
    pub live: usize,
    /// Most sessions this shard ever held at once.
    pub live_hwm: usize,
    /// Session slots this shard's arena has constructed.
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
/// different shards never contend. Lock order is fixed (bucket before
/// shard, one shard at a time), so the server cannot deadlock against
/// itself.
#[derive(Debug)]
pub struct WakeServer<'ht> {
    ht: &'ht HeadTalk,
    config: ServeConfig,
    bucket: Mutex<TokenBucket>,
    shards: Vec<Mutex<Shard<'ht>>>,
}

impl<'ht> WakeServer<'ht> {
    /// A server over `ht` with no sessions yet. Session slots are built
    /// lazily on first use, per shard.
    ///
    /// # Panics
    ///
    /// Panics when `config.n_shards`, `config.sessions_per_shard`, or
    /// `config.n_channels` is zero — a structurally useless server is a
    /// deployment bug, not a runtime condition. Panics when
    /// `config.prewarm_slots > 0` and a slot fails to construct (an
    /// untrained pipeline behind an eagerly provisioned server is likewise
    /// a deployment bug; leave the knob at zero to surface construction
    /// errors lazily through `open` instead).
    pub fn new(ht: &'ht HeadTalk, config: ServeConfig) -> WakeServer<'ht> {
        assert!(config.n_shards > 0, "a server needs at least one shard");
        assert!(
            config.sessions_per_shard > 0,
            "a shard needs at least one session slot"
        );
        assert!(config.n_channels > 0, "sessions need at least one channel");
        let shards = (0..config.n_shards)
            .map(|_| {
                Mutex::new(Shard {
                    arena: ShardArena::new(
                        ht,
                        config.n_channels,
                        config.stream,
                        config.sessions_per_shard,
                    ),
                    sessions: BTreeMap::new(),
                })
            })
            .collect();
        let server = WakeServer {
            ht,
            config,
            bucket: Mutex::new(TokenBucket::new(config.bucket)),
            shards,
        };
        if config.prewarm_slots > 0 {
            server
                .prewarm(config.prewarm_slots)
                .expect("prewarm: session-slot construction failed");
        }
        server
    }

    /// Eagerly builds up to `per_shard` session slots on every shard (see
    /// [`ServeConfig::prewarm_slots`] to do this at construction). Returns
    /// the total number of slots built. Idempotent: already-built slots
    /// are counted toward the target, never rebuilt.
    ///
    /// # Errors
    ///
    /// [`ServeError::Pipeline`] when a slot fails to construct (earlier
    /// slots stay built), [`ServeError::LockPoisoned`] for a wrecked
    /// shard.
    pub fn prewarm(&self, per_shard: usize) -> Result<usize, ServeError> {
        let _span = ht_obs::span("serve.prewarm");
        let mut total = 0;
        for idx in 0..self.shards.len() {
            let mut shard = self.lock_shard(idx)?;
            total += shard.arena.prewarm(per_shard)?;
        }
        Ok(total)
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
    /// rate limit. Rejected sessions leave zero residual shard state.
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
        if shard.arena.live() >= shard.arena.capacity() {
            ht_obs::counter_add("serve.rejected.capacity", 1);
            return Err(ServeError::Rejected(RejectReason::ShardFull {
                shard: shard_idx,
                capacity: shard.arena.capacity(),
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
        // Cannot be `None` unless an invariant broke: the capacity check
        // above held under this shard's lock. Degrade to a typed error
        // rather than panic mid-request if it ever does.
        let Some(slot) = shard.arena.acquire()? else {
            return Err(ServeError::Internal("arena empty after capacity check"));
        };
        shard.sessions.insert(
            id,
            Session {
                slot,
                last_active_ns: now_ns,
            },
        );
        ht_obs::counter_add("serve.admitted", 1);
        ht_obs::counter_max("serve.shard_sessions_hwm", shard.sessions.len() as u64);
        ht_obs::counter_max("serve.arena_slots_hwm", shard.arena.live_hwm() as u64);
        Ok(())
    }

    /// Streams one audio chunk into a session at logical time `now_ns`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for an id that isn't open,
    /// [`ServeError::LockPoisoned`] for a shard wrecked by a panicked
    /// handler. A mid-stream geometry violation or a NaN/infinite sample
    /// eagerly evicts the session (slot reset and released before
    /// returning) and surfaces as [`ServeError::Evicted`].
    pub fn push(&self, id: u64, chunk: &[&[f64]], now_ns: u64) -> Result<WakeVerdict, ServeError> {
        let _span = ht_obs::span("serve.push");
        let mut shard = self.lock_shard(self.shard_of(id))?;
        let slot = match shard.sessions.get_mut(&id) {
            Some(session) => {
                session.last_active_ns = now_ns;
                session.slot
            }
            None => return Err(ServeError::UnknownSession(id)),
        };
        match shard.arena.slot_mut(slot).push(chunk) {
            Ok(verdict) => Ok(verdict),
            Err(e) => {
                // The stream can't be trusted past a geometry violation:
                // evict eagerly so the slot (and its ring memory) goes
                // straight back to the arena instead of staying pinned
                // behind a dead session.
                shard.sessions.remove(&id);
                shard.arena.release(slot);
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
        let _span = ht_obs::span("serve.decision");
        let mut shard = self.lock_shard(self.shard_of(id))?;
        let slot = match shard.sessions.get_mut(&id) {
            Some(session) => {
                session.last_active_ns = now_ns;
                session.slot
            }
            None => return Err(ServeError::UnknownSession(id)),
        };
        match shard.arena.slot_mut(slot).outcome() {
            Ok(o) => {
                shard.sessions.remove(&id);
                shard.arena.release(slot);
                ht_obs::counter_add("serve.decisions", 1);
                Ok(o)
            }
            Err(e) => {
                ht_obs::counter_add("serve.finalize_retry", 1);
                Err(ServeError::Pipeline(e))
            }
        }
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
        let mut shard = self.lock_shard(self.shard_of(id))?;
        match shard.sessions.remove(&id) {
            Some(session) => {
                shard.arena.release(session.slot);
                ht_obs::counter_add("serve.closed", 1);
                Ok(())
            }
            None => Err(ServeError::UnknownSession(id)),
        }
    }

    /// Finalizes many sessions at logical time `now_ns`, parallelizing
    /// both evidence assembly and model inference across them on the
    /// `ht-par` pool.
    ///
    /// Every involved shard is locked (in ascending index order — the
    /// fixed order, so the server cannot deadlock against itself), the
    /// batch's sessions are staged, and **assembly itself runs as one
    /// per-session task fan-out** over disjoint slot borrows: the
    /// remaining FFT/accumulator work of a finalize wave overlaps across
    /// pool workers instead of serializing under one shard lock at a
    /// time. The locks are dropped before any model runs, so inference
    /// for sessions of *one* shard parallelizes too, which
    /// single-session [`finalize`](WakeServer::finalize) under the shard
    /// lock cannot do. Results come back in input order with per-session
    /// errors: an undecidable session stays open (retryable, marked
    /// active at `now_ns`) exactly as in single finalize, and never
    /// blocks its batch neighbours. Outcomes are byte-identical to
    /// calling [`finalize`](WakeServer::finalize) per id, at any
    /// `HT_THREADS`.
    pub fn finalize_batch(
        &self,
        ids: &[u64],
        now_ns: u64,
    ) -> Vec<(u64, Result<StreamOutcome, ServeError>)> {
        /// Evidence cloned out of a slot, ready for lock-free inference.
        struct Pack {
            pos: usize,
            id: u64,
            features: Vec<f64>,
            liveness: Vec<f64>,
            muted: bool,
            early_exit: Option<headtalk::stream::EarlyExit>,
            frames: u64,
            samples_per_channel: usize,
        }

        /// One session's assembly result, produced without touching any
        /// shard bookkeeping so the tasks can run in parallel.
        enum Assembled {
            Ready {
                features: Vec<f64>,
                liveness: Vec<f64>,
                muted: bool,
                early_exit: Option<headtalk::stream::EarlyExit>,
                frames: u64,
                samples_per_channel: usize,
            },
            /// Same contract as `WakeStream::outcome`: the gate already
            /// muted the stream, so an undecidable capture is a decision,
            /// not an error.
            Muted {
                early_exit: Option<headtalk::stream::EarlyExit>,
                frames: u64,
                samples_per_channel: usize,
            },
            Retry(HeadTalkError),
        }

        /// Assembles one session's evidence. Clones the evidence out
        /// eagerly so the borrow from `assemble` ends before the error
        /// arms inspect the stream.
        fn assemble_session(stream: &mut headtalk::WakeStream<'_>) -> Assembled {
            let assembled = {
                let _span = ht_obs::span("serve.assemble");
                stream
                    .assemble()
                    .map(|ev| (ev.features.to_vec(), ev.liveness_input.to_vec()))
            };
            match assembled {
                Ok((features, liveness)) => Assembled::Ready {
                    features,
                    liveness,
                    muted: stream.is_muted(),
                    early_exit: stream.early_exit(),
                    frames: stream.frames(),
                    samples_per_channel: stream.samples_per_channel(),
                },
                Err(_) if stream.is_muted() => Assembled::Muted {
                    early_exit: stream.early_exit(),
                    frames: stream.frames(),
                    samples_per_channel: stream.samples_per_channel(),
                },
                Err(e) => Assembled::Retry(e),
            }
        }

        /// Applies one assembly result to its shard's bookkeeping —
        /// single-finalize semantics, in input order.
        #[allow(clippy::too_many_arguments)]
        fn apply<'ht>(
            shard: &mut Shard<'ht>,
            outcome: Assembled,
            pos: usize,
            id: u64,
            slot: usize,
            results: &mut [Option<(u64, Result<StreamOutcome, ServeError>)>],
            packs: &mut Vec<Pack>,
        ) {
            match outcome {
                Assembled::Ready {
                    features,
                    liveness,
                    muted,
                    early_exit,
                    frames,
                    samples_per_channel,
                } => {
                    shard.sessions.remove(&id);
                    shard.arena.release(slot);
                    ht_obs::counter_add("serve.decisions", 1);
                    packs.push(Pack {
                        pos,
                        id,
                        features,
                        liveness,
                        muted,
                        early_exit,
                        frames,
                        samples_per_channel,
                    });
                }
                Assembled::Muted {
                    early_exit,
                    frames,
                    samples_per_channel,
                } => {
                    let outcome = StreamOutcome {
                        verdict: WakeVerdict::SoftMute,
                        decision: None,
                        features: Vec::new(),
                        early_exit,
                        frames,
                        samples_per_channel,
                    };
                    shard.sessions.remove(&id);
                    shard.arena.release(slot);
                    ht_obs::counter_add("serve.decisions", 1);
                    results[pos] = Some((id, Ok(outcome)));
                }
                Assembled::Retry(e) => {
                    ht_obs::counter_add("serve.finalize_retry", 1);
                    results[pos] = Some((id, Err(ServeError::Pipeline(e))));
                }
            }
        }

        let mut results: Vec<Option<(u64, Result<StreamOutcome, ServeError>)>> =
            (0..ids.len()).map(|_| None).collect();
        let mut by_shard: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.shards.len()];
        for (pos, &id) in ids.iter().enumerate() {
            by_shard[self.shard_of(id)].push((pos, id));
        }

        // Phase 1a: lock every involved shard, validate its batch members
        // against the session map, and stage one assemble job per live
        // session. A wrecked shard fails only its own members; the batch
        // neighbours on healthy shards still decide.
        let mut guards: Vec<std::sync::MutexGuard<'_, Shard<'ht>>> = Vec::new();
        // (guard, pos, id, slot) per staged first-occurrence session.
        let mut jobs: Vec<(usize, usize, u64, usize)> = Vec::new();
        // (guard, pos, id) per repeated id, resolved after the fan-out.
        let mut dups: Vec<(usize, usize, u64)> = Vec::new();
        for (shard_idx, members) in by_shard.into_iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let mut shard = match self.lock_shard(shard_idx) {
                Ok(shard) => shard,
                Err(e) => {
                    for (pos, id) in members {
                        results[pos] = Some((id, Err(e.clone())));
                    }
                    continue;
                }
            };
            let guard_pos = guards.len();
            let mut claimed: Vec<u64> = Vec::new();
            for (pos, id) in members {
                if claimed.contains(&id) {
                    // A repeated id decides against whatever state its
                    // first occurrence leaves behind, so it cannot join
                    // the parallel fan-out (two tasks would need the same
                    // slot). Resolved serially below with single-finalize
                    // semantics.
                    dups.push((guard_pos, pos, id));
                    continue;
                }
                match shard.sessions.get_mut(&id) {
                    Some(session) => {
                        session.last_active_ns = now_ns;
                        claimed.push(id);
                        jobs.push((guard_pos, pos, id, session.slot));
                    }
                    None => {
                        results[pos] = Some((id, Err(ServeError::UnknownSession(id))));
                    }
                }
            }
            guards.push(shard);
        }

        // Phase 1b: assemble every staged session in parallel through
        // disjoint slot borrows. Jobs sort by (guard, slot) so each
        // arena's borrow splits cleanly; `par_map` preserves order, so
        // `assembled[i]` belongs to `jobs[i]`.
        jobs.sort_by_key(|&(guard, _, _, slot)| (guard, slot));
        let assembled: Vec<Assembled> = {
            let mut tasks: Vec<Mutex<&mut headtalk::WakeStream<'ht>>> =
                Vec::with_capacity(jobs.len());
            let mut job_iter = jobs.iter().peekable();
            for (guard_pos, shard) in guards.iter_mut().enumerate() {
                let mut slots = Vec::new();
                while let Some(&&(g, _, _, slot)) = job_iter.peek() {
                    if g != guard_pos {
                        break;
                    }
                    slots.push(slot);
                    job_iter.next();
                }
                for stream in shard.arena.disjoint_slots_mut(&slots) {
                    tasks.push(Mutex::new(stream));
                }
            }
            ht_par::par_map(&tasks, |task| {
                let mut stream = task.lock().expect("assemble task lock");
                assemble_session(&mut stream)
            })
        };

        // Phase 1c: apply the results to the shard bookkeeping in job
        // order, then resolve repeated ids serially — a retryable first
        // occurrence leaves the session open, so its repeat re-assembles
        // (hitting the cached directivity flush) exactly as two serial
        // finalize calls would.
        let mut packs: Vec<Pack> = Vec::with_capacity(jobs.len());
        for (&(guard_pos, pos, id, slot), outcome) in jobs.iter().zip(assembled) {
            apply(
                &mut guards[guard_pos],
                outcome,
                pos,
                id,
                slot,
                &mut results,
                &mut packs,
            );
        }
        for (guard_pos, pos, id) in dups {
            let shard = &mut guards[guard_pos];
            let slot = match shard.sessions.get_mut(&id) {
                Some(session) => {
                    session.last_active_ns = now_ns;
                    session.slot
                }
                None => {
                    results[pos] = Some((id, Err(ServeError::UnknownSession(id))));
                    continue;
                }
            };
            let outcome = assemble_session(shard.arena.slot_mut(slot));
            apply(shard, outcome, pos, id, slot, &mut results, &mut packs);
        }
        drop(guards);

        // Phase 2: model inference across sessions, outside every lock.
        let inferred: Vec<(usize, u64, StreamOutcome)> = ht_par::par_map(&packs, |pack| {
            let _span = ht_obs::span("serve.decision");
            let decision = self.ht.infer_assembled(&pack.features, &pack.liveness);
            let verdict = if pack.muted || !decision.accepted() {
                WakeVerdict::SoftMute
            } else {
                WakeVerdict::Allow
            };
            (
                pack.pos,
                pack.id,
                StreamOutcome {
                    verdict,
                    decision: Some(decision),
                    features: pack.features.clone(),
                    early_exit: pack.early_exit,
                    frames: pack.frames,
                    samples_per_channel: pack.samples_per_channel,
                },
            )
        });
        for (pos, id, outcome) in inferred {
            results[pos] = Some((id, Ok(outcome)));
        }
        // Every position was filled in phase 1 or phase 2; if one ever
        // isn't, report it for that id instead of panicking mid-batch.
        results
            .into_iter()
            .zip(ids)
            .map(|(r, &id)| {
                r.unwrap_or((id, Err(ServeError::Internal("batch result missing for id"))))
            })
            .collect()
    }

    /// Evicts every session idle since before `now_ns -
    /// session_idle_timeout_ns`, releasing their slots. Returns the number
    /// evicted. Deterministic: sessions are scanned in shard order, then
    /// id order.
    ///
    /// A shard whose lock was poisoned by a panicked handler is recovered
    /// and swept anyway: the session map and arena only mutate in paired,
    /// non-unwinding steps, so the bookkeeping is structurally sound even
    /// after a panic, and reaping the reaper would leak every slot on that
    /// shard forever.
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
                if let Some(session) = shard.sessions.remove(&id) {
                    shard.arena.release(session.slot);
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
                    live_hwm: shard.arena.live_hwm(),
                    slots_built: shard.arena.built(),
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

    fn push_all(server: &WakeServer<'_>, id: u64, capture: &[Vec<f64>], now_ns: u64) {
        let hop = server.config().stream.hop;
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
        // neighbour's own shard and arena.
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
    fn eager_eviction_keeps_arena_marks_flat() {
        // Satellite regression: before eager eviction, each failed session
        // left its slot pinned, so repeated failures grew the arena until
        // the shard wedged. Now the marks must stay flat.
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
        // Explicit prewarm is idempotent once the target is met.
        for id in 0..4 {
            server.close(id).unwrap();
        }
        assert_eq!(server.prewarm(2).unwrap(), 0);
        assert_eq!(
            server.prewarm(1).unwrap(),
            0,
            "smaller target builds nothing"
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
    fn retryable_finalize_reuses_the_cached_directivity_flush() {
        // An exactly silent capture holds analysis frames, so assembly
        // runs the directivity flush before the zero-variance liveness
        // input rejects it — the retryable path. (Silence is the one
        // capture whose decimated branch is *numerically* constant; a DC
        // level leaves FIR ripple and decides.) Retries without new
        // audio must hit the flush cache and perform zero additional
        // FFTs; new audio must invalidate it.
        let ht = toy_pipeline();
        let server = WakeServer::new(&ht, serve_config(&ht));
        server.open(0, 0).unwrap();
        let dc = vec![vec![0.0; 28_800]; 4];
        push_all(&server, 0, &dc, 1);

        let flush_ffts = |server: &WakeServer<'_>| {
            let shard = server.shards[server.shard_of(0)].lock().unwrap();
            let slot = shard.sessions.get(&0).expect("session open").slot;
            shard.arena.slot(slot).directivity_flush_ffts()
        };

        assert!(matches!(
            server.finalize(0, 2),
            Err(ServeError::Pipeline(_))
        ));
        let after_first = flush_ffts(&server);
        assert_eq!(after_first, 1, "first finalize transforms the tail once");
        for now in 3..6 {
            assert!(matches!(
                server.finalize(0, now),
                Err(ServeError::Pipeline(_))
            ));
        }
        assert_eq!(
            flush_ffts(&server),
            after_first,
            "retries with no new audio must not re-run the flush FFT"
        );
        // The batch path retries through the same cache.
        let results = server.finalize_batch(&[0], 6);
        assert!(matches!(&results[0].1, Err(ServeError::Pipeline(_))));
        assert_eq!(flush_ffts(&server), after_first);
        // New audio moves the epoch: the next attempt transforms again
        // (still retryable — the liveness center-crop stays silent — but
        // the cache was correctly invalidated).
        let more = noise_capture(0x92, 4, 480);
        let views: Vec<&[f64]> = more.iter().map(Vec::as_slice).collect();
        server.push(0, &views, 7).unwrap();
        assert!(matches!(
            server.finalize(0, 8),
            Err(ServeError::Pipeline(_))
        ));
        assert_eq!(
            flush_ffts(&server),
            after_first + 1,
            "new audio must invalidate the cached flush"
        );
        server.close(0).unwrap();
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
        // the same bits whether a session is finalized solo, singly, or
        // batched.
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
            let solo = ht.decide_batch(&captures[id as usize]).unwrap().0;
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
