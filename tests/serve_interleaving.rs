//! The multi-tenant determinism contract, pinned: N sessions pushed
//! through a [`WakeServer`] in arbitrarily interleaved, arbitrarily ragged
//! chunk schedules must each produce an outcome **byte-identical** to
//! running that session's capture alone through the batch path
//! (`HeadTalk::decide_batch`) — whether finalized singly or in a shuffled
//! `finalize_batch` with repeated and unknown ids — at `HT_THREADS=1` and
//! `4`, with failing sessions interleaved in, with slots recycled between
//! sessions. Plus the admission-control invariants: in-flight sessions
//! never exceed capacity, rejected or evicted sessions leave no residual
//! shard state, and a batch finalize keeps serial per-id semantics.
//!
//! Every property here replays from a printed seed via `HT_CHECK_SEED`.

use headtalk::stream::{StreamError, WakeVerdict};
use headtalk::{HeadTalk, StreamOutcome};
use ht_dsp::check::property;
use ht_serve::{
    noise_captures, run_load, toy_pipeline, LoadConfig, RejectReason, ServeConfig, ServeError,
    TokenBucketConfig, WakeServer,
};

/// One shared toy pipeline (training is milliseconds, but every server
/// borrows it).
fn pipeline() -> &'static HeadTalk {
    static PIPELINE: std::sync::OnceLock<HeadTalk> = std::sync::OnceLock::new();
    PIPELINE.get_or_init(toy_pipeline)
}

fn serve_config(ht: &HeadTalk, n_shards: usize, sessions_per_shard: usize) -> ServeConfig {
    ServeConfig {
        n_shards,
        sessions_per_shard,
        bucket: TokenBucketConfig {
            capacity: u64::MAX,
            refill_per_sec: 0,
        },
        ..ServeConfig::for_pipeline(ht.config())
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: feature count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: feature {i}: {x} vs {y}");
    }
}

/// A served outcome must equal the capture's solo `decide_batch` bit for
/// bit: decision, scores, features, verdict and sample count.
fn assert_matches_solo(ht: &HeadTalk, capture: &[Vec<f64>], served: &StreamOutcome, ctx: &str) {
    let (solo_decision, solo_features) = ht.decide_batch(capture).expect("solo batch");
    let decision = served.decision.expect("advisory decision");
    assert_eq!(decision, solo_decision, "{ctx}: decision");
    assert_eq!(
        decision.live_probability.to_bits(),
        solo_decision.live_probability.to_bits(),
        "{ctx}: live probability bits"
    );
    assert_eq!(
        decision.facing_score.to_bits(),
        solo_decision.facing_score.to_bits(),
        "{ctx}: facing score bits"
    );
    assert_bits_eq(&served.features, &solo_features, ctx);
    let expected = if solo_decision.accepted() {
        WakeVerdict::Allow
    } else {
        WakeVerdict::SoftMute
    };
    assert_eq!(served.verdict, expected, "{ctx}: verdict");
    assert_eq!(
        served.samples_per_channel,
        capture[0].len(),
        "{ctx}: samples"
    );
}

/// The headline property: random session counts, random capture lengths,
/// random ragged chunkings, random interleavings — every session's served
/// outcome is byte-identical to its solo batch result, and in-flight
/// counts never exceed capacity while the schedule runs. A random subset
/// of sessions is held back once fully fed and decided in one shuffled
/// `finalize_batch` that also names one of them twice and one id that was
/// never opened: both of those get `UnknownSession`.
#[test]
fn prop_interleaved_sessions_match_solo_batch() {
    let ht = pipeline();
    property("serve_interleaving").cases(6).run(|g| {
        let n_sessions = g.usize_in(2..7);
        let n_shards = g.usize_in(1..4);
        let sessions_per_shard = n_sessions.div_ceil(n_shards);
        let captures = noise_captures(
            n_sessions,
            4,
            g.usize_in(3000..4500),
            g.usize_in(0..500),
            g.u64_in(0..u64::MAX),
        );
        let server = WakeServer::new(ht, serve_config(ht, n_shards, sessions_per_shard));
        let capacity = n_shards * sessions_per_shard;
        // At least one session is deferred, so the batch has an id to
        // repeat.
        let mut deferred: Vec<bool> = (0..n_sessions).map(|_| g.bool()).collect();
        deferred[g.usize_in(0..n_sessions)] = true;

        for id in 0..n_sessions as u64 {
            server.open(id, id).expect("open under capacity");
        }
        // Random interleaving with ragged chunks until every session is
        // fully fed.
        let mut cursors: Vec<(u64, usize)> = (0..n_sessions as u64).map(|id| (id, 0)).collect();
        let mut live = n_sessions;
        while !cursors.is_empty() {
            assert!(
                server.stats().live <= capacity && server.stats().live == live,
                "in-flight sessions must track opens minus closes, bounded by capacity"
            );
            let pick = g.usize_in(0..cursors.len());
            let (id, pos) = cursors[pick];
            let capture = &captures[id as usize];
            let len = capture[0].len();
            let take = g.usize_in(1..1200).min(len - pos);
            let chunk: Vec<&[f64]> = capture.iter().map(|c| &c[pos..pos + take]).collect();
            server.push(id, &chunk, 0).expect("push");
            cursors[pick].1 = pos + take;
            if pos + take == len {
                cursors.swap_remove(pick);
                if !deferred[id as usize] {
                    let served = server.finalize(id, 0).expect("finalize");
                    live -= 1;
                    assert_matches_solo(ht, capture, &served, &format!("session {id}"));
                }
            }
        }

        let held: Vec<u64> = (0..n_sessions as u64)
            .filter(|&id| deferred[id as usize])
            .collect();
        assert_eq!(
            server.stats().live,
            held.len(),
            "deferred sessions stay open"
        );
        let repeated = *g.choose(&held);
        let unknown = n_sessions as u64 + g.u64_in(0..1000);
        let mut batch = held.clone();
        batch.extend([repeated, unknown]);
        for i in (1..batch.len()).rev() {
            batch.swap(i, g.usize_in(0..i + 1));
        }
        let results = server.finalize_batch(&batch, 0);
        assert_eq!(results.len(), batch.len(), "one result per batch entry");
        let mut decided: Vec<u64> = Vec::new();
        for (&asked, (id, result)) in batch.iter().zip(&results) {
            assert_eq!(*id, asked, "batch results come back in input order");
            let ctx = format!("batched session {id}");
            if *id == unknown || decided.contains(id) {
                assert!(
                    matches!(result, Err(ServeError::UnknownSession(u)) if u == id),
                    "{ctx}: an unknown or already decided id is UnknownSession"
                );
            } else {
                let served = result.as_ref().expect("batch finalize");
                assert_matches_solo(ht, &captures[*id as usize], served, &ctx);
                decided.push(*id);
            }
        }
        assert_eq!(decided.len(), held.len(), "every deferred session decided");
        assert_eq!(server.stats().live, 0, "every session closed");
    });
}

/// `close` racing `finalize_batch` over the same ids: every session is
/// fed in full, then one thread finalizes all of them in one batch while
/// another closes a random subset. Each id ends either decided or closed,
/// never both, and the side that loses gets `UnknownSession`; every slot
/// comes back without a new one being built, and every decided outcome
/// equals the capture's solo `decide_batch` bit for bit.
#[test]
fn prop_close_racing_finalize_batch_resolves_each_id_once() {
    let ht = pipeline();
    property("serve_close_race").cases(6).run(|g| {
        let n_sessions = g.usize_in(2..7);
        let n_shards = g.usize_in(1..4);
        let sessions_per_shard = n_sessions.div_ceil(n_shards);
        let captures = noise_captures(
            n_sessions,
            4,
            g.usize_in(3000..4500),
            g.usize_in(0..500),
            g.u64_in(0..u64::MAX),
        );
        let server = WakeServer::new(ht, serve_config(ht, n_shards, sessions_per_shard));
        let ids: Vec<u64> = (0..n_sessions as u64).collect();
        for (&id, capture) in ids.iter().zip(&captures) {
            server.open(id, 0).expect("open under capacity");
            let len = capture[0].len();
            let mut pos = 0;
            while pos < len {
                let take = g.usize_in(1..1200).min(len - pos);
                let chunk: Vec<&[f64]> = capture.iter().map(|c| &c[pos..pos + take]).collect();
                server.push(id, &chunk, 0).expect("push");
                pos += take;
            }
        }
        let built = server.stats().slots_built;
        let mut to_close: Vec<u64> = ids.iter().copied().filter(|_| g.bool()).collect();
        for i in (1..to_close.len()).rev() {
            to_close.swap(i, g.usize_in(0..i + 1));
        }

        // Both sides leave the barrier together, so the closes land while
        // the batch is deciding.
        let start = std::sync::Barrier::new(2);
        let (batch, closes) = std::thread::scope(|s| {
            let closer = s.spawn(|| {
                start.wait();
                to_close
                    .iter()
                    .map(|&id| (id, server.close(id)))
                    .collect::<Vec<_>>()
            });
            start.wait();
            let batch = server.finalize_batch(&ids, 0);
            (batch, closer.join().expect("closer thread"))
        });

        assert_eq!(batch.len(), ids.len(), "one result per batch entry");
        for ((&id, capture), (got, result)) in ids.iter().zip(&captures).zip(&batch) {
            assert_eq!(*got, id, "batch results come back in input order");
            let ctx = format!("session {id}");
            let decided = match result {
                Ok(served) => {
                    assert_matches_solo(ht, capture, served, &ctx);
                    true
                }
                Err(ServeError::UnknownSession(u)) if *u == id => false,
                Err(e) => panic!("{ctx}: unexpected finalize error {e}"),
            };
            let closed = closes.iter().find(|(c, _)| *c == id).map(|(_, r)| match r {
                Ok(()) => true,
                Err(ServeError::UnknownSession(u)) if *u == id => false,
                Err(e) => panic!("{ctx}: unexpected close error {e}"),
            });
            match closed {
                Some(closed) => assert_ne!(decided, closed, "{ctx}: decided and closed"),
                None => assert!(decided, "{ctx}: nobody closed it, so the batch decides it"),
            }
        }
        let stats = server.stats();
        assert_eq!(stats.live, 0, "every session decided or closed");
        assert_eq!(stats.slots_built, built, "no slot built during the race");
        // A close that comes after the batch loses on every id.
        for &id in &ids {
            assert!(
                matches!(server.close(id), Err(ServeError::UnknownSession(u)) if u == id),
                "session {id} closes after it was decided or closed"
            );
        }
    });
}

/// The full seeded load generator replays byte-identically at
/// `HT_THREADS=1` and `4`: same decisions, same rejections, same
/// fingerprint. This is the `(seed, scenario set)` replay contract.
#[test]
fn empty_chunks_change_nothing_in_a_served_session() {
    // Empty pushes at the start, mid-frame (333-sample chunks never align
    // with the 480-sample hop) and at the end: the served outcome is the
    // solo one, bit for bit (`stream_golden` pins the same for a stream).
    let ht = pipeline();
    let capture = noise_captures(1, 4, 4800, 0, 0xE3E7).remove(0);
    let server = WakeServer::new(ht, serve_config(ht, 1, 1));
    let empty: Vec<&[f64]> = vec![&[]; capture.len()];
    let len = capture[0].len();
    server.open(1, 0).expect("open");
    server.push(1, &empty, 0).expect("empty push at the start");
    for start in (0..len).step_by(333) {
        let end = (start + 333).min(len);
        let chunk: Vec<&[f64]> = capture.iter().map(|c| &c[start..end]).collect();
        server.push(1, &chunk, 1).expect("push");
        server.push(1, &empty, 2).expect("empty push mid-frame");
    }
    server.push(1, &empty, 3).expect("empty push at the end");
    let served = server.finalize(1, 4).expect("finalize");
    assert_matches_solo(ht, &capture, &served, "with empty chunks");
}

#[test]
fn load_drive_is_byte_identical_across_thread_counts() {
    let ht = pipeline();
    let captures = noise_captures(4, 4, 4000, 300, 0x1A7E);
    let config = LoadConfig {
        seed: 0x5EED,
        n_sessions: 30,
        ..LoadConfig::default()
    };
    let drive = || {
        let server = WakeServer::new(ht, serve_config(ht, 3, 4));
        run_load(&server, &captures, &config).expect("drive")
    };
    let one = ht_par::Pool::new(1).install(drive);
    let four = ht_par::Pool::new(4).install(drive);
    assert_eq!(one, four, "thread count must not change any bit of the run");
    assert_eq!(one.decided, 30);
    assert_eq!(one.decided, one.accepted + one.soft_muted);
}

/// Admission invariants under random operation sequences: live sessions
/// never exceed `n_shards * sessions_per_shard`, per-shard live counts
/// never exceed the shard's slot capacity, and a rejected open changes
/// nothing observable. The logical clock sometimes steps backwards, and a
/// NaN chunk evicts its session so that the id is free for a fresh open.
#[test]
fn prop_admission_never_overcommits_and_rejections_are_stateless() {
    let ht = pipeline();
    property("serve_admission").cases(12).run(|g| {
        let n_shards = g.usize_in(1..4);
        let sessions_per_shard = g.usize_in(1..4);
        let bucket = TokenBucketConfig {
            capacity: g.u64_in(0..6),
            refill_per_sec: *g.choose(&[0u64, 2, 1_000_000]),
        };
        let server = WakeServer::new(
            ht,
            ServeConfig {
                n_shards,
                sessions_per_shard,
                bucket,
                session_idle_timeout_ns: 1_000,
                ..ServeConfig::for_pipeline(ht.config())
            },
        );
        let capacity = n_shards * sessions_per_shard;
        let chunk_data = vec![vec![0.01f64; 480]; 4];
        let mut now = 0u64;
        let mut open_ids: Vec<u64> = Vec::new();
        let empty: Vec<&[f64]> = chunk_data.iter().map(|c| &c[0..0]).collect();
        for _ in 0..g.usize_in(1..60) {
            // A caller's clock may step backwards; the server must cope.
            now = if g.usize_in(0..4) == 0 {
                now.saturating_sub(g.u64_in(0..2_000_000_000))
            } else {
                now + g.u64_in(0..2_000_000_000)
            };
            match g.usize_in(0..12) {
                // Mostly opens: pressure on admission.
                0..=5 => {
                    let id = g.u64_in(0..12);
                    let before = server.stats();
                    match server.open(id, now) {
                        Ok(()) => open_ids.push(id),
                        Err(ServeError::DuplicateSession(_)) => {
                            assert!(open_ids.contains(&id), "duplicate implies open");
                            assert_eq!(server.stats(), before, "duplicate changed state");
                        }
                        Err(ServeError::Rejected(reason)) => {
                            assert_eq!(
                                server.stats(),
                                before,
                                "rejected open must leave no residual state"
                            );
                            if let RejectReason::ShardFull { shard, capacity } = reason {
                                assert_eq!(
                                    before.shards[shard].live, capacity,
                                    "ShardFull only when the shard is full"
                                );
                            }
                        }
                        Err(e) => panic!("unexpected open error {e}"),
                    }
                }
                6..=7 => {
                    if let Some(&id) = open_ids.last() {
                        let chunk: Vec<&[f64]> = chunk_data.iter().map(Vec::as_slice).collect();
                        server.push(id, &chunk, now).expect("valid push");
                    }
                }
                8 => {
                    if let Some(id) = open_ids.pop() {
                        match server.finalize(id, now) {
                            Ok(_) => {}
                            Err(ServeError::Pipeline(_)) => {
                                // Undecidable (too-short) captures are
                                // retryable: the session stays open,
                                // marked active at `now`.
                                open_ids.push(id);
                            }
                            Err(e) => panic!("unexpected finalize error {e}"),
                        }
                    }
                }
                // A batch finalize over a random multiset of ids keeps
                // serial per-id semantics: each entry sees the state its
                // predecessors in the batch left behind.
                9 => {
                    let ids: Vec<u64> = (0..g.usize_in(0..8)).map(|_| g.u64_in(0..12)).collect();
                    let results = server.finalize_batch(&ids, now);
                    assert_eq!(results.len(), ids.len(), "one result per entry");
                    for (&asked, (id, result)) in ids.iter().zip(&results) {
                        assert_eq!(*id, asked, "batch results come back in input order");
                        let was_open = open_ids.contains(id);
                        match result {
                            Ok(_) => {
                                assert!(was_open, "only an open session decides");
                                open_ids.retain(|&open| open != *id);
                            }
                            Err(ServeError::Pipeline(_)) => {
                                assert!(was_open, "only an open session retries");
                            }
                            Err(ServeError::UnknownSession(u)) => {
                                assert_eq!(u, id, "UnknownSession names its own id");
                                assert!(!was_open, "UnknownSession for an open session");
                            }
                            Err(e) => panic!("unexpected batch finalize error {e}"),
                        }
                    }
                    // Decided ids left the server, retryable ones stayed
                    // open (an empty push is a no-op probe).
                    for &id in &ids {
                        assert_eq!(
                            server.push(id, &empty, now).is_ok(),
                            open_ids.contains(&id),
                            "session {id} open state after the batch"
                        );
                    }
                }
                // A NaN chunk evicts the session: typed error, slot
                // freed, id gone from the server.
                10 => {
                    if !open_ids.is_empty() {
                        let id = open_ids.remove(g.usize_in(0..open_ids.len()));
                        let mut bad = chunk_data.clone();
                        bad[1][7] = f64::NAN;
                        let refs: Vec<&[f64]> = bad.iter().map(Vec::as_slice).collect();
                        match server.push(id, &refs, now) {
                            Err(ServeError::Evicted {
                                id: evicted,
                                cause:
                                    StreamError::NonFinite {
                                        channel: 1,
                                        index: 7,
                                    },
                            }) => assert_eq!(evicted, id, "Evicted names its own id"),
                            other => panic!("NaN push into session {id}: {other:?}"),
                        }
                        assert!(
                            matches!(
                                server.push(id, &empty, now),
                                Err(ServeError::UnknownSession(u)) if u == id
                            ),
                            "evicted session {id} is still open"
                        );
                    }
                }
                _ => {
                    server.evict_idle(now);
                    // Resync the model: probe each id with an empty chunk
                    // (a no-op push) — unknown means it was evicted.
                    open_ids.retain(|&id| server.push(id, &empty, now).is_ok());
                }
            }
            let stats = server.stats();
            assert!(
                stats.live <= capacity,
                "live {} exceeds capacity {capacity}",
                stats.live
            );
            for (i, shard) in stats.shards.iter().enumerate() {
                assert!(
                    shard.live <= sessions_per_shard,
                    "shard {i} live {} exceeds {sessions_per_shard}",
                    shard.live
                );
                assert!(
                    shard.slots_built <= sessions_per_shard,
                    "shard {i} built {} slots, cap {sessions_per_shard}",
                    shard.slots_built
                );
            }
            assert_eq!(stats.live, open_ids.len(), "live tracks the model");
        }
    });
}

/// Failing sessions interleaved among healthy ones: geometry violations
/// evict eagerly, the shard's marks stay flat (no slot pinned behind a
/// dead session, no slot rebuilt), and — the part that matters — the
/// healthy sessions' outcomes remain byte-identical to solo batch.
#[test]
fn prop_failing_sessions_do_not_perturb_healthy_neighbours() {
    let ht = pipeline();
    property("serve_failure_isolation").cases(4).run(|g| {
        let captures = noise_captures(3, 4, 3200, 200, g.u64_in(0..u64::MAX));
        // One shard so healthy and failing sessions share its slots.
        let server = WakeServer::new(ht, serve_config(ht, 1, 2));
        let bad_chunk = [vec![0.0f64; 64], vec![0.0f64; 64]];

        for (round, capture) in captures.iter().enumerate() {
            let healthy = 2 * round as u64;
            let failing = healthy + 1;
            server.open(healthy, 0).expect("open healthy");
            server.open(failing, 0).expect("open failing");

            let len = capture[0].len();
            let mut pos = 0;
            let mut poisoned = false;
            while pos < len {
                let take = g.usize_in(1..900).min(len - pos);
                let chunk: Vec<&[f64]> = capture.iter().map(|c| &c[pos..pos + take]).collect();
                server.push(healthy, &chunk, 0).expect("healthy push");
                pos += take;
                // Interleave the failing session's doomed push mid-stream.
                if !poisoned && g.bool() {
                    let bad: Vec<&[f64]> = bad_chunk.iter().map(Vec::as_slice).collect();
                    assert!(matches!(
                        server.push(failing, &bad, 0),
                        Err(ServeError::Evicted { id, .. }) if id == failing
                    ));
                    poisoned = true;
                }
            }
            if !poisoned {
                let bad: Vec<&[f64]> = bad_chunk.iter().map(Vec::as_slice).collect();
                assert!(matches!(
                    server.push(failing, &bad, 0),
                    Err(ServeError::Evicted { .. })
                ));
            }

            let served = server.finalize(healthy, 0).expect("finalize healthy");
            let (solo_decision, solo_features) = ht.decide_batch(capture).expect("solo");
            assert_eq!(
                served.decision.expect("decision"),
                solo_decision,
                "round {round}: healthy decision"
            );
            assert_bits_eq(
                &served.features,
                &solo_features,
                &format!("round {round}: healthy features"),
            );

            let shard = server.stats().shards[0];
            assert_eq!(shard.live, 0, "round {round}: nothing pinned");
            assert!(
                shard.slots_built <= 2,
                "round {round}: slots grew past the concurrent pair"
            );
            assert_eq!(shard.live_hwm, 2, "round {round}: hwm flat at the pair");
        }
    });
}
