//! Soak: ten thousand sessions through the serving layer with a counting
//! global allocator, asserting the steady-state contract that makes
//! multi-tenant serving viable on device-class hardware:
//!
//! * after a short warmup, the **push path makes zero heap allocations**
//!   per session — every ring, STFT scratch, GCC spectral accumulator,
//!   directivity segment, and liveness framing buffer is recycled from
//!   the shards' session slots;
//! * **evidence assembly is alloc-free too**: `WakeStream::assemble`
//!   folds the accumulators into the presized feature scratch without
//!   touching the heap, so a finalize's only allocations are the outcome
//!   clone and the model's inference scratch (deliberately outside the
//!   counted window);
//! * the shards never build slots past warmup — ten thousand sessions are served
//!   by the same handful of slots (`slots_built` flat).
//!
//! `#[ignore]`d in the default suite (it is a soak, not a unit test); the
//! CI soak leg runs it with `-- --ignored`. `HT_SOAK_SESSIONS` overrides
//! the session count for local iteration.
//!
//! The test drives the server serially from this thread: the allocation
//! counter is thread-local, and what's under test is the serving layer's
//! buffer reuse, not the pool (`tests/serve_interleaving.rs` covers the
//! parallel schedule).

use ht_dsp::check::{allocs_during, CountingAlloc};
use ht_serve::{noise_captures, toy_pipeline, ServeConfig, TokenBucketConfig, WakeServer};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
#[ignore = "soak: minutes of work; the CI soak leg runs it with -- --ignored"]
fn soak_sessions_make_zero_steady_state_push_allocations() {
    let n_sessions: u64 = std::env::var("HT_SOAK_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let warmup: u64 = 64;
    assert!(n_sessions > warmup, "soak needs more sessions than warmup");

    let ht = toy_pipeline();
    let server = WakeServer::new(
        &ht,
        ServeConfig {
            n_shards: 4,
            sessions_per_shard: 4,
            bucket: TokenBucketConfig {
                capacity: u64::MAX,
                refill_per_sec: 0,
            },
            ..ServeConfig::for_pipeline(ht.config())
        },
    );
    // Equal-length captures: buffers stabilize after the first use of each
    // slot, which is exactly the steady state a fleet frontend reaches.
    let captures = noise_captures(8, 4, 4800, 0, 0x50AC);
    let hop = headtalk::StreamConfig::for_pipeline(ht.config()).hop;

    let mut chunk: Vec<&[f64]> = Vec::with_capacity(4);
    let mut steady_alloc_sessions = 0u64;
    let mut worst = (0u64, 0u64); // (session, allocs)
    let mut slots_after_warmup = 0;

    for id in 0..n_sessions {
        let capture = &captures[(id % captures.len() as u64) as usize];
        let len = capture[0].len();
        server.open(id, id).expect("open");

        let mut push_loop = || {
            let mut pos = 0;
            while pos < len {
                let end = (pos + hop).min(len);
                chunk.clear();
                chunk.extend(capture.iter().map(|c| &c[pos..end]));
                server.push(id, &chunk, id).expect("push");
                pos = end;
            }
        };
        if id < warmup {
            push_loop();
        } else {
            let allocs = allocs_during(push_loop);
            if allocs > 0 {
                steady_alloc_sessions += 1;
                if allocs > worst.1 {
                    worst = (id, allocs);
                }
            }
        }
        // Finalization sits outside the counted window on purpose: the
        // outcome clones the assembled features and the model's inference
        // scratch allocates. The assembly itself is alloc-free — pinned
        // separately by `assemble_is_alloc_free_after_warmup`.
        let outcome = server.finalize(id, id).expect("finalize");
        assert!(outcome.decision.is_some(), "session {id} decided");

        if id + 1 == warmup {
            slots_after_warmup = server.stats().slots_built;
            assert!(slots_after_warmup >= 1);
        }
    }

    let stats = server.stats();
    assert_eq!(stats.live, 0, "all sessions closed");
    assert_eq!(
        stats.slots_built, slots_after_warmup,
        "slots built after warmup: slots must be recycled, not rebuilt"
    );
    assert_eq!(
        steady_alloc_sessions,
        0,
        "{steady_alloc_sessions} of {} steady-state sessions allocated on the push path \
         (worst: session {} with {} allocations)",
        n_sessions - warmup,
        worst.0,
        worst.1,
    );
}

/// The incremental-finalize half of the steady-state contract: once a
/// slot's scratch is warm, folding the accumulators into the feature
/// vector (`WakeStream::assemble`) makes **zero** heap allocations — the
/// O(features) assembly the serving decision path rides never touches
/// the allocator, capture after capture, across `reset` recycling.
#[test]
#[ignore = "soak companion: the CI soak leg runs it with -- --ignored"]
fn assemble_is_alloc_free_after_warmup() {
    let ht = toy_pipeline();
    let hop = headtalk::stream::StreamConfig::for_pipeline(ht.config()).hop;
    let captures = noise_captures(4, 4, 4800, 0, 0xA55E);
    let mut stream = ht.streamer(4).expect("streamer");

    let push_all = |stream: &mut headtalk::WakeStream<'_>, capture: &Vec<Vec<f64>>| {
        let len = capture[0].len();
        let mut pos = 0;
        while pos < len {
            let end = (pos + hop).min(len);
            let chunk: Vec<&[f64]> = capture.iter().map(|c| &c[pos..end]).collect();
            stream.push(&chunk).expect("push");
            pos = end;
        }
    };

    // Warmup: the first assembly sizes the feature scratch.
    for capture in &captures {
        push_all(&mut stream, capture);
        stream.assemble().expect("assemble");
        stream.reset();
    }

    // Steady state: every subsequent assembly is alloc-free.
    for (round, capture) in captures.iter().cycle().take(64).enumerate() {
        push_all(&mut stream, capture);
        let allocs = allocs_during(|| {
            stream.assemble().expect("assemble");
        });
        assert_eq!(
            allocs, 0,
            "round {round}: assemble allocated {allocs} times"
        );
        stream.reset();
    }
}
