//! # ht-serve — the multi-tenant wake-word server
//!
//! Serving infrastructure over the `headtalk` pipeline: many device
//! sessions multiplexed onto one trained model set, with deterministic
//! scheduling so every load test and incident is replayable from a seed.
//!
//! The layer stack:
//!
//! * [`TokenBucket`] / [`RejectReason`] (`admission`) — logical-clock
//!   rate limiting with typed backpressure; no wall clock anywhere.
//! * [`ShardArena`] (`arena`) — per-shard pools of reusable
//!   [`WakeStream`](headtalk::WakeStream) slots; steady-state serving is
//!   allocation-free because slots are reset in place, never rebuilt.
//! * [`WakeServer`] (`server`) — session-sharded front end: open /
//!   push / finalize with eager eviction on mid-stream geometry
//!   violations and idle timeouts. Single and batch finalize share one
//!   per-session routine that runs `WakeStream::outcome` under the
//!   session's shard lock.
//! * [`run_load`] (`schedule`) — the seeded load generator: waves of
//!   sessions, serial admission, shard-parallel ragged-chunk
//!   interleavings, all byte-identical for a `(seed, scenario set)` pair
//!   at any `HT_THREADS` (the interleaving property suite pins this
//!   against solo batch
//!   [`decide_batch`](headtalk::HeadTalk::decide_batch) results).
//!
//! The `ht_loadgen` binary drives [`run_load`] from the command line; the
//! `server_throughput` bench gates sustained decisions/sec and tail
//! latency in CI via `BENCH_server.json`.

mod admission;
mod arena;
mod schedule;
mod server;

pub use admission::{RejectReason, TokenBucket, TokenBucketConfig};
pub use arena::ShardArena;
pub use schedule::{noise_captures, run_load, toy_pipeline, LoadConfig, LoadReport};
pub use server::{ServeConfig, ServeError, ServeStats, ShardStats, WakeServer};
