#!/usr/bin/env sh
# The offline CI gate — exactly what .github/workflows/ci.yml runs.
#
# The workspace is hermetic (zero external crates), so every step runs with
# --offline and must pass with no registry reachable. Run from the repo root:
#
#   ./ci.sh
#
# Each step is timed; the run fails fast on the first broken step (naming
# it) and always ends with a per-step summary table.
set -u

SUMMARY=$(mktemp)
trap 'rm -f "$SUMMARY"' EXIT

print_summary() {
    echo ""
    echo "== step summary =="
    cat "$SUMMARY"
}

# step <name> <command...> — run, time, and record one CI step; on failure
# print the failing step's name and the summary so far, then exit.
step() {
    STEP_NAME=$1
    shift
    echo "==> $STEP_NAME"
    STEP_START=$(date +%s)
    "$@"
    STEP_RC=$?
    STEP_ELAPSED=$(( $(date +%s) - STEP_START ))
    if [ "$STEP_RC" -ne 0 ]; then
        printf '%-42s %5ss  FAIL\n' "$STEP_NAME" "$STEP_ELAPSED" >> "$SUMMARY"
        echo ""
        echo "CI FAILED at step: $STEP_NAME (exit $STEP_RC after ${STEP_ELAPSED}s)"
        print_summary
        exit "$STEP_RC"
    fi
    printf '%-42s %5ss  ok\n' "$STEP_NAME" "$STEP_ELAPSED" >> "$SUMMARY"
}

step "cargo fmt --check" cargo fmt --check

step "cargo clippy (all targets, -D warnings)" \
    cargo clippy --offline --all-targets -- -D warnings

# Rustdoc gate: a broken intra-doc link, or one to a private item (say,
# an item a change deleted or hid), fails here instead of rendering as
# plain text in the published docs.
step "cargo doc (-D warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

step "cargo build --release" cargo build --release --offline

# The end-to-end benchmark is a workspace of its own that calls the
# crates' public API by path; building it here makes a deleted or renamed
# call it depends on fail CI instead of the next benchmark run.
step "cargo build --release (perfbench)" \
    cargo build --release --offline --manifest-path perfbench/Cargo.toml

# The benchmark's self-test runs every workload on rendered captures and
# checks that served bits equal solo bits and that the mix holds accepts,
# orientation rejects and liveness rejects — the contract a change that
# moves output bits puts at risk. Renders are cached under
# target/perfbench-renders, so only the first run pays for them.
step "cargo test --release (perfbench self-test)" \
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

step "cargo test" cargo test -q --offline --release

# Overflow-checked tests: release builds turn integer overflow checks off,
# so an underflow in width or index arithmetic would wrap silently in
# every step above. The library tests of the DSP, streaming and pipeline
# crates run here in the debug profile, where it panics instead.
step "cargo test (debug, overflow checks)" \
    cargo test -q --offline --lib -p headtalk -p ht-stream -p ht-dsp

# The ht-par determinism contract says thread count must never change any
# result, so the whole suite must stay green at both extremes of the
# HT_THREADS override (1 = serial global pool, 4 = oversubscribed on small
# runners).
step "cargo test (HT_THREADS=1)" \
    env HT_THREADS=1 cargo test -q --offline --release

step "cargo test (HT_THREADS=4)" \
    env HT_THREADS=4 cargo test -q --offline --release

# Observability must be read-only: recording spans/counters through every
# instrumented layer may cost time but can never change a computed result
# (the golden-determinism test additionally proves report-byte identity).
step "cargo test (HT_OBS=json)" \
    env HT_OBS=json cargo test -q --offline --release

# Disabled-path overhead gate: spans compiled into the hot layers must cost
# an atomic load + branch when HT_OBS is off. The obs bench binary asserts
# a 50 ns median bound on the disabled span/counter paths (the measured
# cost is ~2 ns; the bound's headroom absorbs CI-runner noise) and fails
# the run on violation. It also times the decision route's evidence
# accumulation (headtalk::evidence::Evidence: push hop by hop, assemble)
# with HT_OBS off and on, as a recorded number rather than a gate.
# BENCH_obs.json lands in target/bench_out.
step "obs overhead gate (bench obs)" \
    env HT_BENCH_FAST=1 HT_BENCH_DIR="$PWD/target/bench_out" \
    cargo bench -q --offline -p ht-bench --bench obs

# FFT plan-cache gate: the fft_plans bench ends with a steady-state workload
# run under HT_OBS recording and asserts, via the fft.plan_hits /
# fft.plan_misses counters, that misses stay bounded by the number of
# distinct transform sizes and that the warmed steady state adds zero
# misses. A regression that rebuilds plans per call fails here.
# BENCH_fft.json lands in target/bench_out.
step "fft plan-cache gate (bench fft_plans)" \
    env HT_BENCH_FAST=1 HT_BENCH_DIR="$PWD/target/bench_out" \
    cargo bench -q --offline -p ht-bench --bench fft_plans

# Streaming latency gate: the stream_latency bench drives the frame-by-frame
# wake pipeline over rendered scenarios with observability on and asserts
# (a) the stream.frame p95 stays inside half the 10 ms hop deadline and
# (b) the steady-state push loop makes zero heap allocations, counted by a
# wrapping global allocator. BENCH_stream.json lands in target/bench_out.
step "stream latency gate (bench stream_latency)" \
    env HT_BENCH_FAST=1 HT_BENCH_DIR="$PWD/target/bench_out" \
    cargo bench -q --offline -p ht-bench --bench stream_latency

# Server throughput gate: the server_throughput bench replays a seeded
# multi-tenant load drive (thousands of interleaved sessions) through the
# sharded WakeServer (slots prewarmed, int8 decision backends calibrated)
# and asserts (a) sustained end-to-end wake decisions/sec stays above the
# floor, (b) the incremental decision path (serve.decision: one session's
# whole finalize, assembly and inference included) sustains 1200/s at the
# median — above anything the old full-segment directivity flush could
# reach, (c) the median stream.assemble (WakeStream evidence assembly)
# stays under 300 µs, and (d) the serve.decision and serve.push p99 tails
# stay under their ceilings. BENCH_server.json lands in target/bench_out.
step "server throughput gate (bench server_throughput)" \
    env HT_BENCH_FAST=1 HT_BENCH_DIR="$PWD/target/bench_out" \
    cargo bench -q --offline -p ht-bench --bench server_throughput

# Quantized decision-path gate: the kernel_quant bench times the decision
# path's per-channel PHAT whitening against six per-pair reference calls
# on one 4-mic frame, and the f64 vs int8 liveness / orientation inference
# backends. It asserts a 1.6x floor on the per-channel kernel, a 2x floor
# on int8 liveness inference, an accuracy delta within 0.5 pp of the f64
# reference, byte-stability of the reference models (building the int8
# backends must not move a bit), and — on AVX2 machines — exact i32
# agreement between the std::arch i8 kernels and the scalar reference on
# every tested shape (non-AVX2 runners log a notice and skip).
# BENCH_quant.json lands in target/bench_out.
step "quantized kernel gate (bench kernel_quant)" \
    env HT_BENCH_FAST=1 HT_BENCH_DIR="$PWD/target/bench_out" \
    cargo bench -q --offline -p ht-bench --bench kernel_quant

# Serving soak: 10k sessions through the load generator with a counting
# global allocator — the steady-state push path AND the incremental
# evidence assembly must make zero heap allocations, and the session
# arenas must never grow past warmup.
step "serve soak (10k sessions, zero steady-state allocs)" \
    cargo test -q --offline --release -p ht-serve --test serve_soak -- --ignored

print_summary
echo ""
echo "CI green"
