//! Per-layer attribution for the traced run: replays a fixed sample of the
//! workload's captures through each layer's public functions, timing every
//! call from here, so no span inside the program is needed.

use std::time::{Duration, Instant};

use headtalk::{HeadTalk, StreamConfig};
use ht_dsp::complex::Complex;
use ht_dsp::correlate::{gcc_phat_from_spectra_into_mode, SpectraGccScratch};
use ht_dsp::rng::{derive_seed, SeedableRng, StdRng};
use ht_dsp::stft::StftProcessor;
use ht_dsp::window::Window;
use ht_serve::WakeServer;
use ht_stream::{DirectivityAccum, FrameAnalyzer, FrameRing};

use crate::drive::{chunks, ragged_chunks, CLOSED_CHUNK, OPEN_CHUNK};
use crate::inputs::Capture;
use crate::setup::{self, Models};
use crate::sys::{max, mean, median, quantile, secs};

/// Replays of the sample per traced run (more samples per median).
const PASSES: usize = 3;

/// How the replays cut captures into pushes: like the workload does.
#[derive(Debug, Clone, Copy)]
pub enum Chunking {
    /// Seeded 120–960-sample chunks (`serve-closed`).
    Ragged,
    /// Hop-aligned 480-sample chunks (`serve-open`, `batch-corpus`).
    Aligned,
}

/// Every per-layer timing the replays produce. Times are in the unit their
/// name says.
#[derive(Debug, Default)]
pub struct Layers {
    pub serve_push_us_p50: f64,
    /// Median serve push minus median solo `WakeStream` push over the same
    /// chunks, pushed in alternating order: shard lock, session map and
    /// arena.
    pub serve_push_overhead_us: f64,
    pub serve_finalize_ms_p50: f64,
    pub serve_finalize_batch_ms_per_session: f64,
    pub serve_build_s: f64,
    pub serve_slots_built: f64,
    pub headtalk_push_us_p50: f64,
    pub headtalk_assemble_ms_p50: f64,
    pub headtalk_infer_us_p50: f64,
    pub headtalk_decide_batch_ms_p50: f64,
    pub headtalk_extract_ms_p50: f64,
    pub headtalk_liveness_input_ms_p50: f64,
    pub stream_analyze_us_p50: f64,
    pub stream_ring_us_per_chunk: f64,
    pub stream_directivity_push_us_per_chunk: f64,
    pub stream_directivity_flush_ms: f64,
    pub dsp_stft_us_per_frame: f64,
    pub dsp_gcc_us_per_frame: f64,
    pub ml_liveness_us_p50: f64,
    pub ml_orientation_us_p50: f64,
    /// Serving layer sum per decision: solo `WakeStream` pushes + assemble
    /// + inference, in ms.
    pub serve_layer_sum_ms: f64,
    /// Batch layer sum per decision: extraction + liveness input +
    /// inference, in ms.
    pub batch_layer_sum_ms: f64,
}

impl Chunking {
    fn split<'c>(self, capture: &'c Capture, rng: &mut StdRng) -> Vec<Vec<&'c [f64]>> {
        match self {
            Chunking::Ragged => ragged_chunks(capture, CLOSED_CHUNK, rng),
            Chunking::Aligned => chunks(capture, OPEN_CHUNK),
        }
    }
}

fn us(t: Instant) -> f64 {
    secs(t) * 1e6
}

fn ms(t: Instant) -> f64 {
    secs(t) * 1e3
}

/// Runs every replay over `sample` and returns the layer timings.
pub fn replay(
    ht: &HeadTalk,
    models: &Models,
    sample: &[&Capture],
    chunking: Chunking,
    seed: u64,
) -> Layers {
    // One chunk sequence per (pass, capture), shared by every replay so
    // the serve and headtalk push times cover exactly the same chunks.
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 4));
    let passes: Vec<Vec<Vec<Vec<&[f64]>>>> = (0..PASSES)
        .map(|_| sample.iter().map(|c| chunking.split(c, &mut rng)).collect())
        .collect();
    let mut out = Layers::default();

    // headtalk + ht-serve + ml: each chunk goes through a solo WakeStream
    // and then a served session, back to back, so the two push times of a
    // chunk see the same machine state; then the solo stream's evidence
    // goes through each model and the session is finalized.
    let t = Instant::now();
    let server = WakeServer::new(ht, setup::serve_config(ht));
    out.serve_build_s = secs(t);
    out.serve_slots_built = server.stats().slots_built as f64;
    let (mut push, mut spush, mut fin) = (Vec::new(), Vec::new(), Vec::new());
    let (mut assemble, mut infer, mut liv, mut ori) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut push_per_decision = Vec::new();
    let mut id = 0u64;
    for pass in &passes {
        for (c, split) in sample.iter().zip(pass) {
            let mut stream = ht.streamer(c.len()).expect("replay stream");
            server.open(id, 0).expect("replay open");
            let mut total = 0.0;
            for (k, chunk) in split.iter().enumerate() {
                // Whichever push goes second finds the chunk in cache, so
                // the two take turns going first.
                let solo_first = k % 2 == 0;
                let mut serve_push = || {
                    let t = Instant::now();
                    server.push(id, chunk, 0).expect("replay serve push");
                    spush.push(us(t));
                };
                if !solo_first {
                    serve_push();
                }
                let t = Instant::now();
                stream.push(chunk).expect("replay push");
                let dt = us(t);
                total += dt;
                push.push(dt);
                if solo_first {
                    serve_push();
                }
            }
            push_per_decision.push(total / 1e3);
            let t = Instant::now();
            server.finalize(id, 0).expect("replay finalize");
            fin.push(ms(t));
            id += 1;
            let t = Instant::now();
            let ev = stream.assemble().expect("replay assemble");
            assemble.push(ms(t));
            let (f, l) = (ev.features.to_vec(), ev.liveness_input.to_vec());
            let t = Instant::now();
            std::hint::black_box(ht.infer_assembled(&f, &l));
            infer.push(us(t));
            let t = Instant::now();
            std::hint::black_box(models.liveness.live_probability_mode(&l, ht.quant_mode()));
            liv.push(us(t));
            let t = Instant::now();
            std::hint::black_box(
                models
                    .orientation
                    .score_and_facing_mode(&f, ht.quant_mode()),
            );
            ori.push(us(t));
        }
    }
    out.headtalk_push_us_p50 = median(&push);
    out.headtalk_assemble_ms_p50 = median(&assemble);
    out.headtalk_infer_us_p50 = median(&infer);
    out.ml_liveness_us_p50 = median(&liv);
    out.ml_orientation_us_p50 = median(&ori);
    out.serve_layer_sum_ms = mean(&push_per_decision) + mean(&assemble) + mean(&infer) / 1e3;

    // ht-serve: one finalize_batch per pass over the whole sample.
    let mut fin_batch = Vec::new();
    for pass in &passes {
        let ids: Vec<u64> = (id..id + sample.len() as u64).collect();
        for (&sid, split) in ids.iter().zip(pass) {
            server.open(sid, 0).expect("replay open");
            for chunk in split {
                server.push(sid, chunk, 0).expect("replay serve push");
            }
        }
        let t = Instant::now();
        let results = server.finalize_batch(&ids, 0);
        fin_batch.push(ms(t) / ids.len() as f64);
        assert!(
            results.iter().all(|(_, r)| r.is_ok()),
            "replay finalize_batch decides"
        );
        id += ids.len() as u64;
    }
    out.serve_push_us_p50 = median(&spush);
    out.serve_push_overhead_us = out.serve_push_us_p50 - out.headtalk_push_us_p50;
    out.serve_finalize_ms_p50 = median(&fin);
    out.serve_finalize_batch_ms_per_session = median(&fin_batch);

    // ht-stream and ht-dsp: the substrate WakeStream composes, driven
    // directly on the same chunks, then the analyzer's DSP calls replayed
    // on the frames the ring produced.
    let config = *ht.config();
    let sc = StreamConfig::for_pipeline(&config);
    let (mut ring_us, mut dir_us, mut flush, mut analyze) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut stft_us, mut gcc_us) = (Vec::new(), Vec::new());
    for (c, split) in sample.iter().zip(&passes[0]) {
        let n = c.len();
        let mut ring = FrameRing::with_capacity(n, sc.frame_len, sc.hop, sc.frame_len + 2 * sc.hop)
            .expect("replay ring");
        let mut dir =
            DirectivityAccum::new(n, config.directivity_segment_len(), config.sample_rate)
                .expect("replay directivity");
        let mut frames: Vec<Vec<Vec<f64>>> = Vec::new();
        let mut frame = vec![vec![0.0; sc.frame_len]; n];
        for chunk in split {
            let t = Instant::now();
            ring.push(chunk).expect("replay ring push");
            let mut dt = us(t);
            loop {
                let t = Instant::now();
                let popped = ring.pop_frame_into(&mut frame);
                dt += us(t);
                if !popped {
                    break;
                }
                frames.push(frame.clone());
            }
            ring_us.push(dt);
            let t = Instant::now();
            dir.push(chunk).expect("replay directivity push");
            dir_us.push(us(t));
        }
        let t = Instant::now();
        std::hint::black_box(dir.flush_spectrum());
        flush.push(ms(t));

        let mut analyzer = FrameAnalyzer::new(n, sc.frame_len, config.max_lag, config.sample_rate)
            .expect("replay analyzer");
        analyzer.set_quant_mode(ht.quant_mode());
        for f in &frames {
            let t = Instant::now();
            std::hint::black_box(analyzer.analyze(f).expect("replay analyze"));
            analyze.push(us(t));
        }

        let n_fft = analyzer.n_fft();
        let lag = analyzer.max_lag();
        let mut stft = StftProcessor::with_n_fft(sc.frame_len, n_fft, Window::Hann);
        let plan = ht_dsp::fft::rfft_plan(n_fft);
        let mut spectra = vec![vec![Complex::ZERO; plan.onesided_len()]; n];
        let mut scratch = SpectraGccScratch::new();
        let mut window = vec![0.0; 2 * lag + 1];
        for f in &frames {
            let t = Instant::now();
            for (spec, ch) in spectra.iter_mut().zip(f) {
                stft.process_into(ch, spec);
            }
            stft_us.push(us(t));
            let t = Instant::now();
            for (i, j) in analyzer.pairs().iter().copied() {
                gcc_phat_from_spectra_into_mode(
                    &spectra[i],
                    &spectra[j],
                    &plan,
                    lag,
                    &mut scratch,
                    &mut window,
                    ht.quant_mode(),
                );
            }
            std::hint::black_box(&window);
            gcc_us.push(us(t));
        }
    }
    out.stream_ring_us_per_chunk = mean(&ring_us);
    out.stream_directivity_push_us_per_chunk = mean(&dir_us);
    out.stream_directivity_flush_ms = median(&flush);
    out.stream_analyze_us_p50 = median(&analyze);
    out.dsp_stft_us_per_frame = median(&stft_us);
    out.dsp_gcc_us_per_frame = median(&gcc_us);

    // headtalk's whole-capture entry points.
    let (mut decide, mut extract, mut prep) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PASSES {
        for c in sample {
            let t = Instant::now();
            std::hint::black_box(ht.decide_batch(c).expect("replay decide_batch"));
            decide.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(HeadTalk::orientation_features(&config, c).expect("features"));
            extract.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(HeadTalk::liveness_input(&config, c).expect("liveness input"));
            prep.push(ms(t));
        }
    }
    out.headtalk_decide_batch_ms_p50 = median(&decide);
    out.headtalk_extract_ms_p50 = median(&extract);
    out.headtalk_liveness_input_ms_p50 = median(&prep);
    out.batch_layer_sum_ms = mean(&extract) + mean(&prep) + mean(&infer) / 1e3;
    out
}

/// Generator diagnostics: how late a paced pusher starts its chunks, and
/// due-to-done latency per chunk, in ms.
#[derive(Debug, Default)]
pub struct Pacing {
    pub late_ms: Vec<f64>,
    pub chunk_ms: Vec<f64>,
}

impl Pacing {
    /// `(p50, p99, max)` lateness.
    pub fn late(&self) -> (f64, f64, f64) {
        (
            median(&self.late_ms),
            quantile(&self.late_ms, 0.99),
            max(&self.late_ms),
        )
    }
}

/// Pushes `capture` through a solo `WakeStream` in hop-aligned chunks
/// paced on the wall clock, the way the open loop's generator does, for
/// the workloads that have no generator of their own.
pub fn paced(ht: &HeadTalk, capture: &Capture) -> Pacing {
    let sample_ns = 1e9 / ht.config().sample_rate;
    let mut stream = ht.streamer(capture.len()).expect("paced stream");
    let mut p = Pacing::default();
    let start = Instant::now();
    let mut end = 0;
    for chunk in chunks(capture, OPEN_CHUNK) {
        end += chunk[0].len();
        let due = Duration::from_nanos((end as f64 * sample_ns) as u64);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        p.late_ms
            .push(start.elapsed().saturating_sub(due).as_secs_f64() * 1e3);
        stream.push(&chunk).expect("paced push");
        p.chunk_ms
            .push(start.elapsed().saturating_sub(due).as_secs_f64() * 1e3);
    }
    std::hint::black_box(stream.finalize().expect("paced finalize"));
    p
}
