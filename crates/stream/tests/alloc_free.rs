//! Proof of the streaming pipeline's core claim: once warmed, the
//! ingest → STFT → GCC accumulation path makes zero heap allocations per
//! frame, even with JSON observability recording on, and a freshly built
//! analyzer or directivity accumulator allocates nothing from its first
//! push. The counting allocator is `ht_dsp::check::CountingAlloc`.

use ht_dsp::check::{allocs_during, CountingAlloc};
use ht_stream::{DirectivityAccum, FrameAnalyzer, FrameRing};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_frame_loop_is_allocation_free() {
    // JSON mode: the guarantee must hold in fully instrumented runs.
    ht_obs::set_mode(ht_obs::Mode::Json);
    let (channels, frame_len, hop) = (4, 960, 480);
    let mut ring = FrameRing::new(channels, frame_len, hop).unwrap();
    let mut analyzer = FrameAnalyzer::new(channels, frame_len, 13, 48_000.0).unwrap();
    let mut frame = vec![vec![0.0; frame_len]; channels];
    let chunk: Vec<Vec<f64>> = (0..channels)
        .map(|c| {
            (0..hop)
                .map(|k| ((k + c * 31) as f64 * 0.01).sin())
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = chunk.iter().map(Vec::as_slice).collect();

    // Warm-up: sizes the FFT scratch and creates the registry histograms.
    for _ in 0..4 {
        ring.push(&refs).unwrap();
        while ring.pop_frame_into(&mut frame) {
            analyzer.analyze(&frame).unwrap();
        }
    }

    let n = allocs_during(|| {
        for _ in 0..128 {
            ring.push(&refs).unwrap();
            while ring.pop_frame_into(&mut frame) {
                analyzer.analyze(&frame).unwrap();
            }
        }
    });
    ht_obs::set_mode(ht_obs::Mode::Off);
    assert_eq!(n, 0, "steady-state streaming frames allocated {n} times");
}

#[test]
fn a_fresh_analyzer_allocates_nothing_from_its_first_frame() {
    // Every buffer, FFT scratch included, is sized in `new`, so a pooled
    // slot's first frame and first assembly allocate nothing.
    ht_obs::set_mode(ht_obs::Mode::Json);
    let (channels, frame_len) = (4, 960);
    let frame: Vec<Vec<f64>> = (0..channels)
        .map(|c| {
            (0..frame_len)
                .map(|k| ((k + c * 31) as f64 * 0.01).sin())
                .collect()
        })
        .collect();
    // A first analyzer creates any registry entries the spans need.
    FrameAnalyzer::new(channels, frame_len, 13, 48_000.0)
        .unwrap()
        .analyze(&frame)
        .unwrap();
    let mut analyzer = FrameAnalyzer::new(channels, frame_len, 13, 48_000.0).unwrap();
    let mut out = Vec::with_capacity(1024);
    let n = allocs_during(|| {
        analyzer.analyze(&frame).unwrap();
        analyzer.assemble_features_into(3, &mut out).unwrap();
    });
    ht_obs::set_mode(ht_obs::Mode::Off);
    assert_eq!(n, 0, "a fresh analyzer allocated {n} times");
}

#[test]
fn a_fresh_directivity_accumulator_allocates_nothing_from_its_first_push() {
    // The FFT scratch is presized in `new`, which runs no transform, so a
    // pooled slot's first completed segment and its flush on either grid
    // allocate nothing.
    ht_obs::set_mode(ht_obs::Mode::Json);
    let (channels, hop, seg_len) = (4, 480, 32_768);
    let capture = |len: usize| -> Vec<Vec<f64>> {
        (0..channels)
            .map(|c| {
                (0..len)
                    .map(|k| ((k + c * 31) as f64 * 0.01).sin())
                    .collect()
            })
            .collect()
    };
    let feed = |acc: &mut DirectivityAccum, x: &[Vec<f64>]| {
        let len = x[0].len();
        for start in (0..len).step_by(hop) {
            let end = (start + hop).min(len);
            let chunk: [&[f64]; 4] = std::array::from_fn(|c| &x[c][start..end]);
            acc.push(&chunk).unwrap();
        }
        acc.flush_spectrum().unwrap();
    };
    // A 40 000-sample capture completes the first segment and flushes on
    // the full grid; a 5 000-sample one flushes on the adaptive grid.
    let long = capture(40_000);
    let short = capture(5_000);
    // Another accumulator creates the registry entries the spans and
    // counters need and the shared plans of both grids.
    let mut warm = DirectivityAccum::new(channels, seg_len, 48_000.0).unwrap();
    feed(&mut warm, &long);
    warm.reset();
    feed(&mut warm, &short);
    let counts: Vec<u64> = [&long, &short]
        .into_iter()
        .map(|x| {
            let mut acc = DirectivityAccum::new(channels, seg_len, 48_000.0).unwrap();
            allocs_during(|| feed(&mut acc, x))
        })
        .collect();
    ht_obs::set_mode(ht_obs::Mode::Off);
    assert_eq!(
        counts,
        [0, 0],
        "allocations of fresh accumulators on 40 000- and 5 000-sample captures"
    );
}
