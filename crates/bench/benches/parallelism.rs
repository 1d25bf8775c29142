//! Parallel scaling of the pipeline's hot paths on the ht-par runtime.
//!
//! Each workload runs under a dedicated 1-, 2-, and 4-thread
//! [`ht_par::Pool`] (via [`ht_par::Pool::install`], so every `par_*` call
//! inside the workload routes to that pool). By the ht-par determinism
//! contract the computed results are byte-identical across the widths —
//! only the wall-clock time may differ — so the suite doubles as a scaling
//! report: compare `…_w1` against `…_w4` in `BENCH_parallel.json`.
//!
//! The two workloads mirror the suites the paper's runtime discussion
//! cares about: §IV-B15 wake decisions, as a `par_map` of
//! `HeadTalk::decide_batch` over rendered 4-mic captures (one capture per
//! pool task, the shape of perfbench's `batch-corpus` workload), and the
//! Table III train-and-evaluate kernel run with the random-forest model
//! (parallel per tree).

use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::PipelineConfig;
use ht_bench::{black_box, Suite};
use ht_datagen::CaptureSpec;
use ht_dsp::rng::SeedableRng;
use ht_ml::{Classifier, Dataset};
use ht_par::Pool;

/// The thread widths every workload sweeps.
const WIDTHS: [usize; 3] = [1, 2, 4];

/// Separable blobs at the real 4-mic feature width (same generator as the
/// `tables` suite so the two suites stay comparable).
fn synthetic_features(n_per: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = ht_dsp::rng::StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(dim);
    for _ in 0..n_per {
        for label in [0usize, 1] {
            let center = if label == 1 { 0.8 } else { -0.8 };
            let row: Vec<f64> = (0..dim)
                .map(|k| {
                    if k < 8 {
                        center + 0.5 * ht_dsp::rng::gaussian(&mut rng)
                    } else {
                        ht_dsp::rng::gaussian(&mut rng)
                    }
                })
                .collect();
            ds.push(row, label).expect("fixed width");
        }
    }
    ds
}

/// Rendered captures per timed `par_map`: enough tasks to keep four
/// participants claiming.
const CORPUS: u64 = 8;

fn bench_decide_corpus(s: &mut Suite) {
    let ht = ht_serve::toy_pipeline();
    let corpus: Vec<Vec<Vec<f64>>> = (0..CORPUS)
        .map(|i| {
            CaptureSpec::baseline(0xBEAC + i)
                .render()
                .expect("render succeeds")
        })
        .collect();
    for width in WIDTHS {
        let pool = Pool::new(width);
        s.bench(&format!("runtime_b15/decide_batch_corpus_w{width}"), || {
            pool.install(|| {
                ht_par::par_map(black_box(&corpus), |capture| {
                    ht.decide_batch(capture).expect("rendered captures decide")
                })
            })
        });
    }
}

fn bench_forest_train_eval(s: &mut Suite) {
    let cfg = PipelineConfig::default();
    let width = headtalk::features::feature_width(4, &cfg);
    let train = synthetic_features(90, width, 1);
    let test = synthetic_features(90, width, 2);
    for threads in WIDTHS {
        let pool = Pool::new(threads);
        s.bench(&format!("table3/forest_train_and_eval_w{threads}"), || {
            pool.install(|| {
                let det = OrientationDetector::fit(black_box(&train), ModelKind::RandomForest, 7)
                    .expect("separable training set");
                det.predict_batch(test.features())
            })
        });
    }
}

fn main() {
    let mut s = Suite::new("parallel");
    bench_decide_corpus(&mut s);
    bench_forest_train_eval(&mut s);
    s.finish();
}
