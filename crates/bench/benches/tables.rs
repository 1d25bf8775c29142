//! One benchmark per reproduced *table*: the computational kernel behind
//! each table, on a reduced-but-representative workload. (Full-count
//! regeneration is the `headtalk-repro` binary's job; these track the cost
//! of the kernels that produce each table.)

use headtalk::facing::FacingDefinition;
use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::userstudy;
use headtalk::{HeadTalk, PipelineConfig};
use ht_bench::{black_box, Suite};
use ht_datagen::{datasets, CaptureSpec};
use ht_dsp::rng::SeedableRng;
use ht_ml::{Classifier, Dataset};

/// A synthetic stand-in for a Definition-4 feature table: separable blobs
/// at the real feature width.
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

/// Table I/II: the dataset builders themselves (spec generation cost).
fn bench_table2(s: &mut Suite) {
    s.bench("table2/build_all_dataset_specs", || {
        black_box(datasets::dataset1().len())
            + black_box(datasets::dataset2().len())
            + black_box(datasets::dataset8().0.len())
    });
}

/// Table III: one cross-session train+evaluate pass for one definition.
fn bench_table3(s: &mut Suite) {
    let cfg = PipelineConfig::default();
    let width = headtalk::features::feature_width(4, &cfg);
    let train = synthetic_features(90, width, 1);
    let test = synthetic_features(90, width, 2);
    s.bench("table3/definition_train_and_eval", || {
        let det = OrientationDetector::fit(black_box(&train), ModelKind::Svm, 7)
            .expect("separable training set");
        det.predict_batch(test.features())
    });
    // The definitions' label mapping itself (pure code path).
    s.bench("table3/definition_labeling_14_angles", || {
        let mut n = 0usize;
        for def in FacingDefinition::ALL {
            for a in ht_acoustics::geometry::PAPER_ANGLES_DEG {
                if def.label(black_box(a)).is_some() {
                    n += 1;
                }
            }
        }
        n
    });
}

/// Table IV: feature extraction cost as the microphone count grows
/// (2 → 6 channels of one capture).
fn bench_table4(s: &mut Suite) {
    let cfg = PipelineConfig::default();
    let spec = CaptureSpec::baseline(0x7AB4);
    let channels = spec
        .render_mics(Some(&[0, 1, 2, 3, 4, 5]))
        .expect("six-mic render");
    let pre = headtalk::preprocess::Preprocessor::new(&cfg).expect("preprocessor");
    let denoised = pre.denoise_channels(&channels).expect("denoise");
    for n in [2usize, 4, 6] {
        let subset: Vec<Vec<f64>> = denoised[..n].to_vec();
        s.bench(&format!("table4_mic_count/features_{n}_mics"), || {
            HeadTalk::orientation_features(&cfg, black_box(&subset))
        });
    }
}

/// Table V: the SUS scorer and survey tallies.
fn bench_table5(s: &mut Suite) {
    let responses: Vec<userstudy::SusResponse> = (0..20).map(|k| [(k % 5 + 1) as u8; 10]).collect();
    s.bench("table5/sus_summary_20_participants", || {
        userstudy::sus_summary(black_box(&responses))
    });
    s.bench("table5/takeaways", userstudy::takeaways);
}

fn main() {
    let mut s = Suite::new("tables");
    bench_table2(&mut s);
    bench_table3(&mut s);
    bench_table4(&mut s);
    bench_table5(&mut s);
    s.finish();
}
