//! Cross-model integration tests: the four §IV-A classifier families on
//! shared benchmark problems, plus end-to-end metric plumbing.

use ht_dsp::rng::{SeedableRng, StdRng};
use ht_ml::dataset::{Dataset, Standardizer};
use ht_ml::forest::{ForestParams, RandomForest};
use ht_ml::knn::Knn;
use ht_ml::metrics::{equal_error_rate, Confusion};
use ht_ml::svm::Svm;
use ht_ml::tree::{DecisionTree, TreeParams};
use ht_ml::Classifier;

/// Two anisotropic Gaussian classes with a few nuisance dimensions.
fn benchmark(n_per: usize, seed: u64, sep: f64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(6);
    for _ in 0..n_per {
        for label in [0usize, 1] {
            let c = if label == 1 { sep } else { -sep };
            let row: Vec<f64> = (0..6)
                .map(|k| match k {
                    0 => c + 0.6 * ht_dsp::rng::gaussian(&mut rng),
                    1 => 0.5 * c + 1.0 * ht_dsp::rng::gaussian(&mut rng),
                    _ => ht_dsp::rng::gaussian(&mut rng),
                })
                .collect();
            ds.push(row, label).unwrap();
        }
    }
    ds
}

fn all_models(train: &Dataset, seed: u64) -> Vec<(&'static str, Box<dyn Classifier>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        (
            "SVM",
            Box::new(Svm::fit(train).unwrap()) as Box<dyn Classifier>,
        ),
        (
            "RF",
            Box::new(
                RandomForest::fit(
                    train,
                    &ForestParams {
                        n_trees: 30,
                        ..ForestParams::default()
                    },
                    &mut rng,
                )
                .unwrap(),
            ),
        ),
        (
            "DT",
            Box::new(DecisionTree::fit(train, &TreeParams::default(), &mut rng).unwrap()),
        ),
        ("kNN", Box::new(Knn::fit(train, 3).unwrap())),
    ]
}

#[test]
fn all_four_families_beat_chance_comfortably() {
    let train = benchmark(60, 1, 1.0);
    let test = benchmark(60, 2, 1.0);
    for (name, model) in all_models(&train, 3) {
        let preds = model.predict_batch(test.features());
        let acc = ht_ml::metrics::accuracy(test.labels(), &preds);
        assert!(acc > 0.8, "{name}: accuracy {acc}");
    }
}

#[test]
fn standardization_helps_the_svm_with_scaled_features() {
    // Blow one feature up by 1000x: the RBF kernel collapses without
    // standardization but works with it.
    let base = benchmark(50, 4, 1.2);
    let scaled_feats: Vec<Vec<f64>> = base
        .features()
        .iter()
        .map(|f| {
            let mut v = f.clone();
            v[5] *= 1000.0;
            v
        })
        .collect();
    let ds = Dataset::from_parts(scaled_feats, base.labels().to_vec()).unwrap();
    let (train, test) = {
        let mut rng = StdRng::seed_from_u64(5);
        ds.split(0.5, &mut rng)
    };
    let raw = Svm::fit(&train).unwrap();
    let raw_acc = ht_ml::metrics::accuracy(test.labels(), &raw.predict_batch(test.features()));
    let sc = Standardizer::fit(&train).unwrap();
    let std_model = Svm::fit(&sc.transform_dataset(&train)).unwrap();
    let std_feats: Vec<Vec<f64>> = test.features().iter().map(|f| sc.transform(f)).collect();
    let std_acc = ht_ml::metrics::accuracy(test.labels(), &std_model.predict_batch(&std_feats));
    assert!(
        std_acc >= raw_acc,
        "standardized {std_acc} vs raw {raw_acc}"
    );
    assert!(std_acc > 0.85);
}

#[test]
fn decision_scores_produce_sensible_eer() {
    let train = benchmark(60, 6, 1.0);
    let test_easy = benchmark(60, 7, 2.5);
    let test_hard = benchmark(60, 8, 0.3);
    let model = Svm::fit(&train).unwrap();
    let eer_of = |ds: &Dataset| {
        let scores: Vec<f64> = ds
            .features()
            .iter()
            .map(|f| model.decision_score(f))
            .collect();
        equal_error_rate(ds.labels(), &scores)
    };
    let easy = eer_of(&test_easy);
    let hard = eer_of(&test_hard);
    assert!(easy < hard, "easy EER {easy} should beat hard EER {hard}");
    assert!(easy < 0.1);
}

#[test]
fn cross_validation_estimates_match_holdout() {
    let ds = benchmark(100, 9, 1.0);
    let mut rng = StdRng::seed_from_u64(10);
    let folds = ht_ml::crossval::stratified_folds(&ds, 5, &mut rng);
    let mut cv_accs = Vec::new();
    for fold in &folds {
        let (train, test) = fold.split(&ds);
        let model = Svm::fit(&train).unwrap();
        let preds = model.predict_batch(test.features());
        cv_accs.push(ht_ml::metrics::accuracy(test.labels(), &preds));
    }
    let cv = ht_dsp::stats::mean(&cv_accs);
    // Independent holdout.
    let holdout = benchmark(100, 11, 1.0);
    let model = Svm::fit(&ds).unwrap();
    let ho = ht_ml::metrics::accuracy(holdout.labels(), &model.predict_batch(holdout.features()));
    assert!((cv - ho).abs() < 0.1, "cv {cv} vs holdout {ho}");
}

#[test]
fn confusion_and_f1_agree_across_models() {
    let train = benchmark(50, 12, 1.5);
    let test = benchmark(50, 13, 1.5);
    for (name, model) in all_models(&train, 14) {
        let preds = model.predict_batch(test.features());
        let c = Confusion::from_predictions(test.labels(), &preds);
        // F1 and accuracy can differ, but on balanced data they should be
        // within a few points of each other.
        assert!(
            (c.f1() - c.accuracy()).abs() < 0.1,
            "{name}: f1 {} vs acc {}",
            c.f1(),
            c.accuracy()
        );
    }
}
