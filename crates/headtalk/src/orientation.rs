//! The speaker-orientation classifier.
//!
//! §IV-A compares Random Forest, Decision Tree, SVM and kNN on the
//! orientation features and selects the SVM (best average F1-score across
//! the lab and home settings). [`ModelKind`] exposes all four so the
//! comparison experiment can be reproduced; [`OrientationDetector`] wraps
//! standardization + the chosen model.

use crate::HeadTalkError;
use ht_dsp::rng::{SeedableRng, StdRng};
use ht_dsp::QuantMode;
use ht_ml::dataset::{Dataset, Standardizer};
use ht_ml::forest::{ForestParams, RandomForest};
use ht_ml::knn::Knn;
use ht_ml::quant::QuantizedSvm;
use ht_ml::svm::Svm;
use ht_ml::tree::{DecisionTree, TreeParams};
use ht_ml::Classifier;

/// Which classifier backs the orientation detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Support vector machine with RBF kernel (the paper's choice).
    Svm,
    /// Random forest (bagging, 200 trees in the paper).
    RandomForest,
    /// Decision tree (max 5 splits in the paper).
    DecisionTree,
    /// k-nearest neighbours (k = 3 in the paper).
    Knn,
}

impl ModelKind {
    /// All four §IV-A candidates.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Svm,
        ModelKind::RandomForest,
        ModelKind::DecisionTree,
        ModelKind::Knn,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Svm => "SVM",
            ModelKind::RandomForest => "RF",
            ModelKind::DecisionTree => "DT",
            ModelKind::Knn => "kNN",
        }
    }
}

#[derive(Debug, Clone)]
enum Model {
    Svm(Svm),
    Forest(RandomForest),
    Tree(DecisionTree),
    Knn(Knn),
}

impl Model {
    fn as_classifier(&self) -> &dyn Classifier {
        match self {
            Model::Svm(m) => m,
            Model::Forest(m) => m,
            Model::Tree(m) => m,
            Model::Knn(m) => m,
        }
    }
}

/// A trained facing/non-facing detector: feature standardization plus the
/// selected classifier.
#[derive(Debug, Clone)]
pub struct OrientationDetector {
    scaler: Standardizer,
    model: Model,
    kind: ModelKind,
    /// Int8 backend for the SVM, built offline by
    /// [`OrientationDetector::calibrate_int8`]. `None` until calibrated (and
    /// always `None` for the non-SVM kinds); the f64 model above stays the
    /// byte-stable reference either way.
    quantized: Option<QuantizedSvm>,
}

impl OrientationDetector {
    /// Trains on a dataset of §III-B3 feature vectors labeled facing (1) /
    /// non-facing (0), using the paper's hyperparameters for each model.
    ///
    /// `seed` drives the stochastic models (RF bagging, DT feature order);
    /// SVM training is deterministic.
    ///
    /// # Errors
    ///
    /// Propagates [`HeadTalkError::Ml`] for degenerate training sets.
    pub fn fit(
        ds: &Dataset,
        kind: ModelKind,
        seed: u64,
    ) -> Result<OrientationDetector, HeadTalkError> {
        let scaler = Standardizer::fit(ds)?;
        let scaled = scaler.transform_dataset(ds);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = match kind {
            ModelKind::Svm => Model::Svm(Svm::fit(&scaled)?),
            ModelKind::RandomForest => {
                // The paper settles on 200 trees; 64 reaches the same
                // accuracy on the simulated data at a fraction of the cost.
                let params = ForestParams {
                    n_trees: 64,
                    ..ForestParams::default()
                };
                Model::Forest(RandomForest::fit(&scaled, &params, &mut rng)?)
            }
            ModelKind::DecisionTree => {
                let params = TreeParams {
                    max_splits: 5,
                    ..TreeParams::default()
                };
                Model::Tree(DecisionTree::fit(&scaled, &params, &mut rng)?)
            }
            ModelKind::Knn => Model::Knn(Knn::fit(&scaled, 3)?),
        };
        Ok(OrientationDetector {
            scaler,
            model,
            kind,
            quantized: None,
        })
    }

    /// Builds the int8 inference backend from calibration feature vectors
    /// (unscaled — the detector standardizes them exactly like queries).
    ///
    /// Only the SVM has an int8 backend: the trees, forest and kNN are
    /// threshold/compare structures with no dense arithmetic to quantize,
    /// so for those kinds this is a no-op and scoring stays f64.
    ///
    /// # Errors
    ///
    /// Propagates [`HeadTalkError::Ml`] for an empty calibration set or
    /// rows of the wrong width.
    pub fn calibrate_int8(&mut self, calib: &[&[f64]]) -> Result<(), HeadTalkError> {
        let Model::Svm(svm) = &self.model else {
            return Ok(());
        };
        let scaled: Vec<Vec<f64>> = calib.iter().map(|row| self.scaler.transform(row)).collect();
        let refs: Vec<&[f64]> = scaled.iter().map(Vec::as_slice).collect();
        self.quantized = Some(QuantizedSvm::from_svm(svm, &refs)?);
        Ok(())
    }

    /// Mode-dispatched decision: `(score, facing)` from one standardized
    /// vector. The SVM's predict is exactly `score >= 0`, so one kernel
    /// evaluation produces both: the quantized one under
    /// [`QuantMode::Int8`] with a calibrated backend, the byte-stable f64
    /// reference otherwise. The other kinds predict on the same vector.
    pub fn score_and_facing_mode(&self, features: &[f64], mode: QuantMode) -> (f64, bool) {
        let scaled = self.scaler.transform(features);
        let score = match (&self.quantized, mode) {
            (Some(q), QuantMode::Int8) => q.decision_score(&scaled),
            _ => self.model.as_classifier().decision_score(&scaled),
        };
        let facing = match self.model {
            Model::Svm(_) => score >= 0.0,
            _ => self.model.as_classifier().predict(&scaled) == 1,
        };
        (score, facing)
    }

    /// Which model kind backs this detector.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The feature width the detector was trained on. Inputs of any other
    /// width cannot be classified (the pipeline rejects them up front).
    pub fn input_dim(&self) -> usize {
        self.scaler.dim()
    }

    /// `true` if the feature vector is classified as facing.
    pub fn is_facing(&self, features: &[f64]) -> bool {
        self.predict(features) == 1
    }
}

impl Classifier for OrientationDetector {
    fn predict(&self, x: &[f64]) -> usize {
        let scaled = self.scaler.transform(x);
        self.model.as_classifier().predict(&scaled)
    }

    fn decision_score(&self, x: &[f64]) -> f64 {
        let scaled = self.scaler.transform(x);
        self.model.as_classifier().decision_score(&scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy "orientation" problem: facing = positive offset on feature 0.
    fn toy(n_per: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(3);
        for _ in 0..n_per {
            ds.push(
                vec![
                    1.0 + 0.5 * ht_dsp::rng::gaussian(&mut rng),
                    ht_dsp::rng::gaussian(&mut rng),
                    5.0 + ht_dsp::rng::gaussian(&mut rng),
                ],
                1,
            )
            .unwrap();
            ds.push(
                vec![
                    -1.0 + 0.5 * ht_dsp::rng::gaussian(&mut rng),
                    ht_dsp::rng::gaussian(&mut rng),
                    5.0 + ht_dsp::rng::gaussian(&mut rng),
                ],
                0,
            )
            .unwrap();
        }
        ds
    }

    #[test]
    fn all_four_models_learn_the_toy_problem() {
        let train = toy(40, 1);
        let test = toy(40, 2);
        for kind in ModelKind::ALL {
            let det = OrientationDetector::fit(&train, kind, 7).unwrap();
            let preds = det.predict_batch(test.features());
            let acc = ht_ml::metrics::accuracy(test.labels(), &preds);
            assert!(acc > 0.85, "{}: accuracy {acc}", kind.name());
            assert_eq!(det.kind(), kind);
        }
    }

    #[test]
    fn is_facing_matches_predict() {
        let train = toy(30, 3);
        let det = OrientationDetector::fit(&train, ModelKind::Svm, 7).unwrap();
        assert!(det.is_facing(&[1.5, 0.0, 5.0]));
        assert!(!det.is_facing(&[-1.5, 0.0, 5.0]));
    }

    #[test]
    fn degenerate_training_is_rejected() {
        let mut ds = Dataset::new(2);
        ds.push(vec![0.0, 0.0], 1).unwrap();
        ds.push(vec![1.0, 1.0], 1).unwrap();
        assert!(OrientationDetector::fit(&ds, ModelKind::Svm, 7).is_err());
    }

    #[test]
    fn model_names() {
        assert_eq!(ModelKind::Svm.name(), "SVM");
        assert_eq!(ModelKind::ALL.len(), 4);
    }
}
