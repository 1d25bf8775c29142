//! # ht-ml — classical machine-learning substrate
//!
//! From-scratch implementations of everything the HeadTalk paper's modeling
//! layer uses (the paper uses LIBSVM, MATLAB-style classifiers, SpeechBrain's
//! wav2vec2, SMOTE/ADASYN; see `DESIGN.md` for the substitutions):
//!
//! * [`dataset`] — feature-matrix containers, standardization, splits,
//! * [`metrics`] — accuracy/precision/recall/F1, TPR/FAR/FRR, EER, confusion
//!   matrices,
//! * [`svm`] — C-SVM with RBF kernel trained by SMO, with C = 10 and
//!   γ = "scale" fixed (the paper's selected orientation model, §IV-A; no
//!   grid search runs),
//! * [`tree`] / [`forest`] — decision tree and bagged random forest,
//! * [`knn`] — k-nearest neighbours,
//! * [`nn`] — a small conv1d+dense neural network with Adam ("wav2vec2-mini",
//!   the liveness model stand-in),
//! * [`quant`] — int8 post-training quantization of the decision-path models
//!   (calibrated static scales; the f64 paths above stay byte-stable),
//! * [`sampling`] — SMOTE and ADASYN up-sampling (§IV-B14),
//! * [`crossval`] — k-fold and stratified cross-validation,
//! * [`incremental`] — the paper's incremental-learning protocol (§IV-A1,
//!   §IV-B9): fold high-confidence test samples back into training.
//!
//! # Example
//!
//! ```
//! use ht_ml::dataset::Dataset;
//! use ht_ml::svm::Svm;
//! use ht_ml::Classifier;
//!
//! # fn main() -> Result<(), ht_ml::MlError> {
//! // A linearly separable toy problem.
//! let mut ds = Dataset::new(2);
//! for i in 0..20 {
//!     let v = i as f64 / 20.0;
//!     ds.push(vec![v, v + 1.0], 1)?;
//!     ds.push(vec![v, v - 1.0], 0)?;
//! }
//! let model = Svm::fit(&ds)?;
//! assert_eq!(model.predict(&[0.5, 1.6]), 1);
//! assert_eq!(model.predict(&[0.5, -0.6]), 0);
//! # Ok(())
//! # }
//! ```

pub mod crossval;
pub mod dataset;
pub mod error;
pub mod forest;
pub mod incremental;
pub mod knn;
pub mod metrics;
pub mod nn;
pub mod quant;
pub mod sampling;
pub mod svm;
pub mod tree;

pub use dataset::Dataset;
pub use error::MlError;

/// A trained binary (or small multi-class) classifier.
///
/// Implemented by [`svm::Svm`], [`tree::DecisionTree`],
/// [`forest::RandomForest`], [`knn::Knn`] and [`nn::NeuralNet`], so the
/// evaluation harness can treat them uniformly (the paper compares all four
/// classical models in §IV-A before settling on the SVM).
pub trait Classifier {
    /// Predicts the class label of one feature vector.
    fn predict(&self, x: &[f64]) -> usize;

    /// A continuous decision score for class 1 (larger = more class-1).
    /// Used for EER computation and confidence-based incremental learning.
    fn decision_score(&self, x: &[f64]) -> f64;

    /// Predicts labels for many samples.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}
