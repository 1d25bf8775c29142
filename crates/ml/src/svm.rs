//! Binary C-SVM with an RBF kernel, trained by Platt's SMO algorithm.
//!
//! This is the paper's selected orientation classifier (§IV-A: LIBSVM with
//! an RBF kernel). The paper tunes C by grid search under 10-fold
//! cross-validation; this reproduction runs no search and fixes C = 10 and
//! γ = "scale" (`1 / (dim · var(features))`) for every model. The
//! implementation follows Platt (1998) with an error cache and a
//! precomputed Gram matrix.

use crate::dataset::Dataset;
use crate::{Classifier, MlError};

/// Soft-margin penalty C.
const C: f64 = 10.0;
/// KKT violation tolerance.
const TOL: f64 = 1e-3;
/// Full passes over the data without progress before SMO stops.
const MAX_PASSES: usize = 5;

/// A trained RBF-kernel support-vector machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Svm {
    support_vectors: Vec<Vec<f64>>,
    /// `alpha_i * y_i` for each support vector.
    coeffs: Vec<f64>,
    bias: f64,
    gamma: f64,
}

fn rbf(a: &[f64], b: &[f64], gamma: f64) -> f64 {
    let mut d2 = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        d2 += d * d;
    }
    (-gamma * d2).exp()
}

/// The RBF width: `1 / (dim · var)` over the pooled features (the sklearn
/// "scale" heuristic; a good default for standardized features).
fn scale_gamma(ds: &Dataset) -> f64 {
    let mut all = Vec::with_capacity(ds.len() * ds.dim());
    for row in ds.features() {
        all.extend_from_slice(row);
    }
    let var = ht_dsp::stats::variance(&all).max(1e-12);
    1.0 / (ds.dim() as f64 * var)
}

impl Svm {
    /// Trains on a binary dataset (labels must be `{0, 1}`).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidData`] for an empty set or non-binary
    /// labels, and [`MlError::Degenerate`] when only one class is present.
    pub fn fit(ds: &Dataset) -> Result<Svm, MlError> {
        if ds.is_empty() {
            return Err(MlError::InvalidData("empty training set".into()));
        }
        let classes = ds.classes();
        if classes.iter().any(|&c| c > 1) {
            return Err(MlError::InvalidData(
                "SVM expects binary labels in {0, 1}".into(),
            ));
        }
        if classes.len() < 2 {
            return Err(MlError::Degenerate(
                "training set contains a single class".into(),
            ));
        }

        let n = ds.len();
        let gamma = scale_gamma(ds);
        let y: Vec<f64> = ds
            .labels()
            .iter()
            .map(|&l| if l == 1 { 1.0 } else { -1.0 })
            .collect();
        let x = ds.features();

        // Precomputed Gram matrix (training sets in the reproduction are at
        // most a few thousand samples).
        let gram: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| rbf(&x[i], &x[j], gamma)).collect())
            .collect();

        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        // Error cache: E_i = f(x_i) - y_i; with alpha = 0, f = b = 0.
        let mut errors: Vec<f64> = y.iter().map(|&yi| -yi).collect();

        let eps = 1e-8;

        let take_step = |i: usize,
                         j: usize,
                         alpha: &mut Vec<f64>,
                         b: &mut f64,
                         errors: &mut Vec<f64>|
         -> bool {
            if i == j {
                return false;
            }
            let (ai_old, aj_old) = (alpha[i], alpha[j]);
            let (yi, yj) = (y[i], y[j]);
            let (ei, ej) = (errors[i], errors[j]);

            let (lo, hi) = if (yi - yj).abs() > 1e-12 {
                ((aj_old - ai_old).max(0.0), (C + aj_old - ai_old).min(C))
            } else {
                ((ai_old + aj_old - C).max(0.0), (ai_old + aj_old).min(C))
            };
            if hi - lo < eps {
                return false;
            }
            let eta = 2.0 * gram[i][j] - gram[i][i] - gram[j][j];
            if eta >= -1e-12 {
                return false; // non-positive-definite direction, skip pair
            }
            let mut aj = aj_old - yj * (ei - ej) / eta;
            aj = aj.clamp(lo, hi);
            if (aj - aj_old).abs() < eps * (aj + aj_old + eps) {
                return false;
            }
            let ai = ai_old + yi * yj * (aj_old - aj);

            // Bias update (Platt's b1/b2 rule).
            let b1 = *b - ei - yi * (ai - ai_old) * gram[i][i] - yj * (aj - aj_old) * gram[i][j];
            let b2 = *b - ej - yi * (ai - ai_old) * gram[i][j] - yj * (aj - aj_old) * gram[j][j];
            let new_b = if ai > 0.0 && ai < C {
                b1
            } else if aj > 0.0 && aj < C {
                b2
            } else {
                (b1 + b2) / 2.0
            };

            // Refresh the error cache.
            let db = new_b - *b;
            for t in 0..n {
                errors[t] += yi * (ai - ai_old) * gram[i][t] + yj * (aj - aj_old) * gram[j][t] + db;
            }
            alpha[i] = ai;
            alpha[j] = aj;
            *b = new_b;
            true
        };

        // Platt's outer loop: alternate full sweeps and non-bound sweeps.
        let mut examine_all = true;
        let mut passes_without_progress = 0;
        let max_iters = 200 * n.max(50); // generous safety bound
        let mut iters = 0usize;
        while passes_without_progress < MAX_PASSES && iters < max_iters {
            let mut changed = 0usize;
            for i in 0..n {
                iters += 1;
                if !examine_all && (alpha[i] <= eps || alpha[i] >= C - eps) {
                    continue;
                }
                let ri = errors[i] * y[i];
                let violates = (ri < -TOL && alpha[i] < C - eps) || (ri > TOL && alpha[i] > eps);
                if !violates {
                    continue;
                }
                // Second-choice heuristic: maximize |E_i - E_j|.
                let mut j_best = None;
                let mut gap_best = -1.0;
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let gap = (errors[i] - errors[j]).abs();
                    if gap > gap_best {
                        gap_best = gap;
                        j_best = Some(j);
                    }
                }
                if let Some(j) = j_best {
                    if take_step(i, j, &mut alpha, &mut b, &mut errors) {
                        changed += 1;
                        continue;
                    }
                }
                // Fallback: scan for any productive partner.
                for j in 0..n {
                    if take_step(i, j, &mut alpha, &mut b, &mut errors) {
                        changed += 1;
                        break;
                    }
                }
            }
            if changed == 0 {
                if examine_all {
                    passes_without_progress += 1;
                } else {
                    examine_all = true;
                }
            } else {
                examine_all = false;
                passes_without_progress = 0;
            }
        }

        // Keep only the support vectors.
        let mut support_vectors = Vec::new();
        let mut coeffs = Vec::new();
        for i in 0..n {
            if alpha[i] > eps {
                support_vectors.push(x[i].clone());
                coeffs.push(alpha[i] * y[i]);
            }
        }
        if support_vectors.is_empty() {
            return Err(MlError::Degenerate(
                "SMO produced no support vectors".into(),
            ));
        }
        Ok(Svm {
            support_vectors,
            coeffs,
            bias: b,
            gamma,
        })
    }

    /// Number of support vectors kept.
    pub fn n_support_vectors(&self) -> usize {
        self.support_vectors.len()
    }

    // ---- read-only views for the quantized backend (crate::quant) ----

    pub(crate) fn support_vectors(&self) -> &[Vec<f64>] {
        &self.support_vectors
    }

    pub(crate) fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    pub(crate) fn bias(&self) -> f64 {
        self.bias
    }

    pub(crate) fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl Classifier for Svm {
    fn predict(&self, x: &[f64]) -> usize {
        usize::from(self.decision_score(x) >= 0.0)
    }

    fn decision_score(&self, x: &[f64]) -> f64 {
        let mut f = self.bias;
        for (sv, &a) in self.support_vectors.iter().zip(self.coeffs.iter()) {
            f += a * rbf(sv, x, self.gamma);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::rng::{SeedableRng, StdRng};

    /// Two Gaussian blobs, linearly separable.
    fn blobs(n_per: usize, seed: u64, gap: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(2);
        for _ in 0..n_per {
            ds.push(
                vec![
                    gap + 0.5 * ht_dsp::rng::gaussian(&mut rng),
                    gap + 0.5 * ht_dsp::rng::gaussian(&mut rng),
                ],
                1,
            )
            .unwrap();
            ds.push(
                vec![
                    -gap + 0.5 * ht_dsp::rng::gaussian(&mut rng),
                    -gap + 0.5 * ht_dsp::rng::gaussian(&mut rng),
                ],
                0,
            )
            .unwrap();
        }
        ds
    }

    /// XOR-style data: not linearly separable, needs the RBF kernel.
    fn xor(n_per: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(2);
        for _ in 0..n_per {
            for (sx, sy) in [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)] {
                let label = usize::from(sx * sy > 0.0);
                ds.push(
                    vec![
                        sx * 2.0 + 0.4 * ht_dsp::rng::gaussian(&mut rng),
                        sy * 2.0 + 0.4 * ht_dsp::rng::gaussian(&mut rng),
                    ],
                    label,
                )
                .unwrap();
            }
        }
        ds
    }

    #[test]
    fn separable_blobs_are_classified_perfectly() {
        let train = blobs(40, 1, 2.0);
        let test = blobs(40, 2, 2.0);
        let model = Svm::fit(&train).unwrap();
        let preds = model.predict_batch(test.features());
        let acc = crate::metrics::accuracy(test.labels(), &preds);
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn rbf_kernel_solves_xor() {
        let train = xor(30, 3);
        let test = xor(30, 4);
        let model = Svm::fit(&train).unwrap();
        let preds = model.predict_batch(test.features());
        let acc = crate::metrics::accuracy(test.labels(), &preds);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn decision_scores_order_by_margin() {
        let train = blobs(40, 5, 2.0);
        let model = Svm::fit(&train).unwrap();
        // Deep in class 1 territory scores higher than the boundary.
        assert!(model.decision_score(&[3.0, 3.0]) > model.decision_score(&[0.0, 0.0]));
        assert!(model.decision_score(&[-3.0, -3.0]) < 0.0);
    }

    #[test]
    fn support_vectors_are_a_subset() {
        let train = blobs(50, 6, 2.5);
        let model = Svm::fit(&train).unwrap();
        // Widely separated blobs need few support vectors.
        assert!(model.n_support_vectors() < train.len() / 2);
        assert!(model.n_support_vectors() >= 2);
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let mut ds = Dataset::new(1);
        ds.push(vec![0.0], 1).unwrap();
        ds.push(vec![1.0], 1).unwrap();
        assert!(matches!(Svm::fit(&ds), Err(MlError::Degenerate(_))));
        let mut multi = Dataset::new(1);
        multi.push(vec![0.0], 0).unwrap();
        multi.push(vec![1.0], 2).unwrap();
        assert!(Svm::fit(&multi).is_err());
    }

    #[test]
    fn overlapping_classes_do_not_diverge() {
        // Heavily overlapping blobs: training must terminate and do better
        // than chance.
        let train = blobs(60, 11, 0.5);
        let test = blobs(60, 12, 0.5);
        let model = Svm::fit(&train).unwrap();
        let acc = crate::metrics::accuracy(test.labels(), &model.predict_batch(test.features()));
        assert!(acc > 0.6, "accuracy {acc}");
    }
}
