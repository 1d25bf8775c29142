//! Confidence-based incremental learning.
//!
//! §IV-B9 of the paper: *"we can adopt an incremental learning approach and
//! reuse high-confidence test samples (i.e., ≥ 80%) as training data and
//! rebuild the model periodically."* This module implements that protocol
//! generically over any [`Classifier`] with a refit function.

use crate::dataset::Dataset;
use crate::{Classifier, MlError};

/// Selects the samples of `unlabeled` that the model classifies with
/// confidence at least `min_confidence` (in `[0.5, 1]`), returning them as a
/// dataset labeled with the model's own predictions (self-training labels).
///
/// Confidence is derived from the decision score via a logistic squash
/// (`σ(2·score)`, so that a sample on an SVM's margin — `score = ±1` — maps
/// to ≈88 % confidence); any classifier producing a monotone score works.
///
/// # Errors
///
/// Returns [`MlError::InvalidParameter`] for a `min_confidence` outside
/// `[0.5, 1]` (a threshold below chance selects *low*-confidence samples,
/// silently inverting the protocol), and propagates dataset errors.
pub fn high_confidence_samples<C: Classifier>(
    model: &C,
    unlabeled: &Dataset,
    min_confidence: f64,
) -> Result<Dataset, MlError> {
    if !(0.5..=1.0).contains(&min_confidence) {
        return Err(MlError::InvalidParameter(format!(
            "min_confidence must be in [0.5, 1], got {min_confidence}"
        )));
    }
    let mut out = Dataset::new(unlabeled.dim());
    for i in 0..unlabeled.len() {
        let (x, _) = unlabeled.sample(i);
        let score = model.decision_score(x);
        let p1 = 1.0 / (1.0 + (-2.0 * score).exp());
        let (label, conf) = if p1 >= 0.5 { (1, p1) } else { (0, 1.0 - p1) };
        if conf >= min_confidence {
            out.push(x.to_vec(), label)?;
        }
    }
    Ok(out)
}

/// One round of the paper's incremental protocol:
///
/// 1. score `new_data` with the current model,
/// 2. keep predictions with confidence ≥ `min_confidence` (self-labeled),
/// 3. cap the additions at `max_new` samples (the paper sweeps 10–40),
/// 4. append them to `train` and refit with the supplied closure.
///
/// Returns the refit model and the number of samples that were added.
///
/// # Errors
///
/// Returns [`MlError::InvalidData`] when `new_data`'s dimensionality
/// differs from `train`'s — scoring such samples would feed the model
/// inputs of a width it was never trained on (silent truncation for the
/// SVM's kernel, an out-of-bounds panic for the tree/kNN paths) — and
/// propagates errors from the confidence filter, the refit closure, and
/// dataset merging. The refit closure picks the error type; this
/// module's own errors convert into it.
pub fn incremental_round<C, E, F>(
    model: &C,
    train: &mut Dataset,
    new_data: &Dataset,
    min_confidence: f64,
    max_new: usize,
    refit: F,
) -> Result<(C, usize), E>
where
    C: Classifier,
    E: From<MlError>,
    F: FnOnce(&Dataset) -> Result<C, E>,
{
    if new_data.dim() != train.dim() {
        return Err(MlError::InvalidData(format!(
            "new data has dimension {}, training set has {}",
            new_data.dim(),
            train.dim()
        ))
        .into());
    }
    let confident = high_confidence_samples(model, new_data, min_confidence)?;
    let take = confident.len().min(max_new);
    let capped = confident.filter_indices(|i| i < take);
    if !capped.is_empty() {
        train.extend(&capped)?;
    }
    let refitted = refit(train)?;
    Ok((refitted, take))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svm::Svm;
    use ht_dsp::rng::{SeedableRng, StdRng};

    fn blobs(n_per: usize, seed: u64, center: f64, spread: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(2);
        for _ in 0..n_per {
            ds.push(
                vec![
                    center + spread * ht_dsp::rng::gaussian(&mut rng),
                    center + spread * ht_dsp::rng::gaussian(&mut rng),
                ],
                1,
            )
            .unwrap();
            ds.push(
                vec![
                    -center + spread * ht_dsp::rng::gaussian(&mut rng),
                    -center + spread * ht_dsp::rng::gaussian(&mut rng),
                ],
                0,
            )
            .unwrap();
        }
        ds
    }

    #[test]
    fn high_confidence_filter_keeps_easy_samples() {
        let train = blobs(30, 1, 2.0, 0.4);
        let model = Svm::fit(&train).unwrap();
        // Far-away samples are confident; near-boundary ones are not.
        let mut probe = Dataset::new(2);
        probe.push(vec![3.0, 3.0], 1).unwrap(); // deep class 1
        probe.push(vec![-3.0, -3.0], 0).unwrap(); // deep class 0
        probe.push(vec![0.02, -0.02], 0).unwrap(); // boundary
        let confident = high_confidence_samples(&model, &probe, 0.8).unwrap();
        assert_eq!(confident.len(), 2);
        assert_eq!(confident.labels(), &[1, 0]);
    }

    #[test]
    fn out_of_range_confidence_threshold_is_rejected() {
        let train = blobs(10, 8, 2.0, 0.3);
        let model = Svm::fit(&train).unwrap();
        for bad in [0.3, 1.5, -0.1] {
            assert!(high_confidence_samples(&model, &train, bad).is_err());
        }
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error_not_a_panic() {
        let mut train = blobs(20, 9, 2.0, 0.3);
        let model = Svm::fit(&train).unwrap();
        let mut wrong = Dataset::new(3);
        wrong.push(vec![1.0, 2.0, 3.0], 1).unwrap();
        let err = incremental_round(&model, &mut train, &wrong, 0.8, 10, Svm::fit).unwrap_err();
        assert!(matches!(err, MlError::InvalidData(_)), "got {err:?}");
    }

    #[test]
    fn incremental_round_grows_training_set_and_adapts() {
        // Initial model trained on a tight distribution; new data comes from
        // a drifted (translated) distribution, as in §IV-B9.
        let mut train = blobs(25, 2, 2.0, 0.4);
        let model = Svm::fit(&train).unwrap();

        let drifted = {
            let base = blobs(25, 3, 2.0, 0.4);
            let feats: Vec<Vec<f64>> = base
                .features()
                .iter()
                .map(|f| vec![f[0] + 1.0, f[1] + 1.0])
                .collect();
            Dataset::from_parts(feats, base.labels().to_vec()).unwrap()
        };

        let before_len = train.len();
        let (refit, added) =
            incremental_round(&model, &mut train, &drifted, 0.8, 20, Svm::fit).unwrap();
        assert!(added > 0 && added <= 20);
        assert_eq!(train.len(), before_len + added);

        // The refit model still separates the drifted test data well.
        let test = {
            let base = blobs(25, 4, 2.0, 0.4);
            let feats: Vec<Vec<f64>> = base
                .features()
                .iter()
                .map(|f| vec![f[0] + 1.0, f[1] + 1.0])
                .collect();
            Dataset::from_parts(feats, base.labels().to_vec()).unwrap()
        };
        let acc = crate::metrics::accuracy(test.labels(), &refit.predict_batch(test.features()));
        assert!(acc > 0.9, "post-adaptation accuracy {acc}");
    }

    #[test]
    fn cap_limits_added_samples() {
        let mut train = blobs(20, 5, 2.0, 0.3);
        let model = Svm::fit(&train).unwrap();
        let new_data = blobs(50, 6, 2.0, 0.3);
        let (_, added) =
            incremental_round(&model, &mut train, &new_data, 0.8, 10, Svm::fit).unwrap();
        assert_eq!(added, 10);
    }

    #[test]
    fn nothing_confident_means_nothing_added() {
        let mut train = blobs(20, 7, 2.0, 0.3);
        let model = Svm::fit(&train).unwrap();
        // All-boundary probe data.
        let mut probe = Dataset::new(2);
        for _ in 0..5 {
            probe.push(vec![0.0, 0.0], 0).unwrap();
        }
        let before = train.len();
        let (_, added) =
            incremental_round(&model, &mut train, &probe, 0.999, 10, Svm::fit).unwrap();
        assert_eq!(added, 0);
        assert_eq!(train.len(), before);
    }
}
