//! Fig. 11 — impact of the training-set size: N samples per class,
//! N = 5…100 step 5, 10 random repetitions each; mean F1 should pass 92 %
//! by N ≈ 20 and keep rising.

use crate::context::Context;
use crate::exp::{dataset, fit, is_default_setting, score, Label};
use crate::report::{pct, ExperimentResult};
use headtalk::facing::FacingDefinition;
use headtalk::orientation::ModelKind;
use ht_dsp::rng::{SeedableRng, StdRng};
use ht_ml::Dataset;

/// One training-set size's result over its scored draws.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Point {
    /// Training samples per class.
    n: usize,
    mean_f1: f64,
    std_f1: f64,
}

/// For each size `n` in `sizes`, `repeats` random draws of `n` training
/// samples per class, each scored by F1 on the rest. A size that leaves
/// no test sample in any draw (a reduced `HT_SCALE` can) has no mean: it
/// is returned among the skipped sizes instead of averaged to zero.
fn curve(
    full: &Dataset,
    sizes: &[usize],
    repeats: usize,
    rng: &mut StdRng,
) -> Result<(Vec<Point>, Vec<usize>), String> {
    let (mut points, mut skipped) = (Vec::new(), Vec::new());
    for &n in sizes {
        let mut f1s = Vec::new();
        for _ in 0..repeats {
            let (train, test) = full.split_per_class(n, rng);
            if test.is_empty() {
                continue;
            }
            let det = fit(&train, ModelKind::Svm).map_err(|e| e.to_string())?;
            f1s.push(score(&det, &test).f1());
        }
        if f1s.is_empty() {
            skipped.push(n);
            continue;
        }
        points.push(Point {
            n,
            mean_f1: ht_dsp::stats::mean(&f1s),
            std_f1: ht_dsp::stats::std_dev(&f1s),
        });
    }
    Ok((points, skipped))
}

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when F1 does not reach 85 % by N = 20 or the curve is
/// not broadly increasing.
pub fn run(ctx: &Context) -> Result<ExperimentResult, String> {
    let full = dataset(
        &ctx.dataset1(),
        Label::Facing(FacingDefinition::Definition4),
        is_default_setting,
    )?;

    let mut res = ExperimentResult::new(
        "fig11",
        "Fig. 11: impact of training-set size on F1-score",
        "F1 rises with N; with only 20 samples per class the mean F1 exceeds ~92%",
    );
    let sizes: Vec<usize> = (1..=20).map(|k| k * 5).collect();
    let repeats = 10;
    let mut rng = StdRng::seed_from_u64(0xF1611);
    let (points, skipped) = curve(&full, &sizes, repeats, &mut rng)?;
    // Only report a subset of rows to keep the table readable.
    for p in points.iter().filter(|p| p.n % 10 == 0 || p.n == 5) {
        res.push_row(
            format!("N = {}/class", p.n),
            if p.n == 20 { "F1 > 92%" } else { "" }.to_string(),
            format!("mean F1 {} (std {:.2}%)", pct(p.mean_f1), 100.0 * p.std_f1),
            Some(p.mean_f1),
        );
    }
    let f1_at_20 = points
        .iter()
        .find(|p| p.n == 20)
        .ok_or("no test capture left at N=20")?
        .mean_f1;
    // The paper reaches 92% at N=20; we accept a few points of slack for the
    // simulated substrate but fail if small-sample learning truly collapses.
    if f1_at_20 < 0.85 {
        return Err(format!("F1 at N=20 only {}", pct(f1_at_20)));
    }
    // N = 20 has a point, so the curve is not empty.
    let (first, last) = (points[0], points[points.len() - 1]);
    if last.mean_f1 < first.mean_f1 {
        return Err(format!(
            "curve not increasing: N={} {} vs N={} {}",
            first.n,
            pct(first.mean_f1),
            last.n,
            pct(last.mean_f1)
        ));
    }
    res.note(format!(
        "{repeats} random draws per size over both sessions of the default setting (D2/lab/\"Computer\")."
    ));
    if !skipped.is_empty() {
        res.note(format!(
            "Skipped N = {skipped:?} per class: no draw left a test capture."
        ));
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `per_class` samples of each class, separable along the first axis.
    fn synthetic(per_class: usize) -> Dataset {
        let mut ds = Dataset::new(2);
        for k in 0..per_class {
            let jitter = 0.1 * k as f64;
            ds.push(vec![1.0 + jitter, jitter], 1).unwrap();
            ds.push(vec![-1.0 - jitter, jitter], 0).unwrap();
        }
        ds
    }

    #[test]
    fn sizes_without_a_test_split_are_skipped_not_averaged() {
        let mut rng = StdRng::seed_from_u64(1);
        let (points, skipped) = curve(&synthetic(6), &[2, 4, 6, 8], 3, &mut rng).unwrap();
        assert_eq!(skipped, [6, 8]);
        assert_eq!(points.iter().map(|p| p.n).collect::<Vec<_>>(), [2, 4]);
        for p in &points {
            assert!(
                p.mean_f1 > 0.0 && p.mean_f1 <= 1.0,
                "N = {}: {}",
                p.n,
                p.mean_f1
            );
        }
    }
}
