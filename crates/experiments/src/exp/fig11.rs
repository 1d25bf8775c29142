//! Fig. 11 — impact of the training-set size: N samples per class,
//! N = 5…100 step 5, 10 random repetitions each; mean F1 should pass 92 %
//! by N ≈ 20 and keep rising.

use crate::context::Context;
use crate::exp::{dataset, fit, is_default_setting, score, Label};
use crate::report::{pct, ExperimentResult};
use headtalk::facing::FacingDefinition;
use headtalk::orientation::ModelKind;
use ht_dsp::rng::{SeedableRng, StdRng};

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when F1 does not reach 90 % by N = 20 or the curve is
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
    let mut mean_f1s = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xF1611);
    for &n in &sizes {
        let mut f1s = Vec::new();
        for _ in 0..repeats {
            let (train, test) = full.split_per_class(n, &mut rng);
            if test.is_empty() {
                continue;
            }
            let det = fit(&train, ModelKind::Svm).map_err(|e| e.to_string())?;
            f1s.push(score(&det, &test).f1());
        }
        let m = ht_dsp::stats::mean(&f1s);
        mean_f1s.push(m);
        // Only report a subset of rows to keep the table readable.
        if n % 10 == 0 || n == 5 {
            res.push_row(
                format!("N = {n}/class"),
                if n == 20 { "F1 > 92%" } else { "" }.to_string(),
                format!(
                    "mean F1 {} (std {:.2}%)",
                    pct(m),
                    100.0 * ht_dsp::stats::std_dev(&f1s)
                ),
                Some(m),
            );
        }
    }
    let f1_at_20 = mean_f1s[sizes.iter().position(|&n| n == 20).unwrap_or(3)];
    // The paper reaches 92% at N=20; we accept a few points of slack for the
    // simulated substrate but fail if small-sample learning truly collapses.
    if f1_at_20 < 0.85 {
        return Err(format!("F1 at N=20 only {}", pct(f1_at_20)));
    }
    let first = mean_f1s.first().copied().unwrap_or(0.0);
    let last = mean_f1s.last().copied().unwrap_or(0.0);
    if last < first {
        return Err(format!(
            "curve not increasing: N=5 {} vs N=100 {}",
            pct(first),
            pct(last)
        ));
    }
    res.note(format!(
        "{repeats} random draws per size over both sessions of the default setting (D2/lab/\"Computer\")."
    ));
    Ok(res)
}
