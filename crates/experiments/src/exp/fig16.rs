//! Fig. 16 / §IV-B14 — cross-user: leave-one-user-out over the 10-person
//! DoV-style panel with ADASYN up-sampling of the minority (facing) class.
//! The paper reports 88.66 % mean accuracy (F1 85.09 %) and picks ADASYN
//! over SMOTE.

use crate::context::Context;
use crate::exp::{fit, score};
use crate::report::{pct, ExperimentResult};
use headtalk::orientation::ModelKind;
use ht_ml::crossval::{evaluate_folds, leave_one_group_out};
use ht_ml::sampling::{adasyn, smote};
use ht_ml::Dataset;

/// The DoV facing definition used here: 0° and ±45° facing, the rest
/// backward (§IV-B14 — the DoV grid has no ±15°/±30°).
fn dov_label(angle_deg: f64) -> usize {
    usize::from(angle_deg.abs() <= 46.0)
}

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when the leave-one-user-out mean collapses below 70 %.
pub fn run(ctx: &Context) -> Result<ExperimentResult, String> {
    let (records, pids) = ctx.dataset8();
    let feats: Vec<Vec<f64>> = records.iter().map(|r| r.vector.clone()).collect();
    let labels: Vec<usize> = records
        .iter()
        .map(|r| dov_label(r.spec.angle_deg))
        .collect();
    let ds = Dataset::from_parts(feats, labels).map_err(|e| e.to_string())?;

    let mut res = ExperimentResult::new(
        "fig16",
        "Fig. 16 / §IV-B14: cross-user accuracy (leave-one-user-out, ADASYN)",
        "every held-out user is classified well above chance; mean accuracy near the paper's 88.66%; ADASYN ≥ SMOTE",
    );

    let run_louo = |upsample: &str| -> Result<(Vec<f64>, Vec<f64>), String> {
        let folds = leave_one_group_out(&ds, &pids);
        // Folds evaluate in parallel; each gets its own RNG stream forked
        // from (0xF1616, fold index), so the report is byte-identical for
        // any thread count.
        let per_fold = evaluate_folds(&ds, &folds, 0xF1616, |_, train, test, rng| {
            let train = match upsample {
                "adasyn" => adasyn(train, 5, rng).map_err(|e| e.to_string())?,
                "smote" => smote(train, 5, rng).map_err(|e| e.to_string())?,
                _ => train.clone(),
            };
            let det = fit(&train, ModelKind::Svm).map_err(|e| e.to_string())?;
            let c = score(&det, test);
            Ok::<(f64, f64), String>((c.accuracy(), c.f1()))
        });
        let mut accs = Vec::new();
        let mut f1s = Vec::new();
        for r in per_fold {
            let (acc, f1): (f64, f64) = r?;
            accs.push(acc);
            f1s.push(f1);
        }
        Ok((accs, f1s))
    };

    let (adasyn_accs, adasyn_f1s) = run_louo("adasyn")?;
    for (p, acc) in adasyn_accs.iter().enumerate() {
        res.push_row(format!("participant {}", p + 1), "", pct(*acc), Some(*acc));
    }
    let mean_acc = ht_dsp::stats::mean(&adasyn_accs);
    let mean_f1 = ht_dsp::stats::mean(&adasyn_f1s);
    res.push_row(
        "mean (ADASYN)",
        "88.66% accuracy, 85.09% F1",
        format!("{} accuracy, {} F1", pct(mean_acc), pct(mean_f1)),
        Some(mean_acc),
    );

    let (smote_accs, _) = run_louo("smote")?;
    let smote_mean = ht_dsp::stats::mean(&smote_accs);
    res.push_row(
        "mean (SMOTE, comparison)",
        "inferior to ADASYN",
        pct(smote_mean),
        Some(smote_mean),
    );

    if mean_acc < 0.70 {
        return Err(format!("cross-user mean collapsed: {}", pct(mean_acc)));
    }
    res.note("Facing = {0°, ±45°}; backward = {±90°, ±135°, 180°} (the DoV grid, §IV-B14).");
    res.note("Minority (facing) class up-sampled to balance before each fold's training.");
    Ok(res)
}
