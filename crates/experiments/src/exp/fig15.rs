//! Fig. 15 / §IV-B9 — temporal stability: the day-one model degrades on
//! week- and month-old data; folding 10–40 high-confidence samples back in
//! (incremental learning) recovers the accuracy.

use crate::cache::Record;
use crate::context::Context;
use crate::exp::{dataset, evaluate, fit, is_default_setting, Label};
use crate::report::{pct, ExperimentResult};
use headtalk::facing::FacingDefinition;
use headtalk::orientation::ModelKind;
use ht_ml::incremental::incremental_round;
use ht_ml::Dataset;

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when incremental learning fails to improve on the
/// degraded baseline.
pub fn run(ctx: &Context) -> Result<ExperimentResult, String> {
    let def = FacingDefinition::Definition4;
    // The day-one model: the default setting of Dataset-1, both sessions.
    let base = dataset(&ctx.dataset1(), Label::Facing(def), is_default_setting)?;
    let det0 = fit(&base, ModelKind::Svm).map_err(|e| e.to_string())?;
    let d3 = ctx.dataset3();
    let week: Vec<Record> = d3
        .iter()
        .filter(|r| r.spec.temporal_drift < 0.2)
        .cloned()
        .collect();
    let month: Vec<Record> = d3
        .iter()
        .filter(|r| r.spec.temporal_drift >= 0.2)
        .cloned()
        .collect();

    let mut res = ExperimentResult::new(
        "fig15",
        "Fig. 15 / §IV-B9: temporal stability and incremental learning",
        "day-one model degrades on week/month-old data; adding 10–40 high-confidence samples recovers most of the loss",
    );

    for (name, aged, paper_base) in [
        ("one week", &week, "81.25%"),
        ("one month", &month, "83.19%"),
    ] {
        let acc0 = evaluate(&det0, aged, def, |_| true).accuracy();
        res.push_row(
            format!("{name}, no adaptation"),
            paper_base,
            pct(acc0),
            Some(acc0),
        );
        // Incremental rounds: self-label the aged data with confidence
        // >= 80% and add the first N samples, as the paper sweeps 10..40.
        let mut pool = Dataset::new(base.dim());
        for r in aged {
            // Unlabeled view: dummy label, replaced by self-training.
            pool.push(r.vector.clone(), 0).map_err(|e| e.to_string())?;
        }
        let mut recovered = Vec::new();
        for n_new in [10usize, 20, 30, 40] {
            let (det, _) =
                incremental_round(&det0, &mut base.clone(), &pool, 0.8, n_new, |train| {
                    fit(train, ModelKind::Svm)
                })
                .map_err(|e| e.to_string())?;
            let acc = evaluate(&det, aged, def, |_| true).accuracy();
            recovered.push(acc);
            res.push_row(
                format!("{name}, +{n_new} samples"),
                match n_new {
                    10 => "≈90–92%",
                    40 => "≈95%",
                    _ => "",
                },
                pct(acc),
                Some(acc),
            );
        }
        let best = ht_dsp::stats::max(&recovered);
        if best + 0.005 < acc0 {
            return Err(format!(
                "{name}: adaptation hurt ({} -> {})",
                pct(acc0),
                pct(best)
            ));
        }
    }
    res.note("Self-labeled additions use the ≥80% confidence rule of §IV-B9; base model is the Definition-4 default-setting SVM.");
    Ok(res)
}
