//! Table III — accuracy for the four facing/non-facing definitions under
//! cross-session evaluation (D2, lab, "Computer", with the extra ±75°
//! captures). Definition-4 should win.

use crate::context::Context;
use crate::exp::{cross_session, evaluate, is_default_setting};
use crate::report::{pct, ExperimentResult};
use headtalk::facing::FacingDefinition;
use headtalk::orientation::ModelKind;

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when training fails or Definition-4 does not achieve
/// the best accuracy.
pub fn run(ctx: &Context) -> Result<ExperimentResult, String> {
    let mut records = ctx.dataset1();
    records.retain(|r| is_default_setting(&r.spec));
    records.extend(ctx.table3_extra());

    // The paper's Table III is an image; only Definition-4's numbers are
    // quoted in the prose (§IV-A2). We do not invent the others.
    let paper = [
        ("Definition-1", "(below Definition-4)"),
        ("Definition-2", "(below Definition-4)"),
        ("Definition-3", "(below Definition-4)"),
        ("Definition-4", "96.95% (FRR 3.33%, FAR 2.78%) — best"),
    ];

    let mut res = ExperimentResult::new(
        "table3",
        "Table III: accuracy per facing/non-facing definition",
        "accuracy increases from Definition-1 to Definition-4 as borderline angles are excluded; Definition-4 is best",
    );

    let mut accs = Vec::new();
    for (def, (name, paper_row)) in FacingDefinition::ALL.into_iter().zip(paper) {
        let cs = cross_session(
            &records,
            def,
            ModelKind::Svm,
            |_| true,
            |det, test| evaluate(det, &records, def, test),
        )?;
        let acc = ht_dsp::stats::mean(&cs.map(|c| c.accuracy()));
        let frr = ht_dsp::stats::mean(&cs.map(|c| c.frr()));
        let far = ht_dsp::stats::mean(&cs.map(|c| c.far()));
        res.push_row(
            name,
            paper_row,
            format!("{} (FRR {}, FAR {})", pct(acc), pct(frr), pct(far)),
            Some(acc),
        );
        accs.push(acc);
    }
    let best = accs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    if best != 3 && (accs[3] - accs[best]).abs() > 0.01 {
        return Err(format!(
            "Definition-4 not best: accuracies {:?}",
            accs.iter().map(|a| pct(*a)).collect::<Vec<_>>()
        ));
    }
    res.note("Cross-session: train one session, test the other, averaged over both directions.");
    res.note("Includes the extra ±75° captures, as in the paper's Table III protocol.");
    Ok(res)
}
