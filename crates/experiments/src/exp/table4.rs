//! Table IV — performance vs. the number of microphones used (D2, lab,
//! max-spread selection order). More channels help up to 5; 6 dips
//! slightly.

use crate::context::Context;
use crate::exp::{cross_session, evaluate};
use crate::report::{pct, ExperimentResult};
use headtalk::facing::FacingDefinition;
use headtalk::orientation::ModelKind;

/// The paper's Table IV channel subsets (1-indexed in the paper; 0-indexed
/// here).
pub fn subsets() -> Vec<(usize, Vec<usize>)> {
    vec![
        (2, vec![0, 1]),
        (3, vec![0, 1, 4]),
        (4, vec![0, 1, 3, 4]),
        (5, vec![0, 1, 2, 3, 4]),
        (6, vec![0, 1, 2, 3, 4, 5]),
    ]
}

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when more microphones strictly hurt (2 mics beating 5
/// by a clear margin).
pub fn run(ctx: &Context) -> Result<ExperimentResult, String> {
    let paper = [
        "95.70 / 95.60 / 95.83 / 95.71",
        "95.83 / 94.60 / 97.22 / 95.90",
        "96.67 / 96.77 / 96.67 / 96.70",
        "98.61 / 100 / 97.22 / 98.59",
        "97.22 / 97.23 / 97.22 / 97.22",
    ];
    let mut res = ExperimentResult::new(
        "table4",
        "Table IV: accuracy/precision/recall/F1 per microphone count (D2, lab)",
        "performance improves with channels up to 5 microphones, then dips slightly at 6",
    );
    let def = FacingDefinition::Definition4;
    let mut accs = Vec::new();
    for ((n, mics), paper_row) in subsets().into_iter().zip(paper) {
        let records = ctx.table4_subset_features(&mics);
        let cs = cross_session(
            &records,
            def,
            ModelKind::Svm,
            |_| true,
            |det, test| evaluate(det, &records, def, test),
        )?;
        let acc = ht_dsp::stats::mean(&cs.map(|c| c.accuracy()));
        res.push_row(
            format!("{n} mics [{mics:?}]"),
            format!("acc/P/R/F1 = {paper_row}"),
            format!(
                "{} / {} / {} / {}",
                pct(acc),
                pct(ht_dsp::stats::mean(&cs.map(|c| c.precision()))),
                pct(ht_dsp::stats::mean(&cs.map(|c| c.recall()))),
                pct(ht_dsp::stats::mean(&cs.map(|c| c.f1()))),
            ),
            Some(acc),
        );
        accs.push(acc);
    }
    // Shape check: the best subset uses more than 2 microphones.
    let best = accs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    if best == 0 && accs[0] > accs[3] + 0.02 {
        return Err(format!("2 microphones unexpectedly best: {accs:?}"));
    }
    res.note("Microphones selected in max-spread order from D2's six-mic ring (§IV-B6).");
    Ok(res)
}
