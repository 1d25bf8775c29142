//! Feature ablation (design-choice validation, extending §III-B3): how much
//! do the two feature families — speech reverberation (SRP/GCC/TDoA) and
//! speech directivity (HLBR + low-band chunks) — contribute individually?
//!
//! The paper motivates both (Insights 1 and 2) but only evaluates the full
//! set; this ablation confirms each family alone carries signal and the
//! combination is at least as good as either alone.

use crate::cache::Record;
use crate::context::Context;
use crate::exp::{cross_session, evaluate, is_default_setting};
use crate::report::{pct, ExperimentResult};
use headtalk::facing::FacingDefinition;
use headtalk::orientation::ModelKind;
use headtalk::PipelineConfig;

/// Index where the directivity block starts for a 4-mic feature vector.
fn directivity_start(cfg: &PipelineConfig) -> usize {
    let pairs = 6; // C(4,2)
    let window = 2 * cfg.max_lag + 1;
    (headtalk::config::SRP_PEAKS + 5) + pairs * (window + 1 + 5)
}

fn slice_features(records: &[Record], range: std::ops::Range<usize>) -> Vec<Record> {
    records
        .iter()
        .map(|r| Record {
            spec: r.spec,
            vector: r.vector[range.clone()].to_vec(),
        })
        .collect()
}

fn cross_session_acc(records: &[Record]) -> Result<f64, String> {
    let def = FacingDefinition::Definition4;
    let accs = cross_session(
        records,
        def,
        ModelKind::Svm,
        |_| true,
        |det, test| evaluate(det, records, def, test).accuracy(),
    )?;
    Ok(ht_dsp::stats::mean(&accs))
}

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when either family alone is at chance, or the full set
/// is clearly worse than both ablations.
pub fn run(ctx: &Context) -> Result<ExperimentResult, String> {
    let cfg = PipelineConfig::default();
    let mut records = ctx.dataset1();
    records.retain(|r| is_default_setting(&r.spec));

    let split = directivity_start(&cfg);
    let width = records
        .first()
        .map(|r| r.vector.len())
        .ok_or("no records")?;

    let full = cross_session_acc(&records)?;
    let reverb_only = cross_session_acc(&slice_features(&records, 0..split))?;
    let directivity_only = cross_session_acc(&slice_features(&records, split..width))?;

    let mut res = ExperimentResult::new(
        "ablation",
        "Feature ablation: reverberation vs directivity families (extension)",
        "each family alone carries orientation signal (well above 50%); the full feature set matches or beats both",
    );
    res.push_row(
        "full feature set (§III-B3)",
        "96.95% (Table III, Definition-4)",
        pct(full),
        Some(full),
    );
    res.push_row(
        "reverberation only (SRP + GCC + TDoA + stats)",
        "(not evaluated in the paper)",
        pct(reverb_only),
        Some(reverb_only),
    );
    res.push_row(
        "directivity only (HLBR + low-band chunks)",
        "(not evaluated in the paper)",
        pct(directivity_only),
        Some(directivity_only),
    );
    if reverb_only < 0.6 || directivity_only < 0.6 {
        return Err(format!(
            "an ablated family is near chance: reverb {}, directivity {}",
            pct(reverb_only),
            pct(directivity_only)
        ));
    }
    if full + 0.02 < reverb_only.max(directivity_only) {
        return Err(format!(
            "full set ({}) clearly worse than an ablation ({} / {})",
            pct(full),
            pct(reverb_only),
            pct(directivity_only)
        ));
    }
    res.note("Cross-session protocol on the default setting; feature blocks sliced from the cached §III-B3 vectors.");
    Ok(res)
}
