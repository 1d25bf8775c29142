//! Fig. 10 — per-angle accuracy of the Definition-4 model, including the
//! borderline angles (±45°, ±60°, ±75°) it was never trained on.

use crate::context::Context;
use crate::exp::{cross_session, is_default_setting};
use crate::report::{pct, ExperimentResult};
use headtalk::facing::{zone_of, FacingDefinition, FacingZone};
use headtalk::orientation::ModelKind;
use ht_ml::Classifier;

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when facing/non-facing angles fall below 85 % or the
/// borderline mean is not the worst.
pub fn run(ctx: &Context) -> Result<ExperimentResult, String> {
    let mut records = ctx.dataset1();
    records.retain(|r| is_default_setting(&r.spec));
    records.extend(ctx.table3_extra());

    let def = FacingDefinition::Definition4;
    let mut res = ExperimentResult::new(
        "fig10",
        "Fig. 10: detecting speaker orientation at different angles",
        "facing (|angle| ≤ 30°) and non-facing (|angle| ≥ 90°) accuracies above ~90%; borderline ±45°/±60°/±75° degraded (soft boundary)",
    );

    let angles = [0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0, 135.0, 180.0];
    // Per test split, each angle's accuracy against its zone's ground
    // truth (`None` when the split holds no capture at that angle).
    let splits = cross_session(
        &records,
        def,
        ModelKind::Svm,
        |_| true,
        |det, test| {
            angles.map(|a| {
                let (mut hits, mut total) = (0usize, 0usize);
                for r in records
                    .iter()
                    .filter(|r| test(&r.spec) && (r.spec.angle_deg.abs() - a).abs() <= 1.0)
                {
                    let truth = FacingDefinition::ground_truth(r.spec.angle_deg);
                    hits += usize::from(det.predict(&r.vector) == truth);
                    total += 1;
                }
                (total > 0).then(|| hits as f64 / total as f64)
            })
        },
    )?;
    let mut zone_scores: std::collections::HashMap<&'static str, Vec<f64>> =
        std::collections::HashMap::new();
    for (k, &a) in angles.iter().enumerate() {
        let dir_acc: Vec<f64> = splits.iter().filter_map(|split| split[k]).collect();
        let acc = ht_dsp::stats::mean(&dir_acc);
        let zone = match zone_of(a) {
            FacingZone::Facing => "facing",
            FacingZone::Blind => "borderline",
            FacingZone::NonFacing => "non-facing",
        };
        zone_scores.entry(zone).or_default().push(acc);
        res.push_row(
            format!("±{a}° ({zone})"),
            match zone {
                "borderline" => "degraded (soft boundary)",
                _ => "above 90%",
            },
            pct(acc),
            Some(acc),
        );
    }

    let mean_of =
        |z: &str| ht_dsp::stats::mean(zone_scores.get(z).map(Vec::as_slice).unwrap_or(&[]));
    let facing = mean_of("facing");
    let nonfacing = mean_of("non-facing");
    let borderline = mean_of("borderline");
    if facing < 0.85 || nonfacing < 0.85 {
        return Err(format!(
            "trained zones too weak: facing {}, non-facing {}",
            pct(facing),
            pct(nonfacing)
        ));
    }
    if borderline >= facing.min(nonfacing) {
        return Err(format!(
            "borderline ({}) should be the weakest zone",
            pct(borderline)
        ));
    }
    res.note("Ground truth per angle is the Fig. 4b zone (facing = |angle| ≤ 30°).");
    Ok(res)
}
