//! One module per reproduced table/figure, plus the evaluation protocol
//! they share.
//!
//! The protocol lives here and nowhere else: `Label` says how a capture is
//! labeled, `dataset` builds a labeled training set, `fit` and `train` fit
//! a detector, `evaluate` and `score` score one, and `cross_session` runs
//! the paper's §IV-A2 protocol: train on session k of a setting, score on
//! session 1 − k, for k = 0 and 1.

pub mod ablation;
pub mod ambient;
pub mod crossenv;
pub mod distance;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod liveness;
pub mod loudness;
pub mod models;
pub mod objects;
pub mod placement;
pub mod runtime;
pub mod sitting;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

use crate::cache::Record;
use crate::context::Context;
use headtalk::facing::FacingDefinition;
use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::HeadTalkError;
use ht_acoustics::array::Device;
use ht_datagen::placements::RoomKind;
use ht_datagen::CaptureSpec;
use ht_ml::metrics::Confusion;
use ht_ml::{Classifier, Dataset};
use ht_speech::WakeWord;

/// The default evaluation setting: D2, lab, "Computer" (§IV-A: "by default,
/// the utterance 'Computer' and device D2 are used").
pub(crate) fn is_default_setting(s: &CaptureSpec) -> bool {
    s.room == RoomKind::Lab && s.device == Device::D2 && s.wake_word == WakeWord::Computer
}

/// How the protocol labels a capture.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Label {
    /// Facing (1) / non-facing (0) under a facing definition; angles the
    /// definition leaves out get no label.
    Facing(FacingDefinition),
    /// Live human (1) / mechanical replay (0).
    Live,
}

impl Label {
    fn of(self, spec: &CaptureSpec) -> Option<usize> {
        match self {
            Label::Facing(def) => def.label(spec.angle_deg),
            Label::Live => Some(usize::from(spec.source.is_live())),
        }
    }
}

/// The records passing `filter` that `label` labels, as a dataset.
pub(crate) fn dataset(
    records: &[Record],
    label: Label,
    filter: impl Fn(&CaptureSpec) -> bool,
) -> Result<Dataset, String> {
    let (feats, labels): (Vec<Vec<f64>>, Vec<usize>) = records
        .iter()
        .filter(|r| filter(&r.spec))
        .filter_map(|r| Some((r.vector.clone(), label.of(&r.spec)?)))
        .unzip();
    if feats.is_empty() {
        return Err("no training samples after filtering".into());
    }
    Dataset::from_parts(feats, labels).map_err(|e| e.to_string())
}

/// Fits a `kind` detector with the experiments' one model seed.
pub(crate) fn fit(ds: &Dataset, kind: ModelKind) -> Result<OrientationDetector, HeadTalkError> {
    OrientationDetector::fit(ds, kind, 7)
}

/// Trains an orientation detector on the records passing `filter`, labeled
/// under `def`.
pub(crate) fn train(
    records: &[Record],
    def: FacingDefinition,
    filter: impl Fn(&CaptureSpec) -> bool,
    kind: ModelKind,
) -> Result<OrientationDetector, String> {
    fit(&dataset(records, Label::Facing(def), filter)?, kind).map_err(|e| e.to_string())
}

/// Evaluates a detector on the records passing `filter`, labeled under
/// `def`. The confusion matrix is empty when nothing matched.
pub(crate) fn evaluate(
    det: &OrientationDetector,
    records: &[Record],
    def: FacingDefinition,
    filter: impl Fn(&CaptureSpec) -> bool,
) -> Confusion {
    let (labels, preds): (Vec<usize>, Vec<usize>) = records
        .iter()
        .filter(|r| filter(&r.spec))
        .filter_map(|r| Some((Label::Facing(def).of(&r.spec)?, det.predict(&r.vector))))
        .unzip();
    Confusion::from_predictions(&labels, &preds)
}

/// Scores a model on a labeled dataset.
pub(crate) fn score(model: &impl Classifier, ds: &Dataset) -> Confusion {
    Confusion::from_predictions(ds.labels(), &model.predict_batch(ds.features()))
}

/// The paper's cross-session protocol (§IV-A2) on one setting: for k = 0,
/// then k = 1, trains a `kind` detector on session k of the records
/// `setting` keeps, labeled under `def`, and hands it to `on_test` with
/// the test split, session 1 − k of the same setting. Returns the two
/// results in that order.
///
/// Each test split is the other direction's training split, so when
/// either session has no labeled capture this returns an error instead
/// of scoring an empty split.
pub(crate) fn cross_session<T>(
    records: &[Record],
    def: FacingDefinition,
    kind: ModelKind,
    setting: impl Fn(&CaptureSpec) -> bool,
    mut on_test: impl FnMut(&OrientationDetector, &dyn Fn(&CaptureSpec) -> bool) -> T,
) -> Result<[T; 2], String> {
    let mut run = |train_session: u32| -> Result<T, String> {
        let det = train(
            records,
            def,
            |s| setting(s) && s.session == train_session,
            kind,
        )?;
        Ok(on_test(&det, &|s| {
            setting(s) && s.session == 1 - train_session
        }))
    };
    Ok([run(0)?, run(1)?])
}

/// The evaluation of one (device, room, wake-word, test-session) cell of
/// the paper's 36-value sensitivity grid.
#[derive(Debug, Clone)]
pub(crate) struct GridCell {
    pub device: Device,
    pub room: RoomKind,
    pub word: WakeWord,
    pub f1: f64,
    /// Accuracy restricted to each distance (1, 3, 5 m).
    pub per_distance: [f64; 3],
}

/// Computes the full 36-cell grid (2 sessions × 3 devices × 2 rooms ×
/// 3 wake words) used by the distance / wake-word / device / environment
/// analyses (§IV-B2–B5). Each setting runs the cross-session protocol under
/// Definition-4.
pub(crate) fn main_grid(ctx: &Context) -> Result<Vec<GridCell>, String> {
    let records = ctx.dataset1();
    let def = FacingDefinition::Definition4;
    let mut cells = Vec::with_capacity(36);
    for device in Device::ALL {
        for room in RoomKind::ALL {
            for word in WakeWord::ALL {
                let setting =
                    |s: &CaptureSpec| s.device == device && s.room == room && s.wake_word == word;
                let [tested_on_1, tested_on_0] =
                    cross_session(&records, def, ModelKind::Svm, setting, |det, test| {
                        let per_distance = [1.0, 3.0, 5.0].map(|d| {
                            evaluate(det, &records, def, |s| {
                                test(s) && s.location.distance_m == d
                            })
                            .accuracy()
                        });
                        GridCell {
                            device,
                            room,
                            word,
                            f1: evaluate(det, &records, def, test).f1(),
                            per_distance,
                        }
                    })?;
                // Test session 0 first: the per-factor means sum the cells
                // in this order.
                cells.push(tested_on_0);
                cells.push(tested_on_1);
            }
        }
    }
    Ok(cells)
}

/// Trains the paper's "Section IV-A2 model" used by the sensitivity
/// experiments: Definition-4, D2, lab, "Computer", both sessions.
pub(crate) fn default_model(ctx: &Context) -> Result<OrientationDetector, String> {
    train(
        &ctx.dataset1(),
        FacingDefinition::Definition4,
        is_default_setting,
        ModelKind::Svm,
    )
}

/// Mean ± std formatted like the paper ("98.38 ± 2.41 %").
pub(crate) fn mean_std_pct(values: &[f64]) -> String {
    format!(
        "{:.2} ± {:.2}%",
        100.0 * ht_dsp::stats::mean(values),
        100.0 * ht_dsp::stats::std_dev(values)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_datagen::SourceKind;
    use ht_speech::replay::SpeakerModel;
    use ht_speech::voice::VoiceProfile;

    /// A D2/lab/"Computer" record at `angle_deg` in `session`. Its feature
    /// vector points along +x when facing and −x otherwise, flipped in
    /// session 1, so a model scored on its own training session is right
    /// and one scored on the other session is wrong.
    fn record(seed: u64, angle_deg: f64, session: u32) -> Record {
        let spec = CaptureSpec {
            angle_deg,
            session,
            ..CaptureSpec::baseline(seed)
        };
        let facing = angle_deg.abs() <= 30.0;
        let sign = if facing == (session == 0) { 1.0 } else { -1.0 };
        let jitter = 0.1 * (seed % 7) as f64;
        Record {
            spec,
            vector: vec![sign * (1.0 + jitter), jitter],
        }
    }

    fn two_sessions() -> Vec<Record> {
        let mut records = Vec::new();
        for session in 0..2 {
            for (i, angle) in [0.0, 15.0, 30.0, 45.0, 90.0, 135.0, 180.0]
                .into_iter()
                .enumerate()
            {
                records.push(record(10 * u64::from(session) + i as u64, angle, session));
            }
        }
        records
    }

    #[test]
    fn labels_follow_the_definition_or_the_source() {
        let mut records = vec![record(0, 0.0, 0), record(1, 45.0, 0), record(2, 90.0, 0)];
        records[2].spec.source = SourceKind::Replay {
            model: SpeakerModel::SonySrsX5,
            voice: VoiceProfile::adult_male(),
        };
        let def4 = dataset(
            &records,
            Label::Facing(FacingDefinition::Definition4),
            |_| true,
        )
        .unwrap();
        // Definition-4 leaves ±45° out; Definition-1 counts it as facing.
        assert_eq!(def4.labels(), &[1, 0]);
        assert_eq!(
            def4.features(),
            &[records[0].vector.clone(), records[2].vector.clone()]
        );
        let def1 = dataset(
            &records,
            Label::Facing(FacingDefinition::Definition1),
            |_| true,
        )
        .unwrap();
        assert_eq!(def1.labels(), &[1, 1, 0]);
        let live = dataset(&records, Label::Live, |_| true).unwrap();
        assert_eq!(live.labels(), &[1, 1, 0]);
        let filtered = dataset(&records, Label::Live, |s| s.seed != 1).unwrap();
        assert_eq!(filtered.labels(), &[1, 0]);
    }

    #[test]
    fn cross_session_trains_on_k_and_tests_on_the_other_session() {
        let mut records = two_sessions();
        // Off-setting captures take part in neither split.
        let mut other = record(99, 0.0, 1);
        other.spec.device = Device::D1;
        records.push(other);
        let def = FacingDefinition::Definition4;
        let splits = cross_session(
            &records,
            def,
            ModelKind::Svm,
            |s| s.device == Device::D2,
            |det, test| {
                let seeds: Vec<u64> = records
                    .iter()
                    .filter(|r| test(&r.spec))
                    .map(|r| r.spec.seed)
                    .collect();
                (seeds, evaluate(det, &records, def, test))
            },
        )
        .unwrap();
        assert_eq!(splits[0].0, (10..17).collect::<Vec<u64>>());
        assert_eq!(splits[1].0, (0..7).collect::<Vec<u64>>());
        for (_, c) in &splits {
            // Six labeled test captures (±45° is unlabeled), every one
            // misread because the test session's features are flipped.
            assert_eq!(c.total(), 6);
            assert_eq!(c.accuracy(), 0.0);
        }
        // Scored on its own training session, the same model is right.
        let det = train(&records, def, |s| s.session == 0, ModelKind::Svm).unwrap();
        assert_eq!(
            evaluate(&det, &records, def, |s| s.session == 0).accuracy(),
            1.0
        );
    }

    #[test]
    fn empty_splits_neither_panic_nor_score() {
        let def = FacingDefinition::Definition4;
        let one_session: Vec<Record> = two_sessions()
            .into_iter()
            .filter(|r| r.spec.session == 0)
            .collect();
        let det = train(&one_session, def, |_| true, ModelKind::Svm).unwrap();
        let empty = evaluate(&det, &one_session, def, |s| s.session == 1);
        assert_eq!(empty.total(), 0);
        assert_eq!(empty.accuracy(), 0.0);
        // Session 1 is empty: it can train nothing, so the protocol fails
        // instead of scoring a model on no captures.
        let res = cross_session(
            &one_session,
            def,
            ModelKind::Svm,
            |_| true,
            |det, test| evaluate(det, &one_session, def, test).accuracy(),
        );
        assert_eq!(res.unwrap_err(), "no training samples after filtering");
    }

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = crate::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        let ctx = Context { scale: 1 };
        assert_eq!(
            crate::run_experiment("no-such-id", &ctx).unwrap_err(),
            "unknown experiment `no-such-id`"
        );
    }
}
