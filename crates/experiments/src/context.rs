//! Shared experiment context: the scale knob plus lazily-computed,
//! disk-cached feature tables for every dataset.

use crate::cache::{self, Record};
use crate::exp::{is_default_setting, table4};
use headtalk::preprocess::Preprocessor;
use headtalk::{features, HeadTalk, HeadTalkError, PipelineConfig};
use ht_acoustics::array::Device;
use ht_datagen::placements::Placement;
use ht_datagen::{datasets, CaptureSpec};

/// Experiment-wide configuration. Rendering runs on ht-par's global pool,
/// which `HT_THREADS` sizes; thanks to the ht-par determinism contract the
/// width only affects wall-clock time, never the rendered features.
#[derive(Debug, Clone, Copy)]
pub struct Context {
    /// Keep every `scale`-th sample (1 = the paper's full counts). Useful
    /// for quick passes; cache entries are scale-specific.
    pub scale: usize,
}

impl Default for Context {
    fn default() -> Self {
        Context { scale: 1 }
    }
}

/// What a feature cache stores per capture, computed from the capture
/// device's configuration and the rendered channels:
/// [`HeadTalk::orientation_features`], [`HeadTalk::liveness_input`] or
/// Table IV's `subset_features`.
type Extract = fn(&PipelineConfig, &[Vec<f64>]) -> Result<Vec<f64>, HeadTalkError>;

impl Context {
    /// Reads `HT_SCALE` from the environment.
    pub fn from_env() -> Context {
        let mut ctx = Context::default();
        if let Ok(s) = std::env::var("HT_SCALE") {
            if let Ok(v) = s.parse::<usize>() {
                ctx.scale = v.max(1);
            }
        }
        ctx
    }

    /// Applies the scale knob: keeps every `scale`-th spec.
    pub fn subsample(&self, specs: Vec<CaptureSpec>) -> Vec<CaptureSpec> {
        if self.scale <= 1 {
            return specs;
        }
        specs
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % self.scale == 0)
            .map(|(_, s)| s)
            .collect()
    }

    fn cache_name(&self, base: &str) -> String {
        if self.scale <= 1 {
            base.to_string()
        } else {
            format!("{base}_s{}", self.scale)
        }
    }

    /// Renders the kept `specs` on `mics` (`None` = each device's default
    /// subset) and runs `extract` on every capture, cached under `name`
    /// and keyed by the kept specs.
    fn rendered(
        &self,
        name: &str,
        specs: Vec<CaptureSpec>,
        mics: Option<&[usize]>,
        extract: Extract,
    ) -> Vec<Record> {
        let specs = self.subsample(specs);
        cache::load_or_compute(&self.cache_name(name), &specs, |specs| {
            eprintln!("[cache] rendering {} captures for `{name}`…", specs.len());
            ht_par::par_map(specs, |spec| {
                let channels = spec.render_mics(mics).expect("valid scenario geometry");
                extract(&PipelineConfig::for_device(spec.device), &channels)
                    .expect("extraction on rendered audio")
            })
        })
    }

    // ---- Dataset accessors ------------------------------------------------

    /// Dataset-1 orientation features (all rooms/devices/words).
    pub fn dataset1(&self) -> Vec<Record> {
        self.rendered(
            "dataset1",
            datasets::dataset1(),
            None,
            HeadTalk::orientation_features,
        )
    }

    /// Dataset-3 (temporal) features.
    pub fn dataset3(&self) -> Vec<Record> {
        self.rendered(
            "dataset3",
            datasets::dataset3(),
            None,
            HeadTalk::orientation_features,
        )
    }

    /// Dataset-4 (ambient noise) features.
    pub fn dataset4(&self) -> Vec<Record> {
        self.rendered(
            "dataset4",
            datasets::dataset4(),
            None,
            HeadTalk::orientation_features,
        )
    }

    /// Dataset-5 (sitting) features.
    pub fn dataset5(&self) -> Vec<Record> {
        self.rendered(
            "dataset5",
            datasets::dataset5(),
            None,
            HeadTalk::orientation_features,
        )
    }

    /// Dataset-6 (loudness) features.
    pub fn dataset6(&self) -> Vec<Record> {
        self.rendered(
            "dataset6",
            datasets::dataset6(),
            None,
            HeadTalk::orientation_features,
        )
    }

    /// Dataset-7 (surrounding objects) features.
    pub fn dataset7(&self) -> Vec<Record> {
        self.rendered(
            "dataset7",
            datasets::dataset7(),
            None,
            HeadTalk::orientation_features,
        )
    }

    /// Dataset-8 (cross-user) features plus participant ids.
    pub fn dataset8(&self) -> (Vec<Record>, Vec<usize>) {
        let (specs, pids) = datasets::dataset8();
        let pids = self
            .subsample(specs.clone())
            .iter()
            .map(|s| {
                let idx = specs
                    .iter()
                    .position(|x| x.seed == s.seed)
                    .expect("spec present");
                pids[idx]
            })
            .collect();
        let records = self.rendered("dataset8", specs, None, HeadTalk::orientation_features);
        (records, pids)
    }

    /// The ±75° verification captures for Table III.
    pub fn table3_extra(&self) -> Vec<Record> {
        self.rendered(
            "table3_extra",
            datasets::table3_extra_angles(),
            None,
            HeadTalk::orientation_features,
        )
    }

    /// §IV-B7 placement captures for location B or C.
    pub fn placement(&self, placement: Placement) -> Vec<Record> {
        let name = match placement {
            Placement::LabB => "placement_b",
            Placement::LabC => "placement_c",
            _ => "placement_other",
        };
        self.rendered(
            name,
            datasets::placement_specs(placement),
            None,
            HeadTalk::orientation_features,
        )
    }

    /// The §IV-B6 captures (D2, lab, "Computer"), rendered once on all six
    /// microphones: one record list per [`table4::SUBSETS`] entry, in that
    /// order. The cache holds each capture's subset vectors back to back;
    /// they are split here by [`features::feature_width`].
    pub fn table4_subsets(&self) -> Vec<Vec<Record>> {
        let specs = datasets::dataset1()
            .into_iter()
            .filter(is_default_setting)
            .collect();
        let six: Vec<usize> = (0..6).collect();
        let joined = self.rendered("table4", specs, Some(&six), subset_features);
        let cfg = PipelineConfig::for_device(Device::D2);
        let mut start = 0;
        table4::SUBSETS
            .iter()
            .map(|mics| {
                let span = start..start + features::feature_width(mics.len(), &cfg);
                start = span.end;
                joined
                    .iter()
                    .map(|r| Record {
                        spec: r.spec,
                        vector: r.vector[span.clone()].to_vec(),
                    })
                    .collect()
            })
            .collect()
    }

    /// ASVspoof-sim liveness pre-training corpus (prepared inputs).
    pub fn liveness_asvspoof(&self) -> Vec<Record> {
        let (specs, _) = datasets::asvspoof_sim(300, 0xA5F);
        self.rendered("liveness_asvspoof", specs, None, HeadTalk::liveness_input)
    }

    /// The paper's "own data" liveness evaluation set: 1008 live samples
    /// (Dataset-1: D2, lab, the two Dataset-2 wake words) plus the 1008
    /// Dataset-2 Sony replays = 2016 samples (§IV-A1).
    pub fn liveness_own(&self) -> Vec<Record> {
        let mut specs: Vec<CaptureSpec> = datasets::dataset1()
            .into_iter()
            .filter(|s| {
                s.room == ht_datagen::placements::RoomKind::Lab
                    && s.device == Device::D2
                    && (s.wake_word == ht_speech::WakeWord::Computer
                        || s.wake_word == ht_speech::WakeWord::HeyAssistant)
            })
            .collect();
        specs.extend(datasets::dataset2());
        self.rendered("liveness_own", specs, None, HeadTalk::liveness_input)
    }
}

/// One six-mic capture's Table IV vectors: the channels are `filtfilt`
/// denoised once, then every [`table4::SUBSETS`] entry's orientation
/// features follow each other.
fn subset_features(cfg: &PipelineConfig, six: &[Vec<f64>]) -> Result<Vec<f64>, HeadTalkError> {
    let denoised = Preprocessor::new(cfg)?.denoise_channels(six)?;
    let mut joined = Vec::new();
    for mics in table4::SUBSETS {
        let sub: Vec<Vec<f64>> = mics.iter().map(|&m| denoised[m].clone()).collect();
        joined.extend(HeadTalk::orientation_features(cfg, &sub)?);
    }
    Ok(joined)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsample_keeps_every_kth() {
        let ctx = Context { scale: 3 };
        let specs: Vec<CaptureSpec> = (0..10).map(CaptureSpec::baseline).collect();
        let sub = ctx.subsample(specs);
        assert_eq!(sub.len(), 4); // indices 0, 3, 6, 9
        assert_eq!(sub[1].seed, 3);
    }

    #[test]
    fn scale_one_is_identity() {
        let ctx = Context { scale: 1 };
        let specs: Vec<CaptureSpec> = (0..5).map(CaptureSpec::baseline).collect();
        assert_eq!(ctx.subsample(specs).len(), 5);
    }

    #[test]
    fn cache_names_embed_scale() {
        let full = Context { scale: 1 };
        let quick = Context { scale: 8 };
        assert_eq!(full.cache_name("x"), "x");
        assert_eq!(quick.cache_name("x"), "x_s8");
    }

    #[test]
    fn env_parsing_defaults_are_sane() {
        let ctx = Context::from_env();
        assert!(ctx.scale >= 1);
    }
}
