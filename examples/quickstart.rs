//! Quickstart: assemble and use a complete HeadTalk pipeline.
//!
//! This example trains a *small* pipeline (a few dozen simulated captures)
//! so it finishes in under a minute; the full reproduction protocol lives in
//! the `headtalk-repro` binary.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use headtalk::facing::FacingDefinition;
use headtalk::liveness::LivenessDetector;
use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::{HeadTalk, PipelineConfig};
use ht_datagen::{CaptureSpec, SourceKind};
use ht_ml::Dataset;
use ht_speech::replay::SpeakerModel;
use ht_speech::voice::VoiceProfile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = PipelineConfig::default();
    println!("HeadTalk quickstart — training a miniature pipeline…");

    // ── 1. Orientation detector ────────────────────────────────────────────
    // Render a handful of captures at facing and non-facing angles and
    // train the Definition-4 SVM on their features.
    let def = FacingDefinition::Definition4;
    let mut orient_feats = Vec::new();
    let mut orient_labels = Vec::new();
    for (i, angle) in [
        0.0, 15.0, -15.0, 30.0, -30.0, 90.0, -90.0, 135.0, -135.0, 180.0,
    ]
    .into_iter()
    .enumerate()
    {
        for rep in 0..3u64 {
            let spec = CaptureSpec {
                angle_deg: angle,
                seed: 1000 + i as u64 * 10 + rep,
                ..CaptureSpec::baseline(0)
            };
            let channels = spec.render()?;
            let features = HeadTalk::orientation_features(&config, &channels)?;
            if let Some(label) = def.label(angle) {
                orient_feats.push(features);
                orient_labels.push(label);
            }
        }
    }
    let orientation = OrientationDetector::fit(
        &Dataset::from_parts(orient_feats, orient_labels)?,
        ModelKind::Svm,
        7,
    )?;
    println!("  orientation detector trained");

    // ── 2. Liveness detector ──────────────────────────────────────────────
    let mut live_ds = Dataset::new(config.liveness_input_len);
    for i in 0..12u64 {
        let human = CaptureSpec::baseline(2000 + i);
        live_ds.push(HeadTalk::liveness_input(&config, &human.render()?)?, 1)?;
        let replay = CaptureSpec {
            source: SourceKind::Replay {
                model: SpeakerModel::SonySrsX5,
                voice: VoiceProfile::adult_male(),
            },
            ..CaptureSpec::baseline(3000 + i)
        };
        live_ds.push(HeadTalk::liveness_input(&config, &replay.render()?)?, 0)?;
    }
    let liveness = LivenessDetector::fit(&live_ds, 15, 42)?;
    println!("  liveness detector trained");

    // ── 3. The assembled pipeline ──────────────────────────────────────────
    let pipeline = HeadTalk::new(config, liveness, orientation)?;
    let trials = [
        ("live human, facing (0°)", CaptureSpec::baseline(9001)),
        (
            "live human, facing away (180°)",
            CaptureSpec {
                angle_deg: 180.0,
                ..CaptureSpec::baseline(9002)
            },
        ),
        (
            "TV speaker replaying the wake word",
            CaptureSpec {
                source: SourceKind::Replay {
                    model: SpeakerModel::SonySrsX5,
                    voice: VoiceProfile::adult_male(),
                },
                ..CaptureSpec::baseline(9003)
            },
        ),
    ];
    println!("\nwake-word decisions:");
    for (label, spec) in trials {
        let (decision, _) = pipeline.decide_batch(&spec.render()?)?;
        println!(
            "  {label}: live={} (p={:.2}) facing={} → {}",
            decision.live,
            decision.live_probability,
            decision.facing,
            if decision.accepted() {
                "ACCEPTED (forwarded to cloud)"
            } else {
                "soft-muted"
            }
        );
    }
    Ok(())
}
