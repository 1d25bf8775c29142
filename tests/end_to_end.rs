//! Cross-crate integration tests: speech synthesis → room acoustics →
//! feature extraction → classification → privacy control, exercised as one
//! system on deliberately small workloads.

use headtalk::control::{PrivacyController, VaEvent, VaResponse};
use headtalk::facing::FacingDefinition;
use headtalk::liveness::LivenessDetector;
use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::{HeadTalk, PipelineConfig};
use ht_datagen::{CaptureSpec, SourceKind};
use ht_ml::Dataset;
use ht_speech::replay::SpeakerModel;
use ht_speech::voice::VoiceProfile;

/// The shared pipeline: building it renders ~50 captures and trains two
/// models, so all tests share one instance.
fn pipeline() -> &'static HeadTalk {
    static PIPELINE: std::sync::OnceLock<HeadTalk> = std::sync::OnceLock::new();
    PIPELINE.get_or_init(build_pipeline)
}

/// Builds a small but real pipeline: everything is trained on rendered
/// audio, no mocks anywhere.
fn build_pipeline() -> HeadTalk {
    let config = PipelineConfig::default();
    let def = FacingDefinition::Definition4;

    let mut orient_feats = Vec::new();
    let mut orient_labels = Vec::new();
    for (i, angle) in [0.0, 15.0, -30.0, 30.0, 90.0, -90.0, 135.0, 180.0]
        .into_iter()
        .enumerate()
    {
        // Four reps per angle: the frame-averaged Welch features carry less
        // per-capture noise than the old whole-capture transform, so the SVM
        // boundary is estimated from a few more renders per angle to keep
        // every held-out probe (incl. the 180° rejections) on the right side.
        for rep in 0..4u64 {
            let spec = CaptureSpec {
                angle_deg: angle,
                seed: 100 + i as u64 * 4 + rep,
                ..CaptureSpec::baseline(0)
            };
            let channels = spec.render().expect("render succeeds");
            let f = HeadTalk::orientation_features(&config, &channels).expect("features");
            if let Some(l) = def.label(angle) {
                orient_feats.push(f);
                orient_labels.push(l);
            }
        }
    }
    let orientation = OrientationDetector::fit(
        &Dataset::from_parts(orient_feats, orient_labels).expect("dataset"),
        ModelKind::Svm,
        7,
    )
    .expect("orientation training");

    let mut live_ds = Dataset::new(config.liveness_input_len);
    for i in 0..16u64 {
        let human = CaptureSpec::baseline(300 + i);
        live_ds
            .push(
                HeadTalk::liveness_input(&config, &human.render().expect("render")).expect("prep"),
                1,
            )
            .expect("push");
        let replay = CaptureSpec {
            source: SourceKind::Replay {
                model: SpeakerModel::SonySrsX5,
                voice: VoiceProfile::adult_male(),
            },
            ..CaptureSpec::baseline(400 + i)
        };
        live_ds
            .push(
                HeadTalk::liveness_input(&config, &replay.render().expect("render")).expect("prep"),
                0,
            )
            .expect("push");
    }
    let liveness = LivenessDetector::fit(&live_ds, 24, 8).expect("liveness training");
    HeadTalk::new(config, liveness, orientation).expect("pipeline assembly")
}

#[test]
fn facing_human_is_accepted_and_drives_the_controller() {
    let pipeline = pipeline();
    let spec = CaptureSpec::baseline(9100);
    let decision = pipeline
        .decide_batch(&spec.render().expect("render"))
        .expect("decision")
        .0;
    assert!(decision.live, "a live facing human must pass liveness");
    assert!(decision.facing, "a 0° speaker must be classified facing");
    assert!(decision.accepted());

    let mut va = PrivacyController::new();
    va.handle(VaEvent::EnterHeadTalkMode);
    let r = va.handle(VaEvent::WakeDetected {
        live: decision.live,
        facing: decision.facing,
    });
    assert_eq!(r, VaResponse::SessionOpened);
}

#[test]
fn backward_human_is_soft_muted() {
    let pipeline = pipeline();
    let spec = CaptureSpec {
        angle_deg: 180.0,
        ..CaptureSpec::baseline(9200)
    };
    let decision = pipeline
        .decide_batch(&spec.render().expect("render"))
        .expect("decision")
        .0;
    assert!(
        !decision.facing,
        "a 180° speaker must not be classified facing"
    );
    assert!(!decision.accepted());

    let mut va = PrivacyController::new();
    va.handle(VaEvent::EnterHeadTalkMode);
    let r = va.handle(VaEvent::WakeDetected {
        live: decision.live,
        facing: decision.facing,
    });
    assert_eq!(r, VaResponse::SoftMuted);
}

#[test]
fn replay_attack_is_rejected() {
    let pipeline = pipeline();
    // The attacker replays the wake word through a speaker *facing the VA*
    // — orientation alone would accept it; liveness must not.
    let spec = CaptureSpec {
        source: SourceKind::Replay {
            model: SpeakerModel::SonySrsX5,
            voice: VoiceProfile::adult_male(),
        },
        ..CaptureSpec::baseline(9300)
    };
    let decision = pipeline
        .decide_batch(&spec.render().expect("render"))
        .expect("decision")
        .0;
    assert!(!decision.live, "replayed audio must fail liveness");
    assert!(!decision.accepted());
}

#[test]
fn decisions_are_deterministic() {
    let pipeline = pipeline();
    let spec = CaptureSpec::baseline(9400);
    let channels = spec.render().expect("render");
    let a = pipeline.decide_batch(&channels).expect("decision").0;
    let b = pipeline.decide_batch(&channels).expect("decision").0;
    assert_eq!(a, b);
}

#[test]
fn all_three_devices_flow_through_the_pipeline() {
    // Feature widths differ per device; each device's pipeline must accept
    // its own captures end to end.
    for device in ht_acoustics::array::Device::ALL {
        let config = PipelineConfig::for_device(device);
        let spec = CaptureSpec {
            device,
            ..CaptureSpec::baseline(9500)
        };
        let channels = spec.render().expect("render");
        let f = HeadTalk::orientation_features(&config, &channels).expect("features");
        assert_eq!(
            f.len(),
            headtalk::features::feature_width(4, &config),
            "{device:?}"
        );
    }
}
