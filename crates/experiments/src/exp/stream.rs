//! Streaming wake pipeline — frame-by-frame processing, checked against
//! the batch reference path.
//!
//! Not a paper table: this experiment validates the repo's streaming
//! engine (`headtalk::WakeStream`) at experiment scale. For every scenario
//! it streams the capture twice (hop-aligned chunks and ragged 997-sample
//! chunks) and demands the decision and feature vector be byte-identical
//! to `HeadTalk::decide_batch` over the same audio; the report rows pin
//! frames analyzed, the verdict, and a bitwise feature checksum.
//! Per-frame wall-clock latency is deliberately absent —
//! hardware-dependent numbers live in the `stream_latency` bench
//! (`BENCH_stream.json`), keeping this report byte-stable for the
//! golden-determinism contract.

use crate::context::Context;
use crate::exp::{dataset, default_model, Label};
use crate::report::ExperimentResult;
use headtalk::liveness::LivenessDetector;
use headtalk::stream::{StreamConfig, WakeVerdict};
use headtalk::{HeadTalk, PipelineConfig};
use ht_datagen::{CaptureSpec, SourceKind};
use ht_speech::replay::SpeakerModel;
use ht_speech::voice::VoiceProfile;

/// The streamed scenarios: facing/averted humans and replays, all on the
/// default device so the width matches the §IV-A2 orientation model.
fn scenarios() -> Vec<(&'static str, CaptureSpec)> {
    let replay = || SourceKind::Replay {
        model: SpeakerModel::SonySrsX5,
        voice: VoiceProfile::adult_male(),
    };
    vec![
        ("facing human (0°)", CaptureSpec::baseline(0x5E40)),
        (
            "oblique human (45°)",
            CaptureSpec {
                angle_deg: 45.0,
                ..CaptureSpec::baseline(0x5E41)
            },
        ),
        (
            "backward human (180°)",
            CaptureSpec {
                angle_deg: 180.0,
                ..CaptureSpec::baseline(0x5E42)
            },
        ),
        (
            "facing replay (0°)",
            CaptureSpec {
                source: replay(),
                ..CaptureSpec::baseline(0x5E43)
            },
        ),
        (
            "backward replay (180°)",
            CaptureSpec {
                angle_deg: 180.0,
                source: replay(),
                ..CaptureSpec::baseline(0x5E44)
            },
        ),
    ]
}

fn stream_capture(
    ht: &HeadTalk,
    channels: &[Vec<f64>],
    chunk_len: usize,
) -> Result<headtalk::StreamOutcome, String> {
    let mut stream = ht.streamer(channels.len()).map_err(|e| e.to_string())?;
    let len = channels[0].len();
    let mut pos = 0;
    while pos < len {
        let end = (pos + chunk_len).min(len);
        let refs: Vec<&[f64]> = channels.iter().map(|c| &c[pos..end]).collect();
        stream.push(&refs).map_err(|e| e.to_string())?;
        pos = end;
    }
    stream.finalize().map_err(|e| e.to_string())
}

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when any scenario's streamed outcome diverges from the
/// batch reference, or when training/rendering fails.
pub fn run(ctx: &Context) -> Result<ExperimentResult, String> {
    let config = PipelineConfig::default();
    let orientation = default_model(ctx)?;

    // Liveness: the §IV-A1 own-data corpus, same preparation as the
    // pipeline applies at inference time.
    let live_ds = dataset(&ctx.liveness_own(), Label::Live, |_| true)?;
    let liveness = LivenessDetector::fit(&live_ds, 16, 8).map_err(|e| e.to_string())?;
    let ht = HeadTalk::new(config, liveness, orientation).map_err(|e| e.to_string())?;

    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    let mut res = ExperimentResult::new(
        "stream",
        "streaming wake pipeline: frame-by-frame engine vs batch reference",
        "every chunking of every scenario reproduces the batch decision and features bit-for-bit",
    );

    for (name, spec) in scenarios() {
        let channels = spec.render().map_err(|e| e.to_string())?;
        let (batch_decision, batch_features) =
            ht.decide_batch(&channels).map_err(|e| e.to_string())?;
        let hop_run = stream_capture(&ht, &channels, hop)?;
        let ragged_run = stream_capture(&ht, &channels, 997)?;

        let mut identical = true;
        for outcome in [&hop_run, &ragged_run] {
            identical &= outcome.decision == Some(batch_decision);
            identical &= outcome.features.len() == batch_features.len()
                && outcome
                    .features
                    .iter()
                    .zip(&batch_features)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
        }
        if !identical {
            return Err(format!("{name}: streamed outcome diverges from batch"));
        }
        let verdict = match hop_run.verdict {
            WakeVerdict::Allow => "allow",
            WakeVerdict::SoftMute => "soft-mute",
            WakeVerdict::Undecided => "undecided",
        };
        let checksum: f64 = batch_features.iter().sum();
        res.push_row(
            name,
            "",
            format!(
                "{} frames, verdict {verdict}, checksum {:016x}, stream == batch",
                hop_run.frames,
                checksum.to_bits(),
            ),
            Some(checksum),
        );
    }

    res.note(
        "Streaming runs twice per scenario (hop-aligned 480-sample chunks and ragged \
         997-sample chunks); both must match the batch path bit-for-bit. The tighter \
         per-chunking contract lives in tests/stream_golden.rs.",
    );
    res.note(
        "Per-frame latency is excluded on purpose (hardware-dependent): the \
         stream_latency bench gates p95 against the 10 ms hop deadline and emits \
         BENCH_stream.json.",
    );
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_stay_on_the_default_device() {
        // default_model trains at the default device's feature width; a
        // scenario on another device would fail the width check at
        // streamer() time. Pin the invariant here, cheaply.
        let baseline = CaptureSpec::baseline(0);
        let list = scenarios();
        assert_eq!(list.len(), 5);
        for (name, spec) in &list {
            assert_eq!(spec.device, baseline.device, "{name}");
            assert_eq!(spec.room, baseline.room, "{name}");
        }
        // Seeds are distinct so no two scenarios share a rendered capture.
        let mut seeds: Vec<u64> = list.iter().map(|(_, s)| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), list.len());
    }
}
