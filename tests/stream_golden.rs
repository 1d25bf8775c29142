//! The streaming determinism contract, pinned: feeding a capture through
//! `WakeStream` chunk by chunk — hop-aligned, ragged, or one-shot — must
//! produce a verdict and feature vector *byte-identical* to the batch path
//! (`HeadTalk::decide_batch`), on every `ht-datagen` scenario, at any
//! thread count, with observability on or off. Plus the typed rejection of
//! mid-stream geometry changes and the enforcing gate's early soft-mute.

use headtalk::facing::FacingDefinition;
use headtalk::liveness::LivenessDetector;
use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::stream::{GateConfig, GateMode, StreamConfig, StreamError, WakeVerdict};
use headtalk::{HeadTalk, HeadTalkError, PipelineConfig, StreamOutcome, WakeStream};
use ht_datagen::{CaptureSpec, SourceKind};
use ht_dsp::check::property;
use ht_dsp::rng::SeedableRng;
use ht_ml::Dataset;
use ht_speech::replay::SpeakerModel;
use ht_speech::voice::VoiceProfile;

/// One shared pipeline (training renders ~20 captures, so every test
/// reuses it).
fn pipeline() -> &'static HeadTalk {
    static PIPELINE: std::sync::OnceLock<HeadTalk> = std::sync::OnceLock::new();
    PIPELINE.get_or_init(build_pipeline)
}

fn build_pipeline() -> HeadTalk {
    let config = PipelineConfig::default();
    let def = FacingDefinition::Definition4;

    let mut orient_feats = Vec::new();
    let mut orient_labels = Vec::new();
    for (i, angle) in [0.0, 20.0, -30.0, 45.0, 90.0, -120.0, 150.0, 180.0]
        .into_iter()
        .enumerate()
    {
        let spec = CaptureSpec {
            angle_deg: angle,
            seed: 700 + i as u64,
            ..CaptureSpec::baseline(0)
        };
        let channels = spec.render().expect("render succeeds");
        if let Some(label) = def.label(angle) {
            orient_feats
                .push(HeadTalk::orientation_features(&config, &channels).expect("features"));
            orient_labels.push(label);
        }
    }
    let orientation = OrientationDetector::fit(
        &Dataset::from_parts(orient_feats, orient_labels).expect("dataset"),
        ModelKind::Svm,
        7,
    )
    .expect("orientation training");

    let mut live_ds = Dataset::new(config.liveness_input_len);
    for i in 0..6u64 {
        let human = CaptureSpec::baseline(800 + i);
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
            ..CaptureSpec::baseline(900 + i)
        };
        live_ds
            .push(
                HeadTalk::liveness_input(&config, &replay.render().expect("render")).expect("prep"),
                0,
            )
            .expect("push");
    }
    let liveness = LivenessDetector::fit(&live_ds, 16, 8).expect("liveness training");
    HeadTalk::new(config, liveness, orientation).expect("pipeline assembly")
}

/// The scenario suite: facing/averted humans and replays.
fn scenarios() -> Vec<(&'static str, CaptureSpec)> {
    vec![
        ("facing_human", CaptureSpec::baseline(9600)),
        (
            "oblique_human",
            CaptureSpec {
                angle_deg: 45.0,
                ..CaptureSpec::baseline(9610)
            },
        ),
        (
            "side_human",
            CaptureSpec {
                angle_deg: 90.0,
                ..CaptureSpec::baseline(9620)
            },
        ),
        (
            "backward_human",
            CaptureSpec {
                angle_deg: 180.0,
                ..CaptureSpec::baseline(9630)
            },
        ),
        (
            "facing_replay",
            CaptureSpec {
                source: SourceKind::Replay {
                    model: SpeakerModel::SonySrsX5,
                    voice: VoiceProfile::adult_male(),
                },
                ..CaptureSpec::baseline(9640)
            },
        ),
        (
            "backward_replay",
            CaptureSpec {
                angle_deg: 180.0,
                source: SourceKind::Replay {
                    model: SpeakerModel::SonySrsX5,
                    voice: VoiceProfile::adult_male(),
                },
                ..CaptureSpec::baseline(9650)
            },
        ),
    ]
}

fn push_chunks(stream: &mut WakeStream<'_>, channels: &[Vec<f64>], chunk_len: usize) {
    let len = channels[0].len();
    let mut pos = 0;
    while pos < len {
        let end = (pos + chunk_len).min(len);
        let refs: Vec<&[f64]> = channels.iter().map(|c| &c[pos..end]).collect();
        stream.push(&refs).expect("push");
        pos = end;
    }
}

fn stream_outcome(ht: &HeadTalk, channels: &[Vec<f64>], chunk_len: usize) -> StreamOutcome {
    let mut stream = ht.streamer(channels.len()).expect("streamer");
    push_chunks(&mut stream, channels, chunk_len);
    stream.finalize().expect("finalize")
}

fn assert_bits_eq(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: feature count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: feature {i}: {x} vs {y}");
    }
}

fn assert_outcome_matches_batch(
    ht: &HeadTalk,
    channels: &[Vec<f64>],
    outcome: &StreamOutcome,
    ctx: &str,
) {
    let (batch_decision, batch_features) = ht.decide_batch(channels).expect("batch");
    let decision = outcome
        .decision
        .expect("advisory streaming carries a decision");
    assert_eq!(decision, batch_decision, "{ctx}: decision");
    assert_eq!(
        decision.live_probability.to_bits(),
        batch_decision.live_probability.to_bits(),
        "{ctx}: live probability bits"
    );
    assert_eq!(
        decision.facing_score.to_bits(),
        batch_decision.facing_score.to_bits(),
        "{ctx}: facing score bits"
    );
    assert_bits_eq(&outcome.features, &batch_features, ctx);
    let expected_verdict = if batch_decision.accepted() {
        WakeVerdict::Allow
    } else {
        WakeVerdict::SoftMute
    };
    assert_eq!(outcome.verdict, expected_verdict, "{ctx}: verdict");
}

#[test]
fn streaming_is_byte_identical_to_batch_on_every_scenario() {
    let ht = pipeline();
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    for (name, spec) in scenarios() {
        let channels = spec.render().expect("render");
        // Hop-aligned, ragged (prime), and one-shot chunkings.
        for chunk_len in [hop, 997, channels[0].len()] {
            let outcome = stream_outcome(ht, &channels, chunk_len);
            let ctx = format!("{name} (chunk {chunk_len})");
            assert_outcome_matches_batch(ht, &channels, &outcome, &ctx);
        }
        // The batch adapter rides the same streaming path.
        let (batch_decision, _) = ht.decide_batch(&channels).expect("batch");
        let adapted = ht.process_wake(&channels).expect("adapter");
        assert_eq!(adapted, batch_decision, "{name}: process_wake adapter");
    }
}

#[test]
fn streaming_is_thread_count_invariant() {
    let ht = pipeline();
    let channels = CaptureSpec::baseline(9700).render().expect("render");
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    let one = ht_par::Pool::new(1).install(|| stream_outcome(ht, &channels, hop));
    let four = ht_par::Pool::new(4).install(|| stream_outcome(ht, &channels, hop));
    assert_eq!(one.decision, four.decision);
    assert_bits_eq(&one.features, &four.features, "threads 1 vs 4");
    assert_eq!(one.early_exit, four.early_exit);
    assert_eq!(one.frames, four.frames);
    assert_outcome_matches_batch(ht, &channels, &one, "single thread");
}

#[test]
fn observability_mode_does_not_change_results() {
    let ht = pipeline();
    let channels = CaptureSpec::baseline(9710).render().expect("render");
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    let off = stream_outcome(ht, &channels, hop);
    ht_obs::set_mode(ht_obs::Mode::Json);
    let json = stream_outcome(ht, &channels, hop);
    ht_obs::set_mode(ht_obs::Mode::Off);
    assert_eq!(off.decision, json.decision);
    assert_bits_eq(&off.features, &json.features, "obs off vs json");
    assert_eq!(off.early_exit, json.early_exit);
}

#[test]
fn arbitrary_chunkings_match_one_shot_batch() {
    // Property: any partition of the capture into pushes — single samples,
    // ragged tails, whole-capture — yields the identical outcome. Runs on
    // a synthetic 4-channel capture to keep the case count high.
    let ht = pipeline();
    property("stream_chunking_invariance").cases(12).run(|g| {
        let n = g.usize_in(3_000..8_000);
        let mut rng = ht_dsp::rng::StdRng::seed_from_u64(g.u64_in(0..1 << 32));
        let ch0 = ht_dsp::rng::white_noise(&mut rng, n);
        let channels: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                if c == 0 {
                    ch0.clone()
                } else {
                    ht_dsp::signal::fractional_delay(&ch0, c as f64 * 1.5, 16)
                }
            })
            .collect();
        let reference = stream_outcome(ht, &channels, n);
        let mut stream = ht.streamer(4).expect("streamer");
        let mut pos = 0;
        while pos < n {
            let end = (pos + g.usize_in(1..1_500)).min(n);
            let refs: Vec<&[f64]> = channels.iter().map(|c| &c[pos..end]).collect();
            stream.push(&refs).expect("push");
            pos = end;
        }
        let outcome = stream.finalize().expect("finalize");
        assert_eq!(outcome.decision, reference.decision);
        assert_bits_eq(&outcome.features, &reference.features, "random chunking");
        assert_eq!(outcome.early_exit, reference.early_exit);
        assert_eq!(outcome.frames, reference.frames);
    });
}

#[test]
fn mid_stream_geometry_changes_are_rejected_without_corrupting_state() {
    let ht = pipeline();
    let channels = CaptureSpec::baseline(9720).render().expect("render");
    let len = channels[0].len();
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    let mut stream = ht.streamer(4).expect("streamer");

    // First half arrives legitimately.
    let half = len / 2;
    push_chunks(
        &mut stream,
        &channels
            .iter()
            .map(|c| c[..half].to_vec())
            .collect::<Vec<_>>(),
        hop,
    );

    // A producer switches to 44.1 kHz mid-stream: typed error, not wrong lags.
    let refs: Vec<&[f64]> = channels.iter().map(|c| &c[half..half + hop]).collect();
    let err = stream
        .push_audio(headtalk::stream::AudioChunk::new(44_100.0, &refs))
        .unwrap_err();
    assert!(
        matches!(
            err,
            HeadTalkError::Stream(StreamError::SampleRateChanged {
                expected_hz: 48_000,
                got_hz: 44_100,
            })
        ),
        "{err:?}"
    );

    // A producer drops to 2 channels mid-stream: same story.
    let err = stream.push(&refs[..2]).unwrap_err();
    assert!(
        matches!(
            err,
            HeadTalkError::Stream(StreamError::ChannelCountChanged {
                expected: 4,
                got: 2
            })
        ),
        "{err:?}"
    );

    // Ragged chunk: typed error.
    let ragged: Vec<&[f64]> = (0..4)
        .map(|c| {
            if c == 0 {
                &channels[0][half..half + hop - 1]
            } else {
                &channels[c][half..half + hop]
            }
        })
        .collect();
    let err = stream.push(&ragged).unwrap_err();
    assert!(
        matches!(err, HeadTalkError::Stream(StreamError::RaggedChunk { .. })),
        "{err:?}"
    );

    // The rejections left the stream intact: finish the capture and the
    // outcome is still byte-identical to batch.
    let rest: Vec<Vec<f64>> = channels.iter().map(|c| c[half..].to_vec()).collect();
    push_chunks(&mut stream, &rest, hop);
    let outcome = stream.finalize().expect("finalize");
    assert_outcome_matches_batch(ht, &channels, &outcome, "after rejected pushes");
}

#[test]
fn non_finite_chunks_are_refused_without_touching_state() {
    let ht = pipeline();
    let channels = CaptureSpec::baseline(9730).render().expect("render");
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    let clean = stream_outcome(ht, &channels, hop);

    let poisoned = |sample: f64, channel: usize, index: usize, at: usize| {
        let mut chunk: Vec<Vec<f64>> = channels.iter().map(|c| c[at..at + hop].to_vec()).collect();
        chunk[channel][index] = sample;
        chunk
    };
    let mut stream = ht.streamer(4).expect("streamer");
    // A NaN chunk before any audio, then an infinity mid-capture: each is
    // refused whole with the first offending position.
    let nan = poisoned(f64::NAN, 2, 5, 0);
    let refs: Vec<&[f64]> = nan.iter().map(Vec::as_slice).collect();
    let err = stream.push(&refs).unwrap_err();
    assert!(
        matches!(
            err,
            HeadTalkError::Stream(StreamError::NonFinite {
                channel: 2,
                index: 5
            })
        ),
        "{err:?}"
    );
    let half = channels[0].len() / 2;
    let head: Vec<Vec<f64>> = channels.iter().map(|c| c[..half].to_vec()).collect();
    push_chunks(&mut stream, &head, hop);
    let inf = poisoned(f64::NEG_INFINITY, 0, hop - 1, half);
    let refs: Vec<&[f64]> = inf.iter().map(Vec::as_slice).collect();
    let err = stream.push(&refs).unwrap_err();
    assert!(
        matches!(
            err,
            HeadTalkError::Stream(StreamError::NonFinite { channel: 0, .. })
        ),
        "{err:?}"
    );
    let rest: Vec<Vec<f64>> = channels.iter().map(|c| c[half..].to_vec()).collect();
    push_chunks(&mut stream, &rest, hop);

    let outcome = stream.finalize().expect("finalize");
    assert_eq!(outcome.decision, clean.decision);
    assert_bits_eq(
        &outcome.features,
        &clean.features,
        "after non-finite chunks",
    );
    assert_eq!(outcome.frames, clean.frames);
    assert_eq!(outcome.samples_per_channel, clean.samples_per_channel);
    assert_outcome_matches_batch(ht, &channels, &outcome, "after non-finite chunks");
}

#[test]
fn enforcing_gate_soft_mutes_before_the_utterance_ends() {
    let ht = pipeline();
    let channels = CaptureSpec::baseline(9730).render().expect("render");
    let len = channels[0].len();
    // A gate rigged to always fire on orientation: the facing floor is
    // unreachable and the liveness floor can never strike.
    let gate = GateConfig {
        mode: GateMode::Enforcing,
        min_voiced_frames: 2,
        patience: 2,
        live_floor: f64::NEG_INFINITY,
        facing_floor: f64::INFINITY,
        ..GateConfig::default()
    };
    let config = StreamConfig {
        gate,
        ..StreamConfig::for_pipeline(ht.config())
    };
    let mut stream = ht.streamer_with(4, config).expect("streamer");
    let mut muted_at = None;
    let mut pos = 0;
    while pos < len {
        let end = (pos + config.hop).min(len);
        let refs: Vec<&[f64]> = channels.iter().map(|c| &c[pos..end]).collect();
        if stream.push(&refs).expect("push") == WakeVerdict::SoftMute && muted_at.is_none() {
            muted_at = Some(stream.samples_per_channel());
        }
        pos = end;
    }
    let muted_at = muted_at.expect("the rigged gate must fire");
    assert!(
        muted_at < len,
        "soft mute must land before the capture ends ({muted_at} vs {len})"
    );
    // Ingestion stopped at the mute: later pushes were dropped.
    assert_eq!(stream.samples_per_channel(), muted_at);
    let frames_at_mute = stream.frames();
    let exit = stream.early_exit().expect("exit recorded");
    assert_eq!(exit.reason, headtalk::stream::ExitReason::NotFacing);
    let outcome = stream.finalize().expect("finalize");
    assert_eq!(outcome.verdict, WakeVerdict::SoftMute);
    assert_eq!(outcome.frames, frames_at_mute);
    assert_eq!(outcome.samples_per_channel, muted_at);
}

#[test]
fn advisory_gate_records_the_exit_but_never_alters_the_decision() {
    let ht = pipeline();
    let channels = CaptureSpec::baseline(9740).render().expect("render");
    let len = channels[0].len();
    let gate = GateConfig {
        min_voiced_frames: 2,
        patience: 2,
        facing_floor: f64::INFINITY,
        ..GateConfig::default()
    };
    let config = StreamConfig {
        gate,
        ..StreamConfig::for_pipeline(ht.config())
    };
    let mut stream = ht.streamer_with(4, config).expect("streamer");
    push_chunks(&mut stream, &channels, config.hop);
    // Advisory: every frame of the full capture was still analyzed.
    let expected_frames = (1 + (len - config.frame_len) / config.hop) as u64;
    assert_eq!(stream.frames(), expected_frames);
    assert!(stream.early_exit().is_some());
    let outcome = stream.finalize().expect("finalize");
    assert!(outcome.early_exit.is_some());
    assert_outcome_matches_batch(ht, &channels, &outcome, "advisory with rigged gate");
}

#[test]
#[ignore = "calibration probe"]
fn probe_evidence_floors() {
    use ht_stream::FrameAnalyzer;
    for (name, spec) in [
        ("facing_0", CaptureSpec::baseline(111)),
        (
            "oblique_45",
            CaptureSpec {
                angle_deg: 45.0,
                ..CaptureSpec::baseline(112)
            },
        ),
        (
            "side_90",
            CaptureSpec {
                angle_deg: 90.0,
                ..CaptureSpec::baseline(113)
            },
        ),
        (
            "back_180",
            CaptureSpec {
                angle_deg: 180.0,
                ..CaptureSpec::baseline(114)
            },
        ),
        (
            "replay_0",
            CaptureSpec {
                source: SourceKind::Replay {
                    model: SpeakerModel::SonySrsX5,
                    voice: VoiceProfile::adult_male(),
                },
                ..CaptureSpec::baseline(115)
            },
        ),
        (
            "replay_180",
            CaptureSpec {
                angle_deg: 180.0,
                source: SourceKind::Replay {
                    model: SpeakerModel::SonySrsX5,
                    voice: VoiceProfile::adult_male(),
                },
                ..CaptureSpec::baseline(116)
            },
        ),
    ] {
        let channels = spec.render().expect("render");
        let mut an = FrameAnalyzer::new(4, 960, 13, 48_000.0).expect("analyzer");
        let mut frame = vec![vec![0.0; 960]; 4];
        let len = channels[0].len();
        let mut peak_rms: f64 = 0.0;
        let mut live_ewma = None::<f64>;
        let mut face_ewma = None::<f64>;
        let mut live_traj = Vec::new();
        let mut face_traj = Vec::new();
        let mut pos = 0;
        while pos + 960 <= len {
            for (dst, src) in frame.iter_mut().zip(&channels) {
                dst.copy_from_slice(&src[pos..pos + 960]);
            }
            let f = an.analyze(&frame).expect("analyze");
            peak_rms = peak_rms.max(f.rms);
            let voiced = f.rms > 0.1 * peak_rms && f.rms > 1e-12;
            if voiced {
                let (l, o) = (
                    headtalk::liveness::frame_live_evidence(f),
                    headtalk::orientation::frame_facing_evidence(f),
                );
                live_ewma = Some(live_ewma.map_or(l, |e| 0.75 * e + 0.25 * l));
                face_ewma = Some(face_ewma.map_or(o, |e| 0.75 * e + 0.25 * o));
                live_traj.push(live_ewma.unwrap());
                face_traj.push(face_ewma.unwrap());
            }
            pos += 480;
        }
        let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
        let last = |v: &[f64]| v.last().copied().unwrap_or(f64::NAN);
        eprintln!(
            "{name:12} voiced={:3}  live ewma min={:.3} last={:.3}   face ewma min={:.3} last={:.3}",
            live_traj.len(), min(&live_traj), last(&live_traj), min(&face_traj), last(&face_traj)
        );
    }
}

#[test]
fn reset_reuse_is_bit_identical_to_a_fresh_stream() {
    // `reset` must clear *every* accumulator — running band-energy sums,
    // GCC lag windows, the directivity Welch state, the decimator and
    // filter tails — so a recycled stream is indistinguishable from a
    // fresh one. This is the contract the serve arena's slot recycling
    // rides on.
    let ht = pipeline();
    let a = CaptureSpec::baseline(9760).render().expect("render");
    let b = CaptureSpec {
        angle_deg: 135.0,
        ..CaptureSpec::baseline(9761)
    }
    .render()
    .expect("render");
    let hop = StreamConfig::for_pipeline(ht.config()).hop;

    let fresh = stream_outcome(ht, &b, hop);

    // Recycle after a *completed* session.
    let mut stream = ht.streamer(4).expect("streamer");
    push_chunks(&mut stream, &a, hop);
    let _ = stream.outcome().expect("outcome");
    stream.reset();
    push_chunks(&mut stream, &b, hop);
    let recycled = stream.finalize().expect("finalize");
    assert_eq!(recycled.decision, fresh.decision, "recycled after finalize");
    assert_bits_eq(&recycled.features, &fresh.features, "recycled features");
    assert_eq!(recycled.frames, fresh.frames);

    // Recycle after an *abandoned* mid-capture session: partial frame in
    // the ring, partial directivity segment, filter tails all non-trivial.
    let half: Vec<Vec<f64>> = a
        .iter()
        .map(|c| c[..a[0].len() / 2 + 331].to_vec())
        .collect();
    let mut stream = ht.streamer(4).expect("streamer");
    push_chunks(&mut stream, &half, 997);
    stream.reset();
    push_chunks(&mut stream, &b, hop);
    let recycled = stream.finalize().expect("finalize");
    assert_eq!(recycled.decision, fresh.decision, "recycled mid-capture");
    assert_bits_eq(&recycled.features, &fresh.features, "mid-capture features");
    assert_eq!(recycled.frames, fresh.frames);
    assert_eq!(recycled.samples_per_channel, fresh.samples_per_channel);
}

#[test]
fn zero_variance_tail_matches_batch() {
    // A capture whose tail goes dead silent exercises the zero-variance
    // guard in the liveness framing and the silent-frame paths in the
    // band-energy and GCC accumulators. Identity to batch must survive it.
    let ht = pipeline();
    let mut channels = CaptureSpec::baseline(9770).render().expect("render");
    let len = channels[0].len();
    for c in &mut channels {
        for x in &mut c[len / 2..] {
            *x = 0.0;
        }
    }
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    for chunk_len in [hop, 997, len] {
        let outcome = stream_outcome(ht, &channels, chunk_len);
        let ctx = format!("silent tail (chunk {chunk_len})");
        assert_outcome_matches_batch(ht, &channels, &outcome, &ctx);
    }
}

#[test]
fn all_silent_capture_streams_and_batches_identically() {
    // Fully silent input: every frame is zero-variance. Whatever the
    // pipeline decides (or refuses to decide), stream and batch must
    // agree bit-for-bit.
    let ht = pipeline();
    let channels = vec![vec![0.0f64; 48_000]; 4];
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    let mut stream = ht.streamer(4).expect("streamer");
    push_chunks(&mut stream, &channels, hop);
    let streamed = stream.finalize();
    let batched = ht.decide_batch(&channels);
    match (streamed, batched) {
        (Ok(outcome), Ok((decision, features))) => {
            assert_eq!(outcome.decision, Some(decision), "silent decision");
            assert_bits_eq(&outcome.features, &features, "silent features");
        }
        (Err(se), Err(be)) => {
            assert_eq!(format!("{se}"), format!("{be}"), "silent error parity");
        }
        (s, b) => panic!("stream/batch diverge on silence: {s:?} vs {b:?}"),
    }
}

#[test]
fn default_gate_stays_silent_for_a_facing_human() {
    // The calibrated default floors must never strike a facing live
    // speaker — the gate exists to cut averted speech and replays short,
    // not to second-guess legitimate wakes.
    let ht = pipeline();
    let channels = CaptureSpec::baseline(9750).render().expect("render");
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    let outcome = stream_outcome(ht, &channels, hop);
    assert!(
        outcome.early_exit.is_none(),
        "default gate fired on a facing human: {:?}",
        outcome.early_exit
    );
    assert_outcome_matches_batch(ht, &channels, &outcome, "facing human, default gate");
}
