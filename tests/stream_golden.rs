//! The streaming determinism contract, pinned: feeding a capture through
//! `WakeStream` chunk by chunk — hop-aligned, ragged, or one-shot — must
//! produce a verdict and feature vector *byte-identical* to the batch path
//! (`HeadTalk::decide_batch`), on every `ht-datagen` scenario, at any
//! thread count, with observability on or off. Plus the typed rejection of
//! mid-stream geometry changes, non-finite samples and over-long captures.

use headtalk::facing::FacingDefinition;
use headtalk::liveness::LivenessDetector;
use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::stream::{StreamConfig, StreamError, WakeVerdict};
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
    }
}

#[test]
fn streaming_is_byte_identical_to_batch_under_int8() {
    // Int8 selects the model backends only: both routes run the same
    // frame analysis as under Reference, so the identity holds in that
    // mode too, and the features equal the Reference pipeline's.
    let mut ht = pipeline().clone();
    let calibration: Vec<Vec<Vec<f64>>> = scenarios()
        .iter()
        .take(2)
        .map(|(_, spec)| spec.render().expect("render"))
        .collect();
    ht.enable_int8(&calibration).expect("int8 calibration");
    assert_eq!(ht.quant_mode(), headtalk::QuantMode::Int8);
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    for (name, spec) in scenarios() {
        let channels = spec.render().expect("render");
        for chunk_len in [hop, 997] {
            let outcome = stream_outcome(&ht, &channels, chunk_len);
            let ctx = format!("int8 {name} (chunk {chunk_len})");
            assert_outcome_matches_batch(&ht, &channels, &outcome, &ctx);
        }
        let (_, reference) = pipeline().decide_batch(&channels).expect("reference");
        let (_, int8) = ht.decide_batch(&channels).expect("int8");
        assert_bits_eq(
            &int8,
            &reference,
            &format!("{name}: int8 vs reference features"),
        );
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
    assert_eq!(one.verdict, four.verdict);
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
    assert_eq!(off.frames, json.frames);
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
        assert_eq!(outcome.verdict, reference.verdict);
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

    // A producer drops to 2 channels mid-stream: typed error, not wrong
    // lags.
    let refs: Vec<&[f64]> = channels.iter().map(|c| &c[half..half + hop]).collect();
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

    // The batch route refuses the same samples at the same position. The
    // bad sample sits on channel 0, which every helper reads.
    for bad in [f64::NAN, f64::INFINITY] {
        let mut capture = channels.clone();
        capture[0][1000] = bad;
        let refs: Vec<&[f64]> = capture.iter().map(Vec::as_slice).collect();
        let streamed = ht.streamer(4).expect("streamer").push(&refs).unwrap_err();
        assert!(
            matches!(
                streamed,
                HeadTalkError::Stream(StreamError::NonFinite {
                    channel: 0,
                    index: 1000
                })
            ),
            "{streamed:?}"
        );
        assert_eq!(ht.decide_batch(&capture).unwrap_err(), streamed, "{bad}");
        assert_eq!(
            HeadTalk::orientation_features(ht.config(), &capture).unwrap_err(),
            streamed,
            "{bad}"
        );
        assert_eq!(
            HeadTalk::liveness_input(ht.config(), &capture).unwrap_err(),
            streamed,
            "{bad}"
        );
    }
}

#[test]
fn captures_past_the_cap_are_refused_on_every_route() {
    let ht = pipeline();
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    let limit = ht.config().max_capture_samples();
    // A rendered wake word repeated to exactly the cap.
    let word = CaptureSpec::baseline(9735).render().expect("render");
    let capped: Vec<Vec<f64>> = word
        .iter()
        .map(|c| c.iter().copied().cycle().take(limit).collect())
        .collect();
    let full = stream_outcome(ht, &capped, hop);
    assert_outcome_matches_batch(ht, &capped, &full, "capture at the cap");
    let want = HeadTalkError::Stream(StreamError::CaptureTooLong {
        limit,
        got: limit + 1,
    });

    // One sample past the cap is refused whole and leaves the stream as
    // it was.
    let mut stream = ht.streamer(4).expect("streamer");
    push_chunks(&mut stream, &capped, hop);
    let one: Vec<&[f64]> = capped.iter().map(|c| &c[..1]).collect();
    assert_eq!(stream.push(&one).unwrap_err(), want);
    let outcome = stream.finalize().expect("finalize");
    assert_eq!(outcome.decision, full.decision);
    assert_bits_eq(&outcome.features, &full.features, "after the refused push");
    assert_eq!(outcome.frames, full.frames);
    assert_eq!(outcome.samples_per_channel, limit);

    // The batch routes refuse the over-long capture up front.
    let over: Vec<Vec<f64>> = capped
        .iter()
        .map(|c| c.iter().copied().chain([c[0]]).collect())
        .collect();
    assert_eq!(ht.decide_batch(&over).unwrap_err(), want);
    assert_eq!(
        HeadTalk::orientation_features(ht.config(), &over).unwrap_err(),
        want
    );
    assert_eq!(
        HeadTalk::liveness_input(ht.config(), &over).unwrap_err(),
        want
    );
}

#[test]
fn empty_chunks_change_nothing() {
    // An empty push is accepted and ignored: at the start, mid-frame
    // (333-sample chunks never align with the 480-sample hop) and at the
    // end, a stream decides exactly what it decides without them.
    // (`serve_interleaving` pins the same for a served session.)
    let ht = pipeline();
    let channels = CaptureSpec::baseline(9745).render().expect("render");
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    let clean = stream_outcome(ht, &channels, hop);
    let empty: Vec<&[f64]> = vec![&[]; channels.len()];
    let len = channels[0].len();
    let mut stream = ht.streamer(channels.len()).expect("streamer");
    stream.push(&empty).expect("empty push at the start");
    for start in (0..len).step_by(333) {
        let end = (start + 333).min(len);
        let chunk: Vec<&[f64]> = channels.iter().map(|c| &c[start..end]).collect();
        stream.push(&chunk).expect("push");
        stream.push(&empty).expect("empty push mid-frame");
    }
    stream.push(&empty).expect("empty push at the end");
    let outcome = stream.finalize().expect("finalize");
    assert_eq!(outcome.verdict, clean.verdict);
    assert_eq!(outcome.decision, clean.decision);
    assert_bits_eq(&outcome.features, &clean.features, "with empty chunks");
    assert_eq!(outcome.frames, clean.frames);
    assert_eq!(outcome.samples_per_channel, clean.samples_per_channel);
    assert_outcome_matches_batch(ht, &channels, &outcome, "with empty chunks");
}

#[test]
fn training_helpers_equal_the_decision_evidence() {
    // The helpers dataset builders train on run half of the decision's
    // evidence route each; what they return must be exactly what a
    // decision scores.
    let ht = pipeline();
    assert_eq!(ht.quant_mode(), headtalk::QuantMode::Reference);
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    for (name, spec) in scenarios() {
        let channels = spec.render().expect("render");
        let features = HeadTalk::orientation_features(ht.config(), &channels).expect("features");
        let (_, decided) = ht.decide_batch(&channels).expect("batch");
        assert_bits_eq(&features, &decided, &format!("{name}: orientation"));
        let live = HeadTalk::liveness_input(ht.config(), &channels).expect("liveness input");
        let mut stream = ht.streamer(channels.len()).expect("streamer");
        push_chunks(&mut stream, &channels, hop);
        let evidence = stream.assemble().expect("assemble");
        assert_bits_eq(&live, evidence.liveness_input, &format!("{name}: liveness"));
    }
}

#[test]
fn reset_reuse_is_bit_identical_to_a_fresh_stream() {
    // `reset` must clear *every* accumulator — running band-energy sums,
    // GCC lag windows, the directivity Welch state, the decimator and
    // filter tails — so a recycled stream is indistinguishable from a
    // fresh one. This is the contract the server's slot recycling rides
    // on.
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
    // band-energy and GCC accumulators. A capture whose channel 3 is all
    // zeros (a dead microphone; channel 0, which feeds liveness, stays
    // live) whitens an all-zero spectrum in every frame. Identity to batch
    // must survive both.
    let ht = pipeline();
    let rendered = CaptureSpec::baseline(9770).render().expect("render");
    let len = rendered[0].len();
    let mut silent_tail = rendered.clone();
    for c in &mut silent_tail {
        for x in &mut c[len / 2..] {
            *x = 0.0;
        }
    }
    let mut dead_mic = rendered;
    assert_eq!(dead_mic.len(), 4, "a 4-mic capture");
    dead_mic[3].fill(0.0);
    let hop = StreamConfig::for_pipeline(ht.config()).hop;
    for (name, channels) in [("silent tail", &silent_tail), ("dead mic 3", &dead_mic)] {
        for chunk_len in [hop, 997, len] {
            let outcome = stream_outcome(ht, channels, chunk_len);
            let ctx = format!("{name} (chunk {chunk_len})");
            assert_outcome_matches_batch(ht, channels, &outcome, &ctx);
        }
    }

    // The dead microphone's three pairs assemble to all-zero lag windows;
    // the live pairs keep their evidence, and nothing is NaN or infinite.
    let (_, features) = ht.decide_batch(&dead_mic).expect("batch");
    assert!(features.iter().all(|v| v.is_finite()), "{features:?}");
    let config = ht.config();
    let w = 2 * config.max_lag + 1;
    let pairs = (0..4).flat_map(|i| ((i + 1)..4).map(move |j| (i, j)));
    for (p, (i, j)) in pairs.enumerate() {
        // Each pair block (lag window, TDoA, 5 stats) follows the SRP
        // block (peaks and 5 stats).
        let at = headtalk::config::SRP_PEAKS + 5 + p * (w + 6);
        let window = &features[at..at + w];
        if j == 3 {
            assert!(
                window.iter().all(|&v| v == 0.0),
                "pair ({i}, {j}): {window:?}"
            );
        } else {
            assert!(
                window.iter().any(|&v| v != 0.0),
                "pair ({i}, {j}) is silent"
            );
        }
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
