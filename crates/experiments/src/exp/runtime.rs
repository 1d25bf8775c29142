//! §IV-B15 — run-time performance: wall-clock latency of liveness
//! detection and orientation detection on one wake-word capture.
//!
//! The paper measures 42 ms (liveness) and 136 ms (orientation) on an
//! i7-2600 PC and 527 ms (orientation) on the ReSpeaker Core's Cortex-A7.
//! Absolute numbers depend on the machine; the shape check is that both
//! stages finish well within a VA's wake-word budget (< 1 s).
//!
//! Each stage row times whole calls of the decision path's own helpers on
//! the raw capture: `HeadTalk::liveness_input` (channel-0 causal
//! band-pass, ÷3 decimation, crop and z-score) and
//! `HeadTalk::orientation_features` (the frame loop and the feature
//! assembly) — the two halves of the evidence route every decision takes.
//! The orientation breakdown comes from the pipeline's own `ht-obs` spans:
//! per-frame analysis (`stream.stft` + `stream.srp`) and the O(features)
//! assembly (`wake.feature_extract`).

use crate::context::Context;
use crate::report::ExperimentResult;
use headtalk::{HeadTalk, PipelineConfig};
use ht_datagen::CaptureSpec;
use std::time::Instant;

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when either stage exceeds one second per capture.
pub fn run(_ctx: &Context) -> Result<ExperimentResult, String> {
    let cfg = PipelineConfig::default();
    let channels = CaptureSpec::baseline(0xB15)
        .render()
        .map_err(|e| e.to_string())?;

    // Time whole helper calls with the breakdown spans recording: enable
    // observability (restored afterwards so an `HT_OBS=off` run stays off
    // for other experiments) on a cleared registry.
    let prev = ht_obs::mode();
    ht_obs::set_mode(ht_obs::Mode::Summary);
    ht_obs::registry().reset();
    let reps = 10;
    let (mut liveness_s, mut orientation_s) = (0.0, 0.0);
    let mut timed = Ok(());
    for _ in 0..reps {
        let t = Instant::now();
        timed = timed.and(HeadTalk::liveness_input(&cfg, &channels).map(drop));
        liveness_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        timed = timed.and(HeadTalk::orientation_features(&cfg, &channels).map(drop));
        orientation_s += t.elapsed().as_secs_f64();
    }
    let snap = ht_obs::registry().snapshot();
    ht_obs::set_mode(prev);
    timed.map_err(|e| e.to_string())?;

    // Milliseconds per capture: wall time, or the total under some spans.
    let per_capture_ms = |s: f64| s * 1e3 / reps as f64;
    let spans_ms = |names: &[&str]| -> Result<f64, String> {
        let mut total_ns = 0.0;
        for name in names {
            let h = snap
                .span(name)
                .ok_or_else(|| format!("span {name:?} not recorded"))?;
            total_ns += h.mean_ns * h.count as f64;
        }
        Ok(per_capture_ms(total_ns / 1e9))
    };
    let liveness_ms = per_capture_ms(liveness_s);
    let orientation_ms = per_capture_ms(orientation_s);
    let analysis_ms = spans_ms(&["stream.stft", "stream.srp"])?;
    let assembly_ms = spans_ms(&["wake.feature_extract"])?;

    let mut res = ExperimentResult::new(
        "runtime",
        "§IV-B15: run-time performance per wake-word capture",
        "both stages complete well within a voice assistant's response budget (< 1 s)",
    );
    for (condition, paper, ms) in [
        (
            "liveness input preparation",
            "42 ms (i7-2600 PC, model inference included)",
            liveness_ms,
        ),
        (
            "orientation feature extraction",
            "136 ms (PC) / 527 ms (ReSpeaker Core v2)",
            orientation_ms,
        ),
        ("  of which per-frame STFT + SRP/GCC", "", analysis_ms),
        ("  of which feature assembly", "", assembly_ms),
    ] {
        res.push_row(condition, paper, format!("{ms:.1} ms"), Some(ms));
    }
    let slowest = liveness_ms.max(orientation_ms);
    if slowest > 1000.0 {
        return Err(format!("a stage is too slow: {slowest:.0} ms"));
    }
    res.note(
        "Stage rows are means of 10 whole calls to HeadTalk::liveness_input and \
         HeadTalk::orientation_features on the raw capture, the two halves of the evidence \
         route every decision takes; the breakdown rows come from the ht-obs span \
         histograms. Absolute numbers are hardware-specific; the ht-bench suites \
         (cargo bench -p ht-bench) give calibrated measurements.",
    );
    Ok(res)
}
