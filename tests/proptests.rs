//! Property-based tests on the core invariants of the DSP, ML and control
//! substrates, running on the in-repo `ht_dsp::check` harness
//! (deterministic per-case seeds, `HT_CHECK_SEED=…` replay).
#![allow(clippy::manual_range_contains)]

use headtalk::control::{PrivacyController, VaEvent, VaMode};
use headtalk::facing::FacingDefinition;
use ht_dsp::check::{property, Gen};
use ht_dsp::correlate::gcc_phat;
use ht_dsp::fft;
use ht_dsp::filter::Butterworth;
use ht_dsp::rng::{SeedableRng, StdRng};
use ht_ml::metrics::Confusion;

fn small_signal(g: &mut Gen) -> Vec<f64> {
    g.vec_f64(-1.0..1.0, 16..256)
}

#[test]
fn fft_round_trip_recovers_signal() {
    property("fft_round_trip_recovers_signal")
        .cases(64)
        .run(|g| {
            let x = small_signal(g);
            let plan = fft::rfft_plan(x.len());
            let mut scratch = plan.scratch();
            let mut spec = vec![ht_dsp::Complex::ZERO; plan.onesided_len()];
            plan.forward_into(&x, &mut spec, &mut scratch);
            let mut back = vec![0.0; plan.len()];
            plan.inverse_into(&spec, &mut back, &mut scratch);
            for (a, b) in x.iter().zip(back.iter()) {
                assert!((a - b).abs() < 1e-9);
            }
            // The zero-padded tail comes back as (numerical) zeros.
            assert!(back[x.len()..].iter().all(|b| b.abs() < 1e-9));
        });
}

#[test]
fn fft_parseval_energy() {
    property("fft_parseval_energy").cases(64).run(|g| {
        let x = small_signal(g);
        let spec = fft::rfft_onesided(&x);
        let h = spec.len() - 1;
        let time: f64 = x.iter().map(|v| v * v).sum();
        // Every inner one-sided bin stands for two bins of the full
        // spectrum; DC and Nyquist stand for one each.
        let inner: f64 = spec[1..h].iter().map(|z| z.norm_sqr()).sum();
        let edges = spec[0].norm_sqr() + spec[h].norm_sqr();
        let freq = (edges + 2.0 * inner) / (2 * h) as f64;
        assert!((time - freq).abs() < 1e-6 * time.max(1.0));
    });
}

#[test]
fn filtfilt_preserves_length_and_finiteness() {
    property("filtfilt_preserves_length_and_finiteness")
        .cases(64)
        .run(|g| {
            let x = small_signal(g);
            let order = g.usize_in(1..6);
            let fc = g.f64_in(200.0..10_000.0);
            let f = Butterworth::lowpass(order, fc, 48_000.0).unwrap();
            let y = f.filtfilt(&x);
            assert_eq!(y.len(), x.len());
            assert!(y.iter().all(|v| v.is_finite()));
        });
}

#[test]
fn gcc_phat_peak_is_bounded_by_lag_window() {
    property("gcc_phat_peak_is_bounded_by_lag_window")
        .cases(64)
        .run(|g| {
            let x = g.vec_f64(-1.0..1.0, 64..256);
            let max_lag = g.usize_in(1..20);
            let gp = gcc_phat(&x, &x, max_lag).unwrap();
            assert_eq!(gp.values.len(), 2 * gp.max_lag + 1);
            assert!(gp.peak_lag().unsigned_abs() <= gp.max_lag);
            // Self-correlation peaks at zero lag.
            assert_eq!(gp.peak_lag(), 0);
        });
}

#[test]
fn integer_delays_are_recovered_exactly() {
    property("integer_delays_are_recovered_exactly")
        .cases(64)
        .run(|g| {
            let seed = g.u64_in(0..1000);
            let delay = g.usize_in(0..12);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = ht_dsp::rng::white_noise(&mut rng, 512);
            let y = ht_dsp::signal::fractional_delay(&x, delay as f64, 16);
            let gp = gcc_phat(&x, &y, 16).unwrap();
            assert_eq!(gp.peak_lag(), -(delay as isize));
        });
}

#[test]
fn confusion_metrics_are_rates() {
    property("confusion_metrics_are_rates").cases(64).run(|g| {
        let labels = g.vec_usize(0..2, 1..64);
        let flips = {
            let mut f = g.vec_bool(1..64);
            if f.is_empty() {
                f.push(true);
            }
            f
        };
        let preds: Vec<usize> = labels
            .iter()
            .zip(flips.iter().cycle())
            .map(|(&l, &f)| if f { 1 - l } else { l })
            .collect();
        let c = Confusion::from_predictions(&labels, &preds);
        for rate in [
            c.accuracy(),
            c.precision(),
            c.recall(),
            c.far(),
            c.frr(),
            c.f1(),
        ] {
            assert!((0.0..=1.0).contains(&rate));
        }
        assert_eq!(c.total(), labels.len());
        // FRR + TPR = 1 whenever positives exist.
        if labels.contains(&1) {
            assert!((c.frr() + c.tpr() - 1.0).abs() < 1e-12);
        }
    });
}

#[test]
fn eer_is_a_rate() {
    property("eer_is_a_rate").cases(64).run(|g| {
        let scores = g.vec_f64(-5.0..5.0, 4..64);
        // Force both classes present.
        let labels: Vec<usize> = (0..scores.len()).map(|i| i % 2).collect();
        let eer = ht_ml::metrics::equal_error_rate(&labels, &scores);
        assert!((0.0..=1.0).contains(&eer));
    });
}

#[test]
fn facing_definitions_are_consistent() {
    property("facing_definitions_are_consistent")
        .cases(64)
        .run(|g| {
            let angle = g.f64_in(-360.0..360.0);
            for def in FacingDefinition::ALL {
                if let Some(label) = def.label(angle) {
                    assert!(label <= 1);
                    // A labeled-facing angle always lies in the facing zone
                    // and vice versa for labeled non-facing angles.
                    if label == 1 {
                        assert_eq!(FacingDefinition::ground_truth(angle), 1);
                    } else {
                        assert_eq!(FacingDefinition::ground_truth(angle), 0);
                    }
                }
            }
            // Definitions only become more exclusive from 1 to 4 on the
            // facing side: anything Definition-4 calls facing, Definition-1
            // does too.
            if FacingDefinition::Definition4.label(angle) == Some(1) {
                assert_eq!(FacingDefinition::Definition1.label(angle), Some(1));
            }
        });
}

#[test]
fn sus_scores_are_bounded() {
    property("sus_scores_are_bounded").cases(64).run(|g| {
        let mut response = [0u8; 10];
        for slot in &mut response {
            *slot = g.usize_in(1..6) as u8;
        }
        let score = headtalk::userstudy::sus_score(&response);
        assert!((0.0..=100.0).contains(&score));
        assert_eq!(score % 2.5, 0.0);
    });
}

#[test]
fn smote_balances_binary_datasets() {
    property("smote_balances_binary_datasets")
        .cases(64)
        .run(|g| {
            let n_min = g.usize_in(2..6);
            let n_maj = g.usize_in(6..14);
            let seed = g.u64_in(0..100);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ds = ht_ml::Dataset::new(2);
            for i in 0..n_min {
                ds.push(vec![i as f64, 5.0], 1).unwrap();
            }
            for i in 0..n_maj {
                ds.push(vec![i as f64, -5.0], 0).unwrap();
            }
            let up = ht_ml::sampling::smote(&ds, 3, &mut rng).unwrap();
            let counts = up.class_counts();
            assert_eq!(counts[0].1, counts[1].1);
            assert_eq!(up.len(), 2 * n_maj);
        });
}

#[test]
fn privacy_controller_never_forwards_while_muted() {
    property("privacy_controller_never_forwards_while_muted")
        .cases(64)
        .run(|g| {
            let events = g.vec_usize(0..6, 1..40);
            let mut va = PrivacyController::new();
            for e in events {
                let event = match e {
                    0 => VaEvent::WakeDetected {
                        live: true,
                        facing: true,
                    },
                    1 => VaEvent::WakeDetected {
                        live: false,
                        facing: true,
                    },
                    2 => VaEvent::EnterHeadTalkMode,
                    3 => VaEvent::MuteButton,
                    4 => VaEvent::SessionEnded,
                    _ => VaEvent::UnmuteButton,
                };
                let muted_before = va.mode() == VaMode::Mute;
                let r = va.handle(event);
                if muted_before && matches!(event, VaEvent::WakeDetected { .. }) {
                    assert!(!r.audio_forwarded_to_cloud());
                }
            }
        });
}

#[test]
fn privacy_controller_headtalk_rejects_non_live_without_session() {
    property("privacy_controller_headtalk_rejects_non_live_without_session")
        .cases(16)
        .run(|g| {
            let live = g.bool();
            let facing = g.bool();
            let mut va = PrivacyController::new();
            va.handle(VaEvent::EnterHeadTalkMode);
            let r = va.handle(VaEvent::WakeDetected { live, facing });
            assert_eq!(r.audio_forwarded_to_cloud(), live && facing);
        });
}
