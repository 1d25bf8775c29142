//! Quantized/vectorized decision-path gate.
//!
//! The `QuantMode::Int8` backend only earns its complexity if it is both
//! fast and faithful, so this bench measures and CI-gates the contract
//! from both sides:
//!
//! * the per-channel whitening kernel, the only one the decision path
//!   runs (in both modes), must beat six per-pair reference calls on one
//!   4-channel frame by [`CHANNEL_SPEEDUP_FLOOR`],
//! * int8 liveness inference ([`QuantizedNet`]) must run at least
//!   [`NET_SPEEDUP_FLOOR`]x the f64 wav2vec2-mini forward,
//! * on AVX2 machines, the `std::arch` i8 dot/dist2 backends must agree
//!   with the scalar reference **exactly** (i32 equality on every tested
//!   shape, ragged tails included) — runners without AVX2 log a notice
//!   and skip this gate instead of silently passing it,
//! * on AVX2 machines, the liveness band-pass ([`StreamingSos`]) must give
//!   the portable path's bits **exactly** on every section count from 1
//!   to 10, and beat it by [`BANDPASS_SPEEDUP_FLOOR`] on 480-sample hops
//!   of the paper's six-section band-pass,
//! * int8 accuracy must stay within [`ACCURACY_DELTA_MAX`] (0.5 pp) of the
//!   f64 reference on a held-out corpus, and
//! * the reference path must stay **byte-stable**: building the quantized
//!   backends must not perturb a single bit of the f64 models' outputs.
//!
//! Writes `BENCH_quant.json` (timings, speedups, accuracy deltas) into
//! `HT_BENCH_DIR`.

use ht_bench::{black_box, Suite};
use ht_dsp::complex::Complex;
use ht_dsp::filter::{Butterworth, Sos, StreamingSos};
use ht_dsp::json::Json;
use ht_dsp::kernels::{avx2_available, channel_phat_accumulate, cross_whiten_reference_into};
use ht_dsp::rng::{gaussian, Rng, SeedableRng, StdRng};
use ht_ml::nn::{NeuralNet, NeuralNetConfig};
use ht_ml::quant::{
    dist2_i8_avx2, dist2_i8_scalar, dot_i8_avx2, dot_i8_scalar, QuantScratch, QuantizedNet,
    QuantizedSvm,
};
use ht_ml::svm::Svm;
use ht_ml::{Classifier, Dataset};

/// Minimum speedup of int8 liveness inference over the f64 forward.
const NET_SPEEDUP_FLOOR: f64 = 2.0;
/// Maximum tolerated accuracy difference between backends (0.5 pp).
const ACCURACY_DELTA_MAX: f64 = 0.005;
/// One analysis frame's bin count: the pipeline's 960-sample frames with
/// lag padding run a 1024-point FFT.
const FRAME_BINS: usize = 513;
/// The pipeline's analysis hop, 480 samples (10 ms at 48 kHz): the chunk
/// a real-time stream pushes through the liveness band-pass.
const HOP: usize = 480;
/// Minimum speedup of the liveness band-pass's AVX2 wavefront over its
/// portable path on 480-sample hops of the six-section band-pass. Nine
/// `HT_BENCH_FAST=1` runs on a shared 2-vCPU AMD EPYC read 4.31–4.53x, so
/// the floor leaves the lowest reading 1.6x headroom. A dispatch that
/// stopped taking the wavefront would still pass the agreement check.
const BANDPASS_SPEEDUP_FLOOR: f64 = 2.6;
/// Minimum speedup of the per-channel whitening kernel over six per-pair
/// reference calls on one 4-channel frame. Six `HT_BENCH_FAST=1` runs on a
/// shared 2-vCPU Xeon read 2.6–3.4x, so the floor leaves the lowest reading
/// 1.6x headroom.
const CHANNEL_SPEEDUP_FLOOR: f64 = 1.6;

/// Liveness-style corpus at the pipeline's prepared-input width: "live" has
/// a high-frequency component, "replayed" is low-passed, both z-scored —
/// the Fig. 3 signature scaled to a bench.
fn liveness_corpus(n_per: usize, len: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::new(len);
    for _ in 0..n_per {
        let phase: f64 = rng.gen::<f64>() * 6.3;
        let mut live: Vec<f64> = (0..len)
            .map(|t| {
                (t as f64 * 0.3 + phase).sin()
                    + 0.5 * (t as f64 * 2.8).sin()
                    + 0.1 * gaussian(&mut rng)
            })
            .collect();
        ht_dsp::signal::normalize_zscore(&mut live);
        ds.push(live, 1).expect("width");
        let phase: f64 = rng.gen::<f64>() * 6.3;
        let mut replayed: Vec<f64> = (0..len)
            .map(|t| (t as f64 * 0.3 + phase).sin() + 0.1 * gaussian(&mut rng))
            .collect();
        ht_dsp::signal::normalize_zscore(&mut replayed);
        ds.push(replayed, 0).expect("width");
    }
    ds
}

fn random_spectra(n: usize, seed: u64) -> (Vec<Complex>, Vec<Complex>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xf: Vec<Complex> = (0..n)
        .map(|_| Complex::new(gaussian(&mut rng), gaussian(&mut rng)))
        .collect();
    let yf: Vec<Complex> = (0..n)
        .map(|_| Complex::new(gaussian(&mut rng), gaussian(&mut rng)))
        .collect();
    (xf, yf)
}

/// Fastest sample for a recorded bench. Speedup gates divide two of these:
/// scheduler noise only ever inflates a sample, so the minimum is the
/// least-biased estimate of each kernel's true cost and the ratio of
/// minimums is far more stable run-to-run than a ratio of medians.
fn min_of(suite: &Suite, name: &str) -> f64 {
    suite
        .results()
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("benchmark {name} was not recorded"))
        .min_ns
}

fn accuracy(mut net_predict: impl FnMut(&[f64]) -> usize, ds: &Dataset) -> f64 {
    let correct = (0..ds.len())
        .filter(|&i| {
            let (x, y) = ds.sample(i);
            net_predict(x) == y
        })
        .count();
    correct as f64 / ds.len() as f64
}

fn main() {
    let mut suite = Suite::new("quant");
    let mut violations: Vec<String> = Vec::new();

    // --- Per-channel whitening: the frame analyzer's kernel -------------
    // One 4-channel frame at the analyzer's 513 bins. Each timed call first
    // restores the raw spectra (the kernel whitens them in place), which
    // the per-pair side does not pay.
    let raw: Vec<Vec<Complex>> = (0..2)
        .flat_map(|k| {
            let (a, b) = random_spectra(FRAME_BINS, 0xC4A7 + k);
            [a, b]
        })
        .collect();
    let pairs: Vec<(usize, usize)> = (0..raw.len())
        .flat_map(|i| ((i + 1)..raw.len()).map(move |j| (i, j)))
        .collect();
    let mut cross = vec![Complex::ZERO; FRAME_BINS];
    let mut mags = vec![0.0; FRAME_BINS];
    suite.bench("phat_frame/per_pair_reference", || {
        for &(i, j) in &pairs {
            cross_whiten_reference_into(
                black_box(&raw[i]),
                black_box(&raw[j]),
                &mut cross,
                &mut mags,
            );
        }
        cross[0]
    });
    let mut spectra = raw.clone();
    let mut channel_mags = vec![0.0; raw.len() * FRAME_BINS];
    let mut accum = vec![Complex::ZERO; pairs.len() * FRAME_BINS];
    suite.bench("phat_frame/per_channel", || {
        for (s, r) in spectra.iter_mut().zip(&raw) {
            s.copy_from_slice(black_box(r));
        }
        channel_phat_accumulate(&mut spectra, &mut channel_mags, &pairs, &mut accum);
        accum[0]
    });
    let channel_speedup =
        min_of(&suite, "phat_frame/per_pair_reference") / min_of(&suite, "phat_frame/per_channel");
    eprintln!(
        "  per-channel whitening, 4 channels x {FRAME_BINS} bins: {channel_speedup:.2}x \
         over six per-pair reference calls (floor {CHANNEL_SPEEDUP_FLOOR}x)"
    );
    if channel_speedup < CHANNEL_SPEEDUP_FLOOR {
        violations.push(format!(
            "per-channel whitening: {channel_speedup:.2}x is below the \
             {CHANNEL_SPEEDUP_FLOOR}x floor"
        ));
    }

    // --- AVX2 i8 kernels: exact agreement + speedup ---------------------
    // The AVX2 dot/dist2 backends are pure integer arithmetic, so they
    // must agree with the scalar reference *exactly* — every i32 bit, on
    // every shape including ragged tails. A runner without AVX2 skips the
    // gate (and says so loudly) rather than silently passing it.
    let mut avx2_speedups: Option<(f64, f64)> = None;
    if avx2_available() {
        let mut rng = StdRng::seed_from_u64(0x51_D0);
        let mut rand_i8 =
            |n: usize| -> Vec<i8> { (0..n).map(|_| (rng.next_u64() % 255) as i8).collect() };
        for n in [1, 7, 15, 16, 17, 31, 32, 33, 64, 100, 128, 1000, 8000] {
            let a = rand_i8(n);
            let b = rand_i8(n);
            if dot_i8_avx2(&a, &b) != dot_i8_scalar(&a, &b) {
                violations.push(format!("avx2 dot_i8 disagreed with scalar at n={n}"));
            }
            if dist2_i8_avx2(&a, &b) != dist2_i8_scalar(&a, &b) {
                violations.push(format!("avx2 dist2_i8 disagreed with scalar at n={n}"));
            }
        }
        // Timing at the shapes inference actually runs: the mini encoder's
        // widest im2col row (128) dotted against many filter rows, and the
        // SVM's 64-dim distance against many support vectors.
        let rows: Vec<Vec<i8>> = (0..256).map(|_| rand_i8(128)).collect();
        let patch = rand_i8(128);
        suite.bench("i8_dot/scalar_128", || {
            rows.iter()
                .map(|w| dot_i8_scalar(black_box(w), black_box(&patch)))
                .sum::<i32>()
        });
        suite.bench("i8_dot/avx2_128", || {
            rows.iter()
                .map(|w| dot_i8_avx2(black_box(w), black_box(&patch)))
                .sum::<i32>()
        });
        let svs: Vec<Vec<i8>> = (0..256).map(|_| rand_i8(64)).collect();
        let x = rand_i8(64);
        suite.bench("i8_dist2/scalar_64", || {
            svs.iter()
                .map(|sv| dist2_i8_scalar(black_box(sv), black_box(&x)))
                .sum::<i32>()
        });
        suite.bench("i8_dist2/avx2_64", || {
            svs.iter()
                .map(|sv| dist2_i8_avx2(black_box(sv), black_box(&x)))
                .sum::<i32>()
        });
        let dot_speedup = min_of(&suite, "i8_dot/scalar_128") / min_of(&suite, "i8_dot/avx2_128");
        let dist2_speedup =
            min_of(&suite, "i8_dist2/scalar_64") / min_of(&suite, "i8_dist2/avx2_64");
        eprintln!(
            "  avx2 i8 kernels: exact agreement ok, dot {dot_speedup:.2}x, \
             dist2 {dist2_speedup:.2}x over autovectorized scalar"
        );
        avx2_speedups = Some((dot_speedup, dist2_speedup));
    } else {
        eprintln!(
            "  NOTICE: AVX2 unavailable on this runner — i8 SIMD agreement \
             gate skipped, scalar kernels serve the hot path"
        );
    }

    // --- Liveness band-pass: AVX2 wavefront vs portable path ------------
    // Both paths evaluate the same recurrence with the same roundings, so
    // they must agree bit for bit on every cascade length: 2–8 sections
    // run the wavefront, 1, 9 and 10 the portable loop on both sides.
    let mut bandpass_ns: Option<(f64, f64)> = None;
    if avx2_available() {
        let mut rng = StdRng::seed_from_u64(0xB4_9D);
        let signal: Vec<f64> = (0..4 * HOP + 7).map(|_| gaussian(&mut rng)).collect();
        let mut sections = Butterworth::bandpass(5, 100.0, 16_000.0, 48_000.0)
            .expect("static corners are valid")
            .sections()
            .to_vec();
        sections.extend_from_slice(
            Butterworth::lowpass(8, 3_000.0, 48_000.0)
                .expect("static corner is valid")
                .sections(),
        );
        let mut agree = true;
        for n in 1..=sections.len() {
            let sos = Sos::new(sections[..n].to_vec());
            let (mut simd, mut scalar) = (StreamingSos::new(sos.clone()), StreamingSos::new(sos));
            let (mut y_simd, mut y_scalar) = (Vec::new(), Vec::new());
            for chunk in signal.chunks(HOP) {
                simd.process(chunk, &mut y_simd);
                scalar.process_scalar(chunk, &mut y_scalar);
            }
            let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            if bits(&y_simd) != bits(&y_scalar) {
                agree = false;
                violations.push(format!(
                    "band-pass: avx2 path disagreed with scalar at {n} sections"
                ));
            }
        }
        // The first six sections are the paper's band-pass itself.
        let bandpass = StreamingSos::new(Sos::new(sections[..6].to_vec()));
        let hop = &signal[..HOP];
        let mut out = Vec::with_capacity(HOP);
        let mut stream = bandpass.clone();
        suite.bench("bandpass_480/avx2", || {
            out.clear();
            stream.process(black_box(hop), &mut out);
            out[HOP - 1]
        });
        let mut stream = bandpass;
        suite.bench("bandpass_480/scalar", || {
            out.clear();
            stream.process_scalar(black_box(hop), &mut out);
            out[HOP - 1]
        });
        let (avx2, scalar) = (
            min_of(&suite, "bandpass_480/avx2"),
            min_of(&suite, "bandpass_480/scalar"),
        );
        let speedup = scalar / avx2;
        eprintln!(
            "  liveness band-pass, 6 sections x {HOP} samples: exact agreement {}, \
             avx2 {avx2:.0} ns, scalar {scalar:.0} ns ({speedup:.2}x, floor \
             {BANDPASS_SPEEDUP_FLOOR}x)",
            if agree { "ok" } else { "FAILED" }
        );
        if speedup < BANDPASS_SPEEDUP_FLOOR {
            violations.push(format!(
                "band-pass: avx2 {speedup:.2}x is below the {BANDPASS_SPEEDUP_FLOOR}x floor"
            ));
        }
        bandpass_ns = Some((avx2, scalar));
    } else {
        eprintln!(
            "  NOTICE: AVX2 unavailable on this runner — band-pass SIMD agreement \
             and speed gates skipped, the portable loop serves the hot path"
        );
    }

    // --- Liveness network: f64 reference vs int8 ------------------------
    let input_len = 8_000; // PipelineConfig::default().liveness_input_len
    let train = liveness_corpus(8, input_len, 0xA11CE);
    let test = liveness_corpus(50, input_len, 0xB0B);
    let config = NeuralNetConfig {
        epochs: 6,
        ..NeuralNetConfig::wav2vec2_mini()
    };
    let net = NeuralNet::fit(&train, &config).expect("liveness training");

    // Byte-stability guard: snapshot reference outputs, build the quantized
    // backend, and re-run — calibration must not move a bit.
    let probe: Vec<&[f64]> = test.features().iter().map(Vec::as_slice).collect();
    let before: Vec<u64> = probe
        .iter()
        .map(|x| net.predict_proba(x).to_bits())
        .collect();
    let calib: Vec<&[f64]> = train.features().iter().map(Vec::as_slice).collect();
    let qnet = QuantizedNet::from_net(&net, &calib).expect("calibration");
    for (x, &bits) in probe.iter().zip(&before) {
        assert_eq!(
            net.predict_proba(x).to_bits(),
            bits,
            "building the int8 backend perturbed the f64 reference"
        );
    }

    suite.bench("liveness/reference_f64", || {
        probe
            .iter()
            .map(|x| net.predict_proba(black_box(x)))
            .sum::<f64>()
    });
    let mut scratch = QuantScratch::new();
    suite.bench("liveness/int8", || {
        probe
            .iter()
            .map(|x| {
                let logit = qnet.forward_with(black_box(x), &mut scratch);
                1.0 / (1.0 + (-logit).exp())
            })
            .sum::<f64>()
    });
    let net_speedup = min_of(&suite, "liveness/reference_f64") / min_of(&suite, "liveness/int8");
    eprintln!("  liveness int8: {net_speedup:.2}x");
    if net_speedup < NET_SPEEDUP_FLOOR {
        violations.push(format!(
            "liveness int8: {net_speedup:.2}x is below the {NET_SPEEDUP_FLOOR}x floor"
        ));
    }

    // Accuracy delta: the int8 backend must classify the held-out corpus
    // within 0.5 pp of the reference.
    let acc_ref = accuracy(|x| net.predict(x), &test);
    let mut scratch = QuantScratch::new();
    let acc_int8 = accuracy(
        |x| usize::from(qnet.forward_with(x, &mut scratch) >= 0.0),
        &test,
    );
    let acc_delta = (acc_ref - acc_int8).abs();
    let max_prob_delta = probe
        .iter()
        .map(|x| (net.predict_proba(x) - qnet.predict_proba(x)).abs())
        .fold(0.0f64, f64::max);
    eprintln!(
        "  liveness accuracy: reference {acc_ref:.4}, int8 {acc_int8:.4} \
         (delta {acc_delta:.4}, max prob delta {max_prob_delta:.2e})"
    );
    if acc_delta > ACCURACY_DELTA_MAX {
        violations.push(format!(
            "liveness accuracy delta {acc_delta:.4} exceeds {ACCURACY_DELTA_MAX}"
        ));
    }

    // --- Orientation SVM: f64 reference vs int8 (reported, ungated) -----
    let mut rng = StdRng::seed_from_u64(0x5F_ACE);
    let dim = 64;
    let mut orient = Dataset::new(dim);
    for i in 0..60 {
        let offset = if i % 2 == 0 { 1.0 } else { -1.0 };
        let row: Vec<f64> = (0..dim)
            .map(|_| offset + 0.4 * gaussian(&mut rng))
            .collect();
        orient.push(row, (i % 2 == 0) as usize).expect("width");
    }
    let svm = Svm::fit(&orient).expect("svm training");
    let svm_calib: Vec<&[f64]> = orient.features().iter().map(Vec::as_slice).collect();
    let qsvm = QuantizedSvm::from_svm(&svm, &svm_calib).expect("svm calibration");
    let svm_agree = orient
        .features()
        .iter()
        .all(|x| svm.predict(x) == qsvm.predict(x));
    assert!(svm_agree, "int8 SVM disagreed with the reference labels");
    suite.bench("orientation_svm/reference_f64", || {
        svm_calib
            .iter()
            .map(|x| svm.decision_score(black_box(x)))
            .sum::<f64>()
    });
    let mut svm_scratch: Vec<i8> = Vec::new();
    suite.bench("orientation_svm/int8", || {
        svm_calib
            .iter()
            .map(|x| qsvm.decision_score_with(black_box(x), &mut svm_scratch))
            .sum::<f64>()
    });
    let svm_speedup =
        min_of(&suite, "orientation_svm/reference_f64") / min_of(&suite, "orientation_svm/int8");
    eprintln!("  orientation svm int8: {svm_speedup:.2}x");

    // --- Report + gate ---------------------------------------------------
    let json = suite
        .to_json()
        .set(
            "speedups",
            Json::obj()
                .set(
                    "channel_phat",
                    Json::obj()
                        .set("channels", raw.len())
                        .set("bins", FRAME_BINS)
                        .set("speedup", channel_speedup)
                        .set("floor", CHANNEL_SPEEDUP_FLOOR),
                )
                .set("liveness_int8", net_speedup)
                .set("orientation_svm_int8", svm_speedup),
        )
        .set(
            "avx2",
            match avx2_speedups {
                Some((dot, dist2)) => Json::obj()
                    .set("available", true)
                    .set("dot_i8_speedup", dot)
                    .set("dist2_i8_speedup", dist2),
                None => Json::obj().set("available", false),
            },
        )
        .set(
            "bandpass",
            match bandpass_ns {
                Some((avx2, scalar)) => Json::obj()
                    .set("sections", 6usize)
                    .set("chunk", HOP)
                    .set("avx2_min_ns", avx2)
                    .set("scalar_min_ns", scalar)
                    .set("speedup", scalar / avx2)
                    .set("floor", BANDPASS_SPEEDUP_FLOOR),
                None => Json::obj().set("available", false),
            },
        )
        .set(
            "accuracy",
            Json::obj()
                .set("reference", acc_ref)
                .set("int8", acc_int8)
                .set("delta", acc_delta)
                .set("max_prob_delta", max_prob_delta),
        )
        .set(
            "floors",
            Json::obj()
                .set("net_speedup", NET_SPEEDUP_FLOOR)
                .set("accuracy_delta_max", ACCURACY_DELTA_MAX),
        );
    let dir = std::env::var("HT_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let _ = std::fs::create_dir_all(&dir);
    let path = std::path::Path::new(&dir).join("BENCH_quant.json");
    std::fs::write(&path, json.pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("suite quant: wrote {}", path.display());

    assert!(
        violations.is_empty(),
        "quant gate failed:\n{}",
        violations.join("\n")
    );
    eprintln!(
        "suite quant: gate ok (per-channel whitening {channel_speedup:.2}x, int8 net \
         {net_speedup:.2}x, accuracy delta {acc_delta:.4} <= {ACCURACY_DELTA_MAX})"
    );
}
