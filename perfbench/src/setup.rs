//! The shared set-up: train a real pipeline with the `tests/end_to_end.rs`
//! recipe from pre-rendered captures, optionally calibrate it to int8, and
//! (for the serving workloads) build the prewarmed server.

use std::time::Instant;

use headtalk::liveness::LivenessDetector;
use headtalk::orientation::{ModelKind, OrientationDetector};
use headtalk::{HeadTalk, PipelineConfig};
use ht_ml::Dataset;
use ht_serve::{ServeConfig, TokenBucketConfig, WakeServer};

use crate::inputs::TrainingSet;
use crate::sys::secs;

/// Where one set-up spent its time, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub extract_s: f64,
    pub liveness_input_s: f64,
    pub orientation_fit_s: f64,
    pub liveness_fit_s: f64,
    pub int8_calibrate_s: f64,
    pub server_build_s: f64,
    /// Training and calibration; the server build is added by the caller.
    pub total_s: f64,
}

/// Copies of the pipeline's two models, so the traced run can time each
/// model on its own.
pub struct Models {
    pub liveness: LivenessDetector,
    pub orientation: OrientationDetector,
}

/// A trained pipeline, its model copies and where its set-up went.
pub struct Trained {
    pub ht: HeadTalk,
    pub models: Models,
    pub times: SetupTimes,
}

/// Trains the pipeline from `set`; with `int8`, calibrates it on the same
/// captures and switches it to `QuantMode::Int8`.
pub fn train(set: &TrainingSet, int8: bool) -> Trained {
    let started = Instant::now();
    let config = PipelineConfig::default();
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let mut orient = Dataset::new(headtalk::features::feature_width(4, &config));
    for (capture, label) in set.orientation() {
        let f = HeadTalk::orientation_features(&config, capture).expect("orientation features");
        orient.push(f, label).expect("orientation row");
    }
    times.extract_s = secs(t);

    let t = Instant::now();
    let mut live = Dataset::new(config.liveness_input_len);
    for (capture, label) in set.liveness() {
        let x = HeadTalk::liveness_input(&config, capture).expect("liveness input");
        live.push(x, label).expect("liveness row");
    }
    times.liveness_input_s = secs(t);

    let t = Instant::now();
    let orientation = OrientationDetector::fit(&orient, ModelKind::Svm, 7).expect("SVM fit");
    times.orientation_fit_s = secs(t);

    let t = Instant::now();
    let liveness = LivenessDetector::fit(&live, 24, 8).expect("liveness fit");
    times.liveness_fit_s = secs(t);

    let mut ht =
        HeadTalk::new(config, liveness.clone(), orientation.clone()).expect("pipeline assembly");
    if int8 {
        let t = Instant::now();
        ht.enable_int8(&set.captures).expect("int8 calibration");
        times.int8_calibrate_s = secs(t);
    }
    times.total_s = secs(started);
    Trained {
        ht,
        models: Models {
            liveness,
            orientation,
        },
        times,
    }
}

impl Models {
    /// Gives the copies the int8 scales `HeadTalk::enable_int8` derives
    /// from `set` (the traced run times them under the pipeline's mode).
    pub fn calibrate_int8(&mut self, config: &PipelineConfig, set: &TrainingSet) {
        let liv: Vec<Vec<f64>> = set
            .captures
            .iter()
            .map(|c| HeadTalk::liveness_input(config, c).expect("liveness input"))
            .collect();
        let feat: Vec<Vec<f64>> = set
            .captures
            .iter()
            .map(|c| HeadTalk::orientation_features(config, c).expect("features"))
            .collect();
        let liv: Vec<&[f64]> = liv.iter().map(Vec::as_slice).collect();
        let feat: Vec<&[f64]> = feat.iter().map(Vec::as_slice).collect();
        self.liveness.calibrate_int8(&liv).expect("liveness int8");
        self.orientation
            .calibrate_int8(&feat)
            .expect("orientation int8");
    }
}

/// One whole set-up — training, and for the serving workloads int8
/// calibration and the server build — timed and thrown away.
pub fn timed(set: &TrainingSet, serving: bool) -> SetupTimes {
    let mut t = train(set, serving);
    if serving {
        let (server, build_s) = build_server(&t.ht);
        drop(server);
        t.times.server_build_s = build_s;
        t.times.total_s += build_s;
    }
    t.times
}

/// Builds the serving workloads' prewarmed server; returns it with its
/// build time in seconds.
pub fn build_server(ht: &HeadTalk) -> (WakeServer<'_>, f64) {
    let t = Instant::now();
    let server = WakeServer::new(ht, serve_config(ht));
    (server, secs(t))
}

/// 4 shards × 32 prewarmed slots behind an unlimited admission bucket: the
/// benchmark measures decisions, not rate limiting.
pub fn serve_config(ht: &HeadTalk) -> ServeConfig {
    ServeConfig {
        n_shards: 4,
        sessions_per_shard: 32,
        prewarm_slots: 32,
        bucket: TokenBucketConfig {
            capacity: u64::MAX,
            refill_per_sec: 0,
        },
        ..ServeConfig::for_pipeline(ht.config())
    }
}
