//! §IV-B15 — run-time performance of the HeadTalk pipeline stages on one
//! wake-word capture (the paper: 42 ms liveness + 136 ms orientation on an
//! i7-2600; 527 ms on the ReSpeaker's Cortex-A7).

use headtalk::preprocess::Preprocessor;
use headtalk::{HeadTalk, PipelineConfig};
use ht_bench::{black_box, Suite};
use ht_datagen::CaptureSpec;

fn bench_pipeline(s: &mut Suite) {
    let cfg = PipelineConfig::default();
    let capture = CaptureSpec::baseline(0xBEAC)
        .render()
        .expect("render succeeds");
    let pre = Preprocessor::new(&cfg).expect("preprocessor");

    // Zero-phase denoising: the Table IV mic-count path, not the decision
    // path.
    s.bench("runtime_b15/preprocess_denoise_4ch", || {
        pre.denoise_channels(black_box(&capture))
    });
    // The decision path's two evidence halves on the raw capture.
    s.bench("runtime_b15/liveness_input_preparation", || {
        HeadTalk::liveness_input(&cfg, black_box(&capture))
    });
    s.bench("runtime_b15/orientation_feature_extraction", || {
        HeadTalk::orientation_features(&cfg, black_box(&capture))
    });
}

fn bench_render(s: &mut Suite) {
    // The simulator's own cost (not part of the paper's runtime; here for
    // reproduction-throughput tracking).
    let spec = CaptureSpec::baseline(0xBEAD);
    s.bench("simulator/render_one_capture_d2", || spec.render());
}

fn main() {
    let mut s = Suite::new("pipeline_runtime");
    bench_pipeline(&mut s);
    bench_render(&mut s);
    s.finish();
}
