//! Int8 post-training quantization for the decision-path models.
//!
//! The serving hot path runs two models per wake decision: the
//! "wav2vec2-mini" conv1d liveness network ([`crate::nn`]) and the RBF-SVM
//! orientation classifier ([`crate::svm`]). Both are quantized here with
//! **static symmetric per-layer scales** calibrated offline from training
//! captures:
//!
//! * weights: `scale_w = max|w| / 127`, stored as `i8`,
//! * activations: `scale_a = max|a| / 127` where `max|a|` is taken over the
//!   f64 reference forward passes of the calibration set,
//! * accumulation in `i32` (the largest dot product in the mini encoder is
//!   `in_ch · kernel = 128` terms of at most `127 · 127`, ≈ 2.1 M ≪
//!   `i32::MAX`; the SVM distance is `dim` terms of at most `254²`).
//!
//! Biases, the global-average pool, and the dense head stay in f64 — they
//! are O(channels), not O(T·channels), so quantizing them would buy nothing
//! and cost accuracy. The f64 reference path in [`crate::nn`] /
//! [`crate::svm`] is untouched and remains the byte-stable default;
//! quantized inference is opt-in via `ht_dsp::QuantMode::Int8` at the
//! pipeline layer.
//!
//! Inference is allocation-free after warmup: [`QuantizedNet::forward_with`]
//! works over a caller-held (or thread-local) [`QuantScratch`] of flat
//! ping/pong buffers.

use crate::nn::{conv_out_len, NeuralNet};
use crate::svm::Svm;
use crate::{Classifier, MlError};
use std::cell::RefCell;

pub mod simd;

pub use simd::{dist2_i8_avx2, dot_i8_avx2};

/// Symmetric scale for values bounded by `max_abs`, mapping onto `[-127, 127]`.
///
/// An all-zero tensor gets scale 1.0 — every quantized value is 0 either way
/// and the dequantization multiplier stays finite.
fn scale_for(max_abs: f64) -> f64 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Quantizes one value with round-to-nearest and saturation to `[-127, 127]`.
#[inline]
fn quantize_one(v: f64, scale: f64) -> i8 {
    (v / scale).round().clamp(-127.0, 127.0) as i8
}

/// Hot-path variant of [`quantize_one`] taking the precomputed reciprocal:
/// a multiply pipelines far better than a divide when applied to thousands
/// of samples per forward pass. The ≤ 1 ulp pre-rounding difference versus
/// the divide can move a borderline value by one quantum — within the
/// quantization error budget, and deterministic for a given scale.
#[inline]
fn quantize_inv(v: f64, inv_scale: f64) -> i8 {
    (v * inv_scale).round().clamp(-127.0, 127.0) as i8
}

fn quantize_into(values: &[f64], scale: f64, out: &mut Vec<i8>) {
    let inv = 1.0 / scale;
    out.clear();
    out.extend(values.iter().map(|&v| quantize_inv(v, inv)));
}

/// Width of the manually unrolled i32 accumulator banks below: eight lanes
/// fill a 256-bit integer vector, and every dot product in the mini encoder
/// (`in_ch · kernel` ∈ {16, 64, 128}) divides evenly into them.
const DOT_LANES: usize = 8;

/// Flat i8·i8 → i32 dot product over `DOT_LANES` (8) independent
/// accumulators, so the compiler widens each chunk to one vector
/// multiply-add instead of a serial scalar chain. Portable reference for
/// the [`simd`] backends and the fallback on machines without AVX2; the
/// hot path dispatches through the crate-private `simd::dot_i8`.
#[inline]
pub fn dot_i8_scalar(w: &[i8], x: &[i8]) -> i32 {
    let mut lanes = [0i32; DOT_LANES];
    let wc = w.chunks_exact(DOT_LANES);
    let xc = x.chunks_exact(DOT_LANES);
    let (wt, xt) = (wc.remainder(), xc.remainder());
    for (cw, cx) in wc.zip(xc) {
        for l in 0..DOT_LANES {
            lanes[l] += cw[l] as i32 * cx[l] as i32;
        }
    }
    let mut acc: i32 = lanes.iter().sum();
    for (&a, &b) in wt.iter().zip(xt) {
        acc += a as i32 * b as i32;
    }
    acc
}

/// Flat squared Euclidean distance between i8 vectors, same lane structure
/// as [`dot_i8_scalar`]. Portable reference; the hot path dispatches
/// through the crate-private `simd::dist2_i8`.
#[inline]
pub fn dist2_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    let mut lanes = [0i32; DOT_LANES];
    let ac = a.chunks_exact(DOT_LANES);
    let bc = b.chunks_exact(DOT_LANES);
    let (at, bt) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        for l in 0..DOT_LANES {
            let d = ca[l] as i32 - cb[l] as i32;
            lanes[l] += d * d;
        }
    }
    let mut acc: i32 = lanes.iter().sum();
    for (&p, &q) in at.iter().zip(bt) {
        let d = p as i32 - q as i32;
        acc += d * d;
    }
    acc
}

/// One quantized conv1d stage with its static scales and fixed geometry.
#[derive(Debug, Clone, PartialEq)]
struct QuantConvStage {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    /// Input / output time lengths (fixed because the network input width is).
    t_in: usize,
    t_out: usize,
    /// `[out][in][k]`-flattened weights, same layout as the f64 stage.
    w: Vec<i8>,
    w_scale: f64,
    /// f64 per-output-channel biases.
    b: Vec<f64>,
    /// Scale of this stage's (ReLU'd) output activations. Unused for the
    /// last stage, whose output stays f64 for pooling.
    out_scale: f64,
}

/// Flat reusable buffers for [`QuantizedNet::forward_with`].
///
/// All vectors grow to their high-water mark on the first forward pass and
/// are only `resize`d (never reallocated) afterwards, so steady-state
/// inference performs no heap allocation.
#[derive(Debug, Default)]
pub struct QuantScratch {
    /// Quantized activations, ping/pong across conv stages, flat `[ch][t]`.
    q_in: Vec<i8>,
    q_out: Vec<i8>,
    /// Gathered conv patches, flat `[t][in_ch · kernel]`: one contiguous row
    /// per output position, in the same `[in][k]` order as a weight row, so
    /// every conv output is one flat [`simd::dot_i8`] over contiguous memory.
    patches: Vec<i8>,
    /// f64 output of the last conv stage, flat `[ch][t]`.
    f_last: Vec<f64>,
    /// Per-channel pooled means.
    pooled: Vec<f64>,
    /// Dense-head ping/pong activations.
    dense_a: Vec<f64>,
    dense_b: Vec<f64>,
}

impl QuantScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> QuantScratch {
        QuantScratch::default()
    }

    /// Drops buffered contents but keeps capacity. A reset scratch produces
    /// bit-identical results to a fresh one.
    pub fn reset(&mut self) {
        self.q_in.clear();
        self.q_out.clear();
        self.patches.clear();
        self.f_last.clear();
        self.pooled.clear();
        self.dense_a.clear();
        self.dense_b.clear();
    }
}

thread_local! {
    static NET_SCRATCH: RefCell<QuantScratch> = RefCell::new(QuantScratch::new());
    static SVM_SCRATCH: RefCell<Vec<i8>> = const { RefCell::new(Vec::new()) };
}

/// Int8-quantized view of a trained conv1d [`NeuralNet`].
///
/// Built offline with [`QuantizedNet::from_net`] from the f64 model plus a
/// calibration set; the original network is not modified and keeps serving
/// the byte-stable reference path.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNet {
    stages: Vec<QuantConvStage>,
    input_scale: f64,
    /// Largest flat activation size across stages — both ping/pong buffers
    /// are presized to this so one call reaches the scratch high-water mark.
    max_flat: usize,
    /// f64 dense head copied from the reference net (`[out][in]` flat).
    dense_w: Vec<Vec<f64>>,
    dense_b: Vec<Vec<f64>>,
    dense_dims: Vec<usize>,
    input_dim: usize,
}

impl QuantizedNet {
    /// Quantizes `net` using `calib` to fix the static activation scales.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidData`] for an empty calibration set or
    /// calibration rows of the wrong width.
    pub fn from_net(net: &NeuralNet, calib: &[&[f64]]) -> Result<QuantizedNet, MlError> {
        let specs = net.conv_specs();
        if calib.is_empty() {
            return Err(MlError::InvalidData("empty calibration set".into()));
        }
        for row in calib {
            if row.len() != net.input_dim() {
                return Err(MlError::InvalidData(format!(
                    "calibration row has {} samples, network expects {}",
                    row.len(),
                    net.input_dim()
                )));
            }
        }

        // Activation ranges from the f64 reference forwards: act_max[s] is
        // the max-abs input to conv stage s (s = 0 → the raw capture).
        let mut act_max = vec![0.0f64; specs.len()];
        for row in calib {
            for (m, v) in act_max.iter_mut().zip(net.conv_input_max_abs(row)) {
                *m = m.max(v);
            }
        }
        let input_scale = scale_for(act_max[0]);

        let mut stages = Vec::with_capacity(specs.len());
        let mut in_ch = 1usize;
        let mut t_in = net.input_dim();
        for (s, spec) in specs.iter().enumerate() {
            let w = net.conv_weights(s);
            let w_max = w.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            let w_scale = scale_for(w_max);
            let t_out = conv_out_len(t_in, spec.kernel, spec.stride);
            stages.push(QuantConvStage {
                in_ch,
                out_ch: spec.out_channels,
                kernel: spec.kernel,
                stride: spec.stride,
                t_in,
                t_out,
                w: w.iter().map(|&v| quantize_one(v, w_scale)).collect(),
                w_scale,
                b: net.conv_biases(s).to_vec(),
                out_scale: act_max.get(s + 1).copied().map(scale_for).unwrap_or(1.0),
            });
            in_ch = spec.out_channels;
            t_in = t_out;
        }

        let n_dense = net.dense_dims().len() - 1;
        let max_flat = stages
            .iter()
            .map(|st| st.out_ch * st.t_out)
            .fold(net.input_dim(), usize::max);
        Ok(QuantizedNet {
            stages,
            input_scale,
            max_flat,
            dense_w: (0..n_dense)
                .map(|l| net.dense_weights(l).to_vec())
                .collect(),
            dense_b: (0..n_dense).map(|l| net.dense_biases(l).to_vec()).collect(),
            dense_dims: net.dense_dims().to_vec(),
            input_dim: net.input_dim(),
        })
    }

    /// The expected input width in samples.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Int8 forward pass over caller-held scratch, returning the logit.
    /// Allocation-free once `scratch` has reached its high-water size.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`QuantizedNet::input_dim`] — the
    /// pipeline validates capture width before inference.
    pub fn forward_with(&self, x: &[f64], scratch: &mut QuantScratch) -> f64 {
        assert_eq!(
            x.len(),
            self.input_dim,
            "quantized net expects input dim {}",
            self.input_dim
        );
        // Presize both ping/pong buffers so the swap never exposes a
        // below-high-water buffer on the next call.
        scratch.q_in.resize(self.max_flat, 0);
        scratch.q_out.resize(self.max_flat, 0);
        quantize_into(x, self.input_scale, &mut scratch.q_in);

        let n_stages = self.stages.len();
        for (s, st) in self.stages.iter().enumerate() {
            let is_last = s + 1 == n_stages;
            let in_scale = if s == 0 {
                self.input_scale
            } else {
                self.stages[s - 1].out_scale
            };
            // One multiplier folds both scales back to real units.
            let deq = st.w_scale * in_scale;
            if is_last {
                scratch.f_last.clear();
                scratch.f_last.resize(st.out_ch * st.t_out, 0.0);
            } else {
                scratch.q_out.clear();
                scratch.q_out.resize(st.out_ch * st.t_out, 0);
            }
            // Gather each output position's receptive field into one
            // contiguous row (im2col), ordered `[in][k]` to match a weight
            // row, so the channel loop below is a single flat dot product
            // per output instead of `in_ch` strided slices.
            let patch_w = st.in_ch * st.kernel;
            scratch.patches.clear();
            for t in 0..st.t_out {
                let base = t * st.stride;
                for i in 0..st.in_ch {
                    scratch
                        .patches
                        .extend_from_slice(&scratch.q_in[i * st.t_in + base..][..st.kernel]);
                }
            }
            let inv_out = 1.0 / st.out_scale;
            for o in 0..st.out_ch {
                let row_off = o * st.t_out;
                let w_row = &st.w[o * patch_w..][..patch_w];
                for (t, patch) in scratch.patches.chunks_exact(patch_w).enumerate() {
                    let acc = simd::dot_i8(w_row, patch);
                    let v = (st.b[o] + acc as f64 * deq).max(0.0);
                    if is_last {
                        scratch.f_last[row_off + t] = v;
                    } else {
                        scratch.q_out[row_off + t] = quantize_inv(v, inv_out);
                    }
                }
            }
            if !is_last {
                std::mem::swap(&mut scratch.q_in, &mut scratch.q_out);
            }
        }

        // Global average pool per channel, then the f64 dense head — same
        // arithmetic order as the reference dense layers.
        let last = &self.stages[n_stages - 1];
        scratch.pooled.clear();
        for o in 0..last.out_ch {
            let row = &scratch.f_last[o * last.t_out..][..last.t_out];
            scratch
                .pooled
                .push(row.iter().sum::<f64>() / last.t_out as f64);
        }

        scratch.dense_a.clear();
        scratch.dense_a.extend_from_slice(&scratch.pooled);
        let n_layers = self.dense_w.len();
        for layer in 0..n_layers {
            let in_dim = self.dense_dims[layer];
            let out_dim = self.dense_dims[layer + 1];
            let (w, b) = (&self.dense_w[layer], &self.dense_b[layer]);
            scratch.dense_b.clear();
            for (o, &bias) in b.iter().enumerate().take(out_dim) {
                let mut acc = bias;
                let off = o * in_dim;
                for (i, v) in scratch.dense_a.iter().enumerate() {
                    acc += w[off + i] * v;
                }
                scratch.dense_b.push(if layer + 1 < n_layers {
                    acc.max(0.0)
                } else {
                    acc
                });
            }
            std::mem::swap(&mut scratch.dense_a, &mut scratch.dense_b);
        }
        scratch.dense_a[0]
    }

    /// Class-1 probability via a thread-local scratch.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let logit = NET_SCRATCH.with(|s| self.forward_with(x, &mut s.borrow_mut()));
        1.0 / (1.0 + (-logit).exp())
    }
}

impl Classifier for QuantizedNet {
    fn predict(&self, x: &[f64]) -> usize {
        usize::from(self.predict_proba(x) >= 0.5)
    }

    fn decision_score(&self, x: &[f64]) -> f64 {
        self.predict_proba(x)
    }
}

/// Int8-quantized view of a trained RBF [`Svm`].
///
/// Support vectors and queries share one symmetric input scale calibrated
/// over the support vectors plus the calibration features, so the squared
/// distance accumulates exactly in `i32` and only the final
/// `exp(-γ · scale² · d²)` runs in f64.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedSvm {
    /// Flat `[sv][dim]` quantized support vectors.
    svs: Vec<i8>,
    dim: usize,
    coeffs: Vec<f64>,
    bias: f64,
    /// `γ · scale²` — the dequantized RBF exponent multiplier.
    gamma_q: f64,
    scale: f64,
}

impl QuantizedSvm {
    /// Quantizes `svm`, calibrating the shared input scale over its support
    /// vectors and `calib` feature rows.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidData`] for an empty calibration set or rows
    /// whose width differs from the support-vector dimension.
    pub fn from_svm(svm: &Svm, calib: &[&[f64]]) -> Result<QuantizedSvm, MlError> {
        if calib.is_empty() {
            return Err(MlError::InvalidData("empty calibration set".into()));
        }
        let svs = svm.support_vectors();
        let dim = svs[0].len();
        for row in calib {
            if row.len() != dim {
                return Err(MlError::InvalidData(format!(
                    "calibration row has {} features, SVM expects {dim}",
                    row.len()
                )));
            }
        }
        let max_abs = svs
            .iter()
            .flat_map(|sv| sv.iter())
            .chain(calib.iter().flat_map(|row| row.iter()))
            .fold(0.0f64, |m, &v| m.max(v.abs()));
        let scale = scale_for(max_abs);
        Ok(QuantizedSvm {
            svs: svs
                .iter()
                .flat_map(|sv| sv.iter().map(|&v| quantize_one(v, scale)))
                .collect(),
            dim,
            coeffs: svm.coeffs().to_vec(),
            bias: svm.bias(),
            gamma_q: svm.gamma() * scale * scale,
            scale,
        })
    }

    /// Decision score over caller-held scratch for the quantized query.
    /// Allocation-free once `scratch` has grown to the feature width.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the support-vector dimension — the
    /// orientation detector validates feature width before scoring.
    pub fn decision_score_with(&self, x: &[f64], scratch: &mut Vec<i8>) -> f64 {
        assert_eq!(x.len(), self.dim, "quantized SVM expects dim {}", self.dim);
        quantize_into(x, self.scale, scratch);
        let mut f = self.bias;
        for (sv, &a) in self.svs.chunks_exact(self.dim).zip(self.coeffs.iter()) {
            let d2 = simd::dist2_i8(sv, scratch);
            f += a * (-self.gamma_q * d2 as f64).exp();
        }
        f
    }
}

impl Classifier for QuantizedSvm {
    fn predict(&self, x: &[f64]) -> usize {
        usize::from(self.decision_score(x) >= 0.0)
    }

    fn decision_score(&self, x: &[f64]) -> f64 {
        SVM_SCRATCH.with(|s| self.decision_score_with(x, &mut s.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::nn::{NeuralNet, NeuralNetConfig};
    use crate::svm::Svm;
    use ht_dsp::rng::{SeedableRng, StdRng};

    /// A small conv net + dataset shaped like the liveness task: 1-D
    /// captures, two classes separated by amplitude envelope.
    fn toy_conv_net(input_dim: usize, seed: u64) -> (NeuralNet, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(input_dim);
        for i in 0..60 {
            let label = i % 2;
            let amp = if label == 1 { 1.0 } else { 0.25 };
            let row: Vec<f64> = (0..input_dim)
                .map(|t| amp * (0.08 * t as f64).sin() + 0.05 * (ht_dsp::rng::gaussian(&mut rng)))
                .collect();
            ds.push(row, label).unwrap();
        }
        let config = NeuralNetConfig {
            conv: vec![
                crate::nn::ConvSpec {
                    out_channels: 4,
                    kernel: 8,
                    stride: 4,
                },
                crate::nn::ConvSpec {
                    out_channels: 8,
                    kernel: 4,
                    stride: 2,
                },
            ],
            hidden: vec![8],
            epochs: 8,
            ..NeuralNetConfig::wav2vec2_mini()
        };
        let net = NeuralNet::fit(&ds, &config).unwrap();
        (net, ds)
    }

    fn calib_rows(ds: &Dataset, n: usize) -> Vec<&[f64]> {
        (0..n.min(ds.len())).map(|i| ds.sample(i).0).collect()
    }

    #[test]
    fn quantized_net_logits_track_the_reference() {
        let (net, ds) = toy_conv_net(256, 7);
        let calib = calib_rows(&ds, 20);
        let qnet = QuantizedNet::from_net(&net, &calib).unwrap();
        let mut scratch = QuantScratch::new();
        let mut max_delta = 0.0f64;
        let mut ref_span = 0.0f64;
        for i in 0..ds.len() {
            let x = ds.sample(i).0;
            let r = net.logit(x);
            let q = qnet.forward_with(x, &mut scratch);
            max_delta = max_delta.max((r - q).abs());
            ref_span = ref_span.max(r.abs());
        }
        // Int8 keeps the logit within a small fraction of the reference span.
        assert!(
            max_delta <= 0.05 * ref_span.max(1.0),
            "max logit delta {max_delta} vs span {ref_span}"
        );
    }

    #[test]
    fn quantized_probabilities_stay_within_half_a_point() {
        let (net, ds) = toy_conv_net(256, 11);
        let calib = calib_rows(&ds, 20);
        let qnet = QuantizedNet::from_net(&net, &calib).unwrap();
        let mut worst = 0.0f64;
        for i in 0..ds.len() {
            let x = ds.sample(i).0;
            worst = worst.max((net.predict_proba(x) - qnet.predict_proba(x)).abs());
        }
        // The CI accuracy gate allows 0.5 pp; the probability drift that
        // drives it should sit well inside that.
        assert!(worst < 0.05, "worst probability delta {worst}");
    }

    #[test]
    fn scratch_reset_and_reuse_are_bit_identical() {
        let (net, ds) = toy_conv_net(128, 3);
        let calib = calib_rows(&ds, 10);
        let qnet = QuantizedNet::from_net(&net, &calib).unwrap();
        let x = ds.sample(1).0;

        let mut fresh = QuantScratch::new();
        let first = qnet.forward_with(x, &mut fresh);

        let mut reused = QuantScratch::new();
        for i in 0..ds.len() {
            qnet.forward_with(ds.sample(i).0, &mut reused); // dirty the buffers
        }
        let warm = qnet.forward_with(x, &mut reused);
        assert_eq!(first.to_bits(), warm.to_bits());

        reused.reset();
        let after_reset = qnet.forward_with(x, &mut reused);
        assert_eq!(first.to_bits(), after_reset.to_bits());
    }

    #[test]
    fn thread_local_scratch_matches_explicit_scratch_across_threads() {
        let (net, ds) = toy_conv_net(128, 5);
        let calib = calib_rows(&ds, 10);
        let qnet = QuantizedNet::from_net(&net, &calib).unwrap();
        let mut scratch = QuantScratch::new();
        let expected: Vec<f64> = (0..8)
            .map(|i| qnet.forward_with(ds.sample(i).0, &mut scratch))
            .collect();
        let expected_p: Vec<f64> = expected.iter().map(|l| 1.0 / (1.0 + (-l).exp())).collect();

        for threads in [1usize, 4] {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        for (i, want) in expected_p.iter().enumerate() {
                            let got = qnet.predict_proba(ds.sample(i).0);
                            assert_eq!(want.to_bits(), got.to_bits());
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn random_captures_property_agreement() {
        let (net, ds) = toy_conv_net(128, 13);
        let calib = calib_rows(&ds, 15);
        let qnet = QuantizedNet::from_net(&net, &calib).unwrap();
        ht_dsp::check::property("quant_logit_agreement")
            .cases(40)
            .run(|g| {
                // Random captures drawn from the same family as the training
                // set (static scales are calibrated for that envelope; they
                // saturate, by design, on wildly out-of-range inputs).
                let amp = g.f64_in(0.2..1.0);
                let freq = g.f64_in(0.04..0.12);
                let noise = g.vec_f64(-0.08..0.08, 128..129);
                let x: Vec<f64> = noise
                    .iter()
                    .enumerate()
                    .map(|(t, n)| amp * (freq * t as f64).sin() + n)
                    .collect();
                let r = net.logit(&x);
                let mut scratch = QuantScratch::new();
                let q = qnet.forward_with(&x, &mut scratch);
                assert!(
                    (r - q).abs() <= 0.25 * r.abs().max(1.0),
                    "logit {r} vs quantized {q}"
                );
            });
    }

    #[test]
    fn quantized_svm_scores_track_the_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut ds = Dataset::new(3);
        for i in 0..80 {
            let label = i % 2;
            let c = if label == 1 { 1.5 } else { -1.5 };
            ds.push(
                (0..3)
                    .map(|_| c + 0.6 * ht_dsp::rng::gaussian(&mut rng))
                    .collect(),
                label,
            )
            .unwrap();
        }
        let svm = Svm::fit(&ds).unwrap();
        let calib: Vec<&[f64]> = (0..20).map(|i| ds.sample(i).0).collect();
        let qsvm = QuantizedSvm::from_svm(&svm, &calib).unwrap();

        let mut scratch = Vec::new();
        let mut agree = 0usize;
        for i in 0..ds.len() {
            let x = ds.sample(i).0;
            let r = svm.decision_score(x);
            let q = qsvm.decision_score_with(x, &mut scratch);
            assert!((r - q).abs() < 0.1 * r.abs().max(1.0), "score {r} vs {q}");
            agree += usize::from((r >= 0.0) == (q >= 0.0));
        }
        // Predicted labels must agree on every sample of this easy set, and
        // the trait-based TLS entry point must match the explicit scratch.
        assert_eq!(agree, ds.len());
        let x = ds.sample(0).0;
        assert_eq!(
            qsvm.decision_score(x).to_bits(),
            qsvm.decision_score_with(x, &mut scratch).to_bits()
        );
    }

    #[test]
    fn construction_rejects_bad_inputs() {
        let (net, _) = toy_conv_net(128, 17);
        assert!(matches!(
            QuantizedNet::from_net(&net, &[]),
            Err(MlError::InvalidData(_))
        ));
        let short = vec![0.0; 5];
        assert!(matches!(
            QuantizedNet::from_net(&net, &[&short]),
            Err(MlError::InvalidData(_))
        ));

        let svm_ds = {
            let mut d = Dataset::new(2);
            for i in 0..20 {
                let l = i % 2;
                let c = if l == 1 { 2.0 } else { -2.0 };
                d.push(vec![c, c + 0.1 * i as f64], l).unwrap();
            }
            d
        };
        let svm = Svm::fit(&svm_ds).unwrap();
        assert!(matches!(
            QuantizedSvm::from_svm(&svm, &[]),
            Err(MlError::InvalidData(_))
        ));
        let wrong = vec![0.0; 3];
        assert!(matches!(
            QuantizedSvm::from_svm(&svm, &[&wrong]),
            Err(MlError::InvalidData(_))
        ));
    }

    #[test]
    fn all_zero_calibration_yields_finite_scales() {
        let (net, ds) = toy_conv_net(128, 19);
        let zeros = vec![0.0; 128];
        let qnet = QuantizedNet::from_net(&net, &[&zeros]).unwrap();
        let mut scratch = QuantScratch::new();
        let out = qnet.forward_with(&zeros, &mut scratch);
        assert!(out.is_finite());
        let _ = ds;
    }
}
