//! A small neural network: strided 1-D convolutions, dense layers, ReLU,
//! trained with Adam on binary cross-entropy.
//!
//! This is the reproduction's stand-in for the paper's wav2vec2 liveness
//! network ("wav2vec2-mini", see `DESIGN.md`): like wav2vec2 it consumes raw
//! 16 kHz audio normalized to zero mean and unit variance and encodes it with
//! a strided convolutional feature encoder before a small classification
//! head. It is orders of magnitude smaller, which is appropriate for the
//! synthetic corpus and keeps the reproduction self-contained.

use crate::dataset::Dataset;
use crate::{Classifier, MlError};
use ht_dsp::rng::SeedableRng;
use ht_dsp::rng::SliceRandom;
use ht_dsp::rng::StdRng;

/// One convolutional stage of the feature encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Output channels.
    pub out_channels: usize,
    /// Kernel width in samples.
    pub kernel: usize,
    /// Stride in samples.
    pub stride: usize,
}

/// Network architecture and training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralNetConfig {
    /// Convolutional encoder stages (at least one).
    pub conv: Vec<ConvSpec>,
    /// Hidden dense widths after the encoder (global-average-pooled).
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Weight-initialization / shuffling seed.
    pub seed: u64,
}

impl NeuralNetConfig {
    /// The liveness-detector architecture: a three-stage strided conv
    /// encoder over raw 16 kHz audio followed by a small dense head.
    pub fn wav2vec2_mini() -> NeuralNetConfig {
        NeuralNetConfig {
            conv: vec![
                ConvSpec {
                    out_channels: 8,
                    kernel: 16,
                    stride: 8,
                },
                ConvSpec {
                    out_channels: 16,
                    kernel: 8,
                    stride: 4,
                },
                ConvSpec {
                    out_channels: 32,
                    kernel: 8,
                    stride: 4,
                },
            ],
            hidden: vec![16],
            learning_rate: 3e-3,
            epochs: 20,
            batch: 16,
            seed: 7,
        }
    }
}

/// A flat parameter block with Adam state.
#[derive(Debug, Clone, PartialEq)]
struct Params {
    w: Vec<f64>,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Params {
    fn new(w: Vec<f64>) -> Params {
        let n = w.len();
        Params {
            w,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    fn adam_step(&mut self, grad: &[f64], lr: f64, t: usize) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        let t = t as i32;
        for ((w, (m, v)), g) in self
            .w
            .iter_mut()
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
            .zip(grad.iter())
        {
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let mh = *m / (1.0 - B1.powi(t));
            let vh = *v / (1.0 - B2.powi(t));
            *w -= lr * mh / (vh.sqrt() + EPS);
        }
    }
}

/// A trained network.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralNet {
    config: NeuralNetConfig,
    /// Conv weights: per stage, flattened `[out][in][k]` plus `out` biases.
    conv_w: Vec<Params>,
    conv_b: Vec<Params>,
    /// Dense weights: per layer, flattened `[out][in]` plus `out` biases.
    dense_w: Vec<Params>,
    dense_b: Vec<Params>,
    /// Dense layer widths including input and the final logit.
    dense_dims: Vec<usize>,
    adam_t: usize,
    input_dim: usize,
}

/// Channels × time activation tensor.
type Tensor = Vec<Vec<f64>>;

pub(crate) fn conv_out_len(t_in: usize, kernel: usize, stride: usize) -> usize {
    if t_in < kernel {
        0
    } else {
        (t_in - kernel) / stride + 1
    }
}

impl NeuralNet {
    /// Trains a fresh network.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidData`] for empty/degenerate data, and
    /// [`MlError::InvalidParameter`] for zero epochs/batch or a conv stack
    /// that is empty or consumes the whole input.
    pub fn fit(ds: &Dataset, config: &NeuralNetConfig) -> Result<NeuralNet, MlError> {
        let mut net = NeuralNet::init(ds, config)?;
        net.train(ds, config.epochs)?;
        Ok(net)
    }

    fn init(ds: &Dataset, config: &NeuralNetConfig) -> Result<NeuralNet, MlError> {
        if ds.is_empty() {
            return Err(MlError::InvalidData("empty training set".into()));
        }
        if config.epochs == 0 || config.batch == 0 {
            return Err(MlError::InvalidParameter(
                "epochs and batch must be positive".into(),
            ));
        }
        if config.conv.is_empty() {
            return Err(MlError::InvalidParameter(
                "the network needs at least one conv stage".into(),
            ));
        }
        if ds.classes().iter().any(|&c| c > 1) {
            return Err(MlError::InvalidData(
                "network expects binary labels in {0, 1}".into(),
            ));
        }
        let input_dim = ds.dim();
        // Validate the conv stack against the input length.
        let mut t = input_dim;
        let mut in_ch = 1usize;
        for spec in &config.conv {
            t = conv_out_len(t, spec.kernel, spec.stride);
            if t == 0 {
                return Err(MlError::InvalidParameter(format!(
                    "conv stage (k={}, s={}) consumes the whole input",
                    spec.kernel, spec.stride
                )));
            }
            in_ch = spec.out_channels;
        }

        let mut rng = StdRng::seed_from_u64(config.seed);
        let he = |rng: &mut StdRng, fan_in: usize, n: usize| -> Vec<f64> {
            let sd = (2.0 / fan_in as f64).sqrt();
            (0..n).map(|_| sd * ht_dsp::rng::gaussian(rng)).collect()
        };

        let mut conv_w = Vec::new();
        let mut conv_b = Vec::new();
        let mut ch = 1usize;
        for spec in &config.conv {
            let fan_in = ch * spec.kernel;
            conv_w.push(Params::new(he(
                &mut rng,
                fan_in,
                spec.out_channels * ch * spec.kernel,
            )));
            conv_b.push(Params::new(vec![0.0; spec.out_channels]));
            ch = spec.out_channels;
        }

        let mut dense_dims = vec![in_ch];
        dense_dims.extend(config.hidden.iter().copied());
        dense_dims.push(1);
        let mut dense_w = Vec::new();
        let mut dense_b = Vec::new();
        for win in dense_dims.windows(2) {
            let (i, o) = (win[0], win[1]);
            dense_w.push(Params::new(he(&mut rng, i, o * i)));
            dense_b.push(Params::new(vec![0.0; o]));
        }

        Ok(NeuralNet {
            config: config.clone(),
            conv_w,
            conv_b,
            dense_w,
            dense_b,
            dense_dims,
            adam_t: 0,
            input_dim,
        })
    }

    /// Continues training on (possibly new) data for `epochs` more epochs —
    /// the incremental-learning protocol of §IV-A1 ("after retraining on the
    /// 20% new training data … with just 10 epochs of training").
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidData`] if the data's dimensionality differs
    /// from the network input.
    pub fn fit_more(&mut self, ds: &Dataset, epochs: usize) -> Result<(), MlError> {
        self.train(ds, epochs)
    }

    fn train(&mut self, ds: &Dataset, epochs: usize) -> Result<(), MlError> {
        if ds.dim() != self.input_dim {
            return Err(MlError::InvalidData(format!(
                "expected input dim {}, got {}",
                self.input_dim,
                ds.dim()
            )));
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xABCD_1234);
        let mut order: Vec<usize> = (0..ds.len()).collect();
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.config.batch) {
                self.step_batch(ds, chunk);
            }
        }
        Ok(())
    }

    /// Forward pass storing activations; returns (per-stage conv inputs,
    /// pooled vector, dense activations, logit).
    #[allow(clippy::type_complexity)]
    fn forward(&self, x: &[f64]) -> (Vec<Tensor>, Vec<f64>, Vec<Vec<f64>>, f64) {
        // Conv encoder.
        let mut act: Tensor = vec![x.to_vec()];
        let mut conv_inputs: Vec<Tensor> = Vec::with_capacity(self.conv_w.len());
        for (stage, spec) in self.config.conv.iter().enumerate() {
            conv_inputs.push(act.clone());
            let in_ch = act.len();
            let t_in = act[0].len();
            let t_out = conv_out_len(t_in, spec.kernel, spec.stride);
            let w = &self.conv_w[stage].w;
            let b = &self.conv_b[stage].w;
            let mut next: Tensor = vec![vec![0.0; t_out]; spec.out_channels];
            for (o, row) in next.iter_mut().enumerate() {
                let w_o = &w[o * in_ch * spec.kernel..][..in_ch * spec.kernel];
                for (t, out_v) in row.iter_mut().enumerate() {
                    let mut acc = b[o];
                    let base = t * spec.stride;
                    for (w_i, in_row) in w_o.chunks_exact(spec.kernel).zip(&act) {
                        for (wk, xk) in w_i.iter().zip(&in_row[base..base + spec.kernel]) {
                            acc += wk * xk;
                        }
                    }
                    // ReLU fused here.
                    *out_v = acc.max(0.0);
                }
            }
            act = next;
        }

        // Global average pool.
        let pooled: Vec<f64> = act
            .iter()
            .map(|row| row.iter().sum::<f64>() / row.len() as f64)
            .collect();

        // Dense head with ReLU between layers; final layer linear (logit).
        let mut dense_acts: Vec<Vec<f64>> = vec![pooled.clone()];
        let n_layers = self.dense_w.len();
        for (layer, (wp, bp)) in self.dense_w.iter().zip(self.dense_b.iter()).enumerate() {
            let input = dense_acts.last().expect("at least the pooled input");
            let in_dim = self.dense_dims[layer];
            let out_dim = self.dense_dims[layer + 1];
            let mut out = vec![0.0; out_dim];
            for (o, out_v) in out.iter_mut().enumerate() {
                let mut acc = bp.w[o];
                let off = o * in_dim;
                for (i, v) in input.iter().enumerate() {
                    acc += wp.w[off + i] * v;
                }
                *out_v = if layer + 1 < n_layers {
                    acc.max(0.0)
                } else {
                    acc
                };
            }
            dense_acts.push(out);
        }
        let logit = dense_acts.last().expect("final layer")[0];
        (conv_inputs, pooled, dense_acts, logit)
    }

    #[allow(clippy::needless_range_loop)] // index-heavy backprop reads clearer with explicit indices
    fn step_batch(&mut self, ds: &Dataset, indices: &[usize]) {
        // Gradient accumulators mirroring the parameter blocks.
        let mut g_conv_w: Vec<Vec<f64>> =
            self.conv_w.iter().map(|p| vec![0.0; p.w.len()]).collect();
        let mut g_conv_b: Vec<Vec<f64>> =
            self.conv_b.iter().map(|p| vec![0.0; p.w.len()]).collect();
        let mut g_dense_w: Vec<Vec<f64>> =
            self.dense_w.iter().map(|p| vec![0.0; p.w.len()]).collect();
        let mut g_dense_b: Vec<Vec<f64>> =
            self.dense_b.iter().map(|p| vec![0.0; p.w.len()]).collect();

        let scale = 1.0 / indices.len() as f64;
        for &idx in indices {
            let (x, label) = ds.sample(idx);
            let (conv_inputs, _pooled, dense_acts, logit) = self.forward(x);
            let y = label as f64;
            let p = 1.0 / (1.0 + (-logit).exp());
            // dL/dlogit for BCE-with-logits.
            let mut delta = vec![(p - y) * scale];

            // Backprop dense layers.
            for layer in (0..self.dense_w.len()).rev() {
                let input = &dense_acts[layer];
                let output = &dense_acts[layer + 1];
                let in_dim = self.dense_dims[layer];
                let is_last = layer + 1 == self.dense_w.len();
                // ReLU gate on the output (not for the final logit).
                let gated: Vec<f64> = if is_last {
                    delta.clone()
                } else {
                    delta
                        .iter()
                        .zip(output.iter())
                        .map(|(d, o)| if *o > 0.0 { *d } else { 0.0 })
                        .collect()
                };
                let mut d_in = vec![0.0; in_dim];
                for (o, d) in gated.iter().enumerate() {
                    g_dense_b[layer][o] += d;
                    let off = o * in_dim;
                    for (i, v) in input.iter().enumerate() {
                        g_dense_w[layer][off + i] += d * v;
                        d_in[i] += d * self.dense_w[layer].w[off + i];
                    }
                }
                delta = d_in;
            }

            // Un-pool: distribute the per-channel gradient over time.
            // We need the conv output shapes; recompute from the last conv
            // input tensor.
            let mut d_out: Tensor;
            {
                // Recompute final conv activation lengths from the stored
                // inputs of the last stage.
                let last = self.config.conv.len() - 1;
                let spec = self.config.conv[last];
                let t_out = conv_out_len(conv_inputs[last][0].len(), spec.kernel, spec.stride);
                d_out = (0..spec.out_channels)
                    .map(|ch| vec![delta[ch] / t_out as f64; t_out])
                    .collect();
            }

            // Backprop conv stages in reverse. We must re-run each stage
            // forward to know the pre-ReLU sign; instead we recompute the
            // stage output from its stored input (cheap relative to training
            // as a whole and keeps memory simple).
            for stage in (0..self.config.conv.len()).rev() {
                let spec = self.config.conv[stage];
                let input = &conv_inputs[stage];
                let in_ch = input.len();
                let t_out = d_out[0].len();
                // Recompute post-ReLU output for gating.
                let w = &self.conv_w[stage].w;
                let b = &self.conv_b[stage].w;
                let mut d_in: Tensor = vec![vec![0.0; input[0].len()]; in_ch];
                for o in 0..spec.out_channels {
                    for t in 0..t_out {
                        let base = t * spec.stride;
                        // pre-activation
                        let mut acc = b[o];
                        for (i, in_row) in input.iter().enumerate() {
                            let w_off = (o * in_ch + i) * spec.kernel;
                            for k in 0..spec.kernel {
                                acc += w[w_off + k] * in_row[base + k];
                            }
                        }
                        if acc <= 0.0 {
                            continue; // ReLU gate closed
                        }
                        let d = d_out[o][t];
                        if d == 0.0 {
                            continue;
                        }
                        g_conv_b[stage][o] += d;
                        for (i, in_row) in input.iter().enumerate() {
                            let w_off = (o * in_ch + i) * spec.kernel;
                            for k in 0..spec.kernel {
                                g_conv_w[stage][w_off + k] += d * in_row[base + k];
                                d_in[i][base + k] += d * w[w_off + k];
                            }
                        }
                    }
                }
                d_out = d_in;
            }
        }

        // Adam updates.
        self.adam_t += 1;
        let lr = self.config.learning_rate;
        let t = self.adam_t;
        for (p, g) in self.conv_w.iter_mut().zip(g_conv_w.iter()) {
            p.adam_step(g, lr, t);
        }
        for (p, g) in self.conv_b.iter_mut().zip(g_conv_b.iter()) {
            p.adam_step(g, lr, t);
        }
        for (p, g) in self.dense_w.iter_mut().zip(g_dense_w.iter()) {
            p.adam_step(g, lr, t);
        }
        for (p, g) in self.dense_b.iter_mut().zip(g_dense_b.iter()) {
            p.adam_step(g, lr, t);
        }
    }

    /// Class-1 probability for one input.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let logit = self.forward(x).3;
        1.0 / (1.0 + (-logit).exp())
    }

    // ---- read-only views for the quantized backend (crate::quant) ----

    /// The convolutional encoder stages.
    pub(crate) fn conv_specs(&self) -> &[ConvSpec] {
        &self.config.conv
    }

    /// Flattened `[out][in][k]` weights of conv stage `stage`.
    pub(crate) fn conv_weights(&self, stage: usize) -> &[f64] {
        &self.conv_w[stage].w
    }

    /// Per-output-channel biases of conv stage `stage`.
    pub(crate) fn conv_biases(&self, stage: usize) -> &[f64] {
        &self.conv_b[stage].w
    }

    /// Flattened `[out][in]` weights of dense layer `layer`.
    pub(crate) fn dense_weights(&self, layer: usize) -> &[f64] {
        &self.dense_w[layer].w
    }

    /// Biases of dense layer `layer`.
    pub(crate) fn dense_biases(&self, layer: usize) -> &[f64] {
        &self.dense_b[layer].w
    }

    /// Dense layer widths, input through final logit.
    pub(crate) fn dense_dims(&self) -> &[usize] {
        &self.dense_dims
    }

    /// The expected input width in samples.
    pub(crate) fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Raw decision logit — the quantized backend's accuracy gates compare
    /// against this rather than the squashed probability.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn logit(&self, x: &[f64]) -> f64 {
        self.forward(x).3
    }

    /// Max-abs of the input to each conv stage for one sample (entry 0 is
    /// the raw input, entry `s` the output of conv stage `s - 1`). This is
    /// the calibration hook for [`crate::quant`]'s static activation scales.
    pub(crate) fn conv_input_max_abs(&self, x: &[f64]) -> Vec<f64> {
        let (conv_inputs, _, _, _) = self.forward(x);
        conv_inputs
            .iter()
            .map(|t| {
                t.iter()
                    .flat_map(|row| row.iter())
                    .fold(0.0f64, |m, &v| m.max(v.abs()))
            })
            .collect()
    }
}

impl Classifier for NeuralNet {
    fn predict(&self, x: &[f64]) -> usize {
        usize::from(self.predict_proba(x) >= 0.5)
    }

    fn decision_score(&self, x: &[f64]) -> f64 {
        self.forward(x).3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ht_dsp::rng::Rng;

    /// Binary problem on short "waveforms": class 1 = high-frequency
    /// alternation, class 0 = slow ramp. Mimics (in miniature) the spectral
    /// discrimination task of liveness detection.
    fn waveforms(n_per: usize, seed: u64, len: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(len);
        for _ in 0..n_per {
            let fast: Vec<f64> = (0..len)
                .map(|t| if t % 2 == 0 { 1.0 } else { -1.0 } * (0.8 + 0.4 * rng.gen::<f64>()))
                .collect();
            ds.push(fast, 1).unwrap();
            let phase: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
            let slow: Vec<f64> = (0..len)
                .map(|t| (t as f64 * 0.05 + phase).sin() * (0.8 + 0.4 * rng.gen::<f64>()))
                .collect();
            ds.push(slow, 0).unwrap();
        }
        ds
    }

    fn tiny_conv_config() -> NeuralNetConfig {
        NeuralNetConfig {
            conv: vec![
                ConvSpec {
                    out_channels: 4,
                    kernel: 8,
                    stride: 4,
                },
                ConvSpec {
                    out_channels: 8,
                    kernel: 4,
                    stride: 2,
                },
            ],
            hidden: vec![8],
            learning_rate: 5e-3,
            epochs: 30,
            batch: 8,
            seed: 3,
        }
    }

    #[test]
    fn conv_net_learns_waveform_classes() {
        let train = waveforms(30, 1, 128);
        let test = waveforms(30, 2, 128);
        let net = NeuralNet::fit(&train, &tiny_conv_config()).unwrap();
        let preds = net.predict_batch(test.features());
        let acc = crate::metrics::accuracy(test.labels(), &preds);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn probabilities_are_probabilities() {
        let train = waveforms(10, 5, 64);
        let mut cfg = tiny_conv_config();
        cfg.epochs = 5;
        let net = NeuralNet::fit(&train, &cfg).unwrap();
        for i in 0..train.len() {
            let p = net.predict_proba(train.sample(i).0);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn fit_more_improves_on_new_distribution() {
        // Train on easy data, then adapt to a shifted distribution with a
        // few extra epochs (the incremental-learning protocol).
        let train = waveforms(20, 6, 64);
        let mut cfg = tiny_conv_config();
        cfg.epochs = 15;
        let mut net = NeuralNet::fit(&train, &cfg).unwrap();

        // Shifted distribution: attenuated amplitudes.
        let shifted_train = {
            let base = waveforms(20, 7, 64);
            let feats: Vec<Vec<f64>> = base
                .features()
                .iter()
                .map(|f| f.iter().map(|v| v * 0.2).collect())
                .collect();
            Dataset::from_parts(feats, base.labels().to_vec()).unwrap()
        };
        let shifted_test = {
            let base = waveforms(20, 8, 64);
            let feats: Vec<Vec<f64>> = base
                .features()
                .iter()
                .map(|f| f.iter().map(|v| v * 0.2).collect())
                .collect();
            Dataset::from_parts(feats, base.labels().to_vec()).unwrap()
        };
        let before = crate::metrics::accuracy(
            shifted_test.labels(),
            &net.predict_batch(shifted_test.features()),
        );
        net.fit_more(&shifted_train, 15).unwrap();
        let after = crate::metrics::accuracy(
            shifted_test.labels(),
            &net.predict_batch(shifted_test.features()),
        );
        assert!(after >= before, "before {before}, after {after}");
        assert!(after > 0.8, "after adaptation {after}");
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let ds = waveforms(5, 9, 16);
        // Conv kernel bigger than the input.
        let bad = NeuralNetConfig {
            conv: vec![ConvSpec {
                out_channels: 2,
                kernel: 64,
                stride: 8,
            }],
            hidden: vec![4],
            learning_rate: 1e-3,
            epochs: 1,
            batch: 4,
            seed: 1,
        };
        assert!(NeuralNet::fit(&ds, &bad).is_err());
        let mut zero_epochs = tiny_conv_config();
        zero_epochs.epochs = 0;
        assert!(NeuralNet::fit(&ds, &zero_epochs).is_err());
        // No conv stage at all.
        let no_conv = NeuralNetConfig {
            conv: Vec::new(),
            ..tiny_conv_config()
        };
        assert!(matches!(
            NeuralNet::fit(&ds, &no_conv),
            Err(MlError::InvalidParameter(_))
        ));
        assert!(NeuralNet::fit(&Dataset::new(4), &tiny_conv_config()).is_err());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let ds = waveforms(8, 10, 64);
        let mut cfg = tiny_conv_config();
        cfg.epochs = 3;
        let a = NeuralNet::fit(&ds, &cfg).unwrap();
        let b = NeuralNet::fit(&ds, &cfg).unwrap();
        let x = ds.sample(0).0;
        assert_eq!(a.predict_proba(x), b.predict_proba(x));
    }

    #[test]
    fn dimension_mismatch_in_fit_more_is_rejected() {
        let ds = waveforms(5, 11, 64);
        let mut cfg = tiny_conv_config();
        cfg.epochs = 1;
        let mut net = NeuralNet::fit(&ds, &cfg).unwrap();
        let other = waveforms(5, 12, 32);
        assert!(net.fit_more(&other, 1).is_err());
    }
}
