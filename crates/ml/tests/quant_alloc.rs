//! Proof that steady-state int8 inference makes zero heap allocations: a
//! counting global allocator wraps `System`, and after one warm-up call
//! (which grows the flat scratch to its high-water size) repeated
//! `forward_with` / `decision_score_with` calls must not allocate at all.

use ht_dsp::check::{allocs_during, CountingAlloc};
use ht_ml::dataset::Dataset;
use ht_ml::nn::{ConvSpec, NeuralNet, NeuralNetConfig};
use ht_ml::quant::{QuantScratch, QuantizedNet, QuantizedSvm};
use ht_ml::svm::Svm;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn capture_dataset(input_dim: usize) -> Dataset {
    let mut ds = Dataset::new(input_dim);
    for i in 0..40 {
        let label = i % 2;
        let amp = if label == 1 { 1.0 } else { 0.3 };
        let phase = i as f64 * 0.37;
        let row: Vec<f64> = (0..input_dim)
            .map(|t| amp * (0.07 * t as f64 + phase).sin())
            .collect();
        ds.push(row, label).unwrap();
    }
    ds
}

#[test]
fn quantized_net_forward_is_allocation_free_after_warmup() {
    let ds = capture_dataset(256);
    let config = NeuralNetConfig {
        conv: vec![
            ConvSpec {
                out_channels: 4,
                kernel: 16,
                stride: 8,
            },
            ConvSpec {
                out_channels: 8,
                kernel: 8,
                stride: 4,
            },
        ],
        hidden: vec![8],
        epochs: 4,
        ..NeuralNetConfig::wav2vec2_mini()
    };
    let net = NeuralNet::fit(&ds, &config).unwrap();
    let calib: Vec<&[f64]> = (0..10).map(|i| ds.sample(i).0).collect();
    let qnet = QuantizedNet::from_net(&net, &calib).unwrap();

    let mut scratch = QuantScratch::new();
    let warm = qnet.forward_with(ds.sample(0).0, &mut scratch);

    let mut acc = 0.0;
    let n = allocs_during(|| {
        for i in 0..64 {
            acc += qnet.forward_with(ds.sample(i % ds.len()).0, &mut scratch);
        }
    });
    assert!(acc.is_finite() && warm.is_finite());
    assert_eq!(n, 0, "steady-state int8 forward allocated {n} times");
}

#[test]
fn quantized_svm_score_is_allocation_free_after_warmup() {
    let mut ds = Dataset::new(4);
    for i in 0..40 {
        let label = i % 2;
        let c = if label == 1 { 1.5 } else { -1.5 };
        let row: Vec<f64> = (0..4).map(|k| c + 0.1 * ((i + k) as f64).sin()).collect();
        ds.push(row, label).unwrap();
    }
    let svm = Svm::fit(&ds).unwrap();
    let calib: Vec<&[f64]> = (0..10).map(|i| ds.sample(i).0).collect();
    let qsvm = QuantizedSvm::from_svm(&svm, &calib).unwrap();

    let mut scratch = Vec::new();
    let warm = qsvm.decision_score_with(ds.sample(0).0, &mut scratch);

    let mut acc = 0.0;
    let n = allocs_during(|| {
        for i in 0..64 {
            acc += qsvm.decision_score_with(ds.sample(i % ds.len()).0, &mut scratch);
        }
    });
    assert!(acc.is_finite() && warm.is_finite());
    assert_eq!(n, 0, "steady-state int8 SVM scoring allocated {n} times");
}
