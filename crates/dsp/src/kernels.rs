//! Flat, chunked, autovectorizable kernels for the decision hot path, and
//! the [`QuantMode`] switch that selects between the byte-stable f64
//! reference kernels and the faster approximate variants backing the int8
//! quantized inference path.
//!
//! The decision path whitens with one kernel in every mode:
//!
//! * [`channel_phat_accumulate`] uses the separability of PHAT,
//!   `XᵢXⱼ*/|XᵢXⱼ*| = (Xᵢ/|Xᵢ|)·conj(Xⱼ/|Xⱼ|)`: it normalizes each
//!   channel's spectrum once and adds every pair's masked unit product to
//!   that pair's running sum. Built only from correctly rounded IEEE
//!   operations, its bits do not depend on the platform's libm. The
//!   streaming frame analyzer (`ht_stream::FrameAnalyzer`), and so every
//!   decision route, runs it.
//!
//! Two per-pair kernels implement the GCC-PHAT cross-spectrum product for
//! the batch correlators (`srp_phat`, `Correlator`); no decision runs them:
//!
//! * [`cross_whiten_reference_into`] fuses the product, magnitude and
//!   running-max passes of the historical `product loop + whiten` sequence
//!   into one streaming pass over contiguous scratch. It is **bit-identical**
//!   to the original (same `hypot` magnitudes, same sequential max fold,
//!   same per-component division) while computing each magnitude once
//!   instead of twice — the reference path's golden reports stay
//!   byte-stable. It is also the per-channel kernel's test oracle.
//! * [`cross_whiten_fast_into`] works in squared magnitudes (`re² + im²`,
//!   no `hypot` libm call), takes the bin maximum with a chunked
//!   multi-accumulator fold, and normalizes via `1/√m²` — every loop is a
//!   flat FMA-able sweep the compiler autovectorizes. Values agree with the
//!   reference to ~1e-12 relative but are *not* bit-identical, so this
//!   kernel is only reachable under [`QuantMode::Int8`].
//!
//! It also hosts the one cached AVX2 probe, [`avx2_available`], that every
//! `std::arch` kernel in the workspace dispatches on (the FFT butterflies
//! in [`crate::fft::plan`] and the int8 kernels in `ht-ml`).

use crate::complex::Complex;

#[cfg(target_arch = "x86_64")]
use std::sync::atomic::{AtomicU8, Ordering};

/// Cached runtime detection: 0 = unprobed, 1 = unavailable, 2 = available.
#[cfg(target_arch = "x86_64")]
static AVX2_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether AVX2 kernels can run on this machine. Probes CPUID once and
/// caches the answer, so hot-path dispatch is one relaxed load and a
/// predictable branch. The cached byte publishes no other data, so
/// `Relaxed` suffices: a racing first probe just detects twice.
#[cfg(target_arch = "x86_64")]
pub fn avx2_available() -> bool {
    match AVX2_STATE.load(Ordering::Relaxed) {
        0 => {
            let available = std::arch::is_x86_feature_detected!("avx2");
            AVX2_STATE.store(if available { 2 } else { 1 }, Ordering::Relaxed);
            available
        }
        state => state == 2,
    }
}

/// Non-x86_64 targets never have AVX2 kernels.
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_available() -> bool {
    false
}

/// Which numeric backend the decision hot path runs on.
///
/// `Reference` is the byte-stable f64 path every golden report is pinned
/// against; `Int8` selects the int8 quantized model forwards in `ht-ml`
/// (calibrated offline, accuracy gated within 0.5 pp of the reference in
/// CI) and, in the batch correlators only, [`cross_whiten_fast_into`].
/// Decision features do not depend on the mode: the frame analyzer runs
/// [`channel_phat_accumulate`] in both. Training, calibration and
/// report-producing experiment paths always use `Reference`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantMode {
    /// The f64 reference path: byte-stable, golden-report pinned.
    #[default]
    Reference,
    /// The quantized/vectorized fast path: int8 model forwards, plus the
    /// squared-magnitude whitening kernel in the batch correlators. Logits
    /// and batch GCC curves agree with the reference within tested
    /// tolerance bounds but are not bit-identical.
    Int8,
}

impl QuantMode {
    /// `true` for the byte-stable reference backend.
    pub fn is_reference(self) -> bool {
        matches!(self, QuantMode::Reference)
    }
}

/// Relative silence floor of the PHAT whitening: bins more than 80 dB below
/// the strongest bin are zeroed (PHAT would amplify round-off to unit
/// weight).
const PHAT_REL_FLOOR: f64 = 1e-4;
/// Absolute magnitude floor guarding all-silent spectra.
const PHAT_ABS_FLOOR: f64 = 1e-15;

/// Fused cross-power product + PHAT whitening with the kernel `mode`
/// selects: [`cross_whiten_reference_into`] under [`QuantMode::Reference`],
/// [`cross_whiten_fast_into`] under [`QuantMode::Int8`]. The one place the
/// whitening kernel is chosen.
///
/// # Panics
///
/// Panics if the four slices disagree in length.
pub fn cross_whiten_into(
    mode: QuantMode,
    xf: &[Complex],
    yf: &[Complex],
    cross: &mut [Complex],
    mags: &mut [f64],
) {
    match mode {
        QuantMode::Reference => cross_whiten_reference_into(xf, yf, cross, mags),
        QuantMode::Int8 => cross_whiten_fast_into(xf, yf, cross, mags),
    }
}

/// Fused cross-power product + PHAT whitening, reference flavour.
///
/// Computes `cross[i] = xf[i] · conj(yf[i])` whitened to unit magnitude
/// (silencing bins below the relative/absolute floors), using `mags` as
/// magnitude scratch so each bin's `hypot` is evaluated exactly once. The
/// result is bit-identical to the separate product-then-whiten loops this
/// replaces: magnitudes, the sequential `f64::max` fold and the
/// per-component division are evaluated on the same values in the same
/// order.
///
/// # Panics
///
/// Panics if the four slices disagree in length.
pub fn cross_whiten_reference_into(
    xf: &[Complex],
    yf: &[Complex],
    cross: &mut [Complex],
    mags: &mut [f64],
) {
    let n = cross.len();
    assert_eq!(xf.len(), n, "x spectrum length");
    assert_eq!(yf.len(), n, "y spectrum length");
    assert_eq!(mags.len(), n, "magnitude scratch length");
    let mut max_mag = 0.0f64;
    for i in 0..n {
        let c = xf[i] * yf[i].conj();
        cross[i] = c;
        let m = c.abs();
        mags[i] = m;
        max_mag = max_mag.max(m);
    }
    let floor = max_mag * PHAT_REL_FLOOR;
    for i in 0..n {
        let m = mags[i];
        cross[i] = if m > floor && m > PHAT_ABS_FLOOR {
            cross[i] / m
        } else {
            Complex::ZERO
        };
    }
}

/// Accumulator lanes of the fast kernel's chunked max fold — wide enough to
/// fill a 256-bit vector of f64, small enough to stay in registers.
const MAX_LANES: usize = 4;

/// Fused cross-power product + PHAT whitening, vectorized flavour
/// ([`QuantMode::Int8`] only).
///
/// Identical contract to [`cross_whiten_reference_into`] but works in
/// squared magnitudes throughout: the product pass stores `re² + im²` into
/// `m2s` (no `hypot`), the maximum is folded over `MAX_LANES` (4) independent
/// accumulators so the compiler can keep it in one vector register, and the
/// normalize pass multiplies by `1/√m²`. The floors are squared
/// (`(max·1e-4)² = max²·1e-8`, `(1e-15)² = 1e-30`), preserving the
/// reference predicate in exact arithmetic; float rounding can flip bins
/// sitting exactly on the floor, which is covered by the Int8 tolerance
/// gate rather than byte-stability.
///
/// # Panics
///
/// Panics if the four slices disagree in length.
pub fn cross_whiten_fast_into(
    xf: &[Complex],
    yf: &[Complex],
    cross: &mut [Complex],
    m2s: &mut [f64],
) {
    let n = cross.len();
    assert_eq!(xf.len(), n, "x spectrum length");
    assert_eq!(yf.len(), n, "y spectrum length");
    assert_eq!(m2s.len(), n, "magnitude scratch length");
    for i in 0..n {
        let c = xf[i] * yf[i].conj();
        cross[i] = c;
        m2s[i] = c.norm_sqr();
    }
    let mut lanes = [0.0f64; MAX_LANES];
    let chunks = m2s.chunks_exact(MAX_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (acc, &m2) in lanes.iter_mut().zip(chunk) {
            *acc = acc.max(m2);
        }
    }
    let mut max_m2 = tail.iter().fold(0.0f64, |acc, &m2| acc.max(m2));
    for acc in lanes {
        max_m2 = max_m2.max(acc);
    }
    let floor2 = max_m2 * (PHAT_REL_FLOOR * PHAT_REL_FLOOR);
    let abs_floor2 = PHAT_ABS_FLOOR * PHAT_ABS_FLOOR;
    for i in 0..n {
        let m2 = m2s[i];
        cross[i] = if m2 > floor2 && m2 > abs_floor2 {
            cross[i].scale(1.0 / m2.sqrt())
        } else {
            Complex::ZERO
        };
    }
}

/// Per-channel PHAT whitening of one frame, accumulated per pair: the
/// frame analyzer's whitening step in every [`QuantMode`].
///
/// PHAT whitening is separable, `XᵢXⱼ*/|XᵢXⱼ*| = uᵢ·conj(uⱼ)` with
/// `u = X/|X|`, so each channel is whitened once instead of once per pair.
/// Each row of `spectra` is normalized in place to unit magnitude
/// (`m = √(re² + im²)`, one reciprocal per bin, zero where `m = 0`) and its
/// magnitudes are kept in the matching `bins`-long row of `mags`. Then each
/// pair `(i, j)` of `pairs` takes its floor from `maxₖ mᵢ[k]·mⱼ[k]`, applies
/// the 1e-4 relative and 1e-15 absolute floors of
/// [`cross_whiten_reference_into`] to `mᵢ[k]·mⱼ[k] = |XᵢXⱼ*|`, and adds
/// the masked product `uᵢ[k]·conj(uⱼ[k])` to its `bins`-long row of
/// `accum`. A `c`-channel frame costs `c` magnitude passes, not one `hypot`
/// and one division pass per pair.
///
/// Every step is a correctly rounded IEEE add, multiply, divide or square
/// root, and the maximum is exact in any fold order, so the result has the
/// same bits on every platform (the reference kernel's `hypot` depends on
/// the libm).
///
/// # Domain
///
/// While every `|X|²` is a normal `f64` (`1.5e-154 < |X| < 1.3e154`), each
/// accumulated bin equals the reference kernel's to ~1e-15 and a floor
/// decision can differ only where `|Xᵢ||Xⱼ|` lies within rounding of the
/// floor. A frame of `n` samples in [−1, 1] has `|X| ≤ n` (960 for the
/// pipeline's 20 ms frames). Outside that domain nothing non-finite reaches
/// `accum`. A bin whose `|X|²` overflows, or whose `X` is not finite, has
/// an infinite or NaN magnitude and adds nothing; an infinite one can lift
/// its pair's floor to +∞, silencing that pair for the frame. A bin whose
/// `|X|²` underflows has `|X| < 1.5e-154`, under the absolute floor against
/// any partner below 6e138.
///
/// # Panics
///
/// Panics unless every spectrum has the same length `bins`, `mags` holds
/// `spectra.len() × bins` values and `accum` holds `pairs.len() × bins`.
pub fn channel_phat_accumulate(
    spectra: &mut [Vec<Complex>],
    mags: &mut [f64],
    pairs: &[(usize, usize)],
    accum: &mut [Complex],
) {
    let bins = spectra.first().map_or(0, Vec::len);
    assert_eq!(mags.len(), spectra.len() * bins, "magnitude rows");
    assert_eq!(accum.len(), pairs.len() * bins, "accumulator rows");
    if bins == 0 {
        return;
    }
    for (spec, row) in spectra.iter_mut().zip(mags.chunks_exact_mut(bins)) {
        assert_eq!(spec.len(), bins, "spectrum length");
        for (x, m) in spec.iter_mut().zip(row) {
            let mag = x.norm_sqr().sqrt();
            *x = x.scale(if mag > 0.0 { 1.0 / mag } else { 0.0 });
            *m = mag;
        }
    }
    for (&(i, j), acc) in pairs.iter().zip(accum.chunks_exact_mut(bins)) {
        let (mi, mj) = (&mags[i * bins..][..bins], &mags[j * bins..][..bins]);
        let floor = (max_product(mi, mj) * PHAT_REL_FLOOR).max(PHAT_ABS_FLOOR);
        let units = spectra[i].iter().zip(&spectra[j]);
        let products = mi.iter().zip(mj).map(|(x, y)| x * y);
        for ((a, (ui, uj)), p) in acc.iter_mut().zip(units).zip(products) {
            let c = *ui * uj.conj();
            *a += if p > floor { c } else { Complex::ZERO };
        }
    }
}

/// `maxₖ a[k]·b[k]`, folded over `MAX_LANES` accumulators so it vectorizes;
/// NaN products are skipped.
fn max_product(a: &[f64], b: &[f64]) -> f64 {
    let (ca, cb) = (a.chunks_exact(MAX_LANES), b.chunks_exact(MAX_LANES));
    let tail = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .fold(0.0f64, |m, (x, y)| m.max(x * y));
    let mut lanes = [0.0f64; MAX_LANES];
    for (xa, xb) in ca.zip(cb) {
        for ((l, x), y) in lanes.iter_mut().zip(xa).zip(xb) {
            *l = l.max(x * y);
        }
    }
    lanes.into_iter().fold(tail, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The historical two-loop implementation the fused reference kernel
    /// replaces, kept here verbatim as the bit-identity oracle.
    fn naive_product_then_whiten(xf: &[Complex], yf: &[Complex]) -> Vec<Complex> {
        let mut cross: Vec<Complex> = xf.iter().zip(yf).map(|(a, b)| *a * b.conj()).collect();
        let max_mag = cross.iter().map(|c| c.abs()).fold(0.0, f64::max);
        let floor = max_mag * 1e-4;
        for c in cross.iter_mut() {
            let m = c.abs();
            *c = if m > floor && m > 1e-15 {
                *c / m
            } else {
                Complex::ZERO
            };
        }
        cross
    }

    fn spectra(n: usize, seed: u64) -> (Vec<Complex>, Vec<Complex>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let xf: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        let yf: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        (xf, yf)
    }

    #[test]
    fn reference_kernel_is_bit_identical_to_naive_loops() {
        for n in [1usize, 3, 4, 7, 64, 129, 513] {
            let (xf, yf) = spectra(n, 0x9E3779B97F4A7C15 ^ n as u64);
            let expected = naive_product_then_whiten(&xf, &yf);
            let mut cross = vec![Complex::ZERO; n];
            let mut mags = vec![0.0; n];
            cross_whiten_reference_into(&xf, &yf, &mut cross, &mut mags);
            assert_eq!(cross, expected, "n = {n}");
        }
    }

    #[test]
    fn fast_kernel_matches_reference_within_tolerance() {
        for n in [1usize, 5, 64, 257, 1024] {
            let (xf, yf) = spectra(n, 0xD1B54A32D192ED03 ^ n as u64);
            let expected = naive_product_then_whiten(&xf, &yf);
            let mut cross = vec![Complex::ZERO; n];
            let mut m2s = vec![0.0; n];
            cross_whiten_fast_into(&xf, &yf, &mut cross, &mut m2s);
            for (got, want) in cross.iter().zip(&expected) {
                assert!(
                    (got.re - want.re).abs() < 1e-10 && (got.im - want.im).abs() < 1e-10,
                    "n = {n}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn both_kernels_silence_an_all_zero_spectrum() {
        let zeros = vec![Complex::ZERO; 33];
        let mut cross = vec![Complex::ONE; 33];
        let mut mags = vec![1.0; 33];
        cross_whiten_reference_into(&zeros, &zeros, &mut cross, &mut mags);
        assert!(cross.iter().all(|c| *c == Complex::ZERO));
        let mut cross = vec![Complex::ONE; 33];
        cross_whiten_fast_into(&zeros, &zeros, &mut cross, &mut mags);
        assert!(cross.iter().all(|c| *c == Complex::ZERO));
    }

    #[test]
    fn whitened_bins_have_unit_magnitude() {
        let (xf, yf) = spectra(100, 42);
        let mut cross = vec![Complex::ZERO; 100];
        let mut mags = vec![0.0; 100];
        cross_whiten_reference_into(&xf, &yf, &mut cross, &mut mags);
        for c in &cross {
            let m = c.abs();
            assert!(m == 0.0 || (m - 1.0).abs() < 1e-12, "|c| = {m}");
        }
    }

    /// A spectrum with uniform random phases whose bin magnitudes are
    /// `10^e`, `e` uniform in `exps`.
    fn log_uniform_spectrum(
        g: &mut crate::check::Gen,
        n: usize,
        exps: std::ops::Range<f64>,
    ) -> Vec<Complex> {
        (0..n)
            .map(|_| {
                let mag = 10f64.powf(g.f64_in(exps.clone()));
                let phase = g.f64_in(0.0..std::f64::consts::TAU);
                Complex::new(mag * phase.cos(), mag * phase.sin())
            })
            .collect()
    }

    fn all_pairs(channels: usize) -> Vec<(usize, usize)> {
        (0..channels)
            .flat_map(|i| ((i + 1)..channels).map(move |j| (i, j)))
            .collect()
    }

    /// Runs the per-channel kernel on copies of `raw` into a zeroed
    /// accumulator and returns the accumulator.
    fn channel_kernel(raw: &[Vec<Complex>], pairs: &[(usize, usize)]) -> Vec<Complex> {
        let n = raw[0].len();
        let mut spectra = raw.to_vec();
        let mut mags = vec![0.0; raw.len() * n];
        let mut accum = vec![Complex::ZERO; pairs.len() * n];
        channel_phat_accumulate(&mut spectra, &mut mags, pairs, &mut accum);
        accum
    }

    #[test]
    fn channel_kernel_matches_the_reference_on_hostile_spectra() {
        // Per-channel magnitudes anywhere in 1e-140..1e140: each channel
        // gets a random level and a random spread around it, so pairs mix
        // wide and narrow dynamic ranges and cross both floors.
        crate::check::property("channel_phat_matches_reference").run(|g| {
            let n = g.usize_in(1..600);
            let channels = g.usize_in(2..5);
            let raw: Vec<Vec<Complex>> = (0..channels)
                .map(|_| {
                    let level = g.f64_in(-130.0..130.0);
                    let spread = g.f64_in(0.0..10.0);
                    let lo = (level - spread).max(-140.0);
                    let hi = (level + spread).min(140.0);
                    log_uniform_spectrum(g, n, lo..hi)
                })
                .collect();
            let pairs = all_pairs(channels);
            let accum = channel_kernel(&raw, &pairs);
            let mut cross = vec![Complex::ZERO; n];
            let mut mags = vec![0.0; n];
            for (&(i, j), got) in pairs.iter().zip(accum.chunks_exact(n)) {
                cross_whiten_reference_into(&raw[i], &raw[j], &mut cross, &mut mags);
                // The reference keeps a bin iff |XᵢXⱼ*| > threshold.
                let max = mags.iter().fold(0.0f64, |m, &v| m.max(v));
                let threshold = (max * PHAT_REL_FLOOR).max(PHAT_ABS_FLOOR);
                for (k, (a, b)) in got.iter().zip(&cross).enumerate() {
                    if (mags[k] - threshold).abs() <= 1e-12 * threshold {
                        continue;
                    }
                    assert_eq!(
                        *a == Complex::ZERO,
                        *b == Complex::ZERO,
                        "pair ({i}, {j}) bin {k}: zero pattern differs, {a} vs {b}"
                    );
                    assert!(
                        (a.re - b.re).abs() <= 1e-12 && (a.im - b.im).abs() <= 1e-12,
                        "pair ({i}, {j}) bin {k}: {a} vs {b}"
                    );
                }
            }
        });
    }

    #[test]
    fn an_all_zero_channel_adds_exactly_nothing() {
        crate::check::property("channel_phat_dead_channel").run(|g| {
            let n = g.usize_in(1..600);
            let channels = g.usize_in(2..5);
            let dead = g.usize_in(0..channels);
            let mut spectra: Vec<Vec<Complex>> = (0..channels)
                .map(|_| log_uniform_spectrum(g, n, -3.0..3.0))
                .collect();
            spectra[dead].fill(Complex::ZERO);
            let pairs = all_pairs(channels);
            // A running sum already holding evidence: adding anything but
            // an exact zero would move its bits.
            let before: Vec<Complex> = (0..pairs.len() * n)
                .map(|_| Complex::new(g.f64_in(-9.0..9.0), g.f64_in(-9.0..9.0)))
                .collect();
            let mut accum = before.clone();
            let mut mags = vec![0.0; channels * n];
            channel_phat_accumulate(&mut spectra, &mut mags, &pairs, &mut accum);
            assert!(spectra[dead].iter().all(|u| *u == Complex::ZERO));
            for ((&(i, j), got), want) in pairs
                .iter()
                .zip(accum.chunks_exact(n))
                .zip(before.chunks_exact(n))
            {
                if i == dead || j == dead {
                    for (a, b) in got.iter().zip(want) {
                        assert_eq!(a.re.to_bits(), b.re.to_bits(), "pair ({i}, {j})");
                        assert_eq!(a.im.to_bits(), b.im.to_bits(), "pair ({i}, {j})");
                    }
                } else {
                    assert_ne!(got, want, "live pair ({i}, {j}) added nothing");
                }
            }
        });
    }

    #[test]
    fn bins_outside_the_domain_add_nothing_and_never_nan() {
        // |X|² overflows at |X| ≥ 1e155 and underflows at |X| ≤ 1e-160.
        crate::check::property("channel_phat_out_of_domain").run(|g| {
            let n = g.usize_in(1..600);
            let channels = g.usize_in(2..5);
            let hostile = g.usize_in(0..channels);
            let overflow = g.bool();
            let mut raw: Vec<Vec<Complex>> = (0..channels)
                .map(|_| log_uniform_spectrum(g, n, -3.0..3.0))
                .collect();
            let bad: Vec<usize> = (0..n).filter(|_| g.bool()).collect();
            let exps = if overflow {
                155.0..300.0
            } else {
                -300.0..-160.0
            };
            let replacement = log_uniform_spectrum(g, bad.len(), exps);
            for (&k, x) in bad.iter().zip(replacement) {
                raw[hostile][k] = x;
            }
            let pairs = all_pairs(channels);
            let accum = channel_kernel(&raw, &pairs);
            assert!(accum.iter().all(|c| c.re.is_finite() && c.im.is_finite()));
            for (&(i, j), row) in pairs.iter().zip(accum.chunks_exact(n)) {
                if i == hostile || j == hostile {
                    for &k in &bad {
                        assert_eq!(row[k], Complex::ZERO, "pair ({i}, {j}) bin {k}");
                    }
                }
            }
        });
    }

    #[test]
    fn quant_mode_defaults_to_reference() {
        assert_eq!(QuantMode::default(), QuantMode::Reference);
        assert!(QuantMode::Reference.is_reference());
        assert!(!QuantMode::Int8.is_reference());
    }
}
