//! Flat, chunked, autovectorizable PHAT whitening kernels, and the
//! [`QuantMode`] switch that selects the decision path's model backends.
//!
//! * [`channel_phat_accumulate`] is the decision path's only whitening
//!   step. It uses the separability of PHAT,
//!   `XᵢXⱼ*/|XᵢXⱼ*| = (Xᵢ/|Xᵢ|)·conj(Xⱼ/|Xⱼ|)`: it normalizes each
//!   channel's spectrum once and adds every pair's masked unit product to
//!   that pair's running sum. Built only from correctly rounded IEEE
//!   operations, its bits do not depend on the platform's libm. On x86_64
//!   machines with AVX2 it runs four bins per register, each lane with the
//!   scalar loop's operations and no FMA, so its bits do not depend on the
//!   path either; the scalar loop stays as the portable path, the tail of
//!   every row and the tests' oracle. The streaming frame analyzer
//!   (`ht_stream::FrameAnalyzer`), and so every decision route, runs it.
//! * [`cross_whiten_reference_into`] whitens one pair's cross spectrum for
//!   the one-shot correlators in [`crate::correlate`], which no decision
//!   runs, and is the per-channel kernel's test oracle. It fuses the
//!   product, magnitude and running-max passes of the historical
//!   `product loop + whiten` sequence into one pass over contiguous
//!   scratch, **bit-identical** to the original (same `hypot` magnitudes,
//!   same sequential max fold, same per-component division) while
//!   computing each magnitude once instead of twice.
//!
//! It also hosts the one cached AVX2 probe, [`avx2_available`], that every
//! `std::arch` kernel in the workspace dispatches on (the FFT kernels in
//! [`crate::fft::plan`], the PHAT kernel here and the int8 kernels in
//! `ht-ml`).

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

/// Which numeric backend the decision path's models run on.
///
/// `Reference` is the byte-stable f64 path every golden report is pinned
/// against; `Int8` selects the int8 quantized model forwards in `ht-ml`
/// (calibrated offline, accuracy gated within 0.5 pp of the reference in
/// CI). The mode selects no DSP kernel: features have the same bits in
/// both. Training, calibration and report-producing experiment paths
/// always use `Reference`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantMode {
    /// The f64 reference models: byte-stable, golden-report pinned.
    #[default]
    Reference,
    /// The int8 quantized model forwards. Logits agree with the reference
    /// within tested tolerance bounds but are not bit-identical.
    Int8,
}

/// Relative silence floor of the PHAT whitening: bins more than 80 dB below
/// the strongest bin are zeroed (PHAT would amplify round-off to unit
/// weight).
const PHAT_REL_FLOOR: f64 = 1e-4;
/// Absolute magnitude floor guarding all-silent spectra.
const PHAT_ABS_FLOOR: f64 = 1e-15;

/// Fused cross-power product + PHAT whitening of one pair.
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

/// Accumulator lanes of `max_product`'s chunked max fold — wide enough
/// to fill a 256-bit vector of f64, small enough to stay in registers.
const MAX_LANES: usize = 4;

/// Per-channel PHAT whitening of one frame, accumulated per pair: the
/// frame analyzer's only whitening step.
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
/// the libm). On x86_64 machines with AVX2 the per-bin loops run four bins
/// per register with the same operations in each lane, so they give the
/// same bits as the scalar loops.
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
    channel_phat_accumulate_with(spectra, mags, pairs, accum, true);
}

/// [`channel_phat_accumulate`], on the AVX2 kernels when `simd` is set and
/// the machine has them; only the bit-identity tests clear it.
fn channel_phat_accumulate_with(
    spectra: &mut [Vec<Complex>],
    mags: &mut [f64],
    pairs: &[(usize, usize)],
    accum: &mut [Complex],
    simd: bool,
) {
    let bins = spectra.first().map_or(0, Vec::len);
    assert_eq!(mags.len(), spectra.len() * bins, "magnitude rows");
    assert_eq!(accum.len(), pairs.len() * bins, "accumulator rows");
    if bins == 0 {
        return;
    }
    let simd = simd && avx2_available();
    for (spec, row) in spectra.iter_mut().zip(mags.chunks_exact_mut(bins)) {
        assert_eq!(spec.len(), bins, "spectrum length");
        let mut first = 0;
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: AVX2 was detected above.
            first = unsafe { x86::normalize(spec, row) };
        }
        for (x, m) in spec[first..].iter_mut().zip(&mut row[first..]) {
            let mag = x.norm_sqr().sqrt();
            *x = x.scale(if mag > 0.0 { 1.0 / mag } else { 0.0 });
            *m = mag;
        }
    }
    for (&(i, j), acc) in pairs.iter().zip(accum.chunks_exact_mut(bins)) {
        let (mi, mj) = (&mags[i * bins..][..bins], &mags[j * bins..][..bins]);
        let floor = (max_product(mi, mj) * PHAT_REL_FLOOR).max(PHAT_ABS_FLOOR);
        let (ui, uj) = (&spectra[i], &spectra[j]);
        let mut first = 0;
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: AVX2 was detected above.
            first = unsafe { x86::accumulate_pair(ui, uj, mi, mj, floor, acc) };
        }
        let units = ui[first..].iter().zip(&uj[first..]);
        let products = mi[first..].iter().zip(&mj[first..]).map(|(x, y)| x * y);
        for ((a, (ui, uj)), p) in acc[first..].iter_mut().zip(units).zip(products) {
            let c = *ui * uj.conj();
            *a += if p > floor { c } else { Complex::ZERO };
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod x86 {
    //! AVX2 kernels of [`super::channel_phat_accumulate`], four bins per
    //! register. Each lane runs the scalar loop's operations on the same
    //! operands — the square root of `re·re + im·im`, one division, the
    //! `Complex` multiply by a conjugate as `re = a·c − b·(−d)`,
    //! `im = a·(−d) + b·c`, and an add of the bin or of `+0.0` — with no
    //! FMA, so each lane rounds exactly as the scalar loop does.
    //!
    //! Four bins load as two registers of interleaved complex values and
    //! split into real and imaginary parts in lane order 0, 2, 1, 3, the
    //! order they interleave back from; magnitudes are permuted to match.

    use crate::complex::Complex;
    use std::arch::x86_64::*;

    /// Swaps the middle two lanes: natural order to 0, 2, 1, 3 and back.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn swap_middle(v: __m256d) -> __m256d {
        _mm256_permute4x64_pd::<0b11_01_10_00>(v)
    }

    /// Real and imaginary parts of the four complex values at `src`, in
    /// lane order 0, 2, 1, 3.
    ///
    /// # Safety
    ///
    /// `src` must be valid for 4 `Complex` reads.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4(src: *const Complex) -> (__m256d, __m256d) {
        let p = src.cast::<f64>();
        // SAFETY: the caller guarantees four readable `#[repr(C)]`
        // complex values, eight `f64`s.
        let (a, b) = unsafe { (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))) };
        (_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b))
    }

    /// Stores what [`load4`] loaded, interleaved back in natural order.
    ///
    /// # Safety
    ///
    /// `dst` must be valid for 4 `Complex` writes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4(dst: *mut Complex, re: __m256d, im: __m256d) {
        let p = dst.cast::<f64>();
        // SAFETY: the caller guarantees four writable complex values.
        unsafe {
            _mm256_storeu_pd(p, _mm256_unpacklo_pd(re, im));
            _mm256_storeu_pd(p.add(4), _mm256_unpackhi_pd(re, im));
        }
    }

    /// Normalizes `spec` to unit magnitude and writes the magnitudes to
    /// `mags`, four bins at a time for as long as four fit; returns the
    /// first bin left for the scalar tail.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn normalize(spec: &mut [Complex], mags: &mut [f64]) -> usize {
        let n = spec.len();
        assert_eq!(mags.len(), n);
        let (zero, one) = (_mm256_setzero_pd(), _mm256_set1_pd(1.0));
        let mut k = 0;
        while k + 4 <= n {
            // SAFETY: `k + 4 ≤ n`: four values of `spec` and of `mags`.
            unsafe {
                let (re, im) = load4(spec.as_ptr().add(k));
                let mag =
                    _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(re, re), _mm256_mul_pd(im, im)));
                let inv = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GT_OQ>(mag, zero),
                    _mm256_div_pd(one, mag),
                );
                store4(
                    spec.as_mut_ptr().add(k),
                    _mm256_mul_pd(re, inv),
                    _mm256_mul_pd(im, inv),
                );
                _mm256_storeu_pd(mags.as_mut_ptr().add(k), swap_middle(mag));
            }
            k += 4;
        }
        k
    }

    /// Adds the masked unit products `ui[k]·conj(uj[k])`, kept where
    /// `mi[k]·mj[k] > floor`, to `acc`, four bins at a time for as long as
    /// four fit; returns the first bin left for the scalar tail.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_pair(
        ui: &[Complex],
        uj: &[Complex],
        mi: &[f64],
        mj: &[f64],
        floor: f64,
        acc: &mut [Complex],
    ) -> usize {
        let n = acc.len();
        assert!(ui.len() == n && uj.len() == n && mi.len() == n && mj.len() == n);
        let (floor, neg) = (_mm256_set1_pd(floor), _mm256_set1_pd(-0.0));
        let mut k = 0;
        while k + 4 <= n {
            // SAFETY: `k + 4 ≤ n`: four values of each slice.
            unsafe {
                let (i_re, i_im) = load4(ui.as_ptr().add(k));
                let (j_re, j_im) = load4(uj.as_ptr().add(k));
                let j_im = _mm256_xor_pd(j_im, neg);
                let c_re = _mm256_sub_pd(_mm256_mul_pd(i_re, j_re), _mm256_mul_pd(i_im, j_im));
                let c_im = _mm256_add_pd(_mm256_mul_pd(i_re, j_im), _mm256_mul_pd(i_im, j_re));
                let p = _mm256_mul_pd(
                    _mm256_loadu_pd(mi.as_ptr().add(k)),
                    _mm256_loadu_pd(mj.as_ptr().add(k)),
                );
                let keep = _mm256_cmp_pd::<_CMP_GT_OQ>(swap_middle(p), floor);
                let (a_re, a_im) = load4(acc.as_ptr().add(k));
                store4(
                    acc.as_mut_ptr().add(k),
                    _mm256_add_pd(a_re, _mm256_and_pd(keep, c_re)),
                    _mm256_add_pd(a_im, _mm256_and_pd(keep, c_im)),
                );
            }
            k += 4;
        }
        k
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
    fn both_kernels_silence_an_all_zero_spectrum() {
        let zeros = vec![Complex::ZERO; 33];
        let mut cross = vec![Complex::ONE; 33];
        let mut mags = vec![1.0; 33];
        cross_whiten_reference_into(&zeros, &zeros, &mut cross, &mut mags);
        assert!(cross.iter().all(|c| *c == Complex::ZERO));
        // The per-channel kernel whitens silence to zero (no 0/0) and adds
        // nothing to a running sum.
        let mut spectra = vec![zeros.clone(), zeros];
        let mut mags = vec![1.0; 2 * 33];
        let mut accum = vec![Complex::ONE; 33];
        channel_phat_accumulate(&mut spectra, &mut mags, &[(0, 1)], &mut accum);
        assert!(spectra.iter().flatten().all(|u| *u == Complex::ZERO));
        assert!(accum.iter().all(|c| *c == Complex::ONE));
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

    /// 2–4 channels of `n` bins with magnitudes anywhere in 1e-140..1e140:
    /// each channel gets a random level and a random spread around it, so
    /// pairs mix wide and narrow dynamic ranges and cross both floors.
    fn hostile_levels(g: &mut crate::check::Gen, n: usize) -> Vec<Vec<Complex>> {
        let channels = g.usize_in(2..5);
        (0..channels)
            .map(|_| {
                let level = g.f64_in(-130.0..130.0);
                let spread = g.f64_in(0.0..10.0);
                let lo = (level - spread).max(-140.0);
                let hi = (level + spread).min(140.0);
                log_uniform_spectrum(g, n, lo..hi)
            })
            .collect()
    }

    /// 2–4 channels of `n` bins, one of them (returned) all zero.
    fn dead_channel(g: &mut crate::check::Gen, n: usize) -> (Vec<Vec<Complex>>, usize) {
        let channels = g.usize_in(2..5);
        let dead = g.usize_in(0..channels);
        let mut spectra: Vec<Vec<Complex>> = (0..channels)
            .map(|_| log_uniform_spectrum(g, n, -3.0..3.0))
            .collect();
        spectra[dead].fill(Complex::ZERO);
        (spectra, dead)
    }

    /// 2–4 channels of `n` bins; in one of them (returned) a random set of
    /// bins (returned) lies outside the kernel's domain, with `|X|²`
    /// overflowing (`|X| ≥ 1e155`) or underflowing (`|X| ≤ 1e-160`).
    fn out_of_domain(
        g: &mut crate::check::Gen,
        n: usize,
    ) -> (Vec<Vec<Complex>>, usize, Vec<usize>) {
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
        (raw, hostile, bad)
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
        crate::check::property("channel_phat_matches_reference").run(|g| {
            let n = g.usize_in(1..600);
            let raw = hostile_levels(g, n);
            let pairs = all_pairs(raw.len());
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
            let (mut spectra, dead) = dead_channel(g, n);
            let channels = spectra.len();
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
        crate::check::property("channel_phat_out_of_domain").run(|g| {
            let n = g.usize_in(1..600);
            let (raw, hostile, bad) = out_of_domain(g, n);
            let pairs = all_pairs(raw.len());
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

    /// The AVX2 path must give the scalar path's bits exactly — unit
    /// spectra, magnitudes and accumulators — on the three hostile
    /// generators at every length from 1 to 600, so every tail length
    /// mod 4 is covered. The accumulators start out holding evidence and
    /// signed zeros. Without AVX2 both runs take the scalar path.
    #[test]
    fn avx2_path_matches_the_scalar_path_bit_for_bit() {
        if !avx2_available() {
            eprintln!("notice: AVX2 not available on this machine; checking the scalar path only");
        }
        let bits = |z: &[Complex]| -> Vec<(u64, u64)> {
            z.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        for n in 1..=600 {
            let mut g = crate::check::Gen::new(0x5EED_0000 + n as u64);
            let families = [
                hostile_levels(&mut g, n),
                dead_channel(&mut g, n).0,
                out_of_domain(&mut g, n).0,
            ];
            for (family, raw) in families.iter().enumerate() {
                let pairs = all_pairs(raw.len());
                let before: Vec<Complex> = (0..pairs.len() * n)
                    .map(|k| match k % 4 {
                        0 => Complex::new(-0.0, -0.0),
                        _ => Complex::new(g.f64_in(-9.0..9.0), g.f64_in(-9.0..9.0)),
                    })
                    .collect();
                let run = |simd| {
                    let mut spectra = raw.clone();
                    let mut mags = vec![f64::NAN; raw.len() * n];
                    let mut accum = before.clone();
                    channel_phat_accumulate_with(&mut spectra, &mut mags, &pairs, &mut accum, simd);
                    (spectra, mags, accum)
                };
                let (scalar, simd) = (run(false), run(true));
                for (c, (s, v)) in scalar.0.iter().zip(&simd.0).enumerate() {
                    assert!(
                        bits(s) == bits(v),
                        "n {n} family {family} channel {c}: units differ"
                    );
                }
                let mag_bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(
                    mag_bits(&scalar.1) == mag_bits(&simd.1),
                    "n {n} family {family}: magnitudes differ"
                );
                assert!(
                    bits(&scalar.2) == bits(&simd.2),
                    "n {n} family {family}: accumulators differ"
                );
            }
        }
    }

    #[test]
    fn quant_mode_defaults_to_reference() {
        assert_eq!(QuantMode::default(), QuantMode::Reference);
    }
}
