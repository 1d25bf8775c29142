//! Planned real FFTs: a precomputed bit-reversal permutation and per-stage
//! twiddle tables, executed into caller-provided scratch so the hot path is
//! allocation-free.
//!
//! [`RealFftPlan`] is the program's one FFT engine. Every transform the
//! pipeline runs (per-frame STFT, GCC lag curves, directivity segments,
//! whole-capture spectra) is a power-of-two real FFT through a plan from
//! the process-wide [size-keyed cache](rfft_plan). A plan is immutable once
//! built (tables only), so one `Arc<RealFftPlan>` can be shared freely
//! across `ht-par` workers; all mutable state lives in the per-caller
//! [`RealFftScratch`], which [`RealFftPlan::scratch`] builds already sized,
//! so no transform ever grows it.
//!
//! Three properties make the planned engine fast and accurate:
//!
//! * **Accuracy** — every twiddle factor is an independently rounded
//!   `sin`/`cos` table entry instead of a `w *= wlen` running product,
//!   whose rounding error would compound over each butterfly stage. The
//!   accuracy regression test in `fft::tests` pins the error at
//!   `n = 16384` against a compensated exact DFT.
//! * **Real-input cost** — [`RealFftPlan`] computes the one-sided spectrum
//!   of a length-`n` real signal with a single complex FFT of length `n/2`
//!   (pack-even/odd trick) plus an `O(n)` reconstruction, roughly halving
//!   the work of a full complex transform.
//! * **SIMD butterflies** — on x86_64 machines with AVX2 (detected once at
//!   run time), every radix-2 stage after the first processes two complex
//!   values per 256-bit register. The lanes round exactly as the scalar
//!   loop does, so results are bit-identical on every machine; the scalar
//!   loop stays as the portable path and the tests' reference.
//!
//! Determinism: a plan of size `n` always contains the same tables no
//! matter which thread builds it or in which order sizes are first
//! requested, so the cache is a pure wall-clock optimization — results are
//! run-to-run deterministic and thread-count invariant. Cache traffic is
//! observable through the `fft.plan_hits` / `fft.plan_misses` counters.

use crate::complex::Complex;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use super::next_pow2;

/// Reusable scratch for [`RealFftPlan`] execution: the packed half-size
/// complex buffer. [`RealFftPlan::scratch`] builds one already sized for
/// its plan (and so for every smaller plan); [`RealFftScratch::new`] starts
/// empty and grows on its first transform.
#[derive(Debug, Clone, Default)]
pub struct RealFftScratch {
    packed: Vec<Complex>,
}

impl RealFftScratch {
    /// An empty scratch; the first transform sizes its buffer.
    pub fn new() -> RealFftScratch {
        RealFftScratch::default()
    }
}

/// The tables of an in-place complex radix-2 FFT of one power-of-two
/// length (lengths 0 and 1 have empty tables: their transform is the
/// identity).
#[derive(Debug, Clone)]
struct Pow2Tables {
    /// Index pairs `(i, j)` with `i < j` of the bit-reversal permutation.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles `e^{-2πik/len}` for `k < len/2`, concatenated over
    /// the stages `len = 2, 4, …, n` (`n − 1` entries in total). The
    /// inverse transform conjugates them on the fly.
    twiddles: Vec<Complex>,
}

impl Pow2Tables {
    fn build(n: usize) -> Pow2Tables {
        debug_assert!(n <= 1 || n.is_power_of_two());
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2usize;
        while len <= n {
            let step = -2.0 * std::f64::consts::PI / len as f64;
            for k in 0..len / 2 {
                twiddles.push(Complex::from_angle(step * k as f64));
            }
            len <<= 1;
        }
        Pow2Tables { swaps, twiddles }
    }

    /// Unnormalized in-place radix-2 pass over the precomputed tables;
    /// `buf.len()` must be the length the tables were built for.
    ///
    /// With `simd` set and AVX2 present, every stage after the first runs
    /// the AVX2 butterflies, which give the scalar loop's bits exactly
    /// (see [`x86::stages`]); otherwise every stage runs the scalar loop.
    /// Only the bit-identity tests pass `simd = false`.
    fn process(&self, buf: &mut [Complex], inverse: bool, simd: bool) {
        let n = buf.len();
        if n < 2 {
            return;
        }
        for &(i, j) in &self.swaps {
            buf.swap(i as usize, j as usize);
        }
        // The first stage (len 2, one twiddle) stays scalar: two complex
        // values per register would span two butterflies.
        let (first, mut tables) = self.twiddles.split_at(1);
        scalar_stage(buf, first, inverse);
        #[cfg(target_arch = "x86_64")]
        if simd && crate::kernels::avx2_available() {
            // SAFETY: AVX2 was detected on this line. `n` is a power of two
            // and `tables` holds the twiddles of stages len = 4, 8, …, n in
            // build order, so the stages compute the full transform.
            unsafe { x86::stages(buf, tables, inverse) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = simd;
        let mut len = 4usize;
        while len <= n {
            let (stage, rest) = tables.split_at(len / 2);
            tables = rest;
            scalar_stage(buf, stage, inverse);
            len <<= 1;
        }
    }
}

/// One radix-2 stage of `len = 2 · stage.len()` over every `len`-chunk of
/// `buf` — the reference every SIMD stage must match bit for bit.
fn scalar_stage(buf: &mut [Complex], stage: &[Complex], inverse: bool) {
    let half = stage.len();
    for chunk in buf.chunks_exact_mut(2 * half) {
        let (lo, hi) = chunk.split_at_mut(half);
        for k in 0..half {
            let w = if inverse { stage[k].conj() } else { stage[k] };
            let u = lo[k];
            let v = hi[k] * w;
            lo[k] = u + v;
            hi[k] = u - v;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod x86 {
    use crate::complex::Complex;
    use std::arch::x86_64::*;

    /// The radix-2 stages `len = 4, 8, …, buf.len()` with two complex
    /// values per 256-bit register.
    ///
    /// Each butterfly computes `v = h · w` as `mul(h, [w.re, w.re])`,
    /// `mul(swap(h), [w.im, w.im])` and one `addsub`, then `u + v` and
    /// `u − v`. No FMA, so every lane rounds exactly as [`Complex`]'s
    /// scalar multiply: the real part is the same `a·c − b·d`, and the
    /// imaginary part is `b·c + a·d` where the scalar code computes
    /// `a·d + b·c` — the same two rounded products, added in swapped
    /// order, and IEEE addition is commutative. The inverse negates the
    /// twiddle's imaginary part by flipping its sign bit, as `conj` does.
    ///
    /// For a correct transform `buf.len()` is a power of two and
    /// `twiddles` holds the twiddles of stages `len = 4, 8, …` back to
    /// back (`len / 2` entries each); memory safety does not depend on it.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stages(buf: &mut [Complex], mut twiddles: &[Complex], inverse: bool) {
        let n = buf.len();
        let sign = if inverse {
            _mm256_set1_pd(-0.0)
        } else {
            _mm256_setzero_pd()
        };
        let mut len = 4usize;
        while len <= n {
            let half = len / 2;
            let (stage, rest) = twiddles.split_at(half);
            twiddles = rest;
            let w_ptr = stage.as_ptr().cast::<f64>();
            for chunk in buf.chunks_exact_mut(len) {
                let lo_ptr = chunk.as_mut_ptr().cast::<f64>();
                for k in (0..half).step_by(2) {
                    // SAFETY: AVX2 is guaranteed by the caller. `len` is a
                    // power of two ≥ 4, so `half` is even and `k + 1 < half`:
                    // the twiddle load reads `stage[k..k + 2]` and the data
                    // loads and stores touch `chunk[k..k + 2]` and
                    // `chunk[half + k..half + k + 2]`, all in bounds of the
                    // `len`-element chunk. `Complex` is `#[repr(C)]`, so
                    // each pair is four contiguous `f64`s, and the unaligned
                    // load and store forms need no alignment.
                    unsafe {
                        let w = _mm256_loadu_pd(w_ptr.add(2 * k));
                        let w_re = _mm256_movedup_pd(w);
                        let w_im = _mm256_xor_pd(_mm256_permute_pd::<0b1111>(w), sign);
                        let lo = lo_ptr.add(2 * k);
                        let hi = lo_ptr.add(2 * (half + k));
                        let u = _mm256_loadu_pd(lo);
                        let h = _mm256_loadu_pd(hi);
                        let h_swap = _mm256_permute_pd::<0b0101>(h);
                        let v =
                            _mm256_addsub_pd(_mm256_mul_pd(h, w_re), _mm256_mul_pd(h_swap, w_im));
                        _mm256_storeu_pd(lo, _mm256_add_pd(u, v));
                        _mm256_storeu_pd(hi, _mm256_sub_pd(u, v));
                    }
                }
            }
            len <<= 1;
        }
    }
}

/// A planned one-sided real FFT of one fixed power-of-two length `n`,
/// implemented as a complex FFT of length `n/2` over the even/odd-packed
/// input plus an `O(n)` split step — about half the work of a full complex
/// transform. The matching [`inverse`](RealFftPlan::inverse_into)
/// reconstructs the packed spectrum and round-trips bit-for-bit
/// deterministically.
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    n: usize,
    /// Tables of the complex FFT of length `n/2` (empty for `n <= 2`).
    half: Pow2Tables,
    /// Split twiddles `e^{-2πik/n}` for `k < n/2`.
    split: Vec<Complex>,
}

impl RealFftPlan {
    /// Builds a plan for real FFTs of length `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two (use [`next_pow2`] — the cached
    /// entry point [`rfft_plan`] rounds up for you).
    pub fn new(n: usize) -> RealFftPlan {
        assert!(
            n.is_power_of_two(),
            "real FFT plans require a power-of-two length, got {n}"
        );
        let h = n / 2;
        let step = -2.0 * std::f64::consts::PI / n as f64;
        RealFftPlan {
            n,
            half: Pow2Tables::build(h),
            split: (0..h)
                .map(|k| Complex::from_angle(step * k as f64))
                .collect(),
        }
    }

    /// The real transform length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never true: plans are at least length 1.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of one-sided output bins, `n/2 + 1`.
    pub fn onesided_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// A scratch already sized for this plan, and so for every plan of
    /// this length or shorter: its buffer is allocated and written here,
    /// so no later transform grows it or touches a fresh page.
    pub fn scratch(&self) -> RealFftScratch {
        let mut packed = Vec::with_capacity(self.n / 2);
        packed.resize(self.n / 2, Complex::ZERO);
        RealFftScratch { packed }
    }

    /// Forward one-sided real FFT: `out[k] = X[k]` for `k < out.len()`,
    /// where `X` is the unnormalized `n`-point DFT of `x` zero-padded to
    /// `n`. A full-length `out` ([`onesided_len`](RealFftPlan::onesided_len)
    /// bins) receives the whole one-sided spectrum; a shorter one receives
    /// its leading bins, bit-identical to the full transform's, and the
    /// split step skips the rest (the packed complex FFT still runs whole,
    /// since bin `k` reads `z[k]` and `z[n/2 − k]`). The Nyquist bin is
    /// written only when `out` reaches it.
    ///
    /// Allocation-free once `scratch` holds this plan's size (see
    /// [`scratch`](RealFftPlan::scratch)).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() > self.len()` (the input would be silently
    /// truncated), or if `out` is empty or longer than
    /// [`onesided_len`](RealFftPlan::onesided_len).
    pub fn forward_into(&self, x: &[f64], out: &mut [Complex], scratch: &mut RealFftScratch) {
        assert!(
            x.len() <= self.n,
            "input length {} exceeds the planned real FFT length {}",
            x.len(),
            self.n
        );
        assert!(
            (1..=self.onesided_len()).contains(&out.len()),
            "one-sided output length {} outside 1..={}",
            out.len(),
            self.onesided_len()
        );
        if self.n == 1 {
            out[0] = Complex::from_real(x.first().copied().unwrap_or(0.0));
            return;
        }
        let h = self.n / 2;
        let z = &mut scratch.packed;
        z.clear();
        z.resize(h, Complex::ZERO);
        let pairs = x.len() / 2;
        for (k, zk) in z.iter_mut().enumerate().take(pairs) {
            *zk = Complex::new(x[2 * k], x[2 * k + 1]);
        }
        if x.len() % 2 == 1 {
            z[pairs] = Complex::from_real(x[x.len() - 1]);
        }
        self.half.process(z, false, true);
        // Split the packed spectrum: with Fe/Fo the DFTs of the even/odd
        // samples, X[k] = Fe[k] + e^{-2πik/n}·Fo[k].
        out[0] = Complex::from_real(z[0].re + z[0].im);
        if let Some(nyquist) = out.get_mut(h) {
            *nyquist = Complex::from_real(z[0].re - z[0].im);
        }
        for k in 1..out.len().min(h) {
            let a = z[k];
            let b = z[h - k].conj();
            let fe = (a + b).scale(0.5);
            let fo = (a - b) * Complex::new(0.0, -0.5);
            out[k] = fe + self.split[k] * fo;
        }
    }

    /// Inverse of [`forward_into`](RealFftPlan::forward_into): reconstructs
    /// the length-`n` real signal from its one-sided spectrum, normalized
    /// by `1/n` so the pair round-trips.
    ///
    /// The imaginary parts of `spec[0]` and `spec[n/2]` (which are zero for
    /// any spectrum of a real signal) are ignored.
    ///
    /// Allocation-free once `scratch` holds this plan's size (see
    /// [`scratch`](RealFftPlan::scratch)).
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != self.onesided_len()` or
    /// `out.len() != self.len()`.
    pub fn inverse_into(&self, spec: &[Complex], out: &mut [f64], scratch: &mut RealFftScratch) {
        assert_eq!(spec.len(), self.onesided_len(), "one-sided input length");
        assert_eq!(out.len(), self.n, "output length");
        if self.n == 1 {
            out[0] = spec[0].re;
            return;
        }
        let h = self.n / 2;
        let z = &mut scratch.packed;
        z.clear();
        z.resize(h, Complex::ZERO);
        // Rebuild the packed spectrum: Fe[k] = (X[k] + conj(X[h−k]))/2,
        // Fo[k] = (X[k] − conj(X[h−k]))/2 · e^{+2πik/n}, Z[k] = Fe[k] + i·Fo[k].
        // k = 0 uses only the real parts of X[0] and X[h], which is where
        // the "imaginary parts of the edge bins are ignored" contract comes
        // from.
        z[0] = Complex::new(
            (spec[0].re + spec[h].re) * 0.5,
            (spec[0].re - spec[h].re) * 0.5,
        );
        for (k, zk) in z.iter_mut().enumerate().skip(1) {
            let a = spec[k];
            let b = spec[h - k].conj();
            let fe = (a + b).scale(0.5);
            let fo = (a - b).scale(0.5) * self.split[k].conj();
            *zk = fe + Complex::I * fo;
        }
        self.half.process(z, true, true);
        let inv_h = 1.0 / h as f64;
        for k in 0..h {
            out[2 * k] = z[k].re * inv_h;
            out[2 * k + 1] = z[k].im * inv_h;
        }
    }
}

type PlanCache = OnceLock<Mutex<BTreeMap<usize, Arc<RealFftPlan>>>>;

static REAL_PLANS: PlanCache = OnceLock::new();

/// The process-wide plan for real FFTs of length `next_pow2(n)` (real
/// plans are power-of-two only; the requested length rounds up). Cache
/// traffic is counted in `fft.plan_hits` / `fft.plan_misses`.
pub fn rfft_plan(n: usize) -> Arc<RealFftPlan> {
    let n = next_pow2(n);
    let map = REAL_PLANS.get_or_init(|| Mutex::new(BTreeMap::new()));
    // A plan of a given size is the same value no matter who builds it, so
    // a poisoned lock (a panicking caller elsewhere) leaves nothing to
    // repair — recover the map and keep serving.
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(p) = map.get(&n) {
        ht_obs::counter_add("fft.plan_hits", 1);
        return Arc::clone(p);
    }
    // Building inside the lock keeps the miss count exactly "one per
    // distinct size" (the CI cache gate asserts this bound); plans build in
    // O(n log n), so the briefly-held lock is not a contention concern.
    ht_obs::counter_add("fft.plan_misses", 1);
    let p = Arc::new(RealFftPlan::new(n));
    map.insert(n, Arc::clone(&p));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Input families that stress rounding edge cases: ordinary values
    /// with signed zeros sprinkled in, all-subnormal values, magnitudes
    /// near 1e300 (an `n ≤ 65536` transform of them stays finite), and a
    /// per-element mix of all three.
    fn edge_inputs(n: usize) -> Vec<Vec<Complex>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut value = |family: u64| -> f64 {
            let r = next();
            let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
            match family {
                0 if r % 7 == 0 => sign * 0.0,
                0 => 2.0 * unit - 1.0,
                1 => sign * f64::from_bits((r >> 12) | 1),
                _ => sign * (1.0 + unit) * 1e300,
            }
        };
        let mut families: Vec<Vec<Complex>> = (0..3)
            .map(|f| (0..n).map(|_| Complex::new(value(f), value(f))).collect())
            .collect();
        let mixed = (0..n)
            .map(|k| Complex::new(value(k as u64 % 3), value((k as u64 + 1) % 3)))
            .collect();
        families.push(mixed);
        families
    }

    fn bits(z: &[Complex]) -> Vec<(u64, u64)> {
        z.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// The AVX2 butterflies must give the scalar loop's bits exactly, for
    /// every power of two from 2 to 65536, in both directions. Without
    /// AVX2 both runs take the scalar path.
    #[test]
    fn simd_butterflies_match_scalar_bit_for_bit() {
        if !crate::kernels::avx2_available() {
            eprintln!("notice: AVX2 not available on this machine; checking the scalar path only");
        }
        for n in (1..=16).map(|e| 1usize << e) {
            let tables = Pow2Tables::build(n);
            for (family, x) in edge_inputs(n).into_iter().enumerate() {
                for inverse in [false, true] {
                    let mut scalar = x.clone();
                    tables.process(&mut scalar, inverse, false);
                    let mut simd = x.clone();
                    tables.process(&mut simd, inverse, true);
                    assert!(
                        scalar.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
                        "n {n} family {family}: inputs must keep the transform finite"
                    );
                    assert!(
                        bits(&scalar) == bits(&simd),
                        "n {n} family {family} inverse {inverse}: SIMD bits differ"
                    );
                }
            }
        }
    }

    /// A forward transform into a shorter `out` must give the leading bins
    /// of the full one-sided transform bit for bit, for every power of two
    /// from 1 to 65536: white noise plus the real parts of the edge-input
    /// families, at prefix lengths 1, 2, n/4, n/2 and n/2 + 1.
    #[test]
    fn prefix_transform_equals_the_full_transform_prefix() {
        use crate::rng::SeedableRng;
        for n in (0..=16).map(|e| 1usize << e) {
            let plan = RealFftPlan::new(n);
            let full_len = plan.onesided_len();
            let mut scratch = plan.scratch();
            let mut rng = crate::rng::StdRng::seed_from_u64(n as u64);
            let inputs = std::iter::once(crate::rng::white_noise(&mut rng, n)).chain(
                edge_inputs(n)
                    .into_iter()
                    .map(|f| f.iter().map(|z| z.re).collect()),
            );
            for (family, x) in inputs.enumerate() {
                let mut full = vec![Complex::ZERO; full_len];
                plan.forward_into(&x, &mut full, &mut scratch);
                for bins in [1, 2, n / 4, n / 2, n / 2 + 1] {
                    let bins = bins.clamp(1, full_len);
                    // Poisoned so a bin the transform leaves unwritten shows.
                    let mut prefix = vec![Complex::new(f64::NAN, f64::NAN); bins];
                    plan.forward_into(&x, &mut prefix, &mut scratch);
                    assert!(
                        bits(&prefix) == bits(&full[..bins]),
                        "n {n} family {family}: the {bins}-bin prefix differs"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one-sided output length 0")]
    fn empty_output_panics() {
        let plan = RealFftPlan::new(64);
        plan.forward_into(&[1.0; 64], &mut [], &mut plan.scratch());
    }

    #[test]
    #[should_panic(expected = "one-sided output length 34")]
    fn output_past_nyquist_panics() {
        let plan = RealFftPlan::new(64);
        let mut out = vec![Complex::ZERO; plan.onesided_len() + 1];
        plan.forward_into(&[1.0; 64], &mut out, &mut plan.scratch());
    }
}
