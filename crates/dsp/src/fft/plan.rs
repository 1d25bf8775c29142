//! Planned real FFTs on split real/imaginary scratch: a bit-reversal gather
//! table and per-stage twiddle tables, executed into caller-provided
//! scratch so the hot path is allocation-free.
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
//! Four properties make the planned engine fast and accurate:
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
//! * **Split format** — the packed complex sequence lives in the scratch as
//!   two arrays, real parts and imaginary parts, so one 256-bit register
//!   holds four real or four imaginary parts. The input is gathered at
//!   bit-reversed indices straight into that scratch, so no swap pass runs.
//!   Public signatures keep `[Complex]`.
//! * **AVX2 kernels, same bits** — on x86_64 machines with AVX2 (detected
//!   once at run time) and transforms of 32 points or more, the gather
//!   feeds the first two radix-2 stages fused in registers, every later
//!   stage runs four butterflies per register, and the forward split step
//!   and the inverse's rebuild run four bins per register. Each lane runs
//!   the scalar loop's exact sequence of multiplies, adds and subtracts,
//!   with no FMA, so results are bit-identical on every machine; the scalar
//!   loops stay as the portable path and the tests' reference.
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
/// complex sequence, its real and imaginary parts in separate arrays.
/// [`RealFftPlan::scratch`] builds one already sized for its plan (and so
/// for every smaller plan); [`RealFftScratch::new`] starts empty and grows
/// on its first transform.
#[derive(Debug, Clone, Default)]
pub struct RealFftScratch {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl RealFftScratch {
    /// An empty scratch; the first transform sizes its buffers.
    pub fn new() -> RealFftScratch {
        RealFftScratch::default()
    }

    /// The leading `len` entries of both arrays, grown first (the only
    /// allocation) if they are shorter.
    fn split(&mut self, len: usize) -> (&mut [f64], &mut [f64]) {
        if self.re.len() < len {
            self.re.resize(len, 0.0);
            self.im.resize(len, 0.0);
        }
        (&mut self.re[..len], &mut self.im[..len])
    }
}

/// The tables of a radix-2 complex FFT of one power-of-two length (length
/// 0 has empty tables; no transform runs at that length).
#[derive(Debug, Clone)]
struct Pow2Tables {
    /// `rev[j]` is `j` with its `log2(len)` bits reversed: slot `j` of the
    /// gathered sequence holds element `rev[j]`.
    rev: Vec<u32>,
    /// Forward twiddles `e^{-2πik/len}` for `k < len/2`, concatenated over
    /// the stages `len = 2, 4, …, n` (`n − 1` entries, stage `len` from
    /// offset `len/2 − 1`), real and imaginary parts apart. The inverse
    /// transform conjugates them on the fly.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl Pow2Tables {
    fn build(n: usize) -> Pow2Tables {
        debug_assert!(n == 0 || n.is_power_of_two());
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|j| {
                if bits == 0 {
                    0
                } else {
                    j.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        let mut tw_re = Vec::with_capacity(n.saturating_sub(1));
        let mut tw_im = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2usize;
        while len <= n {
            let step = -2.0 * std::f64::consts::PI / len as f64;
            for k in 0..len / 2 {
                let w = Complex::from_angle(step * k as f64);
                tw_re.push(w.re);
                tw_im.push(w.im);
            }
            len <<= 1;
        }
        Pow2Tables { rev, tw_re, tw_im }
    }

    /// Unnormalized complex FFT of the packed sequence
    /// `z[k] = x[2k] + i·x[2k + 1]` (zero past the end of `x`), of the
    /// length the tables were built for, written in natural order to
    /// `re`/`im`. The sequence is gathered at bit-reversed indices, so no
    /// swap pass runs.
    ///
    /// With `simd` set, AVX2 present and a length of 16 or more, it runs
    /// [`x86::transform`], which gives the scalar loops' bits exactly;
    /// otherwise the scalar loops run. Only the bit-identity tests pass
    /// `simd = false`.
    fn transform(&self, x: &[f64], re: &mut [f64], im: &mut [f64], inverse: bool, simd: bool) {
        let n = self.rev.len();
        assert!(
            re.len() == n && im.len() == n,
            "split buffers of length {n}"
        );
        #[cfg(target_arch = "x86_64")]
        if simd && n >= 16 && crate::kernels::avx2_available() {
            // SAFETY: AVX2 was detected on this line.
            unsafe { x86::transform(self, x, re, im, inverse) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = simd;
        for ((r, i), &k) in re.iter_mut().zip(im.iter_mut()).zip(&self.rev) {
            let at = 2 * k as usize;
            *r = x.get(at).copied().unwrap_or(0.0);
            *i = x.get(at + 1).copied().unwrap_or(0.0);
        }
        let mut half = 1;
        while half < n {
            let stage = half - 1..2 * half - 1;
            scalar_stage(
                re,
                im,
                &self.tw_re[stage.clone()],
                &self.tw_im[stage],
                inverse,
            );
            half <<= 1;
        }
    }
}

/// One radix-2 stage of `len = 2 · w_re.len()` over every `len`-chunk of
/// `re`/`im` — the reference every SIMD stage must match bit for bit.
fn scalar_stage(re: &mut [f64], im: &mut [f64], w_re: &[f64], w_im: &[f64], inverse: bool) {
    let half = w_re.len();
    for (cr, ci) in re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half))
    {
        let (lo_re, hi_re) = cr.split_at_mut(half);
        let (lo_im, hi_im) = ci.split_at_mut(half);
        for k in 0..half {
            let w = Complex::new(w_re[k], w_im[k]);
            let w = if inverse { w.conj() } else { w };
            let u = Complex::new(lo_re[k], lo_im[k]);
            let v = Complex::new(hi_re[k], hi_im[k]) * w;
            let (a, b) = (u + v, u - v);
            (lo_re[k], lo_im[k], hi_re[k], hi_im[k]) = (a.re, a.im, b.re, b.im);
        }
    }
}

/// Bin `k` (`0 < k < h`) of the forward split step over the packed
/// spectrum `z = re + i·im` of length `h`: with Fe/Fo the DFTs of the
/// even/odd samples, `X[k] = Fe[k] + w·Fo[k]`, `w = e^{-2πik/n}`.
#[inline]
fn split_bin(re: &[f64], im: &[f64], w: Complex, k: usize) -> Complex {
    let h = re.len();
    let a = Complex::new(re[k], im[k]);
    let b = Complex::new(re[h - k], im[h - k]).conj();
    let fe = (a + b).scale(0.5);
    let fo = (a - b) * Complex::new(0.0, -0.5);
    fe + w * fo
}

/// Element `k` (`0 < k < h`) of the packed spectrum the inverse rebuilds
/// from the one-sided spectrum `spec` (`h + 1` bins):
/// `Fe[k] = (X[k] + conj(X[h−k]))/2`, `Fo[k] = (X[k] − conj(X[h−k]))/2 ·
/// conj(w)`, `Z[k] = Fe[k] + i·Fo[k]`, `w = e^{-2πik/n}`.
#[inline]
fn rebuild_bin(spec: &[Complex], w: Complex, k: usize) -> Complex {
    let h = spec.len() - 1;
    let a = spec[k];
    let b = spec[h - k].conj();
    let fe = (a + b).scale(0.5);
    let fo = (a - b).scale(0.5) * w.conj();
    fe + Complex::I * fo
}

#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod x86 {
    //! AVX2 kernels over the split arrays, four values per register. Every
    //! lane runs the operations of the matching scalar code in
    //! [`super::scalar_stage`], [`super::split_bin`] and
    //! [`super::rebuild_bin`] on the same operands — `Complex`'s multiply
    //! as `re = a·c − b·d`, `im = a·d + b·c`, a conjugate as a sign-bit
    //! flip, products by 0.0 and 1.0 kept — with no FMA, so each lane
    //! rounds exactly as the scalar code does.

    use super::Pow2Tables;
    use crate::complex::Complex;
    use std::arch::x86_64::*;

    /// One radix-2 butterfly per lane: `v = h·w`, then `(u + v, u − v)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn butterfly(
        u: (__m256d, __m256d),
        h: (__m256d, __m256d),
        w: (__m256d, __m256d),
    ) -> [(__m256d, __m256d); 2] {
        let v_re = _mm256_sub_pd(_mm256_mul_pd(h.0, w.0), _mm256_mul_pd(h.1, w.1));
        let v_im = _mm256_add_pd(_mm256_mul_pd(h.0, w.1), _mm256_mul_pd(h.1, w.0));
        [
            (_mm256_add_pd(u.0, v_re), _mm256_add_pd(u.1, v_im)),
            (_mm256_sub_pd(u.0, v_re), _mm256_sub_pd(u.1, v_im)),
        ]
    }

    /// Packed element `k` of `x`, `[x[2k], x[2k + 1]]`, zero past its end.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn packed(x: &[f64], k: u32) -> __m128d {
        let at = 2 * k as usize;
        match x.get(at..at + 2) {
            // SAFETY: `pair` holds the two values the load reads.
            Some(pair) => unsafe { _mm_loadu_pd(pair.as_ptr()) },
            None => _mm_set_pd(0.0, x.get(at).copied().unwrap_or(0.0)),
        }
    }

    /// Stores four registers whose lane `g` holds element `e` of 4-point
    /// group `g` (register `e`) as the four groups back to back.
    ///
    /// # Safety
    ///
    /// `dst` must be valid for 16 `f64` writes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_groups(dst: *mut f64, r: [__m256d; 4]) {
        let t0 = _mm256_unpacklo_pd(r[0], r[1]);
        let t1 = _mm256_unpackhi_pd(r[0], r[1]);
        let t2 = _mm256_unpacklo_pd(r[2], r[3]);
        let t3 = _mm256_unpackhi_pd(r[2], r[3]);
        // SAFETY: the caller guarantees 16 writable values at `dst`.
        unsafe {
            _mm256_storeu_pd(dst, _mm256_permute2f128_pd::<0x20>(t0, t2));
            _mm256_storeu_pd(dst.add(4), _mm256_permute2f128_pd::<0x20>(t1, t3));
            _mm256_storeu_pd(dst.add(8), _mm256_permute2f128_pd::<0x31>(t0, t2));
            _mm256_storeu_pd(dst.add(12), _mm256_permute2f128_pd::<0x31>(t1, t3));
        }
    }

    /// Stores four complex values, real parts `re` and imaginary parts
    /// `im`, interleaved as `[re0, im0, re1, im1, …]`.
    ///
    /// # Safety
    ///
    /// `dst` must be valid for 8 `f64` writes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_interleaved(dst: *mut f64, re: __m256d, im: __m256d) {
        let lo = _mm256_unpacklo_pd(re, im);
        let hi = _mm256_unpackhi_pd(re, im);
        // SAFETY: the caller guarantees 8 writable values at `dst`.
        unsafe {
            _mm256_storeu_pd(dst, _mm256_permute2f128_pd::<0x20>(lo, hi));
            _mm256_storeu_pd(dst.add(4), _mm256_permute2f128_pd::<0x31>(lo, hi));
        }
    }

    /// Lanes in reverse order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn reverse(v: __m256d) -> __m256d {
        _mm256_permute4x64_pd::<0b00_01_10_11>(v)
    }

    /// The packed complex FFT of [`Pow2Tables::transform`].
    ///
    /// The gather loads each 16-element block as four 4-point groups, one
    /// group per lane, runs the stages `len = 2` and `len = 4` on them in
    /// registers and stores the block in natural order. Every later stage
    /// then runs four butterflies per register, from the stage's twiddle
    /// run.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transform(
        t: &Pow2Tables,
        x: &[f64],
        re: &mut [f64],
        im: &mut [f64],
        inverse: bool,
    ) {
        let n = t.rev.len();
        assert!(n >= 16 && n.is_power_of_two() && re.len() == n && im.len() == n);
        assert!(t.tw_re.len() == n - 1 && t.tw_im.len() == n - 1);
        let sign = _mm256_set1_pd(if inverse { -0.0 } else { 0.0 });
        let splat = |k: usize| {
            (
                _mm256_set1_pd(t.tw_re[k]),
                _mm256_xor_pd(_mm256_set1_pd(t.tw_im[k]), sign),
            )
        };
        let (w2, w4_0, w4_1) = (splat(0), splat(1), splat(2));
        let (re_ptr, im_ptr) = (re.as_mut_ptr(), im.as_mut_ptr());
        for (b, rev) in t.rev.chunks_exact(16).enumerate() {
            // Register `e` holds element `e` of the block's four groups.
            let mut a = [(_mm256_setzero_pd(), _mm256_setzero_pd()); 4];
            for (e, a) in a.iter_mut().enumerate() {
                let g02 = _mm256_set_m128d(packed(x, rev[8 + e]), packed(x, rev[e]));
                let g13 = _mm256_set_m128d(packed(x, rev[12 + e]), packed(x, rev[4 + e]));
                *a = (_mm256_unpacklo_pd(g02, g13), _mm256_unpackhi_pd(g02, g13));
            }
            let [b0, b1] = butterfly(a[0], a[1], w2);
            let [b2, b3] = butterfly(a[2], a[3], w2);
            let [c0, c2] = butterfly(b0, b2, w4_0);
            let [c1, c3] = butterfly(b1, b3, w4_1);
            // SAFETY: block `b` covers `16b..16b + 16`, inside `re`/`im`.
            unsafe {
                store_groups(re_ptr.add(16 * b), [c0.0, c1.0, c2.0, c3.0]);
                store_groups(im_ptr.add(16 * b), [c0.1, c1.1, c2.1, c3.1]);
            }
        }
        let mut half = 4;
        while half < n {
            let w_re = t.tw_re[half - 1..].as_ptr();
            let w_im = t.tw_im[half - 1..].as_ptr();
            for base in (0..n).step_by(2 * half) {
                for k in (0..half).step_by(4) {
                    let (lo, hi) = (base + k, base + half + k);
                    // SAFETY: `half` is a power of two ≥ 4 and `k < half` a
                    // multiple of 4, so every load and store covers four
                    // values inside the `2·half`-chunk at `base < n`, and
                    // the twiddle loads stay inside stage `half`'s run,
                    // which ends at `2·half − 1 ≤ n − 1`.
                    unsafe {
                        let w = (
                            _mm256_loadu_pd(w_re.add(k)),
                            _mm256_xor_pd(_mm256_loadu_pd(w_im.add(k)), sign),
                        );
                        let u = (
                            _mm256_loadu_pd(re_ptr.add(lo)),
                            _mm256_loadu_pd(im_ptr.add(lo)),
                        );
                        let h = (
                            _mm256_loadu_pd(re_ptr.add(hi)),
                            _mm256_loadu_pd(im_ptr.add(hi)),
                        );
                        let [p, q] = butterfly(u, h, w);
                        _mm256_storeu_pd(re_ptr.add(lo), p.0);
                        _mm256_storeu_pd(im_ptr.add(lo), p.1);
                        _mm256_storeu_pd(re_ptr.add(hi), q.0);
                        _mm256_storeu_pd(im_ptr.add(hi), q.1);
                    }
                }
            }
            half <<= 1;
        }
    }

    /// Bins `1, 2, …` of the forward split step ([`super::split_bin`]),
    /// four per register, into `out`, for as long as four fit before
    /// `out.len()`; returns the first bin left for the scalar tail.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn split_forward(
        re: &[f64],
        im: &[f64],
        w_re: &[f64],
        w_im: &[f64],
        out: &mut [Complex],
    ) -> usize {
        let h = re.len();
        assert!(im.len() == h && w_re.len() == h && w_im.len() == h && out.len() <= h);
        let (half, zero, minus_half) = (
            _mm256_set1_pd(0.5),
            _mm256_set1_pd(0.0),
            _mm256_set1_pd(-0.5),
        );
        let neg = _mm256_set1_pd(-0.0);
        let mut k = 1;
        while k + 4 <= out.len() {
            // SAFETY: `1 ≤ k` and `k + 4 ≤ out.len() ≤ h`, so the loads at
            // `k` and at `h − k − 3 ≥ 1` read four values inside the
            // length-`h` arrays, and the store writes `out[k..k + 4]`.
            // `Complex` is `#[repr(C)]`: four of them are eight `f64`s.
            unsafe {
                let a_re = _mm256_loadu_pd(re.as_ptr().add(k));
                let a_im = _mm256_loadu_pd(im.as_ptr().add(k));
                let b_re = reverse(_mm256_loadu_pd(re.as_ptr().add(h - k - 3)));
                let b_im = _mm256_xor_pd(reverse(_mm256_loadu_pd(im.as_ptr().add(h - k - 3))), neg);
                let fe_re = _mm256_mul_pd(_mm256_add_pd(a_re, b_re), half);
                let fe_im = _mm256_mul_pd(_mm256_add_pd(a_im, b_im), half);
                let d_re = _mm256_sub_pd(a_re, b_re);
                let d_im = _mm256_sub_pd(a_im, b_im);
                let fo_re =
                    _mm256_sub_pd(_mm256_mul_pd(d_re, zero), _mm256_mul_pd(d_im, minus_half));
                let fo_im =
                    _mm256_add_pd(_mm256_mul_pd(d_re, minus_half), _mm256_mul_pd(d_im, zero));
                let w_r = _mm256_loadu_pd(w_re.as_ptr().add(k));
                let w_i = _mm256_loadu_pd(w_im.as_ptr().add(k));
                let t_re = _mm256_sub_pd(_mm256_mul_pd(w_r, fo_re), _mm256_mul_pd(w_i, fo_im));
                let t_im = _mm256_add_pd(_mm256_mul_pd(w_r, fo_im), _mm256_mul_pd(w_i, fo_re));
                store_interleaved(
                    out.as_mut_ptr().add(k).cast(),
                    _mm256_add_pd(fe_re, t_re),
                    _mm256_add_pd(fe_im, t_im),
                );
            }
            k += 4;
        }
        k
    }

    /// Real and imaginary parts of the four complex values at `src`, in
    /// order when `reversed` is false and last-first when it is true.
    ///
    /// # Safety
    ///
    /// `src` must be valid for 4 `Complex` reads.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_complex4<const REVERSED: bool>(src: *const Complex) -> (__m256d, __m256d) {
        let p = src.cast::<f64>();
        // SAFETY: the caller guarantees four readable `#[repr(C)]`
        // complex values, eight `f64`s.
        let (a, b) = unsafe { (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))) };
        // Lanes hold values 0, 2, 1, 3.
        let (re, im) = (_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b));
        if REVERSED {
            (
                _mm256_permute4x64_pd::<0b00_10_01_11>(re),
                _mm256_permute4x64_pd::<0b00_10_01_11>(im),
            )
        } else {
            (
                _mm256_permute4x64_pd::<0b11_01_10_00>(re),
                _mm256_permute4x64_pd::<0b11_01_10_00>(im),
            )
        }
    }

    /// Elements `1, 2, …` of the inverse's packed spectrum
    /// ([`super::rebuild_bin`]), four per register, written interleaved
    /// into `out` (`out[2k]`, `out[2k + 1]`) for as long as four fit before
    /// `h = spec.len() − 1`; returns the first element left for the scalar
    /// tail.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn rebuild(
        spec: &[Complex],
        w_re: &[f64],
        w_im: &[f64],
        out: &mut [f64],
    ) -> usize {
        let h = spec.len() - 1;
        assert!(w_re.len() == h && w_im.len() == h && out.len() == 2 * h);
        let (half, zero, one) = (
            _mm256_set1_pd(0.5),
            _mm256_set1_pd(0.0),
            _mm256_set1_pd(1.0),
        );
        let neg = _mm256_set1_pd(-0.0);
        let mut k = 1;
        while k + 4 <= h {
            // SAFETY: `1 ≤ k` and `k + 4 ≤ h`, so the reads cover
            // `spec[k..k + 4]`, `spec[h − k − 3..h − k + 1]` (from 1 to
            // `h − 1`) and four twiddles below `h`, and the store writes
            // `out[2k..2k + 8]`, below `2h`.
            unsafe {
                let (a_re, a_im) = load_complex4::<false>(spec.as_ptr().add(k));
                let (b_re, b_im) = load_complex4::<true>(spec.as_ptr().add(h - k - 3));
                let b_im = _mm256_xor_pd(b_im, neg);
                let fe_re = _mm256_mul_pd(_mm256_add_pd(a_re, b_re), half);
                let fe_im = _mm256_mul_pd(_mm256_add_pd(a_im, b_im), half);
                let d_re = _mm256_mul_pd(_mm256_sub_pd(a_re, b_re), half);
                let d_im = _mm256_mul_pd(_mm256_sub_pd(a_im, b_im), half);
                let w_r = _mm256_loadu_pd(w_re.as_ptr().add(k));
                let w_i = _mm256_xor_pd(_mm256_loadu_pd(w_im.as_ptr().add(k)), neg);
                let fo_re = _mm256_sub_pd(_mm256_mul_pd(d_re, w_r), _mm256_mul_pd(d_im, w_i));
                let fo_im = _mm256_add_pd(_mm256_mul_pd(d_re, w_i), _mm256_mul_pd(d_im, w_r));
                let ifo_re = _mm256_sub_pd(_mm256_mul_pd(zero, fo_re), _mm256_mul_pd(one, fo_im));
                let ifo_im = _mm256_add_pd(_mm256_mul_pd(zero, fo_im), _mm256_mul_pd(one, fo_re));
                store_interleaved(
                    out.as_mut_ptr().add(2 * k),
                    _mm256_add_pd(fe_re, ifo_re),
                    _mm256_add_pd(fe_im, ifo_im),
                );
            }
            k += 4;
        }
        k
    }

    /// `out[2k] = re[k]·scale`, `out[2k + 1] = im[k]·scale`, four `k` at a
    /// time for as long as four fit; returns the first `k` left for the
    /// scalar tail.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn interleave_scaled(
        re: &[f64],
        im: &[f64],
        scale: f64,
        out: &mut [f64],
    ) -> usize {
        let h = re.len();
        assert!(im.len() == h && out.len() == 2 * h);
        let s = _mm256_set1_pd(scale);
        let mut k = 0;
        while k + 4 <= h {
            // SAFETY: `k + 4 ≤ h`: four values of `re` and `im`, and
            // `out[2k..2k + 8]` below `2h`.
            unsafe {
                store_interleaved(
                    out.as_mut_ptr().add(2 * k),
                    _mm256_mul_pd(_mm256_loadu_pd(re.as_ptr().add(k)), s),
                    _mm256_mul_pd(_mm256_loadu_pd(im.as_ptr().add(k)), s),
                );
            }
            k += 4;
        }
        k
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
    /// Tables of the complex FFT of length `n/2` (empty for `n = 1`).
    half: Pow2Tables,
    /// Split twiddles `e^{-2πik/n}` for `k < n/2`, real and imaginary
    /// parts apart.
    split_re: Vec<f64>,
    split_im: Vec<f64>,
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
        let split: Vec<Complex> = (0..h)
            .map(|k| Complex::from_angle(step * k as f64))
            .collect();
        RealFftPlan {
            n,
            half: Pow2Tables::build(h),
            split_re: split.iter().map(|w| w.re).collect(),
            split_im: split.iter().map(|w| w.im).collect(),
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
    /// this length or shorter: its buffers are allocated and written here,
    /// so no later transform grows them or touches a fresh page.
    pub fn scratch(&self) -> RealFftScratch {
        let written = |len: usize| {
            let mut v = Vec::with_capacity(len);
            v.resize(len, 0.0);
            v
        };
        RealFftScratch {
            re: written(self.n / 2),
            im: written(self.n / 2),
        }
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
        self.forward_with(x, out, scratch, true);
    }

    /// [`forward_into`](RealFftPlan::forward_into), on the AVX2 kernels
    /// when `simd` is set and the machine has them; only the bit-identity
    /// tests clear it.
    fn forward_with(
        &self,
        x: &[f64],
        out: &mut [Complex],
        scratch: &mut RealFftScratch,
        simd: bool,
    ) {
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
        let simd = simd && crate::kernels::avx2_available();
        let (re, im) = scratch.split(h);
        self.half.transform(x, re, im, false, simd);
        out[0] = Complex::from_real(re[0] + im[0]);
        if let Some(nyquist) = out.get_mut(h) {
            *nyquist = Complex::from_real(re[0] - im[0]);
        }
        let end = out.len().min(h);
        let mut first = 1;
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: AVX2 was detected above.
            first = unsafe {
                x86::split_forward(re, im, &self.split_re, &self.split_im, &mut out[..end])
            };
        }
        for (k, bin) in out.iter_mut().enumerate().take(end).skip(first) {
            let w = Complex::new(self.split_re[k], self.split_im[k]);
            *bin = split_bin(re, im, w, k);
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
        self.inverse_with(spec, out, scratch, true);
    }

    /// [`inverse_into`](RealFftPlan::inverse_into), on the AVX2 kernels
    /// when `simd` is set and the machine has them; only the bit-identity
    /// tests clear it.
    fn inverse_with(
        &self,
        spec: &[Complex],
        out: &mut [f64],
        scratch: &mut RealFftScratch,
        simd: bool,
    ) {
        assert_eq!(spec.len(), self.onesided_len(), "one-sided input length");
        assert_eq!(out.len(), self.n, "output length");
        if self.n == 1 {
            out[0] = spec[0].re;
            return;
        }
        let h = self.n / 2;
        let simd = simd && crate::kernels::avx2_available();
        // Rebuild the packed spectrum into `out`, interleaved: k = 0 uses
        // only the real parts of X[0] and X[h], which is where the
        // "imaginary parts of the edge bins are ignored" contract comes
        // from.
        out[0] = (spec[0].re + spec[h].re) * 0.5;
        out[1] = (spec[0].re - spec[h].re) * 0.5;
        let mut first = 1;
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: AVX2 was detected above.
            first = unsafe { x86::rebuild(spec, &self.split_re, &self.split_im, out) };
        }
        for k in first..h {
            let w = Complex::new(self.split_re[k], self.split_im[k]);
            let z = rebuild_bin(spec, w, k);
            (out[2 * k], out[2 * k + 1]) = (z.re, z.im);
        }
        let (re, im) = scratch.split(h);
        self.half.transform(out, re, im, true, simd);
        let inv_h = 1.0 / h as f64;
        let mut first = 0;
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: AVX2 was detected above.
            first = unsafe { x86::interleave_scaled(re, im, inv_h, out) };
        }
        for k in first..h {
            (out[2 * k], out[2 * k + 1]) = (re[k] * inv_h, im[k] * inv_h);
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
mod oracle {
    //! The array-of-complex engine the split-format engine replaced, kept
    //! verbatim as the bit-identity oracle: pack, swap list, scalar stages,
    //! split loop and inverse rebuild.

    use crate::complex::Complex;

    /// Swap list and twiddles of an in-place radix-2 FFT of length `n`.
    pub struct Pow2Tables {
        swaps: Vec<(u32, u32)>,
        twiddles: Vec<Complex>,
    }

    impl Pow2Tables {
        pub fn build(n: usize) -> Pow2Tables {
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

        pub fn process(&self, buf: &mut [Complex], inverse: bool) {
            let n = buf.len();
            if n < 2 {
                return;
            }
            for &(i, j) in &self.swaps {
                buf.swap(i as usize, j as usize);
            }
            let mut tables = self.twiddles.as_slice();
            let mut len = 2usize;
            while len <= n {
                let (stage, rest) = tables.split_at(len / 2);
                tables = rest;
                scalar_stage(buf, stage, inverse);
                len <<= 1;
            }
        }
    }

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

    /// The real FFT of length `n` over a half-size complex FFT.
    pub struct RealFft {
        n: usize,
        half: Pow2Tables,
        split: Vec<Complex>,
    }

    impl RealFft {
        pub fn new(n: usize) -> RealFft {
            let h = n / 2;
            let step = -2.0 * std::f64::consts::PI / n as f64;
            RealFft {
                n,
                half: Pow2Tables::build(h),
                split: (0..h)
                    .map(|k| Complex::from_angle(step * k as f64))
                    .collect(),
            }
        }

        /// The whole one-sided spectrum of `x` zero-padded to `n`.
        pub fn forward(&self, x: &[f64]) -> Vec<Complex> {
            let mut out = vec![Complex::ZERO; self.n / 2 + 1];
            if self.n == 1 {
                out[0] = Complex::from_real(x.first().copied().unwrap_or(0.0));
                return out;
            }
            let h = self.n / 2;
            let mut z = vec![Complex::ZERO; h];
            let pairs = x.len() / 2;
            for (k, zk) in z.iter_mut().enumerate().take(pairs) {
                *zk = Complex::new(x[2 * k], x[2 * k + 1]);
            }
            if x.len() % 2 == 1 {
                z[pairs] = Complex::from_real(x[x.len() - 1]);
            }
            self.half.process(&mut z, false);
            out[0] = Complex::from_real(z[0].re + z[0].im);
            out[h] = Complex::from_real(z[0].re - z[0].im);
            for k in 1..h {
                let a = z[k];
                let b = z[h - k].conj();
                let fe = (a + b).scale(0.5);
                let fo = (a - b) * Complex::new(0.0, -0.5);
                out[k] = fe + self.split[k] * fo;
            }
            out
        }

        pub fn inverse(&self, spec: &[Complex]) -> Vec<f64> {
            let mut out = vec![0.0; self.n];
            if self.n == 1 {
                out[0] = spec[0].re;
                return out;
            }
            let h = self.n / 2;
            let mut z = vec![Complex::ZERO; h];
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
            self.half.process(&mut z, true);
            let inv_h = 1.0 / h as f64;
            for k in 0..h {
                out[2 * k] = z[k].re * inv_h;
                out[2 * k + 1] = z[k].im * inv_h;
            }
            out
        }
    }
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

    fn real_bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The packed complex FFT must give the same bits on the AVX2 kernels
    /// and on the scalar loops, and both the array-of-complex oracle's, for
    /// every power of two from 2 to 65536, in both directions. Without
    /// AVX2 both runs take the scalar path.
    #[test]
    fn simd_butterflies_match_scalar_bit_for_bit() {
        if !crate::kernels::avx2_available() {
            eprintln!("notice: AVX2 not available on this machine; checking the scalar path only");
        }
        for n in (1..=16).map(|e| 1usize << e) {
            let tables = Pow2Tables::build(n);
            let oracle = oracle::Pow2Tables::build(n);
            for (family, x) in edge_inputs(n).into_iter().enumerate() {
                let packed: Vec<f64> = x.iter().flat_map(|z| [z.re, z.im]).collect();
                for inverse in [false, true] {
                    let mut want = x.clone();
                    oracle.process(&mut want, inverse);
                    assert!(
                        want.iter().all(|z| z.re.is_finite() && z.im.is_finite()),
                        "n {n} family {family}: inputs must keep the transform finite"
                    );
                    for simd in [false, true] {
                        let (mut re, mut im) = (vec![f64::NAN; n], vec![f64::NAN; n]);
                        tables.transform(&packed, &mut re, &mut im, inverse, simd);
                        let got: Vec<Complex> = re
                            .iter()
                            .zip(&im)
                            .map(|(&r, &i)| Complex::new(r, i))
                            .collect();
                        assert!(
                            bits(&got) == bits(&want),
                            "n {n} family {family} inverse {inverse} simd {simd}: bits differ"
                        );
                    }
                }
            }
        }
    }

    /// The split-format engine must give the array-of-complex oracle's
    /// bits at every power of two from 1 to 65536, with AVX2 on and off:
    /// forward into prefixes of 1, 2, n/4, n/2 and n/2 + 1 bins, and the
    /// inverse, on white noise, the real parts of the edge-input families,
    /// short inputs of odd and even length and signed zeros; the inverse
    /// also on the edge-input families as one-sided spectra.
    #[test]
    fn engine_matches_the_array_of_complex_oracle() {
        use crate::rng::SeedableRng;
        for n in (0..=16).map(|e| 1usize << e) {
            let plan = RealFftPlan::new(n);
            let oracle = oracle::RealFft::new(n);
            let bins = plan.onesided_len();
            let mut rng = crate::rng::StdRng::seed_from_u64(n as u64 ^ 0xF17);
            let noise = crate::rng::white_noise(&mut rng, n);
            let edges = edge_inputs(n);
            let mut inputs = vec![noise.clone()];
            inputs.extend(edges.iter().map(|f| f.iter().map(|z| z.re).collect()));
            let mut short = vec![0, 1, n / 2 + 1, n * 15 / 16, n.saturating_sub(1)];
            short.retain(|&len| len < n);
            short.dedup();
            inputs.extend(short.iter().map(|&len| noise[..len].to_vec()));
            // Signed zeros only: negative, then with the noise's signs.
            inputs.push(vec![-0.0; n]);
            inputs.push(noise.iter().map(|v| 0.0f64.copysign(*v)).collect());
            let mut spectra: Vec<Vec<Complex>> =
                edges.iter().map(|f| f[..bins.min(n)].to_vec()).collect();
            for spec in &mut spectra {
                spec.resize(bins, Complex::new(0.25, -0.0));
            }
            let mut scratch = RealFftScratch::new();
            for (i, x) in inputs.iter().enumerate() {
                let full = oracle.forward(x);
                for simd in [false, true] {
                    for prefix in [1, 2, n / 4, n / 2, n / 2 + 1] {
                        let prefix = prefix.clamp(1, bins);
                        let mut got = vec![Complex::new(f64::NAN, f64::NAN); prefix];
                        plan.forward_with(x, &mut got, &mut scratch, simd);
                        assert!(
                            bits(&got) == bits(&full[..prefix]),
                            "n {n} input {i} (len {}) simd {simd}: the {prefix}-bin forward differs",
                            x.len()
                        );
                    }
                }
                spectra.push(full);
            }
            for (i, spec) in spectra.iter().enumerate() {
                let want = oracle.inverse(spec);
                for simd in [false, true] {
                    let mut got = vec![f64::NAN; n];
                    plan.inverse_with(spec, &mut got, &mut scratch, simd);
                    assert!(
                        real_bits(&got) == real_bits(&want),
                        "n {n} spectrum {i} simd {simd}: the inverse differs"
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
