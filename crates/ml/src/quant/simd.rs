//! `std::arch` AVX2 backends for the int8 inference kernels.
//!
//! The quantized conv forwards and SVM distances in [`crate::quant`] spend
//! their time in two flat kernels — i8·i8 → i32 dot products and i8
//! squared Euclidean distances. The portable versions are written as
//! eight-lane accumulator banks that LLVM autovectorizes, but the
//! autovectorized floor leaves real throughput on the table: the compiler
//! widens i8 operands to i32 before multiplying, spending four vectors of
//! work where AVX2's `vpmaddwd` needs one. The kernels here sign-extend
//! 16 operands at a time to i16 (`vpmovsxbw`) and multiply-accumulate
//! adjacent pairs straight into i32 lanes (`vpmaddwd`).
//!
//! **Exactness contract:** every kernel is pure integer arithmetic, so the
//! AVX2 result equals the scalar reference bit-for-bit on every input —
//! not merely within tolerance. CI gates this agreement (`kernel_quant`
//! bench) and the unit tests below pin it across shapes, including the
//! ragged tails the vector loop cannot touch.
//!
//! Overflow: one `vpmaddwd` lane sums two i16 products, each at most
//! `127 · 127` (dots) or `254²` (distances), so a lane grows by at most
//! `2 · 64516` per 16-element step. An i32 lane therefore safely
//! accumulates vectors of ~500k elements — three orders of magnitude
//! beyond the mini encoder's largest row (`in_ch · kernel = 128`).
//!
//! Everything is gated: compile-time to `x86_64` (other targets compile
//! the scalar path only) and runtime-detected via the workspace's one
//! cached probe, [`ht_dsp::kernels::avx2_available`].

use ht_dsp::kernels::avx2_available;

#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod x86 {
    use std::arch::x86_64::*;

    /// Sums the eight i32 lanes of `v`. Register-only arithmetic — safe
    /// given the enclosing `target_feature`, no unsafe block needed.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        let q = _mm_add_epi32(lo, hi);
        let sh = _mm_add_epi32(q, _mm_shuffle_epi32::<0b00_01_10_11>(q));
        let s = _mm_add_epi32(sh, _mm_shuffle_epi32::<0b01_00_11_10>(sh));
        _mm_cvtsi128_si32(s)
    }

    /// AVX2 i8·i8 → i32 dot product: 16 operands per step through
    /// sign-extension to i16 and `vpmaddwd` pair-accumulation.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_i8(w: &[i8], x: &[i8]) -> i32 {
        let n = w.len().min(x.len());
        let mut acc;
        let steps = n / 16;
        // SAFETY: AVX2 guaranteed by the caller; every unaligned load
        // reads 16 bytes at `i * 16` with `i < steps`, so the furthest
        // byte is `steps * 16 - 1 < n` — in bounds for both slices.
        unsafe {
            acc = _mm256_setzero_si256();
            for i in 0..steps {
                let wv = _mm_loadu_si128(w.as_ptr().add(i * 16).cast());
                let xv = _mm_loadu_si128(x.as_ptr().add(i * 16).cast());
                let w16 = _mm256_cvtepi8_epi16(wv);
                let x16 = _mm256_cvtepi8_epi16(xv);
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(w16, x16));
            }
        }
        // SAFETY: AVX2 guaranteed by the caller.
        let mut total = unsafe { hsum_epi32(acc) };
        for i in steps * 16..n {
            total += w[i] as i32 * x[i] as i32;
        }
        total
    }

    /// AVX2 i8 squared Euclidean distance: differences fit i16
    /// (range ±254), squared and pair-accumulated by `vpmaddwd`.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dist2_i8(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let mut acc;
        let steps = n / 16;
        // SAFETY: AVX2 guaranteed by the caller; load bounds as in
        // `dot_i8` above.
        unsafe {
            acc = _mm256_setzero_si256();
            for i in 0..steps {
                let av = _mm_loadu_si128(a.as_ptr().add(i * 16).cast());
                let bv = _mm_loadu_si128(b.as_ptr().add(i * 16).cast());
                let d = _mm256_sub_epi16(_mm256_cvtepi8_epi16(av), _mm256_cvtepi8_epi16(bv));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
            }
        }
        // SAFETY: AVX2 guaranteed by the caller.
        let mut total = unsafe { hsum_epi32(acc) };
        for i in steps * 16..n {
            let d = a[i] as i32 - b[i] as i32;
            total += d * d;
        }
        total
    }
}

/// AVX2 i8·i8 → i32 dot product — safe entry point for the CI agreement
/// gate and the kernel benches (the inference hot path dispatches through
/// `quant::dot_i8` instead, skipping the per-call assertion).
///
/// # Panics
///
/// Panics when AVX2 is unavailable; check [`avx2_available`] first.
pub fn dot_i8_avx2(w: &[i8], x: &[i8]) -> i32 {
    assert!(avx2_available(), "AVX2 kernels need runtime AVX2 support");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: availability asserted above.
    unsafe {
        x86::dot_i8(w, x)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("avx2_available() is constant false off x86_64")
}

/// AVX2 i8 squared Euclidean distance — safe entry point, as
/// [`dot_i8_avx2`].
///
/// # Panics
///
/// Panics when AVX2 is unavailable; check [`avx2_available`] first.
pub fn dist2_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    assert!(avx2_available(), "AVX2 kernels need runtime AVX2 support");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: availability asserted above.
    unsafe {
        x86::dist2_i8(a, b)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("avx2_available() is constant false off x86_64")
}

/// Hot-path dispatch used by the quantized kernels: AVX2 when the machine
/// has it, the autovectorized scalar bank otherwise. Always bit-identical
/// to [`super::dot_i8_scalar`].
#[inline]
pub(super) fn dot_i8(w: &[i8], x: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: availability checked on this line.
        return unsafe { x86::dot_i8(w, x) };
    }
    super::dot_i8_scalar(w, x)
}

/// Hot-path dispatch, as [`dot_i8`]. Always bit-identical to
/// [`super::dist2_i8_scalar`].
#[inline]
pub(super) fn dist2_i8(a: &[i8], b: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: availability checked on this line.
        return unsafe { x86::dist2_i8(a, b) };
    }
    super::dist2_i8_scalar(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{dist2_i8_scalar, dot_i8_scalar};
    use ht_dsp::rng::{Rng, SeedableRng, StdRng};

    fn random_i8(rng: &mut StdRng, n: usize) -> Vec<i8> {
        (0..n).map(|_| (rng.next_u64() % 255) as i8).collect()
    }

    #[test]
    fn avx2_dot_equals_scalar_on_every_shape() {
        if !avx2_available() {
            eprintln!("skipping: AVX2 not available on this machine");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xD07);
        // Shapes around every boundary: empty, sub-step, exact steps,
        // ragged tails, and the mini encoder's real row widths.
        for n in [0, 1, 7, 15, 16, 17, 31, 32, 33, 64, 100, 128, 1000] {
            let w = random_i8(&mut rng, n);
            let x = random_i8(&mut rng, n);
            assert_eq!(dot_i8_avx2(&w, &x), dot_i8_scalar(&w, &x), "dot shape {n}");
            assert_eq!(
                dist2_i8_avx2(&w, &x),
                dist2_i8_scalar(&w, &x),
                "dist2 shape {n}"
            );
        }
    }

    #[test]
    fn avx2_handles_extreme_values_exactly() {
        if !avx2_available() {
            eprintln!("skipping: AVX2 not available on this machine");
            return;
        }
        // i8::MIN products and differences stress the sign extension:
        // (-128)·(-128) = 16384 and (127 − (−128))² = 65025 both exceed
        // i16 positive range if the extension is mishandled.
        for n in [16, 17, 48] {
            let lo = vec![i8::MIN; n];
            let hi = vec![i8::MAX; n];
            assert_eq!(dot_i8_avx2(&lo, &lo), dot_i8_scalar(&lo, &lo));
            assert_eq!(dot_i8_avx2(&lo, &hi), dot_i8_scalar(&lo, &hi));
            assert_eq!(dist2_i8_avx2(&lo, &hi), dist2_i8_scalar(&lo, &hi));
            assert_eq!(dist2_i8_avx2(&hi, &lo), dist2_i8_scalar(&hi, &lo));
        }
    }

    #[test]
    fn dispatch_matches_scalar_regardless_of_backend() {
        let mut rng = StdRng::seed_from_u64(0xD15);
        for n in [5, 64, 129] {
            let a = random_i8(&mut rng, n);
            let b = random_i8(&mut rng, n);
            assert_eq!(dot_i8(&a, &b), dot_i8_scalar(&a, &b));
            assert_eq!(dist2_i8(&a, &b), dist2_i8_scalar(&a, &b));
        }
    }
}
