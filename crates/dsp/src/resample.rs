//! Sample-rate conversion.
//!
//! The liveness detector consumes 16 kHz audio while the arrays record at
//! 48 kHz (§III-A: "takes the downsampled 16 kHz speech … as input"), so the
//! primary operation here is an anti-aliased integer-factor decimation.

use crate::error::DspError;
use crate::window::{sinc_lowpass, Window};

/// Decimates `x` by the integer `factor` after an anti-alias windowed-sinc
/// low-pass at 45% of the output Nyquist.
///
/// Output sample `m` is the filter applied at input index
/// `m·factor + delay` (the FIR group delay is compensated, so the output is
/// time-aligned with the input); taps that fall outside the input are
/// skipped. This is exactly [`StreamDecimator`] fed the whole input and
/// flushed, so batch and streaming liveness inputs share one kernel.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `factor == 0`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ht_dsp::DspError> {
/// let x: Vec<f64> = (0..4800).map(|n| (n as f64 * 0.01).sin()).collect();
/// let y = ht_dsp::resample::decimate(&x, 3)?;
/// assert_eq!(y.len(), 1600);
/// # Ok(())
/// # }
/// ```
pub fn decimate(x: &[f64], factor: usize) -> Result<Vec<f64>, DspError> {
    let mut dec = StreamDecimator::new(factor)?;
    let mut y = Vec::with_capacity(x.len().div_ceil(factor));
    dec.push(x, &mut y);
    dec.flush_into(&mut y);
    Ok(y)
}

/// New input samples [`StreamDecimator::push`] appends to its linear buffer
/// per step; the buffer is sized once for `taps − 1` history samples plus
/// one block.
const BLOCK: usize = 256;

/// A chunk-streaming anti-alias decimator — the one kernel behind
/// [`decimate`].
///
/// Feed arbitrary chunks with [`push`](Self::push); it emits exactly the
/// samples a single [`decimate`] call emits on the concatenated input, bit
/// for bit and in order. Output sample `m` depends on input samples up to
/// its filter center `m·factor + delay`, so it is emitted eagerly the
/// moment that input sample arrives; the pending tail — outputs whose
/// center lies at or past the end of the input seen so far — is produced by
/// [`flush_into`](Self::flush_into), which is non-destructive: streaming
/// may continue afterwards, and a later flush re-derives the (new) tail.
///
/// Input lands in a linear buffer holding the last `taps − 1` samples plus
/// at most `BLOCK` (256) new ones, so every eager output reads one contiguous
/// window and four outputs are summed side by side on independent
/// accumulators. Each output is still summed in tap order, so the grouping
/// (which depends on the chunking) never changes a bit. The buffer is
/// allocated once at construction; memory is independent of stream length.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDecimator {
    factor: usize,
    delay: usize,
    h: Vec<f64>,
    /// Linear buffer of `taps − 1 + BLOCK` samples; `buf[..len]` holds the
    /// input samples at absolute indices `base..base + len`.
    buf: Vec<f64>,
    /// Absolute input index of `buf[0]`.
    base: usize,
    /// Valid samples in `buf`.
    len: usize,
    /// Outputs whose window reaches before input sample 0; they skip the
    /// missing taps.
    edge: usize,
    /// Input samples consumed so far.
    n_in: usize,
    /// Output samples emitted by `push` so far.
    n_out: usize,
}

impl StreamDecimator {
    /// Builds a streaming decimator for the given integer factor.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `factor == 0`.
    pub fn new(factor: usize) -> Result<StreamDecimator, DspError> {
        if factor == 0 {
            return Err(DspError::param("factor", "must be at least 1"));
        }
        if factor == 1 {
            // Pass-through: decimating by one copies the input verbatim.
            return Ok(StreamDecimator {
                factor,
                delay: 0,
                h: Vec::new(),
                buf: Vec::new(),
                base: 0,
                len: 0,
                edge: 0,
                n_in: 0,
                n_out: 0,
            });
        }
        // Anti-alias filter: cutoff at 0.45 / factor (relative to input
        // rate). The Blackman transition band is ~5.5/taps of the input
        // rate; 24·factor taps keeps the transition inside the guard band
        // below the new Nyquist.
        let fc = 0.45 / factor as f64;
        let taps = 24 * factor + 1;
        let h = sinc_lowpass(taps, fc, Window::Blackman);
        let delay = (taps - 1) / 2;
        Ok(StreamDecimator {
            factor,
            delay,
            h,
            buf: vec![0.0; taps - 1 + BLOCK],
            base: 0,
            len: 0,
            // Output m reaches before sample 0 iff m·factor + delay < taps − 1.
            edge: (taps - 1 - delay).div_ceil(factor),
            n_in: 0,
            n_out: 0,
        })
    }

    /// Consumes one chunk, appending every output sample that became ready.
    /// Allocation-free once `out` has capacity for the emitted samples.
    pub fn push(&mut self, x: &[f64], out: &mut Vec<f64>) {
        if self.factor == 1 {
            out.extend_from_slice(x);
            self.n_in += x.len();
            self.n_out += x.len();
            return;
        }
        let history = self.h.len() - 1;
        for block in x.chunks(BLOCK) {
            self.buf[self.len..self.len + block.len()].copy_from_slice(block);
            self.len += block.len();
            self.n_in += block.len();
            self.emit_ready(out);
            let keep = self.len.min(history);
            self.buf.copy_within(self.len - keep..self.len, 0);
            self.base += self.len - keep;
            self.len = keep;
        }
    }

    /// Emits every output whose filter center has arrived. Each eager
    /// window lies in `buf`: it spans `taps` samples ending at its center,
    /// and `buf` holds the `taps − 1` samples before the current block.
    fn emit_ready(&mut self, out: &mut Vec<f64>) {
        // Output m is ready once input m·factor + delay has arrived.
        let ready = match self.n_in.checked_sub(self.delay + 1) {
            Some(last) => last / self.factor + 1,
            None => 0,
        };
        let mut m = self.n_out;
        while m < ready.min(self.edge) {
            out.push(self.output_clipped(m));
            m += 1;
        }
        while m + 4 <= ready {
            out.extend_from_slice(&self.outputs4(m));
            m += 4;
        }
        while m < ready {
            out.push(self.output_full(m));
            m += 1;
        }
        self.n_out = ready;
    }

    /// The `taps` buffered samples ending at output `m`'s center.
    fn window(&self, m: usize) -> &[f64] {
        let end = m * self.factor + self.delay + 1 - self.base;
        &self.buf[end - self.h.len()..end]
    }

    /// Output `m` with every tap inside the input: `Σ h[k]·x[center − k]`
    /// in tap order.
    fn output_full(&self, m: usize) -> f64 {
        let mut acc = 0.0;
        for (&hk, &xv) in self.h.iter().zip(self.window(m).iter().rev()) {
            acc += hk * xv;
        }
        acc
    }

    /// Outputs `m..m + 4` on four independent accumulators, each summed in
    /// the same tap order as [`output_full`](Self::output_full).
    fn outputs4(&self, m: usize) -> [f64; 4] {
        let (w0, w1) = (self.window(m), self.window(m + 1));
        let (w2, w3) = (self.window(m + 2), self.window(m + 3));
        let mut acc = [0.0f64; 4];
        for ((((&hk, &x0), &x1), &x2), &x3) in self
            .h
            .iter()
            .zip(w0.iter().rev())
            .zip(w1.iter().rev())
            .zip(w2.iter().rev())
            .zip(w3.iter().rev())
        {
            acc[0] += hk * x0;
            acc[1] += hk * x1;
            acc[2] += hk * x2;
            acc[3] += hk * x3;
        }
        acc
    }

    /// Output `m` skipping taps before sample 0 or at/after `n_in`, in tap
    /// order: the first `edge` outputs and the flushed tail.
    /// Every referenced index is buffered: a tail output's center lies at
    /// or past `n_in`, so its live taps fall in the last `taps − 1` samples.
    fn output_clipped(&self, m: usize) -> f64 {
        let center = m * self.factor + self.delay;
        let mut acc = 0.0;
        for (k, &hk) in self.h.iter().enumerate() {
            if let Some(idx) = center.checked_sub(k) {
                if idx < self.n_in {
                    acc += hk * self.buf[idx - self.base];
                }
            }
        }
        acc
    }

    /// Appends the pending tail outputs (those [`decimate`] would produce
    /// past the last eagerly emitted sample if the input ended here). Does
    /// not consume state: call it repeatedly, or keep pushing afterwards.
    pub fn flush_into(&self, out: &mut Vec<f64>) {
        if self.factor == 1 {
            return;
        }
        let total = self.n_in.div_ceil(self.factor);
        for m in self.n_out..total {
            out.push(self.output_clipped(m));
        }
    }

    /// Zeroes the stream state: a reset decimator is bit-identical to a
    /// freshly built one (pooled stream slots depend on this).
    pub fn reset(&mut self) {
        self.base = 0;
        self.len = 0;
        self.n_in = 0;
        self.n_out = 0;
    }

    /// Input samples consumed so far.
    pub fn samples_consumed(&self) -> usize {
        self.n_in
    }

    /// Output samples emitted by `push` so far (tail outputs from
    /// [`flush_into`](Self::flush_into) are not counted).
    pub fn emitted(&self) -> usize {
        self.n_out
    }
}

/// Downsamples 48 kHz audio to 16 kHz (the liveness-detector input rate).
///
/// # Errors
///
/// Propagates [`decimate`] errors (none in practice: the factor is fixed).
pub fn to_16k_from_48k(x: &[f64]) -> Result<Vec<f64>, DspError> {
    decimate(x, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{rms, tone};

    /// The original per-output decimation loop, kept as the bit-identity
    /// oracle for [`StreamDecimator`] and [`decimate`]: output `m` sums
    /// `h[k]·x[m·factor + delay − k]` in tap order over the taps that fall
    /// inside the input.
    fn decimate_oracle(x: &[f64], factor: usize) -> Vec<f64> {
        if factor == 1 {
            return x.to_vec();
        }
        let taps = 24 * factor + 1;
        let h = sinc_lowpass(taps, 0.45 / factor as f64, Window::Blackman);
        let delay = (taps - 1) / 2;
        (0..x.len().div_ceil(factor))
            .map(|m| {
                let center = m * factor + delay;
                let mut acc = 0.0;
                for (k, &hk) in h.iter().enumerate() {
                    let idx = center as isize - k as isize;
                    if idx >= 0 && (idx as usize) < x.len() {
                        acc += hk * x[idx as usize];
                    }
                }
                acc
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: sample {i}");
        }
    }

    #[test]
    fn output_length_is_ceil_division() {
        let x = vec![0.0; 10];
        assert_eq!(decimate(&x, 3).unwrap().len(), 4);
        assert_eq!(decimate(&x, 2).unwrap().len(), 5);
        assert_eq!(decimate(&x, 1).unwrap().len(), 10);
    }

    #[test]
    fn factor_zero_is_rejected() {
        assert!(decimate(&[1.0], 0).is_err());
    }

    #[test]
    fn passband_tone_survives_decimation() {
        // 1 kHz tone at 48 kHz -> 16 kHz: well inside the new Nyquist.
        let x = tone(1000.0, 48_000.0, 48_000, 1.0);
        let y = to_16k_from_48k(&x).unwrap();
        let mid = &y[2000..14_000];
        assert!((rms(mid) - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02);
    }

    #[test]
    fn aliasing_tone_is_suppressed() {
        // 10 kHz is above the 16 kHz-Nyquist of 8 kHz; it must not alias in.
        let x = tone(10_000.0, 48_000.0, 48_000, 1.0);
        let y = to_16k_from_48k(&x).unwrap();
        assert!(rms(&y[2000..14_000]) < 0.01);
    }

    #[test]
    fn decimated_tone_keeps_frequency() {
        let f = 440.0;
        let x = tone(f, 48_000.0, 48_000, 1.0);
        let y = to_16k_from_48k(&x).unwrap();
        let mag = crate::fft::rfft_magnitude(&y[..16_000]);
        let peak = crate::peak::argmax(&mag).unwrap();
        let bin_hz = 16_000.0 / crate::fft::next_pow2(16_000) as f64;
        assert!((peak as f64 * bin_hz - f).abs() < 2.0 * bin_hz);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(decimate(&[], 3).unwrap().is_empty());
    }

    /// Deterministic noise in [-1, 1) (xorshift; tests must not use wall
    /// clocks or OS entropy).
    fn noise(n: usize, mut seed: u64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn stream_decimator_matches_batch_for_any_chunking() {
        for factor in [2usize, 3, 4] {
            let mut cases = vec![
                (0usize, 1u64),
                (1, 2),
                (72, 3),
                (73, 4),
                (997, 5),
                (4800, 6),
            ];
            // 4·factor consecutive lengths: the eagerly emitted outputs
            // then end at every position inside a group of four.
            cases.extend((0..4 * factor).map(|j| (1000 + j, 7 + j as u64)));
            for (len, seed) in cases {
                let x = noise(len, seed ^ factor as u64);
                let want = decimate_oracle(&x, factor);
                let what = format!("factor {factor} len {len} batch");
                assert_bits_eq(&decimate(&x, factor).unwrap(), &want, &what);
                for chunk in [1usize, 3, 7, 64, 255, 256, 257, 480, 515, 5000] {
                    let mut dec = StreamDecimator::new(factor).unwrap();
                    let mut got = Vec::new();
                    for c in x.chunks(chunk) {
                        dec.push(c, &mut got);
                    }
                    dec.flush_into(&mut got);
                    let what = format!("factor {factor} len {len} chunk {chunk}");
                    assert_bits_eq(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn stream_decimator_flush_is_non_destructive() {
        let x = noise(1000, 9);
        let mut dec = StreamDecimator::new(3).unwrap();
        let mut live = Vec::new();
        dec.push(&x[..500], &mut live);

        // A mid-stream flush sees the capture "as if it ended here" ...
        let mut snap = live.clone();
        dec.flush_into(&mut snap);
        assert_bits_eq(&snap, &decimate_oracle(&x[..500], 3), "half");

        // ... and pushing may continue afterwards with full-stream parity.
        dec.push(&x[500..], &mut live);
        let mut full = live.clone();
        dec.flush_into(&mut full);
        assert_bits_eq(&full, &decimate_oracle(&x, 3), "full");
    }

    #[test]
    fn stream_decimator_factor_one_is_passthrough() {
        let x = noise(37, 11);
        let mut dec = StreamDecimator::new(1).unwrap();
        let mut got = Vec::new();
        dec.push(&x[..20], &mut got);
        dec.push(&x[20..], &mut got);
        dec.flush_into(&mut got);
        assert_eq!(got, x);
        assert!(StreamDecimator::new(0).is_err());
    }

    #[test]
    fn stream_decimator_reset_matches_fresh() {
        let x = noise(300, 21);
        let mut dec = StreamDecimator::new(3).unwrap();
        let mut first = Vec::new();
        dec.push(&noise(131, 22), &mut first);
        dec.reset();
        let mut got = Vec::new();
        dec.push(&x, &mut got);
        dec.flush_into(&mut got);
        assert_bits_eq(&got, &decimate_oracle(&x, 3), "after reset");
        assert_eq!(dec.samples_consumed(), 300);
        assert_eq!(dec.emitted(), 88); // floor((299 - 36) / 3) + 1
    }
}
