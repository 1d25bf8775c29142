//! Spectral analysis: band energies and the paper's speech directivity
//! features (high/low band ratio and low-band chunk statistics, §III-B3).

use crate::error::DspError;
use crate::fft;

/// A one-sided magnitude spectrum with its frequency axis metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Magnitudes `|X[k]|` for bins `0 ..= n_fft/2`, or for a leading run
    /// of them when the producer says so: the directivity accumulator keeps
    /// only the [`directivity_bins`] its features read. The band helpers
    /// clamp to the bins held.
    pub magnitudes: Vec<f64>,
    /// Sample rate of the analyzed signal in Hz.
    pub sample_rate: f64,
    /// FFT length used for the analysis.
    pub n_fft: usize,
}

impl Spectrum {
    /// Computes the one-sided magnitude spectrum of `x` (zero-padded to the
    /// next power of two).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] for an empty signal and
    /// [`DspError::InvalidParameter`] for a non-positive sample rate.
    pub fn of(x: &[f64], sample_rate: f64) -> Result<Spectrum, DspError> {
        if x.is_empty() {
            return Err(DspError::length("x", "must be non-empty"));
        }
        if sample_rate <= 0.0 || sample_rate.is_nan() {
            return Err(DspError::param("sample_rate", "must be positive"));
        }
        let n_fft = fft::next_pow2(x.len());
        Ok(Spectrum {
            magnitudes: fft::rfft_magnitude(x),
            sample_rate,
            n_fft,
        })
    }

    /// Frequency (Hz) of bin `k`.
    pub fn bin_to_hz(&self, k: usize) -> f64 {
        k as f64 * self.sample_rate / self.n_fft as f64
    }

    /// Bin index closest to frequency `hz` (clamped to the bins held).
    pub fn hz_to_bin(&self, hz: f64) -> usize {
        nearest_bin(hz, self.n_fft, self.sample_rate).min(self.magnitudes.len() - 1)
    }

    /// The slice of magnitudes spanning `[lo_hz, hi_hz)`, except that an
    /// upper edge at or above Nyquist includes the Nyquist bin — a band
    /// "up to sr/2" means the whole remaining spectrum, and there is no
    /// higher band for the edge to be exclusive against. (This used to
    /// silently drop the top bin for any `hi_hz >= sr/2`.)
    pub fn band(&self, lo_hz: f64, hi_hz: f64) -> &[f64] {
        let lo = self.hz_to_bin(lo_hz);
        let hi = if hi_hz >= self.sample_rate / 2.0 {
            self.magnitudes.len()
        } else {
            self.hz_to_bin(hi_hz)
        };
        &self.magnitudes[lo..hi.max(lo)]
    }

    /// Mean magnitude over `[lo_hz, hi_hz)` (0 if the band is empty).
    pub fn band_mean(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        crate::stats::mean(self.band(lo_hz, hi_hz))
    }

    /// Energy (sum of squared magnitudes) over `[lo_hz, hi_hz)`.
    pub fn band_energy(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        self.band(lo_hz, hi_hz).iter().map(|m| m * m).sum()
    }

    /// Magnitudes normalized to a unit maximum (as plotted in Fig. 3/5 of
    /// the paper). A silent spectrum stays zero.
    pub fn normalized(&self) -> Vec<f64> {
        let m = crate::stats::max(&self.magnitudes).max(0.0);
        if m == 0.0 {
            return self.magnitudes.clone();
        }
        self.magnitudes.iter().map(|v| v / m).collect()
    }
}

/// The bin nearest `hz` on an `n_fft`-point grid at `sample_rate`,
/// unclamped: the rounding behind [`Spectrum::hz_to_bin`].
fn nearest_bin(hz: f64, n_fft: usize, sample_rate: f64) -> usize {
    (hz * n_fft as f64 / sample_rate).round() as usize
}

/// The paper's low band for speech directivity analysis: 100–400 Hz.
pub const LOW_BAND_HZ: (f64, f64) = (100.0, 400.0);
/// The paper's high band for speech directivity analysis: 500–4000 Hz.
pub const HIGH_BAND_HZ: (f64, f64) = (500.0, 4000.0);

/// How many leading one-sided bins of an `n_fft`-point spectrum at
/// `sample_rate` the directivity features need: through the bin nearest
/// the top of [`HIGH_BAND_HZ`], capped at the whole one-sided spectrum
/// (`n_fft/2 + 1`). [`hlbr`] and [`push_low_band_chunk_stats`] read no
/// later bin, so they give the same bits on this prefix as on the full
/// spectrum.
///
/// The bin nearest 4 kHz itself is kept although the high band excludes
/// it: [`Spectrum::hz_to_bin`] clamps to the last bin held, so a prefix
/// one bin shorter would pull the band's upper edge down a bin. At or
/// below 8 kHz the band reaches Nyquist, and the whole spectrum is kept.
pub fn directivity_bins(n_fft: usize, sample_rate: f64) -> usize {
    (nearest_bin(HIGH_BAND_HZ.1, n_fft, sample_rate) + 1).min(n_fft / 2 + 1)
}

/// High/low band ratio (HLBR): mean magnitude of the 500–4000 Hz band over
/// the mean magnitude of the 100–400 Hz band (§III-B3). Returns 0 when the
/// low band is silent. Reads no bin past [`directivity_bins`].
pub fn hlbr(spectrum: &Spectrum) -> f64 {
    let low = spectrum.band_mean(LOW_BAND_HZ.0, LOW_BAND_HZ.1);
    let high = spectrum.band_mean(HIGH_BAND_HZ.0, HIGH_BAND_HZ.1);
    if low <= 0.0 {
        0.0
    } else {
        high / low
    }
}

/// Per-chunk statistics of the low band, divided into `chunks` equal
/// frequency sub-bands: `(mean, rms, std_dev)` for each chunk (§III-B3 uses
/// 20 chunks).
pub fn low_band_chunk_stats(spectrum: &Spectrum, chunks: usize) -> Vec<(f64, f64, f64)> {
    assert!(chunks >= 1, "need at least one chunk");
    let (lo, hi) = LOW_BAND_HZ;
    let step = (hi - lo) / chunks as f64;
    (0..chunks)
        .map(|c| {
            let b = spectrum.band(lo + c as f64 * step, lo + (c + 1) as f64 * step);
            (
                crate::stats::mean(b),
                crate::stats::rms(b),
                crate::stats::std_dev(b),
            )
        })
        .collect()
}

/// Allocation-free flattening of [`low_band_chunk_stats`]: appends
/// `(mean, rms, std_dev)` per chunk, in chunk order, to `out`. Bit-identical
/// to the tupled helper; used on the streaming finalize path where the
/// feature vector is assembled into a reused scratch buffer. Reads no bin
/// past [`directivity_bins`].
pub fn push_low_band_chunk_stats(spectrum: &Spectrum, chunks: usize, out: &mut Vec<f64>) {
    assert!(chunks >= 1, "need at least one chunk");
    let (lo, hi) = LOW_BAND_HZ;
    let step = (hi - lo) / chunks as f64;
    for c in 0..chunks {
        let b = spectrum.band(lo + c as f64 * step, lo + (c + 1) as f64 * step);
        out.push(crate::stats::mean(b));
        out.push(crate::stats::rms(b));
        out.push(crate::stats::std_dev(b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::tone;

    const FS: f64 = 48_000.0;

    #[test]
    fn bin_frequency_round_trip() {
        let x = tone(1000.0, FS, 4096, 1.0);
        let s = Spectrum::of(&x, FS).unwrap();
        let k = s.hz_to_bin(1000.0);
        assert!((s.bin_to_hz(k) - 1000.0).abs() < FS / 4096.0);
    }

    #[test]
    fn tone_energy_lands_in_its_band() {
        let x = tone(1000.0, FS, 8192, 1.0);
        let s = Spectrum::of(&x, FS).unwrap();
        assert!(s.band_energy(900.0, 1100.0) > 100.0 * s.band_energy(2000.0, 3000.0));
    }

    #[test]
    fn hlbr_distinguishes_bright_from_dull() {
        // Equal-amplitude components in low and high bands -> HLBR ~ band
        // width effects aside, removing the high tone drops HLBR sharply.
        let mut bright = tone(250.0, FS, 8192, 1.0);
        let high = tone(2000.0, FS, 8192, 1.0);
        for (b, h) in bright.iter_mut().zip(high.iter()) {
            *b += h;
        }
        let dull = tone(250.0, FS, 8192, 1.0);
        let hb = hlbr(&Spectrum::of(&bright, FS).unwrap());
        let hd = hlbr(&Spectrum::of(&dull, FS).unwrap());
        assert!(hb > 5.0 * hd, "bright {hb} vs dull {hd}");
    }

    #[test]
    fn hlbr_of_silence_is_zero() {
        let s = Spectrum::of(&[0.0; 1024], FS).unwrap();
        assert_eq!(hlbr(&s), 0.0);
    }

    #[test]
    fn chunk_stats_have_requested_layout() {
        let x = tone(250.0, FS, 8192, 1.0);
        let s = Spectrum::of(&x, FS).unwrap();
        let stats = low_band_chunk_stats(&s, 20);
        assert_eq!(stats.len(), 20);
        // The 250 Hz tone falls in chunk 10 of [100, 400) split into 20.
        let loudest = stats
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .unwrap()
            .0;
        assert_eq!(loudest, 10);
    }

    #[test]
    fn push_chunk_stats_matches_tupled_helper() {
        let x = tone(250.0, FS, 8192, 1.0);
        let s = Spectrum::of(&x, FS).unwrap();
        for chunks in [1usize, 3, 20] {
            let want = low_band_chunk_stats(&s, chunks);
            let mut got = vec![f64::NAN]; // existing prefix must survive
            push_low_band_chunk_stats(&s, chunks, &mut got);
            assert_eq!(got.len(), 1 + 3 * chunks);
            for (c, (m, r, sd)) in want.iter().enumerate() {
                assert_eq!(got[1 + 3 * c].to_bits(), m.to_bits());
                assert_eq!(got[2 + 3 * c].to_bits(), r.to_bits());
                assert_eq!(got[3 + 3 * c].to_bits(), sd.to_bits());
            }
        }
    }

    #[test]
    fn normalized_peak_is_one() {
        let x = tone(500.0, FS, 2048, 3.0);
        let s = Spectrum::of(&x, FS).unwrap();
        let n = s.normalized();
        assert!((crate::stats::max(&n) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_signal_is_rejected() {
        assert!(Spectrum::of(&[], FS).is_err());
        assert!(Spectrum::of(&[1.0], 0.0).is_err());
    }

    #[test]
    fn band_ending_at_nyquist_includes_nyquist_bin() {
        // An alternating ±1 signal has all its energy in the Nyquist bin,
        // so any band that claims to reach sr/2 must see it.
        let x: Vec<f64> = (0..1024)
            .map(|k| if k % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let s = Spectrum::of(&x, FS).unwrap();
        let nyq = FS / 2.0;
        // Ending exactly at Nyquist: covers the full one-sided spectrum.
        assert_eq!(s.band(0.0, nyq).len(), s.magnitudes.len());
        assert!(s.band_energy(nyq * 0.9, nyq) > 1e5);
        // Ending above Nyquist behaves the same (no bins exist up there).
        assert_eq!(s.band(0.0, FS).len(), s.magnitudes.len());
        assert!(s.band_energy(nyq * 0.9, nyq * 1.5) > 1e5);
        // A band straddling Nyquist from just below it still ends at (and
        // includes) the top bin.
        let straddle = s.band(nyq - 3.0 * FS / 1024.0, nyq + 100.0);
        assert_eq!(straddle.last(), s.magnitudes.last());
    }

    #[test]
    fn directivity_bins_end_one_past_the_4khz_bin() {
        // 4000 · 32768 / 48000 = 2730.67 → bin 2731, kept with 2731 before it.
        assert_eq!(directivity_bins(32_768, FS), 2732);
        assert_eq!(directivity_bins(4096, FS), 342);
        // At or below 8 kHz the high band reaches Nyquist: keep everything.
        assert_eq!(directivity_bins(4096, 8000.0), 2049);
        assert_eq!(directivity_bins(4096, 6000.0), 2049);
        assert_eq!(directivity_bins(1, FS), 1);
    }

    #[test]
    fn directivity_features_read_only_the_directivity_bins() {
        // On random magnitudes, the features of the `directivity_bins`
        // prefix must equal the full spectrum's bit for bit, on every grid
        // from 2^8 to 2^16 at every tested rate.
        crate::check::property("directivity_features_read_only_the_directivity_bins")
            .cases(6)
            .run(|g| {
                for n_fft in (8..=16).map(|e| 1usize << e) {
                    for sample_rate in [8000.0, 16_000.0, 22_050.0, 44_100.0, 48_000.0, 96_000.0] {
                        let full = Spectrum {
                            magnitudes: g.vec_f64(0.0..1.0, n_fft / 2 + 1..n_fft / 2 + 2),
                            sample_rate,
                            n_fft,
                        };
                        let kept = directivity_bins(n_fft, sample_rate);
                        let prefix = Spectrum {
                            magnitudes: full.magnitudes[..kept].to_vec(),
                            ..full.clone()
                        };
                        let at = format!("n_fft {n_fft} at {sample_rate} Hz");
                        assert_eq!(hlbr(&prefix).to_bits(), hlbr(&full).to_bits(), "{at}");
                        let (mut want, mut got) = (Vec::new(), Vec::new());
                        push_low_band_chunk_stats(&full, 20, &mut want);
                        push_low_band_chunk_stats(&prefix, 20, &mut got);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{at}");
                    }
                }
            });
    }

    #[test]
    fn band_below_nyquist_keeps_exclusive_upper_edge() {
        let x = tone(1000.0, FS, 4096, 1.0);
        let s = Spectrum::of(&x, FS).unwrap();
        // [lo, hi) below Nyquist: the bin at hi itself is excluded.
        let lo = s.hz_to_bin(500.0);
        let hi = s.hz_to_bin(2000.0);
        assert_eq!(s.band(500.0, 2000.0).len(), hi - lo);
    }
}
