//! Fig. 6 — GCC-PHAT between a D3 microphone pair and the weighted SRP for
//! speakers at 0°, 90° and 180°: the smaller the facing angle, the higher
//! the SRP power.

use crate::context::Context;
use crate::report::ExperimentResult;
use headtalk::PipelineConfig;
use ht_acoustics::array::Device;
use ht_datagen::CaptureSpec;
use ht_dsp::correlate::gcc_phat;

/// Runs the experiment.
///
/// # Errors
///
/// Returns an error when the SRP peak does not decrease with angle.
pub fn run(_ctx: &Context) -> Result<ExperimentResult, String> {
    let cfg = PipelineConfig::for_device(Device::D3);
    let mut res = ExperimentResult::new(
        "fig6",
        "Fig. 6: pairwise GCC and weighted SRP at 0°/90°/180° (device D3)",
        "SRP peak power decreases as the facing angle grows; 0° peaks at small lag",
    );
    let angles = [0.0, 90.0, 180.0];
    let mut peaks = Vec::new();
    for (i, angle) in angles.into_iter().enumerate() {
        let spec = CaptureSpec {
            device: Device::D3,
            angle_deg: angle,
            seed: 0xF166 + i as u64,
            ..CaptureSpec::baseline(0)
        };
        let channels = spec.render().map_err(|e| e.to_string())?;
        let n = channels.len();
        let gccs = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| gcc_phat(&channels[i], &channels[j], cfg.max_lag))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        // The whole-capture SRP curve (Eq. 6): every pair's GCC summed in
        // pair order.
        let mut srp = vec![0.0; gccs[0].values.len()];
        for g in &gccs {
            for (s, v) in srp.iter_mut().zip(&g.values) {
                *s += v;
            }
        }
        let peak = ht_dsp::stats::max(&srp);
        let gcc01_peak = ht_dsp::stats::max(&gccs[0].values);
        let gcc01_lag = gccs[0].peak_lag();
        res.push_row(
            format!("{angle}°"),
            "higher SRP at smaller angles; 3–4 reverberation peaks",
            format!(
                "SRP peak {:.3}; GCC(Mic1,Mic2) peak {:.3} at lag {} samples; {} SRP local maxima",
                peak,
                gcc01_peak,
                gcc01_lag,
                ht_dsp::peak::local_maxima(&srp).len()
            ),
            Some(peak),
        );
        peaks.push(peak);
    }
    if !(peaks[0] > peaks[1] && peaks[1] > peaks[2]) {
        return Err(format!(
            "SRP ordering violated: 0° {:.3}, 90° {:.3}, 180° {:.3}",
            peaks[0], peaks[1], peaks[2]
        ));
    }
    res.note("Single captures at M3; the lag window is D3's ±10 samples (±0.2 ms).");
    // Margin to failure: the smallest relative gap between the peaks of
    // adjacent angles, measured against the lower peak.
    let (margin, k) = (0..2)
        .map(|k| (peaks[k] / peaks[k + 1] - 1.0, k))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("three angles give two gaps");
    res.note(format!(
        "Margin to failure: {:.1}% between the {}° and {}° SRP peaks ({:.3} vs {:.3}), \
         the smallest relative gap between adjacent angles.",
        100.0 * margin,
        angles[k],
        angles[k + 1],
        peaks[k],
        peaks[k + 1]
    ));
    Ok(res)
}
