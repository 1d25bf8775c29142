//! Host-speed calibration. On a shared machine the same code runs up to
//! ~1.5× slower for minutes at a time while neighbouring tenants load the
//! caches and memory bus, so a raw time compared between two runs measures
//! the host as much as the program. A fixed job that uses none of the
//! program's code, a stream over a buffer larger than a core's L2, runs on
//! both CPUs between the measured units of a run. Every timing the run
//! reports is scaled by [`REF_S`] ÷ the median of the job's CPU times: the
//! value it would have had on the reference host. The job never changes, so
//! a change to the program moves the scaled values exactly as it moves the
//! raw ones.
//!
//! On the reference host the job's time tracks the program's at the scale
//! of a run: over 8 minutes of batch passes, the 10-second medians of the
//! two correlated at 0.89, and dividing one by the other cut their spread
//! from 0.115 to 0.04 (quartile distance over the median). Single samples
//! are too noisy to scale single units, so only the run's median is used.

use crate::sys::{median, thread_cpu_s};

/// The job's CPU time (both threads) on the reference host, a shared 2-vCPU
/// `Intel(R) Xeon(R) Processor` VM at 2.1 GHz, rounded: its run medians
/// there lay between 0.061 and 0.080 s.
pub const REF_S: f64 = 0.07;

/// Streamed buffer: 16 MiB, shared by both threads, beyond the 2 MiB L2 of
/// a core and so served by the cache and memory the host's tenants share.
const STREAM_LEN: usize = 2 << 20;
/// Passes over the buffer per thread: ~35 ms on the reference host.
const STREAM_PASSES: usize = 16;

/// The calibration job and every sample it has taken.
pub struct Calibrator {
    stream: Vec<f64>,
    /// CPU seconds of each sample, in order.
    pub samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            stream: (0..STREAM_LEN).map(|i| (i % 97) as f64).collect(),
            samples: Vec::new(),
        }
    }

    /// Runs the job once on two threads and records its CPU seconds,
    /// summed over both threads (time a thread waits for a CPU does not
    /// count).
    pub fn sample(&mut self) {
        let stream = &self.stream;
        let cpu: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(move || {
                        let t0 = thread_cpu_s();
                        std::hint::black_box(job(stream));
                        thread_cpu_s() - t0
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread"))
                .sum()
        });
        self.samples.push(cpu);
    }

    /// The factor that scales a time measured in this run to the
    /// reference host.
    pub fn scale(&self) -> f64 {
        REF_S / median(&self.samples)
    }
}

fn job(stream: &[f64]) -> f64 {
    (0..STREAM_PASSES)
        .map(|pass| {
            stream
                .iter()
                .enumerate()
                .map(|(i, v)| v * ((i + pass) & 7) as f64)
                .sum::<f64>()
        })
        .sum()
}
