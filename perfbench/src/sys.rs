//! Process-level measurements (CPU time, peak RSS, machine identity) and
//! the small statistics helpers every workload shares.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's clock ids for the CPU time of every thread of the calling
/// process, and of the calling thread alone.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// User + system CPU seconds consumed so far by every thread of this
/// process, at the scheduler's nanosecond resolution (`/proc/self/stat`
/// only has 10 ms ticks, too coarse for one closed-loop call).
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed so far by the calling thread.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size (VmHWM) in MiB since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").expect("VmHWM in /proc/self/status") / 1024.0
}

/// Resets VmHWM to the current RSS, so a later [`peak_rss_mb`] excludes
/// whatever came before (input generation). Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Online CPUs as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall and CPU time across one measured phase.
pub struct Phase {
    wall: Instant,
    cpu_s: f64,
}

impl Phase {
    pub fn start() -> Phase {
        Phase {
            cpu_s: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, process CPU seconds)` since [`Phase::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, process_cpu_s() - self.cpu_s)
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}
/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// FNV-1a over little-endian `u64` words — the same fingerprint
/// `ht_serve::run_load` folds its `LoadReport::checksum` with, so the
/// benchmark can predict that checksum from solo results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One multiply per word instead of per byte: a cheaper fingerprint for
    /// the tens of millions of input samples.
    pub fn mix_word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
