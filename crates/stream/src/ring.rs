//! Multi-channel ring-buffered PCM ingest with fixed frame/hop geometry.
//!
//! A [`FrameRing`] accepts pushes of any size (hop-aligned or ragged) and
//! yields fixed-size overlapping analysis frames: a frame of `frame_len`
//! samples is ready whenever that many are buffered, and popping one
//! advances the read head by `hop`, keeping the `frame_len − hop` overlap
//! for the next frame. Capacity grows only when a producer outruns the
//! consumer; a drained ring fed hop-sized chunks never reallocates, which
//! is what makes the steady-state zero-allocation claim of the streaming
//! pipeline hold.

use crate::error::StreamError;

/// A fixed-geometry, multi-channel sample ring that frames its contents.
#[derive(Debug, Clone)]
pub struct FrameRing {
    channels: usize,
    frame_len: usize,
    hop: usize,
    /// Physical capacity per channel.
    cap: usize,
    /// Physical index of the oldest buffered sample.
    head: usize,
    /// Buffered samples per channel.
    len: usize,
    /// One circular buffer per channel, all sharing `head`/`len`.
    bufs: Vec<Vec<f64>>,
    pushed: u64,
    popped: u64,
}

impl FrameRing {
    /// Builds a ring for `channels` channels with `frame_len`-sample frames
    /// advancing by `hop`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::BadGeometry`] when any dimension is zero or
    /// `hop > frame_len` (gapped framing would silently drop samples).
    pub fn new(channels: usize, frame_len: usize, hop: usize) -> Result<FrameRing, StreamError> {
        FrameRing::with_capacity(channels, frame_len, hop, 0)
    }

    /// Like [`new`](FrameRing::new), but preallocates at least
    /// `min_capacity` samples per channel so bursty producers don't trigger
    /// ring growth mid-stream.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::BadGeometry`] as for [`new`](FrameRing::new).
    pub fn with_capacity(
        channels: usize,
        frame_len: usize,
        hop: usize,
        min_capacity: usize,
    ) -> Result<FrameRing, StreamError> {
        if channels == 0 {
            return Err(StreamError::BadGeometry(
                "ring needs at least one channel".into(),
            ));
        }
        if frame_len == 0 || hop == 0 {
            return Err(StreamError::BadGeometry(
                "frame length and hop must be positive".into(),
            ));
        }
        if hop > frame_len {
            return Err(StreamError::BadGeometry(format!(
                "hop {hop} exceeds frame length {frame_len}: frames would skip samples"
            )));
        }
        // Headroom for one full frame plus one hop-sized push keeps the
        // drained steady state allocation-free.
        let cap = (frame_len + hop).max(min_capacity).next_power_of_two();
        Ok(FrameRing {
            channels,
            frame_len,
            hop,
            cap,
            head: 0,
            len: 0,
            bufs: vec![vec![0.0; cap]; channels],
            pushed: 0,
            popped: 0,
        })
    }

    /// Appends one chunk (any length, including empty) to every channel.
    /// Returns the number of frames now ready to pop.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::ChannelCountChanged`] when the chunk's channel
    /// count differs from the ring's, [`StreamError::RaggedChunk`] when the
    /// chunk's channels have unequal lengths, and
    /// [`StreamError::NonFinite`] for the first NaN or infinite sample. In
    /// every case the ring is left untouched.
    pub fn push(&mut self, chunk: &[&[f64]]) -> Result<usize, StreamError> {
        if chunk.len() != self.channels {
            return Err(StreamError::ChannelCountChanged {
                expected: self.channels,
                got: chunk.len(),
            });
        }
        let add = chunk[0].len();
        for c in chunk {
            if c.len() != add {
                return Err(StreamError::RaggedChunk {
                    first: add,
                    other: c.len(),
                });
            }
        }
        for (channel, c) in chunk.iter().enumerate() {
            if !all_finite(c) {
                let index = c
                    .iter()
                    .position(|v| !v.is_finite())
                    .expect("all_finite found a non-finite sample");
                return Err(StreamError::NonFinite { channel, index });
            }
        }
        if add == 0 {
            return Ok(self.ready_frames());
        }
        if self.len + add > self.cap {
            self.grow(self.len + add);
        }
        let write = (self.head + self.len) % self.cap;
        let first = (self.cap - write).min(add);
        for (buf, c) in self.bufs.iter_mut().zip(chunk) {
            buf[write..write + first].copy_from_slice(&c[..first]);
            buf[..add - first].copy_from_slice(&c[first..]);
        }
        self.len += add;
        self.pushed += add as u64;
        Ok(self.ready_frames())
    }

    /// Copies the oldest complete frame into `out` (one `frame_len`-sample
    /// buffer per channel) and advances the read head by `hop`. Returns
    /// `false`, leaving `out` untouched, when fewer than `frame_len` samples
    /// are buffered.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have exactly `channels` buffers of
    /// `frame_len` samples.
    pub fn pop_frame_into(&mut self, out: &mut [Vec<f64>]) -> bool {
        assert_eq!(out.len(), self.channels, "output channel count");
        if self.len < self.frame_len {
            return false;
        }
        let first = (self.cap - self.head).min(self.frame_len);
        for (dst, buf) in out.iter_mut().zip(&self.bufs) {
            assert_eq!(dst.len(), self.frame_len, "output frame length");
            dst[..first].copy_from_slice(&buf[self.head..self.head + first]);
            dst[first..].copy_from_slice(&buf[..self.frame_len - first]);
        }
        self.head = (self.head + self.hop) % self.cap;
        self.len -= self.hop;
        self.popped += 1;
        true
    }

    /// Number of complete frames currently poppable.
    pub fn ready_frames(&self) -> usize {
        if self.len < self.frame_len {
            0
        } else {
            1 + (self.len - self.frame_len) / self.hop
        }
    }

    /// Buffered samples per channel (includes the overlap carried between
    /// frames).
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Total samples pushed per channel over the ring's lifetime.
    pub fn samples_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total frames popped over the ring's lifetime.
    pub fn frames_popped(&self) -> u64 {
        self.popped
    }

    /// The configured channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The configured frame length in samples.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// The configured hop in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Current physical capacity per channel (grows only when a producer
    /// outruns the consumer).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Empties the ring and zeroes its lifetime statistics while keeping
    /// every buffer at its current capacity, so a pooled ring can serve a
    /// new stream without touching the heap (multi-tenant slot reuse).
    pub fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
        self.pushed = 0;
        self.popped = 0;
    }

    /// Reallocates to hold at least `need` samples, unwrapping the ring
    /// into logical order.
    fn grow(&mut self, need: usize) {
        let cap = need.next_power_of_two().max(self.cap * 2);
        for buf in &mut self.bufs {
            let mut next = vec![0.0; cap];
            let first = (self.cap - self.head).min(self.len);
            next[..first].copy_from_slice(&buf[self.head..self.head + first]);
            next[first..self.len].copy_from_slice(&buf[..self.len - first]);
            *buf = next;
        }
        self.head = 0;
        self.cap = cap;
    }
}

/// `true` when no sample is NaN or infinite. Checks eight samples per step
/// without an early exit, so the clean path vectorizes instead of
/// branching on every sample.
fn all_finite(x: &[f64]) -> bool {
    let chunks = x.chunks_exact(8);
    let tail = chunks.remainder().iter().all(|v| v.is_finite());
    chunks.fold(tail, |ok, c| {
        ok & c.iter().fold(true, |m, v| m & v.is_finite())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, offset: f64) -> Vec<f64> {
        (0..n).map(|i| i as f64 + offset).collect()
    }

    /// Reference framing: the first `k` complete frames of
    /// `ht_dsp::stft::frames` (which zero-pads a final partial frame the
    /// ring intentionally withholds until enough samples arrive).
    fn reference_frames(x: &[f64], frame_len: usize, hop: usize) -> Vec<Vec<f64>> {
        let complete = if x.len() < frame_len {
            0
        } else {
            1 + (x.len() - frame_len) / hop
        };
        ht_dsp::stft::frames(x, frame_len, hop)
            .into_iter()
            .take(complete)
            .collect()
    }

    fn drain(ring: &mut FrameRing) -> Vec<Vec<Vec<f64>>> {
        let mut out = Vec::new();
        let mut frame = vec![vec![0.0; ring.frame_len()]; ring.channels()];
        while ring.pop_frame_into(&mut frame) {
            out.push(frame.clone());
        }
        out
    }

    #[test]
    fn hop_aligned_pushes_match_batch_framing() {
        let (frame_len, hop) = (8, 4);
        let x = ramp(37, 0.0);
        let y = ramp(37, 100.0);
        let mut ring = FrameRing::new(2, frame_len, hop).unwrap();
        let mut got = Vec::new();
        let mut frame = vec![vec![0.0; frame_len]; 2];
        for start in (0..x.len()).step_by(hop) {
            let end = (start + hop).min(x.len());
            ring.push(&[&x[start..end], &y[start..end]]).unwrap();
            while ring.pop_frame_into(&mut frame) {
                got.push(frame.clone());
            }
        }
        let expect_x = reference_frames(&x, frame_len, hop);
        assert_eq!(got.len(), expect_x.len());
        for (g, e) in got.iter().zip(&expect_x) {
            assert_eq!(g[0], *e);
        }
        let expect_y = reference_frames(&y, frame_len, hop);
        for (g, e) in got.iter().zip(&expect_y) {
            assert_eq!(g[1], *e);
        }
    }

    #[test]
    fn ragged_pushes_yield_identical_frames() {
        let (frame_len, hop) = (16, 8);
        let x = ramp(301, 0.5);
        let mut one_shot = FrameRing::new(1, frame_len, hop).unwrap();
        one_shot.push(&[&x]).unwrap();
        let expect = drain(&mut one_shot);

        // Prime-sized pushes exercise every wraparound alignment.
        let mut ragged = FrameRing::new(1, frame_len, hop).unwrap();
        let mut got = Vec::new();
        let mut frame = vec![vec![0.0; frame_len]];
        for chunk in x.chunks(7) {
            ragged.push(&[chunk]).unwrap();
            while ragged.pop_frame_into(&mut frame) {
                got.push(frame.clone());
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn overlap_is_carried_between_frames() {
        let mut ring = FrameRing::new(1, 6, 2).unwrap();
        let x = ramp(10, 0.0);
        ring.push(&[&x]).unwrap();
        assert_eq!(ring.ready_frames(), 3);
        let mut frame = vec![vec![0.0; 6]];
        assert!(ring.pop_frame_into(&mut frame));
        assert_eq!(frame[0], ramp(6, 0.0));
        assert!(ring.pop_frame_into(&mut frame));
        assert_eq!(frame[0], vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn steady_state_drained_ring_never_grows() {
        let (frame_len, hop) = (960, 480);
        let mut ring = FrameRing::new(4, frame_len, hop).unwrap();
        let cap = ring.capacity();
        let chunk = vec![0.25; hop];
        let refs: Vec<&[f64]> = (0..4).map(|_| chunk.as_slice()).collect();
        let mut frame = vec![vec![0.0; frame_len]; 4];
        for _ in 0..1000 {
            ring.push(&refs).unwrap();
            while ring.pop_frame_into(&mut frame) {}
        }
        assert_eq!(
            ring.capacity(),
            cap,
            "drained hop-sized pushes must not grow the ring"
        );
        assert_eq!(ring.frames_popped(), 999);
    }

    #[test]
    fn burst_grows_then_yields_correct_frames() {
        let mut ring = FrameRing::new(1, 8, 8).unwrap();
        let small_cap = ring.capacity();
        let x = ramp(1000, 0.0);
        // Fill partway, then burst past capacity without draining.
        ring.push(&[&x[..5]]).unwrap();
        ring.push(&[&x[5..640]]).unwrap();
        assert!(ring.capacity() > small_cap);
        ring.push(&[&x[640..]]).unwrap();
        let frames = drain(&mut ring);
        assert_eq!(frames.len(), 125);
        for (t, f) in frames.iter().enumerate() {
            assert_eq!(f[0], ramp(8, (t * 8) as f64), "frame {t}");
        }
    }

    #[test]
    fn geometry_errors() {
        assert!(matches!(
            FrameRing::new(0, 8, 4),
            Err(StreamError::BadGeometry(_))
        ));
        assert!(matches!(
            FrameRing::new(1, 0, 1),
            Err(StreamError::BadGeometry(_))
        ));
        assert!(matches!(
            FrameRing::new(1, 4, 0),
            Err(StreamError::BadGeometry(_))
        ));
        assert!(matches!(
            FrameRing::new(1, 4, 5),
            Err(StreamError::BadGeometry(_))
        ));
    }

    #[test]
    fn push_errors_leave_the_ring_untouched() {
        let mut ring = FrameRing::new(2, 8, 4).unwrap();
        let a = ramp(4, 0.0);
        ring.push(&[&a, &a]).unwrap();
        let before = ring.pending();

        let err = ring.push(&[&a]).unwrap_err();
        assert_eq!(
            err,
            StreamError::ChannelCountChanged {
                expected: 2,
                got: 1
            }
        );
        let b = ramp(3, 0.0);
        let err = ring.push(&[&a, &b]).unwrap_err();
        assert_eq!(err, StreamError::RaggedChunk { first: 4, other: 3 });
        // Short chunks hit the scan's tail, long ones its eight-wide steps.
        for (len, index) in [(4, 2), (20, 13)] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let clean = ramp(len, 0.0);
                let mut c = clean.clone();
                c[index] = bad;
                let err = ring.push(&[&clean, &c]).unwrap_err();
                assert_eq!(err, StreamError::NonFinite { channel: 1, index });
            }
        }

        assert_eq!(ring.pending(), before);
        assert_eq!(ring.samples_pushed(), 4);
        // The ring still works after rejected pushes.
        ring.push(&[&a, &a]).unwrap();
        assert_eq!(ring.ready_frames(), 1);
    }

    #[test]
    fn empty_chunks_are_a_no_op() {
        let mut ring = FrameRing::new(1, 4, 2).unwrap();
        assert_eq!(ring.push(&[&[]]).unwrap(), 0);
        assert_eq!(ring.pending(), 0);
        assert_eq!(ring.samples_pushed(), 0);
    }

    #[test]
    fn with_capacity_preallocates() {
        let ring = FrameRing::with_capacity(1, 8, 4, 10_000).unwrap();
        assert!(ring.capacity() >= 10_000);
    }

    #[test]
    fn reset_reuses_capacity_and_yields_identical_frames() {
        let (frame_len, hop) = (16, 8);
        let x = ramp(301, 0.5);
        let mut ring = FrameRing::new(1, frame_len, hop).unwrap();
        ring.push(&[&x]).unwrap();
        let cap_after_growth = ring.capacity();
        let first = drain(&mut ring);

        ring.reset();
        assert_eq!(ring.pending(), 0);
        assert_eq!(ring.samples_pushed(), 0);
        assert_eq!(ring.frames_popped(), 0);
        assert_eq!(ring.capacity(), cap_after_growth, "reset must keep buffers");
        ring.push(&[&x]).unwrap();
        assert_eq!(drain(&mut ring), first, "a reset ring frames identically");
        assert_eq!(ring.capacity(), cap_after_growth);
    }
}
