//! Per-shard session-slot arenas.
//!
//! A shard owns a small pool of reusable session slots. Each slot is a
//! fully assembled [`WakeStream`] from [`HeadTalk::streamer`] — ring, STFT
//! plan + scratch, spectral, directivity and liveness accumulators — built
//! at most once and **reset, never dropped** between sessions, so
//! steady-state serving touches the heap only when a capture outgrows
//! every capture a slot has seen before. (The FFT plans
//! behind every slot come from `ht_dsp`'s shared size-keyed plan cache, so
//! even first-time slot construction reuses twiddle tables across the
//! whole process.)
//!
//! The arena tracks two monotone high-water marks that the eviction
//! regression tests pin flat:
//!
//! * `live_hwm` — most slots simultaneously in flight,
//! * `built` — total slots ever constructed (i.e. allocation events).
//!
//! A failed or evicted session that *leaked* its slot would show up as a
//! rising `live_hwm`; a release path that dropped the slot instead of
//! resetting it would show up as a rising `built`.

use headtalk::{HeadTalk, HeadTalkError, WakeStream};

/// A pool of reusable [`WakeStream`] slots for one shard.
#[derive(Debug)]
pub struct ShardArena<'ht> {
    ht: &'ht HeadTalk,
    n_channels: usize,
    capacity: usize,
    /// Constructed slots; `slots[i]` may be in flight or free.
    slots: Vec<WakeStream<'ht>>,
    /// Indices into `slots` that are free, in LIFO order (reuse the most
    /// recently warmed slot first — its buffers are hottest).
    free: Vec<usize>,
    live: usize,
    live_hwm: usize,
    built: usize,
}

impl<'ht> ShardArena<'ht> {
    /// An empty arena that will build at most `capacity` slots lazily.
    pub fn new(ht: &'ht HeadTalk, n_channels: usize, capacity: usize) -> ShardArena<'ht> {
        ShardArena {
            ht,
            n_channels,
            capacity,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            live_hwm: 0,
            built: 0,
        }
    }

    /// Acquires a slot: pops a warmed free slot or lazily builds a new one
    /// while under capacity. Returns the slot index, or `None` when every
    /// slot is in flight (the caller maps this to
    /// [`RejectReason::ShardFull`](crate::RejectReason::ShardFull)).
    ///
    /// # Errors
    ///
    /// Propagates stream-construction errors (fewer than two channels,
    /// untrained feature width) from the first build of a slot.
    pub fn acquire(&mut self) -> Result<Option<usize>, HeadTalkError> {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                if self.slots.len() >= self.capacity {
                    return Ok(None);
                }
                let slot = self.ht.streamer(self.n_channels)?;
                self.slots.push(slot);
                self.built += 1;
                self.slots.len() - 1
            }
        };
        self.live += 1;
        self.live_hwm = self.live_hwm.max(self.live);
        Ok(Some(idx))
    }

    /// Releases a slot back to the pool, resetting it in place so the next
    /// acquisition starts from a clean stream without new allocations.
    ///
    /// # Panics
    ///
    /// Panics on a double release or an out-of-range index (both are
    /// serving-layer bugs, not client errors).
    pub fn release(&mut self, idx: usize) {
        assert!(idx < self.slots.len(), "release of unbuilt slot {idx}");
        assert!(
            !self.free.contains(&idx),
            "double release of slot {idx} (serving-layer bug)"
        );
        self.slots[idx].reset();
        self.free.push(idx);
        self.live -= 1;
    }

    /// Eagerly builds slots until `n` exist (bounded by the capacity), so
    /// the first `n` acquisitions skip construction entirely — the fix for
    /// lazy-construction tail latency on `open`. Returns the number of
    /// slots built by this call; already-built slots count toward `n` but
    /// are not rebuilt.
    ///
    /// # Errors
    ///
    /// Propagates stream-construction errors (fewer than two channels,
    /// untrained feature width) from the first failing build; earlier
    /// slots stay built and usable.
    pub fn prewarm(&mut self, n: usize) -> Result<usize, HeadTalkError> {
        let target = n.min(self.capacity);
        let mut built_now = 0;
        while self.slots.len() < target {
            let slot = self.ht.streamer(self.n_channels)?;
            self.slots.push(slot);
            self.free.push(self.slots.len() - 1);
            self.built += 1;
            built_now += 1;
        }
        Ok(built_now)
    }

    /// The slot at `idx` (must be acquired).
    pub fn slot_mut(&mut self, idx: usize) -> &mut WakeStream<'ht> {
        &mut self.slots[idx]
    }

    /// Immutable access to the slot at `idx`.
    pub fn slot(&self, idx: usize) -> &WakeStream<'ht> {
        &self.slots[idx]
    }

    /// Slots currently in flight.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Most slots simultaneously in flight over the arena's lifetime.
    pub fn live_hwm(&self) -> usize {
        self.live_hwm
    }

    /// Total slots ever constructed (each is one burst of allocations).
    pub fn built(&self) -> usize {
        self.built
    }

    /// The slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use headtalk::PipelineConfig;
    use ht_dsp::rng::{gaussian, SeedableRng, StdRng};
    use ht_ml::Dataset;

    fn toy_pipeline() -> HeadTalk {
        let config = PipelineConfig::default();
        let mut rng = StdRng::seed_from_u64(0xA7E4A);
        let width = headtalk::features::feature_width(4, &config);
        let mut orient = Dataset::new(width);
        for i in 0..12 {
            let offset = if i % 2 == 0 { 1.0 } else { -1.0 };
            let row: Vec<f64> = (0..width)
                .map(|_| offset + 0.3 * gaussian(&mut rng))
                .collect();
            orient.push(row, (i % 2 == 0) as usize).unwrap();
        }
        let orientation = headtalk::orientation::OrientationDetector::fit(
            &orient,
            headtalk::orientation::ModelKind::Knn,
            3,
        )
        .unwrap();
        let mut live = Dataset::new(config.liveness_input_len);
        for i in 0..8 {
            let offset = if i % 2 == 0 { 0.5 } else { -0.5 };
            let row: Vec<f64> = (0..config.liveness_input_len)
                .map(|_| offset + 0.1 * gaussian(&mut rng))
                .collect();
            live.push(row, (i % 2 == 0) as usize).unwrap();
        }
        let liveness = headtalk::liveness::LivenessDetector::fit(&live, 8, 2).unwrap();
        HeadTalk::new(config, liveness, orientation).unwrap()
    }

    #[test]
    fn acquire_release_recycles_one_slot() {
        let ht = toy_pipeline();
        let mut arena = ShardArena::new(&ht, 4, 4);
        for _ in 0..10 {
            let idx = arena.acquire().unwrap().expect("slot");
            arena.release(idx);
        }
        assert_eq!(arena.built(), 1, "one slot serves sequential sessions");
        assert_eq!(arena.live_hwm(), 1);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn capacity_bounds_in_flight_slots() {
        let ht = toy_pipeline();
        let mut arena = ShardArena::new(&ht, 4, 2);
        let a = arena.acquire().unwrap().expect("slot a");
        let b = arena.acquire().unwrap().expect("slot b");
        assert_eq!(arena.acquire().unwrap(), None, "third acquire must refuse");
        assert_eq!(arena.live(), 2);
        arena.release(a);
        let c = arena.acquire().unwrap().expect("slot after release");
        assert_eq!(c, a, "freed slot is reused");
        arena.release(b);
        arena.release(c);
        assert_eq!(arena.built(), 2);
        assert_eq!(arena.live_hwm(), 2);
    }

    #[test]
    fn prewarm_builds_eagerly_and_acquire_reuses() {
        let ht = toy_pipeline();
        let mut arena = ShardArena::new(&ht, 4, 3);
        assert_eq!(arena.prewarm(2).unwrap(), 2);
        assert_eq!(arena.built(), 2);
        // Prewarming past capacity clamps; re-prewarming builds nothing.
        assert_eq!(arena.prewarm(10).unwrap(), 1);
        assert_eq!(arena.built(), 3);
        assert_eq!(arena.prewarm(10).unwrap(), 0);
        // Every acquisition now reuses a prewarmed slot.
        let a = arena.acquire().unwrap().expect("slot");
        let b = arena.acquire().unwrap().expect("slot");
        let c = arena.acquire().unwrap().expect("slot");
        assert_eq!(arena.built(), 3, "no lazy construction after prewarm");
        assert_eq!(arena.acquire().unwrap(), None, "capacity still bounds");
        arena.release(a);
        arena.release(b);
        arena.release(c);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_a_loud_bug() {
        let ht = toy_pipeline();
        let mut arena = ShardArena::new(&ht, 4, 2);
        let a = arena.acquire().unwrap().expect("slot");
        arena.release(a);
        arena.release(a);
    }
}
