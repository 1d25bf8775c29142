//! A lightweight in-repo property-testing harness (the workspace's
//! dependency-free replacement for `proptest`).
//!
//! A property is a closure over a [`Gen`] of random inputs. The harness
//! runs it for a configurable number of cases, each with a deterministic
//! per-case seed derived from the property name, so failures are
//! reproducible:
//!
//! * on failure the panic message names the failing seed and the exact
//!   `HT_CHECK_SEED=…` incantation that replays only that case;
//! * `HT_CHECK_SEED=<seed>` (decimal or `0x…`) replays one case;
//! * `HT_CHECK_CASES=<n>` overrides the case count globally;
//! * seeds that once failed can be pinned with [`Property::regression`] so
//!   they run first on every future execution.
//!
//! It also holds the zero-allocation checks' one counting allocator,
//! [`CountingAlloc`], read through [`allocs_during`].
//!
//! # Example
//!
//! ```
//! use ht_dsp::check::property;
//!
//! property("reverse_is_involutive").cases(64).run(|g| {
//!     let xs = g.vec_f64(-1.0..1.0, 0..32);
//!     let mut twice = xs.clone();
//!     twice.reverse();
//!     twice.reverse();
//!     assert_eq!(xs, twice);
//! });
//! ```

use crate::rng::{Rng, SampleRange, SeedableRng, SliceRandom, StdRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Default number of random cases per property.
const DEFAULT_CASES: usize = 48;

/// A deterministic input generator handed to each property case.
pub struct Gen {
    rng: StdRng,
    seed: u64,
}

impl Gen {
    /// A generator for the given case seed.
    pub fn new(seed: u64) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The case seed (for labeling artifacts derived from this case).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Direct access to the underlying generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// A uniform sample from a half-open range (`int` or `f64`).
    pub fn in_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        self.rng.gen_range(range)
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, range: std::ops::Range<f64>) -> f64 {
        self.rng.gen_range(range)
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        self.rng.gen_range(range)
    }

    /// A uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.rng.gen_range(range)
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.rng.gen::<bool>()
    }

    /// A vector of uniform `f64`s; the length is drawn from `len`.
    pub fn vec_f64(
        &mut self,
        values: std::ops::Range<f64>,
        len: std::ops::Range<usize>,
    ) -> Vec<f64> {
        let n = self.rng.gen_range(len);
        (0..n).map(|_| self.rng.gen_range(values.clone())).collect()
    }

    /// A vector of uniform `usize`s; the length is drawn from `len`.
    pub fn vec_usize(
        &mut self,
        values: std::ops::Range<usize>,
        len: std::ops::Range<usize>,
    ) -> Vec<usize> {
        let n = self.rng.gen_range(len);
        (0..n).map(|_| self.rng.gen_range(values.clone())).collect()
    }

    /// A vector of fair coin flips; the length is drawn from `len`.
    pub fn vec_bool(&mut self, len: std::ops::Range<usize>) -> Vec<bool> {
        let n = self.rng.gen_range(len);
        (0..n).map(|_| self.rng.gen::<bool>()).collect()
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics when `items` is empty (a property authoring error).
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        items
            .choose(&mut self.rng)
            .expect("choose from empty slice")
    }
}

/// A named property ready to be configured and run.
pub struct Property {
    name: &'static str,
    cases: usize,
    regression_seeds: Vec<u64>,
}

/// Starts building a property check named `name` (use the test function's
/// name so replay instructions point at the right test).
pub fn property(name: &'static str) -> Property {
    Property {
        name,
        cases: DEFAULT_CASES,
        regression_seeds: Vec::new(),
    }
}

impl Property {
    /// Sets the number of random cases (default 48).
    #[must_use]
    pub fn cases(mut self, n: usize) -> Property {
        self.cases = n;
        self
    }

    /// Pins seeds that failed in the past; they run before the random
    /// cases on every execution so fixed bugs stay fixed.
    #[must_use]
    pub fn regression(mut self, seeds: &[u64]) -> Property {
        self.regression_seeds.extend_from_slice(seeds);
        self
    }

    /// Runs the property over the regression seeds plus `cases` random
    /// cases.
    ///
    /// # Panics
    ///
    /// Panics (failing the enclosing test) on the first case whose closure
    /// panics, after printing the failing seed and replay instructions.
    pub fn run(self, prop: impl Fn(&mut Gen)) {
        if let Some(seed) = env_seed() {
            eprintln!(
                "[check] {}: replaying single case HT_CHECK_SEED={seed:#x}",
                self.name
            );
            let mut g = Gen::new(seed);
            prop(&mut g);
            return;
        }
        let cases = env_cases().unwrap_or(self.cases);
        // Per-case seeds are derived from the property name so two
        // properties in one binary never share input streams.
        let mut seeder = StdRng::seed_from_u64(fnv1a(self.name.as_bytes()));
        let seeds: Vec<u64> = self
            .regression_seeds
            .iter()
            .copied()
            .chain((0..cases).map(|_| seeder.next_u64()))
            .collect();
        for (i, seed) in seeds.iter().copied().enumerate() {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut g = Gen::new(seed);
                prop(&mut g);
            }));
            if let Err(payload) = outcome {
                let kind = if i < self.regression_seeds.len() {
                    "regression seed"
                } else {
                    "case"
                };
                eprintln!(
                    "[check] property `{}` failed ({kind} {i} of {}, seed {seed:#x}).\n\
                     [check] replay just this case with:\n\
                     [check]   HT_CHECK_SEED={seed:#x} cargo test -q {}",
                    self.name,
                    seeds.len(),
                    self.name,
                );
                resume_unwind(payload);
            }
        }
    }
}

fn env_seed() -> Option<u64> {
    let raw = std::env::var("HT_CHECK_SEED").ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => {
            eprintln!("[check] ignoring unparseable HT_CHECK_SEED={raw:?}");
            None
        }
    }
}

fn env_cases() -> Option<usize> {
    std::env::var("HT_CHECK_CASES").ok()?.trim().parse().ok()
}

/// FNV-1a, used only to turn property names into seed-stream offsets
/// (stable across platforms and runs, unlike `std`'s `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A global allocator that passes every call to [`System`] and counts the
/// allocations (`alloc`, `alloc_zeroed`, `realloc`) each thread makes.
/// A test or bench binary installs it, then asserts on [`allocs_during`]:
///
/// ```
/// use ht_dsp::check::{allocs_during, CountingAlloc};
///
/// #[global_allocator]
/// static ALLOCATOR: CountingAlloc = CountingAlloc;
///
/// fn main() {
///     let mut buf: Vec<u8> = Vec::with_capacity(8);
///     assert_eq!(allocs_during(|| buf.push(1)), 0);
///     assert_eq!(allocs_during(|| drop(std::hint::black_box(vec![0u8; 64]))), 1);
/// }
/// ```
pub struct CountingAlloc;

thread_local! {
    // Const-initialized `Cell<u64>`: no lazy-init allocation and no
    // destructor, so the counter itself never perturbs the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the count touches only a thread-local
// `Cell` that never allocates.
//
// The methods are `#[inline]` so that only a binary installing the
// allocator compiles them: ht-dsp's own object code, which every decision
// runs, keeps its placement (four out-of-line copies here cost perfbench's
// batch-corpus workload 5% decisions/s on a 2-vCPU AMD EPYC host, through
// code placement alone).
unsafe impl GlobalAlloc for CountingAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller meets `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller passes a block this allocator, and so
        // `System`, returned for `layout`, and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, and so
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by `f` on this thread; always 0 unless
/// [`CountingAlloc`] is the global allocator.
pub fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0usize);
        property("always_true").cases(10).run(|g| {
            let _ = g.f64_in(0.0..1.0);
            count.set(count.get() + 1);
        });
        assert_eq!(count.get(), 10);
    }

    #[test]
    fn regression_seeds_run_first_and_get_exact_seed() {
        let seen = std::cell::RefCell::new(Vec::new());
        property("records_seeds")
            .cases(2)
            .regression(&[0xDEAD, 0xBEEF])
            .run(|g| seen.borrow_mut().push(g.seed()));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 4);
        assert_eq!(&seen[..2], &[0xDEAD, 0xBEEF]);
    }

    #[test]
    fn failing_property_panics_and_reports() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            property("always_fails").cases(3).run(|_| {
                panic!("intentional");
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn same_name_gives_identical_inputs_across_runs() {
        let collect = || {
            let xs = std::cell::RefCell::new(Vec::new());
            property("stable_stream").cases(5).run(|g| {
                xs.borrow_mut().push(g.u64_in(0..1_000_000));
            });
            xs.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn generators_respect_bounds() {
        property("generator_bounds").cases(20).run(|g| {
            let v = g.vec_f64(-2.0..2.0, 1..50);
            assert!(!v.is_empty() && v.len() < 50);
            assert!(v.iter().all(|x| (-2.0..2.0).contains(x)));
            let u = g.vec_usize(3..9, 0..10);
            assert!(u.iter().all(|x| (3..9).contains(x)));
            let b = g.vec_bool(0..4);
            assert!(b.len() < 4);
            let pick = *g.choose(&[1, 2, 3]);
            assert!((1..=3).contains(&pick));
        });
    }
}
