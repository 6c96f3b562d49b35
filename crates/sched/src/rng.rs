//! The runtime's one pseudo-random generator.
//!
//! Steal-victim selection draws from it here ([`WorkerCtx::rng_below`]),
//! and the crates above `sched` use it rather than carry a copy: `snzi`
//! re-exports it as its seeded `Coin` and keeps each thread's `ThreadCoin`
//! stream in one, and the out-set's growth coin is that `ThreadCoin`.
//! Every use needs speed and decorrelation across threads, nothing more;
//! it is not cryptographic.
//!
//! The randomized test batteries draw from it too, through [`battery`]:
//! each case gets a generator of its own, seeded from the battery's name
//! and the case's number, so a failing case replays on every rerun.
//!
//! [`WorkerCtx::rng_below`]: crate::WorkerCtx::rng_below

use std::panic::{catch_unwind, AssertUnwindSafe};

/// `xorshift64*` generator (Vigna 2016).
#[derive(Copy, Clone, Debug)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Create a generator from a seed; a zero seed is remapped, since the
    /// all-zero state is a fixed point of the xorshift recurrence.
    pub fn new(seed: u64) -> XorShift64Star {
        XorShift64Star { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next uniform 64-bit value.
    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    #[inline(always)]
    pub fn next_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // Multiply-shift range reduction (Lemire); the slight bias is fine.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }
}

/// Run the randomized battery `name`: `cases` cases, case `k` drawing its
/// inputs from a generator seeded from `(name, k)`. A case that panics
/// fails the battery with one line naming the battery, the case and the
/// seed; the seeds depend on nothing else, so a rerun replays that case.
/// Generic, so only a test instantiates it.
pub fn battery(name: &str, cases: u32, mut case: impl FnMut(&mut XorShift64Star)) {
    for k in 0..cases {
        let seed = case_seed(name, k);
        if catch_unwind(AssertUnwindSafe(|| case(&mut XorShift64Star::new(seed)))).is_err() {
            panic!("battery {name}: case {k} of {cases} failed (seed {seed:#018x})");
        }
    }
}

/// The seed of case `k` of battery `name`: the name's FNV-1a hash, stepped
/// `k` times by an odd stride, so no two cases of a battery share a seed.
/// Nor a stream: a zero seed runs its remap's, which lies
/// `0xF98B_F331_01A7_AB07` strides away — past every `u32` case.
/// `#[inline]`, as the driver is generic: no build that runs no battery
/// compiles it.
#[inline]
fn case_seed(name: &str, k: u32) -> u64 {
    let hash = name
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3));
    hash.wrapping_add(u64::from(k).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_seed_remapped() {
        assert_ne!(XorShift64Star::new(0).next_u64(), 0);
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut rng = XorShift64Star::new(99);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = rng.next_below(8);
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all victims should be reachable");
        for n in 1..50usize {
            for _ in 0..100 {
                assert!(rng.next_below(n) < n);
            }
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let (mut a, mut b) = (XorShift64Star::new(1), XorShift64Star::new(2));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn a_battery_seeds_alike_on_every_run() {
        assert_eq!(case_seed("a", 0), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(case_seed("a", 1), 0x8119_267F_5794_D98F);
        let mut seen = Vec::new();
        battery("a", 2, |rng| seen.push(rng.next_u64()));
        assert_eq!(
            seen,
            [case_seed("a", 0), case_seed("a", 1)].map(|s| XorShift64Star::new(s).next_u64())
        );
    }

    #[test]
    fn no_two_cases_share_a_seed() {
        let mut seeds: Vec<u64> = (0..100_000).map(|k| case_seed("a", k)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 100_000);
        assert_ne!(case_seed("a", 0), case_seed("b", 0), "names seed apart");
    }

    #[test]
    #[should_panic(expected = "battery the_battery: case 3 of 8 failed (seed 0x")]
    fn a_failing_case_names_its_battery_case_and_seed() {
        let mut k = 0;
        battery("the_battery", 8, |_| {
            k += 1;
            assert!(k != 4, "the fourth case fails");
        });
    }
}
