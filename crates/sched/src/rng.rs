//! The runtime's one pseudo-random generator.
//!
//! Steal-victim selection draws from it here ([`WorkerCtx::rng_below`]),
//! and the crates above `sched` use it rather than carry a copy: `snzi`
//! re-exports it as its seeded `Coin` and keeps each thread's `ThreadCoin`
//! stream in one, and the out-set's growth coin is that `ThreadCoin`.
//! Every use needs speed and decorrelation across threads, nothing more;
//! it is not cryptographic.
//!
//! [`WorkerCtx::rng_below`]: crate::WorkerCtx::rng_below

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
}
