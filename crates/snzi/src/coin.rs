//! Biased coin flipping for the probabilistic [`grow`](crate::SnziTree::grow)
//! operation.
//!
//! The paper's `grow` takes a probability `p` and only *attempts* to create
//! children when a `p`-biased coin lands heads; the coin is flipped **before**
//! the children pointer is read, so that an adversarial scheduler that cannot
//! observe local coin flips cannot force more than `1/p` childless returns in
//! expectation. The evaluation section instantiates `p = 1/threshold` with
//! `threshold ≈ 25·cores`.
//!
//! Coin state is a thread-local [`XorShift64Star`] generator by default
//! ([`ThreadCoin`]); tests and the benchmark harness may supply an explicit
//! seeded generator through the [`Coin`] trait for reproducibility. The
//! generator is the scheduler's (`sched::rng`), re-exported here: one
//! copy steers both the steals and the coins.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub use sched::XorShift64Star;

/// A probability in `[0, 1]`, stored as a 64-bit acceptance threshold.
///
/// `flip` draws a uniform `u64` and accepts when it falls below the
/// threshold. The degenerate cases `p = 0` and `p = 1` are exact.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Probability(u64);

impl Probability {
    /// The coin that always lands heads (`p = 1`); with this setting the
    /// SNZI tree grows on every increment, the regime analysed in
    /// Section 4 of the paper.
    pub const ALWAYS: Probability = Probability(u64::MAX);

    /// The coin that never lands heads (`p = 0`); the tree never grows and
    /// every operation collapses onto the initial node. Correct but
    /// intentionally contended — used by failure-injection tests.
    pub const NEVER: Probability = Probability(0);

    /// `p = 1/threshold`, the parameterisation used throughout the paper's
    /// evaluation (`threshold` between 10 and 1,000,000 in Figure 11).
    ///
    /// `one_over(0)` and `one_over(1)` both mean "always grow".
    pub fn one_over(threshold: u64) -> Probability {
        if threshold <= 1 {
            return Probability::ALWAYS;
        }
        Probability(u64::MAX / threshold)
    }

    /// Construct from a floating-point probability, clamped to `[0, 1]`.
    pub fn from_f64(p: f64) -> Probability {
        if p >= 1.0 {
            Probability::ALWAYS
        } else if p <= 0.0 {
            Probability::NEVER
        } else {
            Probability((p * u64::MAX as f64) as u64)
        }
    }

    /// The paper's recommended architecture-specific default,
    /// `p = 1/(25·cores)`.
    pub fn default_for_cores(cores: usize) -> Probability {
        Probability::one_over(25 * cores.max(1) as u64)
    }

    /// Decide a single flip given a uniformly random 64-bit draw.
    #[inline(always)]
    pub fn accepts(self, draw: u64) -> bool {
        self.0 == u64::MAX || draw < self.0
    }

    /// Approximate value of the probability as an `f64` (for reporting).
    pub fn as_f64(self) -> f64 {
        if self.0 == u64::MAX {
            1.0
        } else {
            self.0 as f64 / u64::MAX as f64
        }
    }
}

/// Source of biased coin flips.
pub trait Coin {
    /// Flip a coin that lands heads with probability `p`.
    fn flip(&mut self, p: Probability) -> bool;
}

impl Coin for XorShift64Star {
    #[inline(always)]
    fn flip(&mut self, p: Probability) -> bool {
        p.accepts(self.next_u64())
    }
}

static SEED_COUNTER: AtomicU64 = AtomicU64::new(0x5851_F42D_4C95_7F2D);

thread_local! {
    static THREAD_RNG: Cell<XorShift64Star> = Cell::new(XorShift64Star::new(
        SEED_COUNTER
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            | 1,
    ));
}

/// The default coin: a per-thread `xorshift64*` stream, seeded from a
/// global counter so distinct threads get distinct streams.
#[derive(Copy, Clone, Debug, Default)]
pub struct ThreadCoin;

impl ThreadCoin {
    /// Draw one uniform 64-bit value from the calling thread's stream.
    #[inline]
    pub fn next_u64() -> u64 {
        THREAD_RNG.with(|c| {
            let mut rng = c.get();
            let v = rng.next_u64();
            c.set(rng);
            v
        })
    }
}

impl Coin for ThreadCoin {
    #[inline]
    fn flip(&mut self, p: Probability) -> bool {
        // Fast paths avoid touching TLS for the degenerate probabilities,
        // which are common (p = 1 in the analysis regime).
        if p == Probability::ALWAYS {
            return true;
        }
        if p == Probability::NEVER {
            return false;
        }
        p.accepts(Self::next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_and_never_are_exact() {
        let mut rng = XorShift64Star::new(42);
        for _ in 0..1000 {
            assert!(rng.flip(Probability::ALWAYS));
        }
        for _ in 0..1000 {
            assert!(!rng.flip(Probability::NEVER));
        }
    }

    #[test]
    fn one_over_one_is_always() {
        assert_eq!(Probability::one_over(1), Probability::ALWAYS);
        assert_eq!(Probability::one_over(0), Probability::ALWAYS);
    }

    #[test]
    fn empirical_bias_matches_threshold() {
        let mut rng = XorShift64Star::new(0xDEADBEEF);
        let p = Probability::one_over(8);
        let n = 200_000;
        let heads = (0..n).filter(|_| rng.flip(p)).count();
        let expected = n as f64 / 8.0;
        let tolerance = expected * 0.1;
        assert!((heads as f64 - expected).abs() < tolerance, "heads={heads}, expected≈{expected}");
    }

    #[test]
    fn from_f64_clamps() {
        assert_eq!(Probability::from_f64(2.0), Probability::ALWAYS);
        assert_eq!(Probability::from_f64(-1.0), Probability::NEVER);
        let p = Probability::from_f64(0.5);
        assert!((p.as_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn thread_coin_degenerate_paths() {
        let mut c = ThreadCoin;
        assert!(c.flip(Probability::ALWAYS));
        assert!(!c.flip(Probability::NEVER));
        // A fair-ish coin: over many flips, both outcomes appear.
        let p = Probability::from_f64(0.5);
        let heads = (0..1000).filter(|_| c.flip(p)).count();
        assert!(heads > 200 && heads < 800, "heads={heads}");
    }

    #[test]
    fn distinct_threads_get_distinct_streams() {
        let h1 = std::thread::spawn(ThreadCoin::next_u64);
        let h2 = std::thread::spawn(ThreadCoin::next_u64);
        let (a, b) = (h1.join().unwrap(), h2.join().unwrap());
        assert_ne!(a, b);
    }

    #[test]
    fn thread_coin_draws_match_the_generator() {
        let mut model = THREAD_RNG.with(Cell::get);
        for _ in 0..100 {
            assert_eq!(ThreadCoin::next_u64(), model.next_u64());
        }
    }
}
