//! The coin/threshold policy behind probabilistic lane splitting.
//!
//! The in-counter grows its SNZI tree by flipping a `p`-biased coin on
//! every increment (`incounter::dyn_family`); the out-set is cheaper about
//! it: a coin is flipped only when an adder *observes contention* — it
//! loses the block-install CAS on its lane — and heads means "try to
//! double the lane table". Uncontended out-sets therefore never flip at
//! all and stay at their initial single lane, while a hot out-set doubles
//! after an expected `1/p` lost CASes, so the lane table converges on the
//! contention actually experienced rather than a size guessed up front.
//!
//! The pieces mirror `snzi::coin` deliberately (the policy is "shared in
//! spirit" with the in-counter's): [`snzi::Probability`] is reused as the
//! acceptance threshold, and flips draw from the same per-thread
//! `xorshift64*` streams ([`snzi::ThreadCoin`]) — one stream per worker
//! thread, seeded distinctly, so concurrent adders' coins are independent
//! and an adversarial scheduler cannot observe a flip before the grow
//! attempt it gates (the property the paper's `grow` analysis needs).
//!
//! ```
//! use outset::GrowthPolicy;
//!
//! // Default: split with probability 1/2 per lost install CAS, table
//! // capped relative to the machine's core count.
//! let p = GrowthPolicy::default();
//! assert!(p.max_lanes() >= 2);
//!
//! // Degenerate policies for tests and baselines.
//! assert_eq!(GrowthPolicy::fixed(4).max_lanes(), 4); // never splits
//! assert!(GrowthPolicy::eager(8).flip());            // always splits
//! ```

use snzi::{Coin, Probability, ThreadCoin};

/// When (and how far) a [`TreeOutsetObj`](crate::tree::TreeOutsetObj)
/// grows its lane table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrowthPolicy {
    /// Probability that a lost block-install CAS triggers a split attempt.
    p: Probability,
    /// Hard cap on the lane-table size (power of two, ≥ 1).
    max_lanes: usize,
}

impl GrowthPolicy {
    /// Split with probability `p` per observed install-CAS failure, up to
    /// `max_lanes` lanes (rounded up to a power of two).
    pub fn new(p: Probability, max_lanes: usize) -> GrowthPolicy {
        GrowthPolicy { p, max_lanes: max_lanes.max(1).next_power_of_two() }
    }

    /// The recommended default: `p = 1/2` per lost CAS — a lost CAS is
    /// already direct evidence of two adders colliding on one lane, so
    /// unlike the in-counter's once-per-increment coin no further
    /// dampening is needed — capped at [`default_max_lanes`].
    ///
    /// [`default_max_lanes`]: GrowthPolicy::default_max_lanes
    pub fn adaptive() -> GrowthPolicy {
        GrowthPolicy::new(Probability::from_f64(0.5), Self::default_max_lanes())
    }

    /// A policy that never splits: the table stays at its initial size.
    /// This is how [`with_lanes`](crate::tree::TreeOutsetObj::with_lanes)
    /// preserves the fixed-lane behaviour benchmarks isolate against.
    pub fn fixed(lanes: usize) -> GrowthPolicy {
        GrowthPolicy::new(Probability::NEVER, lanes)
    }

    /// A policy that splits on *every* lost CAS — the analysis regime
    /// (`p = 1`), and the most race-prone setting for stress tests.
    pub fn eager(max_lanes: usize) -> GrowthPolicy {
        GrowthPolicy::new(Probability::ALWAYS, max_lanes)
    }

    /// The paper-style `p = 1/threshold` parameterisation, for the
    /// harness's growth-threshold study.
    pub fn with_threshold(threshold: u64, max_lanes: usize) -> GrowthPolicy {
        GrowthPolicy::new(Probability::one_over(threshold), max_lanes)
    }

    /// The default lane-table cap: `4 × hardware threads`, rounded up to a
    /// power of two and clamped to `[2, 64]`. Out-sets are allocated once
    /// per future, so the core count is [`sched::num_cpus`]'s, probed once
    /// per process: the probe itself (`available_parallelism`) costs
    /// about 25 µs on a 2-core Xeon container host.
    pub fn default_max_lanes() -> usize {
        (sched::num_cpus() * 4).next_power_of_two().clamp(2, 64)
    }

    /// Flip the split coin (drawing from the calling thread's stream).
    #[inline]
    pub fn flip(&self) -> bool {
        ThreadCoin.flip(self.p)
    }

    /// The split probability.
    pub fn probability(&self) -> Probability {
        self.p
    }

    /// The lane-table cap (a power of two).
    pub fn max_lanes(&self) -> usize {
        self.max_lanes
    }
}

impl Default for GrowthPolicy {
    fn default() -> GrowthPolicy {
        GrowthPolicy::adaptive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_lanes_rounds_up_and_clamps() {
        assert_eq!(GrowthPolicy::fixed(0).max_lanes(), 1);
        assert_eq!(GrowthPolicy::fixed(1).max_lanes(), 1);
        assert_eq!(GrowthPolicy::fixed(3).max_lanes(), 4);
        assert_eq!(GrowthPolicy::fixed(5).max_lanes(), 8);
        assert_eq!(GrowthPolicy::fixed(16).max_lanes(), 16);
    }

    #[test]
    fn degenerate_coins_are_exact() {
        let eager = GrowthPolicy::eager(8);
        let fixed = GrowthPolicy::fixed(8);
        for _ in 0..100 {
            assert!(eager.flip());
            assert!(!fixed.flip());
        }
    }

    #[test]
    fn default_max_lanes_is_cached_and_sane() {
        let a = GrowthPolicy::default_max_lanes();
        let b = GrowthPolicy::default_max_lanes();
        assert_eq!(a, b);
        assert!((2..=64).contains(&a));
        assert!(a.is_power_of_two());
    }

    #[test]
    fn default_policy_construction_is_cheap() {
        // Regression guard for the out-set allocation hot path: the
        // futures runtime builds one policy per future, and
        // `available_parallelism` costs about 25 µs a call on a 2-core
        // Xeon container host (2 000 calls in a loop, std only), so 4000
        // uncached constructions would take about 100 ms. The cached path
        // costs nanoseconds a construction (under 1 ms for all of them in
        // a debug build); the bound sits at half the uncached price.
        let _prime = GrowthPolicy::default();
        let t0 = std::time::Instant::now();
        for _ in 0..4000 {
            std::hint::black_box(GrowthPolicy::default());
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(50),
            "GrowthPolicy::default must hit the cached core count, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn threshold_parameterisation_matches_snzi() {
        let p = GrowthPolicy::with_threshold(4, 16);
        assert_eq!(p.probability(), Probability::one_over(4));
    }
}
