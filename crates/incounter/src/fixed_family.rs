//! The fixed-depth SNZI baseline family (Section 5).
//!
//! For each finish scope that forks a complete SNZI tree of `2^(d+1) − 1`
//! nodes is allocated whole. Increments arrive at the leaf selected by
//! hashing the incrementing vertex's identity; the matching decrement must
//! target the same leaf, which the [`FixedDec`] handle records. The initial
//! surplus of the counter lives at the root, so its matching decrement
//! handle is the special [`FixedDec::Root`].
//!
//! Compared with the in-counter this baseline pays the full tree allocation
//! per finish block whether or not contention materialises — the effect the
//! paper's indegree-2 study (Figure 10) isolates — and cannot adapt its
//! size to the actual degree of concurrency.

use sched::step::Step;
use snzi::FixedSnzi;

use crate::CounterFamily;

/// Configuration for [`FixedDepth`]: the tree depth `d` (leaves = `2^d`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedConfig {
    /// Depth of every allocated tree; the paper sweeps 1..=9.
    pub depth: u32,
}

impl Default for FixedConfig {
    /// Depth 4 — the best setting found in the SNZI reproduction study on
    /// a 40-core machine (Appendix C.1).
    fn default() -> FixedConfig {
        FixedConfig { depth: 4 }
    }
}

/// Decrement handle for the fixed tree: the node the matching arrive hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixedDec {
    /// The counter's initial surplus (sitting at the root).
    Root,
    /// A leaf reached by a hashed arrive.
    Leaf(u32),
}

/// The fixed-depth SNZI counter family.
pub struct FixedDepth;

impl CounterFamily for FixedDepth {
    type Config = FixedConfig;
    type Counter = FixedSnzi;
    // Increments are placed by hashing; the handle carries no position.
    type Inc = ();
    type Dec = FixedDec;

    const NAME: &'static str = "snzi-fixed";

    fn make(cfg: &FixedConfig, n: u64) -> FixedSnzi {
        obs::counter!("incounter.created").inc();
        FixedSnzi::new(cfg.depth, n)
    }

    fn root_inc(_counter: &FixedSnzi) {}

    fn root_dec(_counter: &FixedSnzi) -> FixedDec {
        FixedDec::Root
    }

    unsafe fn increment_with<S: Step>(
        _cfg: &FixedConfig,
        counter: &FixedSnzi,
        _inc: (),
        _is_left: bool,
        vid: u64,
        step: S,
    ) -> (FixedDec, (), ()) {
        let leaf = counter.leaf_for_key(vid);
        counter.arrive_leaf_with(leaf, step);
        (FixedDec::Leaf(leaf as u32), (), ())
    }

    unsafe fn decrement_with<S: Step>(counter: &FixedSnzi, dec: FixedDec, step: S) -> bool {
        match dec {
            FixedDec::Root => counter.depart_root_with(step),
            FixedDec::Leaf(leaf) => counter.depart_leaf_with(leaf as usize, step),
        }
    }

    fn is_zero(counter: &FixedSnzi) -> bool {
        !counter.query()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_record_their_leaf() {
        let cfg = FixedConfig { depth: 5 };
        let c = FixedDepth::make(&cfg, 1);
        let mut decs = Vec::new();
        for vid in 0..50u64 {
            // SAFETY: the family's handles name leaves of the tree they
            // came from, and each decrement in these tests matches an
            // increment or the initial count.
            let (d, ..) = unsafe { FixedDepth::increment(&cfg, &c, (), true, vid) };
            match d {
                FixedDec::Leaf(l) => {
                    assert!((l as usize) < c.leaf_count());
                    decs.push(d);
                }
                FixedDec::Root => panic!("arrives never land on the root"),
            }
        }
        // Departs at the recorded leaves + the root handle drain it fully.
        decs.push(FixedDec::Root);
        // SAFETY: as above.
        let zeros = decs.into_iter().filter(|&d| unsafe { FixedDepth::decrement(&c, d) }).count();
        assert_eq!(zeros, 1);
        assert!(FixedDepth::is_zero(&c));
    }

    #[test]
    fn depth_zero_collapses_to_root() {
        let cfg = FixedConfig { depth: 0 };
        let c = FixedDepth::make(&cfg, 0);
        // SAFETY: as above.
        let (d, ..) = unsafe { FixedDepth::increment(&cfg, &c, (), true, 7) };
        assert_eq!(d, FixedDec::Leaf(0));
        // SAFETY: as above.
        assert!(unsafe { FixedDepth::decrement(&c, d) });
    }

    #[test]
    fn tree_size_matches_config() {
        for d in 0..8 {
            let c = FixedDepth::make(&FixedConfig { depth: d }, 0);
            assert_eq!(c.node_count(), (1usize << (d + 1)) - 1);
        }
    }
}
