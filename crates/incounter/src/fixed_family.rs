//! The fixed-depth SNZI baseline family (Section 5).
//!
//! For each finish scope that forks a complete SNZI tree of `2^(d+1) − 1`
//! nodes is built whole: a [`SnziTree`] grown by
//! [`SnziTree::grow_complete`], which costs `2^d − 1` pair installs from the
//! recycler's 256 B class, and one `Vec` of its `2^d` leaves, the table that
//! keeps a leaf lookup O(1). Increments arrive at the leaf selected by
//! hashing the incrementing vertex's identity; the matching decrement must
//! target the same leaf, which the [`FixedDec`] handle records by its index.
//! The initial surplus of the counter lives at the root, so its matching
//! decrement handle is the special [`FixedDec::Root`].
//!
//! Compared with the in-counter this baseline pays the full tree allocation
//! per finish block whether or not contention materialises — the effect the
//! paper's indegree-2 study (Figure 10) isolates — and cannot adapt its
//! size to the actual degree of concurrency.

use sched::step::Step;
use snzi::{Handle, SnziTree};

use crate::CounterFamily;

/// Configuration for [`FixedDepth`]: the tree depth `d` (leaves = `2^d`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedConfig {
    /// Depth of every allocated tree; the paper sweeps 1..=9, and `make`
    /// rejects one past [`snzi::tree::MAX_DEPTH`].
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
/// A leaf index, so a pair of them rides the recycler's 32 B class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixedDec {
    /// The counter's initial surplus (sitting at the root).
    Root,
    /// A leaf reached by a hashed arrive.
    Leaf(u32),
}

/// The fixed-depth counter: a complete [`SnziTree`] and its leaves.
pub struct FixedTree {
    tree: SnziTree,
    /// The `2^d` leaves left to right (the root alone at depth 0).
    leaves: Box<[Handle]>,
}

impl FixedTree {
    /// The tree the counter counts in (its shape:
    /// [`SnziTree::contention_profile`]).
    pub fn tree(&self) -> &SnziTree {
        &self.tree
    }

    /// Number of leaves, `2^d`.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Map an arbitrary key (e.g. a dag-vertex id) onto a leaf index using
    /// a Fibonacci multiplicative hash, as the paper prescribes to spread
    /// operations evenly across the tree.
    #[inline]
    pub fn leaf_for_key(&self, key: u64) -> usize {
        let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The hash's top `d` bits: its high product with `2^d`, which is 0
        // at depth 0.
        ((hash as u128 * self.leaves.len() as u128) >> 64) as usize
    }
}

/// The fixed-depth SNZI counter family.
pub struct FixedDepth;

impl CounterFamily for FixedDepth {
    type Config = FixedConfig;
    type Counter = FixedTree;
    // Increments are placed by hashing; the handle carries no position.
    type Inc = ();
    type Dec = FixedDec;

    const NAME: &'static str = "snzi-fixed";

    fn make(cfg: &FixedConfig, n: u64) -> FixedTree {
        // No `incounter.created` probe: the tree bumps `snzi.trees_created`.
        let tree = SnziTree::new(n);
        let leaves = tree.grow_complete(cfg.depth).into_boxed_slice();
        FixedTree { tree, leaves }
    }

    fn root_inc(_counter: &FixedTree) {}

    fn root_dec(_counter: &FixedTree) -> FixedDec {
        FixedDec::Root
    }

    unsafe fn increment_with<S: Step>(
        _cfg: &FixedConfig,
        counter: &FixedTree,
        _inc: (),
        _is_left: bool,
        vid: u64,
        step: S,
    ) -> (FixedDec, (), ()) {
        let leaf = counter.leaf_for_key(vid);
        // SAFETY: the leaf is the counter's own tree's, alive with it.
        unsafe { counter.tree.arrive_with(counter.leaves[leaf], step) };
        (FixedDec::Leaf(leaf as u32), (), ())
    }

    unsafe fn decrement_with<S: Step>(counter: &FixedTree, dec: FixedDec, step: S) -> bool {
        let node = match dec {
            FixedDec::Root => counter.tree.root_handle(),
            FixedDec::Leaf(leaf) => counter.leaves[leaf as usize],
        };
        // SAFETY: `node` is the counter's own tree's; validity, forwarded
        // from the trait contract, gives the matching arrive at it.
        unsafe { counter.tree.depart_with(node, step) }.0
    }

    fn is_zero(counter: &FixedTree) -> bool {
        !counter.tree.query()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snzi::tree::MAX_DEPTH;

    // SAFETY (the tests below): the family's handles name nodes of the
    // counter they came from, which outlives them, and each decrement
    // matches an increment at its leaf or the initial count at the root.

    fn increment(c: &FixedTree, vid: u64) -> FixedDec {
        // SAFETY: see the comment above the tests.
        unsafe { FixedDepth::increment(&FixedConfig::default(), c, (), true, vid) }.0
    }

    fn decrement(c: &FixedTree, dec: FixedDec) -> bool {
        // SAFETY: see the comment above the tests.
        unsafe { FixedDepth::decrement(c, dec) }
    }

    #[test]
    fn a_pair_of_leaf_indices_rides_the_32_byte_class() {
        use sched::recycle::{class_bytes, class_of};
        let class = class_of::<crate::DecPair<FixedDec>>().expect("on the ladder");
        assert_eq!(class_bytes(class), 32);
    }

    #[test]
    fn shape_matches_depth() {
        for d in 0..=6u32 {
            let c = FixedDepth::make(&FixedConfig { depth: d }, 0);
            assert_eq!(c.leaf_count(), 1 << d, "depth {d}");
            let profile = c.tree().contention_profile();
            assert_eq!(profile.nodes, (1 << (d + 1)) - 1, "depth {d}: the walk");
            assert_eq!(profile.max_depth, d, "depth {d}: the walk");
        }
    }

    #[test]
    fn increments_record_their_leaf() {
        let c = FixedDepth::make(&FixedConfig { depth: 5 }, 1);
        let mut decs = Vec::new();
        for vid in 0..50u64 {
            let d = increment(&c, vid * 0x1234_5678_9ABC);
            match d {
                FixedDec::Leaf(l) => assert_eq!(l as usize, c.leaf_for_key(vid * 0x1234_5678_9ABC)),
                FixedDec::Root => panic!("arrives never land on the root"),
            }
            decs.push(d);
        }
        // Departs at the recorded leaves + the root handle drain it fully.
        decs.push(FixedDec::Root);
        let zeros = decs.into_iter().filter(|&d| decrement(&c, d)).count();
        assert_eq!(zeros, 1);
        assert!(FixedDepth::is_zero(&c));
    }

    #[test]
    fn hash_spreads_keys() {
        let c = FixedDepth::make(&FixedConfig { depth: 6 }, 0);
        let mut seen = vec![0u32; c.leaf_count()];
        for key in 0..10_000u64 {
            seen[c.leaf_for_key(key)] += 1;
        }
        let reached = seen.iter().filter(|&&n| n > 0).count();
        assert!(reached > c.leaf_count() / 2, "reached {reached}/{} leaves", c.leaf_count());
    }

    #[test]
    fn depth_zero_collapses_to_root() {
        let c = FixedDepth::make(&FixedConfig { depth: 0 }, 0);
        assert!(FixedDepth::is_zero(&c));
        let d = increment(&c, 7);
        assert_eq!(d, FixedDec::Leaf(0));
        assert!(c.leaves[0].is_root(), "the one leaf is the root cell");
        assert!(!FixedDepth::is_zero(&c));
        assert!(decrement(&c, d));
        assert!(FixedDepth::is_zero(&c));
    }

    #[test]
    fn initial_surplus_reaches_zero_exactly_once() {
        let c = FixedDepth::make(&FixedConfig { depth: 3 }, 5);
        assert!(!FixedDepth::is_zero(&c));
        let zeros: Vec<bool> = (0..5).map(|_| decrement(&c, FixedDec::Root)).collect();
        assert_eq!(zeros, [false, false, false, false, true]);
        assert!(FixedDepth::is_zero(&c));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DEPTH")]
    fn a_depth_past_the_bound_is_rejected() {
        let _ = FixedDepth::make(&FixedConfig { depth: MAX_DEPTH + 1 }, 0);
    }

    #[test]
    fn a_depth_12_tree_works() {
        // 8191 nodes — larger than any setting the paper sweeps.
        let c = FixedDepth::make(&FixedConfig { depth: 12 }, 0);
        assert_eq!(c.tree().contention_profile().nodes, (1 << 13) - 1);
        let d = increment(&c, 999);
        assert!(!FixedDepth::is_zero(&c));
        assert!(decrement(&c, d));
    }

    #[test]
    fn concurrent_balanced_traffic() {
        use std::sync::{Arc, Barrier};
        let c = Arc::new(FixedDepth::make(&FixedConfig { depth: 3 }, 0));
        let (threads, rounds) = (4, 500);
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (c, barrier) = (Arc::clone(&c), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        let d = increment(&c, (tid * rounds + round) as u64);
                        barrier.wait();
                        assert!(!FixedDepth::is_zero(&c));
                        barrier.wait();
                        let _ = decrement(&c, d);
                        barrier.wait();
                        assert!(FixedDepth::is_zero(&c));
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
