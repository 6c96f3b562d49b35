//! The fixed-depth SNZI baseline (Section 5 of the paper).
//!
//! The paper compares the in-counter against "a different, SNZI-based
//! algorithm that uses a fixed-depth SNZI tree": for each finish block a
//! complete binary tree of `2^(d+1) − 1` nodes is allocated up front, and
//! dag vertices are mapped onto the `2^d` leaves with a hash function so
//! that operations spread evenly. Every `depart` must target the same node
//! as its matching `arrive`, which callers arrange by remembering the leaf
//! index returned from [`FixedSnzi::arrive_key`].
//!
//! Depth 0 degenerates to a single root cell — structurally the same shared
//! hot-spot as a fetch-and-add counter, but with the SNZI root protocol.

use sched::step::{Shared, Step};

use crate::node::{node_arrive, node_depart, Node, ParentRef};
use crate::packed::MAX_ROOT_SURPLUS;
use crate::root::Root;
use crate::stats::{ContentionProfile, TreeStats};

/// Largest supported depth (2^21 − 1 nodes ≈ 2M; the paper sweeps 1..=9).
pub const MAX_DEPTH: u32 = 20;

/// A statically sized complete-binary-tree SNZI.
pub struct FixedSnzi {
    root: Box<Root>,
    /// Inner nodes in heap order: slice index `k-1` holds heap index `k`
    /// (heap index 0 is the root). Never resized after construction, so
    /// parent pointers into the buffer stay valid.
    nodes: Vec<Node>,
    depth: u32,
    /// Zero-sized without `telemetry`.
    stats: TreeStats,
}

impl FixedSnzi {
    /// Build a tree of the given depth with `initial` surplus at the root.
    pub fn new(depth: u32, initial: u64) -> FixedSnzi {
        assert!(depth <= MAX_DEPTH, "depth {depth} exceeds MAX_DEPTH {MAX_DEPTH}");
        assert!(initial <= MAX_ROOT_SURPLUS as u64, "initial surplus too large");
        let id = crate::tree::next_tree_id();
        let root = Box::new(Root::new(initial as u32, id));
        let root_ptr: *const Root = &*root;
        let total_inner: usize = (1usize << (depth + 1)) - 2;
        let mut nodes: Vec<Node> = (1..=total_inner)
            .map(|k| {
                let level = (k as u64 + 1).ilog2();
                Node::new(ParentRef::Root(root_ptr), id, level)
            })
            .collect();
        // Fix up parents of levels ≥ 2 to point at their heap parent.
        let base = nodes.as_mut_ptr();
        for k in 3..=total_inner {
            // Heap parent, ≥ 1 here.
            let pk = (k - 1) / 2;
            // SAFETY: both offsets are in-bounds of the same allocation and
            // the vector is never reallocated afterwards.
            unsafe {
                (*base.add(k - 1)).parent = ParentRef::Node(base.add(pk - 1) as *const Node);
            }
        }
        FixedSnzi { root, nodes, depth, stats: TreeStats::default() }
    }

    /// The configured depth `d`.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Total number of SNZI nodes, `2^(d+1) − 1`.
    pub fn node_count(&self) -> usize {
        self.nodes.len() + 1
    }

    /// Number of leaves, `2^d`.
    pub fn leaf_count(&self) -> usize {
        1 << self.depth
    }

    /// Map an arbitrary key (e.g. a dag-vertex id) onto a leaf index using
    /// a Fibonacci multiplicative hash, as the paper prescribes to spread
    /// operations evenly across the tree.
    #[inline]
    pub fn leaf_for_key(&self, key: u64) -> usize {
        if self.depth == 0 {
            return 0;
        }
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.depth)) as usize
    }

    #[inline]
    fn leaf_node(&self, leaf: usize) -> Option<&Node> {
        if self.depth == 0 {
            return None; // the root is the only "leaf"
        }
        let heap = (1usize << self.depth) - 1 + leaf;
        Some(&self.nodes[heap - 1])
    }

    /// Arrive at the given leaf.
    ///
    /// # Panics
    /// If `leaf >= leaf_count()`.
    pub fn arrive_leaf(&self, leaf: usize) {
        self.arrive_leaf_with(leaf, Shared);
    }

    /// [`arrive_leaf`](Self::arrive_leaf) with each step committed by
    /// `step` (`crate::node`, "Two ways to commit a step"). An
    /// [`Exclusive`](sched::step::Exclusive) step's promise covers this
    /// tree's arrives and departs.
    ///
    /// # Panics
    /// If `leaf >= leaf_count()`.
    #[inline]
    pub fn arrive_leaf_with<S: Step>(&self, leaf: usize, step: S) {
        assert!(leaf < self.leaf_count(), "leaf {leaf} out of range");
        let path = match self.leaf_node(leaf) {
            // SAFETY: the node belongs to self and lives as long as &self.
            Some(n) => unsafe { node_arrive(n, step) },
            None => self.root.arrive(step),
        };
        self.stats.record_arrive(path.arrives);
    }

    /// Arrive at the leaf selected by hashing `key`; returns the leaf index
    /// so the matching [`depart_leaf`](Self::depart_leaf) can target it.
    pub fn arrive_key(&self, key: u64) -> usize {
        let leaf = self.leaf_for_key(key);
        self.arrive_leaf(leaf);
        leaf
    }

    /// Depart at the given leaf; returns `true` iff this departure ended
    /// the tree's non-zero period.
    ///
    /// The departure must match an earlier arrival at the same leaf
    /// (checked at runtime by the surplus assertion inside the node
    /// protocol — an unmatched depart panics rather than corrupting the
    /// structure).
    ///
    /// # Panics
    /// If `leaf >= leaf_count()`, or if the execution is not valid.
    pub fn depart_leaf(&self, leaf: usize) -> bool {
        self.depart_leaf_with(leaf, Shared)
    }

    /// [`depart_leaf`](Self::depart_leaf) with each step committed by
    /// `step`, as [`arrive_leaf_with`](Self::arrive_leaf_with) is
    /// `arrive_leaf`'s.
    ///
    /// # Panics
    /// If `leaf >= leaf_count()`, or if the execution is not valid.
    #[inline]
    pub fn depart_leaf_with<S: Step>(&self, leaf: usize, step: S) -> bool {
        assert!(leaf < self.leaf_count(), "leaf {leaf} out of range");
        let (ended, path) = match self.leaf_node(leaf) {
            // SAFETY: as in arrive_leaf_with.
            Some(n) => unsafe { node_depart(n, step) },
            None => self.root.depart(step),
        };
        self.stats.record_depart(path.departs);
        ended
    }

    /// Depart directly at the root; returns `true` iff this departure
    /// ended the tree's non-zero period.
    pub fn depart_root(&self) -> bool {
        self.depart_root_with(Shared)
    }

    /// [`depart_root`](Self::depart_root) with each step committed by
    /// `step`, as for [`arrive_leaf_with`](Self::arrive_leaf_with).
    #[inline]
    pub fn depart_root_with<S: Step>(&self, step: S) -> bool {
        let (ended, path) = self.root.depart(step);
        self.stats.record_depart(path.departs);
        ended
    }

    /// Does the tree have surplus? One word read at the root.
    #[inline]
    pub fn query(&self) -> bool {
        self.root.query()
    }

    /// Walk the tree: `2^(d+1) − 1` nodes of depth at most `d` on every
    /// build and, under `telemetry`, the touch tallies and counters, as
    /// [`SnziTree::contention_profile`](crate::SnziTree::contention_profile)
    /// reports them. Exact when no operation overlaps the walk.
    pub fn contention_profile(&self) -> ContentionProfile {
        let mut profile = ContentionProfile::of_root(&self.root);
        for n in &self.nodes {
            profile.add(n);
        }
        self.stats.read_counters(&mut profile);
        profile
    }

    /// Every packed word and touch tally of the tree — the root's, then
    /// the nodes' in heap order — and its profile (differential tests).
    #[cfg(test)]
    pub(crate) fn state_for_test(&self) -> (Vec<u64>, ContentionProfile) {
        let mut out = Vec::new();
        self.root.state_for_test(&mut out);
        for n in &self.nodes {
            n.state_for_test(&mut out);
        }
        (out, self.contention_profile())
    }
}

#[cfg(test)]
mod tests {
    use sched::step::{differential, Differential};
    use sched::XorShift64Star;

    use super::*;

    /// One copy of a fixed tree under [`differential`], with its completed
    /// arrivals not yet departed: `None` at the root, else the leaf.
    struct FixedCopy(FixedSnzi, Vec<Option<usize>>);

    // SAFETY: `apply` steps this copy's own tree alone, on the calling
    // thread.
    unsafe impl Differential for FixedCopy {
        /// Whether a depart ended the period; every word, tally and the
        /// profile.
        type Seen = (bool, (Vec<u64>, ContentionProfile));

        fn apply<S: Step>(&mut self, draw: u64, step: S) -> Self::Seen {
            let (tree, arrivals) = (&self.0, &mut self.1);
            let mut pick = XorShift64Star::new(draw);
            let mut ended = false;
            if pick.next_below(2) == 0 || arrivals.is_empty() {
                let leaf = tree.leaf_for_key(pick.next_u64());
                tree.arrive_leaf_with(leaf, step);
                arrivals.push(Some(leaf));
            } else {
                ended = match arrivals.swap_remove(pick.next_below(arrivals.len())) {
                    None => tree.depart_root_with(step),
                    Some(leaf) => tree.depart_leaf_with(leaf, step),
                };
                assert_eq!(ended, arrivals.is_empty(), "the last depart ends the period");
            }
            (ended, tree.state_for_test())
        }
    }

    #[test]
    fn fixed_trees_step_alike_under_every_step() {
        for depth in 0..=4 {
            for seed in 1..=6u64 {
                for initial in [0, 1] {
                    let copy =
                        || FixedCopy(FixedSnzi::new(depth, initial), vec![None; initial as usize]);
                    differential(copy, seed * 0x51_7CC1 + initial, 400);
                }
            }
        }
    }

    #[test]
    fn shape_matches_depth() {
        for d in 0..=6u32 {
            let t = FixedSnzi::new(d, 0);
            assert_eq!(t.node_count(), (1 << (d + 1)) - 1, "depth {d}");
            assert_eq!(t.leaf_count(), 1 << d, "depth {d}");
            let profile = t.contention_profile();
            assert_eq!(profile.nodes, t.node_count() as u64, "depth {d}: the walk");
            assert_eq!(profile.max_depth, d, "depth {d}: the walk");
        }
    }

    #[test]
    fn depth_zero_behaves_like_root_cell() {
        let t = FixedSnzi::new(0, 0);
        assert!(!t.query());
        t.arrive_leaf(0);
        assert!(t.query());
        assert!(t.depart_leaf(0));
        assert!(!t.query());
    }

    #[test]
    fn arrive_depart_all_leaves() {
        let t = FixedSnzi::new(4, 0);
        for leaf in 0..t.leaf_count() {
            t.arrive_leaf(leaf);
        }
        assert!(t.query());
        for leaf in 0..t.leaf_count() {
            let last = leaf == t.leaf_count() - 1;
            assert_eq!(t.depart_leaf(leaf), last, "leaf {leaf}");
        }
        assert!(!t.query());
    }

    #[test]
    fn hash_spreads_keys() {
        let t = FixedSnzi::new(6, 0);
        let mut seen = vec![0u32; t.leaf_count()];
        for key in 0..10_000u64 {
            seen[t.leaf_for_key(key)] += 1;
        }
        let nonempty = seen.iter().filter(|&&c| c > 0).count();
        assert!(
            nonempty > t.leaf_count() / 2,
            "hash should reach most leaves, reached {nonempty}/{}",
            t.leaf_count()
        );
    }

    #[test]
    fn matched_key_arrive_depart() {
        let t = FixedSnzi::new(5, 0);
        let mut leaves = Vec::new();
        for key in 0..100u64 {
            leaves.push(t.arrive_key(key * 0x1234_5678_9ABC));
        }
        assert!(t.query());
        let mut endings = 0;
        for leaf in leaves {
            if t.depart_leaf(leaf) {
                endings += 1;
            }
        }
        assert_eq!(endings, 1);
        assert!(!t.query());
    }

    #[test]
    fn initial_surplus_visible() {
        let t = FixedSnzi::new(3, 7);
        assert!(t.query());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn leaf_bounds_checked() {
        let t = FixedSnzi::new(2, 0);
        t.arrive_leaf(4);
    }

    #[test]
    fn concurrent_balanced_traffic() {
        use std::sync::{Arc, Barrier};
        let t = Arc::new(FixedSnzi::new(3, 0));
        let threads = 4;
        let rounds = 500;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let t = Arc::clone(&t);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        let leaf = t.arrive_key((tid * rounds + round) as u64);
                        barrier.wait();
                        assert!(t.query());
                        barrier.wait();
                        let _ = t.depart_leaf(leaf);
                        barrier.wait();
                        assert!(!t.query());
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn move_of_struct_keeps_parent_pointers_valid() {
        // Vec buffer and Box<Root> do not move when FixedSnzi is moved.
        let t = FixedSnzi::new(4, 0);
        let boxed = Box::new(t); // move
        let leaf = boxed.arrive_key(42);
        assert!(boxed.query());
        let v = [*{ boxed }]; // another move
        assert!(v[0].depart_leaf(leaf));
    }
}
