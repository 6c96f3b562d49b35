//! What a tree can report about itself, to check the paper's bounds.
//!
//! A [`ContentionProfile`] is read by walking the tree
//! ([`SnziTree::contention_profile`](crate::SnziTree::contention_profile)):
//! its shape — node count and depth — is there in every build, because
//! the walk sees it. Only what the walk cannot see is counted, and only
//! under the `telemetry` feature, the switch of every other probe; a
//! build without it keeps and writes no statistics at all. As `obs` does
//! for its probes, the build without it has no-op twins — a zero-sized
//! `TreeStats` and `Touches` whose writes compile to nothing — so no
//! call site names the feature.
//!
//! What is counted is chosen so that a structure whose whole point is low
//! contention is not profiled with a hot shared counter — a per-operation
//! `fetch_add` on one tree-wide cache line would cost more than the
//! algorithm it measures. The tree-wide counters of `TreeStats` are
//! only touched on *rare* events:
//!
//! * `grow_losses` — a `grow` that lost its install race, at most once
//!   per allocated pair (with the recommended `p = 1/(25·cores)`, one in
//!   ~25·cores grows allocates one);
//! * `max_arrive_chain` / `max_depart_chain` — only when a propagation
//!   chain exceeds one node, which the paper's Theorem 4.8 makes rare by
//!   construction.
//!
//! Per-node touch tallies (for the Theorem 4.9 check) live on the nodes
//! themselves: they add one relaxed RMW to a cache line the operation
//! already owns, and the walk sums them.

use crate::node::Node;
use crate::root::Root;

#[cfg(feature = "telemetry")]
pub(crate) use counted::{Touches, TreeStats};
#[cfg(not(feature = "telemetry"))]
pub(crate) use uncounted::{Touches, TreeStats};

/// What a walk of a tree reports: its shape in every build, and under the
/// `telemetry` feature what the tree counted as it ran. A build without
/// it counts nothing, and those fields read 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionProfile {
    /// Total nodes in the tree (root included).
    pub nodes: u64,
    /// Deepest node in the tree (the root is at depth 0).
    pub max_depth: u32,
    /// Maximum non-trivial steps applied to any single node — the paper's
    /// Theorem 4.9 bounds this by 6 operations under the in-counter
    /// discipline.
    pub max_touch: u64,
    /// Sum of non-trivial steps across all nodes.
    pub total_touch: u64,
    /// Longest arrive propagation chain observed (at least 1 under
    /// `telemetry`): the number of nodes on which one top-level arrive
    /// ran. Corollary 4.7 bounds it by 3 for `p = 1` under the in-counter
    /// discipline.
    pub max_arrive_chain: u64,
    /// Longest depart propagation chain observed (at least 1 under
    /// `telemetry`).
    pub max_depart_chain: u64,
    /// Child pairs allocated by a `grow` that lost the install race (and
    /// freed again).
    pub grow_losses: u64,
}

impl ContentionProfile {
    /// A walk that has seen the root alone.
    pub(crate) fn of_root(root: &Root) -> ContentionProfile {
        let t = root.touches.get();
        ContentionProfile { nodes: 1, max_touch: t, total_touch: t, ..Default::default() }
    }

    /// Add one more node the walk reached.
    pub(crate) fn add(&mut self, node: &Node) {
        self.nodes += 1;
        self.max_depth = self.max_depth.max(node.depth);
        let t = node.touches.get();
        self.max_touch = self.max_touch.max(t);
        self.total_touch += t;
    }
}

/// The statistics of a `telemetry` build.
#[cfg(feature = "telemetry")]
mod counted {
    use std::sync::atomic::{AtomicU64, Ordering};

    use sched::step::Step;

    use super::ContentionProfile;

    /// Per-tree operation statistics (rare-event counters only; see
    /// module docs for why there is no per-operation counting).
    #[derive(Debug, Default)]
    pub(crate) struct TreeStats {
        /// Child pairs allocated but lost the installation race (freed).
        grow_losses: AtomicU64,
        /// Maximum number of arrive invocations performed by any single
        /// top-level arrive **that propagated** (chains of length 1 are
        /// not recorded; 0 therefore means "never exceeded 1").
        pub(super) max_arrive_chain: AtomicU64,
        /// As above for departs.
        max_depart_chain: AtomicU64,
    }

    impl TreeStats {
        #[inline(always)]
        pub(crate) fn record_arrive(&self, chain: u32) {
            if chain > 1 {
                self.max_arrive_chain.fetch_max(chain as u64, Ordering::Relaxed);
            }
        }

        #[inline(always)]
        pub(crate) fn record_depart(&self, chain: u32) {
            if chain > 1 {
                self.max_depart_chain.fetch_max(chain as u64, Ordering::Relaxed);
            }
        }

        #[inline(always)]
        pub(crate) fn record_grow_loss(&self) {
            self.grow_losses.fetch_add(1, Ordering::Relaxed);
        }

        /// Add what the tree counted that no walk can see.
        pub(crate) fn read_counters(&self, profile: &mut ContentionProfile) {
            profile.max_arrive_chain = self.max_arrive_chain.load(Ordering::Relaxed).max(1);
            profile.max_depart_chain = self.max_depart_chain.load(Ordering::Relaxed).max(1);
            profile.grow_losses = self.grow_losses.load(Ordering::Relaxed);
        }
    }

    /// A node's touch tally: the operations that made a non-trivial
    /// (state-changing) step on it. Theorem 4.9 bounds it by 6 under the
    /// in-counter discipline.
    #[derive(Debug, Default)]
    pub(crate) struct Touches(AtomicU64);

    impl Touches {
        /// `landed`, after counting the step if it did — committed the way
        /// `step` commits the step it counts.
        #[inline(always)]
        pub(crate) fn count<S: Step>(&self, step: S, landed: bool) -> bool {
            if landed {
                step.fetch_add(&self.0, 1, Ordering::Relaxed);
            }
            landed
        }

        pub(crate) fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }
}

/// The no-op twins of a build without `telemetry`: zero-sized, and every
/// write compiles to nothing.
#[cfg(not(feature = "telemetry"))]
mod uncounted {
    use sched::step::Step;

    use super::ContentionProfile;

    #[derive(Debug, Default)]
    pub(crate) struct TreeStats {}

    impl TreeStats {
        #[inline(always)]
        pub(crate) fn record_arrive(&self, _chain: u32) {}

        #[inline(always)]
        pub(crate) fn record_depart(&self, _chain: u32) {}

        #[inline(always)]
        pub(crate) fn record_grow_loss(&self) {}

        #[inline(always)]
        pub(crate) fn read_counters(&self, _profile: &mut ContentionProfile) {}
    }

    #[derive(Debug, Default)]
    pub(crate) struct Touches {}

    impl Touches {
        /// An inherent method that never calls the step: it inlines
        /// before `S` is known, so a plain build's steps compile as if no
        /// tally were there. (A method of `S` inlines only after
        /// monomorphisation, and that moved where the root's `arrive` is
        /// inlined.)
        #[inline(always)]
        pub(crate) fn count<S: Step>(&self, _step: S, landed: bool) -> bool {
            landed
        }

        #[inline(always)]
        pub(crate) fn get(&self) -> u64 {
            0
        }
    }
}

#[cfg(test)]
#[cfg(feature = "telemetry")]
mod tests {
    use std::sync::atomic::Ordering;

    use crate::SnziTree;

    #[test]
    fn snapshot_reflects_records() {
        let t = SnziTree::new(0);
        t.stats.record_arrive(3);
        t.stats.record_arrive(1);
        t.stats.record_depart(2);
        let profile = t.contention_profile();
        assert_eq!(profile.max_arrive_chain, 3);
        assert_eq!(profile.max_depart_chain, 2);
        assert_eq!(profile.nodes, 1);
    }

    #[test]
    fn unit_chains_are_not_recorded_but_report_one() {
        let t = SnziTree::new(0);
        t.stats.record_arrive(1);
        t.stats.record_depart(1);
        assert_eq!(t.stats.max_arrive_chain.load(Ordering::Relaxed), 0);
        assert_eq!(t.contention_profile().max_arrive_chain, 1);
        assert_eq!(t.contention_profile().max_depart_chain, 1);
    }

    #[test]
    fn max_is_monotone() {
        let t = SnziTree::new(0);
        t.stats.record_arrive(5);
        t.stats.record_arrive(2);
        assert_eq!(t.contention_profile().max_arrive_chain, 5);
    }
}
