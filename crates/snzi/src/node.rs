//! Hierarchical SNZI nodes (the paper's Figure 1; protocol from the
//! original SNZI paper).
//!
//! Each node stores a packed `(c, v)` word — a surplus counter that may
//! hold the intermediate value ½ plus a version number — a pointer to its
//! parent, and an atomically installable pair of children (the dynamic
//! extension). The invariants maintained are the two from the SNZI paper:
//!
//! 1. a node has surplus *due to its child* iff the child has surplus, and
//! 2. surplus due to a child is never negative.
//!
//! ### Arrive
//!
//! An arrival at a node with positive surplus just increments the counter
//! and stops — the parent already knows the subtree is non-zero. An arrival
//! at surplus 0 installs the intermediate value ½ (bumping the version),
//! arrives at the parent, and then tries to *complete* the ½ to a full 1.
//! Concurrent arrivals that observe ½ help: they too arrive at the parent
//! and race the completion CAS; every loser compensates its helping arrival
//! with an *undo departure* at the parent after it finishes. The net effect
//! is exactly one retained parent arrival per zero→non-zero phase change.
//!
//! ### Depart
//!
//! A departure decrements the counter; when it flips the surplus to zero it
//! recursively departs at the parent. In valid executions a departure never
//! observes ½ or 0 (its matching arrival completed earlier), which the code
//! asserts in debug builds.
//!
//! The `depart` path returns whether the chain of departures ended the
//! *root's* non-zero period — the readiness signal used by the in-counter
//! (the paper's implementation note: "our `snzi_depart` returns true if the
//! call brought the counter to zero").
//!
//! ### Two ways to commit a step
//!
//! `node_arrive` and `node_depart` — and the root's operations, in
//! [`crate::root`] — are written once, generic over the
//! [`sched::step::Step`] that commits each transition `old → new` of a
//! packed word: an `AcqRel` compare-and-swap, as the SNZI paper has it,
//! for an operation that may meet another thread, or with an
//! [`Exclusive`](sched::step::Exclusive) step a load and a `Relaxed` store
//! (a one-worker run's counters). The ½ and announce-bit transitions, the
//! version bumps, the [`OpPath`] counts and, under `telemetry`, the touch
//! tallies are identical either way, step for step.
//!
//! Alone on a tree, the ½ state and the announce bit are unobservable — an
//! arrival that installs ½ completes it to 1 before anyone can look — so an
//! exclusive arrival writes a word it overwrites at once. That is kept on
//! purpose: a second, sequential state machine without those steps was
//! measured 9 % faster on `fib` and would be a second algorithm to keep in
//! step with this one.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use sched::step::Step;

use crate::packed::{pack_node, unpack_node, HALF, MAX_NODE_SURPLUS, ONE};
use crate::root::Root;
use crate::stats::Touches;

/// Reference to a node's parent: either the tree root or another
/// hierarchical node. Immutable after construction.
#[derive(Copy, Clone)]
pub(crate) enum ParentRef {
    /// Parent is the tree root.
    Root(*const Root),
    /// Parent is an interior node.
    Node(*const Node),
}

/// Statistics returned by a single arrive/depart call chain. Always
/// computed (the compiler removes it when unused); the `telemetry` feature
/// only controls the per-node touch tallies and the tree's counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpPath {
    /// Number of nodes on which an `arrive` operation ran (the quantity
    /// bounded by 3 in Corollary 4.7).
    pub arrives: u32,
    /// Number of nodes on which a `depart` ran, including undo departures
    /// performed inside `arrive`.
    pub departs: u32,
}

impl OpPath {
    #[inline]
    fn merge(&mut self, other: OpPath) {
        self.arrives += other.arrives;
        self.departs += other.departs;
    }
}

/// One hierarchical SNZI node.
///
/// Nodes are created in pairs by [`grow`](crate::SnziTree::grow) and owned
/// by their tree; user code never holds a `&Node` directly, only an opaque
/// [`Handle`](crate::Handle).
///
/// Nodes are aligned to 128 bytes (two cache lines, covering adjacent-line
/// prefetching) so that sibling nodes — which the in-counter deliberately
/// hands to *different* threads — never share a cache line; false sharing
/// would reintroduce exactly the contention the tree exists to avoid.
#[repr(align(128))]
pub struct Node {
    /// Packed `(c_half, v)`.
    state: AtomicU64,
    /// Children pair, installed at most once by `grow` (null until then).
    pub(crate) children: AtomicPtr<ChildPair>,
    /// Parent link (never changes).
    pub(crate) parent: ParentRef,
    /// Identity of the owning tree, for debug validation of handles.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) tree_id: u32,
    /// Distance from the root (root = 0); used for reporting only.
    pub(crate) depth: u32,
    /// Number of operations that performed a non-trivial (state-changing)
    /// step on this node; Theorem 4.9 bounds this by 6 in the in-counter
    /// discipline. Zero-sized without `telemetry`.
    pub(crate) touches: Touches,
}

// SAFETY: all mutable state is atomic; parent/children pointers reference
// nodes that the owning tree keeps alive, and topology edges are written
// once before becoming visible (children via CAS with release ordering).
unsafe impl Send for Node {}
// SAFETY: as for `Send`: a shared `Node` is read and stepped only through
// its atomics and its write-once edges.
unsafe impl Sync for Node {}

/// A pair of sibling nodes allocated together by `grow`, giving the two new
/// children a single allocation and shared locality.
pub struct ChildPair {
    /// The left child.
    pub left: Node,
    /// The right child.
    pub right: Node,
}

impl Node {
    pub(crate) fn new(parent: ParentRef, tree_id: u32, depth: u32) -> Node {
        Node {
            state: AtomicU64::new(pack_node(0, 0)),
            children: AtomicPtr::new(std::ptr::null_mut()),
            parent,
            tree_id,
            depth,
            touches: Touches::default(),
        }
    }

    /// Current surplus in half units (test/diagnostic use).
    #[allow(dead_code)]
    pub(crate) fn surplus_half(&self) -> u32 {
        unpack_node(self.state.load(Ordering::Acquire)).0
    }

    /// Append the packed `(c_half, v)` word and the touch tally (0
    /// without `telemetry`) (differential tests).
    #[cfg(test)]
    pub(crate) fn state_for_test(&self, out: &mut Vec<u64>) {
        out.push(self.state.load(Ordering::Relaxed));
        out.push(self.touches.get());
    }

    /// Commit one step on this node's word, tallying it if it landed.
    #[inline(always)]
    fn cas<S: Step>(&self, step: S, old: u64, new: u64) -> bool {
        self.touches.count(step, step.cas(&self.state, old, new, Ordering::AcqRel))
    }
}

/// Arrive at `parent`, dispatching on its kind.
///
/// # Safety
/// The referenced parent must be alive (guaranteed by tree ownership).
#[inline]
pub(crate) unsafe fn parent_arrive<S: Step>(parent: ParentRef, step: S) -> OpPath {
    match parent {
        // SAFETY: parents outlive children; see type-level invariant.
        ParentRef::Root(r) => unsafe { (*r).arrive(step) },
        // SAFETY: as above.
        ParentRef::Node(n) => unsafe { node_arrive(&*n, step) },
    }
}

/// Depart at `parent`, dispatching on its kind. Returns `(ended_period,
/// path)` where `ended_period` is true iff the propagated departure chain
/// cleared the root indicator.
///
/// # Safety
/// As [`parent_arrive`].
#[inline]
pub(crate) unsafe fn parent_depart<S: Step>(parent: ParentRef, step: S) -> (bool, OpPath) {
    match parent {
        // SAFETY: as above.
        ParentRef::Root(r) => unsafe { (*r).depart(step) },
        // SAFETY: as above.
        ParentRef::Node(n) => unsafe { node_depart(&*n, step) },
    }
}

/// The hierarchical `arrive` operation (SNZI paper, Figure 3).
///
/// Parent propagation is recursive; the depth is the length of the
/// zero-surplus path above `node`, which the in-counter discipline bounds
/// by a constant (Corollary 4.7: at most 3 arrives per increment) and
/// generic use bounds by the tree depth. Departures, whose cascades are
/// *not* bounded per-operation, are iterative instead (see
/// [`node_depart`]).
///
/// # Safety
/// `node` must belong to a live tree.
pub(crate) unsafe fn node_arrive<S: Step>(node: &Node, step: S) -> OpPath {
    let mut path = OpPath { arrives: 1, departs: 0 };
    let mut succ = false;
    let mut undo = 0u32;
    while !succ {
        let x = node.state.load(Ordering::Acquire);
        let (c, v) = unpack_node(x);
        if c >= ONE {
            assert!(c / 2 < MAX_NODE_SURPLUS, "SNZI node surplus overflow (>{MAX_NODE_SURPLUS})");
            if node.cas(step, x, pack_node(c + ONE, v)) {
                succ = true;
            }
        } else if c == 0 {
            if node.cas(step, x, pack_node(HALF, v.wrapping_add(1))) {
                succ = true;
                // We installed the ½; arrive at the parent and try to
                // complete it (the paper re-enters the c == ½ case with
                // the freshly written value).
                let nv = v.wrapping_add(1);
                // SAFETY: caller contract.
                path.merge(unsafe { parent_arrive(node.parent, step) });
                if !node.cas(step, pack_node(HALF, nv), pack_node(ONE, nv)) {
                    undo += 1;
                }
            }
        } else {
            debug_assert_eq!(c, HALF);
            // Help complete someone else's ½: arrive at the parent first so
            // invariant (1) holds when the completion lands.
            // SAFETY: caller contract.
            path.merge(unsafe { parent_arrive(node.parent, step) });
            if !node.cas(step, pack_node(HALF, v), pack_node(ONE, v)) {
                undo += 1;
            }
        }
    }
    while undo > 0 {
        undo -= 1;
        // SAFETY: caller contract. Undo departures compensate surplus we
        // added at the parent moments ago, so they can never underflow,
        // and in valid in-counter executions they never end the root
        // period (there is always other surplus while an arrive races).
        let (_ended, p) = unsafe { parent_depart(node.parent, step) };
        path.merge(p);
    }
    path
}

/// The hierarchical `depart` operation (SNZI paper, Figure 3). Returns
/// whether the departure chain ended the root's non-zero period.
///
/// The upward cascade is **iterative**: although cascades are amortized
/// O(1) under the in-counter discipline, a *single* departure may legally
/// collapse an arbitrarily long chain of exactly-one-surplus ancestors
/// (e.g. the final signal of a wide flat fan-in completed in FIFO order),
/// and a recursive formulation overflows the stack on such chains.
///
/// # Safety
/// `node` must belong to a live tree, the departure must match an earlier
/// completed arrival at this node (validity, Definition 1).
///
/// `#[inline]` so that `SnziTree::depart` gets it inlined whatever
/// codegen unit the compiler puts each in: left to the split, it went out
/// of line when an unrelated change moved the split, and
/// `snzi.arrive_depart_ns` read 18 % higher (`cores: 2`).
#[inline]
pub(crate) unsafe fn node_depart<S: Step>(start: &Node, step: S) -> (bool, OpPath) {
    let mut path = OpPath { arrives: 0, departs: 0 };
    let mut node = start;
    loop {
        path.departs += 1;
        loop {
            let x = node.state.load(Ordering::Acquire);
            let (c, v) = unpack_node(x);
            assert!(
                c >= ONE,
                "SNZI depart on a node with surplus {c}/2: execution is not valid \
                 (more departs than completed arrives)"
            );
            if node.cas(step, x, pack_node(c - ONE, v)) {
                if c != ONE {
                    return (false, path);
                }
                // Our departure flipped this node to zero; propagate.
                match node.parent {
                    ParentRef::Root(r) => {
                        // SAFETY: invariant (1): the parent holds surplus
                        // due to this node, and parents outlive children.
                        let (ended, p) = unsafe { (*r).depart(step) };
                        path.merge(p);
                        return (ended, path);
                    }
                    ParentRef::Node(n) => {
                        // SAFETY: as above.
                        node = unsafe { &*n };
                    }
                }
                break; // continue the cascade at the parent
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use sched::step::Shared;

    use crate::tree::SnziTree;

    // The node protocol is exercised through `SnziTree`, which owns node
    // memory; direct construction here would need a parent. These tests
    // focus on single-node behaviours reachable through a tree of depth 1.

    // SAFETY (every test below): each handle is its own tree's, used while
    // the tree lives, and each depart follows an arrive at the same handle
    // that no other depart consumed — but in the test of the assert that
    // catches a depart without one before any step lands.

    #[test]
    fn arrive_then_depart_roundtrip_through_child() {
        let tree = SnziTree::new(0);
        // SAFETY: see the module comment.
        unsafe {
            let (l, _r) = tree.grow_always(tree.root_handle());
            assert!(!tree.query());
            tree.arrive(l);
            assert!(tree.query());
            assert!(tree.depart(l));
        }
        assert!(!tree.query());
    }

    #[test]
    fn multiple_arrivals_at_child_reach_parent_once() {
        let tree = SnziTree::new(0);
        // SAFETY: see the module comment.
        let (l, _r) = unsafe { tree.grow_always(tree.root_handle()) };
        for _ in 0..10 {
            // SAFETY: see the module comment.
            unsafe { tree.arrive(l) };
        }
        // Root surplus should be exactly 1 (one retained phase-change
        // arrival), not 10.
        assert_eq!(tree.root_surplus_for_test(), 1);
        for i in 0..10 {
            // SAFETY: see the module comment.
            let ended = unsafe { tree.depart(l) };
            assert_eq!(ended, i == 9, "only the last depart ends the period");
        }
        assert!(!tree.query());
    }

    #[test]
    #[should_panic(expected = "not valid")]
    fn depart_without_arrive_panics() {
        let tree = SnziTree::new(0);
        // SAFETY: see the module comment.
        unsafe {
            let (l, _r) = tree.grow_always(tree.root_handle());
            let _ = tree.depart(l);
        }
    }

    #[test]
    fn deep_chain_propagates_both_ways() {
        let tree = SnziTree::new(0);
        let mut h = tree.root_handle();
        for _ in 0..32 {
            // SAFETY: see the module comment.
            let (l, _r) = unsafe { tree.grow_always(h) };
            h = l;
        }
        // SAFETY: see the module comment.
        unsafe {
            tree.arrive(h);
            assert!(tree.query());
            assert!(tree.depart(h));
        }
        assert!(!tree.query());
    }

    #[test]
    fn surplus_parked_above_short_circuits_arrivals_below() {
        let tree = SnziTree::new(0);
        // SAFETY: see the module comment.
        let path = unsafe {
            let (l, _r) = tree.grow_always(tree.root_handle());
            let (ll, _lr) = tree.grow_always(l);
            tree.arrive(l);
            // Arriving at the grandchild now stops at `l` (surplus ≥ 1
            // there).
            tree.arrive_with(ll, Shared)
        };
        assert_eq!(path.arrives, 2, "grandchild + child, root untouched");
    }
}
