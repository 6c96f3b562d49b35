//! The dynamically growing SNZI tree (Section 2 of the paper).
//!
//! A [`SnziTree`] starts as a single root and is extended at run time by
//! [`grow`](SnziTree::grow): given a handle to any node, `grow` flips a
//! `p`-biased coin and, on heads, tries to atomically install a freshly
//! allocated pair of children under that node. The coin is flipped *before*
//! the children pointer is read — the paper's key adversary-resistance
//! property — so that even fully concurrent calls return "no children" at
//! most `1/p` times in expectation.
//!
//! The tree owns every node it ever created; nodes are freed only when the
//! tree is dropped, and its steps take no epoch guard. Deleting finished
//! subtrees early, the paper's Appendix B, is a type of its own that wraps
//! this one: [`ShrinkingTree`](crate::ShrinkingTree). Node memory — the
//! root and every child pair — is born and ended through the scheduler's
//! size-class recycler ([`sched::recycle::alloc`] / [`sched::recycle::free`],
//! whose 128 B and 256 B classes carry the nodes' two-line alignment): an
//! in-counter is made per finish scope that forks, so a tree that went to
//! the plain allocator would put one process-wide lock under every such
//! scope. The `SnziTree` object itself — the root pointer, the coin, the
//! identity and, under `telemetry` only, the statistics — is plain data
//! its owner places: `spdag` keeps it out of the vertex, in one more slab
//! of that recycler (the 32 B class; the 64 B class under `telemetry`).
//! [`Handle`]s are plain
//! copyable pointers into the tree, which is why the handle-based
//! operations are `unsafe`: the caller must keep the tree alive and respect
//! execution validity. The `incounter`/`spdag` crates enforce both
//! structurally.

#[cfg(debug_assertions)]
use std::sync::atomic::AtomicU32;
use std::sync::atomic::Ordering;

use sched::recycle;

use crate::coin::{Coin, Probability, ThreadCoin};
use sched::step::{Shared, Step};

use crate::node::{node_arrive, node_depart, ChildPair, Node, OpPath, ParentRef};
use crate::packed::MAX_ROOT_SURPLUS;
use crate::root::Root;
use crate::stats::{ContentionProfile, TreeStats};

/// Allocate a fresh tree identity.
///
/// Identities feed only the debug handle-ownership check
/// (`check_handle`), so only debug builds pay for distinct ones — a
/// process-global read-modify-write per tree, i.e. per finish block.
/// Release builds stamp every tree 0 and write no shared word.
fn next_tree_id() -> u32 {
    #[cfg(debug_assertions)]
    {
        static TREE_IDS: AtomicU32 = AtomicU32::new(1);
        TREE_IDS.fetch_add(1, Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    0
}

/// Deepest complete tree [`SnziTree::grow_complete`] builds: 2^21 − 1
/// nodes, about 2 M (the paper sweeps fixed depths 1..=9).
pub const MAX_DEPTH: u32 = 20;

#[derive(Copy, Clone)]
pub(crate) enum NodeRefInner {
    Root(*const Root),
    Node(*const Node),
}

/// An opaque, copyable reference to a node of a [`SnziTree`].
///
/// A handle is only meaningful together with the tree that produced it; all
/// operations consuming handles are `unsafe` with that contract. Handles
/// are freely copyable and sendable because the underlying nodes are
/// reachable until the owning tree is dropped.
#[derive(Copy, Clone)]
pub struct Handle(pub(crate) NodeRefInner);

// SAFETY: a Handle is an address; the pointee is Sync and kept alive by
// the owning tree per the documented contract.
unsafe impl Send for Handle {}
// SAFETY: as for `Send`: sharing a `Handle` shares only the address.
unsafe impl Sync for Handle {}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            NodeRefInner::Root(p) => write!(f, "Handle(root {p:p})"),
            NodeRefInner::Node(p) => write!(f, "Handle(node {p:p})"),
        }
    }
}

impl Handle {
    /// Depth of the referenced node (root = 0). Diagnostic use.
    ///
    /// # Safety
    /// The owning tree must be alive.
    pub unsafe fn depth(self) -> u32 {
        match self.0 {
            NodeRefInner::Root(_) => 0,
            // SAFETY: caller contract.
            NodeRefInner::Node(n) => unsafe { (*n).depth },
        }
    }

    /// Whether this handle references the tree root.
    pub fn is_root(self) -> bool {
        matches!(self.0, NodeRefInner::Root(_))
    }

    /// Pointer identity, for assertions about handle distinctness.
    pub fn addr(self) -> usize {
        match self.0 {
            NodeRefInner::Root(p) => p as usize,
            NodeRefInner::Node(p) => p as usize,
        }
    }
}

/// A dynamically growing scalable non-zero indicator.
pub struct SnziTree {
    /// Born by `recycle::alloc` in the constructor, ended by `Drop`; never
    /// null, never replaced, so `&self` may always dereference it.
    root: *mut Root,
    p: Probability,
    id: u32,
    /// The tree's counters, zero-sized without `telemetry`: a plain tree
    /// writes nothing after construction.
    pub(crate) stats: TreeStats,
}

// SAFETY: `root` is the unique owning pointer to a `Root`, which is
// `Send + Sync` (all of its mutable state is atomic), so the tree is what
// a box of one would be; the remaining fields are plain data and atomics.
unsafe impl Send for SnziTree {}
// SAFETY: as for `Send`: `&SnziTree` reaches the `Root` only through its
// atomics, and the other fields are read-only after construction.
unsafe impl Sync for SnziTree {}

impl SnziTree {
    /// Create a tree with the given initial surplus and growth probability
    /// `p = 1` (grow on every call) — the regime of the paper's analysis.
    pub fn new(initial: u64) -> SnziTree {
        SnziTree::with_probability(initial, Probability::ALWAYS)
    }

    /// Create a tree with the given initial surplus and growth probability.
    pub fn with_probability(initial: u64, p: Probability) -> SnziTree {
        assert!(initial <= MAX_ROOT_SURPLUS as u64, "initial surplus too large");
        let id = next_tree_id();
        obs::counter!("snzi.trees_created").inc();
        SnziTree {
            root: recycle::alloc(|| Root::new(initial as u32, id)).0,
            p,
            id,
            stats: TreeStats::default(),
        }
    }

    /// The growth probability this tree was configured with.
    pub fn probability(&self) -> Probability {
        self.p
    }

    #[inline]
    fn root(&self) -> &Root {
        // SAFETY: see the field: alive from the constructor to `Drop`.
        unsafe { &*self.root }
    }

    /// Handle to the root node.
    pub fn root_handle(&self) -> Handle {
        Handle(NodeRefInner::Root(self.root))
    }

    /// `query`: does the tree have surplus? Reads one word at the root.
    #[inline]
    pub fn query(&self) -> bool {
        self.root().query()
    }

    #[inline]
    fn check_handle(&self, h: Handle) {
        #[cfg(debug_assertions)]
        {
            let tid = match h.0 {
                // SAFETY: part of the arrive/depart/grow caller contract.
                NodeRefInner::Root(r) => unsafe { (*r).tree_id },
                // SAFETY: as above.
                NodeRefInner::Node(n) => unsafe { (*n).tree_id },
            };
            assert_eq!(tid, self.id, "handle used with a tree that does not own it");
        }
        let _ = h;
    }

    /// `arrive`: increment the relaxed counter starting at `h`.
    ///
    /// # Safety
    /// `h` must have been produced by this tree, and the tree must outlive
    /// the call.
    pub unsafe fn arrive(&self, h: Handle) {
        // SAFETY: forwarded contract.
        let _ = unsafe { self.arrive_with(h, Shared) };
    }

    /// [`arrive`](Self::arrive) with each step committed by `step`
    /// (`crate::node`, "Two ways to commit a step"), returning the
    /// propagation path counts. An
    /// [`Exclusive`](sched::step::Exclusive) step's promise covers this
    /// tree's arrives and departs; `query` and `grow` may overlap the call.
    ///
    /// # Safety
    /// As [`arrive`](Self::arrive).
    pub unsafe fn arrive_with<S: Step>(&self, h: Handle, step: S) -> OpPath {
        self.check_handle(h);
        let path = match h.0 {
            // SAFETY: caller contract.
            NodeRefInner::Root(r) => unsafe { (*r).arrive(step) },
            // SAFETY: caller contract.
            NodeRefInner::Node(n) => unsafe { node_arrive(&*n, step) },
        };
        self.stats.record_arrive(path.arrives);
        path
    }

    /// `depart`: decrement the relaxed counter starting at `h`. Returns
    /// `true` iff this departure ended the tree's non-zero period (i.e.
    /// took the surplus to zero) — the readiness signal.
    ///
    /// # Safety
    /// `h` must have been produced by this tree, the tree must outlive the
    /// call, and the execution must be valid: this departure matches an
    /// earlier completed arrival at the same node that no other departure
    /// consumes.
    pub unsafe fn depart(&self, h: Handle) -> bool {
        // SAFETY: forwarded contract.
        unsafe { self.depart_with(h, Shared) }.0
    }

    /// [`depart`](Self::depart) with each step committed by `step`, as
    /// [`arrive_with`](Self::arrive_with) is `arrive`'s, returning the
    /// propagation path counts too.
    ///
    /// # Safety
    /// As [`depart`](Self::depart).
    pub unsafe fn depart_with<S: Step>(&self, h: Handle, step: S) -> (bool, OpPath) {
        self.check_handle(h);
        let (ended, path) = match h.0 {
            // SAFETY: caller contract.
            NodeRefInner::Root(r) => unsafe { (*r).depart(step) },
            // SAFETY: caller contract.
            NodeRefInner::Node(n) => unsafe { node_depart(&*n, step) },
        };
        self.stats.record_depart(path.departs);
        (ended, path)
    }

    /// `grow` (the paper's Figure 2): flip the tree's coin and, on heads,
    /// try to install a fresh pair of children under `h`. Returns handles
    /// to `h`'s children if it has any (whether installed by this call or
    /// an earlier one) and `(h, h)` otherwise.
    ///
    /// # Safety
    /// `h` must have been produced by this tree and the tree must outlive
    /// the call.
    #[inline]
    pub unsafe fn grow(&self, h: Handle) -> (Handle, Handle) {
        // SAFETY: forwarded contract.
        unsafe { self.grow_with(h, &mut ThreadCoin) }
    }

    /// As [`grow`](Self::grow) with an explicit coin source (deterministic
    /// tests, benchmark reproducibility).
    ///
    /// # Safety
    /// As [`grow`](Self::grow).
    pub unsafe fn grow_with(&self, h: Handle, coin: &mut impl Coin) -> (Handle, Handle) {
        // Flip before reading the children pointer: an adversary that
        // cannot see local coins cannot force more than 1/p childless
        // returns in expectation (Section 2).
        let heads = coin.flip(self.p);
        // SAFETY: forwarded contract.
        unsafe { self.grow_impl(h, heads) }
    }

    /// `grow` with the coin forced to heads; used by tests and by callers
    /// that have already made the growth decision.
    ///
    /// # Safety
    /// As [`grow`](Self::grow).
    pub unsafe fn grow_always(&self, h: Handle) -> (Handle, Handle) {
        // SAFETY: forwarded contract.
        unsafe { self.grow_impl(h, true) }
    }

    /// Grow the tree complete to depth `levels` — the paper's fixed-depth
    /// SNZI tree, 2^(levels+1) − 1 nodes, by `2^levels − 1` calls of
    /// [`grow_always`](Self::grow_always) — and return its `2^levels`
    /// leaves left to right (the root alone at depth 0). Pairs grown
    /// before are kept.
    ///
    /// # Panics
    /// If `levels > MAX_DEPTH`, before any pair is installed.
    pub fn grow_complete(&self, levels: u32) -> Vec<Handle> {
        assert!(levels <= MAX_DEPTH, "depth {levels} exceeds MAX_DEPTH {MAX_DEPTH}");
        let mut frontier = vec![self.root_handle()];
        for _ in 0..levels {
            let mut next = Vec::with_capacity(frontier.len() * 2);
            for h in frontier {
                // SAFETY: `h` is this tree's root or a child it returned,
                // and `&self` keeps the tree alive for the call.
                let (a, b) = unsafe { self.grow_always(h) };
                next.extend([a, b]);
            }
            frontier = next;
        }
        frontier
    }

    unsafe fn grow_impl(&self, h: Handle, heads: bool) -> (Handle, Handle) {
        self.check_handle(h);
        let (children, parent_ref, depth) = match h.0 {
            // SAFETY: caller contract.
            NodeRefInner::Root(r) => unsafe { (&(*r).children, ParentRef::Root(r), 0) },
            // SAFETY: caller contract.
            NodeRefInner::Node(n) => unsafe { (&(*n).children, ParentRef::Node(n), (*n).depth) },
        };
        if heads && children.load(Ordering::Acquire).is_null() {
            let (pair, _) = recycle::alloc(|| ChildPair {
                left: Node::new(parent_ref, self.id, depth + 1),
                right: Node::new(parent_ref, self.id, depth + 1),
            });
            match children.compare_exchange(
                std::ptr::null_mut(),
                pair,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => obs::counter!("snzi.grow_installs").inc(),
                Err(_) => {
                    // Lost the race; reclaim the local allocation.
                    // SAFETY: `pair` came from `recycle::alloc` above and
                    // was never published.
                    unsafe { recycle::free(pair) };
                    self.stats.record_grow_loss();
                }
            }
        }
        let c = children.load(Ordering::Acquire);
        if c.is_null() {
            return (h, h);
        }
        // SAFETY: `c` points to a pair owned by this tree, alive until drop.
        let pair = unsafe { &*c };
        (Handle(NodeRefInner::Node(&pair.left)), Handle(NodeRefInner::Node(&pair.right)))
    }

    /// Walk the tree: its node count and depth on every build and, under
    /// `telemetry`, its touch tallies and counters ([`ContentionProfile`]).
    /// Intended for tests and reports. Exact when no operation overlaps
    /// the walk; otherwise it sees some of them. It reads only what a
    /// `grow` publishes. A plain tree frees a node only when it drops.
    /// Through a [`ShrinkingTree`](crate::ShrinkingTree)'s view, a node
    /// that [`prune_children_deferred`](crate::shrink::Pinned::prune_children_deferred)
    /// detaches goes only after the guard of the view the walk runs
    /// through; one that [`prune_children`](crate::shrink::Pinned::prune_children)
    /// detaches goes at once, so that prune's caller must keep every walk
    /// off the tree while it runs.
    pub fn contention_profile(&self) -> ContentionProfile {
        let mut profile = ContentionProfile::of_root(self.root());
        let mut stack = Vec::new();
        let first = self.root().children.load(Ordering::Acquire);
        if !first.is_null() {
            stack.push(first);
        }
        while let Some(p) = stack.pop() {
            // SAFETY: pairs reachable from the root are owned by this tree
            // and alive (see above).
            let pair = unsafe { &*p };
            for child in [&pair.left, &pair.right] {
                profile.add(child);
                let c = child.children.load(Ordering::Acquire);
                if !c.is_null() {
                    stack.push(c);
                }
            }
        }
        self.stats.read_counters(&mut profile);
        profile
    }

    /// Internal: null the children pointer of `h`'s node and return the
    /// subtree it led to (the shrink module's one way to detach).
    ///
    /// # Safety
    /// `h` must belong to this tree, which must be alive.
    pub(crate) unsafe fn detach_children(&self, h: Handle) -> *mut ChildPair {
        self.check_handle(h);
        let children = match h.0 {
            // SAFETY: caller contract.
            NodeRefInner::Root(r) => unsafe { &(*r).children },
            // SAFETY: caller contract.
            NodeRefInner::Node(n) => unsafe { &(*n).children },
        };
        children.swap(std::ptr::null_mut(), Ordering::AcqRel)
    }

    /// Root surplus, for tests.
    #[doc(hidden)]
    pub fn root_surplus_for_test(&self) -> u32 {
        self.root().surplus()
    }

    /// Every packed word and touch tally of the tree: the root's, then each
    /// node's depth-first, left before right (differential tests).
    #[cfg(test)]
    pub(crate) fn state_for_test(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.root().state_for_test(&mut out);
        let mut stack = vec![self.root().children.load(Ordering::Relaxed)];
        while let Some(p) = stack.pop() {
            if p.is_null() {
                continue;
            }
            // SAFETY: pairs are owned by this tree, alive while it is.
            let pair = unsafe { &*p };
            pair.left.state_for_test(&mut out);
            pair.right.state_for_test(&mut out);
            stack.push(pair.right.children.load(Ordering::Relaxed));
            stack.push(pair.left.children.load(Ordering::Relaxed));
        }
        out
    }
}

/// Free the chain of child pairs rooted at `first` iteratively (the tree
/// can be deep; recursion would risk stack overflow).
///
/// # Safety
/// The caller must have exclusive access to the whole subtree.
pub(crate) unsafe fn free_subtrees(first: *mut ChildPair) -> u64 {
    let mut freed = 0u64;
    let mut stack = Vec::new();
    if !first.is_null() {
        stack.push(first);
    }
    while let Some(p) = stack.pop() {
        // SAFETY: exclusive access per caller contract; every pair was born
        // by `recycle::alloc` in `grow_impl` and is ended here, once.
        unsafe {
            for child in [&(*p).left, &(*p).right] {
                let c = child.children.load(Ordering::Relaxed);
                if !c.is_null() {
                    stack.push(c);
                }
            }
            recycle::free(p);
        }
        freed += 2;
    }
    freed
}

impl Drop for SnziTree {
    fn drop(&mut self) {
        let first = self.root().children.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: &mut self gives exclusive access to the whole tree, and
        // the root is the constructor's `recycle::alloc`, ended here.
        unsafe {
            free_subtrees(first);
            recycle::free(self.root);
        }
    }
}

#[cfg(test)]
mod tests {
    use sched::step::{differential, Differential};

    use super::*;
    use crate::coin::XorShift64Star;

    /// One copy of a growing tree under [`differential`]: its handles on
    /// the nodes grown so far (node 0 is the root), its own growth coin —
    /// seeded alike in every copy, so the shapes stay equal — and the
    /// completed arrivals not yet departed, by node.
    struct TreeCopy {
        tree: SnziTree,
        coin: XorShift64Star,
        handles: Vec<Handle>,
        arrivals: Vec<usize>,
    }

    // SAFETY: `apply` steps this copy's own tree alone, on the calling
    // thread.
    unsafe impl Differential for TreeCopy {
        /// Whether a grow found children or a depart ended the period, and
        /// the path; then every word and tally, the profile and the query.
        type Seen = (bool, OpPath, Vec<u64>, ContentionProfile, bool);

        fn apply<S: Step>(&mut self, draw: u64, step: S) -> Self::Seen {
            let mut pick = XorShift64Star::new(draw);
            let what = pick.next_below(8);
            let (flag, path) = if what < 2 {
                let i = pick.next_below(self.handles.len());
                // SAFETY: every handle belongs to this copy's tree.
                let (l, r) = unsafe { self.tree.grow_with(self.handles[i], &mut self.coin) };
                let has = l.addr() != self.handles[i].addr();
                if has && self.handles.iter().all(|h| h.addr() != l.addr()) {
                    self.handles.extend([l, r]);
                }
                (has, OpPath::default())
            } else if what < 5 || self.arrivals.is_empty() {
                let i = pick.next_below(self.handles.len());
                self.arrivals.push(i);
                // SAFETY: as above.
                (false, unsafe { self.tree.arrive_with(self.handles[i], step) })
            } else {
                let i = self.arrivals.swap_remove(pick.next_below(self.arrivals.len()));
                // SAFETY: as above, and the depart matches a completed
                // arrival at the same node that no other depart consumes.
                let (ended, path) = unsafe { self.tree.depart_with(self.handles[i], step) };
                assert_eq!(ended, self.arrivals.is_empty(), "the last depart ends the period");
                (ended, path)
            };
            let t = &self.tree;
            (flag, path, t.state_for_test(), t.contention_profile(), t.query())
        }
    }

    #[test]
    fn trees_step_alike_under_every_step() {
        for p in [Probability::ALWAYS, Probability::NEVER, Probability::default_for_cores(2)] {
            for seed in 1..=8u64 {
                for initial in [0, 1] {
                    let seed = seed * 0x9E37_79B9 + initial;
                    let copy = || {
                        let tree = SnziTree::with_probability(initial, p);
                        TreeCopy {
                            handles: vec![tree.root_handle()],
                            tree,
                            coin: XorShift64Star::new(seed ^ 0xC0FF_EE00),
                            // The initial surplus sits at the root.
                            arrivals: vec![0; initial as usize],
                        }
                    };
                    differential(copy, seed, 600);
                }
            }
        }
    }

    // SAFETY (the tests below): each handle is its own tree's, used while
    // the tree lives, and each depart follows an arrive at the same handle
    // that no other depart consumed — but in the test of the debug check
    // that catches another tree's handle before any step lands.

    #[test]
    fn fresh_tree_query_matches_initial() {
        assert!(!SnziTree::new(0).query());
        assert!(SnziTree::new(1).query());
        assert!(SnziTree::new(1000).query());
    }

    #[test]
    fn root_arrive_depart() {
        let t = SnziTree::new(0);
        let r = t.root_handle();
        // SAFETY: see the comment above the tests.
        unsafe {
            t.arrive(r);
            assert!(t.query());
            assert!(t.depart(r));
            assert!(!t.query());
        }
    }

    #[test]
    fn grow_installs_children_once() {
        let t = SnziTree::new(0);
        let r = t.root_handle();
        // SAFETY: see the comment above the tests.
        let ((l1, r1), (l2, r2)) = unsafe { (t.grow_always(r), t.grow_always(r)) };
        assert_eq!(l1.addr(), l2.addr());
        assert_eq!(r1.addr(), r2.addr());
        assert_ne!(l1.addr(), r1.addr());
        assert_eq!(t.contention_profile().nodes, 3, "one pair installed");
    }

    #[test]
    fn grow_with_never_coin_returns_self() {
        let t = SnziTree::with_probability(0, Probability::NEVER);
        let r = t.root_handle();
        // SAFETY: see the comment above the tests.
        let (a, b) = unsafe { t.grow(r) };
        assert_eq!(a.addr(), r.addr());
        assert_eq!(b.addr(), r.addr());
        assert_eq!(t.contention_profile().nodes, 1, "no pair installed");
    }

    #[test]
    fn grow_probabilistic_expected_installs() {
        // With p = 1/4, the first install should happen after ~4 calls.
        let mut coin = XorShift64Star::new(12345);
        let t = SnziTree::with_probability(0, Probability::one_over(4));
        let r = t.root_handle();
        let mut calls = 0u64;
        while t.contention_profile().nodes == 1 {
            // SAFETY: see the comment above the tests.
            let _ = unsafe { t.grow_with(r, &mut coin) };
            calls += 1;
            assert!(calls < 1000, "coin never landed heads?");
        }
        // Loose bound: p=1/4 should fire within 100 tries w.h.p.
        assert!(calls <= 100);
    }

    #[test]
    fn grow_complete_returns_the_leaves_left_to_right() {
        for levels in 0..=5u32 {
            let t = SnziTree::new(0);
            let leaves = t.grow_complete(levels);
            assert_eq!(leaves.len(), 1 << levels, "levels {levels}");
            let profile = t.contention_profile();
            assert_eq!(profile.nodes, (1 << (levels + 1)) - 1, "levels {levels}");
            assert_eq!(profile.max_depth, levels, "levels {levels}");
            // SAFETY: see the comment above the tests.
            assert!(leaves.iter().all(|&h| unsafe { h.depth() } == levels));
        }
        let t = SnziTree::new(0);
        let leaves = t.grow_complete(2);
        // SAFETY: see the comment above the tests.
        let (ll, lr) = unsafe { t.grow_always(t.grow_always(t.root_handle()).0) };
        assert_eq!([leaves[0].addr(), leaves[1].addr()], [ll.addr(), lr.addr()]);
    }

    #[test]
    fn handles_report_depth() {
        let t = SnziTree::new(0);
        let r = t.root_handle();
        assert!(r.is_root());
        // SAFETY: see the comment above the tests.
        unsafe {
            assert_eq!(r.depth(), 0);
            let (l, _) = t.grow_always(r);
            assert!(!l.is_root());
            assert_eq!(l.depth(), 1);
            let (ll, _) = t.grow_always(l);
            assert_eq!(ll.depth(), 2);
        }
    }

    #[test]
    fn deep_tree_drops_without_stack_overflow() {
        let t = SnziTree::new(0);
        let mut h = t.root_handle();
        for _ in 0..100_000 {
            // SAFETY: see the comment above the tests.
            let (l, _) = unsafe { t.grow_always(h) };
            h = l;
        }
        assert_eq!(t.contention_profile().nodes, 1 + 2 * 100_000);
        drop(t); // must not overflow the stack
    }

    #[test]
    fn prune_children_frees_subtree() {
        let s = crate::shrink::ShrinkingTree::new(0);
        let t = s.pinned();
        let r = t.root_handle();
        // SAFETY: see the comment above the tests; no other handle is in
        // use below `l` when it is pruned.
        unsafe {
            let (l, _) = t.grow_always(r);
            let (ll, _) = t.grow_always(l);
            let _ = t.grow_always(ll);
            // Subtree below `l`: pair(ll,lr) + pair under ll = 4 nodes.
            assert_eq!(t.prune_children(l), 4);
            // Growing again after a prune re-installs fresh children.
            let (nl, _) = t.grow_always(l);
            assert_ne!(nl.addr(), ll.addr());
        }
    }

    #[test]
    fn surplus_survives_grow() {
        let t = SnziTree::new(5);
        let r = t.root_handle();
        // SAFETY: see the comment above the tests.
        let _ = unsafe { t.grow_always(r) };
        assert!(t.query());
        assert_eq!(t.root_surplus_for_test(), 5);
    }

    #[test]
    fn contention_profile_counts_nodes() {
        let t = SnziTree::new(0);
        let r = t.root_handle();
        // SAFETY: see the comment above the tests.
        let _ = unsafe { t.grow_always(t.grow_always(r).0) };
        let prof = t.contention_profile();
        assert_eq!(prof.nodes, 5);
        assert_eq!(prof.max_depth, 2);
    }

    #[test]
    fn concurrent_grow_single_install() {
        use std::sync::Arc;
        let t = Arc::new(SnziTree::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let r = t.root_handle();
                // SAFETY: see the comment above the tests.
                let (l, rr) = unsafe { t.grow_always(r) };
                (l.addr(), rr.addr())
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let first = results[0];
        for r in &results {
            assert_eq!(*r, first, "all threads must see the same installed pair");
        }
        let profile = t.contention_profile();
        assert_eq!(profile.nodes, 3, "one pair installed");
        #[cfg(feature = "telemetry")]
        assert!(profile.grow_losses <= 7, "1 install + losses <= 8 grows");
    }

    #[test]
    fn a_plain_tree_keeps_no_statistics() {
        // Nothing in a plain tree is written after construction — its root
        // pointer, coin and identity — so it rides the 32 B class: the slab
        // every forking scope's in-counter takes. The statistics come with
        // `telemetry` alone.
        let size = std::mem::size_of::<SnziTree>();
        let class = recycle::class_bytes(recycle::class_of::<SnziTree>().expect("on the ladder"));
        #[cfg(not(feature = "telemetry"))]
        {
            assert!(size <= 32, "a plain SnziTree is {size} B");
            assert_eq!(class, 32, "a plain SnziTree");
        }
        #[cfg(feature = "telemetry")]
        {
            assert!(size <= 64, "SnziTree under telemetry is {size} B");
            assert_eq!(class, 64, "SnziTree under telemetry");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn tree_ids_are_distinct() {
        let a = SnziTree::new(0);
        let b = SnziTree::new(0);
        assert_ne!(a.id, b.id);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not own")]
    fn cross_tree_handle_caught_in_debug() {
        let a = SnziTree::new(0);
        let b = SnziTree::new(0);
        let ha = a.root_handle();
        // SAFETY: see the comment above the tests.
        unsafe { b.arrive(ha) };
    }
}
