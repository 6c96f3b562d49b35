//! Dynamic shrinking of SNZI trees (the paper's Appendix B), with
//! epoch-based reclamation.
//!
//! Appendix B establishes when deletion is safe:
//!
//! * **Lemma B.1** — a node whose surplus was positive and returned to
//!   zero may be deleted: by Lemma 4.6 no live handle points into its
//!   subtree anymore.
//! * **Theorem B.3** — once the dag vertex owning the increment handle to
//!   node `a` has *finished* (signalled, and both of its children
//!   finished), the entire subtree strictly below `a` may be deleted.
//!
//! Both conditions guarantee no *future* operation will start in the
//! subtree. What they do not rule out on their own is an operation that is
//! still *in flight* — a departure that has performed its final decrement
//! but whose call frames are still returning, or a helper spinning on a
//! stale read. The C++ implementation leans on quiescence arguments; here
//! the gap is closed mechanically with [`crossbeam::epoch`], and by a type:
//!
//! * a [`ShrinkingTree`] owns a [`SnziTree`] and reaches it only through
//!   [`pinned`](ShrinkingTree::pinned), a [`Pinned`] view that holds an
//!   epoch guard for as long as it lives, so every `arrive`/`depart`/`grow`
//!   on a tree that may shrink runs pinned;
//! * [`Pinned::prune_children_deferred`] detaches the subtree with a
//!   single atomic swap and registers its destruction with the collector,
//!   which frees the memory only after every guard pinned at (or before)
//!   the detach has been dropped.
//!
//! A plain [`SnziTree`] (Section 2's, the in-counters' tree) never deletes
//! a node before it drops: its steps take no guard, and it cannot prune.
//!
//! A detached-but-not-yet-freed subtree remains perfectly functional for
//! stragglers: parent pointers still lead out of it into the live tree, so
//! even a propagating departure caught mid-flight completes correctly —
//! detaching only removes the path *in*, which is exactly what the
//! Appendix B preconditions already guarantee nobody needs.

use std::ops::Deref;
use std::sync::atomic::Ordering;

use crossbeam::epoch::{self, Guard};

use crate::coin::Probability;
use crate::tree::{free_subtrees, Handle, SnziTree};

/// A [`SnziTree`] whose subtrees may be deleted while it is in use
/// (Appendix B). Its only way to the tree is [`pinned`](Self::pinned).
pub struct ShrinkingTree {
    tree: SnziTree,
}

impl ShrinkingTree {
    /// As [`SnziTree::new`].
    pub fn new(initial: u64) -> ShrinkingTree {
        ShrinkingTree { tree: SnziTree::new(initial) }
    }

    /// As [`SnziTree::with_probability`].
    pub fn with_probability(initial: u64, p: Probability) -> ShrinkingTree {
        ShrinkingTree { tree: SnziTree::with_probability(initial, p) }
    }

    /// Pin the current thread in the default epoch domain and view the
    /// tree through the guard: a subtree detached while the view lives is
    /// freed only after it drops.
    pub fn pinned(&self) -> Pinned<'_> {
        Pinned { tree: &self.tree, guard: epoch::pin() }
    }
}

/// The tree of a [`ShrinkingTree`] under an epoch guard. It dereferences
/// to the [`SnziTree`], and the borrow it hands out cannot outlive it.
pub struct Pinned<'t> {
    tree: &'t SnziTree,
    guard: Guard<'static>,
}

impl Deref for Pinned<'_> {
    type Target = SnziTree;
    fn deref(&self) -> &SnziTree {
        self.tree
    }
}

impl Pinned<'_> {
    /// Detach and free the entire subtree **below** `h` (excluding `h`
    /// itself), following the paper's Appendix B safety property: once the
    /// dag vertex owning the increment handle to `h` has finished, no live
    /// handle points into `h`'s subtree, so it may be deleted.
    ///
    /// Returns the number of nodes freed.
    ///
    /// # Safety
    /// `h` must have been produced by this tree and — this is the
    /// Appendix B obligation — no other thread may concurrently access any
    /// node strictly below `h`, now or later. That includes a
    /// [`contention_profile`](SnziTree::contention_profile) walk on any
    /// view of the tree: the nodes are freed at once, and a walk that
    /// read the detached pointer before the swap would go on into them.
    pub unsafe fn prune_children(&self, h: Handle) -> u64 {
        // SAFETY: `h` belongs to this tree, and access below it is
        // exclusive, per the caller contract.
        unsafe { free_subtrees(self.detach_children(h)) }
    }

    /// Detach and *defer-free* the subtree strictly below `h`.
    ///
    /// Returns `true` if there was a subtree to detach. The memory is
    /// handed to the epoch collector and released once this view and all
    /// operations that might still be inside the subtree have dropped
    /// their guards.
    ///
    /// # Safety
    /// `h` must belong to this tree, and the Appendix B precondition must
    /// hold: no operation will **start** at a node strictly below `h`
    /// after this call (Lemma B.1 or Theorem B.3 provide this in the
    /// sp-dag discipline). In-flight operations are tolerated — that is
    /// the point of the epochs.
    pub unsafe fn prune_children_deferred(&self, h: Handle) -> bool {
        // SAFETY: `h` belongs to this tree per the caller contract.
        let first = unsafe { self.detach_children(h) };
        if first.is_null() {
            return false;
        }
        // Under `telemetry`, count the detached pairs while the memory is
        // guaranteed alive (we hold a guard, and the topology below is
        // frozen: grow can no longer reach it because the way in is gone —
        // stragglers only read/CAS node *state*).
        if obs::enabled() {
            let mut pairs = 0u64;
            let mut stack = vec![first];
            while let Some(p) = stack.pop() {
                pairs += 1;
                // SAFETY: alive under the guard; topology below is frozen.
                let pair = unsafe { &*p };
                for child in [&pair.left, &pair.right] {
                    let c = child.children.load(Ordering::Acquire);
                    if !c.is_null() {
                        stack.push(c);
                    }
                }
            }
            obs::counter!("snzi.pruned_pairs").add(pairs);
        }
        // SAFETY: the deferred closure runs once, after every guard pinned
        // at detach time has unpinned; by the caller's
        // Appendix-B obligation no new operation can enter the subtree,
        // so at that point access is exclusive and `free_subtrees` frees
        // it safely.
        unsafe {
            self.guard.defer_unchecked(move || {
                free_subtrees(first);
            });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The `snzi.pruned_pairs` counter is process-wide, so every test
    /// here that prunes holds this lock: a diff of it is then the test's
    /// own.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The pairs `prune` detached, as the `snzi.pruned_pairs` counter
    /// reports them, and what it returned.
    fn pruned_pairs<R>(prune: impl FnOnce() -> R) -> (u64, R) {
        let before = obs::Snapshot::take();
        let out = prune();
        (obs::Snapshot::take().diff(&before).counter("snzi.pruned_pairs"), out)
    }

    /// `pairs` under `telemetry`; a plain build counts nothing.
    fn counted(pairs: u64) -> u64 {
        if obs::enabled() {
            pairs
        } else {
            0
        }
    }

    // SAFETY (the tests below): each handle is its own tree's, used while
    // the tree lives; each depart follows an arrive at the same handle that
    // no other depart consumed; and nothing starts below a pruned handle
    // after the prune — a straggler pinned before it may finish.

    #[test]
    fn sequential_prune_and_regrow() {
        let _g = lock();
        let t = ShrinkingTree::new(0);
        let r = t.pinned().root_handle();
        // SAFETY: see the comment above the tests.
        let l = unsafe {
            let (l, _) = t.pinned().grow_always(r);
            let (ll, _) = t.pinned().grow_always(l);
            let _ = t.pinned().grow_always(ll);
            l
        };
        assert_eq!(t.pinned().contention_profile().nodes, 7);
        // Drain any surplus? none was added. Prune below l.
        // SAFETY: see the comment above the tests.
        let (pairs, pruned) = pruned_pairs(|| unsafe { t.pinned().prune_children_deferred(l) });
        assert!(pruned);
        // Two pairs detached: the walk no longer reaches their 4 nodes.
        assert_eq!(pairs, counted(2));
        assert_eq!(t.pinned().contention_profile().nodes, 3);
        // SAFETY: see the comment above the tests.
        unsafe {
            assert!(!t.pinned().prune_children_deferred(l), "already detached");
            // The tree keeps working: grow fresh children and count
            // through them.
            let (nl, _) = t.pinned().grow_always(l);
            t.pinned().arrive(nl);
            assert!(t.pinned().query());
            assert!(t.pinned().depart(nl));
        }
        assert!(!t.pinned().query());
    }

    #[test]
    fn lemma_b1_prune_after_surplus_returns_to_zero() {
        let _g = lock();
        // A node's subtree saw surplus, drained to zero → prunable.
        let t = ShrinkingTree::new(1);
        let r = t.pinned().root_handle();
        // SAFETY: see the comment above the tests.
        unsafe {
            let (l, rr) = t.pinned().grow_always(r);
            t.pinned().arrive(l);
            t.pinned().arrive(rr);
            assert!(!t.pinned().depart(l));
            // l's surplus returned to zero: by Lemma B.1 its subtree (empty
            // here) and by extension pruning *below* l is safe.
            assert!(!t.pinned().prune_children_deferred(l), "no children below l");
            assert!(!t.pinned().depart(rr));
            // Everything below the root is now quiescent; root still holds
            // the initial surplus.
            assert!(t.pinned().prune_children_deferred(r));
            assert!(t.pinned().query(), "initial surplus unaffected by pruning");
            assert!(t.pinned().depart(r));
        }
        assert!(!t.pinned().query());
    }

    #[test]
    fn concurrent_ops_elsewhere_survive_pruning() {
        // Worker threads hammer the RIGHT subtree while the main thread
        // repeatedly grows and prunes the LEFT subtree. Epoch pinning in
        // the workers must keep every straggler safe.
        let _g = lock();
        let t = Arc::new(ShrinkingTree::with_probability(0, Probability::ALWAYS));
        let r = t.pinned().root_handle();
        // SAFETY: see the comment above the tests.
        let (l, rhandle) = unsafe { t.pinned().grow_always(r) };
        let stop = Arc::new(AtomicBool::new(false));
        let total_rounds = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                let total_rounds = Arc::clone(&total_rounds);
                std::thread::spawn(move || {
                    let mut rounds = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        // SAFETY: see the comment above the tests; the
                        // main thread never prunes below the root's right.
                        unsafe {
                            t.pinned().arrive(rhandle);
                            assert!(t.pinned().query());
                            let _ = t.pinned().depart(rhandle);
                        }
                        rounds += 1;
                        total_rounds.fetch_add(1, Ordering::Release);
                    }
                    rounds
                })
            })
            .collect();
        // An oversubscribed machine can run all 200 prune rounds below
        // before the workers are ever scheduled; wait for the first
        // right-subtree round *before* pruning starts so the rounds
        // really overlap the prune traffic.
        while total_rounds.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        // The workers step on the right subtree only and grow nothing, so
        // the shape the walk reads is the main thread's alone.
        let mut walked_pairs = 0;
        let before = obs::Snapshot::take();
        for _ in 0..200 {
            // SAFETY: see the comment above the tests.
            let (a, b) = unsafe { t.pinned().grow_always(l) };
            let nodes = t.pinned().contention_profile().nodes;
            // SAFETY: see the comment above the tests; the left subtree
            // is quiescent again after the departs, so prunable.
            unsafe {
                t.pinned().arrive(a);
                let _ = t.pinned().depart(a);
                t.pinned().arrive(b);
                let _ = t.pinned().depart(b);
                assert!(t.pinned().prune_children_deferred(l));
            }
            walked_pairs += (nodes - t.pinned().contention_profile().nodes) / 2;
        }
        let counted_pairs = obs::Snapshot::take().diff(&before).counter("snzi.pruned_pairs");
        stop.store(true, Ordering::Release);
        let total: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(walked_pairs, 200);
        assert_eq!(counted_pairs, counted(200));
        assert!(!t.pinned().query());
    }

    #[test]
    fn straggler_guard_keeps_detached_memory_alive() {
        // Simulate a mid-flight operation: hold a pinned view, capture a
        // node in the soon-to-be-pruned subtree, prune, and keep reading
        // through the captured reference — the view must keep it valid.
        let _g = lock();
        let t = ShrinkingTree::new(0);
        let r = t.pinned().root_handle();
        let straggler = t.pinned();
        // SAFETY: see the comment above the tests: the straggler's depart
        // at `l` is an operation in flight at the prune, pinned before it.
        unsafe {
            let (l, _) = t.pinned().grow_always(r);
            straggler.arrive(l);
            assert!(t.pinned().prune_children_deferred(r));
            // Still pinned: the node behind `l` is detached but not freed.
            assert!(straggler.depart(l), "straggler finishes its matched depart");
        }
        drop(straggler);
        assert!(!t.pinned().query());
    }
}
