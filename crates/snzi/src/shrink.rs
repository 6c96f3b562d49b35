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
//! the gap is closed mechanically with [`crossbeam::epoch`]:
//!
//! * a tree created with [`SnziTree::shrinkable`] pins an epoch guard for
//!   the duration of every `arrive`/`depart`/`grow`;
//! * [`SnziTree::prune_children_deferred`] detaches the subtree with a
//!   single atomic swap and registers its destruction with the collector,
//!   which frees the memory only after every guard pinned at (or before)
//!   the detach has been dropped.
//!
//! A detached-but-not-yet-freed subtree remains perfectly functional for
//! stragglers: parent pointers still lead out of it into the live tree, so
//! even a propagating departure caught mid-flight completes correctly —
//! detaching only removes the path *in*, which is exactly what the
//! Appendix B preconditions already guarantee nobody needs.

use crate::tree::{free_subtrees, Handle, SnziTree};

impl SnziTree {
    /// Detach and *defer-free* the subtree strictly below `h`.
    ///
    /// Returns `true` if there was a subtree to detach. The memory is
    /// handed to the epoch collector and released once all operations
    /// that might still be inside the subtree have completed; the tree
    /// must have been created [`shrinkable`](SnziTree::shrinkable), so
    /// that all operations participate in the epoch protocol.
    ///
    /// # Safety
    ///
    /// `h` must belong to this tree, and the Appendix B precondition must
    /// hold: no operation will **start** at a node strictly below `h`
    /// after this call (Lemma B.1 or Theorem B.3 provide this in the
    /// sp-dag discipline). In-flight operations are tolerated — that is
    /// the point of the epochs.
    pub unsafe fn prune_children_deferred(&self, h: Handle) -> bool {
        assert!(
            self.shrinkable,
            "prune_children_deferred requires a tree built with .shrinkable()"
        );
        // SAFETY: `h` belongs to this tree per the caller contract.
        let slot = unsafe { self.children_slot(h) };
        let guard = crossbeam::epoch::pin();
        let first = slot.swap(std::ptr::null_mut(), std::sync::atomic::Ordering::AcqRel);
        if first.is_null() {
            return false;
        }
        // Count the detached pairs for the space accounting while the
        // memory is guaranteed alive (we hold a guard, and the topology
        // below is frozen: grow can no longer reach it because the way in
        // is gone — stragglers only read/CAS node *state*).
        let mut pairs = 0u64;
        let mut stack = vec![first];
        while let Some(p) = stack.pop() {
            pairs += 1;
            // SAFETY: alive under the guard; topology below is frozen.
            let pair = unsafe { &*p };
            for child in [&pair.left, &pair.right] {
                let c = child.children.load(std::sync::atomic::Ordering::Acquire);
                if !c.is_null() {
                    stack.push(c);
                }
            }
        }
        self.stats_ref().pruned_pairs.fetch_add(pairs, std::sync::atomic::Ordering::Relaxed);
        obs::counter!("snzi.pruned_pairs").add(pairs);
        let first_addr = first as usize;
        // SAFETY (defer_unchecked): the closure runs once, after every
        // guard pinned at detach time has unpinned; by the caller's
        // Appendix-B obligation no new operation can enter the subtree,
        // so at that point access is exclusive and `free_subtrees` frees
        // it safely. The pointer is smuggled as usize purely to make the
        // closure Send.
        unsafe {
            guard.defer_unchecked(move || {
                let _ = free_subtrees(first_addr as *mut crate::node::ChildPair);
            });
        }
        guard.flush();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::Probability;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn prune_requires_shrinkable() {
        let t = SnziTree::new(0);
        let r = t.root_handle();
        let _ = unsafe { t.grow_always(r) };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            t.prune_children_deferred(r)
        }));
        assert!(result.is_err(), "must reject non-shrinkable trees");
    }

    #[test]
    fn sequential_prune_and_regrow() {
        let t = SnziTree::new(0).shrinkable();
        let r = t.root_handle();
        let (l, _) = unsafe { t.grow_always(r) };
        let (ll, _) = unsafe { t.grow_always(l) };
        let _ = unsafe { t.grow_always(ll) };
        assert_eq!(t.stats_ref().snapshot().node_count(), 7);
        // Drain any surplus? none was added. Prune below l.
        assert!(unsafe { t.prune_children_deferred(l) });
        assert_eq!(t.stats_ref().snapshot().pruned_pairs, 2);
        assert_eq!(t.stats_ref().snapshot().node_count(), 3);
        assert!(!unsafe { t.prune_children_deferred(l) }, "already detached");
        // The tree keeps working: grow fresh children and count through them.
        let (nl, _) = unsafe { t.grow_always(l) };
        unsafe { t.arrive(nl) };
        assert!(t.query());
        assert!(unsafe { t.depart(nl) });
        assert!(!t.query());
    }

    #[test]
    fn lemma_b1_prune_after_surplus_returns_to_zero() {
        // A node's subtree saw surplus, drained to zero → prunable.
        let t = SnziTree::new(1).shrinkable();
        let r = t.root_handle();
        let (l, rr) = unsafe { t.grow_always(r) };
        unsafe { t.arrive(l) };
        unsafe { t.arrive(rr) };
        assert!(!unsafe { t.depart(l) });
        // l's surplus returned to zero: by Lemma B.1 its subtree (empty
        // here) and by extension pruning *below* l is safe.
        assert!(!unsafe { t.prune_children_deferred(l) }, "no children below l");
        assert!(!unsafe { t.depart(rr) });
        // Everything below the root is now quiescent; root still holds
        // the initial surplus.
        assert!(unsafe { t.prune_children_deferred(r) });
        assert!(t.query(), "initial surplus unaffected by pruning");
        assert!(unsafe { t.depart(r) });
        assert!(!t.query());
    }

    #[test]
    fn concurrent_ops_elsewhere_survive_pruning() {
        // Worker threads hammer the RIGHT subtree while the main thread
        // repeatedly grows and prunes the LEFT subtree. Epoch pinning in
        // the workers must keep every straggler safe.
        let t = Arc::new(SnziTree::with_probability(0, Probability::ALWAYS).shrinkable());
        let r = t.root_handle();
        let (l, rhandle) = unsafe { t.grow_always(r) };
        let stop = Arc::new(AtomicBool::new(false));
        let total_rounds = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                let total_rounds = Arc::clone(&total_rounds);
                std::thread::spawn(move || {
                    let mut rounds = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        unsafe {
                            t.arrive(rhandle);
                            assert!(t.query());
                            let _ = t.depart(rhandle);
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
        for _ in 0..200 {
            let (a, b) = unsafe { t.grow_always(l) };
            unsafe {
                t.arrive(a);
                let _ = t.depart(a);
                t.arrive(b);
                let _ = t.depart(b);
            }
            // Left subtree quiescent again → prunable.
            assert!(unsafe { t.prune_children_deferred(l) });
        }
        stop.store(true, Ordering::Release);
        let total: u64 = workers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(t.stats_ref().snapshot().pruned_pairs, 200);
        assert!(!t.query());
    }

    #[test]
    fn straggler_guard_keeps_detached_memory_alive() {
        // Simulate a mid-flight operation: pin a guard, capture a node in
        // the soon-to-be-pruned subtree, prune, and keep reading through
        // the captured reference — the guard must keep it valid.
        let t = SnziTree::new(0).shrinkable();
        let r = t.root_handle();
        let (l, _) = unsafe { t.grow_always(r) };
        let straggler_guard = crossbeam::epoch::pin();
        unsafe { t.arrive(l) };
        assert!(unsafe { t.prune_children_deferred(r) });
        // Still pinned: the node behind `l` is detached but not freed.
        unsafe {
            assert!(t.depart(l), "straggler finishes its matched depart");
        }
        drop(straggler_guard);
        assert!(!t.query());
    }
}
