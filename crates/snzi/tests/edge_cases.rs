//! Edge-case and boundary tests for the SNZI crate's public API.

use sched::step::Shared;
use snzi::{Probability, SnziTree};

#[test]
#[should_panic(expected = "initial surplus too large")]
fn initial_surplus_overflow_rejected() {
    let _ = SnziTree::new(u64::MAX);
}

#[test]
fn deep_depart_cascade_is_iterative_enough() {
    // One arrive at the bottom of a 2000-node chain, one depart: the
    // depart cascades through every level back to the root.
    let t = SnziTree::new(0);
    let mut h = t.root_handle();
    for _ in 0..2000 {
        let (l, _) = unsafe { t.grow_always(h) };
        h = l;
    }
    unsafe { t.arrive(h) };
    assert!(t.query());
    let (ended, path) = unsafe { t.depart_with(h, Shared) };
    assert!(ended);
    assert_eq!(path.departs, 2001, "cascade visits every level plus the root");
    assert!(!t.query());
}

#[test]
fn arrive_path_counts_track_propagation() {
    let t = SnziTree::new(0);
    let r = t.root_handle();
    let (l, _) = unsafe { t.grow_always(r) };
    let (ll, _) = unsafe { t.grow_always(l) };
    // Empty tree: the arrive propagates grandchild → child → root.
    let path = unsafe { t.arrive_with(ll, Shared) };
    assert_eq!(path.arrives, 3);
    // Second arrive at the same node stops immediately (surplus ≥ 1).
    let path = unsafe { t.arrive_with(ll, Shared) };
    assert_eq!(path.arrives, 1);
    // Sibling-of-parent arrive stops at the root? No — it phase-changes
    // its own node and must reach the root, which already has surplus:
    // chain = 2 (node + root).
    let (_, lr) = unsafe { t.grow_always(l) };
    let path = unsafe { t.arrive_with(lr, Shared) };
    assert_eq!(path.arrives, 2);
}

#[test]
fn grow_under_node_with_surplus_preserves_counts() {
    let t = SnziTree::new(0);
    let r = t.root_handle();
    unsafe { t.arrive(r) };
    let (l, rr) = unsafe { t.grow_always(r) };
    // New children start at zero and do not disturb the parent.
    assert!(t.query());
    unsafe { t.arrive(l) };
    unsafe { t.arrive(rr) };
    assert!(!unsafe { t.depart(l) });
    assert!(!unsafe { t.depart(rr) });
    assert!(unsafe { t.depart(r) }, "the original root arrive ends the period");
}

#[test]
fn probability_reporting_is_consistent() {
    assert_eq!(Probability::ALWAYS.as_f64(), 1.0);
    assert_eq!(Probability::NEVER.as_f64(), 0.0);
    let p = Probability::one_over(4);
    assert!((p.as_f64() - 0.25).abs() < 1e-9);
    let t = SnziTree::with_probability(0, p);
    assert_eq!(t.probability(), p);
}

#[test]
fn handle_debug_and_identity() {
    let t = SnziTree::new(0);
    let r = t.root_handle();
    assert!(format!("{r:?}").contains("root"));
    let (l, rr) = unsafe { t.grow_always(r) };
    assert!(format!("{l:?}").contains("node"));
    assert_ne!(l.addr(), rr.addr());
    assert_eq!(t.root_handle().addr(), r.addr());
}

#[test]
fn stats_snapshot_is_coherent() {
    let t = SnziTree::new(0);
    let r = t.root_handle();
    let (l, _) = unsafe { t.grow_always(r) };
    let _ = unsafe { t.grow_always(l) };
    unsafe { t.arrive(l) };
    let _ = unsafe { t.depart(l) };
    let s = t.contention_profile();
    // Two pairs installed, none pruned: 1 + 2·2 nodes, two levels deep.
    assert_eq!(s.nodes, 5);
    assert_eq!(s.max_depth, 2);
    #[cfg(feature = "telemetry")]
    {
        assert!(s.max_arrive_chain >= 1);
        assert!(s.max_depart_chain >= 1);
        assert_eq!(s.grow_losses, 0);
    }
}

#[test]
fn many_small_trees_do_not_interfere() {
    // Tree identities must keep handles apart (debug builds assert on
    // cross-tree use); liveness-wise, churn through thousands of trees.
    let mut keep = Vec::new();
    for i in 0..2000u64 {
        let t = SnziTree::new(i % 3);
        assert_eq!(t.query(), i % 3 != 0);
        if i % 97 == 0 {
            keep.push(t);
        }
    }
    for t in &keep {
        let r = t.root_handle();
        unsafe { t.arrive(r) };
        assert!(t.query());
    }
}
