//! Where the epoch pins are: a plain `SnziTree` step takes none, and each
//! step through a `ShrinkingTree`'s pinned view takes exactly one.
//!
//! The pins are read as a diff of the `epoch.pins` / `epoch.unpins`
//! counters, which are process-wide, so this binary holds one test and no
//! other thread pins while it runs.

#![cfg(feature = "telemetry")]

use obs::Snapshot;
use sched::step::Exclusive;
use snzi::{ShrinkingTree, SnziTree};

/// The `(pins, unpins)` taken while `step` ran.
fn pins(step: impl FnOnce()) -> (u64, u64) {
    let before = Snapshot::take();
    step();
    let d = Snapshot::take().diff(&before);
    (d.counter("epoch.pins"), d.counter("epoch.unpins"))
}

// SAFETY (every `unsafe` below): the handles belong to the tree they are
// used with, which outlives the test, and each depart matches an earlier
// arrive at the same node; the exclusive token is minted for trees this
// test steps on its one thread, one operation after another.
#[test]
fn pins_are_where_the_type_says() {
    let x = unsafe { Exclusive::new() };
    // p = 1: every grow installs, so each returns children, never `(h, h)`.
    let t = SnziTree::new(0);
    let (l, _) = unsafe { t.grow(t.root_handle()) };
    let none = (0, 0);
    assert_eq!(pins(|| assert!(!unsafe { t.grow(l) }.0.is_root())), none, "plain grow");
    assert_eq!(pins(|| unsafe { t.arrive(l) }), none, "plain arrive");
    assert_eq!(pins(|| assert!(unsafe { t.depart(l) })), none, "plain depart");
    assert_eq!(pins(|| _ = unsafe { t.arrive_with(l, x) }), none, "plain exclusive arrive");
    let depart = || assert!(unsafe { t.depart_with(l, x) }.0);
    assert_eq!(pins(depart), none, "plain exclusive depart");

    let s = ShrinkingTree::new(0);
    let (l, _) = unsafe { s.pinned().grow(s.pinned().root_handle()) };
    let one = (1, 1);
    assert_eq!(pins(|| assert!(!unsafe { s.pinned().grow(l) }.0.is_root())), one, "grow");
    assert_eq!(pins(|| unsafe { s.pinned().arrive(l) }), one, "arrive");
    assert_eq!(pins(|| assert!(unsafe { s.pinned().depart(l) })), one, "depart");
    assert_eq!(pins(|| _ = unsafe { s.pinned().arrive_with(l, x) }), one, "exclusive arrive");
    let depart = || assert!(unsafe { s.pinned().depart_with(l, x) }.0);
    assert_eq!(pins(depart), one, "exclusive depart");
    let prune = || assert!(unsafe { s.pinned().prune_children_deferred(l) });
    assert_eq!(pins(prune), one, "prune_children_deferred");
}
