//! The `sched.recycle_miss` failpoint against the class recycler: an
//! armed miss must force the fresh-allocation path while the cached slab
//! stays cached. A binary of its own because failpoint plans are
//! process-global; compiled to nothing without `fault-inject`.
#![cfg(feature = "fault-inject")]

use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
use sched::recycle;

#[test]
fn recycle_miss_forces_the_fresh_path() {
    let class = recycle::class_for(100, 8).expect("100 B is on the ladder");
    let (a, _) = recycle::acquire_or_alloc(class);
    recycle::release(class, a);
    let cached = recycle::cached_slabs();
    assert!(cached >= 1);

    let site = SiteSpec { site: "sched.recycle_miss".into(), mode: FaultMode::Always };
    failpoint::install(&FaultPlan::new(1, vec![site]));
    let (b, reused) = recycle::acquire_or_alloc(class);
    failpoint::clear();
    assert!(!reused, "an armed miss must not be served by the pool");
    assert_ne!(b, a, "the cached slab was handed out despite the miss");
    assert_eq!(recycle::cached_slabs(), cached, "the miss left the cache alone");

    // Disarmed, the thread's LIFO cache serves the cached slab back.
    let (c, reused) = recycle::acquire_or_alloc(class);
    assert!(reused);
    assert_eq!(c, a);
    // Leave nothing behind: both slabs go back through the recycler and
    // out through `trim`.
    recycle::release(class, b);
    recycle::release(class, c);
    sched::slab::flush_this_thread();
    assert!(recycle::trim() >= 2);
    assert_eq!(recycle::cached_slabs(), 0);
}
