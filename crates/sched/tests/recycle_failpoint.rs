//! The `sched.recycle_miss` failpoint against the class recycler: an
//! armed miss must force the fresh-allocation path while the cached slab
//! stays cached — on the public untyped pair and on the typed one the
//! runtime's objects use, whose acquire compiles into its call site. A
//! binary of its own, with one test, because failpoint plans are
//! process-global; compiled to nothing without `fault-inject`.
#![cfg(feature = "fault-inject")]

use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
use sched::recycle;

fn arm() {
    let site = SiteSpec { site: "sched.recycle_miss".into(), mode: FaultMode::Always };
    failpoint::install(&FaultPlan::new(1, vec![site]));
}

#[test]
fn recycle_miss_forces_the_fresh_path() {
    let class = recycle::class_for(100, 8).expect("100 B is on the ladder");
    let (a, _) = recycle::acquire_or_alloc(class);
    recycle::release(class, a);
    let cached = recycle::cached_slabs();
    assert!(cached >= 1);

    arm();
    let (b, reused) = recycle::acquire_or_alloc(class);
    failpoint::clear();
    assert!(!reused, "an armed miss must not be served by the pool");
    assert_ne!(b, a, "the cached slab was handed out despite the miss");
    assert_eq!(recycle::cached_slabs(), cached, "the miss left the cache alone");

    // Disarmed, the thread's LIFO cache serves the cached slab back.
    let (c, reused) = recycle::acquire_or_alloc(class);
    assert!(reused);
    assert_eq!(c, a);
    recycle::release(class, c);

    // The typed path: 96 B, the same class, so `a` is what a hit returns.
    type Obj = [u64; 12];
    arm();
    let (d, reused) = recycle::alloc_uninit::<Obj>();
    let injected = failpoint::injected_count();
    failpoint::clear();
    assert!(!reused, "an armed miss must not be served by the pool (inline path)");
    assert_ne!(d as *mut u8, a, "the cached slab was handed out despite the miss (inline path)");
    assert_eq!(injected, 1, "the inline acquire consulted the failpoint");
    let (e, reused) = recycle::alloc(|| [3u64; 12]);
    assert!(reused);
    assert_eq!(e as *mut u8, a);

    // Leave nothing behind: every slab goes back through the recycler and
    // out through `trim`.
    recycle::release(class, b);
    // SAFETY: `d` is written before it is freed; both came from the pair.
    unsafe {
        d.write([2; 12]);
        recycle::free(d);
        recycle::free(e);
    }
    sched::slab::flush_this_thread();
    assert!(recycle::trim() >= 3);
    assert_eq!(recycle::cached_slabs(), 0);
}
