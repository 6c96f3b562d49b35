//! Telemetry does not grow with the number of runs. A counter cell is
//! leaked per (call site, thread) and a trace ring per thread, and
//! `Snapshot::take` / `trace::take` walk all of them for good; that is
//! bounded only because a run is served by its caller and the resident
//! helpers, never by a thread born for it. A binary of its own: the
//! probes count process-wide.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dynsnzi::prelude::*;

/// A small two-worker dag touching every vertex-building path: binary
/// spawns over a future and the strand awaiting it.
fn one_run() {
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
        let f = ctx.future(|_| 7u64);
        let awaited = Arc::clone(&h);
        ctx.fork_strand(move |sc: &mut Ctx<'_, DynSnzi>| {
            awaited.fetch_add(*strand_await!(sc, &f), Ordering::Relaxed);
            StrandPoll::Done(())
        });
        fn tree(ctx: Ctx<'_, DynSnzi>, depth: u32, hits: Arc<AtomicU64>) {
            if depth == 0 {
                hits.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let other = Arc::clone(&hits);
            ctx.spawn(move |c| tree(c, depth - 1, hits), move |c| tree(c, depth - 1, other));
        }
        tree(ctx, 6, h);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 64 + 7);
}

#[test]
fn cells_and_rings_are_per_thread_not_per_run() {
    if !obs::enabled() {
        return; // nothing is registered, ever
    }
    obs::trace::enable();
    for _ in 0..200 {
        one_run();
    }
    obs::trace::disable();
    // This binary's counters are touched by two threads — this one, which
    // is worker 0 of every run, and the one helper the runs lease — so a
    // counter has at most two cells however many runs there were. A
    // worker thread born per run would add two cells per counter per run.
    let (counters, cells) = obs::registered();
    assert!(counters > 0, "the runs counted nothing");
    assert!(cells <= 2 * counters, "{cells} cells for {counters} counters after 200 runs");
    let rings = obs::trace::rings_registered();
    assert!((1..=2).contains(&rings), "{rings} trace rings for a caller and one helper");
}
