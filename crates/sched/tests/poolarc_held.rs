//! `PoolArc::new_held`: a value born with its `N` holders. One test, in a
//! binary of its own, because it reads the process-wide `sched.poolarc_*`
//! counters and wants them exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use sched::PoolArc;

struct Tally(Arc<AtomicU64>);

impl Drop for Tally {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn n_holders_at_birth_one_drop_after_the_nth_and_one_birth_on_the_ledger() {
    const N: usize = 4;
    const ROUNDS: u64 = 200;
    let before = obs::Snapshot::take();
    let drops = Arc::new(AtomicU64::new(0));
    for round in 0..ROUNDS {
        let holders: [PoolArc<Tally>; N] = PoolArc::new_held(Tally(Arc::clone(&drops)));
        assert_eq!(PoolArc::strong_count(&holders[0]), N, "born counted, not cloned");
        assert!(holders.iter().all(|h| PoolArc::ptr_eq(h, &holders[0])));
        // Every holder dropped on a thread of its own, all at once: the
        // value goes exactly once, with the last of them.
        let gate = Barrier::new(N);
        std::thread::scope(|scope| {
            for holder in holders {
                let gate = &gate;
                scope.spawn(move || {
                    gate.wait();
                    drop(holder);
                });
            }
        });
        assert_eq!(drops.load(Ordering::SeqCst), round + 1, "one drop per value");
    }
    // A born handle is an ordinary one: it clones and outlives its birth set.
    let [a, b] = PoolArc::new_held(7u64);
    let c = b.clone();
    drop((a, b));
    assert_eq!((*c, PoolArc::strong_count(&c)), (7, 1));
    drop(c);
    if obs::enabled() {
        let d = obs::Snapshot::take().diff(&before);
        let born = d.counter("sched.poolarc_alloc") + d.counter("sched.poolarc_reuse");
        let dead = d.counter("sched.poolarc_recycled") + d.counter("sched.poolarc_dropped");
        assert_eq!(born, ROUNDS + 1, "one birth per value, however many holders");
        assert_eq!(born, dead, "alloc + reuse == recycled + dropped");
    }
}
