//! Built where it lives (`spdag::vertex`, module docs): every vertex, body,
//! decrement pair and future core is written field by field into its
//! recycled slab. `spdag`'s unit tests read each field back over scribbled
//! slabs; this battery runs the same kinds of vertex over scribbled slabs —
//! a spawn pair, a chain, a fork, a touch continuation, a sole strand, a
//! future's body and completion, and a parked strand — at W = 1 and W = 2,
//! and checks what the runtime's own ledgers say (`tests/common`): the
//! output is right, everything born dies, `tasks − resumes` is the number
//! of vertices born plus the spawn's children that ran in their parent's
//! vertex — both, unless at W = 2 the left one was promoted — and the run
//! makes one decrement pair per increment (none for the spawn unless its
//! left child was promoted) and two `PoolArc`s.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{serial, Ledger, Serial};
use dynsnzi::prelude::*;
use sched::recycle;

/// Fill this thread's caches of the 64, 128 and 256 B classes with slabs
/// scribbled past their poison words.
fn scribble() {
    for bytes in [64, 128, 256] {
        let class = recycle::class_for(bytes, 8).expect("a ladder size");
        let slabs: Vec<*mut u8> = (0..64).map(|_| recycle::acquire_or_alloc(class).0).collect();
        for &slab in &slabs {
            // SAFETY: ours until released; the first three words are the
            // cache's link and the debug poison stamp.
            unsafe { slab.add(24).write_bytes(0xA5, bytes - 24) };
        }
        slabs.into_iter().for_each(|slab| recycle::release(class, slab));
    }
}

/// Every kind of vertex in one run; the values added into `out` sum to
/// 100 + 1 + 2 + 4 + 8 + 20 = 135.
fn every_kind<C: CounterFamily>(mut ctx: Ctx<'_, C>, out: Arc<AtomicU64>) {
    let f = ctx.future(|_| 20u64);
    let g = ctx.future(|_| 100u64);
    let o = Arc::clone(&out);
    ctx.fork_strand(move |c: &mut Ctx<'_, C>| {
        o.fetch_add(*strand_await!(c, &g), Ordering::SeqCst);
        StrandPoll::Done(())
    });
    let o = Arc::clone(&out);
    ctx.fork(move |c| {
        let (a, b) = (Arc::clone(&o), o);
        c.spawn(
            move |_| {
                a.fetch_add(1, Ordering::SeqCst);
            },
            move |_| {
                b.fetch_add(2, Ordering::SeqCst);
            },
        );
    });
    let o = Arc::clone(&out);
    ctx.fork(move |c| {
        let (a, b) = (Arc::clone(&o), o);
        c.chain(
            move |_| {
                a.fetch_add(4, Ordering::SeqCst);
            },
            move |_| {
                b.fetch_add(8, Ordering::SeqCst);
            },
        );
    });
    ctx.touch(&f, move |_, v| {
        out.fetch_add(*v, Ordering::SeqCst);
    });
}

fn over_scribbled_slabs<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    for workers in [1, 2] {
        let what = format!("{} at W={workers}", C::NAME);
        let ledger = Ledger::open(s);
        let mut runs = Vec::new();
        for _ in 0..20 {
            scribble();
            let out = Arc::new(AtomicU64::new(0));
            let o = Arc::clone(&out);
            runs.push(run_dag::<C, _>(cfg.clone(), workers, move |ctx| every_kind(ctx, o)).pool);
            assert_eq!(out.load(Ordering::SeqCst), 135, "{what}");
        }
        if workers == 1 {
            assert!(runs.iter().all(|s| s.suspends == 1), "{what}: the strand parks");
        }
        let Some((made, d)) = ledger.close(&what, &runs.iter().collect::<Vec<_>>()) else {
            continue;
        };
        // One pair per increment: 2 futures, 3 forks, and the spawn's when
        // its left child was promoted — which only a run of two or more
        // workers does.
        let promoted = made.promoted;
        if workers == 1 {
            assert_eq!(promoted, 0, "{what}: nothing to promote to");
        }
        assert_eq!(made.pairs, 20 * 5 + promoted, "{what}: one pair per increment");
        assert_eq!(
            made.in_place + promoted,
            20 * 2,
            "{what}: the spawn's children run in place unless promoted"
        );
        let cores = d.counter("sched.poolarc_alloc") + d.counter("sched.poolarc_reuse");
        assert_eq!(cores, 20 * 2, "{what}: two futures a run");
    }
}

#[test]
fn every_kind_over_scribbled_slabs_keeps_the_ledgers() {
    let s = serial();
    over_scribbled_slabs::<DynSnzi>(&s, DynConfig::default());
    over_scribbled_slabs::<DynSnzi>(&s, DynConfig::always_grow());
    over_scribbled_slabs::<FetchAdd>(&s, ());
    over_scribbled_slabs::<FixedDepth>(&s, FixedConfig { depth: 2 });
}
