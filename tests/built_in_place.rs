//! Built where it lives (`spdag::vertex`, module docs): every vertex, body,
//! decrement pair and future core is written field by field into its
//! recycled slab. `spdag`'s unit tests read each field back over scribbled
//! slabs; this battery runs the same kinds of vertex over scribbled slabs —
//! a spawn pair, a chain, a fork, a touch continuation, a sole strand, a
//! future's body and completion, and a parked strand — at W = 1 and W = 2,
//! and checks what the runtime's own ledgers say: the output is right,
//! every decrement pair born is freed (`sched.pairs_born ==
//! sched.pairs_freed`, one per increment: none for the spawn unless its
//! left child was promoted),
//! every vertex and `PoolArc` born is retired, and
//! `tasks − resumes` is the number of vertices born plus the spawn's
//! children that ran in their parent's vertex (`spdag.spawn_inline`: both,
//! unless at W = 2 the left one was promoted, `spdag.spawn_promoted`).
//!
//! Tests serialize on a process-wide lock: the ledgers are diffs of the
//! global telemetry registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dynsnzi::prelude::*;
use sched::recycle;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

fn over_scribbled_slabs<C: CounterFamily>(cfg: C::Config) {
    for workers in [1, 2] {
        let what = format!("{} at W={workers}", C::NAME);
        let before = Snapshot::take();
        let mut runs = Vec::new();
        for _ in 0..20 {
            scribble();
            let out = Arc::new(AtomicU64::new(0));
            let o = Arc::clone(&out);
            runs.push(run_dag::<C, _>(cfg.clone(), workers, move |ctx| every_kind(ctx, o)).pool);
            assert_eq!(out.load(Ordering::SeqCst), 135, "{what}");
        }
        let d = Snapshot::take().diff(&before);
        for s in &runs {
            assert_eq!(s.suspends, s.resumes, "{what}: every park is repaid");
        }
        if workers == 1 {
            assert!(runs.iter().all(|s| s.suspends == 1), "{what}: the strand parks");
        }
        if !obs::enabled() {
            continue;
        }
        let (born, freed) = (d.counter("sched.pairs_born"), d.counter("sched.pairs_freed"));
        assert_eq!(born, freed, "{what}: decrement pairs born {born}, freed {freed}");
        // One pair per increment: 2 futures, 3 forks, and the spawn's when
        // its left child was promoted — which only a run of two or more
        // workers does.
        let promoted = d.counter("spdag.spawn_promoted");
        if workers == 1 {
            assert_eq!(promoted, 0, "{what}: nothing to promote to");
        }
        assert_eq!(born, 20 * 5 + promoted, "{what}: one pair per increment");
        let born = d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse");
        let dead = d.counter("sched.vertex_recycled") + d.counter("sched.vertex_dropped");
        assert_eq!(born, dead, "{what}: vertices born {born}, retired {dead}");
        let executed: u64 = runs.iter().map(|s| s.tasks - s.resumes).sum();
        let in_place = d.counter("spdag.spawn_inline");
        assert_eq!(
            executed,
            born + in_place,
            "{what}: tasks - resumes against vertices born and children run in place"
        );
        assert_eq!(
            in_place + promoted,
            20 * 2,
            "{what}: the spawn's children run in place unless promoted"
        );
        let born = d.counter("sched.poolarc_alloc") + d.counter("sched.poolarc_reuse");
        let dead = d.counter("sched.poolarc_recycled") + d.counter("sched.poolarc_dropped");
        assert_eq!(born, dead, "{what}: future cores born {born}, retired {dead}");
        assert_eq!(born, 20 * 2, "{what}: two futures a run");
    }
}

#[test]
fn every_kind_over_scribbled_slabs_keeps_the_ledgers() {
    let _g = serial();
    over_scribbled_slabs::<DynSnzi>(DynConfig::default());
    over_scribbled_slabs::<DynSnzi>(DynConfig::always_grow());
    over_scribbled_slabs::<FetchAdd>(());
    over_scribbled_slabs::<FixedDepth>(FixedConfig { depth: 2 });
}
