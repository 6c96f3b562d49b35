//! Work-first spawn (`spdag::in_place`): a spawn's right child runs in its
//! parent's vertex at W ≥ 2, and both children do at W = 1. A child that is
//! no vertex is held to what a vertex guarantees:
//!
//! 1. **Panics.** A right child that panics in place re-raises its payload
//!    at the caller *and* leaves its left sibling to run. At W = 1 that
//!    sibling is not yet a vertex when the right child unwinds: a guard
//!    must build and push it, or the scope never drains. Checked at depth 1
//!    and 3 of a right spine, at W = 1 and W = 2, with the pair and vertex
//!    ledgers closed; and a left child that panics after its right sibling
//!    signalled.
//! 2. **Stack.** Children run in place nest; past a fixed stack bound a
//!    spawn pushes both children instead. 100 000-deep right-linear and
//!    left-linear recursions run on a thread with a 256 KiB stack.
//! 3. **Counting.** `fib(20)` is exact on every counter family at
//!    W ∈ {1, 2, 4}, and `tasks − resumes` is the number of vertices the
//!    dag has — the identity the benchmark checks after every iteration.
//! 4. **Failpoints** (`--features fault-inject`): `spdag.panic_vertex`
//!    fires on children run in place, which run user bodies.
//!
//! Tests serialize on a process-wide lock: the ledgers are diffs of the
//! global telemetry registry, and the failpoint plan is global.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use dynsnzi::prelude::*;
use sched::WatchdogCfg;
use spdag::run_dag_watched;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A run that loses a vertex stalls; the watchdog turns that into a
/// failure in seconds.
fn watchdog() -> WatchdogCfg {
    WatchdogCfg { stall_timeout: Duration::from_secs(5) }
}

const RIGHT_PANICS: &str = "inline_spawn: the right child panics";
const LEFT_PANICS: &str = "inline_spawn: the left child panics";

/// A right spine `depth` spawns deep whose last right child panics. Every
/// left child adds 1 to `lefts`.
fn right_spine(ctx: Ctx<'_, DynSnzi>, depth: u32, lefts: Arc<AtomicU64>) {
    if depth == 0 {
        panic!("{}", RIGHT_PANICS);
    }
    let l = Arc::clone(&lefts);
    ctx.spawn(
        move |_| {
            l.fetch_add(1, Ordering::Relaxed);
        },
        move |c| right_spine(c, depth - 1, lefts),
    );
}

/// Run `root`, which must panic with `expected`, and check that the dag
/// drained: the payload reached the caller, and every decrement pair and
/// vertex born was freed and retired.
fn panics_and_drains(
    workers: usize,
    what: &str,
    expected: &str,
    root: impl for<'b> FnOnce(Ctx<'b, DynSnzi>) + Send + 'static,
) {
    let before = Snapshot::take();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_dag_watched::<DynSnzi, _>(DynConfig::default(), workers, watchdog(), root)
    }));
    let d = Snapshot::take().diff(&before);
    let payload = result.expect_err("the panic reaches the caller");
    let text = payload.downcast_ref::<String>().cloned().unwrap_or_default();
    assert_eq!(text, expected, "{what}: the first payload, not a watchdog report");
    if obs::enabled() {
        let (born, freed) = (d.counter("sched.pairs_born"), d.counter("sched.pairs_freed"));
        assert_eq!(born, freed, "{what}: decrement pairs born {born}, freed {freed}");
        let born = d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse");
        let dead = d.counter("sched.vertex_recycled") + d.counter("sched.vertex_dropped");
        assert_eq!(born, dead, "{what}: vertices born {born}, retired {dead}");
        assert_eq!(d.counter("spdag.body_panics"), 1, "{what}: one body panicked");
    }
}

#[test]
fn a_right_child_that_panics_in_place_leaves_its_left_sibling_to_run() {
    let _g = serial();
    for workers in [1, 2] {
        for depth in [1, 3] {
            let what = format!("right child at depth {depth}, W={workers}");
            let lefts = Arc::new(AtomicU64::new(0));
            let l = Arc::clone(&lefts);
            panics_and_drains(workers, &what, RIGHT_PANICS, move |ctx| right_spine(ctx, depth, l));
            assert_eq!(lefts.load(Ordering::Relaxed), u64::from(depth), "{what}: every left ran");
        }
    }
}

#[test]
fn a_left_child_that_panics_after_its_sibling_still_drains() {
    let _g = serial();
    for workers in [1, 2] {
        let what = format!("left child, W={workers}");
        let rights = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&rights);
        panics_and_drains(workers, &what, LEFT_PANICS, move |ctx| {
            ctx.spawn(
                |_| panic!("{}", LEFT_PANICS),
                move |c| {
                    // One level more, so the right child's end is itself a
                    // spawn's children.
                    let r2 = Arc::clone(&r);
                    c.spawn(
                        move |_| {
                            r.fetch_add(1, Ordering::Relaxed);
                        },
                        move |_| {
                            r2.fetch_add(1, Ordering::Relaxed);
                        },
                    );
                },
            )
        });
        assert_eq!(rights.load(Ordering::Relaxed), 2, "{what}: the right subtree ran");
    }
}

/// `n` spawns, each with a leaf on one side and the rest of the recursion
/// on the other (`RIGHT`: on the right). Every leaf, and the last body,
/// adds 1 to `hits`.
fn linear<const RIGHT: bool>(ctx: Ctx<'_, DynSnzi>, n: u32, hits: Arc<AtomicU64>) {
    if n == 0 {
        hits.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let h = Arc::clone(&hits);
    let leaf = move |_: Ctx<'_, DynSnzi>| {
        h.fetch_add(1, Ordering::Relaxed);
    };
    let rest = move |c: Ctx<'_, DynSnzi>| linear::<RIGHT>(c, n - 1, hits);
    if RIGHT {
        ctx.spawn(leaf, rest);
    } else {
        ctx.spawn(rest, leaf);
    }
}

#[test]
fn deep_linear_recursions_fit_a_small_stack() {
    const DEPTH: u32 = 100_000;
    let _g = serial();
    // The caller is worker 0: the recursion runs on this thread's stack.
    let small = std::thread::Builder::new().stack_size(256 << 10);
    let ran = small
        .spawn(|| {
            let mut ran = Vec::new();
            for workers in [1, 2] {
                for right in [true, false] {
                    let hits = Arc::new(AtomicU64::new(0));
                    let h = Arc::clone(&hits);
                    let cfg = DynConfig::default();
                    run_dag_watched::<DynSnzi, _>(cfg, workers, watchdog(), move |ctx| {
                        if right {
                            linear::<true>(ctx, DEPTH, h)
                        } else {
                            linear::<false>(ctx, DEPTH, h)
                        }
                    });
                    ran.push((workers, right, hits.load(Ordering::Relaxed)));
                }
            }
            ran
        })
        .expect("spawn a thread with a 256 KiB stack")
        .join()
        .expect("no stack overflow");
    for (workers, right, hits) in ran {
        assert_eq!(hits, u64::from(DEPTH) + 1, "W={workers}, right-linear: {right}");
    }
}

/// The benchmark's `fib`: binary spawn down to `n < 2`, every leaf adding
/// its `n` into one sum, which is then `fib(n)`.
fn fib<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, sum: Arc<AtomicU64>) {
    if n < 2 {
        sum.fetch_add(n, Ordering::Relaxed);
        return;
    }
    let other = Arc::clone(&sum);
    ctx.spawn(move |c| fib(c, n - 1, sum), move |c| fib(c, n - 2, other));
}

fn fib_counts_exactly<C: CounterFamily>(cfg: C::Config) {
    // fib(n + 1) − 1 spawns of two children each, plus the root and the
    // final vertex.
    const N: u64 = 20;
    const VERTICES: u64 = 2 * (10_946 - 1) + 2;
    for workers in [1, 2, 4] {
        let what = format!("fib({N}) on {} at W={workers}", C::NAME);
        let before = Snapshot::take();
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        let stats = run_dag::<C, _>(cfg.clone(), workers, move |ctx| fib(ctx, N, s)).pool;
        let d = Snapshot::take().diff(&before);
        assert_eq!(sum.load(Ordering::Relaxed), 6_765, "{what}");
        assert_eq!((stats.suspends, stats.resumes), (0, 0), "{what}");
        assert_eq!(stats.tasks - stats.resumes, VERTICES, "{what}: tasks - resumes");
        if obs::enabled() {
            let born = d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse");
            let in_place = d.counter("spdag.spawn_inline");
            assert_eq!(born + in_place, VERTICES, "{what}: vertices born and children in place");
            assert_eq!(d.counter("spdag.spawns"), 10_946 - 1, "{what}: spawns");
            // How many spawns found their stack bound depends on the build's
            // frame sizes, not on the dag.
            assert!(in_place > 0, "{what}: children run in place");
        }
    }
}

#[test]
fn fib_counts_every_child_once_on_every_family() {
    let _g = serial();
    fib_counts_exactly::<DynSnzi>(DynConfig::default());
    fib_counts_exactly::<DynSnzi>(DynConfig::always_grow());
    fib_counts_exactly::<FetchAdd>(());
    fib_counts_exactly::<FixedDepth>(FixedConfig { depth: 3 });
}

/// A spawn tree `depth` levels deep; every leaf adds 1 to `leaves`.
#[cfg(feature = "fault-inject")]
fn tree(ctx: Ctx<'_, DynSnzi>, depth: u32, leaves: Arc<AtomicU64>) {
    if depth == 0 {
        leaves.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let l = Arc::clone(&leaves);
    ctx.spawn(move |c| tree(c, depth - 1, l), move |c| tree(c, depth - 1, leaves));
}

#[cfg(feature = "fault-inject")]
#[test]
fn the_panic_vertex_failpoint_fires_on_children_run_in_place() {
    use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
    const DEPTH: u32 = 3;
    let _g = serial();
    let plan = |mode| FaultPlan::new(1, vec![SiteSpec { site: "spdag.panic_vertex".into(), mode }]);
    // At W = 1 every child of the tree runs in place: the eligible bodies
    // are the root vertex and two per spawn (the final vertex is the
    // runtime's). Without a firing on children run in place, only the root
    // would be eligible.
    failpoint::install(&plan(FaultMode::Nth(u64::MAX)));
    let leaves = Arc::new(AtomicU64::new(0));
    let l = Arc::clone(&leaves);
    run_dag::<DynSnzi, _>(DynConfig::default(), 1, move |ctx| tree(ctx, DEPTH, l));
    let eligible = failpoint::tallies()[0].1;
    failpoint::clear();
    assert_eq!(leaves.load(Ordering::Relaxed), 1 << DEPTH);
    assert_eq!(eligible, 1 + 2 * ((1 << DEPTH) - 1), "the root and every child");

    for workers in [1, 2] {
        for nth in 1..=eligible {
            let what = format!("W={workers}, panic at eligible body {nth} of {eligible}");
            failpoint::install(&plan(FaultMode::Nth(nth)));
            let before = Snapshot::take();
            let leaves = Arc::new(AtomicU64::new(0));
            let l = Arc::clone(&leaves);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_dag_watched::<DynSnzi, _>(
                    DynConfig::default(),
                    workers,
                    watchdog(),
                    move |ctx| tree(ctx, DEPTH, l),
                )
            }));
            let d = Snapshot::take().diff(&before);
            let injected = failpoint::injected_count();
            failpoint::clear();
            assert_eq!(injected, 1, "{what}");
            let payload = result.expect_err("the injected panic reaches the caller");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("spdag.panic_vertex"), "{what}: propagated {msg:?}");
            // One body was cut down, with the leaves below it.
            assert!(leaves.load(Ordering::Relaxed) < 1 << DEPTH, "{what}");
            if obs::enabled() {
                assert_eq!(d.counter("sched.pairs_born"), d.counter("sched.pairs_freed"), "{what}");
                let born = d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse");
                let dead = d.counter("sched.vertex_recycled") + d.counter("sched.vertex_dropped");
                assert_eq!(born, dead, "{what}: vertices");
            }
        }
    }
}
