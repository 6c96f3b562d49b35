//! Work-first spawn (`spdag::in_place`): a spawn's right child runs in its
//! parent's vertex at W ≥ 2, and both children do at W = 1, under the
//! parent's own handles. A child that is no vertex is held to what a vertex
//! guarantees:
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
//!    At W = 1 a spawn counts nothing: `fib(20)` makes no decrement pair
//!    and no in-counter.
//! 4. **Splits.** At W = 1 a right child runs while its left sibling waits,
//!    and a `chain` or `touch` it makes splits the vertex by one increment
//!    instead of ending it; so does a spawn past the stack bound, for each
//!    child, and the guard of a right child that unwinds. A right child
//!    that chains, touches, forks and makes a future; one that panics
//!    after it chained; and a right spine that crosses the stack bound are
//!    each exact in output and in what they made — pairs, vertices,
//!    children in place, in-counters — on every family at W = 1 and 2.
//! 5. **Failpoints** (`--features fault-inject`): `spdag.panic_vertex`
//!    fires on children run in place, which run user bodies.
//!
//! Tests serialize on a process-wide lock: the ledgers are diffs of the
//! global telemetry registry, and the failpoint plan is global.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use dynsnzi::prelude::*;
use sched::{PoolStats, WatchdogCfg};
use spdag::run_dag_watched;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `$case::<C>(cfg)` on every counter family.
macro_rules! over_families {
    ($case:ident) => {
        $case::<DynSnzi>(DynConfig::default());
        $case::<DynSnzi>(DynConfig::always_grow());
        $case::<FetchAdd>(());
        $case::<FixedDepth>(FixedConfig { depth: 3 });
    };
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

/// What one run made, from the telemetry diff `d` and the run's stats:
/// pairs born, vertices born, children run in place and in-counters made
/// (the dynamic family counts its counters as trees, the baselines by
/// their own probe). Checks the conservation ledgers on the way: every pair
/// born is freed, every vertex born retired, and — given the stats —
/// `tasks − resumes` is the vertices born plus the children run in place.
fn made(what: &str, d: &Snapshot, stats: Option<&PoolStats>) -> Made {
    let (pairs, freed) = (d.counter("sched.pairs_born"), d.counter("sched.pairs_freed"));
    assert_eq!(pairs, freed, "{what}: decrement pairs born {pairs}, freed {freed}");
    let vertices = d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse");
    let dead = d.counter("sched.vertex_recycled") + d.counter("sched.vertex_dropped");
    assert_eq!(vertices, dead, "{what}: vertices born {vertices}, retired {dead}");
    let in_place = d.counter("spdag.spawn_inline");
    if let Some(s) = stats {
        assert_eq!(s.tasks - s.resumes, vertices + in_place, "{what}: tasks - resumes");
    }
    let counters = d.counter("snzi.trees_created") + d.counter("incounter.created");
    Made { pairs, vertices, in_place, counters }
}

#[derive(Debug, PartialEq)]
struct Made {
    pairs: u64,
    vertices: u64,
    in_place: u64,
    counters: u64,
}

/// Run `root`, which must panic with `expected`, and check that the dag
/// drained: the payload reached the caller, and every decrement pair and
/// vertex born was freed and retired. Returns what the run made (`None`
/// without telemetry).
fn panics_and_drains<C: CounterFamily>(
    cfg: C::Config,
    workers: usize,
    what: &str,
    expected: &str,
    root: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
) -> Option<Made> {
    let before = Snapshot::take();
    let result =
        catch_unwind(AssertUnwindSafe(|| run_dag_watched::<C, _>(cfg, workers, watchdog(), root)));
    let d = Snapshot::take().diff(&before);
    let payload = result.expect_err("the panic reaches the caller");
    let text = payload.downcast_ref::<String>().cloned().unwrap_or_default();
    assert_eq!(text, expected, "{what}: the first payload, not a watchdog report");
    if !obs::enabled() {
        return None;
    }
    assert_eq!(d.counter("spdag.body_panics"), 1, "{what}: one body panicked");
    Some(made(what, &d, None))
}

#[test]
fn a_right_child_that_panics_in_place_leaves_its_left_sibling_to_run() {
    let _g = serial();
    for workers in [1, 2] {
        for depth in [1, 3] {
            let what = format!("right child at depth {depth}, W={workers}");
            let lefts = Arc::new(AtomicU64::new(0));
            let l = Arc::clone(&lefts);
            let root = move |ctx: Ctx<'_, DynSnzi>| right_spine(ctx, depth, l);
            panics_and_drains::<DynSnzi>(DynConfig::default(), workers, &what, RIGHT_PANICS, root);
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
        let root = move |ctx: Ctx<'_, DynSnzi>| {
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
        };
        panics_and_drains::<DynSnzi>(DynConfig::default(), workers, &what, LEFT_PANICS, root);
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
    const SPAWNS: u64 = 10_946 - 1;
    const VERTICES: u64 = 2 * SPAWNS + 2;
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
            let m = made(&what, &d, Some(&stats));
            assert_eq!(m.vertices + m.in_place, VERTICES, "{what}: vertices and children in place");
            assert_eq!(d.counter("spdag.spawns"), SPAWNS, "{what}: spawns");
            if workers == 1 {
                // fib(20) nests 20 spawns deep, well inside the stack bound:
                // every child runs in place, and nothing is counted.
                let nothing = Made { pairs: 0, vertices: 2, in_place: 2 * SPAWNS, counters: 0 };
                assert_eq!(m, nothing, "{what}: no pair, no counter");
            } else {
                // How many spawns found their stack bound depends on the
                // build's frame sizes, not on the dag.
                assert!(m.in_place > 0, "{what}: children run in place");
                assert_eq!((m.pairs, m.counters), (SPAWNS, 1), "{what}: an increment a spawn");
            }
        }
    }
}

#[test]
fn fib_counts_every_child_once_on_every_family() {
    let _g = serial();
    over_families!(fib_counts_exactly);
}

/// A body that adds `n` into `out`.
fn add<C: CounterFamily>(
    out: &Arc<AtomicU64>,
    n: u64,
) -> impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static {
    let out = Arc::clone(out);
    move |_| {
        out.fetch_add(n, Ordering::Relaxed);
    }
}

/// A spawn whose right child, while its left sibling waits, forks, makes a
/// future and spawns again; that spawn's right child chains and its left
/// child touches the future, both while the outer left child still waits.
/// The outer left child, with nothing left waiting, chains. The values
/// added into `out` sum to 2 + 4 + 8 + 16 + 1 + 32 = 63.
fn busy_right<C: CounterFamily>(ctx: Ctx<'_, C>, out: Arc<AtomicU64>) {
    let o = Arc::clone(&out);
    ctx.spawn(
        move |c| c.chain(add(&o, 1), add(&o, 32)),
        move |mut c| {
            c.fork(add(&out, 2));
            let f = c.future(|_| 4u64);
            let o = Arc::clone(&out);
            c.spawn(
                move |c| {
                    c.touch(&f, move |_, v| {
                        o.fetch_add(*v, Ordering::Relaxed);
                    })
                },
                move |c| c.chain(add(&out, 8), add(&out, 16)),
            );
        },
    );
}

fn a_busy_right_child_splits_its_vertex<C: CounterFamily>(cfg: C::Config) {
    for workers in [1, 2] {
        let what = format!("a busy right child on {} at W={workers}", C::NAME);
        let before = Snapshot::take();
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        let stats = run_dag_watched::<C, _>(cfg.clone(), workers, watchdog(), move |ctx| {
            busy_right(ctx, o)
        });
        let d = Snapshot::take().diff(&before);
        assert_eq!(out.load(Ordering::Relaxed), 63, "{what}");
        if !obs::enabled() {
            continue;
        }
        // Four increments either way: at W = 1 the fork, the future, and
        // the chain and the touch that split the vertex; at W = 2 the fork,
        // the future and the two spawns, and the chains and the touch move
        // their vertex's handles on. Vertices: the root and the final one,
        // the fork, the future's two, two per chain and the touch's; at
        // W = 2 also the two spawns' left children.
        let expected = if workers == 1 {
            Made { pairs: 4, vertices: 10, in_place: 4, counters: 1 }
        } else {
            Made { pairs: 4, vertices: 12, in_place: 2, counters: 1 }
        };
        assert_eq!(made(&what, &d, Some(&stats.pool)), expected, "{what}");
    }
}

#[test]
fn a_right_child_that_hands_off_while_its_sibling_waits_splits_its_vertex() {
    let _g = serial();
    over_families!(a_busy_right_child_splits_its_vertex);
}

const CHAINED_PANICS: &str = "inline_spawn: the right child panics after it chained";

fn a_right_child_that_chained_unwinds<C: CounterFamily>(cfg: C::Config) {
    for workers in [1, 2] {
        let what =
            format!("a right child that chained, then panicked, on {} at W={workers}", C::NAME);
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        let root = move |ctx: Ctx<'_, C>| {
            ctx.spawn(add(&o, 1), move |c| {
                c.chain(add(&o, 2), add(&o, 4));
                panic!("{}", CHAINED_PANICS);
            })
        };
        let m = panics_and_drains::<C>(cfg.clone(), workers, &what, CHAINED_PANICS, root);
        assert_eq!(out.load(Ordering::Relaxed), 7, "{what}: the chain and the left child ran");
        // At W = 1 the chain splits the vertex, and so does the guard that
        // pushes the left child when the right one unwinds; at W = 2 the
        // spawn makes the one increment, and the chain moves the handles.
        let pairs = if workers == 1 { 2 } else { 1 };
        if let Some(m) = m {
            assert_eq!(m, Made { pairs, vertices: 5, in_place: 1, counters: 1 }, "{what}");
        }
    }
}

#[test]
fn a_right_child_that_panics_after_it_chained_leaves_both_to_drain() {
    let _g = serial();
    over_families!(a_right_child_that_chained_unwinds);
}

/// A right spine `n` spawns deep; every left child adds 1 into `lefts`.
fn spine<C: CounterFamily>(ctx: Ctx<'_, C>, n: u32, lefts: Arc<AtomicU64>) {
    if n > 0 {
        ctx.spawn(add(&lefts, 1), move |c| spine(c, n - 1, lefts));
    }
}

fn a_right_spine_crosses_the_bound<C: CounterFamily>(cfg: C::Config) {
    // Far deeper than the stack bound in any build.
    const N: u32 = 4_000;
    for workers in [1, 2] {
        let what = format!("a {N}-deep right spine on {} at W={workers}", C::NAME);
        let before = Snapshot::take();
        let lefts = Arc::new(AtomicU64::new(0));
        let l = Arc::clone(&lefts);
        let stats =
            run_dag_watched::<C, _>(cfg.clone(), workers, watchdog(), move |ctx| spine(ctx, N, l));
        let d = Snapshot::take().diff(&before);
        assert_eq!(lefts.load(Ordering::Relaxed), u64::from(N), "{what}: every left ran");
        if !obs::enabled() {
            continue;
        }
        let m = made(&what, &d, Some(&stats.pool));
        let spawns = u64::from(N);
        // A spawn within the bound runs its children in place: both at
        // W = 1, the right one at W = 2.
        let per_spawn = if workers == 1 { 2 } else { 1 };
        let past = spawns - m.in_place / per_spawn;
        assert!(past > 0, "{what}: the spine crossed the stack bound");
        let (pairs, vertices) = if workers == 1 {
            // Each spawn past the bound finds a left sibling waiting, and
            // splits a place off its vertex for each of its two children.
            (2 * past, 2 + 2 * past)
        } else {
            (spawns, 2 + 2 * past + (spawns - past))
        };
        assert_eq!(m, Made { pairs, vertices, in_place: m.in_place, counters: 1 }, "{what}");
    }
}

#[test]
fn a_right_spine_crosses_the_stack_bound_while_its_siblings_wait() {
    let _g = serial();
    over_families!(a_right_spine_crosses_the_bound);
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
