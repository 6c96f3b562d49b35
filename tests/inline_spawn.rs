//! Lazy, work-first spawn (`spdag::in_place`): both children of a spawn
//! run in their parent's vertex, under the parent's own handles, the right
//! one while the left one waits — unless, with two or more workers, the
//! worker promotes the waiting left child into a vertex of its own, oldest
//! first, when its deque has nothing for a thief. A child that is no vertex
//! is held to what a vertex guarantees:
//!
//! 1. **Panics.** A right child that panics in place re-raises its payload
//!    at the caller *and* leaves its left sibling to run. A sibling that is
//!    not yet a vertex when the right child unwinds must be built and
//!    pushed by a guard, or the scope never drains. Checked at depth 1 and
//!    3 of a right spine, at W = 1 and W = 2, with the pair and vertex
//!    ledgers closed; a left child that panics after its right sibling
//!    signalled; and at W ∈ {2, 4} a right child that panics after its
//!    sibling was promoted and one that panics while it still waits.
//! 2. **Stack.** Children run in place nest; past a fixed stack bound a
//!    spawn makes both children vertices instead: it forks the left one,
//!    and the right one takes the spawning vertex's place, as a `chain`
//!    continuation does. 100 000-deep right-linear and left-linear
//!    recursions run on a thread with a 256 KiB stack.
//! 3. **Counting.** `fib(20)` is exact on every counter family at
//!    W ∈ {1, 2, 4}, and `tasks − resumes` is the number of vertices the
//!    dag has — the identity the benchmark checks after every iteration. A
//!    spawn counts nothing unless its left child is promoted: at W = 1
//!    `fib(20)` makes no decrement pair and no in-counter, and at W ≥ 2 one
//!    pair and one vertex per promotion (`spdag.spawn_promoted`).
//! 4. **Splits.** A right child runs while its left sibling waits, and a
//!    `chain` or `touch` it makes splits the vertex by one increment instead
//!    of ending it; so does the right child of a spawn past the stack bound
//!    (its left child is forked, by one increment, either way), and the
//!    guard of a right child that unwinds forks its sibling. A right child
//!    that chains, touches, forks and makes a future; one that panics after
//!    it chained; and a right spine that crosses the stack bound are each
//!    exact in output and in what they made — pairs, vertices, children in
//!    place, in-counters, promotions — on every family at W = 1 and 2. So
//!    is, at W = 2, a spine whose spawns past the bound find nothing
//!    waiting, every left child before them promoted: their right child
//!    takes the spawning vertex's place and shares the left child's pair.
//! 5. **Promotion.** At W ∈ {2, 4}, on every family: the oldest waiting
//!    left child is the one promoted, and it reaches a thief; and a
//!    `run_dag` nested in a right child — with W ∈ {1, 2, 4} around it —
//!    promotes nothing of the run around it, and its root's `chain` reads
//!    its own latent list, so splits nothing.
//! 6. **Failpoints** (`--features fault-inject`): `spdag.panic_vertex`
//!    fires on children run in place, which run user bodies; armed in turn
//!    on every body of a spawn tree at W ∈ {1, 2, 4}, on every family, the
//!    dag drains.
//!
//! What a run made is read from the ledger of `tests/common`, which also
//! checks that everything born died and — given the run's statistics —
//! that `tasks − resumes` is the vertices born plus the children run in
//! place. Tests serialize on the binary's lock: the ledgers are diffs of
//! the global telemetry registry, and the failpoint plan is global.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use common::{panic_text, serial, watchdog, Ledger, Made, Serial};
use dynsnzi::prelude::*;
use spdag::run_dag_watched;

/// Run `$case::<C>(s, cfg)` on every counter family.
macro_rules! over_families {
    ($case:ident, $s:expr) => {
        $case::<DynSnzi>($s, DynConfig::default());
        $case::<DynSnzi>($s, DynConfig::always_grow());
        $case::<FetchAdd>($s, ());
        $case::<FixedDepth>($s, FixedConfig { depth: 3 });
    };
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
/// drained: the payload reached the caller, and the ledger closes. Returns
/// what the run made (`None` without telemetry).
fn panics_and_drains<C: CounterFamily>(
    s: &Serial,
    cfg: C::Config,
    workers: usize,
    what: &str,
    expected: &str,
    root: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
) -> Option<Made> {
    let ledger = Ledger::open(s);
    let result =
        catch_unwind(AssertUnwindSafe(|| run_dag_watched::<C, _>(cfg, workers, watchdog(), root)));
    let payload = result.expect_err("the panic reaches the caller");
    let text = panic_text(payload.as_ref());
    assert_eq!(text, expected, "{what}: the first payload, not a watchdog report");
    let (made, d) = ledger.close(what, &[])?;
    assert_eq!(d.counter("spdag.body_panics"), 1, "{what}: one body panicked");
    Some(made)
}

#[test]
fn a_right_child_that_panics_in_place_leaves_its_left_sibling_to_run() {
    let s = serial();
    for workers in [1, 2] {
        for depth in [1, 3] {
            let what = format!("right child at depth {depth}, W={workers}");
            let lefts = Arc::new(AtomicU64::new(0));
            let l = Arc::clone(&lefts);
            let root = move |ctx: Ctx<'_, DynSnzi>| right_spine(ctx, depth, l);
            panics_and_drains::<DynSnzi>(
                &s,
                DynConfig::default(),
                workers,
                &what,
                RIGHT_PANICS,
                root,
            );
            assert_eq!(lefts.load(Ordering::Relaxed), u64::from(depth), "{what}: every left ran");
        }
    }
}

#[test]
fn a_left_child_that_panics_after_its_sibling_still_drains() {
    let s = serial();
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
        panics_and_drains::<DynSnzi>(&s, DynConfig::default(), workers, &what, LEFT_PANICS, root);
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

fn fib_counts_exactly<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    // fib(n + 1) − 1 spawns of two children each, plus the root and the
    // final vertex.
    const N: u64 = 20;
    const SPAWNS: u64 = 10_946 - 1;
    const VERTICES: u64 = 2 * SPAWNS + 2;
    for workers in [1, 2, 4] {
        let what = format!("fib({N}) on {} at W={workers}", C::NAME);
        let ledger = Ledger::open(s);
        let sum = Arc::new(AtomicU64::new(0));
        let acc = Arc::clone(&sum);
        let stats = run_dag::<C, _>(cfg.clone(), workers, move |ctx| fib(ctx, N, acc)).pool;
        assert_eq!(sum.load(Ordering::Relaxed), 6_765, "{what}");
        assert_eq!((stats.suspends, stats.resumes), (0, 0), "{what}");
        assert_eq!(stats.tasks - stats.resumes, VERTICES, "{what}: tasks - resumes");
        if let Some((m, d)) = ledger.close(&what, &[&stats]) {
            assert_eq!(m.vertices + m.in_place, VERTICES, "{what}: vertices and children in place");
            assert_eq!(d.counter("spdag.spawns"), SPAWNS, "{what}: spawns");
            // fib(20) nests 20 spawns deep, well inside the stack bound:
            // every child runs in place unless it is a left child its
            // worker promoted, by one increment, into a vertex of its own.
            // Only a run of two or more workers promotes, and then the
            // root's first spawn does: its worker's deque is empty. At
            // W = 1 nothing is counted.
            let p = m.promoted;
            if workers == 1 {
                assert_eq!(p, 0, "{what}: nothing to promote to");
            }
            let counters = u64::from(workers > 1);
            let expected = Made {
                pairs: p,
                vertices: 2 + p,
                in_place: 2 * SPAWNS - p,
                completions_inline: 0,
                counters,
                promoted: p,
            };
            assert_eq!(m, expected, "{what}: a pair and a vertex per promotion");
        }
    }
}

#[test]
fn fib_counts_every_child_once_on_every_family() {
    let s = serial();
    over_families!(fib_counts_exactly, &s);
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

fn a_busy_right_child_splits_its_vertex<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    for workers in [1, 2] {
        let what = format!("a busy right child on {} at W={workers}", C::NAME);
        let ledger = Ledger::open(s);
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        let stats = run_dag_watched::<C, _>(cfg.clone(), workers, watchdog(), move |ctx| {
            busy_right(ctx, o)
        });
        assert_eq!(out.load(Ordering::Relaxed), 63, "{what}");
        let Some((m, _)) = ledger.close(&what, &[&stats.pool]) else { continue };
        // Four increments whatever is promoted: the fork, the future, and
        // two more. The outer left child waits, or is promoted — at W = 2
        // always, by the root's first spawn, whose worker's deque is empty.
        // The inner one waits unless the deque is empty again at the inner
        // spawn: then it is promoted (the outer one went first, oldest
        // first), and the chain and the touch move their vertex's handles
        // on. If it waits, the chain splits the vertex, and the touch, made
        // by the inner left child in place with nothing left waiting, moves
        // them on; at W = 1 the touch splits too, for the outer left child.
        // Vertices: the root and the final one, the fork, the future's body
        // (it never forks, so it completes the future in its epilogue), two
        // per chain and the touch's, and one per promotion.
        let p = m.promoted;
        if workers == 1 {
            assert_eq!(p, 0, "{what}: nothing to promote to");
        }
        let expected = Made {
            pairs: 4,
            vertices: 9 + p,
            in_place: 4 - p,
            completions_inline: 1,
            counters: 1,
            promoted: p,
        };
        assert_eq!(m, expected, "{what}");
    }
}

#[test]
fn a_right_child_that_hands_off_while_its_sibling_waits_splits_its_vertex() {
    let s = serial();
    over_families!(a_busy_right_child_splits_its_vertex, &s);
}

const CHAINED_PANICS: &str = "inline_spawn: the right child panics after it chained";

fn a_right_child_that_chained_unwinds<C: CounterFamily>(s: &Serial, cfg: C::Config) {
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
        let m = panics_and_drains::<C>(s, cfg.clone(), workers, &what, CHAINED_PANICS, root);
        assert_eq!(out.load(Ordering::Relaxed), 7, "{what}: the chain and the left child ran");
        // At W = 1 the chain splits the vertex, and so does the guard that
        // pushes the left child when the right one unwinds. At W = 2 the
        // spawn finds its worker's deque empty and promotes the left child,
        // by the one increment; the chain moves the handles, and the guard
        // finds nothing waiting.
        let (pairs, promoted) = if workers == 1 { (2, 0) } else { (1, 1) };
        if let Some(m) = m {
            let expected = Made {
                pairs,
                vertices: 5,
                in_place: 1,
                completions_inline: 0,
                counters: 1,
                promoted,
            };
            assert_eq!(m, expected, "{what}");
        }
    }
}

#[test]
fn a_right_child_that_panics_after_it_chained_leaves_both_to_drain() {
    let s = serial();
    over_families!(a_right_child_that_chained_unwinds, &s);
}

/// Spin until `done()`; a test that waits longer than this has lost the
/// schedule it built, and fails here instead of stalling.
fn spin_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(4);
    while !done() {
        assert!(Instant::now() < deadline, "inline_spawn: waited too long for {what}");
        std::thread::yield_now();
    }
}

/// Keep this worker's deque holding work, so that the spawns after this
/// call find something there for a thief and promote nothing, until `go`
/// is set: fork `workers − 1` bodies that spin until then — each thief
/// that takes one is held by it — and one more behind them, which no thief
/// can reach before it has taken one of those. Each adds 1 to `ran` when
/// it is done: at `workers` the deque is empty again.
fn hold_thieves<C: CounterFamily>(
    ctx: &mut Ctx<'_, C>,
    workers: usize,
    go: &Arc<AtomicBool>,
    ran: &Arc<AtomicU64>,
) {
    for _ in 1..workers {
        let (go, ran) = (Arc::clone(go), Arc::clone(ran));
        ctx.fork(move |_| {
            spin_until("go", || go.load(Ordering::SeqCst));
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    ctx.fork(add(ran, 1));
}

/// A right spine `n` spawns deep; every left child adds 1 into `lefts`, and
/// the last right child sets `done`.
fn spine<C: CounterFamily>(ctx: Ctx<'_, C>, n: u32, lefts: Arc<AtomicU64>, done: Arc<AtomicBool>) {
    if n == 0 {
        done.store(true, Ordering::SeqCst);
        return;
    }
    ctx.spawn(add(&lefts, 1), move |c| spine(c, n - 1, lefts, done));
}

fn a_right_spine_crosses_the_bound<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    // Far deeper than the stack bound in any build.
    const N: u32 = 4_000;
    for workers in [1, 2] {
        let what = format!("a {N}-deep right spine on {} at W={workers}", C::NAME);
        let ledger = Ledger::open(s);
        let lefts = Arc::new(AtomicU64::new(0));
        let l = Arc::clone(&lefts);
        let stats = run_dag_watched::<C, _>(cfg.clone(), workers, watchdog(), move |mut ctx| {
            // Every left sibling waits: the thief is held, and the deque
            // holds work, until the spine is done.
            let (done, held) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicU64::new(0)));
            hold_thieves(&mut ctx, workers, &done, &held);
            spine(ctx, N, l, done)
        });
        assert_eq!(lefts.load(Ordering::Relaxed), u64::from(N), "{what}: every left ran");
        let Some((m, _)) = ledger.close(&what, &[&stats.pool]) else { continue };
        // A spawn within the bound runs both children in place; each spawn
        // past the bound finds a left sibling waiting, and splits a place
        // off its vertex for each of its two children. Besides: the root
        // and the final vertex, and a pair and a vertex per held fork.
        let past = u64::from(N) - m.in_place / 2;
        assert!(past > 0, "{what}: the spine crossed the stack bound");
        let forks = workers as u64;
        let (pairs, vertices) = (forks + 2 * past, 2 + forks + 2 * past);
        let expected = Made {
            pairs,
            vertices,
            in_place: m.in_place,
            completions_inline: 0,
            counters: 1,
            promoted: 0,
        };
        assert_eq!(m, expected, "{what}");
    }
}

#[test]
fn a_right_spine_crosses_the_stack_bound_while_its_siblings_wait() {
    let s = serial();
    over_families!(a_right_spine_crosses_the_bound, &s);
}

/// Run `f` more than the stack bound below this frame.
#[inline(never)]
fn past_the_bound<R>(f: impl FnOnce() -> R) -> R {
    let pad = [0u8; 80 << 10];
    std::hint::black_box(&pad);
    let r = f();
    std::hint::black_box(&pad);
    r
}

/// What each child of one spawn of [`handoff_spine`] has seen of itself:
/// the thread that started the left one, and whether the right one started.
#[derive(Default)]
struct Started {
    left: Mutex<Option<ThreadId>>,
    right: AtomicBool,
}

/// A right spine `n` spawns deep in which the two children of every spawn
/// run on two threads at once: each waits to see the other started, the
/// right one its left sibling on another thread. Each right child then goes
/// on past the stack bound, so the spawns alternate. One runs in place, and
/// its worker promotes the left child, since its deque holds nothing. The
/// next, past the bound, finds nothing waiting, and its right child is a
/// vertex of its own, whose spawn runs in place again. Every left child
/// adds 1 into `lefts`.
fn handoff_spine<C: CounterFamily>(ctx: Ctx<'_, C>, n: u32, lefts: Arc<AtomicU64>) {
    if n == 0 {
        return;
    }
    let started = Arc::new(Started::default());
    let (s, l) = (Arc::clone(&started), Arc::clone(&lefts));
    ctx.spawn(
        move |_| {
            *s.left.lock().unwrap() = Some(std::thread::current().id());
            spin_until("the right sibling", || s.right.load(Ordering::SeqCst));
            l.fetch_add(1, Ordering::Relaxed);
        },
        move |c| {
            started.right.store(true, Ordering::SeqCst);
            let me = std::thread::current().id();
            let left_elsewhere = || matches!(*started.left.lock().unwrap(), Some(t) if t != me);
            spin_until("the left sibling on another thread", left_elsewhere);
            past_the_bound(move || handoff_spine(c, n - 1, lefts))
        },
    );
}

fn a_spawn_past_the_bound_with_nothing_waiting<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    // Spawns in place and past the bound, K of each.
    const K: u64 = 8;
    let what = format!("a spine past the bound with nothing waiting on {} at W=2", C::NAME);
    let ledger = Ledger::open(s);
    let lefts = Arc::new(AtomicU64::new(0));
    let l = Arc::clone(&lefts);
    let stats =
        run_dag_watched::<C, _>(cfg, 2, watchdog(), move |ctx| handoff_spine(ctx, 2 * K as u32, l));
    assert_eq!(lefts.load(Ordering::Relaxed), 2 * K, "{what}: every left ran");
    let Some((m, _)) = ledger.close(&what, &[&stats.pool]) else { return };
    // A spawn in place: one promotion, a pair and a vertex, and its right
    // child in place. A spawn past the bound: one increment, its pair shared
    // by its two children, both vertices; the right one takes the spawning
    // vertex's place. Besides: the root and the final vertex.
    let expected = Made {
        pairs: 2 * K,
        vertices: 2 + 3 * K,
        in_place: K,
        completions_inline: 0,
        counters: 1,
        promoted: K,
    };
    assert_eq!(m, expected, "{what}");
}

#[test]
fn a_spawn_past_the_bound_with_nothing_waiting_hands_its_place_to_the_right_child() {
    let s = serial();
    over_families!(a_spawn_past_the_bound_with_nothing_waiting, &s);
}

/// Where each marked left child ran.
type Ran = Arc<Mutex<Vec<(&'static str, ThreadId)>>>;

/// A body that notes in `ran` that `name` ran on this thread.
fn mark<C: CounterFamily>(
    ran: &Ran,
    name: &'static str,
) -> impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static {
    let ran = Arc::clone(ran);
    move |_| ran.lock().unwrap().push((name, std::thread::current().id()))
}

fn the_oldest_waiting_left_child_is_promoted<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    for workers in [2, 4] {
        let what = format!("oldest first on {} at W={workers}", C::NAME);
        let ledger = Ledger::open(s);
        let ran: Ran = Arc::default();
        let r = Arc::clone(&ran);
        let stats = run_dag_watched::<C, _>(cfg.clone(), workers, watchdog(), move |mut ctx| {
            let (go, held) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicU64::new(0)));
            hold_thieves(&mut ctx, workers, &go, &held);
            r.lock().unwrap().push(("root", std::thread::current().id()));
            // Two spawns whose left children wait: the deque holds work.
            ctx.spawn(mark(&r, "outer"), move |c| {
                c.spawn(mark(&r, "middle"), move |c| {
                    go.store(true, Ordering::SeqCst);
                    spin_until("the held bodies", || held.load(Ordering::SeqCst) == workers as u64);
                    // The deque is empty: this spawn promotes the oldest
                    // waiting left child, and this right child finishes
                    // only once a thief has started it.
                    let outer = |r: &Ran| r.lock().unwrap().iter().any(|(n, _)| *n == "outer");
                    c.spawn(mark(&r, "inner"), move |_| {
                        spin_until("the outer left child", || outer(&r))
                    })
                })
            })
        });
        let ran = ran.lock().unwrap();
        let on = |name| ran.iter().filter(|(n, _)| *n == name).map(|(_, t)| *t).collect::<Vec<_>>();
        let root = on("root")[0];
        assert_ne!(on("outer"), [root], "{what}: the outer left child ran on a thief");
        assert_eq!(on("outer").len(), 1, "{what}: the outer left child ran once");
        assert_eq!(on("middle"), [root], "{what}: the middle left child ran in place");
        assert_eq!(on("inner"), [root], "{what}: the inner left child ran in place");
        if let Some((m, _)) = ledger.close(&what, &[&stats.pool]) {
            // A pair and a vertex per held fork and for the one promotion;
            // the root and the final vertex; the other five children ran
            // in place.
            let w = workers as u64;
            let expected = Made {
                pairs: w + 1,
                vertices: w + 3,
                in_place: 5,
                completions_inline: 0,
                counters: 1,
                promoted: 1,
            };
            assert_eq!(m, expected, "{what}");
        }
    }
}

#[test]
fn the_oldest_waiting_left_child_is_promoted_to_a_thief() {
    let s = serial();
    over_families!(the_oldest_waiting_left_child_is_promoted, &s);
}

fn a_right_child_panics_around_a_promotion<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    for workers in [2, 4] {
        for waits in [false, true] {
            let what = format!(
                "a right child that panics while its sibling {} on {} at W={workers}",
                if waits { "waits" } else { "is promoted" },
                C::NAME
            );
            let lefts = Arc::new(AtomicU64::new(0));
            let l = Arc::clone(&lefts);
            let root = move |mut ctx: Ctx<'_, C>| {
                let (go, held) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicU64::new(0)));
                if waits {
                    hold_thieves(&mut ctx, workers, &go, &held);
                }
                // Without held work the spawn finds its worker's deque
                // empty, and promotes the left child at once.
                ctx.spawn(add(&l, 1), move |_| {
                    go.store(true, Ordering::SeqCst);
                    panic!("{}", RIGHT_PANICS);
                })
            };
            let m = panics_and_drains::<C>(s, cfg.clone(), workers, &what, RIGHT_PANICS, root);
            assert_eq!(lefts.load(Ordering::Relaxed), 1, "{what}: the left child ran once");
            let Some(m) = m else { continue };
            // One increment for the left child either way: its promotion,
            // or the guard's split when the right child unwinds. The root,
            // the final vertex and the left child are vertices; so is each
            // held fork, with a pair of its own.
            let forks = if waits { workers as u64 } else { 0 };
            let promoted = u64::from(!waits);
            let expected = Made {
                pairs: forks + 1,
                vertices: forks + 3,
                in_place: 1,
                completions_inline: 0,
                counters: 1,
                promoted,
            };
            assert_eq!(m, expected, "{what}");
        }
    }
}

#[test]
fn a_right_child_that_panics_around_a_promotion_drains_exactly() {
    let s = serial();
    over_families!(a_right_child_panics_around_a_promotion, &s);
}

fn a_nested_run_leaves_the_waiting_left_child<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    // fib(12): 232 spawns.
    const SPAWNS: u64 = 233 - 1;
    for workers in [1, 2, 4] {
        let what = format!("a run nested in a right child on {} at W={workers}", C::NAME);
        let ledger = Ledger::open(s);
        let ran: Ran = Arc::default();
        let r = Arc::clone(&ran);
        let inner_cfg = cfg.clone();
        run_dag_watched::<C, _>(cfg.clone(), workers, watchdog(), move |mut ctx| {
            let (go, held) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicU64::new(0)));
            hold_thieves(&mut ctx, workers, &go, &held);
            r.lock().unwrap().push(("root", std::thread::current().id()));
            let right_done = Arc::new(AtomicBool::new(false));
            let done = Arc::clone(&right_done);
            let left = mark(&r, "left");
            ctx.spawn(
                move |c| {
                    assert!(done.load(Ordering::SeqCst), "the left child ran before its sibling");
                    left(c)
                },
                move |_| {
                    // The nested run's root chains: its handoff reads the
                    // nested run's own latent list, empty while this run's
                    // left child waits, and splits nothing. The nested run's
                    // first spawn finds its own deque empty and promotes: its
                    // own left child, never this one.
                    let sum = Arc::new(AtomicU64::new(0));
                    let acc = Arc::clone(&sum);
                    run_dag::<C, _>(inner_cfg, 2, move |c| c.chain(|c| fib(c, 12, acc), |_| {}));
                    assert_eq!(sum.load(Ordering::Relaxed), 144, "the nested run's fib(12)");
                    go.store(true, Ordering::SeqCst);
                    right_done.store(true, Ordering::SeqCst);
                },
            )
        });
        let ran = ran.lock().unwrap();
        assert_eq!(ran[0].0, "root");
        assert_eq!(ran[1..], [("left", ran[0].1)], "{what}: the left child ran in place");
        if let Some((m, _)) = ledger.close(&what, &[]) {
            // Both runs' telemetry: the outer one promoted nothing, so every
            // promotion, pair and vertex past the held forks, the two runs'
            // roots and final vertices and the chain's two is the nested
            // run's.
            let (w, p) = (workers as u64, m.promoted);
            let in_place = 2 + 2 * SPAWNS - p;
            let expected = Made {
                pairs: w + p,
                vertices: w + 6 + p,
                in_place,
                completions_inline: 0,
                counters: 2,
                promoted: p,
            };
            assert_eq!(m, expected, "{what}");
        }
    }
}

#[test]
fn a_run_nested_in_a_right_child_promotes_nothing_of_the_run_around_it() {
    let s = serial();
    over_families!(a_nested_run_leaves_the_waiting_left_child, &s);
}

/// A spawn tree `depth` levels deep; every leaf adds 1 to `leaves`.
#[cfg(feature = "fault-inject")]
fn tree<C: CounterFamily>(ctx: Ctx<'_, C>, depth: u32, leaves: Arc<AtomicU64>) {
    if depth == 0 {
        leaves.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let l = Arc::clone(&leaves);
    ctx.spawn(move |c| tree(c, depth - 1, l), move |c| tree(c, depth - 1, leaves));
}

#[cfg(feature = "fault-inject")]
fn the_panic_vertex_failpoint_fires_on_every_body<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
    const DEPTH: u32 = 3;
    let plan = |mode| FaultPlan::new(1, vec![SiteSpec { site: "spdag.panic_vertex".into(), mode }]);
    // At W = 1 every child of the tree runs in place: the eligible bodies
    // are the root vertex and two per spawn (the final vertex is the
    // runtime's). Without a firing on children run in place, only the root
    // would be eligible. At W ≥ 2 a promoted left child is a vertex, and
    // eligible as one.
    failpoint::install(&plan(FaultMode::Nth(u64::MAX)));
    let leaves = Arc::new(AtomicU64::new(0));
    let l = Arc::clone(&leaves);
    run_dag::<C, _>(cfg.clone(), 1, move |ctx| tree(ctx, DEPTH, l));
    let eligible = failpoint::tallies()[0].1;
    failpoint::clear();
    assert_eq!(leaves.load(Ordering::Relaxed), 1 << DEPTH);
    assert_eq!(eligible, 1 + 2 * ((1 << DEPTH) - 1), "the root and every child");

    for workers in [1, 2, 4] {
        for nth in 1..=eligible {
            let what =
                format!("{} at W={workers}, panic at eligible body {nth} of {eligible}", C::NAME);
            failpoint::install(&plan(FaultMode::Nth(nth)));
            let ledger = Ledger::open(s);
            let leaves = Arc::new(AtomicU64::new(0));
            let l = Arc::clone(&leaves);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_dag_watched::<C, _>(cfg.clone(), workers, watchdog(), move |ctx| {
                    tree(ctx, DEPTH, l)
                })
            }));
            let injected = failpoint::injected_count();
            failpoint::clear();
            assert_eq!(injected, 1, "{what}");
            let payload = result.expect_err("the injected panic reaches the caller");
            let msg = panic_text(payload.as_ref());
            assert!(msg.contains("spdag.panic_vertex"), "{what}: propagated {msg:?}");
            // One body was cut down, with the leaves below it.
            assert!(leaves.load(Ordering::Relaxed) < 1 << DEPTH, "{what}");
            ledger.close(&what, &[]);
        }
    }
}

#[cfg(feature = "fault-inject")]
#[test]
fn the_panic_vertex_failpoint_fires_on_children_run_in_place() {
    let s = serial();
    over_families!(the_panic_vertex_failpoint_fires_on_every_body, &s);
}
