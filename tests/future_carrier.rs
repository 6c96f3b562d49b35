//! A future's completion rides its sole strand (`spdag::vertex`, "A
//! future's completion rides its sole strand"): the vertex that runs a
//! future's body carries the future's completion and sweeps in its own
//! epilogue, and so does the vertex that takes its place by a hand-off
//! that does not split it. Only a step that gives the future's scope a
//! second strand builds the completion into a vertex of its own, once.
//!
//! 1. Vertex births per future at W = 1, with no completion vertex:
//!    `future` and `future_strand` 1, `future_then` 2, `future_join` 3.
//! 2. Each step that adds a strand to a future's scope — `fork`,
//!    `fork_strand`, `Scope::fork`, a promoted left child, the unwind
//!    guard, the left child of a spawn past the stack bound, a nested
//!    future, a splitting hand-off and a `chain` — builds exactly one
//!    completion vertex, and the future completes after its whole subtree.
//! 3. A carrier whose body panics — or whose duty came by a hand-off, or
//!    that panicked while parked — completes its future poisoned, and the
//!    future's dependents drain.
//! 4. A four-worker stress over every route: every dependent is delivered
//!    exactly once; with `fault-inject`, under `spdag.force_bounce`.
//!
//! The telemetry registry and the failpoint plan are process-wide: the
//! tests serialize on the binary's lock.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use common::{panic_text, serial, watchdog, Ledger, Serial};
use dynsnzi::prelude::*;
use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
use spdag::run_dag_watched;

/// One kind of future a body makes.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Future,
    Strand,
    Then,
    Join,
}

/// What a one-worker run made: vertices born, completions run in place,
/// completion vertices built. `None` with telemetry compiled out.
fn one_worker_run(s: &Serial, kind: Option<Kind>, n: u64) -> Option<(u64, u64, u64)> {
    let what = format!("{n} of {kind:?}");
    let ledger = Ledger::open(s);
    let stats =
        run_dag_watched::<DynSnzi, _>(DynConfig::default(), 1, watchdog(), move |mut ctx| {
            let a = ctx.future(|_| 1u64);
            let b = ctx.future(|_| 2u64);
            for _ in 0..n {
                let f = match kind {
                    None => continue,
                    Some(Kind::Future) => ctx.future(|_| 3u64),
                    Some(Kind::Strand) => {
                        ctx.future_strand(|_: &mut Ctx<'_, DynSnzi>| StrandPoll::Done(3u64))
                    }
                    Some(Kind::Then) => ctx.future_then(&a, |_, v| v + 1),
                    Some(Kind::Join) => ctx.future_join(&a, &b, |_, x, y| x + y),
                };
                drop(f);
            }
        });
    let (m, d) = ledger.close(&what, &[&stats.pool])?;
    Some((m.vertices, m.completions_inline, d.counter("spdag.completions_built")))
}

#[test]
fn a_future_whose_scope_never_forks_builds_no_completion_vertex() {
    let s = serial();
    // The root, the final vertex and the two inputs' bodies, each of which
    // completes its future in its epilogue.
    let Some(base) = one_worker_run(&s, None, 0) else { return };
    assert_eq!(base, (4, 2, 0), "the root, the final vertex and two futures' bodies");
    const N: u64 = 16;
    for (kind, births) in [(Kind::Future, 1), (Kind::Strand, 1), (Kind::Then, 2), (Kind::Join, 3)] {
        let (vertices, inline, built) = one_worker_run(&s, Some(kind), N).expect("telemetry");
        // A body, and a waiting vertex per input a derived future touches;
        // the last of them carries the completion.
        assert_eq!(vertices - base.0, births * N, "{kind:?}: vertices born per future");
        assert_eq!(inline - base.1, N, "{kind:?}: completions run in place");
        assert_eq!(built, 0, "{kind:?}: completion vertices built");
    }
}

/// A step that gives a future's scope a second strand.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Fork,
    ForkStrand,
    ScopeFork,
    /// At W ≥ 2 the body's spawn finds its worker's deque empty and
    /// promotes its left child; at W = 1 both children run in place and
    /// no strand is added.
    Promote,
    /// The right child panics while its left sibling waits.
    Unwind,
    PastBound,
    NestedFuture,
    SplitHandOff,
    ChainFirstForks,
}

const STEPS: [Step; 9] = [
    Step::Fork,
    Step::ForkStrand,
    Step::ScopeFork,
    Step::Promote,
    Step::Unwind,
    Step::PastBound,
    Step::NestedFuture,
    Step::SplitHandOff,
    Step::ChainFirstForks,
];

/// How deep `Step::PastBound`'s right spine goes: far past the stack bound
/// in any build.
const SPINE: u64 = 4_000;

const UNWOUND: &str = "future_carrier: the right child unwinds";

/// The subtree of the future in `slot`: what each of its strands does.
#[derive(Clone)]
struct Subtree {
    seen: Arc<AtomicU64>,
    slot: Arc<OnceLock<FutureHandle<u64>>>,
}

impl Subtree {
    /// A strand of the future's subtree ran: the future cannot have
    /// completed (the root may not have filed its handle yet at W ≥ 2).
    fn ran(&self) {
        if let Some(f) = self.slot.get() {
            assert!(!f.is_done(), "a future completed before a strand of its subtree");
        }
        self.seen.fetch_add(1, Ordering::SeqCst);
    }

    fn body(&self) -> impl for<'b> FnOnce(Ctx<'b, DynSnzi>) + Send + 'static {
        let t = self.clone();
        move |_| t.ran()
    }

    /// A right spine of `n` spawns whose left children run the subtree.
    fn spine(self, c: Ctx<'_, DynSnzi>, n: u64) {
        if n == 0 {
            return;
        }
        let left = self.body();
        c.spawn(left, move |c| self.spine(c, n - 1));
    }
}

/// How many strands of its future's subtree `step`'s body runs
/// (`Subtree::ran`).
fn strands(step: Step) -> u64 {
    match step {
        Step::Fork | Step::ForkStrand | Step::NestedFuture => 2,
        Step::ScopeFork | Step::Promote | Step::SplitHandOff | Step::ChainFirstForks => 3,
        Step::Unwind => 1,
        Step::PastBound => SPINE,
    }
}

/// The body of `step`'s future. `other` is a future to touch, made only
/// for `Step::SplitHandOff`: in the others the future's body must find its
/// worker's deque empty when it spawns.
fn step_body(
    step: Step,
    t: Subtree,
    other: Option<FutureHandle<u64>>,
) -> impl for<'b> FnOnce(Ctx<'b, DynSnzi>) -> u64 + Send + 'static {
    move |mut c: Ctx<'_, DynSnzi>| {
        match step {
            Step::Fork => {
                c.fork(t.body());
                t.ran();
            }
            Step::ForkStrand => {
                let u = t.clone();
                c.fork_strand(move |_: &mut Ctx<'_, DynSnzi>| {
                    u.ran();
                    StrandPoll::Done(())
                });
                t.ran();
            }
            Step::ScopeFork => {
                let mut scope = c.into_scope();
                scope.fork(t.body());
                scope.fork(t.body());
                t.ran();
            }
            Step::Promote => {
                t.ran();
                c.spawn(t.body(), t.body());
            }
            Step::Unwind => c.spawn(t.body(), |_| panic!("{}", UNWOUND)),
            Step::PastBound => t.spine(c, SPINE),
            Step::NestedFuture => {
                let u = t.clone();
                let g = c.future(move |_| {
                    u.ran();
                    5u64
                });
                drop(g);
                t.ran();
            }
            Step::SplitHandOff => {
                t.ran();
                // The right child touches while the left child waits to
                // run in this vertex: the touch splits it.
                let (u, other) = (t.clone(), other.expect("a future to touch"));
                c.spawn(t.body(), move |c| c.touch(&other, move |_, _| u.ran()));
            }
            Step::ChainFirstForks => {
                let (u, v) = (t.clone(), t.clone());
                // The continuation closes a scope of its own, which its
                // `first` makes a counter for by forking.
                c.chain(
                    move |mut c| {
                        c.fork(u.body());
                        u.ran();
                    },
                    move |_| v.ran(),
                );
            }
        }
        7u64
    }
}

/// Run `step`'s future at `workers`, with a touch that reads how much of
/// its subtree ran; returns what the run built.
fn run_step(s: &Serial, step: Step, workers: usize) {
    let what = format!("{step:?} at W={workers}");
    let ledger = Ledger::open(s);
    let t = Subtree { seen: Arc::default(), slot: Arc::default() };
    let read = Arc::new(AtomicU64::new(u64::MAX));
    let (t2, r, slot) = (t.clone(), Arc::clone(&read), Arc::clone(&t.slot));
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_dag_watched::<DynSnzi, _>(DynConfig::default(), workers, watchdog(), move |mut ctx| {
            let other = (step == Step::SplitHandOff).then(|| ctx.future(|_| 0u64));
            let f = ctx.future(step_body(step, t2.clone(), other));
            let _ = slot.set(f.clone());
            let seen = Arc::clone(&t2.seen);
            ctx.touch(&f, move |_, v| {
                assert_eq!(*v, 7);
                r.store(seen.load(Ordering::SeqCst), Ordering::SeqCst);
            });
        })
    }));
    let strands = strands(step);
    let f = t.slot.get().expect("the root filed the handle");
    assert!(f.is_done(), "{what}: the future completed");
    if step == Step::Unwind {
        let msg = panic_text(result.expect_err("the right child's panic").as_ref());
        assert!(msg.contains(UNWOUND), "{what}: propagated {msg:?}");
        assert!(f.is_poisoned(), "{what}: the panic poisoned the future");
        assert_eq!(read.load(Ordering::SeqCst), u64::MAX, "{what}: the poisoned touch ran");
    } else {
        let stats = result.unwrap_or_else(|p| panic!("{what}: {}", panic_text(p.as_ref())));
        assert_eq!(stats.pool.suspends, stats.pool.resumes, "{what}");
        // The touch ran after the future completed, so after every strand
        // of its subtree.
        assert_eq!(read.load(Ordering::SeqCst), strands, "{what}: the touch saw the subtree");
    }
    assert_eq!(t.seen.load(Ordering::SeqCst), strands, "{what}: every strand ran once");
    // The ledger closes over dead objects: the filed handle goes first.
    drop(t);
    if let Some((m, d)) = ledger.close(&what, &[]) {
        let built = d.counter("spdag.completions_built");
        let added = !(step == Step::Promote && workers == 1);
        assert_eq!(built, u64::from(added), "{what}: completion vertices built");
        if step == Step::Promote {
            assert_eq!(m.promoted, u64::from(added), "{what}: promotions");
        }
        // Every other future — the one a split touches, a nested one —
        // completed in place.
        let futures = d.counter("spdag.futures_created");
        assert_eq!(m.completions_inline + built, futures, "{what}: one completion per future");
        assert_eq!(d.counter("spdag.fulfills"), futures, "{what}: sweeps");
    }
}

#[test]
fn each_step_that_adds_a_strand_builds_one_completion_vertex() {
    let s = serial();
    for step in STEPS {
        for workers in [1, 2] {
            run_step(&s, step, workers);
        }
    }
}

const INJECTED: &str = "future_carrier: an injected body panic";

/// How the panicking carrier got its duty.
#[derive(Clone, Copy, Debug)]
enum Victim {
    /// A future's body.
    Body,
    /// A `future_then` continuation, which took the body's place.
    HandedOff,
    /// A `future_strand` body that panics after a touch parked it.
    Parked,
}

/// A future whose carrier panics, with `touchers` forked touches of it and
/// of a `future_then` on it.
fn poisoned(s: &Serial, victim: Victim, workers: usize, touchers: u64) {
    let what = format!("{victim:?} at W={workers}");
    let ledger = Ledger::open(s);
    let slot = Arc::new(OnceLock::<FutureHandle<u64>>::new());
    let ran = Arc::new(AtomicU64::new(0));
    let (sl, r) = (Arc::clone(&slot), Arc::clone(&ran));
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_dag_watched::<DynSnzi, _>(DynConfig::default(), workers, watchdog(), move |mut ctx| {
            let input = ctx.future(|_| 1u64);
            let f = match victim {
                Victim::Body => ctx.future(|_| -> u64 { panic!("{}", INJECTED) }),
                Victim::HandedOff => {
                    ctx.future_then(&input, |_, _| -> u64 { panic!("{}", INJECTED) })
                }
                Victim::Parked => {
                    let input = input.clone();
                    // At W = 1 the input's body runs after this strand, so
                    // the await parks it and the panic follows the park.
                    ctx.future_strand(move |c: &mut Ctx<'_, DynSnzi>| -> StrandPoll<u64> {
                        let _parked = c.touch_await(&input);
                        panic!("{}", INJECTED)
                    })
                }
            };
            let _ = sl.set(f.clone());
            let derived = ctx.future_then(&f, |_, v| v + 1);
            let mut scope = ctx.into_scope();
            for h in [f, derived] {
                for _ in 0..touchers {
                    let (h, r) = (h.clone(), Arc::clone(&r));
                    scope.fork(move |c| {
                        c.touch(&h, move |_, _| {
                            r.fetch_add(1, Ordering::SeqCst);
                        })
                    });
                }
            }
        })
    }));
    let msg = panic_text(result.expect_err("the carrier's panic reaches the caller").as_ref());
    assert!(msg.contains(INJECTED), "{what}: propagated {msg:?}");
    let f = slot.get().expect("the root filed the handle");
    assert!(f.is_poisoned(), "{what}: the future completed poisoned");
    assert_eq!(ran.load(Ordering::SeqCst), 0, "{what}: a poisoned touch ran its continuation");
    drop(slot);
    if let Some((_, d)) = ledger.close(&what, &[]) {
        // The input, the victim and the derived future, whose continuation
        // is skipped.
        assert_eq!(d.counter("spdag.fulfills"), 3, "{what}: every future completed");
        assert_eq!(d.counter("spdag.completions_built"), 0, "{what}: no scope forked");
        assert_eq!(
            d.counter("spdag.poisoned_touches"),
            2 * touchers + 1,
            "{what}: every dependent of a poisoned future drained"
        );
    }
}

#[test]
fn a_carrier_that_panics_completes_its_future_poisoned() {
    let s = serial();
    for victim in [Victim::Body, Victim::HandedOff, Victim::Parked] {
        for workers in [1, 2] {
            poisoned(&s, victim, workers, 5);
        }
    }
}

/// One round: `FUTURES` futures of every route, each touched by forks and
/// awaited by a strand; each dependent counts its deliveries.
fn churn(workers: usize, round: u64) {
    const FUTURES: usize = 48;
    let hits: Arc<Vec<AtomicU64>> = Arc::new((0..FUTURES).map(|_| AtomicU64::new(0)).collect());
    let h = Arc::clone(&hits);
    let stats =
        run_dag_watched::<DynSnzi, _>(DynConfig::default(), workers, watchdog(), move |mut ctx| {
            let mut made: Vec<FutureHandle<u64>> = Vec::with_capacity(FUTURES);
            for i in 0..FUTURES {
                let f = match (i + round as usize) % 4 {
                    // A body that forks: the completion becomes a vertex.
                    0 => ctx.future(move |mut c| {
                        c.fork(|_| {});
                        i as u64
                    }),
                    // A body that hands its place on.
                    1 if i > 0 => ctx.future_then(&made[i - 1], move |_, _| i as u64),
                    2 => ctx
                        .future_strand(move |_: &mut Ctx<'_, DynSnzi>| StrandPoll::Done(i as u64)),
                    _ => ctx.future(move |_| i as u64),
                };
                made.push(f);
            }
            let mut scope = ctx.into_scope();
            for (i, f) in made.iter().enumerate() {
                for _ in 0..=(i % 3) {
                    let (f, h) = (f.clone(), Arc::clone(&h));
                    scope.fork(move |c| {
                        c.touch(&f, move |_, v| {
                            assert_eq!(*v, i as u64, "a future's value");
                            h[i].fetch_add(1, Ordering::SeqCst);
                        })
                    });
                }
                let (f, h) = (f.clone(), Arc::clone(&h));
                scope.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
                    assert_eq!(*strand_await!(c, &f), i as u64, "an awaited value");
                    h[i].fetch_add(1, Ordering::SeqCst);
                    StrandPoll::Done(())
                });
            }
        });
    assert_eq!(stats.pool.suspends, stats.pool.resumes, "round {round}: every park repaid");
    for (i, n) in hits.iter().enumerate() {
        let want = (i % 3) as u64 + 2;
        assert_eq!(n.load(Ordering::SeqCst), want, "round {round}: future {i}'s dependents");
    }
}

/// With `fault-inject`, one registration in four is held until its future
/// seals, so that it bounces; without it the plan is a no-op.
#[test]
fn every_dependent_is_delivered_once_at_four_workers() {
    let s = serial();
    for round in 0..24 {
        let bounce = SiteSpec { site: "spdag.force_bounce".into(), mode: FaultMode::OneIn(4) };
        failpoint::install(&FaultPlan::new(round, vec![bounce]));
        let ledger = Ledger::open(&s);
        let outcome = catch_unwind(AssertUnwindSafe(|| churn(4, round)));
        failpoint::clear();
        if let Err(p) = outcome {
            panic!("round {round}: {}", panic_text(p.as_ref()));
        }
        ledger.close(&format!("round {round}"), &[]);
    }
}
