//! Property-based testing of panic isolation (`docs/robustness.md`):
//! random series-parallel programs — spawn/chain structure plus forked
//! future+`touch` and strand `touch_await` stages — run with a panic
//! injected at a random site, and the drain-to-completion contract is
//! checked from the caller:
//!
//! 1. the injected payload propagates to the `run_dag` caller (first
//!    panic wins), and a panic-free program never panics;
//! 2. nothing hangs: every run is watchdog-bounded at 1 and 4 workers;
//! 3. exactly-once survives poisoning — every vertex the panic did not
//!    cut down still runs its body exactly once, a `touch` on the
//!    poisoned future skips its closure exactly once, and a
//!    `touch_await` on it panics with the descriptive poisoned message
//!    rather than hanging;
//! 4. the conservation identities — vertices, decrement pairs
//!    (`pairs_born == pairs_freed`, both equal to the program's
//!    increments: a pair exists only where a scope forked, a panic
//!    removes none, and at W = 1 an unwinding right child adds one per
//!    left sibling it leaves waiting), PoolArcs, out-set blocks and adds — close at
//!    quiescence even across a poisoned run (checked when telemetry is
//!    compiled in).
//!
//! The file runs identically in every feature leg: it injects panics
//! with plain `panic!`, not failpoints, so `fault-inject` being absent
//! changes nothing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use incounter::{DynConfig, DynSnzi};
use proptest::prelude::*;
use sched::WatchdogCfg;
use spdag::{run_dag_watched, strand_await, Ctx, StrandPoll};

/// The obs registry and the panic hook are process-global; tests in
/// this binary serialize on this lock so each case's snapshot window is
/// quiescent. `into_inner` on poison: a failing case must not cascade.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const INJECTED: &str = "panic_safety: injected body panic";

#[derive(Debug, Clone)]
enum Prog {
    /// Plain body: stamps its cell. The victim leaf panics instead.
    Leaf(usize),
    Spawn(Box<Prog>, Box<Prog>),
    Chain(Box<Prog>, Box<Prog>),
    /// `fork` the first side onto the enclosing scope, run the second
    /// inline — the dag shape `touch`/`touch_await` need around them.
    Fork(Box<Prog>, Box<Prog>),
    /// Future + CPS `touch`: the continuation stamps the cell. A victim
    /// here panics in the *future's* body, so the continuation must be
    /// skipped (poisoned touch), not run valueless.
    Touch(usize),
    /// Future + strand `touch_await`: the strand stamps after the
    /// await. A victim here poisons the future, so the await must
    /// panic descriptively (never hang); the stamp stays 0.
    TouchAwait(usize),
}

impl Prog {
    fn cells(&self) -> usize {
        match self {
            Prog::Leaf(_) | Prog::Touch(_) | Prog::TouchAwait(_) => 1,
            Prog::Spawn(a, b) | Prog::Chain(a, b) | Prog::Fork(a, b) => a.cells() + b.cells(),
        }
    }

    /// In-counter increments the program performs (the dag drains
    /// structurally, so a cut-down victim — a leaf or a future's body —
    /// removes none): one per fork and future, and one per spawn with two
    /// or more workers. In a one-worker run (`solo`) a spawn makes none:
    /// its children run one after the other in its vertex, the right one
    /// while the left one waits (`pending`), and a touch or a chain made
    /// meanwhile splits that vertex by one increment. So does a right child
    /// that unwinds (`panics_here`): its waiting sibling becomes a vertex of
    /// its own, and runs with nothing pending.
    fn increments(&self, solo: bool, pending: bool, victim: Option<usize>) -> u64 {
        let inc = |p: &Prog, pending| p.increments(solo, pending, victim);
        match self {
            Prog::Leaf(_) => 0,
            Prog::Touch(_) => 1 + u64::from(pending),
            Prog::TouchAwait(_) => 2,
            Prog::Chain(a, b) => u64::from(pending) + inc(a, false) + inc(b, false),
            Prog::Fork(a, b) => 1 + inc(a, false) + inc(b, pending),
            Prog::Spawn(a, b) => {
                let unwinds = solo && b.panics_here(victim);
                u64::from(!solo || unwinds) + inc(a, pending && !unwinds) + inc(b, solo)
            }
        }
    }

    /// In-counters the program makes: one per finish scope that forks.
    /// Returns whether the scope `self` runs in is stepped by it, and the
    /// counters of the scopes nested inside (each `chain` opens one around
    /// its first side; a future's body here is a leaf and never forks).
    /// The arguments are [`increments`](Prog::increments)'.
    fn counters(&self, solo: bool, pending: bool, victim: Option<usize>) -> (bool, u64) {
        let cnt = |p: &Prog, pending| p.counters(solo, pending, victim);
        match self {
            Prog::Leaf(_) => (false, 0),
            Prog::Touch(_) | Prog::TouchAwait(_) => (true, 0),
            Prog::Fork(a, b) => (true, cnt(a, false).1 + cnt(b, pending).1),
            Prog::Spawn(a, b) => {
                let unwinds = solo && b.panics_here(victim);
                let ((sa, na), (sb, nb)) = (cnt(a, pending && !unwinds), cnt(b, solo));
                (!solo || unwinds || sa || sb, na + nb)
            }
            Prog::Chain(a, b) => {
                let ((inner, na), (outer, nb)) = (cnt(a, false), cnt(b, false));
                (pending || outer, na + nb + u64::from(inner))
            }
        }
    }

    /// Whether cell `victim` panics in the vertex `self` starts in at
    /// W = 1: a leaf reached through spawns (whose children run in place)
    /// and the inline side of forks, not through a chain or a future.
    fn panics_here(&self, victim: Option<usize>) -> bool {
        match self {
            Prog::Leaf(id) => victim == Some(*id),
            Prog::Spawn(a, b) => a.panics_here(victim) || b.panics_here(victim),
            Prog::Fork(_, b) => b.panics_here(victim),
            Prog::Chain(..) | Prog::Touch(_) | Prog::TouchAwait(_) => false,
        }
    }

    /// Renumber cells left to right; returns the total.
    fn assign_ids(&mut self, next: usize) -> usize {
        match self {
            Prog::Leaf(id) | Prog::Touch(id) | Prog::TouchAwait(id) => {
                *id = next;
                next + 1
            }
            Prog::Spawn(a, b) | Prog::Chain(a, b) | Prog::Fork(a, b) => {
                let mid = a.assign_ids(next);
                b.assign_ids(mid)
            }
        }
    }

    /// The cell kind for `id` (for failure messages).
    fn kind_of(&self, id: usize) -> &'static str {
        match self {
            Prog::Leaf(i) if *i == id => "leaf",
            Prog::Touch(i) if *i == id => "touch",
            Prog::TouchAwait(i) if *i == id => "touch_await",
            Prog::Spawn(a, b) | Prog::Chain(a, b) | Prog::Fork(a, b) => {
                let k = a.kind_of(id);
                if k.is_empty() {
                    b.kind_of(id)
                } else {
                    k
                }
            }
            _ => "",
        }
    }
}

fn prog_strategy() -> impl Strategy<Value = Prog> {
    let leaf = prop_oneof![Just(Prog::Leaf(0)), Just(Prog::Touch(0)), Just(Prog::TouchAwait(0)),];
    leaf.prop_recursive(4, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Spawn(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Chain(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Prog::Fork(Box::new(a), Box::new(b))),
        ]
    })
    .prop_map(|mut p| {
        p.assign_ids(0);
        p
    })
}

/// Execute `prog`; cell `victim` (if any) panics instead of stamping —
/// in its future's body for `Touch`/`TouchAwait` cells.
fn exec(mut ctx: Ctx<'_, DynSnzi>, prog: Prog, stamps: Arc<Vec<AtomicU64>>, victim: Option<usize>) {
    let hit = move |id: usize| victim == Some(id);
    match prog {
        Prog::Leaf(id) => {
            assert!(!hit(id), "{INJECTED}");
            stamps[id].fetch_add(1, Ordering::SeqCst);
        }
        Prog::Spawn(a, b) => {
            let (s1, s2) = (Arc::clone(&stamps), stamps);
            ctx.spawn(move |c| exec(c, *a, s1, victim), move |c| exec(c, *b, s2, victim));
        }
        Prog::Chain(a, b) => {
            let (s1, s2) = (Arc::clone(&stamps), stamps);
            ctx.chain(move |c| exec(c, *a, s1, victim), move |c| exec(c, *b, s2, victim));
        }
        Prog::Fork(a, b) => {
            let s1 = Arc::clone(&stamps);
            ctx.fork(move |c| exec(c, *a, s1, victim));
            exec(ctx, *b, stamps, victim);
        }
        Prog::Touch(id) => {
            let f = ctx.future(move |_| {
                assert!(!hit(id), "{INJECTED}");
                id as u64
            });
            ctx.touch(&f, move |_, v| {
                assert_eq!(*v, id as u64);
                stamps[id].fetch_add(1, Ordering::SeqCst);
            });
        }
        Prog::TouchAwait(id) => {
            let f = ctx.future(move |_| {
                assert!(!hit(id), "{INJECTED}");
                id as u64
            });
            ctx.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
                let v = *strand_await!(c, &f);
                assert_eq!(v, id as u64);
                stamps[id].fetch_add(1, Ordering::SeqCst);
                StrandPoll::Done(())
            });
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

/// Run one case watchdog-bounded and check the full contract.
fn run_case(prog: &Prog, workers: usize, victim: Option<usize>) {
    let n = prog.cells();
    let stamps = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
    let before = obs::Snapshot::take();
    let (s, p) = (Arc::clone(&stamps), prog.clone());
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_dag_watched::<DynSnzi, _>(
            DynConfig::with_threshold(4),
            workers,
            WatchdogCfg { stall_timeout: Duration::from_secs(20) },
            move |ctx| exec(ctx, p, s, victim),
        );
    }));
    let d = obs::Snapshot::take().diff(&before);

    match victim {
        None => {
            if let Err(e) = &result {
                panic!("panic-free program panicked: {}", panic_text(e.as_ref()));
            }
        }
        Some(_) => {
            let msg =
                panic_text(result.as_ref().expect_err("injected panic must propagate").as_ref());
            // First panic wins: the injected payload is recorded before
            // the poisoned future is even observable, so any follow-on
            // poisoned-await panic loses the race by construction.
            assert!(msg.contains(INJECTED), "propagated a different payload: {msg}");
        }
    }

    // Drain-to-completion: poisoning changes what the victim's cell
    // does, never whether the rest of the dag runs.
    for (id, cell) in stamps.iter().enumerate() {
        let got = cell.load(Ordering::SeqCst);
        let expect = if victim == Some(id) { 0 } else { 1 };
        assert_eq!(
            got,
            expect,
            "cell {id} ({}) stamped {got}x, expected {expect}x (victim: {victim:?})",
            prog.kind_of(id)
        );
    }

    if obs::enabled() && !d.is_empty() {
        let born = d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse");
        let dead = d.counter("sched.vertex_recycled") + d.counter("sched.vertex_dropped");
        assert_eq!(born, dead, "vertex conservation broke across a poisoned run");
        // A panicked vertex still makes its one claim in the signal
        // epilogue (or its children make it for it), so every self-owning
        // decrement pair still sees its last claim and is freed. And a
        // pair is born per increment, nowhere else: a scope's only strand
        // holds none, so a leaf dag makes no pair and no counter at all.
        let (born, freed) = (d.counter("sched.pairs_born"), d.counter("sched.pairs_freed"));
        assert_eq!(born, freed, "decrement pairs leaked across a poisoned run");
        let solo = workers == 1;
        assert_eq!(born, prog.increments(solo, false, victim), "one pair per increment: {prog:?}");
        let (root, nested) = prog.counters(solo, false, victim);
        assert_eq!(
            d.counter("snzi.trees_created"),
            u64::from(root) + nested,
            "one in-counter per scope that forked: {prog:?}"
        );
        let born = d.counter("sched.poolarc_alloc") + d.counter("sched.poolarc_reuse");
        let dead = d.counter("sched.poolarc_recycled") + d.counter("sched.poolarc_dropped");
        assert_eq!(born, dead, "PoolArc conservation broke across a poisoned run");
        let born = d.counter("outset.blocks_allocated") + d.counter("outset.blocks_reused");
        let dead = d.counter("outset.blocks_recycled");
        assert_eq!(born, dead, "out-set block conservation broke across a poisoned run");
        let adds = d.counter("outset.adds");
        let delivered = d.counter("outset.adds_bounced") + d.counter("outset.swept");
        assert_eq!(adds, delivered, "out-set add conservation broke across a poisoned run");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_survive_an_injected_panic(
        prog in prog_strategy(),
        victim_pick in any::<u64>(),
        inject in any::<bool>(),
    ) {
        let _g = serial();
        let victim = inject.then(|| victim_pick as usize % prog.cells());
        for workers in [1usize, 4] {
            run_case(&prog, workers, victim);
        }
    }
}

/// Run `make`'s future — whose body panics with [`INJECTED`] — with one
/// `touch` dependent, watchdog-bounded (a hang fails fast), and check the
/// poisoning contract from the caller, where quiescence makes the state
/// definite: the payload propagates, the `touch` closure is skipped, the
/// future reads completed-without-value. Returns the handle.
fn run_poisoned(
    workers: usize,
    make: fn(&mut Ctx<'_, DynSnzi>) -> spdag::FutureHandle<u64>,
) -> spdag::FutureHandle<u64> {
    let touched = Arc::new(AtomicU64::new(0));
    let escaped = Arc::new(Mutex::new(None));
    let (t, esc) = (Arc::clone(&touched), Arc::clone(&escaped));
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_dag_watched::<DynSnzi, _>(
            DynConfig::default(),
            workers,
            WatchdogCfg { stall_timeout: Duration::from_secs(20) },
            move |mut ctx| {
                let f = make(&mut ctx);
                *esc.lock().unwrap() = Some(f.clone());
                ctx.touch(&f, move |_, _| {
                    t.fetch_add(1, Ordering::SeqCst);
                });
            },
        );
    }));
    assert!(panic_text(result.expect_err("must propagate").as_ref()).contains(INJECTED));
    assert_eq!(touched.load(Ordering::SeqCst), 0, "touch closure ran on a poisoned future");
    let f = escaped.lock().unwrap().take().expect("handle escaped the run");
    assert!(f.is_poisoned(), "a drained poisoned future reads as completed-without-value");
    f
}

/// A `touch` on the poisoned future skips its closure; `try_get` and
/// `is_poisoned` stay non-panicking probes for it.
#[test]
fn poisoned_future_probes_and_touch_skip() {
    let _g = serial();
    let f = run_poisoned(2, |ctx| ctx.future(|_| -> u64 { panic!("{INJECTED}") }));
    assert!(f.try_get().is_none(), "try_get must stay a non-panicking probe");
}

/// A body that panics *after* the consuming call that ended its vertex:
/// its children may already have finished on another worker, and the
/// completion vertex is waiting for the value setter to go. The unwind
/// drops the setter unused, so the future still completes — poisoned —
/// and the dag drains.
#[test]
fn panic_after_a_consuming_call_still_poisons_and_drains() {
    fn body(c: Ctx<'_, DynSnzi>) -> u64 {
        c.spawn(|_| {}, |_| {});
        std::thread::sleep(Duration::from_millis(5));
        panic!("{INJECTED}")
    }
    let _g = serial();
    for workers in [1, 2] {
        run_poisoned(workers, |ctx| ctx.future(body));
        run_poisoned(workers, |ctx| {
            let input = ctx.future(|_| 1u64);
            ctx.future_then(&input, |c, _| body(c))
        });
    }
}

/// A worker body that genuinely stops retiring tasks trips the
/// watchdog: the run fails fast with the stall report as its payload
/// instead of hanging the caller forever.
#[test]
fn watchdog_fails_fast_on_a_stall() {
    let _g = serial();
    static RELEASE: AtomicBool = AtomicBool::new(false);
    let runner = std::thread::spawn(|| {
        catch_unwind(AssertUnwindSafe(|| {
            run_dag_watched::<DynSnzi, _>(
                DynConfig::default(),
                2,
                WatchdogCfg { stall_timeout: Duration::from_millis(250) },
                |mut ctx| {
                    ctx.fork(|_| {
                        while !RELEASE.load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    });
                },
            );
        }))
    });
    // Long past the stall timeout; then unstick the body so the worker
    // (and this test) can exit — the watchdog must already have fired.
    std::thread::sleep(Duration::from_secs(2));
    RELEASE.store(true, Ordering::Release);
    let result = runner.join().expect("runner thread");
    let msg = panic_text(result.expect_err("watchdog must fail the run").as_ref());
    assert!(msg.contains("sched watchdog"), "unexpected payload: {msg}");
}
