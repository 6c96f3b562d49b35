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
//!    removes none, a promoted left child adds one, and an unwinding right
//!    child adds one per left sibling it leaves waiting), PoolArcs,
//!    out-set blocks and adds — close at quiescence even across a poisoned
//!    run (checked when telemetry is compiled in).
//!
//! The file runs identically in every feature leg: it injects panics
//! with plain `panic!`, not failpoints, so `fault-inject` being absent
//! changes nothing.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use common::Lefts;
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

    /// The first cell, which names a spawn by its right side (distinct
    /// spawns have distinct right sides, and a right side's first cell is
    /// none of its left sibling's).
    fn first(&self) -> usize {
        match self {
            Prog::Leaf(id) | Prog::Touch(id) | Prog::TouchAwait(id) => *id,
            Prog::Spawn(a, _) | Prog::Chain(a, _) | Prog::Fork(a, _) => a.first(),
        }
    }

    /// Every spawn's name ([`first`](Prog::first) of its right side).
    fn spawns(&self, out: &mut Vec<usize>) {
        match self {
            Prog::Leaf(_) | Prog::Touch(_) | Prog::TouchAwait(_) => {}
            Prog::Spawn(a, b) | Prog::Chain(a, b) | Prog::Fork(a, b) => {
                if matches!(self, Prog::Spawn(..)) {
                    out.push(b.first());
                }
                a.spawns(out);
                b.spawns(out);
            }
        }
    }

    /// The spawns whose right child the victim's panic unwinds in place,
    /// outermost first, in the vertex where it panics; and whether that is
    /// the vertex `self` starts in. `lefts` says which left children ran
    /// in place (a left child that did not runs in a vertex of its own, and
    /// so do a chain's sides, a fork's forked side and a future's body).
    fn unwind_path(&self, victim: usize, lefts: &Lefts) -> Option<(Vec<usize>, bool)> {
        let elsewhere = |(path, _): (Vec<usize>, bool)| (path, false);
        match self {
            Prog::Leaf(id) => (*id == victim).then(|| (Vec::new(), true)),
            Prog::Touch(id) | Prog::TouchAwait(id) => (*id == victim).then(|| (Vec::new(), false)),
            Prog::Chain(a, b) => {
                a.unwind_path(victim, lefts).or_else(|| b.unwind_path(victim, lefts)).map(elsewhere)
            }
            Prog::Fork(a, b) => {
                a.unwind_path(victim, lefts).map(elsewhere).or_else(|| b.unwind_path(victim, lefts))
            }
            Prog::Spawn(a, b) => {
                let s = b.first();
                match b.unwind_path(victim, lefts) {
                    Some((mut path, true)) => {
                        path.insert(0, s);
                        Some((path, true))
                    }
                    Some(elsewhere) => Some(elsewhere),
                    None => a
                        .unwind_path(victim, lefts)
                        .map(|(path, here)| (path, here && lefts.in_place(s))),
                }
            }
        }
    }

    /// In-counter increments the program performs (the dag drains
    /// structurally, so a cut-down victim — a leaf or a future's body —
    /// removes none), given what became of each spawn's left child
    /// ([`fates`]): one per fork and future, and one per spawn whose left
    /// child became a vertex. A spawn whose left child ran in place makes
    /// none: its children run one after the other in its vertex, the right
    /// one while the left one waits (on its worker's latent list:
    /// `pending` here), and a touch or a chain made meanwhile splits that
    /// vertex by one increment. A left child
    /// that was promoted left nothing waiting in its right sibling: promotion
    /// takes the oldest first, and it went before any chain or touch of
    /// that sibling (nothing but a spawn promotes, and a spawn, a chain and
    /// a touch each end a strand). One that the unwind guard pushed waited
    /// until the panic.
    fn increments(&self, fates: &[Left], pending: bool) -> u64 {
        let inc = |p: &Prog, pending| p.increments(fates, pending);
        match self {
            Prog::Leaf(_) => 0,
            Prog::Touch(_) => 1 + u64::from(pending),
            Prog::TouchAwait(_) => 2,
            Prog::Chain(a, b) => u64::from(pending) + inc(a, false) + inc(b, false),
            Prog::Fork(a, b) => 1 + inc(a, false) + inc(b, pending),
            Prog::Spawn(a, b) => match fates[b.first()] {
                Left::InPlace => inc(a, pending) + inc(b, true),
                Left::Promoted => 1 + inc(a, false) + inc(b, false),
                Left::Pushed => 1 + inc(a, false) + inc(b, true),
            },
        }
    }

    /// In-counters the program makes: one per finish scope that forks.
    /// Returns whether the scope `self` runs in is stepped by it, and the
    /// counters of the scopes nested inside (each `chain` opens one around
    /// its first side; a future's body here is a leaf and never forks).
    /// The arguments are [`increments`](Prog::increments)'.
    fn counters(&self, fates: &[Left], pending: bool) -> (bool, u64) {
        let cnt = |p: &Prog, pending| p.counters(fates, pending);
        match self {
            Prog::Leaf(_) => (false, 0),
            Prog::Touch(_) | Prog::TouchAwait(_) => (true, 0),
            Prog::Fork(a, b) => (true, cnt(a, false).1 + cnt(b, pending).1),
            Prog::Spawn(a, b) => {
                let fate = fates[b.first()];
                let here = fate == Left::InPlace;
                let ((sa, na), (sb, nb)) =
                    (cnt(a, pending && here), cnt(b, fate != Left::Promoted));
                (!here || sa || sb, na + nb)
            }
            Prog::Chain(a, b) => {
                let ((inner, na), (outer, nb)) = (cnt(a, false), cnt(b, false));
                (pending || outer, na + nb + u64::from(inner))
            }
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

/// What became of a spawn's left child.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Left {
    /// It ran in its parent's vertex, after its right sibling.
    InPlace,
    /// It waited, and was promoted into a vertex of its own.
    Promoted,
    /// It waited until its right sibling unwound, whose guard pushed it.
    Pushed,
}

/// What became of each spawn's left child, by spawn name: where it ran
/// (`lefts`), and for one that ran as a vertex, whether a promotion or the
/// unwind guard made it one. The guard pushes the left children still
/// waiting when the victim's panic unwinds through their spawns: the
/// newest ones on the unwind path, since promotion takes the oldest first;
/// the others there, and every other left child that did not run in place,
/// were promoted — `promoted` of them (`spdag.spawn_promoted`).
fn fates(prog: &Prog, victim: Option<usize>, lefts: &Lefts, promoted: u64) -> Vec<Left> {
    let mut spawns = Vec::new();
    prog.spawns(&mut spawns);
    let mut fates = vec![Left::InPlace; prog.cells()];
    for &s in &spawns {
        if !lefts.in_place(s) {
            fates[s] = Left::Promoted;
        }
    }
    let path = victim.and_then(|v| prog.unwind_path(v, lefts)).map(|(path, _)| path);
    let path = path.unwrap_or_default();
    assert!(
        path.iter().all(|&s| fates[s] != Left::InPlace),
        "an unwound spawn's left ran in place"
    );
    let vertices = spawns.iter().filter(|&&s| fates[s] != Left::InPlace).count() as u64;
    let pushed = vertices.checked_sub(promoted).expect("a promotion per left run as a vertex");
    let pushed = usize::try_from(pushed).unwrap();
    assert!(pushed <= path.len(), "the guards pushed {pushed} left children, {path:?} unwound");
    for &s in &path[path.len() - pushed..] {
        fates[s] = Left::Pushed;
    }
    fates
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

/// A run's cells: one stamp each, and where each spawn's left child ran.
struct Cells {
    stamps: Vec<AtomicU64>,
    lefts: Arc<Lefts>,
}

/// Execute `prog`; cell `victim` (if any) panics instead of stamping —
/// in its future's body for `Touch`/`TouchAwait` cells.
fn exec(mut ctx: Ctx<'_, DynSnzi>, prog: Prog, cells: Arc<Cells>, victim: Option<usize>) {
    let hit = move |id: usize| victim == Some(id);
    match prog {
        Prog::Leaf(id) => {
            assert!(!hit(id), "{INJECTED}");
            cells.stamps[id].fetch_add(1, Ordering::SeqCst);
        }
        Prog::Spawn(a, b) => {
            let (c1, c2) = (Arc::clone(&cells), Arc::clone(&cells));
            cells.lefts.spawn(
                ctx,
                b.first(),
                move |c| exec(c, *a, c1, victim),
                move |c| exec(c, *b, c2, victim),
            );
        }
        Prog::Chain(a, b) => {
            let (c1, c2) = (Arc::clone(&cells), cells);
            ctx.chain(move |c| exec(c, *a, c1, victim), move |c| exec(c, *b, c2, victim));
        }
        Prog::Fork(a, b) => {
            let c1 = Arc::clone(&cells);
            ctx.fork(move |c| exec(c, *a, c1, victim));
            exec(ctx, *b, cells, victim);
        }
        Prog::Touch(id) => {
            let f = ctx.future(move |_| {
                assert!(!hit(id), "{INJECTED}");
                id as u64
            });
            ctx.touch(&f, move |_, v| {
                assert_eq!(*v, id as u64);
                cells.stamps[id].fetch_add(1, Ordering::SeqCst);
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
                cells.stamps[id].fetch_add(1, Ordering::SeqCst);
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
    let stamps = (0..n).map(|_| AtomicU64::new(0)).collect();
    let cells = Arc::new(Cells { stamps, lefts: Lefts::new(n) });
    let before = obs::Snapshot::take();
    let (s, p) = (Arc::clone(&cells), prog.clone());
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
    for (id, cell) in cells.stamps.iter().enumerate() {
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
        let promoted = d.counter("spdag.spawn_promoted");
        if workers == 1 {
            assert_eq!(promoted, 0, "nothing to promote to: {prog:?}");
        }
        let fates = fates(prog, victim, &cells.lefts, promoted);
        assert_eq!(born, prog.increments(&fates, false), "one pair per increment: {prog:?}");
        let (root, nested) = prog.counters(&fates, false);
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
/// future reads completed-without-value, and the run counts the one panic
/// (`sched.panics`, `spdag.body_panics`). Returns the handle.
fn run_poisoned(
    workers: usize,
    make: fn(&mut Ctx<'_, DynSnzi>) -> spdag::FutureHandle<u64>,
) -> spdag::FutureHandle<u64> {
    let touched = Arc::new(AtomicU64::new(0));
    let escaped = Arc::new(Mutex::new(None));
    let (t, esc) = (Arc::clone(&touched), Arc::clone(&escaped));
    let before = obs::Snapshot::take();
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
    let d = obs::Snapshot::take().diff(&before);
    assert!(panic_text(result.expect_err("must propagate").as_ref()).contains(INJECTED));
    assert_eq!(touched.load(Ordering::SeqCst), 0, "touch closure ran on a poisoned future");
    if obs::enabled() {
        let panics = (d.counter("sched.panics"), d.counter("spdag.body_panics"));
        assert_eq!(panics, (1, 1), "(sched.panics, spdag.body_panics) of one poisoned run");
    }
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
