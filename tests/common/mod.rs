//! What every root test shares: the binary's serial lock, the watchdog of
//! a test run, the conservation ledger of a window of runs, and one model
//! of a random program — its grammar, how it runs, and what it must make.
//!
//! Each test binary compiles this module on its own and uses a part of it.
#![allow(dead_code)]

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use dynsnzi::prelude::*;
use sched::{PoolStats, WatchdogCfg, XorShift64Star};
use spdag::{run_dag_watched, DagRunStats};

// ---------------------------------------------------------------------
// The serial lock.

static LOCK: Mutex<()> = Mutex::new(());

/// The binary's serial lock: the telemetry registry, the recycler gauges,
/// the failpoint plan and the panic hook are process-wide, so a test that
/// reads or arms one holds this. Dropping it flushes the test thread's
/// slab caches *before* unlocking: each test runs on a thread of its own,
/// whose thread-local destructor would otherwise flush only after the
/// function returned — after the next test took the lock, and possibly
/// after its `trim` (the "trim left 16 slabs cached" flake).
pub struct Serial(MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        sched::slab::flush_this_thread();
    }
}

/// Take the serial lock; a test that failed holding it does not fail the
/// next one.
pub fn serial() -> Serial {
    Serial(LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
}

/// A run that loses a vertex stalls; the watchdog turns that into a
/// failure with a report, in seconds.
pub fn watchdog() -> WatchdogCfg {
    WatchdogCfg { stall_timeout: Duration::from_secs(20) }
}

/// A panic payload's text.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string payload>".to_string())
}

// ---------------------------------------------------------------------
// The ledger.

/// What a window of runs made, read from the telemetry diff: decrement
/// pairs born, vertices born, spawned children run in their parent's
/// vertex, futures completed in the epilogue of the strand that carried
/// them (`completions_inline`; a future whose scope forked completes in a
/// vertex built for it instead, one of `vertices`), in-counters made (both
/// SNZI families count their counters as trees, the fetch-add baseline by
/// its own probe) and left children promoted.
#[derive(Debug, PartialEq)]
pub struct Made {
    pub pairs: u64,
    pub vertices: u64,
    pub in_place: u64,
    pub completions_inline: u64,
    pub counters: u64,
    pub promoted: u64,
}

/// Everything that is born and dies in a run, by its counters: at
/// quiescence each row's births equal its deaths.
const CONSERVED: [(&str, &[&str], &[&str]); 7] = [
    (
        "vertices",
        &["sched.vertex_alloc", "sched.vertex_reuse"],
        &["sched.vertex_recycled", "sched.vertex_dropped"],
    ),
    // A pair owns itself: the second of its two claims frees it.
    ("decrement pairs", &["sched.pairs_born"], &["sched.pairs_freed"]),
    (
        "future cores",
        &["sched.poolarc_alloc", "sched.poolarc_reuse"],
        &["sched.poolarc_recycled", "sched.poolarc_dropped"],
    ),
    (
        "spilled strand frames",
        &["sched.strand_alloc", "sched.strand_reuse"],
        &["sched.strand_recycled", "sched.strand_dropped"],
    ),
    (
        "out-set blocks",
        &["outset.blocks_allocated", "outset.blocks_reused"],
        &["outset.blocks_recycled"],
    ),
    ("out-set adds", &["outset.adds"], &["outset.adds_bounced", "outset.swept"]),
    ("parks", &["spdag.strand_suspend"], &["spdag.strand_resume"]),
];

/// A window of runs over which the conservation identities must close.
/// Opening it takes the serial lock's guard, so no other test's runs fall
/// into it.
pub struct Ledger {
    before: Snapshot,
}

impl Ledger {
    pub fn open(_: &Serial) -> Ledger {
        Ledger { before: Snapshot::take() }
    }

    /// Close the window of `what`, all of whose objects are dead: check that
    /// every one born died, every park was repaid and — for the runs whose
    /// statistics `runs` holds, which must be all the window's or none —
    /// `tasks − resumes` is the vertices born plus the children run in
    /// place plus the completions run in place. Returns what the window made and its whole counter diff;
    /// `None` with telemetry compiled out, after the checks `runs` allows.
    pub fn close(self, what: &str, runs: &[&PoolStats]) -> Option<(Made, Snapshot)> {
        for s in runs {
            assert_eq!(s.suspends, s.resumes, "{what}: every park is repaid");
        }
        if !obs::enabled() {
            return None;
        }
        let d = Snapshot::take().diff(&self.before);
        let sum = |names: &[&str]| names.iter().map(|n| d.counter(n)).sum::<u64>();
        for (kind, born, died) in CONSERVED {
            let (born, died) = (sum(born), sum(died));
            assert_eq!(born, died, "{what}: {kind} born {born}, died {died}");
        }
        let made = Made {
            pairs: d.counter("sched.pairs_born"),
            vertices: sum(CONSERVED[0].1),
            in_place: d.counter("spdag.spawn_inline"),
            completions_inline: d.counter("spdag.completions_inline"),
            counters: sum(&["snzi.trees_created", "incounter.created"]),
            promoted: d.counter("spdag.spawn_promoted"),
        };
        if !runs.is_empty() {
            let executed: u64 = runs.iter().map(|s| s.tasks - s.resumes).sum();
            assert_eq!(
                executed,
                made.vertices + made.in_place + made.completions_inline,
                "{what}: tasks - resumes against vertices born, children run in place and \
                 completions run in place"
            );
        }
        Some((made, d))
    }
}

// ---------------------------------------------------------------------
// Where each spawn's left child ran.
//
// A spawn within the stack bound runs both children in its parent's
// vertex, the left one after the right one, and counts nothing — unless,
// with two or more workers, the left child is promoted into a vertex of
// its own by one increment while it waits (`spdag::in_place`). Which left
// children are promoted is the schedule's choice, made at the spawn or at
// a later spawn in the same vertex, so a program's exact ledger is a
// function of that choice per spawn. [`Lefts::spawn`] reads it back: a
// left child that starts while its own spawn is the innermost one open on
// its thread ran in place; any other ran as a vertex of its own — it was
// promoted, or pushed by the guard of a right sibling that unwound.

thread_local! {
    /// The spawns whose `Ctx::spawn` call is on this thread's stack,
    /// innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

const NOT_RUN: u8 = 0;
const IN_PLACE: u8 = 1;
const A_VERTEX: u8 = 2;

/// Closes one entry of [`OPEN`] when the spawn returns or unwinds.
struct Open;

impl Drop for Open {
    fn drop(&mut self) {
        OPEN.with(|open| open.borrow_mut().pop());
    }
}

/// Where the left child of each spawn of one run ran, by spawn id.
pub struct Lefts(Vec<AtomicU8>);

impl Lefts {
    /// Room for spawn ids `0..n`.
    pub fn new(n: usize) -> Arc<Lefts> {
        Arc::new(Lefts((0..n).map(|_| AtomicU8::new(NOT_RUN)).collect()))
    }

    /// Whether spawn `id`'s left child ran in place. Panics if it never
    /// started.
    pub fn in_place(&self, id: usize) -> bool {
        match self.0[id].load(Ordering::SeqCst) {
            IN_PLACE => true,
            A_VERTEX => false,
            _ => panic!("the left child of spawn {id} never started"),
        }
    }

    /// `ctx.spawn(left, right)`, noting under `id` where `left` ran.
    pub fn spawn<C: CounterFamily>(
        self: &Arc<Self>,
        ctx: Ctx<'_, C>,
        id: usize,
        left: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
        right: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
    ) {
        OPEN.with(|open| open.borrow_mut().push(id));
        let _open = Open;
        let me = Arc::clone(self);
        let left = move |c: Ctx<'_, C>| {
            let here = OPEN.with(|open| open.borrow().last() == Some(&id));
            me.0[id].store(if here { IN_PLACE } else { A_VERTEX }, Ordering::SeqCst);
            left(c)
        };
        ctx.spawn(left, right);
    }
}

// ---------------------------------------------------------------------
// The program model.

/// The payload of a victim cell's panic.
pub const INJECTED: &str = "an injected body panic";

/// A random structured program over every vertex-making route. A cell —
/// a leaf, a touch, an await — stamps its id once when it runs; with a
/// victim cell, that cell panics instead: a leaf in its body, a touch or
/// an await in its future's body, which poisons the future.
#[derive(Debug, Clone)]
pub enum Prog {
    Leaf(usize),
    /// `spawn`, named by its id in [`Lefts`].
    Spawn(usize, Box<Prog>, Box<Prog>),
    Chain(Box<Prog>, Box<Prog>),
    /// `fork` the first side onto the enclosing scope, run the second in
    /// place.
    Fork(Box<Prog>, Box<Prog>),
    /// A future worth the id, and a `touch` of it whose continuation stamps
    /// and runs the rest. The victim's poisoned touch skips both.
    Touch(usize, Box<Prog>),
    /// A future worth the id, a forked strand that awaits it and stamps —
    /// parking while it is unready, panicking by name if it is poisoned —
    /// and the rest run in place.
    Await(usize, Box<Prog>),
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

/// What the model reads of one run: each spawn's left child's fate, and
/// the victim, whose poisoned touch cuts its rest down.
struct Fates {
    left: Vec<Left>,
    victim: Option<usize>,
}

impl Fates {
    fn cut(&self, id: usize) -> bool {
        self.victim == Some(id)
    }
}

impl Prog {
    /// A program of 2 to `budget` nodes, ids assigned: its size is drawn
    /// uniformly, then each node's kind uniformly among those its share of
    /// the size leaves room for, and a binary node's share split uniformly
    /// between its sides.
    pub fn draw(rng: &mut XorShift64Star, budget: usize) -> Prog {
        let n = 2 + rng.next_below(budget - 1);
        let mut prog = Prog::sized(rng, n);
        prog.number(0);
        prog
    }

    /// A program of exactly `n` nodes: a binary node needs three, a touch
    /// or an await two.
    fn sized(rng: &mut XorShift64Star, n: usize) -> Prog {
        let kind = match n {
            1 => return Prog::Leaf(0),
            2 => 3 + rng.next_below(2),
            _ => rng.next_below(5),
        };
        if kind >= 3 {
            let rest = Box::new(Prog::sized(rng, n - 1));
            return if kind == 3 { Prog::Touch(0, rest) } else { Prog::Await(0, rest) };
        }
        let left = 1 + rng.next_below(n - 2);
        let a = Box::new(Prog::sized(rng, left));
        let b = Box::new(Prog::sized(rng, n - 1 - left));
        match kind {
            0 => Prog::Spawn(0, a, b),
            1 => Prog::Chain(a, b),
            _ => Prog::Fork(a, b),
        }
    }

    /// How many nodes the program has.
    pub fn nodes(&self) -> usize {
        let mut n = 0;
        self.visit(None, &mut |_| n += 1);
        n
    }

    /// Give the cells and spawns ids in pre-order from `next`; returns the
    /// next free one.
    fn number(&mut self, next: usize) -> usize {
        match self {
            Prog::Leaf(id) => {
                *id = next;
                next + 1
            }
            Prog::Touch(id, rest) | Prog::Await(id, rest) => {
                *id = next;
                rest.number(next + 1)
            }
            Prog::Spawn(id, a, b) => {
                *id = next;
                let mid = a.number(next + 1);
                b.number(mid)
            }
            Prog::Chain(a, b) | Prog::Fork(a, b) => {
                let mid = a.number(next);
                b.number(mid)
            }
        }
    }

    /// Call `f` on every node a run with `victim` starts: all but the rest
    /// of the victim's touch.
    fn visit(&self, victim: Option<usize>, f: &mut impl FnMut(&Prog)) {
        f(self);
        match self {
            Prog::Leaf(_) => {}
            Prog::Touch(id, _) if victim == Some(*id) => {}
            Prog::Touch(_, rest) | Prog::Await(_, rest) => rest.visit(victim, f),
            Prog::Spawn(_, a, b) | Prog::Chain(a, b) | Prog::Fork(a, b) => {
                a.visit(victim, f);
                b.visit(victim, f);
            }
        }
    }

    /// The ids of the nodes a run with `victim` starts that `pick` picks.
    fn ids(&self, victim: Option<usize>, pick: fn(&Prog) -> Option<usize>) -> Vec<usize> {
        let mut ids = Vec::new();
        self.visit(victim, &mut |p| ids.extend(pick(p)));
        ids
    }

    /// A cell's id.
    fn cell(&self) -> Option<usize> {
        match self {
            Prog::Leaf(id) | Prog::Touch(id, _) | Prog::Await(id, _) => Some(*id),
            _ => None,
        }
    }

    /// The cells' ids.
    pub fn cells(&self) -> Vec<usize> {
        self.ids(None, Prog::cell)
    }

    /// In-counter increments the program performs, given the fates. A
    /// `pending` strand runs while a left child waits in its vertex (on its
    /// worker's latent list), and a chain or a touch made then splits that
    /// vertex by one increment; otherwise a chain, a touch and a park make
    /// none, and a fork and a future one each. A spawn whose left child ran
    /// in place makes none: its children run one after the other in its
    /// vertex, the right one while the left one waits. A promoted left
    /// child costs one increment and left nothing waiting in its right
    /// sibling: promotion takes the oldest first, and it went before any
    /// chain or touch of that sibling (nothing but a spawn promotes, and a
    /// spawn, a chain and a touch each end a strand). One that the unwind
    /// guard pushed costs one and waited until the panic. A victim cuts
    /// down its own body and a touch's rest, never an increment before.
    fn increments(&self, fates: &Fates, pending: bool) -> u64 {
        let inc = |p: &Prog, pending| p.increments(fates, pending);
        match self {
            Prog::Leaf(_) => 0,
            Prog::Chain(a, b) => u64::from(pending) + inc(a, false) + inc(b, false),
            Prog::Fork(a, b) => 1 + inc(a, false) + inc(b, pending),
            Prog::Touch(id, _) if fates.cut(*id) => 1 + u64::from(pending),
            Prog::Touch(_, rest) => 1 + u64::from(pending) + inc(rest, false),
            Prog::Await(_, rest) => 2 + inc(rest, pending),
            Prog::Spawn(id, a, b) => match fates.left[*id] {
                Left::InPlace => inc(a, pending) + inc(b, true),
                Left::Promoted => 1 + inc(a, false) + inc(b, false),
                Left::Pushed => 1 + inc(a, false) + inc(b, true),
            },
        }
    }

    /// In-counters the program makes: one per finish scope that forks.
    /// Returns whether the scope `self` runs in is stepped by it, and the
    /// counters of the scopes nested inside (each `chain` opens one around
    /// its first side; a future's body here never forks). The arguments
    /// are [`increments`](Prog::increments)'.
    fn counters(&self, fates: &Fates, pending: bool) -> (bool, u64) {
        let cnt = |p: &Prog, pending| p.counters(fates, pending);
        match self {
            Prog::Leaf(_) => (false, 0),
            Prog::Fork(a, b) => (true, cnt(a, false).1 + cnt(b, pending).1),
            Prog::Touch(id, _) if fates.cut(*id) => (true, 0),
            Prog::Touch(_, rest) => (true, cnt(rest, false).1),
            Prog::Await(_, rest) => (true, cnt(rest, pending).1),
            Prog::Spawn(id, a, b) => {
                let fate = fates.left[*id];
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

    /// The spawns whose right child the victim's panic unwinds in place,
    /// outermost first, in the vertex where it panics; and whether that is
    /// the vertex `self` starts in. A left child that did not run in place
    /// runs in a vertex of its own, and so do a chain's sides, a fork's
    /// forked side, a touch's continuation and a future's body.
    fn unwind_path(&self, victim: usize, lefts: &Lefts) -> Option<(Vec<usize>, bool)> {
        let elsewhere = |(path, _): (Vec<usize>, bool)| (path, false);
        let path = |p: &Prog| p.unwind_path(victim, lefts);
        match self {
            Prog::Leaf(id) => (*id == victim).then(|| (Vec::new(), true)),
            Prog::Touch(id, _) | Prog::Await(id, _) if *id == victim => Some((Vec::new(), false)),
            Prog::Touch(_, rest) => path(rest).map(elsewhere),
            Prog::Await(_, rest) => path(rest),
            Prog::Chain(a, b) => path(a).or_else(|| path(b)).map(elsewhere),
            Prog::Fork(a, b) => path(a).map(elsewhere).or_else(|| path(b)),
            Prog::Spawn(id, a, b) => match path(b) {
                Some((mut unwound, true)) => {
                    unwound.insert(0, *id);
                    Some((unwound, true))
                }
                Some(elsewhere) => Some(elsewhere),
                None => path(a).map(|(unwound, here)| (unwound, here && lefts.in_place(*id))),
            },
        }
    }

    /// What became of each spawn's left child: where it ran (`lefts`), and
    /// for one that ran as a vertex, whether a promotion or the unwind guard
    /// made it one. The guard pushes the left children still waiting when
    /// the victim's panic unwinds through their spawns: the newest ones on
    /// the unwind path, since promotion takes the oldest first; the others
    /// there, and every other left child that did not run in place, were
    /// promoted — `promoted` of them (`spdag.spawn_promoted`).
    fn fates(&self, victim: Option<usize>, lefts: &Lefts, promoted: u64) -> Fates {
        let spawns = self.ids(victim, |p| match p {
            Prog::Spawn(id, ..) => Some(*id),
            _ => None,
        });
        let mut left = vec![Left::InPlace; lefts.0.len()];
        for &s in &spawns {
            if !lefts.in_place(s) {
                left[s] = Left::Promoted;
            }
        }
        let path = victim.and_then(|v| self.unwind_path(v, lefts)).map(|(path, _)| path);
        let path = path.unwrap_or_default();
        assert!(
            path.iter().all(|&s| left[s] != Left::InPlace),
            "an unwound spawn's left ran in place"
        );
        let vertices = spawns.iter().filter(|&&s| left[s] != Left::InPlace).count() as u64;
        let pushed = vertices.checked_sub(promoted).expect("a promotion per left run as a vertex");
        let pushed = usize::try_from(pushed).unwrap();
        assert!(pushed <= path.len(), "the guards pushed {pushed} left children, {path:?} unwound");
        for &s in &path[path.len() - pushed..] {
            left[s] = Left::Pushed;
        }
        Fates { left, victim }
    }

    /// Run the program on `workers` workers of family `C`, watched, with
    /// `victim`'s cell panicking.
    pub fn run<C: CounterFamily>(
        &self,
        cfg: C::Config,
        workers: usize,
        victim: Option<usize>,
    ) -> Run {
        let ids = self.number_of_ids();
        let stamps = (0..ids).map(|_| AtomicU64::new(0)).collect();
        let cells = Arc::new(Cells { stamps, lefts: Lefts::new(ids), victim });
        let (c, p) = (Arc::clone(&cells), self.clone());
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_dag_watched::<C, _>(cfg, workers, watchdog(), move |ctx| exec(ctx, p, c))
        }))
        .map_err(|payload| panic_text(payload.as_ref()));
        Run { prog: self.clone(), workers, cells, result }
    }

    /// How many ids the program has: one per cell and spawn.
    fn number_of_ids(&self) -> usize {
        self.clone().number(0)
    }
}

/// A run's cells: one stamp each, where each spawn's left child ran, and
/// the victim.
struct Cells {
    stamps: Vec<AtomicU64>,
    lefts: Arc<Lefts>,
    victim: Option<usize>,
}

impl Cells {
    /// Cell `id` ran: it stamps, or panics if it is the victim.
    fn stamp(&self, id: usize) {
        assert!(self.victim != Some(id), "{INJECTED}");
        self.stamps[id].fetch_add(1, Ordering::SeqCst);
    }

    /// A future worth `id` (the victim's body panics instead).
    fn future<C: CounterFamily>(&self, ctx: &mut Ctx<'_, C>, id: usize) -> FutureHandle<u64> {
        let victim = self.victim;
        ctx.future(move |_| {
            assert!(victim != Some(id), "{INJECTED}");
            id as u64
        })
    }
}

fn exec<C: CounterFamily>(mut ctx: Ctx<'_, C>, prog: Prog, cells: Arc<Cells>) {
    match prog {
        Prog::Leaf(id) => cells.stamp(id),
        Prog::Spawn(id, a, b) => {
            let (c1, c2) = (Arc::clone(&cells), Arc::clone(&cells));
            cells.lefts.spawn(ctx, id, move |c| exec(c, *a, c1), move |c| exec(c, *b, c2));
        }
        Prog::Chain(a, b) => {
            let c1 = Arc::clone(&cells);
            ctx.chain(move |c| exec(c, *a, c1), move |c| exec(c, *b, cells));
        }
        Prog::Fork(a, b) => {
            let c1 = Arc::clone(&cells);
            ctx.fork(move |c| exec(c, *a, c1));
            exec(ctx, *b, cells);
        }
        Prog::Touch(id, rest) => {
            let f = cells.future(&mut ctx, id);
            ctx.touch(&f, move |c, v| {
                assert_eq!(*v, id as u64, "future value corrupted");
                cells.stamps[id].fetch_add(1, Ordering::SeqCst);
                exec(c, *rest, cells);
            });
        }
        Prog::Await(id, rest) => {
            let f = cells.future(&mut ctx, id);
            let c1 = Arc::clone(&cells);
            ctx.fork_strand(move |c: &mut Ctx<'_, C>| {
                // Re-entered from the top after a park; the await is then
                // ready, so the stamp below is made exactly once.
                assert_eq!(*strand_await!(c, &f), id as u64, "awaited value corrupted");
                c1.stamps[id].fetch_add(1, Ordering::SeqCst);
                StrandPoll::Done(())
            });
            exec(ctx, *rest, cells);
        }
    }
}

/// One run of a [`Prog`]: what it was given and what it left.
pub struct Run {
    prog: Prog,
    workers: usize,
    cells: Arc<Cells>,
    /// The run's statistics, or the text of the panic it re-raised.
    result: Result<DagRunStats, String>,
}

impl Run {
    /// The run's pool statistics, if it completed.
    pub fn pools(&self) -> Vec<&PoolStats> {
        self.result.iter().map(|s| &s.pool).collect()
    }

    /// The run drained: a program without a victim completed; one with a
    /// victim re-raised the injected payload — the first panic wins, so not
    /// a poisoned await's that followed it, nor a watchdog report — and
    /// every cell ran exactly once, but the victim and the rest of its
    /// touch, which stamped nothing.
    pub fn assert_drained(&self) {
        let (prog, victim) = (&self.prog, self.cells.victim);
        match (&self.result, victim) {
            (Ok(_), None) => {}
            (Err(msg), None) => panic!("a program without a victim panicked: {msg}"),
            (Ok(_), Some(v)) => panic!("victim {v}'s panic did not reach the caller: {prog:?}"),
            (Err(msg), Some(_)) => assert!(msg.contains(INJECTED), "propagated {msg:?}"),
        }
        let ran = prog.ids(victim, Prog::cell);
        for id in prog.cells() {
            let want = u64::from(ran.contains(&id) && victim != Some(id));
            let got = self.cells.stamps[id].load(Ordering::SeqCst);
            assert_eq!(got, want, "cell {id} stamped {got}x (victim {victim:?}): {prog:?}");
        }
    }

    /// What the run made is what the model gives for where its left
    /// children ran: one pair per increment, and one in-counter per scope
    /// that forked.
    pub fn assert_made(&self, made: &Made) {
        let prog = &self.prog;
        if self.workers == 1 {
            assert_eq!(made.promoted, 0, "nothing to promote to: {prog:?}");
        }
        let fates = prog.fates(self.cells.victim, &self.cells.lefts, made.promoted);
        assert_eq!(made.pairs, prog.increments(&fates, false), "one pair per increment: {prog:?}");
        let (root, nested) = prog.counters(&fates, false);
        assert_eq!(
            made.counters,
            u64::from(root) + nested,
            "one in-counter per scope that forked: {prog:?}"
        );
    }
}
