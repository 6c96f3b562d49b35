//! Vertex/continuation recycling under real interleavings: random
//! series-parallel programs — spawns, chains, scope forks, future/touch
//! edges and strands parking on `touch_await` — executed on real worker
//! pools, checked against the accounting discipline of `sched::recycle`:
//!
//! 1. **Conservation** — at quiescence every vertex, pooled refcount
//!    header and out-set block born is accounted dead exactly once
//!    (`allocated + reused == recycled + dropped`), and every decrement
//!    pair born was freed by its last claim (`pairs_born ==
//!    pairs_freed`), one pair per increment and one in-counter per scope
//!    that forked. A violation is a leak or a double-free caught by
//!    arithmetic — or a pair or counter per chain/future/touch/park, or
//!    per spawn whose left child ran in place, grown back.
//! 2. **Provenance is the layout** — objects whose layout is off the
//!    class ladder (too big, aligned past a cache-line pair) take the
//!    plain allocator and never enter a class pool (`reused == recycled
//!    == 0`, gauges unchanged), even when the pools are warm from
//!    earlier runs; a 128-aligned one rides in the padded classes.
//! 3. **Steady state** — once a few runs have filled the pools to the
//!    peak-live high-water mark, further identical runs stop minting
//!    fresh vertices and live on reuse; after a cold `pipeline_stages` run
//!    at twice the width, a warm one mints none at all, makes one pair per
//!    increment, steals no faster than the pool's pacing allows, and
//!    leaves the pools at its live peak (four recycler slabs per cell),
//!    not its churn.
//! 4. **One frame, one storage rule** — a body's state (a closure's
//!    capture, a strand's saved state) within the inline size class lives
//!    in the vertex (nine bodies in ten on a fanout broadcast and on
//!    `fib`); larger state spills to a recycled slab, and is
//!    dropped exactly once on every exit: ran, panicked, parked and
//!    completed, panicked while parked.
//!
//! Counter-based asserts are skipped under `--no-default-features`
//! (telemetry compiled out); the exactly-once execution checks and the
//! trim/footprint gauge checks hold in both modes.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use common::Lefts;
use dynsnzi::prelude::*;
use proptest::prelude::*;
use sched::recycle;

/// Every test reads process-global recycler gauges and counters:
/// serialize them.
static LOCK: Mutex<()> = Mutex::new(());

/// The file-level lock. Dropping it flushes the test thread's slab caches
/// *before* unlocking: each test runs on a thread of its own, whose
/// thread-local destructor would otherwise flush only after the function
/// returned — after the next test took the lock, and possibly after its
/// `trim` (the "trim left 16 slabs cached" flake).
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        sched::slab::flush_this_thread();
    }
}

fn lock() -> Serial {
    Serial(LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
}

/// A random structured program exercising every vertex-allocating path:
/// binary spawn, serial chain, multi-async scope forks, a future/touch
/// dynamic edge (whose continuation body runs the rest), and a future
/// awaited by a forked strand (which parks when the future is unready).
#[derive(Debug, Clone)]
enum Prog {
    Leaf,
    Spawn(Box<Prog>, Box<Prog>),
    Chain(Box<Prog>, Box<Prog>),
    Fork(u8, Box<Prog>),
    Future(Box<Prog>),
    Await(Box<Prog>),
}

impl Prog {
    /// Number of `hits` the program records when executed.
    fn hits(&self) -> u64 {
        match self {
            Prog::Leaf => 1,
            Prog::Spawn(a, b) | Prog::Chain(a, b) => a.hits() + b.hits(),
            Prog::Fork(k, a) => u64::from(*k) + a.hits(),
            Prog::Future(a) | Prog::Await(a) => 1 + a.hits(),
        }
    }

    /// Nodes of the program tree. A node's id is its pre-order index: the
    /// root is `id`, a first child `id + 1`, a second child `id + 1 +` the
    /// first child's nodes.
    fn nodes(&self) -> usize {
        match self {
            Prog::Leaf => 1,
            Prog::Spawn(a, b) | Prog::Chain(a, b) => 1 + a.nodes() + b.nodes(),
            Prog::Fork(_, a) | Prog::Future(a) | Prog::Await(a) => 1 + a.nodes(),
        }
    }

    /// In-counter increments the program performs, the node being `id`:
    /// one per scope fork and future (an `Await` makes a future and forks a
    /// strand). A spawn makes none when its left child ran in place
    /// (`lefts`): its children run one after the other in its vertex, the
    /// right one while the left one waits (on its worker's latent list:
    /// `pending` here), and a chain or a touch made meanwhile splits that
    /// vertex by one increment. A spawn
    /// whose left child was promoted made one increment for it, and left
    /// nothing waiting: promotion takes the oldest first, so everything
    /// older in the vertex had gone before it, and it went before any
    /// chain or touch of its right sibling (nothing but a spawn promotes,
    /// and a spawn, a chain and a touch each end a strand). Otherwise a
    /// chain, a touch and a park make none.
    fn increments(&self, id: usize, lefts: &Lefts, pending: bool) -> u64 {
        match self {
            Prog::Leaf => 0,
            Prog::Spawn(a, b) => {
                let (ia, ib) = (id + 1, id + 1 + a.nodes());
                if lefts.in_place(id) {
                    a.increments(ia, lefts, pending) + b.increments(ib, lefts, true)
                } else {
                    1 + a.increments(ia, lefts, false) + b.increments(ib, lefts, false)
                }
            }
            Prog::Chain(a, b) => {
                u64::from(pending)
                    + a.increments(id + 1, lefts, false)
                    + b.increments(id + 1 + a.nodes(), lefts, false)
            }
            Prog::Fork(k, a) => u64::from(*k) + a.increments(id + 1, lefts, pending),
            Prog::Future(a) => 1 + u64::from(pending) + a.increments(id + 1, lefts, false),
            Prog::Await(a) => 2 + a.increments(id + 1, lefts, pending),
        }
    }

    /// Spawns whose left child did not run in place: with no panic, each
    /// was promoted.
    fn promoted(&self, id: usize, lefts: &Lefts) -> u64 {
        match self {
            Prog::Leaf => 0,
            Prog::Spawn(a, b) | Prog::Chain(a, b) => {
                let spawned = matches!(self, Prog::Spawn(..)) && !lefts.in_place(id);
                u64::from(spawned)
                    + a.promoted(id + 1, lefts)
                    + b.promoted(id + 1 + a.nodes(), lefts)
            }
            Prog::Fork(_, a) | Prog::Future(a) | Prog::Await(a) => a.promoted(id + 1, lefts),
        }
    }

    /// In-counters the program makes: one per finish scope that forks.
    /// Returns whether the scope `self` runs in is stepped by it, and the
    /// counters of the scopes nested inside (each `chain` opens one around
    /// its first side; the futures' bodies here never fork). The arguments
    /// are [`increments`](Prog::increments)'.
    fn counters(&self, id: usize, lefts: &Lefts, pending: bool) -> (bool, u64) {
        match self {
            Prog::Leaf => (false, 0),
            Prog::Spawn(a, b) => {
                let (ia, ib) = (id + 1, id + 1 + a.nodes());
                let here = lefts.in_place(id);
                let (sa, na) = a.counters(ia, lefts, pending && here);
                let (sb, nb) = b.counters(ib, lefts, here);
                (!here || sa || sb, na + nb)
            }
            Prog::Chain(a, b) => {
                let (inner, na) = a.counters(id + 1, lefts, false);
                let (outer, nb) = b.counters(id + 1 + a.nodes(), lefts, false);
                (pending || outer, na + nb + u64::from(inner))
            }
            Prog::Fork(_, a) | Prog::Await(a) => (true, a.counters(id + 1, lefts, pending).1),
            Prog::Future(a) => (true, a.counters(id + 1, lefts, false).1),
        }
    }
}

fn prog_strategy() -> impl Strategy<Value = Prog> {
    let leaf = Just(Prog::Leaf);
    leaf.prop_recursive(4, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Spawn(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Prog::Chain(Box::new(a), Box::new(b))),
            (1u8..4, inner.clone()).prop_map(|(k, a)| Prog::Fork(k, Box::new(a))),
            inner.clone().prop_map(|a| Prog::Future(Box::new(a))),
            inner.prop_map(|a| Prog::Await(Box::new(a))),
        ]
    })
}

/// Run node `id`, `prog` (ids as in [`Prog::nodes`]), noting in `lefts`
/// where each spawn's left child ran.
fn exec(ctx: Ctx<'_, DynSnzi>, prog: Prog, id: usize, hits: Arc<AtomicU64>, lefts: Arc<Lefts>) {
    match prog {
        Prog::Leaf => {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        Prog::Spawn(a, b) => {
            let (h1, h2) = (Arc::clone(&hits), hits);
            let (l1, l2) = (Arc::clone(&lefts), Arc::clone(&lefts));
            let ib = id + 1 + a.nodes();
            lefts.spawn(
                ctx,
                id,
                move |c| exec(c, *a, id + 1, h1, l1),
                move |c| exec(c, *b, ib, h2, l2),
            );
        }
        Prog::Chain(a, b) => {
            let (h1, h2) = (Arc::clone(&hits), hits);
            let (l1, l2) = (Arc::clone(&lefts), lefts);
            let ib = id + 1 + a.nodes();
            ctx.chain(move |c| exec(c, *a, id + 1, h1, l1), move |c| exec(c, *b, ib, h2, l2));
        }
        Prog::Fork(k, a) => {
            let mut scope = ctx.into_scope();
            for _ in 0..k {
                let h = Arc::clone(&hits);
                scope.fork(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
            exec(scope.into_ctx(), *a, id + 1, hits, lefts);
        }
        Prog::Future(a) => {
            let mut c = ctx;
            let f = c.future(move |_| 7u64);
            c.touch(&f, move |c2, v| {
                assert_eq!(*v, 7, "future value corrupted");
                hits.fetch_add(1, Ordering::Relaxed);
                exec(c2, *a, id + 1, hits, lefts);
            });
        }
        Prog::Await(a) => {
            let mut c = ctx;
            let f = c.future(move |_| 7u64);
            let h = Arc::clone(&hits);
            c.fork_strand(move |sc: &mut Ctx<'_, DynSnzi>| {
                // Re-entered from the top after a park; the await is then
                // ready, so the hit below is recorded exactly once.
                assert_eq!(*strand_await!(sc, &f), 7, "awaited value corrupted");
                h.fetch_add(1, Ordering::Relaxed);
                StrandPoll::Done(())
            });
            exec(c, *a, id + 1, hits, lefts);
        }
    }
}

/// Execute `prog` on a real pool, then check exactly-once execution plus
/// the conservation identities over the run's counter deltas.
fn run_and_check(workers: usize, prog: &Prog) {
    let _guard = lock();
    let before = Snapshot::take();
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let p = prog.clone();
    let lefts = Lefts::new(prog.nodes());
    let l = Arc::clone(&lefts);
    run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |ctx| exec(ctx, p, 0, h, l));
    let d = Snapshot::take().diff(&before);
    assert_eq!(hits.load(Ordering::Relaxed), prog.hits(), "every body exactly once");
    if !obs::enabled() {
        return;
    }
    // Pairs own themselves: the second of a pair's two claims frees it,
    // so a pair that is born and not freed leaked, and a third claim would
    // have double-freed (caught by the poison/claim asserts). One is born
    // per increment and nowhere else — a scope's only strand holds none —
    // and a scope makes its in-counter only if it forks.
    let (born, freed) = (d.counter("sched.pairs_born"), d.counter("sched.pairs_freed"));
    assert_eq!(born, freed, "decrement-pair leak: born {born} != freed {freed}");
    let promoted = d.counter("spdag.spawn_promoted");
    if workers == 1 {
        assert_eq!(promoted, 0, "nothing to promote to: {prog:?}");
    }
    assert_eq!(promoted, prog.promoted(0, &lefts), "a promotion per left not run in place");
    let increments = prog.increments(0, &lefts, false);
    assert_eq!(born, increments, "one pair per increment: {prog:?}");
    let (root, nested) = prog.counters(0, &lefts, false);
    assert_eq!(
        d.counter("snzi.trees_created"),
        u64::from(root) + nested,
        "one in-counter per scope that forked: {prog:?}"
    );
    let blocks_born = d.counter("outset.blocks_allocated") + d.counter("outset.blocks_reused");
    let blocks_dead = d.counter("outset.blocks_recycled");
    assert_eq!(blocks_born, blocks_dead, "out-set block leak or double-account");
    for kind in ["vertex", "poolarc"] {
        let born =
            d.counter(&format!("sched.{kind}_alloc")) + d.counter(&format!("sched.{kind}_reuse"));
        let dead = d.counter(&format!("sched.{kind}_recycled"))
            + d.counter(&format!("sched.{kind}_dropped"));
        assert_eq!(born, dead, "{kind} leak or double-account: born {born} != dead {dead}");
    }
    assert!(d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse") > 0, "dag ran");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_conserve_with_recycling(prog in prog_strategy(), wide in any::<bool>()) {
        run_and_check(if wide { 4 } else { 1 }, &prog);
    }
}

/// A fixed spawn-tree churn round: `2^depth` leaves, every vertex body
/// within the inline size class.
fn churn_round(workers: usize, depth: u64) -> u64 {
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    fn tree(ctx: Ctx<'_, DynSnzi>, depth: u64, hits: Arc<AtomicU64>) {
        if depth == 0 {
            hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let h2 = Arc::clone(&hits);
        ctx.spawn(move |c| tree(c, depth - 1, hits), move |c| tree(c, depth - 1, h2));
    }
    run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |ctx| tree(ctx, depth, h));
    hits.load(Ordering::Relaxed)
}

#[test]
fn warm_runs_stop_minting_vertices() {
    let _guard = lock();
    // Warm phase: the pools converge to the high-water mark of
    // simultaneously-live slabs; one run's peak is a noisy draw, so take
    // several before claiming steady state.
    for _ in 0..4 {
        assert_eq!(churn_round(4, 10), 1 << 10);
    }
    let before = Snapshot::take();
    assert_eq!(churn_round(4, 10), 1 << 10);
    let d = Snapshot::take().diff(&before);
    if obs::enabled() {
        let (alloc, reuse) = (d.counter("sched.vertex_alloc"), d.counter("sched.vertex_reuse"));
        // O(peak-live jitter) fresh mints at most, never O(churn).
        assert!(alloc <= 64, "warm run minted {alloc} fresh vertices (reused {reuse})");
        assert!(reuse > alloc, "steady state must be reuse-dominated: {reuse} vs {alloc}");
    }
}

#[test]
fn inline_class_inlines_and_oversize_spills() {
    let _guard = lock();
    if !obs::enabled() {
        return;
    }
    let before = Snapshot::take();
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    // A spawn's children run in place, in the parent's vertex, with no
    // frame of their own, unless at W = 2 a left child is promoted into a
    // vertex. The root's spawn finds its worker's deque empty and promotes
    // its left child; the inner spawn's is promoted only if a thief took
    // that one first.
    run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |ctx| {
        let big = [1u8; 64]; // over the inline class: must spill
        let (h2, h3) = (Arc::clone(&h), Arc::clone(&h));
        ctx.spawn(
            move |_| {
                h.fetch_add(u64::from(big[0]), Ordering::Relaxed);
            },
            move |c| {
                c.spawn(
                    move |_| {
                        h2.fetch_add(1, Ordering::Relaxed); // 8-byte capture: must inline
                    },
                    move |_| {
                        h3.fetch_add(1, Ordering::Relaxed);
                    },
                );
            },
        );
    });
    let d = Snapshot::take().diff(&before);
    assert_eq!(hits.load(Ordering::Relaxed), 3);
    // `spdag.body_boxed` kept its name; it counts spilled one-shot bodies.
    assert_eq!(d.counter("spdag.body_boxed"), 1, "only the 64-byte capture spills");
    let promoted = d.counter("spdag.spawn_promoted");
    assert_eq!(
        d.counter("spdag.body_inline"),
        1 + (promoted - 1),
        "the root and, if it was promoted, the small capture stay inline"
    );
    assert_eq!(d.counter("spdag.spawn_inline"), 4 - promoted, "the rest build no frame");
}

/// A `stages × width` wavefront of futures, each cell joining two cells of
/// the row before, folded by a forked `touch` per last-row cell (the
/// benchmark's `pipeline_stages`). Returns the run's statistics.
fn pipeline(workers: usize, stages: u64, width: u64) -> dynsnzi::DagRunStats {
    let sunk = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&sunk);
    let stats = run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |mut ctx| {
        let mut row: Vec<FutureHandle<u64>> = (0..width).map(|i| ctx.future(move |_| i)).collect();
        for _ in 1..stages {
            row = (0..width as usize)
                .map(|i| {
                    let j = (i + 1) % width as usize;
                    ctx.future_join(&row[i], &row[j], |_, a, b| a.wrapping_add(*b))
                })
                .collect();
        }
        for cell in row {
            let s = Arc::clone(&s);
            ctx.fork(move |c| {
                c.touch(&cell, move |_, _| {
                    s.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
    });
    assert_eq!(sunk.load(Ordering::Relaxed), width, "every last-row cell sunk once");
    stats
}

/// Recycler slabs one future keeps live from its creation to its sweep:
/// its core, the pair of the fork that joined it to the root's scope, its
/// completion vertex and its body's vertex (`tests/space_bounds.rs`). The
/// core and the pair ride the 64 B class, the two vertices the 128 B one.
const LINK_SLABS: usize = 4;

#[test]
fn warm_pipeline_mints_nothing_and_keeps_its_live_peak() {
    let _guard = lock();
    const WORKERS: usize = 4;
    // 1 024 cells in the cold run, so that one slab more per cell is far
    // over the footprint bounds' slack; small enough for a debug build.
    let (stages, width) = (32u64, 16u64);
    // From empty depots, what the class pools hold afterwards is the live
    // peak of the largest run below.
    recycle::trim();
    let before = Snapshot::take();
    // The cold run is twice as wide, so it retires far more than a warm run
    // needs at once: a run's need is its live peak plus what the other
    // workers' caches hold at that instant, and pools that hold exactly one
    // run's need reach it in steps that can be a hundred runs apart.
    pipeline(WORKERS, stages, 2 * width);
    for _ in 0..3 {
        pipeline(WORKERS, stages, width);
    }
    let warm_blocks = outset::tree::block_pool().cached_slabs();
    let mid = Snapshot::take();
    let run = pipeline(WORKERS, stages, width);
    let steady = Snapshot::take().diff(&mid);
    let total = Snapshot::take().diff(&before);

    // Steals must pay (`sched::pool`): a worker lets `STEAL_PAYS` pass
    // between two of its steals. `PoolStats` holds on both legs; with
    // telemetry the registry's count of the same run has to agree.
    let paced =
        WORKERS as u64 * (1 + (run.elapsed.as_nanos() / sched::STEAL_PAYS.as_nanos()) as u64);
    let steals = run.pool.steals;
    assert!(steals <= paced, "{steals} steals in {:?} on {WORKERS} workers > {paced}", run.elapsed);

    let blocks = outset::tree::block_pool().cached_slabs();
    assert!(
        blocks <= 2 * warm_blocks + 64,
        "block pool {blocks} > 2 x the warm {warm_blocks} + 64: it grows with churn"
    );
    // Beside the cells: what the other workers' caches hold while one
    // builds (up to two magazines of 32 per class each) and the run's own
    // few slabs — root, final vertex, the root scope's counter and the
    // child pairs it draws (this host reads 33–37 per class, 21 above the
    // 128 B class, at W = 4). One slab more per cell, or a core, a pair or
    // a vertex a class up (448 B or 640 B a cell instead of 384 B), is far
    // over it.
    let cells = (stages * 2 * width) as usize;
    let (total_slack, class_slack) = (128 * WORKERS + 64, 64 * WORKERS + 64);
    let (slabs, by_class) = (recycle::cached_slabs(), recycle::cached_slabs_by_class());
    assert!(
        slabs <= LINK_SLABS * cells + total_slack,
        "class pools {slabs} slabs > {LINK_SLABS} x {cells} cells + slack"
    );
    let [_, small, mid, large @ ..] = by_class;
    assert!(
        small <= 2 * cells + class_slack
            && mid <= 2 * cells + class_slack
            && large.iter().sum::<usize>() <= class_slack,
        "{cells} cells keep two 64 B and two 128 B slabs each, and no larger one; \
         slabs by class {by_class:?}"
    );

    if !obs::enabled() {
        return;
    }
    assert_eq!(steady.counter("sched.steals"), steals, "the registry and PoolStats disagree");
    let (va, vr) = (steady.counter("sched.vertex_alloc"), steady.counter("sched.vertex_reuse"));
    assert_eq!(va, 0, "a warm run minted {va} fresh vertices (reused {vr})");
    // One pair per increment and nowhere else: a run forks once per cell
    // and once per last-row sink, the cold run at twice the width.
    let (born, freed) = (total.counter("sched.pairs_born"), total.counter("sched.pairs_freed"));
    let increments = (stages + 1) * (2 * width + 4 * width);
    assert_eq!((born, freed), (increments, increments), "pairs born, freed != increments");
}

/// Nine one-shot bodies in ten keep their capture in the vertex's frame
/// (`spdag.body_inline`) rather than spilling it (`spdag.body_boxed`) on
/// the spawn-heavy shapes: a fanout broadcast and `fib(20)`.
#[test]
fn spawn_heavy_bodies_ride_inline() {
    let _guard = lock();
    fn fib(ctx: Ctx<'_, DynSnzi>, n: u64, acc: Arc<AtomicU64>) {
        if n < 2 {
            acc.fetch_add(n, Ordering::Relaxed);
            return;
        }
        let a2 = Arc::clone(&acc);
        ctx.spawn(move |c| fib(c, n - 1, acc), move |c| fib(c, n - 2, a2));
    }
    fn inline_share(workload: &str, root: impl FnOnce(Ctx<'_, DynSnzi>) + Send + 'static) {
        let before = Snapshot::take();
        run_dag::<DynSnzi, _>(DynConfig::default(), 4, root);
        let d = Snapshot::take().diff(&before);
        let (inline, boxed) = (d.counter("spdag.body_inline"), d.counter("spdag.body_boxed"));
        if obs::enabled() {
            assert!(
                inline > 0 && 10 * inline >= 9 * (inline + boxed),
                "{workload}: {inline} inline, {boxed} spilled"
            );
        }
    }
    inline_share("fanout_broadcast", |mut ctx| {
        let hub = ctx.future(|_| 1u64);
        let mut scope = ctx.into_scope();
        for _ in 0..1024 {
            let hub = hub.clone();
            scope.fork(move |c| c.touch(&hub, |_, v| assert_eq!(*v, 1)));
        }
    });
    let acc = Arc::new(AtomicU64::new(0));
    let a = Arc::clone(&acc);
    inline_share("fib(20)", move |c| fib(c, 20, a));
    assert_eq!(acc.load(Ordering::Relaxed), 6765, "fib(20)");
}

#[test]
fn trim_empties_the_class_pools() {
    let _guard = lock();
    assert_eq!(churn_round(2, 8), 1 << 8);
    // Workers flushed their caches at pool teardown; flush this thread's
    // share, then trim must leave the class pools empty.
    sched::slab::flush_this_thread();
    let freed = recycle::trim();
    assert_eq!(
        recycle::cached_slabs(),
        0,
        "trim left {} slabs cached after freeing {freed}",
        recycle::cached_slabs()
    );
    assert_eq!(recycle::cached_bytes(), 0);
}

/// Bumps a shared tally when dropped: exactly-once drop glue, observable.
struct Tally(Arc<AtomicU64>);

impl Drop for Tally {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn off_ladder<T>(_: &T) -> bool {
    recycle::class_of::<T>().is_none()
}

/// The `(alloc, reuse, recycled, dropped)` deltas of one counter family.
fn family(d: &Snapshot, prefix: &str) -> (u64, u64, u64, u64) {
    let get = |suffix: &str| d.counter(&format!("{prefix}_{suffix}"));
    (get("alloc"), get("reuse"), get("recycled"), get("dropped"))
}

/// Run `round` until it is fed entirely by what earlier rounds retired —
/// it leaves `cached_slabs()` where it found it (this thread's batch
/// refills leave the worker short the first few times). Returns the
/// rounds run and the gauge they settled on; after 32 unsettled rounds it
/// gives up, and the caller's gauge assert fails.
fn warm(mut round: impl FnMut()) -> (u64, usize) {
    let mut cached = recycle::cached_slabs();
    for rounds in 1.. {
        round();
        let now = recycle::cached_slabs();
        if now == cached || rounds == 32 {
            return (rounds, now);
        }
        cached = now;
    }
    unreachable!()
}

#[test]
fn off_ladder_headers_take_the_plain_allocator() {
    #[repr(align(256))]
    struct Wide(Tally);
    #[repr(align(128))]
    struct Padded(Tally);

    let _guard = lock();
    // Warm the class pools, so "never reused" is a claim about routing and
    // not about an empty cache.
    assert_eq!(churn_round(1, 4), 1 << 4);
    let cached = recycle::cached_slabs();
    let drops = Arc::new(AtomicU64::new(0));
    let before = Snapshot::take();

    let big = (Tally(Arc::clone(&drops)), [0u64; 256]); // 2 KiB: above the ladder
    assert!(off_ladder(&big));
    let a = sched::PoolArc::new(big);
    let b = a.clone();
    drop(a);
    assert_eq!(drops.load(Ordering::SeqCst), 0, "a clone still holds the value");
    drop(b);
    assert_eq!(drops.load(Ordering::SeqCst), 1, "the last handle drops the value once");

    let wide = sched::PoolArc::new(Wide(Tally(Arc::clone(&drops)))); // align 256: past every class
    assert!(off_ladder(&*wide));
    assert_eq!(&wide.0 as *const Tally as usize % 256, 0, "the fallback honours the alignment");
    drop(wide);
    assert_eq!(drops.load(Ordering::SeqCst), 2);

    assert_eq!(recycle::cached_slabs(), cached, "an off-ladder header entered a class pool");
    if obs::enabled() {
        let d = Snapshot::take().diff(&before);
        assert_eq!(family(&d, "sched.poolarc"), (2, 0, 0, 2), "born fresh, dropped, never pooled");
    }

    // The other side of the line: a cache-line-pair alignment is what the
    // 128 B-and-up classes are born with, so a padded header is pooled.
    let before = Snapshot::take();
    let padded = sched::PoolArc::new(Padded(Tally(Arc::clone(&drops))));
    assert!(!off_ladder(&*padded));
    assert_eq!(&padded.0 as *const Tally as usize % 128, 0, "the class honours the alignment");
    drop(padded);
    assert_eq!(drops.load(Ordering::SeqCst), 3);
    if obs::enabled() {
        let d = Snapshot::take().diff(&before);
        let (alloc, reuse, recycled, dropped) = family(&d, "sched.poolarc");
        assert_eq!((alloc + reuse, recycled, dropped), (1, 1, 0), "born and ended in a class pool");
    }
}

#[test]
fn oversized_strand_frame_spills_to_the_plain_allocator() {
    let _guard = lock();
    let drops = Arc::new(AtomicU64::new(0));
    let sum = Arc::new(AtomicU64::new(0));
    // One worker, so every run asks the class pools for the same slabs.
    let run = |drops: &Arc<AtomicU64>, sum: &Arc<AtomicU64>| {
        let (tally, sum) = (Tally(Arc::clone(drops)), Arc::clone(sum));
        run_dag::<DynSnzi, _>(DynConfig::default(), 1, move |mut ctx| {
            let f = ctx.future(move |_| 7u64);
            let state = [3u64; 160]; // 1280 B of saved state: above the 1 KiB class
            let strand = move |sc: &mut Ctx<'_, DynSnzi>| {
                let v = *strand_await!(sc, &f);
                sum.fetch_add(v + state[159], Ordering::Relaxed);
                let _ = &tally;
                StrandPoll::Done(())
            };
            assert!(off_ladder(&strand));
            ctx.fork_strand(strand);
        });
        sched::slab::flush_this_thread();
    };
    let (mut runs, cached) = warm(|| run(&drops, &sum));
    let before = Snapshot::take();
    run(&drops, &sum);
    runs += 1;
    let d = Snapshot::take().diff(&before);
    assert_eq!(sum.load(Ordering::Relaxed), runs * 10, "each strand completed exactly once");
    assert_eq!(drops.load(Ordering::SeqCst), runs, "each spilled frame was dropped exactly once");
    assert_eq!(recycle::cached_slabs(), cached, "the spilled frame entered a class pool");
    if obs::enabled() {
        assert_eq!(d.counter("spdag.strand_spilled"), 1);
        assert_eq!(family(&d, "sched.strand"), (1, 0, 0, 1), "born fresh, dropped, never pooled");
        assert_eq!(d.counter("sched.vertex_alloc"), 0, "the warm run minted no vertex");
    }
}

/// Above the inline class, inside the ladder: a body that owns one spills
/// to a recycled slab.
struct Big {
    tally: Tally,
    pad: [u64; 8],
}

/// One exit path of a spilled body, checked for exactly-once lifetime.
/// `round` runs a one-worker dag (so every round asks the class pools for
/// the same slabs) whose body owns the `Big` it is given. Once the pools
/// are warm, one more round must drop its capture exactly once, leave
/// `cached_slabs()` alone and keep the ledgers exact. Four spare slabs of
/// every class stand by for that round: a leaked slab then moves the gauge
/// instead of hiding behind an empty pool, where its successor would
/// simply be born fresh. They are four *more* than the warm rounds settled
/// on, because the rounds are not quite identical: an in-counter grows on
/// a coin flip (`DynConfig::default()`, p = 1/(25·cores)), and a round
/// that draws one takes a `ChildPair` from the vertex class's pool.
fn spilled_state_lives_exactly_once(round: impl Fn(Big)) {
    let _guard = lock();
    let drops = Arc::new(AtomicU64::new(0));
    let run = || {
        round(Big { tally: Tally(Arc::clone(&drops)), pad: [3; 8] });
        sched::slab::flush_this_thread();
    };
    let (mut rounds, _) = warm(run);
    for bytes in [32, 64, 128, 256, 512, 1024] {
        let class = recycle::class_for(bytes, 8).expect("a ladder size");
        // Hold whatever the pool has until four came fresh from the allocator.
        let (mut held, mut fresh) = (Vec::new(), 0);
        while fresh < 4 {
            let (slab, reused) = recycle::acquire_or_alloc(class);
            fresh += usize::from(!reused);
            held.push(slab);
        }
        held.into_iter().for_each(|slab| recycle::release(class, slab));
    }
    sched::slab::flush_this_thread();
    let (cached, by_class) = (recycle::cached_slabs(), recycle::cached_slabs_by_class());
    let before = Snapshot::take();
    run();
    rounds += 1;
    let d = Snapshot::take().diff(&before);
    assert_eq!(drops.load(Ordering::SeqCst), rounds, "each capture is dropped exactly once");
    assert_eq!(
        recycle::cached_slabs(),
        cached,
        "a slab leaked or was released twice; by class, before {by_class:?}, after {:?}",
        recycle::cached_slabs_by_class()
    );
    if obs::enabled() {
        for prefix in ["sched.vertex", "sched.strand"] {
            let (alloc, reuse, recycled, dropped) = family(&d, prefix);
            assert_eq!(alloc + reuse, recycled + dropped, "{prefix} ledger");
        }
        assert_eq!(d.counter("sched.vertex_alloc"), 0, "the warm round minted no vertex");
    }
}

/// Run a dag whose body panics: it must drain, and the panic reach here.
fn panics(dag: impl FnOnce() -> dynsnzi::DagRunStats) {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(dag))
        .expect_err("the body's panic is re-raised at the run_dag caller");
}

#[test]
fn spilled_closure_that_runs_drops_its_capture_once() {
    spilled_state_lives_exactly_once(|big| {
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        run_dag::<DynSnzi, _>(DynConfig::default(), 1, move |mut ctx| {
            let body = move |_: Ctx<'_, DynSnzi>| {
                s.fetch_add(big.pad[7], Ordering::Relaxed);
                let _ = &big.tally;
            };
            assert!(std::mem::size_of_val(&body) > recycle::INLINE_SLOT_BYTES);
            ctx.fork(body);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 3, "the body ran exactly once");
    });
}

#[test]
fn spilled_closure_that_panics_drops_its_capture_once() {
    spilled_state_lives_exactly_once(|big| {
        panics(|| {
            run_dag::<DynSnzi, _>(DynConfig::default(), 1, move |mut ctx| {
                ctx.fork(move |_| {
                    let _owned = big;
                    panic!("mid-body");
                });
            })
        });
    });
}

#[test]
fn spilled_strand_that_parks_twice_drops_its_state_once() {
    spilled_state_lives_exactly_once(|big| {
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        let stats = run_dag::<DynSnzi, _>(DynConfig::default(), 1, move |mut ctx| {
            let a = ctx.future(|_| 40u64);
            // Made only once `a` is ready, so its await parks too.
            let mut b = None;
            ctx.fork_strand(move |sc: &mut Ctx<'_, DynSnzi>| {
                let x = *strand_await!(sc, &a);
                if b.is_none() {
                    b = Some(sc.future(|_| 2u64));
                }
                let y = *strand_await!(sc, b.as_ref().expect("made above"));
                s.fetch_add(x + y + big.pad[0], Ordering::Relaxed);
                let _ = &big.tally;
                StrandPoll::Done(())
            });
        });
        assert_eq!((stats.pool.suspends, stats.pool.resumes), (2, 2));
        assert_eq!(sum.load(Ordering::Relaxed), 45, "the strand completed exactly once");
    });
}

#[test]
fn spilled_strand_that_panics_while_parked_drops_its_state_once() {
    spilled_state_lives_exactly_once(|big| {
        panics(|| {
            run_dag::<DynSnzi, _>(DynConfig::default(), 1, move |mut ctx| {
                // Unready when the strand runs: the one worker pops the
                // strand (pushed last) before the future's body.
                let f = ctx.future(|_| 7u64);
                ctx.fork_strand(move |sc: &mut Ctx<'_, DynSnzi>| {
                    let _ = &big;
                    match sc.touch_await(&f) {
                        StrandTouch::Parked => panic!("after a Parked touch"),
                        StrandTouch::Ready(_) => unreachable!("the future cannot have run"),
                    }
                });
            })
        });
    });
}
