//! Vertex/continuation recycling under real interleavings: random
//! series-parallel programs — spawns, chains, scope forks, future/touch
//! edges and strands parking on `touch_await` — executed on real worker
//! pools, checked against the accounting discipline of `sched::recycle`:
//!
//! 1. **Conservation** — at quiescence everything a run bore is dead
//!    again (the ledger of `tests/common`: vertices, decrement pairs,
//!    pooled refcount headers, spilled strand frames, out-set blocks and
//!    adds), with one pair per increment and one in-counter per scope that
//!    forked (the program model of `tests/common`). A violation is a leak
//!    or a double-free caught by arithmetic — or a pair or counter per
//!    chain/future/touch/park, or per spawn whose left child ran in place,
//!    grown back.
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
//!    leaves the pools at its live peak (three recycler slabs per cell),
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
use std::sync::Arc;

use common::{serial, Ledger, Prog, Serial};
use dynsnzi::prelude::*;
use sched::recycle;

// A random program runs every cell once, and what it made is what the
// model says: one pair per increment, one in-counter per scope that
// forked, everything born dead again.
#[test]
fn random_programs_conserve_with_recycling() {
    sched::rng::battery("random_programs_conserve_with_recycling", 48, |rng| {
        let prog = Prog::draw(rng, 24);
        let workers = if rng.next_below(2) == 1 { 4 } else { 1 };
        let s = serial();
        let ledger = Ledger::open(&s);
        let run = prog.run::<DynSnzi>(DynConfig::default(), workers, None);
        run.assert_drained();
        if let Some((made, _)) = ledger.close(&format!("W={workers}"), &run.pools()) {
            run.assert_made(&made);
        }
    });
}

/// The program grammar spends the budget it is given: never more, on
/// average at least what a grammar that stops at a leaf with probability
/// 1/3 a level draws at depths 5 and 8 (7.1 and 11.7 nodes), and hardly
/// ever a lone leaf.
#[test]
fn drawn_programs_are_the_size_they_name() {
    for (budget, floor) in [(16, 7.1), (24, 11.7)] {
        let (mut total, mut most, mut lone) = (0, 0, 0);
        sched::rng::battery("drawn_programs_are_the_size_they_name", 10_000, |rng| {
            let n = Prog::draw(rng, budget).nodes();
            (total, most, lone) = (total + n, most.max(n), lone + usize::from(n == 1));
        });
        let mean = total as f64 / 10_000.0;
        assert!(most <= budget, "a program of {most} nodes over a budget of {budget}");
        assert!(mean >= floor, "{mean} nodes a program at budget {budget}, under {floor}");
        assert!(lone <= 500, "{lone} lone leaves in 10 000 programs at budget {budget}");
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
    let s = serial();
    // Warm phase: the pools converge to the high-water mark of
    // simultaneously-live slabs; one run's peak is a noisy draw, so take
    // several before claiming steady state.
    for _ in 0..4 {
        assert_eq!(churn_round(4, 10), 1 << 10);
    }
    let ledger = Ledger::open(&s);
    assert_eq!(churn_round(4, 10), 1 << 10);
    if let Some((_, d)) = ledger.close("a warm churn round", &[]) {
        let (alloc, reuse) = (d.counter("sched.vertex_alloc"), d.counter("sched.vertex_reuse"));
        // O(peak-live jitter) fresh mints at most, never O(churn).
        assert!(alloc <= 64, "warm run minted {alloc} fresh vertices (reused {reuse})");
        assert!(reuse > alloc, "steady state must be reuse-dominated: {reuse} vs {alloc}");
    }
}

#[test]
fn inline_class_inlines_and_oversize_spills() {
    let s = serial();
    let ledger = Ledger::open(&s);
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    // A spawn's children run in place, in the parent's vertex, with no
    // frame of their own, unless at W = 2 a left child is promoted into a
    // vertex. The root's spawn finds its worker's deque empty and promotes
    // its left child; the inner spawn's is promoted only if a thief took
    // that one first.
    let stats = run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |ctx| {
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
    assert_eq!(hits.load(Ordering::Relaxed), 3);
    let Some((made, d)) = ledger.close("two spawns", &[&stats.pool]) else { return };
    // `spdag.body_boxed` kept its name; it counts spilled one-shot bodies.
    assert_eq!(d.counter("spdag.body_boxed"), 1, "only the 64-byte capture spills");
    let promoted = made.promoted;
    assert_eq!(
        d.counter("spdag.body_inline"),
        1 + (promoted - 1),
        "the root and, if it was promoted, the small capture stay inline"
    );
    assert_eq!(made.in_place, 4 - promoted, "the rest build no frame");
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
/// its core, the pair of the fork that joined it to the root's scope and
/// its body's vertex, which carries its completion
/// (`tests/space_bounds.rs`). The core and the pair ride the 64 B class,
/// the vertex the 128 B one.
const LINK_SLABS: usize = 3;

#[test]
fn warm_pipeline_mints_nothing_and_keeps_its_live_peak() {
    let s = serial();
    const WORKERS: usize = 4;
    // 1 024 cells in the cold run, so that one slab more per cell is far
    // over the footprint bounds' slack; small enough for a debug build.
    let (stages, width) = (32u64, 16u64);
    // From empty depots, what the class pools hold afterwards is the live
    // peak of the largest run below.
    recycle::trim();
    let total = Ledger::open(&s);
    // The cold run is twice as wide, so it retires far more than a warm run
    // needs at once: a run's need is its live peak plus what the other
    // workers' caches hold at that instant, and pools that hold exactly one
    // run's need reach it in steps that can be a hundred runs apart.
    let mut runs = vec![pipeline(WORKERS, stages, 2 * width)];
    for _ in 0..3 {
        runs.push(pipeline(WORKERS, stages, width));
    }
    let warm_blocks = outset::tree::block_pool().cached_slabs();
    let steady = Ledger::open(&s);
    let run = pipeline(WORKERS, stages, width);
    let steady = steady.close("a warm pipeline", &[&run.pool]);
    let pools: Vec<_> = runs.iter().chain([&run]).map(|r| &r.pool).collect();
    let total = total.close("cold and warm pipelines", &pools);

    // Steals must pay (`sched::pool`): a worker lets `STEAL_PAYS` pass
    // between two of its steals. `PoolStats` holds on both legs; with
    // telemetry the registry's count of the same run has to agree.
    let paced =
        WORKERS as u64 * (1 + (run.elapsed.as_nanos() / sched::STEAL_PAYS.as_nanos()) as u64);
    let steals = run.pool.steals;
    assert!(steals <= paced, "{steals} steals in {:?} on {WORKERS} workers > {paced}", run.elapsed);

    // A warm run takes back every block it retires: the block pool ends
    // where the warm runs left it (100 of 100 runs read it exactly, debug
    // and release, at W = 4), and one that never reused would hold this
    // run's churn on top.
    let blocks = outset::tree::block_pool().cached_slabs();
    assert!(
        blocks <= warm_blocks + 64,
        "block pool {blocks} > the warm {warm_blocks} + 64: it grows with churn"
    );
    // Beside the cells: what the other workers' caches hold while one
    // builds (up to two magazines of 32 per class each) and the run's own
    // few slabs — root, final vertex, the root scope's counter and the
    // child pairs it draws (this host reads 33–37 per class, 21 above the
    // 128 B class, at W = 4). One slab more per cell — a completion vertex
    // built for a future whose scope never forks among them — or a core, a
    // pair or a vertex a class up (320 B or 384 B a cell instead of 256 B),
    // is far over it.
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
            && mid <= cells + class_slack
            && large.iter().sum::<usize>() <= class_slack,
        "{cells} cells keep two 64 B slabs and one 128 B slab each, and no larger one; \
         slabs by class {by_class:?}"
    );

    let (Some((_, steady)), Some((total, _))) = (steady, total) else { return };
    assert_eq!(steady.counter("sched.steals"), steals, "the registry and PoolStats disagree");
    let (va, vr) = (steady.counter("sched.vertex_alloc"), steady.counter("sched.vertex_reuse"));
    assert_eq!(va, 0, "a warm run minted {va} fresh vertices (reused {vr})");
    // One pair per increment and nowhere else: a run forks once per cell
    // and once per last-row sink, the cold run at twice the width.
    let increments = (stages + 1) * (2 * width + 4 * width);
    assert_eq!(total.pairs, increments, "pairs born != increments");
}

/// Nine one-shot bodies in ten keep their capture in the vertex's frame
/// (`spdag.body_inline`) rather than spilling it (`spdag.body_boxed`) on
/// the spawn-heavy shapes: a fanout broadcast and `fib(20)`.
#[test]
fn spawn_heavy_bodies_ride_inline() {
    let s = serial();
    fn fib(ctx: Ctx<'_, DynSnzi>, n: u64, acc: Arc<AtomicU64>) {
        if n < 2 {
            acc.fetch_add(n, Ordering::Relaxed);
            return;
        }
        let a2 = Arc::clone(&acc);
        ctx.spawn(move |c| fib(c, n - 1, acc), move |c| fib(c, n - 2, a2));
    }
    fn inline_share(
        s: &Serial,
        workload: &str,
        root: impl FnOnce(Ctx<'_, DynSnzi>) + Send + 'static,
    ) {
        let ledger = Ledger::open(s);
        let stats = run_dag::<DynSnzi, _>(DynConfig::default(), 4, root);
        if let Some((_, d)) = ledger.close(workload, &[&stats.pool]) {
            let (inline, boxed) = (d.counter("spdag.body_inline"), d.counter("spdag.body_boxed"));
            assert!(
                inline > 0 && 10 * inline >= 9 * (inline + boxed),
                "{workload}: {inline} inline, {boxed} spilled"
            );
        }
    }
    inline_share(&s, "fanout_broadcast", |mut ctx| {
        let hub = ctx.future(|_| 1u64);
        let mut scope = ctx.into_scope();
        for _ in 0..1024 {
            let hub = hub.clone();
            scope.fork(move |c| c.touch(&hub, |_, v| assert_eq!(*v, 1)));
        }
    });
    let acc = Arc::new(AtomicU64::new(0));
    let a = Arc::clone(&acc);
    inline_share(&s, "fib(20)", move |c| fib(c, 20, a));
    assert_eq!(acc.load(Ordering::Relaxed), 6765, "fib(20)");
}

#[test]
fn trim_empties_the_class_pools() {
    let _s = serial();
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

    let s = serial();
    // Warm the class pools, so "never reused" is a claim about routing and
    // not about an empty cache.
    assert_eq!(churn_round(1, 4), 1 << 4);
    let cached = recycle::cached_slabs();
    let drops = Arc::new(AtomicU64::new(0));
    let ledger = Ledger::open(&s);

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
    if let Some((_, d)) = ledger.close("off-ladder headers", &[]) {
        assert_eq!(family(&d, "sched.poolarc"), (2, 0, 0, 2), "born fresh, dropped, never pooled");
    }

    // The other side of the line: a cache-line-pair alignment is what the
    // 128 B-and-up classes are born with, so a padded header is pooled.
    let ledger = Ledger::open(&s);
    let padded = sched::PoolArc::new(Padded(Tally(Arc::clone(&drops))));
    assert!(!off_ladder(&*padded));
    assert_eq!(&padded.0 as *const Tally as usize % 128, 0, "the class honours the alignment");
    drop(padded);
    assert_eq!(drops.load(Ordering::SeqCst), 3);
    if let Some((_, d)) = ledger.close("a padded header", &[]) {
        let (_, _, recycled, dropped) = family(&d, "sched.poolarc");
        assert_eq!((recycled, dropped), (1, 0), "born and ended in a class pool");
    }
}

#[test]
fn oversized_strand_frame_spills_to_the_plain_allocator() {
    let s = serial();
    let drops = Arc::new(AtomicU64::new(0));
    let sum = Arc::new(AtomicU64::new(0));
    // One worker, so every run asks the class pools for the same slabs.
    let run = |drops: &Arc<AtomicU64>, sum: &Arc<AtomicU64>| {
        let (tally, sum, sum2) = (Tally(Arc::clone(drops)), Arc::clone(sum), Arc::clone(sum));
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
            // Beside it, one whose state (a handle and an `Arc`) fits the
            // frame's inline slot.
            let (g, sum) = (ctx.future(move |_| 7u64), Arc::clone(&sum2));
            ctx.fork_strand(move |sc: &mut Ctx<'_, DynSnzi>| {
                sum.fetch_add(*strand_await!(sc, &g), Ordering::Relaxed);
                StrandPoll::Done(())
            });
        });
        sched::slab::flush_this_thread();
    };
    let (mut runs, cached) = warm(|| run(&drops, &sum));
    let ledger = Ledger::open(&s);
    run(&drops, &sum);
    runs += 1;
    assert_eq!(sum.load(Ordering::Relaxed), runs * 17, "each strand completed exactly once");
    assert_eq!(drops.load(Ordering::SeqCst), runs, "each spilled frame was dropped exactly once");
    assert_eq!(recycle::cached_slabs(), cached, "the spilled frame entered a class pool");
    if let Some((_, d)) = ledger.close("an oversized strand frame", &[]) {
        let split = (d.counter("spdag.strand_inline"), d.counter("spdag.strand_spilled"));
        assert_eq!(split, (1, 1), "(inline, spilled) strand states");
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
    let s = serial();
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
    let ledger = Ledger::open(&s);
    run();
    rounds += 1;
    assert_eq!(drops.load(Ordering::SeqCst), rounds, "each capture is dropped exactly once");
    assert_eq!(
        recycle::cached_slabs(),
        cached,
        "a slab leaked or was released twice; by class, before {by_class:?}, after {:?}",
        recycle::cached_slabs_by_class()
    );
    if let Some((_, d)) = ledger.close("a warm round", &[]) {
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
