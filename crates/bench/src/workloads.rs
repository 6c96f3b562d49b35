//! The paper's benchmark programs (Figures 6 and 7), the raw-counter
//! microbenchmark of the SNZI reproduction study (Appendix C.1), the
//! out-set workloads extending the comparison to completion broadcast —
//! [`fanout_broadcast`], [`pipeline_stages`], [`raw_outset_bench`] — and
//! the growth-curve study of the adaptive lane table
//! ([`raw_growth_bench`], [`fanout_broadcast_probed`],
//! [`outset_footprint_report`]) validating `docs/outset-contention.md`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use incounter::{CounterFamily, FixedConfig, FixedDepth};
use outset::tree::{block_pool, TreeOutsetObj};
use outset::{MutexOutset, OutsetFamily, TreeOutset};
use spdag::{run_dag, Ctx, FutureHandle};

/// Calibrated busy work: roughly `units` nanoseconds of arithmetic on this
/// machine (the paper: "each unit of dummy work takes approximately one
/// nanosecond").
#[inline]
pub fn dummy_work(units: u64) {
    let mut acc = 0u64;
    for i in 0..units {
        // A dependent multiply-add chain defeats vectorisation so each
        // iteration costs on the order of a nanosecond.
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(&acc);
    }
    std::hint::black_box(acc);
}

/// Measure the cost of one `dummy_work` unit in nanoseconds (reported next
/// to granularity results so readers can convert the x-axis).
pub fn calibrate_dummy_unit_ns() -> f64 {
    let iters = 3_000_000u64;
    let t0 = Instant::now();
    dummy_work(iters);
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn fanin_rec<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, leaf_work: u64) {
    if n >= 2 {
        ctx.spawn(move |c| fanin_rec(c, n / 2, leaf_work), move |c| fanin_rec(c, n / 2, leaf_work));
    } else if leaf_work > 0 {
        dummy_work(leaf_work);
    }
}

/// The fanin benchmark (Figure 6): one finish block, `n` leaf strands all
/// synchronising on a single dependency counter — the maximal-contention
/// pattern of a parallel for. `leaf_work` adds the granularity study's
/// dummy work at each leaf (0 for the pure synchronisation benchmark).
///
/// Returns the wall-clock time of the run.
pub fn fanin<C: CounterFamily>(cfg: C::Config, workers: usize, n: u64, leaf_work: u64) -> Duration {
    run_dag::<C, _>(cfg, workers, move |ctx| fanin_rec(ctx, n, leaf_work)).elapsed
}

/// Counter operations performed by `fanin(n)`: one increment per spawn
/// (`n − 1`) and one decrement per strand termination (`n`), i.e. ~`2n`.
pub fn fanin_ops(n: u64) -> u64 {
    if n < 2 {
        return 1;
    }
    2 * n - 1
}

fn indegree2_rec<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64) {
    if n >= 2 {
        ctx.chain(
            move |c| {
                c.spawn(move |c2| indegree2_rec(c2, n / 2), move |c2| indegree2_rec(c2, n / 2));
            },
            move |_| {},
        );
    }
}

/// The indegree2 benchmark (Figure 7): the same `n`-leaf pattern as fanin
/// but with a fresh finish block at every level, so every dependency
/// counter sees indegree exactly 2. This isolates per-counter *setup*
/// cost: the fixed-depth baseline must allocate a whole tree per level.
pub fn indegree2<C: CounterFamily>(cfg: C::Config, workers: usize, n: u64) -> Duration {
    run_dag::<C, _>(cfg, workers, move |ctx| indegree2_rec(ctx, n)).elapsed
}

/// Counter operations performed by `indegree2(n)`: per internal node one
/// chain (make(1)), one increment, two decrements — ≈ `4n`.
pub fn indegree2_ops(n: u64) -> u64 {
    if n < 2 {
        return 1;
    }
    4 * (n - 1)
}

/// The fanout-broadcast benchmark: one future, `n` dependents racing to
/// register in its out-set (through `n` scope forks, so adders spread
/// over the worker pool), one sweep scheduling them all. The out-set
/// analogue of fanin — the maximal add-contention pattern — driven by
/// the in-counter dag machinery so the counter and out-set algorithms
/// compose exactly as in production use. Returns wall-clock time.
pub fn fanout_broadcast<C: CounterFamily, O: OutsetFamily>(
    cfg: C::Config,
    workers: usize,
    n: u64,
) -> Duration {
    fanout_broadcast_run::<C, O>(cfg, workers, n, None)
}

/// Escape slot through which [`fanout_broadcast_run`] parks the hub
/// future's handle for post-run probing.
type HubEscape<O> = Arc<Mutex<Option<FutureHandle<u64, O>>>>;

/// Shared body of [`fanout_broadcast`] and [`fanout_broadcast_probed`]:
/// when `escape` is given, the hub future's handle is parked there so
/// callers can probe its out-set after the run quiesces.
fn fanout_broadcast_run<C: CounterFamily, O: OutsetFamily>(
    cfg: C::Config,
    workers: usize,
    n: u64,
    escape: Option<HubEscape<O>>,
) -> Duration {
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let registered = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&registered);
        // The future completes only after every dependent's add has
        // really landed (each fork bumps the count *after* its touch
        // returns), keeping the registration path — not the post-seal
        // bounce — under maximal concurrency.
        let f = ctx.future_in::<O, _, _>(move |_| {
            while r.load(Ordering::Acquire) < n {
                std::hint::spin_loop();
            }
            1u64
        });
        if let Some(escape) = escape {
            *escape.lock().unwrap() = Some(f.clone());
        }
        let mut scope = ctx.into_scope();
        for _ in 0..n {
            let f = f.clone();
            let registered = Arc::clone(&registered);
            scope.fork(move |c| {
                c.touch(&f, |_, v| {
                    std::hint::black_box(*v);
                });
                // Runs after touch registered the edge (touch consumes
                // the Ctx but the body continues).
                registered.fetch_add(1, Ordering::Release);
            });
        }
    })
    .elapsed
}

/// Out-set operations performed by `fanout_broadcast(n)`: `n` adds and
/// one finish sweeping `≤ n` tokens — ≈ `2n`.
pub fn fanout_broadcast_ops(n: u64) -> u64 {
    2 * n
}

/// The pipeline benchmark: a `stages × width` wavefront where every cell
/// joins two cells of the previous stage (`i` and `i+1 mod width`) —
/// `2·stages·width` runtime-added edges. Exercises out-set add/finish
/// under pipelined (producer racing consumer) rather than all-at-once
/// contention. Returns wall-clock time.
pub fn pipeline_stages<C: CounterFamily, O: OutsetFamily>(
    cfg: C::Config,
    workers: usize,
    stages: u64,
    width: u64,
) -> Duration {
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let mut row: Vec<FutureHandle<u64, O>> =
            (0..width).map(|i| ctx.future_in::<O, _, _>(move |_| i)).collect();
        for _ in 1..stages {
            let mut next = Vec::with_capacity(row.len());
            for i in 0..width as usize {
                let j = (i + 1) % width as usize;
                next.push(ctx.future_join_in::<_, _, _, O, O, O, _>(
                    &row[i],
                    &row[j],
                    |_, a, b| a.wrapping_add(*b),
                ));
            }
            row = next;
        }
        // Sink every last-stage cell so nothing is dead code.
        let mut scope = ctx.into_scope();
        for cell in row {
            scope.fork(move |c| {
                c.touch(&cell, |_, v| {
                    std::hint::black_box(*v);
                });
            });
        }
    })
    .elapsed
}

/// Out-set operations performed by `pipeline_stages`: two adds per
/// interior cell plus one finish per cell — ≈ `3·stages·width`.
pub fn pipeline_stages_ops(stages: u64, width: u64) -> u64 {
    3 * stages * width
}

/// Which out-set implementation a raw/dag out-set benchmark exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RawOutset {
    /// The lock-free tree of slot blocks.
    Tree,
    /// The `Mutex<Vec>` baseline.
    Mutex,
}

impl RawOutset {
    /// Display name matching the family constants.
    pub fn name(&self) -> &'static str {
        match self {
            RawOutset::Tree => TreeOutset::NAME,
            RawOutset::Mutex => MutexOutset::NAME,
        }
    }

    /// Run [`fanout_broadcast`] under this out-set with the in-counter.
    pub fn run_fanout(&self, cfg: incounter::DynConfig, workers: usize, n: u64) -> Duration {
        match self {
            RawOutset::Tree => fanout_broadcast::<incounter::DynSnzi, TreeOutset>(cfg, workers, n),
            RawOutset::Mutex => {
                fanout_broadcast::<incounter::DynSnzi, MutexOutset>(cfg, workers, n)
            }
        }
    }

    /// Run [`pipeline_stages`] under this out-set with the in-counter.
    pub fn run_pipeline(
        &self,
        cfg: incounter::DynConfig,
        workers: usize,
        stages: u64,
        width: u64,
    ) -> Duration {
        match self {
            RawOutset::Tree => {
                pipeline_stages::<incounter::DynSnzi, TreeOutset>(cfg, workers, stages, width)
            }
            RawOutset::Mutex => {
                pipeline_stages::<incounter::DynSnzi, MutexOutset>(cfg, workers, stages, width)
            }
        }
    }
}

/// The raw out-set microbenchmark (no dag): `threads` threads each
/// register `adds` edges in one shared out-set, then one finish sweeps
/// it. Isolates the add path's contention exactly as the raw counter
/// benchmark isolates arrive/depart. Total operations =
/// `threads * adds + 1` (the sweep delivers in one call).
pub fn raw_outset_bench(kind: RawOutset, threads: usize, adds: u64) -> Duration {
    fn drive<O: OutsetFamily>(threads: usize, adds: u64) -> Duration {
        let set = Arc::new(O::make());
        let elapsed = {
            let set = Arc::clone(&set);
            run_threads(threads, move |tid| {
                let set = Arc::clone(&set);
                move || {
                    for i in 0..adds {
                        let token = (tid as u64) * adds + i;
                        match O::add(&set, token, tid as u64) {
                            outset::AddEdge::Registered => {}
                            outset::AddEdge::Finished(_) => unreachable!("unsealed"),
                        }
                    }
                }
            })
        };
        let mut delivered = 0u64;
        let sweep_start = Instant::now();
        assert!(O::finish(&set, &mut |_| delivered += 1));
        let total = elapsed + sweep_start.elapsed();
        assert_eq!(delivered, threads as u64 * adds);
        total
    }
    match kind {
        RawOutset::Tree => drive::<TreeOutset>(threads, adds),
        RawOutset::Mutex => drive::<MutexOutset>(threads, adds),
    }
}

/// Everything one growth-curve run observes about the adaptive lane
/// table (see `docs/outset-contention.md` for the quantities' roles in
/// the accounting).
#[derive(Clone, Copy, Debug)]
pub struct GrowthStats {
    /// Wall-clock time of the timed add phase (the sweep is excluded —
    /// growth only affects the add path).
    pub elapsed: Duration,
    /// Lane-table size when the adders were done.
    pub final_lanes: usize,
    /// Successful table doublings.
    pub splits: usize,
    /// Lost block-install CASes — the contention events that fed the
    /// growth coin — read as the run's `outset.lost_cas` diff (0 with
    /// telemetry compiled out). The accounting predicts `splits ≈ races /
    /// 2` below the cap (each loss flips a `p = 1/2` coin once).
    pub install_races: usize,
    /// Total adds completed (across all threads) when the table was first
    /// observed above one lane; `None` if it never grew.
    pub adds_to_first_split: Option<u64>,
}

/// Lost block-install CASes so far, over every out-set in the process
/// (always 0 with telemetry compiled out).
fn lost_cas() -> usize {
    obs::Snapshot::take().counter("outset.lost_cas") as usize
}

/// The raw growth-curve microbenchmark: `threads` threads each register
/// `adds_per_thread` edges in one shared out-set, born on its one lane,
/// then one finish sweeps it. The adaptive counterpart of
/// [`raw_outset_bench`]: it measures when (in adds) the table first
/// splits, how far it converges, and what the transient costs, under
/// contention that is real rather than assumed.
pub fn raw_growth_bench(threads: usize, adds_per_thread: u64) -> GrowthStats {
    let set = Arc::new(TreeOutsetObj::new());
    let total_adds = Arc::new(AtomicU64::new(0));
    let first_split = Arc::new(AtomicU64::new(u64::MAX));
    let lost_before = lost_cas();
    let elapsed = {
        let set = Arc::clone(&set);
        let total_adds = Arc::clone(&total_adds);
        let first_split = Arc::clone(&first_split);
        run_threads(threads, move |tid| {
            let set = Arc::clone(&set);
            let total_adds = Arc::clone(&total_adds);
            let first_split = Arc::clone(&first_split);
            move || {
                for i in 0..adds_per_thread {
                    let token = (tid as u64) * adds_per_thread + i;
                    match set.add(token, tid as u64) {
                        outset::AddEdge::Registered => {}
                        outset::AddEdge::Finished(_) => unreachable!("unsealed"),
                    }
                    // The global add clock exists only to timestamp the
                    // first split, and is itself a shared hot spot — so
                    // stop touching it (and the probe) the moment the
                    // split is pinned down, leaving the steady-state
                    // throughput measurement probe-free.
                    if first_split.load(Ordering::Relaxed) == u64::MAX {
                        let done = total_adds.fetch_add(1, Ordering::Relaxed) + 1;
                        if set.lane_count() > 1 {
                            first_split.fetch_min(done, Ordering::Relaxed);
                        }
                    }
                }
            }
        })
    };
    let install_races = lost_cas() - lost_before;
    let mut delivered = 0u64;
    assert!(set.finish(&mut |_| delivered += 1));
    assert_eq!(delivered, threads as u64 * adds_per_thread);
    let fs = first_split.load(Ordering::Relaxed);
    GrowthStats {
        elapsed,
        final_lanes: set.lane_count(),
        splits: set.splits(),
        install_races,
        adds_to_first_split: (fs < u64::MAX).then_some(fs),
    }
}

/// [`fanout_broadcast`] with the hub future's adaptive out-set probed
/// after the run quiesced: the dag-level growth-curve data point. Returns
/// the wall-clock time plus the hub's [`GrowthStats`] (with
/// `adds_to_first_split` unavailable — the dag offers no global add
/// clock — and `install_races` counted over every out-set of the run,
/// the hub's nearly all of them).
pub fn fanout_broadcast_probed<C: CounterFamily>(
    cfg: C::Config,
    workers: usize,
    n: u64,
) -> (Duration, GrowthStats) {
    let escaped = Arc::new(Mutex::new(None::<FutureHandle<u64, TreeOutset>>));
    let lost_before = lost_cas();
    let elapsed =
        fanout_broadcast_run::<C, TreeOutset>(cfg, workers, n, Some(Arc::clone(&escaped)));
    let install_races = lost_cas() - lost_before;
    let handle = escaped.lock().unwrap().take().expect("hub handle escaped");
    let set = handle.outset();
    let stats = GrowthStats {
        elapsed,
        final_lanes: set.lane_count(),
        splits: set.splits(),
        install_races,
        adds_to_first_split: None,
    };
    (elapsed, stats)
}

/// Heap footprint of a single-dependent out-set — the "single-dependent
/// futures pay one word" claim, in bytes.
///
/// Live bytes (blocks linked into an out-set) and recycler bytes (blocks
/// sitting free in the slab pool, ready for reuse) are reported
/// **separately**: cached-but-free memory is a process-wide standby cost
/// bounded by peak-live, not a per-out-set cost, and folding it into the
/// per-object numbers would misattribute it to whichever out-set was
/// measured last.
#[derive(Clone, Copy, Debug)]
pub struct FootprintReport {
    /// A fresh adaptive out-set (1 lane, no blocks).
    pub adaptive_fresh: usize,
    /// An adaptive out-set holding one registered dependent.
    pub adaptive_one_add: usize,
    /// Blocks sitting free in the block recycler when the report was
    /// taken — standby memory, **not** part of any out-set's live bytes.
    pub recycler_cached_blocks: usize,
    /// The same standby pool in bytes
    /// (`recycler_cached_blocks × block size`).
    pub recycler_cached_bytes: usize,
}

/// Measure [`FootprintReport`] on this machine.
pub fn outset_footprint_report() -> FootprintReport {
    let adaptive = TreeOutsetObj::new();
    let adaptive_fresh = adaptive.footprint_bytes();
    let _ = adaptive.add(1, 0);
    let adaptive_one_add = adaptive.footprint_bytes();
    FootprintReport {
        adaptive_fresh,
        adaptive_one_add,
        recycler_cached_blocks: block_pool().cached_slabs(),
        recycler_cached_bytes: block_pool().cached_bytes(),
    }
}

/// Which raw counter the SNZI reproduction study (Figure 12) exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RawCounter {
    /// A single fetch-and-add cell.
    FetchAdd,
    /// The fixed-depth SNZI counter ([`FixedDepth`]); threads hash onto
    /// leaves.
    FixedDepth {
        /// Tree depth `d`.
        depth: u32,
    },
}

/// The raw-counter microbenchmark reproducing Figure 10 of the original
/// SNZI paper (our paper's Figure 12): `threads` threads each perform
/// `pairs` arrive/depart pairs on one shared counter, no dag involved.
/// Returns the wall-clock time; total operations = `2 * threads * pairs`.
pub fn raw_counter_bench(counter: RawCounter, threads: usize, pairs: u64) -> Duration {
    match counter {
        RawCounter::FetchAdd => {
            let cell = Arc::new(PaddedCell { v: AtomicU64::new(0) });
            run_threads(threads, move |_| {
                let cell = Arc::clone(&cell);
                move || {
                    for _ in 0..pairs {
                        cell.v.fetch_add(1, Ordering::AcqRel);
                        cell.v.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            })
        }
        RawCounter::FixedDepth { depth } => {
            let cfg = FixedConfig { depth };
            let counter = Arc::new(FixedDepth::make(&cfg, 0));
            run_threads(threads, move |tid| {
                let counter = Arc::clone(&counter);
                move || {
                    for i in 0..pairs {
                        let key = (tid as u64) << 32 | i;
                        // SAFETY: the handles are `counter`'s, which the
                        // `Arc` keeps alive, and each decrement departs at
                        // the leaf of the increment before it.
                        unsafe {
                            let (dec, ..) = FixedDepth::increment(&cfg, &counter, (), true, key);
                            FixedDepth::decrement(&counter, dec);
                        }
                    }
                }
            })
        }
    }
}

#[repr(align(128))]
struct PaddedCell {
    v: AtomicU64,
}

/// Spawn `threads` threads from a factory, start their bodies together on
/// a barrier, and time the batch by the threads' own clocks: from the
/// earliest body's start to the latest body's end. (Stamping on the
/// spawning thread after it left the barrier missed every body that ran
/// before it was scheduled again — at more threads than cores whole
/// studies — and `growth --quick` printed thousands of millions of adds per
/// second per core.)
fn run_threads<F, G>(threads: usize, factory: F) -> Duration
where
    F: Fn(usize) -> G,
    G: FnOnce() + Send + 'static,
{
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let (body, barrier) = (factory(tid), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                let start = Instant::now();
                body();
                (start, Instant::now())
            })
        })
        .collect();
    let spans: Vec<(Instant, Instant)> =
        handles.into_iter().map(|h| h.join().expect("benchmark thread panicked")).collect();
    let start = spans.iter().map(|s| s.0).min().expect("at least one thread");
    let end = spans.iter().map(|s| s.1).max().expect("at least one thread");
    end - start
}

#[cfg(test)]
mod tests {
    use super::*;
    use incounter::{DynConfig, DynSnzi, FetchAdd};

    #[test]
    fn fanin_counts_leaves() {
        // Cross-check the analytic op count with an instrumented run.
        let stats = run_dag::<FetchAdd, _>((), 2, |ctx| fanin_rec(ctx, 64, 0));
        // Vertices: root + final + 2 per spawn (63 spawns).
        assert_eq!(stats.pool.tasks, 2 + 2 * 63);
        assert_eq!(fanin_ops(64), 127);
    }

    #[test]
    fn fanin_runs_on_all_families() {
        for workers in [1, 2] {
            fanin::<DynSnzi>(DynConfig::default(), workers, 256, 0);
            fanin::<FetchAdd>((), workers, 256, 0);
            fanin::<FixedDepth>(FixedConfig { depth: 3 }, workers, 256, 0);
        }
    }

    #[test]
    fn indegree2_runs_on_all_families() {
        for workers in [1, 2] {
            indegree2::<DynSnzi>(DynConfig::default(), workers, 128);
            indegree2::<FetchAdd>((), workers, 128);
            indegree2::<FixedDepth>(FixedConfig { depth: 2 }, workers, 128);
        }
    }

    #[test]
    fn fanin_with_leaf_work_takes_longer() {
        let fast = fanin::<FetchAdd>((), 1, 512, 0);
        let slow = fanin::<FetchAdd>((), 1, 512, 20_000);
        assert!(slow > fast, "dummy work must cost time: {fast:?} !< {slow:?}");
    }

    #[test]
    fn fanout_broadcast_runs_on_both_outsets() {
        use outset::{MutexOutset, TreeOutset};
        for workers in [1, 2, 4] {
            fanout_broadcast::<DynSnzi, TreeOutset>(DynConfig::default(), workers, 200);
            fanout_broadcast::<DynSnzi, MutexOutset>(DynConfig::default(), workers, 200);
            fanout_broadcast::<FetchAdd, TreeOutset>((), workers, 200);
        }
        assert_eq!(fanout_broadcast_ops(100), 200);
    }

    #[test]
    fn pipeline_stages_runs_on_both_outsets() {
        use outset::{MutexOutset, TreeOutset};
        for workers in [1, 3] {
            pipeline_stages::<DynSnzi, TreeOutset>(DynConfig::default(), workers, 8, 16);
            pipeline_stages::<DynSnzi, MutexOutset>(DynConfig::default(), workers, 8, 16);
        }
        assert_eq!(pipeline_stages_ops(8, 16), 384);
    }

    #[test]
    fn raw_outset_both_kinds_run() {
        for kind in [RawOutset::Tree, RawOutset::Mutex] {
            let d = raw_outset_bench(kind, 2, 5_000);
            assert!(d.as_nanos() > 0, "{}", kind.name());
        }
    }

    #[test]
    fn raw_outset_selector_round_trips() {
        assert_eq!(RawOutset::Tree.name(), "outset-tree");
        assert_eq!(RawOutset::Mutex.name(), "outset-mutex");
        RawOutset::Tree.run_fanout(DynConfig::default(), 2, 100);
        RawOutset::Mutex.run_pipeline(DynConfig::default(), 2, 4, 8);
    }

    #[test]
    fn raw_growth_bench_reports_consistent_stats() {
        // One thread never loses an install, so it never splits.
        let s = raw_growth_bench(1, 3_000);
        assert_eq!((s.final_lanes, s.splits), (1, 0));
        assert_eq!(s.adds_to_first_split, None);
        // Under contention: splits (if any) stay within the cap, and the
        // split/race bookkeeping is coherent.
        let s = raw_growth_bench(4, 3_000);
        assert!(s.final_lanes <= TreeOutsetObj::max_lanes());
        assert_eq!(s.final_lanes, 1 << s.splits);
        if obs::enabled() {
            assert!(s.splits <= s.install_races, "every split was preceded by a lost CAS");
        }
        if s.final_lanes > 1 {
            assert!(s.adds_to_first_split.is_some());
        }
    }

    #[test]
    fn fanout_probed_matches_plain_fanout_semantics() {
        let (elapsed, stats) = fanout_broadcast_probed::<DynSnzi>(DynConfig::default(), 2, 300);
        assert!(elapsed.as_nanos() > 0);
        assert!(stats.final_lanes >= 1);
        assert_eq!(stats.final_lanes, 1 << stats.splits);
    }

    #[test]
    fn footprint_report_orders_as_documented() {
        let r = outset_footprint_report();
        assert_eq!(r.adaptive_fresh, std::mem::size_of::<TreeOutsetObj>(), "one lane, inline");
        assert!(r.adaptive_one_add > r.adaptive_fresh, "one add allocates the first block");
        // The recycler's standby pool is reported in its own columns,
        // never folded into the per-out-set live bytes (whose values
        // above are pure shape arithmetic, pool warm or cold).
        assert_eq!(
            r.recycler_cached_bytes,
            r.recycler_cached_blocks * block_pool().slab_bytes(),
            "cached bytes must be cached blocks x block size"
        );
    }

    #[test]
    fn raw_counter_both_kinds_run() {
        let d = raw_counter_bench(RawCounter::FetchAdd, 2, 10_000);
        assert!(d.as_nanos() > 0);
        let d = raw_counter_bench(RawCounter::FixedDepth { depth: 3 }, 2, 10_000);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn dummy_work_scales_roughly_linearly() {
        // Best-of-5 to ride out scheduler noise (this also runs in debug
        // builds on loaded CI machines); the bound is deliberately loose.
        let best = |units: u64| {
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    dummy_work(units);
                    t0.elapsed()
                })
                .min()
                .unwrap()
        };
        let t1 = best(2_000_000);
        let t8 = best(16_000_000);
        assert!(t8 > t1 * 3, "8x work should take >3x time: {t1:?} vs {t8:?}");
    }

    #[test]
    fn run_threads_covers_what_every_thread_measured() {
        // Each body times itself; the batch must cover every one of them,
        // however the threads and the spawning thread were scheduled —
        // three times more threads than this host has cores, too.
        let threads = 3 * sched::num_cpus();
        let own = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&own);
        let batch = run_threads(threads, move |tid| {
            let o = Arc::clone(&o);
            move || {
                let t0 = Instant::now();
                dummy_work(20_000 * (tid as u64 + 1));
                o.lock().unwrap().push(t0.elapsed());
            }
        });
        let own = own.lock().unwrap();
        assert_eq!(own.len(), threads);
        for (tid, d) in own.iter().enumerate() {
            assert!(batch >= *d, "thread {tid} measured {d:?}, the batch only {batch:?}");
        }
    }

    #[test]
    fn ops_formulas() {
        assert_eq!(fanin_ops(1), 1);
        assert_eq!(fanin_ops(2), 3);
        assert_eq!(indegree2_ops(2), 4);
        assert_eq!(indegree2_ops(8), 28);
    }
}
