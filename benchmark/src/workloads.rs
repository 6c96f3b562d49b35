//! The five dag programs, their sequential elisions, their seeded inputs
//! and the check run after every iteration.
//!
//! The programs are the benchmark's own (copied from, not imported from,
//! `crates/bench/src/workloads.rs`, which later changes may rewrite) and
//! use the default families only: the `DynSnzi` in-counter and the
//! `TreeOutset` out-set. README.md says why each workload is here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use incounter::{DynConfig, DynSnzi};
use sched::{PoolState, PoolStats};
use spdag::{run_dag, strand_await, Ctx, DagRunStats, FutureHandle, StrandPoll};

use crate::span::Probe;

type C = DynSnzi;

/// Forks or futures built per `build` span where a workload builds more
/// than one batch's worth.
const BUILD_BATCH: u64 = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fib,
    FaninGrain,
    FanoutBroadcast,
    PipelineStages,
    AwaitChain,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Fib,
        Kind::FaninGrain,
        Kind::FanoutBroadcast,
        Kind::PipelineStages,
        Kind::AwaitChain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fib => "fib",
            Kind::FaninGrain => "fanin_grain",
            Kind::FanoutBroadcast => "fanout_broadcast",
            Kind::PipelineStages => "pipeline_stages",
            Kind::AwaitChain => "await_chain",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Everything a program receives: inputs generated from the seed, never
/// the seed itself.
#[derive(Clone, Debug)]
enum Input {
    /// `fib(n)` whose leaves `fib(0)` and `fib(1)` have seeded values.
    Fib { n: u64, leaf: [u64; 2] },
    /// One `dummy_work` amount per leaf.
    FaninGrain { work: Arc<Vec<u32>> },
    /// `n` dependents of one hub future with a seeded value.
    FanoutBroadcast { n: u64, hub: u64 },
    /// The first row's values, and for each later stage the stride `k`:
    /// cell `i` joins cells `i` and `i + k` of the row before.
    PipelineStages { first_row: Arc<Vec<u64>>, strides: Arc<Vec<usize>> },
    /// A chain of `depth` futures, each [`chain_link`] of the one before,
    /// the first holding `base`.
    AwaitChain { depth: u64, base: u64 },
}

pub struct Workload {
    input: Input,
    /// Vertices one dag execution creates, worked out from the input's
    /// shape. `PoolStats.tasks` counts a suspended strand again when it
    /// resumes, so the check is `tasks - resumes == vertices`.
    pub vertices: u64,
    /// The digest of the elision's output, which every dag iteration must
    /// reproduce.
    expected: u64,
}

/// SplitMix64: the benchmark's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

impl Workload {
    /// Generate the inputs for `kind` from `seed`. The seed changes
    /// values and placement, never the amount of work, so runs with
    /// different seeds measure the same thing. `quick` shrinks the sizes
    /// for the smoke test; its numbers mean nothing.
    ///
    /// The three future workloads are sized so that what one iteration
    /// keeps live (about 0.7 KB per dependent, 2.5 KB per pipeline cell,
    /// 1.7 KB per chain link) stays near the 2 MiB of one core's L2. At
    /// eight times these sizes a third of the time per vertex was cache
    /// misses served by a last-level cache shared with other tenants, and
    /// ten runs of one commit spread by 20 to 34 % (README.md has the
    /// numbers): the benchmark was measuring the host.
    pub fn generate(kind: Kind, seed: u64, quick: bool) -> Workload {
        let mut rng = Rng(seed ^ 0x5EED_0000 ^ kind as u64);
        let size = |full: u64, small: u64| if quick { small } else { full };
        let (input, vertices) = match kind {
            Kind::Fib => {
                let n = size(25, 14);
                let leaf = [1 + rng.below(1 << 20), 1 + rng.below(1 << 20)];
                // Two vertices per spawn, and fib(n + 1) - 1 spawns; plus
                // the root and the final vertex.
                (Input::Fib { n, leaf }, 2 * (fib_number(n + 1) - 1) + 2)
            }
            Kind::FaninGrain => {
                let leaves = size(8192, 256) as usize;
                // Mean 4000 units: seven leaves in eight at `light`, one
                // in eight four times heavier.
                let light = size(2909, 291) as u32;
                let mut work = vec![light; leaves];
                let mut order: Vec<usize> = (0..leaves).collect();
                for i in 0..leaves / 8 {
                    let j = i + rng.below((leaves - i) as u64) as usize;
                    order.swap(i, j);
                    work[order[i]] = 4 * light;
                }
                (Input::FaninGrain { work: Arc::new(work) }, 2 * (leaves as u64 - 1) + 2)
            }
            Kind::FanoutBroadcast => {
                let n = size(4096, 512);
                // Root, final, the hub's body and completion vertices, and
                // per dependent a fork and the continuation of its touch.
                (Input::FanoutBroadcast { n, hub: 1 + rng.below(1 << 30) }, 2 * n + 4)
            }
            Kind::PipelineStages => {
                let (stages, width) = (size(32, 6), size(32, 16));
                let first_row: Vec<u64> = (0..width).map(|_| rng.next()).collect();
                let strides: Vec<usize> =
                    (1..stages).map(|_| 1 + rng.below(width - 1) as usize).collect();
                // Two vertices per first-row future, four per join cell
                // (body, completion, two touch continuations), two per
                // sink fork; plus root and final.
                let vertices = 2 + 2 * width + 4 * (stages - 1) * width + 2 * width;
                (
                    Input::PipelineStages {
                        first_row: Arc::new(first_row),
                        strides: Arc::new(strides),
                    },
                    vertices,
                )
            }
            Kind::AwaitChain => {
                let depth = size(1024, 256);
                // Two vertices per future, the sink strand, root, final.
                (Input::AwaitChain { depth, base: rng.below(1 << 40) }, 2 * depth + 3)
            }
        };
        let mut w = Workload { input, vertices, expected: 0 };
        w.expected = w.elision(&mut Vec::new());
        w
    }

    /// The sequential elision: the same program with every spawn, fork,
    /// future and touch replaced by a plain call, reduced to a digest of
    /// its output. Its time is the T_seq of `work_efficiency`. `scratch`
    /// is where per-dependent and per-cell results land; the caller keeps
    /// it across calls, as the dag's sinks are allocated outside its
    /// clock, so no elision allocates.
    pub fn elision(&self, scratch: &mut Vec<u64>) -> u64 {
        match &self.input {
            Input::Fib { n, leaf } => digest([fib_seq(*n, leaf)]),
            Input::FaninGrain { work } => {
                let mut sum = 0u64;
                for (i, &units) in work.iter().enumerate() {
                    sum = sum.wrapping_add(leaf_checksum(i, units));
                }
                digest([work.len() as u64, sum])
            }
            Input::FanoutBroadcast { n, hub } => {
                let hub = std::hint::black_box(*hub);
                scratch.clear();
                scratch.resize(*n as usize, 0);
                for slot in scratch.iter_mut() {
                    *slot += hub;
                }
                fanout_digest(scratch.iter().copied(), hub)
            }
            Input::PipelineStages { first_row, strides } => {
                let width = first_row.len();
                scratch.clear();
                scratch.extend_from_slice(first_row);
                scratch.resize(2 * width, 0);
                let (mut row, mut next) = scratch.split_at_mut(width);
                for (stage, &k) in strides.iter().enumerate() {
                    for i in 0..width {
                        next[i] = pipeline_cell(row[i], row[(i + k) % width], stage as u64);
                    }
                    std::mem::swap(&mut row, &mut next);
                }
                digest(row.iter().copied())
            }
            Input::AwaitChain { depth, base } => {
                let mut v = *base;
                for _ in 1..*depth {
                    v = chain_link(v);
                }
                digest([v])
            }
        }
    }

    /// Whether an elision sample produced the expected output.
    pub fn elision_ok(&self, output: u64) -> bool {
        output == self.expected
    }

    /// Execute the dag once on `workers` workers, then check it. Sinks are
    /// allocated before the clock starts and read after it stops. `probe` records the `run_dag`, `build` and
    /// `verify` spans when it is on.
    pub fn run(&self, workers: usize, probe: &Probe) -> Iteration {
        let sink = Sink::new(&self.input);
        let (wall, result) = probe.span("run_dag", |p| {
            let (probe, sink) = (p.clone(), sink.clone());
            match self.input.clone() {
                Input::Fib { n, leaf } => {
                    let state = Arc::new(FibState { acc: Arc::clone(&sink.cells[0]), leaf });
                    timed_run(workers, move |ctx| fib_rec(ctx, n, state))
                }
                Input::FaninGrain { work } => {
                    let n = work.len() as u32;
                    let state = Arc::new(FaninState {
                        work,
                        leaves: Arc::clone(&sink.cells[0]),
                        sum: Arc::clone(&sink.cells[1]),
                    });
                    timed_run(workers, move |ctx| fanin_rec(ctx, 0, n, state))
                }
                Input::FanoutBroadcast { n, hub } => {
                    timed_run(workers, move |ctx| fanout_broadcast(ctx, n, hub, sink.slots, probe))
                }
                Input::PipelineStages { first_row, strides } => timed_run(workers, move |ctx| {
                    pipeline_stages(ctx, &first_row, &strides, sink.slots, probe)
                }),
                Input::AwaitChain { depth, base } => {
                    let out = Arc::clone(&sink.cells[0]);
                    timed_run(workers, move |ctx| await_chain(ctx, depth, base, out, probe))
                }
            }
        });
        probe.span("verify", |_| match result {
            Err(payload) => {
                let why = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic with a non-string payload".to_string());
                Iteration { wall, pool: None, failure: Some(why) }
            }
            Ok(stats) => {
                let failure = self.check(&stats.pool, sink.output(&self.input));
                Iteration { wall, pool: Some(stats.pool), failure }
            }
        })
    }

    fn check(&self, pool: &PoolStats, output: u64) -> Option<String> {
        if pool.state != PoolState::Completed {
            return Some(format!("pool state {:?}", pool.state));
        }
        if pool.tasks - pool.resumes != self.vertices || pool.suspends != pool.resumes {
            return Some(format!(
                "{} tasks, {} suspends, {} resumes; the shape has {} vertices",
                pool.tasks, pool.suspends, pool.resumes, self.vertices
            ));
        }
        if output != self.expected {
            return Some("output differs from the elision's".to_string());
        }
        None
    }
}

/// Call to return of `run_dag` on `root`. A body panic is re-raised at
/// the caller; it is caught here and fails the iteration.
///
/// Not `run_dag_watched`: that call returns only at its watchdog's next
/// poll, `stall_timeout / 8` apart, so a 30 ms dag under a 10 s timeout
/// takes 1.25 s to return and no iteration could be timed through it.
/// `crate::hang` bounds a stalled pool from outside instead.
fn timed_run(
    workers: usize,
    root: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
) -> (Duration, std::thread::Result<DagRunStats>) {
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        crate::hang::watch(|| run_dag::<C, _>(config(), workers, root))
    }));
    (t0.elapsed(), result)
}

/// What one dag execution looked like from outside.
pub struct Iteration {
    /// Call to return of `run_dag`.
    pub wall: Duration,
    /// Absent when the run panicked.
    pub pool: Option<PoolStats>,
    /// Why the iteration counts as failed, if it does.
    pub failure: Option<String>,
}

/// Where one execution's results land: a few shared cells, or one slot
/// per dependent or per last-row cell.
#[derive(Clone)]
struct Sink {
    cells: Vec<Arc<AtomicU64>>,
    slots: Arc<Vec<AtomicU64>>,
}

impl Sink {
    fn new(input: &Input) -> Sink {
        let (cells, slots) = match input {
            Input::Fib { .. } | Input::AwaitChain { .. } => (1, 0),
            Input::FaninGrain { .. } => (2, 0),
            Input::FanoutBroadcast { n, .. } => (0, *n as usize),
            Input::PipelineStages { first_row, .. } => (0, first_row.len()),
        };
        Sink {
            cells: (0..cells).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            slots: Arc::new((0..slots).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// The digest of what the execution left here, built as the elision
    /// builds its own.
    fn output(&self, input: &Input) -> u64 {
        let slots = self.slots.iter().map(|s| s.load(Ordering::Relaxed));
        match input {
            Input::FanoutBroadcast { hub, .. } => fanout_digest(slots, *hub),
            Input::PipelineStages { .. } => digest(slots),
            _ => digest(self.cells.iter().map(|c| c.load(Ordering::Relaxed))),
        }
    }
}

/// The in-counter configuration every run uses: the family's default
/// (growth probability 1/(25·cores)). Built once, because the default
/// asks the OS for the core count, which costs ~400 µs in this container.
pub fn config() -> DynConfig {
    static CONFIG: OnceLock<DynConfig> = OnceLock::new();
    *CONFIG.get_or_init(DynConfig::default)
}

/// `units` steps of a dependent xor-shift, multiply and add chain, about
/// three nanoseconds each. Returns the chain's value so that callers can
/// checksum the work they did. Never inlined, so that the dag's leaves and
/// the elision run the same code. The chain stays in registers and the
/// compiler cannot fold it: the same loop held in place by `black_box`
/// carried its value through a store and a load, and two builds of this
/// package that differed elsewhere then put `work_efficiency` on
/// `fanin_grain` at 0.955 and 1.01.
#[inline(never)]
pub fn dummy_work(units: u64) -> u64 {
    let mut acc = units;
    for i in 0..units {
        acc = (acc ^ (acc >> 29)).wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

/// Nanoseconds one `dummy_work` unit costs on this machine: the best of
/// a few short batches.
pub fn calibrate_dummy_unit_ns() -> f64 {
    const UNITS: u64 = 400_000;
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(dummy_work(std::hint::black_box(UNITS)));
            t0.elapsed().as_nanos() as f64 / UNITS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The n-th Fibonacci number, `fib(0) = 0`.
fn fib_number(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// Never inlined, so that the elision's code does not depend on what its
/// caller looks like: inlined into one caller it ran a quarter slower than
/// into another, which moved `work_efficiency` with no change to the
/// runtime.
#[inline(never)]
fn fib_seq(n: u64, leaf: &[u64; 2]) -> u64 {
    if n < 2 {
        return leaf[std::hint::black_box(n) as usize];
    }
    fib_seq(n - 1, leaf).wrapping_add(fib_seq(n - 2, leaf))
}

struct FibState {
    acc: Arc<AtomicU64>,
    leaf: [u64; 2],
}

/// Binary spawn down to `n < 2`; every leaf adds its value into one
/// atomic. The arms capture 16 bytes, inside the runtime's inline-body
/// class.
fn fib_rec(ctx: Ctx<'_, C>, n: u64, state: Arc<FibState>) {
    if n < 2 {
        state.acc.fetch_add(state.leaf[n as usize], Ordering::Relaxed);
        return;
    }
    let other = Arc::clone(&state);
    ctx.spawn(move |c| fib_rec(c, n - 1, state), move |c| fib_rec(c, n - 2, other));
}

struct FaninState {
    work: Arc<Vec<u32>>,
    leaves: Arc<AtomicU64>,
    sum: Arc<AtomicU64>,
}

/// Leaf `i` does its `units` of work; the checksum ties the amount to the
/// leaf, so a run that gave a leaf another leaf's work fails the check.
fn leaf_checksum(i: usize, units: u32) -> u64 {
    dummy_work(u64::from(units)).wrapping_mul(i as u64 + 1)
}

/// Balanced fanin over leaves `lo..hi`: one finish block, every leaf
/// synchronising on the same in-counter.
fn fanin_rec(ctx: Ctx<'_, C>, lo: u32, hi: u32, state: Arc<FaninState>) {
    if hi - lo >= 2 {
        let mid = lo + (hi - lo) / 2;
        let other = Arc::clone(&state);
        ctx.spawn(move |c| fanin_rec(c, lo, mid, state), move |c| fanin_rec(c, mid, hi, other));
    } else {
        let checksum = leaf_checksum(lo as usize, state.work[lo as usize]);
        state.sum.fetch_add(checksum, Ordering::Relaxed);
        state.leaves.fetch_add(1, Ordering::Relaxed);
    }
}

/// An order-sensitive fold of output values (FNV-1a over words).
fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, v| (h ^ v).wrapping_mul(0x0100_0000_01B3))
}

/// How many dependents ran exactly once with the hub's value, and the sum
/// of what they stored.
fn fanout_digest(slots: impl Iterator<Item = u64>, hub: u64) -> u64 {
    let (mut once, mut sum) = (0u64, 0u64);
    for v in slots {
        once += u64::from(v == hub);
        sum = sum.wrapping_add(v);
    }
    digest([once, sum])
}

/// One hub future, `n` dependents registering in its out-set through
/// scope forks. The hub's body is gated until every add has landed (each
/// fork bumps the count after its touch returns), as `crates/bench` does
/// it: no add bounces, so the counts are exact, and the whole add path
/// runs against an unsealed out-set. Then one sweep and one `push_batch`.
fn fanout_broadcast(
    mut ctx: Ctx<'_, C>,
    n: u64,
    hub: u64,
    slots: Arc<Vec<AtomicU64>>,
    probe: Probe,
) {
    let registered = Arc::new(AtomicU64::new(0));
    let gate = Arc::clone(&registered);
    let f = ctx.future(move |_| {
        while gate.load(Ordering::Acquire) < n {
            std::hint::spin_loop();
        }
        hub
    });
    let mut scope = ctx.into_scope();
    for start in (0..n).step_by(BUILD_BATCH as usize) {
        probe.span("build", |_| {
            for i in start..(start + BUILD_BATCH).min(n) {
                let (f, registered, slots) =
                    (f.clone(), Arc::clone(&registered), Arc::clone(&slots));
                scope.fork(move |c| {
                    c.touch(&f, move |_, v| {
                        slots[i as usize].fetch_add(*v, Ordering::Relaxed);
                    });
                    // touch consumed the context and registered the edge;
                    // the body goes on.
                    registered.fetch_add(1, Ordering::Release);
                });
            }
        });
    }
}

fn pipeline_cell(a: u64, b: u64, stage: u64) -> u64 {
    a.wrapping_mul(3).wrapping_add(b).rotate_left(7) ^ stage
}

/// A `stages × width` wavefront: every cell of a stage joins two cells of
/// the stage before. The root builds every future before it returns, so
/// at one worker all of them are live at once.
fn pipeline_stages(
    mut ctx: Ctx<'_, C>,
    first_row: &[u64],
    strides: &[usize],
    last_row: Arc<Vec<AtomicU64>>,
    probe: Probe,
) {
    let width = first_row.len();
    let mut row: Vec<FutureHandle<u64>> =
        probe.span("build", |_| first_row.iter().map(|&v| ctx.future(move |_| v)).collect());
    for (stage, &k) in strides.iter().enumerate() {
        row = probe.span("build", |_| {
            (0..width)
                .map(|i| {
                    let stage = stage as u64;
                    ctx.future_join(&row[i], &row[(i + k) % width], move |_, a, b| {
                        pipeline_cell(*a, *b, stage)
                    })
                })
                .collect()
        });
    }
    let mut scope = ctx.into_scope();
    probe.span("build", |_| {
        for (i, cell) in row.into_iter().enumerate() {
            let last_row = Arc::clone(&last_row);
            scope.fork(move |c| {
                c.touch(&cell, move |_, v| last_row[i].store(*v, Ordering::Relaxed));
            });
        }
    });
}

/// What one link of the await chain makes of its predecessor's value. A
/// step the compiler cannot fold over the chain and that stays in
/// registers: the elision of a chain of `+ 1` is either nothing or, held
/// in place by `black_box`, a store and a load per link, whose time moved
/// fivefold from one 20 ms sample to the next on the host this was
/// written on.
fn chain_link(v: u64) -> u64 {
    v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// `depth` futures in one serial chain, each a strand that awaits its
/// predecessor, folded by a sink strand. The strands carry 8 bytes of
/// state, so a park touches nothing outside the vertex.
fn await_chain(mut ctx: Ctx<'_, C>, depth: u64, base: u64, out: Arc<AtomicU64>, probe: Probe) {
    let mut prev: FutureHandle<u64> = ctx.future(move |_| base);
    for start in (1..depth).step_by(BUILD_BATCH as usize) {
        probe.span("build", |_| {
            for _ in start..(start + BUILD_BATCH).min(depth) {
                let f = prev.clone();
                prev = ctx.future_strand(move |c: &mut Ctx<'_, C>| {
                    let v = *strand_await!(c, &f);
                    StrandPoll::Done(chain_link(v))
                });
            }
        });
    }
    ctx.fork_strand(move |c: &mut Ctx<'_, C>| {
        out.store(*strand_await!(c, &prev), Ordering::Relaxed);
        StrandPoll::Done(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_and_checks_at_one_and_two_workers() {
        for kind in Kind::ALL {
            let w = Workload::generate(kind, 7, true);
            assert!(w.elision_ok(w.elision(&mut Vec::new())), "{}", kind.name());
            for workers in [1, 2] {
                let it = w.run(workers, &Probe::off());
                assert_eq!(it.failure, None, "{} at W={workers}", kind.name());
            }
        }
    }

    #[test]
    fn the_seed_changes_values_not_shape() {
        for kind in Kind::ALL {
            let (a, b) = (Workload::generate(kind, 1, true), Workload::generate(kind, 2, true));
            assert_eq!(a.vertices, b.vertices, "{}", kind.name());
            assert_ne!(a.expected, b.expected, "{}", kind.name());
            let again = Workload::generate(kind, 1, true);
            assert_eq!(a.expected, again.expected, "{}", kind.name());
        }
    }

    #[test]
    fn a_wrong_output_fails_the_check() {
        let mut w = Workload::generate(Kind::Fib, 1, true);
        w.expected ^= 1;
        assert!(w.run(1, &Probe::off()).failure.is_some());
        let mut w = Workload::generate(Kind::AwaitChain, 1, true);
        w.vertices += 1;
        assert!(w.run(1, &Probe::off()).failure.is_some());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
