//! `bench layers`: the per-layer price list. Each operation is timed from
//! this file's own loop, through the layer's public functions, in batches
//! of at least a millisecond; a price is the median of fifteen batches.
//! `_c` is the same operation from W threads on one shared object.
//! README.md says which end-to-end metric each price should move.

use std::alloc::{alloc, dealloc, Layout};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam::epoch::Domain;
use incounter::{CounterFamily, DynConfig, DynSnzi};
use outset::{OutsetFamily, TreeOutset};
use sched::{deque, recycle, PoolArc, StealResult, Termination};
use snzi::{Handle, SnziTree};
use spdag::{run_dag, strand_await, Ctx, FutureHandle, StrandPoll};

use crate::affinity::Affinity;
use crate::hang;
use crate::record::{Env, Record, Report};
use crate::stats::{self, Summary};
use crate::workloads::{calibrate_dummy_unit_ns, config};

type C = DynSnzi;

const BATCHES: usize = 15;
const MIN_BATCH: Duration = Duration::from_millis(1);
/// Tokens in the out-set the sweep price is taken on.
const SWEEP_TOKENS: u64 = 4096;
/// Acquires, then releases, per overflow cycle: past the per-thread cache
/// bound of the slab pools.
const OVERFLOW_SLABS: usize = 256;
/// The slab class the recycler prices are taken on.
const SLAB_BYTES: usize = 128;

/// What a batch did: operations, and the time they took (preparation and
/// teardown excluded by the batch itself).
type Batch = (u64, Duration);

struct Pricer<'a> {
    env: &'a Env,
    quick: bool,
    records: Vec<Record>,
}

impl Pricer<'_> {
    fn record(&mut self, metric: &str, unit: &str, summary: Summary, over: &str) {
        self.records.push(Record {
            workload: "layers".to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            summary,
            over: over.to_string(),
            env: self.env.clone(),
        });
    }

    /// Price one operation in ns. `batch(n)` does about `n` operations.
    /// The batch size is doubled until a batch lasts [`MIN_BATCH`].
    fn price(&mut self, metric: &str, mut batch: impl FnMut(u64) -> Batch) {
        let (min_batch, batches) =
            if self.quick { (MIN_BATCH / 20, 3) } else { (MIN_BATCH, BATCHES) };
        let mut n = 16;
        while batch(n).1 < min_batch && n < 1 << 30 {
            n *= 2;
        }
        let per_op: Vec<f64> = (0..batches)
            .map(|_| {
                let (ops, elapsed) = batch(n);
                elapsed.as_nanos() as f64 / ops.max(1) as f64
            })
            .collect();
        self.record(metric, "ns", stats::summarize(&per_op), "batches");
    }
}

/// Time `n` calls of `op` on this thread.
fn timed(n: u64, mut op: impl FnMut(u64)) -> Batch {
    let t0 = Instant::now();
    for i in 0..n {
        op(i);
    }
    (n, t0.elapsed())
}

/// `threads` threads, this one included, each run `body(thread index)`
/// from a common start. `body` returns its own batch; the result is the
/// operations of one thread and the mean time a thread took, so a price
/// taken through here is what one thread pays per operation while the
/// others do the same.
fn contended(threads: usize, body: impl Fn(usize) -> Batch + Sync) -> Batch {
    let barrier = Barrier::new(threads);
    let run = |tid: usize| {
        barrier.wait();
        body(tid)
    };
    let batches: Vec<Batch> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|tid| scope.spawn(move || run(tid))).collect();
        let mine = run(0);
        let mut all = vec![mine];
        all.extend(others.into_iter().map(|h| h.join().expect("pricing thread panicked")));
        all
    });
    let total: Duration = batches.iter().map(|b| b.1).sum();
    (batches[0].0, total / threads as u32)
}

/// At least `n` handles into `tree`, no two the same node, from growing
/// it breadth-first.
fn spread_handles(tree: &SnziTree, n: usize) -> Vec<Handle> {
    let mut frontier = VecDeque::from([tree.root_handle()]);
    while frontier.len() < n.max(2) {
        let h = frontier.pop_front().expect("frontier is never empty");
        // SAFETY: `h` is a handle of `tree`, which the caller keeps alive.
        let (a, b) = unsafe { tree.grow_always(h) };
        frontier.extend([a, b]);
    }
    frontier.into()
}

/// One fork-join step on a live in-counter, as `Vertex::fork_rotate` and
/// the forked child's signal perform it: one increment, one decrement
/// pair built and claimed, and the decrement of the inherited (higher)
/// handle. The surplus ends where it began, so the step can repeat on one
/// counter; a step with two decrements would drain it.
struct ForkChain {
    inc: <C as CounterFamily>::Inc,
    held: <C as CounterFamily>::Dec,
    is_left: bool,
}

impl ForkChain {
    fn step(&mut self, cfg: &DynConfig, counter: &SnziTree, vid: u64) {
        // SAFETY: `inc` and `held` came from this counter (its root
        // handles, or an earlier step), the counter outlives the call, and
        // every decrement handle is used once: the execution is valid.
        unsafe {
            let (fresh, _left, right) = C::increment(cfg, counter, self.inc, self.is_left, vid);
            let pair = C::make_pair(cfg, self.held, fresh);
            let zero = C::decrement(counter, pair.claim());
            debug_assert!(!zero);
            self.held = pair.claim();
            self.inc = right;
            self.is_left = false;
        }
    }
}

fn snzi_prices(p: &mut Pricer, workers: usize) {
    let tree = SnziTree::new(1);
    let handles = spread_handles(&tree, workers);
    let pair = |h: Handle| {
        // SAFETY: `h` belongs to `tree`, alive throughout; each depart
        // follows its arrive at the same node.
        unsafe {
            tree.arrive(h);
            black_box(tree.depart(h));
        }
    };
    p.price("snzi.arrive_depart_ns", |n| timed(n, |_| pair(handles[0])));
    p.price("snzi.arrive_depart_ns_c", |n| {
        contended(workers, |tid| timed(n, |_| pair(handles[tid])))
    });
    p.price("snzi.grow_ns", |n| {
        let tree = SnziTree::new(1);
        let mut frontier = VecDeque::from([tree.root_handle()]);
        timed(n, |_| {
            let h = frontier.pop_front().expect("frontier is never empty");
            // SAFETY: `h` is a handle of `tree`, dropped after the batch.
            let (a, b) = unsafe { tree.grow_always(h) };
            frontier.extend([a, b]);
        })
    });
}

fn incounter_prices(p: &mut Pricer, workers: usize) {
    let cfg = config();
    p.price("incounter.make_ns", |n| {
        timed(n, |_| {
            black_box(C::make(&cfg, 1));
        })
    });
    p.price("incounter.inc_dec_ns", |n| {
        let counter = C::make(&cfg, 1);
        let mut chain =
            ForkChain { inc: C::root_inc(&counter), held: C::root_dec(&counter), is_left: true };
        timed(n, |i| chain.step(&cfg, &counter, i))
    });
    p.price("incounter.inc_dec_ns_c", |n| {
        // One counter, one unit of surplus per thread, each thread
        // starting from its own node as sibling strands do.
        let counter = C::make(&cfg, workers as u64);
        let starts = spread_handles(&counter, workers);
        contended(workers, |tid| {
            let mut chain =
                ForkChain { inc: starts[tid], held: C::root_dec(&counter), is_left: tid % 2 == 0 };
            timed(n, |i| chain.step(&cfg, &counter, i))
        })
    });
}

/// Tokens are vertex addresses in real use: non-zero and 8-aligned.
fn token(i: u64) -> u64 {
    (i + 1) * 8
}

fn outset_prices(p: &mut Pricer, workers: usize) {
    let add = |set: &<TreeOutset as OutsetFamily>::Outset, i: u64, key: u64| {
        let _ = black_box(TreeOutset::add(set, token(i), key));
    };
    p.price("outset.add_ns", |n| {
        let set = TreeOutset::make();
        timed(n, |i| add(&set, i, 0))
    });
    p.price("outset.add_ns_c", |n| {
        let set = TreeOutset::make();
        contended(workers, |tid| timed(n, |i| add(&set, tid as u64 * n + i, tid as u64)))
    });
    p.price("outset.finish_ns_per_token", |n| {
        let (mut ops, mut elapsed) = (0, Duration::ZERO);
        while ops < n {
            let set = TreeOutset::make();
            (0..SWEEP_TOKENS).for_each(|i| add(&set, i, 0));
            let mut delivered = 0u64;
            let t0 = Instant::now();
            TreeOutset::finish(&set, &mut |_| delivered += 1);
            elapsed += t0.elapsed();
            assert_eq!(delivered, SWEEP_TOKENS, "sweep lost tokens");
            ops += SWEEP_TOKENS;
        }
        (ops, elapsed)
    });
    p.price("outset.small_cycle_ns", |n| {
        timed(n, |i| {
            let set = TreeOutset::make();
            add(&set, i, 0);
            add(&set, i + 1, 0);
            TreeOutset::finish(&set, &mut |t| {
                black_box(t);
            });
        })
    });
    p.price("outset.make_drop_ns", |n| {
        timed(n, |_| {
            black_box(TreeOutset::make());
        })
    });
    let fresh = TreeOutset::make().footprint_bytes();
    p.record("outset.footprint_bytes", "B", Summary::single(fresh as f64), "once");
}

fn epoch_prices(p: &mut Pricer, workers: usize) {
    // A private domain with the out-set's stripe count: what `add` pins.
    let domain = Domain::with_stripes(outset::tree::OUTSET_PIN_STRIPES);
    let pin = |_| drop(black_box(domain.pin()));
    p.price("epoch.pin_ns", |n| timed(n, pin));
    p.price("epoch.pin_ns_c", |n| contended(workers, |_| timed(n, pin)));
}

fn deque_prices(p: &mut Pricer, workers: usize) {
    p.price("deque.push_pop_ns", |n| {
        let (owner, _stealer) = deque::deque::<usize>();
        timed(n, |i| {
            owner.push(i as usize);
            black_box(owner.pop());
        })
    });
    let steal_all = |stealer: &sched::Stealer<usize>, n: u64| {
        let (t0, mut got) = (Instant::now(), 0u64);
        while got < n {
            match stealer.steal() {
                StealResult::Success(task) => {
                    black_box(task);
                    got += 1;
                }
                StealResult::Retry => std::hint::spin_loop(),
                StealResult::Empty => break,
            }
        }
        (got, t0.elapsed())
    };
    p.price("deque.steal_ns", |n| {
        let (owner, stealer) = deque::deque::<usize>();
        (0..n as usize).for_each(|i| owner.push(i));
        steal_all(&stealer, n)
    });
    // The thief's price per steal while the owner pops the other end.
    // With one worker there is no second thread to pop.
    p.price("deque.steal_ns_c", |n| {
        let (owner, stealer) = deque::deque::<usize>();
        (0..2 * n as usize).for_each(|i| owner.push(i));
        if workers < 2 {
            return steal_all(&stealer, n);
        }
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            let thief = scope.spawn(|| {
                barrier.wait();
                steal_all(&stealer, n)
            });
            barrier.wait();
            for _ in 0..n {
                black_box(owner.pop());
            }
            thief.join().expect("thief panicked")
        })
    });
}

fn recycle_prices(p: &mut Pricer) {
    let class = recycle::class_for(SLAB_BYTES, 8).expect("128 B is on the class ladder");
    p.price("recycle.acquire_release_ns", |n| {
        timed(n, |_| {
            let (slab, _) = recycle::acquire_or_alloc(class);
            recycle::release(class, black_box(slab));
        })
    });
    p.price("recycle.overflow_cycle_ns", |n| {
        let mut held = Vec::with_capacity(OVERFLOW_SLABS);
        let cycles = n.div_ceil(OVERFLOW_SLABS as u64);
        let t0 = Instant::now();
        for _ in 0..cycles {
            held.extend((0..OVERFLOW_SLABS).map(|_| recycle::acquire_or_alloc(class).0));
            held.drain(..).for_each(|slab| recycle::release(class, slab));
        }
        (cycles * OVERFLOW_SLABS as u64, t0.elapsed())
    });
    let layout = Layout::from_size_align(SLAB_BYTES, 16).expect("valid layout");
    p.price("recycle.malloc_free_ns", |n| {
        timed(n, |_| {
            // SAFETY: a non-zero layout; the block is freed with the same
            // layout right after, and never read.
            unsafe {
                let ptr = black_box(alloc(layout));
                assert!(!ptr.is_null());
                dealloc(ptr, layout);
            }
        })
    });
    // A decrement pair of the in-counter is five words.
    p.price("poolarc.new_drop_ns", |n| {
        timed(n, |i| {
            black_box(PoolArc::new([i; 5]));
        })
    });
}

fn pool_prices(p: &mut Pricer, workers: usize) {
    p.price("pool.spinup_ns", |n| {
        timed(n, |_| {
            hang::watch(|| {
                sched::run(workers, vec![0usize], Termination::DoneFlag, |ctx, _| ctx.finish())
            });
        })
    });
    if workers < 2 {
        // Nobody to wake: the metric needs a second worker.
        p.record("pool.remote_run_ns", "ns", Summary::single(0.0), "once");
        return;
    }
    // Worker 0 pushes a task and spins on the flag the task sets. It never
    // returns to its deque meanwhile, so another worker must wake, steal
    // and run the task. The pause before each push lets that worker run
    // down its spin-and-yield ladder and park again.
    p.price("pool.remote_run_ns", |n| {
        let (flag, waited_ns) = (AtomicBool::new(false), AtomicU64::new(0));
        hang::watch(|| {
            sched::run(workers, vec![0usize], Termination::DoneFlag, |ctx, task| {
                if task != 0 {
                    flag.store(true, Ordering::Release);
                    return;
                }
                for _ in 0..n {
                    let pause = Instant::now();
                    while pause.elapsed() < Duration::from_micros(200) {
                        std::hint::spin_loop();
                    }
                    let t0 = Instant::now();
                    ctx.push(1);
                    while !flag.swap(false, Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    waited_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                ctx.finish();
            })
        });
        (n, Duration::from_nanos(waited_ns.load(Ordering::Relaxed)))
    });
}

/// `run_dag` at one worker, pinned like the W=1 iterations of the
/// end-to-end run whose cost these prices are held against.
fn run_dag_w1(pin: &Affinity, root: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static) {
    pin.pinned(|| hang::watch(|| run_dag::<C, _>(config(), 1, root)));
}

/// Run `program` as the first half of a chain at one worker and time it
/// from the root body's entry to the chain's continuation: the program
/// alone, without the pool's start and stop.
fn inner_time(
    pin: &Affinity,
    program: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
) -> Duration {
    let span_ns = Arc::new(AtomicU64::new(0));
    let out = Arc::clone(&span_ns);
    run_dag_w1(pin, move |ctx| {
        let t0 = Instant::now();
        ctx.chain(program, move |_| {
            out.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
    });
    Duration::from_nanos(span_ns.load(Ordering::Relaxed))
}

fn fanin_empty(ctx: Ctx<'_, C>, leaves: u64) {
    if leaves >= 2 {
        ctx.spawn(move |c| fanin_empty(c, leaves / 2), move |c| fanin_empty(c, leaves / 2));
    }
}

fn indegree2(ctx: Ctx<'_, C>, leaves: u64) {
    if leaves >= 2 {
        ctx.chain(
            move |c| c.spawn(move |c| indegree2(c, leaves / 2), move |c| indegree2(c, leaves / 2)),
            |_| {},
        );
    }
}

/// A serial chain of `depth` futures, continuation-passing or blocking.
fn future_chain(mut ctx: Ctx<'_, C>, depth: u64, blocking: bool) {
    let mut prev: FutureHandle<u64> = ctx.future(|_| 0);
    for _ in 1..depth {
        prev = if blocking {
            let f = prev.clone();
            ctx.future_strand(move |c: &mut Ctx<'_, C>| StrandPoll::Done(*strand_await!(c, &f) + 1))
        } else {
            ctx.future_then(&prev, |_, v| v + 1)
        };
    }
    ctx.touch(&prev, move |_, v| assert_eq!(*v, depth - 1, "chain misfolded"));
}

fn spdag_prices(p: &mut Pricer, pin: &Affinity) {
    p.price("spdag.run_dag_empty_ns", |n| timed(n, |_| run_dag_w1(pin, |_| {})));
    // Sizes are powers of two at least 256, so a batch of n operations is
    // one dag of about that many.
    let size = |n: u64| n.next_power_of_two().max(256);
    // A balanced fanin of `leaves` empty leaves: 2·(leaves − 1) vertices.
    p.price("spdag.spawn_ns_per_vertex", |n| {
        let leaves = size(n);
        (2 * (leaves - 1), inner_time(pin, move |ctx| fanin_empty(ctx, leaves)))
    });
    // The indegree2 shape: per internal node one chain and one spawn.
    p.price("spdag.chain_ns", |n| {
        let leaves = size(n);
        (leaves - 1, inner_time(pin, move |ctx| indegree2(ctx, leaves)))
    });
    p.price("spdag.future_touch_ns", |n| {
        let depth = size(n);
        (depth, inner_time(pin, move |ctx| future_chain(ctx, depth, false)))
    });
    p.price("spdag.touch_await_ns", |n| {
        let depth = size(n);
        (depth, inner_time(pin, move |ctx| future_chain(ctx, depth, true)))
    });
}

fn par_prices(p: &mut Pricer, pin: &Affinity, quick: bool) {
    let items: u64 = if quick { 1 << 14 } else { 1 << 20 };
    p.price("par.for_ns_per_item", |_| {
        let elapsed = inner_time(pin, move |ctx| {
            dynsnzi::par::parallel_for(ctx, 0..items, 1024, |i| {
                black_box(i);
            });
        });
        (items, elapsed)
    });
}

/// The two `obs` prices. Their probes are compiled out of the build the
/// other prices come from, so the traced run takes them and adds them to
/// the list.
pub fn obs_prices(quick: bool, env: &Env) -> Vec<Record> {
    let mut p = Pricer { env, quick, records: Vec::new() };
    p.price("obs.counter_inc_ns", |n| timed(n, |_| obs::counter!("bench.price_probe").inc()));
    p.price("obs.snapshot_take_ns", |n| {
        timed(n, |_| {
            black_box(obs::Snapshot::take());
        })
    });
    p.records
}

pub fn layers(quick: bool, env: &Env) -> Result<Report, String> {
    if obs::enabled() {
        return Err("prices come from the build without `telemetry`".to_string());
    }
    let _monitor = hang::Monitor::install(|| {});
    let mut p = Pricer { env, quick, records: Vec::new() };
    let workers = env.workers;
    snzi_prices(&mut p, workers);
    incounter_prices(&mut p, workers);
    outset_prices(&mut p, workers);
    epoch_prices(&mut p, workers);
    deque_prices(&mut p, workers);
    recycle_prices(&mut p);
    pool_prices(&mut p, workers);
    let pin = Affinity::current().map_err(|e| format!("CPU affinity: {e}"))?;
    spdag_prices(&mut p, &pin);
    par_prices(&mut p, &pin, quick);
    let unit = Summary::single(calibrate_dummy_unit_ns());
    p.record("work.dummy_unit_ns", "ns", unit, "once");
    let attempted = p.records.len() as u64;
    Ok(Report { records: p.records, extras: Vec::new(), attempted, failed: 0 })
}
