//! One worker, no lock prefix (`spdag::vertex`, module docs): in a
//! one-worker run the dag layer steps its in-counters, decrement pairs,
//! `owed` words and out-sets by load and store. This battery drives every
//! route to those steps at W = 1 over every counter family — `DynSnzi` at `always_grow`,
//! `never_grow` and the default coin, `FetchAdd`, `FixedDepth` at depths 0
//! and 2 — and checks exact results and exact ledgers (`tests/common`):
//! everything born dies, and `tasks − resumes` is the number of vertices.
//!
//! The routes: spawn trees (increment, both claims, the signal's
//! decrement), chains nested in spawns, a `touch` whose registration lands
//! and one that bounces (the two deliveries of a continuation's `owed`), a
//! `touch_await` that parks and resumes (both deliveries of a parked
//! strand's), and a strand that panics while parked (`commit_park` from
//! the unwind path). The out-set routes run in one dag: a future with
//! enough touchers to install three blocks, a bounced touch, a
//! `touch_await` park and an `async` await, with the out-set's ledger
//! checked too; under `fault-inject` its block installs are lost at
//! random, and the lane table splits. Then the two cases the exclusivity
//! argument must survive: a watched one-worker run, whose watchdog is a
//! second thread holding the run's pool state, and one-worker runs nested
//! in the vertices of a two-worker run, whose workers step shared counters
//! of their own meanwhile.
//!
//! Tests serialize on the binary's lock (`tests/common`): the ledgers are
//! diffs of the global telemetry registry.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::{serial, Ledger, Serial};
use dynsnzi::prelude::*;
use sched::WatchdogCfg;
use spdag::{run_dag_watched, DagRunStats};

/// Run `$case::<C>(s, cfg)` over every family.
macro_rules! over_families {
    ($case:ident, $s:expr) => {
        $case::<DynSnzi>($s, DynConfig::always_grow());
        $case::<DynSnzi>($s, DynConfig::never_grow());
        $case::<DynSnzi>($s, DynConfig::default());
        $case::<FetchAdd>($s, ());
        $case::<FixedDepth>($s, FixedConfig { depth: 0 });
        $case::<FixedDepth>($s, FixedConfig { depth: 2 });
    };
}

fn label<C: CounterFamily>(shape: &str) -> String {
    format!("{shape} on {} at W=1", C::NAME)
}

fn spawn_tree<C: CounterFamily>(ctx: Ctx<'_, C>, depth: u32, hits: Arc<AtomicU64>) {
    if depth == 0 {
        hits.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let h = Arc::clone(&hits);
    ctx.spawn(move |c| spawn_tree(c, depth - 1, h), move |c| spawn_tree(c, depth - 1, hits));
}

/// `n` leaves below binary chains and spawns: every level opens a finish
/// scope of its own and forks it once.
fn chains_and_spawns<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, hits: Arc<AtomicU64>) {
    if n < 2 {
        hits.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let h = Arc::clone(&hits);
    ctx.chain(
        move |c| {
            let (a, b) = (Arc::clone(&h), h);
            c.spawn(
                move |c2| chains_and_spawns(c2, n / 2, a),
                move |c2| chains_and_spawns(c2, n / 2, b),
            );
        },
        move |_| {
            hits.fetch_add(1000, Ordering::Relaxed);
        },
    );
}

fn trees_and_chains<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let ledger = Ledger::open(s);
    let stats = run_dag::<C, _>(cfg.clone(), 1, move |ctx| spawn_tree(ctx, 10, h));
    ledger.close(&label::<C>("spawn tree"), &[&stats.pool]);
    assert_eq!(hits.load(Ordering::Relaxed), 1 << 10, "{}", label::<C>("spawn tree"));
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let ledger = Ledger::open(s);
    let stats = run_dag::<C, _>(cfg, 1, move |ctx| chains_and_spawns(ctx, 64, h));
    ledger.close(&label::<C>("chains and spawns"), &[&stats.pool]);
    // 64 leaves; 63 chains, each with a `then` worth 1000.
    assert_eq!(hits.load(Ordering::Relaxed), 64 + 63 * 1000, "{}", label::<C>("chains and spawns"));
}

/// A `touch` whose registration lands: at W = 1 the future's body waits in
/// the deque behind the root, so the root's touch finds it unfinished and
/// the completion sweep makes the delivery.
fn touch_registered<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    let out = Arc::new(AtomicU64::new(0));
    let o = Arc::clone(&out);
    let ledger = Ledger::open(s);
    let stats = run_dag::<C, _>(cfg, 1, move |mut ctx| {
        // Eight futures fork the root's scope eight times; the touch is on
        // the last, whose body the worker pops first.
        let futures: Vec<FutureHandle<u64>> =
            (0..8u64).map(|i| ctx.future(move |_| i + 1)).collect();
        ctx.touch(&futures[7], move |_, v| o.store(*v, Ordering::Relaxed));
    });
    assert_eq!(out.load(Ordering::Relaxed), 8, "{}", label::<C>("registered touch"));
    if let Some((_, d)) = ledger.close(&label::<C>("registered touch"), &[&stats.pool]) {
        assert_eq!(d.counter("outset.adds_bounced"), 0, "{}", label::<C>("registered touch"));
        assert_eq!(d.counter("outset.swept"), 1, "{}", label::<C>("registered touch"));
    }
}

/// A `touch` that bounces: the future completes inside `first` of a
/// chain, so the touch in `then` finds its out-set sealed and delivers the
/// continuation's one owed delivery inline.
fn touch_bounced<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    let out = Arc::new(AtomicU64::new(0));
    let o = Arc::clone(&out);
    let ledger = Ledger::open(s);
    let stats = run_dag::<C, _>(cfg, 1, move |ctx| {
        let slot: Arc<Mutex<Option<FutureHandle<u64>>>> = Arc::new(Mutex::new(None));
        let s = Arc::clone(&slot);
        ctx.chain(
            move |mut c| {
                let f = c.future(|_| 42u64);
                *s.lock().unwrap() = Some(f);
            },
            move |c| {
                let f = slot.lock().unwrap().take().expect("first ran");
                assert!(f.is_done(), "`then` runs after `first`'s future");
                c.touch(&f, move |_, v| o.store(*v, Ordering::Relaxed));
            },
        );
    });
    assert_eq!(out.load(Ordering::Relaxed), 42, "{}", label::<C>("bounced touch"));
    if let Some((_, d)) = ledger.close(&label::<C>("bounced touch"), &[&stats.pool]) {
        assert_eq!(d.counter("outset.adds_bounced"), 1, "{}", label::<C>("bounced touch"));
    }
}

/// Strands that park and resume: each awaits a future made before it,
/// whose body the one worker pops only after the strand (pushed later):
/// both deliveries of every park — the sweep's and `commit_park`'s — are
/// made on the one thread.
fn strands_park_and_resume<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    const LINKS: u64 = 32;
    let out = Arc::new(AtomicU64::new(0));
    let o = Arc::clone(&out);
    let ledger = Ledger::open(s);
    let stats = run_dag::<C, _>(cfg, 1, move |mut ctx| {
        let mut prev: FutureHandle<u64> = ctx.future(|_| 0u64);
        for _ in 1..LINKS {
            let f = prev.clone();
            prev = ctx.future_strand(move |c: &mut Ctx<'_, C>| {
                StrandPoll::Done(*strand_await!(c, &f) + 1)
            });
        }
        ctx.fork_strand(move |c: &mut Ctx<'_, C>| {
            o.store(*strand_await!(c, &prev), Ordering::Relaxed);
            StrandPoll::Done(())
        });
    });
    ledger.close(&label::<C>("touch_await chain"), &[&stats.pool]);
    assert_eq!(out.load(Ordering::Relaxed), LINKS - 1, "{}", label::<C>("touch_await chain"));
    assert!(stats.pool.suspends >= 1, "{}: nothing parked", label::<C>("touch_await chain"));
}

/// A strand that panics right after its `touch_await` parked: the unwind
/// path commits the park with the body left empty, the future's sweep
/// makes the other delivery, the scope drains, and the panic reaches the
/// caller — with every ledger exact.
fn strand_panics_while_parked<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    let ran_after = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&ran_after);
    let ledger = Ledger::open(s);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_dag::<C, _>(cfg, 1, move |mut ctx| {
            let f = ctx.future(|_| 7u64);
            let r2 = Arc::clone(&r);
            ctx.fork(move |_| {
                r2.fetch_add(1, Ordering::Relaxed);
            });
            ctx.fork_strand(move |c: &mut Ctx<'_, C>| match c.touch_await(&f) {
                StrandTouch::Parked => panic!("parked, then panicked"),
                StrandTouch::Ready(_) => unreachable!("the future's body runs after this"),
            });
            r.fetch_add(10, Ordering::Relaxed);
        });
    }));
    ledger.close(&label::<C>("panic while parked"), &[]);
    let payload = result.expect_err("the body's panic reaches the caller");
    let text = payload.downcast_ref::<&str>().copied().unwrap_or("");
    assert_eq!(text, "parked, then panicked", "{}", label::<C>("panic while parked"));
    assert_eq!(ran_after.load(Ordering::Relaxed), 11, "{}: the rest drained", label::<C>("panic"));
}

#[test]
fn one_worker_runs_keep_exact_ledgers_on_every_family() {
    let s = serial();
    over_families!(trees_and_chains, &s);
    over_families!(touch_registered, &s);
    over_families!(touch_bounced, &s);
    over_families!(strands_park_and_resume, &s);
    over_families!(strand_panics_while_parked, &s);
}

/// More touchers than two blocks hold: the hub future's out-set installs a
/// third block, every install by load and store.
const HUB_TOUCHERS: u64 = 2 * outset::BLOCK_SLOTS as u64 + 1;

/// Every out-set route at W = 1 in one run, all on one hub future:
/// `HUB_TOUCHERS` touches that register (the hub's body waits in the deque
/// behind them), a strand whose `touch_await` parks and an `async` block
/// whose `.await` parks (both pushed after the body, so popped before it),
/// and in `then` of the chain around them a touch of the completed hub,
/// which bounces. Checks the value each route read, the hub's shape and —
/// once the hub is dropped — the ledgers, the out-set's included; returns
/// how often the hub's lane table split.
fn outset_routes<C: CounterFamily>(s: &Serial, cfg: C::Config) -> usize {
    let what = label::<C>("out-set routes");
    let out = Arc::new(AtomicU64::new(0));
    let slot: Arc<Mutex<Option<FutureHandle<u64>>>> = Arc::new(Mutex::new(None));
    let (o, put) = (Arc::clone(&out), Arc::clone(&slot));
    let ledger = Ledger::open(s);
    let stats = run_dag::<C, _>(cfg, 1, move |ctx| {
        let o2 = Arc::clone(&o);
        let put2 = Arc::clone(&put);
        ctx.chain(
            move |mut c| {
                let hub = c.future(|_| 5u64);
                for _ in 0..HUB_TOUCHERS {
                    let (h, o) = (hub.clone(), Arc::clone(&o2));
                    c.fork(move |c| {
                        c.touch(&h, move |_, v| {
                            o.fetch_add(*v, Ordering::Relaxed);
                        })
                    });
                }
                let (h, o) = (hub.clone(), Arc::clone(&o2));
                c.fork_strand(move |c: &mut Ctx<'_, C>| {
                    o.fetch_add(*strand_await!(c, &h) * 100, Ordering::Relaxed);
                    StrandPoll::Done(())
                });
                let (h, o) = (hub.clone(), o2);
                c.fork_async(async move {
                    o.fetch_add(h.await * 10_000, Ordering::Relaxed);
                });
                *put2.lock().unwrap() = Some(hub);
            },
            move |c| {
                let hub = put.lock().unwrap().clone().expect("first ran");
                assert!(hub.is_done(), "`then` runs after `first`'s future");
                c.touch(&hub, move |_, v| {
                    o.fetch_add(*v * 1_000_000, Ordering::Relaxed);
                });
            },
        );
    });
    let want = 5 * (HUB_TOUCHERS + 100 + 10_000 + 1_000_000);
    assert_eq!(out.load(Ordering::Relaxed), want, "{what}");
    let hub = slot.lock().unwrap().take().expect("the run kept the hub");
    assert_eq!(hub.outset().block_count(), 3, "{what}: blocks of the hub's lane");
    let splits = hub.outset().splits();
    assert_eq!(hub.outset().lane_count(), 1 << splits, "{what}: lanes");
    drop(hub);
    if let Some((_, d)) = ledger.close(&what, &[&stats.pool]) {
        let (adds, bounced) = (d.counter("outset.adds"), d.counter("outset.adds_bounced"));
        assert_eq!((adds, bounced), (HUB_TOUCHERS + 3, 1), "{what}: adds and bounces");
    }
    splits
}

#[test]
fn one_worker_out_sets_keep_exact_ledgers() {
    let s = serial();
    macro_rules! tree {
        ($c:ty, $cfg:expr) => {
            assert_eq!(outset_routes::<$c>(&s, $cfg), 0, "no install is lost at W = 1");
        };
    }
    tree!(DynSnzi, DynConfig::default());
    tree!(DynSnzi, DynConfig::never_grow());
    tree!(FetchAdd, ());
    tree!(FixedDepth, FixedConfig { depth: 2 });
}

/// Under `fault-inject` the hub's block installs are lost at random: each
/// lost install flips the split coin, and the exclusive add that lost it
/// retries on whatever table it finds, grown or not.
#[cfg(feature = "fault-inject")]
#[test]
fn a_lost_install_at_one_worker_splits_the_lane_table() {
    use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
    let s = serial();
    // Each install is lost with probability 1/2, and each loss splits
    // with probability 1/2: 64 losses leave no split with probability
    // 2^-64 (a hub at its cap splits no further, but it has split by then).
    let lose_half = SiteSpec { site: "outset.install_cas".into(), mode: FaultMode::OneIn(2) };
    failpoint::install(&FaultPlan::new(37, vec![lose_half]));
    let result = catch_unwind(|| {
        let (mut hubs, mut splits) = (0, 0);
        while failpoint::injected_count() < 64 {
            // Exactly-once delivery and the out-set's ledger are checked
            // inside, and every toucher keys on worker 0, which hashes to
            // lane 0 — the inline one, where all three blocks sit —
            // whatever the table.
            (hubs, splits) =
                (hubs + 1, splits + outset_routes::<DynSnzi>(&s, DynConfig::default()));
        }
        (hubs, splits)
    });
    let injected = failpoint::injected_count();
    failpoint::clear();
    let (hubs, splits) = result.unwrap_or_else(|e| std::panic::resume_unwind(e));
    assert!(injected >= 64, "{injected} installs lost");
    assert!(splits >= 1, "{injected} lost installs over {hubs} hubs split nothing");
}

/// Every route above in one dag body: a spawn tree of `2^depth` leaves,
/// each spinning `leaf` first, as the `first` of a chain whose `then`
/// touches a future, and a strand that awaits a `future_then` of that
/// future. Adds `mixed_expect(depth)` to `out`.
fn mixed<C: CounterFamily>(mut ctx: Ctx<'_, C>, depth: u32, leaf: Duration, out: Arc<AtomicU64>) {
    fn tree<C: CounterFamily>(ctx: Ctx<'_, C>, depth: u32, leaf: Duration, out: Arc<AtomicU64>) {
        if depth == 0 {
            let until = Instant::now() + leaf;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            out.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let o = Arc::clone(&out);
        ctx.spawn(move |c| tree(c, depth - 1, leaf, o), move |c| tree(c, depth - 1, leaf, out));
    }
    let a = ctx.future(|_| 100u64);
    let b = ctx.future_then(&a, |_, v| v + 1);
    let o = Arc::clone(&out);
    ctx.fork_strand(move |c: &mut Ctx<'_, C>| {
        o.fetch_add(*strand_await!(c, &b) * 1000, Ordering::Relaxed);
        StrandPoll::Done(())
    });
    let o = Arc::clone(&out);
    ctx.chain(
        move |c| tree(c, depth, leaf, o),
        move |c| {
            // At W = 1 `a`'s body still waits at the bottom of the deque,
            // under the chain: a registration the sweep delivers.
            c.touch(&a, move |_, v| {
                out.fetch_add(*v * 1_000_000, Ordering::Relaxed);
            });
        },
    );
}

fn mixed_expect(depth: u32) -> u64 {
    (1 << depth) + 101 * 1000 + 100 * 1_000_000
}

fn watched_one_worker_run<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    // The watchdog polls every 25 ms over a run of about 64 × 2 ms: it
    // reads the pool's progress while the one worker steps the dag layer
    // by load and store, and never declares a stall.
    let watchdog = WatchdogCfg { stall_timeout: Duration::from_millis(200) };
    let out = Arc::new(AtomicU64::new(0));
    let o = Arc::clone(&out);
    let ledger = Ledger::open(s);
    let stats: DagRunStats = run_dag_watched::<C, _>(cfg, 1, watchdog, move |ctx| {
        mixed(ctx, 6, Duration::from_millis(2), o)
    });
    ledger.close(&label::<C>("watched run"), &[&stats.pool]);
    assert_eq!(out.load(Ordering::Relaxed), mixed_expect(6), "{}", label::<C>("watched run"));
}

#[test]
fn a_watched_one_worker_run_is_exact() {
    let s = serial();
    over_families!(watched_one_worker_run, &s);
}

fn nested_in_a_two_worker_run<C: CounterFamily>(s: &Serial, cfg: C::Config) {
    // Every forked vertex of the outer run (two workers, shared steps on
    // the outer counter) runs a one-worker dag of its own (exclusive steps
    // on its counters), while the outer run's futures are touched by the
    // outer run only.
    const INNER: u64 = 12;
    let total = Arc::new(AtomicU64::new(0));
    let t = Arc::clone(&total);
    let outer_cfg = cfg.clone();
    let ledger = Ledger::open(s);
    run_dag::<C, _>(outer_cfg, 2, move |mut ctx| {
        let gate = ctx.future(|_| 5u64);
        let mut scope = ctx.into_scope();
        for _ in 0..INNER {
            let (t, cfg, gate) = (Arc::clone(&t), cfg.clone(), gate.clone());
            scope.fork(move |c| {
                let inner = Arc::new(AtomicU64::new(0));
                let i = Arc::clone(&inner);
                let stats = run_dag::<C, _>(cfg, 1, move |ctx| mixed(ctx, 5, Duration::ZERO, i));
                assert_eq!(stats.pool.suspends, stats.pool.resumes);
                assert_eq!(inner.load(Ordering::Relaxed), mixed_expect(5));
                let t2 = Arc::clone(&t);
                c.touch(&gate, move |_, v| {
                    t2.fetch_add(mixed_expect(5) + *v, Ordering::Relaxed);
                });
            });
        }
    });
    // Outer and inner stats both count: only conservation is checked.
    ledger.close(&label::<C>("nested one-worker runs"), &[]);
    assert_eq!(
        total.load(Ordering::Relaxed),
        INNER * (mixed_expect(5) + 5),
        "{}",
        label::<C>("nested one-worker runs")
    );
}

#[test]
fn one_worker_runs_nested_in_a_two_worker_run() {
    let s = serial();
    over_families!(nested_in_a_two_worker_run, &s);
}
