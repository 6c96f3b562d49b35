//! Heavier end-to-end concurrency stress: full dag programs on real worker
//! pools, oversubscribed, across all counter families.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use incounter::{CounterFamily, DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};
use spdag::{run_dag, Ctx};

fn fanin_counting<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, hits: Arc<AtomicU64>) {
    if n >= 2 {
        let (h1, h2) = (Arc::clone(&hits), hits);
        ctx.spawn(move |c| fanin_counting(c, n / 2, h1), move |c| fanin_counting(c, n / 2, h2));
    } else {
        hits.fetch_add(1, Ordering::Relaxed);
    }
}

fn check_fanin<C: CounterFamily>(cfg: C::Config, workers: usize, n: u64) {
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let stats = run_dag::<C, _>(cfg, workers, move |ctx| fanin_counting(ctx, n, h));
    assert_eq!(hits.load(Ordering::Relaxed), n, "all {n} leaves must run");
    // Vertices: root + final + 2 per spawn.
    assert_eq!(stats.pool.tasks, 2 + 2 * (n - 1));
}

#[test]
fn large_fanin_all_families_two_workers() {
    let n = 1 << 15;
    check_fanin::<DynSnzi>(DynConfig::with_threshold(50), 2, n);
    check_fanin::<DynSnzi>(DynConfig::always_grow(), 2, n);
    check_fanin::<FetchAdd>((), 2, n);
    check_fanin::<FixedDepth>(FixedConfig { depth: 4 }, 2, n);
}

#[test]
fn large_fanin_oversubscribed_eight_workers() {
    let n = 1 << 14;
    check_fanin::<DynSnzi>(DynConfig::with_threshold(200), 8, n);
    check_fanin::<FetchAdd>((), 8, n);
    check_fanin::<FixedDepth>(FixedConfig { depth: 6 }, 8, n);
}

#[test]
fn fanin_never_grow_is_correct_under_contention() {
    // Failure injection: all counter traffic on one SNZI root.
    check_fanin::<DynSnzi>(DynConfig::never_grow(), 4, 1 << 13);
}

#[test]
fn pool_churn_many_small_dags() {
    // Spin pools up and down rapidly; catches termination/teardown races.
    for round in 0..200 {
        let workers = 1 + (round % 4);
        check_fanin::<DynSnzi>(DynConfig::default(), workers, 16);
    }
}

#[test]
fn nested_finish_pyramid() {
    // indegree2 shape: one finish block per level, heavily nested.
    fn rec<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, hits: Arc<AtomicU64>) {
        if n < 2 {
            hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let h = Arc::clone(&hits);
        ctx.chain(
            move |c| {
                let (a, b) = (Arc::clone(&h), h);
                c.spawn(move |c2| rec(c2, n / 2, a), move |c2| rec(c2, n / 2, b));
            },
            move |_| {},
        );
    }
    for workers in [2, 8] {
        let n = 1u64 << 12;
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        run_dag::<DynSnzi, _>(DynConfig::with_threshold(100), workers, move |ctx| rec(ctx, n, h));
        assert_eq!(hits.load(Ordering::Relaxed), n);
    }
}

#[test]
fn chain_ladder_sequentializes_under_many_workers() {
    // A pure chain ladder has zero parallelism; stamps must be strictly
    // increasing no matter how many workers race.
    fn ladder<C: CounterFamily>(ctx: Ctx<'_, C>, depth: u64, log: Arc<ordered_log::Log>) {
        if depth == 0 {
            return;
        }
        let l2 = Arc::clone(&log);
        ctx.chain(
            move |_| {
                log.push(depth);
            },
            move |c| ladder(c, depth - 1, l2),
        );
    }
    let log = Arc::new(ordered_log::Log::default());
    let l = Arc::clone(&log);
    run_dag::<DynSnzi, _>(DynConfig::always_grow(), 8, move |ctx| ladder(ctx, 64, l));
    let seen = log.snapshot();
    assert_eq!(seen.len(), 64);
    for w in seen.windows(2) {
        assert!(w[0] > w[1], "chain ladder must run strictly in order");
    }
}

/// Tiny ordered log (std mutex; no extra deps for the umbrella tests).
mod ordered_log {
    use std::sync::Mutex;

    #[derive(Default)]
    pub struct Log(Mutex<Vec<u64>>);

    impl Log {
        pub fn push(&self, v: u64) {
            self.0.lock().unwrap().push(v);
        }
        pub fn snapshot(&self) -> Vec<u64> {
            self.0.lock().unwrap().clone()
        }
    }
}

#[test]
fn stats_report_steals_under_skewed_load() {
    // One long sequential-ish arm plus a bushy arm: thieves must engage.
    let n = 1 << 12;
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let stats =
        run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |ctx| fanin_counting(ctx, n, h));
    assert_eq!(hits.load(Ordering::Relaxed), n);
    // Not asserting steals > 0 (a fast worker could drain everything),
    // but per-worker counts must sum to the total.
    let total: u64 = stats.pool.tasks_per_worker.iter().sum();
    assert_eq!(total, stats.pool.tasks);
}
