//! Integration battery for suspendable strands: random programs mixing
//! the structural operations (`spawn`/`chain`/`fork`) with both await
//! styles — continuation passing (`touch`) and blocking
//! (`touch_await`) — executed on real worker pools under every counter
//! family, checking:
//!
//! 1. every dependent observes its future's value **exactly once**, under
//!    real fulfill ∥ suspend races (the count-2 handshake);
//! 2. parking never blocks a *worker*: a chain of blocking awaits far
//!    longer than the worker count completes on a single-worker pool;
//! 3. at quiescence the suspension counters balance (`tests/common`'s
//!    ledger) — gated on [`obs::enabled`] so the battery also passes with
//!    telemetry compiled out;
//! 4. the `std::future::Future` bridge: `async` bodies on the pool await
//!    a [`FutureHandle`], and a poll of an unready one outside any strand
//!    panics by name and registers nothing.
//!
//! Tests serialize on the binary's lock (`tests/common`): the global
//! telemetry registry can only be diffed meaningfully while no sibling test
//! is mid-dag.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{panic_text, serial, Ledger, Prog};
use incounter::{CounterFamily, DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};
use sched::XorShift64Star;
use spdag::{run_dag, strand_await, Ctx, FutureHandle, StrandPoll};

/// The acceptance workload: `depth` futures in one sequential dependency
/// chain, every hop awaited in blocking style, folded by a blocking
/// sink. With `workers < depth` this only completes if parking suspends
/// the *strand* and returns the worker to its deque.
fn deep_chain<C: CounterFamily>(cfg: C::Config, workers: usize, depth: u64) {
    let out = Arc::new(AtomicU64::new(u64::MAX));
    let o = Arc::clone(&out);
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let mut prev: FutureHandle<u64> = ctx.future(|_| 0u64);
        for _ in 1..depth {
            let f = prev.clone();
            prev = ctx.future_strand(move |c: &mut Ctx<'_, C>| {
                let v = *strand_await!(c, &f);
                StrandPoll::Done(v + 1)
            });
        }
        let f = prev;
        ctx.fork_strand(move |c: &mut Ctx<'_, C>| {
            o.store(*strand_await!(c, &f), Ordering::Relaxed);
            StrandPoll::Done(())
        });
    });
    assert_eq!(out.load(Ordering::Relaxed), depth - 1);
}

/// Regression: a one-shot body calling `touch_await` on an unready
/// future must panic **at the call site**, before any out-set
/// registration. (It used to be able to ignore the `Parked` result and
/// fall through to retirement with its address still registered — a
/// use-after-free in waiting.) W=1 makes the future deterministically
/// unready: the only worker is still inside the root body. Since the
/// pool captures worker panics, the call-site payload itself reaches
/// the caller.
#[test]
#[should_panic(expected = "touch_await outside a strand resumption")]
fn touch_await_from_one_shot_body_panics_before_registering() {
    let _g = serial();
    run_dag::<DynSnzi, _>(DynConfig::default(), 1, |mut ctx| {
        let f = ctx.future(|_| 1u64);
        let _ = ctx.touch_await(&f);
    });
}

/// Regression: a strand that parks on `touch_await` and then wrongly
/// claims `Done` (instead of propagating `Parked`) must be caught by the
/// executor's epilogue — the vertex is leaked, never retired, because
/// its address is live on the future's out-set. W=1 + LIFO owner pops
/// make the future deterministically unready when the strand runs. The
/// pool propagates the epilogue's own payload to the caller.
#[test]
#[should_panic(expected = "parked touch_await still armed")]
fn strand_done_after_parked_touch_is_caught() {
    let _g = serial();
    run_dag::<DynSnzi, _>(DynConfig::default(), 1, |mut ctx| {
        let f = ctx.future(|_| 1u64);
        ctx.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
            let _ = c.touch_await(&f);
            StrandPoll::Done(()) // wrong: a parked strand must return Parked
        });
    });
}

#[test]
fn deep_chain_on_one_worker_never_blocks_it() {
    let _g = serial();
    // 1000 blocking awaits, 1 worker, all three counter families: the
    // single worker must survive ~depth parks without ever blocking.
    deep_chain::<DynSnzi>(DynConfig::default(), 1, 1000);
    deep_chain::<FetchAdd>((), 1, 1000);
    deep_chain::<FixedDepth>(FixedConfig::default(), 1, 1000);
}

#[test]
fn suspend_and_resume_counters_balance() {
    let s = serial();
    let ledger = Ledger::open(&s);
    deep_chain::<DynSnzi>(DynConfig::default(), 2, 300);
    // The ledger checks that every suspend is repaid by exactly one resume.
    if let Some((_, d)) = ledger.close("a 300-deep chain", &[]) {
        let parks = d.counter("spdag.strand_suspend");
        assert!(parks > 0, "a 300-deep chain on 2 workers must park somewhere");
        // Every await either hit the ready fast path or parked; parks
        // can't exceed awaits.
        assert!(parks <= d.counter("spdag.touch_awaits"));
    }
}

/// Hammer the fulfill ∥ suspend race: `n` strands all blocking-await one
/// future whose producer spins a pseudo-random number of iterations, so
/// across repetitions the out-set registrations land before, during, and
/// after the seal. Exactly-once delivery means the sum comes out exact.
#[test]
fn exactly_once_under_fulfill_suspend_races() {
    let _g = serial();
    for round in 0u64..120 {
        let n = 1 + (round % 7);
        let spin = (round * 37) % 400;
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        run_dag::<DynSnzi, _>(DynConfig::default(), 4, move |mut ctx| {
            let f = ctx.future(move |_| {
                for i in 0..spin {
                    std::hint::black_box(i);
                }
                7u64
            });
            let mut scope = ctx.into_scope();
            for _ in 0..n {
                let f = f.clone();
                let s = Arc::clone(&s);
                scope.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
                    s.fetch_add(*strand_await!(c, &f), Ordering::Relaxed);
                    StrandPoll::Done(())
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 7 * n, "round {round}");
    }
}

/// A strand that parks twice (two sequential awaits) resumes through the
/// same frame both times and sees both values.
#[test]
fn strand_parks_twice_through_one_frame() {
    let _g = serial();
    for workers in [1, 3] {
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |mut ctx| {
            let a = ctx.future(|_| 40u64);
            let b = ctx.future(|_| 2u64);
            ctx.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
                let x = *strand_await!(c, &a);
                let y = *strand_await!(c, &b);
                o.store(x + y, Ordering::Relaxed);
                StrandPoll::Done(())
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), 42);
    }
}

/// `async` bodies compose with strand stages and CPS stages in one dag.
#[test]
fn async_bridge_composes_with_strands() {
    let _g = serial();
    let out = Arc::new(AtomicU64::new(0));
    let o = Arc::clone(&out);
    run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
        let a = ctx.future(|_| 4u64);
        let b = ctx.future_async(async move { a.await + 2 });
        let c2 = {
            let b = b.clone();
            ctx.future_strand(move |c: &mut Ctx<'_, DynSnzi>| {
                StrandPoll::Done(*strand_await!(c, &b) * 7)
            })
        };
        let o = Arc::clone(&o);
        ctx.fork_async(async move {
            o.store(c2.await, Ordering::Relaxed);
        });
    });
    assert_eq!(out.load(Ordering::Relaxed), 42);
}

/// The async bridge's bounce arm, forced: with `spdag.force_bounce` armed
/// the bridge holds its registration until the awaited future seals, so
/// `AsyncStrand::resume` takes "sealed between poll and registration →
/// disarm → re-poll". The future's body waits for the block's first poll
/// to begin, which makes that poll find it unready (a round where it
/// still won the race never reaches the failpoint and is retried). Either
/// way the hold ends — sealed, or its spin budget spent and the strand
/// parked — every park is repaid and the value arrives.
#[cfg(feature = "fault-inject")]
#[test]
fn async_await_survives_a_forced_bounce() {
    use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
    use std::sync::atomic::AtomicBool;

    let _g = serial();
    let site = SiteSpec { site: "spdag.force_bounce".into(), mode: FaultMode::Always };
    for round in 0..20 {
        failpoint::install(&FaultPlan::new(round, vec![site.clone()]));
        let out = Arc::new(AtomicU64::new(0));
        let polling = Arc::new(AtomicBool::new(false));
        let (o, p) = (Arc::clone(&out), Arc::clone(&polling));
        let stats = run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
            let f = ctx.future(move |_| {
                while !polling.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                21u64
            });
            ctx.fork_async(async move {
                p.store(true, Ordering::Release);
                o.store(f.await * 2, Ordering::Relaxed);
            });
        });
        let held = failpoint::injected_count();
        failpoint::clear();
        assert_eq!(out.load(Ordering::Relaxed), 42);
        assert_eq!(stats.pool.suspends, stats.pool.resumes, "every park is repaid");
        if held > 0 {
            return;
        }
    }
    panic!("the bridge's registration never reached the spdag.force_bounce failpoint");
}

/// A handle polled outside any strand has no vertex to park: unready, the
/// poll panics naming the two ways to wait and to read, and leaves nothing
/// in the out-set — the future then completes, an `async` awaiter on the
/// pool included, and every park is repaid.
#[test]
fn an_unready_poll_outside_a_strand_panics_by_name() {
    use std::future::Future;
    use std::sync::atomic::AtomicBool;
    use std::task::{Context, Waker};

    let _g = serial();
    let release = Arc::new(AtomicBool::new(false));
    let awaited = Arc::new(AtomicU64::new(0));
    let (tx, rx) = std::sync::mpsc::channel::<FutureHandle<u64>>();
    let (r, a) = (Arc::clone(&release), Arc::clone(&awaited));
    let dag = std::thread::spawn(move || {
        run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
            let f = ctx.future(move |_| {
                while !r.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                21u64
            });
            let g = f.clone();
            ctx.fork_async(async move {
                a.store(g.await, Ordering::Relaxed);
            });
            tx.send(f).expect("receiver alive");
        })
    });
    let mut f = rx.recv().expect("the dag sends the handle");
    let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut cx = Context::from_waker(Waker::noop());
        std::pin::Pin::new(&mut f).poll(&mut cx)
    }));
    // Released before anything is asserted, so a failing check still lets
    // the dag finish.
    release.store(true, Ordering::Release);
    let message = match polled {
        Err(payload) => panic_text(payload.as_ref()),
        Ok(poll) => panic!("an unready poll outside a strand returned {:?}", poll.is_ready()),
    };
    for name in ["outside any strand", "fork_async", "future_async", "try_get"] {
        assert!(message.contains(name), "{name:?} missing from {message:?}");
    }
    let stats = dag.join().expect("the dag thread is clean");
    assert_eq!(f.try_get(), Some(&21));
    assert_eq!(awaited.load(Ordering::Relaxed), 21, "the strand's await is delivered");
    assert_eq!(stats.pool.suspends, stats.pool.resumes, "every park is repaid");
}

// ---------------------------------------------------------------------
// Random programs (`tests/common`): structural ops and both await styles
// interleaved, every cell run exactly once on every family.

fn run_prog<C: CounterFamily>(cfg: C::Config, workers: usize, prog: &Prog) {
    let _g = serial();
    prog.run::<C>(cfg, workers, None).assert_drained();
}

/// Forty programs of up to 16 nodes, each on 1 to 3 workers.
fn random_mixed_awaits(name: &str, mut run: impl FnMut(&Prog, usize, &mut XorShift64Star)) {
    sched::rng::battery(name, 40, |rng| {
        let prog = Prog::draw(rng, 16);
        let workers = 1 + rng.next_below(3);
        run(&prog, workers, rng);
    });
}

#[test]
fn random_mixed_awaits_incounter() {
    random_mixed_awaits("random_mixed_awaits_incounter", |prog, workers, _| {
        run_prog::<DynSnzi>(DynConfig::with_threshold(4), workers, prog);
    });
}

#[test]
fn random_mixed_awaits_incounter_always_grow() {
    random_mixed_awaits("random_mixed_awaits_incounter_always_grow", |prog, workers, _| {
        run_prog::<DynSnzi>(DynConfig::always_grow(), workers, prog);
    });
}

#[test]
fn random_mixed_awaits_fetch_add() {
    random_mixed_awaits("random_mixed_awaits_fetch_add", |prog, workers, _| {
        run_prog::<FetchAdd>((), workers, prog);
    });
}

#[test]
fn random_mixed_awaits_fixed_depth() {
    random_mixed_awaits("random_mixed_awaits_fixed_depth", |prog, workers, rng| {
        let depth = rng.next_below(5) as u32;
        run_prog::<FixedDepth>(FixedConfig { depth }, workers, prog);
    });
}
