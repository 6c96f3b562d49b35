//! Integration stress for runtime-added edges: futures created and
//! touched from deep inside nested-parallel computations, across counter
//! families, worker counts and both out-set families — checking that
//! every touch continuation runs exactly once and observes the future's
//! value, under real scheduler races.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dynsnzi::prelude::*;

/// A binary tree of forks where every leaf touches the same future: the
/// maximal broadcast race (many adds vs one finish).
#[test]
fn broadcast_fanout_exactly_once() {
    for workers in [1, 2, 4] {
        for n in [1u64, 7, 64, 300] {
            let sum = Arc::new(AtomicU64::new(0));
            let runs = Arc::new(AtomicU64::new(0));
            let (s, r) = (Arc::clone(&sum), Arc::clone(&runs));
            Runtime::new().workers(workers).run(move |mut ctx| {
                let f = ctx.future(|_| 3u64);
                let mut scope = ctx.into_scope();
                for _ in 0..n {
                    let f = f.clone();
                    let (s, r) = (Arc::clone(&s), Arc::clone(&r));
                    scope.fork(move |c| {
                        c.touch(&f, move |_, v| {
                            s.fetch_add(*v, Ordering::Relaxed);
                            r.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                }
            });
            assert_eq!(runs.load(Ordering::Relaxed), n, "workers={workers} n={n}");
            assert_eq!(sum.load(Ordering::Relaxed), 3 * n, "workers={workers} n={n}");
        }
    }
}

/// A chain of futures, each touching its predecessor from inside its own
/// body: a genuinely non-series-parallel dag (the stage edges cut across
/// the fork tree), exercised for both out-set families. Each stage's
/// value is an `Arc<AtomicU64>` cell filled by a touch continuation
/// inside the stage's own scope — completion orders the fill before any
/// dependent read, so the chain transports values through `stages` hops.
#[test]
fn staged_chain_through_futures() {
    fn drive<O: OutsetFamily>(workers: usize, stages: u64) -> u64 {
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        Runtime::new().workers(workers).run(move |mut ctx| {
            let seed = Arc::new(AtomicU64::new(1));
            let mut prev: FutureHandle<Arc<AtomicU64>, O> = {
                let s = Arc::clone(&seed);
                ctx.future_in::<O, _, _>(move |_| s)
            };
            for _ in 0..stages {
                let p = prev.clone();
                prev = ctx.future_in::<O, _, _>(move |c: Ctx<'_, DynSnzi>| {
                    let cell = Arc::new(AtomicU64::new(0));
                    let c2 = Arc::clone(&cell);
                    c.touch(&p, move |_, prev_cell| {
                        c2.store(prev_cell.load(Ordering::Acquire) + 1, Ordering::Release);
                    });
                    cell
                });
            }
            ctx.touch(&prev, move |_, cell| {
                o.store(cell.load(Ordering::Acquire), Ordering::Relaxed);
            });
        });
        out.load(Ordering::Relaxed)
    }
    for workers in [1, 3] {
        assert_eq!(drive::<TreeOutset>(workers, 50), 51, "tree, workers={workers}");
        assert_eq!(drive::<MutexOutset>(workers, 50), 51, "mutex, workers={workers}");
    }
}

/// A future completes after its subtree **and** after its value is
/// published. Each body ends its vertex with a consuming call — after
/// which the children carry the scope's obligation and can finish on the
/// other worker — and only then, some milliseconds later, returns the
/// value. A dependent must still see it: before the fix the completion
/// vertex ran on the children's signal alone, `touch` skipped its
/// continuation as if the future were poisoned and `touch_await` panicked
/// (that was `staged_chain_through_futures`'s one-in-200 short chain).
#[test]
fn value_is_published_before_completion() {
    /// How a body ends its vertex before it lingers on the way to its
    /// `return`.
    #[derive(Clone, Copy, Debug)]
    enum LastAct {
        Spawn,
        Chain,
        /// `touch` of a future that has already completed.
        Touch,
    }

    type Build<O> = fn(&mut Ctx<'_, DynSnzi>, LastAct, &FutureHandle<u64>) -> FutureHandle<u64, O>;

    fn linger(c: Ctx<'_, DynSnzi>, act: LastAct, done: &FutureHandle<u64>) -> u64 {
        match act {
            LastAct::Spawn => c.spawn(|_| {}, |_| {}),
            LastAct::Chain => c.chain(|_| {}, |_| {}),
            LastAct::Touch => c.touch(done, |_, _| {}),
        }
        std::thread::sleep(Duration::from_millis(10));
        7
    }

    fn plain<O: OutsetFamily>(
        ctx: &mut Ctx<'_, DynSnzi>,
        act: LastAct,
        done: &FutureHandle<u64>,
    ) -> FutureHandle<u64, O> {
        let done = done.clone();
        ctx.future_in::<O, _, _>(move |c| linger(c, act, &done))
    }

    fn then(
        ctx: &mut Ctx<'_, DynSnzi>,
        act: LastAct,
        done: &FutureHandle<u64>,
    ) -> FutureHandle<u64> {
        let d = done.clone();
        ctx.future_then(done, move |c, zero| zero + linger(c, act, &d))
    }

    fn join<O: OutsetFamily>(
        ctx: &mut Ctx<'_, DynSnzi>,
        act: LastAct,
        done: &FutureHandle<u64>,
    ) -> FutureHandle<u64, O> {
        let d = done.clone();
        ctx.future_join_in::<_, _, _, _, _, O, _>(done, done, move |c, a, b| {
            a + b + linger(c, act, &d)
        })
    }

    /// One future built by `build`, one dependent; what the dependent saw.
    fn case<O: OutsetFamily>(workers: usize, act: LastAct, awaits: bool, build: Build<O>) -> u64 {
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        Runtime::new().workers(workers).run(move |mut ctx| {
            let done = ctx.future(|_| 0u64);
            let d = done.clone();
            // Inside this continuation `done` has completed, at any W.
            ctx.touch(&done, move |mut ctx, _| {
                let f = build(&mut ctx, act, &d);
                if awaits {
                    ctx.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
                        o.store(*strand_await!(c, &f), Ordering::Relaxed);
                        StrandPoll::Done(())
                    });
                } else {
                    ctx.touch(&f, move |_, v| o.store(*v, Ordering::Relaxed));
                }
            });
        });
        out.load(Ordering::Relaxed)
    }

    let before = Snapshot::take();
    for workers in [1, 2] {
        for act in [LastAct::Spawn, LastAct::Chain, LastAct::Touch] {
            for awaits in [false, true] {
                let seen = [
                    ("future/tree", case::<TreeOutset>(workers, act, awaits, plain)),
                    ("future/mutex", case::<MutexOutset>(workers, act, awaits, plain)),
                    ("future_then", case::<TreeOutset>(workers, act, awaits, then)),
                    ("future_join/tree", case::<TreeOutset>(workers, act, awaits, join)),
                    ("future_join/mutex", case::<MutexOutset>(workers, act, awaits, join)),
                ];
                for (name, value) in seen {
                    assert_eq!(
                        value, 7,
                        "{name}: body ended with {act:?}, dependent awaits={awaits}, \
                         workers={workers}: completed before its value was published"
                    );
                }
            }
        }
    }
    // No test of this binary panics, so process-wide the count stays 0.
    let d = Snapshot::take().diff(&before);
    assert_eq!(d.counter("spdag.poisoned_touches"), 0, "a touch continuation was skipped");
}

/// Futures created at every level of a recursive spawn tree, each touched
/// by the opposite branch — crossing edges all over the dag.
#[test]
fn crossing_edges_in_recursive_tree() {
    fn rec(ctx: Ctx<'_, DynSnzi>, depth: u32, acc: Arc<AtomicU64>) {
        if depth == 0 {
            return;
        }
        let mut ctx = ctx;
        let f = ctx.future(move |_| depth as u64);
        let (a1, a2) = (Arc::clone(&acc), acc);
        let f2 = f.clone();
        ctx.spawn(
            move |c| {
                let mut c = c;
                let g = c.future(move |_| 100 * depth as u64);
                let a = Arc::clone(&a1);
                c.touch(&g, move |c2, v| {
                    a1.fetch_add(*v, Ordering::Relaxed);
                    rec(c2, depth - 1, a);
                });
            },
            move |c| {
                c.touch(&f2, move |c2, v| {
                    a2.fetch_add(*v, Ordering::Relaxed);
                    rec(c2, depth - 1, a2.clone());
                });
            },
        );
    }
    for workers in [2, 4] {
        let acc = Arc::new(AtomicU64::new(0));
        let a = Arc::clone(&acc);
        Runtime::new().workers(workers).run(move |ctx| rec(ctx, 6, a));
        // Each level d contributes (100*d + d) * 2^(6-d) ... closed form
        // unimportant: determinism is the property under test.
        let expected: u64 = {
            fn model(depth: u32) -> u64 {
                if depth == 0 {
                    return 0;
                }
                101 * depth as u64 + 2 * model(depth - 1)
            }
            model(6)
        };
        assert_eq!(acc.load(Ordering::Relaxed), expected, "workers={workers}");
    }
}

/// Randomized churn phases, reproducibly: every random choice is drawn
/// from the executing worker's deterministic stream ([`Ctx::rng_u64`])
/// xor a test-level seed, so there is no ambient entropy anywhere — a
/// failure names its seed and replays with it. Each phase picks one of
/// three shapes (chain step, broadcast through a shared future, pure
/// fork) and the test closes the books: touches planned == touches run.
#[test]
fn seeded_churn_phases_run_every_touch_exactly_once() {
    fn churn(
        c: Ctx<'_, DynSnzi>,
        mix: u64,
        budget: u64,
        planned: Arc<AtomicU64>,
        touched: Arc<AtomicU64>,
    ) {
        if budget == 0 {
            return;
        }
        let mut c = c;
        let draw = c.rng_u64() ^ mix;
        let (lo, hi) = ((budget - 1) / 2, budget - 1 - (budget - 1) / 2);
        match draw % 3 {
            0 => {
                // Chain step: one future, one touch, continue inside it.
                let f = c.future(move |_| draw);
                planned.fetch_add(1, Ordering::Relaxed);
                c.touch(&f, move |c2, v| {
                    assert_eq!(*v, draw, "stale future value (mix={mix:#x})");
                    touched.fetch_add(1, Ordering::Relaxed);
                    churn(c2, mix.rotate_left(7), budget - 1, planned, touched);
                });
            }
            1 => {
                // Broadcast: two racing branches touch the same future
                // and continue independently from their continuations.
                let f = c.future(move |_| draw);
                planned.fetch_add(2, Ordering::Relaxed);
                let f2 = f.clone();
                let (p1, t1) = (Arc::clone(&planned), Arc::clone(&touched));
                c.spawn(
                    move |cl| {
                        cl.touch(&f, move |c2, v| {
                            assert_eq!(*v, draw, "stale future value (mix={mix:#x})");
                            t1.fetch_add(1, Ordering::Relaxed);
                            churn(c2, mix ^ 0x5bd1_e995, lo, p1, t1);
                        });
                    },
                    move |cr| {
                        cr.touch(&f2, move |c2, v| {
                            assert_eq!(*v, draw, "stale future value (mix={mix:#x})");
                            touched.fetch_add(1, Ordering::Relaxed);
                            churn(c2, mix ^ 0x27d4_eb2f, hi, planned, touched);
                        });
                    },
                );
            }
            _ => {
                // Pure fork: split the budget without a future, so the
                // next draws happen on (potentially) different workers.
                let (p, t) = (Arc::clone(&planned), Arc::clone(&touched));
                c.spawn(
                    move |cl| churn(cl, mix ^ 0x165_667b1, lo, p, t),
                    move |cr| churn(cr, mix ^ 0x85eb_ca77, hi, planned, touched),
                );
            }
        }
    }

    for seed in [1u64, 0xDEAD_BEEF, 0x9E37_79B9_7F4A_7C15] {
        for workers in [1, 4] {
            let planned = Arc::new(AtomicU64::new(0));
            let touched = Arc::new(AtomicU64::new(0));
            let (p, t) = (Arc::clone(&planned), Arc::clone(&touched));
            Runtime::new().workers(workers).run(move |ctx| {
                let mut scope = ctx.into_scope();
                for lane in 0..6u64 {
                    let (p, t) = (Arc::clone(&p), Arc::clone(&t));
                    scope.fork(move |c| churn(c, seed.wrapping_mul(lane + 1), 40, p, t));
                }
            });
            assert_eq!(
                planned.load(Ordering::Relaxed),
                touched.load(Ordering::Relaxed),
                "lost or duplicated touch — replay with seed={seed:#x} workers={workers}"
            );
            assert!(planned.load(Ordering::Relaxed) > 0, "seed={seed:#x} churned nothing");
        }
    }
}

/// Fulfil ∥ suspend on the park word: a parked strand counts its two
/// deliveries — the fulfiller's sweep and its own executor's commit — on
/// one word in its vertex, and whichever lands second reschedules it. `n`
/// strands await one future whose producer spins a pseudo-random while, so
/// across rounds the registrations land before, during and after the seal
/// (parked and swept, parked with the sweep's delivery first, bounced and
/// disarmed); each strand then awaits a second, slower future, so a word a
/// first await left behind — zeroed by two deliveries or by a disarm — is
/// armed again. Exactly-once makes the sum exact, and every park is
/// repaid. In this binary so that CI's 100-run loop watches the rare
/// interleavings.
#[test]
fn fulfil_races_suspend_on_the_park_word() {
    fn drive<C: CounterFamily>(cfg: C::Config, workers: usize, round: u64) {
        let n = 1 + round % 6;
        let (fast, slow) = ((round * 37) % 400, 200 + (round * 91) % 900);
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        let spun = move |iters: u64, value: u64| {
            move |_: Ctx<'_, C>| {
                for i in 0..iters {
                    std::hint::black_box(i);
                }
                value
            }
        };
        let stats = run_dag::<C, _>(cfg, workers, move |mut ctx| {
            let first = ctx.future(spun(fast, 7));
            let second = ctx.future(spun(slow, 100));
            let mut scope = ctx.into_scope();
            for _ in 0..n {
                let (first, second, s) = (first.clone(), second.clone(), Arc::clone(&s));
                scope.fork_strand(move |c: &mut Ctx<'_, C>| {
                    let a = *strand_await!(c, &first);
                    let b = *strand_await!(c, &second);
                    s.fetch_add(a + b, Ordering::Relaxed);
                    StrandPoll::Done(())
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 107 * n, "{} round {round}", C::NAME);
        assert_eq!(stats.pool.suspends, stats.pool.resumes, "{} round {round}", C::NAME);
    }
    for round in 0u64..60 {
        let workers = [2, 4][(round % 2) as usize];
        drive::<DynSnzi>(DynConfig::default(), workers, round);
        drive::<FetchAdd>((), workers, round);
        drive::<FixedDepth>(FixedConfig { depth: 2 }, workers, round);
    }
}

/// A join whose inputs are held by nobody but the join: the caller drops
/// every handle of both inputs before either may complete, so the only
/// references left are the ones the join's own registrations run under and
/// hand to their waiting vertices. The moment a registration publishes its
/// token the input can complete on another worker, whose sweep runs the
/// waiting vertex, which drops what it owns: a registration that *moved*
/// the join's handle into that vertex (instead of cloning it) would have
/// the input's core — out-set included — freed under `add`'s post-publish
/// re-check. The inputs spin a per-round while after the gate so the
/// completion lands before, inside and after the registration; the values
/// live on the heap so a stale read does not look right.
#[test]
fn a_join_is_the_last_holder_of_its_inputs() {
    for workers in [2, 4] {
        for round in 0u64..100 {
            let out = Arc::new(AtomicU64::new(0));
            let o = Arc::clone(&out);
            Runtime::new().workers(workers).run(move |mut ctx| {
                let gate = Arc::new(AtomicU64::new(0));
                let input = |value: u64, spin: u64| {
                    let gate = Arc::clone(&gate);
                    move |_: Ctx<'_, DynSnzi>| {
                        while gate.load(Ordering::Acquire) == 0 {
                            std::hint::spin_loop();
                        }
                        for i in 0..spin {
                            std::hint::black_box(i);
                        }
                        vec![value; 4]
                    }
                };
                let a = ctx.future(input(10, (round * 29) % 600));
                let b = ctx.future(input(11, (round * 53) % 600));
                let j = ctx.future_join(&a, &b, |_, x, y| x.iter().chain(y.iter()).sum::<u64>());
                assert!(!a.is_done() && !b.is_done());
                drop((a, b));
                gate.store(1, Ordering::Release);
                ctx.touch(&j, move |_, v| o.store(*v, Ordering::Relaxed));
            });
            assert_eq!(out.load(Ordering::Relaxed), 84, "workers={workers} round={round}");
        }
    }
}

/// try_get never lies: false negatives allowed, never false positives.
#[test]
fn try_get_is_safe_snapshot() {
    let observed_done_value = Arc::new(AtomicU64::new(u64::MAX));
    let o = Arc::clone(&observed_done_value);
    Runtime::new().workers(2).run(move |mut ctx| {
        let f = ctx.future(|_| 424242u64);
        // Poll until done, then the value must be exactly right.
        loop {
            if let Some(v) = f.try_get() {
                o.store(*v, Ordering::Relaxed);
                break;
            }
            std::hint::spin_loop();
        }
    });
    assert_eq!(observed_done_value.load(Ordering::Relaxed), 424242);
}
