//! An in-counter only where a scope forks (`spdag::vertex`, module docs).
//!
//! The dag layer rests on one invariant — *a vertex whose pair is
//! `PairRef::none()` is the only strand of its finish scope, and that
//! scope's counter has never been stepped* — and this battery checks its
//! three consequences from outside, at W ∈ {1, 2, 4} and over every counter
//! family (`DynSnzi` at `always_grow`, `never_grow` and the default coin,
//! `FetchAdd`, `FixedDepth`):
//!
//! 1. **Late materialization.** A scope's counter is made by its only
//!    strand at the scope's first increment. Every route to a first
//!    increment is driven: a future body that ends with `spawn` and then
//!    returns its value, a future body that creates a future, a `chain`
//!    whose `first` only touches and one whose `first` forks through
//!    `Scope`, and a `future_strand` that parks, resumes on another worker
//!    and only then forks.
//! 2. **The park word.** A parked strand counts its two deliveries on
//!    `Vertex::owed`: a strand that parks N times in a row re-arms each
//!    time, and one whose registration raced the seal — parked or bounced,
//!    whichever the schedule gave — parks again on its next await. (The
//!    bounce is forced in `tests/fault_wavefront.rs` under `fault-inject`;
//!    fulfil ∥ suspend at volume is in `tests/futures_stress.rs`.)
//! 3. **Counts that pin the representation.** A leaf dag and a chain of
//!    leaves make no pair and no counter; a warm `future_join` wavefront
//!    and a `touch_await` chain make exactly one counter per run — the
//!    root's scope — and one decrement pair per increment, each freed (the
//!    ledger of `tests/common`). A counter or a pair per chain, future,
//!    touch or park that grows back fails here.
//!
//! Tests serialize on the binary's lock: the counts are diffs of the
//! global telemetry registry.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use common::{serial, Ledger, Serial};
use dynsnzi::prelude::*;
use spdag::DagRunStats;

/// Run `$case::<C>($($s,)? cfg, workers)` at W ∈ {1, 2, 4} over every
/// family.
macro_rules! over_families {
    ($case:ident $(, $s:expr)?) => {
        for workers in [1usize, 2, 4] {
            $case::<DynSnzi>($($s,)? DynConfig::always_grow(), workers);
            $case::<DynSnzi>($($s,)? DynConfig::never_grow(), workers);
            $case::<DynSnzi>($($s,)? DynConfig::default(), workers);
            $case::<FetchAdd>($($s,)? (), workers);
            $case::<FixedDepth>($($s,)? FixedConfig { depth: 2 }, workers);
        }
    };
}

fn label<C: CounterFamily>(workers: usize) -> String {
    format!("{} at W={workers}", C::NAME)
}

// ---------------------------------------------------------------------
// 1. Late materialization: every route to a scope's first increment.

/// The future's scope opens with its body as only strand; the body's
/// `spawn` is that scope's first increment, and the value comes after it.
fn future_body_spawns_then_returns<C: CounterFamily>(cfg: C::Config, workers: usize) {
    let cell = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(AtomicU64::new(0));
    let (c1, s1) = (Arc::clone(&cell), Arc::clone(&seen));
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let c2 = Arc::clone(&c1);
        let f = ctx.future(move |c: Ctx<'_, C>| {
            let (a, b) = (Arc::clone(&c2), c2);
            c.spawn(
                move |_| {
                    a.fetch_add(3, Ordering::Relaxed);
                },
                move |_| {
                    b.fetch_add(4, Ordering::Relaxed);
                },
            );
            1u64
        });
        ctx.touch(&f, move |_, v| {
            s1.store(c1.load(Ordering::Relaxed) + *v, Ordering::Relaxed);
        });
    });
    assert_eq!(seen.load(Ordering::Relaxed), 8, "{}", label::<C>(workers));
}

/// The first increment of the outer future's scope is the fork that
/// creates the inner future; the body then touches it, so the outer future
/// completes after the inner one and the continuation.
fn future_body_creates_a_future<C: CounterFamily>(cfg: C::Config, workers: usize) {
    let inner_seen = Arc::new(AtomicU64::new(0));
    let out = Arc::new(AtomicU64::new(0));
    let (i1, o1) = (Arc::clone(&inner_seen), Arc::clone(&out));
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let i2 = Arc::clone(&i1);
        let f = ctx.future(move |mut c: Ctx<'_, C>| {
            let g = c.future(|_| 20u64);
            c.touch(&g, move |_, v| i2.store(*v, Ordering::Relaxed));
            1u64
        });
        ctx.touch(&f, move |_, v| {
            o1.store(i1.load(Ordering::Relaxed) + *v, Ordering::Relaxed);
        });
    });
    assert_eq!(out.load(Ordering::Relaxed), 21, "{}", label::<C>(workers));
}

/// `first` only touches: its continuation inherits `first`'s place as the
/// only strand of the chain's scope and ends it with no counter at all.
fn chain_whose_first_only_touches<C: CounterFamily>(cfg: C::Config, workers: usize) {
    let cell = Arc::new(AtomicU64::new(0));
    let out = Arc::new(AtomicU64::new(0));
    let (c1, o1) = (Arc::clone(&cell), Arc::clone(&out));
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let f = ctx.future(|_| 5u64);
        let c2 = Arc::clone(&c1);
        ctx.chain(
            move |c| c.touch(&f, move |_, v| c2.store(*v, Ordering::Relaxed)),
            move |_| o1.store(c1.load(Ordering::Relaxed) + 1, Ordering::Relaxed),
        );
    });
    assert_eq!(out.load(Ordering::Relaxed), 6, "{}", label::<C>(workers));
}

/// `first` forks through `Scope`: the first `fork` makes the chain's
/// counter, the rest step it, and `then` sees every fork done.
fn chain_whose_first_forks_through_scope<C: CounterFamily>(cfg: C::Config, workers: usize) {
    const FORKS: u64 = 40;
    let hits = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(AtomicU64::new(u64::MAX));
    let (h1, s1) = (Arc::clone(&hits), Arc::clone(&seen));
    run_dag::<C, _>(cfg, workers, move |ctx| {
        let h2 = Arc::clone(&h1);
        ctx.chain(
            move |c| {
                let mut scope = c.into_scope();
                for _ in 0..FORKS {
                    let h = Arc::clone(&h2);
                    scope.fork(move |_| {
                        h.fetch_add(1, Ordering::Relaxed);
                    });
                }
            },
            move |_| s1.store(h1.load(Ordering::Relaxed), Ordering::Relaxed),
        );
    });
    assert_eq!(seen.load(Ordering::Relaxed), FORKS, "{}", label::<C>(workers));
}

/// One round of "park, resume, only then fork": the strand is the only
/// strand of its future's scope when it parks, and makes that scope's
/// counter after it resumed. Returns whether the resumption ran on another
/// worker than the first run.
///
/// At W > 1 the strand waits for the gate's body to be running — on
/// another worker, then — before it awaits, and the gate's body waits for
/// the park and a little longer: the gate completes on that other worker,
/// and if its sweep's delivery lands after the parking executor's own —
/// which the pause makes likely, not certain — it is that worker's deque
/// the strand goes to. (At W = 1 nothing may spin: whatever is waited for
/// sits behind the waiter in the one deque.)
fn park_then_fork_round<C: CounterFamily>(cfg: C::Config, workers: usize) -> bool {
    const FORKS: u64 = 3;
    let gate_running = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicBool::new(false));
    let first_worker = Arc::new(AtomicUsize::new(usize::MAX));
    let moved = Arc::new(AtomicBool::new(false));
    let hits = Arc::new(AtomicU64::new(0));
    let out = Arc::new(AtomicU64::new(0));
    let (h1, o1, m1) = (Arc::clone(&hits), Arc::clone(&out), Arc::clone(&moved));
    let stats = run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let spin = ctx.num_workers() > 1;
        let (gr, pk) = (Arc::clone(&gate_running), Arc::clone(&parked));
        let gate = ctx.future(move |_| {
            gr.store(true, Ordering::Release);
            while spin && !pk.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            // The strand raised `parked` inside its body; let its executor
            // finish committing the park.
            for _ in 0..if spin { 20_000 } else { 0 } {
                std::hint::spin_loop();
            }
            10u64
        });
        let h2 = Arc::clone(&h1);
        let s = ctx.future_strand(move |c: &mut Ctx<'_, C>| {
            if first_worker.load(Ordering::Relaxed) == usize::MAX {
                first_worker.store(c.worker_id(), Ordering::Relaxed);
                while spin && !gate_running.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            }
            let v = match c.touch_await(&gate) {
                StrandTouch::Ready(v) => *v,
                StrandTouch::Parked => {
                    parked.store(true, Ordering::Release);
                    return StrandPoll::Parked;
                }
            };
            if c.worker_id() != first_worker.load(Ordering::Relaxed) {
                m1.store(true, Ordering::Relaxed);
            }
            // The scope's first increment, by a strand that has parked.
            for _ in 0..FORKS {
                let h = Arc::clone(&h2);
                c.fork(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
            StrandPoll::Done(v)
        });
        ctx.touch(&s, move |_, v| {
            o1.store(h1.load(Ordering::Relaxed) + *v, Ordering::Relaxed);
        });
    });
    assert_eq!(out.load(Ordering::Relaxed), FORKS + 10, "{}", label::<C>(workers));
    assert_eq!(stats.pool.suspends, stats.pool.resumes, "every park is repaid");
    if workers > 1 {
        assert_eq!(stats.pool.suspends, 1, "the gate was unready by construction");
    }
    moved.load(Ordering::Relaxed)
}

fn strand_parks_then_forks<C: CounterFamily>(cfg: C::Config, workers: usize) {
    // Which delivery lands second, and whether a thief takes the gate's
    // completion vertex back to the strand's first worker, is the
    // schedule's. Run until a round moved.
    for _ in 0..200 {
        if park_then_fork_round::<C>(cfg.clone(), workers) || workers == 1 {
            return;
        }
    }
    panic!("{}: 200 rounds and the strand never resumed on another worker", label::<C>(workers));
}

#[test]
fn late_materialization_on_every_route_to_a_first_increment() {
    let _g = serial();
    over_families!(future_body_spawns_then_returns);
    over_families!(future_body_creates_a_future);
    over_families!(chain_whose_first_only_touches);
    over_families!(chain_whose_first_forks_through_scope);
    over_families!(strand_parks_then_forks);
}

// ---------------------------------------------------------------------
// 2. The park word.

/// A strand that awaits `PARKS` futures one after the other, each made by
/// the strand itself and held unready until the strand has parked on it:
/// exactly `PARKS` suspensions, each on a freshly armed word.
fn strand_parks_n_times_in_a_row<C: CounterFamily>(cfg: C::Config, workers: usize) {
    const PARKS: usize = 6;
    let out = Arc::new(AtomicU64::new(0));
    let o = Arc::clone(&out);
    let stats = run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let spin = ctx.num_workers() > 1;
        let parked: Arc<Vec<AtomicBool>> =
            Arc::new((0..PARKS).map(|_| AtomicBool::new(false)).collect());
        let (mut stage, mut sum) = (0usize, 0u64);
        let mut current: Option<FutureHandle<u64>> = None;
        let s = ctx.future_strand(move |c: &mut Ctx<'_, C>| loop {
            let awaited = current.get_or_insert_with(|| {
                let (flags, k) = (Arc::clone(&parked), stage);
                c.future(move |_| {
                    while spin && !flags[k].load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    k as u64 + 1
                })
            });
            match c.touch_await(awaited) {
                StrandTouch::Ready(v) => sum += *v,
                StrandTouch::Parked => {
                    parked[stage].store(true, Ordering::Release);
                    return StrandPoll::Parked;
                }
            }
            current = None;
            stage += 1;
            if stage == PARKS {
                return StrandPoll::Done(sum);
            }
        });
        ctx.touch(&s, move |_, v| o.store(*v, Ordering::Relaxed));
    });
    let expect = (1..=PARKS as u64).sum::<u64>();
    assert_eq!(out.load(Ordering::Relaxed), expect, "{}", label::<C>(workers));
    assert_eq!(stats.pool.suspends, PARKS as u64, "{}: one park per await", label::<C>(workers));
    assert_eq!(stats.pool.resumes, PARKS as u64, "{}: every park is repaid", label::<C>(workers));
}

/// A registration that races the seal, then a park that cannot be avoided:
/// whether the first await parked (the word went 2 → 0 through both
/// deliveries) or bounced (disarmed, 2 → 0 by the executor alone), the
/// second await must find the word ready to arm again.
fn racing_await_then_a_sure_park<C: CounterFamily>(cfg: C::Config, workers: usize) {
    for round in 0u64..40 {
        let spin_iters = (round * 53) % 600;
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        let stats: DagRunStats = run_dag::<C, _>(cfg.clone(), workers, move |mut ctx| {
            let spin = ctx.num_workers() > 1;
            let parked = Arc::new(AtomicBool::new(false));
            let racing = ctx.future(move |_| {
                for i in 0..spin_iters {
                    std::hint::black_box(i);
                }
                7u64
            });
            let pk = Arc::clone(&parked);
            let sure = ctx.future(move |_| {
                while spin && !pk.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                35u64
            });
            ctx.fork_strand(move |c: &mut Ctx<'_, C>| {
                let a = *strand_await!(c, &racing);
                let b = match c.touch_await(&sure) {
                    StrandTouch::Ready(v) => *v,
                    StrandTouch::Parked => {
                        parked.store(true, Ordering::Release);
                        return StrandPoll::Parked;
                    }
                };
                o.store(a + b, Ordering::Relaxed);
                StrandPoll::Done(())
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), 42, "{} round {round}", label::<C>(workers));
        assert_eq!(stats.pool.suspends, stats.pool.resumes, "every park is repaid");
        if workers > 1 {
            assert!(stats.pool.suspends >= 1, "the second await parks by construction");
        }
    }
}

#[test]
fn the_park_word_rearms() {
    let _g = serial();
    over_families!(strand_parks_n_times_in_a_row);
    over_families!(racing_await_then_a_sure_park);
}

// ---------------------------------------------------------------------
// 3. Counts that pin the representation.

/// What `run` made, with the ledger closed over it: `(pairs born,
/// in-counters made)`. Telemetry builds only.
fn counts(s: &Serial, what: &str, run: impl FnOnce()) -> (u64, u64) {
    let ledger = Ledger::open(s);
    run();
    let (made, _) = ledger.close(what, &[]).expect("telemetry is compiled in");
    (made.pairs, made.counters)
}

/// A dag that never forks: a lone leaf, and chains of leaves nested in
/// both positions. Zero pairs, zero counters.
fn unforked_dags_make_nothing<C: CounterFamily>(s: &Serial, cfg: C::Config, workers: usize) {
    fn chains<C: CounterFamily>(ctx: Ctx<'_, C>, depth: u32, hits: Arc<AtomicU64>) {
        if depth == 0 {
            hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let h = Arc::clone(&hits);
        ctx.chain(move |c| chains(c, depth - 1, h), move |c| chains(c, depth - 1, hits));
    }
    let what = format!("{}: a leaf dag", label::<C>(workers));
    let made = counts(s, &what, || {
        run_dag::<C, _>(cfg.clone(), workers, |_| {});
    });
    assert_eq!(made, (0, 0), "{what}");
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let what = format!("{}: a chain of leaves", label::<C>(workers));
    let made = counts(s, &what, || {
        run_dag::<C, _>(cfg, workers, move |ctx| chains(ctx, 6, h));
    });
    assert_eq!(hits.load(Ordering::Relaxed), 1 << 6);
    assert_eq!(made, (0, 0), "{what}");
}

/// `stages` rows of `width` `future_join` cells over a first row of plain
/// futures, all built by the root, folded by one `touch` per last-row cell
/// (the benchmark's `pipeline_stages` shape). Returns the fold.
fn wavefront<C: CounterFamily>(cfg: C::Config, workers: usize, stages: u64, width: u64) -> u64 {
    let sum = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&sum);
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let mut row: Vec<FutureHandle<u64>> = (0..width).map(|i| ctx.future(move |_| i)).collect();
        for _ in 0..stages {
            row = (0..width as usize)
                .map(|i| {
                    let right = &row[(i + 1) % width as usize];
                    ctx.future_join(&row[i], right, |_, a, b| a.wrapping_add(*b))
                })
                .collect();
        }
        let mut scope = ctx.into_scope();
        for cell in row {
            let s = Arc::clone(&s);
            scope.fork(move |c| {
                c.touch(&cell, move |_, v| {
                    s.fetch_add(*v, Ordering::Relaxed);
                });
            });
        }
    });
    sum.load(Ordering::Relaxed)
}

/// `depth` futures in one serial chain, every hop a strand that
/// `touch_await`s its predecessor, folded by a sink strand (the
/// benchmark's `await_chain` shape).
fn await_chain<C: CounterFamily>(cfg: C::Config, workers: usize, depth: u64) -> u64 {
    let out = Arc::new(AtomicU64::new(u64::MAX));
    let o = Arc::clone(&out);
    run_dag::<C, _>(cfg, workers, move |mut ctx| {
        let mut prev: FutureHandle<u64> = ctx.future(|_| 0u64);
        for _ in 1..depth {
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
    out.load(Ordering::Relaxed)
}

/// Only the root's scope forks in either shape: one counter per run, and
/// one pair per increment — every future (it joins its enclosing scope by
/// a fork) and every `fork`/`fork_strand`; no chain, future, touch or park
/// makes either.
fn future_shapes_make_one_counter<C: CounterFamily>(s: &Serial, cfg: C::Config, workers: usize) {
    const STAGES: u64 = 6;
    const WIDTH: u64 = 8;
    const DEPTH: u64 = 48;
    let elision: u64 = {
        let mut row: Vec<u64> = (0..WIDTH).collect();
        for _ in 0..STAGES {
            row = (0..WIDTH as usize)
                .map(|i| row[i].wrapping_add(row[(i + 1) % WIDTH as usize]))
                .collect();
        }
        row.iter().sum()
    };
    // Warm first: the counts must not depend on what the recycler holds.
    assert_eq!(wavefront::<C>(cfg.clone(), workers, STAGES, WIDTH), elision);
    let what = format!("{}: a warm future_join wavefront", label::<C>(workers));
    let made = counts(s, &what, || {
        assert_eq!(wavefront::<C>(cfg.clone(), workers, STAGES, WIDTH), elision);
    });
    let increments = WIDTH + STAGES * WIDTH + WIDTH; // first row, joins, folding forks
    assert_eq!(made, (increments, 1), "{what}");
    assert_eq!(await_chain::<C>(cfg.clone(), workers, DEPTH), DEPTH - 1);
    let what = format!("{}: a warm touch_await chain", label::<C>(workers));
    let made = counts(s, &what, || {
        assert_eq!(await_chain::<C>(cfg, workers, DEPTH), DEPTH - 1);
    });
    let increments = DEPTH + 1; // the futures and the sink's fork
    assert_eq!(made, (increments, 1), "{what}");
}

#[test]
fn counts_pin_the_representation() {
    let s = serial();
    if !obs::enabled() {
        eprintln!("skipping: telemetry compiled out");
        return;
    }
    over_families!(unforked_dags_make_nothing, &s);
    over_families!(future_shapes_make_one_counter, &s);
}
