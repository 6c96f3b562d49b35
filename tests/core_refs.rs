//! Who holds a future's core (`spdag::futures`, "Who holds the core"): the
//! references the runtime takes for itself inside a one-worker run step a
//! count of their own, by load and store, and hold one unit of the shared
//! `PoolArc` count between them while any lives; user handles, and every
//! reference a run of two or more takes, step the shared count.
//!
//! The battery checks the split where it shows — the shared count a handle
//! reads inside a run, at W = 1 and at W = 2 — and where it could break: a
//! handle that escapes to a plain thread and is cloned and dropped there
//! while the run steps its own references on the same core; a touch after
//! the sweep, which takes the group's unit back (count 0 → 1); an escaped
//! handle used by later runs of every kind (W = 2, W = 1 on another
//! thread, one nested in a one-worker vertex); and a poisoned future. Each
//! value must be dropped exactly once, and with telemetry the ledger of
//! `tests/common` must close over each test — every `PoolArc` born dies
//! among the rest — once its last handle is dropped.
//!
//! Tests serialize on the binary's lock: the ledgers are diffs of the
//! global telemetry registry.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use common::{serial, Ledger};
use dynsnzi::prelude::*;

/// A value that counts its drops.
struct Tally(Arc<AtomicU64>);

impl Drop for Tally {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn run<F>(workers: usize, root: F)
where
    F: for<'b> FnOnce(Ctx<'b, DynSnzi>) + Send + 'static,
{
    run_dag::<DynSnzi, _>(DynConfig::default(), workers, root);
}

/// Whether `h`'s shared count reads `n` within a few seconds: at W ≥ 2 a
/// worker may be between the two steps of a registration (the waiting
/// vertex's reference taken, the caller's not yet dropped).
fn settles_at<T: Send + Sync + 'static>(h: &FutureHandle<T>, n: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.strong_count() != n {
        if Instant::now() > deadline {
            return false;
        }
        std::hint::spin_loop();
    }
    true
}

#[test]
fn a_one_worker_run_holds_one_unit_for_its_own_references() {
    let s = serial();
    let ledger = Ledger::open(&s);
    // W = 1: the join's capture of each input, the inputs' sweeps and the
    // derived futures' captures are the run's own — one unit between
    // them, beside the handle (with every reference a unit and a counted
    // setter this read 4: handle, setter, sweep, capture).
    let out = Arc::new(AtomicU64::new(0));
    let o = Arc::clone(&out);
    run(1, move |mut ctx| {
        let a = ctx.future(|_| 40u64);
        let b = ctx.future(|_| 2u64);
        assert_eq!(a.strong_count(), 2, "born: the handle and the group unit");
        let j = ctx.future_join(&a, &b, |_, x, y| x + y);
        let t = ctx.future_then(&a, |_, x| x + 1);
        for (h, name) in [(&a, "a"), (&b, "b")] {
            assert_eq!(h.strong_count(), 2, "input {name}: the handle and the group unit");
        }
        assert_eq!(j.strong_count(), 2, "the join: the handle and the group unit");
        drop(t);
        ctx.touch(&j, move |_, v| o.store(*v, Ordering::SeqCst));
    });
    assert_eq!(out.load(Ordering::SeqCst), 42);
    // W = 2: every reference is a unit of its own, and the setter holds
    // none. The input's body waits at a gate, so its sweep still holds its
    // reference (with a counted setter this read 4 here too).
    let out = Arc::new(AtomicU64::new(0));
    let o = Arc::clone(&out);
    run(2, move |mut ctx| {
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let a = ctx.future(move |_| {
            while !g.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            40u64
        });
        let born = (settles_at(&a, 2), a.strong_count());
        let b = ctx.future(|_| 2u64);
        let j = ctx.future_join(&a, &b, |_, x, y| x + y);
        let joined = (settles_at(&a, 3), a.strong_count());
        // Open the gate before asserting: a failed assertion drains the
        // run, which waits for the body.
        gate.store(true, Ordering::Release);
        assert!(born.0, "born at W=2: handle and sweep, read {}", born.1);
        assert!(
            joined.0,
            "input at W=2: handle, sweep and the join's reference, read {}",
            joined.1
        );
        ctx.touch(&j, move |_, v| o.store(*v, Ordering::SeqCst));
    });
    assert_eq!(out.load(Ordering::SeqCst), 42);
    ledger.close("structural counts", &[]);
}

/// A handle escapes to a plain thread, which clones and drops it in a loop
/// (the shared word, atomically) while the one-worker run takes and drops
/// its own references to the same core (the internal count, by load and
/// store). In even rounds the thread holds its handle past the run, so it
/// frees the core; in odd rounds it lets go while the run may still hold
/// references.
#[test]
fn an_escaped_handle_steps_the_shared_word_beside_the_run() {
    let s = serial();
    let ledger = Ledger::open(&s);
    let drops = Arc::new(AtomicU64::new(0));
    for round in 0..1000u64 {
        let stop = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicBool::new(false));
        let sum = Arc::new(AtomicU64::new(0));
        let thread = Arc::new(Mutex::new(None));
        let (d, s, st, go, th) = (
            Arc::clone(&drops),
            Arc::clone(&sum),
            Arc::clone(&stop),
            Arc::clone(&started),
            Arc::clone(&thread),
        );
        run(1, move |mut ctx| {
            let f = ctx.future(move |_| Tally(d));
            let escaped = f.clone();
            let (st2, go2) = (Arc::clone(&st), Arc::clone(&go));
            *th.lock().unwrap() = Some(std::thread::spawn(move || {
                go2.store(true, Ordering::Release);
                while !st2.load(Ordering::Acquire) {
                    drop(std::hint::black_box(escaped.clone()));
                }
                drop(escaped);
            }));
            while !go.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let then = ctx.future_then(&f, |_, _| 1u64);
            let join = ctx.future_join(&f, &then, |_, _, one| one + 1);
            let mut scope = ctx.into_scope();
            for h in [then, join] {
                let s = Arc::clone(&s);
                scope.fork(move |c| {
                    c.touch(&h, move |_, v| {
                        s.fetch_add(*v, Ordering::SeqCst);
                    })
                });
            }
            let s = Arc::clone(&s);
            scope.fork(move |c| {
                c.touch(&f, move |_, _| {
                    s.fetch_add(4, Ordering::SeqCst);
                })
            });
            if round % 2 == 1 {
                st.store(true, Ordering::Release);
            }
        });
        assert_eq!(sum.load(Ordering::SeqCst), 7, "round {round}");
        stop.store(true, Ordering::Release);
        let handle = thread.lock().unwrap().take().expect("the thread was started");
        handle.join().expect("the cloning thread");
        assert_eq!(
            drops.load(Ordering::SeqCst),
            round + 1,
            "round {round}: the value dropped once"
        );
    }
    ledger.close("escaped handles", &[]);
}

/// A touch made after the sweep has run, at W = 1: every reference the run
/// took is gone and the group's unit released, so the touch's waiting
/// vertex takes it back (count 0 → 1) under the toucher's handle.
#[test]
fn a_touch_after_the_sweep_retakes_the_group_unit() {
    let s = serial();
    let ledger = Ledger::open(&s);
    let drops = Arc::new(AtomicU64::new(0));
    let seen = Arc::new(AtomicU64::new(0));
    let (d, s) = (Arc::clone(&drops), Arc::clone(&seen));
    run(1, move |ctx| {
        let slot = Arc::new(Mutex::new(None::<FutureHandle<Tally>>));
        let put = Arc::clone(&slot);
        ctx.chain(
            move |mut c| {
                let f = c.future(move |_| Tally(d));
                *put.lock().unwrap() = Some(f);
            },
            move |c| {
                // `chain` ran this after the future's whole scope: its
                // sweep is done and dropped its reference.
                let f = slot.lock().unwrap().take().expect("the future");
                assert!(f.is_done());
                assert_eq!(f.strong_count(), 1, "after the sweep: the handle alone");
                let probe = f.clone();
                c.touch(&f, move |_, v| {
                    assert_eq!(v.0.load(Ordering::SeqCst), 0);
                    assert_eq!(probe.strong_count(), 2, "the probe and the retaken group unit");
                    s.store(1, Ordering::SeqCst);
                });
            },
        );
    });
    assert_eq!(seen.load(Ordering::SeqCst), 1, "the continuation ran");
    assert_eq!(drops.load(Ordering::SeqCst), 1, "the value dropped once");
    ledger.close("retake", &[]);
}

/// Touch and `future_then` an escaped handle from `ctx`, adding its value
/// and one more to `sum`.
fn use_escaped(mut ctx: Ctx<'_, DynSnzi>, f: FutureHandle<u64>, sum: Arc<AtomicU64>) {
    let then = ctx.future_then(&f, |_, v| v + 1);
    let s = Arc::clone(&sum);
    let mut scope = ctx.into_scope();
    scope.fork(move |c| {
        c.touch(&then, move |_, v| {
            s.fetch_add(*v, Ordering::SeqCst);
        })
    });
    scope.fork(move |c| {
        c.touch(&f, move |_, v| {
            sum.fetch_add(*v, Ordering::SeqCst);
        })
    });
}

/// A handle escapes its one-worker run and serves later runs: one of two
/// workers, one of one worker on another thread, and one nested in a
/// vertex of a one-worker run — where a future of the outer run, with
/// references of that run alive, is touched too.
#[test]
fn an_escaped_handle_serves_later_runs() {
    let s = serial();
    let ledger = Ledger::open(&s);
    let slot = Arc::new(Mutex::new(None::<FutureHandle<u64>>));
    let put = Arc::clone(&slot);
    run(1, move |mut ctx| {
        let f = ctx.future(|_| 10u64);
        let g = ctx.future_then(&f, |_, v| v * 2);
        *put.lock().unwrap() = Some(f);
        drop(g);
    });
    let f = slot.lock().unwrap().take().expect("escaped");
    assert_eq!(f.try_get(), Some(&10));
    assert_eq!(f.strong_count(), 1, "the escaped handle alone");

    let sum = Arc::new(AtomicU64::new(0));
    let (h, s) = (f.clone(), Arc::clone(&sum));
    run(2, move |ctx| use_escaped(ctx, h, s));
    assert_eq!(sum.load(Ordering::SeqCst), 21, "a later W=2 run");

    let sum = Arc::new(AtomicU64::new(0));
    let (h, s) = (f.clone(), Arc::clone(&sum));
    std::thread::spawn(move || run(1, move |ctx| use_escaped(ctx, h, s)))
        .join()
        .expect("a later W=1 run on another thread");
    assert_eq!(sum.load(Ordering::SeqCst), 21, "a later W=1 run on another thread");

    let sum = Arc::new(AtomicU64::new(0));
    let (h, s) = (f.clone(), Arc::clone(&sum));
    run(1, move |ctx| {
        let slot = Arc::new(Mutex::new(None::<FutureHandle<u64>>));
        let put = Arc::clone(&slot);
        ctx.chain(
            move |mut c| *put.lock().unwrap() = Some(c.future(|_| 5u64)),
            move |mut c| {
                let outer = slot.lock().unwrap().take().expect("the outer future");
                // A reference of the outer run, alive across the nested run.
                let later = c.future_then(&outer, |_, v| v + 100);
                let nested_sum = Arc::clone(&s);
                let o = outer.clone();
                run(1, move |mut n| {
                    let t = n.future_then(&o, |_, v| v * 3);
                    let ns = Arc::clone(&nested_sum);
                    n.fork(move |c| {
                        c.touch(&t, move |_, v| {
                            ns.fetch_add(*v, Ordering::SeqCst);
                        })
                    });
                    use_escaped(n, h, nested_sum);
                });
                // The nested run's references were units of their own, all
                // released; `later`'s capture is this run's, under the
                // group unit.
                assert_eq!(outer.strong_count(), 2, "the handle and the group unit");
                c.touch(&later, move |_, v| {
                    s.fetch_add(*v, Ordering::SeqCst);
                });
            },
        );
    });
    assert_eq!(sum.load(Ordering::SeqCst), 21 + 15 + 105, "a run nested in a one-worker vertex");
    assert_eq!(f.strong_count(), 1, "every later run let go");
    drop(f);
    ledger.close("later runs", &[]);
}

/// A poisoned future at W = 1: its touch, its `future_then` and a join over
/// it skip their continuations, and every core still dies once.
#[test]
fn a_poisoned_future_at_one_worker_releases_every_reference() {
    let s = serial();
    let ledger = Ledger::open(&s);
    let drops = Arc::new(AtomicU64::new(0));
    let ran = Arc::new(AtomicU64::new(0));
    let slot = Arc::new(Mutex::new(None::<FutureHandle<Tally>>));
    let (d, r, put) = (Arc::clone(&drops), Arc::clone(&ran), Arc::clone(&slot));
    let caught = catch_unwind(AssertUnwindSafe(move || {
        run(1, move |mut ctx| {
            let good = ctx.future(move |_| Tally(d));
            let bad = ctx.future(|_| -> Tally { panic!("core_refs: injected") });
            let then = ctx.future_then(&bad, |_, _| 1u64);
            let join = ctx.future_join(&good, &bad, |_, _, _| 2u64);
            *put.lock().unwrap() = Some(good.clone());
            let mut scope = ctx.into_scope();
            for h in [then, join] {
                let r = Arc::clone(&r);
                scope.fork(move |c| {
                    c.touch(&h, move |_, _| {
                        r.fetch_add(1, Ordering::SeqCst);
                    })
                });
            }
            let r = Arc::clone(&r);
            scope.fork(move |c| {
                c.touch(&bad, move |_, _| {
                    r.fetch_add(1, Ordering::SeqCst);
                })
            });
        });
    }));
    assert!(caught.is_err(), "the body's panic reaches the caller");
    assert_eq!(ran.load(Ordering::SeqCst), 0, "every continuation over the poison skipped");
    let good = slot.lock().unwrap().take().expect("escaped");
    assert_eq!(good.strong_count(), 1, "the escaped handle alone");
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(good);
    assert_eq!(drops.load(Ordering::SeqCst), 1, "the value dropped once");
    ledger.close("poisoned", &[]);
}
