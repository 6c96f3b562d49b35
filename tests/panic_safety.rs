//! Randomized testing of panic isolation (`docs/robustness.md`):
//! random series-parallel programs — spawn/chain structure plus forked
//! future+`touch` and strand `touch_await` stages — run with a panic
//! injected at a random site, and the drain-to-completion contract is
//! checked from the caller:
//!
//! 1. the injected payload propagates to the `run_dag` caller (first
//!    panic wins), and a panic-free program never panics;
//! 2. nothing hangs: every run is watchdog-bounded at 1 and 4 workers;
//! 3. exactly-once survives poisoning — every vertex the panic did not
//!    cut down still runs its body exactly once, a `touch` on the
//!    poisoned future skips its closure exactly once, and a
//!    `touch_await` on it panics with the descriptive poisoned message
//!    rather than hanging;
//! 4. the conservation identities of `tests/common`'s ledger close at
//!    quiescence even across a poisoned run, and the pairs born are the
//!    program's increments by `tests/common`'s model: a pair exists only
//!    where a scope forked, a panic removes none, a promoted left child
//!    adds one, and an unwinding right child adds one per left sibling it
//!    leaves waiting (checked when telemetry is compiled in).
//!
//! The file runs identically in every feature leg: it injects panics
//! with plain `panic!`, not failpoints, so `fault-inject` being absent
//! changes nothing.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::{panic_text, serial, watchdog, Ledger, Prog, INJECTED};
use incounter::{DynConfig, DynSnzi};
use sched::WatchdogCfg;
use spdag::{run_dag_watched, Ctx};

#[test]
fn random_programs_survive_an_injected_panic() {
    sched::rng::battery("random_programs_survive_an_injected_panic", 24, |rng| {
        let prog = Prog::draw(rng, 24);
        let (victim_pick, inject) = (rng.next_u64(), rng.next_below(2) == 1);
        let s = serial();
        let cells = prog.cells();
        let victim = inject.then(|| cells[victim_pick as usize % cells.len()]);
        for workers in [1usize, 4] {
            let ledger = Ledger::open(&s);
            let run = prog.run::<DynSnzi>(DynConfig::with_threshold(4), workers, victim);
            run.assert_drained();
            let what = format!("W={workers}, victim {victim:?}");
            if let Some((made, _)) = ledger.close(&what, &run.pools()) {
                run.assert_made(&made);
            }
        }
    });
}

/// Run `make`'s future — whose body panics with [`INJECTED`] — with one
/// `touch` dependent, watchdog-bounded (a hang fails fast), and check the
/// poisoning contract from the caller, where quiescence makes the state
/// definite: the payload propagates, the `touch` closure is skipped, the
/// future reads completed-without-value — `try_get` and `is_poisoned` stay
/// non-panicking probes for it — the run counts the one panic
/// (`sched.panics`, `spdag.body_panics`), and once the handle is dropped
/// the ledger closes.
fn run_poisoned(
    s: &common::Serial,
    workers: usize,
    make: fn(&mut Ctx<'_, DynSnzi>) -> spdag::FutureHandle<u64>,
) {
    let touched = Arc::new(AtomicU64::new(0));
    let escaped = Arc::new(Mutex::new(None));
    let (t, esc) = (Arc::clone(&touched), Arc::clone(&escaped));
    let ledger = Ledger::open(s);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_dag_watched::<DynSnzi, _>(DynConfig::default(), workers, watchdog(), move |mut ctx| {
            let f = make(&mut ctx);
            *esc.lock().unwrap() = Some(f.clone());
            ctx.touch(&f, move |_, _| {
                t.fetch_add(1, Ordering::SeqCst);
            });
        });
    }));
    assert!(panic_text(result.expect_err("must propagate").as_ref()).contains(INJECTED));
    assert_eq!(touched.load(Ordering::SeqCst), 0, "touch closure ran on a poisoned future");
    let f = escaped.lock().unwrap().take().expect("handle escaped the run");
    assert!(f.is_poisoned(), "a drained poisoned future reads as completed-without-value");
    assert!(f.try_get().is_none(), "try_get must stay a non-panicking probe");
    drop(f);
    if let Some((_, d)) = ledger.close("a poisoned future", &[]) {
        let panics = (d.counter("sched.panics"), d.counter("spdag.body_panics"));
        assert_eq!(panics, (1, 1), "(sched.panics, spdag.body_panics) of one poisoned run");
    }
}

/// A `touch` on the poisoned future skips its closure.
#[test]
fn poisoned_future_probes_and_touch_skip() {
    let s = serial();
    run_poisoned(&s, 2, |ctx| ctx.future(|_| -> u64 { panic!("{INJECTED}") }));
}

/// A body that panics *after* the consuming call that ended its vertex:
/// its children may already have finished on another worker, and the
/// future's sweep is waiting for the value setter to go. The unwind
/// drops the setter unused, so the future still completes — poisoned —
/// and the dag drains.
#[test]
fn panic_after_a_consuming_call_still_poisons_and_drains() {
    fn body(c: Ctx<'_, DynSnzi>) -> u64 {
        c.spawn(|_| {}, |_| {});
        std::thread::sleep(Duration::from_millis(5));
        panic!("{INJECTED}")
    }
    let s = serial();
    for workers in [1, 2] {
        run_poisoned(&s, workers, |ctx| ctx.future(body));
        run_poisoned(&s, workers, |ctx| {
            let input = ctx.future(|_| 1u64);
            ctx.future_then(&input, |c, _| body(c))
        });
    }
}

/// A worker body that genuinely stops retiring tasks trips the
/// watchdog: the run fails fast with the stall report as its payload
/// instead of hanging the caller forever.
#[test]
fn watchdog_fails_fast_on_a_stall() {
    let _g = serial();
    static RELEASE: AtomicBool = AtomicBool::new(false);
    let runner = std::thread::spawn(|| {
        catch_unwind(AssertUnwindSafe(|| {
            run_dag_watched::<DynSnzi, _>(
                DynConfig::default(),
                2,
                WatchdogCfg { stall_timeout: Duration::from_millis(250) },
                |mut ctx| {
                    ctx.fork(|_| {
                        while !RELEASE.load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    });
                },
            );
        }))
    });
    // Long past the stall timeout; then unstick the body so the worker
    // (and this test) can exit — the watchdog must already have fired.
    std::thread::sleep(Duration::from_secs(2));
    RELEASE.store(true, Ordering::Release);
    let result = runner.join().expect("runner thread");
    let msg = panic_text(result.expect_err("watchdog must fail the run").as_ref());
    assert!(msg.contains("sched watchdog"), "unexpected payload: {msg}");
}
