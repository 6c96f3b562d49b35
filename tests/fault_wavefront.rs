//! Failpoint batteries over a future wavefront (`--features fault-inject`;
//! compiled to nothing without it).
//!
//! 1. `spdag.panic_vertex` stands in for a *user* body that panics, so it
//!    is eligible on every vertex but the two whose body is the runtime's
//!    own — a future's completion vertex (the seal-and-sweep), built when
//!    the future's scope forks, and the dag's final vertex. A vertex that
//!    carries a future's completion runs a user's body, and sweeps after
//!    it in its epilogue, so an injected panic there still completes the
//!    future. Since no vertex owns a counter at birth any more, that
//!    is a bit on the vertex (`Vertex::runtime_body`), not "owns no
//!    counter"; with the old guard an injected panic would now reach the
//!    sweep, skip it with its frame and strand every registered dependent.
//!    The battery arms the failpoint on each eligible execution of a
//!    wavefront in turn — future bodies, `touch` continuations, fork arms,
//!    a strand's first run and its resumptions — and sees the dag drain:
//!    the injected payload reaches the caller, the ledger of `tests/common`
//!    closes — every out-set add is swept or bounced, everything born dies,
//!    every park is repaid — and every future is fulfilled.
//! 2. `spdag.force_bounce` holds a `touch_await` registration until the
//!    future seals: the bounce disarms the park word (2 → 0 with nothing
//!    delivered), and the strand's next await must arm it again.
//!
//! The failpoint plan is process-global: the tests serialize on the
//! binary's lock.
#![cfg(feature = "fault-inject")]

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use common::{panic_text, serial, watchdog, Ledger};
use dynsnzi::prelude::*;
use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
use spdag::run_dag_watched;

const STAGES: usize = 3;
const WIDTH: usize = 3;

/// `STAGES` rows of `WIDTH` `future_join` cells over a row of plain
/// futures, folded by a forked `touch` per last-row cell and one strand
/// that awaits them all. `delivered` counts the folds that saw a value.
fn wavefront(workers: usize, delivered: Arc<AtomicU64>) {
    run_dag_watched::<DynSnzi, _>(DynConfig::default(), workers, watchdog(), move |mut ctx| {
        let mut row: Vec<FutureHandle<u64>> =
            (0..WIDTH as u64).map(|i| ctx.future(move |_| i)).collect();
        for _ in 0..STAGES {
            row = (0..WIDTH)
                .map(|i| ctx.future_join(&row[i], &row[(i + 1) % WIDTH], |_, a, b| a + b))
                .collect();
        }
        for cell in &row {
            let (cell, d) = (cell.clone(), Arc::clone(&delivered));
            ctx.fork(move |c| {
                c.touch(&cell, move |_, _| {
                    d.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
        ctx.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
            for cell in &row {
                let _ = *strand_await!(c, cell);
            }
            delivered.fetch_add(1, Ordering::Relaxed);
            StrandPoll::Done(())
        });
    });
}

fn plan(mode: FaultMode) -> FaultPlan {
    FaultPlan::new(1, vec![SiteSpec { site: "spdag.panic_vertex".into(), mode }])
}

#[test]
fn every_eligible_vertex_of_a_wavefront_can_panic() {
    let s = serial();
    // How many executions are eligible: a W=1 run repeats exactly, so count
    // the site's calls under a plan that never fires.
    failpoint::install(&plan(FaultMode::Nth(u64::MAX)));
    let delivered = Arc::new(AtomicU64::new(0));
    wavefront(1, Arc::clone(&delivered));
    let eligible = failpoint::tallies()[0].1;
    failpoint::clear();
    assert_eq!(delivered.load(Ordering::Relaxed), WIDTH as u64 + 1);
    // Per future a body and, for a join, two touch continuations; per fold
    // its fork arm and continuation; the root; the strand's first run and
    // at least one resumption. The final vertex is not among them, nor
    // would a completion vertex be (none is built here: no future's scope
    // forks, so each future's last vertex sweeps in its epilogue, after
    // the body the failpoint stands in for).
    let futures = (WIDTH + STAGES * WIDTH) as u64;
    let floor = futures + 2 * (STAGES * WIDTH) as u64 + 2 * WIDTH as u64 + 3;
    assert!(eligible >= floor, "{eligible} eligible executions, expected at least {floor}");

    for workers in [1usize, 2] {
        // At W=2 the strand's parks, hence the count, are the schedule's:
        // a plan aimed past the last execution injects nothing and the run
        // must then be clean.
        for nth in 1..=eligible {
            failpoint::install(&plan(FaultMode::Nth(nth)));
            let ledger = Ledger::open(&s);
            let delivered = Arc::new(AtomicU64::new(0));
            let d = Arc::clone(&delivered);
            let result = catch_unwind(AssertUnwindSafe(|| wavefront(workers, d)));
            let injected = failpoint::injected_count();
            failpoint::clear();
            let what = format!("W={workers}, panic at eligible execution {nth} of {eligible}");
            match result {
                Ok(()) => {
                    assert_eq!(injected, 0, "{what}: an injected panic must reach the caller");
                    assert_eq!(delivered.load(Ordering::Relaxed), WIDTH as u64 + 1, "{what}");
                }
                Err(payload) => {
                    assert_eq!(injected, 1, "{what}");
                    let msg = panic_text(payload.as_ref());
                    // First panic wins: not a poisoned await that followed
                    // it, and not a watchdog report — nothing stalled.
                    assert!(msg.contains("spdag.panic_vertex"), "{what}: propagated {msg:?}");
                }
            }
            if let Some((_, d)) = ledger.close(&what, &[]) {
                let fulfilled = d.counter("spdag.fulfills");
                assert_eq!(fulfilled, d.counter("spdag.futures_created"), "{what}: sweeps");
            }
        }
    }
}

#[test]
fn a_bounced_registration_disarms_the_park_word() {
    let s = serial();
    let site = SiteSpec { site: "spdag.force_bounce".into(), mode: FaultMode::Nth(1) };
    for round in 0..50 {
        failpoint::install(&FaultPlan::new(round, vec![site.clone()]));
        let ledger = Ledger::open(&s);
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        let stats = run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
            let awaiting = Arc::new(AtomicBool::new(false));
            let parked = Arc::new(AtomicBool::new(false));
            // Unready when the strand first looks: its body waits for that
            // await to begin. The held registration then finds it sealed.
            let aw = Arc::clone(&awaiting);
            let racing = ctx.future(move |_| {
                while !aw.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                7u64
            });
            // Unready until the strand has parked on it.
            let pk = Arc::clone(&parked);
            let sure = ctx.future(move |_| {
                while !pk.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                35u64
            });
            ctx.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
                awaiting.store(true, Ordering::Release);
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
        let held = failpoint::injected_count();
        failpoint::clear();
        assert_eq!(out.load(Ordering::Relaxed), 42, "round {round}");
        assert!(stats.pool.suspends >= 1, "the second await parks by construction");
        // The round counts when the first await was held and bounced: one
        // park only (the second await's), after a disarm.
        let d = ledger.close(&format!("round {round}"), &[&stats.pool]);
        let bounced = d.is_none_or(|(_, d)| d.counter("outset.adds_bounced") == 1);
        if held == 1 && bounced && stats.pool.suspends == 1 {
            return;
        }
    }
    panic!("50 rounds and no held touch_await registration bounced");
}
