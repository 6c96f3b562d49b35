//! Seeded fault-injection batteries (`sched::failpoint`,
//! `docs/robustness.md`): each battery arms a failpoint plan — lost and
//! delayed wakes, recycler misses, lost block installs, forced bounces, a
//! panic on the Nth vertex execution, or several at once — and runs a dag
//! of forked future + `touch` pairs twice under it, watchdog-bounded, per
//! seed. Each battery is held to three claims:
//!
//! 1. **outcome** — both runs complete; for the panic battery the injected
//!    panic reaches the caller (injected exactly once per run) with the
//!    pool drained rather than hung;
//! 2. **replay** — the second run reproduces the first's outcome: decision
//!    `k` at site `s` is pure in `(seed, s, k)`;
//! 3. **conservation** (with telemetry) — across both runs the ledger of
//!    `tests/common` closes: everything born dies, every out-set add is
//!    swept or bounced, every park repaid; and no fault bought a thief more
//!    than one steal per `sched::STEAL_PAYS`.
//!
//! Every failure message names its battery and seed; re-running the test
//! replays the same plans. Without `fault-inject` only the baseline (an
//! empty plan) runs; the armed batteries are ignored.
//!
//! The plan, the panic hook and the counters are process-wide: the tests
//! serialize on the binary's lock.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use common::{panic_text, serial, watchdog, Ledger};
use dynsnzi::prelude::*;
use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
use spdag::run_dag_watched;

const WORKERS: usize = 4;

fn site(name: &str, mode: FaultMode) -> SiteSpec {
    SiteSpec { site: name.to_string(), mode }
}

/// One run under `plan`: the panic message if it panicked, and how many
/// failpoints fired.
fn run_once(plan: &FaultPlan, tasks: u64) -> (Option<String>, u64) {
    failpoint::install(plan);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_dag_watched::<DynSnzi, _>(DynConfig::default(), WORKERS, watchdog(), move |mut ctx| {
            for i in 0..tasks {
                ctx.fork(move |mut c: Ctx<'_, DynSnzi>| {
                    let f = c.future(move |_| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    c.touch(&f, |_, v| {
                        std::hint::black_box(*v);
                    });
                });
            }
        });
    }));
    let injected = failpoint::injected_count();
    failpoint::clear();
    (result.err().map(|p| panic_text(p.as_ref())), injected)
}

/// Run the battery `name` — the sites `sites(seed)` arm — twice per seed
/// and check its three claims.
fn battery(name: &str, expect_panic: bool, sites: impl Fn(u64) -> Vec<SiteSpec>) {
    let s = serial();
    let tasks = if cfg!(debug_assertions) { 512 } else { 2048 };
    let seeds: &[u64] = if failpoint::enabled() { &[0x00C0_FFEE, 0x0DDC_0DE5, 42] } else { &[42] };
    for &seed in seeds {
        let plan = FaultPlan::new(seed, sites(seed));
        let ledger = Ledger::open(&s);
        let start = Instant::now();
        // Injected panics are expected and caught: keep the default hook's
        // report out of the output while the runs are armed.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (r1, r2) = (run_once(&plan, tasks), run_once(&plan, tasks));
        std::panic::set_hook(hook);
        let wall = start.elapsed();

        let at = format!("battery `{name}`, seed {seed:#x}, W={WORKERS}, {tasks} tasks");
        if expect_panic {
            for (msg, injected) in [&r1, &r2] {
                assert_eq!(*injected, 1, "{at}: an Nth plan fires once a run");
                let msg = msg.as_deref().unwrap_or("<completed>");
                assert!(msg.contains("spdag.panic_vertex"), "{at}: the caller saw {msg}");
            }
        } else {
            assert_eq!((&r1.0, &r2.0), (&None, &None), "{at}: a run panicked");
        }
        // `OneIn` tallies follow how often the schedule reaches a site, so
        // the replay compares outcomes; an `Nth` tally is exact (above).
        assert_eq!(r1.0, r2.0, "{at}: the replay diverged");
        let Some((_, d)) = ledger.close(&at, &[]) else { continue };
        let steals = d.counter("sched.steals");
        let paced = WORKERS as u64 * (2 + (wall.as_nanos() / sched::STEAL_PAYS.as_nanos()) as u64);
        assert!(steals <= paced, "{at}: {steals} steals in {wall:?} over two runs > {paced}");
    }
}

#[test]
fn baseline() {
    battery("baseline", false, |_| Vec::new());
}

#[test]
#[cfg_attr(not(feature = "fault-inject"), ignore = "arms failpoints: needs `fault-inject`")]
fn lost_wake() {
    battery("lost-wake", false, |_| {
        vec![
            site("sched.lost_wake", FaultMode::OneIn(3)),
            site("sched.delayed_wake", FaultMode::OneIn(5)),
        ]
    });
}

#[test]
#[cfg_attr(not(feature = "fault-inject"), ignore = "arms failpoints: needs `fault-inject`")]
fn recycle_miss() {
    battery("recycle-miss", false, |_| vec![site("sched.recycle_miss", FaultMode::OneIn(2))]);
}

#[test]
#[cfg_attr(not(feature = "fault-inject"), ignore = "arms failpoints: needs `fault-inject`")]
fn install_cas() {
    battery("install-cas", false, |_| vec![site("outset.install_cas", FaultMode::OneIn(2))]);
}

#[test]
#[cfg_attr(not(feature = "fault-inject"), ignore = "arms failpoints: needs `fault-inject`")]
fn force_bounce() {
    battery("force-bounce", false, |_| vec![site("spdag.force_bounce", FaultMode::OneIn(3))]);
}

#[test]
#[cfg_attr(not(feature = "fault-inject"), ignore = "arms failpoints: needs `fault-inject`")]
fn panic_vertex() {
    // The seed picks the victim, so each seed kills a different vertex;
    // from the 8th on, past the root, so the dag has structure to drain.
    battery("panic-vertex", true, |seed| {
        vec![site("spdag.panic_vertex", FaultMode::Nth(seed % 40 + 8))]
    });
}

#[test]
#[cfg_attr(not(feature = "fault-inject"), ignore = "arms failpoints: needs `fault-inject`")]
fn everything() {
    battery("everything", false, |_| {
        vec![
            site("sched.lost_wake", FaultMode::OneIn(5)),
            site("sched.recycle_miss", FaultMode::OneIn(3)),
            site("outset.install_cas", FaultMode::OneIn(3)),
            site("spdag.force_bounce", FaultMode::OneIn(5)),
        ]
    });
}
