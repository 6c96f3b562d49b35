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
//! 3. **conservation** (with telemetry) — across both runs every vertex
//!    born is retired, every decrement pair freed, every out-set add swept
//!    or bounced, and no fault bought a thief more than one steal per
//!    `sched::STEAL_PAYS`.
//!
//! Every failure message names its battery and seed; re-running the test
//! replays the same plans. Without `fault-inject` only the baseline (an
//! empty plan) runs; the armed batteries are ignored.
//!
//! The plan, the panic hook and the counters are process-wide: the tests
//! serialize on one lock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dynsnzi::prelude::*;
use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
use sched::WatchdogCfg;
use spdag::run_dag_watched;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const WORKERS: usize = 4;

fn site(name: &str, mode: FaultMode) -> SiteSpec {
    SiteSpec { site: name.to_string(), mode }
}

/// One run under `plan`: the panic message if it panicked, and how many
/// failpoints fired.
fn run_once(plan: &FaultPlan, tasks: u64) -> (Option<String>, u64) {
    failpoint::install(plan);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let wd = WatchdogCfg { stall_timeout: Duration::from_secs(30) };
        run_dag_watched::<DynSnzi, _>(DynConfig::default(), WORKERS, wd, move |mut ctx| {
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
    let msg = result.err().map(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string())
    });
    (msg, injected)
}

/// Run the battery `name` — the sites `sites(seed)` arm — twice per seed
/// and check its three claims.
fn battery(name: &str, expect_panic: bool, sites: impl Fn(u64) -> Vec<SiteSpec>) {
    let _g = serial();
    let tasks = if cfg!(debug_assertions) { 512 } else { 2048 };
    let seeds: &[u64] = if failpoint::enabled() { &[0x00C0_FFEE, 0x0DDC_0DE5, 42] } else { &[42] };
    for &seed in seeds {
        let plan = FaultPlan::new(seed, sites(seed));
        let before = Snapshot::take();
        let start = Instant::now();
        // Injected panics are expected and caught: keep the default hook's
        // report out of the output while the runs are armed.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (r1, r2) = (run_once(&plan, tasks), run_once(&plan, tasks));
        std::panic::set_hook(hook);
        let wall = start.elapsed();
        let d = Snapshot::take().diff(&before);

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
        if !obs::enabled() {
            continue;
        }
        let vborn = d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse");
        let vdead = d.counter("sched.vertex_recycled") + d.counter("sched.vertex_dropped");
        assert_eq!(vborn, vdead, "{at}: vertices born != retired");
        let pairs = (d.counter("sched.pairs_born"), d.counter("sched.pairs_freed"));
        assert_eq!(pairs.0, pairs.1, "{at}: decrement pairs born != freed");
        let adds = d.counter("outset.adds");
        let delivered = d.counter("outset.adds_bounced") + d.counter("outset.swept");
        assert_eq!(adds, delivered, "{at}: out-set adds != bounced + swept");
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
