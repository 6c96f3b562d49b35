//! Behavioural edge cases of the worker pool, pinning semantics that the
//! dag layer relies on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sched::{run, run_watched, PoolStats, Termination, WatchdogCfg, STEAL_PAYS};

mod common;
use common::run_counted;

#[test]
fn done_flag_drains_own_deques_before_exit() {
    // finish() is observed between tasks; tasks already queued on a
    // worker's own deque still run (the dag layer guarantees the final
    // vertex really is last, so this only matters for generic use).
    let executed = AtomicU64::new(0);
    run(1, vec![0usize], Termination::DoneFlag, |ctx, task| {
        executed.fetch_add(1, Ordering::Relaxed);
        if task == 0 {
            for i in 1..=10 {
                ctx.push(i);
            }
            ctx.finish();
        }
    });
    assert_eq!(executed.load(Ordering::Relaxed), 11, "queued tasks drain even after finish()");
}

#[test]
fn many_workers_single_task() {
    let executed = AtomicU64::new(0);
    let stats = run_counted(8, vec![42usize], 1, |_, t| {
        assert_eq!(t, 42);
        executed.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(executed.load(Ordering::Relaxed), 1);
    assert_eq!(stats.tasks, 1);
    assert_eq!(stats.tasks_per_worker.len(), 8);
}

#[test]
fn deep_sequential_chain() {
    // Every task pushes exactly one successor: no parallelism at all,
    // and every one of them runs.
    let executed = AtomicU64::new(0);
    run_counted(4, vec![0usize], 5001, |ctx, task| {
        executed.fetch_add(1, Ordering::Relaxed);
        if task < 5000 {
            ctx.push(task + 1);
        }
    });
    assert_eq!(executed.load(Ordering::Relaxed), 5001);
}

#[test]
fn exponential_then_quiet_burst() {
    // Fan out 2^12 tasks then go quiet; all counted, none duplicated.
    let seen = Mutex::new(vec![false; 1 << 12]);
    run_counted(3, vec![1usize], (1 << 12) - 1, |ctx, task| {
        {
            let mut s = seen.lock().unwrap();
            assert!(!s[task], "task {task} executed twice");
            s[task] = true;
        }
        let (l, r) = (task * 2, task * 2 + 1);
        if l < 1 << 12 {
            ctx.push(l);
        }
        if r < 1 << 12 {
            ctx.push(r);
        }
    });
    let s = seen.into_inner().unwrap();
    assert!(s[1..].iter().all(|&b| b), "every task id 1.. executed");
}

#[test]
fn is_finished_visible_to_tasks() {
    let observed = AtomicU64::new(0);
    run_counted(2, vec![0usize, 1], 2, |ctx, _| {
        if !ctx.is_finished() {
            observed.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert!(observed.load(Ordering::Relaxed) >= 1);
}

#[test]
fn stats_accounting_sums() {
    let stats = run_counted(4, (0..256usize).collect(), 256, |_, t| {
        std::hint::black_box(t);
    });
    assert_eq!(stats.tasks, 256);
    assert_eq!(stats.tasks_per_worker.iter().sum::<u64>(), 256);
    // parks/steals are load-dependent; just require they are measured.
    let _ = (stats.steals, stats.parks);
}

#[test]
fn trickle_workload_wakes_at_most_once_per_task() {
    // A slow trickle: one task at a time with idle gaps, so workers park
    // between tasks. The notify_one wake chain must wake at most one
    // worker per unit of work (plus termination and handoff slack) — a
    // notify_all here would wake every sleeper for every push and the
    // wakeup count would scale with workers x tasks.
    let tasks = 200usize;
    let workers = 4usize;
    let stats = run_counted(workers, vec![0usize], tasks as u64, |ctx, t| {
        // Enough spinning for the other workers to run dry and park.
        for _ in 0..20_000 {
            std::hint::spin_loop();
        }
        if t + 1 < tasks {
            ctx.push(t + 1);
        }
    });
    assert_eq!(stats.tasks, tasks as u64);
    let slack = 4 * workers as u64; // termination broadcast + surplus handoffs
    assert!(
        stats.wakeups <= stats.tasks + slack,
        "wake chain regressed to a broadcast: {} wakeups for {} tasks ({} workers)",
        stats.wakeups,
        stats.tasks,
        workers
    );
    assert!(
        stats.spurious_wakes <= stats.parks,
        "spurious wakes {} cannot exceed parks {}",
        stats.spurious_wakes,
        stats.parks
    );
}

/// A serial chain of `links` one-push tasks — no parallelism at all, so
/// every steal moves the single live task and buys one link's work.
/// Returns the stats and the wall clock taken around `run`.
fn serial_chain(workers: usize, links: usize) -> (PoolStats, Duration) {
    let start = Instant::now();
    let stats = run(workers, vec![0usize], Termination::DoneFlag, |ctx, t| {
        if t + 1 < links {
            ctx.push(t + 1);
        } else {
            ctx.finish();
        }
    });
    let elapsed = start.elapsed();
    assert_eq!(stats.tasks, links as u64, "every link of the chain runs once");
    (stats, elapsed)
}

/// The pacing invariant: at least `STEAL_PAYS` passes between two steals
/// of one worker, so a run of `elapsed` makes at most this many.
fn steal_bound(workers: usize, elapsed: Duration) -> u64 {
    workers as u64 * (1 + (elapsed.as_nanos() / STEAL_PAYS.as_nanos()) as u64)
}

#[test]
fn steals_are_paced_by_the_wall_clock() {
    // The count is bounded by the wall clock, never the wall clock by a
    // constant: a slow host makes fewer steals *and* a larger bound.
    for workers in [2, 4] {
        let (stats, elapsed) = serial_chain(workers, 20_000);
        let bound = steal_bound(workers, elapsed);
        assert!(
            stats.steals <= bound,
            "W={workers}: {} steals in {elapsed:?}, but a steal every {STEAL_PAYS:?} per worker \
             allows {bound}",
            stats.steals
        );
    }
}

#[test]
fn coarse_tasks_are_never_rested() {
    // Every task outlasts `STEAL_PAYS` on its own, so whatever a steal
    // takes has paid by the time the thief's deque is dry again.
    let stats = run_counted(2, (0..64usize).collect(), 64, |_, _| {
        let start = Instant::now();
        while start.elapsed() < 4 * STEAL_PAYS {
            std::hint::spin_loop();
        }
    });
    assert_eq!(stats.tasks, 64);
    assert_eq!(stats.rests, 0, "a steal that paid was rested anyway ({} steals)", stats.steals);
}

#[test]
fn a_rest_follows_a_steal_and_is_not_a_park() {
    let (solo, _) = serial_chain(1, 20_000);
    assert_eq!((solo.steals, solo.rests), (0, 0), "one worker never steals, so never rests");
    for workers in [2, 4] {
        // The last link's `finish` ends the pool: a rester is woken by
        // that, never by a push, and `serial_chain` has checked that
        // every task was counted.
        let (stats, elapsed) = serial_chain(workers, 20_000);
        assert!(
            stats.rests <= stats.steals,
            "W={workers}: {} rests for {} steals",
            stats.rests,
            stats.steals
        );
        assert!(stats.steals <= steal_bound(workers, elapsed));
    }
}

#[test]
fn repeated_pools_do_not_leak_state() {
    for round in 0..100 {
        let executed = AtomicU64::new(0);
        run_counted(2, (0..16usize).collect(), 16, |_, _| {
            executed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(executed.load(Ordering::Relaxed), 16, "round {round}");
    }
}

#[test]
fn watched_run_returns_when_the_work_does() {
    // The watchdog sidecar polls every `stall_timeout / 8` and the pool
    // joins it: it must be woken by termination, not slept out (it used
    // to add 1.25 s to every run under a 10 s watchdog). Best of three,
    // so a descheduled test thread cannot fail a timing assert alone.
    let watchdog = WatchdogCfg { stall_timeout: Duration::from_secs(10) };
    let best = (0..3)
        .map(|_| {
            let start = Instant::now();
            let stats =
                run_watched(2, vec![0usize], Termination::DoneFlag, watchdog.clone(), |ctx, _| {
                    ctx.finish()
                });
            assert_eq!(stats.tasks, 1);
            start.elapsed()
        })
        .min()
        .unwrap();
    assert!(best < Duration::from_millis(100), "a no-op watched run took {best:?}");
}
