//! Who runs a `sched::run`: the caller and resident helpers, never a
//! thread born for the occasion. A binary of its own, its tests
//! serialized, because the helper set is process-wide and these tests
//! count its threads.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread::ThreadId;

mod common;
use common::run_counted;

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One `workers`-wide run in which every worker is made to take part: each
/// root waits for the others, so no worker can run two of them. Returns
/// the participants' thread ids.
fn full_house(workers: usize, also_wait_on: Option<&Barrier>) -> HashSet<ThreadId> {
    let ids = Mutex::new(HashSet::new());
    let all_in = Barrier::new(workers);
    let stats = run_counted(workers, (0..workers).collect(), workers as u64, |_, _task: usize| {
        ids.lock().unwrap().insert(std::thread::current().id());
        all_in.wait();
        if let Some(barrier) = also_wait_on {
            barrier.wait();
        }
    });
    assert_eq!(stats.tasks, workers as u64);
    let ids = ids.into_inner().unwrap();
    assert_eq!(ids.len(), workers, "one thread per worker");
    ids
}

#[test]
fn sequential_runs_are_served_by_the_same_threads() {
    let _serial = serial();
    let caller = std::thread::current().id();
    let mut seen = HashSet::new();
    for _ in 0..200 {
        let ids = full_house(3, None);
        assert!(ids.contains(&caller), "the caller is worker 0");
        seen.extend(ids);
    }
    assert_eq!(seen.len(), 3, "200 three-worker runs, three threads: {seen:?}");
}

#[test]
fn concurrent_runs_get_disjoint_helpers() {
    let _serial = serial();
    const CALLERS: usize = 4;
    const WORKERS: usize = 3;
    // Every task of every run waits here, so all four runs are in flight
    // at once and none can be served by a helper another one returned.
    let overlap = Barrier::new(CALLERS * WORKERS);
    let houses: Vec<HashSet<ThreadId>> = std::thread::scope(|scope| {
        let callers: Vec<_> =
            (0..CALLERS).map(|_| scope.spawn(|| full_house(WORKERS, Some(&overlap)))).collect();
        callers.into_iter().map(|caller| caller.join().expect("a caller panicked")).collect()
    });
    let all: HashSet<ThreadId> = houses.iter().flatten().copied().collect();
    assert_eq!(all.len(), CALLERS * WORKERS, "no thread served two runs at once: {houses:?}");
    // The set only grew to the demand: once they are all back, the same
    // four runs one after another need nobody new beyond their caller.
    for _ in 0..CALLERS {
        let ids = full_house(WORKERS, None);
        let new: Vec<_> = ids
            .iter()
            .filter(|id| **id != std::thread::current().id() && !all.contains(id))
            .collect();
        assert!(new.is_empty(), "a sequential run needed a new helper: {new:?}");
    }
}
