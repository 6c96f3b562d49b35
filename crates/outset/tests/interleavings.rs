//! Randomized testing of the out-set contract over random operation
//! interleavings, checked against a trivial reference model.
//!
//! Two layers:
//!
//! * a sequential driver applying a random schedule of `Add`/`Finish`/
//!   `LateAdd` steps against a model set (covers the one-shot seal logic
//!   and slot-state machine through every block boundary), and
//! * a randomized concurrent driver where the finish point and per-thread
//!   add counts are drawn per case, re-checking exactly-once delivery
//!   under real races (complementing the fixed timings in `model.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use outset::tree::TreeOutsetObj;
use outset::{AddEdge, MutexOutset, OutsetFamily, TreeOutset};
use sched::rng::battery;
use sched::XorShift64Star;

mod common;

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Add with this lane key.
    Add(u16),
    /// Seal the set (later occurrences become double-finish checks).
    Finish,
}

/// Fewer than `len` steps, three adds to a finish.
fn draw_steps(rng: &mut XorShift64Star, len: usize) -> Vec<Step> {
    let len = rng.next_below(len);
    (0..len)
        .map(|_| match rng.next_below(4) {
            0 => Step::Finish,
            _ => Step::Add(rng.next_u64() as u16),
        })
        .collect()
}

fn drive_sequential<F: OutsetFamily>(steps: &[Step]) {
    let set = F::make();
    let mut next_token = 0u64;
    let mut registered: Vec<u64> = Vec::new();
    let mut inline: Vec<u64> = Vec::new();
    let mut swept: Vec<u64> = Vec::new();
    let mut sealed = false;
    for &step in steps {
        match step {
            Step::Add(key) => {
                let token = next_token;
                next_token += 1;
                match F::add(&set, token, key as u64) {
                    AddEdge::Registered => {
                        assert!(!sealed, "{}: add registered after seal", F::NAME);
                        registered.push(token);
                    }
                    AddEdge::Finished(t) => {
                        assert!(sealed, "{}: add bounced before seal", F::NAME);
                        assert_eq!(t, token, "bounced token is the caller's own");
                        inline.push(t);
                    }
                }
            }
            Step::Finish => {
                let first = F::finish(&set, &mut |t| swept.push(t));
                assert_eq!(first, !sealed, "exactly the first finish seals");
                sealed = true;
            }
        }
        assert_eq!(F::is_finished(&set), sealed);
    }
    if !sealed {
        assert!(F::finish(&set, &mut |t| swept.push(t)));
    }
    swept.sort_unstable();
    registered.sort_unstable();
    assert_eq!(swept, registered, "{}: sweep = registered set, exactly once", F::NAME);
    let mut all = swept;
    all.extend(&inline);
    all.sort_unstable();
    assert_eq!(all, (0..next_token).collect::<Vec<_>>(), "{}: no token lost", F::NAME);
}

#[test]
fn sequential_schedules_tree() {
    battery("sequential_schedules_tree", 256, |rng| {
        drive_sequential::<TreeOutset>(&draw_steps(rng, 400));
    });
}

#[test]
fn sequential_schedules_mutex() {
    battery("sequential_schedules_mutex", 256, |rng| {
        drive_sequential::<MutexOutset>(&draw_steps(rng, 200));
    });
}

/// Concurrent exactly-once with a drawn shape: thread count, adds
/// per thread, and how many total adds the finisher waits for before
/// sealing mid-race.
fn drive_concurrent<F: OutsetFamily>(threads: usize, adds: u64, finish_after: u64) {
    let set = Arc::new(F::make());
    let barrier = Arc::new(Barrier::new(threads + 1));
    let done_adds = Arc::new(AtomicU64::new(0));
    let inline = Arc::new(Mutex::new(Vec::new()));
    let swept = std::thread::scope(|scope| {
        for tid in 0..threads {
            let set = Arc::clone(&set);
            let barrier = Arc::clone(&barrier);
            let done_adds = Arc::clone(&done_adds);
            let inline = Arc::clone(&inline);
            scope.spawn(move || {
                barrier.wait();
                let mut mine = Vec::new();
                for i in 0..adds {
                    let token = tid as u64 * adds + i;
                    if let AddEdge::Finished(t) = F::add(&set, token, tid as u64) {
                        mine.push(t);
                    }
                    done_adds.fetch_add(1, Ordering::Relaxed);
                }
                inline.lock().unwrap().extend(mine);
            });
        }
        barrier.wait();
        while done_adds.load(Ordering::Relaxed) < finish_after {
            std::hint::spin_loop();
        }
        let mut swept = Vec::new();
        assert!(F::finish(&set, &mut |t| swept.push(t)));
        swept
    });
    let inline = Arc::try_unwrap(inline).unwrap().into_inner().unwrap();
    let mut all = swept;
    all.extend(&inline);
    all.sort_unstable();
    assert_eq!(all, (0..threads as u64 * adds).collect::<Vec<_>>());
}

/// Twenty-four races of up to `threads_below - 1` adders with up to
/// `adds_below - 1` adds each, sealed after a drawn share of the adds.
fn concurrent_races<F: OutsetFamily>(name: &str, threads_below: usize, adds_below: usize) {
    battery(name, 24, |rng| {
        let threads = 1 + rng.next_below(threads_below - 1);
        let adds = 1 + rng.next_below(adds_below - 1) as u64;
        let frac = rng.next_below(100) as u64;
        drive_concurrent::<F>(threads, adds, threads as u64 * adds * frac / 100);
    });
}

#[test]
fn concurrent_races_tree() {
    concurrent_races::<TreeOutset>("concurrent_races_tree", 5, 800);
}

#[test]
fn concurrent_races_mutex() {
    concurrent_races::<MutexOutset>("concurrent_races_mutex", 4, 400);
}

/// As `drive_concurrent`, on a concrete tree split `presplit` times while
/// quiet and, when `splitter` is `Some(pause)`, split toward its cap by a
/// thread of its own (`common::split_until_sealed`). So the add ∥ grow ∥
/// finish triangle is explored across drawn shapes: no splits
/// but the adders' own, a few, or up to the cap, from single-lane and
/// pre-grown starts.
fn drive_concurrent_growth(
    threads: usize,
    adds: u64,
    finish_after: u64,
    presplit: usize,
    splitter: Option<u32>,
) {
    let set = Arc::new(TreeOutsetObj::new());
    for _ in 0..presplit {
        set.force_split();
    }
    let barrier = Arc::new(Barrier::new(threads + 1 + splitter.is_some() as usize));
    let done_adds = Arc::new(AtomicU64::new(0));
    let inline = Arc::new(Mutex::new(Vec::new()));
    let swept = std::thread::scope(|scope| {
        for tid in 0..threads {
            let set = Arc::clone(&set);
            let barrier = Arc::clone(&barrier);
            let done_adds = Arc::clone(&done_adds);
            let inline = Arc::clone(&inline);
            scope.spawn(move || {
                barrier.wait();
                let mut mine = Vec::new();
                for i in 0..adds {
                    let token = tid as u64 * adds + i;
                    if let AddEdge::Finished(t) = set.add(token, tid as u64) {
                        mine.push(t);
                    }
                    done_adds.fetch_add(1, Ordering::Relaxed);
                }
                inline.lock().unwrap().extend(mine);
            });
        }
        if let Some(pause) = splitter {
            let (set, barrier) = (Arc::clone(&set), Arc::clone(&barrier));
            scope.spawn(move || {
                barrier.wait();
                common::split_until_sealed(&set, pause);
            });
        }
        barrier.wait();
        while done_adds.load(Ordering::Relaxed) < finish_after {
            std::hint::spin_loop();
        }
        let mut swept = Vec::new();
        assert!(set.finish(&mut |t| swept.push(t)));
        swept
    });
    let inline = Arc::try_unwrap(inline).unwrap().into_inner().unwrap();
    let mut all = swept;
    all.extend(&inline);
    all.sort_unstable();
    assert_eq!(all, (0..threads as u64 * adds).collect::<Vec<_>>());
    assert!(set.lane_count() <= TreeOutsetObj::max_lanes(), "growth respects the cap");
    assert_eq!(set.splits(), set.lane_count().trailing_zeros() as usize);
}

#[test]
fn concurrent_races_growth() {
    battery("concurrent_races_growth", 24, |rng| {
        let threads = 1 + rng.next_below(4);
        let adds = 1 + rng.next_below(599) as u64;
        let frac = rng.next_below(100) as u64;
        let presplit = rng.next_below(3);
        let splitter = [None, Some(0u32), Some(500), Some(5_000)][rng.next_below(4)];
        let total = threads as u64 * adds;
        drive_concurrent_growth(threads, adds, total * frac / 100, presplit, splitter);
    });
}
