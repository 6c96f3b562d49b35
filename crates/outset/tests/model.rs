//! Exactly-once delivery model tests for both out-set families.
//!
//! The contract under test (the crate's whole point): for every token
//! whose `add` returned `Registered`, the finish sweep delivers it exactly
//! once; for every `add` that returned `Finished(t)`, the caller-side
//! inline delivery is the only delivery of `t`. Union over both sides =
//! every token, each exactly once — under arbitrary add/finish races.

use std::sync::{Arc, Barrier, Mutex};

use outset::tree::TreeOutsetObj;
use outset::{AddEdge, MutexOutset, OutsetFamily, TreeOutset};

mod common;

/// Spawn `threads` adders racing one finisher; return (swept, inline).
fn race<F: OutsetFamily>(
    threads: usize,
    adds_per_thread: u64,
    finisher_delay_adds: u64,
) -> (Vec<u64>, Vec<u64>) {
    let set = Arc::new(F::make());
    let barrier = Arc::new(Barrier::new(threads + 1));
    let inline = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let set = Arc::clone(&set);
            let barrier = Arc::clone(&barrier);
            let inline = Arc::clone(&inline);
            handles.push(scope.spawn(move || {
                barrier.wait();
                let mut mine = Vec::new();
                // Adds landing after the concurrent finish seals take the
                // post-seal fast path and come back as Finished.
                for i in 0..adds_per_thread {
                    let token = (tid as u64) * adds_per_thread + i;
                    match F::add(&set, token, tid as u64) {
                        AddEdge::Registered => {}
                        AddEdge::Finished(t) => mine.push(t),
                    }
                }
                inline.lock().unwrap().extend(mine);
            }));
        }
        barrier.wait();
        // Let roughly `finisher_delay_adds` adds land first, then finish
        // concurrently with the rest.
        for _ in 0..finisher_delay_adds {
            std::hint::spin_loop();
        }
        let mut swept = Vec::new();
        assert!(F::finish(&set, &mut |t| swept.push(t)), "first finish must seal");
        for h in handles {
            h.join().unwrap();
        }
        let inline = Arc::try_unwrap(inline).unwrap().into_inner().unwrap();
        (swept, inline)
    })
}

fn check_exactly_once<F: OutsetFamily>(threads: usize, adds: u64, delay: u64) {
    let (swept, inline) = race::<F>(threads, adds, delay);
    let mut all = swept;
    all.extend(&inline);
    all.sort_unstable();
    let expect: Vec<u64> = (0..threads as u64 * adds).collect();
    assert_eq!(
        all,
        expect,
        "{}: union of swept+inline must be every token exactly once \
         (threads={threads}, adds={adds}, delay={delay})",
        F::NAME
    );
}

#[test]
fn tree_exactly_once_across_race_timings() {
    for &(threads, adds, delay) in &[
        (1usize, 500u64, 0u64),
        (2, 2000, 0),
        (4, 2000, 1000),
        (4, 500, 100_000),
        (8, 1000, 10_000),
    ] {
        for _ in 0..8 {
            check_exactly_once::<TreeOutset>(threads, adds, delay);
        }
    }
}

#[test]
fn mutex_exactly_once_across_race_timings() {
    for &(threads, adds, delay) in &[(2usize, 2000u64, 0u64), (4, 1000, 10_000)] {
        for _ in 0..8 {
            check_exactly_once::<MutexOutset>(threads, adds, delay);
        }
    }
}

#[test]
fn concurrent_double_finish_single_seal() {
    // Many racing finishers: exactly one seals, and the union of their
    // sweeps plus inline deliveries is still exactly-once.
    for _ in 0..20 {
        let set = Arc::new(<TreeOutset as OutsetFamily>::make());
        for t in 0..256u64 {
            match TreeOutset::add(&set, t, t) {
                AddEdge::Registered => {}
                AddEdge::Finished(_) => unreachable!("unsealed"),
            }
        }
        let barrier = Arc::new(Barrier::new(4));
        let results: Vec<_> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let set = Arc::clone(&set);
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let mut swept = Vec::new();
                        let sealed = TreeOutset::finish(&set, &mut |t| swept.push(t));
                        (sealed, swept)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(
            results.iter().filter(|(sealed, _)| *sealed).count(),
            1,
            "exactly one finisher seals"
        );
        let mut all: Vec<u64> = results.into_iter().flat_map(|(_, v)| v).collect();
        all.sort_unstable();
        assert_eq!(all, (0..256u64).collect::<Vec<_>>());
    }
}

/// Like `race`, but on a concrete `TreeOutsetObj` so the splits and probes
/// are in play: `threads` adders race one finisher — and, if `splitter`
/// is `Some(pause)`, a thread that splits the table meanwhile
/// (`common::split_until_sealed`) — on a set built by `make`;
/// exactly-once over swept ∪ inline is asserted.
fn race_tree(
    make: impl Fn() -> TreeOutsetObj,
    threads: usize,
    adds: u64,
    delay: u64,
    splitter: Option<u32>,
) -> TreeOutsetObj {
    let set = Arc::new(make());
    let barrier = Arc::new(Barrier::new(threads + 1 + splitter.is_some() as usize));
    let inline = Arc::new(Mutex::new(Vec::new()));
    let swept = std::thread::scope(|scope| {
        for tid in 0..threads {
            let set = Arc::clone(&set);
            let barrier = Arc::clone(&barrier);
            let inline = Arc::clone(&inline);
            scope.spawn(move || {
                barrier.wait();
                let mut mine = Vec::new();
                for i in 0..adds {
                    let token = (tid as u64) * adds + i;
                    if let AddEdge::Finished(t) = set.add(token, tid as u64) {
                        mine.push(t);
                    }
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
        for _ in 0..delay {
            std::hint::spin_loop();
        }
        let mut swept = Vec::new();
        assert!(set.finish(&mut |t| swept.push(t)), "first finish must seal");
        swept
    });
    let inline = Arc::try_unwrap(inline).unwrap().into_inner().unwrap();
    let mut all = swept;
    all.extend(&inline);
    all.sort_unstable();
    assert_eq!(all, (0..threads as u64 * adds).collect::<Vec<_>>(), "exactly-once across race");
    Arc::try_unwrap(set).ok().expect("all clones joined")
}

#[test]
fn growth_races_preserve_exactly_once() {
    // The add ∥ grow ∥ finish triangle: a splitter thread doubles the
    // table toward its cap while the adders claim and the finisher
    // sweeps, so table swaps race both the claim path and the sweep.
    // Exactly-once must hold whether or not a split landed before the
    // seal in a given run.
    for &(threads, adds, delay) in
        &[(2usize, 2000u64, 0u64), (4, 2000, 0), (4, 1000, 50_000), (8, 500, 10_000)]
    {
        for pause in [0, 1_000, 10_000, 100_000].into_iter().cycle().take(8) {
            let set = race_tree(TreeOutsetObj::new, threads, adds, delay, Some(pause));
            assert!(set.lane_count() <= TreeOutsetObj::max_lanes());
            assert_eq!(set.splits(), set.lane_count().trailing_zeros() as usize);
        }
    }
}

#[test]
fn inline_born_then_split_races_exactly_once() {
    // The same triangle from a start no adder can produce by itself: an
    // out-set born on its inline lane, split twice while quiet, then
    // *moved* (out of the constructor, into the harness's `Arc`) before
    // adders, the splitter and the finisher meet. Lane 0 of the grown
    // table is the inline head word, reached through the null-lane rule;
    // tid 0's adds hash there.
    for &(threads, adds, delay) in &[(2usize, 2000u64, 0u64), (4, 1000, 20_000), (8, 500, 0)] {
        for pause in [0, 1_000, 10_000, 100_000].into_iter().cycle().take(8) {
            let set = race_tree(
                || {
                    let set = TreeOutsetObj::new();
                    assert!(set.force_split() && set.force_split());
                    set
                },
                threads,
                adds,
                delay,
                Some(pause),
            );
            assert!((4..=TreeOutsetObj::max_lanes()).contains(&set.lane_count()));
            assert_eq!(set.splits(), set.lane_count().trailing_zeros() as usize);
        }
    }
}

#[test]
fn lane1_fast_path_add_finish_race() {
    // The start every out-set has: one lane, no splitter — the add/finish
    // slot protocol, with whatever splits the adders' own lost installs
    // draw, must be exactly-once under the heaviest interleaving pressure.
    for &(threads, adds, delay) in &[(2usize, 3000u64, 0u64), (4, 1500, 20_000), (8, 800, 0)] {
        for _ in 0..8 {
            let set = race_tree(TreeOutsetObj::new, threads, adds, delay, None);
            assert_eq!(set.splits(), set.lane_count().trailing_zeros() as usize);
        }
    }
}

#[test]
fn concurrent_force_splits_race_adders_and_finisher() {
    // Dedicated split hammer threads drive the table through every
    // generation while adders and a finisher run — the most table swaps
    // per token the structure can experience.
    for _ in 0..10 {
        let set = Arc::new(TreeOutsetObj::new());
        let barrier = Arc::new(Barrier::new(4));
        let inline = Arc::new(Mutex::new(Vec::new()));
        let adds = 1500u64;
        let swept = std::thread::scope(|scope| {
            for tid in 0..2u64 {
                let set = Arc::clone(&set);
                let barrier = Arc::clone(&barrier);
                let inline = Arc::clone(&inline);
                scope.spawn(move || {
                    barrier.wait();
                    let mut mine = Vec::new();
                    for i in 0..adds {
                        if let AddEdge::Finished(t) = set.add(tid * adds + i, tid) {
                            mine.push(t);
                        }
                    }
                    inline.lock().unwrap().extend(mine);
                });
            }
            {
                let set = Arc::clone(&set);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    while set.force_split() {
                        std::hint::spin_loop();
                    }
                });
            }
            barrier.wait();
            for _ in 0..5_000 {
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
        assert_eq!(all, (0..2 * adds).collect::<Vec<_>>());
    }
}

#[test]
fn adds_strictly_after_finish_always_bounce() {
    let set = <TreeOutset as OutsetFamily>::make();
    let mut swept = Vec::new();
    assert!(TreeOutset::finish(&set, &mut |t| swept.push(t)));
    std::thread::scope(|scope| {
        for tid in 0..4u64 {
            let set = &set;
            scope.spawn(move || {
                for i in 0..100 {
                    assert!(matches!(
                        TreeOutset::add(set, tid * 100 + i, tid),
                        AddEdge::Finished(_)
                    ));
                }
            });
        }
    });
    assert!(swept.is_empty());
}
