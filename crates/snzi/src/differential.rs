//! The exclusive steps are the shared steps when nothing interferes
//! (`crate::node`, "Two ways to commit a step").
//!
//! Three copies of one tree are driven through one seeded sequence of
//! operations — grow, arrive, depart on a [`SnziTree`]; arrive and depart
//! at leaves and at the root on a [`FixedSnzi`] — one copy committing every
//! step by compare-and-swap, one by load and store, one choosing per
//! operation. After every operation each return value, every packed word
//! (node `(c, v)`, root `(c, a, v)`, indicator `(ver, bit)`) and the trees'
//! shapes must agree, and under `telemetry` every node's touch tally, the
//! chain maxima and the lost grows too (the trees' `ContentionProfile`s).

use std::array::from_fn;

use crate::coin::{Probability, XorShift64Star};
use crate::node::{Exclusive, OpPath, Shared};
use crate::{FixedSnzi, Handle, SnziTree};

/// Copy 0 commits by CAS, copy 1 by load and store, copy 2 flips a coin
/// per operation.
fn exclusive(copy: usize, mix: &mut XorShift64Star) -> bool {
    match copy {
        0 => false,
        1 => true,
        _ => mix.next_u64() & 1 == 1,
    }
}

fn assert_same<T: PartialEq + std::fmt::Debug>(got: [T; 3], what: &str) {
    assert!(got[0] == got[1] && got[1] == got[2], "{what}: shared / exclusive / mixed = {got:?}");
}

fn drive_tree(p: Probability, initial: u64, seed: u64, steps: usize) {
    let trees: [SnziTree; 3] = from_fn(|_| SnziTree::with_probability(initial, p));
    // One growth coin per copy, seeded alike: the three shapes stay equal.
    let mut coins: [XorShift64Star; 3] = from_fn(|_| XorShift64Star::new(seed ^ 0xC0FF_EE00));
    let mut mix = XorShift64Star::new(seed ^ 0x5EED);
    let mut ops = XorShift64Star::new(seed);
    // handles[i][k]: copy k's handle on node i; node 0 is the root.
    let mut handles: Vec<[Handle; 3]> = vec![from_fn(|k| trees[k].root_handle())];
    let mut grown = vec![false];
    // Completed arrivals not yet departed, by node: the initial surplus
    // sits at the root.
    let mut arrivals: Vec<usize> = vec![0; initial as usize];
    for step in 0..steps {
        let at = format!("p = {} seed {seed} step {step}", p.as_f64());
        let what = ops.next_below(8);
        if what < 2 {
            let i = ops.next_below(handles.len());
            // SAFETY: every handle belongs to its copy's tree, alive here.
            let got: [(Handle, Handle); 3] =
                from_fn(|k| unsafe { trees[k].grow_with(handles[i][k], &mut coins[k]) });
            let has: [bool; 3] = from_fn(|k| got[k].0.addr() != handles[i][k].addr());
            assert_same(has, &format!("{at}: grow found children"));
            if has[0] && !grown[i] {
                grown[i] = true;
                handles.push(from_fn(|k| got[k].0));
                handles.push(from_fn(|k| got[k].1));
                grown.extend([false, false]);
            }
        } else if what < 5 || arrivals.is_empty() {
            let i = ops.next_below(handles.len());
            let got: [OpPath; 3] = from_fn(|k| {
                // SAFETY: as above; the sequence runs on one thread, so no
                // operation overlaps another and either step is allowed.
                unsafe {
                    if exclusive(k, &mut mix) {
                        trees[k].arrive_with::<Exclusive>(handles[i][k])
                    } else {
                        trees[k].arrive_with::<Shared>(handles[i][k])
                    }
                }
            });
            assert_same(got, &format!("{at}: arrive path"));
            arrivals.push(i);
        } else {
            let i = arrivals.swap_remove(ops.next_below(arrivals.len()));
            let got: [(bool, OpPath); 3] = from_fn(|k| {
                // SAFETY: as above, and the depart matches a completed
                // arrival at the same node that no other depart consumes.
                unsafe {
                    if exclusive(k, &mut mix) {
                        trees[k].depart_with::<Exclusive>(handles[i][k])
                    } else {
                        trees[k].depart_with::<Shared>(handles[i][k])
                    }
                }
            });
            assert_same(got, &format!("{at}: depart (ended, path)"));
            assert_eq!(got[0].0, arrivals.is_empty(), "{at}: the last depart ends the period");
        }
        assert_same(from_fn(|k| trees[k].state_for_test()), &format!("{at}: words"));
        assert_same(from_fn(|k| trees[k].contention_profile()), &format!("{at}: profile"));
        assert_same(from_fn(|k| trees[k].query()), &format!("{at}: query"));
    }
}

#[test]
fn snzi_trees_step_alike_in_both_modes() {
    let default = Probability::default_for_cores(2);
    for p in [Probability::ALWAYS, Probability::NEVER, default] {
        for seed in 1..=8u64 {
            for initial in [0, 1] {
                drive_tree(p, initial, seed * 0x9E37_79B9 + initial, 600);
            }
        }
    }
}

/// Where a completed arrival on a [`FixedSnzi`] sits.
#[derive(Clone, Copy)]
enum At {
    Root,
    Leaf(usize),
}

fn drive_fixed(depth: u32, initial: u64, seed: u64, steps: usize) {
    let trees: [FixedSnzi; 3] = from_fn(|_| FixedSnzi::new(depth, initial));
    let mut mix = XorShift64Star::new(seed ^ 0x5EED);
    let mut ops = XorShift64Star::new(seed);
    let mut arrivals: Vec<At> = vec![At::Root; initial as usize];
    for step in 0..steps {
        let at = format!("depth {depth} seed {seed} step {step}");
        if ops.next_below(2) == 0 || arrivals.is_empty() {
            let leaf = trees[0].leaf_for_key(ops.next_u64());
            for (k, tree) in trees.iter().enumerate() {
                if exclusive(k, &mut mix) {
                    // SAFETY: one thread, so no operation overlaps another.
                    unsafe { tree.arrive_leaf_exclusive(leaf) };
                } else {
                    tree.arrive_leaf(leaf);
                }
            }
            arrivals.push(At::Leaf(leaf));
        } else {
            let which = arrivals.swap_remove(ops.next_below(arrivals.len()));
            let got: [bool; 3] = from_fn(|k| {
                let excl = exclusive(k, &mut mix);
                // SAFETY: as above; the depart matches a completed arrival.
                unsafe {
                    match (which, excl) {
                        (At::Root, false) => trees[k].depart_root(),
                        (At::Root, true) => trees[k].depart_root_exclusive(),
                        (At::Leaf(l), false) => trees[k].depart_leaf(l),
                        (At::Leaf(l), true) => trees[k].depart_leaf_exclusive(l),
                    }
                }
            });
            assert_same(got, &format!("{at}: depart ended"));
            assert_eq!(got[0], arrivals.is_empty(), "{at}: the last depart ends the period");
        }
        assert_same(from_fn(|k| trees[k].state_for_test()), &format!("{at}: words and profile"));
    }
}

#[test]
fn fixed_trees_step_alike_in_both_modes() {
    for depth in 0..=4 {
        for seed in 1..=6u64 {
            for initial in [0, 1] {
                drive_fixed(depth, initial, seed * 0x51_7CC1 + initial, 400);
            }
        }
    }
}
