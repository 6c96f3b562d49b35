//! Randomized testing of the SNZI tree against a trivial reference
//! model: a multiset of outstanding arrivals. After every operation the
//! indicator must equal "outstanding > 0", and a departure must report
//! period-end exactly when it empties the multiset.

use sched::XorShift64Star;
use snzi::{Handle, Probability, SnziTree};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Arrive at handles[i % len].
    Arrive(usize),
    /// Grow at handles[i % len], registering the children as new handles.
    Grow(usize),
    /// Depart the (j % outstanding)th outstanding arrival.
    Depart(usize),
}

/// Up to 119 operations, each kind as likely, each index below 64.
fn draw_ops(rng: &mut XorShift64Star) -> Vec<Op> {
    let len = rng.next_below(120);
    (0..len)
        .map(|_| {
            let i = rng.next_below(64);
            [Op::Arrive, Op::Grow, Op::Depart][rng.next_below(3)](i)
        })
        .collect()
}

fn run_model(initial: u64, p: Probability, ops: &[Op]) {
    let tree = SnziTree::with_probability(initial, p);
    let mut handles: Vec<Handle> = vec![tree.root_handle()];
    // Outstanding arrivals: the handle index each arrive used. The tree's
    // initial surplus is modelled as `initial` outstanding root arrivals.
    let mut outstanding: Vec<usize> = vec![0; initial as usize];
    for &op in ops {
        match op {
            Op::Arrive(i) => {
                let idx = i % handles.len();
                // SAFETY: handle produced by this tree, tree alive.
                unsafe { tree.arrive(handles[idx]) };
                outstanding.push(idx);
            }
            Op::Grow(i) => {
                let idx = i % handles.len();
                // SAFETY: as above.
                let (a, b) = unsafe { tree.grow_always(handles[idx]) };
                if a.addr() != handles[idx].addr() {
                    handles.push(a);
                    handles.push(b);
                }
            }
            Op::Depart(j) => {
                if outstanding.is_empty() {
                    continue;
                }
                let pick = j % outstanding.len();
                let idx = outstanding.swap_remove(pick);
                // SAFETY: departs at the same node as a prior arrive that
                // no other depart consumed — validity by construction.
                let ended = unsafe { tree.depart(handles[idx]) };
                assert_eq!(
                    ended,
                    outstanding.is_empty(),
                    "depart must report period-end exactly when the \
                     model multiset empties"
                );
            }
        }
        assert_eq!(
            tree.query(),
            !outstanding.is_empty(),
            "indicator must equal model non-emptiness"
        );
    }
    // Drain whatever is left and watch the final period end.
    while let Some(idx) = outstanding.pop() {
        let ended = unsafe { tree.depart(handles[idx]) };
        assert_eq!(ended, outstanding.is_empty());
    }
    assert!(!tree.query());
}

#[test]
fn model_equivalence_fresh_tree() {
    sched::rng::battery("model_equivalence_fresh_tree", 192, |rng| {
        run_model(0, Probability::ALWAYS, &draw_ops(rng));
    });
}

#[test]
fn model_equivalence_initial_surplus() {
    sched::rng::battery("model_equivalence_initial_surplus", 192, |rng| {
        let initial = 1 + rng.next_below(4) as u64;
        run_model(initial, Probability::ALWAYS, &draw_ops(rng));
    });
}

#[test]
fn model_equivalence_no_growth() {
    // With growth disabled every handle aliases the root.
    sched::rng::battery("model_equivalence_no_growth", 192, |rng| {
        run_model(0, Probability::NEVER, &draw_ops(rng));
    });
}

#[test]
fn deep_handle_chain_model() {
    // A pathological chain: arrive once at each level going down, then
    // depart bottom-up and top-down.
    let tree = SnziTree::new(0);
    let mut handles = vec![tree.root_handle()];
    for _ in 0..64 {
        let last = *handles.last().unwrap();
        let (l, _) = unsafe { tree.grow_always(last) };
        handles.push(l);
    }
    for &h in &handles {
        unsafe { tree.arrive(h) };
        assert!(tree.query());
    }
    // Depart all but one: indicator stays up.
    for &h in &handles[1..] {
        assert!(!unsafe { tree.depart(h) });
        assert!(tree.query());
    }
    assert!(unsafe { tree.depart(handles[0]) });
    assert!(!tree.query());
}
