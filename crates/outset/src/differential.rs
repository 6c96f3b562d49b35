//! The exclusive steps are the shared steps when nothing interferes
//! (`crate::tree`, "One worker, no lock prefix").
//!
//! Two copies of one out-set are driven through one seeded sequence of
//! operations — adds with spread keys, forced splits, the finish, adds
//! after the seal — one copy committing every step by a `SeqCst`
//! read-modify-write, one by load and store. After every operation each
//! [`AddEdge`], the tokens the sweep delivered and their order, the lane
//! count, the splits, the block count, the footprint and every block's
//! cursor and slot words must agree.

use snzi::XorShift64Star;

use crate::tree::TreeOutsetObj;
use crate::AddEdge;

fn assert_same<T: PartialEq + std::fmt::Debug>(got: [T; 2], what: &str) {
    assert!(got[0] == got[1], "{what}: shared / exclusive = {got:?}");
}

/// Copy 0 is driven shared, copy 1 exclusive.
fn drive(make: fn() -> TreeOutsetObj, seed: u64, steps: usize) {
    let sets = [make(), make()];
    let mut delivered: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut ops = XorShift64Star::new(seed);
    // The step at which the finish comes; adds after it bounce.
    let seal_at = steps / 2 + ops.next_below(steps / 2);
    let mut token = 0u64;
    for step in 0..steps {
        let at = format!("seed {seed} step {step}");
        if step == seal_at {
            let got: [bool; 2] = [
                sets[0].finish(&mut |t| delivered[0].push(t)),
                // SAFETY: one thread, so no operation overlaps another.
                unsafe { sets[1].finish_exclusive(&mut |t| delivered[1].push(t)) },
            ];
            assert_same(got, &format!("{at}: finish sealed"));
            assert!(got[0], "{at}: the first finish seals");
            assert_same(delivered.clone(), &format!("{at}: tokens delivered, in order"));
            assert_eq!(delivered[0].len() as u64, token, "{at}: every registered token, once");
        } else if ops.next_below(16) == 0 {
            let got = [sets[0].force_split(), sets[1].force_split()];
            assert_same(got, &format!("{at}: split"));
        } else {
            let key = ops.next_u64();
            // SAFETY: as above.
            let got = [sets[0].add(token, key), unsafe { sets[1].add_exclusive(token, key) }];
            assert_same(got, &format!("{at}: add edge"));
            let sealed = step > seal_at;
            assert_eq!(got[0] == AddEdge::Finished(token), sealed, "{at}: bounces iff sealed");
            token += !sealed as u64;
        }
        assert_same([sets[0].is_finished(), sets[1].is_finished()], &format!("{at}: sealed"));
        assert_same([sets[0].lane_count(), sets[1].lane_count()], &format!("{at}: lanes"));
        assert_same([sets[0].splits(), sets[1].splits()], &format!("{at}: splits"));
        assert_same([sets[0].block_count(), sets[1].block_count()], &format!("{at}: blocks"));
        assert_same(
            [sets[0].footprint_bytes(), sets[1].footprint_bytes()],
            &format!("{at}: footprint"),
        );
        assert_same(
            [sets[0].words_for_test(), sets[1].words_for_test()],
            &format!("{at}: cursors and slot words"),
        );
    }
    // A second finish seals nothing and delivers nothing in either mode.
    let mut late = 0;
    assert!(!sets[0].finish(&mut |_| late += 1));
    // SAFETY: as above.
    assert!(!unsafe { sets[1].finish_exclusive(&mut |_| late += 1) });
    assert_eq!(late, 0);
}

#[test]
fn outsets_step_alike_in_both_modes() {
    // Fresh, and already split twice: the forced splits of the drive
    // then start from four lanes, three of them out of line.
    let makes: [fn() -> TreeOutsetObj; 2] = [TreeOutsetObj::new, || {
        let set = TreeOutsetObj::new();
        assert!(set.force_split() && set.force_split());
        set
    }];
    for make in makes {
        for seed in 1..=12u64 {
            drive(make, seed * 0x9E37_79B9, 400);
        }
    }
}
