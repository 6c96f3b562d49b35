//! Randomized testing of the Chase–Lev deque against a `VecDeque`
//! reference model (sequentially: owner push/pop at the back, steal at
//! the front), plus randomized multi-threaded exactly-once checks.

use std::collections::VecDeque;

use sched::deque::{deque_with_capacity, StealResult};
use sched::rng::battery;
use sched::XorShift64Star;

#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
    Steal,
}

/// Up to 199 operations, each kind as likely.
fn draw_ops(rng: &mut XorShift64Star) -> Vec<Op> {
    let len = rng.next_below(200);
    (0..len)
        .map(|_| match rng.next_below(3) {
            0 => Op::Push(rng.next_u64()),
            1 => Op::Pop,
            _ => Op::Steal,
        })
        .collect()
}

#[test]
fn sequential_model_equivalence() {
    battery("sequential_model_equivalence", 256, |rng| {
        let ops = draw_ops(rng);
        let cap = 1 + rng.next_below(31);
        let (w, s) = deque_with_capacity::<usize>(cap);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut values: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Push(v) => {
                    // Store the value out-of-band; the deque carries indices
                    // so the model check is exact even with duplicates.
                    let idx = values.len();
                    values.push(v);
                    w.push(idx);
                    model.push_back(v);
                }
                Op::Pop => {
                    let got = w.pop().map(|i| values[i]);
                    assert_eq!(got, model.pop_back());
                }
                Op::Steal => {
                    let got = match s.steal() {
                        StealResult::Success(i) => Some(values[i]),
                        StealResult::Empty => None,
                        // No concurrency: retries cannot happen.
                        StealResult::Retry => panic!("sequential steal retried"),
                    };
                    assert_eq!(got, model.pop_front());
                }
            }
            assert_eq!(w.len(), model.len());
            assert_eq!(w.is_empty(), model.is_empty());
        }
    });
}

#[test]
fn two_thieves_exactly_once() {
    battery("two_thieves_exactly_once", 256, |rng| {
        let n = 1 + rng.next_below(1999);
        let (w, s1) = deque_with_capacity::<usize>(8);
        let s2 = s1.clone();
        let collected = std::sync::Mutex::new(Vec::<usize>::new());
        std::thread::scope(|scope| {
            let c1 = &collected;
            let c2 = &collected;
            let t1 = scope.spawn(move || {
                let mut got = Vec::new();
                loop {
                    match s1.steal() {
                        StealResult::Success(v) => got.push(v),
                        StealResult::Retry => continue,
                        StealResult::Empty => break,
                    }
                }
                c1.lock().unwrap().extend(got);
            });
            let t2 = scope.spawn(move || {
                let mut got = Vec::new();
                loop {
                    match s2.steal() {
                        StealResult::Success(v) => got.push(v),
                        StealResult::Retry => continue,
                        StealResult::Empty => break,
                    }
                }
                c2.lock().unwrap().extend(got);
            });
            // Owner pushes everything, popping after one push in three.
            let mut owner_got = Vec::new();
            for i in 0..n {
                w.push(i);
                if rng.next_below(3) == 0 {
                    if let Some(v) = w.pop() {
                        owner_got.push(v);
                    }
                }
            }
            while let Some(v) = w.pop() {
                owner_got.push(v);
            }
            t1.join().unwrap();
            t2.join().unwrap();
            collected.lock().unwrap().extend(owner_got);
        });
        let mut all = collected.into_inner().unwrap();
        all.sort_unstable();
        // Thieves may exit on an early Empty while the owner still pushes;
        // whatever was consumed must be consumed exactly once, and the
        // owner drains the rest, so the union must be exactly 0..n.
        assert_eq!(all.len(), n);
        all.dedup();
        assert_eq!(all.len(), n, "duplicate consumption detected");
    });
}
