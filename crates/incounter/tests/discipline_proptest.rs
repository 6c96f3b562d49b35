//! Property-based testing of the in-counter handle discipline across all
//! three families: random interleavings of spawn/signal on a simulated dag
//! frontier must preserve (a) the counter reads non-zero while any strand
//! is outstanding, (b) exactly one decrement reports zero, and (c) the
//! zero report comes from the very last signal.

use std::sync::Arc;

use incounter::{CounterFamily, DecPair, DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};
use proptest::prelude::*;

struct SimV<C: CounterFamily> {
    inc: C::Inc,
    pair: Arc<DecPair<C::Dec>>,
    is_left: bool,
}

impl<C: CounterFamily> Clone for SimV<C> {
    fn clone(&self) -> Self {
        SimV { inc: self.inc, pair: Arc::clone(&self.pair), is_left: self.is_left }
    }
}

fn root<C: CounterFamily>(counter: &C::Counter) -> SimV<C> {
    let d = C::root_dec(counter);
    SimV { inc: C::root_inc(counter), pair: Arc::new(DecPair::new(d, d)), is_left: true }
}

fn spawn<C: CounterFamily>(
    cfg: &C::Config,
    counter: &C::Counter,
    u: &SimV<C>,
    vid: u64,
) -> (SimV<C>, SimV<C>) {
    let (d2, i1, i2) = unsafe { C::increment(cfg, counter, u.inc, u.is_left, vid) };
    let d1 = u.pair.claim();
    let pair = Arc::new(C::make_pair(cfg, d1, d2));
    (
        SimV { inc: i1, pair: Arc::clone(&pair), is_left: true },
        SimV { inc: i2, pair, is_left: false },
    )
}

fn signal<C: CounterFamily>(counter: &C::Counter, u: &SimV<C>) -> bool {
    unsafe { C::decrement(counter, u.pair.claim()) }
}

/// Drive a random schedule: each step either spawns from or signals a
/// pseudo-randomly chosen outstanding strand.
fn drive<C: CounterFamily>(cfg: C::Config, choices: &[(bool, u16)]) {
    let counter = C::make(&cfg, 1);
    let mut frontier: Vec<SimV<C>> = vec![root::<C>(&counter)];
    let mut vid = 0u64;
    for &(do_spawn, pick) in choices {
        assert!(!C::is_zero(&counter), "counter must be non-zero while strands are outstanding");
        let idx = pick as usize % frontier.len();
        if do_spawn {
            vid += 1;
            let u = frontier.swap_remove(idx);
            let (v, w) = spawn::<C>(&cfg, &counter, &u, vid);
            frontier.push(v);
            frontier.push(w);
        } else if frontier.len() > 1 {
            let u = frontier.swap_remove(idx);
            assert!(!signal::<C>(&counter, &u), "not the last strand");
        }
    }
    // Drain; only the final signal reports zero.
    while frontier.len() > 1 {
        let u = frontier.pop().unwrap();
        assert!(!signal::<C>(&counter, &u));
        assert!(!C::is_zero(&counter));
    }
    let last = frontier.pop().unwrap();
    assert!(signal::<C>(&counter, &last), "last signal must report zero");
    assert!(C::is_zero(&counter));
}

fn schedule() -> impl Strategy<Value = Vec<(bool, u16)>> {
    proptest::collection::vec((any::<bool>(), any::<u16>()), 0..80)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn dyn_snzi_p1(choices in schedule()) {
        drive::<DynSnzi>(DynConfig::always_grow(), &choices);
    }

    #[test]
    fn dyn_snzi_probabilistic(choices in schedule(), threshold in 1u64..64) {
        drive::<DynSnzi>(DynConfig::with_threshold(threshold), &choices);
    }

    #[test]
    fn dyn_snzi_never_grow(choices in schedule()) {
        drive::<DynSnzi>(DynConfig::never_grow(), &choices);
    }

    #[test]
    fn fetch_add(choices in schedule()) {
        drive::<FetchAdd>((), &choices);
    }

    #[test]
    fn fixed_depth(choices in schedule(), depth in 0u32..6) {
        drive::<FixedDepth>(FixedConfig { depth }, &choices);
    }
}
