//! Randomized testing of the in-counter handle discipline across all
//! three families: random interleavings of spawn/signal on a simulated dag
//! frontier must preserve (a) the counter reads non-zero while any strand
//! is outstanding, (b) exactly one decrement reports zero, and (c) the
//! zero report comes from the very last signal.

use std::sync::Arc;

use incounter::{CounterFamily, DecPair, DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};
use sched::rng::battery;
use sched::XorShift64Star;

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
    let pair = Arc::new(DecPair::new(d1, d2));
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

/// Up to 79 steps, each a spawn or a signal as likely, from a strand
/// picked by a 16-bit draw.
fn schedule(rng: &mut XorShift64Star) -> Vec<(bool, u16)> {
    let len = rng.next_below(80);
    (0..len).map(|_| (rng.next_below(2) == 1, rng.next_u64() as u16)).collect()
}

#[test]
fn dyn_snzi_p1() {
    battery("dyn_snzi_p1", 128, |rng| drive::<DynSnzi>(DynConfig::always_grow(), &schedule(rng)));
}

#[test]
fn dyn_snzi_probabilistic() {
    battery("dyn_snzi_probabilistic", 128, |rng| {
        let choices = schedule(rng);
        let threshold = 1 + rng.next_below(63) as u64;
        drive::<DynSnzi>(DynConfig::with_threshold(threshold), &choices);
    });
}

#[test]
fn dyn_snzi_never_grow() {
    battery("dyn_snzi_never_grow", 128, |rng| {
        drive::<DynSnzi>(DynConfig::never_grow(), &schedule(rng))
    });
}

#[test]
fn fetch_add() {
    battery("fetch_add", 128, |rng| drive::<FetchAdd>((), &schedule(rng)));
}

#[test]
fn fixed_depth() {
    battery("fixed_depth", 128, |rng| {
        let choices = schedule(rng);
        let depth = rng.next_below(6) as u32;
        drive::<FixedDepth>(FixedConfig { depth }, &choices);
    });
}
