//! Randomized testing of the sp-dag: random series-parallel programs
//! are generated, executed on real worker pools under every counter
//! family, and checked against the two semantic guarantees of nested
//! parallelism:
//!
//! 1. every leaf body runs exactly once, and
//! 2. serial composition is really serial — for `Chain(a, b)`, every leaf
//!    of `a` (including everything it transitively spawns) observes a
//!    globally ordered timestamp strictly smaller than every leaf of `b`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use incounter::{CounterFamily, DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};
use sched::XorShift64Star;
use spdag::{run_dag, Ctx};

#[derive(Debug, Clone)]
enum Prog {
    Leaf,
    Spawn(Box<Prog>, Box<Prog>),
    Chain(Box<Prog>, Box<Prog>),
}

impl Prog {
    fn leaves(&self) -> usize {
        match self {
            Prog::Leaf => 1,
            Prog::Spawn(a, b) | Prog::Chain(a, b) => a.leaves() + b.leaves(),
        }
    }

    /// A program of 2 to `budget` leaves: its leaf count is drawn
    /// uniformly, then each inner node is a spawn or a chain, its leaves
    /// split uniformly between its sides.
    fn draw(rng: &mut XorShift64Star, budget: usize) -> Prog {
        let leaves = 2 + rng.next_below(budget - 1);
        Prog::sized(rng, leaves)
    }

    fn sized(rng: &mut XorShift64Star, leaves: usize) -> Prog {
        if leaves == 1 {
            return Prog::Leaf;
        }
        let spawn = rng.next_below(2) == 0;
        let left = 1 + rng.next_below(leaves - 1);
        let (a, b) = (Box::new(Prog::sized(rng, left)), Box::new(Prog::sized(rng, leaves - left)));
        if spawn {
            Prog::Spawn(a, b)
        } else {
            Prog::Chain(a, b)
        }
    }
}

/// Execute `prog`, stamping each leaf (numbered left to right from `lo`)
/// with a global sequence number.
fn exec<C: CounterFamily>(
    ctx: Ctx<'_, C>,
    prog: Prog,
    lo: usize,
    stamps: Arc<Vec<AtomicU64>>,
    seq: Arc<AtomicU64>,
) {
    match prog {
        Prog::Leaf => {
            let stamp = seq.fetch_add(1, Ordering::SeqCst) + 1;
            let prev = stamps[lo].swap(stamp, Ordering::SeqCst);
            assert_eq!(prev, 0, "leaf {lo} executed twice");
        }
        Prog::Spawn(a, b) => {
            let la = a.leaves();
            let (s1, s2) = (Arc::clone(&stamps), stamps);
            let (q1, q2) = (Arc::clone(&seq), seq);
            ctx.spawn(move |c| exec(c, *a, lo, s1, q1), move |c| exec(c, *b, lo + la, s2, q2));
        }
        Prog::Chain(a, b) => {
            let la = a.leaves();
            let (s1, s2) = (Arc::clone(&stamps), stamps);
            let (q1, q2) = (Arc::clone(&seq), seq);
            ctx.chain(move |c| exec(c, *a, lo, s1, q1), move |c| exec(c, *b, lo + la, s2, q2));
        }
    }
}

/// Walk the program and check the chain-ordering property against the
/// recorded stamps. Returns (min, max) stamp of the subtree.
fn check_order(prog: &Prog, lo: usize, stamps: &[AtomicU64]) -> (u64, u64) {
    match prog {
        Prog::Leaf => {
            let s = stamps[lo].load(Ordering::SeqCst);
            assert!(s > 0, "leaf {lo} never executed");
            (s, s)
        }
        Prog::Spawn(a, b) => {
            let (alo, ahi) = check_order(a, lo, stamps);
            let (blo, bhi) = check_order(b, lo + a.leaves(), stamps);
            (alo.min(blo), ahi.max(bhi))
        }
        Prog::Chain(a, b) => {
            let (alo, ahi) = check_order(a, lo, stamps);
            let (blo, bhi) = check_order(b, lo + a.leaves(), stamps);
            assert!(
                ahi < blo,
                "chain violated: first side reached stamp {ahi}, \
                 second side started at {blo}"
            );
            (alo.min(blo), ahi.max(bhi))
        }
    }
}

fn run_prog<C: CounterFamily>(cfg: C::Config, workers: usize, prog: &Prog) {
    let n = prog.leaves();
    let stamps = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
    let seq = Arc::new(AtomicU64::new(0));
    let (s, q) = (Arc::clone(&stamps), Arc::clone(&seq));
    let p = prog.clone();
    run_dag::<C, _>(cfg, workers, move |ctx| exec(ctx, p, 0, s, q));
    assert_eq!(seq.load(Ordering::SeqCst) as usize, n, "every leaf stamped");
    check_order(prog, 0, &stamps);
}

/// Forty-eight programs of up to 24 leaves, each on 1 to 3 workers.
fn random_dags(name: &str, mut run: impl FnMut(&Prog, usize, &mut XorShift64Star)) {
    sched::rng::battery(name, 48, |rng| {
        let prog = Prog::draw(rng, 24);
        let workers = 1 + rng.next_below(3);
        run(&prog, workers, rng);
    });
}

#[test]
fn random_dags_incounter_always_grow() {
    random_dags("random_dags_incounter_always_grow", |prog, workers, _| {
        run_prog::<DynSnzi>(DynConfig::always_grow(), workers, prog);
    });
}

#[test]
fn random_dags_incounter_probabilistic() {
    random_dags("random_dags_incounter_probabilistic", |prog, workers, _| {
        run_prog::<DynSnzi>(DynConfig::with_threshold(4), workers, prog);
    });
}

#[test]
fn random_dags_incounter_never_grow() {
    // Failure injection: the tree degenerates to a single cell; the
    // contention bound is forfeited but correctness must hold.
    random_dags("random_dags_incounter_never_grow", |prog, workers, _| {
        run_prog::<DynSnzi>(DynConfig::never_grow(), workers, prog);
    });
}

#[test]
fn random_dags_fetch_add() {
    random_dags("random_dags_fetch_add", |prog, workers, _| {
        run_prog::<FetchAdd>((), workers, prog);
    });
}

#[test]
fn random_dags_fixed_depth() {
    random_dags("random_dags_fixed_depth", |prog, workers, rng| {
        let depth = rng.next_below(5) as u32;
        run_prog::<FixedDepth>(FixedConfig { depth }, workers, prog);
    });
}

/// The grammar spends the budget it is given: never more, on average at
/// least 7.4 leaves — what a depth-5 grammar that stops at a leaf with
/// probability 1/3 a level draws — and hardly ever a lone leaf.
#[test]
fn drawn_dags_are_the_size_they_name() {
    let (mut total, mut most, mut lone) = (0, 0, 0);
    sched::rng::battery("drawn_dags_are_the_size_they_name", 10_000, |rng| {
        let n = Prog::draw(rng, 24).leaves();
        (total, most, lone) = (total + n, most.max(n), lone + usize::from(n == 1));
    });
    let mean = total as f64 / 10_000.0;
    assert!(most <= 24, "a program of {most} leaves over a budget of 24");
    assert!(mean >= 7.4, "{mean} leaves a program, under 7.4");
    assert!(lone <= 500, "{lone} lone leaves in 10 000 programs");
}

#[test]
fn handcrafted_worst_cases() {
    // Deep left chain of chains.
    let mut p = Prog::Leaf;
    for _ in 0..24 {
        p = Prog::Chain(Box::new(p), Box::new(Prog::Leaf));
    }
    run_prog::<DynSnzi>(DynConfig::always_grow(), 2, &p);

    // Deep spawn ladder.
    let mut p = Prog::Leaf;
    for _ in 0..24 {
        p = Prog::Spawn(Box::new(p), Box::new(Prog::Leaf));
    }
    run_prog::<DynSnzi>(DynConfig::always_grow(), 3, &p);

    // Alternating chain/spawn.
    let mut p = Prog::Leaf;
    for i in 0..24 {
        p = if i % 2 == 0 {
            Prog::Chain(Box::new(Prog::Leaf), Box::new(p))
        } else {
            Prog::Spawn(Box::new(p), Box::new(Prog::Leaf))
        };
    }
    run_prog::<FetchAdd>((), 2, &p);
}
