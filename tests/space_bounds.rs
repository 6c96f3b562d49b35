//! Space accounting (the paper's Section 4.2 / Appendix B and the
//! artifact's `nb_incounter_nodes` output).
//!
//! Two properties:
//!
//! 1. the tree never holds more nodes than dag vertices created — "there
//!    are never more nodes in the in-counter than the total number of dag
//!    vertices created" (Appendix B), and with probabilistic growth the
//!    expected node count is ~`2·increments/threshold` — the artifact's
//!    example records 415 nodes for n = 16.7M at threshold 40000;
//! 2. pruning per Lemma B.1 (subtree surplus returned to zero) recovers
//!    the space while the tree keeps functioning.
//!
//! And one for the dag layer above the tree: a future link keeps four
//! recycler slabs live — its shared core, the pair of the fork that joined
//! it to the enclosing scope, its completion vertex and one more vertex
//! (its body, or the continuation or parked strand the body became) — and
//! no in-counter: only a scope that forks makes one.
//!
//! The recycler gauges and SNZI roots are process-global, so the tests
//! serialize on the binary's lock.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use incounter::{CounterFamily, DecPair, DynConfig, DynSnzi};
use obs::Snapshot;
use snzi::{Probability, ShrinkingTree, SnziTree};
use spdag::{run_dag, strand_await, Ctx, FutureHandle, StrandPoll};

struct SimV {
    inc: snzi::Handle,
    pair: Arc<DecPair<snzi::Handle>>,
    is_left: bool,
}

impl Clone for SimV {
    fn clone(&self) -> Self {
        SimV { inc: self.inc, pair: Arc::clone(&self.pair), is_left: self.is_left }
    }
}

fn root_vertex(tree: &SnziTree) -> SimV {
    let d = tree.root_handle();
    SimV { inc: d, pair: Arc::new(DecPair::new(d, d)), is_left: true }
}

fn sim_spawn(cfg: &DynConfig, tree: &SnziTree, u: &SimV, vid: u64) -> (SimV, SimV) {
    let (d2, i1, i2) = unsafe { DynSnzi::increment(cfg, tree, u.inc, u.is_left, vid) };
    let d1 = u.pair.claim();
    let pair = Arc::new(DecPair::new(d1, d2));
    (
        SimV { inc: i1, pair: Arc::clone(&pair), is_left: true },
        SimV { inc: i2, pair, is_left: false },
    )
}

fn sim_signal(tree: &SnziTree, u: &SimV) -> bool {
    unsafe { DynSnzi::decrement(tree, u.pair.claim()) }
}

/// fanin-shaped run: n strands spawned breadth-first, then signalled.
fn run_fanin_sim(cfg: &DynConfig, leaves_pow: u32) -> (SnziTree, u64) {
    let tree = DynSnzi::make(cfg, 1);
    let mut frontier = vec![root_vertex(&tree)];
    let mut vid = 0;
    for _ in 0..leaves_pow {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for u in &frontier {
            vid += 1;
            let (v, w) = sim_spawn(cfg, &tree, u, vid);
            next.push(v);
            next.push(w);
        }
        frontier = next;
    }
    let mut zeros = 0;
    for leaf in &frontier {
        if sim_signal(&tree, leaf) {
            zeros += 1;
        }
    }
    assert_eq!(zeros, 1);
    (tree, vid)
}

#[test]
fn node_count_never_exceeds_vertex_count() {
    let _g = common::serial();
    // With p = 1 the tree grows one pair per increment: nodes = 1 + 2·inc,
    // and each increment creates two dag vertices — the Appendix B bound.
    let cfg = DynConfig::always_grow();
    for pow in [4u32, 8, 11] {
        let (tree, increments) = run_fanin_sim(&cfg, pow);
        let nodes = tree.contention_profile().nodes;
        let vertices_created = 2 * increments; // two per spawn
        assert!(
            nodes <= vertices_created + 1,
            "pow={pow}: {nodes} nodes > {vertices_created} vertices"
        );
        assert_eq!(nodes, 1 + 2 * increments);
    }
}

#[test]
fn probabilistic_growth_keeps_trees_tiny() {
    let _g = common::serial();
    // The artifact reports 415 nodes for 16.7M increments at threshold
    // 40000 — i.e. node count ≈ 2·increments/threshold, thousands of
    // times smaller than the dag. Check the same scaling here.
    for threshold in [64u64, 256, 1024] {
        let cfg = DynConfig::with_threshold(threshold);
        let (tree, increments) = run_fanin_sim(&cfg, 14); // 16383 increments
        let nodes = tree.contention_profile().nodes;
        let expected = 1 + 2 * increments / threshold;
        assert!(
            nodes <= expected * 8 + 16,
            "threshold {threshold}: {nodes} nodes, expected ≈{expected}"
        );
        assert!(
            nodes < increments / 4,
            "threshold {threshold}: the tree must stay far smaller than the dag"
        );
    }
}

#[test]
fn never_grow_is_constant_space() {
    let _g = common::serial();
    let cfg = DynConfig::never_grow();
    let (tree, _) = run_fanin_sim(&cfg, 10);
    assert_eq!(tree.contention_profile().nodes, 1);
}

#[test]
fn pruning_recovers_space_during_a_run() {
    let _g = common::serial();
    // Interleave work and Lemma B.1 pruning on a shrinking tree: after
    // each drained burst, prune below the root and verify the node count
    // returns to 1 while the tree stays usable. Every step runs pinned.
    let tree = ShrinkingTree::with_probability(1, Probability::ALWAYS);
    for round in 0..50 {
        // Open a fresh "finish block": one unit of surplus backing the
        // round's root strand (mirrors Incounter.make(1) per block).
        unsafe { tree.pinned().arrive(tree.pinned().root_handle()) };
        let root = root_vertex(&tree.pinned());
        // A small burst: spawn 8 strands, signal them all. The burst's
        // 7 increments + 1 block-opening arrive balance its 8 signals.
        let mut frontier = vec![root];
        for _ in 0..3 {
            let mut next = Vec::new();
            for u in &frontier {
                let cfg = DynConfig::always_grow();
                let (v, w) = sim_spawn(&cfg, &tree.pinned(), u, round);
                next.push(v);
                next.push(w);
            }
            frontier = next;
        }
        for leaf in &frontier {
            let ended = sim_signal(&tree.pinned(), leaf);
            assert!(!ended, "initial surplus 1 keeps the tree non-zero");
        }
        // The burst's 7 increments grew one pair each.
        let pinned = tree.pinned();
        assert_eq!(pinned.contention_profile().nodes, 1 + 2 * 7, "round {round}: before the prune");
        // Quiescent below the root: prune (Lemma B.1 applies — every
        // subtree's surplus returned to zero). Under `telemetry` the prune
        // counts what it detached, and it must account for every pair.
        let before = Snapshot::take();
        assert!(unsafe { pinned.prune_children_deferred(pinned.root_handle()) });
        let pruned_pairs = Snapshot::take().diff(&before).counter("snzi.pruned_pairs");
        assert_eq!(pruned_pairs, if obs::enabled() { 7 } else { 0 }, "round {round}");
        assert_eq!(
            pinned.contention_profile().nodes,
            1,
            "round {round}: pruning must reclaim everything below the root"
        );
    }
    assert!(tree.pinned().query(), "the initial surplus survived 50 prune rounds");
}

/// `depth` futures in one serial chain, all built by the root before any
/// runs; each hop awaits its predecessor in blocking style (`blocking`) or
/// touches it from a `future_then` body. Returns the last value.
fn future_chain(depth: u64, blocking: bool) -> u64 {
    let out = Arc::new(AtomicU64::new(u64::MAX));
    let o = Arc::clone(&out);
    // Never grow: a SNZI child pair is a recycler slab too, and whether
    // the root scope's counter draws one is a coin.
    run_dag::<DynSnzi, _>(DynConfig::never_grow(), 1, move |mut ctx| {
        let mut prev: FutureHandle<u64> = ctx.future(|_| 0u64);
        for _ in 1..depth {
            prev = if blocking {
                let f = prev.clone();
                ctx.future_strand(move |c: &mut Ctx<'_, DynSnzi>| {
                    StrandPoll::Done(*strand_await!(c, &f) + 1)
                })
            } else {
                ctx.future_then(&prev, |_, v| v + 1)
            };
        }
        ctx.touch(&prev, move |_, v| o.store(*v, Ordering::Relaxed));
    });
    out.load(Ordering::Relaxed)
}

#[test]
fn a_future_link_keeps_four_recycler_slabs() {
    let _g = common::serial();
    const DEPTH: u64 = 600;
    // Beside the links: the root, the final vertex, the root scope's
    // counter, the last touch's vertex, the one body that is running while
    // the continuation that replaces it is born.
    const BESIDE: usize = 8;
    for blocking in [false, true] {
        sched::recycle::trim();
        assert_eq!(future_chain(DEPTH, blocking), DEPTH - 1);
        // `run` flushed every cache on its way out: with the pools emptied
        // before it, what they hold now is the run's live peak.
        let slabs = sched::recycle::cached_slabs();
        let bound = 4 * DEPTH as usize + BESIDE;
        assert!(
            slabs <= bound,
            "a chain of {DEPTH} {} links peaked at {slabs} recycler slabs, over 4 per link \
             + {BESIDE} = {bound}: a counter or a pair per future has grown back",
            if blocking { "touch_await" } else { "future_then" },
        );
        assert!(slabs >= 4 * DEPTH as usize, "the gauge lost slabs: {slabs} for {DEPTH} links");
        // And in bytes: the core and the pair ride the 64 B class, the two
        // vertices the 128 B one. A core back in the 128 B class makes a
        // link 448 B, a vertex back in the 256 B class 640 B.
        const LINK_BYTES: usize = 64 + 64 + 2 * 128;
        let bytes = sched::recycle::cached_bytes();
        let bound = LINK_BYTES * DEPTH as usize + BESIDE * 256;
        assert!(
            bytes <= bound,
            "a chain of {DEPTH} links peaked at {bytes} B of recycler slabs, over {LINK_BYTES} \
             per link + {BESIDE} x 256 = {bound}; slabs by class {:?}",
            sched::recycle::cached_slabs_by_class(),
        );
    }
}
