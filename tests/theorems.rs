//! Empirical checks of the paper's analysis (Section 4), through a walk of
//! the tree (`SnziTree::contention_profile`). The tree's shape is read on
//! every build; the chain maxima and per-node touch tallies are counted
//! only under the `telemetry` feature, so the checks on them run there:
//!
//! * **Corollary 4.7** — with growth probability 1, no increment invokes
//!   more than 3 arrive operations on the SNZI tree.
//! * **Theorem 4.9** — the number of operations that ever touch a single
//!   SNZI node is constant (independent of the computation size). Our
//!   per-node counters record successful CASes, of which one *operation*
//!   performs at most two (a ½-install plus its completion), and the root
//!   additionally absorbs indicator/announce maintenance — so the
//!   asserted constant is 16 *steps*, a conservative upper bound for the
//!   paper's 6 *operations*. The point of the test is that the bound does
//!   not grow with n.
//! * **Negative control** — with growth probability 0 the precondition of
//!   the theorems fails, and the per-node bound must blow up linearly.
//!   This shows the instrumentation actually measures what it claims.
//! * **The out-set's dual** (`docs/outset-contention.md`) — on a fanout
//!   broadcast through the runtime, every add is delivered once, lane
//!   splits follow lost install CASes and stop at the cap, a one-worker run
//!   loses none, and the lost CASes stay within the amortized per-add
//!   bound. Under `fault-inject` the `outset.install_cas` failpoint forces
//!   lost installs, so the bound is checked on a run that has some.
//!
//! The in-counter discipline (Figure 5) is driven directly here — the same
//! spawn/signal handle dance `spdag` performs — so the trees stay
//! reachable for profiling.
//!
//! The out-set test reads process-wide counters and may arm a process-wide
//! failpoint, so every test in the file serializes on one lock.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{serial, Ledger, Serial};
use dynsnzi::prelude::*;
use incounter::DecPair;
use sched::failpoint::{self, FaultMode, FaultPlan, SiteSpec};
use snzi::SnziTree;

/// A simulated dag vertex of the in-counter discipline.
#[derive(Clone)]
struct SimV {
    inc: snzi::Handle,
    pair: Arc<DecPair<snzi::Handle>>,
    is_left: bool,
}

fn root_vertex(tree: &SnziTree) -> SimV {
    let d = tree.root_handle();
    SimV { inc: d, pair: Arc::new(DecPair::new(d, d)), is_left: true }
}

fn sim_spawn(cfg: &DynConfig, tree: &SnziTree, u: &SimV) -> (SimV, SimV) {
    let (d2, i1, i2) =
        unsafe { DynSnzi::increment(cfg, tree, u.inc, u.is_left, u.inc.addr() as u64) };
    let d1 = u.pair.claim();
    let pair = Arc::new(DecPair::new(d1, d2));
    (
        SimV { inc: i1, pair: Arc::clone(&pair), is_left: true },
        SimV { inc: i2, pair, is_left: false },
    )
}

fn sim_signal(tree: &SnziTree, u: &SimV) -> bool {
    let d = u.pair.claim();
    unsafe { DynSnzi::decrement(tree, d) }
}

/// Expand a balanced spawn tree of the given depth sequentially, returning
/// the leaves.
fn expand_seq(cfg: &DynConfig, tree: &SnziTree, root: SimV, depth: u32) -> Vec<SimV> {
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for u in &frontier {
            let (v, w) = sim_spawn(cfg, tree, u);
            next.push(v);
            next.push(w);
        }
        frontier = next;
    }
    frontier
}

#[test]
fn corollary_4_7_arrive_chains_bounded_by_three() {
    let _g = serial();
    let cfg = DynConfig::always_grow();
    for depth in [2u32, 6, 10, 12] {
        let tree = DynSnzi::make(&cfg, 1);
        let root = root_vertex(&tree);
        let leaves = expand_seq(&cfg, &tree, root, depth);
        let mut endings = 0;
        for leaf in &leaves {
            if sim_signal(&tree, leaf) {
                endings += 1;
            }
        }
        assert_eq!(endings, 1, "exactly-once readiness at depth {depth}");
        let profile = tree.contention_profile();
        #[cfg(feature = "telemetry")]
        assert!(
            profile.max_arrive_chain <= 3,
            "depth {depth}: arrive chain {} exceeds Corollary 4.7's bound of 3",
            profile.max_arrive_chain
        );
        // The tree must actually have grown (p = 1: one install per spawn).
        let spawns = (1u64 << depth) - 1;
        assert_eq!(profile.nodes, 1 + 2 * spawns, "depth {depth}");
    }
}

#[test]
#[cfg(feature = "telemetry")]
fn theorem_4_9_per_node_touches_constant_in_n() {
    let _g = serial();
    let cfg = DynConfig::always_grow();
    let mut observed = Vec::new();
    for depth in [4u32, 8, 12] {
        let tree = DynSnzi::make(&cfg, 1);
        let root = root_vertex(&tree);
        let leaves = expand_seq(&cfg, &tree, root, depth);
        for leaf in &leaves {
            sim_signal(&tree, leaf);
        }
        let profile = tree.contention_profile();
        assert!(
            profile.max_touch <= 16,
            "depth {depth}: max per-node steps {} exceeds the O(1) bound",
            profile.max_touch
        );
        observed.push((1u64 << depth, profile.max_touch));
    }
    // The bound must not grow with n — the substance of Theorem 4.9.
    let maxes: Vec<u64> = observed.iter().map(|&(_, m)| m).collect();
    let spread = maxes.iter().max().unwrap() - maxes.iter().min().unwrap();
    assert!(spread <= 4, "per-node touch bound should be size-invariant, got {observed:?}");
}

#[test]
fn negative_control_p0_concentrates_touches() {
    let _g = serial();
    // With growth disabled the theorems' precondition fails: every
    // operation lands on the root and its touch count grows linearly.
    let cfg = DynConfig::never_grow();
    let depth = 10u32;
    let tree = DynSnzi::make(&cfg, 1);
    let root = root_vertex(&tree);
    let leaves = expand_seq(&cfg, &tree, root, depth);
    for leaf in &leaves {
        sim_signal(&tree, leaf);
    }
    let profile = tree.contention_profile();
    assert_eq!(profile.nodes, 1, "never-grow tree stays a single root");
    #[cfg(feature = "telemetry")]
    assert!(
        profile.max_touch >= leaves.len() as u64,
        "without growth the root must absorb ~2n steps, saw {}",
        profile.max_touch
    );
}

#[test]
fn theorem_4_9_holds_under_parallel_expansion() {
    let _g = serial();
    // The same discipline with real threads: a parallel top of the spawn
    // tree (8 threads), sequential below, leaves signalled by their own
    // thread. Exactly-once readiness and the per-node bound must survive
    // concurrency.
    let cfg = DynConfig::always_grow();
    let tree = Arc::new(DynSnzi::make(&cfg, 1));
    let endings = Arc::new(AtomicU64::new(0));

    fn go(
        cfg: &DynConfig,
        tree: &Arc<SnziTree>,
        endings: &Arc<AtomicU64>,
        u: SimV,
        par_depth: u32,
        seq_depth: u32,
    ) {
        if par_depth == 0 {
            for leaf in expand_seq(cfg, tree, u, seq_depth) {
                if sim_signal(tree, &leaf) {
                    endings.fetch_add(1, Ordering::Relaxed);
                }
            }
            return;
        }
        let (v, w) = sim_spawn(cfg, tree, &u);
        std::thread::scope(|s| {
            let (t1, e1) = (Arc::clone(tree), Arc::clone(endings));
            let (t2, e2) = (Arc::clone(tree), Arc::clone(endings));
            s.spawn(move || go(cfg, &t1, &e1, v, par_depth - 1, seq_depth));
            s.spawn(move || go(cfg, &t2, &e2, w, par_depth - 1, seq_depth));
        });
    }

    let root = root_vertex(&tree);
    go(&cfg, &tree, &endings, root, 3, 7);
    assert_eq!(endings.load(Ordering::Relaxed), 1, "exactly one readiness signal");
    let tree = Arc::try_unwrap(tree).ok().expect("all threads joined");
    assert!(!tree.query(), "all surplus drained");
    let profile = tree.contention_profile();
    // p = 1: one install per spawn, 2^10 − 1 spawns.
    assert_eq!(profile.nodes, 1 + 2 * ((1 << 10) - 1), "the tree grew once per spawn");
    #[cfg(feature = "telemetry")]
    {
        assert!(profile.max_arrive_chain <= 3, "Corollary 4.7 under concurrency");
        assert!(profile.max_touch <= 16, "Theorem 4.9 under concurrency: {}", profile.max_touch);
    }
}

/// `n` forks of the root each `touch` one hub future, whose body spins
/// until every fork's add has landed: all `n` adds race for the hub's
/// out-set while it is unsealed. Returns the counters the run moved, with
/// the ledger of `tests/common` closed over them (`None` without
/// telemetry).
fn fanout_broadcast(s: &Serial, workers: usize, n: u64) -> Option<Snapshot> {
    let ledger = Ledger::open(s);
    let delivered = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&delivered);
    Runtime::new().workers(workers).run(move |mut ctx| {
        let registered = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&registered);
        let hub = ctx.future(move |_| {
            while r.load(Ordering::Acquire) < n {
                std::hint::spin_loop();
            }
            1u64
        });
        let mut scope = ctx.into_scope();
        for _ in 0..n {
            let (hub, registered, d) = (hub.clone(), Arc::clone(&registered), Arc::clone(&d));
            scope.fork(move |c| {
                c.touch(&hub, move |_, v| {
                    d.fetch_add(*v, Ordering::Relaxed);
                });
                registered.fetch_add(1, Ordering::Release);
            });
        }
    });
    assert_eq!(delivered.load(Ordering::Relaxed), n, "every dependent exactly once");
    ledger.close(&format!("a fanout broadcast at W={workers}"), &[]).map(|(_, d)| d)
}

/// The out-set's amortized contention bound, recomputed from the counters
/// of a fanout broadcast at W = 1 and W = 4. A slot claim can lose its
/// block install to at most W − 1 rivals racing the same 32-slot block
/// tail, so the lost CASes are O(adds · (W − 1) / B) plus the O(log cap)
/// growth transient per out-set; ×4 slack absorbs the in-expectation part.
/// With `fault-inject` the W = 4 run arms `outset.install_cas` (one install
/// in two treated as lost) so the bound and the split rule face real losses.
#[test]
fn outset_lost_installs_stay_within_the_amortized_bound() {
    let s = serial();
    let n = if cfg!(debug_assertions) { 1 << 10 } else { 1 << 12 };
    let cap = outset::tree::TreeOutsetObj::max_lanes() as u64;
    // Lane counts double from 1 toward the cap: log2(cap) splits per set.
    let log_cap = u64::from(cap.trailing_zeros()).max(1);
    const B: u64 = outset::BLOCK_SLOTS as u64;
    for workers in [1usize, 4] {
        let armed = workers > 1 && failpoint::enabled();
        if armed {
            let site = SiteSpec { site: "outset.install_cas".into(), mode: FaultMode::OneIn(2) };
            failpoint::install(&FaultPlan::new(0x0DDC_0DE5, vec![site]));
        }
        let d = fanout_broadcast(&s, workers, n);
        failpoint::clear();
        let Some(d) = d else { continue };
        let at = format!("W={workers}, n={n}, install_cas armed: {armed}");
        let adds = d.counter("outset.adds");
        let (created, splits, lost) =
            (d.counter("outset.created"), d.counter("outset.splits"), d.counter("outset.lost_cas"));
        assert!(splits <= created * log_cap, "{at}: {splits} splits > {created} sets x {log_cap}");
        assert!(splits <= lost, "{at}: {splits} splits without as many lost CASes ({lost})");
        if workers == 1 {
            assert_eq!((lost, splits), (0, 0), "{at}: a lone worker has no rival to lose to");
        }
        if armed {
            assert!(lost > 0, "{at}: the armed failpoint forced no lost install");
        }
        let bound = 4 * (adds * (workers as u64 - 1)).div_ceil(B) + 2 * created * log_cap + B;
        assert!(
            lost <= bound,
            "{at}: {lost} lost CASes > 4*adds*(W-1)/B + 2*sets*log2(cap) + B = {bound}"
        );
    }
}
