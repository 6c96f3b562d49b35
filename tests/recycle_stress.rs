//! Steady-state slab-recycling stress: a million futures of churn (in
//! release builds) through the real runtime, with three end-to-end
//! claims checked at round boundaries:
//!
//! 1. **Conservation** — every slot block born (fresh allocation or
//!    recycler reuse) is accounted dead (retired to the recycler or
//!    freed by an out-set's `Drop`) once the run quiesces. A violation
//!    is a leak or a double-free, caught by arithmetic instead of
//!    valgrind.
//! 2. **Footprint ceiling** — the recycler's free list is bounded by
//!    peak *live* blocks, not total churn: a million retired blocks must
//!    never pile up. The workload makes the bound hard by construction
//!    (each chain holds ~one future alive at a time, so peak-live ≈ the
//!    chain count).
//! 3. **Zero allocator traffic at steady state** — once the cache is
//!    warm, rounds stop minting fresh blocks and run on reuse alone.
//!
//! Counter-based asserts are skipped under `--no-default-features`
//! (telemetry compiled out); the gauge-based footprint ceiling and the
//! exactly-once delivery count hold in both modes.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{serial, Ledger};
use dynsnzi::prelude::*;
use outset::tree::{block_pool, TreeOutsetObj};

/// Per-worker block-cache bound, mirrored from `outset::tree` (not public).
const BLOCK_CACHE_CAP: u64 = 32;

/// One future-churn chain: create a future, touch it, and continue from
/// the touch continuation — so at any instant the chain keeps at most a
/// couple of futures (hence blocks) alive, while total churn is `len`.
fn chain(c: Ctx<'_, DynSnzi>, remaining: u64, touched: Arc<AtomicU64>) {
    if remaining == 0 {
        return;
    }
    let mut c = c;
    let f = c.future(move |_| remaining);
    c.touch(&f, move |c2, v| {
        assert_eq!(*v, remaining, "touch observed the wrong stage value");
        touched.fetch_add(1, Ordering::Relaxed);
        chain(c2, remaining - 1, touched);
    });
}

/// One round: `chains` parallel churn chains of depth `len` on a real
/// worker pool. Returns the number of touches that ran.
fn churn_round(workers: usize, chains: u64, len: u64) -> u64 {
    let touched = Arc::new(AtomicU64::new(0));
    let t = Arc::clone(&touched);
    Runtime::new().workers(workers).run(move |ctx| {
        let mut scope = ctx.into_scope();
        for _ in 0..chains {
            let t = Arc::clone(&t);
            scope.fork(move |c| chain(c, len, t));
        }
    });
    touched.load(Ordering::Relaxed)
}

/// Leave `blocks` slot blocks standing by on the recycler's shared list:
/// that many one-token out-sets alive at once on this thread, swept,
/// dropped and flushed.
fn prewarm(blocks: u64) {
    let sets: Vec<TreeOutsetObj> = (0..blocks).map(|_| TreeOutsetObj::new()).collect();
    for (token, set) in sets.iter().enumerate() {
        let _ = set.add(token as u64, 0);
    }
    for set in &sets {
        assert!(set.finish(&mut |_| {}));
    }
    drop(sets);
    sched::slab::flush_this_thread();
    assert!(block_pool().cached_slabs() as u64 >= blocks, "prewarm left the recycler short");
}

#[test]
fn million_future_churn_is_conserved_and_bounded() {
    let s = serial();
    // ~1M futures in release (32 rounds × 64 chains × 512), scaled down
    // in debug builds where the point is coverage, not volume. Chain
    // depth stays modest: a touch on an already-completed future runs
    // its continuation inline, so `len` bounds real stack depth.
    let (rounds, chains, len, workers) =
        if cfg!(debug_assertions) { (6, 16u64, 128u64, 4) } else { (32, 64u64, 512u64, 4) };

    let before = obs::Snapshot::take();
    let ledger = Ledger::open(&s);
    // Warm the recycler to the standby the per-worker caches can demand.
    // Every round starts new workers with empty caches, and a worker
    // mints only when its cache and the shared list are both dry — by
    // which time the other workers hold at most a full cache each and
    // the chains a couple of live blocks each. Churn alone closes that
    // gap a schedule-dependent few blocks per round (the warm-round
    // bound below failed 1 debug run in 6 for it).
    prewarm((workers as u64 - 1) * BLOCK_CACHE_CAP + 2 * chains);
    let mut allocated_per_round = Vec::new();
    let mut cached_peak = 0usize;
    let mut prev_allocated = obs::Snapshot::take().diff(&before).counter("outset.blocks_allocated");
    for _ in 0..rounds {
        assert_eq!(churn_round(workers, chains, len), chains * len, "every touch exactly once");
        // Workers flushed their slab caches at pool teardown, and every
        // out-set died (handing its blocks back) inside the run: the
        // round boundary is quiescent.
        let so_far = obs::Snapshot::take().diff(&before);
        let allocated = so_far.counter("outset.blocks_allocated");
        allocated_per_round.push(allocated - prev_allocated);
        prev_allocated = allocated;
        cached_peak = cached_peak.max(block_pool().cached_slabs());
        // Footprint ceiling, per round: the free list holds at most
        // ~peak-live blocks. Peak-live ≈ chains (one future each) plus
        // scheduler slack; total churn this round is chains × len blocks,
        // so the ceiling is the claim that churn does NOT accumulate.
        assert!(
            block_pool().cached_slabs() as u64 <= 8 * chains + 64,
            "free list grew with churn, not with peak-live: {} blocks cached, {} chains",
            block_pool().cached_slabs(),
            chains
        );
    }

    // Hard steady-state byte ceiling, independent of telemetry.
    let ceiling = (8 * chains as usize + 64) * block_pool().slab_bytes();
    assert!(
        block_pool().cached_bytes() <= ceiling,
        "steady-state footprint {}B exceeds ceiling {}B",
        block_pool().cached_bytes(),
        ceiling
    );

    // Conservation at quiescence: births == deaths, zero live.
    if let Some((_, d)) = ledger.close("future churn", &[]) {
        // The recycler gauge agrees with the counter flows.
        // No trim falls in the window: the other test trims under the lock.
        assert_eq!(
            block_pool().cached_slabs() as u64,
            d.counter("outset.blocks_recycled") - d.counter("outset.blocks_reused"),
            "gauge out of step with recycled/reused flows"
        );
        // Steady state mints (almost) nothing: once the first quarter of
        // the rounds has warmed the cache, each later round may mint at
        // most O(peak-live) fresh blocks — scheduling jitter shifts
        // which worker's cache holds the standby blocks, and a round
        // whose peak concurrency exceeds every earlier round's mints the
        // difference — but never O(churn) (`chains * len` per round).
        let warmup = rounds / 4;
        for (i, &a) in allocated_per_round.iter().enumerate().skip(warmup) {
            assert!(
                a <= chains,
                "allocator traffic did not reach steady state: round {i} minted {a} fresh \
                 blocks (> {chains} = peak-live order); per-round {allocated_per_round:?}"
            );
        }
        assert!(
            d.counter("outset.blocks_reused") > d.counter("outset.blocks_allocated"),
            "churn of {} futures should be dominated by reuse (reused {}, allocated {})",
            rounds as u64 * chains * len,
            d.counter("outset.blocks_reused"),
            d.counter("outset.blocks_allocated")
        );
    }

    // Leave the pool empty for whatever runs next in this process.
    sched::slab::flush_this_thread();
    block_pool().trim();
}

#[test]
fn trim_releases_the_steady_state_footprint() {
    let _s = serial();
    sched::slab::flush_this_thread();
    block_pool().trim();
    let (chains, len) = if cfg!(debug_assertions) { (16u64, 64u64) } else { (32u64, 256u64) };
    assert_eq!(churn_round(2, chains, len), chains * len);
    // A phase change gives the warm cache back to the allocator: flush
    // this thread's share (workers flushed theirs at teardown), then
    // trim must leave the recycler empty.
    sched::slab::flush_this_thread();
    let freed = block_pool().trim();
    assert_eq!(
        block_pool().cached_slabs(),
        0,
        "trim left {} blocks cached after freeing {freed}",
        block_pool().cached_slabs()
    );
}
