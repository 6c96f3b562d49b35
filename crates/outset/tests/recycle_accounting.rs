//! Gauge-exact accounting for the block recycler.
//!
//! These tests assert on the *global* recycler state — the cached-block
//! gauge, the overflow counter, and (when telemetry is compiled in) the
//! `outset.blocks_*` conservation identity — so they serialize on one
//! lock: every test here drains the pool to a known-empty state first,
//! and nothing else in this binary touches out-sets. (The concurrency
//! battery, which cannot make exact global claims, lives in
//! `recycle_races.rs` — a separate process.)

use std::sync::{Mutex, MutexGuard};

use outset::tree::{block_pool, TreeOutsetObj};

const BLOCK_SLOTS: u64 = outset::BLOCK_SLOTS as u64;

static LOCK: Mutex<()> = Mutex::new(());

/// The file-level lock. Dropping it flushes the test thread's block cache
/// *before* unlocking — otherwise the thread-local destructor flushes it
/// after the next test has taken the lock, trimmed, and asserted empty.
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        sched::slab::flush_this_thread();
    }
}

/// Serialize and normalize: flush this thread's cache, return every
/// pooled block to the allocator, and verify the recycler reads empty.
fn isolated() -> Serial {
    let guard = Serial(LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()));
    sched::slab::flush_this_thread();
    block_pool().trim();
    assert_eq!(block_pool().cached_slabs(), 0, "pool must start empty (single-threaded binary)");
    guard
}

/// An out-set filled with exactly `blocks` blocks on one lane, finished
/// (which unlinks nothing) and dropped (pushing the blocks into this
/// thread's cache).
fn churn_one(blocks: u64, token_base: u64) -> Vec<u64> {
    let set = TreeOutsetObj::new();
    let n = blocks * BLOCK_SLOTS;
    for t in 0..n {
        let _ = set.add(token_base + t, 0);
    }
    assert_eq!(set.block_count(), blocks as usize);
    let mut got = Vec::new();
    assert!(set.finish(&mut |t| got.push(t)));
    let cached = block_pool().cached_slabs();
    assert_eq!(set.block_count(), blocks as usize, "a finished out-set keeps its chain");
    drop(set);
    assert_eq!(block_pool().cached_slabs(), cached + blocks as usize, "drop returns all of it");
    got
}

#[test]
fn retired_blocks_land_in_the_recycler_and_are_reused() {
    let _guard = isolated();
    let got = churn_one(3, 0);
    assert_eq!(got.len(), 3 * BLOCK_SLOTS as usize);
    assert_eq!(block_pool().cached_slabs(), 3, "the dropped chain is cached, block for block");
    assert_eq!(block_pool().cached_bytes(), 3 * block_pool().slab_bytes());

    // A successor out-set's first blocks must come from the cache…
    let set = TreeOutsetObj::new();
    let _ = set.add(1000, 0);
    assert_eq!(block_pool().cached_slabs(), 2, "first install reuses a cached block");
    for t in 0..(2 * BLOCK_SLOTS) {
        let _ = set.add(1001 + t, 0);
    }
    assert_eq!(block_pool().cached_slabs(), 0, "steady churn drains the cache before allocating");
    // …and once the cache is dry, allocation falls back to fresh boxes.
    for t in 0..BLOCK_SLOTS {
        let _ = set.add(2000 + t, 0);
    }
    let mut got = Vec::new();
    assert!(set.finish(&mut |t| got.push(t)));
    assert_eq!(got.len(), 1 + 3 * BLOCK_SLOTS as usize, "97 adds span four blocks");
    drop(set);
    assert_eq!(block_pool().cached_slabs(), 4, "reused and fresh blocks all retire alike");
    assert_eq!(block_pool().trim(), 0, "blocks sit in the thread cache until flushed");
    sched::slab::flush_this_thread();
    assert_eq!(block_pool().trim(), 4, "trim returns the whole free list to the allocator");
    assert_eq!(block_pool().cached_slabs(), 0);
}

#[test]
fn worker_cache_overflows_to_the_global_pool() {
    let _guard = isolated();
    // Retire well past the per-thread cache bound in one go: the excess
    // must spill to the global list rather than grow the cache.
    let blocks = 48u64;
    let before = block_pool().overflowed();
    churn_one(blocks, 100_000);
    assert_eq!(block_pool().cached_slabs(), blocks as usize, "spilled blocks stay recycled");
    let spilled = block_pool().overflowed() - before;
    assert!(spilled > 0, "48 retirements must overflow a 32-block cache");
    // Spilled blocks are on the global list already — visible to trim
    // without a flush.
    assert_eq!(block_pool().trim(), spilled as usize);
    sched::slab::flush_this_thread();
    assert_eq!(block_pool().trim(), blocks as usize - spilled as usize);
}

#[test]
fn split_out_sets_recycle_like_any_other() {
    // Blocks in the out-of-line lanes of a grown table, as well as in the
    // inline one, leave through the same drop.
    let _guard = isolated();
    let set = TreeOutsetObj::new();
    while set.force_split() {}
    for t in 0..(2 * BLOCK_SLOTS) {
        let _ = set.add(t, t);
    }
    let mut n = 0u64;
    assert!(set.finish(&mut |_| n += 1));
    assert_eq!(n, 2 * BLOCK_SLOTS);
    let blocks = set.block_count();
    assert!(blocks > 2, "spread keys touch several lanes: {blocks} blocks");
    assert_eq!(block_pool().cached_slabs(), 0, "nothing leaves before the drop");
    drop(set);
    assert_eq!(block_pool().cached_slabs(), blocks, "every lane's blocks, and only they");
}

#[test]
fn unfinished_drop_with_registered_tokens_recycles_cleanly() {
    // An out-set dropped before `finish` may still hold tokens (the dag
    // runtime sweeps first; a raw user may not). Its block must retire
    // without tripping the undelivered-token check, come back poisoned
    // (`reset` debug-asserts that on reuse) and serve the next out-set
    // with none of the stale tokens.
    let _guard = isolated();
    let set = TreeOutsetObj::new();
    for t in 0..5 {
        let _ = set.add(9_000 + t, 0);
    }
    drop(set);
    assert_eq!(block_pool().cached_slabs(), 1);
    let next = TreeOutsetObj::new();
    let _ = next.add(1, 0);
    assert_eq!(block_pool().cached_slabs(), 0, "the abandoned block is the one reused");
    let mut got = Vec::new();
    assert!(next.finish(&mut |t| got.push(t)));
    assert_eq!(got, vec![1]);
}

#[test]
fn conservation_identity_holds_at_quiescence() {
    // The ROADMAP leak check, in miniature: after churning many
    // out-sets to quiescence, every block born (fresh or reused) is
    // accounted dead (recycled — the one way a block dies), and the recycler gauge
    // matches the counter flows. Skipped without telemetry — the
    // counters are no-ops there; `tests/recycle_stress.rs` covers the
    // gauge-only story in that mode.
    if !obs::enabled() {
        return;
    }
    let _guard = isolated();
    let before = obs::Snapshot::take();
    for round in 0..20u64 {
        churn_one(2 + round % 3, round * 10_000);
    }
    // An out-set dropped unfinished takes the same exit.
    let unfinished = TreeOutsetObj::new();
    for t in 0..BLOCK_SLOTS {
        let _ = unfinished.add(t, 0);
    }
    drop(unfinished);
    let d = obs::Snapshot::take().diff(&before);
    let born = d.counter("outset.blocks_allocated") + d.counter("outset.blocks_reused");
    let dead = d.counter("outset.blocks_recycled");
    assert_eq!(born, dead, "no live blocks remain, so births must equal deaths");
    assert!(d.counter("outset.blocks_reused") > 0, "steady churn must actually reuse");
    assert_eq!(
        block_pool().cached_slabs() as u64,
        d.counter("outset.blocks_recycled") - d.counter("outset.blocks_reused"),
        "the recycler holds exactly the retired-not-reused blocks (no trim in the window)"
    );
    sched::slab::flush_this_thread();
    block_pool().trim();
}
