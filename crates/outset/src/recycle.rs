//! The block recycler's probes and its release valve.
//!
//! The mechanism itself lives in [`crate::tree`] (an out-set's `Drop`
//! retires every block it owns) and `sched::slab` (per-worker caches
//! over a global free list); this module is the small public surface
//! around it: the gauges the bench harness and the reclamation tests
//! read, and [`trim`].
//!
//! ## Accounting
//!
//! Four counters (`telemetry` feature) and one gauge tell the whole
//! story. Every block is born through `outset.blocks_allocated` (fresh
//! `Box`) or `outset.blocks_reused` (served by the recycler), leaves its
//! out-set through `outset.blocks_recycled` (retired to the recycler —
//! there is no other exit), and leaves the recycler for the allocator
//! through `outset.blocks_trimmed` ([`trim`]). At quiescence (every
//! out-set dropped):
//!
//! ```text
//! blocks_allocated + blocks_reused == blocks_recycled   (live = 0)
//! cached_blocks() == blocks_recycled − blocks_reused − blocks_trimmed
//! ```
//!
//! Mid-run, the difference of the two sides of the first identity is
//! exactly the number of live blocks. `harness obs --assert-bound`
//! checks both identities after a quiesced run.

use crate::tree;

/// Blocks held by the recycler: the global free list plus the calling
/// thread's cache. Exact at every `sched::run`'s return (each participant
/// flushes its cache before it reports done); a lower bound while
/// workers run.
pub fn cached_blocks() -> usize {
    tree::block_pool().cached_slabs()
}

/// Bytes currently held by the recycler — the cached-but-free footprint,
/// which `FootprintReport` counts separately from live blocks.
pub fn cached_bytes() -> usize {
    tree::block_pool().cached_bytes()
}

/// Size of one slot block in bytes.
pub fn block_bytes() -> usize {
    tree::block_pool().slab_bytes()
}

/// Blocks ever spilled from a full worker cache to the global free list
/// (the `outset.blocks_overflowed` counter's feature-independent twin).
pub fn overflowed_blocks() -> u64 {
    tree::block_pool().overflowed()
}

/// Return every block on the global free list to the allocator (worker
/// caches are not touched — `sched::slab::flush_this_thread` on their
/// threads first). Returns the number of blocks freed. This is the
/// footprint release valve: the free-list bound is `O(peak live
/// blocks)`, and trim is how a phase change gives that memory back.
pub fn trim() -> usize {
    tree::trim_block_pool()
}
