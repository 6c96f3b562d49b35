//! Size-classed slab recycling for the runtime's small hot-path objects.
//!
//! The out-set recycler (PR 4) proved the recipe on one fixed block type;
//! this module generalizes it to the *vertices and continuations*
//! themselves, which cannot share one typed pool: `Vertex<C>` is a
//! different type — and size — per counter family, and Rust has no
//! generic statics. Instead a small fixed ladder of power-of-two **size
//! classes** (each one a [`crate::slab::SlabPool`], so the per-worker
//! cache / shared-overflow machinery is reused verbatim) serves every
//! consumer whose layout fits: dag vertices, the decrement pairs sibling
//! vertices share, pooled reference-counted headers ([`crate::PoolArc`]),
//! spilled strand frames, and anything a later layer wants to recycle.
//!
//! ## Discipline (inherited from the out-set recycler)
//!
//! * **Process switch, captured at birth.** [`enabled`] is read when an
//!   object is allocated; the object records which class (if any) it was
//!   born from and is retired by that *provenance*, never by the switch's
//!   current value — flipping the switch mid-run is always sound, and the
//!   conservation identities below stay exact.
//! * **Poison stamps.** In debug builds every slab released to a class
//!   pool is stamped with [`POISON`] in its second and third words (the
//!   first belongs to the slab cache's intrusive link, see
//!   [`crate::slab`]); acquire asserts the stamp. A write into a cached
//!   slab trips the assertion instead of silently corrupting the next
//!   object born there. (The odd/even *generation* stamp of the out-set
//!   recycler guards re-publication races of shared blocks; class slabs
//!   are never shared while dead, so poison alone closes their surface.)
//! * **Layout by class.** Slabs are allocated with the class layout
//!   (class bytes, [`CLASS_ALIGN`]), not the object's, so a slab retired
//!   by a `Vertex<DynSnzi>` can be reborn as a `DecPair`.
//!   Objects whose size or alignment exceed the ladder fall back to the
//!   plain allocator (class [`UNPOOLED`]).
//!
//! ## Accounting
//!
//! Consumers count births and deaths (`sched.vertex_*`,
//! `sched.poolarc_*`, `sched.pairs_*`); this module only owns the standby
//! gauges, which cost the fast path nothing: they are the shared lists'
//! lengths plus the calling thread's own caches, exact whenever every
//! worker has torn down (see [`crate::slab`]). At quiescence, per
//! consumer:
//!
//! ```text
//! allocated + reused == recycled + dropped      (live = 0)
//! ```
//!
//! and the standby footprint ([`cached_bytes`]) is bounded by the peak
//! number of simultaneously-live pooled objects — a slab only enters a
//! pool when an object dies, so the pool can never hold more slabs than
//! the high-water mark of births minus deaths. [`trim`] is the release
//! valve that hands the standby memory back to the allocator.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::slab::SlabPool;

/// Class byte recorded by objects that were *not* served by a class pool
/// (too big, over-aligned, or recycling disabled at birth). Retirement
/// for these goes straight back to the allocator.
pub const UNPOOLED: u8 = u8::MAX;

/// Alignment every class slab provides (and the most a pooled object may
/// require).
pub const CLASS_ALIGN: usize = 16;

/// The size ladder. Powers of two keep `class_for` a couple of
/// instructions and internal fragmentation under 2×.
const CLASS_BYTES: [usize; 6] = [32, 64, 128, 256, 512, 1024];

/// Per-thread cache bound per class (slabs); overflow spills half to the
/// class's shared list, exactly as for out-set blocks.
const CACHE_CAP: usize = 64;

static POOLS: [SlabPool; 6] = [
    SlabPool::new("sched.class32", 32, CACHE_CAP),
    SlabPool::new("sched.class64", 64, CACHE_CAP),
    SlabPool::new("sched.class128", 128, CACHE_CAP),
    SlabPool::new("sched.class256", 256, CACHE_CAP),
    SlabPool::new("sched.class512", 512, CACHE_CAP),
    SlabPool::new("sched.class1024", 1024, CACHE_CAP),
];

/// Debug poison stamped over dead slabs while they sit in a pool.
pub const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// The words of a dead class slab that carry [`POISON`]: the two after
/// the slab cache's link word (every class is at least four words).
#[cfg(debug_assertions)]
const POISON_WORDS: std::ops::Range<usize> = 1..3;

/// Capture-size ceiling (bytes) for closures and strand state stored
/// **inline** inside a pooled vertex instead of behind a pointer. This is
/// the knob PR 5 hard-coded at 24 B; it lives here because it is really a
/// property of the class ladder — it decides which ladder class a vertex
/// lands in, not anything about dag semantics. 48 B keeps a suspended
/// strand frame with up to 40 B of saved state (a few handles plus loop
/// indices) inline — suspension then touches no memory outside the
/// vertex's own slab — while still fitting `Vertex<DynSnzi>` comfortably
/// inside the 256 B class.
pub const INLINE_SLOT_BYTES: usize = 48;

/// Alignment ceiling for inline slot storage (the in-vertex buffer is
/// 8-aligned).
pub const INLINE_SLOT_ALIGN: usize = 8;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether objects allocated *now* will come from (and retire into) the
/// class pools (process default: `true`). Captured per allocation; see
/// the module docs for the provenance discipline.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Flip the process-wide recycling default, returning the previous
/// value. Affects only objects allocated afterwards — existing objects
/// retire by the provenance they were born with.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::SeqCst)
}

/// The class that serves a `size`/`align` layout, or `None` when the
/// layout is off the ladder and the caller must use the plain allocator.
pub fn class_for(size: usize, align: usize) -> Option<u8> {
    if align > CLASS_ALIGN {
        return None;
    }
    CLASS_BYTES.iter().position(|&b| b >= size).map(|i| i as u8)
}

/// [`class_for`] of a concrete type.
pub fn class_of<T>() -> Option<u8> {
    class_for(std::mem::size_of::<T>(), std::mem::align_of::<T>())
}

/// Slab size of `class` in bytes.
pub fn class_bytes(class: u8) -> usize {
    CLASS_BYTES[class as usize]
}

fn class_layout(class: u8) -> Layout {
    // Every ladder size is a multiple of CLASS_ALIGN except none — all
    // entries are >= 32 and powers of two, so this never fails.
    Layout::from_size_align(class_bytes(class), CLASS_ALIGN).expect("valid class layout")
}

/// Take one recycled slab of `class`, or allocate a fresh one with the
/// class layout. Returns the slab and whether it was served by the pool
/// (`true` = reused). The caller owns the (uninitialized) memory and
/// must eventually [`release`] or [`dealloc_slab`] it with the same
/// class.
pub fn acquire_or_alloc(class: u8) -> (*mut u8, bool) {
    debug_assert_ne!(class, UNPOOLED);
    // Failpoint (no-op unless `fault-inject` arms it): pretend the class
    // pool is empty, forcing the fresh-allocation path. Conservation
    // (`allocated + reused == recycled + dropped`) is unaffected — the
    // slab is simply born fresh — which is exactly what makes the site
    // safe to fire anywhere.
    if !crate::failpoint::fire("sched.recycle_miss") {
        if let Some(ptr) = POOLS[class as usize].acquire() {
            #[cfg(debug_assertions)]
            for word in POISON_WORDS {
                // SAFETY: the slab is at least 32 bytes and exclusively ours.
                let stamp = unsafe { (ptr as *const u64).add(word).read() };
                assert_eq!(stamp, POISON, "a cached slab was written to while free");
            }
            return (ptr, true);
        }
    }
    let layout = class_layout(class);
    // SAFETY: the class layout has non-zero size.
    let ptr = unsafe { alloc(layout) };
    if ptr.is_null() {
        handle_alloc_error(layout);
    }
    (ptr, false)
}

/// Hand one dead slab of `class` back to the recycler. The memory must
/// contain no live object (drop glue already ran); the pool stamps it
/// with [`POISON`] in debug builds and links it into the caller's cache
/// through its first word.
///
/// `ptr` must have come from [`acquire_or_alloc`] with the same `class`
/// and must not be used afterwards. (A safe signature with an `unsafe`
/// contract: `benchmark/` calls it as a safe function and is frozen, so
/// the lint is silenced here rather than the signature changed.)
#[allow(clippy::not_unsafe_ptr_arg_deref)]
pub fn release(class: u8, ptr: *mut u8) {
    debug_assert_ne!(class, UNPOOLED);
    #[cfg(debug_assertions)]
    for word in POISON_WORDS {
        // SAFETY: the slab is dead, at least 32 bytes, exclusively ours.
        unsafe { (ptr as *mut u64).add(word).write(POISON) };
    }
    // SAFETY: the documented contract of this function — `ptr` is a dead
    // slab of `class` (≥ 32 bytes, CLASS_ALIGN-aligned, obtained from
    // `acquire_or_alloc`) that the caller owns and gives up.
    unsafe { POOLS[class as usize].release(ptr) };
}

/// Free one slab of `class` straight back to the allocator (the
/// retirement path for a dead object when its slab should *not* be
/// recycled — currently only used by tests; [`trim`] covers the pools).
///
/// # Safety
/// `ptr` must have been obtained from [`acquire_or_alloc`] with the same
/// `class` and must not be referenced afterwards.
pub unsafe fn dealloc_slab(class: u8, ptr: *mut u8) {
    // SAFETY: same layout as the allocation per the caller contract.
    unsafe { dealloc(ptr, class_layout(class)) };
}

/// Slabs held across all class pools: the shared lists plus the calling
/// thread's caches — exact once every worker has torn down, a lower
/// bound while workers run ([`SlabPool::cached_slabs`]).
pub fn cached_slabs() -> usize {
    POOLS.iter().map(|p| p.cached_slabs()).sum()
}

/// Bytes held across all class pools — the standby footprint, bounded
/// by peak-live pooled objects (same exactness as [`cached_slabs`]).
pub fn cached_bytes() -> usize {
    POOLS.iter().map(|p| p.cached_bytes()).sum()
}

/// Slabs ever spilled from a full thread cache to a shared list, summed
/// over classes.
pub fn overflowed() -> u64 {
    POOLS.iter().map(|p| p.overflowed()).sum()
}

/// Move the current thread's class caches onto the shared lists so other
/// threads — or [`trim`] — can see those slabs. Worker threads do this
/// automatically at pool teardown ([`crate::slab::flush_this_thread`]
/// flushes every pool, the class pools included).
pub fn flush_thread_cache() {
    for pool in &POOLS {
        pool.flush_thread_cache();
    }
}

/// Return every slab on the shared lists to the allocator (thread caches
/// are not touched — call [`flush_thread_cache`] on their threads
/// first). Returns the number of slabs freed.
pub fn trim() -> usize {
    let mut n = 0;
    for (i, pool) in POOLS.iter().enumerate() {
        let layout = class_layout(i as u8);
        n += pool.trim(|ptr| {
            // SAFETY: every slab in class pool `i` was allocated with
            // that class's layout (acquire_or_alloc is the only source).
            unsafe { dealloc(ptr, layout) };
        });
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ladder_covers_expected_sizes() {
        assert_eq!(class_for(1, 8), Some(0));
        assert_eq!(class_for(32, 8), Some(0));
        assert_eq!(class_for(33, 8), Some(1));
        assert_eq!(class_for(1024, 16), Some(5));
        assert_eq!(class_for(1025, 8), None, "off the ladder");
        assert_eq!(class_for(64, 32), None, "over-aligned");
        assert_eq!(class_bytes(2), 128);
    }

    #[test]
    fn acquire_release_round_trip_reuses() {
        let cl = class_of::<[u64; 6]>().expect("48 bytes fits class 64");
        assert_eq!(class_bytes(cl), 64);
        let (a, reused) = acquire_or_alloc(cl);
        // The pool may be warm from sibling tests; only the round trip
        // itself is asserted deterministically.
        let _ = reused;
        release(cl, a);
        let before = cached_slabs();
        assert!(before >= 1);
        let (b, reused) = acquire_or_alloc(cl);
        assert!(reused, "released slab must be served back");
        assert_eq!(b, a);
        // Leave nothing behind.
        unsafe { dealloc_slab(cl, b) };
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "written to while free")]
    fn write_to_a_cached_slab_trips_the_poison_assert() {
        // Class 512 is this test's alone, and the cache is LIFO, so the
        // slab scribbled on is the one served back.
        let cl = class_for(500, 8).unwrap();
        let (a, _) = acquire_or_alloc(cl);
        release(cl, a);
        // A stale writer: past the cache's link word, inside the stamp.
        unsafe { (a as *mut u64).add(2).write(7) };
        let _ = acquire_or_alloc(cl);
    }

    #[test]
    fn switch_round_trips() {
        let prev = set_enabled(false);
        assert!(!enabled());
        set_enabled(prev);
        assert_eq!(enabled(), prev);
    }

    #[test]
    fn trim_frees_flushed_slabs() {
        // Class 1024 is untouched by sibling tests, so the flushed slab
        // deterministically survives on the shared list until trim.
        let cl = class_for(1000, 16).unwrap();
        assert_eq!(class_bytes(cl), 1024);
        let (a, _) = acquire_or_alloc(cl);
        release(cl, a);
        flush_thread_cache();
        assert!(trim() >= 1);
    }
}
