//! Size-classed slab recycling for the runtime's small hot-path objects.
//!
//! The out-set recycler (PR 4) proved the recipe on one fixed block type;
//! this module generalizes it to the *vertices and continuations*
//! themselves, which cannot share one typed pool: `Vertex<C>` is a
//! different type — and size — per counter family, and Rust has no
//! generic statics. Instead a small fixed ladder of power-of-two **size
//! classes** (each one a [`crate::slab::SlabPool`] made with its class
//! layout, which mints, caches and frees the class's slabs exactly as the
//! out-set's block pool does its blocks) serves every
//! consumer whose layout fits: dag vertices, the decrement pairs sibling
//! vertices share, pooled reference-counted headers ([`crate::PoolArc`]),
//! spilled strand frames, and anything a later layer wants to recycle.
//!
//! ## Discipline (inherited from the out-set recycler)
//!
//! * **Provenance is the type.** Recycling is unconditional: where an
//!   object's memory comes from — and so where it must go back to — is a
//!   compile-time function of its layout ([`class_of`] is `size_of` /
//!   `align_of` arithmetic). [`alloc_uninit`] (or [`alloc`]) and [`free`]
//!   are the one typed pair every consumer goes through; no object records
//!   how it was born, and there is nothing to flip mid-run.
//! * **Poison stamps.** In debug builds every slab released to a class
//!   pool is stamped with [`POISON`] in its second and third words (the
//!   first belongs to the slab cache's intrusive link, see
//!   [`crate::slab`]); acquire asserts the stamp. A write into a cached
//!   slab trips the assertion instead of silently corrupting the next
//!   object born there. (The odd/even *generation* stamp of the out-set
//!   recycler guards re-publication races of shared blocks; class slabs
//!   are never shared while dead, so poison alone closes their surface.)
//! * **Layout by class.** Slabs are born with the class layout, not
//!   the object's, so a slab retired by a `Vertex<DynSnzi>` can be reborn
//!   as a `DecPair`. Alignment is per class: the 32 B and 64 B classes
//!   are 16-aligned, every class of 128 B and up is born 128-aligned —
//!   two cache lines, what the runtime's padded objects (`snzi::Root`,
//!   `snzi::ChildPair`, an out-set lane) ask for so that neighbours never
//!   false-share. A layout lands in the smallest class that covers both
//!   its size and its alignment (64 B / align 32 rides in the 128 B
//!   class). What is still off the ladder — anything above 1024 B or
//!   aligned past 128 — is the one fallback left: [`alloc_uninit`] and
//!   [`free`] send it to the plain allocator, selected by the same layout
//!   arithmetic.
//!
//! ## The fast path is compiled into the call site
//!
//! Because the class is a constant of `T`, so is everything the fast path
//! looks up: class `c`'s pool owns cache slot `c + 1` of every thread
//! ([`crate::slab`]), and [`alloc_uninit`] and [`free`] inline the pop or
//! push on the thread's `cur` magazine — a thread-local state check, two
//! loads and two stores at a fixed offset. What is not the fast path stays
//! out of line and `#[cold]`: swapping in `prev` or a depot magazine, the
//! fresh allocation, a spill, and the `sched.recycle_miss` failpoint.
//! [`acquire_or_alloc`] and [`release`] route a class chosen at run time
//! through the same code, out of line.
//!
//! The typed pair also decides how an object is *built*. A SIGPROF profile
//! of `fib` at W = 1 (`cores: 2`) found the recycler called out of line —
//! 9.2 % of samples in `acquire_or_alloc`, 7.0 % in `release` — and, in
//! `spdag`'s `Ctx::spawn`, 7.1 % on two 16-byte loads that read back a
//! vertex and frame just written to the stack 8 bytes at a time. A value
//! built before its slab is in hand lives on the stack across the acquire
//! (the compiler must be able to drop it if the acquire unwinds) and is
//! copied in afterwards; a 16-byte load of two fresh 8-byte stores cannot
//! take its data from them and waits until they retire — a
//! store-forwarding stall. Inlining the acquire alone made that stall
//! worse (11.5 % on one instruction): the copy moved closer to the stores.
//! So the runtime takes the slab first and writes each field into it
//! ([`alloc_uninit`], `spdag::vertex`'s "Built where it lives"), and
//! [`alloc`] is for values that come out of `make` in registers.
//!
//! ## Accounting
//!
//! Consumers count births and deaths (`sched.vertex_*`,
//! `sched.poolarc_*`, `sched.pairs_*`); this module only owns the standby
//! gauges, which cost the fast path nothing: they are the depots' slab
//! totals plus the calling thread's own caches, exact at every
//! [`crate::run`]'s return (see [`crate::slab`]). At quiescence, per
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

use std::alloc::Layout;

use crate::slab::{self, SlabPool};

/// The size ladder. Powers of two keep `class_for` a couple of
/// instructions and internal fragmentation under 2×.
const CLASS_BYTES: [usize; slab::CLASS_SLOTS] = [32, 64, 128, 256, 512, 1024];

/// Alignment of every slab of `class` (and the most an object pooled there
/// may require): a cache-line pair from the 128 B class up, the
/// allocator's natural 16 below it, where a padded object cannot fit
/// anyway.
const fn class_align(class: usize) -> usize {
    if CLASS_BYTES[class] >= 128 {
        128
    } else {
        16
    }
}

/// Per-thread cache bound per class (slabs): two magazines of half of it,
/// the older handed whole to the class's depot on overflow, exactly as
/// for out-set blocks.
const CACHE_CAP: usize = 64;

/// Class `c`'s pool owns cache slot `c + 1` of every thread
/// (`slab::CLASS_SLOTS`): a constant wherever `c` is.
static POOLS: [SlabPool; slab::CLASS_SLOTS] = [
    class_pool("sched.class32", 0),
    class_pool("sched.class64", 1),
    class_pool("sched.class128", 2),
    class_pool("sched.class256", 3),
    class_pool("sched.class512", 4),
    class_pool("sched.class1024", 5),
];

/// The pool of `class`, whose slabs are born and freed with the class
/// layout: every ladder size is a power of two and a multiple of its
/// class's alignment.
const fn class_pool(name: &'static str, class: usize) -> SlabPool {
    let Ok(layout) = Layout::from_size_align(CLASS_BYTES[class], class_align(class)) else {
        panic!("a class layout is valid")
    };
    SlabPool::in_slot(name, layout, CACHE_CAP, class + 1)
}

/// The class pools, in slot order (for the slab caches' flush).
pub(crate) fn class_pools() -> &'static [SlabPool; slab::CLASS_SLOTS] {
    &POOLS
}

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
/// vertex's own slab — and is the most that still fits `Vertex<DynSnzi>`
/// (120 B, its scope's counter behind a pointer) inside the 128 B class.
pub const INLINE_SLOT_BYTES: usize = 48;

/// Alignment ceiling for inline slot storage (the in-vertex buffer is
/// 8-aligned).
pub const INLINE_SLOT_ALIGN: usize = 8;

/// The class that serves a `size`/`align` layout, or `None` when the
/// layout is off the ladder and the caller must use the plain allocator.
pub const fn class_for(size: usize, align: usize) -> Option<u8> {
    let mut class = 0;
    while class < CLASS_BYTES.len() {
        if CLASS_BYTES[class] >= size && class_align(class) >= align {
            return Some(class as u8);
        }
        class += 1;
    }
    None
}

/// [`class_for`] of a concrete type: a compile-time constant.
pub const fn class_of<T>() -> Option<u8> {
    class_for(std::mem::size_of::<T>(), std::mem::align_of::<T>())
}

/// Slab size of `class` in bytes.
pub fn class_bytes(class: u8) -> usize {
    CLASS_BYTES[class as usize]
}

/// Take one slab of `class`: the thread's `cur` magazine inline, every
/// other route out of line. Returns the slab and whether it was reused.
/// With a constant `class` — every [`alloc`] — the pool and the cache slot
/// are constants too.
#[inline(always)]
fn take(class: usize) -> (*mut u8, bool) {
    // Failpoint (no-op unless `fault-inject` arms it): pretend the class
    // pool is empty, forcing the fresh-allocation path. Conservation
    // (`allocated + reused == recycled + dropped`) is unaffected — the
    // slab is simply born fresh — which is exactly what makes the site
    // safe to fire anywhere. Without the feature the test is a constant.
    if crate::failpoint::enabled() && forced_miss() {
        return fresh(class);
    }
    match slab::pop_local(class + 1) {
        Some(ptr) => {
            check_poison(ptr);
            (ptr, true)
        }
        None => refill(class),
    }
}

/// Whether the `sched.recycle_miss` failpoint fires for this acquire.
#[cold]
#[inline(never)]
fn forced_miss() -> bool {
    crate::failpoint::fire("sched.recycle_miss")
}

/// `cur` was empty (or the thread's locals are gone): the pool's own
/// `take` — `prev` swapped in, a magazine off the depot, else a fresh slab.
#[cold]
#[inline(never)]
fn refill(class: usize) -> (*mut u8, bool) {
    let (ptr, reused) = POOLS[class].take();
    if reused {
        check_poison(ptr);
    }
    (ptr, reused)
}

/// The failpoint's forced miss: a fresh slab of `class`, past its cache.
#[cold]
#[inline(never)]
fn fresh(class: usize) -> (*mut u8, bool) {
    (POOLS[class].fresh(), false)
}

/// In debug builds: a slab served by a pool still carries the stamp its
/// release left.
#[inline(always)]
fn check_poison(_ptr: *mut u8) {
    #[cfg(debug_assertions)]
    for word in POISON_WORDS {
        // SAFETY: the slab is at least 32 bytes and exclusively ours.
        let stamp = unsafe { (_ptr as *const u64).add(word).read() };
        assert_eq!(stamp, POISON, "a cached slab was written to while free");
    }
}

/// Give one dead slab of `class` back: the thread's `cur` magazine inline,
/// a full one (or a torn-down thread) out of line. Constant `class` as for
/// [`take`].
///
/// # Safety
/// `ptr` is a dead slab of `class` that the caller owns and gives up.
#[inline(always)]
unsafe fn give(class: usize, ptr: *mut u8) {
    #[cfg(debug_assertions)]
    for word in POISON_WORDS {
        // SAFETY: the slab is dead, at least 32 bytes, exclusively ours.
        unsafe { (ptr as *mut u64).add(word).write(POISON) };
    }
    // SAFETY: the caller's contract.
    if !unsafe { slab::push_local(class + 1, CACHE_CAP / 2, ptr) } {
        // SAFETY: the caller's contract; `push_local` kept nothing.
        unsafe { spill(class, ptr) };
    }
}

/// `cur` was full (or the thread's locals are gone): the pool's general
/// release, which hands a magazine to the depot.
///
/// # Safety
/// As [`give`].
#[cold]
#[inline(never)]
unsafe fn spill(class: usize, ptr: *mut u8) {
    // SAFETY: the caller's contract.
    unsafe { POOLS[class].release(ptr) };
}

/// Take one recycled slab of `class`, or allocate a fresh one with the
/// class layout. Returns the slab and whether it was served by the pool
/// (`true` = reused). The caller owns the (uninitialized) memory and
/// must eventually [`release`] it with the same class.
///
/// The untyped, out-of-line entry for a class chosen at run time; the
/// runtime's objects go through [`alloc_uninit`], which compiles the same
/// path into its call site with the class fixed.
pub fn acquire_or_alloc(class: u8) -> (*mut u8, bool) {
    take(class as usize)
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
    // SAFETY: the documented contract of this function — `ptr` is a dead
    // slab of `class` (≥ 32 bytes, class-aligned, obtained from
    // `acquire_or_alloc`) that the caller owns and gives up.
    unsafe { give(class as usize, ptr) };
}

/// Memory for a `T`, to be built **in place**: a slab of its layout's
/// class, or — for the off-ladder layouts no class serves — a plain
/// allocation. Returns the uninitialized object and whether a cached slab
/// was reused (`false` for a fresh slab and for every off-ladder birth).
/// The caller writes every field before anything reads the object, owns
/// the pointer, and ends it with [`free`].
///
/// This is the runtime's constructor path: `spdag`'s vertices, bodies,
/// pairs and future cores take their slab first and then write each field
/// into it, so no value is assembled on the stack and copied over (module
/// docs, "The fast path is compiled into the call site").
#[inline(always)]
pub fn alloc_uninit<T>() -> (*mut T, bool) {
    // A constant, so each instantiation compiles to exactly one arm.
    match const { class_of::<T>() } {
        Some(class) => {
            let (raw, reused) = take(class as usize);
            (raw as *mut T, reused)
        }
        None => (Box::into_raw(Box::<T>::new_uninit()) as *mut T, false),
    }
}

/// Build a `T` in recycled memory ([`alloc_uninit`]), from a value:
/// `make` runs once the slab is in hand. Right for a value `make` returns
/// in registers; one it would return through memory is better written
/// field by field. A `make` that panics leaks its slab.
#[inline(always)]
pub fn alloc<T>(make: impl FnOnce() -> T) -> (*mut T, bool) {
    let (ptr, reused) = alloc_uninit::<T>();
    // SAFETY: `alloc_uninit` returned memory of `T`'s size and alignment,
    // exclusively ours.
    unsafe { ptr.write(make()) };
    (ptr, reused)
}

/// End an object born by [`alloc`] or [`alloc_uninit`]: run its drop
/// glue, then send the memory back where `T`'s layout says it came from.
/// Returns whether the slab was recycled (`false`: an off-ladder object
/// went to the plain allocator).
///
/// # Safety
/// `ptr` must have come from [`alloc::<T>`](alloc) or
/// [`alloc_uninit::<T>`](alloc_uninit), hold an initialized `T`, be
/// exclusively owned by the caller, and never be used afterwards.
#[inline(always)]
pub unsafe fn free<T>(ptr: *mut T) -> bool {
    match const { class_of::<T>() } {
        Some(class) => {
            // SAFETY: valid for drop per the caller contract; the slab
            // then goes back to the class `alloc` acquired it from.
            unsafe {
                std::ptr::drop_in_place(ptr);
                give(class as usize, ptr as *mut u8);
            }
            true
        }
        None => {
            // SAFETY: off-ladder objects were boxed by `alloc_uninit`
            // (a `Box<MaybeUninit<T>>`, the same layout).
            drop(unsafe { Box::from_raw(ptr) });
            false
        }
    }
}

/// Slabs held across all class pools: the depots plus the calling
/// thread's caches — exact at every [`crate::run`]'s return, a lower
/// bound while workers run ([`SlabPool::cached_slabs`]).
pub fn cached_slabs() -> usize {
    POOLS.iter().map(|p| p.cached_slabs()).sum()
}

/// [`cached_slabs`] class by class, smallest first: what a gauge test
/// prints when the total is off, so the failure names the class.
#[doc(hidden)]
pub fn cached_slabs_by_class() -> [usize; CLASS_BYTES.len()] {
    std::array::from_fn(|class| POOLS[class].cached_slabs())
}

/// Bytes held across all class pools — the standby footprint, bounded
/// by peak-live pooled objects (same exactness as [`cached_slabs`]).
pub fn cached_bytes() -> usize {
    POOLS.iter().map(|p| p.cached_bytes()).sum()
}

/// Slabs ever handed from a full thread cache to a depot, summed over
/// classes.
pub fn overflowed() -> u64 {
    POOLS.iter().map(|p| p.overflowed()).sum()
}

/// Return every slab in the depots to the allocator (thread caches
/// are not touched — [`crate::slab::flush_this_thread`] on their threads
/// first). Returns the number of slabs freed.
pub fn trim() -> usize {
    POOLS.iter().map(SlabPool::trim).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn class_ladder_covers_expected_sizes() {
        assert_eq!(class_for(1, 8), Some(0));
        assert_eq!(class_for(32, 8), Some(0));
        assert_eq!(class_for(33, 8), Some(1));
        assert_eq!(class_for(1024, 16), Some(5));
        assert_eq!(class_for(1025, 8), None, "off the ladder");
        assert_eq!(class_for(64, 256), None, "over-aligned for every class");
        assert_eq!(class_bytes(2), 128);
        // Alignment is per class: the padded layouts ride in the first
        // class that is both big enough and aligned enough.
        assert_eq!(class_for(128, 128), Some(2), "snzi::Root");
        assert_eq!(class_for(256, 128), Some(3), "snzi::ChildPair");
        assert_eq!(class_for(64, 32), Some(2), "past the 64 B class's 16");
        assert_eq!(class_for(64, 16), Some(1));
    }

    #[test]
    fn fresh_slabs_of_the_padded_classes_are_line_pair_aligned() {
        // Hold several at once so at least one is fresh whatever the
        // pool's state; reused ones were born with the same layout.
        for class in [class_for(128, 128).unwrap(), class_for(256, 128).unwrap()] {
            let held: Vec<*mut u8> = (0..4).map(|_| acquire_or_alloc(class).0).collect();
            for &slab in &held {
                assert_eq!(slab as usize % 128, 0, "class {class}");
            }
            held.into_iter().for_each(|slab| release(class, slab));
        }
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
        release(cl, b);
    }

    /// Counts its drops, so the typed pair's drop glue is observable.
    struct Tally<const N: usize>(Arc<AtomicUsize>, [u64; N]);

    impl<const N: usize> Drop for Tally<N> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn typed_pair_recycles_on_ladder_layouts() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (a, _) = alloc(|| Tally(drops.clone(), [7u64; 4]));
        // SAFETY: `a` came from `alloc` and is not used afterwards.
        assert!(unsafe { free(a) }, "a 40-byte object retires into its class");
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // Same thread, same class: the LIFO cache serves the slab back.
        let (b, reused) = alloc(|| Tally(drops.clone(), [9u64; 4]));
        assert!(reused);
        assert_eq!(b as usize, a as usize);
        // SAFETY: as above.
        assert!(unsafe { free(b) });
        assert_eq!(drops.load(Ordering::SeqCst), 2, "drop glue ran exactly once each");
    }

    #[test]
    fn typed_pair_sends_off_ladder_layouts_to_the_allocator() {
        #[repr(align(256))]
        struct Wide(#[allow(dead_code)] Tally<1>);
        let drops = Arc::new(AtomicUsize::new(0));
        assert_eq!(class_of::<Tally<256>>(), None, "2 KiB is above the ladder");
        assert_eq!(class_of::<Wide>(), None, "align 256 is above every class's");
        let (big, big_reused) = alloc(|| Tally(drops.clone(), [0u64; 256]));
        let (wide, wide_reused) = alloc(|| Wide(Tally(drops.clone(), [0u64; 1])));
        assert!(!big_reused && !wide_reused, "the allocator never reuses");
        assert_eq!(wide as usize % 256, 0, "the fallback honours the type's own alignment");
        // SAFETY: both came from `alloc` and are not used afterwards.
        unsafe {
            assert!(!free(big), "not recycled");
            assert!(!free(wide), "not recycled");
        }
        assert_eq!(drops.load(Ordering::SeqCst), 2);
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
        // SAFETY: the slab stays allocated in the pool; the write is the
        // very fault the stamp exists to catch.
        unsafe { (a as *mut u64).add(2).write(7) };
        let _ = acquire_or_alloc(cl);
    }

    #[test]
    fn trim_frees_flushed_slabs() {
        // Class 1024 is untouched by sibling tests, so the flushed slab
        // deterministically survives in the depot until trim.
        let cl = class_for(1000, 16).unwrap();
        assert_eq!(class_bytes(cl), 1024);
        let (a, _) = acquire_or_alloc(cl);
        release(cl, a);
        crate::slab::flush_this_thread();
        assert!(trim() >= 1);
    }
}
