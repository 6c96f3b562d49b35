//! Test support for "built where it lives" (`crate::vertex`): slabs full of
//! a pattern, so that a field an emplacing constructor forgets to write
//! reads the pattern instead of a lucky zero.

use sched::recycle;

/// The byte every scribbled slab is filled with.
pub(crate) const SCRIBBLE: u8 = 0xA5;

/// Fill this thread's caches of the 64, 128 and 256 B classes — the pair's,
/// the vertex's and the future core's, and the ones spilled bodies and
/// counters take — with slabs scribbled past their poison words. The next
/// objects this thread builds in those classes are built over the pattern.
pub(crate) fn scribble() {
    for bytes in [64, 128, 256] {
        let class = recycle::class_for(bytes, 8).expect("a ladder size");
        let slabs: Vec<*mut u8> = (0..64).map(|_| recycle::acquire_or_alloc(class).0).collect();
        for &slab in &slabs {
            // SAFETY: a slab of `bytes` bytes, ours until released. The
            // first three words are the cache's link and the debug poison
            // stamp, which the release rewrites.
            unsafe { slab.add(24).write_bytes(SCRIBBLE, bytes - 24) };
        }
        slabs.into_iter().for_each(|slab| recycle::release(class, slab));
    }
}

/// The first byte of `field`, read as a byte: how a `bool` the constructor
/// forgot is seen without reading an invalid `bool`.
pub(crate) fn byte<T>(field: &T) -> u8 {
    // SAFETY: every field is at least one initialized-or-scribbled byte.
    unsafe { *(field as *const T as *const u8) }
}
