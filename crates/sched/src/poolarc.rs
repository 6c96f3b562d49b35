//! [`PoolArc`]: an atomically reference-counted box whose backing memory
//! is recycled through the [`crate::recycle`] size-class pools.
//!
//! `std::sync::Arc` always round-trips the global allocator; a future's
//! shared core (`FutureCore`: out-set, value cell, completion flag) is
//! created once per future and held by any number of handles, setters
//! and continuations. `PoolArc` keeps the exact `Arc` semantics the dag
//! layer relies on — `clone` is a relaxed increment, the last `drop`
//! runs the value's drop glue exactly once with release/acquire
//! publication — but births the header from a class slab and retires it
//! back there ([`recycle::alloc_uninit`] / [`recycle::free`]), so warm-run churn
//! stops touching the allocator.
//!
//! A refcount step is a locked instruction on a line every holder shares,
//! so a holder known when the value is made should not cost one:
//! [`PoolArc::new_held`] births the count at `N` and returns the `N`
//! handles together (a future's core has three — its handle, its
//! completion sweep, its value setter), and from there each is an ordinary
//! handle. [`PoolArc::new_held_in_place`] is the same birth with the value
//! written straight into the slab instead of moved in.
//!
//! It is for objects whose holder count is genuinely open-ended. The
//! decrement pair two sibling vertices share is *not* one: it has
//! exactly two users, so its claim flag doubles as its reference count
//! and it needs no header at all (`incounter::DecPair::claim_last`,
//! `spdag`'s `pair` module).
//!
//! The header records nothing about its birth: which class serves it —
//! or, for a value too big or over-aligned for the ladder, the plain
//! allocator — follows from `T`'s layout. Births and deaths are counted
//! in the `sched.poolarc_*` counters and obey the usual conservation
//! identity at quiescence: `alloc + reuse == recycled + dropped`.

use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

use crate::recycle;

#[repr(C)]
struct Inner<T> {
    strong: AtomicUsize,
    value: T,
}

/// A pooled `Arc`: shared ownership of `T` with the backing allocation
/// recycled through the scheduler's size-class slabs.
///
/// ```
/// let a = sched::PoolArc::new(41u64);
/// let b = a.clone();
/// assert_eq!(*a + 1, *b + 1);
/// ```
pub struct PoolArc<T> {
    ptr: NonNull<Inner<T>>,
    _marker: PhantomData<Inner<T>>,
}

// SAFETY: same bounds as std::sync::Arc — the value is shared across
// threads and dropped on an arbitrary one.
unsafe impl<T: Send + Sync> Send for PoolArc<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for PoolArc<T> {}

impl<T> PoolArc<T> {
    /// Allocate a new shared `T`, the header served by the size-class
    /// pool its layout fits (the plain allocator when it fits none).
    pub fn new(value: T) -> Self {
        let [only] = Self::new_held(value);
        only
    }

    /// [`new`](PoolArc::new) for a value whose first `N` holders are known
    /// where it is made: the count is born at `N` and the `N` handles come
    /// back together, so none of them costs the locked increment of a
    /// `clone` — on a line the holders are about to share. One birth on
    /// the `sched.poolarc_*` counters, as for `new`.
    pub fn new_held<const N: usize>(value: T) -> [Self; N] {
        // SAFETY: the one write initializes the whole value.
        unsafe { Self::new_held_in_place(|slot| slot.write(value)) }
    }

    /// [`new_held`](PoolArc::new_held) for a value built **in place**: the
    /// slab is taken first, and `init` writes the value straight into it —
    /// field by field, so that nothing is assembled on the stack and copied
    /// over (`recycle::alloc_uninit`). A future's core is born this way.
    ///
    /// # Safety
    /// `init` must leave `*slot` fully initialized (one that unwinds leaks
    /// the slab).
    #[inline(always)]
    pub unsafe fn new_held_in_place<const N: usize>(init: impl FnOnce(*mut T)) -> [Self; N] {
        const { assert!(N >= 1, "a value nobody holds would never be dropped") };
        let (ptr, reused) = recycle::alloc_uninit::<Inner<T>>();
        // SAFETY: `alloc_uninit` returned memory for an `Inner<T>`,
        // exclusively ours; the caller's `init` fills the value.
        unsafe {
            std::ptr::addr_of_mut!((*ptr).strong).write(AtomicUsize::new(N));
            init(std::ptr::addr_of_mut!((*ptr).value));
        }
        if reused {
            obs::counter!("sched.poolarc_reuse").inc();
        } else {
            obs::counter!("sched.poolarc_alloc").inc();
        }
        // SAFETY: `alloc_uninit` returns a valid, non-null allocation.
        let ptr = unsafe { NonNull::new_unchecked(ptr) };
        // Exactly the `N` handles the count was born with.
        std::array::from_fn(|_| Self { ptr, _marker: PhantomData })
    }

    fn inner(&self) -> &Inner<T> {
        // SAFETY: the inner struct is live while any PoolArc points at it.
        unsafe { self.ptr.as_ref() }
    }

    /// Current strong count (diagnostic; racy by nature).
    pub fn strong_count(this: &Self) -> usize {
        this.inner().strong.load(Ordering::Acquire)
    }

    /// Whether two handles share one allocation.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        a.ptr == b.ptr
    }
}

impl<T> Deref for PoolArc<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner().value
    }
}

impl<T> Clone for PoolArc<T> {
    fn clone(&self) -> Self {
        // Relaxed is sufficient: the clone derives from an existing
        // handle, which already keeps the value alive (same as std Arc).
        let old = self.inner().strong.fetch_add(1, Ordering::Relaxed);
        assert!(old < isize::MAX as usize, "PoolArc refcount overflow");
        Self { ptr: self.ptr, _marker: PhantomData }
    }
}

impl<T> Drop for PoolArc<T> {
    fn drop(&mut self) {
        if self.inner().strong.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Synchronize with every other handle's Release decrement before
        // running drop glue (the std Arc protocol).
        fence(Ordering::Acquire);
        // SAFETY: we hold the last reference; nobody else can reach the
        // allocation, which `new_held_in_place` obtained from
        // `recycle::alloc_uninit` and initialized.
        if unsafe { recycle::free(self.ptr.as_ptr()) } {
            obs::counter!("sched.poolarc_recycled").inc();
        } else {
            obs::counter!("sched.poolarc_dropped").inc();
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PoolArc<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn clone_shares_and_last_drop_frees_once() {
        struct Tally(Arc<AtomicU64>);
        impl Drop for Tally {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let a = PoolArc::new(Tally(Arc::clone(&drops)));
        let b = a.clone();
        assert!(PoolArc::ptr_eq(&a, &b));
        assert_eq!(PoolArc::strong_count(&a), 2);
        drop(a);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(b);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn header_is_recycled_through_class_pool() {
        let first = PoolArc::new(7u64);
        let addr = first.ptr.as_ptr() as usize;
        drop(first);
        // Same thread, same class: the thread cache must serve the very
        // same slab back.
        let second = PoolArc::new(9u64);
        assert_eq!(second.ptr.as_ptr() as usize, addr);
        drop(second);
    }

    #[test]
    fn cross_thread_drop_races_are_clean() {
        let v = PoolArc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let v = v.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        v.fetch_add(1, Ordering::Relaxed);
                        let _ = v.clone();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.load(Ordering::Relaxed), 8000);
    }
}
