//! Per-worker slab caches with a global overflow pool.
//!
//! The out-set recycler (and any future fixed-size-block consumer) wants
//! allocator-free steady state: a block freed by one future's sweep
//! should satisfy the next future's first add without touching `malloc`.
//! Workers already carry identity and a private RNG ([`crate::WorkerCtx`]);
//! this module gives each worker (thread) a bounded private cache of raw
//! blocks per [`SlabPool`], spilling to the pool's shared free list when
//! the cache overflows and refilling from it in batches when the cache
//! runs dry.
//!
//! The pool is deliberately type-erased (`*mut u8`): callers own both
//! allocation and re-initialization of their blocks, so the pool never
//! runs drop glue and never needs to know the block type. `slab_bytes`
//! exists purely for footprint accounting. The one thing the pool asks of
//! a dead slab is its **first word**: a cached slab's first
//! `size_of::<usize>()` bytes hold the link to the next cached slab, so
//! slabs must be at least pointer-sized and pointer-aligned, and whatever
//! the consumer keeps in a dead slab (poison stamps, generation counters)
//! must live past that word.
//!
//! ## No shared word on the fast path
//!
//! This pool sits under every `spawn` of a runtime whose subject is
//! contention, so its fast path is held to the paper's own standard: a
//! [`SlabPool::acquire`] or [`SlabPool::release`] that hits the thread's
//! cache performs **no atomic read-modify-write and touches no memory
//! another thread writes**. The cache is an intrusive LIFO list in a
//! const-initialised thread-local table, found in O(1) by the pool's
//! *slot* (an index handed out once, on the pool's first use); push and
//! pop are two plain loads and two plain stores. Shared state — the
//! mutex-guarded overflow list and the gauges — is touched only when a
//! cache spills (half a cache, one lock acquisition), refills (likewise),
//! or is flushed.
//!
//! The gauges follow from that: [`SlabPool::cached_slabs`] is the length
//! of the shared list (mirrored into an atomic under the list's lock)
//! plus the *calling* thread's own cache. It is exact whenever every
//! other thread that used the pool has flushed — which worker teardown
//! guarantees — and a lower bound while workers are running.
//!
//! Because workers *are* threads in this pool (`sched::run` spawns one
//! scoped thread per worker), "per-worker cache" is realized as a
//! thread-local; [`crate::run`] flushes the running thread's caches back
//! to the shared lists at worker teardown ([`flush_this_thread`]), and a
//! thread-local destructor backstops non-pool threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Cache slots per thread, i.e. how many pools a process may use (the
/// runtime has seven, tests add a handful more); one past it panics.
const MAX_POOLS: usize = 32;

/// `SlabPool::slot` before the pool's first use.
const SLOT_UNASSIGNED: usize = 0;

/// Every pool that owns a cache slot, in slot order (`slot - 1` indexes
/// it). Locked only to hand out a slot and to flush a whole thread.
static REGISTRY: Mutex<Vec<&'static SlabPool>> = Mutex::new(Vec::new());

/// A global free list of uniform raw slabs plus the per-thread caches in
/// front of it. Designed to live in a `static` (`new` is `const`).
pub struct SlabPool {
    name: &'static str,
    slab_bytes: usize,
    /// Per-thread cache bound; overflow spills `cache_cap / 2 + 1` slabs
    /// to the shared list, refill pulls up to `cache_cap / 2` back.
    cache_cap: usize,
    /// 1-based index of this pool's cache in every thread's table;
    /// written once (under the registry lock), read-only ever after.
    slot: AtomicUsize,
    shared: Mutex<Vec<*mut u8>>,
    /// `shared.len()`, stored under the `shared` lock so the gauges read
    /// it without taking it.
    shared_len: AtomicUsize,
    /// Slabs spilled from a full thread cache to the shared list (ever);
    /// bumped once per spill, never per operation.
    overflowed: AtomicU64,
}

// SAFETY: the raw pointers in `shared` are inert storage — the pool only
// ever touches a slab's first word, and only while it owns the slab — and
// the caller's contract (release hands over exclusive ownership, acquire
// returns it) makes moving them across threads sound.
unsafe impl Send for SlabPool {}
unsafe impl Sync for SlabPool {}

/// The link word of a cached slab.
///
/// # Safety
/// `slab` must be a dead slab owned by the pool machinery (handed over by
/// `release`, not yet handed out again), pointer-sized and -aligned.
unsafe fn next_of(slab: *mut u8) -> *mut u8 {
    // SAFETY: per the contract above.
    unsafe { (slab as *mut *mut u8).read() }
}

/// Set the link word of a cached slab.
///
/// # Safety
/// As [`next_of`].
unsafe fn set_next(slab: *mut u8, next: *mut u8) {
    // SAFETY: per the contract above.
    unsafe { (slab as *mut *mut u8).write(next) }
}

/// One thread's cache for one pool: an intrusive LIFO list threaded
/// through the cached slabs' first words. Single-threaded by construction
/// (it lives in a thread-local), hence plain `Cell`s.
struct Cache {
    head: Cell<*mut u8>,
    len: Cell<usize>,
}

impl Cache {
    const fn new() -> Cache {
        Cache { head: Cell::new(std::ptr::null_mut()), len: Cell::new(0) }
    }

    /// # Safety
    /// `slab` must be a dead slab the caller owns: just handed to the pool
    /// (`release`) or just taken off the shared list (`refill`).
    unsafe fn push(&self, slab: *mut u8) {
        // SAFETY: per the contract above.
        unsafe { set_next(slab, self.head.get()) };
        self.head.set(slab);
        self.len.set(self.len.get() + 1);
    }

    fn pop(&self) -> Option<*mut u8> {
        let slab = self.head.get();
        if slab.is_null() {
            return None;
        }
        // SAFETY: every slab on the list is dead and owned by this cache.
        self.head.set(unsafe { next_of(slab) });
        self.len.set(self.len.get() - 1);
        Some(slab)
    }

    /// Detach everything after the newest `keep` slabs, returning the
    /// detached chain's head (null when there is nothing past `keep`).
    fn split_off(&self, keep: usize) -> *mut u8 {
        debug_assert!(keep == 0 || keep < self.len.get());
        let tail = if keep == 0 {
            self.head.replace(std::ptr::null_mut())
        } else {
            let mut last = self.head.get();
            for _ in 1..keep {
                // SAFETY: `keep < len`, so the walk stays on the list.
                last = unsafe { next_of(last) };
            }
            // SAFETY: as above; `last` is the `keep`-th slab.
            unsafe {
                let tail = next_of(last);
                set_next(last, std::ptr::null_mut());
                tail
            }
        };
        self.len.set(keep);
        tail
    }
}

/// All of this thread's caches, indexed by pool slot; flushed to their
/// pools on thread exit.
struct ThreadCaches([Cache; MAX_POOLS]);

impl ThreadCaches {
    /// Move every cached slab of this thread onto its pool's shared list.
    fn flush(&self) {
        if self.0.iter().all(|c| c.head.get().is_null()) {
            return;
        }
        // A non-empty cache implies its pool registered, and slots are
        // handed out in registry order.
        for (pool, cache) in REGISTRY.lock().iter().zip(&self.0) {
            pool.push_chain(cache.split_off(0));
        }
    }
}

impl Drop for ThreadCaches {
    fn drop(&mut self) {
        self.flush();
    }
}

std::thread_local! {
    static CACHES: ThreadCaches = const { ThreadCaches([const { Cache::new() }; MAX_POOLS]) };
}

impl SlabPool {
    /// A pool of `slab_bytes`-sized slabs with per-thread caches bounded
    /// at `cache_cap` slabs. Const, so pools can be `static`.
    pub const fn new(name: &'static str, slab_bytes: usize, cache_cap: usize) -> SlabPool {
        assert!(slab_bytes >= std::mem::size_of::<usize>(), "a slab must hold the cache link");
        SlabPool {
            name,
            slab_bytes,
            cache_cap,
            slot: AtomicUsize::new(SLOT_UNASSIGNED),
            shared: Mutex::new(Vec::new()),
            shared_len: AtomicUsize::new(0),
            overflowed: AtomicU64::new(0),
        }
    }

    /// The pool's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Size of one slab in bytes (accounting only; the pool touches just
    /// the first word of a dead slab).
    pub fn slab_bytes(&self) -> usize {
        self.slab_bytes
    }

    /// Slabs held by the recycler: the shared list plus the calling
    /// thread's cache. Exact once every other thread has flushed (worker
    /// teardown does); a lower bound while other threads hold caches.
    pub fn cached_slabs(&'static self) -> usize {
        let own = self.with_cache(|cache| cache.len.get()).unwrap_or(0);
        self.shared_len.load(Ordering::Relaxed) + own
    }

    /// Bytes held by the recycler (see [`cached_slabs`](SlabPool::cached_slabs)).
    pub fn cached_bytes(&'static self) -> usize {
        self.cached_slabs() * self.slab_bytes
    }

    /// Slabs ever spilled from a full thread cache to the shared list.
    pub fn overflowed(&self) -> u64 {
        self.overflowed.load(Ordering::Relaxed)
    }

    /// Take one cached slab, preferring this thread's cache and
    /// refilling it from the shared list in one batch when dry. `None`
    /// means the recycler is empty and the caller should allocate fresh.
    ///
    /// The returned slab is owned exclusively by the caller (it was
    /// handed over exactly once via [`release`](SlabPool::release)); its
    /// first word is garbage.
    #[inline]
    pub fn acquire(&'static self) -> Option<*mut u8> {
        let got = self.with_cache(|cache| {
            if cache.head.get().is_null() {
                self.refill(cache);
            }
            cache.pop()
        });
        match got {
            Some(slab) => slab,
            // No cache (thread-locals torn down): straight to the shared
            // list.
            None => self.with_shared(Vec::pop),
        }
    }

    /// Hand one dead slab to the recycler. Ownership transfers to the
    /// pool until some [`acquire`](SlabPool::acquire) hands it out again
    /// (or [`trim`](SlabPool::trim) hands it back for freeing); the pool
    /// overwrites the slab's first word.
    ///
    /// Returns how many slabs overflowed from this thread's cache to the
    /// shared list as a result (0 on the fast path).
    ///
    /// # Safety
    /// `slab` must point to at least `size_of::<usize>()` writable bytes,
    /// pointer-aligned, that the caller owns exclusively and gives up:
    /// nothing may read or write the slab until an `acquire` (or `trim`)
    /// returns it.
    #[inline]
    pub unsafe fn release(&'static self, slab: *mut u8) -> usize {
        let spilled = self.with_cache(|cache| {
            // SAFETY: the caller hands over a dead slab it owns.
            unsafe { cache.push(slab) };
            if cache.len.get() <= self.cache_cap {
                return 0;
            }
            self.spill(cache)
        });
        spilled.unwrap_or_else(|| {
            // SAFETY: the slab is dead and ours (caller contract).
            unsafe { set_next(slab, std::ptr::null_mut()) };
            self.push_chain(slab);
            0
        })
    }

    /// Overflow: move the oldest `cache_cap / 2 + 1` slabs of `cache` to
    /// the shared list in one lock acquisition.
    #[cold]
    fn spill(&self, cache: &Cache) -> usize {
        let spill = self.cache_cap / 2 + 1;
        let keep = cache.len.get().saturating_sub(spill);
        let spilled = self.push_chain(cache.split_off(keep));
        self.overflowed.fetch_add(spilled as u64, Ordering::Relaxed);
        spilled
    }

    /// Dry cache: pull up to `cache_cap / 2` slabs off the shared list in
    /// one lock acquisition.
    #[cold]
    fn refill(&self, cache: &Cache) {
        if self.shared_len.load(Ordering::Relaxed) == 0 {
            return; // nothing to take; skip the lock
        }
        let refill = (self.cache_cap / 2).max(1);
        self.with_shared(|shared| {
            while cache.len.get() < refill {
                match shared.pop() {
                    // SAFETY: everything on the shared list is a dead
                    // slab, and popping it under the lock made it ours.
                    Some(slab) => unsafe { cache.push(slab) },
                    None => break,
                }
            }
        });
    }

    /// Append a null-terminated chain of dead slabs to the shared list,
    /// returning its length.
    fn push_chain(&self, mut slab: *mut u8) -> usize {
        if slab.is_null() {
            return 0;
        }
        self.with_shared(|shared| {
            let before = shared.len();
            while !slab.is_null() {
                shared.push(slab);
                // SAFETY: the chain is dead slabs the caller owned until now.
                slab = unsafe { next_of(slab) };
            }
            shared.len() - before
        })
    }

    /// Run `f` on the shared list under its lock, then mirror the list's
    /// length for the gauges, which read it without the lock.
    fn with_shared<R>(&self, f: impl FnOnce(&mut Vec<*mut u8>) -> R) -> R {
        let mut shared = self.shared.lock();
        let out = f(&mut shared);
        self.shared_len.store(shared.len(), Ordering::Relaxed);
        out
    }

    /// Drain the **shared** list, handing each slab to `free` (which
    /// must actually release the memory — typically `Box::from_raw`
    /// after casting back to the real block type). Thread caches are not
    /// touched; flush them first for a full drain. Returns the number of
    /// slabs drained.
    pub fn trim(&self, mut free: impl FnMut(*mut u8)) -> usize {
        let drained = self.with_shared(std::mem::take);
        let n = drained.len();
        for slab in drained {
            free(slab);
        }
        n
    }

    /// Move this thread's cache for this pool (if any) onto the shared
    /// list, so another thread — or [`trim`](SlabPool::trim) — can see
    /// those slabs. The slabs stay in the recycler.
    pub fn flush_thread_cache(&'static self) {
        self.with_cache(|cache| self.push_chain(cache.split_off(0)));
    }

    /// Run `f` on this thread's cache for this pool; `None` when the
    /// thread's locals are already torn down.
    #[inline]
    fn with_cache<R>(&'static self, f: impl FnOnce(&Cache) -> R) -> Option<R> {
        let slot = match self.slot.load(Ordering::Relaxed) {
            SLOT_UNASSIGNED => self.assign_slot(),
            slot => slot,
        };
        CACHES.try_with(|caches| f(&caches.0[slot - 1])).ok()
    }

    /// First use of this pool by anyone: claim the next cache slot.
    #[cold]
    fn assign_slot(&'static self) -> usize {
        let mut registry = REGISTRY.lock();
        // Re-check under the lock: another thread may have registered us.
        let mut slot = self.slot.load(Ordering::Relaxed);
        if slot == SLOT_UNASSIGNED {
            assert!(registry.len() < MAX_POOLS, "too many SlabPools; raise MAX_POOLS");
            registry.push(self);
            slot = registry.len();
            self.slot.store(slot, Ordering::Relaxed);
        }
        slot
    }
}

/// Flush every pool cache held by the current thread back to its pool's
/// shared list. Called by the worker pool at worker teardown so that a
/// finished [`crate::run`] leaves all recycled slabs globally visible
/// (exact gauges for tests and the bench harness).
pub fn flush_this_thread() {
    let _ = CACHES.try_with(ThreadCaches::flush);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak_slab() -> *mut u8 {
        Box::into_raw(Box::new([0u64; 8])) as *mut u8
    }

    unsafe fn free_slab(ptr: *mut u8) {
        drop(unsafe { Box::from_raw(ptr as *mut [u64; 8]) });
    }

    /// Drain `pool` through `acquire`, sorted for set comparison.
    fn drain_sorted(pool: &'static SlabPool) -> Vec<usize> {
        let mut got: Vec<usize> =
            std::iter::from_fn(|| pool.acquire()).map(|p| p as usize).collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn release_then_acquire_round_trips() {
        static POOL: SlabPool = SlabPool::new("test.round_trip", 64, 8);
        let a = leak_slab();
        assert_eq!(unsafe { POOL.release(a) }, 0);
        assert_eq!(POOL.cached_slabs(), 1);
        assert_eq!(POOL.cached_bytes(), 64);
        let got = POOL.acquire().expect("cached slab comes back");
        assert_eq!(got, a);
        assert_eq!(POOL.cached_slabs(), 0);
        assert!(POOL.acquire().is_none(), "empty recycler yields None");
        unsafe { free_slab(got) };
    }

    #[test]
    fn cache_is_lifo() {
        static POOL: SlabPool = SlabPool::new("test.lifo", 64, 8);
        let slabs: Vec<*mut u8> = (0..4).map(|_| leak_slab()).collect();
        for &s in &slabs {
            unsafe { POOL.release(s) };
        }
        for &s in slabs.iter().rev() {
            assert_eq!(POOL.acquire(), Some(s), "newest (cache-hot) slab first");
        }
        for s in slabs {
            unsafe { free_slab(s) };
        }
    }

    #[test]
    fn overflow_spills_to_shared_and_refills() {
        static POOL: SlabPool = SlabPool::new("test.overflow", 64, 4);
        let slabs: Vec<*mut u8> = (0..6).map(|_| leak_slab()).collect();
        let mut spilled = 0;
        for &s in &slabs {
            spilled += unsafe { POOL.release(s) };
        }
        assert!(spilled >= 3, "exceeding the cap must spill half the cache, got {spilled}");
        assert_eq!(POOL.overflowed(), spilled as u64);
        assert_eq!(POOL.cached_slabs(), 6, "spilling keeps slabs in the recycler");
        // All six come back (cache first, then a batched refill).
        let mut want: Vec<usize> = slabs.iter().map(|&p| p as usize).collect();
        want.sort_unstable();
        assert_eq!(drain_sorted(&POOL), want);
        for p in slabs {
            unsafe { free_slab(p) };
        }
    }

    #[test]
    fn spill_and_refill_at_the_cap_boundary() {
        static POOL: SlabPool = SlabPool::new("test.boundary", 64, 8);
        const CAP: usize = 8;
        let slabs: Vec<*mut u8> = (0..CAP + 1).map(|_| leak_slab()).collect();
        // One short of the cap, and exactly at it: nothing leaves the cache.
        for &s in &slabs[..CAP - 1] {
            assert_eq!(unsafe { POOL.release(s) }, 0);
        }
        assert_eq!(
            unsafe { POOL.release(slabs[CAP - 1]) },
            0,
            "a full cache is not an overflowing one"
        );
        assert_eq!(POOL.overflowed(), 0);
        // One past it: the oldest half (plus the one that tipped it) goes
        // to the shared list, the newest stay for this thread.
        assert_eq!(unsafe { POOL.release(slabs[CAP]) }, CAP / 2 + 1);
        assert_eq!(POOL.overflowed(), (CAP / 2 + 1) as u64);
        assert_eq!(POOL.cached_slabs(), CAP + 1);
        for &s in slabs[CAP / 2 + 1..].iter().rev() {
            assert_eq!(POOL.acquire(), Some(s), "the newest slabs were kept");
        }
        // Dry: the next acquire refills half a cache in one go, so the
        // shared list keeps the one slab the refill bound left behind.
        assert!(POOL.acquire().is_some());
        let in_cache = CAP / 2 - 1;
        assert_eq!(POOL.shared_len.load(Ordering::Relaxed), 1);
        assert_eq!(POOL.cached_slabs(), in_cache + 1);
        assert_eq!(drain_sorted(&POOL).len(), in_cache + 1);
        for s in slabs {
            unsafe { free_slab(s) };
        }
    }

    #[test]
    fn flush_makes_cache_visible_to_other_threads() {
        static POOL: SlabPool = SlabPool::new("test.flush", 64, 8);
        let a = leak_slab();
        unsafe { POOL.release(a) };
        POOL.flush_thread_cache();
        let got = std::thread::spawn(|| POOL.acquire().map_or(0, |p| p as usize)).join().unwrap();
        assert_eq!(got, a as usize, "flushed slab must be visible cross-thread");
        unsafe { free_slab(a) };
    }

    #[test]
    fn cross_thread_hand_over_keeps_every_slab_exactly_once() {
        static POOL: SlabPool = SlabPool::new("test.hand_over", 64, 4);
        const N: usize = 11; // past the cap: the releaser spills on the way
                             // Born on A (nothing cached yet, so the consumer allocates) ...
        let born: Vec<usize> = std::thread::spawn(|| {
            assert!(POOL.acquire().is_none());
            (0..N).map(|_| leak_slab() as usize).collect()
        })
        .join()
        .unwrap();
        // ... released on B, which flushes explicitly ...
        let to_release = born.clone();
        std::thread::spawn(move || {
            for p in to_release {
                unsafe { POOL.release(p as *mut u8) };
            }
            POOL.flush_thread_cache();
        })
        .join()
        .unwrap();
        assert_eq!(POOL.cached_slabs(), N, "all of B's slabs are on the shared list");
        // ... and acquired on C: each exactly once, none invented.
        let got = std::thread::spawn(|| drain_sorted(&POOL)).join().unwrap();
        let mut want = born;
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(POOL.cached_slabs(), 0);
        for p in got {
            unsafe { free_slab(p as *mut u8) };
        }
    }

    #[test]
    fn thread_exit_flushes_implicitly() {
        static POOL: SlabPool = SlabPool::new("test.exit", 64, 8);
        let a = std::thread::spawn(|| {
            let a = leak_slab();
            unsafe { POOL.release(a) };
            a as usize // cached thread-locally; the TLS destructor must flush it
        })
        .join()
        .unwrap();
        assert_eq!(POOL.acquire(), Some(a as *mut u8));
        unsafe { free_slab(a as *mut u8) };
    }

    #[test]
    fn worker_teardown_leaves_the_gauge_exact() {
        static POOL: SlabPool = SlabPool::new("test.teardown", 64, 8);
        const TASKS: usize = 100;
        // Every task retires one slab into whichever worker ran it; the
        // pool's teardown flush must leave all of them globally counted.
        crate::run(3, (0..TASKS).collect(), crate::Termination::Quiesce, |_, _task: usize| {
            unsafe { POOL.release(leak_slab()) };
        });
        assert_eq!(POOL.cached_slabs(), TASKS);
        POOL.flush_thread_cache(); // this thread's refill share, if any
        let mut freed = 0;
        POOL.trim(|p| {
            unsafe { free_slab(p) };
            freed += 1;
        });
        assert_eq!(freed, TASKS);
        assert_eq!(POOL.cached_slabs(), 0);
    }

    #[test]
    fn trim_drains_shared_list_only() {
        static POOL: SlabPool = SlabPool::new("test.trim", 64, 8);
        let a = leak_slab();
        let b = leak_slab();
        unsafe { POOL.release(a) };
        unsafe { POOL.release(b) };
        assert_eq!(POOL.trim(|_| panic!("cache not flushed: shared list is empty")), 0);
        POOL.flush_thread_cache();
        let mut freed = 0;
        assert_eq!(
            POOL.trim(|p| {
                unsafe { free_slab(p) };
                freed += 1;
            }),
            2
        );
        assert_eq!(freed, 2);
        assert_eq!(POOL.cached_slabs(), 0);
    }

    #[test]
    fn caches_are_per_pool() {
        static A: SlabPool = SlabPool::new("test.per_pool_a", 64, 8);
        static B: SlabPool = SlabPool::new("test.per_pool_b", 64, 8);
        let s = leak_slab();
        unsafe { A.release(s) };
        assert!(B.acquire().is_none(), "pools must not share caches");
        assert_eq!(A.acquire(), Some(s));
        unsafe { free_slab(s) };
    }
}
