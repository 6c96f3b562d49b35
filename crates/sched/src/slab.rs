//! Per-worker slab caches in front of a depot of whole magazines.
//!
//! The out-set recycler (and any future fixed-size-block consumer) wants
//! allocator-free steady state: a block freed by one future's sweep
//! should satisfy the next future's first add without touching `malloc`.
//! Workers already carry identity and a private RNG ([`crate::WorkerCtx`]);
//! this module gives each worker (thread) a bounded private cache of raw
//! blocks per [`SlabPool`], built as Bonwick's magazine pair without the
//! magazine objects: two intrusive chains, `cur` and `prev`, of at most
//! `M = cache_cap / 2` slabs each. `release` pushes on `cur`; when `cur`
//! is full, `prev` goes to the pool's *depot* **whole** and the two swap.
//! `acquire` pops `cur`; when `cur` is empty it swaps in a non-empty
//! `prev`, else takes one whole magazine off the depot. A thread that
//! frees and allocates around a magazine boundary only ever swaps its own
//! two chains.
//!
//! The pool is deliberately type-erased (`*mut u8`): callers own both
//! allocation and re-initialization of their blocks, so the pool never
//! runs drop glue and never needs to know the block type. `slab_bytes`
//! exists purely for footprint accounting. The one thing the pool asks of
//! a dead slab is its **first word**: a cached slab's first
//! `size_of::<usize>()` bytes hold the link to the next slab of its
//! magazine, so slabs must be at least pointer-sized and pointer-aligned,
//! and whatever the consumer keeps in a dead slab (poison stamps,
//! generation counters) must live past that word.
//!
//! ## No shared word on the fast path, no slab touched on the slow one
//!
//! This pool sits under every `spawn` of a runtime whose subject is
//! contention, so its fast path is held to the paper's own standard: a
//! [`SlabPool::acquire`] or [`SlabPool::release`] that hits the thread's
//! `cur` magazine performs **no atomic read-modify-write and touches no
//! memory another thread writes**. The cache lives in a const-initialised
//! thread-local table, found in O(1) by the pool's *slot*; push and pop
//! are two plain loads and two plain stores. The six class pools of
//! [`crate::recycle`] own slots 1–6 of every table from the start, so at
//! each of their call sites the slot is a compile-time constant and the
//! push or pop (`pop_local`, `push_local`) compiles into the call site; a
//! pool made with [`SlabPool::new`] takes the next free slot after them
//! on first use. Shared state — the mutex-guarded depot and the gauges —
//! is touched only when a magazine is handed over, and a
//! hand-over moves one `(head, len)` pair under one lock acquisition: it
//! **reads and writes no slab**, so its cost does not grow with the
//! magazine and no cold line is pulled in while the lock is held. The one
//! walker is [`SlabPool::trim`], which has to visit every slab to free it.
//!
//! The gauges follow from that: [`SlabPool::cached_slabs`] is the depot's
//! slab total (kept incrementally under the depot's lock, read without
//! it) plus the *calling* thread's own two magazines. It is exact
//! whenever every other thread that used the pool has flushed — which
//! holds at every [`crate::run`]'s return — and a lower bound while
//! workers are running.
//!
//! Because workers *are* threads in this pool (the caller of
//! [`crate::run`] is worker 0 and the others are resident helper threads,
//! see [`crate::pool`]), "per-worker cache" is realized as a
//! thread-local. Every participant of a run flushes its caches to the
//! depots — up to two partial magazines per pool — *before* it reports
//! done ([`flush_this_thread`]), so **`run`'s return is the quiescent
//! point**: nothing is cached anywhere but on threads outside the pool,
//! which a thread-local destructor backstops.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::lock;

/// Cache slots per thread, i.e. how many pools a process may use (the
/// runtime has seven, tests add a handful more); one past it panics.
const MAX_POOLS: usize = 32;

/// Slots `1..=CLASS_SLOTS` belong to the class pools of [`crate::recycle`],
/// fixed where the pools are declared (`SlabPool::in_slot`).
pub(crate) const CLASS_SLOTS: usize = 6;

/// `SlabPool::slot` before the pool's first use.
const SLOT_UNASSIGNED: usize = 0;

/// Every pool made with [`SlabPool::new`] that owns a cache slot, in slot
/// order (slot `CLASS_SLOTS + 1 + i` is `REGISTRY[i]`'s). Locked only to
/// hand out a slot and to flush a whole thread.
static REGISTRY: Mutex<Vec<&'static SlabPool>> = Mutex::new(Vec::new());

/// A depot of whole magazines plus the per-thread magazine pairs in front
/// of it. Designed to live in a `static` (`new` is `const`).
pub struct SlabPool {
    name: &'static str,
    slab_bytes: usize,
    /// Per-thread cache bound: two magazines of `cache_cap / 2` slabs.
    cache_cap: usize,
    /// 1-based index of this pool's cache in every thread's table: fixed
    /// at construction for a class pool, else written once (under the
    /// registry lock) and read-only ever after.
    slot: AtomicUsize,
    /// Magazines handed over by full or flushing caches, newest last.
    depot: Mutex<Vec<Magazine>>,
    /// Slabs in `depot`, adjusted under its lock so the gauges read it
    /// without taking it.
    depot_slabs: AtomicUsize,
    /// Slabs handed over by a full thread cache (ever); bumped once per
    /// spill, never per operation.
    overflowed: AtomicU64,
}

// SAFETY: the raw pointers in `depot` are inert storage — the pool only
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

/// A null-terminated intrusive LIFO chain of dead slabs, threaded through
/// their first words, and its length: the unit a cache holds two of and
/// the depot deals in. Whoever holds the pair owns every slab on it.
#[derive(Clone, Copy)]
struct Magazine {
    head: *mut u8,
    len: usize,
}

impl Magazine {
    const EMPTY: Magazine = Magazine { head: std::ptr::null_mut(), len: 0 };
}

/// One thread's cache for one pool. Single-threaded by construction (it
/// lives in a thread-local), hence plain `Cell`s.
struct Cache {
    /// Where `release` pushes and `acquire` pops.
    cur: Cell<Magazine>,
    /// The magazine `cur` last displaced: full after a spill, whatever
    /// is left of it after a reload.
    prev: Cell<Magazine>,
}

impl Cache {
    const fn new() -> Cache {
        Cache { cur: Cell::new(Magazine::EMPTY), prev: Cell::new(Magazine::EMPTY) }
    }

    fn len(&self) -> usize {
        self.cur.get().len + self.prev.get().len
    }

    /// # Safety
    /// `slab` must be a dead slab the caller owns and hands to this cache.
    unsafe fn push(&self, slab: *mut u8) {
        let cur = self.cur.get();
        // SAFETY: per the contract above.
        unsafe { set_next(slab, cur.head) };
        self.cur.set(Magazine { head: slab, len: cur.len + 1 });
    }

    fn pop(&self) -> Option<*mut u8> {
        let cur = self.cur.get();
        if cur.head.is_null() {
            return None;
        }
        // SAFETY: every slab of `cur` is dead and owned by this cache.
        self.cur.set(Magazine { head: unsafe { next_of(cur.head) }, len: cur.len - 1 });
        Some(cur.head)
    }
}

/// All of this thread's caches, indexed by pool slot; flushed to their
/// pools on thread exit.
struct ThreadCaches([Cache; MAX_POOLS]);

impl ThreadCaches {
    /// Hand every magazine of this thread to its pool's depot.
    fn flush(&self) {
        if self.0.iter().all(|c| c.len() == 0) {
            return;
        }
        // The class pools first, in their fixed slots; then every pool
        // that registered, in the order its slot was handed out. A
        // non-empty cache past the class slots implies its pool registered.
        let registry = lock(&REGISTRY);
        let pools = crate::recycle::class_pools().iter().chain(registry.iter().copied());
        for (pool, cache) in pools.zip(&self.0) {
            pool.flush(cache);
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

/// The fast half of [`SlabPool::acquire`] for the pool in the fixed
/// `slot`: pop this thread's `cur` magazine. `None` when `cur` is empty or
/// the thread's locals are torn down — the caller then takes the pool's
/// `acquire`, which reloads from `prev` or the depot. Inlined, so with a
/// constant `slot` the cache is a fixed offset into the thread's table.
#[inline(always)]
pub(crate) fn pop_local(slot: usize) -> Option<*mut u8> {
    CACHES.try_with(|caches| caches.0[slot - 1].pop()).ok().flatten()
}

/// The fast half of [`SlabPool::release`] for the pool in the fixed `slot`,
/// whose magazines hold `magazine` slabs: push `slab` on this thread's
/// `cur` magazine. `false` — nothing done, the slab still the caller's —
/// when `cur` is full or the thread's locals are torn down; the caller
/// then takes the pool's `release`, which spills.
///
/// # Safety
/// As [`SlabPool::release`].
#[inline(always)]
pub(crate) unsafe fn push_local(slot: usize, magazine: usize, slab: *mut u8) -> bool {
    CACHES
        .try_with(|caches| {
            let cache = &caches.0[slot - 1];
            if cache.cur.get().len >= magazine {
                return false;
            }
            // SAFETY: the caller hands over a dead slab it owns.
            unsafe { cache.push(slab) };
            true
        })
        .unwrap_or(false)
}

impl SlabPool {
    /// A pool of `slab_bytes`-sized slabs with per-thread caches bounded
    /// at `cache_cap` slabs. Const, so pools can be `static`. Its cache
    /// slot is the next free one after the class slots, taken on first
    /// use.
    pub const fn new(name: &'static str, slab_bytes: usize, cache_cap: usize) -> SlabPool {
        SlabPool::with_slot(name, slab_bytes, cache_cap, SLOT_UNASSIGNED)
    }

    /// A class pool: [`new`](SlabPool::new), in the fixed cache `slot`
    /// (`1..=CLASS_SLOTS`) that its call sites name as a constant.
    pub(crate) const fn in_slot(
        name: &'static str,
        slab_bytes: usize,
        cache_cap: usize,
        slot: usize,
    ) -> SlabPool {
        assert!(slot >= 1 && slot <= CLASS_SLOTS, "a fixed slot is a class slot");
        SlabPool::with_slot(name, slab_bytes, cache_cap, slot)
    }

    const fn with_slot(
        name: &'static str,
        slab_bytes: usize,
        cache_cap: usize,
        slot: usize,
    ) -> SlabPool {
        assert!(slab_bytes >= std::mem::size_of::<usize>(), "a slab must hold the cache link");
        assert!(cache_cap >= 2, "a cache is two magazines of at least one slab");
        SlabPool {
            name,
            slab_bytes,
            cache_cap,
            slot: AtomicUsize::new(slot),
            depot: Mutex::new(Vec::new()),
            depot_slabs: AtomicUsize::new(0),
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

    /// Slabs held by the recycler: the depot plus the calling thread's
    /// two magazines. Exact once every other thread has flushed (true at
    /// every [`crate::run`]'s return); a lower bound while other threads
    /// hold caches.
    pub fn cached_slabs(&'static self) -> usize {
        let own = self.with_cache(Cache::len).unwrap_or(0);
        self.depot_slabs.load(Ordering::Relaxed) + own
    }

    /// Bytes held by the recycler (see [`cached_slabs`](SlabPool::cached_slabs)).
    pub fn cached_bytes(&'static self) -> usize {
        self.cached_slabs() * self.slab_bytes
    }

    /// Slabs ever handed from a full thread cache to the depot.
    pub fn overflowed(&self) -> u64 {
        self.overflowed.load(Ordering::Relaxed)
    }

    /// Take one cached slab, preferring this thread's magazines and
    /// taking a whole one off the depot when both are empty. `None`
    /// means the recycler is empty and the caller should allocate fresh.
    ///
    /// The returned slab is owned exclusively by the caller (it was
    /// handed over exactly once via [`release`](SlabPool::release)); its
    /// first word is garbage.
    #[inline]
    pub fn acquire(&'static self) -> Option<*mut u8> {
        let got = self.with_cache(|cache| {
            if cache.cur.get().head.is_null() {
                self.reload(cache);
            }
            cache.pop()
        });
        match got {
            Some(slab) => slab,
            // No cache (thread-locals torn down): split one slab off a
            // depot magazine and put the rest back.
            None => {
                let Magazine { head, len } = self.take()?;
                // SAFETY: taking the magazine made every slab on it ours.
                let rest = unsafe { next_of(head) };
                self.put(Magazine { head: rest, len: len - 1 });
                Some(head)
            }
        }
    }

    /// Hand one dead slab to the recycler. Ownership transfers to the
    /// pool until some [`acquire`](SlabPool::acquire) hands it out again
    /// (or [`trim`](SlabPool::trim) hands it back for freeing); the pool
    /// overwrites the slab's first word.
    ///
    /// Returns how many slabs this thread's cache handed to the depot to
    /// make room (0 on the fast path, one whole magazine otherwise).
    ///
    /// # Safety
    /// `slab` must point to at least `size_of::<usize>()` writable bytes,
    /// pointer-aligned, that the caller owns exclusively and gives up:
    /// nothing may read or write the slab until an `acquire` (or `trim`)
    /// returns it.
    #[inline]
    pub unsafe fn release(&'static self, slab: *mut u8) -> usize {
        let spilled = self.with_cache(|cache| {
            let spilled =
                if cache.cur.get().len < self.cache_cap / 2 { 0 } else { self.spill(cache) };
            // SAFETY: the caller hands over a dead slab it owns.
            unsafe { cache.push(slab) };
            spilled
        });
        spilled.unwrap_or_else(|| {
            // SAFETY: the slab is dead and ours (caller contract).
            unsafe { set_next(slab, std::ptr::null_mut()) };
            self.put(Magazine { head: slab, len: 1 });
            0
        })
    }

    /// `cur` is full: it becomes `prev`, and the magazine it displaces
    /// goes to the depot whole. Returns how many slabs that was.
    #[cold]
    fn spill(&self, cache: &Cache) -> usize {
        let displaced = cache.prev.replace(cache.cur.replace(Magazine::EMPTY));
        self.put(displaced);
        self.overflowed.fetch_add(displaced.len as u64, Ordering::Relaxed);
        displaced.len
    }

    /// `cur` is empty: swap in what `prev` holds, else one magazine off
    /// the depot.
    #[cold]
    fn reload(&self, cache: &Cache) {
        let prev = cache.prev.replace(Magazine::EMPTY);
        if prev.len > 0 {
            cache.cur.set(prev);
        } else if let Some(magazine) = self.take() {
            cache.cur.set(magazine);
        }
    }

    /// Hand a magazine to the depot (nothing to do for an empty one).
    fn put(&self, magazine: Magazine) {
        if magazine.len == 0 {
            return;
        }
        let mut depot = lock(&self.depot);
        depot.push(magazine);
        // A plain add: every writer of `depot_slabs` holds the lock.
        let slabs = self.depot_slabs.load(Ordering::Relaxed) + magazine.len;
        self.depot_slabs.store(slabs, Ordering::Relaxed);
    }

    /// Take the newest magazine off the depot.
    fn take(&self) -> Option<Magazine> {
        if self.depot_slabs.load(Ordering::Relaxed) == 0 {
            return None; // nothing to take; skip the lock
        }
        let mut depot = lock(&self.depot);
        let magazine = depot.pop()?;
        let slabs = self.depot_slabs.load(Ordering::Relaxed) - magazine.len;
        self.depot_slabs.store(slabs, Ordering::Relaxed);
        Some(magazine)
    }

    /// Drain the **depot**, handing each slab to `free` (which must
    /// actually release the memory — typically `Box::from_raw` after
    /// casting back to the real block type). Thread caches are not
    /// touched; flush them first for a full drain. Returns the number of
    /// slabs drained.
    pub fn trim(&self, mut free: impl FnMut(*mut u8)) -> usize {
        let drained = {
            let mut depot = lock(&self.depot);
            self.depot_slabs.store(0, Ordering::Relaxed);
            std::mem::take(&mut *depot)
        };
        let mut n = 0;
        for magazine in drained {
            let mut slab = magazine.head;
            while !slab.is_null() {
                // SAFETY: draining the depot made the chain ours; the
                // link is read before `free` may release the slab.
                let next = unsafe { next_of(slab) };
                free(slab);
                slab = next;
                n += 1;
            }
        }
        n
    }

    /// Hand this thread's magazines for this pool (if any) to the depot,
    /// so another thread — or [`trim`](SlabPool::trim) — can see those
    /// slabs. The slabs stay in the recycler.
    pub fn flush_thread_cache(&'static self) {
        self.with_cache(|cache| self.flush(cache));
    }

    /// Hand both magazines of `cache`, full or partial, to the depot.
    fn flush(&self, cache: &Cache) {
        self.put(cache.cur.replace(Magazine::EMPTY));
        self.put(cache.prev.replace(Magazine::EMPTY));
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

    /// First use of this pool by anyone: claim the next cache slot after
    /// the class slots.
    #[cold]
    fn assign_slot(&'static self) -> usize {
        let mut registry = lock(&REGISTRY);
        // Re-check under the lock: another thread may have registered us.
        let mut slot = self.slot.load(Ordering::Relaxed);
        if slot == SLOT_UNASSIGNED {
            assert!(
                CLASS_SLOTS + registry.len() < MAX_POOLS,
                "too many SlabPools; raise MAX_POOLS"
            );
            registry.push(self);
            slot = CLASS_SLOTS + registry.len();
            self.slot.store(slot, Ordering::Relaxed);
        }
        slot
    }
}

/// Flush every pool cache held by the current thread back to its pool's
/// depot. Every participant of a [`crate::run`] calls it before it reports
/// done, so a returned `run` leaves all recycled slabs globally visible
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
    fn overflow_hands_a_whole_magazine_to_the_depot_and_it_comes_back() {
        static POOL: SlabPool = SlabPool::new("test.overflow", 64, 4);
        let (cap, m) = (POOL.cache_cap, POOL.cache_cap / 2);
        let slabs: Vec<*mut u8> = (0..cap + m).map(|_| leak_slab()).collect();
        let mut spilled = 0;
        for &s in &slabs {
            spilled += unsafe { POOL.release(s) };
            let held = POOL.with_cache(Cache::len).unwrap();
            assert!(held <= cap, "a thread never holds more than the cap, held {held}");
        }
        assert_eq!(spilled, m, "cap + M releases displace exactly one magazine");
        assert_eq!(POOL.overflowed(), m as u64);
        assert_eq!(lock(&POOL.depot).len(), 1, "handed over as one unit");
        assert_eq!(POOL.cached_slabs(), slabs.len(), "spilling keeps slabs in the recycler");
        // All come back: cur, then prev swapped in, then the depot's magazine.
        let mut want: Vec<usize> = slabs.iter().map(|&p| p as usize).collect();
        want.sort_unstable();
        assert_eq!(drain_sorted(&POOL), want);
        assert_eq!(POOL.cached_slabs(), 0);
        for p in slabs {
            unsafe { free_slab(p) };
        }
    }

    #[test]
    fn spill_and_reload_at_the_cap_boundary() {
        static POOL: SlabPool = SlabPool::new("test.boundary", 64, 8);
        let (cap, m) = (POOL.cache_cap, POOL.cache_cap / 2);
        let slabs: Vec<*mut u8> = (0..cap + 1).map(|_| leak_slab()).collect();
        // Up to and including the cap nothing leaves the cache: the M-th
        // release fills `cur`, the next one only swaps the pair.
        for &s in &slabs[..cap] {
            assert_eq!(unsafe { POOL.release(s) }, 0, "a full cache is not an overflowing one");
        }
        assert_eq!(POOL.overflowed(), 0);
        assert_eq!(POOL.depot_slabs.load(Ordering::Relaxed), 0);
        // One past it: the older magazine goes over whole, in one bump.
        assert_eq!(unsafe { POOL.release(slabs[cap]) }, m);
        assert_eq!(POOL.overflowed(), m as u64);
        assert_eq!(POOL.depot_slabs.load(Ordering::Relaxed), m);
        assert_eq!(POOL.cached_slabs(), cap + 1);
        // The oldest M slabs are the ones that left; the newest come back
        // newest first without touching the depot.
        for &s in slabs[m..].iter().rev() {
            assert_eq!(POOL.acquire(), Some(s), "the newest slabs were kept");
            assert_eq!(POOL.depot_slabs.load(Ordering::Relaxed), m);
        }
        // Dry: the next acquire takes the depot's magazine whole.
        assert_eq!(POOL.acquire(), Some(slabs[m - 1]));
        assert_eq!(POOL.depot_slabs.load(Ordering::Relaxed), 0);
        assert_eq!(POOL.cached_slabs(), m - 1);
        assert_eq!(drain_sorted(&POOL).len(), m - 1);
        for s in slabs {
            unsafe { free_slab(s) };
        }
    }

    #[test]
    fn alternating_at_a_magazine_boundary_never_reaches_the_depot() {
        static POOL: SlabPool = SlabPool::new("test.thrash", 64, 8);
        let cap = POOL.cache_cap;
        let slabs: Vec<*mut u8> = (0..cap + 1).map(|_| leak_slab()).collect();
        for &s in &slabs {
            unsafe { POOL.release(s) };
        }
        let handed = POOL.overflowed();
        // `cur` holds one slab over a full `prev`: popping two crosses the
        // boundary one way, pushing them back crosses it the other.
        for _ in 0..100 {
            let a = POOL.acquire().unwrap();
            let b = POOL.acquire().unwrap();
            unsafe {
                POOL.release(b);
                POOL.release(a);
            }
        }
        assert_eq!(POOL.overflowed(), handed, "the pair absorbs the oscillation");
        assert_eq!(drain_sorted(&POOL).len(), cap + 1);
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
        // ... released on B, which flushes mid-way (two partial magazines
        // join the full ones) and again at the end ...
        let to_release = born.clone();
        std::thread::spawn(move || {
            for (i, p) in to_release.into_iter().enumerate() {
                unsafe { POOL.release(p as *mut u8) };
                if i == N / 2 {
                    POOL.flush_thread_cache();
                }
            }
            POOL.flush_thread_cache();
        })
        .join()
        .unwrap();
        assert_eq!(POOL.cached_slabs(), N, "all of B's slabs are in the depot");
        let m = POOL.cache_cap / 2;
        assert!(lock(&POOL.depot).iter().any(|mag| mag.len < m), "some magazine is partial");
        // ... and acquired on C and D, half each: every slab exactly
        // once, none invented, whatever the magazines' sizes.
        let take_half =
            || std::iter::from_fn(|| POOL.acquire()).take(N / 2).map(|p| p as usize).collect();
        let mut got: Vec<usize> = std::thread::spawn(take_half).join().unwrap();
        got.extend(std::thread::spawn(|| drain_sorted(&POOL)).join().unwrap());
        got.sort_unstable();
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
    fn the_gauge_is_exact_at_every_runs_return() {
        static POOL: SlabPool = SlabPool::new("test.teardown", 64, 8);
        const TASKS: usize = 100;
        // Every task retires one slab into whichever worker ran it — the
        // caller or a resident helper, which outlives the run and so has
        // no thread exit to flush it: each participant's flush before it
        // reports done must leave all of them counted when `run` returns.
        for round in 1..=100 {
            crate::pool::run_counted(3, (0..TASKS).collect(), TASKS as u64, |_, _task: usize| {
                unsafe { POOL.release(leak_slab()) };
            });
            assert_eq!(POOL.cached_slabs(), round * TASKS, "after run {round}");
            assert_eq!(POOL.with_cache(Cache::len), Some(0), "worker 0 flushed too");
        }
        let mut freed = 0;
        POOL.trim(|p| {
            unsafe { free_slab(p) };
            freed += 1;
        });
        assert_eq!(freed, 100 * TASKS);
        assert_eq!(POOL.cached_slabs(), 0);
    }

    #[test]
    fn trim_after_mixed_hand_overs_frees_exactly_the_gauge() {
        static POOL: SlabPool = SlabPool::new("test.trim_mixed", 64, 4);
        let cap = POOL.cache_cap;
        // Full magazines from spills, partial ones from two flushes.
        for n in [2 * cap + 1, 1, cap - 1] {
            for _ in 0..n {
                unsafe { POOL.release(leak_slab()) };
            }
            POOL.flush_thread_cache();
        }
        let cached = POOL.cached_slabs();
        assert_eq!(cached, 3 * cap + 1);
        let lens: Vec<usize> = lock(&POOL.depot).iter().map(|mag| mag.len).collect();
        assert!(lens.contains(&(cap / 2)) && lens.contains(&1), "full and partial: {lens:?}");
        let mut freed = 0;
        assert_eq!(
            POOL.trim(|p| {
                unsafe { free_slab(p) };
                freed += 1;
            }),
            cached
        );
        assert_eq!(freed, cached);
        assert_eq!(POOL.cached_slabs(), 0);
        assert!(POOL.acquire().is_none());
    }

    #[test]
    fn trim_drains_the_depot_only() {
        static POOL: SlabPool = SlabPool::new("test.trim", 64, 8);
        let a = leak_slab();
        let b = leak_slab();
        unsafe { POOL.release(a) };
        unsafe { POOL.release(b) };
        assert_eq!(POOL.trim(|_| panic!("cache not flushed: the depot is empty")), 0);
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
