//! Per-worker slab caches in front of a depot of whole magazines.
//!
//! Every recycled object of the runtime — the class ladder's vertices,
//! pairs and headers ([`crate::recycle`]) and the out-set's slot blocks —
//! lives in a slab of a [`SlabPool`], so that steady-state churn never
//! touches `malloc`. Each worker (thread) keeps a bounded private cache per
//! pool, built as Bonwick's magazine pair without the magazine objects:
//! two intrusive chains, `cur` and `prev`, of at most `M = cache_cap / 2`
//! slabs each. `release` pushes on `cur`; when `cur` is full, `prev` goes
//! to the pool's *depot* **whole** and the two swap. `take` pops `cur`;
//! when `cur` is empty it swaps in a non-empty `prev`, else takes one whole
//! magazine off the depot, else mints. A thread that frees and allocates
//! around a magazine boundary only ever swaps its own two chains.
//!
//! A pool owns its slabs, as each object cache of Bonwick and Adams'
//! *Magazines and Vmem* (USENIX 2001) does: it is made with their
//! [`Layout`], mints in it ([`SlabPool::take`], the one fresh-slab path)
//! and frees its depot with it ([`SlabPool::trim`]). It is type-erased
//! (`*mut u8`): the caller builds its object in the slab and clears it
//! before giving it back, so the pool runs no drop glue. The one thing the
//! pool asks of a dead slab is its **first word**: a cached slab's first
//! `size_of::<usize>()` bytes hold the link to the next slab of its
//! magazine, so slabs must be at least pointer-sized and pointer-aligned,
//! and whatever the consumer keeps in a dead slab (poison stamps,
//! generation counters) must live past that word.
//!
//! ## No shared word on the fast path, no slab touched on the slow one
//!
//! This pool sits under every `spawn` of a runtime whose subject is
//! contention, so its fast path is held to the paper's own standard: a
//! [`SlabPool::take`] or [`SlabPool::release`] that hits the thread's
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

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
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
    /// What every slab of this pool is born with ([`SlabPool::take`]) and
    /// freed with ([`SlabPool::trim`]).
    layout: Layout,
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
// the caller's contract (release hands over exclusive ownership, take
// returns it) makes moving them across threads sound.
unsafe impl Send for SlabPool {}
// SAFETY: every shared field is an atomic or behind the depot's mutex.
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
    /// Where `release` pushes and `take` pops.
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

/// The fast half of [`SlabPool::take`] for the pool in the fixed `slot`:
/// pop this thread's `cur` magazine. `None` when `cur` is empty or the
/// thread's locals are torn down — the caller then takes the pool's
/// `take`, which reloads from `prev` or the depot, else mints. Inlined,
/// so with a constant `slot` the cache is a fixed offset into the thread's
/// table.
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
    /// A pool of slabs of `layout` with per-thread caches bounded at
    /// `cache_cap` slabs. Const, so pools can be `static`. Its cache slot
    /// is the next free one after the class slots, taken on first use.
    pub const fn new(name: &'static str, layout: Layout, cache_cap: usize) -> SlabPool {
        SlabPool::with_slot(name, layout, cache_cap, SLOT_UNASSIGNED)
    }

    /// A class pool: [`new`](SlabPool::new), in the fixed cache `slot`
    /// (`1..=CLASS_SLOTS`) that its call sites name as a constant.
    pub(crate) const fn in_slot(
        name: &'static str,
        layout: Layout,
        cache_cap: usize,
        slot: usize,
    ) -> SlabPool {
        assert!(slot >= 1 && slot <= CLASS_SLOTS, "a fixed slot is a class slot");
        SlabPool::with_slot(name, layout, cache_cap, slot)
    }

    const fn with_slot(
        name: &'static str,
        layout: Layout,
        cache_cap: usize,
        slot: usize,
    ) -> SlabPool {
        assert!(
            layout.size() >= size_of::<usize>() && layout.align() >= align_of::<usize>(),
            "a slab must hold the cache link"
        );
        assert!(cache_cap >= 2, "a cache is two magazines of at least one slab");
        SlabPool {
            name,
            layout,
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

    /// Size of one slab in bytes.
    pub fn slab_bytes(&self) -> usize {
        self.layout.size()
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
        self.cached_slabs() * self.layout.size()
    }

    /// Slabs ever handed from a full thread cache to the depot.
    pub fn overflowed(&self) -> u64 {
        self.overflowed.load(Ordering::Relaxed)
    }

    /// Take one slab: from this thread's magazines, else a whole magazine
    /// off the depot, else a fresh slab in the pool's layout. Returns the
    /// slab and whether it was reused (`false`: fresh).
    ///
    /// The slab is owned exclusively by the caller, uninitialised (a
    /// reused one holds what its last owner left past the first word,
    /// which is garbage), until it goes back by
    /// [`release`](SlabPool::release).
    #[inline]
    pub fn take(&'static self) -> (*mut u8, bool) {
        match self.cached() {
            Some(slab) => (slab, true),
            None => (self.fresh(), false),
        }
    }

    /// A cached slab, or `None` when the recycler holds none.
    #[inline]
    fn cached(&'static self) -> Option<*mut u8> {
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
                let Magazine { head, len } = self.take_magazine()?;
                // SAFETY: taking the magazine made every slab on it ours.
                let rest = unsafe { next_of(head) };
                self.put(Magazine { head: rest, len: len - 1 });
                Some(head)
            }
        }
    }

    /// A slab from the allocator, in the pool's layout: the one place a
    /// slab is born.
    #[cold]
    #[inline(never)]
    pub(crate) fn fresh(&self) -> *mut u8 {
        // SAFETY: the layout is at least a word (`with_slot`), not zero.
        let slab = unsafe { alloc(self.layout) };
        if slab.is_null() {
            handle_alloc_error(self.layout);
        }
        slab
    }

    /// Hand one dead slab to the recycler. Ownership transfers to the
    /// pool until some [`take`](SlabPool::take) hands it out again (or
    /// [`trim`](SlabPool::trim) frees it); the pool overwrites the slab's
    /// first word.
    ///
    /// Returns how many slabs this thread's cache handed to the depot to
    /// make room (0 on the fast path, one whole magazine otherwise).
    ///
    /// # Safety
    /// `slab` must have come from this pool's [`take`](SlabPool::take), be
    /// owned exclusively by the caller, and be given up: nothing may read
    /// or write it until a `take` returns it again.
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
        } else if let Some(magazine) = self.take_magazine() {
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
    fn take_magazine(&self) -> Option<Magazine> {
        if self.depot_slabs.load(Ordering::Relaxed) == 0 {
            return None; // nothing to take; skip the lock
        }
        let mut depot = lock(&self.depot);
        let magazine = depot.pop()?;
        let slabs = self.depot_slabs.load(Ordering::Relaxed) - magazine.len;
        self.depot_slabs.store(slabs, Ordering::Relaxed);
        Some(magazine)
    }

    /// Free every slab of the **depot** to the allocator, with the pool's
    /// layout: the release valve for standby memory. Thread caches are not
    /// touched; flush them first for a full drain. Returns the number of
    /// slabs freed.
    pub fn trim(&self) -> usize {
        let drained = {
            let mut depot = lock(&self.depot);
            self.depot_slabs.store(0, Ordering::Relaxed);
            std::mem::take(&mut *depot)
        };
        let mut n = 0;
        for magazine in drained {
            let mut slab = magazine.head;
            while !slab.is_null() {
                // SAFETY: draining the depot made the chain ours, and every
                // slab of it was born by `fresh` in this layout (`release`'s
                // contract); the link is read before the slab is freed.
                let next = unsafe { next_of(slab) };
                // SAFETY: as above.
                unsafe { dealloc(slab, self.layout) };
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

    /// The layout of most test pools: 64 bytes, pointer-aligned.
    const SLAB: Layout = Layout::new::<[u64; 8]>();

    /// Give `slab` back to `pool`; returns what `release` spilled.
    fn give(pool: &'static SlabPool, slab: *mut u8) -> usize {
        // SAFETY: every slab a test gives back came from `pool` and is
        // neither touched nor given again until a `take` returns it.
        unsafe { pool.release(slab) }
    }

    /// `n` slabs taken from `pool`, which must mint every one.
    fn mint(pool: &'static SlabPool, n: usize) -> Vec<*mut u8> {
        let take = || {
            let (slab, reused) = pool.take();
            assert!(!reused, "{}: nothing cached yet", pool.name());
            slab
        };
        std::iter::repeat_with(take).take(n).collect()
    }

    /// Free every slab of `pool`, cached or still in `held`: what each
    /// test ends with.
    fn free_all(pool: &'static SlabPool, held: impl IntoIterator<Item = *mut u8>) {
        for slab in held {
            give(pool, slab);
        }
        pool.flush_thread_cache();
        pool.trim();
        assert_eq!(pool.cached_slabs(), 0);
    }

    /// Drain `pool`'s cached slabs, sorted for set comparison.
    fn drain_sorted(pool: &'static SlabPool) -> Vec<usize> {
        let mut got: Vec<usize> =
            std::iter::from_fn(|| pool.cached()).map(|p| p as usize).collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn release_then_take_round_trips() {
        static POOL: SlabPool = SlabPool::new("test.round_trip", SLAB, 8);
        let a = mint(&POOL, 1)[0];
        assert_eq!(give(&POOL, a), 0);
        assert_eq!(POOL.cached_slabs(), 1);
        assert_eq!(POOL.cached_bytes(), 64);
        assert_eq!(POOL.take(), (a, true), "the cached slab comes back");
        assert_eq!(POOL.cached_slabs(), 0);
        assert!(POOL.cached().is_none(), "an empty recycler caches nothing");
        free_all(&POOL, [a]);
    }

    #[test]
    fn take_mints_in_the_pools_layout_and_trim_frees_the_depot() {
        #[repr(align(128))]
        struct LinePair(#[allow(dead_code)] [u8; 256]);
        static POOL: SlabPool = SlabPool::new("test.line_pair", Layout::new::<LinePair>(), 4);
        let slabs = mint(&POOL, 6);
        assert!(
            slabs.iter().all(|&slab| (slab as usize).is_multiple_of(128)),
            "fresh slabs are aligned"
        );
        // Magazines of two: the fifth release spills the first two whole.
        for &slab in &slabs {
            give(&POOL, slab);
        }
        let depot = POOL.depot_slabs.load(Ordering::Relaxed);
        assert_eq!((depot, POOL.cached_slabs()), (2, 6));
        assert_eq!(POOL.trim(), depot, "trim frees the depot, and only it");
        assert_eq!(POOL.cached_slabs(), 4);
        assert_eq!(POOL.take(), (slabs[5], true), "the thread's cache still serves");
        free_all(&POOL, [slabs[5]]);
    }

    #[test]
    fn cache_is_lifo() {
        static POOL: SlabPool = SlabPool::new("test.lifo", SLAB, 8);
        let slabs = mint(&POOL, 4);
        for &s in &slabs {
            give(&POOL, s);
        }
        for &s in slabs.iter().rev() {
            assert_eq!(POOL.take(), (s, true), "newest (cache-hot) slab first");
        }
        free_all(&POOL, slabs);
    }

    #[test]
    fn overflow_hands_a_whole_magazine_to_the_depot_and_it_comes_back() {
        static POOL: SlabPool = SlabPool::new("test.overflow", SLAB, 4);
        let (cap, m) = (POOL.cache_cap, POOL.cache_cap / 2);
        let slabs = mint(&POOL, cap + m);
        let mut spilled = 0;
        for &s in &slabs {
            spilled += give(&POOL, s);
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
        free_all(&POOL, slabs);
    }

    #[test]
    fn spill_and_reload_at_the_cap_boundary() {
        static POOL: SlabPool = SlabPool::new("test.boundary", SLAB, 8);
        let (cap, m) = (POOL.cache_cap, POOL.cache_cap / 2);
        let slabs = mint(&POOL, cap + 1);
        // Up to and including the cap nothing leaves the cache: the M-th
        // release fills `cur`, the next one only swaps the pair.
        for &s in &slabs[..cap] {
            assert_eq!(give(&POOL, s), 0, "a full cache is not an overflowing one");
        }
        assert_eq!(POOL.overflowed(), 0);
        assert_eq!(POOL.depot_slabs.load(Ordering::Relaxed), 0);
        // One past it: the older magazine goes over whole, in one bump.
        assert_eq!(give(&POOL, slabs[cap]), m);
        assert_eq!(POOL.overflowed(), m as u64);
        assert_eq!(POOL.depot_slabs.load(Ordering::Relaxed), m);
        assert_eq!(POOL.cached_slabs(), cap + 1);
        // The oldest M slabs are the ones that left; the newest come back
        // newest first without touching the depot.
        for &s in slabs[m..].iter().rev() {
            assert_eq!(POOL.take(), (s, true), "the newest slabs were kept");
            assert_eq!(POOL.depot_slabs.load(Ordering::Relaxed), m);
        }
        // Dry: the next take takes the depot's magazine whole.
        assert_eq!(POOL.take(), (slabs[m - 1], true));
        assert_eq!(POOL.depot_slabs.load(Ordering::Relaxed), 0);
        assert_eq!(POOL.cached_slabs(), m - 1);
        assert_eq!(drain_sorted(&POOL).len(), m - 1);
        free_all(&POOL, slabs);
    }

    #[test]
    fn alternating_at_a_magazine_boundary_never_reaches_the_depot() {
        static POOL: SlabPool = SlabPool::new("test.thrash", SLAB, 8);
        let cap = POOL.cache_cap;
        let slabs = mint(&POOL, cap + 1);
        for &s in &slabs {
            give(&POOL, s);
        }
        let handed = POOL.overflowed();
        // `cur` holds one slab over a full `prev`: popping two crosses the
        // boundary one way, pushing them back crosses it the other.
        for _ in 0..100 {
            let (a, b) = (POOL.take().0, POOL.take().0);
            give(&POOL, b);
            give(&POOL, a);
        }
        assert_eq!(POOL.overflowed(), handed, "the pair absorbs the oscillation");
        assert_eq!(drain_sorted(&POOL).len(), cap + 1);
        free_all(&POOL, slabs);
    }

    #[test]
    fn flush_makes_cache_visible_to_other_threads() {
        static POOL: SlabPool = SlabPool::new("test.flush", SLAB, 8);
        let a = mint(&POOL, 1)[0];
        give(&POOL, a);
        POOL.flush_thread_cache();
        let got = std::thread::spawn(|| POOL.take().0 as usize).join().unwrap();
        assert_eq!(got, a as usize, "flushed slab must be visible cross-thread");
        free_all(&POOL, [a]);
    }

    #[test]
    fn cross_thread_hand_over_keeps_every_slab_exactly_once() {
        static POOL: SlabPool = SlabPool::new("test.hand_over", SLAB, 4);
        // Past the cap: the releaser spills on the way.
        const N: usize = 11;
        // Born on A (nothing cached yet, so every take mints) ...
        let born: Vec<usize> =
            std::thread::spawn(|| mint(&POOL, N).into_iter().map(|p| p as usize).collect())
                .join()
                .unwrap();
        // ... released on B, which flushes mid-way (two partial magazines
        // join the full ones) and again at the end ...
        let to_release = born.clone();
        std::thread::spawn(move || {
            for (i, p) in to_release.into_iter().enumerate() {
                give(&POOL, p as *mut u8);
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
        // ... and taken on C and D, half each: every slab exactly once,
        // none invented, whatever the magazines' sizes.
        let take_half =
            || std::iter::from_fn(|| POOL.cached()).take(N / 2).map(|p| p as usize).collect();
        let mut got: Vec<usize> = std::thread::spawn(take_half).join().unwrap();
        got.extend(std::thread::spawn(|| drain_sorted(&POOL)).join().unwrap());
        got.sort_unstable();
        let mut want = born;
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(POOL.cached_slabs(), 0);
        free_all(&POOL, got.into_iter().map(|p| p as *mut u8));
    }

    #[test]
    fn thread_exit_flushes_implicitly() {
        static POOL: SlabPool = SlabPool::new("test.exit", SLAB, 8);
        let a = std::thread::spawn(|| {
            let a = mint(&POOL, 1)[0];
            give(&POOL, a);
            a as usize // cached thread-locally; the TLS destructor must flush it
        })
        .join()
        .unwrap();
        assert_eq!(POOL.take(), (a as *mut u8, true));
        free_all(&POOL, [a as *mut u8]);
    }

    #[test]
    fn the_gauge_is_exact_at_every_runs_return() {
        static POOL: SlabPool = SlabPool::new("test.teardown", SLAB, 8);
        const TASKS: usize = 100;
        // Every task retires one fresh slab into whichever worker ran it —
        // the caller or a resident helper, which outlives the run and so
        // has no thread exit to flush it: each participant's flush before
        // it reports done must leave all of them counted when `run`
        // returns.
        for round in 1..=100 {
            crate::pool::run_counted(3, (0..TASKS).collect(), TASKS as u64, |_, _task: usize| {
                give(&POOL, POOL.fresh());
            });
            assert_eq!(POOL.cached_slabs(), round * TASKS, "after run {round}");
            assert_eq!(POOL.with_cache(Cache::len), Some(0), "worker 0 flushed too");
        }
        assert_eq!(POOL.trim(), 100 * TASKS);
        assert_eq!(POOL.cached_slabs(), 0);
    }

    #[test]
    fn trim_after_mixed_hand_overs_frees_exactly_the_gauge() {
        static POOL: SlabPool = SlabPool::new("test.trim_mixed", SLAB, 4);
        let cap = POOL.cache_cap;
        // Full magazines from spills, partial ones from two flushes.
        for n in [2 * cap + 1, 1, cap - 1] {
            for _ in 0..n {
                give(&POOL, POOL.fresh());
            }
            POOL.flush_thread_cache();
        }
        let cached = POOL.cached_slabs();
        assert_eq!(cached, 3 * cap + 1);
        let lens: Vec<usize> = lock(&POOL.depot).iter().map(|mag| mag.len).collect();
        assert!(lens.contains(&(cap / 2)) && lens.contains(&1), "full and partial: {lens:?}");
        assert_eq!(POOL.trim(), cached);
        assert_eq!(POOL.cached_slabs(), 0);
        assert!(POOL.cached().is_none());
    }

    #[test]
    fn trim_drains_the_depot_only() {
        static POOL: SlabPool = SlabPool::new("test.trim", SLAB, 8);
        for s in mint(&POOL, 2) {
            give(&POOL, s);
        }
        assert_eq!(POOL.trim(), 0, "cache not flushed: the depot is empty");
        assert_eq!(POOL.cached_slabs(), 2);
        POOL.flush_thread_cache();
        assert_eq!(POOL.trim(), 2);
        assert_eq!(POOL.cached_slabs(), 0);
    }

    #[test]
    fn caches_are_per_pool() {
        static A: SlabPool = SlabPool::new("test.per_pool_a", SLAB, 8);
        static B: SlabPool = SlabPool::new("test.per_pool_b", SLAB, 8);
        let s = mint(&A, 1)[0];
        give(&A, s);
        assert!(B.cached().is_none(), "pools must not share caches");
        assert_eq!(A.take(), (s, true));
        free_all(&A, [s]);
    }
}
