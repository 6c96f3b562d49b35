//! The lock-free tree-of-blocks out-set with an adaptive lane table.
//!
//! ## Structure
//!
//! ```text
//!  TreeOutsetObj                        (24 B; a fresh one owns nothing else)
//!  ├── sealed      : AtomicBool        (the one-shot finish latch)
//!  ├── inline_head ──► Block ──► ...   (lane 0, the one every out-set is born with)
//!  └── table ──► LaneTable { mask, lanes[L], prev }   (null until the first split;
//!                  │                          │         L grows 2, 4, 8, ...)
//!                  │                          └──► superseded generations
//!                  └── lanes[i] ──► Lane ──► Block ──► Block ──► ...  (newest first)
//!                      (lanes[0] null = the inline lane)  ├ claimed : AtomicUsize (slot cursor)
//!                                                     └ slots[B] : AtomicU64  (EMPTY | SWEPT | token+2)
//! ```
//!
//! Every out-set is born with one lane and *is* its first table
//! generation: a null `table` means "one lane, the inline one", whose
//! head word sits in the object itself. Out-of-line lanes and tables
//! exist only after a split.
//!
//! An `add(token, key)` hashes `key` to a lane, claims a slot index with
//! one `fetch_add` on the newest block's cursor (installing a fresh block
//! by CAS when full), and publishes `token + 2` into the slot with one
//! CAS. Contending adders (distinct workers) hash to distinct lanes, so
//! the fetch-add hot spot is spread `L` ways — the out-set analogue of
//! the in-counter's leaf spreading.
//!
//! ## Adaptive growth
//!
//! Unlike the fixed lane array of the first iteration, the lane table
//! **starts at one lane** — a single-dependent future pays one head word
//! inside the object, not a hardware-thread-sized array — and grows only
//! under *observed* contention, the same pay-for-contention shape as the
//! in-counter's probabilistic `grow`: when an adder loses the
//! block-install CAS on its lane (direct evidence of a concurrent adder
//! on the same lane), it flips a `p = 1/2` coin on its thread's stream
//! ([`snzi::ThreadCoin`]), and heads means "try to double the lane table",
//! up to [`TreeOutsetObj::max_lanes`]. The adder then re-hashes against
//! the (possibly) larger table, so a grower immediately escapes the
//! collision that triggered it; every later adder re-hashes naturally on
//! its own add. A lost CAS is already direct evidence of two adders on one
//! lane, so unlike the in-counter's once-per-increment coin no further
//! dampening is needed. `docs/outset-contention.md` derives the expected
//! per-add contention bound this rule buys.
//!
//! Growth allocates a doubled table that **shares** the existing lanes
//! (the inline one by a null entry, so the object stays movable) and
//! appends fresh ones, links the generation it replaces
//! behind it (`prev`), and installs it with one CAS on the table pointer.
//! Two invariants keep every racing party correct across a split:
//!
//! * **lanes are shared, never moved** — a slot claimed through an old
//!   table lives in a `Lane` that every newer table also points to, so a
//!   sweep through the newest table visits it;
//! * **the lane set is monotone** — tables only append lanes, so the
//!   sweep's table (loaded *after* the seal) contains every lane any
//!   pre-seal adder could have reached through any historical table. An
//!   adder that claims a slot through a lane installed after the sweep's
//!   table load necessarily published after the seal, observes `sealed`
//!   on its re-check, and resolves the race through the slot CAS like any
//!   other late adder (below).
//!
//! ## The add/finish race, slot by slot
//!
//! `finish` seals the latch (one `swap`) and then sweeps: every claimed
//! slot is `swap`ped to `SWEPT`; a slot that already carried a token is
//! delivered. The interesting interleaving is an adder that claimed a
//! slot before the seal but publishes around the sweep. Every operation
//! that may meet another thread's — the shared steps, below — is `SeqCst`
//! on `sealed` and on slots, and the adder re-checks `sealed` *after*
//! publishing:
//!
//! * adder's publish CAS (`EMPTY → token+2`) fails — the sweep got there
//!   first and left `SWEPT`; nobody will ever read the slot again, and the
//!   adder delivers its token inline ([`AddEdge::Finished`]).
//! * publish succeeds and the re-check reads unsealed — in the seq-cst
//!   total order the publish precedes the seal, hence precedes the whole
//!   sweep, which therefore visits the slot (its lane is in the sweep's
//!   table by monotonicity) and delivers it.
//! * publish succeeds and the re-check reads sealed — the sweep may or
//!   may not have passed this slot already, so exactly one side claims it
//!   with a second CAS (`token+2 → SWEPT`): the adder winning means the
//!   sweep never consumed it (inline delivery); losing means the sweep
//!   already delivered it.
//!
//! Each slot thus transitions `EMPTY → {token+2} → SWEPT` (or directly
//! `EMPTY → SWEPT`) with every token leaving exactly once. Slots claimed
//! and blocks installed after the sweep passed are only reachable by
//! their adders, which by the argument above observe the seal on their
//! re-check and deliver inline.
//!
//! ## One worker, no lock prefix
//!
//! `add` (with the slot claim under it) and `finish` are written once,
//! generic over a `Step`: how one read-modify-write of the protocol —
//! a slot or head CAS, the cursor's fetch-add, the seal's and the sweep's
//! swaps — is committed. `Shared` commits it with the `SeqCst`
//! instruction the argument above needs against another thread. For an
//! out-set that no other `add` or `finish` can overlap — a one-worker
//! run's futures; the caller of [`TreeOutsetObj::add_exclusive`] or
//! [`TreeOutsetObj::finish_exclusive`] promises it — `Exclusive`
//! commits the same step with a load and a store, which is what the
//! locked instruction does when nothing interferes: the same slot states,
//! cursors, blocks and deliveries, in the same order. Its stores are
//! `Release`, so a racy diagnostic walk from another thread
//! ([`block_count`](TreeOutsetObj::block_count),
//! [`footprint_bytes`](TreeOutsetObj::footprint_bytes)) that loads a
//! freshly installed head also sees the block behind it initialised. A
//! split stays shared in both modes: an exclusive add reaches it only
//! through the `outset.install_cas` failpoint's lost install.
//!
//! ## Memory and block recycling
//!
//! One rule: everything reachable from a `TreeOutsetObj` — every lane
//! table generation, every lane, every block — is owned by it from the
//! moment it is linked until the object's `Drop`, which runs under
//! `&mut self`. Nothing is unlinked, deferred or handed on before that,
//! so an adder or sweeper holding `&self` may follow any pointer it
//! loaded, for as long as it likes, with no guard.
//!
//! What an out-set owns **inline** is its first generation: the one
//! lane's head word, with "no table yet" spelled as a null `table`. A
//! fresh out-set therefore allocates nothing, and its first `add` takes
//! one block from the block pool. The null-lane rule keeps that lane
//! reachable after growth: a grown table lists the inline lane as a null
//! entry, which every reader resolves against `&self` — never as an
//! address inside the object, so moving an out-set that nobody shares
//! (returning it by value, boxing it) cannot strand a table pointing at
//! its old home. Lanes born by a split are padded to a cache-line pair
//! and come from the scheduler's class recycler (`sched::recycle`); the
//! table headers and pointer arrays of grown generations are the only
//! plain allocations left, one per split.
//!
//! `Drop` frees the lanes and tables and hands every block to the
//! recycler: pushed into the per-worker slab caches (`sched::slab`) that
//! `alloc_block` prefers, so steady-state future churn reaches zero
//! allocator traffic. A block therefore changes owner only inside a
//! destructor no adder can race (or as an install loser nobody ever saw),
//! which is why a recycled block re-installed at the same lane index of
//! another out-set is harmless: nobody can still hold it from its
//! previous life.
//!
//! **What a cached block holds: `EMPTY` in every slot.** A block is
//! 280 B, five cache lines, and a future with one or two dependents uses
//! the first. The protocol can only have written the slots below the
//! cursor — an adder stores into the slot whose index its `fetch_add`
//! returned, the sweep into the slots below the cursor it loaded — so
//! `Block::retire` clears `slots[..claimed.min(BLOCK_SLOTS)]` and
//! `Block::reset` writes the cursor and `next` and no slot at all: a
//! one-dependent future dirties one line of its block per life, where
//! clearing all 32 slots on the way out and again on the way in dirtied
//! five, twice. (`footprint_bytes` is what a block occupies, not what it
//! touches, and does not move.) Debug builds keep the whole-block check:
//! `retire` asserts that nothing above the cursor was written, fills
//! every slot with `POISON` and bumps the generation stamp to odd, and
//! `reset` asserts the poison and the stamp before clearing — so a stale
//! write into a cached block trips on its next reuse instead of
//! corrupting a later out-set, and the sweep asserts it never reads the
//! poison.
//!
//! Whoever drops the out-set must hold it last, so no add or finish can
//! race the destructor: in `spdag` it lives inside a future's core, and
//! the core's last `PoolArc` holder drops it after every registration and
//! the sweep have returned.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use snzi::{Coin, Probability, ThreadCoin};

use crate::{AddEdge, OutsetFamily};

/// Slot states: anything in `TOKEN_BIAS..POISON` is a biased token.
const EMPTY: u64 = 0;
const SWEPT: u64 = 1;
const TOKEN_BIAS: u64 = 2;
/// Written, in debug builds, into every slot of a retired block while it
/// sits in the recycler (a release build leaves `EMPTY` there). The live
/// protocol never stores it (`MAX_TOKEN` keeps biased tokens below), so a
/// sweep reading `POISON` — or a reuse *not* reading it — is a
/// reclamation bug caught by the asserts in `Block::retire`/`Block::reset`.
const POISON: u64 = u64::MAX;
/// Largest accepted token: `MAX_TOKEN + TOKEN_BIAS < POISON`. Every
/// family takes it as its bound ([`OutsetFamily`]'s contract).
pub(crate) const MAX_TOKEN: u64 = u64::MAX - 3;

/// How one read-modify-write of the slot protocol is committed (module
/// docs, "One worker, no lock prefix"). Loads need no twin: a `SeqCst`
/// load is a plain load where it matters (x86), and the protocol's loads
/// read the same values in both modes.
pub(crate) trait Step {
    /// Replace `old` by `new` in a slot if it still holds `old`; whether
    /// it did.
    fn cas(word: &AtomicU64, old: u64, new: u64) -> bool;
    /// [`cas`](Step::cas) on a lane's head word.
    fn cas_ptr<T>(word: &AtomicPtr<T>, old: *mut T, new: *mut T) -> bool;
    /// Add one to a block's cursor; the value before.
    fn fetch_add(word: &AtomicUsize) -> usize;
    /// Store `new` in a slot; the value before.
    fn swap(word: &AtomicU64, new: u64) -> u64;
    /// Store `new` in the seal latch; the value before.
    fn swap_flag(word: &AtomicBool, new: bool) -> bool;
}

/// Steps committed by a `SeqCst` read-modify-write: any operation that may
/// overlap another `add` or `finish` on the same out-set.
pub(crate) enum Shared {}

impl Step for Shared {
    #[inline(always)]
    fn cas(word: &AtomicU64, old: u64, new: u64) -> bool {
        word.compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst).is_ok()
    }
    #[inline(always)]
    fn cas_ptr<T>(word: &AtomicPtr<T>, old: *mut T, new: *mut T) -> bool {
        word.compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst).is_ok()
    }
    #[inline(always)]
    fn fetch_add(word: &AtomicUsize) -> usize {
        word.fetch_add(1, Ordering::SeqCst)
    }
    #[inline(always)]
    fn swap(word: &AtomicU64, new: u64) -> u64 {
        word.swap(new, Ordering::SeqCst)
    }
    #[inline(always)]
    fn swap_flag(word: &AtomicBool, new: bool) -> bool {
        word.swap(new, Ordering::SeqCst)
    }
}

/// Steps committed by a load and a store: an operation that no other `add`
/// or `finish` on the same out-set overlaps, so nothing can change a word
/// between the two. The load is relaxed: every other step is ordered before
/// or after the whole operation by whatever made it exclusive (for `spdag`,
/// a one-worker run is one thread). The store is `Release` for the readers
/// that are not steps — a diagnostic walk, an `is_finished` probe — which
/// costs nothing on x86.
pub(crate) enum Exclusive {}

impl Step for Exclusive {
    #[inline(always)]
    fn cas(word: &AtomicU64, old: u64, new: u64) -> bool {
        let holds = word.load(Ordering::Relaxed) == old;
        if holds {
            word.store(new, Ordering::Release);
        }
        holds
    }
    #[inline(always)]
    fn cas_ptr<T>(word: &AtomicPtr<T>, old: *mut T, new: *mut T) -> bool {
        let holds = word.load(Ordering::Relaxed) == old;
        if holds {
            word.store(new, Ordering::Release);
        }
        holds
    }
    #[inline(always)]
    fn fetch_add(word: &AtomicUsize) -> usize {
        let prev = word.load(Ordering::Relaxed);
        word.store(prev + 1, Ordering::Release);
        prev
    }
    #[inline(always)]
    fn swap(word: &AtomicU64, new: u64) -> u64 {
        let prev = word.load(Ordering::Relaxed);
        word.store(new, Ordering::Release);
        prev
    }
    #[inline(always)]
    fn swap_flag(word: &AtomicBool, new: bool) -> bool {
        let prev = word.load(Ordering::Relaxed);
        word.store(new, Ordering::Release);
        prev
    }
}

/// Stripe count of the epoch domain each out-set owned before out-sets
/// stopped pinning. **Unused by the runtime**: it survives only because
/// `benchmark/src/layers.rs` names it for its `epoch.pin_ns{,_c}` rows,
/// and leaves with them in the next `benchmark` PR (ROADMAP item 1f).
pub const OUTSET_PIN_STRIPES: usize = 4;

/// Slots per block (`B` in `docs/outset-contention.md`): a compromise
/// between per-future footprint (futures with one or two dependents —
/// pipelines — pay one ~300 B block on their single lane) and allocation
/// amortization for fan-out-heavy broadcasts (one allocation per 32 adds).
/// Public so that the contention bounds and block-counting tests outside
/// the crate read this one value.
pub const BLOCK_SLOTS: usize = 32;

/// `repr(C)` with `next` first: while a block sits in the recycler its
/// first word is the slab cache's intrusive link (`sched::slab`), which
/// must land on the one field that is dead there (`retire` nulls it,
/// `reset` rewrites it) and not on the generation stamp or a slot.
#[repr(C)]
struct Block {
    /// Next-older block in this lane (immutable after installation).
    next: *mut Block,
    /// Slot cursor; values past `BLOCK_SLOTS` mean "this block was full,
    /// the adder moved on" and are harmless.
    claimed: AtomicUsize,
    /// Reclamation stamp, stepped in debug builds only: bumped to odd by
    /// `retire`, back to even by `reset`, so the asserts can tell a live
    /// block from a cached one across arbitrarily many reuse cycles.
    generation: u64,
    slots: [AtomicU64; BLOCK_SLOTS],
}

impl Block {
    fn boxed(next: *mut Block) -> Box<Block> {
        Box::new(Block {
            next,
            claimed: AtomicUsize::new(0),
            generation: 0,
            slots: std::array::from_fn(|_| AtomicU64::new(EMPTY)),
        })
    }

    /// Clear `block` and hand it to the recycler. Taking the leaked
    /// block's one `&'static mut` by value is the caller giving it up:
    /// the out-set's `Drop` (exclusive by `&mut self`) and the
    /// install-race loser (never published) are the only two callers.
    ///
    /// A cached block holds `EMPTY` in every slot. Only the slots below
    /// the cursor can hold anything else — an adder writes the slot whose
    /// index its `fetch_add` returned, the sweep the slots below the cursor
    /// it loaded — so those are the ones cleared: a block that served one
    /// dependent goes back with one line written, not five.
    ///
    /// `delivered` says every slot must be `EMPTY` or `SWEPT` — true of a
    /// sealed out-set (the slot protocol emptied it) and of a block that
    /// was never published. An out-set dropped unfinished may still hold
    /// tokens; those are cleared without the check.
    fn retire(block: &'static mut Block, delivered: bool) {
        let claimed = (*block.claimed.get_mut()).min(BLOCK_SLOTS);
        for slot in &mut block.slots[..claimed] {
            let prev = std::mem::replace(slot.get_mut(), EMPTY);
            debug_assert!(
                !delivered || prev < TOKEN_BIAS,
                "retired a slot block still holding an undelivered token"
            );
        }
        if cfg!(debug_assertions) {
            // What a release build relies on and never looks at: nothing
            // above the cursor was written. Then the poison, over the whole
            // block, and the stamp that tells a cached block from a live one.
            assert_eq!(block.generation % 2, 0, "double retirement of a slot block");
            block.generation += 1;
            for slot in &mut block.slots {
                let prev = std::mem::replace(slot.get_mut(), POISON);
                assert_eq!(prev, EMPTY, "a slot above the cursor of a retiring block was written");
            }
        }
        block.next = std::ptr::null_mut();
        obs::counter!("outset.blocks_recycled").inc();
        // SAFETY: `block` is the unique reference to a leaked `Box<Block>`
        // (every block is born in `alloc_block`) and is consumed here, so
        // nothing touches the memory until the pool hands it out again;
        // its first word is the dead `next` field.
        let spilled = unsafe { block_pool().release(block as *mut Block as *mut u8) };
        if spilled > 0 {
            obs::counter!("outset.blocks_overflowed").add(spilled as u64);
        }
        obs::trace::record(obs::EventKind::BlockRecycle, spilled as u64);
    }

    /// Re-initialize a block just taken from the recycler: restart the
    /// cursor and link it. Its slots are `EMPTY` already (`retire`); a
    /// debug build, where they hold the poison instead, verifies that
    /// nobody scribbled on the block while it was free and clears them.
    fn reset(block: &mut Block, next: *mut Block) {
        if cfg!(debug_assertions) {
            assert_eq!(block.generation % 2, 1, "reused a slot block that was never retired");
            block.generation += 1;
            for slot in &mut block.slots {
                let prev = std::mem::replace(slot.get_mut(), EMPTY);
                assert_eq!(prev, POISON, "a cached slot block was written to while free");
            }
        }
        *block.claimed.get_mut() = 0;
        block.next = next;
    }
}

/// The process-wide free list of slot blocks. All out-sets share one
/// recycler: blocks are uniform and carry no owner state while free, so
/// a block retired by one out-set's drop can seed any other out-set.
pub(crate) fn block_pool() -> &'static sched::SlabPool {
    // Per-worker cache bound: past this many free blocks a worker hands
    // half to the global list (a churning worker idles ≲ 10 KiB).
    const CACHE_CAP: usize = 32;
    static POOL: sched::SlabPool =
        sched::SlabPool::new("outset.block", std::mem::size_of::<Block>(), CACHE_CAP);
    &POOL
}

/// Free every block on the recycler's global list back to the allocator;
/// see [`crate::recycle::trim`].
pub(crate) fn trim_block_pool() -> usize {
    let n = block_pool().trim(|raw| {
        // SAFETY: everything on the free list was leaked from
        // `Block::boxed` and handed over whole by `Block::retire`.
        drop(unsafe { Box::from_raw(raw as *mut Block) });
    });
    if n > 0 {
        obs::counter!("outset.blocks_trimmed").add(n as u64);
    }
    n
}

/// An out-of-line lane: born by a split, so by then there *are* concurrent
/// adders to keep apart.
#[repr(align(128))] // one lane per cache-line pair: adders on distinct lanes never false-share
struct Lane {
    head: AtomicPtr<Block>,
}

impl Lane {
    /// A fresh lane in a slab of the class recycler (128 B, born
    /// 128-aligned); ended by `sched::recycle::free`.
    fn boxed() -> *mut Lane {
        sched::recycle::alloc(|| Lane { head: AtomicPtr::new(std::ptr::null_mut()) }).0
    }
}

/// One immutable snapshot of an out-of-line lane array. Growth installs a
/// doubled table in front of the old one; the lanes behind the pointers
/// are shared between generations and freed through the newest.
struct LaneTable {
    /// `lanes.len() - 1`; the length is always a power of two, so key
    /// hashing is a mask.
    mask: u64,
    /// Entry 0 is null: the owning out-set's inline lane. Every other
    /// entry is an out-of-line lane.
    lanes: Box<[*mut Lane]>,
    /// The generation this one superseded (null for the first). Kept
    /// until `Drop` so a reader of the table pointer needs no guard; the
    /// sizes are geometric, so the whole chain is smaller than the live
    /// table.
    prev: *mut LaneTable,
}

impl LaneTable {
    fn boxed(lanes: Vec<*mut Lane>, prev: *mut LaneTable) -> *mut LaneTable {
        debug_assert!(lanes.len().is_power_of_two());
        let mask = lanes.len() as u64 - 1;
        Box::into_raw(Box::new(LaneTable { mask, lanes: lanes.into_boxed_slice(), prev }))
    }

    /// The index of the lane `key` hashes to in this table generation.
    fn index_for(&self, key: u64) -> usize {
        // Fibonacci hash spreads dense keys (worker ids, addresses).
        let mix = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((mix >> 32) & self.mask) as usize
    }
}

/// The lock-free tree-of-blocks out-set (see module docs).
pub struct TreeOutsetObj {
    sealed: AtomicBool,
    /// Newest out-of-line lane-table generation; growth CASes a doubled
    /// table in front, and superseded generations stay linked behind it.
    /// Null while the out-set is still its inline first generation: one
    /// lane, `inline_head`.
    table: AtomicPtr<LaneTable>,
    /// Head word of the inline lane — lane 0, listed as a null entry by
    /// every table grown from it.
    inline_head: AtomicPtr<Block>,
}

// Every field is an atomic, so `Send` and `Sync` hold by themselves
// (a compile-time assertion in `tests` keeps them). That is sound for what
// the fields point at too: the tables, lanes and blocks are published by
// a `SeqCst` CAS (or an exclusive step's `Release` store), immutable or
// atomic once published, and freed only in `Drop`, which holds `&mut
// self`; so a `&TreeOutsetObj` on another thread reads only initialised
// memory that outlives it.

impl TreeOutsetObj {
    /// An empty out-set on **one lane**, the inline one: the cheapest
    /// possible start (single-dependent futures never pay for spreading
    /// they don't need), growing under observed contention up to
    /// [`max_lanes`](Self::max_lanes). It allocates nothing.
    ///
    /// Inlined so that a future's core gets its out-set written field by
    /// field into its slab rather than returned through the stack and
    /// copied in.
    #[inline]
    pub fn new() -> TreeOutsetObj {
        obs::counter!("outset.created").inc();
        TreeOutsetObj {
            sealed: AtomicBool::new(false),
            table: AtomicPtr::new(std::ptr::null_mut()),
            inline_head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// The lane-table cap: `4 × hardware threads`, rounded up to a power
    /// of two and clamped to `[2, 64]`. The core count is
    /// [`sched::num_cpus`]'s, probed once per process.
    pub fn max_lanes() -> usize {
        (sched::num_cpus() * 4).next_power_of_two().clamp(2, 64)
    }

    /// Lane count of generation `table` (null: the inline generation).
    fn lanes_in(table: *const LaneTable) -> usize {
        // SAFETY: tables are freed only in `Drop`.
        unsafe { table.as_ref() }.map_or(1, |t| t.lanes.len())
    }

    /// Head word of lane `idx` of generation `table`: the null-lane rule
    /// in one place. A null `table` has the inline lane alone; entry 0 of
    /// a grown table, null, is that same lane.
    fn head_at(&self, table: *const LaneTable, idx: usize) -> &AtomicPtr<Block> {
        // SAFETY: tables and lanes are freed only in `Drop`; `&self`
        // outlives the returned borrow.
        match unsafe { table.as_ref().and_then(|t| t.lanes[idx].as_ref()) } {
            Some(lane) => &lane.head,
            None => &self.inline_head,
        }
    }

    /// Register `token`; see [`OutsetFamily::add`] for the contract.
    ///
    /// Telemetry conservation invariant (checked by `harness obs
    /// --assert-bound`): every add ends up in exactly one of
    /// `outset.adds_bounced` (delivered inline, [`AddEdge::Finished`])
    /// or — once the out-set is sealed — `outset.swept` (delivered by
    /// the sweep), so `adds == adds_bounced + swept` after seal.
    pub fn add(&self, token: u64, key: u64) -> AddEdge {
        self.add_with::<Shared>(token, key)
    }

    /// [`add`](Self::add) for a caller that has the out-set to itself:
    /// the same transitions and the same result, each step committed by a
    /// load and a store (module docs, "One worker, no lock prefix").
    ///
    /// # Safety
    /// No other `add` or `finish` on this out-set — shared or exclusive —
    /// may overlap this call on any thread: each is ordered before or
    /// after it.
    //
    // `#[inline]`, as are `finish_exclusive` and `alloc_block`: the
    // exclusive instances are compiled where they are called, so this
    // crate compiles `add` alone, with the block pool's `acquire` inlined
    // into its only caller as before there were two adds.
    #[inline]
    pub unsafe fn add_exclusive(&self, token: u64, key: u64) -> AddEdge {
        self.add_with::<Exclusive>(token, key)
    }

    /// The one body of both adds.
    #[inline(always)]
    fn add_with<S: Step>(&self, token: u64, key: u64) -> AddEdge {
        assert!(token <= MAX_TOKEN, "tokens u64::MAX-2..=u64::MAX are reserved");
        obs::counter!("outset.adds").inc();
        if self.sealed.load(Ordering::SeqCst) {
            obs::counter!("outset.adds_bounced").inc();
            return AddEdge::Finished(token);
        }
        let slot = self.claim_slot::<S>(key);
        let biased = token + TOKEN_BIAS;
        if !S::cas(slot, EMPTY, biased) {
            // The sweep resolved this slot before we published.
            obs::counter!("outset.adds_bounced").inc();
            return AddEdge::Finished(token);
        }
        if self.sealed.load(Ordering::SeqCst) {
            // Published around the seal: exactly one of us (this add, the
            // sweep) turns the slot over and owns the delivery.
            if S::cas(slot, biased, SWEPT) {
                obs::counter!("outset.adds_bounced").inc();
                return AddEdge::Finished(token);
            }
        }
        AddEdge::Registered
    }

    /// Claim one slot in `key`'s lane, growing the block list — and,
    /// under a lost install CAS plus a heads coin flip, the lane table —
    /// as needed.
    fn claim_slot<S: Step>(&self, key: u64) -> &AtomicU64 {
        loop {
            // Re-read the table every round: a split (ours or a
            // competitor's) re-hashes the key over more lanes.
            let table_ptr = self.table.load(Ordering::SeqCst);
            // SAFETY: tables are freed only in `Drop`.
            let lane = unsafe { table_ptr.as_ref() }.map_or(0, |t| t.index_for(key));
            let lane_head = self.head_at(table_ptr, lane);
            let head = lane_head.load(Ordering::SeqCst);
            if !head.is_null() {
                // SAFETY: a linked block stays linked, and ours, until
                // `Drop` (exclusive access).
                let block = unsafe { &*head };
                let idx = S::fetch_add(&block.claimed);
                if idx < BLOCK_SLOTS {
                    return &block.slots[idx];
                }
                // Block full (the cursor overshoot is benign): fall
                // through and try to install a fresh head.
            }
            let fresh = self.alloc_block(head);
            // Failpoint (no-op unless `fault-inject` arms it): skip the
            // install attempt and take the lost-CAS branch as if a
            // competitor won — the never-published block goes back, the
            // split coin flips, and the loop retries. Deterministically
            // exercises the contention transient the split rule is built
            // around, on a single quiet thread if need be — the one way an
            // exclusive add reaches a split.
            let lost =
                sched::failpoint::fire("outset.install_cas") || !S::cas_ptr(lane_head, head, fresh);
            if lost {
                // Lost the install race; the never-published block goes
                // straight back to the recycler and we retry on the
                // winner.
                // SAFETY: never published, exclusively ours, given up.
                Block::retire(unsafe { &mut *fresh }, true);
                // A lost CAS is direct evidence of a concurrent adder on
                // this lane: flip the split coin (the adaptive analogue
                // of the in-counter's per-increment grow coin).
                obs::counter!("outset.lost_cas").inc();
                if ThreadCoin.flip(Probability::from_f64(0.5)) {
                    self.try_split(table_ptr);
                }
            }
        }
    }

    /// One block headed for a lane whose current head is `next`: from the
    /// recycler when a cached block is available, else a fresh
    /// allocation. (`#[inline]`: see `add_exclusive`.)
    #[inline]
    fn alloc_block(&self, next: *mut Block) -> *mut Block {
        if let Some(raw) = block_pool().acquire() {
            let block = raw as *mut Block;
            // SAFETY: `acquire` hands over exclusive ownership of a block
            // `retire` released.
            Block::reset(unsafe { &mut *block }, next);
            obs::counter!("outset.blocks_reused").inc();
            return block;
        }
        obs::counter!("outset.blocks_allocated").inc();
        Box::into_raw(Block::boxed(next))
    }

    /// Attempt to double the lane table from the generation `old`, and
    /// say whether this call installed the doubled table. Loses to
    /// concurrent splits; no-op at [`max_lanes`](Self::max_lanes) or once
    /// sealed.
    fn try_split(&self, old_ptr: *mut LaneTable) -> bool {
        let old_len = Self::lanes_in(old_ptr);
        if old_len >= Self::max_lanes() || self.sealed.load(Ordering::SeqCst) {
            // Post-seal growth would be correct (the monotone-lane
            // argument doesn't care) but can only waste memory.
            return false;
        }
        // The doubled generation shares every existing lane — the inline
        // generation's one lane as a null entry — and appends fresh ones,
        // so claimed slots never move.
        let mut lanes = Vec::with_capacity(old_len * 2);
        // SAFETY: tables are freed only in `Drop`.
        match unsafe { old_ptr.as_ref() } {
            Some(old) => lanes.extend_from_slice(&old.lanes),
            None => lanes.push(std::ptr::null_mut()),
        }
        lanes.extend((0..old_len).map(|_| Lane::boxed()));
        let fresh = LaneTable::boxed(lanes, old_ptr);
        match self.table.compare_exchange(old_ptr, fresh, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                // `old` stays linked behind `fresh` for the readers that
                // still hold it; `Drop` frees the chain.
                obs::counter!("outset.splits").inc();
                obs::trace::record(obs::EventKind::LaneSplit, (old_len * 2) as u64);
                true
            }
            Err(_) => {
                // A competitor split first; discard our never-published
                // generation and the fresh lanes only it knew about.
                // SAFETY: `fresh` was never published; lanes beyond
                // `old_len` were born above and shared with nobody.
                let table = unsafe { Box::from_raw(fresh) };
                for &lane in &table.lanes[old_len..] {
                    // SAFETY: each such lane came from `Lane::boxed`, and
                    // nobody else ever saw it, so it is freed once, here.
                    unsafe { sched::recycle::free(lane) };
                }
                false
            }
        }
    }

    /// Split the lane table once, unconditionally (up to
    /// [`max_lanes`](Self::max_lanes)). A deterministic handle on the
    /// growth machinery for tests and the growth study; returns whether a
    /// split happened.
    pub fn force_split(&self) -> bool {
        self.try_split(self.table.load(Ordering::SeqCst))
    }

    /// Seal and sweep; see [`OutsetFamily::finish`] for the contract.
    pub fn finish(&self, sink: &mut dyn FnMut(u64)) -> bool {
        self.finish_with::<Shared>(sink)
    }

    /// [`finish`](Self::finish) for a caller that has the out-set to
    /// itself, as [`add_exclusive`](Self::add_exclusive) is `add`'s.
    ///
    /// # Safety
    /// As for [`add_exclusive`](Self::add_exclusive): no other `add` or
    /// `finish` on this out-set may overlap this call.
    #[inline]
    pub unsafe fn finish_exclusive(&self, sink: &mut dyn FnMut(u64)) -> bool {
        self.finish_with::<Exclusive>(sink)
    }

    /// The one body of both finishes.
    #[inline(always)]
    fn finish_with<S: Step>(&self, sink: &mut dyn FnMut(u64)) -> bool {
        if S::swap_flag(&self.sealed, true) {
            return false;
        }
        // Loaded after the seal: by lane-set monotonicity this table
        // contains every lane a pre-seal adder could have claimed through.
        let table = self.table.load(Ordering::SeqCst);
        let lanes = Self::lanes_in(table);
        obs::counter!("outset.seals").inc();
        obs::trace::record(obs::EventKind::Seal, lanes as u64);
        let sweep_start = obs::now();
        let mut delivered = 0u64;
        for idx in 0..lanes {
            // Every pre-seal publish lives in a block linked before this
            // load (installing a block requires claiming through it, and
            // pre-seal claims reach only linked blocks). An adder that
            // installs a fresh head, or claims a slot past the cursor
            // value read below, afterwards necessarily published after
            // the seal, so it observes `sealed` on its re-check and
            // delivers inline.
            let mut head = self.head_at(table, idx).load(Ordering::SeqCst);
            while !head.is_null() {
                // SAFETY: as in `claim_slot`.
                let block = unsafe { &*head };
                let claimed = block.claimed.load(Ordering::SeqCst).min(BLOCK_SLOTS);
                for slot in &block.slots[..claimed] {
                    let prev = S::swap(slot, SWEPT);
                    debug_assert_ne!(prev, POISON, "swept a recycled (poisoned) block");
                    if prev >= TOKEN_BIAS {
                        delivered += 1;
                        sink(prev - TOKEN_BIAS);
                    }
                    // prev == EMPTY: the claiming adder has not published
                    // yet; its publish CAS will fail and deliver inline.
                }
                head = block.next;
            }
        }
        obs::counter!("outset.swept").add(delivered);
        obs::trace::record_span(obs::EventKind::Sweep, delivered, sweep_start);
        true
    }

    /// Racy seal snapshot.
    pub fn is_finished(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }

    /// Current lane count (a racy but monotone snapshot — the
    /// growth-curve probe).
    pub fn lane_count(&self) -> usize {
        Self::lanes_in(self.table.load(Ordering::SeqCst))
    }

    /// Successful lane splits so far (a racy but monotone snapshot, read
    /// off the structure): each split added one out-of-line table
    /// generation, the first generation being the object itself.
    pub fn splits(&self) -> usize {
        self.generations(self.table.load(Ordering::SeqCst)).count()
    }

    /// The out-of-line generations from `newest` back, newest first.
    fn generations(&self, newest: *const LaneTable) -> impl Iterator<Item = &LaneTable> {
        let table = |t: *const LaneTable| {
            // SAFETY: tables (the `prev` chain included) are immutable and
            // freed only in `Drop`, which `&self` excludes.
            unsafe { t.as_ref() }
        };
        std::iter::successors(table(newest), move |t| table(t.prev))
    }

    /// Blocks reachable from a given table generation.
    fn blocks_in(&self, table: *const LaneTable) -> usize {
        let mut n = 0;
        for idx in 0..Self::lanes_in(table) {
            let mut head = self.head_at(table, idx).load(Ordering::SeqCst);
            while !head.is_null() {
                n += 1;
                // SAFETY: blocks are freed only in Drop.
                head = unsafe { (*head).next };
            }
        }
        n
    }

    /// Number of blocks this out-set owns (test/diagnostic aid) —
    /// exactly what its drop will hand to the recycler.
    pub fn block_count(&self) -> usize {
        self.blocks_in(self.table.load(Ordering::SeqCst))
    }

    /// Bytes of heap currently held (every out-of-line table generation,
    /// out-of-line lanes and blocks), plus the object itself, which holds
    /// the inline generation — the footprint-study probe. Quiescent use
    /// only (the walk is racy under concurrent growth).
    ///
    /// Lanes and blocks are counted through **one** load of the newest
    /// generation (see the `footprint_matches_a_grown_tables_exact_bytes`
    /// test);
    /// superseded tables are owned until drop, so their pointer arrays
    /// count too — geometric, hence less than the live one in total.
    pub fn footprint_bytes(&self) -> usize {
        let table: *const LaneTable = self.table.load(Ordering::SeqCst);
        // SAFETY: tables (the `prev` chain included) are immutable and
        // freed only in Drop. Entry 0 is the inline lane, in the object.
        let lanes = unsafe { table.as_ref() }.map_or(0, |t| t.lanes.len() - 1);
        let tables: usize = self
            .generations(table)
            .map(|t| {
                std::mem::size_of::<LaneTable>() + t.lanes.len() * std::mem::size_of::<*mut Lane>()
            })
            .sum();
        std::mem::size_of::<Self>()
            + tables
            + lanes * std::mem::size_of::<Lane>()
            + self.blocks_in(table) * std::mem::size_of::<Block>()
    }
}

/// One block as the differential test compares it: its cursor and every
/// slot word.
#[cfg(test)]
pub(crate) type BlockWords = (usize, [u64; BLOCK_SLOTS]);

#[cfg(test)]
impl TreeOutsetObj {
    /// Every lane of the newest generation, in index order, with its blocks
    /// newest first: the whole protocol state a step can write.
    pub(crate) fn words_for_test(&self) -> Vec<Vec<BlockWords>> {
        let table = self.table.load(Ordering::SeqCst);
        (0..Self::lanes_in(table))
            .map(|idx| {
                let mut blocks = Vec::new();
                let mut head = self.head_at(table, idx).load(Ordering::SeqCst);
                while !head.is_null() {
                    // SAFETY: blocks are freed only in Drop.
                    let block = unsafe { &*head };
                    let slots = std::array::from_fn(|i| block.slots[i].load(Ordering::SeqCst));
                    blocks.push((block.claimed.load(Ordering::SeqCst), slots));
                    head = block.next;
                }
                blocks
            })
            .collect()
    }
}

impl Default for TreeOutsetObj {
    fn default() -> Self {
        TreeOutsetObj::new()
    }
}

impl Drop for TreeOutsetObj {
    fn drop(&mut self) {
        let sealed = *self.sealed.get_mut();
        let retire_chain = |mut head: *mut Block| {
            while !head.is_null() {
                // SAFETY: exclusive access; every block came from
                // `alloc_block`, and each chain is walked once and given up.
                let block = unsafe { &mut *head };
                head = block.next;
                Block::retire(block, sealed);
            }
        };
        // The inline lane needs no table to be found.
        retire_chain(*self.inline_head.get_mut());
        // By monotonicity the newest table points to every out-of-line
        // lane (and thus block) ever linked: each lane is listed once per
        // generation and freed through the newest only.
        let newest = *self.table.get_mut();
        // SAFETY: exclusive access, and this drop is the one place tables
        // and lanes are freed; every table came from `LaneTable::boxed`,
        // every out-of-line lane from `Lane::boxed`.
        let lanes = unsafe { newest.as_ref() }.map_or(&[][..], |t| &t.lanes[1..]);
        for &lane_ptr in lanes {
            // SAFETY: as above.
            unsafe {
                retire_chain(*(*lane_ptr).head.get_mut());
                sched::recycle::free(lane_ptr);
            }
        }
        // The generations themselves: just headers and pointer arrays.
        // Each split doubled the generation it superseded; the first one
        // is the object itself, with one lane.
        let mut generation = newest;
        while !generation.is_null() {
            // SAFETY: as above.
            let table = unsafe { Box::from_raw(generation) };
            // SAFETY: `prev` is freed on the next round, after this read.
            let before = unsafe { table.prev.as_ref() }.map_or(1, |t| t.lanes.len());
            debug_assert_eq!(
                table.lanes.len(),
                2 * before,
                "each generation doubles the one it superseded"
            );
            generation = table.prev;
        }
    }
}

/// The [`OutsetFamily`] of [`TreeOutsetObj`].
pub struct TreeOutset;

impl OutsetFamily for TreeOutset {
    type Outset = TreeOutsetObj;
    const NAME: &'static str = "outset-tree";

    #[inline]
    fn make() -> TreeOutsetObj {
        TreeOutsetObj::new()
    }

    fn add(out: &TreeOutsetObj, token: u64, key: u64) -> AddEdge {
        out.add(token, key)
    }

    fn finish(out: &TreeOutsetObj, sink: &mut dyn FnMut(u64)) -> bool {
        out.finish(sink)
    }

    #[inline]
    unsafe fn add_exclusive(out: &TreeOutsetObj, token: u64, key: u64) -> AddEdge {
        // SAFETY: the caller's promise is `add_exclusive`'s.
        unsafe { out.add_exclusive(token, key) }
    }

    #[inline]
    unsafe fn finish_exclusive(out: &TreeOutsetObj, sink: &mut dyn FnMut(u64)) -> bool {
        // SAFETY: the caller's promise is `finish_exclusive`'s.
        unsafe { out.finish_exclusive(sink) }
    }

    fn is_finished(out: &TreeOutsetObj) -> bool {
        out.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checked at compile time: an out-set is shared by every toucher of
    /// its future and dropped by whichever thread drops the last handle.
    const _: () = {
        const fn an_outset_crosses_threads<T: Send + Sync>() {}
        an_outset_crosses_threads::<TreeOutsetObj>()
    };

    #[test]
    fn fresh_outset_allocates_nothing() {
        // The acceptance criterion of the adaptive redesign, taken to its
        // end: creation pays for no contention it has not seen, and its
        // one lane lives in the object.
        let set = TreeOutsetObj::new();
        assert_eq!(set.lane_count(), 1);
        assert_eq!(set.block_count(), 0);
        assert_eq!(set.splits(), 0);
        assert!(set.table.load(Ordering::SeqCst).is_null(), "no out-of-line generation yet");
        assert_eq!(set.footprint_bytes(), std::mem::size_of::<TreeOutsetObj>());
        assert_eq!(std::mem::size_of::<TreeOutsetObj>(), 24);
        let set = TreeOutset::make();
        assert_eq!(set.lane_count(), 1);
        assert_eq!(set.footprint_bytes(), std::mem::size_of::<TreeOutsetObj>());
    }

    /// An out-set with `per_round` tokens registered before and after each
    /// of `splits` forced splits; key 0 always hashes to lane 0, the
    /// inline one. Returned **by value**: the move is part of what the
    /// callers test.
    fn split_with_tokens_in_lane0(splits: usize, per_round: u64) -> (TreeOutsetObj, Vec<u64>) {
        let set = TreeOutsetObj::new();
        let mut expect = Vec::new();
        for round in 0..=splits as u64 {
            for t in round * per_round..(round + 1) * per_round {
                assert_eq!(set.add(t, 0), AddEdge::Registered);
                expect.push(t);
            }
            if round < splits as u64 {
                assert!(set.force_split());
            }
        }
        (set, expect)
    }

    #[test]
    fn moved_outset_still_sweeps_its_inline_lane() {
        // A grown table names the inline lane by a null entry, never by
        // its address: moving the object (return by value, then into a
        // box on the heap) must leave every lane-0 token reachable.
        let (set, expect) = split_with_tokens_in_lane0(2, BLOCK_SLOTS as u64 + 5);
        let here = &set as *const TreeOutsetObj as usize;
        let boxed = Box::new(set);
        assert_ne!(&*boxed as *const TreeOutsetObj as usize, here, "the object really moved");
        assert_eq!(boxed.lane_count(), 4);
        assert!(!boxed.inline_head.load(Ordering::SeqCst).is_null(), "lane 0 is the inline one");
        // A post-move add through the grown table lands in the same lane.
        let late = expect.len() as u64;
        assert_eq!(boxed.add(late, 0), AddEdge::Registered);
        let mut got = Vec::new();
        assert!(boxed.finish(&mut |t| got.push(t)));
        got.sort_unstable();
        assert_eq!(got, (0..=late).collect::<Vec<_>>(), "each lane-0 token exactly once");
    }

    /// `log2(max_lanes())`: the splits that take an out-set to its cap.
    fn splits_to_cap() -> usize {
        TreeOutsetObj::max_lanes().trailing_zeros() as usize
    }

    #[test]
    fn drop_frees_every_generation_once() {
        // Drop's debug assertion checks that each generation doubles the
        // one before it, the first of which is the object itself. Run it
        // over never split, split to the cap, split once, and dropped
        // unfinished with tokens in the inline lane.
        drop(TreeOutsetObj::new());
        let (set, expect) = split_with_tokens_in_lane0(splits_to_cap(), 3);
        assert_eq!((set.splits(), set.lane_count()), (splits_to_cap(), TreeOutsetObj::max_lanes()));
        let mut n = 0;
        assert!(set.finish(&mut |_| n += 1));
        assert_eq!(n, expect.len());
        drop(set);
        drop(split_with_tokens_in_lane0(1, 2));
    }

    #[test]
    fn every_grown_table_lists_the_inline_lane_first() {
        // Entry 0 of every generation is the null entry that names the
        // inline lane, and only it: an add keyed to lane 0 lands in the
        // object's own head word whatever the table.
        let set = TreeOutsetObj::new();
        while set.force_split() {
            // SAFETY: the table is alive until `set` drops.
            let table = unsafe { &*set.table.load(Ordering::SeqCst) };
            assert!(table.lanes[0].is_null(), "entry 0 is the inline lane");
            assert!(
                table.lanes[1..].iter().all(|lane| !lane.is_null()),
                "the rest are out of line"
            );
        }
        for key in 0..64u64 {
            assert_eq!(set.add(key, key), AddEdge::Registered);
        }
        assert!(!set.inline_head.load(Ordering::SeqCst).is_null(), "key 0 hashes to lane 0");
        let mut n = 0;
        assert!(set.finish(&mut |_| n += 1));
        assert_eq!(n, 64);
    }

    #[test]
    fn blocks_grow_and_free() {
        let set = TreeOutsetObj::new();
        assert_eq!(set.block_count(), 0);
        for t in 0..(3 * BLOCK_SLOTS as u64 + 1) {
            let _ = set.add(t, 0);
        }
        assert_eq!(set.block_count(), 4, "ceil((3B+1)/B) blocks on one lane");
        let mut n = 0;
        assert!(set.finish(&mut |_| n += 1));
        assert_eq!(n, 3 * BLOCK_SLOTS + 1);
        // Drop runs at scope end; asan-less smoke: no crash.
    }

    #[test]
    fn lanes_spread_by_key() {
        // At the cap — at least 4 lanes on any host — 64 distinct keys
        // reach every lane.
        let set = TreeOutsetObj::new();
        while set.force_split() {}
        for key in 0..64u64 {
            let _ = set.add(key, key);
        }
        assert!(
            set.block_count() >= 4,
            "64 distinct keys should touch several of {} lanes, got {} blocks",
            set.lane_count(),
            set.block_count()
        );
    }

    #[test]
    fn max_lanes_is_cached_and_sane() {
        let a = TreeOutsetObj::max_lanes();
        assert_eq!(a, TreeOutsetObj::max_lanes());
        assert!((4..=64).contains(&a), "4 x cores, at least one core: {a}");
        assert!(a.is_power_of_two());
    }

    #[test]
    fn construction_is_cheap() {
        // Regression guard for the out-set allocation hot path: the
        // futures runtime builds one out-set per future, and the cap reads
        // the core count, whose probe (`available_parallelism`) costs about
        // 25 µs a call on a 2-core Xeon container host (2 000 calls in a
        // loop, std only), so 4000 uncached constructions would take about
        // 100 ms. Building an out-set reads no core count at all, and a
        // construction costs nanoseconds (under 1 ms for all of them in a
        // debug build); the bound sits at half the uncached price.
        let t0 = std::time::Instant::now();
        for _ in 0..4000 {
            std::hint::black_box(TreeOutsetObj::new());
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(50),
            "TreeOutsetObj::new must not probe the machine, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn force_split_doubles_until_cap() {
        let set = TreeOutsetObj::new();
        for split in 1..=splits_to_cap() {
            assert!(set.force_split());
            assert_eq!(set.lane_count(), 1 << split);
        }
        assert!(!set.force_split(), "capped at max_lanes");
        assert_eq!(set.lane_count(), TreeOutsetObj::max_lanes());
        assert_eq!(set.splits(), splits_to_cap());
    }

    #[test]
    fn tokens_survive_splits_exactly_once() {
        // Claim slots through up to four different table generations, then
        // sweep: the newest table must reach every block (lane sharing).
        let set = TreeOutsetObj::new();
        let splits = splits_to_cap().min(3);
        let mut expect = Vec::new();
        let mut token = 0u64;
        for round in 0..=splits {
            for k in 0..(2 * BLOCK_SLOTS as u64) {
                assert_eq!(set.add(token, k), AddEdge::Registered);
                expect.push(token);
                token += 1;
            }
            if round < splits {
                assert!(set.force_split());
            }
        }
        assert_eq!(set.lane_count(), 1 << splits);
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        got.sort_unstable();
        assert_eq!(got, expect, "every token from every generation, exactly once");
    }

    #[test]
    fn split_after_seal_is_refused() {
        let set = TreeOutsetObj::new();
        assert!(set.finish(&mut |_| {}));
        assert!(!set.force_split());
        assert_eq!(set.lane_count(), 1);
    }

    #[test]
    fn footprint_starts_small_and_tracks_growth() {
        let fresh = TreeOutsetObj::new();
        let one_lane = fresh.footprint_bytes();
        let _ = fresh.add(7, 0);
        let after_add = fresh.footprint_bytes();
        assert!(after_add > one_lane, "first add allocates the first block");
        let wide = TreeOutsetObj::new();
        while wide.force_split() {}
        assert!(
            wide.footprint_bytes() > one_lane,
            "a table grown to the cap must cost more than the one-lane start"
        );
    }

    #[test]
    fn footprint_matches_a_grown_tables_exact_bytes() {
        // Regression: the probe used to load the table twice, so the sum
        // could mix two generations around a split. Lanes and blocks must
        // come from the live generation only. Growing 1 → L = 2^k lanes
        // owns k out-of-line generations, whose pointer arrays hold
        // 2 + 4 + … + L = 2L − 2 entries, and L − 1 out-of-line lanes:
        // lane 0 lives in the object.
        let grown = TreeOutsetObj::new();
        while grown.force_split() {}
        let (lanes, k) = (TreeOutsetObj::max_lanes(), splits_to_cap());
        assert_eq!((grown.lane_count(), grown.splits()), (lanes, k));
        let bytes = |blocks: usize| {
            std::mem::size_of::<TreeOutsetObj>()
                + k * std::mem::size_of::<LaneTable>()
                + (2 * lanes - 2) * std::mem::size_of::<*mut Lane>()
                + (lanes - 1) * std::mem::size_of::<Lane>()
                + blocks * std::mem::size_of::<Block>()
        };
        assert_eq!(grown.footprint_bytes(), bytes(0));
        // Adds link blocks and nothing else, and the probe is stable
        // across repeated reads.
        for t in 0..(2 * BLOCK_SLOTS as u64) {
            let _ = grown.add(t, t);
        }
        assert!(grown.block_count() >= 2);
        assert_eq!(grown.footprint_bytes(), bytes(grown.block_count()));
        assert_eq!(grown.footprint_bytes(), grown.footprint_bytes());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tokens_rejected() {
        let set = TreeOutsetObj::new();
        let _ = set.add(u64::MAX, 0);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn poison_adjacent_token_rejected() {
        // u64::MAX - 2 would bias to the poison stamp's neighbourhood.
        let set = TreeOutsetObj::new();
        let _ = set.add(u64::MAX - 2, 0);
    }

    #[test]
    fn max_token_round_trips() {
        // The largest legal token must survive biasing and sweeping
        // without colliding with SWEPT or POISON.
        let set = TreeOutsetObj::new();
        assert_eq!(set.add(MAX_TOKEN, 0), AddEdge::Registered);
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        assert_eq!(got, vec![MAX_TOKEN]);
        assert_eq!(set.add(MAX_TOKEN, 0), AddEdge::Finished(MAX_TOKEN));
    }

    #[test]
    fn recycled_blocks_are_reusable_same_lane() {
        // ABA-shaped reuse smoke (the full regression battery lives in
        // tests/recycle_races.rs): a block retired by one out-set's
        // drop serves a later out-set at the same lane index, with the
        // generation stamp and poison checks (debug builds) vouching
        // that no stale state leaks across lives.
        for round in 0..8u64 {
            let set = TreeOutsetObj::new();
            let base = round * 1000;
            let mut expect = Vec::new();
            for t in 0..(BLOCK_SLOTS as u64 + 3) {
                assert_eq!(set.add(base + t, 0), AddEdge::Registered);
                expect.push(base + t);
            }
            let mut got = Vec::new();
            assert!(set.finish(&mut |t| got.push(t)));
            got.sort_unstable();
            assert_eq!(got, expect, "round {round}");
        }
    }

    #[test]
    fn finished_outset_keeps_its_chain_until_drop_returns_it() {
        let set = TreeOutsetObj::new();
        let fresh = set.footprint_bytes();
        let n = 2 * BLOCK_SLOTS as u64 + 1;
        for t in 0..n {
            assert_eq!(set.add(t, 0), AddEdge::Registered);
        }
        assert_eq!(set.block_count(), 3);
        let held = set.footprint_bytes();
        assert_eq!(held, fresh + 3 * std::mem::size_of::<Block>());
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert_eq!(set.block_count(), 3, "finish unlinks nothing");
        assert_eq!(set.footprint_bytes(), held);
        // Post-seal adds still bounce and link no new block.
        assert_eq!(set.add(7, 0), AddEdge::Finished(7));
        assert_eq!(set.block_count(), 3);

        // Drop hands exactly those blocks to the recycler, every slot
        // cleared. The thread's cache is LIFO, so the next three acquires
        // are them whatever other tests do to the shared list.
        let mut owned = Vec::new();
        let mut head = set.inline_head.load(Ordering::SeqCst);
        while !head.is_null() {
            owned.push(head as *mut u8);
            // SAFETY: linked blocks live until `set` drops, below.
            head = unsafe { (*head).next };
        }
        drop(set);
        let mut back: Vec<*mut u8> =
            (0..3).map(|_| block_pool().acquire().expect("drop fed the recycler")).collect();
        owned.sort_unstable();
        back.sort_unstable();
        assert_eq!(back, owned, "drop returns exactly block_count() blocks");
        for raw in back {
            // SAFETY: just acquired, untouched, handed straight back.
            unsafe {
                assert_cached(&mut *(raw as *mut Block));
                block_pool().release(raw);
            }
        }
    }

    /// What a block holds while it sits in the recycler: `EMPTY` in every
    /// slot — in a debug build the poison over that, under an odd stamp.
    fn assert_cached(block: &mut Block) {
        let (want, odd) = if cfg!(debug_assertions) { (POISON, 1) } else { (EMPTY, 0) };
        assert!(block.slots.iter_mut().all(|slot| *slot.get_mut() == want));
        assert_eq!(block.generation % 2, odd);
    }

    #[test]
    fn a_block_is_reborn_empty_whatever_its_last_life_left_in_it() {
        // `retire` clears the slots below the cursor and `reset` writes no
        // slot (release builds), so the cursor has to cover everything a
        // life can have written: no claim at all, one, a block one short
        // of full, full, and full with the cursor overshot by the adder
        // that moved on — tokens still in place throughout (`delivered ==
        // false`: the out-sets are dropped unfinished).
        let b = BLOCK_SLOTS as u64;
        for (round, k) in [0, 1, b - 1, b, b + 1].into_iter().enumerate() {
            let old = TreeOutsetObj::new();
            // A linked block nobody claimed in has no other way to exist.
            let untouched = old.alloc_block(std::ptr::null_mut());
            old.inline_head.store(untouched, Ordering::SeqCst);
            for t in 0..k {
                assert_eq!(old.add(1000 + t, 0), AddEdge::Registered);
            }
            let mut owned = Vec::new();
            let mut head = old.inline_head.load(Ordering::SeqCst);
            while !head.is_null() {
                owned.push(head);
                // SAFETY: linked blocks live until `old` drops.
                head = unsafe { (*head).next };
            }
            assert_eq!(owned.len(), if k > b { 2 } else { 1 });
            // SAFETY: as above.
            let cursor = unsafe { (*untouched).claimed.load(Ordering::SeqCst) };
            assert_eq!(cursor as u64, k, "k = {b} + 1 is the overshoot");
            drop(old);
            // The cache is LIFO and `Drop` walks newest first: the blocks
            // come back oldest first.
            let back: Vec<*mut Block> = (0..owned.len())
                .map(|_| block_pool().acquire().expect("drop fed the recycler") as *mut Block)
                .collect();
            assert!(back.iter().eq(owned.iter().rev()));
            for &raw in back.iter().rev() {
                // SAFETY: just acquired, exclusively ours, untouched, and
                // handed straight back.
                unsafe {
                    assert_cached(&mut *raw);
                    block_pool().release(raw as *mut u8);
                }
            }
            // The next life: exactly what is added to it comes out.
            let next = TreeOutsetObj::new();
            let reborn = next.alloc_block(std::ptr::null_mut());
            assert_eq!(reborn, back[0], "a block of the last life, by LIFO");
            // SAFETY: ours until installed below.
            let block = unsafe { &mut *reborn };
            assert!(block.slots.iter_mut().all(|slot| *slot.get_mut() == EMPTY));
            assert_eq!((*block.claimed.get_mut(), block.generation % 2), (0, 0));
            next.inline_head.store(reborn, Ordering::SeqCst);
            let expect: Vec<u64> = (0..b + 2).map(|t| round as u64 * 100 + t).collect();
            for &t in &expect {
                assert_eq!(next.add(t, 0), AddEdge::Registered);
            }
            let mut got = Vec::new();
            assert!(next.finish(&mut |t| got.push(t)));
            got.sort_unstable();
            assert_eq!(got, expect, "k = {k}: nothing stale, nothing lost");
        }
    }
}
