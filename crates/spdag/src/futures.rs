//! Futures: dag edges added at **run time**, beyond series-parallel shape.
//!
//! The sp-dag of [`crate::dag`] fixes every dependency at vertex-creation
//! time, which is exactly the discipline whose in-edges the in-counter
//! serves. The dag-calculus the paper targets is more general: an edge
//! may be added *while both endpoints already exist*, racing the source
//! vertex's completion. This module supplies that primitive, split across
//! the two dual structures:
//!
//! * **readiness** of the edge's target needs no counter at all: a
//!   toucher's in-degree is fixed when it starts to wait — one delivery
//!   for a `touch` continuation, two for a parked strand — so it counts
//!   on one word in its own vertex (`Vertex::owed`), and the
//!   [`incounter::CounterFamily`] in-counters stay where in-degree is
//!   unbounded, on scopes that fork. Every delivery — the `touch` bounce,
//!   the completion sweep, a parking executor's `commit_park` — goes
//!   through `resolve_dependent`, a locked decrement of that word, or a
//!   load and a store in a one-worker run, whose one thread makes both
//!   deliveries (`crate::vertex`, "One worker, no lock prefix");
//! * **completion broadcast** from the edge's source is the job of the
//!   new [`outset`] crate: each future vertex carries an out-set, touches
//!   register dependent edges in it, and the future's completion vertex
//!   seals it and sweeps every registered dependent to the scheduler in
//!   one batch. A one-worker run adds, seals and sweeps by load and
//!   store ([`outset::OutsetFamily::add_with`] and
//!   [`outset::OutsetFamily::finish_with`] with an exclusive step): every
//!   add and the sweep are made on its one thread.
//!
//! ## Model
//!
//! [`Ctx::future`] forks a *future* into the enclosing finish scope: its
//! body starts immediately (subject to scheduling), runs as a full
//! nested-parallel computation of its own, and its closure's return value
//! becomes the future's value. The call returns a cloneable
//! [`FutureHandle`]; the enclosing finish scope waits for the future like
//! for any fork, so a future can never dangle.
//!
//! **A future completes after its subtree *and* after its value is
//! published or its setter dropped.** The two are not the same moment: a
//! body that ends its vertex with [`Ctx::spawn`], [`Ctx::chain`] or
//! [`Ctx::touch`] and *then* returns the value has handed its obligation
//! to children that may finish, on another worker, before the `return`.
//! The completion vertex therefore waits for the body's one value setter
//! to go — after its write, or unused when the body panicked (the future
//! is then *poisoned*: complete, without a value; `docs/robustness.md`).
//!
//! [`Ctx::touch`] ends the current vertex —
//! like [`Ctx::chain`] — with a continuation that runs strictly after
//! **both** the toucher's position in its own scope allows it **and** the
//! touched future has completed; the continuation receives `&T`. Touching
//! an already-completed future degrades to a plain continuation push: the
//! [`outset::AddEdge::Finished`] bounce delivers the dependent inline.
//!
//! Under the hood a `future` is one in-counter increment (the completion
//! vertex joins the enclosing scope by the [`Scope::fork`](crate::Scope)
//! rotation) plus one out-set, and a `touch` is one out-set add — so the
//! paper's O(1)-amortized bounds extend to the dynamic-edge operations,
//! with the broadcast cost paid once per future, linear in the number of
//! dependents swept. The future's own scope opens with one strand, its
//! body, and has no counter unless that body forks (`crate::vertex`): a
//! future whose body only computes, touches or parks costs four recycler
//! slabs — the shared core, the fork's pair, the completion vertex and
//! the body vertex — 384 B in all (two of the 128 B class, two of the
//! 64 B).
//!
//! ## Who holds the core, and the registration-lifetime rule
//!
//! A refcount step on the core is a locked instruction on a line every
//! holder shares, so the runtime takes none it can name in advance, and
//! none at all for a reference only its own vertices of a one-worker run
//! hold.
//!
//! * **User handles** ([`FutureHandle`]) step the shared `PoolArc` count
//!   at every W: a handle may escape to any thread.
//! * **The runtime's own references** — the sweep's, a waiting vertex's
//!   (`touch_holding`), the inputs a `future_then`/`future_join` body
//!   captures, a join's handed-on left core — are `CoreRef`s. Minted by
//!   the worker of a one-worker run on a core that run bore, one is
//!   *internal*: it counts on `FutureCore::internal` by a load and a
//!   store, and the internal references of a core hold **one** unit of the
//!   shared count between them while any lives (taken at birth, retaken by
//!   one increment on 0 → 1, released by one decrement on 1 → 0).
//!   Otherwise it is one unit of the shared count, as a clone is.
//! * **The value setter holds no count**: the sweep waits for its drop's
//!   store to `published`, that store is its last access, and the sweep's
//!   reference covers it.
//!
//! So the core is **born with its two units** — the handle the
//! constructor returns and the sweep's (the group's, in a one-worker run)
//! — by `PoolArc::new_held`, and a join's second stage reads its first
//! input through the reference the first `touch` already took for its
//! waiting vertex, handed on by value (`Ctx::touch_holding`), instead of
//! through one more. The locked refcount steps, against the runtime
//! before the count split (every reference shared, the setter holding
//! one):
//!
//! | | before | W = 1 | W ≥ 2 |
//! |---|---|---|---|
//! | a `future_join` cell | 11: 4 up, 7 down | 2: the handle's drop, the group's release | 10: 4 up, 6 down |
//! | a `touch` of a future of its run | 2 | 0 | 2 |
//! | a future's birth and end (handle, sweep, setter) | 3 | 2 | 2 |
//!
//! At W ≥ 2 every step is one the runtime made before, less the setter's
//! drop. A future touched in a later run, or by a run nested in a vertex,
//! takes shared units: the token recorded at birth is the address of the
//! birth run's worker context, which no other live run shares.
//!
//! One reference is **not** negotiable: *a registration runs under a
//! reference its caller holds.* `touch` borrows the handle and gives the
//! waiting vertex a new reference. Moving the caller's own handle into
//! that vertex would save that step and is a use-after-free: once `O::add` has
//! published the token the vertex can be swept, run and retired on another
//! worker, dropping what it owns — and with the last reference the core,
//! out-set and slot blocks included — while `O::add` is still in its
//! post-publish `sealed` re-check.
//! `tests/futures_stress.rs::a_join_is_the_last_holder_of_its_inputs`
//! holds that window open.
//!
//! ## Footprint: every future starts on one lane
//!
//! A future's out-set is its family's [`outset::OutsetFamily::make`] and
//! nothing else: under the adaptive [`TreeOutset`] that is the
//! single-dependent shape — one lane, whose head word sits inside the
//! core, so creating the future allocates nothing for it — and a
//! lane table grows only if that future's dependents actually contend
//! (`docs/outset-contention.md` derives the bound). Nobody declares a
//! fan-out: pipeline and wavefront interior vertices have one or two
//! dependents and never grow, and a broadcast hub pays a short growth
//! transient on its first contended adds.
//!
//! Slot-block lifetime **is** the core's lifetime: the completion
//! vertex's sweep unlinks nothing, and dropping the last
//! [`FutureHandle`] clone drops the out-set, which hands every block it
//! owns to the block recycler (`outset::tree::block_pool`). Steady-state future
//! churn therefore reaches zero allocator traffic for slot blocks: each
//! new future's out-set is fed from blocks dropped futures returned. A
//! handle kept long after completion keeps its future's swept blocks
//! with it.
//!
//! ## Caveat: deadlock is expressible
//!
//! Unlike pure series-parallel composition, runtime edges can express
//! cycles (e.g. two futures exchanging handles through shared state, each
//! touching the other). The runtime detects nothing: a cyclic program
//! simply never finishes, as in the dag-calculus. Acyclicity is the
//! programmer's obligation.
//!
//! ```
//! use spdag::run_dag;
//! use incounter::{DynConfig, DynSnzi};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let out = Arc::new(AtomicU64::new(0));
//! let o = Arc::clone(&out);
//! run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
//!     let f = ctx.future(|_| 6u64 * 7);
//!     ctx.touch(&f, move |_, v| {
//!         o.store(*v, Ordering::Relaxed);
//!     });
//! });
//! assert_eq!(out.load(Ordering::Relaxed), 42);
//! ```

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Deref;
use std::ptr::{addr_of_mut, NonNull};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use incounter::CounterFamily;
use outset::{AddEdge, OutsetFamily, TreeOutset};
use sched::step::{Exclusive, Shared, Step};
use sched::{PoolArc, WorkerCtx};

use crate::dag::Ctx;
use crate::vertex::{solo_step, Body, Once, Resumable, Strand, StrandPoll, Vertex, VertexPtr};

/// Result of [`Ctx::touch_await`]: the blocking-style dual of
/// [`Ctx::touch`]'s continuation passing.
///
/// `Ready` hands the value back immediately (the future had completed, or
/// completed concurrently and bounced the registration). `Parked` means
/// the calling strand was registered on the future's out-set — the strand
/// **must** propagate [`StrandPoll::Parked`] out of its current
/// resumption without performing further dag operations; the executor
/// asserts this. The [`strand_await!`](crate::strand_await) macro wraps
/// the obligatory match.
#[must_use = "a Parked touch obliges the strand to return StrandPoll::Parked"]
pub enum StrandTouch<'f, T> {
    /// The future has completed; its value, borrowed from the handle.
    Ready(&'f T),
    /// Unready: the strand is now registered for resumption and must
    /// park.
    Parked,
}

/// Shared state of one future: its completion out-set and value cell.
struct FutureCore<T, O: OutsetFamily> {
    outset: O::Outset,
    /// Written once by the future's body vertex, read only by code that
    /// runs strictly after completion (see `value_ref`).
    value: UnsafeCell<Option<T>>,
    /// The [`run_token`] of the one-worker run the core was born in, 0 if
    /// it was born in a run of two or more. Written at birth, then only
    /// read: a [`CoreRef`] minted where it matches is internal.
    owner: usize,
    /// How many internal [`CoreRef`]s live. Stepped by a load and a store,
    /// by the owner alone (see `CoreRef`); while it is non-zero the group
    /// of them holds one unit of the shared `PoolArc` count.
    internal: AtomicU32,
    /// Set by the completion vertex just before the out-set seal; the
    /// publication edge for [`FutureHandle::try_get`]. Its readers need
    /// only its release half, which hands on the value write the sweep
    /// acquired through `published`: a one-worker run stores it `Release`,
    /// a run of two or more `SeqCst`.
    completed: AtomicBool,
    /// Set when the one [`ValueSetter`] goes — after its write, or without
    /// one (poisoned). The completion vertex waits for it: the body may end
    /// its vertex with a consuming `spawn`/`chain`/`touch` and still be
    /// running toward its `return` when the subtree it left behind is done.
    published: AtomicBool,
}

// SAFETY: `value` is written exactly once (through the one `ValueSetter`)
// and read only after `completed` is observed true or the reader was
// scheduled by the completion sweep; the completion vertex sets neither in
// motion before it has acquired `published`, which the setter releases
// after the write — so `&T` may be shared across threads (T: Sync) after a
// cross-thread move (T: Send). The out-set is Sync by its trait bounds.
// `owner` is written before the core is shared and never again;
// `internal` is an atomic that only the owner thread steps (`CoreRef`).
unsafe impl<T: Send + Sync, O: OutsetFamily> Send for FutureCore<T, O> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send + Sync, O: OutsetFamily> Sync for FutureCore<T, O> {}

impl<T, O: OutsetFamily> FutureCore<T, O> {
    /// # Safety
    /// Callable only from code ordered strictly after the future's
    /// completion (a swept/bounced dependent, or after observing
    /// `completed == true`).
    unsafe fn value_ref(&self) -> &T {
        // SAFETY: as documented on this function.
        unsafe { self.value_opt() }.expect(
            "future poisoned: its body panicked before publishing a value \
             (the original panic is re-raised at the run_dag caller)",
        )
    }

    /// The value if one was published; `None` for a *poisoned* future —
    /// one whose body panicked before reaching its `ValueSetter`, leaving
    /// the completion vertex to run (the dag drains to completion under
    /// panic isolation) with nothing to deliver.
    ///
    /// # Safety
    /// Same contract as [`value_ref`](FutureCore::value_ref): callable
    /// only from code ordered strictly after completion.
    unsafe fn value_opt(&self) -> Option<&T> {
        debug_assert!(self.completed.load(Ordering::SeqCst));
        // SAFETY: the write (if any) happened-before per the caller
        // contract, and no write can happen again (the body runs once).
        unsafe { (*self.value.get()).as_ref() }
    }
}

/// The token of the run `worker` belongs to, for [`CoreRef`]s: the
/// address of its context while the run is solo, 0 in a run of two or
/// more. Two live runs never share it — each context is a local of its own
/// worker's frame — and a later run that reuses an address finds every
/// internal count it shares with an earlier one at 0 (see `CoreRef`).
fn run_token<C: CounterFamily>(worker: &WorkerCtx<'_, VertexPtr<C>>) -> usize {
    if solo_step(worker).is_some() {
        worker as *const WorkerCtx<'_, VertexPtr<C>> as usize
    } else {
        0
    }
}

/// A reference to a future's core that the runtime takes for itself: the
/// sweep's, a waiting vertex's, an input a `future_then`/`future_join`
/// body captures. It is one of two kinds, told apart by bit 0 of its
/// pointer.
///
/// * **Internal**, when it was minted inside a one-worker run by that run's
///   worker on a core born in that run (`run_token` equals the core's
///   `owner`). It counts on `FutureCore::internal` by a load and a store,
///   and the first of a group (count 0 → 1) takes one unit of the shared
///   `PoolArc` count for the whole group — at birth with the handle
///   (`PoolArc::new_held::<2>`), later by one ordinary increment under the
///   reference the minting caller holds — which the last (1 → 0) releases
///   by an ordinary `PoolArc` drop.
/// * **Shared** otherwise: one ordinary unit of the `PoolArc` count, taken
///   and given back as a clone and a drop.
///
/// An internal reference lives and dies in its run's vertices, all of
/// which run on the owner thread and have run or been dropped before
/// `run_dag` returns; so the count it steps is never stepped by two
/// threads, and it is 0, with the group's unit released, whenever the run
/// is over. User handles (`FutureHandle`) step the shared word at every W,
/// so a handle that escapes to another thread behaves as it always has.
struct CoreRef<T, O: OutsetFamily> {
    /// The core, with bit 0 set when the reference is internal (a core is
    /// at least 8-aligned: it holds a `usize`).
    tagged: NonNull<FutureCore<T, O>>,
    _marker: PhantomData<FutureCore<T, O>>,
}

// SAFETY: a shared `CoreRef` is a `PoolArc` reference and crosses threads
// as one (the same bounds). An internal one never leaves its owner thread:
// it moves only between vertices of a one-worker run, which all run there
// (above) — the bound exists because vertex bodies must be `Send`.
unsafe impl<T: Send + Sync, O: OutsetFamily> Send for CoreRef<T, O> {}

impl<T, O: OutsetFamily> CoreRef<T, O> {
    const INTERNAL: usize = 1;

    /// The sweep's reference, out of the unit it was born with: the
    /// group's, with the internal count born at 1, when `internal`.
    fn born(unit: PoolArc<FutureCore<T, O>>, internal: bool) -> Self {
        Self::tag(PoolArc::into_raw(unit), internal)
    }

    /// A new reference to `core` for a worker whose [`run_token`] is
    /// `token`: internal when `token` is the core's owner, else shared.
    ///
    /// # Safety
    /// `core` must be a future's core — every one lives in a `PoolArc`,
    /// born by `future_slot` — and the caller must hold a reference to it
    /// for the call.
    #[inline]
    unsafe fn mint(core: &FutureCore<T, O>, token: usize) -> Self {
        // SAFETY: `core` is the value of a live `PoolArc`, and the caller's
        // reference keeps it alive; `ManuallyDrop` takes that reference
        // over for the clone below and never releases it (the std idiom
        // `Arc::increment_strong_count`).
        let held = ManuallyDrop::new(unsafe { PoolArc::from_raw(core) });
        if token == 0 || core.owner != token {
            return Self::tag(PoolArc::into_raw(PoolArc::clone(&held)), false);
        }
        let n = core.internal.load(Ordering::Relaxed);
        assert!(n < u32::MAX, "internal CoreRef count overflow");
        if n == 0 {
            // The group retakes its unit, released by the 1 → 0 drop.
            let _unit = PoolArc::into_raw(PoolArc::clone(&held));
        }
        core.internal.store(n + 1, Ordering::Relaxed);
        Self::tag(core, true)
    }

    fn tag(core: *const FutureCore<T, O>, internal: bool) -> Self {
        let tagged = core.map_addr(|a| a | if internal { Self::INTERNAL } else { 0 });
        // SAFETY: a core's address, which is non-null; setting bit 0 keeps
        // it so.
        Self { tagged: unsafe { NonNull::new_unchecked(tagged.cast_mut()) }, _marker: PhantomData }
    }

    fn core(&self) -> *const FutureCore<T, O> {
        self.tagged.as_ptr().map_addr(|a| a & !Self::INTERNAL)
    }
}

impl<T, O: OutsetFamily> Deref for CoreRef<T, O> {
    type Target = FutureCore<T, O>;

    fn deref(&self) -> &FutureCore<T, O> {
        // SAFETY: this reference keeps the core alive — its own unit, or
        // the group's while the internal count it is part of is non-zero.
        unsafe { &*self.core() }
    }
}

impl<T, O: OutsetFamily> Drop for CoreRef<T, O> {
    #[inline]
    fn drop(&mut self) {
        if self.tagged.as_ptr().addr() & Self::INTERNAL != 0 {
            // On the owner thread, the only one that steps this count.
            let n = self.internal.load(Ordering::Relaxed);
            self.internal.store(n - 1, Ordering::Relaxed);
            if n != 1 {
                return;
            }
        }
        // SAFETY: this reference's own unit, or the group's, which the last
        // internal reference releases; either was given up by `into_raw`.
        drop(unsafe { PoolArc::from_raw(self.core()) });
    }
}

/// An owning, type-erased park request for the async bridge: one core
/// reference (a shared unit, given up by `PoolArc::into_raw`) and the two
/// functions that know its type. Holding one keeps the [`FutureCore`] —
/// and thus the out-set the request targets — alive across the gap
/// between the `FutureHandle::poll` that filed the request and the strand
/// executor consuming it, even if the polled user future dropped its
/// handle (and every other core reference died) inside that gap. Filing
/// one allocates nothing.
pub(crate) struct ParkRequest {
    core: *const (),
    register: unsafe fn(*const (), u64, u64, Option<Exclusive<'_>>) -> bool,
    release: unsafe fn(*const ()),
}

impl ParkRequest {
    /// [`register_dependent`] on the requested future's out-set.
    pub(crate) fn register(&self, token: u64, key: u64, solo: Option<Exclusive<'_>>) -> bool {
        // SAFETY: `core` and `register` were made together, for one type,
        // and the request's reference keeps the core alive.
        unsafe { (self.register)(self.core, token, key, solo) }
    }
}

impl Drop for ParkRequest {
    fn drop(&mut self) {
        // SAFETY: as in `register`; the reference is released once, here.
        unsafe { (self.release)(self.core) }
    }
}

/// A cloneable reference to a future created by [`Ctx::future`].
///
/// Handles may travel to any vertex of the same dag run; any of them may
/// [`touch`](Ctx::touch) the future any number of times (each touch is
/// one dependent). Dropping handles never blocks the future. A handle is
/// touched only within the run that created it — by `touch`,
/// `touch_await` or a strand's `.await` — because a touch makes the
/// future's completion sweep deliver to a vertex of the toucher's run and
/// schedule it on the sweeping worker's deque. Outside a strand it is read
/// with [`try_get`](FutureHandle::try_get); polled there as a
/// `std::future::Future` it returns a completed future's value and panics
/// on an unready one (`crate::async_bridge`).
///
/// The shared core rides in a [`PoolArc`], so handle churn recycles its
/// header through the scheduler's size-class slabs instead of the
/// allocator.
pub struct FutureHandle<T, O: OutsetFamily = TreeOutset> {
    core: PoolArc<FutureCore<T, O>>,
}

impl<T, O: OutsetFamily> Clone for FutureHandle<T, O> {
    fn clone(&self) -> Self {
        FutureHandle { core: self.core.clone() }
    }
}

/// One-shot value publisher handed to the body every future constructor
/// builds. It holds no count: a raw pointer to the core, which the sweep's
/// reference keeps alive until the setter's `Drop` — the sweep spins on
/// `published` until that drop stores it, and that store is the setter's
/// last access. Its 8 bytes keep the closures that carry it inside the
/// frame's inline class.
struct ValueSetter<T, O: OutsetFamily> {
    core: NonNull<FutureCore<T, O>>,
}

// SAFETY: the setter carries the right to write the value once, from
// whichever thread runs the body (T: Send), into a core that is shared
// across threads (its `Sync` bounds); the pointer stays valid (above).
unsafe impl<T: Send + Sync, O: OutsetFamily> Send for ValueSetter<T, O> {}

impl<T: Send + Sync, O: OutsetFamily> ValueSetter<T, O> {
    /// Publish the future's value. Consumes the setter: the type system
    /// enforces the single write `FutureCore::value_ref` relies on, and
    /// the drop at the end of this call releases it to the completion
    /// vertex.
    fn set(self, value: T) {
        // SAFETY: the setter is handed out once and consumed here, by a
        // strand of the future's own subtree — ordered before every read
        // via the completion protocol (see FutureCore). The core is alive:
        // the sweep waits for this setter's drop.
        unsafe { *self.core.as_ref().value.get() = Some(value) };
    }
}

/// The one publication point of every constructor: the setter going —
/// after [`set`](ValueSetter::set)'s write, or unused because the body
/// panicked or its continuation was skipped (the future stays poisoned) —
/// is what lets the completion vertex complete the future.
impl<T, O: OutsetFamily> Drop for ValueSetter<T, O> {
    fn drop(&mut self) {
        // SAFETY: the sweep's reference holds the core until it has loaded
        // this store, which is the setter's last access.
        unsafe { self.core.as_ref() }.published.store(true, Ordering::Release);
    }
}

/// Adapts a value-producing strand (`Strand<C, T>`) to the unit-valued
/// strand a vertex body runs: `Done(v)` publishes `v` through the
/// future's one-shot setter. Parks pass through untouched — the adapter
/// adds no state beyond the 8-byte setter, so a small user strand still
/// rides inline in its vertex.
struct ValueStrandAdapter<S, T, O: OutsetFamily> {
    strand: S,
    /// `Some` until the strand completes; `take` preserves the setter's
    /// single-write guarantee across resumptions.
    setter: Option<ValueSetter<T, O>>,
}

impl<C, S, T, O> Strand<C> for ValueStrandAdapter<S, T, O>
where
    C: CounterFamily,
    S: Strand<C, T>,
    T: Send + Sync + 'static,
    O: OutsetFamily,
{
    fn resume(&mut self, ctx: &mut Ctx<'_, C>) -> StrandPoll {
        match self.strand.resume(ctx) {
            StrandPoll::Done(value) => {
                self.setter.take().expect("strand resumed after completion").set(value);
                StrandPoll::Done(())
            }
            StrandPoll::Parked => StrandPoll::Parked,
        }
    }
}

impl<T: Send + Sync + 'static, O: OutsetFamily> FutureHandle<T, O> {
    /// Whether the future has completed (racy snapshot; `true` is stable).
    pub fn is_done(&self) -> bool {
        self.core.completed.load(Ordering::SeqCst)
    }

    /// The value, if the future has already completed *and* published a
    /// value. `None` means not-yet-complete **or** poisoned — disambiguate
    /// with [`is_poisoned`](FutureHandle::is_poisoned). This is the
    /// non-panicking query surface for poisoned runs; the blocking
    /// surfaces ([`Ctx::touch_await`], the async bridge) panic with a
    /// descriptive poisoned-future message instead of hanging.
    pub fn try_get(&self) -> Option<&T> {
        if self.is_done() {
            // SAFETY: observing `completed` orders this read after the
            // value write, if any (see FutureCore safety comment).
            unsafe { self.core.value_opt() }
        } else {
            None
        }
    }

    /// Whether the future completed *without* publishing a value: its
    /// body panicked under panic isolation and the dag drained past it.
    /// The original panic payload is re-raised at the `run_dag` caller;
    /// this probe exists for dependents that run before the drain ends
    /// (e.g. a sibling's touch continuation).
    pub fn is_poisoned(&self) -> bool {
        // SAFETY: `is_done` orders the read after completion.
        self.is_done() && unsafe { self.core.value_opt() }.is_none()
    }

    /// How many units the core's shared count holds (diagnostic; racy by
    /// nature): one per handle, plus the runtime's own references — one
    /// each, except that the references a one-worker run takes for itself
    /// on its own futures hold one unit between them while any lives
    /// (the module docs, "Who holds the core").
    pub fn strong_count(&self) -> usize {
        PoolArc::strong_count(&self.core)
    }

    /// The future's completion out-set (diagnostic): how the growth-curve
    /// tests and the bench harness probe lane counts and footprints of
    /// out-sets embedded in a real dag run. Reading it never perturbs the
    /// protocol — all probes on the tree out-set are racy snapshots.
    pub fn outset(&self) -> &O::Outset {
        &self.core.outset
    }

    /// Crate-internal: an owning, type-erased park request for the async
    /// bridge (one `PoolArc` clone, no box — see [`ParkRequest`]).
    pub(crate) fn park_request(&self) -> ParkRequest {
        /// # Safety
        /// `core` is a `FutureCore<T, O>` a reference keeps alive.
        unsafe fn register<T, O: OutsetFamily>(
            core: *const (),
            token: u64,
            key: u64,
            solo: Option<Exclusive<'_>>,
        ) -> bool {
            // SAFETY: the caller's contract.
            let core = unsafe { &*(core as *const FutureCore<T, O>) };
            register_dependent::<O>(&core.outset, token, key, solo)
        }
        /// # Safety
        /// `core` came from `PoolArc::<FutureCore<T, O>>::into_raw`, once.
        unsafe fn release<T, O: OutsetFamily>(core: *const ()) {
            // SAFETY: the caller's contract.
            drop(unsafe { PoolArc::from_raw(core as *const FutureCore<T, O>) });
        }
        ParkRequest {
            core: PoolArc::into_raw(self.core.clone()) as *const (),
            register: register::<T, O>,
            release: release::<T, O>,
        }
    }
}

impl<'a, C: CounterFamily> Ctx<'a, C> {
    /// Create a future with the default ([`TreeOutset`]) broadcast
    /// structure. See the module docs for the model.
    ///
    /// Does **not** end the current vertex: like
    /// [`Scope::fork`](crate::Scope::fork), the body keeps running as the
    /// continuation, and may create more futures or finish with
    /// spawn/chain/touch. The future's out-set starts in the
    /// single-dependent shape and adapts if its dependents contend (see
    /// the module docs).
    ///
    /// ```
    /// use incounter::{DynConfig, DynSnzi};
    /// use spdag::run_dag;
    /// use std::sync::atomic::{AtomicU64, Ordering};
    /// use std::sync::Arc;
    ///
    /// let out = Arc::new(AtomicU64::new(0));
    /// let o = Arc::clone(&out);
    /// run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
    ///     let f = ctx.future(|_| 6u64 * 7);
    ///     ctx.touch(&f, move |_, v| o.store(*v, Ordering::Relaxed));
    /// });
    /// assert_eq!(out.load(Ordering::Relaxed), 42);
    /// ```
    pub fn future<T, F>(&mut self, body: F) -> FutureHandle<T, TreeOutset>
    where
        T: Send + Sync + 'static,
        F: for<'b> FnOnce(Ctx<'b, C>) -> T + Send + 'static,
    {
        self.future_in::<TreeOutset, T, F>(body)
    }

    /// As [`future`](Ctx::future) with an explicit out-set family — how
    /// the benchmarks drive the `Mutex<Vec>` baseline over identical dag
    /// machinery.
    pub fn future_in<O, T, F>(&mut self, body: F) -> FutureHandle<T, O>
    where
        O: OutsetFamily,
        T: Send + Sync + 'static,
        F: for<'b> FnOnce(Ctx<'b, C>) -> T + Send + 'static,
    {
        self.future_slot(move |setter| {
            Once(move |c: Ctx<'_, C>| {
                let value = body(c);
                setter.set(value);
            })
        })
    }

    /// The one place a future is built: the shared core, the enclosing
    /// finish scope's fork step, the completion (sweep) vertex and the
    /// body vertex. `build` turns the one-shot value setter into the
    /// body — a closure that sets the value where the combinator produces
    /// it (possibly inside nested touch continuations, which belong to the
    /// future's own finish scope and therefore always precede completion),
    /// or a strand that sets it on `Done`. All three objects are built
    /// where they live (`crate::vertex`, "Built where it lives").
    fn future_slot<O, T, B, G>(&mut self, build: G) -> FutureHandle<T, O>
    where
        O: OutsetFamily,
        T: Send + Sync + 'static,
        B: Body<C>,
        G: FnOnce(ValueSetter<T, O>) -> B,
    {
        // The core is born with its two units — the handle returned below
        // and the completion vertex's sweep, which in a one-worker run is
        // the group unit of the run's internal references, the sweep's
        // being the first (`CoreRef`) — so neither is a `clone`. The
        // body's setter holds no count.
        let token = run_token(self.worker);
        // SAFETY: the closure writes every field of the core.
        let [core, unit] = unsafe {
            PoolArc::new_held_in_place(|core: *mut FutureCore<T, O>| {
                addr_of_mut!((*core).outset).write(O::make());
                addr_of_mut!((*core).value).write(UnsafeCell::new(None));
                addr_of_mut!((*core).owner).write(token);
                addr_of_mut!((*core).internal).write(AtomicU32::new(u32::from(token != 0)));
                addr_of_mut!((*core).completed).write(AtomicBool::new(false));
                addr_of_mut!((*core).published).write(AtomicBool::new(false));
            })
        };
        let sweep_core = CoreRef::born(unit, token != 0);
        let setter = ValueSetter { core: NonNull::from(&*core) };
        obs::counter!("spdag.futures_created").inc();
        obs::trace::record(obs::EventKind::FutureCreate, &*core as *const FutureCore<T, O> as u64);
        let (cfg, worker) = (self.cfg, self.worker);
        let u = &mut *self.vertex;
        // Join the enclosing finish scope exactly like Scope::fork: one
        // increment making room for the future's completion vertex, then
        // rotate this vertex onto the fresh right-hand handles
        // (Vertex::fork_rotate encodes the handle discipline once).
        let fin = u.fin;
        let (i1, pair) = u.fork_rotate(cfg, solo_step(worker));
        // Completion vertex: waits for the future's body subtree (a scope
        // of one strand until that body forks), then sweeps.
        let fw_ptr =
            Vertex::slab().emplace(MaybeUninit::new(i1), pair, fin, true, Once(sweep(sweep_core)));
        // The sweep is the runtime's own body: `spdag.panic_vertex`, which
        // stands in for user code, must not skip it.
        // SAFETY: just built, unpublished.
        unsafe { (*fw_ptr).runtime_body = true };
        // Body vertex: ready now, the only strand of the completion
        // vertex's scope (the same wiring Ctx::chain gives its `first`).
        // The body's state is what `build` captures plus one word, the
        // setter.
        let fv = Vertex::slab().emplace_sole(fw_ptr, build(setter));
        worker.push(VertexPtr(fv));
        FutureHandle { core }
    }

    /// A future computed from another future's value: completes after
    /// `input` and its own derivation body. One out-set add on `input`,
    /// one future creation — the pipeline-stage primitive.
    ///
    /// ```
    /// use incounter::{DynConfig, DynSnzi};
    /// use spdag::run_dag;
    /// use std::sync::atomic::{AtomicU64, Ordering};
    /// use std::sync::Arc;
    ///
    /// let out = Arc::new(AtomicU64::new(0));
    /// let o = Arc::clone(&out);
    /// run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
    ///     let a = ctx.future(|_| 5u64);
    ///     let b = ctx.future_then(&a, |_, v| v * 10); // pipeline stage
    ///     ctx.touch(&b, move |_, v| o.store(*v, Ordering::Relaxed));
    /// });
    /// assert_eq!(out.load(Ordering::Relaxed), 50);
    /// ```
    pub fn future_then<A, T, OA, F>(
        &mut self,
        input: &FutureHandle<A, OA>,
        f: F,
    ) -> FutureHandle<T, TreeOutset>
    where
        A: Send + Sync + 'static,
        T: Send + Sync + 'static,
        OA: OutsetFamily,
        F: for<'b> FnOnce(Ctx<'b, C>, &A) -> T + Send + 'static,
    {
        // SAFETY: the handle holds the core for the call.
        let input = unsafe { CoreRef::mint(&input.core, run_token(self.worker)) };
        self.future_slot(move |setter| {
            Once(move |c: Ctx<'_, C>| {
                c.touch_holding(&input, move |c2, a| {
                    // SAFETY: `touch_holding` runs this strictly after
                    // completion, and only when a value was published.
                    let value = f(c2, unsafe { a.value_ref() });
                    setter.set(value);
                });
            })
        })
    }

    /// [`future_join_in`](Ctx::future_join_in) with the default
    /// ([`TreeOutset`]) broadcast structure for the derived future.
    ///
    /// ```
    /// use incounter::{DynConfig, DynSnzi};
    /// use spdag::run_dag;
    /// use std::sync::atomic::{AtomicU64, Ordering};
    /// use std::sync::Arc;
    ///
    /// let out = Arc::new(AtomicU64::new(0));
    /// let o = Arc::clone(&out);
    /// run_dag::<DynSnzi, _>(DynConfig::default(), 3, move |mut ctx| {
    ///     let a = ctx.future(|_| 40u64);
    ///     let b = ctx.future(|_| 2u64);
    ///     let j = ctx.future_join(&a, &b, |_, x, y| x + y); // wavefront cell
    ///     ctx.touch(&j, move |_, v| o.store(*v, Ordering::Relaxed));
    /// });
    /// assert_eq!(out.load(Ordering::Relaxed), 42);
    /// ```
    pub fn future_join<A, B, T, OA, OB, F>(
        &mut self,
        left: &FutureHandle<A, OA>,
        right: &FutureHandle<B, OB>,
        f: F,
    ) -> FutureHandle<T, TreeOutset>
    where
        A: Send + Sync + 'static,
        B: Send + Sync + 'static,
        T: Send + Sync + 'static,
        OA: OutsetFamily,
        OB: OutsetFamily,
        F: for<'b> FnOnce(Ctx<'b, C>, &A, &B) -> T + Send + 'static,
    {
        self.future_join_in::<A, B, T, OA, OB, TreeOutset, F>(left, right, f)
    }

    /// A future computed from **two** other futures' values (a join
    /// vertex): completes after both inputs and the combining body. This
    /// is the wavefront/stencil primitive — see `examples/pipeline.rs`.
    pub fn future_join_in<A, B, T, OA, OB, O, F>(
        &mut self,
        left: &FutureHandle<A, OA>,
        right: &FutureHandle<B, OB>,
        f: F,
    ) -> FutureHandle<T, O>
    where
        A: Send + Sync + 'static,
        B: Send + Sync + 'static,
        T: Send + Sync + 'static,
        OA: OutsetFamily,
        OB: OutsetFamily,
        O: OutsetFamily,
        F: for<'b> FnOnce(Ctx<'b, C>, &A, &B) -> T + Send + 'static,
    {
        let token = run_token(self.worker);
        // SAFETY: the handles hold their cores for the calls.
        let (left, right) =
            unsafe { (CoreRef::mint(&left.core, token), CoreRef::mint(&right.core, token)) };
        self.future_slot(move |setter| {
            Once(move |c: Ctx<'_, C>| {
                // The inner continuation reads `left`'s value through the
                // reference the outer touch took for its own continuation,
                // handed on — not through one more reference to `left`. The
                // captured one stays in this frame until `touch_holding`
                // returns (the registration-lifetime rule, on
                // `touch_holding`).
                c.touch_holding(&left, move |c2, left_core| {
                    c2.touch_holding(&right, move |c3, right_core| {
                        // SAFETY: this chain runs strictly after both
                        // completions (each touch ordered its own), and with
                        // both values: a poisoned input skips its
                        // continuation, so nothing gets here.
                        let (a, b) = unsafe { (left_core.value_ref(), right_core.value_ref()) };
                        let value = f(c3, a, b);
                        setter.set(value);
                    });
                });
            })
        })
    }

    /// End this vertex with a continuation that runs only after `future`
    /// completes (a runtime-added dependency edge). The continuation
    /// inherits this vertex's obligations in its scope — its enclosing
    /// finish waits for it, exactly as for a [`chain`](Ctx::chain)
    /// continuation. As after [`spawn`](Ctx::spawn), code after this call
    /// is ordered before nothing but the enclosing future's completion.
    ///
    /// Touching an already-completed future degrades to a plain
    /// continuation push (the edge is satisfied; the continuation is
    /// scheduled inline):
    ///
    /// ```
    /// use incounter::{DynConfig, DynSnzi};
    /// use spdag::run_dag;
    /// use std::sync::atomic::{AtomicU64, Ordering};
    /// use std::sync::Arc;
    ///
    /// let out = Arc::new(AtomicU64::new(0));
    /// let o = Arc::clone(&out);
    /// run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
    ///     let f = ctx.future(|_| 9u64);
    ///     while !f.is_done() {} // force the post-completion path
    ///     ctx.touch(&f, move |_, v| o.store(*v, Ordering::Relaxed));
    /// });
    /// assert_eq!(out.load(Ordering::Relaxed), 9);
    /// ```
    pub fn touch<T, O, K>(self, future: &FutureHandle<T, O>, then: K)
    where
        T: Send + Sync + 'static,
        O: OutsetFamily,
        K: for<'b> FnOnce(Ctx<'b, C>, &T) + Send + 'static,
    {
        self.touch_holding(&future.core, move |c, core| {
            // SAFETY: `touch_holding` runs this strictly after completion,
            // and only when a value was published.
            then(c, unsafe { core.value_ref() })
        });
    }

    /// [`touch`](Ctx::touch) on a future's core, with the continuation
    /// handed the reference to it that the waiting vertex holds anyway — by
    /// value, so a continuation that needs the future's value *later* (a
    /// join's second stage) keeps that one reference instead of taking
    /// another beforehand. `then` runs only if the future published a
    /// value.
    ///
    /// **Registration runs under a reference the caller holds**: `future`
    /// is borrowed from the caller's handle or `CoreRef`, and what the waiting
    /// vertex owns is a new reference (`CoreRef::mint`). Handing the
    /// caller's own reference to the waiting vertex instead would save that
    /// step and is unsound: the moment `O::add` publishes the token the
    /// vertex can be swept, run and retired on another worker, dropping
    /// what it owns — with the last reference the core, out-set included —
    /// while `O::add` is still in its post-publish `sealed` re-check.
    fn touch_holding<T, O, K>(self, future: &FutureCore<T, O>, then: K)
    where
        T: Send + Sync + 'static,
        O: OutsetFamily,
        K: for<'b> FnOnce(Ctx<'b, C>, CoreRef<T, O>) + Send + 'static,
    {
        let u = self.vertex;
        obs::counter!("spdag.touches").inc();
        obs::trace::record(obs::EventKind::FutureTouch, u as *const Vertex<C> as u64);
        // SAFETY: `future` is borrowed from the caller's reference to it.
        let core = unsafe { CoreRef::mint(future, run_token(self.worker)) };
        // The waiting vertex takes over u's scope position (inc, the pair
        // pointer with u's unspent claim, fin, side) like a chain
        // continuation — or splits one off u's (`Vertex::hand_off`) — and
        // is owed exactly one delivery of its own: the future's completion.
        // Its body captures one `CoreRef` plus the user continuation: inline
        // as long as `then`'s captures stay within two words.
        let (inc, dec, is_left) = u.hand_off(self.cfg, self.worker);
        let w_ptr = Vertex::slab().emplace(
            inc,
            dec,
            u.fin,
            is_left,
            Once(move |c: Ctx<'_, C>| {
                // SAFETY: this vertex is scheduled only by the completion
                // sweep or the post-seal bounce, both ordered after the
                // value write (if any).
                if unsafe { core.value_opt() }.is_some() {
                    then(c, core);
                } else {
                    // Poisoned: the future's body panicked and published
                    // nothing. Skip the continuation closure — its
                    // payload-producing panic is already being re-raised
                    // at the run caller — but let this vertex fall
                    // through to its signal epilogue so the scope still
                    // drains (the closure and its captures drop here).
                    obs::counter!("spdag.poisoned_touches").inc();
                }
            }),
        );
        // SAFETY: just built; the registration below publishes it.
        unsafe { *(*w_ptr).owed.get_mut() = 1 };
        let token = w_ptr as usize as u64;
        let key = self.worker.worker_id() as u64;
        let solo = solo_step(self.worker);
        if !register_dependent::<O>(&future.outset, token, key, solo) {
            // The future completed first (or the sweep claimed the race):
            // the dependency is already satisfied — resolve and schedule
            // inline.
            // SAFETY: as in the sweep; the bounce transfers exclusive
            // delivery to this caller.
            if unsafe { resolve_dependent::<C>(w_ptr, solo) } {
                self.worker.push(VertexPtr(w_ptr));
            }
        }
    }

    /// Blocking-style touch for [strands](crate::Strand): the value if
    /// the future is ready, else the calling strand is parked — the
    /// *strand*, never its worker, which returns to its deque as soon as
    /// the strand's resumption unwinds.
    ///
    /// On [`StrandTouch::Parked`] the strand must immediately return
    /// [`StrandPoll::Parked`]; when the future fulfills, the strand is
    /// rescheduled and re-enters from the top, where this same call now
    /// takes the ready fast path. Only strand bodies
    /// ([`Ctx::fork_strand`], [`Ctx::future_strand`]) may park; an
    /// unready touch from a one-shot body is a programming error that
    /// panics right here, before anything is registered (a one-shot body
    /// has no frame to resume, so an armed registration could only ever
    /// fire into a retired vertex).
    ///
    /// ## Exactly-once resumption under fulfill ∥ suspend
    ///
    /// An unready touch arms the running vertex's `owed` word with **2**
    /// *before* registering it on the future's out-set. One decrement
    /// belongs to the fulfiller (sweep or bounce delivery), one to this
    /// vertex's executor after the strand's state is safely reinstalled —
    /// so whichever side finishes second finds zero and reschedules the
    /// vertex, exactly once, and the loser's earlier decrement has already
    /// published its writes through the word's release/acquire edge. The
    /// in-degree is fixed at two and the word has two writers, so no
    /// in-counter is involved. A bounced registration
    /// ([`outset::AddEdge::Finished`]) means no token was stored: the
    /// handshake is disarmed and the value returned inline.
    pub fn touch_await<'f, T, O>(&mut self, future: &'f FutureHandle<T, O>) -> StrandTouch<'f, T>
    where
        T: Send + Sync + 'static,
        O: OutsetFamily,
    {
        assert!(
            !self.vertex.park_pending,
            "touch_await after a Parked touch in the same resumption \
             (the strand must return StrandPoll::Parked first)"
        );
        if future.is_done() {
            // SAFETY: observing `completed` orders this read after the
            // value write (see FutureCore); `value_ref` panics with the
            // poisoned-future message if the body panicked before
            // publishing — a descriptive error at the await site instead
            // of a hang, re-raised (second to the original payload) at
            // the run caller.
            return StrandTouch::Ready(unsafe { future.core.value_ref() });
        }
        obs::counter!("spdag.touch_awaits").inc();
        // Arm before registering: the two owed deliveries must be in place
        // before the sweep can possibly deliver. The word is this
        // executor's alone until then — a previous park left it at zero.
        let token = self.arm_park();
        obs::trace::record(obs::EventKind::FutureTouch, token);
        let key = self.worker.worker_id() as u64;
        if register_dependent::<O>(&future.core.outset, token, key, solo_step(self.worker)) {
            return StrandTouch::Parked;
        }
        // The future sealed first: no token was stored, so no fulfiller
        // delivery will ever come — disarm the handshake and deliver
        // inline. The seal's release chain guarantees `completed` is
        // visible.
        self.disarm_park();
        // SAFETY: the bounce orders this read after the value write, as in
        // `touch`'s bounce arm.
        StrandTouch::Ready(unsafe { future.core.value_ref() })
    }

    /// Create a future whose body is a resumable [`Strand`] producing the
    /// value: the strand may [`touch_await`](Ctx::touch_await) other
    /// futures mid-body, parking itself until they fulfill. `Done(v)`
    /// publishes `v` exactly as a [`future`](Ctx::future) closure's
    /// return value would.
    pub fn future_strand<T, S>(&mut self, strand: S) -> FutureHandle<T, TreeOutset>
    where
        T: Send + Sync + 'static,
        S: Strand<C, T>,
    {
        self.future_slot(move |setter| {
            Resumable(ValueStrandAdapter { strand, setter: Some(setter) })
        })
    }
}

/// The body of a future's completion vertex: publish completion and sweep
/// the out-set. It runs with a worker context, so swept dependents go
/// straight onto the deque, a stack chunk at a time: one sleeper
/// notification per `SWEEP_CHUNK` dependents, and no allocation however
/// many there are. Captures one `CoreRef` (8 bytes): an inline body.
fn sweep<C, T, O>(core: CoreRef<T, O>) -> impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static
where
    C: CounterFamily,
    T: Send + Sync + 'static,
    O: OutsetFamily,
{
    const SWEEP_CHUNK: usize = 32;
    move |c: Ctx<'_, C>| {
        let fulfill_start = obs::now();
        // The subtree is done; the value may not be. A body that ended
        // its vertex with `spawn`/`chain`/`touch` handed its obligation
        // to children that can finish on another worker while it is
        // still on its way to `return value`. Bounded: an unreleased
        // setter whose subtree is done sits in a closure that is
        // running right now on another worker (at W = 1 that closure
        // returned before this vertex could be popped).
        while !core.published.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        let solo = solo_step(c.worker);
        // `completed`'s readers need only the edge from the value write:
        // the setter's release of `published`, acquired above, handed on
        // by this store's release. A one-worker run stores it so; a run of
        // two or more keeps the `SeqCst` store.
        let ord = if solo.is_some() { Ordering::Release } else { Ordering::SeqCst };
        core.completed.store(true, ord);
        let mut chunk = [std::ptr::null_mut::<Vertex<C>>(); SWEEP_CHUNK];
        let (mut filled, mut ready) = (0, 0u64);
        let flush = |chunk: &[*mut Vertex<C>]| {
            c.worker.push_batch(chunk.iter().map(|&w| VertexPtr(w)));
        };
        let mut deliver = |token: u64| {
            let w = token as usize as *mut Vertex<C>;
            // SAFETY: every token is a waiting vertex — leaked by
            // `touch`, or parked by `touch_await` or an async strand —
            // scheduled by nobody else; this sweep holds its fulfiller
            // delivery right.
            if unsafe { resolve_dependent::<C>(w, solo) } {
                chunk[filled] = w;
                filled += 1;
                ready += 1;
                if filled == SWEEP_CHUNK {
                    flush(&chunk);
                    filled = 0;
                }
            }
        };
        match solo {
            Some(x) => O::finish_with(&core.outset, &mut deliver, x),
            None => O::finish(&core.outset, &mut deliver),
        };
        flush(&chunk[..filled]);
        obs::counter!("spdag.fulfills").inc();
        obs::trace::record_span(obs::EventKind::FutureFulfill, ready, fulfill_start);
    }
}

/// Register the dependent `token` (a waiting vertex) on a future's
/// out-set — the one registration step of `touch`, `touch_await` and the
/// async bridge. `true`: registered, the completion sweep owns delivery.
/// `false`: bounced — the out-set had sealed, nothing was stored, and the
/// caller delivers inline.
///
/// `solo` is the worker's `solo_step` (`crate::vertex`, "One worker, no
/// lock prefix").
///
/// Failpoint (no-op unless `fault-inject` arms `spdag.force_bounce`): hold
/// the registration until the out-set seals, so `O::add` deterministically
/// takes the bounce path. The spin is bounded — the future's body may be
/// *behind* this very worker in its own deque (guaranteed at W = 1), in
/// which case waiting forever would deadlock; an expired budget just means
/// the registration proceeds normally.
pub(crate) fn register_dependent<O: OutsetFamily>(
    outset: &O::Outset,
    token: u64,
    key: u64,
    solo: Option<Exclusive<'_>>,
) -> bool {
    if sched::failpoint::fire("spdag.force_bounce") {
        for _ in 0..200_000 {
            if O::is_finished(outset) {
                break;
            }
            std::hint::spin_loop();
        }
    }
    let edge = match solo {
        Some(x) => O::add_with(outset, token, key, x),
        None => O::add(outset, token, key),
    };
    match edge {
        AddEdge::Registered => true,
        AddEdge::Finished(bounced) => {
            debug_assert_eq!(bounced, token);
            false
        }
    }
}

/// Make one of the deliveries a waiting dependent is owed; `true` when it
/// was the last and the caller must schedule the vertex. Two kinds of
/// dependent flow through here: `touch` continuations (owed 1, one
/// sweep/bounce delivery) and parked strands (owed 2 — the fulfiller's
/// delivery plus the parking executor's own release in `commit_park`, in
/// either order). The in-degree is fixed before the first delivery can
/// happen, so one word in the vertex carries the whole handshake: the
/// delivery that lands second schedules, and the first one's release half
/// publishes its writes (a parking executor's reinstalled body) to the
/// second one's acquire half, which the deque push hands on to whoever
/// runs the vertex.
///
/// `solo` is the worker's `solo_step`, as for [`register_dependent`].
///
/// # Safety
/// `w` must be a waiting vertex (a `touch` continuation or a parked
/// strand), not scheduled, and the caller must hold one — exactly one —
/// of its pending delivery rights.
pub(crate) unsafe fn resolve_dependent<C: CounterFamily>(
    w: *mut Vertex<C>,
    solo: Option<Exclusive<'_>>,
) -> bool {
    // Project straight to the word: materializing `&Vertex` here would
    // claim read validity over the *whole* struct while the parking
    // executor may still hold `&mut Vertex` and be writing
    // `body`/`park_pending` before its own decrement — undefined behaviour
    // under the aliasing model even though only the word would be touched.
    // The word itself is an atomic: `arm_park` (or `touch`, on the vertex
    // it had just built) wrote it strictly before the registration that
    // handed this caller its delivery right, and nothing but the owed
    // deliveries writes it until the resumed executor owns the vertex.
    //
    // SAFETY: `w` is alive (leaked, unscheduled) per the caller contract,
    // so the field projection is in bounds; the shared reference covers
    // only the atomic's bytes.
    let owed = unsafe { &*std::ptr::addr_of!((*w).owed) };
    let before = match solo {
        Some(x) => x.fetch_sub(owed, 1, Ordering::AcqRel),
        None => Shared.fetch_sub(owed, 1, Ordering::AcqRel),
    };
    debug_assert!(before >= 1, "a dependent got a delivery it was not owed");
    before == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_dag;
    use incounter::{DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};
    use outset::MutexOutset;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn a_future_core_rides_the_64_byte_class() {
        // One line a core, not two: with a 24 B out-set, a `u64` future's
        // pooled core — `PoolArc`'s count word in front of the
        // `FutureCore`, laid out as its `repr(C)` header does — is 64 B,
        // the owner token and the internal count included. A
        // field that pushes it past 64 B sends it to the 128 B class and
        // fails here, on either leg of the `telemetry` switch (CI runs
        // both).
        assert_eq!(std::mem::size_of::<outset::tree::TreeOutsetObj>(), 24);
        let (pooled, _) = std::alloc::Layout::new::<std::sync::atomic::AtomicUsize>()
            .extend(std::alloc::Layout::new::<FutureCore<u64, TreeOutset>>())
            .expect("a small layout");
        let pooled = pooled.pad_to_align();
        assert_eq!(pooled.size(), 64, "the pooled core of a u64 future");
        let class =
            sched::recycle::class_for(pooled.size(), pooled.align()).expect("on the ladder");
        assert_eq!(sched::recycle::class_bytes(class), 64);
    }

    #[test]
    fn a_future_core_is_built_where_it_lives() {
        // Over scribbled slabs, at W = 1 (the body has not run when the
        // constructor returns): every field of the core reads as born.
        crate::scribble::scribble();
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::default(), 1, move |mut ctx| {
            let f = ctx.future(|_| 7u64);
            // The handle and the group unit of the run's internal
            // references, the sweep's the first of them.
            assert_eq!(f.strong_count(), 2, "born with its two units");
            assert_eq!(f.core.internal.load(Ordering::Relaxed), 1, "the sweep's reference");
            assert!(!f.core.completed.load(Ordering::SeqCst), "completed");
            assert!(!f.core.published.load(Ordering::SeqCst), "published");
            // `None`, read as its tag byte: an unwritten tag need not read as
            // `Some`, since a two-variant tag is compared with one value.
            // SAFETY: the body has not run (one worker, still in this body).
            assert_eq!(crate::scribble::byte(unsafe { &*f.core.value.get() }), 0, "value");
            let outset = f.outset();
            assert!(!outset.is_finished(), "the out-set's seal");
            assert_eq!((outset.splits(), outset.lane_count()), (0, 1), "the out-set's generations");
            ctx.touch(&f, move |_, v| {
                o.store(*v, Ordering::Relaxed);
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn touch_after_completion_gets_value() {
        // Force the future to complete before the touch by spinning on
        // is_done() — exercises the AddEdge::Finished inline path.
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
            let f = ctx.future(|_| 99u64);
            while !f.is_done() {
                std::hint::spin_loop();
            }
            assert_eq!(f.try_get(), Some(&99));
            ctx.touch(&f, move |_, v| {
                o.store(*v, Ordering::Relaxed);
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), 99);
    }

    #[test]
    fn touch_before_completion_waits_for_value() {
        // The future spins until the toucher has registered its edge, so
        // the sweep path (AddEdge::Registered) is the one taken. The
        // release happens in plain code *after* the touch call — touch
        // consumes the Ctx but, like spawn, the body may keep running.
        let registered = Arc::new(AtomicU64::new(0));
        let out = Arc::new(AtomicU64::new(0));
        let (r, o) = (Arc::clone(&registered), Arc::clone(&out));
        run_dag::<DynSnzi, _>(DynConfig::default(), 3, move |mut ctx| {
            let r2 = Arc::clone(&r);
            let f = ctx.future(move |_| {
                while r2.load(Ordering::Acquire) == 0 {
                    std::hint::spin_loop();
                }
                7u64
            });
            ctx.touch(&f, move |_, v| {
                o.store(*v, Ordering::Relaxed);
            });
            // Edge registered (or bounced) by now: let the future finish.
            r.store(1, Ordering::Release);
        });
        assert_eq!(out.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn single_dependent_future_stays_on_one_lane() {
        // The adaptive footprint claim, end to end: a pipeline of
        // single-dependent futures never grows any lane table.
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
            let a = ctx.future(|_| 1u64);
            assert_eq!(a.outset().lane_count(), 1, "fresh future = 1 lane");
            let b = ctx.future_then(&a, |_, v| v + 1);
            let c3 = ctx.future_then(&b, |_, v| v + 1);
            let (a2, b2, c2) = (a.clone(), b.clone(), c3.clone());
            ctx.touch(&c3, move |_, v| {
                o.store(*v, Ordering::Relaxed);
                for (h, name) in [(&a2, "a"), (&b2, "b"), (&c2, "c")] {
                    assert_eq!(h.outset().lane_count(), 1, "future {name} must not grow");
                    assert_eq!(h.outset().splits(), 0);
                }
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn fanout_broadcast_observably_grows_lane_table() {
        // Under a fanout broadcast at 4 workers, a hub future's lane table
        // that grows while its dependents register is what its handle
        // reports after the run, and every dependent is still swept exactly
        // once. One toucher, halfway through the fan-out, forces the table
        // up to its cap (`TreeOutsetObj::{force_split, max_lanes}`) while
        // the other workers' touchers add. The growth is forced, not left
        // to the adaptive coin alone: that needs real lost CASes, which a
        // 2-core host produced in one run of three. The coin under
        // contention is the `outset` crate's to test.
        const N: u64 = 4000;
        // Smuggle the handle out so the lane table is probed after the run
        // quiesced.
        let escaped = Arc::new(std::sync::Mutex::new(None::<FutureHandle<u64>>));
        let swept = Arc::new(AtomicU64::new(0));
        let (l, s) = (Arc::clone(&escaped), Arc::clone(&swept));
        run_dag::<DynSnzi, _>(DynConfig::default(), 4, move |mut ctx| {
            let registered = Arc::new(AtomicU64::new(0));
            let r = Arc::clone(&registered);
            // The hub completes only after every touch landed, so every
            // dependent goes through the registration path and the sweep.
            let f = ctx.future(move |_| {
                while r.load(Ordering::Acquire) < N {
                    std::hint::spin_loop();
                }
                1u64
            });
            *l.lock().unwrap() = Some(f.clone());
            let mut scope = ctx.into_scope();
            for i in 0..N {
                let (f, registered, s) = (f.clone(), Arc::clone(&registered), Arc::clone(&s));
                scope.fork(move |c| {
                    if i == N / 2 {
                        while f.outset().force_split() {}
                    }
                    c.touch(&f, move |_, v| {
                        s.fetch_add(*v, Ordering::Relaxed);
                    });
                    registered.fetch_add(1, Ordering::Release);
                });
            }
        });
        let handle = escaped.lock().unwrap().take().expect("handle escaped");
        assert_eq!(swept.load(Ordering::Relaxed), N, "every dependent swept once");
        let grown = handle.outset();
        let cap = outset::tree::TreeOutsetObj::max_lanes();
        assert_eq!(grown.lane_count(), cap, "one lane, doubled to the cap");
        assert_eq!(grown.splits(), cap.trailing_zeros() as usize);
    }

    #[test]
    fn many_touchers_fan_out_broadcast() {
        for workers in [1, 2, 4] {
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |mut ctx| {
                let f = ctx.future(|_| 5u64);
                let mut scope = ctx.into_scope();
                for _ in 0..100 {
                    let f = f.clone();
                    let h = Arc::clone(&h);
                    scope.fork(move |c| {
                        c.touch(&f, move |_, v| {
                            h.fetch_add(*v as usize, Ordering::Relaxed);
                        });
                    });
                }
            });
            assert_eq!(hits.load(Ordering::Relaxed), 500, "workers={workers}");
        }
    }

    #[test]
    fn future_with_nested_parallelism_completes_after_subtree() {
        // The future's body spawns; dependents must observe the whole
        // subtree's effects, not just the root strand's.
        let cell = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(AtomicU64::new(0));
        let (c1, s1) = (Arc::clone(&cell), Arc::clone(&seen));
        run_dag::<DynSnzi, _>(DynConfig::default(), 4, move |mut ctx| {
            let c2 = Arc::clone(&c1);
            let f = ctx.future(move |c: Ctx<'_, DynSnzi>| {
                let (a, b) = (Arc::clone(&c2), c2);
                c.spawn(
                    move |_| {
                        a.fetch_add(3, Ordering::Relaxed);
                    },
                    move |_| {
                        b.fetch_add(4, Ordering::Relaxed);
                    },
                );
                1u64 // value published at closure return
            });
            ctx.touch(&f, move |_, v| {
                assert_eq!(*v, 1);
                s1.store(cell.load(Ordering::Relaxed), Ordering::Relaxed);
            });
        });
        assert_eq!(seen.load(Ordering::Relaxed), 7, "touch ran before subtree done");
    }

    #[test]
    fn futures_work_on_all_counter_families() {
        fn drive<C: CounterFamily>(cfg: C::Config) {
            for workers in [1, 2] {
                let out = Arc::new(AtomicU64::new(0));
                let o = Arc::clone(&out);
                run_dag::<C, _>(cfg.clone(), workers, move |mut ctx| {
                    let f = ctx.future(|_| 21u64);
                    ctx.touch(&f, move |_, v| {
                        o.fetch_add(*v * 2, Ordering::Relaxed);
                    });
                });
                assert_eq!(out.load(Ordering::Relaxed), 42, "{} at W={workers}", C::NAME);
            }
        }
        drive::<DynSnzi>(DynConfig::always_grow());
        drive::<DynSnzi>(DynConfig::never_grow());
        drive::<FetchAdd>(());
        drive::<FixedDepth>(FixedConfig { depth: 2 });
    }

    #[test]
    fn mutex_outset_family_works_in_dag() {
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
            let f = ctx.future_in::<MutexOutset, _, _>(|_| 11u64);
            ctx.touch(&f, move |_, v| {
                o.store(*v, Ordering::Relaxed);
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn future_then_chains_values() {
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::default(), 3, move |mut ctx| {
            let a = ctx.future(|_| 5u64);
            let b = ctx.future_then(&a, |_, v| v * 10);
            let c3 = ctx.future_then(&b, |_, v| v + 1);
            ctx.touch(&c3, move |_, v| {
                o.store(*v, Ordering::Relaxed);
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), 51);
    }

    #[test]
    fn future_join_combines_both_inputs() {
        for workers in [1, 4] {
            let out = Arc::new(AtomicU64::new(0));
            let o = Arc::clone(&out);
            run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |mut ctx| {
                let a = ctx.future(|_| 1000u64);
                let b = ctx.future(|_| 337u64);
                let j = ctx.future_join(&a, &b, |_, x, y| x + y);
                ctx.touch(&j, move |_, v| {
                    o.store(*v, Ordering::Relaxed);
                });
            });
            assert_eq!(out.load(Ordering::Relaxed), 1337, "workers={workers}");
        }
    }

    #[test]
    fn join_tree_reduction_via_futures() {
        // Pairwise join reduction over 32 leaf futures: a dynamic dag in
        // the shape the in-counter was never built for, still exact.
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::default(), 4, move |mut ctx| {
            let mut layer: Vec<FutureHandle<u64>> =
                (0..32u64).map(|i| ctx.future(move |_| i)).collect();
            while layer.len() > 1 {
                let mut next = Vec::new();
                for pair in layer.chunks(2) {
                    let j = ctx.future_join(&pair[0], &pair[1], |_, a, b| a + b);
                    next.push(j);
                }
                layer = next;
            }
            ctx.touch(&layer[0], move |_, v| {
                o.store(*v, Ordering::Relaxed);
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), (0..32u64).sum());
    }

    #[test]
    fn chained_futures_pipeline() {
        // future B touches future A: an edge between two dynamically
        // created vertices, no common spawn ancestor on the path.
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::default(), 3, move |mut ctx| {
            let a = ctx.future(|_| 10u64);
            let b = ctx.future(|_| 3u64);
            let (a3, o2) = (a.clone(), o);
            ctx.touch(&b, move |c, vb| {
                let vb = *vb;
                c.touch(&a3, move |_, va| {
                    o2.store(va + vb, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), 13);
    }
}
