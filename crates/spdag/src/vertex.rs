//! Dag vertices (the paper's Figure 3 `vertex` struct).
//!
//! A vertex carries:
//!
//! * its own dependency counter (the paper's `query` handle) — allocated
//!   **lazily**: only finish vertices (the final vertex of the dag and the
//!   `w` of every `chain`) start with a non-zero count and are ever
//!   counted against, so plain spawn children skip the allocation
//!   entirely. This matches the paper's implementation, which allocates
//!   one counter per finish block;
//! * an increment handle `inc` and a shared decrement pair `dec`, both
//!   aimed into the counter of the vertex's *finish vertex* `fin`;
//! * the `is_left` bit (which of its parent's two children this vertex
//!   is), used by the in-counter to spread sibling traffic onto disjoint
//!   SNZI nodes (Figure 5, line 22);
//! * the `dead` flag, set when the vertex ends by spawning or chaining
//!   instead of signalling;
//! * the body closure, taken exactly once by the executing worker.
//!
//! ## Allocation and recycling
//!
//! Vertices are the runtime's highest-churn allocation: every `spawn`
//! makes two, every `chain`/`future`/`touch` at least one, and each lives
//! exactly from creation to its single execution. They are carved from
//! the scheduler's size-class slab pools instead of `Box`:
//! `Vertex::alloc` builds the vertex in a slab of the class its layout
//! fits ([`sched::recycle::alloc`]) and `Vertex::retire` runs drop glue
//! and sends the slab back there ([`sched::recycle::free`]) — the class is
//! a function of `Vertex<C>`'s layout, so the vertex records nothing about
//! its birth — and warm-run spawn churn recirculates a small working set of
//! slabs through the executing worker's private cache, touching neither
//! the allocator nor any word another worker writes. Small bodies
//! (captures up to `INLINE_BODY_BYTES`) are stored *inside* the vertex
//! (`BodySlot`) rather than behind `Box<dyn FnOnce>`. The third object of
//! a spawn, the shared `DecPair`, is a slab of the same ladder that owns
//! itself: `dec` is a plain copyable pointer (`pair::PairRef`), and the
//! second of the pair's two claims frees it — a spawn pays one pair
//! allocation and no reference counting. A vertex therefore has no drop
//! obligation towards its pair: it either claims it (signal, spawn, fork)
//! or hands the pointer on (`chain`, `touch`).
//!
//! ## Ownership, aliasing and lifetime discipline
//!
//! Vertices travel through the scheduler as raw pointers (`VertexPtr`).
//! The executing worker takes back ownership, holds the vertex
//! **exclusively** while its body runs (which is what lets
//! [`Scope::fork`](crate::Scope::fork) rotate the handles through plain
//! `&mut` fields), and retires it when the body (plus signal) completes.
//! This is safe because of the sp-dag structure the paper's analysis
//! leans on:
//!
//! * a vertex executes only after all vertices that reference it (as
//!   their `fin`, or through handles into its counter) have signalled;
//! * the only field of a vertex ever accessed through a shared reference
//!   from other threads is `counter` (by its scope's concurrent signals),
//!   and counters are `Sync`;
//! * handles a vertex hands out point into its *finish vertex's* counter,
//!   and a finish vertex executes — hence is retired — strictly after
//!   every vertex of its scope.

use std::mem::{ManuallyDrop, MaybeUninit};

use incounter::CounterFamily;
use sched::Word;

use crate::dag::Ctx;
use crate::pair::PairRef;

/// A vertex body: run exactly once with the executing worker's context.
pub type Body<C> = Box<dyn for<'a> FnOnce(Ctx<'a, C>) + Send + 'static>;

/// Capture-size ceiling (bytes) for bodies and strand state stored inline
/// in the vertex. PR 5 hard-coded 24 B here; the knob now lives in
/// [`sched::recycle`] next to the class ladder it really belongs to, and
/// is sized so a suspended strand frame with up to 40 B of saved state
/// (a couple of future handles plus loop indices) still inlines.
pub(crate) const INLINE_BODY_BYTES: usize = sched::recycle::INLINE_SLOT_BYTES;

/// Alignment ceiling for inline bodies (the buffer is 8-aligned).
pub(crate) const INLINE_BODY_ALIGN: usize = sched::recycle::INLINE_SLOT_ALIGN;

#[repr(align(8))]
struct InlineBuf([MaybeUninit<u8>; INLINE_BODY_BYTES]);

/// A closure stored by value in the vertex: the capture bytes plus
/// monomorphized call/drop thunks. Kept as a standalone struct (not enum
/// payload fields) so it can implement `Drop` — covering the
/// never-executed case — while still being movable out of `BodySlot`
/// whole.
pub(crate) struct InlineBody<C: CounterFamily> {
    buf: InlineBuf,
    call: for<'a> unsafe fn(*mut u8, Ctx<'a, C>),
    drop_fn: unsafe fn(*mut u8),
}

impl<C: CounterFamily> InlineBody<C> {
    fn new<F>(f: F) -> InlineBody<C>
    where
        F: for<'a> FnOnce(Ctx<'a, C>) + Send + 'static,
    {
        debug_assert!(std::mem::size_of::<F>() <= INLINE_BODY_BYTES);
        debug_assert!(std::mem::align_of::<F>() <= INLINE_BODY_ALIGN);
        let mut buf = InlineBuf([MaybeUninit::uninit(); INLINE_BODY_BYTES]);
        // SAFETY: size/align checked above; the buffer is exclusively ours.
        unsafe { (buf.0.as_mut_ptr() as *mut F).write(f) };
        InlineBody { buf, call: call_inline::<C, F>, drop_fn: drop_inline::<F> }
    }

    /// Run the closure, consuming it. The capture is read out of the
    /// buffer by value inside the monomorphized thunk; `ManuallyDrop`
    /// suppresses our `Drop` so the capture is consumed exactly once.
    pub(crate) fn invoke(self, ctx: Ctx<'_, C>) {
        let mut this = ManuallyDrop::new(self);
        let buf = this.buf.0.as_mut_ptr() as *mut u8;
        // SAFETY: the buffer holds a live F (written in `new`, not yet
        // taken); `call` is the matching monomorphized thunk.
        unsafe { (this.call)(buf, ctx) }
    }
}

impl<C: CounterFamily> Drop for InlineBody<C> {
    fn drop(&mut self) {
        // SAFETY: only reached when the closure was never invoked, so the
        // buffer still holds a live F for the matching drop thunk.
        unsafe { (self.drop_fn)(self.buf.0.as_mut_ptr() as *mut u8) }
    }
}

unsafe fn call_inline<C, F>(buf: *mut u8, ctx: Ctx<'_, C>)
where
    C: CounterFamily,
    F: for<'a> FnOnce(Ctx<'a, C>) + Send + 'static,
{
    // SAFETY: caller guarantees `buf` holds a live F; reading it by value
    // transfers ownership to this frame.
    let f = unsafe { (buf as *mut F).read() };
    f(ctx);
}

unsafe fn drop_inline<F>(buf: *mut u8) {
    // SAFETY: caller guarantees `buf` holds a live F.
    unsafe { std::ptr::drop_in_place(buf as *mut F) }
}

/// Result of one [`Strand`] resumption: the strand either ran to its end
/// (producing `T`; `()` for plain strands) or parked itself on the future
/// it last [`touch_await`](Ctx::touch_await)ed.
pub enum StrandPoll<T = ()> {
    /// The strand completed; the vertex signals its scope as usual.
    Done(T),
    /// The strand is waiting on a future. Its frame stays live inside the
    /// vertex; the worker returns to its deque immediately. A strand may
    /// return `Parked` **only** after a `touch_await` in the same
    /// resumption returned [`StrandTouch::Parked`](crate::StrandTouch)
    /// (the executor asserts this — an unregistered park could never be
    /// woken).
    Parked,
}

/// A resumable strand body: `resume` is invoked when the vertex is first
/// scheduled and once more after each suspension, until it returns
/// [`StrandPoll::Done`].
///
/// Unlike one-shot bodies (which receive `Ctx` by value and end the
/// vertex with a consuming operation like [`Ctx::spawn`]), a strand gets
/// `&mut Ctx` — it can [`fork`](Ctx::fork), create futures, and
/// [`touch_await`](Ctx::touch_await), but cannot consume the vertex. Any
/// `FnMut(&mut Ctx<C>) -> StrandPoll<T>` closure is a strand: each
/// resumption re-enters the closure from the top, with state carried in
/// the captures (completed awaits hit the ready fast path on re-entry,
/// so re-running the prefix is cheap).
pub trait Strand<C: CounterFamily, T = ()>: Send + 'static {
    /// Run until completion or the next suspension point.
    fn resume(&mut self, ctx: &mut Ctx<'_, C>) -> StrandPoll<T>;
}

impl<C, T, F> Strand<C, T> for F
where
    C: CounterFamily,
    F: for<'a, 'b> FnMut(&'a mut Ctx<'b, C>) -> StrandPoll<T> + Send + 'static,
{
    fn resume(&mut self, ctx: &mut Ctx<'_, C>) -> StrandPoll<T> {
        self(ctx)
    }
}

/// Storage tag: strand state held inline in the frame's buffer.
const FRAME_INLINE: u8 = 0;
/// Storage tag: the frame's buffer holds a pointer to the state.
const FRAME_SPILLED: u8 = 1;

/// A resumable strand frame: the generalization of the one-shot inline
/// body to a state machine that survives suspension. The frame owns the
/// strand's saved state — inline in the vertex (≤
/// [`sched::recycle::INLINE_SLOT_BYTES`]) or spilled onto the scheduler's
/// class ladder — plus monomorphized resume/drop thunks. Between
/// [`resume`](StrandFrame::resume) calls the frame sits in the vertex's
/// `BodySlot` (state `Ready` before first schedule, `Suspended` while
/// parked); the executor moves it out to run it (detaching the `&mut`
/// borrow from the vertex) and moves it back on
/// [`StrandPoll::Parked`].
///
/// Spilled state lives at a stable address — only the 8-byte pointer
/// travels with the frame — so large strand state is never memcpy'd by
/// the move-out/move-back dance. Inline state *is* moved between
/// resumptions, which is fine for ordinary Rust types; the async bridge,
/// whose compiled futures must never move once polled, pins its state
/// behind a box (see `async_bridge`).
pub(crate) struct StrandFrame<C: CounterFamily> {
    /// The state itself (inline) or the pointer to it (spilled).
    buf: InlineBuf,
    /// Storage tag (the frame is type-erased, so it cannot ask the state's
    /// layout): [`FRAME_INLINE`] or [`FRAME_SPILLED`]. A `u8`, not a
    /// `bool`: rustc would put `BodySlot`'s discriminant in a bool's niche,
    /// and decoding it on every `take` and drop cost `fib` 13 ns per vertex
    /// (`cores: 2`).
    storage: u8,
    resume_fn: for<'a, 'b> unsafe fn(*mut u8, &'a mut Ctx<'b, C>) -> StrandPoll,
    /// Ends the state: drop glue for inline state, drop glue plus the
    /// memory's return for spilled state.
    drop_fn: unsafe fn(*mut u8),
}

impl<C: CounterFamily> StrandFrame<C> {
    pub(crate) fn new<S: Strand<C>>(strand: S) -> StrandFrame<C> {
        let mut buf = InlineBuf([MaybeUninit::uninit(); INLINE_BODY_BYTES]);
        if std::mem::size_of::<S>() <= INLINE_BODY_BYTES
            && std::mem::align_of::<S>() <= INLINE_BODY_ALIGN
        {
            obs::counter!("spdag.strand_inline").inc();
            // SAFETY: size/align checked above; the buffer is ours.
            unsafe { (buf.0.as_mut_ptr() as *mut S).write(strand) };
            return StrandFrame {
                buf,
                storage: FRAME_INLINE,
                resume_fn: resume_strand::<C, S>,
                drop_fn: drop_inline::<S>,
            };
        }
        // Oversized state spills behind a pointer: carved from the class
        // ladder when it fits (recirculated across strands, so warm-run
        // suspension churn allocates nothing fresh), plain allocator
        // otherwise.
        obs::counter!("spdag.strand_spilled").inc();
        let (ptr, reused) = sched::recycle::alloc(|| strand);
        if reused {
            obs::counter!("sched.strand_reuse").inc();
        } else {
            obs::counter!("sched.strand_alloc").inc();
        }
        // SAFETY: the buffer is ≥ 8 bytes and 8-aligned; it now carries
        // the pointer instead of the state.
        unsafe { (buf.0.as_mut_ptr() as *mut *mut S).write(ptr) };
        StrandFrame {
            buf,
            storage: FRAME_SPILLED,
            resume_fn: resume_strand::<C, S>,
            drop_fn: free_spilled::<S>,
        }
    }

    fn state_ptr(&mut self) -> *mut u8 {
        if self.storage == FRAME_SPILLED {
            // SAFETY: spilled frames store the state pointer in the buffer.
            unsafe { (self.buf.0.as_ptr() as *const *mut u8).read() }
        } else {
            self.buf.0.as_mut_ptr() as *mut u8
        }
    }

    /// Run the strand until it completes or parks. The frame must be
    /// moved out of the vertex first (the ctx borrows the vertex).
    pub(crate) fn resume(&mut self, ctx: &mut Ctx<'_, C>) -> StrandPoll {
        let p = self.state_ptr();
        // SAFETY: `p` points at the live S the constructor wrote; the
        // thunk is the matching monomorphization.
        unsafe { (self.resume_fn)(p, ctx) }
    }
}

impl<C: CounterFamily> Drop for StrandFrame<C> {
    fn drop(&mut self) {
        let p = self.state_ptr();
        // SAFETY: the frame still owns a live S (resume takes &mut, never
        // consumes), and `drop_fn` is the thunk matching its storage.
        unsafe { (self.drop_fn)(p) };
    }
}

unsafe fn resume_strand<'a, 'b, C, S>(p: *mut u8, ctx: &'a mut Ctx<'b, C>) -> StrandPoll
where
    C: CounterFamily,
    S: Strand<C>,
{
    // SAFETY: caller guarantees `p` holds a live S; the &mut does not
    // outlive this call.
    unsafe { (*(p as *mut S)).resume(ctx) }
}

unsafe fn free_spilled<S>(p: *mut u8) {
    // SAFETY: caller guarantees `p` is the live S that `StrandFrame::new`
    // got from `sched::recycle::alloc`.
    if unsafe { sched::recycle::free(p as *mut S) } {
        obs::counter!("sched.strand_recycled").inc();
    } else {
        obs::counter!("sched.strand_dropped").inc();
    }
}

/// The vertex's body storage: empty, inline (captures ≤
/// `INLINE_BODY_BYTES`, no heap), the boxed fallback, or a resumable
/// strand frame.
pub(crate) enum BodySlot<C: CounterFamily> {
    None,
    Boxed(Body<C>),
    Inline(InlineBody<C>),
    Strand(StrandFrame<C>),
}

impl<C: CounterFamily> BodySlot<C> {
    /// Store `f` inline when it fits the size class, boxed otherwise.
    pub(crate) fn from_closure<F>(f: F) -> BodySlot<C>
    where
        F: for<'a> FnOnce(Ctx<'a, C>) + Send + 'static,
    {
        if std::mem::size_of::<F>() <= INLINE_BODY_BYTES
            && std::mem::align_of::<F>() <= INLINE_BODY_ALIGN
        {
            obs::counter!("spdag.body_inline").inc();
            BodySlot::Inline(InlineBody::new(f))
        } else {
            obs::counter!("spdag.body_boxed").inc();
            BodySlot::Boxed(Box::new(f))
        }
    }

    /// Store an already-boxed body (the `_boxed` public API paths).
    pub(crate) fn from_boxed(body: Body<C>) -> BodySlot<C> {
        obs::counter!("spdag.body_boxed").inc();
        BodySlot::Boxed(body)
    }

    /// Store a resumable strand frame.
    pub(crate) fn from_strand<S: Strand<C>>(strand: S) -> BodySlot<C> {
        BodySlot::Strand(StrandFrame::new(strand))
    }

    /// Move the body out (if any), leaving the slot empty. The result is
    /// detached from the vertex, so running it may mutably borrow the
    /// vertex that held it. Strand frames are moved back into the slot by
    /// the executor when the strand parks instead of completing.
    pub(crate) fn take(&mut self) -> Option<TakenBody<C>> {
        match std::mem::replace(self, BodySlot::None) {
            BodySlot::None => None,
            BodySlot::Boxed(body) => Some(TakenBody::Boxed(body)),
            BodySlot::Inline(body) => Some(TakenBody::Inline(body)),
            BodySlot::Strand(frame) => Some(TakenBody::Strand(frame)),
        }
    }
}

/// A body moved out of its vertex: one-shot bodies run exactly once;
/// strand frames run until they complete or park (and park puts the frame
/// back into the vertex).
pub(crate) enum TakenBody<C: CounterFamily> {
    Boxed(Body<C>),
    Inline(InlineBody<C>),
    Strand(StrandFrame<C>),
}

/// One vertex of the sp-dag.
pub struct Vertex<C: CounterFamily> {
    /// This vertex's own dependency counter (`None` until someone needs to
    /// wait on this vertex, i.e. for non-finish vertices).
    pub(crate) counter: Option<C::Counter>,
    /// Increment handle into `fin`'s counter (rotated by `Scope::fork`).
    pub(crate) inc: C::Inc,
    /// Ordered decrement pair into `fin`'s counter, shared with the
    /// sibling; claimed exactly once by this vertex or by the continuation
    /// it hands the pointer to. `PairRef::none` only for the final vertex.
    pub(crate) dec: PairRef<C::Dec>,
    /// The finish vertex this vertex signals; null only for the final
    /// vertex of the whole dag.
    pub(crate) fin: *const Vertex<C>,
    /// Left/right position under the parent (spreads in-counter traffic).
    pub(crate) is_left: bool,
    /// Set when the vertex terminates by spawning/chaining (no signal).
    pub(crate) dead: bool,
    /// Number of `Scope::fork`s performed by this vertex (also salts the
    /// placement key so consecutive forks hash to different leaves).
    pub(crate) forks: u64,
    /// Set by [`Ctx::touch_await`] when it arms this vertex on an unready
    /// future's out-set; still `true` when the vertex is rescheduled, so
    /// the executor's entry check is how a resumption is recognized (and
    /// the `StrandPoll::Parked`-without-registration bug is caught). Only
    /// ever read/written by the current executor — parking hands the
    /// vertex over through the in-counter's release/acquire edge.
    pub(crate) park_pending: bool,
    /// The code to run; taken by the executor.
    pub(crate) body: BodySlot<C>,
}

// SAFETY: the only field ever accessed across threads is `counter` (Sync
// by the CounterFamily bounds); every other field is touched solely by
// the single creator (before publication) or the single executor (which
// holds the vertex exclusively). Concurrent deliveries against a vertex
// whose executor is still unwinding (`futures::resolve_dependent` racing
// a park commit) reach the counter through a raw field projection, never
// a whole-`&Vertex` reference, so they assert nothing about the fields
// the executor is writing. The raw `fin` pointer is dereferenced only
// while the pointee is provably alive (see module docs).
unsafe impl<C: CounterFamily> Send for Vertex<C> {}
unsafe impl<C: CounterFamily> Sync for Vertex<C> {}

impl<C: CounterFamily> Vertex<C> {
    /// Allocate a vertex (the paper's `new_vertex`, with the counter made
    /// lazily: `n = 0` vertices carry no counter), preferring a recycled
    /// size-class slab. The caller owns the returned pointer and must
    /// eventually pass it to `Vertex::retire`.
    pub(crate) fn alloc(
        cfg: &C::Config,
        n: u64,
        inc: C::Inc,
        dec: PairRef<C::Dec>,
        fin: *const Vertex<C>,
        is_left: bool,
        body: BodySlot<C>,
    ) -> *mut Vertex<C> {
        let counter = if n > 0 { Some(C::make(cfg, n)) } else { None };
        Self::alloc_parts(counter, inc, dec, fin, is_left, body)
    }

    /// As `Vertex::alloc` with a pre-built counter (the dag's final
    /// vertex builds its root handles from the counter before the vertex
    /// exists).
    pub(crate) fn alloc_parts(
        counter: Option<C::Counter>,
        inc: C::Inc,
        dec: PairRef<C::Dec>,
        fin: *const Vertex<C>,
        is_left: bool,
        body: BodySlot<C>,
    ) -> *mut Vertex<C> {
        let (ptr, reused) = sched::recycle::alloc(|| Vertex {
            counter,
            inc,
            dec,
            fin,
            is_left,
            dead: false,
            forks: 0,
            park_pending: false,
            body,
        });
        if reused {
            obs::counter!("sched.vertex_reuse").inc();
        } else {
            obs::counter!("sched.vertex_alloc").inc();
        }
        ptr
    }

    /// Retire an executed (or otherwise finally-owned) vertex: run drop
    /// glue, then send the memory back to its size class.
    ///
    /// # Safety
    /// `ptr` must have come from `Vertex::alloc`/[`Vertex::alloc_parts`],
    /// be exclusively owned by the caller, and never be used afterwards.
    pub(crate) unsafe fn retire(ptr: *mut Vertex<C>) {
        // SAFETY: the caller's contract is `free`'s.
        if unsafe { sched::recycle::free(ptr) } {
            obs::counter!("sched.vertex_recycled").inc();
        } else {
            obs::counter!("sched.vertex_dropped").inc();
        }
    }

    /// The fork step shared by [`Scope::fork`](crate::Scope::fork) and the
    /// future constructors: perform one increment on this vertex's finish
    /// counter to make room for a new sibling, then *rotate* this vertex
    /// onto the fresh right-hand handles (it becomes the right child of
    /// its own fork). Returns the left child's increment handle and the
    /// shared decrement pair to build the sibling with.
    ///
    /// Encodes the ordering invariant the analysis leans on: the
    /// increment (grow + arrive, Figure 5) happens strictly **before**
    /// the inherited handle is claimed.
    pub(crate) fn fork_rotate(&mut self, cfg: &C::Config) -> (C::Inc, PairRef<C::Dec>) {
        // SAFETY: `fin` is alive — this vertex is an unfinished strand of
        // its scope (same argument as Ctx::spawn).
        let fin_ref = unsafe { &*self.fin };
        let fc = fin_ref.counter_ref();
        let vid = (self as *const Vertex<C> as u64).wrapping_add(self.forks);
        // One increment per fork, exactly as in Figure 5 ...
        // SAFETY: self.inc belongs to fc by construction.
        let (d2, i1, i2) = unsafe { C::increment(cfg, fc, self.inc, self.is_left, vid) };
        // ... then claim the inherited handle and build the shared pair.
        // SAFETY: this is the vertex's one claim on the pair it holds; it
        // moves onto the fresh pair below.
        let d1 = unsafe { self.dec.claim() };
        let pair = PairRef::new(C::make_pair(cfg, d1, d2));
        self.inc = i2;
        self.dec = pair;
        self.is_left = false;
        self.forks += 1;
        (i1, pair)
    }

    /// The counter of this vertex; panics if the vertex is not a finish
    /// vertex (an sp-dag structural bug, not a user error).
    pub(crate) fn counter_ref(&self) -> &C::Counter {
        self.counter.as_ref().expect("sp-dag invariant violated: finish vertex without a counter")
    }

    /// Non-destructive zero test on this vertex's own counter (the paper's
    /// `is_zero`); `true` for vertices that never had dependencies.
    pub fn is_zero(&self) -> bool {
        match &self.counter {
            Some(c) => C::is_zero(c),
            None => true,
        }
    }
}

/// A word-sized, sendable pointer to a scheduled vertex.
pub(crate) struct VertexPtr<C: CounterFamily>(pub(crate) *mut Vertex<C>);

// SAFETY: ownership of the pointee travels with the pointer; the dag
// discipline hands each vertex to exactly one executor.
unsafe impl<C: CounterFamily> Send for VertexPtr<C> {}

// SAFETY: round-trips through a machine word losslessly; ownership moves
// with the word exactly once (deque protocol).
unsafe impl<C: CounterFamily> Word for VertexPtr<C> {
    fn into_word(self) -> usize {
        self.0 as usize
    }
    unsafe fn from_word(w: usize) -> Self {
        VertexPtr(w as *mut Vertex<C>)
    }
}
