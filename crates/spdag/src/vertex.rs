//! Dag vertices (the paper's Figure 3 `vertex` struct).
//!
//! A vertex carries:
//!
//! * a pointer to the dependency counter of the finish scope it closes
//!   (the paper's `query` handle) — null at birth for every vertex, finish
//!   vertices included; the counter is made **at the scope's first
//!   increment** and **out of line** (below);
//! * an increment handle `inc` and a shared decrement pair `dec`, both
//!   aimed into the counter of the vertex's *finish vertex* `fin` — held
//!   only by a strand of a scope that has forked;
//! * `owed`, the in-degree of a dependent whose in-degree is fixed when it
//!   starts to wait (a `touch` continuation, a parked strand);
//! * the `is_left` bit (which of its parent's two children this vertex
//!   is), used by the in-counter to spread sibling traffic onto disjoint
//!   SNZI nodes (Figure 5, line 22);
//! * the `dead` flag, set when the vertex ends by handing its place on
//!   instead of signalling;
//! * the body frame, taken by the executing worker (and put back only by
//!   a strand that parks).
//!
//! ## An in-counter only where a scope forks
//!
//! The in-counter earns its O(1) contention on scopes of unbounded
//! in-degree. Most scopes of a future-heavy dag have in-degree one, and a
//! word with at most two writers has constant contention already. One
//! invariant carries both cases:
//!
//! > **A vertex whose `dec` is `PairRef::none()` is the only strand of its
//! > finish scope, and that scope's counter has never been stepped** (it
//! > does not exist yet: the finish vertex's pointer is null).
//!
//! A strand is a place in the scope, and **the handle a vertex holds covers
//! its serial remainder**: everything that still runs in the vertex. That
//! includes the children of its spawns, which run in it one after the
//! other (`crate::in_place`), so such a spawn adds no strand. Scopes open
//! with one strand — `run_dag`'s root, `chain`'s `first`, a future's body —
//! born with `dec = none`. `chain`, `touch`, the right child of a spawn
//! past the stack bound and a park replace a strand one for one and hand
//! `dec` on unchanged — except while a left child waits to run in the
//! vertex (its worker's latent list is non-empty, `crate::in_place`): then
//! a handoff splits the strand instead (`Vertex::hand_off`), because the
//! vertex stays a strand for that child. Only `Vertex::fork_rotate` adds a
//! strand — in the fork step (`fork_vertex`: forks, promoted left
//! children, an unwind guard's left child, the left child of a spawn past
//! the bound), a splitting handoff and a future — and it leaves every
//! strand it touches with a real pair. Three consequences:
//!
//! 1. **A sole strand's signal readies `fin` outright** — no claim, no
//!    decrement, no counter (`dag::execute_vertex`). The scope's counter is
//!    made, with count 1 for the sole strand itself, by that strand at the
//!    scope's *first* increment: exclusive by the invariant, and published
//!    to the new strands by the deque push that publishes them (a child
//!    that runs in place runs on the thread that made it). The fresh
//!    counter's `root_inc`/`root_dec` stand for the handles the sole strand
//!    never stored. This departs from the paper's Figure 3, where `chain`
//!    calls `new_vertex(1)` eagerly; making the counter at the first
//!    `increment` changes no bound — it only removes operations from
//!    scopes that never fork.
//! 2. **The single-holder pair is no object**: it is `PairRef::none()`.
//! 3. **A dependent of fixed in-degree counts on one word in its vertex**,
//!    `owed`: 1 for a `touch` continuation (one delivery), 2 for a parked
//!    strand (the fulfiller's delivery and the parking executor's release,
//!    in either order), 0 otherwise. `futures::resolve_dependent` is
//!    `owed.fetch_sub(1, AcqRel) == 1`: the delivery that lands second
//!    schedules the vertex, and the first one's release publishes its
//!    writes to it.
//!
//! ## One worker, no lock prefix
//!
//! A step on a scope's counter, a claim on a decrement pair, a delivery
//! to `owed`, and an add to or the seal and sweep of a future's out-set
//! are locked read-modify-writes because two workers may make them at
//! once. Each takes the step it commits with by value (`sched::step`), and
//! `solo_step` is where that step comes from: read once per vertex, in the
//! operation that ends it or forks from it, it is shared at W ≥ 2 and, in
//! a one-worker run, the `Exclusive` step — a load and a store — minted
//! there, this crate's one promise that no operation overlaps another.
//! (The sweep then also stores `FutureCore::completed` `Release`, not
//! `SeqCst`.) A spawn within the stack bound takes no step at all: its
//! children cannot overlap, so the vertex's held handle covers them as
//! part of its serial remainder, and the one signal of its epilogue ends
//! both; while the left child waits (the worker's latent list is
//! non-empty) a handoff splits the vertex rather than moving its handle.
//! Why nothing else can reach what the run's vertices step — the argument
//! behind that promise:
//!
//! * all of them — a scope's counter, the SNZI nodes its handles point
//!   into, a pair, a waiting vertex's `owed`, a future's out-set — are
//!   reached only through the run's vertices, and only the run's workers
//!   execute vertices: at W = 1, the caller of `run_dag`;
//! * the watchdog of a watched run reads the pool's progress count and
//!   deque lengths, nothing of a vertex's; a `run_dag` nested in a vertex
//!   builds vertices of its own, and its own `WorkerCtx` says whether
//!   *it* is solo;
//! * a [`FutureHandle`](crate::FutureHandle) is touched only within its own
//!   run (its documented contract), and a poll outside a strand registers
//!   nothing (`crate::async_bridge`), so every out-set token is a vertex,
//!   every add to a run's future and its sweep are made by that run's
//!   workers, and so is every registration, bounce and sweep delivery
//!   against a run's vertex.
//!
//! The run's own references to a future's core count the same way: the
//! sweep's, a waiting vertex's and the inputs a derived future captures
//! step a count of their own in the core by load and store when the
//! run's worker minted them on a core the run bore, and hold one unit of
//! the shared `PoolArc` count between them (`futures::CoreRef`). What
//! stays shared is the handle word: user `FutureHandle` clones and drops
//! step the shared count at every W.
//!
//! What a thread outside the run can reach stays shared at every W: any
//! thread holding a handle reaches the `PoolArc` refcount, and the last
//! holder drops the core. It may also read `FutureCore::completed`
//! (`is_done`, `try_get`) or probe the out-set (`is_finished`, the
//! footprint walks), and those are loads: a reader needs the release half
//! of the step it observes — the value write before `completed`, the
//! initialised block behind a head — and the exclusive stores are
//! `Release`. A run of two or more workers executes the shared
//! instructions plus one predictable branch.
//!
//! ## Allocation and recycling
//!
//! Vertices are the runtime's highest-churn allocation: every
//! `chain`/`future`/`touch` makes at least one, and each lives exactly
//! from creation to its single execution. A `spawn` makes one only for a
//! child a thief could use — a waiting left child, promoted when its
//! worker's deque is empty, with two or more workers — and otherwise none:
//! its children run in its parent's vertex, under that vertex's own
//! handles (`crate::in_place`; both become vertices past a fixed stack
//! bound). They are carved from the scheduler's size-class slab pools
//! instead of `Box`:
//! `Vertex::slab` takes a slab of the class its layout fits
//! ([`sched::recycle::alloc_uninit`]), `VertexSlab::emplace` builds the
//! vertex in it (below), and `Vertex::retire` runs drop glue
//! and sends the slab back there ([`sched::recycle::free`]) — the class is
//! a function of `Vertex<C>`'s layout, so the vertex records nothing about
//! its birth — and warm-run spawn churn recirculates a small working set of
//! slabs through the executing worker's private cache, touching neither
//! the allocator nor any word another worker writes. The body is one
//! type-erased `Frame`: state of up to
//! [`sched::recycle::INLINE_SLOT_BYTES`] (a closure's capture, a strand's
//! saved state) is stored *inside* the vertex, larger state in a slab of
//! the same ladder.
//!
//! **The vertex fits the 128 B class** — at most 128 B for every counter
//! family, with `telemetry` and without (a unit test here holds it; the
//! dynamic family's is 120 B) — because the scope's counter is not in it. An
//! `Option<SnziTree>` in the vertex was 64 B that every vertex carried and,
//! by the invariant above, all but one vertex of a future-heavy run left
//! `None`: it put the vertex at 176 B, in the 256 B class, three cache
//! lines touched per vertex. The field is one pointer instead.
//! `Vertex::open_counter` — still the one `C::make` call site, still run
//! once per scope by the scope's sole strand — builds the counter in a slab
//! of the counter's own class ([`sched::recycle::alloc`]) and stores the
//! pointer; the vertex's `Drop`, which `Vertex::retire` runs, ends it. A
//! forking scope pays one small slab; every other vertex is two lines, and
//! a future link keeps 384 B of slabs live instead of 640 B.
//!
//! The third object of
//! a spawn, the shared `DecPair`, is a slab of the same ladder that owns
//! itself: `dec` is a plain copyable pointer (`pair::PairRef`), and the
//! second of the pair's two claims frees it — an increment pays one pair
//! allocation and no reference counting. A vertex therefore has no drop
//! obligation towards its pair: it either claims it (signal, spawn, fork)
//! or hands the pointer on (`chain`, `touch`).
//!
//! ## Built where it lives
//!
//! Every vertex, body, pair and future core is written field by field into
//! its slab, and the slab is taken *before* anything that goes into it is
//! made. There is one emplacing constructor, `VertexSlab::emplace` (and
//! `emplace_sole` for a scope's only strand), reached as
//! `Vertex::slab().emplace(inc, dec, fin, is_left, body)`: Rust evaluates
//! the receiver first, so the slab is in hand when the arguments — the
//! body above all — are built. The body is a `Body`: `Once(closure)`,
//! `Resumable(strand)` or `NoBody`, which writes its state straight into
//! the frame's buffer (or into the slab it spills to) next to its two
//! thunks; then every other field is written through a raw projection.
//! `spawn`, `chain`, `fork`/`fork_strand`, `touch`, `run_dag`'s root and
//! final vertex and a future's body and completion vertices all go through
//! it; a future's core is written into its slab by
//! `sched::PoolArc::new_held_in_place`, its out-set by an inlined
//! `O::make`.
//!
//! The rule behind it is **store forwarding**. A load that reads back
//! bytes written by several narrower stores still in flight — a 16-byte
//! `movups` over two fresh 8-byte stores — cannot take its data from them
//! and waits until they retire. A value built before its slab exists
//! lives on the stack across the acquire (the compiler must be able to
//! drop it if the acquire unwinds) and is then copied in by exactly such
//! loads: `Ctx::spawn` lost 7 % of `fib`'s samples to two of them when a
//! `Frame` value was built and moved into `Vertex::alloc`, and inlining the
//! recycler alone moved the copy closer to its stores and made it worse. A
//! new vertex kind must keep the order — slab, then body, then fields.
//! Two objects keep a copy on purpose: a spilled state (over
//! [`sched::recycle::INLINE_SLOT_BYTES`]) is made before its spill slab,
//! and a counter comes out of `C::make` (once per forking scope).
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
//! * two fields of a vertex are reached from other threads while it
//!   waits: `counter`, the pointer written once by its scope's sole strand
//!   and then read — and followed — by that scope's signals (counters are
//!   `Sync`), and `owed`, an atomic (see the `Sync` impl);
//! * handles a vertex hands out point into its *finish vertex's* counter,
//!   and a finish vertex executes — hence is retired — strictly after
//!   every vertex of its scope.

use std::cell::UnsafeCell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ptr::addr_of_mut;
use std::sync::atomic::AtomicU32;

use incounter::{CounterFamily, DecPair};
use sched::recycle::{INLINE_SLOT_ALIGN, INLINE_SLOT_BYTES};
use sched::step::Exclusive;
use sched::{Word, WorkerCtx};

use crate::dag::Ctx;
use crate::pair::PairRef;

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

/// The frame's in-vertex storage: a state of at most
/// [`INLINE_SLOT_BYTES`]/[`INLINE_SLOT_ALIGN`] itself, else the pointer to
/// it.
#[repr(align(8))]
struct FrameBuf([MaybeUninit<u8>; INLINE_SLOT_BYTES]);

/// The one storage rule, a compile-time function of the state's layout:
/// whether an `S` lives in the frame's buffer or behind a pointer kept
/// there.
const fn fits_inline<S>() -> bool {
    std::mem::size_of::<S>() <= INLINE_SLOT_BYTES && std::mem::align_of::<S>() <= INLINE_SLOT_ALIGN
}

impl FrameBuf {
    /// Where this buffer's `S` lives.
    ///
    /// # Safety
    /// The buffer must have been filled by `Frame::emplace::<S>`.
    unsafe fn state<S>(&mut self) -> *mut S {
        if const { fits_inline::<S>() } {
            self.0.as_mut_ptr() as *mut S
        } else {
            // SAFETY: `emplace` wrote the spilled state's pointer here.
            unsafe { (self.0.as_ptr() as *const *mut S).read() }
        }
    }
}

/// A frame's run thunk: runs a live state — a strand until it completes or
/// parks; a closure once, leaving the frame empty. `Ctx` comes by value, as
/// a closure takes it, so the closure's thunk forwards the executor's
/// context untouched. (Handed `&mut Ctx` it has to rebuild one, and that
/// copy's 16-byte reload of two fresh 8-byte stores stalls `fib` by 8 ns a
/// vertex — measured, `cores: 2`.)
type RunFn<C> = for<'a> unsafe fn(&'a mut Frame<C>, Ctx<'a, C>) -> StrandPoll;

/// A frame's drop thunk: ends a live state that will not run (again) — drop
/// glue, plus the memory's return for spilled state.
type DropFn = unsafe fn(&mut FrameBuf);

/// A vertex body: one type-erased state — a one-shot closure's capture or
/// a [`Strand`]'s saved state — plus the two monomorphized thunks that run
/// and end it. The state is stored in the vertex when it fits
/// ([`fits_inline`]) and otherwise spilled onto the scheduler's class
/// ladder ([`sched::recycle::alloc_uninit`]), closures and strands alike.
/// A frame is only ever made in place, by a [`Body`] in the vertex being
/// built.
///
/// The executor [`take`](Frame::take)s the frame out of its vertex to
/// [`run`](Frame::run) it (the `Ctx` borrows the vertex) and moves it back
/// when a strand parks. Spilled state lives at a stable address — only the
/// 8-byte pointer travels with the frame. Inline state *is* moved between
/// resumptions, which is fine for ordinary Rust types; the async bridge,
/// whose compiled futures must never move once polled, pins its state
/// behind a box (see `async_bridge`).
pub(crate) struct Frame<C: CounterFamily> {
    buf: FrameBuf,
    /// The thunks of a live state. `None` is the empty frame — no body was
    /// given, or it was taken to run — so "no body" costs a null test and
    /// the vertex holds a plain `Frame`: with an enum around the body,
    /// decoding its discriminant on every take and drop cost `fib` 13 ns
    /// per vertex (measured, `cores: 2`).
    thunks: Option<(RunFn<C>, DropFn)>,
}

impl<C: CounterFamily> Frame<C> {
    /// Write `state` into the frame at `dst` by the one storage rule — into
    /// the buffer, or into a slab of its own whose pointer goes into the
    /// buffer — next to its two thunks. Returns, for spilled state, whether
    /// its slab was reused.
    ///
    /// # Safety
    /// `dst` must be valid for writes and hold no live frame.
    #[inline(always)]
    unsafe fn emplace<S>(
        dst: *mut Frame<C>,
        state: S,
        run_fn: RunFn<C>,
        drop_fn: DropFn,
    ) -> Option<bool> {
        // SAFETY: the caller's contract; the buffer is `INLINE_SLOT_BYTES`
        // long and 8-aligned, which holds an inline `S` or a pointer.
        unsafe {
            let buf = addr_of_mut!((*dst).buf) as *mut u8;
            let spilled = if const { fits_inline::<S>() } {
                (buf as *mut S).write(state);
                None
            } else {
                let (ptr, reused) = sched::recycle::alloc_uninit::<S>();
                ptr.write(state);
                (buf as *mut *mut S).write(ptr);
                Some(reused)
            };
            addr_of_mut!((*dst).thunks).write(Some((run_fn, drop_fn)));
            spilled
        }
    }

    /// Move the frame out, leaving this one empty. The result is detached
    /// from the vertex that held it, so running it may mutably borrow that
    /// vertex.
    pub(crate) fn take(&mut self) -> Frame<C> {
        // SAFETY: a bitwise move; emptying this frame leaves the state with
        // exactly one owner, the returned frame.
        let taken = unsafe { std::ptr::read(self) };
        self.thunks = None;
        taken
    }

    /// Run the body: a closure to its end, a strand until it completes or
    /// parks; an empty frame is `Done` at once. The frame must be out of
    /// its vertex (`ctx` borrows the vertex).
    pub(crate) fn run(&mut self, ctx: Ctx<'_, C>) -> StrandPoll {
        match self.thunks {
            None => StrandPoll::Done(()),
            // SAFETY: the frame is live, so the buffer holds the state
            // `emplace` put there together with this thunk.
            Some((run_fn, _)) => unsafe { run_fn(self, ctx) },
        }
    }
}

impl<C: CounterFamily> Drop for Frame<C> {
    fn drop(&mut self) {
        if let Some((_, drop_fn)) = self.thunks {
            // SAFETY: a live frame still owns its state (a strand's `run`
            // takes `&mut`; a closure's `run` empties the frame first), and
            // `drop_fn` is the thunk `emplace` paired with it.
            unsafe { drop_fn(&mut self.buf) };
        }
    }
}

/// A vertex body as the emplacing constructor ([`VertexSlab::emplace`])
/// takes it: a state and the kind that says which thunks run and end it.
/// The constructor writes it into the vertex's frame.
pub(crate) trait Body<C: CounterFamily> {
    /// Write this body into the frame at `dst`, counting where its state
    /// went.
    ///
    /// # Safety
    /// `dst` must be valid for writes and hold no live frame.
    unsafe fn emplace(self, dst: *mut Frame<C>);
}

/// A one-shot closure: what `spawn`, `chain`, `fork`, `touch` and the
/// future constructors run.
pub(crate) struct Once<F>(pub(crate) F);

impl<C, F> Body<C> for Once<F>
where
    C: CounterFamily,
    F: for<'a> FnOnce(Ctx<'a, C>) + Send + 'static,
{
    #[inline(always)]
    unsafe fn emplace(self, dst: *mut Frame<C>) {
        // SAFETY: the caller's contract; the thunks are `F`'s.
        match unsafe { Frame::emplace(dst, self.0, run_once::<C, F>, drop_state::<F, false>) } {
            None => obs::counter!("spdag.body_inline").inc(),
            Some(_) => obs::counter!("spdag.body_boxed").inc(),
        }
    }
}

/// A resumable [`Strand`]: what `fork_strand` and `future_strand` run.
pub(crate) struct Resumable<S>(pub(crate) S);

impl<C: CounterFamily, S: Strand<C>> Body<C> for Resumable<S> {
    #[inline(always)]
    unsafe fn emplace(self, dst: *mut Frame<C>) {
        // SAFETY: the caller's contract; the thunks are `S`'s.
        match unsafe { Frame::emplace(dst, self.0, run_strand::<C, S>, drop_state::<S, true>) } {
            None => obs::counter!("spdag.strand_inline").inc(),
            Some(reused) => {
                obs::counter!("spdag.strand_spilled").inc();
                if reused {
                    obs::counter!("sched.strand_reuse").inc();
                } else {
                    obs::counter!("sched.strand_alloc").inc();
                }
            }
        }
    }
}

/// No body: the dag's final vertex runs nothing.
pub(crate) struct NoBody;

impl<C: CounterFamily> Body<C> for NoBody {
    #[inline(always)]
    unsafe fn emplace(self, dst: *mut Frame<C>) {
        // SAFETY: the caller's contract. The empty frame is its `None`
        // thunks; the buffer stays uninitialized.
        unsafe { addr_of_mut!((*dst).thunks).write(None) };
    }
}

/// # Safety
/// `frame` must be live and hold an `F` written by [`Once`].
unsafe fn run_once<C, F>(frame: &mut Frame<C>, ctx: Ctx<'_, C>) -> StrandPoll
where
    C: CounterFamily,
    F: for<'a> FnOnce(Ctx<'a, C>) + Send + 'static,
{
    // SAFETY: the caller's contract; reading the capture by value moves
    // ownership here, and emptying the frame makes that the only owner
    // *before* the call — a panicking body drops its capture once, by unwinding.
    let f = unsafe {
        let p = frame.buf.state::<F>();
        let f = p.read();
        if const { !fits_inline::<F>() } {
            // The slab goes back without drop glue: its `F` has moved out.
            sched::recycle::free(p as *mut ManuallyDrop<F>);
        }
        f
    };
    frame.thunks = None;
    f(ctx);
    StrandPoll::Done(())
}

/// # Safety
/// `frame` must be live and hold an `S` written by [`Resumable`].
unsafe fn run_strand<C, S>(frame: &mut Frame<C>, mut ctx: Ctx<'_, C>) -> StrandPoll
where
    C: CounterFamily,
    S: Strand<C>,
{
    // Only here is there a frame to come back to: a strand may park.
    ctx.resumable = true;
    // SAFETY: the caller's contract; the `&mut S` does not outlive this
    // call.
    unsafe { (*frame.buf.state::<S>()).resume(&mut ctx) }
}

/// The drop thunk of both kinds; a spilled strand's end is counted
/// (`STRAND`), a spilled closure's is not — which slab a capture got is no
/// property of the schedule, and the benchmark's traced runs require every
/// counter to repeat.
///
/// # Safety
/// `buf` must hold a live `S` written by [`Frame::emplace`].
unsafe fn drop_state<S, const STRAND: bool>(buf: &mut FrameBuf) {
    // SAFETY: the caller's contract.
    unsafe {
        let p = buf.state::<S>();
        if const { fits_inline::<S>() } {
            std::ptr::drop_in_place(p);
        } else {
            let recycled = sched::recycle::free(p);
            if STRAND && recycled {
                obs::counter!("sched.strand_recycled").inc();
            } else if STRAND {
                obs::counter!("sched.strand_dropped").inc();
            }
        }
    }
}

/// One vertex of the sp-dag.
///
/// `repr(C)`, the body first and the counter last: the frame moves into
/// the slab as four aligned 16-byte copies. In the order rustc picks, the
/// counter sits right before the body and the padding bytes behind its
/// `None` tag are folded into that copy, which then reloads the frame
/// three bytes off the stores that just wrote it — a store-forwarding
/// stall per vertex, 8 ns on `spdag.spawn_ns_per_vertex` (measured,
/// `cores: 2`).
#[repr(C)]
pub struct Vertex<C: CounterFamily> {
    /// The code to run; taken by the executor, empty for the dag's final
    /// vertex and after a body that panicked while parked.
    pub(crate) body: Frame<C>,
    /// Increment handle into `fin`'s counter (rotated by `Scope::fork`).
    /// Initialized exactly when `dec` is a real pair.
    pub(crate) inc: MaybeUninit<C::Inc>,
    /// Ordered decrement pair into `fin`'s counter, shared with the
    /// sibling; claimed exactly once by this vertex or by the continuation
    /// it hands the pointer to. `PairRef::none` for the only strand of a
    /// scope (module docs) and for the final vertex.
    pub(crate) dec: PairRef<C::Dec>,
    /// The finish vertex this vertex signals; null only for the final
    /// vertex of the whole dag.
    pub(crate) fin: *const Vertex<C>,
    /// Number of increments made from this vertex — the forks, futures,
    /// splitting handoffs and promoted left children of its body and of
    /// every child that ran in it (`crate::in_place`). Salts the placement key
    /// ([`key`](Vertex::key)), so that successive increments from one
    /// vertex hash to different leaves.
    pub(crate) increments: u64,
    /// Deliveries still owed to this vertex before it may be scheduled: 1
    /// on a `touch` continuation, 2 while a strand parks, 0 otherwise
    /// (module docs, consequence 3).
    pub(crate) owed: AtomicU32,
    /// Left/right position under the parent (spreads in-counter traffic).
    pub(crate) is_left: bool,
    /// Set when the vertex ends by handing its place on (a spawn past the
    /// stack bound, a chain, a touch) instead of signalling; never while a
    /// left child waits to run in it (`hand_off`) — a promoted one runs in a
    /// vertex of its own.
    pub(crate) dead: bool,
    /// The body is the runtime's own, not a user's: a future's
    /// seal-and-sweep, the final vertex's nothing. Keeps the
    /// `spdag.panic_vertex` failpoint, which stands in for a *user* body
    /// that panics, off them.
    pub(crate) runtime_body: bool,
    /// Set by [`Ctx::touch_await`] when it arms this vertex on an unready
    /// future's out-set; still `true` when the vertex is rescheduled, so
    /// the executor's entry check is how a resumption is recognized (and
    /// the `StrandPoll::Parked`-without-registration bug is caught). Only
    /// ever read/written by the current executor — parking hands the
    /// vertex over through `owed`'s release/acquire edge.
    pub(crate) park_pending: bool,
    /// The counter of the finish scope this vertex closes, out of line:
    /// null until that scope's first increment, which its sole strand
    /// performs (`Vertex::fork_rotate`) — so null for good on a vertex that
    /// closes no scope, or one whose only strand never forked, which is all
    /// but one vertex of a future-heavy run. Born by
    /// [`sched::recycle::alloc`] in `Vertex::open_counter`, ended with the
    /// vertex (`Drop`). One word here instead of the counter itself is
    /// what keeps the vertex inside the 128 B class (module docs). In a
    /// cell because that strand writes it through its `fin` pointer.
    counter: UnsafeCell<*mut C::Counter>,
}

impl<C: CounterFamily> Drop for Vertex<C> {
    fn drop(&mut self) {
        let counter = *self.counter.get_mut();
        if !counter.is_null() {
            // SAFETY: born by `recycle::alloc` in `open_counter`, owned by
            // this vertex alone, and every strand that held a handle into
            // it has signalled — that is what made this vertex run.
            unsafe { sched::recycle::free(counter) };
        }
    }
}

// SAFETY: two fields are reached from other threads while the vertex
// waits, and each has its own argument.
//
// * `counter` is written once — the counter built, then its pointer
//   stored — by the only strand of the scope this vertex closes, at that
//   scope's first increment (`Vertex::fork_rotate`).
//   By the invariant in the module docs nobody else can be reading it
//   then: every reader is a strand of the scope that holds a real pair,
//   and such strands exist only from that increment on — they (or the
//   strands they descend from) were published by a deque push the writer
//   made after the write, which orders both writes before their reads.
//   From then until this vertex runs the field is only read, and counters
//   are `Sync` by the `CounterFamily` bounds. The counter is this vertex's
//   alone (`Drop` frees it), so sending the vertex sends it too, and
//   counters are `Send` by the same bounds.
// * `owed` is an atomic. Deliveries against a vertex whose executor is
//   still unwinding (`futures::resolve_dependent` racing a park commit)
//   reach it through a raw field projection, never a whole-`&Vertex`
//   reference, so they assert nothing about the fields the executor is
//   writing. (In a one-worker run the two deliveries are a load and a
//   store each, made on the run's one thread — module docs, "One worker,
//   no lock prefix".)
//
// Every other field is touched solely by the single creator (before
// publication) or the single executor (which holds the vertex
// exclusively). The raw `fin` pointer is dereferenced only while the
// pointee is provably alive (see module docs).
unsafe impl<C: CounterFamily> Send for Vertex<C> {}
// SAFETY: as for `Send`.
unsafe impl<C: CounterFamily> Sync for Vertex<C> {}

impl<C: CounterFamily> Vertex<C> {
    /// Take the slab a vertex will be built in — one of the vertex's class,
    /// preferring a recycled one — before anything that goes into the
    /// vertex exists: `Vertex::slab().emplace(.., Once(body))` evaluates
    /// the body after the slab (module docs, "Built where it lives").
    #[inline(always)]
    pub(crate) fn slab() -> VertexSlab<C> {
        let (v, reused) = sched::recycle::alloc_uninit::<Vertex<C>>();
        VertexSlab { v, reused }
    }

    /// Retire an executed (or otherwise finally-owned) vertex: run drop
    /// glue, then send the memory back to its size class.
    ///
    /// # Safety
    /// `ptr` must have come from [`VertexSlab::emplace`], be exclusively
    /// owned by the caller, and never be used afterwards.
    pub(crate) unsafe fn retire(ptr: *mut Vertex<C>) {
        // SAFETY: the caller's contract is `free`'s.
        if unsafe { sched::recycle::free(ptr) } {
            obs::counter!("sched.vertex_recycled").inc();
        } else {
            obs::counter!("sched.vertex_dropped").inc();
        }
    }

    /// Make the counter of the scope `fin` closes, with count 1: the
    /// calling strand itself.
    ///
    /// # Safety
    /// The caller must be the only strand of `fin`'s scope (it holds
    /// `PairRef::none`), and `fin` must be alive. The returned reference
    /// is good until `fin` runs.
    unsafe fn open_counter<'f>(fin: *const Vertex<C>, cfg: &C::Config) -> &'f C::Counter {
        // SAFETY: a raw projection to the cell — no reference to the
        // vertex exists or is made. Nobody else reads or writes the field
        // now: the caller is the scope's only strand, and the vertex
        // itself waits for that scope (see the `Sync` impl).
        unsafe {
            let slot = UnsafeCell::raw_get(std::ptr::addr_of!((*fin).counter));
            debug_assert!(
                (*slot).is_null(),
                "sp-dag invariant violated: a sole strand's scope already has a counter"
            );
            // In a slab of the counter's own class; `fin`'s drop frees it.
            *slot = sched::recycle::alloc(|| C::make(cfg, 1)).0;
            &**slot
        }
    }

    /// One increment on this vertex's finish scope, making room for one more
    /// strand (Figure 5's `increment` plus the pair it feeds), then this
    /// vertex *rotated* onto the fresh right-hand handles: it becomes the
    /// right child of its own fork. Returns the left child's increment
    /// handle and the decrement pair the two share. The one place a scope's
    /// counter is made and stepped: the fork step ([`fork_vertex`]), a
    /// splitting [`hand_off`](Vertex::hand_off) and a future.
    ///
    /// Encodes the ordering invariant the analysis leans on: the
    /// increment (grow + arrive, Figure 5) happens strictly **before**
    /// the inherited handle is claimed.
    ///
    /// `solo` is the executing worker's [`solo_step`]: in a one-worker run
    /// the increment and the claim commit by load and store (module docs,
    /// "One worker, no lock prefix").
    ///
    /// Inlined: out of line, the left handle comes back through the stack,
    /// and the 16-byte load that copies it into the new vertex's slab stalls
    /// on the callee's 8-byte stores (`future_slot`'s hottest instruction on
    /// `await_chain` and `pipeline_stages` at W = 1, `cores: 2`).
    #[inline(always)]
    pub(crate) fn fork_rotate(
        &mut self,
        cfg: &C::Config,
        solo: Option<Exclusive<'_>>,
    ) -> (C::Inc, PairRef<C::Dec>) {
        let vid = self.key();
        let sole = self.dec.is_none();
        // SAFETY: `fin` is alive — this vertex is an unfinished strand of
        // `fin`'s scope, so that scope cannot have completed.
        let fc = unsafe {
            if sole {
                Self::open_counter(self.fin, cfg)
            } else {
                (*self.fin).counter_ref()
            }
        };
        // The fresh counter's root handles stand for the ones a sole
        // strand never stored.
        let inc = if sole {
            C::root_inc(fc)
        } else {
            // SAFETY: a real pair comes with an initialized `inc`
            // (`VertexSlab::emplace`'s contract).
            unsafe { self.inc.assume_init() }
        };
        // One increment, exactly as in Figure 5 ...
        // SAFETY: `inc` points into `fc` by construction; validity is the
        // sp-dag discipline itself.
        let (d2, i1, i2) = unsafe {
            match solo {
                Some(x) => C::increment_with(cfg, fc, inc, self.is_left, vid, x),
                None => C::increment(cfg, fc, inc, self.is_left, vid),
            }
        };
        // ... and only then claim the inherited handle (the first handle
        // of the new pair is the higher one).
        let d1 = if sole {
            C::root_dec(fc)
        } else {
            // SAFETY: this vertex's one claim on the pair it holds; it moves
            // onto the fresh pair right below.
            unsafe { self.dec.claim(solo) }
        };
        // Inherited first, so higher nodes are decremented earlier
        // (Lemma 4.6).
        let pair = PairRef::new(DecPair::new(d1, d2));
        self.inc = MaybeUninit::new(i2);
        self.dec = pair;
        self.is_left = false;
        self.increments += 1;
        (i1, pair)
    }

    /// Hand this vertex's place in its scope to the vertex about to be built
    /// in its stead — a `chain`'s continuation, a `touch`'s waiting vertex,
    /// the right child of a spawn past the stack bound — and return the
    /// handles and side to build it with. Normally the new vertex takes them
    /// all and this one ends (`dead`). While a spawn's left child still
    /// waits to run here — `worker`'s latent list is non-empty, and every
    /// guard in it is this running vertex's (`crate::in_place`) — this
    /// vertex must stay a strand for it: it splits instead, by one increment
    /// ([`fork_rotate`](Vertex::fork_rotate)), and the new vertex takes the
    /// fresh left handle.
    #[inline(always)]
    pub(crate) fn hand_off(
        &mut self,
        cfg: &C::Config,
        worker: &WorkerCtx<'_, VertexPtr<C>>,
    ) -> (MaybeUninit<C::Inc>, PairRef<C::Dec>, bool) {
        if worker.latent().get().is_null() {
            self.dead = true;
            (self.inc, self.dec, self.is_left)
        } else {
            let (inc, pair) = self.fork_rotate(cfg, solo_step(worker));
            (MaybeUninit::new(inc), pair, true)
        }
    }

    /// The placement key of the next increment made from this vertex, for
    /// hashed families: its address — unique among live vertices and free
    /// to compute — salted with the increments made from it before. The
    /// caller counts the increment it makes in `increments`, so forks of
    /// one body, and the increments of children that run in this vertex
    /// one after another, land on different leaves.
    #[inline(always)]
    pub(crate) fn key(&self) -> u64 {
        (self as *const Vertex<C> as u64).wrapping_add(self.increments)
    }

    /// The counter of the scope this vertex closes; panics if that scope
    /// never made one (an sp-dag structural bug, not a user error).
    ///
    /// # Safety
    /// The caller must be a strand of that scope holding a real pair — so
    /// ordered after the counter's one write (see the `Sync` impl).
    pub(crate) unsafe fn counter_ref(&self) -> &C::Counter {
        // SAFETY: the field is not written again before this vertex runs,
        // which is after every strand of its scope.
        unsafe { (*self.counter.get()).as_ref() }
            .expect("sp-dag invariant violated: a strand holds a pair but its scope has no counter")
    }

    /// Whether the scope this vertex closes has made its counter. For the
    /// invariant's debug checks.
    ///
    /// # Safety
    /// As [`counter_ref`](Vertex::counter_ref), or the caller is the
    /// scope's only strand.
    pub(crate) unsafe fn has_counter(&self) -> bool {
        // SAFETY: the caller's contract.
        unsafe { !(*self.counter.get()).is_null() }
    }
}

/// The fork step: one increment on `u`'s finish scope, `u` rotated onto
/// the fresh right-hand handles ([`Vertex::fork_rotate`]), and `body` built
/// into a vertex of its own on the left-hand ones and pushed, ready at
/// once. What [`Ctx::fork`] does, and the one way a spawned child becomes a
/// vertex: a promoted left child, the left child of a right child that
/// unwound (`crate::in_place`), and the left child of a spawn past the
/// stack bound.
#[inline(always)]
pub(crate) fn fork_vertex<C: CounterFamily>(
    u: &mut Vertex<C>,
    worker: &WorkerCtx<'_, VertexPtr<C>>,
    cfg: &C::Config,
    body: impl Body<C>,
) {
    let fin = u.fin;
    let (inc, pair) = u.fork_rotate(cfg, solo_step(worker));
    let v = Vertex::slab().emplace(MaybeUninit::new(inc), pair, fin, true, body);
    worker.push(VertexPtr(v));
}

/// The step a vertex of `worker`'s run commits on the run's objects:
/// `Some` — by load and store — when the run has one worker, `None` —
/// shared — otherwise. This crate's one [`Exclusive`] mint (module docs,
/// "One worker, no lock prefix").
#[inline(always)]
pub(crate) fn solo_step<'w, C: CounterFamily>(
    worker: &'w WorkerCtx<'_, VertexPtr<C>>,
) -> Option<Exclusive<'w>> {
    // SAFETY: the run has one worker, this thread, and the token can
    // neither leave it (`Exclusive` is not `Send`) nor outlive the borrow
    // of its context. This crate commits it only on what the run's
    // vertices reach — their scopes' counters and the SNZI nodes behind
    // them, their decrement pairs, waiting vertices' `owed` words, the
    // out-sets of the run's futures — which only the run's one thread
    // steps, one operation after another (module docs).
    worker.is_solo().then(|| unsafe { Exclusive::new() })
}

/// The slab of a vertex not yet built ([`Vertex::slab`]). Dropping it
/// unused leaks the slab.
pub(crate) struct VertexSlab<C: CounterFamily> {
    v: *mut Vertex<C>,
    reused: bool,
}

impl<C: CounterFamily> VertexSlab<C> {
    /// The emplacing constructor (the paper's `new_vertex`, minus the
    /// counter: see the module docs): write every field of the vertex into
    /// this slab, the body's state straight into the frame. `inc` must be
    /// initialized when `dec` is a real pair. The caller owns the returned
    /// pointer and must eventually pass it to `Vertex::retire`.
    #[inline(always)]
    pub(crate) fn emplace(
        self,
        inc: MaybeUninit<C::Inc>,
        dec: PairRef<C::Dec>,
        fin: *const Vertex<C>,
        is_left: bool,
        body: impl Body<C>,
    ) -> *mut Vertex<C> {
        let v = self.v;
        // SAFETY: a slab of `Vertex<C>`'s size and alignment, exclusively
        // ours; each field is written once, through a raw projection, before
        // the pointer leaves this function.
        unsafe {
            body.emplace(addr_of_mut!((*v).body));
            addr_of_mut!((*v).inc).write(inc);
            addr_of_mut!((*v).dec).write(dec);
            addr_of_mut!((*v).fin).write(fin);
            addr_of_mut!((*v).increments).write(0);
            addr_of_mut!((*v).owed).write(AtomicU32::new(0));
            addr_of_mut!((*v).is_left).write(is_left);
            addr_of_mut!((*v).dead).write(false);
            addr_of_mut!((*v).runtime_body).write(false);
            addr_of_mut!((*v).park_pending).write(false);
            addr_of_mut!((*v).counter).write(UnsafeCell::new(std::ptr::null_mut()));
        }
        if self.reused {
            obs::counter!("sched.vertex_reuse").inc();
        } else {
            obs::counter!("sched.vertex_alloc").inc();
        }
        v
    }

    /// [`emplace`](VertexSlab::emplace) the vertex a finish scope opens
    /// with: its only strand, which holds no handles (module docs). `fin`
    /// is null for the dag's final vertex, which has no scope to signal.
    #[inline(always)]
    pub(crate) fn emplace_sole(self, fin: *const Vertex<C>, body: impl Body<C>) -> *mut Vertex<C> {
        self.emplace(MaybeUninit::uninit(), PairRef::none(), fin, true, body)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scribble::{byte, scribble, SCRIBBLE};
    use incounter::{DynConfig, DynSnzi, FetchAdd, FixedDepth};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The first word of `field`, read as a word.
    fn word<T>(field: &T) -> usize {
        // SAFETY: every field checked this way is at least a word long.
        unsafe { *(field as *const T as *const usize) }
    }

    /// What a scribbled word reads as.
    const SCRIBBLED: usize = usize::from_ne_bytes([SCRIBBLE; std::mem::size_of::<usize>()]);

    /// The fields every vertex is born with, as its own body finds them when
    /// it starts: nothing forked, no left child waiting on its worker's
    /// latent list, nothing ended, no park armed, nothing owed (a `touch`
    /// continuation's one delivery and a resumed strand's two have been
    /// made), no counter of its own, and a user's body.
    fn started<C: CounterFamily>(c: &Ctx<'_, C>, what: &str) {
        let v = c.vertex_ref();
        assert_eq!((v.increments, c.latent_len()), (0, 0), "{what}: increments, waiting");
        started_in_place(v, what);
    }

    /// As `started`, but for a spawn's child, which may run in its parent's
    /// vertex (`crate::in_place`); its caller checks `increments`, the
    /// latent list and `is_left`, which are what the spawn left.
    fn started_in_place<C: CounterFamily>(v: &Vertex<C>, what: &str) {
        assert_eq!(byte(&v.dead), 0, "{what}: dead");
        assert_eq!(byte(&v.runtime_body), 0, "{what}: runtime_body");
        assert_eq!(byte(&v.park_pending), 0, "{what}: park_pending");
        assert!(byte(&v.is_left) <= 1, "{what}: is_left");
        assert_eq!(v.owed.load(Ordering::Relaxed), 0, "{what}: owed");
        // SAFETY: a vertex reads its own field while it runs.
        assert!(!unsafe { v.has_counter() }, "{what}: counter");
    }

    /// The fields of a finish vertex as `c`, its scope's only strand, finds
    /// them: born as `started` says, with its body still in place.
    fn waiting<C: CounterFamily>(c: &Ctx<'_, C>, runtime_body: bool, what: &str) {
        // SAFETY: `fin` waits for the calling strand's scope, so it is alive,
        // and the caller is that scope's only strand, so nobody writes it.
        let w = unsafe { &*c.vertex_ref().fin };
        assert_ne!(word(&w.body.thunks), 0, "{what}: a body");
        assert_ne!(word(&w.body.thunks), SCRIBBLED, "{what}: thunks");
        assert_eq!(byte(&w.runtime_body), runtime_body as u8, "{what}: runtime_body");
        assert_eq!((w.increments, c.latent_len()), (0, 0), "{what}: increments, waiting");
        assert_eq!(byte(&w.dead), 0, "{what}: dead");
        assert_eq!(byte(&w.park_pending), 0, "{what}: park_pending");
        assert!(byte(&w.is_left) <= 1, "{what}: is_left");
        assert_eq!(w.owed.load(Ordering::Relaxed), 0, "{what}: owed");
        // SAFETY: the caller is the scope's only strand.
        assert!(!unsafe { w.has_counter() }, "{what}: counter");
    }

    /// Counts its drops: a body's capture, so that its drop thunk shows.
    struct Tally(Arc<AtomicUsize>);

    impl Drop for Tally {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn every_field_is_written_where_the_vertex_lives() {
        // Every kind of body — a closure in the frame, one spilled to its own
        // slab, a strand, none — with a real pair and without, each built
        // over scribbled slabs and read back field by field before it is
        // retired.
        type C = FetchAdd;
        let drops = Arc::new(AtomicUsize::new(0));
        let (t1, t2, t3) = (Tally(drops.clone()), Tally(drops.clone()), Tally(drops.clone()));
        scribble();
        let pair = PairRef::new(DecPair::new((), ()));
        let fin = std::ptr::NonNull::<Vertex<C>>::dangling().as_ptr() as *const Vertex<C>;
        let spilled = (t2, [7u64; 8]);
        assert!(!fits_inline::<(Tally, [u64; 8])>());
        let built = [
            (
                "an inline closure",
                Vertex::slab().emplace(
                    MaybeUninit::new(()),
                    pair,
                    fin,
                    true,
                    Once(move |_: Ctx<'_, C>| drop(t1)),
                ),
                (pair, fin, true, true),
            ),
            (
                "a spilled closure",
                Vertex::slab().emplace(
                    MaybeUninit::new(()),
                    pair,
                    fin,
                    false,
                    Once(move |_: Ctx<'_, C>| drop(spilled)),
                ),
                (pair, fin, false, true),
            ),
            (
                "a strand",
                Vertex::slab().emplace_sole(
                    fin,
                    Resumable(move |_: &mut Ctx<'_, C>| {
                        let _ = &t3;
                        StrandPoll::Done(())
                    }),
                ),
                (PairRef::none(), fin, true, true),
            ),
            (
                "no body",
                Vertex::slab().emplace_sole(std::ptr::null(), NoBody),
                (PairRef::none(), std::ptr::null(), true, false),
            ),
        ];
        for (what, v, (dec, fin, is_left, has_body)) in built {
            // SAFETY: just built, and nobody else has the pointer.
            let r = unsafe { &*v };
            assert_eq!(word(&r.body.thunks) != 0, has_body, "{what}: thunks");
            assert_ne!(word(&r.body.thunks), SCRIBBLED, "{what}: thunks");
            assert_eq!(word(&r.dec), word(&dec), "{what}: dec");
            assert_eq!(r.fin, fin, "{what}: fin");
            assert_eq!(byte(&r.is_left), is_left as u8, "{what}: is_left");
            assert_eq!(r.increments, 0, "{what}: increments");
            assert_eq!(r.owed.load(Ordering::Relaxed), 0, "{what}: owed");
            assert_eq!(byte(&r.dead), 0, "{what}: dead");
            assert_eq!(byte(&r.runtime_body), 0, "{what}: runtime_body");
            assert_eq!(byte(&r.park_pending), 0, "{what}: park_pending");
            // SAFETY: nobody else reaches the vertex.
            assert!(!unsafe { r.has_counter() }, "{what}: counter");
            // SAFETY: built above, not published; the drop thunk ends the
            // body's state.
            unsafe { Vertex::retire(v) };
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3, "each body's state dropped once");
        // The two vertices that held the pair never claimed it.
        // SAFETY: the pair's two claims, one after the other.
        assert_eq!(unsafe { (pair.claim(None), pair.claim(None)) }, ((), ()));
    }

    /// One run that builds every kind of vertex, each of which checks the
    /// fields it starts from. The values it adds into `out` sum to 135.
    fn every_kind(ctx: Ctx<'_, DynSnzi>, out: Arc<AtomicU64>) {
        started(&ctx, "the root, a sole strand");
        assert!(ctx.vertex_ref().dec.is_none(), "the root holds no pair");
        let mut ctx = ctx;
        // A future: its body is its scope's only strand, and its completion
        // vertex waits with the runtime's body.
        let f = ctx.future(|c| {
            started(&c, "a future's body");
            assert!(c.vertex_ref().dec.is_none(), "a future's body holds no pair");
            waiting(&c, true, "a future's completion vertex");
            20u64
        });
        // A strand that awaits a future forked before it: at W = 1 the deque
        // runs the strand first, so it parks and resumes.
        let g = ctx.future(|_| 100u64);
        let o = Arc::clone(&out);
        ctx.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
            started(c, "a strand, on each entry");
            o.fetch_add(*crate::strand_await!(c, &g), Ordering::SeqCst);
            StrandPoll::Done(())
        });
        let o = Arc::clone(&out);
        ctx.fork(move |c| {
            started(&c, "a forked child");
            assert!(!c.vertex_ref().dec.is_none(), "a forked child holds a pair");
            let (a, b) = (Arc::clone(&o), o);
            // `(increments, waiting, is_left)` as each child finds them.
            // Both run in the forked child's vertex with nothing counted, so
            // they keep its side (left) and no increment, and the right one
            // runs while the left one waits — unless, at W = 2, the spawn
            // finds its worker's deque empty and promotes the left child:
            // then the right one runs after that increment, on the
            // right-hand handles, with nothing waiting, and the left one is
            // a vertex of its own. Either way the left child finds
            // `(0, 0, 1)`.
            let waiting = (0, 1, 1);
            let promoted = (1, 0, 0);
            let solo = c.num_workers() == 1;
            let fields = |c: &Ctx<'_, DynSnzi>| {
                let v = c.vertex_ref();
                (v.increments, c.latent_len(), byte(&v.is_left))
            };
            c.spawn(
                move |c| {
                    started_in_place(c.vertex_ref(), "a spawn's left child");
                    assert_eq!(fields(&c), (0, 0, 1), "a spawn's left child");
                    a.fetch_add(1, Ordering::SeqCst);
                },
                move |c| {
                    started_in_place(c.vertex_ref(), "a spawn's right child");
                    let right = fields(&c);
                    assert!(
                        right == waiting || (!solo && right == promoted),
                        "a spawn's right child: {right:?}"
                    );
                    b.fetch_add(2, Ordering::SeqCst);
                },
            );
        });
        let o = Arc::clone(&out);
        ctx.fork(move |c| {
            let (a, b) = (Arc::clone(&o), o);
            c.chain(
                move |c| {
                    started(&c, "a chain's first, a sole strand");
                    assert!(c.vertex_ref().dec.is_none(), "a chain's first holds no pair");
                    waiting(&c, false, "a chain's continuation");
                    a.fetch_add(4, Ordering::SeqCst);
                },
                move |c| {
                    started(&c, "a chain's continuation");
                    b.fetch_add(8, Ordering::SeqCst);
                },
            );
        });
        ctx.touch(&f, move |c, v| {
            started(&c, "a touch continuation");
            out.fetch_add(*v, Ordering::SeqCst);
        });
    }

    #[test]
    fn every_vertex_kind_starts_from_its_initial_fields() {
        for workers in [1, 2] {
            for _ in 0..20 {
                scribble();
                let out = Arc::new(AtomicU64::new(0));
                let o = Arc::clone(&out);
                let stats =
                    crate::run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |ctx| {
                        every_kind(ctx, o)
                    });
                assert_eq!(out.load(Ordering::SeqCst), 135, "W={workers}");
                if workers == 1 {
                    assert_eq!(stats.pool.suspends, 1, "the strand parked");
                }
                assert_eq!(stats.pool.suspends, stats.pool.resumes);
            }
        }
    }

    #[test]
    fn a_vertex_rides_the_128_byte_class() {
        // Two lines a vertex, not three: a field that pushes any family's
        // vertex past 128 B sends it to the 256 B class and fails here, on
        // whichever leg of the `telemetry` switch is being tested (CI runs
        // both).
        fn check<C: CounterFamily>() {
            let size = std::mem::size_of::<Vertex<C>>();
            assert!(size <= 128, "Vertex<{}> is {size} B", C::NAME);
            let class = sched::recycle::class_of::<Vertex<C>>().expect("on the ladder");
            assert_eq!(sched::recycle::class_bytes(class), 128, "Vertex<{}>", C::NAME);
        }
        check::<DynSnzi>();
        check::<FetchAdd>();
        check::<FixedDepth>();
        assert_eq!(INLINE_SLOT_BYTES, 48, "the inline body did not pay for it");
    }
}
