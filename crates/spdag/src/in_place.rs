//! Work-first spawn: a child of [`Ctx::spawn`] that runs in its parent's
//! vertex, on its parent's stack.
//!
//! The in-counter prices a spawn as one increment and a claimed decrement
//! per child; nothing in that accounting needs each child to be a heap
//! vertex that travels through the deque. So a spawn builds a vertex only
//! for a child another worker could take:
//!
//! * **W ≥ 2.** The left child is built and pushed, as before. The right
//!   child — the one the worker's LIFO pop would have run next — runs at
//!   once, inside the spawning vertex: that vertex's `inc`, `dec` and
//!   `is_left` become the right child's, and its end is signalled by the
//!   executor's epilogue, exactly as if it had been popped.
//! * **W = 1** ([`sched::WorkerCtx::is_solo`]). No thief exists to take
//!   either child, so both run in place: the right child, then its end is
//!   signalled here, then the left child, whose end the epilogue signals.
//!   If the right child unwinds, a guard ([`PendingLeft`]) builds and
//!   pushes the left child as the vertex it would have been, so the scope
//!   still drains.
//!
//! Either way the increment, both claims of the pair and both decrements
//! happen as they did for two vertices; only where the children run
//! changed. Each child run in place counts as an executed task
//! ([`sched::WorkerCtx::note_run_in_place`]) and as `spdag.spawn_inline`,
//! so the ledger reads *vertices born + children run in place = tasks −
//! resumes*.
//!
//! **Stack bound.** Children run in place nest: a right spine at W ≥ 2,
//! any spawn tree at W = 1. Once a thread's in-place runs have taken
//! [`IN_PLACE_STACK`] bytes of stack below the outermost one, a spawn
//! makes both children vertices and pushes them, and the nesting unwinds
//! to the worker loop. Nothing the executor does per vertex knows about
//! this: the bookkeeping lives in a thread-local word that only the
//! in-place path reads.

use std::cell::Cell;
use std::mem::{ManuallyDrop, MaybeUninit};

use incounter::CounterFamily;
use sched::WorkerCtx;

use crate::dag::Ctx;
use crate::pair::PairRef;
use crate::vertex::{Once, Vertex, VertexPtr};

/// How much stack the children a thread runs in place may take, measured
/// from the outermost spawn that ran one. A spawn deeper than this pushes
/// both children instead. Generous for any body that is not itself a large
/// frame, and small beside a thread's stack: a 256 KiB thread runs
/// 100 000-deep spawn recursions (`tests/inline_spawn.rs`).
const IN_PLACE_STACK: usize = 64 << 10;

thread_local! {
    /// The stack address of this thread's outermost spawn that runs a child
    /// in place, or 0 while none does.
    static IN_PLACE_BASE: Cell<usize> = const { Cell::new(0) };
}

/// Room on this thread's stack for a spawn's children to run in place
/// (module docs, "Stack bound"), held while they run.
pub(crate) struct StackRoom {
    /// This spawn set the base, and clears it when its children are done —
    /// or have unwound.
    outermost: bool,
}

impl StackRoom {
    /// Room for one more level of in-place children, or `None` past the
    /// bound.
    #[inline(always)]
    pub(crate) fn take() -> Option<StackRoom> {
        // An address in the calling spawn's frame.
        let probe = 0u8;
        let here = std::ptr::addr_of!(probe) as usize;
        IN_PLACE_BASE.with(|base| match base.get() {
            0 => {
                base.set(here);
                Some(StackRoom { outermost: true })
            }
            // The stack grows down; an address above the base wraps and
            // falls back too.
            b if b.wrapping_sub(here) < IN_PLACE_STACK => Some(StackRoom { outermost: false }),
            _ => None,
        })
    }
}

impl Drop for StackRoom {
    #[inline(always)]
    fn drop(&mut self) {
        if self.outermost {
            IN_PLACE_BASE.with(|base| base.set(0));
        }
    }
}

/// Run one child of a spawn in place: `u` takes the child's handles and
/// position, then the child's body runs with `u` as its vertex. The child's
/// end is whatever `u` holds when the body returns — its own handles, or
/// those of the last child it ran in place itself — unless the body ended
/// `u` (`dead`: a `chain`, a `touch`, a spawn past the bound).
#[inline(always)]
pub(crate) fn run_child<C, F>(
    u: &mut Vertex<C>,
    worker: &WorkerCtx<'_, VertexPtr<C>>,
    cfg: &C::Config,
    (inc, pair, is_left): (C::Inc, PairRef<C::Dec>, bool),
    body: F,
) where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>),
{
    debug_assert!(!u.dead, "a child runs in place in a vertex that ended");
    u.inc = MaybeUninit::new(inc);
    u.dec = pair;
    u.is_left = is_left;
    worker.note_run_in_place();
    obs::counter!("spdag.spawn_inline").inc();
    // The failpoint stands in for a user body that panics, and this is one
    // (`dag::execute_vertex` fires it for the vertices).
    if sched::failpoint::fire("spdag.panic_vertex") {
        panic!("failpoint: spdag.panic_vertex injected a body panic");
    }
    body(Ctx { vertex: u, worker, cfg, resumable: false });
}

/// Signal the end of the child that last ran in place in `u` of a
/// one-worker run — `dag::execute_vertex`'s epilogue, on its exclusive
/// path — so that `u` can take its sibling. A child that ended `u` handed
/// its obligation on, and only the flag is reset.
#[inline(always)]
pub(crate) fn end_child_solo<C: CounterFamily>(
    u: &mut Vertex<C>,
    worker: &WorkerCtx<'_, VertexPtr<C>>,
) {
    if u.dead {
        u.dead = false;
        return;
    }
    // SAFETY: the child neither spawned past the bound, chained nor
    // touched (`dead` is clear), so its one claim on the pair `u` holds is
    // unspent, and the run has one worker: the pair's other claim and every
    // step on `fin`'s counter are this thread's (`crate::vertex`, "One
    // worker, no lock prefix"). `fin` is alive: it waits for this child.
    let ready = unsafe {
        let d = u.dec.claim(true);
        C::decrement_exclusive((*u.fin).counter_ref(), d)
    };
    if ready {
        worker.push(VertexPtr(u.fin as *mut Vertex<C>));
    }
}

/// A one-worker spawn's left child while its right sibling runs in place.
/// Taken ([`take`](PendingLeft::take)), it runs in place in turn; dropped
/// — the right child unwound — it is built into the vertex it would have
/// been at W ≥ 2 and pushed, so its scope still drains.
pub(crate) struct PendingLeft<'w, C, F>
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    body: ManuallyDrop<F>,
    inc: C::Inc,
    pair: PairRef<C::Dec>,
    fin: *const Vertex<C>,
    worker: &'w WorkerCtx<'w, VertexPtr<C>>,
}

impl<'w, C, F> PendingLeft<'w, C, F>
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    #[inline(always)]
    pub(crate) fn new(
        body: F,
        (inc, pair): (C::Inc, PairRef<C::Dec>),
        fin: *const Vertex<C>,
        worker: &'w WorkerCtx<'w, VertexPtr<C>>,
    ) -> Self {
        PendingLeft { body: ManuallyDrop::new(body), inc, pair, fin, worker }
    }

    /// The body, to run in place; the guard is spent.
    #[inline(always)]
    pub(crate) fn take(self) -> F {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: read once; `this` is never dropped, so nothing reads it
        // again.
        unsafe { ManuallyDrop::take(&mut this.body) }
    }
}

impl<C, F> Drop for PendingLeft<'_, C, F>
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    fn drop(&mut self) {
        // SAFETY: the guard was not taken (that forgets it), so the body is
        // still here, and this is its one read.
        let body = unsafe { ManuallyDrop::take(&mut self.body) };
        let v = Vertex::slab().emplace(
            MaybeUninit::new(self.inc),
            self.pair,
            self.fin,
            true,
            Once(body),
        );
        self.worker.push(VertexPtr(v));
    }
}
