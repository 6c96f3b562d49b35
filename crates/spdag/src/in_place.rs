//! Work-first spawn: a child of [`Ctx::spawn`] that runs in its parent's
//! vertex, on its parent's stack.
//!
//! The in-counter prices a spawn as one increment and a claimed decrement
//! per child. That price buys a count that children running *concurrently*
//! can share; nothing in it needs each child to be a heap vertex that
//! travels through the deque. So a spawn builds a vertex only for a child
//! another worker could take, and counts only children that may overlap:
//!
//! * **W ≥ 2.** The spawn makes its increment. The left child is built and
//!   pushed. The right child — the one the worker's LIFO pop would have run
//!   next — runs at once, inside the spawning vertex: that vertex's `inc`,
//!   `dec` and `is_left` become the right child's, and its end is signalled
//!   by the executor's epilogue, exactly as if it had been popped.
//! * **W = 1** ([`sched::WorkerCtx::is_solo`]). No thief exists to take
//!   either child, so both run in place, the right one first, and nothing
//!   is counted ([`run_serially`]): no increment, no pair, no decrement.
//!   The vertex's own handles stand for everything that still runs in it,
//!   so its one epilogue signal covers both children. While a left child
//!   waits (`Vertex::pending`), a child that hands the vertex's place on —
//!   a `chain`, a `touch`, a spawn past the stack bound — splits it
//!   instead, by one increment per vertex it builds (`Vertex::hand_off`),
//!   and the vertex lives on for the left child. If the right child unwinds, a guard ([`PendingLeft`])
//!   splits the vertex the same way and pushes the left child as a vertex
//!   of its own, so the scope still drains.
//!
//! Each child run in place counts as an executed task
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

/// Run one child of a spawn in place: its body runs with `u` as its
/// vertex, in whatever position `u` holds. The child's end is whatever `u`
/// holds when the body returns, unless the body ended `u` (`dead`).
#[inline(always)]
pub(crate) fn run_child<C, F>(
    u: &mut Vertex<C>,
    worker: &WorkerCtx<'_, VertexPtr<C>>,
    cfg: &C::Config,
    body: F,
) where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>),
{
    debug_assert!(!u.dead, "a child runs in place in a vertex that ended");
    worker.note_run_in_place();
    obs::counter!("spdag.spawn_inline").inc();
    // The failpoint stands in for a user body that panics, and this is one
    // (`dag::execute_vertex` fires it for the vertices).
    if sched::failpoint::fire("spdag.panic_vertex") {
        panic!("failpoint: spdag.panic_vertex injected a body panic");
    }
    body(Ctx { vertex: u, worker, cfg, resumable: false });
}

/// A one-worker spawn within the stack bound: run `right`, then `left`, in
/// `u`, with no increment (module docs). The left child waits in a
/// [`PendingLeft`] meanwhile, and runs as a tail call: `pending` is back
/// where the spawn found it.
#[inline(always)]
pub(crate) fn run_serially<'w, C, L, R>(
    u: &mut Vertex<C>,
    worker: &'w WorkerCtx<'w, VertexPtr<C>>,
    cfg: &'w C::Config,
    left: L,
    right: R,
) where
    C: CounterFamily,
    L: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
    R: for<'b> FnOnce(Ctx<'b, C>),
{
    // The guard and both children reach `u` through this one pointer, so
    // no `&mut` the guard could alias lives across an unwind.
    let u: *mut Vertex<C> = u;
    // SAFETY: `u` is the running vertex, exclusively ours; each child's
    // borrow ends before the guard or the next child touches it.
    unsafe { (*u).pending += 1 };
    let left = PendingLeft { body: ManuallyDrop::new(left), u, cfg, worker };
    // SAFETY: as above.
    run_child(unsafe { &mut *u }, worker, cfg, right);
    let left = left.take();
    // SAFETY: as above.
    run_child(unsafe { &mut *u }, worker, cfg, left);
}

/// A one-worker spawn's left child while its right sibling runs in place,
/// counted in its vertex's `pending`. Taken ([`take`](PendingLeft::take)),
/// it runs in place in turn; dropped — the right child unwound — it splits
/// the vertex as a handoff does and is built into a vertex and pushed, so
/// its scope still drains.
struct PendingLeft<'w, C, F>
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    body: ManuallyDrop<F>,
    u: *mut Vertex<C>,
    cfg: &'w C::Config,
    worker: &'w WorkerCtx<'w, VertexPtr<C>>,
}

impl<C, F> PendingLeft<'_, C, F>
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    /// The body, to run in place; the guard is spent.
    #[inline(always)]
    fn take(self) -> F {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: the right child returned, so no borrow of `u` is live;
        // the body is read once — `this` is never dropped.
        unsafe {
            (*this.u).pending -= 1;
            ManuallyDrop::take(&mut this.body)
        }
    }
}

impl<C, F> Drop for PendingLeft<'_, C, F>
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    fn drop(&mut self) {
        // SAFETY: the guard was not taken (that forgets it), so the body is
        // still here, and this is its one read. The right child unwound, so
        // its borrow of `u` is gone, and `u` is still alive: the unwind
        // ends in its executor's `catch_unwind`, and nothing ended `u`
        // while `pending` was raised.
        let (body, u) = unsafe { (ManuallyDrop::take(&mut self.body), &mut *self.u) };
        u.pending -= 1;
        let fin = u.fin;
        let (inc, pair) = u.fork_rotate(self.cfg, true);
        let v = Vertex::slab().emplace(MaybeUninit::new(inc), pair, fin, true, Once(body));
        self.worker.push(VertexPtr(v));
    }
}
