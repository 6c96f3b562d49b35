//! Lazy, work-first spawn: both children of [`Ctx::spawn`] run in their
//! parent's vertex, on its stack, and the left one becomes a vertex only
//! when a thief could use it.
//!
//! The in-counter prices a spawn as one increment and a claimed decrement
//! per child. That price buys a count that children running *concurrently*
//! can share; nothing in it needs each child to be a heap vertex that
//! travels through the deque, and nothing in it is owed for children that
//! end up running one after the other. So a spawn within the stack bound
//! counts nothing and builds nothing ([`run_in_place`]): the right child
//! runs at once, in the spawning vertex and under its own handles, and the
//! left child waits in a guard ([`PendingLeft`]) to run there after it, as
//! a tail call. The vertex's own handles stand for everything that still
//! runs in it, so its one epilogue signal covers both children.
//!
//! **The latent list.** Each worker keeps its waiting guards in an
//! intrusive list, newest to oldest, whose head is the worker's per-run
//! word ([`sched::WorkerCtx::latent`]). Every guard in it belongs to the
//! vertex the worker is running, since a worker runs one vertex at a time
//! and a vertex's guards are all settled before its body returns; so "a
//! left child waits to run in the running vertex" is "the list is
//! non-empty", and nothing else records it. At W = 1
//! ([`sched::WorkerCtx::is_solo`]) that is all there is: a link is the
//! guard's `older` and the head, an unlink the head again, and no thief
//! exists to promote for.
//!
//! **Promotion (W ≥ 2).** A waiting left child is work a thief could take,
//! and it is published the way Lazy Binary Splitting publishes work: only
//! when the worker's own deque has nothing for a thief. A spawn links its
//! guard and then, if the deque looks empty
//! ([`sched::WorkerCtx::deque_looks_empty`]), promotes the **oldest**
//! waiting left child — the one highest in the spawn tree, so the largest
//! piece of work, as Heartbeat scheduling picks it ([`promote_oldest`]).
//! Promotion takes the guard off the list and forks its body by the fork
//! step of [`Scope::fork`](crate::Scope::fork) (`vertex::fork_vertex`):
//! one increment on the vertex's scope, the vertex rotated onto the fresh
//! right-hand handles, the left child built into a vertex of its own on
//! the left-hand ones and pushed. When that child's right sibling returns,
//! the guard finds itself off the list and skips it. A thief therefore
//! only ever sees vertices pushed the way every vertex is pushed, and an
//! increment is made only for a left child a thief could take. Each child
//! is covered exactly once: by the vertex's handles while it waits or runs
//! in place, by its own pair once promoted — the promotion's increment is
//! made on the vertex while it is still an unfinished strand of its scope,
//! before the vertex's own claim, exactly as a fork's is.
//!
//! **Splits.** While a left child waits (the list is non-empty), a child
//! that hands the vertex's place on — a `chain`, a `touch`, the right child
//! of a spawn past the stack bound — splits it instead, by one increment
//! (`Vertex::hand_off`), and the vertex lives on for the left child. If the
//! right child unwinds, the guard forks the left child by the fork step, so
//! the scope still drains. Each step takes the worker's step
//! (`vertex::solo_step`): exclusive at W = 1, shared at W ≥ 2.
//!
//! Each child run in place counts as an executed task
//! ([`sched::WorkerCtx::note_run_in_place`]) and as `spdag.spawn_inline`,
//! so the ledger reads *vertices born + children run in place = tasks −
//! resumes*; each promotion counts as `spdag.spawn_promoted`.
//!
//! **Stack bound.** Children run in place nest. Once a thread's in-place
//! runs have taken [`IN_PLACE_STACK`] bytes of stack below the outermost
//! one, a spawn makes both children vertices and pushes them, and the
//! nesting unwinds to the worker loop: the left child is forked by the
//! fork step, and the right child takes the vertex's place as a `chain`
//! continuation does — by `hand_off`, so it splits one off while a left
//! child waits. Nothing the executor does per vertex knows about this: the
//! bookkeeping lives in a thread-local word that only the in-place path
//! reads.

use std::cell::Cell;
use std::mem::{ManuallyDrop, MaybeUninit};

use incounter::CounterFamily;
use sched::WorkerCtx;

use crate::dag::Ctx;
use crate::vertex::{fork_vertex, Once, Vertex, VertexPtr};

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
fn run_child<C, F>(
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

/// A spawn within the stack bound: run `right`, then `left`, in `u`, with
/// no increment (module docs). The left child waits in a [`PendingLeft`]
/// meanwhile, linked into the worker's latent list — at W ≥ 2 where this
/// spawn or a later one may promote it — and runs as a tail call unless it
/// was promoted.
#[inline(always)]
pub(crate) fn run_in_place<'w, C, L, R>(
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
    let mut left = PendingLeft {
        latent: Latent { older: std::ptr::null_mut(), fork: MaybeUninit::uninit() },
        body: ManuallyDrop::new(left),
        u,
        cfg,
        worker,
    };
    // SAFETY: `u` is the running vertex, exclusively ours, and `left`
    // stays where it is until it is taken or dropped.
    unsafe { left.link() };
    // SAFETY: as above; each child's borrow of `u` ends before the guard or
    // the next child touches it.
    run_child(unsafe { &mut *u }, worker, cfg, right);
    if !left.unlink() {
        // Promoted: the left child is a vertex already.
        std::mem::forget(left);
        return;
    }
    // SAFETY: not promoted, so the body is still here; the guard is
    // forgotten right after, so this is its one read and the normal path
    // runs no drop glue.
    let left_body = unsafe { ManuallyDrop::take(&mut left.body) };
    std::mem::forget(left);
    // SAFETY: as above.
    run_child(unsafe { &mut *u }, worker, cfg, left_body);
}

/// What the worker's latent list sees of a waiting left child: the next
/// older one, and how to fork this one into a vertex.
struct Latent<C: CounterFamily> {
    older: *mut Latent<C>,
    /// Written only at W ≥ 2, where the guard may be promoted.
    fork: MaybeUninit<ForkFn<C>>,
}

/// Fork the waiting left child behind a [`Latent`] into a vertex of its
/// own, from the running vertex ([`fork_promoted`]).
type ForkFn<C> = unsafe fn(*mut Latent<C>, &mut Vertex<C>);

/// A spawn's left child while its right sibling runs in place, linked into
/// its worker's latent list. Taken off it ([`unlink`](PendingLeft::unlink)),
/// it runs in place in turn, unless it was promoted meanwhile
/// ([`promote_oldest`]); dropped unpromoted — the right child unwound — it
/// is forked (`vertex::fork_vertex`), which splits the vertex as a handoff
/// does, so its scope still drains.
#[repr(C)]
struct PendingLeft<'w, C, F>
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    /// First, so that the list's pointer to it is a pointer to the guard.
    latent: Latent<C>,
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
    /// Link the guard as its worker's newest latent left child. At W = 1
    /// that is all — two stores, `older` and the head — since no thief
    /// exists; at W ≥ 2 the guard also records how to fork itself, and if
    /// the worker's deque has nothing for a thief, the oldest guard is
    /// promoted.
    ///
    /// # Safety
    /// `u` must be the guard's vertex, the running one, and the guard must
    /// not move until it is taken or dropped.
    #[inline(always)]
    unsafe fn link(&mut self) {
        let solo = self.worker.is_solo();
        let head = self.worker.latent();
        self.latent.older = head.get().cast();
        if !solo {
            self.latent.fork.write(fork_promoted::<C, F>);
        }
        head.set((self as *mut Self).cast());
        if !solo && self.worker.deque_looks_empty() {
            // SAFETY: the caller's contract; the list holds this guard.
            unsafe { promote_oldest(head, &mut *self.u) };
        }
    }

    /// Take the guard off its worker's list, unless promotion took it off
    /// already; returns whether it was still waiting. A waiting guard is the
    /// head: every guard linked after it belongs to a spawn its right child
    /// made, and each of those was taken, dropped or promoted before the
    /// right child returned or unwound. A promoted one was the oldest, so
    /// the list is empty then.
    #[inline(always)]
    fn unlink(&mut self) -> bool {
        let head = self.worker.latent();
        if head.get() != (self as *mut Self).cast() {
            debug_assert!(head.get().is_null(), "a promoted guard was the oldest");
            return false;
        }
        head.set(self.latent.older.cast());
        true
    }
}

impl<C, F> Drop for PendingLeft<'_, C, F>
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    fn drop(&mut self) {
        if !self.unlink() {
            // Promoted: the left child is a vertex already.
            return;
        }
        // SAFETY: the guard was neither taken (that forgets it) nor
        // promoted, so the body is still here, and this is its one read.
        // The right child unwound, so its borrow of `u` is gone, and `u` is
        // still alive: the unwind ends in its executor's `catch_unwind`, and
        // nothing ended `u` while the guard was on the list.
        let (body, u) = unsafe { (ManuallyDrop::take(&mut self.body), &mut *self.u) };
        fork_vertex(u, self.worker, self.cfg, Once(body));
    }
}

/// The promotion step (module docs): take the oldest left child waiting on
/// this worker off the list, `head`, and fork it from `u`, which keeps the
/// right-hand handles. Out of line: a spawn finds its deque empty about
/// once per steal. The list is walked from its newest end, as many guards
/// as there are spawns nested in place, which the stack bound limits.
///
/// # Safety
/// `u` must be the running vertex, and the list non-empty; every guard in
/// it is then one of `u`'s (module docs).
#[inline(never)]
unsafe fn promote_oldest<C: CounterFamily>(head: &Cell<*mut ()>, u: &mut Vertex<C>) {
    let mut newer: *mut Latent<C> = std::ptr::null_mut();
    let mut oldest: *mut Latent<C> = head.get().cast();
    // SAFETY: every guard in the list is live on this thread's stack, below
    // the frames of the spawns that linked it, and was linked at W ≥ 2,
    // which wrote its `fork` (the caller's contract).
    unsafe {
        while !(*oldest).older.is_null() {
            newer = oldest;
            oldest = (*oldest).older;
        }
        if newer.is_null() {
            head.set(std::ptr::null_mut());
        } else {
            (*newer).older = std::ptr::null_mut();
        }
        ((*oldest).fork.assume_init())(oldest, u);
    }
    obs::counter!("spdag.spawn_promoted").inc();
}

/// A guard's [`ForkFn`]: its body, forked from `u` as a left child.
///
/// # Safety
/// `latent` must be the header of a live `PendingLeft<C, F>` of `u`'s,
/// taken off the list just now.
unsafe fn fork_promoted<C, F>(latent: *mut Latent<C>, u: &mut Vertex<C>)
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    // SAFETY: the caller's contract; the header is the guard's first field.
    let guard = unsafe { &mut *latent.cast::<PendingLeft<'_, C, F>>() };
    // SAFETY: a guard off the list before its right child returned was
    // promoted, which makes this the body's one read.
    let body = unsafe { ManuallyDrop::take(&mut guard.body) };
    fork_vertex(u, guard.worker, guard.cfg, Once(body));
}

#[cfg(test)]
impl<C: CounterFamily> Ctx<'_, C> {
    /// How many left children wait to run in this vertex: the length of its
    /// worker's latent list.
    pub(crate) fn latent_len(&self) -> usize {
        let mut n = 0;
        let mut at: *mut Latent<C> = self.worker.latent().get().cast();
        while !at.is_null() {
            n += 1;
            // SAFETY: every guard in the list is live (module docs).
            at = unsafe { (*at).older };
        }
        n
    }
}
