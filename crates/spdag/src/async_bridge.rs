//! Minimal bridge between runtime futures and `std::future::Future`:
//! `async` code on the pool, built on the strand park protocol
//! ([`Ctx::touch_await`]'s count-2 handshake — see `docs/strands.md`).
//!
//! [`Ctx::fork_async`] / [`Ctx::future_async`] wrap a compiled `async`
//! block in an [`AsyncStrand`] and schedule it like any strand. Inside it,
//! awaiting a [`FutureHandle`] parks the strand through the ordinary
//! vertex handshake: `FutureHandle::poll` publishes a *park request* into
//! a thread-local the strand's executor owns for the duration of the
//! poll, and [`AsyncStrand`] turns that request into an armed out-set
//! registration. No waker machinery runs on this path at all — the
//! vertex's `owed` word **is** the waker — so every token in a future's
//! out-set is a vertex of its run.
//!
//! Outside a strand there is no vertex to park. A handle polled there
//! returns its value if the future has completed and panics otherwise:
//! code off the pool reads a finished future with
//! [`try_get`](FutureHandle::try_get), and code that must wait runs as
//! `fork_async`/`future_async`.
//!
//! ## Pinning
//!
//! A strand frame's inline state is moved between resumptions (the
//! executor takes the frame out of the vertex to run it), which is
//! incompatible with self-referential compiled futures. [`AsyncStrand`]
//! therefore pins its future behind a `Box` — the 8-byte `Pin<Box<F>>`
//! itself inlines in the frame, while the state machine never moves.
//!
//! ## What may `.await` inside a strand
//!
//! Only leaves that ultimately poll a [`FutureHandle`] (plus any
//! combinator over such leaves: joins, selects). A leaf future from some
//! other reactor returning `Pending` without filing a park request would
//! never be woken — the strand's poll hands out a no-op waker — so the
//! bridge panics loudly instead of deadlocking silently. When several
//! handles are in flight in one poll (a join), the *last* unready handle
//! polled files the registration; every resumption thus awaits a future
//! that is genuinely pending, and each completion re-polls the whole
//! combinator, so progress is preserved.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use incounter::CounterFamily;
use outset::OutsetFamily;

use crate::dag::Ctx;
use crate::futures::{FutureHandle, ParkRequest};
use crate::vertex::{Strand, StrandPoll};

/// What the current thread's innermost poll context is.
enum BridgeState {
    /// Not inside a strand resumption: an unready handle poll panics.
    Inactive,
    /// Inside [`AsyncStrand::resume`], no park requested yet.
    Active,
    /// A polled [`FutureHandle`] was unready and asks the strand to park:
    /// "register this strand's vertex on my out-set". The request
    /// **owns** a core reference ([`ParkRequest`]: a pointer and two
    /// functions, no box), so the out-set stays alive across the
    /// poll-to-register gap even if the polled user future dropped its
    /// handle — and every other reference died — before returning
    /// `Pending`.
    Requested(ParkRequest),
}

thread_local! {
    static BRIDGE: Cell<BridgeState> = const { Cell::new(BridgeState::Inactive) };
}

fn noop_raw_waker() -> RawWaker {
    fn clone(_: *const ()) -> RawWaker {
        noop_raw_waker()
    }
    fn wake(_: *const ()) {}
    fn wake_by_ref(_: *const ()) {}
    fn drop_waker(_: *const ()) {}
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, drop_waker);
    RawWaker::new(std::ptr::null(), &VTABLE)
}

/// A compiled `async` state machine adapted to the [`Strand`] protocol.
/// Built by [`Ctx::fork_async`] / [`Ctx::future_async`]; also usable
/// directly with [`Ctx::fork_strand`] / [`Ctx::future_strand`].
pub struct AsyncStrand<F> {
    /// Boxed so the state machine has a stable address across
    /// resumptions (strand frames move their inline bytes; see module
    /// docs). The 8-byte pin itself is what lives in the frame.
    fut: Pin<Box<F>>,
}

impl<F> AsyncStrand<F> {
    /// Wrap a future for execution as a strand.
    pub fn new(fut: F) -> AsyncStrand<F> {
        AsyncStrand { fut: Box::pin(fut) }
    }
}

impl<C, F> Strand<C, F::Output> for AsyncStrand<F>
where
    C: CounterFamily,
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    fn resume(&mut self, ctx: &mut Ctx<'_, C>) -> StrandPoll<F::Output> {
        loop {
            // SAFETY: the no-op vtable upholds every RawWaker contract
            // trivially.
            let waker = unsafe { Waker::from_raw(noop_raw_waker()) };
            let mut cx = Context::from_waker(&waker);
            // Save/restore rather than set/clear so a body that drives a
            // nested dag (and strands within it) unwinds correctly.
            let prev = BRIDGE.with(|b| b.replace(BridgeState::Active));
            let polled = self.fut.as_mut().poll(&mut cx);
            let state = BRIDGE.with(|b| b.replace(prev));
            match polled {
                // A leftover Requested state is fine here: the request
                // was never registered, so dropping it arms nothing.
                Poll::Ready(value) => return StrandPoll::Done(value),
                Poll::Pending => match state {
                    BridgeState::Requested(request) => {
                        let token = ctx.arm_park();
                        let key = ctx.worker_id() as u64;
                        // The request's owned core reference keeps the
                        // out-set alive until this registration lands.
                        if request.register(token, key, ctx.worker.is_solo()) {
                            return StrandPoll::Parked;
                        }
                        // Sealed in the gap between poll and registration:
                        // the value is ready — disarm and re-poll
                        // immediately.
                        ctx.disarm_park();
                    }
                    _ => panic!(
                        "a future returned Pending inside a strand without awaiting a \
                         runtime FutureHandle; only runtime futures (or combinators over \
                         them) can suspend a strand"
                    ),
                },
            }
        }
    }
}

impl<T, O> Future for FutureHandle<T, O>
where
    T: Clone + Send + Sync + 'static,
    O: OutsetFamily,
{
    type Output = T;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        if let Some(value) = self.try_get() {
            return Poll::Ready(value.clone());
        }
        if self.is_poisoned() {
            // Completed with no value: the future's body panicked under
            // panic isolation. `Output = T` has no error channel, so the
            // poisoned error surfaces as a descriptive panic here —
            // never a hang: a strand's registration on the sealed
            // out-set would bounce and re-poll for ever.
            panic!(
                "polled future is poisoned: its body panicked before publishing a value \
                 (the original panic is re-raised at the run_dag caller)"
            );
        }
        let in_strand = BRIDGE.with(|b| {
            // Cell peek-by-swap (BridgeState owns its park target, so the
            // cell cannot hand out copies).
            let state = b.replace(BridgeState::Inactive);
            let in_strand = matches!(state, BridgeState::Active | BridgeState::Requested(_));
            b.set(state);
            in_strand
        });
        assert!(
            in_strand,
            "polled an unready FutureHandle outside any strand: only an async block run by \
             Ctx::fork_async/future_async can await one (read a completed future with try_get)"
        );
        // File a park request for the enclosing AsyncStrand; it arms the
        // vertex and performs the registration after the poll unwinds (a
        // later unready handle in the same poll replaces this request —
        // see the module docs on combinators). The request owns a cloned
        // core reference, so the out-set it targets outlives even a handle
        // dropped mid-poll.
        BRIDGE.with(|b| b.set(BridgeState::Requested(self.park_request())));
        Poll::Pending
    }
}

impl<'a, C: CounterFamily> Ctx<'a, C> {
    /// [`fork`](Ctx::fork) an `async` block onto the pool: the enclosing
    /// finish scope waits for it, and `.await`ing a [`FutureHandle`]
    /// inside parks the strand (never the worker).
    pub fn fork_async<F>(&mut self, fut: F)
    where
        F: Future<Output = ()> + Send + 'static,
    {
        self.fork_strand(AsyncStrand::new(fut));
    }

    /// [`future_strand`](Ctx::future_strand) over an `async` block: the
    /// block's output becomes the future's value, so `async` stages
    /// compose with CPS stages and [`touch_await`](Ctx::touch_await)ing
    /// strands freely. See `examples/async_fib.rs`.
    pub fn future_async<T, F>(&mut self, fut: F) -> FutureHandle<T>
    where
        T: Send + Sync + 'static,
        F: Future<Output = T> + Send + 'static,
    {
        self.future_strand(AsyncStrand::new(fut))
    }
}

#[cfg(test)]
mod tests {
    use crate::run_dag;
    use incounter::{DynConfig, DynSnzi};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn fork_async_awaits_runtime_future() {
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
            let f = ctx.future(|_| 21u64);
            let o = Arc::clone(&o);
            ctx.fork_async(async move {
                let v = f.await;
                o.store(v * 2, Ordering::Relaxed);
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn future_async_chains_awaits() {
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
            let a = ctx.future(|_| 5u64);
            let b = ctx.future_async(async move { a.await + 1 });
            let c = ctx.future_async(async move { b.await * 7 });
            let o = Arc::clone(&o);
            ctx.fork_async(async move {
                o.store(c.await, Ordering::Relaxed);
            });
        });
        assert_eq!(out.load(Ordering::Relaxed), 42);
    }
}
