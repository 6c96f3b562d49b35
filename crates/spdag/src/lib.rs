//! # spdag — series-parallel dags with in-counter readiness detection
//!
//! This crate implements the paper's sp-dag data structure (Figure 3) and
//! executes it on the work-stealing pool from the `sched` crate. It is
//! generic over the dependency-counter algorithm via
//! [`incounter::CounterFamily`], which is how the evaluation compares the
//! in-counter against fetch-and-add and fixed-depth SNZI on identical dag
//! machinery.
//!
//! ## Programming model
//!
//! A computation is a tree of *vertices*; each vertex runs a *body* (a
//! closure) exactly once, when all its dependencies have been satisfied.
//! Inside a body, the [`Ctx`] handle offers the two structural operations
//! of nested parallelism, each of which must be the last dag operation the
//! body performs (enforced by consuming the `Ctx`):
//!
//! * [`Ctx::spawn`]`(left, right)` — parallel composition: both closures
//!   may run concurrently; the enclosing finish scope waits for both.
//!   This is the paper's `spawn`, and equivalently an `async` whose
//!   continuation is the `right` closure.
//! * [`Ctx::chain`]`(first, then)` — serial composition: `then` runs only
//!   after `first` *and everything `first` transitively spawns* has
//!   finished. This is the paper's `chain`, i.e. a `finish` block with
//!   continuation `then`.
//!
//! Readiness detection — "has everything in this scope finished?" — is the
//! job of the per-finish-vertex dependency counter. The executing worker
//! *signals* (decrements) when a body returns without handing its place on
//! (`chain`, `touch`) — a vertex's body, or a spawned child that ran in its
//! parent's vertex (`spawn` is work-first); the decrement that takes the
//! counter to zero returns `true` exactly once and schedules the finish
//! vertex. No polling, no locks.
//! (A scope has a counter only from its first fork on: while it has one
//! strand, that strand's signal schedules the finish vertex outright —
//! see [`vertex`].)
//!
//! ```
//! use spdag::run_dag;
//! use incounter::{DynSnzi, DynConfig};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let hits = Arc::new(AtomicU64::new(0));
//! let h = Arc::clone(&hits);
//! run_dag::<DynSnzi, _>(DynConfig::always_grow(), 2, move |ctx| {
//!     let (a, b) = (Arc::clone(&h), Arc::clone(&h));
//!     ctx.spawn(
//!         move |_| { a.fetch_add(1, Ordering::Relaxed); },
//!         move |_| { b.fetch_add(1, Ordering::Relaxed); },
//!     );
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 2);
//! ```

//! ## Strands: suspension without blocking
//!
//! One-shot bodies await futures by continuation passing
//! ([`Ctx::touch`]). *Strands* ([`Strand`], scheduled with
//! [`Ctx::fork_strand`] / [`Ctx::future_strand`]) are resumable bodies
//! that may instead call [`Ctx::touch_await`] mid-body: if the future is
//! unready the strand parks **itself** — its frame stays in its vertex,
//! its worker goes straight back to the deque — and is rescheduled when
//! the future fulfills. `docs/strands.md` walks through the frame layout
//! and the exactly-once resumption protocol; the [`async_bridge`] module
//! builds `std::future::Future` support on top.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod async_bridge;
pub mod dag;
pub mod futures;
mod in_place;
mod pair;
pub mod scope;
#[cfg(test)]
mod scribble;
pub mod vertex;

pub use async_bridge::AsyncStrand;
pub use dag::{run_dag, run_dag_watched, Ctx, DagRunStats};
pub use futures::{FutureHandle, StrandTouch};
pub use scope::Scope;
pub use vertex::{Strand, StrandPoll, Vertex};

/// Await a future inside a [`Strand`] body: evaluates to `&T` when the
/// future is ready, otherwise returns [`StrandPoll::Parked`] from the
/// enclosing `resume`/closure (the obligatory protocol after a parked
/// [`Ctx::touch_await`]).
///
/// ```
/// use incounter::{DynConfig, DynSnzi};
/// use spdag::{run_dag, strand_await, StrandPoll};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let out = Arc::new(AtomicU64::new(0));
/// let o = Arc::clone(&out);
/// run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |mut ctx| {
///     let f = ctx.future(|_| 21u64);
///     let o = Arc::clone(&o);
///     ctx.fork_strand(move |c: &mut spdag::Ctx<'_, DynSnzi>| {
///         let v = *strand_await!(c, &f);
///         o.store(v * 2, Ordering::Relaxed);
///         StrandPoll::Done(())
///     });
/// });
/// assert_eq!(out.load(Ordering::Relaxed), 42);
/// ```
#[macro_export]
macro_rules! strand_await {
    ($ctx:expr, $future:expr) => {
        match $ctx.touch_await($future) {
            $crate::StrandTouch::Ready(value) => value,
            $crate::StrandTouch::Parked => return $crate::StrandPoll::Parked,
        }
    };
}
