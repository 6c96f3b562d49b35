//! # sched — work-stealing scheduler substrate
//!
//! The PPoPP'17 evaluation runs its benchmarks on "a state-of-the-art
//! implementation of a work-stealing scheduler". This crate is that
//! substrate, built from scratch:
//!
//! * [`deque`] — a Chase–Lev work-stealing deque. Slots are relaxed
//!   atomics (the C11 formulation of Lê, Pop, Cohen and Nardelli,
//!   PPoPP'13), so the implementation contains no benign-but-undefined
//!   data races. Payloads are machine words; the [`Word`] trait converts
//!   owning types (e.g. `Box<T>`, raw vertex pointers) to and from words
//!   without extra allocation.
//! * [`pool`] — a worker pool: one deque per worker, randomized stealing,
//!   an event-count for idle parking, and two termination modes
//!   (an explicit done-flag set by the computation's final task — the
//!   contention-free mode used for dag execution — or global quiescence
//!   for task-soup workloads). No thread is born per run: the caller of
//!   [`run`] is worker 0 and the other workers are leased from a
//!   process-wide set of resident helper threads.
//! * [`slab`] — bounded per-worker caches of uniform raw blocks in front
//!   of a global depot, so block-recycling layers above (the out-set)
//!   reach zero allocator traffic in steady state. A cache is two
//!   intrusive thread-local magazines: a hit performs no atomic
//!   read-modify-write and touches no shared word, and a miss moves one
//!   whole magazine under one lock without reading a slab. Every
//!   participant of a run flushes its caches before it reports done, so
//!   [`run`]'s return is the point at which the gauges are exact.
//! * [`recycle`] — a fixed ladder of *size-class* slab pools (each one a
//!   [`SlabPool`]) behind one typed `alloc`/`free` pair, serving the
//!   layers whose hot objects are generic and so can't own a typed pool:
//!   dag vertices, decrement pairs, pooled refcount headers and spilled
//!   strand frames. Always on: an object's class is its layout's.
//! * [`poolarc`] — [`PoolArc`], an `Arc` twin whose header allocation is
//!   recycled through the size classes.
//!
//! The scheduler is deliberately *generic*: it knows nothing about sp-dags
//! or counters. The `spdag` crate supplies vertices as word-sized tasks.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod deque;
pub mod failpoint;
pub mod pool;
pub mod poolarc;
pub mod recycle;
pub mod rng;
pub mod slab;

pub use deque::{StealResult, Stealer, Word, WorkerDeque};
pub use failpoint::{FaultMode, FaultPlan, SiteSpec};
pub use pool::{
    run, run_watched, PoolState, PoolStats, Termination, WatchdogCfg, WorkerCtx, STEAL_PAYS,
};
pub use poolarc::PoolArc;
pub use slab::SlabPool;

/// Number of hardware threads available, with a fallback of 1.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
