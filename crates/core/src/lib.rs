//! # dynsnzi — provably low-contention dependency counting for nested parallelism
//!
//! A Rust implementation of *"Contention in Structured Concurrency:
//! Provably Efficient Dynamic Non-Zero Indicators for Nested Parallelism"*
//! (Acar, Ben-David, Rainey — PPoPP 2017).
//!
//! The paper's observation: general-purpose concurrent counters provably
//! suffer Ω(n) contention, but the *structured* concurrency of nested
//! parallelism (fork–join, async–finish) is exactly the discipline under
//! which a relaxed counter — a non-zero indicator — can be made to cost
//! **amortized O(1) work and O(1) contention** per operation. The library
//! provides, bottom to top:
//!
//! * [`snzi`] — Scalable Non-Zero Indicators with the paper's dynamic
//!   [`grow`](snzi::SnziTree::grow) extension, plus the fixed-depth
//!   variant used as a baseline;
//! * [`incounter`] — the in-counter dependency counter (Figure 5) and the
//!   [`CounterFamily`] abstraction over it, fetch-and-add, and fixed-depth
//!   SNZI;
//! * [`outset`] — the dual structure for dags whose edges are added at
//!   run time: concurrent out-sets broadcasting vertex completion to an
//!   unbounded set of dependents with O(1) amortized contention per
//!   registered edge;
//! * [`spdag`] — series-parallel dags with readiness detection
//!   (Figure 3), extended with future vertices and runtime-added
//!   dependency edges ([`Ctx::future`] / [`Ctx::touch`]), executed on
//! * [`sched`] — a from-scratch work-stealing scheduler (Chase–Lev
//!   deques).
//!
//! ## Quick start
//!
//! ```
//! use dynsnzi::Runtime;
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let total = Arc::new(AtomicU64::new(0));
//! let t = Arc::clone(&total);
//! Runtime::new().workers(2).run(move |ctx| {
//!     let (a, b) = (Arc::clone(&t), t);
//!     ctx.spawn(
//!         move |_| { a.fetch_add(1, Ordering::Relaxed); },
//!         move |_| { b.fetch_add(2, Ordering::Relaxed); },
//!     );
//! });
//! assert_eq!(total.load(Ordering::Relaxed), 3);
//! ```
//!
//! For returning values out of the dag, [`OutCell`] is a small convenience
//! around `Arc<Mutex<Option<T>>>`:
//!
//! ```
//! use dynsnzi::{Runtime, OutCell};
//!
//! let out = OutCell::new();
//! let o = out.clone();
//! Runtime::new().run(move |_ctx| o.set(21 * 2));
//! assert_eq!(out.take(), Some(42));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub use incounter;
pub use obs;
pub use outset;
pub use sched;
pub use snzi;
pub use spdag;

pub use incounter::{CounterFamily, DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};
pub use outset::{AddEdge, MutexOutset, OutsetFamily, TreeOutset};
pub use snzi::Probability;
pub use spdag::{
    run_dag, AsyncStrand, Ctx, DagRunStats, FutureHandle, Scope, Strand, StrandPoll, StrandTouch,
};

pub mod par;

pub use par::{parallel_for, parallel_for_then, parallel_reduce};

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::par::{parallel_for, parallel_for_then, parallel_reduce};
    pub use crate::{CounterFamily, Ctx, DynConfig, DynSnzi, OutCell, Probability, Runtime, Scope};
    pub use incounter::{FetchAdd, FixedConfig, FixedDepth};
    pub use obs::Snapshot;
    pub use outset::{MutexOutset, OutsetFamily, TreeOutset};
    pub use spdag::{
        run_dag, strand_await, AsyncStrand, FutureHandle, Strand, StrandPoll, StrandTouch,
    };
}

use std::sync::{Arc, Mutex};

/// A cloneable cell for carrying one result out of a dag computation.
pub struct OutCell<T>(Arc<Mutex<Option<T>>>);

impl<T> Clone for OutCell<T> {
    fn clone(&self) -> Self {
        OutCell(Arc::clone(&self.0))
    }
}

impl<T> Default for OutCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OutCell<T> {
    /// An empty cell.
    pub fn new() -> OutCell<T> {
        OutCell(Arc::new(Mutex::new(None)))
    }

    /// Store a value (replacing any previous one).
    pub fn set(&self, value: T) {
        *self.0.lock().unwrap() = Some(value);
    }

    /// Take the value out, if any.
    pub fn take(&self) -> Option<T> {
        self.0.lock().unwrap().take()
    }
}

/// Configured entry point for running nested-parallel computations.
///
/// `Runtime` is generic over the dependency-counter algorithm; the default
/// is the paper's in-counter ([`DynSnzi`]) with growth probability
/// `1/(25·cores)`, the setting the evaluation recommends.
pub struct Runtime<C: CounterFamily = DynSnzi> {
    workers: usize,
    cfg: C::Config,
}

impl Runtime<DynSnzi> {
    /// In-counter runtime with one worker per hardware thread and the
    /// recommended growth probability.
    pub fn new() -> Runtime<DynSnzi> {
        Runtime { workers: sched::num_cpus(), cfg: DynConfig::default() }
    }
}

impl Default for Runtime<DynSnzi> {
    fn default() -> Self {
        Runtime::new()
    }
}

impl<C: CounterFamily> Runtime<C> {
    /// A runtime over an explicit counter family and configuration — how
    /// the benchmarks instantiate the fetch-and-add and fixed-depth
    /// baselines on identical machinery.
    pub fn with_family(cfg: C::Config) -> Runtime<C> {
        Runtime { workers: sched::num_cpus(), cfg }
    }

    /// Set the number of workers (defaults to the hardware thread count).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Number of workers this runtime will use.
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// Execute `root` as the root body of a fresh sp-dag and block until
    /// the whole computation finishes.
    pub fn run<F>(&self, root: F) -> DagRunStats
    where
        F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
    {
        spdag::run_dag::<C, F>(self.cfg.clone(), self.workers, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn default_runtime_runs() {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::clone(&x);
        Runtime::new().run(move |_| {
            y.store(7, Ordering::Relaxed);
        });
        assert_eq!(x.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn out_cell_round_trip() {
        let c = OutCell::new();
        assert!(c.take().is_none());
        c.set(5);
        assert_eq!(c.take(), Some(5));
        assert!(c.take().is_none());
    }

    #[test]
    fn runtime_with_baseline_families() {
        let x = Arc::new(AtomicU64::new(0));
        let (a, b) = (Arc::clone(&x), Arc::clone(&x));
        Runtime::<FetchAdd>::with_family(()).workers(2).run(move |ctx| {
            ctx.spawn(
                move |_| {
                    a.fetch_add(1, Ordering::Relaxed);
                },
                move |_| {
                    b.fetch_add(1, Ordering::Relaxed);
                },
            );
        });
        assert_eq!(x.load(Ordering::Relaxed), 2);

        let y = Arc::new(AtomicU64::new(0));
        let z = Arc::clone(&y);
        Runtime::<FixedDepth>::with_family(FixedConfig { depth: 2 }).workers(2).run(move |_| {
            z.store(9, Ordering::Relaxed);
        });
        assert_eq!(y.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn grow_probability_builder() {
        let cfg = DynConfig { p: Probability::ALWAYS, ..DynConfig::default() };
        let rt = Runtime::<DynSnzi>::with_family(cfg).workers(3);
        assert_eq!(rt.cfg.p, Probability::ALWAYS);
        assert_eq!(rt.num_workers(), 3);
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::clone(&x);
        rt.run(move |_| {
            y.store(1, Ordering::Relaxed);
        });
        assert_eq!(x.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn workers_clamped_to_one() {
        assert_eq!(Runtime::new().workers(0).num_workers(), 1);
    }
}
