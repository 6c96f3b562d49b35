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
//!   an event-count for idle parking, and one way to end a run (a
//!   done-flag set by the computation's final task, so no shared counter
//!   is touched per task). No thread is born per run: the caller of
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
//! * [`rng`] — [`XorShift64Star`], the one pseudo-random generator of the
//!   runtime: steal victims here, growth coins in `snzi` and `outset`,
//!   and the cases of every randomized test battery ([`rng::battery`]).
//! * [`step`] — the one vocabulary the lock-free objects above commit
//!   their steps in: [`step::Shared`], by the atomic instruction, or
//!   [`step::Exclusive`], by a load and a store for an operation nothing
//!   overlaps, minted only by `unsafe`.
//!
//! The crates above take their substrate primitives from here, one copy
//! each: the generator, and the core count ([`num_cpus`], probed once per
//! process). Locks are `std::sync`'s, taken through a crate-private helper
//! that ignores poisoning: the pool records and re-raises a panic itself,
//! and a lock whose holder unwound stays usable.
//!
//! The scheduler is deliberately *generic*: it knows nothing about sp-dags
//! or counters. The `spdag` crate supplies vertices as word-sized tasks.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod deque;
pub mod failpoint;
pub mod pool;
pub mod poolarc;
pub mod recycle;
pub mod rng;
pub mod slab;
pub mod step;

pub use deque::{StealResult, Stealer, Word, WorkerDeque};
pub use failpoint::{FaultMode, FaultPlan, SiteSpec};
pub use pool::{
    run, run_watched, PoolState, PoolStats, Termination, WatchdogCfg, WorkerCtx, STEAL_PAYS,
};
pub use poolarc::PoolArc;
pub use rng::XorShift64Star;
pub use slab::SlabPool;

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of hardware threads available, with a fallback of 1.
///
/// The probe runs once per process and is cached: one
/// `available_parallelism` call reads the cgroup and affinity state and
/// costs tens of microseconds (about 25 µs on a 2-core Xeon container host),
/// more than an empty one-worker run. Inlined, so that a caller on a hot
/// path (an out-set's growth policy, once per future) pays the cache's
/// load and test and no call.
#[inline]
pub fn num_cpus() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Lock `mutex`, ignoring poison: a holder that panicked leaves the lock
/// usable, and what it guards as the holder left it. Sound because every
/// critical section of this crate leaves its data valid at every step (a
/// push, pop or drain of a list, a slot set or taken, a counter bumped);
/// one that could stop halfway through an invariant must not use this.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Mutex::new(1);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = lock(&m);
                *g += 1;
                panic!("poison attempt");
            })
            .join()
            .is_err()
        });
        assert!(panicked);
        assert!(m.is_poisoned(), "std poisons the lock");
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 3, "the lock stays usable and keeps the holder's write");
    }
}
