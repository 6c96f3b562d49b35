//! # outset — concurrent out-sets for dynamic dag edges
//!
//! The paper's in-counter answers the *in-edge* question of dag-calculus
//! readiness detection: "have all my dependencies finished?". This crate
//! answers the dual *out-edge* question raised by dags whose edges are
//! added at **run time** (futures, pipelines, async–finish beyond strict
//! series-parallel shape): when a vertex finishes, which dependents must
//! be notified — given that dependents may still be registering while the
//! vertex is finishing?
//!
//! An **out-set** is a single-use concurrent set of dependent-edge tokens
//! with two operations racing each other:
//!
//! * [`OutsetFamily::add`] — register a dependent edge. Lock-free in the
//!   tree implementation: an add claims a slot with one fetch-and-add on
//!   a lane-local cursor and publishes its token with one CAS.
//! * [`OutsetFamily::finish`] — one-shot: seal the set and *sweep* every
//!   registered token to a sink, exactly once.
//!
//! The add/finish race is resolved per slot: either the sweep claims the
//! slot (and delivers the token) or the adder observes the seal first and
//! gets the token back ([`AddEdge::Finished`]) to deliver **inline** —
//! the dependency it was about to record is already satisfied. Every
//! token is therefore delivered exactly once, on exactly one side.
//!
//! Two implementations live behind the [`OutsetFamily`] trait, mirroring
//! the `CounterFamily` pattern the benchmarks use to compare counter
//! algorithms on identical machinery:
//!
//! | family | add path | finish path |
//! |---|---|---|
//! | [`TreeOutset`] | lane-hashed tree of slot blocks, one fetch-add + one CAS, O(1) amortized contention per add when keys spread | seal flag + per-slot swap sweep |
//! | [`MutexOutset`] | global `Mutex<Vec>` push | lock, drain, deliver |
//!
//! The tree's lane table is **adaptive**: every out-set is born on a
//! single lane (a single-dependent future pays one word of lane metadata)
//! and doubles under observed contention — an adder that loses its
//! block-install CAS flips a `p = 1/2` coin toward a split, up to
//! [`TreeOutsetObj::max_lanes`](tree::TreeOutsetObj::max_lanes), the
//! out-set analogue of the in-counter's probabilistic `grow`. See [`tree`]
//! for the mechanism and `docs/outset-contention.md` for the contention
//! accounting.
//!
//! Slot blocks are **recycled**: an out-set owns its blocks until it
//! drops, and its `Drop` hands each one to the per-worker slab caches of
//! one `sched::SlabPool` ([`tree::block_pool`], whose gauges are the
//! probes), so steady-state future churn reaches zero allocator traffic.
//!
//! ```
//! use outset::{AddEdge, OutsetFamily, TreeOutset};
//!
//! let set = TreeOutset::make();
//! assert!(matches!(TreeOutset::add(&set, 41, 0), AddEdge::Registered));
//! let mut delivered = Vec::new();
//! assert!(TreeOutset::finish(&set, &mut |t| delivered.push(t)));
//! assert_eq!(delivered, vec![41]);
//! // After the seal, adds hand the token back for inline delivery.
//! assert!(matches!(TreeOutset::add(&set, 7, 0), AddEdge::Finished(7)));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod mutex;
pub mod tree;

pub use mutex::MutexOutset;
pub use tree::{TreeOutset, BLOCK_SLOTS};

use sched::step::{Shared, Step};

/// Outcome of registering a dependent edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a Finished result carries a token the caller must deliver inline"]
pub enum AddEdge {
    /// The edge is registered; the token will be handed to the sink of the
    /// (unique, future) [`OutsetFamily::finish`] sweep.
    Registered,
    /// The out-set was already sealed (or the concurrent sweep claimed the
    /// slot first): completion has happened, the edge is already
    /// satisfied, and the **caller** must deliver the returned token now.
    Finished(u64),
}

/// A family of out-set implementations, generically drivable by the dag
/// runtime and the benchmarks.
///
/// Tokens are arbitrary `u64` payloads except the three top values
/// (`u64::MAX - 2 ..= u64::MAX`), which the slot-based implementation
/// reserves for its slot states and the recycler's poison stamp;
/// [`OutsetFamily::add`] panics on them. The dag runtime stores vertex
/// addresses, which can never collide with those.
pub trait OutsetFamily: 'static {
    /// The per-vertex out-set object.
    type Outset: Send + Sync;

    /// Short display name used by benchmark reports
    /// (`"outset-tree"`, `"outset-mutex"`).
    const NAME: &'static str;

    /// Create an empty, unsealed out-set.
    fn make() -> Self::Outset;

    /// Register dependent-edge `token`. `key` spreads concurrent adders
    /// over internal structure (pass a worker/thread id or vertex
    /// address); correctness never depends on it.
    //
    // `#[inline(never)]`: the shared add and finish stay one instance
    // each, called, so `spdag`'s registration step (which inlines the
    // exclusive ones) stays small enough to inline into `touch`.
    #[inline(never)]
    fn add(out: &Self::Outset, token: u64, key: u64) -> AddEdge {
        Self::add_with(out, token, key, Shared)
    }

    /// Seal the set and deliver every registered token to `sink`, exactly
    /// once across both delivery sides (see [`AddEdge::Finished`]).
    ///
    /// Returns `true` for the unique call that performed the seal;
    /// subsequent calls return `false` and deliver nothing.
    #[inline(never)]
    fn finish(out: &Self::Outset, sink: &mut dyn FnMut(u64)) -> bool {
        Self::finish_with(out, sink, Shared)
    }

    /// [`add`](OutsetFamily::add) with each step committed by `step`: the
    /// same transitions and the same result, which `add` gets with
    /// [`Shared`]. An
    /// [`Exclusive`](sched::step::Exclusive) step's promise covers every
    /// `add` and `finish` on `out`.
    fn add_with<S: Step>(out: &Self::Outset, token: u64, key: u64, step: S) -> AddEdge;

    /// [`finish`](OutsetFamily::finish) with each step committed by
    /// `step`, as [`add_with`](OutsetFamily::add_with) is `add`'s.
    fn finish_with<S: Step>(out: &Self::Outset, sink: &mut dyn FnMut(u64), step: S) -> bool;

    /// Whether [`finish`](OutsetFamily::finish) has already sealed the set
    /// (a racy snapshot, useful only as a hint or in quiescent states).
    fn is_finished(out: &Self::Outset) -> bool;
}

#[cfg(test)]
mod family_tests {
    use super::*;

    fn exercise<F: OutsetFamily>() {
        // Sequential exactly-once, order-insensitive.
        let set = F::make();
        assert!(!F::is_finished(&set));
        for t in 0..100u64 {
            assert_eq!(F::add(&set, t * 3, t), AddEdge::Registered);
        }
        let mut got = Vec::new();
        assert!(F::finish(&set, &mut |t| got.push(t)));
        got.sort_unstable();
        assert_eq!(got, (0..100u64).map(|t| t * 3).collect::<Vec<_>>());
        assert!(F::is_finished(&set));

        // Second finish: no seal, no deliveries.
        let mut again = Vec::new();
        assert!(!F::finish(&set, &mut |t| again.push(t)));
        assert!(again.is_empty());

        // Post-seal adds bounce back for inline delivery.
        assert_eq!(F::add(&set, 777, 5), AddEdge::Finished(777));

        // The three top tokens are reserved on every family, sealed or not.
        let fresh = F::make();
        for token in u64::MAX - 2..=u64::MAX {
            for set in [&set, &fresh] {
                let add = std::panic::AssertUnwindSafe(|| F::add(set, token, 0));
                assert!(std::panic::catch_unwind(add).is_err(), "{}: {token} accepted", F::NAME);
            }
        }
        assert!(F::finish(&fresh, &mut |t| panic!("{}: a rejected token {t} was kept", F::NAME)));
    }

    #[test]
    fn tree_family_contract() {
        exercise::<TreeOutset>();
    }

    #[test]
    fn mutex_family_contract() {
        exercise::<MutexOutset>();
    }

    #[test]
    fn empty_finish_is_fine() {
        let set = TreeOutset::make();
        let mut got = Vec::new();
        assert!(TreeOutset::finish(&set, &mut |t| got.push(t)));
        assert!(got.is_empty());
    }
}
