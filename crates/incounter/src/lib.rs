//! # incounter — dependency counters for series-parallel dags
//!
//! This crate implements the paper's **in-counter** (Figure 5): a relaxed
//! dependency counter attached to each finish vertex of an sp-dag, built on
//! a dynamic SNZI tree, together with the two baselines the evaluation
//! compares against — a single-cell fetch-and-add counter and a fixed-depth
//! SNZI tree.
//!
//! All three live behind one abstraction, [`CounterFamily`], so the sp-dag
//! machinery and the benchmarks are generic over the counter algorithm:
//!
//! | family | counter object | increment | decrement |
//! |---|---|---|---|
//! | [`DynSnzi`] | dynamic SNZI tree | `grow` + `arrive` at a fresh child | `depart` at the claimed handle |
//! | [`FetchAdd`] | one padded atomic cell | `fetch_add` | `fetch_sub` |
//! | [`FixedDepth`] | a [`snzi::SnziTree`] grown complete to depth `d`, and its leaf table | `arrive` at a hashed leaf | `depart` at the same leaf |
//!
//! Every family writes each operation once, generic over the
//! [`sched::step::Step`] it is handed ([`CounterFamily::increment_with`],
//! [`CounterFamily::decrement_with`]; [`DecPair::claim_last`] too): the
//! locked read-modify-write, or a load and a store for a caller that has
//! the counter to itself, as a one-worker run's dag layer has. So a
//! comparison of families at W = 1 compares each family's own exclusive
//! cost.
//!
//! The piece of the in-counter protocol that is *independent* of the
//! algorithm — the ordered pair of decrement handles shared between two
//! sibling dag vertices and claimed by test-and-set — is [`DecPair`]. The
//! ordering discipline (the inherited, higher-in-the-tree handle is always
//! claimed first) is what makes Lemma 4.6 and hence the O(1) contention
//! bound work.
//!
//! ## Validity
//!
//! A counter execution is *valid* (the paper's Definition 1) when every
//! decrement uses a handle returned by an earlier increment, exactly once.
//! The sp-dag layer guarantees this structurally; this crate checks it
//! dynamically in debug builds (triple claims on a pair panic, and the
//! underlying SNZI nodes assert non-negative surplus).
//!
//! ```
//! use incounter::{CounterFamily, DecPair, DynConfig, DynSnzi};
//!
//! // One spawn's worth of the Figure 5 discipline, by hand:
//! let cfg = DynConfig::always_grow();
//! let counter = DynSnzi::make(&cfg, 1); // a finish vertex with count 1
//! let root_dec = DynSnzi::root_dec(&counter);
//! let pair = DecPair::new(root_dec, root_dec);
//!
//! // increment: grow + arrive, then claim the inherited handle.
//! let (d2, _i1, _i2) = unsafe {
//!     DynSnzi::increment(&cfg, &counter, DynSnzi::root_inc(&counter), true, 0)
//! };
//! let d1 = pair.claim();
//! let child_pair = DecPair::new(d1, d2);
//!
//! // The two children eventually signal; the second one zeroes the counter.
//! assert!(!unsafe { DynSnzi::decrement(&counter, child_pair.claim()) });
//! assert!(unsafe { DynSnzi::decrement(&counter, child_pair.claim()) });
//! assert!(DynSnzi::is_zero(&counter));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod decpair;
pub mod dyn_family;
pub mod fetch_add;
pub mod fixed_family;

pub use decpair::DecPair;
pub use dyn_family::{DynConfig, DynSnzi};
pub use fetch_add::FetchAdd;
pub use fixed_family::{FixedConfig, FixedDec, FixedDepth, FixedTree};

use sched::step::{Shared, Step};

/// A family of dependency-counter implementations usable by the sp-dag.
///
/// One `Counter` instance exists per finish scope that forks (`spdag`
/// makes it at the scope's first increment); `Inc` and `Dec` are small
/// copyable handles aimed into that counter which the dag threads through
/// its vertices (the paper's increment/decrement handles).
///
/// # Safety contract
/// The `unsafe` methods require that the handles passed in were produced by
/// (or for) the given `&Counter`, that the counter outlives the call, and
/// that the execution is valid in the paper's sense. The `spdag` crate
/// upholds all three by construction.
pub trait CounterFamily: 'static {
    /// Family-wide configuration (growth probability, tree depth, ...).
    type Config: Clone + Send + Sync + Default;
    /// The per-finish-vertex counter object.
    type Counter: Send + Sync;
    /// Increment handle: where an `increment` starts.
    type Inc: Copy + Send + Sync;
    /// Decrement handle: where a `decrement` starts.
    type Dec: Copy + Send + Sync;

    /// Short display name used by the benchmark reports
    /// (`"incounter"`, `"fetch-add"`, `"snzi-fixed"`).
    const NAME: &'static str;

    /// Create a counter with initial count `n` (the paper's `make`).
    fn make(cfg: &Self::Config, n: u64) -> Self::Counter;

    /// Handle for increments that should start at the counter's root.
    fn root_inc(counter: &Self::Counter) -> Self::Inc;

    /// Handle for the decrement matching the counter's initial surplus.
    fn root_dec(counter: &Self::Counter) -> Self::Dec;

    /// The algorithm-specific part of Figure 5's `increment`: notify the
    /// structure of growth pressure, add one unit of surplus, and return
    /// `(d2, i1, i2)` — the fresh decrement handle pointing where the
    /// arrive happened plus the two increment handles for the new dag
    /// vertices. (Claiming the inherited handle `d1` is the caller's job,
    /// via [`DecPair::claim`], *after* this returns — the paper's ordering
    /// invariant.)
    ///
    /// `is_left` is whether the incrementing vertex is a left child (it
    /// selects the arrive target among the two children, spreading load);
    /// `vid` is an identifier for the incrementing vertex used by hashed
    /// placement in [`FixedDepth`].
    ///
    /// # Safety
    /// See the trait-level contract.
    //
    // `#[inline]`: a caller calls the family's shared `increment_with`
    // instance itself, through no wrapper.
    #[inline]
    unsafe fn increment(
        cfg: &Self::Config,
        counter: &Self::Counter,
        inc: Self::Inc,
        is_left: bool,
        vid: u64,
    ) -> (Self::Dec, Self::Inc, Self::Inc) {
        // SAFETY: forwarded from the trait contract.
        unsafe { Self::increment_with(cfg, counter, inc, is_left, vid, Shared) }
    }

    /// Remove one unit of surplus at `dec`; returns `true` iff the counter
    /// reached zero — the readiness signal.
    ///
    /// # Safety
    /// See the trait-level contract.
    #[inline]
    unsafe fn decrement(counter: &Self::Counter, dec: Self::Dec) -> bool {
        // SAFETY: forwarded from the trait contract.
        unsafe { Self::decrement_with(counter, dec, Shared) }
    }

    /// [`increment`](CounterFamily::increment) with each step committed by
    /// `step`: the family's one body of it, which `increment` calls with
    /// [`Shared`]. An
    /// [`Exclusive`](sched::step::Exclusive) step's promise covers every
    /// `increment` and `decrement` on `counter`.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn increment_with<S: Step>(
        cfg: &Self::Config,
        counter: &Self::Counter,
        inc: Self::Inc,
        is_left: bool,
        vid: u64,
        step: S,
    ) -> (Self::Dec, Self::Inc, Self::Inc);

    /// [`decrement`](CounterFamily::decrement) with each step committed by
    /// `step`, as [`increment_with`](CounterFamily::increment_with) is
    /// `increment`'s.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn decrement_with<S: Step>(counter: &Self::Counter, dec: Self::Dec, step: S) -> bool;

    /// Non-destructive zero test (the paper's `is_zero`; one root read).
    fn is_zero(counter: &Self::Counter) -> bool;

    /// `DecPair::new(inherited, fresh)`. No family overrides it, and the
    /// runtime builds its pairs with [`DecPair::new`]; the benchmark's
    /// layer prices (`benchmark/src/layers.rs`) still call it.
    fn make_pair(
        _cfg: &Self::Config,
        inherited: Self::Dec,
        fresh: Self::Dec,
    ) -> DecPair<Self::Dec> {
        DecPair::new(inherited, fresh)
    }
}

#[cfg(test)]
mod family_tests {
    //! A sequential mini-dag driver exercising every family through the
    //! exact handle discipline the sp-dag uses, checking exactly-once
    //! readiness — once with shared steps and once with exclusive ones,
    //! which must give the same answers. The real concurrent discipline is
    //! tested in `spdag`.

    use super::*;
    use sched::step::Exclusive;
    use std::sync::Arc;

    /// A simulated dag vertex: its fin counter, handles and shared pair.
    struct SimVertex<C: CounterFamily> {
        counter: Arc<C::Counter>,
        inc: C::Inc,
        pair: Arc<DecPair<C::Dec>>,
        is_left: bool,
    }

    impl<C: CounterFamily> Clone for SimVertex<C> {
        fn clone(&self) -> Self {
            SimVertex {
                counter: Arc::clone(&self.counter),
                inc: self.inc,
                pair: Arc::clone(&self.pair),
                is_left: self.is_left,
            }
        }
    }

    fn root_vertex<C: CounterFamily>(cfg: &C::Config) -> SimVertex<C> {
        // Finish vertex with initial count 1, as in Dag.make.
        let counter = Arc::new(C::make(cfg, 1));
        let d = C::root_dec(&counter);
        SimVertex {
            inc: C::root_inc(&counter),
            pair: Arc::new(DecPair::new(d, d)),
            counter,
            is_left: true,
        }
    }

    /// The exclusive step for the driver's counters.
    fn exclusive() -> Exclusive<'static> {
        // SAFETY: each driver run steps counters and pairs of its own, on
        // one thread, one operation after another.
        unsafe { Exclusive::new() }
    }

    fn claim<D: Copy, S: Step>(pair: &DecPair<D>, step: S) -> D {
        // SAFETY: `pair` is borrowed for the call; the driver claims each
        // pair at most twice.
        unsafe { DecPair::claim_last(pair, step) }.0
    }

    /// spawn: one increment, two children sharing the fresh pair.
    fn spawn<C: CounterFamily, S: Step>(
        cfg: &C::Config,
        u: &SimVertex<C>,
        vid: u64,
        step: S,
    ) -> (SimVertex<C>, SimVertex<C>) {
        // SAFETY: `u.inc` was made for `u.counter`, which the vertex keeps
        // alive; the driver follows the sp-dag discipline.
        let (d2, i1, i2) =
            unsafe { C::increment_with(cfg, &u.counter, u.inc, u.is_left, vid, step) };
        let d1 = claim(&u.pair, step);
        let pair = Arc::new(DecPair::new(d1, d2));
        let v = SimVertex {
            counter: Arc::clone(&u.counter),
            inc: i1,
            pair: Arc::clone(&pair),
            is_left: true,
        };
        let w = SimVertex { counter: Arc::clone(&u.counter), inc: i2, pair, is_left: false };
        (v, w)
    }

    /// signal: claim a handle and decrement.
    fn signal<C: CounterFamily, S: Step>(u: &SimVertex<C>, step: S) -> bool {
        let d = claim(&u.pair, step);
        // SAFETY: as in `spawn`; `d` is this vertex's claimed handle.
        unsafe { C::decrement_with(&u.counter, d, step) }
    }

    /// A binary spawn tree of `depth` levels, then every leaf signals; the
    /// signals' answers.
    fn spawn_tree<C: CounterFamily, S: Step>(cfg: &C::Config, depth: u32, step: S) -> Vec<bool> {
        let root = root_vertex::<C>(cfg);
        let mut frontier = vec![root.clone()];
        let mut vid = 0u64;
        for _ in 0..depth {
            let mut next = Vec::new();
            for u in frontier {
                vid += 1;
                let (v, w) = spawn::<C, S>(cfg, &u, vid, step);
                next.push(v);
                next.push(w);
            }
            frontier = next;
        }
        assert!(!C::is_zero(&root.counter), "depth {depth}: live leaves pending");
        let signals: Vec<bool> = frontier.iter().map(|leaf| signal::<C, S>(leaf, step)).collect();
        assert!(C::is_zero(&root.counter));
        signals
    }

    fn exercise_family<C: CounterFamily>(cfg: C::Config) {
        // The counter must report zero exactly once, at the last signal —
        // and every signal must answer the same in both modes.
        for depth in 0..6u32 {
            let shared = spawn_tree::<C, _>(&cfg, depth, Shared);
            let zeros: Vec<usize> = (0..shared.len()).filter(|&i| shared[i]).collect();
            assert_eq!(zeros, [shared.len() - 1], "depth {depth}: one readiness signal, the last");
            let exclusive = spawn_tree::<C, _>(&cfg, depth, exclusive());
            assert_eq!(shared, exclusive, "depth {depth}: the two modes disagree");
        }
    }

    #[test]
    fn dyn_family_exactly_once() {
        exercise_family::<DynSnzi>(DynConfig::default());
        exercise_family::<DynSnzi>(DynConfig::always_grow());
        exercise_family::<DynSnzi>(DynConfig::never_grow());
    }

    #[test]
    fn fetch_add_exactly_once() {
        exercise_family::<FetchAdd>(());
    }

    #[test]
    fn fixed_depth_exactly_once() {
        for d in 0..6 {
            exercise_family::<FixedDepth>(FixedConfig { depth: d });
        }
    }

    #[test]
    fn interleaved_spawn_signal_mix() {
        // Signal some leaves before spawning others: counter must stay
        // non-zero while any strand is outstanding.
        fn drive<C: CounterFamily, S: Step>(cfg: &C::Config, s: S) {
            let root = root_vertex::<C>(cfg);
            let (v, w) = spawn::<C, S>(cfg, &root, 1, s);
            let (vl, vr) = spawn::<C, S>(cfg, &v, 2, s);
            assert!(!signal::<C, S>(&vl, s));
            assert!(!C::is_zero(&root.counter));
            let (wl, wr) = spawn::<C, S>(cfg, &w, 3, s);
            assert!(!signal::<C, S>(&wl, s));
            assert!(!signal::<C, S>(&vr, s));
            assert!(!C::is_zero(&root.counter));
            assert!(signal::<C, S>(&wr, s), "the last strand must report zero");
            assert!(C::is_zero(&root.counter));
        }
        fn both<C: CounterFamily>(cfg: C::Config) {
            drive::<C, _>(&cfg, Shared);
            drive::<C, _>(&cfg, exclusive());
        }
        both::<DynSnzi>(DynConfig::always_grow());
        both::<FetchAdd>(());
        both::<FixedDepth>(FixedConfig { depth: 3 });
    }
}
