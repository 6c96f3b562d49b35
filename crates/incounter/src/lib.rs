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
//! | family | counter object | increment | decrement | exclusive twins |
//! |---|---|---|---|---|
//! | [`DynSnzi`] | dynamic SNZI tree | `grow` + `arrive` at a fresh child | `depart` at the claimed handle | `grow` + `SnziTree::arrive_exclusive`; `depart_exclusive` |
//! | [`FetchAdd`] | one padded atomic cell | `fetch_add` | `fetch_sub` | a load and a store of the cell |
//! | [`FixedDepth`] | complete SNZI tree of depth `d` | `arrive` at a hashed leaf | `depart` at the same leaf | `FixedSnzi::{arrive_leaf,depart_leaf,depart_root}_exclusive` |
//!
//! Every family states its own **exclusive twins**,
//! [`CounterFamily::increment_exclusive`] and
//! [`CounterFamily::decrement_exclusive`]: the same operation for a caller
//! that has the counter to itself, each of its steps committed by a load
//! and a store instead of a locked read-modify-write (for the SNZI families
//! the same state machine, `snzi::node`'s "Two ways to commit a step"). The
//! dag layer takes them in a one-worker run, where the run's one thread is
//! the only one that can reach a counter. They are required methods with
//! no default, so a comparison of families at W = 1 compares each family's
//! own exclusive cost, not one family's shared cost against another's
//! exclusive one. [`DecPair::claim_last_exclusive`] is the pair's twin.
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

pub mod decpair;
pub mod dyn_family;
pub mod fetch_add;
pub mod fixed_family;

pub use decpair::DecPair;
pub use dyn_family::{DynConfig, DynSnzi};
pub use fetch_add::FetchAdd;
pub use fixed_family::{FixedConfig, FixedDec, FixedDepth};

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
    unsafe fn increment(
        cfg: &Self::Config,
        counter: &Self::Counter,
        inc: Self::Inc,
        is_left: bool,
        vid: u64,
    ) -> (Self::Dec, Self::Inc, Self::Inc);

    /// Remove one unit of surplus at `dec`; returns `true` iff the counter
    /// reached zero — the readiness signal.
    ///
    /// # Safety
    /// See the trait-level contract.
    unsafe fn decrement(counter: &Self::Counter, dec: Self::Dec) -> bool;

    /// [`increment`](CounterFamily::increment) for a caller that has the
    /// counter to itself: the same transitions and the same results, with
    /// no locked instruction where `increment` needs one only against
    /// another thread.
    ///
    /// # Safety
    /// As [`increment`](CounterFamily::increment), and no other
    /// `increment` or `decrement` on `counter` — shared or exclusive — may
    /// overlap this call on any thread: each is ordered before or after it.
    unsafe fn increment_exclusive(
        cfg: &Self::Config,
        counter: &Self::Counter,
        inc: Self::Inc,
        is_left: bool,
        vid: u64,
    ) -> (Self::Dec, Self::Inc, Self::Inc);

    /// [`decrement`](CounterFamily::decrement) for a caller that has the
    /// counter to itself, as
    /// [`increment_exclusive`](CounterFamily::increment_exclusive) is
    /// `increment`'s.
    ///
    /// # Safety
    /// As [`decrement`](CounterFamily::decrement), and as for
    /// [`increment_exclusive`](CounterFamily::increment_exclusive) no other
    /// operation on `counter` may overlap this call.
    unsafe fn decrement_exclusive(counter: &Self::Counter, dec: Self::Dec) -> bool;

    /// Non-destructive zero test (the paper's `is_zero`; one root read).
    fn is_zero(counter: &Self::Counter) -> bool;

    /// Build the shared decrement pair for two sibling vertices from the
    /// inherited (higher) and fresh (lower) handles, in the paper's order:
    /// inherited first, so higher nodes are decremented earlier
    /// (Lemma 4.6). No family overrides it.
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
    //! readiness — once with the shared operations and once with the
    //! exclusive twins, which must give the same answers. The real
    //! concurrent discipline is tested in `spdag`.

    use super::*;
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

    /// Which operations the driver takes: the shared ones or their
    /// exclusive twins (the driver is sequential, so both are allowed).
    #[derive(Clone, Copy, Debug)]
    enum Mode {
        Shared,
        Exclusive,
    }

    const MODES: [Mode; 2] = [Mode::Shared, Mode::Exclusive];

    fn claim<D: Copy>(pair: &DecPair<D>, mode: Mode) -> D {
        match mode {
            Mode::Shared => pair.claim(),
            // SAFETY: `pair` is borrowed for the call; the driver is
            // sequential, so no claim overlaps it.
            Mode::Exclusive => unsafe { DecPair::claim_last_exclusive(pair) }.0,
        }
    }

    /// spawn: one increment, two children sharing the fresh pair.
    fn spawn<C: CounterFamily>(
        cfg: &C::Config,
        u: &SimVertex<C>,
        vid: u64,
        mode: Mode,
    ) -> (SimVertex<C>, SimVertex<C>) {
        let (d2, i1, i2) = unsafe {
            match mode {
                Mode::Shared => C::increment(cfg, &u.counter, u.inc, u.is_left, vid),
                Mode::Exclusive => C::increment_exclusive(cfg, &u.counter, u.inc, u.is_left, vid),
            }
        };
        let d1 = claim(&u.pair, mode);
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
    fn signal<C: CounterFamily>(u: &SimVertex<C>, mode: Mode) -> bool {
        let d = claim(&u.pair, mode);
        unsafe {
            match mode {
                Mode::Shared => C::decrement(&u.counter, d),
                Mode::Exclusive => C::decrement_exclusive(&u.counter, d),
            }
        }
    }

    fn exercise_family<C: CounterFamily>(cfg: C::Config) {
        // Build a random-ish binary spawn tree of leaves, then signal all
        // leaves; the counter must report zero exactly once, at the end —
        // and every signal must answer the same in both modes.
        for depth in 0..6u32 {
            let answers = MODES.map(|mode| {
                let root = root_vertex::<C>(&cfg);
                let mut frontier = vec![root.clone()];
                let mut vid = 0u64;
                for _ in 0..depth {
                    let mut next = Vec::new();
                    for u in frontier {
                        vid += 1;
                        let (v, w) = spawn::<C>(&cfg, &u, vid, mode);
                        next.push(v);
                        next.push(w);
                    }
                    frontier = next;
                }
                assert!(!C::is_zero(&root.counter), "depth {depth} {mode:?}: live leaves pending");
                let total = frontier.len();
                let signals: Vec<bool> =
                    frontier.iter().map(|leaf| signal::<C>(leaf, mode)).collect();
                let zeros: Vec<usize> = (0..total).filter(|&i| signals[i]).collect();
                assert_eq!(
                    zeros,
                    [total - 1],
                    "depth {depth} {mode:?}: one readiness signal, the last"
                );
                assert!(C::is_zero(&root.counter));
                signals
            });
            assert_eq!(answers[0], answers[1], "depth {depth}: the two modes disagree");
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
        fn drive<C: CounterFamily>(cfg: C::Config) {
            for mode in MODES {
                let root = root_vertex::<C>(&cfg);
                let (v, w) = spawn::<C>(&cfg, &root, 1, mode);
                let (vl, vr) = spawn::<C>(&cfg, &v, 2, mode);
                assert!(!signal::<C>(&vl, mode));
                assert!(!C::is_zero(&root.counter));
                let (wl, wr) = spawn::<C>(&cfg, &w, 3, mode);
                assert!(!signal::<C>(&wl, mode));
                assert!(!signal::<C>(&vr, mode));
                assert!(!C::is_zero(&root.counter));
                assert!(signal::<C>(&wr, mode), "last strand must report zero ({mode:?})");
                assert!(C::is_zero(&root.counter));
            }
        }
        drive::<DynSnzi>(DynConfig::always_grow());
        drive::<FetchAdd>(());
        drive::<FixedDepth>(FixedConfig { depth: 3 });
    }
}
