//! The SNZI root object (SNZI-R) with a version-tagged indicator word.
//!
//! The root is where `query` happens: it must expose a single word whose
//! value says "the whole tree has surplus". The difficulty is keeping that
//! word consistent with the counter without making every arrive/depart
//! write it (which would defeat the filtering). The SNZI paper's solution,
//! implemented here with the version tag made explicit:
//!
//! * The root word `X = (c, a, v)` carries the counter, an *announce* bit
//!   and a version. An arrival that performs the 0→1 transition starts a
//!   new non-zero **period**: it bumps `v` and sets `a = true`.
//! * The indicator word `I = (ver, bit)` is published with a
//!   version-monotonic CAS loop (`publish_indicator`): it only ever moves
//!   forward in version. The transitioning arrival publishes
//!   `I = (v, true)` and then clears the announce bit.
//! * A departure **helps**: while it observes `a = true` it republishes the
//!   indicator and clears the bit before it is allowed to decrement. This
//!   guarantees that when a departure takes `c` from 1 to 0 in period `v`,
//!   the indicator already carries version ≥ `v`, so the single
//!   `CAS(I, (v,true), (v,false))` correctly ends the period — and fails
//!   harmlessly if a newer period has already begun.
//!
//! The boolean returned by `Root::depart` is therefore an exactly-once
//! "this departure ended the non-zero period" signal, which is what the
//! sp-dag layer uses for readiness detection.
//!
//! Like the nodes' (`crate::node`, "Two ways to commit a step"), every
//! operation here is generic over how a step commits: an `AcqRel` CAS
//! when another operation may overlap, a load and a store when none can.
//! The announce bit exists for overlapping operations — a departure that
//! finds it set helps publish the indicator before it decrements — and an
//! operation alone on the tree never finds it set: the arrival that raises
//! it publishes and clears it before it returns. It is raised and cleared
//! in both modes all the same, so the root word, the indicator and their
//! version numbers go through the same values either way.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use sched::step::Step;

use crate::node::{ChildPair, OpPath};
use crate::packed::{pack_ind, pack_root, unpack_ind, unpack_root, MAX_ROOT_SURPLUS};
use crate::stats::Touches;

/// The root of a SNZI tree.
///
/// Aligned like [`Node`](crate::Node) to keep the root word and indicator
/// from false-sharing with neighbouring allocations.
#[repr(align(128))]
pub struct Root {
    /// Packed `(c, a, v)`.
    x: AtomicU64,
    /// Packed `(ver, bit)` indicator; read by `query`.
    ind: AtomicU64,
    /// Children pair, installed at most once by `grow`.
    pub(crate) children: AtomicPtr<ChildPair>,
    /// Identity of the owning tree, for debug validation of handles.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) tree_id: u32,
    /// Number of operations performing a non-trivial step here (excludes
    /// `query`, which is a trivial read). Zero-sized without `telemetry`.
    pub(crate) touches: Touches,
}

// SAFETY: same argument as `Node`.
unsafe impl Send for Root {}
// SAFETY: same argument as `Node`.
unsafe impl Sync for Root {}

impl Root {
    /// Create a root with `initial` surplus. A non-zero initial surplus
    /// opens period 1 with the indicator already set.
    pub(crate) fn new(initial: u32, tree_id: u32) -> Root {
        assert!(initial <= MAX_ROOT_SURPLUS, "initial surplus too large");
        let (x, ind) = if initial == 0 {
            (pack_root(0, false, 0), pack_ind(0, false))
        } else {
            (pack_root(initial, false, 1), pack_ind(1, true))
        };
        Root {
            x: AtomicU64::new(x),
            ind: AtomicU64::new(ind),
            children: AtomicPtr::new(std::ptr::null_mut()),
            tree_id,
            touches: Touches::default(),
        }
    }

    /// Commit one step on `word` (the root word or the indicator),
    /// tallying it if it landed.
    #[inline(always)]
    fn cas<S: Step>(&self, step: S, word: &AtomicU64, old: u64, new: u64) -> bool {
        self.touches.count(step, step.cas(word, old, new, Ordering::AcqRel))
    }

    /// Append the packed `(c, a, v)` root word, the `(ver, bit)` indicator
    /// and the touch tally (0 without `telemetry`) (differential tests).
    #[cfg(test)]
    pub(crate) fn state_for_test(&self, out: &mut Vec<u64>) {
        out.push(self.x.load(Ordering::Relaxed));
        out.push(self.ind.load(Ordering::Relaxed));
        out.push(self.touches.get());
    }

    /// `query`: read the indicator bit. A single trivial (read-only) step.
    #[inline]
    pub fn query(&self) -> bool {
        unpack_ind(self.ind.load(Ordering::Acquire)).1
    }

    /// Raise the indicator for period `ver`, never moving the version
    /// backwards. Idempotent and safe to call concurrently from the
    /// transitioning arrival and any number of helping departures.
    fn publish_indicator<S: Step>(&self, step: S, ver: u32) {
        loop {
            let i = self.ind.load(Ordering::Acquire);
            let (iv, _bit) = unpack_ind(i);
            if iv >= ver {
                return;
            }
            if self.cas(step, &self.ind, i, pack_ind(ver, true)) {
                return;
            }
        }
    }

    /// Clear the announce bit for period `ver` (a no-op if the period has
    /// moved on). Must only be called after `publish_indicator(ver)`.
    fn clear_announce<S: Step>(&self, step: S, ver: u32) {
        loop {
            let w = self.x.load(Ordering::Acquire);
            let (c, a, v) = unpack_root(w);
            if v != ver || !a {
                return;
            }
            if self.cas(step, &self.x, w, pack_root(c, false, v)) {
                return;
            }
        }
    }

    /// Arrive at the root.
    ///
    /// Note the helping rule (the SNZI paper's `if x'.a`): an arrival must
    /// publish the indicator whenever the value it *installed* still
    /// carries the announce bit — not only when it performed the 0→1
    /// transition itself. Otherwise this arrival could return while the
    /// transitioning thread is stalled before its publish, and a query by
    /// our caller (who must, by linearizability, observe a non-zero
    /// counter) would read a stale `false`.
    ///
    pub(crate) fn arrive<S: Step>(&self, step: S) -> OpPath {
        loop {
            let w = self.x.load(Ordering::Acquire);
            let (c, a, v) = unpack_root(w);
            assert!(c < MAX_ROOT_SURPLUS, "SNZI root surplus overflow");
            let (nc, na, nv) = if c == 0 { (1, true, v.wrapping_add(1)) } else { (c + 1, a, v) };
            if self.cas(step, &self.x, w, pack_root(nc, na, nv)) {
                if na {
                    self.publish_indicator(step, nv);
                    self.clear_announce(step, nv);
                }
                return OpPath { arrives: 1, departs: 0 };
            }
        }
    }

    /// Depart at the root. Returns `(ended_period, path)`: `ended_period`
    /// is true iff this departure took the counter to zero *and* closed
    /// the indicator for its period — i.e. the whole tree's surplus is
    /// gone and this caller is the unique witness.
    pub(crate) fn depart<S: Step>(&self, step: S) -> (bool, OpPath) {
        loop {
            let w = self.x.load(Ordering::Acquire);
            let (c, a, v) = unpack_root(w);
            if a {
                // Help: make the indicator for this period visible before
                // anyone (including us) may decrement.
                self.publish_indicator(step, v);
                self.clear_announce(step, v);
                continue;
            }
            assert!(c >= 1, "SNZI depart on the root with surplus 0: execution is not valid");
            if self.cas(step, &self.x, w, pack_root(c - 1, false, v)) {
                if c == 1 {
                    // We ended period `v` unless a newer period already
                    // started; the indicator CAS decides, exactly once.
                    let ended = self.cas(step, &self.ind, pack_ind(v, true), pack_ind(v, false));
                    return (ended, OpPath { arrives: 0, departs: 1 });
                }
                return (false, OpPath { arrives: 0, departs: 1 });
            }
        }
    }

    /// Current root surplus (diagnostics/tests only).
    pub(crate) fn surplus(&self) -> u32 {
        unpack_root(self.x.load(Ordering::Acquire)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::step::Shared;

    #[test]
    fn fresh_root_is_zero() {
        let r = Root::new(0, 0);
        assert!(!r.query());
        assert_eq!(r.surplus(), 0);
    }

    #[test]
    fn initial_surplus_sets_indicator() {
        let r = Root::new(3, 0);
        assert!(r.query());
        assert_eq!(r.surplus(), 3);
        assert!(!r.depart(Shared).0);
        assert!(!r.depart(Shared).0);
        assert!(r.depart(Shared).0, "third depart ends the period");
        assert!(!r.query());
    }

    #[test]
    fn arrive_depart_cycle() {
        let r = Root::new(0, 0);
        for round in 0..5 {
            r.arrive(Shared);
            assert!(r.query(), "round {round}");
            r.arrive(Shared);
            assert!(!r.depart(Shared).0);
            assert!(r.depart(Shared).0);
            assert!(!r.query(), "round {round}");
        }
    }

    #[test]
    fn ended_period_reported_exactly_once() {
        let r = Root::new(0, 0);
        r.arrive(Shared);
        r.arrive(Shared);
        r.arrive(Shared);
        let mut endings = 0;
        for _ in 0..3 {
            if r.depart(Shared).0 {
                endings += 1;
            }
        }
        assert_eq!(endings, 1);
    }

    #[test]
    #[should_panic(expected = "not valid")]
    fn depart_on_empty_root_panics() {
        let r = Root::new(0, 0);
        let _ = r.depart(Shared);
    }

    #[test]
    fn concurrent_phases_indicator_correct() {
        use std::sync::{Arc, Barrier};
        let r = Arc::new(Root::new(0, 0));
        let threads = 4;
        let rounds = 300;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let r = Arc::clone(&r);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        r.arrive(Shared);
                        barrier.wait();
                        // All threads have arrived: indicator must be up.
                        assert!(r.query());
                        barrier.wait();
                        let _ = r.depart(Shared);
                        barrier.wait();
                        // All threads have departed: indicator must be down.
                        assert!(!r.query());
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_exactly_one_ending_per_period() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::{Arc, Barrier};
        let r = Arc::new(Root::new(0, 0));
        let endings = Arc::new(AtomicUsize::new(0));
        let threads = 4;
        let rounds = 200;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let r = Arc::clone(&r);
                let endings = Arc::clone(&endings);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        r.arrive(Shared);
                        barrier.wait();
                        if r.depart(Shared).0 {
                            endings.fetch_add(1, Ordering::Relaxed);
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            endings.load(Ordering::Relaxed),
            rounds,
            "each round's period must end exactly once"
        );
    }
}
