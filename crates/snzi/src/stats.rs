//! Instrumentation counters used to validate the paper's bounds.
//!
//! A structure whose whole point is low contention must not be profiled
//! with a hot shared counter — a per-operation `fetch_add` on one tree-wide
//! cache line would cost more than the algorithm it measures. The counters
//! here are therefore only touched on *rare* events:
//!
//! * `grow_installs` / `grow_losses` — at most once per installed pair
//!   (with the recommended `p = 1/(25·cores)`, one in ~25·cores grows);
//! * `max_arrive_chain` / `max_depart_chain` — only when a propagation
//!   chain exceeds one node, which the paper's Theorem 4.8 makes rare by
//!   construction, and only under the `stats` feature: the sole reader,
//!   `SnziTree::stats()`, exists only there, so a build without it writes
//!   nothing.
//!
//! Per-node touch counters (for the Theorem 4.9 check) live on the nodes
//! themselves behind the `stats` feature: they add one relaxed RMW to a
//! cache line the operation already owns.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-tree operation statistics (rare-event counters only; see module
/// docs for why there is no per-operation counting).
#[derive(Debug, Default)]
pub struct TreeStats {
    /// Child pairs successfully installed (each adds two nodes).
    pub grow_installs: AtomicU64,
    /// Child pairs allocated but lost the installation race (freed).
    pub grow_losses: AtomicU64,
    /// Maximum number of arrive invocations performed by any single
    /// top-level arrive **that propagated** (chains of length 1 are not
    /// recorded; a snapshot value of 0 therefore means "never exceeded
    /// 1"). Corollary 4.7 bounds this by 3 for `p = 1` under the
    /// in-counter discipline.
    pub max_arrive_chain: AtomicU64,
    /// As above for departs.
    pub max_depart_chain: AtomicU64,
    /// Child pairs detached by pruning (Appendix B shrinking).
    pub pruned_pairs: AtomicU64,
}

impl TreeStats {
    #[inline(always)]
    pub(crate) fn record_arrive(&self, chain: u32) {
        #[cfg(feature = "stats")]
        if chain > 1 {
            self.max_arrive_chain.fetch_max(chain as u64, Ordering::Relaxed);
        }
        #[cfg(not(feature = "stats"))]
        let _ = chain;
    }

    #[inline(always)]
    pub(crate) fn record_depart(&self, chain: u32) {
        #[cfg(feature = "stats")]
        if chain > 1 {
            self.max_depart_chain.fetch_max(chain as u64, Ordering::Relaxed);
        }
        #[cfg(not(feature = "stats"))]
        let _ = chain;
    }

    /// Snapshot the counters into a plain struct for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            grow_installs: self.grow_installs.load(Ordering::Relaxed),
            grow_losses: self.grow_losses.load(Ordering::Relaxed),
            max_arrive_chain: self.max_arrive_chain.load(Ordering::Relaxed).max(1),
            max_depart_chain: self.max_depart_chain.load(Ordering::Relaxed).max(1),
            pruned_pairs: self.pruned_pairs.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`TreeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Child pairs installed.
    pub grow_installs: u64,
    /// Child pairs allocated but lost the race.
    pub grow_losses: u64,
    /// Longest arrive propagation chain observed (at least 1).
    pub max_arrive_chain: u64,
    /// Longest depart propagation chain observed (at least 1).
    pub max_depart_chain: u64,
    /// Child pairs detached by pruning.
    pub pruned_pairs: u64,
}

impl StatsSnapshot {
    /// Number of nodes currently in the tree implied by the install and
    /// prune counts (1 root + 2 per installed, minus 2 per pruned pair).
    pub fn node_count(&self) -> u64 {
        1 + 2 * (self.grow_installs - self.pruned_pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "stats")]
    fn snapshot_reflects_records() {
        let s = TreeStats::default();
        s.record_arrive(3);
        s.record_arrive(1);
        s.record_depart(2);
        let snap = s.snapshot();
        assert_eq!(snap.max_arrive_chain, 3);
        assert_eq!(snap.max_depart_chain, 2);
        assert_eq!(snap.node_count(), 1);
    }

    #[test]
    fn unit_chains_are_not_recorded_but_report_one() {
        let s = TreeStats::default();
        s.record_arrive(1);
        s.record_depart(1);
        assert_eq!(s.max_arrive_chain.load(Ordering::Relaxed), 0);
        assert_eq!(s.snapshot().max_arrive_chain, 1);
        assert_eq!(s.snapshot().max_depart_chain, 1);
    }

    #[test]
    #[cfg(feature = "stats")]
    fn max_is_monotone() {
        let s = TreeStats::default();
        s.record_arrive(5);
        s.record_arrive(2);
        assert_eq!(s.snapshot().max_arrive_chain, 5);
    }
}
