//! The in-counter proper: the dynamic-SNZI counter family (Figure 5).
//!
//! `increment` is the paper's three-step dance:
//!
//! 1. `grow(u.inc, p)` — tell the tree that contention may be coming and
//!    give it a chance to expand; returns the (possibly fresh) children of
//!    the increment handle, or the handle itself twice if the coin said no.
//! 2. `arrive` at the child selected by whether the incrementing vertex is
//!    itself a left or a right child — spreading siblings' traffic onto
//!    disjoint nodes.
//! 3. Hand out handles: the two children become the increment handles of
//!    the two new dag vertices, and the arrive target becomes the fresh
//!    (second, lower) decrement handle. The inherited (first, higher)
//!    handle is claimed by the *caller* after the arrive completes — the
//!    ordering that keeps phase changes rare.

use sched::step::Step;
use snzi::{Handle, Probability, SnziTree};

use crate::CounterFamily;

/// Configuration for [`DynSnzi`]: the growth probability, plus an
/// allocation-placement knob used by the evaluation's NUMA-substitution
/// study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynConfig {
    /// Probability with which `increment` grows the tree; the paper
    /// recommends `1/(25·cores)` and analyses `p = 1`.
    pub p: Probability,
    /// Levels of children to install eagerly at `make` time (by the
    /// creating thread). The default, 0, means all nodes are allocated by
    /// the thread that grows them ("first touch"); a non-zero value places
    /// nodes from a single thread before consumers exist ("remote"
    /// placement) — the closest controllable analogue of the paper's NUMA
    /// page-placement study (Figure 13), which found no significant effect.
    /// At most [`snzi::tree::MAX_DEPTH`]: `make` rejects a deeper one.
    pub pregrow_levels: u32,
}

impl DynConfig {
    /// Grow on every increment (`p = 1`): the regime of the paper's
    /// theorems, and the strongest contention avoidance.
    pub fn always_grow() -> DynConfig {
        DynConfig { p: Probability::ALWAYS, pregrow_levels: 0 }
    }

    /// Never grow: collapses onto a single cell. Correct, but intentionally
    /// forfeits the contention bound — used for failure injection.
    pub fn never_grow() -> DynConfig {
        DynConfig { p: Probability::NEVER, pregrow_levels: 0 }
    }

    /// The paper's `p = 1/threshold` parameterisation (Figure 11).
    pub fn with_threshold(threshold: u64) -> DynConfig {
        DynConfig { p: Probability::one_over(threshold), pregrow_levels: 0 }
    }

    /// Builder-style override of the pre-grow level count.
    pub fn pregrow(mut self, levels: u32) -> DynConfig {
        self.pregrow_levels = levels;
        self
    }
}

impl Default for DynConfig {
    /// Default to the paper's recommended `1/(25·cores)`.
    fn default() -> DynConfig {
        DynConfig { p: Probability::default_for_cores(sched::num_cpus()), pregrow_levels: 0 }
    }
}

/// The dynamic-SNZI in-counter family — the paper's contribution.
pub struct DynSnzi;

impl CounterFamily for DynSnzi {
    type Config = DynConfig;
    type Counter = SnziTree;
    type Inc = Handle;
    type Dec = Handle;

    const NAME: &'static str = "incounter";

    fn make(cfg: &DynConfig, n: u64) -> SnziTree {
        // No `incounter.created` probe here: `with_probability` already
        // bumps `snzi.trees_created`, and one counter object *is* one
        // tree for this family — a second increment on the per-vertex
        // creation path would double the cost for a derivable number.
        let tree = SnziTree::with_probability(n, cfg.p);
        if cfg.pregrow_levels > 0 {
            tree.grow_complete(cfg.pregrow_levels);
        }
        tree
    }

    fn root_inc(counter: &SnziTree) -> Handle {
        counter.root_handle()
    }

    fn root_dec(counter: &SnziTree) -> Handle {
        counter.root_handle()
    }

    unsafe fn increment_with<S: Step>(
        _cfg: &DynConfig,
        counter: &SnziTree,
        inc: Handle,
        is_left: bool,
        _vid: u64,
        step: S,
    ) -> (Handle, Handle, Handle) {
        // `grow` is shared whatever `step` is: it installs a pair at most
        // once per node, its compare-and-swap is as rare as that, and its
        // coin is flipped the same way either way.
        // SAFETY: forwarded from the trait contract — `inc` belongs to
        // `counter`, which outlives the call.
        let (a, b) = unsafe { counter.grow(inc) };
        let d2 = if is_left { a } else { b };
        // SAFETY: as above; `d2` is `a`, `b` or `inc` itself, all owned by
        // `counter`.
        unsafe { counter.arrive_with(d2, step) };
        (d2, a, b)
    }

    unsafe fn decrement_with<S: Step>(counter: &SnziTree, dec: Handle, step: S) -> bool {
        // SAFETY: forwarded from the trait contract; validity gives the
        // matching completed arrive.
        unsafe { counter.depart_with(dec, step) }.0
    }

    fn is_zero(counter: &SnziTree) -> bool {
        !counter.query()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_respects_initial_count() {
        let cfg = DynConfig::always_grow();
        assert!(DynSnzi::is_zero(&DynSnzi::make(&cfg, 0)));
        assert!(!DynSnzi::is_zero(&DynSnzi::make(&cfg, 1)));
        assert!(!DynSnzi::is_zero(&DynSnzi::make(&cfg, 42)));
    }

    #[test]
    fn increment_with_p1_descends_one_level() {
        let cfg = DynConfig::always_grow();
        let c = DynSnzi::make(&cfg, 1);
        let root = DynSnzi::root_inc(&c);
        // SAFETY: every handle is the tree's own, and the tree outlives
        // them; each decrement, here and in the next test, matches an
        // increment.
        let (d2, i1, i2) = unsafe { DynSnzi::increment(&cfg, &c, root, true, 0) };
        // SAFETY: as above.
        let depths = unsafe { [d2.depth(), i1.depth(), i2.depth()] };
        assert_eq!(depths, [1; 3], "the arrive lands on a fresh child");
        assert_ne!(i1.addr(), i2.addr());
        assert_eq!(d2.addr(), i1.addr(), "left vertex arrives at left child");
        // SAFETY: as above.
        let (d2r, ..) = unsafe { DynSnzi::increment(&cfg, &c, root, false, 0) };
        assert_eq!(d2r.addr(), i2.addr(), "right vertex arrives at right child");
    }

    #[test]
    fn increment_with_p0_stays_put() {
        let cfg = DynConfig::never_grow();
        let c = DynSnzi::make(&cfg, 1);
        let root = DynSnzi::root_inc(&c);
        // SAFETY: as in the test above.
        let (d2, i1, i2) = unsafe { DynSnzi::increment(&cfg, &c, root, true, 0) };
        assert_eq!(d2.addr(), root.addr());
        assert_eq!(i1.addr(), root.addr());
        assert_eq!(i2.addr(), root.addr());
        // SAFETY: as above.
        let ends = unsafe { [DynSnzi::decrement(&c, d2), DynSnzi::decrement(&c, root)] };
        assert_eq!(ends, [false, true]);
    }

    #[test]
    fn pregrow_builds_complete_levels() {
        let c = DynSnzi::make(&DynConfig::always_grow().pregrow(3), 0);
        let profile = c.contention_profile();
        assert_eq!((profile.nodes, profile.max_depth), (15, 3));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DEPTH")]
    fn a_pregrow_past_the_bound_is_rejected() {
        let _ = DynSnzi::make(&DynConfig::always_grow().pregrow(snzi::tree::MAX_DEPTH + 1), 0);
    }

    #[test]
    fn default_config_uses_core_count() {
        let cfg = DynConfig::default();
        let expected = Probability::default_for_cores(sched::num_cpus());
        assert_eq!(cfg.p, expected);
    }
}
