//! Deterministic fault injection (the `fault-inject` feature).
//!
//! A *failpoint* is a named site on a hot-path seam where the runtime
//! already tolerates an adverse outcome — a lost CAS, a slab-cache miss,
//! a dropped wake — and this module lets a test *force* that outcome on
//! a seeded, replayable schedule instead of waiting for the hardware to
//! produce it. The design follows the obs crate's twins: with the
//! feature off every probe compiles to a constant `false` and the
//! configuration types remain available (so the harness builds in both
//! legs); with it on, an armed [`FaultPlan`] drives each site from its
//! own deterministic decision stream.
//!
//! ## Determinism contract
//!
//! Decision `k` at site `s` is a pure function of `(plan.seed, s, k)` —
//! the per-site call counter, not the thread interleaving. Replaying a
//! plan replays the *per-site decision sequence* exactly; which thread
//! consumes decision `k` still depends on the schedule. That is the
//! strongest guarantee a library-level injector can make without a
//! model checker, and in practice it reproduces chaos failures from
//! their seed (each failure of `tests/chaos.rs` names its battery and
//! seed).
//!
//! ## Site taxonomy
//!
//! See `docs/robustness.md` for the full table. The sites wired in this
//! tree: `outset.install_cas` (treat a won block-install CAS as lost),
//! `sched.recycle_miss` (skip a size-class pool hit), `sched.lost_wake`
//! (drop a `notify` — the event-count's bounded wait recovers),
//! `sched.delayed_wake` (stall a `notify` ~50µs), `spdag.force_bounce`
//! (hold a touch registration until the future fulfills, forcing the
//! sealed-bounce path), `spdag.panic_vertex` (panic on the Nth execution
//! of a vertex whose body is a user's — every vertex but the two that
//! carry `Vertex::runtime_body`, a future's seal-and-sweep and the dag's
//! final vertex — the chaos battery's panic injector).

/// How a site decides whether call `k` (0-based) injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Inject with probability `1/n` per call, from the seeded stream.
    OneIn(u64),
    /// Inject exactly once, on the `n`th call (1-based).
    Nth(u64),
    /// Inject on every call.
    Always,
}

/// One armed site: its name and decision mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSpec {
    /// Site name, e.g. `"outset.install_cas"`.
    pub site: String,
    /// Decision mode for this site.
    pub mode: FaultMode,
}

/// A replayable fault schedule: arm with [`install`], print the seed on
/// failure, re-[`install`] the same plan to reproduce.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master seed; each site derives its own stream from it.
    pub seed: u64,
    /// The sites to arm; unlisted sites never fire.
    pub sites: Vec<SiteSpec>,
}

impl FaultPlan {
    /// A plan arming `sites` under `seed`.
    pub fn new(seed: u64, sites: Vec<SiteSpec>) -> FaultPlan {
        FaultPlan { seed, sites }
    }
}

/// Whether this build carries the injection machinery (`fault-inject`).
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "fault-inject")
}

#[cfg(feature = "fault-inject")]
mod imp {
    use super::{FaultMode, FaultPlan};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::RwLock;

    /// Fast-path gate: one relaxed load when no plan is armed.
    static ARMED: AtomicBool = AtomicBool::new(false);

    struct Site {
        name: String,
        mode: FaultMode,
        /// Derived stream seed: `mix(plan.seed ^ hash(name))`.
        stream: u64,
        /// Per-site call counter; decision `k` is pure in `(stream, k)`.
        calls: AtomicU64,
        injected: AtomicU64,
    }

    static SITES: RwLock<Vec<Site>> = RwLock::new(Vec::new());

    /// SplitMix64 finalizer — a full-avalanche pure mix.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn site_hash(name: &str) -> u64 {
        // FNV-1a: stable across runs and platforms (unlike DefaultHasher).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Arm `plan`, replacing any previous plan and zeroing all counters.
    pub fn install(plan: &FaultPlan) {
        let sites = plan
            .sites
            .iter()
            .map(|s| Site {
                name: s.site.clone(),
                mode: s.mode,
                stream: mix(plan.seed ^ site_hash(&s.site)),
                calls: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            })
            .collect::<Vec<_>>();
        let armed = !sites.is_empty();
        *SITES.write().unwrap() = sites;
        ARMED.store(armed, Ordering::SeqCst);
    }

    /// Disarm all sites.
    pub fn clear() {
        ARMED.store(false, Ordering::SeqCst);
        SITES.write().unwrap().clear();
    }

    /// Should this call at `site` inject its fault? One relaxed load
    /// when disarmed; a shared-lock scan of the (tiny) site list when
    /// armed.
    #[must_use]
    pub fn fire(site: &str) -> bool {
        if !ARMED.load(Ordering::Relaxed) {
            return false;
        }
        let sites = SITES.read().unwrap();
        let Some(s) = sites.iter().find(|s| s.name == site) else {
            return false;
        };
        let k = s.calls.fetch_add(1, Ordering::Relaxed);
        let inject = match s.mode {
            FaultMode::Always => true,
            FaultMode::Nth(n) => k + 1 == n,
            FaultMode::OneIn(n) => n != 0 && mix(s.stream.wrapping_add(k)).is_multiple_of(n),
        };
        if inject {
            s.injected.fetch_add(1, Ordering::Relaxed);
        }
        inject
    }

    /// Total injections since the last [`install`], summed over sites.
    #[must_use]
    pub fn injected_count() -> u64 {
        SITES.read().unwrap().iter().map(|s| s.injected.load(Ordering::Relaxed)).sum()
    }

    /// Per-site `(name, calls, injected)` tallies since [`install`].
    #[must_use]
    pub fn tallies() -> Vec<(String, u64, u64)> {
        SITES
            .read()
            .unwrap()
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.calls.load(Ordering::Relaxed),
                    s.injected.load(Ordering::Relaxed),
                )
            })
            .collect()
    }
}

#[cfg(not(feature = "fault-inject"))]
mod imp {
    use super::FaultPlan;

    /// No-op twin: plans install as nothing.
    pub fn install(_plan: &FaultPlan) {}

    /// No-op twin.
    pub fn clear() {}

    /// No-op twin: no site ever fires.
    #[inline(always)]
    #[must_use]
    pub fn fire(_site: &str) -> bool {
        false
    }

    /// No-op twin: nothing is ever injected.
    #[must_use]
    pub fn injected_count() -> u64 {
        0
    }

    /// No-op twin: no sites exist.
    #[must_use]
    pub fn tallies() -> Vec<(String, u64, u64)> {
        Vec::new()
    }
}

pub use imp::{clear, fire, injected_count, install, tallies};

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    fn plan(seed: u64, mode: FaultMode) -> FaultPlan {
        FaultPlan::new(seed, vec![SiteSpec { site: "test.site".into(), mode }])
    }

    #[test]
    fn disarmed_never_fires() {
        clear();
        assert!(!fire("test.site"));
        assert_eq!(injected_count(), 0);
    }

    #[test]
    fn nth_fires_exactly_once() {
        install(&plan(7, FaultMode::Nth(3)));
        let hits: Vec<bool> = (0..10).map(|_| fire("test.site")).collect();
        assert_eq!(hits.iter().filter(|h| **h).count(), 1);
        assert!(hits[2], "Nth(3) fires on the third call");
        clear();
    }

    #[test]
    fn one_in_stream_is_replayable() {
        install(&plan(0xDEAD_BEEF, FaultMode::OneIn(4)));
        let a: Vec<bool> = (0..256).map(|_| fire("test.site")).collect();
        install(&plan(0xDEAD_BEEF, FaultMode::OneIn(4)));
        let b: Vec<bool> = (0..256).map(|_| fire("test.site")).collect();
        assert_eq!(a, b, "same seed, same per-site decision sequence");
        assert!(a.iter().any(|h| *h), "OneIn(4) over 256 calls fires");
        install(&plan(0xDEAD_BEF0, FaultMode::OneIn(4)));
        let c: Vec<bool> = (0..256).map(|_| fire("test.site")).collect();
        assert_ne!(a, c, "different seed, different sequence");
        clear();
    }

    #[test]
    fn unlisted_site_never_fires() {
        install(&plan(1, FaultMode::Always));
        assert!(!fire("other.site"));
        assert!(fire("test.site"));
        clear();
    }
}
