//! Zero-cost twins of the telemetry API, compiled in when the
//! `telemetry` feature is off. Every probe is an empty inlined
//! function; [`now`] never reads the clock; [`crate::Snapshot::take`]
//! returns an empty snapshot (handled in `report.rs`).

use crate::Ticks;

/// A named counter whose operations compile to nothing.
pub struct Counter {
    name: &'static str,
}

impl Counter {
    /// Const constructor used by the [`crate::counter!`] macro.
    pub const fn new(name: &'static str) -> Counter {
        Counter { name }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// No-op.
    #[inline(always)]
    pub fn inc(&'static self) {}

    /// No-op.
    #[inline(always)]
    pub fn add(&'static self, _n: u64) {}

    /// Always 0.
    pub fn value(&self) -> u64 {
        0
    }
}

/// Always zero: the no-op counters never register and have no cells.
#[doc(hidden)]
pub fn registered() -> (u64, u64) {
    (0, 0)
}

/// Constant zero timestamp (the no-op build never reads the clock).
#[inline(always)]
pub fn now() -> Ticks {
    Ticks(0)
}

impl Ticks {
    /// Always 0 (no clock read).
    #[inline(always)]
    pub fn elapsed_ns(self) -> u64 {
        0
    }

    /// Always 0.
    #[inline(always)]
    pub fn as_ns(self) -> u64 {
        self.0
    }
}

/// No-op twin of the trace module: probes vanish, [`trace::take`]
/// returns an empty snapshot.
pub mod trace {
    use crate::report::TraceSnapshot;
    use crate::{EventKind, Ticks};

    /// No-op (tracing cannot be enabled in this build).
    pub fn enable() {}

    /// No-op.
    pub fn disable() {}

    /// No-op.
    #[inline(always)]
    pub fn record(_kind: EventKind, _arg: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn record_span(_kind: EventKind, _arg: u64, _start: Ticks) {}

    /// Always 0: nothing records, so no ring is ever made.
    #[doc(hidden)]
    pub fn rings_registered() -> usize {
        0
    }

    /// Always empty.
    pub fn take() -> TraceSnapshot {
        TraceSnapshot::default()
    }
}
