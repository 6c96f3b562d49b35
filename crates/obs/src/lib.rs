//! Unified runtime telemetry for the dynsnzi workspace.
//!
//! The paper's claims are quantitative (amortized contention per add,
//! lost CASes per growth transient), so the runtime needs evidence that
//! can be collected *from one place* and correlated in time. This crate
//! provides two primitives, both declared statically at the probe site
//! and registered lazily on first use:
//!
//! * **Counters** ([`counter!`]) — per-thread cache-padded cells; one
//!   relaxed load + store on the hot path (single-writer cells need no
//!   atomic read-modify-write), lock-free registration, and a lock-free
//!   [`Snapshot::take`] that never loses a completed increment (see
//!   `tests/consistency.rs`).
//! * **Event traces** ([`trace`]) — fixed-capacity per-thread ring
//!   buffers of typed events with monotonic nanosecond timestamps,
//!   exportable as Chrome Trace Event Format JSON. Off by default; when
//!   disabled a probe costs one relaxed load.
//!
//! ## Compiling it out
//!
//! Everything is gated on the `telemetry` feature (on by default across
//! the workspace). Building with `--no-default-features` swaps in the
//! no-op twins in the `noop` module: probes become empty inlined
//! functions, the
//! statics carry no state, and [`Snapshot::take`] returns an empty
//! snapshot. Consumer crates need **no** `cfg` blocks — the API is
//! identical in both modes ([`now`] returns a [`Ticks`] either way; the
//! no-op version never reads the clock).
//!
//! ## Naming scheme
//!
//! Counter names are `<subsystem>.<noun>[_<unit>]`, e.g.
//! `outset.lost_cas`, `outset.blocks_recycled`. The full taxonomy lives
//! in `docs/observability.md`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod event;
mod report;

#[cfg(feature = "telemetry")]
mod counter;
#[cfg(feature = "telemetry")]
mod time;
#[cfg(feature = "telemetry")]
pub mod trace;

#[cfg(not(feature = "telemetry"))]
mod noop;

pub use event::EventKind;
pub use report::{Snapshot, TraceEvent, TraceSnapshot};

#[cfg(feature = "telemetry")]
pub use counter::{registered, Counter, Probe, ThreadCell};
#[cfg(feature = "telemetry")]
pub use time::now;

#[cfg(not(feature = "telemetry"))]
pub use noop::trace;
#[cfg(not(feature = "telemetry"))]
pub use noop::{now, registered, Counter};

/// An opaque monotonic timestamp from [`now`], in nanoseconds since an
/// arbitrary process-local epoch. With telemetry compiled out it is a
/// constant zero and [`Ticks::elapsed_ns`] never reads the clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticks(pub(crate) u64);

/// Whether telemetry is compiled into this build (`telemetry` feature).
#[cfg(feature = "telemetry")]
pub const fn enabled() -> bool {
    true
}

/// Whether telemetry is compiled into this build (`telemetry` feature).
#[cfg(not(feature = "telemetry"))]
pub const fn enabled() -> bool {
    false
}

/// Declare (once, statically, at the use site) and reference a named
/// [`Counter`].
///
/// ```
/// obs::counter!("outset.lost_cas").inc();
/// ```
///
/// Multiple declarations sharing a name (e.g. the same counter bumped
/// from two modules) are summed by [`Snapshot::take`].
///
/// Besides the shared static, the expansion declares a const-initialized
/// thread-local holding this call site's per-thread cell pointer, which
/// is what makes an increment a plain relaxed load + store.
#[cfg(feature = "telemetry")]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static COUNTER: $crate::Counter = $crate::Counter::new($name);
        ::std::thread_local! {
            static CELL: ::std::cell::Cell<*const $crate::ThreadCell> =
                const { ::std::cell::Cell::new(::std::ptr::null()) };
        }
        $crate::Probe::new(&COUNTER, &CELL)
    }};
}

/// Declare (once, statically, at the use site) and reference a named
/// [`Counter`] — no-op twin, the static carries only the name.
#[cfg(not(feature = "telemetry"))]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static COUNTER: $crate::Counter = $crate::Counter::new($name);
        &COUNTER
    }};
}
