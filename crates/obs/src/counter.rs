//! Per-thread-cell counters with lock-free, increment-ordered
//! registration.
//!
//! A counter is a static declared at the probe site ([`crate::counter!`]).
//! Every (call site, thread) pair gets its own leaked, cache-line-padded
//! cell, found through a const-initialized thread-local the macro
//! declares next to the static. Because each cell has exactly one
//! writer, an increment is a plain relaxed load + store — no `lock`ed
//! read-modify-write at all — which is what keeps probes on paths like
//! the out-set add cheap enough to leave compiled in.
//!
//! ## Why registration happens *before* the first increment
//!
//! [`crate::Snapshot::take`] walks an intrusive lock-free list of every
//! counter that ever incremented, and per counter a list of its cells.
//! The guarantee "a snapshot never misses a completed increment" (see
//! `tests/consistency.rs`) requires that by the time any increment
//! lands in a cell, both the counter and the cell are already reachable
//! from the registry: linking uses release CASes, the walk uses acquire
//! loads, and the (cold) registration path spins until the winner has
//! finished linking before letting a racing incrementer proceed.
//!
//! ## Why cells are leaked
//!
//! A cell must outlive its thread (counts survive thread exit) and stay
//! readable forever, so it is `Box::leak`ed into the counter's list —
//! bounded by threads × call sites, and this runtime's workers are its
//! callers and a resident set of helper threads: a run registers no cell
//! its threads have not registered before ([`registered`] is the probe
//! `tests/resident_telemetry.rs` holds that to).
//! Increments arriving while a thread's TLS is already torn down fall
//! back to one shared `fetch_add` cell.

use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};
use std::thread::LocalKey;

const UNREGISTERED: u8 = 0;
const REGISTERING: u8 = 1;
const REGISTERED: u8 = 2;

static HEAD: AtomicPtr<Counter> = AtomicPtr::new(ptr::null_mut());

/// Counters ever registered and cells ever leaked (bumped on the cold
/// paths only).
static COUNTERS: AtomicU64 = AtomicU64::new(0);
static CELLS: AtomicU64 = AtomicU64::new(0);

/// How many counters (call sites that have fired) and how many of their
/// per-thread cells have been registered so far: what a
/// [`crate::Snapshot::take`] has to walk. A test probe.
#[doc(hidden)]
pub fn registered() -> (u64, u64) {
    (COUNTERS.load(Ordering::Relaxed), CELLS.load(Ordering::Relaxed))
}

/// One thread's private cell of a [`Counter`] (public only because the
/// [`crate::counter!`] expansion names the type in user crates).
#[doc(hidden)]
#[repr(align(128))]
pub struct ThreadCell {
    value: AtomicU64,
    next: AtomicPtr<ThreadCell>,
}

/// A named, statically-declared event counter. Declare with
/// [`crate::counter!`]; read through [`crate::Snapshot::take`].
pub struct Counter {
    name: &'static str,
    state: AtomicU8,
    next: AtomicPtr<Counter>,
    /// Lock-free list of this counter's per-thread cells.
    cells: AtomicPtr<ThreadCell>,
    /// Shared fallback for increments during TLS teardown (fetch_add).
    orphan: AtomicU64,
}

impl Counter {
    /// Const constructor used by the [`crate::counter!`] macro.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            state: AtomicU8::new(UNREGISTERED),
            next: AtomicPtr::new(ptr::null_mut()),
            cells: AtomicPtr::new(ptr::null_mut()),
            orphan: AtomicU64::new(0),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sum over all cells (relaxed; monotone across repeated reads —
    /// each cell only grows and the lists only gain nodes).
    pub fn value(&self) -> u64 {
        let mut sum = self.orphan.load(Ordering::Relaxed);
        let mut p = self.cells.load(Ordering::Acquire);
        while !p.is_null() {
            // SAFETY: cells are leaked boxes, alive forever once linked.
            let cell = unsafe { &*p };
            sum += cell.value.load(Ordering::Relaxed);
            p = cell.next.load(Ordering::Acquire);
        }
        sum
    }

    /// Allocate, link, and return this thread's cell. Cold: once per
    /// (counter, thread). Ensures the counter itself is registered
    /// first, so the cell is reachable from the registry root before
    /// the caller's first increment lands in it.
    #[cold]
    fn new_cell(&'static self) -> *const ThreadCell {
        if self.state.load(Ordering::Acquire) != REGISTERED {
            self.register();
        }
        let cell: &'static ThreadCell = Box::leak(Box::new(ThreadCell {
            value: AtomicU64::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        CELLS.fetch_add(1, Ordering::Relaxed);
        let me = cell as *const ThreadCell as *mut ThreadCell;
        let mut head = self.cells.load(Ordering::Acquire);
        loop {
            cell.next.store(head, Ordering::Relaxed);
            match self.cells.compare_exchange_weak(head, me, Ordering::Release, Ordering::Acquire) {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        cell
    }

    #[cold]
    fn orphan_add(&'static self, n: u64) {
        if self.state.load(Ordering::Acquire) != REGISTERED {
            self.register();
        }
        self.orphan.fetch_add(n, Ordering::Relaxed);
    }

    #[cold]
    fn register(&'static self) {
        match self.state.compare_exchange(
            UNREGISTERED,
            REGISTERING,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                COUNTERS.fetch_add(1, Ordering::Relaxed);
                let me = self as *const Counter as *mut Counter;
                let mut head = HEAD.load(Ordering::Acquire);
                loop {
                    self.next.store(head, Ordering::Relaxed);
                    match HEAD.compare_exchange_weak(head, me, Ordering::Release, Ordering::Acquire)
                    {
                        Ok(_) => break,
                        Err(h) => head = h,
                    }
                }
                self.state.store(REGISTERED, Ordering::Release);
            }
            Err(_) => {
                // Someone else is linking this counter right now. Wait
                // until it is reachable from the registry so our
                // increment cannot be missed by a later snapshot.
                while self.state.load(Ordering::Acquire) != REGISTERED {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// The pair a [`crate::counter!`] invocation evaluates to: the shared
/// static plus the call site's thread-local cell pointer.
#[derive(Clone, Copy)]
pub struct Probe {
    counter: &'static Counter,
    slot: &'static LocalKey<Cell<*const ThreadCell>>,
}

impl Probe {
    /// Used by the [`crate::counter!`] expansion; not part of the API.
    #[doc(hidden)]
    pub fn new(
        counter: &'static Counter,
        slot: &'static LocalKey<Cell<*const ThreadCell>>,
    ) -> Probe {
        Probe { counter, slot }
    }

    /// Add 1.
    #[inline]
    pub fn inc(self) {
        self.add(1);
    }

    /// Add `n`: one relaxed load + store on this thread's private cell
    /// (single writer, so no atomic read-modify-write is needed). The
    /// registration branch runs once per (counter, thread).
    #[inline]
    pub fn add(self, n: u64) {
        let done = self.slot.try_with(|s| {
            let mut p = s.get();
            if p.is_null() {
                p = self.counter.new_cell();
                s.set(p);
            }
            // SAFETY: linked cells are leaked boxes, alive forever.
            let cell = unsafe { &*p };
            cell.value.store(cell.value.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        });
        if done.is_err() {
            // TLS already torn down: must not lose the count (or panic).
            self.counter.orphan_add(n);
        }
    }

    /// The counter's registry name.
    pub fn name(self) -> &'static str {
        self.counter.name
    }

    /// Current total (all threads); see [`Counter::value`].
    pub fn value(self) -> u64 {
        self.counter.value()
    }
}

/// Walk every registered counter (registration order is
/// most-recent-first; [`crate::Snapshot`] re-sorts by name).
pub(crate) fn for_each(f: &mut dyn FnMut(&'static Counter)) {
    let mut p = HEAD.load(Ordering::Acquire);
    while !p.is_null() {
        // SAFETY: registered counters are 'static by construction (the
        // macro only ever creates statics) and never unlink.
        let c: &'static Counter = unsafe { &*p };
        f(c);
        p = c.next.load(Ordering::Acquire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_sums_cells_and_registry_finds_it() {
        let probe = crate::counter!("test.counter_unit");
        assert_eq!(probe.value(), 0);
        probe.add(3);
        probe.inc();
        std::thread::spawn(move || probe.add(2)).join().unwrap();
        assert_eq!(probe.value(), 6, "cells from both threads are summed");
        let mut found = 0u64;
        for_each(&mut |c| {
            if c.name() == "test.counter_unit" {
                found += c.value();
            }
        });
        assert_eq!(found, 6);
    }

    #[test]
    fn unused_counters_do_not_register() {
        static NEVER: Counter = Counter::new("test.never_touched");
        let mut seen = false;
        for_each(&mut |c| seen |= std::ptr::eq(c, &NEVER));
        assert!(!seen, "a counter that never incremented must not appear");
        assert_eq!(NEVER.value(), 0);
    }
}
