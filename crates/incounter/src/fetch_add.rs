//! The single-cell fetch-and-add baseline.
//!
//! One padded atomic integer per finish vertex. Optimal at one core
//! (cheapest possible constant factor), pathological under contention —
//! every increment and decrement from every worker hits the same cache
//! line, the textbook Ω(n)-stalls hot spot the paper's Figure 8 shows
//! collapsing as cores are added.

use std::sync::atomic::{AtomicI64, Ordering};

use sched::step::Step;

use crate::CounterFamily;

/// The counter cell, aligned away from neighbours so the measured
/// contention is the algorithm's own, not false sharing.
#[repr(align(128))]
#[derive(Debug)]
pub struct FaCell {
    value: AtomicI64,
}

impl FaCell {
    /// Current value (diagnostics).
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }
}

/// The fetch-and-add counter family.
pub struct FetchAdd;

impl CounterFamily for FetchAdd {
    type Config = ();
    type Counter = FaCell;
    // The cell is reachable through `&Counter`; handles carry no data.
    type Inc = ();
    type Dec = ();

    const NAME: &'static str = "fetch-add";

    fn make(_cfg: &(), n: u64) -> FaCell {
        obs::counter!("incounter.created").inc();
        FaCell { value: AtomicI64::new(n as i64) }
    }

    fn root_inc(_counter: &FaCell) {}

    fn root_dec(_counter: &FaCell) {}

    unsafe fn increment_with<S: Step>(
        _cfg: &(),
        counter: &FaCell,
        _inc: (),
        _is_left: bool,
        _vid: u64,
        step: S,
    ) -> ((), (), ()) {
        step.fetch_add(&counter.value, 1, Ordering::AcqRel);
        ((), (), ())
    }

    unsafe fn decrement_with<S: Step>(counter: &FaCell, _dec: (), step: S) -> bool {
        let prev = step.fetch_sub(&counter.value, 1, Ordering::AcqRel);
        debug_assert!(prev >= 1, "fetch-add counter went negative: invalid execution");
        prev == 1
    }

    fn is_zero(counter: &FaCell) -> bool {
        counter.value.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counting() {
        let c = FetchAdd::make(&(), 1);
        assert!(!FetchAdd::is_zero(&c));
        // SAFETY: the family's handles carry nothing, and each decrement
        // below matches an increment or the initial count.
        unsafe {
            let _ = FetchAdd::increment(&(), &c, (), true, 0);
            let _ = FetchAdd::increment(&(), &c, (), false, 1);
        }
        assert_eq!(c.value(), 3);
        // SAFETY: as above.
        unsafe {
            assert!(!FetchAdd::decrement(&c, ()));
            assert!(!FetchAdd::decrement(&c, ()));
            assert!(FetchAdd::decrement(&c, ()), "last decrement reports zero");
        }
        assert!(FetchAdd::is_zero(&c));
    }

    #[test]
    fn concurrent_exactly_one_zero_report() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let threads = 4;
        let per = 1000;
        let c = Arc::new(FetchAdd::make(&(), (threads * per) as u64));
        let zeros = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                let zeros = Arc::clone(&zeros);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        // SAFETY: one decrement per unit of the initial
                        // count.
                        if unsafe { FetchAdd::decrement(&c, ()) } {
                            zeros.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(zeros.load(Ordering::Relaxed), 1);
        assert!(FetchAdd::is_zero(&c));
    }
}
