//! Per-thread event-trace ring buffers.
//!
//! Each recording thread owns a fixed-capacity ring of slots; a global
//! registry keeps every ring alive (and readable) even after its thread
//! exits. Recording is wait-free for the writer (a ring has exactly one
//! writer — its thread); readers validate each slot with a per-slot
//! sequence lock plus the event's absolute index, so a drained snapshot
//! can never contain a *torn* record — a slot being overwritten mid-read
//! is retried, and a slot whose stored index does not match the one the
//! reader expected is dropped (it was lapped), never misattributed.
//!
//! Tracing is globally gated: when disabled (the default) a probe costs
//! one relaxed load and records nothing.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::report::{TraceEvent, TraceSnapshot};
use crate::{EventKind, Ticks};

/// Events retained per thread; older events are overwritten.
pub const RING_CAPACITY: usize = 4096;

/// How many times a reader re-reads a slot the writer is actively
/// overwriting before giving up on it.
const READ_RETRIES: usize = 64;

struct Slot {
    /// Per-slot seqlock: odd while the writer is mid-update.
    seq: AtomicU64,
    /// Absolute event index stored here, to detect lapping.
    index: AtomicU64,
    ts: AtomicU64,
    dur: AtomicU64,
    kind: AtomicU32,
    arg: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            index: AtomicU64::new(u64::MAX),
            ts: AtomicU64::new(0),
            dur: AtomicU64::new(0),
            kind: AtomicU32::new(0),
            arg: AtomicU64::new(0),
        }
    }
}

struct Ring {
    id: u32,
    /// Next absolute event index (== events ever recorded here).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RING_SEED: AtomicU32 = AtomicU32::new(0);
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

std::thread_local! {
    static MY_RING: Arc<Ring> = new_ring();
}

fn new_ring() -> Arc<Ring> {
    let ring = Arc::new(Ring {
        id: RING_SEED.fetch_add(1, Ordering::Relaxed),
        head: AtomicU64::new(0),
        slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
    });
    match RINGS.lock() {
        Ok(mut r) => r.push(Arc::clone(&ring)),
        Err(poisoned) => poisoned.into_inner().push(Arc::clone(&ring)),
    }
    ring
}

/// How many per-thread rings have been registered so far (each stays
/// alive, and is walked by [`take`], for good). A test probe.
#[doc(hidden)]
pub fn rings_registered() -> usize {
    match RINGS.lock() {
        Ok(r) => r.len(),
        Err(poisoned) => poisoned.into_inner().len(),
    }
}

/// Start recording trace events (also pins the time epoch).
pub fn enable() {
    let _ = crate::now();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording trace events (already-recorded events remain
/// readable via [`take`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Record an instant event (no-op unless tracing is enabled).
#[inline]
pub fn record(kind: EventKind, arg: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        write(kind, arg, crate::now().as_ns(), 0);
    }
}

/// Record a span that started at `start` and ends now (no-op unless
/// tracing is enabled).
#[inline]
pub fn record_span(kind: EventKind, arg: u64, start: Ticks) {
    if ENABLED.load(Ordering::Relaxed) {
        write(kind, arg, start.as_ns(), start.elapsed_ns());
    }
}

#[cold]
fn write(kind: EventKind, arg: u64, ts: u64, dur: u64) {
    // Threads whose TLS is being torn down just drop the event.
    let _ = MY_RING.try_with(|ring| {
        let i = ring.head.load(Ordering::Relaxed);
        let slot = &ring.slots[(i % RING_CAPACITY as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::SeqCst); // odd: in progress
        slot.index.store(i, Ordering::SeqCst);
        slot.ts.store(ts, Ordering::SeqCst);
        slot.dur.store(dur, Ordering::SeqCst);
        slot.kind.store(kind as u32, Ordering::SeqCst);
        slot.arg.store(arg, Ordering::SeqCst);
        slot.seq.store(seq + 2, Ordering::SeqCst); // even: committed
        ring.head.store(i + 1, Ordering::Release);
    });
}

/// Drain a consistent view of every ring (non-destructive: rings keep
/// their events). Events overwritten while reading are dropped, never
/// torn; the result is sorted by timestamp.
pub fn take() -> TraceSnapshot {
    let rings: Vec<Arc<Ring>> = match RINGS.lock() {
        Ok(r) => r.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    };
    let mut events = Vec::new();
    for ring in &rings {
        let head = ring.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(RING_CAPACITY as u64);
        for i in lo..head {
            let slot = &ring.slots[(i % RING_CAPACITY as u64) as usize];
            for _ in 0..READ_RETRIES {
                let s1 = slot.seq.load(Ordering::SeqCst);
                if s1 & 1 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                let index = slot.index.load(Ordering::SeqCst);
                let ts = slot.ts.load(Ordering::SeqCst);
                let dur = slot.dur.load(Ordering::SeqCst);
                let kind = slot.kind.load(Ordering::SeqCst);
                let arg = slot.arg.load(Ordering::SeqCst);
                let s2 = slot.seq.load(Ordering::SeqCst);
                if s1 != s2 {
                    continue; // torn: the writer moved underneath us
                }
                if index == i {
                    if let Some(kind) = EventKind::from_u32(kind) {
                        events.push(TraceEvent {
                            ts_ns: ts,
                            dur_ns: dur,
                            kind,
                            ring: ring.id,
                            arg,
                        });
                    }
                }
                break; // consistent read (possibly of a lapped slot: drop)
            }
        }
    }
    events.sort_by_key(|e| (e.ts_ns, e.ring));
    TraceSnapshot { events }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable/disable gate is process-global; tests that toggle it
    // must not run concurrently with each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing_enabled_records() {
        let _serial = TEST_LOCK.lock().unwrap();
        disable();
        record(EventKind::Spawn, 0xD15A_B1ED);
        assert!(!take().events.iter().any(|e| e.arg == 0xD15A_B1ED));
        enable();
        record(EventKind::Spawn, 0xAC71_77ED);
        let t0 = crate::now();
        record_span(EventKind::Sweep, 0xAC71_77EE, t0);
        disable();
        let snap = take();
        assert!(snap.events.iter().any(|e| e.kind == EventKind::Spawn && e.arg == 0xAC71_77ED));
        let sweep = snap.events.iter().find(|e| e.arg == 0xAC71_77EE).unwrap();
        assert_eq!(sweep.kind, EventKind::Sweep);
        assert_eq!(sweep.ts_ns, t0.as_ns());
    }

    #[test]
    fn ring_wraps_and_keeps_only_the_newest() {
        let _serial = TEST_LOCK.lock().unwrap();
        enable();
        let tag = 0xBEEF_0000_0000_0000u64;
        for i in 0..(RING_CAPACITY as u64 + 100) {
            record(EventKind::Chain, tag | i);
        }
        disable();
        let snap = take();
        let mine: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.arg & tag == tag)
            .map(|e| e.arg & 0xFFFF_FFFF)
            .collect();
        assert!(mine.len() <= RING_CAPACITY);
        // The newest event always survives; the oldest were lapped.
        assert!(mine.contains(&(RING_CAPACITY as u64 + 99)));
        assert!(!mine.contains(&0));
    }
}
