//! Snapshot- and trace-consistency tests (ISSUE 6, satellite 3):
//! concurrent increments during `Snapshot::take()` never lose counts,
//! snapshots are monotone, and trace rings never tear an event record.

#![cfg(feature = "telemetry")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use obs::{EventKind, Snapshot};

/// Model test: every completed increment is visible to the final
/// snapshot, and concurrently-taken snapshots are monotone.
#[test]
fn concurrent_increments_are_never_lost() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 100_000;
    let stop = Arc::new(AtomicBool::new(false));

    let observer = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut last = 0u64;
            let mut taken = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let v = Snapshot::take().counter("test.conc_lost");
                assert!(v >= last, "snapshot went backwards: {v} < {last}");
                assert!(v <= THREADS as u64 * PER_THREAD, "snapshot overshot: {v}");
                last = v;
                taken += 1;
            }
            taken
        })
    };

    let writers: Vec<_> = (0..THREADS)
        .map(|_| {
            thread::spawn(|| {
                for _ in 0..PER_THREAD {
                    obs::counter!("test.conc_lost").inc();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let taken = observer.join().unwrap();
    assert!(taken > 0, "observer must have raced at least one snapshot");

    assert_eq!(
        Snapshot::take().counter("test.conc_lost"),
        THREADS as u64 * PER_THREAD,
        "after all writers joined, no increment may be missing"
    );
}

/// A counter becomes reachable from the registry before its first
/// increment lands, so a snapshot ordered after an increment (here via
/// a channel) can never miss it — even for a counter born mid-run.
#[test]
fn snapshot_sees_counters_registered_mid_run() {
    const THREADS: u64 = 16;
    let (tx, rx) = mpsc::channel::<u64>();
    let writers: Vec<_> = (0..THREADS)
        .map(|_| {
            let tx = tx.clone();
            thread::spawn(move || {
                obs::counter!("test.born_mid_run").inc();
                tx.send(1).unwrap();
            })
        })
        .collect();
    drop(tx);
    let mut acked = 0;
    while let Ok(n) = rx.recv() {
        acked += n;
        let seen = Snapshot::take().counter("test.born_mid_run");
        assert!(seen >= acked, "snapshot saw {seen} after {acked} acknowledged increments");
    }
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(Snapshot::take().counter("test.born_mid_run"), THREADS);
}

/// Adds of 1 to 99, one to five a writer: with one to three writers, the
/// grid's 24 inputs.
const AMOUNTS: [&[u64]; 8] = [
    &[1],
    &[99],
    &[1, 99],
    &[42, 7],
    &[50, 50, 50],
    &[3, 97, 11, 89],
    &[1, 2, 3, 4, 5],
    &[99, 98, 97, 96, 95],
];

// Interleavings of adders and snapshotters: the diff over the case equals
// the sum of all adds, and every mid-run snapshot diff lies in
// [0, total] and is monotone.
#[test]
fn snapshot_diff_matches_model() {
    for threads in 1..4 {
        for amounts in AMOUNTS {
            snapshot_diff(amounts, threads);
        }
    }
}

fn snapshot_diff(amounts: &'static [u64], threads: usize) {
    let before = Snapshot::take().counter("test.prop_diff");
    let total: u64 = amounts.iter().sum::<u64>() * threads as u64;
    let stop = Arc::new(AtomicBool::new(false));
    let observer = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut last = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let d = Snapshot::take().counter("test.prop_diff") - before;
                assert!(d >= last && d <= total, "diff {d} outside [{last}, {total}]");
                last = d;
            }
        })
    };
    let writers: Vec<_> = (0..threads)
        .map(|_| {
            thread::spawn(move || {
                for &a in amounts {
                    obs::counter!("test.prop_diff").add(a);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    observer.join().unwrap();
    assert_eq!(
        Snapshot::take().counter("test.prop_diff") - before,
        total,
        "{threads} x {amounts:?}"
    );
}

/// Trace readers must never observe a torn record: writers encode the
/// event kind into the argument, and any snapshot taken while they
/// hammer the rings must only contain self-consistent events.
#[test]
fn trace_records_never_tear() {
    const TAG: u64 = 0x7E57 << 48;
    const WRITERS: usize = 4;
    const EVENTS: u64 = 20_000;
    let encode = |kind: EventKind, seq: u64| TAG | ((kind as u64) << 32) | (seq & 0xFFFF_FFFF);

    obs::trace::enable();
    let stop = Arc::new(AtomicBool::new(false));
    let torn = Arc::new(Mutex::new(Vec::new()));
    let reader = {
        let stop = Arc::clone(&stop);
        let torn = Arc::clone(&torn);
        thread::spawn(move || {
            let mut checked = 0u64;
            // Sample `stop` *before* each pass so the pass that observes
            // it set runs entirely after the writers joined — that final
            // pass is guaranteed to decode their surviving events, even
            // if the scheduler starved us of every earlier pass.
            loop {
                let stopped = stop.load(Ordering::Relaxed);
                for e in obs::trace::take().events {
                    if e.arg & TAG != TAG {
                        continue; // someone else's event (other tests share rings)
                    }
                    let want = ((e.arg >> 32) & 0xFFFF) as u32;
                    if e.kind as u32 != want {
                        torn.lock().unwrap().push((e.kind, e.arg));
                    }
                    checked += 1;
                }
                if stopped {
                    break;
                }
            }
            checked
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            thread::spawn(move || {
                for i in 0..EVENTS {
                    let kind = EventKind::ALL[(i % EventKind::ALL.len() as u64) as usize];
                    obs::trace::record(kind, encode(kind, i));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let checked = reader.join().unwrap();
    obs::trace::disable();
    assert!(checked > 0, "reader must have decoded events while writers ran");
    assert!(torn.lock().unwrap().is_empty(), "torn events: {:?}", torn.lock().unwrap());

    // After the dust settles every surviving tagged event is coherent
    // and the newest event from each writer survived the wrap.
    let final_events = obs::trace::take();
    for e in final_events.events.iter().filter(|e| e.arg & TAG == TAG) {
        assert_eq!(e.kind as u32, ((e.arg >> 32) & 0xFFFF) as u32);
    }
}
