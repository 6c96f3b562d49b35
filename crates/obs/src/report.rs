//! Snapshot and export types shared by both build modes.
//!
//! Everything here is plain data: taking a snapshot is mode-dependent
//! (it walks the counter registry only when telemetry is compiled in), but
//! diffing, rendering, and Chrome-JSON export work identically — an
//! empty snapshot just renders empty.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::EventKind;

/// A point-in-time, lock-free reading of every registered counter,
/// keyed by name (same-named probes from different call sites are
/// summed).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub(crate) counters: BTreeMap<&'static str, u64>,
}

impl Snapshot {
    /// Capture the current counter totals.
    ///
    /// Lock-free and safe to call concurrently with increments; any
    /// increment that completed before this call is included, and
    /// repeated snapshots observe non-decreasing values (per-shard
    /// atomic coherence). With telemetry compiled out this returns an
    /// empty snapshot.
    pub fn take() -> Snapshot {
        #[cfg(feature = "telemetry")]
        {
            let mut counters = BTreeMap::new();
            crate::counter::for_each(&mut |c| {
                *counters.entry(c.name()).or_insert(0) += c.value();
            });
            Snapshot { counters }
        }
        #[cfg(not(feature = "telemetry"))]
        {
            Snapshot::default()
        }
    }

    /// Value of the named counter (0 if it never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&n, &v)| (n, v))
    }

    /// True when nothing has registered (always true with telemetry
    /// compiled out).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Per-name difference `self − baseline` (saturating), for
    /// before/after accounting around a workload. Names absent from
    /// `baseline` are kept as-is; names absent from `self` are dropped.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(&n, &v)| (n, v.saturating_sub(baseline.counter(n))))
            .collect();
        Snapshot { counters }
    }

    /// Human-readable table of every counter.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no telemetry: nothing registered or compiled out)\n");
            return out;
        }
        for (name, value) in self.counters() {
            let _ = writeln!(out, "{name:<36} {value:>14}");
        }
        out
    }
}

/// One decoded trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process-local trace epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Ring (≈ thread) the event was recorded on.
    pub ring: u32,
    /// Kind-specific argument (see [`EventKind`] docs).
    pub arg: u64,
}

/// A drained view of every trace ring, sorted by timestamp.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// The decoded events (oldest first).
    pub events: Vec<TraceEvent>,
}

impl TraceSnapshot {
    /// Number of events captured.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize as Chrome Trace Event Format JSON (loadable in
    /// `chrome://tracing` / Perfetto): spans become `"X"` (complete)
    /// events, instant events become `"i"`, timestamps are microseconds
    /// with nanosecond fractions.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = e.ts_ns as f64 / 1_000.0;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},",
                e.kind.name(),
                e.kind.category(),
                e.ring,
            );
            if e.dur_ns > 0 {
                let _ = write!(out, "\"ph\":\"X\",\"dur\":{:.3},", e.dur_ns as f64 / 1_000.0);
            } else {
                out.push_str("\"ph\":\"i\",\"s\":\"t\",");
            }
            let _ = write!(out, "\"args\":{{\"arg\":{}}}}}", e.arg);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_saturates_and_keeps_new_names() {
        let mut before = Snapshot::default();
        before.counters.insert("a", 10);
        before.counters.insert("gone", 99);
        let mut after = Snapshot::default();
        after.counters.insert("a", 15);
        after.counters.insert("b", 7);
        let d = after.diff(&before);
        assert_eq!(d.counter("a"), 5);
        assert_eq!(d.counter("b"), 7);
        assert_eq!(d.counter("gone"), 0);
    }

    #[test]
    fn chrome_json_has_both_phases() {
        let snap = TraceSnapshot {
            events: vec![
                TraceEvent { ts_ns: 1500, dur_ns: 0, kind: EventKind::Park, ring: 2, arg: 9 },
                TraceEvent { ts_ns: 2000, dur_ns: 500, kind: EventKind::Sweep, ring: 0, arg: 3 },
            ],
        };
        let json = snap.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\""));
        assert!(json.contains("\"ph\":\"X\",\"dur\":0.500"));
        assert!(json.contains("\"name\":\"sweep\",\"cat\":\"outset\""));
        assert!(json.contains("\"ts\":1.500"));
        assert_eq!(TraceSnapshot::default().to_chrome_json().matches("{\"name\"").count(), 0);
    }

    #[test]
    fn render_mentions_every_name() {
        let mut s = Snapshot::default();
        s.counters.insert("outset.adds", 42);
        let r = s.render();
        assert!(r.contains("outset.adds"));
        assert!(r.contains("42"));
        assert!(Snapshot::default().render().contains("nothing registered"));
    }
}
