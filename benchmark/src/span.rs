//! Spans recorded by the benchmark's own code, around its calls into the
//! runtime. They are kept in memory and written out when the traced run
//! ends; the end-to-end run carries a probe that is off and records
//! nothing.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use crate::json::{self, Value};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// All spans of one iteration share its index.
    pub iter: u32,
    /// 0 for the benchmark's thread, 1 for a pool worker (root bodies run
    /// on one).
    pub tid: u32,
}

pub struct Tracer {
    t0: Instant,
    home: ThreadId,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            t0: Instant::now(),
            home: std::thread::current().id(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A panicking body never holds this lock across user code, so a
        // poisoned lock still guards a consistent vector.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Chrome trace format, loadable in Perfetto or `chrome://tracing`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let events = self
            .lock()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json::obj([
                    ("name", json::str(s.name)),
                    ("cat", json::str(workload)),
                    ("ph", json::str("X")),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    // A span whose body panicked was never closed; it shows as empty.
                    ("dur", Value::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(f64::from(s.tid))),
                    (
                        "args",
                        json::obj([
                            ("id", Value::Num(id as f64)),
                            ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                            ("iteration", Value::Num(f64::from(s.iter))),
                        ]),
                    ),
                ])
            })
            .collect();
        let mut text = json::obj([("traceEvents", Value::Arr(events))]).to_json();
        text.push('\n');
        text
    }
}

/// A handle to record spans under one parent. Cloned into root bodies,
/// which run on a pool worker.
#[derive(Clone)]
pub struct Probe {
    tracer: Option<Arc<Tracer>>,
    parent: Option<usize>,
    iter: u32,
}

impl Probe {
    /// The probe of the end-to-end run: `span` only calls its closure.
    pub fn off() -> Probe {
        Probe { tracer: None, parent: None, iter: 0 }
    }

    pub fn root(tracer: &Arc<Tracer>, iter: u32) -> Probe {
        Probe { tracer: Some(Arc::clone(tracer)), parent: None, iter }
    }

    /// Run `f` inside a span named `name`; `f` receives the probe whose
    /// spans have this one as their parent.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(&Probe) -> R) -> R {
        let Some(tracer) = &self.tracer else {
            return f(self);
        };
        let tid = u32::from(std::thread::current().id() != tracer.home);
        let id = {
            let mut spans = tracer.lock();
            spans.push(Span {
                name,
                start_ns: tracer.now_ns(),
                end_ns: 0,
                parent: self.parent,
                iter: self.iter,
                tid,
            });
            spans.len() - 1
        };
        let child = Probe { tracer: Some(Arc::clone(tracer)), parent: Some(id), iter: self.iter };
        let result = f(&child);
        let end = tracer.now_ns();
        tracer.lock()[id].end_ns = end;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let tracer = Tracer::new();
        Probe::root(&tracer, 3).span("outer", |p| {
            p.span("inner", |_| {});
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].iter), ("inner", Some(0), 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(json::parse(&tracer.to_chrome_json("w")).is_ok());
    }

    #[test]
    fn off_probe_records_nothing() {
        assert_eq!(Probe::off().span("x", |p| p.span("y", |_| 7)), 7);
    }
}
