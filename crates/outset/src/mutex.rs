//! The coarse-grained baseline out-set: one mutex around a vector.
//!
//! Exists for the same reason the fetch-and-add counter does in
//! `incounter`: it is the "obvious" implementation every runtime starts
//! with, correct and simple, with all adders serializing on one lock —
//! the contention profile the tree out-set is measured against.

use std::sync::Mutex;

use sched::step::Step;

use crate::tree::MAX_TOKEN;
use crate::{AddEdge, OutsetFamily};

struct Inner {
    sealed: bool,
    edges: Vec<u64>,
}

/// Mutex-protected out-set object.
pub struct MutexOutsetObj {
    inner: Mutex<Inner>,
}

impl MutexOutsetObj {
    /// An empty, unsealed out-set.
    pub fn new() -> MutexOutsetObj {
        obs::counter!("outset.created").inc();
        MutexOutsetObj { inner: Mutex::new(Inner { sealed: false, edges: Vec::new() }) }
    }

    /// Register `token`; see [`OutsetFamily::add`]. The same telemetry
    /// conservation invariant as the tree out-set holds: after seal,
    /// `outset.adds == outset.adds_bounced + outset.swept` across both
    /// families.
    pub fn add(&self, token: u64) -> AddEdge {
        // The family contract: the tree out-set's slot states and poison
        // stamp take the three top values, so no family accepts them.
        assert!(token <= MAX_TOKEN, "tokens u64::MAX-2..=u64::MAX are reserved");
        obs::counter!("outset.adds").inc();
        let mut inner = self.inner.lock().unwrap();
        if inner.sealed {
            drop(inner);
            obs::counter!("outset.adds_bounced").inc();
            return AddEdge::Finished(token);
        }
        inner.edges.push(token);
        AddEdge::Registered
    }

    /// Seal and sweep; see [`OutsetFamily::finish`].
    pub fn finish(&self, sink: &mut dyn FnMut(u64)) -> bool {
        let edges = {
            let mut inner = self.inner.lock().unwrap();
            if inner.sealed {
                return false;
            }
            inner.sealed = true;
            std::mem::take(&mut inner.edges)
        };
        obs::counter!("outset.seals").inc();
        let sweep_start = obs::now();
        let delivered = edges.len() as u64;
        // Deliver outside the lock: sinks schedule work and must not
        // serialize behind late adders bouncing off the seal.
        for token in edges {
            sink(token);
        }
        obs::counter!("outset.swept").add(delivered);
        obs::trace::record_span(obs::EventKind::Sweep, delivered, sweep_start);
        true
    }

    /// Seal snapshot.
    pub fn is_finished(&self) -> bool {
        self.inner.lock().unwrap().sealed
    }
}

impl Default for MutexOutsetObj {
    fn default() -> Self {
        MutexOutsetObj::new()
    }
}

/// The [`OutsetFamily`] of [`MutexOutsetObj`].
pub struct MutexOutset;

impl OutsetFamily for MutexOutset {
    type Outset = MutexOutsetObj;
    const NAME: &'static str = "outset-mutex";

    fn make() -> MutexOutsetObj {
        MutexOutsetObj::new()
    }

    /// The lock is the whole protocol: alone on the out-set, the locked
    /// operation is the exclusive one, whatever the step.
    fn add_with<S: Step>(out: &MutexOutsetObj, token: u64, _key: u64, _step: S) -> AddEdge {
        out.add(token)
    }

    fn finish_with<S: Step>(out: &MutexOutsetObj, sink: &mut dyn FnMut(u64), _step: S) -> bool {
        out.finish(sink)
    }

    fn is_finished(out: &MutexOutsetObj) -> bool {
        out.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_insertion_order() {
        let set = MutexOutsetObj::new();
        for t in 0..10 {
            let _ = set.add(t);
        }
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }
}
