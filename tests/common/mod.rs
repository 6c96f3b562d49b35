//! Where each spawn's left child ran, for the random-program ledgers.
//!
//! A spawn within the stack bound runs both children in its parent's
//! vertex, the left one after the right one, and counts nothing — unless,
//! with two or more workers, the left child is promoted into a vertex of
//! its own by one increment while it waits (`spdag::in_place`). Which left
//! children are promoted is the schedule's choice, made at the spawn or at
//! a later spawn in the same vertex, so a program's exact ledger is a
//! function of that choice per spawn. [`Lefts::spawn`] reads it back: a
//! left child that starts while its own spawn is the innermost one open on
//! its thread ran in place; any other ran as a vertex of its own — it was
//! promoted, or pushed by the guard of a right sibling that unwound.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use dynsnzi::prelude::*;

thread_local! {
    /// The spawns whose `Ctx::spawn` call is on this thread's stack,
    /// innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

const NOT_RUN: u8 = 0;
const IN_PLACE: u8 = 1;
const A_VERTEX: u8 = 2;

/// Closes one entry of [`OPEN`] when the spawn returns or unwinds.
struct Open;

impl Drop for Open {
    fn drop(&mut self) {
        OPEN.with(|open| open.borrow_mut().pop());
    }
}

/// Where the left child of each spawn of one run ran, by spawn id.
pub struct Lefts(Vec<AtomicU8>);

impl Lefts {
    /// Room for spawn ids `0..n`.
    pub fn new(n: usize) -> Arc<Lefts> {
        Arc::new(Lefts((0..n).map(|_| AtomicU8::new(NOT_RUN)).collect()))
    }

    /// Whether spawn `id`'s left child ran in place. Panics if it never
    /// started.
    pub fn in_place(&self, id: usize) -> bool {
        match self.0[id].load(Ordering::SeqCst) {
            IN_PLACE => true,
            A_VERTEX => false,
            _ => panic!("the left child of spawn {id} never started"),
        }
    }

    /// `ctx.spawn(left, right)`, noting under `id` where `left` ran.
    pub fn spawn<C: CounterFamily>(
        self: &Arc<Self>,
        ctx: Ctx<'_, C>,
        id: usize,
        left: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
        right: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
    ) {
        OPEN.with(|open| open.borrow_mut().push(id));
        let _open = Open;
        let me = Arc::clone(self);
        let left = move |c: Ctx<'_, C>| {
            let here = OPEN.with(|open| open.borrow().last() == Some(&id));
            me.0[id].store(if here { IN_PLACE } else { A_VERTEX }, Ordering::SeqCst);
            left(c)
        };
        ctx.spawn(left, right);
    }
}
