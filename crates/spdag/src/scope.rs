//! Multi-async scopes: `async`/`finish` with arbitrary fan-in.
//!
//! [`Ctx::spawn`](crate::Ctx::spawn) is binary because the sp-dag `spawn`
//! hands one of its two fresh vertices to the continuation. But a body
//! that wants to `async` *many* tasks into its finish scope (the paper's
//! fanin pattern, a parallel-for) need not CPS-transform itself: the
//! running vertex can play the continuation **in place**. Each
//! [`Scope::fork`] takes the fork step (`vertex::fork_vertex`): one
//! in-counter `increment` on the running vertex's scope, which gives the
//! forked task the left increment handle and the fresh decrement pair,
//! and the running vertex *rotates* onto the right increment handle and
//! the same pair — precisely the state a continuation vertex would have
//! had. When the body returns, the normal signal epilogue uses the
//! rotated state. (A `spawn` within the stack bound makes no increment:
//! both of its children run in the spawning vertex, `crate::in_place`.
//! The fork step is also how a spawned child becomes a vertex — when it
//! is promoted to a thief, when its right sibling unwinds while it waits,
//! and past the stack bound.)
//!
//! The handle discipline is preserved verbatim, so all of Section 4's
//! bounds apply: a `fork` is one increment (amortized O(1), O(1)
//! contention), and exactly two claims ever hit each decrement pair (the
//! forked task's and either the next `fork`'s inherited claim or the
//! body's final signal).
//!
//! ```
//! use spdag::run_dag;
//! use incounter::{DynSnzi, DynConfig};
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let hits = Arc::new(AtomicU64::new(0));
//! let h = Arc::clone(&hits);
//! run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |ctx| {
//!     let mut scope = ctx.into_scope();
//!     for _ in 0..10 {
//!         let h = Arc::clone(&h);
//!         scope.fork(move |_| { h.fetch_add(1, Ordering::Relaxed); });
//!     }
//!     // Scope ends; the enclosing finish waits for all 10 forks.
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 10);
//! ```

use incounter::CounterFamily;

use crate::dag::Ctx;

/// A multi-async view of the running vertex (see module docs).
///
/// Dropping the scope returns control to the body; the vertex signals its
/// finish as usual when the body ends, using the rotated handles.
pub struct Scope<'a, C: CounterFamily> {
    pub(crate) ctx: Ctx<'a, C>,
    /// The vertex's increment count when the scope opened: a body that
    /// runs in place in its parent's vertex finds its parent's there.
    opened_at: u64,
}

impl<'a, C: CounterFamily> Ctx<'a, C> {
    /// Turn the context into a multi-async scope. Unlike
    /// [`spawn`](Ctx::spawn)/[`chain`](Ctx::chain) this does **not** end
    /// the vertex: the body keeps running as the continuation of every
    /// [`Scope::fork`] it performs.
    pub fn into_scope(self) -> Scope<'a, C> {
        let opened_at = self.vertex_ref().increments;
        Scope { ctx: self, opened_at }
    }
}

impl<'a, C: CounterFamily> Scope<'a, C> {
    /// `async body` into the enclosing finish scope: the task may run in
    /// parallel with the rest of this body, and the finish vertex waits
    /// for it (and everything it transitively creates).
    pub fn fork(&mut self, body: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static) {
        // The fork step itself lives on Ctx since strands (which hold
        // `&mut Ctx`, never a Scope) fork through the same path.
        self.ctx.fork(body);
    }

    /// [`fork`](Scope::fork) a resumable [`Strand`](crate::Strand):
    /// the task may park on [`Ctx::touch_await`] and the finish scope
    /// still waits for its eventual completion.
    pub fn fork_strand<S: crate::Strand<C>>(&mut self, strand: S) {
        self.ctx.fork_strand(strand);
    }

    /// Number of forks performed through this scope so far.
    pub fn forked(&self) -> u64 {
        self.ctx.vertex_ref().increments - self.opened_at
    }

    /// End the scope, recovering the plain context (e.g. to terminate
    /// with a final [`Ctx::chain`] or [`Ctx::spawn`]).
    pub fn into_ctx(self) -> Ctx<'a, C> {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_dag;
    use incounter::{DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn flat_fanin<C: CounterFamily>(cfg: C::Config, workers: usize, n: u64) -> u64 {
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        run_dag::<C, _>(cfg, workers, move |ctx| {
            let mut scope = ctx.into_scope();
            for _ in 0..n {
                let h = Arc::clone(&h);
                scope.fork(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        hits.load(Ordering::Relaxed)
    }

    #[test]
    fn flat_fanin_all_families() {
        assert_eq!(flat_fanin::<DynSnzi>(DynConfig::always_grow(), 2, 500), 500);
        assert_eq!(flat_fanin::<DynSnzi>(DynConfig::with_threshold(8), 3, 500), 500);
        assert_eq!(flat_fanin::<FetchAdd>((), 2, 500), 500);
        assert_eq!(flat_fanin::<FixedDepth>(FixedConfig { depth: 3 }, 2, 500), 500);
    }

    #[test]
    fn zero_forks_is_fine() {
        assert_eq!(flat_fanin::<DynSnzi>(DynConfig::default(), 1, 0), 0);
    }

    #[test]
    fn forks_nest_recursively() {
        // Each forked task opens its own scope and forks again.
        fn rec<C: CounterFamily>(ctx: Ctx<'_, C>, depth: u32, hits: Arc<AtomicU64>) {
            if depth == 0 {
                hits.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let mut scope = ctx.into_scope();
            for _ in 0..3 {
                let h = Arc::clone(&hits);
                scope.fork(move |c| rec(c, depth - 1, h));
            }
            // This body itself also counts as a leaf of sorts — no: only
            // count depth-0 bodies.
        }
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        run_dag::<DynSnzi, _>(DynConfig::default(), 4, move |ctx| rec(ctx, 5, h));
        assert_eq!(hits.load(Ordering::Relaxed), 3u64.pow(5));
    }

    #[test]
    fn scope_then_chain_orders_after_forks() {
        // Forks complete before the chained continuation: the chain's
        // `first` nests a full finish scope.
        let hits = Arc::new(AtomicU64::new(0));
        let seen_at_then = Arc::new(AtomicU64::new(u64::MAX));
        let (h, s) = (Arc::clone(&hits), Arc::clone(&seen_at_then));
        run_dag::<DynSnzi, _>(DynConfig::default(), 4, move |ctx| {
            ctx.chain(
                move |c| {
                    let mut scope = c.into_scope();
                    for _ in 0..64 {
                        let h = Arc::clone(&h);
                        scope.fork(move |_| {
                            h.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                },
                move |_| {
                    s.store(hits.load(Ordering::Relaxed), Ordering::Relaxed);
                },
            );
        });
        assert_eq!(
            seen_at_then.load(Ordering::Relaxed),
            64,
            "the chained continuation must observe all forks done"
        );
    }

    #[test]
    fn fork_counter_reports() {
        let forked = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&forked);
        run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |ctx| {
            let mut scope = ctx.into_scope();
            for _ in 0..7 {
                scope.fork(|_| {});
            }
            f.store(scope.forked(), Ordering::Relaxed);
        });
        assert_eq!(forked.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn a_scope_opened_in_place_counts_its_own_forks() {
        // A spawn's children run in their parent's vertex (a left child
        // unless it was promoted), whose increments the parent's forks and
        // any promotion already counted.
        for workers in [1, 2] {
            let seen = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
            let s = Arc::clone(&seen);
            run_dag::<DynSnzi, _>(DynConfig::default(), workers, move |ctx| {
                let mut scope = ctx.into_scope();
                for _ in 0..3 {
                    scope.fork(|_| {});
                }
                let fork_n = |n: u64, i: usize, s: Arc<[AtomicU64; 2]>| {
                    move |c: Ctx<'_, DynSnzi>| {
                        let mut scope = c.into_scope();
                        for _ in 0..n {
                            scope.fork(|_| {});
                        }
                        s[i].store(scope.forked(), Ordering::Relaxed);
                    }
                };
                scope.into_ctx().spawn(fork_n(2, 0, Arc::clone(&s)), fork_n(5, 1, s));
            });
            let forked = seen.each_ref().map(|a| a.load(Ordering::Relaxed));
            assert_eq!(forked, [2, 5], "W={workers}");
        }
    }

    #[test]
    fn scope_into_ctx_allows_final_spawn() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        run_dag::<DynSnzi, _>(DynConfig::default(), 2, move |ctx| {
            let mut scope = ctx.into_scope();
            let h1 = Arc::clone(&h);
            scope.fork(move |_| {
                h1.fetch_add(1, Ordering::Relaxed);
            });
            let (h2, h3) = (Arc::clone(&h), h);
            scope.into_ctx().spawn(
                move |_| {
                    h2.fetch_add(10, Ordering::Relaxed);
                },
                move |_| {
                    h3.fetch_add(100, Ordering::Relaxed);
                },
            );
        });
        assert_eq!(hits.load(Ordering::Relaxed), 111);
    }
}
