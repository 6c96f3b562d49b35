//! Dag construction and execution (the paper's Figure 3 operations and the
//! scheduler glue).
//!
//! The paper presents `make`, `new_vertex`, `chain`, `spawn` and `signal`
//! as operations on a mutable dag; here they appear in the closure-passing
//! form natural to Rust:
//!
//! * [`run_dag`] is `make` + `Scheduler.initialize` + the add/execute loop:
//!   it builds the root and final vertices and drives the pool until the
//!   final vertex runs.
//! * [`Ctx::spawn`] and [`Ctx::chain`] are `spawn`/`chain`; they take the
//!   children's bodies directly instead of returning raw vertices (the
//!   paper's two-phase "create, then assign `body`" is an artifact of its
//!   pseudocode language — the handle discipline is identical). `spawn` is
//!   lazy and work-first: both children run in the spawning vertex, and the
//!   spawn counts nothing, unless a worker whose deque has nothing for a
//!   thief promotes the waiting left child into a vertex of its own, by one
//!   increment (`crate::in_place`). A child becomes a vertex only by the
//!   fork step that [`Ctx::fork`] takes (`crate::vertex::fork_vertex`):
//!   promoted, left behind by a right child that unwound, or the left child
//!   of a spawn past the stack bound, whose right child takes the spawning
//!   vertex's place as a `chain` continuation does.
//! * `signal` is implicit: when a body returns without having ended its
//!   vertex (a chain, a touch), the executor claims the decrement handle
//!   the vertex holds — its own, or the one it rotated onto when a fork or
//!   a promotion split it — and decrements the finish vertex's counter; a `true`
//!   return (counter hit zero) schedules the finish vertex. This is the
//!   paper's implementation note that readiness detection rides on
//!   `snzi_depart`'s return value. The only strand of a scope that never
//!   forked holds no handle and there is no counter: its signal schedules
//!   the finish vertex outright. The only strand of a future's scope that
//!   never forked carries the future's completion instead of a finish
//!   vertex, and seals and sweeps before it signals (`crate::vertex`).
//!
//! One departure from Figure 3, argued in [`crate::vertex`]: `chain` does
//! not call `new_vertex(1)`. Every vertex is born without a counter, and a
//! scope's counter is made at its first increment — by the fork step or a
//! future (which joins its enclosing scope by one), never by `run_dag`, and
//! by a `chain`, a `touch` or the right child of a spawn past the stack
//! bound only when it splits a vertex in which a spawn's left child waits
//! (`crate::in_place`).

use std::time::{Duration, Instant};

use incounter::CounterFamily;
use sched::{PoolStats, Termination, WorkerCtx};

use crate::in_place::{self, StackRoom};
use crate::vertex::{
    fork_vertex, solo_step, Body, NoBody, Once, Resumable, Strand, StrandPoll, Vertex, VertexPtr,
};

/// Per-body execution context: the running vertex plus scheduler access.
///
/// `Ctx` is consumed by [`spawn`](Ctx::spawn)/[`chain`](Ctx::chain), making
/// "spawn/chain must be the last dag operation of a body" (the paper's
/// protocol) a compile-time property.
pub struct Ctx<'a, C: CounterFamily> {
    /// The running vertex. Exclusive: the executor owns the vertex while
    /// its body runs, which is what lets `Scope::fork` rotate handles.
    pub(crate) vertex: &'a mut Vertex<C>,
    pub(crate) worker: &'a WorkerCtx<'a, VertexPtr<C>>,
    pub(crate) cfg: &'a C::Config,
    /// `true` only while a strand's frame is running: the executor builds
    /// every context with `false`, and only a strand's run thunk sets it.
    /// Gates [`arm_park`](Ctx::arm_park): a one-shot body has no frame to
    /// park, so letting it register on an out-set would retire the vertex
    /// with the registration still armed — a use-after-free in waiting. The
    /// gate turns that into an immediate panic before anything is
    /// registered.
    pub(crate) resumable: bool,
}

impl<'a, C: CounterFamily> Ctx<'a, C> {
    /// Index of the worker executing this body.
    pub fn worker_id(&self) -> usize {
        self.worker.worker_id()
    }

    /// Number of workers in the pool.
    pub fn num_workers(&self) -> usize {
        self.worker.num_workers()
    }

    /// One uniform 64-bit value from the executing worker's private
    /// stream (distinct workers are seeded apart, so concurrent bodies
    /// never share generator state). Deterministic per worker given the
    /// pool's seed — stress tests use this instead of ambient entropy so
    /// a failing interleaving can be re-run.
    pub fn rng_u64(&self) -> u64 {
        self.worker.rng_u64()
    }

    pub(crate) fn vertex_ref(&self) -> &Vertex<C> {
        self.vertex
    }

    /// Arm the two-delivery park handshake on the running vertex (the
    /// [`touch_await`](Ctx::touch_await) protocol, exposed to the async
    /// bridge which registers the token itself): `owed` = 2, one for the
    /// fulfiller and one for this executor's commit. Returns the out-set
    /// registration token: the vertex address.
    pub(crate) fn arm_park(&mut self) -> u64 {
        assert!(
            self.resumable,
            "touch_await outside a strand resumption: only resumable strand bodies \
             (fork_strand/future_strand/fork_async and friends) can park; a one-shot \
             body has no frame to resume"
        );
        let u = self.vertex_mut();
        debug_assert!(!u.park_pending, "park armed twice in one resumption");
        // Exclusive: nothing is registered yet, so nobody holds a delivery
        // right. The registration that follows publishes the word.
        *u.owed.get_mut() = 2;
        u.park_pending = true;
        u as *mut Vertex<C> as usize as u64
    }

    /// Undo [`arm_park`](Ctx::arm_park) after a bounced registration (the
    /// future sealed first — no fulfiller delivery will ever come, so the
    /// word is still this executor's alone).
    pub(crate) fn disarm_park(&mut self) {
        let u = self.vertex_mut();
        debug_assert!(u.park_pending, "disarm without a pending park");
        *u.owed.get_mut() = 0;
        u.park_pending = false;
    }

    pub(crate) fn vertex_mut(&mut self) -> &mut Vertex<C> {
        self.vertex
    }

    /// Parallel composition (the paper's `spawn`; equivalently `async
    /// left` with continuation `right`). Its two children may run
    /// concurrently; the enclosing finish scope waits for both. The
    /// calling body's strand ends here: its children signal, it does not.
    ///
    /// The spawn is **lazy and work-first** (`crate::in_place`): both
    /// children run at once, in this vertex and on this stack, the right
    /// child first while the left one waits, and the spawn counts nothing
    /// — no increment, no decrement pair, no decrement. Children that run
    /// one after the other cannot overlap, so this vertex's own place in its
    /// scope covers both; a `chain` or `touch` made while the left child
    /// still waits splits that place by one increment. With two or more
    /// workers a waiting left child is work a thief could take: when a
    /// spawn finds its worker's deque empty it **promotes** the oldest left
    /// child waiting in this vertex into a vertex of its own, by one
    /// increment, and pushes it; that child then runs wherever it is taken,
    /// and not here. So:
    ///
    /// * code after this call runs **after both children** unless the left
    ///   child was promoted (then after the right child only), but it is
    ///   still ordered before nothing in the dag: the children carry the
    ///   scope's obligation, and what they pushed (a promoted left child,
    ///   the `first` of a `chain`) may finish, and the enclosing finish
    ///   run, while it is still executing. The one exception is the return
    ///   value of a future's body — the future completes only once it is
    ///   published;
    /// * a left child that was not promoted runs **before** the work its
    ///   right sibling's subtree pushed (a `chain`'s `first`, a `touch`
    ///   continuation, a promoted left child), not after it as a deque's
    ///   LIFO order would have it.
    ///
    /// Past a fixed stack bound both children become vertices and are
    /// pushed — the left one forked, the right one in this vertex's place —
    /// so recursion through `spawn` never grows the stack without limit.
    pub fn spawn(
        self,
        left: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
        right: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
    ) {
        let Ctx { vertex: u, worker, cfg, .. } = self;
        obs::counter!("spdag.spawns").inc();
        obs::trace::record(obs::EventKind::Spawn, u as *const Vertex<C> as u64);
        let Some(_room) = StackRoom::take() else {
            return spawn_past_bound(u, worker, cfg, left, right);
        };
        // Both children run here, one after the other, inside what `u`'s
        // own handles already count — unless a thief could use the left one.
        in_place::run_in_place(u, worker, cfg, left, right);
    }

    /// Serial composition (the paper's `chain`; equivalently `finish {
    /// first }` followed by `then`). `then` runs only after `first` and
    /// everything it transitively spawns have finished. The current vertex
    /// dies — `then` inherits its handles and obligations. As after
    /// [`spawn`](Ctx::spawn), code after this call is ordered before
    /// nothing but the enclosing future's completion.
    pub fn chain(
        self,
        first: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
        then: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
    ) {
        let u = self.vertex;
        obs::counter!("spdag.chains").inc();
        obs::trace::record(obs::EventKind::Chain, u as *const Vertex<C> as u64);
        // w: the new finish vertex; takes over u's position in u's scope
        // (inherits fin, inc, left/right position, and u's pair pointer
        // with the one claim u still owes it — or u's place as its scope's
        // only strand; a place split off u's while a spawn's left child
        // waits to run in u) and waits on one dependency: the
        // completion of `first`'s subtree. w closes a scope, so a future's
        // completion that u carries becomes a vertex first, and w takes u's
        // place in its scope.
        u.build_completion();
        let (inc, dec, is_left) = u.hand_off(self.cfg, self.worker);
        let w_ptr = Vertex::slab().emplace(inc, dec, u.fin, is_left, Once(then));
        // v: the only strand of w's scope, which has no counter until v (or
        // what replaces it) forks.
        let v = Vertex::slab().emplace_sole(w_ptr, Once(first));
        // v is ready (no dependencies); w waits for the signal that ends
        // its scope — nobody pushes it until then.
        self.worker.push(VertexPtr(v));
    }

    /// `async body` into the enclosing finish scope without consuming the
    /// context (the [`Scope`](crate::Scope) fork, available directly):
    /// the task may run in parallel with the rest of this body, and the
    /// enclosing finish waits for it. Strand bodies use this to fan out
    /// mid-resumption — a strand only ever holds `&mut Ctx`, so the
    /// consuming [`spawn`](Ctx::spawn)/[`chain`](Ctx::chain) are off
    /// limits to it by construction.
    pub fn fork(&mut self, body: impl for<'b> FnOnce(Ctx<'b, C>) + Send + 'static) {
        self.fork_body(Once(body));
    }

    /// [`fork`](Ctx::fork) a *resumable strand*: the child may
    /// [`touch_await`](Ctx::touch_await) futures mid-body, parking itself
    /// (never its worker) until they fulfill.
    pub fn fork_strand<S: Strand<C>>(&mut self, strand: S) {
        self.fork_body(Resumable(strand));
    }

    fn fork_body(&mut self, body: impl Body<C>) {
        // The forked task is the left child, ready immediately.
        fork_vertex(self.vertex, self.worker, self.cfg, body);
    }
}

/// A spawn past the stack bound ([`Ctx::spawn`], `crate::in_place`): the
/// left child is forked, and the right child takes `u`'s place as a
/// `chain` continuation does — or splits one off it while a left child
/// waits to run in `u`. Out of `spawn`'s own body, so that a debug build's
/// frame for the in-place path — which a spawn recursion nests once a
/// level — does not hold all of this one's too.
fn spawn_past_bound<C, L, R>(
    u: &mut Vertex<C>,
    worker: &WorkerCtx<'_, VertexPtr<C>>,
    cfg: &C::Config,
    left: L,
    right: R,
) where
    C: CounterFamily,
    L: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
    R: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    // The fork step built the completion `u` may have carried.
    fork_vertex(u, worker, cfg, Once(left));
    let (inc, dec, is_left) = u.hand_off(cfg, worker);
    let w = Vertex::slab().emplace(inc, dec, u.fin, is_left, Once(right));
    worker.push(VertexPtr(w));
}

/// Exclusive ownership of a scheduled vertex for the duration of its
/// execution; retires the vertex (drop glue, then the slab goes back to
/// its size class) on every exit path.
struct OwnedVertex<C: CounterFamily>(*mut Vertex<C>);

impl<C: CounterFamily> std::ops::Deref for OwnedVertex<C> {
    type Target = Vertex<C>;
    fn deref(&self) -> &Vertex<C> {
        // SAFETY: the executor holds the vertex exclusively (dag
        // discipline: each pointer is handed to exactly one executor).
        unsafe { &*self.0 }
    }
}

impl<C: CounterFamily> std::ops::DerefMut for OwnedVertex<C> {
    fn deref_mut(&mut self) -> &mut Vertex<C> {
        // SAFETY: as for Deref — exclusive ownership.
        unsafe { &mut *self.0 }
    }
}

impl<C: CounterFamily> Drop for OwnedVertex<C> {
    fn drop(&mut self) {
        // SAFETY: we are the single executor and nothing uses the vertex
        // after this point (fin was pushed by pointer, not reference,
        // and fin is a *different* vertex).
        unsafe { Vertex::retire(self.0) };
    }
}

/// Commit a park: hand the vertex to whoever resumes it. Called with the
/// body back in the vertex (or left empty, after a panic) and every other
/// field final; the decrement below releases the executor's half of the
/// two deliveries `touch_await` armed in `owed` — one belongs to the
/// fulfiller's sweep, one to us, and whoever lands second zeroes the word
/// and reschedules the vertex. Decrement-last makes every field write
/// above it visible to the resuming executor through the word's
/// release/acquire edge — after our decrement we own nothing.
fn commit_park<C: CounterFamily>(v: OwnedVertex<C>, worker: &WorkerCtx<'_, VertexPtr<C>>) {
    worker.note_suspend();
    obs::counter!("spdag.strand_suspend").inc();
    obs::trace::record(obs::EventKind::StrandPark, v.0 as u64);
    let vp = v.0;
    // Ownership parks with the vertex.
    std::mem::forget(v);
    // SAFETY: touch_await armed `owed` with 2 and registered exactly one
    // out-set waker; this is the executor's single matching decrement.
    if unsafe { crate::futures::resolve_dependent::<C>(vp, solo_step(worker)) } {
        worker.push(VertexPtr(vp));
    }
}

/// Execute one vertex: run its body, then — unless the body ended with a
/// spawn/chain, or parked itself on a future — complete the future the
/// vertex carries, if any, and signal the finish vertex (the paper's
/// `signal`).
fn execute_vertex<C: CounterFamily>(
    cfg: &C::Config,
    worker: &WorkerCtx<'_, VertexPtr<C>>,
    ptr: VertexPtr<C>,
) {
    // The dag hands each vertex pointer to exactly one executor; the
    // guard takes back the ownership that `spawn`/`chain`/`run_dag`
    // leaked and retires the vertex when it drops.
    let mut v = OwnedVertex(ptr.0);
    if v.park_pending {
        // This schedule is a *resumption*: a previous executor parked the
        // strand on a future's out-set and the fulfill handshake zeroed
        // the vertex's `owed` word. The flag survived the park precisely
        // so this entry check can tell resumptions from first runs.
        v.park_pending = false;
        worker.note_resume();
        obs::counter!("spdag.strand_resume").inc();
    }
    // The body runs inside `catch_unwind`: one panicking body must not
    // unwind into the worker loop (stranding siblings on a termination
    // count that never arrives) and must not skip the signal epilogue —
    // the dag keeps draining structurally, the pool terminates through
    // the normal final-vertex path, and `sched::run` re-raises the first
    // captured payload at the caller. `docs/robustness.md` walks the
    // state machine.
    let parked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Failpoint (no-op unless `fault-inject` arms it): stand in for a
        // *user* body that panics. The runtime's own bodies are kept out —
        // a built completion vertex runs the seal-and-sweep, which no user
        // panic can reach and whose loss would strand every registered
        // dependent; a carrier's seal-and-sweep runs after this, in the
        // epilogue.
        if !v.runtime_body && sched::failpoint::fire("spdag.panic_vertex") {
            panic!("failpoint: spdag.panic_vertex injected a body panic");
        }
        let mut frame = v.body.take();
        match frame.run(Ctx { vertex: &mut v, worker, cfg, resumable: false }) {
            // The body ran to its end — completed, spawned, chained, or
            // misbehaved (a leftover armed park), all settled by the
            // epilogue below. The frame drops here.
            StrandPoll::Done(()) => None,
            // A strand asks to park: its frame goes back for the commit.
            StrandPoll::Parked => Some(frame),
        }
    }));
    match parked {
        Ok(None) => {}
        Ok(Some(frame)) => {
            assert!(
                v.park_pending,
                "strand returned Parked without a parked touch_await \
                 (nothing would ever resume it)"
            );
            v.body = frame;
            return commit_park(v, worker);
        }
        Err(payload) => {
            obs::counter!("spdag.body_panics").inc();
            worker.record_panic(payload);
            // A body the failpoint stood in for is still in the vertex: end
            // it now, so that a future's setter in it goes before a
            // completion this vertex carries waits for it.
            drop(v.body.take());
            if v.park_pending {
                // The body panicked *after* a Parked touch_await
                // registered this vertex on a future's out-set (user code
                // only regains control once the registration is in; see
                // docs/robustness.md for the window argument). The
                // fulfill side holds the other of the two owed
                // deliveries and will deliver to this address, so the
                // vertex must stay alive: commit the park with the body
                // left empty — the frame already dropped during the
                // unwind, releasing any spilled state. The resumption
                // runs nothing and falls through to the signal epilogue,
                // so the scope still drains.
                return commit_park(v, worker);
            }
            // Fall through to the signal epilogue: a panicked vertex
            // still signals fin (its children, if any spawn/chain landed
            // before the panic, are already scheduled and carry their own
            // obligations), so the enclosing scope drains to the final
            // vertex and conservation holds with zero leaked vertices.
        }
    }
    if v.park_pending {
        // A touch_await armed this vertex on a future's out-set, yet the
        // body ended without committing the park (a strand that claimed
        // Done after a Parked touch). The registration will fire into
        // whatever the slab becomes; retiring — or even signalling fin —
        // would be a use-after-free in waiting, so leak the vertex and
        // fail loudly. Checked before the `dead` early-return so a body
        // that parked and then spawned/chained cannot slip through.
        std::mem::forget(v);
        panic!("body ended with a parked touch_await still armed (strand returned Done?)");
    }
    if v.dead {
        return; // continuation took over this vertex's obligations
    }
    // The strand ended without handing its place on. A carrier, the only
    // strand of a future's scope, ends that scope here: it seals the
    // future's out-set and sweeps it in place — a task run in place —
    // before the signal below ends its place in the enclosing scope
    // (`crate::vertex`, "A future's completion rides its sole strand").
    v.complete(worker);
    if v.fin.is_null() {
        // The final vertex of the dag: the whole computation is done.
        worker.finish();
        return;
    }
    // SAFETY: fin outlives all vertices of its scope (module docs).
    let fin_ref = unsafe { &*v.fin };
    let solo = solo_step(worker);
    let ready = if v.dec.is_none() {
        // The scope's only strand: nothing was ever counted, so its end is
        // the scope's end — no claim, no decrement, no counter.
        debug_assert!(
            // SAFETY: as the only strand, nobody else reaches the field.
            !unsafe { fin_ref.has_counter() },
            "sp-dag invariant violated: a sole strand's scope has a counter"
        );
        true
    } else {
        // SAFETY: the vertex neither spawned, chained nor touched (`dead`
        // is clear), so its one claim on the pair it holds is still unspent.
        let d = unsafe { v.dec.claim(solo) };
        // SAFETY: a strand with a real pair; `d` was produced by an
        // increment on `fin`'s counter (or is its root handle matching the
        // initial count) and is consumed exactly once — the claim
        // protocol's guarantee.
        unsafe {
            match solo {
                Some(x) => C::decrement_with(fin_ref.counter_ref(), d, x),
                None => C::decrement(fin_ref.counter_ref(), d),
            }
        }
    };
    if ready {
        worker.push(VertexPtr(v.fin as *mut Vertex<C>));
    }
}

/// Statistics from one dag execution.
#[derive(Debug, Clone, Default)]
pub struct DagRunStats {
    /// Scheduler statistics (tasks = vertex executions plus the spawned
    /// children run in place, so `tasks − resumes` is the dag's vertex
    /// count; steals, parks).
    pub pool: PoolStats,
    /// Wall-clock time of the parallel phase (pool spin-up included).
    pub elapsed: Duration,
}

/// Build an sp-dag with the given root body and execute it to completion
/// on `workers` workers (the paper's `make` + scheduling loop).
///
/// Returns when the dag's final vertex — which every strand transitively
/// synchronises with — has executed.
pub fn run_dag<C, F>(cfg: C::Config, workers: usize, root: F) -> DagRunStats
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    run_dag_inner::<C>(cfg, workers, None, first_vertices(Once(root)))
}

/// As [`run_dag`], with a [`sched::WatchdogCfg`] stall monitor attached:
/// if no vertex executes for the configured timeout while the dag is
/// unfinished, the watchdog dumps queue/counter/trace diagnostics and
/// fails the run with that report instead of hanging (see
/// `docs/robustness.md` for the report format). Tests and the bench
/// harness use this so a reintroduced lost-wakeup or leaked-dependency
/// bug dies in seconds, not a CI timeout.
pub fn run_dag_watched<C, F>(
    cfg: C::Config,
    workers: usize,
    watchdog: sched::WatchdogCfg,
    root: F,
) -> DagRunStats
where
    C: CounterFamily,
    F: for<'b> FnOnce(Ctx<'b, C>) + Send + 'static,
{
    run_dag_inner::<C>(cfg, workers, Some(watchdog), first_vertices(Once(root)))
}

/// Build the dag's first two vertices and return the root, `u`. The final
/// vertex `z` has one dependency (the root strand), no finish of its own
/// and so no handles either — `fin == null` short-circuits signalling; it
/// runs nothing, and nothing of a user's. The root is ready immediately,
/// the only strand of `z`'s scope, and signals `z` when its whole subtree
/// is done.
fn first_vertices<C: CounterFamily>(root: impl Body<C>) -> *mut Vertex<C> {
    let z_ptr = Vertex::<C>::slab().emplace_sole(std::ptr::null(), NoBody);
    // SAFETY: just built, unpublished.
    unsafe { (*z_ptr).runtime_body = true };
    Vertex::slab().emplace_sole(z_ptr, root)
}

/// Run the dag whose root vertex `u` [`first_vertices`] built. Not generic
/// over the root's body, so the pool's worker loop is compiled once per
/// counter family, not once per root closure.
fn run_dag_inner<C: CounterFamily>(
    cfg: C::Config,
    workers: usize,
    watchdog: Option<sched::WatchdogCfg>,
    u: *mut Vertex<C>,
) -> DagRunStats {
    let start = Instant::now();
    let cfg_ref = &cfg;
    let interp =
        move |worker: &WorkerCtx<'_, VertexPtr<C>>, ptr| execute_vertex::<C>(cfg_ref, worker, ptr);
    let roots = vec![VertexPtr(u)];
    let pool = match watchdog {
        None => sched::run(workers, roots, Termination::DoneFlag, interp),
        Some(w) => sched::run_watched(workers, roots, Termination::DoneFlag, w, interp),
    };
    DagRunStats { pool, elapsed: start.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incounter::{DynConfig, DynSnzi, FetchAdd, FixedConfig, FixedDepth};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn counter_pair() -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        let a = Arc::new(AtomicU64::new(0));
        (Arc::clone(&a), a)
    }

    #[test]
    fn empty_root_completes() {
        for workers in [1, 2, 4] {
            let stats = run_dag::<DynSnzi, _>(DynConfig::always_grow(), workers, |_| {});
            // Root + final vertex.
            assert_eq!(stats.pool.tasks, 2, "workers={workers}");
        }
    }

    #[test]
    fn single_spawn_runs_both_sides() {
        let (h, hits) = counter_pair();
        let (a, b) = (Arc::clone(&h), Arc::clone(&h));
        run_dag::<DynSnzi, _>(DynConfig::always_grow(), 2, move |ctx| {
            ctx.spawn(
                move |_| {
                    a.fetch_add(1, Ordering::Relaxed);
                },
                move |_| {
                    b.fetch_add(10, Ordering::Relaxed);
                },
            );
        });
        assert_eq!(hits.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn chain_orders_strictly() {
        // `then` must observe every effect of `first`'s whole subtree.
        let (h, observed) = counter_pair();
        let spawned = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&spawned);
        run_dag::<DynSnzi, _>(DynConfig::always_grow(), 4, move |ctx| {
            let h2 = Arc::clone(&h);
            ctx.chain(
                move |c| {
                    // first: a little spawn tree bumping `spawned`.
                    let (s1, s2, s3) = (Arc::clone(&s), Arc::clone(&s), Arc::clone(&s));
                    c.spawn(
                        move |c2| {
                            let (x, y) = (Arc::clone(&s1), s2);
                            c2.spawn(
                                move |_| {
                                    x.fetch_add(1, Ordering::Relaxed);
                                },
                                move |_| {
                                    y.fetch_add(1, Ordering::Relaxed);
                                },
                            );
                        },
                        move |_| {
                            s3.fetch_add(1, Ordering::Relaxed);
                        },
                    );
                },
                move |_| {
                    // then: snapshot what first produced.
                    h2.store(3, Ordering::Relaxed);
                },
            );
        });
        assert_eq!(observed.load(Ordering::Relaxed), 3);
        assert_eq!(spawned.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn chain_then_sees_first_effects() {
        // Write in first, read in then — the dependency makes it safe.
        let cell = Arc::new(AtomicU64::new(0));
        let out = Arc::new(AtomicU64::new(0));
        let (c1, c2) = (Arc::clone(&cell), Arc::clone(&cell));
        let o = Arc::clone(&out);
        run_dag::<DynSnzi, _>(DynConfig::always_grow(), 4, move |ctx| {
            ctx.chain(
                move |_| {
                    c1.store(42, Ordering::Relaxed);
                },
                move |_| {
                    o.store(c2.load(Ordering::Relaxed), Ordering::Relaxed);
                },
            );
        });
        assert_eq!(out.load(Ordering::Relaxed), 42);
    }

    fn spawn_tree<C: CounterFamily>(ctx: Ctx<'_, C>, depth: u32, hits: Arc<AtomicUsize>) {
        if depth == 0 {
            hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let (h1, h2) = (Arc::clone(&hits), hits);
        ctx.spawn(move |c| spawn_tree(c, depth - 1, h1), move |c| spawn_tree(c, depth - 1, h2));
    }

    fn check_spawn_tree<C: CounterFamily>(cfg: C::Config, workers: usize, depth: u32) {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        run_dag::<C, _>(cfg, workers, move |ctx| spawn_tree(ctx, depth, h));
        assert_eq!(hits.load(Ordering::Relaxed), 1 << depth);
    }

    #[test]
    fn deep_spawn_tree_dyn() {
        for workers in [1, 2, 4] {
            check_spawn_tree::<DynSnzi>(DynConfig::always_grow(), workers, 10);
            check_spawn_tree::<DynSnzi>(DynConfig::default(), workers, 10);
            check_spawn_tree::<DynSnzi>(DynConfig::never_grow(), workers, 10);
        }
    }

    #[test]
    fn deep_spawn_tree_fetch_add() {
        for workers in [1, 2, 4] {
            check_spawn_tree::<FetchAdd>((), workers, 10);
        }
    }

    #[test]
    fn deep_spawn_tree_fixed() {
        for workers in [1, 3] {
            for depth in [0, 2, 5] {
                check_spawn_tree::<FixedDepth>(FixedConfig { depth }, workers, 10);
            }
        }
    }

    #[test]
    fn nested_chains_and_spawns_mixed() {
        // indegree2-style nesting: every level opens a finish block.
        fn rec<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, hits: Arc<AtomicUsize>) {
            if n < 2 {
                hits.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let h = Arc::clone(&hits);
            ctx.chain(
                move |c| {
                    let (a, b) = (Arc::clone(&h), Arc::clone(&h));
                    c.spawn(move |c2| rec(c2, n / 2, a), move |c2| rec(c2, n / 2, b));
                },
                move |_| {},
            );
        }
        for workers in [1, 3] {
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            run_dag::<DynSnzi, _>(DynConfig::always_grow(), workers, move |ctx| rec(ctx, 64, h));
            assert_eq!(hits.load(Ordering::Relaxed), 64);
        }
    }

    #[test]
    fn code_after_spawn_still_runs() {
        // spawn consumes the Ctx but the body may continue with plain code.
        let (h, hits) = counter_pair();
        let tail = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&tail);
        run_dag::<DynSnzi, _>(DynConfig::always_grow(), 2, move |ctx| {
            let (a, b) = (Arc::clone(&h), Arc::clone(&h));
            ctx.spawn(
                move |_| {
                    a.fetch_add(1, Ordering::Relaxed);
                },
                move |_| {
                    b.fetch_add(1, Ordering::Relaxed);
                },
            );
            t.store(99, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(tail.load(Ordering::Relaxed), 99);
    }

    #[test]
    fn spawns_in_one_vertex_take_distinct_placement_keys() {
        // Every spawn of a right spine runs in the root's vertex. A spawn
        // makes an increment only when it promotes a waiting left child
        // (W = 2; at the root's first spawn always, its worker's deque
        // being empty), and a hashed family must see a different key for
        // each, or all of them would arrive on one leaf: the key is salted
        // by the increments made so far. At W = 1 none makes one, and none
        // takes a key.
        type Seen = Arc<std::sync::Mutex<Vec<(usize, u64, u64)>>>;
        fn spine(ctx: Ctx<'_, FixedDepth>, n: u32, seen: Seen) {
            let v = ctx.vertex_ref();
            seen.lock().unwrap().push((v as *const _ as usize, v.key(), v.increments));
            if n > 0 {
                ctx.spawn(|_| {}, move |c| spine(c, n - 1, seen));
            }
        }
        for workers in [1, 2] {
            let seen: Seen = Arc::default();
            let s = Arc::clone(&seen);
            run_dag::<FixedDepth, _>(FixedConfig { depth: 3 }, workers, move |ctx| {
                spine(ctx, 8, s)
            });
            let seen = seen.lock().unwrap();
            let (root, key0, _) = seen[0];
            assert!(seen.iter().all(|&(v, ..)| v == root), "W={workers}: one vertex");
            for (i, &(_, key, increments)) in seen.iter().enumerate() {
                assert_eq!(key, key0 + increments, "W={workers}, level {i}: salted");
                let promoted = if i == 0 { 0 } else { increments - seen[i - 1].2 };
                // A spawn promotes one waiting left child or none; at W = 1
                // none.
                assert!(matches!(promoted, 0 | 1), "W={workers}, level {i}: {promoted}");
                assert!(workers > 1 || increments == 0, "W={workers}, level {i}: {increments}");
            }
            let first = u64::from(workers > 1);
            assert_eq!(seen[1].2, first, "W={workers}: the first spawn promotes iff W > 1");
        }
    }

    #[test]
    fn worker_ids_visible_in_bodies() {
        let max_seen = Arc::new(AtomicUsize::new(0));
        let m = Arc::clone(&max_seen);
        run_dag::<DynSnzi, _>(DynConfig::always_grow(), 3, move |ctx| {
            assert_eq!(ctx.num_workers(), 3);
            m.fetch_max(ctx.worker_id(), Ordering::Relaxed);
        });
        assert!(max_seen.load(Ordering::Relaxed) < 3);
    }

    #[test]
    fn fib_end_to_end() {
        fn fib<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, dest: Arc<AtomicU64>) {
            if n <= 1 {
                dest.store(n, Ordering::Relaxed);
                return;
            }
            let r1 = Arc::new(AtomicU64::new(0));
            let r2 = Arc::new(AtomicU64::new(0));
            let (a1, a2) = (Arc::clone(&r1), Arc::clone(&r2));
            ctx.chain(
                move |c| {
                    c.spawn(move |c2| fib(c2, n - 1, a1), move |c2| fib(c2, n - 2, a2));
                },
                move |_| {
                    dest.store(
                        r1.load(Ordering::Relaxed) + r2.load(Ordering::Relaxed),
                        Ordering::Relaxed,
                    );
                },
            );
        }
        let result = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&result);
        run_dag::<DynSnzi, _>(DynConfig::default(), 4, move |ctx| fib(ctx, 15, r));
        assert_eq!(result.load(Ordering::Relaxed), 610);
    }
}
