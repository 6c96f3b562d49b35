//! Work-stealing worker pool.
//!
//! [`run`] drives `n` workers, each owning one Chase–Lev deque, until the
//! computation terminates. Ready tasks go to the bottom of
//! the running worker's own deque (work-first, LIFO for locality); idle
//! workers steal from the top of a uniformly random victim (FIFO — the
//! oldest, typically largest, piece of work), the classic Blumofe–Leiserson
//! discipline the paper's substrate scheduler (Acar–Charguéraud–Rainey,
//! PPoPP'13) also follows.
//!
//! A run ends when the computation says so: some task calls
//! [`WorkerCtx::finish`] (sp-dag execution does it from the final vertex,
//! which runs last by construction), and each worker drains its own deque
//! and returns. No shared counter is touched per task — this pool is the
//! substrate underneath the contention experiments, and detecting the end
//! by counting outstanding tasks would be exactly the one shared
//! fetch-and-add per task that the in-counters replace. A run with no
//! roots returns at once.
//!
//! Idle workers park on an event-count built from a `std::sync` mutex +
//! condvar. The waiter/notifier handshake uses sequentially consistent
//! fences in the store-buffer pattern (waiter: announce, fence, re-check;
//! notifier: publish, fence, check announcements), plus a bounded wait as
//! belt and braces, so wakeups cannot be lost.
//!
//! A push wakes **one** sleeper (`EventCount::notify` → `notify_one`);
//! the woken worker re-notifies after its first successful steal if it
//! can see surplus work on any deque, so a burst of pushes fans wakeups
//! out as a chain instead of stampeding every sleeper at once (the
//! thundering herd that made `PoolStats::parks` spike under trickle loads).
//! Only termination broadcasts to everybody. An idle worker makes a few
//! spin-relax steal sweeps over the other workers' deques, then parks; a
//! woken worker starts that ladder again.
//!
//! **Steals must pay.** A worker stamps the clock when a steal lands; the
//! next time its own deque runs dry it must have been busy for
//! [`STEAL_PAYS`] since the stamp, or it *rests* for the remainder before
//! it hunts again. A rester is not a sleeper: it is not in `waiters`, so
//! no push pays a futex for it; it waits on a condvar only termination
//! signals, so a push's `notify_one` is never spent on it and [`run`]
//! never waits out a rest; it loops on its deadline, so a spurious return
//! cannot shorten it. Hence `steals ≤ W · (1 + elapsed / STEAL_PAYS)` on
//! every run, and a steal that takes a long-running subtree never rests.
//! **Known limit:** a flat loop of forks each shorter than `STEAL_PAYS`
//! gives a thief a duty cycle of `ran / STEAL_PAYS`; no caller here has
//! that shape (`parallel_for` halves recursively, the tree workloads fork
//! subtrees) and steal-half is the answer if one ever does.
//!
//! ## Who runs the workers
//!
//! No thread is born per run. The thread that calls [`run`] *is* worker 0:
//! a one-worker run executes every task on its caller and performs no
//! thread operation at all (which is also what lets a caller pin itself
//! and have the work inherit the mask). Workers `1..n` — and the watchdog
//! of [`run_watched`], one more of the same — are **leased** from a
//! process-wide set of resident helper threads: spawned on first demand,
//! parked on a one-slot mailbox between runs, never retired. A lease is
//! exclusive, so the set's size is the high-water mark of concurrent
//! demand; concurrent runs get disjoint helpers and a `run` nested inside
//! a task leases more. One caveat: a helper keeps the CPU mask of the
//! thread whose run first needed it.
//!
//! Everything a run shares (`Shared`, the deques, the tallies, the panic
//! slot, the steal-pacing stamps) is still built on the caller's stack,
//! per run, so nothing carries over from one run to the next — a
//! poisoned run does not poison the helpers. Each helper is handed a
//! lifetime-erased job that borrows that state. **The latch rule** is
//! what makes the loan sound: a helper's mailbox slot stays occupied from
//! the hand-off until the job has *ended* (a job that unwinds has ended
//! too: the helper catches it and lives on), and the run's `Leases` guard
//! — on the normal path and on unwind alike — signals termination if
//! nobody has and then waits for every slot to clear before the caller's
//! frame can go. It is the hand-written equivalent of a scoped thread's
//! join.
//!
//! ## What one worker does not pay
//!
//! A barrier or a locked instruction buys an ordering against another
//! thread, and costs more than its own cycles: it drains the store buffer,
//! so on the dag layer's store-miss-heavy paths it exposes misses the core
//! would have overlapped (30–40 ns a vertex against 8 ns for the barrier
//! alone, ROADMAP item 3). A one-worker run has no other thread — the
//! caller is its only worker — so it is decided once, when the run starts
//! (`WorkerCtx::solo`), that it pays for neither handshake: a push skips
//! the sleeper probe (nobody sleeps) and a pop goes through
//! `WorkerDeque::pop_solo`, the owner-only take with no barrier and no CAS
//! (nobody steals; `WorkerCtx::pop` states why that holds with a watchdog
//! attached and under nested runs). The protocols themselves —
//! `WorkerDeque::{push, pop, steal}`, `EventCount::{park, notify}` — are
//! untouched, and a run of two or more workers executes exactly them: the
//! larger half of the same cost, an asymmetric barrier for `pop` ∥ `steal`
//! and `notify` ∥ `park`, changes both handshakes and waits for ROADMAP
//! item 4.
//!
//! The same bit is public ([`WorkerCtx::is_solo`]) for the layer above: a
//! one-worker run executes every task on its caller, one after another, so
//! whatever only the run's tasks can reach needs no locked instruction
//! either. `spdag` reads it once per vertex and then steps its in-counters,
//! decrement pairs, `owed` words and out-sets by load and store
//! (`CounterFamily::{increment,decrement}_exclusive`,
//! `DecPair::claim_last_exclusive`,
//! `OutsetFamily::{add,finish}_exclusive`); `spdag::vertex` states why
//! nothing else can reach them. A run of two or more workers pays one predictable
//! branch for the choice and executes the shared instructions.
//!
//! Every participant, worker 0 included, flushes its slab caches
//! ([`crate::slab::flush_this_thread`]) *before* it reports done, so
//! **`run`'s return is the runtime's quiescent point**: every cache is
//! empty, the recycler gauges are exact, and no thread of the pool is
//! still touching anything the run owned.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::deque::{deque_with_capacity, StealResult, Stealer, Word, WorkerDeque};
use crate::lock;
use crate::rng::XorShift64Star;

/// How [`run`] decides that the computation has finished. There is one
/// way (module docs); the argument stays because callers name it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Termination {
    /// Stop when some task calls [`WorkerCtx::finish`].
    DoneFlag,
}

/// How a [`run`] ended. A poisoned run never actually returns its stats —
/// [`run`] resumes the first captured panic at the caller — but the state
/// is part of [`PoolStats`] so interpreters that record panics without
/// terminating (see [`WorkerCtx::record_panic`]) have a well-defined
/// lifecycle to document and assert against.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum PoolState {
    /// The computation ran to its termination condition with no panic.
    #[default]
    Completed,
    /// At least one panic was recorded; the pool drained and the first
    /// payload was re-raised at the [`run`] caller.
    Poisoned,
}

/// Aggregated execution statistics for one [`run`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed, summed over workers.
    pub tasks: u64,
    /// Successful steals, summed over workers.
    pub steals: u64,
    /// Times a worker parked, summed over workers.
    pub parks: u64,
    /// Times a worker rested after a steal that kept it busy for less than
    /// [`STEAL_PAYS`]: at most one per steal, and never a park or a wakeup.
    pub rests: u64,
    /// Strand suspensions: tasks that exited by parking on a dependency
    /// instead of completing, reported via [`WorkerCtx::note_suspend`].
    /// The task's frame stays live off-deque until its dependency
    /// resolves; the worker moves straight on to other work.
    pub suspends: u64,
    /// Suspended strands re-entering execution
    /// ([`WorkerCtx::note_resume`]); equals `suspends` at quiescence.
    pub resumes: u64,
    /// Per-worker task counts (index = worker id).
    pub tasks_per_worker: Vec<u64>,
    /// Wakeup signals issued (one per `EventCount::notify` that found a
    /// sleeper, plus one per announced waiter at each termination
    /// broadcast).
    pub wakeups: u64,
    /// Times a parked worker came back without any visible work (timeout
    /// expiry or a wake that raced with someone else taking the task).
    pub spurious_wakes: u64,
    /// Panics recorded during the run ([`WorkerCtx::record_panic`] plus
    /// any caught by the pool's own backstop). The first payload is
    /// re-raised by [`run`]; later ones are counted here (first wins).
    pub panics: u64,
    /// Whether the run completed cleanly or was poisoned by a panic.
    pub state: PoolState,
}

struct EventCount {
    mutex: Mutex<()>,
    condvar: Condvar,
    waiters: AtomicUsize,
    /// Wake signals issued (diagnostic; see [`PoolStats::wakeups`]).
    wakes: AtomicU64,
    /// Parks that returned with nothing to do (see
    /// [`PoolStats::spurious_wakes`]).
    spurious: AtomicU64,
}

impl EventCount {
    fn new() -> EventCount {
        EventCount {
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
            waiters: AtomicUsize::new(0),
            wakes: AtomicU64::new(0),
            spurious: AtomicU64::new(0),
        }
    }

    /// Park unless `has_work()` becomes observable. `has_work` is re-checked
    /// after announcing the wait, closing the sleep/notify race.
    fn park(&self, has_work: impl Fn() -> bool) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if has_work() {
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let mut guard = lock(&self.mutex);
        if !has_work() {
            // Bounded wait: even a (theoretically impossible) lost wakeup
            // only costs this timeout, never a deadlock.
            guard = self
                .condvar
                .wait_timeout(guard, Duration::from_micros(500))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        if !has_work() {
            // Timeout expiry, or the work that triggered our wake was
            // claimed before we got to it.
            self.spurious.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Wake **one** sleeper if any is announced. The woken worker is
    /// responsible for propagating the wake if it finds surplus work
    /// (see the handoff in `worker_loop`), so a push never pays for more
    /// than one `notify_one` and sleepers never stampede.
    #[inline]
    fn notify(&self) {
        // Failpoints on the wake path (no-ops unless `fault-inject` arms
        // them): dropping a notify entirely is recoverable — the bounded
        // park wait below is exactly the belt-and-braces that absorbs a
        // lost wake — and a delayed notify widens the sleep/notify race
        // window the store-buffer handshake must close.
        if crate::failpoint::fire("sched.lost_wake") {
            return;
        }
        if crate::failpoint::fire("sched.delayed_wake") {
            std::thread::sleep(Duration::from_micros(50));
        }
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            drop(lock(&self.mutex));
            self.condvar.notify_one();
            self.wakes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Unconditional broadcast — termination only. (`notify_all` returns
    /// no wake count, so account one signal per announced waiter.)
    fn notify_all_force(&self) {
        drop(lock(&self.mutex));
        self.condvar.notify_all();
        self.wakes.fetch_add(self.waiters.load(Ordering::SeqCst) as u64, Ordering::Relaxed);
    }
}

struct Shared<T: Word> {
    stealers: Vec<Stealer<T>>,
    done: AtomicBool,
    sleep: EventCount,
    /// First captured panic payload; re-raised by [`run`] after the pool
    /// drains. Later panics only bump `panics` (first wins).
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Total panics recorded this run.
    panics: AtomicU64,
    /// Tasks executed, bumped per-execute only when a watchdog is
    /// attached (`watched`), so unwatched runs pay nothing shared.
    progress: AtomicU64,
    watched: bool,
    /// Where the watchdog sidecar waits between polls, so termination can
    /// cut its wait short instead of `run_inner` waiting out a sleeping one.
    watchdog_wake: (Mutex<()>, Condvar),
    /// Where a thief whose steal did not pay rests: signalled by
    /// [`Shared::terminate`] alone; the lock holds [`PoolStats::rests`].
    rest_wake: (Mutex<u64>, Condvar),
}

impl<T: Word> Shared<T> {
    /// Signal termination: set the done flag, wake every parked worker,
    /// every rester and (if one is attached) the watchdog.
    fn terminate(&self) {
        self.done.store(true, Ordering::Release);
        self.sleep.notify_all_force();
        // A rester checks `done` under this lock (as the watchdog below).
        drop(lock(&self.rest_wake.0));
        self.rest_wake.1.notify_all();
        if self.watched {
            // Taking the lock orders this after the watchdog's check of
            // `done` under the same lock: it either sees the flag or is
            // already waiting when the notify lands.
            drop(lock(&self.watchdog_wake.0));
            self.watchdog_wake.1.notify_all();
        }
    }

    /// Rest until `deadline` (looping on it: a spurious return cannot
    /// shorten a rest) or termination, whichever is first.
    fn rest_until(&self, deadline: Instant) {
        let (mutex, wake) = &self.rest_wake;
        let mut rests = lock(mutex);
        *rests += 1;
        while !self.done.load(Ordering::Acquire) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            rests = wake.wait_timeout(rests, left).unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    /// Run a participant's whole `body` — a worker's loop, the watchdog's —
    /// so that it cannot unwind into the thread that runs it: a panic
    /// that escapes ends the run and is recorded like any other. Returns
    /// whether `body` returned normally.
    fn contain(&self, body: impl FnOnce()) -> bool {
        match catch_unwind(AssertUnwindSafe(body)) {
            Ok(()) => true,
            Err(payload) => {
                // In this order: recording drops a payload that is not
                // the first, a destructor may panic, and whoever is left
                // must not wait for a participant that is gone.
                self.terminate();
                self.record_panic(payload);
                false
            }
        }
    }

    /// Record a panic payload: the first is kept for re-raising at the
    /// [`run`] caller, every one is counted.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.panics.fetch_add(1, Ordering::SeqCst);
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

/// Per-worker execution context handed to the task body.
pub struct WorkerCtx<'a, T: Word> {
    deque: &'a WorkerDeque<T>,
    shared: &'a Shared<T>,
    id: usize,
    /// This worker is the run's only one, decided once when the run starts:
    /// nobody sleeps and nobody steals, so [`notify`](WorkerCtx::notify)
    /// and [`pop`](WorkerCtx::pop) skip what exists for a second thread.
    solo: bool,
    tasks: Cell<u64>,
    steals: Cell<u64>,
    parks: Cell<u64>,
    suspends: Cell<u64>,
    resumes: Cell<u64>,
    /// This worker's private pseudo-random stream. Victim selection draws
    /// from it, and it is exposed ([`rng_u64`](WorkerCtx::rng_u64) /
    /// [`rng_below`](WorkerCtx::rng_below)) so workload and bench code
    /// can get per-worker randomness from the context that already owns
    /// worker identity. (Code that cannot see a `WorkerCtx` — the SNZI and
    /// out-set growth coins — draws from `snzi::ThreadCoin`, a per-thread
    /// stream of the same generator, which is a per-worker stream too
    /// since workers are threads.) A `Cell`, not a `RefCell`: a draw
    /// copies the state out and back and tests no borrow flag.
    rng: Cell<XorShift64Star>,
    /// The interpreter's word: the head of its list of latent tasks on this
    /// worker, this run ([`latent`](WorkerCtx::latent)).
    latent: Cell<*mut ()>,
}

impl<'a, T: Word> WorkerCtx<'a, T> {
    /// This worker's index in `0..num_workers`.
    pub fn worker_id(&self) -> usize {
        self.id
    }

    /// Draw one uniform 64-bit value from this worker's private stream
    /// (distinct workers are seeded apart). Task bodies can use this for
    /// coin flips and spreading keys without touching thread-local
    /// storage or sharing generator state across workers.
    pub fn rng_u64(&self) -> u64 {
        self.draw(XorShift64Star::next_u64)
    }

    /// Uniform value in `[0, n)` from this worker's stream; `n` must be
    /// non-zero.
    pub fn rng_below(&self, n: usize) -> usize {
        self.draw(|rng| rng.next_below(n))
    }

    /// Step this worker's generator through `f`: a copy out and back, so a
    /// draw takes no borrow flag.
    #[inline(always)]
    fn draw<R>(&self, f: impl FnOnce(&mut XorShift64Star) -> R) -> R {
        let mut rng = self.rng.get();
        let r = f(&mut rng);
        self.rng.set(rng);
        r
    }

    /// Total number of workers in the pool.
    pub fn num_workers(&self) -> usize {
        self.shared.stealers.len()
    }

    /// Make a task available for execution (bottom of this worker's own
    /// deque; thieves take from the other end).
    pub fn push(&self, task: T) {
        self.deque.push(task);
        self.notify();
    }

    /// Wake one sleeper for freshly pushed work. A one-worker pool has no
    /// sleeper — its only worker is the one pushing — so it skips the
    /// probe's fence and load altogether.
    #[inline]
    fn notify(&self) {
        if !self.solo {
            self.shared.sleep.notify();
        }
    }

    /// Take the newest task of this worker's own deque. A one-worker pool
    /// has no thief either, so it skips the pop's fence and CAS the same
    /// way (module docs, "What one worker does not pay").
    #[inline]
    fn pop(&self) -> Option<T> {
        if !self.solo {
            return self.deque.pop();
        }
        // SAFETY: no `Stealer::steal` of this deque runs concurrently,
        // because nothing that could call one exists. The deque's stealers
        // are the one in `shared.stealers` and no other (`run_inner` makes
        // the pair and hands out no clone); `steal` is called on them by
        // `worker_loop` alone; and this run's only `worker_loop` is on this
        // thread, between two pops. The watchdog of a watched run is a
        // second thread that holds `shared`, and reads lengths only
        // (`stall_report`: `Stealer::is_empty`). A `run` nested inside a
        // task builds its own deques and never sees this one.
        unsafe { self.deque.pop_solo() }
    }

    /// Whether this worker is its run's only one — the bit `pop` and
    /// `notify` read, decided once when the run starts. If it is, every
    /// task of the run executes on this thread, one after another, so an
    /// object that only the run's tasks can reach is this thread's alone
    /// for the whole run and a task interpreter may step it without the
    /// locked instructions another thread would need (module docs, "What
    /// one worker does not pay").
    ///
    /// `spdag` relies on that for a scope's counter, the SNZI nodes its
    /// handles point into, a decrement pair, a waiting vertex's `owed`
    /// word and a future's out-set (its adds, seal and sweep). The argument, as for `pop`: all of these are reached only
    /// through the run's vertices, and only the run's workers execute
    /// vertices — at W = 1 that is the caller, here. The watchdog of a
    /// watched run, the one other thread that holds this run's `Shared`,
    /// reads the progress count and deque lengths and nothing of a task's.
    /// A run nested inside a task builds vertices of its own. A future's
    /// handle is touched only within its own run (`spdag::FutureHandle`'s
    /// contract): only the run's own workers add to a future's out-set or
    /// sweep it, and only they take and drop the references `spdag` counts
    /// on a future's core by load and store (its run-internal count). What
    /// a thread outside the run *can* reach stays shared in `spdag`
    /// whatever this says: any thread that holds a handle reaches the
    /// `PoolArc` refcount — user handles step it at every W — and the last
    /// holder drops the core. Such a
    /// thread may also load `FutureCore::completed` or probe the out-set;
    /// the exclusive steps store with `Release`, so what it observes comes
    /// with the writes before it.
    #[inline]
    pub fn is_solo(&self) -> bool {
        self.solo
    }

    /// A word the task interpreter keeps for itself, one per worker and run:
    /// `spdag` keeps the head of its list of *latent* tasks there — work
    /// that runs in the executing task unless it is published first.
    /// Null when a run starts; the pool never reads it. Per run, not per
    /// thread, so a run nested inside a task starts with a list of its own
    /// and cannot reach the tasks latent in the one around it.
    #[inline]
    pub fn latent(&self) -> &Cell<*mut ()> {
        &self.latent
    }

    /// Whether this worker's own deque looks empty: nothing is queued for
    /// a thief to take. A racy hint, read without a barrier (the owner's
    /// `bottom`, the last `top` it saw); a thief only ever moves `top` up,
    /// so a deque that looks empty is empty, and one that does not may
    /// have been emptied a moment ago.
    #[inline]
    pub fn deque_looks_empty(&self) -> bool {
        self.deque.is_empty()
    }

    /// Make a batch of tasks available with a single sleeper notification
    /// at the end — the broadcast path used when an out-set sweep
    /// unblocks many dependents at once. The saving over repeated
    /// [`push`](WorkerCtx::push) is the `n − 1` redundant wakeup probes.
    pub fn push_batch(&self, tasks: impl IntoIterator<Item = T>) {
        let mut any = false;
        for task in tasks {
            self.deque.push(task);
            any = true;
        }
        if any {
            self.notify();
        }
    }

    /// Record that the task being executed suspended itself (parked its
    /// own frame on a dependency) instead of completing. The scheduler is
    /// task-agnostic, so the interpreter reports suspensions; the pool
    /// only tallies them ([`PoolStats::suspends`]). The worker itself
    /// never blocks — it returns to its deque immediately.
    pub fn note_suspend(&self) {
        self.suspends.set(self.suspends.get() + 1);
    }

    /// Record that a previously suspended task frame re-entered execution
    /// (the other half of [`note_suspend`](WorkerCtx::note_suspend)).
    pub fn note_resume(&self) {
        self.resumes.set(self.resumes.get() + 1);
    }

    /// Record that the interpreter ran a task *in place*: inside the task
    /// being executed, on this worker's stack, never pushed or popped. It
    /// counts as an executed task ([`PoolStats::tasks`]) and, in a watched
    /// run, as the progress the watchdog reads.
    #[inline]
    pub fn note_run_in_place(&self) {
        self.tasks.set(self.tasks.get() + 1);
        if self.shared.watched {
            self.shared.progress.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Announce that the whole computation is complete: every worker
    /// drains its own deque and returns. Idempotent.
    pub fn finish(&self) {
        self.shared.terminate();
    }

    /// Whether termination has been signalled.
    pub fn is_finished(&self) -> bool {
        self.shared.done.load(Ordering::Acquire)
    }

    /// Record a panic payload captured by the task interpreter *without*
    /// terminating the pool. The interpreter keeps executing tasks so a
    /// structured computation (e.g. an sp-dag) can drain to its own
    /// termination — preserving every conservation identity — and [`run`]
    /// re-raises the first recorded payload once all workers have
    /// returned. Interpreters with no structural drain should instead let
    /// the panic unwind into the pool's backstop, which records it *and*
    /// calls [`finish`](WorkerCtx::finish).
    pub fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.shared.record_panic(payload);
    }

    /// Whether any panic has been recorded this run (racy snapshot;
    /// `true` is stable).
    pub fn is_poisoned(&self) -> bool {
        self.shared.panics.load(Ordering::SeqCst) > 0
    }
}

/// Failed whole-pool steal sweeps spent spin-relaxing (with the pause
/// budget doubling each rung) before the worker parks.
const SPIN_SWEEPS: usize = 3;

/// How long a steal has to keep its thief busy (module docs). A
/// measurement, not a tunable: what it costs to get one task run by the
/// other worker (`pool.remote_run_ns`, 36–42 µs on the 2-core host,
/// `benchmark/README.md` finding 8) — a steal that bought less did not pay.
/// `pub` so tests and `harness obs --assert-bound` can state the bound.
pub const STEAL_PAYS: Duration = Duration::from_micros(40);

fn worker_loop<T, F>(ctx: &WorkerCtx<'_, T>, f: &F)
where
    T: Word,
    F: Fn(&WorkerCtx<'_, T>, T) + Sync,
{
    let shared = ctx.shared;
    let n = shared.stealers.len();
    let mut stolen_at: Option<Instant> = None;
    loop {
        // Drain own deque first (work-first / LIFO).
        while let Some(task) = ctx.pop() {
            execute(ctx, f, task);
        }
        // Steals must pay: what ran since the last steal is what it
        // bought; under `STEAL_PAYS`, rest for the remainder.
        if let Some(at) = stolen_at.take().filter(|at| at.elapsed() < STEAL_PAYS) {
            shared.rest_until(at + STEAL_PAYS);
        }
        if shared.done.load(Ordering::Acquire) {
            return;
        }
        // Idle phase: hunt until a steal lands or the pool terminates.
        // `hunt_start` is taken once, after any rest, and survives parks,
        // so the `Steal` trace span covers hunt plus park latency — not
        // the deliberate pause, not just the final successful sweep.
        let hunt_start = obs::now();
        let mut failed_sweeps = 0usize;
        let task = 'hunt: loop {
            for _ in 0..n {
                let victim = if n == 1 { 0 } else { (ctx.id + 1 + ctx.rng_below(n - 1)) % n };
                match shared.stealers[victim].steal() {
                    StealResult::Success(task) => {
                        stolen_at = Some(Instant::now());
                        ctx.steals.set(ctx.steals.get() + 1);
                        obs::trace::record_span(obs::EventKind::Steal, victim as u64, hunt_start);
                        break 'hunt task;
                    }
                    StealResult::Retry => {
                        std::hint::spin_loop();
                    }
                    StealResult::Empty => {}
                }
            }
            if shared.done.load(Ordering::Acquire) {
                return;
            }
            // Backoff ladder: spin-relax sweeps (cheap, keeps the core
            // ready for an imminent push), then park.
            failed_sweeps += 1;
            if failed_sweeps <= SPIN_SWEEPS {
                for _ in 0..(1usize << (failed_sweeps + 2)) {
                    std::hint::spin_loop();
                }
            } else {
                ctx.parks.set(ctx.parks.get() + 1);
                obs::trace::record(obs::EventKind::Park, ctx.id as u64);
                shared.sleep.park(|| {
                    shared.done.load(Ordering::Acquire)
                        || shared.stealers.iter().any(|s| !s.is_empty())
                });
                failed_sweeps = 0;
            }
        };
        // Wake handoff: we consumed the notification that woke us (or
        // arrived before parking at all); if there is surplus visible
        // work, pass one wake along so the chain reaches other sleepers.
        if shared.stealers.iter().any(|s| !s.is_empty()) {
            shared.sleep.notify();
        }
        execute(ctx, f, task);
    }
}

fn execute<T, F>(ctx: &WorkerCtx<'_, T>, f: &F, task: T)
where
    T: Word,
    F: Fn(&WorkerCtx<'_, T>, T) + Sync,
{
    // Backstop: a panic the interpreter did not absorb must never unwind
    // through `worker_loop` (stranding sibling workers on a termination
    // signal that never comes). A generic task soup has no structural
    // drain, so record the payload and terminate; `run` re-raises it.
    // The sp-dag interpreter catches panics itself (per-vertex, keeping
    // the dag draining), so this path only fires for raw-pool users.
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(ctx, task))) {
        ctx.shared.record_panic(payload);
        ctx.shared.terminate();
    }
    ctx.tasks.set(ctx.tasks.get() + 1);
    if ctx.shared.watched {
        ctx.shared.progress.fetch_add(1, Ordering::Relaxed);
    }
}

/// Opt-in stall monitor for [`run_watched`]: a sidecar (one more leased
/// helper, see the module docs) that watches the pool's executed-task count and, if it stops moving for
/// `stall_timeout` while the pool has not terminated, dumps a diagnostic
/// (queue occupancy, park state, live counter snapshot, trace-ring tail)
/// to stderr, force-terminates the pool, and re-raises the report as a
/// panic at the [`run_watched`] caller — a hang becomes a fast, described
/// failure instead of a CI timeout.
///
/// The trigger is *no task retired for the whole timeout*, which
/// subsumes both hang shapes the sp-dag layer can produce ("all workers
/// parked while tasks are pending" and "a suspended strand whose resume
/// was lost", i.e. `suspends != resumes` forever): in either case no
/// vertex executes again. A single legitimately long-running task body
/// also trips it, so size `stall_timeout` above the longest body you
/// schedule; this is a harness/test facility, not a production default.
#[derive(Clone, Debug)]
pub struct WatchdogCfg {
    /// How long the executed-task count may stand still, with the pool
    /// unterminated, before the run is declared hung.
    pub stall_timeout: Duration,
}

impl Default for WatchdogCfg {
    fn default() -> WatchdogCfg {
        WatchdogCfg { stall_timeout: Duration::from_secs(5) }
    }
}

/// Build the diagnostic the watchdog emits when it declares a stall.
fn stall_report<T: Word>(shared: &Shared<T>, cfg: &WatchdogCfg) -> String {
    use std::fmt::Write as _;
    let n = shared.stealers.len();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "sched watchdog: no task executed for {:?}; the pool looks hung",
        cfg.stall_timeout
    );
    let _ = writeln!(s, "  tasks executed      : {}", shared.progress.load(Ordering::SeqCst));
    let _ = writeln!(
        s,
        "  parked workers      : {}/{} announced waiters",
        shared.sleep.waiters.load(Ordering::SeqCst),
        n
    );
    let _ = writeln!(s, "  rests taken         : {}", *lock(&shared.rest_wake.0));
    let occupied: Vec<usize> = (0..n).filter(|&i| !shared.stealers[i].is_empty()).collect();
    let _ = writeln!(s, "  non-empty deques    : {occupied:?}");
    let _ = writeln!(s, "  panics recorded     : {}", shared.panics.load(Ordering::SeqCst));
    let snap = obs::Snapshot::take();
    if !snap.is_empty() {
        // `sched.*` tallies are folded in at a run's return, so mid-stall
        // they describe earlier runs; the strand pair counts live.
        let _ = writeln!(
            s,
            "  counter snapshot (spdag.strand_suspend != spdag.strand_resume means a lost resume):"
        );
        for (name, value) in snap.counters() {
            let _ = writeln!(s, "    {name:<28} {value}");
        }
    }
    let trace = obs::trace::take();
    if !trace.is_empty() {
        let tail = &trace.events[trace.events.len().saturating_sub(16)..];
        let _ = writeln!(s, "  trace-ring tail ({} of {} events):", tail.len(), trace.len());
        for e in tail {
            let _ =
                writeln!(s, "    ts={}ns ring={} {:?} arg={:#x}", e.ts_ns, e.ring, e.kind, e.arg);
        }
    }
    s
}

/// The watchdog sidecar: poll the progress counter until the pool
/// terminates or the stall timeout elapses with no movement. Between
/// polls it waits on `watchdog_wake`, which [`Shared::terminate`]
/// notifies — a finished run returns at once, not a poll later.
fn watchdog_loop<T: Word>(shared: &Shared<T>, cfg: &WatchdogCfg) {
    let poll = (cfg.stall_timeout / 8).max(Duration::from_millis(1));
    let mut last = shared.progress.load(Ordering::SeqCst);
    let mut still = Duration::ZERO;
    let (mutex, wake) = &shared.watchdog_wake;
    let mut guard = lock(mutex);
    loop {
        if shared.done.load(Ordering::Acquire) {
            return;
        }
        let (woken, wait) = wake.wait_timeout(guard, poll).unwrap_or_else(PoisonError::into_inner);
        guard = woken;
        if !wait.timed_out() {
            continue; // woken (termination, or spuriously): re-check `done`
        }
        let now = shared.progress.load(Ordering::SeqCst);
        if now != last {
            last = now;
            still = Duration::ZERO;
            continue;
        }
        still += poll;
        if still >= cfg.stall_timeout {
            let report = stall_report(shared, cfg);
            eprintln!("{report}");
            // Fail fast: poison the run with the report, then break the
            // hang with the termination broadcast so every parked worker
            // exits and `run` can re-raise the report at the caller.
            shared.record_panic(Box::new(report));
            drop(guard); // terminate() takes the watchdog lock
            shared.terminate();
            return;
        }
    }
}

/// Flushes this worker's slab caches when dropped, so the flush happens
/// on the unwind path too — a poisoned run must leave the recycler's
/// global gauges as deterministic as a clean one, or the conservation
/// identities `obs --assert-bound` checks would dangle on cached blocks.
struct CacheFlushGuard;

impl Drop for CacheFlushGuard {
    fn drop(&mut self) {
        crate::slab::flush_this_thread();
    }
}

/// What one worker hands back: tasks, steals, parks, suspends, resumes.
type Tallies = (u64, u64, u64, u64, u64);

/// Be worker `id` of this run on the calling thread, until termination.
fn participate<T, F>(id: usize, deque: &WorkerDeque<T>, shared: &Shared<T>, f: &F) -> Tallies
where
    T: Word,
    F: Fn(&WorkerCtx<'_, T>, T) + Sync,
{
    // Leave nothing stranded in this worker's slab caches: the guard
    // flushes when the worker is through *and* when it unwinds, and in
    // either case before its helper (or `run_inner`) reports it done.
    let _flush = CacheFlushGuard;
    let ctx = WorkerCtx {
        deque,
        shared,
        id,
        solo: shared.stealers.len() == 1,
        tasks: Cell::new(0),
        steals: Cell::new(0),
        parks: Cell::new(0),
        suspends: Cell::new(0),
        resumes: Cell::new(0),
        rng: Cell::new(XorShift64Star::new(0x853C_49E6_748F_EA9B ^ (id as u64 + 1))),
        latent: Cell::new(std::ptr::null_mut()),
    };
    // The loop itself unwinds only if a panic escaped the execute
    // backstop (e.g. out of a panic payload's destructor). It is captured
    // like any other — first payload wins, and a helper thread must
    // outlive its job — and that worker contributes zero tallies.
    if !shared.contain(|| worker_loop(&ctx, f)) {
        return (0, 0, 0, 0, 0);
    }
    (ctx.tasks.get(), ctx.steals.get(), ctx.parks.get(), ctx.suspends.get(), ctx.resumes.get())
}

/// A job in its leaser's stack frame, lifetime erased so a resident
/// thread can be handed it ([`Helper::send`] states what that takes).
#[derive(Clone, Copy)]
struct Job(*mut (dyn FnMut() + Send));

// SAFETY: the closure behind the pointer is `Send`, and `Helper::send`'s
// contract gives the one helper that receives the pointer exclusive use
// of it.
unsafe impl Send for Job {}

/// One resident helper thread, parked on `wake` between jobs.
struct Helper {
    /// The one-slot mailbox, and the latch: occupied from [`Helper::send`]
    /// until the job has **ended**, not merely been picked up.
    slot: Mutex<Option<Job>>,
    /// Signalled when `slot` fills (to the helper) and when it clears (to
    /// the leaser); a lease is exclusive, so at most one of them waits.
    wake: Condvar,
}

/// Helpers nobody holds. None is ever retired, so this set plus the
/// leases out is the high-water mark of concurrent demand.
static IDLE: Mutex<Vec<&'static Helper>> = Mutex::new(Vec::new());

impl Helper {
    /// Take a parked helper out of the idle set — exclusively, until it
    /// is pushed back — or start one if every helper is out.
    fn lease() -> &'static Helper {
        if let Some(helper) = lock(&IDLE).pop() {
            return helper;
        }
        let helper: &'static Helper =
            Box::leak(Box::new(Helper { slot: Mutex::new(None), wake: Condvar::new() }));
        std::thread::Builder::new()
            .name("sched-helper".into())
            .spawn(move || helper.serve())
            .expect("spawn a resident helper thread");
        helper
    }

    /// The helper thread's whole life: take a job, run it, clear the slot.
    fn serve(&self) {
        let mut slot = lock(&self.slot);
        loop {
            let Some(job) = *slot else {
                slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(slot);
            // SAFETY: `send`'s contract — the closure is alive and ours
            // alone until we clear the slot below.
            let ended = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
            // A job must not unwind, and `run_inner`'s contain their
            // panics — all but one out of a payload's destructor, which
            // `contain` runs last. The job has ended all the same, so the
            // latch opens and this thread lives on; the payload is
            // forgotten, because dropping it is what went wrong.
            if let Err(payload) = ended {
                std::mem::forget(payload);
            }
            slot = lock(&self.slot);
            *slot = None;
            self.wake.notify_one();
        }
    }

    /// Hand `job` to this (leased, hence idle) helper.
    ///
    /// # Safety
    /// The closure must stay alive and untouched by anyone else until
    /// [`wait`](Helper::wait) has returned, and must not unwind.
    unsafe fn send(&self, job: &mut (dyn FnMut() + Send + '_)) {
        // SAFETY: only the lifetime bound changes; the contract above is
        // what keeps the erased borrow valid for as long as it is used.
        let job = unsafe {
            std::mem::transmute::<*mut (dyn FnMut() + Send + '_), *mut (dyn FnMut() + Send)>(job)
        };
        let job = Job(job);
        let mut slot = lock(&self.slot);
        debug_assert!(slot.is_none(), "a leased helper is idle");
        *slot = Some(job);
        self.wake.notify_one();
    }

    /// Block until the job last sent has returned (at once if none was).
    fn wait(&self) {
        let mut slot = lock(&self.slot);
        while slot.is_some() {
            slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The helpers one run holds, and the latch rule of the module docs: the
/// run's frame — which every job borrows — cannot be left, by return or
/// by unwind, before this guard has dropped, and dropping it waits for
/// every job to have returned.
struct Leases<'run, T: Word> {
    shared: &'run Shared<T>,
    helpers: Vec<&'static Helper>,
}

impl<'run, T: Word> Leases<'run, T> {
    /// Lease one helper and set it to `job`, which must not unwind.
    fn send(&mut self, job: &'run mut (dyn FnMut() + Send + 'run)) {
        let helper = Helper::lease();
        self.helpers.push(helper);
        // SAFETY: `job` outlives this guard (`'run`, and the guard has a
        // destructor), nothing else can reach it while the guard holds
        // its unique borrow, and the guard — a local of `run_inner`, never
        // forgotten — waits on `helper` when it drops. The jobs built
        // there catch their own panics.
        unsafe { helper.send(job) };
    }
}

impl<T: Word> Drop for Leases<'_, T> {
    fn drop(&mut self) {
        // Worker 0 only returns once the run is over; getting here with
        // it still on means the caller is unwinding. End it, or the
        // helpers would work (or sleep) on while we wait for them.
        if !self.shared.done.load(Ordering::Acquire) {
            self.shared.terminate();
        }
        for helper in &self.helpers {
            helper.wait();
        }
        lock(&IDLE).append(&mut self.helpers);
    }
}

/// Execute `roots` (and everything they transitively push) on `n` workers.
///
/// `f` is the task interpreter: it receives the per-worker context and one
/// task, may push more tasks, and must eventually cause some task to call
/// [`WorkerCtx::finish`] ([`Termination::DoneFlag`], the one way a run
/// ends). With no roots nothing could, so `run` returns at once.
///
/// # Panics
///
/// If any task panicked (directly, or recorded via
/// [`WorkerCtx::record_panic`]), the pool finishes draining, folds its
/// telemetry, and then re-raises the *first* captured payload here —
/// callers observe the original panic, never a hang or a worker-thread
/// abort.
pub fn run<T, F>(n: usize, roots: Vec<T>, _: Termination, f: F) -> PoolStats
where
    T: Word,
    F: Fn(&WorkerCtx<'_, T>, T) + Sync,
{
    run_inner(n, roots, None, f)
}

/// As [`run`], with a [`WatchdogCfg`] stall monitor attached (see its
/// docs for the trigger condition and the report format).
pub fn run_watched<T, F>(
    n: usize,
    roots: Vec<T>,
    _: Termination,
    watchdog: WatchdogCfg,
    f: F,
) -> PoolStats
where
    T: Word,
    F: Fn(&WorkerCtx<'_, T>, T) + Sync,
{
    run_inner(n, roots, Some(watchdog), f)
}

fn run_inner<T, F>(n: usize, roots: Vec<T>, watchdog: Option<WatchdogCfg>, f: F) -> PoolStats
where
    T: Word,
    F: Fn(&WorkerCtx<'_, T>, T) + Sync,
{
    let n = n.max(1);
    if roots.is_empty() {
        return PoolStats { tasks_per_worker: vec![0; n], ..PoolStats::default() };
    }
    let mut deques = Vec::with_capacity(n);
    let mut stealers = Vec::with_capacity(n);
    for _ in 0..n {
        let (w, s) = deque_with_capacity::<T>(256);
        deques.push(w);
        stealers.push(s);
    }
    // Distribute roots round-robin before the workers start.
    for (i, task) in roots.into_iter().enumerate() {
        deques[i % n].push(task);
    }
    let shared = Shared {
        stealers,
        done: AtomicBool::new(false),
        sleep: EventCount::new(),
        panic: Mutex::new(None),
        panics: AtomicU64::new(0),
        progress: AtomicU64::new(0),
        watched: watchdog.is_some(),
        watchdog_wake: (Mutex::new(()), Condvar::new()),
        rest_wake: (Mutex::new(0), Condvar::new()),
    };
    let f = &f;
    let shared = &shared;
    let mut tallies: Vec<Tallies> = vec![(0, 0, 0, 0, 0); n];
    {
        let mut deques = deques.into_iter();
        let own_deque = deques.next().expect("n >= 1");
        let (own_tally, helper_tallies) = tallies.split_first_mut().expect("n >= 1");
        // One job per helper, owning that worker's deque and its tally.
        let mut jobs: Vec<_> = deques
            .zip(helper_tallies)
            .enumerate()
            .map(|(i, (deque, tally))| move || *tally = participate(i + 1, &deque, shared, f))
            .collect();
        let mut watchdog_job = watchdog.as_ref().map(|cfg| {
            move || {
                shared.contain(|| watchdog_loop(shared, cfg));
            }
        });
        // Declared after the jobs it lends out, so dropped — waited on —
        // before them, whichever way this block is left.
        let demand = jobs.len() + usize::from(watchdog_job.is_some());
        let mut leases = Leases { shared, helpers: Vec::with_capacity(demand) };
        if let Some(job) = &mut watchdog_job {
            leases.send(job);
        }
        for job in &mut jobs {
            leases.send(job);
        }
        *own_tally = participate(0, &own_deque, shared, f);
    }
    let mut out = PoolStats::default();
    for &(t, s, p, sus, res) in &tallies {
        out.tasks += t;
        out.steals += s;
        out.parks += p;
        out.suspends += sus;
        out.resumes += res;
        out.tasks_per_worker.push(t);
    }
    out.rests = *lock(&shared.rest_wake.0);
    out.wakeups = shared.sleep.wakes.load(Ordering::Relaxed);
    out.spurious_wakes = shared.sleep.spurious.load(Ordering::Relaxed);
    out.panics = shared.panics.load(Ordering::SeqCst);
    out.state = if out.panics > 0 { PoolState::Poisoned } else { PoolState::Completed };
    // Per-worker tallies are cheap `Cell`s on the hot path; fold the ones
    // a check reads into the registry in one bulk add per counter at the
    // run's return (the rest are read from `PoolStats` alone). This
    // happens *before* a poisoned run re-raises, so `--assert-bound`
    // style checks see the full sched tallies of a panicked run.
    obs::counter!("sched.tasks").add(out.tasks);
    obs::counter!("sched.steals").add(out.steals);
    obs::counter!("sched.resumes").add(out.resumes);
    obs::counter!("sched.panics").add(out.panics);
    let first = lock(&shared.panic).take();
    if let Some(payload) = first {
        resume_unwind(payload);
    }
    out
}

/// [`run`] for a test that knows how many tasks it makes: the one whose
/// return brings the count of executed tasks to `expected` calls
/// [`WorkerCtx::finish`]. Each caller asserts that count afterwards; a
/// test's own bookkeeping, not a way for a run to end. `f` moves into the
/// run's closure, so it drops with `run`'s frame.
#[cfg(test)]
pub(crate) fn run_counted<T, F>(n: usize, roots: Vec<T>, expected: u64, f: F) -> PoolStats
where
    T: Word,
    F: Fn(&WorkerCtx<'_, T>, T) + Sync,
{
    let left = &AtomicU64::new(expected);
    run(n, roots, Termination::DoneFlag, move |ctx, task| {
        f(ctx, task);
        if left.fetch_sub(1, Ordering::AcqRel) == 1 {
            ctx.finish();
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn every_root_executes() {
        let executed = AtomicU64::new(0);
        let stats = run_counted(3, (0..100usize).collect(), 100, |_ctx, _task: usize| {
            executed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(executed.load(Ordering::Relaxed), 100);
        assert_eq!(stats.tasks, 100);
        assert_eq!(stats.tasks_per_worker.len(), 3);
    }

    #[test]
    fn dynamic_pushes_all_execute() {
        // Each task < LIMIT pushes two children; count the whole tree.
        const LIMIT: usize = 10_000;
        let executed = AtomicU64::new(0);
        run_counted(4, vec![1usize], LIMIT as u64 - 1, |ctx, task| {
            executed.fetch_add(1, Ordering::Relaxed);
            let l = task * 2;
            let r = task * 2 + 1;
            if l < LIMIT {
                ctx.push(l);
            }
            if r < LIMIT {
                ctx.push(r);
            }
        });
        assert_eq!(executed.load(Ordering::Relaxed), LIMIT as u64 - 1);
    }

    #[test]
    fn done_flag_stops_the_pool() {
        let executed = AtomicU64::new(0);
        run(2, vec![0usize], Termination::DoneFlag, |ctx, task| {
            executed.fetch_add(1, Ordering::Relaxed);
            if task < 50 {
                ctx.push(task + 1);
            } else {
                ctx.finish();
            }
        });
        assert_eq!(executed.load(Ordering::Relaxed), 51);
    }

    #[test]
    fn a_run_with_no_roots_returns_at_once() {
        // No task exists to call `finish`, so nothing could end the run:
        // it returns before it starts, watched or not, in every build.
        for n in [1, 2] {
            let never =
                |_: &WorkerCtx<'_, usize>, _| unreachable!("a run with no roots ran a task");
            let stats = run(n, Vec::new(), Termination::DoneFlag, never);
            assert_eq!((stats.tasks, stats.tasks_per_worker), (0, vec![0; n]));
            let cfg = WatchdogCfg { stall_timeout: Duration::from_millis(40) };
            let stats = run_watched(n, Vec::new(), Termination::DoneFlag, cfg, never);
            assert_eq!((stats.tasks, stats.state), (0, PoolState::Completed));
        }
    }

    #[test]
    fn single_worker_runs_sequentially() {
        let order = Mutex::new(Vec::new());
        run_counted(1, vec![10usize, 20, 30], 3, |_, t| {
            lock(&order).push(t);
        });
        assert_eq!(order.into_inner().unwrap().len(), 3);
    }

    #[test]
    fn push_batch_executes_everything() {
        let executed = AtomicU64::new(0);
        run_counted(3, vec![0usize], 101, |ctx, task| {
            executed.fetch_add(1, Ordering::Relaxed);
            if task == 0 {
                // One broadcast of 100 dependents, as an out-set sweep does.
                ctx.push_batch(1..=100usize);
            }
        });
        assert_eq!(executed.load(Ordering::Relaxed), 101);
    }

    #[test]
    fn empty_push_batch_is_noop() {
        let executed = AtomicU64::new(0);
        run_counted(2, vec![0usize], 1, |ctx, _| {
            executed.fetch_add(1, Ordering::Relaxed);
            ctx.push_batch(std::iter::empty());
        });
        assert_eq!(executed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn per_worker_rng_is_seeded_apart_and_in_range() {
        let draws = Mutex::new(std::collections::HashMap::<usize, u64>::new());
        run_counted(4, (0..100usize).collect(), 100, |ctx, _| {
            assert!(ctx.rng_below(7) < 7);
            lock(&draws).entry(ctx.worker_id()).or_insert_with(|| ctx.rng_u64());
        });
        let draws = draws.into_inner().unwrap();
        let mut firsts: Vec<u64> = draws.values().copied().collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), draws.len(), "distinct workers draw from distinct streams");
    }

    #[test]
    fn boxed_tasks_work() {
        let sum = AtomicU64::new(0);
        run_counted(2, (1..=100u64).map(Box::new).collect(), 100, |_, task: Box<u64>| {
            sum.fetch_add(*task, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn worker_ids_are_distinct_and_in_range() {
        let seen = Mutex::new(std::collections::HashSet::new());
        run_counted(4, (0..1000usize).collect(), 1000, |ctx, _| {
            assert!(ctx.worker_id() < ctx.num_workers());
            assert_eq!(ctx.num_workers(), 4);
            lock(&seen).insert(ctx.worker_id());
        });
        assert!(!seen.into_inner().unwrap().is_empty());
    }

    #[test]
    fn stealing_actually_happens_with_skewed_roots() {
        // All roots land on worker 0; others must steal to make progress.
        let stats = run_counted(4, (0..10_000usize).collect(), 10_000, |_, t| {
            // A little work so thieves have time to engage.
            std::hint::black_box(t * 2);
        });
        assert_eq!(stats.tasks, 10_000);
        // Roots were distributed round-robin, so at least the push path ran
        // on all workers; with 4 workers at least one steal is effectively
        // certain, but don't make the test flaky on a loaded machine:
        assert!(stats.tasks_per_worker.iter().sum::<u64>() == 10_000);
    }

    #[test]
    fn oversubscription_more_workers_than_cores() {
        let executed = AtomicU64::new(0);
        run_counted(16, (0..5000usize).collect(), 5000, |_, _| {
            executed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(executed.load(Ordering::Relaxed), 5000);
    }

    #[test]
    fn one_worker_run_stays_on_the_calling_thread() {
        // What a caller that pinned itself relies on: at one worker there
        // is no second thread for the work to land on.
        let caller = std::thread::current().id();
        let stats = run_counted(1, (0..100usize).collect(), 130, |ctx, task| {
            assert_eq!(std::thread::current().id(), caller);
            if task < 10 {
                ctx.push(task + 1000);
                ctx.push_batch([task + 2000, task + 3000]);
            }
        });
        assert_eq!(stats.tasks, 130);
        assert_eq!((stats.wakeups, stats.parks), (0, 0), "nobody to wake, nothing to wait for");
    }

    /// A one-worker run of `program` checked against a stack: `program`
    /// says what a task pushes (singly, then as a batch), every task must
    /// be the one a LIFO deque holds on top, and the run must execute
    /// exactly what was pushed. Task 0 is the root; the task the stack
    /// holds last — the first one the root pushes, `LAST` — ends the run.
    fn one_worker_lifo(
        watchdog: Option<WatchdogCfg>,
        program: impl Fn(usize) -> (Vec<usize>, Vec<usize>) + Sync,
    ) -> PoolStats {
        const LAST: usize = usize::MAX;
        let model = Mutex::new(vec![0usize]);
        let pushed = AtomicU64::new(1);
        let caller = std::thread::current().id();
        let body = |ctx: &WorkerCtx<'_, usize>, task: usize| {
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!(lock(&model).pop(), Some(task), "not the newest task");
            let (singly, batch) = program(task);
            let first = if task == 0 { vec![LAST] } else { Vec::new() };
            pushed.fetch_add((first.len() + singly.len() + batch.len()) as u64, Ordering::Relaxed);
            lock(&model).extend(first.iter().chain(&singly).chain(&batch));
            first.into_iter().chain(singly).for_each(|t| ctx.push(t));
            ctx.push_batch(batch);
            if task == LAST {
                assert!(lock(&model).is_empty(), "the oldest task runs last");
                ctx.finish();
            }
        };
        let stats = match watchdog {
            None => run(1, vec![0], Termination::DoneFlag, body),
            Some(cfg) => run_watched(1, vec![0], Termination::DoneFlag, cfg, body),
        };
        assert_eq!(stats.tasks, pushed.load(Ordering::Relaxed));
        assert_eq!(stats.tasks_per_worker, vec![stats.tasks]);
        assert_eq!((stats.steals, stats.wakeups, stats.parks), (0, 0, 0));
        stats
    }

    #[test]
    fn one_worker_runs_are_lifo_and_count_exactly() {
        let inner_tasks = AtomicU64::new(0);
        let stats = one_worker_lifo(None, |task| match task {
            0 => (vec![1, 2], vec![3, 4]),
            // A run nested in a task has deques of its own: it takes
            // nothing from this one and leaves nothing in it.
            3 => {
                let inner = one_worker_lifo(None, |t| match t {
                    0 => (vec![1], vec![2, 3]),
                    _ => (vec![], vec![]),
                });
                inner_tasks.fetch_add(inner.tasks, Ordering::Relaxed);
                (vec![30], vec![31])
            }
            _ => (vec![], vec![]),
        });
        assert_eq!((stats.tasks, inner_tasks.load(Ordering::Relaxed)), (8, 5));
    }

    #[test]
    fn one_worker_push_pop_cycles_cross_a_buffer_grow() {
        // The root's 600 pushes take the 256-slot buffer through two
        // grows; then 100 000 push/pop cycles run on top of them, in the
        // grown buffer, before the 600 drain.
        let cycles = AtomicU64::new(100_000);
        let stats = one_worker_lifo(None, |task| match task {
            0 => ((1..=300).collect(), (301..=600).collect()),
            600.. => {
                let left =
                    cycles.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
                (left.map(|n| 600 + n as usize).into_iter().collect(), vec![])
            }
            _ => (vec![], vec![]),
        });
        assert_eq!(stats.tasks, 1 + 1 + 600 + 100_000);
    }

    #[test]
    fn a_watchdog_polls_a_busy_one_worker_run_and_leaves_it_alone() {
        // The watchdog is the one other thread that can see a one-worker
        // run's deque. 5 ms polls over ~60 ms of 1 ms tasks: it reads the
        // progress count while the owner pops, and never declares a stall.
        let cfg = WatchdogCfg { stall_timeout: Duration::from_millis(40) };
        let stats = one_worker_lifo(Some(cfg), |task| {
            let until = Instant::now() + Duration::from_millis(1);
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            match task {
                0 => ((1..=30).collect(), (31..=60).collect()),
                _ => (vec![], vec![]),
            }
        });
        assert_eq!((stats.tasks, stats.state), (62, PoolState::Completed));
    }

    #[test]
    fn a_run_nested_inside_a_task_completes() {
        let inner_tasks = AtomicU64::new(0);
        let stats = run_counted(2, vec![0usize, 1], 2, |_, _| {
            // Worker 0 of the inner run is whichever worker runs this task;
            // its second worker is one more lease.
            let inner = run_counted(2, (0..50usize).collect(), 50, |_, _| {
                inner_tasks.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(inner.tasks, 50);
        });
        assert_eq!(stats.tasks, 2);
        assert_eq!(inner_tasks.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn a_poisoned_run_leaves_nothing_for_the_next() {
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            run_counted(3, (0..100usize).collect(), 100, |_, task| {
                if task == 37 {
                    std::panic::panic_any(37usize);
                }
            })
        }));
        let payload = poisoned.expect_err("the task's panic is re-raised at the caller");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&37), "with its original payload");
        // Same helpers (nothing else holds them for long), fresh state.
        let stats = run_counted(3, (0..100usize).collect(), 100, |_, _| {});
        assert_eq!(stats.state, PoolState::Completed);
        assert_eq!((stats.panics, stats.tasks), (0, 100));
    }

    /// A panic payload whose destructor panics with another of its kind,
    /// as long as the fuse lasts.
    struct Bomb(Arc<AtomicUsize>);

    impl Drop for Bomb {
        fn drop(&mut self) {
            let lit = |fuse: usize| fuse.checked_sub(1);
            if self.0.fetch_update(Ordering::SeqCst, Ordering::SeqCst, lit).is_ok() {
                std::panic::panic_any(Bomb(Arc::clone(&self.0)));
            }
        }
    }

    /// Record two bombs from inside a task. The second is not the first
    /// payload, so `record_panic` drops it and its destructor panics out
    /// of the task; `execute`'s backstop records *that* payload, whose
    /// destructor panics out of `execute`; `contain` records that one, and
    /// the last panic leaves the worker's whole loop — three fuses.
    fn blow_through_every_backstop(ctx: &WorkerCtx<'_, usize>, fuse: &Arc<AtomicUsize>) {
        fuse.store(3, Ordering::SeqCst);
        ctx.record_panic(Box::new(Bomb(Arc::clone(fuse))));
        ctx.record_panic(Box::new(Bomb(Arc::clone(fuse))));
    }

    /// Stands for the run's state: moved into the task closure, it is
    /// dropped with `run`'s frame.
    struct Canary(Arc<AtomicBool>);

    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn an_unwinding_worker_zero_still_waits_for_its_helpers() {
        let (fuse, frame_gone) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicBool::new(false)));
        let canary = Canary(Arc::clone(&frame_gone));
        let (caller_blew, outlived, helper_ran) =
            (AtomicBool::new(false), AtomicBool::new(false), AtomicBool::new(false));
        let (caller_blew, outlived, helper_ran) = (&caller_blew, &outlived, &helper_ran);
        let caller = std::thread::current().id();
        let on_the_way_out = Arc::clone(&fuse);
        // Whichever of its tasks the caller runs first takes worker 0 out
        // through every backstop, and nothing has ended the run by then;
        // whichever the helper runs first waits for that, then stays in
        // flight for 50 ms more. The frame must wait for it.
        let result = catch_unwind(AssertUnwindSafe(move || {
            run_counted(2, (0..4usize).collect(), 4, move |ctx, _| {
                let _state = &canary;
                if std::thread::current().id() == caller {
                    caller_blew.store(true, Ordering::SeqCst);
                    blow_through_every_backstop(ctx, &fuse);
                } else if !helper_ran.load(Ordering::SeqCst) {
                    while !caller_blew.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(50));
                    outlived.store(frame_gone.load(Ordering::SeqCst), Ordering::SeqCst);
                    helper_ran.store(true, Ordering::SeqCst);
                }
            })
        }));
        let payload = result.expect_err("worker 0 unwound out of `run`");
        assert!(payload.is::<Bomb>(), "with the last destructor's panic");
        assert_eq!(on_the_way_out.load(Ordering::SeqCst), 0, "every backstop was passed");
        assert!(helper_ran.load(Ordering::SeqCst), "the helper's task ran to its end");
        assert!(!outlived.load(Ordering::SeqCst), "the run's state was dropped under a helper");
    }

    #[test]
    fn a_job_that_unwinds_opens_the_latch_and_its_helper_lives_on() {
        let fuse = Arc::new(AtomicUsize::new(0));
        let helper_blew = AtomicBool::new(false);
        let caller = std::thread::current().id();
        // The mirror image: the helper's participant is the one that goes,
        // out of its job. The caller's tasks wait for it, so worker 0 can
        // only come home if losing a participant ends the run, and `run`
        // can only return if a job that unwound still counts as ended.
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_counted(2, (0..4usize).collect(), 4, |ctx, _| {
                if std::thread::current().id() == caller {
                    while !ctx.is_finished() {
                        std::thread::yield_now();
                    }
                } else if !helper_blew.swap(true, Ordering::SeqCst) {
                    blow_through_every_backstop(ctx, &fuse);
                }
            })
        }));
        let payload = result.expect_err("the run is poisoned");
        assert!(payload.is::<Bomb>(), "and re-raises the first payload");
        assert_eq!(fuse.load(Ordering::SeqCst), 0, "every backstop was passed");
        // The helper that caught its job went back to the idle set, which
        // is last in, first out: the next run leases it.
        let stats = run_counted(2, (0..100usize).collect(), 100, |_, _| {});
        assert_eq!((stats.state, stats.tasks), (PoolState::Completed, 100));
    }

    #[test]
    fn a_stalled_watched_run_reports_through_its_leased_watchdog() {
        // The only worker is the caller and it never finishes, so the
        // report can only come from a helper: the leased watchdog.
        let cfg = WatchdogCfg { stall_timeout: Duration::from_millis(40) };
        let stalled = catch_unwind(AssertUnwindSafe(|| {
            run_watched(1, vec![0usize], Termination::DoneFlag, cfg, |_, _| {})
        }));
        let payload = stalled.expect_err("the watchdog fails the run");
        let report = payload.downcast_ref::<String>().expect("the stall report");
        assert!(report.contains("sched watchdog"), "unexpected payload: {report}");
        assert!(report.contains("tasks executed      : 1"), "{report}");
    }

    #[test]
    fn a_task_run_in_place_counts_as_executed() {
        // Every task runs two more in place: both count as executed,
        // though neither was pushed or popped.
        let stats = run_counted(2, (0..10usize).collect(), 10, |ctx, _| {
            ctx.note_run_in_place();
            ctx.note_run_in_place();
        });
        assert_eq!(stats.tasks, 30);
        // And as the progress a watchdog reads: the stalled run's report
        // counts the root and its two.
        let cfg = WatchdogCfg { stall_timeout: Duration::from_millis(40) };
        let stalled = catch_unwind(AssertUnwindSafe(|| {
            run_watched(1, vec![0usize], Termination::DoneFlag, cfg, |ctx, _| {
                ctx.note_run_in_place();
                ctx.note_run_in_place();
            })
        }));
        let payload = stalled.expect_err("the watchdog fails the run");
        let report = payload.downcast_ref::<String>().expect("the stall report");
        assert!(report.contains("tasks executed      : 3"), "{report}");
    }
}
