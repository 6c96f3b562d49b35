//! A Chase–Lev work-stealing deque, implemented from scratch.
//!
//! One owner ([`WorkerDeque`]) pushes and pops at the *bottom*; any number
//! of thieves ([`Stealer`]) steal from the *top*. The algorithm is the
//! classic one (Chase & Lev, SPAA'05) with the memory orderings of the C11
//! formulation (Lê, Pop, Cohen, Nardelli, PPoPP'13).
//!
//! Three implementation choices worth calling out:
//!
//! * **Atomic slots.** Buffer slots are `AtomicUsize` accessed with
//!   relaxed ordering. The classic formulation reads a slot non-atomically
//!   while a racing owner may concurrently overwrite it (the value is then
//!   discarded when the `top` CAS fails); with plain memory that is a data
//!   race. Making the slots atomics keeps every execution defined without
//!   measurable cost — slot payloads are machine words anyway, via the
//!   [`Word`] trait.
//! * **An owner with no thief pays for none.** The barrier in `pop` and
//!   the CAS on the last element exist to settle a race with `steal`, and
//!   they cost more than their own cycles: a full barrier drains the store
//!   buffer, so on a path full of store misses it exposes latency the core
//!   would have overlapped. `pop_solo` is the same take without either,
//!   `unsafe` and crate-private; the pool uses it for a one-worker run,
//!   where no `steal` can be running (`pool::WorkerCtx::pop` states why).
//!   `push`, `pop` and `steal` themselves are the published protocol,
//!   unchanged, and are what every run of two or more workers executes.
//! * **Buffer retirement.** When the owner grows the buffer, the old one
//!   cannot be freed immediately (a stalled thief may still read from it).
//!   Retired buffers are parked in a side list owned by the deque and
//!   freed when the deque itself is dropped — a simple, safe alternative
//!   to epoch reclamation whose memory overhead is bounded by 2× the peak
//!   buffer size (a geometric series of smaller retired buffers).

use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock;

/// Types that can be stored in the deque: losslessly convertible to and
/// from a machine word, carrying ownership through the conversion.
///
/// # Safety
/// `from_word(into_word(x))` must reconstruct exactly `x` (same ownership,
/// no double use), and `into_word` must not return a word that aliases
/// another live item's word while both are in a deque.
pub unsafe trait Word: Send {
    /// Convert into a word, transferring ownership.
    fn into_word(self) -> usize;
    /// Reconstruct from a word produced by [`into_word`](Word::into_word).
    ///
    /// # Safety
    /// `w` must come from `into_word` and be consumed at most once.
    unsafe fn from_word(w: usize) -> Self;
}

// SAFETY: identity conversion.
unsafe impl Word for usize {
    fn into_word(self) -> usize {
        self
    }
    unsafe fn from_word(w: usize) -> usize {
        w
    }
}

// SAFETY: Box<T> is a thin pointer for sized T; into_raw/from_raw round-trip.
unsafe impl<T: Send> Word for Box<T> {
    fn into_word(self) -> usize {
        Box::into_raw(self) as usize
    }
    unsafe fn from_word(w: usize) -> Box<T> {
        // SAFETY: caller contract — produced by into_word, consumed once.
        unsafe { Box::from_raw(w as *mut T) }
    }
}

/// Pad-and-align wrapper keeping hot atomics on their own cache lines.
#[repr(align(128))]
struct Pad<T>(T);

struct Buffer {
    mask: usize,
    slots: Box<[AtomicUsize]>,
}

impl Buffer {
    fn new(cap: usize) -> Box<Buffer> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap).map(|_| AtomicUsize::new(0)).collect();
        Box::new(Buffer { mask: cap - 1, slots })
    }

    #[inline(always)]
    fn read(&self, i: isize) -> usize {
        self.slots[i as usize & self.mask].load(Ordering::Relaxed)
    }

    #[inline(always)]
    fn write(&self, i: isize, v: usize) {
        self.slots[i as usize & self.mask].store(v, Ordering::Relaxed);
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }
}

struct Inner {
    top: Pad<AtomicIsize>,
    bottom: Pad<AtomicIsize>,
    buffer: AtomicPtr<Buffer>,
    retired: Mutex<Vec<*mut Buffer>>,
}

// SAFETY: the raw buffer pointers are owned by Inner and only freed in its
// Drop; all shared mutation goes through atomics / the mutex.
unsafe impl Send for Inner {}
// SAFETY: as for `Send`.
unsafe impl Sync for Inner {}

impl Drop for Inner {
    fn drop(&mut self) {
        // Payload words still in the deque are dropped by WorkerDeque's
        // Drop (which knows T); here only the raw storage is freed.
        let buf = self.buffer.load(Ordering::Relaxed);
        if !buf.is_null() {
            // SAFETY: exclusive access in Drop; pointer from Box::into_raw.
            drop(unsafe { Box::from_raw(buf) });
        }
        for p in lock(&self.retired).drain(..) {
            // SAFETY: retired pointers originate from Box::into_raw and are
            // freed exactly once, here.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// Result of a steal attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum StealResult<T> {
    /// A task was stolen.
    Success(T),
    /// The deque was observed empty.
    Empty,
    /// Lost a race; retrying may succeed.
    Retry,
}

/// Owner side of the deque. `Send` (it moves to its worker thread) but not
/// `Sync` and not `Clone` — there is exactly one owner.
pub struct WorkerDeque<T: Word> {
    inner: Arc<Inner>,
    _marker: PhantomData<(T, std::cell::Cell<()>)>,
}

// SAFETY: the owner may move between threads as long as it is unique; the
// Cell marker removes Sync only.
unsafe impl<T: Word> Send for WorkerDeque<T> {}

/// Thief side of the deque; freely cloneable and shareable.
pub struct Stealer<T: Word> {
    inner: Arc<Inner>,
    _marker: PhantomData<T>,
}

// SAFETY: stealing is designed for concurrent use.
unsafe impl<T: Word> Send for Stealer<T> {}
// SAFETY: as for `Send`: every steal is a CAS on the shared `top`.
unsafe impl<T: Word> Sync for Stealer<T> {}

impl<T: Word> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer { inner: Arc::clone(&self.inner), _marker: PhantomData }
    }
}

/// Create a deque with the default initial capacity.
pub fn deque<T: Word>() -> (WorkerDeque<T>, Stealer<T>) {
    deque_with_capacity(64)
}

/// Create a deque with a given initial capacity (rounded up to a power of
/// two).
pub fn deque_with_capacity<T: Word>(cap: usize) -> (WorkerDeque<T>, Stealer<T>) {
    let cap = cap.next_power_of_two().max(2);
    let inner = Arc::new(Inner {
        top: Pad(AtomicIsize::new(0)),
        bottom: Pad(AtomicIsize::new(0)),
        buffer: AtomicPtr::new(Box::into_raw(Buffer::new(cap))),
        retired: Mutex::new(Vec::new()),
    });
    (
        WorkerDeque { inner: Arc::clone(&inner), _marker: PhantomData },
        Stealer { inner, _marker: PhantomData },
    )
}

impl<T: Word> WorkerDeque<T> {
    /// Push a task at the bottom.
    pub fn push(&self, task: T) {
        let inner = &*self.inner;
        let b = inner.bottom.0.load(Ordering::Relaxed);
        let t = inner.top.0.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: the owner is the only mutator of `buffer`; the pointer is
        // valid until Inner::drop.
        if b - t >= unsafe { (*buf).cap() } as isize {
            buf = self.grow(b, t, buf);
        }
        // SAFETY: as above.
        unsafe { (*buf).write(b, task.into_word()) };
        inner.bottom.0.store(b + 1, Ordering::Release);
    }

    /// Pop a task from the bottom (LIFO).
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.0.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.0.store(b, Ordering::Relaxed);
        // Order the bottom write before the top read (Dekker-style).
        fence(Ordering::SeqCst);
        let t = inner.top.0.load(Ordering::Relaxed);
        if t > b {
            // Deque was empty; restore.
            inner.bottom.0.store(b + 1, Ordering::Relaxed);
            return None;
        }
        // SAFETY: buffer valid until Inner::drop.
        let w = unsafe { (*buf).read(b) };
        if t == b {
            // Last element: race thieves for it.
            let won =
                inner.top.0.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok();
            inner.bottom.0.store(b + 1, Ordering::Relaxed);
            if !won {
                return None;
            }
        }
        // SAFETY: word produced by into_word in push; the protocol hands it
        // out exactly once.
        Some(unsafe { T::from_word(w) })
    }

    /// [`pop`](WorkerDeque::pop) for an owner that has no thief: the same
    /// LIFO take with no barrier and no CAS, because both exist only to
    /// settle the last element against a concurrent `steal`. `bottom` and
    /// `top` are left exactly as the general `pop` would leave them, so the
    /// two may be mixed on one deque (the destructor uses the general one).
    ///
    /// # Safety
    /// No [`Stealer::steal`] of this deque may run concurrently with the
    /// call. Concurrent [`Stealer::len`]/[`Stealer::is_empty`] are fine:
    /// they read the two indices and nothing else.
    pub(crate) unsafe fn pop_solo(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.0.load(Ordering::Relaxed);
        // Nobody but a thief advances `top`, and there is none.
        if b <= inner.top.0.load(Ordering::Relaxed) {
            return None;
        }
        let buf = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: buffer valid until Inner::drop.
        let w = unsafe { (*buf).read(b - 1) };
        inner.bottom.0.store(b - 1, Ordering::Relaxed);
        // SAFETY: word produced by into_word in push; with no thief the
        // owner is the only taker, and lowering `bottom` took it.
        Some(unsafe { T::from_word(w) })
    }

    /// Approximate number of queued tasks (owner's view; racy for others).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.0.load(Ordering::Relaxed);
        let t = self.inner.top.0.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Whether the deque appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A stealer handle for this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer { inner: Arc::clone(&self.inner), _marker: PhantomData }
    }

    #[cold]
    fn grow(&self, b: isize, t: isize, old: *mut Buffer) -> *mut Buffer {
        // SAFETY: owner-exclusive; old buffer valid.
        let old_ref = unsafe { &*old };
        let new = Buffer::new(old_ref.cap() * 2);
        for i in t..b {
            new.write(i, old_ref.read(i));
        }
        let new_ptr = Box::into_raw(new);
        self.inner.buffer.store(new_ptr, Ordering::Release);
        // Thieves may still hold `old`; retire it until the deque drops.
        lock(&self.inner.retired).push(old);
        new_ptr
    }
}

impl<T: Word> Drop for WorkerDeque<T> {
    fn drop(&mut self) {
        // Reclaim ownership of any remaining payloads so their Drop runs.
        // Thieves racing this drop would be a bug in the caller (the pool
        // joins workers before dropping deques), but even then the steal
        // protocol hands each word out at most once, so this cannot double
        // free — it could only leak.
        while let Some(task) = self.pop() {
            drop(task);
        }
    }
}

impl<T: Word> Stealer<T> {
    /// Try to steal one task from the top (FIFO end).
    pub fn steal(&self) -> StealResult<T> {
        let inner = &*self.inner;
        let t = inner.top.0.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.0.load(Ordering::Acquire);
        if t >= b {
            return StealResult::Empty;
        }
        let buf = inner.buffer.load(Ordering::Acquire);
        // Read the slot *before* the CAS; on CAS failure the value is
        // simply forgotten (it is a plain word — no drop obligation until
        // from_word materialises the owner).
        // SAFETY: buffer pointers stay valid until Inner::drop (retired
        // buffers included), and slot reads are atomic.
        let w = unsafe { (*buf).read(t) };
        if inner.top.0.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok() {
            // SAFETY: unique consumption guaranteed by winning the CAS.
            StealResult::Success(unsafe { T::from_word(w) })
        } else {
            StealResult::Retry
        }
    }

    /// Approximate size from the thief's side.
    pub fn len(&self) -> usize {
        let t = self.inner.top.0.load(Ordering::Acquire);
        let b = self.inner.bottom.0.load(Ordering::Acquire);
        (b - t).max(0) as usize
    }

    /// Whether the deque appears empty from the thief's side.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Guard that keeps a value alive without dropping it (used in tests).
#[allow(dead_code)]
struct NoDrop<T>(ManuallyDrop<T>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64Star;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn push_pop_lifo() {
        let (w, _s) = deque::<usize>();
        for i in 0..10 {
            w.push(i);
        }
        for i in (0..10).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn steal_fifo() {
        let (w, s) = deque::<usize>();
        for i in 0..10 {
            w.push(i);
        }
        for i in 0..10 {
            assert_eq!(s.steal(), StealResult::Success(i));
        }
        assert_eq!(s.steal(), StealResult::Empty);
    }

    #[test]
    fn growth_preserves_contents() {
        let (w, _s) = deque_with_capacity::<usize>(2);
        for i in 0..1000 {
            w.push(i);
        }
        assert_eq!(w.len(), 1000);
        let mut got: Vec<usize> = std::iter::from_fn(|| w.pop()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn boxed_payloads_drop_exactly_once() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (w, s) = deque::<Box<D>>();
            for _ in 0..10 {
                w.push(Box::new(D));
            }
            drop(w.pop()); // 1
            match s.steal() {
                StealResult::Success(b) => drop(b), // 2
                other => panic!("unexpected {other:?}"),
            }
            // 8 remain; dropped by WorkerDeque::drop.
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn interleaved_push_pop_steal_single_thread() {
        let (w, s) = deque_with_capacity::<usize>(2);
        w.push(1);
        w.push(2);
        assert_eq!(s.steal(), StealResult::Success(1));
        w.push(3);
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), StealResult::Empty);
    }

    #[test]
    fn pop_solo_is_pop_when_nobody_steals() {
        // The same seeded push/pop/steal program on two deques, one popped
        // through the general protocol and one through the owner-only
        // take (steals are sequential here, which is all `pop_solo` asks):
        // same answers, same lengths, across buffer growth, the
        // last-element case and pops of an empty deque. Then the two pops
        // mixed on one deque, as `Drop` mixes them.
        let (general, gs) = deque_with_capacity::<usize>(2);
        let (solo, ss) = deque_with_capacity::<usize>(2);
        let mut rng = XorShift64Star::new(7);
        for i in 0..20_000usize {
            match rng.next_below(8) {
                0..=3 => {
                    general.push(i);
                    solo.push(i);
                }
                4..=6 => {
                    // SAFETY: no steal runs concurrently; this is one thread.
                    assert_eq!(unsafe { solo.pop_solo() }, general.pop());
                }
                _ => assert_eq!(ss.steal(), gs.steal()),
            }
            assert_eq!((solo.len(), ss.len()), (general.len(), gs.len()));
        }
        while let Some(v) = general.pop() {
            // SAFETY: as above.
            assert_eq!(unsafe { solo.pop_solo() }, Some(v));
        }
        // SAFETY: as above.
        assert_eq!(unsafe { solo.pop_solo() }, None);
        for i in 0..10 {
            solo.push(i);
        }
        for i in (0..10).rev() {
            // SAFETY: as above.
            let got = if i % 2 == 0 { solo.pop() } else { unsafe { solo.pop_solo() } };
            assert_eq!(got, Some(i));
        }
        assert!(solo.is_empty() && ss.is_empty());
    }

    #[test]
    fn concurrent_steal_soup_no_loss_no_dup() {
        // One producer pushing and popping, many thieves stealing; every
        // pushed value must be consumed exactly once.
        const N: usize = 100_000;
        const THIEVES: usize = 3;
        let (w, s) = deque_with_capacity::<usize>(4);
        let consumed: Vec<_> = (0..THIEVES).map(|_| Mutex::new(Vec::new())).collect();
        let owner_bucket: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for (tid, bucket) in consumed.iter().enumerate() {
                let s = s.clone();
                let done = &done;
                scope.spawn(move || {
                    let mut rng = XorShift64Star::new(tid as u64 + 1);
                    let mut local = Vec::new();
                    loop {
                        match s.steal() {
                            StealResult::Success(v) => local.push(v),
                            StealResult::Retry => {}
                            StealResult::Empty => {
                                if done.load(Ordering::Acquire) == 1 {
                                    break;
                                }
                                if rng.next_below(4) == 0 {
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                    *lock(bucket) = local;
                });
            }
            // Owner: push all, popping intermittently.
            let mut owner_got = Vec::new();
            let mut rng = XorShift64Star::new(42);
            for i in 1..=N {
                w.push(i);
                if rng.next_below(3) == 0 {
                    if let Some(v) = w.pop() {
                        owner_got.push(v);
                    }
                }
            }
            while let Some(v) = w.pop() {
                owner_got.push(v);
            }
            done.store(1, Ordering::Release);
            lock(&owner_bucket).extend(owner_got);
        });
        let mut all: Vec<usize> = owner_bucket.into_inner().unwrap();
        for bucket in &consumed {
            all.extend(lock(bucket).iter().copied());
        }
        assert_eq!(all.len(), N, "every task consumed exactly once (count)");
        let set: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(set.len(), N, "no duplicates");
        assert_eq!(*set.iter().min().unwrap(), 1);
        assert_eq!(*set.iter().max().unwrap(), N);
    }

    #[test]
    fn stress_last_element_race() {
        // Hammer the single-element pop/steal race.
        for _ in 0..200 {
            let (w, s) = deque::<usize>();
            w.push(7);
            let got = std::thread::scope(|scope| {
                let h = scope.spawn(move || match s.steal() {
                    StealResult::Success(v) => Some(v),
                    _ => None,
                });
                let mine = w.pop();
                let theirs = h.join().unwrap();
                (mine, theirs)
            });
            match got {
                (Some(7), None) | (None, Some(7)) => {}
                other => panic!("exactly one side must win: {other:?}"),
            }
        }
    }
}
