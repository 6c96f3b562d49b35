//! How a lock-free object commits one step of its protocol.
//!
//! The runtime's lock-free objects — the SNZI trees under the in-counters,
//! the fetch-and-add cell, the decrement pairs, a waiting vertex's `owed`
//! word, the out-sets — are written once, generic over a [`Step`]: how one
//! read-modify-write is committed. [`Shared`] commits it with the atomic
//! instruction, as an operation that may meet another thread's must.
//! [`Exclusive`] commits it with a load and a store, which is what that
//! instruction does when nothing interferes, for an operation that no
//! other operation on the same object overlaps. Either way the words go
//! through the same values and every operation returns the same result.
//!
//! Each step takes the ordering of its shared instruction; a failed shared
//! compare-and-swap loads with that ordering's load half. An exclusive
//! step loads `Relaxed`, since whatever made the operation exclusive orders
//! every other one before or after it. It stores `Release` under a
//! `SeqCst` step and `Relaxed` under any other: the out-set, whose steps
//! are the `SeqCst` ones, has readers that are not steps — a diagnostic
//! walk follows a head it loads into the block behind it.
//!
//! An `Exclusive` is a promise that only `unsafe` makes
//! ([`Exclusive::new`]). It is not `Send`, and it borrows what its minter
//! ties it to, so the argument for it is made once, where it is minted
//! (for `spdag`, in `spdag::vertex`), not at each step. `Step` is sealed:
//! another impl could commit a step that is neither atomic nor exclusive.
//! [`differential`] checks an object against this module's claim: copies
//! stepped shared, exclusive and mixed must agree after every operation.

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{self, AcqRel, Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize};

use crate::XorShift64Star;

mod sealed {
    use std::sync::atomic::Ordering;

    pub trait Sealed {}

    /// What a step does to an atomic integer: the type's own operations.
    pub trait Int: Sealed {
        type Int: Copy;
        fn fetch_add(&self, v: Self::Int, ord: Ordering) -> Self::Int;
        fn fetch_sub(&self, v: Self::Int, ord: Ordering) -> Self::Int;
        fn load(&self, ord: Ordering) -> Self::Int;
        fn store(&self, v: Self::Int, ord: Ordering);
        fn wrapping_add(a: Self::Int, b: Self::Int) -> Self::Int;
        fn wrapping_sub(a: Self::Int, b: Self::Int) -> Self::Int;
    }
}

/// How one read-modify-write of a lock-free protocol is committed (module
/// docs). Each method takes the ordering of its shared instruction.
pub trait Step: Copy + sealed::Sealed {
    /// Replace `old` by `new` in `word` if it still holds `old`; whether
    /// it did.
    fn cas(self, word: &AtomicU64, old: u64, new: u64, ord: Ordering) -> bool;
    /// [`cas`](Step::cas) on a pointer word.
    fn cas_ptr<T>(self, word: &AtomicPtr<T>, old: *mut T, new: *mut T, ord: Ordering) -> bool;
    /// Add `v` to `word`, wrapping; the value before.
    fn fetch_add<W: AtomicInt>(self, word: &W, v: W::Int, ord: Ordering) -> W::Int;
    /// Subtract `v` from `word`, wrapping; the value before.
    fn fetch_sub<W: AtomicInt>(self, word: &W, v: W::Int, ord: Ordering) -> W::Int;
    /// Store `new` in `word`; the value before.
    fn swap(self, word: &AtomicU64, new: u64, ord: Ordering) -> u64;
    /// [`swap`](Step::swap) on a flag.
    fn swap_flag(self, word: &AtomicBool, new: bool, ord: Ordering) -> bool;
}

/// An atomic integer a [`Step`] adds to or subtracts from: `AtomicU32`,
/// `AtomicU64`, `AtomicUsize` or `AtomicI64`.
pub trait AtomicInt: sealed::Int {}

macro_rules! atomic_int {
    ($($atomic:ident: $int:ty),*) => {$(
        impl sealed::Sealed for $atomic {}
        impl AtomicInt for $atomic {}
        impl sealed::Int for $atomic {
            type Int = $int;
            #[inline(always)]
            fn fetch_add(&self, v: $int, o: Ordering) -> $int { $atomic::fetch_add(self, v, o) }
            #[inline(always)]
            fn fetch_sub(&self, v: $int, o: Ordering) -> $int { $atomic::fetch_sub(self, v, o) }
            #[inline(always)]
            fn load(&self, o: Ordering) -> $int { $atomic::load(self, o) }
            #[inline(always)]
            fn store(&self, v: $int, o: Ordering) { $atomic::store(self, v, o) }
            #[inline(always)]
            fn wrapping_add(a: $int, b: $int) -> $int { a.wrapping_add(b) }
            #[inline(always)]
            fn wrapping_sub(a: $int, b: $int) -> $int { a.wrapping_sub(b) }
        }
    )*};
}

atomic_int!(AtomicU32: u32, AtomicU64: u64, AtomicUsize: usize, AtomicI64: i64);

/// The load half of `ord`: what a failed shared compare-and-swap loads
/// with.
#[inline(always)]
const fn load_half(ord: Ordering) -> Ordering {
    match ord {
        AcqRel => Acquire,
        Release => Relaxed,
        ord => ord,
    }
}

/// What an exclusive step stores with (module docs).
#[inline(always)]
const fn exclusive_store(ord: Ordering) -> Ordering {
    if matches!(ord, SeqCst) {
        Release
    } else {
        Relaxed
    }
}

/// Steps committed by the atomic instruction: any operation that may
/// overlap another operation on the same object.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shared;

impl sealed::Sealed for Shared {}

impl Step for Shared {
    #[inline(always)]
    fn cas(self, word: &AtomicU64, old: u64, new: u64, ord: Ordering) -> bool {
        word.compare_exchange(old, new, ord, load_half(ord)).is_ok()
    }
    #[inline(always)]
    fn cas_ptr<T>(self, word: &AtomicPtr<T>, old: *mut T, new: *mut T, ord: Ordering) -> bool {
        word.compare_exchange(old, new, ord, load_half(ord)).is_ok()
    }
    #[inline(always)]
    fn fetch_add<W: AtomicInt>(self, word: &W, v: W::Int, ord: Ordering) -> W::Int {
        word.fetch_add(v, ord)
    }
    #[inline(always)]
    fn fetch_sub<W: AtomicInt>(self, word: &W, v: W::Int, ord: Ordering) -> W::Int {
        word.fetch_sub(v, ord)
    }
    #[inline(always)]
    fn swap(self, word: &AtomicU64, new: u64, ord: Ordering) -> u64 {
        word.swap(new, ord)
    }
    #[inline(always)]
    fn swap_flag(self, word: &AtomicBool, new: bool, ord: Ordering) -> bool {
        word.swap(new, ord)
    }
}

/// Steps committed by a load and a store, for an operation that no other
/// operation on the same object overlaps (module docs). Zero-sized,
/// `Copy`, and neither `Send` nor `Sync`.
///
/// Safe code cannot make one:
///
/// ```compile_fail,E0133
/// let _x = sched::step::Exclusive::new();
/// ```
///
/// and cannot move one to another thread, where the promise it carries
/// does not hold:
///
/// ```compile_fail,E0277
/// // SAFETY: none; the point is that this does not compile.
/// let x = unsafe { sched::step::Exclusive::new() };
/// std::thread::spawn(move || x);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Exclusive<'a>(PhantomData<(&'a (), *const ())>);

impl Exclusive<'_> {
    /// Mint the token.
    ///
    /// # Safety
    /// No operation committed with this token, or with a copy of it,
    /// overlaps another operation on the same object, on any thread: each
    /// other operation is ordered before or after it, and whatever orders
    /// them also orders the memory accesses around them.
    #[inline(always)]
    pub unsafe fn new() -> Self {
        Exclusive(PhantomData)
    }
}

impl sealed::Sealed for Exclusive<'_> {}

impl Step for Exclusive<'_> {
    #[inline(always)]
    fn cas(self, word: &AtomicU64, old: u64, new: u64, ord: Ordering) -> bool {
        let holds = word.load(Relaxed) == old;
        if holds {
            word.store(new, exclusive_store(ord));
        }
        holds
    }
    #[inline(always)]
    fn cas_ptr<T>(self, word: &AtomicPtr<T>, old: *mut T, new: *mut T, ord: Ordering) -> bool {
        let holds = word.load(Relaxed) == old;
        if holds {
            word.store(new, exclusive_store(ord));
        }
        holds
    }
    #[inline(always)]
    fn fetch_add<W: AtomicInt>(self, word: &W, v: W::Int, ord: Ordering) -> W::Int {
        let prev = word.load(Relaxed);
        word.store(W::wrapping_add(prev, v), exclusive_store(ord));
        prev
    }
    #[inline(always)]
    fn fetch_sub<W: AtomicInt>(self, word: &W, v: W::Int, ord: Ordering) -> W::Int {
        let prev = word.load(Relaxed);
        word.store(W::wrapping_sub(prev, v), exclusive_store(ord));
        prev
    }
    #[inline(always)]
    fn swap(self, word: &AtomicU64, new: u64, ord: Ordering) -> u64 {
        let prev = word.load(Relaxed);
        word.store(new, exclusive_store(ord));
        prev
    }
    #[inline(always)]
    fn swap_flag(self, word: &AtomicBool, new: bool, ord: Ordering) -> bool {
        let prev = word.load(Relaxed);
        word.store(new, exclusive_store(ord));
        prev
    }
}

/// One copy of an object under the [`differential`] driver, with whatever
/// it needs to choose its operations.
///
/// # Safety
/// `apply` commits `step` on this copy's own objects alone, on the calling
/// thread, and returns only once its operation has ended.
pub unsafe trait Differential {
    /// What an operation returned, with everything the copy holds after it.
    type Seen: PartialEq + std::fmt::Debug;
    /// Make the operation that `draw` selects, committing each step with
    /// `step`. Every copy gets the same draws, so copies that agree so far
    /// choose the same operation.
    fn apply<S: Step>(&mut self, draw: u64, step: S) -> Self::Seen;
}

/// Drive three copies of one object through `ops` operations drawn from
/// `seed`: copy 0 commits every step shared, copy 1 every step exclusive,
/// and copy 2 chooses per operation. After each operation, what the three
/// returned and hold must agree: the exclusive steps are the shared steps
/// when nothing interferes.
pub fn differential<D: Differential>(make: impl Fn() -> D, seed: u64, ops: usize) {
    let mut copies = [make(), make(), make()];
    let mut draws = XorShift64Star::new(seed);
    let mut mix = XorShift64Star::new(seed ^ 0x5EED);
    // SAFETY: the copies are this function's own, and `Differential`'s
    // contract keeps every step of `apply` on them and on this thread, one
    // operation after another: none overlaps another.
    let x = unsafe { Exclusive::new() };
    for op in 0..ops {
        let draw = draws.next_u64();
        let seen = [
            copies[0].apply(draw, Shared),
            copies[1].apply(draw, x),
            match mix.next_u64() & 1 {
                0 => copies[2].apply(draw, Shared),
                _ => copies[2].apply(draw, x),
            },
        ];
        assert!(
            seen[0] == seen[1] && seen[1] == seen[2],
            "seed {seed} operation {op}: shared / exclusive / mixed = {seen:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One word of every kind a step commits on; its `Debug` reads them.
    type Words = (AtomicU64, AtomicPtr<u64>, AtomicU32, AtomicUsize, AtomicI64, AtomicBool);

    /// Operation `op` on `w` with operands `a` and `b`, or with `a` the
    /// word's own value (a compare-and-swap that holds) when `hit`.
    fn commit<S: Step>(
        s: S,
        w: &Words,
        op: usize,
        [a, b]: [u64; 2],
        hit: bool,
        o: Ordering,
    ) -> u64 {
        let ptr = |v: u64| std::ptr::without_provenance_mut::<u64>(v as usize);
        match op {
            0 => s.cas(&w.0, if hit { w.0.load(Relaxed) } else { a }, b, o) as u64,
            1 => s.cas_ptr(&w.1, if hit { w.1.load(Relaxed) } else { ptr(a) }, ptr(b), o) as u64,
            2 => s.fetch_add(&w.2, a as u32, o) as u64,
            3 => s.fetch_sub(&w.2, a as u32, o) as u64,
            4 => s.fetch_add(&w.3, a as usize, o) as u64,
            5 => s.fetch_sub(&w.3, a as usize, o) as u64,
            6 => s.fetch_add(&w.0, a, o),
            7 => s.fetch_add(&w.4, a as i64, o) as u64,
            8 => s.fetch_sub(&w.4, a as i64, o) as u64,
            9 => s.swap(&w.0, a, o),
            _ => s.swap_flag(&w.5, a & 1 == 1, o) as u64,
        }
    }

    #[test]
    fn every_step_commits_alike_under_both() {
        const ORDS: [Ordering; 5] = [Relaxed, Release, Acquire, AcqRel, SeqCst];
        for seed in 1..=8u64 {
            let mut rng = XorShift64Star::new(seed * 0x9E37_79B9);
            let (shared, exclusive) = (Words::default(), Words::default());
            // SAFETY: both sets of words are this test's locals, stepped on
            // this thread one operation after another.
            let x = unsafe { Exclusive::new() };
            for round in 0..20_000 {
                let (op, ord) = (rng.next_below(11), ORDS[rng.next_below(ORDS.len())]);
                // Small operands half the time, so sums and differences
                // wrap both ways and cursors stay small.
                let mask = if rng.next_u64() & 1 == 0 { 3 } else { u64::MAX };
                let ab = [rng.next_u64() & mask, rng.next_u64() & mask];
                let hit = rng.next_u64() & 1 == 0;
                let got = [
                    commit(Shared, &shared, op, ab, hit, ord),
                    commit(x, &exclusive, op, ab, hit, ord),
                ];
                let at = format!("seed {seed} round {round} op {op} {ord:?}");
                assert_eq!(got[0], got[1], "{at}: returned");
                assert_eq!(format!("{shared:?}"), format!("{exclusive:?}"), "{at}: words");
            }
        }
    }

    #[test]
    fn exclusive_stores_publish_only_under_seq_cst() {
        let ords = [Relaxed, Release, Acquire, AcqRel, SeqCst];
        assert_eq!(ords.map(exclusive_store), [Relaxed, Relaxed, Relaxed, Relaxed, Release]);
        assert_eq!(ords.map(load_half), [Relaxed, Relaxed, Acquire, Acquire, SeqCst]);
    }
}
