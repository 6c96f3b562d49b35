//! The shared, ordered pair of decrement handles (Section 3.3).
//!
//! Every increment returns *two* decrement handles: the one it inherited
//! from the incrementing vertex (pointing **higher** in the SNZI tree) and
//! a fresh one pointing at the node where its arrive landed. The pair is
//! shared between the two sibling dag vertices created by the spawn, and
//! the two eventual users decide who gets which handle with a test-and-set:
//! the *first* to claim takes the first (higher) handle.
//!
//! This "decrement high nodes first" discipline is the engine behind the
//! paper's Lemma 4.6 (a node whose surplus returns to zero is never touched
//! again), which in turn bounds per-node contention by a constant.
//!
//! The paper's Figure 3 draws the `first_dec` flag inside the vertex, but
//! the text is explicit that the handles — and hence the flag arbitrating
//! them — are shared between the two siblings; `DecPair` is that shared
//! object.
//!
//! ## The pair owns itself
//!
//! A pair has exactly two claimers and nobody touches it after the second
//! claim, so the claim flag already *is* its reference count: whoever
//! finds the flag set is the last user and may free the pair's memory.
//! [`DecPair::claim_last`] reports that, and is written so the loser of
//! the race never touches the pair after its own `swap` — it reads both
//! handles *first*, then swaps. The winner's reads are ordered before the
//! loser's free by the swap's release/acquire edge. The dag layer
//! (`spdag::pair`) builds on this: a pair shared by two vertices costs one
//! allocation and no reference-count traffic. (There is no pair with a
//! single user: the only strand of a finish scope holds none at all.)
//!
//! ## The exclusive claim
//!
//! With an [`Exclusive`](sched::step::Exclusive) step — both claimers on
//! one thread, as in a one-worker run — the claim's `swap` is a load of
//! the flag and a store of `true`. The two kinds of claim may mix on one
//! pair as long as they do not overlap.

use std::sync::atomic::{AtomicBool, Ordering};

use sched::step::{Shared, Step};

/// An ordered pair of decrement handles with a one-shot claim flag.
#[derive(Debug)]
pub struct DecPair<D> {
    claimed: AtomicBool,
    #[cfg(debug_assertions)]
    second_claimed: AtomicBool,
    first: D,
    second: D,
}

impl<D: Copy> DecPair<D> {
    /// Build a pair; `first` must point at least as high in the tree as
    /// `second` (the caller — `increment` — guarantees it by passing the
    /// inherited handle first).
    pub fn new(first: D, second: D) -> DecPair<D> {
        DecPair {
            claimed: AtomicBool::new(false),
            #[cfg(debug_assertions)]
            second_claimed: AtomicBool::new(false),
            first,
            second,
        }
    }

    /// Claim a handle: the first claimer receives the first (higher)
    /// handle, the second claimer the second. The paper's `claim_dec`.
    ///
    /// In a valid execution each pair is claimed at most twice (once by
    /// each sibling); a third claim panics in debug builds.
    #[inline]
    pub fn claim(&self) -> D {
        // SAFETY: `self` is borrowed for the whole call, so the pair
        // outlives it whatever the other claimer does.
        unsafe { Self::claim_last(self, Shared) }.0
    }

    /// [`claim`](DecPair::claim) for a pair that owns itself, with its
    /// `swap` committed by `step`: also reports whether this was the
    /// **last** claim, in which case the caller has exclusive access to
    /// the pair and must free its memory. After a claim that is *not* the
    /// last, the pair may be freed by the other claimer at any instant:
    /// this function reads both handles before the `swap` that decides,
    /// and touches nothing after it (module docs, "The exclusive claim").
    ///
    /// # Safety
    /// `this` must point to a live pair that stays allocated until its
    /// last claim returns, and the execution must be valid: at most two
    /// claims in total.
    #[inline]
    pub unsafe fn claim_last<S: Step>(this: *const DecPair<D>, step: S) -> (D, bool) {
        // SAFETY: the pair is live until the last claim, and no claim has
        // been the last before this one's swap.
        let (first, second) = unsafe { ((*this).first, (*this).second) };
        // AcqRel: the release half orders the reads above before the other
        // claimer's free; the acquire half makes the last claimer's free
        // happen after them.
        // SAFETY: as above — the swap itself is this claim's last access
        // unless it turns out to be the last claim.
        if !step.swap_flag(unsafe { &(*this).claimed }, true, Ordering::AcqRel) {
            return (first, false);
        }
        #[cfg(debug_assertions)]
        // SAFETY: the flag was set, so this is the last claim of a valid
        // execution and the pair is exclusively ours.
        unsafe {
            assert!(
                !step.swap_flag(&(*this).second_claimed, true, Ordering::AcqRel),
                "DecPair claimed three times: execution is not valid (Definition 1)"
            );
        }
        (second, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_are_ordered() {
        let p = DecPair::new(10u32, 20u32);
        assert_eq!(p.claim(), 10, "first claimer gets the higher handle");
        assert_eq!(p.claim(), 20);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not valid")]
    fn triple_claim_panics_in_debug() {
        let p = DecPair::new(1u32, 2u32);
        p.claim();
        p.claim();
        p.claim();
    }

    #[test]
    fn racing_claims_split_the_handles_and_exactly_one_is_last() {
        // The self-owning protocol end to end: the pair lives in a raw
        // allocation, two threads race the two claims, and whoever is told
        // it was last frees the memory. A double free or a leak would be a
        // wrong `freed` count; a torn handle a wrong split.
        use std::sync::atomic::{AtomicPtr, AtomicUsize};
        use std::sync::{Arc, Barrier};
        const ROUNDS: u64 = 100_000;
        let slot = Arc::new(AtomicPtr::<DecPair<u64>>::new(std::ptr::null_mut()));
        let barrier = Arc::new(Barrier::new(2));
        let freed = Arc::new(AtomicUsize::new(0));
        let claimer = |id: u64| {
            let (slot, barrier, freed) =
                (Arc::clone(&slot), Arc::clone(&barrier), Arc::clone(&freed));
            move || {
                let mut got = Vec::with_capacity(ROUNDS as usize);
                for round in 0..ROUNDS {
                    if id == 0 {
                        let fresh = Box::into_raw(Box::new(DecPair::new(2 * round, 2 * round + 1)));
                        slot.store(fresh, Ordering::Release);
                    }
                    barrier.wait(); // the pair is published
                    let pair = slot.load(Ordering::Acquire);
                    // SAFETY: two claims per pair, freed only by the last.
                    let (d, last) = unsafe { DecPair::claim_last(pair, Shared) };
                    if last {
                        // SAFETY: last claim: exclusive, Box-allocated above.
                        drop(unsafe { Box::from_raw(pair) });
                        freed.fetch_add(1, Ordering::Relaxed);
                    }
                    got.push((d, last));
                    barrier.wait(); // both claims done before the next publish
                }
                got
            }
        };
        let other = std::thread::spawn(claimer(1));
        let mine = claimer(0)();
        let theirs = other.join().unwrap();
        assert_eq!(freed.load(Ordering::Relaxed), ROUNDS as usize, "one free per pair");
        for (round, (a, b)) in mine.into_iter().zip(theirs).enumerate() {
            let (first, second) = (2 * round as u64, 2 * round as u64 + 1);
            assert!(a.1 != b.1, "round {round}: exactly one claim is the last");
            let (early, late) = if a.1 { (b.0, a.0) } else { (a.0, b.0) };
            assert_eq!((early, late), (first, second), "round {round}: handles split in order");
        }
    }

    #[test]
    fn claims_agree_under_either_step() {
        // Every order of the two claims over the two steps: the same
        // handles and the same "last" answers.
        // SAFETY: the pairs below are this test's, claimed on its thread
        // one claim after another.
        let x = unsafe { sched::step::Exclusive::new() };
        type Claim<'c> = &'c dyn Fn(&DecPair<u64>) -> (u64, bool);
        let claims: [Claim<'_>; 2] = [
            // SAFETY: two claims on a live pair, one after the other.
            &|p| unsafe { DecPair::claim_last(p, Shared) },
            // SAFETY: as above.
            &|p| unsafe { DecPair::claim_last(p, x) },
        ];
        for first in claims {
            for second in claims {
                let p = DecPair::new(7u64, 9u64);
                assert_eq!(first(&p), (7, false));
                assert_eq!(second(&p), (9, true));
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not valid")]
    fn a_third_claim_panics_in_debug_under_either_step() {
        let p = DecPair::new(1u32, 2u32);
        // SAFETY: the pair outlives the claims, all on this thread; the
        // third is the bug.
        unsafe {
            let x = sched::step::Exclusive::new();
            DecPair::claim_last(&p, x);
            DecPair::claim_last(&p, x);
            DecPair::claim_last(&p, x);
        }
    }

    #[test]
    fn concurrent_claims_split_the_pair() {
        use std::sync::Arc;
        for _ in 0..200 {
            let p = Arc::new(DecPair::new(1u32, 2u32));
            let p2 = Arc::clone(&p);
            let h = std::thread::spawn(move || p2.claim());
            let a = p.claim();
            let b = h.join().unwrap();
            assert!(
                (a == 1 && b == 2) || (a == 2 && b == 1),
                "the two claimers must split the pair, got {a} and {b}"
            );
        }
    }
}
