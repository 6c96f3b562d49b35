//! The vertices' handle on a shared [`DecPair`]: a copyable, non-owning
//! pointer to a pair that **owns itself**.
//!
//! A spawn shares one decrement pair between its two children. Nothing
//! needs to count those two references: the sp-dag discipline gives every
//! pair exactly two claims — one per holder, whether that holder signals,
//! spawns/forks (claiming the inherited handle) or hands the pointer to a
//! `chain`/`touch` continuation that does one of those in its place — and
//! nobody touches a pair after its second claim. So the claim flag is the
//! reference count ([`DecPair::claim_last`]): the claimer that finds the
//! flag set takes the second handle and frees the slab.
//!
//! A pair exists only where a scope forked. A finish scope opens with one
//! strand — `run_dag`'s root, a `chain`'s `first`, a future's body — and
//! that strand holds [`PairRef::none`]: a pair with one holder would be
//! claimed once, by the same vertex that would free it, so it is no object
//! at all. The invariant the dag layer rests on (`spdag::vertex`): *a
//! vertex whose pair is `none` is the only strand of its finish scope, and
//! that scope's counter has never been stepped*. Only
//! `Vertex::fork_rotate` adds a strand (the fork step, a splitting handoff,
//! a future), and it leaves every strand of the scope with a real pair. The
//! dag's final vertex signals nobody and holds `none` too.
//!
//! Pairs are carved from the scheduler's size-class ladder through the
//! typed pair every recycled object uses ([`recycle::alloc`] /
//! [`recycle::free`]): the slab holds a bare [`DecPair`] and where it
//! retires to follows from the pair's layout. Births and deaths are
//! counted by `sched.pairs_born` and `sched.pairs_freed` — one each per
//! pair whatever the cache state, so both repeat exactly under a fixed
//! schedule — and at quiescence `pairs_born == pairs_freed`.

use incounter::DecPair;
use sched::recycle;

/// A vertex's pointer to its shared decrement pair (see module docs).
pub(crate) struct PairRef<D>(*mut DecPair<D>);

impl<D> Clone for PairRef<D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D> Copy for PairRef<D> {}

impl<D: Copy> PairRef<D> {
    /// What the only strand of a finish scope holds (and the final
    /// vertex, which has no scope to signal): no pair. Must never be
    /// claimed.
    pub(crate) const fn none() -> PairRef<D> {
        PairRef(std::ptr::null_mut())
    }

    /// Whether the holder is the only strand of its scope (module docs).
    pub(crate) fn is_none(self) -> bool {
        self.0.is_null()
    }

    /// Write `pair` into a slab of its own, taken before the write: the
    /// pair's handles come from the increment in registers and are stored
    /// straight into the slab. The slab lives until the pair's last claim.
    #[inline(always)]
    pub(crate) fn new(pair: DecPair<D>) -> PairRef<D> {
        obs::counter!("sched.pairs_born").inc();
        PairRef(recycle::alloc(|| pair).0)
    }

    /// Claim this holder's handle (the paper's `claim_dec`), freeing the
    /// pair if this was its last claim. `solo`: the claimer is a one-worker
    /// run's, which claims by load and store
    /// ([`DecPair::claim_last_exclusive`]).
    ///
    /// # Safety
    /// The caller must be one of the pair's holders and must not have
    /// claimed before: across all copies of this pointer, two claims in
    /// total. The pointer is dead afterwards. With `solo`, the run has one
    /// worker (`sched::WorkerCtx::is_solo`), so the pair's other claim —
    /// by a vertex of the same run — is made on this thread too, and does
    /// not overlap this one.
    pub(crate) unsafe fn claim(self, solo: bool) -> D {
        debug_assert!(!self.0.is_null(), "a sole strand's `none` pair was claimed");
        // SAFETY: the pair is live until its last claim (caller contract).
        let (dec, last) = unsafe {
            if solo {
                DecPair::claim_last_exclusive(self.0)
            } else {
                DecPair::claim_last(self.0)
            }
        };
        if last {
            obs::counter!("sched.pairs_freed").inc();
            // SAFETY: last claim — the slab `new` got from `recycle::alloc`
            // is exclusively ours.
            unsafe { recycle::free(self.0) };
        }
        dec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_claim_frees_the_slab() {
        let a = PairRef::new(DecPair::new(1u64, 2u64));
        let addr = a.0 as usize;
        let b = a; // the sibling's copy

        // SAFETY: `a` and `b` are the pair's two holders; each claims once.
        assert_eq!(unsafe { a.claim(false) }, 1);
        // SAFETY: as above.
        assert_eq!(unsafe { b.claim(false) }, 2);
        // Freed on the second claim: the thread's LIFO cache serves the
        // very same slab to the next pair — whichever way it was claimed.
        let c = PairRef::new(DecPair::new(3u64, 4u64));
        assert_eq!(c.0 as usize, addr);
        assert!(!c.is_none() && PairRef::<u64>::none().is_none());
        // SAFETY: `c` stands for both holders of its pair, one claim each,
        // on this one thread (`solo`).
        assert_eq!(unsafe { (c.claim(true), c.claim(true)) }, (3, 4));
        let d = PairRef::new(DecPair::new(5u64, 6u64));
        assert_eq!(d.0 as usize, addr);
        // SAFETY: as for `c`; the exclusive claim does not overlap the
        // shared one.
        assert_eq!(unsafe { (d.claim(true), d.claim(false)) }, (5, 6));
    }

    #[test]
    fn a_pair_is_built_where_it_lives() {
        // Pairs of 16-byte handles ride the 64 B class, as the dynamic
        // family's do. Over scribbled slabs, a claim flag the constructor
        // left unwritten would read as claimed, and the first claim would
        // take the second handle.
        crate::scribble::scribble();
        let pairs: Vec<PairRef<[u64; 2]>> =
            (0..8).map(|i| PairRef::new(DecPair::new([i; 2], [i + 100; 2]))).collect();
        for (i, p) in (0u64..).zip(pairs) {
            // SAFETY: the pair's two claims, one after the other.
            assert_eq!(unsafe { (p.claim(i % 2 == 0), p.claim(false)) }, ([i; 2], [i + 100; 2]));
        }
    }
}
