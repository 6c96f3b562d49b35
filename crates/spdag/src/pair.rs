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
//! flag set takes the second handle and frees the slab. The root pair of a
//! finish scope has one holder and is born with the flag set
//! ([`DecPair::new_claimed`]); the dag's final vertex never claims and
//! holds no pair at all ([`PairRef::none`]).
//!
//! Pairs are carved from the scheduler's size-class ladder with the same
//! provenance rule as vertices: the class byte is captured at birth
//! ([`sched::recycle::enabled`] is read once, here) and the slab retires
//! by it. Births and deaths are counted by `sched.pairs_born` and
//! `sched.pairs_freed` — one each per pair whatever the cache state, so
//! both repeat exactly under a fixed schedule — and at quiescence
//! `pairs_born == pairs_freed`.

use incounter::DecPair;
use sched::recycle;

/// A pair plus the size class its slab came from
/// ([`recycle::UNPOOLED`] when plainly allocated).
struct PairSlab<D> {
    pair: DecPair<D>,
    class: u8,
}

/// A vertex's pointer to its shared decrement pair (see module docs).
pub(crate) struct PairRef<D>(*mut PairSlab<D>);

impl<D> Clone for PairRef<D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D> Copy for PairRef<D> {}

impl<D: Copy> PairRef<D> {
    /// The final vertex's placeholder: it signals nobody, so it holds no
    /// pair. Must never be claimed.
    pub(crate) const fn none() -> PairRef<D> {
        PairRef(std::ptr::null_mut())
    }

    /// Move `pair` into a slab of its own. The slab lives until the
    /// pair's last claim.
    pub(crate) fn new(pair: DecPair<D>) -> PairRef<D> {
        obs::counter!("sched.pairs_born").inc();
        let class = if recycle::enabled() { recycle::class_of::<PairSlab<D>>() } else { None };
        PairRef(match class {
            Some(class) => {
                let raw = recycle::acquire_or_alloc(class).0 as *mut PairSlab<D>;
                // SAFETY: the slab is class-sized ≥ size_of::<PairSlab<D>>,
                // CLASS_ALIGN-aligned ≥ align_of, and exclusively ours.
                unsafe { raw.write(PairSlab { pair, class }) };
                raw
            }
            None => Box::into_raw(Box::new(PairSlab { pair, class: recycle::UNPOOLED })),
        })
    }

    /// Claim this holder's handle (the paper's `claim_dec`), freeing the
    /// pair if this was its last claim.
    ///
    /// # Safety
    /// The caller must be one of the pair's holders and must not have
    /// claimed before: across all copies of this pointer, two claims in
    /// total (one for a born-claimed pair). The pointer is dead afterwards.
    pub(crate) unsafe fn claim(self) -> D {
        debug_assert!(!self.0.is_null(), "the final vertex's placeholder pair was claimed");
        // SAFETY: the pair is live until its last claim (caller contract);
        // the projection creates no reference.
        let (dec, last) = unsafe { DecPair::claim_last(std::ptr::addr_of!((*self.0).pair)) };
        if last {
            obs::counter!("sched.pairs_freed").inc();
            // SAFETY: last claim — the slab is exclusively ours, it holds
            // no drop glue (`D: Copy`), and it goes back where its
            // provenance byte says it came from.
            unsafe {
                match (*self.0).class {
                    recycle::UNPOOLED => drop(Box::from_raw(self.0)),
                    class => recycle::release(class, self.0 as *mut u8),
                }
            }
        }
        dec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test, not two: both halves flip the process-wide recycle
    /// switch, and nothing else in this crate's unit tests does.
    #[test]
    fn last_claim_frees_by_birth_provenance() {
        let was = recycle::set_enabled(true);
        let a = PairRef::new(DecPair::new(1u64, 2u64));
        let addr = a.0 as usize;
        let b = a; // the sibling's copy
        assert_eq!(unsafe { a.claim() }, 1);
        assert_eq!(unsafe { b.claim() }, 2);
        // Freed on the second claim: the thread's LIFO cache serves the
        // very same slab to the next pair.
        let c = PairRef::new(DecPair::new_claimed(9u64));
        assert_eq!(c.0 as usize, addr);
        assert_eq!(unsafe { c.claim() }, 9, "a born-claimed pair ends on its single claim");

        recycle::set_enabled(false);
        let p = PairRef::new(DecPair::new_claimed(3u64));
        assert_eq!(unsafe { (*p.0).class }, recycle::UNPOOLED);
        assert_ne!(p.0 as usize, addr, "born unpooled: the cached slab stays cached");
        recycle::set_enabled(true); // retirement goes by provenance, not by the switch
        assert_eq!(unsafe { p.claim() }, 3);
        let d = PairRef::new(DecPair::new_claimed(4u64));
        assert_eq!(d.0 as usize, addr, "the unpooled pair did not enter the class pool");
        assert_eq!(unsafe { d.claim() }, 4);
        recycle::set_enabled(was);
    }
}
