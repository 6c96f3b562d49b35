//! Reclamation-race battery for the block recycler.
//!
//! Recycling turns the add/finish race into an add ∥ grow ∥ finish ∥
//! recycle ∥ realloc pentagon: an out-set's blocks go to the recycler
//! when its last sharer drops it — an adder or the finisher, whoever is
//! last — while the same threads are already adding to the *next*
//! out-set, which re-allocates exactly that memory, possibly installing
//! it at the same lane index it had in its previous life. These tests
//! drive that pentagon with real threads and disjoint token ranges per
//! out-set, so any stale delivery — a token surfacing in the wrong set,
//! twice, or never — fails an exact set-equality assert. The
//! poison/generation stamps (`debug_assert`s in the retire/reset paths,
//! active in this build) vouch for the complementary property: nobody
//! writes into a block while it is free.
//!
//! The tests that claim the realloc leg is exercised read the recycler
//! gauge, so every test here holds the file-level lock (its threads race
//! each other, not the other tests). Gauge-exact accounting lives in
//! `recycle_accounting.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use outset::tree::{block_pool, TreeOutsetObj};
use outset::AddEdge;

mod common;

const BLOCK_SLOTS: u64 = outset::BLOCK_SLOTS as u64;

static LOCK: Mutex<()> = Mutex::new(());

/// The file-level lock. Dropping it flushes the test thread's block cache
/// *before* unlocking, so the next test's gauge reads see every block.
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        sched::slab::flush_this_thread();
    }
}

fn serial() -> Serial {
    Serial(LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
}

/// Blocks in the recycler, this thread's cache flushed to the shared
/// list first — where the next spawned adder's dry cache refills from.
/// Exact under the file lock once every spawned thread has flushed its
/// own caches (the pentagon's do, as the last thing they run).
fn pooled() -> usize {
    sched::slab::flush_this_thread();
    block_pool().cached_slabs()
}

/// Deliveries for one out-set: `swept` from its unique finish, `inline`
/// from bounced adds. Exactly-once means their union equals the add set.
fn assert_exactly_once(name: &str, swept: Vec<u64>, inline: Vec<u64>, expect: Vec<u64>) {
    let mut all = swept;
    all.extend(inline);
    all.sort_unstable();
    let mut expect = expect;
    expect.sort_unstable();
    assert_eq!(all, expect, "{name}: every token exactly once, none stale");
}

/// The pentagon driver: `threads` adders churn through a *sequence* of
/// out-sets with disjoint token ranges, each shared by `Arc` the way a
/// future's core is. The main thread finishes set `g` mid-race and drops
/// its clone; each adder drops its own when it moves on to set `g+1`, so
/// the last of them — whoever that is — runs the destructor that feeds
/// set `g`'s blocks to the recycler sets `g+1…` allocate from.
/// `presplit` (splits made while quiet) and `splitter` shape the
/// concurrent growth dimension: with `Some(pause)` a thread of its own
/// walks the sets in order too, splitting set `g` toward its cap
/// (`common::split_until_sealed`) until the main thread seals it, and
/// then drops its clone like an adder.
///
/// Returns a lower bound on the blocks the sets installed: a swept token
/// sat in a slot, and a block has `BLOCK_SLOTS` of them.
fn drive_pentagon(
    threads: usize,
    adds_per_set: u64,
    sets: usize,
    presplit: usize,
    splitter: Option<u32>,
    finish_frac: u64,
) -> usize {
    let outsets: Vec<Arc<TreeOutsetObj>> = (0..sets)
        .map(|_| {
            let set = TreeOutsetObj::new();
            for _ in 0..presplit {
                set.force_split();
            }
            Arc::new(set)
        })
        .collect();
    let barrier = Arc::new(Barrier::new(threads + 1 + splitter.is_some() as usize));
    let done = Arc::new(AtomicU64::new(0)); // adds completed on the current set
    let inline: Vec<Arc<Mutex<Vec<u64>>>> =
        (0..sets).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let range = |g: usize| {
        let base = g as u64 * threads as u64 * adds_per_set;
        base..base + threads as u64 * adds_per_set
    };
    let swept: Vec<Vec<u64>> = std::thread::scope(|scope| {
        for tid in 0..threads {
            let outsets = outsets.clone();
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            let inline = inline.clone();
            scope.spawn(move || {
                barrier.wait();
                // By value: this thread's clone of set `g` drops at the
                // end of its iteration.
                for (g, set) in outsets.into_iter().enumerate() {
                    let mut mine = Vec::new();
                    let base = range(g).start + tid as u64 * adds_per_set;
                    for i in 0..adds_per_set {
                        if let AddEdge::Finished(t) = set.add(base + i, tid as u64) {
                            mine.push(t);
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    inline[g].lock().unwrap().extend(mine);
                }
                // Hand back what this thread's last drops cached before
                // the scope sees it done: the thread-local destructor
                // would flush it only after the scope has returned.
                sched::slab::flush_this_thread();
            });
        }
        if let Some(pause) = splitter {
            let outsets = outsets.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for set in outsets {
                    common::split_until_sealed(&set, pause);
                }
                sched::slab::flush_this_thread();
            });
        }
        barrier.wait();
        let total = threads as u64 * adds_per_set;
        let mut all_swept = Vec::new();
        for (g, set) in outsets.into_iter().enumerate() {
            // Seal mid-race: after finish_frac% of this set's adds.
            let target = g as u64 * total + total * finish_frac / 100;
            while done.load(Ordering::Relaxed) < target {
                std::hint::spin_loop();
            }
            let mut swept = Vec::new();
            assert!(set.finish(&mut |t| swept.push(t)));
            all_swept.push(swept);
        }
        all_swept
    });
    let installed: usize = swept.iter().map(|s| s.len().div_ceil(BLOCK_SLOTS as usize)).sum();
    for (g, swept) in swept.into_iter().enumerate() {
        let inline = std::mem::take(&mut *inline[g].lock().unwrap());
        for &t in swept.iter().chain(&inline) {
            assert!(range(g).contains(&t), "token {t} leaked across out-set generations");
        }
        assert_exactly_once(&format!("set {g}"), swept, inline, range(g).collect());
    }
    installed
}

// add ∥ grow ∥ finish ∥ recycle ∥ realloc over drawn shapes: thread
// count, churn depth, how far and when the tables split, and where in the
// add stream the seal lands.
#[test]
fn pentagon_interleavings() {
    sched::rng::battery("pentagon_interleavings", 16, |rng| {
        let threads = 1 + rng.next_below(4);
        let adds = 1 + rng.next_below(299) as u64;
        let sets = 2 + rng.next_below(3);
        let presplit = rng.next_below(2);
        let splitter = [None, Some(0u32), Some(2_000)][rng.next_below(3)];
        let finish_frac = rng.next_below(100) as u64;
        let _serial = serial();
        drive_pentagon(threads, adds, sets, presplit, splitter, finish_frac);
    });
}

/// The ABA regression shape, deterministically: a 1-lane out-set's block
/// is recycled and then re-installed at the *same* lane index of a
/// successor out-set, over many generations, while racing adders hammer
/// each. A block that changed owner while an adder of its previous life
/// could still CAS on it would cross-link two out-sets; the drop between
/// lives is what rules that out, and every generation must deliver
/// exactly once.
#[test]
fn aba_recycled_block_reinstalled_at_same_lane() {
    const ROUNDS: usize = if cfg!(debug_assertions) { 60 } else { 200 };
    const THREADS: usize = 3;
    const ADDS: u64 = 2 * BLOCK_SLOTS + 7; // > 2 blocks per generation
    let _serial = serial();
    for round in 0..ROUNDS {
        // Every adder keys 0, which hashes to lane 0 whatever the table,
        // so lane 0 is where every recycled block is re-installed each
        // round.
        let set = TreeOutsetObj::new();
        let barrier = Barrier::new(THREADS + 1);
        let inline = Mutex::new(Vec::new());
        let swept = std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let set = &set;
                let barrier = &barrier;
                let inline = &inline;
                scope.spawn(move || {
                    barrier.wait();
                    let mut mine = Vec::new();
                    let base = tid as u64 * ADDS;
                    for i in 0..ADDS {
                        // key 0: every adder fights over lane 0, the
                        // same index a recycled block gets re-installed
                        // at in the next round.
                        if let AddEdge::Finished(t) = set.add(base + i, 0) {
                            mine.push(t);
                        }
                    }
                    inline.lock().unwrap().extend(mine);
                    // The blocks that lost an install race sit in this
                    // thread's cache: flush them now, not in the TLS
                    // destructor after `scope` returns, which would race
                    // the next test's gauge reads.
                    sched::slab::flush_this_thread();
                });
            }
            barrier.wait();
            // Seal immediately: maximize seal ∥ install ∥ reuse overlap.
            let mut swept = Vec::new();
            assert!(set.finish(&mut |t| swept.push(t)));
            swept
        });
        // The drop between lives; flushed to the shared list, where the
        // next round's adder threads (fresh, caches dry) refill from, so
        // their lane-0 installs reuse this round's lane-0 blocks.
        drop(set);
        sched::slab::flush_this_thread();
        let inline = inline.into_inner().unwrap();
        assert_exactly_once(
            &format!("aba round {round}"),
            swept,
            inline,
            (0..THREADS as u64 * ADDS).collect(),
        );
    }
}

/// Cross-generation sweep determinism under recycling: tokens are
/// claimed through several lane-table generations (forced splits) with
/// the blocks themselves coming from the recycler, and the single sweep
/// must deliver every token exactly once — the lane-sharing invariant
/// must survive blocks that have lived previous lives.
#[test]
fn cross_generation_sweep_is_deterministic_with_reused_blocks() {
    let _serial = serial();
    // Warm the recycler with one full out-set's worth of blocks.
    let warm = TreeOutsetObj::new();
    for t in 0..(8 * BLOCK_SLOTS) {
        let _ = warm.add(t, t);
    }
    warm.finish(&mut |_| {});
    drop(warm);

    for round in 0..10u64 {
        let warm_blocks = block_pool().cached_slabs();
        assert!(warm_blocks >= 8, "round {round}: the previous life's blocks are pooled");
        let set = TreeOutsetObj::new();
        let base = 10_000 * (round + 1);
        let mut expect = Vec::new();
        let mut token = base;
        // Up to four generations, as the cap allows (at least three).
        let splits = TreeOutsetObj::max_lanes().trailing_zeros().min(3);
        for generation in 0..=splits {
            for k in 0..(2 * BLOCK_SLOTS) {
                assert_eq!(set.add(token, k), AddEdge::Registered);
                expect.push(token);
                token += 1;
            }
            if generation < splits {
                assert!(set.force_split());
            }
        }
        assert_eq!(set.lane_count(), 1 << splits);
        let blocks = set.block_count();
        assert!(blocks >= expect.len() / BLOCK_SLOTS as usize);
        assert_eq!(
            block_pool().cached_slabs(),
            warm_blocks.saturating_sub(blocks),
            "round {round}: the recycler is drained before anything is allocated"
        );
        let mut got = Vec::new();
        assert!(set.finish(&mut |t| got.push(t)));
        got.sort_unstable();
        assert_eq!(got, expect, "round {round}: all generations, exactly once, nothing stale");
        assert_eq!(set.block_count(), blocks, "the sweep unlinks nothing");
    }
}

/// Poison integrity across threads: two out-sets alternate lives on the
/// same recycled blocks while adders race, with token ranges chosen so
/// any cross-life slot residue would surface as an out-of-range or
/// duplicated token. (The generation-stamp asserts fire inside
/// retire/reset in this build; this test gives them traffic under
/// contention rather than single-threaded reuse.)
#[test]
fn no_stale_tokens_across_reuse_under_contention() {
    const ROUNDS: usize = if cfg!(debug_assertions) { 40 } else { 120 };
    const THREADS: usize = 4;
    const ADDS: u64 = 96;
    let _serial = serial();
    let before = pooled();
    let mut installed = 0;
    for round in 0..ROUNDS as u64 {
        // Every other round, a splitter races the adders too.
        let splitter = (round % 2 == 1).then_some(1_000);
        installed += drive_pentagon(THREADS, ADDS, 2, 0, splitter, (round * 13) % 100);
    }
    // Every set is dropped and every thread has flushed its caches, so what
    // the pool gained is what had to be allocated fresh; the rest of
    // what was installed lived a previous life.
    let fresh = pooled() - before;
    assert!(installed > fresh, "reuse must be real: {installed} installed, {fresh} fresh");
}
