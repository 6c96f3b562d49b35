//! Figure 8's question asked of the allocator under every `spawn`: the
//! recycler's fast path touches only the calling thread's cache, so the
//! per-thread price of an `alloc` → `free` cycle through the typed pair the
//! runtime uses (`sched::recycle::{alloc, free}`) on T = min(hardware
//! threads, 4) threads must stay under 1.5× its one-thread price — the best
//! of 60 alternating samples of each, so a spell of the host prices both
//! alike and a noisy neighbour cannot fail it alone.
//!
//! A timing bound, so it is `#[ignore]`d and kept out of the deterministic
//! suite; run it in release:
//!
//! ```text
//! cargo test --release -p sched --test slab_flat -- --ignored
//! ```

use std::mem::MaybeUninit;
use std::sync::Barrier;
use std::time::Instant;

/// One sample: `threads` threads, released together, each cycling a
/// vertex-sized slab; the mean over threads of each one's ns per cycle.
fn slab_cycle_ns(threads: usize) -> f64 {
    /// Cycles per thread: a few ms, so the barrier and the thread's start
    /// stay out of the per-cycle price.
    const CYCLES: u64 = 400_000;
    /// The 200-byte class `spawn` cycles its vertices through.
    type Slab = MaybeUninit<[u64; 25]>;
    let cycle = || {
        let (slab, _) = sched::recycle::alloc(Slab::uninit);
        // SAFETY: just born by `alloc`, owned here, not used again.
        unsafe { sched::recycle::free(std::hint::black_box(slab)) };
    };
    let start = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    // Warm this thread's cache: the loop then times the
                    // recycled path, not one fresh allocation.
                    cycle();
                    start.wait();
                    let t0 = Instant::now();
                    for _ in 0..CYCLES {
                        cycle();
                    }
                    t0.elapsed().as_nanos() as f64 / CYCLES as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cycling thread")).collect()
    });
    per_thread.iter().sum::<f64>() / threads as f64
}

#[test]
#[ignore = "a timing bound: run in release with `--ignored`"]
fn a_recycler_cycle_costs_each_thread_what_it_costs_one() {
    const SAMPLES: usize = 60;
    let wide = sched::num_cpus().min(4);
    let (mut one, mut many) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        one = one.min(slab_cycle_ns(1));
        many = many.min(slab_cycle_ns(wide));
    }
    assert!(
        many < 1.5 * one,
        "recycler cycle {one:.1} ns on one thread, {many:.1} ns per thread on T={wide}: \
         growth {:.2}x, not < 1.5x (best of {SAMPLES} each)",
        many / one
    );
}
