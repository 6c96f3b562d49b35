//! No `malloc` on the future path: a warm run makes **zero allocator
//! calls per future and per counted vertex**.
//!
//! This binary installs a counting `#[global_allocator]` (which is why it
//! is a binary of its own) and runs the two future shapes of the
//! benchmark — a `future_join` wavefront and a `touch_await` strand chain
//! — at W = 1, each at a full size and at half of it. Whatever a run
//! still asks the allocator for (the pool's thread, the test's own
//! buffers) does not depend on the number of futures, so the two sizes
//! must make the same number of calls up to a small constant. Before the
//! SNZI root, the out-set's first lane and the completion sweep came off
//! the allocator, the difference was about seven calls per future.
//!
//! One test function: two running side by side would count each other's
//! calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dynsnzi::prelude::*;

/// Calls that hand out memory: `alloc`, `alloc_zeroed`, `realloc`.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WIDTH: usize = 16;

/// `stages` rows of `WIDTH` join cells over a first row of plain futures,
/// folded by one touch per last-row cell. The two row buffers are sized
/// once, so the shape's own allocations do not grow with `stages`.
fn wavefront(stages: usize) -> u64 {
    let sum = Arc::new(AtomicU64::new(0));
    let out = Arc::clone(&sum);
    Runtime::new().workers(1).run(move |mut ctx| {
        let mut row: Vec<FutureHandle<u64>> = Vec::with_capacity(WIDTH);
        let mut next: Vec<FutureHandle<u64>> = Vec::with_capacity(WIDTH);
        row.extend((0..WIDTH as u64).map(|v| ctx.future(move |_| v)));
        for _ in 0..stages {
            for i in 0..WIDTH {
                let cell = ctx.future_join(&row[i], &row[(i + 1) % WIDTH], |_, a, b| a ^ (b << 1));
                next.push(cell);
            }
            std::mem::swap(&mut row, &mut next);
            next.clear();
        }
        let mut scope = ctx.into_scope();
        for cell in row {
            let out = Arc::clone(&out);
            scope.fork(move |c| {
                c.touch(&cell, move |_, v| {
                    out.fetch_add(*v, Ordering::Relaxed);
                });
            });
        }
    });
    sum.load(Ordering::Relaxed)
}

/// `links` strands in one serial chain, each awaiting its predecessor.
fn chain(links: u64) -> u64 {
    let sum = Arc::new(AtomicU64::new(0));
    let out = Arc::clone(&sum);
    Runtime::new().workers(1).run(move |mut ctx| {
        let mut prev: FutureHandle<u64> = ctx.future(|_| 1);
        for _ in 1..links {
            let f = prev.clone();
            prev = ctx.future_strand(move |c: &mut Ctx<'_, DynSnzi>| {
                StrandPoll::Done(*strand_await!(c, &f) + 1)
            });
        }
        ctx.fork_strand(move |c: &mut Ctx<'_, DynSnzi>| {
            out.store(*strand_await!(c, &prev), Ordering::Relaxed);
            StrandPoll::Done(())
        });
    });
    sum.load(Ordering::Relaxed)
}

/// What two runs of different size may differ by: the shared lists' `Vec`s
/// and the deque, which grow by doubling and only on the larger run's
/// first high-water mark.
const SLACK: u64 = 8;

/// Run `shape` warm at `full` units and at half of that; the two must
/// make the same number of allocator calls.
fn assert_flat(name: &str, futures_per_unit: u64, full: u64, shape: impl Fn(u64) -> u64) {
    let calls_of = |units: u64| {
        let before = CALLS.load(Ordering::Relaxed);
        std::hint::black_box(shape(units));
        CALLS.load(Ordering::Relaxed) - before
    };
    // Warm at the full size: the recycler's pools and every growable
    // buffer reach the high-water mark both measured runs live under.
    for _ in 0..3 {
        shape(full);
    }
    let (big, half) = (calls_of(full), calls_of(full / 2));
    println!("{name}: {big} allocator calls at {full} units, {half} at {}", full / 2);
    assert!(
        big.abs_diff(half) <= SLACK,
        "{name}: {big} allocator calls at full size against {half} at half — \
         {:.2} per extra future, where a warm future must make none",
        big.abs_diff(half) as f64 / (full / 2 * futures_per_unit) as f64
    );
}

#[test]
fn warm_futures_make_no_allocator_calls() {
    assert_eq!(chain(256), 256, "the chain computes its length");
    assert_flat("16-wide future_join wavefront", WIDTH as u64, 16, |stages| {
        wavefront(stages as usize)
    });
    assert_flat("touch_await chain", 1, 256, chain);
}
