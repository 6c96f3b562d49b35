//! A realistic nested-parallel workload: divide-and-conquer map-reduce.
//!
//! Computes `sum(f(x))` over a large vector by recursive halving — the
//! canonical parallel-for pattern whose join points are exactly what the
//! in-counter makes cheap. Every split is a `spawn`, every join a `chain`,
//! and the reduction result flows back through atomic cells.
//!
//! ```sh
//! cargo run --release --example map_reduce [len] [workers]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dynsnzi::prelude::*;

/// The "map" being applied: a deliberately non-trivial integer hash so the
/// work per element is measurable.
fn f(x: u64) -> u64 {
    let mut v = x.wrapping_mul(0x9E3779B97F4A7C15);
    v ^= v >> 32;
    v = v.wrapping_mul(0xD6E8FEB86659FD93);
    v ^ (v >> 29)
}

fn map_reduce<C: CounterFamily>(
    ctx: Ctx<'_, C>,
    data: Arc<Vec<u64>>,
    lo: usize,
    hi: usize,
    dest: Arc<AtomicU64>,
) {
    const GRAIN: usize = 4096;
    if hi - lo <= GRAIN {
        let mut acc = 0u64;
        for &x in &data[lo..hi] {
            acc = acc.wrapping_add(f(x));
        }
        dest.fetch_add(acc, Ordering::Relaxed);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let left = Arc::new(AtomicU64::new(0));
    let right = Arc::new(AtomicU64::new(0));
    let (l2, r2) = (Arc::clone(&left), Arc::clone(&right));
    let (dl, dr) = (Arc::clone(&data), Arc::clone(&data));
    ctx.chain(
        move |c| {
            c.spawn(
                move |c2| map_reduce(c2, dl, lo, mid, l2),
                move |c2| map_reduce(c2, dr, mid, hi, r2),
            );
        },
        move |_| {
            dest.fetch_add(
                left.load(Ordering::Relaxed).wrapping_add(right.load(Ordering::Relaxed)),
                Ordering::Relaxed,
            );
        },
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let len: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4_000_000);
    let workers: usize =
        args.next().and_then(|s| s.parse().ok()).unwrap_or_else(dynsnzi::sched::num_cpus);

    let data = Arc::new((0..len as u64).collect::<Vec<u64>>());

    // Sequential reference.
    let t0 = Instant::now();
    let expected: u64 = data.iter().fold(0u64, |acc, &x| acc.wrapping_add(f(x)));
    let seq = t0.elapsed();

    // Parallel run on the in-counter runtime.
    let result = Arc::new(AtomicU64::new(0));
    let (d, r) = (Arc::clone(&data), Arc::clone(&result));
    let t0 = Instant::now();
    Runtime::new().workers(workers).run(move |ctx| map_reduce(ctx, d, 0, len, r));
    let par = t0.elapsed();

    let got = result.load(Ordering::Relaxed);
    println!("len={len} workers={workers}");
    println!("sequential: {seq:?}");
    println!("parallel  : {par:?}  (speedup {:.2}x)", seq.as_secs_f64() / par.as_secs_f64());
    assert_eq!(got, expected, "parallel and sequential sums must agree");
    println!("checksum  : {got:#x} ✓");
}
