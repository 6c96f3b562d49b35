//! Histogramming with `parallel_for` and a verification pass with
//! `parallel_reduce` — the library-surface counterpart of the paper's
//! parallel-loop motivation.
//!
//! ```sh
//! cargo run --release --example histogram [len] [workers]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dynsnzi::prelude::*;

const BINS: usize = 64;

fn sample(i: u64) -> usize {
    // A deterministic pseudo-random stream.
    let mut v = i.wrapping_mul(0x9E3779B97F4A7C15);
    v ^= v >> 31;
    (v as usize) % BINS
}

fn main() {
    let mut args = std::env::args().skip(1);
    let len: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8_000_000);
    let workers: usize =
        args.next().and_then(|s| s.parse().ok()).unwrap_or_else(dynsnzi::sched::num_cpus);

    let bins = Arc::new((0..BINS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
    let rt = Runtime::new().workers(workers);

    // Pass 1: histogram with a parallel for.
    let b = Arc::clone(&bins);
    let t0 = Instant::now();
    rt.run(move |ctx| {
        parallel_for(ctx, 0..len, 16_384, move |i| {
            b[sample(i)].fetch_add(1, Ordering::Relaxed);
        });
    });
    let t_hist = t0.elapsed();

    // Pass 2: verify the total with a parallel reduction.
    let out = OutCell::new();
    let o = out.clone();
    let t0 = Instant::now();
    rt.run(move |ctx| {
        parallel_reduce(
            ctx,
            0..len,
            16_384,
            |r| r.count() as u64,
            |a, b| a + b,
            move |_, total| o.set(total),
        );
    });
    let t_reduce = t0.elapsed();

    let counted: u64 = bins.iter().map(|b| b.load(Ordering::Relaxed)).sum();
    let reduced = out.take().unwrap();
    println!("len={len} workers={workers} bins={BINS}");
    println!("histogram pass: {t_hist:?}");
    println!("reduce pass   : {t_reduce:?}");
    println!("bin totals    : {counted} (reduce said {reduced})");
    assert_eq!(counted, len);
    assert_eq!(reduced, len);
    let max = bins.iter().map(|b| b.load(Ordering::Relaxed)).max().unwrap();
    let min = bins.iter().map(|b| b.load(Ordering::Relaxed)).min().unwrap();
    println!("bin spread    : min={min} max={max} (uniform-ish expected)");
}
