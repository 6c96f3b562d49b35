//! The paper's running example (Figure 4): parallel Fibonacci.
//!
//! Each call nests a chain (the join point) around a spawn (the two
//! recursive calls) — exactly the `fib` pseudocode of the paper, with the
//! result cells as atomics instead of raw allocations.
//!
//! ```sh
//! cargo run --release --example fib [n] [workers]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dynsnzi::prelude::*;

fn fib_seq(n: u64) -> u64 {
    if n <= 1 {
        n
    } else {
        fib_seq(n - 1) + fib_seq(n - 2)
    }
}

fn fib<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64, dest: Arc<AtomicU64>) {
    // Granularity control: below the cutoff, sequential is faster than
    // spawning — the same technique any Cilk-style program uses.
    const CUTOFF: u64 = 12;
    if n <= CUTOFF {
        dest.store(fib_seq(n), Ordering::Relaxed);
        return;
    }
    let res1 = Arc::new(AtomicU64::new(0));
    let res2 = Arc::new(AtomicU64::new(0));
    let (a1, a2) = (Arc::clone(&res1), Arc::clone(&res2));
    ctx.chain(
        move |c| {
            c.spawn(move |c2| fib(c2, n - 1, a1), move |c2| fib(c2, n - 2, a2));
        },
        move |_| {
            dest.store(
                res1.load(Ordering::Relaxed) + res2.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        },
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(30);
    let workers: usize =
        args.next().and_then(|s| s.parse().ok()).unwrap_or_else(dynsnzi::sched::num_cpus);

    let result = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&result);
    let t0 = Instant::now();
    let stats = Runtime::new().workers(workers).run(move |ctx| fib(ctx, n, r));
    let elapsed = t0.elapsed();

    let value = result.load(Ordering::Relaxed);
    println!("fib({n}) = {value}   [{workers} workers, {elapsed:?}]");
    println!("dag vertices: {}   steals: {}", stats.pool.tasks, stats.pool.steals);
    assert_eq!(value, fib_seq(n));
}
