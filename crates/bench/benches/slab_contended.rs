//! The Figure 8 shape, for the allocator under the runtime: T threads
//! each cycling acquire → release on one size class of `sched::recycle`.
//!
//! The paper's Figure 8 is what one shared fetch-and-add cell does to
//! throughput as cores are added. The slab recycler sits under every
//! `spawn`, so it is held to the same test: its fast path touches only
//! the calling thread's cache, and the per-thread price of a cycle must
//! stay flat from one thread to as many as the machine runs in parallel.
//!
//! ```text
//! cargo bench -p dynsnzi-bench --bench slab_contended             # report
//! cargo bench -p dynsnzi-bench --bench slab_contended -- --quick  # report + assert
//! ```
//!
//! With `--quick` the run fails unless the per-thread ns/op at
//! T = min(hardware threads, 4) is under 1.5× the single-thread price
//! (best run of each, so a noisy neighbour cannot fail it alone). Thread
//! counts above the hardware's are reported but time-share cores, so
//! their wall-clock ns/op says nothing about contention.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sched::recycle;

/// Acquire → release cycles per thread per sample (a few ms of work, so
/// the barrier and thread start-up stay out of the per-op price).
const CYCLES: u64 = 400_000;
/// The vertex class: what `spawn` cycles through.
const SLAB_BYTES: usize = 200;

/// One sample: `threads` threads run `CYCLES` cycles each, released
/// together; returns the mean over threads of each thread's own ns/op.
fn cycle_ns_per_op(threads: usize) -> f64 {
    let class = recycle::class_for(SLAB_BYTES, 8).expect("the vertex class is on the ladder");
    let start = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    // Warm this thread's cache so the loop is the recycled
                    // path, not the first fresh allocation.
                    let (slab, _) = recycle::acquire_or_alloc(class);
                    recycle::release(class, slab);
                    start.wait();
                    let t0 = Instant::now();
                    for _ in 0..CYCLES {
                        let (slab, _) = recycle::acquire_or_alloc(class);
                        recycle::release(class, std::hint::black_box(slab));
                    }
                    t0.elapsed().as_nanos() as f64 / CYCLES as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cycling thread")).collect()
    });
    per_thread.iter().sum::<f64>() / threads as f64
}

fn bench(c: &mut Criterion) {
    let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut g = c.benchmark_group("slab_contended");
    g.sample_size(15);
    g.warm_up_time(Duration::from_millis(100));
    g.measurement_time(Duration::from_millis(500));
    // (threads, best ns/op per thread) of every configuration that ran.
    let mut best: Vec<(usize, f64)> = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut samples = Vec::new();
        g.throughput(Throughput::Elements(threads as u64 * CYCLES));
        g.bench_with_input(BenchmarkId::new("cycle", threads), &threads, |b, &t| {
            b.iter(|| samples.push(cycle_ns_per_op(t)))
        });
        if samples.is_empty() {
            continue; // filtered out on the command line
        }
        samples.sort_by(f64::total_cmp);
        println!(
            "slab_contended/cycle/{threads}: ns/op per thread: best {:.1}, median {:.1} \
             (cores: {hardware})",
            samples[0],
            samples[samples.len() / 2]
        );
        best.push((threads, samples[0]));
    }
    g.finish();
    sched::slab::flush_this_thread();
    recycle::trim();

    if std::env::args().any(|a| a == "--quick") {
        let price = |t: usize| best.iter().find(|(threads, _)| *threads == t).map(|(_, ns)| *ns);
        // The widest swept configuration the hardware runs in parallel.
        let wide = [4, 2, 1].into_iter().find(|&t| t <= hardware).unwrap_or(1);
        if let (Some(one), Some(many)) = (price(1), price(wide)) {
            let growth = many / one;
            println!("slab_contended: T=1 {one:.1} ns, T={wide} {many:.1} ns, growth {growth:.2}x");
            assert!(
                growth < 1.5,
                "the slab fast path is contended: {one:.1} ns/op on one thread, \
                 {many:.1} ns/op per thread on {wide}"
            );
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
