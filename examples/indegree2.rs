//! The paper's indegree2 benchmark (Figure 7): nested finish blocks, each
//! synchronising exactly two strands. Stresses per-counter setup cost —
//! the fixed-depth baseline must allocate a whole SNZI tree per level.
//!
//! ```sh
//! cargo run --release --example indegree2 [n] [workers]
//! ```

use std::time::Duration;

use dynsnzi::prelude::*;
use dynsnzi::spdag::run_dag;

fn indegree2_rec<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64) {
    if n >= 2 {
        // finish { async rec(n/2); async rec(n/2) }
        ctx.chain(
            move |c| {
                c.spawn(move |c2| indegree2_rec(c2, n / 2), move |c2| indegree2_rec(c2, n / 2));
            },
            move |_| {},
        );
    }
}

fn time_it<C: CounterFamily>(cfg: C::Config, workers: usize, n: u64) -> Duration {
    run_dag::<C, _>(cfg, workers, move |ctx| indegree2_rec(ctx, n)).elapsed
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1 << 15);
    let workers: usize =
        args.next().and_then(|s| s.parse().ok()).unwrap_or_else(dynsnzi::sched::num_cpus);

    println!("indegree2 n={n}, workers={workers}; ~{} finish blocks per run\n", n - 1);

    let t = time_it::<FetchAdd>((), workers, n);
    println!("fetch-add      : {t:?}");

    for depth in [2, 4] {
        let t = time_it::<FixedDepth>(FixedConfig { depth }, workers, n);
        println!(
            "snzi depth={depth}  : {t:?}   ({} nodes allocated per finish block)",
            (1u32 << (depth + 1)) - 1
        );
    }

    let t = time_it::<DynSnzi>(DynConfig::with_threshold(25 * workers as u64), workers, n);
    println!("incounter      : {t:?}");
}
