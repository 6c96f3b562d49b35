//! The paper's fanin benchmark (Figure 6) as a runnable comparison: `n`
//! strands synchronising on a single finish block, timed under all three
//! counter algorithms.
//!
//! ```sh
//! cargo run --release --example fanin [n] [workers]
//! ```

use std::time::Duration;

use dynsnzi::prelude::*;
use dynsnzi::spdag::run_dag;

fn fanin_rec<C: CounterFamily>(ctx: Ctx<'_, C>, n: u64) {
    if n >= 2 {
        ctx.spawn(move |c| fanin_rec(c, n / 2), move |c| fanin_rec(c, n / 2));
    }
}

fn time_fanin<C: CounterFamily>(cfg: C::Config, workers: usize, n: u64) -> Duration {
    run_dag::<C, _>(cfg, workers, move |ctx| fanin_rec(ctx, n)).elapsed
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1 << 16);
    let workers: usize =
        args.next().and_then(|s| s.parse().ok()).unwrap_or_else(dynsnzi::sched::num_cpus);

    println!("fanin n={n}, workers={workers}; ~{} counter ops per run\n", 2 * n);

    let t = time_fanin::<FetchAdd>((), workers, n);
    println!("fetch-add      : {t:?}");

    for depth in [2, 4, 8] {
        let t = time_fanin::<FixedDepth>(FixedConfig { depth }, workers, n);
        println!("snzi depth={depth}  : {t:?}");
    }

    // Growth threshold: the paper's 25·cores on its 40-core machine is an
    // absolute 1000, which is also the plateau on small machines (fig11).
    let threshold = (25 * workers as u64).max(1000);
    let t = time_fanin::<DynSnzi>(DynConfig::with_threshold(threshold), workers, n);
    println!("incounter      : {t:?}   (threshold {threshold})");
}
