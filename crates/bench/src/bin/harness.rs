//! The evaluation harness: regenerates every figure of the paper.
//!
//! ```text
//! harness <fig8|...|fig15|outset|growth|all|obs|trace> [flags]
//!
//! `obs` and `trace` are telemetry tools (never part of `all`): `obs`
//! prints one unified registry snapshot of a fanout-broadcast run, and
//! `trace` records the run and writes Chrome Trace Event Format JSON to
//! `--out` (see `docs/observability.md`). The bounds on those counters —
//! the out-set's contention bound, the conservation ledgers, the
//! footprints — are `cargo test` batteries, and the fault-injection
//! batteries are the root package's tests (see `docs/robustness.md`).
//!
//! flags:
//!   --n <N>            benchmark size (default: 131072; paper: 8388608)
//!   --runs <R>         repetitions per configuration, median reported (default 3)
//!   --max-workers <W>  highest worker count swept (default: 2 × hardware threads)
//!   --pairs <P>        arrive/depart pairs per thread in fig12 (default 200000)
//!   --grow-adds <A>    adds per thread in the growth-curve study (default n/8)
//!   --outdir <DIR>     where results/*.txt go (default ./results)
//!   --paper            use the paper's n = 8M
//!   --quick            tiny sizes for a smoke run
//!   --out <FILE>       (trace) trace destination (default results/trace.json)
//! ```
//!
//! Each figure prints a human-readable series table (same axes as the
//! paper) and appends artifact-format records (Appendix D.5) to
//! `results/figN.txt`.

use std::path::PathBuf;
use std::time::Duration;

use dynsnzi_bench::report::{fmt_throughput, print_row, Record, Reporter};
use dynsnzi_bench::sweep::{median_duration, run_repeated, throughput_per_core, MeasureOpts};
use dynsnzi_bench::workloads::{
    calibrate_dummy_unit_ns, fanin_ops, fanout_broadcast, fanout_broadcast_ops,
    fanout_broadcast_probed, indegree2_ops, outset_footprint_report, pipeline_stages_ops,
    raw_counter_bench, raw_growth_bench, raw_outset_bench, GrowthStats, RawCounter, RawOutset,
};
use dynsnzi_bench::Algo;
use incounter::{DynConfig, DynSnzi};

struct Opts {
    figures: Vec<String>,
    measure: MeasureOpts,
    pairs: u64,
    grow_adds: Option<u64>,
    outdir: PathBuf,
    trace_out: PathBuf,
}

fn parse_args() -> Opts {
    let mut measure = MeasureOpts::auto();
    let mut figures = Vec::new();
    let mut pairs = 200_000u64;
    let mut grow_adds = None;
    let mut outdir = PathBuf::from("results");
    let mut trace_out = PathBuf::from("results/trace.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => measure.n = args.next().expect("--n N").parse().expect("numeric --n"),
            "--runs" => {
                measure.runs = args.next().expect("--runs R").parse().expect("numeric --runs")
            }
            "--max-workers" => {
                measure.max_workers =
                    args.next().expect("--max-workers W").parse().expect("numeric")
            }
            "--pairs" => pairs = args.next().expect("--pairs P").parse().expect("numeric"),
            "--grow-adds" => {
                grow_adds = Some(args.next().expect("--grow-adds A").parse().expect("numeric"))
            }
            "--outdir" => outdir = PathBuf::from(args.next().expect("--outdir DIR")),
            "--out" => trace_out = PathBuf::from(args.next().expect("--out FILE")),
            "--paper" => measure = measure.paper_scale(),
            "--quick" => {
                measure.n = 1 << 12;
                measure.runs = 1;
                pairs = 20_000;
            }
            "--help" | "-h" => {
                println!("see module docs: harness <fig8..fig15|all> [--n N] [--runs R] ...");
                std::process::exit(0);
            }
            fig if fig.starts_with("fig")
                || matches!(fig, "all" | "outset" | "growth" | "obs" | "trace") =>
            {
                figures.push(fig.to_string())
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }
    Opts { figures, measure, pairs, grow_adds, outdir, trace_out }
}

fn main() {
    let opts = parse_args();
    let cores = sched::num_cpus();
    println!("# dynsnzi evaluation harness");
    println!(
        "# cores={cores} max_workers={} n={} runs={} dummy_unit≈{:.2}ns",
        opts.measure.max_workers,
        opts.measure.n,
        opts.measure.runs,
        calibrate_dummy_unit_ns()
    );
    let all = opts.figures.iter().any(|f| f == "all");
    let want = |f: &str| all || opts.figures.iter().any(|g| g == f);
    if want("fig8") {
        fig8(&opts);
    }
    if want("fig9") {
        fig9(&opts);
    }
    if want("fig10") {
        fig10(&opts);
    }
    if want("fig11") {
        fig11(&opts);
    }
    if want("fig12") {
        fig12(&opts);
    }
    if want("fig13") {
        fig13(&opts);
    }
    if want("fig14") {
        fig14(&opts);
    }
    if want("fig15") {
        fig15(&opts);
    }
    if want("outset") {
        outset_bench(&opts);
    }
    if want("growth") {
        growth_study(&opts);
    }
    // The telemetry subcommands run only when named: `all` reproduces
    // the paper's figures, which these are not.
    let explicit = |f: &str| opts.figures.iter().any(|g| g == f);
    if explicit("obs") {
        obs_cmd(&opts);
    }
    if explicit("trace") {
        trace_cmd(&opts);
    }
}

/// `harness obs`: run the fanout broadcast with the whole runtime's
/// telemetry registry live, print the unified before/after snapshot
/// (counters from snzi, incounter, outset, sched, and spdag in one
/// table). The bounds on those counters are tests (`docs/observability.md`).
fn obs_cmd(opts: &Opts) {
    let w = opts.measure.max_workers;
    let n = (opts.measure.n / 4).max(1 << 10);
    println!("\n## Telemetry snapshot — fanout_broadcast, n={n}, workers={w}");
    let before = obs::Snapshot::take();
    let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
    let (elapsed, growth) = fanout_broadcast_probed::<DynSnzi>(cfg, w, n);
    let d = obs::Snapshot::take().diff(&before);
    print!("{}", d.render());
    println!(
        "# wall clock {:.6}s; hub converged to {} lanes after {} splits",
        elapsed.as_secs_f64(),
        growth.final_lanes,
        growth.splits
    );
}

/// `harness trace`: record one fanout broadcast with event tracing
/// enabled and write it as Chrome Trace Event Format JSON (loadable in
/// `chrome://tracing` or Perfetto).
fn trace_cmd(opts: &Opts) {
    let w = opts.measure.max_workers;
    let n = (opts.measure.n / 4).max(1 << 10);
    println!("\n## Event trace — fanout_broadcast, n={n}, workers={w}");
    obs::trace::enable();
    let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
    let elapsed = fanout_broadcast::<DynSnzi, outset::TreeOutset>(cfg, w, n);
    obs::trace::disable();
    let snap = obs::trace::take();
    if let Some(dir) = opts.trace_out.parent() {
        if !dir.as_os_str().is_empty() {
            ensure_dir(dir);
        }
    }
    write_text(&opts.trace_out, &snap.to_chrome_json());
    println!(
        "# {} events over {:.6}s -> {}",
        snap.len(),
        elapsed.as_secs_f64(),
        opts.trace_out.display()
    );
    if !obs::enabled() {
        println!("(telemetry compiled out — the trace is empty)");
    }
}

/// Median-of-runs with one discarded warm-up run.
fn measure(runs: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let _warmup = f();
    median_duration(&run_repeated(runs, &mut f))
}

/// [`measure`], capturing the growth observables of the *last* run
/// alongside the median wall clock (stats from "the median run" would be
/// ill-defined; growth converges to similar shapes run over run).
fn measure_growth(runs: usize, mut f: impl FnMut() -> GrowthStats) -> (Duration, GrowthStats) {
    let mut stats = None;
    let elapsed = measure(runs, || {
        let s = f();
        let e = s.elapsed;
        stats = Some(s);
        e
    });
    (elapsed, stats.expect("measure ran at least once"))
}

// ---------------------------------------------------------------------------
// What every table and record is made of, written once: a figure below is
// its axes and its cell.

/// One table row: its label, then `cell(x)` for every `x` of the axis.
fn print_series<X>(label: impl ToString, axis: &[X], cell: impl FnMut(&X) -> String) {
    let mut row = vec![label.to_string()];
    row.extend(axis.iter().map(cell));
    print_row(&row);
}

/// A table's header row: the corner label, then the axis itself.
fn print_header(corner: &str, axis: &[impl ToString]) {
    print_series(corner, axis, |x| x.to_string());
}

/// The two outputs every timed record carries — the wall clock and the
/// paper's y-axis, operations per second per core — and the latter
/// formatted as the table's cell.
fn timed(r: &mut Record, ops: u64, elapsed: Duration, workers: usize) -> String {
    let per_core = throughput_per_core(ops, elapsed, workers);
    r.output("exectime", format!("{:.6}", elapsed.as_secs_f64()))
        .output("throughput_per_core", format!("{per_core:.1}"));
    fmt_throughput(per_core)
}

/// The cell of the speedup figures: `base` over `t`.
fn fmt_speedup(base: Duration, t: Duration) -> String {
    format!("{:.2}", base.as_secs_f64() / t.as_secs_f64())
}

/// A row's algorithm at `workers`: a fixed one, or (`None`) the in-counter,
/// whose threshold tracks the worker count.
fn algo_at(row: Option<Algo>, workers: usize) -> Algo {
    row.unwrap_or_else(|| Algo::incounter_default(workers))
}

fn algo_label(row: Option<Algo>) -> String {
    row.map_or("incounter".to_string(), |algo| algo.name())
}

/// Measure one fanin configuration and record it: the median wall clock
/// and the throughput cell.
fn fanin(
    rep: &mut Reporter,
    runs: usize,
    algo: Algo,
    workers: usize,
    n: u64,
    leaf_work: u64,
) -> (Duration, String) {
    let elapsed = measure(runs, || algo.run_fanin(workers, n, leaf_work));
    let mut r = Record::new("fanin", algo.family());
    r.input("algo_full", algo.name())
        .input("proc", workers)
        .input("n", n)
        .input("leaf_work", leaf_work);
    if let Algo::InCounter { threshold, pregrow } = algo {
        r.input("threshold", threshold).input("pregrow", pregrow);
    }
    if let Algo::Fixed { depth } = algo {
        r.input("depth", depth);
    }
    let cell = timed(&mut r, fanin_ops(n), elapsed, workers);
    rep.record(&r);
    (elapsed, cell)
}

/// Figure 8: fanin throughput per core vs worker count, all algorithms.
fn fig8(opts: &Opts) {
    let (n, runs) = (opts.measure.n, opts.measure.runs);
    println!("\n## Figure 8 — fanin, n={n}, throughput/core vs workers (higher is better)");
    let mut rep = open_reporter(&opts.outdir, "fig8");
    let workers = opts.measure.worker_counts();
    let fixed = (1..=9).map(|depth| Algo::Fixed { depth });
    print_header("algo \\ workers", &workers);
    for row in [Algo::FetchAdd].into_iter().chain(fixed).map(Some).chain([None]) {
        print_series(algo_label(row), &workers, |&w| {
            fanin(&mut rep, runs, algo_at(row, w), w, n, 0).1
        });
    }
    println!("# wrote {}", rep.path().display());
}

/// Figure 9: size invariance — in-counter throughput/core vs n.
fn fig9(opts: &Opts) {
    let (n, runs) = (opts.measure.n, opts.measure.runs);
    println!("\n## Figure 9 — fanin size-invariance: in-counter throughput/core vs n");
    let mut rep = open_reporter(&opts.outdir, "fig9");
    let mut sizes = Vec::new();
    let mut size = 1u64 << 12;
    while size <= n {
        sizes.push(size);
        size *= 4;
    }
    if sizes.last() != Some(&n) {
        sizes.push(n);
    }
    print_header("workers \\ n", &sizes);
    for w in opts.measure.worker_counts() {
        let algo = Algo::incounter_default(w);
        print_series(format!("incounter w={w}"), &sizes, |&size| {
            fanin(&mut rep, runs, algo, w, size, 0).1
        });
    }
    // Reference: single-core fetch-and-add (the paper's "within factor 2").
    print_series("fetch-add w=1", &[n], |&n| fanin(&mut rep, runs, Algo::FetchAdd, 1, n, 0).1);
    println!("# wrote {}", rep.path().display());
}

/// Figure 10: indegree2 throughput/core vs worker count.
fn fig10(opts: &Opts) {
    let n = (opts.measure.n / 2).max(1024);
    println!("\n## Figure 10 — indegree2, n={n}, throughput/core vs workers");
    let mut rep = open_reporter(&opts.outdir, "fig10");
    let workers = opts.measure.worker_counts();
    print_header("algo \\ workers", &workers);
    let fixed = [Algo::FetchAdd, Algo::Fixed { depth: 2 }, Algo::Fixed { depth: 4 }];
    for row in fixed.into_iter().map(Some).chain([None]) {
        print_series(algo_label(row), &workers, |&w| {
            let algo = algo_at(row, w);
            let t = measure(opts.measure.runs, || algo.run_indegree2(w, n));
            let mut r = Record::new("indegree2", algo.family());
            r.input("algo_full", algo.name()).input("proc", w).input("n", n);
            let cell = timed(&mut r, indegree2_ops(n), t, w);
            rep.record(&r);
            cell
        });
    }
    println!("# wrote {}", rep.path().display());
}

/// Figure 11: the threshold study (p = 1/threshold) at max workers.
fn fig11(opts: &Opts) {
    let (w, n) = (opts.measure.max_workers, opts.measure.n);
    println!("\n## Figure 11 — fanin threshold study at {w} workers, n={n}");
    let mut rep = open_reporter(&opts.outdir, "fig11");
    print_header("threshold", &["ops/s/core"]);
    for threshold in [10u64, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 1_000_000] {
        let algo = Algo::incounter_threshold(threshold);
        print_series(threshold, &[w], |&w| fanin(&mut rep, opts.measure.runs, algo, w, n, 0).1);
    }
    println!("# wrote {}", rep.path().display());
}

/// Figure 12: SNZI reproduction study — raw counter ops, no dag.
fn fig12(opts: &Opts) {
    let pairs = opts.pairs;
    println!(
        "\n## Figure 12 — raw counter microbenchmark ({pairs} arrive/depart pairs per thread)"
    );
    let mut rep = open_reporter(&opts.outdir, "fig12");
    let threads = opts.measure.worker_counts();
    print_header("counter \\ threads", &threads);
    let snzi = (1..=5).map(|d| (RawCounter::FixedDepth { depth: d }, format!("snzi-depth-{d}")));
    for (kind, name) in [(RawCounter::FetchAdd, "fetch-add".to_string())].into_iter().chain(snzi) {
        print_series(&name, &threads, |&t| {
            let elapsed = measure(opts.measure.runs, || raw_counter_bench(kind, t, pairs));
            let mut r = Record::new("raw-counter", &name);
            r.input("proc", t).input("pairs", pairs);
            let cell = timed(&mut r, 2 * t as u64 * pairs, elapsed, t);
            rep.record(&r);
            cell
        });
    }
    println!("# wrote {}", rep.path().display());
}

/// Figure 13 substitution: node-placement policy A/B (first-touch growth
/// vs eager remote pre-placement). The paper's NUMA study was a null
/// result; the check here is that the two policies coincide too.
fn fig13(opts: &Opts) {
    let (n, runs) = (opts.measure.n, opts.measure.runs);
    println!("\n## Figure 13 (substituted) — node placement policy A/B, fanin n={n}");
    let mut rep = open_reporter(&opts.outdir, "fig13");
    let workers = opts.measure.worker_counts();
    print_header("policy \\ workers", &workers);
    for (policy, pregrow) in [("first-touch", 0u32), ("pre-placed", 2)] {
        print_series(policy, &workers, |&w| {
            let algo = Algo::InCounter { threshold: 25 * w as u64, pregrow };
            fanin(&mut rep, runs, algo, w, n, 0).1
        });
    }
    println!("# wrote {}", rep.path().display());
}

/// Out-set study: the tree-of-blocks broadcast against the `Mutex<Vec>`
/// baseline, on (a) the raw add path under thread contention, (b) the
/// dag-level fanout broadcast, and (c) the pipeline wavefront.
fn outset_bench(opts: &Opts) {
    let n = (opts.measure.n / 4).max(1 << 10);
    let runs = opts.measure.runs;
    let mut rep = open_reporter(&opts.outdir, "outset");
    let workers = opts.measure.worker_counts();
    let kinds = [RawOutset::Tree, RawOutset::Mutex];
    let cfg = |w| DynConfig::with_threshold(Algo::default_threshold(w));

    println!("\n## Outset (raw) — adds/s/core vs threads, one shared out-set");
    print_header("outset \\ threads", &workers);
    let raw_adds = (opts.measure.n / 8).max(1 << 12);
    for kind in kinds {
        print_series(kind.name(), &workers, |&t| {
            let elapsed = measure(runs, || raw_outset_bench(kind, t, raw_adds));
            let mut r = Record::new("raw-outset", kind.name());
            r.input("proc", t).input("adds", raw_adds);
            let cell = timed(&mut r, t as u64 * raw_adds, elapsed, t);
            rep.record(&r);
            cell
        });
    }

    println!("\n## Outset (dag) — fanout_broadcast, n={n}, ops/s/core vs workers");
    print_header("outset \\ workers", &workers);
    for kind in kinds {
        print_series(kind.name(), &workers, |&w| {
            let t = measure(runs, || kind.run_fanout(cfg(w), w, n));
            let mut r = Record::new("fanout-broadcast", kind.name());
            r.input("proc", w).input("n", n);
            let cell = timed(&mut r, fanout_broadcast_ops(n), t, w);
            rep.record(&r);
            cell
        });
    }

    let (stages, width) = (32u64, (n / 64).max(16));
    println!("\n## Outset (dag) — pipeline_stages {stages}×{width}, ops/s/core vs workers");
    print_header("outset \\ workers", &workers);
    for kind in kinds {
        print_series(kind.name(), &workers, |&w| {
            let t = measure(runs, || kind.run_pipeline(cfg(w), w, stages, width));
            let mut r = Record::new("pipeline-stages", kind.name());
            r.input("proc", w).input("stages", stages).input("width", width);
            let cell = timed(&mut r, pipeline_stages_ops(stages, width), t, w);
            rep.record(&r);
            cell
        });
    }
    println!("# wrote {}", rep.path().display());
}

/// The observables every growth record and growth row carries: converged
/// lane count, splits, lost installation races.
fn growth_columns(r: &mut Record, stats: &GrowthStats) -> [String; 3] {
    r.output("final_lanes", stats.final_lanes)
        .output("splits", stats.splits)
        .output("install_races", stats.install_races);
    [stats.final_lanes, stats.splits, stats.install_races].map(|c| c.to_string())
}

/// Growth-curve study of the adaptive lane table (the validation half of
/// `docs/outset-contention.md`): (a) growth curve vs thread count —
/// adds-until-first-split, converged lane count, split/race bookkeeping;
/// (b) the dag-level fanout broadcast with the hub's out-set probed; (c)
/// the single-dependent footprint.
fn growth_study(opts: &Opts) {
    let adds = opts.grow_adds.unwrap_or((opts.measure.n / 8).max(1 << 12));
    let runs = opts.measure.runs;
    let mut rep = open_reporter(&opts.outdir, "growth");
    let workers = opts.measure.worker_counts();

    println!("\n## Growth (raw) — adaptive outset from 1 lane, {adds} adds/thread, p=1/2");
    print_header(
        "threads",
        &["Madds/s/core", "final lanes", "splits", "lost CASes", "adds@1st split"],
    );
    for &t in &workers {
        let (elapsed, stats) = measure_growth(runs, || raw_growth_bench(t, adds));
        let first_split = stats.adds_to_first_split.map_or("-".to_string(), |a| a.to_string());
        let mut r = Record::new("growth-curve", "outset-tree-adaptive");
        r.input("proc", t).input("adds", adds);
        let mut row = vec![t.to_string(), timed(&mut r, t as u64 * adds, elapsed, t)];
        row.extend(growth_columns(&mut r, &stats));
        r.output("adds_to_first_split", &first_split);
        row.push(first_split);
        rep.record(&r);
        print_row(&row);
    }

    let n = (opts.measure.n / 4).max(1 << 10);
    println!("\n## Growth (dag) — fanout_broadcast hub probe, n={n}");
    print_header("workers", &["ops/s/core", "hub lanes", "splits", "lost CASes"]);
    for &w in &workers {
        let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
        let (elapsed, stats) =
            measure_growth(runs, || fanout_broadcast_probed::<DynSnzi>(cfg, w, n).1);
        let mut r = Record::new("fanout-broadcast-growth", "outset-tree-adaptive");
        r.input("proc", w).input("n", n);
        let mut row = vec![w.to_string(), timed(&mut r, fanout_broadcast_ops(n), elapsed, w)];
        row.extend(growth_columns(&mut r, &stats));
        rep.record(&r);
        print_row(&row);
    }

    println!("\n## Growth — single-dependent footprint (bytes of heap per out-set)");
    let f = outset_footprint_report();
    print_header("shape", &["fresh", "after 1 add"]);
    print_series("adaptive (1 lane)", &[f.adaptive_fresh, f.adaptive_one_add], usize::to_string);
    print_series(
        format!("recycler standby ({} blocks, process-wide)", f.recycler_cached_blocks),
        &[f.recycler_cached_bytes, f.recycler_cached_bytes],
        usize::to_string,
    );
    let mut r = Record::new("outset-footprint", "outset-tree-adaptive");
    r.output("adaptive_fresh_bytes", f.adaptive_fresh)
        .output("adaptive_one_add_bytes", f.adaptive_one_add)
        .output("recycler_cached_blocks", f.recycler_cached_blocks)
        .output("recycler_cached_bytes", f.recycler_cached_bytes);
    rep.record(&r);
    println!("# wrote {}", rep.path().display());
}

/// Choose an n that keeps total dummy work bounded as work per task grows.
fn grain_n(base_n: u64, leaf_work: u64) -> u64 {
    let budget_ns: u64 = 800_000_000; // ≈0.8 s of single-core dummy work
    base_n.min(budget_ns / leaf_work.max(1)).max(1024)
}

/// Figure 14: speedup of each algorithm over fetch-and-add at max workers,
/// as per-task dummy work varies.
fn fig14(opts: &Opts) {
    let (w, runs) = (opts.measure.max_workers, opts.measure.runs);
    println!("\n## Figure 14 — granularity study at {w} workers (speedup vs fetch-add)");
    let mut rep = open_reporter(&opts.outdir, "fig14");
    let algos = [Algo::FetchAdd, Algo::Fixed { depth: 9 }, Algo::incounter_default(w)];
    print_header("work(ns)", &["n", "fetch-add", "snzi-depth-9", "incounter"]);
    for leaf_work in [1u64, 10, 100, 1_000, 10_000] {
        let n = grain_n(opts.measure.n, leaf_work);
        let mut row = vec![leaf_work.to_string(), n.to_string()];
        // The first algorithm, fetch-and-add, is the row's base.
        let mut base = None;
        for algo in algos {
            let (t, _) = fanin(&mut rep, runs, algo, w, n, leaf_work);
            row.push(fmt_speedup(*base.get_or_insert(t), t));
        }
        print_row(&row);
    }
    println!("# wrote {}", rep.path().display());
}

/// Figure 15 (a–e): speedup over single-core fetch-and-add vs worker
/// count, one panel per dummy-work amount.
fn fig15(opts: &Opts) {
    let runs = opts.measure.runs;
    println!("\n## Figure 15 — speedup vs workers at fixed dummy work (baseline: fetch-add @1)");
    let mut rep = open_reporter(&opts.outdir, "fig15");
    let workers = opts.measure.worker_counts();
    for leaf_work in [1u64, 10, 100, 1_000, 10_000] {
        let n = grain_n(opts.measure.n, leaf_work);
        println!("# panel: {leaf_work} ns dummy work per task, n={n}");
        let (base, _) = fanin(&mut rep, runs, Algo::FetchAdd, 1, n, leaf_work);
        print_header("algo \\ workers", &workers);
        for row in [Some(Algo::FetchAdd), Some(Algo::Fixed { depth: 9 }), None] {
            print_series(algo_label(row), &workers, |&w| {
                fmt_speedup(base, fanin(&mut rep, runs, algo_at(row, w), w, n, leaf_work).0)
            });
        }
    }
    println!("# wrote {}", rep.path().display());
}

// ---------------------------------------------------------------------------
// Result-file plumbing: every figure and study funnels its filesystem
// side effects through these, so a missing directory, a permission
// wall or a full disk surfaces as one path-bearing line and a non-zero
// exit instead of an `expect` backtrace unwinding through scoped
// worker threads.

fn fail_io(what: &str, path: &std::path::Path, err: &std::io::Error) -> ! {
    eprintln!("harness: failed to {what} `{}`: {err}", path.display());
    std::process::exit(1);
}

fn open_reporter(outdir: &std::path::Path, name: &str) -> Reporter {
    Reporter::create(outdir, name)
        .unwrap_or_else(|e| fail_io("create results file", &outdir.join(format!("{name}.txt")), &e))
}

fn ensure_dir(dir: &std::path::Path) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail_io("create directory", dir, &e));
}

fn write_text(path: &std::path::Path, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| fail_io("write", path, &e));
}
