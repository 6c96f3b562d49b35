//! The evaluation harness: regenerates every figure of the paper.
//!
//! ```text
//! harness <fig8|...|fig15|outset|growth|all|obs|trace|chaos> [flags]
//!
//! `obs`, `trace` and `chaos` are checker subcommands (never part of
//! `all`): `obs` prints one unified registry snapshot of a
//! fanout-broadcast run (with `--assert-bound` it also recomputes the
//! paper's per-add contention bound, the share of one-shot bodies whose
//! capture is stored inline on the fanout and a `fib` run, the block-, vertex-,
//! decrement-pair- and strand-recycling conservation identities — the
//! last with the suspended/resumed terms — the warm-run zero-fresh-vertex and
//! zero-fresh-strand-frame claims, and the steady-state footprints
//! including suspended-but-live strand frames, failing if any is
//! violated); `trace` records the run and writes Chrome Trace Event
//! Format JSON to `--out` (see `docs/observability.md`); `chaos` (built with `--features
//! fault-inject`) runs the deterministic fault-injection batteries —
//! seeded failpoint plans over the lost-wake, recycle-miss,
//! install-CAS, forced-bounce and panic-on-Nth-execution sites — each
//! under a watchdog-bounded run, replayed from its printed seed, with
//! a machine-checkable summary in `results/chaos.json` (see
//! `docs/robustness.md`).
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
//!   --assert-bound     (obs) fail unless the contention bounds hold
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
    await_chain, calibrate_dummy_unit_ns, fanin_ops, fanout_broadcast, fanout_broadcast_ops,
    fanout_broadcast_probed, fib, indegree2_ops, outset_footprint_report, pipeline_stages,
    pipeline_stages_ops, raw_counter_bench, raw_growth_bench, raw_outset_bench, GrowthStats,
    RawCounter, RawOutset,
};
use dynsnzi_bench::Algo;
use incounter::{DynConfig, DynSnzi};

struct Opts {
    figures: Vec<String>,
    measure: MeasureOpts,
    pairs: u64,
    grow_adds: Option<u64>,
    outdir: PathBuf,
    assert_bound: bool,
    trace_out: PathBuf,
}

fn parse_args() -> Opts {
    let mut measure = MeasureOpts::auto();
    let mut figures = Vec::new();
    let mut pairs = 200_000u64;
    let mut grow_adds = None;
    let mut outdir = PathBuf::from("results");
    let mut assert_bound = false;
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
            "--assert-bound" => assert_bound = true,
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
                || matches!(fig, "all" | "outset" | "growth" | "obs" | "trace" | "chaos") =>
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
    Opts { figures, measure, pairs, grow_adds, outdir, assert_bound, trace_out }
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
    if explicit("chaos") {
        chaos_cmd(&opts);
    }
}

/// `harness obs`: run the fanout broadcast with the whole runtime's
/// telemetry registry live, print the unified before/after snapshot
/// (counters from snzi, incounter, outset, sched, and spdag in one
/// table), and with `--assert-bound` recompute the contention bounds of
/// `docs/observability.md` from those counters, exiting non-zero on any
/// violation.
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
    if opts.assert_bound {
        let contention_ok = check_contention_bounds(&d, w);
        let inline_ok = check_inline_bodies(&d, w);
        let recycle_ok = check_recycle_bounds(opts);
        let strand_ok = check_strand_bounds(opts);
        let poison_ok = check_poisoned_bounds(opts);
        if !(contention_ok && inline_ok && recycle_ok && strand_ok && poison_ok) {
            std::process::exit(1);
        }
    }
}

/// Recompute the strand accounting on an `await_chain` run —
/// the workload where every stage parks. Three identities close the
/// suspended-vertex hole the plain vertex checks had:
///
/// * **Exactly-once**: at quiescence `spdag.strand_suspend ==
///   spdag.strand_resume` — every park was repaid by one resumption.
/// * **Conservation with suspension terms**: a parked strand's vertex is
///   born once but crosses the executor `1 + resumes` times, so the
///   per-execution counters do *not* balance against births; the
///   birth/death identity (`alloc + reuse == recycled + dropped`) still
///   must, for vertices and spilled strand frames alike, because
///   suspension defers retirement rather than skipping it.
/// * **Footprint, per link**: the class pools are emptied first, so what
///   they hold after the runs is the live peak of one run, and a link of
///   the chain keeps four recycler slabs live — the future's shared core,
///   the pair of the fork that joined it to the root's scope, its
///   completion vertex and the strand's own vertex ([`LINK_SLABS`]). A
///   parked strand counts on a word in its vertex and a scope of one
///   strand has no counter, so an in-counter or a pair per future, touch
///   or park that grows back fails here. The ceiling gains a
///   `(suspend − resume)` term — a frame parked across the snapshot holds
///   its slab without it being "leaked" by the pool; at the quiescent
///   boundaries used here the term is zero, which is itself part of the
///   claim.
///
/// And one scheduler bound, on the warm run: **steal pacing** —
/// `sched.steals ≤ W · (1 + wall / STEAL_PAYS)` on the workload whose
/// every steal moves one link of a serial chain.
///
/// Also re-checks the warm-run claim for strands: with the class ladder
/// warm, a repeat run mints zero fresh spilled frames (and the
/// `await_chain` frames are small enough to inline — allocation-free
/// before the pool is even consulted). Returns whether everything
/// passed.
fn check_strand_bounds(opts: &Opts) -> bool {
    let w = opts.measure.max_workers;
    let n = (opts.measure.n / 4).max(1 << 10);
    // Deep enough that one slab more per link is more than the slack of
    // `footprint_ceiling`.
    let depth = (n / 16).max(1 << 10);
    let cfg = || DynConfig::with_threshold(Algo::default_threshold(w));
    println!("\n## Strand accounting — await_chain depth={depth}, workers={w}");

    let mut all_ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if pass { "ok  " } else { "FAIL" });
        all_ok &= pass;
    };

    // Every run so far has returned, so every cache is flushed: emptying
    // the depots makes what they hold afterwards these runs' live peak.
    sched::recycle::trim();
    let before = obs::Snapshot::take();
    for _ in 0..3 {
        await_chain::<DynSnzi>(cfg(), w, depth);
    }
    let mid = obs::Snapshot::take();
    let run = await_chain::<DynSnzi>(cfg(), w, depth);
    let steady = obs::Snapshot::take().diff(&mid);
    let total = obs::Snapshot::take().diff(&before);

    // From `PoolStats`, so it holds with telemetry compiled out too; with
    // it, the registry's count for the same run has to agree.
    let steals = run.pool.steals;
    let paced = paced_steals(w, 1, run.elapsed);
    check(
        "steal-pacing",
        steals <= paced && (!obs::enabled() || steady.counter("sched.steals") == steals),
        format!(
            "{steals} steals ({} rests) in {:?} <= {w} x (1 + wall / {:?}) = {paced}",
            run.pool.rests,
            run.elapsed,
            sched::STEAL_PAYS
        ),
    );

    let mut parked_live = 0u64;
    if !obs::enabled() || total.is_empty() {
        println!("  (telemetry compiled out; gauge-only checks)");
    } else {
        let (s, r) = (total.counter("spdag.strand_suspend"), total.counter("spdag.strand_resume"));
        parked_live = s.saturating_sub(r);
        check(
            "suspend-resume",
            s == r && s > 0,
            format!("suspended {s} == resumed {r} (exactly-once, and the workload did park)"),
        );
        let born = total.counter("sched.strand_alloc") + total.counter("sched.strand_reuse");
        let dead = total.counter("sched.strand_recycled") + total.counter("sched.strand_dropped");
        check(
            "strand-frame-conservation",
            born == dead,
            format!("spilled frames born {born} == dead {dead}"),
        );
        let vborn = total.counter("sched.vertex_alloc") + total.counter("sched.vertex_reuse");
        let vdead = total.counter("sched.vertex_recycled") + total.counter("sched.vertex_dropped");
        check(
            "vertex-conservation+suspension",
            vborn == vdead,
            format!(
                "born {vborn} == dead {vdead} with {s} suspends deferring (and {r} resumes \
                 repaying) retirement"
            ),
        );
        let (sa, si) =
            (steady.counter("sched.strand_alloc"), steady.counter("spdag.strand_inline"));
        check(
            "warm-zero-strand-alloc",
            sa == 0,
            format!("warm run: {sa} fresh spilled frames ({si} frames inlined alloc-free)"),
        );
    }
    let (cached, bytes) = (sched::recycle::cached_slabs(), sched::recycle::cached_bytes());
    let (slabs, room) = footprint_ceiling(depth, w, cached);
    let parked_live = parked_live as usize;
    check(
        "strand-footprint-ceiling",
        cached <= slabs + parked_live && bytes <= room,
        format!(
            "class pools {cached} slabs <= {LINK_SLABS} x {depth} links + {} beside them + \
             {parked_live} suspended-but-live frames, {bytes} B <= {LINK_BYTES} B x {depth} \
             links + 256 B x the {} slabs beyond theirs",
            footprint_ceiling(0, w, 0).0,
            cached.saturating_sub(LINK_SLABS * depth as usize),
        ),
    );
    println!("# strand checks: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// Recycler slabs one future keeps live from its creation to its sweep:
/// the shared core (`PoolArc`), the pair of the fork that joined it to the
/// enclosing scope, the completion vertex, and one more vertex — the body,
/// or the `touch` continuation or parked strand the body became. No
/// in-counter and no second pair: a scope that never forks makes neither.
const LINK_SLABS: usize = 4;

/// The same in bytes: the core and the pair ride the 64 B class, the two
/// vertices the 128 B one. (A core that grows past 64 B rides the 128 B
/// class and makes this 448; a vertex past 128 B, the 256 B class and
/// 640.)
const LINK_BYTES: usize = 64 + 64 + 2 * 128;

/// The most the class pools may hold after runs whose live peak is `links`
/// futures, starting from empty depots, when they hold `cached` slabs.
/// Beside the links: what the other workers' caches hold while one builds
/// (up to two magazines of 32 per class; the checks read 20–70 slabs in
/// all at W=4) and the handful of slabs a run has of its own — root,
/// final vertex, the root scope's counter and the child pairs it draws.
/// In bytes, each link is charged `LINK_BYTES` and each slab the pools
/// hold beyond the links' own at most 256 B. Both callers have at least
/// 1 024 links, so one slab more per link, one class more per vertex or
/// one class more per core is well over this slack. Returns the bound in
/// slabs and in bytes.
fn footprint_ceiling(links: u64, workers: usize, cached: usize) -> (usize, usize) {
    let (links, beside) = (links as usize, 128 * workers + 64);
    let extra = cached.saturating_sub(LINK_SLABS * links);
    (LINK_SLABS * links + beside, LINK_BYTES * links + 256 * extra)
}

/// Steals must pay (`sched::pool`): one worker lets `STEAL_PAYS` pass
/// between two of its steals, so `runs` pool runs on `w` workers that
/// took `wall` together made at most this many.
fn paced_steals(w: usize, runs: u64, wall: Duration) -> u64 {
    w as u64 * (runs + (wall.as_nanos() / sched::STEAL_PAYS.as_nanos()) as u64)
}

/// The three slab ledgers as `(label, births, deaths)` counter names:
/// every slab is born fresh or reused and dies into its recycler — or,
/// for a vertex or header too large for the class ladder, the plain
/// allocator. An out-set block has the one exit.
type SlabLedger = (&'static str, [&'static str; 2], &'static [&'static str]);
const SLAB_LEDGERS: [SlabLedger; 3] = [
    ("block", ["outset.blocks_allocated", "outset.blocks_reused"], &["outset.blocks_recycled"]),
    (
        "vertex",
        ["sched.vertex_alloc", "sched.vertex_reuse"],
        &["sched.vertex_recycled", "sched.vertex_dropped"],
    ),
    (
        "poolarc",
        ["sched.poolarc_alloc", "sched.poolarc_reuse"],
        &["sched.poolarc_recycled", "sched.poolarc_dropped"],
    ),
];

/// Recompute the accounting across a *poisoned* run — a dag whose body
/// panics under panic isolation (`docs/robustness.md`). Drain-to-
/// completion poisoning claims the panic changes *what* runs (the
/// panicking body is cut short, dependent touch closures are skipped,
/// its future completes valueless) but never the accounting: the dag
/// still drains, so at quiescence every vertex born is retired, every
/// out-set add delivered or bounced, and the panic itself is visible as
/// `sched.panics == 1` with the original payload re-raised at the
/// caller. Needs no failpoints — the panic is a plain `panic!` in a
/// body — so it runs in every build. Returns whether everything passed.
fn check_poisoned_bounds(opts: &Opts) -> bool {
    let w = opts.measure.max_workers;
    println!("\n## Poisoned-run accounting — fanout with one panicking body, workers={w}");

    let mut all_ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if pass { "ok  " } else { "FAIL" });
        all_ok &= pass;
    };

    let before = obs::Snapshot::take();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
        spdag::run_dag::<DynSnzi, _>(cfg, w, |mut ctx| {
            for i in 0..256u64 {
                ctx.fork(move |mut c: spdag::Ctx<'_, DynSnzi>| {
                    let f = c.future(move |_| {
                        assert!(i != 97, "obs: deliberate body panic");
                        i
                    });
                    c.touch(&f, |_, v| {
                        std::hint::black_box(*v);
                    });
                });
            }
        });
    }));
    std::panic::set_hook(prev_hook);
    let d = obs::Snapshot::take().diff(&before);

    check(
        "panic-propagation",
        caught.is_err(),
        "the body panic was re-raised at the run_dag caller".to_string(),
    );
    if !obs::enabled() || d.is_empty() {
        println!("  (telemetry compiled out; propagation check only)");
    } else {
        check(
            "poison-observed",
            d.counter("sched.panics") == 1 && d.counter("spdag.body_panics") == 1,
            format!(
                "sched.panics {} == 1, spdag.body_panics {} == 1",
                d.counter("sched.panics"),
                d.counter("spdag.body_panics")
            ),
        );
        for (label, [alloc, reuse], deaths) in SLAB_LEDGERS {
            let born = d.counter(alloc) + d.counter(reuse);
            let dead: u64 = deaths.iter().map(|name| d.counter(name)).sum();
            check(
                &format!("poisoned-{label}-conservation"),
                born == dead,
                format!("born {born} == dead {dead} despite the mid-run panic"),
            );
        }
        let (born, freed) = (d.counter("sched.pairs_born"), d.counter("sched.pairs_freed"));
        check(
            "poisoned-pair-conservation",
            born == freed && born > 0,
            format!("decrement pairs born {born} == freed by their last claim {freed}"),
        );
        let adds = d.counter("outset.adds");
        let delivered = d.counter("outset.adds_bounced") + d.counter("outset.swept");
        check(
            "poisoned-add-conservation",
            adds == delivered,
            format!(
                "adds {adds} == bounced+swept {delivered} ({} touch closures skipped)",
                d.counter("spdag.poisoned_touches")
            ),
        );
    }
    println!("# poisoned-run checks: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// Recompute the slab-recycling accounting — both the out-set block pool
/// (`outset::tree::block_pool`) and the vertex/continuation class pools
/// (`sched::recycle`) — on a fresh quiesced workload, plus the
/// steady-state claims on the pipeline: a second identically-shaped
/// `pipeline_stages` run must be fed from the slabs the first retired
/// (for vertices: **zero** fresh allocations), the block free list may not
/// keep growing (size tracks peak-live, not cumulative churn), and the
/// class pools, emptied first, end at [`LINK_SLABS`] slabs per cell of the
/// largest run and no more — a counter or a pair per future that grows
/// back fails it. Last, the
/// Figure 8 question asked of the allocator under every `spawn`
/// (`slab-flat`): the recycler's fast path touches only the calling
/// thread's cache, so the per-thread price of an `alloc` → `free` cycle at
/// T = min(hardware threads, 4) must stay under 1.5× its one-thread price
/// — best sample of each, so a noisy neighbour cannot fail it alone.
/// Returns whether everything passed.
fn check_recycle_bounds(opts: &Opts) -> bool {
    let w = opts.measure.max_workers;
    let n = (opts.measure.n / 4).max(1 << 10);
    let (stages, width) = (32u64, (n / 64).max(16));
    let cfg = || DynConfig::with_threshold(Algo::default_threshold(w));
    println!("\n## Recycling accounting — pipeline_stages {stages}x{width}, workers={w}");

    let mut all_ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if pass { "ok  " } else { "FAIL" });
        all_ok &= pass;
    };

    // As in `check_strand_bounds`: from empty depots, what the class pools
    // hold afterwards is the live peak of the largest run below.
    sched::recycle::trim();
    let before = obs::Snapshot::take();
    // The cold run: the same pipeline at twice the width, so that what
    // it retires is far more than a warm run ever needs at once. A run's
    // need is its live peak *plus* what the other workers' caches hold at
    // that instant (a thief whose first acquire takes a full magazine
    // off the depot keeps the rest of it from the builder) plus a
    // `ChildPair` per in-counter that grows, and the last two are draws
    // from the schedule: pools that hold exactly one run's need reach
    // the high-water mark in steps that can be a hundred runs apart.
    pipeline_stages::<DynSnzi, outset::TreeOutset>(cfg(), w, stages, 2 * width);
    // Then the warm runs proper, identical to the one that is measured.
    for _ in 0..3 {
        pipeline_stages::<DynSnzi, outset::TreeOutset>(cfg(), w, stages, width);
    }
    let warm_cached = outset::tree::block_pool().cached_slabs();
    let mid = obs::Snapshot::take();
    pipeline_stages::<DynSnzi, outset::TreeOutset>(cfg(), w, stages, width);
    let steady = obs::Snapshot::take().diff(&mid);
    let total = obs::Snapshot::take().diff(&before);

    if !obs::enabled() || total.is_empty() {
        println!("  (telemetry compiled out; gauge-only checks)");
    } else {
        // Both snapshot boundaries are quiescent (runs joined, out-sets
        // dropped, worker caches flushed), so births equal deaths — for
        // out-set blocks, dag vertices, and pooled refcount headers
        // alike.
        for (label, [alloc, reuse], deaths) in SLAB_LEDGERS {
            let born = total.counter(alloc) + total.counter(reuse);
            let dead: u64 = deaths.iter().map(|name| total.counter(name)).sum();
            check(
                &format!("{label}-conservation"),
                born == dead,
                format!("born {born} == dead {dead}"),
            );
        }
        // Decrement pairs own themselves: no alloc/reuse split, one
        // birth and one death (the last claim) per pair — and one pair per
        // increment, nowhere else: a run forks once per cell and once per
        // last-row sink, the cold run at twice the width.
        let (born, freed) = (total.counter("sched.pairs_born"), total.counter("sched.pairs_freed"));
        let increments = (stages + 1) * (2 * width + 4 * width);
        check(
            "pair-conservation",
            born == freed && born == increments,
            format!(
                "decrement pairs born {born} == freed by their last claim {freed} == \
                 increments {increments}"
            ),
        );
        let (reused, allocated) =
            (steady.counter("outset.blocks_reused"), steady.counter("outset.blocks_allocated"));
        check(
            "steady-state-reuse",
            reused > 0 && reused >= allocated,
            format!("warm run: reused {reused} > 0 and >= freshly allocated {allocated}"),
        );
        // The tentpole claim: with the class pools warm, an identical
        // run mints no fresh vertices at all — the cold run retired far
        // more slabs than the warm run ever holds live at once.
        let (va, vr) = (steady.counter("sched.vertex_alloc"), steady.counter("sched.vertex_reuse"));
        check(
            "warm-zero-vertex-alloc",
            va == 0,
            format!("warm run: {va} fresh vertices (reused {vr})"),
        );
    }
    let cached = outset::tree::block_pool().cached_slabs();
    check(
        "footprint-ceiling",
        cached <= 2 * warm_cached + 64,
        format!("free list {cached} blocks <= 2 x warm {warm_cached} + 64 (peak-live, not churn)"),
    );
    let (sched_cached, sched_bytes) =
        (sched::recycle::cached_slabs(), sched::recycle::cached_bytes());
    let cells = stages * 2 * width;
    let (slabs, room) = footprint_ceiling(cells, w, sched_cached);
    check(
        "sched-footprint-ceiling",
        sched_cached <= slabs && sched_bytes <= room,
        format!(
            "class pools {sched_cached} slabs <= {LINK_SLABS} x {cells} cells of the cold run + \
             {} beside them, {sched_bytes} B <= {LINK_BYTES} B x {cells} cells + 256 B x the {} \
             slabs beyond theirs (peak-live, not churn)",
            footprint_ceiling(0, w, 0).0,
            sched_cached.saturating_sub(LINK_SLABS * cells as usize),
        ),
    );
    // Alternating samples, so a spell of the host prices both alike.
    const SLAB_SAMPLES: usize = 60;
    let wide = sched::num_cpus().min(4);
    let (mut one, mut many) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SLAB_SAMPLES {
        one = one.min(slab_cycle_ns(1));
        many = many.min(slab_cycle_ns(wide));
    }
    check(
        "slab-flat",
        many < 1.5 * one,
        format!(
            "recycler cycle {one:.1} ns on one thread, {many:.1} ns per thread on T={wide}: \
             growth {:.2}x < 1.5x (best of {SLAB_SAMPLES} each)",
            many / one
        ),
    );
    println!("# recycling checks: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// One `slab-flat` sample: `threads` threads, released together, each
/// cycle a vertex-sized object through the typed pair the runtime itself
/// uses (`sched::recycle::{alloc, free}`); the mean over threads of each
/// thread's own ns per cycle.
fn slab_cycle_ns(threads: usize) -> f64 {
    /// Cycles per thread: a few ms, so the barrier and the thread's start
    /// stay out of the per-cycle price.
    const CYCLES: u64 = 400_000;
    /// The 200-byte class `spawn` cycles its vertices through.
    type Slab = std::mem::MaybeUninit<[u64; 25]>;
    let cycle = || {
        let (slab, _) = sched::recycle::alloc(Slab::uninit);
        // SAFETY: just born by `alloc`, owned here, not used again.
        unsafe { sched::recycle::free(std::hint::black_box(slab)) };
    };
    let start = std::sync::Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    // Warm this thread's cache: the loop then times the
                    // recycled path, not one fresh allocation.
                    cycle();
                    start.wait();
                    let t0 = std::time::Instant::now();
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

/// Recompute the paper's Section-4-style amortized contention bound for
/// the out-set from one snapshot diff (derivation and counter-to-term
/// mapping: `docs/observability.md`). Exact structural invariants are
/// checked hard; the amortized bound holds in expectation, so it gets a
/// generous slack factor. Returns whether everything passed.
fn check_contention_bounds(d: &obs::Snapshot, workers: usize) -> bool {
    if !obs::enabled() || d.is_empty() {
        println!("--assert-bound: telemetry compiled out; nothing to check");
        return true;
    }
    let adds = d.counter("outset.adds");
    let bounced = d.counter("outset.adds_bounced");
    let swept = d.counter("outset.swept");
    let created = d.counter("outset.created");
    let splits = d.counter("outset.splits");
    let lost = d.counter("outset.lost_cas");
    let cap = outset::tree::TreeOutsetObj::max_lanes() as u64;
    // Lane counts double from 1 toward the cap: log2(cap) splits per set.
    let log_cap = u64::from(cap.trailing_zeros()).max(1);

    let mut all_ok = true;
    let mut check = |name: &str, pass: bool, detail: String| {
        println!("  [{}] {name}: {detail}", if pass { "ok  " } else { "FAIL" });
        all_ok &= pass;
    };
    check(
        "conservation",
        adds == bounced + swept,
        format!("adds {adds} == bounced {bounced} + swept {swept}"),
    );
    check(
        "split-cap",
        splits <= created * log_cap,
        format!("splits {splits} <= created {created} x log2(cap) {log_cap}"),
    );
    check(
        "serial-quiet",
        workers > 1 || (lost == 0 && splits == 0),
        format!("workers {workers}: lost {lost}, splits {splits}"),
    );
    check("split-needs-loss", splits <= lost, format!("splits {splits} <= lost CASes {lost}"));
    // Amortized per-add contention: a slot claim can lose to at most
    // W-1 rivals racing the same 32-slot block tail, so expected losses
    // are O(adds * (W-1) / B) plus the O(log cap) growth transient per
    // set. x4 slack absorbs the in-expectation part.
    const BLOCK_SLOTS: u64 = outset::BLOCK_SLOTS as u64;
    const SLACK: u64 = 4;
    let bound = SLACK * (adds * (workers as u64 - 1)).div_ceil(BLOCK_SLOTS)
        + 2 * created * log_cap
        + BLOCK_SLOTS;
    check(
        "amortized-lost-cas",
        lost <= bound,
        format!("lost {lost} <= {bound} (4*adds*(W-1)/B + 2*created*log2(cap) + B)"),
    );
    if lost > 0 {
        println!(
            "  [info] splits/lost = {:.3} (each lost CAS flips a p = 1/2 coin)",
            splits as f64 / lost as f64
        );
    }
    println!("# --assert-bound: {}", if all_ok { "PASS" } else { "FAIL" });
    all_ok
}

/// The spawn fast path's storage claim: on the spawn-dominated workloads
/// — the fanout run `obs` already made and one `fib(20)` — at least nine
/// one-shot bodies in ten keep their capture in the vertex's frame
/// (`spdag.body_inline`) instead of spilling it to a slab
/// (`spdag.body_boxed`).
/// Returns whether both runs passed.
fn check_inline_bodies(fanout: &obs::Snapshot, workers: usize) -> bool {
    if !obs::enabled() || fanout.is_empty() {
        return true;
    }
    println!("\n## Inline bodies — the fanout run above and fib(20), workers={workers}");
    let before = obs::Snapshot::take();
    fib::<DynSnzi>(DynConfig::with_threshold(Algo::default_threshold(workers)), workers, 20);
    let fib_run = obs::Snapshot::take().diff(&before);
    let mut all_ok = true;
    for (workload, d) in [("fanout_broadcast", fanout), ("fib", &fib_run)] {
        let (inline, boxed) = (d.counter("spdag.body_inline"), d.counter("spdag.body_boxed"));
        let pass = inline > 0 && 10 * inline >= 9 * (inline + boxed);
        println!(
            "  [{}] inline-body-share ({workload}): inline {inline} / (inline + spilled {boxed}) >= 0.9",
            if pass { "ok  " } else { "FAIL" }
        );
        all_ok &= pass;
    }
    all_ok
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
    let snzi = (1..=5).map(|d| (RawCounter::FixedSnzi { depth: d }, format!("snzi-depth-{d}")));
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

// ---------------------------------------------------------------------------
// `harness chaos` — deterministic fault-injection batteries.

/// One chaos battery: a named, seeded failpoint plan plus the
/// expectation its runs are checked against.
struct ChaosBattery {
    name: &'static str,
    seed: u64,
    plan: sched::FaultPlan,
    expect_panic: bool,
}

/// The fixed battery table for one seed. With the `fault-inject`
/// feature compiled out only the empty-plan baseline remains — the
/// workload and the summary artifact still exercise end to end.
fn chaos_batteries(seed: u64) -> Vec<ChaosBattery> {
    use sched::{FaultMode, SiteSpec};
    let site = |s: &str, mode| SiteSpec { site: s.to_string(), mode };
    let mk = |name, sites, expect_panic| ChaosBattery {
        name,
        seed,
        plan: sched::FaultPlan::new(seed, sites),
        expect_panic,
    };
    let mut batteries = vec![mk("baseline", Vec::new(), false)];
    if !sched::failpoint::enabled() {
        return batteries;
    }
    batteries.extend([
        mk(
            "lost-wake",
            vec![
                site("sched.lost_wake", FaultMode::OneIn(3)),
                site("sched.delayed_wake", FaultMode::OneIn(5)),
            ],
            false,
        ),
        mk("recycle-miss", vec![site("sched.recycle_miss", FaultMode::OneIn(2))], false),
        mk("install-cas", vec![site("outset.install_cas", FaultMode::OneIn(2))], false),
        mk("force-bounce", vec![site("spdag.force_bounce", FaultMode::OneIn(3))], false),
        // Nth is seed-derived so different seeds kill different vertices;
        // >= 8 keeps it past the root so the dag has structure to drain.
        mk("panic-vertex", vec![site("spdag.panic_vertex", FaultMode::Nth(seed % 40 + 8))], true),
        mk(
            "everything",
            vec![
                site("sched.lost_wake", FaultMode::OneIn(5)),
                site("sched.recycle_miss", FaultMode::OneIn(3)),
                site("outset.install_cas", FaultMode::OneIn(3)),
                site("spdag.force_bounce", FaultMode::OneIn(5)),
            ],
            false,
        ),
    ]);
    batteries
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Outcome of a single armed run: `panic_msg` is `None` iff the run
/// completed; `injected` counts this run's fired failpoints.
struct ChaosRun {
    panic_msg: Option<String>,
    injected: u64,
}

/// Install the battery's plan, run the workload watchdog-bounded, and
/// disarm. The workload forks `tasks` independent future+touch pairs —
/// enough vertex, out-set and wake traffic to give every armed site
/// real calls to bite on.
fn chaos_run_once(battery: &ChaosBattery, w: usize, tasks: u64) -> ChaosRun {
    sched::failpoint::install(&battery.plan);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cfg = DynConfig::with_threshold(Algo::default_threshold(w));
        let wd = sched::WatchdogCfg { stall_timeout: Duration::from_secs(30) };
        spdag::run_dag_watched::<DynSnzi, _>(cfg, w, wd, move |mut ctx| {
            for i in 0..tasks {
                ctx.fork(move |mut c: spdag::Ctx<'_, DynSnzi>| {
                    let f = c.future(move |_| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    c.touch(&f, |_, v| {
                        std::hint::black_box(*v);
                    });
                });
            }
        });
    }));
    let injected = sched::failpoint::injected_count();
    sched::failpoint::clear();
    match result {
        Ok(_) => ChaosRun { panic_msg: None, injected },
        Err(p) => ChaosRun { panic_msg: Some(panic_text(p.as_ref())), injected },
    }
}

/// `harness chaos`: run every battery twice per seed and hold each to
/// three claims — the **outcome** claim (the run completes, or for the
/// panic battery the injected panic propagates to this caller with the
/// pool drained rather than hung), the **replay** claim (the second
/// run under the same plan reproduces the first's outcome — decision
/// `k` at site `s` is pure in `(seed, s, k)`, see `docs/robustness.md`),
/// and the **conservation** claim (at quiescence the vertex,
/// decrement-pair and out-set identities still close, even across a
/// poisoned run, and the steal count stays inside the pacing bound). Every
/// battery prints the seed that reproduces it; the machine-checkable
/// summary goes to `results/chaos.json` and any failed claim exits
/// non-zero.
fn chaos_cmd(opts: &Opts) {
    let w = opts.measure.max_workers.clamp(2, 8);
    let tasks = (opts.measure.n / 8).clamp(512, 1 << 14);
    let armed = sched::failpoint::enabled();
    println!("\n## Chaos — seeded fault-injection batteries, workers={w}, tasks/battery={tasks}");
    if !armed {
        println!("# fault-inject feature compiled out: baseline battery only");
        println!("# (rebuild with `--features fault-inject` to arm the failpoint sites)");
    }
    let seeds: &[u64] = if armed { &[0x00C0_FFEE, 0x0DDC_0DE5, 42] } else { &[42] };

    // Injected panics are expected and caught; keep the default hook's
    // backtrace spew out of the report (payloads are printed per row).
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut rows: Vec<String> = Vec::new();
    let mut all_ok = true;
    for &seed in seeds {
        for battery in chaos_batteries(seed) {
            let before = obs::Snapshot::take();
            let start = std::time::Instant::now();
            let r1 = chaos_run_once(&battery, w, tasks);
            let r2 = chaos_run_once(&battery, w, tasks);
            let wall = start.elapsed();
            let d = obs::Snapshot::take().diff(&before);

            let outcome_ok = if battery.expect_panic {
                // Nth makes the injection itself exactly-once per run,
                // so beyond propagation the counts must both be 1.
                r1.injected == 1
                    && r2.injected == 1
                    && [&r1, &r2].iter().all(|r| {
                        r.panic_msg.as_deref().is_some_and(|m| m.contains("spdag.panic_vertex"))
                    })
            } else {
                r1.panic_msg.is_none() && r2.panic_msg.is_none()
            };
            // OneIn call counts are schedule-dependent (how often a site
            // is *reached* varies), so replay compares outcomes, not
            // injection tallies — those are exact only for Nth above.
            let replay_ok = r1.panic_msg == r2.panic_msg;
            let conservation_ok = if obs::enabled() && !d.is_empty() {
                let vborn = d.counter("sched.vertex_alloc") + d.counter("sched.vertex_reuse");
                let vdead = d.counter("sched.vertex_recycled") + d.counter("sched.vertex_dropped");
                let adds = d.counter("outset.adds");
                let delivered = d.counter("outset.adds_bounced") + d.counter("outset.swept");
                let pairs = d.counter("sched.pairs_born") == d.counter("sched.pairs_freed");
                // No fault may buy a thief more than one steal per
                // `STEAL_PAYS`, over the two runs together.
                let paced = d.counter("sched.steals") <= paced_steals(w, 2, wall);
                vborn == vdead && adds == delivered && pairs && paced
            } else {
                true
            };
            let ok = outcome_ok && replay_ok && conservation_ok;
            all_ok &= ok;

            let outcome = match &r1.panic_msg {
                None => "completed".to_string(),
                Some(m) => format!("panicked: {m}"),
            };
            println!(
                "  [{}] {:<12} seed=0x{:08x} injected={}+{} replay={} conservation={} — {}",
                if ok { "ok  " } else { "FAIL" },
                battery.name,
                battery.seed,
                r1.injected,
                r2.injected,
                if replay_ok { "match" } else { "DIVERGED" },
                if conservation_ok { "intact" } else { "BROKEN" },
                outcome,
            );
            if !ok {
                println!(
                    "# reproduce: harness chaos --n {} --max-workers {w} (battery `{}` is \
                     seeded with 0x{:x} in the fixed table)",
                    opts.measure.n, battery.name, battery.seed,
                );
            }
            rows.push(format!(
                "    {{ \"name\": \"{}\", \"seed\": {}, \"expect_panic\": {}, \
                 \"panicked\": {}, \"injected\": [{}, {}], \"replay_match\": {}, \
                 \"conservation_ok\": {}, \"ok\": {} }}",
                battery.name,
                battery.seed,
                battery.expect_panic,
                r1.panic_msg.is_some(),
                r1.injected,
                r2.injected,
                replay_ok,
                conservation_ok,
                ok,
            ));
        }
    }

    std::panic::set_hook(prev_hook);

    let json = format!(
        "{{\n  \"schema\": \"chaos-v1\",\n  \"fault_inject\": {armed},\n  \"workers\": {w},\n  \
         \"tasks\": {tasks},\n  \"telemetry\": {},\n  \"batteries\": [\n{}\n  ],\n  \
         \"ok\": {all_ok}\n}}\n",
        obs::enabled(),
        rows.join(",\n"),
    );
    let path = opts.outdir.join("chaos.json");
    ensure_dir(&opts.outdir);
    write_text(&path, &json);
    println!("# chaos: {}; wrote {}", if all_ok { "PASS" } else { "FAIL" }, path.display());
    if !all_ok {
        std::process::exit(1);
    }
}
