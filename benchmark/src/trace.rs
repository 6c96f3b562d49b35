//! `bench trace`: the per-layer metrics of one workload, from the build
//! with `telemetry`. None of this runs during the end-to-end measurement.
//!
//! Spans come from the benchmark's own code (`crate::span`); counts are
//! taken at the same boundary — `PoolStats` and an `obs::Snapshot` diff
//! around each iteration. The prices and the untraced reference numbers
//! come from the build without telemetry, which this process runs as
//! children, one at a time, before it measures anything itself.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use crate::affinity::Affinity;
use crate::hang;
use crate::json::{self, Value};
use crate::layers::obs_prices;
use crate::record::{read_records, Env, Record, Report};
use crate::run::WARMUPS;
use crate::span::{Probe, Tracer};
use crate::stats::{self, Summary};
use crate::workloads::{Kind, Workload};

/// Rounds of the end-to-end run's pattern, two iterations at W and two at
/// W=1, so that the traced and the untraced throughput are taken in the
/// same process state and their ratio is the tracing overhead alone.
const ROUNDS: u32 = 15;
/// Elision samples recorded as `elision` spans beside the iterations.
const ELISION_SPANS: u32 = 5;
/// Clock ticks per second of `/proc/self/stat` (USER_HZ, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;
/// Counters that need not repeat at W=1. In-counter growth flips a coin
/// from a per-thread stream, threads are seeded from a global counter,
/// and every `run_dag` starts new threads: the number of growths differs
/// from one iteration to the next. A block spills from a full cache or
/// not depending on what earlier iterations left there.
const UNREPEATABLE_COUNTERS: [&str; 2] = ["snzi.grow_installs", "outset.blocks_overflowed"];
/// Counters that only repeat as a sum. How many slabs and blocks an
/// iteration takes is fixed by its schedule; whether one comes fresh or
/// recycled, and whether a dead one is cached or freed, depends on what
/// earlier iterations left in the caches.
const SUMMED_COUNTERS: [(&str, &[&str]); 7] = [
    ("vertex births", &["sched.vertex_alloc", "sched.vertex_reuse"]),
    ("vertex deaths", &["sched.vertex_recycled", "sched.vertex_dropped"]),
    ("PoolArc births", &["sched.poolarc_alloc", "sched.poolarc_reuse"]),
    ("PoolArc deaths", &["sched.poolarc_recycled", "sched.poolarc_dropped"]),
    ("strand births", &["sched.strand_alloc", "sched.strand_reuse"]),
    ("block births", &["outset.blocks_allocated", "outset.blocks_reused"]),
    ("block deaths", &["outset.blocks_recycled", "outset.blocks_dropped"]),
];

/// The part of one iteration's counts that the schedule alone decides.
fn repeatable(counts: &Counts) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (&name, &n) in counts.iter().filter(|(name, _)| !UNREPEATABLE_COUNTERS.contains(name)) {
        let group = SUMMED_COUNTERS.iter().find(|(_, members)| members.contains(&name));
        *out.entry(group.map_or(name, |(sum, _)| sum)).or_insert(0) += n;
    }
    out
}

pub struct Options {
    pub kind: Kind,
    pub seconds: f64,
    pub quick: bool,
    pub plain: PathBuf,
    pub outdir: PathBuf,
    pub env: Env,
}

/// Counter deltas of one iteration or summed over a block.
type Counts = BTreeMap<&'static str, u64>;

#[derive(Default)]
struct Block {
    walls_s: Vec<f64>,
    counts: Counts,
    /// The deltas of each iteration, to check that they repeat.
    per_iteration: Vec<Counts>,
    tasks: u64,
    steals: u64,
    parks: u64,
    wakeups: u64,
    spurious: u64,
    suspends: u64,
    imbalance: Vec<f64>,
    wall_s: f64,
    user_s: f64,
    sys_s: f64,
    attempted: u64,
    failed: u64,
}

impl Block {
    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64
    }
}

/// User and system CPU seconds of this process so far.
fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name, field 2, may hold spaces; fields count from the
    // parenthesis that closes it. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let (user, sys) = (ticks(), ticks());
    (user / TICKS_PER_S, sys / TICKS_PER_S)
}

/// The conservation identities of a quiesced run, on one iteration's
/// counter deltas.
fn conservation(c: &Counts) -> Option<String> {
    let get = |name: &str| c.get(name).copied().unwrap_or(0);
    let identities = [
        ("out-set adds", get("outset.adds"), get("outset.swept") + get("outset.adds_bounced")),
        (
            "vertices",
            get("sched.vertex_alloc") + get("sched.vertex_reuse"),
            get("sched.vertex_recycled") + get("sched.vertex_dropped"),
        ),
        (
            "PoolArcs",
            get("sched.poolarc_alloc") + get("sched.poolarc_reuse"),
            get("sched.poolarc_recycled") + get("sched.poolarc_dropped"),
        ),
        (
            "out-set blocks",
            get("outset.blocks_allocated") + get("outset.blocks_reused"),
            get("outset.blocks_recycled") + get("outset.blocks_dropped"),
        ),
    ];
    identities
        .iter()
        .find(|(_, born, died)| born != died)
        .map(|(what, born, died)| format!("{what} not conserved: {born} in, {died} out"))
}

/// One traced iteration on `workers` workers, added to `b`.
fn traced_iteration(w: &Workload, workers: usize, index: u32, tracer: &Arc<Tracer>, b: &mut Block) {
    let (t0, (user0, sys0)) = (Instant::now(), cpu_times());
    Probe::root(tracer, index).span("iteration", |p| {
        let before = obs::Snapshot::take();
        let it = w.run(workers, p);
        let counts: Counts = obs::Snapshot::take().diff(&before).counters().collect();
        b.attempted += 1;
        let failure = it.failure.or_else(|| conservation(&counts));
        if let Some(why) = failure {
            b.failed += 1;
            eprintln!("bench: traced iteration at W={workers} failed: {why}");
            return;
        }
        let pool = it.pool.expect("a checked iteration has pool statistics");
        b.walls_s.push(it.wall.as_secs_f64());
        b.tasks += pool.tasks;
        b.steals += pool.steals;
        b.parks += pool.parks;
        b.wakeups += pool.wakeups;
        b.spurious += pool.spurious_wakes;
        b.suspends += pool.suspends;
        let most = pool.tasks_per_worker.iter().copied().max().unwrap_or(0) as f64;
        b.imbalance.push(most * pool.tasks_per_worker.len() as f64 / pool.tasks as f64);
        for (&name, &n) in &counts {
            *b.counts.entry(name).or_insert(0) += n;
        }
        b.per_iteration.push(counts);
    });
    let (user1, sys1) = cpu_times();
    b.wall_s += t0.elapsed().as_secs_f64();
    b.user_s += user1 - user0;
    b.sys_s += sys1 - sys0;
}

/// Run the build without telemetry as a child, with this run's seed,
/// worker count and labels, and read the records it wrote. Its result line
/// is not ours, so its standard output is dropped; its metric lines on
/// standard error pass through.
fn plain_child(
    plain: &Path,
    subcommand: &[&str],
    env: &Env,
    quick: bool,
    out: &Path,
) -> Result<Vec<Record>, String> {
    let mut command = Command::new(plain);
    command.args(subcommand).args(["--seed", &env.seed.to_string()]);
    command.args(["--workers", &env.workers.to_string(), "--rev", &env.rev, "--rustc", &env.rustc]);
    if quick {
        command.arg("--quick");
    }
    let status = command
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", plain.display()))?;
    if !status.success() {
        return Err(format!("{} {} failed: {status}", plain.display(), subcommand.join(" ")));
    }
    read_records(out)
}

/// The runtime does not count forks. Every vertex comes from the root
/// pair of a run, a spawn, a chain or a future (two each), a touch or a
/// fork (one each), and a resumed strand runs twice, so forks are the
/// rest. `n` reads the counter deltas of `runs` executions.
fn forks(n: &dyn Fn(&str) -> f64, runs: f64) -> f64 {
    let pairs = runs + n("spdag.spawns") + n("spdag.chains") + n("spdag.futures_created");
    (n("sched.tasks") - n("sched.resumes") - 2.0 * pairs - n("spdag.touches")).max(0.0)
}

/// One row of the cost ledger: a count at W=1 times a price.
struct Row {
    what: &'static str,
    count: f64,
    price_ns: f64,
}

/// The ledger of one W=1 iteration: what the price list says the counted
/// operations cost, to hold against the measured T₁. README.md says how
/// to read it.
fn ledger(c: &Counts, price: &dyn Fn(&str) -> f64, program_ns: f64) -> Vec<Row> {
    let n = |name: &str| c.get(name).copied().unwrap_or(0) as f64;
    let (spawns, chains, futures, touches) =
        (n("spdag.spawns"), n("spdag.chains"), n("spdag.futures_created"), n("spdag.touches"));
    let forks = forks(&n, 1.0);
    let seal_ns = (price("outset.small_cycle_ns")
        - price("outset.make_drop_ns")
        - 2.0 * price("outset.add_ns")
        - 2.0 * price("outset.finish_ns_per_token"))
    .max(0.0);
    let row = |what, count, price_ns| Row { what, count, price_ns };
    vec![
        row("the program itself (elision)", 1.0, program_ns),
        row("pool start and stop (spdag.run_dag_empty_ns)", 1.0, price("spdag.run_dag_empty_ns")),
        row("deque push+pop per task", n("sched.tasks"), price("deque.push_pop_ns")),
        row("vertex slab, recycled", n("sched.vertex_reuse"), price("recycle.acquire_release_ns")),
        row("vertex slab, fresh", n("sched.vertex_alloc"), price("recycle.malloc_free_ns")),
        row(
            "PoolArc new+drop",
            n("sched.poolarc_alloc") + n("sched.poolarc_reuse"),
            price("poolarc.new_drop_ns"),
        ),
        row(
            "in-counter step per spawn, fork and future",
            spawns + forks + futures,
            price("incounter.inc_dec_ns"),
        ),
        row(
            "in-counter made per chain, future, touch and suspend",
            chains + futures + touches + n("spdag.strand_suspend"),
            price("incounter.make_ns"),
        ),
        row("out-set made and dropped", n("outset.created"), price("outset.make_drop_ns")),
        row("out-set add", n("outset.adds"), price("outset.add_ns")),
        row("out-set seal", n("outset.seals"), seal_ns),
        row("out-set sweep per token", n("outset.swept"), price("outset.finish_ns_per_token")),
    ]
}

pub fn trace(opts: Options) -> Result<Report, String> {
    if !obs::enabled() {
        return Err("trace needs the build with `--features telemetry`".to_string());
    }
    let Options { kind, seconds, quick, plain, outdir, env } = opts;
    let name = kind.name();
    std::fs::create_dir_all(&outdir).map_err(|e| format!("{}: {e}", outdir.display()))?;

    // The price list and the untraced reference, from the other build.
    let prices = plain_child(
        &plain,
        &["layers"],
        &env,
        quick,
        &outdir.join(format!("plain_layers_{}.json", env.seed)),
    )?;
    let reference = plain_child(
        &plain,
        &["run", "--workload", name, "--seconds", &(seconds / 3.0).to_string()],
        &env,
        quick,
        &outdir.join(format!("plain_run_{name}_{}.json", env.seed)),
    )?;
    if prices.iter().any(|r| r.env.workers != env.workers) {
        return Err("the price list was taken with another worker count".to_string());
    }
    let obs_records = obs_prices(quick, &env);
    let price = |metric: &str| {
        prices.iter().find(|r| r.metric == metric).map_or(f64::NAN, |r| r.summary.median)
    };
    let reference_of = |metric: &str| reference.iter().find(|r| r.metric == metric);
    let reference_median =
        |metric: &str| reference_of(metric).map_or(f64::NAN, |r| r.summary.median);

    // Warm-ups as in the end-to-end run, then the traced iterations.
    let _monitor = hang::Monitor::install(|| {});
    let w = Workload::generate(kind, env.seed, quick);
    let mut warm_failed = 0;
    for _ in 0..WARMUPS {
        warm_failed += u64::from(w.run(env.workers, &Probe::off()).failure.is_some());
    }
    let affinity = Affinity::current().map_err(|e| format!("CPU affinity: {e}"))?;
    let rounds = if quick { 3 } else { ROUNDS };
    let tracer = Tracer::new();
    let (mut at_w, mut at_1) = (Block::default(), Block::default());
    // Of the four iterations of a round, the first two ran at W.
    for index in 0..4 * rounds {
        if index % 4 < 2 {
            traced_iteration(&w, env.workers, index, &tracer, &mut at_w);
        } else {
            affinity.pinned(|| traced_iteration(&w, 1, index, &tracer, &mut at_1));
        }
    }
    let (mut elision_ok, mut scratch) = (true, Vec::new());
    for i in 0..ELISION_SPANS {
        Probe::root(&tracer, 4 * rounds + i).span("elision", |_| {
            elision_ok &= w.elision_ok(std::hint::black_box(w.elision(&mut scratch)));
        });
    }

    // At one worker the schedule is fixed, so the counts must repeat.
    let mut counts_exact = true;
    let repeatables: Vec<_> = at_1.per_iteration.iter().map(repeatable).collect();
    for pair in repeatables.windows(2) {
        for (name, a) in &pair[0] {
            let b = pair[1].get(name).copied().unwrap_or(0);
            if *a != b {
                counts_exact = false;
                eprintln!("bench: at W=1 {name} was {a} in one iteration and {b} in the next");
            }
        }
    }

    let spans = tracer.spans();
    // Of the iterations at W=1.
    let span_ns = |what: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == what && s.iter < 4 * rounds && s.iter % 4 >= 2)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            // The sum of no floats is -0.0.
            .fold(0.0, |a, b| a + b)
    };
    let build_share = span_ns("build") / span_ns("run_dag");

    // The ledger: counts of one W=1 iteration and prices from the build
    // without telemetry, against the T₁ that build measured.
    let vertices = w.vertices as f64;
    let t1_ns = reference_median("ns_per_vertex_w1") * vertices;
    let program_ns = reference_median("work_efficiency") * t1_ns;
    let rows = at_1.per_iteration.last().map(|c| ledger(c, &price, program_ns)).unwrap_or_default();
    let explained_ns: f64 = rows.iter().map(|r| r.count * r.price_ns).sum();
    eprintln!("ledger of {name} at W=1: T1 = {:.0} ns over {vertices} vertices", t1_ns);
    for r in &rows {
        let ns = r.count * r.price_ns;
        eprintln!(
            "  {:<54} {:>9.0} x {:>9.1} ns = {:>12.0} ns  {:>5.1} %",
            r.what,
            r.count,
            r.price_ns,
            ns,
            100.0 * ns / t1_ns
        );
    }

    let trace_path = outdir.join(format!("trace_{name}.json"));
    let ledger_json = rows
        .iter()
        .map(|r| {
            json::obj([
                ("what", json::str(r.what)),
                ("count", Value::Num(r.count)),
                ("price_ns", Value::Num(r.price_ns)),
            ])
        })
        .collect();
    let other = json::obj([("t1_ns", Value::Num(t1_ns)), ("ledger", Value::Arr(ledger_json))]);
    let mut chrome = tracer.to_chrome_json(name);
    // Chrome's format keeps free-form data beside the events.
    chrome.truncate(chrome.trim_end().len() - 1);
    chrome.push_str(&format!(", \"otherData\": {}}}\n", other.to_json()));
    std::fs::write(&trace_path, chrome).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!("bench: wrote {}", trace_path.display());

    // The metrics, in the order BENCHMARK.json lists them.
    let mut records = prices.clone();
    records.extend(obs_records);
    let record = |metric: &str, unit: &str, summary: Summary, over: &str| Record {
        workload: name.to_string(),
        metric: metric.to_string(),
        unit: unit.to_string(),
        summary,
        over: over.to_string(),
        env: env.clone(),
    };
    let once =
        |metric: &str, unit: &str, value: f64| record(metric, unit, Summary::single(value), "once");
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let per_kvertex = |n: u64| ratio(1e3 * n as f64, at_w.walls_s.len() as f64 * vertices);
    let w_count = |name: &str| at_w.count(name);
    let increments = at_w.count("spdag.spawns")
        + at_w.count("spdag.futures_created")
        + forks(&w_count, at_w.walls_s.len() as f64);
    let traced_vps =
        ratio(vertices, if at_w.walls_s.is_empty() { 0.0 } else { stats::median(&at_w.walls_s) });
    // From the reference run; it has no tail with ten iterations or fewer
    // (the smoke test's case).
    for (metric, unit) in
        [("pool.speedup", "ratio"), ("pool.iter_ms_tail", "ms"), ("run.setup_cold_s", "s")]
    {
        records.push(reference_of(metric).cloned().unwrap_or_else(|| once(metric, unit, 0.0)));
    }
    let imbalance = if at_w.imbalance.is_empty() {
        Summary::single(0.0)
    } else {
        stats::summarize(&at_w.imbalance)
    };
    let fresh =
        |alloc: &str, reuse: &str| ratio(at_w.count(alloc), at_w.count(alloc) + at_w.count(reuse));
    let attempted = at_w.attempted + at_1.attempted + u64::from(ELISION_SPANS) + WARMUPS as u64;
    let failed =
        at_w.failed + at_1.failed + warm_failed + u64::from(!elision_ok) + u64::from(!counts_exact);
    records.extend([
        once("pool.steals_per_kvertex", "1/kvertex", per_kvertex(at_w.steals)),
        once("pool.parks_per_kvertex", "1/kvertex", per_kvertex(at_w.parks)),
        once("pool.wakeups_per_kvertex", "1/kvertex", per_kvertex(at_w.wakeups)),
        once("pool.spurious_wake_share", "ratio", ratio(at_w.spurious as f64, at_w.parks as f64)),
        record("pool.task_imbalance", "ratio", imbalance, "iterations"),
        once("pool.cpu_s_per_wall_s", "ratio", ratio(at_w.user_s + at_w.sys_s, at_w.wall_s)),
        once("pool.sys_cpu_share", "ratio", ratio(at_w.sys_s, at_w.user_s + at_w.sys_s)),
        once("spdag.build_share", "ratio", if build_share.is_finite() { build_share } else { 0.0 }),
        once("spdag.suspends_per_kvertex", "1/kvertex", per_kvertex(at_w.suspends)),
        once(
            "sched.vertex_fresh_share",
            "ratio",
            fresh("sched.vertex_alloc", "sched.vertex_reuse"),
        ),
        once(
            "outset.block_fresh_share",
            "ratio",
            fresh("outset.blocks_allocated", "outset.blocks_reused"),
        ),
        once(
            "outset.lost_cas_per_add",
            "ratio",
            ratio(at_w.count("outset.lost_cas"), at_w.count("outset.adds")),
        ),
        once(
            "outset.splits",
            "count",
            ratio(at_w.count("outset.splits"), at_w.walls_s.len() as f64),
        ),
        once(
            "epoch.pins_per_add",
            "ratio",
            ratio(at_w.count("epoch.pins"), at_w.count("outset.adds")),
        ),
        once("snzi.grows_per_spawn", "ratio", ratio(at_w.count("snzi.grow_installs"), increments)),
        once(
            "obs.overhead_share",
            "ratio",
            1.0 - ratio(traced_vps, reference_median("vertices_per_s")),
        ),
        once("ledger.explained_share", "ratio", ratio(explained_ns, t1_ns)),
        once("ledger.unexplained_ns_per_vertex", "ns", (t1_ns - explained_ns) / vertices),
        once("trace.counts_exact", "bool", f64::from(u8::from(counts_exact))),
        once("run.failed_share", "ratio", failed as f64 / attempted as f64),
    ]);
    Ok(Report { records, extras: Vec::new(), attempted, failed })
}
