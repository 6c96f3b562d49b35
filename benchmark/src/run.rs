//! `bench run`: the end-to-end measurement of one workload in one
//! process. README.md has the protocol and the reason for each step.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::affinity::Affinity;
use crate::hang;
use crate::record::{Env, Record, Report};
use crate::span::Probe;
use crate::stats::{self, Summary};
use crate::workloads::{calibrate_dummy_unit_ns, Kind, Workload};

/// Set-up is done this many times and its median reported, so that one
/// slow start does not decide `setup_s`.
const SETUP_REPS: usize = 5;
/// Untimed iterations at W in every set-up: they fill the slab and block
/// caches and the `OnceLock` policies, and leave the process in the state
/// a W-worker run leaves it in, so every W=1 number is taken in that one
/// state.
pub const WARMUPS: usize = 3;
/// An elision sample loops the sequential program for at least this long.
const ELISION_SAMPLE: Duration = Duration::from_millis(50);

pub struct Options {
    pub kind: Kind,
    pub seconds: f64,
    pub quick: bool,
    pub out: Option<PathBuf>,
    pub env: Env,
}

/// Everything measured so far. Shared with the hang monitor, which
/// reports from it if a run stalls.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    wall_w_s: Vec<f64>,
    wall_1_s: Vec<f64>,
    /// Per elision sample: its wall over the mean W=1 wall of its round.
    efficiency: Vec<f64>,
    dummy_unit_ns: f64,
    attempted: u64,
    failed: u64,
}

impl Samples {
    /// Count one verified execution; a failed one contributes no timing.
    fn count(&mut self, failure: Option<String>, what: &str) -> bool {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            eprintln!("bench: {what} failed: {why}");
            return false;
        }
        true
    }
}

pub fn run(opts: Options, started: Instant) -> Result<Report, String> {
    if obs::enabled() {
        return Err("end-to-end numbers come from the build without `telemetry`".to_string());
    }
    let Options { kind, seconds, quick, out, env } = opts;
    let workers = env.workers;
    let samples = Arc::new(Mutex::new(Samples::default()));
    // The shape, not the values, decides the vertex count.
    let vertices = Workload::generate(kind, env.seed, quick).vertices;
    let make_report = {
        let env = env.clone();
        move |s: &Samples| report(kind, vertices, s, &env)
    };
    let _monitor = {
        let (samples, make_report, out) = (Arc::clone(&samples), make_report.clone(), out);
        hang::Monitor::install(move || {
            let mut s = samples.lock().unwrap_or_else(|e| e.into_inner());
            s.count(Some("the pool stalled".to_string()), "iteration");
            let _ = make_report(&s).emit(out.as_deref());
        })
    };
    let lock = || samples.lock().unwrap_or_else(|e| e.into_inner());

    // Set-up: inputs from the seed, the work-unit calibration, warm-ups
    // at W. The first repetition starts at process start and so includes
    // argument parsing and everything lazy.
    let mut workload = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { started } else { Instant::now() };
        let w = Workload::generate(kind, env.seed, quick);
        let unit_ns = calibrate_dummy_unit_ns();
        for _ in 0..WARMUPS {
            let it = w.run(workers, &Probe::off());
            lock().count(it.failure, "warm-up");
        }
        let mut s = lock();
        s.setup_s.push(t0.elapsed().as_secs_f64());
        s.dummy_unit_ns = unit_ns;
        workload = Some(w);
    }
    let w = workload.expect("SETUP_REPS is positive");

    // Rounds of two iterations at W and two at W=1 (those pinned to one
    // CPU, see `crate::affinity`), with an elision sample after a round
    // whenever the elision has had less than a tenth of the time so far,
    // so that drift lands on all three alike.
    let begun = Instant::now();
    let deadline = begun + Duration::from_secs_f64(seconds);
    let mut in_elision = Duration::ZERO;
    let elision_sample = if quick { ELISION_SAMPLE / 25 } else { ELISION_SAMPLE };
    let affinity = Affinity::current().map_err(|e| format!("CPU affinity: {e}"))?;
    let mut scratch = Vec::new();
    let mut round = 0u64;
    while round < 4 || Instant::now() < deadline {
        for _ in 0..2 {
            let it = w.run(workers, &Probe::off());
            let mut s = lock();
            if s.count(it.failure, "iteration at W") {
                s.wall_w_s.push(it.wall.as_secs_f64());
            }
        }
        let mut round_w1 = Vec::new();
        for _ in 0..2 {
            let it = affinity.pinned(|| w.run(1, &Probe::off()));
            let mut s = lock();
            if s.count(it.failure, "iteration at W=1") {
                s.wall_1_s.push(it.wall.as_secs_f64());
                round_w1.push(it.wall.as_secs_f64());
            }
        }
        if in_elision * 10 <= begun.elapsed() {
            // On the CPU the W=1 iterations ran on, so that the two sides
            // of `work_efficiency` see the same neighbours.
            let (elapsed, reps, ok) = affinity.pinned(|| {
                let (t0, mut reps, mut ok) = (Instant::now(), 0u32, true);
                while t0.elapsed() < elision_sample {
                    ok &= w.elision_ok(std::hint::black_box(w.elision(&mut scratch)));
                    reps += 1;
                }
                (t0.elapsed(), reps, ok)
            });
            in_elision += elapsed;
            let per_rep = elapsed.as_secs_f64() / f64::from(reps);
            let mut s = lock();
            let failure = (!ok).then(|| "output differs between repetitions".to_string());
            if s.count(failure, "elision") && !round_w1.is_empty() {
                s.efficiency.push(per_rep * round_w1.len() as f64 / round_w1.iter().sum::<f64>());
            }
        }
        round += 1;
    }
    let samples = lock();
    Ok(make_report(&samples))
}

/// `VmHWM`, the peak resident set, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn report(kind: Kind, vertices: u64, s: &Samples, env: &Env) -> Report {
    let record = |metric: &str, unit: &str, summary: Summary, over: &str| Record {
        workload: kind.name().to_string(),
        metric: metric.to_string(),
        unit: unit.to_string(),
        summary,
        over: over.to_string(),
        env: env.clone(),
    };
    let v = vertices as f64;
    let summary = |samples: &[f64]| (!samples.is_empty()).then(|| stats::summarize(samples));
    let (wall_w, wall_1) = (summary(&s.wall_w_s), summary(&s.wall_1_s));

    // The end-to-end metrics, in the order BENCHMARK.json lists them. One
    // that has no sample yet (a stall before its first) is left out.
    let mut records = Vec::new();
    if let Some(setup) = summary(&s.setup_s) {
        records.push(record("setup_s", "s", setup, "repetitions"));
    }
    if let Some(w) = wall_w {
        records.push(record("vertices_per_s", "1/s", w.map(|t| v / t), "iterations"));
    }
    if let Some(w1) = wall_1 {
        records.push(record("ns_per_vertex_w1", "ns", w1.map(|t| t * 1e9 / v), "iterations"));
    }
    // The ratio is taken per elision sample against the W=1 iterations of
    // the same round, so a slow spell that covers both cancels.
    if let Some(efficiency) = summary(&s.efficiency) {
        records.push(record("work_efficiency", "ratio", efficiency, "rounds"));
    }
    if let Some(rss) = peak_rss_mb() {
        records.push(record("peak_rss_mb", "MiB", Summary::single(rss), "once"));
    }

    // Per-layer numbers this run has for free; the traced run reports
    // them, the result line of this one does not.
    let mut extras = Vec::new();
    if let (Some(w), Some(w1)) = (wall_w, wall_1) {
        let speedup = Summary::single(w1.median / w.median);
        extras.push(record("pool.speedup", "ratio", speedup, "once"));
    }
    if let Some((pct, value)) = stats::tail(&s.wall_w_s) {
        let tail = Summary { samples: s.wall_w_s.len(), ..Summary::single(value * 1e3) };
        extras.push(record("pool.iter_ms_tail", "ms", tail, &format!("iterations-p{pct:.0}")));
    }
    if let Some(&cold) = s.setup_s.first() {
        extras.push(record("run.setup_cold_s", "s", Summary::single(cold), "once"));
    }
    let failed_share = s.failed as f64 / s.attempted.max(1) as f64;
    let share = Summary { samples: s.attempted as usize, ..Summary::single(failed_share) };
    extras.push(record("run.failed_share", "ratio", share, "iterations"));
    extras.push(record("work.dummy_unit_ns", "ns", Summary::single(s.dummy_unit_ns), "once"));

    Report { records, extras, attempted: s.attempted, failed: s.failed }
}
