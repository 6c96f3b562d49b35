//! `bench`: the repository's benchmark. README.md says what it measures
//! and why; `bench help` lists the subcommands.

mod affinity;
mod agree;
mod hang;
mod json;
mod layers;
mod record;
mod run;
mod span;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use record::Env;
use workloads::Kind;

const USAGE: &str = "\
usage: bench <subcommand> [options]

  run    --workload <name>   end-to-end metrics of one workload (build without `telemetry`)
  layers                     the per-layer price list (build without `telemetry`)
  trace  --workload <name> --plain <bench built without telemetry>
                             per-layer metrics of one workload, spans and the cost ledger
                             (build with `--features telemetry`)
  merge  --out <file> <result files...>
                             fold result files into one set; several runs of a workload
                             become one record with quartiles over the runs
  agree  <a.json> <b.json> [--bounds <BENCHMARK.json>]
                             compare two result sets against the benchmark's bounds

options of run, layers and trace:
  --seed <u64>       inputs are generated from it (default 1)
  --seconds <s>      how long `run` measures (default 20, as BENCHMARK.json has it)
  --workers <W>      default min(nproc, 4); refused above nproc
  --quick            smoke-test sizes; the numbers mean nothing
  --out <file>       also write the records there
  --outdir <dir>     where `trace` writes trace_<workload>.json (default: out/ in the package)
  --rev <rev> --rustc <version>   recorded in every record

workloads: fib fanin_grain fanout_broadcast pipeline_stages await_chain";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Options after the subcommand, checked where they enter.
#[derive(Default)]
struct Args {
    workload: Option<Kind>,
    seed: Option<u64>,
    seconds: Option<f64>,
    workers: Option<usize>,
    quick: bool,
    out: Option<PathBuf>,
    outdir: Option<PathBuf>,
    plain: Option<PathBuf>,
    bounds: Option<PathBuf>,
    rev: Option<String>,
    rustc: Option<String>,
    files: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let kind = Kind::parse(name).ok_or(format!("unknown workload {name}"))?;
                parsed.workload = Some(kind);
            }
            "--seed" => {
                parsed.seed = Some(value()?.parse().map_err(|_| "--seed takes a u64")?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--workers" => {
                let w: usize = value()?.parse().map_err(|_| "--workers takes a count")?;
                parsed.workers = Some(w);
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?.into()),
            "--outdir" => parsed.outdir = Some(value()?.into()),
            "--plain" => parsed.plain = Some(value()?.into()),
            "--bounds" => parsed.bounds = Some(value()?.into()),
            "--rev" => parsed.rev = Some(value()?.clone()),
            "--rustc" => parsed.rustc = Some(value()?.clone()),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => parsed.files.push(file.into()),
        }
    }
    Ok(parsed)
}

impl Args {
    /// The machine and run description every record carries. Refuses more
    /// workers than cores: the numbers would measure oversubscription.
    fn env(&self) -> Result<Env, String> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = self.workers.unwrap_or(cores.min(4));
        if workers == 0 || workers > cores {
            return Err(format!("--workers {workers}: this machine has {cores} cores"));
        }
        Ok(Env {
            cores,
            workers,
            seed: self.seed.unwrap_or(1),
            rev: self.rev.clone().unwrap_or_else(|| "unknown".to_string()),
            rustc: self.rustc.clone().unwrap_or_else(|| "unknown".to_string()),
        })
    }

    fn workload(&self) -> Result<Kind, String> {
        self.workload.ok_or_else(|| "--workload is required".to_string())
    }
}

fn dispatch(started: Instant) -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return Err(USAGE.to_string());
    };
    let args = parse_args(rest)?;
    let report = match command.as_str() {
        "run" => run::run(
            run::Options {
                kind: args.workload()?,
                seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
                quick: args.quick,
                out: args.out.clone(),
                env: args.env()?,
            },
            started,
        )?,
        "layers" => layers::layers(args.quick, &args.env()?)?,
        "trace" => trace::trace(trace::Options {
            kind: args.workload()?,
            seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
            quick: args.quick,
            plain: args
                .plain
                .clone()
                .ok_or("trace needs --plain <bench built without telemetry>")?,
            outdir: args
                .outdir
                .clone()
                .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
            env: args.env()?,
        })?,
        "merge" => {
            let out = args.out.as_deref().ok_or("merge needs --out <file>")?;
            return agree::merge(out, &args.files).map(|()| true);
        }
        "agree" => {
            let [a, b] = args.files.as_slice() else {
                return Err("agree takes two result files".to_string());
            };
            let bounds = args.bounds.clone().unwrap_or_else(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
            });
            return agree::agree(a, b, &bounds);
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return Ok(true);
        }
        other => return Err(format!("unknown subcommand {other}\n\n{USAGE}")),
    };
    report.emit(args.out.as_deref())?;
    Ok(report.failed == 0)
}

fn main() -> ExitCode {
    // `setup_s` counts from here.
    let started = Instant::now();
    match dispatch(started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}
