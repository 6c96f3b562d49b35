//! The one record schema of the benchmark, its reader and writer, and the
//! result line the driver reads.

use std::path::Path;

use crate::json::{self, Value};
use crate::stats::Summary;

/// What every record says about the machine and the run it came from.
#[derive(Clone, Debug)]
pub struct Env {
    pub cores: usize,
    pub workers: usize,
    pub seed: u64,
    pub rev: String,
    pub rustc: String,
}

/// One metric of one workload. `over` names what the quartiles are taken
/// over: `iterations` or `batches` inside one process, `runs` once
/// `bench merge` has folded several processes, `once` for a single value.
#[derive(Clone, Debug)]
pub struct Record {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub summary: Summary,
    pub over: String,
    pub env: Env,
}

impl Record {
    fn to_value(&self) -> Value {
        json::obj([
            ("workload", json::str(&self.workload)),
            ("metric", json::str(&self.metric)),
            ("unit", json::str(&self.unit)),
            ("median", Value::Num(self.summary.median)),
            ("q1", Value::Num(self.summary.q1)),
            ("q3", Value::Num(self.summary.q3)),
            ("samples", Value::Num(self.summary.samples as f64)),
            ("over", json::str(&self.over)),
            ("cores", Value::Num(self.env.cores as f64)),
            ("workers", Value::Num(self.env.workers as f64)),
            ("seed", Value::Num(self.env.seed as f64)),
            ("rev", json::str(&self.env.rev)),
            ("rustc", json::str(&self.env.rustc)),
        ])
    }

    fn from_value(v: &Value) -> Result<Record, String> {
        let text = |k: &str| {
            v.get(k).and_then(Value::as_str).map(str::to_string).ok_or(format!("record lacks {k}"))
        };
        // A non-finite statistic is written as null; read it back as NaN.
        let num = |k: &str| match v.get(k) {
            Some(Value::Num(n)) => Ok(*n),
            Some(Value::Null) => Ok(f64::NAN),
            _ => Err(format!("record lacks {k}")),
        };
        Ok(Record {
            workload: text("workload")?,
            metric: text("metric")?,
            unit: text("unit")?,
            summary: Summary {
                median: num("median")?,
                q1: num("q1")?,
                q3: num("q3")?,
                samples: num("samples")? as usize,
            },
            over: text("over")?,
            env: Env {
                cores: num("cores")? as usize,
                workers: num("workers")? as usize,
                seed: num("seed")? as u64,
                rev: text("rev")?,
                rustc: text("rustc")?,
            },
        })
    }

    /// `fib vertices_per_s 4.07e6 1/s (q1 .. q3 .. n=80 over iterations)`.
    pub fn line(&self) -> String {
        let s = &self.summary;
        let spread = if s.samples > 1 {
            format!("  (q1 {:.6} q3 {:.6} n={} over {})", s.q1, s.q3, s.samples, self.over)
        } else {
            String::new()
        };
        format!(
            "{:<17} {:<34} {:>16.6} {}{}",
            self.workload, self.metric, s.median, self.unit, spread
        )
    }
}

/// A result set is a JSON array of records, one per line.
pub fn write_records(path: &Path, records: &[Record]) -> Result<(), String> {
    let mut text = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        text.push_str("  ");
        text.push_str(&r.to_value().to_json());
        text.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    text.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_records(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let items = v.as_arr().ok_or(format!("{}: not an array of records", path.display()))?;
    items
        .iter()
        .map(Record::from_value)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What one invocation measured: the records, and the verdict the driver
/// reads from the last line of standard output.
pub struct Report {
    /// The metrics of the result line.
    pub records: Vec<Record>,
    /// Metrics measured on the way that belong to another invocation's
    /// result line; printed and written to `--out`, not in the line.
    pub extras: Vec<Record>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Print every metric by name with its unit (to standard error, so the
    /// result line stays last on standard output), write the records if
    /// asked to, and print the result line.
    pub fn emit(&self, out: Option<&Path>) -> Result<(), String> {
        let all: Vec<Record> = self.records.iter().chain(&self.extras).cloned().collect();
        for r in &all {
            eprintln!("{}", r.line());
        }
        if let Some(path) = out {
            write_records(path, &all)?;
        }
        let metrics = self
            .records
            .iter()
            .map(|r| {
                let m = json::obj([
                    ("value", Value::Num(r.summary.median)),
                    ("unit", json::str(&r.unit)),
                ]);
                (r.metric.clone(), m)
            })
            .collect();
        let line = json::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ]);
        println!("{}", line.to_json());
        Ok(())
    }
}
