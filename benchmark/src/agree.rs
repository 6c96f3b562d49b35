//! `bench merge` and `bench agree`: fold the result files of several
//! processes into one set, and compare two sets by the rule the driver of
//! this benchmark applies to it.

use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::record::{read_records, write_records, Record};
use crate::stats;

/// Fold result files into one set. A (workload, metric) pair that several
/// files report — one workload run several times, each with its own seed
/// — becomes one record: the median and quartiles of the runs' medians.
/// Every metric is printed by name with its unit.
pub fn merge(out: &Path, files: &[PathBuf]) -> Result<(), String> {
    if files.is_empty() {
        return Err("merge needs result files".to_string());
    }
    let mut groups: Vec<Vec<Record>> = Vec::new();
    for file in files {
        for r in read_records(file)? {
            match groups.iter_mut().find(|g| g[0].workload == r.workload && g[0].metric == r.metric)
            {
                Some(group) => group.push(r),
                None => groups.push(vec![r]),
            }
        }
    }
    let merged: Vec<Record> = groups
        .into_iter()
        .map(|mut group| {
            if group.len() == 1 {
                return group.remove(0);
            }
            let medians: Vec<f64> = group.iter().map(|r| r.summary.median).collect();
            let mut first = group.remove(0);
            first.summary = stats::summarize(&medians);
            first.over = "runs".to_string();
            first
        })
        .collect();
    for r in &merged {
        println!("{}", r.line());
    }
    write_records(out, &merged)
}

struct Bound {
    metric: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_bounds(path: &Path) -> Result<(Vec<String>, Vec<Bound>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let malformed = || format!("{}: not a BENCHMARK.json", path.display());
    let list = |key: &str| v.get(key).and_then(Value::as_arr).ok_or_else(malformed);
    let name = |item: &Value| item.get("name").and_then(Value::as_str).map(str::to_string);
    let workloads =
        list("workloads")?.iter().map(name).collect::<Option<_>>().ok_or_else(malformed)?;
    let bounds = list("end_to_end")?
        .iter()
        .map(|item| {
            Some(Bound {
                metric: name(item)?,
                lower_is_better: item.get("better")?.as_str()? == "lower",
                bound: item.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(malformed)?;
    Ok((workloads, bounds))
}

/// One row per (end-to-end metric, workload): `within`, `worse` when b's
/// median is worse than a's by more than the bound, `unresolved` when
/// either set's quartile spread is wider than the bound (`setup_s` is
/// exempt from that, as it is in the driver), `missing` when a set lacks
/// the record. Returns whether every row is `within`.
pub fn agree(a: &Path, b: &Path, bounds: &Path) -> Result<bool, String> {
    let (workloads, bounds) = read_bounds(bounds)?;
    let (set_a, set_b) = (read_records(a)?, read_records(b)?);
    let find = |set: &[Record], w: &str, m: &str| {
        set.iter().find(|r| r.workload == w && r.metric == m).map(|r| r.summary)
    };
    println!(
        "{:<17} {:<17} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "change", "spread a", "spread b", "bound"
    );
    let mut all_within = true;
    for w in &workloads {
        for bound in &bounds {
            let m = &bound.metric;
            let (Some(sa), Some(sb)) = (find(&set_a, w, m), find(&set_b, w, m)) else {
                println!("{w:<17} {m:<17} {:>71}  missing", "");
                all_within = false;
                continue;
            };
            // Positive when b is worse than a.
            let change = (sb.median - sa.median) / sa.median.abs()
                * if bound.lower_is_better { 1.0 } else { -1.0 };
            let spread = sa.spread().max(sb.spread());
            let verdict = if change > bound.bound {
                "worse"
            } else if spread > bound.bound && m != "setup_s" {
                "unresolved"
            } else {
                "within"
            };
            all_within &= verdict == "within";
            println!(
                "{w:<17} {m:<17} {:>14.6} {:>14.6} {:>+8.3} {:>8.3} {:>8.3} {:>6.2}  {verdict}",
                sa.median,
                sb.median,
                change,
                sa.spread(),
                sb.spread(),
                bound.bound
            );
        }
    }
    Ok(all_within)
}
