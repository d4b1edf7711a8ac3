//! `e2e compare <dirA> <dirB>`: hold two sets of `--json` result files
//! against each other, metric by metric, with the bounds of
//! `BENCHMARK.json`. B is the candidate, A the baseline; run it on two sets
//! of the same code for an A/A study.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// One end-to-end metric of the contract.
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let contract = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    contract
        .get("end_to_end")
        .map_or(&[][..], Json::items)
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Bound>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// workload → metric → one value per untraced run found in `dir`.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if run.get("trace") != Some(&Json::Bool(false)) {
            continue; // end-to-end metrics are never taken from a traced run
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", path.display()))?;
        let metrics = runs.entry(workload.to_string()).or_default();
        for (name, metric) in run.get("metrics").map_or(&[][..], Json::fields) {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                metrics.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(runs)
}

/// How much worse `candidate` is than `baseline`, as a share of `baseline`
/// (negative when it is better).
pub fn worsening(baseline: f64, candidate: f64, higher_is_better: bool) -> f64 {
    let change = (candidate - baseline) / baseline;
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Distance between the quartiles as a percentage of the median.
fn spread(values: &[f64], mid: f64) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / mid * 100.0
}

/// Print the comparison; `Ok(false)` when a gap exceeds its bound.
pub fn compare(dir_a: &str, dir_b: &str) -> Result<bool, String> {
    let bounds = bounds(crate::BENCHMARK_JSON)?;
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let mut within = true;
    println!(
        "{:<9} {:<19} {:>3} {:>12} {:>7} {:>3} {:>12} {:>7} {:>8} {:>6}",
        "workload",
        "metric",
        "nA",
        "median A",
        "iqr A%",
        "nB",
        "median B",
        "iqr B%",
        "worse %",
        "bound"
    );
    for (workload, metrics_a) in &a {
        for bound in &bounds {
            let (Some(va), Some(vb)) = (
                metrics_a.get(&bound.name),
                b.get(workload).and_then(|m| m.get(&bound.name)),
            ) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let gap = worsening(ma, mb, bound.higher_is_better);
            let ok = gap <= bound.bound;
            within &= ok;
            println!(
                "{workload:<9} {:<19} {:>3} {ma:>12.4} {:>7.2} {:>3} {mb:>12.4} {:>7.2} {:>8.2} {:>6.1}{}",
                bound.name,
                va.len(),
                spread(va, ma),
                vb.len(),
                spread(vb, mb),
                gap * 100.0,
                bound.bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    if a.is_empty() || b.is_empty() {
        return Err("no untraced result files to compare".into());
    }
    Ok(within)
}
