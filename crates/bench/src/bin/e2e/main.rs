//! `e2e`: the repo's one benchmark. Five seeded workloads through the public
//! `Talkback` facade, closed loop, one client, one process; end-to-end
//! metrics from slot minima, every answer verified; and a separate traced
//! run that times each layer from outside. See `README.md` beside this file.

mod compare;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod verify;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Op, Workload, DEFAULT_SEED};

/// The committed contract: workloads, metrics, directions and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

const USAGE: &str = "usage:
  e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
      [--json FILE] [--spans FILE] [--bless FILE]
  e2e --list
  e2e compare <dirA> <dirB>";

struct Args {
    workload: Workload,
    seed: u64,
    /// Time to spend on timed passes.
    seconds: f64,
    trace: bool,
    /// One epoch, one pass, small databases: the unit tests' mode.
    quick: bool,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
    bless: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Talkback,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        quick: false,
        json: None,
        spans: None,
        bless: None,
    };
    let mut named = false;
    let mut words = argv.iter();
    while let Some(flag) = words.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = words
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<f64, String> {
            value
                .parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::from_name(value)
                    .ok_or_else(|| format!("no workload named {value}"))?;
                named = true;
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: not a whole number"))?
            }
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0.0,
            "--json" => args.json = Some(value.into()),
            "--spans" => args.spans = Some(value.into()),
            "--bless" => args.bless = Some(value.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if named {
        Ok(args)
    } else {
        Err("--workload is required".into())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", list());
            Ok(true)
        }
        Some("compare") if argv.len() == 3 => compare::compare(&argv[1], &argv[2]),
        _ => parse_args(&argv).and_then(|args| measure(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Every workload and metric, one per line, as `kind name [unit better]`.
fn list() -> String {
    let mut out = String::new();
    for w in Workload::ALL {
        out.push_str(&format!("workload {}\n", w.name()));
    }
    for (kind, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for (name, unit, better) in defs {
            out.push_str(&format!("{kind} {name} {unit} {better}\n"));
        }
    }
    out
}

/// What one run reports.
struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: usize,
    failures: Vec<String>,
    noise_index: f64,
}

/// Run one workload, print its metrics, and say whether every check passed.
fn measure(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = run_workload(args)?;
    let failed = report.failures.len();
    println!(
        "e2e workload={} seed={} trace={} nproc={nproc} noise_index={:.3}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.noise_index,
    );
    for (name, unit, value) in &report.metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    println!(
        "{:<32} {:>16.4} ratio ({failed} of {} checks)",
        "failed_share",
        failed as f64 / report.attempted as f64,
        report.attempted
    );
    for failure in report.failures.iter().take(10) {
        eprintln!("failed: {failure}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    let result = format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}",
        failed == 0,
        report.attempted,
        metrics.join(", ")
    );
    if let Some(path) = &args.json {
        let file = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
             \"noise_index\": {}, {result}}}\n",
            json::quote(args.workload.name()),
            args.seed,
            args.trace,
            report.noise_index
        );
        std::fs::write(path, file).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{{{result}}}");
    Ok(failed == 0)
}

fn run_workload(args: &Args) -> Result<Report, String> {
    let Args {
        workload,
        seed,
        quick,
        ..
    } = *args;
    // The statement list needs the data's key ranges and names; the
    // database it is drawn from is the one every epoch rebuilds.
    let db = workload.database(quick);
    let ops = workload.slots(seed, &db, quick);
    let initial_rows = verify::row_counts(&db);
    drop(db);

    let mut failures: Vec<String>;
    let mut attempted = ops.len();
    let metrics;
    let noise_index;
    if args.trace {
        let traced = trace::run_traced(workload, &ops, quick, args.seconds);
        failures = slot_failures(&ops, &traced.timing.failures);
        let narration = metrics::narration_quality(&traced.session.system, &ops);
        let values = metrics::per_layer(&traced, &narration);
        metrics = named(&PER_LAYER, values);
        noise_index = metrics::noise(&traced.timing.calib_ns).1;
        let path = args.spans.clone().unwrap_or_else(|| {
            // Beside the executable: inside the build directory, wherever
            // that is, and never in the source tree.
            let mut path = std::env::current_exe().unwrap_or_else(|_| "e2e".into());
            path.set_file_name(format!("e2e-spans-{}.jsonl", workload.name()));
            path
        });
        traced
            .tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans: {}", path.display());
    } else {
        let (timing, session) = run::run(workload, &ops, quick, args.seconds);
        let peak_rss_mib = stats::peak_rss_mib();
        failures = slot_failures(&ops, &timing.failures);
        let system = &session.system;

        if workload.writes() {
            attempted += 1;
            let rows = verify::row_counts(system.database());
            if rows != initial_rows {
                failures.push(format!(
                    "rows after the sweep {rows:?}, before {initial_rows:?}"
                ));
            }
        } else {
            for (slot, why) in
                verify::reference_mismatches(system, seed, &ops, &timing.fingerprints)
            {
                if timing.failures[slot].is_none() {
                    failures.push(format!("slot {slot} {:?}: {why}", ops[slot]));
                }
            }
        }
        let digest = verify::digest(&timing.fingerprints);
        if let Some(path) = &args.bless {
            std::fs::write(path, format!("{digest:016x}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        } else if seed == DEFAULT_SEED && !quick {
            attempted += 1;
            if verify::expected_digest(workload) != Some(digest) {
                failures.push(format!(
                    "digest {digest:016x} differs from expected/{}.digest",
                    workload.name()
                ));
            }
        }
        let narration = metrics::narration_quality(system, &ops);
        metrics = named(
            &END_TO_END,
            metrics::end_to_end(&timing, &narration, peak_rss_mib),
        );
        noise_index = metrics::noise(&timing.calib_ns).1;
        eprintln!(
            "slots={} epochs={} timed_passes={} pass_spread_pct={:.1} select_slots={}",
            ops.len(),
            timing.setup_ns.len(),
            timing.pass_ns.len(),
            metrics::pass_spread_pct(&timing.pass_ns),
            narration.selects,
        );
    }
    Ok(Report {
        metrics,
        attempted,
        failures,
        noise_index,
    })
}

fn named(defs: &[metrics::Def], values: Vec<f64>) -> Vec<(&'static str, &'static str, f64)> {
    defs.iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| (name, unit, value))
        .collect()
}

fn slot_failures(ops: &[Op], failures: &[Option<String>]) -> Vec<String> {
    failures
        .iter()
        .enumerate()
        .filter_map(|(slot, why)| Some(format!("slot {slot} {:?}: {}", ops[slot], why.as_ref()?)))
        .collect()
}

#[cfg(test)]
mod tests;
