//! Unit tests of the harness itself (run by `cargo test`): every workload
//! end to end in `--quick` mode, the generators' determinism, and that
//! `BENCHMARK.json` and `--list` name the same things.

use super::*;
use crate::json::Json;

fn quick(workload: Workload, trace: bool) -> Report {
    let args = Args {
        trace,
        quick: true,
        // Not beside the executable, where other builds' tests write too.
        spans: Some(std::env::temp_dir().join(format!("e2e-test-{}.jsonl", workload.name()))),
        ..parse_args(&["--workload".into(), workload.name().into()]).unwrap()
    };
    run_workload(&args).unwrap()
}

#[test]
fn every_workload_runs_clean_in_quick_mode() {
    for workload in Workload::ALL {
        let report = quick(workload, false);
        assert_eq!(report.failures, Vec::<String>::new(), "{}", workload.name());
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, listed);
        for (name, _, value) in &report.metrics {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
    }
}

#[test]
fn every_workload_traces_clean_in_quick_mode() {
    for workload in Workload::ALL {
        let report = quick(workload, true);
        assert_eq!(report.failures, Vec::<String>::new(), "{}", workload.name());
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().2;
        assert!(report.metrics.iter().all(|m| m.2.is_finite()));
        // The layers a workload exists for did run, and were seen running.
        let expected = match workload {
            Workload::Talkback => "query.translate_us",
            Workload::Churn => "stats.collect_us",
            _ => "exec.execute_us",
        };
        assert!(value(expected) > 0.0, "{} {expected}", workload.name());
        assert!(value("exec.parallel_speedup") > 0.0, "{}", workload.name());
    }
}

#[test]
fn statement_lists_depend_on_the_seed_and_on_nothing_else() {
    for workload in Workload::ALL {
        let list = |seed| {
            let db = workload.database(true);
            format!("{:?}", workload.slots(seed, &db, true))
        };
        assert_eq!(list(1), list(1), "{}", workload.name());
        assert_ne!(list(1), list(2), "{}", workload.name());
    }
}

#[test]
fn slot_minimum_keeps_the_fastest_observation_per_slot() {
    let ops = vec![Op::Summary, Op::Summary];
    let mut timing = run::Timing::new(ops.len());
    let mut observations = [[30, 500], [10, 700], [20, 600]].into_iter();
    for keep in [run::Keep::Cold, run::Keep::Timed, run::Keep::Timed] {
        let ns = observations.next().unwrap();
        let total = run::pass(&ops, &mut timing, keep, |slot, _| {
            (ns[slot], Ok(verify::Outcome::Text("Fine.".into())))
        });
        assert_eq!(total, ns[0] + ns[1]);
    }
    assert_eq!(timing.cold_ns, [30, 500]);
    assert_eq!(timing.fastest_ns, [10, 600]);
    assert!(timing.failures.iter().all(Option::is_none));

    // An answer that changes between passes, and a narration that stops
    // mid-sentence, both fail their slot.
    let ops = vec![Op::Run("select 1".into()), Op::Summary];
    let mut timing = run::Timing::new(ops.len());
    for count in [1, 2] {
        run::pass(&ops, &mut timing, run::Keep::Timed, |slot, _| {
            let outcome = match slot {
                0 => verify::Outcome::Count(count),
                _ => verify::Outcome::Text("It goes on and".into()),
            };
            (1, Ok(outcome))
        });
    }
    assert!(timing.failures.iter().all(Option::is_some));
}

#[test]
fn narration_checks_want_a_finished_text_that_names_the_constants() {
    let sql = "select m.title from MOVIES m, GENRE g where g.genre = 'action'";
    assert_eq!(verify::string_literals(sql), ["action"]);
    assert!(verify::check_narration(sql, "Find the action movies.").is_ok());
    assert!(verify::check_narration(sql, "Find the movies.").is_err());
    assert!(verify::check_narration(sql, "Find the action movies").is_err());
    assert!(verify::check_narration("", "").is_err());
}

#[test]
fn benchmark_json_and_list_name_the_same_things() {
    let contract = Json::parse(BENCHMARK_JSON).unwrap();
    let mut committed = Vec::new();
    for (kind, key) in [
        ("workload", "workloads"),
        ("end_to_end", "end_to_end"),
        ("per_layer", "per_layer"),
    ] {
        for entry in contract.get(key).unwrap().items() {
            let name = entry.get("name").unwrap().as_str().unwrap();
            let mut line = format!("{kind} {name}");
            for key in ["unit", "better"] {
                if let Some(value) = entry.get(key) {
                    line.push_str(&format!(" {}", value.as_str().unwrap()));
                }
            }
            committed.push(line);
            assert!(!name.is_empty() && name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
    let listed: Vec<String> = list().lines().map(str::to_string).collect();
    assert_eq!(committed, listed);
    assert!(compare::bounds(BENCHMARK_JSON)
        .unwrap()
        .iter()
        .all(|b| b.bound > 0.0 && b.bound <= 0.25));
}

#[test]
fn compare_measures_worsening_in_the_metric_s_own_direction() {
    assert!((compare::worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
    assert!((compare::worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
    assert!((compare::worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
}
