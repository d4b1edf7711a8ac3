//! End-to-end tests of the database doctor: the workload ledger behind
//! `SHOW WORKLOAD`, the what-if advisor behind `ADVISE`, the health report
//! and regression sentinel behind `CHECKUP`, the journal-capacity knob, and
//! the acceptance gate — on a ×1000 movie database the advisor must
//! prescribe a composite index whose base and what-if costs land within 3×
//! of the rows and probes actually counted before and after `CREATE INDEX`.
//!
//! Durations in goldens are normalized to `<t>` first, like the
//! observability suite.

use datastore::sample::{movie_database, scaled_movie_database, ScaleConfig};
use datastore::{ColumnDef, DataType, Database, TableSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use talkback::{PlannerOptions, Talkback};
use talkback_tests::{counted_run, normalize_durations};

/// Median wall-clock time of `runs` executions of one statement.
fn median_total(system: &Talkback, sql: &str, runs: usize) -> Duration {
    let mut samples = sample_totals(system, sql, runs);
    samples.sort();
    samples[samples.len() / 2]
}

fn sample_totals(system: &Talkback, sql: &str, runs: usize) -> Vec<Duration> {
    (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            system.run_query(sql).unwrap();
            t0.elapsed()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// SHOW WORKLOAD
// ---------------------------------------------------------------------------

#[test]
fn show_workload_golden_table_and_narration() {
    let system = Talkback::new(movie_database());
    let empty = system.execute_show("show workload").unwrap();
    assert!(
        empty.narration.contains("My workload ledger is empty"),
        "{}",
        empty.narration
    );

    // Three literal variants of one shape plus one distinct shape.
    for name in ["'Brad Pitt'", "'Julia Roberts'", "'G. Loucas'"] {
        system
            .run_query(&format!("select a.id from ACTOR a where a.name = {name}"))
            .unwrap();
    }
    system.run_query("select m.title from MOVIES m").unwrap();

    let report = system.execute_show("show workload").unwrap();
    let table = normalize_durations(&report.table);
    let lines: Vec<&str> = table.lines().collect();
    assert_eq!(lines.len(), 3, "{table}");
    assert!(lines[0].starts_with("statement"), "{}", lines[0]);
    for col in [
        "runs",
        "mean",
        "p95",
        "total",
        "scanned",
        "emitted",
        "access",
        "cache_hits",
    ] {
        assert!(lines[0].contains(col), "missing column {col}: {}", lines[0]);
    }
    // Literal variants share one row; the ledger is sorted heaviest-first,
    // so we only pin membership, not order.
    let actor_row = lines[1..]
        .iter()
        .find(|l| l.starts_with("select a.id from ACTOR a where a.name = ?"))
        .expect("normalized actor shape row");
    assert!(
        actor_row.split_whitespace().any(|t| t == "3"),
        "3 runs: {actor_row}"
    );
    assert!(actor_row.contains("scan ACTOR ×3"), "{actor_row}");
    let movies_row = lines[1..]
        .iter()
        .find(|l| l.starts_with("select m.title from MOVIES m"))
        .expect("movies shape row");
    assert!(movies_row.contains("scan MOVIES ×1"), "{movies_row}");

    let narration = normalize_durations(&report.narration);
    assert!(
        narration.starts_with(
            "I have been watching two distinct statement shapes across four executions."
        ),
        "{narration}"
    );
    assert!(
        narration.contains("The one costing me the most is"),
        "{narration}"
    );
    assert!(narration.contains("(<t> mean, <t> p95)"), "{narration}");
}

/// Regression: the ledger keyed statements by their literals alone, keeping
/// whitespace runs, so three spellings of one shape — which the plan cache
/// already served as one entry — were three rows, and a newline broke the
/// table. The ledger now files a statement under the plan cache's key.
#[test]
fn show_workload_files_spellings_of_one_shape_as_the_plan_cache_does() {
    let system = Talkback::new(movie_database());
    for sql in [
        "select m.title from MOVIES m where m.id = 1",
        "select  m.title from MOVIES m where m.id = 2",
        "select m.title\nfrom MOVIES m where m.id = 3",
    ] {
        system.run_query(sql).unwrap();
    }
    let hits = system
        .database()
        .obs()
        .counter(datastore::obs::Counter::PlanCacheHits);
    assert_eq!(hits, 2, "one plan-cache entry, hit twice");

    let report = system.execute_show("show workload").unwrap();
    let table = normalize_durations(&report.table);
    let rows: Vec<Vec<&str>> = table
        .lines()
        .map(|l| {
            l.split("  ")
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .collect()
        })
        .collect();
    assert_eq!(
        rows,
        [
            vec![
                "statement",
                "runs",
                "mean",
                "p95",
                "total",
                "scanned",
                "emitted",
                "access",
                "cache_hits"
            ],
            vec![
                "select m.title from MOVIES m where m.id = ?",
                "3",
                "<t>",
                "<t>",
                "<t>",
                "3",
                "3",
                "idx pk_movies ×3",
                "2"
            ],
        ],
        "{table}"
    );
    let narration = normalize_durations(&report.narration);
    assert!(
        narration.starts_with(
            "I have been watching one distinct statement shape across three executions."
        ),
        "{narration}"
    );
}

// ---------------------------------------------------------------------------
// ADVISE
// ---------------------------------------------------------------------------

/// A mid-sized database where repeated full scans clear the miner's
/// rows-per-scan floor.
fn clinic_database() -> Database {
    scaled_movie_database(ScaleConfig {
        movies: 150,
        directors: 20,
        actors: 80,
        cast_per_movie: 4,
        genres_per_movie: 2,
        seed: 11,
    })
}

#[test]
fn advise_prescribes_a_costed_index_and_narrates_the_what_if() {
    let system = Talkback::new(clinic_database());
    let quiet = system.execute_show("advise").unwrap();
    assert!(
        quiet
            .narration
            .contains("I have no workload to advise on yet"),
        "{}",
        quiet.narration
    );

    for i in 0..6 {
        system
            .run_query(&format!(
                "select c.role from CAST c where c.aid = {} and c.mid > {}",
                10 + i,
                20 + i
            ))
            .unwrap();
    }

    let report = system.execute_show("advise").unwrap();
    let table = normalize_durations(&report.table);
    let header = table.lines().next().unwrap();
    for col in [
        "rank",
        "recommendation",
        "evidence",
        "runs",
        "mean",
        "predicted",
        "est_speedup",
        "would_save",
        "because",
    ] {
        assert!(header.contains(col), "missing column {col}: {header}");
    }
    let row = table.lines().nth(1).expect("one recommendation row");
    assert!(
        row.contains("CREATE INDEX idx_cast_aid_mid ON CAST (aid, mid)"),
        "{row}"
    );
    assert!(row.contains("repeated full scan"), "{row}");

    let narration = normalize_durations(&report.narration);
    assert!(
        narration.contains(
            "My strongest prescription is `CREATE INDEX idx_cast_aid_mid ON CAST (aid, mid)`."
        ),
        "{narration}"
    );
    // The what-if numbers are quoted: observed mean, predicted mean, and
    // the estimated plan costs before/after.
    assert!(
        narration
            .contains("have run six times at <t> each; with that index I estimate <t> per run"),
        "{narration}"
    );
    assert!(narration.contains("plan cost ~"), "{narration}");
    assert!(
        narration.contains("faster on the execution itself"),
        "{narration}"
    );
    assert!(
        narration.contains("None of this is built yet"),
        "{narration}"
    );

    // The advice is deduplicated and honest: once the index exists, the
    // same prescription is never repeated.
    let mut system = system;
    system
        .execute_ddl("create index idx_cast_aid_mid on CAST (aid, mid)")
        .unwrap();
    let after = system.execute_show("advise").unwrap();
    assert!(
        !after.table.contains("idx_cast_aid_mid ON CAST (aid, mid)"),
        "{}",
        after.table
    );
}

#[test]
fn advise_respects_limit_and_stays_a_pure_read() {
    let system = Talkback::new(clinic_database());
    for i in 0..4 {
        system
            .run_query(&format!(
                "select c.role from CAST c where c.aid = {}",
                30 + i
            ))
            .unwrap();
        system
            .run_query(&format!(
                "select g.genre from GENRE g where g.mid = {}",
                40 + i
            ))
            .unwrap();
    }
    let executed_before = system
        .database()
        .obs()
        .counter(datastore::obs::Counter::QueriesExecuted);
    let limited = system.execute_show("advise limit 1").unwrap();
    assert_eq!(limited.table.lines().count(), 2, "{}", limited.table);
    // What-if planning must not execute anything, journal anything, or
    // build any index.
    assert_eq!(
        system
            .database()
            .obs()
            .counter(datastore::obs::Counter::QueriesExecuted),
        executed_before
    );
    assert!(system.database().find_index("idx_cast_aid").is_none());
    assert_eq!(system.database().obs().journal().len(), 8);
}

// ---------------------------------------------------------------------------
// CHECKUP and the regression sentinel
// ---------------------------------------------------------------------------

#[test]
fn checkup_reports_health_when_nothing_is_wrong() {
    let system = Talkback::new(movie_database());
    system.run_query("select m.title from MOVIES m").unwrap();
    let report = system.execute_show("checkup").unwrap();
    for check in [
        "workload",
        "miner",
        "sentinel",
        "plan cache",
        "epoch",
        "journal",
    ] {
        assert!(
            report.table.contains(check),
            "missing {check}:\n{}",
            report.table
        );
    }
    assert!(
        report.narration.starts_with("I gave myself a checkup."),
        "{}",
        report.narration
    );
    assert!(
        report
            .narration
            .contains("No statement shape has drifted past three times its baseline"),
        "{}",
        report.narration
    );
}

/// Grow the scanned table ~40× between a shape's baseline runs and its
/// recent runs: the sentinel must flag the drift and suspect data growth.
#[test]
fn checkup_sentinel_flags_drift_and_names_data_growth() {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "FILMS",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("genre", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    for i in 0..700 {
        db.insert("FILMS", vec![Value::int(i), Value::text("action")])
            .unwrap();
    }
    let mut system = Talkback::new(db);
    let q = "select f.id from FILMS f where f.genre = 'noir'";
    for _ in 0..4 {
        system.run_query(q).unwrap();
    }
    for i in 700..30000 {
        system
            .database_mut()
            .insert("FILMS", vec![Value::int(i), Value::text("action")])
            .unwrap();
    }
    for _ in 0..4 {
        system.run_query(q).unwrap();
    }

    let report = system.execute_show("checkup").unwrap();
    let sentinel_row = report
        .table
        .lines()
        .find(|l| l.contains("regression"))
        .unwrap_or_else(|| panic!("no regression row:\n{}", report.table));
    assert!(sentinel_row.contains("× slower"), "{sentinel_row}");
    assert!(
        sentinel_row.contains("suspect: data growth"),
        "{sentinel_row}"
    );
    assert!(
        report.narration.contains(
            "My sentinel is worried about `select f.id from FILMS f where f.genre = 'noir'`"
        ),
        "{}",
        report.narration
    );
    assert!(
        report
            .narration
            .contains("the likely culprit is data growth"),
        "{}",
        report.narration
    );
}

// ---------------------------------------------------------------------------
// SET JOURNAL CAPACITY (satellite: configurable ring buffer)
// ---------------------------------------------------------------------------

#[test]
fn journal_capacity_knob_trims_journal_but_ledger_survives_eviction() {
    let system = Talkback::new(movie_database());
    let report = system.execute_show("set journal capacity 4").unwrap();
    assert!(
        report.table.contains("journal_capacity"),
        "{}",
        report.table
    );
    assert!(
        report
            .narration
            .contains("I will keep my last four statements"),
        "{}",
        report.narration
    );
    assert_eq!(system.database().obs().journal().capacity(), 4);

    for i in 0..10 {
        system
            .run_query(&format!(
                "select m.title from MOVIES m where m.year > {}",
                1990 + i
            ))
            .unwrap();
    }
    let obs = system.database().obs();
    // The ring buffer evicted down to 4 entries…
    assert_eq!(obs.journal().len(), 4);
    assert_eq!(obs.journal().recorded(), 10);
    // …but the workload ledger still accounts for every execution, so the
    // doctor's aggregates are eviction-proof.
    let stats = obs.workload().snapshot();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].executions, 10);
    assert_eq!(stats[0].full_scans.get("MOVIES").map(|(n, _)| *n), Some(10));

    // The knob narrates its previous value and survives re-tuning upward.
    let widened = system.execute_show("set journal capacity 64").unwrap();
    assert!(
        widened.narration.contains("(it held four before)"),
        "{}",
        widened.narration
    );
    assert_eq!(system.database().obs().journal().capacity(), 64);

    // Unknown knobs are declined in the system's voice.
    let err = system.execute_show("set morale 11");
    assert!(err.is_err());
    assert!(err.unwrap_err().to_string().contains("JOURNAL CAPACITY"),);
}

// ---------------------------------------------------------------------------
// Query log cache column + profile percentile columns (satellites)
// ---------------------------------------------------------------------------

#[test]
fn query_log_shows_plan_cache_status_per_statement() {
    let system = Talkback::new(movie_database());
    // Point lookups with shifting literals: first is a miss, repeats hit.
    system
        .run_query("select m.title from MOVIES m where m.id = 1")
        .unwrap();
    system
        .run_query("select m.title from MOVIES m where m.id = 2")
        .unwrap();
    let report = system.execute_show("show query log").unwrap();
    let lines: Vec<&str> = report.table.lines().collect();
    assert!(lines[0].contains("cache"), "{}", lines[0]);
    assert!(lines[1].contains(" miss"), "{}", lines[1]);
    assert!(lines[2].contains(" hit"), "{}", lines[2]);
    assert!(
        report
            .narration
            .contains("came straight from my plan cache"),
        "{}",
        report.narration
    );
}

#[test]
fn profile_quotes_interpolated_percentiles_for_the_phases() {
    let system = Talkback::new(movie_database());
    for _ in 0..3 {
        system.run_query("select m.title from MOVIES m").unwrap();
    }
    let report = system.execute_show("show profile").unwrap();
    let table = normalize_durations(&report.table);
    let header = table.lines().next().unwrap();
    for col in ["p50", "p95", "p99"] {
        assert!(header.contains(col), "missing {col}: {header}");
    }
    let statement_row = table
        .lines()
        .find(|l| l.starts_with("statement"))
        .expect("statement row");
    // Phase rows carry interpolated percentiles; operator rows don't.
    assert!(statement_row.contains("≈<t>"), "{statement_row}");
    let scan_row = table
        .lines()
        .find(|l| l.trim_start().starts_with("scan:"))
        .expect("scan row");
    assert!(!scan_row.contains('≈'), "{scan_row}");
    let narration = normalize_durations(&report.narration);
    assert!(
        narration.contains("the typical one finishes in about <t>"),
        "{narration}"
    );
    assert!(
        narration.contains("one in twenty needs more than <t>"),
        "{narration}"
    );
}

// ---------------------------------------------------------------------------
// Acceptance: what-if estimate vs. counted work on the ×1000 database
// ---------------------------------------------------------------------------

/// The PR's acceptance gate. On a ×1000-movie database, after a Q6-flavored
/// workload (the repeated point-and-range probe over the big CAST fact
/// table) runs twenty times, `ADVISE` must propose a *composite* index, and
/// the advisor's own what-if numbers must be honest: taking the advice must
/// cut the rows the evidence query reads at least 10×, and the `base_cost`
/// and `what_if_cost` behind the `est_speedup` it prints must each sit
/// within 3× of the advisor's own cost formula applied to the rows and
/// probes the executor actually counted. Work is counted, not timed, so the
/// gate reads the same on a loaded machine and in a debug build.
#[test]
fn advise_what_if_estimate_matches_measured_speedup_at_scale() {
    let db = scaled_movie_database(ScaleConfig {
        movies: 1000,
        directors: 120,
        actors: 600,
        cast_per_movie: 30,
        genres_per_movie: 2,
        seed: 42,
    });
    let mut system = Talkback::new(db);
    for i in 0..20 {
        system
            .run_query(&format!(
                "select c.role from CAST c where c.aid = {} and c.mid > {}",
                10 + i,
                100 + i
            ))
            .unwrap();
    }

    let recs = talkback::recommendations(system.database(), PlannerOptions::default());
    let top = recs.first().expect("the workload must yield advice");
    assert_eq!(top.table, "CAST");
    assert!(
        top.columns.len() >= 2,
        "expected a composite index, got {:?}",
        top.columns
    );
    assert_eq!(top.columns, ["aid", "mid"]);
    assert!(top.what_if_cost < top.base_cost * 0.8);
    // The what-if also predicts the per-run mean improves.
    assert!(top.predicted_after < top.mean_before);

    // Count, take the advice, count again.
    let evidence = top.evidence_sql.clone();
    let (answer_before, scanned_before, probes_before) =
        counted_run(&system, &evidence, PlannerOptions::default());
    system.execute_ddl(&top.create_sql).unwrap();
    assert!(system.database().find_index("idx_cast_aid_mid").is_some());
    let (answer_after, scanned_after, probes_after) =
        counted_run(&system, &evidence, PlannerOptions::default());
    eprintln!(
        "cost {:.0} -> {:.0}; scanned {scanned_before} -> {scanned_after}, \
         probes {probes_before} -> {probes_after}, {} rows",
        top.base_cost,
        top.what_if_cost,
        answer_after.len()
    );

    assert_eq!(
        answer_before.len(),
        answer_after.len(),
        "the index changes the path, not the answer"
    );
    assert_eq!(probes_before, 0, "nothing to probe before the index exists");
    assert!(probes_after >= 1, "the advised index must be the one used");
    assert!(
        scanned_before >= 10 * scanned_after,
        "index must read ≥10× fewer rows: {scanned_before} -> {scanned_after}"
    );
    // The advisor's cost formula on what was counted: a scan touches every
    // row it reads and hands on what it emits; an index scan pays one descent
    // plus the probe price per row it fetches.
    let counted_base = (scanned_before + answer_before.len() as u64) as f64;
    let counted_what_if = 1.0 + talkback::planner::INDEX_PROBE_ROW_COST * scanned_after as f64;
    for (what, estimated, counted) in [
        ("base", top.base_cost, counted_base),
        ("what-if", top.what_if_cost, counted_what_if),
    ] {
        let ratio = estimated / counted;
        assert!(
            (1.0 / 3.0..=3.0).contains(&ratio),
            "{what} cost {estimated:.0} vs counted {counted:.0} (ratio {ratio:.2})"
        );
    }
}

/// A correlated equality is visible to the doctor. Five runs of Q9 scan
/// MOVIES twice per outer title for `title = <outer value>`; before the
/// planner priced a correlated selection where it is applied, the what-if
/// plan did probe `idx_movies_title` — `collect_roles` proposed it,
/// `plan_cost` charged the subplan per binding — but the join above the two
/// probes was still estimated at 100 × 100 rows per evaluation, so the
/// what-if cost never fell under the 80 % bar and `ADVISE` answered "nothing
/// an index would cure".
#[test]
fn advise_sees_the_correlated_equality_in_q9() {
    let mut system = Talkback::new(scaled_movie_database(ScaleConfig::default()));
    let q9 = "select a.name from MOVIES m, CAST c, ACTOR a \
              where m.id = c.mid and c.aid = a.id \
              and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
              where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)";
    for _ in 0..5 {
        system.run_query(q9).unwrap();
    }
    let recs = talkback::recommendations(system.database(), PlannerOptions::default());
    let top = recs.first().expect("Q9 must yield advice");
    assert_eq!(
        (top.table.as_str(), &top.columns[..]),
        ("MOVIES", &["title".to_string()][..])
    );
    assert!(top.what_if_cost < top.base_cost * 0.8);
    let report = system.execute_show("advise").unwrap();
    assert!(
        report.narration.contains(
            "My strongest prescription is `CREATE INDEX idx_movies_title ON MOVIES (title)`."
        ),
        "{}",
        report.narration
    );

    // Take the advice: the evidence statement then reads MOVIES through the
    // index, once per binding, with the same answer.
    let (before, scanned_before, _) =
        counted_run(&system, &top.evidence_sql, PlannerOptions::default());
    system.execute_ddl(&top.create_sql).unwrap();
    let (after, scanned_after, probes_after) =
        counted_run(&system, &top.evidence_sql, PlannerOptions::default());
    assert_eq!(before.rows, after.rows);
    assert_eq!(probes_after, 200, "two probes for each of 100 titles");
    assert!(
        scanned_before >= 10 * scanned_after,
        "{scanned_before} -> {scanned_after} rows"
    );
    let e = system
        .explain_plan(&format!("explain {}", top.evidence_sql))
        .unwrap();
    for alias in ["m1", "m2"] {
        let probe = format!(
            "index scan: MOVIES as {alias} [index=idx_movies_title point {alias}.title = $0]"
        );
        assert!(e.tree.contains(&probe), "{}", e.tree);
    }
}

// ---------------------------------------------------------------------------
// Property: ADVISE under a concurrent random workload (satellite)
// ---------------------------------------------------------------------------

/// Seeded random statements interleaved with writes and DDL across 8
/// threads. `ADVISE` must never panic, every recommendation must reference
/// only live tables and columns, and taking a recommendation must never
/// make its evidence query slower.
#[test]
fn advise_survives_a_concurrent_random_workload() {
    let mut system = Talkback::new(clinic_database());
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let sys = system.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xD0C7 + t);
            let mut sys = sys;
            for _ in 0..32 {
                match rng.gen_range(0..12u8) {
                    0..=3 => {
                        let sql = format!(
                            "select c.role from CAST c where c.aid = {} and c.mid > {}",
                            rng.gen_range(1..80),
                            rng.gen_range(1..150)
                        );
                        sys.run_query(&sql).unwrap();
                    }
                    4..=6 => {
                        let sql = format!(
                            "select m.title, m.year from MOVIES m where m.year > {} order by m.year",
                            rng.gen_range(1950..2010)
                        );
                        sys.run_query(&sql).unwrap();
                    }
                    7..=8 => {
                        let sql = format!(
                            "select m.title from MOVIES m, CAST c \
                             where m.id = c.mid and c.aid = {}",
                            rng.gen_range(1..80)
                        );
                        sys.run_query(&sql).unwrap();
                    }
                    9 => {
                        // Writes: each clone copy-on-writes its own data but
                        // shares the one observability registry.
                        let id = rng.gen_range(1_000_000..1_100_000i64);
                        sys.database_mut()
                            .insert(
                                "CAST",
                                vec![
                                    Value::int(rng.gen_range(1..150)),
                                    Value::int(id),
                                    Value::Null,
                                ],
                            )
                            .ok();
                    }
                    10 => {
                        sys.execute_ddl("create index idx_prop_year on MOVIES (year)")
                            .ok();
                    }
                    _ => {
                        sys.execute_ddl("drop index idx_prop_year").ok();
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("workload thread must not panic");
    }

    // ADVISE never panics, through both the API and the statement.
    let recs = talkback::recommendations(system.database(), PlannerOptions::default());
    system.execute_show("advise").unwrap();
    system.execute_show("checkup").unwrap();
    system.execute_show("show workload").unwrap();

    // Recommendations reference only live tables and columns.
    for rec in &recs {
        let table = system
            .database()
            .table(&rec.table)
            .unwrap_or_else(|| panic!("recommended index on dead table {}", rec.table));
        for col in &rec.columns {
            assert!(
                table.schema().column_index(col).is_some(),
                "recommended dead column {col} on {}",
                rec.table
            );
        }
        assert!(rec.executions > 0);
        assert!(rec.what_if_cost < rec.base_cost);
    }

    // Taking the advice never makes the evidence query slower (allowing
    // generous headroom for scheduler noise on sub-millisecond queries).
    for rec in recs.iter().take(2) {
        let before = median_total(&system, &rec.evidence_sql, 7);
        if system.execute_ddl(&rec.create_sql).is_err() {
            continue; // name collision with a concurrently created index
        }
        let after = median_total(&system, &rec.evidence_sql, 7);
        assert!(
            after <= before * 2 + Duration::from_micros(200),
            "{} made {} slower: {before:?} -> {after:?}",
            rec.create_sql,
            rec.evidence_sql
        );
    }
}
