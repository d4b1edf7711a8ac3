//! Acceptance tests for morsel-driven parallel execution: every paper query
//! must produce byte-identical results and row order at any parallelism
//! degree, per-worker counters must aggregate to the single-threaded
//! totals, `EXPLAIN` must render `[workers=N]`, and the narration must say
//! both how the plan was parallelized and why it sometimes was not.

use datastore::exec::{describe_plan, execute_with_stats, OpMetrics, Plan, PlanProfile};
use datastore::sample::{movie_database, scaled_movie_database, ScaleConfig};
use sqlparse::parse_query;
use std::time::Duration;
use talkback::{plan_query_with, PlannerOptions};
use templates::Lexicon;

/// The paper's nine example queries (same SQL as the indexes suite).
const PAPER_QUERIES: &[&str] = &[
    "select m.title from MOVIES m, CAST c, ACTOR a \
     where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
    "select a.name, m.title from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g \
     where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id \
       and m.id = g.mid and d.name = 'G. Loucas' and g.genre = 'action'",
    "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
     where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
       and a1.id > a2.id",
    "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
    "select m.title from MOVIES m where m.id in ( \
        select c.mid from CAST c where c.aid in ( \
            select a.id from ACTOR a where a.name = 'Brad Pitt'))",
    "select m.title from MOVIES m where not exists ( \
        select * from GENRE g1 where not exists ( \
            select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
    "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
     group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)",
    "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
     where m.id = c.mid and c.aid = a.id \
     group by a.id, a.name having count(distinct m.year) = 1",
    "select a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id \
     and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
     where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)",
];

/// Options forcing every qualifying region parallel regardless of size.
fn forced(workers: usize) -> PlannerOptions {
    PlannerOptions {
        parallelism: workers,
        parallel_row_threshold: 0.0,
        ..PlannerOptions::default()
    }
}

fn scaled_db() -> datastore::Database {
    // ×10 over the paper fixture: big enough to produce several batches and
    // subquery work, small enough for a fast test suite.
    scaled_movie_database(ScaleConfig::default())
}

fn big_scaled_db() -> datastore::Database {
    // Big enough that the smallest relation (ACTOR, the 3-way join's
    // driver) yields several ≥1024-row morsels, so the exchange really
    // spawns multiple workers and the profile/narration report them.
    scaled_movie_database(ScaleConfig {
        movies: 5000,
        actors: 3000,
        directors: 500,
        ..ScaleConfig::default()
    })
}

#[test]
fn q1_to_q9_rows_and_order_identical_at_any_parallelism() {
    let db = scaled_db();
    for (i, sql) in PAPER_QUERIES.iter().enumerate() {
        let q = parse_query(sql).unwrap();
        let baseline = plan_query_with(&db, &q, PlannerOptions::sequential()).unwrap();
        let (base_rs, _) = execute_with_stats(&db, &baseline.plan).unwrap();
        for workers in [2, 4, 8] {
            let planned = plan_query_with(&db, &q, forced(workers)).unwrap();
            let (rs, _) = execute_with_stats(&db, &planned.plan).unwrap();
            assert_eq!(
                base_rs.rows,
                rs.rows,
                "Q{} rows/order diverged at parallelism={workers}",
                i + 1
            );
            assert_eq!(base_rs.columns, rs.columns);
        }
    }
}

/// Shapes the paper's queries leave out: sort/limit/distinct, an
/// uncorrelated scalar subquery, a correlated EXISTS.
const SHAPE_QUERIES: &[&str] = &[
    "select distinct m.year from MOVIES m order by m.year desc limit 3",
    "select m.title from MOVIES m where m.year = (select max(m2.year) from MOVIES m2)",
    "select m.title from MOVIES m where exists (select * from CAST c where c.mid = m.id)",
];

/// The §3.1 EMP/DEPT queries the other suites run.
const EMP_QUERIES: &[&str] = &[
    "select e1.name from EMP e1, EMP e2, DEPT d \
     where e1.did = d.did and d.mgr = e2.eid and e1.sal > e2.sal",
    "select e.name from EMP e where e.eid not in (select d.mgr from DEPT d)",
    "select e.name from EMP e where e.eid not in \
     (select d.mgr from DEPT d where d.mgr is not null)",
];

/// Plan every paper, shape and EMP/DEPT query under the 16 planner corners
/// (indexes × vectorized × decorrelation × forced parallelism) and hand each
/// plan to `f`.
fn for_each_planned_corner(mut f: impl FnMut(&datastore::Database, &str, &Plan, PlannerOptions)) {
    let movies = movie_database();
    let employees = datastore::sample::employee_database();
    let queries = PAPER_QUERIES
        .iter()
        .chain(SHAPE_QUERIES)
        .map(|sql| (&movies, *sql))
        .chain(EMP_QUERIES.iter().map(|sql| (&employees, *sql)));
    for (db, sql) in queries {
        let q = parse_query(sql).unwrap();
        for corner in 0..16u32 {
            let options = PlannerOptions {
                use_indexes: corner & 1 != 0,
                use_vectorized: corner & 2 != 0,
                decorrelate_subqueries: corner & 4 != 0,
                parallelism: if corner & 8 != 0 { 4 } else { 1 },
                parallel_row_threshold: 0.0,
                ..PlannerOptions::default()
            };
            let plan = plan_query_with(db, &q, options).unwrap().plan;
            f(db, sql, &plan, options);
        }
    }
}

#[test]
fn plan_walk_visits_exactly_the_operators_the_executor_opens() {
    // `open_in` states every operator's children independently of
    // `Plan::children`: the profile it builds must list the operators
    // `Plan::walk` visits, in the same pre-order, under every planner corner
    // — so a child `children()` forgot, or yielded out of order, fails here.
    let mut seen = std::collections::BTreeSet::new();
    for_each_planned_corner(|db, sql, plan, options| {
        let mut walked = Vec::new();
        plan.walk(&mut |p| walked.push(p.operator_name()));
        let described = describe_plan(db, plan).unwrap();
        let mut opened = Vec::new();
        described.walk(&mut |p| {
            // The probe side of an index nested-loop join is a profile
            // leaf with no plan node of its own.
            if p.operator() != "index probe" {
                opened.push(p.operator());
            }
            // Describing executes nothing: every meter is still at zero.
            assert_eq!(
                *p.metrics(),
                OpMetrics::default(),
                "{sql}: {}",
                p.operator()
            );
        });
        assert_eq!(walked, opened, "{sql} under {options:?}");
        seen.extend(walked);
        // Binding nothing changes nothing, whatever the operators.
        assert_eq!(plan.bind_params(&[]), *plan, "{sql}");
    });
    // Every operator the planner can emit took part.
    let all = [
        "aggregate",
        "anti join",
        "apply",
        "distinct",
        "exchange",
        "filter",
        "hash join",
        "index nested-loop join",
        "index scan",
        "limit",
        "nested-loop join",
        "project",
        "scalar subquery",
        "scan",
        "semi join",
        "sort",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
}

#[test]
fn every_executed_profile_node_obeys_the_metering_protocol() {
    // The protocol `exec/mod.rs` states, checked on every node of every
    // executed corner rather than trusted per operator.
    for_each_planned_corner(|db, sql, plan, options| {
        let (_, profile) = execute_with_stats(db, plan).unwrap();
        profile.walk(&mut |p| {
            let at = format!("{sql} under {options:?}: {}: {}", p.operator(), p.detail());
            let m = p.metrics();
            assert!(m.elapsed >= m.blocked, "blocked is part of elapsed: {at}");
            // The probe leaf of an index join tallies probes and matches and
            // never returns a batch of its own.
            if p.operator() != "index probe" {
                assert_eq!(m.batches == 0, m.rows_out == 0, "no empty batches: {at}");
            }
            // An operator pulls from its children, minus the subplan of an
            // apply or scalar-subquery filter and the probe leaf.
            let pulled: Vec<_> = match p.operator() {
                "apply" | "scalar subquery" | "index nested-loop join" => p.children().take(1),
                _ => p.children().take(usize::MAX),
            }
            .collect();
            // A parallel operator waits wall time while its workers' times
            // add up; anyone else waits as long as what it pulls from ran.
            if p.workers().is_none() {
                let waited_for: Duration = pulled.iter().map(|c| c.metrics().elapsed).sum();
                assert!(m.blocked >= waited_for, "a pull is a wait: {at}");
            }
            // A non-row gather receives partial states or truncated runs,
            // not its pipeline's rows; every other operator counts in
            // exactly what its inputs handed out.
            let partial_gather = p.operator() == "exchange" && !p.tags().is_empty();
            if !pulled.is_empty() && !partial_gather {
                let handed_out: u64 = pulled.iter().map(|c| c.metrics().rows_out).sum();
                assert_eq!(m.rows_in, handed_out, "rows in = rows pulled: {at}");
            }
        });
    });
}

/// Flatten a profile into (operator, rows_in, rows_out) triples, skipping
/// the exchange wrappers a parallel plan inserts.
fn flatten_counters(profile: &PlanProfile) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    profile.walk(&mut |p| {
        if p.operator() != "exchange" {
            out.push((
                p.operator().to_string(),
                p.metrics().rows_in,
                p.metrics().rows_out,
            ));
        }
    });
    out
}

#[test]
fn per_worker_counters_aggregate_to_single_threaded_totals() {
    let db = big_scaled_db();
    // The unfiltered 3-way join: every operator sees real volume.
    let sql = "select m.title from MOVIES m, CAST c, ACTOR a \
               where m.id = c.mid and c.aid = a.id";
    let q = parse_query(sql).unwrap();
    let sequential = plan_query_with(&db, &q, PlannerOptions::sequential()).unwrap();
    let parallel = plan_query_with(&db, &q, forced(4)).unwrap();
    let (seq_rows, seq_profile) = execute_with_stats(&db, &sequential.plan).unwrap();
    let (par_rows, par_profile) = execute_with_stats(&db, &parallel.plan).unwrap();
    // CAST's 15,000 rows clear the partitioned-build floor, so this is also
    // the hash-partitioned build against the one-piece build: same rows,
    // same order.
    assert_eq!(seq_rows.rows, par_rows.rows);
    // The parallel plan really did parallelize — the profile reports the
    // workers actually spawned (the 3000-row ACTOR driver yields 3
    // ≥1024-row morsels, so 3 of the 4 requested threads ran).
    let mut exchanges = 0;
    par_profile.walk(&mut |p| {
        if p.operator() == "exchange" {
            exchanges += 1;
            assert_eq!(p.workers(), Some(3));
        }
    });
    assert_eq!(exchanges, 1, "expected exactly one exchange in the plan");
    // …and, exchange wrappers aside, every operator's rows in/out summed
    // across workers equals the sequential run exactly.
    assert_eq!(
        flatten_counters(&seq_profile),
        flatten_counters(&par_profile)
    );
}

#[test]
fn explain_renders_workers_and_narration_says_how() {
    let db = scaled_db();
    let system = talkback::Talkback::new(db);
    let sql = "explain select m.title from MOVIES m, CAST c, ACTOR a \
               where m.id = c.mid and c.aid = a.id";
    let e = system.explain_plan_with(sql, forced(4)).unwrap();
    assert!(
        e.tree.contains("exchange: morsels over"),
        "tree missing exchange: {}",
        e.tree
    );
    assert!(
        e.tree.contains("[workers=4]"),
        "tree missing workers tag: {}",
        e.tree
    );
    assert!(
        e.narration.contains("into morsels across four workers"),
        "narration missing the parallel decision: {}",
        e.narration
    );
    assert!(
        e.narration
            .contains("will run that pipeline across four workers"),
        "narration missing the exchange step: {}",
        e.narration
    );
}

#[test]
fn explain_analyze_reports_gathered_rows_and_speedup() {
    let db = big_scaled_db();
    let system = talkback::Talkback::new(db);
    let sql = "explain analyze select m.title from MOVIES m, CAST c, ACTOR a \
               where m.id = c.mid and c.aid = a.id";
    let e = system.explain_plan_with(sql, forced(4)).unwrap();
    assert!(e.analyzed);
    // The narration reports the threads that actually ran (3 morsels from
    // the 3000-row ACTOR driver), not the requested degree.
    assert!(
        e.narration
            .contains("ran that pipeline across three workers"),
        "analyzed narration missing the exchange step: {}",
        e.narration
    );
    assert!(
        e.narration.contains("The parallel section did"),
        "analyzed narration missing the speedup report: {}",
        e.narration
    );
}

#[test]
fn small_tables_stay_sequential_and_the_narration_says_why() {
    // The ten-movie paper fixture is far under the default 1024-row bar:
    // with many workers available the planner must still decline, and say
    // so in English.
    let db = movie_database();
    let system = talkback::Talkback::new(db);
    let options = PlannerOptions {
        parallelism: 8,
        ..PlannerOptions::default()
    };
    let e = system
        .explain_plan_with(
            "explain select m.title from MOVIES m where m.year > 2000",
            options,
        )
        .unwrap();
    assert!(
        !e.tree.contains("exchange"),
        "ten rows must not be parallelized: {}",
        e.tree
    );
    assert!(
        e.narration.contains("so I kept it on one thread"),
        "narration missing the declined-parallelism sentence: {}",
        e.narration
    );
    assert!(e.narration.contains("under my 1024-row bar"));
}

#[test]
fn an_apply_subplan_stays_on_one_thread_and_agrees_with_sequential() {
    let db = scaled_db();
    // Decorrelation off forces the correlated EXISTS through an Apply.
    let sql = "select m.title from MOVIES m where exists \
               (select * from CAST c where c.mid = m.id)";
    let q = parse_query(sql).unwrap();
    let sequential = plan_query_with(
        &db,
        &q,
        PlannerOptions {
            decorrelate_subqueries: false,
            ..PlannerOptions::sequential()
        },
    )
    .unwrap();
    let parallel = plan_query_with(
        &db,
        &q,
        PlannerOptions {
            decorrelate_subqueries: false,
            parallel_row_threshold: 0.0,
            parallelism: 4,
            ..PlannerOptions::default()
        },
    )
    .unwrap();
    // The apply's input is a pipeline like any other and goes parallel.
    assert!(parallel.decisions.iter().any(|d| matches!(
        d,
        talkback::PlanDecision::Parallel {
            parallelized: true,
            ..
        }
    )));
    let (seq_rs, _) = execute_with_stats(&db, &sequential.plan).unwrap();
    let (par_rs, par_profile) = execute_with_stats(&db, &parallel.plan).unwrap();
    assert_eq!(seq_rs.rows, par_rs.rows);
    // The subplan is one open tree, rewound for each binding: the apply
    // runs it on its own thread, with no exchange inside.
    let mut applies = 0;
    par_profile.walk(&mut |p| {
        if p.operator() == "apply" {
            applies += 1;
            assert_eq!(p.workers(), None);
            p.child(1)
                .walk(&mut |sub| assert_ne!(sub.operator(), "exchange"));
        }
    });
    assert_eq!(applies, 1, "{}", par_profile.render_tree(false));
}

#[test]
fn explain_golden_parallel_plan_tree() {
    let db = scaled_db();
    let system = talkback::Talkback::new(db);
    let e = system
        .explain_plan_with(
            "explain select c.role from CAST c where c.aid > 0",
            forced(2),
        )
        .unwrap();
    assert_eq!(
        e.tree,
        "exchange: morsels over CAST as c  [workers=2]  [est=300]\n\
         └─ project: c.role  [est=300]\n\
         \u{20}\u{20}\u{20}└─ filter: c.aid > 0  [vectorized]  [est=300]\n\
         \u{20}\u{20}\u{20}\u{20}\u{20}\u{20}└─ scan: CAST as c  [est=300]\n",
        "parallel plan tree changed:\n{}",
        e.tree
    );
    let _ = Lexicon::movie_domain();
}
