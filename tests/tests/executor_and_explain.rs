//! Operator-level executor tests and EXPLAIN golden-output tests, across the
//! whole stack (sqlparse → planner → streaming executor → narration).

use datastore::exec::{describe_plan, execute, execute_with_stats, OpKind, OpMetrics, Plan};
use datastore::obs::Tally;
use datastore::sample::{movie_database, scaled_movie_database, ScaleConfig};
use datastore::Row;
use sqlparse::parse_query;
use std::time::Duration;
use talkback::{plan_query, plan_query_with, PlannerOptions, Talkback};
use talkback_tests::mentions;

/// Sort rows for order-insensitive result comparison.
fn normalized(mut rows: Vec<Row>, arity: usize) -> Vec<Row> {
    let keys: Vec<usize> = (0..arity).collect();
    rows.sort_by_key(|r| r.group_key(&keys));
    rows
}

/// Rebuild the seed planner's strategy for an SPJ query: cross product of
/// the FROM relations in order, one big WHERE filter on top, then the
/// projection — the reference the hash-join planner must agree with.
fn seed_style_plan(
    db: &datastore::Database,
    query: &sqlparse::SelectStatement,
) -> datastore::exec::Plan {
    use datastore::exec::{ColumnInfo, Plan};
    use sqlparse::ast::SelectItem;
    use talkback::planner::lower_expr;

    let bound = sqlparse::bind_query(db.catalog(), query).unwrap();
    let mut plan = Plan::scan(bound.tables[0].table.clone(), bound.tables[0].alias.clone());
    let mut columns: Vec<ColumnInfo> = Vec::new();
    for table in &bound.tables {
        let schema = db.table(&table.table).unwrap().schema();
        for c in &schema.columns {
            columns.push(ColumnInfo::qualified(table.alias.clone(), c.name.clone()));
        }
    }
    for table in &bound.tables[1..] {
        plan = Plan::nested_loop_join(
            plan,
            Plan::scan(table.table.clone(), table.alias.clone()),
            None,
        );
    }
    if let Some(selection) = &query.selection {
        plan = plan.filter(lower_expr(selection, &columns, &bound).unwrap());
    }
    let mut exprs = Vec::new();
    let mut out_columns = Vec::new();
    for item in &query.projection {
        match item {
            SelectItem::Expr {
                expr: sqlparse::Expr::Column(c),
                ..
            } => {
                let qualifier = c
                    .qualifier
                    .clone()
                    .or_else(|| bound.qualifier_of(c).map(str::to_string));
                let pos = columns
                    .iter()
                    .position(|col| col.matches(qualifier.as_deref(), &c.column))
                    .unwrap();
                exprs.push(datastore::expr::Expr::Column(pos));
                out_columns.push(columns[pos].clone());
            }
            other => panic!("seed_style_plan only supports column projections, got {other:?}"),
        }
    }
    plan.project(exprs, out_columns)
}

#[test]
fn hash_join_plans_match_cross_product_semantics_on_the_sample_database() {
    // For each query: the planner's (hash-join, pushdown) plan must produce
    // exactly the rows of the seed's cross-product-then-filter strategy.
    let queries = [
        "select m.title from MOVIES m, CAST c, ACTOR a \
         where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
        "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
         where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
           and a1.id > a2.id",
        "select e1.name from EMP e1, EMP e2, DEPT d \
         where e1.did = d.did and d.mgr = e2.eid and e1.sal > e2.sal",
    ];
    for sql in queries {
        let db = if sql.contains("EMP") {
            datastore::sample::employee_database()
        } else {
            movie_database()
        };
        let query = sqlparse::parse_query(sql).unwrap();
        let planned = plan_query(&db, &query).unwrap();
        let fast = execute(&db, &planned.plan).unwrap();
        let reference = execute(&db, &seed_style_plan(&db, &query)).unwrap();
        assert_eq!(fast.columns, reference.columns, "column layout for {sql}");
        let arity = fast.columns.len();
        assert_eq!(
            normalized(fast.rows, arity),
            normalized(reference.rows, arity),
            "row set for {sql}"
        );
    }
}

#[test]
fn hash_join_equals_nested_loop_reference_row_for_row() {
    use datastore::exec::Plan;
    use datastore::expr::Expr;
    let db = movie_database();
    let scan = |t: &str, a: &str| Plan::scan(t, a);
    // MOVIES ⋈ CAST ⋈ ACTOR, hash vs nested-loop with identical semantics.
    let hash = Plan::hash_join(
        Plan::hash_join(scan("MOVIES", "m"), scan("CAST", "c"), vec![0], vec![0]),
        scan("ACTOR", "a"),
        vec![4],
        vec![0],
    );
    let nested = Plan::nested_loop_join(
        Plan::nested_loop_join(
            scan("MOVIES", "m"),
            scan("CAST", "c"),
            Some(Expr::col_eq(0, 3)),
        ),
        scan("ACTOR", "a"),
        Some(Expr::col_eq(4, 6)),
    );
    let a = execute(&db, &hash).unwrap();
    let b = execute(&db, &nested).unwrap();
    assert_eq!(a.columns, b.columns);
    let arity = a.columns.len();
    assert_eq!(normalized(a.rows, arity), normalized(b.rows, arity));
}

#[test]
fn aggregates_over_empty_input_return_sql_scalar_semantics() {
    let system = Talkback::new(movie_database());
    // COUNT over an empty selection is 0, not an empty result.
    let rs = system
        .run_query("select count(*) from MOVIES m where m.year > 3000")
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0].get(0).unwrap().to_string(), "0");
    // MIN/MAX over empty input is NULL.
    let rs = system
        .run_query("select min(m.year), max(m.year) from MOVIES m where m.year > 3000")
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert!(rs.rows[0].get(0).unwrap().is_null());
    assert!(rs.rows[0].get(1).unwrap().is_null());
    // But GROUP BY over empty input has no groups.
    let rs = system
        .run_query("select m.year, count(*) from MOVIES m where m.year > 3000 group by m.year")
        .unwrap();
    assert_eq!(rs.len(), 0);
}

#[test]
fn explain_golden_plan_tree_is_stable() {
    // The optimizer reorders Q1 to start from the filtered ACTOR relation,
    // and — with the tiny outer side — probes MOVIES' automatic PK index
    // instead of building a hash table; every line carries the planner's
    // estimate.
    let system = Talkback::new(movie_database());
    let e = system
        .explain_plan(
            "explain select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        )
        .unwrap();
    assert_eq!(
        e.tree,
        "project: m.title  [est=2]\n\
         └─ index nested-loop join: c.mid = m.id [index=pk_movies]  [est=2]\n\
         \u{20}\u{20}\u{20}├─ hash join: a.id = c.aid  [vectorized]  [est=2]\n\
         \u{20}\u{20}\u{20}│  ├─ filter: a.name = 'Brad Pitt'  [vectorized]  [est=1]\n\
         \u{20}\u{20}\u{20}│  │  └─ scan: ACTOR as a  [est=6]\n\
         \u{20}\u{20}\u{20}│  └─ scan: CAST as c  [est=12]\n\
         \u{20}\u{20}\u{20}└─ index probe: MOVIES as m [index=pk_movies]\n"
    );
    // A quote inside a LIKE pattern is rendered doubled, as SQL writes it
    // (and as the planner's predicate shapes expect to find it).
    let e = system
        .explain_plan("explain select m.title from MOVIES m where m.title like 'O''%'")
        .unwrap();
    assert_eq!(
        e.tree,
        "project: m.title  [est=3]\n\
         └─ filter: m.title LIKE 'O''%'  [est=3]\n\
         \u{20}\u{20}\u{20}└─ scan: MOVIES as m  [est=10]\n"
    );
}

#[test]
fn explain_analyze_golden_estimates_and_actuals_are_stable() {
    // Golden rendering of the est=…/actual=… pairs `EXPLAIN ANALYZE` shows
    // per operator, including the index probe's probe/match tally.
    let system = Talkback::new(movie_database());
    let e = system
        .explain_plan(
            "explain analyze select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        )
        .unwrap();
    assert_eq!(
        e.tree,
        "project: m.title  [est=2 actual=2 in=2 batches=1]\n\
         └─ index nested-loop join: c.mid = m.id [index=pk_movies]  \
         [est=2 actual=2 in=2 batches=1]\n\
         \u{20}\u{20}\u{20}├─ hash join: a.id = c.aid  [vectorized]  [est=2 actual=2 in=13 batches=1]\n\
         \u{20}\u{20}\u{20}│  ├─ filter: a.name = 'Brad Pitt'  [vectorized]  [est=1 actual=1 in=6 batches=1]\n\
         \u{20}\u{20}\u{20}│  │  └─ scan: ACTOR as a  [est=6 actual=6 in=6 batches=1]\n\
         \u{20}\u{20}\u{20}│  └─ scan: CAST as c  [est=12 actual=12 in=12 batches=1]\n\
         \u{20}\u{20}\u{20}└─ index probe: MOVIES as m [index=pk_movies] \
         (2 probes, 2 matches)  [actual=2 in=2 batches=0]\n"
    );
    // And the narration justifies the join order in natural language.
    assert!(e.narration.contains("I started from ACTOR"));
    assert!(e.narration.contains("fewer intermediate rows"));
}

#[test]
fn explain_with_indexes_off_keeps_the_all_hash_join_tree() {
    // The PR-2 baseline shape survives behind the `use_indexes` knob.
    let system = Talkback::new(movie_database());
    let e = system
        .explain_plan_with(
            "explain select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
            talkback::PlannerOptions {
                use_indexes: false,
                ..talkback::PlannerOptions::default()
            },
        )
        .unwrap();
    assert_eq!(
        e.tree,
        "project: m.title  [est=2]\n\
         └─ hash join: c.mid = m.id  [vectorized]  [est=2]\n\
         \u{20}\u{20}\u{20}├─ hash join: a.id = c.aid  [vectorized]  [est=2]\n\
         \u{20}\u{20}\u{20}│  ├─ filter: a.name = 'Brad Pitt'  [vectorized]  [est=1]\n\
         \u{20}\u{20}\u{20}│  │  └─ scan: ACTOR as a  [est=6]\n\
         \u{20}\u{20}\u{20}│  └─ scan: CAST as c  [est=12]\n\
         \u{20}\u{20}\u{20}└─ scan: MOVIES as m  [est=10]\n"
    );
}

#[test]
fn worst_from_order_plans_identically_to_best_from_order() {
    // Acceptance: a 3-way join written in the worst FROM order produces the
    // same join tree as the best FROM order — the optimizer's choice, not
    // the query's wording, decides the plan.
    let db = scaled_movie_database(ScaleConfig {
        movies: 1000,
        actors: 600,
        directors: 200,
        ..ScaleConfig::default()
    });
    let worst = "select m.title from MOVIES m, ACTOR a, CAST c \
                 where m.id = c.mid and c.aid = a.id and a.name = 'Alex Smith #1'";
    let best = "select m.title from ACTOR a, CAST c, MOVIES m \
                where a.name = 'Alex Smith #1' and c.aid = a.id and m.id = c.mid";
    let worst_planned = plan_query(&db, &sqlparse::parse_query(worst).unwrap()).unwrap();
    let best_planned = plan_query(&db, &sqlparse::parse_query(best).unwrap()).unwrap();
    let worst_tree = describe_plan(&db, &worst_planned.plan)
        .unwrap()
        .render_tree(false);
    let best_tree = describe_plan(&db, &best_planned.plan)
        .unwrap()
        .render_tree(false);
    assert_eq!(
        worst_tree, best_tree,
        "same join tree regardless of FROM order"
    );
    // Both answer identically, of course.
    assert_eq!(
        execute(&db, &worst_planned.plan).unwrap().len(),
        execute(&db, &best_planned.plan).unwrap().len()
    );
}

#[test]
fn explain_does_not_execute_the_query() {
    // Use a deliberately expensive query on a scaled database: plain
    // EXPLAIN must return with every instrumentation counter at zero.
    let system = Talkback::new(scaled_movie_database(ScaleConfig {
        movies: 500,
        ..ScaleConfig::default()
    }));
    let e = system
        .explain_plan(
            "explain select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id",
        )
        .unwrap();
    assert!(!e.analyzed);
    assert_eq!(e.result_rows, None);
    e.profile.walk(&mut |p| {
        assert_eq!(
            p.metrics().rows_in,
            0,
            "EXPLAIN read rows in {}",
            p.operator()
        );
        assert_eq!(p.metrics().rows_out, 0);
        assert_eq!(p.metrics().batches, 0);
    });
}

#[test]
fn explain_analyze_narration_row_counts_match_actual_execution() {
    let system = Talkback::new(movie_database());
    let sql = "select m.title from MOVIES m, CAST c, ACTOR a \
               where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'";
    let e = system
        .explain_plan(&format!("explain analyze {sql}"))
        .unwrap();
    let direct = system.run_query(sql).unwrap();
    assert_eq!(e.result_rows, Some(direct.len()));
    assert_eq!(e.profile.metrics().rows_out as usize, direct.len());
    // The narration reports the final cardinality in words.
    assert!(mentions(&e.narration, "two rows"));
    assert!(mentions(&e.narration, "scanned"));
    // And the ANALYZE tree carries the per-operator counters and estimates.
    assert!(e.tree.contains("actual=2"));
    assert!(e.tree.contains("est="));
}

#[test]
fn instrumented_execution_matches_plain_execution() {
    let db = movie_database();
    let query = sqlparse::parse_query(
        "select m.year, count(*) from MOVIES m group by m.year order by m.year desc limit 3",
    )
    .unwrap();
    let planned = plan_query(&db, &query).unwrap();
    let plain = execute(&db, &planned.plan).unwrap();
    let (instrumented, profile) = execute_with_stats(&db, &planned.plan).unwrap();
    assert_eq!(plain, instrumented);
    assert_eq!(profile.metrics().rows_out as usize, plain.len());
    // The described plan (no execution) has the same shape as the profile.
    let described = describe_plan(&db, &planned.plan).unwrap();
    assert_eq!(described.operator_count(), profile.operator_count());
}

#[test]
fn empty_result_detective_reads_counters_from_one_run() {
    let system = Talkback::new(movie_database());
    let explanation = system
        .explain_result(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Nobody Nowhere'",
        )
        .unwrap();
    assert_eq!(explanation.rows, 0);
    assert!(mentions(&explanation.narrative, "no results"));
    assert!(mentions(&explanation.narrative, "Nobody Nowhere"));
    assert!(mentions(&explanation.narrative, "eliminated"));
    // The blamed predicate reports how many rows reached it (all actors).
    let (pred, reached) = &explanation.predicate_notes[0];
    assert!(pred.contains("Nobody Nowhere"));
    assert_eq!(*reached, 6);
}

/// Regression: integer `+ - * /` ran unchecked, so `i64::MIN / -1` panicked
/// in every build and a sum past `i64::MAX` panicked in a debug build and
/// wrapped — silently losing every row of a `WHERE` — in a release one. Each
/// is a typed evaluation error naming the operation and its operands, in a
/// `WHERE` and in a projection, on the row-at-a-time and the vectorized path.
#[test]
fn integer_overflow_is_a_typed_error_not_a_panic_or_a_wrong_answer() {
    use talkback::{PlannerOptions, TalkbackError};
    let system = Talkback::new(movie_database());
    let cases = [
        (
            "select (0 - 9223372036854775807 - 1) / (m.id - m.id - 1) from MOVIES m",
            "integer overflow in -9223372036854775808 / -1",
        ),
        (
            "select m.title from MOVIES m where m.id = 1 and m.year + 9223372036854775807 > 0",
            "integer overflow in 2005 + 9223372036854775807",
        ),
        (
            "select m.id - 9223372036854775807 - 9223372036854775807 from MOVIES m where m.id = 1",
            "integer overflow in -9223372036854775806 - 9223372036854775807",
        ),
        (
            "select m.title from MOVIES m where m.id = 2 and m.id * 9223372036854775807 > 0",
            "integer overflow in 2 * 9223372036854775807",
        ),
    ];
    for (sql, message) in cases {
        for use_vectorized in [false, true] {
            let options = PlannerOptions {
                use_vectorized,
                ..PlannerOptions::default()
            };
            match system.run_query_with(sql, options) {
                Err(TalkbackError::Store(datastore::StoreError::Eval { message: got })) => {
                    assert_eq!(got, message, "{sql}")
                }
                other => panic!("{sql}\nshould fail to evaluate, got {other:?}"),
            }
        }
    }
    // Arithmetic that fits still answers, and division by zero keeps its own
    // message.
    let fits = "select m.id * 2 - 1 from MOVIES m where m.id + 9223372036854775797 > 0";
    assert_eq!(system.run_query(fits).unwrap().len(), 10);
    let by_zero = system.run_query("select m.id / (m.id - m.id) from MOVIES m");
    assert_eq!(
        by_zero.unwrap_err().to_string(),
        "evaluation error: division by zero"
    );
}

/// A `Float` table of 30 rows, every third `x` a NaN, the others `id / 2`.
fn nan_database() -> datastore::Database {
    use datastore::{ColumnDef, DataType, TableSchema, Value};
    let mut db = datastore::Database::new();
    let schema = TableSchema::new(
        "T",
        vec![
            ColumnDef::new("id", DataType::Integer),
            ColumnDef::new("x", DataType::Float),
        ],
    )
    .with_primary_key(&["id"]);
    db.create_table(schema).unwrap();
    for id in 0..30i64 {
        let x = if id % 3 == 0 {
            f64::NAN
        } else {
            id as f64 / 2.0
        };
        db.insert("T", vec![Value::int(id), Value::Float(x)])
            .unwrap();
    }
    db
}

/// Regression: every float comparison ended in
/// `partial_cmp(..).unwrap_or(Equal)`, so a NaN *equalled* every number —
/// `t.x = 1.5` returned every NaN row — and `ORDER BY t.x` sorted with a
/// comparator that was not an order. A NaN now equals only itself and sorts
/// after every number, on the row-at-a-time and the vectorized path alike.
#[test]
fn a_nan_equals_nothing_but_itself_and_sorts_last() {
    use datastore::Value;
    use talkback::PlannerOptions;
    let system = Talkback::new(nan_database());
    let run = |sql: &str, use_vectorized: bool| {
        let options = PlannerOptions {
            use_vectorized,
            ..PlannerOptions::default()
        };
        system.run_query_with(sql, options).unwrap().rows
    };
    for use_vectorized in [false, true] {
        // id 3 is a NaN row, id 4 holds 2.0, and 1.5 = 3 / 2 is nobody's x
        // but a NaN's neighbour.
        let equal = run("select t.id from T t where t.x = 2.0", use_vectorized);
        assert_eq!(equal, [Row::new(vec![Value::int(4)])], "{use_vectorized}");
        let none = run("select t.id from T t where t.x = 0.75", use_vectorized);
        assert!(none.is_empty(), "{use_vectorized}: {none:?}");
        // Nothing is below, or at most, a NaN except a NaN.
        let below = run("select t.id from T t where t.x < 1.0", use_vectorized);
        assert_eq!(below, [Row::new(vec![Value::int(1)])], "{use_vectorized}");
        let above = run("select t.id from T t where t.x > 14.0", use_vectorized);
        assert_eq!(above.len(), 1 + 10, "29 / 2 and the ten NaNs sort above");
    }
    for sql in [
        "select t.id from T t where t.x = 2.0",
        "select t.id from T t where t.x <> 2.0",
        "select t.id from T t where t.x <= 7.0",
        "select t.id, t.x from T t order by t.x, t.id",
        "select t.id, t.x from T t order by t.x desc, t.id limit 12",
    ] {
        assert_eq!(run(sql, false), run(sql, true), "{sql}");
    }
    let sorted = run("select t.id, t.x from T t order by t.x, t.id", true);
    assert_eq!(
        sorted,
        run("select t.id, t.x from T t order by t.x, t.id", true)
    );
    let xs: Vec<f64> = sorted
        .iter()
        .map(|r| match r.get(1) {
            Some(Value::Float(x)) => *x,
            other => panic!("{other:?}"),
        })
        .collect();
    let (numbers, nans) = xs.split_at(20);
    assert!(numbers.windows(2).all(|w| w[0] < w[1]), "{numbers:?}");
    assert!(nans.iter().all(|x| x.is_nan()), "{nans:?}");
    let nan_ids: Vec<&Value> = sorted[20..].iter().map(|r| r.get(0).unwrap()).collect();
    assert_eq!(
        nan_ids[..3],
        [&Value::int(0), &Value::int(3), &Value::int(6)]
    );

    // Through CSV and back: "NaN" parses as a float, and is still no number's
    // equal on the other side.
    let table = system.database().table("T").unwrap();
    let csv = datastore::csvio::table_to_csv(table);
    let reloaded = datastore::csvio::csv_to_table(table.schema().clone(), &csv).unwrap();
    let mut db = datastore::Database::new();
    db.create_table(table.schema().clone()).unwrap();
    for row in reloaded.rows() {
        db.insert("T", row.values().to_vec()).unwrap();
    }
    let reloaded = Talkback::new(db);
    let equal = reloaded.run_query("select t.id from T t where t.x = 2.0");
    assert_eq!(equal.unwrap().rows, [Row::new(vec![Value::int(4)])]);
    let nans = reloaded.run_query("select t.id from T t where t.x > 14.5");
    assert_eq!(nans.unwrap().len(), 10);
}

/// Regression: `LIMIT k` over a sort was planned as a top-k (the sort priced
/// at `k` rows) and executed as a full sort handing on a 1 024-row batch, so
/// the system confessed a 68× misestimate it had not made — in the tree, in
/// the narration, in the ledger and in the query log.
#[test]
fn explain_analyze_golden_a_sort_under_a_limit_emits_the_limit() {
    let system = Talkback::new(scaled_movie_database(ScaleConfig {
        movies: 3000,
        actors: 1800,
        directors: 600,
        ..ScaleConfig::default()
    }));
    let sql = "select m.id, m.title, m.year from MOVIES m order by m.year, m.id limit 15";
    let e = system
        .explain_plan(&format!("explain analyze {sql}"))
        .unwrap();
    assert_eq!(
        e.tree,
        "limit: 15  [est=15 actual=15 in=15 batches=1]\n\
         └─ sort: m.year, m.id  [est=15 actual=15 in=3000 batches=1]\n\
         \u{20}  └─ project: m.id, m.title, m.year  [est=3000 actual=3000 in=3000 batches=3]\n\
         \u{20}     └─ scan: MOVIES as m  [est=3000 actual=3000 in=3000 batches=3]\n"
    );
    assert!(
        !e.narration.contains("My estimate for the sort"),
        "{}",
        e.narration
    );
    e.profile
        .walk(&mut |p| assert!(p.misestimate().is_none(), "{}: {}", p.operator(), e.tree));

    // The same rows as the whole sort's first fifteen, ties on `year` broken
    // by `id` as written.
    let limited = system.run_query(sql).unwrap();
    let whole = system.run_query(sql.trim_end_matches(" limit 15")).unwrap();
    assert_eq!(whole.len(), 3000);
    assert_eq!(limited.rows, whole.rows[..15]);

    // A sort without a limit whose estimate really is off is still flagged.
    let plan = datastore::exec::Plan::scan("MOVIES", "m")
        .sort(vec![datastore::exec::SortKey {
            column: 2,
            ascending: true,
        }])
        .with_estimate(15.0);
    let (_, profile) = execute_with_stats(system.database(), &plan).unwrap();
    assert_eq!(profile.operator(), "sort");
    assert_eq!(profile.metrics().rows_out, 3000);
    assert!(
        profile.root().misestimate().is_some(),
        "{}",
        profile.render_tree(true)
    );
}

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

/// Plan every paper, shape and EMP/DEPT query under the 8 planner corners
/// (indexes × vectorized × decorrelation) and hand each plan to `f`.
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
        for corner in 0..8u32 {
            let options = PlannerOptions {
                use_indexes: corner & 1 != 0,
                use_vectorized: corner & 2 != 0,
                decorrelate_subqueries: corner & 4 != 0,
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
            // An operator waits as long as what it pulls from ran.
            let waited_for: Duration = pulled.iter().map(|c| c.metrics().elapsed).sum();
            assert!(m.blocked >= waited_for, "a pull is a wait: {at}");
            // It counts in exactly what its inputs handed out.
            if !pulled.is_empty() {
                let handed_out: u64 = pulled.iter().map(|c| c.metrics().rows_out).sum();
                assert_eq!(m.rows_in, handed_out, "rows in = rows pulled: {at}");
            }
        });
    });
}

#[test]
fn a_tally_finds_what_a_walk_of_the_profile_finds() {
    // The record reads a statement's counters through one walk of its shape
    // (`Tally`); the profile's own nodes are the reference, at a factor that
    // flags little and one that flags much.
    let (mut flagged, mut learned) = (0, 0);
    for_each_planned_corner(|db, sql, plan, options| {
        let (_, profile) = execute_with_stats(db, plan).unwrap();
        for flag_factor in [10.0, 1.5] {
            let tally = Tally::new(profile.shape(), profile.counters(), flag_factor);
            let mut walked = Tally {
                flag_factor,
                ..Tally::default()
            };
            profile.walk(&mut |node| {
                let m = node.metrics();
                match node.kind() {
                    OpKind::Scan | OpKind::IndexScan | OpKind::IndexProbe => {
                        walked.rows_scanned += m.rows_out
                    }
                    OpKind::Apply => walked.apply_rows += m.rows_in,
                    OpKind::Sort => walked.sorts += 1,
                    _ => {}
                }
                if node.misestimate_with(flag_factor).is_some() {
                    walked.flagged = true;
                    walked.learns |= node.shape_key().is_some() && node.children().next().is_some();
                }
            });
            assert_eq!(tally, walked, "{sql} under {options:?} at {flag_factor}");
            (flagged, learned) = (
                flagged + tally.flagged as u32,
                learned + tally.learns as u32,
            );
        }
    });
    assert!(
        flagged > 0 && learned > 0,
        "{flagged} flagged, {learned} learned"
    );
}
