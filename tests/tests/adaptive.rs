//! Acceptance tests for adaptive planning: the cardinality-feedback loop
//! (a ≥10×-misestimated query plans differently — and says so — on its next
//! run) and the literal-normalized plan cache (repeated point lookups skip
//! parsing and planning entirely, invalidated by DDL/write/feedback epochs).
//! A seeded pseudo-random property test interleaves inserts, CREATE/DROP
//! INDEX (ordered and hash), and literals of varying value and kind to check
//! cached and uncached executions stay byte-identical; negative cache entries
//! are followed through their life; and the nine paper queries are run under
//! every feedback × cache × parallelism combination.

use datastore::obs::Counter;
use datastore::sample::{movie_database, scaled_movie_database, ScaleConfig};
use datastore::{
    CacheStatus, ColumnDef, DataType, Database, EpochCause, IndexDef, IndexKind, ParamKind,
    TableSchema, Uncacheable, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use talkback::planner::plan_template;
use talkback::{plan_query_with, PlanDecision, PlannerOptions, Talkback};
use talkback_tests::{
    assert_recorded_feedback_is_found, counted_run, normalize_durations, squash_ws,
};

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

fn sequential() -> PlannerOptions {
    PlannerOptions {
        parallelism: 1,
        ..PlannerOptions::default()
    }
}

/// A fact/dimension pair where the uniform-NDV assumption is badly wrong:
/// half of FACTS shares one `category` value while the other half spreads
/// over 100, so `category = 'hot'` is estimated at ~20 rows but returns
/// 1,000 — a 50× miss, far past the 10× flag threshold.
fn skewed_join_database() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "DIM",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("name", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    for i in 0..500i64 {
        db.insert("DIM", vec![Value::int(i), Value::text(format!("dim-{i}"))])
            .unwrap();
    }
    db.create_table(
        TableSchema::new(
            "FACTS",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("did", DataType::Integer),
                ColumnDef::new("category", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    for i in 0..2000i64 {
        let category = if i < 1000 {
            "hot".to_string()
        } else {
            format!("c{}", i % 100)
        };
        db.insert(
            "FACTS",
            vec![Value::int(i), Value::int(i % 500), Value::text(category)],
        )
        .unwrap();
    }
    db
}

/// The tentpole acceptance: a ≥10×-misestimated query plans differently on
/// its second run. The 20-row estimate makes FACTS look like a perfect
/// index-nested-loop driver into DIM's primary key; the observed 1,000 rows
/// flip the plan to a hash join, and the narration owns up to the
/// correction.
#[test]
fn misestimated_join_replans_on_second_run() {
    let system = Talkback::new(skewed_join_database());
    let sql = "select d.name from FACTS f, DIM d where f.did = d.id and f.category = 'hot'";

    // First plan: trusts the histogram (≈20 rows) and probes DIM's index
    // once per expected row.
    let before = system.explain_plan_with(sql, sequential()).unwrap();
    assert!(
        before.tree.contains("index nested-loop join"),
        "first plan should INLJ:\n{}",
        before.tree
    );

    // Execute: the filter actually passes 1,000 rows, a flagged misestimate
    // that the engine folds into its feedback store.
    let rows = system.run_query_with(sql, sequential()).unwrap();
    assert_eq!(rows.len(), 1000);

    // Second plan: the observed selectivity (0.5, not 1/101) makes 1,000
    // index probes cost more than building a 500-row hash table.
    let after = system.explain_plan_with(sql, sequential()).unwrap();
    assert!(
        after.tree.contains("hash join"),
        "replanned query should hash-join:\n{}",
        after.tree
    );
    assert!(
        !after.tree.contains("index nested-loop join"),
        "replanned query should drop the INLJ:\n{}",
        after.tree
    );
    assert!(
        after
            .decisions
            .iter()
            .any(|d| matches!(d, PlanDecision::Feedback { .. })),
        "second plan should record a Feedback decision"
    );
    assert!(
        after.narration.contains("Last time I expected"),
        "narration should quote the correction:\n{}",
        after.narration
    );

    // The counter surface agrees.
    assert!(
        system
            .database()
            .obs()
            .counter(Counter::FeedbackOverridesApplied)
            >= 1
    );

    // A/B knob: with feedback off the optimizer repeats its mistake.
    let off = system
        .explain_plan_with(
            sql,
            PlannerOptions {
                use_feedback: false,
                ..sequential()
            },
        )
        .unwrap();
    assert!(
        off.tree.contains("index nested-loop join"),
        "use_feedback=false should reproduce the original plan:\n{}",
        off.tree
    );
}

/// The other direction: an *over*estimate. `category` holds two values, so
/// uniform NDV expects `category = 'rare'` to keep half of FACTS — far too
/// many for the index on it to look worthwhile — when it keeps 1 row in 100.
/// After one run the planner knows, probes the index, and the executor reads
/// the matching rows instead of the table; the answer does not change.
#[test]
fn overestimated_filter_switches_to_the_index_and_reads_fewer_rows() {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "FACTS",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("category", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    for i in 0..2000i64 {
        let category = if i % 100 == 0 { "rare" } else { "common" };
        db.insert("FACTS", vec![Value::int(i), Value::text(category)])
            .unwrap();
    }
    db.create_index(IndexDef::single(
        "facts_by_category",
        "FACTS",
        "category",
        IndexKind::Ordered,
    ))
    .unwrap();
    let system = Talkback::new(db);
    let sql = "select f.id from FACTS f where f.category = 'rare'";
    // The plan cache would replay the first plan's template; this test is
    // about what the planner does with what it learned.
    let options = PlannerOptions {
        use_plan_cache: false,
        ..sequential()
    };
    // The two plans may hand the rows on in different orders.
    let run = || {
        let (answer, scanned, probes) = counted_run(&system, sql, options);
        let mut rows = answer.rows;
        rows.sort_by_key(|r| format!("{r:?}"));
        (rows, scanned, probes)
    };

    let before = system.explain_plan_with(sql, options).unwrap();
    assert!(
        !before.tree.contains("index scan"),
        "first plan should trust the statistics and scan:\n{}",
        before.tree
    );
    let (first_rows, first_scanned, first_probes) = run();
    assert_eq!(first_rows.len(), 20);
    assert_eq!((first_scanned, first_probes), (2000, 0));

    let after = system.explain_plan_with(sql, options).unwrap();
    assert!(
        after.tree.contains("index scan"),
        "corrected plan should probe the category index:\n{}",
        after.tree
    );
    let (corrected_rows, corrected_scanned, corrected_probes) = run();
    assert_eq!(
        corrected_rows, first_rows,
        "replanning never changes the answer"
    );
    assert_eq!((corrected_scanned, corrected_probes), (20, 1));
}

/// The corrected shape shows up in `SHOW MISESTIMATES` once the planner has
/// actually applied the override.
#[test]
fn show_misestimates_reports_corrected_shapes() {
    let system = Talkback::new(skewed_join_database());
    let sql = "select f.id from FACTS f where f.category = 'hot'";
    system.run_query_with(sql, sequential()).unwrap();

    // Not corrected yet: the engine has absorbed the miss but no later plan
    // has consulted it.
    let report = system.execute_show("show misestimates").unwrap();
    let row = report
        .table
        .lines()
        .find(|l| l.contains("f.category = ?"))
        .expect("a FACTS ledger row");
    assert!(row.contains(" - "), "not yet corrected: {row}");

    // Re-plan (the run also re-executes, which is fine): the override fires
    // and the ledger's `corrected` column flips.
    system.run_query_with(sql, sequential()).unwrap();
    let report = system.execute_show("show misestimates").unwrap();
    let row = report
        .table
        .lines()
        .find(|l| l.contains("f.category = ?"))
        .expect("a FACTS ledger row");
    assert!(row.contains("yes"), "corrected: {row}");
    assert!(
        report.narration.contains("replanned"),
        "{}",
        report.narration
    );
}

/// Regression: feedback used to be learned from *every* flagged filter, under
/// a key guessed from the executed tree — also from filters no plan ever looks
/// up (a residual over two tables, charged to the leftmost scan). Each run
/// then bumped the epoch for nothing and took every cached plan with it. A
/// filter the planner did not name teaches nothing now: no entry, no bump,
/// and the lookups interleaved with it keep hitting. The ledger still shows
/// the misestimate.
#[test]
fn an_unfindable_misestimate_no_longer_flushes_the_plan_cache() {
    let residual = "select m.title from MOVIES m, CAST c \
                    where m.id = c.mid and m.year + c.aid > 100000";
    for (statement, runs, ledger_shape) in [
        (residual, 4, "filter m.year + c.aid > ?"),
        (PAPER_QUERIES[8], 1, "filter m1.id <> m2.id"),
    ] {
        let system = Talkback::new(scaled_movie_database(ScaleConfig::default()));
        let (obs, adaptive) = (system.database().obs(), system.database().adaptive());
        let mut lookups = 0;
        let mut lookup = |id: i64| {
            let sql = format!("select m.title from MOVIES m where m.id = {id}");
            system.run_query_with(&sql, sequential()).unwrap();
            lookups += 1;
        };
        lookup(1);
        for round in 0..runs {
            system.run_query_with(statement, sequential()).unwrap();
            lookup(2 + 2 * round);
            lookup(3 + 2 * round);
        }
        assert_eq!(
            adaptive.epoch_cause_counts()[EpochCause::Feedback as usize],
            0,
            "{statement}"
        );
        assert!(adaptive.feedback().is_empty(), "{:?}", adaptive.feedback());
        assert_eq!(
            obs.counter(Counter::PlanCacheHits),
            lookups - 1,
            "{statement}"
        );
        let ledger = obs.misestimates();
        assert!(
            ledger.keys().any(|(_, shape)| shape == ledger_shape),
            "the ledger should still show {ledger_shape}: {:?}",
            ledger.keys()
        );
    }
}

/// Recorded ⇒ found, for every way a pushed conjunct can be written: the
/// planner names the conjunct once and the executor only carries the name, so
/// whatever one run learns the next plan looks up. (A plan-cache template
/// carries the same names as the statement it was made from, or it would not
/// have been cached: `lookup_shapes_still_bind_to_their_fresh_plan`.)
#[test]
fn what_a_run_records_the_next_plan_finds() {
    // NOTES.note is NULL exactly where id <= 20: the statistics know how many
    // NULLs there are, not where, so a NULL test beside an id range misses.
    let mut db = scaled_movie_database(ScaleConfig::default());
    db.create_table(
        TableSchema::new(
            "NOTES",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::nullable("note", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    for id in 1..=200i64 {
        let note = if id <= 20 {
            Value::Null
        } else {
            Value::text("seen")
        };
        db.insert("NOTES", vec![Value::int(id), note]).unwrap();
    }
    let system = Talkback::new(db);
    let uncached = PlannerOptions {
        use_plan_cache: false,
        ..sequential()
    };
    let movies = "select m.title from MOVIES m where";
    let notes = "select n.id from NOTES n where n.id <= 20 and";
    let conjuncts = [
        (movies, "m.year > 1990", "m.year > ?"),
        (movies, "1990 < m.year", "? < m.year"),
        (
            movies,
            "m.year between 1980 and 1995",
            "m.year BETWEEN ? AND ?",
        ),
        (
            movies,
            "m.year not between 1980 and 1995",
            "m.year NOT BETWEEN ? AND ?",
        ),
        (movies, "m.id in (1, 2, 300)", "m.id IN (?, ?, ?)"),
        (
            movies,
            "m.title not in ('Troy', 'Seven')",
            "m.title NOT IN (?, ?)",
        ),
        (movies, "m.title like 'The%'", "m.title LIKE ?"),
        (movies, "m.title not like '%''s %'", "m.title NOT LIKE ?"),
        (notes, "n.note is null", "n.note IS NULL"),
        (notes, "n.note is not null", "n.note IS NOT NULL"),
        (movies, "not (m.year = 1990)", "NOT (m.year = ?)"),
        (movies, "m.year + 1 > 1990", "m.year + ? > ?"),
        (
            movies,
            "m.year > 1990 or m.title = 'Troy'",
            "m.year > ? OR m.title = ?",
        ),
        // Unqualified and oddly-cased references are the same column — and
        // the same shape as the first statement's, whose observed selectivity
        // these two are planned with (and, at another bound, correct again).
        (movies, "year > 1960", "m.year > ?"),
        (movies, "M.YEAR > 2005", "m.year > ?"),
    ];
    for (select, conjunct, shape) in conjuncts {
        let sql = format!("{select} {conjunct}");
        let touched = assert_recorded_feedback_is_found(&system, &sql, uncached);
        assert!(
            touched.iter().any(|(_, s)| s == shape),
            "{conjunct} should have been recorded as {shape}: {touched:?}"
        );
    }
    // A correlated selection: the enclosing block's column is a constant too.
    let nested = "select m.title from MOVIES m where exists \
                  (select * from CAST c, ACTOR a where c.aid > m.id and a.id = c.aid)";
    let touched = assert_recorded_feedback_is_found(&system, nested, uncached);
    assert!(
        touched.contains(&("CAST".to_string(), "c.aid > ?".to_string())),
        "{touched:?}"
    );
}

/// `lookup`'s cacheable shapes still template: a bound template equals the
/// fresh plan node for node — the shape keys included, a `?0` and a literal
/// being the same `?` — so the second literal of each shape is a hit.
#[test]
fn lookup_shapes_still_bind_to_their_fresh_plan() {
    let mut system = Talkback::new(scaled_movie_database(ScaleConfig::default()));
    for ddl in [
        "create index idx_cast_mid_aid on CAST (mid, aid)",
        "create index idx_actor_name on ACTOR (name) using hash",
    ] {
        system.execute_ddl(ddl).unwrap();
    }
    let names = system
        .database()
        .table("ACTOR")
        .unwrap()
        .column_values("name");
    let name = |i: usize| names[i].as_str().unwrap().replace('\'', "''");
    let shapes: [&dyn Fn(usize) -> String; 5] = [
        &|i| format!("select m.title from MOVIES m where m.id = {}", i + 1),
        &|i| format!("select c.role from CAST c where c.mid = {}", i + 1),
        &|i| {
            format!(
                "select m.title from ACTOR a, CAST c, MOVIES m \
                 where a.name = '{}' and c.aid = a.id and m.id = c.mid",
                name(i)
            )
        },
        &|i| format!("select c.mid, c.aid from CAST c where c.mid = {}", i + 1),
        // A pushed filter above the probe: its key is part of the template.
        &|i| {
            format!(
                "select m.title from MOVIES m where m.id = {} and m.year = 1990",
                i + 1
            )
        },
    ];
    let obs = system.database().obs();
    for (n, shape) in shapes.iter().enumerate() {
        for i in 0..3 {
            system.run_query_with(&shape(i), sequential()).unwrap();
        }
        assert_eq!(
            obs.counter(Counter::PlanCacheHits),
            2 * (n as u64 + 1),
            "{}",
            shape(0)
        );
    }
}

/// Repeated point lookups — different literals, same shape — hit the plan
/// cache, and the counters say so.
#[test]
fn repeated_point_lookups_hit_the_plan_cache() {
    let system = Talkback::new(movie_database());
    let obs = system.database().obs();

    let first = system
        .run_query_with("select m.title from MOVIES m where m.id = 6", sequential())
        .unwrap();
    assert_eq!(obs.counter(Counter::PlanCacheMisses), 1);
    assert_eq!(obs.counter(Counter::PlanCacheHits), 0);

    // Different literal, same normalized statement: served from the cache,
    // and nothing was planned — the miss recorded its decisions, the hit
    // records none.
    let planned = obs.decisions();
    assert!(!planned.is_empty());
    let second = system
        .run_query_with("select m.title from MOVIES m where m.id = 3", sequential())
        .unwrap();
    assert_eq!(obs.counter(Counter::PlanCacheHits), 1);
    assert_eq!(obs.counter(Counter::PlanCacheMisses), 1);
    assert_eq!(obs.decisions(), planned);

    // The literals were really re-bound — these are different movies.
    assert_ne!(first.rows, second.rows);

    // A literal of another kind is another template, not a replacement for
    // this one: the float shape misses once, then both shapes hit.
    let run = |sql: &str| system.run_query_with(sql, sequential()).unwrap();
    assert_eq!(
        run("select m.title from MOVIES m where m.id = 6.0").rows,
        first.rows
    );
    assert_eq!(obs.counter(Counter::PlanCacheMisses), 2);
    assert_eq!(
        run("select m.title from MOVIES m where m.id = 3.0").rows,
        second.rows
    );
    assert_eq!(
        run("select m.title from MOVIES m where m.id = 6").rows,
        first.rows
    );
    assert_eq!(obs.counter(Counter::PlanCacheHits), 3);
    assert_eq!(obs.counter(Counter::PlanCacheMisses), 2);
    assert_eq!(system.database().adaptive().plan_cache().len(), 2);

    // And the cached runs still journal like any other statement.
    assert_eq!(obs.journal().len(), 5);

    // A/B knob: with the cache off, nothing is consulted or counted.
    let off = PlannerOptions {
        use_plan_cache: false,
        ..sequential()
    };
    system
        .run_query_with("select m.title from MOVIES m where m.id = 6", off)
        .unwrap();
    assert_eq!(obs.counter(Counter::PlanCacheHits), 3);
    assert_eq!(obs.counter(Counter::PlanCacheMisses), 2);
}

/// DDL and writes bump the epoch, so a cached template is never replayed
/// against a world it was not planned for.
#[test]
fn ddl_and_writes_invalidate_cached_plans() {
    let mut system = Talkback::new(movie_database());
    let q = "select m.title from MOVIES m where m.year = 2000";
    system.run_query_with(q, sequential()).unwrap(); // miss, cached
    system.run_query_with(q, sequential()).unwrap(); // hit
    let obs_hits = system.database().obs().counter(Counter::PlanCacheHits);
    assert_eq!(obs_hits, 1);

    // CREATE INDEX changes the available access paths: the template planned
    // without the index must die, and the re-planned statement now probes.
    system
        .execute_ddl("create index by_year on MOVIES(year)")
        .unwrap();
    system.run_query_with(q, sequential()).unwrap(); // stale → miss, re-cached
    assert_eq!(system.database().obs().counter(Counter::PlanCacheHits), 1);
    assert_eq!(system.database().obs().counter(Counter::PlanCacheMisses), 2);
    // EXPLAIN is served from that template too: a hit.
    let e = system.explain_plan_with(q, sequential()).unwrap();
    assert!(e.tree.contains("index scan"), "{}", e.tree);
    assert_eq!(system.database().obs().counter(Counter::PlanCacheHits), 2);

    // A write invalidates too (statistics may have shifted).
    system.run_query_with(q, sequential()).unwrap(); // hit again
    system
        .database_mut()
        .insert(
            "MOVIES",
            vec![Value::int(900), Value::text("Epoch"), Value::int(2000)],
        )
        .unwrap();
    system.run_query_with(q, sequential()).unwrap(); // stale → miss
    assert_eq!(system.database().obs().counter(Counter::PlanCacheHits), 3);
    assert_eq!(system.database().obs().counter(Counter::PlanCacheMisses), 3);

    // Asking for a table that does not exist is not a write: the epoch
    // stays and the cached plan goes on answering.
    let epoch = system.database().adaptive().epoch();
    assert!(system.database_mut().table_mut("NOPE").is_none());
    assert_eq!(system.database().adaptive().epoch(), epoch);
    system.run_query_with(q, sequential()).unwrap(); // hit
    assert_eq!(system.database().obs().counter(Counter::PlanCacheHits), 4);
    assert_eq!(system.database().obs().counter(Counter::PlanCacheMisses), 3);
}

/// The plan cache's oracle. On a miss the engine plans a statement once, as
/// its template, and runs the template bound to the statement's literals:
/// that must be the plan `plan_query_with` makes of the statement, node for
/// node (estimates included), with the same decisions once bound and the
/// same `WHERE` count. The statement is parsed, its literals lifted and the
/// template planned with each `?k` standing for its literal, as the engine
/// does; `false` when the parameterizer refuses the statement, which the
/// engine then plans afresh.
fn template_is_the_fresh_plan(db: &Database, sql: &str, options: PlannerOptions) -> bool {
    let literals = sqlparse::normalize_statement(sql).unwrap().literals;
    let query = sqlparse::parse_query(sql).unwrap();
    let fresh = plan_query_with(db, &query, options).unwrap();
    let mut parameterized = query;
    let Ok(lifted) = sqlparse::parameterize_select(&mut parameterized) else {
        return false;
    };
    let same = |(a, b): (&Value, &Value)| a == b && ParamKind::of(a) == ParamKind::of(b);
    assert!(
        lifted.len() == literals.len() && lifted.iter().zip(&literals).all(same),
        "{sql}: the parser lifted {lifted:?}, the text scanner {literals:?}"
    );
    let (template, _) = plan_template(db, &parameterized, options, &literals).unwrap();
    assert_eq!(
        template.plan.bind_params(&literals),
        fresh.plan,
        "{sql}: the bound template is not the fresh plan"
    );
    let bound: Vec<_> = (template.decisions.iter())
        .map(|d| d.bind(&literals).into_owned())
        .collect();
    assert_eq!(
        bound, fresh.decisions,
        "{sql}: the bound template's decisions are not the fresh ones"
    );
    assert_eq!(template.where_conditions, fresh.where_conditions, "{sql}");
    true
}

/// Seeded pseudo-random property test (the workspace has no proptest): two
/// engines over identical data — one with the plan cache, one without —
/// stay byte-identical in rows, row order, columns, and executed plan shape
/// while the test interleaves lookups, the paper's nested shapes (Q5–Q9, a
/// correlated EXISTS) and range shapes (`<`, `<=`, `>`, `>=` and `[NOT]
/// BETWEEN` on MOVIES.year and MOVIES.id, at the top and inside an EXISTS
/// and a NOT IN, bounds below, at, inside and above the column's range)
/// with literals of varying value *and kind* (a text literal against an
/// integer column under `=` and as a range bound, a float against an integer
/// key), inserts, and CREATE/DROP INDEX of ordered and hash indexes. Before
/// each statement is planned or run, the oracle
/// ([`template_is_the_fresh_plan`]) holds its template to its fresh plan,
/// and at the end no shape's verdict is "value dependent". Some
/// statements are also explained, plain and with ANALYZE, and the two
/// engines' trees, narrations and decisions must agree — the cached one's
/// bound from a template when it has one — and so must they after feedback
/// is absorbed between two EXPLAINs. The cached engine must actually hit its
/// cache for the comparison to mean anything — on every nested shape and
/// every range shape (one template per class of its bounds), on the shapes
/// whose plan probes a hash index, which a template can only do
/// when it knows its parameter's kind, and on EXPLAIN. The seed is fixed;
/// `ADAPTIVE_SEED=<u64>` adds one more (CI passes the clock), and every
/// failure names its seed.
#[test]
fn cached_and_uncached_executions_are_byte_identical() {
    let mut seeds = vec![0xADA9_71CE];
    if let Ok(extra) = std::env::var("ADAPTIVE_SEED") {
        seeds.push(extra.parse().expect("ADAPTIVE_SEED is a u64"));
    }
    for seed in seeds {
        cached_and_uncached_agree(seed);
    }
}

fn cached_and_uncached_agree(seed: u64) {
    const ACTORS: [&str; 4] = ["Brad Pitt", "Scarlett Johansson", "Mark Hamill", "Nobody"];
    // (name, definition) of the secondary indexes the test toggles.
    const INDEXES: [(&str, &str); 3] = [
        ("adaptive_by_year", "MOVIES(year)"),
        ("adaptive_by_name", "ACTOR(name) using hash"),
        ("adaptive_by_aid", "CAST(aid) using hash"),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    // Which statements are also explained: drawn apart, so the statements
    // themselves are the ones the seed always drew.
    let mut explain_rng = StdRng::seed_from_u64(seed ^ 0xE7B1_A1A5);
    // Which steps also ask a range question, and the question: drawn apart
    // for the same reason.
    let mut range_rng = StdRng::seed_from_u64(seed ^ 0x5A9E_B0D5);
    // Which kind-mismatched question shape 6 asks: drawn apart too.
    let mut kind_rng = StdRng::seed_from_u64(seed ^ 0x0C1A_55E5);
    let mut cached = Talkback::new(movie_database());
    let mut uncached = Talkback::new(movie_database());
    let cached_opts = sequential();
    let uncached_opts = PlannerOptions {
        use_plan_cache: false,
        ..sequential()
    };

    let mut indexed = [false; INDEXES.len()];
    let mut next_id = 1000i64;
    // Cache hits whose executed plan probed one of the two hash indexes.
    let mut hash_probe_hits = [0u32; 2];
    // Cache hits of each nested shape, and of each range shape.
    let mut nested_hits = [0u32; 6];
    let mut range_hits = [0u32; 6];
    // A range bound on MOVIES.year or MOVIES.id, below the minimum, at it,
    // inside, at the maximum (of the fixture, and of the inserted rows) or
    // above it; an Integer or a Float literal.
    let bound = |rng: &mut StdRng, column: &str| {
        let points: [i64; 8] = match column {
            "year" => [1900, 1980, 1995, 2001, 2004, 2006, 2019, 2100],
            _ => [0, 1, 3, 6, 10, 1000, 1010, 9999],
        };
        let point = points[rng.gen_range(0..points.len())];
        match rng.gen_range(0..3u8) {
            0 => format!("{point}.5"),
            1 => format!("{point}.0"),
            _ => format!("{point}"),
        }
    };
    let column = |rng: &mut StdRng| ["year", "id"][rng.gen_range(0..2usize)];
    let range_op = |rng: &mut StdRng| ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
    // The range shapes, 14 to 19: a bound on either side of its column,
    // BETWEEN, `lookup`'s year + id shape, and bounds inside a correlated
    // EXISTS and a NOT IN.
    let range_statement = |rng: &mut StdRng, shape: u8| match shape {
        14 => {
            let (col, op) = (column(rng), range_op(rng));
            let b = bound(rng, col);
            if rng.gen_bool(0.5) {
                format!("select m.title from MOVIES m where m.{col} {op} {b}")
            } else {
                format!("select m.title from MOVIES m where {b} {op} m.{col}")
            }
        }
        15 => {
            let col = column(rng);
            let (lo, hi) = (bound(rng, col), bound(rng, col));
            let not = ["", "not "][rng.gen_range(0..2usize)];
            format!("select m.id from MOVIES m where m.{col} {not}between {lo} and {hi}")
        }
        16 => format!(
            "select m.title from MOVIES m where m.year = {} and m.id <= {}",
            rng.gen_range(1990..2020i64),
            bound(rng, "id")
        ),
        17 => {
            let (col, op) = (column(rng), range_op(rng));
            let b = bound(rng, col);
            format!(
                "select m.title from MOVIES m where m.{col} {op} {b} and exists \
                 (select * from CAST c where c.mid = m.id and c.aid <= {})",
                rng.gen_range(1..16i64)
            )
        }
        18 => {
            let (col, op) = (column(rng), range_op(rng));
            let b = bound(rng, col);
            format!(
                "select m.title from MOVIES m where m.id not in \
                 (select m2.id from MOVIES m2 where m2.{col} {op} {b})"
            )
        }
        _ => {
            let col = column(rng);
            let (lo, hi) = (bound(rng, col), bound(rng, col));
            format!(
                "select m.title from MOVIES m where exists \
                 (select * from MOVIES m2 where m2.id = m.id \
                 and m2.{col} between {lo} and {hi})"
            )
        }
    };
    // The last statement each engine journaled reads the same in `SHOW
    // PROFILE`, times (and the column widths they set) aside: the cached
    // one's profile is its template's shape with its own counters and
    // literals.
    let profiles_agree = |cached: &Talkback, uncached: &Talkback, what: &str| {
        let profile = |t: &Talkback| {
            let table = normalize_durations(&t.execute_show("show profile").unwrap().table);
            let line = |l: &str| {
                let indent = l.len() - l.trim_start().len();
                format!("{}{}", &l[..indent], squash_ws(l))
            };
            table.lines().map(line).collect::<Vec<_>>()
        };
        assert_eq!(
            profile(cached),
            profile(uncached),
            "seed {seed} {what}: SHOW PROFILE diverged"
        );
    };
    // `explain_result` calls served from a template.
    let mut explained_hits = 0u32;
    // Statements the oracle held to their fresh plans.
    let mut templated = 0u32;
    // `EXPLAIN [ANALYZE]` calls served from a template.
    let mut explain_plan_hits = 0u64;
    let mut explain_agree = |cached: &Talkback, uncached: &Talkback, text: &str, step: &str| {
        let hits = || cached.database().obs().counter(Counter::PlanCacheHits);
        let before = hits();
        let a = cached.explain_plan_with(text, cached_opts).unwrap();
        let b = uncached.explain_plan_with(text, uncached_opts).unwrap();
        assert_eq!(
            (&a.tree, &a.narration, &a.decisions),
            (&b.tree, &b.narration, &b.decisions),
            "seed {seed} {step}: {text} diverged"
        );
        if a.analyzed {
            profiles_agree(cached, uncached, &format!("{step}: {text}"));
        }
        explain_plan_hits += hits() - before;
        a
    };
    for step in 0..600 {
        match rng.gen_range(0..10u8) {
            // Insert the same row into both engines (invalidates stats and
            // epoch on the cached side).
            0 => {
                let row = vec![
                    Value::int(next_id),
                    Value::text(format!("Movie {next_id}")),
                    Value::int(1990 + (next_id % 30)),
                ];
                next_id += 1;
                cached.database_mut().insert("MOVIES", row.clone()).unwrap();
                uncached.database_mut().insert("MOVIES", row).unwrap();
            }
            // Toggle a secondary index on both engines.
            1 => {
                let which = rng.gen_range(0..INDEXES.len());
                let (name, definition) = INDEXES[which];
                let ddl = if indexed[which] {
                    format!("drop index {name}")
                } else {
                    format!("create index {name} on {definition}")
                };
                indexed[which] = !indexed[which];
                cached.execute_ddl(&ddl).unwrap();
                uncached.execute_ddl(&ddl).unwrap();
            }
            // Run the same statement on both and demand identical bytes.
            _ => {
                let actor = ACTORS[rng.gen_range(0..ACTORS.len())];
                let shape = rng.gen_range(0..14u8);
                let sql = match shape {
                    0 => format!(
                        "select m.title from MOVIES m where m.id = {}",
                        rng.gen_range(0..20i64)
                    ),
                    1 => format!(
                        "select a.name from ACTOR a where a.id = {}",
                        rng.gen_range(0..10i64)
                    ),
                    2 => format!(
                        "select m.title from MOVIES m where m.year = {}",
                        rng.gen_range(1990..2020i64)
                    ),
                    3 => format!(
                        "select m.title, a.name from MOVIES m, CAST c, ACTOR a \
                         where m.id = c.mid and c.aid = a.id and m.year = {}",
                        rng.gen_range(1990..2020i64)
                    ),
                    // Text equality a hash index can answer.
                    4 => format!("select a.id from ACTOR a where a.name = '{actor}'"),
                    // One shape, three literal kinds: only the integer may
                    // probe the hash index on the integer column.
                    5 => {
                        let aid = rng.gen_range(10..16i64);
                        let literal = match rng.gen_range(0..3u8) {
                            0 => format!("{aid}"),
                            1 => format!("{aid}.0"),
                            _ => format!("'{aid}'"),
                        };
                        format!("select c.role from CAST c where c.aid = {literal}")
                    }
                    // A text literal on the other integer column, a text
                    // bound on a range over an integer column, or a float
                    // literal against an integer key.
                    6 => {
                        let n = rng.gen_range(10..16i64);
                        match kind_rng.gen_range(0..3u8) {
                            0 => format!("select a.name from ACTOR a where a.id = '{n}'"),
                            1 => format!(
                                "select m.title from MOVIES m where m.year > '{}'",
                                1990 + n
                            ),
                            _ => format!("select m.title from MOVIES m where m.id = {n}.0"),
                        }
                    }
                    // The index-nested-loop join driven by one actor found
                    // by (hashed) name.
                    7 => format!(
                        "select m.title from ACTOR a, CAST c, MOVIES m \
                         where a.name = '{actor}' and c.aid = a.id and m.id = c.mid"
                    ),
                    // The nested shapes: Q5 by actor, Q6, Q7 and Q8 with a
                    // drawn constant, Q9, and an EXISTS with a literal inside.
                    8 => format!(
                        "select m.title from MOVIES m where m.id in ( \
                         select c.mid from CAST c where c.aid in ( \
                         select a.id from ACTOR a where a.name = '{actor}'))"
                    ),
                    9 => PAPER_QUERIES[5].to_string(),
                    10 => format!(
                        "select m.id, m.title, count(*) from MOVIES m, CAST c \
                         where m.id = c.mid group by m.id, m.title \
                         having {} < (select count(*) from GENRE g where g.mid = m.id)",
                        rng.gen_range(0..=3i64)
                    ),
                    11 => format!(
                        "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
                         where m.id = c.mid and c.aid = a.id \
                         group by a.id, a.name having count(distinct m.year) = {}",
                        rng.gen_range(1..=3i64)
                    ),
                    12 => PAPER_QUERIES[8].to_string(),
                    _ => format!(
                        "select m.title from MOVIES m where exists \
                         (select * from CAST c where c.mid = m.id and c.aid = {})",
                        rng.gen_range(1..16i64)
                    ),
                };
                let mut statements = vec![(shape, sql)];
                // One step in two also asks a range question.
                if range_rng.gen_bool(0.5) {
                    let shape = range_rng.gen_range(14..20u8);
                    statements.push((shape, range_statement(&mut range_rng, shape)));
                }
                for (shape, sql) in statements {
                    let oracle = |uncached: &Talkback| {
                        template_is_the_fresh_plan(uncached.database(), &sql, cached_opts)
                    };
                    templated += u32::from(oracle(&uncached));
                    // One statement in four is also explained on both engines,
                    // plainly and with ANALYZE (which runs it on both).
                    let explain = match shape {
                        ..14 => explain_rng.gen_bool(0.25),
                        _ => range_rng.gen_bool(0.25),
                    };
                    if explain {
                        for form in ["explain", "explain analyze"] {
                            let step = format!("step {step}");
                            explain_agree(&cached, &uncached, &format!("{form} {sql}"), &step);
                        }
                    }
                    // One statement in five is explained instead of run: the
                    // facade's `explain_result` (default options, plan cache
                    // on) against the free function, which plans afresh.
                    let result = match shape {
                        ..14 => rng.gen_bool(0.2),
                        _ => range_rng.gen_bool(0.2),
                    };
                    if result {
                        oracle(&uncached);
                        let query = sqlparse::parse_query(&sql).unwrap();
                        for _ in 0..2 {
                            let a = cached.explain_result(&sql).unwrap();
                            let lexicon = uncached.queries().lexicon();
                            let b = talkback::explain_result(uncached.database(), lexicon, &query)
                                .unwrap();
                            assert_eq!(
                                (a.rows, &a.narrative, &a.predicate_notes),
                                (b.rows, &b.narrative, &b.predicate_notes),
                                "seed {seed} step {step}: explain_result diverged for {sql}"
                            );
                            let ja = cached.database().obs().journal().last().unwrap();
                            explained_hits += u32::from(ja.cache == CacheStatus::Hit);
                            profiles_agree(&cached, &uncached, &format!("step {step}: {sql}"));
                        }
                        continue;
                    }
                    // Twice: an epoch lasts a few steps, so the second run is
                    // what meets the template the first one left behind.
                    for _ in 0..2 {
                        oracle(&uncached);
                        let a = cached.run_query_with(&sql, cached_opts).unwrap();
                        let b = uncached.run_query_with(&sql, uncached_opts).unwrap();
                        assert_eq!(
                            a.rows, b.rows,
                            "seed {seed} step {step}: rows diverged for {sql}"
                        );
                        assert_eq!(
                            a.columns, b.columns,
                            "seed {seed} step {step}: columns diverged"
                        );
                        // Same executed plan shape, as journaled by the engine.
                        let ja = cached.database().obs().journal().last().unwrap();
                        let jb = uncached.database().obs().journal().last().unwrap();
                        assert_eq!(
                            ja.plan_hash, jb.plan_hash,
                            "seed {seed} step {step}: plan shape diverged for {sql}"
                        );
                        profiles_agree(&cached, &uncached, &format!("step {step}: {sql}"));
                        // The two single-table shapes a hash index can answer.
                        let watched = ["from ACTOR a where a.name", "from CAST c where c.aid"]
                            .iter()
                            .position(|shape| sql.contains(shape));
                        if ja.cache == CacheStatus::Hit {
                            match shape {
                                8..=13 => nested_hits[usize::from(shape - 8)] += 1,
                                14.. => range_hits[usize::from(shape - 14)] += 1,
                                _ => {}
                            }
                        }
                        if let (Some(shape), CacheStatus::Hit) = (watched, ja.cache) {
                            let index = INDEXES[1 + shape].0;
                            let probed = ja
                                .span()
                                .flatten()
                                .iter()
                                .any(|(_, s)| s.detail.contains(index));
                            hash_probe_hits[shape] += u32::from(probed);
                        }
                    }
                }
            }
        }
    }
    // A shape whose feedback is absorbed between two EXPLAINs: thirty
    // movies share a title the statistics spread over every row, the
    // ANALYZE flags the misestimate and both engines learn it, and the
    // next EXPLAINs — the cached engine's second one from the template
    // planned with what was learned — say so alike.
    for engine in [&mut cached, &mut uncached] {
        for id in 0..30 {
            let row = vec![
                Value::int(5000 + id),
                Value::text("Remake"),
                Value::int(2000),
            ];
            engine.database_mut().insert("MOVIES", row).unwrap();
        }
    }
    let remake = "select m.id from MOVIES m where m.title = 'Remake'";
    explain_agree(&cached, &uncached, &format!("explain {remake}"), "feedback");
    explain_agree(
        &cached,
        &uncached,
        &format!("explain analyze {remake}"),
        "feedback",
    );
    for served in [false, true] {
        let hits = cached.database().obs().counter(Counter::PlanCacheHits);
        let e = explain_agree(&cached, &uncached, &format!("explain {remake}"), "feedback");
        let hit = cached.database().obs().counter(Counter::PlanCacheHits) > hits;
        assert_eq!(
            hit, served,
            "seed {seed}: EXPLAIN of {remake} after the ANALYZE"
        );
        assert!(
            e.decisions
                .iter()
                .any(|d| matches!(d, PlanDecision::Feedback { .. })),
            "seed {seed}: the EXPLAIN after the ANALYZE should narrate feedback: {}",
            e.narration
        );
    }
    assert!(
        explain_plan_hits >= 20,
        "seed {seed}: EXPLAIN should be served from templates, got {explain_plan_hits}"
    );
    let hits = cached.database().obs().counter(Counter::PlanCacheHits);
    assert!(
        hits >= 100,
        "seed {seed}: the cached engine should have hit its cache often, got {hits}"
    );
    // Regression: a template used to plan `col = $0` without knowing the
    // parameter's kind, so it could not probe a hash index, never verified
    // against the fresh plan, and was re-examined on every execution.
    assert!(
        hash_probe_hits.iter().all(|&hits| hits > 0),
        "seed {seed}: templates should probe the hash indexes on name and aid: \
         {hash_probe_hits:?}"
    );
    assert!(
        nested_hits.iter().all(|&hits| hits > 0),
        "seed {seed}: every nested shape should be served from a template: {nested_hits:?}"
    );
    assert!(
        range_hits.iter().all(|&hits| hits > 0),
        "seed {seed}: every range shape should be served from a template: {range_hits:?}"
    );
    assert!(
        explained_hits >= 10,
        "seed {seed}: explain_result should be served from templates, got {explained_hits}"
    );
    assert!(
        templated >= 500,
        "seed {seed}: the oracle should have compared templates, got {templated}"
    );
    let metrics = cached.execute_show("show metrics").unwrap().narration;
    assert!(
        !metrics.contains(Uncacheable::ValueDependent.clause()),
        "seed {seed}: no shape's template should fail to plan:\n{metrics}"
    );
    assert_eq!(uncached.database().obs().counter(Counter::PlanCacheHits), 0);
}

/// A shape no template can hold is examined once per epoch: the verdict is
/// cached with its reason, later executions are planned fresh without being
/// parameterized or verified again, and the journal and counters say so.
#[test]
fn uncacheable_shapes_are_examined_once_per_epoch() {
    let mut system = Talkback::new(movie_database());
    let status = |system: &Talkback| system.database().obs().journal().last().unwrap().cache;
    let counter = |system: &Talkback, c| system.database().obs().counter(c);
    let listed = |year: i64, id: i64| {
        format!("select m.title from MOVIES m where m.year = {year} and m.id in (1, {id})")
    };
    // The lift reaches into the subquery and stops at its pattern.
    let nested = "select m.title from MOVIES m where exists \
                  (select * from CAST c where c.mid = m.id and c.role like 'The%')";

    // First execution: a plain miss, examined. From the second on the
    // negative entry answers — whatever the literals.
    system
        .run_query_with(&listed(2004, 8), sequential())
        .unwrap();
    assert_eq!(status(&system), CacheStatus::Miss);
    system.run_query_with(nested, sequential()).unwrap();
    assert_eq!(status(&system), CacheStatus::Miss);
    assert_eq!(counter(&system, Counter::PlanCacheUncacheable), 0);
    let expected = system
        .run_query_with(&listed(2005, 9), sequential())
        .unwrap();
    assert_eq!(
        status(&system),
        CacheStatus::Uncacheable(Uncacheable::InList)
    );
    system.run_query_with(nested, sequential()).unwrap();
    assert_eq!(
        status(&system),
        CacheStatus::Uncacheable(Uncacheable::LikePattern)
    );
    assert_eq!(counter(&system, Counter::PlanCacheUncacheable), 2);
    // Every one of the four was planned fresh, and is counted as such.
    assert_eq!(counter(&system, Counter::PlanCacheMisses), 4);
    assert_eq!(counter(&system, Counter::PlanCacheHits), 0);
    assert_eq!(system.database().adaptive().plan_cache().len(), 2);
    // Planned fresh means answered right.
    let uncached = PlannerOptions {
        use_plan_cache: false,
        ..sequential()
    };
    let reference = system.run_query_with(&listed(2005, 9), uncached).unwrap();
    assert_eq!(expected.rows, reference.rows);
    assert_eq!(expected.len(), 1, "Match Point is the one movie of 2005");

    let log = system.execute_show("show query log").unwrap();
    assert_eq!(
        log.table.matches(" uncacheable ").count(),
        2,
        "{}",
        log.table
    );
    let metrics = system.execute_show("show metrics").unwrap();
    assert!(
        metrics.narration.contains(
            "My plan cache answered none of the four statements it was asked about without \
             parsing or planning, and one statement whose plan depends on a LIKE pattern and \
             one statement whose plan depends on an IN list, which I plan afresh every time."
        ),
        "{}",
        metrics.narration
    );

    // A write, then index DDL: each bumps the epoch, the verdict dies with
    // it, and the shape is examined again — once.
    for bump in ["write", "index DDL"] {
        if bump == "write" {
            let row = vec![Value::int(900), Value::text("Epoch"), Value::int(2005)];
            system.database_mut().insert("MOVIES", row).unwrap();
        } else {
            system
                .execute_ddl("create index by_year on MOVIES(year)")
                .unwrap();
        }
        system
            .run_query_with(&listed(2005, 9), sequential())
            .unwrap();
        assert_eq!(status(&system), CacheStatus::Stale, "after the {bump}");
        system
            .run_query_with(&listed(2005, 9), sequential())
            .unwrap();
        assert_eq!(
            status(&system),
            CacheStatus::Uncacheable(Uncacheable::InList),
            "after the {bump}"
        );
    }

    // Templates and verdicts share one capacity.
    let cache_len = |system: &Talkback| system.database().adaptive().plan_cache().len();
    let capacity = system.database().adaptive().plan_cache().capacity();
    for i in 0..2 * capacity {
        let sql = if i % 2 == 0 {
            format!("select x{i}.title from MOVIES x{i} where x{i}.id = 3")
        } else {
            format!("select x{i}.title from MOVIES x{i} where x{i}.title like 'M%'")
        };
        system.run_query_with(&sql, sequential()).unwrap();
        assert!(cache_len(&system) <= capacity, "statement {i}");
    }
    assert_eq!(cache_len(&system), capacity);
    assert!(counter(&system, Counter::PlanCacheEvictions) >= capacity as u64);
}

/// Regression: statement literals and correlation values used to share one
/// `$n` numbering — here `m.year` and the apply's `m.id` would both be `$0`
/// — so no statement with a subquery could be a template. Now a template
/// serves this shape, both as a semi-join and, with decorrelation off, as an
/// apply binding its `$0` beside the statement's own `?0` and `?1`, and every
/// answer is the fresh plan's.
#[test]
fn statement_literals_and_correlation_values_do_not_collide() {
    let db = movie_database();
    let (cast, movies) = (db.table("CAST").unwrap(), db.table("MOVIES").unwrap());
    let pairs: Vec<(Value, Value)> = (cast.rows().iter())
        .map(|c| {
            let movie = movies.find_by_pk(&[c.get(0).unwrap().clone()]).unwrap();
            (movie.get(2).unwrap().clone(), c.get(1).unwrap().clone())
        })
        .collect();
    for decorrelate_subqueries in [true, false] {
        let cached = PlannerOptions {
            decorrelate_subqueries,
            ..sequential()
        };
        let fresh = PlannerOptions {
            use_plan_cache: false,
            ..cached
        };
        let system = Talkback::new(movie_database());
        for (year, aid) in &pairs {
            let sql = format!(
                "select m.title from MOVIES m where m.year = {year} and exists \
                 (select * from CAST c where c.mid = m.id and c.aid = {aid})"
            );
            let expected = system.run_query_with(&sql, fresh).unwrap();
            assert!(!expected.is_empty(), "{sql}");
            assert_eq!(
                system.run_query_with(&sql, cached).unwrap().rows,
                expected.rows
            );
        }
        let hits = system.database().obs().counter(Counter::PlanCacheHits);
        let context = format!("decorrelate {decorrelate_subqueries}");
        assert_eq!(hits as usize, pairs.len() - 1, "{context}");
    }
}

/// NULL semantics survive a template:
/// `a.id not in (select c.aid from CREDIT c where c.mid <= ?)` over a table
/// whose `aid` is NULL on every 25th row, served from the template of its
/// bound's class, agrees with the uncached engine — empty once the bound
/// lets a NULL in, the NULL-aware anti-join at work — and so do its `IN` and
/// `EXISTS` forms. Each pair of bounds is one class: the second of each is
/// served from the template the first one left.
#[test]
fn a_template_keeps_the_null_semantics_of_not_in() {
    let mut db = movie_database();
    db.create_table(TableSchema::new(
        "CREDIT",
        vec![
            ColumnDef::new("mid", DataType::Integer),
            ColumnDef::nullable("aid", DataType::Integer),
        ],
    ))
    .unwrap();
    for mid in 1..=100i64 {
        let aid = if mid % 25 == 0 {
            Value::Null
        } else {
            Value::int(1 + mid % 12)
        };
        db.insert("CREDIT", vec![Value::int(mid), aid]).unwrap();
    }
    let system = Talkback::new(db);
    let fresh = PlannerOptions {
        use_plan_cache: false,
        ..sequential()
    };
    let forms = [
        "select a.name from ACTOR a where a.id not in \
         (select c.aid from CREDIT c where c.mid <= {})",
        "select a.name from ACTOR a where a.id in \
         (select c.aid from CREDIT c where c.mid <= {})",
        "select a.name from ACTOR a where exists \
         (select * from CREDIT c where c.aid = a.id and c.mid <= {})",
    ];
    // Two bounds below the first NULL, two past it.
    for (form, (first, second)) in forms.iter().flat_map(|f| [(f, (10, 11)), (f, (60, 62))]) {
        for bound in [first, second] {
            let sql = form.replace("{}", &bound.to_string());
            let cached = system.run_query_with(&sql, sequential()).unwrap();
            let served = system.database().obs().journal().last().unwrap().cache;
            let expected = system.run_query_with(&sql, fresh).unwrap();
            assert_eq!(cached.rows, expected.rows, "{sql}");
            if bound == second {
                assert_eq!(served, CacheStatus::Hit, "{sql}");
            }
            if form.contains("not in") {
                assert_eq!(expected.is_empty(), bound >= 25, "{sql}");
            }
        }
    }
}

/// Verdict goldens: what the plan cache makes of each shape, read off the
/// journal's second execution. Q1–Q9 are templates — the nested five
/// included, their literals lifted from inside the subqueries — and so are
/// the workload shapes with range bounds, at the top or inside a subquery:
/// one template per class of their bounds.
#[test]
fn plan_cache_verdicts_of_the_paper_queries_and_the_workload_shapes() {
    let verdict = |system: &Talkback, sql: &str| {
        for _ in 0..2 {
            system.run_query_with(sql, sequential()).unwrap();
        }
        system.database().obs().journal().last().unwrap().cache
    };
    let paper = Talkback::new(movie_database());
    for (i, sql) in PAPER_QUERIES.iter().enumerate() {
        assert_eq!(verdict(&paper, sql), CacheStatus::Hit, "Q{}", i + 1);
    }
    let scaled = Talkback::new(scaled_movie_database(ScaleConfig::default()));
    for sql in [
        // `nested`'s correlated EXISTS and NOT IN.
        "select m.title from MOVIES m where m.year >= 1970 and exists \
         (select * from CAST c where c.mid = m.id and c.aid <= 52)",
        "select a.name from ACTOR a where a.id not in \
         (select c.aid from CAST c where c.mid <= 55)",
        // `lookup`'s year + id shape.
        "select m.title from MOVIES m where m.year = 1990 and m.id <= 60",
    ] {
        assert_eq!(verdict(&scaled, sql), CacheStatus::Hit, "{sql}");
    }
}

/// A statement parameter has its literal's family in the vectorizer's
/// verdict, not its column's: the template of `c.aid = '14'` keeps the
/// filter row-at-a-time, as the fresh plan does ("mixes text and numbers"),
/// so the shape is served from its template, narrated as the uncached
/// engine narrates it, and never counted as one whose plan changes with the
/// value compared.
#[test]
fn a_text_literal_against_an_integer_column_is_served_from_its_template() {
    let cached = Talkback::new(movie_database());
    let uncached = Talkback::new(movie_database());
    let fresh = PlannerOptions {
        use_plan_cache: false,
        ..sequential()
    };
    let sql = "select c.role from CAST c where c.aid = '14'";
    for run in 0..3 {
        cached.run_query_with(sql, sequential()).unwrap();
        let status = cached.database().obs().journal().last().unwrap().cache;
        let expected = [CacheStatus::Miss, CacheStatus::Hit, CacheStatus::Hit][run];
        assert_eq!(status, expected, "run {run}");
    }
    let explain = format!("explain {sql}");
    let a = cached.explain_plan_with(&explain, sequential()).unwrap();
    let b = uncached.explain_plan_with(&explain, fresh).unwrap();
    assert_eq!((&a.tree, &a.narration), (&b.tree, &b.narration));
    assert!(!a.tree.contains("[vectorized]"), "{}", a.tree);
    assert!(
        a.narration
            .contains("`c.aid = '14'` mixes text and numbers"),
        "{}",
        a.narration
    );
    let metrics = cached.execute_show("show metrics").unwrap().narration;
    assert!(
        !metrics.contains(Uncacheable::ValueDependent.clause()),
        "{metrics}"
    );
}

/// A template's decisions quote SQL with a slot where each literal stands,
/// filled before the quote is shortened: an `EXPLAIN` served from a
/// template examined with one literal and bound to a much shorter or much
/// longer one narrates what a fresh plan does, decision for decision — the
/// actor name in Q1's filter, Q7's `1 <` in its subquery construct, and an
/// `EXISTS` whose construct crosses the 72-character cut.
#[test]
fn literal_length_does_not_change_a_bound_decision() {
    let q7 = PAPER_QUERIES[6];
    let exists = "select m.title from MOVIES m where exists \
                  (select * from CAST c where c.mid = m.id and c.aid = 1)";
    let cases = [
        (
            PAPER_QUERIES[0],
            "'Brad Pitt'",
            ["'B'".to_string(), format!("'{}'", "x".repeat(60))],
        ),
        (q7, "1 <", ["0 <".to_string(), "12345678 <".to_string()]),
        (
            exists,
            "c.aid = 1)",
            [
                "c.aid = 7)".to_string(),
                "c.aid = 123456789012)".to_string(),
            ],
        ),
    ];
    let fresh = PlannerOptions {
        use_plan_cache: false,
        ..sequential()
    };
    for (sql, literal, others) in cases {
        let system = Talkback::new(movie_database());
        system.run_query_with(sql, sequential()).unwrap();
        let mut constructs = Vec::new();
        for other in others {
            let explain = format!("explain {}", sql.replace(literal, &other));
            let hits = system.database().obs().counter(Counter::PlanCacheHits);
            let bound = system.explain_plan_with(&explain, sequential()).unwrap();
            let served = system.database().obs().counter(Counter::PlanCacheHits) - hits;
            assert_eq!(served, 1, "{explain} should be served from the template");
            let planned = system.explain_plan_with(&explain, fresh).unwrap();
            assert_eq!(bound.decisions, planned.decisions, "{explain}");
            assert_eq!(bound.narration, planned.narration, "{explain}");
            constructs.extend(bound.decisions.iter().filter_map(|d| match d {
                PlanDecision::Subquery { construct, .. } => Some(construct.to_string()),
                _ => None,
            }));
        }
        if sql == exists {
            let cut: Vec<bool> = constructs.iter().map(|c| c.ends_with('…')).collect();
            assert_eq!(cut, [false, true], "{constructs:?}");
        }
    }
}

/// The default worker count is the machine's core count, asked for once.
#[test]
fn default_parallelism_is_the_core_count_on_every_call() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for _ in 0..3 {
        assert_eq!(PlannerOptions::default().parallelism, cores);
    }
}

/// The nine paper queries return byte-identical rows, order, and columns
/// under every feedback × cache × parallelism combination — including on a
/// *second* run, after feedback absorption and plan caching have had their
/// chance to change something.
#[test]
fn paper_queries_identical_under_all_adaptive_knobs() {
    for (i, sql) in PAPER_QUERIES.iter().enumerate() {
        let baseline = Talkback::new(movie_database());
        let base = baseline
            .run_query_with(
                sql,
                PlannerOptions {
                    use_feedback: false,
                    use_plan_cache: false,
                    ..sequential()
                },
            )
            .unwrap();
        for use_feedback in [false, true] {
            for use_plan_cache in [false, true] {
                for parallelism in [1, 4] {
                    let opts = PlannerOptions {
                        use_feedback,
                        use_plan_cache,
                        parallelism,
                        ..PlannerOptions::default()
                    };
                    let system = Talkback::new(movie_database());
                    for run in 0..2 {
                        let rs = system.run_query_with(sql, opts).unwrap();
                        assert_eq!(
                            base.rows,
                            rs.rows,
                            "Q{} run {run} diverged at feedback={use_feedback} \
                             cache={use_plan_cache} parallelism={parallelism}",
                            i + 1
                        );
                        assert_eq!(base.columns, rs.columns);
                    }
                }
            }
        }
    }
}

/// Names fold case where they are looked up — catalog, tables, statistics,
/// the binder's resolutions, keywords — exactly as they did when each lookup
/// folded a copy: a statement spelled in mixed or upper case answers and
/// reads back as its canonical spelling does, on the plan-cache miss and on
/// the hit after it. A plan hash reads aliases and columns as written, so
/// each spelling's is pinned: the value the copying lookups journaled.
#[test]
fn mixed_case_names_answer_and_plan_as_the_canonical_spelling() {
    let upper_q1 = PAPER_QUERIES[0]
        .to_uppercase()
        .replace("'BRAD PITT'", "'Brad Pitt'");
    let spellings: [(&str, &str, [u64; 2]); 3] = [
        (
            "select m.title from MOVIES m where m.id = 3",
            "select M.Title from movies M where M.ID = 3",
            [0x6bbe_a767_2c2a_afb0, 0xaabb_1f65_c4c0_2bb0],
        ),
        // Unqualified names go through the binder's resolutions.
        (
            "select title from MOVIES where id = 3",
            "select TITLE from Movies where Id = 3",
            [0xf520_02b2_d720_c499, 0xb081_9407_91cf_8e3e],
        ),
        (
            PAPER_QUERIES[0],
            &upper_q1,
            [0xe505_1a22_2ea8_c6d3, 0x11ac_19f2_1f97_2993],
        ),
    ];
    let system = Talkback::new(movie_database());
    let read = |sql: &str, hash: u64| {
        let mut answers = Vec::new();
        for expected in [CacheStatus::Miss, CacheStatus::Hit] {
            answers.push(system.run_query(sql).unwrap().rows);
            let entry = system.database().obs().journal().last().unwrap();
            assert_eq!((entry.cache, entry.plan_hash), (expected, hash), "{sql}");
        }
        assert_eq!(answers[0], answers[1], "{sql}: the hit answered otherwise");
        (answers.remove(0), system.explain_query(sql).unwrap().best)
    };
    for (canonical, mixed, [canonical_hash, mixed_hash]) in spellings {
        let expected = read(canonical, canonical_hash);
        assert_eq!(read(mixed, mixed_hash), expected, "{mixed}");
    }
    let db = system.database();
    let lower = db.table_stats("movies").unwrap();
    assert!(Arc::ptr_eq(&lower, &db.table_stats("MOVIES").unwrap()));
    assert!(std::ptr::eq(
        lower.column("ID").unwrap(),
        lower.column("id").unwrap()
    ));
}
