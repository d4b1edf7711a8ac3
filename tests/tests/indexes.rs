//! Acceptance tests for the secondary-index subsystem: every paper query
//! must answer byte-identically across indexes {off, on} × vectorized
//! {off, on}; a seeded-random property test pins
//! index scans (single-column, composite-prefix, and index-only) to their
//! filtered full-scan baseline — including after interleaved inserts that
//! exercise index maintenance under copy-on-write; golden `EXPLAIN` trees
//! cover `[index-only]` scans and composite-prefix probes; and the DDL →
//! planner → EXPLAIN loop works end to end.

use datastore::exec::execute;
use datastore::sample::{movie_database, scaled_movie_database, ScaleConfig};
use datastore::{Database, IndexDef, IndexKind, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlparse::parse_query;
use talkback::{plan_query_with, PlannerOptions, Talkback};
use talkback_tests::mentions;

/// The paper's nine example queries (same SQL as `tests/executor_and_explain.rs`).
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

fn options(use_indexes: bool, use_vectorized: bool) -> PlannerOptions {
    PlannerOptions {
        use_indexes,
        use_vectorized,
        ..PlannerOptions::default()
    }
}

#[test]
fn q1_to_q9_byte_identical_with_indexes_on_and_off() {
    // The acceptance matrix: indexes {off, on} × vectorized {off, on}, with
    // extra secondary indexes layered on —
    // single-column, composite, and hash — so more access paths than just
    // the automatic PKs are in play (parameterized probes under Q6's apply,
    // composite-prefix probes into CAST, hash points into ACTOR).
    let mut db = scaled_movie_database(ScaleConfig::default());
    db.create_index(IndexDef::single(
        "idx_movies_year",
        "MOVIES",
        "year",
        IndexKind::Ordered,
    ))
    .unwrap();
    db.create_index(IndexDef {
        name: "idx_cast_mid_aid".into(),
        table: "CAST".into(),
        columns: vec!["mid".into(), "aid".into()],
        kind: IndexKind::Ordered,
    })
    .unwrap();
    db.create_index(IndexDef::single(
        "h_actor_name",
        "ACTOR",
        "name",
        IndexKind::Hash,
    ))
    .unwrap();
    for (i, sql) in PAPER_QUERIES.iter().enumerate() {
        let q = parse_query(sql).unwrap();
        let baseline = plan_query_with(&db, &q, options(false, false)).unwrap();
        let reference = execute(&db, &baseline.plan).unwrap();
        for use_indexes in [false, true] {
            for use_vectorized in [false, true] {
                if (use_indexes, use_vectorized) == (false, false) {
                    continue; // that cell is the baseline itself
                }
                let opts = options(use_indexes, use_vectorized);
                let planned = plan_query_with(&db, &q, opts).unwrap();
                let rs = execute(&db, &planned.plan).unwrap();
                assert_eq!(
                    reference.rows,
                    rs.rows,
                    "Q{} diverged at indexes={use_indexes} vectorized={use_vectorized}",
                    i + 1
                );
            }
        }
    }
}

/// A deterministic pseudo-random single-table query over MOVIES: sargable
/// and non-sargable predicates over indexed and unindexed columns —
/// including composite-key shapes (equality prefix, prefix + range) — with
/// optional ORDER BY in either direction (exercising the sort-elision
/// peephole), DISTINCT, and a key-columns-only projection that makes the
/// query answerable index-only from the composite key.
fn random_query(rng: &mut StdRng, max_id: i64) -> String {
    let predicate = match rng.gen_range(0..8u8) {
        0 => format!("m.id = {}", rng.gen_range(-2..max_id + 3)),
        1 => format!("m.year = {}", rng.gen_range(1959..2026i64)),
        2 => format!("m.year >= {}", rng.gen_range(1959..2026i64)),
        3 => format!(
            "m.year between {} and {}",
            rng.gen_range(1959..2000i64),
            rng.gen_range(2000..2026i64)
        ),
        4 => format!(
            "m.id <= {} and m.year > {}",
            rng.gen_range(0..max_id + 1),
            rng.gen_range(1959..2026i64)
        ),
        // Composite point: both key columns of c_year_id pinned.
        5 => format!(
            "m.year = {} and m.id = {}",
            rng.gen_range(1959..2026i64),
            rng.gen_range(0..max_id + 1)
        ),
        // Composite prefix + range on the second key column.
        6 => format!(
            "m.year = {} and m.id >= {}",
            rng.gen_range(1959..2026i64),
            rng.gen_range(0..max_id + 1)
        ),
        // Non-sargable control: the planner must not regress plain filters.
        _ => format!("m.title like 'The S%' and m.id <> {}", rng.gen_range(0..50)),
    };
    let order = match rng.gen_range(0..4u8) {
        0 => " order by m.year",
        1 => " order by m.id",
        2 => " order by m.year desc",
        _ => "",
    };
    let distinct = if rng.gen_bool(0.3) { "distinct " } else { "" };
    // A key-columns-only projection lets the planner answer from the
    // composite index without touching the heap; the wide projection forces
    // heap reads. Both must match the scan baseline byte for byte.
    let projection = if rng.gen_bool(0.4) {
        "m.year, m.id"
    } else {
        "m.id, m.title, m.year"
    };
    format!("select {distinct}{projection} from MOVIES m where {predicate}{order}")
}

fn run_with(db: &Database, sql: &str, use_indexes: bool) -> Vec<datastore::Row> {
    let q = parse_query(sql).unwrap();
    let planned = plan_query_with(
        db,
        &q,
        PlannerOptions {
            use_indexes,
            ..PlannerOptions::default()
        },
    )
    .unwrap();
    execute(db, &planned.plan).unwrap().rows
}

#[test]
fn property_indexed_queries_match_unindexed_baseline_under_inserts() {
    // Seeded-random A/B: every query answered through indexes must be
    // byte-identical to the same query with `use_indexes = false`, across
    // rounds of interleaved inserts that exercise index maintenance — and a
    // pre-insert snapshot must keep answering from its own index version
    // (copy-on-write).
    let mut db = scaled_movie_database(ScaleConfig {
        movies: 200,
        actors: 80,
        directors: 30,
        ..ScaleConfig::default()
    });
    db.create_index(IndexDef::single(
        "idx_movies_year",
        "MOVIES",
        "year",
        IndexKind::Ordered,
    ))
    .unwrap();
    db.create_index(IndexDef::single(
        "h_movies_title",
        "MOVIES",
        "title",
        IndexKind::Hash,
    ))
    .unwrap();
    // The composite key the prefix / prefix+range / index-only shapes of
    // `random_query` aim at.
    db.create_index(IndexDef {
        name: "c_year_id".into(),
        table: "MOVIES".into(),
        columns: vec!["year".into(), "id".into()],
        kind: IndexKind::Ordered,
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0x1DE_CAFE);
    let mut next_id = 201i64;
    for round in 0..8 {
        for case in 0..24 {
            let sql = random_query(&mut rng, next_id - 1);
            assert_eq!(
                run_with(&db, &sql, true),
                run_with(&db, &sql, false),
                "round {round} case {case}: indexed plan diverged for {sql}"
            );
        }
        // Interleave writes: snapshot first, insert, then check that the
        // snapshot's index still answers pre-insert while the live table
        // sees the new rows.
        let snapshot = db.table_arc("MOVIES").unwrap();
        let before = snapshot.len();
        for _ in 0..10 {
            let year = rng.gen_range(1959..2026i64);
            db.insert(
                "MOVIES",
                vec![
                    Value::int(next_id),
                    Value::text(format!("Fresh Cut {next_id}")),
                    Value::int(year),
                ],
            )
            .unwrap();
            next_id += 1;
        }
        assert_eq!(snapshot.len(), before, "snapshot saw writer rows");
        assert!(
            snapshot
                .index("idx_movies_year")
                .expect("snapshot keeps its indexes")
                .len()
                <= before
        );
        assert_eq!(
            db.table("MOVIES")
                .unwrap()
                .index("idx_movies_year")
                .unwrap()
                .len(),
            db.table("MOVIES").unwrap().len(),
            "live index must cover every inserted row"
        );
    }
}

#[test]
fn ddl_to_planner_to_explain_loop() {
    // CREATE INDEX through SQL immediately changes plans; DROP INDEX
    // changes them back.
    let mut system = Talkback::new(movie_database());
    let before = system
        .explain_plan("select m.title from MOVIES m where m.year = 2004")
        .unwrap();
    assert!(!before.tree.contains("index scan"), "{}", before.tree);
    system
        .execute_ddl("create index idx_year on MOVIES (year)")
        .unwrap();
    let after = system
        .explain_plan("select m.title from MOVIES m where m.year = 2004")
        .unwrap();
    assert!(
        after
            .tree
            .contains("index scan: MOVIES as m [index=idx_year point m.year = 2004]"),
        "{}",
        after.tree
    );
    assert!(
        after.narration.contains("through the index idx_year"),
        "{}",
        after.narration
    );
    system.execute_ddl("drop index idx_year").unwrap();
    let dropped = system
        .explain_plan("select m.title from MOVIES m where m.year = 2004")
        .unwrap();
    assert!(!dropped.tree.contains("index scan"), "{}", dropped.tree);
}

#[test]
fn hash_index_answers_points_but_never_ranges() {
    let mut db = movie_database();
    db.create_index(IndexDef::single(
        "h_year",
        "MOVIES",
        "year",
        IndexKind::Hash,
    ))
    .unwrap();
    // Point predicate: the hash index is used.
    let q = parse_query("select m.title from MOVIES m where m.year = 2004").unwrap();
    let planned = plan_query_with(&db, &q, PlannerOptions::default()).unwrap();
    let tree = datastore::exec::describe_plan(&db, &planned.plan)
        .unwrap()
        .render_tree(false);
    assert!(tree.contains("[index=h_year point"), "{tree}");
    assert_eq!(execute(&db, &planned.plan).unwrap().len(), 2);
    // Range predicate: no ordered index on year exists, so it stays a scan.
    let q = parse_query("select m.title from MOVIES m where m.year >= 2004").unwrap();
    let planned = plan_query_with(&db, &q, PlannerOptions::default()).unwrap();
    let tree = datastore::exec::describe_plan(&db, &planned.plan)
        .unwrap()
        .render_tree(false);
    assert!(!tree.contains("index scan"), "{tree}");
    assert_eq!(execute(&db, &planned.plan).unwrap().len(), 4);
}

#[test]
fn explain_golden_index_only_scan_with_elided_sort() {
    // A key-columns-only projection over a composite ordered index answers
    // from the index keys alone — the tree carries the `[index-only]` tag
    // and the narration owns up to never touching the heap.
    let mut system = Talkback::new(movie_database());
    system
        .execute_ddl("create index c_year_id on MOVIES (year, id)")
        .unwrap();
    let e = system
        .explain_plan("select m.year, m.id from MOVIES m where m.year >= 2005")
        .unwrap();
    assert_eq!(
        e.tree,
        "project: m.year, m.id  [est=1]\n\
         └─ index scan: MOVIES as m [index=c_year_id range m.year >= 2005] \
         [index-only]  [est=1]\n"
    );
    assert!(
        mentions(
            &e.narration,
            "answering from the index keys alone without touching a stored row"
        ),
        "index-only decision missing from: {}",
        e.narration
    );
    // On a single-column index the same projection composes with sort
    // elision — here the descending flavor, walking the index backwards.
    let mut system = Talkback::new(movie_database());
    system
        .execute_ddl("create index idx_year on MOVIES (year)")
        .unwrap();
    let e = system
        .explain_plan("select m.year from MOVIES m where m.year >= 2005 order by m.year desc")
        .unwrap();
    assert_eq!(
        e.tree,
        "project: m.year  [est=1]\n\
         └─ index scan: MOVIES as m [index=idx_year range m.year >= 2005, key order desc] \
         [index-only]  [est=1]\n"
    );
    assert!(
        mentions(
            &e.narration,
            "walking it backwards for the descending order"
        ),
        "descending sort-elision decision missing from: {}",
        e.narration
    );
}

#[test]
fn explain_golden_composite_prefix_probe() {
    // An equality on the leading key column alone probes the composite
    // index as a prefix slice; the wide projection keeps it a heap read.
    let mut system = Talkback::new(movie_database());
    system
        .execute_ddl("create index c_year_id on MOVIES (year, id)")
        .unwrap();
    let e = system
        .explain_plan("select m.title from MOVIES m where m.year = 2004")
        .unwrap();
    assert!(
        e.tree
            .contains("index scan: MOVIES as m [index=c_year_id prefix m.year = 2004]"),
        "{}",
        e.tree
    );
    assert!(
        mentions(&e.narration, "pinned the leading year"),
        "prefix-probe decision missing from: {}",
        e.narration
    );
}

#[test]
fn dp_join_enumeration_is_narrated() {
    // A three-relation join is well inside DP_MAX_RELATIONS, so the chosen
    // order comes from the dynamic program and the narration says it
    // weighed every order rather than walking greedily.
    let system = Talkback::new(movie_database());
    let e = system
        .explain_plan(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        )
        .unwrap();
    assert!(
        mentions(
            &e.narration,
            "weighing every join order over the connected relations"
        ),
        "DP narration missing from: {}",
        e.narration
    );
}
