//! Acceptance tests for the vectorized execution layer: results must be
//! byte-identical with the kernels on or off, the A/B matrix over random
//! queries must agree with the row engine, the plan trees must render
//! `[vectorized]`, and the narration must explain both acceptances and
//! rejections.

use datastore::exec::execute_with_stats;
use datastore::sample::{scaled_movie_database, ScaleConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlparse::parse_query;
use talkback::{plan_query_with, PlannerOptions, Talkback};

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

/// One point of the A/B matrix.
fn opts(vectorized: bool, indexes: bool) -> PlannerOptions {
    PlannerOptions {
        use_vectorized: vectorized,
        use_indexes: indexes,
        ..PlannerOptions::default()
    }
}

fn scaled_db() -> datastore::Database {
    scaled_movie_database(ScaleConfig::default())
}

fn big_scaled_db() -> datastore::Database {
    // Big enough for several 1,024-row vectors per scan.
    scaled_movie_database(ScaleConfig {
        movies: 5000,
        actors: 3000,
        directors: 500,
        ..ScaleConfig::default()
    })
}

#[test]
fn q1_to_q9_identical_with_vectors_on_or_off() {
    let db = scaled_db();
    for (i, sql) in PAPER_QUERIES.iter().enumerate() {
        let q = parse_query(sql).unwrap();
        let baseline = plan_query_with(&db, &q, opts(false, true)).unwrap();
        let (base_rs, _) = execute_with_stats(&db, &baseline.plan).unwrap();
        let planned = plan_query_with(&db, &q, opts(true, true)).unwrap();
        let (rs, _) = execute_with_stats(&db, &planned.plan).unwrap();
        assert_eq!(base_rs.rows, rs.rows, "Q{} diverged", i + 1);
        assert_eq!(base_rs.columns, rs.columns);
    }
}

/// A seeded random single-block query over the movie schema: mixed
/// predicate types (including text-vs-number comparisons that must reject
/// vectorization honestly), aggregates, and top-k shapes.
fn random_query(rng: &mut StdRng) -> String {
    let join = rng.gen_bool(0.4);
    let from = if join { "MOVIES m, CAST c" } else { "MOVIES m" };
    let mut conjuncts: Vec<String> = Vec::new();
    if join {
        conjuncts.push("m.id = c.mid".to_string());
    }
    for _ in 0..rng.gen_range(0..=2u8) {
        let op = ["<", "<=", "=", ">=", ">", "<>"][rng.gen_range(0..6usize)];
        conjuncts.push(match rng.gen_range(0..4u8) {
            0 => format!("m.year {} {}", op, rng.gen_range(1960..2015)),
            1 => format!("m.id {} {}", op, rng.gen_range(0..200)),
            // A text column against a number: stays row-at-a-time, must
            // still agree with the row engine.
            2 => format!("m.title {} {}", op, rng.gen_range(0..5)),
            _ => format!("m.title {} 'Movie 7'", op),
        });
    }
    let where_clause = if conjuncts.is_empty() {
        String::new()
    } else {
        format!(" where {}", conjuncts.join(" and "))
    };
    match rng.gen_range(0..3u8) {
        // Aggregate-heavy: grouped accumulation over the filtered scan.
        0 => format!(
            "select m.year, count(*), sum(m.id), min(m.id), max(m.id) \
             from {from}{where_clause} group by m.year"
        ),
        // Top-k: ORDER BY … LIMIT.
        1 => format!(
            "select m.id, m.title, m.year from {from}{where_clause} \
             order by m.year, m.id limit {}",
            rng.gen_range(1..30)
        ),
        // Plain pipeline.
        _ => format!("select m.id, m.year from {from}{where_clause}"),
    }
}

/// The seed of the 48 random queries: fixed, or `VECTORIZED_SEED=<u64>`
/// (CI passes the clock).
fn seed() -> u64 {
    std::env::var("VECTORIZED_SEED").map_or(0xDB06, |seed| {
        seed.parse().expect("VECTORIZED_SEED is a u64")
    })
}

#[test]
fn random_queries_agree_across_the_full_ab_matrix() {
    let db = scaled_db();
    // Its own database: what this one learns must not steer the plans below.
    let learner = Talkback::new(scaled_db());
    let seed = seed();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..48 {
        let sql = random_query(&mut rng);
        // Recorded ⇒ found: whatever a run of this statement teaches the
        // feedback store, its next plan looks up.
        let uncached = PlannerOptions {
            use_plan_cache: false,
            ..PlannerOptions::default()
        };
        talkback_tests::assert_recorded_feedback_is_found(&learner, &sql, uncached);
        let q = parse_query(&sql).unwrap_or_else(|e| panic!("generated bad SQL {sql:?}: {e}"));
        let mut baseline: Option<Vec<datastore::Row>> = None;
        for vectorized in [false, true] {
            for indexes in [false, true] {
                let planned = plan_query_with(&db, &q, opts(vectorized, indexes))
                    .unwrap_or_else(|e| panic!("seed {seed}: planning {sql:?} failed: {e}"));
                let (rs, _) = execute_with_stats(&db, &planned.plan)
                    .unwrap_or_else(|e| panic!("seed {seed}: executing {sql:?} failed: {e}"));
                match &baseline {
                    None => baseline = Some(rs.rows),
                    Some(expected) => assert_eq!(
                        expected, &rs.rows,
                        "seed {seed}: {sql:?} diverged at vectorized={vectorized} indexes={indexes}"
                    ),
                }
            }
        }
    }
}

#[test]
fn explain_golden_aggregate_tree() {
    let system = Talkback::new(scaled_db());
    let e = system
        .explain_plan_with(
            "explain select m.year, count(*) from MOVIES m where m.year > 1980 group by m.year",
            opts(true, true),
        )
        .unwrap();
    assert_eq!(
        e.tree,
        "aggregate: group by m.year; count(*)  [vectorized]  [est=53]\n\
         └─ filter: m.year > 1980  [vectorized]  [est=59]\n\
         \u{20}\u{20}\u{20}└─ scan: MOVIES as m  [est=100]\n",
        "aggregate tree changed:\n{}",
        e.tree
    );
}

#[test]
fn explain_golden_top_k_tree() {
    let system = Talkback::new(scaled_db());
    let e = system
        .explain_plan_with(
            "explain select m.id, m.title, m.year from MOVIES m order by m.year limit 5",
            opts(true, true),
        )
        .unwrap();
    assert_eq!(
        e.tree,
        "limit: 5  [est=5]\n\
         └─ sort: m.year  [est=5]\n\
         \u{20}\u{20}\u{20}└─ project: m.id, m.title, m.year  [est=100]\n\
         \u{20}\u{20}\u{20}\u{20}\u{20}\u{20}└─ scan: MOVIES as m  [est=100]\n",
        "top-k tree changed:\n{}",
        e.tree
    );
}

#[test]
fn top_k_estimate_is_bounded_by_the_limit() {
    // Satellite fix: the plan above the sort estimates min(k, input) rows,
    // so LIMIT queries are no longer charged for the full sort output.
    let db = scaled_db();
    let q =
        parse_query("select m.id, m.title, m.year from MOVIES m order by m.year limit 5").unwrap();
    let planned = plan_query_with(&db, &q, PlannerOptions::default()).unwrap();
    // The sort node (directly under the limit) carries the bounded estimate.
    let datastore::exec::PlanNode::Limit { input: sort, .. } = &planned.plan.node else {
        panic!("expected a limit at the root");
    };
    assert!(matches!(sort.node, datastore::exec::PlanNode::Sort { .. }));
    assert_eq!(sort.estimated_rows, Some(5.0));
}

#[test]
fn mixed_type_predicates_stay_row_at_a_time_with_a_narrated_reason() {
    let system = Talkback::new(scaled_db());
    let e = system
        .explain_plan("explain select m.title from MOVIES m where m.title = 5")
        .unwrap();
    assert!(
        !e.tree.contains("[vectorized]"),
        "a text-vs-number comparison must not vectorize:\n{}",
        e.tree
    );
    assert!(
        e.narration.contains("mixes text and numbers"),
        "the rejection must be narrated honestly:\n{}",
        e.narration
    );
    // The A/B knob rejects everything, silently.
    let off = system
        .explain_plan_with(
            "explain select m.title from MOVIES m where m.year > 1980",
            PlannerOptions {
                use_vectorized: false,
                ..PlannerOptions::default()
            },
        )
        .unwrap();
    assert!(!off.tree.contains("[vectorized]"));
    assert!(!off.narration.contains("typed column kernels"));
}

#[test]
fn explain_analyze_narrates_batch_shape() {
    let system = Talkback::new(big_scaled_db());
    let e = system
        .explain_plan_with(
            "explain analyze select m.year, count(*) from MOVIES m \
             where m.year > 1900 group by m.year",
            opts(true, true),
        )
        .unwrap();
    assert!(
        e.narration.contains("vector"),
        "analyzed narration must mention the vector batches:\n{}",
        e.narration
    );
}
