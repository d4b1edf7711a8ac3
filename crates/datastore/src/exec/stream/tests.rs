//! Unit tests of the operators and the metering wrapper in `exec/stream.rs`.

use super::*;
use crate::exec::aggregate::AggExpr;
use crate::expr::{CmpOp, Param};
use crate::schema::{ColumnDef, TableSchema};
use crate::value::DataType;

fn db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "T",
        vec![
            ColumnDef::new("id", DataType::Integer),
            ColumnDef::new("v", DataType::Integer),
        ],
    ))
    .unwrap();
    for i in 0..2500i64 {
        db.insert("T", vec![Value::int(i), Value::int(i % 10)])
            .unwrap();
    }
    db
}

fn scan(table: &str, alias: &str) -> Plan {
    Plan::scan(table, alias)
}

/// The `T` fixture with an ordered index on `v` and a hash index on `id`.
fn indexed_db() -> Database {
    use crate::index::{IndexDef, IndexKind};
    let mut db = db();
    db.create_index(IndexDef::single("idx_v", "T", "v", IndexKind::Ordered))
        .unwrap();
    db.create_index(IndexDef::single("h_id", "T", "id", IndexKind::Hash))
        .unwrap();
    db
}

#[test]
fn index_scan_matches_filtered_scan_byte_for_byte() {
    let db = indexed_db();
    let filtered = scan("T", "t").filter(Expr::col_cmp_value(1, CmpOp::Eq, Value::int(3)));
    let point = Plan::index_scan("T", "t", "idx_v", IndexBounds::point(Value::int(3)));
    assert_eq!(run_plan(&db, &filtered), run_plan(&db, &point));

    let range_filter = scan("T", "t").filter(Expr::And(
        Box::new(Expr::col_cmp_value(1, CmpOp::GtEq, Value::int(2))),
        Box::new(Expr::col_cmp_value(1, CmpOp::Lt, Value::int(5))),
    ));
    let range = Plan::index_scan(
        "T",
        "t",
        "idx_v",
        IndexBounds::range(Some((Value::int(2), true)), Some((Value::int(5), false))),
    );
    assert_eq!(run_plan(&db, &range_filter), run_plan(&db, &range));

    // The hash index answers points (and counts only matching reads)…
    let hash_point = Plan::index_scan("T", "t", "h_id", IndexBounds::point(Value::int(42)));
    let (rows, profile) = run_profiled(&db, &hash_point);
    assert_eq!(rows.len(), 1);
    assert_eq!(profile.operator(), "index scan");
    assert_eq!(profile.metrics().rows_in, 1, "only the match is read");
    assert!(
        profile.detail().contains("[index=h_id point t.id = 42]"),
        "detail names the probe: {}",
        profile.detail()
    );
    // …but refuses ranges at open time.
    let hash_range = Plan::index_scan(
        "T",
        "t",
        "h_id",
        IndexBounds::range(Some((Value::int(0), true)), None),
    );
    assert!(open(&db, &hash_range).is_err());
    // Unknown index names fail at open time too.
    let missing = Plan::index_scan("T", "t", "nope", IndexBounds::point(Value::int(1)));
    let err = match open(&db, &missing) {
        Err(e) => e,
        Ok(_) => panic!("opening a scan over a missing index must fail"),
    };
    assert!(matches!(err, StoreError::UnknownIndex { .. }));
}

#[test]
fn key_ordered_index_scan_matches_sorted_filtered_scan() {
    let db = indexed_db();
    // Sorting the filtered scan by v (stable) must equal the key-ordered
    // index range scan, ties and all.
    let sorted = scan("T", "t")
        .filter(Expr::col_cmp_value(1, CmpOp::GtEq, Value::int(7)))
        .sort(vec![SortKey {
            column: 1,
            ascending: true,
        }]);
    let keyed = Plan::index_scan(
        "T",
        "t",
        "idx_v",
        IndexBounds::range(Some((Value::int(7), true)), None),
    )
    .with_key_order();
    assert_eq!(run_plan(&db, &sorted), run_plan(&db, &keyed));
}

#[test]
fn index_nested_loop_join_matches_hash_join() {
    let db = indexed_db();
    // Outer: the 10 rows with id < 10; inner: T probed on v via idx_v.
    let outer = || scan("T", "o").filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(10)));
    let hash = Plan::hash_join(outer(), scan("T", "t"), vec![1], vec![1]);
    let inlj = Plan::index_nested_loop_join(outer(), "T", "t", "idx_v", 1);
    let mut h = run_plan(&db, &hash);
    let mut i = run_plan(&db, &inlj);
    // Both emit outer-order × inner-insertion-order: identical already.
    assert_eq!(h.len(), 10 * 250);
    assert_eq!(h, i);
    // And with sorting as a belt-and-braces check.
    let keys: Vec<usize> = (0..4).collect();
    h.sort_by_key(|r| r.group_key(&keys));
    i.sort_by_key(|r| r.group_key(&keys));
    assert_eq!(h, i);

    let (_, profile) = run_profiled(&db, &inlj);
    assert_eq!(profile.operator(), "index nested-loop join");
    assert!(
        profile.detail().contains("o.v = t.v [index=idx_v]"),
        "detail: {}",
        profile.detail()
    );
    let probe = &profile.child(1);
    assert_eq!(probe.operator(), "index probe");
    assert_eq!(probe.metrics().rows_in, 10, "one probe per outer row");
    assert_eq!(probe.metrics().rows_out, 2500, "matches fetched");
}

#[test]
fn index_nested_loop_join_skips_null_probe_keys() {
    use crate::index::{IndexDef, IndexKind};
    use crate::schema::{ColumnDef, TableSchema};
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "K",
        vec![ColumnDef::nullable("k", DataType::Integer)],
    ))
    .unwrap();
    db.create_index(IndexDef::single("idx_k", "K", "k", IndexKind::Ordered))
        .unwrap();
    db.insert("K", vec![Value::int(1)]).unwrap();
    db.insert("K", vec![Value::Null]).unwrap();
    let outer = Plan::values(
        vec![ColumnInfo::unqualified("x")],
        vec![
            Row::new(vec![Value::int(1)]),
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::int(2)]),
        ],
    );
    let plan = Plan::index_nested_loop_join(outer, "K", "k", "idx_k", 0);
    let rows = run_plan(&db, &plan);
    // Only 1=1 matches; NULL probes and NULL index entries never join.
    assert_eq!(rows, vec![Row::new(vec![Value::int(1), Value::int(1)])]);
}

#[test]
fn scan_streams_in_batches() {
    let db = db();
    let mut src = open(&db, &scan("T", "t")).unwrap();
    let first = src.next_batch().unwrap().unwrap();
    assert_eq!(first.len(), BATCH_SIZE);
    let mut total = first.len();
    while let Some(batch) = src.next_batch().unwrap() {
        total += batch.len();
    }
    assert_eq!(total, 2500);
    let profile = src.profile();
    assert_eq!(profile.metrics().rows_out, 2500);
    assert_eq!(profile.metrics().batches, 3);
}

/// The sizes of the batches a plan yields when it is opened toward `goal`.
fn batch_sizes(db: &Database, plan: &Plan, goal: Option<usize>) -> Vec<usize> {
    let mut src = open_toward(&Arc::new(ExecContext::new(db)), plan, goal).unwrap();
    let mut sizes = Vec::new();
    while let Some(batch) = src.next_batch().unwrap() {
        sizes.push(batch.len());
    }
    sizes
}

#[test]
fn a_row_goal_ramps_the_scan_it_reaches_and_no_other() {
    let db = db();
    let ramp = [1, 4, 16, 64, 256, 1024, 1024, 111];
    assert_eq!(batch_sizes(&db, &scan("T", "t"), Some(1)), ramp);
    assert_eq!(batch_sizes(&db, &scan("T", "t"), None), [1024, 1024, 452]);
    // Streaming operators hand the goal on: the join's probe side ramps
    // (every row of `a` finds its one partner), its build side is read whole.
    let join = Plan::hash_join(scan("T", "a"), scan("T", "b"), vec![0], vec![0]);
    let streaming = join.project(vec![Expr::Column(0)], vec![ColumnInfo::unqualified("id")]);
    assert_eq!(batch_sizes(&db, &streaming, Some(1)), ramp);
    let mut src = open_toward(&Arc::new(ExecContext::new(&db)), &streaming, Some(1)).unwrap();
    src.next_batch().unwrap();
    let profile = src.profile();
    let join = profile.child(0);
    assert_eq!(join.child(0).metrics().rows_out, 1);
    assert_eq!(join.child(1).metrics().rows_out, 2500);
    // A breaker needs its whole input for its first row: the goal stops.
    let sorted = scan("T", "t").sort(vec![SortKey {
        column: 0,
        ascending: true,
    }]);
    let mut src = open_toward(&Arc::new(ExecContext::new(&db)), &sorted, Some(1)).unwrap();
    src.next_batch().unwrap();
    assert_eq!(src.profile().child(0).metrics().batches, 3);
}

#[test]
fn limit_stops_pulling_early() {
    let db = db();
    let plan = scan("T", "t").limit(5);
    let (rows, profile) = run_profiled(&db, &plan);
    assert_eq!(rows.len(), 5);
    // The limit consumed only the first batch of its input, not all 2500
    // rows: streaming means the scan never read past the first batch.
    let scan_profile = &profile.child(0);
    assert_eq!(scan_profile.metrics().rows_out as usize, BATCH_SIZE);
}

#[test]
fn filter_counts_rows_in_and_out() {
    let db = db();
    let plan = scan("T", "t").filter(Expr::col_cmp_value(1, CmpOp::Eq, Value::int(3)));
    let (rows, profile) = run_profiled(&db, &plan);
    assert_eq!(rows.len(), 250);
    assert_eq!(profile.operator(), "filter");
    assert_eq!(profile.metrics().rows_in, 2500);
    assert_eq!(profile.metrics().rows_out, 250);
}

#[test]
fn open_does_not_read_rows() {
    let db = db();
    let plan = scan("T", "t").filter(Expr::col_cmp_value(1, CmpOp::Eq, Value::int(3)));
    let src = open(&db, &plan).unwrap();
    let profile = src.profile();
    // Describing a freshly opened plan shows zero activity everywhere.
    profile.walk(&mut |p| {
        assert_eq!(p.metrics().rows_in, 0);
        assert_eq!(p.metrics().rows_out, 0);
        assert_eq!(p.metrics().batches, 0);
    });
}

#[test]
fn apply_cache_is_bounded_and_tallies_evictions() {
    // Correlate on t.id: 2500 distinct bindings against a cap of
    // APPLY_CACHE_CAP entries, so the cache must evict (and say so).
    let db = db();
    let sub = values_plan("s", &[Value::int(1)]).filter(Expr::Compare {
        op: CmpOp::Lt,
        left: Box::new(Expr::Param(Param::Outer(0))),
        right: Box::new(Expr::Literal(Value::int(0))),
    });
    let plan = scan("T", "t").apply(sub, vec![(0, 0)], ApplyMode::Exists { negated: true });
    let (rows, profile) = run_profiled(&db, &plan);
    assert_eq!(rows.len(), 2500, "NOT EXISTS over an always-empty subquery");
    assert!(
        profile.detail().contains("2500 evaluations"),
        "distinct bindings each evaluate once: {}",
        profile.detail()
    );
    let expected_evictions = 2500 - APPLY_CACHE_CAP;
    assert!(
        profile
            .detail()
            .contains(&format!("{expected_evictions} evictions")),
        "evictions must surface in the cache tally: {}",
        profile.detail()
    );
}

#[test]
fn blocked_time_never_exceeds_elapsed() {
    let db = db();
    let plan = scan("T", "t")
        .filter(Expr::col_cmp_value(1, CmpOp::Lt, Value::int(9)))
        .sort(vec![SortKey {
            column: 0,
            ascending: false,
        }]);
    let (_, profile) = run_profiled(&db, &plan);
    profile.walk(&mut |p| {
        assert!(
            p.metrics().blocked <= p.metrics().elapsed,
            "{}: blocked {:?} > elapsed {:?}",
            p.operator(),
            p.metrics().blocked,
            p.metrics().elapsed
        );
        assert_eq!(
            p.metrics().self_elapsed(),
            p.metrics().elapsed - p.metrics().blocked
        );
    });
    // The sort waited on its child for at least the child's own time.
    assert!(profile.metrics().blocked >= profile.child(0).metrics().self_elapsed());
}

#[test]
fn render_tree_shape_is_stable() {
    let db = db();
    let plan = scan("T", "t")
        .filter(Expr::col_cmp_value(1, CmpOp::Eq, Value::int(3)))
        .limit(7);
    let src = open(&db, &plan).unwrap();
    let tree = src.profile().render_tree(false);
    assert_eq!(tree, "limit: 7\n└─ filter: t.v = 3\n   └─ scan: T as t\n");
}

#[test]
fn aggregate_over_empty_input_still_produces_one_group() {
    let db = db();
    let empty = scan("T", "t").filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(0)));
    let plan = empty.aggregate(vec![], vec![AggExpr::count_star("cnt")], None);
    let mut src = open(&db, &plan).unwrap();
    let batch = src.next_batch().unwrap().unwrap();
    assert_eq!(batch.len(), 1);
    assert_eq!(batch.value(0, 0), Some(&Value::int(0)));
    assert!(src.next_batch().unwrap().is_none());
}

/// A one-column literal relation for subquery-operator tests.
fn values_plan(name: &str, values: &[Value]) -> Plan {
    Plan::values(
        vec![ColumnInfo::unqualified(name)],
        values.iter().map(|v| Row::new(vec![v.clone()])).collect(),
    )
}

/// Run a plan to exhaustion: its rows and its executed profile.
fn run_profiled(db: &Database, plan: &Plan) -> (Vec<Row>, PlanProfile) {
    let mut src = open(db, plan).unwrap();
    let mut out = Vec::new();
    while let Some(batch) = src.next_batch().unwrap() {
        batch.drain_into(&mut out);
    }
    (out, src.profile())
}

fn run_plan(db: &Database, plan: &Plan) -> Vec<Row> {
    run_profiled(db, plan).0
}

#[test]
fn semi_join_keeps_only_matching_probe_rows() {
    let db = Database::new();
    let probe = values_plan("x", &[Value::int(1), Value::int(2), Value::Null]);
    let build = values_plan("y", &[Value::int(2), Value::int(3), Value::Null]);
    let plan = Plan::semi_join(probe, build, vec![0], vec![0]);
    let rows = run_plan(&db, &plan);
    // Only 2 matches; NULL never equals anything, on either side.
    assert_eq!(rows, vec![Row::new(vec![Value::int(2)])]);
}

#[test]
fn anti_join_not_exists_semantics_pass_null_probes() {
    let db = Database::new();
    let probe = values_plan("x", &[Value::int(1), Value::int(2), Value::Null]);
    let build = values_plan("y", &[Value::int(2), Value::Null]);
    let plan = Plan::anti_join(probe, build, vec![0], vec![0], false);
    let rows = run_plan(&db, &plan);
    // NOT EXISTS: the NULL probe has no match by definition, so it stays.
    assert_eq!(
        rows,
        vec![Row::new(vec![Value::int(1)]), Row::new(vec![Value::Null])]
    );
}

#[test]
fn null_aware_anti_join_implements_not_in() {
    let db = Database::new();
    // A NULL on the build side makes every NOT IN verdict UNKNOWN or
    // FALSE: nothing survives.
    let probe = values_plan("x", &[Value::int(1), Value::int(2), Value::Null]);
    let with_null = values_plan("y", &[Value::int(2), Value::Null]);
    let plan = Plan::anti_join(probe.clone(), with_null, vec![0], vec![0], true);
    assert!(run_plan(&db, &plan).is_empty());

    // Without build-side NULLs, a NULL probe is UNKNOWN (dropped) and
    // non-matches pass.
    let no_null = values_plan("y", &[Value::int(2), Value::int(3)]);
    let plan = Plan::anti_join(probe.clone(), no_null, vec![0], vec![0], true);
    assert_eq!(run_plan(&db, &plan), vec![Row::new(vec![Value::int(1)])]);

    // NOT IN over an empty set is TRUE for everything, even NULL.
    let empty = values_plan("y", &[]);
    let plan = Plan::anti_join(probe, empty, vec![0], vec![0], true);
    assert_eq!(run_plan(&db, &plan).len(), 3);
}

#[test]
fn scalar_subquery_filters_against_the_cached_value() {
    let db = db();
    // T.v = (scalar 3): 250 of the 2500 rows qualify; the subquery's
    // profile shows it was pulled exactly once.
    let sub = values_plan("s", &[Value::int(3)]);
    let plan = Plan::scan("T", "t").scalar_subquery(
        sub,
        Expr::Column(1),
        CmpOp::Eq,
        Vec::new(),
        Value::Null,
    );
    let (rows, profile) = run_profiled(&db, &plan);
    assert_eq!(rows.len(), 250);
    assert_eq!(profile.operator(), "scalar subquery");
    assert_eq!(profile.child(1).metrics().rows_out, 1);
}

#[test]
fn scalar_subquery_with_two_rows_is_an_error() {
    let db = db();
    let sub = values_plan("s", &[Value::int(1), Value::int(2)]);
    let plan = Plan::scan("T", "t").scalar_subquery(
        sub,
        Expr::Column(1),
        CmpOp::Eq,
        Vec::new(),
        Value::Null,
    );
    let mut src = open(&db, &plan).unwrap();
    assert!(src.next_batch().is_err());
}

#[test]
fn scalar_subquery_over_empty_input_is_sql_null() {
    let db = db();
    let sub = values_plan("s", &[]);
    let plan = Plan::scan("T", "t").scalar_subquery(
        sub,
        Expr::Column(1),
        CmpOp::Eq,
        Vec::new(),
        Value::Null,
    );
    let mut src = open(&db, &plan).unwrap();
    // v = NULL is UNKNOWN for every row: nothing comes out.
    assert!(src.next_batch().unwrap().is_none());
}

#[test]
fn apply_exists_binds_params_and_caches_per_binding() {
    let db = db();
    // For each T row, check EXISTS(select * from T u where u.v = $0 and
    // u.id < 10): v in 0..=9 and ids 0..9 cover v values 0..9, so every
    // v has a witness — but only 10 distinct v values mean 10 real
    // evaluations for 2500 input rows.
    let sub = Plan::scan("T", "u")
        .filter(Expr::Compare {
            op: CmpOp::Eq,
            left: Box::new(Expr::Column(1)),
            right: Box::new(Expr::Param(Param::Outer(0))),
        })
        .filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(10)));
    let plan = Plan::scan("T", "t").apply(sub, vec![(0, 1)], ApplyMode::Exists { negated: false });
    let (rows, profile) = run_profiled(&db, &plan);
    assert_eq!(rows.len(), 2500);
    assert_eq!(profile.operator(), "apply");
    assert!(
        profile.detail().contains("10 evaluations"),
        "memoization missing from: {}",
        profile.detail()
    );
    assert!(profile.detail().contains("2490 cache hits"));
}

#[test]
fn apply_quantified_all_and_any_verdicts() {
    let five = Value::int(5);
    let vals = vec![Value::int(5), Value::int(7)];
    assert_eq!(
        quantified_verdict(&five, CmpOp::LtEq, true, &vals),
        Some(true)
    );
    assert_eq!(
        quantified_verdict(&five, CmpOp::Lt, true, &vals),
        Some(false)
    );
    assert_eq!(
        quantified_verdict(&five, CmpOp::Eq, false, &vals),
        Some(true)
    );
    // Empty sets: ALL is vacuously true, ANY is false.
    assert_eq!(quantified_verdict(&five, CmpOp::Eq, true, &[]), Some(true));
    assert_eq!(
        quantified_verdict(&five, CmpOp::Eq, false, &[]),
        Some(false)
    );
    // A NULL in the set leaves an undecided verdict UNKNOWN.
    let with_null = vec![Value::int(4), Value::Null];
    assert_eq!(
        quantified_verdict(&five, CmpOp::GtEq, true, &with_null),
        None
    );
    // …but a decided one stays decided.
    assert_eq!(
        quantified_verdict(&five, CmpOp::Lt, true, &with_null),
        Some(false)
    );
}

/// Rows of (few distinct integers or NULL — `i64::MIN` and `i64::MAX`
/// among them —, few distinct texts, floats or NULL — `±0.0`, infinities
/// and NaNs of both signs among them —, a mix of Integers, Floats, Text and
/// a Boolean, position): every key column is full of ties, the last column
/// tells rows apart.
fn tied_rows(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Row> {
    use rand::Rng;
    let floats = [
        -0.0,
        0.0,
        1.5,
        -1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(u64::MAX),
    ];
    (0..n)
        .map(|i| {
            let a = match rng.gen_range(0..8) {
                0 => Value::Null,
                6 => Value::int(i64::MIN),
                7 => Value::int(i64::MAX),
                v => Value::int(v),
            };
            let b = Value::text(["x", "y", "z", ""][rng.gen_range(0..4usize)]);
            let c = match rng.gen_range(0..10usize) {
                0 => Value::Null,
                v => Value::Float(floats[v - 1]),
            };
            let d = match rng.gen_range(0..5) {
                0 => Value::int(1),
                1 => Value::Float(1.0),
                2 => Value::Float(-0.0),
                3 => Value::text("1"),
                _ => Value::Boolean(true),
            };
            Row::new(vec![a, b, c, d, Value::int(i as i64)])
        })
        .collect()
}

/// The stable sort by [`Value::total_cmp`], key by key, truncated to `k`.
fn stable_sort(mut rows: Vec<Row>, keys: &[SortKey], k: usize) -> Vec<Row> {
    rows.sort_by(|a, b| {
        (keys.iter())
            .map(|key| {
                let ord = a.values()[key.column].total_cmp(&b.values()[key.column]);
                if key.ascending {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows.truncate(k);
    rows
}

#[test]
fn top_k_is_the_stable_sort_truncated() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0022_0001);
    for round in 0..400 {
        let n = rng.gen_range(0..60usize);
        let mut rows = tied_rows(&mut rng, n);
        if round % 2 == 0 {
            // The mixed column all Floats and the integers without NULL: the
            // other layouts of the words.
            for row in &mut rows {
                if row.values()[3].data_type() != Some(DataType::Float) {
                    *row.get_mut(3).unwrap() = Value::Float(2.5);
                }
                if row.values()[0].is_null() {
                    *row.get_mut(0).unwrap() = Value::int(3);
                }
            }
        }
        let keys: Vec<SortKey> = (0..rng.gen_range(1..=3usize))
            .map(|_| SortKey {
                column: rng.gen_range(0..4usize),
                ascending: rng.gen_bool(0.5),
            })
            .collect();
        for k in [0, 1, 2, n / 2, n.saturating_sub(1), n, n + 1, usize::MAX] {
            assert_eq!(
                top_k(rows.clone(), &keys, k),
                stable_sort(rows.clone(), &keys, k),
                "round {round}: n={n} k={k} keys={keys:?}"
            );
        }
    }
}

#[test]
fn a_sort_under_a_limit_keeps_and_emits_only_the_limit() {
    let db = db();
    // `v` is ten values over 2500 rows: the first five of the order are the
    // five lowest ids of v = 0, whichever batch they arrived in.
    let keys = vec![SortKey {
        column: 1,
        ascending: true,
    }];
    let sorted = scan("T", "t").sort(keys);
    let (rows, profile) = run_profiled(&db, &sorted.clone().limit(5));
    let (mut all, _) = run_profiled(&db, &sorted);
    all.truncate(5);
    assert_eq!(rows, all);
    let sort = &profile.child(0);
    assert_eq!(sort.operator(), "sort");
    assert_eq!((sort.metrics().rows_in, sort.metrics().rows_out), (2500, 5));
    assert_eq!(profile.metrics().rows_in, 5);
    // A limit that is not directly above the sort says nothing to it: the
    // sort hands on a full first batch.
    let (_, profile) = run_profiled(&db, &sorted.filter(Expr::col_eq(0, 0)).limit(5));
    let sort = &profile.child(0).child(0);
    assert_eq!(sort.metrics().rows_out as usize, BATCH_SIZE);
}

// ---------------------------------------------------------------------------
// Rewind
// ---------------------------------------------------------------------------

/// What a run of a source returns: its first batch only when it was opened
/// toward one row (what an `EXISTS` apply takes), every batch otherwise.
fn run_source(src: &mut Box<dyn RowSource>, goal: Option<usize>) -> Vec<Row> {
    let mut rows = Vec::new();
    while let Some(batch) = src.next_batch().unwrap() {
        batch.drain_into(&mut rows);
        if goal.is_some() {
            break;
        }
    }
    rows
}

/// A source's counters, node by node, times left out.
fn counts(src: &dyn RowSource) -> Vec<OpMetrics> {
    let mut counters = vec![OpMetrics::default(); src.node_count()];
    src.absorb_into(&mut counters);
    (counters.into_iter())
        .map(|m| OpMetrics {
            elapsed: Duration::ZERO,
            blocked: Duration::ZERO,
            ..m
        })
        .collect()
}

/// Open `plan` once and rewind it with each of `bindings` for `$0` in turn:
/// every run returns what a fresh open of the plan bound to that value
/// returns, and the rewound tree's counters are the fresh opens' summed.
fn assert_rewinds_like_fresh_opens(
    db: &Database,
    plan: &Plan,
    goal: Option<usize>,
    bindings: &[Value],
) {
    let ctx = Arc::new(ExecContext::new(db));
    let mut kept = open_toward(&ctx, plan, goal).unwrap();
    let mut fresh_counts = vec![OpMetrics::default(); kept.node_count()];
    for value in bindings {
        let binding = |p: Param| (p == Param::Outer(0)).then_some(value);
        kept.rewind(&binding);
        let rewound = run_source(&mut kept, goal);
        let mut fresh = open_toward(&ctx, &plan.bound(&binding), goal).unwrap();
        assert_eq!(rewound, run_source(&mut fresh, goal), "$0 = {value:?}");
        for (total, run) in fresh_counts.iter_mut().zip(counts(&*fresh)) {
            *total += run;
        }
    }
    assert_eq!(counts(&*kept), fresh_counts);
}

/// Integer, NULL, Float, Text and Integer again: each kind a binding can
/// take, and back.
fn kinds() -> Vec<Value> {
    vec![
        Value::int(3),
        Value::Null,
        Value::Float(4.0),
        Value::text("x"),
        Value::int(7),
    ]
}

fn vectorized_filter(input: Plan, predicate: Expr) -> Plan {
    PlanNode::Filter {
        input: Box::new(input),
        predicate,
        vectorized: true,
        shape_key: None,
    }
    .into()
}

fn v_eq_outer0() -> Expr {
    Expr::Compare {
        op: CmpOp::Eq,
        left: Box::new(Expr::Column(1)),
        right: Box::new(Expr::Param(Param::Outer(0))),
    }
}

#[test]
fn a_rewound_kernel_filter_is_a_fresh_one_whatever_the_kind_bound() {
    let db = db();
    let plan = vectorized_filter(scan("T", "u"), v_eq_outer0());
    assert_rewinds_like_fresh_opens(&db, &plan, None, &kinds());
    // The kernel stays compiled: a batch bound to a number takes it.
    let ctx = Arc::new(ExecContext::new(&db));
    let mut kept = open_toward(&ctx, &plan, None).unwrap();
    let three = Value::int(3);
    kept.rewind(&|p| (p == Param::Outer(0)).then_some(&three));
    assert_eq!(run_source(&mut kept, None).len(), 250);
    assert_eq!(counts(&*kept)[0].vector_batches, 3);
}

#[test]
fn a_rewound_index_probe_is_a_fresh_one_whatever_the_kind_bound() {
    use crate::index::BoundTerm;
    let db = indexed_db();
    let probe = IndexBounds::prefix(vec![BoundTerm::Param(Param::Outer(0))]);
    let plan = Plan::index_scan("T", "u", "idx_v", probe);
    assert_rewinds_like_fresh_opens(&db, &plan, None, &kinds());
    // The same under the first-row goal, and joined, projected and
    // anti-joined, so every operator between rewinds its inputs.
    assert_rewinds_like_fresh_opens(&db, &plan, Some(1), &kinds());
    let project = Expr::Arith {
        op: crate::expr::ArithOp::Add,
        left: Box::new(Expr::Column(0)),
        right: Box::new(Expr::Param(Param::Outer(0))),
    };
    let joined = Plan::nested_loop_join(
        scan("T", "t").filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(3))),
        plan.clone(),
        Some(Expr::col_eq(1, 3)),
    )
    .project(vec![project], vec![ColumnInfo::unqualified("x")]);
    assert_rewinds_like_fresh_opens(&db, &joined, None, &kinds());
    let anti = Plan::anti_join(scan("T", "t"), plan, vec![0], vec![0], false).limit(5);
    assert_rewinds_like_fresh_opens(&db, &anti, Some(1), &kinds());
}

#[test]
fn a_rewound_hash_join_builds_again() {
    // A rewind lets go of the build, so the hash join over `u.v = $0`
    // builds again for every binding.
    let db = db();
    let build = vectorized_filter(scan("T", "u"), v_eq_outer0());
    let probe = scan("T", "t").filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(50)));
    let plan = Plan::hash_join(probe, build, vec![1], vec![1]);
    assert_rewinds_like_fresh_opens(&db, &plan, None, &kinds());
}

#[test]
fn a_rewound_tree_holds_no_lent_batch() {
    // Each probe row of `a` meets the 250 rows of `b` with its `v`: the
    // first batch leaves most of the join's output gathered, lending `T`.
    let db = db();
    let table = db.table_arc("T").unwrap();
    let join = Plan::hash_join(scan("T", "a"), scan("T", "b"), vec![1], vec![1]);
    let plan = join.project(vec![Expr::Column(0)], vec![ColumnInfo::unqualified("id")]);
    let mut tree = open_toward(&Arc::new(ExecContext::new(&db)), &plan, None).unwrap();
    let opened = Arc::strong_count(&table);
    let (mut first, mut again) = (Vec::new(), Vec::new());
    tree.next_batch().unwrap().unwrap().drain_into(&mut first);
    assert_eq!(first.len(), BATCH_SIZE);
    assert!(
        Arc::strong_count(&table) > opened,
        "the gathered rows lend T"
    );
    tree.rewind(&|_| None);
    assert_eq!(
        Arc::strong_count(&table),
        opened,
        "the rewound tree lends nothing"
    );
    tree.next_batch().unwrap().unwrap().drain_into(&mut again);
    assert_eq!(again, first);
}

#[test]
fn join_index_drops_null_keys() {
    let rows = vec![
        Row::new(vec![Value::int(1)]),
        Row::new(vec![Value::Null]),
        Row::new(vec![Value::int(1)]),
    ];
    let values = Plan::values(vec![ColumnInfo::unqualified("k")], rows);
    let mut build = open(&Database::new(), &values).unwrap();
    let (index, pulled) = JoinIndex::build(&mut OpMetrics::default(), &mut build, &[0]).unwrap();
    assert_eq!(pulled, 3);
    assert_eq!(index.keys.len(), 1);
    assert_eq!(index.rows.len(), 2);
    assert_eq!(
        index.lookup(&[Value::int(1)][..]).map(|run| run.len()),
        Some(2)
    );
}

#[test]
fn an_apply_rewinds_one_subplan_across_evictions() {
    // Bindings 0..1099, then 0..1099 again, then 0..299, in batches of
    // 1,024 against a memo of APPLY_CACHE_CAP = 1,024: batch one evaluates
    // 0..1023; batch two evaluates 1024..1099, answers 0..947 from the memo
    // and evicts 0..75; batch three answers 948..1099 and 76..299 from it,
    // evaluates 0..75 again and evicts 76 more.
    let db = Database::new();
    let keys: Vec<Value> = (0..2500).map(|i| Value::int(i % 1100)).collect();
    let sub = values_plan("s", &[Value::int(1), Value::int(2)]).filter(Expr::Compare {
        op: CmpOp::Lt,
        left: Box::new(Expr::Param(Param::Outer(0))),
        right: Box::new(Expr::Literal(Value::int(1000))),
    });
    let plan =
        values_plan("x", &keys).apply(sub, vec![(0, 0)], ApplyMode::Exists { negated: false });
    let (rows, profile) = run_profiled(&db, &plan);
    assert_eq!(rows.len(), 2300, "the bindings under 1000");
    let apply = profile.metrics();
    assert_eq!(
        (apply.evaluations, apply.cache_hits, apply.evictions),
        (1176, 1324, 152)
    );
    // One tree, rewound 1,176 times: its counters span every run. Each
    // run's values hand on their two rows in one batch, and the filter
    // keeps them for the 1,076 bindings under 1000 it evaluated.
    let (filter, values) = (profile.child(1), profile.child(1).child(0));
    assert_eq!(
        (values.metrics().rows_out, values.metrics().batches),
        (2352, 1176)
    );
    assert_eq!(
        (filter.metrics().rows_in, filter.metrics().rows_out),
        (2352, 2152)
    );
}

#[test]
fn an_exists_apply_scans_what_fresh_opens_toward_one_row_scan() {
    let db = db();
    let scanned = || db.obs().counter(Counter::RowsScanned);
    let sub = vectorized_filter(scan("T", "u"), v_eq_outer0());
    // t.id bound for u.v: 0..9 find a row in the first few, 10..19 none.
    let input = scan("T", "t").filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(20)));
    let plan = input.apply(
        sub.clone(),
        vec![(0, 0)],
        ApplyMode::Exists { negated: false },
    );
    let before = scanned();
    let (rows, profile) = run_profiled(&db, &plan);
    let by_apply = scanned() - before;
    assert_eq!(rows.len(), 10);
    assert_eq!(profile.metrics().evaluations, 20);
    let ctx = Arc::new(ExecContext::new(&db));
    let before = scanned();
    for id in 0..20 {
        let value = Value::int(id);
        let bound = sub.bound(&|p| (p == Param::Outer(0)).then_some(&value));
        let mut fresh = open_toward(&ctx, &bound, Some(1)).unwrap();
        run_source(&mut fresh, Some(1));
    }
    let by_fresh_opens = scanned() - before;
    assert_eq!(by_apply, 2500 + by_fresh_opens);
    // The ramp reached the scan: 0..9 stop within 1 + 4 + 16 rows.
    assert!(by_fresh_opens < 10 * 21 + 10 * 2500, "{by_fresh_opens}");
}

#[test]
fn an_apply_inside_an_apply_subplan_rewinds_with_both_bindings() {
    // For each u of T (u.id < 30): EXISTS (w of T where w.id = $1 + $0 and
    // w.v < 5), $1 = u.v bound by the inner apply, $0 by the outer one —
    // an outer value the inner apply must keep bound across its own
    // rewinds.
    let db = db();
    let inner = scan("T", "w")
        .filter(Expr::Compare {
            op: CmpOp::Eq,
            left: Box::new(Expr::Column(0)),
            right: Box::new(Expr::Arith {
                op: crate::expr::ArithOp::Add,
                left: Box::new(Expr::Param(Param::Outer(1))),
                right: Box::new(Expr::Param(Param::Outer(0))),
            }),
        })
        .filter(Expr::col_cmp_value(1, CmpOp::Lt, Value::int(5)));
    let outer_sub = scan("T", "u")
        .filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(30)))
        .apply(inner, vec![(1, 1)], ApplyMode::Exists { negated: false });
    let bindings: Vec<Value> = [0, 1, 2, 3, 0, 4].map(Value::int).to_vec();
    assert_rewinds_like_fresh_opens(&db, &outer_sub, None, &bindings);
    assert_rewinds_like_fresh_opens(&db, &outer_sub, Some(1), &bindings);
}

#[test]
fn an_apply_charges_its_subplan_runs_to_blocked() {
    let db = db();
    let sub = vectorized_filter(scan("T", "u"), v_eq_outer0());
    let plan = scan("T", "t").apply(sub, vec![(0, 1)], ApplyMode::Exists { negated: false });
    let (_, profile) = run_profiled(&db, &plan);
    let (apply, subplan) = (profile.metrics(), profile.child(1).metrics());
    assert!(apply.blocked >= subplan.elapsed, "{apply:?} {subplan:?}");
    profile.walk(&mut |p| assert!(p.metrics().blocked <= p.metrics().elapsed));
}
