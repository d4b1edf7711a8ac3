//! The hash operators' keys, held to SQL `=`.
//!
//! * *The engine agrees with itself.* On `T(id INTEGER, f FLOAT)` holding
//!   `1.0`, the Integer `1`, `-0.0` and `0.0`, `WHERE t.f = 1` and
//!   `WHERE t.f = 0` each find two rows; so must a hash join, `IN`, `NOT IN`,
//!   `GROUP BY`, `DISTINCT` and `COUNT(DISTINCT)`, and so must the reference
//!   options.
//! * *A differential that shares no hashing code with the engine.* Seeded,
//!   NULL-heavy rows — Integers inside Float columns, `±0.0`, NaN, empty and
//!   shared-prefix strings, one to three key columns — go through the hash
//!   join, the semi-, anti- and NULL-aware anti-join, the keyed scalar
//!   subquery, the grouped aggregator (groups and `COUNT(DISTINCT)`; row and
//!   vector paths) and `DISTINCT`, and each answer is compared, rows in
//!   order and values by their exact spelling (`1` is not `1.0`), with
//!   nested loops over [`Value::sql_eq`]. The build sides span several
//!   batches.
//! * *The aggregator's two lookups are one table.* Its vector path reads a
//!   batch's key columns once, typed, and looks the batch up; a batch whose
//!   key column mixes kinds goes row by row into the same table. A key column
//!   that changes kind between batches (Integers alone, then Integers with a
//!   Float `1.0`, `-0.0` and NULL, then Integers), and two-column Integer +
//!   Text keys in batches of 1 023, 1 024 and 1 025 rows, are held to the
//!   same nested loops.
//!
//! The differential's seeds are fixed; `KEYS_SEED=<u64>` adds one more (CI
//! passes the clock), and every failure names its seed.

use datastore::exec::{execute, AggExpr, AggFunc, ColumnInfo, GroupedAggregator, Plan};
use datastore::expr::{CmpOp, Expr};
use datastore::{ColumnDef, DataType, Database, Row, TableSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use talkback::{PlannerOptions, Talkback};

fn reference() -> PlannerOptions {
    PlannerOptions {
        decorrelate_subqueries: false,
        use_indexes: false,
        use_vectorized: false,
        use_plan_cache: false,
        use_feedback: false,
        ..PlannerOptions::default()
    }
}

/// Rows as their values are spelled, in order.
fn spelled(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{:?}", r.values())).collect()
}

fn sorted(mut rows: Vec<String>) -> Vec<String> {
    rows.sort();
    rows
}

#[test]
fn hash_operators_agree_with_equals_on_numbers() {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "T",
        vec![
            ColumnDef::new("id", DataType::Integer),
            ColumnDef::new("f", DataType::Float),
        ],
    ))
    .unwrap();
    for (id, f) in [
        (1, Value::Float(1.0)),
        (2, Value::Integer(1)),
        (3, Value::Float(-0.0)),
        (4, Value::Float(0.0)),
    ] {
        db.insert("T", vec![Value::int(id), f]).unwrap();
    }
    let system = Talkback::new(db);
    let ids = |ids: &[i64]| -> Vec<String> {
        sorted(
            ids.iter()
                .map(|i| format!("{:?}", [Value::int(*i)]))
                .collect(),
        )
    };
    let pairs = |pairs: &[(i64, i64)]| -> Vec<String> {
        let spelled = pairs
            .iter()
            .map(|(a, b)| format!("{:?}", [Value::int(*a), Value::int(*b)]));
        sorted(spelled.collect())
    };
    let cases: [(&str, Vec<String>); 6] = [
        ("select t.id from T t where t.f = 1", ids(&[1, 2])),
        (
            "select t1.id, t2.id from T t1, T t2 where t1.f = t2.f",
            pairs(&[
                (1, 1),
                (1, 2),
                (2, 1),
                (2, 2),
                (3, 3),
                (3, 4),
                (4, 3),
                (4, 4),
            ]),
        ),
        (
            "select t1.id from T t1 where t1.f in (select t2.f from T t2 where t2.id = 2)",
            ids(&[1, 2]),
        ),
        (
            "select t1.id from T t1 where t1.f not in (select t2.f from T t2 where t2.id = 4)",
            ids(&[1, 2]),
        ),
        ("select count(distinct t.f) from T t", ids(&[2])),
        ("select count(distinct *) from T t", ids(&[1])),
    ];
    for (sql, expected) in &cases {
        for options in [PlannerOptions::default(), reference()] {
            let answer = system.run_query_with(sql, options).unwrap();
            assert_eq!(
                &sorted(spelled(&answer.rows)),
                expected,
                "{sql} under {options:?}"
            );
        }
    }
    // The first of the equal values speaks for its group.
    for options in [PlannerOptions::default(), reference()] {
        let distinct = system
            .run_query_with("select distinct t.f from T t", options)
            .unwrap();
        assert_eq!(
            spelled(&distinct.rows),
            ["[Float(1.0)]", "[Float(-0.0)]"],
            "{options:?}"
        );
        let grouped =
            (system.run_query_with("select t.f, count(*) from T t group by t.f", options)).unwrap();
        assert_eq!(
            spelled(&grouped.rows),
            ["[Float(1.0), Integer(2)]", "[Float(-0.0), Integer(2)]"],
            "{options:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// The differential
// ---------------------------------------------------------------------------

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0x0031_0001, 0x0031_0002];
    if let Ok(extra) = std::env::var("KEYS_SEED") {
        seeds.push(extra.parse().expect("KEYS_SEED is a u64"));
    }
    seeds
}

/// What one key column holds.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A Float column: Floats, the Integers it accepts, `±0.0` and NaN.
    Number,
    /// A Float column of Floats only, so that batches transpose.
    Float,
    /// Strings that share prefixes, and the empty one.
    Text,
    Integer,
}

fn draw(rng: &mut StdRng, kind: Kind) -> Value {
    if rng.gen_bool(0.2) {
        return Value::Null;
    }
    match kind {
        Kind::Number => match rng.gen_range(0..10) {
            0 => Value::Float(-0.0),
            1 => Value::Float(0.0),
            2 => Value::Integer(0),
            3 => Value::Float(f64::NAN),
            4 => Value::Float(0.5),
            5 | 6 => Value::Integer(rng.gen_range(-1..3)),
            _ => Value::Float(rng.gen_range(-1..3) as f64),
        },
        Kind::Float => {
            let floats = [-0.0, 0.0, f64::NAN, 0.5, -1.0, 1.0, 2.0];
            Value::Float(floats[rng.gen_range(0..floats.len())])
        }
        Kind::Text => {
            let words = ["", "a", "ab", "abc", "abd", "b", "ba"];
            Value::text(words[rng.gen_range(0..words.len())])
        }
        Kind::Integer => Value::Integer(rng.gen_range(0..6)),
    }
}

/// `n` rows of `kinds.len()` key columns, then the row's position.
fn rows(rng: &mut StdRng, kinds: &[Kind], n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let mut values: Vec<Value> = kinds.iter().map(|&k| draw(rng, k)).collect();
            values.push(Value::int(i as i64));
            Row::new(values)
        })
        .collect()
}

fn columns(prefix: &str, width: usize) -> Vec<ColumnInfo> {
    (0..width)
        .map(|c| ColumnInfo::unqualified(format!("{prefix}{c}")))
        .collect()
}

/// SQL `=` on every key column: a NULL equals nothing.
fn equal(a: &Row, a_cols: &[usize], b: &Row, b_cols: &[usize]) -> bool {
    (a_cols.iter().zip(b_cols)).all(|(&i, &j)| a.values()[i].sql_eq(&b.values()[j]) == Some(true))
}

/// The grouping reading of `=`: NULL is the same as NULL.
fn same(a: &Value, b: &Value) -> bool {
    (a.is_null() && b.is_null()) || a.sql_eq(b) == Some(true)
}

fn has_null(row: &Row, cols: &[usize]) -> bool {
    cols.iter().any(|&c| row.values()[c].is_null())
}

fn run(plan: &Plan) -> Vec<String> {
    spelled(&execute(&Database::new(), plan).unwrap().rows)
}

/// Rows in each build side: several batches.
const BUILD_ROWS: usize = 4_596;

#[test]
fn key_tables_agree_with_nested_loops() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = [Kind::Number, Kind::Float, Kind::Text, Kind::Integer];
        let mut keys = vec![vec![Kind::Number], vec![Kind::Float], vec![Kind::Text]];
        for width in 2..=3 {
            let numeric = pool[rng.gen_range(0..2usize)];
            let rest = (1..width).map(|_| pool[rng.gen_range(0..pool.len())]);
            keys.push([numeric].into_iter().chain(rest).collect());
        }
        for kinds in keys {
            let width = kinds.len();
            let at = format!("seed {seed}, key {kinds:?}");
            let probe = rows(&mut rng, &kinds, 300);
            let build = rows(&mut rng, &kinds, BUILD_ROWS);
            let keys: Vec<usize> = (0..width).collect();
            joins(&probe, &build, &keys, &at);
            semi_joins(&probe, &build, &keys, &at);
            scalar_lookups(&probe, &build, &keys, &at);
            aggregates(&build, &keys, &at);
            distinct(&build, width, &at);
        }
    }
}

fn values(prefix: &str, rows: &[Row]) -> Plan {
    Plan::values(columns(prefix, rows[0].arity()), rows.to_vec())
}

fn joins(probe: &[Row], build: &[Row], keys: &[usize], at: &str) {
    let mut expected = Vec::new();
    for l in probe.iter().filter(|l| !has_null(l, keys)) {
        for r in build.iter().filter(|r| equal(l, keys, r, keys)) {
            expected.push(l.concat(r));
        }
    }
    let expected = spelled(&expected);
    let plan = Plan::hash_join(
        values("l", probe),
        values("r", build),
        keys.into(),
        keys.into(),
    );
    assert_eq!(run(&plan), expected, "hash join, {at}");
}

fn semi_joins(probe: &[Row], build: &[Row], keys: &[usize], at: &str) {
    let matched = |l: &Row| build.iter().any(|r| equal(l, keys, r, keys));
    let kept = |keep: &dyn Fn(&Row) -> bool| -> Vec<String> {
        spelled(
            &probe
                .iter()
                .filter(|l| keep(l))
                .cloned()
                .collect::<Vec<_>>(),
        )
    };
    let (left, right) = (values("l", probe), values("r", build));
    let semi = Plan::semi_join(left.clone(), right.clone(), keys.into(), keys.into());
    let anti = Plan::anti_join(left.clone(), right.clone(), keys.into(), keys.into(), false);
    let mut cases = vec![
        ("semi join", semi, kept(&|l| matched(l))),
        ("anti join", anti, kept(&|l| !matched(l))),
    ];
    if keys.len() == 1 {
        // `NOT IN`: TRUE only when every comparison is FALSE.
        let not_in = |l: &Row| {
            let v = &l.values()[0];
            (build.iter()).all(|r| v.sql_eq(&r.values()[0]) == Some(false))
        };
        let null_aware = Plan::anti_join(left, right, keys.into(), keys.into(), true);
        cases.push(("NULL-aware anti join", null_aware, kept(&not_in)));
    }
    for (what, plan, expected) in cases {
        assert_eq!(run(&plan), expected, "{what}, {at}");
    }
}

/// `n < (select count(*) from build where build.keys = probe.keys)`, grouped
/// once and looked up by key.
fn scalar_lookups(probe: &[Row], build: &[Row], keys: &[usize], at: &str) {
    let n = probe[0].arity() - 1;
    let counts = values("r", build).aggregate(keys.to_vec(), vec![AggExpr::count_star("n")], None);
    let plan = values("l", probe).scalar_subquery(
        counts,
        Expr::Column(n),
        CmpOp::Lt,
        keys.iter().map(|&k| (k, k)).collect(),
        Value::int(0),
    );
    let expected: Vec<Row> = (probe.iter())
        .filter(|l| {
            let count = build.iter().filter(|r| equal(l, keys, r, keys)).count();
            l.values()[n].sql_cmp(&Value::int(count as i64)) == Some(std::cmp::Ordering::Less)
        })
        .cloned()
        .collect();
    let expected = spelled(&expected);
    assert_eq!(run(&plan), expected, "scalar subquery, {at}");
}

/// `select keys, count(*), count(distinct d) group by keys`, where `d` is
/// the first key column shifted by one row, in batches of 1 024.
fn aggregates(build: &[Row], keys: &[usize], at: &str) {
    aggregates_in(build, keys, 1024, at);
}

/// [`aggregates`] in batches of `batch` rows.
fn aggregates_in(build: &[Row], keys: &[usize], batch: usize, at: &str) {
    let rows: Vec<Row> = (build.iter().enumerate())
        .map(|(i, r)| {
            let d = build[(i + 1) % build.len()].values()[0].clone();
            Row::new(
                keys.iter()
                    .map(|&k| r.values()[k].clone())
                    .chain([d])
                    .collect(),
            )
        })
        .collect();
    let d = keys.len();
    // Groups in first-encounter order: the first row's values, its members.
    let mut groups: Vec<(Row, Vec<&Value>, usize)> = Vec::new();
    for row in &rows {
        let key_of = |g: &Row| keys.iter().all(|&k| same(&g.values()[k], &row.values()[k]));
        let at = match groups.iter().position(|(g, _, _)| key_of(g)) {
            Some(at) => at,
            None => {
                groups.push((row.clone(), Vec::new(), 0));
                groups.len() - 1
            }
        };
        let (_, seen, count) = &mut groups[at];
        *count += 1;
        let v = &row.values()[d];
        if !v.is_null() && !seen.iter().any(|s| same(s, v)) {
            seen.push(v);
        }
    }
    let expected: Vec<Row> = (groups.iter())
        .map(|(g, seen, count)| {
            let totals = [Value::int(*count as i64), Value::int(seen.len() as i64)];
            Row::new(
                keys.iter()
                    .map(|&k| g.values()[k].clone())
                    .chain(totals)
                    .collect(),
            )
        })
        .collect();
    let expected = spelled(&expected);
    let aggs = || {
        vec![
            AggExpr::count_star("n"),
            AggExpr::new(AggFunc::CountDistinct, Expr::Column(d), "d"),
        ]
    };
    for vectorized in [false, true] {
        let mut whole = GroupedAggregator::new(keys.to_vec(), aggs(), vectorized);
        for batch in rows.chunks(batch) {
            whole.push_batch(batch).unwrap();
        }
        let answer = spelled(&whole.finish(None).unwrap());
        assert_eq!(
            answer, expected,
            "aggregate in batches of {batch}, vectorized {vectorized}, {at}"
        );
    }
}

/// `DISTINCT` over the key columns alone.
fn distinct(build: &[Row], width: usize, at: &str) {
    let rows: Vec<Row> = (build.iter())
        .map(|r| Row::new(r.values()[..width].to_vec()))
        .collect();
    let mut expected: Vec<Row> = Vec::new();
    for row in &rows {
        let seen = |kept: &Row| (kept.values().iter().zip(row.values())).all(|(a, b)| same(a, b));
        if !expected.iter().any(seen) {
            expected.push(row.clone());
        }
    }
    let expected = spelled(&expected);
    assert_eq!(
        run(&values("k", &rows).distinct()),
        expected,
        "distinct, {at}"
    );
}

/// A grouping key column read a batch at a time changes kind within one
/// statement: a batch of Integers alone (looked up as a batch of typed
/// keys), then one where Integers meet a Float `1.0`, `-0.0` and NULL (read
/// row by row), then Integers again — all into one table, `1` and `1.0`, `0`
/// and `-0.0` one group each.
#[test]
fn a_key_column_that_changes_kind_between_batches_keeps_its_groups() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let integers = |rng: &mut StdRng, n: usize| -> Vec<Row> {
            (0..n)
                .map(|_| Row::new(vec![Value::int(rng.gen_range(-1..4)), Value::int(1)]))
                .collect()
        };
        let mut build = integers(&mut rng, 1024);
        let mut mixed = integers(&mut rng, 1024);
        for (at, value) in [Value::Float(1.0), Value::Float(-0.0), Value::Null]
            .into_iter()
            .enumerate()
        {
            mixed[100 + 300 * at] = Row::new(vec![value, Value::int(1)]);
        }
        build.extend(mixed);
        build.extend(integers(&mut rng, 700));
        let at = format!("seed {seed}, Integers, then a mixed batch");
        aggregates_in(&build, &[0], 1024, &at);
    }
}

/// Two-column keys (Integer, then Text), NULL-heavy, in batches of 1 023,
/// 1 024 and 1 025 rows.
#[test]
fn two_column_keys_agree_in_batches_around_a_batch() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let build = rows(&mut rng, &[Kind::Integer, Kind::Text], 4 * 1025 + 300);
        for batch in [1023, 1024, 1025] {
            let at = format!("seed {seed}, key [Integer, Text]");
            aggregates_in(&build, &[0, 1], batch, &at);
        }
    }
}
