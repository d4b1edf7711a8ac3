//! The write-path differential: a table keeps its own statistics, indexes
//! and primary-key map current under `insert` / `delete_where` /
//! `update_where`, and after every write all three must be exactly what
//! building them from scratch over the current rows gives.
//!
//! Seeded random write sequences over the movie schema (plus a RATINGS
//! relation with a Float column that is fed integers, a date and a boolean)
//! and the EMP/DEPT schema. The seeds are fixed; `WRITE_PATH_SEED=<u64>` adds
//! one more (CI passes the clock), and every failure names its seed and step.
//!
//! The indexes' oracle is `Index::build`, which sorts the rows' keys once and
//! loads the index from the sorted runs; the edits under test grow, shrink
//! and re-key an index one row at a time. So this differential holds every
//! maintained index to the bulk path. The other direction — a bulk-built
//! index against one grown by `insert` from empty, on NULL, duplicate and
//! two-spelling keys — is `a_bulk_built_index_is_the_index_grown_row_by_row`,
//! over fixed seeds plus one from `INDEX_BUILD_SEED=<u64>`.

use datastore::index::{BoundTerm, IndexBounds, ProbeOrder};
use datastore::obs::Counter;
use datastore::sample::{employee_database, movie_database};
use datastore::stats::{ColumnStats, Histogram, TableStats, STATS_HISTOGRAM_BUCKETS};
use datastore::value::GroupKey;
use datastore::{
    ColumnDef, DataType, Database, Date, Index, IndexDef, IndexKind, Row, StoreError, Table,
    TableSchema, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;
use talkback::Talkback;

const STEPS: usize = 160;

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0x0015_0001, 0x0015_0002, 0x0015_0003];
    if let Ok(extra) = std::env::var("WRITE_PATH_SEED") {
        seeds.push(extra.parse().expect("WRITE_PATH_SEED is a u64"));
    }
    seeds
}

// ---------------------------------------------------------------------------
// The oracles: everything from scratch over the current rows
// ---------------------------------------------------------------------------

/// The documented order of a column's extremes: `total_cmp`, an integer
/// before a float of equal value, then by bit pattern.
fn extreme_cmp(a: &Value, b: &Value) -> Ordering {
    let spelling = |v: &Value| match v {
        Value::Float(f) => (true, f.to_bits()),
        _ => (false, 0),
    };
    a.total_cmp(b).then_with(|| spelling(a).cmp(&spelling(b)))
}

/// Statistics of column `i`, from the rows alone.
fn column_stats_from_rows(table: &Table, i: usize) -> ColumnStats {
    let column = &table.schema().columns[i].name;
    let values: Vec<&Value> = table.rows().iter().filter_map(|r| r.get(i)).collect();
    let nulls = values.iter().filter(|v| v.is_null()).count();
    let present: Vec<&Value> = values.into_iter().filter(|v| !v.is_null()).collect();
    let distinct: HashSet<GroupKey> = present.iter().map(|v| v.group_key()).collect();
    let numeric: Vec<f64> = present.iter().filter_map(|v| v.as_f64()).collect();
    let histogram = (!numeric.is_empty()).then(|| {
        let min = numeric.iter().copied().fold(f64::INFINITY, f64::min);
        let max = numeric.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = if max > min {
            (max - min) / STATS_HISTOGRAM_BUCKETS as f64
        } else {
            1.0
        };
        let mut buckets = vec![0; STATS_HISTOGRAM_BUCKETS];
        for x in &numeric {
            buckets[(((x - min) / width) as usize).min(STATS_HISTOGRAM_BUCKETS - 1)] += 1;
        }
        Histogram {
            table: table.name().to_string(),
            column: column.clone(),
            min,
            max,
            buckets,
            nulls,
        }
    });
    ColumnStats {
        column: column.clone(),
        ndv: distinct.len(),
        nulls,
        non_null: table.len() - nulls,
        min: present
            .iter()
            .min_by(|a, b| extreme_cmp(a, b))
            .map(|v| (*v).clone()),
        max: present
            .iter()
            .max_by(|a, b| extreme_cmp(a, b))
            .map(|v| (*v).clone()),
        histogram,
    }
}

fn assert_stats_match_rows(stats: &TableStats, table: &Table, context: &str) {
    assert_eq!(stats.row_count, table.len(), "{context}");
    for (i, col) in table.schema().columns.iter().enumerate() {
        let live = stats
            .column(&col.name)
            .expect("every column has statistics");
        let oracle = column_stats_from_rows(table, i);
        assert_eq!(live, &oracle, "{context}, column {}", col.name);
        // `==` on values cannot tell `3` from `3.0`; `Debug` can.
        assert_eq!(
            format!("{live:?}"),
            format!("{oracle:?}"),
            "{context}, column {}",
            col.name
        );
    }
}

/// Probes of an index that the rows suggest: the key values of a few rows,
/// exact, as prefixes and as range ends, plus values no row has.
fn probes(index: &Index, rows: &[Row], rng: &mut StdRng) -> Vec<IndexBounds> {
    let key_of = |row: &Row| -> Vec<Value> {
        let key = index.column_pos().iter();
        key.map(|&i| row.get(i).cloned().unwrap_or(Value::Null))
            .collect()
    };
    let mut keys: Vec<Vec<Value>> = (0..8.min(rows.len()))
        .map(|_| key_of(&rows[rng.gen_range(0..rows.len())]))
        .collect();
    keys.push(vec![Value::int(-7); index.width()]);
    keys.push(vec![Value::Float(2.5); index.width()]);
    keys.push(vec![Value::text("zz"); index.width()]);
    keys.push(vec![Value::Null; index.width()]);
    let terms = |values: &[Value]| values.iter().cloned().map(BoundTerm::Value).collect();
    let mut out = Vec::new();
    for (n, key) in keys.iter().enumerate() {
        out.push(IndexBounds::prefix(terms(key)));
        if !index.supports_range() {
            continue;
        }
        let other = &keys[(n + 1) % keys.len()];
        for eq in 0..index.width() {
            // An equality prefix, alone and followed by a range on the next
            // column: both ends, one end, either inclusivity.
            out.push(IndexBounds::prefix(terms(&key[..eq])));
            let lo = Some((BoundTerm::Value(key[eq].clone()), rng.gen_bool(0.5)));
            let hi = Some((BoundTerm::Value(other[eq].clone()), rng.gen_bool(0.5)));
            for (lo, hi) in [(lo.clone(), hi.clone()), (lo, None), (None, hi)] {
                out.push(IndexBounds {
                    eq: terms(&key[..eq]),
                    lo,
                    hi,
                });
            }
        }
    }
    out
}

/// The index answers every probe as one freshly built over the same rows.
fn assert_index_matches_rows(index: &Index, rows: &[Row], rng: &mut StdRng, context: &str) {
    let fresh = Index::build(index.def().clone(), rows, index.column_pos().to_vec());
    let context = format!("{context}, index {}", index.def());
    assert_eq!(index.len(), fresh.len(), "{context}");
    assert_eq!(index.key_count(), fresh.key_count(), "{context}");
    for bounds in probes(index, rows, rng) {
        for order in [
            ProbeOrder::Position,
            ProbeOrder::KeyAsc,
            ProbeOrder::KeyDesc,
        ] {
            let context = format!("{context}, probe {bounds:?} {order:?}");
            assert_eq!(
                format!("{:?}", index.probe(&bounds, order)),
                format!("{:?}", fresh.probe(&bounds, order)),
                "{context}"
            );
            assert_eq!(
                format!("{:?}", index.probe_entries(&bounds, order)),
                format!("{:?}", fresh.probe_entries(&bounds, order)),
                "{context}"
            );
        }
        if let (1, Some(value)) = (index.width(), bounds.eq.first().and_then(BoundTerm::value)) {
            assert_eq!(
                index.probe_point(value),
                fresh.probe_point(value),
                "{context}"
            );
        }
    }
}

/// Everything derived from the rows of one table is what the rows say.
fn assert_table_matches_rows(db: &Database, name: &str, rng: &mut StdRng, context: &str) {
    let table = db.table(name).expect("table exists");
    let context = format!("{context}, table {name}");
    assert_stats_match_rows(&db.table_stats(name).unwrap(), table, &context);
    for index in table.indexes() {
        assert_index_matches_rows(index, table.rows(), rng, &context);
    }
    // The primary-key map against a table loaded afresh with the same rows.
    let pk = table.schema().primary_key_indices();
    if !pk.is_empty() {
        let mut fresh = Table::new(table.schema().clone());
        for row in table.rows() {
            fresh.insert(row.clone()).expect("keys stay unique");
        }
        let mut keys: Vec<Vec<Value>> = (table.rows().iter())
            .map(|r| pk.iter().map(|&i| r.values()[i].clone()).collect())
            .collect();
        keys.push(vec![Value::int(-7); pk.len()]);
        for key in &keys {
            assert_eq!(table.find_by_pk(key), fresh.find_by_pk(key), "{context}");
            assert!(key[0] == Value::int(-7) || table.contains_pk(key));
        }
    }
}

// ---------------------------------------------------------------------------
// Random writes
// ---------------------------------------------------------------------------

fn random_value(rng: &mut StdRng, column: &ColumnDef) -> Value {
    if column.nullable && rng.gen_bool(0.15) {
        return Value::Null;
    }
    match column.data_type {
        DataType::Integer => Value::int(rng.gen_range(0..40i64)),
        DataType::Text => Value::text(format!("t{}", rng.gen_range(0..15u8))),
        // Integers are accepted into Float columns and are not the same
        // value as the float that equals them.
        DataType::Float => match rng.gen_range(0..3u8) {
            0 => Value::Integer(rng.gen_range(-3..=3i64)),
            1 => Value::Float(rng.gen_range(-3..=3i64) as f64),
            _ => Value::Float(rng.gen_range(-24..=24i64) as f64 / 8.0),
        },
        DataType::Boolean => Value::Boolean(rng.gen_bool(0.5)),
        DataType::Date => Value::Date(
            Date::new(2000 + rng.gen_range(0..3i32), 6, rng.gen_range(1..=9u8)).unwrap(),
        ),
    }
}

/// The largest integer in column `i`, so that adding more than it to some
/// rows moves them to values no row has (keys stay unique).
fn largest(table: &Table, i: usize) -> i64 {
    let values = table.rows().iter().filter_map(|r| r.get(i)?.as_i64());
    values.max().unwrap_or(0).max(0)
}

/// One random write to `name`; returns what it was, for failure messages.
fn random_write(db: &mut Database, name: &str, rng: &mut StdRng) -> String {
    let schema = db.table(name).unwrap().schema().clone();
    let pk = schema.primary_key_indices();
    let int_of = |r: &Row, i: usize| r.get(i).and_then(Value::as_i64).unwrap_or(0);
    match rng.gen_range(0..12u8) {
        0..=5 => {
            // Up to six rows between two looks at the statistics. A single
            // key column counts up; composite keys collide now and then,
            // and a rejected insert must leave everything as it was.
            let rows = rng.gen_range(1..=6usize);
            let mut rejected = 0;
            for _ in 0..rows {
                let mut values: Vec<Value> = schema
                    .columns
                    .iter()
                    .map(|c| random_value(rng, c))
                    .collect();
                if let [key] = pk[..] {
                    values[key] = Value::int(largest(db.table(name).unwrap(), key) + 1);
                }
                rejected += usize::from(db.insert_unchecked(name, values).is_err());
            }
            format!("insert {rows} rows ({rejected} rejected)")
        }
        6 => {
            // All copies of the current minimum or maximum of one column.
            let i = rng.gen_range(0..schema.columns.len());
            let stats = db.table_stats(name).unwrap();
            let column = stats.column(&schema.columns[i].name).unwrap();
            let extreme = if rng.gen_bool(0.5) {
                column.min.clone()
            } else {
                column.max.clone()
            };
            let removed = db
                .table_mut(name)
                .unwrap()
                .delete_where(|r| r.get(i) == extreme.as_ref());
            format!("delete {removed} rows at an extreme of column {i}")
        }
        7 => {
            let (i, k) = (
                rng.gen_range(0..schema.columns.len()),
                rng.gen_range(2..=4i64),
            );
            let removed = db
                .table_mut(name)
                .unwrap()
                .delete_where(|r| int_of(r, i) % k == 1);
            format!("delete {removed} rows from the middle")
        }
        8 => {
            // The tail — or, now and then, everything.
            let keep = if rng.gen_bool(0.25) {
                0
            } else {
                db.table(name).unwrap().len().saturating_sub(3)
            };
            let first = db.table(name).unwrap().row(keep).cloned();
            let table = db.table_mut(name).unwrap();
            let seen = std::cell::Cell::new(false);
            let removed = table.delete_where(|r| {
                seen.set(seen.get() || Some(r) == first.as_ref());
                seen.get()
            });
            format!("delete the last {removed} rows")
        }
        9 | 10 => {
            // New values in the columns that are not the key.
            let replacement: Vec<Value> = schema
                .columns
                .iter()
                .map(|c| random_value(rng, c))
                .collect();
            let k = rng.gen_range(2..=4i64);
            let touched = db.table_mut(name).unwrap().update_where(
                |r| int_of(r, 0) % k == 0,
                |r| {
                    for i in (0..replacement.len()).filter(|i| !pk.contains(i)) {
                        *r.get_mut(i).unwrap() = replacement[i].clone();
                    }
                },
            );
            format!("update {} rows", touched.unwrap())
        }
        _ => {
            // A key column moves, for a third of the rows: to values no row
            // has, or now and then onto the whole key of one row, which is
            // refused (and changes nothing) unless that row is the one moving.
            let Some(&key) = pk.first() else {
                return "no key to update".into();
            };
            let moving = |r: &Row| int_of(r, key) % 3 == 0;
            let key_of =
                |r: &Row| -> Vec<Value> { pk.iter().map(|&i| r.values()[i].clone()).collect() };
            let table = db.table(name).unwrap();
            if !table.is_empty() && rng.gen_bool(0.3) {
                let target = key_of(&table.rows()[rng.gen_range(0..table.len())]);
                let movers: Vec<Row> = table.rows().iter().filter(|r| moving(r)).cloned().collect();
                let refused = movers.len() > 1 || movers.iter().any(|r| key_of(r) != target);
                let before = table.rows().to_vec();
                let outcome = db.table_mut(name).unwrap().update_where(moving, |r| {
                    for (&i, value) in pk.iter().zip(&target) {
                        *r.get_mut(i).unwrap() = value.clone();
                    }
                });
                let write = format!("move the key of {} rows onto {target:?}", movers.len());
                match outcome {
                    Err(StoreError::DuplicateKey { .. }) if refused => {
                        assert_eq!(db.table(name).unwrap().rows(), &before[..], "{write}");
                    }
                    Ok(touched) if !refused => assert_eq!(touched, movers.len(), "{write}"),
                    other => panic!("{write}: refused is {refused}, got {other:?}"),
                }
                return write;
            }
            let offset = largest(table, key) + 1;
            let touched = db.table_mut(name).unwrap().update_where(moving, |r| {
                *r.get_mut(key).unwrap() = Value::int(int_of(r, key) + offset)
            });
            format!("update the key of {} rows", touched.unwrap())
        }
    }
}

fn movie_schema_database() -> Database {
    let mut db = movie_database();
    db.create_table(
        TableSchema::new(
            "RATINGS",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("mid", DataType::Integer),
                ColumnDef::nullable("score", DataType::Float),
                ColumnDef::nullable("seen", DataType::Date),
                ColumnDef::nullable("liked", DataType::Boolean),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    let index = |name: &str, table: &str, columns: &[&str], kind| IndexDef {
        name: name.into(),
        table: table.into(),
        columns: columns.iter().map(|c| c.to_string()).collect(),
        kind,
    };
    for def in [
        index("o_year", "MOVIES", &["year"], IndexKind::Ordered),
        index("h_title", "MOVIES", &["title"], IndexKind::Hash),
        index("o_role_mid", "CAST", &["role", "mid"], IndexKind::Ordered),
        index("o_aid", "CAST", &["aid"], IndexKind::Ordered),
        index("h_mid_genre", "GENRE", &["mid", "genre"], IndexKind::Hash),
        index("o_score", "RATINGS", &["score"], IndexKind::Ordered),
        index("h_score", "RATINGS", &["score"], IndexKind::Hash),
        index(
            "o_seen_score",
            "RATINGS",
            &["seen", "score"],
            IndexKind::Ordered,
        ),
        index("o_liked", "RATINGS", &["liked"], IndexKind::Ordered),
    ] {
        db.create_index(def).unwrap();
    }
    db
}

fn employee_schema_database() -> Database {
    let mut db = employee_database();
    for (name, table, columns, kind) in [
        ("o_sal", "EMP", &["sal"][..], IndexKind::Ordered),
        ("h_did", "EMP", &["did"][..], IndexKind::Hash),
        ("o_did_age", "EMP", &["did", "age"][..], IndexKind::Ordered),
        ("o_mgr", "DEPT", &["mgr"][..], IndexKind::Ordered),
    ] {
        db.create_index(IndexDef {
            name: name.into(),
            table: table.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            kind,
        })
        .unwrap();
    }
    db
}

fn run_differential(mut db: Database, tables: &[&str], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for name in tables {
        assert_table_matches_rows(&db, name, &mut rng, &format!("seed {seed}, at the start"));
    }
    for step in 0..STEPS {
        let name = tables[rng.gen_range(0..tables.len())];
        let write = random_write(&mut db, name, &mut rng);
        let context = format!("seed {seed}, step {step} ({write})");
        assert_table_matches_rows(&db, name, &mut rng, &context);
    }
}

#[test]
fn movie_schema_statistics_and_indexes_equal_a_rebuild_after_every_write() {
    let tables = ["MOVIES", "CAST", "GENRE", "ACTOR", "DIRECTOR", "RATINGS"];
    for seed in seeds() {
        run_differential(movie_schema_database(), &tables, seed);
    }
}

#[test]
fn employee_schema_statistics_and_indexes_equal_a_rebuild_after_every_write() {
    for seed in seeds() {
        run_differential(employee_schema_database(), &["EMP", "DEPT"], seed);
    }
}

/// `churn`'s pattern on an Integer key: appends of the next id, each read
/// back, then the largest ids deleted one by one, then the smallest. None of
/// it walks a column's distinct values (`stats_columns_rederived` stays
/// put): an append lands past the largest value, and a deleted extreme is a
/// tombstone that a snapshot looks past. A new value inside the range is staged and merged
/// once, by the next snapshot; NULLs touch no summary; a Float in an Integer
/// column makes its counts the general map. The statistics equal the
/// oracle's after every step.
#[test]
fn appends_and_deleted_maxima_walk_no_column_and_staged_values_merge_once() {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "SEQ",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::nullable("n", DataType::Integer),
                ColumnDef::nullable("x", DataType::Integer),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    let rederived = |db: &Database| db.obs().counter(Counter::StatsColumnsRederived);
    let check = |db: &Database, context: &str| {
        let stats = db.table_stats("SEQ").unwrap();
        assert_stats_match_rows(&stats, db.table("SEQ").unwrap(), context);
    };
    let row = |id: i64, n: Value| vec![Value::int(id), n, Value::int(id * 2)];
    // Ids 0, 10, …, 100 in order; `n` out of order, merged at the first look.
    for id in (0..=100).step_by(10) {
        db.insert("SEQ", row(id, Value::int(id % 7))).unwrap();
    }
    check(&db, "loaded");
    let loaded = rederived(&db);
    for id in 101..=160 {
        db.insert("SEQ", row(id, Value::int(id % 7))).unwrap();
        check(&db, &format!("appended {id}"));
    }
    assert_eq!(rederived(&db), loaded, "appends walk no column");
    for id in (131..=160).rev() {
        let table = db.table_mut("SEQ").unwrap();
        assert_eq!(table.delete_where(|r| r.get(0) == Some(&Value::int(id))), 1);
        check(&db, &format!("deleted the maximum {id}"));
    }
    assert_eq!(rederived(&db), loaded, "deleted maxima walk no column");
    for id in [0, 10, 20, 30] {
        let table = db.table_mut("SEQ").unwrap();
        assert_eq!(table.delete_where(|r| r.get(0) == Some(&Value::int(id))), 1);
        check(&db, &format!("deleted the minimum {id}"));
    }
    assert_eq!(rederived(&db), loaded, "deleted minima walk no column");
    // New ids and `x` values inside their ranges: two columns stage, and
    // one snapshot merges each once.
    for id in [45, 55, 65] {
        db.insert("SEQ", row(id, Value::int(3))).unwrap();
    }
    check(&db, "staged inside the range");
    assert_eq!(rederived(&db), loaded + 2, "id and x merged, once each");
    check(&db, "looked at again");
    assert_eq!(rederived(&db), loaded + 2, "nothing left to merge");
    for id in [200, 201] {
        db.insert("SEQ", row(id, Value::Null)).unwrap();
        check(&db, &format!("NULL in row {id}"));
    }
    let table = db.table_mut("SEQ").unwrap();
    table.delete_where(|r| r.get(1) == Some(&Value::Null));
    check(&db, "NULLs deleted");
    assert_eq!(rederived(&db), loaded + 2, "NULLs walk no column");
    // A Float past the maximum of the Integer column `x`: its counts become
    // the general map, which derives the new shape by walking them.
    let table = db.table_mut("SEQ").unwrap();
    table
        .update_where(
            |r| r.get(0) == Some(&Value::int(40)),
            |r| *r.get_mut(2).unwrap() = Value::Float(1000.5),
        )
        .unwrap();
    check(&db, "a Float in an Integer column");
    assert_eq!(
        rederived(&db),
        loaded + 3,
        "x re-derived from its general map"
    );
    db.insert("SEQ", row(300, Value::int(1))).unwrap();
    check(&db, "appended after");
}

// ---------------------------------------------------------------------------
// The bulk build against the index grown row by row
// ---------------------------------------------------------------------------

/// A key value for [`a_bulk_built_index_is_the_index_grown_row_by_row`]:
/// NULL, few distinct values (so keys repeat), `3` beside `3.0` and `0.0`
/// beside `-0.0` in the Float column, text in the Text ones (shared
/// prefixes in the second), and the extremes of `i64` among negatives in
/// the fifth column. The last column is Integer; some of its `3`s and `7`s
/// are later made `3.0` and `7.5`.
fn build_key_value(rng: &mut StdRng, column: usize) -> Value {
    if rng.gen_bool(0.15) {
        return Value::Null;
    }
    const X: [Value; 8] = [
        Value::Integer(3),
        Value::Float(3.0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Integer(0),
        Value::Float(1.5),
        Value::Integer(-2),
        Value::Integer(7),
    ];
    const WIDE: [i64; 7] = [i64::MIN, i64::MAX, -5, -1, 0, 1, i64::MIN + 1];
    let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n);
    match column {
        0 => X[pick(rng, X.len())].clone(),
        1 => Value::text(["", "a", "b", "Troy", "troy", "zz"][pick(rng, 6)]),
        2 => Value::int(rng.gen_range(0..12)),
        3 => Value::text(["", "a", "ab", "abc", "abd", "ab ", "b"][pick(rng, 7)]),
        4 => Value::int(WIDE[pick(rng, WIDE.len())]),
        _ => Value::int([0, 3, 7][pick(rng, 3)]),
    }
}

/// Every index kind over one-column Integer keys, one-column Text keys (the
/// two a bulk build sorts with a typed comparator), an Integer column that
/// holds `3.0` beside `3` (which must not take the Integer one), a Float
/// column, and composite keys, NULL leads everywhere.
#[test]
fn a_bulk_built_index_is_the_index_grown_row_by_row() {
    let schema = TableSchema::new(
        "KEYS",
        vec![
            ColumnDef::nullable("x", DataType::Float),
            ColumnDef::nullable("t", DataType::Text),
            ColumnDef::nullable("n", DataType::Integer),
            ColumnDef::nullable("w", DataType::Text),
            ColumnDef::nullable("i", DataType::Integer),
            ColumnDef::nullable("m", DataType::Integer),
        ],
    );
    let mut seeds = vec![0x0036_0001, 0x0036_0002, 0x0036_0003];
    if let Ok(extra) = std::env::var("INDEX_BUILD_SEED") {
        seeds.push(extra.parse().expect("INDEX_BUILD_SEED is a u64"));
    }
    let columns: [&[&str]; 10] = [
        &["x"],
        &["t"],
        &["n"],
        &["w"],
        &["i"],
        &["m"],
        &["x", "t"],
        &["t", "x"],
        &["n", "x"],
        &["i", "w"],
    ];
    // Both orders of each two-spelling pair, ahead of the random rows.
    let pairs = [
        [Value::Integer(3), Value::Float(3.0)],
        [Value::Float(0.0), Value::Float(-0.0)],
    ];
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        for reversed in [false, true] {
            let context = format!("seed {seed}, pairs reversed: {reversed}");
            let mut grown = Table::new(schema.clone());
            for (i, columns) in columns.iter().enumerate() {
                for kind in [IndexKind::Ordered, IndexKind::Hash] {
                    grown
                        .create_index(IndexDef {
                            name: format!("{}{i}", kind.sql()),
                            table: "KEYS".into(),
                            columns: columns.iter().map(|c| c.to_string()).collect(),
                            kind,
                        })
                        .unwrap();
                }
            }
            let mut spellings = pairs.clone();
            if reversed {
                spellings.iter_mut().for_each(|pair| pair.swap(0, 1));
            }
            for (n, x) in spellings.into_iter().flatten().enumerate() {
                let mut row: Vec<Value> = (0..6).map(|c| build_key_value(&mut rng, c)).collect();
                (row[0], row[2], row[5]) = (x, Value::int(n as i64), Value::int(3));
                grown.insert(Row::new(row)).unwrap();
            }
            for _ in 0..rng.gen_range(0..160) {
                let row = (0..6).map(|c| build_key_value(&mut rng, c)).collect();
                grown.insert(Row::new(row)).unwrap();
            }
            // Every other `3` of the Integer column `m` becomes `3.0`, and
            // every other `7` a `7.5`, which only an unchecked update can
            // store.
            let parity = i64::from(reversed);
            grown
                .update_where(
                    |r| {
                        matches!(r.get(5), Some(Value::Integer(3 | 7)))
                            && r.get(2).and_then(Value::as_i64).unwrap_or(0) % 2 == parity
                    },
                    |r| {
                        let m = r.get_mut(5).unwrap();
                        *m = Value::Float(if *m == Value::Integer(3) { 3.0 } else { 7.5 });
                    },
                )
                .unwrap();
            for index in grown.indexes() {
                assert_index_matches_rows(index, grown.rows(), &mut rng, &context);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots, the cached statistics, and what the planner makes of them
// ---------------------------------------------------------------------------

/// A reader's `table_arc` is copy-on-write: rows, index answers and
/// statistics of the held table stay as they were while the writer's move on.
#[test]
fn a_held_table_keeps_its_rows_indexes_and_statistics_while_the_writer_mutates() {
    let mut db = movie_schema_database();
    let mut rng = StdRng::seed_from_u64(0x0015_00C0);
    let held = db.table_arc("MOVIES").unwrap();
    let before = (
        held.rows().to_vec(),
        TableStats::collect(&held),
        held.index("o_year")
            .unwrap()
            .probe_point(&Value::int(2005))
            .to_vec(),
    );
    // Between writes the cached statistics are one allocation; a write makes
    // the next read a new one.
    let cached = db.table_stats("MOVIES").unwrap();
    assert!(Arc::ptr_eq(&cached, &db.table_stats("MOVIES").unwrap()));
    db.insert(
        "MOVIES",
        vec![Value::int(900), Value::text("Late Entry"), Value::int(2005)],
    )
    .unwrap();
    assert!(!Arc::ptr_eq(&cached, &db.table_stats("MOVIES").unwrap()));
    db.table_mut("MOVIES")
        .unwrap()
        .update_where(|_| true, |r| *r.get_mut(2).unwrap() = Value::int(1900))
        .unwrap();
    db.table_mut("MOVIES")
        .unwrap()
        .delete_where(|r| r.get(0) == Some(&Value::int(1)));

    assert_eq!(held.rows(), &before.0[..]);
    assert_eq!(TableStats::collect(&held), before.1);
    assert_eq!(
        held.index("o_year").unwrap().probe_point(&Value::int(2005)),
        &before.2[..]
    );
    assert_stats_match_rows(&TableStats::collect(&held), &held, "the held table");
    assert_ne!(db.table_stats("MOVIES").unwrap().as_ref(), &before.1);
    assert_table_matches_rows(&db, "MOVIES", &mut rng, "the writer's table");
}

/// Rows are shared, not copied: an answer holds the table's own rows. A
/// write after the answer was taken must not show through it — an update
/// copies the row it changes first — and the table must show the write.
#[test]
fn an_answer_taken_before_a_write_keeps_what_it_read() {
    let mut system = Talkback::new(movie_database());
    let all = "select m.id, m.title, m.year from MOVIES m";
    let before = system.run_query(all).unwrap();
    let joined = "select m.title, c.role from MOVIES m, CAST c where m.id = c.mid";
    let joined_before = system.run_query(joined).unwrap();
    let snapshot: Vec<Vec<Value>> = before.rows.iter().map(|r| r.values().to_vec()).collect();
    let joined_snapshot: Vec<String> = joined_before.rows.iter().map(Row::to_string).collect();
    // The identity projection handed on the stored rows themselves.
    let stored = system.database().table("MOVIES").unwrap().rows();
    assert!(std::ptr::eq(before.rows[0].values(), stored[0].values()));

    let db = system.database_mut();
    db.table_mut("MOVIES")
        .unwrap()
        .update_where(|_| true, |r| *r.get_mut(2).unwrap() = Value::int(1900))
        .unwrap();
    db.table_mut("MOVIES")
        .unwrap()
        .update_where(
            |r| r.get(0) == Some(&Value::int(2)),
            |r| *r.get_mut(1).unwrap() = Value::text("Renamed"),
        )
        .unwrap();
    for table in ["CAST", "GENRE", "DIRECTED", "MOVIES"] {
        db.table_mut(table)
            .unwrap()
            .delete_where(|r| r.get(0) == Some(&Value::int(1)));
    }
    db.insert(
        "MOVIES",
        vec![Value::int(900), Value::text("Late Entry"), Value::int(2005)],
    )
    .unwrap();

    for (row, values) in before.rows.iter().zip(&snapshot) {
        assert_eq!(row.values(), &values[..], "the earlier answer changed");
    }
    let joined_now: Vec<String> = joined_before.rows.iter().map(Row::to_string).collect();
    assert_eq!(joined_now, joined_snapshot);
    let after = system.run_query(all).unwrap();
    assert_eq!(after.len(), before.len());
    assert!(after.rows.iter().all(|r| r.get(0) != Some(&Value::int(1))));
    for row in &after.rows {
        let year = if row.get(0) == Some(&Value::int(900)) {
            2005
        } else {
            1900
        };
        assert_eq!(row.get(2), Some(&Value::int(year)), "{row}");
    }
    let renamed = system.run_query("select m.title from MOVIES m where m.id = 2");
    assert_eq!(
        renamed.unwrap().rows,
        [Row::new(vec![Value::text("Renamed")])]
    );
    let mut rng = StdRng::seed_from_u64(0x0022_00E0);
    for table in ["MOVIES", "CAST", "GENRE"] {
        assert_table_matches_rows(system.database(), table, &mut rng, "after the writes");
    }
}

/// A database grown write by write, its statistics read along the way,
/// explains a query exactly as one loaded in one go with the rows it ended
/// up with: same estimates, same plan.
#[test]
fn a_grown_database_plans_like_one_built_with_the_same_rows() {
    let mut grown = movie_database();
    let mut rng = StdRng::seed_from_u64(0x0015_00E0);
    let actors = grown.table("ACTOR").unwrap().column_values("id");
    for id in 100..160i64 {
        grown
            .insert(
                "MOVIES",
                vec![
                    Value::int(id),
                    Value::text(format!("Sequel {}", id % 7)),
                    Value::int(1990 + rng.gen_range(0..40i64)),
                ],
            )
            .unwrap();
        for pick in [id as usize, id as usize + 1] {
            let aid = actors[pick % actors.len()].clone();
            let role = Value::text(format!("Part {aid}"));
            grown
                .insert("CAST", vec![Value::int(id), aid, role])
                .unwrap();
        }
        grown.analyze();
        if id % 9 == 0 {
            let gone = id - 5;
            for table in ["CAST", "MOVIES"] {
                grown
                    .table_mut(table)
                    .unwrap()
                    .delete_where(|r| r.get(0) == Some(&Value::int(gone)));
            }
        }
    }
    let mut built = datastore::sample::movie_catalog();
    for table in grown.tables() {
        for row in table.rows() {
            built
                .insert_unchecked(table.name(), row.values().to_vec())
                .unwrap();
        }
    }
    let (grown, built) = (Talkback::new(grown), Talkback::new(built));
    for sql in [
        "explain select m.title from MOVIES m where m.year >= 2010",
        "explain select m.title from MOVIES m where m.id = 120",
        "explain select m.title, c.role from MOVIES m, CAST c \
         where m.id = c.mid and m.year < 2000 and c.aid <= 3",
        "explain select a.name, m.title from ACTOR a, CAST c, MOVIES m \
         where a.id = c.aid and c.mid = m.id and m.title = 'Sequel 3'",
        "explain select m.year, count(*) from MOVIES m, GENRE g \
         where m.id = g.mid group by m.year",
    ] {
        let (a, b) = (
            grown.explain_plan(sql).unwrap(),
            built.explain_plan(sql).unwrap(),
        );
        assert_eq!(a.tree, b.tree, "{sql}");
        assert_eq!(a.narration, b.narration, "{sql}");
    }
}
