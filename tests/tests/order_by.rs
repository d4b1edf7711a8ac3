//! The `ORDER BY` differential: a `LIMIT k` over a sort keeps a bounded top-k
//! instead of sorting everything, and that must never change an answer — not
//! a row, not the order of two rows with equal keys.
//!
//! Seeded statements over the movie schema (2 100 movies: `year` is full of
//! ties, `genre` is eight strings over 4 200 rows), a NULL-heavy EMP/DEPT and
//! a table of numbers (a FLOAT column of NaN, `±0.0`, infinities, Floats,
//! Integers and NULL; one of Floats and NULL only; an INTEGER column holding
//! `i64::MIN` and `i64::MAX`): one to three keys, ASC and DESC mixed, under a
//! filter, a join and an aggregate. Three things are held, rows compared
//! **in order**:
//!
//! * *the sort is the stable sort written here.* Under the default options
//!   on one thread and on four, and under the reference options, the sorted
//!   statement returns the same statement's unsorted answer sorted by this
//!   file's own comparator ([`order`]: NULL first, numbers by value with
//!   `-0.0 = 0.0` and NaN after every number, Text by bytes, DESC reversed),
//!   ties in the order the unsorted answer has them. The engine's sort reads
//!   its keys into words; this comparator shares no code with it.
//! * *top-k ≡ stable sort + truncate.* Under the default options on one
//!   thread and on four (threshold 0, so the sort really becomes a top-k
//!   exchange), the statement with `LIMIT k` returns the first `k` rows of
//!   the same statement without it, for `k` around nothing, one, a batch
//!   (1 023, 1 024, 1 025) and the whole answer (`n`, `n + 1`).
//! * *the sort is the reference engine's sort.* The unlimited statement
//!   returns the naive reference engine's rows in the reference engine's
//!   order: no index, no vector kernel, no plan cache, one thread. (A join
//!   may be executed in another order there, so its keys are made total
//!   first; everywhere else ties are compared as they fall.)
//!
//! The seeds are fixed; `ORDERBY_SEED=<u64>` adds one more (CI passes the
//! clock), and every failure names its seed and statement.

use datastore::sample::{employee_database, scaled_movie_database, ScaleConfig};
use datastore::{ColumnDef, DataType, Database, Row, TableSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use talkback::{PlannerOptions, Talkback};

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0x0022_0001, 0x0022_0002];
    if let Ok(extra) = std::env::var("ORDERBY_SEED") {
        seeds.push(extra.parse().expect("ORDERBY_SEED is a u64"));
    }
    seeds
}

/// The engine every order is held against.
fn reference() -> PlannerOptions {
    PlannerOptions {
        decorrelate_subqueries: false,
        use_indexes: false,
        use_vectorized: false,
        use_plan_cache: false,
        use_feedback: false,
        parallelism: 1,
        ..PlannerOptions::default()
    }
}

fn subjects() -> [PlannerOptions; 2] {
    [
        PlannerOptions::sequential(),
        PlannerOptions {
            parallelism: 4,
            parallel_row_threshold: 0.0,
            ..PlannerOptions::default()
        },
    ]
}

/// One statement without its `ORDER BY`: what it projects, what it reads,
/// the projected columns a key may be drawn from, and — for a join — the
/// projected columns that tell any two of its rows apart.
struct Shape {
    projection: &'static str,
    body: String,
    group_by: &'static str,
    keys: &'static [&'static str],
    unique: &'static [&'static str],
}

fn movie_database() -> Database {
    scaled_movie_database(ScaleConfig {
        movies: 2100,
        directors: 40,
        actors: 300,
        ..ScaleConfig::default()
    })
}

fn movie_shapes(rng: &mut StdRng) -> Vec<Shape> {
    let year = rng.gen_range(1961..=2020);
    let id = rng.gen_range(1100..=2100);
    vec![
        Shape {
            projection: "m.id, m.title, m.year",
            body: "MOVIES m".into(),
            group_by: "",
            keys: &["m.year", "m.year", "m.title"],
            unique: &[],
        },
        Shape {
            projection: "m.id, m.title, m.year",
            body: format!("MOVIES m where m.year >= {year}"),
            group_by: "",
            keys: &["m.year", "m.title", "m.id"],
            unique: &[],
        },
        Shape {
            projection: "m.title, m.year",
            body: format!("MOVIES m where m.id <= {id}"),
            group_by: "",
            keys: &["m.year"],
            unique: &[],
        },
        Shape {
            projection: "g.mid, g.genre",
            body: "GENRE g".into(),
            group_by: "",
            keys: &["g.genre", "g.genre", "g.mid"],
            unique: &[],
        },
        Shape {
            projection: "m.id, m.year, c.aid, c.role",
            body: format!("MOVIES m, CAST c where m.id = c.mid and m.year <= {year}"),
            group_by: "",
            keys: &["m.year", "c.aid", "c.role"],
            unique: &["m.id", "c.aid"],
        },
        Shape {
            projection: "g.genre, g.mid, count(*)",
            body: "GENRE g".into(),
            group_by: " group by g.genre, g.mid",
            keys: &["g.genre", "g.mid"],
            unique: &[],
        },
        Shape {
            projection: "m.year, count(*), max(m.id)",
            body: format!("MOVIES m where m.id <= {id}"),
            group_by: " group by m.year",
            keys: &["m.year"],
            unique: &[],
        },
    ]
}

/// EMP/DEPT grown to 60 employees and 9 departments: NULL in two `did`s out
/// of five and every third `mgr`, ages and departments repeating.
fn company_database(seed: u64) -> Database {
    let mut db = employee_database();
    let mut rng = StdRng::seed_from_u64(seed);
    for did in [40, 50, 60, 70, 80, 90] {
        let mgr = match did % 30 {
            0 => Value::Null,
            // One of the fixture's six: the foreign key is enforced.
            _ => Value::int(rng.gen_range(1..=6)),
        };
        let row = vec![Value::int(did), Value::text(format!("Dept {did}")), mgr];
        db.insert("DEPT", row).unwrap();
    }
    for eid in 7..=60 {
        let did = match rng.gen_range(0..5) {
            0 | 1 => Value::Null,
            _ => Value::int(10 * rng.gen_range(1..=9i64)),
        };
        let row = vec![
            Value::int(eid),
            Value::text(format!("Emp {}", eid % 17)),
            Value::int(1_000 * rng.gen_range(50..=60i64)),
            Value::int(rng.gen_range(25..=40)),
            did,
        ];
        db.insert("EMP", row).unwrap();
    }
    db
}

fn company_shapes(rng: &mut StdRng) -> Vec<Shape> {
    let age = rng.gen_range(26..=36);
    vec![
        Shape {
            projection: "e.eid, e.name, e.age, e.did",
            body: "EMP e".into(),
            group_by: "",
            keys: &["e.did", "e.age", "e.name"],
            unique: &[],
        },
        Shape {
            projection: "e.name, e.did, e.sal",
            body: format!("EMP e where e.age >= {age}"),
            group_by: "",
            keys: &["e.did", "e.did", "e.name"],
            unique: &[],
        },
        Shape {
            projection: "e.eid, e.age, e.did, d.mgr, d.dname",
            body: "EMP e, DEPT d where e.did = d.did".into(),
            group_by: "",
            keys: &["d.mgr", "e.age", "d.dname"],
            unique: &["e.eid"],
        },
        Shape {
            projection: "e.did, e.age, count(*)",
            body: "EMP e".into(),
            group_by: " group by e.did, e.age",
            keys: &["e.did", "e.age"],
            unique: &[],
        },
    ]
}

/// N(id, f, g, i): `f` a FLOAT column of NaN, `±0.0`, infinities, Floats,
/// Integers and NULL; `g` the same without Integers; `i` an INTEGER column
/// with `i64::MIN` and `i64::MAX` among a few small values and NULL. 2 500
/// rows, so an answer spans batches.
fn number_database(seed: u64) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "N",
        vec![
            ColumnDef::new("id", DataType::Integer),
            ColumnDef::nullable("f", DataType::Float),
            ColumnDef::nullable("g", DataType::Float),
            ColumnDef::nullable("i", DataType::Integer),
        ],
    ))
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let floats = [
        f64::NAN,
        -0.0,
        0.0,
        1.5,
        -2.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for id in 0..2500 {
        let mut float = |integers: bool| match rng.gen_range(0..10) {
            0 => Value::Null,
            1 | 2 if integers => Value::int(rng.gen_range(-2..3)),
            v => Value::Float(floats[v % floats.len()]),
        };
        let (f, g) = (float(true), float(false));
        let i = match rng.gen_range(0..6) {
            0 => Value::Null,
            1 => Value::int(i64::MIN),
            2 => Value::int(i64::MAX),
            _ => Value::int(rng.gen_range(-3..3)),
        };
        db.insert("N", vec![Value::int(id), f, g, i]).unwrap();
    }
    db
}

fn number_shapes(rng: &mut StdRng) -> Vec<Shape> {
    let id = rng.gen_range(100..2400);
    vec![
        Shape {
            projection: "n.id, n.f, n.g, n.i",
            body: "N n".into(),
            group_by: "",
            keys: &["n.f", "n.g", "n.i"],
            unique: &[],
        },
        Shape {
            projection: "n.f, n.g, n.i",
            body: format!("N n where n.id <= {id}"),
            group_by: "",
            keys: &["n.g", "n.i", "n.f"],
            unique: &[],
        },
        Shape {
            projection: "n.i, n.g, count(*)",
            body: "N n".into(),
            group_by: " group by n.i, n.g",
            keys: &["n.i", "n.g"],
            unique: &[],
        },
    ]
}

/// One to three keys of the shape, each ascending or descending.
fn order_by(rng: &mut StdRng, shape: &Shape) -> Vec<String> {
    let mut keys: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let column = shape.keys[rng.gen_range(0..shape.keys.len())];
        if keys.iter().all(|k| !k.starts_with(column)) {
            let direction = if rng.gen_bool(0.5) { "" } else { " desc" };
            keys.push(format!("{column}{direction}"));
        }
    }
    keys
}

fn rows(system: &Talkback, sql: &str, options: PlannerOptions, seed: u64) -> Vec<Row> {
    system
        .run_query_with(sql, options)
        .unwrap_or_else(|e| panic!("seed {seed}: {sql}\nfailed under {options:?}: {e}"))
        .rows
}

/// The order of two values, written apart from the engine's: NULL first,
/// numbers by value (`-0.0 = 0.0`, two Integers exactly, a NaN after every
/// number and equal to a NaN), Text by its bytes.
fn order(a: &Value, b: &Value) -> Ordering {
    let number = |v: &Value| match v {
        Value::Integer(i) => Some((*i, *i as f64)),
        Value::Float(f) => Some((0, *f)),
        _ => None,
    };
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Less,
        (_, Value::Null) => Ordering::Greater,
        (Value::Integer(x), Value::Integer(y)) => x.cmp(y),
        (Value::Text(x), Value::Text(y)) => x.as_bytes().cmp(y.as_bytes()),
        _ => {
            let ((_, x), (_, y)) = (number(a).expect("a number"), number(b).expect("a number"));
            match (x.is_nan(), y.is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => x.partial_cmp(&y).expect("numbers"),
            }
        }
    }
}

/// `rows` stably sorted by `keys` (projected position, ascending) with
/// [`order`].
fn stably_sorted(mut rows: Vec<Row>, keys: &[(usize, bool)]) -> Vec<Row> {
    rows.sort_by(|a, b| {
        (keys.iter())
            .map(|&(at, ascending)| {
                let ord = order(&a.values()[at], &b.values()[at]);
                if ascending {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// Rows as their values are spelled (`1` is not `1.0`, `-0.0` is not
/// `0.0`, a NaN is itself).
fn spelled(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{:?}", r.values())).collect()
}

/// Where two answers first differ, for the failure message.
fn first_difference(got: &[Row], expected: &[Row]) -> String {
    match got.iter().zip(expected).position(|(g, e)| g != e) {
        Some(at) => format!("row {at}: {} where {} belongs", got[at], expected[at]),
        None => format!("{} rows where {} belong", got.len(), expected.len()),
    }
}

/// Every shape twice per seed. Returns how many statements ran, how many of
/// them ordered rows with equal keys, and the largest answer.
fn differential(seed: u64, db: Database, shapes: fn(&mut StdRng) -> Vec<Shape>) -> [usize; 3] {
    let system = Talkback::new(db);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut ran, mut tied, mut largest) = (0, 0, 0);
    for _ in 0..2 {
        for shape in shapes(&mut rng) {
            let keys = order_by(&mut rng, &shape);
            let unsorted = format!(
                "select {} from {}{}",
                shape.projection, shape.body, shape.group_by
            );
            let statement = |keys: &[String]| format!("{unsorted} order by {}", keys.join(", "));
            // The sort is the stable sort written here, and the reference
            // engine's sort.
            let mut total = keys.clone();
            total.extend(shape.unique.iter().map(|c| c.to_string()));
            let sql = statement(&total);
            let positions: Vec<(usize, bool)> = (total.iter())
                .map(|k| {
                    let column = k.trim_end_matches(" desc");
                    let at = shape.projection.split(", ").position(|c| c == column);
                    (at.expect("keys are projected"), column.len() == k.len())
                })
                .collect();
            for options in subjects().into_iter().chain([reference()]) {
                let got = rows(&system, &sql, options, seed);
                let oracle = stably_sorted(rows(&system, &unsorted, options, seed), &positions);
                assert!(
                    spelled(&got) == spelled(&oracle),
                    "seed {seed}: {sql}\nunder {options:?} against the stable sort: {}",
                    first_difference(&got, &oracle)
                );
            }
            let expected = rows(&system, &sql, reference(), seed);
            for options in subjects() {
                let got = rows(&system, &sql, options, seed);
                assert!(
                    got == expected,
                    "seed {seed}: {sql}\nunder {options:?} against the reference: {}",
                    first_difference(&got, &expected)
                );
            }
            // Top-k is that sort, truncated — ties as they fall.
            let sql = statement(&keys);
            let n = expected.len();
            for options in subjects() {
                let whole = rows(&system, &sql, options, seed);
                assert_eq!(whole.len(), n, "seed {seed}: {sql}");
                for k in [0, 1, 15, 1023, 1024, 1025, n, n + 1] {
                    let limited = format!("{sql} limit {k}");
                    let got = rows(&system, &limited, options, seed);
                    let expected = &whole[..k.min(n)];
                    assert!(
                        got == expected,
                        "seed {seed}: {limited}\nunder {options:?} against sort + truncate: {}",
                        first_difference(&got, expected)
                    );
                    ran += 1;
                }
            }
            let whole = rows(&system, &sql, reference(), seed);
            let sorted_on: Vec<usize> = keys
                .iter()
                .map(|k| k.trim_end_matches(" desc"))
                .map(|k| shape.projection.split(", ").position(|c| c == k))
                .map(|at| at.expect("keys are projected"))
                .collect();
            let key_of = |row: &Row| row.group_key(&sorted_on);
            tied += usize::from(whole.windows(2).any(|w| key_of(&w[0]) == key_of(&w[1])));
            largest = largest.max(n);
        }
    }
    [ran, tied, largest]
}

#[test]
fn movie_schema_top_k_is_the_stable_sort_truncated() {
    for seed in seeds() {
        let [ran, tied, largest] = differential(seed, movie_database(), movie_shapes);
        assert!(ran >= 200, "seed {seed}: {ran} statements");
        assert!(tied >= 4, "seed {seed}: {tied} orders had ties");
        assert!(largest > 2048, "seed {seed}: largest answer {largest}");
    }
}

#[test]
fn null_heavy_company_schema_top_k_is_the_stable_sort_truncated() {
    for seed in seeds() {
        let [ran, tied, _] = differential(seed, company_database(seed), company_shapes);
        assert!(ran >= 100, "seed {seed}: {ran} statements");
        assert!(tied >= 3, "seed {seed}: {tied} orders had ties");
    }
}

#[test]
fn numbers_sort_by_value_with_nan_last_and_null_first() {
    for seed in seeds() {
        let [ran, tied, _] = differential(seed, number_database(seed), number_shapes);
        assert!(ran >= 90, "seed {seed}: {ran} statements");
        assert!(tied >= 3, "seed {seed}: {tied} orders had ties");
    }
}
