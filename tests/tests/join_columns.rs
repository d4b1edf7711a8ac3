//! The join-columns differential: a join emits only the columns read above
//! it (the planner's last pass sets its output list), and that must never
//! change an answer or the order of its rows.
//!
//! Seeded joins of two to four relations over the movie schema at ×20, with
//! NULL-heavy rows added (actors without a nationality, credits without a
//! role, directors without a birthplace or a birth date), each read through a
//! random column subset:
//!
//! * a projection with repeated and computed columns, sometimes behind a
//!   filter above the join that compares two of its relations;
//! * `GROUP BY` with `count`, `sum`, `min`, `max` and `count(distinct)`, and
//!   `count(*)`, for which the join emits no column at all;
//! * `ORDER BY … LIMIT` and `DISTINCT`;
//! * `IN`, `NOT IN`, `EXISTS` and `NOT EXISTS` whose bodies are the join, and
//!   a scalar subquery over it;
//! * the join as the outer block of a correlated `[NOT] EXISTS` or a
//!   correlated count (a semi-/anti-join, a keyed scalar subquery or an
//!   `Apply` over the narrowed join).
//!
//! Each answer is held, rows in order and values by their spelling, to the
//! same reader run over the join's `select *` answer stored as a table of its
//! own — where there is no join, so nothing is narrowed. That runs under the
//! default options and under the naive reference options. The seeds are fixed;
//! `COLUMNS_SEED=<u64>` adds one more (CI passes the clock), and every failure
//! names its seed and statement.

use datastore::exec::{Plan, PlanNode};
use datastore::sample::{scaled_movie_database, ScaleConfig};
use datastore::{ColumnDef, DataType, Database, Row, TableSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use talkback::{plan_query_with, PlannerOptions, Talkback};

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0x0032_0001, 0x0032_0002];
    if let Ok(extra) = std::env::var("COLUMNS_SEED") {
        seeds.push(extra.parse().expect("COLUMNS_SEED is a u64"));
    }
    seeds
}

fn options() -> [PlannerOptions; 2] {
    [
        PlannerOptions::default(),
        PlannerOptions {
            decorrelate_subqueries: false,
            use_indexes: false,
            use_vectorized: false,
            use_plan_cache: false,
            use_feedback: false,
            ..PlannerOptions::default()
        },
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Text,
    Date,
}

struct Relation {
    table: &'static str,
    alias: &'static str,
    columns: &'static [(&'static str, Kind)],
    /// A conjunct on this relation alone, `#` standing for a drawn number.
    local: &'static str,
}

const RELATIONS: [Relation; 6] = [
    Relation {
        table: "MOVIES",
        alias: "m",
        columns: &[
            ("id", Kind::Int),
            ("title", Kind::Text),
            ("year", Kind::Int),
        ],
        local: "m.year >= 19#",
    },
    Relation {
        table: "CAST",
        alias: "c",
        columns: &[("mid", Kind::Int), ("aid", Kind::Int), ("role", Kind::Text)],
        local: "c.role is null",
    },
    Relation {
        table: "ACTOR",
        alias: "a",
        columns: &[
            ("id", Kind::Int),
            ("name", Kind::Text),
            ("nationality", Kind::Text),
        ],
        local: "a.id <= 1#",
    },
    Relation {
        table: "GENRE",
        alias: "g",
        columns: &[("mid", Kind::Int), ("genre", Kind::Text)],
        local: "g.genre <> 'drama'",
    },
    Relation {
        table: "DIRECTED",
        alias: "r",
        columns: &[("mid", Kind::Int), ("did", Kind::Int)],
        local: "r.did <= #",
    },
    Relation {
        table: "DIRECTOR",
        alias: "d",
        columns: &[
            ("id", Kind::Int),
            ("name", Kind::Text),
            ("blocation", Kind::Text),
            ("bdate", Kind::Date),
        ],
        local: "d.blocation is null",
    },
];

/// The foreign-key edges between [`RELATIONS`], by index.
const EDGES: [(usize, usize, &str); 5] = [
    (0, 1, "m.id = c.mid"),
    (1, 2, "c.aid = a.id"),
    (0, 3, "m.id = g.mid"),
    (0, 4, "m.id = r.mid"),
    (4, 5, "r.did = d.id"),
];

/// One column of a drawn join.
#[derive(Clone, Copy)]
struct Col {
    alias: &'static str,
    name: &'static str,
    kind: Kind,
}

/// How a reader names a column: `m.title` over the join, `t.m_title` over
/// its stored answer.
type Spell<'a> = &'a dyn Fn(Col) -> String;

fn over_join(c: Col) -> String {
    format!("{}.{}", c.alias, c.name)
}

fn over_table(c: Col) -> String {
    format!("t.{}_{}", c.alias, c.name)
}

/// A join of two to four relations: its `FROM` list, its `WHERE` conjuncts,
/// and every column of its relations.
struct Join {
    from: String,
    conjuncts: String,
    columns: Vec<Col>,
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn draw_join(rng: &mut StdRng) -> Join {
    let size = rng.gen_range(2..=4);
    let mut rels = vec![rng.gen_range(0..RELATIONS.len())];
    let mut conjuncts = Vec::new();
    while rels.len() < size {
        let open: Vec<_> = (EDGES.iter())
            .filter(|(a, b, _)| rels.contains(a) != rels.contains(b))
            .collect();
        let &(a, b, edge) = open[rng.gen_range(0..open.len())];
        rels.push(if rels.contains(&a) { b } else { a });
        conjuncts.push(edge.to_string());
    }
    let columns: Vec<Col> = (rels.iter())
        .flat_map(|&r| {
            let rel = &RELATIONS[r];
            (rel.columns.iter()).map(|&(name, kind)| Col {
                alias: rel.alias,
                name,
                kind,
            })
        })
        .collect();
    if rng.gen_bool(0.5) {
        let rel = &RELATIONS[pick(rng, &rels)];
        let n = rng.gen_range(10..=99i64).to_string();
        conjuncts.push(rel.local.replace('#', &n));
    }
    // A filter above the join: two relations' columns compared.
    let ints: Vec<Col> = columns
        .iter()
        .copied()
        .filter(|c| c.kind == Kind::Int)
        .collect();
    let (x, y) = (pick(rng, &ints), pick(rng, &ints));
    if x.alias != y.alias && rng.gen_bool(0.3) {
        let op = pick(rng, &["<", "<>", ">="]);
        conjuncts.push(format!("{} {op} {}", over_join(x), over_join(y)));
    }
    for i in (1..rels.len()).rev() {
        rels.swap(i, rng.gen_range(0..=i));
    }
    for i in (1..conjuncts.len()).rev() {
        conjuncts.swap(i, rng.gen_range(0..=i));
    }
    let from = (rels.iter())
        .map(|&r| format!("{} {}", RELATIONS[r].table, RELATIONS[r].alias))
        .collect::<Vec<_>>()
        .join(", ");
    Join {
        from,
        conjuncts: conjuncts.join(" and "),
        columns,
    }
}

/// What reads the join, rendered over whichever source `spell` names.
enum Reader {
    Project(Vec<Column>),
    /// Group-by columns, and aggregates: a template whose `#` (an integer)
    /// or `@` (any column) is the column beside it.
    Group(Vec<Col>, Vec<(&'static str, Option<Col>)>),
    CountStar,
    TopK(Vec<Col>, Vec<(Col, bool)>, usize),
    Distinct(Vec<Col>),
    In(Col, bool),
    Exists(Col, bool),
    Scalar(&'static str, Col),
    /// The join as the outer block of a correlated subquery on GENRE: `[NOT]
    /// EXISTS`, or a count compared with one (`Some(count)`).
    Outer(Vec<Col>, Col, Option<i64>, bool),
}

/// A projected column: a plain column, or a computed one.
enum Column {
    Plain(Col),
    Plus(Col, i64),
    Times(Col, i64),
}

fn draw_columns(rng: &mut StdRng, join: &Join, max: usize) -> Vec<Col> {
    (0..rng.gen_range(1..=max))
        .map(|_| pick(rng, &join.columns))
        .collect()
}

fn draw_reader(rng: &mut StdRng, join: &Join, kind: usize) -> Reader {
    let ints: Vec<Col> = (join.columns.iter().copied())
        .filter(|c| c.kind == Kind::Int)
        .collect();
    let texts: Vec<Col> = (join.columns.iter().copied())
        .filter(|c| c.kind == Kind::Text)
        .collect();
    match kind {
        0 => {
            let mut columns: Vec<Column> = (draw_columns(rng, join, 4).into_iter())
                .map(Column::Plain)
                .collect();
            // A repeated column, and a computed one.
            if rng.gen_bool(0.5) {
                if let Column::Plain(c) = columns[0] {
                    columns.push(Column::Plain(c));
                }
            }
            match rng.gen_range(0..3) {
                0 => columns.push(Column::Plus(pick(rng, &ints), rng.gen_range(1..9))),
                1 => columns.insert(0, Column::Times(pick(rng, &ints), 2)),
                _ => {}
            }
            Reader::Project(columns)
        }
        1 => {
            let keys = draw_columns(rng, join, 2);
            let mut aggregates = vec![("count(*)", None)];
            for template in [
                "sum(#)",
                "min(@)",
                "max(@)",
                "count(distinct @)",
                "count(@)",
            ] {
                if rng.gen_bool(0.5) {
                    let column = match template.contains('#') {
                        true => pick(rng, &ints),
                        false => pick(rng, &join.columns),
                    };
                    aggregates.push((template, Some(column)));
                }
            }
            Reader::Group(keys, aggregates)
        }
        2 => Reader::CountStar,
        3 => {
            let keys: Vec<(Col, bool)> = (0..rng.gen_range(1..=2))
                .map(|_| (pick(rng, &join.columns), rng.gen_bool(0.7)))
                .collect();
            // A sort key is one of the columns projected.
            let mut columns = draw_columns(rng, join, 2);
            columns.extend(keys.iter().map(|&(c, _)| c));
            Reader::TopK(columns, keys, rng.gen_range(1..=40))
        }
        4 => Reader::Distinct(draw_columns(rng, join, 2)),
        5 => {
            let probe = if rng.gen_bool(0.6) {
                pick(rng, &ints)
            } else {
                pick(rng, &texts)
            };
            Reader::In(probe, rng.gen_bool(0.5))
        }
        6 => Reader::Exists(pick(rng, &ints), rng.gen_bool(0.5)),
        7 => Reader::Scalar(pick(rng, &["max", "min", "count"]), pick(rng, &ints)),
        _ => {
            let count = rng.gen_bool(0.5).then(|| rng.gen_range(0..3));
            let columns = draw_columns(rng, join, 3);
            Reader::Outer(columns, pick(rng, &ints), count, rng.gen_bool(0.5))
        }
    }
}

fn list(columns: &[Col], spell: Spell) -> String {
    columns
        .iter()
        .map(|c| spell(*c))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The statement `reader` makes of `source` — the join's `FROM … WHERE …`,
/// or its stored answer — spelling columns with `spell`.
fn statement(reader: &Reader, source: &str, spell: Spell) -> String {
    match reader {
        Reader::Project(columns) => {
            let columns = (columns.iter())
                .map(|c| match c {
                    Column::Plain(c) => spell(*c),
                    Column::Plus(c, k) => format!("{} + {k}", spell(*c)),
                    Column::Times(c, k) => format!("{} * {k}", spell(*c)),
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!("select {columns} from {source}")
        }
        Reader::Group(keys, aggregates) => {
            let aggregates = (aggregates.iter())
                .map(|(template, column)| match column {
                    Some(c) => template.replace(['#', '@'], &spell(*c)),
                    None => template.to_string(),
                })
                .collect::<Vec<_>>()
                .join(", ");
            let keys = list(keys, spell);
            format!("select {keys}, {aggregates} from {source} group by {keys}")
        }
        Reader::CountStar => format!("select count(*) from {source}"),
        Reader::TopK(columns, keys, limit) => {
            let keys = (keys.iter())
                .map(|(c, asc)| format!("{}{}", spell(*c), if *asc { "" } else { " desc" }))
                .collect::<Vec<_>>()
                .join(", ");
            let columns = list(columns, spell);
            format!("select {columns} from {source} order by {keys} limit {limit}")
        }
        Reader::Distinct(columns) => {
            format!("select distinct {} from {source}", list(columns, spell))
        }
        Reader::In(probe, negated) => {
            let outer = if probe.kind == Kind::Int {
                "mo.id"
            } else {
                "mo.title"
            };
            let not = if *negated { "not " } else { "" };
            format!(
                "select mo.title, mo.year from MOVIES mo where {outer} {not}in \
                 (select {} from {source})",
                spell(*probe)
            )
        }
        Reader::Exists(key, negated) => {
            let not = if *negated { "not " } else { "" };
            let and = if source.contains(" where ") {
                "and"
            } else {
                "where"
            };
            format!(
                "select mo.title from MOVIES mo where {not}exists \
                 (select * from {source} {and} {} = mo.id)",
                spell(*key)
            )
        }
        Reader::Scalar(function, column) => format!(
            "select mo.title from MOVIES mo where mo.id <= (select {function}({}) from {source})",
            spell(*column)
        ),
        Reader::Outer(columns, key, count, negated) => {
            let and = if source.contains(" where ") {
                "and"
            } else {
                "where"
            };
            let body = format!("select * from GENRE g2 where g2.mid = {}", spell(*key));
            let test = match (count, negated) {
                (Some(n), _) => format!(
                    "{n} < (select count(*) from GENRE g2 where g2.mid = {})",
                    spell(*key)
                ),
                (None, true) => format!("not exists ({body})"),
                (None, false) => format!("exists ({body})"),
            };
            format!("select {} from {source} {and} {test}", list(columns, spell))
        }
    }
}

/// The movie schema at ×20, with NULL-heavy rows added.
fn movie_database(seed: u64) -> Database {
    let mut db = scaled_movie_database(ScaleConfig {
        movies: 200,
        directors: 40,
        actors: 120,
        ..ScaleConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    for id in 121..=160 {
        let name = Value::text(format!("Extra {}", id % 7));
        db.insert("ACTOR", vec![Value::int(id), name, Value::Null])
            .unwrap();
        for _ in 0..rng.gen_range(0..4) {
            let mid = Value::int(rng.gen_range(1..=200));
            let role = if rng.gen_bool(0.7) {
                Value::Null
            } else {
                Value::text("Extra")
            };
            // A credit drawn twice is a duplicate key: one is enough.
            let _ = db.insert("CAST", vec![mid, Value::int(id), role]);
        }
    }
    for id in 41..=50 {
        let name = Value::text(format!("Unknown {id}"));
        let row = vec![Value::int(id), name, Value::Null, Value::Null];
        db.insert("DIRECTOR", row).unwrap();
        for _ in 0..rng.gen_range(1..4) {
            let mid = Value::int(rng.gen_range(1..=200));
            let _ = db.insert("DIRECTED", vec![mid, Value::int(id)]);
        }
    }
    db
}

/// Rows as their values are spelled, in order.
fn spelled(rows: &[Row]) -> Vec<String> {
    rows.iter().map(|r| format!("{:?}", r.values())).collect()
}

/// `rows` as the comparison takes them: in order, except where the join is
/// planned beside a subquery — an `IN` the rewriter flattens into the outer
/// block, or the outer block of a correlated subquery, which the planner
/// may order by the subquery's selectivity — and each join is ordered as
/// its own plan has it.
fn in_order(mut rows: Vec<String>, reader: &Reader) -> Vec<String> {
    if let Reader::In(_, false) | Reader::Outer(..) = reader {
        rows.sort();
    }
    rows
}

/// Store the join's `select *` answer under `options` as table `name`, its
/// columns named `alias_column`.
fn store_answer(system: &mut Talkback, join: &Join, name: &str, options: PlannerOptions) {
    let sql = format!("select * from {} where {}", join.from, join.conjuncts);
    let answer = system
        .run_query_with(&sql, options)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let columns = (answer.columns.iter())
        .map(|c| {
            let alias = c.qualifier.as_deref().expect("a join column is qualified");
            let col = (join.columns.iter())
                .find(|j| j.alias == alias && j.name.eq_ignore_ascii_case(&c.name))
                .expect("a column of the join");
            let data_type = match col.kind {
                Kind::Int => DataType::Integer,
                Kind::Text => DataType::Text,
                Kind::Date => DataType::Date,
            };
            ColumnDef::nullable(format!("{alias}_{}", col.name), data_type)
        })
        .collect();
    let db = system.database_mut();
    db.create_table(TableSchema::new(name, columns)).unwrap();
    for row in answer.rows {
        db.insert(name, row.into_values()).unwrap();
    }
}

/// True if some join of the plan emits fewer columns than its inputs hold.
fn narrowed(plan: &Plan) -> bool {
    let mut found = false;
    plan.walk(&mut |p| {
        found |= matches!(
            &p.node,
            PlanNode::HashJoin {
                output: Some(_),
                ..
            } | PlanNode::IndexNestedLoopJoin {
                output: Some(_),
                ..
            }
        )
    });
    found
}

const READERS: usize = 9;

#[test]
fn narrowed_joins_answer_as_their_stored_select_star() {
    for seed in seeds() {
        let mut system = Talkback::new(movie_database(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut statements, mut narrowing) = (0, 0);
        for n in 0..6 * READERS {
            let join = draw_join(&mut rng);
            let reader = draw_reader(&mut rng, &join, n % READERS);
            let source = format!("{} where {}", join.from, join.conjuncts);
            let sql = statement(&reader, &source, &over_join);
            let parsed = sqlparse::parse_query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let planned = plan_query_with(system.database(), &parsed, options()[0]).unwrap();
            statements += 1;
            narrowing += usize::from(narrowed(&planned.plan));
            for (o, options) in options().into_iter().enumerate() {
                let table = format!("J{n}_{o}");
                store_answer(&mut system, &join, &table, options);
                let stored = statement(&reader, &format!("{table} t"), &over_table);
                let want = system
                    .run_query_with(&stored, options)
                    .unwrap_or_else(|e| panic!("seed {seed:#x}: {stored}: {e}"));
                let got = system
                    .run_query_with(&sql, options)
                    .unwrap_or_else(|e| panic!("seed {seed:#x}: {sql}: {e}"));
                assert_eq!(
                    in_order(spelled(&got.rows), &reader),
                    in_order(spelled(&want.rows), &reader),
                    "seed {seed:#x}, options {o}: {sql}\nagainst {stored}"
                );
            }
        }
        assert!(
            narrowing * 4 >= statements * 3,
            "seed {seed:#x}: only {narrowing} of {statements} statements narrowed a join"
        );
    }
}
