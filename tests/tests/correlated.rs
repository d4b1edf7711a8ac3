//! The correlated-subquery differential: what the planner does with a
//! conjunct that names an enclosing block — push it onto its relation, price
//! it, probe an index with it, open an `EXISTS` toward its first row — must
//! never change an answer.
//!
//! Seeded statements over the movie schema and a NULL-heavy EMP/DEPT, every
//! combination of subquery kind × correlation operator × body shape, with the
//! local column (indexed, unindexed, composite-key prefix), the nesting depth
//! (1 or 2) and the literals drawn from the seed; a scalar subquery projects
//! one of seven aggregates, and a scalar or `HAVING` probe is sometimes a
//! constant an empty group passes (`0 = count`, `-1 < count`). Sixty more
//! equality-correlated scalar and `HAVING` statements follow the grid, and
//! each seed must reach both the grouped lookup and an apply the cost gate
//! kept at least five times. Each runs under the default options twice, so
//! that the second run meets the plan-cache template the first left behind,
//! and must return the multiset the naive reference
//! engine returns: every subquery a per-row apply, no index, no vector
//! kernel, no feedback, no plan cache. The seeds are fixed;
//! `CORRELATED_SEED=<u64>` adds one more (CI passes the clock), and every
//! failure names its seed and statement.

use datastore::sample::{employee_database, scaled_movie_database, ScaleConfig};
use datastore::{CacheStatus, Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use talkback::planner::SubqueryStrategy;
use talkback::{PlanDecision, PlannerOptions, Talkback};
use talkback_tests::assert_recorded_feedback_is_found;

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0x0019_0001, 0x0019_0002];
    if let Ok(extra) = std::env::var("CORRELATED_SEED") {
        seeds.push(extra.parse().expect("CORRELATED_SEED is a u64"));
    }
    seeds
}

/// The engine every answer is held against.
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

const KINDS: [&str; 8] = [
    "exists",
    "not exists",
    "in",
    "not in",
    "all",
    "any",
    "scalar",
    "having",
];
/// How the local column meets the enclosing one; `+0` hides the column from
/// every sarg and edge rule while meaning `=`.
const CORRELATIONS: [&str; 5] = ["=", "<", "<=", "<>", "+0"];
const BODIES: [&str; 3] = ["one", "joined", "unjoined"];
const COMPARISONS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
/// What a scalar subquery projects over its local column `#`.
const AGGREGATES: [&str; 7] = [
    "max(#)",
    "min(#)",
    "count(#)",
    "sum(#)",
    "avg(#)",
    "count(distinct #)",
    "count(*) + 1",
];
/// Constant probes, some of which a movie with no matching row passes
/// (`0 = count`, `-1 < count`, `count < 2`).
const CONSTANTS: [&str; 4] = ["-1", "0", "1", "2"];
/// Statements drawn beyond the grid: scalar and `HAVING` subqueries
/// correlated by equality, the shape a grouped lookup can take — half of
/// them over two unjoined relations, whose grouped build is a cross product
/// the cost gate should turn down.
const KEYED_DRAWS: usize = 60;

/// How an index could serve a predicate on the column, if at all.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Access {
    Indexed,
    Unindexed,
    CompositePrefix,
}

/// One integer column of a relation a body can range over.
#[derive(Clone, Copy)]
struct Column {
    table: &'static str,
    name: &'static str,
    access: Access,
}

/// What the generator knows of a schema: the block the subquery hangs under,
/// the columns a body can correlate on, and the equi-joins between them.
struct Schema {
    /// Outer relation, its integer columns, and the one it is grouped by for
    /// the `HAVING` kind.
    outer: (&'static str, &'static [&'static str], &'static str),
    columns: &'static [Column],
    /// `(left table, left column, right table, right column)`.
    joins: &'static [(&'static str, &'static str, &'static str, &'static str)],
    /// Literals an outer or local filter compares with.
    literals: (i64, i64),
}

const MOVIE: Schema = Schema {
    outer: ("MOVIES", &["id", "year"], "year"),
    columns: &[
        Column {
            table: "CAST",
            name: "mid",
            access: Access::CompositePrefix,
        },
        Column {
            table: "CAST",
            name: "aid",
            access: Access::Unindexed,
        },
        Column {
            table: "GENRE",
            name: "mid",
            access: Access::CompositePrefix,
        },
        Column {
            table: "MOVIES",
            name: "id",
            access: Access::Indexed,
        },
        Column {
            table: "MOVIES",
            name: "year",
            access: Access::Unindexed,
        },
        Column {
            table: "ACTOR",
            name: "id",
            access: Access::Indexed,
        },
        Column {
            table: "DIRECTED",
            name: "did",
            access: Access::Unindexed,
        },
    ],
    joins: &[
        ("CAST", "aid", "ACTOR", "id"),
        ("CAST", "mid", "GENRE", "mid"),
        ("MOVIES", "id", "CAST", "mid"),
        ("DIRECTED", "mid", "MOVIES", "id"),
    ],
    literals: (1, 30),
};

const COMPANY: Schema = Schema {
    outer: ("EMP", &["eid", "did", "age"], "did"),
    columns: &[
        Column {
            table: "EMP",
            name: "eid",
            access: Access::Indexed,
        },
        Column {
            table: "EMP",
            name: "did",
            access: Access::Unindexed,
        },
        Column {
            table: "EMP",
            name: "age",
            access: Access::Unindexed,
        },
        Column {
            table: "DEPT",
            name: "did",
            access: Access::Indexed,
        },
        Column {
            table: "DEPT",
            name: "mgr",
            access: Access::Unindexed,
        },
    ],
    joins: &[("EMP", "did", "DEPT", "did"), ("DEPT", "mgr", "EMP", "eid")],
    literals: (1, 40),
};

fn movie_database() -> Database {
    scaled_movie_database(ScaleConfig {
        movies: 24,
        directors: 5,
        actors: 12,
        ..ScaleConfig::default()
    })
}

/// EMP/DEPT grown to 36 employees and 9 departments, NULL in two `did`s out
/// of five and every third `mgr`, with ages and departments repeating.
fn company_database(seed: u64) -> Database {
    let mut db = employee_database();
    let mut rng = StdRng::seed_from_u64(seed);
    for did in [40, 50, 60, 70, 80, 90] {
        let mgr = match did % 30 {
            0 => Value::Null,
            // One of the fixture's six: the foreign key is enforced.
            _ => Value::int(rng.gen_range(1..=6)),
        };
        db.insert(
            "DEPT",
            vec![Value::int(did), Value::text(format!("Dept {did}")), mgr],
        )
        .unwrap();
    }
    for eid in 7..=36 {
        let did = match rng.gen_range(0..5) {
            0 | 1 => Value::Null,
            _ => Value::int(10 * rng.gen_range(1..=9i64)),
        };
        let row = vec![
            Value::int(eid),
            Value::text(format!("Emp {eid}")),
            Value::int(1_000 * rng.gen_range(50..=60i64)),
            Value::int(rng.gen_range(25..=40)),
            did,
        ];
        db.insert("EMP", row).unwrap();
    }
    db
}

fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

/// `local <correlation> outer`, written either way round.
fn correlate(rng: &mut StdRng, correlation: &str, local: &str, outer: &str) -> String {
    let local_first = rng.gen_bool(0.5);
    match (correlation, local_first) {
        ("+0", true) => format!("{local} + 0 = {outer}"),
        ("+0", false) => format!("{outer} = {local} + 0"),
        (op, true) => format!("{local} {op} {outer}"),
        ("<", false) => format!("{outer} > {local}"),
        ("<=", false) => format!("{outer} >= {local}"),
        (op, false) => format!("{outer} {op} {local}"),
    }
}

/// What was drawn for a statement, for the coverage check at the end.
struct Drawn {
    access: Access,
    depth: usize,
}

/// `probe <comparison> (subquery)`, or the subquery first with the
/// comparison flipped, the probe an outer operand or, a third of the time,
/// a constant.
fn compare(rng: &mut StdRng, operand: &str, comparison: &str, subquery: &str) -> String {
    let probe = if rng.gen_bool(0.33) {
        pick(rng, &CONSTANTS).to_string()
    } else {
        operand.to_string()
    };
    if rng.gen_bool(0.5) {
        return format!("{probe} {comparison} ({subquery})");
    }
    let flipped = match comparison {
        "<" => ">",
        "<=" => ">=",
        ">" => "<",
        ">=" => "<=",
        same => same,
    };
    format!("({subquery}) {flipped} {probe}")
}

/// The FROM list and WHERE conjuncts of one subquery body over `schema`,
/// correlated with the outer columns `outer` (already qualified), and the
/// local column it projects. `level` keeps the aliases of nested bodies
/// apart.
fn body(
    rng: &mut StdRng,
    schema: &Schema,
    shape: &str,
    correlation: &str,
    outer: &[String],
    level: usize,
) -> (String, Vec<String>, String, Access) {
    let l = format!("l{level}");
    let k = format!("k{level}");
    let literal = |rng: &mut StdRng| rng.gen_range(schema.literals.0..=schema.literals.1);
    match shape {
        "one" => {
            let column = pick(rng, schema.columns);
            let enclosing = pick(rng, outer);
            let mut conjuncts = vec![correlate(
                rng,
                correlation,
                &format!("{l}.{}", column.name),
                &enclosing,
            )];
            if rng.gen_bool(0.3) {
                let other = pick(rng, schema.columns);
                if other.table == column.table {
                    conjuncts.push(format!("{l}.{} <= {}", other.name, literal(rng)));
                }
            }
            (
                format!("{} {l}", column.table),
                conjuncts,
                format!("{l}.{}", column.name),
                column.access,
            )
        }
        "joined" => {
            let (lt, lc, kt, kc) = pick(rng, schema.joins);
            // Correlate on a column of the left relation: the join column
            // itself or another one.
            let candidates: Vec<&Column> =
                schema.columns.iter().filter(|c| c.table == lt).collect();
            let column = *pick(rng, &candidates);
            let enclosing = pick(rng, outer);
            let conjuncts = vec![
                format!("{l}.{lc} = {k}.{kc}"),
                correlate(
                    rng,
                    correlation,
                    &format!("{l}.{}", column.name),
                    &enclosing,
                ),
            ];
            (
                format!("{lt} {l}, {kt} {k}"),
                conjuncts,
                format!("{k}.{kc}"),
                column.access,
            )
        }
        _ => {
            // Q9's shape: both relations selected by the enclosing row, no
            // edge between them, sometimes a residual.
            let (a, b) = (pick(rng, schema.columns), pick(rng, schema.columns));
            let (first, second) = (pick(rng, outer), pick(rng, outer));
            let other = match rng.gen_bool(0.5) {
                true => correlation,
                false => pick(rng, &CORRELATIONS),
            };
            let mut conjuncts = vec![
                correlate(rng, correlation, &format!("{l}.{}", a.name), &first),
                correlate(rng, other, &format!("{k}.{}", b.name), &second),
            ];
            if rng.gen_bool(0.5) {
                conjuncts.push(format!(
                    "{l}.{} {} {k}.{}",
                    a.name,
                    pick(rng, &["<>", "<", "<="]),
                    b.name
                ));
            }
            (
                format!("{} {l}, {} {k}", a.table, b.table),
                conjuncts,
                format!("{l}.{}", a.name),
                a.access,
            )
        }
    }
}

/// One statement of the given kind × correlation × body shape.
fn statement(
    rng: &mut StdRng,
    schema: &Schema,
    kind: &str,
    correlation: &str,
    shape: &str,
) -> (String, Drawn) {
    let (outer_table, outer_columns, group_column) = schema.outer;
    // Under HAVING only the grouped column is in scope.
    let outer: Vec<String> = match kind {
        "having" => vec![format!("o.{group_column}")],
        _ => outer_columns.iter().map(|c| format!("o.{c}")).collect(),
    };
    let (from, mut conjuncts, projected, access) = body(rng, schema, shape, correlation, &outer, 1);
    // Depth 2: a block inside the body that names both the body (`l1`) and
    // the outermost block, as Q6's innermost one does.
    let depth = if rng.gen_bool(0.35) { 2 } else { 1 };
    if depth == 2 {
        let mut scope = outer.clone();
        scope.push(projected.clone());
        let (shape, correlation) = (pick(rng, &BODIES), pick(rng, &CORRELATIONS));
        let (inner_from, inner_conjuncts, _, _) = body(rng, schema, shape, correlation, &scope, 2);
        conjuncts.push(format!(
            "{}exists (select * from {inner_from} where {})",
            if rng.gen_bool(0.5) { "not " } else { "" },
            inner_conjuncts.join(" and ")
        ));
    }
    let condition = conjuncts.join(" and ");
    let operand = pick(rng, &outer);
    let comparison = pick(rng, &COMPARISONS);
    let predicate = match kind {
        "exists" => format!("exists (select * from {from} where {condition})"),
        "not exists" => format!("not exists (select * from {from} where {condition})"),
        "in" => format!("{operand} in (select {projected} from {from} where {condition})"),
        "not in" => {
            format!("{operand} not in (select {projected} from {from} where {condition})")
        }
        "all" | "any" => format!(
            "{operand} {comparison} {kind} (select {projected} from {from} where {condition})"
        ),
        "scalar" => {
            let item = pick(rng, &AGGREGATES).replace('#', &projected);
            let sub = format!("select {item} from {from} where {condition}");
            compare(rng, &operand, comparison, &sub)
        }
        _ => {
            let sub = format!("select count(*) from {from} where {condition}");
            compare(rng, "count(*)", comparison, &sub)
        }
    };
    let sql = if kind == "having" {
        format!(
            "select o.{group_column}, count(*) from {outer_table} o \
             group by o.{group_column} having {predicate}"
        )
    } else {
        let filter = if rng.gen_bool(0.4) {
            format!(
                "o.{} <= {} and ",
                outer_columns[0],
                rng.gen_range(schema.literals.0..=schema.literals.1)
            )
        } else {
            String::new()
        };
        format!(
            "select o.{}, o.{} from {outer_table} o where {filter}{predicate}",
            outer_columns[0], outer_columns[1]
        )
    };
    (sql, Drawn { access, depth })
}

/// How the planner lowered a statement's subqueries: (grouped lookups,
/// applies the cost gate kept).
fn strategies(system: &Talkback, sql: &str) -> (usize, usize) {
    let explained = system
        .explain_plan(&format!("explain {sql}"))
        .unwrap_or_else(|e| panic!("{sql}\nfailed to explain: {e}"));
    let mut counts = (0, 0);
    for d in &explained.decisions {
        match d {
            PlanDecision::Subquery {
                strategy: SubqueryStrategy::KeyedScalar,
                ..
            } => counts.0 += 1,
            PlanDecision::Subquery {
                strategy: SubqueryStrategy::Apply,
                grouped: Some(_),
                ..
            } => counts.1 += 1,
            _ => {}
        }
    }
    counts
}

/// The rows of an answer in an order of their own.
fn multiset(system: &Talkback, sql: &str, options: PlannerOptions, seed: u64) -> Vec<String> {
    let answer = system
        .run_query_with(sql, options)
        .unwrap_or_else(|e| panic!("seed {seed}: {sql}\nfailed under {options:?}: {e}"));
    let mut rows: Vec<String> = answer.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// Every kind × correlation × body shape once, then [`KEYED_DRAWS`] scalar
/// and `HAVING` subqueries correlated by equality. Returns how many
/// statements ran.
fn differential(seed: u64, schema: &Schema, db: Database) -> usize {
    let system = Talkback::new(db);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut grid = Vec::new();
    for kind in KINDS {
        for correlation in CORRELATIONS {
            for shape in BODIES {
                grid.push((kind, correlation, shape));
            }
        }
    }
    for _ in 0..KEYED_DRAWS {
        let shape = pick(&mut rng, &["one", "joined", "unjoined", "unjoined"]);
        grid.push((pick(&mut rng, &["scalar", "having"]), "=", shape));
    }
    let mut drawn = Vec::new();
    let mut non_empty = 0;
    let mut learned = 0;
    let (mut keyed, mut gated) = (0, 0);
    let mut templated = 0;
    for (kind, correlation, shape) in grid {
        let (sql, what) = statement(&mut rng, schema, kind, correlation, shape);
        let expected = multiset(&system, &sql, reference(), seed);
        let options = PlannerOptions::default();
        // Twice: the second run meets the template the first one left.
        for run in 1..=2 {
            let got = multiset(&system, &sql, options, seed);
            assert!(
                got == expected,
                "seed {seed}: {sql}\n{} rows under {options:?} (run {run}), {} under the \
                 reference",
                got.len(),
                expected.len()
            );
        }
        let journal = system.database().obs().journal();
        templated += usize::from(journal.last().unwrap().cache == CacheStatus::Hit);
        // Recorded ⇒ found: whatever this run teaches the feedback store,
        // the statement's next plan looks up.
        let uncached = PlannerOptions {
            use_plan_cache: false,
            ..PlannerOptions::default()
        };
        learned += assert_recorded_feedback_is_found(&system, &sql, uncached).len();
        let (k, g) = strategies(&system, &sql);
        (keyed, gated) = (keyed + k, gated + g);
        non_empty += usize::from(!expected.is_empty());
        drawn.push(what);
    }
    // The seed reached every corner it draws, and the answers say something.
    for access in [Access::Indexed, Access::Unindexed, Access::CompositePrefix] {
        let seen = drawn.iter().filter(|d| d.access == access).count();
        let wanted = usize::from(schema.columns.iter().any(|c| c.access == access));
        assert!(seen >= 5 * wanted, "seed {seed}: {access:?} drawn {seen}×");
    }
    assert!(keyed >= 5, "seed {seed}: {keyed} grouped lookups");
    // Many shapes bound a range or are planned around a value; the rest meet
    // their template, so the comparison above is about templates too.
    assert!(
        templated >= drawn.len() / 2,
        "seed {seed}: {templated} of {} second runs served from a template",
        2 * drawn.len()
    );
    assert!(
        gated >= 5,
        "seed {seed}: {gated} applies kept by the cost gate"
    );
    let deep = drawn.iter().filter(|d| d.depth == 2).count();
    assert!(deep >= 20, "seed {seed}: depth 2 drawn {deep}×");
    assert!(
        non_empty >= drawn.len() / 4,
        "seed {seed}: only {non_empty} of {} answers have rows",
        drawn.len()
    );
    assert!(
        learned >= drawn.len() / 4,
        "seed {seed}: only {learned} filters taught the planner anything"
    );
    drawn.len()
}

#[test]
fn movie_schema_correlated_subqueries_equal_the_reference_engine() {
    let ran: usize = seeds()
        .into_iter()
        .map(|seed| differential(seed, &MOVIE, movie_database()))
        .sum();
    assert!(ran >= 240, "{ran} statements");
}

#[test]
fn null_heavy_company_schema_correlated_subqueries_equal_the_reference_engine() {
    let ran: usize = seeds()
        .into_iter()
        .map(|seed| differential(seed, &COMPANY, company_database(seed)))
        .sum();
    assert!(ran >= 240, "{ran} statements");
}
