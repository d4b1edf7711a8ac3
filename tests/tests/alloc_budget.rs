//! Allocation budgets of a repeated statement. A counting global allocator
//! (its counters are per thread, so tests running in parallel do not see each
//! other's allocations) counts the heap allocations of one
//! `Talkback::run_query_with`, and the bytes they asked for, after warm-up,
//! for each of `lookup`'s five read shapes on the ×300 database with its four
//! indexes, and for the execution of `analytic`'s many-groups aggregate over
//! CAST, its unfiltered three-way join and its two-way join + aggregate
//! there; for Q6, Q7, Q8 and Q9 on the
//! 100-movie database — each served from its plan-cache template, binding
//! included, and executed alone — and for Q1's
//! `Talkback::explain_result` there, served from its template. The counts are exact and
//! repeatable, so the ceilings are asserted as counts; the table is printed
//! for the log (`cargo test -q -p talkback-tests --test alloc_budget --
//! --nocapture`).

use datastore::exec::execute_with_stats;
use datastore::sample::{scaled_movie_database, ScaleConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use talkback::{plan_query_with, PlannerOptions, Talkback};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation on the
/// calling thread, and the bytes each asked for.
struct Counting;

fn count_one(bytes: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `work` makes on this thread, and the bytes they asked for.
fn allocations<T>(work: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = work();
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), out)
}

const INDEXES: [&str; 4] = [
    "create index idx_movies_year on MOVIES (year)",
    "create index idx_cast_aid on CAST (aid)",
    "create index idx_cast_mid_aid on CAST (mid, aid)",
    "create index idx_actor_name on ACTOR (name) using hash",
];

/// `lookup`'s five read shapes, by name, with the literals of the `i`-th
/// draw; `actors` are the names in ACTOR.
fn lookup_shapes(actors: &[String], i: i64) -> [(&'static str, String); 5] {
    let id = 1 + (i * 37) % 3000;
    [
        (
            "point read m.id = ?",
            format!("select m.title from MOVIES m where m.id = {id}"),
        ),
        (
            "CAST(mid, aid) prefix",
            format!("select c.role from CAST c where c.mid = {id}"),
        ),
        (
            "index NL join by hashed name",
            format!(
                "select m.title from ACTOR a, CAST c, MOVIES m \
                 where a.name = '{}' and c.aid = a.id and m.id = c.mid",
                actors[(i * 7) as usize % actors.len()]
            ),
        ),
        (
            "year + id range (uncached)",
            format!(
                "select m.title from MOVIES m where m.year = {} and m.id <= {}",
                1960 + i % 65,
                1500 + id / 2
            ),
        ),
        (
            "index-only CAST(mid, aid)",
            format!("select c.mid, c.aid from CAST c where c.mid = {id}"),
        ),
    ]
}

const Q1: &str = "select m.title from MOVIES m, CAST c, ACTOR a \
     where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'";

const Q6: &str = "select m.title from MOVIES m where not exists ( \
     select * from GENRE g1 where not exists ( \
     select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))";

const Q7: &str = "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
     group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)";

const Q8: &str = "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
     where m.id = c.mid and c.aid = a.id \
     group by a.id, a.name having count(distinct m.year) = 2";

/// `analytic`'s many-groups aggregate: one group per actor.
const CAST_GROUPS: &str = "select c.aid, count(*) from CAST c group by c.aid";

/// `analytic`'s unfiltered three-way join: each join emits one column.
const THREE_WAY: &str =
    "select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id";

/// `analytic`'s two-way join + aggregate.
const JOIN_GROUPS: &str =
    "select m.year, count(*) from MOVIES m, CAST c where m.id = c.mid group by m.year";

const Q9: &str = "select a.name from MOVIES m, CAST c, ACTOR a \
     where m.id = c.mid and c.aid = a.id \
     and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
     where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)";

/// One row of the printed table: what was counted, and its ceiling on
/// allocations if any.
struct Row {
    what: String,
    allocations: u64,
    bytes: u64,
    ceiling: Option<u64>,
}

impl Row {
    fn new(what: impl Into<String>, (allocations, bytes): (u64, u64), ceiling: Option<u64>) -> Row {
        let what = what.into();
        Row {
            what,
            allocations,
            bytes,
            ceiling,
        }
    }
}

fn print(rows: &[Row]) {
    println!(
        "\n{:<46} {:>12} {:>12} {:>9}",
        "statement", "allocations", "bytes", "ceiling"
    );
    for row in rows {
        let ceiling = row.ceiling.map_or("-".to_string(), |c| c.to_string());
        println!(
            "{:<46} {:>12} {:>12} {:>9}",
            row.what, row.allocations, row.bytes, ceiling
        );
    }
}

#[test]
fn a_repeated_statement_stays_within_its_allocation_budget() {
    let options = PlannerOptions::sequential();
    let mut rows = Vec::new();

    let mut system = Talkback::new(scaled_movie_database(ScaleConfig {
        movies: 3000,
        actors: 1800,
        directors: 600,
        ..ScaleConfig::default()
    }));
    for ddl in INDEXES {
        system.execute_ddl(ddl).unwrap();
    }
    let actors: Vec<String> = (system.database().table("ACTOR").unwrap())
        .column_values("name")
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    // Warm-up: every template cached, the journal full, every ledger row
    // there; what is left is what any further statement costs.
    for i in 0..80 {
        for (_, sql) in lookup_shapes(&actors, i) {
            system.run_query_with(&sql, options).unwrap();
        }
    }
    let ceilings = [Some(50), None, Some(150), None, None];
    for ((what, sql), ceiling) in lookup_shapes(&actors, 1000).into_iter().zip(ceilings) {
        let (n, answer) = allocations(|| system.run_query_with(&sql, options).unwrap());
        assert!(!answer.is_empty() || what.contains("range"), "{sql}");
        rows.push(Row::new(format!("lookup: {what}"), n, ceiling));
    }
    for (what, sql, ceiling) in [
        ("CAST groups by aid", CAST_GROUPS, None),
        // Neither join's output row nor the projection's is more than the
        // one column read above it.
        ("three-way join", THREE_WAY, Some(20_954)),
        ("two-way join + aggregate", JOIN_GROUPS, None),
    ] {
        let query = sqlparse::parse_query(sql).unwrap();
        let planned = plan_query_with(system.database(), &query, options).unwrap();
        let (n, _) = allocations(|| execute_with_stats(system.database(), &planned.plan).unwrap());
        rows.push(Row::new(format!("analytic: {what}, execution"), n, ceiling));
    }

    let system = Talkback::new(scaled_movie_database(ScaleConfig::default()));
    let q7 = |n: i64| Q7.replace("having 1 <", &format!("having {n} <"));
    for n in 0..3 {
        for sql in [Q6, Q8, Q9, &q7(n)] {
            system.run_query_with(sql, options).unwrap();
        }
    }
    let q7 = q7(2);
    for (name, sql, ceilings) in [
        ("Q6", Q6, [Some(4_400), Some(7_000)]),
        ("Q7", &q7, [Some(797), None]),
        ("Q8", Q8, [None, None]),
        ("Q9", Q9, [None, None]),
    ] {
        // A cache hit, binding included: what the statement costs whole.
        let (whole, _) = allocations(|| system.run_query_with(sql, options).unwrap());
        let cache = system.database().obs().journal().last().unwrap().cache;
        assert_eq!(cache, datastore::CacheStatus::Hit, "{name}");
        let query = sqlparse::parse_query(sql).unwrap();
        let planned = plan_query_with(system.database(), &query, options).unwrap();
        let (executed, _) =
            allocations(|| execute_with_stats(system.database(), &planned.plan).unwrap());
        rows.push(Row::new(
            format!("nested: {name} from a template"),
            whole,
            ceilings[0],
        ));
        rows.push(Row::new(
            format!("nested: {name}, execution"),
            executed,
            ceilings[1],
        ));
    }

    // `explain_result` runs as `run_query` does, under the default options,
    // and hands the journal a copy of the profile it blames.
    for _ in 0..3 {
        system.explain_result(Q1).unwrap();
    }
    let (n, _) = allocations(|| system.explain_result(Q1).unwrap());
    let cache = system.database().obs().journal().last().unwrap().cache;
    assert_eq!(cache, datastore::CacheStatus::Hit, "explain_result of Q1");
    rows.push(Row::new(
        "explain_result of Q1 from a template",
        n,
        Some(280),
    ));

    print(&rows);
    for row in &rows {
        if let Some(ceiling) = row.ceiling {
            assert!(
                row.allocations <= ceiling,
                "{}: {} allocations, budget {ceiling}",
                row.what,
                row.allocations
            );
        }
    }
}
