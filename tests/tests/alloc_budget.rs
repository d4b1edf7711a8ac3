//! Allocation budgets of a statement, on the plan cache's hit path and on its
//! miss path. A counting global allocator (its counters are per thread, so
//! tests running in parallel do not see each other's allocations) counts the
//! heap allocations of one statement after warm-up, and the bytes they asked
//! for. The counts are exact and repeatable, so every ceiling but the five
//! `plan_query_with` rows and the three-way join is the count itself; the
//! table is printed for the log (`cargo test -q -p talkback-tests --test
//! alloc_budget -- --nocapture`).
//!
//! On the ×300 database with its four indexes:
//!
//! - `lookup`'s five read shapes, each a plan-cache hit: point read 6, CAST
//!   prefix 8, index nested-loop join by hashed name 17, year + id range 41,
//!   index-only 9. A hit neither parses, plans, copies nor opens a plan: it
//!   rewinds the operator tree its template keeps with the statement's
//!   literals, drains it and writes its counters against the template's
//!   shape; the full journal writes its text into the SQL buffer of the
//!   entry it evicts.
//! - An insert into MOVIES right after them: 6. A write lets go of the trees
//!   the templates parked first, so the table it changes is written in
//!   place; a tree still pinning it would have the insert copy the table and
//!   its indexes.
//! - Each shape's miss after an epoch bump — parse, plan the statement once
//!   as its template, open the template's tree and run it — 118, 123, 335,
//!   237 and 130, and `plan_query_with` alone on the parsed shape, with
//!   ceilings of 91, 97, 298, 151 and 112 (it makes 65, 68, 211, 107 and
//!   70). A shape the parameterizer refuses (an `IN` list), planned afresh
//!   from the statement as parsed: 231.
//! - The execution alone of `analytic`'s many-groups aggregate over CAST
//!   (1,873), its unfiltered three-way join (9,168, ceiling 9,300: its 9,000
//!   one-value result rows, which are the only rows it makes), its two-way
//!   join + aggregate (244) and its full sort (29).
//! - Index DDL through `Talkback::execute_ddl`, the build and its narrated
//!   confirmation: `create index idx_movies_title on MOVIES (title)` 315
//!   and `create index idx_cast_aid on CAST (aid)` 1,944.
//!
//! On the 100-movie database:
//!
//! - Q6, Q7, Q8 and Q9 from their templates, whole: 855, 356, 208 and 2,794;
//!   Q6 and Q9 executed alone from a fresh plan: 900 and 2,930. Their applies
//!   rewind one open subplan for each of their 100 bindings. Q7's and Q8's
//!   executions alone are printed only.
//! - A fresh correlated `EXISTS` and a fresh `NOT IN`, each a miss: 435 and
//!   301.
//! - Narration: Q1's `Talkback::explain_result` from its template (62);
//!   `EXPLAIN` of Q1 (159) and `EXPLAIN ANALYZE` of Q6 (942) from their
//!   templates, the decisions bound, nothing parsed or planned; and
//!   `explain_query` of `talkback`'s insert, translated afresh on every
//!   call (42).

use datastore::exec::execute_with_stats;
use datastore::obs::Counter;
use datastore::sample::{scaled_movie_database, ScaleConfig};
use datastore::EpochCause;
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
            "year + id range",
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

/// `analytic`'s full sort.
const FULL_SORT: &str = "select m.id, m.title, m.year from MOVIES m order by m.year, m.id";

/// A shape the plan cache refuses: an `IN` list is not lifted.
const REFUSED: &str = "select m.title from MOVIES m where m.year in (1990, 1991)";

/// `nested`'s correlated EXISTS.
const EXISTS: &str = "select m.title from MOVIES m where m.year >= 1991 and exists \
     (select * from CAST c where c.mid = m.id and c.aid <= 33)";

/// `nested`'s NOT IN.
const NOT_IN: &str =
    "select a.name from ACTOR a where a.id not in (select c.aid from CAST c where c.mid <= 52)";

/// `talkback`'s insert, which its verify step translates.
const INSERT: &str = "insert into MOVIES (id, title, year) values (5001, 'New Film 5001', 2009)";

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
        "\n{:<52} {:>12} {:>12} {:>9}",
        "statement", "allocations", "bytes", "ceiling"
    );
    for row in rows {
        let ceiling = row.ceiling.map_or("-".to_string(), |c| c.to_string());
        println!(
            "{:<52} {:>12} {:>12} {:>9}",
            row.what, row.allocations, row.bytes, ceiling
        );
    }
}

#[test]
fn a_repeated_statement_stays_within_its_allocation_budget() {
    let options = PlannerOptions::default();
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
    let ceilings = [6, 8, 17, 41, 9].map(Some);
    for ((what, sql), ceiling) in lookup_shapes(&actors, 1000).into_iter().zip(ceilings) {
        let (n, answer) = allocations(|| system.run_query_with(&sql, options).unwrap());
        assert!(!answer.is_empty() || what.contains("range"), "{sql}");
        let cache = system.database().obs().journal().last().unwrap().cache;
        assert_eq!(cache, datastore::CacheStatus::Hit, "{sql}");
        rows.push(Row::new(format!("lookup: {what}"), n, ceiling));
    }
    // A write while the templates keep their trees: it lets go of them
    // before it changes MOVIES, so nothing is copied. Then every shape is
    // cached again, its statistics taken anew, as before the write.
    let movie = [
        datastore::Value::int(3001),
        datastore::Value::text("Kept Trees"),
        datastore::Value::int(2009),
    ];
    let (n, _) = allocations(|| {
        let database = system.database_mut();
        database.insert("MOVIES", movie.to_vec()).unwrap()
    });
    rows.push(Row::new("insert into MOVIES after the hits", n, Some(6)));
    for (_, sql) in lookup_shapes(&actors, 1000) {
        system.run_query_with(&sql, options).unwrap();
    }
    // A plan-cache miss: an epoch bump retires every template, so the
    // statement is parsed, planned as its template, bound and executed.
    // Then the planner alone on the parsed shape.
    let ceilings = [(118, 91), (123, 97), (335, 298), (237, 151), (130, 112)];
    for ((what, sql), (miss, plan)) in lookup_shapes(&actors, 1001).into_iter().zip(ceilings) {
        system
            .database()
            .adaptive()
            .bump_epoch_for(EpochCause::Write);
        let (n, _) = allocations(|| system.run_query_with(&sql, options).unwrap());
        let cache = system.database().obs().journal().last().unwrap().cache;
        assert_ne!(cache, datastore::CacheStatus::Hit, "{sql}");
        rows.push(Row::new(format!("lookup miss: {what}"), n, Some(miss)));
        let query = sqlparse::parse_query(&sql).unwrap();
        let (n, _) = allocations(|| plan_query_with(system.database(), &query, options).unwrap());
        rows.push(Row::new(
            format!("lookup plan_query_with: {what}"),
            n,
            Some(plan),
        ));
    }
    // A shape the parameterizer refuses (an `IN` list): its miss plans the
    // statement as it was parsed, once.
    system
        .database()
        .adaptive()
        .bump_epoch_for(EpochCause::Write);
    let (n, _) = allocations(|| system.run_query_with(REFUSED, options).unwrap());
    let cache = system.database().obs().journal().last().unwrap().cache;
    assert_ne!(cache, datastore::CacheStatus::Hit, "{REFUSED}");
    rows.push(Row::new("miss of a refused shape (IN list)", n, Some(231)));

    for (what, sql, ceiling) in [
        ("CAST groups by aid", CAST_GROUPS, 1_873),
        // Neither join makes a row: the result set makes its one-value
        // rows.
        ("three-way join", THREE_WAY, 9_300),
        ("two-way join + aggregate", JOIN_GROUPS, 244),
        ("full sort", FULL_SORT, 29),
    ] {
        let query = sqlparse::parse_query(sql).unwrap();
        let planned = plan_query_with(system.database(), &query, options).unwrap();
        let (n, _) = allocations(|| execute_with_stats(system.database(), &planned.plan).unwrap());
        rows.push(Row::new(
            format!("analytic: {what}, execution"),
            n,
            Some(ceiling),
        ));
    }

    // Index DDL: the build and its narrated confirmation (`idx_cast_aid` is
    // one of the four above, so it is dropped first).
    system.execute_ddl("drop index idx_cast_aid").unwrap();
    for (ddl, ceiling) in [
        ("create index idx_movies_title on MOVIES (title)", 315),
        ("create index idx_cast_aid on CAST (aid)", 1_944),
    ] {
        let (n, _) = allocations(|| system.execute_ddl(ddl).unwrap());
        rows.push(Row::new(format!("execute_ddl: {ddl}"), n, Some(ceiling)));
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
        ("Q6", Q6, [Some(855), Some(900)]),
        ("Q7", &q7, [Some(356), None]),
        ("Q8", Q8, [Some(208), None]),
        ("Q9", Q9, [Some(2_794), Some(2_930)]),
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

    for (name, sql, ceiling) in [("EXISTS", EXISTS, 435), ("NOT IN", NOT_IN, 301)] {
        system
            .database()
            .adaptive()
            .bump_epoch_for(EpochCause::Write);
        let (n, _) = allocations(|| system.run_query_with(sql, options).unwrap());
        let cache = system.database().obs().journal().last().unwrap().cache;
        assert_ne!(cache, datastore::CacheStatus::Hit, "{name}");
        rows.push(Row::new(
            format!("nested: a fresh {name}"),
            n,
            Some(ceiling),
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
        Some(62),
    ));

    // `EXPLAIN [ANALYZE]` served from a template: the plan and its decisions
    // bound, neither parsed nor planned.
    for (what, form, sql, ceiling) in [
        ("EXPLAIN of Q1 from a template", "explain", Q1, 159),
        (
            "EXPLAIN ANALYZE of Q6 from a template",
            "explain analyze",
            Q6,
            942,
        ),
    ] {
        let explain = format!("{form} {sql}");
        for _ in 0..3 {
            system.explain_plan_with(&explain, options).unwrap();
        }
        let hits = || system.database().obs().counter(Counter::PlanCacheHits);
        let before = hits();
        let (n, _) = allocations(|| system.explain_plan_with(&explain, options).unwrap());
        assert_eq!(hits(), before + 1, "{what}");
        rows.push(Row::new(what, n, Some(ceiling)));
    }

    // `explain_query` of an insert is translated afresh on every call.
    let (n, _) = allocations(|| system.explain_query(INSERT).unwrap());
    rows.push(Row::new("explain_query of an insert", n, Some(42)));

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
