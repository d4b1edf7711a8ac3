//! End-to-end tests of the observability subsystem: executor counters
//! accumulate across statements, the query journal remembers what ran, and
//! the four `SHOW` statements answer with golden-pinned tables and
//! narrations. Durations are the one unstable ingredient, so the goldens
//! normalize every `N µs` / `N.N ms` / `N.NN s` token to `<t>` first.

use datastore::obs::Counter;
use datastore::sample::movie_database;
use datastore::{ColumnDef, Database, TableSchema, Value};
use talkback::{PlannerOptions, Talkback};

const Q1: &str = "select m.title from MOVIES m, CAST c, ACTOR a \
     where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'";

/// Replace every duration token (`412 µs`, `3.8 ms`, `1.20 s`) with `<t>`
/// so golden comparisons survive timing noise. Hand-written — the workspace
/// has no regex crate.
fn normalize_durations(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    'outer: while !rest.is_empty() {
        let digits = rest.chars().take_while(|c| c.is_ascii_digit()).count();
        if digits > 0 {
            // Candidate number: digits, optionally a fraction.
            let mut len = digits;
            let after = &rest[len..];
            if let Some(frac) = after.strip_prefix('.') {
                let frac_digits = frac.chars().take_while(|c| c.is_ascii_digit()).count();
                if frac_digits > 0 {
                    len += 1 + frac_digits;
                }
            }
            for unit in [" µs", " ms", " s"] {
                if let Some(tail) = rest[len..].strip_prefix(unit) {
                    // The unit must end at a word boundary ("1 s." yes,
                    // "1 scan" no).
                    if !tail.chars().next().is_some_and(char::is_alphanumeric) {
                        out.push_str("<t>");
                        rest = tail;
                        continue 'outer;
                    }
                }
            }
            out.push_str(&rest[..len]);
            rest = &rest[len..];
        } else {
            let c = rest.chars().next().unwrap();
            out.push(c);
            rest = &rest[c.len_utf8()..];
        }
    }
    out
}

#[test]
fn duration_normalizer_catches_each_unit() {
    assert_eq!(
        normalize_durations("parse 412 µs, plan 3.8 ms, run 1.20 s done"),
        "parse <t>, plan <t>, run <t> done"
    );
    assert_eq!(
        normalize_durations("6 scans in 2 batches"),
        "6 scans in 2 batches"
    );
}

#[test]
fn counters_accumulate_across_statements() {
    let system = Talkback::new(movie_database());
    let obs = system.database().obs();
    assert_eq!(obs.counter(Counter::QueriesExecuted), 0);

    system.run_query(Q1).unwrap();
    assert_eq!(obs.counter(Counter::QueriesExecuted), 1);
    // Q1 scans ACTOR (6) and CAST (12) and probes MOVIES by PK.
    assert!(obs.counter(Counter::RowsScanned) >= 18);
    assert_eq!(obs.counter(Counter::RowsEmitted), 2);
    assert!(obs.counter(Counter::IndexProbes) >= 1);

    let scanned = obs.counter(Counter::RowsScanned);
    system.run_query("select m.title from MOVIES m").unwrap();
    assert_eq!(obs.counter(Counter::QueriesExecuted), 2);
    assert!(obs.counter(Counter::RowsScanned) > scanned);

    // The planner reported its choices too.
    let decisions = obs.decisions();
    assert!(decisions.get("start").copied().unwrap_or(0) >= 1);
    assert!(decisions.get("access_path").copied().unwrap_or(0) >= 1);
}

#[test]
fn disabled_registry_freezes_every_surface() {
    let system = Talkback::new(movie_database());
    let obs = system.database().obs();
    obs.set_enabled(false);
    system.run_query(Q1).unwrap();
    assert_eq!(obs.counter(Counter::QueriesExecuted), 0);
    assert_eq!(obs.counter(Counter::RowsScanned), 0);
    assert!(obs.journal().is_empty());
    assert!(obs.decisions().is_empty());

    obs.set_enabled(true);
    system.run_query(Q1).unwrap();
    assert_eq!(obs.counter(Counter::QueriesExecuted), 1);
    assert_eq!(obs.journal().len(), 1);
}

#[test]
fn clones_share_one_registry() {
    let system = Talkback::new(movie_database());
    let clone = system.clone();
    clone.run_query(Q1).unwrap();
    // The clone's execution is visible through the original — one engine,
    // one memory.
    assert_eq!(system.database().obs().counter(Counter::QueriesExecuted), 1);
}

#[test]
fn show_metrics_golden_table_and_narration() {
    let system = Talkback::new(movie_database());
    system.run_query(Q1).unwrap();
    system.run_query("select m.title from MOVIES m").unwrap();
    let report = system.execute_show("show metrics").unwrap();

    let table = normalize_durations(&report.table);
    // Golden rows: columns are whitespace-padded, so compare token-wise.
    let row = |kind: &str, metric: &str| -> Vec<String> {
        table
            .lines()
            .map(|l| l.split_whitespace().map(str::to_string).collect::<Vec<_>>())
            .find(|t| t.first().is_some_and(|k| k == kind) && t.get(1).is_some_and(|m| m == metric))
            .unwrap_or_else(|| panic!("no {kind}/{metric} row in:\n{table}"))
    };
    // Two deterministic statements: Q1 (2 rows) and the full scan (10).
    assert_eq!(row("counter", "queries_executed")[2], "2");
    assert_eq!(row("counter", "rows_emitted")[2], "12");
    assert_eq!(row("counter", "index_probes")[2], "2");
    // Q1 reads six actors and twelve credits by scan and its two movies
    // through `pk_movies`; the full scan reads ten.
    assert_eq!(row("counter", "rows_scanned")[2], "30");
    assert_eq!(row("counter", "hash_build_rows")[2], "12");
    assert_eq!(row("decision", "start")[2], "1");
    assert_eq!(row("gauge", "journal_entries")[2], "2");
    // Percentiles are interpolated within their log2 bucket (`≈`); only the
    // max is still quoted as a bucket ceiling (`≤`).
    assert_eq!(
        row("latency", "total")[2..],
        ["count=2", "p50≈<t>", "p95≈<t>", "p99≈<t>", "max≤<t>"]
    );

    let narration = normalize_durations(&report.narration);
    assert!(
        narration.starts_with("Since startup I have executed two queries"),
        "{narration}"
    );
    assert!(
        narration.contains("scanning 30 rows to return twelve"),
        "{narration}"
    );
    assert!(
        narration.contains("my median statement finishes within <t>"),
        "{narration}"
    );
    assert!(narration.contains("My indexes answered"), "{narration}");
    assert!(narration.contains("My planner recorded"), "{narration}");
    // Planning Q1 read the statistics of its three relations for the first
    // time — nine columns, each derived once from its value counts — and the
    // scan of MOVIES found them cached.
    assert_eq!(row("counter", "stats_snapshots")[2], "3");
    assert_eq!(row("counter", "stats_columns_rederived")[2], "9");
    assert!(
        narration.contains(
            "I refreshed table statistics three times and had to re-derive nine column \
             histograms from their value counts; no table was re-read."
        ),
        "{narration}"
    );
    // Both statements were new to the plan cache.
    assert_eq!(row("counter", "plan_cache_misses")[2], "2");
    assert_eq!(row("counter", "plan_cache_uncacheable")[2], "0");
    assert!(
        narration.contains(
            "My plan cache answered none of the two statements it was asked about without \
             parsing or planning."
        ),
        "{narration}"
    );

    // A repeated shape with a range bound is planned once per class of its
    // bound: `> 2000` keeps seven of the ten movies and `> 2004` two, two
    // classes, so both are planned — and nothing is left uncacheable.
    system.run_query(Q1).unwrap();
    for year in [2000, 2004] {
        system
            .run_query(&format!(
                "select m.title from MOVIES m where m.year > {year}"
            ))
            .unwrap();
    }
    let report = system.execute_show("show metrics").unwrap();
    let counter = |metric: &str| -> String {
        let line = report.table.lines().find(|l| l.contains(metric));
        let value = line.and_then(|l| l.split_whitespace().nth(2));
        value.unwrap_or_else(|| panic!("no {metric}")).to_string()
    };
    assert_eq!(counter("plan_cache_hits"), "1");
    assert_eq!(counter("plan_cache_misses"), "4");
    assert_eq!(counter("plan_cache_uncacheable"), "0");
    assert_eq!(counter("journal_entries"), "5");
    assert!(
        report.narration.contains(
            "My plan cache answered one of the five statements it was asked about without \
             parsing or planning."
        ),
        "{}",
        report.narration
    );
}

#[test]
fn show_query_log_golden_table_and_narration() {
    let system = Talkback::new(movie_database());
    system.run_query("select m.title from MOVIES m").unwrap();
    system.run_query(Q1).unwrap();
    let report = system.execute_show("show query log").unwrap();

    let table = normalize_durations(&report.table);
    let lines: Vec<&str> = table.lines().collect();
    assert_eq!(lines.len(), 3, "{table}");
    assert!(lines[0].starts_with("seq  statement"), "{}", lines[0]);
    assert!(lines[1].starts_with("1    select m.title from MOVIES m "));
    assert!(lines[1].contains(" 10    <t>"), "{}", lines[1]);
    assert!(lines[2].starts_with("2    select m.title from MOVIES m, CAST c, ACTOR a"));
    assert!(lines[2].contains(" 2     <t>"), "{}", lines[2]);

    let narration = normalize_durations(&report.narration);
    assert!(
        narration.starts_with("I remember the last two statements."),
        "{narration}"
    );
    assert!(
        narration.contains("The slowest of them, <t>, was"),
        "{narration}"
    );

    // LIMIT keeps the newest entries.
    let limited = system.execute_show("show query log limit 1").unwrap();
    let table = normalize_durations(&limited.table);
    assert_eq!(table.lines().count(), 2, "{table}");
    assert!(table.lines().nth(1).unwrap().starts_with('2'), "{table}");

    // The `cache` column: both statements above were new to the plan cache;
    // a repeat hits, and a range bound of a class not seen yet is a miss.
    system.run_query(Q1).unwrap();
    for year in [2000, 2004] {
        system
            .run_query(&format!(
                "select m.title from MOVIES m where m.year > {year}"
            ))
            .unwrap();
    }
    let report = system.execute_show("show query log").unwrap();
    let cache: Vec<&str> = report
        .table
        .lines()
        .skip(1)
        .map(|line| {
            // The last two columns: `cache`, then `-` for no misestimate.
            let mut columns = line.split_whitespace().rev();
            assert_eq!(columns.next(), Some("-"), "{line}");
            columns.next().unwrap()
        })
        .collect();
    assert_eq!(
        cache,
        ["miss", "miss", "hit", "miss", "miss"],
        "{}",
        report.table
    );
}

#[test]
fn show_profile_golden_span_tree() {
    let system = Talkback::new(movie_database());
    system.run_query(Q1).unwrap();
    let report = system.execute_show("show profile").unwrap();

    // Span column only — times vary, structure must not. Normalizing first
    // turns the time column into `<t>`, a clean place to cut.
    let table = normalize_durations(&report.table);
    let spans: Vec<String> = table
        .lines()
        .skip(1)
        .map(|l| {
            let cut = l.find("  <t>").unwrap_or(l.len());
            l[..cut].trim_end().to_string()
        })
        .collect();
    let spans: Vec<&str> = spans.iter().map(String::as_str).collect();
    assert_eq!(
        spans,
        [
            "statement",
            "  parse",
            "  plan",
            "  execute",
            "    project: m.title",
            "      index nested-loop join: c.mid = m.id [index=pk_movies]",
            "        hash join: a.id = c.aid",
            "          filter: a.name = 'Brad Pitt'",
            "            scan: ACTOR as a",
            "          scan: CAST as c",
            "        index probe: MOVIES as m [index=pk_movies] (2 probes, 2 matches)",
        ],
        "{}",
        report.table
    );

    let narration = normalize_durations(&report.narration);
    assert!(
        narration.starts_with("My last statement was"),
        "{narration}"
    );
    assert!(
        narration.contains("took <t> end to end — <t> parsing, <t> planning, and <t> executing"),
        "{narration}"
    );
    assert!(narration.contains("returned two rows."), "{narration}");
    assert!(
        narration.contains("did the heaviest lifting at <t>"),
        "{narration}"
    );
}

/// A table where the uniform-NDV assumption is badly wrong: 99 rows share
/// one genre and a single row holds another, so `genre = 'noir'` is
/// estimated at ~50 rows but returns 1 — a flagged misestimate.
fn skewed_database() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "FILMS",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("genre", DataType::Text),
            ],
        )
        .with_primary_key(&["id"]),
    )
    .unwrap();
    for i in 0..100 {
        let genre = if i == 0 { "noir" } else { "action" };
        db.insert("FILMS", vec![Value::int(i), Value::text(genre)])
            .unwrap();
    }
    db
}
use datastore::DataType;

#[test]
fn show_misestimates_ledger_and_narration() {
    let system = Talkback::new(skewed_database());
    system
        .run_query("select f.id from FILMS f where f.genre = 'noir'")
        .unwrap();

    let report = system.execute_show("show misestimates").unwrap();
    let row = report
        .table
        .lines()
        .find(|l| l.contains("FILMS"))
        .expect("a FILMS ledger row");
    // The predicate shape is normalized: the literal became `?`.
    assert!(row.contains("f.genre = ?"), "{row}");
    assert!(row.contains("50×"), "{row}");

    // The 50× error is charged to both the filter and the project above it.
    assert!(
        report
            .narration
            .contains("I have caught my own estimates out two times across two predicate shapes."),
        "{}",
        report.narration
    );
    assert!(
        report
            .narration
            .contains("have misestimated FILMS by 50× on average"),
        "{}",
        report.narration
    );
    assert!(
        report
            .narration
            .contains("last time I expected 50 rows and saw one."),
        "{}",
        report.narration
    );

    // The journal entry carries the same confession.
    let log = system.execute_show("show query log").unwrap();
    assert!(log.table.contains("50× on"), "{}", log.table);
}

/// Regression: `ORDER BY … LIMIT k` is planned as a top-k — the sort priced at
/// `k` rows — and is now executed as one, so the ledger and the query log no
/// longer carry the 68× "misestimate" of a sort that handed on a full batch.
#[test]
fn a_top_k_statement_confesses_no_misestimate() {
    use datastore::sample::{scaled_movie_database, ScaleConfig};
    let system = Talkback::new(scaled_movie_database(ScaleConfig {
        movies: 3000,
        actors: 1800,
        directors: 600,
        ..ScaleConfig::default()
    }));
    let sql = "select m.id, m.title, m.year from MOVIES m order by m.year, m.id limit 15";
    let answer = system.run_query(sql).unwrap();
    assert_eq!(answer.len(), 15);
    let ledger = system.execute_show("show misestimates").unwrap();
    assert!(!ledger.table.contains("sort"), "{}", ledger.table);
    let entry = system.database().obs().journal().last().expect("journaled");
    assert_eq!(entry.sql, sql);
    assert_eq!(entry.worst_misestimate, None);
}

/// `lookup`'s five read shapes, the `i`-th draw of their literals; `actors`
/// are the names in ACTOR.
fn lookup_shapes(actors: &[String], i: usize) -> [String; 5] {
    let id = 1 + (i * 37) % 3000;
    [
        format!("select m.title from MOVIES m where m.id = {id}"),
        format!("select c.role from CAST c where c.mid = {id}"),
        format!(
            "select m.title from ACTOR a, CAST c, MOVIES m \
             where a.name = '{}' and c.aid = a.id and m.id = c.mid",
            actors[i * 7 % actors.len()]
        ),
        format!(
            "select m.title from MOVIES m where m.year = {} and m.id <= {}",
            1960 + i % 65,
            1500 + id / 2
        ),
        format!("select c.mid, c.aid from CAST c where c.mid = {id}"),
    ]
}

const PAPER_QUERIES: [&str; 9] = [
    Q1,
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

/// A journal entry with its timings and its cache outcome left out: the
/// statement, the span tree as (depth, name, detail, rows), the plan hash,
/// the answer's size and the worst misestimate.
type Remembered = (
    String,
    Vec<(usize, String, String, Option<u64>)>,
    u64,
    u64,
    Option<(String, f64)>,
);

fn remembered(system: &Talkback) -> Remembered {
    let entry = system.database().obs().journal().last().expect("journaled");
    let spans = (entry.span().flatten().into_iter())
        .map(|(depth, s)| (depth, s.name.to_string(), s.detail.clone(), s.rows))
        .collect();
    let worst = entry.worst_misestimate;
    (entry.sql, spans, entry.plan_hash, entry.result_rows, worst)
}

/// A `SHOW` table's rows as cells, durations normalized, `skip` columns
/// dropped, sorted: the order of `SHOW WORKLOAD` follows time spent.
fn cells(system: &Talkback, show: &str, skip: &[&str]) -> Vec<Vec<String>> {
    let table = normalize_durations(&system.execute_show(show).unwrap().table);
    let split = |line: &str| -> Vec<String> {
        line.split("  ")
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .map(str::to_string)
            .collect()
    };
    let header = split(table.lines().next().expect("a header"));
    let keep: Vec<bool> = header.iter().map(|h| !skip.contains(&h.as_str())).collect();
    let mut rows: Vec<Vec<String>> = (table.lines().map(split))
        .map(|row| {
            row.into_iter()
                .zip(&keep)
                .filter(|(_, k)| **k)
                .map(|(c, _)| c)
                .collect()
        })
        .collect();
    rows[1..].sort();
    rows
}

/// A statement served from a cached template — its profile moved into the
/// journal, its plan hash remembered from the template's first execution —
/// is remembered exactly as the same statement planned afresh: the same
/// spans, plan hash, answer size and worst misestimate, the same workload
/// ledger and misestimate ledger. That holds for the paper's nested queries
/// (Q5–Q9), whose templates bind literals lifted from inside subqueries.
#[test]
fn a_cached_statement_is_journaled_exactly_as_a_fresh_one() {
    use datastore::sample::{scaled_movie_database, ScaleConfig};
    use talkback::PlannerOptions;
    let cached_options = PlannerOptions::default();
    let fresh_options = PlannerOptions {
        use_plan_cache: false,
        ..cached_options
    };
    let lookup = || {
        let mut system = Talkback::new(scaled_movie_database(ScaleConfig {
            movies: 3000,
            actors: 1800,
            directors: 600,
            ..ScaleConfig::default()
        }));
        for ddl in [
            "create index idx_movies_year on MOVIES (year)",
            "create index idx_cast_aid on CAST (aid)",
            "create index idx_cast_mid_aid on CAST (mid, aid)",
            "create index idx_actor_name on ACTOR (name) using hash",
        ] {
            system.execute_ddl(ddl).unwrap();
        }
        system
    };
    let nested = || Talkback::new(scaled_movie_database(ScaleConfig::default()));
    let (lookup_cached, lookup_fresh) = (lookup(), lookup());
    let actors: Vec<String> = (lookup_cached.database().table("ACTOR").unwrap())
        .column_values("name")
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    let lookup_statements = (0..12).flat_map(|i| lookup_shapes(&actors, i));
    // Q1–Q9 twice, then Q5, Q7 and Q8 bound to constants of their own.
    let draws = actors.iter().take(3).zip(0..).flat_map(|(actor, i)| {
        [
            PAPER_QUERIES[4].replace("Brad Pitt", actor),
            PAPER_QUERIES[6].replace("having 1 <", &format!("having {i} <")),
            PAPER_QUERIES[7].replace("m.year) = 1", &format!("m.year) = {}", 2 - i % 2)),
        ]
    });
    let paper_statements = PAPER_QUERIES
        .iter()
        .chain(&PAPER_QUERIES)
        .map(|q| q.to_string())
        .chain(draws);
    let compare = |cached: &Talkback, fresh: &Talkback, statements: Vec<String>| {
        for sql in &statements {
            let answer = cached.run_query_with(sql, cached_options).unwrap();
            assert_eq!(answer, fresh.run_query_with(sql, fresh_options).unwrap());
            assert_eq!(remembered(cached), remembered(fresh), "{sql}");
        }
        for show in ["show workload", "show misestimates"] {
            let skip = ["cache_hits"];
            assert_eq!(
                cells(cached, show, &skip),
                cells(fresh, show, &skip),
                "{show}"
            );
        }
        cached.database().obs().counter(Counter::PlanCacheHits)
    };
    // Twelve draws of the five shapes: all but the first of each are served
    // from a template — of each class, for the range shape, whose twelve
    // bounds (`m.id <= 1500` to `<= 1704` of 3,000) fall into two classes.
    let hits = compare(&lookup_cached, &lookup_fresh, lookup_statements.collect());
    assert_eq!(hits, 4 * 11 + 10);
    // Every statement after the first of its shape is served from a
    // template: the nested ones too.
    let hits = compare(&nested(), &nested(), paper_statements.collect());
    assert_eq!(hits, 9 + 3 * 3);
}

/// Every statement that runs a query is counted, timed and journaled once,
/// whichever entry point ran it — `run_query`, `EXPLAIN ANALYZE`,
/// `explain_result` or `voice_answer` — and filed under the one workload row
/// of its SELECT. A plain `EXPLAIN` reads, counts and records nothing; served
/// from a template it is one plan-cache hit and records no decision, and
/// with the plan cache off it does not probe it.
#[test]
fn every_executed_statement_is_counted_timed_and_journaled_once() {
    use datastore::obs::Phase;
    use talkback::{SpeechRecognizer, TextToSpeech};
    let system = Talkback::new(movie_database());
    let obs = system.database().obs();
    let read = [
        Counter::RowsScanned,
        Counter::IndexProbes,
        Counter::QueriesExecuted,
    ];
    let traces = || {
        let counters = read.map(|c| obs.counter(c));
        let total = obs.latency_summary(Phase::Total).count;
        (
            counters,
            total,
            obs.journal().recorded(),
            obs.workload().len(),
        )
    };
    let (ear, voice) = (SpeechRecognizer::perfect(), TextToSpeech::default());
    for sql in PAPER_QUERIES {
        system.run_query(sql).unwrap();
        let before = traces();
        let explain = format!("explain {sql}");
        system.explain_plan(&explain).unwrap();
        assert_eq!(traces(), before, "plain EXPLAIN of {sql}");
        let (hits, decisions) = (obs.counter(Counter::PlanCacheHits), obs.decisions());
        system.explain_plan(&explain).unwrap();
        assert_eq!(traces(), before, "second plain EXPLAIN of {sql}");
        assert_eq!(obs.counter(Counter::PlanCacheHits), hits + 1, "{sql}");
        assert_eq!(obs.decisions(), decisions, "{sql}");
        let uncached = PlannerOptions {
            use_plan_cache: false,
            ..PlannerOptions::default()
        };
        system.explain_plan_with(&explain, uncached).unwrap();
        assert_eq!(obs.counter(Counter::PlanCacheHits), hits + 1, "{sql}");
        system
            .explain_plan(&format!("explain analyze {sql}"))
            .unwrap();
        system.explain_result(sql).unwrap();
        system
            .voice_answer("which ones", sql, &ear, &voice)
            .unwrap();
        let executed = obs.counter(Counter::QueriesExecuted);
        assert_eq!(obs.latency_summary(Phase::Total).count, executed, "{sql}");
        assert_eq!(obs.journal().recorded(), executed, "{sql}");
    }
    assert_eq!(obs.counter(Counter::QueriesExecuted), 4 * 9);
    assert_eq!(obs.workload().len(), 9);
}

/// Regression: `EXPLAIN ANALYZE` absorbed its feedback but journaled
/// nothing, so the next plan narrated the correction of a misestimate that
/// `SHOW MISESTIMATES` had never heard of, and `SHOW WORKLOAD` did not know
/// the SELECT had run.
#[test]
fn explain_analyze_is_journaled_as_the_select_it_runs() {
    let system = Talkback::new(skewed_database());
    let select = "select f.id from FILMS f where f.genre = 'noir'";
    let filed = |system: &Talkback| -> String {
        let ledger = system.execute_show("show misestimates").unwrap();
        let row = ledger.table.lines().find(|l| l.contains("f.genre = ?"));
        row.unwrap_or_else(|| panic!("no f.genre row in:\n{}", ledger.table))
            .trim_end()
            .to_string()
    };

    system
        .explain_plan(&format!("explain analyze {select}"))
        .unwrap();
    let row = filed(&system);
    assert!(row.contains("50×"), "{row}");
    assert!(row.ends_with('-'), "not corrected yet: {row}");

    let plan = system.explain_plan(&format!("explain {select}")).unwrap();
    assert!(
        plan.narration.starts_with(
            "Last time I expected 50 rows from FILMS's filter on `f.genre = ?` and saw one row"
        ),
        "{}",
        plan.narration
    );
    let row = filed(&system);
    assert!(row.ends_with("yes"), "corrected: {row}");

    system.run_query(select).unwrap();
    let workload = cells(&system, "show workload", &[]);
    assert_eq!(workload.len(), 2, "{workload:?}");
    let (header, row) = (&workload[0], &workload[1]);
    assert_eq!(row[0], "select f.id from FILMS f where f.genre = ?");
    let runs = header.iter().position(|h| h == "runs").unwrap();
    assert_eq!(row[runs], "2", "{workload:?}");
}

/// The registry's `rows_scanned` and `index_probes` move by exactly what the
/// journaled profile says the statement read: the rows its scans, index
/// scans and index probes handed on, and the probes they issued — for Q1–Q9
/// and `lookup`'s five shapes, each run fresh and then from its template.
#[test]
fn scan_and_probe_counters_reconcile_with_the_journaled_profile() {
    use datastore::exec::OpKind;
    use datastore::sample::{scaled_movie_database, ScaleConfig};
    use datastore::CacheStatus;
    let check = |system: &Talkback, sql: &str, cache: CacheStatus| {
        let obs = system.database().obs();
        let read = || {
            (
                obs.counter(Counter::RowsScanned),
                obs.counter(Counter::IndexProbes),
            )
        };
        let before = read();
        system.run_query(sql).unwrap();
        let entry = obs.journal().last().expect("journaled");
        assert_eq!(entry.cache, cache, "{sql}");
        let (mut scanned, mut probes) = (0, 0);
        entry.profile.walk(&mut |node| {
            if matches!(
                node.kind(),
                OpKind::Scan | OpKind::IndexScan | OpKind::IndexProbe
            ) {
                scanned += node.metrics().rows_out;
            }
            probes += node.metrics().probes;
        });
        let tree = entry.profile.render_tree(true);
        assert_eq!(
            read().0 - before.0,
            scanned,
            "rows scanned by {sql}\n{tree}"
        );
        assert_eq!(read().1 - before.1, probes, "index probes of {sql}\n{tree}");
    };
    let paper = Talkback::new(movie_database());
    for sql in PAPER_QUERIES {
        check(&paper, sql, CacheStatus::Miss);
        check(&paper, sql, CacheStatus::Hit);
    }
    let mut lookup = Talkback::new(scaled_movie_database(ScaleConfig {
        movies: 3000,
        actors: 1800,
        directors: 600,
        ..ScaleConfig::default()
    }));
    for ddl in [
        "create index idx_movies_year on MOVIES (year)",
        "create index idx_cast_aid on CAST (aid)",
        "create index idx_cast_mid_aid on CAST (mid, aid)",
        "create index idx_actor_name on ACTOR (name) using hash",
    ] {
        lookup.execute_ddl(ddl).unwrap();
    }
    let actors: Vec<String> = (lookup.database().table("ACTOR").unwrap())
        .column_values("name")
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    for (fresh, cached) in lookup_shapes(&actors, 0)
        .iter()
        .zip(lookup_shapes(&actors, 1))
    {
        check(&lookup, fresh, CacheStatus::Miss);
        check(&lookup, &cached, CacheStatus::Hit);
    }
}

/// A journaled statement holds its plan's shape and its counters, not the
/// catalog: after an index on MOVIES(year) is created and dropped again and
/// a movie is inserted, the point read and Q1 read the same in `SHOW QUERY
/// LOG` and `SHOW PROFILE` (durations masked) as they did when they ran.
#[test]
fn a_journaled_statement_does_not_depend_on_the_catalog() {
    let mut system = Talkback::new(movie_database());
    let point = "select m.title from MOVIES m where m.id = 3";
    let read = |system: &Talkback| {
        let show = |what: &str| {
            let report = system.execute_show(what).unwrap();
            normalize_durations(&format!("{}\n{}", report.table, report.narration))
        };
        let journal = system.database().obs().journal().tail(None);
        let spans: Vec<_> = journal.iter().map(|e| format!("{:?}", e.span())).collect();
        (show("show query log"), show("show profile"), spans)
    };
    system.run_query(point).unwrap();
    let point_profile = read(&system).1;
    system.run_query(Q1).unwrap();
    let before = read(&system);
    system
        .execute_ddl("create index idx_movies_year on MOVIES (year)")
        .unwrap();
    system.execute_ddl("drop index idx_movies_year").unwrap();
    let movie = vec![Value::int(11), Value::text("Late Entry"), Value::int(2009)];
    system.database_mut().insert("MOVIES", movie).unwrap();
    let after = read(&system);
    assert_eq!(after.0, before.0, "SHOW QUERY LOG changed");
    assert_eq!(after.1, before.1, "SHOW PROFILE of Q1 changed");
    assert_eq!(after.2, before.2, "a journaled span tree changed");
    assert!(point_profile.contains("index scan: MOVIES as m [index=pk_movies point m.id = 3]"));
    assert!(after.2[0].contains("m.id = 3"), "{}", after.2[0]);
}
