//! The translation cache: `Talkback::explain_query` answers a SELECT from a
//! sentence template of its shape, and that must never change a word.
//!
//! * *template ≡ fresh.* Seeded statements of the talkback workload's nine
//!   shapes (Q1–Q9), the `IN` / signed-number / empty-string selections and
//!   EMP/DEPT selections, with strings drawn from the data and adversarial
//!   ones (`O'Brien`, `''`, non-ASCII, the slot marker's own characters, a
//!   column's and a table's name, two slots with one value, strings the
//!   sentence realizer would rewrite) and numbers 0, 1, 2, 12 and −5, in
//!   whitespace and keyword-case variants, asked repeatedly in a shuffled
//!   order: every answer equals `QueryTranslator::translate_sql` on a fresh
//!   translator, in full (sentences, notes, classification, query graph).
//! * *invalidation and counts.* A heading change, a new table, two systems
//!   sharing one cache over two catalogs; one miss per shape, one entry per
//!   number, one negative entry for a shape whose words depend on a string.
//!
//! The seeds are fixed; `TRANSLATE_SEED=<u64>` adds one more (CI passes the
//! clock), and every failure names its seed and statement.

use datastore::obs::Counter;
use datastore::sample::{employee_database, movie_database};
use datastore::schema::{ColumnDef, TableSchema};
use datastore::{DataType, Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlparse::normalize_strings;
use talkback::{QueryTranslator, Talkback, UserProfile};

fn seeds() -> Vec<u64> {
    let mut seeds = vec![0x0025_0001, 0x0025_0002];
    if let Ok(extra) = std::env::var("TRANSLATE_SEED") {
        seeds.push(extra.parse().expect("TRANSLATE_SEED is a u64"));
    }
    seeds
}

/// Strings that exist in a column of `db`, sorted.
fn column_strings(db: &Database, table: &str, column: &str) -> Vec<String> {
    let mut values: Vec<String> = (db.table(table).unwrap().column_values(column).iter())
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    values.sort();
    values.dedup();
    values
}

/// Strings no data holds, each aimed at one way a slot could go wrong.
const ADVERSARIAL: [&str; 14] = [
    "O'Brien",
    "",
    "Amélie Poulain",
    "Ñúñez-Åström",
    "\u{E000}'Ab0\u{E001}",
    "\u{E001}",
    "title",
    "MOVIES",
    "brad pitt",
    "Brad Pitt.",
    "Brad  Pitt",
    " Troy",
    "(b) ,c",
    "it's ''quoted''",
];

/// A string as a SQL literal.
fn quoted(s: &str) -> String {
    Value::text(s).sql_literal()
}

/// One statement of the movie schema with `s` and `t` as its strings and
/// `n` as its number, in one of sixteen shapes.
fn movie_statement(shape: usize, s: &str, t: &str, n: i64) -> String {
    let (s, t) = (quoted(s), quoted(t));
    match shape {
        0 => format!(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = {s}"
        ),
        1 => format!(
            "select a.name, m.title from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, \
             GENRE g where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id \
             and m.id = g.mid and d.name = {s} and g.genre = {t}"
        ),
        2 => "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
              where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
              and a1.id > a2.id"
            .to_string(),
        3 => "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title"
            .to_string(),
        4 => format!(
            "select m.title from MOVIES m where m.id in ( \
             select c.mid from CAST c where c.aid in ( \
             select a.id from ACTOR a where a.name = {s}))"
        ),
        5 => "select m.title from MOVIES m where not exists ( \
              select * from GENRE g1 where not exists ( \
              select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))"
            .to_string(),
        6 => format!(
            "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
             group by m.id, m.title having {n} < (select count(*) from GENRE g where g.mid = m.id)"
        ),
        7 => format!(
            "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id \
             group by a.id, a.name having count(distinct m.year) = {n}"
        ),
        8 => "select a.name from MOVIES m, CAST c, ACTOR a \
              where m.id = c.mid and c.aid = a.id \
              and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
              where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)"
            .to_string(),
        9 => format!("select m.title from MOVIES m where m.year in ({n}, 2004)"),
        10 => format!("select m.title from MOVIES m where m.title not in ({s}, {t})"),
        11 => format!(
            "select m.title, m.year from MOVIES m where m.year = -{}",
            n.abs()
        ),
        12 => format!("select m.title from MOVIES m where m.title = {s} and m.year <> {n}"),
        13 => format!(
            "select m.title from MOVIES m, GENRE g where m.id = g.mid and g.genre = {s} \
             order by m.year desc limit {}",
            n.abs() + 1
        ),
        14 => format!("select m.title from MOVIES m where m.title like {s}"),
        // A superlative over a constant lower-cases it: no template.
        _ => format!("select a.name from ACTOR a where {s} <= all (select m.title from MOVIES m)"),
    }
}

/// One EMP/DEPT statement, in one of four shapes.
fn employee_statement(shape: usize, s: &str, t: &str, n: i64) -> String {
    let (s, t) = (quoted(s), quoted(t));
    match shape {
        0 => format!("select e.name from EMP e where e.name = {s}"),
        1 => format!(
            "select e.name, d.dname from EMP e, DEPT d \
             where e.did = d.did and d.dname = {s} and e.sal > {n}"
        ),
        2 => "select e1.name from EMP e1, EMP e2, DEPT d \
              where e1.did = d.did and d.mgr = e2.eid and e1.sal > e2.sal"
            .to_string(),
        _ => format!("select d.dname from DEPT d where d.dname in ({s}, {t}, {s})"),
    }
}

/// The same statement as another user might type it: keywords upper-cased
/// or whitespace widened (outside the strings, which stay as they are).
fn variant(sql: &str, which: u32) -> String {
    let mut out = String::new();
    for (i, piece) in sql.split('\'').enumerate() {
        if i > 0 {
            out.push('\'');
        }
        // Odd pieces lie inside string literals (a doubled quote adds an
        // empty even piece, so the parity holds).
        if i % 2 == 1 {
            out.push_str(piece);
            continue;
        }
        out.push_str(&match which {
            0 => piece.to_string(),
            1 => piece
                .replace("select ", "SELECT ")
                .replace(" from ", " FROM ")
                .replace(" where ", "  WHERE "),
            _ => piece.replace(' ', "\n\t "),
        });
    }
    out
}

/// The generated statements of one seed over one database.
fn statements(
    rng: &mut StdRng,
    data: &[String],
    shapes: usize,
    make: fn(usize, &str, &str, i64) -> String,
) -> Vec<String> {
    let pick = |rng: &mut StdRng| -> String {
        if rng.gen_range(0..3) == 0 {
            ADVERSARIAL[rng.gen_range(0..ADVERSARIAL.len())].to_string()
        } else {
            data[rng.gen_range(0..data.len())].clone()
        }
    };
    let mut out = Vec::new();
    for shape in 0..shapes {
        for _ in 0..8 {
            let s = pick(rng);
            // One pair in four has one value in both slots.
            let t = if rng.gen_range(0..4) == 0 {
                s.clone()
            } else {
                pick(rng)
            };
            let n = [0i64, 1, 2, 12, -5][rng.gen_range(0..5usize)];
            out.push(variant(&make(shape, &s, &t, n), rng.gen_range(0..3)));
        }
    }
    out
}

/// Ask every statement three times in a shuffled order and hold each answer
/// to a fresh translation; returns how many came from a template.
fn hold_to_fresh(system: &Talkback, statements: &[String], seed: u64) -> u64 {
    let mut asked: Vec<&String> = statements
        .iter()
        .chain(statements)
        .chain(statements)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..asked.len()).rev() {
        asked.swap(i, rng.gen_range(0..=i));
    }
    let hits = || system.database().obs().counter(Counter::TranslationHits);
    let before = hits();
    for sql in asked {
        let fresh = QueryTranslator::movie_domain().translate_sql(system.database().catalog(), sql);
        let answered = system.explain_query(sql);
        assert_eq!(
            answered.as_ref().ok(),
            fresh.as_ref().ok(),
            "seed {seed}: {sql:?} was translated differently from its template"
        );
        assert_eq!(answered.is_err(), fresh.is_err(), "seed {seed}: {sql:?}");
    }
    hits() - before
}

#[test]
fn a_template_answers_exactly_what_a_fresh_translation_says() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = movie_database();
        let mut data = column_strings(&db, "ACTOR", "name");
        data.extend(column_strings(&db, "DIRECTOR", "name"));
        data.extend(column_strings(&db, "GENRE", "genre"));
        data.extend(column_strings(&db, "MOVIES", "title"));
        let movies = statements(&mut rng, &data, 16, movie_statement);
        let hits = hold_to_fresh(&Talkback::new(db), &movies, seed);
        assert!(
            hits as usize > movies.len(),
            "seed {seed}: only {hits} hits"
        );

        let db = employee_database();
        let mut data = column_strings(&db, "EMP", "name");
        data.extend(column_strings(&db, "DEPT", "dname"));
        let employees = statements(&mut rng, &data, 4, employee_statement);
        let hits = hold_to_fresh(&Talkback::new(db), &employees, seed);
        assert!(
            hits as usize > employees.len(),
            "seed {seed}: only {hits} hits"
        );
    }
}

/// The oracle sees a planted bug: a template filled with its two strings
/// swapped is not the statement's translation.
#[test]
fn a_rebinding_that_swaps_two_slots_is_caught() {
    let db = movie_database();
    let translator = QueryTranslator::movie_domain();
    let sql = movie_statement(1, "G. Loucas", "action", 0);
    let shape = normalize_strings(&sql).unwrap();
    let fresh = translator.translate_sql(db.catalog(), &sql).unwrap();
    let template = translator.template(db.catalog(), &shape, &fresh).unwrap();
    assert_eq!(template.bind_strings(&sql, &shape.literals).unwrap(), fresh);
    let swapped: Vec<Value> = shape.literals.iter().rev().cloned().collect();
    let planted = template.bind_strings(&sql, &swapped).unwrap();
    assert_ne!(planted, fresh);
    assert_ne!(planted.best, fresh.best);
}

fn counts(system: &Talkback) -> [u64; 3] {
    let obs = system.database().obs();
    [
        obs.counter(Counter::TranslationHits),
        obs.counter(Counter::TranslationMisses),
        obs.counter(Counter::TranslationUncacheable),
    ]
}

fn fresh(system: &Talkback, sql: &str) -> talkback::QueryTranslation {
    (QueryTranslator::movie_domain())
        .translate_sql(system.database().catalog(), sql)
        .unwrap()
}

#[test]
fn one_shape_is_one_miss_and_every_number_is_its_own_entry() {
    let system = Talkback::new(movie_database());
    for actor in [
        "Brad Pitt",
        "Tom Hanks",
        "Brad Pitt",
        "Kevin Bacon",
        "Meryl Streep",
    ] {
        let sql = movie_statement(0, actor, "", 0);
        assert_eq!(system.explain_query(&sql).unwrap(), fresh(&system, &sql));
    }
    assert_eq!(counts(&system), [4, 1, 0]);
    // Q7's words depend on its number: three numbers, three entries.
    for n in [0, 1, 2, 0, 1, 2] {
        let sql = movie_statement(6, "", "", n);
        assert_eq!(system.explain_query(&sql).unwrap(), fresh(&system, &sql));
    }
    assert_eq!(counts(&system), [7, 4, 0]);
    // DML has no shape key: translated, not counted.
    system
        .explain_query("delete from GENRE where genre = 'noir'")
        .unwrap();
    assert_eq!(counts(&system), [7, 4, 0]);
}

/// A superlative over a string constant reads its attribute lower-cased, so
/// its words depend on the string: the marker does not survive, the shape
/// gets one negative entry and is translated afresh from then on.
#[test]
fn a_shape_whose_template_fails_verification_is_translated_afresh() {
    let system = Talkback::new(movie_database());
    let sql = |s: &str| movie_statement(15, s, "", 0);
    // (Lower case first: its words would survive a case change.)
    for s in ["brad", "Brad", "Troy", "zed"] {
        assert_eq!(
            system.explain_query(&sql(s)).unwrap(),
            fresh(&system, &sql(s))
        );
    }
    assert_eq!(counts(&system), [0, 4, 3]);
    // A string that fits no slot is translated afresh too, and leaves the
    // shape's template alone.
    let q1 = |s: &str| movie_statement(0, s, "", 0);
    for s in ["Brad Pitt", "Brad Pitt.", "", "Brad Pitt"] {
        assert_eq!(
            system.explain_query(&q1(s)).unwrap(),
            fresh(&system, &q1(s))
        );
    }
    assert_eq!(counts(&system), [1, 7, 5]);
}

#[test]
fn catalog_changes_retire_templates_and_a_shared_cache_keeps_catalogs_apart() {
    let mut system = Talkback::new(movie_database());
    let sql = movie_statement(12, "Troy", "", 2004);
    let before = system.explain_query(&sql).unwrap();
    assert_eq!(
        before.best,
        "Find the movies whose title is Troy and whose year is not 2004."
    );
    // A clone shares the cache; its catalog is about to differ.
    let mut other = system.clone();
    let profile = UserProfile {
        heading_overrides: vec![("MOVIES".into(), "year".into())],
        ..UserProfile::default()
    };
    let content = other.content().clone();
    content.apply_profile(other.database_mut(), &profile);
    let after = other.explain_query(&sql).unwrap();
    assert_eq!(after, fresh(&other, &sql));
    assert_ne!(after.best, before.best, "the heading is part of the words");
    // Each answers for its own catalog, however the asks interleave.
    for _ in 0..2 {
        assert_eq!(system.explain_query(&sql).unwrap(), before);
        assert_eq!(other.explain_query(&sql).unwrap(), after);
    }
    // Creating a table moves the version as well.
    let misses = counts(&system)[1];
    system
        .database_mut()
        .create_table(TableSchema::new(
            "AWARD",
            vec![ColumnDef::new("mid", DataType::Integer)],
        ))
        .unwrap();
    assert_eq!(system.explain_query(&sql).unwrap(), fresh(&system, &sql));
    assert_eq!(counts(&system)[1], misses + 1);
}

#[test]
fn show_metrics_says_how_many_translations_came_from_a_template() {
    let system = Talkback::new(movie_database());
    for actor in ["Brad Pitt", "Tom Hanks", "Brad Pitt.", "Kevin Bacon"] {
        system
            .explain_query(&movie_statement(0, actor, "", 0))
            .unwrap();
    }
    let report = system.execute_show("show metrics").unwrap();
    for row in [
        "counter  translation_hits            2",
        "counter  translation_misses          2",
        "counter  translation_uncacheable     1",
    ] {
        assert!(report.table.contains(row), "{row}\n{}", report.table);
    }
    assert_eq!(
        report.narration,
        "I translated two of the four queries you asked me to explain from a template; for one \
         of them the strings change the wording, so I translated it afresh."
    );
}
