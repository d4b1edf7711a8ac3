//! Property-style tests over the core data structures and invariants.
//!
//! The build environment is offline, so instead of `proptest` these tests
//! use seeded pseudo-random sampling (deterministic across runs) to exercise
//! the same invariants: total ordering of values, SQL display round-trips,
//! CSV round-trips, clause-merge word preservation, morphology totality and
//! LIKE identities.

use datastore::csvio::{csv_to_table, table_to_csv};
use datastore::{ColumnDef, DataType, Table, TableSchema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlparse::parse_query;

const CASES: usize = 256;

fn ident(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=9usize);
    let mut s = String::from("x_");
    for i in 0..len {
        let c = if i == 0 {
            b'a' + rng.gen_range(0..26u8)
        } else {
            match rng.gen_range(0..3u8) {
                0 => b'a' + rng.gen_range(0..26u8),
                1 => b'0' + rng.gen_range(0..10u8),
                _ => b'_',
            }
        };
        s.push(c as char);
    }
    s
}

fn printable_text(rng: &mut StdRng, min: usize, max: usize) -> String {
    let len = rng.gen_range(min..=max);
    (0..len)
        .map(|_| (b' ' + rng.gen_range(0..95u8)) as char)
        .collect()
}

fn value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5u8) {
        0 => Value::Null,
        1 => Value::Integer(rng.gen_range(i64::MIN..i64::MAX)),
        2 => Value::Boolean(rng.gen_bool(0.5)),
        3 => Value::text(printable_text(rng, 0, 20)),
        _ => Value::Float(rng.gen_range(-2_000_000..2_000_000i64) as f64 / 1000.0),
    }
}

/// `Value::total_cmp` is a total order: antisymmetric and transitive on
/// sampled triples, and consistent with equality.
#[test]
fn value_total_order() {
    use std::cmp::Ordering;
    let mut rng = StdRng::seed_from_u64(0xDB01);
    for _ in 0..CASES {
        let (a, b, c) = (value(&mut rng), value(&mut rng), value(&mut rng));
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        assert_eq!(ab, ba.reverse(), "antisymmetry failed for {a:?} vs {b:?}");
        if ab == Ordering::Less && b.total_cmp(&c) == Ordering::Less {
            assert_eq!(
                a.total_cmp(&c),
                Ordering::Less,
                "transitivity failed for {a:?} < {b:?} < {c:?}"
            );
        }
        assert_eq!(
            a.total_cmp(&a),
            Ordering::Equal,
            "reflexivity failed for {a:?}"
        );
    }
}

/// SQL parse → display → parse is a fixpoint for simple generated
/// single-table queries.
#[test]
fn sql_display_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xDB02);
    for _ in 0..CASES {
        let table = ident(&mut rng);
        let column = ident(&mut rng);
        let constant = rng.gen_range(0..10_000i64);
        let sql = format!(
            "select {t}.{c} from {t} where {t}.{c} >= {k} order by {t}.{c} limit 7",
            t = table,
            c = column,
            k = constant
        );
        let once = parse_query(&sql).unwrap();
        let printed = once.to_string();
        let twice = parse_query(&printed).unwrap();
        assert_eq!(once, twice, "round trip diverged for {sql}");
    }
}

/// CSV export/import round-trips arbitrary text content (quotes, commas,
/// newlines) and NULLs. Labels are non-empty: the CSV layer deliberately
/// reads an empty cell back as NULL, so empty strings do not round-trip by
/// design.
#[test]
fn csv_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xDB03);
    for _ in 0..64 {
        let schema = TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::nullable("label", DataType::Text),
                ColumnDef::nullable("score", DataType::Integer),
            ],
        );
        let mut table = Table::new(schema.clone());
        let rows = rng.gen_range(0..20usize);
        for i in 0..rows {
            let label = printable_text(&mut rng, 1, 15);
            let score = if rng.gen_bool(0.5) {
                Value::int(rng.gen_range(-1000..1000i64))
            } else {
                Value::Null
            };
            table
                .insert_values(vec![Value::int(i as i64), Value::text(label), score])
                .unwrap();
        }
        let csv = table_to_csv(&table);
        let back = csv_to_table(schema, &csv).unwrap();
        assert_eq!(back.len(), table.len());
        for (a, b) in table.rows().iter().zip(back.rows()) {
            assert_eq!(a, b);
        }
    }
}

/// Clause merging never loses content words: every word of every input
/// clause appears in the merged output.
#[test]
fn merge_preserves_words() {
    let mut rng = StdRng::seed_from_u64(0xDB04);
    for _ in 0..CASES {
        let n = rng.gen_range(1..6usize);
        let clauses: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.gen_range(1..=8usize);
                let suffix: String = (0..len)
                    .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                    .collect();
                format!("Woody Allen was born {suffix}")
            })
            .collect();
        let merged = templates::merge_clauses(&clauses, 2);
        let merged_text = merged.join(" ");
        for clause in &clauses {
            for word in clause.split_whitespace() {
                assert!(merged_text.contains(word), "lost word {word}");
            }
        }
    }
}

/// The morphology helpers never panic and keep basic invariants.
#[test]
fn morphology_is_total() {
    let mut rng = StdRng::seed_from_u64(0xDB05);
    for _ in 0..CASES {
        let len = rng.gen_range(1..=12usize);
        let word: String = (0..len)
            .map(|_| {
                let c = b'a' + rng.gen_range(0..26u8);
                if rng.gen_bool(0.3) {
                    c.to_ascii_uppercase() as char
                } else {
                    c as char
                }
            })
            .collect();
        let plural = nlg::pluralize(&word);
        assert!(plural.len() >= word.len());
        let article = nlg::indefinite_article(&word);
        assert!(article == "a" || article == "an");
        let possessive = nlg::possessive(&word);
        assert!(possessive.starts_with(&word));
    }
}

/// LIKE matching: a pattern equal to the string always matches, and `%`
/// alone matches everything.
#[test]
fn like_match_identities() {
    let mut rng = StdRng::seed_from_u64(0xDB06);
    for _ in 0..CASES {
        let len = rng.gen_range(0..=20usize);
        let s: String = (0..len)
            .map(|_| match rng.gen_range(0..3u8) {
                0 => (b'a' + rng.gen_range(0..26u8)) as char,
                1 => (b'A' + rng.gen_range(0..26u8)) as char,
                _ => {
                    if rng.gen_bool(0.5) {
                        (b'0' + rng.gen_range(0..10u8)) as char
                    } else {
                        ' '
                    }
                }
            })
            .collect();
        assert!(datastore::expr::like_match(&s, &s));
        assert!(datastore::expr::like_match(&s, "%"));
    }
}
