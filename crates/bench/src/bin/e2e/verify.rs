//! Checks that the answers are right, so that one command both measures and
//! verifies: row checksums that must repeat in every pass and under the
//! naive reference options, structural checks on narration text, and a
//! committed digest for the default seed.

use crate::workloads::{Op, Rng, Workload};
use datastore::exec::ResultSet;
use datastore::fingerprint::{fnv, fnv_hash, FNV_OFFSET};
use datastore::{Database, Value};
use talkback::{PlannerOptions, Talkback};

/// What a slot answered.
pub enum Outcome {
    Rows(ResultSet),
    /// Narration. It may embed timings, so it is checked for structure and
    /// never compared between passes.
    Text(String),
    /// Rows written or removed.
    Count(usize),
}

/// Check one answer on its own and reduce it to what must repeat exactly in
/// every pass: the row checksum, the count of rows written, or the text of
/// an `explain_query` narration (a function of the statement and the
/// catalog alone; other narrations may embed timings).
pub fn check(op: &Op, outcome: &Outcome) -> Result<Option<u64>, String> {
    match (op, outcome) {
        (Op::Run(sql), Outcome::Rows(rows)) => Ok(Some(checksum(sql, rows))),
        (_, Outcome::Count(n)) => Ok(Some(*n as u64)),
        (_, Outcome::Text(text)) => {
            // `explain_result` talks about the answer's size and names a
            // condition only when the answer is empty.
            let sql = match op {
                Op::ExplainQuery(sql) | Op::ExplainPlan(sql) | Op::Voice { sql, .. } => {
                    sql.as_str()
                }
                _ => "",
            };
            check_narration(sql, text)?;
            Ok(matches!(op, Op::ExplainQuery(_)).then(|| fnv_hash(text.as_bytes())))
        }
        _ => Err("answer of the wrong kind".into()),
    }
}

/// A narration must say something, finish its last sentence, and mention
/// every string constant of the statement it talks about.
pub fn check_narration(sql: &str, text: &str) -> Result<(), String> {
    let text = text.trim_end();
    if !text.ends_with(['.', '!', '?']) {
        return Err(format!("narration is empty or unfinished: {text:?}"));
    }
    let lower = text.to_lowercase();
    match string_literals(sql)
        .into_iter()
        .find(|literal| !lower.contains(&literal.to_lowercase()))
    {
        Some(missing) => Err(format!("narration does not mention '{missing}': {text:?}")),
        None => Ok(()),
    }
}

/// The contents of the single-quoted constants of a statement.
pub fn string_literals(sql: &str) -> Vec<&str> {
    sql.split('\'').skip(1).step_by(2).collect()
}

fn hash_value(hash: &mut u64, value: &Value) {
    match value {
        Value::Null => fnv(hash, b"n"),
        Value::Integer(i) => fnv(hash, &i.to_le_bytes()),
        Value::Float(f) => fnv(hash, &f.to_bits().to_le_bytes()),
        Value::Text(s) => fnv(hash, s.as_bytes()),
        Value::Boolean(b) => fnv(hash, &[*b as u8]),
        Value::Date(d) => fnv(hash, d.iso_format().as_bytes()),
    }
    // A separator, so ("ab", "c") and ("a", "bc") differ.
    fnv(hash, &[0xff]);
}

/// Checksum of an answer: insensitive to row order unless the statement
/// asks for one with `ORDER BY`.
pub fn checksum(sql: &str, result: &ResultSet) -> u64 {
    let ordered = sql.contains(" order by ");
    let mut sum = result.rows.len() as u64;
    for (position, row) in result.rows.iter().enumerate() {
        let mut hash = FNV_OFFSET;
        if ordered {
            fnv(&mut hash, &position.to_le_bytes());
        }
        for value in row.values() {
            hash_value(&mut hash, value);
        }
        sum = sum.wrapping_add(hash);
    }
    sum
}

/// The planner options every answer is held against: no indexes, no vector
/// kernels, no plan cache, no feedback, one thread.
pub fn reference_options() -> PlannerOptions {
    PlannerOptions {
        use_indexes: false,
        use_vectorized: false,
        use_plan_cache: false,
        use_feedback: false,
        parallelism: 1,
        ..PlannerOptions::default()
    }
}

/// Re-run a seeded sample of up to 200 `run_query` slots under the reference
/// options; returns the slots whose checksum differs from `fingerprints`.
pub fn reference_mismatches(
    system: &Talkback,
    seed: u64,
    ops: &[Op],
    fingerprints: &[Option<u64>],
) -> Vec<(usize, String)> {
    let mut slots: Vec<usize> = (0..ops.len())
        .filter(|&i| matches!(ops[i], Op::Run(_)))
        .collect();
    Rng::new(seed).shuffle(&mut slots);
    slots.truncate(200);
    let mut mismatches = Vec::new();
    for slot in slots {
        let Op::Run(sql) = &ops[slot] else { continue };
        match system.run_query_with(sql, reference_options()) {
            Ok(rows) if Some(checksum(sql, &rows)) == fingerprints[slot] => {}
            Ok(_) => mismatches.push((slot, "differs under the reference options".to_string())),
            Err(e) => mismatches.push((slot, format!("reference run failed: {e}"))),
        }
    }
    mismatches
}

/// One number for everything the run answered (FNV over the slot
/// fingerprints), compared with `expected/<workload>.digest`.
pub fn digest(fingerprints: &[Option<u64>]) -> u64 {
    let mut hash = FNV_OFFSET;
    for fingerprint in fingerprints {
        fnv(&mut hash, &fingerprint.unwrap_or(0).to_le_bytes());
    }
    hash
}

/// The committed digest of the default seed, if there is one.
pub fn expected_digest(workload: Workload) -> Option<u64> {
    let text = match workload {
        Workload::Talkback => include_str!("expected/talkback.digest"),
        Workload::Lookup => include_str!("expected/lookup.digest"),
        Workload::Churn => include_str!("expected/churn.digest"),
        Workload::Analytic => include_str!("expected/analytic.digest"),
        Workload::Nested => include_str!("expected/nested.digest"),
    };
    u64::from_str_radix(text.trim(), 16).ok()
}

/// Row count of every table, by name: what `churn`'s sweep must restore.
pub fn row_counts(db: &Database) -> Vec<(String, usize)> {
    db.tables()
        .map(|t| (t.name().to_string(), t.len()))
        .collect()
}
