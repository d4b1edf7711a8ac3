//! Integration-test crate for the `talkback` workspace.
//!
//! The actual tests live in `tests/tests/*.rs`; this library only exposes a
//! couple of tiny helpers shared between those test files.

use datastore::exec::ResultSet;
use datastore::obs::Counter;
use talkback::{PlanDecision, PlannerOptions, Talkback};

/// Normalize whitespace so narrative comparisons are robust to incidental
/// spacing differences (double spaces, trailing spaces before punctuation).
pub fn squash_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Case-insensitive "does the narrative mention this phrase" helper.
pub fn mentions(haystack: &str, needle: &str) -> bool {
    haystack.to_lowercase().contains(&needle.to_lowercase())
}

/// Run `sql` once and say what the executor read for it, from the registry's
/// counters either side of the run: the answer, rows scanned, index probes.
/// Counted work reads the same in a debug build on a loaded machine, which a
/// wall-clock ratio does not.
pub fn counted_run(system: &Talkback, sql: &str, options: PlannerOptions) -> (ResultSet, u64, u64) {
    let obs = system.database().obs();
    let read = || {
        (
            obs.counter(Counter::RowsScanned),
            obs.counter(Counter::IndexProbes),
        )
    };
    let before = read();
    let answer = system.run_query_with(sql, options).unwrap();
    let after = read();
    (answer, after.0 - before.0, after.1 - before.1)
}

/// Recorded ⇒ found. Run `sql` once with a flagging threshold so low that
/// nearly every filter is a misestimate, then plan it again: every key the
/// feedback store filed something under in that run must come back as a
/// [`PlanDecision::Feedback`] naming that table and shape — what the executor
/// recorded is what the planner looks up. Returns the keys the run touched.
pub fn assert_recorded_feedback_is_found(
    system: &Talkback,
    sql: &str,
    options: PlannerOptions,
) -> Vec<(String, String)> {
    let options = PlannerOptions {
        misestimate_factor: 1.01,
        ..options
    };
    let adaptive = system.database().adaptive();
    let before = adaptive.feedback();
    system
        .run_query_with(sql, options)
        .unwrap_or_else(|e| panic!("{sql}\nfailed under {options:?}: {e}"));
    let after = adaptive.feedback();
    let mut touched = Vec::new();
    for (table, shapes) in after.iter() {
        for (shape, entry) in shapes {
            let known = before.get(table).and_then(|shapes| shapes.get(shape));
            if known.map(|e| e.observations) != Some(entry.observations) {
                touched.push((table.clone(), shape.clone()));
            }
        }
    }
    let replanned = system
        .explain_plan_with(sql, options)
        .unwrap_or_else(|e| panic!("{sql}\nfailed to plan again: {e}"));
    for (table, shape) in &touched {
        let found = replanned.decisions.iter().any(|d| {
            matches!(d, PlanDecision::Feedback { table: t, shape: s, .. } if t == table && s == shape)
        });
        assert!(
            found,
            "{sql}\nrecorded ({table}, {shape}) and the next plan did not look it up:\n{}",
            replanned.tree
        );
    }
    touched
}

/// Replace every duration token (`412 µs`, `3.8 ms`, `1.20 s`) with `<t>`
/// so golden comparisons survive timing noise. Hand-written — the workspace
/// has no regex crate.
pub fn normalize_durations(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    'outer: while !rest.is_empty() {
        let digits = rest.chars().take_while(|c| c.is_ascii_digit()).count();
        if digits > 0 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squash_ws_collapses_runs_of_whitespace() {
        assert_eq!(squash_ws("a  b\t c\n d"), "a b c d");
    }

    #[test]
    fn mentions_is_case_insensitive() {
        assert!(mentions("Woody Allen was born", "woody allen"));
        assert!(!mentions("Woody Allen was born", "brad pitt"));
    }
}
