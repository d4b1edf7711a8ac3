//! Result explanation (§3.1): "when a query returns an empty answer, it is
//! nice to know the parts of the query that are responsible for the failure.
//! Similarly, when a query is expected to return a very large number of
//! answers, it is useful to know the reasons."

use crate::error::TalkbackError;
use crate::planner::PlannerOptions;
use crate::query::sole_scan_table;
use crate::statement::{prepare, Prepared};
use datastore::exec::{OpKind, PlanProfile, ProfileNode};
use datastore::Database;
use nlg::{finish_sentence, join_sentences, quote_sql};
use sqlparse::ast::SelectStatement;
use std::borrow::Cow;
use std::time::Instant;
use templates::Lexicon;

/// The outcome of running and analysing a query's answer size.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultExplanation {
    /// Number of rows the query produced.
    pub rows: usize,
    /// Narrative explanation of the result size.
    pub narrative: String,
    /// Per-predicate notes read from the executor's instrumentation:
    /// (predicate SQL, rows that reached the predicate before it eliminated
    /// all of them). A predicate with a positive count is (part of) the
    /// reason for an empty answer.
    pub predicate_notes: Vec<(String, usize)>,
    /// The instrumented per-operator profile of the single execution the
    /// explanation is based on.
    pub profile: PlanProfile,
}

/// Threshold above which a result is narrated as "very large".
pub const LARGE_RESULT_THRESHOLD: usize = 100;

/// Execute the query once, instrumented, and explain its result cardinality.
/// Empty results are attributed by reading the per-operator counters: the
/// predicate (or join) whose operator saw rows come in but let none out is
/// the culprit. No predicate-subset re-execution is needed — the planner
/// pushes each WHERE conjunct into its own filter operator, so the profile
/// pinpoints individual conditions.
///
/// With no text to key the plan cache, the query is planned afresh under the
/// default options, then runs and is journaled (as its `Display` text).
pub fn explain_result(
    db: &Database,
    lexicon: &Lexicon,
    query: &SelectStatement,
) -> Result<ResultExplanation, TalkbackError> {
    let start = Instant::now();
    let sql = query.to_string();
    let options = PlannerOptions {
        use_plan_cache: false,
        ..PlannerOptions::default()
    };
    let prepared = prepare(db, &sql, || Ok(Cow::Borrowed(query)), options, start)?;
    explain_prepared(lexicon, prepared)
}

/// Run a prepared query and explain its result cardinality from the
/// profile of that one execution.
pub(crate) fn explain_prepared(
    lexicon: &Lexicon,
    prepared: Prepared,
) -> Result<ResultExplanation, TalkbackError> {
    let conditions = prepared.where_conditions();
    let (result, profile) = prepared.run(PlanProfile::clone)?;
    let rows = result.len();
    let mut predicate_notes = Vec::new();
    let narrative = if rows == 0 {
        let blame = blame_from_profile(&profile);
        let mut sentences = vec![finish_sentence("The query returns no results")];
        if !blame.killed.is_empty() {
            for (predicate, reached) in &blame.killed {
                sentences.push(finish_sentence(&format!(
                    "the condition {} eliminated all {} row{} that reached it",
                    quote_sql(predicate),
                    reached,
                    if *reached == 1 { "" } else { "s" }
                )));
            }
            for predicate in &blame.starved {
                sentences.push(finish_sentence(&format!(
                    "the condition {} never even saw a row",
                    quote_sql(predicate)
                )));
            }
        } else if let Some(check) = &blame.subquery {
            let noun = check
                .probe_table
                .as_deref()
                .map(|t| nlg::pluralize(&lexicon.concept(t)))
                .unwrap_or_else(|| "rows".to_string());
            sentences.push(finish_sentence(&match check.kind {
                OpKind::AntiJoin => format!(
                    "every one of the {} {} had a match in the subquery ({}), so the \
                     NOT EXISTS / NOT IN check eliminated them all",
                    check.probe_rows,
                    noun,
                    quote_sql(&check.detail)
                ),
                _ => format!(
                    "none of the {} {} passed the subquery check {}",
                    check.probe_rows,
                    noun,
                    quote_sql(&check.detail)
                ),
            }));
        } else if let Some((join, left, right)) = &blame.join {
            sentences.push(finish_sentence(&format!(
                "both sides had rows ({left} and {right}), but no combination satisfied \
                 the join on {}, so the combination of joins is responsible",
                quote_sql(join)
            )));
        } else if let Some(probe) = &blame.empty_index {
            let noun = probe
                .table
                .as_deref()
                .map(|t| lexicon.concept(t))
                .unwrap_or_else(|| "row".to_string());
            sentences.push(finish_sentence(&match &probe.predicate {
                Some(predicate) => format!(
                    "no {} has {} — the index lookup came back empty",
                    noun,
                    quote_sql(predicate)
                ),
                None => format!(
                    "none of the {} probes into the index ({}) found a matching {}",
                    probe.probes,
                    quote_sql(&probe.detail),
                    noun
                ),
            }));
        } else if let Some(table) = &blame.empty_scan {
            sentences.push(finish_sentence(&format!(
                "the relation {table} contains no rows at all"
            )));
        } else {
            sentences.push(finish_sentence(
                "the join itself produces no matches, so the combination of joins \
                 is responsible",
            ));
        }
        predicate_notes = blame.killed;
        join_sentences(&sentences)
    } else if rows > LARGE_RESULT_THRESHOLD {
        let mut sentences = vec![finish_sentence(&format!(
            "The query returns {rows} results, which is a very large answer"
        ))];
        // Read the per-operator counters to point at the join whose output
        // grew the most, instead of merely counting WHERE conjuncts.
        if let Some(blame) = widest_join(&profile) {
            let mut sentence = format!(
                "most of that volume comes from the join on {}, which combined {} and {} \
                 input rows into {} rows",
                quote_sql(&blame.detail),
                blame.left_in,
                blame.right_in,
                blame.rows_out
            );
            if let Some(factor) = blame.misestimate {
                sentence.push_str(&format!(
                    " — about {factor:.0}× more than the {} rows I had estimated",
                    blame.estimated.round()
                ));
            }
            sentences.push(finish_sentence(&sentence));
            sentences.push(finish_sentence(
                "adding a selective condition on one of those relations (for example on a \
                 heading attribute) would reduce the answer",
            ));
        } else {
            sentences.push(finish_sentence(&format!(
                "it only applies {conditions} condition{}; adding more selective conditions \
                 (for example on a heading attribute) would reduce the answer",
                if conditions == 1 { "" } else { "s" }
            )));
        }
        join_sentences(&sentences)
    } else {
        let s = if rows == 1 { "" } else { "s" };
        finish_sentence(&format!("The query returns {rows} result{s}"))
    };
    Ok(ResultExplanation {
        rows,
        narrative,
        predicate_notes,
        profile,
    })
}

/// The join whose output grew the most during a large-result execution.
struct JoinBlame {
    detail: String,
    left_in: u64,
    right_in: u64,
    rows_out: u64,
    /// Estimated output rows, when the plan carried one.
    estimated: f64,
    /// Misestimate factor when the actual output exceeded the estimate by
    /// the flagging threshold.
    misestimate: Option<f64>,
}

/// Find the join operator with the largest output in an instrumented
/// profile — the operator a large answer is usually attributable to.
fn widest_join(profile: &PlanProfile) -> Option<JoinBlame> {
    let mut widest: Option<JoinBlame> = None;
    profile.walk(&mut |p| {
        if !matches!(p.kind(), OpKind::HashJoin | OpKind::NestedLoopJoin) {
            return;
        }
        let m = p.metrics();
        if widest.as_ref().is_none_or(|w| m.rows_out > w.rows_out) {
            let rows_out = |c: ProfileNode| c.metrics().rows_out;
            widest = Some(JoinBlame {
                detail: p.detail().into_owned(),
                left_in: p.children().next().map(rows_out).unwrap_or(0),
                right_in: p.children().nth(1).map(rows_out).unwrap_or(0),
                rows_out: m.rows_out,
                estimated: p.estimated_rows().unwrap_or(0.0),
                misestimate: p
                    .misestimate()
                    .filter(|_| p.estimated_rows().unwrap_or(f64::MAX) < m.rows_out as f64),
            });
        }
    });
    widest
}

/// A subquery check (semi-/anti-join, apply, scalar subquery) that
/// eliminated every row that reached it.
struct SubqueryBlame {
    /// Operator kind (semi join, anti join, apply, scalar subquery).
    kind: OpKind,
    /// The operator's detail line (keys or subquery shape).
    detail: String,
    /// Rows that reached the check.
    probe_rows: u64,
    /// The probed base relation, when the probe side is a single scan.
    probe_table: Option<String>,
}

/// An index probe (scan or nested-loop join) that matched nothing.
struct IndexBlame {
    /// The probed relation, when identifiable.
    table: Option<String>,
    /// The probe predicate for an index scan ("c.mid = 999"); `None` for a
    /// per-row nested-loop probe.
    predicate: Option<String>,
    /// Probes issued (1 for a scan, outer rows for a nested-loop join).
    probes: u64,
    /// The operator's detail line, as a fallback description.
    detail: String,
}

/// What the instrumentation counters say about an empty result.
#[derive(Default)]
struct ProfileBlame {
    /// Filters that saw rows and eliminated every one: (predicate, rows in).
    killed: Vec<(String, usize)>,
    /// Filters that never received a single row (upstream already empty).
    starved: Vec<String>,
    /// A subquery check that let none of its probe rows through.
    subquery: Option<SubqueryBlame>,
    /// A join that produced nothing although both inputs had rows:
    /// (join condition, left rows, right rows).
    join: Option<(String, u64, u64)>,
    /// An index probe that came back empty.
    empty_index: Option<IndexBlame>,
    /// A base relation with no rows at all.
    empty_scan: Option<String>,
}

/// Walk an instrumented profile of an empty-result execution and identify
/// the operators responsible.
fn blame_from_profile(profile: &PlanProfile) -> ProfileBlame {
    let mut blame = ProfileBlame::default();
    profile.walk(&mut |p| {
        let m = p.metrics();
        let detail = || p.detail().into_owned();
        match p.kind() {
            // An index scan that matched nothing: the probe itself is the
            // predicate that eliminated everything ("no casting credit has
            // mid = 999 — the index lookup came back empty").
            OpKind::IndexScan if m.rows_out == 0 && blame.empty_index.is_none() => {
                blame.empty_index = Some(IndexBlame {
                    table: p.access().map(|a| a.table.clone()),
                    predicate: p.access_predicate().map(Cow::into_owned),
                    probes: 1,
                    detail: detail(),
                });
            }
            // An index nested-loop join whose probes all missed, although
            // the outer side had rows.
            OpKind::IndexNestedLoopJoin if m.rows_out == 0 && blame.empty_index.is_none() => {
                let probe_side = p.children().nth(1);
                let probes = probe_side.map(|c| c.metrics().rows_in).unwrap_or(0);
                if probes > 0 {
                    blame.empty_index = Some(IndexBlame {
                        table: probe_side.and_then(|c| c.access()).map(|a| a.table.clone()),
                        predicate: None,
                        probes,
                        detail: detail(),
                    });
                }
            }
            OpKind::Filter => {
                if m.rows_in > 0 && m.rows_out == 0 {
                    blame.killed.push((detail(), m.rows_in as usize));
                } else if m.rows_in == 0 {
                    blame.starved.push(detail());
                }
            }
            OpKind::SemiJoin | OpKind::AntiJoin | OpKind::Apply | OpKind::ScalarSubquery
                if m.rows_out == 0 && blame.subquery.is_none() =>
            {
                let probe = p.children().next();
                let probe_rows = probe.map(|c| c.metrics().rows_out).unwrap_or(0);
                if probe_rows > 0 {
                    blame.subquery = Some(SubqueryBlame {
                        kind: p.kind(),
                        detail: detail(),
                        probe_rows,
                        probe_table: probe.and_then(sole_scan_table),
                    });
                }
            }
            OpKind::HashJoin | OpKind::NestedLoopJoin
                if m.rows_out == 0 && blame.join.is_none() =>
            {
                let left = p.children().next().map(|c| c.metrics().rows_out);
                let right = p.children().nth(1).map(|c| c.metrics().rows_out);
                let (left, right) = (left.unwrap_or(0), right.unwrap_or(0));
                if left > 0 && right > 0 {
                    blame.join = Some((detail(), left, right));
                }
            }
            OpKind::Scan if m.rows_out == 0 && blame.empty_scan.is_none() => {
                blame.empty_scan = Some(detail());
            }
            _ => {}
        }
    });
    blame
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::{movie_database, scaled_movie_database, ScaleConfig};
    use sqlparse::parse_query;

    #[test]
    fn empty_results_are_blamed_on_the_responsible_predicate() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Nonexistent Person'",
        )
        .unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert_eq!(explanation.rows, 0);
        assert!(explanation.narrative.contains("no results"));
        assert!(explanation.narrative.contains("Nonexistent Person"));
        assert!(explanation
            .predicate_notes
            .iter()
            .any(|(p, survivors)| p.contains("Nonexistent") && *survivors > 0));
    }

    #[test]
    fn small_results_are_reported_plainly() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        )
        .unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert_eq!(explanation.rows, 2);
        assert!(explanation.narrative.contains("2 results"));
    }

    #[test]
    fn large_results_blame_the_widest_join() {
        let db = scaled_movie_database(ScaleConfig {
            movies: 200,
            ..ScaleConfig::default()
        });
        let q = parse_query("select m.title from MOVIES m, GENRE g where m.id = g.mid").unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert!(explanation.rows > LARGE_RESULT_THRESHOLD);
        assert!(explanation.narrative.contains("very large"));
        // The counters point at the join that produced the volume.
        assert!(
            explanation.narrative.contains("the join on"),
            "join blame missing from: {}",
            explanation.narrative
        );
        assert!(explanation
            .narrative
            .contains(&explanation.rows.to_string()));
    }

    #[test]
    fn large_single_table_results_still_count_conditions() {
        let db = scaled_movie_database(ScaleConfig {
            movies: 200,
            ..ScaleConfig::default()
        });
        let q = parse_query("select m.title from MOVIES m where m.year > 0").unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert!(explanation.rows > LARGE_RESULT_THRESHOLD);
        // No join to blame: the explanation falls back to condition counting.
        assert!(explanation.narrative.contains("condition"));
    }

    #[test]
    fn contradictory_conditions_blame_the_first_and_note_the_starved_one() {
        let db = movie_database();
        // Two contradictory constraints. The counters show the first one
        // eliminating every row and the second one never receiving any.
        let q = parse_query("select m.title from MOVIES m where m.year > 2010 and m.year < 1950")
            .unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert_eq!(explanation.rows, 0);
        assert!(explanation.narrative.contains("m.year > 2010"));
        assert!(explanation.narrative.contains("eliminated all"));
        assert!(explanation.narrative.contains("never even saw a row"));
        assert_eq!(explanation.predicate_notes.len(), 1);
    }

    #[test]
    fn joins_with_no_matches_blame_the_join_combination() {
        let db = movie_database();
        // No selection predicate at all: DIRECTED links movies to directors,
        // but joining movie ids against director ids directly matches
        // nothing even though both sides have rows.
        let q = parse_query(
            "select m.title from MOVIES m, DIRECTOR d where m.id = d.id and m.id = 999",
        )
        .unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert_eq!(explanation.rows, 0);
        assert!(!explanation.narrative.is_empty());
    }

    #[test]
    fn explanation_is_based_on_a_single_instrumented_execution() {
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m, GENRE g where m.id = g.mid and g.genre = 'western'",
        )
        .unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert_eq!(explanation.rows, 0);
        // The profile carries real counters from the one execution.
        let mut scan_rows = 0;
        explanation.profile.walk(&mut |p| {
            if p.operator() == "scan" {
                scan_rows += p.metrics().rows_out;
            }
        });
        assert!(scan_rows > 0, "scans actually ran exactly once");
        assert!(explanation
            .predicate_notes
            .iter()
            .any(|(p, reached)| p.contains("western") && *reached > 0));
    }

    #[test]
    fn empty_division_results_blame_the_subquery_check() {
        // Q6 proper: no movie has all six genres, and the counters show the
        // apply's NOT EXISTS check rejecting every movie.
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g1 where not exists ( \
                    select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
        )
        .unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert_eq!(explanation.rows, 0);
        assert!(
            explanation
                .narrative
                .contains("None of the 10 movies passed the subquery check"),
            "subquery blame missing from: {}",
            explanation.narrative
        );
    }

    #[test]
    fn empty_anti_join_results_blame_the_existing_matches() {
        // Every movie has a genre, so NOT EXISTS(genre of m) removes all
        // ten — and the explanation says the matches are why.
        let db = movie_database();
        let q = parse_query(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g where g.mid = m.id)",
        )
        .unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert_eq!(explanation.rows, 0);
        assert!(
            explanation.narrative.contains("Every one of the 10 movies")
                && explanation.narrative.contains("NOT EXISTS"),
            "anti-join blame missing from: {}",
            explanation.narrative
        );
    }

    #[test]
    fn empty_index_probe_is_blamed_by_the_detective() {
        // m.id = 999 becomes a point probe into the PK index; the §3.1
        // detective must blame the empty lookup, not shrug at the join.
        let db = movie_database();
        let q = parse_query("select m.title from MOVIES m where m.id = 999").unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert_eq!(explanation.rows, 0);
        assert!(
            explanation
                .narrative
                .contains("movie has `m.id = 999` — the index lookup came back empty"),
            "index blame missing from: {}",
            explanation.narrative
        );
    }

    #[test]
    fn empty_index_join_probes_are_blamed_by_the_detective() {
        use datastore::Value;
        // A CAST row pointing at a movie id that exists in MOVIES' id space
        // but matches no credit… build it the other way: probe MOVIES for
        // ids CAST does not reference. Simpler: insert a movie nobody cast,
        // then join a filtered single-credit outer against it.
        let mut db = movie_database();
        db.insert(
            "MOVIES",
            vec![Value::int(99), Value::text("Unseen"), Value::int(2001)],
        )
        .unwrap();
        // ACTOR filtered to one row joined to CAST, then probed into MOVIES:
        // restrict CAST rows to an id with no movie? All CAST rows reference
        // real movies, so instead delete the movie the probe needs.
        db.table_mut("MOVIES")
            .unwrap()
            .delete_where(|r| r.get(0) == Some(&Value::int(6)));
        let q = parse_query(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        )
        .unwrap();
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        // Brad Pitt's credits point at movies 6 and 7; with 6 gone, one
        // probe misses — if both miss the result is empty and the probes
        // are blamed. (Movie 7, Seven, survives, so this stays non-empty;
        // rebuild with both gone.)
        assert_eq!(explanation.rows, 1);
        db.table_mut("MOVIES")
            .unwrap()
            .delete_where(|r| r.get(0) == Some(&Value::int(7)));
        let explanation = explain_result(&db, &Lexicon::movie_domain(), &q).unwrap();
        assert_eq!(explanation.rows, 0);
        assert!(
            explanation
                .narrative
                .contains("of the 2 probes into the index")
                && explanation.narrative.contains("found a matching movie"),
            "probe blame missing from: {}",
            explanation.narrative
        );
    }
}
