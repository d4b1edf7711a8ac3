//! `SHOW` introspection — the engine talking about *itself*.
//!
//! The paper wants a DBMS that initiates the conversation; the
//! observability registry ([`datastore::obs`]) is its memory, and this
//! module is the voice reading from it. Each `SHOW` topic answers twice:
//! once as a table (for tools), once in the system's first person (for
//! people) — "Since startup I have run 412 queries; the slowest, 38 ms,
//! scanned CAST twice."

use crate::error::TalkbackError;
use crate::query::counted;
use datastore::exec::{ColumnInfo, ResultSet};
use datastore::obs::doctor::mine;
use datastore::obs::{Counter, JournalEntry, MisestimateStat, ObsRegistry, Phase};
use datastore::{format_duration, Database, Row, Value};
use nlg::{count_phrase, finish_sentence, join_sentences, quote_sql};
use sqlparse::ast::{SetStatement, ShowKind};

/// One `SHOW` answer, both ways.
#[derive(Debug, Clone, PartialEq)]
pub struct ShowReport {
    /// The facts as an aligned text table.
    pub table: String,
    /// The same facts in the system's own voice.
    pub narration: String,
}

/// Answer a `SHOW` statement from the database's observability registry.
pub fn execute_show(db: &Database, kind: &ShowKind) -> ShowReport {
    let obs = db.obs();
    match kind {
        ShowKind::Metrics => show_metrics(obs),
        ShowKind::QueryLog { limit } => show_query_log(obs, limit.map(|n| n as usize)),
        ShowKind::Profile => show_profile(obs),
        ShowKind::Misestimates => show_misestimates(obs),
        ShowKind::Workload => show_workload(obs),
    }
}

/// Apply a `SET <knob> <value>` tuning statement and confirm it in the
/// system's voice. The only knob so far is `journal capacity`, the query
/// journal's ring-buffer size.
pub fn execute_set(db: &Database, set: &SetStatement) -> Result<ShowReport, TalkbackError> {
    match set.name.as_str() {
        "journal_capacity" => {
            let obs = db.obs();
            let before = obs.journal().capacity();
            obs.journal().set_capacity(set.value as usize);
            let after = obs.journal().capacity();
            let table = table_of(
                &["knob", "value"],
                vec![vec![
                    Value::text("journal_capacity"),
                    Value::int(after as i64),
                ]],
            );
            let narration = finish_sentence(&format!(
                "I will keep my last {} in the journal from now on (it held {} before); \
                 entries beyond that age out, but my workload ledger keeps the aggregates \
                 either way",
                counted(after, "statement"),
                count_phrase(before),
            ));
            Ok(ShowReport { table, narration })
        }
        other => Err(TalkbackError::Unsupported(format!(
            "I do not know the knob '{}'; the one I can tune is JOURNAL CAPACITY",
            other.replace('_', " ")
        ))),
    }
}

pub(crate) fn table_of(columns: &[&str], rows: Vec<Vec<Value>>) -> String {
    ResultSet {
        columns: columns
            .iter()
            .map(|c| ColumnInfo::unqualified(*c))
            .collect(),
        rows: rows.into_iter().map(Row::new).collect(),
    }
    .to_text_table()
}

// ---------------------------------------------------------------------------
// SHOW METRICS
// ---------------------------------------------------------------------------

fn show_metrics(obs: &ObsRegistry) -> ShowReport {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for counter in Counter::ALL {
        rows.push(vec![
            Value::text("counter"),
            Value::text(counter.name()),
            Value::text(obs.counter(counter).to_string()),
        ]);
    }
    for (kind, count) in obs.decisions() {
        rows.push(vec![
            Value::text("decision"),
            Value::text(kind),
            Value::text(count.to_string()),
        ]);
    }
    for (name, value) in obs.gauges() {
        rows.push(vec![
            Value::text("gauge"),
            Value::text(name),
            Value::text(value.to_string()),
        ]);
    }
    for phase in Phase::ALL {
        let summary = obs.latency_summary(phase);
        let value = if summary.count == 0 {
            "no samples".to_string()
        } else {
            format!(
                "count={} p50≈{} p95≈{} p99≈{} max≤{}",
                summary.count,
                format_duration(summary.p50),
                format_duration(summary.p95),
                format_duration(summary.p99),
                format_duration(summary.max),
            )
        };
        rows.push(vec![
            Value::text("latency"),
            Value::text(phase.name()),
            Value::text(value),
        ]);
    }
    let table = table_of(&["kind", "metric", "value"], rows);

    let queries = obs.counter(Counter::QueriesExecuted);
    let translated = translation_sentence(obs);
    let mut sentences = Vec::new();
    if queries == 0 && translated.is_none() {
        sentences.push(
            "I have not executed any queries since startup, so my counters are all at zero; \
             ask me something and I will start keeping score."
                .to_string(),
        );
    } else if queries > 0 {
        let total = obs.latency_summary(Phase::Total);
        let mut first = format!(
            "Since startup I have executed {} quer{}, scanning {} to return {}",
            count_phrase(queries as usize),
            if queries == 1 { "y" } else { "ies" },
            counted(obs.counter(Counter::RowsScanned) as usize, "row"),
            count_phrase(obs.counter(Counter::RowsEmitted) as usize),
        );
        if total.count > 0 {
            first.push_str(&format!(
                "; my median statement finishes within {} and my slowest took up to {}",
                format_duration(total.p50),
                format_duration(total.max)
            ));
        }
        sentences.push(finish_sentence(&first));

        let probes = obs.counter(Counter::IndexProbes);
        if probes > 0 {
            let empty = obs.counter(Counter::EmptyIndexProbes);
            sentences.push(finish_sentence(&format!(
                "My indexes answered {}{}",
                counted(probes as usize, "probe"),
                if empty > 0 {
                    format!(", {} of which found nothing", count_phrase(empty as usize))
                } else {
                    String::new()
                }
            )));
        }
        let hits = obs.counter(Counter::PlanCacheHits);
        let asked = hits + obs.counter(Counter::PlanCacheMisses);
        if asked > 0 {
            let mut sentence = format!(
                "My plan cache answered {} of the {} it was asked about without parsing or \
                 planning",
                if hits == 0 {
                    "none".to_string()
                } else {
                    count_phrase(hits as usize)
                },
                counted(asked as usize, "statement"),
            );
            let uncacheable: Vec<String> = obs
                .uncacheable_by_reason()
                .into_iter()
                .map(|(why, n)| format!("{} {}", counted(n as usize, "statement"), why.clause()))
                .collect();
            if !uncacheable.is_empty() {
                sentence.push_str(&format!(
                    ", and {}, which I plan afresh every time",
                    nlg::join_with_and(&uncacheable)
                ));
            }
            sentences.push(finish_sentence(&sentence));
        }
        let snapshots = obs.counter(Counter::StatsSnapshots);
        if snapshots > 0 {
            let rederived = obs.counter(Counter::StatsColumnsRederived);
            sentences.push(finish_sentence(&format!(
                "I refreshed table statistics {} and had to re-derive {} column \
                 histogram{} from their value counts; no table was re-read",
                counted(snapshots as usize, "time"),
                if rederived == 0 {
                    "no".to_string()
                } else {
                    count_phrase(rederived as usize)
                },
                if rederived == 1 { "" } else { "s" },
            )));
        }
        let decisions = obs.decisions();
        let decision_total: u64 = decisions.values().sum();
        if decision_total > 0 {
            let busiest = decisions
                .iter()
                .max_by_key(|(_, &n)| n)
                .map(|(k, _)| k.replace('_', " "))
                .unwrap_or_default();
            sentences.push(finish_sentence(&format!(
                "My planner recorded {}, most often about {busiest}",
                counted(decision_total as usize, "decision"),
            )));
        }
    }
    sentences.extend(translated);
    ShowReport {
        table,
        narration: join_sentences(&sentences),
    }
}

/// How many of the queries `explain_query` was asked about were put into
/// words from a template, and how many had to be translated afresh.
fn translation_sentence(obs: &ObsRegistry) -> Option<String> {
    let hits = obs.counter(Counter::TranslationHits);
    let asked = hits + obs.counter(Counter::TranslationMisses);
    if asked == 0 {
        return None;
    }
    let mut sentence = format!(
        "I translated {} of the {} quer{} you asked me to explain from a template",
        count_phrase(hits as usize),
        count_phrase(asked as usize),
        if asked == 1 { "y" } else { "ies" },
    );
    let afresh = obs.counter(Counter::TranslationUncacheable);
    if afresh > 0 {
        let them = if afresh == 1 { "it" } else { "them" };
        sentence.push_str(&format!(
            "; for {} of them the strings change the wording, so I translated {them} afresh",
            count_phrase(afresh as usize)
        ));
    }
    Some(finish_sentence(&sentence))
}

// ---------------------------------------------------------------------------
// SHOW QUERY LOG
// ---------------------------------------------------------------------------

fn show_query_log(obs: &ObsRegistry, limit: Option<usize>) -> ShowReport {
    let entries = obs.journal().tail(limit);
    let rows = entries
        .iter()
        .map(|e| {
            vec![
                Value::int(e.seq as i64),
                Value::text(&e.sql),
                Value::int(e.result_rows as i64),
                Value::text(format_duration(e.total)),
                Value::text(format!("{:016x}", e.plan_hash)),
                Value::text(e.cache.label()),
                Value::text(match &e.worst_misestimate {
                    Some((detail, factor)) => format!("{factor:.0}× on {detail}"),
                    None => "-".to_string(),
                }),
            ]
        })
        .collect();
    let table = table_of(
        &[
            "seq",
            "statement",
            "rows",
            "time",
            "plan_hash",
            "cache",
            "worst_misestimate",
        ],
        rows,
    );

    let narration = if entries.is_empty() {
        "My query log is empty — I have not executed any statements since startup.".to_string()
    } else {
        let recorded = obs.journal().recorded();
        let mut sentences = vec![finish_sentence(&format!(
            "I remember the last {}{}",
            counted(entries.len(), "statement"),
            if recorded > entries.len() as u64 {
                format!(
                    " of the {} I have executed; my journal keeps {} and the rest have aged out",
                    count_phrase(recorded as usize),
                    count_phrase(obs.journal().capacity())
                )
            } else {
                String::new()
            }
        ))];
        let hits = entries
            .iter()
            .filter(|e| e.cache == datastore::CacheStatus::Hit)
            .count();
        if hits > 0 {
            sentences.push(finish_sentence(&format!(
                "{} of {} came straight from my plan cache, skipping parsing and planning \
                 entirely",
                nlg::capitalize_first(&count_phrase(hits)),
                if entries.len() == 1 { "it" } else { "them" },
            )));
        }
        if let Some(slowest) = entries.iter().max_by_key(|e| e.total) {
            let mut sentence = format!(
                "The slowest of them, {}, was {} — it returned {}",
                format_duration(slowest.total),
                quote_sql(&slowest.sql),
                counted(slowest.result_rows as usize, "row"),
            );
            if let Some((detail, factor)) = &slowest.worst_misestimate {
                sentence.push_str(&format!(", and I misjudged its {detail} by {factor:.0}×"));
            }
            sentences.push(finish_sentence(&sentence));
        }
        join_sentences(&sentences)
    };
    ShowReport { table, narration }
}

// ---------------------------------------------------------------------------
// SHOW PROFILE
// ---------------------------------------------------------------------------

fn show_profile(obs: &ObsRegistry) -> ShowReport {
    const COLUMNS: [&str; 6] = ["span", "time", "rows", "p50", "p95", "p99"];
    let Some(entry) = obs.journal().last() else {
        return ShowReport {
            table: table_of(&COLUMNS, Vec::new()),
            narration: "I have nothing to profile yet — run a query first and ask me again."
                .to_string(),
        };
    };
    // Phase spans get the cross-statement percentile columns from the
    // registry's log2 histograms (interpolated within buckets); operator
    // spans have no histogram and show "-".
    let phase_for = |depth: usize, name: &str| match (depth, name) {
        (0, "statement") => Some(Phase::Total),
        (1, "parse") => Some(Phase::Parse),
        (1, "plan") => Some(Phase::Plan),
        (1, "execute") => Some(Phase::Execute),
        _ => None,
    };
    let rows = entry
        .span()
        .flatten()
        .into_iter()
        .map(|(depth, span)| {
            let label = if span.detail.is_empty() {
                span.name.to_string()
            } else {
                format!("{}: {}", span.name, span.detail)
            };
            let summary = phase_for(depth, &span.name).map(|p| obs.latency_summary(p));
            let pct = |f: fn(&datastore::obs::HistogramSummary) -> std::time::Duration| {
                summary
                    .as_ref()
                    .map(|s| format!("≈{}", format_duration(f(s))))
                    .unwrap_or_else(|| "-".to_string())
            };
            vec![
                Value::text(format!("{}{}", "  ".repeat(depth), label)),
                Value::text(format_duration(span.elapsed)),
                Value::text(match span.rows {
                    Some(n) => n.to_string(),
                    None => "-".to_string(),
                }),
                Value::text(pct(|s| s.p50)),
                Value::text(pct(|s| s.p95)),
                Value::text(pct(|s| s.p99)),
            ]
        })
        .collect();
    let table = table_of(&COLUMNS, rows);
    let mut narration = profile_narration(&entry);
    let total = obs.latency_summary(Phase::Total);
    if total.count > 1 {
        narration = join_sentences(&[
            narration,
            finish_sentence(&format!(
                "For perspective, across the {} I have run, the typical one finishes in \
                 about {}, one in twenty needs more than {}, and one in a hundred more than {}",
                counted(total.count as usize, "statement"),
                format_duration(total.p50),
                format_duration(total.p95),
                format_duration(total.p99),
            )),
        ]);
    }
    ShowReport { table, narration }
}

fn profile_narration(entry: &JournalEntry) -> String {
    let phases = &entry.phases;
    let mut sentences = vec![finish_sentence(&format!(
        "My last statement was {}; it took {} end to end — {} parsing, {} planning, \
         and {} executing — and returned {}",
        quote_sql(&entry.sql),
        format_duration(entry.total),
        format_duration(phases.parse),
        format_duration(phases.plan),
        format_duration(phases.execute),
        counted(entry.result_rows as usize, "row"),
    ))];
    // Blame the operator that burned the most time of its own under execute
    // (inclusive time would always name the root): the first in pre-order
    // when several tie.
    let root = entry.profile.root();
    let mut op = root;
    root.walk(&mut |node| {
        if node.metrics().self_elapsed() > op.metrics().self_elapsed() {
            op = node;
        }
    });
    sentences.push(finish_sentence(&format!(
        "Inside the plan, the {} did the heaviest lifting, {} of its own work",
        if op.has_detail() {
            format!("{} on {}", op.operator(), op.detail())
        } else {
            op.operator().to_string()
        },
        format_duration(op.metrics().self_elapsed())
    )));
    if let Some((detail, factor)) = &entry.worst_misestimate {
        sentences.push(finish_sentence(&format!(
            "I should own up: I misestimated the {detail} by {factor:.0}×"
        )));
    }
    join_sentences(&sentences)
}

// ---------------------------------------------------------------------------
// SHOW MISESTIMATES
// ---------------------------------------------------------------------------

fn show_misestimates(obs: &ObsRegistry) -> ShowReport {
    let ledger = obs.misestimates();
    let rows = ledger
        .iter()
        .map(|((table, shape), stat)| {
            vec![
                Value::text(table),
                Value::text(shape),
                Value::int(stat.count as i64),
                Value::text(format!("{:.0}×", stat.avg_factor())),
                Value::text(format!("{:.0}×", stat.max_factor)),
                Value::int(stat.last_estimated as i64),
                Value::int(stat.last_actual as i64),
                Value::text(if stat.corrected { "yes" } else { "-" }),
            ]
        })
        .collect();
    let table = table_of(
        &[
            "table",
            "shape",
            "count",
            "avg_error",
            "max_error",
            "last_est",
            "last_actual",
            "corrected",
        ],
        rows,
    );

    let narration = if ledger.is_empty() {
        "My cardinality estimates have held up so far — no operator has strayed past the \
         flagging threshold."
            .to_string()
    } else {
        let flagged: u64 = ledger.values().map(|s| s.count).sum();
        let ((worst_table, worst_shape), worst) = ledger
            .iter()
            .max_by(|a, b| {
                a.1.avg_factor()
                    .partial_cmp(&b.1.avg_factor())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(k, v)| (k.clone(), *v))
            .expect("non-empty ledger");
        let mut sentences = vec![
            finish_sentence(&format!(
                "I have caught my own estimates out {} across {}",
                counted(flagged as usize, "time"),
                counted(ledger.len(), "predicate shape"),
            )),
            misestimate_sentence(&worst_table, &worst_shape, &worst),
        ];
        let corrected = ledger.values().filter(|s| s.corrected).count();
        if corrected > 0 {
            sentences.push(finish_sentence(&format!(
                "I have since replanned {} of those shapes from the observed counts \
                 instead of the statistics",
                count_phrase(corrected),
            )));
        }
        join_sentences(&sentences)
    };
    ShowReport { table, narration }
}

// ---------------------------------------------------------------------------
// SHOW WORKLOAD
// ---------------------------------------------------------------------------

fn show_workload(obs: &ObsRegistry) -> ShowReport {
    const COLUMNS: [&str; 9] = [
        "statement",
        "runs",
        "mean",
        "p95",
        "total",
        "scanned",
        "emitted",
        "access",
        "cache_hits",
    ];
    let stats = obs.workload().snapshot();
    let rows = stats
        .iter()
        .map(|s| {
            vec![
                Value::text(&s.normalized_sql),
                Value::int(s.executions as i64),
                Value::text(format_duration(s.mean_total())),
                Value::text(format_duration(s.p95())),
                Value::text(format_duration(s.total_time)),
                Value::int(s.rows_scanned as i64),
                Value::int(s.rows_emitted as i64),
                Value::text(s.access_summary()),
                Value::int(s.cache_hits as i64),
            ]
        })
        .collect();
    let table = table_of(&COLUMNS, rows);

    let narration = if stats.is_empty() {
        "My workload ledger is empty — run some statements and ask me again.".to_string()
    } else {
        let executions: u64 = stats.iter().map(|s| s.executions).sum();
        let heaviest = &stats[0];
        let mut sentences = vec![
            finish_sentence(&format!(
                "I have been watching {} across {}",
                counted(stats.len(), "distinct statement shape"),
                counted(executions as usize, "execution"),
            )),
            finish_sentence(&format!(
                "The one costing me the most is {} — {} totalling {} ({} mean, {} p95), \
                 scanning {} to emit {}",
                quote_sql(&heaviest.normalized_sql),
                counted(heaviest.executions as usize, "run"),
                format_duration(heaviest.total_time),
                format_duration(heaviest.mean_total()),
                format_duration(heaviest.p95()),
                counted(heaviest.rows_scanned as usize, "row"),
                count_phrase(heaviest.rows_emitted as usize),
            )),
        ];
        let issues = mine(&stats);
        if !issues.is_empty() {
            sentences.push(finish_sentence(&format!(
                "My miner sees {} worth fixing in there — say ADVISE and I will lay out the \
                 remedies",
                counted(issues.len(), "pattern"),
            )));
        }
        join_sentences(&sentences)
    };
    ShowReport { table, narration }
}

fn misestimate_sentence(table: &str, shape: &str, stat: &MisestimateStat) -> String {
    finish_sentence(&format!(
        "Queries like {} have misestimated {table} by {:.0}× on average (worst {:.0}×); \
         last time I expected {} and saw {}",
        quote_sql(shape),
        stat.avg_factor(),
        stat.max_factor,
        counted(stat.last_estimated as usize, "row"),
        count_phrase(stat.last_actual as usize),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Talkback;
    use datastore::sample::movie_database;

    fn parse_kind(sql: &str) -> ShowKind {
        match sqlparse::parse_statement(sql).unwrap() {
            sqlparse::ast::Statement::Show(s) => s.kind,
            other => panic!("expected SHOW, got {other:?}"),
        }
    }

    #[test]
    fn metrics_before_any_query_admit_an_empty_score() {
        let system = Talkback::new(movie_database());
        let report = execute_show(system.database(), &parse_kind("show metrics"));
        assert!(report.narration.contains("not executed any queries"));
        assert!(report.table.contains("queries_executed"));
        assert!(report.table.contains("no samples"));
    }

    #[test]
    fn query_log_remembers_statements_in_order() {
        let system = Talkback::new(movie_database());
        system.run_query("select m.title from MOVIES m").unwrap();
        system
            .run_query("select m.title from MOVIES m where m.year > 2000")
            .unwrap();
        let report = system.execute_show("show query log").unwrap();
        assert!(report.table.contains("select m.title from MOVIES m"));
        assert!(report
            .narration
            .contains("I remember the last two statements"));
        let limited = system.execute_show("show query log limit 1").unwrap();
        assert!(!limited.table.contains("where m.year > 2000\n"));
        assert!(limited.narration.contains("one statement"));
    }

    #[test]
    fn profile_names_the_phases_of_the_last_statement() {
        let system = Talkback::new(movie_database());
        let empty = system.execute_show("show profile").unwrap();
        assert!(empty.narration.contains("nothing to profile"));
        system
            .run_query("select m.title from MOVIES m where m.year > 2000")
            .unwrap();
        let report = system.execute_show("show profile").unwrap();
        assert!(report.table.contains("statement"));
        assert!(report.table.contains("  parse"));
        assert!(report.table.contains("  execute"));
        assert!(report.narration.contains("My last statement was"));
        assert!(report.narration.contains("parsing"));
    }

    #[test]
    fn misestimates_start_clean() {
        let system = Talkback::new(movie_database());
        let report = system.execute_show("show misestimates").unwrap();
        assert!(report.narration.contains("held up so far"));
    }

    #[test]
    fn show_requires_a_show_statement() {
        let system = Talkback::new(movie_database());
        assert!(system.execute_show("select * from MOVIES m").is_err());
    }
}
