//! The database doctor — `ADVISE` and `CHECKUP`.
//!
//! The paper's thesis is a DBMS that *initiates* the conversation. This
//! module is the strongest form of that: the engine mines its own workload
//! ledger ([`datastore::obs::doctor`]) for pathologies, *costs the cure
//! before prescribing it* by re-planning the offending statements against
//! hypothetical indexes (built over zero rows — metadata the planner can
//! see but the executor never touches), and talks about the result in the
//! first person: "Queries like … have full-scanned CAST twenty times;
//! `CREATE INDEX idx_cast_mid ON CAST (mid)` should bring them from 2.1 ms
//! to about 80 µs — shall I?"
//!
//! The candidates come from the statement as the binder files it: each
//! WHERE conjunct's role ([`sqlparse::ConjunctRole`]) says whether a column
//! is an equality or range key (a selection), a join key (a join), or an
//! equality key against an enclosing block (a correlation), and under which
//! tuple variable, however the column was qualified.
//!
//! `CHECKUP` is the other direction of initiative: a health report with a
//! regression sentinel that compares each statement shape's recent runs
//! against its first runs and, when one has drifted ≥3× slower, names the
//! likely culprit — a plan change, a cache-invalidation epoch, or plain
//! data growth.

use crate::planner::{self, plan_cost, PlannerOptions};
use crate::query::counted;
use crate::query::show::{table_of, ShowReport};
use datastore::exec::{Plan, PlanNode};
use datastore::index::{Index, IndexDef, IndexKind};
use datastore::obs::doctor::{mine, regressions, DriftCause, Issue, IssueKind, WorkloadStat};
use datastore::obs::Counter;
use datastore::{format_duration, Database, EpochCause, Value};
use nlg::{capitalize_first, count_phrase, finish_sentence, join_sentences, quote_sql};
use sqlparse::ast::{BinaryOperator, Expr, SelectItem, SelectStatement};
use sqlparse::bind::{BoundQuery, ConjunctRole};
use std::collections::BTreeMap;
use std::time::Duration;

/// Recommend no more than this many indexes without an explicit `LIMIT`.
const DEFAULT_LIMIT: usize = 5;
/// A hypothetical index must cut the estimated plan cost below this
/// fraction of the baseline to be worth prescribing at all.
const IMPROVEMENT_CEILING: f64 = 0.8;
/// Widest covering (index-only) candidate the synthesizer will propose.
const MAX_COVERING_WIDTH: usize = 4;

/// One costed piece of advice: an index the doctor believes in, with the
/// evidence and the what-if numbers that justify it.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The prescription, ready to execute: `CREATE INDEX … ON … (…)`.
    pub create_sql: String,
    /// Indexed table (as stored in the catalog).
    pub table: String,
    /// Key columns, leading first.
    pub columns: Vec<String>,
    /// A concrete statement (with its real literals) this index was costed
    /// against — re-run it to verify the doctor's claim.
    pub evidence_sql: String,
    /// The literal-normalized shape of the evidence statement.
    pub shape: String,
    /// How many times that shape has executed.
    pub executions: u64,
    /// Observed mean wall time per execution today.
    pub mean_before: Duration,
    /// Predicted mean wall time with the index in place.
    pub predicted_after: Duration,
    /// Estimated plan cost without the index.
    pub base_cost: f64,
    /// Estimated plan cost with the hypothetical index.
    pub what_if_cost: f64,
    /// `base_cost / what_if_cost` — the execution speedup the what-if
    /// coster expects.
    pub estimated_speedup: f64,
    /// Workload time this would have saved (`executions × (before − after)`).
    pub total_saved: Duration,
    /// The mined pathologies this prescription addresses.
    pub reasons: Vec<String>,
}

// ---------------------------------------------------------------------------
// What-if cost model
// ---------------------------------------------------------------------------

/// Does the plan actually touch the named index anywhere? A hypothetical
/// index only counts if the what-if plan chose it.
fn plan_uses_index(plan: &Plan, name: &str) -> bool {
    let mut used = false;
    plan.walk(&mut |p| {
        if let PlanNode::IndexScan { index, .. } | PlanNode::IndexNestedLoopJoin { index, .. } =
            &p.node
        {
            used |= index.eq_ignore_ascii_case(name);
        }
    });
    used
}

// ---------------------------------------------------------------------------
// Candidate synthesis
// ---------------------------------------------------------------------------

/// Per-tuple-variable key roles harvested from a statement.
#[derive(Debug, Default, Clone)]
struct KeyRoles {
    eq: Vec<String>,
    range: Vec<String>,
    join: Vec<String>,
    order: Vec<String>,
    proj: Vec<String>,
}

fn push_unique(list: &mut Vec<String>, col: &str) {
    if !list.iter().any(|c| c.eq_ignore_ascii_case(col)) {
        list.push(col.to_lowercase());
    }
}

/// File `column` in `list` of the key roles of tuple variable `alias`.
fn file(
    roles: &mut BTreeMap<String, (String, KeyRoles)>,
    alias: &str,
    list: fn(&mut KeyRoles) -> &mut Vec<String>,
    column: &str,
) {
    if let Some((_, r)) = roles.get_mut(&alias.to_lowercase()) {
        push_unique(list(r), column);
    }
}

/// Walk a statement (and its subqueries), bound as `bound`, and file every
/// column reference under its tuple variable with the role it plays —
/// equality key, range key, join key, order key, or plain projection. What
/// a WHERE conjunct is, and whose columns it reads, is the binder's answer.
fn collect_roles(
    query: &SelectStatement,
    bound: &BoundQuery,
    top_level: bool,
    roles: &mut BTreeMap<String, (String, KeyRoles)>,
) {
    for table_ref in &query.from {
        roles
            .entry(table_ref.variable().to_lowercase())
            .or_insert_with(|| (table_ref.table.clone(), KeyRoles::default()));
    }
    let alias = |table: usize| bound.tables[table].alias.as_str();
    let mut subqueries = bound.subqueries.iter();
    for (conjunct, role) in bound.conjuncts(query) {
        match *role {
            ConjunctRole::Selection { table, .. } => {
                let Some((col, op, _)) = conjunct.as_selection_predicate() else {
                    continue;
                };
                match op {
                    BinaryOperator::Eq => file(roles, alias(table), |r| &mut r.eq, &col.column),
                    BinaryOperator::Lt
                    | BinaryOperator::LtEq
                    | BinaryOperator::Gt
                    | BinaryOperator::GtEq => {
                        file(roles, alias(table), |r| &mut r.range, &col.column)
                    }
                    _ => {}
                }
            }
            ConjunctRole::Join { left, right, .. } => {
                let (l, r) = role.columns(conjunct).expect("a join equates two columns");
                file(roles, alias(left), |r| &mut r.join, &l.column);
                file(roles, alias(right), |r| &mut r.join, &r.column);
            }
            // Against an enclosing block's column this is no join of the
            // block: the planner pushes it onto the own side as a selection
            // — one value per outer row, an equality key (so composites lead
            // with it) — and asks nothing of the outer.
            ConjunctRole::Correlation { table, .. } => {
                let (own, _) = role
                    .columns(conjunct)
                    .expect("a correlation equates two columns");
                file(roles, alias(table), |r| &mut r.eq, &own.column);
            }
            ConjunctRole::Residual { .. } => {}
            ConjunctRole::Subquery { .. } => {
                for (sub, sub_bound) in conjunct.subqueries().into_iter().zip(&mut subqueries) {
                    collect_roles(sub, sub_bound, false, roles);
                }
            }
        }
    }
    if let Some(having) = &query.having {
        for (sub, sub_bound) in having.subqueries().into_iter().zip(subqueries) {
            collect_roles(sub, sub_bound, false, roles);
        }
    }
    if top_level {
        let mut file_refs = |expr: &Expr, list: fn(&mut KeyRoles) -> &mut Vec<String>| {
            for col in expr.column_refs() {
                if let Some(alias) = bound.qualifier_of(col) {
                    file(roles, alias, list, &col.column);
                }
            }
        };
        for item in &query.order_by {
            file_refs(&item.expr, |r| &mut r.order);
        }
        for item in &query.projection {
            if let SelectItem::Expr { expr, .. } = item {
                file_refs(expr, |r| &mut r.proj);
            }
        }
    }
}

/// A synthesized index candidate, not yet costed.
#[derive(Debug, Clone)]
struct Candidate {
    table: String,
    columns: Vec<String>,
}

/// Candidate indexes for one statement: composites from the predicate and
/// join keys, a covering (index-only) variant, and an order-prefix variant
/// for sort elimination.
fn synthesize_candidates(query: &SelectStatement, bound: &BoundQuery) -> Vec<Candidate> {
    let mut roles = BTreeMap::new();
    collect_roles(query, bound, true, &mut roles);
    let mut out: Vec<Candidate> = Vec::new();
    let mut seen: Vec<(String, Vec<String>)> = Vec::new();
    let mut push = |table: &str, columns: Vec<String>| {
        if columns.is_empty() {
            return;
        }
        let key = (table.to_lowercase(), columns.clone());
        if seen.contains(&key) {
            return;
        }
        seen.push(key);
        out.push(Candidate {
            table: table.to_string(),
            columns,
        });
    };
    for (table, r) in roles.values() {
        // Equality keys first (point probes), then one range key last.
        let mut eq_range = r.eq.clone();
        if let Some(range) = r.range.first() {
            if !eq_range.iter().any(|c| c == range) {
                eq_range.push(range.clone());
            }
        }
        push(table, eq_range.clone());
        // Equality keys extended with join keys — serves both the filter
        // probe and an index-nested-loop on the same table.
        let mut eq_join = r.eq.clone();
        for j in &r.join {
            if !eq_join.iter().any(|c| c == j) {
                eq_join.push(j.clone());
            }
        }
        push(table, eq_join);
        // Join keys alone (the classic foreign-key index).
        push(table, r.join.clone());
        // Covering variant: predicate keys plus ordered/projected columns,
        // enabling an index-only scan when narrow enough.
        let mut covering = eq_range;
        for extra in r.order.iter().chain(r.proj.iter()) {
            if !covering.iter().any(|c| c == extra) {
                covering.push(extra.clone());
            }
        }
        if covering.len() <= MAX_COVERING_WIDTH {
            push(table, covering);
        }
        // Order prefix alone — lets the planner elide the sort.
        push(table, r.order.clone());
    }
    out
}

/// True when an existing index on the table already answers probes on the
/// candidate's key prefix — prescribing it would be redundant.
fn already_covered(db: &Database, cand: &Candidate) -> bool {
    let Some(table) = db.table(&cand.table) else {
        return false;
    };
    table.indexes().iter().any(|idx| {
        let existing: Vec<String> = idx.def().columns.iter().map(|c| c.to_lowercase()).collect();
        if idx.supports_range() {
            existing.len() >= cand.columns.len()
                && existing[..cand.columns.len()] == cand.columns[..]
        } else {
            existing == cand.columns
        }
    })
}

/// Materialize a candidate as a zero-row hypothetical [`Index`]: the
/// planner sees its definition (columns, kind, range support) through
/// [`crate::planner::Estimator::hypothetical_for`], but no rows are ever
/// indexed — what-if costing must not pay for index builds.
fn build_hypothetical(db: &Database, cand: &Candidate) -> Option<(String, Index)> {
    let table = db.table(&cand.table)?;
    let schema = table.schema();
    let mut column_pos = Vec::with_capacity(cand.columns.len());
    let mut column_names = Vec::with_capacity(cand.columns.len());
    for col in &cand.columns {
        let pos = schema.column_index(col)?;
        column_pos.push(pos);
        column_names.push(col.clone());
    }
    let mut name = format!(
        "idx_{}_{}",
        cand.table.to_lowercase(),
        column_names.join("_")
    );
    if db.find_index(&name).is_some() {
        name.push_str("_2");
    }
    let def = IndexDef {
        name: name.clone(),
        table: table.schema().name.clone(),
        columns: column_names,
        kind: IndexKind::Ordered,
    };
    Some((name, Index::build(def, &[], column_pos)))
}

// ---------------------------------------------------------------------------
// The advisor
// ---------------------------------------------------------------------------

/// Mine the workload ledger and produce ranked, costed index
/// recommendations. Pure read: nothing is built, executed, or recorded.
pub fn recommendations(db: &Database, options: PlannerOptions) -> Vec<Recommendation> {
    let stats = db.obs().workload().snapshot();
    let issues = mine(&stats);
    let mut by_statement: BTreeMap<u64, Vec<&Issue>> = BTreeMap::new();
    for issue in &issues {
        by_statement
            .entry(issue.statement_key)
            .or_default()
            .push(issue);
    }
    let mut merged: BTreeMap<String, Recommendation> = BTreeMap::new();
    for (key, stmt_issues) in by_statement {
        let Some(stat) = stats.iter().find(|s| s.statement_key == key) else {
            continue;
        };
        let Some(best) = best_candidate_for(db, stat, &options) else {
            continue;
        };
        let reasons: Vec<String> = stmt_issues
            .iter()
            .map(|i| i.kind.label().to_string())
            .collect();
        let rec = merged
            .entry(best.create_sql.clone())
            .or_insert_with(|| Recommendation {
                reasons: Vec::new(),
                ..best.clone()
            });
        // The same index can cure several statement shapes; credit it with
        // the union of the evidence.
        if rec.evidence_sql != best.evidence_sql {
            rec.total_saved += best.total_saved;
            rec.executions += best.executions;
        }
        for reason in reasons {
            if !rec.reasons.contains(&reason) {
                rec.reasons.push(reason);
            }
        }
    }
    let mut out: Vec<Recommendation> = merged.into_values().collect();
    out.sort_by(|a, b| {
        b.total_saved
            .cmp(&a.total_saved)
            .then_with(|| a.create_sql.cmp(&b.create_sql))
    });
    out
}

/// What-if cost every synthesized candidate for one statement shape and
/// return the recommendation for the cheapest plan that actually uses its
/// hypothetical index — or `None` when no index helps enough.
fn best_candidate_for(
    db: &Database,
    stat: &WorkloadStat,
    options: &PlannerOptions,
) -> Option<Recommendation> {
    let query = sqlparse::parse_query(&stat.last_sql).ok()?;
    let bound = sqlparse::bind_query(db.catalog(), &query).ok()?;
    let base = planner::plan_query_what_if(db, &query, *options, Vec::new()).ok()?;
    let base_cost = plan_cost(&base.plan).max(1.0);
    let mut best: Option<(f64, Candidate, String)> = None;
    for cand in synthesize_candidates(&query, &bound) {
        if already_covered(db, &cand) {
            continue;
        }
        let Some((name, index)) = build_hypothetical(db, &cand) else {
            continue;
        };
        let Ok(what_if) = planner::plan_query_what_if(db, &query, *options, vec![index]) else {
            continue;
        };
        if !plan_uses_index(&what_if.plan, &name) {
            continue;
        }
        let cost = plan_cost(&what_if.plan).max(0.01);
        if cost >= base_cost * IMPROVEMENT_CEILING {
            continue;
        }
        if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
            best = Some((cost, cand, name));
        }
    }
    let (what_if_cost, cand, _name) = best?;
    let overhead = stat.mean_total().saturating_sub(stat.mean_execute());
    let ratio = (what_if_cost / base_cost).clamp(0.0, 1.0);
    let predicted_after = overhead + stat.mean_execute().mul_f64(ratio);
    let saved_per_run = stat.mean_total().saturating_sub(predicted_after);
    let table_name = db
        .table(&cand.table)
        .map(|t| t.schema().name.clone())
        .unwrap_or_else(|| cand.table.clone());
    Some(Recommendation {
        create_sql: format!(
            "CREATE INDEX idx_{}_{} ON {} ({})",
            cand.table.to_lowercase(),
            cand.columns.join("_"),
            table_name,
            cand.columns.join(", ")
        ),
        table: table_name,
        columns: cand.columns,
        evidence_sql: stat.last_sql.clone(),
        shape: stat.normalized_sql.clone(),
        executions: stat.executions,
        mean_before: stat.mean_total(),
        predicted_after,
        base_cost,
        what_if_cost,
        estimated_speedup: base_cost / what_if_cost,
        total_saved: saved_per_run * stat.executions.min(u32::MAX as u64) as u32,
        reasons: Vec::new(),
    })
}

/// Answer `ADVISE [LIMIT n]`: the doctor's ranked prescriptions as a table,
/// and the same advice argued in the system's own voice.
pub fn execute_advise(db: &Database, limit: Option<u64>) -> ShowReport {
    let limit = limit.map(|n| n as usize).unwrap_or(DEFAULT_LIMIT).max(1);
    let options = PlannerOptions::default();
    let recs = recommendations(db, options);
    let shown = &recs[..recs.len().min(limit)];
    let stats = db.obs().workload().snapshot();
    let issues = mine(&stats);

    let rows = shown
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                Value::int(i as i64 + 1),
                Value::text(&r.create_sql),
                Value::text(&r.shape),
                Value::int(r.executions as i64),
                Value::text(format_duration(r.mean_before)),
                Value::text(format_duration(r.predicted_after)),
                Value::text(format!("{:.1}×", r.estimated_speedup)),
                Value::text(format_duration(r.total_saved)),
                Value::text(r.reasons.join("; ")),
            ]
        })
        .collect();
    let table = table_of(
        &[
            "rank",
            "recommendation",
            "evidence",
            "runs",
            "mean",
            "predicted",
            "est_speedup",
            "would_save",
            "because",
        ],
        rows,
    );

    let narration = if stats.is_empty() {
        "I have no workload to advise on yet — run some statements first, then ask me again."
            .to_string()
    } else if shown.is_empty() {
        let mut sentences = vec![finish_sentence(&format!(
            "I examined {} and found nothing an index would cure",
            counted(stats.len(), "statement shape"),
        ))];
        if !issues.is_empty() {
            sentences.push(observation_sentence(&issues));
        }
        join_sentences(&sentences)
    } else {
        let mut sentences = Vec::new();
        let top = &shown[0];
        sentences.push(finish_sentence(&format!(
            "My strongest prescription is {}",
            quote_sql(&top.create_sql)
        )));
        sentences.push(finish_sentence(&format!(
            "Queries like {} have run {} at {} each; with that index I estimate {} per \
             run — plan cost {} instead of {}, roughly {:.0}× faster on the execution \
             itself — which would have saved me {} so far",
            quote_sql(&top.evidence_sql),
            counted(top.executions as usize, "time"),
            format_duration(top.mean_before),
            format_duration(top.predicted_after),
            format_cost(top.what_if_cost),
            format_cost(top.base_cost),
            top.estimated_speedup,
            format_duration(top.total_saved),
        )));
        sentences.push(finish_sentence(&format!(
            "The diagnosis behind it: {}",
            top.reasons.join(", ")
        )));
        if shown.len() > 1 {
            sentences.push(finish_sentence(&format!(
                "I have {} more suggestion{} in the table, ranked by the time each would \
                 have saved",
                count_phrase(shown.len() - 1),
                if shown.len() == 2 { "" } else { "s" },
            )));
        }
        let unaddressed: Vec<&Issue> = issues
            .iter()
            .filter(|i| {
                matches!(
                    i.kind,
                    IssueKind::ApplyHeavy { .. } | IssueKind::ChronicMisestimate { .. }
                )
            })
            .collect();
        if !unaddressed.is_empty() {
            sentences.push(observation_sentence(&issues));
        }
        sentences.push(
            "None of this is built yet — these are what-if plans over hypothetical \
             indexes; say the word and I will make one real."
                .to_string(),
        );
        join_sentences(&sentences)
    };
    ShowReport { table, narration }
}

/// Round a plan cost for narration ("~31000 row touches").
fn format_cost(cost: f64) -> String {
    format!("~{:.0}", cost)
}

/// Narrate the mined pathologies that are observations rather than
/// prescriptions (apply-heavy shapes, chronic misestimates).
fn observation_sentence(issues: &[Issue]) -> String {
    let mut parts = Vec::new();
    for issue in issues.iter().take(2) {
        parts.push(format!(
            "{} in {}",
            issue.kind.label(),
            quote_sql(&issue.evidence_sql)
        ));
    }
    finish_sentence(&format!(
        "For the record, I also see {}{}",
        parts.join(" and "),
        if issues.len() > 2 {
            format!(" (and {} more)", count_phrase(issues.len() - 2))
        } else {
            String::new()
        }
    ))
}

// ---------------------------------------------------------------------------
// CHECKUP — the health report and regression sentinel
// ---------------------------------------------------------------------------

/// Answer `CHECKUP`: a health report over the workload ledger, the miner,
/// the regression sentinel, the plan cache, and the adaptive epoch — as a
/// table of checks and a first-person bill of health.
pub fn execute_checkup(db: &Database) -> ShowReport {
    let obs = db.obs();
    let adaptive = db.adaptive();
    let stats = obs.workload().snapshot();
    let issues = mine(&stats);
    let drifts = regressions(&stats);
    let executions: u64 = stats.iter().map(|s| s.executions).sum();

    let mut rows: Vec<Vec<Value>> = Vec::new();
    rows.push(vec![
        Value::text("workload"),
        Value::text(if stats.is_empty() { "quiet" } else { "ok" }),
        Value::text(format!(
            "{} statement shapes, {} executions",
            stats.len(),
            executions
        )),
    ]);
    rows.push(vec![
        Value::text("miner"),
        Value::text(if issues.is_empty() { "ok" } else { "attention" }),
        Value::text(if issues.is_empty() {
            "no pathological patterns".to_string()
        } else {
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for i in &issues {
                *counts.entry(i.kind.label()).or_default() += 1;
            }
            counts
                .iter()
                .map(|(label, n)| format!("{label} ×{n}"))
                .collect::<Vec<_>>()
                .join(", ")
        }),
    ]);
    if drifts.is_empty() {
        rows.push(vec![
            Value::text("sentinel"),
            Value::text("ok"),
            Value::text("no statement shape has drifted past its baseline"),
        ]);
    } else {
        for drift in &drifts {
            rows.push(vec![
                Value::text("sentinel"),
                Value::text("regression"),
                Value::text(format!(
                    "{:.1}× slower: {} ({} → {}; {})",
                    drift.factor,
                    drift.sql,
                    format_duration(drift.baseline_mean),
                    format_duration(drift.recent_mean),
                    cause_label(&drift.cause),
                )),
            ]);
        }
    }
    let hits = obs.counter(Counter::PlanCacheHits);
    let misses = obs.counter(Counter::PlanCacheMisses);
    rows.push(vec![
        Value::text("plan cache"),
        Value::text("info"),
        Value::text(format!(
            "{hits} hits, {misses} misses, {} evictions",
            obs.counter(Counter::PlanCacheEvictions)
        )),
    ]);
    let cause_counts = adaptive.epoch_cause_counts();
    rows.push(vec![
        Value::text("epoch"),
        Value::text("info"),
        Value::text(format!(
            "at {}; bumps: {}",
            adaptive.epoch(),
            EpochCause::ALL
                .iter()
                .zip(cause_counts.iter())
                .map(|(c, n)| format!("{} ×{n}", c.label()))
                .collect::<Vec<_>>()
                .join(", ")
        )),
    ]);
    rows.push(vec![
        Value::text("journal"),
        Value::text("info"),
        Value::text(format!(
            "{} of {} slots used, {} statements recorded overall",
            obs.journal().tail(None).len(),
            obs.journal().capacity(),
            obs.journal().recorded(),
        )),
    ]);
    let table = table_of(&["check", "status", "detail"], rows);

    let mut sentences = vec!["I gave myself a checkup.".to_string()];
    if stats.is_empty() {
        sentences.push(
            "My workload ledger is empty, so there is not much to examine — run some \
             statements and ask me again."
                .to_string(),
        );
    } else {
        sentences.push(finish_sentence(&format!(
            "I have been watching {} over {}",
            counted(stats.len(), "statement shape"),
            counted(executions as usize, "execution"),
        )));
        if issues.is_empty() {
            sentences.push("My miner found no pathological access patterns.".to_string());
        } else {
            sentences.push(finish_sentence(&format!(
                "My miner flags {} worth fixing — ask me to ADVISE for the costed remedies",
                counted(issues.len(), "pattern"),
            )));
        }
        for drift in drifts.iter().take(2) {
            sentences.push(finish_sentence(&format!(
                "My sentinel is worried about {}: it used to finish in {} and now takes \
                 {} — {:.1}× slower — and {}",
                quote_sql(&drift.sql),
                format_duration(drift.baseline_mean),
                format_duration(drift.recent_mean),
                drift.factor,
                cause_narration(&drift.cause),
            )));
        }
        if drifts.is_empty() {
            sentences.push(
                "No statement shape has drifted past three times its baseline, so my \
                 sentinel is at ease."
                    .to_string(),
            );
        }
        if let Some((epoch, cause)) = adaptive.last_epoch_change() {
            sentences.push(finish_sentence(&format!(
                "My adaptive epoch last moved to {} because of {}",
                epoch,
                capitalize_first(cause.label()).to_lowercase(),
            )));
        }
        sentences.push(if issues.is_empty() && drifts.is_empty() {
            "Overall: healthy.".to_string()
        } else {
            "Overall: functional, but I would feel better with the above seen to.".to_string()
        });
    }
    ShowReport {
        table,
        narration: join_sentences(&sentences),
    }
}

/// Compact cause tag for the CHECKUP table.
fn cause_label(cause: &DriftCause) -> String {
    match cause {
        DriftCause::PlanChange { .. } => "suspect: plan change".to_string(),
        DriftCause::DataGrowth {
            from_rows, to_rows, ..
        } => format!("suspect: data growth {from_rows} → {to_rows} rows"),
        DriftCause::CacheInvalidation {
            from_epoch,
            to_epoch,
        } => format!("suspect: cache invalidation, epoch {from_epoch} → {to_epoch}"),
        DriftCause::Unknown => "cause unclear".to_string(),
    }
}

/// The sentinel's suspicion, spelled out for the narration.
fn cause_narration(cause: &DriftCause) -> String {
    match cause {
        DriftCause::PlanChange { from, to } => format!(
            "the likely culprit is a plan change ({from:016x} → {to:016x}) — something \
             steered me onto a different strategy"
        ),
        DriftCause::DataGrowth { from_rows, to_rows } => format!(
            "the likely culprit is data growth: I now scan about {to_rows} rows per run \
             where I used to scan {from_rows}"
        ),
        DriftCause::CacheInvalidation {
            from_epoch,
            to_epoch,
        } => format!(
            "the likely culprit is a cache invalidation: my epoch moved from \
             {from_epoch} to {to_epoch}, so I replanned from scratch"
        ),
        DriftCause::Unknown => {
            "I cannot pin the cause — the plan, the data, and my epoch all look \
             unchanged"
                .to_string()
        }
    }
}
