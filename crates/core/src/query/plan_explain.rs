//! `EXPLAIN [ANALYZE]`: the DBMS talks back about *what it did* with a
//! query — and *why it planned it that way* — not only what the query means.
//!
//! The paper's §3.1 argues that explanations of a query's behaviour — which
//! operator filtered everything out, how big intermediate results were —
//! build the same trust as content narration. This module turns a plan (or
//! an instrumented run of it) into three complementary renderings:
//!
//! * a **stable ASCII tree** of the physical plan, suitable for golden tests
//!   and for users who read plans, showing the optimizer's estimated rows
//!   per operator (and, with ANALYZE, the actuals, flagging estimates off by
//!   more than 10×);
//! * a **natural-language narration** of the execution, in the system's own
//!   voice: "I scanned six actors and kept the one where a.name = 'Brad
//!   Pitt', …", with row counts taken from the executor's per-operator
//!   instrumentation; and
//! * a **justification of the join order**, read from the planner's
//!   recorded [`PlanDecision`]s: "I started from ACTOR (estimated one row
//!   after its filter) … because that order was expected to produce ~40×
//!   fewer intermediate rows than the order the query was written in."
//!
//! Plain `EXPLAIN` opens the plan without reading a single row and narrates
//! it in the future tense; `EXPLAIN ANALYZE` executes the query and narrates
//! what actually happened.

use crate::error::TalkbackError;
use crate::planner::{GroupedLookup, PlanDecision, PlannerOptions};
use crate::query::{counted, sole_scan_table};
use crate::statement::prepare;
use datastore::exec::{OpKind, PlanProfile, ProfileNode};
use datastore::Database;
use nlg::{
    count_phrase, finish_sentence, indefinite_article, join_sentences, pluralize, quote_sql,
};
use sqlparse::ast::Statement;
use sqlparse::parse_statement;
use std::borrow::Cow;
use std::time::Instant;
use templates::Lexicon;

/// The result of explaining a query's plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplanation {
    /// True when the query was actually executed (`EXPLAIN ANALYZE`).
    pub analyzed: bool,
    /// Stable ASCII rendering of the plan tree. Each line carries the
    /// planner's estimated rows; with `analyzed`, also the operator's actual
    /// row counts.
    pub tree: String,
    /// Natural-language narration: the join-order justification followed by
    /// the plan (future tense) or the execution (past tense, with
    /// instrumented row counts).
    pub narration: String,
    /// The optimizer's recorded join-order decisions.
    pub decisions: Vec<PlanDecision>,
    /// The instrumented profile; counters are all zero unless `analyzed`.
    pub profile: PlanProfile,
    /// Number of rows the query produced (`None` unless `analyzed`).
    pub result_rows: Option<usize>,
}

/// Explain a SQL string. Accepts `EXPLAIN <select>`, `EXPLAIN ANALYZE
/// <select>`, or a bare `<select>` (treated as plain `EXPLAIN`).
pub fn explain_plan(
    db: &Database,
    lexicon: &Lexicon,
    sql: &str,
) -> Result<PlanExplanation, TalkbackError> {
    explain_plan_with(db, lexicon, sql, PlannerOptions::default())
}

/// [`explain_plan`] with explicit planner options — how callers pin a
/// parallelism degree (or disable parallelism) for reproducible plans. With
/// the plan cache on, the SELECT is prepared through it like any other: a
/// template serves the plan and its decisions without parsing or planning.
/// [`crate::Talkback::explain_plan`] says what each form executes and
/// records.
pub fn explain_plan_with(
    db: &Database,
    lexicon: &Lexicon,
    sql: &str,
    options: PlannerOptions,
) -> Result<PlanExplanation, TalkbackError> {
    let start = Instant::now();
    let (mut analyze, select) = explained_select(sql);
    // On a miss the whole statement is parsed, and the parser has the last
    // word on what it asks.
    let parse = || match parse_statement(sql)? {
        Statement::Explain(e) => {
            analyze = e.analyze;
            Ok(Cow::Owned(e.query))
        }
        Statement::Select(s) => Ok(Cow::Owned(s)),
        _ => Err(TalkbackError::Unsupported(
            "EXPLAIN of non-SELECT statements".into(),
        )),
    };
    let prepared = prepare(db, select, parse, options, start)?;
    let flag = options.misestimate_factor;
    let (profile, result_rows, decisions) = if analyze {
        let decisions = prepared.decisions();
        let (result, profile) = prepared.run(PlanProfile::clone)?;
        (profile, Some(result.len()), decisions)
    } else {
        (prepared.describe()?, None, prepared.into_decisions())
    };
    let narrated = narrate_profile_with(&profile, lexicon, analyze, result_rows, flag);
    let mut sentences = narrate_decisions(&decisions);
    sentences.push(narrated);
    Ok(PlanExplanation {
        analyzed: analyze,
        tree: profile.render_tree_with(analyze, flag),
        narration: join_sentences(&sentences),
        decisions,
        profile,
        result_rows,
    })
}

/// Whether `sql` asks for `EXPLAIN ANALYZE`, and the SELECT it explains as
/// it was written: the text after the keywords, each a whole word.
fn explained_select(sql: &str) -> (bool, &str) {
    fn after<'a>(rest: &'a str, word: &str) -> Option<&'a str> {
        let tail = rest.get(word.len()..)?;
        let whole = !tail.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        (rest[..word.len()].eq_ignore_ascii_case(word) && whole).then(|| tail.trim_start())
    }
    let sql = sql.trim();
    match after(sql, "explain") {
        Some(rest) => match after(rest, "analyze") {
            Some(select) => (true, select),
            None => (false, rest),
        },
        None => (false, sql),
    }
}

/// Render an estimated cardinality as a row-count phrase.
fn rows_phrase(rows: f64) -> String {
    counted(rows.round().max(0.0) as usize, "row")
}

/// Narrate the optimizer's decisions as finished sentences: why the join
/// tree starts where it starts, how much cheaper the chosen order was
/// expected to be than the written one, and how each subquery predicate was
/// lowered (semi-/anti-join, evaluate-once scalar, grouped lookup, or
/// per-row apply). Empty
/// when there was nothing to decide.
pub fn narrate_decisions(decisions: &[PlanDecision]) -> Vec<String> {
    let mut sentences = narrate_join_order(decisions);
    for d in decisions {
        match d {
            PlanDecision::Feedback {
                table,
                shape,
                expected,
                actual,
                selectivity,
                ..
            } => {
                sentences.push(finish_sentence(&format!(
                    "Last time I expected {} from {}'s filter on {} and saw {}, so this \
                     time I planned with the observed selectivity ({:.3}) instead of the \
                     statistics",
                    rows_phrase(*expected as f64),
                    table,
                    quote_sql(shape),
                    rows_phrase(*actual as f64),
                    selectivity
                )));
            }
            PlanDecision::Subquery {
                construct,
                strategy,
                on,
                correlated_on,
                cache_cap,
                first_row,
                grouped,
            } => {
                sentences.push(narrate_subquery_decision(
                    construct.as_str(),
                    *strategy,
                    on.as_deref(),
                    correlated_on,
                    *cache_cap,
                    grouped.as_deref(),
                ));
                if *first_row {
                    sentences.push("I stop each check at its first surviving row.".to_string());
                }
            }
            PlanDecision::CorrelatedSelection { alias, predicate } => {
                sentences.push(finish_sentence(&format!(
                    "I apply {} while reading {alias}, once per outer row, rather than \
                     after the join",
                    quote_sql(predicate)
                )));
            }
            PlanDecision::AccessPath {
                table,
                index,
                column,
                kind,
                estimated_rows,
                table_rows,
                chosen,
                ratio,
                parameterized,
                index_only,
                ..
            } => {
                use crate::planner::AccessPathKind as K;
                let est = rows_phrase(*estimated_rows);
                let total = rows_phrase(*table_rows);
                let mut text = match (kind, chosen) {
                    (K::Point, true) => format!(
                        "I looked {table} up by {column} through the index {index} \
                         (expecting {est}) instead of scanning all {total}"
                    ),
                    (K::Range, true) => format!(
                        "I read just the matching {column} range of {table} through the \
                         index {index} — an estimated {est} of its {total}"
                    ),
                    (K::Prefix, true) => format!(
                        "I pinned the leading {column} of {table}'s composite index \
                         {index} and read just that slice — an estimated {est} of its \
                         {total}"
                    ),
                    (K::Point | K::Range | K::Prefix, false) => format!(
                        "{table} has an index on {column}, but the filter keeps an \
                         estimated {est} of its {total} (a probe pays its way below one \
                         row in {ratio:.0}), so I scanned the whole table"
                    ),
                    (K::NestedLoopProbe, true) => format!(
                        "I probed {table}'s index on {column} ({index}) once per outer \
                         row — only {est} expected — instead of building a hash table \
                         over its {total}"
                    ),
                    (K::NestedLoopProbe, false) => format!(
                        "{table}'s {column} is indexed, but with an estimated {est} on \
                         the outer side, probing per row would cost more than one hash \
                         table over its {total}, so I hash-joined"
                    ),
                };
                if *parameterized && *chosen {
                    text.push_str(
                        ", re-binding the probe to each enclosing row's value instead \
                         of rescanning per row",
                    );
                }
                if *index_only && *chosen {
                    text.push_str(
                        ", answering from the index keys alone without touching a \
                         stored row",
                    );
                }
                sentences.push(finish_sentence(&text));
            }
            PlanDecision::SortElided {
                table,
                index,
                column,
                ascending,
                ..
            } => {
                let direction = if *ascending {
                    String::new()
                } else {
                    " (walking it backwards for the descending order)".to_string()
                };
                sentences.push(finish_sentence(&format!(
                    "The index {index} already returns the {table} rows in {column} \
                     order{direction}, so I skipped the sort"
                )));
            }
            PlanDecision::Parallel {
                kind,
                target,
                workers,
                estimated_rows,
                threshold,
                parallelized,
            } => {
                // A pipeline is split into scan morsels; say what each
                // worker did with them.
                use crate::planner::ParallelKind as PK;
                let text = if *parallelized {
                    let mut text = format!(
                        "I split {} (an estimated {}) into morsels across {}, since \
                         it cleared my {}-row bar for going parallel",
                        target,
                        rows_phrase(*estimated_rows),
                        counted(*workers, "worker"),
                        threshold.round() as usize
                    );
                    match kind {
                        PK::PartialAggregate => text.push_str(
                            " — each worker aggregates its own morsels and I merge the \
                             partial results",
                        ),
                        PK::MergeSort => text.push_str(
                            " — each worker sorts its own runs and I merge them back \
                             together",
                        ),
                        PK::TopK => text.push_str(
                            " — each worker keeps only its own best rows and I merge \
                             those short runs",
                        ),
                        PK::Pipeline => {}
                    }
                    text
                } else {
                    format!(
                        "I expected only {} from {}, under my {}-row bar for going \
                         parallel, so I kept it on one thread",
                        rows_phrase(*estimated_rows),
                        target
                            .strip_prefix("the scan of ")
                            .unwrap_or(target.as_str()),
                        threshold.round() as usize
                    )
                };
                sentences.push(finish_sentence(&text));
            }
            PlanDecision::Vectorize {
                operator,
                expression,
                vectorized,
                reason,
            } => {
                let text = if *vectorized {
                    format!(
                        "I compiled the {} on {} into typed column kernels — {} — so it \
                         runs a 1,024-value vector at a time",
                        operator,
                        quote_sql(expression.as_str()),
                        reason
                    )
                } else {
                    format!(
                        "I kept the {} on {} row-at-a-time: {}",
                        operator,
                        quote_sql(expression.as_str()),
                        reason
                    )
                };
                sentences.push(finish_sentence(&text));
            }
            PlanDecision::PartitionedBuild {
                target,
                estimated_rows,
                build_min,
                partitioned,
            } => {
                let text = if *partitioned {
                    format!(
                        "With {} expected on the build side ({}), parallel runs partition \
                         the hash build across the workers — over my {}-row bar",
                        rows_phrase(*estimated_rows),
                        target,
                        build_min
                    )
                } else {
                    format!(
                        "The build side ({}, an estimated {}) stays under my {}-row bar \
                         for a partitioned build, so each parallel run builds its hash \
                         table in one piece",
                        target,
                        rows_phrase(*estimated_rows),
                        build_min
                    )
                };
                sentences.push(finish_sentence(&text));
            }
            _ => {}
        }
    }
    // Two decisions that read the same (the outer block's `count(*)` and its
    // subquery's, both compiled into kernels) are said once.
    let mut said: Vec<String> = Vec::with_capacity(sentences.len());
    for sentence in sentences {
        if !said.contains(&sentence) {
            said.push(sentence);
        }
    }
    said
}

/// One sentence for a recorded subquery-lowering decision.
fn narrate_subquery_decision(
    construct: &str,
    strategy: crate::planner::SubqueryStrategy,
    on: Option<&str>,
    correlated_on: &[String],
    cache_cap: usize,
    grouped: Option<&GroupedLookup>,
) -> String {
    use crate::planner::SubqueryStrategy as S;
    let quoted = quote_sql(construct);
    let text = match (strategy, grouped) {
        (S::SemiJoin, _) => format!(
            "I turned {} into a semi-join on {}",
            quoted,
            on.unwrap_or("its key")
        ),
        (S::AntiJoin, _) => format!(
            "I turned {} into an anti-join on {}",
            quoted,
            on.unwrap_or("its key")
        ),
        (S::NullAwareAntiJoin, _) => format!(
            "I turned {} into a NULL-aware anti-join on {}, preserving NOT IN's \
             three-valued NULL semantics",
            quoted,
            on.unwrap_or("its key")
        ),
        (S::ScalarOnce, _) => format!(
            "I evaluated the scalar subquery in {} once up front and reused its cached value",
            quoted
        ),
        (S::KeyedScalar, Some(g)) => {
            let (item, o, over) = (quote_sql(&g.item), &g.outer, &g.over);
            let ratio = ratio_text(g.apply_cost / g.build_cost.max(1.0));
            let absent = match g.absent.as_str() {
                "NULL" => "gets NULL, which no comparison keeps".to_string(),
                value => format!("counts as {value}"),
            };
            format!(
                "I computed {item} over {over} once per {} and looked each group up by {}, \
                 expected to touch ~{ratio}× fewer rows than checking each {o} in turn; {} \
                 {o} with no matching {} {absent}",
                g.by,
                g.probe,
                indefinite_article(o),
                g.inner
            )
        }
        (S::Apply | S::KeyedScalar, _) => {
            let (reason, it) = match grouped {
                Some(g) => (
                    format!(
                        "Grouping {} over {} by {} was expected to touch ~{}× more rows than \
                         checking each {} in turn",
                        quote_sql(&g.item),
                        g.over,
                        g.by,
                        ratio_text(g.build_cost / g.apply_cost.max(1.0)),
                        g.outer
                    ),
                    quoted.as_str(),
                ),
                None => (format!("I could not flatten {quoted}"), "it"),
            };
            if correlated_on.is_empty() {
                format!(
                    "{reason}, so I run {it} as an apply (it is evaluated once and cached, \
                     since it carries no correlation)"
                )
            } else {
                format!(
                    "{reason}, so I re-check {it} for each row as an apply, caching results \
                     per distinct value of {} (keeping at most {} cached results)",
                    correlated_on.join(", "),
                    cache_cap
                )
            }
        }
    };
    finish_sentence(&text)
}

/// A cost ratio as the narration says it: "40" from ten up, "2.5" below.
fn ratio_text(ratio: f64) -> String {
    if ratio >= 10.0 {
        format!("{ratio:.0}")
    } else {
        format!("{ratio:.1}")
    }
}

/// What a subquery operator did, in words, from the profile's
/// [`datastore::exec::SubqueryTally`] rather than the tree's detail.
fn narrate_subquery_operator(node: ProfileNode, analyzed: bool) -> String {
    let tally = node.subquery().unwrap_or_default();
    let keys = tally.keys.join(" and ");
    let value = format!("distinct {keys} value");
    let text = match (node.kind() == OpKind::Apply, keys.is_empty(), analyzed) {
        (true, true, false) => "will check the subquery once and reuse its answer".into(),
        (true, true, true) => "checked the subquery once".into(),
        (true, false, false) => {
            format!("will re-check the subquery for each {value}, caching the answers")
        }
        (true, false, true) => {
            let each = if tally.evaluations == 1 {
                "the"
            } else {
                "each of the"
            };
            let checked = counted(tally.evaluations as usize, &value);
            let mut text = format!("re-checked the subquery for {each} {checked}");
            if tally.cache_hits > 0 {
                let reused = counted(tally.cache_hits as usize, "more row");
                text += &format!(" and reused those answers for {reused}");
            }
            text
        }
        (false, true, false) => "will compute the subquery's value once".into(),
        (false, true, true) => "computed the subquery's value once".into(),
        (false, false, false) => format!(
            "will compute the subquery once per group and look each row's {keys} up among them"
        ),
        (false, false, true) => format!(
            "computed the subquery once per group ({}) and looked each row's {keys} up among them",
            counted(tally.groups as usize, "group")
        ),
    };
    let kept = count_phrase(node.metrics().rows_out as usize);
    if analyzed {
        format!("{text}, keeping {kept}")
    } else {
        text
    }
}

/// The join-order justification sentence, when there were joins to order.
fn narrate_join_order(decisions: &[PlanDecision]) -> Vec<String> {
    let mut start = None;
    let mut joins = Vec::new();
    let mut comparison = None;
    for d in decisions {
        match d {
            PlanDecision::Start { .. } => start = Some(d),
            PlanDecision::Join { .. } => joins.push(d),
            PlanDecision::OrderComparison { .. } => comparison = Some(d),
            PlanDecision::Subquery { .. }
            | PlanDecision::Parallel { .. }
            | PlanDecision::AccessPath { .. }
            | PlanDecision::SortElided { .. }
            | PlanDecision::Vectorize { .. }
            | PlanDecision::Feedback { .. }
            | PlanDecision::PartitionedBuild { .. }
            | PlanDecision::CorrelatedSelection { .. } => {}
        }
    }
    let (
        Some(PlanDecision::Start {
            table,
            estimated_rows,
            filtered,
            ..
        }),
        false,
    ) = (start, joins.is_empty())
    else {
        return Vec::new();
    };

    let mut text = format!(
        "I started from {} (an estimated {}{})",
        table,
        rows_phrase(*estimated_rows),
        if *filtered { " after its filter" } else { "" }
    );
    let join_parts: Vec<String> = joins
        .iter()
        .enumerate()
        .map(|(i, d)| match d {
            PlanDecision::Join {
                table,
                estimated_rows,
                cross_product,
                ..
            } => format!(
                "{}{}{} (expecting {})",
                table,
                if i == 0 { " next" } else { "" },
                if *cross_product {
                    " as a cross product"
                } else {
                    ""
                },
                rows_phrase(*estimated_rows)
            ),
            _ => unreachable!("joins only holds Join decisions"),
        })
        .collect();
    text.push_str(&format!(" and joined {}", join_parts.join(", then ")));

    if let Some(PlanDecision::OrderComparison {
        chosen,
        written,
        chosen_cost,
        written_cost,
        method,
    }) = comparison
    {
        // Say how hard the enumerator looked: dynamic programming covers
        // every connected join order; the greedy fallback takes over past
        // `DP_MAX_RELATIONS` relations.
        let searched = match method {
            crate::planner::JoinEnumeration::Dynamic => {
                "after weighing every join order over the connected relations"
            }
            crate::planner::JoinEnumeration::Greedy => {
                "picking the cheapest next relation at each step"
            }
        };
        if chosen == written {
            text.push_str(&format!(
                ", keeping the order the query was written in — {searched}, it was \
                 already the cheapest I could find",
            ));
        } else {
            let ratio = written_cost.max(1.0) / chosen_cost.max(1.0);
            if ratio >= 1.5 {
                text.push_str(&format!(
                    ", because {searched}, that one was expected to produce ~{}× fewer \
                     intermediate rows than the order the query was written in",
                    ratio_text(ratio)
                ));
            } else {
                text.push_str(&format!(
                    ", an order expected ({searched}) to be at least as cheap as the \
                     one the query was written in",
                ));
            }
        }
    }
    vec![finish_sentence(&text)]
}

/// Narrate a (possibly instrumented) plan profile in execution order,
/// flagging estimates off by more than `misestimate_factor`
/// (`PlannerOptions::misestimate_factor`).
pub fn narrate_profile_with(
    profile: &PlanProfile,
    lexicon: &Lexicon,
    analyzed: bool,
    result_rows: Option<usize>,
    misestimate_factor: f64,
) -> String {
    let mut clauses = Vec::new();
    narrate_node(profile.root(), lexicon, analyzed, &mut clauses);
    let mut sentences = Vec::new();
    if !clauses.is_empty() {
        let mut body = String::from("I ");
        body.push_str(&clauses.join(", then "));
        sentences.push(finish_sentence(&body));
    }
    if let Some(rows) = result_rows {
        sentences.push(finish_sentence(&format!(
            "In the end the query produced {}",
            counted(rows, "row")
        )));
    }
    if analyzed {
        if let Some(sentence) = worst_misestimate_sentence(profile, misestimate_factor) {
            sentences.push(sentence);
        }
        sentences.extend(parallel_speedup_sentences(profile));
    }
    join_sentences(&sentences)
}

/// For every parallel fan-out in an analyzed profile: how much operator work
/// it did versus the wall-clock time it took — the measured speedup the
/// morsel scheduling bought. Uses each operator's *own* time accounting
/// (`blocked` excluded), so the sentence blames the operator that actually
/// burned the cycles rather than a parent that merely waited.
fn parallel_speedup_sentences(profile: &PlanProfile) -> Vec<String> {
    let mut sentences = Vec::new();
    profile.walk(&mut |p| {
        let Some(workers) = p.workers().filter(|&w| w > 1) else {
            return;
        };
        // parallel_speedup is None for everything but an executed exchange.
        let Some(speedup) = p.parallel_speedup() else {
            return;
        };
        let work: std::time::Duration = p.children().map(|c| c.metrics().elapsed).sum();
        let wall = p.metrics().blocked;
        // Name the hungriest operator inside the parallel section by its own
        // (non-blocked) time, so the blame lands on real work.
        let mut hungriest: Option<(&str, std::time::Duration)> = None;
        for child in p.children() {
            child.walk(&mut |inner| {
                let own = inner.metrics().self_elapsed();
                if hungriest.is_none_or(|(_, t)| own > t) {
                    hungriest = Some((inner.operator(), own));
                }
            });
        }
        let mut text = format!(
            "The parallel section did {} of operator work in {} \
             of wall time across {} (a {speedup:.1}× speedup)",
            datastore::format_duration(work),
            datastore::format_duration(wall),
            counted(workers, "worker"),
        );
        if let Some((op, own)) = hungriest.filter(|(_, t)| !t.is_zero()) {
            text.push_str(&format!(
                ", most of it in the {op} ({} of its own time)",
                datastore::format_duration(own)
            ));
        }
        sentences.push(finish_sentence(&text));
    });
    sentences
}

/// The sentence owning up to the worst cardinality misestimate (off by more
/// than the flagging threshold in either direction), if any operator has
/// one.
fn worst_misestimate_sentence(profile: &PlanProfile, flag_factor: f64) -> Option<String> {
    let (node, factor) = profile.worst_misestimate(flag_factor)?;
    Some(finish_sentence(&format!(
        "My estimate for the {} on {} was off by about {:.0}× — I expected {} and saw {}",
        node.operator(),
        quote_sql(&node.detail()),
        factor,
        rows_phrase(node.estimated_rows().unwrap_or(0.0)),
        rows_phrase(node.metrics().rows_out as f64)
    )))
}

/// The middle of a join clause: "the movies to their casting credits",
/// using the lexicon's relationship verbs when one is registered for the
/// joined pair ("the actors to the movies they play in").
fn join_phrase(lexicon: &Lexicon, left: Option<&str>, right: Option<&str>) -> Option<String> {
    let (left, right) = (left?, right?);
    let lp = pluralize(&lexicon.concept(left));
    let rp = pluralize(&lexicon.concept(right));
    Some(if let Some(v) = lexicon.verb(left, right) {
        let verb = if v.verb_plural.is_empty() {
            &v.verb
        } else {
            &v.verb_plural
        };
        format!("the {lp} to the {rp} they {verb}")
    } else if let Some(v) = lexicon.verb(right, left) {
        let verb = if v.verb_plural.is_empty() {
            &v.verb
        } else {
            &v.verb_plural
        };
        format!("the {lp} to the {rp} that {verb} them")
    } else {
        format!("the {lp} to their {rp}")
    })
}

/// Fold a chain of filters over a scan into one clause ("scanned six actors
/// and kept the one where a.name = 'Brad Pitt'"); `None` when the node is
/// not such a chain.
fn fold_scan_filters(node: ProfileNode, lexicon: &Lexicon, analyzed: bool) -> Option<String> {
    let mut conditions = Vec::new();
    let mut vector_batches = 0u64;
    let mut current = node;
    while current.kind() == OpKind::Filter {
        conditions.push(quote_sql(&current.detail()));
        vector_batches += current.metrics().vector_batches;
        current = current.children().next()?;
    }
    if current.kind() != OpKind::Scan || conditions.is_empty() {
        return None;
    }
    let table = current.table()?;
    let noun = pluralize(&lexicon.concept(table));
    // The innermost filter runs first; conditions were collected top-down.
    conditions.reverse();
    let conditions = conditions.join(" and ");
    Some(if analyzed {
        let scanned = current.metrics().rows_out as usize;
        let kept = node.metrics().rows_out as usize;
        if scanned == 0 {
            format!("scanned the {noun} but found none to check against {conditions}")
        } else if kept == 0 {
            format!(
                "scanned {} {} but none of them matched {}",
                count_phrase(scanned),
                noun,
                conditions
            )
        } else {
            let mut text = format!(
                "scanned {} {} and kept the {} where {}",
                count_phrase(scanned),
                noun,
                count_phrase(kept),
                conditions
            );
            if vector_batches > 0 {
                text.push_str(&format!(
                    ", evaluated over {} of up to 1,024 values",
                    counted(vector_batches as usize, "vector")
                ));
            }
            text
        }
    } else {
        format!("will scan the {noun} and keep only rows where {conditions}")
    })
}

/// Post-order (execution-order) narration of one operator subtree.
fn narrate_node(node: ProfileNode, lexicon: &Lexicon, analyzed: bool, clauses: &mut Vec<String>) {
    // A filter chain over a scan folds into a single clause ("scanned and
    // kept…") instead of one clause per operator.
    if node.kind() == OpKind::Filter {
        if let Some(clause) = fold_scan_filters(node, lexicon, analyzed) {
            clauses.push(clause);
            return;
        }
    }
    // The subquery side of an apply / scalar subquery runs inside the
    // operator (per row, or once); narrating its operators inline would read
    // as extra pipeline steps, so only the outer input is walked and the
    // clause itself names the subquery. The probe side of an index
    // nested-loop join is likewise not a pipeline step of its own.
    let skip_subquery_child = matches!(
        node.kind(),
        OpKind::Apply | OpKind::ScalarSubquery | OpKind::IndexNestedLoopJoin
    );
    for (i, child) in node.children().enumerate() {
        if skip_subquery_child && i == 1 {
            continue;
        }
        narrate_node(child, lexicon, analyzed, clauses);
    }
    let m = node.metrics();
    // Each clause says the detail at most once; a condition is quoted as
    // written.
    let detail = || node.detail();
    let condition = || quote_sql(&node.detail());
    let clause = match node.operator() {
        "scan" => {
            let table = node.table().unwrap_or_default();
            let noun = pluralize(&lexicon.concept(table));
            if analyzed {
                format!("scanned {} {}", count_phrase(m.rows_out as usize), noun)
            } else {
                format!("will scan the {noun}")
            }
        }
        "index scan" => {
            let Some(access) = node.access() else {
                return; // Unreachable: index scans always carry metadata.
            };
            let noun = pluralize(&lexicon.concept(&access.table));
            let index = &access.index;
            let predicate = node.access_predicate();
            let predicate = predicate.map_or_else(|| "its bounds".to_string(), |p| quote_sql(&p));
            if analyzed {
                let noun_counted = if m.rows_out == 1 {
                    lexicon.concept(&access.table)
                } else {
                    noun.clone()
                };
                if access.point {
                    format!(
                        "looked up the {} {} with {} through the index {}",
                        count_phrase(m.rows_out as usize),
                        noun_counted,
                        predicate,
                        index
                    )
                } else {
                    format!(
                        "read the {} {} in the {} range straight from the index {}",
                        count_phrase(m.rows_out as usize),
                        noun_counted,
                        predicate,
                        index
                    )
                }
            } else if access.point {
                format!("will look the {noun} with {predicate} up through the index {index}")
            } else {
                format!(
                    "will read only the {noun} in the {predicate} range through the \
                     index {index}"
                )
            }
        }
        "index nested-loop join" => {
            let partner = node
                .children()
                .nth(1)
                .and_then(sole_scan_table)
                .map(|t| pluralize(&lexicon.concept(&t)))
                .unwrap_or_else(|| "matching rows".to_string());
            if analyzed {
                format!(
                    "fetched the matching {partner} through their index for each row, into {}",
                    counted(m.rows_out as usize, "combination")
                )
            } else {
                format!(
                    "will fetch the matching {partner} through their index for each row \
                     ({})",
                    detail()
                )
            }
        }
        "values" => {
            if analyzed {
                format!("used {} literal rows", count_phrase(m.rows_out as usize))
            } else {
                "will use the given literal rows".to_string()
            }
        }
        "filter" => {
            if analyzed {
                if m.rows_in == 0 {
                    format!("found nothing to check against {}", condition())
                } else {
                    let mut text = format!(
                        "kept the {} of them where {}",
                        count_phrase(m.rows_out as usize),
                        condition()
                    );
                    if m.vector_batches > 0 {
                        text.push_str(&format!(
                            ", evaluated over {} of up to 1,024 values",
                            counted(m.vector_batches as usize, "vector")
                        ));
                    }
                    text
                }
            } else {
                format!("will keep only rows where {}", condition())
            }
        }
        "hash join" => {
            let phrase = join_phrase(
                lexicon,
                node.children().next().and_then(sole_scan_table).as_deref(),
                node.children().nth(1).and_then(sole_scan_table).as_deref(),
            )
            .or_else(|| {
                // Left side is an accumulated join: name only the new
                // relation.
                node.children()
                    .nth(1)
                    .and_then(sole_scan_table)
                    .map(|t| format!("them to the {}", pluralize(&lexicon.concept(&t))))
            });
            let combinations = counted(m.rows_out as usize, "combination");
            match (analyzed, phrase) {
                (true, Some(phrase)) => format!("matched {phrase} into {}", combinations),
                (true, None) => format!("matched them on {} into {}", condition(), combinations),
                (false, Some(phrase)) => format!("will match {} on {}", phrase, condition()),
                (false, None) => format!("will match them on {}", condition()),
            }
        }
        "nested-loop join" => {
            if analyzed {
                format!(
                    "combined them pairwise into {}",
                    counted(m.rows_out as usize, "row")
                )
            } else {
                "will combine them pairwise".to_string()
            }
        }
        "semi join" | "anti join" => {
            let anti = node.kind() == OpKind::AntiJoin;
            // Name what the build side holds when it is a single relation
            // ("kept the movies that have at least one casting credit").
            let partner = node
                .children()
                .nth(1)
                .and_then(sole_scan_table)
                .map(|t| lexicon.concept(&t))
                .unwrap_or_else(|| "subquery row".to_string());
            if analyzed {
                if anti {
                    format!(
                        "kept the {} of them with no matching {}",
                        count_phrase(m.rows_out as usize),
                        partner
                    )
                } else {
                    format!(
                        "kept the {} of them that have at least one matching {}",
                        count_phrase(m.rows_out as usize),
                        partner
                    )
                }
            } else if anti {
                format!(
                    "will keep only rows with no matching {partner} ({})",
                    condition()
                )
            } else {
                format!(
                    "will keep only rows with at least one matching {partner} ({})",
                    condition()
                )
            }
        }
        "scalar subquery" | "apply" => narrate_subquery_operator(node, analyzed),
        "aggregate" => {
            if analyzed {
                let mut text = format!(
                    "summarized them into {}",
                    counted(m.rows_out as usize, "group")
                );
                if m.vector_batches > 0 {
                    text.push_str(&format!(
                        ", accumulated through the typed kernels over {}",
                        counted(m.vector_batches as usize, "vector")
                    ));
                }
                text
            } else {
                format!("will summarize them ({})", detail())
            }
        }
        "sort" => {
            if analyzed {
                format!("sorted them by {}", detail())
            } else {
                format!("will sort them by {}", detail())
            }
        }
        "limit" => {
            if analyzed {
                format!("kept the first {}", count_phrase(m.rows_out as usize))
            } else {
                format!("will keep at most the first {}", detail())
            }
        }
        "distinct" => {
            if analyzed {
                format!(
                    "removed duplicates, leaving {}",
                    count_phrase(m.rows_out as usize)
                )
            } else {
                "will remove duplicates".to_string()
            }
        }
        "exchange" => {
            let workers = node.workers().unwrap_or(1);
            let partial_agg = node.has_tag("partial-agg");
            let merge_sort = node.has_tag("merge-sort");
            let top_k = node
                .tags()
                .iter()
                .find_map(|t| t.strip_prefix("top-k k="))
                .map(str::to_string);
            if analyzed {
                let base = format!(
                    "ran that pipeline across {} ({})",
                    counted(workers, "worker"),
                    detail(),
                );
                let out = |noun| counted(m.rows_out as usize, noun);
                if partial_agg {
                    let mut text = format!(
                        "{base}, merging the per-morsel partial aggregates into {}",
                        out("group")
                    );
                    if m.vector_batches > 0 {
                        text.push_str(&format!(
                            " after accumulating {} through the typed kernels",
                            counted(m.vector_batches as usize, "vector")
                        ));
                    }
                    text
                } else if merge_sort {
                    format!(
                        "{base}, merging their sorted runs into {}",
                        out("ordered row")
                    )
                } else if let Some(k) = top_k {
                    format!(
                        "{base}, each worker keeping only its best {k} rows, merged into {}",
                        out("row")
                    )
                } else {
                    format!("{base}, gathering {} back in order", out("row"))
                }
            } else {
                let base = format!(
                    "will run that pipeline across {}, splitting its scan into morsels",
                    counted(workers, "worker")
                );
                if partial_agg {
                    format!("{base} and merging each worker's partial aggregates")
                } else if merge_sort {
                    format!("{base} and merging each worker's sorted run")
                } else if let Some(k) = top_k {
                    format!("{base}, each worker keeping only its best {k} rows")
                } else {
                    base
                }
            }
        }
        "project" => {
            // Projection is bookkeeping, not a step users care about; only
            // mention it when it is the sole operator.
            if clauses.is_empty() {
                if analyzed {
                    format!("returned {}", detail())
                } else {
                    format!("will return {}", detail())
                }
            } else {
                return;
            }
        }
        other => {
            if analyzed {
                format!("ran {other}")
            } else {
                format!("will run {other}")
            }
        }
    };
    clauses.push(clause);
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::movie_database;

    const Q1: &str = "select m.title from MOVIES m, CAST c, ACTOR a \
        where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'";

    #[test]
    fn plain_explain_does_not_execute() {
        let db = movie_database();
        let e = explain_plan(&db, &Lexicon::movie_domain(), &format!("explain {Q1}")).unwrap();
        assert!(!e.analyzed);
        assert!(e.result_rows.is_none());
        assert!(e.tree.contains("hash join"));
        assert!(
            e.tree.contains("[est="),
            "plain EXPLAIN shows the planner's estimates"
        );
        assert!(
            !e.tree.contains("actual="),
            "plain EXPLAIN must not show counts"
        );
        // Every counter is zero: nothing was read.
        e.profile.walk(&mut |p| {
            assert_eq!(p.metrics().rows_in, 0);
            assert_eq!(p.metrics().rows_out, 0);
        });
        assert!(e.narration.contains("will scan"));
        // The join-order justification is part of the narration.
        assert!(e.narration.contains("I started from ACTOR"));
        assert!(!e.decisions.is_empty());
    }

    #[test]
    fn explain_analyze_counts_match_execution() {
        let db = movie_database();
        let e = explain_plan(
            &db,
            &Lexicon::movie_domain(),
            &format!("explain analyze {Q1}"),
        )
        .unwrap();
        assert!(e.analyzed);
        assert_eq!(e.result_rows, Some(2));
        assert!(e.tree.contains("[est="));
        assert!(e.tree.contains("actual=2"));
        assert!(e.narration.contains("produced two rows"));
        // The root operator's rows_out equals the result size.
        assert_eq!(e.profile.metrics().rows_out, 2);
    }

    /// Regression: a sentence squashed the constant's two spaces while the
    /// tree kept them. Every condition a sentence says is quoted as written.
    #[test]
    fn a_condition_is_said_as_written() {
        let db = movie_database();
        let q1 = Q1.replace("Brad Pitt", "Brad  Pitt");
        let lexicon = Lexicon::movie_domain();
        let plain = explain_plan(&db, &lexicon, &format!("explain {q1}")).unwrap();
        assert!(
            plain
                .narration
                .contains("will scan the actors and keep only rows where `a.name = 'Brad  Pitt'`"),
            "{}",
            plain.narration
        );
        let analyzed = explain_plan(&db, &lexicon, &format!("explain analyze {q1}")).unwrap();
        assert!(
            analyzed
                .narration
                .contains("scanned six actors but none of them matched `a.name = 'Brad  Pitt'`"),
            "{}",
            analyzed.narration
        );
        assert!(analyzed.tree.contains("filter: a.name = 'Brad  Pitt'"));
    }

    #[test]
    fn narration_folds_scan_and_filter_and_uses_join_nouns() {
        let db = movie_database();
        let e = explain_plan(
            &db,
            &Lexicon::movie_domain(),
            &format!("explain analyze {Q1}"),
        )
        .unwrap();
        // Scan + filter fold into one clause…
        assert!(
            e.narration
                .contains("scanned six actors and kept the one where"),
            "fold missing from: {}",
            e.narration
        );
        // …and the joins talk about relations, not column pairs.
        assert!(
            e.narration
                .contains("matched the actors to their casting credits"),
            "join nouns missing from: {}",
            e.narration
        );
        // The final join probes MOVIES' PK index instead of hash-joining,
        // and both the decision and the execution narrate it.
        assert!(
            e.narration
                .contains("fetched the matching movies through their index"),
            "index-join phrase missing from: {}",
            e.narration
        );
        assert!(
            e.narration.contains("I probed MOVIES's index on id"),
            "access-path decision missing from: {}",
            e.narration
        );
    }

    #[test]
    fn join_order_justification_quotes_the_cost_ratio() {
        let db = movie_database();
        let e = explain_plan(&db, &Lexicon::movie_domain(), &format!("explain {Q1}")).unwrap();
        assert!(
            e.narration.contains("fewer intermediate rows")
                || e.narration.contains("at least as cheap")
                || e.narration.contains("cheapest I could find"),
            "justification missing from: {}",
            e.narration
        );
    }

    #[test]
    fn single_table_queries_have_no_join_decisions_to_narrate() {
        let db = movie_database();
        let e = explain_plan(
            &db,
            &Lexicon::movie_domain(),
            "explain select m.title from MOVIES m where m.year > 2000",
        )
        .unwrap();
        assert!(!e.narration.contains("I started from"));
    }

    #[test]
    fn misestimates_are_flagged_in_tree_and_narration() {
        use datastore::exec::execute_with_stats;
        use datastore::exec::Plan;
        // Hand-build a plan whose estimate is wildly wrong: claim the scan
        // of MOVIES produces one row when it produces ten.
        let db = movie_database();
        let plan = Plan::scan("MOVIES", "m").with_estimate(1.0);
        let (_, profile) = execute_with_stats(&db, &plan).unwrap();
        assert!(profile.root().misestimate().is_some());
        let tree = profile.render_tree(true);
        assert!(
            tree.contains("est off by 10x"),
            "tree missing misestimate flag: {tree}"
        );
        let flag = datastore::exec::MISESTIMATE_FACTOR;
        let narration = narrate_profile_with(&profile, &Lexicon::movie_domain(), true, None, flag);
        assert!(
            narration.contains("off by about 10×"),
            "narration missing misestimate: {narration}"
        );
    }

    #[test]
    fn index_scan_explain_is_golden_and_narrated() {
        // The acceptance golden: an IndexScan in the tree with its narrated
        // AccessPath decision.
        let db = movie_database();
        let e = explain_plan(
            &db,
            &Lexicon::movie_domain(),
            "explain select m.title from MOVIES m where m.id = 6",
        )
        .unwrap();
        assert_eq!(
            e.tree,
            "project: m.title  [est=1]\n\
             └─ index scan: MOVIES as m [index=pk_movies point m.id = 6]  [est=1]\n"
        );
        assert!(
            e.narration.contains(
                "I looked MOVIES up by id through the index pk_movies (expecting one row) \
                 instead of scanning all ten rows."
            ),
            "decision narration missing from: {}",
            e.narration
        );
        assert!(
            e.narration
                .contains("will look the movies with `m.id = 6` up through the index pk_movies"),
            "plan narration missing from: {}",
            e.narration
        );
        // ANALYZE shows est vs. actual on the probe itself.
        let e = explain_plan(
            &db,
            &Lexicon::movie_domain(),
            "explain analyze select m.title from MOVIES m where m.id = 6",
        )
        .unwrap();
        assert!(
            e.tree.contains(
                "index scan: MOVIES as m [index=pk_movies point m.id = 6]  \
                           [est=1 actual=1 in=1 batches=1]"
            ),
            "est/actual missing from: {}",
            e.tree
        );
        assert!(
            e.narration
                .contains("looked up the one movie with `m.id = 6` through the index pk_movies"),
            "executed narration missing from: {}",
            e.narration
        );
    }

    #[test]
    fn rejected_index_is_narrated_too() {
        // The acceptance criterion's narrated *rejection*: the index exists,
        // the filter is unselective, the narration owns up to scanning.
        let db = movie_database();
        let e = explain_plan(
            &db,
            &Lexicon::movie_domain(),
            "explain select m.title from MOVIES m where m.id >= 0",
        )
        .unwrap();
        assert!(e.tree.contains("scan: MOVIES as m"));
        assert!(!e.tree.contains("index scan"));
        assert!(
            e.narration.contains(
                "MOVIES has an index on id, but the filter keeps an estimated ten rows of \
                 its ten rows (a probe pays its way below one row in 4), so I scanned the \
                 whole table."
            ),
            "rejection narration missing from: {}",
            e.narration
        );
    }

    #[test]
    fn sort_elision_is_narrated() {
        use datastore::{IndexDef, IndexKind};
        let mut db = movie_database();
        db.create_index(IndexDef::single(
            "idx_year",
            "MOVIES",
            "year",
            IndexKind::Ordered,
        ))
        .unwrap();
        let e = explain_plan(
            &db,
            &Lexicon::movie_domain(),
            "explain analyze select m.title, m.year from MOVIES m \
             where m.year >= 2005 order by m.year",
        )
        .unwrap();
        assert!(!e.tree.contains("sort:"), "sort still in tree: {}", e.tree);
        assert!(e.tree.contains("key order"), "tree: {}", e.tree);
        assert!(
            e.narration.contains(
                "The index idx_year already returns the MOVIES rows in year order, so I \
                 skipped the sort."
            ),
            "elision narration missing from: {}",
            e.narration
        );
        assert_eq!(e.result_rows, Some(2));
    }

    #[test]
    fn misestimate_factor_knob_tightens_and_loosens_the_flags() {
        // MOVIES has ten rows; claim the residual-style estimate is 10 but
        // filter to 8: off by 1.25× — invisible at the default 10×, flagged
        // with the knob at 1.2.
        let db = movie_database();
        let sql = "explain analyze select m.title from MOVIES m where m.year <> 2004";
        let strict = explain_plan_with(
            &db,
            &Lexicon::movie_domain(),
            sql,
            crate::planner::PlannerOptions {
                misestimate_factor: 1.01,
                ..crate::planner::PlannerOptions::sequential()
            },
        )
        .unwrap();
        assert!(
            strict.tree.contains("est off by"),
            "strict knob must flag small misses: {}",
            strict.tree
        );
        assert!(
            strict.narration.contains("off by about"),
            "strict knob must narrate the miss: {}",
            strict.narration
        );
        let lax = explain_plan_with(
            &db,
            &Lexicon::movie_domain(),
            sql,
            crate::planner::PlannerOptions {
                misestimate_factor: 1000.0,
                ..crate::planner::PlannerOptions::sequential()
            },
        )
        .unwrap();
        assert!(!lax.tree.contains("est off by"));
        assert!(!lax.narration.contains("off by about"));
    }

    #[test]
    fn bare_select_is_treated_as_plain_explain() {
        let db = movie_database();
        let e = explain_plan(&db, &Lexicon::movie_domain(), Q1).unwrap();
        assert!(!e.analyzed);
        assert!(e.tree.contains("scan"));
    }

    /// The adaptive-planning golden: the first `EXPLAIN ANALYZE` flags the
    /// 50× miss in its tree, and the second run's narration quotes the
    /// correction it learned from it, selectivity and all.
    #[test]
    fn feedback_correction_narration_is_golden() {
        use datastore::{ColumnDef, DataType, Database, TableSchema, Value};
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
        let options = crate::planner::PlannerOptions {
            parallelism: 1,
            ..crate::planner::PlannerOptions::default()
        };
        let sql = "explain analyze select f.id from FILMS f where f.genre = 'noir'";

        // First run: the uniform-NDV estimate (100 rows / 2 genres = 50) is
        // 50× off, and the tree owns up to it.
        let first = explain_plan_with(&db, &Lexicon::movie_domain(), sql, options).unwrap();
        assert_eq!(
            first.tree,
            "project: f.id  [est=50 actual=1 in=1 batches=1]  <-- est off by 50x\n\
             └─ filter: f.genre = 'noir'  [vectorized]  [est=50 actual=1 in=100 batches=1]  \
             <-- est off by 50x\n\
             \u{20}  └─ scan: FILMS as f  [est=100 actual=100 in=100 batches=1]\n"
        );

        // Second run: the planner consults the absorbed feedback before the
        // histogram, estimates one row, and narrates the correction.
        let second = explain_plan_with(&db, &Lexicon::movie_domain(), sql, options).unwrap();
        assert!(
            second
                .decisions
                .iter()
                .any(|d| matches!(d, PlanDecision::Feedback { .. })),
            "second plan should carry a Feedback decision"
        );
        assert!(
            second.narration.starts_with(
                "Last time I expected 50 rows from FILMS's filter on `f.genre = ?` and saw \
                 one row, so this time I planned with the observed selectivity (0.010) \
                 instead of the statistics."
            ),
            "correction narration missing from: {}",
            second.narration
        );
        assert!(
            second
                .tree
                .contains("filter: f.genre = 'noir'  [vectorized]  [est=1 actual=1"),
            "corrected estimate missing from tree:\n{}",
            second.tree
        );
    }

    #[test]
    fn explain_of_dml_is_unsupported() {
        let db = movie_database();
        let err = explain_plan(
            &db,
            &Lexicon::movie_domain(),
            "insert into GENRE values (1, 'action')",
        )
        .unwrap_err();
        assert!(matches!(err, TalkbackError::Unsupported(_)));
    }
}
