//! What the planner decided, on the record: the [`PlanDecision`]s a plan is
//! returned with, which `EXPLAIN` narrates and [`ObsRegistry`] counts by
//! [`DecisionKind`]. They live in this crate because a plan-cache template
//! ([`crate::adaptive::PlanTemplate`]) keeps the decisions of its plan: a
//! template-served `EXPLAIN` binds them to the statement's literals as the
//! plan is bound, and neither parses nor plans.
//!
//! Three decision fields quote SQL that may hold a statement literal:
//! [`PlanDecision::Subquery`]'s `construct` and [`PlanDecision::Vectorize`]'s
//! `expression` and `reason`. Each is a [`SqlText`]: in a template, text
//! segments with a slot wherever a statement parameter stands; bound, the
//! slots are filled with the literals as SQL writes them and only then is
//! the text shortened. A bound decision is therefore the fresh one by
//! construction.
//!
//! [`ObsRegistry`]: super::ObsRegistry

use crate::value::Value;
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// The kinds of decision the planner records, one atomic slot each: how
/// often the optimizer reordered, decorrelated, parallelized, ….
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum DecisionKind {
    Start,
    Join,
    OrderComparison,
    Subquery,
    AccessPath,
    SortElided,
    Parallel,
    Vectorize,
    Feedback,
    PartitionedBuild,
    CorrelatedSelection,
}

impl DecisionKind {
    /// Every kind, in declaration order.
    pub const ALL: [DecisionKind; 11] = [
        DecisionKind::Start,
        DecisionKind::Join,
        DecisionKind::OrderComparison,
        DecisionKind::Subquery,
        DecisionKind::AccessPath,
        DecisionKind::SortElided,
        DecisionKind::Parallel,
        DecisionKind::Vectorize,
        DecisionKind::Feedback,
        DecisionKind::PartitionedBuild,
        DecisionKind::CorrelatedSelection,
    ];

    /// Stable snake_case name, used as the key in `SHOW METRICS`.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Start => "start",
            DecisionKind::Join => "join",
            DecisionKind::OrderComparison => "order_comparison",
            DecisionKind::Subquery => "subquery",
            DecisionKind::AccessPath => "access_path",
            DecisionKind::SortElided => "sort_elided",
            DecisionKind::Parallel => "parallel",
            DecisionKind::Vectorize => "vectorize",
            DecisionKind::Feedback => "feedback",
            DecisionKind::PartitionedBuild => "partitioned_build",
            DecisionKind::CorrelatedSelection => "correlated_selection",
        }
    }
}

/// A candidate the enumerator considered and did not pick at some step.
#[derive(Debug, Clone, PartialEq)]
pub struct Alternative {
    pub alias: String,
    /// Estimated rows this candidate would have produced at that step.
    pub estimated_rows: f64,
}

/// How the planner chose to execute one subquery predicate — the
/// decorrelation taxonomy, from cheapest to most general.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubqueryStrategy {
    /// `EXISTS` / `IN` flattened into a hash semi-join.
    SemiJoin,
    /// `NOT EXISTS` flattened into a hash anti-join.
    AntiJoin,
    /// `NOT IN` flattened into a NULL-aware hash anti-join.
    NullAwareAntiJoin,
    /// An uncorrelated scalar subquery, evaluated once and cached.
    ScalarOnce,
    /// A correlated scalar aggregate grouped by its correlation keys once,
    /// each row looking its group up ([`GroupedLookup`]).
    KeyedScalar,
    /// The correlated fallback: re-evaluated per row, memoized per distinct
    /// correlation-parameter binding.
    Apply,
}

/// A correlated scalar aggregate as a grouped lookup, and what the cost gate
/// weighed it against; [`SubqueryStrategy::KeyedScalar`] when it won. For
/// Q7: `item` "count(*)" `over` "GENRE", grouped `by` "g.mid" and looked up
/// by the `probe` "m.id"; an `outer` "movie", an `inner` "genre"; `absent`,
/// what a row with no group compares against, "0". The costs are
/// the planner's `plan_cost`s: grouping once, and distinct bindings × one evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedLookup {
    pub item: String,
    pub over: String,
    pub by: String,
    pub probe: String,
    pub outer: String,
    pub inner: String,
    pub absent: String,
    pub build_cost: f64,
    pub apply_cost: f64,
}

/// One recorded optimizer choice. The planner returns these alongside the
/// plan; `EXPLAIN` narrates them ("I started from ACTOR … because that
/// order was expected to produce ~40× fewer intermediate rows").
#[derive(Debug, Clone, PartialEq)]
pub enum PlanDecision {
    /// Which base relation the left-deep join tree starts from.
    Start {
        alias: String,
        table: String,
        /// Estimated rows after the relation's pushed predicates.
        estimated_rows: f64,
        /// True when pushed predicates reduced the estimate.
        filtered: bool,
        /// The other start candidates, with their estimates.
        rejected: Vec<Alternative>,
    },
    /// One greedy join step.
    Join {
        alias: String,
        table: String,
        /// Estimated output rows of the join step.
        estimated_rows: f64,
        /// True when no equi-join edge connected this relation to the tree
        /// (the step is a cross product).
        cross_product: bool,
        /// The candidates rejected at this step, with the output each would
        /// have produced.
        rejected: Vec<Alternative>,
    },
    /// The chosen order compared against the order the query was written
    /// in. Costs are total estimated intermediate join-output rows.
    OrderComparison {
        chosen: Vec<String>,
        written: Vec<String>,
        chosen_cost: f64,
        written_cost: f64,
        /// Which enumerator produced the chosen order.
        method: JoinEnumeration,
    },
    /// How a subquery predicate was lowered, so EXPLAIN can say *why* ("I
    /// turned `EXISTS (…)` into a semi-join on m.id = c.mid").
    Subquery {
        /// The predicate as written, shortened to [`CONSTRUCT_CHARS`].
        construct: SqlText,
        /// The strategy chosen for it.
        strategy: SubqueryStrategy,
        /// The decorrelated join keys ("m.id = c.mid"), when the strategy is
        /// a semi-/anti-join.
        on: Option<String>,
        /// The correlation columns an `Apply` binds per row, when any.
        correlated_on: Vec<String>,
        /// The apply memo-cache capacity
        /// ([`crate::exec::APPLY_CACHE_CAP`]), narrated when the strategy
        /// is an `Apply`.
        cache_cap: usize,
        /// True when each evaluation of an `Apply` stops at the subquery's
        /// first row (`[NOT] EXISTS`: the executor opens the subplan with a
        /// row goal of one).
        first_row: bool,
        /// The grouped lookup the cost gate weighed, for a correlated scalar
        /// aggregate that could be one.
        grouped: Option<Box<GroupedLookup>>,
    },
    /// How a base relation is read — the access-path choice, recorded
    /// whether or not the index won so the narration can own up to
    /// rejections ("ACTOR has an index on id, but the filter keeps ~400 of
    /// 600 rows, so I scanned").
    AccessPath {
        alias: String,
        table: String,
        /// The index considered.
        index: String,
        /// The constrained key column(s), comma-joined for composites
        /// ("mid, genre").
        column: String,
        kind: AccessPathKind,
        /// For point/range probes: estimated matching rows. For a
        /// nested-loop probe: estimated *outer* rows (one probe each).
        estimated_rows: f64,
        /// For point/range probes: the relation's row count a full scan
        /// would read. For a nested-loop probe: the inner rows a hash-join
        /// build would consume.
        table_rows: f64,
        /// True when the index path was chosen over the scan / hash join.
        chosen: bool,
        /// The probe-cost ratio the estimate was weighed against
        /// (the planner's `INDEX_PROBE_ROW_COST`): the index wins when
        /// `estimated_rows × ratio ≤ table_rows`.
        ratio: f64,
        /// True when a probe bound is a correlation parameter — the bound
        /// resolves per `Apply` binding rather than at plan time.
        parameterized: bool,
        /// True when the scan answers every referenced column from the index
        /// key itself, never touching the heap rows.
        index_only: bool,
    },
    /// An `ORDER BY` sort skipped because a key-ordered index scan already
    /// delivers the rows in the requested order.
    SortElided {
        alias: String,
        table: String,
        index: String,
        column: String,
        /// The requested direction: `false` means the scan walks the index
        /// backwards to serve `ORDER BY … DESC`.
        ascending: bool,
    },
    /// Whether a pipeline was split across worker threads — and, when it
    /// was not, why: the cost-aware knob only parallelizes work whose
    /// estimated driver rows clear a threshold, and the rejected alternative
    /// is recorded either way so the narration can honestly say "only ten
    /// rows expected, so I kept it on one thread".
    Parallel {
        /// Which mechanism was (or would have been) used, so the narration
        /// says what each worker did with its morsels.
        kind: ParallelKind,
        /// What would be (or was) parallelized: "the scan of CAST as c", or
        /// "the aggregation over CAST as c".
        target: String,
        /// The worker threads available (the planner's parallelism degree).
        workers: usize,
        /// Estimated rows of the driver (morsel source).
        estimated_rows: f64,
        /// The row threshold the estimate was compared against.
        threshold: f64,
        /// True when the plan was actually parallelized.
        parallelized: bool,
    },
    /// Whether an operator was handed to the vectorized (columnar-batch)
    /// kernels or kept row-at-a-time — recorded either way, with the reason,
    /// so the narration can own up to honest rejections ("`m.title = 5`
    /// mixes text and numbers, so that filter stays row-at-a-time").
    Vectorize {
        /// The operator concerned ("filter", "aggregate").
        operator: String,
        /// The expression or aggregate list, rendered for narration.
        expression: SqlText,
        /// True when the vectorized kernels were installed.
        vectorized: bool,
        /// Why — the eligibility verdict in plain words, quoting the
        /// comparison that disqualified it.
        reason: SqlText,
    },
    /// A histogram estimate overridden by observed cardinality feedback: a
    /// previous run of this predicate shape was flagged as a misestimate, the
    /// executor's actual row count was absorbed, and this plan was costed
    /// with the observed selectivity instead — so the narration can say
    /// "last time I expected 10 rows here and saw 4,200, so this time I
    /// planned differently".
    Feedback {
        /// Tuple variable of the corrected relation.
        alias: String,
        /// The relation the corrected filter reads.
        table: String,
        /// The literal-normalized predicate shape ("m.year = ?").
        shape: String,
        /// Rows the optimizer expected the last time this shape was flagged.
        expected: u64,
        /// Rows the executor actually produced that time.
        actual: u64,
        /// The observed selectivity this plan was costed with.
        selectivity: f64,
    },
    /// Whether a hash (semi-/anti-)join's build side qualifies for the
    /// hash-partitioned parallel build
    /// ([`crate::exec::PARALLEL_BUILD_MIN`]).
    PartitionedBuild {
        /// The join's build-side description ("CAST as c").
        target: String,
        /// Estimated build-side rows.
        estimated_rows: f64,
        /// The executor's minimum build rows for partitioning.
        build_min: usize,
        /// True when the estimate cleared it.
        partitioned: bool,
    },
    /// A conjunct of a subquery block that compares one of the block's
    /// relations with the enclosing row, applied while that relation is read
    /// — once per evaluation of the block — instead of above the block's
    /// joins. Recorded when the block has joins for it to go below and no
    /// index probe took it (that choice is an [`PlanDecision::AccessPath`]).
    CorrelatedSelection {
        /// Tuple variable of the relation the conjunct selects on.
        alias: String,
        /// The conjunct as written ("m1.title = m.title").
        predicate: String,
    },
}

impl PlanDecision {
    /// The slot the observability registry counts this decision in
    /// (`SHOW METRICS`).
    pub fn kind(&self) -> DecisionKind {
        match self {
            PlanDecision::Start { .. } => DecisionKind::Start,
            PlanDecision::Join { .. } => DecisionKind::Join,
            PlanDecision::OrderComparison { .. } => DecisionKind::OrderComparison,
            PlanDecision::Subquery { .. } => DecisionKind::Subquery,
            PlanDecision::AccessPath { .. } => DecisionKind::AccessPath,
            PlanDecision::SortElided { .. } => DecisionKind::SortElided,
            PlanDecision::Parallel { .. } => DecisionKind::Parallel,
            PlanDecision::Vectorize { .. } => DecisionKind::Vectorize,
            PlanDecision::Feedback { .. } => DecisionKind::Feedback,
            PlanDecision::PartitionedBuild { .. } => DecisionKind::PartitionedBuild,
            PlanDecision::CorrelatedSelection { .. } => DecisionKind::CorrelatedSelection,
        }
    }

    /// This decision as it reads for a statement whose literals are
    /// `params`: a template's quote of SQL bound to them
    /// ([`SqlText::bind`]); a decision without slots is itself.
    pub fn bind(&self, params: &[Value]) -> Cow<'_, PlanDecision> {
        match self {
            PlanDecision::Subquery { construct: sql, .. } if sql.has_slots() => {
                let mut bound = self.clone();
                if let PlanDecision::Subquery { construct: to, .. } = &mut bound {
                    *to = sql.bind(params);
                }
                Cow::Owned(bound)
            }
            // The reason quotes a conjunct of the expression, so it has
            // slots only when the expression does.
            PlanDecision::Vectorize {
                expression, reason, ..
            } if expression.has_slots() => {
                let mut bound = self.clone();
                if let PlanDecision::Vectorize {
                    expression: e,
                    reason: r,
                    ..
                } = &mut bound
                {
                    *e = expression.bind(params);
                    if reason.has_slots() {
                        *r = reason.bind(params);
                    }
                }
                Cow::Owned(bound)
            }
            _ => Cow::Borrowed(self),
        }
    }
}

/// How an index access path probes its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPathKind {
    /// A full-key lookup (`column = literal`, every key column pinned).
    Point,
    /// A key-range read (`column >= literal`, `BETWEEN`, …), possibly under
    /// a pinned equality prefix of a composite key.
    Range,
    /// An equality on a leading prefix of a composite key, trailing key
    /// columns left free.
    Prefix,
    /// Probed once per outer row by an index-nested-loop join.
    NestedLoopProbe,
}

/// Which join-order enumerator produced a plan's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinEnumeration {
    /// Dynamic programming over connected subsets — optimal by C_out within
    /// the left-deep, cross-products-deferred space.
    Dynamic,
    /// The greedy smallest-next-output walk (wide joins past
    /// the planner's `DP_MAX_RELATIONS`).
    Greedy,
}

/// The shapes of parallel work the planner can choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelKind {
    /// A pipeline run morsel-by-morsel over its driver scan (an exchange).
    Pipeline,
    /// A GROUP BY pushed below the exchange: per-morsel partial aggregates,
    /// merged in morsel order above it.
    PartialAggregate,
    /// An ORDER BY pushed below the exchange: per-morsel sorted runs,
    /// merged into one total order above it.
    MergeSort,
    /// An `ORDER BY … LIMIT k` pushed below the exchange: each morsel keeps
    /// only its top k rows.
    TopK,
}

/// How many characters of a subquery predicate a decision quotes: a
/// three-level nested subquery should not flood a sentence.
pub const CONSTRUCT_CHARS: usize = 72;

/// SQL a decision quotes, as narration says it. A plan-cache template's
/// quote keeps a slot wherever a statement parameter (`?k`) stands;
/// [`SqlText::bind`] fills each with its literal and then shortens, exactly
/// as the statement's own quote was written and shortened.
#[derive(Clone, PartialEq)]
pub struct SqlText {
    /// The text; a slot's `?k` is still in it.
    text: String,
    /// Where each slot lies in `text`, and the parameter it stands for. Empty
    /// for a statement's own quote and for a bound one.
    slots: Vec<(Range<usize>, usize)>,
    /// At most this many characters are said: a longer text keeps its first
    /// `limit - 1` and an ellipsis. Applied once the slots are filled.
    limit: usize,
}

impl SqlText {
    /// A quote of `text`, said in at most `limit` characters. `template`
    /// says `text` was rendered from a plan-cache template's statement, whose
    /// every literal is a parameter: each `?k` in it is then the slot of
    /// parameter `k`, and shortening waits for [`SqlText::bind`].
    pub fn new(mut text: String, limit: usize, template: bool) -> SqlText {
        let mut slots = Vec::new();
        let mut at = 0;
        while let Some(found) = template.then(|| text[at..].find('?')).flatten() {
            let start = at + found;
            let digits = text[start + 1..].bytes().take_while(u8::is_ascii_digit);
            at = start + 1 + digits.count();
            if let Ok(param) = text[start + 1..at].parse() {
                slots.push((start..at, param));
            }
        }
        // No more characters than bytes: only a longer text is counted.
        if slots.is_empty() && text.len() > limit {
            let mut starts = text.char_indices().skip(limit.saturating_sub(1));
            if let (Some((keep, _)), Some(_)) = (starts.next(), starts.next()) {
                text.truncate(keep);
                text.push('…');
            }
        }
        SqlText { text, slots, limit }
    }

    /// The quoted text (a template's with its `?k` slots).
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// True when a slot is waiting for a literal.
    pub fn has_slots(&self) -> bool {
        !self.slots.is_empty()
    }

    /// A text said in full, never shortened, each `?k` in it the slot of
    /// parameter `k` — how a profile keeps an operator's detail.
    pub fn verbatim(text: String) -> SqlText {
        SqlText::new(text, usize::MAX, true)
    }

    /// This quote with each slot filled by its literal in `params`, written
    /// as SQL writes a literal, then shortened.
    pub fn bind(&self, params: &[Value]) -> SqlText {
        let mut text = String::with_capacity(self.text.len() + 16);
        // Writing into a `String` cannot fail.
        let _ = self.fill(params, &mut text);
        SqlText::new(text, self.limit, false)
    }

    /// Write the text with each slot filled by its literal in `params` (a
    /// slot `params` has no literal for stays as written), unshortened.
    pub fn fill(&self, params: &[Value], mut out: impl fmt::Write) -> fmt::Result {
        let mut copied = 0;
        for (at, param) in &self.slots {
            out.write_str(&self.text[copied..at.start])?;
            match params.get(*param) {
                Some(value) => value.write_sql_literal(&mut out)?,
                None => out.write_str(&self.text[at.clone()])?,
            }
            copied = at.end;
        }
        out.write_str(&self.text[copied..])
    }
}

impl fmt::Display for SqlText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for SqlText {
    /// A quote without slots reads as its text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.slots.is_empty() {
            fmt::Debug::fmt(&self.text, f)
        } else {
            (f.debug_struct("SqlText"))
                .field("text", &self.text)
                .field("slots", &self.slots)
                .finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_template_quote_is_bound_then_shortened() {
        let exists = |aid: &str| format!("EXISTS (SELECT * FROM CAST c WHERE c.aid = {aid})");
        let template = SqlText::new(exists("?0"), CONSTRUCT_CHARS, true);
        assert!(template.has_slots());
        for aid in [
            Value::int(1),
            Value::int(123_456_789_012),
            Value::text("it's"),
        ] {
            let mut literal = String::new();
            aid.write_sql_literal(&mut literal).unwrap();
            let fresh = SqlText::new(exists(&literal), CONSTRUCT_CHARS, false);
            assert_eq!(template.bind(std::slice::from_ref(&aid)), fresh);
        }
        let long = SqlText::new(exists(&"9".repeat(40)), CONSTRUCT_CHARS, false);
        assert_eq!(long.as_str().chars().count(), CONSTRUCT_CHARS);
        assert!(
            long.as_str()
                .ends_with("c.aid = 9999999999999999999999999999…"),
            "{long}"
        );
    }

    #[test]
    fn only_a_template_has_slots() {
        let text = "m.title = '?1' AND m.id = ?1";
        let statement = SqlText::new(text.to_string(), usize::MAX, false);
        assert!(!statement.has_slots());
        assert_eq!(format!("{statement:?}"), format!("{text:?}"));
        let template = SqlText::new("m.id = ?1 AND m.year = ?0".to_string(), usize::MAX, true);
        let bound = template.bind(&[Value::int(1999), Value::text("7")]);
        assert_eq!(bound.as_str(), "m.id = '7' AND m.year = 1999");
        assert!(!bound.has_slots());
    }
}
