//! Cost estimation and join-order enumeration.
//!
//! The [`Estimator`] bridges the planner to `datastore`'s statistics layer:
//! per-relation cardinalities after pushed predicates (equality via 1/NDV —
//! against a literal, a plan parameter or, in a correlated selection, an
//! enclosing block's column — ranges via histograms, snapped to their class)
//! and per-step join
//! cardinalities via the classic
//! |L|·|R| / max(ndv_l, ndv_r) formula. [`choose_join_order`] enumerates
//! left-deep join orders by dynamic programming over connected subsets
//! (Selinger-style, cross products deferred until nothing connects): every
//! subset of relations keeps its cheapest order by C_out, so the chosen
//! order is optimal within that space. Beyond [`DP_MAX_RELATIONS`] relations
//! the enumerator falls back to the greedy walk — start from the smallest
//! estimated relation, repeatedly join the connected relation with the
//! smallest estimated output. Either way it records every choice (and
//! every rejected alternative) as a [`PlanDecision`], so the optimizer can
//! later *say why* it ordered the joins the way it did.
//!
//! Semi-/anti-join interleaving: relations that are the probe side of a
//! decorrelatable `EXISTS` / `IN` predicate will be reduced downstream by
//! the semi-join, and the enumerator can account for that through
//! per-relation selectivity *hints* (computed from
//! [`datastore::stats::semi_join_selectivity`] by the subquery pass). Hints
//! scale the relation's filtered estimate consistently through both the DP
//! ranking and the recorded per-step numbers, so the chosen-vs-written
//! comparison stays an apples-to-apples one.
//!
//! Cardinality feedback: a pushed conjunct's shape is *named* here and
//! nowhere else ([`Estimator::shape_key`]: the conjunct as written, own
//! columns spelled `alias.column`, every constant a `?`). The physical layer
//! stamps the key on the filter it lowers the conjunct into, the executor's
//! profile carries it back, `datastore::adaptive` learns under it, and the
//! next plan makes the same key from the same conjunct: recorded ⇒ found.

use super::access::INDEX_PROBE_ROW_COST;
use super::logical::{JoinGraph, Relation};
use super::{Alternative, JoinEnumeration, PlanDecision};
use datastore::adaptive::{FeedbackStore, ParamKind, RangeOp, RangeParam};
use datastore::exec::{Plan, PlanNode};
use datastore::fingerprint::{feedback_shape, ShapeKey};
use datastore::index::Index;
use datastore::stats::{join_cardinality, ColumnStats, TableStats, DEFAULT_SELECTIVITY};
use datastore::{DataType, Database, Value};
use sqlparse::ast::{flip, BinaryOperator, ColumnRef, Expr, Literal, UnaryOperator};
use std::sync::Arc;

/// Selectivity assumed for LIKE predicates (a pattern is usually more
/// selective than an open range, less than an equality).
pub const LIKE_SELECTIVITY: f64 = 0.25;

/// One step of a left-deep join order.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// Index into [`JoinGraph::relations`].
    pub rel: usize,
    /// Estimated rows after this step: the relation's filtered estimate for
    /// the first step, the join's output estimate for every later one.
    pub estimated_rows: f64,
    /// Edges (indices into [`JoinGraph::edges`]) this step consumes as
    /// hash-join keys. Empty for the first step and for cross products.
    pub edges: Vec<usize>,
}

/// A complete left-deep join order with per-step estimates.
#[derive(Debug, Clone)]
pub struct JoinOrder {
    pub steps: Vec<JoinStep>,
}

impl JoinOrder {
    /// Aliases in join order.
    pub fn aliases(&self, graph: &JoinGraph) -> Vec<String> {
        self.steps
            .iter()
            .map(|s| graph.relations[s.rel].alias.clone())
            .collect()
    }

    /// Total estimated intermediate rows: the sum of every step's output
    /// estimate, the starting scan included (the enumerator's cost metric,
    /// C_out). Counting the first step keeps a filtered start strictly
    /// cheaper than an unfiltered one even when every later join produces
    /// identical outputs.
    pub fn cost(&self) -> f64 {
        self.steps.iter().map(|s| s.estimated_rows).sum()
    }
}

/// The planner's bridge to the statistics layer. Table statistics are
/// memoized per planning pass, so the O(rounds × candidates × edges) greedy
/// scoring loop takes the database's stats lock once per distinct table
/// rather than once per NDV lookup.
pub struct Estimator<'a> {
    db: &'a Database,
    /// The statistics read so far, each found again by its own table name.
    stats: std::cell::RefCell<Vec<Arc<TableStats>>>,
    /// What the engine had learned when this pass began, consulted *before*
    /// histogram estimation (`None` when the feedback loop is disabled).
    feedback: Option<Arc<FeedbackStore>>,
    /// Overrides actually applied, deduplicated by `(table, shape)` — the
    /// enumerator, the decision replay, and the physical layer all walk the
    /// same relations, and one correction should narrate once.
    overrides: std::cell::RefCell<Vec<PlanDecision>>,
    /// What-if indexes the advisor is costing: metadata-only [`Index`]es
    /// (built over zero rows) that access-path selection considers alongside
    /// each table's real indexes. Plans chosen under them must never be
    /// executed or cached — the index has no entries.
    hypothetical: Vec<Index>,
    /// The literal each plan-cache parameter `?i` stands for, when a
    /// template is being planned (empty otherwise): its kind types the
    /// parameter, and a range estimate reads its value through its class.
    /// Correlation values are parameters of another kind (`Param::Outer`)
    /// and never listed here.
    params: &'a [Value],
    /// The range conjuncts whose estimate read a parameter, once each: what
    /// the plan cache classifies a later statement's literals by.
    ranges: std::cell::RefCell<Vec<RangeParam>>,
}

impl<'a> Estimator<'a> {
    pub fn new(db: &'a Database) -> Estimator<'a> {
        Estimator {
            db,
            stats: std::cell::RefCell::new(Vec::new()),
            feedback: None,
            overrides: std::cell::RefCell::new(Vec::new()),
            hypothetical: Vec::new(),
            params: &[],
            ranges: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// An estimator that consults the database's cardinality-feedback store
    /// before trusting histograms: a predicate shape whose last execution
    /// was flagged as misestimated is costed at its *observed* selectivity.
    pub fn with_feedback(db: &'a Database) -> Estimator<'a> {
        Estimator {
            feedback: Some(db.adaptive().feedback()),
            ..Estimator::new(db)
        }
    }

    /// Add what-if indexes for access-path selection to consider. The
    /// advisor's re-planning pass uses this; normal planning leaves it empty.
    pub fn add_hypothetical(&mut self, indexes: Vec<Index>) {
        self.hypothetical.extend(indexes);
    }

    /// The what-if indexes declared on `table`, if any.
    pub fn hypothetical_for<'s>(&'s self, table: &'s str) -> impl Iterator<Item = &'s Index> + 's {
        self.hypothetical
            .iter()
            .filter(move |ix| ix.def().table.eq_ignore_ascii_case(table))
    }

    /// Declare the literals the statement's plan-cache parameters stand
    /// for while its template is planned.
    pub fn set_params(&mut self, params: &'a [Value]) {
        self.params = params;
    }

    /// The column type a literal of parameter `?id`'s kind has, when the
    /// statement is a template whose literals were declared.
    pub fn param_type(&self, id: u32) -> Option<DataType> {
        let value = self.params.get(id as usize)?;
        ParamKind::of(value).map(ParamKind::data_type)
    }

    /// True when a template is being planned: its literals are parameters.
    pub fn is_template(&self) -> bool {
        !self.params.is_empty()
    }

    /// The range conjuncts whose estimate read a parameter, in first-read
    /// order. Draining resets the list.
    pub fn take_ranges(&self) -> Vec<RangeParam> {
        std::mem::take(&mut *self.ranges.borrow_mut())
    }

    /// A range bound as an estimate reads it: a numeric literal's value, or
    /// a numeric parameter's with its number.
    fn bound(&self, expr: &Expr) -> Option<(f64, Option<u32>)> {
        match expr {
            Expr::Literal(l) => literal_as_f64(l).map(|x| (x, None)),
            Expr::Param(k) => {
                let value = self.params.get(*k as usize)?.as_f64()?;
                Some((value, Some(*k)))
            }
            _ => None,
        }
    }

    /// Note that the estimate of a range on `column` of `rel` read the
    /// parameters `op` names.
    fn read_range(&self, rel: &Relation, column: &ColumnStats, op: RangeOp) {
        let Some(stats) = self.table_stats(&rel.table) else {
            return;
        };
        let mut ranges = self.ranges.borrow_mut();
        let known = |r: &RangeParam| {
            r.op == op && *r.column == *column.column && Arc::ptr_eq(&r.stats, &stats)
        };
        if !ranges.iter().any(known) {
            let column = column.column.as_str().into();
            ranges.push(RangeParam { stats, column, op });
        }
    }

    /// The [`PlanDecision::Feedback`] records for every override this
    /// estimator applied, in first-use order. Draining resets the list.
    pub fn take_feedback_decisions(&self) -> Vec<PlanDecision> {
        std::mem::take(&mut *self.overrides.borrow_mut())
    }

    /// The name of one of `rel`'s pushed conjuncts: what the filter it is
    /// lowered into carries, what is learned from that filter is filed under,
    /// and what [`Estimator::effective_conjunct_selectivity`] looks up.
    pub fn shape_key(&self, rel: &Relation, conjunct: &Expr) -> Arc<ShapeKey> {
        Arc::new(ShapeKey {
            table: rel.table.clone(),
            shape: conjunct_shape(self.db, rel, conjunct),
        })
    }

    /// The observed selectivity for one pushed conjunct, when the feedback
    /// store has an entry under its key; records the correction (once per
    /// key) for narration.
    fn feedback_selectivity(&self, rel: &Relation, conjunct: &Expr) -> Option<f64> {
        // Nothing learned about this table — nearly every plan: no shape is
        // rendered and nothing is probed.
        let learned = self.feedback.as_ref()?.get(&rel.table)?;
        let shape = conjunct_shape(self.db, rel, conjunct);
        let entry = learned.get(&shape)?;
        let mut overrides = self.overrides.borrow_mut();
        let seen = overrides.iter().any(|d| {
            matches!(d, PlanDecision::Feedback { table, shape: s, .. }
                     if *table == rel.table && *s == shape)
        });
        if !seen {
            overrides.push(PlanDecision::Feedback {
                alias: rel.alias.clone(),
                table: rel.table.clone(),
                shape,
                expected: entry.last_estimated,
                actual: entry.last_actual,
                selectivity: entry.selectivity,
            });
        }
        Some(entry.selectivity)
    }

    /// Selectivity of one pushed conjunct with the feedback override applied
    /// when one exists, falling back to histogram estimation. The single
    /// source for both the enumerator's traces and the physical layer's
    /// post-probe filter estimates, so the two always agree.
    pub fn effective_conjunct_selectivity(
        &self,
        rel: &Relation,
        stats: &TableStats,
        conjunct: &Expr,
    ) -> f64 {
        self.feedback_selectivity(rel, conjunct)
            .unwrap_or_else(|| selectivity(self, rel, stats, conjunct).clamp(0.0, 1.0))
    }

    /// Memoized per-table statistics lookup; names fold as the catalog's do.
    fn table_stats(&self, table: &str) -> Option<Arc<TableStats>> {
        let mut memo = self.stats.borrow_mut();
        if let Some(stats) = memo.iter().find(|s| s.table.eq_ignore_ascii_case(table)) {
            return Some(Arc::clone(stats));
        }
        let stats = self.db.table_stats(table)?;
        memo.push(Arc::clone(&stats));
        Some(stats)
    }

    /// Base row count of a relation and the running estimate after each of
    /// its pushed conjuncts — the single source of the per-operator numbers
    /// both the enumerator (via [`Estimator::relation_rows`]) and the
    /// physical layer's scan/filter annotations use.
    pub fn relation_row_trace(&self, rel: &Relation) -> (f64, Vec<f64>) {
        let (base, steps) = self.row_steps(rel);
        (base, steps.collect())
    }

    /// Estimated rows of a relation after its pushed predicates.
    pub fn relation_rows(&self, rel: &Relation) -> f64 {
        let (base, steps) = self.row_steps(rel);
        steps.last().unwrap_or(base)
    }

    /// [`Estimator::relation_row_trace`], its steps computed as they are
    /// read. Without statistics every step is 0.
    fn row_steps<'s>(&'s self, rel: &'s Relation) -> (f64, impl Iterator<Item = f64> + 's) {
        let stats = self.table_stats(&rel.table);
        let base = stats.as_ref().map_or(0.0, |stats| stats.row_count as f64);
        let steps = rel.pushed.iter().scan(base, move |rows, conjunct| {
            if let Some(stats) = &stats {
                *rows *= self.effective_conjunct_selectivity(rel, stats, conjunct);
            }
            Some(*rows)
        });
        (base, steps)
    }

    /// NDV of a relation's join column, capped at the estimated cardinality
    /// the column arrives with (a filtered or already-joined input cannot
    /// contribute more distinct keys than it has rows).
    fn key_ndv(&self, rel: &Relation, column: &str, arriving_rows: f64) -> usize {
        self.table_column_ndv(&rel.table, column, arriving_rows)
    }

    /// NDV of a named table's column, capped the same way — used by the
    /// subquery pass, whose probe/build sides are not always join-graph
    /// relations.
    pub fn table_column_ndv(&self, table: &str, column: &str, arriving_rows: f64) -> usize {
        let ndv = self.table_stats(table).map(|s| s.ndv(column)).unwrap_or(1);
        ndv.min(arriving_rows.ceil().max(1.0) as usize).max(1)
    }

    /// Estimated output of joining `rel` into an intermediate result of
    /// `current_rows` rows, consuming every edge that connects it to the
    /// already-joined set. Returns the estimate and the consumed edges; with
    /// no connecting edge the step is a cross product.
    pub fn join_step(
        &self,
        graph: &JoinGraph,
        filtered: &[f64],
        joined: &[bool],
        current_rows: f64,
        rel: usize,
    ) -> (f64, Vec<usize>) {
        let edges = graph.connecting_edges(joined, rel);
        let new_rows = filtered[rel];
        if edges.is_empty() {
            return (current_rows * new_rows, edges);
        }
        let mut rows = current_rows * new_rows;
        for &ei in &edges {
            let (far_rel, far_col, near_col) = graph.edges[ei].oriented_for(rel);
            let far_ndv = self.key_ndv(
                &graph.relations[far_rel],
                far_col,
                filtered[far_rel].min(current_rows),
            );
            let near_ndv = self.key_ndv(&graph.relations[rel], near_col, new_rows);
            // Divide the running cross product by max(ndv) per edge — the
            // multi-key generalization of |L|·|R| / max(ndv_l, ndv_r).
            rows = join_cardinality(rows, 1.0, far_ndv, near_ndv);
        }
        (rows, edges)
    }
}

/// Statistics of one of `rel`'s own columns; `None` for an enclosing block's
/// column (whose name may well exist in this table too).
fn own_column<'s>(
    rel: &Relation,
    stats: &'s TableStats,
    c: &ColumnRef,
) -> Option<&'s datastore::stats::ColumnStats> {
    stats.column(&c.column).filter(|_| !rel.is_outer(c))
}

/// Selectivity of a selection on `rel` from its column statistics.
fn selectivity(est: &Estimator, rel: &Relation, stats: &TableStats, expr: &Expr) -> f64 {
    match expr {
        Expr::BinaryOp { left, op, right } => match op {
            BinaryOperator::And => {
                selectivity(est, rel, stats, left) * selectivity(est, rel, stats, right)
            }
            BinaryOperator::Or => {
                let a = selectivity(est, rel, stats, left);
                let b = selectivity(est, rel, stats, right);
                (a + b - a * b).min(1.0)
            }
            _ => comparison_selectivity(est, rel, stats, expr),
        },
        Expr::UnaryOp {
            op: UnaryOperator::Not,
            expr,
        } => 1.0 - selectivity(est, rel, stats, expr),
        Expr::IsNull { expr, negated } => {
            let s = match expr.as_ref() {
                Expr::Column(c) => own_column(rel, stats, c)
                    .map(|cs| cs.null_selectivity())
                    .unwrap_or(DEFAULT_SELECTIVITY),
                _ => DEFAULT_SELECTIVITY,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let s = match expr.as_ref() {
                Expr::Column(c) => own_column(rel, stats, c)
                    .map(|cs| (list.len() as f64 * cs.eq_selectivity()).min(1.0))
                    .unwrap_or(DEFAULT_SELECTIVITY),
                _ => DEFAULT_SELECTIVITY,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let s = match (expr.as_ref(), est.bound(low), est.bound(high)) {
                // Both bounds literals, or both parameters: a value is
                // never read unrecorded.
                (Expr::Column(c), Some((lo, l)), Some((hi, h))) if l.is_some() == h.is_some() => {
                    match own_column(rel, stats, c) {
                        Some(cs) => {
                            if let (Some(low), Some(high)) = (l, h) {
                                est.read_range(rel, cs, RangeOp::Between { low, high });
                            }
                            cs.between_selectivity(lo, hi)
                        }
                        None => DEFAULT_SELECTIVITY,
                    }
                }
                _ => DEFAULT_SELECTIVITY,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::Like { negated, .. } => {
            if *negated {
                1.0 - LIKE_SELECTIVITY
            } else {
                LIKE_SELECTIVITY
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Selectivity of a comparison of one of `rel`'s columns with a literal
/// (either operand order), a plan-cache parameter or an enclosing block's
/// column, from the column's NDV and histogram. A parameter stands for a
/// literal: an equality's 1/NDV never consults it, and a range reads its
/// value through its class — the histogram's estimate snapped to the grid
/// `2^(k/4)` ([`datastore::stats::RangeClass`]) — so a template plans exactly
/// as its fresh counterpart does for every literal of the class, and each
/// read is recorded for the plan cache to classify by. The class is the grid
/// point and not the histogram bucket because a bucket would be estimated at
/// its midpoint: `m.id <= 5` at 150 rows of 3,000, a misestimate that sets
/// off the feedback loop, where the grid moves no estimate by more than ±9 %.
fn comparison_selectivity(est: &Estimator, rel: &Relation, stats: &TableStats, expr: &Expr) -> f64 {
    let Expr::BinaryOp { left, op, right } = expr else {
        return DEFAULT_SELECTIVITY;
    };
    if let (BinaryOperator::Eq, Expr::Column(c), Expr::Param(_))
    | (BinaryOperator::Eq, Expr::Param(_), Expr::Column(c)) = (op, left.as_ref(), right.as_ref())
    {
        return stats
            .column(&c.column)
            .map(|cs| cs.eq_selectivity())
            .unwrap_or(DEFAULT_SELECTIVITY);
    }
    let constant = |e: &Expr| matches!(e, Expr::Literal(_) | Expr::Param(_));
    // An enclosing block's column is one value per evaluation of this
    // block, unknown until then: a literal whose value the histogram
    // cannot be asked about.
    let (col, op, value) = match rel.as_correlated_comparison(expr) {
        Some((own, op, _)) => (own, op, None),
        None => match (left.as_ref(), right.as_ref()) {
            _ if !op.is_comparison() => return DEFAULT_SELECTIVITY,
            (Expr::Column(c), other) if constant(other) => (c, *op, est.bound(other)),
            (other, Expr::Column(c)) if constant(other) => (c, flip(*op), est.bound(other)),
            _ => return DEFAULT_SELECTIVITY,
        },
    };
    let Some(cs) = own_column(rel, stats, col) else {
        return DEFAULT_SELECTIVITY;
    };
    let (below, inclusive) = match op {
        BinaryOperator::Eq => return cs.eq_selectivity(),
        BinaryOperator::NotEq => return (cs.non_null_fraction() - cs.eq_selectivity()).max(0.0),
        BinaryOperator::Lt => (true, false),
        BinaryOperator::LtEq => (true, true),
        BinaryOperator::Gt => (false, false),
        BinaryOperator::GtEq => (false, true),
        _ => return DEFAULT_SELECTIVITY,
    };
    let Some((x, param)) = value else {
        return DEFAULT_SELECTIVITY;
    };
    if let Some(param) = param {
        let op = if below {
            RangeOp::Below { param, inclusive }
        } else {
            RangeOp::Above { param, inclusive }
        };
        est.read_range(rel, cs, op);
    }
    if below {
        cs.lt_selectivity(x, inclusive)
    } else {
        cs.gt_selectivity(x, inclusive)
    }
}

fn literal_as_f64(l: &Literal) -> Option<f64> {
    match l {
        Literal::Integer(i) => Some(*i as f64),
        Literal::Float(f) => Some(*f),
        _ => None,
    }
}

/// The shape of one of `rel`'s pushed conjuncts: the conjunct as written,
/// with the relation's own columns spelled `alias.column` the way the schema
/// spells them (so `YEAR > 2000` and `m.year > 1990` are one shape) and every
/// constant — a literal, a plan parameter, an enclosing block's column, which
/// is one value per evaluation of this block — a `?`.
fn conjunct_shape(db: &Database, rel: &Relation, conjunct: &Expr) -> String {
    let schema = db.table(&rel.table).map(|t| t.schema());
    let mut named = conjunct.clone();
    named.column_refs_mut(&mut |c| {
        *c = if rel.is_outer(c) {
            // Printed through `Display`, a reference named `?` is a `?`.
            ColumnRef::bare("?")
        } else {
            let spelled = schema
                .and_then(|s| s.column(&c.column))
                .map_or(c.column.as_str(), |col| col.name.as_str());
            ColumnRef::qualified(rel.alias.as_str(), spelled)
        };
    });
    feedback_shape(&named.to_string())
}

fn est_rows(plan: &Plan) -> f64 {
    plan.estimated_rows.unwrap_or(1.0).max(0.0)
}

/// Estimated cost of a physical plan in "row touches" — the same currency
/// [`INDEX_PROBE_ROW_COST`] is denominated in. Deliberately simple: it only
/// needs to *rank* two plans of one query — the advisor's what-if index
/// against the baseline, a grouped lookup against the applies it replaces —
/// and both sides go through the identical model, so systematic error
/// cancels.
pub fn plan_cost(plan: &Plan) -> f64 {
    let out = est_rows(plan);
    match &plan.node {
        PlanNode::Scan { .. } | PlanNode::Values { .. } => out.max(1.0),
        PlanNode::IndexScan { .. } => 1.0 + out * INDEX_PROBE_ROW_COST,
        PlanNode::IndexNestedLoopJoin { left, .. } => {
            let probes = est_rows(left).max(1.0);
            plan_cost(left) + probes * INDEX_PROBE_ROW_COST + out
        }
        PlanNode::Apply { input, subplan, .. } => {
            let bindings = est_rows(input).max(1.0);
            plan_cost(input) + bindings * plan_cost(subplan) + out
        }
        PlanNode::ScalarSubquery { input, subplan, .. } => {
            plan_cost(input) + plan_cost(subplan) + out
        }
        PlanNode::Sort { input, .. } => {
            let n = est_rows(input).max(1.0);
            plan_cost(input) + n * (n + 2.0).log2()
        }
        PlanNode::Filter { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Aggregate { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Distinct { input }
        | PlanNode::Exchange { input, .. } => plan_cost(input) + out,
        PlanNode::NestedLoopJoin { left, right, .. } => {
            plan_cost(left)
                + plan_cost(right)
                + est_rows(left).max(1.0) * est_rows(right).max(1.0) * 0.01
                + out
        }
        PlanNode::HashJoin { left, right, .. }
        | PlanNode::HashSemiJoin { left, right, .. }
        | PlanNode::HashAntiJoin { left, right, .. } => plan_cost(left) + plan_cost(right) + out,
    }
}

/// Simulate a fixed left-deep order, producing its per-step estimates.
pub(super) fn simulate_order(
    graph: &JoinGraph,
    est: &Estimator,
    filtered: &[f64],
    order: &[usize],
) -> JoinOrder {
    let mut joined = vec![false; graph.relations.len()];
    let mut steps = Vec::with_capacity(order.len());
    let mut current = 0.0;
    for (i, &rel) in order.iter().enumerate() {
        if i == 0 {
            current = filtered[rel];
            steps.push(JoinStep {
                rel,
                estimated_rows: current,
                edges: Vec::new(),
            });
        } else {
            let (rows, edges) = est.join_step(graph, filtered, &joined, current, rel);
            current = rows;
            steps.push(JoinStep {
                rel,
                estimated_rows: rows,
                edges,
            });
        }
        joined[rel] = true;
    }
    JoinOrder { steps }
}

/// Relation-count ceiling for the DP enumerator: 2^n subsets stay cheap up
/// to here; wider joins fall back to the greedy walk.
pub const DP_MAX_RELATIONS: usize = 12;

/// The candidate pool for extending a partial join: relations reachable
/// through an edge from the joined set, or — only when nothing connects —
/// every remaining relation (deferred cross products).
fn extension_pool(graph: &JoinGraph, joined: &[bool]) -> Vec<usize> {
    let remaining: Vec<usize> = (0..joined.len()).filter(|&r| !joined[r]).collect();
    let connected: Vec<usize> = remaining
        .iter()
        .copied()
        .filter(|&r| !graph.connecting_edges(joined, r).is_empty())
        .collect();
    if connected.is_empty() {
        remaining
    } else {
        connected
    }
}

/// Choose a left-deep join order: a dynamic program over connected subsets
/// finds the C_out-cheapest order (greedy fallback past
/// [`DP_MAX_RELATIONS`] relations), recording every decision; a single
/// relation leaves nothing to decide. `hints[rel] ∈ (0, 1]` (empty for
/// none) are per-relation semi-join selectivities: a relation that a
/// downstream semi-/anti-join will thin out is costed at its reduced
/// cardinality, so the enumerator can interleave that knowledge into the
/// order.
pub fn choose_join_order(
    graph: &JoinGraph,
    est: &Estimator,
    hints: &[f64],
) -> (JoinOrder, Vec<PlanDecision>) {
    let n = graph.relations.len();
    let mut filtered: Vec<f64> = graph
        .relations
        .iter()
        .map(|r| est.relation_rows(r))
        .collect();
    for (rows, hint) in filtered.iter_mut().zip(hints) {
        *rows *= hint.clamp(0.0, 1.0);
    }
    let written_order: Vec<usize> = (0..n).collect();
    if n <= 1 {
        return (
            simulate_order(graph, est, &filtered, &written_order),
            Vec::new(),
        );
    }

    let (order, method) = match dp_join_order(graph, est, &filtered) {
        Some(order) => (order, JoinEnumeration::Dynamic),
        None => (
            greedy_join_order(graph, est, &filtered),
            JoinEnumeration::Greedy,
        ),
    };
    let chosen = simulate_order(graph, est, &filtered, &order);
    let written = simulate_order(graph, est, &filtered, &written_order);
    if written.cost() < chosen.cost() {
        // The enumerator lost to the written order (possible only on the
        // greedy path, or when the written order uses an early cross product
        // the deferred-cross-product space excludes). Keep the written order
        // — never ship a plan estimated to be worse than doing nothing — and
        // record decisions that describe it honestly.
        let decisions = decisions_for_written_order(graph, &written, &filtered, method);
        return (written, decisions);
    }
    let mut decisions = decisions_for_chosen_order(graph, est, &filtered, &chosen);
    decisions.push(PlanDecision::OrderComparison {
        chosen: chosen.aliases(graph),
        written: written.aliases(graph),
        chosen_cost: chosen.cost(),
        written_cost: written.cost(),
        method,
    });
    (chosen, decisions)
}

/// One cheapest-so-far partial order per relation subset.
#[derive(Clone)]
struct DpEntry {
    /// Total intermediate rows of this order (C_out).
    cost: f64,
    /// Output rows of the subset's last join.
    rows: f64,
    /// The relations, in join order.
    order: Vec<usize>,
}

/// Selinger-style dynamic programming over relation subsets: every subset
/// keeps its cheapest left-deep order, extended only through connecting
/// edges while any exist (cross products deferred, as in the greedy walk —
/// so the greedy order is always inside this space and the DP result can
/// only be at least as cheap). `None` past [`DP_MAX_RELATIONS`].
fn dp_join_order(graph: &JoinGraph, est: &Estimator, filtered: &[f64]) -> Option<Vec<usize>> {
    let n = graph.relations.len();
    if n > DP_MAX_RELATIONS {
        return None;
    }
    let full: usize = (1 << n) - 1;
    let mut best: Vec<Option<DpEntry>> = vec![None; 1 << n];
    for (r, &rows) in filtered.iter().enumerate() {
        best[1 << r] = Some(DpEntry {
            cost: rows,
            rows,
            order: vec![r],
        });
    }
    // Subsets in ascending numeric order: every proper subset of `mask`
    // is numerically smaller, so each entry is final before it is extended.
    for mask in 1..full {
        let Some(entry) = best[mask].clone() else {
            continue;
        };
        let joined: Vec<bool> = (0..n).map(|r| mask & (1 << r) != 0).collect();
        for r in extension_pool(graph, &joined) {
            let (rows, _) = est.join_step(graph, filtered, &joined, entry.rows, r);
            let cost = entry.cost + rows;
            let next = mask | (1 << r);
            // Exact cost ties break on the alias sequence, not on which
            // order the DP happened to reach first — the reach order tracks
            // relation indices, i.e. the written FROM order, and the chosen
            // plan must not depend on that.
            let replace = match best[next].as_ref() {
                None => true,
                Some(b) => {
                    cost < b.cost
                        || (cost == b.cost && alias_seq_less(graph, &entry.order, r, &b.order))
                }
            };
            if replace {
                let mut order = entry.order.clone();
                order.push(r);
                best[next] = Some(DpEntry { cost, rows, order });
            }
        }
    }
    best[full].take().map(|e| e.order)
}

/// True when `prefix + [last]`, read as alias names, sorts strictly before
/// `incumbent` — the FROM-order-invariant tie-break for equal-cost DP
/// entries.
fn alias_seq_less(graph: &JoinGraph, prefix: &[usize], last: usize, incumbent: &[usize]) -> bool {
    let candidate = prefix.iter().chain(std::iter::once(&last));
    let lhs = candidate.map(|&r| graph.relations[r].alias.as_str());
    let rhs = incumbent.iter().map(|&r| graph.relations[r].alias.as_str());
    lhs.cmp(rhs) == std::cmp::Ordering::Less
}

/// The greedy walk: start from the smallest filtered estimate, repeatedly
/// take the connected relation with the smallest join output. The fallback
/// for joins too wide for the subset table, and the reference the DP is
/// tested against.
pub(super) fn greedy_join_order(
    graph: &JoinGraph,
    est: &Estimator,
    filtered: &[f64],
) -> Vec<usize> {
    let n = graph.relations.len();
    let start = (0..n)
        .min_by(|&a, &b| filtered[a].total_cmp(&filtered[b]))
        .expect("at least one relation");
    let mut joined = vec![false; n];
    joined[start] = true;
    let mut order = vec![start];
    let mut current = filtered[start];
    while order.len() < n {
        let (pick, rows) = extension_pool(graph, &joined)
            .into_iter()
            .map(|r| {
                let (rows, _) = est.join_step(graph, filtered, &joined, current, r);
                (r, rows)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("pool is non-empty");
        joined[pick] = true;
        current = rows;
        order.push(pick);
    }
    order
}

/// Replay a chosen order step by step, scoring the same candidate pool the
/// enumerator saw, so every [`PlanDecision::Join`] lists what was rejected
/// at that step and why the pick won.
fn decisions_for_chosen_order(
    graph: &JoinGraph,
    est: &Estimator,
    filtered: &[f64],
    chosen: &JoinOrder,
) -> Vec<PlanDecision> {
    let n = graph.relations.len();
    let start = chosen.steps[0].rel;
    let mut decisions = vec![start_decision(graph, start, filtered)];
    let mut joined = vec![false; n];
    joined[start] = true;
    let mut current = filtered[start];
    for step in &chosen.steps[1..] {
        let rejected: Vec<Alternative> = extension_pool(graph, &joined)
            .into_iter()
            .filter(|&r| r != step.rel)
            .map(|r| {
                let (rows, _) = est.join_step(graph, filtered, &joined, current, r);
                Alternative {
                    alias: graph.relations[r].alias.clone(),
                    estimated_rows: rows,
                }
            })
            .collect();
        decisions.push(PlanDecision::Join {
            alias: graph.relations[step.rel].alias.clone(),
            table: graph.relations[step.rel].table.clone(),
            estimated_rows: step.estimated_rows,
            cross_product: step.edges.is_empty(),
            rejected,
        });
        joined[step.rel] = true;
        current = step.estimated_rows;
    }
    decisions
}

/// The [`PlanDecision::Start`] record for a join tree rooted at `start`,
/// with every other relation listed as a rejected alternative.
fn start_decision(graph: &JoinGraph, start: usize, filtered: &[f64]) -> PlanDecision {
    PlanDecision::Start {
        alias: graph.relations[start].alias.clone(),
        table: graph.relations[start].table.clone(),
        estimated_rows: filtered[start],
        filtered: !graph.relations[start].pushed.is_empty(),
        rejected: (0..graph.relations.len())
            .filter(|&r| r != start)
            .map(|r| Alternative {
                alias: graph.relations[r].alias.clone(),
                estimated_rows: filtered[r],
            })
            .collect(),
    }
}

/// Decisions describing a kept written order: used when greedy enumeration
/// could not beat the order the query was written in, so the narration can
/// truthfully say the written order was the cheapest found.
fn decisions_for_written_order(
    graph: &JoinGraph,
    order: &JoinOrder,
    filtered: &[f64],
    method: JoinEnumeration,
) -> Vec<PlanDecision> {
    let start = order.steps[0].rel;
    let mut decisions = vec![start_decision(graph, start, filtered)];
    for step in &order.steps[1..] {
        decisions.push(PlanDecision::Join {
            alias: graph.relations[step.rel].alias.clone(),
            table: graph.relations[step.rel].table.clone(),
            estimated_rows: step.estimated_rows,
            cross_product: step.edges.is_empty(),
            rejected: Vec::new(),
        });
    }
    let aliases = order.aliases(graph);
    decisions.push(PlanDecision::OrderComparison {
        chosen: aliases.clone(),
        written: aliases,
        chosen_cost: order.cost(),
        written_cost: order.cost(),
        method,
    });
    decisions
}
