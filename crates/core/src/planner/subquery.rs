//! The subquery execution subsystem: classification, decorrelation, and
//! lowering of `WHERE` / `HAVING` subqueries onto the physical operators
//! that run them.
//!
//! The decorrelation taxonomy, from cheapest strategy to most general:
//!
//! 1. **Semi-join** ([`SubqueryStrategy::SemiJoin`]) — `EXISTS (…)` whose
//!    only correlation with the enclosing block is a conjunction of
//!    top-level equalities `inner.col = outer.col`, and uncorrelated
//!    `IN (subquery)`. The equalities are stripped from the subquery and
//!    become hash keys of a [`datastore::exec::PlanNode::HashSemiJoin`]
//!    whose build side is the subquery planned *once*.
//! 2. **Anti-join** ([`SubqueryStrategy::AntiJoin`] /
//!    [`SubqueryStrategy::NullAwareAntiJoin`]) — the same shapes negated.
//!    `NOT EXISTS` uses plain anti-join semantics; `NOT IN` needs the
//!    NULL-aware variant, because a single NULL on either side turns the
//!    whole predicate UNKNOWN.
//! 3. **Scalar-once** ([`SubqueryStrategy::ScalarOnce`]) — an uncorrelated
//!    scalar comparison `expr <op> (SELECT …)`: the subquery is evaluated a
//!    single time and its cached value filters the outer rows.
//! 4. **Keyed scalar** ([`SubqueryStrategy::KeyedScalar`]) — a scalar
//!    aggregate correlated only by top-level key equalities (Q7's `1 <
//!    (SELECT count(*) FROM GENRE g WHERE g.mid = m.id)`): the body, grouped
//!    by its key columns, runs once, and each outer row looks its group up.
//!    A row with no group gets the aggregate over no rows, so a movie with
//!    no genre counts as 0 (the count bug, Ganski & Wong 1987). Chosen only
//!    when [`plan_cost`] prices the grouping below the applies it replaces
//!    (distinct bindings × one evaluation); two relations keyed on one row
//!    would group their cross product, and stay an apply.
//! 5. **Apply** ([`SubqueryStrategy::Apply`]) — everything genuinely
//!    correlated (Q6's nested division, quantified comparisons, a
//!    correlated scalar the cost gate kept). The subquery is planned with
//!    [`datastore::expr::Param::Outer`] placeholders for the enclosing row's
//!    columns; at run time the operator binds each row's values, executes
//!    the subplan, and memoizes the result per distinct binding. What an
//!    evaluation costs is the block's own business: its comparisons with the
//!    enclosing row are selections on its relations like any other
//!    ([`super::logical`]), and an `[NOT] EXISTS` evaluation is planned
//!    ([`datastore::exec::Plan::scale_to_row_goal`]) and opened toward its
//!    first row.
//!
//! Scoping is explicit: a `ScopeChain` carries, innermost-last, the output
//! columns of every enclosing operator a subquery may reference. Planning a
//! column reference that does not resolve locally walks the chain and
//! allocates a correlation parameter against the scope that owns it, so a
//! doubly-nested block (Q6's innermost `NOT EXISTS`) can be decorrelated
//! into an anti-join against its *immediate* outer block while still
//! referencing the outermost block through a parameter the top-level
//! `Apply` binds.
//!
//! Every choice is recorded as a [`PlanDecision::Subquery`], which is how
//! `EXPLAIN` can say "I turned `EXISTS (…)` into a semi-join on m.id =
//! c.mid" — the optimizer talking back about its own rewrites, in the
//! spirit of the paper.

use super::cost::{plan_cost, Estimator};
use super::logical::{build_join_graph, ref_alias};
use super::physical::{
    comparison_op, lower_expr_scoped, lower_having, lower_select, not_a_comparison,
};
use super::{GroupedLookup, PlanDecision, PlannerOptions, SqlText, SubqueryStrategy};
use crate::error::TalkbackError;
use datastore::exec::{AggExpr, ApplyMode, ColumnInfo, Plan, PlanNode};
use datastore::expr::{Expr as PExpr, Param};
use datastore::obs::CONSTRUCT_CHARS;
use datastore::stats::{anti_join_cardinality, semi_join_selectivity, DEFAULT_SELECTIVITY};
use datastore::{DataType, Database, Row, Value};
use sqlparse::ast::{
    AggregateFunction, BinaryOperator, ColumnRef, Expr, Literal, Quantifier, SelectItem,
    SelectStatement,
};
use sqlparse::bind::{bind_subquery, BoundQuery, ConjunctRole};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashSet};

/// Shared state of one planning pass: the database, the planner knobs, the
/// correlation-parameter counter, and the subquery decisions recorded for
/// narration.
pub(super) struct SubqueryContext<'a> {
    pub db: &'a Database,
    pub options: PlannerOptions,
    /// True when the statement is a plan-cache template's, its literals
    /// statement parameters: a quoted construct keeps their slots.
    template: bool,
    next_param: Cell<u32>,
    decisions: RefCell<Vec<PlanDecision>>,
}

/// One enclosing row scope a subquery can reference: the columns of the
/// operator output the enclosing `Apply` will iterate, plus the parameters
/// allocated against it so far.
pub(super) struct OuterScope<'a> {
    columns: &'a [ColumnInfo],
    bound: &'a BoundQuery,
    params: RefCell<Vec<(u32, usize)>>,
}

impl<'a> OuterScope<'a> {
    pub fn new(columns: &'a [ColumnInfo], bound: &'a BoundQuery) -> OuterScope<'a> {
        OuterScope {
            columns,
            bound,
            params: RefCell::new(Vec::new()),
        }
    }

    /// The parameter id bound to column `idx` of this scope, allocating a
    /// fresh one on first use.
    fn param_for(&self, idx: usize, counter: &Cell<u32>) -> u32 {
        let mut params = self.params.borrow_mut();
        if let Some(&(id, _)) = params.iter().find(|(_, i)| *i == idx) {
            return id;
        }
        let id = counter.get();
        counter.set(id + 1);
        params.push((id, idx));
        id
    }

    /// The `(param id, column index)` pairs the owning `Apply` must bind.
    pub fn params(&self) -> Vec<(u32, usize)> {
        self.params.borrow().clone()
    }
}

/// The stack of enclosing scopes (innermost last) threaded through physical
/// lowering, so a correlated column reference can be turned into a
/// parameter against the scope that owns it.
pub(super) struct ScopeChain<'a> {
    ctx: &'a SubqueryContext<'a>,
    scopes: Vec<&'a OuterScope<'a>>,
}

impl<'a> ScopeChain<'a> {
    /// The empty chain of a top-level query.
    pub fn root(ctx: &'a SubqueryContext<'a>) -> ScopeChain<'a> {
        ScopeChain {
            ctx,
            scopes: Vec::new(),
        }
    }

    /// The planning context.
    pub fn ctx(&self) -> &'a SubqueryContext<'a> {
        self.ctx
    }

    /// Extend the chain with one more (innermost) scope.
    pub fn child<'b>(&'b self, scope: &'b OuterScope<'b>) -> ScopeChain<'b>
    where
        'a: 'b,
    {
        let mut scopes: Vec<&'b OuterScope<'b>> = Vec::with_capacity(self.scopes.len() + 1);
        scopes.extend(self.scopes.iter().copied());
        scopes.push(scope);
        ScopeChain {
            ctx: self.ctx,
            scopes,
        }
    }

    /// Resolve a qualified column reference against the enclosing scopes,
    /// innermost first, allocating a correlation value in the owning scope.
    /// `None` when no scope has the column.
    pub fn resolve_param(&self, qualifier: Option<&str>, name: &str) -> Option<Param> {
        let qualifier = qualifier?;
        for scope in self.scopes.iter().rev() {
            if let Some(idx) = scope
                .columns
                .iter()
                .position(|c| c.matches(Some(qualifier), name))
            {
                return Some(Param::Outer(scope.param_for(idx, &self.ctx.next_param)));
            }
        }
        None
    }

    /// The enclosing blocks' binder results, outermost first — the scope
    /// stack [`bind_subquery`] resolves correlated references against.
    pub fn bound_chain(&self) -> Vec<&BoundQuery> {
        self.scopes.iter().map(|s| s.bound).collect()
    }

    /// [`ScopeChain::bound_chain`] extended with the attachment block itself
    /// — what subquery *binding* sees (the subquery may legitimately
    /// reference the attachment block; whether lowering supports that
    /// reference is decided by the chosen strategy).
    fn bound_chain_with<'s>(&'s self, own: &'s BoundQuery) -> Vec<&'s BoundQuery> {
        let mut chain = Vec::with_capacity(self.scopes.len() + 1);
        chain.extend(self.scopes.iter().map(|s| s.bound));
        chain.push(own);
        chain
    }
}

/// Floor for semi-/anti-join hints: even a "keeps almost nothing" estimate
/// must leave a sliver, or the enumerator would treat the relation as free
/// and degenerate estimates would hide real join costs.
const MIN_HINT: f64 = 0.05;

/// Per-relation cardinality hints for the join enumerator: a relation that a
/// decorrelatable-looking `EXISTS`/`IN` conjunct will thin out downstream
/// enters the enumeration at its semi-join-reduced cardinality, so orders
/// that shrink it early rank accordingly. Hints only scale the enumerator's
/// filtered estimates — they never change which plans are legal, only how
/// they are ranked, and the same scaling is applied to the written order, so
/// the `chosen_cost <= written_cost` invariant holds on one common metric.
pub(super) fn semi_join_hints(
    db: &Database,
    estimator: &Estimator,
    graph: &super::logical::JoinGraph,
    bound: &BoundQuery,
    where_subs: &[SubConjunct],
) -> Vec<f64> {
    let mut hints = vec![1.0_f64; graph.relations.len()];
    if graph.relations.len() <= 1 {
        return hints;
    }
    for sub in where_subs {
        match sub.expr {
            Expr::Exists { subquery, negated } => {
                for (rel, sel) in exists_hint_terms(db, estimator, graph, subquery, sub.bound) {
                    apply_hint(&mut hints, rel, sel, *negated);
                }
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                if let Some((rel, sel)) =
                    in_hint_term(db, estimator, graph, bound, expr, subquery, sub.bound)
                {
                    apply_hint(&mut hints, rel, sel, *negated);
                }
            }
            _ => {}
        }
    }
    hints
}

fn apply_hint(hints: &mut [f64], rel: usize, selectivity: f64, negated: bool) {
    let s = if negated {
        // NOT EXISTS / NOT IN keep the complement; floor it so a "matches
        // everything" estimate does not zero the relation out entirely.
        (1.0 - selectivity).max(MIN_HINT)
    } else {
        selectivity.max(MIN_HINT)
    };
    hints[rel] = (hints[rel] * s).max(MIN_HINT);
}

/// The `(relation index, semi-join selectivity)` terms contributed by an
/// `EXISTS` subquery's correlations `inner.x = outer.y` with this block.
fn exists_hint_terms(
    db: &Database,
    estimator: &Estimator,
    graph: &super::logical::JoinGraph,
    sub: &SelectStatement,
    sub_bound: &BoundQuery,
) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for (conjunct, role) in sub_bound.conjuncts(sub) {
        let ConjunctRole::Correlation {
            table,
            parent: Some(rel_idx),
            ..
        } = *role
        else {
            continue;
        };
        let (inner, outer) = role
            .columns(conjunct)
            .expect("a correlation equates two columns");
        let build_table = &sub_bound.tables[table].table;
        let rel = &graph.relations[rel_idx];
        let probe_rows = estimator.relation_rows(rel);
        let probe_ndv = estimator.table_column_ndv(&rel.table, &outer.column, probe_rows);
        let build_rows = db
            .table_stats(build_table)
            .map(|s| s.row_count as f64)
            .unwrap_or(1.0);
        let build_ndv = estimator.table_column_ndv(build_table, &inner.column, build_rows);
        out.push((rel_idx, semi_join_selectivity(probe_ndv, build_ndv)));
    }
    out
}

/// The `(relation index, semi-join selectivity)` term of an `IN (subquery)`
/// whose probe is a plain column and whose build side projects one column.
fn in_hint_term(
    db: &Database,
    estimator: &Estimator,
    graph: &super::logical::JoinGraph,
    bound: &BoundQuery,
    probe: &Expr,
    sub: &SelectStatement,
    sub_bound: &BoundQuery,
) -> Option<(usize, f64)> {
    let Expr::Column(c) = probe else {
        return None;
    };
    let alias = ref_alias(c, bound)?;
    let rel_idx = graph
        .relations
        .iter()
        .position(|r| r.alias.eq_ignore_ascii_case(alias))?;
    let [SelectItem::Expr {
        expr: Expr::Column(inner),
        ..
    }] = sub.projection.as_slice()
    else {
        return None;
    };
    let build_table = sub_bound.table_of_alias(sub_bound.qualifier_of(inner)?)?;
    let rel = &graph.relations[rel_idx];
    let probe_rows = estimator.relation_rows(rel);
    let probe_ndv = estimator.table_column_ndv(&rel.table, &c.column, probe_rows);
    let build_rows = db
        .table_stats(build_table)
        .map(|s| s.row_count as f64)
        .unwrap_or(1.0);
    let build_ndv = estimator.table_column_ndv(build_table, &inner.column, build_rows);
    Some((rel_idx, semi_join_selectivity(probe_ndv, build_ndv)))
}

/// A WHERE or HAVING conjunct holding a subquery, with the block the binder
/// bound its subquery as (its first: a whole connector has only that one).
#[derive(Clone, Copy)]
pub(super) struct SubConjunct<'a> {
    pub expr: &'a Expr,
    pub bound: &'a BoundQuery,
}

/// Split a statement's WHERE and HAVING into the subquery-free remainder
/// (what plain lowering sees) and the conjuncts holding subqueries, which
/// the subquery pass attaches as dedicated operators. `bound` is the
/// statement's binding: a WHERE conjunct's role says whether it holds a
/// subquery and which.
pub(super) fn split_subqueries<'a>(
    stmt: &'a SelectStatement,
    bound: &'a BoundQuery,
) -> (
    Cow<'a, SelectStatement>,
    Vec<SubConjunct<'a>>,
    Vec<SubConjunct<'a>>,
) {
    // Without a subquery the remainder is the statement itself, unless a
    // parenthesized AND has to be re-associated the way `and_all` joins.
    let predicates = [&stmt.selection, &stmt.having];
    if !stmt.has_subquery() && predicates.into_iter().flatten().all(is_left_deep) {
        return (Cow::Borrowed(stmt), Vec::new(), Vec::new());
    }
    let (mut plain, mut where_subs) = (Vec::new(), Vec::new());
    for (expr, role) in bound.conjuncts(stmt) {
        match *role {
            ConjunctRole::Subquery { index, .. } => where_subs.push(SubConjunct {
                expr,
                bound: &bound.subqueries[index],
            }),
            _ => plain.push(expr.clone()),
        }
    }
    let selection = Expr::and_all(plain);
    // HAVING's subqueries follow WHERE's among the block's.
    let having = stmt
        .having
        .as_ref()
        .map(Expr::conjuncts)
        .unwrap_or_default();
    let mut next = bound.subqueries.len();
    next -= having.iter().map(|c| c.subqueries().len()).sum::<usize>();
    let (mut plain, mut having_subs) = (Vec::new(), Vec::new());
    for expr in having {
        let subqueries = expr.subqueries().len();
        if subqueries == 0 {
            plain.push(expr.clone());
            continue;
        }
        having_subs.push(SubConjunct {
            expr,
            bound: &bound.subqueries[next],
        });
        next += subqueries;
    }
    let stripped = with_predicates(stmt, selection, Expr::and_all(plain));
    (Cow::Owned(stripped), where_subs, having_subs)
}

/// `stmt` with `selection` and `having` in place of its own, which are not
/// copied.
fn with_predicates(
    stmt: &SelectStatement,
    selection: Option<Expr>,
    having: Option<Expr>,
) -> SelectStatement {
    SelectStatement {
        distinct: stmt.distinct,
        projection: stmt.projection.clone(),
        from: stmt.from.clone(),
        selection,
        group_by: stmt.group_by.clone(),
        having,
        order_by: stmt.order_by.clone(),
        limit: stmt.limit,
    }
}

/// True when `and_all(pred.conjuncts())` rebuilds `pred` as it is: no AND
/// is the right operand of an AND.
fn is_left_deep(pred: &Expr) -> bool {
    let is_and = |e: &Expr| {
        matches!(
            e,
            Expr::BinaryOp {
                op: BinaryOperator::And,
                ..
            }
        )
    };
    match pred {
        Expr::BinaryOp {
            left,
            op: BinaryOperator::And,
            right,
        } => !is_and(right) && is_left_deep(left),
        _ => true,
    }
}

/// A decorrelated equi-join key: the outer-scope column and the subquery's
/// own column it is equated with.
struct KeyPair {
    outer: ColumnRef,
    inner: ColumnRef,
}

impl<'c> SubqueryContext<'c> {
    pub fn new(db: &'c Database, options: PlannerOptions, template: bool) -> SubqueryContext<'c> {
        SubqueryContext {
            db,
            options,
            template,
            next_param: Cell::new(0),
            decisions: RefCell::new(Vec::new()),
        }
    }

    /// The subquery decisions recorded so far (drains the context).
    pub fn take_decisions(&self) -> Vec<PlanDecision> {
        std::mem::take(&mut self.decisions.borrow_mut())
    }

    /// Record an arbitrary planning decision (the physical layer routes its
    /// access-path choices here, so subquery blocks report theirs too).
    pub fn record_decision(&self, decision: PlanDecision) {
        self.decisions.borrow_mut().push(decision);
    }

    fn record(
        &self,
        construct: &Expr,
        strategy: SubqueryStrategy,
        on: Option<String>,
        correlated_on: Vec<String>,
        first_row: bool,
    ) {
        self.decisions.borrow_mut().push(PlanDecision::Subquery {
            construct: SqlText::new(construct.to_string(), CONSTRUCT_CHARS, self.template),
            strategy,
            on,
            correlated_on,
            cache_cap: datastore::exec::APPLY_CACHE_CAP,
            first_row,
            grouped: None,
        });
    }

    /// Plan one subquery block, bound as `bound` (recursively — its own
    /// subqueries go through this same subsystem). With `project` false,
    /// planning stops after joins, filters, and subquery attachments,
    /// exposing the raw FROM columns — the shape a semi-/anti-join build
    /// side needs so its join keys can address any inner column.
    pub fn plan_block(
        &self,
        estimator: &Estimator,
        stmt: &SelectStatement,
        bound: &BoundQuery,
        scopes: &ScopeChain,
        project: bool,
    ) -> Result<(Plan, Vec<ColumnInfo>), TalkbackError> {
        if bound.tables.is_empty() {
            return Err(TalkbackError::Unsupported(
                "subqueries without a FROM clause".into(),
            ));
        }
        let (stripped, where_subs, having_subs) = split_subqueries(stmt, bound);
        let graph = build_join_graph(stmt, bound);
        let hints = semi_join_hints(self.db, estimator, &graph, bound, &where_subs);
        let (order, _) = super::cost::choose_join_order(&graph, estimator, &hints);
        lower_select(
            self.db,
            &stripped,
            bound,
            &graph,
            &order,
            estimator,
            scopes,
            &where_subs,
            &having_subs,
            project,
        )
    }

    /// Attach one WHERE conjunct containing a subquery on top of `plan`
    /// (whose output is `columns`, estimated at `rows` rows). Returns the
    /// extended plan and its new row estimate.
    #[allow(clippy::too_many_arguments)]
    pub fn attach_where(
        &self,
        estimator: &Estimator,
        plan: Plan,
        columns: &[ColumnInfo],
        bound: &BoundQuery,
        sub: SubConjunct,
        scopes: &ScopeChain,
        rows: f64,
    ) -> Result<(Plan, f64), TalkbackError> {
        let (conjunct, sub_bound) = (sub.expr, sub.bound);
        match conjunct {
            Expr::Exists { subquery, negated } => self.lower_exists(
                estimator, plan, columns, bound, conjunct, subquery, sub_bound, *negated, scopes,
                rows,
            ),
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let lower_outer = |e: &Expr| lower_expr_scoped(e, columns, bound, Some(scopes));
                self.lower_in(
                    estimator,
                    plan,
                    columns,
                    bound,
                    conjunct,
                    expr,
                    subquery,
                    sub_bound,
                    *negated,
                    scopes,
                    rows,
                    &lower_outer,
                )
            }
            Expr::QuantifiedComparison {
                left,
                op,
                quantifier,
                subquery,
            } => {
                let lower_outer = |e: &Expr| lower_expr_scoped(e, columns, bound, Some(scopes));
                self.lower_quantified(
                    estimator,
                    plan,
                    columns,
                    bound,
                    conjunct,
                    left,
                    *op,
                    *quantifier,
                    subquery,
                    sub_bound,
                    scopes,
                    rows,
                    &lower_outer,
                )
            }
            Expr::BinaryOp { op, .. } if op.is_comparison() => {
                let lower_outer = |e: &Expr| lower_expr_scoped(e, columns, bound, Some(scopes));
                self.lower_scalar_against(
                    estimator,
                    plan,
                    columns,
                    bound,
                    conjunct,
                    sub_bound,
                    scopes,
                    rows,
                    &lower_outer,
                )
            }
            other => Err(complex_predicate(other)),
        }
    }

    /// Attach one HAVING conjunct containing a subquery above the aggregate.
    /// The outer side of the predicate is resolved against the aggregate's
    /// output row (group-by columns, then aggregate results), so `count(*) >
    /// (SELECT …)` and Q7's `1 < (SELECT count(*) … where g.mid = m.id)`
    /// both work.
    #[allow(clippy::too_many_arguments)]
    pub fn attach_having(
        &self,
        estimator: &Estimator,
        plan: Plan,
        output_columns: &[ColumnInfo],
        group_by: &[usize],
        aggregates: &[AggExpr],
        input_columns: &[ColumnInfo],
        bound: &BoundQuery,
        sub: SubConjunct,
        scopes: &ScopeChain,
        rows: f64,
    ) -> Result<(Plan, f64), TalkbackError> {
        let lower_outer = |e: &Expr| lower_having(e, group_by, aggregates, input_columns, bound);
        let (conjunct, sub_bound) = (sub.expr, sub.bound);
        match conjunct {
            Expr::BinaryOp { op, .. } if op.is_comparison() => self.lower_scalar_against(
                estimator,
                plan,
                output_columns,
                bound,
                conjunct,
                sub_bound,
                scopes,
                rows,
                &lower_outer,
            ),
            Expr::Exists { subquery, negated } => self.lower_apply(
                estimator,
                plan,
                output_columns,
                bound,
                conjunct,
                subquery,
                sub_bound,
                scopes,
                ApplyMode::Exists { negated: *negated },
                rows,
            ),
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                single_column_subquery(subquery, "an IN")?;
                let probe = lower_outer(expr)?;
                self.lower_apply(
                    estimator,
                    plan,
                    output_columns,
                    bound,
                    conjunct,
                    subquery,
                    sub_bound,
                    scopes,
                    ApplyMode::In {
                        expr: probe,
                        negated: *negated,
                    },
                    rows,
                )
            }
            Expr::QuantifiedComparison {
                left,
                op,
                quantifier,
                subquery,
            } => {
                single_column_subquery(subquery, "a quantified-comparison")?;
                let probe = lower_outer(left)?;
                self.lower_apply(
                    estimator,
                    plan,
                    output_columns,
                    bound,
                    conjunct,
                    subquery,
                    sub_bound,
                    scopes,
                    ApplyMode::Quantified {
                        expr: probe,
                        op: comparison_op(*op).ok_or_else(|| not_a_comparison(*op))?,
                        all: *quantifier == Quantifier::All,
                    },
                    rows,
                )
            }
            other => Err(TalkbackError::Unsupported(format!(
                "a HAVING subquery inside a complex predicate ({})",
                shorten(&other.to_string())
            ))),
        }
    }

    /// `[NOT] EXISTS (…)`: decorrelate to a hash semi-/anti-join when the
    /// subquery's only correlation with the enclosing block is top-level
    /// equalities; otherwise fall back to `Apply`.
    #[allow(clippy::too_many_arguments)]
    fn lower_exists(
        &self,
        estimator: &Estimator,
        plan: Plan,
        columns: &[ColumnInfo],
        bound: &BoundQuery,
        conjunct: &Expr,
        sub: &SelectStatement,
        sub_bound: &BoundQuery,
        negated: bool,
        scopes: &ScopeChain,
        rows: f64,
    ) -> Result<(Plan, f64), TalkbackError> {
        if self.options.decorrelate_subqueries && !sub.is_aggregate() && sub.limit.is_none() {
            if let Some((keys, stripped_sub, bound_build)) =
                self.exists_keys(sub, sub_bound, bound, scopes)?
            {
                // Build side: the subquery minus its correlation equalities,
                // planned against the *enclosing* scopes only (the stripped
                // sub provably no longer references the attachment block).
                let (sub_plan, sub_columns) =
                    self.plan_block(estimator, &stripped_sub, &bound_build, scopes, false)?;
                let mut left_keys = Vec::new();
                let mut right_keys = Vec::new();
                let mut selectivity = 1.0_f64;
                let build_rows = sub_plan.estimated_rows.unwrap_or(1.0);
                for key in &keys {
                    let lp = position_of(columns, &key.outer).ok_or_else(|| {
                        TalkbackError::Unsupported(format!(
                            "cannot resolve correlated column {}",
                            key.outer
                        ))
                    })?;
                    let rp = position_of(&sub_columns, &key.inner).ok_or_else(|| {
                        TalkbackError::Unsupported(format!(
                            "cannot resolve subquery column {}",
                            key.inner
                        ))
                    })?;
                    left_keys.push(lp);
                    right_keys.push(rp);
                    let probe_ndv = self.ref_ndv(estimator, bound, &key.outer, rows);
                    let build_ndv = self.ref_ndv(estimator, &bound_build, &key.inner, build_rows);
                    selectivity *= semi_join_selectivity(probe_ndv, build_ndv);
                }
                let on = keys
                    .iter()
                    .map(|k| format!("{} = {}", k.outer, k.inner))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                let (strategy, est) = if negated {
                    (
                        SubqueryStrategy::AntiJoin,
                        (rows - rows * selectivity).max(0.0),
                    )
                } else {
                    (SubqueryStrategy::SemiJoin, rows * selectivity)
                };
                self.record(conjunct, strategy, Some(on), Vec::new(), false);
                let joined = if negated {
                    Plan::anti_join(plan, sub_plan, left_keys, right_keys, false)
                } else {
                    Plan::semi_join(plan, sub_plan, left_keys, right_keys)
                };
                return Ok((joined.with_estimate(est), est));
            }
        }
        self.lower_apply(
            estimator,
            plan,
            columns,
            bound,
            conjunct,
            sub,
            sub_bound,
            scopes,
            ApplyMode::Exists { negated },
            rows,
        )
    }

    /// `expr [NOT] IN (subquery)`: an uncorrelated single-column subquery
    /// whose projected type matches the probe column becomes a semi-join
    /// (or a NULL-aware anti-join for `NOT IN`); anything else is `Apply`.
    #[allow(clippy::too_many_arguments)]
    fn lower_in(
        &self,
        estimator: &Estimator,
        plan: Plan,
        columns: &[ColumnInfo],
        bound: &BoundQuery,
        conjunct: &Expr,
        outer_expr: &Expr,
        sub: &SelectStatement,
        sub_bound: &BoundQuery,
        negated: bool,
        scopes: &ScopeChain,
        rows: f64,
        lower_outer: &dyn Fn(&Expr) -> Result<PExpr, TalkbackError>,
    ) -> Result<(Plan, f64), TalkbackError> {
        single_column_subquery(sub, "an IN")?;
        if self.options.decorrelate_subqueries {
            if let Some((probe_pos, probe_ref)) = self.hashable_probe(outer_expr, columns, bound) {
                let targets = block_aliases(bound);
                let uncorrelated = !correlates_with(sub_bound, &targets, &HashSet::new());
                let inner_type = self.projected_type(sub, sub_bound);
                let probe_type = self.column_ref_type(bound, &probe_ref);
                if uncorrelated && inner_type.is_some() && inner_type == probe_type {
                    let (sub_plan, sub_columns) =
                        self.plan_block(estimator, sub, sub_bound, scopes, true)?;
                    let build_rows = sub_plan.estimated_rows.unwrap_or(1.0);
                    let probe_ndv = self.ref_ndv(estimator, bound, &probe_ref, rows);
                    let build_ndv = self
                        .projected_column(sub)
                        .map(|c| self.ref_ndv(estimator, sub_bound, &c, build_rows))
                        .unwrap_or(1);
                    let on = format!(
                        "{} = {}",
                        probe_ref,
                        sub_columns
                            .first()
                            .map(ColumnInfo::to_string)
                            .unwrap_or_else(|| "?".into())
                    );
                    let sel = semi_join_selectivity(probe_ndv, build_ndv);
                    let (strategy, est) = if negated {
                        (
                            SubqueryStrategy::NullAwareAntiJoin,
                            anti_join_cardinality(rows, probe_ndv, build_ndv),
                        )
                    } else {
                        (SubqueryStrategy::SemiJoin, rows * sel)
                    };
                    self.record(conjunct, strategy, Some(on), Vec::new(), false);
                    let joined = if negated {
                        Plan::anti_join(plan, sub_plan, vec![probe_pos], vec![0], true)
                    } else {
                        Plan::semi_join(plan, sub_plan, vec![probe_pos], vec![0])
                    };
                    return Ok((joined.with_estimate(est), est));
                }
            }
        }
        let probe = lower_outer(outer_expr)?;
        self.lower_apply(
            estimator,
            plan,
            columns,
            bound,
            conjunct,
            sub,
            sub_bound,
            scopes,
            ApplyMode::In {
                expr: probe,
                negated,
            },
            rows,
        )
    }

    /// A WHERE or HAVING comparison with a scalar subquery on one side:
    /// evaluate-once when uncorrelated; `Apply` otherwise, unless the
    /// subquery is an aggregate correlated only by key equalities and
    /// grouping it once costs less than the applies.
    #[allow(clippy::too_many_arguments)]
    fn lower_scalar_against(
        &self,
        estimator: &Estimator,
        plan: Plan,
        columns: &[ColumnInfo],
        bound: &BoundQuery,
        conjunct: &Expr,
        sub_bound: &BoundQuery,
        scopes: &ScopeChain,
        rows: f64,
        lower_outer: &dyn Fn(&Expr) -> Result<PExpr, TalkbackError>,
    ) -> Result<(Plan, f64), TalkbackError> {
        let (outer_expr, op, sub) = match conjunct {
            Expr::BinaryOp { left, op, right } => match (left.as_ref(), right.as_ref()) {
                (Expr::ScalarSubquery(sub), e) if !e.contains_subquery() => {
                    (e, sqlparse::ast::flip(*op), sub)
                }
                (e, Expr::ScalarSubquery(sub)) if !e.contains_subquery() => (e, *op, sub),
                _ => return Err(complex_predicate(conjunct)),
            },
            _ => return Err(complex_predicate(conjunct)),
        };
        single_column_subquery(sub, "a scalar")?;
        let probe = lower_outer(outer_expr)?;
        let op = comparison_op(op).ok_or_else(|| not_a_comparison(op))?;
        let targets = block_aliases(bound);
        if self.options.decorrelate_subqueries
            && !correlates_with(sub_bound, &targets, &HashSet::new())
        {
            let (sub_plan, _) = self.plan_block(estimator, sub, sub_bound, scopes, true)?;
            let est = (rows * DEFAULT_SELECTIVITY).max(0.0);
            self.record(
                conjunct,
                SubqueryStrategy::ScalarOnce,
                None,
                Vec::new(),
                false,
            );
            return Ok((
                plan.scalar_subquery(sub_plan, probe, op, Vec::new(), Value::Null)
                    .with_estimate(est),
                est,
            ));
        }
        let before = self.decisions.borrow().len();
        let mode = ApplyMode::Compare {
            expr: probe.clone(),
            op,
        };
        let (applied, est) = self.lower_apply(
            estimator, plan, columns, bound, conjunct, sub, sub_bound, scopes, mode, rows,
        )?;
        let (after, PlanNode::Apply { subplan, .. }) =
            (self.decisions.borrow().len(), &applied.node)
        else {
            unreachable!("lower_apply returns an apply");
        };
        let grouped = self.grouped_scalar(
            estimator, sub, sub_bound, columns, bound, scopes, rows, subplan,
        )?;
        let Some((lookup, keys, absent, grouped)) = grouped else {
            return Ok((applied, est));
        };
        let keyed = grouped.build_cost < grouped.apply_cost;
        let mut decisions = self.decisions.borrow_mut();
        if let Some(PlanDecision::Subquery {
            strategy,
            grouped: g,
            ..
        }) = decisions.get_mut(after - 1)
        {
            *g = Some(Box::new(grouped));
            if keyed {
                *strategy = SubqueryStrategy::KeyedScalar;
            }
        }
        // The plan not taken leaves only the apply's decision, weighed.
        let end = decisions.len();
        decisions.drain(if keyed { before..after - 1 } else { after..end });
        match applied.node {
            PlanNode::Apply { input, .. } if keyed => {
                let keyed = input.scalar_subquery(lookup, probe, op, keys, absent);
                Ok((keyed.with_estimate(est), est))
            }
            _ => Ok((applied, est)),
        }
    }

    /// A correlated scalar aggregate as a grouped lookup: the body minus its
    /// key equalities ([`Self::exists_keys`]), grouped by its key columns,
    /// projecting `keys…, item`: the plan, the key pairs, the value of a row
    /// with no group, and the costs against `applied`, one evaluation.
    /// `None` unless decorrelating, and the body is an aggregate item and
    /// nothing more.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn grouped_scalar(
        &self,
        estimator: &Estimator,
        sub: &SelectStatement,
        sub_bound: &BoundQuery,
        columns: &[ColumnInfo],
        bound: &BoundQuery,
        scopes: &ScopeChain,
        rows: f64,
        applied: &Plan,
    ) -> Result<Option<(Plan, Vec<(usize, usize)>, Value, GroupedLookup)>, TalkbackError> {
        let [SelectItem::Expr { expr: item, .. }] = sub.projection.as_slice() else {
            return Ok(None);
        };
        let plain = sub.group_by.is_empty() && sub.having.is_none() && !sub.distinct;
        let plain = plain && sub.order_by.is_empty() && sub.limit.is_none();
        if !self.options.decorrelate_subqueries || !plain {
            return Ok(None);
        }
        // The aggregate over no rows: what `g.mid = m.id` makes of a movie
        // with no genre (the count bug, Ganski & Wong 1987).
        let absent = (item
            .contains_aggregate()
            .then(|| over_no_rows(item))
            .flatten())
        .and_then(|e| lower_expr_scoped(&e, &[], bound, None).ok())
        .and_then(|e| e.eval(&Row::empty()).ok());
        let Some((keys, mut grouped, _)) = self.exists_keys(sub, sub_bound, bound, scopes)? else {
            return Ok(None);
        };
        let probe: Option<Vec<usize>> = keys
            .iter()
            .map(|k| position_of(columns, &k.outer))
            .collect();
        let (Some(absent), Some(probe)) = (absent, probe) else {
            return Ok(None);
        };
        grouped.group_by = keys.iter().map(|k| Expr::Column(k.inner.clone())).collect();
        grouped.projection = (grouped.group_by.iter().chain([item]))
            .map(|expr| SelectItem::Expr {
                expr: expr.clone(),
                alias: None,
            })
            .collect();
        let bound_build = bind_subquery(self.db.catalog(), &grouped, &scopes.bound_chain())?;
        let (lookup, _) = self.plan_block(estimator, &grouped, &bound_build, scopes, true)?;
        let bindings = keys
            .iter()
            .map(|k| self.ref_ndv(estimator, bound, &k.outer, rows) as f64)
            .product::<f64>()
            .min(rows.max(1.0));
        let concept = |bound: &BoundQuery, c: &ColumnRef| {
            let table = c.qualifier.as_deref().and_then(|q| bound.table_of_alias(q));
            let table = table.and_then(|t| self.db.catalog().table(t));
            table.map_or_else(|| "row".to_string(), |t| t.effective_concept())
        };
        let over: BTreeSet<&str> = bound_build
            .tables
            .iter()
            .map(|t| t.table.as_str())
            .collect();
        let list = |side: fn(&KeyPair) -> &ColumnRef| {
            let names: Vec<String> = keys.iter().map(|k| side(k).to_string()).collect();
            names.join(", ")
        };
        let weighed = GroupedLookup {
            item: item.to_string(),
            over: Vec::from_iter(over).join(" and "),
            by: list(|k| &k.inner),
            probe: list(|k| &k.outer),
            outer: concept(bound, &keys[0].outer),
            inner: concept(&bound_build, &keys[0].inner),
            absent: absent.to_string(),
            build_cost: plan_cost(&lookup),
            apply_cost: bindings * plan_cost(applied),
        };
        let pairs = probe.into_iter().zip(0..).collect();
        Ok(Some((lookup, pairs, absent, weighed)))
    }

    /// `expr <op> ALL|ANY (subquery)` — always the `Apply` fallback (an
    /// uncorrelated one is still evaluated just once, via the cache).
    #[allow(clippy::too_many_arguments)]
    fn lower_quantified(
        &self,
        estimator: &Estimator,
        plan: Plan,
        columns: &[ColumnInfo],
        bound: &BoundQuery,
        conjunct: &Expr,
        left: &Expr,
        op: BinaryOperator,
        quantifier: Quantifier,
        sub: &SelectStatement,
        sub_bound: &BoundQuery,
        scopes: &ScopeChain,
        rows: f64,
        lower_outer: &dyn Fn(&Expr) -> Result<PExpr, TalkbackError>,
    ) -> Result<(Plan, f64), TalkbackError> {
        single_column_subquery(sub, "a quantified-comparison")?;
        let probe = lower_outer(left)?;
        self.lower_apply(
            estimator,
            plan,
            columns,
            bound,
            conjunct,
            sub,
            sub_bound,
            scopes,
            ApplyMode::Quantified {
                expr: probe,
                op: comparison_op(op).ok_or_else(|| not_a_comparison(op))?,
                all: quantifier == Quantifier::All,
            },
            rows,
        )
    }

    /// The `Apply` fallback: plan the subquery with the attachment row as an
    /// additional scope, collect the correlation parameters it allocated,
    /// and wrap the plan in an `Apply` operator.
    #[allow(clippy::too_many_arguments)]
    fn lower_apply(
        &self,
        estimator: &Estimator,
        plan: Plan,
        columns: &[ColumnInfo],
        bound: &BoundQuery,
        conjunct: &Expr,
        sub: &SelectStatement,
        sub_bound: &BoundQuery,
        scopes: &ScopeChain,
        mode: ApplyMode,
        rows: f64,
    ) -> Result<(Plan, f64), TalkbackError> {
        let scope = OuterScope::new(columns, bound);
        let sub_plan = {
            let chain = scopes.child(&scope);
            let (mut sub_plan, _) = self.plan_block(estimator, sub, sub_bound, &chain, true)?;
            if let Some(goal) = mode.row_goal() {
                // The executor stops each evaluation there; estimate it so.
                sub_plan.scale_to_row_goal(goal as f64);
            }
            sub_plan
        };
        let params = scope.params();
        let correlated_on: Vec<String> = params
            .iter()
            .map(|&(_, idx)| {
                columns
                    .get(idx)
                    .map(ColumnInfo::to_string)
                    .unwrap_or_else(|| format!("#{idx}"))
            })
            .collect();
        self.record(
            conjunct,
            SubqueryStrategy::Apply,
            None,
            correlated_on,
            mode.row_goal().is_some(),
        );
        let est = (rows * DEFAULT_SELECTIVITY).max(0.0);
        Ok((plan.apply(sub_plan, params, mode).with_estimate(est), est))
    }

    /// For an `EXISTS` subquery (bound as `sub_bound`), extract the
    /// conjuncts the binder filed as correlations with the attachment block
    /// as join keys, and return them with the subquery stripped of them and
    /// its binding. `None` (not an error) when decorrelation is impossible:
    /// no such equality, a correlated reference anywhere else, or
    /// mixed-type keys (hash keys compare exactly, so mixed-type equality
    /// must keep SQL `=` semantics through `Apply`).
    #[allow(clippy::type_complexity)]
    fn exists_keys(
        &self,
        sub: &SelectStatement,
        sub_bound: &BoundQuery,
        bound: &BoundQuery,
        scopes: &ScopeChain,
    ) -> Result<Option<(Vec<KeyPair>, SelectStatement, BoundQuery)>, TalkbackError> {
        let mut keys = Vec::new();
        let mut remaining = Vec::new();
        for (conjunct, role) in sub_bound.conjuncts(sub) {
            let ConjunctRole::Correlation {
                table,
                parent: Some(outer_table),
                same_type: true,
                ..
            } = *role
            else {
                remaining.push(conjunct.clone());
                continue;
            };
            let (inner, outer) = role
                .columns(conjunct)
                .expect("a correlation equates two columns");
            let alias = |t: &sqlparse::BoundTable| t.alias.to_lowercase();
            keys.push(KeyPair {
                outer: qualified(outer, &alias(&bound.tables[outer_table])),
                inner: qualified(inner, &alias(&sub_bound.tables[table])),
            });
        }
        if keys.is_empty() {
            return Ok(None);
        }
        let stripped = with_predicates(sub, Expr::and_all(remaining), sub.having.clone());
        // Re-bind the stripped subquery: if any reference to the attachment
        // block survives (in the projection, a nested block, a non-equality
        // predicate…), the build side would depend on the probe row and a
        // one-shot semi-join would be wrong — fall back to Apply.
        let chain_with_self = scopes.bound_chain_with(bound);
        let bound_stripped = bind_subquery(self.db.catalog(), &stripped, &chain_with_self)?;
        if correlates_with(&bound_stripped, &block_aliases(bound), &HashSet::new()) {
            return Ok(None);
        }
        Ok(Some((keys, stripped, bound_stripped)))
    }

    /// NDV of a column reference resolved in the given block, capped by the
    /// rows it arrives with.
    fn ref_ndv(
        &self,
        estimator: &Estimator,
        bound: &BoundQuery,
        col: &ColumnRef,
        arriving_rows: f64,
    ) -> usize {
        col.qualifier
            .as_deref()
            .and_then(|q| bound.table_of_alias(q))
            .map(|t| estimator.table_column_ndv(t, &col.column, arriving_rows))
            .unwrap_or_else(|| arriving_rows.ceil().max(1.0) as usize)
    }

    /// The probe side of an `IN`, when it is a plain column the hash key can
    /// address: its position in the attachment columns and its reference.
    fn hashable_probe(
        &self,
        outer_expr: &Expr,
        columns: &[ColumnInfo],
        bound: &BoundQuery,
    ) -> Option<(usize, ColumnRef)> {
        let Expr::Column(c) = outer_expr else {
            return None;
        };
        let alias = ref_alias(c, bound)?;
        let pos = columns
            .iter()
            .position(|col| col.matches(Some(alias), &c.column))?;
        Some((pos, qualified(c, alias)))
    }

    /// The single projected column of an `IN` subquery, if it is a column.
    fn projected_column(&self, sub: &SelectStatement) -> Option<ColumnRef> {
        match sub.projection.as_slice() {
            [SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            }] => Some(c.clone()),
            _ => None,
        }
    }

    /// Declared type of an `IN` subquery's single projected expression,
    /// seeing through the aggregate functions whose result type is known.
    fn projected_type(&self, sub: &SelectStatement, bound_sub: &BoundQuery) -> Option<DataType> {
        let [SelectItem::Expr { expr, .. }] = sub.projection.as_slice() else {
            return None;
        };
        self.expr_type(expr, bound_sub)
    }

    fn expr_type(&self, expr: &Expr, bound: &BoundQuery) -> Option<DataType> {
        match expr {
            Expr::Column(c) => self.column_ref_type(bound, c),
            Expr::Aggregate { func, arg, .. } => match func {
                AggregateFunction::Count => Some(DataType::Integer),
                AggregateFunction::Avg => Some(DataType::Float),
                AggregateFunction::Min | AggregateFunction::Max => {
                    arg.as_deref().and_then(|a| self.expr_type(a, bound))
                }
                // SUM over integers stays integral; over floats the result
                // representation is value-dependent, so don't hash on it.
                AggregateFunction::Sum => {
                    match arg.as_deref().and_then(|a| self.expr_type(a, bound)) {
                        Some(DataType::Integer) => Some(DataType::Integer),
                        _ => None,
                    }
                }
            },
            _ => None,
        }
    }

    fn column_ref_type(&self, bound: &BoundQuery, c: &ColumnRef) -> Option<DataType> {
        let table = bound.table_of_alias(ref_alias(c, bound)?)?;
        let schema = self.db.table(table)?.schema();
        let column = schema
            .columns
            .iter()
            .find(|d| d.name.eq_ignore_ascii_case(&c.column));
        column.map(|d| d.data_type)
    }
}

/// Lower-cased tuple variables of the attachment block — the aliases whose
/// references make a subquery *immediately* correlated.
fn block_aliases(bound: &BoundQuery) -> Vec<String> {
    bound
        .tables
        .iter()
        .map(|t| t.alias.to_lowercase())
        .collect()
}

/// True when the subquery bound as `bound` (or any nested block) references
/// one of the attachment block's tuple variables. `shadowed` carries
/// aliases redefined by blocks between the checked block and the attachment
/// block.
fn correlates_with(bound: &BoundQuery, targets: &[String], shadowed: &HashSet<String>) -> bool {
    for col in &bound.correlated {
        if let Some(alias) = bound.qualifier_of(col) {
            let a = alias.to_lowercase();
            if targets.contains(&a) && !shadowed.contains(&a) {
                return true;
            }
        }
    }
    let mut inner_shadow = shadowed.clone();
    inner_shadow.extend(bound.tables.iter().map(|t| t.alias.to_lowercase()));
    (bound.subqueries.iter()).any(|sub| correlates_with(sub, targets, &inner_shadow))
}

/// Position of a qualified reference in an operator's output columns.
fn position_of(columns: &[ColumnInfo], c: &ColumnRef) -> Option<usize> {
    columns
        .iter()
        .position(|col| col.matches(c.qualifier.as_deref(), &c.column))
}

/// The reference with its resolved qualifier made explicit.
fn qualified(c: &ColumnRef, alias: &str) -> ColumnRef {
    ColumnRef {
        qualifier: Some(alias.to_string()),
        column: c.column.clone(),
    }
}

/// IN, quantified, and scalar subqueries compare against exactly one
/// projected column; anything else is SQL's "subquery has too many
/// columns" error, caught at plan time rather than silently comparing
/// against the first column only.
fn single_column_subquery(sub: &SelectStatement, what: &str) -> Result<(), TalkbackError> {
    if matches!(sub.projection.as_slice(), [SelectItem::Expr { .. }]) {
        Ok(())
    } else {
        Err(TalkbackError::Unsupported(format!(
            "{what} subquery that does not select exactly one column ({})",
            shorten(&sub.to_string())
        )))
    }
}

/// `item` with each aggregate replaced by its value over no rows — 0 for a
/// count, NULL for the rest — or `None` unless literals and binary operators
/// are all that surround them.
fn over_no_rows(item: &Expr) -> Option<Expr> {
    Some(match item {
        Expr::Aggregate { func, .. } => Expr::Literal(match func {
            AggregateFunction::Count => Literal::Integer(0),
            _ => Literal::Null,
        }),
        Expr::Literal(_) => item.clone(),
        Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
            left: Box::new(over_no_rows(left)?),
            op: *op,
            right: Box::new(over_no_rows(right)?),
        },
        _ => return None,
    })
}

fn complex_predicate(conjunct: &Expr) -> TalkbackError {
    TalkbackError::Unsupported(format!(
        "a subquery inside a complex predicate ({})",
        shorten(&conjunct.to_string())
    ))
}

/// A construct an error names, shortened as a decision quotes it.
fn shorten(sql: &str) -> String {
    SqlText::new(sql.to_string(), CONSTRUCT_CHARS, false).to_string()
}
