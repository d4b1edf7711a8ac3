//! Physical lowering: from a join graph plus a chosen join order to an
//! executable [`Plan`] tree, with the optimizer's row estimates attached to
//! every operator (`EXPLAIN ANALYZE` renders them next to the actuals).
//!
//! Subquery conjuncts (stripped from WHERE/HAVING before the join graph was
//! built) are attached here, between the residual filters and the
//! aggregation for WHERE and above the aggregate for HAVING, by delegating
//! to the [`super::subquery`] pass. Column references that do not resolve
//! locally are resolved against the enclosing `ScopeChain` as correlation
//! parameters.

use super::access::{self, literal_value, ScanPath};
use super::cost::{Estimator, JoinOrder};
use super::logical::{ref_alias, JoinGraph, Relation};
use super::subquery::ScopeChain;
use super::{AccessPathKind, PlanDecision};
use crate::error::TalkbackError;
use datastore::exec::{AggExpr, AggFunc, ColumnInfo, Plan, PlanNode};
use datastore::expr::{ArithOp, CmpOp, Expr as PExpr, Param};
use datastore::index::ProbeOrder;
use datastore::stats::DEFAULT_SELECTIVITY;
use datastore::{Database, Value};
use sqlparse::ast::{
    AggregateFunction, BinaryOperator, ColumnRef, Expr, Literal, SelectItem, SelectStatement,
    UnaryOperator,
};
use sqlparse::bind::BoundQuery;

fn resolve_column(
    columns: &[ColumnInfo],
    bound: &BoundQuery,
    col: &ColumnRef,
) -> Result<usize, TalkbackError> {
    let qualifier = ref_alias(col, bound);
    columns
        .iter()
        .position(|c| c.matches(qualifier, &col.column))
        .ok_or_else(|| TalkbackError::Unsupported(format!("cannot resolve column reference {col}")))
}

/// Lower the SPJ + aggregation fragment: scans with pushed predicates, hash
/// joins in the chosen order, residual filters, subquery operators
/// (semi-/anti-joins, scalar subqueries, applies), then
/// aggregation/projection/DISTINCT/ORDER BY/LIMIT. Returns the plan and its
/// output columns.
///
/// `query` must already be stripped of subquery conjuncts — they arrive
/// separately in `where_subs` / `having_subs`. With `project` false (used
/// for semi-/anti-join build sides, where only row *existence* matters),
/// lowering stops after the WHERE layer and exposes the raw FROM columns.
#[allow(clippy::too_many_arguments)]
pub(super) fn lower_select(
    db: &Database,
    query: &SelectStatement,
    bound: &BoundQuery,
    graph: &JoinGraph,
    order: &JoinOrder,
    estimator: &Estimator,
    scopes: &ScopeChain,
    where_subs: &[&Expr],
    having_subs: &[&Expr],
    project: bool,
) -> Result<(Plan, Vec<ColumnInfo>), TalkbackError> {
    let use_indexes = scopes.ctx().options.use_indexes;
    // Access paths chosen per relation, for the ORDER BY elision peephole:
    // (alias, index, sort column the scan's key order satisfies) — only
    // ordered-index scans with at most one unconstrained key column qualify.
    let mut ordered_scans: Vec<(String, String, String)> = Vec::new();
    // Column references per alias for the index-only covering check. `None`
    // means some reference cannot be attributed (a top-level `*`, an
    // unresolvable name), so no scan may drop heap columns.
    let referenced = (use_indexes && project)
        .then(|| referenced_columns(query, graph, bound, where_subs, having_subs))
        .flatten();

    // 1. Scans with pushed predicates (one filter operator per conjunct, so
    //    instrumentation can blame an individual condition), estimates
    //    attached progressively. With `use_indexes`, the most selective
    //    sargable conjunct may become an index probe instead — decided
    //    against the full scan's cost and recorded either way.
    let relation_columns = |rel_idx: usize| -> Result<Vec<ColumnInfo>, TalkbackError> {
        let rel = &graph.relations[rel_idx];
        let schema = db
            .table(&rel.table)
            .ok_or_else(|| {
                TalkbackError::Store(datastore::StoreError::UnknownTable {
                    table: rel.table.clone(),
                })
            })?
            .schema();
        Ok(schema
            .columns
            .iter()
            .map(|c| ColumnInfo::qualified(rel.alias.clone(), c.name.clone()))
            .collect())
    };
    let scan_with_pushdown = |rel_idx: usize,
                              ordered_scans: &mut Vec<(String, String, String)>|
     -> Result<(Plan, Vec<ColumnInfo>), TalkbackError> {
        let rel = &graph.relations[rel_idx];
        // The same trace the enumerator costed with annotates the
        // operators.
        let (base_rows, trace) = estimator.relation_row_trace(rel);
        let path = use_indexes
            .then(|| access::choose_scan_path(db, estimator, rel, base_rows, scopes))
            .flatten();
        let (mut plan, columns, mut rows, consumed, probed) = match path {
            Some(ScanPath::Index(choice)) => {
                // Index-only: every reference to this relation above the
                // scan is answerable from the key columns alone.
                let index_only = choice.ordered
                    && referenced
                        .as_ref()
                        .is_some_and(|refs| covers(refs, rel, choice.key_columns));
                scopes.ctx().record_decision(access::scan_decision(
                    rel, &choice, base_rows, true, index_only,
                ));
                // The scan satisfies an ORDER BY on its first unpinned key
                // column: with the leading columns pinned by equalities,
                // key order breaks ties in row-position order, exactly like
                // the stable sort it would replace.
                if choice.ordered && choice.bounds.eq.len() + 1 >= choice.key_columns.len() {
                    let sort_col = choice.key_columns
                        [choice.bounds.eq.len().min(choice.key_columns.len() - 1)]
                    .clone();
                    ordered_scans.push((rel.alias.clone(), choice.index.to_string(), sort_col));
                }
                let mut plan = Plan::index_scan(
                    rel.table.clone(),
                    rel.alias.clone(),
                    choice.index,
                    choice.bounds,
                )
                .with_estimate(choice.estimated_rows);
                let columns = if index_only {
                    plan = plan.with_index_only();
                    choice
                        .key_columns
                        .iter()
                        .map(|k| ColumnInfo::qualified(rel.alias.clone(), k.clone()))
                        .collect()
                } else {
                    relation_columns(rel_idx)?
                };
                (
                    plan,
                    columns,
                    choice.estimated_rows,
                    choice.consumed_pushed,
                    true,
                )
            }
            Some(ScanPath::FullScan(choice)) => {
                scopes
                    .ctx()
                    .record_decision(access::scan_decision(rel, &choice, base_rows, false, false));
                let plan =
                    Plan::scan(rel.table.clone(), rel.alias.clone()).with_estimate(base_rows);
                (
                    plan,
                    relation_columns(rel_idx)?,
                    base_rows,
                    Vec::new(),
                    false,
                )
            }
            None => {
                let plan =
                    Plan::scan(rel.table.clone(), rel.alias.clone()).with_estimate(base_rows);
                (
                    plan,
                    relation_columns(rel_idx)?,
                    base_rows,
                    Vec::new(),
                    false,
                )
            }
        };
        let stats = db.table_stats(&rel.table);
        for (i, conjunct) in rel.pushed.iter().enumerate() {
            if consumed.contains(&i) {
                continue; // This conjunct became the index bounds.
            }
            // Progressive estimates: on the full-scan path these are the
            // enumerator's own trace numbers; below an index probe the
            // remaining conjuncts scale the probe's output instead.
            rows = match (probed, &stats) {
                (false, _) => trace[i],
                (true, Some(stats)) => {
                    rows * estimator.effective_conjunct_selectivity(rel, stats, conjunct)
                }
                (true, None) => rows,
            };
            // The one place a pushed conjunct becomes an operator: the filter
            // carries the name the estimator looks the conjunct up by.
            plan = plan
                .filter(lower_expr_scoped(conjunct, &columns, bound, Some(scopes))?)
                .with_estimate(rows)
                .with_shape_key(estimator.shape_key(rel, conjunct));
            // A correlated selection that stayed a filter, in a block with
            // joins it could have waited above: say where it went.
            if graph.relations.len() > 1 && conjunct.column_refs().iter().any(|c| rel.is_outer(c)) {
                scopes
                    .ctx()
                    .record_decision(PlanDecision::CorrelatedSelection {
                        alias: rel.alias.clone(),
                        predicate: conjunct.to_string(),
                    });
            }
        }
        Ok((plan, columns))
    };

    // 2. Joins, in the order the enumerator chose. Each step consumes its
    //    connecting equi-join edges as hash keys; a step with no edge falls
    //    back to a cross product and lets the residual filters sort it out.
    //    A single-edge step whose inner side has a point index may become an
    //    index-nested-loop join instead, when the outer side is tiny.
    let (mut plan, mut columns) = scan_with_pushdown(order.steps[0].rel, &mut ordered_scans)?;
    let mut rows = order.steps[0].estimated_rows;
    let mut unresolved_edges: Vec<Expr> = Vec::new();
    for step in &order.steps[1..] {
        let rel = &graph.relations[step.rel];
        // Index-nested-loop candidate: exactly one equi-join edge into a
        // bare, point-indexed inner relation.
        if use_indexes && step.edges.len() == 1 {
            let (far_rel, far_col, near_col) = graph.edges[step.edges[0]].oriented_for(step.rel);
            let far_alias = &graph.relations[far_rel].alias;
            let left_pos = columns
                .iter()
                .position(|c| c.matches(Some(far_alias), far_col));
            if let (Some(probe), Some(left_key)) = (
                access::join_probe_candidate(db, estimator, rel, near_col),
                left_pos,
            ) {
                let inner_rows = estimator.relation_rows(rel);
                let chosen = access::prefer_index_join(rows, inner_rows);
                scopes.ctx().record_decision(PlanDecision::AccessPath {
                    alias: rel.alias.clone(),
                    table: rel.table.clone(),
                    index: probe.index.clone(),
                    column: probe.column.clone(),
                    kind: AccessPathKind::NestedLoopProbe,
                    estimated_rows: rows,
                    table_rows: inner_rows,
                    chosen,
                    ratio: access::INDEX_PROBE_ROW_COST,
                    parameterized: false,
                    index_only: false,
                });
                if chosen {
                    let right_columns = relation_columns(step.rel)?;
                    plan = Plan::index_nested_loop_join(
                        plan,
                        rel.table.clone(),
                        rel.alias.clone(),
                        probe.index,
                        left_key,
                    )
                    .with_estimate(step.estimated_rows);
                    rows = step.estimated_rows;
                    columns.extend(right_columns);
                    continue;
                }
            }
        }
        let (right_plan, right_columns) = scan_with_pushdown(step.rel, &mut ordered_scans)?;
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for &ei in &step.edges {
            let (far_rel, far_col, near_col) = graph.edges[ei].oriented_for(step.rel);
            let far_alias = &graph.relations[far_rel].alias;
            let left_pos = columns
                .iter()
                .position(|c| c.matches(Some(far_alias), far_col));
            let right_pos = right_columns
                .iter()
                .position(|c| c.matches(Some(&rel.alias), near_col));
            match (left_pos, right_pos) {
                (Some(lp), Some(rp)) => {
                    left_keys.push(lp);
                    right_keys.push(rp);
                }
                // The logical layer resolved these columns against the
                // schema, so this is unreachable in practice; keep the
                // predicate as a residual equality rather than lose it.
                _ => unresolved_edges.push(Expr::col_eq(
                    ColumnRef {
                        qualifier: Some(far_alias.clone()),
                        column: far_col.to_string(),
                    },
                    ColumnRef {
                        qualifier: Some(rel.alias.clone()),
                        column: near_col.to_string(),
                    },
                )),
            }
        }
        plan = if left_keys.is_empty() {
            Plan::nested_loop_join(plan, right_plan, None)
        } else {
            Plan::hash_join(plan, right_plan, left_keys, right_keys)
        }
        .with_estimate(step.estimated_rows);
        rows = step.estimated_rows;
        columns.extend(right_columns);
    }

    // 3. Residual predicates (cross-variable non-equi conjuncts, mixed-type
    //    equalities, predicates over enclosing blocks only, …) above the
    //    joins.
    for conjunct in &graph.residual {
        rows *= DEFAULT_SELECTIVITY;
        plan = plan
            .filter(lower_expr_scoped(conjunct, &columns, bound, Some(scopes))?)
            .with_estimate(rows);
    }
    for conjunct in &unresolved_edges {
        rows *= DEFAULT_SELECTIVITY;
        plan = plan
            .filter(lower_expr_scoped(conjunct, &columns, bound, Some(scopes))?)
            .with_estimate(rows);
    }

    // 3b. WHERE subquery conjuncts, each as a dedicated operator
    //     (semi-/anti-join, scalar subquery, or apply) chosen by the
    //     decorrelation pass.
    for conjunct in where_subs {
        let (attached, new_rows) = scopes
            .ctx()
            .attach_where(estimator, plan, &columns, bound, conjunct, scopes, rows)?;
        plan = attached;
        rows = new_rows;
    }
    if !project {
        // Semi-/anti-join build sides stop here: existence checks need the
        // raw FROM columns (for join keys), not the projection.
        return Ok((plan, columns));
    }

    // 4. Aggregation or plain projection. Either way, track the output
    //    column descriptors so ORDER BY can be resolved against them.
    let mut output_columns: Vec<ColumnInfo>;
    if query.is_aggregate() || !having_subs.is_empty() {
        if !query.is_aggregate() {
            return Err(TalkbackError::Unsupported(
                "a HAVING subquery without GROUP BY or aggregates".into(),
            ));
        }
        plan = lower_aggregate(query, bound, plan, &columns, having_subs, scopes)?;
        let mut group_ndv = 1.0_f64;
        let (group_by, aggregates) = match &plan.node {
            PlanNode::Aggregate {
                group_by,
                aggregates,
                ..
            } => (group_by.clone(), aggregates.clone()),
            _ => (Vec::new(), Vec::new()),
        };
        for &g in group_by.iter() {
            group_ndv *= column_ndv(db, graph, &columns[g]);
        }
        if group_by.is_empty() {
            // A scalar aggregate produces exactly one row.
            group_ndv = 1.0;
        }
        output_columns =
            datastore::exec::aggregate_output_columns(&columns, &group_by, &aggregates);
        rows = group_ndv.min(rows.max(1.0));
        plan = plan.with_estimate(rows);
        // 4b. HAVING subquery conjuncts, attached above the aggregate; the
        //     outer side of each predicate reads the aggregate output row.
        for conjunct in having_subs {
            let (attached, new_rows) = scopes.ctx().attach_having(
                estimator,
                plan,
                &output_columns,
                &group_by,
                &aggregates,
                &columns,
                bound,
                conjunct,
                scopes,
                rows,
            )?;
            plan = attached;
            rows = new_rows;
        }
        // 4c. An item computed over a group (`count(*) + 1`) is evaluated
        //     above the aggregate, whose own output is columns and aggregates.
        let computed = |e: &Expr| !matches!(e, Expr::Column(_) | Expr::Aggregate { .. });
        let item = |i: &SelectItem| matches!(i, SelectItem::Expr { expr, .. } if computed(expr));
        if query.projection.iter().any(item) {
            let lower = |e: &Expr| lower_having(e, &group_by, &aggregates, &columns, bound);
            let (exprs, named) = lower_projection(query, &output_columns, bound, &lower)?;
            plan = plan.project(exprs, named.clone()).with_estimate(rows);
            output_columns = named;
        }
    } else {
        let lower = |e: &Expr| lower_expr_scoped(e, &columns, bound, Some(scopes));
        let (exprs, out_columns) = lower_projection(query, &columns, bound, &lower)?;
        output_columns = out_columns.clone();
        plan = plan.project(exprs, out_columns).with_estimate(rows);
    }

    // 5. DISTINCT / ORDER BY / LIMIT over the projected output.
    if query.distinct {
        plan = plan.distinct().with_estimate(rows);
    }
    if !query.order_by.is_empty() {
        // Order keys are resolved against the projected (or aggregated)
        // output by name when possible, otherwise unsupported.
        let mut keys = Vec::new();
        for item in &query.order_by {
            if let Expr::Column(c) = &item.expr {
                if let Some(pos) = output_columns
                    .iter()
                    .position(|col| col.matches(c.qualifier.as_deref(), &c.column))
                {
                    keys.push(datastore::exec::SortKey {
                        column: pos,
                        ascending: item.ascending,
                    });
                    continue;
                }
            }
            return Err(TalkbackError::Unsupported(format!(
                "ORDER BY expression {} is not in the SELECT list",
                item.expr
            )));
        }
        // Peephole: a single-table query ordered by the very column an
        // ordered-index scan probes already arrives in that order — ask the
        // scan for key-ordered output (ascending or descending) and skip
        // the sort. Safe in both directions: key order breaks ties in
        // row-position order, exactly like the stable sort it replaces, and
        // `ordered_scans` only lists scans whose single unpinned key column
        // is the sort column.
        let elidable = graph.relations.len() == 1
            && where_subs.is_empty()
            && !query.is_aggregate()
            && having_subs.is_empty()
            && keys.len() == 1;
        let ordered_source = elidable
            .then(|| {
                let sorted_on = &output_columns[keys[0].column];
                ordered_scans.iter().find(|(alias, _, column)| {
                    sorted_on.qualifier.as_deref().map(str::to_ascii_lowercase)
                        == Some(alias.to_ascii_lowercase())
                        && sorted_on.name.eq_ignore_ascii_case(column)
                })
            })
            .flatten();
        if let Some((alias, index, column)) = ordered_source {
            set_key_order(&mut plan, keys[0].ascending);
            scopes.ctx().record_decision(PlanDecision::SortElided {
                alias: alias.clone(),
                table: graph.relations[0].table.clone(),
                index: index.clone(),
                column: column.clone(),
                ascending: keys[0].ascending,
            });
        } else {
            // A LIMIT above the sort bounds what the sort hands on: a top-k
            // plan emits at most k rows, so everything downstream (and the
            // misestimate flagging) should be charged min(k, input), not the
            // full sort output.
            let sort_rows = match query.limit {
                Some(limit) => rows.min(limit as f64),
                None => rows,
            };
            plan = plan.sort(keys).with_estimate(sort_rows);
        }
    }
    if let Some(limit) = query.limit {
        rows = rows.min(limit as f64);
        plan = plan.limit(limit as usize).with_estimate(rows);
    }
    Ok((plan, output_columns))
}

/// Switch the index scan at the bottom of a single-table operator chain to
/// key-ordered output in the requested direction (the ORDER BY elision
/// peephole; descending is a reverse key walk). Only called on plans whose
/// spine is filter/project/distinct over the scan.
fn set_key_order(plan: &mut Plan, ascending: bool) {
    match &mut plan.node {
        PlanNode::IndexScan { order, .. } => {
            *order = if ascending {
                ProbeOrder::KeyAsc
            } else {
                ProbeOrder::KeyDesc
            }
        }
        PlanNode::Filter { .. } | PlanNode::Project { .. } | PlanNode::Distinct { .. } => {
            for (_, input) in plan.children_mut() {
                set_key_order(input, ascending);
            }
        }
        _ => {} // Unreachable given the peephole's preconditions.
    }
}

/// Column references attributed per relation alias (both lower-cased), for the
/// index-only covering check: everything the plan touches *above* a scan —
/// projection, ORDER/GROUP BY, HAVING, every filter conjunct, join edges,
/// and subquery bodies (whose correlated references resolve against this
/// block's columns at attachment time). `None` when some reference cannot
/// be attributed — a top-level `*` or an unresolvable name — in which case
/// no scan may drop heap columns. Over-collection is harmless (it only
/// blocks the optimization); under-collection would be unsound.
fn referenced_columns(
    query: &SelectStatement,
    graph: &JoinGraph,
    bound: &BoundQuery,
    where_subs: &[&Expr],
    having_subs: &[&Expr],
) -> Option<Vec<(String, Vec<String>)>> {
    let mut refs = RefCollector {
        bound,
        map: Vec::new(),
        fatal: false,
    };
    for item in &query.projection {
        match item {
            // `*` needs every column of every relation.
            SelectItem::Wildcard => refs.fatal = true,
            SelectItem::QualifiedWildcard(q) => refs.wildcard(q),
            SelectItem::Expr { expr, .. } => refs.expr(expr),
        }
    }
    if let Some(w) = &query.selection {
        refs.expr(w);
    }
    for g in &query.group_by {
        refs.expr(g);
    }
    if let Some(h) = &query.having {
        refs.expr(h);
    }
    for o in &query.order_by {
        refs.expr(&o.expr);
    }
    for e in where_subs.iter().chain(having_subs) {
        refs.expr(e);
    }
    for edge in &graph.edges {
        refs.edge(&graph.relations[edge.left_rel].alias, &edge.left_column);
        refs.edge(&graph.relations[edge.right_rel].alias, &edge.right_column);
    }
    for rel in &graph.relations {
        for conjunct in &rel.pushed {
            refs.expr(conjunct);
        }
    }
    for conjunct in &graph.residual {
        refs.expr(conjunct);
    }
    (!refs.fatal).then_some(refs.map)
}

/// True when every collected reference to `rel` is one of the index's key
/// columns — the covering condition for an index-only scan.
fn covers(refs: &[(String, Vec<String>)], rel: &Relation, key_columns: &[String]) -> bool {
    match refs
        .iter()
        .find(|(alias, _)| is_lower_case_of(alias, &rel.alias))
    {
        None => true, // Nothing above the scan touches this relation.
        Some((_, cols)) => {
            !cols.iter().any(|c| c == "*")
                && cols
                    .iter()
                    .all(|c| key_columns.iter().any(|k| k.eq_ignore_ascii_case(c)))
        }
    }
}

/// `lower == name.to_lowercase()`, compared in place for an ASCII name
/// (`lower` holds no ASCII upper case, so ASCII folding is exact there).
fn is_lower_case_of(lower: &str, name: &str) -> bool {
    if name.is_ascii() {
        lower.eq_ignore_ascii_case(name)
    } else {
        lower == name.to_lowercase()
    }
}

struct RefCollector<'a> {
    bound: &'a BoundQuery,
    /// Lower-cased aliases, each with the lower-cased columns read of it.
    map: Vec<(String, Vec<String>)>,
    fatal: bool,
}

impl RefCollector<'_> {
    fn add(&mut self, c: &ColumnRef) {
        // References qualified by a subquery's own alias land in map entries
        // no block relation matches — harmless. A sub-local unqualified name
        // that happens to resolve against this block is attributed here:
        // over-collection, still sound.
        match ref_alias(c, self.bound) {
            Some(q) => self.edge(q, &c.column),
            None => self.fatal = true,
        }
    }

    fn edge(&mut self, alias: &str, column: &str) {
        let columns = self.columns_of(alias);
        if !columns.iter().any(|c| is_lower_case_of(c, column)) {
            columns.push(column.to_lowercase());
        }
    }

    /// `alias.*` needs every column of that relation.
    fn wildcard(&mut self, alias: &str) {
        let columns = self.columns_of(alias);
        if !columns.iter().any(|c| c == "*") {
            columns.push("*".into());
        }
    }

    fn columns_of(&mut self, alias: &str) -> &mut Vec<String> {
        let at = match self
            .map
            .iter()
            .position(|(a, _)| is_lower_case_of(a, alias))
        {
            Some(at) => at,
            None => {
                self.map.push((alias.to_lowercase(), Vec::new()));
                self.map.len() - 1
            }
        };
        &mut self.map[at].1
    }

    fn expr(&mut self, e: &Expr) {
        e.walk(&mut |e| {
            if let Expr::Column(c) = e {
                self.add(c);
            }
        });
        // `walk` stops at subquery boundaries; descend into the bodies by
        // hand — their correlated references read this block's columns.
        for s in e.subqueries() {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &SelectStatement) {
        let own = s.tuple_variables();
        for item in &s.projection {
            match item {
                // A subquery's `*` expands over its own FROM only.
                SelectItem::Wildcard => {}
                SelectItem::QualifiedWildcard(q)
                    if own.iter().any(|v| v.eq_ignore_ascii_case(q)) => {}
                SelectItem::QualifiedWildcard(q) => self.wildcard(q),
                SelectItem::Expr { expr, .. } => self.expr(expr),
            }
        }
        if let Some(w) = &s.selection {
            self.expr(w);
        }
        for g in &s.group_by {
            self.expr(g);
        }
        if let Some(h) = &s.having {
            self.expr(h);
        }
        for o in &s.order_by {
            self.expr(&o.expr);
        }
    }
}

/// NDV of a (qualified) joined-output column, from the owning relation's
/// statistics; 1 when unknown.
fn column_ndv(db: &Database, graph: &JoinGraph, column: &ColumnInfo) -> f64 {
    let Some(qualifier) = column.qualifier.as_deref() else {
        return 1.0;
    };
    graph
        .relations
        .iter()
        .find(|r| r.alias.eq_ignore_ascii_case(qualifier))
        .and_then(|r| db.table_stats(&r.table))
        .map(|s| s.ndv(&column.name).max(1) as f64)
        .unwrap_or(1.0)
}

/// Positions of the joined-output columns in the order the FROM clause
/// lists the relations — `SELECT *` expands in written order even when the
/// join tree was reordered.
fn from_order_positions(bound: &BoundQuery, columns: &[ColumnInfo]) -> Vec<usize> {
    let mut out = Vec::with_capacity(columns.len());
    for table in &bound.tables {
        for (i, c) in columns.iter().enumerate() {
            if c.qualifier
                .as_deref()
                .map(|q| q.eq_ignore_ascii_case(&table.alias))
                == Some(true)
            {
                out.push(i);
            }
        }
    }
    out
}

/// The SELECT list over `columns`, each item lowered by `lower`.
fn lower_projection(
    query: &SelectStatement,
    columns: &[ColumnInfo],
    bound: &BoundQuery,
    lower: &dyn Fn(&Expr) -> Result<PExpr, TalkbackError>,
) -> Result<(Vec<PExpr>, Vec<ColumnInfo>), TalkbackError> {
    let mut exprs = Vec::new();
    let mut out_columns = Vec::new();
    for item in &query.projection {
        match item {
            SelectItem::Wildcard => {
                for i in from_order_positions(bound, columns) {
                    exprs.push(PExpr::Column(i));
                    out_columns.push(columns[i].clone());
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                for (i, c) in columns.iter().enumerate() {
                    if c.qualifier.as_deref().map(|x| x.eq_ignore_ascii_case(q)) == Some(true) {
                        exprs.push(PExpr::Column(i));
                        out_columns.push(c.clone());
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                let lowered = lower(expr)?;
                let name = match (alias, expr) {
                    (Some(a), _) => ColumnInfo::unqualified(a.clone()),
                    (None, Expr::Column(c)) => ColumnInfo {
                        qualifier: ref_alias(c, bound).map(str::to_string),
                        name: c.column.clone(),
                    },
                    (None, other) => ColumnInfo::unqualified(other.to_string()),
                };
                exprs.push(lowered);
                out_columns.push(name);
            }
        }
    }
    Ok((exprs, out_columns))
}

fn lower_aggregate(
    query: &SelectStatement,
    bound: &BoundQuery,
    input: Plan,
    columns: &[ColumnInfo],
    having_subs: &[&Expr],
    scopes: &ScopeChain,
) -> Result<Plan, TalkbackError> {
    // Group-by keys must be plain column references for this substrate.
    let mut group_by = Vec::new();
    for g in &query.group_by {
        match g {
            Expr::Column(c) => group_by.push(resolve_column(columns, bound, c)?),
            other => {
                return Err(TalkbackError::Unsupported(format!(
                    "GROUP BY expression {other}"
                )))
            }
        }
    }
    // Aggregate expressions come from the SELECT list and from HAVING.
    let mut aggregates: Vec<AggExpr> = Vec::new();
    let mut collect_aggs = |expr: &Expr| -> Result<(), TalkbackError> {
        let mut found: Vec<(AggregateFunction, Option<Expr>, bool)> = Vec::new();
        expr.walk(&mut |e| {
            if let Expr::Aggregate {
                func,
                arg,
                distinct,
            } = e
            {
                found.push((*func, arg.as_deref().cloned(), *distinct));
            }
        });
        for (func, arg, distinct) in found {
            let lowered_arg = match &arg {
                None => None,
                Some(a) => Some(lower_expr_scoped(a, columns, bound, Some(scopes))?),
            };
            let name = render_aggregate_name(func, &arg, distinct);
            if aggregates.iter().any(|a| a.output_name == name) {
                continue;
            }
            let agg_func = match (func, distinct) {
                (AggregateFunction::Count, true) => AggFunc::CountDistinct,
                (AggregateFunction::Count, false) => AggFunc::Count,
                (AggregateFunction::Sum, _) => AggFunc::Sum,
                (AggregateFunction::Avg, _) => AggFunc::Avg,
                (AggregateFunction::Min, _) => AggFunc::Min,
                (AggregateFunction::Max, _) => AggFunc::Max,
            };
            aggregates.push(AggExpr {
                func: agg_func,
                arg: lowered_arg,
                output_name: name,
            });
        }
        Ok(())
    };
    for item in &query.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggs(expr)?;
        }
    }
    if let Some(h) = &query.having {
        // The subquery pass already stripped subquery conjuncts (they
        // execute as operators above this aggregate); what remains lowers
        // directly.
        collect_aggs(h)?;
    }
    for conjunct in having_subs {
        // The outer side of `count(*) > (SELECT …)` references aggregates
        // too; collect them so the attachment can resolve them. The walk
        // does not descend into the subquery bodies.
        collect_aggs(conjunct)?;
    }

    // The aggregate's output row is [group_by columns..., aggregates...];
    // HAVING is evaluated over that row.
    let having = match &query.having {
        Some(h) => Some(lower_having(h, &group_by, &aggregates, columns, bound)?),
        None => None,
    };
    Ok(input.aggregate(group_by, aggregates, having))
}

fn render_aggregate_name(func: AggregateFunction, arg: &Option<Expr>, distinct: bool) -> String {
    let inner = match arg {
        None => "*".to_string(),
        Some(e) => e.to_string(),
    };
    if distinct {
        format!("{}(DISTINCT {})", func.sql(), inner)
    } else {
        format!("{}({})", func.sql(), inner)
    }
}

/// Lower a HAVING predicate or operand over the aggregate *output* row
/// (group-by columns first, then aggregate results). Shared with the
/// subquery pass, whose HAVING attachments compare aggregate outputs
/// against subquery results.
pub(super) fn lower_having(
    expr: &Expr,
    group_by: &[usize],
    aggregates: &[AggExpr],
    columns: &[ColumnInfo],
    bound: &BoundQuery,
) -> Result<PExpr, TalkbackError> {
    match expr {
        Expr::Literal(l) => Ok(PExpr::Literal(literal_value(l))),
        Expr::Param(k) => Ok(PExpr::Param(Param::Stmt(*k))),
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            let name = render_aggregate_name(*func, &arg.as_deref().cloned(), *distinct);
            let pos = aggregates
                .iter()
                .position(|a| a.output_name == name)
                .ok_or_else(|| {
                    TalkbackError::Unsupported(format!(
                        "HAVING references unknown aggregate {name}"
                    ))
                })?;
            Ok(PExpr::Column(group_by.len() + pos))
        }
        Expr::Column(c) => {
            let source = resolve_column(columns, bound, c)?;
            let pos = group_by.iter().position(|&g| g == source).ok_or_else(|| {
                TalkbackError::Unsupported(format!("HAVING references non-grouped column {c}"))
            })?;
            Ok(PExpr::Column(pos))
        }
        Expr::BinaryOp { left, op, right } => binary(
            *op,
            lower_having(left, group_by, aggregates, columns, bound)?,
            lower_having(right, group_by, aggregates, columns, bound)?,
        ),
        Expr::UnaryOp { op, expr } => Ok(unary(
            *op,
            lower_having(expr, group_by, aggregates, columns, bound)?,
        )),
        other => Err(TalkbackError::Unsupported(format!(
            "HAVING operand {other}"
        ))),
    }
}

/// `l <op> r` over lowered operands: a connective, arithmetic or a
/// comparison.
fn binary(op: BinaryOperator, l: PExpr, r: PExpr) -> Result<PExpr, TalkbackError> {
    let (l, r) = (Box::new(l), Box::new(r));
    let arith = |op| PExpr::Arith {
        op,
        left: l.clone(),
        right: r.clone(),
    };
    Ok(match op {
        BinaryOperator::And => PExpr::And(l, r),
        BinaryOperator::Or => PExpr::Or(l, r),
        BinaryOperator::Plus => arith(ArithOp::Add),
        BinaryOperator::Minus => arith(ArithOp::Sub),
        BinaryOperator::Multiply => arith(ArithOp::Mul),
        BinaryOperator::Divide => arith(ArithOp::Div),
        cmp => PExpr::Compare {
            op: comparison_op(cmp).ok_or_else(|| not_a_comparison(cmp))?,
            left: l,
            right: r,
        },
    })
}

/// `<op> inner` over a lowered operand.
fn unary(op: UnaryOperator, inner: PExpr) -> PExpr {
    match op {
        UnaryOperator::Not => PExpr::Not(Box::new(inner)),
        UnaryOperator::Minus => PExpr::Arith {
            op: ArithOp::Sub,
            left: Box::new(PExpr::Literal(Value::Integer(0))),
            right: Box::new(inner),
        },
        UnaryOperator::Plus => inner,
    }
}

/// Map a SQL comparison operator to the runtime one; `None` for the logical
/// and arithmetic operators, which callers report with
/// [`not_a_comparison`] rather than comparing for equality or panicking.
pub(super) fn comparison_op(op: BinaryOperator) -> Option<CmpOp> {
    match op {
        BinaryOperator::Eq => Some(CmpOp::Eq),
        BinaryOperator::NotEq => Some(CmpOp::NotEq),
        BinaryOperator::Lt => Some(CmpOp::Lt),
        BinaryOperator::LtEq => Some(CmpOp::LtEq),
        BinaryOperator::Gt => Some(CmpOp::Gt),
        BinaryOperator::GtEq => Some(CmpOp::GtEq),
        _ => None,
    }
}

pub(super) fn not_a_comparison(op: BinaryOperator) -> TalkbackError {
    TalkbackError::Unsupported(format!("`{}` where a comparison is expected", op.sql()))
}

/// Lower a scalar/boolean expression over the joined FROM row, with no
/// enclosing scopes (top-level contexts and external callers).
pub fn lower_expr(
    expr: &Expr,
    columns: &[ColumnInfo],
    bound: &BoundQuery,
) -> Result<PExpr, TalkbackError> {
    lower_expr_scoped(expr, columns, bound, None)
}

/// Lower a scalar/boolean expression over the joined FROM row. A column
/// reference that does not resolve locally is resolved against the
/// enclosing scopes (innermost first) as a correlation value —
/// [`Param::Outer`] — which the owning `Apply` operator binds per row.
pub(super) fn lower_expr_scoped(
    expr: &Expr,
    columns: &[ColumnInfo],
    bound: &BoundQuery,
    scopes: Option<&ScopeChain>,
) -> Result<PExpr, TalkbackError> {
    let lower_expr =
        |expr: &Expr, columns: &[ColumnInfo], bound: &BoundQuery| -> Result<PExpr, TalkbackError> {
            lower_expr_scoped(expr, columns, bound, scopes)
        };
    match expr {
        Expr::Column(c) => match resolve_column(columns, bound, c) {
            Ok(i) => Ok(PExpr::Column(i)),
            Err(unresolved) => scopes
                .and_then(|s| s.resolve_param(ref_alias(c, bound), &c.column))
                .map(PExpr::Param)
                .ok_or(unresolved),
        },
        Expr::Literal(l) => Ok(PExpr::Literal(literal_value(l))),
        // A plan-cache placeholder is a statement parameter: a hit binds the
        // statement's literal when it rewinds the template's tree, and no
        // Apply's per-row binding can reach it.
        Expr::Param(k) => Ok(PExpr::Param(Param::Stmt(*k))),
        Expr::BinaryOp { left, op, right } => binary(
            *op,
            lower_expr(left, columns, bound)?,
            lower_expr(right, columns, bound)?,
        ),
        Expr::UnaryOp { op, expr } => Ok(unary(*op, lower_expr(expr, columns, bound)?)),
        Expr::IsNull { expr, negated } => {
            let inner = PExpr::IsNull(Box::new(lower_expr(expr, columns, bound)?));
            Ok(if *negated {
                PExpr::Not(Box::new(inner))
            } else {
                inner
            })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let inner = lower_expr(expr, columns, bound)?;
            let mut values = Vec::new();
            for item in list {
                match item {
                    Expr::Literal(l) => values.push(literal_value(l)),
                    other => {
                        return Err(TalkbackError::Unsupported(format!(
                            "non-literal IN list element {other}"
                        )))
                    }
                }
            }
            let in_list = PExpr::InList {
                expr: Box::new(inner),
                list: values,
            };
            Ok(if *negated {
                PExpr::Not(Box::new(in_list))
            } else {
                in_list
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let e = lower_expr(expr, columns, bound)?;
            let lo = lower_expr(low, columns, bound)?;
            let hi = lower_expr(high, columns, bound)?;
            let between = PExpr::And(
                Box::new(PExpr::Compare {
                    op: CmpOp::GtEq,
                    left: Box::new(e.clone()),
                    right: Box::new(lo),
                }),
                Box::new(PExpr::Compare {
                    op: CmpOp::LtEq,
                    left: Box::new(e),
                    right: Box::new(hi),
                }),
            );
            Ok(if *negated {
                PExpr::Not(Box::new(between))
            } else {
                between
            })
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let e = lower_expr(expr, columns, bound)?;
            let pattern = match pattern.as_ref() {
                Expr::Literal(Literal::String(s)) => s.clone(),
                other => {
                    return Err(TalkbackError::Unsupported(format!(
                        "non-literal LIKE pattern {other}"
                    )))
                }
            };
            let like = PExpr::Like {
                expr: Box::new(e),
                pattern,
            };
            Ok(if *negated {
                PExpr::Not(Box::new(like))
            } else {
                like
            })
        }
        Expr::Aggregate { .. } => Err(TalkbackError::Unsupported(
            "aggregate outside of an aggregate context".into(),
        )),
        // Top-level subquery conjuncts are routed through the subquery pass
        // before lowering; one that reaches this point is nested inside a
        // larger expression (an OR branch, an arithmetic operand, …), which
        // no strategy covers — name the construct precisely.
        Expr::InSubquery { .. }
        | Expr::Exists { .. }
        | Expr::QuantifiedComparison { .. }
        | Expr::ScalarSubquery(_) => Err(TalkbackError::Unsupported(format!(
            "a subquery nested inside a larger expression ({expr})"
        ))),
    }
}
