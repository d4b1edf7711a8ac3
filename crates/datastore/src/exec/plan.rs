//! Physical query plans.
//!
//! Plans are deliberately simple trees: the goal of this substrate is
//! correctness and observability (the explainer wants to know which operator
//! filtered everything out), not query-optimizer sophistication.
//!
//! Subqueries execute through four dedicated operators, from cheapest to
//! most general: [`PlanNode::HashSemiJoin`] (decorrelated `EXISTS` / `IN`),
//! [`PlanNode::HashAntiJoin`] (decorrelated `NOT EXISTS`, and `NOT IN` in
//! its NULL-aware variant), [`PlanNode::ScalarSubquery`] (a scalar, or a
//! correlated aggregate grouped by its keys, evaluated once and cached), and
//! [`PlanNode::Apply`] (the fallback that re-runs a correlated subplan per
//! distinct binding of its [`Param::Outer`] correlation values: the subplan
//! is opened once and rewound with each binding, and the answers are cached
//! per binding).

use crate::exec::aggregate::AggExpr;
use crate::expr::{CmpOp, Expr, Param, ParamLookup};
use crate::fingerprint::ShapeKey;
use crate::index::{IndexBounds, ProbeOrder};
use crate::tuple::Row;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A named output column of a plan node, carrying the relation alias it came
/// from so projections can be resolved by qualified name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnInfo {
    /// Relation alias (tuple variable) the column belongs to, if any.
    pub qualifier: Option<String>,
    /// Column (or computed expression) name.
    pub name: String,
}

impl ColumnInfo {
    /// Column with a qualifier, e.g. `m.title`.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> ColumnInfo {
        ColumnInfo {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Column without a qualifier (computed expressions, aggregate outputs).
    pub fn unqualified(name: impl Into<String>) -> ColumnInfo {
        ColumnInfo {
            qualifier: None,
            name: name.into(),
        }
    }

    /// True if this column matches a possibly-qualified reference.
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match (qualifier, &self.qualifier) {
            (None, _) => true,
            (Some(q), Some(mine)) => mine.eq_ignore_ascii_case(q),
            (Some(_), None) => false,
        }
    }
}

impl fmt::Display for ColumnInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{}.{}", q, self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// An operator's output columns, shared: the operators that hand their
/// input's rows on, the profile and the result set all point at one list.
pub type Columns = Arc<[ColumnInfo]>;

/// A stored table, or an index's key, as one tuple variable reads it: the
/// table as the plan spells it, the alias, and the columns qualified by it.
#[derive(Debug)]
pub(crate) struct Relation {
    pub(crate) table: Box<str>,
    pub(crate) alias: Box<str>,
    pub(crate) columns: Columns,
}

impl fmt::Display for Relation {
    /// `TABLE`, or `TABLE as alias` when the tuple variable has its own name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table)?;
        if self.alias != self.table {
            write!(f, " as {}", self.alias)?;
        }
        Ok(())
    }
}

/// The [`Relation`]s a table or an index has been read as, made on first use
/// and shared by every scan opened under the same spelling and alias after
/// it — and by the copies a write makes of the table — so opening a scan
/// copies no column name. The newest sixteen are kept.
#[derive(Debug, Default)]
pub(crate) struct RelationMemo(Mutex<VecDeque<Arc<Relation>>>);

impl RelationMemo {
    /// `table as alias`, whose columns are `names`.
    pub(crate) fn get<'n>(
        &self,
        table: &str,
        alias: &str,
        names: impl Iterator<Item = &'n str>,
    ) -> Arc<Relation> {
        let mut memo = self.0.lock().expect("relation memo lock");
        let known = memo
            .iter()
            .find(|r| *r.table == *table && *r.alias == *alias);
        if let Some(known) = known {
            return Arc::clone(known);
        }
        let columns = names
            .map(|name| ColumnInfo::qualified(alias, name))
            .collect();
        let (table, alias) = (table.into(), alias.into());
        let relation = Arc::new(Relation {
            table,
            alias,
            columns,
        });
        if memo.len() == 16 {
            memo.pop_front();
        }
        memo.push_back(Arc::clone(&relation));
        relation
    }
}

/// Output columns of a [`PlanNode::Aggregate`] node over the given input
/// columns: the group-by columns first (falling back to a synthetic
/// `group_{i}` name for unresolvable positions), then one unqualified column
/// per aggregate. The executor and the planner's ORDER BY resolution both
/// derive the aggregate output shape from this single definition.
pub fn aggregate_output_columns(
    input: &[ColumnInfo],
    group_by: &[usize],
    aggregates: &[AggExpr],
) -> Vec<ColumnInfo> {
    let mut out: Vec<ColumnInfo> = group_by
        .iter()
        .map(|&i| {
            input
                .get(i)
                .cloned()
                .unwrap_or_else(|| ColumnInfo::unqualified(format!("group_{i}")))
        })
        .collect();
    out.extend(
        aggregates
            .iter()
            .map(|a| ColumnInfo::unqualified(a.output_name.clone())),
    );
    out
}

/// A sort key: output column position plus direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub column: usize,
    pub ascending: bool,
}

/// How a [`PlanNode::Exchange`] reassembles per-morsel worker output.
///
/// Every mode gathers in morsel order, so the result is byte-identical to
/// the single-threaded run at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub enum GatherMode {
    /// Concatenate worker outputs in morsel order (plain pipelines).
    Rows,
    /// Parallel GROUP BY: each worker hash-aggregates its morsel locally
    /// and ships the partial group states; the gather merges them in morsel
    /// order, reproducing the sequential first-encounter group order.
    MergeAggregate {
        group_by: Vec<usize>,
        aggregates: Vec<AggExpr>,
        /// HAVING predicate over the merged aggregate output row.
        having: Option<Expr>,
        /// Accumulate through the typed vector kernels where possible.
        vectorized: bool,
    },
    /// Parallel ORDER BY: each worker sorts its morsel; the gather merges
    /// the sorted runs into one total order.
    MergeSort { keys: Vec<SortKey> },
    /// Top-k pushdown for `ORDER BY … LIMIT k`: each worker sorts its
    /// morsel and keeps only its first `limit` rows, so no one ever
    /// materializes the full sort; the gather merges the bounded runs and
    /// keeps the global first `limit`.
    TopK { keys: Vec<SortKey>, limit: usize },
}

impl GatherMode {
    /// Tags rendered after the exchange's detail in plan trees.
    pub fn tags(&self) -> Vec<Cow<'static, str>> {
        match self {
            GatherMode::Rows => Vec::new(),
            GatherMode::MergeAggregate { .. } => vec![Cow::Borrowed("partial-agg")],
            GatherMode::MergeSort { .. } => vec![Cow::Borrowed("merge-sort")],
            GatherMode::TopK { limit, .. } => vec![Cow::Owned(format!("top-k k={limit}"))],
        }
    }
}

/// A physical plan node: the operator itself plus the planner's annotations.
///
/// The operator lives in [`PlanNode`]; the wrapper carries the estimated
/// output cardinality the optimizer planned with, so `EXPLAIN ANALYZE` can
/// put estimated and actual rows side by side for every operator.
///
/// # Traversal contract
///
/// Which children an operator has, and what each is to it, is stated once —
/// in [`Plan::children`] / [`Plan::children_mut`] — and every pass over a
/// plan (parameter binding, the vectorize and parallelize passes, the
/// advisor's index check, the exchange's driver lookup) is written against
/// that statement instead of matching on [`PlanNode`] for itself:
///
/// * **Edge roles.** Each child comes with its [`Edge`]: the `Driver` (a
///   unary operator's `input`, a join's `left`) is the streaming spine a
///   morsel's row range is forwarded along; a join's `right` is a `Build`
///   side, consumed whole before the first probe; the `subplan` of a
///   `ScalarSubquery` or `Apply` is a `Subplan`, a separate pipeline run
///   once, or once per binding.
/// * **Visit order.** Children are yielded driver first, so [`Plan::walk`]
///   is pre-order — node, left before right, input before subplan — the
///   order the executor opens operators in and `EXPLAIN` prints them in. A
///   pass that decides bottom-up recurses over `children_mut` before looking
///   at the node, and records its `PlanDecision`s in that same child order.
/// * **Expressions.** [`Plan::exprs_mut`] visits a node's *own* expressions
///   and no child's: a filter's predicate, a projection's expressions, a
///   nested-loop join's predicate, aggregate arguments and `HAVING` (of an
///   `Aggregate`, and of an exchange gathering with
///   [`GatherMode::MergeAggregate`]), a scalar subquery's operand, an
///   [`ApplyMode`]'s operand. Join keys, sort keys and group-by columns are
///   positions, not expressions; an `IndexScan`'s parameterized
///   [`IndexBounds`] bind themselves.
///
/// * **Columns read.** Every position an operator holds — a key, a sort
///   key, a group-by column, a column inside one of its expressions, an
///   `Apply` parameter — indexes its input's output. The planner's last
///   pass (`planner/columns.rs`) walks the finished plan once, tells each
///   operator's input which of its columns are read above it, and remaps
///   those positions where a join below now emits fewer
///   ([`JoinOutput`]).
///
/// A new operator is declared here, opened in `stream.rs::open_in`, named in
/// [`Plan::operator_name`], costed in the planner's `plan_cost`, and states
/// in the columns pass which of its input columns it reads; it implements
/// the executor's operator trait (columns, `pull`, `describe`, `inputs`) —
/// nothing about metering or `PlanProfile`, which the one wrapper owns (the
/// protocol in the [`crate::exec`] module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The physical operator.
    pub node: PlanNode,
    /// The planner's estimated output row count, when statistics were
    /// available (`None` for hand-built plans).
    pub estimated_rows: Option<f64>,
}

/// Physical plan operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Full scan of a stored table; output columns are the table's columns
    /// qualified with `alias`.
    Scan { table: String, alias: String },
    /// Index-backed access path: probe `index` with `bounds` and read only
    /// the matching rows. The bounds may carry parameters: statement literals
    /// [`Plan::bind_params`] resolves on a plan-cache hit, and correlation
    /// values an `Apply` binds each time it rewinds its open subplan — the
    /// probe stays symbolic until the outer row arrives. With `order` other than
    /// [`ProbeOrder::Position`] rows come back sorted by the indexed key
    /// (ascending or descending) — what an `ORDER BY`-eliding plan wants;
    /// in position order they are byte-identical to the equivalent filtered
    /// full scan. With `index_only`, rows are synthesized from the index
    /// keys alone (output columns are the key columns, not the table's) and
    /// the heap is never touched.
    IndexScan {
        table: String,
        alias: String,
        index: String,
        bounds: IndexBounds,
        order: ProbeOrder,
        index_only: bool,
    },
    /// Index-nested-loop join: for each left row, probe `index` on the
    /// stored table with the value at `left_key` and emit the matches (in
    /// index insertion order), each joined row made of the `output`
    /// positions of `left ++ table`. The planner picks this over a hash join
    /// when the outer side is tiny and the inner join column is indexed — no
    /// build side at all.
    IndexNestedLoopJoin {
        left: Box<Plan>,
        table: String,
        alias: String,
        index: String,
        left_key: usize,
        output: JoinOutput,
    },
    /// Literal row set (used for uncorrelated subquery results and tests).
    Values { columns: Columns, rows: Vec<Row> },
    /// Filter rows by a predicate over the input's output columns. With
    /// `vectorized`, the predicate is compiled into typed column kernels
    /// evaluated batch-at-a-time (falling back per batch when a column
    /// resists transposition); results are identical either way.
    ///
    /// `shape_key` is the planner's name for the pushed conjunct this filter
    /// was lowered from — the key the planner will look the conjunct up by
    /// next time. It travels like the estimate (plan node → operator →
    /// [`crate::exec::PlanProfile`] node) and is shared, so binding a cached
    /// template clones a pointer; `None` on every filter the planner never
    /// looks up (residuals, `HAVING`, hand-built plans).
    Filter {
        input: Box<Plan>,
        predicate: Expr,
        vectorized: bool,
        shape_key: Option<Arc<ShapeKey>>,
    },
    /// Project/compute output columns.
    Project {
        input: Box<Plan>,
        exprs: Vec<Expr>,
        columns: Columns,
    },
    /// Nested-loop join with an optional predicate over the concatenated row.
    NestedLoopJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        predicate: Option<Expr>,
    },
    /// Equi-join on key positions (left positions index the left output,
    /// right positions index the right output), emitting the `output`
    /// positions of `left ++ right`.
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        /// The vectorize pass's mark: rendered as `[vectorized]` and counted
        /// per probe batch. The probe has one form either way — one reused
        /// key per row against the grouped build.
        vectorized: bool,
        output: JoinOutput,
    },
    /// Grouped aggregation. With an empty `group_by`, produces a single row.
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<usize>,
        aggregates: Vec<AggExpr>,
        /// Optional HAVING predicate evaluated over the aggregate output row
        /// (group-by columns first, then aggregate results).
        having: Option<Expr>,
        /// Accumulate through the typed vector kernels where possible.
        vectorized: bool,
    },
    /// Sort by the given keys.
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
    },
    /// Keep only the first `n` rows.
    Limit { input: Box<Plan>, n: usize },
    /// Remove duplicate rows.
    Distinct { input: Box<Plan> },
    /// Semi-join: emit each left row that has at least one key match on the
    /// right (build) side — a decorrelated `EXISTS` / `IN (subquery)`.
    /// Output columns are the left side's only; NULL keys never match.
    HashSemiJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    },
    /// Anti-join: emit each left row with *no* key match on the right side —
    /// a decorrelated `NOT EXISTS` (and, with `null_aware`, `NOT IN`).
    ///
    /// `null_aware` selects `NOT IN`'s three-valued semantics: a NULL key on
    /// the build side makes every non-matching comparison UNKNOWN (so nothing
    /// is emitted unless the build side is empty), and a NULL probe key is
    /// UNKNOWN rather than a guaranteed non-match. Without it, the operator
    /// uses `NOT EXISTS` semantics, where NULL keys simply never match.
    HashAntiJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        null_aware: bool,
    },
    /// Scalar subquery used as a filter: evaluate `subplan` exactly once and
    /// keep input rows where `expr <op> value` holds, the value being the
    /// subplan's last column looked up by `keys` ((input position, subplan
    /// column) pairs; none when uncorrelated, and at most one row). A row
    /// with no group or a NULL key gets `absent`; a key seen twice is the
    /// "more than one row" error.
    ScalarSubquery {
        input: Box<Plan>,
        subplan: Box<Plan>,
        /// Probe expression over the input row.
        expr: Expr,
        op: CmpOp,
        keys: Vec<(usize, usize)>,
        absent: Value,
    },
    /// The fallback for genuinely correlated subqueries: for each input row,
    /// bind the row's correlation values (the [`Param::Outer`]s listed in
    /// `params`) into `subplan`, run it, and keep the row when `mode` says
    /// so. The subplan is opened once and rewound for each binding. Results
    /// are cached per distinct parameter binding, so an uncorrelated
    /// subquery is evaluated exactly once and a subquery correlated on a
    /// low-cardinality key is evaluated once per key.
    Apply {
        input: Box<Plan>,
        subplan: Box<Plan>,
        /// (correlation value `$id`, input-column position) pairs this
        /// operator binds.
        params: Vec<(u32, usize)>,
        mode: ApplyMode,
    },
    /// Morsel-driven parallel execution of a pipeline: the subtree's driver
    /// scan (its leftmost leaf) is split into row-range morsels, `workers`
    /// threads claim morsels and run their own copy of the pipeline over
    /// them (build sides are built once and shared), and the outputs are
    /// gathered back in morsel order — so the row order is identical to a
    /// single-threaded run and `ORDER BY` stays deterministic. The
    /// [`GatherMode`] says how worker output is reassembled: plain
    /// concatenation, partial-aggregate merging, sorted-run merging, or a
    /// bounded top-k merge.
    Exchange {
        input: Box<Plan>,
        workers: usize,
        gather: GatherMode,
    },
}

/// The columns a join emits: positions of its left input's columns followed
/// by its right input's (or the probed table's), in output order. `None`
/// emits every column of both sides; the planner's last pass sets a list
/// where the operators above the join read fewer, and leaves `None` where
/// the list would be every column in place. Shared, so binding a cached
/// template copies no list.
pub type JoinOutput = Option<Arc<[usize]>>;

/// What an [`PlanNode::Apply`] operator checks against each subquery result.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplyMode {
    /// Keep the row iff the subquery produced rows — or, negated, none
    /// (`[NOT] EXISTS`).
    Exists { negated: bool },
    /// Keep the row by `expr [NOT] IN (first column of the result)`, with
    /// SQL's three-valued NULL semantics.
    In { expr: Expr, negated: bool },
    /// Keep the row iff `expr <op> scalar-result` holds (correlated scalar
    /// comparison; the subquery must yield at most one row).
    Compare { expr: Expr, op: CmpOp },
    /// Keep the row by `expr <op> ALL|ANY (first column of the result)`.
    Quantified { expr: Expr, op: CmpOp, all: bool },
}

impl ApplyMode {
    /// How many subquery rows one evaluation needs before its verdict is
    /// known, when that is fewer than all of them: `[NOT] EXISTS` needs one.
    /// The executor opens the subplan with this as its row goal.
    pub fn row_goal(&self) -> Option<usize> {
        match self {
            ApplyMode::Exists { .. } => Some(1),
            ApplyMode::In { .. } | ApplyMode::Compare { .. } | ApplyMode::Quantified { .. } => None,
        }
    }

    /// Compact SQL-flavoured rendering used in plan trees ("NOT EXISTS(…)").
    pub fn describe(&self, render_expr: &dyn Fn(&Expr) -> String) -> String {
        match self {
            ApplyMode::Exists { negated } => {
                format!("{}EXISTS(…)", if *negated { "NOT " } else { "" })
            }
            ApplyMode::In { expr, negated } => format!(
                "{} {}IN (…)",
                render_expr(expr),
                if *negated { "NOT " } else { "" }
            ),
            ApplyMode::Compare { expr, op } => {
                format!("{} {} (…)", render_expr(expr), op.sql())
            }
            ApplyMode::Quantified { expr, op, all } => format!(
                "{} {} {} (…)",
                render_expr(expr),
                op.sql(),
                if *all { "ALL" } else { "ANY" }
            ),
        }
    }
}

/// What a child plan is to its parent operator (see the traversal contract
/// on [`Plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// The streaming spine: rows flow from this child through the parent one
    /// batch at a time, and a morsel's row range is forwarded along it.
    Driver,
    /// A join's build side, consumed whole before the first probe.
    Build,
    /// A subquery's plan: a separate pipeline, run once (`ScalarSubquery`)
    /// or once per binding (`Apply`).
    Subplan,
}

/// The children of every operator, with their roles — written once for
/// shared and mutable access (`$r` is `&` or `&mut`).
macro_rules! child_edges {
    ($node:expr, $($r:tt)+) => {
        match $node {
            PlanNode::Scan { .. } | PlanNode::IndexScan { .. } | PlanNode::Values { .. } => {
                [None, None]
            }
            PlanNode::IndexNestedLoopJoin { left: input, .. }
            | PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Exchange { input, .. } => [Some((Edge::Driver, $($r)+ **input)), None],
            PlanNode::NestedLoopJoin { left, right, .. }
            | PlanNode::HashJoin { left, right, .. }
            | PlanNode::HashSemiJoin { left, right, .. }
            | PlanNode::HashAntiJoin { left, right, .. } => [
                Some((Edge::Driver, $($r)+ **left)),
                Some((Edge::Build, $($r)+ **right)),
            ],
            PlanNode::ScalarSubquery { input, subplan, .. }
            | PlanNode::Apply { input, subplan, .. } => [
                Some((Edge::Driver, $($r)+ **input)),
                Some((Edge::Subplan, $($r)+ **subplan)),
            ],
        }
    };
}

impl From<PlanNode> for Plan {
    fn from(node: PlanNode) -> Plan {
        Plan {
            node,
            estimated_rows: None,
        }
    }
}

impl Plan {
    /// Scan of a stored table.
    pub fn scan(table: impl Into<String>, alias: impl Into<String>) -> Plan {
        PlanNode::Scan {
            table: table.into(),
            alias: alias.into(),
        }
        .into()
    }

    /// Literal row set.
    pub fn values(columns: impl Into<Columns>, rows: Vec<Row>) -> Plan {
        let columns = columns.into();
        PlanNode::Values { columns, rows }.into()
    }

    /// Index scan of a stored table (position-ordered output; see
    /// [`Plan::with_key_order`]).
    pub fn index_scan(
        table: impl Into<String>,
        alias: impl Into<String>,
        index: impl Into<String>,
        bounds: IndexBounds,
    ) -> Plan {
        PlanNode::IndexScan {
            table: table.into(),
            alias: alias.into(),
            index: index.into(),
            bounds,
            order: ProbeOrder::Position,
            index_only: false,
        }
        .into()
    }

    /// Switch an `IndexScan` root to key-ordered output (no-op on other
    /// operators): a scan whose ascending key order already satisfies an
    /// `ORDER BY`.
    pub fn with_key_order(mut self) -> Plan {
        if let PlanNode::IndexScan { order, .. } = &mut self.node {
            *order = ProbeOrder::KeyAsc;
        }
        self
    }

    /// Switch an `IndexScan` root to index-only mode: answer from the index
    /// keys without touching heap rows (no-op on other operators). The
    /// scan's output columns become the index key columns.
    pub fn with_index_only(mut self) -> Plan {
        if let PlanNode::IndexScan { index_only, .. } = &mut self.node {
            *index_only = true;
        }
        self
    }

    /// Index-nested-loop join: probe `index` on `table` with each left
    /// row's `left_key` value.
    pub fn index_nested_loop_join(
        left: Plan,
        table: impl Into<String>,
        alias: impl Into<String>,
        index: impl Into<String>,
        left_key: usize,
    ) -> Plan {
        PlanNode::IndexNestedLoopJoin {
            left: Box::new(left),
            table: table.into(),
            alias: alias.into(),
            index: index.into(),
            left_key,
            output: None,
        }
        .into()
    }

    /// Nested-loop join of two plans.
    pub fn nested_loop_join(left: Plan, right: Plan, predicate: Option<Expr>) -> Plan {
        PlanNode::NestedLoopJoin {
            left: Box::new(left),
            right: Box::new(right),
            predicate,
        }
        .into()
    }

    /// Hash equi-join of two plans on the given key positions.
    pub fn hash_join(
        left: Plan,
        right: Plan,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    ) -> Plan {
        PlanNode::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys,
            right_keys,
            vectorized: false,
            output: None,
        }
        .into()
    }

    /// Hash semi-join of two plans (left rows with a build-side match).
    pub fn semi_join(
        left: Plan,
        right: Plan,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    ) -> Plan {
        PlanNode::HashSemiJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys,
            right_keys,
        }
        .into()
    }

    /// Hash anti-join of two plans (left rows with no build-side match);
    /// `null_aware` selects `NOT IN` rather than `NOT EXISTS` NULL semantics.
    pub fn anti_join(
        left: Plan,
        right: Plan,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        null_aware: bool,
    ) -> Plan {
        PlanNode::HashAntiJoin {
            left: Box::new(left),
            right: Box::new(right),
            left_keys,
            right_keys,
            null_aware,
        }
        .into()
    }

    /// Filter this plan by comparing `expr` with a scalar subquery's value,
    /// looked up by `keys` when it is keyed (see [`PlanNode::ScalarSubquery`]).
    pub fn scalar_subquery(
        self,
        subplan: Plan,
        expr: Expr,
        op: CmpOp,
        keys: Vec<(usize, usize)>,
        absent: Value,
    ) -> Plan {
        PlanNode::ScalarSubquery {
            input: Box::new(self),
            subplan: Box::new(subplan),
            expr,
            op,
            keys,
            absent,
        }
        .into()
    }

    /// Filter this plan by re-evaluating a correlated subquery per row
    /// (cached per distinct parameter binding).
    pub fn apply(self, subplan: Plan, params: Vec<(u32, usize)>, mode: ApplyMode) -> Plan {
        PlanNode::Apply {
            input: Box::new(self),
            subplan: Box::new(subplan),
            params,
            mode,
        }
        .into()
    }

    /// Wrap this plan in a morsel-driven exchange running it across
    /// `workers` threads (see [`PlanNode::Exchange`]).
    pub fn exchange(self, workers: usize) -> Plan {
        self.exchange_gather(workers, GatherMode::Rows)
    }

    /// Wrap this plan in an exchange with an explicit gather mode
    /// (partial-aggregate merge, merge-sort, or top-k).
    pub fn exchange_gather(self, workers: usize, gather: GatherMode) -> Plan {
        let est = self.estimated_rows;
        let plan: Plan = PlanNode::Exchange {
            input: Box::new(self),
            workers: workers.max(1),
            gather,
        }
        .into();
        match est {
            Some(e) => plan.with_estimate(e),
            None => plan,
        }
    }

    /// Clone this plan with statement parameter `?k` bound to `values[k]`
    /// in every expression and index probe, subplans included: what a cached
    /// template becomes for one statement. Correlation values stay in place
    /// for their `Apply` operators to bind.
    pub fn bind_params(&self, values: &[Value]) -> Plan {
        self.bound(&|param| match param {
            Param::Stmt(k) => values.get(k as usize),
            Param::Outer(_) => None,
        })
    }

    /// Clone this plan with each parameter `bindings` has a value for bound
    /// to it; the others stay in place.
    pub(crate) fn bound(&self, bindings: ParamLookup<'_>) -> Plan {
        let mut plan = self.clone();
        plan.bind_in_place(bindings);
        plan
    }

    fn bind_in_place(&mut self, bindings: ParamLookup<'_>) {
        if let PlanNode::IndexScan { bounds, .. } = &mut self.node {
            bounds.bind(bindings);
        }
        self.exprs_mut(&mut |e| e.substitute_params(bindings));
        for (_, child) in self.children_mut() {
            child.bind_in_place(bindings);
        }
    }

    /// Grouped aggregation over this plan.
    pub fn aggregate(
        self,
        group_by: Vec<usize>,
        aggregates: Vec<AggExpr>,
        having: Option<Expr>,
    ) -> Plan {
        PlanNode::Aggregate {
            input: Box::new(self),
            group_by,
            aggregates,
            having,
            vectorized: false,
        }
        .into()
    }

    /// Wrap in a filter.
    pub fn filter(self, predicate: Expr) -> Plan {
        PlanNode::Filter {
            input: Box::new(self),
            predicate,
            vectorized: false,
            shape_key: None,
        }
        .into()
    }

    /// Name the pushed conjunct a `Filter` root was lowered from (no-op on
    /// other operators).
    pub fn with_shape_key(mut self, key: Arc<ShapeKey>) -> Plan {
        if let PlanNode::Filter { shape_key, .. } = &mut self.node {
            *shape_key = Some(key);
        }
        self
    }

    /// Wrap in a projection.
    pub fn project(self, exprs: Vec<Expr>, columns: impl Into<Columns>) -> Plan {
        PlanNode::Project {
            input: Box::new(self),
            exprs,
            columns: columns.into(),
        }
        .into()
    }

    /// Wrap in a sort.
    pub fn sort(self, keys: Vec<SortKey>) -> Plan {
        PlanNode::Sort {
            input: Box::new(self),
            keys,
        }
        .into()
    }

    /// Wrap in a limit.
    pub fn limit(self, n: usize) -> Plan {
        PlanNode::Limit {
            input: Box::new(self),
            n,
        }
        .into()
    }

    /// Wrap in duplicate elimination.
    pub fn distinct(self) -> Plan {
        PlanNode::Distinct {
            input: Box::new(self),
        }
        .into()
    }

    /// Attach the planner's estimated output cardinality.
    pub fn with_estimate(mut self, estimated_rows: f64) -> Plan {
        self.estimated_rows = Some(estimated_rows);
        self
    }

    /// This operator's children with their roles, driver first.
    pub fn children(&self) -> impl Iterator<Item = (Edge, &Plan)> {
        child_edges!(&self.node, &).into_iter().flatten()
    }

    /// [`Plan::children`], mutably — how a pass rewrites a plan in place.
    pub fn children_mut(&mut self) -> impl Iterator<Item = (Edge, &mut Plan)> {
        child_edges!(&mut self.node, &mut).into_iter().flatten()
    }

    /// Pre-order walk over every operator of the tree, subplans included.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Plan)) {
        f(self);
        for (_, child) in self.children() {
            child.walk(f);
        }
    }

    /// Visit this node's own expressions (not its children's).
    pub fn exprs_mut(&mut self, f: &mut dyn FnMut(&mut Expr)) {
        match &mut self.node {
            PlanNode::Filter { predicate, .. } => f(predicate),
            PlanNode::Project { exprs, .. } => exprs.iter_mut().for_each(f),
            PlanNode::NestedLoopJoin { predicate, .. } => predicate.iter_mut().for_each(f),
            PlanNode::Aggregate {
                aggregates, having, ..
            }
            | PlanNode::Exchange {
                gather:
                    GatherMode::MergeAggregate {
                        aggregates, having, ..
                    },
                ..
            } => aggregates
                .iter_mut()
                .filter_map(|a| a.arg.as_mut())
                .chain(having)
                .for_each(f),
            PlanNode::ScalarSubquery { expr, .. } => f(expr),
            PlanNode::Apply { mode, .. } => match mode {
                ApplyMode::Exists { .. } => {}
                ApplyMode::In { expr, .. }
                | ApplyMode::Compare { expr, .. }
                | ApplyMode::Quantified { expr, .. } => f(expr),
            },
            PlanNode::Scan { .. }
            | PlanNode::IndexScan { .. }
            | PlanNode::IndexNestedLoopJoin { .. }
            | PlanNode::Values { .. }
            | PlanNode::HashJoin { .. }
            | PlanNode::HashSemiJoin { .. }
            | PlanNode::HashAntiJoin { .. }
            | PlanNode::Sort { .. }
            | PlanNode::Limit { .. }
            | PlanNode::Distinct { .. }
            | PlanNode::Exchange { .. } => {}
        }
    }

    /// True for the operators that treat every driver row independently —
    /// scans, filters, projections, join probes, scalar-subquery filters —
    /// and so may run as one copy per morsel under an exchange. Blocking
    /// operators (sort, aggregate, limit, distinct) carry cross-morsel state
    /// and `Apply` keeps one open subplan it rewinds; a key-ordered index scan exists
    /// to *preserve* an order a sort was elided for, which gathering by
    /// morsel would destroy.
    pub fn is_pipeline_op(&self) -> bool {
        match &self.node {
            PlanNode::Scan { .. }
            | PlanNode::Values { .. }
            | PlanNode::IndexNestedLoopJoin { .. }
            | PlanNode::Filter { .. }
            | PlanNode::Project { .. }
            | PlanNode::NestedLoopJoin { .. }
            | PlanNode::HashJoin { .. }
            | PlanNode::HashSemiJoin { .. }
            | PlanNode::HashAntiJoin { .. }
            | PlanNode::ScalarSubquery { .. } => true,
            PlanNode::IndexScan { order, .. } => *order == ProbeOrder::Position,
            PlanNode::Sort { .. }
            | PlanNode::Limit { .. }
            | PlanNode::Distinct { .. }
            | PlanNode::Aggregate { .. }
            | PlanNode::Apply { .. }
            | PlanNode::Exchange { .. } => false,
        }
    }

    /// True for the operators that hand a row on as soon as they have found
    /// it — everything except the ones whose first output row needs their
    /// whole input (aggregate, sort) or that run their input as pipelines of
    /// their own (exchange). A consumer's *row goal* ("one row will do", an
    /// `EXISTS` check) travels down the [`Edge::Driver`] spine through these
    /// and stops at the others: the executor opens the spine toward it, and
    /// [`Plan::scale_to_row_goal`] prices it.
    pub fn emits_rows_as_found(&self) -> bool {
        !matches!(
            self.node,
            PlanNode::Aggregate { .. } | PlanNode::Sort { .. } | PlanNode::Exchange { .. }
        )
    }

    /// Re-estimate this plan for a consumer that stops after `goal` rows: when
    /// more than that are expected, the root and every operator the goal
    /// reaches (see [`Plan::emits_rows_as_found`]) are expected to produce
    /// only their share, rows being assumed evenly spread. Build sides,
    /// subplans and whatever feeds a breaker still run whole.
    pub fn scale_to_row_goal(&mut self, goal: f64) {
        fn scale(plan: &mut Plan, share: f64) {
            if let Some(est) = plan.estimated_rows.as_mut() {
                *est *= share;
            }
            if plan.emits_rows_as_found() {
                for (edge, child) in plan.children_mut() {
                    if edge == Edge::Driver {
                        scale(child, share);
                    }
                }
            }
        }
        if let Some(est) = self.estimated_rows.filter(|est| *est > goal) {
            scale(self, goal / est);
        }
    }

    /// The driver scan of a pipeline — the stored-table leaf at the end of
    /// the [`Edge::Driver`] spine, the scan an exchange splits into morsels
    /// — as `(table, alias, estimated rows)`. `None` when anything but a
    /// pipeline operator sits on the spine (running a limit or an aggregate
    /// once per morsel would change its meaning, so neither the planner nor
    /// the executor partitions through one) or the leaf is not a stored
    /// table.
    pub fn driver_scan(&self) -> Option<(&str, &str, Option<f64>)> {
        if !self.is_pipeline_op() {
            return None;
        }
        match self.children().find(|(edge, _)| *edge == Edge::Driver) {
            Some((_, spine)) => spine.driver_scan(),
            None => match &self.node {
                PlanNode::Scan { table, alias } | PlanNode::IndexScan { table, alias, .. } => {
                    Some((table, alias, self.estimated_rows))
                }
                _ => None,
            },
        }
    }

    /// Short operator name, used in explain-style narrations of plans.
    pub fn operator_name(&self) -> &'static str {
        match &self.node {
            PlanNode::Scan { .. } => "scan",
            PlanNode::IndexScan { .. } => "index scan",
            PlanNode::IndexNestedLoopJoin { .. } => "index nested-loop join",
            PlanNode::Values { .. } => "values",
            PlanNode::Filter { .. } => "filter",
            PlanNode::Project { .. } => "project",
            PlanNode::NestedLoopJoin { .. } => "nested-loop join",
            PlanNode::HashJoin { .. } => "hash join",
            PlanNode::Aggregate { .. } => "aggregate",
            PlanNode::Sort { .. } => "sort",
            PlanNode::Limit { .. } => "limit",
            PlanNode::Distinct { .. } => "distinct",
            PlanNode::HashSemiJoin { .. } => "semi join",
            PlanNode::HashAntiJoin { .. } => "anti join",
            PlanNode::ScalarSubquery { .. } => "scalar subquery",
            PlanNode::Apply { .. } => "apply",
            PlanNode::Exchange { .. } => "exchange",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};

    #[test]
    fn column_info_matching() {
        let c = ColumnInfo::qualified("m", "title");
        assert!(c.matches(Some("M"), "TITLE"));
        assert!(c.matches(None, "title"));
        assert!(!c.matches(Some("a"), "title"));
        assert!(!c.matches(Some("m"), "name"));
        let u = ColumnInfo::unqualified("cnt");
        assert!(u.matches(None, "cnt"));
        assert!(!u.matches(Some("m"), "cnt"));
    }

    #[test]
    fn column_info_display() {
        assert_eq!(ColumnInfo::qualified("m", "title").to_string(), "m.title");
        assert_eq!(ColumnInfo::unqualified("cnt").to_string(), "cnt");
    }

    fn operator_names(plan: &Plan) -> Vec<&'static str> {
        let mut names = Vec::new();
        plan.walk(&mut |p| names.push(p.operator_name()));
        names
    }

    #[test]
    fn operator_count_walks_tree() {
        let plan = Plan::scan("MOVIES", "m")
            .filter(Expr::col_cmp_value(0, CmpOp::Gt, Value::int(0)))
            .limit(10);
        assert_eq!(operator_names(&plan), ["limit", "filter", "scan"]);
    }

    #[test]
    fn join_operator_count_sums_both_sides() {
        let join = Plan::nested_loop_join(Plan::scan("A", "a"), Plan::scan("B", "b"), None);
        assert_eq!(operator_names(&join), ["nested-loop join", "scan", "scan"]);
        let edges: Vec<Edge> = join.children().map(|(edge, _)| edge).collect();
        assert_eq!(edges, [Edge::Driver, Edge::Build]);
    }

    #[test]
    fn estimates_attach_to_any_node() {
        let plan = Plan::scan("MOVIES", "m").with_estimate(10.0);
        assert_eq!(plan.estimated_rows, Some(10.0));
        let filtered = plan.filter(Expr::col_cmp_value(0, CmpOp::Gt, Value::int(0)));
        assert_eq!(filtered.estimated_rows, None, "wrappers start unestimated");
        let filtered = filtered.with_estimate(3.5);
        assert_eq!(filtered.estimated_rows, Some(3.5));
        match &filtered.node {
            PlanNode::Filter { input, .. } => assert_eq!(input.estimated_rows, Some(10.0)),
            other => panic!("expected filter, got {other:?}"),
        }
    }
}
