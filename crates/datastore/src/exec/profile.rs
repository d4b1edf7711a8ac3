//! What an operator tree *says about itself*: the per-operator counters
//! ([`OpMetrics`]), the snapshot of one operator and its subtree
//! ([`PlanProfile`]) with its tree rendering, and the rendering of runtime
//! expressions with column positions resolved to names ([`render_expr`]).
//!
//! Nothing here executes anything. [`crate::exec::stream`] fills the counters
//! (the metering protocol in the [`crate::exec`] module docs) and assembles
//! the snapshots; `EXPLAIN [ANALYZE]`, the §3.1 narrations, the misestimate
//! ledger, cardinality feedback and the doctor read them.

use crate::exec::plan::{ColumnInfo, Columns};
use crate::expr::Expr;
use crate::fingerprint::ShapeKey;
use crate::index::ProbeOrder;
use crate::value::Value;
use std::fmt;
use std::ops::AddAssign;
use std::sync::Arc;
use std::time::Duration;

/// Per-operator instrumentation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Rows consumed from child operators (for a scan: rows read from
    /// storage).
    pub rows_in: u64,
    /// Rows produced to the parent.
    pub rows_out: u64,
    /// Output batches produced.
    pub batches: u64,
    /// Wall-clock time spent inside this operator's `next_batch`, inclusive
    /// of children (like `EXPLAIN ANALYZE`'s actual time).
    pub elapsed: Duration,
    /// The part of `elapsed` spent waiting inside child `next_batch` calls.
    /// `elapsed - blocked` is the operator's *own* work — for a parallel
    /// child the whole fan-out/gather wall time lands in the parent's
    /// `blocked`, so time attribution blames the operator that actually
    /// burned the cycles.
    pub blocked: Duration,
    /// Input batches this operator evaluated through the typed vector
    /// kernels (zero for row-at-a-time operators); the remainder of its
    /// input batches fell back to per-row evaluation.
    pub vector_batches: u64,
}

impl OpMetrics {
    /// Time this operator spent on its own work, excluding time blocked
    /// waiting on children (parallel or otherwise).
    pub fn self_elapsed(&self) -> Duration {
        self.elapsed.saturating_sub(self.blocked)
    }
}

impl AddAssign for OpMetrics {
    /// Add another run's counters to these.
    fn add_assign(&mut self, other: OpMetrics) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.batches += other.batches;
        self.elapsed += other.elapsed;
        self.blocked += other.blocked;
        self.vector_batches += other.vector_batches;
    }
}

/// Structured metadata of an index-backed operator ("index scan", and the
/// probe side of an index nested-loop join), carried on the profile so
/// narrations and the §3.1 empty-result detective read fields instead of
/// parsing the rendered detail string back apart.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexAccess {
    /// Probed table and its tuple-variable alias.
    pub table: String,
    pub alias: String,
    /// Index name.
    pub index: String,
    /// True for an exact (point) probe that pins every key column, false
    /// for a prefix or range probe.
    pub point: bool,
    /// Rendered probe predicate ("m.id = 5", "c.mid = $0") for index
    /// scans; `None` for the per-row probe side of an index nested-loop
    /// join.
    pub predicate: Option<String>,
    /// The order rows come back in; `KeyAsc`/`KeyDesc` mean an elided sort.
    pub order: ProbeOrder,
    /// True when the scan answered from the index keys alone, never
    /// touching heap rows.
    pub index_only: bool,
}

/// A snapshot of one operator (and its subtree) after — or before —
/// execution: the operator name, a human-readable detail string with column
/// names resolved, and the instrumentation counters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProfile {
    /// Short operator name ("scan", "hash join", …).
    pub operator: String,
    /// Operator-specific detail ("MOVIES as m", "m.year > 2000", …).
    pub detail: String,
    /// Output columns of this operator, shared with the operator that
    /// produced them.
    pub columns: Columns,
    /// The planner's estimated output rows for this operator, when the plan
    /// carried one.
    pub estimated_rows: Option<f64>,
    /// Instrumentation counters (all zero when the plan was only described,
    /// not executed).
    pub metrics: OpMetrics,
    /// Worker threads this operator fans work out across (`None` for plain
    /// sequential operators); rendered as `[workers=N]` in plan trees.
    pub workers: Option<usize>,
    /// Extra bracketed annotations rendered after the detail —
    /// `[vectorized]`, `[partial-agg]`, `[top-k k=10]` and friends.
    pub tags: Vec<String>,
    /// Index access-path metadata, when this operator probes one.
    pub access: Option<IndexAccess>,
    /// The planner's name for the pushed conjunct a filter was lowered from
    /// ([`crate::exec::PlanNode::Filter`]); what is learned from this node is
    /// filed under it.
    pub shape_key: Option<Arc<ShapeKey>>,
    /// What a subquery operator (`apply`, `scalar subquery`) did.
    pub subquery: Option<SubqueryTally>,
    /// Child profiles (inputs of this operator).
    pub children: Vec<PlanProfile>,
}

/// What a subquery operator did, so narrations need not parse the detail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubqueryTally {
    /// The input columns an answer depends on (none when uncorrelated).
    pub keys: Vec<String>,
    /// Subplan runs, an apply's cache hits, a keyed lookup's groups.
    pub evaluations: u64,
    pub cache_hits: u64,
    pub groups: u64,
}

/// Factor by which an estimate must be off (in either direction) before the
/// tree rendering and the narration flag it.
pub const MISESTIMATE_FACTOR: f64 = 10.0;

impl PlanProfile {
    /// The stored table this operator itself reads — an index access's
    /// table, or a `scan`'s — and `None` for every operator that reads only
    /// its children. The one place a scan's rendered detail (`TABLE` or
    /// `TABLE as alias`) is taken apart again; ledgers and narrators that
    /// attribute an operator to a relation all ask here.
    pub fn table(&self) -> Option<&str> {
        match &self.access {
            Some(access) => Some(&access.table),
            None if self.operator == "scan" => self.detail.split(' ').next(),
            None => None,
        }
    }

    /// Depth-first pre-order walk over the profile tree.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a PlanProfile)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// Add another profile's counters into this one, recursively. The two
    /// profiles must have the same tree shape; the `Apply` operator uses
    /// this to accumulate the metrics of its per-binding subplan executions
    /// into one template profile.
    pub fn absorb(&mut self, other: &PlanProfile) {
        self.metrics += other.metrics;
        for (mine, theirs) in self.children.iter_mut().zip(&other.children) {
            mine.absorb(theirs);
        }
    }

    /// Parallel speedup of an executed exchange: total operator time of its
    /// subtree (each worker's wall time, summed) divided by the wall-clock
    /// time the fan-out took — the conventional "work over span" ratio. On
    /// an oversubscribed machine a preempted worker still accumulates wall
    /// time, so the ratio reflects scheduling pressure, not pure CPU
    /// speedup. `None` for anything but a multi-worker exchange (an apply's
    /// `blocked` mixes input waits with its fan-out, so the ratio would be
    /// meaningless there) and for un-executed profiles.
    pub fn parallel_speedup(&self) -> Option<f64> {
        if self.workers? <= 1 || self.operator != "exchange" {
            return None;
        }
        let wall = self.metrics.blocked.as_secs_f64();
        let work: f64 = self
            .children
            .iter()
            .map(|c| c.metrics.elapsed.as_secs_f64())
            .sum();
        (wall > 0.0 && work > 0.0).then(|| work / wall)
    }

    /// Multiply every estimate in the subtree by `factor`. The `Apply`
    /// operator scales its subplan's per-evaluation estimates by the number
    /// of evaluations, so `EXPLAIN ANALYZE` compares like with like (total
    /// estimated rows vs. total actual rows across all bindings).
    pub fn scale_estimates(&mut self, factor: f64) {
        if let Some(est) = self.estimated_rows.as_mut() {
            *est *= factor;
        }
        for c in &mut self.children {
            c.scale_estimates(factor);
        }
    }

    /// Total number of operators in the subtree.
    pub fn operator_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PlanProfile::operator_count)
            .sum::<usize>()
    }

    /// How far the planner's estimate is off from the actual output, as a
    /// ≥ 1.0 factor — `Some` only when the plan carried an estimate and the
    /// factor reaches [`MISESTIMATE_FACTOR`]. Cardinalities are clamped to 1
    /// so "estimated 0, saw 3" compares as 3×, not ∞.
    pub fn misestimate(&self) -> Option<f64> {
        self.misestimate_with(MISESTIMATE_FACTOR)
    }

    /// [`PlanProfile::misestimate`] against an explicit flagging threshold —
    /// how `PlannerOptions::misestimate_factor` reaches the renderer.
    pub fn misestimate_with(&self, flag_factor: f64) -> Option<f64> {
        let est = self.estimated_rows?.round().max(1.0);
        let actual = (self.metrics.rows_out as f64).max(1.0);
        let factor = if est > actual {
            est / actual
        } else {
            actual / est
        };
        (factor >= flag_factor).then_some(factor)
    }

    /// The operator of this subtree whose estimate is furthest off, with its
    /// factor ([`PlanProfile::misestimate_with`]); the first one in pre-order
    /// when several tie. What the journal records and `EXPLAIN ANALYZE` owns
    /// up to.
    pub fn worst_misestimate(&self, flag_factor: f64) -> Option<(&PlanProfile, f64)> {
        let mut worst: Option<(&PlanProfile, f64)> = None;
        self.walk(&mut |node| {
            if let Some(factor) = node.misestimate_with(flag_factor) {
                if worst.is_none_or(|(_, f)| factor > f) {
                    worst = Some((node, factor));
                }
            }
        });
        worst
    }

    /// Render the profile as a stable ASCII tree. Every line shows the
    /// planner's estimated rows when available; with `analyze` it also shows
    /// the actual row counts (flagging estimates off by more than
    /// [`MISESTIMATE_FACTOR`]). Timings are deliberately left out of the
    /// tree (they are not stable across runs) and live only in
    /// [`OpMetrics`].
    pub fn render_tree(&self, analyze: bool) -> String {
        self.render_tree_with(analyze, MISESTIMATE_FACTOR)
    }

    /// [`PlanProfile::render_tree`] with an explicit misestimate-flagging
    /// threshold.
    pub fn render_tree_with(&self, analyze: bool, flag_factor: f64) -> String {
        let mut out = String::new();
        self.render_into(&mut out, &mut String::new(), analyze, flag_factor);
        out
    }

    /// Write this node's line (after the prefix its parent wrote) and then
    /// its children's, each under `indent` and its branch; `indent` grows
    /// by one level for the children and is given back as it came.
    fn render_into(&self, out: &mut String, indent: &mut String, analyze: bool, flag_factor: f64) {
        use fmt::Write;
        out.push_str(&self.operator);
        if !self.detail.is_empty() {
            out.push_str(": ");
            out.push_str(&self.detail);
        }
        // Writing into a `String` cannot fail.
        for tag in &self.tags {
            let _ = write!(out, "  [{tag}]");
        }
        if let Some(workers) = self.workers.filter(|&w| w > 1) {
            let _ = write!(out, "  [workers={workers}]");
        }
        let est = self.estimated_rows.map(f64::round);
        let m = &self.metrics;
        if analyze {
            out.push_str("  [");
            if let Some(est) = est {
                let _ = write!(out, "est={est:.0} ");
            }
            let _ = write!(
                out,
                "actual={} in={} batches={}]",
                m.rows_out, m.rows_in, m.batches
            );
            if let Some(factor) = self.misestimate_with(flag_factor) {
                let _ = write!(out, "  <-- est off by {factor:.0}x");
            }
        } else if let Some(est) = est {
            let _ = write!(out, "  [est={est:.0}]");
        }
        out.push('\n');
        let n = self.children.len();
        for (i, child) in self.children.iter().enumerate() {
            let (branch, cont) = if i + 1 == n {
                ("└─ ", "   ")
            } else {
                ("├─ ", "│  ")
            };
            out.push_str(indent);
            out.push_str(branch);
            let len = indent.len();
            indent.push_str(cont);
            child.render_into(out, indent, analyze, flag_factor);
            indent.truncate(len);
        }
    }
}

/// How an operator presents itself in a [`PlanProfile`]: everything except
/// what the metering wrapper in [`crate::exec::stream`] owns (columns,
/// estimate, counters) and its inputs' profiles.
pub(crate) struct Description {
    pub(crate) operator: &'static str,
    pub(crate) detail: String,
    pub(crate) tags: Vec<String>,
    pub(crate) workers: Option<usize>,
    pub(crate) access: Option<IndexAccess>,
    pub(crate) shape_key: Option<Arc<ShapeKey>>,
    pub(crate) subquery: Option<SubqueryTally>,
    /// A child that is not an operator of this tree, listed after the
    /// inputs: an index join's probe leaf, the scan/filter chain a fused
    /// aggregate absorbed, an apply's accumulated subplan, an exchange's
    /// merged worker pipelines.
    pub(crate) synthetic: Option<PlanProfile>,
}

impl Description {
    pub(crate) fn new(operator: &'static str, detail: String) -> Description {
        Description {
            operator,
            detail,
            tags: Vec::new(),
            workers: None,
            access: None,
            shape_key: None,
            subquery: None,
            synthetic: None,
        }
    }

    /// The one place a [`PlanProfile`] node is put together — for running
    /// operators and synthetic children alike. `inputs` are the profiles of
    /// the operators this one pulls from.
    pub(crate) fn assemble(
        self,
        columns: &Columns,
        est: Option<f64>,
        metrics: OpMetrics,
        inputs: impl IntoIterator<Item = PlanProfile>,
    ) -> PlanProfile {
        PlanProfile {
            operator: self.operator.to_string(),
            detail: self.detail,
            columns: Arc::clone(columns),
            estimated_rows: est,
            metrics,
            workers: self.workers,
            tags: self.tags,
            access: self.access,
            shape_key: self.shape_key,
            subquery: self.subquery,
            // One exact allocation: both halves know their length.
            children: inputs.into_iter().chain(self.synthetic).collect(),
        }
    }
}

/// The `[vectorized]` annotation, when `on`.
pub(crate) fn vectorized_tag(on: bool) -> Vec<String> {
    Vec::from_iter(on.then(|| "vectorized".to_string()))
}

/// The plural suffix a tally of `n` takes in an operator's detail
/// (`1 probe`, `3 probes`).
pub(crate) fn plural(n: u64, suffix: &'static str) -> &'static str {
    if n == 1 {
        ""
    } else {
        suffix
    }
}

/// The display name of column `i` of an operator's input (`alias.name`), or
/// `#i` when a hand-built plan points past the row.
pub(crate) fn column_label(columns: &[ColumnInfo], i: usize) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| match columns.get(i) {
        Some(column) => write!(f, "{column}"),
        None => write!(f, "#{i}"),
    })
}

/// `items`, with `sep` between each two.
pub(crate) fn separated<I>(sep: &'static str, items: I) -> impl fmt::Display
where
    I: IntoIterator<Item: fmt::Display> + Clone,
{
    fmt::from_fn(move |f| {
        for (i, item) in items.clone().into_iter().enumerate() {
            f.write_str(if i > 0 { sep } else { "" })?;
            write!(f, "{item}")?;
        }
        Ok(())
    })
}

/// Render a runtime expression with column positions resolved to names.
pub fn render_expr(expr: &Expr, columns: &[ColumnInfo]) -> String {
    expr_label(expr, columns).to_string()
}

/// [`render_expr`], written wherever it is formatted.
pub(crate) fn expr_label<'a>(expr: &'a Expr, columns: &'a [ColumnInfo]) -> impl fmt::Display + 'a {
    fmt::from_fn(move |f| write_expr(f, expr, columns))
}

fn write_expr(f: &mut fmt::Formatter<'_>, expr: &Expr, columns: &[ColumnInfo]) -> fmt::Result {
    let e = |expr| expr_label(expr, columns);
    match expr {
        Expr::Literal(v) => v.write_sql_literal(f),
        Expr::Column(i) => write!(f, "{}", column_label(columns, *i)),
        Expr::Compare { op, left, right } => write!(f, "{} {} {}", e(left), op.sql(), e(right)),
        Expr::And(l, r) => write!(f, "{} AND {}", e(l), e(r)),
        Expr::Or(l, r) => write!(f, "({} OR {})", e(l), e(r)),
        Expr::Not(inner) => write!(f, "NOT ({})", e(inner)),
        Expr::Arith { op, left, right } => write!(f, "{} {} {}", e(left), op.sql(), e(right)),
        Expr::IsNull(inner) => write!(f, "{} IS NULL", e(inner)),
        Expr::Like { expr, pattern } => {
            write!(f, "{} LIKE ", e(expr))?;
            Value::text(pattern.as_str()).write_sql_literal(f)
        }
        Expr::InList { expr, list } => {
            let items = list
                .iter()
                .map(|v| fmt::from_fn(|f| v.write_sql_literal(f)));
            write!(f, "{} IN ({})", e(expr), separated(", ", items))
        }
        Expr::Param(param) => write!(f, "{param}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Param};

    #[test]
    fn render_expr_resolves_column_names() {
        let cols = vec![
            ColumnInfo::qualified("m", "id"),
            ColumnInfo::qualified("m", "year"),
        ];
        let e = Expr::And(
            Box::new(Expr::col_cmp_value(1, CmpOp::Gt, Value::int(2000))),
            Box::new(Expr::col_eq(0, 1)),
        );
        assert_eq!(render_expr(&e, &cols), "m.year > 2000 AND m.id = m.year");
        assert_eq!(render_expr(&Expr::Param(Param::Outer(3)), &cols), "$3");
        // A pattern is quoted the way a text literal is.
        let like = Expr::Like {
            expr: Box::new(Expr::Column(0)),
            pattern: "O'%".to_string(),
        };
        assert_eq!(render_expr(&like, &cols), "m.id LIKE 'O''%'");
    }
}
