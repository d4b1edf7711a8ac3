//! Streaming, pull-based execution of [`Plan`] trees.
//!
//! Every plan node opens into a [`RowSource`]: a batched iterator that pulls
//! rows from its children on demand instead of materializing whole
//! intermediate results. Each operator carries its own instrumentation
//! ([`OpMetrics`]: rows in/out, batches, elapsed wall time), which is what
//! lets the system *talk back* about what it actually did — the §3.1
//! empty-result detective and the `EXPLAIN ANALYZE` narrator both read these
//! counters rather than re-executing the query.
//!
//! Blocking operators (sort, aggregation, the hash-join build side, the
//! nested-loop inner side) still buffer what they fundamentally must, but
//! pipelining operators (scan, filter, project, probe side of a hash join,
//! limit, distinct) stream batches of [`BATCH_SIZE`] rows end to end; a
//! `LIMIT` therefore stops pulling from its input as soon as it is
//! satisfied.
//!
//! Operator trees are **owned**: scans hold `Arc` handles to their tables
//! (via [`ExecContext`]) rather than borrowing from the database, so a
//! subtree is `Send` and can be shipped to a worker thread — the foundation
//! of the morsel-driven [`crate::exec::parallel`] layer. An
//! [`PlanNode::Exchange`] node splits its subtree's driver scan into row
//! ranges and runs one copy of the pipeline per morsel across workers,
//! gathering output in morsel order so results stay deterministic.

use crate::database::Database;
use crate::error::StoreError;
use crate::exec::aggregate::{AggExpr, GroupedAggregator};
use crate::exec::parallel::{ExchangeShared, ExchangeSource, JoinIndex, SemiBuild, SharedBuild};
use crate::exec::plan::{aggregate_output_columns, ApplyMode, ColumnInfo, Plan, PlanNode, SortKey};
use crate::exec::vector::{batch_group_keys, gather_selected, VectorPredicate};
use crate::expr::{CmpOp, Expr};
use crate::index::{IndexBounds, ProbeOrder};
use crate::obs::{Counter, ObsRegistry};
use crate::table::Table;
use crate::tuple::Row;
use crate::value::{GroupKey, Value};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows per batch pulled through the operator pipeline.
pub const BATCH_SIZE: usize = 1024;

/// Size bound of the `Apply` operator's per-binding memoization cache:
/// beyond this many distinct correlation keys, the oldest entries are
/// evicted (and the eviction surfaces in the operator's cache tally).
pub const APPLY_CACHE_CAP: usize = 1024;

/// An owned snapshot of the tables a plan can touch. Operator trees hold
/// `Arc` handles from here instead of borrowing the [`Database`], which is
/// what lets subtrees move to worker threads (and lets writers copy-on-write
/// under a running query instead of blocking it).
#[derive(Debug, Clone)]
pub struct ExecContext {
    tables: BTreeMap<String, Arc<Table>>,
    /// The owning database's observability registry — carried alongside the
    /// table snapshot so operators (including ones shipped to worker
    /// threads) report into the same engine-wide counters.
    obs: Arc<ObsRegistry>,
}

impl ExecContext {
    /// Snapshot every table handle of a database (shares rows, copies
    /// nothing).
    pub fn new(db: &Database) -> ExecContext {
        ExecContext {
            tables: db.table_arcs(),
            obs: Arc::clone(db.obs()),
        }
    }

    /// Table handle by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(&name.to_ascii_uppercase())
    }

    /// The engine-wide observability registry this snapshot reports into.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }
}

/// Per-open environment threaded through [`open_in`]: the shared build-state
/// cells of an enclosing exchange (if any) and the pre-order counter that
/// assigns each stateful node its cell index. Every worker of an exchange
/// opens the same plan with a fresh counter, so the indices line up.
pub(crate) struct OpenEnv<'e> {
    pub(crate) shared: Option<&'e Arc<ExchangeShared>>,
    pub(crate) next_cell: &'e Cell<usize>,
}

impl OpenEnv<'_> {
    /// Allocate the next stateful-node cell index (always advances, so the
    /// walk stays aligned whether or not an exchange is sharing state).
    fn alloc_cell(&self) -> Option<(Arc<ExchangeShared>, usize)> {
        let idx = self.next_cell.get();
        self.next_cell.set(idx + 1);
        self.shared.map(|s| (Arc::clone(s), idx))
    }
}

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

/// Pull one batch from a child while charging the wait to the parent's
/// `blocked` tally.
fn timed_pull(
    child: &mut Box<dyn RowSource>,
    blocked: &mut Duration,
) -> Result<Option<Vec<Row>>, StoreError> {
    let start = Instant::now();
    let result = child.next_batch();
    *blocked += start.elapsed();
    result
}

/// Fetch-or-build one piece of stateful operator input. Under an exchange
/// (`shared` is `Some`), the build goes through the shared cell so it
/// happens exactly once across workers; a worker that finds the cell
/// already claimed waits on the builder, and that wait is returned so the
/// caller can charge it to its `blocked` tally (it is not the operator's
/// own work). Outside an exchange the build simply runs.
fn build_or_share(
    shared: &Option<(Arc<ExchangeShared>, usize)>,
    build: impl FnOnce() -> Result<SharedBuild, StoreError>,
) -> Result<(SharedBuild, Duration), StoreError> {
    match shared {
        Some((cells, idx)) => {
            let wait_start = Instant::now();
            let built_here = Cell::new(false);
            let built = cells.get_or_build(*idx, || {
                built_here.set(true);
                build()
            })?;
            let waited = if built_here.get() {
                Duration::ZERO
            } else {
                wait_start.elapsed()
            };
            Ok((built, waited))
        }
        None => Ok((build()?, Duration::ZERO)),
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
    /// Output columns of this operator.
    pub columns: Vec<ColumnInfo>,
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
    /// Child profiles (inputs of this operator).
    pub children: Vec<PlanProfile>,
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
        self.metrics.rows_in += other.metrics.rows_in;
        self.metrics.rows_out += other.metrics.rows_out;
        self.metrics.batches += other.metrics.batches;
        self.metrics.elapsed += other.metrics.elapsed;
        self.metrics.blocked += other.metrics.blocked;
        self.metrics.vector_batches += other.metrics.vector_batches;
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
        self.render_into(&mut out, "", "", analyze, flag_factor);
        out
    }

    fn render_into(
        &self,
        out: &mut String,
        prefix: &str,
        child_prefix: &str,
        analyze: bool,
        flag_factor: f64,
    ) {
        out.push_str(prefix);
        out.push_str(&self.operator);
        if !self.detail.is_empty() {
            out.push_str(": ");
            out.push_str(&self.detail);
        }
        for tag in &self.tags {
            out.push_str(&format!("  [{tag}]"));
        }
        if let Some(workers) = self.workers.filter(|&w| w > 1) {
            out.push_str(&format!("  [workers={workers}]"));
        }
        let est = self.estimated_rows.map(|e| format!("{:.0}", e.round()));
        if analyze {
            match est {
                Some(est) => out.push_str(&format!(
                    "  [est={} actual={} in={} batches={}]",
                    est, self.metrics.rows_out, self.metrics.rows_in, self.metrics.batches
                )),
                None => out.push_str(&format!(
                    "  [actual={} in={} batches={}]",
                    self.metrics.rows_out, self.metrics.rows_in, self.metrics.batches
                )),
            }
            if let Some(factor) = self.misestimate_with(flag_factor) {
                out.push_str(&format!("  <-- est off by {factor:.0}x"));
            }
        } else if let Some(est) = est {
            out.push_str(&format!("  [est={est}]"));
        }
        out.push('\n');
        let n = self.children.len();
        for (i, child) in self.children.iter().enumerate() {
            let last = i + 1 == n;
            let branch = if last { "└─ " } else { "├─ " };
            let cont = if last { "   " } else { "│  " };
            child.render_into(
                out,
                &format!("{child_prefix}{branch}"),
                &format!("{child_prefix}{cont}"),
                analyze,
                flag_factor,
            );
        }
    }
}

/// Render a runtime expression with column positions resolved to names.
pub fn render_expr(expr: &Expr, columns: &[ColumnInfo]) -> String {
    match expr {
        Expr::Literal(v) => v.sql_literal(),
        Expr::Column(i) => columns
            .get(*i)
            .map(ColumnInfo::to_string)
            .unwrap_or_else(|| format!("#{i}")),
        Expr::Compare { op, left, right } => format!(
            "{} {} {}",
            render_expr(left, columns),
            op.sql(),
            render_expr(right, columns)
        ),
        Expr::And(l, r) => format!(
            "{} AND {}",
            render_expr(l, columns),
            render_expr(r, columns)
        ),
        Expr::Or(l, r) => format!(
            "({} OR {})",
            render_expr(l, columns),
            render_expr(r, columns)
        ),
        Expr::Not(e) => format!("NOT ({})", render_expr(e, columns)),
        Expr::Arith { op, left, right } => {
            let sym = match op {
                crate::expr::ArithOp::Add => "+",
                crate::expr::ArithOp::Sub => "-",
                crate::expr::ArithOp::Mul => "*",
                crate::expr::ArithOp::Div => "/",
            };
            format!(
                "{} {} {}",
                render_expr(left, columns),
                sym,
                render_expr(right, columns)
            )
        }
        Expr::IsNull(e) => format!("{} IS NULL", render_expr(e, columns)),
        Expr::Like { expr, pattern } => {
            format!("{} LIKE '{}'", render_expr(expr, columns), pattern)
        }
        Expr::InList { expr, list } => {
            let items: Vec<String> = list.iter().map(Value::sql_literal).collect();
            format!("{} IN ({})", render_expr(expr, columns), items.join(", "))
        }
        Expr::Param(id) => format!("${id}"),
    }
}

/// A pull-based operator: a batched row iterator with instrumentation.
/// Sources are `Send` — they own their state (table handles are `Arc`s), so
/// a subtree can execute on a worker thread.
pub trait RowSource: Send {
    /// Output column descriptors.
    fn columns(&self) -> &[ColumnInfo];
    /// Pull the next batch of rows; `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError>;
    /// Snapshot this operator subtree (name, detail, metrics, children).
    fn profile(&self) -> PlanProfile;
}

/// Open a plan into its operator tree without pulling any rows. Opening
/// validates table names and resolves output columns but does **not** read
/// data — `EXPLAIN` uses this to describe a plan without executing it.
pub fn open(db: &Database, plan: &Plan) -> Result<Box<dyn RowSource>, StoreError> {
    open_owned(&Arc::new(ExecContext::new(db)), plan)
}

/// [`open`] against an owned table snapshot (the entry point for callers
/// that already hold an [`ExecContext`], e.g. per-binding `Apply`
/// executions on worker threads).
pub fn open_owned(ctx: &Arc<ExecContext>, plan: &Plan) -> Result<Box<dyn RowSource>, StoreError> {
    let cell = Cell::new(0);
    let env = OpenEnv {
        shared: None,
        next_cell: &cell,
    };
    open_in(ctx, plan, &env, None)
}

/// Recursive open. `driver_range` restricts the pipeline's driver scan (the
/// leftmost leaf) to a morsel's row range; it is forwarded only along the
/// driver spine (inputs and join left sides) and consumed by the scan.
pub(crate) fn open_in(
    ctx: &Arc<ExecContext>,
    plan: &Plan,
    env: &OpenEnv,
    driver_range: Option<(usize, usize)>,
) -> Result<Box<dyn RowSource>, StoreError> {
    let est = plan.estimated_rows;
    let off_spine = |p: &Plan| open_in(ctx, p, env, None);
    Ok(match &plan.node {
        PlanNode::Scan { table, alias } => {
            let t = ctx
                .table(table)
                .ok_or_else(|| StoreError::UnknownTable {
                    table: table.clone(),
                })?
                .clone();
            Box::new(ScanSource::new(
                t,
                table.clone(),
                alias.clone(),
                est,
                driver_range,
                Arc::clone(ctx.obs()),
            ))
        }
        PlanNode::IndexScan {
            table,
            alias,
            index,
            bounds,
            order,
            index_only,
        } => {
            let t = ctx
                .table(table)
                .ok_or_else(|| StoreError::UnknownTable {
                    table: table.clone(),
                })?
                .clone();
            Box::new(IndexScanSource::open(
                t,
                table.clone(),
                alias.clone(),
                index,
                bounds.clone(),
                *order,
                *index_only,
                est,
                driver_range,
                Arc::clone(ctx.obs()),
            )?)
        }
        PlanNode::IndexNestedLoopJoin {
            left,
            table,
            alias,
            index,
            left_key,
        } => {
            let left = open_in(ctx, left, env, driver_range)?;
            let t = ctx
                .table(table)
                .ok_or_else(|| StoreError::UnknownTable {
                    table: table.clone(),
                })?
                .clone();
            Box::new(IndexNljSource::open(
                left,
                t,
                table.clone(),
                alias.clone(),
                index,
                *left_key,
                est,
                Arc::clone(ctx.obs()),
            )?)
        }
        PlanNode::Values { columns, rows } => Box::new(ValuesSource {
            columns: columns.clone(),
            rows: rows.clone(),
            cursor: 0,
            est,
            meter: OpMetrics::default(),
        }),
        PlanNode::Filter {
            input,
            predicate,
            vectorized,
        } => {
            let input = open_in(ctx, input, env, driver_range)?;
            let kernel = vectorized
                .then(|| VectorPredicate::compile(predicate))
                .flatten();
            Box::new(FilterSource {
                detail: render_expr(predicate, input.columns()),
                input,
                predicate: predicate.clone(),
                kernel,
                est,
                meter: OpMetrics::default(),
            })
        }
        PlanNode::Project {
            input,
            exprs,
            columns,
        } => {
            let input = open_in(ctx, input, env, driver_range)?;
            Box::new(ProjectSource {
                input,
                exprs: exprs.clone(),
                columns: columns.clone(),
                est,
                meter: OpMetrics::default(),
            })
        }
        PlanNode::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let shared = env.alloc_cell();
            let left = open_in(ctx, left, env, driver_range)?;
            let right = off_spine(right)?;
            let mut columns = left.columns().to_vec();
            columns.extend(right.columns().iter().cloned());
            let detail = match predicate {
                Some(p) => render_expr(p, &columns),
                None => "cross product".to_string(),
            };
            Box::new(NestedLoopJoinSource {
                left,
                right,
                predicate: predicate.clone(),
                columns,
                detail,
                right_rows: None,
                shared,
                pending: VecDeque::new(),
                done: false,
                est,
                meter: OpMetrics::default(),
            })
        }
        PlanNode::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            vectorized,
        } => {
            let shared = env.alloc_cell();
            let left = open_in(ctx, left, env, driver_range)?;
            let right = off_spine(right)?;
            let mut columns = left.columns().to_vec();
            columns.extend(right.columns().iter().cloned());
            let detail = left_keys
                .iter()
                .zip(right_keys)
                .map(|(&lk, &rk)| {
                    format!(
                        "{} = {}",
                        left.columns()
                            .get(lk)
                            .map(ColumnInfo::to_string)
                            .unwrap_or_else(|| format!("#{lk}")),
                        right
                            .columns()
                            .get(rk)
                            .map(ColumnInfo::to_string)
                            .unwrap_or_else(|| format!("#{rk}")),
                    )
                })
                .collect::<Vec<_>>()
                .join(" AND ");
            Box::new(HashJoinSource {
                left,
                right,
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                vectorized: *vectorized,
                columns,
                detail,
                build: None,
                shared,
                pending: VecDeque::new(),
                done: false,
                est,
                meter: OpMetrics::default(),
                obs: Arc::clone(ctx.obs()),
            })
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggregates,
            having,
            vectorized,
        } => {
            if *vectorized {
                // A vectorized aggregate directly over a (possibly
                // kernel-filtered) base-table scan fuses into one columnar
                // operator that reads the table in place — no row clones.
                if let Some(fused) = FusedAggregateScanSource::try_open(
                    ctx,
                    input,
                    group_by,
                    aggregates,
                    having,
                    est,
                    driver_range,
                )? {
                    return Ok(fused);
                }
            }
            let input = open_in(ctx, input, env, driver_range)?;
            let columns = aggregate_output_columns(input.columns(), group_by, aggregates);
            let detail = aggregate_detail(input.columns(), group_by, aggregates, having);
            Box::new(AggregateSource {
                input,
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
                having: having.clone(),
                vectorized: *vectorized,
                columns,
                detail,
                pending: None,
                est,
                meter: OpMetrics::default(),
            })
        }
        PlanNode::Sort { input, keys } => {
            let input = open_in(ctx, input, env, driver_range)?;
            let detail = keys
                .iter()
                .map(|k| {
                    format!(
                        "{}{}",
                        input
                            .columns()
                            .get(k.column)
                            .map(ColumnInfo::to_string)
                            .unwrap_or_else(|| format!("#{}", k.column)),
                        if k.ascending { "" } else { " DESC" }
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            Box::new(SortSource {
                input,
                keys: keys.clone(),
                detail,
                pending: None,
                est,
                meter: OpMetrics::default(),
            })
        }
        PlanNode::Limit { input, n } => {
            let input = open_in(ctx, input, env, driver_range)?;
            Box::new(LimitSource {
                input,
                remaining: *n,
                n: *n,
                est,
                meter: OpMetrics::default(),
            })
        }
        PlanNode::Distinct { input } => {
            let input = open_in(ctx, input, env, driver_range)?;
            Box::new(DistinctSource {
                input,
                seen: HashSet::new(),
                est,
                meter: OpMetrics::default(),
            })
        }
        PlanNode::HashSemiJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => Box::new(SemiJoinSource::open(
            ctx,
            env,
            driver_range,
            left,
            right,
            left_keys,
            right_keys,
            false,
            false,
            est,
        )?),
        PlanNode::HashAntiJoin {
            left,
            right,
            left_keys,
            right_keys,
            null_aware,
        } => Box::new(SemiJoinSource::open(
            ctx,
            env,
            driver_range,
            left,
            right,
            left_keys,
            right_keys,
            true,
            *null_aware,
            est,
        )?),
        PlanNode::ScalarSubquery {
            input,
            subplan,
            expr,
            op,
        } => {
            let shared = env.alloc_cell();
            let input = open_in(ctx, input, env, driver_range)?;
            let sub = off_spine(subplan)?;
            let detail = format!(
                "{} {} (subquery)",
                render_expr(expr, input.columns()),
                op.sql()
            );
            Box::new(ScalarSubquerySource {
                input,
                sub,
                expr: expr.clone(),
                op: *op,
                scalar: None,
                shared,
                detail,
                est,
                meter: OpMetrics::default(),
            })
        }
        PlanNode::Exchange {
            input,
            workers,
            gather,
        } => Box::new(ExchangeSource::open(
            ctx,
            input,
            *workers,
            gather.clone(),
            est,
        )?),
        PlanNode::Apply {
            input,
            subplan,
            params,
            mode,
            workers,
        } => {
            let input = open_in(ctx, input, env, driver_range)?;
            // Open the unbound template once: this validates the subplan and
            // yields the profile skeleton the per-binding executions will
            // accumulate their counters into.
            let sub_template = open_owned(ctx, subplan)?.profile();
            let in_cols = input.columns().to_vec();
            let mode_text = mode.describe(&|e| render_expr(e, &in_cols));
            let correlation: Vec<String> = params
                .iter()
                .map(|(_, idx)| {
                    in_cols
                        .get(*idx)
                        .map(ColumnInfo::to_string)
                        .unwrap_or_else(|| format!("#{idx}"))
                })
                .collect();
            let detail = if correlation.is_empty() {
                mode_text
            } else {
                format!("{mode_text} correlated on {}", correlation.join(", "))
            };
            Box::new(ApplySource {
                ctx: Arc::clone(ctx),
                input,
                subplan: (**subplan).clone(),
                param_cols: params.iter().map(|&(_, i)| i).collect(),
                params: params.clone(),
                mode: mode.clone(),
                workers: (*workers).max(1),
                detail,
                sub_profile: sub_template,
                cache: HashMap::new(),
                cache_order: VecDeque::new(),
                evictions: 0,
                evaluations: 0,
                cache_hits: 0,
                est,
                meter: OpMetrics::default(),
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

struct ScanSource {
    table: Arc<Table>,
    table_name: String,
    alias: String,
    columns: Vec<ColumnInfo>,
    cursor: usize,
    /// One past the last row this scan reads — the table length for a full
    /// scan, the morsel's upper bound for a partitioned one.
    end: usize,
    est: Option<f64>,
    meter: OpMetrics,
    obs: Arc<ObsRegistry>,
}

impl ScanSource {
    fn new(
        table: Arc<Table>,
        table_name: String,
        alias: String,
        est: Option<f64>,
        range: Option<(usize, usize)>,
        obs: Arc<ObsRegistry>,
    ) -> ScanSource {
        let columns = table
            .schema()
            .columns
            .iter()
            .map(|c| ColumnInfo::qualified(alias.clone(), c.name.clone()))
            .collect();
        let len = table.len();
        let (cursor, end) = match range {
            Some((start, end)) => (start.min(len), end.min(len)),
            None => (0, len),
        };
        ScanSource {
            table,
            table_name,
            alias,
            columns,
            cursor,
            end,
            est,
            meter: OpMetrics::default(),
            obs,
        }
    }
}

impl RowSource for ScanSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        let rows = self.table.rows();
        let result = if self.cursor >= self.end {
            None
        } else {
            let end = (self.cursor + BATCH_SIZE).min(self.end);
            let batch = rows[self.cursor..end].to_vec();
            self.cursor = end;
            self.meter.rows_in += batch.len() as u64;
            self.meter.rows_out += batch.len() as u64;
            self.meter.batches += 1;
            self.obs.add(Counter::RowsScanned, batch.len() as u64);
            Some(batch)
        };
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "scan".to_string(),
            detail: if self.alias == self.table_name {
                self.table_name.clone()
            } else {
                format!("{} as {}", self.table_name, self.alias)
            },
            columns: self.columns.clone(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Index scan
// ---------------------------------------------------------------------------

/// Index-backed access path: probe one secondary index, read only the
/// matching rows. Matching positions are resolved lazily on the first pull
/// (opening a plan must read no data), in table position order by default —
/// so the output is byte-identical to the equivalent filtered full scan —
/// or sorted by key (either direction) when the planner elided a sort. In
/// index-only mode the rows are synthesized from the index keys and the
/// heap is never read.
struct IndexScanSource {
    table: Arc<Table>,
    /// Position of the probed index within the table's index list (stable
    /// for the lifetime of this snapshot).
    index_pos: usize,
    bounds: IndexBounds,
    order: ProbeOrder,
    index_only: bool,
    columns: Vec<ColumnInfo>,
    detail: String,
    access: IndexAccess,
    /// Matching heap row positions, resolved on first pull (heap mode).
    positions: Option<Vec<usize>>,
    /// Rows synthesized from index keys, resolved on first pull
    /// (index-only mode).
    index_rows: Option<Vec<Row>>,
    cursor: usize,
    /// Morsel restriction over table row positions, when this scan drives an
    /// exchange pipeline.
    driver_range: Option<(usize, usize)>,
    est: Option<f64>,
    meter: OpMetrics,
    obs: Arc<ObsRegistry>,
}

impl IndexScanSource {
    #[allow(clippy::too_many_arguments)]
    fn open(
        table: Arc<Table>,
        table_name: String,
        alias: String,
        index: &str,
        bounds: IndexBounds,
        order: ProbeOrder,
        index_only: bool,
        est: Option<f64>,
        driver_range: Option<(usize, usize)>,
        obs: Arc<ObsRegistry>,
    ) -> Result<IndexScanSource, StoreError> {
        let index_pos = table
            .indexes()
            .iter()
            .position(|i| i.def().name.eq_ignore_ascii_case(index))
            .ok_or_else(|| StoreError::UnknownIndex {
                index: index.to_string(),
            })?;
        let idx = &table.indexes()[index_pos];
        let exact = bounds.is_exact(idx.width());
        if !exact && !idx.supports_range() {
            return Err(StoreError::Eval {
                message: format!(
                    "index {} is a hash index and cannot answer a range or prefix probe",
                    idx.def().name
                ),
            });
        }
        if index_only && !idx.supports_range() {
            return Err(StoreError::Eval {
                message: format!(
                    "index {} is a hash index and cannot answer an index-only scan",
                    idx.def().name
                ),
            });
        }
        let columns: Vec<ColumnInfo> = if index_only {
            idx.def()
                .columns
                .iter()
                .map(|c| ColumnInfo::qualified(alias.clone(), c.clone()))
                .collect()
        } else {
            table
                .schema()
                .columns
                .iter()
                .map(|c| ColumnInfo::qualified(alias.clone(), c.name.clone()))
                .collect()
        };
        let base = if alias == table_name {
            table_name.clone()
        } else {
            format!("{table_name} as {alias}")
        };
        let qualified: Vec<String> = idx
            .def()
            .columns
            .iter()
            .map(|c| format!("{alias}.{c}"))
            .collect();
        let predicate = bounds.describe(&qualified);
        let mode = if exact {
            "point"
        } else if bounds.lo.is_none() && bounds.hi.is_none() && !bounds.eq.is_empty() {
            "prefix"
        } else {
            "range"
        };
        let order_tag = match order {
            ProbeOrder::Position => "",
            ProbeOrder::KeyAsc => ", key order",
            ProbeOrder::KeyDesc => ", key order desc",
        };
        let detail = format!(
            "{base} [index={} {mode} {predicate}{order_tag}]{}",
            idx.def().name,
            if index_only { " [index-only]" } else { "" },
        );
        let access = IndexAccess {
            table: table_name,
            alias,
            index: idx.def().name.clone(),
            point: exact,
            predicate: Some(predicate),
            order,
            index_only,
        };
        Ok(IndexScanSource {
            table,
            index_pos,
            bounds,
            order,
            index_only,
            columns,
            detail,
            access,
            positions: None,
            index_rows: None,
            cursor: 0,
            driver_range,
            est,
            meter: OpMetrics::default(),
            obs,
        })
    }

    fn resolve(&mut self) -> Result<(), StoreError> {
        if self.positions.is_some() || self.index_rows.is_some() {
            return Ok(());
        }
        let index = &self.table.indexes()[self.index_pos];
        let in_range = |p: usize| match self.driver_range {
            // Morsel restriction: keep only matches inside this morsel's row
            // range (the relative order of survivors is unchanged).
            Some((start, end)) => p >= start && p < end,
            None => true,
        };
        if self.index_only {
            let entries = index.probe_entries(&self.bounds, self.order)?;
            self.index_rows = Some(
                entries
                    .into_iter()
                    .filter(|(p, _)| in_range(*p))
                    .map(|(_, values)| Row::new(values))
                    .collect(),
            );
        } else {
            let mut positions = index.probe(&self.bounds, self.order)?;
            positions.retain(|&p| in_range(p));
            self.positions = Some(positions);
        }
        self.obs.incr(Counter::IndexProbes);
        let matched = match (&self.positions, &self.index_rows) {
            (Some(p), _) => p.len(),
            (_, Some(r)) => r.len(),
            _ => 0,
        };
        if matched == 0 {
            self.obs.incr(Counter::EmptyIndexProbes);
        }
        Ok(())
    }

    fn remaining(&self) -> usize {
        let total = match (&self.positions, &self.index_rows) {
            (Some(p), _) => p.len(),
            (_, Some(r)) => r.len(),
            _ => 0,
        };
        total.saturating_sub(self.cursor)
    }
}

impl RowSource for IndexScanSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        self.resolve()?;
        let result = if self.remaining() == 0 {
            None
        } else {
            let take = self.remaining().min(BATCH_SIZE);
            let end = self.cursor + take;
            let batch: Vec<Row> = if let Some(positions) = &self.positions {
                let rows = self.table.rows();
                positions[self.cursor..end]
                    .iter()
                    .map(|&p| rows[p].clone())
                    .collect()
            } else {
                let rows = self.index_rows.as_ref().expect("resolved above");
                rows[self.cursor..end].to_vec()
            };
            self.cursor = end;
            self.meter.rows_in += batch.len() as u64;
            self.meter.rows_out += batch.len() as u64;
            self.meter.batches += 1;
            self.obs.add(Counter::RowsScanned, batch.len() as u64);
            Some(batch)
        };
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "index scan".to_string(),
            detail: self.detail.clone(),
            columns: self.columns.clone(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: Some(self.access.clone()),
            children: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Index nested-loop join
// ---------------------------------------------------------------------------

/// For each left row, probe the inner table's index with the value at
/// `left_key` and emit the concatenated matches (index insertion order, so
/// output order is deterministic). There is no build side at all — the
/// planner's choice when the outer is tiny and building a hash table over
/// the whole inner would dominate.
struct IndexNljSource {
    left: Box<dyn RowSource>,
    table: Arc<Table>,
    /// `"TABLE"` or `"TABLE as alias"`, for the probe-side pseudo-profile.
    inner_desc: String,
    /// Structured probe metadata for the pseudo-profile.
    access: IndexAccess,
    index_pos: usize,
    left_key: usize,
    columns: Vec<ColumnInfo>,
    inner_columns: Vec<ColumnInfo>,
    detail: String,
    pending: VecDeque<Row>,
    done: bool,
    /// Probes issued (non-NULL left keys).
    probes: u64,
    /// Inner rows fetched across all probes.
    matches: u64,
    est: Option<f64>,
    meter: OpMetrics,
    obs: Arc<ObsRegistry>,
}

impl IndexNljSource {
    #[allow(clippy::too_many_arguments)]
    fn open(
        left: Box<dyn RowSource>,
        table: Arc<Table>,
        table_name: String,
        alias: String,
        index: &str,
        left_key: usize,
        est: Option<f64>,
        obs: Arc<ObsRegistry>,
    ) -> Result<IndexNljSource, StoreError> {
        let index_pos = table
            .indexes()
            .iter()
            .position(|i| i.def().name.eq_ignore_ascii_case(index))
            .ok_or_else(|| StoreError::UnknownIndex {
                index: index.to_string(),
            })?;
        let idx = &table.indexes()[index_pos];
        if idx.width() != 1 {
            return Err(StoreError::Eval {
                message: format!(
                    "index {} is a composite index and cannot drive a single-key nested-loop probe",
                    idx.def().name
                ),
            });
        }
        let inner_columns: Vec<ColumnInfo> = table
            .schema()
            .columns
            .iter()
            .map(|c| ColumnInfo::qualified(alias.clone(), c.name.clone()))
            .collect();
        let mut columns = left.columns().to_vec();
        columns.extend(inner_columns.iter().cloned());
        let left_col = left
            .columns()
            .get(left_key)
            .map(ColumnInfo::to_string)
            .unwrap_or_else(|| format!("#{left_key}"));
        let detail = format!(
            "{left_col} = {}.{} [index={}]",
            alias,
            idx.def().columns[0],
            idx.def().name
        );
        let inner_desc = if alias == table_name {
            table_name.clone()
        } else {
            format!("{table_name} as {alias}")
        };
        let access = IndexAccess {
            table: table_name,
            alias,
            index: idx.def().name.clone(),
            point: true,
            predicate: None,
            order: ProbeOrder::Position,
            index_only: false,
        };
        Ok(IndexNljSource {
            left,
            table,
            inner_desc,
            access,
            index_pos,
            left_key,
            columns,
            inner_columns,
            detail,
            pending: VecDeque::new(),
            done: false,
            probes: 0,
            matches: 0,
            est,
            meter: OpMetrics::default(),
            obs,
        })
    }
}

impl RowSource for IndexNljSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        while self.pending.len() < BATCH_SIZE && !self.done {
            match timed_pull(&mut self.left, &mut self.meter.blocked)? {
                None => self.done = true,
                Some(batch) => {
                    self.meter.rows_in += batch.len() as u64;
                    let index = &self.table.indexes()[self.index_pos];
                    let rows = self.table.rows();
                    let mut probes = 0u64;
                    let mut empty = 0u64;
                    for lr in &batch {
                        let probe = lr.get(self.left_key).cloned().unwrap_or(Value::Null);
                        if probe.is_null() {
                            continue; // SQL equality never matches NULL.
                        }
                        probes += 1;
                        let positions = index.probe_point(&probe);
                        if positions.is_empty() {
                            empty += 1;
                        }
                        for &pos in positions {
                            self.matches += 1;
                            self.pending.push_back(lr.concat(&rows[pos]));
                        }
                    }
                    self.probes += probes;
                    self.obs.add(Counter::IndexProbes, probes);
                    self.obs.add(Counter::EmptyIndexProbes, empty);
                }
            }
        }
        let result = drain_pending(&mut self.pending, &mut self.meter);
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        let index = &self.table.indexes()[self.index_pos];
        // The probe side is not an operator of its own (there is no build),
        // but the profile still shows it as a child so narrations and the
        // empty-result detective can see both sides of the join.
        let tally = if self.probes > 0 {
            format!(
                " ({} probe{}, {} match{})",
                self.probes,
                if self.probes == 1 { "" } else { "s" },
                self.matches,
                if self.matches == 1 { "" } else { "es" },
            )
        } else {
            String::new()
        };
        let probe_side = PlanProfile {
            operator: "index probe".to_string(),
            detail: format!("{} [index={}]{}", self.inner_desc, index.def().name, tally),
            columns: self.inner_columns.clone(),
            estimated_rows: None,
            metrics: OpMetrics {
                rows_in: self.probes,
                rows_out: self.matches,
                ..OpMetrics::default()
            },
            workers: None,
            tags: Vec::new(),
            access: Some(self.access.clone()),
            children: Vec::new(),
        };
        PlanProfile {
            operator: "index nested-loop join".to_string(),
            detail: self.detail.clone(),
            columns: self.columns.clone(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: vec![self.left.profile(), probe_side],
        }
    }
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

struct ValuesSource {
    columns: Vec<ColumnInfo>,
    rows: Vec<Row>,
    cursor: usize,
    est: Option<f64>,
    meter: OpMetrics,
}

impl RowSource for ValuesSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        let result = if self.cursor >= self.rows.len() {
            None
        } else {
            let end = (self.cursor + BATCH_SIZE).min(self.rows.len());
            let batch = self.rows[self.cursor..end].to_vec();
            self.cursor = end;
            self.meter.rows_out += batch.len() as u64;
            self.meter.batches += 1;
            Some(batch)
        };
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "values".to_string(),
            detail: format!("{} literal rows", self.rows.len()),
            columns: self.columns.clone(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

struct FilterSource {
    input: Box<dyn RowSource>,
    predicate: Expr,
    /// Typed-kernel compilation of the predicate, when the planner marked
    /// this filter vectorized and the expression shape allows it. Batches
    /// whose columns resist transposition still fall back to row-at-a-time
    /// evaluation individually.
    kernel: Option<VectorPredicate>,
    detail: String,
    est: Option<f64>,
    meter: OpMetrics,
}

impl RowSource for FilterSource {
    fn columns(&self) -> &[ColumnInfo] {
        self.input.columns()
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        let result = loop {
            match timed_pull(&mut self.input, &mut self.meter.blocked)? {
                None => break None,
                Some(batch) => {
                    self.meter.rows_in += batch.len() as u64;
                    let mask = self.kernel.as_ref().and_then(|k| k.evaluate(&batch));
                    let kept = match mask {
                        Some(mask) => {
                            self.meter.vector_batches += 1;
                            gather_selected(batch, &mask)
                        }
                        None => {
                            let mut kept = Vec::new();
                            for row in batch {
                                if self.predicate.eval_predicate(&row)? {
                                    kept.push(row);
                                }
                            }
                            kept
                        }
                    };
                    if !kept.is_empty() {
                        self.meter.rows_out += kept.len() as u64;
                        self.meter.batches += 1;
                        break Some(kept);
                    }
                    // Keep pulling until a non-empty output batch or EOF.
                }
            }
        };
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "filter".to_string(),
            detail: self.detail.clone(),
            columns: self.input.columns().to_vec(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: if self.kernel.is_some() {
                vec!["vectorized".to_string()]
            } else {
                Vec::new()
            },
            access: None,
            children: vec![self.input.profile()],
        }
    }
}

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

struct ProjectSource {
    input: Box<dyn RowSource>,
    exprs: Vec<Expr>,
    columns: Vec<ColumnInfo>,
    est: Option<f64>,
    meter: OpMetrics,
}

impl RowSource for ProjectSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        let result = match timed_pull(&mut self.input, &mut self.meter.blocked)? {
            None => None,
            Some(batch) => {
                self.meter.rows_in += batch.len() as u64;
                let mut rows = Vec::with_capacity(batch.len());
                for row in &batch {
                    let mut values = Vec::with_capacity(self.exprs.len());
                    for e in &self.exprs {
                        values.push(e.eval(row)?);
                    }
                    rows.push(Row::new(values));
                }
                self.meter.rows_out += rows.len() as u64;
                self.meter.batches += 1;
                Some(rows)
            }
        };
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "project".to_string(),
            detail: self
                .columns
                .iter()
                .map(ColumnInfo::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            columns: self.columns.clone(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: vec![self.input.profile()],
        }
    }
}

// ---------------------------------------------------------------------------
// Nested-loop join
// ---------------------------------------------------------------------------

struct NestedLoopJoinSource {
    left: Box<dyn RowSource>,
    right: Box<dyn RowSource>,
    predicate: Option<Expr>,
    columns: Vec<ColumnInfo>,
    detail: String,
    /// Materialized inner side (built on first pull, shared across the
    /// workers of an enclosing exchange).
    right_rows: Option<Arc<Vec<Row>>>,
    shared: Option<(Arc<ExchangeShared>, usize)>,
    pending: VecDeque<Row>,
    done: bool,
    est: Option<f64>,
    meter: OpMetrics,
}

impl NestedLoopJoinSource {
    fn build(&mut self) -> Result<(), StoreError> {
        if self.right_rows.is_some() {
            return Ok(());
        }
        let right = &mut self.right;
        let meter = &mut self.meter;
        let materialize = || -> Result<SharedBuild, StoreError> {
            let mut rows = Vec::new();
            while let Some(batch) = timed_pull(right, &mut meter.blocked)? {
                meter.rows_in += batch.len() as u64;
                rows.extend(batch);
            }
            Ok(SharedBuild::Rows(Arc::new(rows)))
        };
        let (built, waited) = build_or_share(&self.shared, materialize)?;
        self.meter.blocked += waited;
        let SharedBuild::Rows(rows) = built else {
            unreachable!("nested-loop cell always holds rows");
        };
        self.right_rows = Some(rows);
        Ok(())
    }
}

impl RowSource for NestedLoopJoinSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        self.build()?;
        while self.pending.len() < BATCH_SIZE && !self.done {
            match timed_pull(&mut self.left, &mut self.meter.blocked)? {
                None => self.done = true,
                Some(batch) => {
                    self.meter.rows_in += batch.len() as u64;
                    let right = self.right_rows.as_ref().expect("built above");
                    for lr in &batch {
                        for rr in right.iter() {
                            let joined = lr.concat(rr);
                            let keep = match &self.predicate {
                                None => true,
                                Some(p) => p.eval_predicate(&joined)?,
                            };
                            if keep {
                                self.pending.push_back(joined);
                            }
                        }
                    }
                }
            }
        }
        let result = drain_pending(&mut self.pending, &mut self.meter);
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "nested-loop join".to_string(),
            detail: self.detail.clone(),
            columns: self.columns.clone(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: vec![self.left.profile(), self.right.profile()],
        }
    }
}

/// Emit up to one batch from an operator's output buffer.
fn drain_pending(pending: &mut VecDeque<Row>, meter: &mut OpMetrics) -> Option<Vec<Row>> {
    if pending.is_empty() {
        return None;
    }
    let take = pending.len().min(BATCH_SIZE);
    let batch: Vec<Row> = pending.drain(..take).collect();
    meter.rows_out += batch.len() as u64;
    meter.batches += 1;
    Some(batch)
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

struct HashJoinSource {
    left: Box<dyn RowSource>,
    right: Box<dyn RowSource>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    /// Compute probe keys column-major over each batch.
    vectorized: bool,
    columns: Vec<ColumnInfo>,
    detail: String,
    /// Hash index over the build (right) side, built on first pull: key →
    /// build rows with that key. Shared across the workers of an enclosing
    /// exchange (built once, by whichever worker gets there first) and
    /// hash-partitioned across threads for large builds.
    build: Option<Arc<JoinIndex>>,
    shared: Option<(Arc<ExchangeShared>, usize)>,
    pending: VecDeque<Row>,
    done: bool,
    est: Option<f64>,
    meter: OpMetrics,
    obs: Arc<ObsRegistry>,
}

impl HashJoinSource {
    fn build(&mut self) -> Result<(), StoreError> {
        if self.build.is_some() {
            return Ok(());
        }
        let right = &mut self.right;
        let meter = &mut self.meter;
        let right_keys = &self.right_keys;
        let build_workers = self.shared.as_ref().map(|(s, _)| s.workers()).unwrap_or(1);
        let obs = Arc::clone(&self.obs);
        let construct = || -> Result<SharedBuild, StoreError> {
            let mut rows = Vec::new();
            while let Some(batch) = timed_pull(right, &mut meter.blocked)? {
                meter.rows_in += batch.len() as u64;
                rows.extend(batch);
            }
            // Counted inside the build closure: under an exchange the build
            // runs once across workers, and so must the counter.
            obs.add(Counter::HashBuildRows, rows.len() as u64);
            Ok(SharedBuild::Join(Arc::new(JoinIndex::build(
                rows,
                right_keys,
                build_workers,
            ))))
        };
        let (built, waited) = build_or_share(&self.shared, construct)?;
        self.meter.blocked += waited;
        let SharedBuild::Join(index) = built else {
            unreachable!("hash-join cell always holds a join index");
        };
        self.build = Some(index);
        Ok(())
    }
}

impl RowSource for HashJoinSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        self.build()?;
        while self.pending.len() < BATCH_SIZE && !self.done {
            match timed_pull(&mut self.left, &mut self.meter.blocked)? {
                None => self.done = true,
                Some(batch) => {
                    self.meter.rows_in += batch.len() as u64;
                    let index = self.build.as_ref().expect("built above");
                    if self.vectorized {
                        // Probe keys computed column-major over the batch.
                        let keys = batch_group_keys(&batch, &self.left_keys);
                        self.meter.vector_batches += 1;
                        for (lr, key) in batch.iter().zip(&keys) {
                            if key.contains(&GroupKey::Null) {
                                continue;
                            }
                            if let Some(matches) = index.lookup(key) {
                                for rr in matches {
                                    self.pending.push_back(lr.concat(rr));
                                }
                            }
                        }
                    } else {
                        for lr in &batch {
                            let key = lr.group_key(&self.left_keys);
                            if key.contains(&GroupKey::Null) {
                                continue;
                            }
                            if let Some(matches) = index.lookup(&key) {
                                for rr in matches {
                                    self.pending.push_back(lr.concat(rr));
                                }
                            }
                        }
                    }
                }
            }
        }
        let result = drain_pending(&mut self.pending, &mut self.meter);
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "hash join".to_string(),
            detail: self.detail.clone(),
            columns: self.columns.clone(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: if self.vectorized {
                vec!["vectorized".to_string()]
            } else {
                Vec::new()
            },
            access: None,
            children: vec![self.left.profile(), self.right.profile()],
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------------

struct AggregateSource {
    input: Box<dyn RowSource>,
    group_by: Vec<usize>,
    aggregates: Vec<AggExpr>,
    having: Option<Expr>,
    /// Accumulate column-major when every aggregate argument is a column.
    vectorized: bool,
    columns: Vec<ColumnInfo>,
    detail: String,
    /// Result rows, computed on first pull.
    pending: Option<VecDeque<Row>>,
    est: Option<f64>,
    meter: OpMetrics,
}

impl AggregateSource {
    fn compute(&mut self) -> Result<(), StoreError> {
        if self.pending.is_some() {
            return Ok(());
        }
        let mut agg = GroupedAggregator::new(
            self.group_by.clone(),
            self.aggregates.clone(),
            self.vectorized,
        );
        while let Some(batch) = timed_pull(&mut self.input, &mut self.meter.blocked)? {
            self.meter.rows_in += batch.len() as u64;
            agg.push_batch(&batch)?;
        }
        self.meter.vector_batches = agg.vector_batches();
        let rows = agg.finish(self.having.as_ref())?;
        self.pending = Some(rows.into());
        Ok(())
    }
}

impl RowSource for AggregateSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        self.compute()?;
        let result = drain_pending(
            self.pending.as_mut().expect("computed above"),
            &mut self.meter,
        );
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "aggregate".to_string(),
            detail: self.detail.clone(),
            columns: self.columns.clone(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: if self.vectorized {
                vec!["vectorized".to_string()]
            } else {
                Vec::new()
            },
            access: None,
            children: vec![self.input.profile()],
        }
    }
}

/// Render the aggregate operator's detail line ("group by …; cnt, total").
fn aggregate_detail(
    input_columns: &[ColumnInfo],
    group_by: &[usize],
    aggregates: &[AggExpr],
    having: &Option<Expr>,
) -> String {
    let mut parts = Vec::new();
    if !group_by.is_empty() {
        let keys: Vec<String> = group_by
            .iter()
            .map(|&i| {
                input_columns
                    .get(i)
                    .map(ColumnInfo::to_string)
                    .unwrap_or_else(|| format!("#{i}"))
            })
            .collect();
        parts.push(format!("group by {}", keys.join(", ")));
    }
    let aggs: Vec<String> = aggregates.iter().map(|a| a.output_name.clone()).collect();
    parts.push(aggs.join(", "));
    if having.is_some() {
        parts.push("having …".to_string());
    }
    parts.join("; ")
}

// ---------------------------------------------------------------------------
// Fused columnar scan → filter → aggregate
// ---------------------------------------------------------------------------

/// The filter half of a fused pipeline: the compiled kernel plus everything
/// needed to report the operator as if it had run standalone.
struct FusedFilter {
    predicate: Expr,
    kernel: VectorPredicate,
    detail: String,
    est: Option<f64>,
    meter: OpMetrics,
}

/// A vectorized `aggregate ← [filter ←] scan` pipeline collapsed into one
/// columnar operator. The generic sources move `Row`s between operators,
/// which for a base-table scan means cloning every tuple — title strings
/// and all — only for the aggregate to read two integer columns. This
/// source instead walks the table's row slice in place, evaluates the
/// filter kernel over borrowed batches, and gathers just the referenced
/// columns through the selection vector into the accumulation kernels.
/// Results, the profile tree, and all per-operator counters are identical
/// to the unfused pipeline; only the row copies are gone.
struct FusedAggregateScanSource {
    table: Arc<Table>,
    cursor: usize,
    end: usize,
    group_by: Vec<usize>,
    aggregates: Vec<AggExpr>,
    having: Option<Expr>,
    filter: Option<FusedFilter>,
    /// Output columns of the aggregate (group keys then aggregate values).
    columns: Vec<ColumnInfo>,
    detail: String,
    est: Option<f64>,
    meter: OpMetrics,
    /// Reporting state for the fused scan leaf.
    scan_columns: Vec<ColumnInfo>,
    scan_detail: String,
    scan_est: Option<f64>,
    scan_meter: OpMetrics,
    pending: Option<VecDeque<Row>>,
    obs: Arc<ObsRegistry>,
}

impl FusedAggregateScanSource {
    /// Fuse when the input is a base-table scan, optionally under exactly
    /// one vectorized filter whose predicate compiles, and every aggregate
    /// argument is a plain column (or `*`) — the shapes where the typed
    /// kernels can actually engage. Anything else returns `None` and the
    /// caller builds the generic operator chain.
    #[allow(clippy::too_many_arguments)]
    fn try_open(
        ctx: &Arc<ExecContext>,
        input: &Plan,
        group_by: &[usize],
        aggregates: &[AggExpr],
        having: &Option<Expr>,
        est: Option<f64>,
        driver_range: Option<(usize, usize)>,
    ) -> Result<Option<Box<dyn RowSource>>, StoreError> {
        if aggregates
            .iter()
            .any(|a| matches!(&a.arg, Some(e) if !matches!(e, Expr::Column(_))))
        {
            return Ok(None);
        }
        let (filter_parts, scan_plan) = match &input.node {
            PlanNode::Scan { .. } => (None, input),
            PlanNode::Filter {
                input: scan,
                predicate,
                vectorized: true,
            } if matches!(scan.node, PlanNode::Scan { .. }) => {
                match VectorPredicate::compile(predicate) {
                    Some(kernel) => (
                        Some((predicate, kernel, input.estimated_rows)),
                        scan.as_ref(),
                    ),
                    None => return Ok(None),
                }
            }
            _ => return Ok(None),
        };
        let PlanNode::Scan { table, alias } = &scan_plan.node else {
            return Ok(None);
        };
        let t = ctx
            .table(table)
            .ok_or_else(|| StoreError::UnknownTable {
                table: table.clone(),
            })?
            .clone();
        let scan_columns: Vec<ColumnInfo> = t
            .schema()
            .columns
            .iter()
            .map(|c| ColumnInfo::qualified(alias.clone(), c.name.clone()))
            .collect();
        let len = t.len();
        let (cursor, end) = match driver_range {
            Some((start, stop)) => (start.min(len), stop.min(len)),
            None => (0, len),
        };
        let filter = filter_parts.map(|(predicate, kernel, fest)| FusedFilter {
            detail: render_expr(predicate, &scan_columns),
            predicate: predicate.clone(),
            kernel,
            est: fest,
            meter: OpMetrics::default(),
        });
        Ok(Some(Box::new(FusedAggregateScanSource {
            scan_detail: if alias == table {
                table.clone()
            } else {
                format!("{table} as {alias}")
            },
            scan_est: scan_plan.estimated_rows,
            scan_meter: OpMetrics::default(),
            table: t,
            cursor,
            end,
            columns: aggregate_output_columns(&scan_columns, group_by, aggregates),
            detail: aggregate_detail(&scan_columns, group_by, aggregates, having),
            scan_columns,
            group_by: group_by.to_vec(),
            aggregates: aggregates.to_vec(),
            having: having.clone(),
            filter,
            est,
            meter: OpMetrics::default(),
            pending: None,
            obs: Arc::clone(ctx.obs()),
        })))
    }

    fn compute(&mut self) -> Result<(), StoreError> {
        if self.pending.is_some() {
            return Ok(());
        }
        let mut agg = GroupedAggregator::new(self.group_by.clone(), self.aggregates.clone(), true);
        let table = Arc::clone(&self.table);
        let rows = table.rows();
        let mut sel: Vec<usize> = Vec::with_capacity(BATCH_SIZE);
        while self.cursor < self.end {
            let stop = (self.cursor + BATCH_SIZE).min(self.end);
            let chunk = &rows[self.cursor..stop];
            self.cursor = stop;
            self.scan_meter.rows_in += chunk.len() as u64;
            self.scan_meter.rows_out += chunk.len() as u64;
            self.scan_meter.batches += 1;
            self.obs.add(Counter::RowsScanned, chunk.len() as u64);
            match &mut self.filter {
                None => {
                    self.meter.rows_in += chunk.len() as u64;
                    agg.push_batch(chunk)?;
                }
                Some(f) => {
                    f.meter.rows_in += chunk.len() as u64;
                    sel.clear();
                    match f.kernel.evaluate(chunk) {
                        Some(mask) => {
                            f.meter.vector_batches += 1;
                            sel.extend(
                                mask.iter()
                                    .enumerate()
                                    .filter_map(|(i, &keep)| keep.then_some(i)),
                            );
                        }
                        None => {
                            // This batch resists the kernel (mixed column
                            // types): evaluate row-at-a-time, still borrowed.
                            for (i, row) in chunk.iter().enumerate() {
                                if f.predicate.eval_predicate(row)? {
                                    sel.push(i);
                                }
                            }
                        }
                    }
                    f.meter.rows_out += sel.len() as u64;
                    if !sel.is_empty() {
                        f.meter.batches += 1;
                    }
                    self.meter.rows_in += sel.len() as u64;
                    agg.push_selected(chunk, &sel)?;
                }
            }
        }
        self.meter.vector_batches = agg.vector_batches();
        let out = agg.finish(self.having.as_ref())?;
        self.pending = Some(out.into());
        Ok(())
    }
}

impl RowSource for FusedAggregateScanSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        self.compute()?;
        let result = drain_pending(
            self.pending.as_mut().expect("computed above"),
            &mut self.meter,
        );
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        // Report the fused pipeline exactly as its unfused tree would:
        // aggregate over (filter over) scan, each with its own counters.
        let mut child = PlanProfile {
            operator: "scan".to_string(),
            detail: self.scan_detail.clone(),
            columns: self.scan_columns.clone(),
            estimated_rows: self.scan_est,
            metrics: self.scan_meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: Vec::new(),
        };
        if let Some(f) = &self.filter {
            child = PlanProfile {
                operator: "filter".to_string(),
                detail: f.detail.clone(),
                columns: self.scan_columns.clone(),
                estimated_rows: f.est,
                metrics: f.meter,
                workers: None,
                tags: vec!["vectorized".to_string()],
                access: None,
                children: vec![child],
            };
        }
        PlanProfile {
            operator: "aggregate".to_string(),
            detail: self.detail.clone(),
            columns: self.columns.clone(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: vec!["vectorized".to_string()],
            access: None,
            children: vec![child],
        }
    }
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

struct SortSource {
    input: Box<dyn RowSource>,
    keys: Vec<SortKey>,
    detail: String,
    pending: Option<VecDeque<Row>>,
    est: Option<f64>,
    meter: OpMetrics,
}

impl RowSource for SortSource {
    fn columns(&self) -> &[ColumnInfo] {
        self.input.columns()
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        if self.pending.is_none() {
            let mut rows = Vec::new();
            while let Some(batch) = timed_pull(&mut self.input, &mut self.meter.blocked)? {
                self.meter.rows_in += batch.len() as u64;
                rows.extend(batch);
            }
            sort_rows(&mut rows, &self.keys);
            self.pending = Some(rows.into());
        }
        let result = drain_pending(
            self.pending.as_mut().expect("sorted above"),
            &mut self.meter,
        );
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "sort".to_string(),
            detail: self.detail.clone(),
            columns: self.input.columns().to_vec(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: vec![self.input.profile()],
        }
    }
}

/// Stable multi-key sort used by the sort operator.
pub fn sort_rows(rows: &mut [Row], keys: &[SortKey]) {
    rows.sort_by(|a, b| {
        for key in keys {
            let av = a.get(key.column).cloned().unwrap_or(Value::Null);
            let bv = b.get(key.column).cloned().unwrap_or(Value::Null);
            let ord = av.total_cmp(&bv);
            let ord = if key.ascending { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

// ---------------------------------------------------------------------------
// Limit
// ---------------------------------------------------------------------------

struct LimitSource {
    input: Box<dyn RowSource>,
    remaining: usize,
    n: usize,
    est: Option<f64>,
    meter: OpMetrics,
}

impl RowSource for LimitSource {
    fn columns(&self) -> &[ColumnInfo] {
        self.input.columns()
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        let result = if self.remaining == 0 {
            // Early termination: stop pulling from the input entirely.
            None
        } else {
            match timed_pull(&mut self.input, &mut self.meter.blocked)? {
                None => None,
                Some(mut batch) => {
                    self.meter.rows_in += batch.len() as u64;
                    if batch.len() > self.remaining {
                        batch.truncate(self.remaining);
                    }
                    self.remaining -= batch.len();
                    self.meter.rows_out += batch.len() as u64;
                    self.meter.batches += 1;
                    Some(batch)
                }
            }
        };
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "limit".to_string(),
            detail: self.n.to_string(),
            columns: self.input.columns().to_vec(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: vec![self.input.profile()],
        }
    }
}

// ---------------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------------

struct DistinctSource {
    input: Box<dyn RowSource>,
    seen: HashSet<Vec<GroupKey>>,
    est: Option<f64>,
    meter: OpMetrics,
}

impl RowSource for DistinctSource {
    fn columns(&self) -> &[ColumnInfo] {
        self.input.columns()
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        let arity = self.input.columns().len();
        let all: Vec<usize> = (0..arity).collect();
        let result = loop {
            match timed_pull(&mut self.input, &mut self.meter.blocked)? {
                None => break None,
                Some(batch) => {
                    self.meter.rows_in += batch.len() as u64;
                    let mut kept = Vec::new();
                    for row in batch {
                        if self.seen.insert(row.group_key(&all)) {
                            kept.push(row);
                        }
                    }
                    if !kept.is_empty() {
                        self.meter.rows_out += kept.len() as u64;
                        self.meter.batches += 1;
                        break Some(kept);
                    }
                }
            }
        };
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "distinct".to_string(),
            detail: String::new(),
            columns: self.input.columns().to_vec(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: vec![self.input.profile()],
        }
    }
}

// ---------------------------------------------------------------------------
// Semi / anti join
// ---------------------------------------------------------------------------

/// Hash semi- and anti-join: filter the probe (left) side by key membership
/// in the build (right) side. Unlike a hash join, only the key *set* is
/// retained — no build rows are ever emitted — so the build is a `HashSet`
/// plus two flags capturing what `NOT IN` NULL semantics need to know: did
/// the build side have any rows, and did any build key contain NULL.
struct SemiJoinSource {
    left: Box<dyn RowSource>,
    right: Box<dyn RowSource>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    anti: bool,
    null_aware: bool,
    columns: Vec<ColumnInfo>,
    detail: String,
    /// Key set plus NULL-semantics flags, shared across the workers of an
    /// enclosing exchange.
    build: Option<Arc<SemiBuild>>,
    shared: Option<(Arc<ExchangeShared>, usize)>,
    est: Option<f64>,
    meter: OpMetrics,
    obs: Arc<ObsRegistry>,
}

impl SemiJoinSource {
    #[allow(clippy::too_many_arguments)]
    fn open(
        ctx: &Arc<ExecContext>,
        env: &OpenEnv,
        driver_range: Option<(usize, usize)>,
        left: &Plan,
        right: &Plan,
        left_keys: &[usize],
        right_keys: &[usize],
        anti: bool,
        null_aware: bool,
        est: Option<f64>,
    ) -> Result<SemiJoinSource, StoreError> {
        let shared = env.alloc_cell();
        let left = open_in(ctx, left, env, driver_range)?;
        let right = open_in(ctx, right, env, None)?;
        let mut detail = left_keys
            .iter()
            .zip(right_keys)
            .map(|(&lk, &rk)| {
                format!(
                    "{} = {}",
                    left.columns()
                        .get(lk)
                        .map(ColumnInfo::to_string)
                        .unwrap_or_else(|| format!("#{lk}")),
                    right
                        .columns()
                        .get(rk)
                        .map(ColumnInfo::to_string)
                        .unwrap_or_else(|| format!("#{rk}")),
                )
            })
            .collect::<Vec<_>>()
            .join(" AND ");
        if null_aware {
            detail.push_str(" (NULL-aware)");
        }
        let columns = left.columns().to_vec();
        Ok(SemiJoinSource {
            left,
            right,
            left_keys: left_keys.to_vec(),
            right_keys: right_keys.to_vec(),
            anti,
            null_aware,
            columns,
            detail,
            build: None,
            shared,
            est,
            meter: OpMetrics::default(),
            obs: Arc::clone(ctx.obs()),
        })
    }

    fn build(&mut self) -> Result<(), StoreError> {
        if self.build.is_some() {
            return Ok(());
        }
        let right = &mut self.right;
        let right_keys = &self.right_keys;
        let meter = &mut self.meter;
        let build_workers = self.shared.as_ref().map(|(s, _)| s.workers()).unwrap_or(1);
        let obs = Arc::clone(&self.obs);
        let construct = || -> Result<SharedBuild, StoreError> {
            let mut rows = Vec::new();
            while let Some(batch) = timed_pull(right, &mut meter.blocked)? {
                meter.rows_in += batch.len() as u64;
                rows.extend(batch);
            }
            obs.add(Counter::HashBuildRows, rows.len() as u64);
            Ok(SharedBuild::Keys(Arc::new(SemiBuild::build(
                rows,
                right_keys,
                build_workers,
            ))))
        };
        let (built, waited) = build_or_share(&self.shared, construct)?;
        self.meter.blocked += waited;
        let SharedBuild::Keys(build) = built else {
            unreachable!("semi-join cell always holds a key set");
        };
        self.build = Some(build);
        Ok(())
    }

    /// Whether a probe row with this key survives the (anti-)semi-join.
    fn keep(&self, build: &SemiBuild, key: &[GroupKey]) -> bool {
        let probe_null = key.contains(&GroupKey::Null);
        if !self.anti {
            // Semi: a NULL probe key can never equal anything.
            return !probe_null && build.contains(key);
        }
        if self.null_aware {
            // NOT IN three-valued logic: over an empty set it is TRUE for
            // every probe value (even NULL); a NULL build key makes every
            // non-match UNKNOWN; a NULL probe key is UNKNOWN too.
            if !build.any_rows {
                return true;
            }
            if build.null_key || probe_null {
                return false;
            }
            !build.contains(key)
        } else {
            // NOT EXISTS: NULL keys simply never match, so a NULL probe key
            // is guaranteed to have no partner.
            probe_null || !build.contains(key)
        }
    }
}

impl RowSource for SemiJoinSource {
    fn columns(&self) -> &[ColumnInfo] {
        &self.columns
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        self.build()?;
        let result = loop {
            match timed_pull(&mut self.left, &mut self.meter.blocked)? {
                None => break None,
                Some(batch) => {
                    self.meter.rows_in += batch.len() as u64;
                    let build = Arc::clone(self.build.as_ref().expect("built above"));
                    let mut kept = Vec::new();
                    for row in batch {
                        if self.keep(&build, &row.group_key(&self.left_keys)) {
                            kept.push(row);
                        }
                    }
                    if !kept.is_empty() {
                        self.meter.rows_out += kept.len() as u64;
                        self.meter.batches += 1;
                        break Some(kept);
                    }
                }
            }
        };
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: if self.anti { "anti join" } else { "semi join" }.to_string(),
            detail: self.detail.clone(),
            columns: self.columns.clone(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: vec![self.left.profile(), self.right.profile()],
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar subquery
// ---------------------------------------------------------------------------

/// Evaluate an uncorrelated scalar subquery exactly once, cache its single
/// value, and filter the input by comparing against it.
struct ScalarSubquerySource {
    input: Box<dyn RowSource>,
    sub: Box<dyn RowSource>,
    expr: Expr,
    op: CmpOp,
    /// The cached scalar (SQL NULL when the subquery produced no rows),
    /// computed once — and shared across the workers of an enclosing
    /// exchange, so the subquery runs once per query, not once per morsel.
    scalar: Option<Value>,
    shared: Option<(Arc<ExchangeShared>, usize)>,
    detail: String,
    est: Option<f64>,
    meter: OpMetrics,
}

impl ScalarSubquerySource {
    fn compute_scalar(&mut self) -> Result<(), StoreError> {
        if self.scalar.is_some() {
            return Ok(());
        }
        let sub = &mut self.sub;
        let meter = &mut self.meter;
        let compute = || -> Result<SharedBuild, StoreError> {
            let mut rows = 0usize;
            let mut value = Value::Null;
            while let Some(batch) = timed_pull(sub, &mut meter.blocked)? {
                for row in &batch {
                    rows += 1;
                    if rows > 1 {
                        return Err(StoreError::Eval {
                            message: "scalar subquery produced more than one row".into(),
                        });
                    }
                    value = row.get(0).cloned().unwrap_or(Value::Null);
                }
            }
            Ok(SharedBuild::Scalar(value))
        };
        let (built, waited) = build_or_share(&self.shared, compute)?;
        self.meter.blocked += waited;
        let SharedBuild::Scalar(value) = built else {
            unreachable!("scalar cell always holds a value");
        };
        self.scalar = Some(value);
        Ok(())
    }
}

impl RowSource for ScalarSubquerySource {
    fn columns(&self) -> &[ColumnInfo] {
        self.input.columns()
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        self.compute_scalar()?;
        let scalar = self.scalar.clone().expect("computed above");
        let result = loop {
            match timed_pull(&mut self.input, &mut self.meter.blocked)? {
                None => break None,
                Some(batch) => {
                    self.meter.rows_in += batch.len() as u64;
                    let mut kept = Vec::new();
                    for row in batch {
                        let v = self.expr.eval(&row)?;
                        // Three-valued: NULL on either side is UNKNOWN.
                        if let Some(ord) = v.sql_cmp(&scalar) {
                            if cmp_holds(self.op, ord) {
                                kept.push(row);
                            }
                        }
                    }
                    if !kept.is_empty() {
                        self.meter.rows_out += kept.len() as u64;
                        self.meter.batches += 1;
                        break Some(kept);
                    }
                }
            }
        };
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        PlanProfile {
            operator: "scalar subquery".to_string(),
            detail: self.detail.clone(),
            columns: self.input.columns().to_vec(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: None,
            tags: Vec::new(),
            access: None,
            children: vec![self.input.profile(), self.sub.profile()],
        }
    }
}

/// Evaluate a comparison operator on an ordering (shared by the subquery
/// operators, which compare `Value`s rather than build `Expr`s).
fn cmp_holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::NotEq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::LtEq => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::GtEq => ord != Ordering::Less,
    }
}

// ---------------------------------------------------------------------------
// Apply
// ---------------------------------------------------------------------------

/// What one subquery evaluation produced, cached per parameter binding.
enum SubResult {
    /// The subquery produced at least one row.
    Exists(bool),
    /// First-column values (for `IN` / quantified comparisons).
    Column(Vec<Value>),
    /// The scalar result (NULL when the subquery was empty).
    Scalar(Value),
}

/// The correlated-subquery fallback: for each input row, substitute the
/// row's correlation values into the subplan, execute it, and keep the row
/// when `mode` says so. Results are cached per distinct parameter binding,
/// bounded at [`APPLY_CACHE_CAP`] entries (oldest-first eviction, surfaced
/// in the cache tally). The distinct uncached bindings of one input batch
/// are independent of each other — with `workers > 1` they are evaluated in
/// parallel on worker threads.
struct ApplySource {
    ctx: Arc<ExecContext>,
    input: Box<dyn RowSource>,
    subplan: Plan,
    params: Vec<(u32, usize)>,
    /// The input-column positions of `params`, precomputed once — the cache
    /// key of every probe row is `row.group_key(&param_cols)`.
    param_cols: Vec<usize>,
    mode: ApplyMode,
    /// Threads for per-binding subquery evaluations (1 = sequential).
    workers: usize,
    detail: String,
    /// Template profile of the subplan, accumulating every execution's
    /// counters (same tree shape as each bound execution).
    sub_profile: PlanProfile,
    cache: HashMap<Vec<GroupKey>, SubResult>,
    /// Insertion order of `cache` keys, for oldest-first eviction.
    cache_order: VecDeque<Vec<GroupKey>>,
    evictions: u64,
    evaluations: u64,
    cache_hits: u64,
    est: Option<f64>,
    meter: OpMetrics,
}

/// Execute an apply's subplan for one parameter binding, producing the
/// summary `mode` needs and the execution's profile. `EXISTS` stops at the
/// first row. A free function over `Sync` inputs, so apply worker threads
/// can run bindings concurrently without sharing the operator itself.
fn evaluate_binding(
    ctx: &Arc<ExecContext>,
    subplan: &Plan,
    params: &[(u32, usize)],
    mode: &ApplyMode,
    row: &Row,
) -> Result<(SubResult, PlanProfile), StoreError> {
    let bound = subplan.bind_params(&|id| {
        let &(_, idx) = params.iter().find(|&&(param, _)| param == id)?;
        Some(row.get(idx).unwrap_or(&Value::Null))
    });
    let mut src = open_owned(ctx, &bound)?;
    let result = match mode {
        ApplyMode::Exists { .. } => {
            let mut exists = false;
            while let Some(batch) = src.next_batch()? {
                if !batch.is_empty() {
                    exists = true;
                    break; // Early exit: existence needs only one row.
                }
            }
            SubResult::Exists(exists)
        }
        ApplyMode::In { .. } | ApplyMode::Quantified { .. } => {
            let mut values = Vec::new();
            while let Some(batch) = src.next_batch()? {
                for r in &batch {
                    values.push(r.get(0).cloned().unwrap_or(Value::Null));
                }
            }
            SubResult::Column(values)
        }
        ApplyMode::Compare { .. } => {
            let mut rows = 0usize;
            let mut value = Value::Null;
            while let Some(batch) = src.next_batch()? {
                for r in &batch {
                    rows += 1;
                    if rows > 1 {
                        return Err(StoreError::Eval {
                            message: "correlated scalar subquery produced more than one row".into(),
                        });
                    }
                    value = r.get(0).cloned().unwrap_or(Value::Null);
                }
            }
            SubResult::Scalar(value)
        }
    };
    Ok((result, src.profile()))
}

impl ApplySource {
    /// Evaluate every distinct uncached binding of one input batch —
    /// sequentially, or fanned out across `self.workers` threads — and merge
    /// the results into the bounded cache. Rows whose binding is already
    /// cached (or already scheduled within this batch) count as cache hits,
    /// exactly as they would evaluating row by row. Returns each row's
    /// correlation key so the verdict pass doesn't recompute them.
    fn evaluate_batch(&mut self, batch: &[Row]) -> Result<Vec<Vec<GroupKey>>, StoreError> {
        let mut row_keys: Vec<Vec<GroupKey>> = Vec::with_capacity(batch.len());
        let mut fresh: Vec<(Vec<GroupKey>, Row)> = Vec::new();
        let mut scheduled: HashSet<Vec<GroupKey>> = HashSet::new();
        let mut hits = 0u64;
        for row in batch {
            let key = row.group_key(&self.param_cols);
            if self.cache.contains_key(&key) || scheduled.contains(&key) {
                self.cache_hits += 1;
                hits += 1;
            } else {
                scheduled.insert(key.clone());
                fresh.push((key.clone(), row.clone()));
            }
            row_keys.push(key);
        }
        self.ctx.obs().add(Counter::ApplyCacheHits, hits);
        if fresh.is_empty() {
            return Ok(row_keys);
        }
        self.evaluations += fresh.len() as u64;
        self.ctx
            .obs()
            .add(Counter::ApplyEvaluations, fresh.len() as u64);
        let (ctx, subplan, params, mode) = (&self.ctx, &self.subplan, &self.params, &self.mode);
        let results: Vec<(Vec<GroupKey>, SubResult, PlanProfile)> =
            if self.workers > 1 && fresh.len() > 1 {
                // The embarrassingly parallel case: each binding's subquery
                // execution is independent; split them across workers. The
                // fan-out's wall time is charged to `blocked` (this operator
                // is waiting on its worker threads), mirroring the exchange.
                let fanout_start = Instant::now();
                let chunk = fresh.len().div_ceil(self.workers);
                let evaluated: Vec<Result<Vec<_>, StoreError>> = std::thread::scope(|s| {
                    let handles: Vec<_> = fresh
                        .chunks(chunk)
                        .map(|part| {
                            s.spawn(move || {
                                part.iter()
                                    .map(|(key, row)| {
                                        evaluate_binding(ctx, subplan, params, mode, row)
                                            .map(|(r, p)| (key.clone(), r, p))
                                    })
                                    .collect()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("apply worker panicked"))
                        .collect()
                });
                self.meter.blocked += fanout_start.elapsed();
                let mut flat = Vec::with_capacity(fresh.len());
                for worker_results in evaluated {
                    flat.extend(worker_results?);
                }
                flat
            } else {
                let mut flat = Vec::with_capacity(fresh.len());
                for (key, row) in &fresh {
                    let (result, profile) = evaluate_binding(ctx, subplan, params, mode, row)?;
                    flat.push((key.clone(), result, profile));
                }
                flat
            };
        for (key, result, profile) in results {
            self.sub_profile.absorb(&profile);
            self.cache.insert(key.clone(), result);
            self.cache_order.push_back(key);
        }
        Ok(row_keys)
    }

    /// Evict oldest cache entries down to [`APPLY_CACHE_CAP`]. Called after
    /// a batch's verdicts, so entries the current batch needs are never
    /// evicted out from under it.
    fn enforce_cache_cap(&mut self) {
        let before = self.evictions;
        while self.cache.len() > APPLY_CACHE_CAP {
            let Some(oldest) = self.cache_order.pop_front() else {
                break;
            };
            self.cache.remove(&oldest);
            self.evictions += 1;
        }
        self.ctx
            .obs()
            .add(Counter::ApplyCacheEvictions, self.evictions - before);
    }

    /// Three-valued verdict for one input row against its cached subquery
    /// result; `None` is SQL UNKNOWN (the row is filtered out).
    fn verdict(&self, key: &[GroupKey], row: &Row) -> Result<Option<bool>, StoreError> {
        let cached = self.cache.get(key).expect("evaluated before verdict");
        Ok(match (&self.mode, cached) {
            (ApplyMode::Exists { negated }, SubResult::Exists(exists)) => Some(exists ^ negated),
            (ApplyMode::In { expr, negated }, SubResult::Column(values)) => {
                let probe = expr.eval(row)?;
                in_membership(&probe, values).map(|b| b ^ negated)
            }
            (ApplyMode::Compare { expr, op }, SubResult::Scalar(scalar)) => {
                let probe = expr.eval(row)?;
                probe.sql_cmp(scalar).map(|ord| cmp_holds(*op, ord))
            }
            (ApplyMode::Quantified { expr, op, all }, SubResult::Column(values)) => {
                let probe = expr.eval(row)?;
                quantified_verdict(&probe, *op, *all, values)
            }
            _ => unreachable!("cache entry shape always matches the mode"),
        })
    }
}

/// `probe IN (values)` with SQL three-valued semantics.
fn in_membership(probe: &Value, values: &[Value]) -> Option<bool> {
    if values.is_empty() {
        return Some(false);
    }
    if probe.is_null() {
        return None;
    }
    let mut unknown = false;
    for v in values {
        match probe.sql_eq(v) {
            Some(true) => return Some(true),
            Some(false) => {}
            None => unknown = true,
        }
    }
    if unknown {
        None
    } else {
        Some(false)
    }
}

/// `probe <op> ALL|ANY (values)` with SQL three-valued semantics: ALL over
/// an empty set is TRUE, ANY over an empty set is FALSE, and a NULL anywhere
/// makes the verdict UNKNOWN unless it is already decided.
fn quantified_verdict(probe: &Value, op: CmpOp, all: bool, values: &[Value]) -> Option<bool> {
    if values.is_empty() {
        // Vacuous truth: ALL over nothing holds, ANY over nothing does not.
        return Some(all);
    }
    let mut unknown = false;
    for v in values {
        match probe.sql_cmp(v) {
            None => unknown = true,
            Some(ord) => {
                let holds = cmp_holds(op, ord);
                if all && !holds {
                    return Some(false);
                }
                if !all && holds {
                    return Some(true);
                }
            }
        }
    }
    if unknown {
        None
    } else {
        Some(all)
    }
}

impl RowSource for ApplySource {
    fn columns(&self) -> &[ColumnInfo] {
        self.input.columns()
    }

    fn next_batch(&mut self) -> Result<Option<Vec<Row>>, StoreError> {
        let start = Instant::now();
        let result = loop {
            match timed_pull(&mut self.input, &mut self.meter.blocked)? {
                None => break None,
                Some(batch) => {
                    self.meter.rows_in += batch.len() as u64;
                    let row_keys = self.evaluate_batch(&batch)?;
                    let mut kept = Vec::new();
                    for (row, key) in batch.into_iter().zip(&row_keys) {
                        if self.verdict(key, &row)? == Some(true) {
                            kept.push(row);
                        }
                    }
                    self.enforce_cache_cap();
                    if !kept.is_empty() {
                        self.meter.rows_out += kept.len() as u64;
                        self.meter.batches += 1;
                        break Some(kept);
                    }
                }
            }
        };
        self.meter.elapsed += start.elapsed();
        Ok(result)
    }

    fn profile(&self) -> PlanProfile {
        let detail = if self.evaluations > 0 {
            let mut tally = format!(
                "{}; {} evaluation{}, {} cache hit{}",
                self.detail,
                self.evaluations,
                if self.evaluations == 1 { "" } else { "s" },
                self.cache_hits,
                if self.cache_hits == 1 { "" } else { "s" }
            );
            if self.evictions > 0 {
                tally.push_str(&format!(
                    ", {} eviction{}",
                    self.evictions,
                    if self.evictions == 1 { "" } else { "s" }
                ));
            }
            tally
        } else {
            self.detail.clone()
        };
        let mut sub_profile = self.sub_profile.clone();
        if self.evaluations > 1 {
            // The subplan's estimates are per evaluation; its accumulated
            // counters span all of them. Scale so est-vs-actual compares
            // totals with totals.
            sub_profile.scale_estimates(self.evaluations as f64);
        }
        PlanProfile {
            operator: "apply".to_string(),
            detail,
            columns: self.input.columns().to_vec(),
            estimated_rows: self.est,
            metrics: self.meter,
            workers: (self.workers > 1).then_some(self.workers),
            tags: Vec::new(),
            access: None,
            children: vec![self.input.profile(), sub_profile],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::aggregate::AggExpr;
    use crate::expr::CmpOp;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "T",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("v", DataType::Integer),
            ],
        ))
        .unwrap();
        for i in 0..2500i64 {
            db.insert("T", vec![Value::int(i), Value::int(i % 10)])
                .unwrap();
        }
        db
    }

    fn scan(table: &str, alias: &str) -> Plan {
        Plan::scan(table, alias)
    }

    /// The `T` fixture with an ordered index on `v` and a hash index on `id`.
    fn indexed_db() -> Database {
        use crate::index::{IndexDef, IndexKind};
        let mut db = db();
        db.create_index(IndexDef::single("idx_v", "T", "v", IndexKind::Ordered))
            .unwrap();
        db.create_index(IndexDef::single("h_id", "T", "id", IndexKind::Hash))
            .unwrap();
        db
    }

    #[test]
    fn index_scan_matches_filtered_scan_byte_for_byte() {
        let db = indexed_db();
        let filtered = scan("T", "t").filter(Expr::col_cmp_value(1, CmpOp::Eq, Value::int(3)));
        let point = Plan::index_scan("T", "t", "idx_v", IndexBounds::point(Value::int(3)));
        assert_eq!(run_plan(&db, &filtered), run_plan(&db, &point));

        let range_filter = scan("T", "t").filter(Expr::And(
            Box::new(Expr::col_cmp_value(1, CmpOp::GtEq, Value::int(2))),
            Box::new(Expr::col_cmp_value(1, CmpOp::Lt, Value::int(5))),
        ));
        let range = Plan::index_scan(
            "T",
            "t",
            "idx_v",
            IndexBounds::range(Some((Value::int(2), true)), Some((Value::int(5), false))),
        );
        assert_eq!(run_plan(&db, &range_filter), run_plan(&db, &range));

        // The hash index answers points (and counts only matching reads)…
        let hash_point = Plan::index_scan("T", "t", "h_id", IndexBounds::point(Value::int(42)));
        let mut src = open(&db, &hash_point).unwrap();
        let rows = {
            let mut out = Vec::new();
            while let Some(batch) = src.next_batch().unwrap() {
                out.extend(batch);
            }
            out
        };
        assert_eq!(rows.len(), 1);
        let profile = src.profile();
        assert_eq!(profile.operator, "index scan");
        assert_eq!(profile.metrics.rows_in, 1, "only the match is read");
        assert!(
            profile.detail.contains("[index=h_id point t.id = 42]"),
            "detail names the probe: {}",
            profile.detail
        );
        // …but refuses ranges at open time.
        let hash_range = Plan::index_scan(
            "T",
            "t",
            "h_id",
            IndexBounds::range(Some((Value::int(0), true)), None),
        );
        assert!(open(&db, &hash_range).is_err());
        // Unknown index names fail at open time too.
        let missing = Plan::index_scan("T", "t", "nope", IndexBounds::point(Value::int(1)));
        let err = match open(&db, &missing) {
            Err(e) => e,
            Ok(_) => panic!("opening a scan over a missing index must fail"),
        };
        assert!(matches!(err, StoreError::UnknownIndex { .. }));
    }

    #[test]
    fn key_ordered_index_scan_matches_sorted_filtered_scan() {
        let db = indexed_db();
        // Sorting the filtered scan by v (stable) must equal the key-ordered
        // index range scan, ties and all.
        let sorted = scan("T", "t")
            .filter(Expr::col_cmp_value(1, CmpOp::GtEq, Value::int(7)))
            .sort(vec![SortKey {
                column: 1,
                ascending: true,
            }]);
        let keyed = Plan::index_scan(
            "T",
            "t",
            "idx_v",
            IndexBounds::range(Some((Value::int(7), true)), None),
        )
        .with_key_order();
        assert_eq!(run_plan(&db, &sorted), run_plan(&db, &keyed));
    }

    #[test]
    fn index_nested_loop_join_matches_hash_join() {
        let db = indexed_db();
        // Outer: the 10 rows with id < 10; inner: T probed on v via idx_v.
        let outer = || scan("T", "o").filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(10)));
        let hash = Plan::hash_join(outer(), scan("T", "t"), vec![1], vec![1]);
        let inlj = Plan::index_nested_loop_join(outer(), "T", "t", "idx_v", 1);
        let mut h = run_plan(&db, &hash);
        let mut i = run_plan(&db, &inlj);
        // Both emit outer-order × inner-insertion-order: identical already.
        assert_eq!(h.len(), 10 * 250);
        assert_eq!(h, i);
        // And with sorting as a belt-and-braces check.
        let keys: Vec<usize> = (0..4).collect();
        h.sort_by_key(|r| r.group_key(&keys));
        i.sort_by_key(|r| r.group_key(&keys));
        assert_eq!(h, i);

        let mut src = open(&db, &inlj).unwrap();
        while src.next_batch().unwrap().is_some() {}
        let profile = src.profile();
        assert_eq!(profile.operator, "index nested-loop join");
        assert!(
            profile.detail.contains("o.v = t.v [index=idx_v]"),
            "detail: {}",
            profile.detail
        );
        let probe = &profile.children[1];
        assert_eq!(probe.operator, "index probe");
        assert_eq!(probe.metrics.rows_in, 10, "one probe per outer row");
        assert_eq!(probe.metrics.rows_out, 2500, "matches fetched");
    }

    #[test]
    fn index_nested_loop_join_skips_null_probe_keys() {
        use crate::index::{IndexDef, IndexKind};
        use crate::schema::{ColumnDef, TableSchema};
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "K",
            vec![ColumnDef::nullable("k", DataType::Integer)],
        ))
        .unwrap();
        db.create_index(IndexDef::single("idx_k", "K", "k", IndexKind::Ordered))
            .unwrap();
        db.insert("K", vec![Value::int(1)]).unwrap();
        db.insert("K", vec![Value::Null]).unwrap();
        let outer = Plan::values(
            vec![ColumnInfo::unqualified("x")],
            vec![
                Row::new(vec![Value::int(1)]),
                Row::new(vec![Value::Null]),
                Row::new(vec![Value::int(2)]),
            ],
        );
        let plan = Plan::index_nested_loop_join(outer, "K", "k", "idx_k", 0);
        let rows = run_plan(&db, &plan);
        // Only 1=1 matches; NULL probes and NULL index entries never join.
        assert_eq!(rows, vec![Row::new(vec![Value::int(1), Value::int(1)])]);
    }

    #[test]
    fn scan_streams_in_batches() {
        let db = db();
        let mut src = open(&db, &scan("T", "t")).unwrap();
        let first = src.next_batch().unwrap().unwrap();
        assert_eq!(first.len(), BATCH_SIZE);
        let mut total = first.len();
        while let Some(batch) = src.next_batch().unwrap() {
            total += batch.len();
        }
        assert_eq!(total, 2500);
        let profile = src.profile();
        assert_eq!(profile.metrics.rows_out, 2500);
        assert_eq!(profile.metrics.batches, 3);
    }

    #[test]
    fn limit_stops_pulling_early() {
        let db = db();
        let plan = scan("T", "t").limit(5);
        let mut src = open(&db, &plan).unwrap();
        let mut total = 0;
        while let Some(batch) = src.next_batch().unwrap() {
            total += batch.len();
        }
        assert_eq!(total, 5);
        let profile = src.profile();
        // The limit consumed only the first batch of its input, not all 2500
        // rows: streaming means the scan never read past the first batch.
        let scan_profile = &profile.children[0];
        assert_eq!(scan_profile.metrics.rows_out as usize, BATCH_SIZE);
    }

    #[test]
    fn filter_counts_rows_in_and_out() {
        let db = db();
        let plan = scan("T", "t").filter(Expr::col_cmp_value(1, CmpOp::Eq, Value::int(3)));
        let mut src = open(&db, &plan).unwrap();
        let mut total = 0;
        while let Some(batch) = src.next_batch().unwrap() {
            total += batch.len();
        }
        assert_eq!(total, 250);
        let profile = src.profile();
        assert_eq!(profile.operator, "filter");
        assert_eq!(profile.metrics.rows_in, 2500);
        assert_eq!(profile.metrics.rows_out, 250);
    }

    #[test]
    fn open_does_not_read_rows() {
        let db = db();
        let plan = scan("T", "t").filter(Expr::col_cmp_value(1, CmpOp::Eq, Value::int(3)));
        let src = open(&db, &plan).unwrap();
        let profile = src.profile();
        // Describing a freshly opened plan shows zero activity everywhere.
        profile.walk(&mut |p| {
            assert_eq!(p.metrics.rows_in, 0);
            assert_eq!(p.metrics.rows_out, 0);
            assert_eq!(p.metrics.batches, 0);
        });
    }

    #[test]
    fn apply_cache_is_bounded_and_tallies_evictions() {
        // Correlate on t.id: 2500 distinct bindings against a cap of
        // APPLY_CACHE_CAP entries, so the cache must evict (and say so).
        let db = db();
        let sub = values_plan("s", &[Value::int(1)]).filter(Expr::Compare {
            op: CmpOp::Lt,
            left: Box::new(Expr::Param(0)),
            right: Box::new(Expr::Literal(Value::int(0))),
        });
        let plan = scan("T", "t").apply(sub, vec![(0, 0)], ApplyMode::Exists { negated: true });
        let mut src = open(&db, &plan).unwrap();
        let mut total = 0;
        while let Some(batch) = src.next_batch().unwrap() {
            total += batch.len();
        }
        assert_eq!(total, 2500, "NOT EXISTS over an always-empty subquery");
        let profile = src.profile();
        assert!(
            profile.detail.contains("2500 evaluations"),
            "distinct bindings each evaluate once: {}",
            profile.detail
        );
        let expected_evictions = 2500 - APPLY_CACHE_CAP;
        assert!(
            profile
                .detail
                .contains(&format!("{expected_evictions} evictions")),
            "evictions must surface in the cache tally: {}",
            profile.detail
        );
    }

    #[test]
    fn apply_parallel_workers_agree_with_sequential() {
        let db = db();
        let sub = Plan::scan("T", "u")
            .filter(Expr::Compare {
                op: CmpOp::Eq,
                left: Box::new(Expr::Column(1)),
                right: Box::new(Expr::Param(0)),
            })
            .filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(5)));
        let mode = ApplyMode::Exists { negated: false };
        let sequential = scan("T", "t").apply(sub.clone(), vec![(0, 1)], mode.clone());
        let parallel = scan("T", "t")
            .apply(sub, vec![(0, 1)], mode)
            .with_apply_workers(4);
        let run = |plan: &Plan| {
            let mut src = open(&db, plan).unwrap();
            let mut rows = Vec::new();
            while let Some(batch) = src.next_batch().unwrap() {
                rows.extend(batch);
            }
            (rows, src.profile())
        };
        let (seq_rows, seq_profile) = run(&sequential);
        let (par_rows, par_profile) = run(&parallel);
        assert_eq!(seq_rows, par_rows, "parallel apply must keep row order");
        // Same evaluation and cache-hit tallies, and the parallel profile
        // advertises its workers.
        assert!(par_profile.detail.contains("10 evaluations"));
        assert!(par_profile.detail.contains("2490 cache hits"));
        assert_eq!(
            seq_profile.children[1].metrics.rows_out, par_profile.children[1].metrics.rows_out,
            "subplan counters must aggregate identically"
        );
        assert_eq!(par_profile.workers, Some(4));
        assert!(par_profile.render_tree(false).contains("[workers=4]"));
    }

    #[test]
    fn blocked_time_never_exceeds_elapsed() {
        let db = db();
        let plan = scan("T", "t")
            .filter(Expr::col_cmp_value(1, CmpOp::Lt, Value::int(9)))
            .sort(vec![SortKey {
                column: 0,
                ascending: false,
            }]);
        let mut src = open(&db, &plan).unwrap();
        while let Some(_batch) = src.next_batch().unwrap() {}
        let profile = src.profile();
        profile.walk(&mut |p| {
            assert!(
                p.metrics.blocked <= p.metrics.elapsed,
                "{}: blocked {:?} > elapsed {:?}",
                p.operator,
                p.metrics.blocked,
                p.metrics.elapsed
            );
            assert_eq!(
                p.metrics.self_elapsed(),
                p.metrics.elapsed - p.metrics.blocked
            );
        });
        // The sort waited on its child for at least the child's own time.
        assert!(profile.metrics.blocked >= profile.children[0].metrics.self_elapsed());
    }

    #[test]
    fn render_tree_shape_is_stable() {
        let db = db();
        let plan = scan("T", "t")
            .filter(Expr::col_cmp_value(1, CmpOp::Eq, Value::int(3)))
            .limit(7);
        let src = open(&db, &plan).unwrap();
        let tree = src.profile().render_tree(false);
        assert_eq!(tree, "limit: 7\n└─ filter: t.v = 3\n   └─ scan: T as t\n");
    }

    #[test]
    fn aggregate_over_empty_input_still_produces_one_group() {
        let db = db();
        let empty = scan("T", "t").filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(0)));
        let plan = empty.aggregate(vec![], vec![AggExpr::count_star("cnt")], None);
        let mut src = open(&db, &plan).unwrap();
        let batch = src.next_batch().unwrap().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].get(0), Some(&Value::int(0)));
        assert!(src.next_batch().unwrap().is_none());
    }

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
        assert_eq!(render_expr(&Expr::Param(3), &cols), "$3");
    }

    /// A one-column literal relation for subquery-operator tests.
    fn values_plan(name: &str, values: &[Value]) -> Plan {
        Plan::values(
            vec![ColumnInfo::unqualified(name)],
            values.iter().map(|v| Row::new(vec![v.clone()])).collect(),
        )
    }

    fn run_plan(db: &Database, plan: &Plan) -> Vec<Row> {
        let mut src = open(db, plan).unwrap();
        let mut out = Vec::new();
        while let Some(batch) = src.next_batch().unwrap() {
            out.extend(batch);
        }
        out
    }

    #[test]
    fn semi_join_keeps_only_matching_probe_rows() {
        let db = Database::new();
        let probe = values_plan("x", &[Value::int(1), Value::int(2), Value::Null]);
        let build = values_plan("y", &[Value::int(2), Value::int(3), Value::Null]);
        let plan = Plan::semi_join(probe, build, vec![0], vec![0]);
        let rows = run_plan(&db, &plan);
        // Only 2 matches; NULL never equals anything, on either side.
        assert_eq!(rows, vec![Row::new(vec![Value::int(2)])]);
    }

    #[test]
    fn anti_join_not_exists_semantics_pass_null_probes() {
        let db = Database::new();
        let probe = values_plan("x", &[Value::int(1), Value::int(2), Value::Null]);
        let build = values_plan("y", &[Value::int(2), Value::Null]);
        let plan = Plan::anti_join(probe, build, vec![0], vec![0], false);
        let rows = run_plan(&db, &plan);
        // NOT EXISTS: the NULL probe has no match by definition, so it stays.
        assert_eq!(
            rows,
            vec![Row::new(vec![Value::int(1)]), Row::new(vec![Value::Null])]
        );
    }

    #[test]
    fn null_aware_anti_join_implements_not_in() {
        let db = Database::new();
        // A NULL on the build side makes every NOT IN verdict UNKNOWN or
        // FALSE: nothing survives.
        let probe = values_plan("x", &[Value::int(1), Value::int(2), Value::Null]);
        let with_null = values_plan("y", &[Value::int(2), Value::Null]);
        let plan = Plan::anti_join(probe.clone(), with_null, vec![0], vec![0], true);
        assert!(run_plan(&db, &plan).is_empty());

        // Without build-side NULLs, a NULL probe is UNKNOWN (dropped) and
        // non-matches pass.
        let no_null = values_plan("y", &[Value::int(2), Value::int(3)]);
        let plan = Plan::anti_join(probe.clone(), no_null, vec![0], vec![0], true);
        assert_eq!(run_plan(&db, &plan), vec![Row::new(vec![Value::int(1)])]);

        // NOT IN over an empty set is TRUE for everything, even NULL.
        let empty = values_plan("y", &[]);
        let plan = Plan::anti_join(probe, empty, vec![0], vec![0], true);
        assert_eq!(run_plan(&db, &plan).len(), 3);
    }

    #[test]
    fn scalar_subquery_filters_against_the_cached_value() {
        let db = db();
        // T.v = (scalar 3): 250 of the 2500 rows qualify; the subquery's
        // profile shows it was pulled exactly once.
        let sub = values_plan("s", &[Value::int(3)]);
        let plan = Plan::scan("T", "t").scalar_subquery(sub, Expr::Column(1), CmpOp::Eq);
        let mut src = open(&db, &plan).unwrap();
        let mut total = 0;
        while let Some(batch) = src.next_batch().unwrap() {
            total += batch.len();
        }
        assert_eq!(total, 250);
        let profile = src.profile();
        assert_eq!(profile.operator, "scalar subquery");
        assert_eq!(profile.children[1].metrics.rows_out, 1);
    }

    #[test]
    fn scalar_subquery_with_two_rows_is_an_error() {
        let db = db();
        let sub = values_plan("s", &[Value::int(1), Value::int(2)]);
        let plan = Plan::scan("T", "t").scalar_subquery(sub, Expr::Column(1), CmpOp::Eq);
        let mut src = open(&db, &plan).unwrap();
        assert!(src.next_batch().is_err());
    }

    #[test]
    fn scalar_subquery_over_empty_input_is_sql_null() {
        let db = db();
        let sub = values_plan("s", &[]);
        let plan = Plan::scan("T", "t").scalar_subquery(sub, Expr::Column(1), CmpOp::Eq);
        let mut src = open(&db, &plan).unwrap();
        // v = NULL is UNKNOWN for every row: nothing comes out.
        assert!(src.next_batch().unwrap().is_none());
    }

    #[test]
    fn apply_exists_binds_params_and_caches_per_binding() {
        let db = db();
        // For each T row, check EXISTS(select * from T u where u.v = $0 and
        // u.id < 10): v in 0..=9 and ids 0..9 cover v values 0..9, so every
        // v has a witness — but only 10 distinct v values mean 10 real
        // evaluations for 2500 input rows.
        let sub = Plan::scan("T", "u")
            .filter(Expr::Compare {
                op: CmpOp::Eq,
                left: Box::new(Expr::Column(1)),
                right: Box::new(Expr::Param(0)),
            })
            .filter(Expr::col_cmp_value(0, CmpOp::Lt, Value::int(10)));
        let plan =
            Plan::scan("T", "t").apply(sub, vec![(0, 1)], ApplyMode::Exists { negated: false });
        let mut src = open(&db, &plan).unwrap();
        let mut total = 0;
        while let Some(batch) = src.next_batch().unwrap() {
            total += batch.len();
        }
        assert_eq!(total, 2500);
        let profile = src.profile();
        assert_eq!(profile.operator, "apply");
        assert!(
            profile.detail.contains("10 evaluations"),
            "memoization missing from: {}",
            profile.detail
        );
        assert!(profile.detail.contains("2490 cache hits"));
    }

    #[test]
    fn apply_quantified_all_and_any_verdicts() {
        let five = Value::int(5);
        let vals = vec![Value::int(5), Value::int(7)];
        assert_eq!(
            quantified_verdict(&five, CmpOp::LtEq, true, &vals),
            Some(true)
        );
        assert_eq!(
            quantified_verdict(&five, CmpOp::Lt, true, &vals),
            Some(false)
        );
        assert_eq!(
            quantified_verdict(&five, CmpOp::Eq, false, &vals),
            Some(true)
        );
        // Empty sets: ALL is vacuously true, ANY is false.
        assert_eq!(quantified_verdict(&five, CmpOp::Eq, true, &[]), Some(true));
        assert_eq!(
            quantified_verdict(&five, CmpOp::Eq, false, &[]),
            Some(false)
        );
        // A NULL in the set leaves an undecided verdict UNKNOWN.
        let with_null = vec![Value::int(4), Value::Null];
        assert_eq!(
            quantified_verdict(&five, CmpOp::GtEq, true, &with_null),
            None
        );
        // …but a decided one stays decided.
        assert_eq!(
            quantified_verdict(&five, CmpOp::Lt, true, &with_null),
            Some(false)
        );
    }
}
