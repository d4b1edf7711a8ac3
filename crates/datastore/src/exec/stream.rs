//! Streaming, pull-based execution of [`Plan`] trees.
//!
//! Every plan node opens into a [`RowSource`]: a batched iterator that pulls
//! rows from its children on demand instead of materializing whole
//! intermediate results. Each operator is boxed with its instrumentation
//! ([`OpMetrics`]: rows in/out, batches, elapsed wall time — one wrapper
//! keeps them for all operators, by the protocol in the [`crate::exec`]
//! module docs), which is what lets the system *talk back* about what it
//! actually did — the §3.1 empty-result detective and the `EXPLAIN ANALYZE`
//! narrator both read these counters rather than re-executing the query.
//! What the counters and snapshots *are* lives in [`crate::exec::profile`].
//!
//! Blocking operators (sort, aggregation, the hash-join build side, the
//! nested-loop inner side) still buffer what they fundamentally must, but
//! pipelining operators (scan, filter, project, probe side of a hash join,
//! limit, distinct) stream batches of [`BATCH_SIZE`] rows end to end; a
//! `LIMIT` therefore stops pulling from its input as soon as it is
//! satisfied. A batch ([`Batch`]) names the rows by their positions in the
//! stores that hold them; see [`crate::exec::batch`].
//!
//! Operator trees are **owned**: scans hold `Arc` handles to their tables
//! (via [`ExecContext`]) rather than borrowing from the database, so a tree
//! is `Send` — a plan-cache template keeps one open, and whichever thread
//! runs the template's next statement rewinds it — and a writer copies a
//! table on write instead of waiting for a running query. Every operator
//! runs on the thread that pulls from it.

use crate::database::Database;
use crate::error::StoreError;
use crate::exec::aggregate::{AggExpr, GroupedAggregator};
use crate::exec::batch::{Batch, BatchRow, Gathered, LayoutCache, Store};
use crate::exec::keys::{Key, KeyTable, RowKey};
use crate::exec::plan::{
    aggregate_output_columns, ApplyMode, ColumnInfo, Columns, JoinOutput, Plan, PlanNode, Relation,
    SortKey,
};
use crate::exec::profile::{column_label, expr_label, separated, vectorized_tag, Description};
pub use crate::exec::profile::{
    render_expr, IndexAccess, OpKind, OpMetrics, OpShape, PlanProfile, ProfileNode, SubqueryTally,
    MISESTIMATE_FACTOR,
};
use crate::exec::vector::VectorPredicate;
use crate::expr::{BoundExpr, CmpOp, Expr, Param, ParamLookup};
use crate::fingerprint::ShapeKey;
use crate::index::{IndexBounds, ProbeOrder};
use crate::obs::SqlText;
use crate::obs::{Counter, ObsRegistry};
use crate::table::Table;
use crate::tuple::{Row, RowView};
use crate::value::{GroupKey, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::ops::Range;
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
/// what lets a kept tree outlive the borrow it was opened under (and lets
/// writers copy-on-write under a running query instead of blocking it).
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// The database's own map of tables, shared.
    tables: Arc<BTreeMap<String, Arc<Table>>>,
    /// The owning database's observability registry — carried alongside the
    /// table snapshot so operators report into the engine-wide counters.
    obs: Arc<ObsRegistry>,
}

impl ExecContext {
    /// Snapshot every table handle of a database (shares the map, copies
    /// nothing).
    pub fn new(db: &Database) -> ExecContext {
        ExecContext {
            tables: Arc::clone(db.table_map()),
            obs: Arc::clone(db.obs()),
        }
    }

    /// Table handle by (case-insensitive) name. The map is keyed by the
    /// upper-cased name, which is how plans usually spell it: only another
    /// spelling is upper-cased for a second look.
    pub fn table(&self, name: &str) -> Option<&Arc<Table>> {
        (self.tables.get(name)).or_else(|| self.tables.get(&name.to_ascii_uppercase()))
    }

    /// [`ExecContext::table`], or the error every operator that names a
    /// table reports when the snapshot does not hold it.
    pub fn require_table(&self, name: &str) -> Result<&Arc<Table>, StoreError> {
        self.table(name).ok_or_else(|| StoreError::UnknownTable {
            table: name.to_string(),
        })
    }

    /// True when this is a snapshot of `db`'s tables as they are now.
    pub(crate) fn reads(&self, db: &Database) -> bool {
        Arc::ptr_eq(&self.tables, db.table_map())
    }

    /// The engine-wide observability registry this snapshot reports into.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }
}

/// A pull-based operator: a batched row iterator with instrumentation.
/// Sources are `Send` — they own their state (table handles are `Arc`s), so
/// a tree a plan-cache template keeps can be run from any thread.
pub trait RowSource: Send {
    /// Output column descriptors.
    fn columns(&self) -> &Columns;
    /// Pull the next batch of rows; `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<Batch>, StoreError> {
        self.timed_batch().0
    }
    /// True when the next pull would return `None`, known without pulling:
    /// the last batch handed on was the last. No consumer pulls it again.
    fn exhausted(&self) -> bool;
    /// Start over (Volcano's rescan) with each parameter `bindings` has a
    /// value for bound to it; the others keep the values bound before.
    /// Statement parameters and correlation values are bound the same way:
    /// a plan-cache hit rewinds its template's tree with the statement's
    /// literals, an `Apply` its subplan with an outer row's values. Every
    /// operator resets in place and lets go of what its last run held (a
    /// build side is built again), and the counters keep accumulating over
    /// every run.
    fn rewind(&mut self, bindings: ParamLookup<'_>);
    /// [`RowSource::next_batch`], and the wall time it took as this operator
    /// measured it — what a consumer spent waiting for it.
    fn timed_batch(&mut self) -> (Result<Option<Batch>, StoreError>, Duration);
    /// Describe this operator subtree's shape: kinds, details, tags,
    /// estimates, children — everything but the counters.
    fn shape(&self) -> OpShape;
    /// Add this subtree's counters into `counters`, node by node in
    /// pre-order (`counters[0]` is this operator's), and return how many
    /// nodes that was. `counters` follows the subtree's shape, which this
    /// or another open of the same plan described. Nothing is described.
    fn absorb_into(&self, counters: &mut [OpMetrics]) -> usize;
    /// Nodes in this subtree's shape.
    fn node_count(&self) -> usize;
    /// This execution's profile: the subtree's shape, described now, and
    /// its counters.
    fn profile(&self) -> PlanProfile {
        let shape = Arc::new(self.shape());
        let mut counters = vec![OpMetrics::default(); shape.size()];
        self.absorb_into(&mut counters);
        PlanProfile::new(shape, counters, Vec::new())
    }
}

// ---------------------------------------------------------------------------
// The metering protocol (see the `exec` module docs)
// ---------------------------------------------------------------------------

/// What an operator *does*: its output columns, its work, how it presents
/// itself, and which operators feed it. Nothing about timing, `rows_out`,
/// `batches`, estimates or [`OpShape`] nodes — [`Metered`] owns those, so an
/// operator cannot forget a rule.
pub(crate) trait Operator: Send {
    /// Output column descriptors.
    fn columns(&self) -> &Columns;
    /// Produce the next output batch (`None` when exhausted). Inputs are
    /// taken through [`OpMetrics::pull`], a subplan run on the side through
    /// [`OpMetrics::wait_for`]. What the operator tallies besides rows
    /// (evaluations, groups, probes) goes into `meter` too.
    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError>;
    /// [`RowSource::exhausted`]; an operator that cannot tell says `false`.
    fn exhausted(&self) -> bool {
        false
    }
    /// [`RowSource::rewind`]: reset, rewind the inputs, rebind each `$k`.
    fn rewind(&mut self, bindings: ParamLookup<'_>);
    /// Name, detail and annotations for the shape, rendered from what the
    /// operator holds anyway: opening renders nothing, and neither does a
    /// run. Nothing counted goes in.
    fn describe(&self) -> Description;
    /// The operators this one pulls from, in profile order (none for a leaf).
    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        std::iter::empty()
    }
    /// Nodes in `describe()`'s synthetic child.
    fn synthetic_nodes(&self) -> usize {
        0
    }
    /// Add the counters behind `describe()`'s synthetic child into
    /// `counters`, its nodes in pre-order ([`RowSource::absorb_into`]), and
    /// return how many nodes that was.
    fn absorb_synthetic(&self, _counters: &mut [OpMetrics]) -> usize {
        0
    }
    /// Box the operator with its metering.
    fn metered(self, est: Option<f64>) -> Box<dyn RowSource>
    where
        Self: Sized + 'static,
    {
        Box::new(Metered {
            op: self,
            est,
            meter: OpMetrics::default(),
        })
    }
}

/// The metering half of every operator: owns the planner's estimate and the
/// counters, times each `next_batch`, counts what is returned, puts the
/// shape node together and writes the counters out. Statically dispatched
/// over the operator it wraps.
struct Metered<O> {
    op: O,
    est: Option<f64>,
    meter: OpMetrics,
}

impl<O: Operator> RowSource for Metered<O> {
    fn columns(&self) -> &Columns {
        self.op.columns()
    }

    fn exhausted(&self) -> bool {
        self.op.exhausted()
    }

    fn timed_batch(&mut self) -> (Result<Option<Batch>, StoreError>, Duration) {
        // An exhausted operator is not called again, and no clock is read.
        if self.op.exhausted() {
            return (Ok(None), Duration::ZERO);
        }
        let start = Instant::now();
        let result = loop {
            match self.op.pull(&mut self.meter) {
                // An operator that filtered a whole input batch away pulls
                // again, unless that was its last: an empty batch is never
                // handed to a parent.
                Ok(Some(batch)) if batch.is_empty() => match self.op.exhausted() {
                    true => break Ok(None),
                    false => continue,
                },
                other => break other,
            }
        };
        if let Ok(Some(batch)) = &result {
            self.meter.rows_out += batch.len() as u64;
            self.meter.batches += 1;
        }
        let took = start.elapsed();
        self.meter.elapsed += took;
        (result, took)
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.op.rewind(bindings);
    }

    fn shape(&self) -> OpShape {
        let inputs = self.op.inputs().map(|input| input.shape());
        self.op
            .describe()
            .shape(self.op.columns(), self.est, inputs)
    }

    fn absorb_into(&self, counters: &mut [OpMetrics]) -> usize {
        counters[0] += self.meter;
        let mut at = 1;
        for input in self.op.inputs() {
            at += input.absorb_into(&mut counters[at..]);
        }
        // What is left is the synthetic child, listed after the inputs.
        at + self.op.absorb_synthetic(&mut counters[at..])
    }

    fn node_count(&self) -> usize {
        let inputs: usize = self.op.inputs().map(|input| input.node_count()).sum();
        1 + inputs + self.op.synthetic_nodes()
    }
}

impl OpMetrics {
    /// Pull one batch from an input: the time the input took lands in
    /// `blocked` (it timed itself; no second clock is read), the rows in
    /// `rows_in`.
    pub(crate) fn pull(
        &mut self,
        child: &mut Box<dyn RowSource>,
    ) -> Result<Option<Batch>, StoreError> {
        let batch = self.wait_for(child)?;
        if let Some(batch) = &batch {
            self.rows_in += batch.len() as u64;
        }
        Ok(batch)
    }

    /// Pull one batch from a source that is not an input (a subplan run on
    /// the side): only the time it took is charged, to `blocked`.
    pub(crate) fn wait_for(
        &mut self,
        source: &mut Box<dyn RowSource>,
    ) -> Result<Option<Batch>, StoreError> {
        let (batch, took) = source.timed_batch();
        self.blocked += took;
        batch
    }

    /// [`OpMetrics::pull`] an input to exhaustion, its rows made rows of
    /// their own (the nested-loop join's inner side, a sort's input).
    fn drain(&mut self, child: &mut Box<dyn RowSource>) -> Result<Vec<Row>, StoreError> {
        let mut rows = Vec::new();
        while let Some(batch) = self.pull(child)? {
            batch.drain_into(&mut rows);
        }
        Ok(rows)
    }
}

/// The output columns of a join: the left input's, then the right's.
fn joined(left: &[ColumnInfo], right: &[ColumnInfo]) -> Columns {
    left.iter().chain(right).cloned().collect()
}

/// A join's output list, with every column resolved when the plan names
/// none, and the columns it emits.
fn join_output(
    left: &[ColumnInfo],
    right: &[ColumnInfo],
    output: &JoinOutput,
) -> (Arc<[usize]>, Columns) {
    let output = match output {
        Some(list) => Arc::clone(list),
        None => (0..left.len() + right.len()).collect(),
    };
    let columns = (output.iter())
        .map(|&i| {
            left.get(i)
                .unwrap_or_else(|| &right[i - left.len()])
                .clone()
        })
        .collect();
    (output, columns)
}

/// The labels of the columns at `positions`.
fn labels(columns: &[ColumnInfo], positions: &[usize]) -> Vec<String> {
    positions
        .iter()
        .map(|&i| column_label(columns, i).to_string())
        .collect()
}

/// `l.a = r.b AND …` for the key pairs of a hash (semi-/anti-)join.
fn equi_detail<'a>(
    left: &'a [ColumnInfo],
    left_keys: &'a [usize],
    right: &'a [ColumnInfo],
    right_keys: &'a [usize],
) -> impl fmt::Display + 'a {
    let pairs = left_keys.iter().zip(right_keys).map(move |(&l, &r)| {
        fmt::from_fn(move |f| write!(f, "{} = {}", column_label(left, l), column_label(right, r)))
    });
    separated(" AND ", pairs)
}

/// Position of the named index in the table's index list (stable for the
/// lifetime of a snapshot).
fn index_position(table: &Table, index: &str) -> Result<usize, StoreError> {
    table
        .indexes()
        .iter()
        .position(|i| i.def().name.eq_ignore_ascii_case(index))
        .ok_or_else(|| StoreError::UnknownIndex {
            index: index.to_string(),
        })
}

/// Open a plan into its operator tree without pulling any rows. Opening
/// validates table names and resolves output columns but does **not** read
/// data — `EXPLAIN` uses this to describe a plan without executing it.
pub fn open(db: &Database, plan: &Plan) -> Result<Box<dyn RowSource>, StoreError> {
    open_toward(&Arc::new(ExecContext::new(db)), plan, None)
}

/// Open a plan whose consumer will stop after `row_goal` rows (an `EXISTS`
/// check after one).
pub(crate) fn open_toward(
    ctx: &Arc<ExecContext>,
    plan: &Plan,
    row_goal: Option<usize>,
) -> Result<Box<dyn RowSource>, StoreError> {
    open_in(ctx, plan, row_goal, None)
}

/// Recursive open. `row_goal` travels down the driver spine (inputs and
/// join left sides) to the scan at its end, which consumes it: the consumer
/// wants only that many rows — an `EXISTS` apply wants one. It is handed on
/// by the operators that emit rows as they find them
/// ([`Plan::emits_rows_as_found`]: filter, project, limit, distinct, the
/// probe side of every join, the input of an apply or scalar-subquery
/// filter) and dropped where the first output row needs the whole input
/// (aggregate, sort) — and never given to a build side or a subplan. A scan
/// that receives it reads that many rows first and four times as many on
/// each further pull, up to [`BATCH_SIZE`] ([`BatchRamp`]); the joins on the
/// way buffer by the same ramp before they hand a batch on. Without a goal
/// everything moves in full batches, as it always did.
///
/// `sort_goal` travels one step only: a limit opens its input with its `k`,
/// and a sort that finds it keeps the first `k` rows of its order ([`top_k`])
/// instead of all of them. Every other operator ignores it.
fn open_in(
    ctx: &Arc<ExecContext>,
    plan: &Plan,
    row_goal: Option<usize>,
    sort_goal: Option<usize>,
) -> Result<Box<dyn RowSource>, StoreError> {
    let est = plan.estimated_rows;
    let row_goal = row_goal.filter(|_| plan.emits_rows_as_found());
    let on_spine = |p: &Plan| open_in(ctx, p, row_goal, None);
    let off_spine = |p: &Plan| open_in(ctx, p, None, None);
    Ok(match &plan.node {
        PlanNode::Scan { table, alias } => {
            let stored = Arc::clone(ctx.require_table(table)?);
            ScanSource {
                relation: stored.relation(table, alias),
                table: stored,
                cursor: 0,
                pull_size: BatchRamp::new(row_goal),
                obs: Arc::clone(ctx.obs()),
            }
            .metered(est)
        }
        PlanNode::IndexScan {
            table,
            alias,
            index,
            bounds,
            order,
            index_only,
        } => IndexScanSource::open(
            ctx,
            table,
            alias,
            index,
            bounds.clone(),
            *order,
            *index_only,
            row_goal,
        )?
        .metered(est),
        PlanNode::IndexNestedLoopJoin {
            left,
            table,
            alias,
            index,
            left_key,
            output,
        } => {
            let left = on_spine(left)?;
            let stored = Arc::clone(ctx.require_table(table)?);
            let index_pos = index_position(&stored, index)?;
            let idx = &stored.indexes()[index_pos];
            if idx.width() != 1 {
                return Err(StoreError::Eval {
                    message: format!(
                        "index {} is a composite index and cannot drive a single-key nested-loop probe",
                        idx.def().name
                    ),
                });
            }
            let inner = stored.relation(table, alias);
            let (output, columns) = join_output(left.columns(), &inner.columns, output);
            IndexNljSource {
                columns,
                output,
                left,
                inner,
                index_pos,
                left_key: *left_key,
                pending: Gathered::default(),
                layout: LayoutCache::default(),
                pairs: Pairs::default(),
                fill: BatchRamp::new(row_goal),
                done: false,
                probes: 0,
                matches: 0,
                obs: Arc::clone(ctx.obs()),
                table: stored,
            }
            .metered(est)
        }
        PlanNode::Values { columns, rows } => ValuesSource {
            columns: Arc::clone(columns),
            rows: rows.iter().cloned().collect(),
            cursor: 0,
        }
        .metered(est),
        PlanNode::Filter {
            input,
            predicate,
            vectorized,
            shape_key,
        } => FilterSource {
            input: on_spine(input)?,
            predicate: BoundExpr::new(predicate),
            kernel: vectorized
                .then(|| VectorPredicate::compile(predicate))
                .flatten(),
            shape_key: shape_key.clone(),
        }
        .metered(est),
        PlanNode::Project {
            input,
            exprs,
            columns,
        } => {
            let input = on_spine(input)?;
            let picks = exprs
                .iter()
                .map(|e| match e {
                    Expr::Column(i) => Some(*i),
                    _ => None,
                })
                .collect::<Option<Vec<usize>>>();
            let projection = match picks {
                Some(picks) if picks.iter().copied().eq(0..input.columns().len()) => {
                    Projection::Identity
                }
                Some(picks) => Projection::Picks(picks),
                None => Projection::Exprs(exprs.iter().map(BoundExpr::new).collect()),
            };
            ProjectSource {
                input,
                projection,
                columns: Arc::clone(columns),
                map: LayoutCache::default(),
            }
            .metered(est)
        }
        PlanNode::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let left = on_spine(left)?;
            let right = off_spine(right)?;
            NestedLoopJoinSource {
                columns: joined(left.columns(), right.columns()),
                left,
                right,
                predicate: predicate.as_ref().map(BoundExpr::new),
                right_rows: None,
                pending: VecDeque::new(),
                fill: BatchRamp::new(row_goal),
                done: false,
            }
            .metered(est)
        }
        PlanNode::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            vectorized,
            output,
        } => {
            let left = on_spine(left)?;
            let right = off_spine(right)?;
            let (output, columns) = join_output(left.columns(), right.columns(), output);
            HashJoinSource {
                columns,
                output,
                left,
                right,
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                vectorized: *vectorized,
                build: None,
                pending: Gathered::default(),
                layout: LayoutCache::default(),
                pairs: Pairs::default(),
                fill: BatchRamp::new(row_goal),
                done: false,
                obs: Arc::clone(ctx.obs()),
            }
            .metered(est)
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggregates,
            having,
            vectorized,
        } => {
            let input = on_spine(input)?;
            AggregateSource {
                columns: aggregate_output_columns(input.columns(), group_by, aggregates).into(),
                input,
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
                args: (aggregates.iter().enumerate())
                    .filter_map(|(i, a)| Some((i, BoundExpr::parameterized(a.arg.as_ref()?)?)))
                    .collect(),
                having: having.as_ref().map(BoundExpr::new),
                vectorized: *vectorized,
                pending: None,
            }
            .metered(est)
        }
        PlanNode::Sort { input, keys } => SortSource {
            input: on_spine(input)?,
            keys: keys.clone(),
            keep: sort_goal.unwrap_or(usize::MAX),
            pending: None,
        }
        .metered(est),
        PlanNode::Limit { input, n } => {
            let input = open_in(ctx, input, row_goal, Some(*n))?;
            LimitSource {
                input,
                remaining: *n,
                n: *n,
            }
            .metered(est)
        }
        PlanNode::Distinct { input } => {
            let input = on_spine(input)?;
            DistinctSource {
                seen: KeyTable::new(input.columns().len()),
                all: (0..input.columns().len()).collect(),
                input,
            }
            .metered(est)
        }
        PlanNode::HashSemiJoin {
            left,
            right,
            left_keys,
            right_keys,
        }
        | PlanNode::HashAntiJoin {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => SemiJoinSource {
            left: on_spine(left)?,
            right: off_spine(right)?,
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            anti: matches!(plan.node, PlanNode::HashAntiJoin { .. }),
            null_aware: matches!(
                plan.node,
                PlanNode::HashAntiJoin {
                    null_aware: true,
                    ..
                }
            ),
            build: None,
            obs: Arc::clone(ctx.obs()),
        }
        .metered(est),
        PlanNode::ScalarSubquery {
            input,
            subplan,
            expr,
            op,
            keys,
            absent,
        } => {
            let input = on_spine(input)?;
            let sub = off_spine(subplan)?;
            let (probe, build): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
            ScalarSubquerySource {
                input,
                sub,
                expr: BoundExpr::new(expr),
                op: *op,
                probe,
                build,
                absent: absent.clone(),
                lookup: None,
            }
            .metered(est)
        }
        PlanNode::Apply {
            input,
            subplan,
            params,
            mode,
        } => {
            let input = on_spine(input)?;
            // Opened once, unbound, toward the first row when the mode
            // needs only that: each evaluation rewinds it with a binding.
            let sub = open_toward(ctx, subplan, mode.row_goal())?;
            let operand = match mode {
                ApplyMode::Exists { .. } => None,
                ApplyMode::In { expr, .. }
                | ApplyMode::Compare { expr, .. }
                | ApplyMode::Quantified { expr, .. } => Some(BoundExpr::new(expr)),
            };
            ApplySource {
                input,
                sub,
                param_cols: params.iter().map(|&(_, i)| i).collect(),
                params: params.clone(),
                mode: mode.clone(),
                operand,
                cache: HashMap::new(),
                cache_order: VecDeque::new(),
                obs: Arc::clone(ctx.obs()),
            }
            .metered(est)
        }
    })
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

/// How many rows a scan reads, or a join buffers, before it hands a batch
/// on: [`BATCH_SIZE`], unless a row goal came down the driver spine — then
/// the goal on the first pull and four times as many on each further one. A
/// consumer that wanted one row has usually stopped by then; one that keeps
/// pulling is back at full batches within six pulls.
struct BatchRamp {
    first: usize,
    next: usize,
}

impl BatchRamp {
    fn new(row_goal: Option<usize>) -> BatchRamp {
        let first = row_goal.map_or(BATCH_SIZE, |goal| goal.clamp(1, BATCH_SIZE));
        BatchRamp { first, next: first }
    }

    /// Back to the first pull's size, for a rewound run.
    fn reset(&mut self) {
        self.next = self.first;
    }

    /// The size of this pull; the next one is larger.
    fn take(&mut self) -> usize {
        let size = self.next;
        self.next = (size * 4).min(BATCH_SIZE);
        size
    }
}

struct ScanSource {
    table: Arc<Table>,
    relation: Arc<Relation>,
    /// The next row this scan reads.
    cursor: usize,
    pull_size: BatchRamp,
    obs: Arc<ObsRegistry>,
}

impl Operator for ScanSource {
    fn columns(&self) -> &Columns {
        &self.relation.columns
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        let len = self.table.len();
        if self.cursor >= len {
            return Ok(None);
        }
        let end = (self.cursor + self.pull_size.take()).min(len);
        // The table's rows are lent, not copied.
        let batch = Batch::span(Store::Table(Arc::clone(&self.table)), self.cursor..end);
        self.cursor = end;
        meter.rows_in += batch.len() as u64;
        self.obs.add(Counter::RowsScanned, batch.len() as u64);
        Ok(Some(batch))
    }

    fn exhausted(&self) -> bool {
        self.cursor >= self.table.len()
    }

    fn rewind(&mut self, _bindings: ParamLookup<'_>) {
        self.cursor = 0;
        self.pull_size.reset();
    }

    fn describe(&self) -> Description {
        Description::new(OpKind::Scan, self.relation.to_string())
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
    /// The table as the plan reads it, and the index key as the plan reads
    /// it (an index-only scan's output; the probe predicate's names).
    relation: Arc<Relation>,
    key: Arc<Relation>,
    /// Position of the probed index within the table's index list (stable
    /// for the lifetime of this snapshot).
    index_pos: usize,
    /// The probe as the plan wrote it (what is described), and, when it
    /// reads a parameter, the copy a rewind binds.
    bounds: IndexBounds,
    bound: Option<IndexBounds>,
    /// The bounds pin every key column.
    exact: bool,
    order: ProbeOrder,
    index_only: bool,
    /// Matching heap row positions, resolved on first pull (heap mode).
    positions: Option<Vec<usize>>,
    /// Rows synthesized from index keys, resolved on first pull
    /// (index-only mode).
    index_rows: Option<Arc<[Row]>>,
    cursor: usize,
    pull_size: BatchRamp,
    obs: Arc<ObsRegistry>,
}

impl IndexScanSource {
    #[allow(clippy::too_many_arguments)]
    fn open(
        ctx: &ExecContext,
        table_name: &str,
        alias: &str,
        index: &str,
        bounds: IndexBounds,
        order: ProbeOrder,
        index_only: bool,
        row_goal: Option<usize>,
    ) -> Result<IndexScanSource, StoreError> {
        let table = Arc::clone(ctx.require_table(table_name)?);
        let index_pos = index_position(&table, index)?;
        let idx = &table.indexes()[index_pos];
        let exact = bounds.is_exact(idx.width());
        if (!exact || index_only) && !idx.supports_range() {
            let probe = if exact {
                "an index-only scan"
            } else {
                "a range or prefix probe"
            };
            return Err(StoreError::Eval {
                message: format!(
                    "index {} is a hash index and cannot answer {probe}",
                    idx.def().name
                ),
            });
        }
        Ok(IndexScanSource {
            relation: table.relation(table_name, alias),
            key: idx.relation(table_name, alias),
            table,
            index_pos,
            bound: bounds.has_params().then(|| bounds.clone()),
            bounds,
            exact,
            order,
            index_only,
            positions: None,
            index_rows: None,
            cursor: 0,
            pull_size: BatchRamp::new(row_goal),
            obs: Arc::clone(ctx.obs()),
        })
    }

    fn resolve(&mut self, meter: &mut OpMetrics) -> Result<(), StoreError> {
        if self.positions.is_some() || self.index_rows.is_some() {
            return Ok(());
        }
        let index = &self.table.indexes()[self.index_pos];
        let bounds = self.bound.as_ref().unwrap_or(&self.bounds);
        if self.index_only {
            let entries = index.probe_entries(bounds, self.order)?;
            self.index_rows = Some(entries.into_iter().map(|(_, row)| row).collect());
        } else {
            self.positions = Some(index.probe(bounds, self.order)?);
        }
        meter.probes += 1;
        self.obs.incr(Counter::IndexProbes);
        if self.remaining() == 0 {
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

impl Operator for IndexScanSource {
    fn columns(&self) -> &Columns {
        if self.index_only {
            &self.key.columns
        } else {
            &self.relation.columns
        }
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        self.resolve(meter)?;
        if self.remaining() == 0 {
            return Ok(None);
        }
        let end = self.cursor + self.remaining().min(self.pull_size.take());
        let batch = match &mut self.positions {
            // One batch takes every position: the list itself is handed on.
            Some(positions) if self.cursor == 0 && end == positions.len() => {
                Batch::positions(&self.table, std::mem::take(positions))
            }
            Some(positions) => Batch::positions(&self.table, positions[self.cursor..end].to_vec()),
            None => {
                let rows = self.index_rows.as_ref().expect("resolved above");
                Batch::span(Store::Shared(Arc::clone(rows)), self.cursor..end)
            }
        };
        self.cursor = end;
        meter.rows_in += batch.len() as u64;
        self.obs.add(Counter::RowsScanned, batch.len() as u64);
        Ok(Some(batch))
    }

    fn exhausted(&self) -> bool {
        // Unresolved, the probe is still to be made.
        (self.positions.is_some() || self.index_rows.is_some()) && self.remaining() == 0
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        if let Some(bound) = &mut self.bound {
            bound.rebind(&self.bounds, bindings);
        }
        self.positions = None;
        self.index_rows = None;
        self.cursor = 0;
        self.pull_size.reset();
    }

    fn describe(&self) -> Description {
        let name = &self.table.indexes()[self.index_pos].def().name;
        let bounds = &self.bounds;
        let predicate = bounds.describe(&self.key.columns);
        let mode = if self.exact {
            "point"
        } else if bounds.lo.is_none() && bounds.hi.is_none() && !bounds.eq.is_empty() {
            "prefix"
        } else {
            "range"
        };
        let order_tag = match self.order {
            ProbeOrder::Position => "",
            ProbeOrder::KeyAsc => ", key order",
            ProbeOrder::KeyDesc => ", key order desc",
        };
        let only = if self.index_only { " [index-only]" } else { "" };
        let detail = format!(
            "{} [index={name} {mode} {predicate}{order_tag}]{only}",
            self.relation
        );
        Description {
            access: Some(IndexAccess {
                table: self.relation.table.to_string(),
                alias: self.relation.alias.to_string(),
                index: name.clone(),
                point: self.exact,
                predicate: Some(SqlText::verbatim(predicate)),
                order: self.order,
                index_only: self.index_only,
            }),
            ..Description::new(OpKind::IndexScan, detail)
        }
    }
}

// ---------------------------------------------------------------------------
// Index nested-loop join
// ---------------------------------------------------------------------------

/// For each left row, probe the inner table's index with the value at
/// `left_key` and emit the joined matches (index insertion order, so
/// output order is deterministic). There is no build side at all — the
/// planner's choice when the outer is tiny and building a hash table over
/// the whole inner would dominate.
struct IndexNljSource {
    left: Box<dyn RowSource>,
    table: Arc<Table>,
    /// The probed table as the plan reads it (the probe-side pseudo-profile).
    inner: Arc<Relation>,
    index_pos: usize,
    left_key: usize,
    /// The positions of `left ++ inner` each joined row is made of.
    output: Arc<[usize]>,
    columns: Columns,
    /// Joined rows not yet handed on: left rows beside heap rows.
    pending: Gathered,
    layout: LayoutCache,
    pairs: Pairs,
    fill: BatchRamp,
    done: bool,
    /// Probes issued (non-NULL left keys).
    probes: u64,
    /// Inner rows fetched across all probes.
    matches: u64,
    obs: Arc<ObsRegistry>,
}

impl Operator for IndexNljSource {
    fn columns(&self) -> &Columns {
        &self.columns
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        let fill = self.fill.take();
        while self.pending.len() < fill && !self.done {
            match meter.pull(&mut self.left)? {
                None => self.done = true,
                Some(batch) => {
                    let index = &self.table.indexes()[self.index_pos];
                    let matched_before = self.matches;
                    let mut probes = 0u64;
                    let mut empty = 0u64;
                    self.pairs.clear();
                    for i in 0..batch.len() {
                        let probe = batch.value(i, self.left_key).unwrap_or(&Value::Null);
                        if probe.is_null() {
                            continue; // SQL equality never matches NULL.
                        }
                        probes += 1;
                        let positions = index.probe_point(probe);
                        if positions.is_empty() {
                            empty += 1;
                        }
                        for &pos in positions {
                            self.matches += 1;
                            self.pairs.push((i, pos));
                        }
                    }
                    let split = self.left.columns().len();
                    let layout = self.layout.get(&batch, &self.output, Some(split));
                    let heap = Store::Table(Arc::clone(&self.table));
                    self.pending.append(batch, &self.pairs, heap, layout);
                    self.probes += probes;
                    self.obs.add(Counter::IndexProbes, probes);
                    self.obs.add(Counter::EmptyIndexProbes, empty);
                    // The inner rows fetched were read from storage, as a
                    // scan's are.
                    self.obs
                        .add(Counter::RowsScanned, self.matches - matched_before);
                }
            }
        }
        Ok(self.pending.take(BATCH_SIZE))
    }

    fn exhausted(&self) -> bool {
        self.pending.len() == 0 && (self.done || self.left.exhausted())
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.left.rewind(bindings);
        self.pending.clear();
        self.fill.reset();
        self.done = false;
    }

    fn describe(&self) -> Description {
        let def = self.table.indexes()[self.index_pos].def();
        let inner = &self.inner;
        // The probe side is not an operator of its own (there is no build),
        // but the profile still shows it as a child so narrations and the
        // empty-result detective can see both sides of the join. Its detail
        // says how many probes and matches there were when it is read.
        let probe_detail = format!("{inner} [index={}]", def.name);
        let probe_side = Description {
            access: Some(IndexAccess {
                table: inner.table.to_string(),
                alias: inner.alias.to_string(),
                index: def.name.clone(),
                point: true,
                predicate: None,
                order: ProbeOrder::Position,
                index_only: false,
            }),
            ..Description::new(OpKind::IndexProbe, probe_detail)
        }
        .shape(&inner.columns, None, []);
        let detail = format!(
            "{} = {}.{} [index={}]",
            column_label(self.left.columns(), self.left_key),
            inner.alias,
            def.columns[0],
            def.name
        );
        Description {
            synthetic: Some(probe_side),
            ..Description::new(OpKind::IndexNestedLoopJoin, detail)
        }
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.left].into_iter()
    }

    fn synthetic_nodes(&self) -> usize {
        1
    }

    fn absorb_synthetic(&self, probe_side: &mut [OpMetrics]) -> usize {
        // The probe side's counters: probes issued in, matches out.
        probe_side[0].rows_in += self.probes;
        probe_side[0].probes += self.probes;
        probe_side[0].rows_out += self.matches;
        1
    }
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

struct ValuesSource {
    columns: Columns,
    rows: Arc<[Row]>,
    cursor: usize,
}

impl Operator for ValuesSource {
    fn columns(&self) -> &Columns {
        &self.columns
    }

    fn pull(&mut self, _meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        if self.cursor >= self.rows.len() {
            return Ok(None);
        }
        let end = (self.cursor + BATCH_SIZE).min(self.rows.len());
        let batch = Batch::span(Store::Shared(Arc::clone(&self.rows)), self.cursor..end);
        self.cursor = end;
        Ok(Some(batch))
    }

    fn exhausted(&self) -> bool {
        self.cursor >= self.rows.len()
    }

    fn rewind(&mut self, _bindings: ParamLookup<'_>) {
        self.cursor = 0;
    }

    fn describe(&self) -> Description {
        Description::new(OpKind::Values, format!("{} literal rows", self.rows.len()))
    }
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

struct FilterSource {
    input: Box<dyn RowSource>,
    predicate: BoundExpr,
    /// Typed-kernel compilation of the predicate, when the planner marked
    /// this filter vectorized and the expression shape allows it. Batches
    /// whose columns resist transposition still fall back to row-at-a-time
    /// evaluation individually.
    kernel: Option<VectorPredicate>,
    shape_key: Option<Arc<ShapeKey>>,
}

impl Operator for FilterSource {
    fn columns(&self) -> &Columns {
        self.input.columns()
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        let Some(mut batch) = meter.pull(&mut self.input)? else {
            return Ok(None);
        };
        let Some(mask) = self.kernel.as_ref().and_then(|k| k.evaluate(&batch)) else {
            return retain(batch, |row| self.predicate.get().eval_predicate(&row));
        };
        meter.vector_batches += 1;
        batch.narrow(&mask);
        Ok(Some(batch))
    }

    fn exhausted(&self) -> bool {
        self.input.exhausted()
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.input.rewind(bindings);
        self.predicate.rebind(bindings);
        if let Some(kernel) = &mut self.kernel {
            kernel.rebind(bindings);
        }
    }

    fn describe(&self) -> Description {
        Description {
            tags: vectorized_tag(self.kernel.is_some()),
            shape_key: self.shape_key.clone(),
            ..Description::new(
                OpKind::Filter,
                render_expr(self.predicate.written(), self.input.columns()),
            )
        }
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.input].into_iter()
    }
}

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

struct ProjectSource {
    input: Box<dyn RowSource>,
    projection: Projection,
    columns: Columns,
    /// The column map of `Picks` over the input's layout.
    map: LayoutCache,
}

/// How a projection makes its output row from an input row.
enum Projection {
    /// Every input column in its own place: the input row is the output row.
    Identity,
    /// Plain columns at these input positions: the batch is read through
    /// another column map, no row is made and no expression evaluated.
    Picks(Vec<usize>),
    /// Anything else: each expression evaluated.
    Exprs(Vec<BoundExpr>),
}

impl Operator for ProjectSource {
    fn columns(&self) -> &Columns {
        &self.columns
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        let Some(mut batch) = meter.pull(&mut self.input)? else {
            return Ok(None);
        };
        Ok(Some(match &self.projection {
            Projection::Identity => batch,
            Projection::Picks(picks) => {
                batch.remap(Arc::clone(&self.map.get(&batch, picks, None).map));
                batch
            }
            Projection::Exprs(exprs) => {
                let mut rows = Vec::with_capacity(batch.len());
                let mut values = Vec::with_capacity(exprs.len());
                for i in 0..batch.len() {
                    for e in exprs {
                        values.push(e.get().eval(&batch.row(i))?);
                    }
                    // Straight into the row's one allocation.
                    rows.push(values.drain(..).collect());
                }
                Batch::from(rows)
            }
        }))
    }

    fn exhausted(&self) -> bool {
        self.input.exhausted()
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.input.rewind(bindings);
        if let Projection::Exprs(exprs) = &mut self.projection {
            exprs.iter_mut().for_each(|e| e.rebind(bindings));
        }
    }

    fn describe(&self) -> Description {
        Description::new(
            OpKind::Project,
            separated(", ", self.columns.iter()).to_string(),
        )
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.input].into_iter()
    }
}

// ---------------------------------------------------------------------------
// Nested-loop join
// ---------------------------------------------------------------------------

struct NestedLoopJoinSource {
    left: Box<dyn RowSource>,
    right: Box<dyn RowSource>,
    predicate: Option<BoundExpr>,
    columns: Columns,
    /// Materialized inner side, built on first pull.
    right_rows: Option<Vec<Row>>,
    pending: VecDeque<Row>,
    fill: BatchRamp,
    done: bool,
}

impl Operator for NestedLoopJoinSource {
    fn columns(&self) -> &Columns {
        &self.columns
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        if self.right_rows.is_none() {
            self.right_rows = Some(meter.drain(&mut self.right)?);
        }
        let fill = self.fill.take();
        while self.pending.len() < fill && !self.done {
            match meter.pull(&mut self.left)? {
                None => self.done = true,
                Some(batch) => {
                    let right = self.right_rows.as_ref().expect("built above");
                    for i in 0..batch.len() {
                        let lr = batch.to_row(i);
                        for rr in right.iter() {
                            let joined = lr.concat(rr);
                            let keep = match &self.predicate {
                                None => true,
                                Some(p) => p.get().eval_predicate(&joined)?,
                            };
                            if keep {
                                self.pending.push_back(joined);
                            }
                        }
                    }
                }
            }
        }
        Ok(drain_pending(&mut self.pending))
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.left.rewind(bindings);
        self.right.rewind(bindings);
        if let Some(predicate) = &mut self.predicate {
            predicate.rebind(bindings);
        }
        self.right_rows = None;
        self.pending.clear();
        self.fill.reset();
        self.done = false;
    }

    fn describe(&self) -> Description {
        let detail = match &self.predicate {
            Some(p) => render_expr(p.written(), &self.columns),
            None => "cross product".to_string(),
        };
        Description::new(OpKind::NestedLoopJoin, detail)
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.left, &*self.right].into_iter()
    }
}

/// Emit up to one batch from an operator's buffer of rows it made.
fn drain_pending(pending: &mut VecDeque<Row>) -> Option<Batch> {
    if pending.is_empty() {
        return None;
    }
    let take = pending.len().min(BATCH_SIZE);
    Some(Batch::from(pending.drain(..take).collect::<Vec<_>>()))
}

/// `batch`, holding only the rows `keep` accepts.
fn retain(
    mut batch: Batch,
    mut keep: impl FnMut(BatchRow) -> Result<bool, StoreError>,
) -> Result<Option<Batch>, StoreError> {
    let mut mask = Vec::with_capacity(batch.len());
    for i in 0..batch.len() {
        mask.push(keep(batch.row(i))?);
    }
    batch.narrow(&mask);
    Ok(Some(batch))
}

/// The pairs a join found in one probe batch: each probe row's position in
/// the batch beside the position of one of its matches on the other side.
/// Kept from batch to batch, so finding them allocates nothing.
type Pairs = Vec<(usize, usize)>;

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

struct HashJoinSource {
    left: Box<dyn RowSource>,
    right: Box<dyn RowSource>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    /// The planner's `[vectorized]` mark: shown, and counted per probe
    /// batch; the probe itself has one form.
    vectorized: bool,
    /// The positions of `left ++ right` each joined row is made of.
    output: Arc<[usize]>,
    columns: Columns,
    /// Hash index over the build (right) side, built on first pull: key →
    /// build rows with that key.
    build: Option<JoinIndex>,
    /// Joined rows not yet handed on: probe rows beside build rows.
    pending: Gathered,
    layout: LayoutCache,
    pairs: Pairs,
    fill: BatchRamp,
    done: bool,
    obs: Arc<ObsRegistry>,
}

/// The build side of a hash join: its rows grouped by key — every key's rows
/// side by side, in build order — and where each key's run lies. The rows
/// are lent to every batch the join hands on.
#[derive(Debug)]
struct JoinIndex {
    /// The distinct keys; a key's id numbers its run.
    keys: KeyTable,
    /// Key `k`'s rows end at `ends[k]`, where key `k + 1`'s begin.
    ends: Vec<usize>,
    rows: Arc<[Row]>,
}

impl JoinIndex {
    /// Pull the build side dry and group its rows by key. Each row's key is
    /// hashed where it lies and only a new key is stored; a row whose key
    /// holds a NULL joins nothing and is never made. The others are made
    /// rows of their own ([`Batch::to_row`]) and moved to their places in
    /// their keys' runs. Returns the index and the number of rows pulled.
    fn build(
        meter: &mut OpMetrics,
        right: &mut Box<dyn RowSource>,
        key_cols: &[usize],
    ) -> Result<(JoinIndex, usize), StoreError> {
        let mut keys = KeyTable::new(key_cols.len());
        let (mut rows, mut place, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        let mut pulled = 0;
        while let Some(batch) = meter.pull(right)? {
            pulled += batch.len();
            for i in 0..batch.len() {
                let key = RowKey(&batch.row(i), key_cols);
                if key.has_null() {
                    continue;
                }
                let (id, fresh) = keys.insert(key.hash(), &key);
                if fresh {
                    ends.push(0);
                }
                ends[id as usize] += 1;
                place.push(id as usize);
                rows.push(batch.to_row(i));
            }
        }
        // Run sizes to run starts; placing a row moves its run's start on,
        // so that each run ends where the next begins.
        let mut start = 0;
        for end in &mut ends {
            let size = *end;
            *end = start;
            start += size;
        }
        for at in &mut place {
            let id = *at;
            *at = ends[id];
            ends[id] += 1;
        }
        // Every row to its place, following the placement's cycles.
        for i in 0..rows.len() {
            while place[i] != i {
                let to = place[i];
                rows.swap(i, to);
                place.swap(i, to);
            }
        }
        let rows = rows.into();
        Ok((JoinIndex { keys, ends, rows }, pulled))
    }

    /// The positions of the build rows whose key is `=` to a NULL-free probe
    /// key, in build order.
    fn lookup(&self, key: &(impl Key + ?Sized)) -> Option<Range<usize>> {
        let id = self.keys.find(key.hash(), key)? as usize;
        let start = id.checked_sub(1).map_or(0, |before| self.ends[before]);
        Some(start..self.ends[id])
    }
}

impl Operator for HashJoinSource {
    fn columns(&self) -> &Columns {
        &self.columns
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        if self.build.is_none() {
            let (index, pulled) = JoinIndex::build(meter, &mut self.right, &self.right_keys)?;
            self.obs.add(Counter::HashBuildRows, pulled as u64);
            self.build = Some(index);
        }
        let fill = self.fill.take();
        while self.pending.len() < fill && !self.done {
            match meter.pull(&mut self.left)? {
                None => self.done = true,
                Some(batch) => {
                    let index = self.build.as_ref().expect("built above");
                    meter.vector_batches += u64::from(self.vectorized);
                    // The key is read where it lies, and a match is a pair
                    // of positions: no row is made.
                    self.pairs.clear();
                    for i in 0..batch.len() {
                        let key = RowKey(&batch.row(i), &self.left_keys);
                        if key.has_null() {
                            continue;
                        }
                        for b in index.lookup(&key).into_iter().flatten() {
                            self.pairs.push((i, b));
                        }
                    }
                    let split = self.left.columns().len();
                    let layout = self.layout.get(&batch, &self.output, Some(split));
                    let build = Store::Shared(Arc::clone(&index.rows));
                    self.pending.append(batch, &self.pairs, build, layout);
                }
            }
        }
        Ok(self.pending.take(BATCH_SIZE))
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.left.rewind(bindings);
        self.right.rewind(bindings);
        self.build = None;
        self.pending.clear();
        self.fill.reset();
        self.done = false;
    }

    fn describe(&self) -> Description {
        let (left, right) = (self.left.columns(), self.right.columns());
        let keys = equi_detail(left, &self.left_keys, right, &self.right_keys);
        Description {
            tags: vectorized_tag(self.vectorized),
            ..Description::new(OpKind::HashJoin, keys.to_string())
        }
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.left, &*self.right].into_iter()
    }
}

// ---------------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------------

struct AggregateSource {
    input: Box<dyn RowSource>,
    group_by: Vec<usize>,
    /// As the plan wrote them; the arguments that read a parameter are
    /// bound in `args`.
    aggregates: Vec<AggExpr>,
    args: Vec<(usize, BoundExpr)>,
    having: Option<BoundExpr>,
    /// Accumulate column-major when every aggregate argument is a column.
    vectorized: bool,
    columns: Columns,
    /// Result rows, computed on first pull.
    pending: Option<VecDeque<Row>>,
}

impl Operator for AggregateSource {
    fn columns(&self) -> &Columns {
        &self.columns
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        if self.pending.is_none() {
            let mut aggregates = self.aggregates.clone();
            for (i, arg) in &self.args {
                aggregates[*i].arg = Some(arg.get().clone());
            }
            let mut agg =
                GroupedAggregator::new(self.group_by.clone(), aggregates, self.vectorized);
            while let Some(batch) = meter.pull(&mut self.input)? {
                agg.push_batch(&batch)?;
            }
            meter.vector_batches += agg.vector_batches();
            self.pending = Some(agg.finish(self.having.as_ref().map(BoundExpr::get))?.into());
        }
        Ok(drain_pending(
            self.pending.as_mut().expect("computed above"),
        ))
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.input.rewind(bindings);
        self.args
            .iter_mut()
            .for_each(|(_, arg)| arg.rebind(bindings));
        if let Some(having) = &mut self.having {
            having.rebind(bindings);
        }
        self.pending = None;
    }

    fn describe(&self) -> Description {
        Description {
            tags: vectorized_tag(self.vectorized),
            ..Description::new(
                OpKind::Aggregate,
                aggregate_detail(
                    self.input.columns(),
                    &self.group_by,
                    &self.aggregates,
                    &self.having,
                ),
            )
        }
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.input].into_iter()
    }
}

/// Render the aggregate operator's detail line ("group by …; cnt, total").
fn aggregate_detail(
    input_columns: &[ColumnInfo],
    group_by: &[usize],
    aggregates: &[AggExpr],
    having: &Option<BoundExpr>,
) -> String {
    let mut detail = String::new();
    if !group_by.is_empty() {
        let keys = group_by.iter().map(|&key| column_label(input_columns, key));
        let _ = write!(detail, "group by {}; ", separated(", ", keys));
    }
    let names = aggregates.iter().map(|a| &a.output_name);
    let _ = write!(detail, "{}", separated(", ", names));
    if having.is_some() {
        detail.push_str("; having …");
    }
    detail
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

struct SortSource {
    input: Box<dyn RowSource>,
    keys: Vec<SortKey>,
    /// How many rows of the order the consumer will take: the `k` of a limit
    /// directly above, otherwise all of them.
    keep: usize,
    pending: Option<VecDeque<Row>>,
}

impl Operator for SortSource {
    fn columns(&self) -> &Columns {
        self.input.columns()
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        if self.pending.is_none() {
            // Never hold more than the rows that can still win plus two
            // batches of candidates: the top k of (the top k so far, then
            // what arrived since) is the top k of everything.
            let bound = self.keep.max(BATCH_SIZE).saturating_mul(2);
            let mut rows = Vec::new();
            while let Some(batch) = meter.pull(&mut self.input)? {
                batch.drain_into(&mut rows);
                if rows.len() >= bound {
                    rows = top_k(rows, &self.keys, self.keep);
                }
            }
            self.pending = Some(top_k(rows, &self.keys, self.keep).into());
        }
        Ok(drain_pending(self.pending.as_mut().expect("sorted above")))
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.input.rewind(bindings);
        self.pending = None;
    }

    fn describe(&self) -> Description {
        let columns = self.input.columns();
        let keys = self.keys.iter().map(move |key| {
            let desc = if key.ascending { "" } else { " DESC" };
            fmt::from_fn(move |f| write!(f, "{}{desc}", column_label(columns, key.column)))
        });
        Description::new(OpKind::Sort, separated(", ", keys).to_string())
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.input].into_iter()
    }
}

/// The first `k` rows of the stable sort of `rows` by `keys`, ties to the
/// earlier row: the sort operator's order (`k = usize::MAX`), and what a
/// sort under a limit keeps.
///
/// Each key is read once per row. When each key holds numbers of one kind,
/// a row becomes fixed-width order words — an Integer sign-flipped, a Float
/// ordered as [`Value::total_cmp`] orders it, NULL first, a DESC key
/// inverted — packed with its position last into one `u64` where they fit;
/// the position makes the order strict, so an unstable selection and sort
/// give exactly the stable order. Otherwise positions are sorted by typed
/// key columns (numbers as words, Text as `&str`, a column of mixed kinds as
/// `&Value`), position last. Only the rows that can be among the first `k`,
/// found by selection, are sorted, and they are moved into their places,
/// not cloned.
pub fn top_k(rows: Vec<Row>, keys: &[SortKey], k: usize) -> Vec<Row> {
    let k = k.min(rows.len());
    if k == 0 {
        return Vec::new();
    }
    let order = packed_order(&rows, keys, k).unwrap_or_else(|| {
        let columns: Vec<SortColumn> = (keys.iter())
            .map(|key| SortColumn::read(&rows, key.column))
            .collect();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        first_k(&mut order, k, |&a, &b| {
            (columns.iter().zip(keys))
                .map(|(column, key)| match column.cmp(a, b) {
                    ord if key.ascending => ord,
                    ord => ord.reverse(),
                })
                .find(|ord| ord.is_ne())
                .unwrap_or_else(|| a.cmp(&b))
        });
        order
    });
    // Each row moves once; the rows left behind are dropped with `slots`.
    let mut slots: Vec<Option<Row>> = rows.into_iter().map(Some).collect();
    (order.into_iter())
        .map(|at| slots[at].take().expect("a position is kept once"))
        .collect()
}

/// Keep the `k` least of `entries` by `cmp`, sorted: a selection first when
/// that leaves some out.
fn first_k<T>(entries: &mut Vec<T>, k: usize, mut cmp: impl FnMut(&T, &T) -> Ordering) {
    if k < entries.len() {
        entries.select_nth_unstable_by(k - 1, &mut cmp);
        entries.truncate(k);
    }
    entries.sort_unstable_by(cmp);
}

/// A number as a word whose unsigned order is [`Value::total_cmp`]'s: an
/// Integer with its sign bit flipped, a Float as [`f64::total_cmp`] orders
/// its bits once `-0.0` is `0.0` — so a NaN, by its sign, sorts before or
/// after every number and equals only itself, as [`crate::value::cmp_f64`]
/// has it.
fn order_word(value: &Value) -> Option<u64> {
    match value {
        Value::Integer(i) => Some(*i as u64 ^ 1 << 63),
        Value::Float(f) => {
            let bits = if *f == 0.0 { 0 } else { f.to_bits() };
            Some(if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            })
        }
        _ => None,
    }
}

/// The positions of the first `k` rows by `keys`, each holding numbers of
/// one kind (and NULL, as the word 0), when the keys narrowed to their
/// ranges fit one `u64` beside the position; `None` when they do not, when
/// a key holds anything else, or when it holds NULL beside a number whose
/// word is 0 (`i64::MIN`, or a NaN of all ones).
///
/// Each key's words, less the least of them, are packed below the keys
/// before it and the position below them all, so the order of the packed
/// words is the order by the keys, ties to the earlier row.
fn packed_order(rows: &[Row], keys: &[SortKey], k: usize) -> Option<Vec<usize>> {
    fn at(row: &Row, column: usize) -> &Value {
        row.get(column).unwrap_or(&Value::Null)
    }
    // A key whose first value is not a number (Text, most often) is not
    // read at all.
    let numbers = |key: &SortKey| match rows
        .iter()
        .map(|r| at(r, key.column))
        .find(|v| !v.is_null())
    {
        None | Some(Value::Integer(_) | Value::Float(_)) => true,
        Some(_) => false,
    };
    if !keys.iter().all(numbers) {
        return None;
    }
    let width = |span: u64| u64::BITS - span.leading_zeros();
    // At least one bit, so that no key is shifted by a whole word.
    let position_bits = width(rows.len() as u64);
    let mut room = u64::BITS - position_bits;
    let mut packed = vec![0u64; rows.len()];
    let mut words = Vec::with_capacity(rows.len());
    for key in keys {
        let flip = if key.ascending { 0 } else { u64::MAX };
        let (mut kind, mut null, mut zero) = (None, false, false);
        let (mut least, mut most) = (u64::MAX, 0);
        words.clear();
        for row in rows {
            let value = at(row, key.column);
            let word = match value {
                Value::Null => {
                    null = true;
                    0
                }
                _ => {
                    let this = std::mem::discriminant(value);
                    if *kind.get_or_insert(this) != this {
                        return None;
                    }
                    let word = order_word(value)?;
                    zero |= word == 0;
                    word
                }
            } ^ flip;
            least = least.min(word);
            most = most.max(word);
            words.push(word);
        }
        if null && zero {
            return None;
        }
        let bits = width(most - least);
        room = room.checked_sub(bits)?;
        for (p, word) in packed.iter_mut().zip(&words) {
            *p = *p << bits | (word - least);
        }
    }
    for (position, p) in packed.iter_mut().enumerate() {
        *p = *p << position_bits | position as u64;
    }
    first_k(&mut packed, k, u64::cmp);
    let mask = (1 << position_bits) - 1;
    Some(packed.into_iter().map(|p| (p & mask) as usize).collect())
}

/// One `ORDER BY` key of a batch of rows, read once, where [`packed_order`]
/// does not apply: the form it is compared in without a `Value` match per
/// comparison, when there is one.
enum SortColumn<'a> {
    /// Integers, or Floats, as [`order_word`]s; `None` is NULL, which sorts
    /// first.
    Words(Vec<Option<u64>>),
    /// Text, borrowed from its rows; `None` is NULL.
    Text(Vec<Option<&'a str>>),
    /// Anything else (Integers beside Floats, Booleans, Dates): the values
    /// themselves, compared by [`Value::total_cmp`]. Above 2^53 a mix of
    /// Integers and Floats is not transitively ordered, so no word can
    /// stand for it.
    Values(Vec<&'a Value>),
}

impl<'a> SortColumn<'a> {
    /// Column `column` of `rows`, in the narrowest form that orders it: the
    /// first value that is not NULL sets the kind the others must share.
    fn read(rows: &'a [Row], column: usize) -> SortColumn<'a> {
        let at = |row: &'a Row| row.get(column).unwrap_or(&Value::Null);
        let first = rows.iter().map(at).find(|v| !v.is_null());
        let kind = first.map(std::mem::discriminant);
        let of_kind = |v: &Value| v.is_null() || Some(std::mem::discriminant(v)) == kind;
        match first {
            None | Some(Value::Integer(_) | Value::Float(_)) => {
                let words = rows
                    .iter()
                    .map(at)
                    .map(|v| of_kind(v).then(|| order_word(v)));
                if let Some(words) = words.collect() {
                    return SortColumn::Words(words);
                }
            }
            Some(Value::Text(_)) => {
                let text = rows.iter().map(at).map(|v| of_kind(v).then(|| v.as_str()));
                if let Some(text) = text.collect() {
                    return SortColumn::Text(text);
                }
            }
            Some(_) => {}
        }
        SortColumn::Values(rows.iter().map(at).collect())
    }

    /// Rows `a` and `b` in this column's order, ascending.
    fn cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            SortColumn::Words(w) => w[a].cmp(&w[b]),
            SortColumn::Text(t) => t[a].cmp(&t[b]),
            SortColumn::Values(v) => v[a].total_cmp(v[b]),
        }
    }
}

// ---------------------------------------------------------------------------
// Limit
// ---------------------------------------------------------------------------

struct LimitSource {
    input: Box<dyn RowSource>,
    remaining: usize,
    n: usize,
}

impl Operator for LimitSource {
    fn columns(&self) -> &Columns {
        self.input.columns()
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        if self.remaining == 0 {
            // Early termination: stop pulling from the input entirely.
            return Ok(None);
        }
        let Some(mut batch) = meter.pull(&mut self.input)? else {
            return Ok(None);
        };
        batch.truncate(self.remaining);
        self.remaining -= batch.len();
        Ok(Some(batch))
    }

    fn exhausted(&self) -> bool {
        self.remaining == 0 || self.input.exhausted()
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.input.rewind(bindings);
        self.remaining = self.n;
    }

    fn describe(&self) -> Description {
        Description::new(OpKind::Limit, self.n.to_string())
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.input].into_iter()
    }
}

// ---------------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------------

struct DistinctSource {
    input: Box<dyn RowSource>,
    /// Every distinct row so far, NULL the same as NULL: the whole row is
    /// the key.
    seen: KeyTable,
    all: Vec<usize>,
}

impl Operator for DistinctSource {
    fn columns(&self) -> &Columns {
        self.input.columns()
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        let Some(batch) = meter.pull(&mut self.input)? else {
            return Ok(None);
        };
        retain(batch, |row| {
            let key = RowKey(&row, &self.all);
            Ok(self.seen.insert(key.hash(), &key).1)
        })
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.input.rewind(bindings);
        self.seen = KeyTable::new(self.input.columns().len());
    }

    fn describe(&self) -> Description {
        Description::new(OpKind::Distinct, String::new())
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.input].into_iter()
    }
}

// ---------------------------------------------------------------------------
// Semi / anti join
// ---------------------------------------------------------------------------

/// Hash semi- and anti-join: filter the probe (left) side by key membership
/// in the build (right) side. Unlike a hash join, only the key *set* is
/// retained — no build rows are ever emitted — so the build is a key set
/// plus two flags capturing what `NOT IN` NULL semantics need to know: did
/// the build side have any rows, and did any build key contain NULL.
struct SemiJoinSource {
    left: Box<dyn RowSource>,
    right: Box<dyn RowSource>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    anti: bool,
    null_aware: bool,
    /// Key set plus NULL-semantics flags, built on first pull.
    build: Option<SemiBuild>,
    obs: Arc<ObsRegistry>,
}

/// The build side of a semi-/anti-join: the distinct non-NULL key set plus
/// the two flags `NOT IN`'s three-valued NULL semantics need.
#[derive(Debug)]
struct SemiBuild {
    keys: KeyTable,
    /// Whether the build side produced any rows at all.
    any_rows: bool,
    /// Whether any build key contained a NULL.
    null_key: bool,
}

impl SemiBuild {
    /// Pull the build side dry into its key set, each key read where it
    /// lies. Returns the build and the number of rows pulled.
    fn build(
        meter: &mut OpMetrics,
        right: &mut Box<dyn RowSource>,
        key_cols: &[usize],
    ) -> Result<(SemiBuild, usize), StoreError> {
        let mut keys = KeyTable::new(key_cols.len());
        let (mut null_key, mut pulled) = (false, 0);
        while let Some(batch) = meter.pull(right)? {
            pulled += batch.len();
            for i in 0..batch.len() {
                let key = RowKey(&batch.row(i), key_cols);
                if key.has_null() {
                    null_key = true;
                } else {
                    keys.insert(key.hash(), &key);
                }
            }
        }
        let build = SemiBuild {
            keys,
            any_rows: pulled > 0,
            null_key,
        };
        Ok((build, pulled))
    }

    /// Whether the build-side key set holds a key `=` to `key`.
    fn contains(&self, key: &(impl Key + ?Sized)) -> bool {
        self.keys.find(key.hash(), key).is_some()
    }
}

impl SemiJoinSource {
    /// Whether a probe row with this key survives the (anti-)semi-join.
    fn keep(&self, build: &SemiBuild, key: &RowKey<BatchRow>) -> bool {
        let probe_null = key.has_null();
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

impl Operator for SemiJoinSource {
    fn columns(&self) -> &Columns {
        self.left.columns()
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        if self.build.is_none() {
            let (build, pulled) = SemiBuild::build(meter, &mut self.right, &self.right_keys)?;
            self.obs.add(Counter::HashBuildRows, pulled as u64);
            self.build = Some(build);
        }
        let Some(batch) = meter.pull(&mut self.left)? else {
            return Ok(None);
        };
        let build = self.build.as_ref().expect("built above");
        retain(batch, |row| {
            Ok(self.keep(build, &RowKey(&row, &self.left_keys)))
        })
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.left.rewind(bindings);
        self.right.rewind(bindings);
        self.build = None;
    }

    fn describe(&self) -> Description {
        let keys = equi_detail(
            self.left.columns(),
            &self.left_keys,
            self.right.columns(),
            &self.right_keys,
        );
        let null_aware = if self.null_aware { " (NULL-aware)" } else { "" };
        Description::new(
            if self.anti {
                OpKind::AntiJoin
            } else {
                OpKind::SemiJoin
            },
            format!("{keys}{null_aware}"),
        )
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.left, &*self.right].into_iter()
    }
}

// ---------------------------------------------------------------------------
// Scalar subquery
// ---------------------------------------------------------------------------

/// Evaluate a scalar subquery exactly once, keep its values by key, and
/// filter the input by comparing each row against its own.
struct ScalarSubquerySource {
    input: Box<dyn RowSource>,
    sub: Box<dyn RowSource>,
    expr: BoundExpr,
    op: CmpOp,
    /// Input positions of the probe key, and the subplan columns of the
    /// build key it is looked up by (both empty when uncorrelated).
    probe: Vec<usize>,
    build: Vec<usize>,
    /// The value of a row with no group.
    absent: Value,
    /// Values by key, computed on first pull: the subquery runs once per
    /// run of this operator.
    lookup: Option<ScalarLookup>,
}

/// A scalar subquery's values by key (the empty key when uncorrelated): key
/// `k`'s value is `values[k]`.
#[derive(Debug)]
struct ScalarLookup {
    keys: KeyTable,
    values: Vec<Value>,
}

impl ScalarSubquerySource {
    fn build_lookup(&mut self, meter: &mut OpMetrics) -> Result<ScalarLookup, StoreError> {
        let mut lookup = ScalarLookup {
            keys: KeyTable::new(self.build.len()),
            values: Vec::new(),
        };
        let value_col = self.sub.columns().len().saturating_sub(1);
        // The subquery's rows are not this filter's input: waited for, not
        // counted into `rows_in`.
        while let Some(batch) = meter.wait_for(&mut self.sub)? {
            for i in 0..batch.len() {
                let row = batch.row(i);
                let key = RowKey(&row, &self.build);
                lookup
                    .values
                    .push(row.value(value_col).cloned().unwrap_or(Value::Null));
                if !lookup.keys.insert(key.hash(), &key).1 {
                    return Err(StoreError::Eval {
                        message: "scalar subquery produced more than one row".into(),
                    });
                }
            }
        }
        meter.evaluations += 1;
        meter.groups += lookup.keys.len() as u64;
        Ok(lookup)
    }
}

impl Operator for ScalarSubquerySource {
    fn columns(&self) -> &Columns {
        self.input.columns()
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        if self.lookup.is_none() {
            self.lookup = Some(self.build_lookup(meter)?);
        }
        let Some(batch) = meter.pull(&mut self.input)? else {
            return Ok(None);
        };
        let lookup = self.lookup.as_ref().expect("built above");
        retain(batch, |row| {
            let key = RowKey(&row, &self.probe);
            // `g.mid = NULL` matches nothing: a NULL key has no group.
            let found = (!key.has_null()).then(|| lookup.keys.find(key.hash(), &key));
            let value = found
                .flatten()
                .map_or(&self.absent, |k| &lookup.values[k as usize]);
            let v = self.expr.get().eval(&row)?;
            // Three-valued: NULL on either side is UNKNOWN.
            Ok(v.sql_cmp(value).is_some_and(|ord| self.op.holds(ord)))
        })
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        self.input.rewind(bindings);
        self.sub.rewind(bindings);
        self.expr.rebind(bindings);
        self.lookup = None;
    }

    fn describe(&self) -> Description {
        let input = self.input.columns();
        let mut detail = format!(
            "{} {} (subquery)",
            expr_label(self.expr.written(), input),
            self.op.sql()
        );
        if !self.probe.is_empty() {
            let keys = equi_detail(input, &self.probe, self.sub.columns(), &self.build);
            let _ = write!(detail, " on {keys}");
        }
        Description {
            keys: Some(labels(self.input.columns(), &self.probe)),
            ..Description::new(OpKind::ScalarSubquery, detail)
        }
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.input, &*self.sub].into_iter()
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

/// The correlated-subquery fallback: for each input row, bind the row's
/// correlation values into the subplan, run it, and keep the row when `mode`
/// says so. The subplan is opened once and rewound for each binding
/// ([`RowSource::rewind`]), so its counters accumulate in place over every
/// evaluation. Results are cached per distinct parameter binding, bounded at
/// [`APPLY_CACHE_CAP`] entries (oldest-first eviction, surfaced in the cache
/// tally).
struct ApplySource {
    input: Box<dyn RowSource>,
    /// The subplan, opened once (toward its first row when `mode` needs only
    /// that); what its shape is described from.
    sub: Box<dyn RowSource>,
    params: Vec<(u32, usize)>,
    /// The input-column positions of `params`, precomputed once — the cache
    /// key of every probe row is `row.group_key(&param_cols)`.
    param_cols: Vec<usize>,
    mode: ApplyMode,
    /// The mode's operand over the input row (none for `EXISTS`).
    operand: Option<BoundExpr>,
    /// Results by binding, keyed by exact identity rather than by `=` like
    /// the hash operators' keys: a binding of `-0.0` can answer differently
    /// from `0.0` (`1 / $0`), and `3` from `3.0`.
    cache: HashMap<Vec<GroupKey>, SubResult>,
    /// Insertion order of `cache` keys, for oldest-first eviction.
    cache_order: VecDeque<Vec<GroupKey>>,
    obs: Arc<ObsRegistry>,
}

impl ApplySource {
    /// Look up, or evaluate and cache, the subquery result of every row of
    /// one input batch: a row whose binding is already cached — or was met
    /// earlier in the batch — is a cache hit. Returns each row's correlation
    /// key so the verdict pass doesn't recompute them.
    fn evaluate_batch(
        &mut self,
        batch: &Batch,
        meter: &mut OpMetrics,
    ) -> Result<Vec<Vec<GroupKey>>, StoreError> {
        let mut row_keys: Vec<Vec<GroupKey>> = Vec::with_capacity(batch.len());
        let (mut hits, mut evaluations) = (0u64, 0u64);
        for i in 0..batch.len() {
            let row = batch.row(i);
            let key: Vec<GroupKey> = (self.param_cols.iter())
                .map(|&c| row.value(c).map_or(GroupKey::Null, Value::group_key))
                .collect();
            if self.cache.contains_key(&key) {
                hits += 1;
            } else {
                evaluations += 1;
                let result = self.evaluate_binding(&row, meter)?;
                self.cache.insert(key.clone(), result);
                self.cache_order.push_back(key.clone());
            }
            row_keys.push(key);
        }
        meter.cache_hits += hits;
        meter.evaluations += evaluations;
        self.obs.add(Counter::ApplyCacheHits, hits);
        self.obs.add(Counter::ApplyEvaluations, evaluations);
        Ok(row_keys)
    }

    /// Rewind the subplan with `row`'s correlation values and run it to the
    /// summary `mode` needs: `EXISTS` stops at the first row (the subplan
    /// was opened toward it, so the scan under it does not read a batch to
    /// deliver one row). The subplan is not an input: the time it takes is
    /// charged to `blocked` and its rows are not counted into `rows_in`.
    fn evaluate_binding(
        &mut self,
        row: &BatchRow,
        meter: &mut OpMetrics,
    ) -> Result<SubResult, StoreError> {
        let params = &self.params;
        self.sub.rewind(&|param| {
            let Param::Outer(id) = param else { return None };
            let &(_, at) = params.iter().find(|&&(owned, _)| owned == id)?;
            Some(row.value(at).unwrap_or(&Value::Null))
        });
        let sub = &mut self.sub;
        Ok(match self.mode {
            ApplyMode::Exists { .. } => SubResult::Exists(meter.wait_for(sub)?.is_some()),
            ApplyMode::In { .. } | ApplyMode::Quantified { .. } => {
                let mut values = Vec::new();
                while let Some(batch) = meter.wait_for(sub)? {
                    values.extend(batch.column(0).cloned());
                }
                SubResult::Column(values)
            }
            ApplyMode::Compare { .. } => {
                let mut value = None;
                while let Some(batch) = meter.wait_for(sub)? {
                    for v in batch.column(0) {
                        if value.is_some() {
                            return Err(StoreError::Eval {
                                message: "correlated scalar subquery produced more than one row"
                                    .into(),
                            });
                        }
                        value = Some(v.clone());
                    }
                }
                SubResult::Scalar(value.unwrap_or(Value::Null))
            }
        })
    }

    /// Evict oldest cache entries down to [`APPLY_CACHE_CAP`]. Called after
    /// a batch's verdicts, so entries the current batch needs are never
    /// evicted out from under it.
    fn enforce_cache_cap(&mut self, meter: &mut OpMetrics) {
        let mut evicted = 0;
        while self.cache.len() > APPLY_CACHE_CAP {
            let Some(oldest) = self.cache_order.pop_front() else {
                break;
            };
            self.cache.remove(&oldest);
            evicted += 1;
        }
        meter.evictions += evicted;
        self.obs.add(Counter::ApplyCacheEvictions, evicted);
    }

    /// Three-valued verdict for one input row against its cached subquery
    /// result; `None` is SQL UNKNOWN (the row is filtered out).
    fn verdict(&self, key: &[GroupKey], row: &BatchRow) -> Result<Option<bool>, StoreError> {
        let cached = self.cache.get(key).expect("evaluated before verdict");
        let probe = match &self.operand {
            Some(operand) => operand.get().eval(row)?,
            None => Value::Null,
        };
        Ok(match (&self.mode, cached) {
            (ApplyMode::Exists { negated }, SubResult::Exists(exists)) => Some(exists ^ negated),
            (ApplyMode::In { negated, .. }, SubResult::Column(values)) => {
                in_membership(&probe, values).map(|b| b ^ negated)
            }
            (ApplyMode::Compare { op, .. }, SubResult::Scalar(scalar)) => {
                probe.sql_cmp(scalar).map(|ord| op.holds(ord))
            }
            (ApplyMode::Quantified { op, all, .. }, SubResult::Column(values)) => {
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
                let holds = op.holds(ord);
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

impl Operator for ApplySource {
    fn columns(&self) -> &Columns {
        self.input.columns()
    }

    fn pull(&mut self, meter: &mut OpMetrics) -> Result<Option<Batch>, StoreError> {
        let Some(batch) = meter.pull(&mut self.input)? else {
            return Ok(None);
        };
        let row_keys = self.evaluate_batch(&batch, meter)?;
        let mut keys = row_keys.iter();
        let kept = retain(batch, |row| {
            let key = keys.next().expect("a key per row");
            Ok(self.verdict(key, &row)? == Some(true))
        })?;
        self.enforce_cache_cap(meter);
        Ok(kept)
    }

    fn rewind(&mut self, bindings: ParamLookup<'_>) {
        // An enclosing apply's values may reach into the subplan too; they
        // stay bound while this apply rebinds its own. The cached answers
        // were computed under the old values.
        self.input.rewind(bindings);
        self.sub.rewind(bindings);
        if let Some(operand) = &mut self.operand {
            operand.rebind(bindings);
        }
        self.cache.clear();
        self.cache_order.clear();
    }

    fn describe(&self) -> Description {
        let in_cols = self.input.columns();
        let mut detail = self.mode.describe(&|e| render_expr(e, in_cols));
        if !self.param_cols.is_empty() {
            let keys = self.param_cols.iter().map(|&c| column_label(in_cols, c));
            let _ = write!(detail, " correlated on {}", separated(", ", keys));
        }
        let mut subplan = self.sub.shape();
        if self.mode.row_goal().is_some() {
            // Each evaluation runs toward its first row and stops there
            // (`evaluate_binding`).
            subplan.tags.push(Cow::Borrowed("first-row"));
        }
        // The subplan's estimates are per evaluation and its counters span
        // all of them: a reader scales the estimates by the evaluations.
        Description {
            keys: Some(labels(self.input.columns(), &self.param_cols)),
            synthetic: Some(subplan),
            accumulates: true,
            ..Description::new(OpKind::Apply, detail)
        }
    }

    fn inputs(&self) -> impl Iterator<Item = &dyn RowSource> {
        [&*self.input].into_iter()
    }

    fn synthetic_nodes(&self) -> usize {
        self.sub.node_count()
    }

    fn absorb_synthetic(&self, subplan: &mut [OpMetrics]) -> usize {
        self.sub.absorb_into(subplan)
    }
}

#[cfg(test)]
mod tests;
