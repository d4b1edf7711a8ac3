//! A streaming, pull-based executor over physical plans.
//!
//! The executor exists so the reproduction can actually *run* the paper's
//! queries (Q1–Q9, the EMP/DEPT example) against the synthetic movie
//! database: the query-explanation features of §3.1 (empty-result and
//! large-result explanations) need real answer cardinalities, and the
//! accessibility pipeline needs real answers to narrate.
//!
//! Execution is organized as a tree of [`stream::RowSource`] operators that
//! pull batches of rows on demand, each carrying instrumentation counters
//! ([`profile::OpMetrics`]) — the raw material for `EXPLAIN ANALYZE` and the
//! empty-result explanations of §3.1. [`executor::execute`] is the
//! materializing shim for callers that just want a [`executor::ResultSet`].
//!
//! What an execution says about itself comes in two halves (see
//! [`profile`]): the plan's **shape** ([`profile::OpShape`] — operator kinds,
//! details, tags, index access, columns, estimates), described once per
//! plan, and the **counters** of each execution, one [`profile::OpMetrics`]
//! per shape node in pre-order. A plan-cache template keeps its shape, its
//! literals as slots, and one opened operator tree ([`executor::OpenPlan`]);
//! each execution of it rewinds the tree with its literals and writes only
//! its counters. Text is written when a reader asks for it.
//!
//! # The metering protocol
//!
//! How an operator is measured is stated once, as types. An operator in
//! [`stream`] implements the crate-private `Operator` trait — output
//! columns, `pull(&mut self, meter)` that does only the operator's work,
//! `describe()` (name, detail, tags, [`profile::IndexAccess`], a synthetic
//! child) and `inputs()` — and one generic wrapper, `Metered`, boxes it as a
//! [`stream::RowSource`]. The rules, and who keeps them:
//!
//! 1. `elapsed` is the wall time inside `next_batch`, children included —
//!    the wrapper starts and stops the clock. An operator that knows its
//!    last batch was its last says so ([`stream::RowSource::exhausted`]:
//!    scans, index and index-only scans, `VALUES`, project, filter, limit,
//!    the index nested-loop join; every other operator cannot tell), and it
//!    is not called again — neither the wrapper nor the executor's drain
//!    calls it, and no clock is read — so `elapsed` covers the calls that
//!    were made.
//! 2. Time spent waiting on someone else's work lands in `blocked`
//!    (`elapsed - blocked` is the operator's own work) — an operator takes
//!    its inputs through `meter.pull(child)`, which charges the time the
//!    child measured for itself, and a subplan run on the side (an apply's,
//!    a scalar subquery's) through `meter.wait_for(sub)`.
//! 3. `rows_in` counts what was pulled — the same `meter.pull(child)`; a
//!    leaf adds the rows it read from storage.
//! 4. `rows_out` and `batches` move exactly when a batch is returned — the
//!    wrapper counts them.
//! 5. An empty batch is never handed to a parent (`batches = 0` exactly
//!    when `rows_out = 0`) — the wrapper pulls again when an operator
//!    filtered a whole input batch away.
//! 6. One [`profile::OpShape`] node per operator, put together in one
//!    function (`Description::shape` in [`profile`]) from `describe()`, the
//!    inputs' own shapes and the planner's estimate the wrapper holds — once
//!    per plan, never per execution — and one [`profile::OpMetrics`] per
//!    operator, which only the wrapper writes out
//!    ([`stream::RowSource::absorb_into`]: its own, then its inputs', then
//!    its synthetic child's, in pre-order). What an operator tallies besides
//!    rows — an apply's evaluations, cache hits and evictions, a scalar
//!    subquery's groups, an index scan's probes — it adds to its meter
//!    while it pulls; `describe()` holds nothing counted, so a reader writes
//!    `(3 probes, 2 matches)` from the counters. The planner's other
//!    annotation, a filter's [`ShapeKey`](crate::fingerprint::ShapeKey), travels the same
//!    road — plan node, operator (`describe()`), shape node — and nothing
//!    between the planner that made it and the stores that file under it
//!    reads it.
//!
//! Two operators show more than themselves, through
//! `Description::synthetic` and the same protocol: the index nested-loop
//! join's `index probe` leaf (no build-side operator exists, but narrations
//! want both sides), and `Apply`'s subplan (one open tree rewound for every
//! evaluation, so its counters sum over them; its estimates scaled by the
//! evaluations when read). The second *accumulates*: its nodes' details
//! read as before any run. Neither writes its own `shape()` or
//! `absorb_into()`. A subplan evaluated on the side
//! (`Apply`, the scalar-subquery filter) is not an input: its rows are not
//! counted into `rows_in`.
//! `tests/tests/executor_and_explain.rs::every_executed_profile_node_obeys_the_metering_protocol`
//! checks rules 1–5 on every node of every executed plan corner.
//!
//! Subqueries run through four dedicated operators (see [`plan::PlanNode`]):
//! hash semi- and anti-joins for decorrelated `EXISTS` / `[NOT] IN` (the
//! anti-join has a NULL-aware variant preserving `NOT IN`'s three-valued
//! semantics), an evaluate-once cached scalar-subquery filter, and the
//! `Apply` fallback that re-runs a genuinely correlated subplan per row,
//! memoized (bounded, with eviction tallies) per distinct
//! correlation-parameter binding.
//!
//! An `Apply` opens its subplan once and rewinds it for each distinct
//! binding ([`stream::RowSource::rewind`], Volcano's rescan): every operator
//! resets in place, an index probe or an expression that reads a `$k`
//! overwrites only that constant, and a vector kernel takes the new value
//! without recompiling. A rewind binds only the values it carries, so an
//! apply inside a subplan rebinds its own while its parent's stay bound
//! (and forgets its memo, computed under the parent's old values). A
//! plan-cache hit binds a template's `?k` the same way, rewinding the tree
//! the template keeps.
//!
//! # The row goal
//!
//! An `[NOT] EXISTS` apply needs one row of each evaluation
//! ([`plan::ApplyMode::row_goal`]), and opens the subplan saying so. The goal
//! is a parameter of the recursive open, forwarded down the driver spine,
//! never to a build side or a subplan, and it passes only through operators
//! that hand a row on as soon as they have found it
//! ([`plan::Plan::emits_rows_as_found`]: filter, project, limit, distinct,
//! the probe side of hash, semi-, anti-, nested-loop and index nested-loop
//! joins, the input of an apply or scalar-subquery filter) and is dropped at
//! an aggregate or a sort, whose first output row needs their whole input.
//! The scan that receives it reads that many rows on its first pull and four
//! times as many on each further one, up to [`BATCH_SIZE`]; the joins it
//! passed buffer by the same ramp. Nothing outside this module can set it, no scan ramps
//! without it, and the planner prices it with
//! [`plan::Plan::scale_to_row_goal`]; `EXPLAIN` tags the subplan root
//! `[first-row]`.
//!
//! # The sort goal
//!
//! The other thing a consumer can say about how much it wants: a limit opens
//! its input with its `k`, and a sort that finds itself directly under one
//! keeps the first `k` rows of its order instead of all of them
//! ([`stream::top_k`]: the stable sort's first `k`, ties to the earlier input
//! row, found by selection, never holding more than `2·max(k, BATCH_SIZE)`
//! rows) and emits `k` — what the planner already estimates for it. The goal
//! travels that one step and no further; a sort anywhere else sorts
//! everything.
//!
//! # Batches: rows are made once
//!
//! What an operator hands its parent is a [`batch::Batch`]: positions in
//! the stores that hold the rows, not the rows. A batch has one or more
//! parts, each a row store and a selection of positions in it — a scan lends
//! its table, a hash join its build side, an index nested-loop join the
//! table it probes — and a column map saying which part's row, and which
//! column of it, each output column is. Every kernel reads columns where
//! they lie: the filter kernels, the typed transposes ([`vector::ValueVector`]
//! borrows its strings), the grouping and hash keys, and
//! [`crate::expr::Expr::eval`] through [`crate::tuple::RowView`].
//!
//! So filters, semi- and anti-joins, `DISTINCT`, an apply and the scalar
//! subquery filter narrow the selections, and `LIMIT` cuts them short; a
//! hash or index nested-loop join gathers each probe position beside the
//! position it matched, in the row order and at the batch boundaries the
//! joined rows would have had, keeping only the parts its output reads
//! ([`plan::JoinOutput`], set by the planner's last pass: `count(*)` above a
//! join reads none); a projection of plain columns rewrites the map. **Only
//! an operator whose rows outlive the batch builds a row**: the result set,
//! a sort's input, a hash join's build side (one run per key, in build
//! order), an aggregate's groups, an apply's memo (values) and the
//! nested-loop join's pairs — by cloning a stored row's handle (a reference
//! count) when the batch's columns are that row's, else in one allocation.
//! Writers never see any of this: a kept tree lets go of every lent batch
//! when it is rewound, and `Row::get_mut` copies a shared row first.
//!
//! # Keys are read where they lie
//!
//! Every hash operator — the join's build and probe, the semi-/anti-join's
//! key set, the keyed scalar subquery, the aggregator's groups and its
//! `COUNT(DISTINCT)` pairs, `DISTINCT` — keys through one table
//! (`keys::KeyTable`), so **a key is hashed where it lies; only a new
//! distinct key is stored**: a probe, a repeated group or a `DISTINCT` row
//! already seen allocates nothing, and a new key is a few values appended to
//! one flat vector under a dense id that the operator's own state is indexed
//! by. Keys compare by SQL `=`, as `WHERE` does (`1 = 1.0`, `-0.0 = 0.0`, a
//! NaN equal only to itself). Only the `Apply` memo keeps exact identity
//! (`GroupKey`): a binding of `-0.0` can answer differently from `0.0`
//! (`1 / $0`).
//!
//! Likewise **opening an operator allocates nothing for its description, and
//! `describe()` renders it once per plan**, when a fresh plan's profile is
//! asked for; a plan-cache template's shape is described once and every
//! execution of it allocates only its counters. Column lists are shared
//! ([`plan::Columns`]; a scan's from its table), and an apply's subplan
//! counts every binding's run in its own counters, in place.
//!
//! Every operator runs on the thread that pulls from it: a statement is one
//! open operator tree, pulled to exhaustion by its caller. Operator trees
//! are owned (`Arc` table handles, no borrowed lifetimes), so a tree is
//! `Send` and a plan-cache template can keep one open between statements.
//!
//! The [`vector`] module holds the columnar side of the executor: typed
//! [`vector::ValueVector`] batches with null bitmaps, and the comparison
//! kernels that the filter and aggregate operators use when the planner
//! marks them `[vectorized]` — with a per-row fallback that keeps results
//! byte-identical when a batch defies the typed layout.

pub mod aggregate;
pub mod batch;
pub mod executor;
pub(crate) mod keys;
pub mod plan;
pub mod profile;
pub mod stream;
pub mod vector;

pub use aggregate::{AggExpr, AggFunc, GroupedAggregator};
pub use batch::{Batch, BatchRow};
pub use executor::{
    describe_plan, describe_shape, execute, execute_with_stats, OpenPlan, ResultSet,
};
pub use plan::{
    aggregate_output_columns, ApplyMode, ColumnInfo, Columns, Edge, JoinOutput, Plan, PlanNode,
    SortKey,
};
pub use profile::{
    Children, IndexAccess, OpKind, OpMetrics, OpShape, PlanProfile, ProfileNode, SubqueryTally,
    MISESTIMATE_FACTOR,
};
pub use stream::{open, ExecContext, RowSource, APPLY_CACHE_CAP, BATCH_SIZE};
pub use vector::{ValueVector, VectorPredicate};
