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
//! ([`stream::OpMetrics`]) — the raw material for `EXPLAIN ANALYZE` and the
//! empty-result explanations of §3.1. [`executor::execute`] is the
//! materializing shim for callers that just want a [`executor::ResultSet`].
//!
//! Subqueries run through four dedicated operators (see [`plan::PlanNode`]):
//! hash semi- and anti-joins for decorrelated `EXISTS` / `[NOT] IN` (the
//! anti-join has a NULL-aware variant preserving `NOT IN`'s three-valued
//! semantics), an evaluate-once cached scalar-subquery filter, and the
//! `Apply` fallback that re-runs a genuinely correlated subplan per row,
//! memoized (bounded, with eviction tallies) per distinct
//! correlation-parameter binding.
//!
//! Operator trees are owned (`Arc` table handles, no borrowed lifetimes), so
//! subtrees are `Send` and the [`parallel`] layer can execute pipelines
//! morsel-by-morsel across worker threads via [`plan::PlanNode::Exchange`] —
//! deterministically, because output is gathered in morsel order. The
//! exchange's [`plan::GatherMode`] also parallelizes blocking operators:
//! per-worker partial aggregates merged in morsel order, per-worker sorted
//! runs merged above the exchange, and bounded top-k runs for
//! `ORDER BY … LIMIT k`.
//!
//! The [`vector`] module holds the columnar side of the executor: typed
//! [`vector::ValueVector`] batches with null bitmaps, and the comparison /
//! hash-key kernels that the filter, hash join, and aggregate operators use
//! when the planner marks them `[vectorized]` — with a per-row fallback that
//! keeps results byte-identical when a batch defies the typed layout.

pub mod aggregate;
pub mod executor;
pub mod parallel;
pub mod plan;
pub mod stream;
pub mod vector;

pub use aggregate::{Accumulator, AggExpr, AggFunc, GroupedAggregator};
pub use executor::{describe_plan, execute, execute_with_stats, ResultSet};
pub use parallel::{morsel_size, JoinIndex, MORSEL_MIN, PARALLEL_BUILD_MIN};
pub use plan::{
    aggregate_output_columns, ApplyMode, ColumnInfo, Edge, GatherMode, Plan, PlanNode, SortKey,
};
pub use stream::{
    open, open_owned, ExecContext, IndexAccess, OpMetrics, PlanProfile, RowSource, APPLY_CACHE_CAP,
    BATCH_SIZE, MISESTIMATE_FACTOR,
};
pub use vector::{ValueVector, VectorPredicate};
