//! The parallelization pass: decide — cost-aware, and on the record — which
//! parts of a lowered physical plan go morsel-parallel.
//!
//! Runs after physical lowering (and the subquery pass), rewriting the final
//! plan in place, top-down, over [`Plan::children_mut`] (the traversal
//! contract — edge roles, visit order — is documented on [`Plan`]; which
//! operators are pipeline material is [`Plan::is_pipeline_op`]):
//!
//! * The largest subtree made only of *pipeline* operators (scan, filter,
//!   project, hash/nested-loop join, semi-/anti-join, scalar subquery) whose
//!   driver scan — the leftmost leaf — clears
//!   [`PlannerOptions::parallel_row_threshold`] estimated rows is wrapped in
//!   a [`PlanNode::Exchange`], which executes it morsel-by-morsel across
//!   [`PlannerOptions::parallelism`] workers (see
//!   [`datastore::exec::parallel`]).
//! * An `Apply`'s subplan stays on one thread: the executor opens it once
//!   and rewinds it for each binding. Its input is a plan like any other.
//! * Three blocking operators are *pushed into* the exchange when they sit
//!   directly on a qualifying pipeline, via the exchange's
//!   [`datastore::exec::GatherMode`]: an aggregate becomes per-worker
//!   partial aggregation with a merging gather, a sort becomes per-worker
//!   sorted runs merged above the exchange, and `ORDER BY … LIMIT k`
//!   becomes a bounded per-worker top-k merge.
//! * The remaining blocking operators (limit, distinct) stay above the
//!   exchange: they consume the gathered, deterministic, morsel-ordered
//!   stream.
//!
//! Every choice — including the choice *not* to parallelize — is recorded as
//! a [`PlanDecision::Parallel`], so `EXPLAIN` can narrate "I split the scan
//! of the casting credits into morsels across 8 workers" or "only ten rows
//! expected, so I kept it on one thread".

use super::PlannerOptions;
use super::{ParallelKind, PlanDecision};
use datastore::exec::{Edge, GatherMode, Plan, PlanNode};
use std::mem;

/// Default minimum estimated driver rows before a pipeline is parallelized:
/// below this, thread startup costs more than it saves.
pub const PARALLEL_ROW_THRESHOLD: f64 = 1024.0;

/// Apply the parallelization pass (no-op when `options.parallelism <= 1`).
pub(super) fn parallelize_plan(
    plan: &mut Plan,
    options: &PlannerOptions,
    decisions: &mut Vec<PlanDecision>,
) {
    if options.parallelism > 1 {
        transform(plan, options, decisions, false);
    }
}

fn transform(
    plan: &mut Plan,
    options: &PlannerOptions,
    decisions: &mut Vec<PlanDecision>,
    prefix_bounded: bool,
) {
    // A `LIMIT` with no blocking operator below it only needs a prefix of
    // its input; an exchange would eagerly run the whole pipeline before the
    // limit takes its first row, destroying the streaming executor's
    // early-termination guarantee. Keep such regions sequential (silently —
    // there is no cost decision to narrate, the shape forbids it).
    if prefix_bounded && is_pipeline_subtree(plan) {
        return;
    }
    // A blocking operator sitting directly on a pipeline? Push it below the
    // exchange as a gather mode instead of leaving it to consume a gathered
    // stream single-threaded.
    if try_pushdown(plan, options, decisions) {
        return;
    }
    // A pipeline region rooted here? Decide for the whole region at once —
    // wrapping the largest qualifying subtree keeps every operator of the
    // pipeline (filters, probes, projections) inside the morsel loop.
    if is_pipeline_subtree(plan) {
        // No stats or no stored-table driver: nothing to weigh, stay
        // sequential without narrating a non-decision.
        if let Some((desc, rows)) = driver_scan(plan) {
            let target = format!("the scan of {desc}");
            if decide(ParallelKind::Pipeline, target, rows, options, decisions) {
                *plan = take(plan).exchange(options.parallelism);
            }
        }
        return;
    }
    descend(plan, options, decisions, prefix_bounded)
}

/// Record one [`PlanDecision::Parallel`] — taken or not — and return whether
/// `rows` clears the threshold.
fn decide(
    kind: ParallelKind,
    target: String,
    rows: f64,
    options: &PlannerOptions,
    decisions: &mut Vec<PlanDecision>,
) -> bool {
    let parallelized = rows >= options.parallel_row_threshold;
    decisions.push(PlanDecision::Parallel {
        kind,
        target,
        workers: options.parallelism,
        estimated_rows: rows,
        threshold: options.parallel_row_threshold,
        parallelized,
    });
    parallelized
}

/// Move a plan out of its slot to wrap it, leaving an empty row set for the
/// caller to overwrite.
fn take(plan: &mut Plan) -> Plan {
    mem::replace(plan, Plan::values(Vec::new(), Vec::new()))
}

/// Push a blocking operator below an exchange over its pipeline input, as a
/// [`GatherMode`]: `LIMIT k` over a sort becomes a bounded top-k merge, a
/// bare sort becomes a merge of per-worker sorted runs, and an aggregate
/// becomes per-worker partial aggregation with a merging gather.
///
/// `true` means the decision was made here — one recorded
/// [`PlanDecision::Parallel`] whether or not an exchange was produced (the
/// pushdown decision subsumes the pipeline decision at the same site).
/// `false` leaves the plan untouched for the normal walk.
fn try_pushdown(
    plan: &mut Plan,
    options: &PlannerOptions,
    decisions: &mut Vec<PlanDecision>,
) -> bool {
    let workers = options.parallelism;
    let mut exchange = match &mut plan.node {
        // `LIMIT k` directly over a sort: each worker only ever needs its
        // morsels' best k rows, so the sort collapses into a bounded top-k
        // gather and the limit above trims the merged runs.
        PlanNode::Limit { input: sort, n } => {
            let PlanNode::Sort { input: pipe, keys } = &mut sort.node else {
                return false;
            };
            let Some((desc, rows)) = pushdown_driver(pipe) else {
                return false;
            };
            let target = format!("the top-{n} sort over {desc}");
            if decide(ParallelKind::TopK, target, rows, options, decisions) {
                let gather = GatherMode::TopK {
                    keys: mem::take(keys),
                    limit: *n,
                };
                let mut exchange = take(pipe).exchange_gather(workers, gather);
                exchange.estimated_rows = sort.estimated_rows;
                **sort = exchange;
            }
            return true;
        }
        // A bare sort over a pipeline: workers sort their own runs, the
        // gather merges them — the exchange subsumes the sort node.
        PlanNode::Sort { input: pipe, keys } => {
            let Some((desc, rows)) = pushdown_driver(pipe) else {
                return false;
            };
            let target = format!("the sort over {desc}");
            if !decide(ParallelKind::MergeSort, target, rows, options, decisions) {
                return true;
            }
            let keys = mem::take(keys);
            take(pipe).exchange_gather(workers, GatherMode::MergeSort { keys })
        }
        // An aggregate over a pipeline: workers build partial aggregates per
        // morsel, the gather merges them in morsel order and applies the
        // HAVING — the exchange subsumes the aggregate node.
        PlanNode::Aggregate {
            input: pipe,
            group_by,
            aggregates,
            having,
            vectorized,
        } => {
            let Some((desc, rows)) = pushdown_driver(pipe) else {
                return false;
            };
            let target = format!("the aggregation over {desc}");
            if !decide(
                ParallelKind::PartialAggregate,
                target,
                rows,
                options,
                decisions,
            ) {
                return true;
            }
            let gather = GatherMode::MergeAggregate {
                group_by: mem::take(group_by),
                aggregates: mem::take(aggregates),
                having: having.take(),
                vectorized: *vectorized,
            };
            take(pipe).exchange_gather(workers, gather)
        }
        _ => return false,
    };
    exchange.estimated_rows = plan.estimated_rows;
    *plan = exchange;
    true
}

/// The pushdown qualification: the blocking operator's input must be a pure
/// pipeline subtree with an estimated stored-table driver scan.
fn pushdown_driver(pipe: &Plan) -> Option<(String, f64)> {
    if !is_pipeline_subtree(pipe) {
        return None;
    }
    driver_scan(pipe)
}

/// Transform the children of a node that is not itself part of a pipeline
/// region. `prefix_bounded` flows down the driver edge and resets below
/// blocking operators, which consume their whole input regardless of any
/// limit above, and on build sides and subplans, which are consumed whole.
fn descend(
    plan: &mut Plan,
    options: &PlannerOptions,
    decisions: &mut Vec<PlanDecision>,
    prefix_bounded: bool,
) {
    if let PlanNode::Apply { input, .. } = &mut plan.node {
        // The subplan is one open tree, rewound for each binding: it stays
        // on one thread.
        transform(input, options, decisions, prefix_bounded);
        return;
    }
    let driver_bounded = match &plan.node {
        PlanNode::Exchange { .. } => return,
        PlanNode::Aggregate { .. } | PlanNode::Sort { .. } => false,
        PlanNode::Limit { .. } => true,
        // Everything else streams — DISTINCT too, though it may also need
        // its whole input to satisfy a prefix; conservatively keep the bound.
        _ => prefix_bounded,
    };
    for (edge, child) in plan.children_mut() {
        let bounded = edge == Edge::Driver && driver_bounded;
        transform(child, options, decisions, bounded);
    }
}

/// True when every operator of the subtree belongs to the morsel-parallel
/// pipeline set ([`Plan::is_pipeline_op`]).
fn is_pipeline_subtree(plan: &Plan) -> bool {
    plan.is_pipeline_op() && plan.children().all(|(_, child)| is_pipeline_subtree(child))
}

/// The driver scan of a pipeline subtree ([`Plan::driver_scan`]), as a
/// description and its estimated base rows. `None` when the leftmost leaf is
/// not a stored-table scan or carries no estimate.
fn driver_scan(plan: &Plan) -> Option<(String, f64)> {
    let (table, alias, rows) = plan.driver_scan()?;
    let desc = if alias.eq_ignore_ascii_case(table) {
        table.to_string()
    } else {
        format!("{table} as {alias}")
    };
    rows.map(|rows| (desc, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(parallelism: usize, threshold: f64) -> PlannerOptions {
        PlannerOptions {
            parallelism,
            parallel_row_threshold: threshold,
            ..PlannerOptions::default()
        }
    }

    fn count_exchanges(plan: &Plan) -> usize {
        let mut n = 0;
        plan.walk(&mut |p| n += usize::from(matches!(p.node, PlanNode::Exchange { .. })));
        n
    }

    /// The pass as the tests drive it: plan in, rewritten plan out.
    fn parallelize_plan(
        mut plan: Plan,
        options: &PlannerOptions,
        decisions: &mut Vec<PlanDecision>,
    ) -> Plan {
        super::parallelize_plan(&mut plan, options, decisions);
        plan
    }

    #[test]
    fn large_pipeline_is_wrapped_once() {
        let plan = Plan::hash_join(
            Plan::scan("A", "a").with_estimate(50_000.0),
            Plan::scan("B", "b").with_estimate(50_000.0),
            vec![0],
            vec![0],
        )
        .with_estimate(100_000.0);
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(4, 1024.0), &mut decisions);
        assert_eq!(count_exchanges(&out), 1);
        assert!(matches!(out.node, PlanNode::Exchange { workers: 4, .. }));
        assert!(matches!(
            decisions.as_slice(),
            [PlanDecision::Parallel {
                parallelized: true,
                workers: 4,
                ..
            }]
        ));
    }

    #[test]
    fn small_driver_stays_sequential_with_a_recorded_decision() {
        let plan = Plan::scan("A", "a").with_estimate(10.0);
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(8, 1024.0), &mut decisions);
        assert_eq!(count_exchanges(&out), 0);
        match decisions.as_slice() {
            [PlanDecision::Parallel {
                parallelized,
                estimated_rows,
                threshold,
                ..
            }] => {
                assert!(!parallelized);
                assert_eq!(*estimated_rows, 10.0);
                assert_eq!(*threshold, 1024.0);
            }
            other => panic!("expected one skip decision, got {other:?}"),
        }
    }

    #[test]
    fn blocking_operators_stay_above_the_exchange() {
        // DISTINCT has no gather mode; it consumes the gathered stream while
        // the pipeline below it still parallelizes.
        let plan = Plan::scan("A", "a").with_estimate(50_000.0).distinct();
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(4, 1024.0), &mut decisions);
        let PlanNode::Distinct { input: exch } = out.node else {
            panic!("distinct must stay on top");
        };
        assert!(matches!(exch.node, PlanNode::Exchange { .. }));
    }

    #[test]
    fn top_k_sorts_are_pushed_into_the_exchange() {
        use datastore::exec::{GatherMode, SortKey};
        let plan = Plan::scan("A", "a")
            .with_estimate(50_000.0)
            .sort(vec![SortKey {
                column: 0,
                ascending: true,
            }])
            .limit(10);
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(4, 1024.0), &mut decisions);
        // limit -> exchange[top-k] -> scan: the sort is subsumed.
        let PlanNode::Limit { input: exch, n: 10 } = out.node else {
            panic!("limit must stay on top");
        };
        let PlanNode::Exchange {
            gather: GatherMode::TopK { limit: 10, .. },
            ..
        } = exch.node
        else {
            panic!("the sort must become a top-k exchange, got {:?}", exch.node);
        };
        assert!(matches!(
            decisions.as_slice(),
            [PlanDecision::Parallel {
                kind: ParallelKind::TopK,
                parallelized: true,
                ..
            }]
        ));
    }

    #[test]
    fn sorts_become_merged_runs_in_the_exchange() {
        use datastore::exec::{GatherMode, SortKey};
        let plan = Plan::scan("A", "a")
            .with_estimate(50_000.0)
            .sort(vec![SortKey {
                column: 0,
                ascending: true,
            }])
            .with_estimate(50_000.0);
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(4, 1024.0), &mut decisions);
        assert!(matches!(
            out.node,
            PlanNode::Exchange {
                gather: GatherMode::MergeSort { .. },
                ..
            }
        ));
        assert_eq!(out.estimated_rows, Some(50_000.0));
        assert!(matches!(
            decisions.as_slice(),
            [PlanDecision::Parallel {
                kind: ParallelKind::MergeSort,
                parallelized: true,
                ..
            }]
        ));
    }

    #[test]
    fn aggregates_become_partial_merges_in_the_exchange() {
        use datastore::exec::AggExpr;
        let plan = Plan::scan("A", "a")
            .with_estimate(50_000.0)
            .aggregate(vec![0], vec![AggExpr::count_star("cnt")], None)
            .with_estimate(60.0);
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(4, 1024.0), &mut decisions);
        assert!(matches!(
            out.node,
            PlanNode::Exchange {
                gather: GatherMode::MergeAggregate { .. },
                ..
            }
        ));
        assert_eq!(out.estimated_rows, Some(60.0));
        assert!(matches!(
            decisions.as_slice(),
            [PlanDecision::Parallel {
                kind: ParallelKind::PartialAggregate,
                parallelized: true,
                ..
            }]
        ));
    }

    #[test]
    fn small_drivers_veto_pushdown_with_a_recorded_decision() {
        use datastore::exec::SortKey;
        let plan = Plan::scan("A", "a").with_estimate(10.0).sort(vec![SortKey {
            column: 0,
            ascending: true,
        }]);
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(4, 1024.0), &mut decisions);
        assert_eq!(count_exchanges(&out), 0);
        assert!(matches!(out.node, PlanNode::Sort { .. }));
        assert!(matches!(
            decisions.as_slice(),
            [PlanDecision::Parallel {
                kind: ParallelKind::MergeSort,
                parallelized: false,
                ..
            }]
        ));
    }

    #[test]
    fn limit_bounded_pipelines_stay_sequential() {
        // Limit -> scan: an exchange would run the whole scan before the
        // limit takes one row, so the region must stay sequential…
        let plan = Plan::scan("A", "a").with_estimate(100_000.0).limit(5);
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(4, 1024.0), &mut decisions);
        assert_eq!(count_exchanges(&out), 0);
        assert!(decisions.is_empty(), "nothing to narrate for a shape veto");
        // …but a sort below the limit consumes everything anyway, so the
        // region parallelizes — as a bounded top-k exchange.
        use datastore::exec::SortKey;
        let plan = Plan::scan("A", "a")
            .with_estimate(100_000.0)
            .sort(vec![SortKey {
                column: 0,
                ascending: true,
            }])
            .limit(5);
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(4, 1024.0), &mut decisions);
        assert_eq!(count_exchanges(&out), 1);
        assert!(matches!(
            decisions.as_slice(),
            [PlanDecision::Parallel {
                kind: ParallelKind::TopK,
                ..
            }]
        ));
    }

    #[test]
    fn parallelism_one_disables_the_pass() {
        let plan = Plan::scan("A", "a").with_estimate(1_000_000.0);
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(1, 0.0), &mut decisions);
        assert_eq!(count_exchanges(&out), 0);
        assert!(decisions.is_empty());
    }

    #[test]
    fn unestimated_plans_are_left_alone() {
        let plan = Plan::scan("A", "a");
        let mut decisions = Vec::new();
        let out = parallelize_plan(plan, &options(4, 0.0), &mut decisions);
        assert_eq!(count_exchanges(&out), 0);
        assert!(decisions.is_empty());
    }
}
