//! The parallelization pass: decide — cost-aware, and on the record — which
//! parts of a lowered physical plan go morsel-parallel.
//!
//! Runs after physical lowering (and the subquery pass), walking the final
//! plan top-down:
//!
//! * The largest subtree made only of *pipeline* operators (scan, filter,
//!   project, hash/nested-loop join, semi-/anti-join, scalar subquery) whose
//!   driver scan — the leftmost leaf — clears
//!   [`PlannerOptions::parallel_row_threshold`] estimated rows is wrapped in
//!   a [`PlanNode::Exchange`], which executes it morsel-by-morsel across
//!   [`PlannerOptions::parallelism`] workers (see
//!   [`datastore::exec::parallel`]).
//! * An `Apply` whose input clears the threshold has its per-binding
//!   subquery evaluations fanned out across the same worker count (they are
//!   embarrassingly parallel).
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

use super::cost::{ParallelKind, PlanDecision};
use super::PlannerOptions;
use datastore::exec::{GatherMode, Plan, PlanNode};

/// Default minimum estimated driver rows before a pipeline (or apply) is
/// parallelized: below this, thread startup costs more than it saves.
pub const PARALLEL_ROW_THRESHOLD: f64 = 1024.0;

/// Apply the parallelization pass (no-op when `options.parallelism <= 1`).
pub(super) fn parallelize_plan(
    plan: Plan,
    options: &PlannerOptions,
    decisions: &mut Vec<PlanDecision>,
) -> Plan {
    if options.parallelism <= 1 {
        return plan;
    }
    transform(plan, options, decisions, false)
}

fn transform(
    plan: Plan,
    options: &PlannerOptions,
    decisions: &mut Vec<PlanDecision>,
    prefix_bounded: bool,
) -> Plan {
    // A `LIMIT` with no blocking operator below it only needs a prefix of
    // its input; an exchange would eagerly run the whole pipeline before the
    // limit takes its first row, destroying the streaming executor's
    // early-termination guarantee. Keep such regions sequential (silently —
    // there is no cost decision to narrate, the shape forbids it).
    if prefix_bounded && is_pipeline_subtree(&plan) {
        return plan;
    }
    // A blocking operator sitting directly on a pipeline? Push it below the
    // exchange as a gather mode instead of leaving it to consume a gathered
    // stream single-threaded.
    let plan = match try_pushdown(plan, options, decisions) {
        Ok(done) => return done,
        Err(plan) => *plan,
    };
    // A pipeline region rooted here? Decide for the whole region at once —
    // wrapping the largest qualifying subtree keeps every operator of the
    // pipeline (filters, probes, projections) inside the morsel loop.
    if is_pipeline_subtree(&plan) {
        if let Some((driver_desc, driver_rows)) = driver_scan(&plan) {
            let parallelized = driver_rows >= options.parallel_row_threshold;
            decisions.push(PlanDecision::Parallel {
                kind: ParallelKind::Pipeline,
                target: format!("the scan of {driver_desc}"),
                workers: options.parallelism,
                estimated_rows: driver_rows,
                threshold: options.parallel_row_threshold,
                parallelized,
            });
            if parallelized {
                return plan.exchange(options.parallelism);
            }
            return plan;
        }
        // No stats or no stored-table driver: nothing to weigh, stay
        // sequential without narrating a non-decision.
        return plan;
    }
    descend(plan, options, decisions, prefix_bounded)
}

/// Push a blocking operator below an exchange over its pipeline input, as a
/// [`GatherMode`]: `LIMIT k` over a sort becomes a bounded top-k merge, a
/// bare sort becomes a merge of per-worker sorted runs, and an aggregate
/// becomes per-worker partial aggregation with a merging gather.
///
/// `Ok` means the decision was made here — one recorded
/// [`PlanDecision::Parallel`] whether or not an exchange was produced (the
/// pushdown decision subsumes the pipeline decision at the same site).
/// `Err` hands the plan back untouched for the normal walk.
fn try_pushdown(
    plan: Plan,
    options: &PlannerOptions,
    decisions: &mut Vec<PlanDecision>,
) -> Result<Plan, Box<Plan>> {
    let est = plan.estimated_rows;
    match plan.node {
        // `LIMIT k` directly over a sort: each worker only ever needs its
        // morsels' best k rows, so the sort collapses into a bounded top-k
        // gather and the limit above trims the merged runs.
        PlanNode::Limit { input, n } if matches!(input.node, PlanNode::Sort { .. }) => {
            let sort_est = input.estimated_rows;
            let PlanNode::Sort { input: pipe, keys } = input.node else {
                unreachable!("guard matched a sort");
            };
            let rebuild = |pipe: Box<Plan>, keys| {
                let sort = Plan {
                    node: PlanNode::Sort { input: pipe, keys },
                    estimated_rows: sort_est,
                };
                Plan {
                    node: PlanNode::Limit {
                        input: Box::new(sort),
                        n,
                    },
                    estimated_rows: est,
                }
            };
            let Some((desc, rows)) = pushdown_driver(&pipe) else {
                return Err(Box::new(rebuild(pipe, keys)));
            };
            let parallelized = rows >= options.parallel_row_threshold;
            decisions.push(PlanDecision::Parallel {
                kind: ParallelKind::TopK,
                target: format!("the top-{n} sort over {desc}"),
                workers: options.parallelism,
                estimated_rows: rows,
                threshold: options.parallel_row_threshold,
                parallelized,
            });
            if !parallelized {
                return Ok(rebuild(pipe, keys));
            }
            let mut exch =
                (*pipe).exchange_gather(options.parallelism, GatherMode::TopK { keys, limit: n });
            exch.estimated_rows = sort_est;
            Ok(Plan {
                node: PlanNode::Limit {
                    input: Box::new(exch),
                    n,
                },
                estimated_rows: est,
            })
        }
        // A bare sort over a pipeline: workers sort their own runs, the
        // gather merges them — the exchange subsumes the sort node.
        PlanNode::Sort { input: pipe, keys } => {
            let rebuild = |pipe: Box<Plan>, keys| Plan {
                node: PlanNode::Sort { input: pipe, keys },
                estimated_rows: est,
            };
            let Some((desc, rows)) = pushdown_driver(&pipe) else {
                return Err(Box::new(rebuild(pipe, keys)));
            };
            let parallelized = rows >= options.parallel_row_threshold;
            decisions.push(PlanDecision::Parallel {
                kind: ParallelKind::MergeSort,
                target: format!("the sort over {desc}"),
                workers: options.parallelism,
                estimated_rows: rows,
                threshold: options.parallel_row_threshold,
                parallelized,
            });
            if !parallelized {
                return Ok(rebuild(pipe, keys));
            }
            let mut exch =
                (*pipe).exchange_gather(options.parallelism, GatherMode::MergeSort { keys });
            exch.estimated_rows = est;
            Ok(exch)
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
            let Some((desc, rows)) = pushdown_driver(&pipe) else {
                return Err(Box::new(Plan {
                    node: PlanNode::Aggregate {
                        input: pipe,
                        group_by,
                        aggregates,
                        having,
                        vectorized,
                    },
                    estimated_rows: est,
                }));
            };
            let parallelized = rows >= options.parallel_row_threshold;
            decisions.push(PlanDecision::Parallel {
                kind: ParallelKind::PartialAggregate,
                target: format!("the aggregation over {desc}"),
                workers: options.parallelism,
                estimated_rows: rows,
                threshold: options.parallel_row_threshold,
                parallelized,
            });
            if !parallelized {
                return Ok(Plan {
                    node: PlanNode::Aggregate {
                        input: pipe,
                        group_by,
                        aggregates,
                        having,
                        vectorized,
                    },
                    estimated_rows: est,
                });
            }
            let mut exch = (*pipe).exchange_gather(
                options.parallelism,
                GatherMode::MergeAggregate {
                    group_by,
                    aggregates,
                    having,
                    vectorized,
                },
            );
            exch.estimated_rows = est;
            Ok(exch)
        }
        node => Err(Box::new(Plan {
            node,
            estimated_rows: est,
        })),
    }
}

/// The pushdown qualification: the blocking operator's input must be a pure
/// pipeline subtree with an estimated stored-table driver scan.
fn pushdown_driver(pipe: &Plan) -> Option<(String, f64)> {
    if !is_pipeline_subtree(pipe) {
        return None;
    }
    driver_scan(pipe)
}

/// Rebuild `plan` with its children transformed (used when the node itself
/// is not part of a pipeline region). `prefix_bounded` flows down streaming
/// edges (unary inputs, join probe sides) and resets below blocking
/// operators, which consume their whole input regardless of any limit
/// above.
fn descend(
    plan: Plan,
    options: &PlannerOptions,
    decisions: &mut Vec<PlanDecision>,
    prefix_bounded: bool,
) -> Plan {
    let est = plan.estimated_rows;
    let node = match plan.node {
        leaf @ (PlanNode::Scan { .. } | PlanNode::Values { .. } | PlanNode::IndexScan { .. }) => {
            leaf
        }
        PlanNode::IndexNestedLoopJoin {
            left,
            table,
            alias,
            index,
            left_key,
        } => PlanNode::IndexNestedLoopJoin {
            left: Box::new(transform(*left, options, decisions, prefix_bounded)),
            table,
            alias,
            index,
            left_key,
        },
        PlanNode::Filter {
            input,
            predicate,
            vectorized,
        } => PlanNode::Filter {
            input: Box::new(transform(*input, options, decisions, prefix_bounded)),
            predicate,
            vectorized,
        },
        PlanNode::Project {
            input,
            exprs,
            columns,
        } => PlanNode::Project {
            input: Box::new(transform(*input, options, decisions, prefix_bounded)),
            exprs,
            columns,
        },
        PlanNode::Aggregate {
            input,
            group_by,
            aggregates,
            having,
            vectorized,
        } => PlanNode::Aggregate {
            input: Box::new(transform(*input, options, decisions, false)),
            group_by,
            aggregates,
            having,
            vectorized,
        },
        PlanNode::Sort { input, keys } => PlanNode::Sort {
            input: Box::new(transform(*input, options, decisions, false)),
            keys,
        },
        PlanNode::Limit { input, n } => PlanNode::Limit {
            input: Box::new(transform(*input, options, decisions, true)),
            n,
        },
        PlanNode::Distinct { input } => PlanNode::Distinct {
            // DISTINCT streams, but it may also need its whole input to
            // satisfy a prefix; conservatively keep the bound.
            input: Box::new(transform(*input, options, decisions, prefix_bounded)),
        },
        PlanNode::NestedLoopJoin {
            left,
            right,
            predicate,
        } => PlanNode::NestedLoopJoin {
            left: Box::new(transform(*left, options, decisions, prefix_bounded)),
            right: Box::new(transform(*right, options, decisions, false)),
            predicate,
        },
        PlanNode::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            vectorized,
        } => PlanNode::HashJoin {
            left: Box::new(transform(*left, options, decisions, prefix_bounded)),
            right: Box::new(transform(*right, options, decisions, false)),
            left_keys,
            right_keys,
            vectorized,
        },
        PlanNode::HashSemiJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => PlanNode::HashSemiJoin {
            left: Box::new(transform(*left, options, decisions, prefix_bounded)),
            right: Box::new(transform(*right, options, decisions, false)),
            left_keys,
            right_keys,
        },
        PlanNode::HashAntiJoin {
            left,
            right,
            left_keys,
            right_keys,
            null_aware,
        } => PlanNode::HashAntiJoin {
            left: Box::new(transform(*left, options, decisions, prefix_bounded)),
            right: Box::new(transform(*right, options, decisions, false)),
            left_keys,
            right_keys,
            null_aware,
        },
        PlanNode::ScalarSubquery {
            input,
            subplan,
            expr,
            op,
        } => PlanNode::ScalarSubquery {
            input: Box::new(transform(*input, options, decisions, prefix_bounded)),
            subplan: Box::new(transform(*subplan, options, decisions, false)),
            expr,
            op,
        },
        PlanNode::Apply {
            input,
            subplan,
            params,
            mode,
            workers: _,
        } => {
            // The per-binding evaluations are embarrassingly parallel; fan
            // them out when enough bindings are expected to arrive. The
            // subplan itself runs per binding and stays sequential inside
            // each worker.
            let binding_rows = input.estimated_rows;
            let input = Box::new(transform(*input, options, decisions, prefix_bounded));
            let workers = match binding_rows {
                Some(rows) => {
                    let parallelized = rows >= options.parallel_row_threshold;
                    decisions.push(PlanDecision::Parallel {
                        kind: ParallelKind::Apply,
                        target: "the per-row subquery evaluations of the apply".to_string(),
                        workers: options.parallelism,
                        estimated_rows: rows,
                        threshold: options.parallel_row_threshold,
                        parallelized,
                    });
                    if parallelized {
                        options.parallelism
                    } else {
                        1
                    }
                }
                None => 1,
            };
            PlanNode::Apply {
                input,
                subplan,
                params,
                mode,
                workers,
            }
        }
        already @ PlanNode::Exchange { .. } => already,
    };
    Plan {
        node,
        estimated_rows: est,
    }
}

/// True when every operator of the subtree belongs to the morsel-parallel
/// pipeline set. Blocking operators (sort/aggregate/limit/distinct) carry
/// cross-morsel state; `Apply` parallelizes internally instead.
fn is_pipeline_subtree(plan: &Plan) -> bool {
    match &plan.node {
        PlanNode::Scan { .. } | PlanNode::Values { .. } => true,
        // A key-ordered index scan exists to *preserve* an order a sort was
        // elided for; morsel gathering would destroy it, so it is not
        // pipeline material. Position-ordered index scans partition fine.
        PlanNode::IndexScan { order, .. } => *order == datastore::index::ProbeOrder::Position,
        PlanNode::IndexNestedLoopJoin { left, .. } => is_pipeline_subtree(left),
        PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => {
            is_pipeline_subtree(input)
        }
        PlanNode::NestedLoopJoin { left, right, .. }
        | PlanNode::HashJoin { left, right, .. }
        | PlanNode::HashSemiJoin { left, right, .. }
        | PlanNode::HashAntiJoin { left, right, .. } => {
            is_pipeline_subtree(left) && is_pipeline_subtree(right)
        }
        PlanNode::ScalarSubquery { input, subplan, .. } => {
            is_pipeline_subtree(input) && is_pipeline_subtree(subplan)
        }
        PlanNode::Sort { .. }
        | PlanNode::Limit { .. }
        | PlanNode::Distinct { .. }
        | PlanNode::Aggregate { .. }
        | PlanNode::Apply { .. }
        | PlanNode::Exchange { .. } => false,
    }
}

/// The driver scan (leftmost leaf) of a pipeline subtree, as a description
/// and its estimated base rows. `None` when the leftmost leaf is not a
/// stored-table scan or carries no estimate.
fn driver_scan(plan: &Plan) -> Option<(String, f64)> {
    match &plan.node {
        PlanNode::Scan { table, alias }
        | PlanNode::IndexScan {
            table,
            alias,
            order: datastore::index::ProbeOrder::Position,
            ..
        } => {
            let desc = if alias.eq_ignore_ascii_case(table) {
                table.clone()
            } else {
                format!("{table} as {alias}")
            };
            plan.estimated_rows.map(|rows| (desc, rows))
        }
        PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => driver_scan(input),
        PlanNode::NestedLoopJoin { left, .. }
        | PlanNode::HashJoin { left, .. }
        | PlanNode::HashSemiJoin { left, .. }
        | PlanNode::HashAntiJoin { left, .. }
        | PlanNode::IndexNestedLoopJoin { left, .. } => driver_scan(left),
        PlanNode::ScalarSubquery { input, .. } => driver_scan(input),
        _ => None,
    }
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
        fn walk(plan: &Plan, n: &mut usize) {
            if matches!(plan.node, PlanNode::Exchange { .. }) {
                *n += 1;
            }
            match &plan.node {
                PlanNode::Scan { .. } | PlanNode::Values { .. } | PlanNode::IndexScan { .. } => {}
                PlanNode::IndexNestedLoopJoin { left, .. } => walk(left, n),
                PlanNode::Filter { input, .. }
                | PlanNode::Project { input, .. }
                | PlanNode::Sort { input, .. }
                | PlanNode::Limit { input, .. }
                | PlanNode::Distinct { input }
                | PlanNode::Exchange { input, .. }
                | PlanNode::Aggregate { input, .. } => walk(input, n),
                PlanNode::NestedLoopJoin { left, right, .. }
                | PlanNode::HashJoin { left, right, .. }
                | PlanNode::HashSemiJoin { left, right, .. }
                | PlanNode::HashAntiJoin { left, right, .. } => {
                    walk(left, n);
                    walk(right, n);
                }
                PlanNode::ScalarSubquery { input, subplan, .. }
                | PlanNode::Apply { input, subplan, .. } => {
                    walk(input, n);
                    walk(subplan, n);
                }
            }
        }
        walk(plan, &mut n);
        n
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
