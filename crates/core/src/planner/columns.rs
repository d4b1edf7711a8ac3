//! The columns pass: a join emits only the columns read above it.
//!
//! Runs last, over the finished physical plan (after parallelization), in one
//! walk. Top-down it carries which of a node's output columns its consumer
//! reads — the root's consumer reads all of them. Bottom-up it returns the
//! node's arity and where each of its old output positions went. A hash join
//! or an index nested-loop join keeps only the columns read above it (its
//! [`JoinOutput`] list), and every position held above a join that shrank is
//! remapped: filter predicates, projection expressions and sort keys,
//! group-by columns and aggregate arguments, join and semi-/anti-join keys, a
//! scalar subquery's keys and operand, `Apply` parameters and operand, and an
//! exchange's gather keys.
//!
//! Nothing else is narrowed. Scans, index scans and literal rows hand out
//! shared rows, which a narrower copy would have to allocate. A nested-loop
//! join's predicate reads its whole candidate row. `DISTINCT`, a
//! merging-aggregate exchange and every subplan root read their whole input.
//! A list that would be every column in place stays `None`, so a plan with
//! nothing to narrow is the plan lowering made. Trees, estimates, answers and
//! row order do not change: positions are rendered by name, and a projection
//! left reading its input in place hands its rows on as they are.

use datastore::exec::{ApplyMode, GatherMode, JoinOutput, Plan, PlanNode};
use datastore::expr::Expr;
use datastore::Database;

/// Which output columns of a node its consumer reads. A node asks only
/// about its own positions, so a join hands its consumer's question to its
/// left input as it is.
type Reads<'a> = &'a dyn Fn(usize) -> bool;

/// The consumer of a plan root, of a subplan root and of everything under a
/// node that reads its whole input.
fn all(_: usize) -> bool {
    true
}

/// What the pass did to a subtree's output.
struct Shape {
    /// Output columns before the pass.
    arity: usize,
    /// Output columns after it.
    kept: usize,
    /// Old position → new, when anything moved. A dropped column's entry is
    /// never asked for: nothing above reads it.
    moved: Option<Vec<usize>>,
}

impl Shape {
    fn same(arity: usize) -> Shape {
        Shape {
            arity,
            kept: arity,
            moved: None,
        }
    }

    fn at(&self, i: usize) -> usize {
        self.moved.as_ref().map_or(i, |moved| moved[i])
    }

    fn remap(&self, positions: &mut [usize]) {
        if self.moved.is_some() {
            positions.iter_mut().for_each(|i| *i = self.at(*i));
        }
    }

    fn remap_expr(&self, expr: &mut Expr) {
        if self.moved.is_some() {
            expr.map_columns(&|i| self.at(i));
        }
    }
}

/// Narrow every join of a freshly lowered plan to the columns read above
/// it. A plan without a join has nothing to narrow and is not walked.
// Out of line: inlined into `plan_query_impl`, it slowed the planning of
// join-free statements too (8 % in `churn`'s trace; 0–5 % out of line).
#[inline(never)]
pub(super) fn narrow_joins(db: &Database, plan: &mut Plan) {
    if has_join(plan) {
        narrow(db, plan, &all);
    }
}

fn has_join(plan: &Plan) -> bool {
    matches!(
        plan.node,
        PlanNode::HashJoin { .. } | PlanNode::IndexNestedLoopJoin { .. }
    ) || plan.children().any(|(_, child)| has_join(child))
}

fn narrow(db: &Database, plan: &mut Plan, reads: Reads) -> Shape {
    match &mut plan.node {
        PlanNode::Scan { table, .. } => Shape::same(table_arity(db, table)),
        PlanNode::IndexScan {
            table,
            index,
            index_only: true,
            ..
        } => {
            let index = db.table(table).and_then(|t| t.index(index));
            Shape::same(index.map_or(0, |i| i.def().columns.len()))
        }
        PlanNode::IndexScan { table, .. } => Shape::same(table_arity(db, table)),
        PlanNode::Values { columns, .. } => Shape::same(columns.len()),
        PlanNode::Filter {
            input, predicate, ..
        } => {
            let shape = narrow(db, input, &|i| reads(i) || predicate.reads_column(i));
            shape.remap_expr(predicate);
            shape
        }
        PlanNode::Project { input, exprs, .. } => {
            let shape = narrow(db, input, &|i| exprs.iter().any(|e| e.reads_column(i)));
            exprs.iter_mut().for_each(|e| shape.remap_expr(e));
            Shape::same(exprs.len())
        }
        PlanNode::NestedLoopJoin { left, right, .. } => {
            Shape::same(narrow(db, left, &all).arity + narrow(db, right, &all).arity)
        }
        PlanNode::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            output,
            ..
        } => {
            let l = narrow(db, left, &|i| reads(i) || left_keys.contains(&i));
            let r = narrow(db, right, &|i| {
                reads(l.arity + i) || right_keys.contains(&i)
            });
            l.remap(left_keys);
            r.remap(right_keys);
            keep_read(output, reads, &l, &r)
        }
        PlanNode::IndexNestedLoopJoin {
            left,
            table,
            left_key,
            output,
            ..
        } => {
            let l = narrow(db, left, &|i| reads(i) || i == *left_key);
            *left_key = l.at(*left_key);
            keep_read(output, reads, &l, &Shape::same(table_arity(db, table)))
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => {
            let args = || aggregates.iter().filter_map(|a| a.arg.as_ref());
            let shape = narrow(db, input, &|i| {
                group_by.contains(&i) || args().any(|e| e.reads_column(i))
            });
            shape.remap(group_by);
            let args = aggregates.iter_mut().filter_map(|a| a.arg.as_mut());
            args.for_each(|e| shape.remap_expr(e));
            Shape::same(group_by.len() + aggregates.len())
        }
        PlanNode::Sort { input, keys }
        | PlanNode::Exchange {
            input,
            gather: GatherMode::MergeSort { keys } | GatherMode::TopK { keys, .. },
            ..
        } => {
            let shape = narrow(db, input, &|i| {
                reads(i) || keys.iter().any(|k| k.column == i)
            });
            keys.iter_mut().for_each(|k| k.column = shape.at(k.column));
            shape
        }
        PlanNode::Limit { input, .. }
        | PlanNode::Exchange {
            input,
            gather: GatherMode::Rows,
            ..
        } => narrow(db, input, reads),
        PlanNode::Distinct { input } => narrow(db, input, &all),
        PlanNode::Exchange {
            input,
            gather:
                GatherMode::MergeAggregate {
                    group_by,
                    aggregates,
                    ..
                },
            ..
        } => {
            narrow(db, input, &all);
            Shape::same(group_by.len() + aggregates.len())
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
        } => {
            let shape = narrow(db, left, &|i| reads(i) || left_keys.contains(&i));
            let build = narrow(db, right, &|i| right_keys.contains(&i));
            shape.remap(left_keys);
            build.remap(right_keys);
            shape
        }
        PlanNode::ScalarSubquery {
            input,
            subplan,
            expr,
            keys,
            ..
        } => {
            let shape = narrow(db, input, &|i| {
                reads(i) || expr.reads_column(i) || keys.iter().any(|&(k, _)| k == i)
            });
            narrow(db, subplan, &all);
            shape.remap_expr(expr);
            keys.iter_mut().for_each(|(k, _)| *k = shape.at(*k));
            shape
        }
        PlanNode::Apply {
            input,
            subplan,
            params,
            mode,
            ..
        } => {
            let operand = match mode {
                ApplyMode::Exists { .. } => None,
                ApplyMode::In { expr, .. }
                | ApplyMode::Compare { expr, .. }
                | ApplyMode::Quantified { expr, .. } => Some(expr),
            };
            let shape = narrow(db, input, &|i| {
                reads(i)
                    || params.iter().any(|&(_, p)| p == i)
                    || operand.as_deref().is_some_and(|e| e.reads_column(i))
            });
            narrow(db, subplan, &all);
            params.iter_mut().for_each(|(_, p)| *p = shape.at(*p));
            if let Some(e) = operand {
                shape.remap_expr(e);
            }
            shape
        }
    }
}

/// A join keeps the columns its consumer reads, in their order: its output
/// list names them in its (already narrowed) inputs, `None` when that is
/// every column in place.
fn keep_read(output: &mut JoinOutput, reads: Reads, left: &Shape, right: &Shape) -> Shape {
    debug_assert!(output.is_none(), "a join is narrowed once");
    let arity = left.arity + right.arity;
    let mut kept = 0;
    let moved: Vec<usize> = (0..arity)
        .map(|i| {
            if !reads(i) {
                return usize::MAX;
            }
            kept += 1;
            kept - 1
        })
        .collect();
    let list = (0..arity)
        .filter(|&i| moved[i] != usize::MAX)
        .map(|i| match i < left.arity {
            true => left.at(i),
            false => left.kept + right.at(i - left.arity),
        });
    if !list.clone().eq(0..left.kept + right.kept) {
        *output = Some(list.collect());
    }
    Shape {
        arity,
        kept,
        moved: (kept < arity).then_some(moved),
    }
}

fn table_arity(db: &Database, table: &str) -> usize {
    db.table(table).map_or(0, |t| t.schema().columns.len())
}

#[cfg(test)]
mod tests {
    use super::super::{plan_query_with, PlannerOptions};
    use datastore::exec::{describe_plan, Plan, PlanNode, ProfileNode};
    use datastore::sample::movie_database;
    use sqlparse::parse_query;

    /// A hash join's output list beside the columns its profile node emits.
    type Emitted = (Vec<usize>, Vec<String>);

    /// Each hash join's output, outermost first, and the `EXPLAIN` tree.
    fn join_outputs(sql: &str) -> (Vec<Emitted>, String) {
        let db = movie_database();
        let query = parse_query(sql).unwrap();
        let plan = plan_query_with(&db, &query, PlannerOptions::sequential())
            .unwrap()
            .plan;
        let profile = describe_plan(&db, &plan).unwrap();
        let mut lists = Vec::new();
        plan.walk(&mut |p: &Plan| {
            if let PlanNode::HashJoin { output, .. } = &p.node {
                lists.push(output.as_deref().map(<[usize]>::to_vec).unwrap_or_default());
            }
        });
        let mut columns = Vec::new();
        profile.walk(&mut |p: ProfileNode| {
            if p.operator() == "hash join" {
                columns.push(p.columns().iter().map(ToString::to_string).collect());
            }
        });
        let tree = profile.render_tree(false);
        (lists.into_iter().zip(columns).collect(), tree)
    }

    fn list(positions: &[usize], columns: &[&str]) -> Emitted {
        let columns = columns.iter().map(ToString::to_string).collect();
        (positions.to_vec(), columns)
    }

    #[test]
    fn the_three_way_join_emits_one_column_from_each_join() {
        let (outputs, tree) = join_outputs(
            "select m.title from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id",
        );
        // ACTOR ⋈ CAST keeps c.mid (ACTOR's three columns, then CAST's
        // first); the join with MOVIES keeps m.title (behind that one column,
        // MOVIES' second).
        assert_eq!(outputs, [list(&[2], &["m.title"]), list(&[3], &["c.mid"])]);
        assert_eq!(
            tree.trim_end(),
            "\
project: m.title  [est=12]
└─ hash join: c.mid = m.id  [vectorized]  [est=12]
   ├─ hash join: a.id = c.aid  [vectorized]  [est=12]
   │  ├─ scan: ACTOR as a  [est=6]
   │  └─ scan: CAST as c  [est=12]
   └─ scan: MOVIES as m  [est=10]"
        );
    }

    #[test]
    fn q8_s_joins_emit_the_group_keys_and_the_counted_column() {
        let (outputs, tree) = join_outputs(
            "select a.id, a.name from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id \
             group by a.id, a.name having count(distinct m.year) = 1",
        );
        assert_eq!(
            outputs,
            [
                list(&[0, 1, 5], &["a.id", "a.name", "m.year"]),
                list(&[0, 1, 3], &["a.id", "a.name", "c.mid"]),
            ]
        );
        assert_eq!(
            tree.trim_end(),
            "\
aggregate: group by a.id, a.name; count(DISTINCT m.year); having …  [vectorized]  [est=12]
└─ hash join: c.mid = m.id  [vectorized]  [est=12]
   ├─ hash join: a.id = c.aid  [vectorized]  [est=12]
   │  ├─ scan: ACTOR as a  [est=6]
   │  └─ scan: CAST as c  [est=12]
   └─ scan: MOVIES as m  [est=10]"
        );
    }

    #[test]
    fn a_join_read_whole_keeps_no_list() {
        let (outputs, _) = join_outputs(
            "select * from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id",
        );
        assert!(
            outputs.iter().all(|(list, _)| list.is_empty()),
            "{outputs:?}"
        );
    }
}
