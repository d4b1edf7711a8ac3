//! The vectorize pass: decide — on the record — which operators of the
//! lowered physical plan run on the typed column kernels.
//!
//! Runs after physical lowering, when [`PlannerOptions::use_vectorized`] is
//! on (with it off no operator is marked and nothing is recorded), rewriting
//! the plan in place, bottom-up, over [`Plan::children_mut`] (the traversal
//! contract is documented on [`Plan`]); only the operators it decides about
//! are named here:
//!
//! * Filters whose predicate is a flat conjunction of simple comparisons
//!   (column vs. literal or column vs. column) are marked `vectorized`, so
//!   the executor compiles them into typed kernels evaluated a batch at a
//!   time. For a filter sitting directly on a base-table scan the catalog
//!   knows the column types, so the pass can also reject *honestly*: a
//!   predicate mixing text and numbers, or touching a boolean/date column,
//!   stays row-at-a-time — and the recorded [`PlanDecision::Vectorize`]
//!   says why.
//! * Aggregates whose every argument is `*` or a plain column accumulate
//!   through the typed kernels; a computed argument keeps the whole
//!   aggregation row-at-a-time.
//! * Hash joins carry the mark (`[vectorized]`, one vector counted per probe
//!   batch): the probe has one form — a reused key per row — so there is
//!   nothing to reject and no decision is logged.
//!
//! [`PlannerOptions::use_vectorized`]: super::PlannerOptions::use_vectorized

use super::cost::Estimator;
use super::{PlanDecision, SqlText};
use datastore::exec::profile::render_expr;
use datastore::exec::{ColumnInfo, Plan, PlanNode, VectorPredicate};
use datastore::expr::{Expr, Param};
use datastore::{DataType, Database, Value};

/// Apply the vectorize pass: children first, then the node's own verdict. A
/// plan-cache template's statement parameters are typed by `estimator`, and
/// a quoted expression keeps their slots.
pub(super) fn vectorize_plan(
    db: &Database,
    plan: &mut Plan,
    estimator: &Estimator,
    decisions: &mut Vec<PlanDecision>,
) {
    for (_, child) in plan.children_mut() {
        vectorize_plan(db, child, estimator, decisions);
    }
    let template = estimator.is_template();
    match &mut plan.node {
        PlanNode::Filter {
            input,
            predicate,
            vectorized,
            ..
        } => *vectorized = decide_filter(db, input, predicate, estimator, decisions),
        PlanNode::HashJoin { vectorized, .. } => *vectorized = true,
        PlanNode::Aggregate {
            aggregates,
            vectorized,
            ..
        } => {
            let eligible = aggregates
                .iter()
                .all(|a| matches!(&a.arg, None | Some(Expr::Column(_))));
            *vectorized = eligible;
            let reason = if eligible {
                "every aggregate reads a plain column"
            } else {
                "an aggregate argument is a computed expression"
            };
            decisions.push(PlanDecision::Vectorize {
                operator: "aggregate".to_string(),
                expression: SqlText::new(
                    aggregates
                        .iter()
                        .map(|a| a.output_name.clone())
                        .collect::<Vec<_>>()
                        .join(", "),
                    usize::MAX,
                    template,
                ),
                vectorized: eligible,
                reason: SqlText::new(reason.to_string(), usize::MAX, false),
            });
        }
        _ => {}
    }
}

/// Decide whether a filter runs on the vector kernels. For scan-adjacent
/// filters the catalog knows the column types, so the verdict is recorded as
/// a [`PlanDecision::Vectorize`] (acceptance or an honest rejection);
/// deeper filters are stamped by predicate shape alone, silently.
fn decide_filter(
    db: &Database,
    input: &Plan,
    predicate: &Expr,
    estimator: &Estimator,
    decisions: &mut Vec<PlanDecision>,
) -> bool {
    let shape_ok = VectorPredicate::compile(predicate).is_some();
    let Some((columns, types)) = scan_columns(db, &input.node) else {
        return shape_ok;
    };
    let (eligible, reason) = if !shape_ok {
        (
            false,
            "it is not a flat conjunction of simple comparisons".to_string(),
        )
    } else {
        match type_verdict(predicate, &types, &columns, estimator) {
            Ok(()) => (true, "a flat conjunction of typed comparisons".to_string()),
            Err(why) => (false, why),
        }
    };
    let template = estimator.is_template();
    decisions.push(PlanDecision::Vectorize {
        operator: "filter".to_string(),
        expression: SqlText::new(render_expr(predicate, &columns), usize::MAX, template),
        vectorized: eligible,
        reason: SqlText::new(reason, usize::MAX, template),
    });
    eligible
}

/// Output columns and types of a base-table access path, when the node is
/// one and the catalog knows the table.
fn scan_columns(db: &Database, node: &PlanNode) -> Option<(Vec<ColumnInfo>, Vec<DataType>)> {
    let (table, alias) = match node {
        PlanNode::Scan { table, alias } => (table, alias),
        // An index-only scan emits the index key columns, not the schema.
        PlanNode::IndexScan {
            table,
            alias,
            index,
            index_only: true,
            ..
        } => {
            let schema = db.catalog().table(table)?;
            let key = &db.table(table)?.index(index)?.def().columns;
            let mut columns = Vec::with_capacity(key.len());
            let mut types = Vec::with_capacity(key.len());
            for name in key {
                columns.push(ColumnInfo::qualified(alias.clone(), name.clone()));
                types.push(schema.column(name)?.data_type);
            }
            return Some((columns, types));
        }
        PlanNode::IndexScan { table, alias, .. } => (table, alias),
        _ => return None,
    };
    let schema = db.catalog().table(table)?;
    let mut columns = Vec::with_capacity(schema.columns.len());
    let mut types = Vec::with_capacity(schema.columns.len());
    for col in &schema.columns {
        columns.push(ColumnInfo::qualified(alias.clone(), col.name.clone()));
        types.push(col.data_type);
    }
    Some((columns, types))
}

/// Coarse type families the kernels distinguish.
#[derive(PartialEq)]
enum Family {
    Numeric,
    Text,
    Other(&'static str),
}

fn column_family(ty: DataType) -> Family {
    match ty {
        DataType::Integer | DataType::Float => Family::Numeric,
        DataType::Text => Family::Text,
        DataType::Boolean => Family::Other("boolean"),
        DataType::Date => Family::Other("date"),
    }
}

fn literal_family(value: &Value) -> Option<Family> {
    match value {
        Value::Integer(_) | Value::Float(_) => Some(Family::Numeric),
        Value::Text(_) => Some(Family::Text),
        Value::Boolean(_) => Some(Family::Other("boolean")),
        Value::Date(_) => Some(Family::Other("date")),
        Value::Null => None,
    }
}

/// Check every conjunct of a shape-eligible predicate against the scan's
/// column types; `Err` carries the narrated rejection, quoting the
/// conjunct.
fn type_verdict(
    expr: &Expr,
    types: &[DataType],
    columns: &[ColumnInfo],
    estimator: &Estimator,
) -> Result<(), String> {
    match expr {
        Expr::And(a, b) => {
            type_verdict(a, types, columns, estimator)?;
            type_verdict(b, types, columns, estimator)
        }
        Expr::Compare { left, right, .. } => {
            let sides = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(i), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(i)) => {
                    Some((column_family(types[*i]), literal_family(v)))
                }
                (Expr::Column(i), Expr::Column(j)) => {
                    Some((column_family(types[*i]), Some(column_family(types[*j]))))
                }
                // A statement parameter has the family of its literal's
                // kind (the cache key pins the kind), as the literal would.
                (Expr::Column(i), Expr::Param(Param::Stmt(k)))
                | (Expr::Param(Param::Stmt(k)), Expr::Column(i)) => Some((
                    column_family(types[*i]),
                    estimator.param_type(*k).map(column_family),
                )),
                // A correlation value comes from the enclosing block, whose
                // column types this scan does not know: only its own column
                // can disqualify the comparison.
                (Expr::Column(i), Expr::Param(Param::Outer(_)))
                | (Expr::Param(Param::Outer(_)), Expr::Column(i)) => {
                    Some((column_family(types[*i]), Some(column_family(types[*i]))))
                }
                _ => None,
            };
            let Some((lhs, Some(rhs))) = sides else {
                // Shape compilation already vetted the term; nothing typed
                // to check here.
                return Ok(());
            };
            let rendered = render_expr(expr, columns);
            if let Family::Other(name) = &lhs {
                return Err(format!(
                    "`{rendered}` compares {name} values, which the kernels don't cover"
                ));
            }
            if let Family::Other(name) = &rhs {
                return Err(format!(
                    "`{rendered}` compares {name} values, which the kernels don't cover"
                ));
            }
            if lhs != rhs {
                return Err(format!("`{rendered}` mixes text and numbers"));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}
