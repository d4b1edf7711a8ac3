//! Materializing entry points over the streaming executor.
//!
//! Execution itself is streaming and instrumented (see [`crate::exec::stream`]);
//! [`execute`] collects a plan's output into a [`ResultSet`],
//! [`execute_with_stats`] additionally returns the per-operator
//! [`PlanProfile`] that the EXPLAIN narrator and the empty-result detective
//! read, and [`describe_plan`] returns the same profile, all counters zero,
//! without pulling a row.
//!
//! A plan-cache template runs as an [`OpenPlan`]: its operator tree, opened
//! once and kept by the template, is rewound with each statement's literals
//! and drained, so a hit neither copies the plan to bind it nor opens and
//! drops a tree; each run's counters are the tree's totals less those after
//! the run before.

use crate::database::Database;
use crate::error::StoreError;
use crate::exec::plan::{Columns, Plan};
use crate::exec::stream::{
    open, open_toward, ExecContext, OpMetrics, OpShape, PlanProfile, RowSource,
};
use crate::expr::{Param, ParamLookup};
use crate::obs::Counter;
use crate::tuple::Row;
use crate::value::Value;
use std::sync::Arc;

/// The materialized result of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column descriptors, shared with the plan's top operator.
    pub columns: Columns,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty — the situation §3.1 of the paper wants
    /// explained in natural language.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of an output column by (optionally qualified) name.
    pub fn column_index(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.matches(qualifier, name))
    }

    /// All values of one output column.
    pub fn column_values(&self, index: usize) -> Vec<Value> {
        self.rows
            .iter()
            .map(|r| r.get(index).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// Render as a simple aligned text table (used by the examples).
    pub fn to_text_table(&self) -> String {
        let headers: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        for (i, h) in headers.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", h, width = widths[i]));
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(cell.len());
                out.push_str(&format!("{:<width$}  ", cell, width = w));
            }
            out.push('\n');
        }
        out
    }
}

/// Pull an open tree dry and count the statement; the drained tree still
/// holds every operator's counters.
fn drain(db: &Database, source: &mut Box<dyn RowSource>) -> Result<ResultSet, StoreError> {
    let columns = source.columns().clone();
    let mut rows = Vec::new();
    while let Some(batch) = source.next_batch()? {
        rows.extend(batch);
    }
    db.obs().incr(Counter::QueriesExecuted);
    db.obs().add(Counter::RowsEmitted, rows.len() as u64);
    Ok(ResultSet { columns, rows })
}

/// Execute a plan against a database, materializing the full result.
pub fn execute(db: &Database, plan: &Plan) -> Result<ResultSet, StoreError> {
    drain(db, &mut open(db, plan)?)
}

/// Execute a plan and return both the materialized result and the
/// instrumented per-operator profile (rows in/out, batches, elapsed), its
/// shape described after the run.
pub fn execute_with_stats(
    db: &Database,
    plan: &Plan,
) -> Result<(ResultSet, PlanProfile), StoreError> {
    let mut source = open(db, plan)?;
    Ok((drain(db, &mut source)?, source.profile()))
}

/// A plan-cache template's operator tree, opened once and run for each of
/// its statements: what the template keeps between them.
pub struct OpenPlan {
    /// The tables the tree was opened on.
    ctx: Arc<ExecContext>,
    root: Box<dyn RowSource>,
    /// The counters of every run so far, node by node in pre-order.
    totals: Vec<OpMetrics>,
}

impl OpenPlan {
    /// Open `plan`, statement parameters and all, on `db`'s tables; opening
    /// reads no rows.
    pub fn open(db: &Database, plan: &Plan) -> Result<OpenPlan, StoreError> {
        let ctx = Arc::new(ExecContext::new(db));
        let root = open_toward(&ctx, plan, None)?;
        let totals = vec![OpMetrics::default(); root.node_count()];
        Ok(OpenPlan { ctx, root, totals })
    }

    /// True when the tree reads `db`'s tables as they are now: it was opened
    /// on this database, or on a clone of it that has not been written since.
    pub fn reads(&self, db: &Database) -> bool {
        self.ctx.reads(db)
    }

    /// Run the tree with statement parameter `?k` bound to `params[k]`:
    /// rewind it with them, drain it, and rewind it again so that it holds
    /// no rows between runs. Returns the result and its profile: `shape`,
    /// which describes the plan the tree was opened from, with this run's
    /// counters and `params`.
    pub fn run(
        &mut self,
        db: &Database,
        shape: Arc<OpShape>,
        params: Vec<Value>,
    ) -> Result<(ResultSet, PlanProfile), StoreError> {
        debug_assert_eq!(self.totals.len(), shape.size(), "a shape of another plan");
        let bindings: ParamLookup<'_> = &|param| match param {
            Param::Stmt(k) => params.get(k as usize),
            Param::Outer(_) => None,
        };
        self.root.rewind(bindings);
        let result = drain(db, &mut self.root)?;
        self.root.rewind(bindings);
        let mut counters = vec![OpMetrics::default(); self.totals.len()];
        self.root.absorb_into(&mut counters);
        for (run, total) in counters.iter_mut().zip(&mut self.totals) {
            let now = *run;
            *run -= *total;
            *total = now;
        }
        Ok((result, PlanProfile::new(shape, counters, params)))
    }
}

/// Describe a plan — operator tree, details, output columns — without
/// executing it. Opening validates table references but reads no rows; this
/// is what plain `EXPLAIN` renders.
pub fn describe_plan(db: &Database, plan: &Plan) -> Result<PlanProfile, StoreError> {
    Ok(open(db, plan)?.profile())
}

/// The shape of `plan` — a plan-cache template's, statement parameters
/// where its literals go, whose details keep a slot for each — described
/// without executing anything.
pub fn describe_shape(db: &Database, plan: &Plan) -> Result<OpShape, StoreError> {
    Ok(open(db, plan)?.shape())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::aggregate::{AggExpr, AggFunc};
    use crate::exec::plan::{ColumnInfo, SortKey};
    use crate::expr::{CmpOp, Expr};
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::DataType;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "MOVIES",
                vec![
                    ColumnDef::new("id", DataType::Integer),
                    ColumnDef::new("title", DataType::Text),
                    ColumnDef::new("year", DataType::Integer),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.create_table(TableSchema::new(
            "CAST",
            vec![
                ColumnDef::new("mid", DataType::Integer),
                ColumnDef::new("aid", DataType::Integer),
            ],
        ))
        .unwrap();
        let movies = [
            (1, "Match Point", 2005),
            (2, "Melinda and Melinda", 2004),
            (3, "Anything Else", 2003),
            (4, "Troy", 2004),
        ];
        for (id, title, year) in movies {
            db.insert(
                "MOVIES",
                vec![Value::int(id), Value::text(title), Value::int(year)],
            )
            .unwrap();
        }
        for (mid, aid) in [(1, 10), (2, 10), (4, 20), (4, 21)] {
            db.insert("CAST", vec![Value::int(mid), Value::int(aid)])
                .unwrap();
        }
        db
    }

    fn scan(table: &str, alias: &str) -> Plan {
        Plan::scan(table, alias)
    }

    #[test]
    fn scan_and_filter() {
        let db = db();
        let plan = scan("MOVIES", "m").filter(Expr::col_cmp_value(2, CmpOp::Eq, Value::int(2004)));
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.columns[1].to_string(), "m.title");
    }

    #[test]
    fn project_computes_expressions() {
        let db = db();
        let plan = scan("MOVIES", "m").project(
            vec![Expr::Column(1), Expr::Column(2)],
            vec![
                ColumnInfo::qualified("m", "title"),
                ColumnInfo::qualified("m", "year"),
            ],
        );
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.rows[0].arity(), 2);
    }

    #[test]
    fn hash_join_matches_nested_loop_join() {
        let db = db();
        let nl = Plan::nested_loop_join(
            scan("MOVIES", "m"),
            scan("CAST", "c"),
            Some(Expr::col_eq(0, 3)),
        );
        let hj = Plan::hash_join(scan("MOVIES", "m"), scan("CAST", "c"), vec![0], vec![0]);
        let a = execute(&db, &nl).unwrap();
        let b = execute(&db, &hj).unwrap();
        assert_eq!(a.len(), 4);
        let mut ra = a.rows.clone();
        let mut rb = b.rows.clone();
        let keys: Vec<usize> = (0..a.columns.len()).collect();
        ra.sort_by_key(|r| r.group_key(&keys));
        rb.sort_by_key(|r| r.group_key(&keys));
        assert_eq!(ra, rb);
    }

    #[test]
    fn aggregate_group_by_and_having() {
        let db = db();
        // SELECT year, count(*) FROM MOVIES GROUP BY year HAVING count(*) > 1
        let plan = scan("MOVIES", "m").aggregate(
            vec![2],
            vec![AggExpr::count_star("cnt")],
            Some(Expr::col_cmp_value(1, CmpOp::Gt, Value::int(1))),
        );
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0), Some(&Value::int(2004)));
        assert_eq!(rs.rows[0].get(1), Some(&Value::int(2)));
    }

    #[test]
    fn scalar_aggregate_over_empty_input_returns_one_row() {
        let db = db();
        let empty = scan("MOVIES", "m").filter(Expr::col_cmp_value(2, CmpOp::Eq, Value::int(1900)));
        let plan = empty.aggregate(vec![], vec![AggExpr::count_star("cnt")], None);
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].get(0), Some(&Value::int(0)));
    }

    #[test]
    fn sort_limit_distinct() {
        let db = db();
        let plan = scan("MOVIES", "m")
            .sort(vec![SortKey {
                column: 2,
                ascending: false,
            }])
            .limit(2);
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0].get(2), Some(&Value::int(2005)));

        let years = scan("MOVIES", "m").project(
            vec![Expr::Column(2)],
            vec![ColumnInfo::qualified("m", "year")],
        );
        let distinct = years.distinct();
        let rs = execute(&db, &distinct).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn min_max_avg_aggregates() {
        let db = db();
        let plan = scan("MOVIES", "m").aggregate(
            vec![],
            vec![
                AggExpr::new(AggFunc::Min, Expr::Column(2), "min_year"),
                AggExpr::new(AggFunc::Max, Expr::Column(2), "max_year"),
                AggExpr::new(AggFunc::Avg, Expr::Column(2), "avg_year"),
                AggExpr::new(AggFunc::CountDistinct, Expr::Column(2), "years"),
            ],
            None,
        );
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.rows[0].get(0), Some(&Value::int(2003)));
        assert_eq!(rs.rows[0].get(1), Some(&Value::int(2005)));
        assert_eq!(rs.rows[0].get(2), Some(&Value::Float(2004.0)));
        assert_eq!(rs.rows[0].get(3), Some(&Value::int(3)));
    }

    #[test]
    fn unknown_table_scan_errors() {
        let db = db();
        let err = execute(&db, &scan("NOPE", "n")).unwrap_err();
        assert!(matches!(err, StoreError::UnknownTable { .. }));
    }

    #[test]
    fn result_set_helpers() {
        let db = db();
        let rs = execute(&db, &scan("MOVIES", "m")).unwrap();
        assert!(!rs.is_empty());
        assert_eq!(rs.column_index(Some("m"), "title"), Some(1));
        assert_eq!(rs.column_index(None, "year"), Some(2));
        assert_eq!(rs.column_values(2).len(), 4);
        let table = rs.to_text_table();
        assert!(table.contains("m.title"));
        assert!(table.contains("Match Point"));
    }

    #[test]
    fn values_plan_round_trips() {
        let db = Database::new();
        let plan = Plan::values(
            vec![ColumnInfo::unqualified("x")],
            vec![Row::new(vec![Value::int(1)]), Row::new(vec![Value::int(2)])],
        );
        let rs = execute(&db, &plan).unwrap();
        assert_eq!(rs.len(), 2);
    }
}
