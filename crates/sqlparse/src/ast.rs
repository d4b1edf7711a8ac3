//! Abstract syntax tree for the SQL dialect the reproduction understands.
//!
//! The dialect covers everything the paper's nine example queries and the
//! §3.1 discussion need: SPJ queries with arbitrary joins and tuple
//! variables, nested subqueries with `IN` / `EXISTS` / quantified
//! comparisons (`= ALL`, `<= ALL`, …), aggregates with `GROUP BY` / `HAVING`
//! (including subqueries in `HAVING`), `ORDER BY`, plus DML statements and
//! view definitions, which §3.1 argues also deserve narration.

use crate::bind::Connector;
use std::fmt;

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStatement),
    Insert(InsertStatement),
    Update(UpdateStatement),
    Delete(DeleteStatement),
    CreateView(CreateViewStatement),
    /// `CREATE INDEX name ON table (column) [USING HASH]` — declare a
    /// secondary access path the planner may choose (and explain) instead of
    /// a full scan.
    CreateIndex(CreateIndexStatement),
    /// `DROP INDEX name`.
    DropIndex(DropIndexStatement),
    /// `EXPLAIN [ANALYZE] <select>` — ask the system to describe (and with
    /// ANALYZE, run and instrument) the query's plan instead of answering it.
    Explain(ExplainStatement),
    /// `SHOW METRICS | QUERY LOG | PROFILE | MISESTIMATES | WORKLOAD` — ask
    /// the engine to introspect its own observability state and talk about
    /// it.
    Show(ShowStatement),
    /// `ADVISE [LIMIT n]` — ask the database doctor to mine the workload
    /// ledger and recommend (costed, justified) physical-design changes.
    Advise(AdviseStatement),
    /// `CHECKUP` — ask the doctor for a health report: workload totals, the
    /// regression sentinel's findings, and epoch/cache hygiene.
    Checkup,
    /// `SET <knob> [=] <value>` — adjust an engine knob at runtime
    /// (currently `SET JOURNAL CAPACITY n`).
    Set(SetStatement),
}

impl Statement {
    /// The EXPLAIN body if this statement is an EXPLAIN.
    pub fn as_explain(&self) -> Option<&ExplainStatement> {
        match self {
            Statement::Explain(e) => Some(e),
            _ => None,
        }
    }
}

/// A `SHOW <topic>` introspection request against the engine's
/// observability state (metrics registry, query journal, span trees,
/// misestimate ledger).
#[derive(Debug, Clone, PartialEq)]
pub struct ShowStatement {
    /// Which slice of observability state to report.
    pub kind: ShowKind,
}

/// The observability topics `SHOW` can report on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShowKind {
    /// `SHOW METRICS` — engine-wide counters, gauges, and latency summaries.
    Metrics,
    /// `SHOW QUERY LOG [LIMIT n]` — the most recent journal entries.
    QueryLog {
        /// Optional cap on the number of entries reported.
        limit: Option<u64>,
    },
    /// `SHOW PROFILE` — the last statement's trace-span tree.
    Profile,
    /// `SHOW MISESTIMATES` — the est-vs-actual misestimate ledger.
    Misestimates,
    /// `SHOW WORKLOAD` — the doctor's cumulative per-shape workload ledger.
    Workload,
}

/// An `ADVISE [LIMIT n]` request: mine the workload and recommend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdviseStatement {
    /// Optional cap on the number of recommendations reported.
    pub limit: Option<u64>,
}

/// A `SET <knob> [=] <value>` request. The knob name is the lowercased,
/// underscore-joined word sequence (`SET JOURNAL CAPACITY 64` →
/// `journal_capacity`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetStatement {
    /// Normalized knob name (`journal_capacity`).
    pub name: String,
    /// The integer value assigned.
    pub value: u64,
}

/// An `EXPLAIN [ANALYZE]` request wrapping a query.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainStatement {
    /// True for `EXPLAIN ANALYZE`: execute the query and report actual
    /// per-operator row counts alongside the plan.
    pub analyze: bool,
    /// The query being explained.
    pub query: SelectStatement,
}

/// A query (also used for subqueries and view bodies).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStatement {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Items in the SELECT list.
    pub projection: Vec<SelectItem>,
    /// FROM items (comma-joined tuple variables).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub selection: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderByItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

impl SelectStatement {
    /// All tuple variables (aliases) introduced by the FROM clause, falling
    /// back to the table name where no alias was given.
    pub fn tuple_variables(&self) -> Vec<&str> {
        self.from.iter().map(TableRef::variable).collect()
    }

    /// True when any projection item or HAVING/SELECT expression uses an
    /// aggregate function, or a GROUP BY is present.
    pub fn is_aggregate(&self) -> bool {
        if !self.group_by.is_empty() || self.having.is_some() {
            return true;
        }
        self.projection.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
    }

    /// True when the WHERE clause (transitively) contains a subquery.
    pub fn has_subquery(&self) -> bool {
        let in_where = self
            .selection
            .as_ref()
            .map(Expr::contains_subquery)
            .unwrap_or(false);
        let in_having = self
            .having
            .as_ref()
            .map(Expr::contains_subquery)
            .unwrap_or(false);
        in_where || in_having
    }

    /// Visit every expression in the statement (projection, WHERE, GROUP BY,
    /// HAVING, ORDER BY) without descending into subqueries.
    pub fn visit_expressions<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        for item in &self.projection {
            if let SelectItem::Expr { expr, .. } = item {
                f(expr);
            }
        }
        if let Some(w) = &self.selection {
            f(w);
        }
        for g in &self.group_by {
            f(g);
        }
        if let Some(h) = &self.having {
            f(h);
        }
        for o in &self.order_by {
            f(&o.expr);
        }
    }

    /// Collect every column reference in the statement, without descending
    /// into subqueries.
    pub fn column_refs(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.visit_expressions(&mut |e| e.collect_column_refs(&mut out));
        out
    }

    /// Conjuncts of the WHERE clause (the predicate split on top-level ANDs).
    pub fn where_conjuncts(&self) -> Vec<&Expr> {
        match &self.selection {
            None => Vec::new(),
            Some(e) => e.conjuncts(),
        }
    }
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with an optional output alias.
    Expr { expr: Expr, alias: Option<String> },
}

/// A FROM item: a base table with an optional tuple-variable alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// Construct with an alias.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> TableRef {
        TableRef {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// Construct without an alias.
    pub fn bare(table: impl Into<String>) -> TableRef {
        TableRef {
            table: table.into(),
            alias: None,
        }
    }

    /// The tuple-variable name this item is referred to by.
    pub fn variable(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// One ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub ascending: bool,
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Tuple variable or relation name, when qualified.
    pub qualifier: Option<String>,
    /// Attribute name.
    pub column: String,
}

impl ColumnRef {
    /// Qualified reference `q.c`.
    pub fn qualified(qualifier: impl Into<String>, column: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            column: column.into(),
        }
    }

    /// Unqualified reference `c`.
    pub fn bare(column: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: None,
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{}.{}", q, self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Integer(i64),
    Float(f64),
    String(String),
    Boolean(bool),
    Null,
}

/// Binary operators (comparison, logical, arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOperator {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Plus,
    Minus,
    Multiply,
    Divide,
}

impl BinaryOperator {
    /// True for the six comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOperator::Eq
                | BinaryOperator::NotEq
                | BinaryOperator::Lt
                | BinaryOperator::LtEq
                | BinaryOperator::Gt
                | BinaryOperator::GtEq
        )
    }

    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            BinaryOperator::Eq => "=",
            BinaryOperator::NotEq => "<>",
            BinaryOperator::Lt => "<",
            BinaryOperator::LtEq => "<=",
            BinaryOperator::Gt => ">",
            BinaryOperator::GtEq => ">=",
            BinaryOperator::And => "AND",
            BinaryOperator::Or => "OR",
            BinaryOperator::Plus => "+",
            BinaryOperator::Minus => "-",
            BinaryOperator::Multiply => "*",
            BinaryOperator::Divide => "/",
        }
    }

    /// The English phrase used by the narrator ("is greater than", …).
    pub fn narrative_phrase(&self) -> &'static str {
        match self {
            BinaryOperator::Eq => "is",
            BinaryOperator::NotEq => "is not",
            BinaryOperator::Lt => "is less than",
            BinaryOperator::LtEq => "is at most",
            BinaryOperator::Gt => "is greater than",
            BinaryOperator::GtEq => "is at least",
            BinaryOperator::And => "and",
            BinaryOperator::Or => "or",
            BinaryOperator::Plus => "plus",
            BinaryOperator::Minus => "minus",
            BinaryOperator::Multiply => "times",
            BinaryOperator::Divide => "divided by",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOperator {
    Not,
    Minus,
    Plus,
}

/// Quantifier of a quantified comparison (`= ALL (…)`, `> ANY (…)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantifier {
    All,
    Any,
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AggregateFunction {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggregateFunction {
    /// SQL spelling (lower case, as the paper writes them).
    pub fn sql(&self) -> &'static str {
        match self {
            AggregateFunction::Count => "count",
            AggregateFunction::Sum => "sum",
            AggregateFunction::Avg => "avg",
            AggregateFunction::Min => "min",
            AggregateFunction::Max => "max",
        }
    }
}

/// SQL expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal.
    Literal(Literal),
    /// A statement parameter `?n`: the placeholder the statement's `n`-th
    /// literal becomes when it is parameterized for the plan cache, in any
    /// block, subqueries included. Never produced by the parser — only by
    /// [`crate::param::parameterize_select`] — and rendered `?n`, as plan
    /// trees render it, so parameterized templates stay printable. (The
    /// enclosing-row values a correlated subquery reads are the planner's own
    /// parameters, rendered `$k` and numbered apart from these.)
    Param(u32),
    /// Binary operation.
    BinaryOp {
        left: Box<Expr>,
        op: BinaryOperator,
        right: Box<Expr>,
    },
    /// Unary operation.
    UnaryOp { op: UnaryOperator, expr: Box<Expr> },
    /// Aggregate call, e.g. `count(*)`, `count(distinct m.year)`.
    Aggregate {
        func: AggregateFunction,
        /// `None` means `*`.
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<SelectStatement>,
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        subquery: Box<SelectStatement>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// Quantified comparison: `expr op ALL|ANY (subquery)`.
    QuantifiedComparison {
        left: Box<Expr>,
        op: BinaryOperator,
        quantifier: Quantifier,
        subquery: Box<SelectStatement>,
    },
    /// Scalar subquery in expression position (e.g. in HAVING).
    ScalarSubquery(Box<SelectStatement>),
}

impl Expr {
    /// Equality between two column references — the most common join shape.
    pub fn col_eq(left: ColumnRef, right: ColumnRef) -> Expr {
        Expr::BinaryOp {
            left: Box::new(Expr::Column(left)),
            op: BinaryOperator::Eq,
            right: Box::new(Expr::Column(right)),
        }
    }

    /// AND together a list of expressions (`None` for an empty list).
    pub fn and_all(mut exprs: Vec<Expr>) -> Option<Expr> {
        match exprs.len() {
            0 => None,
            1 => exprs.pop(),
            _ => {
                let mut it = exprs.into_iter();
                let first = it.next().expect("non-empty");
                Some(it.fold(first, |acc, e| Expr::BinaryOp {
                    left: Box::new(acc),
                    op: BinaryOperator::And,
                    right: Box::new(e),
                }))
            }
        }
    }

    /// Split the expression on top-level ANDs.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.each_conjunct(&mut |c| out.push(c));
        out
    }

    /// Call `f` on each conjunct, in [`Expr::conjuncts`] order, without
    /// collecting them.
    pub fn each_conjunct<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        match self {
            Expr::BinaryOp {
                left,
                op: BinaryOperator::And,
                right,
            } => {
                left.each_conjunct(f);
                right.each_conjunct(f);
            }
            other => f(other),
        }
    }

    /// True if the expression contains an aggregate call (without descending
    /// into subqueries).
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Aggregate { .. }) {
                found = true;
            }
        });
        found
    }

    /// True if the expression contains any kind of subquery.
    pub fn contains_subquery(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| found |= Connector::of(e).is_some());
        found
    }

    /// The subqueries directly nested in this expression.
    pub fn subqueries(&self) -> Vec<&SelectStatement> {
        let mut out = Vec::new();
        self.walk(&mut |e| out.extend(Connector::of(e).map(|(_, sub)| sub)));
        out
    }

    /// Pre-order walk over this expression tree (not descending into
    /// subquery bodies).
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => {}
            Expr::BinaryOp { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::UnaryOp { expr, .. } => expr.walk(f),
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.walk(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Exists { .. } => {}
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::QuantifiedComparison { left, .. } => left.walk(f),
            Expr::ScalarSubquery(_) => {}
        }
    }

    /// Collect column references appearing in this expression (not inside
    /// subqueries).
    pub fn collect_column_refs<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c);
            }
        });
    }

    /// All column references as an owned vector.
    pub fn column_refs(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.collect_column_refs(&mut out);
        out
    }

    /// Visit every column reference of this expression mutably, in the order
    /// and to the depth of [`Expr::walk`] (subquery bodies are not entered).
    pub fn column_refs_mut(&mut self, f: &mut dyn FnMut(&mut ColumnRef)) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Literal(_) | Expr::Param(_) | Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
            Expr::BinaryOp { left, right, .. } => {
                left.column_refs_mut(f);
                right.column_refs_mut(f);
            }
            Expr::UnaryOp { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. }
            | Expr::QuantifiedComparison { left: expr, .. } => expr.column_refs_mut(f),
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.column_refs_mut(f);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.column_refs_mut(f);
                for e in list {
                    e.column_refs_mut(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.column_refs_mut(f);
                low.column_refs_mut(f);
                high.column_refs_mut(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.column_refs_mut(f);
                pattern.column_refs_mut(f);
            }
        }
    }

    /// If this expression is an equality of two column references (`x = y`),
    /// return them as written. Whether it joins two tuple variables, selects
    /// on one or correlates with an enclosing block is the binder's call
    /// ([`crate::bind::ConjunctRole`]).
    pub fn as_column_equality(&self) -> Option<(&ColumnRef, &ColumnRef)> {
        let Expr::BinaryOp {
            left,
            op: BinaryOperator::Eq,
            right,
        } = self
        else {
            return None;
        };
        match (left.as_ref(), right.as_ref()) {
            (Expr::Column(l), Expr::Column(r)) => Some((l, r)),
            _ => None,
        }
    }

    /// If this expression compares a column with a literal, return them
    /// (column, operator, literal), regardless of which side the column is
    /// on; the operator is flipped if needed.
    pub fn as_selection_predicate(&self) -> Option<(&ColumnRef, BinaryOperator, &Literal)> {
        let Expr::BinaryOp { left, op, right } = self else {
            return None;
        };
        if !op.is_comparison() {
            return None;
        }
        match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), Expr::Literal(v)) => Some((c, *op, v)),
            (Expr::Literal(v), Expr::Column(c)) => Some((c, flip(*op), v)),
            _ => None,
        }
    }
}

/// Flip a comparison operator for operand exchange.
pub fn flip(op: BinaryOperator) -> BinaryOperator {
    match op {
        BinaryOperator::Lt => BinaryOperator::Gt,
        BinaryOperator::LtEq => BinaryOperator::GtEq,
        BinaryOperator::Gt => BinaryOperator::Lt,
        BinaryOperator::GtEq => BinaryOperator::LtEq,
        other => other,
    }
}

/// INSERT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStatement {
    pub table: String,
    /// Explicit column list, if given.
    pub columns: Vec<String>,
    /// Rows of value expressions.
    pub values: Vec<Vec<Expr>>,
}

/// UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStatement {
    pub table: String,
    pub alias: Option<String>,
    /// `SET column = expr` assignments.
    pub assignments: Vec<(String, Expr)>,
    pub selection: Option<Expr>,
}

/// DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStatement {
    pub table: String,
    pub alias: Option<String>,
    pub selection: Option<Expr>,
}

/// CREATE VIEW statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateViewStatement {
    pub name: String,
    pub query: SelectStatement,
}

/// CREATE INDEX statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreateIndexStatement {
    pub name: String,
    pub table: String,
    /// The key columns, in declaration order. A single entry is a plain
    /// single-column index; more build a composite index ordered
    /// lexicographically by the listed columns.
    pub columns: Vec<String>,
    /// True for `USING HASH`; the default is an ordered (B-tree-style)
    /// index, which answers both point and range probes.
    pub hash: bool,
}

/// DROP INDEX statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropIndexStatement {
    pub name: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(q: &str, c: &str) -> Expr {
        Expr::Column(ColumnRef::qualified(q, c))
    }

    #[test]
    fn conjuncts_split_on_and_only() {
        let e = Expr::and_all(vec![
            Expr::col_eq(
                ColumnRef::qualified("m", "id"),
                ColumnRef::qualified("c", "mid"),
            ),
            Expr::col_eq(
                ColumnRef::qualified("c", "aid"),
                ColumnRef::qualified("a", "id"),
            ),
            Expr::BinaryOp {
                left: Box::new(col("a", "name")),
                op: BinaryOperator::Eq,
                right: Box::new(Expr::Literal(Literal::String("Brad Pitt".into()))),
            },
        ])
        .unwrap();
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn join_and_selection_predicates_are_recognized() {
        let join = Expr::col_eq(
            ColumnRef::qualified("m", "id"),
            ColumnRef::qualified("c", "mid"),
        );
        assert!(join.as_column_equality().is_some());
        assert!(join.as_selection_predicate().is_none());

        let sel = Expr::BinaryOp {
            left: Box::new(Expr::Literal(Literal::Integer(2000))),
            op: BinaryOperator::Lt,
            right: Box::new(col("m", "year")),
        };
        let (c, op, v) = sel.as_selection_predicate().unwrap();
        assert_eq!(c.column, "year");
        assert_eq!(op, BinaryOperator::Gt);
        assert_eq!(*v, Literal::Integer(2000));
    }

    #[test]
    fn aggregate_and_subquery_detection() {
        let agg = Expr::Aggregate {
            func: AggregateFunction::Count,
            arg: None,
            distinct: false,
        };
        assert!(agg.contains_aggregate());
        let sub = Expr::Exists {
            subquery: Box::new(SelectStatement::default()),
            negated: true,
        };
        assert!(sub.contains_subquery());
        assert_eq!(sub.subqueries().len(), 1);
    }

    #[test]
    fn select_statement_helpers() {
        let mut s = SelectStatement {
            projection: vec![SelectItem::Expr {
                expr: col("m", "title"),
                alias: None,
            }],
            from: vec![TableRef::aliased("MOVIES", "m")],
            ..Default::default()
        };
        assert_eq!(s.tuple_variables(), vec!["m"]);
        assert!(!s.is_aggregate());
        s.group_by.push(col("m", "year"));
        assert!(s.is_aggregate());
        assert!(!s.has_subquery());
        assert_eq!(s.column_refs().len(), 2);
    }

    #[test]
    fn operator_metadata() {
        assert!(BinaryOperator::LtEq.is_comparison());
        assert!(!BinaryOperator::And.is_comparison());
        assert_eq!(BinaryOperator::Gt.narrative_phrase(), "is greater than");
        assert_eq!(flip(BinaryOperator::LtEq), BinaryOperator::GtEq);
        assert_eq!(flip(BinaryOperator::Eq), BinaryOperator::Eq);
    }

    #[test]
    fn table_ref_variable_prefers_alias() {
        assert_eq!(TableRef::aliased("MOVIES", "m").variable(), "m");
        assert_eq!(TableRef::bare("MOVIES").variable(), "MOVIES");
    }
}
