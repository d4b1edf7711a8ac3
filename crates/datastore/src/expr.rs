//! Runtime expression IR evaluated by the executor.
//!
//! The SQL front-end lives in a separate crate (`sqlparse`), so the executor
//! works on a small, already-resolved intermediate representation: column
//! references are positions into the operator's output row, not names. The
//! planner that lowers parsed SQL into this IR lives in the `talkback` core
//! crate.

use crate::error::StoreError;
use crate::tuple::RowView;
use crate::value::Value;
use std::cmp::Ordering;

/// Binary comparison operators with SQL three-valued-logic semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    /// Evaluate the comparison on an ordering result. Public so the
    /// vectorized kernels can share the row engine's exact semantics.
    pub fn holds(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::NotEq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::LtEq => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::GtEq => ord != Ordering::Less,
        }
    }

    /// SQL spelling of the operator.
    pub fn sql(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// A runtime expression over a single (possibly join-composed) row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Literal(Value),
    /// Reference to the `i`-th field of the input row.
    Column(usize),
    /// Comparison with three-valued logic.
    Compare {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Logical AND (three-valued).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (three-valued).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT (three-valued).
    Not(Box<Expr>),
    /// Arithmetic on numeric operands.
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
    /// `expr LIKE pattern` with `%` and `_` wildcards.
    Like { expr: Box<Expr>, pattern: String },
    /// Membership in a fixed list of constants (`IN (…)` after the planner
    /// has evaluated any uncorrelated subquery).
    InList { expr: Box<Expr>, list: Vec<Value> },
    /// A value bound after planning (see [`Param`]): binding the plan
    /// replaces it by a literal before the expression runs. Evaluating an
    /// unbound parameter is an error — it means a plan escaped whoever owns
    /// the binding.
    Param(Param),
}

/// A run-time parameter. The two kinds are bound at different times by
/// different owners, so each has its own numbering and neither binding can
/// reach the other's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Param {
    /// The `k`-th literal lifted out of a statement (the `k`-th `?` of its
    /// normalized text): bound for each statement of a cached plan template
    /// by rewinding the template's open operator tree with the statement's
    /// literals ([`crate::exec::RowSource::rewind`]).
    Stmt(u32),
    /// Correlation value `k`: a column of an enclosing row, bound for each
    /// distinct outer row by the `Apply` that owns it, which rewinds its
    /// open subplan with the row's values — the same way.
    Outer(u32),
}

impl std::fmt::Display for Param {
    /// `$k` for a correlation value, as plan trees name them; `?k` for a
    /// statement literal, which a bound plan never shows.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Param::Stmt(k) => write!(f, "?{k}"),
            Param::Outer(k) => write!(f, "${k}"),
        }
    }
}

/// The values a parameter substitution binds: `Some` for a parameter the
/// caller owns, `None` for one it leaves in place. Made by a plan-cache hit,
/// which answers statement parameters, and by an `Apply`, which answers its
/// correlation values from one outer row, each when it rewinds an open tree
/// ([`crate::exec::RowSource::rewind`]); and by
/// [`crate::exec::Plan::bind_params`], the reference binder.
pub type ParamLookup<'a> = &'a dyn Fn(Param) -> Option<&'a Value>;

/// An operator's expression as its plan wrote it — what it is described
/// by — and, when it reads a parameter ([`Param`]), the copy it evaluates,
/// in which each rebinding overwrites only the constants that stand where
/// the parameters were.
#[derive(Debug, Clone)]
pub(crate) struct BoundExpr {
    written: Expr,
    /// The evaluated copy and the pre-order positions of its parameters;
    /// `None` when there are none and the written expression runs.
    bound: Option<(Expr, Vec<(usize, Param)>)>,
}

impl BoundExpr {
    pub(crate) fn new(expr: &Expr) -> BoundExpr {
        Self::parameterized(expr).unwrap_or_else(|| BoundExpr {
            written: expr.clone(),
            bound: None,
        })
    }

    /// [`BoundExpr::new`], when `expr` reads a parameter.
    pub(crate) fn parameterized(expr: &Expr) -> Option<BoundExpr> {
        let (mut slots, mut at) = (Vec::new(), 0);
        expr.walk(&mut |e| {
            if let Expr::Param(param) = e {
                slots.push((at, *param));
            }
            at += 1;
        });
        (!slots.is_empty()).then(|| BoundExpr {
            written: expr.clone(),
            bound: Some((expr.clone(), slots)),
        })
    }

    /// The expression as the plan wrote it, `$k` and `?k` and all.
    pub(crate) fn written(&self) -> &Expr {
        &self.written
    }

    /// The expression to evaluate: each parameter replaced by the value it
    /// was bound to last (still a parameter, which fails to
    /// evaluate, until it is bound).
    pub(crate) fn get(&self) -> &Expr {
        self.bound
            .as_ref()
            .map_or(&self.written, |(bound, _)| bound)
    }

    /// Overwrite the constant of each parameter `bindings` has a value for;
    /// the others keep what they were bound to before.
    pub(crate) fn rebind(&mut self, bindings: ParamLookup<'_>) {
        let Some((bound, slots)) = &mut self.bound else {
            return;
        };
        let (mut at, mut next) = (0, slots.iter().peekable());
        bound.walk_mut(&mut |e| {
            if let Some(&(_, param)) = next.next_if(|(slot, _)| *slot == at) {
                if let Some(v) = bindings(param) {
                    *e = Expr::Literal(v.clone());
                }
            }
            at += 1;
        });
    }
}

/// The operands of every expression node — written once for shared and
/// mutable access (`$r` is `&` or `&mut`).
macro_rules! operands {
    ($expr:expr, $($r:tt)+) => {
        match $expr {
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => [None, None],
            Expr::Compare { left, right, .. } | Expr::Arith { left, right, .. } => {
                [Some($($r)+ **left), Some($($r)+ **right)]
            }
            Expr::And(a, b) | Expr::Or(a, b) => [Some($($r)+ **a), Some($($r)+ **b)],
            Expr::Not(e) | Expr::IsNull(e) => [Some($($r)+ **e), None],
            Expr::Like { expr, .. } | Expr::InList { expr, .. } => [Some($($r)+ **expr), None],
        }
    };
}

impl Expr {
    /// Convenience constructor for an equality comparison of two columns.
    pub fn col_eq(left: usize, right: usize) -> Expr {
        Expr::Compare {
            op: CmpOp::Eq,
            left: Box::new(Expr::Column(left)),
            right: Box::new(Expr::Column(right)),
        }
    }

    /// Convenience constructor comparing a column to a literal.
    pub fn col_cmp_value(col: usize, op: CmpOp, value: Value) -> Expr {
        Expr::Compare {
            op,
            left: Box::new(Expr::Column(col)),
            right: Box::new(Expr::Literal(value)),
        }
    }

    /// Conjoin a list of predicates (`TRUE` when the list is empty).
    pub fn conjunction(mut preds: Vec<Expr>) -> Expr {
        match preds.len() {
            0 => Expr::Literal(Value::Boolean(true)),
            1 => preds.pop().unwrap(),
            _ => {
                let mut it = preds.into_iter();
                let first = it.next().unwrap();
                it.fold(first, |acc, p| Expr::And(Box::new(acc), Box::new(p)))
            }
        }
    }

    /// Evaluate the expression against a row, wherever it lies, producing
    /// a value (`Value::Null` encodes SQL UNKNOWN for boolean contexts).
    pub fn eval<R: RowView + ?Sized>(&self, row: &R) -> Result<Value, StoreError> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(i) => Ok(row.value(*i).cloned().unwrap_or(Value::Null)),
            Expr::Compare { op, left, right } => {
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                Ok(match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => Value::Boolean(op.holds(ord)),
                })
            }
            Expr::And(a, b) => {
                let av = a.eval(row)?;
                let bv = b.eval(row)?;
                Ok(three_valued_and(&av, &bv))
            }
            Expr::Or(a, b) => {
                let av = a.eval(row)?;
                let bv = b.eval(row)?;
                Ok(three_valued_or(&av, &bv))
            }
            Expr::Not(e) => {
                let v = e.eval(row)?;
                Ok(match v {
                    Value::Boolean(b) => Value::Boolean(!b),
                    Value::Null => Value::Null,
                    other => {
                        return Err(StoreError::Eval {
                            message: format!("NOT applied to non-boolean {other}"),
                        })
                    }
                })
            }
            Expr::Arith { op, left, right } => {
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                eval_arith(*op, &l, &r)
            }
            Expr::IsNull(e) => Ok(Value::Boolean(e.eval(row)?.is_null())),
            Expr::Like { expr, pattern } => {
                let v = expr.eval(row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Text(s) => Ok(Value::Boolean(like_match(&s, pattern))),
                    other => Err(StoreError::Eval {
                        message: format!("LIKE applied to non-text {other}"),
                    }),
                }
            }
            Expr::InList { expr, list } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(item) {
                        Some(true) => return Ok(Value::Boolean(true)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Boolean(false)
                })
            }
            Expr::Param(param) => Err(StoreError::Eval {
                message: format!("unbound parameter {param}"),
            }),
        }
    }

    /// Evaluate as a filter predicate: UNKNOWN (NULL) counts as false, per
    /// SQL WHERE semantics.
    pub fn eval_predicate<R: RowView + ?Sized>(&self, row: &R) -> Result<bool, StoreError> {
        Ok(matches!(self.eval(row)?, Value::Boolean(true)))
    }

    /// This node's operand expressions, left to right.
    fn children(&self) -> impl Iterator<Item = &Expr> {
        operands!(self, &).into_iter().flatten()
    }

    /// [`Expr::children`], mutably.
    fn children_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        operands!(self, &mut).into_iter().flatten()
    }

    /// Pre-order walk over every node of the expression.
    fn walk(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        for child in self.children() {
            child.walk(f);
        }
    }

    /// [`Expr::walk`], rewriting nodes in place.
    fn walk_mut(&mut self, f: &mut dyn FnMut(&mut Expr)) {
        f(self);
        for child in self.children_mut() {
            child.walk_mut(f);
        }
    }

    /// Rewrite, in place, every column reference `i` to `to(i)`: how an
    /// expression follows its input when the columns under it move.
    pub fn map_columns(&mut self, to: &dyn Fn(usize) -> usize) {
        self.walk_mut(&mut |e| {
            if let Expr::Column(i) = e {
                *i = to(*i);
            }
        });
    }

    /// True if the expression reads column `i` of its input row.
    pub fn reads_column(&self, i: usize) -> bool {
        matches!(self, Expr::Column(c) if *c == i) || self.children().any(|e| e.reads_column(i))
    }

    /// Replace, in place, every bound [`Expr::Param`] with the literal value
    /// supplied for it, leaving the parameters `bindings` has no value for
    /// untouched.
    pub(crate) fn substitute_params(&mut self, bindings: ParamLookup<'_>) {
        self.walk_mut(&mut |e| {
            if let Expr::Param(param) = e {
                if let Some(v) = bindings(*param) {
                    *e = Expr::Literal(v.clone());
                }
            }
        });
    }

    /// True if this expression (transitively) contains an unbound parameter.
    pub fn has_params(&self) -> bool {
        matches!(self, Expr::Param(_)) || self.children().any(Expr::has_params)
    }

    /// Column indices referenced by this expression (used by the empty-result
    /// explainer to attribute failures to predicates).
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(i) = e {
                out.push(*i);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }
}

fn three_valued_and(a: &Value, b: &Value) -> Value {
    match (a.as_bool(), b.as_bool(), a.is_null(), b.is_null()) {
        (Some(false), _, _, _) | (_, Some(false), _, _) => Value::Boolean(false),
        (Some(true), Some(true), _, _) => Value::Boolean(true),
        _ => Value::Null,
    }
}

fn three_valued_or(a: &Value, b: &Value) -> Value {
    match (a.as_bool(), b.as_bool(), a.is_null(), b.is_null()) {
        (Some(true), _, _, _) | (_, Some(true), _, _) => Value::Boolean(true),
        (Some(false), Some(false), _, _) => Value::Boolean(false),
        _ => Value::Null,
    }
}

fn eval_arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value, StoreError> {
    // Integer arithmetic stays integral when both sides are integers;
    // division by zero and a result outside `i64` are errors, never a panic
    // or a wrapped value.
    if let (&Value::Integer(a), &Value::Integer(b)) = (l, r) {
        if op == ArithOp::Div && b == 0 {
            return Err(StoreError::Eval {
                message: "division by zero".into(),
            });
        }
        let result = match op {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            ArithOp::Mul => a.checked_mul(b),
            ArithOp::Div => a.checked_div(b),
        };
        return result.map(Value::Integer).ok_or_else(|| StoreError::Eval {
            message: format!("integer overflow in {a} {} {b}", op.sql()),
        });
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(StoreError::Eval {
                message: format!("arithmetic on non-numeric operands {l} and {r}"),
            })
        }
    };
    Ok(match op {
        ArithOp::Add => Value::Float(a + b),
        ArithOp::Sub => Value::Float(a - b),
        ArithOp::Mul => Value::Float(a * b),
        ArithOp::Div => {
            if b == 0.0 {
                return Err(StoreError::Eval {
                    message: "division by zero".into(),
                });
            }
            Value::Float(a / b)
        }
    })
}

/// SQL LIKE pattern matching with `%` (any run) and `_` (single character),
/// case-sensitive as in standard SQL.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|k| rec(&s[k..], rest)),
            Some(('_', rest)) => !s.is_empty() && rec(&s[1..], rest),
            Some((c, rest)) => s.first() == Some(c) && rec(&s[1..], rest),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Row;

    fn row() -> Row {
        Row::new(vec![
            Value::int(10),
            Value::text("Brad Pitt"),
            Value::Null,
            Value::Float(2.5),
        ])
    }

    #[test]
    fn comparison_three_valued() {
        let e = Expr::col_cmp_value(0, CmpOp::Gt, Value::int(5));
        assert_eq!(e.eval(&row()).unwrap(), Value::Boolean(true));
        let e = Expr::col_cmp_value(2, CmpOp::Eq, Value::int(5));
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&row()).unwrap());
    }

    #[test]
    fn and_or_short_circuit_semantics() {
        let t = Expr::Literal(Value::Boolean(true));
        let f = Expr::Literal(Value::Boolean(false));
        let n = Expr::Literal(Value::Null);
        let r = Row::empty();
        assert_eq!(
            Expr::And(Box::new(f.clone()), Box::new(n.clone()))
                .eval(&r)
                .unwrap(),
            Value::Boolean(false)
        );
        assert_eq!(
            Expr::And(Box::new(t.clone()), Box::new(n.clone()))
                .eval(&r)
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            Expr::Or(Box::new(n.clone()), Box::new(t.clone()))
                .eval(&r)
                .unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            Expr::Or(Box::new(n), Box::new(f)).eval(&r).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn arithmetic_integer_and_float() {
        let r = Row::empty();
        let e = Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(Expr::Literal(Value::int(2))),
            right: Box::new(Expr::Literal(Value::int(3))),
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Integer(5));
        let e = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::Literal(Value::Float(5.0))),
            right: Box::new(Expr::Literal(Value::int(2))),
        };
        assert_eq!(e.eval(&r).unwrap(), Value::Float(2.5));
        let e = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::Literal(Value::int(1))),
            right: Box::new(Expr::Literal(Value::int(0))),
        };
        assert!(e.eval(&r).is_err());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("Brad Pitt", "Brad%"));
        assert!(like_match("Brad Pitt", "%Pitt"));
        assert!(like_match("Brad Pitt", "%ad%"));
        assert!(like_match("Brad Pitt", "Brad_Pitt"));
        assert!(!like_match("Brad Pitt", "brad%"));
        assert!(!like_match("Brad", "Brad_"));
        assert!(like_match("", "%"));
    }

    #[test]
    fn in_list_with_nulls() {
        let e = Expr::InList {
            expr: Box::new(Expr::Column(0)),
            list: vec![Value::int(1), Value::int(10)],
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Boolean(true));
        let e = Expr::InList {
            expr: Box::new(Expr::Column(0)),
            list: vec![Value::int(1), Value::Null],
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        let e = Expr::InList {
            expr: Box::new(Expr::Column(0)),
            list: vec![Value::int(1), Value::int(2)],
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Boolean(false));
    }

    #[test]
    fn conjunction_builder() {
        let r = row();
        assert_eq!(
            Expr::conjunction(vec![]).eval(&r).unwrap(),
            Value::Boolean(true)
        );
        let c = Expr::conjunction(vec![
            Expr::col_cmp_value(0, CmpOp::Eq, Value::int(10)),
            Expr::col_cmp_value(1, CmpOp::Eq, Value::text("Brad Pitt")),
        ]);
        assert!(c.eval_predicate(&r).unwrap());
    }

    #[test]
    fn map_columns_moves_references() {
        let mut e = Expr::col_eq(0, 1);
        e.map_columns(&|i| i + 3);
        assert_eq!(e.referenced_columns(), vec![3, 4]);
        assert!(e.reads_column(4) && !e.reads_column(1));
    }

    #[test]
    fn is_null_and_not() {
        let r = row();
        let e = Expr::IsNull(Box::new(Expr::Column(2)));
        assert_eq!(e.eval(&r).unwrap(), Value::Boolean(true));
        let e = Expr::Not(Box::new(Expr::IsNull(Box::new(Expr::Column(0)))));
        assert_eq!(e.eval(&r).unwrap(), Value::Boolean(true));
    }

    #[test]
    fn params_substitute_and_error_when_unbound() {
        let r = row();
        let e = Expr::Compare {
            op: CmpOp::Eq,
            left: Box::new(Expr::Column(0)),
            right: Box::new(Expr::Param(Param::Outer(7))),
        };
        assert!(e.has_params());
        let unbound = e.eval(&r).unwrap_err();
        assert_eq!(
            unbound.to_string(),
            "evaluation error: unbound parameter $7"
        );
        let ten = Value::int(10);
        let bindings = |p: Param| (p == Param::Outer(7)).then_some(&ten);
        let mut bound = e.clone();
        bound.substitute_params(&bindings);
        assert!(!bound.has_params());
        assert_eq!(bound.eval(&r).unwrap(), Value::Boolean(true));
        // A parameter the lookup has no value for stays untouched.
        let mut other = Expr::Param(Param::Outer(9));
        other.substitute_params(&bindings);
        assert_eq!(other, Expr::Param(Param::Outer(9)));
    }

    /// The two namespaces through a plan. Statement parameter `?0` and
    /// correlation value `$0` share a number and nothing else: binding the
    /// statement reaches every `?0` — in the subplans too — and no `$0`;
    /// binding `$0` (what the rewind tests hold a rewound tree to) reaches
    /// the filter, the index probe and the inner Apply's operand, and leaves
    /// `?0` and the inner Apply's `$1` wherever they sit.
    #[test]
    fn statement_and_outer_parameters_bind_apart() {
        use crate::exec::{ApplyMode, Plan};
        use crate::index::{BoundTerm, IndexBounds};
        let (ten, seven) = (Value::int(10), Value::int(7));
        let eq = |value: Expr| Expr::Compare {
            op: CmpOp::Eq,
            left: Box::new(Expr::Column(0)),
            right: Box::new(value),
        };
        let (stmt, outer) = (Param::Stmt(0), Param::Outer(0));
        let plan = |stmt: Expr, probe: BoundTerm, outer: Expr| {
            Plan::index_scan("T", "t", "idx", IndexBounds::prefix(vec![probe]))
                .filter(eq(outer.clone()))
                .filter(eq(stmt.clone()))
                .apply(
                    Plan::scan("U", "u")
                        .filter(eq(Expr::Param(Param::Outer(1))))
                        .filter(eq(stmt)),
                    vec![(1, 0)],
                    ApplyMode::In {
                        expr: outer,
                        negated: false,
                    },
                )
        };
        let template = plan(
            Expr::Param(stmt),
            BoundTerm::Param(outer),
            Expr::Param(outer),
        );
        let bound = template.bind_params(std::slice::from_ref(&seven));
        let literal = |v: &Value| Expr::Literal(v.clone());
        let expected = plan(literal(&seven), BoundTerm::Param(outer), Expr::Param(outer));
        assert_eq!(bound, expected);
        assert_eq!(template.bind_params(&[]), template);

        let row = [ten.clone()];
        let expected = plan(
            Expr::Param(stmt),
            BoundTerm::Value(ten.clone()),
            literal(&ten),
        );
        let value = &row[0];
        let outer = |owned: u32| move |p: Param| (p == Param::Outer(owned)).then_some(value);
        let (own, other) = (outer(0), outer(2));
        assert_eq!(template.bound(&own), expected);
        // An outer binding only binds what it answers.
        assert_eq!(template.bound(&other), template);
    }

    #[test]
    fn referenced_columns_deduplicated_and_sorted() {
        let e = Expr::And(
            Box::new(Expr::col_eq(4, 1)),
            Box::new(Expr::col_cmp_value(1, CmpOp::Gt, Value::int(0))),
        );
        assert_eq!(e.referenced_columns(), vec![1, 4]);
    }
}
