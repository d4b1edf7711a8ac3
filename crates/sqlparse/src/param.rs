//! Literal normalization and parameterization for the plan cache.
//!
//! Two cooperating views of the same statement:
//!
//! * [`normalize_statement`] works on the raw SQL *text*, before any lexing
//!   the engine would otherwise do: every string/number literal becomes `?`
//!   and its value is collected in order. The normalized text is what the
//!   plan cache keys on, so `WHERE id = 4` and `WHERE id = 7` share an entry
//!   — and on a cache hit the engine never lexes, parses, or plans at all.
//! * [`parameterize_select`] works on the parsed *AST*: liftable literals
//!   become [`Expr::Param`] placeholders, numbered in the order the text
//!   scanner sees them, and the extracted values are returned for
//!   re-binding.
//!
//! A statement is only cacheable when the two value sequences agree
//! element-for-element: then `?i` in the template corresponds exactly to the
//! `i`-th `?` of the normalized text, and future literals extracted from the
//! text can be bound positionally.
//!
//! **Two namespaces.** An `Expr::Param` here is a *statement* parameter: the
//! planner lowers it to `datastore::expr::Param::Stmt`, which a plan-cache
//! hit binds once, before execution. The enclosing-row values a correlated
//! subquery reads are a different kind of parameter (`Param::Outer`), made
//! by the planner and bound by an `Apply` per outer row; the two never share
//! a number, so the lift reaches into subqueries like anywhere else.
//!
//! **What is lifted**, in the block and in every `IN`, `EXISTS`, scalar and
//! quantified subquery inside it: a literal compared with a column by `=`
//! (whose 1/NDV estimate does not read the value); a literal compared with a
//! column by `<`, `<=`, `>` or `>=`, and both bounds of `column [NOT]
//! BETWEEN`, whose estimate reads the value only through its class
//! (`datastore::stats::RangeClass`), so the plan cache keeps one template
//! per class; and a literal compared with an aggregate or a subquery by any
//! comparison (Q7's `1 < (select count(*) …)`, Q8's `count(distinct m.year)
//! = 2`), which no estimate reads. Any other literal (a LIKE pattern, an
//! IN-list member, a projected constant, a bound of arithmetic) would make
//! the sequences diverge, so the pass stops there and says which it was
//! ([`Uncacheable`]), puts back what it had lifted ([`restore_literals`]),
//! and the statement is planned as parsed; the verdict is cached, and the
//! statement is planned fresh every time.

use crate::ast::{BinaryOperator, Expr, Literal, SelectItem, SelectStatement};
use datastore::{Uncacheable, Value};

/// A statement with its literals lifted out at the text level.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedStatement {
    /// The SQL text with literals replaced by `?` and whitespace collapsed.
    pub text: String,
    /// The extracted literals' values, in textual order: integers, floats
    /// and text, nothing else.
    pub literals: Vec<Value>,
}

fn is_ident_part(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Normalize a statement's text: replace every string and number literal
/// with `?`, collect them in order, and collapse whitespace runs.
///
/// Returns `None` when the statement is not a plain `SELECT` (DML, DDL,
/// `EXPLAIN` and `SHOW` are never cached), when a string is unterminated,
/// when a numeric token is malformed, or at a comment or a quoted
/// identifier (whose whitespace means something to the lexer) — any doubt
/// means "plan it fresh". The row count after `LIMIT` is kept verbatim: it
/// is part of the plan, not a bindable value.
pub fn normalize_statement(sql: &str) -> Option<NormalizedStatement> {
    normalize(sql, false)
}

/// [`normalize_statement`] with every number kept verbatim in the text:
/// only the strings become `?` and are collected.
pub fn normalize_strings(sql: &str) -> Option<NormalizedStatement> {
    normalize(sql, true)
}

fn normalize(sql: &str, keep_numbers: bool) -> Option<NormalizedStatement> {
    let trimmed = sql.trim();
    let bytes = trimmed.as_bytes();
    // Where the run of bytes that satisfy `keep`, starting at `from`, ends.
    let run = |from: usize, keep: fn(char) -> bool| {
        let kept = bytes[from..].iter().take_while(|&&b| keep(b as char));
        from + kept.count()
    };
    if !trimmed[..run(0, is_ident_part)].eq_ignore_ascii_case("SELECT") {
        return None;
    }

    let mut text = String::with_capacity(trimmed.len());
    let mut literals = Vec::new();
    // `trimmed[copied..]` has not reached `text` yet: what passes unchanged
    // (words, punctuation, one space) is copied a span at a time.
    let mut copied = 0;
    // Whether the last word scanned was `LIMIT`: a number directly after it
    // is kept verbatim instead of extracted.
    let mut after_limit = false;
    // A byte offset, always on a character boundary.
    let mut at = 0;
    while let Some(&b) = bytes.get(at) {
        let start = at;
        let c = if b.is_ascii() {
            b as char
        } else {
            trimmed[at..].chars().next()?
        };
        at += c.len_utf8();
        let literal = if c == '\'' {
            // String literal with '' as the escape for a single quote.
            let mut value = String::new();
            loop {
                let close = at + trimmed[at..].find('\'')?;
                value.push_str(&trimmed[at..close]);
                at = close + 1;
                if bytes.get(at) != Some(&b'\'') {
                    break;
                }
                value.push('\'');
                at += 1;
            }
            Value::Text(value.into())
        } else if c.is_ascii_digit() {
            // A word that contains digits (`g2`) was consumed whole by the
            // word branch, so a digit seen here starts a number.
            at = run(at, |c| c.is_ascii_digit());
            let is_float = bytes.get(at) == Some(&b'.');
            if is_float {
                at = run(at + 1, |c| c.is_ascii_digit());
            }
            // `123abc`, `1e5`: not a token this scanner understands.
            if bytes.get(at).is_some_and(|&b| is_ident_part(b as char)) {
                return None;
            }
            let number = &trimmed[start..at];
            if std::mem::take(&mut after_limit) || keep_numbers {
                continue;
            } else if is_float {
                Value::Float(number.parse().ok()?)
            } else {
                Value::Integer(number.parse().ok()?)
            }
        } else if is_ident_part(c) {
            at = run(at, is_ident_part);
            after_limit = bytes[start..at].eq_ignore_ascii_case(b"LIMIT");
            continue;
        } else if c.is_whitespace() {
            // A run of whitespace but a lone space becomes one space (a byte
            // that is not ASCII may begin a space). Whitespace does not reset
            // `after_limit`: `LIMIT   10` still protects the 10.
            let space = |&n: &u8| !n.is_ascii() || (n as char).is_whitespace();
            if c != ' ' || bytes.get(at).is_some_and(space) {
                at = trimmed.len() - trimmed[start..].trim_start().len();
                text.push_str(&trimmed[copied..start]);
                text.push(' ');
                copied = at;
            }
            continue;
        } else if c == '"' || (c == '-' && bytes.get(at) == Some(&b'-')) {
            return None;
        } else {
            after_limit = false;
            continue;
        };
        text.push_str(&trimmed[copied..start]);
        text.push('?');
        copied = at;
        literals.push(literal);
        after_limit = false;
    }
    text.push_str(&trimmed[copied..]);
    // (`trimmed` neither starts nor ends with whitespace, so neither does
    // `text`.)
    Some(NormalizedStatement { text, literals })
}

/// The value of a literal the text scanner extracts; `None` for the
/// keywords it leaves in the text (`NULL`, `TRUE`, `FALSE`).
fn extracted(lit: &Literal) -> Option<Value> {
    match lit {
        Literal::Integer(i) => Some(Value::Integer(*i)),
        Literal::Float(f) => Some(Value::Float(*f)),
        Literal::String(s) => Some(Value::Text(s.as_str().into())),
        Literal::Boolean(_) | Literal::Null => None,
    }
}

/// Replace `expr`, an extracted literal, with the next parameter and push
/// its value; `false` (and nothing changed) if it is not one.
fn lift(expr: &mut Expr, out: &mut Vec<Value>) -> bool {
    let Expr::Literal(lit) = expr else {
        return false;
    };
    let Some(value) = extracted(lit) else {
        return false;
    };
    *expr = Expr::Param(out.len() as u32);
    out.push(value);
    true
}

/// Whether a literal compared with `other` may be lifted: a column under
/// `=` or a range comparison, or an aggregate or a scalar subquery under any
/// comparison — places where no estimate reads the value but through its
/// class (the caller's plan check decides).
fn liftable_against(other: &Expr, op: BinaryOperator) -> bool {
    match other {
        Expr::Column(_) => op.is_comparison() && op != BinaryOperator::NotEq,
        Expr::Aggregate { .. } | Expr::ScalarSubquery(_) => op.is_comparison(),
        _ => false,
    }
}

/// Lift the liftable literals of `expr` into `out`, left to right as the
/// text has them, descending into subqueries. An extracted literal anywhere
/// else is what makes the statement untemplatable; `blame` says what a
/// literal found *here* would be.
fn param_expr(
    expr: &mut Expr,
    out: &mut Vec<Value>,
    blame: Uncacheable,
) -> Result<(), Uncacheable> {
    match expr {
        Expr::Column(_) | Expr::Param(_) => Ok(()),
        Expr::Literal(lit) => match extracted(lit) {
            Some(_) => Err(blame),
            None => Ok(()),
        },
        Expr::BinaryOp { left, op, right } => {
            let op = *op;
            if !(liftable_against(right, op) && lift(left, out)) {
                param_expr(left, out, blame)?;
            }
            if liftable_against(left, op) && lift(right, out) {
                return Ok(());
            }
            param_expr(right, out, blame)
        }
        Expr::UnaryOp { expr, .. } | Expr::IsNull { expr, .. } => param_expr(expr, out, blame),
        Expr::Aggregate { arg, .. } => match arg {
            Some(a) => param_expr(a, out, blame),
            None => Ok(()),
        },
        Expr::InList { expr, list, .. } => {
            param_expr(expr, out, blame)?;
            list.iter_mut()
                .try_for_each(|e| param_expr(e, out, Uncacheable::InList))
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            param_expr(expr, out, blame)?;
            let column = matches!(**expr, Expr::Column(_));
            for bound in [low, high] {
                if !(column && lift(bound, out)) {
                    param_expr(bound, out, blame)?;
                }
            }
            Ok(())
        }
        Expr::Like { expr, pattern, .. } => {
            param_expr(expr, out, blame)?;
            param_expr(pattern, out, Uncacheable::LikePattern)
        }
        Expr::InSubquery { expr, subquery, .. } => {
            param_expr(expr, out, blame)?;
            param_select(subquery, out)
        }
        Expr::Exists { subquery, .. } | Expr::ScalarSubquery(subquery) => {
            param_select(subquery, out)
        }
        Expr::QuantifiedComparison { left, subquery, .. } => {
            if !lift(left, out) {
                param_expr(left, out, blame)?;
            }
            param_select(subquery, out)
        }
    }
}

/// Lift the literals of one block, subqueries included, clause by clause in
/// the order the text has them: projection, WHERE, GROUP BY, HAVING, ORDER
/// BY.
fn param_select(stmt: &mut SelectStatement, out: &mut Vec<Value>) -> Result<(), Uncacheable> {
    let blame = Uncacheable::Constant;
    for item in &mut stmt.projection {
        if let SelectItem::Expr { expr, .. } = item {
            param_expr(expr, out, blame)?;
        }
    }
    let order_by = stmt.order_by.iter_mut().map(|o| &mut o.expr);
    let clauses = stmt.selection.iter_mut().chain(&mut stmt.group_by);
    for expr in clauses.chain(&mut stmt.having).chain(order_by) {
        param_expr(expr, out, blame)?;
    }
    Ok(())
}

/// Lift a statement's literals, in place, into numbered [`Expr::Param`]s —
/// statement parameters, which a plan binds from the literals of the
/// statement it serves — returning the lifted values in the order of the
/// text. A literal is lifted where it is compared with a column
/// by `=` or a range comparison (`BETWEEN`'s bounds included), or with an
/// aggregate or a scalar or quantified subquery by any comparison; subquery
/// bodies are lifted the same way, in place.
///
/// Fails, saying why, at the first literal this pass cannot lift — a `LIKE`
/// pattern, an `IN` list member, any other constant — since the text
/// scanner extracts *every* literal and the two sequences could no longer
/// agree. The statement is then left as it was given
/// ([`restore_literals`]), to be planned as it is.
pub fn parameterize_select(stmt: &mut SelectStatement) -> Result<Vec<Value>, Uncacheable> {
    let mut lifted = Vec::new();
    param_select(stmt, &mut lifted).inspect_err(|_| restore_literals(stmt, &lifted))?;
    Ok(lifted)
}

/// Put every [`Expr::Param`] `?k` of a statement back to the literal
/// `lifted[k]` it replaced: the statement [`parameterize_select`] was
/// given, since an Integer, a Float and a string are each one `Value` kind.
pub fn restore_literals(stmt: &mut SelectStatement, lifted: &[Value]) {
    let order_by = stmt.order_by.iter_mut().map(|o| &mut o.expr);
    let projection = stmt.projection.iter_mut().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    let clauses = stmt.selection.iter_mut().chain(&mut stmt.group_by);
    for expr in projection
        .chain(clauses)
        .chain(&mut stmt.having)
        .chain(order_by)
    {
        restore_expr(expr, lifted);
    }
}

fn restore_expr(expr: &mut Expr, lifted: &[Value]) {
    match expr {
        Expr::Param(k) => {
            *expr = Expr::Literal(match &lifted[*k as usize] {
                Value::Integer(i) => Literal::Integer(*i),
                Value::Float(f) => Literal::Float(*f),
                Value::Text(s) => Literal::String(s.to_string()),
                other => unreachable!("only numbers and strings are lifted, not {other:?}"),
            })
        }
        Expr::Column(_) | Expr::Literal(_) => {}
        Expr::BinaryOp { left, right, .. } => {
            restore_expr(left, lifted);
            restore_expr(right, lifted);
        }
        Expr::UnaryOp { expr, .. } | Expr::IsNull { expr, .. } => restore_expr(expr, lifted),
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                restore_expr(a, lifted);
            }
        }
        Expr::InList { expr, list, .. } => {
            restore_expr(expr, lifted);
            list.iter_mut().for_each(|e| restore_expr(e, lifted));
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            for e in [expr, low, high] {
                restore_expr(e, lifted);
            }
        }
        Expr::Like { expr, pattern, .. } => {
            restore_expr(expr, lifted);
            restore_expr(pattern, lifted);
        }
        Expr::InSubquery { expr, subquery, .. } => {
            restore_expr(expr, lifted);
            restore_literals(subquery, lifted);
        }
        Expr::QuantifiedComparison { left, subquery, .. } => {
            restore_expr(left, lifted);
            restore_literals(subquery, lifted);
        }
        Expr::Exists { subquery, .. } | Expr::ScalarSubquery(subquery) => {
            restore_literals(subquery, lifted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn normalizes_point_lookup_text() {
        let n = normalize_statement("SELECT  title FROM movies  WHERE id =  42").unwrap();
        assert_eq!(n.text, "SELECT title FROM movies WHERE id = ?");
        assert_eq!(n.literals, vec![Value::Integer(42)]);
        // A different literal yields the same normalized text.
        let m = normalize_statement("SELECT  title FROM movies  WHERE id =  7").unwrap();
        assert_eq!(m.text, n.text);
    }

    #[test]
    fn string_escapes_and_floats_extract() {
        let n =
            normalize_statement("SELECT * FROM t WHERE name = 'it''s' AND score = 1.5").unwrap();
        assert_eq!(n.text, "SELECT * FROM t WHERE name = ? AND score = ?");
        assert_eq!(n.literals, vec![Value::text("it's"), Value::Float(1.5)]);
    }

    #[test]
    fn limit_count_stays_verbatim_and_identifiers_keep_digits() {
        let n =
            normalize_statement("SELECT g2.mid FROM gen g2 WHERE g2.year = 1968 LIMIT 10").unwrap();
        assert_eq!(
            n.text,
            "SELECT g2.mid FROM gen g2 WHERE g2.year = ? LIMIT 10"
        );
        assert_eq!(n.literals, vec![Value::Integer(1968)]);
    }

    #[test]
    fn the_string_shape_keeps_numbers_and_refuses_comments() {
        let sql = "select m.title from M m where m.year = -5 and m.title = 'it''s' limit 3";
        let n = normalize_strings(sql).unwrap();
        assert_eq!(
            n.text,
            "select m.title from M m where m.year = -5 and m.title = ? limit 3"
        );
        assert_eq!(n.literals, vec![Value::text("it's")]);
        // Whitespace inside a comment or a quoted identifier is not layout.
        assert!(normalize_strings("select m.a -- x\n from M m").is_none());
        assert!(normalize_statement("select m.\"a  b\" from M m").is_none());
    }

    #[test]
    fn any_run_of_whitespace_is_one_space_and_other_characters_pass() {
        let sql =
            "select\u{A0}\u{2003}a.b ,c\x0b\r\n FROM t\t  where  x = 'é ' and y=7 limit\u{3000}2";
        let n = normalize_statement(sql).unwrap();
        assert_eq!(n.text, "select a.b ,c FROM t where x = ? and y=? limit 2");
        assert_eq!(n.literals, vec![Value::text("é "), Value::Integer(7)]);
        let n = normalize_statement("select ü.ñ from Ω ü where ü.x = 'a''b''' ").unwrap();
        assert_eq!(n.text, "select ü.ñ from Ω ü where ü.x = ?");
        assert_eq!(n.literals, vec![Value::text("a'b'")]);
        assert!(normalize_statement("select t.a from t where t.a = 'open").is_none());
    }

    #[test]
    fn non_select_statements_are_not_normalized() {
        assert!(normalize_statement("INSERT INTO t VALUES (1)").is_none());
        assert!(normalize_statement("SHOW METRICS").is_none());
        assert!(normalize_statement("EXPLAIN SELECT 1").is_none());
    }

    #[test]
    fn parameterization_matches_text_extraction_for_equalities() {
        let sql = "SELECT m.title FROM movies m WHERE m.year = 1968 AND m.genre = 'Drama'";
        let stmt = parse_query(sql).unwrap();
        let mut template = stmt;
        let lits = parameterize_select(&mut template).unwrap();
        assert_eq!(
            lits,
            normalize_statement(sql).unwrap().literals,
            "text and AST must lift the same literals in the same order"
        );
        let printed = template.to_string();
        assert!(printed.contains("m.year = ?0"), "got: {printed}");
        assert!(printed.contains("m.genre = ?1"), "got: {printed}");
    }

    #[test]
    fn range_bounds_are_lifted_in_text_order() {
        let lift = |sql: &str| {
            let mut template = parse_query(sql).unwrap();
            let lifted = parameterize_select(&mut template).unwrap();
            assert_eq!(lifted, normalize_statement(sql).unwrap().literals, "{sql}");
            template.to_string()
        };
        let both = lift("SELECT * FROM movies m WHERE m.year > 1968 AND m.genre = 'Drama'");
        assert!(
            both.contains("m.year > ?0") && both.contains("m.genre = ?1"),
            "{both}"
        );
        let flipped = lift("SELECT * FROM movies m WHERE 1968 <= m.year AND m.id < 7.5");
        assert!(
            flipped.contains("?0 <= m.year") && flipped.contains("m.id < ?1"),
            "{flipped}"
        );
        let between =
            lift("SELECT * FROM movies m WHERE m.genre = 'Drama' AND m.year NOT BETWEEN 1 AND 2");
        assert!(between.contains("NOT BETWEEN ?1 AND ?2"), "{between}");
    }

    #[test]
    fn unliftable_literals_stay_in_place_so_sequences_diverge() {
        // The AST pass could lift only the equality while the text scanner
        // sees both literals: it stops at the constant and names it.
        // A refused statement comes back as it was parsed.
        let blame = |sql: &str| {
            let parsed = parse_query(sql).unwrap();
            let mut back = parsed.clone();
            let why = parameterize_select(&mut back).unwrap_err();
            assert_eq!(back, parsed, "{sql}");
            why
        };
        assert_eq!(
            blame("SELECT * FROM movies m WHERE m.year + 1 > 1968 AND m.genre = 'Drama'"),
            Uncacheable::Constant
        );
        assert_eq!(
            blame("SELECT * FROM movies m WHERE m.id + 1 BETWEEN 1 AND 2"),
            Uncacheable::Constant
        );
        assert_eq!(
            blame("SELECT * FROM movies m WHERE m.year <> 1968"),
            Uncacheable::Constant
        );
        assert_eq!(
            blame("SELECT * FROM movies m WHERE m.title LIKE 'The %'"),
            Uncacheable::LikePattern
        );
        assert_eq!(
            blame("SELECT * FROM movies m WHERE m.year IN (1968, 1969)"),
            Uncacheable::InList
        );
        assert_eq!(
            blame("SELECT m.title, 1 FROM movies m WHERE m.year = 1968"),
            Uncacheable::Constant
        );
        assert_eq!(
            blame("SELECT * FROM movies m WHERE m.year = -1968"),
            Uncacheable::Constant
        );
        // Keywords are not literals to either pass.
        let sql = "SELECT * FROM movies m WHERE m.year IS NOT NULL AND m.id = 7";
        let lifted = parameterize_select(&mut parse_query(sql).unwrap()).unwrap();
        assert_eq!(lifted, normalize_statement(sql).unwrap().literals);
    }

    #[test]
    fn subqueries_are_lifted_in_text_order() {
        let lift = |sql: &str| {
            let mut template = parse_query(sql).unwrap();
            let lifted = parameterize_select(&mut template).unwrap();
            assert_eq!(lifted, normalize_statement(sql).unwrap().literals, "{sql}");
            // Every `?k` put back is the statement as parsed.
            let mut restored = template.clone();
            restore_literals(&mut restored, &lifted);
            assert_eq!(restored, parse_query(sql).unwrap(), "{sql}");
            template.to_string()
        };
        // Inside an IN chain, around an EXISTS, and on both sides of one.
        let q5 = lift(
            "select m.title from M m where m.id in (select c.mid from C c \
             where c.aid in (select a.id from A a where a.name = 'Brad Pitt'))",
        );
        assert!(q5.contains("a.name = ?0"), "{q5}");
        // `nested`'s correlated EXISTS and NOT IN, bounds inside and out.
        let exists = lift(
            "select m.title from M m where m.year >= 1970 and exists \
             (select * from C c where c.mid = m.id and c.aid <= 52)",
        );
        assert!(exists.contains("m.year >= ?0"), "{exists}");
        assert!(exists.contains("c.aid <= ?1"), "{exists}");
        let not_in = lift(
            "select a.name from A a where a.id not in (select c.aid from C c where c.mid <= 50)",
        );
        assert!(not_in.contains("c.mid <= ?0"), "{not_in}");
        let around = lift(
            "select m.title from M m where m.year = 1999 and exists \
             (select * from C c where c.mid = m.id and c.aid = 7) and m.id = 3",
        );
        for lifted in ["m.year = ?0", "c.aid = ?1", "m.id = ?2"] {
            assert!(around.contains(lifted), "{lifted} in {around}");
        }
        // A constant compared with a subquery or an aggregate, any operator.
        let q7 = lift(
            "select m.id, count(*) from M m, C c where m.id = c.mid group by m.id \
             having 1 < (select count(*) from G g where g.mid = m.id and g.genre = 'noir')",
        );
        assert!(
            q7.contains("?0 < (SELECT") && q7.contains("g.genre = ?1"),
            "{q7}"
        );
        let q8 = lift("select a.id from A a group by a.id having count(distinct a.year) = 2");
        assert!(q8.contains("= ?0"), "{q8}");
        let all = lift("select m.id from M m where 1990 <= all (select n.year from M n)");
        assert!(all.contains("?0 <= ALL"), "{all}");
        // No literal, nothing lifted: a template all the same.
        assert_eq!(
            parameterize_select(
                &mut parse_query("select m.id from M m where exists (select * from C c)").unwrap()
            )
            .unwrap(),
            Vec::<Value>::new()
        );
    }

    #[test]
    fn what_a_subquery_cannot_lift_is_refused_as_at_the_top() {
        // A refused statement comes back as it was parsed.
        let blame = |sql: &str| {
            let parsed = parse_query(sql).unwrap();
            let mut back = parsed.clone();
            let why = parameterize_select(&mut back).unwrap_err();
            assert_eq!(back, parsed, "{sql}");
            why
        };
        let exists = |body: &str| {
            format!("select m.title from M m where m.id = 4 and exists (select * from C c where {body})")
        };
        assert_eq!(blame(&exists("c.role like 'R%'")), Uncacheable::LikePattern);
        assert_eq!(blame(&exists("c.aid in (1, 2)")), Uncacheable::InList);
        assert_eq!(blame(&exists("c.aid <> 2")), Uncacheable::Constant);
        assert_eq!(
            blame("select m.title from M m where exists (select 1 from C c)"),
            Uncacheable::Constant
        );
        assert_eq!(
            blame("select m.title from M m where 4 in (select c.mid from C c)"),
            Uncacheable::Constant
        );
    }
}
