//! Rendering ASTs back to SQL text.
//!
//! Round-tripping matters for two reasons: the narrative layer quotes query
//! fragments when explaining them ("the condition `a.name = 'Brad Pitt'`"),
//! and the rewriter needs to show users the flattened equivalent of a nested
//! query (§3.3.4 argues that equivalence identification "receives new life"
//! when motivated by translatability).

use crate::ast::*;
use std::fmt;

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert(s) => write!(f, "{s}"),
            Statement::Update(s) => write!(f, "{s}"),
            Statement::Delete(s) => write!(f, "{s}"),
            Statement::CreateView(s) => write!(f, "{s}"),
            Statement::CreateIndex(s) => write!(f, "{s}"),
            Statement::DropIndex(s) => write!(f, "{s}"),
            Statement::Explain(s) => write!(f, "{s}"),
            Statement::Show(s) => write!(f, "{s}"),
            Statement::Advise(s) => write!(f, "{s}"),
            Statement::Checkup => write!(f, "CHECKUP"),
            Statement::Set(s) => write!(f, "{s}"),
        }
    }
}

impl fmt::Display for ShowStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ShowKind::Metrics => write!(f, "SHOW METRICS"),
            ShowKind::QueryLog { limit: None } => write!(f, "SHOW QUERY LOG"),
            ShowKind::QueryLog { limit: Some(n) } => write!(f, "SHOW QUERY LOG LIMIT {n}"),
            ShowKind::Profile => write!(f, "SHOW PROFILE"),
            ShowKind::Misestimates => write!(f, "SHOW MISESTIMATES"),
            ShowKind::Workload => write!(f, "SHOW WORKLOAD"),
        }
    }
}

impl fmt::Display for AdviseStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.limit {
            None => write!(f, "ADVISE"),
            Some(n) => write!(f, "ADVISE LIMIT {n}"),
        }
    }
}

impl fmt::Display for SetStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SET {} {}",
            self.name.replace('_', " ").to_ascii_uppercase(),
            self.value
        )
    }
}

impl fmt::Display for ExplainStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EXPLAIN {}{}",
            if self.analyze { "ANALYZE " } else { "" },
            self.query
        )
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        if self.projection.is_empty() {
            write!(f, "*")?;
        } else {
            for (i, item) in self.projection.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{item}")?;
            }
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}{}", o.expr, if o.ascending { "" } else { " DESC" })?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*"),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table)?;
        if let Some(a) = &self.alias {
            write!(f, " {a}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Integer(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Boolean(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Param(n) => write!(f, "?{n}"),
            Expr::BinaryOp { left, op, right } => {
                // Parenthesize nested OR under AND to preserve precedence.
                let needs_parens = |e: &Expr, parent: BinaryOperator| -> bool {
                    matches!(
                        e,
                        Expr::BinaryOp {
                            op: BinaryOperator::Or,
                            ..
                        } if parent == BinaryOperator::And
                    )
                };
                if needs_parens(left, *op) {
                    write!(f, "({left})")?;
                } else {
                    write!(f, "{left}")?;
                }
                write!(f, " {} ", op.sql())?;
                if needs_parens(right, *op) {
                    write!(f, "({right})")
                } else {
                    write!(f, "{right}")
                }
            }
            Expr::UnaryOp { op, expr } => match op {
                UnaryOperator::Not => write!(f, "NOT ({expr})"),
                UnaryOperator::Minus => write!(f, "-{expr}"),
                UnaryOperator::Plus => write!(f, "+{expr}"),
            },
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => {
                write!(f, "{}(", func.sql())?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                match arg {
                    None => write!(f, "*")?,
                    Some(a) => write!(f, "{a}")?,
                }
                write!(f, ")")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => write!(
                f,
                "{expr} {}IN ({subquery})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Exists { subquery, negated } => {
                write!(
                    f,
                    "{}EXISTS ({subquery})",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "{expr} {}BETWEEN {low} AND {high}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "{expr} {}LIKE {pattern}",
                if *negated { "NOT " } else { "" }
            ),
            Expr::QuantifiedComparison {
                left,
                op,
                quantifier,
                subquery,
            } => write!(
                f,
                "{left} {} {} ({subquery})",
                op.sql(),
                match quantifier {
                    Quantifier::All => "ALL",
                    Quantifier::Any => "ANY",
                }
            ),
            Expr::ScalarSubquery(q) => write!(f, "({q})"),
        }
    }
}

impl fmt::Display for InsertStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {}", self.table)?;
        if !self.columns.is_empty() {
            write!(f, " ({})", self.columns.join(", "))?;
        }
        write!(f, " VALUES ")?;
        for (i, row) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, e) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for UpdateStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UPDATE {}", self.table)?;
        if let Some(a) = &self.alias {
            write!(f, " {a}")?;
        }
        write!(f, " SET ")?;
        for (i, (col, e)) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{col} = {e}")?;
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

impl fmt::Display for DeleteStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DELETE FROM {}", self.table)?;
        if let Some(a) = &self.alias {
            write!(f, " {a}")?;
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

impl fmt::Display for CreateViewStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE VIEW {} AS {}", self.name, self.query)
    }
}

impl fmt::Display for CreateIndexStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CREATE INDEX {} ON {} ({}){}",
            self.name,
            self.table,
            self.columns.join(", "),
            if self.hash { " USING HASH" } else { "" }
        )
    }
}

impl fmt::Display for DropIndexStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DROP INDEX {}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::{parse_query, parse_statement};

    /// Parsing the printed form of a parsed query must give the same AST.
    fn round_trip(sql: &str) {
        let once = parse_query(sql).unwrap();
        let printed = once.to_string();
        let twice =
            parse_query(&printed).unwrap_or_else(|e| panic!("re-parse of '{printed}' failed: {e}"));
        assert_eq!(once, twice, "round trip changed the AST for {sql}");
    }

    #[test]
    fn round_trips_the_paper_queries() {
        round_trip(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        );
        round_trip(
            "select a.name, m.title from MOVIES m, CAST c, ACTOR a, DIRECTED r, DIRECTOR d, GENRE g \
             where m.id = c.mid and c.aid = a.id and m.id = r.mid and r.did = d.id \
               and m.id = g.mid and d.name = 'G. Loucas' and g.genre = 'action'",
        );
        round_trip(
            "select m.title from MOVIES m where m.id in (\
               select c.mid from CAST c where c.aid in (\
                 select a.id from ACTOR a where a.name = 'Brad Pitt'))",
        );
        round_trip(
            "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
             group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)",
        );
        round_trip(
            "select a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id \
             and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
             where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)",
        );
    }

    #[test]
    fn round_trips_other_shapes() {
        round_trip("select distinct m.title from MOVIES m order by m.year desc limit 3");
        round_trip("select * from T where a = 1 and (b = 2 or c = 3)");
        round_trip("select count(distinct m.year) from MOVIES m");
        round_trip("select m.title from MOVIES m where m.title like 'The%' and m.year between 2000 and 2005");
        round_trip("select e.name from EMP e where e.did is not null and e.sal > 100");
    }

    #[test]
    fn statements_render_readably() {
        let s = parse_statement("insert into MOVIES (id, title) values (1, 'It''s Fine')").unwrap();
        assert_eq!(
            s.to_string(),
            "INSERT INTO MOVIES (id, title) VALUES (1, 'It''s Fine')"
        );
        let s = parse_statement("update EMP set sal = sal + 1 where eid = 2").unwrap();
        assert_eq!(s.to_string(), "UPDATE EMP SET sal = sal + 1 WHERE eid = 2");
        let s = parse_statement("delete from CAST c where c.role is null").unwrap();
        assert_eq!(s.to_string(), "DELETE FROM CAST c WHERE c.role IS NULL");
        let s = parse_statement("create view V as select * from T").unwrap();
        assert_eq!(s.to_string(), "CREATE VIEW V AS SELECT * FROM T");
    }

    #[test]
    fn or_inside_and_keeps_parentheses() {
        let q = parse_query("select * from T where a = 1 and (b = 2 or c = 3)").unwrap();
        assert!(q.to_string().contains("(b = 2 OR c = 3)"));
    }
}
