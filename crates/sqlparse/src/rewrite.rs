//! Query rewrites in the service of translatability.
//!
//! Section 3.3.4 of the paper observes that the natural narration of a
//! nested query (Q5) is "almost impossible" to obtain from its original form
//! but "straightforward" from its flat equivalent (Q1), and concludes that
//! "identifying equivalent query forms … receives new life as a problem when
//! motivated by translatability principles". This module implements:
//!
//! * [`flatten_in_subqueries`] — rewrite uncorrelated `IN (SELECT …)`
//!   nesting into joins (Q5 → Q1). This is a *narration* rewrite: the
//!   translator takes the flat form's words, but the planner never executes
//!   it, because a join keeps every matching inner row where `IN` keeps the
//!   outer row once (it plans `IN` as a semi-join),
//! * [`detect_division`] — recognize the double-`NOT EXISTS` relational
//!   division idiom (Q6, "movies that have all genres"),
//! * [`normalize`] / [`equivalent_modulo_commutativity`] — canonicalize
//!   predicate order so queries that differ only by commutativity /
//!   associativity compare equal.

use crate::ast::*;

/// Try to flatten every *uncorrelated*, aggregation-free `IN (SELECT …)`
/// predicate into joins on the outer query. Returns `Some(flat)` if at least
/// one level was flattened; `None` when the query has no flattenable nesting.
/// Nothing is copied unless something flattens.
pub fn flatten_in_subqueries(query: &SelectStatement) -> Option<SelectStatement> {
    let mut current = flatten_once(query)?;
    // Repeat until fixpoint so chains like Q5 (three levels) fully flatten.
    while let Some(next) = flatten_once(&current) {
        current = next;
    }
    Some(current)
}

fn flatten_once(query: &SelectStatement) -> Option<SelectStatement> {
    let selection = query.selection.as_ref().filter(|w| w.contains_subquery())?;
    let conjuncts = selection.conjuncts();

    for (i, conjunct) in conjuncts.iter().enumerate() {
        let Expr::InSubquery {
            expr,
            subquery,
            negated: false,
        } = conjunct
        else {
            continue;
        };
        if !is_flattenable(subquery) {
            continue;
        }
        // The subquery must project exactly one column expression.
        let inner_col = match subquery.projection.as_slice() {
            [SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            }] => c.clone(),
            _ => continue,
        };
        let Expr::Column(outer_col) = expr.as_ref() else {
            continue;
        };

        // Alias collision check: bail out rather than rename (renaming would
        // change the narrative's tuple-variable names).
        let outer_vars: Vec<String> = query
            .tuple_variables()
            .iter()
            .map(|v| v.to_lowercase())
            .collect();
        if subquery
            .tuple_variables()
            .iter()
            .any(|v| outer_vars.contains(&v.to_lowercase()))
        {
            continue;
        }

        // Build the flattened query: outer FROM + inner FROM, outer WHERE
        // (minus this conjunct) + inner WHERE + the connecting equality.
        let mut flat = query.clone();
        flat.from.extend(subquery.from.clone());
        let mut new_conjuncts: Vec<Expr> = conjuncts
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, e)| (*e).clone())
            .collect();
        new_conjuncts.push(Expr::col_eq(outer_col.clone(), inner_col));
        if let Some(inner_where) = &subquery.selection {
            new_conjuncts.extend(inner_where.conjuncts().into_iter().cloned());
        }
        flat.selection = Expr::and_all(new_conjuncts);
        return Some(flat);
    }
    None
}

/// A subquery is flattenable when it is a plain SPJ block: no aggregation,
/// grouping, DISTINCT, ordering or limiting, and no correlation-sensitive
/// constructs we cannot see through (we conservatively require that every
/// qualified column reference uses one of the subquery's own tuple
/// variables).
fn is_flattenable(subquery: &SelectStatement) -> bool {
    if subquery.is_aggregate()
        || subquery.distinct
        || !subquery.order_by.is_empty()
        || subquery.limit.is_some()
    {
        return false;
    }
    let own: Vec<String> = subquery
        .tuple_variables()
        .iter()
        .map(|v| v.to_lowercase())
        .collect();
    let mut ok = true;
    for col in subquery.column_refs() {
        if let Some(q) = &col.qualifier {
            if !own.contains(&q.to_lowercase()) {
                ok = false;
            }
        }
    }
    ok
}

/// The relational-division idiom detected in a double-`NOT EXISTS` query
/// (the paper's Q6: "movies that have all genres").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivisionPattern {
    /// Tuple variable of the outer query the result ranges over (e.g. `m`).
    pub outer_alias: String,
    /// Relation of the divisor set (e.g. `GENRE` — "all genres").
    pub divisor_table: String,
    /// Tuple variable of the first (universe) NOT EXISTS block.
    pub universe_alias: String,
    /// Tuple variable of the innermost (witness) block.
    pub witness_alias: String,
}

/// Detect the `NOT EXISTS (… NOT EXISTS …)` division pattern. Both inner
/// blocks must range over the same relation and the innermost block must be
/// correlated with the outer query (so "for every divisor tuple there is a
/// witness connecting it to the outer tuple").
pub fn detect_division(query: &SelectStatement) -> Option<DivisionPattern> {
    let selection = query.selection.as_ref()?;
    for conjunct in selection.conjuncts() {
        let Expr::Exists {
            subquery: universe,
            negated: true,
        } = conjunct
        else {
            continue;
        };
        let universe_from = universe.from.first()?;
        let inner_selection = universe.selection.as_ref()?;
        for inner in inner_selection.conjuncts() {
            let Expr::Exists {
                subquery: witness,
                negated: true,
            } = inner
            else {
                continue;
            };
            let witness_from = witness.from.first()?;
            if !witness_from
                .table
                .eq_ignore_ascii_case(&universe_from.table)
            {
                continue;
            }
            // The witness block must reference a tuple variable of the outer
            // query (correlation to the dividend).
            let outer_vars: Vec<String> = query
                .tuple_variables()
                .iter()
                .map(|v| v.to_lowercase())
                .collect();
            let correlated_outer = witness.column_refs().iter().find_map(|c| {
                c.qualifier
                    .as_ref()
                    .filter(|q| outer_vars.contains(&q.to_lowercase()))
                    .cloned()
            });
            if let Some(outer_alias) = correlated_outer {
                return Some(DivisionPattern {
                    outer_alias,
                    divisor_table: universe_from.table.clone(),
                    universe_alias: universe_from.variable().to_string(),
                    witness_alias: witness_from.variable().to_string(),
                });
            }
        }
    }
    None
}

/// Canonicalize a query: WHERE and HAVING conjuncts are sorted by their
/// printed form, FROM items by variable name, and comparison operands are
/// ordered so the lexicographically smaller side comes first for symmetric
/// operators. Queries that differ only by such reorderings normalize to the
/// same AST.
pub fn normalize(query: &SelectStatement) -> SelectStatement {
    let mut q = query.clone();
    q.from.sort_by(|a, b| a.variable().cmp(b.variable()));
    q.selection = q.selection.map(|s| normalize_predicate(&s));
    q.having = q.having.map(|h| normalize_predicate(&h));
    q
}

fn normalize_predicate(expr: &Expr) -> Expr {
    let mut conjuncts: Vec<Expr> = expr
        .conjuncts()
        .into_iter()
        .map(normalize_conjunct)
        .collect();
    conjuncts.sort_by_key(|e| e.to_string());
    Expr::and_all(conjuncts).expect("at least one conjunct")
}

fn normalize_conjunct(expr: &Expr) -> Expr {
    match expr {
        Expr::BinaryOp { left, op, right } if op.is_comparison() => {
            let (l, r) = (left.to_string(), right.to_string());
            if l > r {
                // Swap operands, flipping the operator where needed.
                Expr::BinaryOp {
                    left: right.clone(),
                    op: flip(*op),
                    right: left.clone(),
                }
            } else {
                expr.clone()
            }
        }
        other => other.clone(),
    }
}

/// True when two queries are identical after [`normalize`] — i.e. they
/// differ only by predicate order, operand order of symmetric comparisons,
/// or FROM order.
pub fn equivalent_modulo_commutativity(a: &SelectStatement, b: &SelectStatement) -> bool {
    normalize(a) == normalize(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    const Q5: &str = "select m.title from MOVIES m where m.id in ( \
        select c.mid from CAST c where c.aid in ( \
            select a.id from ACTOR a where a.name = 'Brad Pitt'))";

    const Q1: &str = "select m.title from MOVIES m, CAST c, ACTOR a \
        where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'";

    #[test]
    fn q5_flattens_to_a_q1_equivalent() {
        let nested = parse_query(Q5).unwrap();
        let flat = flatten_in_subqueries(&nested).expect("Q5 is flattenable");
        assert_eq!(flat.from.len(), 3);
        assert!(!flat.has_subquery());
        let reference = parse_query(Q1).unwrap();
        assert!(
            equivalent_modulo_commutativity(&flat, &reference),
            "flattened: {flat}\nreference: {reference}"
        );
    }

    #[test]
    fn already_flat_queries_are_left_alone() {
        let q = parse_query(Q1).unwrap();
        assert!(flatten_in_subqueries(&q).is_none());
    }

    #[test]
    fn correlated_or_aggregate_subqueries_are_not_flattened() {
        // Aggregate subquery.
        let q = parse_query(
            "select m.title from MOVIES m where m.id in ( \
                select max(c.mid) from CAST c)",
        )
        .unwrap();
        assert!(flatten_in_subqueries(&q).is_none());
        // Correlated subquery (references outer alias).
        let q = parse_query(
            "select m.title from MOVIES m where m.id in ( \
                select c.mid from CAST c where c.mid = m.id)",
        )
        .unwrap();
        assert!(flatten_in_subqueries(&q).is_none());
        // NOT IN is never flattened this way.
        let q = parse_query(
            "select m.title from MOVIES m where m.id not in (select c.mid from CAST c)",
        )
        .unwrap();
        assert!(flatten_in_subqueries(&q).is_none());
    }

    #[test]
    fn alias_collisions_block_flattening() {
        let q =
            parse_query("select m.title from MOVIES m where m.id in (select m.mid from CAST m)")
                .unwrap();
        assert!(flatten_in_subqueries(&q).is_none());
    }

    #[test]
    fn division_pattern_detected_for_q6() {
        let q6 = parse_query(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g1 where not exists ( \
                    select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
        )
        .unwrap();
        let div = detect_division(&q6).expect("Q6 is a division");
        assert_eq!(div.outer_alias, "m");
        assert_eq!(div.divisor_table, "GENRE");
        assert_eq!(div.universe_alias, "g1");
        assert_eq!(div.witness_alias, "g2");
    }

    #[test]
    fn single_not_exists_is_not_a_division() {
        let q = parse_query(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g where g.mid = m.id)",
        )
        .unwrap();
        assert!(detect_division(&q).is_none());
    }

    #[test]
    fn different_inner_tables_are_not_a_division() {
        let q = parse_query(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g1 where not exists ( \
                    select * from CAST c where c.mid = m.id))",
        )
        .unwrap();
        assert!(detect_division(&q).is_none());
    }

    #[test]
    fn normalization_identifies_commutative_variants() {
        let a = parse_query(
            "select m.title from MOVIES m, CAST c where m.id = c.mid and m.year > 2000",
        )
        .unwrap();
        let b = parse_query(
            "select m.title from CAST c, MOVIES m where 2000 < m.year and c.mid = m.id",
        )
        .unwrap();
        assert!(equivalent_modulo_commutativity(&a, &b));
        let c = parse_query(
            "select m.title from MOVIES m, CAST c where m.id = c.mid and m.year > 2001",
        )
        .unwrap();
        assert!(!equivalent_modulo_commutativity(&a, &c));
    }
}
