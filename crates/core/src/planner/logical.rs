//! Logical query representation: the join graph.
//!
//! Before any physical operator is chosen, the WHERE clause is decomposed
//! into a graph over the FROM relations. What each conjunct is, the binder
//! has decided ([`sqlparse::ConjunctRole`]); this module only reads it:
//!
//! * an **edge** — a join `a.x = b.y` between two of this block's relations
//!   whose columns have the same declared type;
//! * a **selection** — every column it reads is one relation R's or an
//!   enclosing block's (a *correlated* selection: `m1.title = m.title`,
//!   `c.mid + 0 = m.id`, `a.id < m.id` inside a subquery over `m`). It is
//!   *pushed* onto R: estimated with R ([`super::cost::Estimator`] prices an
//!   equality at 1/NDV), lowered directly above R's scan with the outer
//!   column as a correlation parameter, and offered to access-path selection
//!   as a parameterized sarg. Under an `Apply` the outer column is a constant
//!   for the length of one evaluation, which is all a selection needs. Two
//!   columns of one relation (`m.year = M.id`) are a selection too;
//! * a **residual** — anything else (cross-relation non-equi predicates,
//!   OR-connected multi-relation predicates, mixed-type equalities,
//!   predicates over enclosing blocks only …), applied above all joins.
//!
//! A conjunct holding a subquery is the subquery pass's
//! ([`super::subquery`]). The cost-based enumerator walks this graph to pick
//! a join order; the physical layer lowers the chosen order to operators.

use sqlparse::ast::{flip, BinaryOperator, ColumnRef, Expr, SelectStatement};
use sqlparse::bind::{BoundQuery, ConjunctRole};

/// One FROM relation with the predicates pushed down onto its scan.
#[derive(Debug, Clone)]
pub struct Relation {
    /// Tuple variable (alias) the query refers to the relation by.
    pub alias: String,
    /// Stored table name.
    pub table: String,
    /// Selections evaluated directly above this relation's scan (one filter
    /// operator per conjunct, so instrumentation can blame an individual
    /// condition). In a correlated selection every column reference carries
    /// its resolved qualifier — see [`Relation::is_outer`].
    pub pushed: Vec<Expr>,
}

impl Relation {
    /// Whether `c`, a reference inside one of [`Relation::pushed`], is an
    /// enclosing block's column rather than this relation's own.
    pub fn is_outer(&self, c: &ColumnRef) -> bool {
        c.qualifier
            .as_deref()
            .is_some_and(|q| !q.eq_ignore_ascii_case(&self.alias))
    }

    /// `own <op> outer`: a pushed conjunct that compares one of this
    /// relation's columns with an enclosing block's, as (own column, operator
    /// with the own column on the left, outer column).
    pub(super) fn as_correlated_comparison<'e>(
        &self,
        conjunct: &'e Expr,
    ) -> Option<(&'e ColumnRef, BinaryOperator, &'e ColumnRef)> {
        let Expr::BinaryOp { left, op, right } = conjunct else {
            return None;
        };
        let (Expr::Column(l), Expr::Column(r)) = (left.as_ref(), right.as_ref()) else {
            return None;
        };
        match (op.is_comparison(), self.is_outer(l), self.is_outer(r)) {
            (true, false, true) => Some((l, *op, r)),
            (true, true, false) => Some((r, flip(*op), l)),
            _ => None,
        }
    }
}

/// A hash-joinable equi-join conjunct `left.column = right.column` between
/// two different relations. Only conjuncts whose two columns have the same
/// declared type become edges; mixed-type equalities stay residual. The hash
/// operators compare keys by SQL `=` (`Integer(3)` meets `Float(3.0)`), so
/// the answer is the same either way: the guard pins the plan, and the trees
/// and narrations made from it.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    /// Index into [`JoinGraph::relations`] of the left column's relation.
    pub left_rel: usize,
    /// Index into [`JoinGraph::relations`] of the right column's relation.
    pub right_rel: usize,
    pub left_column: String,
    pub right_column: String,
}

impl JoinEdge {
    /// The edge oriented from the perspective of joining `rel` into the
    /// tree: (far relation already joined, far column, `rel`'s own column).
    /// The single definition both the estimator and the physical lowering
    /// use, so hash-join keys always match the costed edge.
    pub fn oriented_for(&self, rel: usize) -> (usize, &str, &str) {
        if self.right_rel == rel {
            (self.left_rel, &self.left_column, &self.right_column)
        } else {
            (self.right_rel, &self.right_column, &self.left_column)
        }
    }
}

/// The decomposed WHERE clause over the FROM relations.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// FROM relations, in the order the query wrote them.
    pub relations: Vec<Relation>,
    /// Equi-join edges between relations.
    pub edges: Vec<JoinEdge>,
    /// Conjuncts that are neither selections nor hash-joinable
    /// (cross-variable non-equi predicates, OR-connected multi-table
    /// predicates, mixed-type equalities, unresolvable names …).
    pub residual: Vec<Expr>,
}

impl JoinGraph {
    /// Indices of the edges that connect `rel` to any relation marked in
    /// `joined` — the edges a left-deep join step on `rel` would consume.
    pub fn connecting_edges(&self, joined: &[bool], rel: usize) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                (e.right_rel == rel && joined[e.left_rel])
                    || (e.left_rel == rel && joined[e.right_rel])
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// The alias (tuple variable) a column reference belongs to, using the
/// explicit qualifier or the binder's resolution for unqualified names.
pub fn ref_alias<'a>(c: &'a ColumnRef, bound: &'a BoundQuery) -> Option<&'a str> {
    c.qualifier.as_deref().or_else(|| bound.qualifier_of(c))
}

/// Decompose a query's WHERE clause into a [`JoinGraph`]: each conjunct
/// goes where its role ([`BoundQuery::roles`]) says. `query` is the
/// statement `bound` was bound from.
pub fn build_join_graph(query: &SelectStatement, bound: &BoundQuery) -> JoinGraph {
    let mut relations: Vec<Relation> = bound
        .tables
        .iter()
        .map(|t| Relation {
            alias: t.alias.clone(),
            table: t.table.clone(),
            pushed: Vec::new(),
        })
        .collect();
    let mut edges = Vec::new();
    let mut residual = Vec::new();

    for (conjunct, role) in bound.conjuncts(query) {
        let (table, correlated) = match *role {
            ConjunctRole::Join {
                left,
                right,
                same_type: true,
            } => {
                let (l, r) = role.columns(conjunct).expect("a join equates two columns");
                edges.push(JoinEdge {
                    left_rel: left,
                    right_rel: right,
                    left_column: l.column.clone(),
                    right_column: r.column.clone(),
                });
                continue;
            }
            ConjunctRole::Selection { table, correlated } => (table, correlated),
            ConjunctRole::Correlation { table, .. } => (table, true),
            ConjunctRole::Subquery { .. } => continue,
            ConjunctRole::Join { .. } | ConjunctRole::Residual { .. } => {
                residual.push(conjunct.clone());
                continue;
            }
        };
        let mut pushed = conjunct.clone();
        if correlated {
            // What tells an enclosing block's column from the relation's
            // own, everywhere below, is its qualifier.
            pushed.column_refs_mut(&mut |c| c.qualifier = ref_alias(c, bound).map(str::to_string));
        }
        relations[table].pushed.push(pushed);
    }
    JoinGraph {
        relations,
        edges,
        residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::movie_database;
    use sqlparse::{bind_query, parse_query};

    fn graph_for(sql: &str) -> JoinGraph {
        let db = movie_database();
        let q = parse_query(sql).unwrap();
        let bound = bind_query(db.catalog(), &q).unwrap();
        build_join_graph(&q, &bound)
    }

    #[test]
    fn equi_joins_become_edges_and_selections_are_pushed() {
        let g = graph_for(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        );
        assert_eq!(g.relations.len(), 3);
        assert_eq!(g.edges.len(), 2);
        assert!(g.residual.is_empty());
        let actor = g
            .relations
            .iter()
            .find(|r| r.table.eq_ignore_ascii_case("ACTOR"))
            .unwrap();
        assert_eq!(actor.pushed.len(), 1);
    }

    #[test]
    fn cross_variable_inequality_is_residual() {
        let g = graph_for(
            "select a1.name from CAST c1, ACTOR a1, ACTOR a2 \
             where c1.aid = a1.id and a1.id > a2.id",
        );
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.residual.len(), 1);
    }

    #[test]
    fn double_edge_between_one_pair_is_kept_as_two_edges() {
        let g = graph_for(
            "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
        );
        assert_eq!(g.edges.len(), 2, "both equalities are typed edges");
        assert!(g.residual.is_empty());
    }

    #[test]
    fn case_twisted_self_equality_is_a_selection_not_a_self_edge() {
        // `m.year = M.id` equates two columns of one relation, however its
        // qualifiers are spelled: a selection pushed onto it, as
        // `m.year = m.id` is, never an unconsumable self-edge.
        for sql in [
            "select m.title from MOVIES m where m.year = M.id",
            "select m.title from MOVIES m where m.year = m.id",
        ] {
            let g = graph_for(sql);
            assert!(g.edges.is_empty() && g.residual.is_empty(), "{sql}");
            assert_eq!(g.relations[0].pushed.len(), 1, "{sql}");
        }
    }

    #[test]
    fn unqualified_join_columns_are_edges() {
        let g = graph_for(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = mid and aid = a.id and name = 'Brad Pitt'",
        );
        assert_eq!(g.edges.len(), 2);
        assert!(g.residual.is_empty());
        assert_eq!(g.relations[2].pushed.len(), 1);
    }

    #[test]
    fn connecting_edges_finds_consumable_edges() {
        let g = graph_for(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id",
        );
        // With only MOVIES joined, CAST connects via one edge and ACTOR not
        // at all.
        let joined = vec![true, false, false];
        assert_eq!(g.connecting_edges(&joined, 1).len(), 1);
        assert!(g.connecting_edges(&joined, 2).is_empty());
        // With MOVIES and CAST joined, ACTOR connects.
        let joined = vec![true, true, false];
        assert_eq!(g.connecting_edges(&joined, 2).len(), 1);
    }
}
