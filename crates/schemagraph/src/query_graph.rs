//! The query graph of §3.2 (Figure 2).
//!
//! Each relation instance (tuple variable) participating in a query becomes a
//! *parameterized class* with four compartments — `<<FROM>>`, `<<SELECT>>`,
//! `<<WHERE>>`, `<<HAVING>>` — plus `<<GROUP BY>>`/`<<ORDER BY>>` notes at
//! the block level. Generic join edges connect classes; nesting edges connect
//! a block to the blocks of its subqueries (Figure 7's `NQ1`).
//!
//! Where a WHERE conjunct goes is read from the role the binder gave it
//! ([`ConjunctRole`]), which each block keeps: a join is an edge, a
//! selection or a residual a constraint in a class's `<<WHERE>>`
//! compartment, a subquery connector a nesting edge. This module decides
//! only what the binder does not: which joins are declared foreign keys.

use datastore::Catalog;
use sqlparse::ast::{Expr, SelectItem, SelectStatement};
use sqlparse::bind::{bind_query, BoundQuery, ConjunctRole};
use sqlparse::error::BindError;

/// How a nested block connects to its parent: the binder's
/// [`sqlparse::Connector`].
pub use sqlparse::bind::Connector as NestingConnector;

/// One projected attribute of a relation class (`<<SELECT>>` compartment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectAttr {
    /// Attribute name.
    pub column: String,
    /// Output alias, when the query gives one.
    pub output_alias: Option<String>,
}

/// A parameterized relation class (Figure 2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelationClass {
    /// `<<alias>>`: the tuple variable.
    pub alias: String,
    /// `<<FROM>>`: the relation name.
    pub relation: String,
    /// `<<SELECT>>`: attributes of this relation projected by the query.
    pub select: Vec<SelectAttr>,
    /// `<<WHERE>>`: unary constraints (predicates referencing only this
    /// tuple variable), rendered as SQL text.
    pub where_constraints: Vec<String>,
    /// `<<HAVING>>`: holistic constraints attributed to this class.
    pub having_constraints: Vec<String>,
}

/// A join edge between two relation classes of the same block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryJoinEdge {
    /// Index of the left class within the block.
    pub left: usize,
    /// Index of the right class within the block.
    pub right: usize,
    /// The SQL text of the join predicate (e.g. `M.id = C.mid`).
    pub predicate: String,
    /// Column on the left side.
    pub left_column: String,
    /// Column on the right side.
    pub right_column: String,
    /// True when the predicate corresponds to a declared foreign key.
    pub is_foreign_key: bool,
}

/// A nesting edge between blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestingEdge {
    pub outer_block: usize,
    pub inner_block: usize,
    pub connector: NestingConnector,
    /// True when the inner block references tuple variables of the outer
    /// block (correlation).
    pub correlated: bool,
    /// True when the connector is the whole of its conjunct (always, for a
    /// HAVING subquery). A WHERE conjunct that is more than its connector
    /// (`m.id IN (…) OR m.year = 1999`) is a constraint of its block
    /// instead, and its connector is not narrated on its own.
    pub whole: bool,
}

/// One query block: the outer query or one subquery.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryBlock {
    /// Relation classes (one per tuple variable), in FROM order.
    pub classes: Vec<RelationClass>,
    /// Join edges between classes of this block.
    pub joins: Vec<QueryJoinEdge>,
    /// `<<GROUP BY>>` note contents.
    pub group_by: Vec<String>,
    /// `<<ORDER BY>>` note contents.
    pub order_by: Vec<String>,
    /// Aggregate expressions appearing in the SELECT list (rendered).
    pub aggregates: Vec<String>,
    /// Whether the block uses aggregation at all.
    pub is_aggregate: bool,
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// The binder's role of each WHERE conjunct of the block, in
    /// [`SelectStatement::where_conjuncts`] order.
    pub roles: Vec<ConjunctRole>,
}

impl QueryBlock {
    /// Index of the class for a tuple variable.
    pub fn class_index(&self, alias: &str) -> Option<usize> {
        self.classes
            .iter()
            .position(|c| c.alias.eq_ignore_ascii_case(alias))
    }

    /// Number of distinct base relations (multi-instance queries have fewer
    /// relations than classes).
    pub fn distinct_relations(&self) -> usize {
        let mut names: Vec<String> = self
            .classes
            .iter()
            .map(|c| c.relation.to_uppercase())
            .collect();
        names.sort();
        names.dedup();
        names.len()
    }

    /// True when some relation appears under more than one tuple variable.
    pub fn has_multiple_instances(&self) -> bool {
        self.distinct_relations() < self.classes.len()
    }

    /// Join degree of each class (how many join edges touch it).
    pub fn join_degrees(&self) -> Vec<usize> {
        let mut degrees = vec![0usize; self.classes.len()];
        for j in &self.joins {
            if j.left < degrees.len() {
                degrees[j.left] += 1;
            }
            if j.right < degrees.len() {
                degrees[j.right] += 1;
            }
        }
        degrees
    }

    /// True when every join edge corresponds to a declared foreign key.
    pub fn all_joins_are_foreign_keys(&self) -> bool {
        self.joins.iter().all(|j| j.is_foreign_key)
    }

    /// The class whose `<<WHERE>>` compartment holds a conjunct of this
    /// role: a selection's own class, the first class a residual reads, the
    /// first class a subquery conjunct that is more than its connector reads
    /// (or the block's first). `None` for joins (edges), whole connectors
    /// (nesting edges) and correlations (the nesting edge's correlation).
    pub fn constrained_class(&self, role: &ConjunctRole) -> Option<usize> {
        match role {
            ConjunctRole::Selection { table, .. } => Some(*table),
            ConjunctRole::Residual { tables } => tables.first().copied(),
            ConjunctRole::Subquery {
                whole: false,
                table,
                ..
            } => table.or((!self.classes.is_empty()).then_some(0)),
            _ => None,
        }
    }

    /// The positions, in [`SelectStatement::where_conjuncts`], of the
    /// conjuncts in class `class`'s `<<WHERE>>` compartment.
    pub fn class_conjuncts(&self, class: usize) -> impl Iterator<Item = usize> + '_ {
        let roles = self.roles.iter().enumerate();
        roles.filter_map(move |(i, r)| (self.constrained_class(r) == Some(class)).then_some(i))
    }
}

/// The query graph: one block per query block plus nesting edges.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryGraph {
    pub blocks: Vec<QueryBlock>,
    pub nesting: Vec<NestingEdge>,
}

impl QueryGraph {
    /// The outer (root) block.
    pub fn root(&self) -> &QueryBlock {
        &self.blocks[0]
    }

    /// Build the query graph for a bound query.
    pub fn build(catalog: &Catalog, query: &SelectStatement, bound: &BoundQuery) -> QueryGraph {
        let mut graph = QueryGraph::default();
        build_block(catalog, query, bound, &mut graph);
        graph
    }

    /// Parse-free convenience: bind and build in one step.
    pub fn from_query(catalog: &Catalog, query: &SelectStatement) -> Result<QueryGraph, BindError> {
        let bound = bind_query(catalog, query)?;
        Ok(QueryGraph::build(catalog, query, &bound))
    }
}

/// Recursively build blocks; returns the index of the block created for
/// `query`.
fn build_block(
    catalog: &Catalog,
    query: &SelectStatement,
    bound: &BoundQuery,
    graph: &mut QueryGraph,
) -> usize {
    let mut block = QueryBlock {
        distinct: query.distinct,
        is_aggregate: query.is_aggregate(),
        ..QueryBlock::default()
    };

    // 1. One class per tuple variable.
    for table in &bound.tables {
        block.classes.push(RelationClass {
            alias: table.alias.clone(),
            relation: table.table.clone(),
            ..RelationClass::default()
        });
    }

    // 2. SELECT compartments and block-level aggregates.
    for item in &query.projection {
        match item {
            SelectItem::Expr {
                expr: Expr::Column(col),
                alias,
            } => {
                if let Some(owner) = bound.qualifier_of(col) {
                    if let Some(idx) = block.class_index(owner) {
                        block.classes[idx].select.push(SelectAttr {
                            column: col.column.clone(),
                            output_alias: alias.clone(),
                        });
                    }
                }
            }
            SelectItem::Expr { expr, .. } if expr.contains_aggregate() => {
                block.aggregates.push(expr.to_string());
            }
            SelectItem::QualifiedWildcard(q) => {
                if let Some(idx) = block.class_index(q) {
                    block.classes[idx].select.push(SelectAttr {
                        column: "*".to_string(),
                        output_alias: None,
                    });
                }
            }
            _ => {}
        }
    }

    // 3. WHERE, each conjunct where its role says: joins become edges,
    //    selections and residuals constraints of a class; subquery
    //    connectors are the nesting edges built below.
    let conjuncts = query.where_conjuncts();
    block.roles = bound.roles.clone();
    for (conjunct, role) in conjuncts.iter().zip(&bound.roles) {
        if let ConjunctRole::Join { left, right, .. } = *role {
            let (l, r) = role.columns(conjunct).expect("a join equates two columns");
            let is_foreign_key = is_foreign_key(
                catalog,
                (&block.classes[left].relation, &l.column),
                (&block.classes[right].relation, &r.column),
            );
            block.joins.push(QueryJoinEdge {
                left,
                right,
                predicate: conjunct.to_string(),
                left_column: l.column.clone(),
                right_column: r.column.clone(),
                is_foreign_key,
            });
        } else if let Some(class) = block.constrained_class(role) {
            let constraint = conjunct.to_string();
            block.classes[class].where_constraints.push(constraint);
        }
    }

    // 4. GROUP BY / ORDER BY / HAVING.
    for g in &query.group_by {
        block.group_by.push(g.to_string());
    }
    for o in &query.order_by {
        block.order_by.push(format!(
            "{}{}",
            o.expr,
            if o.ascending { "" } else { " DESC" }
        ));
    }
    if let Some(h) = &query.having {
        for conjunct in h.conjuncts() {
            let refs = conjunct.column_refs();
            let owner = refs
                .iter()
                .find_map(|c| bound.qualifier_of(c))
                .and_then(|alias| block.class_index(alias));
            let rendered = conjunct.to_string();
            match owner {
                Some(idx) => block.classes[idx].having_constraints.push(rendered),
                None => {
                    if let Some(first) = block.classes.first_mut() {
                        first.having_constraints.push(rendered);
                    }
                }
            }
        }
    }

    let block_index = graph.blocks.len();
    graph.blocks.push(block);

    // 5. Nesting edges: subqueries of WHERE and HAVING, in the order the
    //    binder bound them, each connected as it says.
    let mut subqueries: Vec<(&SelectStatement, bool)> = Vec::new();
    for (conjunct, role) in conjuncts.iter().zip(&bound.roles) {
        if let ConjunctRole::Subquery { whole, .. } = *role {
            subqueries.extend(conjunct.subqueries().into_iter().map(|sub| (sub, whole)));
        }
    }
    if let Some(having) = &query.having {
        subqueries.extend(having.subqueries().into_iter().map(|sub| (sub, true)));
    }
    for ((sub, whole), sub_bound) in subqueries.into_iter().zip(&bound.subqueries) {
        let inner_index = build_block(catalog, sub, sub_bound, graph);
        graph.nesting.push(NestingEdge {
            outer_block: block_index,
            inner_block: inner_index,
            connector: sub_bound
                .connector
                .clone()
                .expect("a bound subquery has a connector"),
            correlated: sub_bound.is_correlated(),
            whole,
        });
    }
    block_index
}

/// Whether `left = right`, each a (relation, column), is a declared foreign
/// key, either way round.
fn is_foreign_key(catalog: &Catalog, left: (&str, &str), right: (&str, &str)) -> bool {
    let named = |names: &[String], name: &str| names.iter().any(|n| n.eq_ignore_ascii_case(name));
    let refers = |(table, column): (&str, &str), (ref_table, ref_column): (&str, &str)| {
        catalog.foreign_keys().iter().any(|fk| {
            fk.table.eq_ignore_ascii_case(table)
                && fk.ref_table.eq_ignore_ascii_case(ref_table)
                && named(&fk.columns, column)
                && named(&fk.ref_columns, ref_column)
        })
    };
    refers(left, right) || refers(right, left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::sample::movie_database;
    use sqlparse::parse_query;

    fn graph_for(sql: &str) -> QueryGraph {
        let db = movie_database();
        let q = parse_query(sql).unwrap();
        QueryGraph::from_query(db.catalog(), &q).unwrap()
    }

    #[test]
    fn q1_builds_a_three_class_path_block() {
        let g = graph_for(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        );
        assert_eq!(g.blocks.len(), 1);
        let b = g.root();
        assert_eq!(b.classes.len(), 3);
        assert_eq!(b.joins.len(), 2);
        assert!(b.all_joins_are_foreign_keys());
        // The selection constant lands in ACTOR's WHERE compartment.
        let a = &b.classes[b.class_index("a").unwrap()];
        assert_eq!(a.where_constraints, vec!["a.name = 'Brad Pitt'"]);
        // The projection lands in MOVIES' SELECT compartment.
        let m = &b.classes[b.class_index("m").unwrap()];
        assert_eq!(m.select.len(), 1);
        assert_eq!(m.select[0].column, "title");
        assert!(!b.has_multiple_instances());
    }

    #[test]
    fn q3_has_multiple_instances_and_a_non_fk_join_constraint() {
        let g = graph_for(
            "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
             where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
               and a1.id > a2.id",
        );
        let b = g.root();
        assert_eq!(b.classes.len(), 5);
        assert_eq!(b.distinct_relations(), 3);
        assert!(b.has_multiple_instances());
        assert_eq!(b.joins.len(), 4);
        // `a1.id > a2.id` is not an equi-join, so it becomes a constraint
        // attached to a class, not a join edge.
        let constrained: usize = b.classes.iter().map(|c| c.where_constraints.len()).sum();
        assert_eq!(constrained, 1);
    }

    #[test]
    fn q4_cyclic_query_has_non_fk_join() {
        let g = graph_for(
            "select m.title from MOVIES m, CAST c where m.id = c.mid and c.role = m.title",
        );
        let b = g.root();
        assert_eq!(b.joins.len(), 2);
        assert!(!b.all_joins_are_foreign_keys());
        assert!(b.joins.iter().any(|j| j.is_foreign_key));
    }

    #[test]
    fn q5_nested_query_builds_three_blocks() {
        let g = graph_for(
            "select m.title from MOVIES m where m.id in ( \
                select c.mid from CAST c where c.aid in ( \
                    select a.id from ACTOR a where a.name = 'Brad Pitt'))",
        );
        assert_eq!(g.blocks.len(), 3);
        assert_eq!(g.nesting.len(), 2);
        let mut edges: Vec<_> = g
            .nesting
            .iter()
            .map(|e| (e.outer_block, e.inner_block))
            .collect();
        edges.sort_unstable();
        assert_eq!(edges, [(0, 1), (1, 2)]);
        assert!(matches!(
            g.nesting[0].connector,
            NestingConnector::In { negated: false }
        ));
        assert!(!g.nesting[0].correlated);
    }

    #[test]
    fn q6_not_exists_nesting_is_correlated() {
        let g = graph_for(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g1 where not exists ( \
                    select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
        );
        assert_eq!(g.blocks.len(), 3);
        assert!(g
            .nesting
            .iter()
            .all(|e| matches!(e.connector, NestingConnector::Exists { negated: true })));
        // The innermost block references both enclosing blocks.
        assert!(g.nesting.iter().any(|e| e.correlated));
    }

    #[test]
    fn q7_aggregate_block_records_group_by_and_scalar_nesting() {
        let g = graph_for(
            "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
             group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)",
        );
        assert_eq!(g.blocks.len(), 2);
        let b = g.root();
        assert!(b.is_aggregate);
        assert_eq!(b.group_by, vec!["m.id", "m.title"]);
        assert_eq!(b.aggregates, vec!["count(*)"]);
        assert!(matches!(g.nesting[0].connector, NestingConnector::Scalar));
        assert!(g.nesting[0].correlated);
    }

    #[test]
    fn q9_quantified_connector_label() {
        let g = graph_for(
            "select a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id \
             and m.year <= all (select m1.year from MOVIES m1, MOVIES m2 \
             where m1.title = m.title and m2.title = m.title and m1.id <> m2.id)",
        );
        assert_eq!(g.blocks.len(), 2);
        let edge = &g.nesting[0];
        assert_eq!(crate::dot::connector_label(&edge.connector), "<= ALL");
        assert!(edge.correlated);
        assert!(g.blocks[1].has_multiple_instances());
    }

    #[test]
    fn class_counts_and_order_by() {
        let g = graph_for(
            "select m.title from MOVIES m, GENRE g where m.id = g.mid order by m.year desc",
        );
        assert_eq!(g.root().classes.len(), 2);
        assert_eq!(g.root().order_by, vec!["m.year DESC"]);
    }
}
