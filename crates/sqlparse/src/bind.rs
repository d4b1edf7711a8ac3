//! Binding (name resolution) of parsed queries against a catalog.
//!
//! The query-graph construction of §3.2 needs to know, for every column
//! reference, which tuple variable (relation instance) it belongs to, and
//! whether a reference inside a subquery is *correlated* — i.e. refers to a
//! tuple variable of an enclosing query, which becomes a nesting edge in the
//! query graph.

use crate::ast::{ColumnRef, Expr, SelectStatement};
use crate::error::BindError;
use datastore::Catalog;

/// A tuple variable bound to a base relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundTable {
    /// The variable name used in the query (explicit alias or table name).
    pub alias: String,
    /// The catalog relation it ranges over (catalog spelling).
    pub table: String,
}

/// The result of binding one query block (and, recursively, its subqueries).
#[derive(Debug, Clone, Default)]
pub struct BoundQuery {
    /// Tuple variables introduced by this block's FROM clause, in order.
    pub tables: Vec<BoundTable>,
    /// Resolution of column references appearing directly in this block,
    /// once per reference: the reference as written (lower-cased
    /// `qualifier.column` or `column`), and the alias of the tuple variable
    /// it resolves to.
    pub resolutions: Vec<(String, String)>,
    /// References in this block that resolve to a tuple variable of an
    /// enclosing block (correlation), as written.
    pub correlated: Vec<ColumnRef>,
    /// Bound subqueries of this block (WHERE and HAVING), in discovery
    /// order.
    pub subqueries: Vec<BoundQuery>,
}

impl BoundQuery {
    /// The alias a column reference resolved to, if it was bound locally.
    pub fn qualifier_of(&self, col: &ColumnRef) -> Option<&str> {
        self.resolutions
            .iter()
            .find(|(key, _)| files_under(key, col))
            .map(|(_, alias)| alias.as_str())
    }

    /// The relation a tuple variable ranges over.
    pub fn table_of_alias(&self, alias: &str) -> Option<&str> {
        self.tables
            .iter()
            .find(|t| t.alias.eq_ignore_ascii_case(alias))
            .map(|t| t.table.as_str())
    }

    /// True when this block or any nested block has a correlated reference.
    pub fn is_correlated(&self) -> bool {
        !self.correlated.is_empty() || self.subqueries.iter().any(BoundQuery::is_correlated)
    }

    /// Total number of query blocks (this one plus nested ones).
    pub fn block_count(&self) -> usize {
        1 + self
            .subqueries
            .iter()
            .map(BoundQuery::block_count)
            .sum::<usize>()
    }
}

/// File `col` in `resolutions` as resolved to `alias`, unless it is filed
/// already.
fn resolve(resolutions: &mut Vec<(String, String)>, col: &ColumnRef, alias: &str) {
    if !resolutions.iter().any(|(key, _)| files_under(key, col)) {
        resolutions.push((ref_key(col), alias.to_string()));
    }
}

/// How a reference is filed in [`BoundQuery::resolutions`]:
/// `qualifier.column` or `column`, lower-cased.
fn ref_key(col: &ColumnRef) -> String {
    if !is_ascii(col) {
        return match &col.qualifier {
            Some(q) => format!("{}.{}", q.to_lowercase(), col.column.to_lowercase()),
            None => col.column.to_lowercase(),
        };
    }
    let qualifier_len = col.qualifier.as_ref().map_or(0, |q| q.len() + 1);
    let mut key = String::with_capacity(qualifier_len + col.column.len());
    if let Some(q) = &col.qualifier {
        key.push_str(q);
        key.push('.');
    }
    key.push_str(&col.column);
    key.make_ascii_lowercase();
    key
}

/// `key == ref_key(col)`, compared where the names lie when they are ASCII
/// (a key holds no ASCII upper case, so ASCII folding is exact there).
fn files_under(key: &str, col: &ColumnRef) -> bool {
    if !is_ascii(col) {
        return key == ref_key(col);
    }
    let column = match &col.qualifier {
        None => key,
        Some(q) => {
            let rest = key.get(q.len()..).and_then(|rest| rest.strip_prefix('.'));
            match (key.get(..q.len()), rest) {
                (Some(head), Some(column)) if head.eq_ignore_ascii_case(q) => column,
                _ => return false,
            }
        }
    };
    column.eq_ignore_ascii_case(&col.column)
}

fn is_ascii(col: &ColumnRef) -> bool {
    col.column.is_ascii() && col.qualifier.as_deref().is_none_or(str::is_ascii)
}

/// Bind a query against a catalog.
pub fn bind_query(catalog: &Catalog, query: &SelectStatement) -> Result<BoundQuery, BindError> {
    bind_with_outer(catalog, query, &[])
}

/// Bind a subquery with the enclosing blocks in scope, outermost first.
/// The planner's decorrelation pass uses this to (re-)bind a subquery block
/// on its own — e.g. after stripping the correlated equality conjuncts it
/// turned into semi-join keys — while references to enclosing tuple
/// variables still resolve (and are recorded as correlated).
pub fn bind_subquery(
    catalog: &Catalog,
    query: &SelectStatement,
    outer: &[&BoundQuery],
) -> Result<BoundQuery, BindError> {
    bind_with_outer(catalog, query, outer)
}

fn bind_with_outer(
    catalog: &Catalog,
    query: &SelectStatement,
    outer: &[&BoundQuery],
) -> Result<BoundQuery, BindError> {
    let mut bound = BoundQuery::default();

    // 1. FROM clause: every table must exist and aliases must be unique.
    for table_ref in &query.from {
        let Some(schema) = catalog.table(&table_ref.table) else {
            return Err(BindError::UnknownTable {
                table: table_ref.table.clone(),
            });
        };
        let alias = table_ref.variable();
        if bound
            .tables
            .iter()
            .any(|t| t.alias.eq_ignore_ascii_case(alias))
        {
            return Err(BindError::DuplicateAlias {
                alias: alias.to_string(),
            });
        }
        bound.tables.push(BoundTable {
            alias: alias.to_string(),
            table: schema.name.clone(),
        });
    }

    // 2. Column references at this level.
    for col in query.column_refs() {
        resolve_column(catalog, col, &mut bound, outer)?;
    }

    // 3. Subqueries in WHERE and HAVING, bound with this block in scope.
    let mut scopes: Vec<&BoundQuery> = Vec::with_capacity(outer.len() + 1);
    scopes.extend(outer);
    scopes.push(&bound);
    let mut subqueries = Vec::new();
    for predicate in [&query.selection, &query.having].into_iter().flatten() {
        for sub in predicate.subqueries() {
            subqueries.push(bind_with_outer(catalog, sub, &scopes)?);
        }
    }
    bound.subqueries = subqueries;
    Ok(bound)
}

fn resolve_column(
    catalog: &Catalog,
    col: &ColumnRef,
    bound: &mut BoundQuery,
    outer: &[&BoundQuery],
) -> Result<(), BindError> {
    match &col.qualifier {
        Some(q) => {
            // Qualified: the qualifier must be a tuple variable in this block
            // or an enclosing one.
            if let Some(local) = bound
                .tables
                .iter()
                .find(|t| t.alias.eq_ignore_ascii_case(q))
            {
                check_column_exists(catalog, &local.table, col)?;
                resolve(&mut bound.resolutions, col, &local.alias);
                return Ok(());
            }
            for scope in outer.iter().rev() {
                if let Some(t) = scope
                    .tables
                    .iter()
                    .find(|t| t.alias.eq_ignore_ascii_case(q))
                {
                    check_column_exists(catalog, &t.table, col)?;
                    bound.correlated.push(col.clone());
                    resolve(&mut bound.resolutions, col, &t.alias);
                    return Ok(());
                }
            }
            Err(BindError::UnknownAlias { alias: q.clone() })
        }
        None => {
            // Unqualified: must match exactly one relation in this block,
            // otherwise look outward.
            let local_matches: Vec<&BoundTable> = bound
                .tables
                .iter()
                .filter(|t| {
                    catalog
                        .table(&t.table)
                        .map(|schema| schema.has_column(&col.column))
                        .unwrap_or(false)
                })
                .collect();
            match local_matches.len() {
                1 => {
                    resolve(&mut bound.resolutions, col, &local_matches[0].alias);
                    Ok(())
                }
                0 => {
                    for scope in outer.iter().rev() {
                        let outer_matches: Vec<&BoundTable> = scope
                            .tables
                            .iter()
                            .filter(|t| {
                                catalog
                                    .table(&t.table)
                                    .map(|schema| schema.has_column(&col.column))
                                    .unwrap_or(false)
                            })
                            .collect();
                        if outer_matches.len() == 1 {
                            bound.correlated.push(col.clone());
                            resolve(&mut bound.resolutions, col, &outer_matches[0].alias);
                            return Ok(());
                        }
                        if outer_matches.len() > 1 {
                            return Err(BindError::AmbiguousColumn {
                                column: col.column.clone(),
                                candidates: outer_matches.iter().map(|t| t.table.clone()).collect(),
                            });
                        }
                    }
                    Err(BindError::UnresolvedColumn {
                        column: col.column.clone(),
                    })
                }
                _ => Err(BindError::AmbiguousColumn {
                    column: col.column.clone(),
                    candidates: local_matches.iter().map(|t| t.table.clone()).collect(),
                }),
            }
        }
    }
}

fn check_column_exists(catalog: &Catalog, table: &str, col: &ColumnRef) -> Result<(), BindError> {
    let schema = catalog
        .table(table)
        .ok_or_else(|| BindError::UnknownTable {
            table: table.to_string(),
        })?;
    if schema.has_column(&col.column) {
        Ok(())
    } else {
        Err(BindError::UnknownColumn {
            qualifier: table.to_string(),
            column: col.column.clone(),
        })
    }
}

/// Convenience: the join predicates of a bound query, as pairs of
/// (alias, column) endpoints. Only equality predicates between two different
/// tuple variables count, mirroring the join edges of the query graph.
pub fn join_edges(query: &SelectStatement, bound: &BoundQuery) -> Vec<JoinEdge> {
    let mut out = Vec::new();
    for conjunct in query.where_conjuncts() {
        if let Some((l, r)) = conjunct.as_join_predicate() {
            let left_alias = bound
                .qualifier_of(l)
                .unwrap_or(l.qualifier.as_deref().unwrap_or(""))
                .to_string();
            let right_alias = bound
                .qualifier_of(r)
                .unwrap_or(r.qualifier.as_deref().unwrap_or(""))
                .to_string();
            out.push(JoinEdge {
                left_alias,
                left_column: l.column.clone(),
                right_alias,
                right_column: r.column.clone(),
                predicate: conjunct.clone(),
            });
        }
    }
    out
}

/// An equi-join between two tuple variables, extracted from the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge {
    pub left_alias: String,
    pub left_column: String,
    pub right_alias: String,
    pub right_column: String,
    /// The original predicate expression.
    pub predicate: Expr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use datastore::sample::movie_database;

    fn catalog() -> Catalog {
        movie_database().catalog().clone()
    }

    #[test]
    fn binds_q1_and_extracts_join_edges() {
        let q = parse_query(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
        )
        .unwrap();
        let b = bind_query(&catalog(), &q).unwrap();
        assert_eq!(b.tables.len(), 3);
        assert_eq!(b.table_of_alias("c"), Some("CAST"));
        assert_eq!(
            b.qualifier_of(&ColumnRef::qualified("a", "name")),
            Some("a")
        );
        assert!(!b.is_correlated());
        let joins = join_edges(&q, &b);
        assert_eq!(joins.len(), 2);
        assert_eq!(joins[0].left_alias, "m");
        assert_eq!(joins[0].right_alias, "c");
    }

    #[test]
    fn a_reference_is_found_exactly_when_its_lower_cased_key_matches() {
        let refs = [
            ColumnRef::qualified("m", "title"),
            ColumnRef::qualified("M", "Title"),
            ColumnRef::qualified("m", "titles"),
            ColumnRef::qualified("m.t", "itle"),
            ColumnRef::bare("m.title"),
            ColumnRef::bare("TITLE"),
            ColumnRef::qualified("Été", "Σ"),
            ColumnRef::qualified("ÉTÉ", "σ"),
        ];
        for a in &refs {
            for b in &refs {
                let key = ref_key(a);
                assert_eq!(files_under(&key, b), key == ref_key(b), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn unknown_table_and_column_are_reported() {
        let q = parse_query("select x.title from NOPE x").unwrap();
        assert!(matches!(
            bind_query(&catalog(), &q).unwrap_err(),
            BindError::UnknownTable { .. }
        ));
        let q = parse_query("select m.budget from MOVIES m").unwrap();
        assert!(matches!(
            bind_query(&catalog(), &q).unwrap_err(),
            BindError::UnknownColumn { .. }
        ));
        let q = parse_query("select z.title from MOVIES m").unwrap();
        assert!(matches!(
            bind_query(&catalog(), &q).unwrap_err(),
            BindError::UnknownAlias { .. }
        ));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let q = parse_query("select m.title from MOVIES m, CAST m").unwrap();
        assert!(matches!(
            bind_query(&catalog(), &q).unwrap_err(),
            BindError::DuplicateAlias { .. }
        ));
    }

    #[test]
    fn unqualified_columns_resolve_when_unambiguous() {
        let q = parse_query("select title from MOVIES m where year > 2000").unwrap();
        let b = bind_query(&catalog(), &q).unwrap();
        assert_eq!(b.qualifier_of(&ColumnRef::bare("title")), Some("m"));
        // "name" exists on both ACTOR and DIRECTOR.
        let q = parse_query("select name from ACTOR a, DIRECTOR d").unwrap();
        assert!(matches!(
            bind_query(&catalog(), &q).unwrap_err(),
            BindError::AmbiguousColumn { .. }
        ));
        let q = parse_query("select nothing_anywhere from MOVIES m").unwrap();
        assert!(matches!(
            bind_query(&catalog(), &q).unwrap_err(),
            BindError::UnresolvedColumn { .. }
        ));
    }

    #[test]
    fn correlated_subqueries_are_detected() {
        let q = parse_query(
            "select m.title from MOVIES m where not exists ( \
                select * from GENRE g where g.mid = m.id)",
        )
        .unwrap();
        let b = bind_query(&catalog(), &q).unwrap();
        assert_eq!(b.subqueries.len(), 1);
        assert!(b.subqueries[0].is_correlated());
        assert!(b.is_correlated());
        assert_eq!(b.block_count(), 2);
    }

    #[test]
    fn deeply_nested_blocks_bind() {
        let q = parse_query(
            "select m.title from MOVIES m where m.id in ( \
                select c.mid from CAST c where c.aid in ( \
                    select a.id from ACTOR a where a.name = 'Brad Pitt'))",
        )
        .unwrap();
        let b = bind_query(&catalog(), &q).unwrap();
        assert_eq!(b.block_count(), 3);
        assert!(!b.subqueries[0].subqueries[0].is_correlated());
    }

    #[test]
    fn having_subqueries_are_bound() {
        let q = parse_query(
            "select m.id, m.title, count(*) from MOVIES m, CAST c where m.id = c.mid \
             group by m.id, m.title having 1 < (select count(*) from GENRE g where g.mid = m.id)",
        )
        .unwrap();
        let b = bind_query(&catalog(), &q).unwrap();
        assert_eq!(b.subqueries.len(), 1);
        assert!(b.subqueries[0].is_correlated());
    }

    #[test]
    fn multiple_instances_of_one_relation_bind_separately() {
        let q = parse_query(
            "select a1.name, a2.name from MOVIES m, CAST c1, ACTOR a1, CAST c2, ACTOR a2 \
             where m.id = c1.mid and c1.aid = a1.id and m.id = c2.mid and c2.aid = a2.id \
               and a1.id > a2.id",
        )
        .unwrap();
        let b = bind_query(&catalog(), &q).unwrap();
        assert_eq!(b.tables.len(), 5);
        assert_eq!(b.table_of_alias("a1"), Some("ACTOR"));
        assert_eq!(b.table_of_alias("a2"), Some("ACTOR"));
        assert_eq!(join_edges(&q, &b).len(), 4);
    }
}
