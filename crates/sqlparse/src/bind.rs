//! Binding (name resolution) of parsed queries against a catalog, and the
//! one decision of what each WHERE conjunct does.
//!
//! The binder finds, for every column reference, the tuple variable
//! (relation instance) it belongs to, and whether it is *correlated* — a
//! tuple variable of an enclosing block, which becomes a nesting edge of the
//! query graph of §3.2 and a correlation value of the planner. With those
//! resolutions it files every conjunct of a block's WHERE clause once, as a
//! [`ConjunctRole`]: a join, a selection, a correlation, a residual or a
//! subquery connector. `mid`, `M.id` and `m.id` file alike, since the role
//! is read from the resolutions, never from the qualifiers as written. The
//! planner's join graph, its subquery pass, the query graph, the declarative
//! translator and the index advisor read the roles; none of them decides
//! again. The binder renders no text and looks up no foreign keys.

use crate::ast::{BinaryOperator, ColumnRef, Expr, Quantifier, SelectStatement};
use crate::error::BindError;
use datastore::{Catalog, DataType};

/// A tuple variable bound to a base relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundTable {
    /// The variable name used in the query (explicit alias or table name).
    pub alias: String,
    /// The catalog relation it ranges over (catalog spelling).
    pub table: String,
}

/// What one conjunct of a block's WHERE clause does. A tuple variable is an
/// index into the block's [`BoundQuery::tables`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConjunctRole {
    /// `l = r` between columns of two different tuple variables of the block
    /// (`left` is `l`'s); `same_type` when the declared types match.
    Join {
        left: usize,
        right: usize,
        same_type: bool,
    },
    /// Every column it reads is `table`'s or, when `correlated`, an
    /// enclosing block's (`c.mid + 0 = m.id`, `a.id < m.id`).
    Selection { table: usize, correlated: bool },
    /// `own = outer` between a column of `table` and one of an enclosing
    /// block: a selection correlated by one equality, the shape a semi-join
    /// key takes. `own_left` when the own column is `l`; `parent` is the
    /// outer column's tuple variable when it belongs to the immediately
    /// enclosing block (an index into that block's `tables`); `same_type`
    /// when the declared types match.
    Correlation {
        table: usize,
        own_left: bool,
        parent: Option<usize>,
        same_type: bool,
    },
    /// Reads columns of several of the block's tuple variables (`tables`, in
    /// order of first reference), or of none.
    Residual { tables: Vec<usize> },
    /// Holds a subquery: `index` is its first subquery's in
    /// [`BoundQuery::subqueries`]; `whole` when the conjunct is that
    /// subquery's connector and nothing more (`x IN (…)`, `[NOT] EXISTS (…)`,
    /// `x op ALL (…)`, `x op (…)`); `table` is the first of the block's tuple
    /// variables it reads outside its subqueries.
    Subquery {
        index: usize,
        whole: bool,
        table: Option<usize>,
    },
}

impl ConjunctRole {
    /// The two columns of a join, as written (`l`, `r`), or of a
    /// correlation, as (own, outer). `None` for every other role.
    pub fn columns<'e>(&self, conjunct: &'e Expr) -> Option<(&'e ColumnRef, &'e ColumnRef)> {
        let (l, r) = conjunct.as_column_equality()?;
        match self {
            ConjunctRole::Join { .. } | ConjunctRole::Correlation { own_left: true, .. } => {
                Some((l, r))
            }
            ConjunctRole::Correlation { .. } => Some((r, l)),
            _ => None,
        }
    }
}

/// How a subquery block connects to the block it is nested in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Connector {
    In {
        negated: bool,
    },
    Exists {
        negated: bool,
    },
    /// Quantified comparison, e.g. `<= ALL`.
    Quantified {
        op: BinaryOperator,
        all: bool,
    },
    /// Scalar subquery in an expression (e.g. inside HAVING).
    Scalar,
}

impl Connector {
    /// The connector of `expr` and the subquery it introduces, when `expr`
    /// is one.
    pub(crate) fn of(expr: &Expr) -> Option<(Connector, &SelectStatement)> {
        Some(match expr {
            Expr::InSubquery {
                subquery, negated, ..
            } => (Connector::In { negated: *negated }, subquery),
            Expr::Exists { subquery, negated } => {
                (Connector::Exists { negated: *negated }, subquery)
            }
            Expr::QuantifiedComparison {
                subquery,
                op,
                quantifier,
                ..
            } => (
                Connector::Quantified {
                    op: *op,
                    all: *quantifier == Quantifier::All,
                },
                subquery,
            ),
            Expr::ScalarSubquery(subquery) => (Connector::Scalar, subquery),
            _ => return None,
        })
    }
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
    /// The role of each conjunct of this block's WHERE clause, in
    /// [`SelectStatement::where_conjuncts`] order.
    pub roles: Vec<ConjunctRole>,
    /// Bound subqueries of this block (WHERE and HAVING), in discovery
    /// order.
    pub subqueries: Vec<BoundQuery>,
    /// How this block connects to the block it is nested in (`None` for a
    /// statement's outermost block).
    pub connector: Option<Connector>,
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

    /// `query`'s WHERE conjuncts, each with its role. `query` is the
    /// statement this block was bound from.
    pub fn conjuncts<'q>(
        &self,
        query: &'q SelectStatement,
    ) -> impl Iterator<Item = (&'q Expr, &ConjunctRole)> {
        query.where_conjuncts().into_iter().zip(&self.roles)
    }

    /// True when this block or any nested block has a correlated reference.
    pub fn is_correlated(&self) -> bool {
        !self.correlated.is_empty() || self.subqueries.iter().any(BoundQuery::is_correlated)
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
    bind_subquery(catalog, query, &[])
}

/// Bind a subquery with the enclosing blocks in scope, outermost first.
/// The planner's decorrelation pass uses this to re-bind a subquery block it
/// changed — after stripping the correlated equality conjuncts it turned
/// into semi-join keys — while references to enclosing tuple variables
/// still resolve (and are recorded as correlated).
pub fn bind_subquery(
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

    // 2. Column references at this level, in `visit_expressions` order; each
    //    WHERE conjunct is filed as its references resolve.
    let mut failed = None;
    query.visit_expressions(&mut |expr| {
        if failed.is_some() {
            return;
        }
        let resolved = match &query.selection {
            Some(selection) if std::ptr::eq(selection, expr) => {
                file_conjuncts(catalog, selection, &mut bound, outer)
            }
            _ => resolve_refs(catalog, expr, &mut bound, outer, &mut Reads::default()),
        };
        failed = resolved.err();
    });
    if let Some(error) = failed {
        return Err(error);
    }

    // 3. Subqueries in WHERE and HAVING, bound with this block in scope.
    let mut subqueries = Vec::new();
    for predicate in [&query.selection, &query.having].into_iter().flatten() {
        predicate.walk(&mut |e| subqueries.extend(Connector::of(e)));
    }
    if !subqueries.is_empty() {
        let mut scopes: Vec<&BoundQuery> = Vec::with_capacity(outer.len() + 1);
        scopes.extend(outer);
        scopes.push(&bound);
        let mut bound_subqueries = Vec::with_capacity(subqueries.len());
        for (connector, sub) in subqueries {
            let mut bound_sub = bind_subquery(catalog, sub, &scopes)?;
            bound_sub.connector = Some(connector);
            bound_subqueries.push(bound_sub);
        }
        bound.subqueries = bound_subqueries;
    }
    Ok(bound)
}

/// Where a column reference resolved: tuple variable `at` of the block
/// `depth` blocks out (0: the block being bound, 1: the immediately
/// enclosing one), and the column's declared type.
#[derive(Clone, Copy)]
struct Place {
    depth: usize,
    at: usize,
    ty: DataType,
}

/// Where the column references of one conjunct resolved, folded as they
/// resolve.
#[derive(Default)]
struct Reads {
    /// The places of its first two references: an equality of two columns
    /// is judged by them.
    pair: [Option<Place>; 2],
    /// The first of the block's tuple variables it reads.
    first: Option<usize>,
    /// The others it reads, in order of first reference.
    more: Vec<usize>,
    /// Whether it reads an enclosing block's column.
    outer: bool,
}

impl Reads {
    fn add(&mut self, place: Place) {
        if let Some(slot) = self.pair.iter_mut().find(|slot| slot.is_none()) {
            *slot = Some(place);
        }
        let at = place.at;
        match self.first {
            _ if place.depth > 0 => self.outer = true,
            None => self.first = Some(at),
            Some(first) if first == at || self.more.contains(&at) => {}
            Some(_) => self.more.push(at),
        }
    }
}

/// Resolve every column reference of `expr` (not entering subqueries),
/// folding where each resolved into `reads`.
fn resolve_refs(
    catalog: &Catalog,
    expr: &Expr,
    bound: &mut BoundQuery,
    outer: &[&BoundQuery],
    reads: &mut Reads,
) -> Result<(), BindError> {
    let mut resolved = Ok(());
    expr.walk(&mut |e| match e {
        Expr::Column(col) if resolved.is_ok() => {
            resolved = resolve_column(catalog, col, bound, outer).map(|place| reads.add(place));
        }
        _ => {}
    });
    resolved
}

/// Resolve the references of each conjunct of `selection` and file the
/// conjunct in [`BoundQuery::roles`].
fn file_conjuncts(
    catalog: &Catalog,
    selection: &Expr,
    bound: &mut BoundQuery,
    outer: &[&BoundQuery],
) -> Result<(), BindError> {
    let mut count = 0;
    selection.each_conjunct(&mut |_| count += 1);
    bound.roles = Vec::with_capacity(count);
    let (mut subqueries, mut resolved) = (0, Ok(()));
    selection.each_conjunct(&mut |conjunct| {
        if resolved.is_err() {
            return;
        }
        let mut reads = Reads::default();
        resolved = resolve_refs(catalog, conjunct, bound, outer, &mut reads);
        let mut own = 0;
        conjunct.walk(&mut |e| own += usize::from(Connector::of(e).is_some()));
        bound
            .roles
            .push(role_of(conjunct, reads, (own > 0).then_some(subqueries)));
        subqueries += own;
    });
    resolved
}

/// The role of `conjunct`, whose references resolved as `reads` says;
/// `subquery` is the index its first subquery has among the block's, if it
/// holds one.
fn role_of(conjunct: &Expr, reads: Reads, subquery: Option<usize>) -> ConjunctRole {
    if let Some(index) = subquery {
        return ConjunctRole::Subquery {
            index,
            whole: is_whole_connector(conjunct),
            table: reads.first,
        };
    }
    if let (Some(_), [Some(l), Some(r)]) = (conjunct.as_column_equality(), reads.pair) {
        let same_type = l.ty == r.ty;
        match (l.depth, r.depth) {
            (0, 0) if l.at != r.at => {
                let (left, right) = (l.at, r.at);
                return ConjunctRole::Join {
                    left,
                    right,
                    same_type,
                };
            }
            (0, depth) | (depth, 0) if depth > 0 => {
                let (own, outer) = if l.depth == 0 { (l, r) } else { (r, l) };
                return ConjunctRole::Correlation {
                    table: own.at,
                    own_left: l.depth == 0,
                    parent: (outer.depth == 1).then_some(outer.at),
                    same_type,
                };
            }
            _ => {}
        }
    }
    match reads.first {
        Some(table) if reads.more.is_empty() => ConjunctRole::Selection {
            table,
            correlated: reads.outer,
        },
        first => ConjunctRole::Residual {
            tables: first.into_iter().chain(reads.more).collect(),
        },
    }
}

/// Whether `conjunct` is its subquery's connector and nothing more, the
/// shapes the planner attaches as one operator.
fn is_whole_connector(conjunct: &Expr) -> bool {
    let plain = |e: &Expr| !e.contains_subquery();
    match conjunct {
        Expr::Exists { .. } => true,
        Expr::InSubquery { expr, .. } | Expr::QuantifiedComparison { left: expr, .. } => {
            plain(expr)
        }
        Expr::BinaryOp { left, op, right } if op.is_comparison() => {
            match (left.as_ref(), right.as_ref()) {
                (Expr::ScalarSubquery(_), e) | (e, Expr::ScalarSubquery(_)) => plain(e),
                _ => false,
            }
        }
        _ => false,
    }
}

fn resolve_column(
    catalog: &Catalog,
    col: &ColumnRef,
    bound: &mut BoundQuery,
    outer: &[&BoundQuery],
) -> Result<Place, BindError> {
    let has_column = |t: &&BoundTable| {
        catalog
            .table(&t.table)
            .is_some_and(|schema| schema.has_column(&col.column))
    };
    // The tuple variable of one block `col` names: by its qualifier, or,
    // unqualified, the one relation with the column (several: ambiguous).
    let find = |tables: &[BoundTable]| match &col.qualifier {
        Some(q) => Ok(tables.iter().position(|t| t.alias.eq_ignore_ascii_case(q))),
        None => match tables.iter().filter(has_column).count() {
            0 => Ok(None),
            1 => Ok(tables.iter().position(|t| has_column(&t))),
            _ => Err(BindError::AmbiguousColumn {
                column: col.column.clone(),
                candidates: (tables.iter().filter(has_column))
                    .map(|t| t.table.clone())
                    .collect(),
            }),
        },
    };
    // This block first, then the enclosing ones, innermost first.
    if let Some(at) = find(&bound.tables)? {
        let ty = column_type(catalog, &bound.tables[at].table, col)?;
        resolve(&mut bound.resolutions, col, &bound.tables[at].alias);
        return Ok(Place { depth: 0, at, ty });
    }
    for (depth, scope) in (1..).zip(outer.iter().rev()) {
        if let Some(at) = find(&scope.tables)? {
            let t = &scope.tables[at];
            let ty = column_type(catalog, &t.table, col)?;
            bound.correlated.push(col.clone());
            resolve(&mut bound.resolutions, col, &t.alias);
            return Ok(Place { depth, at, ty });
        }
    }
    Err(match &col.qualifier {
        Some(q) => BindError::UnknownAlias { alias: q.clone() },
        None => BindError::UnresolvedColumn {
            column: col.column.clone(),
        },
    })
}

/// The declared type of `col` on `table`; an error if it has no such column.
fn column_type(catalog: &Catalog, table: &str, col: &ColumnRef) -> Result<DataType, BindError> {
    let schema = catalog
        .table(table)
        .ok_or_else(|| BindError::UnknownTable {
            table: table.to_string(),
        })?;
    match schema.column(&col.column) {
        Some(column) => Ok(column.data_type),
        None => Err(BindError::UnknownColumn {
            qualifier: table.to_string(),
            column: col.column.clone(),
        }),
    }
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
    fn binds_q1_and_files_its_conjuncts() {
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
        let join = |left, right| ConjunctRole::Join {
            left,
            right,
            same_type: true,
        };
        let selection = ConjunctRole::Selection {
            table: 2,
            correlated: false,
        };
        assert_eq!(b.roles, [join(0, 1), join(1, 2), selection]);
    }

    #[test]
    fn unqualified_and_case_twisted_references_file_as_written_ones() {
        let roles = |sql: &str| {
            bind_query(&catalog(), &parse_query(sql).unwrap())
                .unwrap()
                .roles
        };
        let q1 = "select m.title from MOVIES m, CAST c, ACTOR a \
                  where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'";
        for variant in [
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = mid and aid = a.id and name = 'Brad Pitt'",
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where M.id = C.mid and C.aid = A.id and A.name = 'Brad Pitt'",
        ] {
            assert_eq!(roles(variant), roles(q1), "{variant}");
        }
        // Two columns of one tuple variable select on it, however spelled.
        let selection = vec![ConjunctRole::Selection {
            table: 0,
            correlated: false,
        }];
        for sql in [
            "select m.title from MOVIES m where m.year = m.id",
            "select m.title from MOVIES m where m.year = M.id",
            "select m.title from MOVIES m where year = id",
        ] {
            assert_eq!(roles(sql), selection, "{sql}");
        }
        // A comparison of two tuple variables that is no equality, a
        // mixed-type equality and a constant conjunct.
        let b = roles(
            "select m.title from MOVIES m, CAST c \
             where m.id < c.mid and c.role = m.id and 1 = 1",
        );
        assert_eq!(
            b,
            [
                ConjunctRole::Residual { tables: vec![0, 1] },
                ConjunctRole::Join {
                    left: 1,
                    right: 0,
                    same_type: false
                },
                ConjunctRole::Residual { tables: vec![] },
            ]
        );
    }

    #[test]
    fn correlations_and_connectors_are_filed_in_their_blocks() {
        let q = parse_query(
            "select m.title from MOVIES m where m.year > 1990 and not exists ( \
                select * from GENRE g1 where not exists ( \
                    select * from GENRE g2 where g2.mid = m.id and genre = g1.genre)) \
             and (m.id in (select c.mid from CAST c) or m.year = 1999)",
        )
        .unwrap();
        let b = bind_query(&catalog(), &q).unwrap();
        assert_eq!(
            b.roles[1..],
            [
                ConjunctRole::Subquery {
                    index: 0,
                    whole: true,
                    table: None
                },
                ConjunctRole::Subquery {
                    index: 1,
                    whole: false,
                    table: Some(0)
                },
            ]
        );
        assert_eq!(
            b.subqueries[0].connector,
            Some(Connector::Exists { negated: true })
        );
        assert_eq!(
            b.subqueries[1].connector,
            Some(Connector::In { negated: false })
        );
        let innermost = &b.subqueries[0].subqueries[0];
        let correlation = |own_left, parent| ConjunctRole::Correlation {
            table: 0,
            own_left,
            parent,
            same_type: true,
        };
        // `m` is two blocks out, `g1` one: only `g1` is the parent.
        assert_eq!(
            innermost.roles,
            [correlation(true, None), correlation(true, Some(0))]
        );
        let (own, outer) = innermost.roles[1]
            .columns(
                q.where_conjuncts()[1].subqueries()[0].where_conjuncts()[0].subqueries()[0]
                    .where_conjuncts()[1],
            )
            .unwrap();
        assert_eq!(
            (own.to_string(), outer.to_string()),
            ("genre".into(), "g1.genre".into())
        );
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
        assert!(b.subqueries[0].subqueries.is_empty());
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
        assert_eq!(b.subqueries[0].subqueries[0].tables[0].table, "ACTOR");
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
        let joins = b.roles.iter();
        let joins = joins.filter(|r| matches!(r, ConjunctRole::Join { .. }));
        assert_eq!(joins.count(), 4);
    }
}
