//! Access-path selection: full scan vs. index probe, hash join vs.
//! index-nested-loop join — decided from the same statistics the join-order
//! enumerator uses, and recorded as [`PlanDecision::AccessPath`] either way
//! so the system can *say* why it read a table the way it did ("ACTOR has an
//! index on id, but the filter keeps ~400 of 600 rows, so I scanned").
//!
//! The cost model is deliberately small. A full scan touches every row once,
//! cheaply; an index probe touches only the matching rows but pays pointer
//! chasing per row, priced at [`INDEX_PROBE_ROW_COST`] scan-rows each. An
//! index scan therefore wins when `matching_rows × INDEX_PROBE_ROW_COST ≤
//! table_rows`. The same coin prices an index-nested-loop join:
//! `outer_rows` probes against building a hash table over `inner_rows`
//! build rows.
//!
//! Composite keys: a probe may pin a leading *prefix* of a composite key
//! with equalities and optionally add one range on the next key column —
//! `(mid, genre)` answers `mid = 7`, `mid = 7 AND genre = 'noir'`, and
//! `mid = 7 AND genre >= 'm'`. Each consumed conjunct leaves the filter
//! chain.
//!
//! There is one source of sargs: the relation's pushed selections
//! ([`Relation::pushed`]). What a column is compared with is a literal, a
//! plan-cache parameter, or — in a correlated selection, `g2.mid = m.id`
//! inside a subquery over `m` — an enclosing block's column, which becomes a
//! *correlation parameter* (`col = $k` under an `Apply`): the probe is
//! planned once and re-bound per outer row, turning a rescan-per-binding
//! into a point lookup per binding.
//!
//! Semantics guard: an access path must return *exactly* the rows the
//! filter (or hash join) it replaces would have kept. Ordered indexes
//! compare with `Value::total_cmp` — the same comparison filter predicates
//! evaluate with — so they are always safe. A hash index (unlike the
//! executor's hash operators, which compare by SQL `=`) keys by exact
//! [`datastore::value::GroupKey`], which distinguishes `3` from `3.0`, so
//! it is only used when the literal's type equals the column's declared
//! type and the column cannot hold mixed numerics (a Float column may store
//! Integers via type coercion; such columns never use hash probes). A
//! plan-cache parameter (`col = ?i` in a template) carries the kind of the
//! literal it stands for — the kinds are part of the template's identity, so
//! only literals of that kind are ever bound into it — and gets exactly the
//! test a literal of that kind would. A *correlation* parameter's type is
//! only known per outer row, so those only ever probe ordered indexes.

use super::cost::Estimator;
use super::logical::Relation;
use super::subquery::ScopeChain;
use super::{AccessPathKind, PlanDecision};
use datastore::expr::Param;
use datastore::index::{BoundTerm, Index, IndexBounds, TermBound};
use datastore::{DataType, Database, Value};
use sqlparse::ast::{flip, BinaryOperator, Expr, Literal};

/// Scan-rows one index-probed row costs, for index scans and
/// index-nested-loop probes alike. 4 means "use the index below 25%
/// selectivity".
pub const INDEX_PROBE_ROW_COST: f64 = 4.0;

/// An index access path chosen (or considered) for a base-relation scan.
#[derive(Debug, Clone)]
pub(super) struct ScanChoice<'a> {
    pub index: &'a str,
    /// The key columns the bounds constrain, in key order (for narration).
    pub columns: Vec<&'a str>,
    /// Every key column of the index, in key order (for the sort-elision
    /// peephole and the index-only covering check).
    pub key_columns: &'a [String],
    pub kind: AccessPathKind,
    pub bounds: IndexBounds,
    /// True when the index is ordered — the prerequisite for the ORDER BY
    /// elision peephole (a key-ordered scan) and for index-only scans.
    pub ordered: bool,
    /// Positions (in `rel.pushed`) of the conjuncts the bounds consume.
    pub consumed_pushed: Vec<usize>,
    /// True when any bound is a correlation value.
    pub parameterized: bool,
    /// Estimated rows the probe returns (per binding, when parameterized).
    pub estimated_rows: f64,
}

/// What access-path selection concluded for one relation scan.
pub(super) enum ScanPath<'a> {
    /// Probe the index; the consumed conjuncts leave the filter chain.
    Index(ScanChoice<'a>),
    /// Keep the full scan, but remember the rejected candidate so the
    /// decision (and its narration) can own up to it.
    FullScan(ScanChoice<'a>),
}

/// A sargable conjunct against one column of the relation: an equality term
/// or a range, with the term either a plan-time literal or a parameter.
struct Sarg {
    column: String,
    shape: SargShape,
    /// The type of the term an equality compares against, for hash-index
    /// exactness: a literal's own, or a plan-cache parameter's declared kind
    /// (`None` for ranges and correlation parameters).
    term_type: Option<DataType>,
    /// Estimated fraction of rows the conjunct keeps.
    selectivity: f64,
}

enum SargShape {
    Eq(BoundTerm),
    Range {
        lo: Option<TermBound>,
        hi: Option<TermBound>,
    },
}

pub(super) fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Integer(i) => Value::Integer(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::String(s) => Value::Text(s.as_str().into()),
        Literal::Boolean(b) => Value::Boolean(*b),
        Literal::Null => Value::Null,
    }
}

/// Build the range shape for `column <op> term` (column on the left).
fn range_shape(op: BinaryOperator, term: BoundTerm) -> Option<SargShape> {
    Some(match op {
        BinaryOperator::Eq => SargShape::Eq(term),
        BinaryOperator::Lt => SargShape::Range {
            lo: None,
            hi: Some((term, false)),
        },
        BinaryOperator::LtEq => SargShape::Range {
            lo: None,
            hi: Some((term, true)),
        },
        BinaryOperator::Gt => SargShape::Range {
            lo: Some((term, false)),
            hi: None,
        },
        BinaryOperator::GtEq => SargShape::Range {
            lo: Some((term, true)),
            hi: None,
        },
        _ => return None,
    })
}

/// Recognize `column <cmp> constant` (either side) and
/// `column BETWEEN constant AND constant` as index-probe shapes, with the
/// conjunct's estimated selectivity attached. The constant is a literal, a
/// plan-cache parameter (which a hit binds before the scan opens, so a
/// range of a template probes as its literal does), or — in a correlated
/// selection — an enclosing
/// block's column, which probes as the correlation parameter `scopes`
/// resolves it to (re-bound per outer row, so `g2.mid = m.id` under an
/// `Apply` is an index lookup per binding instead of a rescan per binding).
/// Selectivity goes through the feedback override, so a shape the engine has
/// already caught misestimated can flip the scan-vs-probe verdict on its
/// next plan.
fn as_sarg(
    estimator: &Estimator,
    rel: &Relation,
    stats: &datastore::stats::TableStats,
    conjunct: &Expr,
    scopes: &ScopeChain,
) -> Option<Sarg> {
    if let Some((own, op, outer)) = rel.as_correlated_comparison(conjunct) {
        // A conjunct no probe consumes lowers to a filter on the same
        // (memoized) parameter, so none is ever bound for nothing.
        let param = scopes.resolve_param(outer.qualifier.as_deref(), &outer.column)?;
        return Some(Sarg {
            column: own.column.clone(),
            shape: range_shape(op, BoundTerm::Param(param))?,
            term_type: None,
            selectivity: estimator.effective_conjunct_selectivity(rel, stats, conjunct),
        });
    }
    if let Some((col, op, lit)) = conjunct.as_selection_predicate() {
        let value = literal_value(lit);
        let term_type = (op == BinaryOperator::Eq)
            .then(|| value.data_type())
            .flatten();
        return Some(Sarg {
            column: col.column.clone(),
            shape: range_shape(op, BoundTerm::Value(value))?,
            term_type,
            selectivity: estimator.effective_conjunct_selectivity(rel, stats, conjunct),
        });
    }
    // A plan-cache parameter probes like the literal it stands for: the
    // same selectivity, and an equality has the type of the literal's kind.
    if let Expr::BinaryOp { left, op, right } = conjunct {
        let (c, op, n) = match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), Expr::Param(n)) => (c, *op, *n),
            (Expr::Param(n), Expr::Column(c)) => (c, flip(*op), *n),
            _ => return None,
        };
        return Some(Sarg {
            column: c.column.clone(),
            shape: range_shape(op, BoundTerm::Param(Param::Stmt(n)))?,
            term_type: (op == BinaryOperator::Eq)
                .then(|| estimator.param_type(n))
                .flatten(),
            selectivity: estimator.effective_conjunct_selectivity(rel, stats, conjunct),
        });
    }
    if let Expr::Between {
        expr,
        low,
        high,
        negated: false,
    } = conjunct
    {
        let term = |bound: &Expr| match bound {
            Expr::Literal(l) => Some(BoundTerm::Value(literal_value(l))),
            Expr::Param(n) => Some(BoundTerm::Param(Param::Stmt(*n))),
            _ => None,
        };
        if let (Expr::Column(c), Some(lo), Some(hi)) = (expr.as_ref(), term(low), term(high)) {
            return Some(Sarg {
                column: c.column.clone(),
                shape: SargShape::Range {
                    lo: Some((lo, true)),
                    hi: Some((hi, true)),
                },
                term_type: None,
                selectivity: estimator.effective_conjunct_selectivity(rel, stats, conjunct),
            });
        }
    }
    None
}

/// True when probing this index returns exactly the rows the equivalent
/// predicate would keep (see the module docs on hash-index semantics).
fn probe_is_exact(
    index_kind: datastore::IndexKind,
    declared: DataType,
    term_type: Option<DataType>,
) -> bool {
    match index_kind {
        datastore::IndexKind::Ordered => true,
        // Float columns can hold coerced Integers, whose index key differs
        // from the equal Float's — never hash-probe them.
        datastore::IndexKind::Hash => declared != DataType::Float && term_type == Some(declared),
    }
}

/// Match one index against the available sargs: pin leading key columns
/// with equalities, optionally add one range on the next key column, and
/// estimate the probe's output. `None` when no conjunct constrains the key.
fn match_index<'a>(
    index: &'a Index,
    table: &datastore::Table,
    sargs: &[(usize, Sarg)],
    base_rows: f64,
) -> Option<ScanChoice<'a>> {
    let key = &index.def().columns;
    let mut eq: Vec<BoundTerm> = Vec::new();
    let mut columns: Vec<&str> = Vec::new();
    // Positions in `rel.pushed` of the conjuncts the bounds take over (one
    // sarg per conjunct, so also which sargs are used).
    let mut consumed: Vec<usize> = Vec::new();
    let mut selectivity = 1.0;
    for key_col in key {
        let declared = table.schema().column(key_col).map(|c| c.data_type)?;
        let found = sargs.iter().find(|(pos, s)| {
            !consumed.contains(pos)
                && s.column.eq_ignore_ascii_case(key_col)
                && matches!(s.shape, SargShape::Eq(_))
                && probe_is_exact(index.def().kind, declared, s.term_type)
        });
        let Some((pos, sarg)) = found else {
            break;
        };
        let SargShape::Eq(term) = &sarg.shape else {
            unreachable!("found is filtered to equalities");
        };
        eq.push(term.clone());
        columns.push(key_col);
        consumed.push(*pos);
        selectivity *= sarg.selectivity;
    }
    // One range on the first unpinned key column, ordered indexes only.
    let mut lo: Option<TermBound> = None;
    let mut hi: Option<TermBound> = None;
    if index.supports_range() {
        if let Some(next_col) = key.get(eq.len()) {
            let found = sargs.iter().find(|(pos, s)| {
                !consumed.contains(pos)
                    && s.column.eq_ignore_ascii_case(next_col)
                    && matches!(s.shape, SargShape::Range { .. })
            });
            if let Some((pos, sarg)) = found {
                let SargShape::Range { lo: l, hi: h } = &sarg.shape else {
                    unreachable!("found is filtered to ranges");
                };
                lo = l.clone();
                hi = h.clone();
                columns.push(next_col);
                consumed.push(*pos);
                selectivity *= sarg.selectivity;
            }
        }
    }
    if consumed.is_empty() {
        return None;
    }
    let bounds = IndexBounds { eq, lo, hi };
    // Hash indexes answer full-width exact probes only.
    if !index.supports_range() && !bounds.is_exact(index.width()) {
        return None;
    }
    let kind = if bounds.is_exact(index.width()) {
        AccessPathKind::Point
    } else if bounds.lo.is_some() || bounds.hi.is_some() {
        AccessPathKind::Range
    } else {
        AccessPathKind::Prefix
    };
    let parameterized = bounds.is_correlated();
    Some(ScanChoice {
        index: &index.def().name,
        columns,
        key_columns: key,
        kind,
        bounds,
        ordered: index.supports_range(),
        consumed_pushed: consumed,
        parameterized,
        estimated_rows: base_rows * selectivity,
    })
}

/// Pick the access path for one base-relation scan: every index of the
/// table is matched against the relation's sargable selections — correlated
/// ones included, probed as parameters — and the most selective match is
/// costed against the full scan at [`INDEX_PROBE_ROW_COST`]. `None` when no
/// conjunct can use any index (nothing to decide, nothing to narrate).
pub(super) fn choose_scan_path<'a>(
    db: &'a Database,
    estimator: &'a Estimator,
    rel: &'a Relation,
    base_rows: f64,
    scopes: &ScopeChain,
) -> Option<ScanPath<'a>> {
    let table = db.table(&rel.table)?;
    let stats = db.table_stats(&rel.table)?;
    let sargs: Vec<(usize, Sarg)> = rel
        .pushed
        .iter()
        .enumerate()
        .filter_map(|(i, conjunct)| Some((i, as_sarg(estimator, rel, &stats, conjunct, scopes)?)))
        .collect();
    if sargs.is_empty() {
        return None;
    }
    let mut best: Option<ScanChoice> = None;
    // What-if indexes (the advisor's hypotheticals) compete on equal terms:
    // match_index reads only the index's definition, never its entries.
    for index in table
        .indexes()
        .iter()
        .chain(estimator.hypothetical_for(&rel.table))
    {
        let Some(candidate) = match_index(index, table, &sargs, base_rows) else {
            continue;
        };
        let better = best.as_ref().is_none_or(|b| {
            candidate.estimated_rows < b.estimated_rows
                || (candidate.estimated_rows == b.estimated_rows
                    && candidate.bounds.constrained() > b.bounds.constrained())
        });
        if better {
            best = Some(candidate);
        }
    }
    let choice = best?;
    if choice.estimated_rows * INDEX_PROBE_ROW_COST <= base_rows {
        Some(ScanPath::Index(choice))
    } else {
        Some(ScanPath::FullScan(choice))
    }
}

/// The decision record for a scan-path choice (chosen or rejected).
pub(super) fn scan_decision(
    rel: &Relation,
    choice: &ScanChoice,
    base_rows: f64,
    chosen: bool,
    index_only: bool,
) -> PlanDecision {
    PlanDecision::AccessPath {
        alias: rel.alias.clone(),
        table: rel.table.clone(),
        index: choice.index.to_string(),
        column: choice.columns.join(", "),
        kind: choice.kind,
        estimated_rows: choice.estimated_rows,
        table_rows: base_rows,
        chosen,
        ratio: INDEX_PROBE_ROW_COST,
        parameterized: choice.parameterized,
        index_only,
    }
}

/// An index the inner side of a join step could be probed through.
pub(super) struct JoinProbe {
    pub index: String,
    pub column: String,
}

/// Consider an index-nested-loop join for a single-edge join step: the
/// inner relation must be a bare scan (no pushed predicates — they could
/// not run below the probe) with an exact single-column point-probe index
/// on its join column. Returns the candidate; the caller does the costing,
/// because the outer cardinality lives there.
pub(super) fn join_probe_candidate(
    db: &Database,
    estimator: &Estimator,
    rel: &Relation,
    join_column: &str,
) -> Option<JoinProbe> {
    if !rel.pushed.is_empty() {
        return None;
    }
    let table = db.table(&rel.table)?;
    // A what-if index on the join column counts too — the advisor's
    // re-planning pass must see the INLJ the real index would unlock.
    let index = table.index_on(join_column, false).or_else(|| {
        estimator.hypothetical_for(&rel.table).find(|ix| {
            ix.width() == 1
                && ix.def().columns[0].eq_ignore_ascii_case(join_column)
                && ix.supports_range()
        })
    })?;
    // The per-row probe is a single-key lookup; a composite index cannot
    // answer it (its trailing key columns are unconstrained).
    if index.width() != 1 {
        return None;
    }
    let declared = table.schema().column(join_column).map(|c| c.data_type)?;
    // The probe values are inner-typed column values from the outer side
    // (the join-graph edge guaranteed equal declared types). Ordered indexes
    // compare like SQL; hash indexes need group-key-stable columns — and a
    // Float column may store coerced Integers, which a hash *join* would
    // also miss, but an ordered-index probe would match. Keep Float columns
    // on the hash join so plans stay byte-identical with indexes off.
    if declared == DataType::Float {
        return None;
    }
    Some(JoinProbe {
        index: index.def().name.clone(),
        column: index.def().columns[0].clone(),
    })
}

/// True when probing the inner index once per outer row is estimated
/// cheaper than building a hash table over the inner rows, at
/// [`INDEX_PROBE_ROW_COST`] per probe.
pub(super) fn prefer_index_join(outer_rows: f64, inner_rows: f64) -> bool {
    outer_rows * INDEX_PROBE_ROW_COST <= inner_rows
}
