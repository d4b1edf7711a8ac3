//! Secondary indexes: the access paths the planner can choose — and talk
//! about — instead of a full scan.
//!
//! Two physical shapes cover the paper's workload:
//!
//! * an **ordered index** ([`IndexKind::Ordered`]): a B-tree-style map from
//!   key to row positions, supporting point probes *and* range probes
//!   (`year >= 2000`, `id BETWEEN 3 AND 7`), and able to stream rows in key
//!   order — ascending or descending — which lets the planner skip an
//!   `ORDER BY` sort;
//! * a **hash index** ([`IndexKind::Hash`]): key → row positions, exact
//!   point probes only, keyed by exact `GroupKey` (so `3` and `3.0` are two
//!   keys, where the hash join's SQL `=` makes them one; the planner never
//!   hash-probes a column that can hold both).
//!
//! Indexes may span **multiple columns** (`CREATE INDEX … ON t (a, b)`).
//! An ordered composite index is keyed lexicographically, so it answers an
//! equality on any *leading prefix* of its columns, optionally followed by a
//! range on the next column — the classic B-tree prefix rule. A hash index
//! answers only exact probes on all of its columns.
//!
//! Probe bounds ([`IndexBounds`]) carry either literal values or
//! **parameter placeholders** ([`BoundTerm::Param`]): a correlated subplan
//! under `Apply` keeps its probe symbolic at plan time and resolves it per
//! outer-row binding — turning "re-scan the table per binding" into "one
//! point probe per binding" — and a cached plan template keeps a statement
//! literal's probe symbolic until a statement binds it.
//!
//! Indexes live on the [`crate::table::Table`] (next to the primary-key
//! index) and are edited, never rebuilt, by its writes: an insert adds the
//! row's entry, a delete removes the doomed rows' entries and moves the
//! positions behind them down, an update re-keys the rows it touched —
//! exactly like the PK index. Because tables sit behind `Arc` with
//! copy-on-write mutation ([`crate::database::Database::table_mut`]), an
//! in-flight query keeps probing the index version of *its* snapshot while a
//! writer builds the next one — index maintenance never races a reader.
//!
//! Row positions are stored in insertion order, and probes that do not need
//! key order return positions in **table position order**, so an index scan
//! yields exactly the rows (and row order) of the equivalent filtered full
//! scan — the property the `use_indexes` A/B tests pin down byte for byte.
//! A row whose *leading* key column is NULL is not indexed (no probe
//! constrains nothing, and every probe constrains the leading column, so no
//! probe can want it); NULLs in trailing key columns *are* stored, because a
//! prefix probe that leaves those columns unconstrained must still return
//! their rows.
//!
//! **One entry form, one bulk build.** A key is one value held inline for
//! a one-column index and a boxed slice only for a composite one; either
//! compares, hashes and borrows as the slice of its values, so a one-column
//! probe looks its key up through a slice of one value on the stack. A
//! posting list holds a lone row position inline until a second row
//! arrives. [`Index::build`] sorts `(key, position)` once, folds each run of
//! equal keys into one posting list and loads the map from the sorted runs
//! (a hash index fills a map sized up front). `3` and `3.0` (or `0.0` and
//! `-0.0`) fall into one ordered run, spelled by its lowest position — the
//! spelling an index-only scan reports and that maintenance keeps row by
//! row (a row entering in front of a key's rows respells it; the first row
//! leaving hands the spelling on), so a bulk-built index and one grown by
//! `Index::insert` are the same index.

use crate::error::StoreError;
use crate::exec::plan::{Relation, RelationMemo};
use crate::expr::{Param, ParamLookup};
use crate::tuple::Row;
use crate::value::{GroupKey, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{btree_map, hash_map, BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::ops::Bound as Seek;
use std::slice;
use std::sync::Arc;

/// The physical shape of a secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Ordered (B-tree-style): point, prefix and range probes, key-ordered
    /// scans in either direction.
    Ordered,
    /// Hash: exact point probes only.
    Hash,
}

impl IndexKind {
    /// SQL-ish spelling used in narrations and `describe` output.
    pub fn sql(&self) -> &'static str {
        match self {
            IndexKind::Ordered => "ordered",
            IndexKind::Hash => "hash",
        }
    }
}

/// The declaration of a secondary index: what `CREATE INDEX` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name (case-insensitive, stored as given).
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed key columns, leading column first.
    pub columns: Vec<String>,
    pub kind: IndexKind,
}

impl IndexDef {
    /// Convenience constructor for the common single-column case.
    pub fn single(
        name: impl Into<String>,
        table: impl Into<String>,
        column: impl Into<String>,
        kind: IndexKind,
    ) -> IndexDef {
        IndexDef {
            name: name.into(),
            table: table.into(),
            columns: vec![column.into()],
            kind,
        }
    }

    /// The key columns joined for display: `"a, b"`.
    pub fn columns_sql(&self) -> String {
        self.columns.join(", ")
    }
}

impl fmt::Display for IndexDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ON {}({}) [{}]",
            self.name,
            self.table,
            self.columns_sql(),
            self.kind.sql()
        )
    }
}

/// Key wrapper giving [`Value`] the total order the ordered index sorts by.
/// NULL sorts first (`total_cmp` rank 0), below every real value, so range
/// probes with a lower bound never sweep over NULL entries.
#[derive(Debug, Clone)]
struct OrdKey(Value);

impl PartialEq for OrdKey {
    fn eq(&self, other: &OrdKey) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for OrdKey {}
impl PartialOrd for OrdKey {
    fn partial_cmp(&self, other: &OrdKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdKey {
    fn cmp(&self, other: &OrdKey) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A stored key: the one value of a one-column index inline, the values of
/// a composite one boxed. Every key of an index takes the same form, so the
/// derived order and equality are those of the value slices it borrows as
/// (the hash is the slice's), and a probe looks a key up with a `&[T]`; a
/// slice that is a prefix of a longer key sorts first, so a prefix probe
/// seeks with it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Key<T> {
    One(T),
    Many(Box<[T]>),
}

impl<T> Key<T> {
    fn values(&self) -> &[T] {
        match self {
            Key::One(value) => slice::from_ref(value),
            Key::Many(values) => values,
        }
    }
}

impl<T> Borrow<[T]> for Key<T> {
    fn borrow(&self) -> &[T] {
        self.values()
    }
}
impl<T: Hash> Hash for Key<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

/// The key of `row` at the key columns, each value made a `T` by `of`;
/// `None` when the row is not indexed. No probe can match a NULL leading
/// key (every probe constrains the leading column, and no SQL comparison is
/// true against NULL), so such a row is dead weight.
fn row_key<T>(column_pos: &[usize], row: &Row, of: fn(&Value) -> T) -> Option<Key<T>> {
    let value = |i: usize| row.get(i).unwrap_or(&Value::Null);
    match column_pos {
        [lead, ..] if value(*lead).is_null() => None,
        [only] => Some(Key::One(of(value(*only)))),
        _ => Some(Key::Many(
            column_pos.iter().map(|&i| of(value(i))).collect(),
        )),
    }
}

/// `f` of the key slice spelled by `values`, each made a `T` by `of`: a
/// slice of one on the stack, a `Vec` only for two values or more.
fn with_key<'v, T, R>(
    values: impl Iterator<Item = &'v Value>,
    of: fn(&Value) -> T,
    f: impl FnOnce(&[T]) -> R,
) -> R {
    let mut values = values.map(of);
    match (values.next(), values.next()) {
        (None, _) => f(&[]),
        (Some(one), None) => f(slice::from_ref(&one)),
        (Some(a), Some(b)) => f(&[a, b].into_iter().chain(values).collect::<Vec<_>>()),
    }
}

fn ord_key(value: &Value) -> OrdKey {
    OrdKey(value.clone())
}

/// The row positions under one key, in position order: a lone row inline,
/// a list from the second row on. A list never shrinks below two rows —
/// its last but one leaving makes it a lone row again — so the one form
/// of a set of positions is the form a fresh build gives it.
#[derive(Debug, Clone)]
enum Postings {
    One(usize),
    Many(Vec<usize>),
}

impl Postings {
    fn positions(&self) -> &[usize] {
        match self {
            Postings::One(pos) => slice::from_ref(pos),
            Postings::Many(list) => list,
        }
    }

    /// Add `pos` where it belongs in position order (an update re-enters a
    /// row in the middle of the table).
    fn insert(&mut self, pos: usize) {
        match self {
            Postings::One(only) => {
                *self = Postings::Many(vec![pos.min(*only), pos.max(*only)]);
            }
            Postings::Many(list) => list.insert(list.partition_point(|&p| p < pos), pos),
        }
    }

    /// Take `pos` out of a list that holds other rows too: where it stood,
    /// or `None` when it is not here. A lone row is taken out with its key.
    fn withdraw(&mut self, pos: usize) -> Option<usize> {
        let Postings::Many(list) = self else {
            return None;
        };
        let at = list.binary_search(&pos).ok()?;
        list.remove(at);
        if let [only] = list[..] {
            *self = Postings::One(only);
        }
        Some(at)
    }
}

/// One term of an index probe: a literal value known at plan time, or a
/// parameter bound later — a statement literal of a cached template, or a
/// correlation value resolved per outer-row binding.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundTerm {
    /// A concrete key value.
    Value(Value),
    /// A parameter, bound before execution.
    Param(Param),
}

impl BoundTerm {
    /// The concrete value, when already resolved.
    pub fn value(&self) -> Option<&Value> {
        match self {
            BoundTerm::Value(v) => Some(v),
            BoundTerm::Param(_) => None,
        }
    }

    fn bind(&mut self, params: ParamLookup<'_>) {
        if let BoundTerm::Param(param) = self {
            if let Some(v) = params(*param) {
                *self = BoundTerm::Value(v.clone());
            }
        }
    }
}

impl fmt::Display for BoundTerm {
    /// SQL-flavoured rendering: the literal, or `$k` for a parameter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundTerm::Value(v) => v.write_sql_literal(f),
            BoundTerm::Param(param) => write!(f, "{param}"),
        }
    }
}

/// One bound of a range probe: the key value and whether it is inclusive.
pub type Bound = (Value, bool);

/// One (possibly parameterized) bound of a range probe.
pub type TermBound = (BoundTerm, bool);

/// The probe a plan's `IndexScan` performs, carried in the plan tree: an
/// equality on a leading prefix of the key columns, optionally followed by
/// a range on the next column. `eq = [5], lo/hi = None` over a one-column
/// index is the classic point probe; `eq = [], lo = (2000, true)` is
/// `year >= 2000`; `eq = [7], lo = ('m', true)` over `(mid, name)` is
/// `mid = 7 AND name >= 'm'`.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexBounds {
    /// Equality terms on the leading key columns, in key order.
    pub eq: Vec<BoundTerm>,
    /// Lower range bound on the key column right after the equalities.
    pub lo: Option<TermBound>,
    /// Upper range bound on the same column.
    pub hi: Option<TermBound>,
}

impl IndexBounds {
    /// `column = value` on a single-column index.
    pub fn point(value: Value) -> IndexBounds {
        IndexBounds {
            eq: vec![BoundTerm::Value(value)],
            lo: None,
            hi: None,
        }
    }

    /// A range on the leading key column with per-bound inclusivity; an
    /// open side is unbounded (`year >= 2000` has no `hi`).
    pub fn range(lo: Option<Bound>, hi: Option<Bound>) -> IndexBounds {
        let lift = |b: Option<Bound>| b.map(|(v, inc)| (BoundTerm::Value(v), inc));
        IndexBounds {
            eq: Vec::new(),
            lo: lift(lo),
            hi: lift(hi),
        }
    }

    /// Equalities on a leading prefix of the key columns.
    pub fn prefix(eq: Vec<BoundTerm>) -> IndexBounds {
        IndexBounds {
            eq,
            lo: None,
            hi: None,
        }
    }

    /// Number of key columns this probe constrains.
    pub fn constrained(&self) -> usize {
        self.eq.len() + usize::from(self.lo.is_some() || self.hi.is_some())
    }

    /// True when the probe pins every one of `width` key columns with an
    /// equality — a single-key point lookup.
    pub fn is_exact(&self, width: usize) -> bool {
        self.lo.is_none() && self.hi.is_none() && self.eq.len() == width
    }

    /// True when a term is a correlation value ([`Param::Outer`]): the probe
    /// is resolved per outer-row binding, not once per statement.
    pub fn is_correlated(&self) -> bool {
        let range = self.lo.iter().chain(&self.hi).map(|(t, _)| t);
        (self.eq.iter().chain(range)).any(|t| matches!(t, BoundTerm::Param(Param::Outer(_))))
    }

    /// True when a term is a parameter of either kind: the probe is bound
    /// when its open tree is rewound.
    pub(crate) fn has_params(&self) -> bool {
        let range = self.lo.iter().chain(&self.hi).map(|(t, _)| t);
        (self.eq.iter().chain(range)).any(|t| matches!(t, BoundTerm::Param(_)))
    }

    /// Substitute, in place, every parameter that `params` carries by its
    /// value (the probe's part of binding a plan).
    pub(crate) fn bind(&mut self, params: ParamLookup<'_>) {
        self.terms_mut().for_each(|t| t.bind(params));
    }

    /// Overwrite, in place, each term that stands where `written` — the
    /// probe these bounds were copied from — has a parameter `params`
    /// carries; the others keep the values they were bound to before.
    pub(crate) fn rebind(&mut self, written: &IndexBounds, params: ParamLookup<'_>) {
        let range = written.lo.iter().chain(&written.hi).map(|(t, _)| t);
        for (term, was) in self.terms_mut().zip(written.eq.iter().chain(range)) {
            if let BoundTerm::Param(param) = was {
                if let Some(v) = params(*param) {
                    *term = BoundTerm::Value(v.clone());
                }
            }
        }
    }

    /// Every term, equalities first, then the range's two sides.
    fn terms_mut(&mut self) -> impl Iterator<Item = &mut BoundTerm> {
        let range = self.lo.iter_mut().chain(&mut self.hi).map(|(t, _)| t);
        self.eq.iter_mut().chain(range)
    }

    /// Compact SQL-flavoured rendering against the (qualified) names of the
    /// constrained key columns: `"m.id = 6"`, `"c.mid = $0 AND c.aid >= 3"`.
    pub fn describe(&self, columns: &[impl fmt::Display]) -> String {
        let mut out = String::new();
        let name = |out: &mut String, i: usize| match columns.get(i) {
            Some(column) => write!(out, "{column}"),
            None => write!(out, "key#{i}"),
        };
        let range = [(&self.lo, ">=", ">"), (&self.hi, "<=", "<")];
        let eq = self.eq.iter().enumerate().map(|(i, t)| (i, "=", t));
        let range = range
            .into_iter()
            .filter_map(|(bound, inclusive, exclusive)| {
                let (t, inc) = bound.as_ref()?;
                Some((self.eq.len(), if *inc { inclusive } else { exclusive }, t))
            });
        for (column, op, term) in eq.chain(range) {
            if !out.is_empty() {
                out.push_str(" AND ");
            }
            let _ = name(&mut out, column).and_then(|()| write!(out, " {op} {term}"));
        }
        if out.is_empty() {
            let _ = name(&mut out, 0);
            out.push_str(" unbounded");
        }
        out
    }
}

/// The order an index probe returns row positions in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOrder {
    /// Table position order — exactly the rows (and row order) of the
    /// equivalent filtered full scan.
    Position,
    /// Ascending key order, ties in insertion order — what an
    /// `ORDER BY col` elision wants.
    KeyAsc,
    /// Descending key order, ties in insertion order — what an
    /// `ORDER BY col DESC` elision wants (a stable descending sort keeps
    /// equal keys in their original order).
    KeyDesc,
}

/// The stored structure of one index.
#[derive(Debug, Clone)]
enum IndexStore {
    /// Two spellings of one number (`3` and `3.0`, `0.0` and `-0.0`) are one
    /// key here, spelled like the first row under it — which is what an
    /// index-only scan reports, and what building the index afresh over the
    /// same rows would store; edits keep it so.
    Ordered(BTreeMap<Key<OrdKey>, Postings>),
    Hash(HashMap<Key<GroupKey>, Postings>),
}

/// A secondary index over one or more columns of a table: key → row
/// positions (in insertion order). Rows whose leading key column is NULL
/// are not indexed; NULLs in trailing columns are stored so prefix probes
/// stay exact.
#[derive(Debug, Clone)]
pub struct Index {
    def: IndexDef,
    store: IndexStore,
    /// Positions of the key columns in the table's rows, leading first.
    column_pos: Vec<usize>,
    /// Number of indexed rows.
    entries: usize,
    /// The key columns as each alias reads them (an index-only scan's output).
    relations: Arc<RelationMemo>,
}

impl Index {
    /// Build an index over the given key column positions of the rows, in
    /// bulk: an ordered index sorts `(key, position)` once and loads the map
    /// from the sorted runs of equal keys, each spelled by its lowest
    /// position; a hash index is filled in one pass into a map sized up
    /// front.
    pub fn build(def: IndexDef, rows: &[Row], column_pos: Vec<usize>) -> Index {
        debug_assert_eq!(def.columns.len(), column_pos.len());
        let mut index = Index {
            def,
            store: IndexStore::Ordered(BTreeMap::new()),
            column_pos,
            entries: 0,
            relations: Arc::default(),
        };
        if index.def.kind == IndexKind::Hash {
            index.store = IndexStore::Hash(HashMap::with_capacity(rows.len()));
            for (pos, row) in rows.iter().enumerate() {
                index.insert(row, pos);
            }
            return index;
        }
        let mut keyed = Vec::with_capacity(rows.len());
        for (pos, row) in rows.iter().enumerate() {
            keyed.extend(row_key(&index.column_pos, row, ord_key).map(|key| (key, pos)));
        }
        index.entries = keyed.len();
        // Equal keys in position order, so a run's first row is its lowest
        // position.
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut sorted = keyed.into_iter().peekable();
        let mut run = Vec::new();
        let runs = std::iter::from_fn(|| {
            let (key, first) = sorted.next()?;
            run.clear();
            while let Some((_, pos)) = sorted.next_if(|(next, _)| *next == key) {
                run.push(pos);
            }
            let postings = match run[..] {
                [] => Postings::One(first),
                _ => Postings::Many([&[first], &run[..]].concat()),
            };
            Some((key, postings))
        });
        index.store = IndexStore::Ordered(runs.collect());
        index
    }

    /// The index declaration.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// The key columns as `alias` reads them from `table` (as a plan spells
    /// it).
    pub(crate) fn relation(&self, table: &str, alias: &str) -> Arc<Relation> {
        let names = self.def.columns.iter().map(String::as_str);
        self.relations.get(table, alias, names)
    }

    /// Positions of the key columns in the table's rows, leading first.
    pub fn column_pos(&self) -> &[usize] {
        &self.column_pos
    }

    /// Number of key columns.
    pub fn width(&self) -> usize {
        self.column_pos.len()
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct indexed keys.
    pub fn key_count(&self) -> usize {
        match &self.store {
            IndexStore::Ordered(map) => map.len(),
            IndexStore::Hash(map) => map.len(),
        }
    }

    /// True when this index can answer range and prefix probes (ordered
    /// only — a hash index needs every key column pinned exactly).
    pub fn supports_range(&self) -> bool {
        self.def.kind == IndexKind::Ordered
    }

    /// Register one row (maintenance on insert and update). Posting lists
    /// stay in position order wherever `pos` lies: an update re-enters a
    /// row in the middle of the table.
    pub(crate) fn insert(&mut self, row: &Row, pos: usize) {
        let column_pos = &self.column_pos;
        match &mut self.store {
            IndexStore::Ordered(map) => {
                let Some(key) = row_key(column_pos, row, ord_key) else {
                    return;
                };
                match map.entry(key) {
                    btree_map::Entry::Vacant(free) => {
                        free.insert(Postings::One(pos));
                    }
                    // In front of every row under this key: the key takes this
                    // row's spelling (see [`IndexStore::Ordered`]).
                    btree_map::Entry::Occupied(under) if pos < under.get().positions()[0] => {
                        let mut postings = under.remove();
                        postings.insert(pos);
                        let key = row_key(column_pos, row, ord_key).expect("it had a key above");
                        map.insert(key, postings);
                    }
                    btree_map::Entry::Occupied(mut under) => under.get_mut().insert(pos),
                }
            }
            IndexStore::Hash(map) => {
                let Some(key) = row_key(column_pos, row, Value::group_key) else {
                    return;
                };
                match map.entry(key) {
                    hash_map::Entry::Vacant(free) => {
                        free.insert(Postings::One(pos));
                    }
                    hash_map::Entry::Occupied(mut under) => under.get_mut().insert(pos),
                }
            }
        }
        self.entries += 1;
    }

    /// Withdraw the row at `pos` of `rows`, registered with the key values
    /// it still has — the inverse of [`Index::insert`] (maintenance on
    /// delete and update). A key whose last row goes, goes too.
    pub(crate) fn remove(&mut self, rows: &[Row], pos: usize) {
        let column_pos = &self.column_pos;
        let removed = match &mut self.store {
            IndexStore::Ordered(map) => {
                let Some(key) = row_key(column_pos, &rows[pos], ord_key) else {
                    return;
                };
                match map.entry(key) {
                    btree_map::Entry::Vacant(_) => None,
                    btree_map::Entry::Occupied(under) if under.get().positions() == [pos] => {
                        under.remove();
                        Some(0)
                    }
                    btree_map::Entry::Occupied(mut under) => {
                        let at = under.get_mut().withdraw(pos);
                        if at == Some(0) {
                            // The key's first row went: it takes the next
                            // one's spelling.
                            let postings = under.remove();
                            let next = &rows[postings.positions()[0]];
                            let key =
                                row_key(column_pos, next, ord_key).expect("a row has its key");
                            map.insert(key, postings);
                        }
                        at
                    }
                }
            }
            IndexStore::Hash(map) => {
                let Some(key) = row_key(column_pos, &rows[pos], Value::group_key) else {
                    return;
                };
                match map.entry(key) {
                    hash_map::Entry::Vacant(_) => None,
                    hash_map::Entry::Occupied(under) if under.get().positions() == [pos] => {
                        under.remove();
                        Some(0)
                    }
                    hash_map::Entry::Occupied(mut under) => under.get_mut().withdraw(pos),
                }
            }
        };
        self.entries -= usize::from(removed.is_some());
    }

    /// Rows were deleted: every recorded position becomes `moved(position)`.
    /// `moved` must be monotone, which keeps posting lists in position
    /// order.
    pub(crate) fn move_positions(&mut self, moved: impl Fn(usize) -> usize) {
        let shift = |postings: &mut Postings| match postings {
            Postings::One(pos) => *pos = moved(*pos),
            Postings::Many(list) => list.iter_mut().for_each(|pos| *pos = moved(*pos)),
        };
        match &mut self.store {
            IndexStore::Ordered(map) => map.values_mut().for_each(shift),
            IndexStore::Hash(map) => map.values_mut().for_each(shift),
        }
    }

    /// Row positions with the leading key column equal to `value`, in
    /// insertion order — the per-row probe of an index nested-loop join
    /// (single-column indexes only). A NULL probe matches nothing.
    pub fn probe_point(&self, value: &Value) -> &[usize] {
        if value.is_null() || self.width() != 1 {
            return &[];
        }
        let postings = match &self.store {
            IndexStore::Ordered(map) => map.get(slice::from_ref(&ord_key(value))),
            IndexStore::Hash(map) => map.get(slice::from_ref(&value.group_key())),
        };
        postings.map_or(&[], Postings::positions)
    }

    /// Resolve the probe terms to concrete values. `Ok(None)` means the
    /// probe provably matches nothing (a NULL term); an unresolved
    /// parameter is an execution error — the plan should have been bound.
    fn resolve<'b>(
        &self,
        bounds: &'b IndexBounds,
    ) -> Result<Option<ResolvedBounds<'b>>, StoreError> {
        if bounds.eq.len() > self.width()
            || (bounds.eq.len() == self.width() && (bounds.lo.is_some() || bounds.hi.is_some()))
        {
            return Err(StoreError::Eval {
                message: format!(
                    "probe of index {} constrains more key columns than it has ({})",
                    self.def.name,
                    self.width()
                ),
            });
        }
        let value = |t: &'b BoundTerm| -> Result<&'b Value, StoreError> {
            match t {
                BoundTerm::Value(v) => Ok(v),
                BoundTerm::Param(param) => Err(StoreError::Eval {
                    message: format!(
                        "unbound parameter {param} in probe of index {} (the plan was \
                         executed without binding its parameters)",
                        self.def.name
                    ),
                }),
            }
        };
        for t in &bounds.eq {
            if value(t)?.is_null() {
                return Ok(None);
            }
        }
        let side = |b: &'b Option<TermBound>| {
            (b.as_ref().map(|(t, inc)| value(t).map(|v| (v, *inc)))).transpose()
        };
        let (lo, hi) = (side(&bounds.lo)?, side(&bounds.hi)?);
        if lo.is_some_and(|(v, _)| v.is_null()) || hi.is_some_and(|(v, _)| v.is_null()) {
            return Ok(None);
        }
        Ok(Some(ResolvedBounds {
            eq: &bounds.eq,
            lo,
            hi,
        }))
    }

    /// Hand `visit` the ordered store's key groups matching the resolved
    /// bounds, in ascending key order — or descending for
    /// [`ProbeOrder::KeyDesc`].
    fn ordered_groups<'a>(
        map: &'a BTreeMap<Key<OrdKey>, Postings>,
        resolved: &ResolvedBounds<'_>,
        width: usize,
        order: ProbeOrder,
        mut visit: impl FnMut(&'a Key<OrdKey>, &'a [usize]),
    ) {
        let prefix = resolved.eq.len();
        if prefix == width {
            // Exact point lookup.
            let group = with_key(resolved.eq_values(), ord_key, |key| map.get_key_value(key));
            if let Some((key, postings)) = group {
                visit(key, postings.positions());
            }
            return;
        }
        // Seek to the first key that can match: the prefix extended with
        // the lower range value when there is one. An exclusive lower
        // bound still seeks inclusively (keys equal on the range column
        // but longer sort after it) and filters below.
        let start = resolved.eq_values().chain(resolved.lo.map(|(v, _)| v));
        let range = with_key(start, ord_key, |start| match start {
            [] => map.range::<[OrdKey], _>(..),
            start => map.range::<[OrdKey], _>((Seek::Included(start), Seek::Unbounded)),
        });
        // Stop once a key leaves the equality prefix or passes the upper
        // bound; skip a key below the lower bound or NULL in the range
        // column (the comparison is UNKNOWN, never a match; NULL sorts
        // first, so it only leads an unbounded-lo walk).
        let within = |side: Ordering, inclusive: bool| side.is_lt() || (side.is_eq() && inclusive);
        let ranged = resolved.lo.is_some() || resolved.hi.is_some();
        let groups = range
            .take_while(|(key, _)| {
                let values = key.values();
                values.len() >= prefix
                    && (values.iter().zip(resolved.eq_values()))
                        .all(|(k, v)| k.0.total_cmp(v).is_eq())
                    && (resolved.hi)
                        .is_none_or(|(hi, inc)| within(values[prefix].0.total_cmp(hi), inc))
            })
            .filter(|(key, _)| {
                let kv = &key.values()[prefix].0;
                !ranged
                    || (!kv.is_null()
                        && (resolved.lo).is_none_or(|(lo, inc)| within(lo.total_cmp(kv), inc)))
            })
            .map(|(key, postings)| (key, postings.positions()));
        if order == ProbeOrder::KeyDesc {
            let groups: Vec<_> = groups.collect();
            groups
                .into_iter()
                .rev()
                .for_each(|(key, positions)| visit(key, positions));
        } else {
            groups.for_each(|(key, positions)| visit(key, positions));
        }
    }

    /// Row positions matching the bounds, in the requested order:
    /// [`ProbeOrder::Position`] matches a filtered full scan row for row;
    /// `KeyAsc` / `KeyDesc` come back sorted by key (ties in insertion
    /// order), the orders an `ORDER BY`-eliding scan wants.
    ///
    /// Range or prefix bounds on a hash index are an error (the planner
    /// never asks, but hand-built plans could), as is probing a plan whose
    /// parameters were never bound.
    pub fn probe(&self, bounds: &IndexBounds, order: ProbeOrder) -> Result<Vec<usize>, StoreError> {
        let Some(resolved) = self.resolve(bounds)? else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        match &self.store {
            IndexStore::Hash(map) => {
                if !bounds.is_exact(self.width()) {
                    return Err(StoreError::Eval {
                        message: format!(
                            "range or prefix probe against hash index {} (hash indexes \
                             answer exact point probes only)",
                            self.def.name
                        ),
                    });
                }
                let postings = with_key(resolved.eq_values(), Value::group_key, |key| map.get(key));
                if let Some(postings) = postings {
                    out.extend_from_slice(postings.positions());
                }
            }
            IndexStore::Ordered(map) => {
                Self::ordered_groups(map, &resolved, self.width(), order, |_, positions| {
                    out.extend_from_slice(positions)
                });
            }
        }
        if order == ProbeOrder::Position {
            out.sort_unstable();
        }
        Ok(out)
    }

    /// Matching `(row position, key row)` pairs, in the requested order —
    /// the **index-only** access path: when a query touches nothing but the
    /// key columns, these rows answer it without ever reading a heap row.
    /// The rows under one key share one key row. Ordered indexes only (a
    /// hash key does not retain the original values).
    pub fn probe_entries(
        &self,
        bounds: &IndexBounds,
        order: ProbeOrder,
    ) -> Result<Vec<(usize, Row)>, StoreError> {
        let IndexStore::Ordered(map) = &self.store else {
            return Err(StoreError::Eval {
                message: format!(
                    "index-only probe against hash index {} (hash keys do not retain \
                     their column values)",
                    self.def.name
                ),
            });
        };
        let Some(resolved) = self.resolve(bounds)? else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        Self::ordered_groups(map, &resolved, self.width(), order, |key, positions| {
            let row: Row = key.values().iter().map(|k| k.0.clone()).collect();
            out.extend(positions.iter().map(|&pos| (pos, row.clone())));
        });
        if order == ProbeOrder::Position {
            out.sort_unstable_by_key(|(pos, _)| *pos);
        }
        Ok(out)
    }
}

/// Probe terms with every parameter resolved and no NULLs.
struct ResolvedBounds<'b> {
    /// Every term a [`BoundTerm::Value`].
    eq: &'b [BoundTerm],
    lo: Option<(&'b Value, bool)>,
    hi: Option<(&'b Value, bool)>,
}

impl<'b> ResolvedBounds<'b> {
    fn eq_values(&self) -> impl Iterator<Item = &'b Value> + use<'b> {
        self.eq.iter().filter_map(BoundTerm::value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        // Years deliberately out of order with a duplicate and a NULL.
        [2004, 2001, 2004, 1999, 2010]
            .iter()
            .map(|y| Row::new(vec![Value::int(*y)]))
            .chain(std::iter::once(Row::new(vec![Value::Null])))
            .collect()
    }

    fn ordered() -> Index {
        Index::build(
            IndexDef::single("idx_year", "MOVIES", "year", IndexKind::Ordered),
            &rows(),
            vec![0],
        )
    }

    #[test]
    fn point_probe_returns_positions_in_insertion_order() {
        let idx = ordered();
        assert_eq!(idx.probe_point(&Value::int(2004)), &[0, 2]);
        assert_eq!(idx.probe_point(&Value::int(1999)), &[3]);
        assert!(idx.probe_point(&Value::int(1900)).is_empty());
        assert!(idx.probe_point(&Value::Null).is_empty());
        assert_eq!(idx.len(), 5, "the NULL row is not indexed");
        assert_eq!(idx.key_count(), 4);
    }

    #[test]
    fn range_probe_in_position_and_key_order() {
        let idx = ordered();
        let bounds = IndexBounds::range(
            Some((Value::int(2001), true)),
            Some((Value::int(2004), true)),
        );
        // Position order: the filtered-scan row order.
        assert_eq!(
            idx.probe(&bounds, ProbeOrder::Position).unwrap(),
            vec![0, 1, 2]
        );
        // Key order: 2001 first, then the two 2004s in insertion order.
        assert_eq!(
            idx.probe(&bounds, ProbeOrder::KeyAsc).unwrap(),
            vec![1, 0, 2]
        );
        // Descending: the 2004s first (still in insertion order), then 2001.
        assert_eq!(
            idx.probe(&bounds, ProbeOrder::KeyDesc).unwrap(),
            vec![0, 2, 1]
        );
    }

    #[test]
    fn open_and_exclusive_bounds() {
        let idx = ordered();
        let gt = IndexBounds::range(Some((Value::int(2004), false)), None);
        assert_eq!(idx.probe(&gt, ProbeOrder::Position).unwrap(), vec![4]);
        let le = IndexBounds::range(None, Some((Value::int(2001), true)));
        assert_eq!(idx.probe(&le, ProbeOrder::Position).unwrap(), vec![1, 3]);
        let null_bound = IndexBounds::range(Some((Value::Null, true)), None);
        assert!(idx
            .probe(&null_bound, ProbeOrder::Position)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn inverted_and_degenerate_ranges_are_empty_not_panics() {
        let idx = ordered();
        // BETWEEN 2004 AND 2001, as a user could write it.
        let inverted = IndexBounds::range(
            Some((Value::int(2004), true)),
            Some((Value::int(2001), true)),
        );
        assert!(idx
            .probe(&inverted, ProbeOrder::Position)
            .unwrap()
            .is_empty());
        // x > 2004 AND x < 2004 collapses to an empty exclusive range.
        let hollow = IndexBounds::range(
            Some((Value::int(2004), false)),
            Some((Value::int(2004), false)),
        );
        assert!(idx.probe(&hollow, ProbeOrder::Position).unwrap().is_empty());
        // x >= 2004 AND x <= 2004 is a point in range clothing.
        let pinched = IndexBounds::range(
            Some((Value::int(2004), true)),
            Some((Value::int(2004), true)),
        );
        assert_eq!(
            idx.probe(&pinched, ProbeOrder::Position).unwrap(),
            vec![0, 2]
        );
    }

    #[test]
    fn hash_index_points_only() {
        let idx = Index::build(
            IndexDef::single("h", "T", "c", IndexKind::Hash),
            &rows(),
            vec![0],
        );
        assert_eq!(idx.probe_point(&Value::int(2004)), &[0, 2]);
        assert!(!idx.supports_range());
        let err = idx
            .probe(
                &IndexBounds::range(Some((Value::int(0), true)), None),
                ProbeOrder::Position,
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Eval { .. }));
    }

    #[test]
    fn ordered_index_compares_mixed_numerics_like_sql() {
        let rows = vec![
            Row::new(vec![Value::Float(3.0)]),
            Row::new(vec![Value::Float(4.5)]),
        ];
        let idx = Index::build(
            IndexDef::single("f", "T", "x", IndexKind::Ordered),
            &rows,
            vec![0],
        );
        // SQL says 3 = 3.0; the ordered index agrees via total_cmp.
        assert_eq!(idx.probe_point(&Value::int(3)), &[0]);
        let bounds = IndexBounds::range(Some((Value::int(3), false)), None);
        assert_eq!(idx.probe(&bounds, ProbeOrder::Position).unwrap(), vec![1]);
    }

    #[test]
    fn bounds_describe_reads_like_sql() {
        assert_eq!(
            IndexBounds::point(Value::int(5)).describe(&["m.id"]),
            "m.id = 5"
        );
        assert_eq!(
            IndexBounds::range(
                Some((Value::int(2000), true)),
                Some((Value::int(2005), false)),
            )
            .describe(&["m.year"]),
            "m.year >= 2000 AND m.year < 2005"
        );
        assert_eq!(
            IndexBounds {
                eq: vec![
                    BoundTerm::Param(Param::Outer(0)),
                    BoundTerm::Value(Value::text("x"))
                ],
                lo: None,
                hi: None,
            }
            .describe(&["g.mid", "g.genre"]),
            "g.mid = $0 AND g.genre = 'x'"
        );
    }

    fn composite_rows() -> Vec<Row> {
        // (mid, genre) pairs, out of order, with a trailing-NULL and a
        // leading-NULL row.
        [
            (Some(2), Some("drama")),
            (Some(1), Some("comedy")),
            (Some(2), Some("comedy")),
            (Some(1), None),
            (None, Some("drama")),
            (Some(3), Some("noir")),
        ]
        .iter()
        .map(|(mid, genre)| {
            Row::new(vec![
                mid.map(Value::int).unwrap_or(Value::Null),
                genre.map(Value::text).unwrap_or(Value::Null),
            ])
        })
        .collect()
    }

    fn composite() -> Index {
        Index::build(
            IndexDef {
                name: "idx_mid_genre".into(),
                table: "GENRE".into(),
                columns: vec!["mid".into(), "genre".into()],
                kind: IndexKind::Ordered,
            },
            &composite_rows(),
            vec![0, 1],
        )
    }

    #[test]
    fn composite_exact_probe_pins_every_column() {
        let idx = composite();
        assert_eq!(idx.len(), 5, "the leading-NULL row is not indexed");
        let bounds = IndexBounds {
            eq: vec![
                BoundTerm::Value(Value::int(2)),
                BoundTerm::Value(Value::text("comedy")),
            ],
            lo: None,
            hi: None,
        };
        assert!(bounds.is_exact(2));
        assert_eq!(idx.probe(&bounds, ProbeOrder::Position).unwrap(), vec![2]);
        // A NULL equality term matches nothing.
        let null_eq = IndexBounds {
            eq: vec![
                BoundTerm::Value(Value::int(1)),
                BoundTerm::Value(Value::Null),
            ],
            lo: None,
            hi: None,
        };
        assert!(idx
            .probe(&null_eq, ProbeOrder::Position)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn composite_prefix_probe_keeps_trailing_null_rows() {
        let idx = composite();
        // mid = 1 must return the (1, NULL) row a filtered scan would.
        let bounds = IndexBounds::prefix(vec![BoundTerm::Value(Value::int(1))]);
        assert_eq!(
            idx.probe(&bounds, ProbeOrder::Position).unwrap(),
            vec![1, 3]
        );
        // Key order: NULL genre sorts first.
        assert_eq!(idx.probe(&bounds, ProbeOrder::KeyAsc).unwrap(), vec![3, 1]);
        assert_eq!(idx.probe(&bounds, ProbeOrder::KeyDesc).unwrap(), vec![1, 3]);
    }

    #[test]
    fn composite_prefix_plus_range_excludes_null_range_column() {
        let idx = composite();
        // mid = 1 AND genre >= 'a': the (1, NULL) row must NOT match.
        let bounds = IndexBounds {
            eq: vec![BoundTerm::Value(Value::int(1))],
            lo: Some((BoundTerm::Value(Value::text("a")), true)),
            hi: None,
        };
        assert_eq!(idx.probe(&bounds, ProbeOrder::Position).unwrap(), vec![1]);
        // mid = 2 AND genre < 'd': comedy only.
        let bounds = IndexBounds {
            eq: vec![BoundTerm::Value(Value::int(2))],
            lo: None,
            hi: Some((BoundTerm::Value(Value::text("d")), false)),
        };
        assert_eq!(idx.probe(&bounds, ProbeOrder::Position).unwrap(), vec![2]);
        // mid = 1 AND genre < 'd': NULL sorts below 'd', yet (1, NULL) is
        // no match.
        let bounds = IndexBounds {
            eq: vec![BoundTerm::Value(Value::int(1))],
            ..bounds
        };
        assert_eq!(idx.probe(&bounds, ProbeOrder::Position).unwrap(), vec![1]);
    }

    #[test]
    fn parameterized_probe_binds_then_probes() {
        let idx = composite();
        let bounds = IndexBounds::prefix(vec![BoundTerm::Param(Param::Outer(0))]);
        assert!(bounds.is_correlated());
        let literal = IndexBounds::prefix(vec![BoundTerm::Param(Param::Stmt(0))]);
        assert!(!literal.is_correlated());
        // Probing before binding is an execution error, not a wrong answer.
        assert!(matches!(
            idx.probe(&bounds, ProbeOrder::Position).unwrap_err(),
            StoreError::Eval { .. }
        ));
        let mut bound = bounds.clone();
        bound.bind(&|_| Some(&Value::Integer(2)));
        assert!(!bound.is_correlated());
        assert_eq!(idx.probe(&bound, ProbeOrder::Position).unwrap(), vec![0, 2]);
        // A NULL binding matches nothing, like any NULL equality.
        let mut null_bound = bounds;
        null_bound.bind(&|_| Some(&Value::Null));
        assert!(idx
            .probe(&null_bound, ProbeOrder::Position)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn index_only_probe_returns_key_values() {
        let idx = composite();
        let bounds = IndexBounds::prefix(vec![BoundTerm::Value(Value::int(2))]);
        let entries = idx.probe_entries(&bounds, ProbeOrder::Position).unwrap();
        assert_eq!(
            entries,
            vec![
                (0, Row::new(vec![Value::int(2), Value::text("drama")])),
                (2, Row::new(vec![Value::int(2), Value::text("comedy")])),
            ]
        );
        let entries = idx.probe_entries(&bounds, ProbeOrder::KeyAsc).unwrap();
        assert_eq!(entries[0].0, 2, "comedy sorts before drama");
        // A trailing NULL is reconstructible from the key.
        let one = IndexBounds::prefix(vec![BoundTerm::Value(Value::int(1))]);
        let entries = idx.probe_entries(&one, ProbeOrder::Position).unwrap();
        assert_eq!(entries[1], (3, Row::new(vec![Value::int(1), Value::Null])));
        // Hash indexes cannot answer index-only probes.
        let hash = Index::build(
            IndexDef::single("h", "T", "c", IndexKind::Hash),
            &rows(),
            vec![0],
        );
        assert!(hash
            .probe_entries(&IndexBounds::point(Value::int(2004)), ProbeOrder::Position)
            .is_err());
    }

    #[test]
    fn an_edited_index_is_the_index_a_fresh_build_would_be() {
        // `0.0`/`-0.0` and `3`/`3.0` are one key each, spelled like the
        // first row under it.
        let mut rows: Vec<Row> = [
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Integer(3),
            Value::Float(3.0),
            Value::Integer(5),
            Value::Null,
        ]
        .into_iter()
        .map(|v| Row::new(vec![v]))
        .collect();
        let def = IndexDef::single("x", "T", "x", IndexKind::Ordered);
        let mut idx = Index::build(def.clone(), &rows, vec![0]);
        let same_as_fresh = |idx: &Index, rows: &[Row]| {
            let fresh = Index::build(def.clone(), rows, vec![0]);
            assert_eq!(format!("{:?}", idx.store), format!("{:?}", fresh.store));
            assert_eq!(
                (idx.len(), idx.key_count()),
                (fresh.len(), fresh.key_count())
            );
        };
        let update = |idx: &mut Index, rows: &mut Vec<Row>, pos: usize, v: Value| {
            idx.remove(rows, pos);
            rows[pos] = Row::new(vec![v]);
            idx.insert(&rows[pos], pos);
        };
        // The first row of a key leaves it: the key is respelled `-0.0`.
        update(&mut idx, &mut rows, 0, Value::Integer(5));
        assert_eq!(
            idx.probe_point(&Value::int(5)),
            &[0, 4],
            "in position order"
        );
        same_as_fresh(&idx, &rows);
        // A row enters in front of a key's rows: respelled `3.0`.
        update(&mut idx, &mut rows, 1, Value::Float(3.0));
        assert_eq!(idx.probe_point(&Value::int(3)), &[1, 2, 3]);
        same_as_fresh(&idx, &rows);
        // To and from NULL (not indexed), and a key that empties.
        update(&mut idx, &mut rows, 2, Value::Null);
        update(&mut idx, &mut rows, 5, Value::Integer(7));
        update(&mut idx, &mut rows, 5, Value::Integer(8));
        assert!(idx.probe_point(&Value::int(7)).is_empty());
        same_as_fresh(&idx, &rows);
        // Rows 1 and 3 are deleted: what was behind them moves down.
        idx.remove(&rows, 1);
        idx.remove(&rows, 3);
        idx.move_positions(|pos| pos - usize::from(pos > 1) - usize::from(pos > 3));
        rows.remove(3);
        rows.remove(1);
        same_as_fresh(&idx, &rows);
    }

    #[test]
    fn probe_wider_than_the_index_is_an_error() {
        let idx = ordered();
        let too_wide = IndexBounds {
            eq: vec![
                BoundTerm::Value(Value::int(2004)),
                BoundTerm::Value(Value::int(1)),
            ],
            lo: None,
            hi: None,
        };
        assert!(idx.probe(&too_wide, ProbeOrder::Position).is_err());
        let eq_plus_range = IndexBounds {
            eq: vec![BoundTerm::Value(Value::int(2004))],
            lo: Some((BoundTerm::Value(Value::int(1)), true)),
            hi: None,
        };
        assert!(idx.probe(&eq_plus_range, ProbeOrder::Position).is_err());
    }
}
