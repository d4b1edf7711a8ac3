//! The batch operators hand each other: positions in the stores that hold
//! the rows (see "Batches" in the [`crate::exec`] docs). An operator's
//! batches have one layout — part count and column map — for a whole run,
//! which is what lets a join gather batch after batch into one output
//! (`Gathered`) and make its column map once (`LayoutCache`).

use crate::table::Table;
use crate::tuple::{Row, RowView};
use crate::value::Value;
use std::ops::Range;
use std::sync::Arc;

static NULL: Value = Value::Null;

/// Output column `j` is column `map[j].1` of part `map[j].0`'s rows.
pub(crate) type ColumnMap = Arc<[(usize, usize)]>;

/// Where a part's rows lie.
#[derive(Debug)]
pub(crate) enum Store {
    /// A table's rows, lent by the operator that reads the table.
    Table(Arc<Table>),
    /// Rows an operator holds for a run and lends: a hash join's build side,
    /// a `VALUES` list, an index-only scan's keys.
    Shared(Arc<[Row]>),
    /// Rows only this batch holds.
    Owned(Vec<Row>),
}

impl Store {
    fn rows(&self) -> &[Row] {
        match self {
            Store::Table(table) => table.rows(),
            Store::Shared(rows) => rows,
            Store::Owned(rows) => rows,
        }
    }

    /// Whether both are the same lent store.
    fn same(&self, other: &Store) -> bool {
        match (self, other) {
            (Store::Table(a), Store::Table(b)) => Arc::ptr_eq(a, b),
            (Store::Shared(a), Store::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A part's positions in its store, in batch order: `start..end`, or a list.
#[derive(Debug, Clone)]
enum Sel {
    Span(usize, usize),
    List(Vec<usize>),
}

impl Sel {
    fn len(&self) -> usize {
        match self {
            Sel::Span(start, end) => end - start,
            Sel::List(list) => list.len(),
        }
    }

    #[inline]
    fn at(&self, i: usize) -> usize {
        match self {
            Sel::Span(start, _) => start + i,
            Sel::List(list) => list[i],
        }
    }

    /// Keep the positions whose `mask` flag is set.
    fn retain(&mut self, mask: &[bool]) {
        let kept = mask.iter().filter(|&&keep| keep).count();
        match self {
            _ if kept == mask.len() => {}
            Sel::Span(start, end) => {
                let flags = mask.iter().zip(*start..*end);
                let mut list = Vec::with_capacity(kept);
                list.extend(flags.filter(|&(&keep, _)| keep).map(|(_, p)| p));
                *self = Sel::List(list);
            }
            Sel::List(list) => {
                let mut flags = mask.iter();
                list.retain(|_| *flags.next().expect("a flag per row"));
            }
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            Sel::Span(start, end) => *end = (*end).min(*start + n),
            Sel::List(list) => list.truncate(n),
        }
    }
}

/// A store and the positions of the batch's rows in it.
#[derive(Debug)]
struct Part {
    store: Store,
    sel: Sel,
}

impl Part {
    #[inline]
    fn row(&self, i: usize) -> &Row {
        &self.store.rows()[self.sel.at(i)]
    }

    /// Append the rows of `store` at `positions`: as positions when it is
    /// this part's store, or else as handles in a store of the part's own.
    fn extend(&mut self, store: &Store, positions: impl Iterator<Item = usize>) {
        if self.store.same(store) {
            if let Sel::Span(start, end) = self.sel {
                self.sel = Sel::List((start..end).collect());
            }
            if let Sel::List(list) = &mut self.sel {
                list.extend(positions);
            }
            return;
        }
        let empty = Part {
            store: Store::Owned(Vec::new()),
            sel: Sel::Span(0, 0),
        };
        let mut rows: Vec<Row> = match std::mem::replace(self, empty) {
            Part {
                store: Store::Owned(rows),
                sel: Sel::Span(0, end),
            } if end == rows.len() => rows,
            old => (0..old.sel.len()).map(|i| old.row(i).clone()).collect(),
        };
        rows.extend(positions.map(|p| store.rows()[p].clone()));
        self.sel = Sel::Span(0, rows.len());
        self.store = Store::Owned(rows);
    }

    /// The first `n` rows as a part of their own; this one keeps the rest.
    fn split_front(&mut self, n: usize) -> Part {
        let sel = match &mut self.sel {
            Sel::Span(start, _) => {
                *start += n;
                Sel::Span(*start - n, *start)
            }
            Sel::List(list) => Sel::List(list.drain(..n).collect()),
        };
        let store = match &self.store {
            Store::Table(table) => Store::Table(Arc::clone(table)),
            Store::Shared(rows) => Store::Shared(Arc::clone(rows)),
            Store::Owned(rows) => {
                let rows = (0..n).map(|i| rows[sel.at(i)].clone()).collect();
                return Part {
                    store: Store::Owned(rows),
                    sel: Sel::Span(0, n),
                };
            }
        };
        Part { store, sel }
    }
}

/// A batch of rows, as positions in the stores that hold them.
#[derive(Debug)]
pub struct Batch {
    head: Part,
    rest: Vec<Part>,
    /// `None` when the batch's columns are its one part's rows as stored.
    map: Option<ColumnMap>,
}

impl Batch {
    /// The rows of `store` at positions `range`.
    pub(crate) fn span(store: Store, range: Range<usize>) -> Batch {
        Batch::of(store, Sel::Span(range.start, range.end))
    }

    /// The rows of `table` at `positions`, lent.
    pub(crate) fn positions(table: &Arc<Table>, positions: Vec<usize>) -> Batch {
        Batch::of(Store::Table(Arc::clone(table)), Sel::List(positions))
    }

    fn of(store: Store, sel: Sel) -> Batch {
        let head = Part { store, sel };
        Batch {
            head,
            rest: Vec::new(),
            map: None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.head.sel.len()
    }

    /// True when the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn part(&self, k: usize) -> &Part {
        match k {
            0 => &self.head,
            k => &self.rest[k - 1],
        }
    }

    /// The part and the column of its rows that output column `c` reads (a
    /// column past the end reads NULL).
    #[inline]
    fn slot(&self, c: usize) -> (usize, usize) {
        match &self.map {
            None => (0, c),
            Some(map) => map.get(c).copied().unwrap_or((0, usize::MAX)),
        }
    }

    /// Column `c` of row `i`; `None` past the row's end.
    #[inline]
    pub fn value(&self, i: usize, c: usize) -> Option<&Value> {
        let (k, column) = self.slot(c);
        self.part(k).row(i).get(column)
    }

    /// Row `i`, read where it lies.
    pub fn row(&self, i: usize) -> BatchRow<'_> {
        let stored = self.map.is_none().then(|| self.head.row(i));
        BatchRow {
            batch: self,
            i,
            stored,
        }
    }

    /// Column `c` of every row, in order; NULL where a row has none.
    pub fn column(&self, c: usize) -> Column<'_> {
        let (k, column) = self.slot(c);
        let part = self.part(k);
        let rows = part.store.rows();
        let rows = match &part.sel {
            Sel::Span(start, end) => Rows::Span(rows[*start..*end].iter()),
            Sel::List(list) => Rows::List(rows, list.iter()),
        };
        Column { rows, column }
    }

    /// Row `i` as a row of its own: the stored row's handle when the
    /// batch's columns are that row's, a new row of the values otherwise.
    pub fn to_row(&self, i: usize) -> Row {
        match &self.map {
            None => self.head.row(i).clone(),
            Some(map) if map.is_empty() => Row::empty(),
            Some(map) => (map.iter())
                .map(|&(k, c)| self.part(k).row(i).get(c).unwrap_or(&NULL).clone())
                .collect(),
        }
    }

    /// Append the batch's rows to `out` ([`Batch::to_row`]); rows that are
    /// the batch's own, all of them in order, move over.
    pub fn drain_into(self, out: &mut Vec<Row>) {
        out.reserve(self.len());
        match self {
            Batch {
                map: None,
                head:
                    Part {
                        store: Store::Owned(rows),
                        sel: Sel::Span(0, end),
                    },
                ..
            } if end == rows.len() => out.extend(rows),
            batch => out.extend((0..batch.len()).map(|i| batch.to_row(i))),
        }
    }

    /// Keep the rows whose `mask` flag is set.
    pub(crate) fn narrow(&mut self, mask: &[bool]) {
        debug_assert_eq!(mask.len(), self.len(), "a flag per row");
        self.head.sel.retain(mask);
        self.rest.iter_mut().for_each(|part| part.sel.retain(mask));
    }

    /// Keep the first `n` rows.
    pub(crate) fn truncate(&mut self, n: usize) {
        self.head.sel.truncate(n);
        self.rest.iter_mut().for_each(|part| part.sel.truncate(n));
    }

    /// Read the rows through another column map (from [`LayoutCache`]).
    pub(crate) fn remap(&mut self, map: ColumnMap) {
        self.map = Some(map);
    }
}

/// A batch of rows that are the batch's own.
impl From<Vec<Row>> for Batch {
    fn from(rows: Vec<Row>) -> Batch {
        let len = rows.len();
        Batch::span(Store::Owned(rows), 0..len)
    }
}

/// One row of a batch, read where its store holds it.
#[derive(Debug, Clone, Copy)]
pub struct BatchRow<'a> {
    batch: &'a Batch,
    i: usize,
    /// The stored row, when the batch's columns are its columns.
    stored: Option<&'a Row>,
}

impl RowView for BatchRow<'_> {
    #[inline]
    fn value(&self, c: usize) -> Option<&Value> {
        match self.stored {
            Some(row) => row.get(c),
            None => self.batch.value(self.i, c),
        }
    }
}

/// A column of a batch, row by row ([`Batch::column`]): a span's rows in
/// order, or a list's positions looked up.
#[derive(Debug, Clone)]
pub struct Column<'a> {
    rows: Rows<'a>,
    column: usize,
}

#[derive(Debug, Clone)]
enum Rows<'a> {
    Span(std::slice::Iter<'a, Row>),
    List(&'a [Row], std::slice::Iter<'a, usize>),
}

impl<'a> Iterator for Column<'a> {
    type Item = &'a Value;

    #[inline]
    fn next(&mut self) -> Option<&'a Value> {
        let row = match &mut self.rows {
            Rows::Span(rows) => rows.next()?,
            Rows::List(rows, positions) => &rows[*positions.next()?],
        };
        Some(row.get(self.column).unwrap_or(&NULL))
    }
}

/// A join's output while it is put together: its probe batches' rows at the
/// positions that matched, beside its other side's rows at their matches.
/// Batches of one layout add to the same parts, so the output keeps the
/// batch boundaries of a join that built each row.
#[derive(Debug, Default)]
pub(crate) struct Gathered {
    parts: Vec<Part>,
    map: Option<ColumnMap>,
}

impl Gathered {
    /// Rows gathered and not yet handed on.
    pub(crate) fn len(&self) -> usize {
        self.parts.first().map_or(0, |part| part.sel.len())
    }

    /// Let go of every row gathered, and of every store.
    pub(crate) fn clear(&mut self) {
        self.parts.clear();
        self.map = None;
    }

    /// Append, for each pair, the row of `batch` at its first position
    /// beside the row of `other` at its second: the parts `layout` keeps.
    pub(crate) fn append(
        &mut self,
        batch: Batch,
        pairs: &[(usize, usize)],
        other: Store,
        layout: &Layout,
    ) {
        let fresh = self.parts.is_empty();
        let kept = (std::iter::once(batch.head).chain(batch.rest).enumerate())
            .filter(|(k, _)| layout.keep.contains(k))
            .map(|(_, part)| (part.store, Some(part.sel)));
        let other = layout.other.then_some((other, None));
        for (at, (store, sel)) in kept.chain(other).enumerate() {
            let positions = pairs
                .iter()
                .map(|&(i, o)| sel.as_ref().map_or(o, |s| s.at(i)));
            match fresh {
                true => self.parts.push(Part {
                    store,
                    sel: Sel::List(positions.collect()),
                }),
                false => self.parts[at].extend(&store, positions),
            }
        }
        if fresh {
            self.map = Some(Arc::clone(&layout.map));
        }
    }

    /// Hand on the first `n` rows gathered (all of them, when there are no
    /// more), keeping the rest; `None` when there are none.
    pub(crate) fn take(&mut self, n: usize) -> Option<Batch> {
        let mut parts = match self.len() {
            0 => return None,
            len if len <= n => std::mem::take(&mut self.parts),
            _ => self
                .parts
                .iter_mut()
                .map(|part| part.split_front(n))
                .collect(),
        };
        let head = parts.remove(0);
        Some(Batch {
            head,
            rest: parts,
            map: self.map.clone(),
        })
    }
}

/// What an operator makes of its input's layout: its output's column map
/// and, for a join, the parts it keeps — those a column of its output reads,
/// or else the other side's alone, for the number of rows.
#[derive(Debug)]
pub(crate) struct Layout {
    pub(crate) map: ColumnMap,
    /// The input's parts kept, in order, and whether the other side's is,
    /// after them.
    keep: Vec<usize>,
    other: bool,
}

/// An operator's [`Layout`], made once per input layout.
#[derive(Debug, Default)]
pub(crate) struct LayoutCache {
    made: Option<(Option<ColumnMap>, usize, Layout)>,
}

impl LayoutCache {
    /// The layout whose column `j` is `batch`'s column `outputs[j]` — for a
    /// join, of `batch`'s columns followed, from `split` on, by the other
    /// side's.
    pub(crate) fn get(
        &mut self,
        batch: &Batch,
        outputs: &[usize],
        split: Option<usize>,
    ) -> &Layout {
        let parts = 1 + batch.rest.len();
        let ptr = |map: &Option<ColumnMap>| map.as_ref().map(Arc::as_ptr);
        let same = |(map, count, _): &(Option<ColumnMap>, usize, Layout)| {
            *count == parts && ptr(map) == ptr(&batch.map)
        };
        if !self.made.as_ref().is_some_and(same) {
            let slot = |o: usize| match split {
                Some(split) if o >= split => (parts, o - split),
                _ => batch.slot(o),
            };
            let read = |k: usize| outputs.iter().any(|&o| slot(o).0 == k);
            let join = split.is_some();
            let keep: Vec<usize> = (0..parts).filter(|&k| join && read(k)).collect();
            let other = join && (read(parts) || keep.is_empty());
            // A join's parts are numbered anew among those it keeps.
            let map = outputs.iter().map(|&o| match slot(o) {
                (part, column) if join => {
                    let at = keep.iter().position(|&k| k == part);
                    (at.unwrap_or(keep.len()), column)
                }
                kept => kept,
            });
            let layout = Layout {
                map: map.collect(),
                keep,
                other,
            };
            self.made = Some((batch.map.clone(), parts, layout));
        }
        &self.made.as_ref().expect("made above").2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: i64) -> Arc<[Row]> {
        (0..n)
            .map(|i| Row::new(vec![Value::int(i), Value::int(i * 10)]))
            .collect()
    }

    fn values(batch: &Batch) -> Vec<Vec<Value>> {
        (0..batch.len())
            .map(|i| batch.to_row(i).into_values())
            .collect()
    }

    #[test]
    fn a_gathered_join_reads_as_the_rows_it_pairs() {
        let right = rows(3);
        let other = || Store::Shared(Arc::clone(&right));
        let (mut gathered, mut cache) = (Gathered::default(), LayoutCache::default());
        // Output: right.1, left.0 — positions of left ++ right.
        let probe = Batch::span(Store::Shared(rows(4)), 0..4);
        let layout = cache.get(&probe, &[3, 0], Some(2));
        gathered.append(probe, &[(1, 2), (3, 0)], other(), layout);
        // An owned batch of the same layout is appended by its handles.
        let owned = Batch::from(rows(2).to_vec());
        let layout = cache.get(&owned, &[3, 0], Some(2));
        gathered.append(owned, &[(0, 1)], other(), layout);
        let int = Value::int;
        let first = gathered.take(2).unwrap();
        assert_eq!(values(&first), [[int(20), int(1)], [int(0), int(3)]]);
        let rest = gathered.take(2).unwrap();
        assert_eq!(values(&rest), [[int(10), int(0)]]);
        assert!(gathered.take(2).is_none());
        // A join whose output reads no column keeps one part, for the count.
        let probe = Batch::span(Store::Shared(rows(4)), 0..4);
        let mut cache = LayoutCache::default();
        let layout = cache.get(&probe, &[], Some(2));
        assert!(layout.map.is_empty() && layout.keep.is_empty() && layout.other);
    }

    #[test]
    fn narrowing_truncating_and_remapping_read_the_same_rows() {
        let mut batch = Batch::span(Store::Shared(rows(6)), 1..6);
        batch.narrow(&[true, false, true, true, false]);
        assert_eq!(batch.len(), 3);
        let map = Arc::clone(&LayoutCache::default().get(&batch, &[1, 1], None).map);
        batch.remap(map);
        batch.truncate(2);
        let column: Vec<&Value> = batch.column(0).collect();
        assert_eq!(column, [&Value::int(10), &Value::int(30)]);
        assert_eq!(batch.row(1).value(1), Some(&Value::int(30)));
        assert_eq!(batch.value(0, 2), None);
        let mut out = Vec::new();
        batch.drain_into(&mut out);
        let int = Value::int;
        assert_eq!(
            out,
            [
                Row::new(vec![int(10), int(10)]),
                Row::new(vec![int(30), int(30)])
            ]
        );
    }
}
