//! A single in-memory table: rows, insertion-time type/constraint checking,
//! and the state derived from the rows — primary-key map, secondary indexes,
//! column summaries — which the table keeps current itself.

use crate::error::StoreError;
use crate::exec::plan::{Relation, RelationMemo};
use crate::index::{Index, IndexDef};
use crate::schema::TableSchema;
use crate::stats::LiveColumn;
use crate::tuple::Row;
use crate::value::{GroupKey, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// An in-memory table. Rows are stored in insertion order (which the
/// deterministic data generators rely on for reproducible narratives) with a
/// hash index on the primary key for FK checks and point lookups, any number
/// of secondary [`Index`]es (see [`crate::index`]) and one running summary
/// per column (see [`crate::stats`]). Only [`Table::insert`],
/// [`Table::delete_where`] and [`Table::update_where`] change rows, and each
/// edits all of that for exactly the rows it touches: a write costs what it
/// touches, not what the table holds.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Row>,
    /// Primary-key index: key values -> row position. Only maintained when
    /// the schema declares a primary key.
    pk_index: HashMap<Vec<GroupKey>, usize>,
    /// Secondary indexes, in creation order. Cloned with the table, so a
    /// copy-on-write snapshot keeps probing its own index versions.
    indexes: Vec<Index>,
    /// What the statistics are read from, one per schema column; cloned
    /// with the table like the indexes.
    summaries: Vec<LiveColumn>,
    /// The columns as each alias reads them (see [`Table::relation`]).
    relations: Arc<RelationMemo>,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: TableSchema) -> Table {
        let summaries = schema
            .columns
            .iter()
            .map(|c| LiveColumn::new(c.data_type))
            .collect();
        Table {
            schema,
            rows: Vec::new(),
            pk_index: HashMap::new(),
            indexes: Vec::new(),
            summaries,
            relations: Arc::default(),
        }
    }

    /// The table as `alias` reads it, spelled `table` as a plan names it.
    pub(crate) fn relation(&self, table: &str, alias: &str) -> Arc<Relation> {
        let names = self.schema.columns.iter().map(|c| c.name.as_str());
        self.relations.get(table, alias, names)
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Row at a given position.
    pub fn row(&self, i: usize) -> Option<&Row> {
        self.rows.get(i)
    }

    /// Validate a row against the schema: arity, types, nullability.
    pub fn validate_row(&self, row: &Row) -> Result<(), StoreError> {
        if row.arity() != self.schema.arity() {
            return Err(StoreError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                found: row.arity(),
            });
        }
        for (col, value) in self.schema.columns.iter().zip(row.values()) {
            match value.data_type() {
                None => {
                    if !col.nullable {
                        return Err(StoreError::NullViolation {
                            table: self.schema.name.clone(),
                            column: col.name.clone(),
                        });
                    }
                }
                Some(dt) => {
                    if !col.data_type.accepts(dt) {
                        return Err(StoreError::TypeMismatch {
                            table: self.schema.name.clone(),
                            column: col.name.clone(),
                            expected: col.data_type,
                            found: dt,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn pk_key(&self, row: &Row) -> Option<Vec<GroupKey>> {
        let idx = self.schema.primary_key_indices();
        if idx.is_empty() {
            None
        } else {
            Some(row.group_key(&idx))
        }
    }

    /// Insert a row, enforcing types, NOT NULL and primary-key uniqueness.
    /// Every secondary index and column summary is maintained in the same
    /// step.
    pub fn insert(&mut self, row: Row) -> Result<usize, StoreError> {
        self.validate_row(&row)?;
        let pos = self.rows.len();
        if let Some(key) = self.pk_key(&row) {
            match self.pk_index.entry(key) {
                Entry::Occupied(taken) => {
                    return Err(StoreError::DuplicateKey {
                        table: self.schema.name.clone(),
                        key: format!("{:?}", taken.key()),
                    });
                }
                Entry::Vacant(free) => {
                    free.insert(pos);
                }
            }
        }
        self.rows.push(row);
        self.enter(pos);
        Ok(pos)
    }

    /// Register the row at `pos` with every index and column summary.
    fn enter(&mut self, pos: usize) {
        let row = &self.rows[pos];
        for index in &mut self.indexes {
            index.insert(row, pos);
        }
        for (summary, value) in self.summaries.iter_mut().zip(row.values()) {
            summary.add(value);
        }
    }

    /// Withdraw the row at `pos` from the primary-key map, every index and
    /// column summary (the row itself stays where it is).
    fn leave(&mut self, pos: usize) {
        let row = &self.rows[pos];
        if let Some(key) = self.pk_key(row) {
            if self.pk_index.get(&key) == Some(&pos) {
                self.pk_index.remove(&key);
            }
        }
        for index in &mut self.indexes {
            index.remove(&self.rows, pos);
        }
        for (summary, value) in self.summaries.iter_mut().zip(row.values()) {
            summary.remove(value);
        }
    }

    /// Insert from a vector of values.
    pub fn insert_values(&mut self, values: Vec<Value>) -> Result<usize, StoreError> {
        self.insert(Row::new(values))
    }

    /// Look up a row by primary-key values.
    pub fn find_by_pk(&self, key_values: &[Value]) -> Option<&Row> {
        let key: Vec<GroupKey> = key_values.iter().map(|v| v.group_key()).collect();
        self.pk_index.get(&key).and_then(|&i| self.rows.get(i))
    }

    /// True if a row with the given primary-key values exists. Used for
    /// foreign-key enforcement by [`crate::database::Database`].
    pub fn contains_pk(&self, key_values: &[Value]) -> bool {
        self.find_by_pk(key_values).is_some()
    }

    /// All values of one column, in row order.
    pub fn column_values(&self, column: &str) -> Vec<Value> {
        match self.schema.column_index(column) {
            Some(i) => self
                .rows
                .iter()
                .map(|r| r.get(i).cloned().unwrap_or(Value::Null))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Delete rows matching a predicate; returns how many were removed.
    /// The doomed rows' entries leave the primary-key map, the indexes and
    /// the column summaries one by one; if a surviving row sits behind a
    /// doomed one, the positions on record move down in one pass (when the
    /// doomed rows are the table's tail, nothing is behind them).
    pub fn delete_where<F: Fn(&Row) -> bool>(&mut self, pred: F) -> usize {
        let doomed: Vec<usize> = (0..self.rows.len())
            .filter(|&pos| pred(&self.rows[pos]))
            .collect();
        let Some(&first) = doomed.first() else {
            return 0;
        };
        for &pos in &doomed {
            self.leave(pos);
        }
        let survivors = self.rows.len() - doomed.len();
        if first == survivors {
            self.rows.truncate(survivors);
        } else {
            let moved = |pos: usize| pos - doomed.partition_point(|&gone| gone < pos);
            for pos in self.pk_index.values_mut() {
                *pos = moved(*pos);
            }
            for index in &mut self.indexes {
                index.move_positions(moved);
            }
            let (mut pos, mut gone) = (0, doomed.iter().peekable());
            self.rows.retain(|_| {
                pos += 1;
                gone.next_if_eq(&&(pos - 1)).is_none()
            });
        }
        doomed.len()
    }

    /// Update rows via a closure; returns how many rows were visited and
    /// potentially modified. Every updated row is computed first; if two of
    /// them come to share a primary key, or one takes the key of a row the
    /// update leaves alone, nothing changes and the answer is
    /// [`StoreError::DuplicateKey`]. Otherwise each touched row is withdrawn
    /// from the primary-key map, the indexes and the column summaries as it
    /// was and entered again as it has become. What the closure wrote is not
    /// otherwise validated.
    pub fn update_where<P, U>(&mut self, pred: P, update: U) -> Result<usize, StoreError>
    where
        P: Fn(&Row) -> bool,
        U: Fn(&mut Row),
    {
        let updated: Vec<(usize, Row)> = (self.rows.iter().enumerate())
            .filter(|(_, row)| pred(row))
            .map(|(pos, row)| {
                let mut row = row.clone();
                update(&mut row);
                (pos, row)
            })
            .collect();
        let mut claimed = HashMap::new();
        for (pos, row) in &updated {
            let Some(key) = self.pk_key(row) else { break };
            // A key's holder keeps it unless the update rewrites that row too.
            let held = self.pk_index.get(&key).filter(|&&holder| {
                holder != *pos && updated.binary_search_by_key(&holder, |u| u.0).is_err()
            });
            if held.is_some() || claimed.insert(key.clone(), *pos).is_some() {
                return Err(StoreError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key: format!("{key:?}"),
                });
            }
        }
        for &(pos, _) in &updated {
            self.leave(pos);
        }
        self.pk_index.extend(claimed);
        let touched = updated.len();
        for (pos, row) in updated {
            self.rows[pos] = row;
            self.enter(pos);
        }
        Ok(touched)
    }

    // -- secondary indexes --------------------------------------------------

    /// Create a secondary index over one or more columns, building it from
    /// the current rows. Fails when a column does not exist or an index
    /// with the same (case-insensitive) name already exists on this table.
    pub fn create_index(&mut self, def: IndexDef) -> Result<&Index, StoreError> {
        let mut column_pos = Vec::with_capacity(def.columns.len());
        for column in &def.columns {
            let pos =
                self.schema
                    .column_index(column)
                    .ok_or_else(|| StoreError::UnknownColumn {
                        table: self.schema.name.clone(),
                        column: column.clone(),
                    })?;
            if column_pos.contains(&pos) {
                return Err(StoreError::Eval {
                    message: format!(
                        "index {} repeats column {} (each key column may appear once)",
                        def.name, column
                    ),
                });
            }
            column_pos.push(pos);
        }
        if self.index(&def.name).is_some() {
            return Err(StoreError::IndexExists {
                index: def.name.clone(),
                table: self.schema.name.clone(),
            });
        }
        self.indexes.push(Index::build(def, &self.rows, column_pos));
        Ok(self.indexes.last().expect("just pushed"))
    }

    /// Drop a secondary index by (case-insensitive) name.
    pub fn drop_index(&mut self, name: &str) -> Result<IndexDef, StoreError> {
        match self
            .indexes
            .iter()
            .position(|i| i.def().name.eq_ignore_ascii_case(name))
        {
            Some(pos) => Ok(self.indexes.remove(pos).def().clone()),
            None => Err(StoreError::UnknownIndex {
                index: name.to_string(),
            }),
        }
    }

    /// The running summary of one column.
    pub(crate) fn live_column(&self, column: &str) -> Option<&LiveColumn> {
        Some(&self.summaries[self.schema.column_index(column)?])
    }

    /// The running summaries of all columns, in schema order.
    pub(crate) fn live_columns(&self) -> &[LiveColumn] {
        &self.summaries
    }

    /// A secondary index by (case-insensitive) name.
    pub fn index(&self, name: &str) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|i| i.def().name.eq_ignore_ascii_case(name))
    }

    /// All secondary indexes, in creation order.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// The best index whose *leading* key column is `column` for the given
    /// need: an ordered index if `need_range` (or if one exists anyway —
    /// ordered answers points too, and a composite ordered index answers a
    /// leading-column probe as a prefix), otherwise a single-column hash
    /// index. Narrower indexes win ties (fewer irrelevant key columns to
    /// sweep); creation order breaks the rest.
    pub fn index_on(&self, column: &str, need_range: bool) -> Option<&Index> {
        let leads_with = |i: &&Index| {
            i.def()
                .columns
                .first()
                .is_some_and(|c| c.eq_ignore_ascii_case(column))
        };
        self.indexes
            .iter()
            .filter(leads_with)
            .filter(|i| i.supports_range())
            .min_by_key(|i| i.width())
            .or_else(|| {
                if need_range {
                    None
                } else {
                    // A single-column exact probe is all a hash index can do.
                    self.indexes
                        .iter()
                        .filter(leads_with)
                        .find(|i| i.width() == 1)
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn movies() -> Table {
        Table::new(
            TableSchema::new(
                "MOVIES",
                vec![
                    ColumnDef::new("id", DataType::Integer),
                    ColumnDef::new("title", DataType::Text),
                    ColumnDef::nullable("year", DataType::Integer),
                ],
            )
            .with_primary_key(&["id"]),
        )
    }

    #[test]
    fn insert_and_lookup_by_pk() {
        let mut t = movies();
        t.insert_values(vec![
            Value::int(1),
            Value::text("Match Point"),
            Value::int(2005),
        ])
        .unwrap();
        t.insert_values(vec![
            Value::int(2),
            Value::text("Anything Else"),
            Value::int(2003),
        ])
        .unwrap();
        assert_eq!(t.len(), 2);
        let r = t.find_by_pk(&[Value::int(2)]).unwrap();
        assert_eq!(r.get(1), Some(&Value::text("Anything Else")));
        assert!(t.contains_pk(&[Value::int(1)]));
        assert!(!t.contains_pk(&[Value::int(99)]));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = movies();
        t.insert_values(vec![Value::int(1), Value::text("A"), Value::Null])
            .unwrap();
        let err = t
            .insert_values(vec![Value::int(1), Value::text("B"), Value::Null])
            .unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey { .. }));
    }

    #[test]
    fn arity_and_type_checked() {
        let mut t = movies();
        assert!(matches!(
            t.insert_values(vec![Value::int(1)]).unwrap_err(),
            StoreError::ArityMismatch { .. }
        ));
        assert!(matches!(
            t.insert_values(vec![Value::text("x"), Value::text("A"), Value::Null])
                .unwrap_err(),
            StoreError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn null_violation_detected() {
        let mut t = movies();
        let err = t
            .insert_values(vec![Value::int(1), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, StoreError::NullViolation { .. }));
        // year is nullable, so NULL there is fine.
        t.insert_values(vec![Value::int(1), Value::text("A"), Value::Null])
            .unwrap();
    }

    #[test]
    fn delete_and_update_rebuild_index() {
        let mut t = movies();
        for i in 0..5 {
            t.insert_values(vec![
                Value::int(i),
                Value::text(format!("m{i}")),
                Value::int(2000 + i),
            ])
            .unwrap();
        }
        let removed = t.delete_where(|r| r.get(0) == Some(&Value::int(2)));
        assert_eq!(removed, 1);
        assert!(!t.contains_pk(&[Value::int(2)]));
        assert!(t.contains_pk(&[Value::int(4)]));

        let touched = t.update_where(
            |r| r.get(0) == Some(&Value::int(3)),
            |r| *r.get_mut(1).unwrap() = Value::text("renamed"),
        );
        assert_eq!(touched.unwrap(), 1);
        let r = t.find_by_pk(&[Value::int(3)]).unwrap();
        assert_eq!(r.get(1), Some(&Value::text("renamed")));
    }

    #[test]
    fn an_update_that_would_duplicate_a_key_changes_nothing() {
        use crate::index::{IndexDef, IndexKind};
        let mut t = movies();
        t.create_index(IndexDef::single(
            "o_year",
            "MOVIES",
            "year",
            IndexKind::Ordered,
        ))
        .unwrap();
        for (id, title) in [(1, "A"), (2, "B"), (3, "C")] {
            t.insert_values(vec![
                Value::int(id),
                Value::text(title),
                Value::int(2000 + id),
            ])
            .unwrap();
        }
        let id = |r: &Row| r.get(0).and_then(Value::as_i64).unwrap();
        let set_id = |to: fn(i64) -> i64| {
            move |r: &mut Row| {
                let new = to(r.get(0).and_then(Value::as_i64).unwrap());
                *r.get_mut(0).unwrap() = Value::int(new);
                *r.get_mut(2).unwrap() = Value::int(1990);
            }
        };
        let before = (t.rows().to_vec(), crate::stats::TableStats::collect(&t));
        // Onto a row the update leaves alone, and two rows onto one key.
        for outcome in [
            t.update_where(|r| id(r) == 2, set_id(|_| 1)),
            t.update_where(|r| id(r) >= 2, set_id(|_| 7)),
        ] {
            assert!(matches!(outcome, Err(StoreError::DuplicateKey { .. })));
            assert_eq!(
                (t.rows().to_vec(), crate::stats::TableStats::collect(&t)),
                before
            );
            assert_eq!(t.find_by_pk(&[Value::int(1)]), t.row(0));
            assert_eq!(t.find_by_pk(&[Value::int(2)]), t.row(1));
            let idx = t.index("o_year").unwrap();
            assert_eq!(idx.probe_point(&Value::int(2002)), &[1]);
            assert!(idx.probe_point(&Value::int(1990)).is_empty());
        }
        // Keys that only trade places among the updated rows are no collision.
        assert_eq!(t.update_where(|r| id(r) >= 2, set_id(|i| 5 - i)), Ok(2));
        assert_eq!(t.find_by_pk(&[Value::int(3)]), t.row(1));
        assert_eq!(t.find_by_pk(&[Value::int(2)]), t.row(2));
        assert_eq!(
            t.index("o_year").unwrap().probe_point(&Value::int(1990)),
            &[1, 2]
        );
        // After the first row goes, its key is free to take.
        assert_eq!(t.delete_where(|r| id(r) == 1), 1);
        assert_eq!(t.update_where(|r| id(r) == 3, set_id(|_| 1)), Ok(1));
        assert_eq!(t.find_by_pk(&[Value::int(1)]), t.row(0));
        assert!(!t.contains_pk(&[Value::int(3)]));
    }

    #[test]
    fn column_values_in_row_order() {
        let mut t = movies();
        t.insert_values(vec![Value::int(1), Value::text("A"), Value::int(2001)])
            .unwrap();
        t.insert_values(vec![Value::int(2), Value::text("B"), Value::int(2002)])
            .unwrap();
        assert_eq!(
            t.column_values("title"),
            vec![Value::text("A"), Value::text("B")]
        );
        assert!(t.column_values("nope").is_empty());
    }

    #[test]
    fn secondary_indexes_are_maintained_on_writes() {
        use crate::index::{IndexBounds, IndexDef, IndexKind, ProbeOrder};
        let mut t = movies();
        t.create_index(IndexDef::single(
            "idx_year",
            "MOVIES",
            "year",
            IndexKind::Ordered,
        ))
        .unwrap();
        for i in 0..5 {
            t.insert_values(vec![
                Value::int(i),
                Value::text(format!("m{i}")),
                Value::int(2000 + (i % 3)),
            ])
            .unwrap();
        }
        let idx = t.index("IDX_YEAR").expect("case-insensitive lookup");
        assert_eq!(idx.probe_point(&Value::int(2000)), &[0, 3]);
        // Delete shifts positions; the index must follow.
        t.delete_where(|r| r.get(0) == Some(&Value::int(0)));
        let idx = t.index("idx_year").unwrap();
        assert_eq!(idx.probe_point(&Value::int(2000)), &[2]);
        // Update re-keys the moved row.
        t.update_where(
            |r| r.get(0) == Some(&Value::int(1)),
            |r| *r.get_mut(2).unwrap() = Value::int(1999),
        )
        .unwrap();
        let idx = t.index("idx_year").unwrap();
        assert_eq!(idx.probe_point(&Value::int(2001)), &[3]);
        assert_eq!(
            idx.probe(
                &IndexBounds::range(None, Some((Value::int(1999), true))),
                ProbeOrder::Position
            )
            .unwrap(),
            vec![0]
        );
        // Duplicate names are rejected; unknown columns are rejected.
        assert!(matches!(
            t.create_index(IndexDef::single(
                "idx_year",
                "MOVIES",
                "year",
                IndexKind::Hash
            ))
            .unwrap_err(),
            StoreError::IndexExists { .. }
        ));
        assert!(matches!(
            t.create_index(IndexDef::single(
                "idx_nope",
                "MOVIES",
                "nope",
                IndexKind::Hash
            ))
            .unwrap_err(),
            StoreError::UnknownColumn { .. }
        ));
        assert!(matches!(
            t.create_index(IndexDef {
                name: "idx_dup".into(),
                table: "MOVIES".into(),
                columns: vec!["year".into(), "year".into()],
                kind: IndexKind::Ordered,
            })
            .unwrap_err(),
            StoreError::Eval { .. }
        ));
        // Drop removes it.
        t.drop_index("idx_year").unwrap();
        assert!(t.index("idx_year").is_none());
        assert!(matches!(
            t.drop_index("idx_year").unwrap_err(),
            StoreError::UnknownIndex { .. }
        ));
    }

    #[test]
    fn deletes_from_the_middle_the_tail_and_of_everything_keep_lookups_right() {
        use crate::index::{IndexDef, IndexKind};
        let mut t = movies();
        for (name, kind) in [("o_year", IndexKind::Ordered), ("h_year", IndexKind::Hash)] {
            t.create_index(IndexDef::single(name, "MOVIES", "year", kind))
                .unwrap();
        }
        for i in 0..10 {
            t.insert_values(vec![
                Value::int(i),
                Value::text(format!("m{i}")),
                Value::int(2000 + i % 2),
            ])
            .unwrap();
        }
        let check = |t: &Table, ids: &[i64]| {
            let at = |year: i64| -> Vec<usize> {
                let ids = ids.iter().enumerate();
                ids.filter(|(_, id)| 2000 + *id % 2 == year)
                    .map(|(pos, _)| pos)
                    .collect()
            };
            for name in ["o_year", "h_year"] {
                let idx = t.index(name).unwrap();
                assert_eq!(idx.probe_point(&Value::int(2000)), at(2000), "{name}");
                assert_eq!(idx.probe_point(&Value::int(2001)), at(2001), "{name}");
                assert_eq!(idx.len(), ids.len());
            }
            for (pos, id) in ids.iter().enumerate() {
                assert_eq!(t.find_by_pk(&[Value::int(*id)]), t.row(pos));
            }
            assert_eq!(t.len(), ids.len());
        };
        let id = |r: &Row| r.get(0).and_then(Value::as_i64).unwrap();
        assert_eq!(t.delete_where(|r| [2, 3, 6].contains(&id(r))), 3);
        assert!(!t.contains_pk(&[Value::int(3)]));
        check(&t, &[0, 1, 4, 5, 7, 8, 9]);
        assert_eq!(t.delete_where(|r| id(r) >= 8), 2);
        check(&t, &[0, 1, 4, 5, 7]);
        assert_eq!(t.delete_where(|r| id(r) > 100), 0);
        assert_eq!(t.delete_where(|_| true), 5);
        check(&t, &[]);
        assert_eq!(t.index("o_year").unwrap().key_count(), 0);
        // And the emptied table takes rows again.
        t.insert_values(vec![Value::int(3), Value::text("back"), Value::int(2001)])
            .unwrap();
        check(&t, &[3]);
    }

    #[test]
    fn index_on_prefers_ordered_when_ranges_are_needed() {
        use crate::index::{IndexDef, IndexKind};
        let mut t = movies();
        t.create_index(IndexDef::single(
            "h_year",
            "MOVIES",
            "year",
            IndexKind::Hash,
        ))
        .unwrap();
        assert!(
            t.index_on("year", true).is_none(),
            "hash cannot range-probe"
        );
        assert_eq!(t.index_on("year", false).unwrap().def().name, "h_year");
        t.create_index(IndexDef {
            name: "c_year_id".into(),
            table: "MOVIES".into(),
            columns: vec!["year".into(), "id".into()],
            kind: IndexKind::Ordered,
        })
        .unwrap();
        assert_eq!(
            t.index_on("year", true).unwrap().def().name,
            "c_year_id",
            "a composite ordered index answers a leading-column range as a prefix"
        );
        t.create_index(IndexDef::single(
            "o_year",
            "MOVIES",
            "year",
            IndexKind::Ordered,
        ))
        .unwrap();
        assert_eq!(
            t.index_on("year", true).unwrap().def().name,
            "o_year",
            "the narrower ordered index wins"
        );
        assert_eq!(
            t.index_on("YEAR", false).unwrap().def().name,
            "o_year",
            "ordered preferred even for points (it answers both)"
        );
        assert!(
            t.index_on("id", false).is_none(),
            "a non-leading key column cannot anchor a probe"
        );
    }

    #[test]
    fn integer_accepted_into_float_column() {
        let mut t = Table::new(TableSchema::new(
            "T",
            vec![ColumnDef::new("x", DataType::Float)],
        ));
        t.insert_values(vec![Value::int(3)]).unwrap();
        assert_eq!(t.len(), 1);
    }
}
