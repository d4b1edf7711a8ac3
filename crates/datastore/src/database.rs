//! A database instance: a catalog plus table contents, with foreign-key
//! enforcement on insert.

use crate::adaptive::{AdaptiveState, EpochCause};
use crate::catalog::{Catalog, FoldedName};
use crate::error::StoreError;
use crate::index::{Index, IndexDef, IndexKind};
use crate::obs::{Counter, ObsRegistry};
use crate::schema::{ForeignKey, TableSchema};
use crate::stats::TableStats;
use crate::table::Table;
use crate::tuple::{NamedRow, Row};
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// An in-memory database: schemas, constraints and tuples, plus a lazily
/// populated per-table statistics cache the optimizer plans with.
///
/// Tables are held behind `Arc` so the executor can take *owned* handles to
/// them ([`Database::table_arc`]) without tying the operator tree to the
/// database's lifetime: a plan-cache template keeps its tree open. The
/// map of them is shared too: a statement's snapshot is one reference count.
/// Mutation goes through [`Arc::make_mut`], which copies the map, and then
/// the table, only when a concurrently running query still holds the old
/// handle — writers get copy-on-write snapshot isolation from in-flight
/// reads for free.
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    tables: Arc<BTreeMap<String, Arc<Table>>>,
    /// Optimizer statistics keyed like `tables`, computed on first use and
    /// invalidated whenever the table is written. Interior mutability so
    /// planning (`&Database`) can fill the cache.
    stats: RwLock<BTreeMap<String, Arc<TableStats>>>,
    /// Engine-wide observability: counters, latency histograms, the query
    /// journal, and the misestimate ledger. Behind an `Arc` so executor
    /// snapshots ([`crate::exec::ExecContext`]) report into the same
    /// registry the database answers `SHOW METRICS` from.
    obs: Arc<ObsRegistry>,
    /// Adaptive planning state: the cardinality-feedback store, the plan
    /// cache, and the epoch counter that invalidates both. Behind an `Arc`
    /// for the same reason as `obs` — what the engine learned belongs to the
    /// engine, not to any one data snapshot.
    adaptive: Arc<AdaptiveState>,
}

impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            catalog: self.catalog.clone(),
            tables: Arc::clone(&self.tables),
            // Statistics describe the data, which is cloned unchanged; the
            // Arc entries are shared rather than recollected.
            stats: RwLock::new(self.stats.read().expect("stats lock").clone()),
            // Clones share one engine-wide registry: a clone is a snapshot
            // of the data, not a new engine.
            obs: Arc::clone(&self.obs),
            adaptive: Arc::clone(&self.adaptive),
        }
    }
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The engine-wide observability registry (counters, latency
    /// histograms, query journal, misestimate ledger).
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }

    /// The adaptive planning state (cardinality feedback, plan cache, and
    /// the invalidation epoch).
    pub fn adaptive(&self) -> &Arc<AdaptiveState> {
        &self.adaptive
    }

    /// Schema-level view of the database.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable schema-level view (used for personalization overrides).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Create a table from a schema. A primary key — single-column or
    /// composite — gets an automatic ordered index (`pk_<table>`), so point
    /// lookups, prefix probes and index-nested-loop joins on the key work
    /// without a `CREATE INDEX`.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), StoreError> {
        self.catalog.add_table(schema.clone())?;
        let mut table = Table::new(schema.clone());
        // A PK naming a non-existent column has always been silently inert
        // (`primary_key_indices` skips it); keep that, and keep this
        // function infallible past `add_table`, by only indexing keys that
        // all resolve. On a fresh table with resolving columns the build
        // cannot fail.
        let pk_positions: Vec<Option<usize>> = schema
            .primary_key
            .iter()
            .map(|c| schema.column_index(c))
            .collect();
        let distinct = pk_positions
            .iter()
            .filter_map(|p| *p)
            .collect::<std::collections::BTreeSet<_>>();
        if !schema.primary_key.is_empty()
            && pk_positions.iter().all(Option::is_some)
            && distinct.len() == schema.primary_key.len()
        {
            table
                .create_index(IndexDef {
                    name: format!("pk_{}", schema.name.to_lowercase()),
                    table: schema.name.clone(),
                    columns: schema.primary_key.clone(),
                    kind: IndexKind::Ordered,
                })
                .expect("auto PK index on a fresh table cannot clash");
        }
        self.tables_mut()
            .insert(schema.name.to_ascii_uppercase(), Arc::new(table));
        self.adaptive.bump_epoch_for(EpochCause::Schema);
        Ok(())
    }

    /// Create a secondary index (`CREATE INDEX`): validates the table and
    /// column, builds the index from the current rows. Goes through
    /// [`Arc::make_mut`], so an in-flight query keeps probing the index
    /// version of its own snapshot. Returns the entry count for talk-back
    /// confirmations.
    pub fn create_index(&mut self, def: IndexDef) -> Result<usize, StoreError> {
        let key = FoldedName::upper(&def.table);
        if !self.tables.contains_key(key.as_str()) {
            return Err(StoreError::UnknownTable {
                table: def.table.clone(),
            });
        }
        // Index names must be unique database-wide so DROP INDEX can
        // resolve them without a table name.
        if let Some((owner, _)) = self.find_index(&def.name) {
            return Err(StoreError::IndexExists {
                index: def.name,
                table: owner.name().to_string(),
            });
        }
        let arc = self
            .tables_mut()
            .get_mut(key.as_str())
            .expect("checked above");
        let table = Arc::make_mut(arc);
        let entries = table.create_index(def)?.len();
        // DDL changes the access paths available to the planner.
        self.adaptive.bump_epoch_for(EpochCause::Schema);
        Ok(entries)
    }

    /// Drop a secondary index by name (`DROP INDEX`), wherever it lives.
    pub fn drop_index(&mut self, name: &str) -> Result<IndexDef, StoreError> {
        let owner = self
            .tables
            .values()
            .find(|t| t.index(name).is_some())
            .map(|t| FoldedName::upper(t.name()))
            .ok_or_else(|| StoreError::UnknownIndex {
                index: name.to_string(),
            })?;
        let table = self
            .tables_mut()
            .get_mut(owner.as_str())
            .expect("owner exists");
        let def = Arc::make_mut(table).drop_index(name)?;
        // DDL changes the access paths available to the planner.
        self.adaptive.bump_epoch_for(EpochCause::Schema);
        Ok(def)
    }

    /// The secondary index `name` lives on, with its table (for DDL
    /// narration).
    pub fn find_index(&self, name: &str) -> Option<(&Table, &Index)> {
        self.tables.values().find_map(|t| {
            let table = Arc::as_ref(t);
            table.index(name).map(|i| (table, i))
        })
    }

    /// Declare a foreign key; existing rows are checked for conformance.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<(), StoreError> {
        self.catalog.add_foreign_key(fk.clone())?;
        // Validate existing data against the new constraint.
        let violations = self.check_foreign_key(&fk);
        if let Some(v) = violations.first() {
            return Err(StoreError::ForeignKeyViolation {
                constraint: fk.to_string(),
                value: v.clone(),
            });
        }
        Ok(())
    }

    fn check_foreign_key(&self, fk: &ForeignKey) -> Vec<String> {
        let mut out = Vec::new();
        let (Some(child), Some(parent)) = (self.table(&fk.table), self.table(&fk.ref_table)) else {
            return out;
        };
        let child_idx: Vec<usize> = fk
            .columns
            .iter()
            .filter_map(|c| child.schema().column_index(c))
            .collect();
        for row in child.rows() {
            let key: Vec<Value> = child_idx
                .iter()
                .map(|&i| row.get(i).cloned().unwrap_or(Value::Null))
                .collect();
            if key.iter().any(|v| v.is_null()) {
                continue; // NULL FK values are allowed (match nothing).
            }
            if !parent.contains_pk(&key) {
                out.push(format!(
                    "{:?}",
                    key.iter().map(Value::to_string).collect::<Vec<_>>()
                ));
            }
        }
        out
    }

    /// Access a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables
            .get(FoldedName::upper(name).as_str())
            .map(Arc::as_ref)
    }

    /// Owned handle to a table, shared with the database. Executors hold
    /// these so an operator tree can outlive the borrow it was opened under; a concurrent
    /// write copies the table ([`Arc::make_mut`]) rather than mutating the
    /// rows a running query is reading.
    pub fn table_arc(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(FoldedName::upper(name).as_str()).cloned()
    }

    /// The map of tables, shared: the executor's snapshot of the data.
    pub(crate) fn table_map(&self) -> &Arc<BTreeMap<String, Arc<Table>>> {
        &self.tables
    }

    /// The map of tables, copied first if a snapshot still holds it — once
    /// the plan cache's kept trees, which would, are closed.
    fn tables_mut(&mut self) -> &mut BTreeMap<String, Arc<Table>> {
        self.adaptive.close_trees();
        Arc::make_mut(&mut self.tables)
    }

    /// Mutable access to a table. Conservatively drops the table's cached
    /// statistics, since the caller may mutate rows through the reference;
    /// if an in-flight query still holds the table's `Arc`, the table is
    /// copied first so the query keeps reading its snapshot. An unknown
    /// name is `None` and nothing else: no statistics dropped, no epoch
    /// bumped.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        let key = FoldedName::upper(name);
        if !self.tables.contains_key(key.as_str()) {
            return None;
        }
        self.invalidate_stats(name);
        self.tables_mut().get_mut(key.as_str()).map(Arc::make_mut)
    }

    /// Statistics of a table: a snapshot of the summaries the table keeps
    /// current with every write (no row is read), taken on first access and
    /// cached until the table is next written. `None` for unknown tables.
    pub fn table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
        let key = FoldedName::upper(name);
        if let Some(s) = self.stats.read().expect("stats lock").get(key.as_str()) {
            return Some(Arc::clone(s));
        }
        let (stats, rederived) = TableStats::snapshot(self.tables.get(key.as_str())?);
        self.obs.incr(Counter::StatsSnapshots);
        self.obs
            .add(Counter::StatsColumnsRederived, rederived as u64);
        let stats = Arc::new(stats);
        self.stats
            .write()
            .expect("stats lock")
            .insert(name.to_ascii_uppercase(), Arc::clone(&stats));
        Some(stats)
    }

    /// Eagerly snapshot the statistics of every table (an `ANALYZE` of the
    /// whole database); subsequent planning reads the cache.
    pub fn analyze(&self) {
        for name in self.tables.keys() {
            self.table_stats(name);
        }
    }

    /// Drop the cached statistics snapshot of one table (called on every
    /// write; the next reader copies a new one from the table's live
    /// summaries). Also advances the adaptive epoch: plans cached against
    /// the old statistics may no longer be the plans the optimizer would
    /// pick.
    fn invalidate_stats(&self, table: &str) {
        self.stats
            .write()
            .expect("stats lock")
            .remove(FoldedName::upper(table).as_str());
        self.adaptive.bump_epoch_for(EpochCause::Write);
    }

    /// All tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().map(Arc::as_ref)
    }

    /// Insert a row into a table, enforcing local constraints and all
    /// foreign keys whose referencing table is `table`.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<usize, StoreError> {
        let key = FoldedName::upper(table);
        let key = key.as_str();
        if !self.tables.contains_key(key) {
            return Err(StoreError::UnknownTable {
                table: table.to_string(),
            });
        }
        let row = Row::new(values);
        // Validate the row shape first (against the target table).
        self.tables[key].validate_row(&row)?;
        // Enforce foreign keys before mutating.
        for fk in self.catalog.foreign_keys_from(table) {
            let child_schema = self.tables[key].schema();
            let idx: Vec<usize> = fk
                .columns
                .iter()
                .filter_map(|c| child_schema.column_index(c))
                .collect();
            let fk_values: Vec<Value> = idx
                .iter()
                .map(|&i| row.get(i).cloned().unwrap_or(Value::Null))
                .collect();
            if fk_values.iter().any(|v| v.is_null()) {
                continue;
            }
            let parent = self
                .table(&fk.ref_table)
                .ok_or_else(|| StoreError::UnknownTable {
                    table: fk.ref_table.clone(),
                })?;
            if !parent.contains_pk(&fk_values) {
                return Err(StoreError::ForeignKeyViolation {
                    constraint: fk.to_string(),
                    value: format!(
                        "{:?}",
                        fk_values.iter().map(Value::to_string).collect::<Vec<_>>()
                    ),
                });
            }
        }
        let result = Arc::make_mut(self.tables_mut().get_mut(key).unwrap()).insert(row);
        // Only a successful insert changes the data the stats describe.
        if result.is_ok() {
            self.invalidate_stats(table);
        }
        result
    }

    /// Insert without foreign-key checking. Used by generators that load
    /// parents and children in bulk and by tests that need inconsistent
    /// states on purpose.
    pub fn insert_unchecked(
        &mut self,
        table: &str,
        values: Vec<Value>,
    ) -> Result<usize, StoreError> {
        let key = FoldedName::upper(table);
        let result = Arc::make_mut(self.tables_mut().get_mut(key.as_str()).ok_or_else(|| {
            StoreError::UnknownTable {
                table: table.to_string(),
            }
        })?)
        .insert_values(values);
        if result.is_ok() {
            self.invalidate_stats(table);
        }
        result
    }

    /// Follow a foreign key from one tuple of `fk.table` to the matching
    /// tuple of `fk.ref_table` (if any). This is the tuple-level counterpart
    /// of walking a join edge during content translation.
    pub fn follow_fk<'a>(&'a self, fk: &ForeignKey, row: &Row) -> Option<NamedRow<'a>> {
        let child = self.table(&fk.table)?;
        let parent = self.table(&fk.ref_table)?;
        let idx: Vec<usize> = fk
            .columns
            .iter()
            .filter_map(|c| child.schema().column_index(c))
            .collect();
        let key: Vec<Value> = idx
            .iter()
            .map(|&i| row.get(i).cloned().unwrap_or(Value::Null))
            .collect();
        if key.iter().any(|v| v.is_null()) {
            return None;
        }
        parent
            .find_by_pk(&key)
            .map(|r| NamedRow::new(parent.schema(), r))
    }

    /// All tuples of `fk.table` that reference the given tuple of
    /// `fk.ref_table` (reverse join-edge navigation).
    pub fn referencing_rows<'a>(&'a self, fk: &ForeignKey, parent_row: &Row) -> Vec<NamedRow<'a>> {
        let (Some(child), Some(parent)) = (self.table(&fk.table), self.table(&fk.ref_table)) else {
            return Vec::new();
        };
        let parent_idx: Vec<usize> = fk
            .ref_columns
            .iter()
            .filter_map(|c| parent.schema().column_index(c))
            .collect();
        let parent_key: Vec<Value> = parent_idx
            .iter()
            .map(|&i| parent_row.get(i).cloned().unwrap_or(Value::Null))
            .collect();
        let child_idx: Vec<usize> = fk
            .columns
            .iter()
            .filter_map(|c| child.schema().column_index(c))
            .collect();
        child
            .rows()
            .iter()
            .filter(|r| {
                child_idx
                    .iter()
                    .zip(&parent_key)
                    .all(|(&i, pv)| r.get(i).map(|v| v == pv).unwrap_or(false))
            })
            .map(|r| NamedRow::new(child.schema(), r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn movie_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "MOVIES",
                vec![
                    ColumnDef::new("id", DataType::Integer),
                    ColumnDef::new("title", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.create_table(TableSchema::new(
            "CAST",
            vec![
                ColumnDef::new("mid", DataType::Integer),
                ColumnDef::new("aid", DataType::Integer),
            ],
        ))
        .unwrap();
        db.create_table(
            TableSchema::new(
                "ACTOR",
                vec![
                    ColumnDef::new("id", DataType::Integer),
                    ColumnDef::new("name", DataType::Text),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .unwrap();
        db.add_foreign_key(ForeignKey::simple("CAST", "mid", "MOVIES", "id"))
            .unwrap();
        db.add_foreign_key(ForeignKey::simple("CAST", "aid", "ACTOR", "id"))
            .unwrap();
        db
    }

    #[test]
    fn insert_enforces_foreign_keys() {
        let mut db = movie_db();
        db.insert("MOVIES", vec![Value::int(1), Value::text("Troy")])
            .unwrap();
        db.insert("ACTOR", vec![Value::int(10), Value::text("Brad Pitt")])
            .unwrap();
        db.insert("CAST", vec![Value::int(1), Value::int(10)])
            .unwrap();
        let err = db
            .insert("CAST", vec![Value::int(99), Value::int(10)])
            .unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn unknown_table_insert_fails() {
        let mut db = movie_db();
        assert!(matches!(
            db.insert("NOPE", vec![]).unwrap_err(),
            StoreError::UnknownTable { .. }
        ));
    }

    #[test]
    fn adding_fk_checks_existing_rows() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("P", vec![ColumnDef::new("id", DataType::Integer)])
                .with_primary_key(&["id"]),
        )
        .unwrap();
        db.create_table(TableSchema::new(
            "C",
            vec![ColumnDef::new("pid", DataType::Integer)],
        ))
        .unwrap();
        db.insert("C", vec![Value::int(7)]).unwrap();
        let err = db
            .add_foreign_key(ForeignKey::simple("C", "pid", "P", "id"))
            .unwrap_err();
        assert!(matches!(err, StoreError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn follow_fk_and_referencing_rows() {
        let mut db = movie_db();
        db.insert("MOVIES", vec![Value::int(1), Value::text("Troy")])
            .unwrap();
        db.insert("MOVIES", vec![Value::int(2), Value::text("Se7en")])
            .unwrap();
        db.insert("ACTOR", vec![Value::int(10), Value::text("Brad Pitt")])
            .unwrap();
        db.insert("CAST", vec![Value::int(1), Value::int(10)])
            .unwrap();
        db.insert("CAST", vec![Value::int(2), Value::int(10)])
            .unwrap();

        let fk_movie = ForeignKey::simple("CAST", "mid", "MOVIES", "id");
        let cast_rows = db.table("CAST").unwrap().rows().to_vec();
        let movie = db.follow_fk(&fk_movie, &cast_rows[0]).unwrap();
        assert_eq!(movie.value("title"), Some(&Value::text("Troy")));

        let fk_actor = ForeignKey::simple("CAST", "aid", "ACTOR", "id");
        let actor_row = db.table("ACTOR").unwrap().rows()[0].clone();
        let credits = db.referencing_rows(&fk_actor, &actor_row);
        assert_eq!(credits.len(), 2);
    }

    #[test]
    fn null_fk_values_are_allowed() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("P", vec![ColumnDef::new("id", DataType::Integer)])
                .with_primary_key(&["id"]),
        )
        .unwrap();
        db.create_table(TableSchema::new(
            "C",
            vec![ColumnDef::nullable("pid", DataType::Integer)],
        ))
        .unwrap();
        db.add_foreign_key(ForeignKey::simple("C", "pid", "P", "id"))
            .unwrap();
        db.insert("C", vec![Value::Null]).unwrap();
        assert_eq!(db.table("C").unwrap().len(), 1);
    }

    #[test]
    fn table_stats_are_cached_and_invalidated_on_writes() {
        let mut db = movie_db();
        db.insert("MOVIES", vec![Value::int(1), Value::text("Troy")])
            .unwrap();
        let first = db.table_stats("movies").unwrap();
        assert_eq!(first.row_count, 1);
        // Cached: a second read returns the same Arc.
        let second = db.table_stats("MOVIES").unwrap();
        assert!(std::sync::Arc::ptr_eq(&first, &second));
        // A write invalidates; fresh stats see the new row.
        db.insert("MOVIES", vec![Value::int(2), Value::text("Seven")])
            .unwrap();
        let third = db.table_stats("movies").unwrap();
        assert_eq!(third.row_count, 2);
        assert_eq!(third.ndv("title"), 2);
        // A failed insert (FK violation) leaves the cache intact.
        let cached = db.table_stats("CAST").unwrap();
        assert!(db
            .insert("CAST", vec![Value::int(99), Value::int(10)])
            .is_err());
        assert!(std::sync::Arc::ptr_eq(
            &cached,
            &db.table_stats("CAST").unwrap()
        ));
        assert!(db.table_stats("NOPE").is_none());
        // analyze() precomputes every table.
        db.analyze();
        assert_eq!(db.table_stats("ACTOR").unwrap().row_count, 0);
    }

    #[test]
    fn stats_cache_survives_concurrent_readers_and_invalidation() {
        // The satellite concern: many threads reading `table_stats` while the
        // cache is (re)filled and invalidated must neither deadlock nor serve
        // statistics describing stale data after an invalidation completes.
        let mut db = movie_db();
        for i in 0..100 {
            db.insert("MOVIES", vec![Value::int(i), Value::text(format!("m{i}"))])
                .unwrap();
        }
        // Phase 1: hammer the lazily-filled cache from many threads at once.
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let stats = db.table_stats("MOVIES").expect("table exists");
                        assert_eq!(stats.row_count, 100);
                        db.analyze();
                    }
                });
            }
        });
        // Phase 2: `table_mut` invalidates; readers afterwards must see the
        // data as mutated, not the cached pre-write statistics.
        let cached = db.table_stats("MOVIES").unwrap();
        db.table_mut("MOVIES")
            .unwrap()
            .insert_values(vec![Value::int(100), Value::text("fresh")])
            .unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let stats = db.table_stats("MOVIES").expect("table exists");
                        assert_eq!(stats.row_count, 101, "stale stats after table_mut");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert!(!Arc::ptr_eq(&cached, &db.table_stats("MOVIES").unwrap()));
    }

    #[test]
    fn table_mut_copies_when_a_query_still_holds_the_table() {
        // Copy-on-write: an executor's owned handle keeps reading the
        // snapshot it opened even if the table is mutated mid-query.
        let mut db = movie_db();
        db.insert("MOVIES", vec![Value::int(1), Value::text("Troy")])
            .unwrap();
        let snapshot = db.table_arc("MOVIES").unwrap();
        db.table_mut("MOVIES")
            .unwrap()
            .insert_values(vec![Value::int(2), Value::text("Seven")])
            .unwrap();
        assert_eq!(snapshot.len(), 1, "snapshot must not see the new row");
        assert_eq!(db.table("MOVIES").unwrap().len(), 2);
    }

    #[test]
    fn table_mut_of_an_unknown_table_has_no_side_effects() {
        let mut db = movie_db();
        db.insert("MOVIES", vec![Value::int(1), Value::text("Troy")])
            .unwrap();
        let cached = db.table_stats("MOVIES").unwrap();
        let before = (db.adaptive().epoch(), db.adaptive().epoch_cause_counts());
        assert!(db.table_mut("NOPE").is_none());
        let after = (db.adaptive().epoch(), db.adaptive().epoch_cause_counts());
        assert_eq!(before, after, "a miss is not a write");
        assert!(Arc::ptr_eq(&cached, &db.table_stats("MOVIES").unwrap()));
        // A hit is one, whatever the caller goes on to do with it.
        assert!(db.table_mut("movies").is_some());
        assert_eq!(db.adaptive().epoch(), before.0 + 1);
    }

    #[test]
    fn create_table_builds_an_automatic_pk_index() {
        let db = movie_db();
        let movies = db.table("MOVIES").unwrap();
        let pk = movies.index("pk_movies").expect("auto PK index");
        assert_eq!(pk.def().columns, vec!["id".to_string()]);
        assert!(pk.supports_range());
        // CAST has no primary key in this fixture, so no auto index.
        assert!(db.table("CAST").unwrap().indexes().is_empty());
    }

    #[test]
    fn composite_pk_builds_a_composite_index() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "G",
                vec![
                    ColumnDef::new("mid", DataType::Integer),
                    ColumnDef::new("genre", DataType::Text),
                ],
            )
            .with_primary_key(&["mid", "genre"]),
        )
        .unwrap();
        db.insert("G", vec![Value::int(1), Value::text("drama")])
            .unwrap();
        db.insert("G", vec![Value::int(1), Value::text("noir")])
            .unwrap();
        let pk = db.table("G").unwrap().index("pk_g").expect("auto PK index");
        assert_eq!(
            pk.def().columns,
            vec!["mid".to_string(), "genre".to_string()]
        );
        assert_eq!(pk.width(), 2);
        use crate::index::{BoundTerm, IndexBounds, ProbeOrder};
        let prefix = IndexBounds::prefix(vec![BoundTerm::Value(Value::int(1))]);
        assert_eq!(pk.probe(&prefix, ProbeOrder::Position).unwrap(), vec![0, 1]);
    }

    #[test]
    fn bogus_pk_column_does_not_split_catalog_and_tables() {
        // A primary key naming a non-existent column is silently inert (as
        // it always was): the table must still be created consistently in
        // both the catalog and the table map, just without an auto index.
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("P", vec![ColumnDef::new("id", DataType::Integer)])
                .with_primary_key(&["nope"]),
        )
        .unwrap();
        assert!(db.catalog().has_table("P"));
        assert!(db.table("P").unwrap().indexes().is_empty());
        db.insert("P", vec![Value::int(1)]).unwrap();
    }

    #[test]
    fn index_ddl_and_cow_snapshots() {
        use crate::index::{IndexDef, IndexKind};
        let mut db = movie_db();
        for i in 0..10 {
            db.insert("MOVIES", vec![Value::int(i), Value::text(format!("m{i}"))])
                .unwrap();
        }
        let entries = db
            .create_index(IndexDef::single(
                "idx_title",
                "MOVIES",
                "title",
                IndexKind::Hash,
            ))
            .unwrap();
        assert_eq!(entries, 10);
        let (owner, idx) = db.find_index("idx_title").unwrap();
        assert_eq!(owner.name(), "MOVIES");
        assert_eq!(idx.probe_point(&Value::text("m3")), &[3]);

        // Database-wide name uniqueness: the same name on another table is
        // rejected and rolled back.
        let err = db
            .create_index(IndexDef::single(
                "IDX_TITLE",
                "ACTOR",
                "name",
                IndexKind::Hash,
            ))
            .unwrap_err();
        assert!(matches!(err, StoreError::IndexExists { .. }));
        assert!(db.table("ACTOR").unwrap().index("idx_title").is_none());

        // A snapshot taken before an insert keeps probing its own index
        // version: the writer's make_mut copies table *and* indexes.
        let snapshot = db.table_arc("MOVIES").unwrap();
        db.insert("MOVIES", vec![Value::int(99), Value::text("m3")])
            .unwrap();
        assert_eq!(
            snapshot
                .index("idx_title")
                .unwrap()
                .probe_point(&Value::text("m3")),
            &[3],
            "snapshot index must not see the new row"
        );
        assert_eq!(
            db.table("MOVIES")
                .unwrap()
                .index("idx_title")
                .unwrap()
                .probe_point(&Value::text("m3")),
            &[3, 10],
            "live index sees both rows"
        );

        // DROP INDEX resolves the owner without a table name.
        let dropped = db.drop_index("idx_title").unwrap();
        assert_eq!(dropped.table, "MOVIES");
        assert!(db.find_index("idx_title").is_none());
        assert!(matches!(
            db.drop_index("idx_title").unwrap_err(),
            StoreError::UnknownIndex { .. }
        ));
        assert!(matches!(
            db.create_index(IndexDef::single("x", "NOPE", "id", IndexKind::Hash))
                .unwrap_err(),
            StoreError::UnknownTable { .. }
        ));
    }
}
