//! The catalog: the set of relation schemas plus the foreign keys between
//! them. This is exactly the information the paper's *schema graph* is built
//! from (relation/attribute nodes, projection edges, FK join edges).

use crate::error::StoreError;
use crate::schema::{ForeignKey, TableSchema};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh [`Catalog::version`]: the next number of one process-wide counter.
fn next_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A name folded the way a map of names keys it: upper-cased for relations
/// ([`FoldedName::upper`]), lower-cased for column statistics
/// ([`FoldedName::lower`]). A name that fits is folded on the stack, so a
/// lookup copies nothing to the heap; only a name that is stored is folded
/// into a `String`, by the same `str` function.
pub(crate) enum FoldedName {
    Inline([u8; FoldedName::INLINE], usize),
    Heap(String),
}

impl FoldedName {
    /// Longest name folded on the stack, in bytes.
    const INLINE: usize = 48;

    /// `name.to_ascii_uppercase()`.
    pub(crate) fn upper(name: &str) -> FoldedName {
        FoldedName::inline(name, <[u8]>::make_ascii_uppercase)
            .unwrap_or_else(|| FoldedName::Heap(name.to_ascii_uppercase()))
    }

    /// `name.to_lowercase()`: on the stack only for an ASCII name, where
    /// ASCII folding is the whole of it.
    pub(crate) fn lower(name: &str) -> FoldedName {
        name.is_ascii()
            .then(|| FoldedName::inline(name, <[u8]>::make_ascii_lowercase))
            .flatten()
            .unwrap_or_else(|| FoldedName::Heap(name.to_lowercase()))
    }

    fn inline(name: &str, fold: fn(&mut [u8])) -> Option<FoldedName> {
        let mut bytes = [0; FoldedName::INLINE];
        let folded = bytes.get_mut(..name.len())?;
        folded.copy_from_slice(name.as_bytes());
        fold(folded);
        Some(FoldedName::Inline(bytes, name.len()))
    }

    /// The folded name.
    pub(crate) fn as_str(&self) -> &str {
        match self {
            // ASCII case folding keeps UTF-8 valid, so this is never "".
            FoldedName::Inline(bytes, len) => {
                std::str::from_utf8(&bytes[..*len]).unwrap_or_default()
            }
            FoldedName::Heap(name) => name,
        }
    }
}

/// The schema-level view of a database: table schemas and foreign keys.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// Table schemas keyed by upper-cased name (SQL identifiers are
    /// case-insensitive in this substrate).
    tables: BTreeMap<String, TableSchema>,
    foreign_keys: Vec<ForeignKey>,
    version: u64,
}

impl Catalog {
    /// Which state of which catalog this is: 0 while empty, then the next
    /// number of one process-wide counter on every mutation (a table added,
    /// a foreign key declared, a schema handed out for editing). A clone
    /// keeps it with the content; two catalogs that differ never share one.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table schema. Fails if a table with the same
    /// (case-insensitive) name exists.
    pub fn add_table(&mut self, schema: TableSchema) -> Result<(), StoreError> {
        let key = schema.name.to_ascii_uppercase();
        if self.tables.contains_key(&key) {
            return Err(StoreError::TableExists {
                table: schema.name.clone(),
            });
        }
        self.tables.insert(key, schema);
        self.version = next_version();
        Ok(())
    }

    /// Register a foreign key after validating that both ends exist.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<(), StoreError> {
        let describe = fk.to_string();
        let referencing = self.table(&fk.table).ok_or(StoreError::InvalidForeignKey {
            constraint: describe.clone(),
            reason: format!("referencing table '{}' does not exist", fk.table),
        })?;
        for c in &fk.columns {
            if !referencing.has_column(c) {
                return Err(StoreError::InvalidForeignKey {
                    constraint: describe,
                    reason: format!("referencing column '{}' does not exist", c),
                });
            }
        }
        let referenced = self
            .table(&fk.ref_table)
            .ok_or(StoreError::InvalidForeignKey {
                constraint: describe.clone(),
                reason: format!("referenced table '{}' does not exist", fk.ref_table),
            })?;
        for c in &fk.ref_columns {
            if !referenced.has_column(c) {
                return Err(StoreError::InvalidForeignKey {
                    constraint: describe,
                    reason: format!("referenced column '{}' does not exist", c),
                });
            }
        }
        if fk.columns.len() != fk.ref_columns.len() || fk.columns.is_empty() {
            return Err(StoreError::InvalidForeignKey {
                constraint: describe,
                reason: "column lists must be non-empty and of equal length".into(),
            });
        }
        self.foreign_keys.push(fk);
        self.version = next_version();
        Ok(())
    }

    /// Look up a table schema by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.tables.get(FoldedName::upper(name).as_str())
    }

    /// Mutable access to a table schema (used to adjust narrative metadata
    /// such as the heading attribute for personalization).
    pub fn table_mut(&mut self, name: &str) -> Option<&mut TableSchema> {
        let schema = self.tables.get_mut(FoldedName::upper(name).as_str())?;
        self.version = next_version();
        Some(schema)
    }

    /// True if the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(FoldedName::upper(name).as_str())
    }

    /// All table schemas, in name order (deterministic iteration keeps
    /// generated narratives and DOT output stable).
    pub fn tables(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the catalog has no relations.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// All foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Foreign keys whose referencing table is `table`.
    pub fn foreign_keys_from(&self, table: &str) -> Vec<&ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.table.eq_ignore_ascii_case(table))
            .collect()
    }

    /// Foreign keys whose referenced table is `table`.
    pub fn foreign_keys_to(&self, table: &str) -> Vec<&ForeignKey> {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.ref_table.eq_ignore_ascii_case(table))
            .collect()
    }

    /// The foreign key (if any) connecting two tables in either direction.
    pub fn join_between(&self, a: &str, b: &str) -> Option<&ForeignKey> {
        self.foreign_keys.iter().find(|fk| {
            (fk.table.eq_ignore_ascii_case(a) && fk.ref_table.eq_ignore_ascii_case(b))
                || (fk.table.eq_ignore_ascii_case(b) && fk.ref_table.eq_ignore_ascii_case(a))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    #[test]
    fn names_fold_as_the_string_functions_do() {
        let long = "a_Relation_Name_Longer_Than_Forty_Eight_Bytes_Of_Text";
        for name in ["movies", "MOVIES", "Cast_2", "", long, "Été", "ΟΔΟΣ"] {
            assert_eq!(FoldedName::upper(name).as_str(), name.to_ascii_uppercase());
            assert_eq!(FoldedName::lower(name).as_str(), name.to_lowercase());
        }
    }

    fn mini_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
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
        c.add_table(TableSchema::new(
            "CAST",
            vec![
                ColumnDef::new("mid", DataType::Integer),
                ColumnDef::new("aid", DataType::Integer),
            ],
        ))
        .unwrap();
        c.add_table(
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
        c.add_foreign_key(ForeignKey::simple("CAST", "mid", "MOVIES", "id"))
            .unwrap();
        c.add_foreign_key(ForeignKey::simple("CAST", "aid", "ACTOR", "id"))
            .unwrap();
        c
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let c = mini_catalog();
        assert!(c.has_table("movies"));
        assert!(c.has_table("Movies"));
        assert_eq!(c.table("actor").unwrap().name, "ACTOR");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = mini_catalog();
        let err = c
            .add_table(TableSchema::new(
                "movies",
                vec![ColumnDef::new("x", DataType::Integer)],
            ))
            .unwrap_err();
        assert!(matches!(err, StoreError::TableExists { .. }));
    }

    #[test]
    fn foreign_key_validation() {
        let mut c = mini_catalog();
        assert!(matches!(
            c.add_foreign_key(ForeignKey::simple("CAST", "mid", "NOPE", "id"))
                .unwrap_err(),
            StoreError::InvalidForeignKey { .. }
        ));
        assert!(matches!(
            c.add_foreign_key(ForeignKey::simple("CAST", "zzz", "MOVIES", "id"))
                .unwrap_err(),
            StoreError::InvalidForeignKey { .. }
        ));
        assert!(matches!(
            c.add_foreign_key(ForeignKey::simple("CAST", "mid", "MOVIES", "zzz"))
                .unwrap_err(),
            StoreError::InvalidForeignKey { .. }
        ));
    }

    #[test]
    fn neighbors_and_join_between() {
        let c = mini_catalog();
        assert!(c.join_between("MOVIES", "CAST").is_some());
        assert!(c.join_between("CAST", "MOVIES").is_some());
        assert!(c.join_between("MOVIES", "ACTOR").is_none());
    }

    #[test]
    fn every_mutation_moves_the_version_and_a_clone_keeps_it() {
        let mut c = mini_catalog();
        assert_ne!(c.version(), Catalog::new().version());
        let copy = c.clone();
        assert_eq!(copy.version(), c.version());
        let before = c.version();
        assert!(c.table_mut("NOPE").is_none());
        assert_eq!(c.version(), before, "nothing handed out, nothing changed");
        c.table_mut("movies").unwrap();
        assert!(c.version() > before);
        let before = c.version();
        c.add_table(TableSchema::new(
            "X",
            vec![ColumnDef::new("x", DataType::Integer)],
        ))
        .unwrap();
        assert!(c.version() > before);
        let before = c.version();
        c.add_foreign_key(ForeignKey::simple("CAST", "mid", "X", "x"))
            .unwrap();
        assert!(c.version() > before);
        assert_ne!(copy.version(), c.version());
    }

    #[test]
    fn fk_directional_queries() {
        let c = mini_catalog();
        assert_eq!(c.foreign_keys_from("CAST").len(), 2);
        assert_eq!(c.foreign_keys_to("MOVIES").len(), 1);
        assert!(c.foreign_keys_from("MOVIES").is_empty());
    }
}
