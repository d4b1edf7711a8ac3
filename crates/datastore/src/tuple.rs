//! Rows (tuples) and named-row views used throughout the executor and the
//! content translator.

use crate::schema::TableSchema;
use crate::value::{GroupKey, Value};
use std::fmt;
use std::sync::Arc;

/// A single tuple: an ordered list of values matching a relation's columns.
///
/// The values sit behind one shared allocation, so a clone is a reference
/// count: a table, a hash join's build side and a result set can all hold
/// "the same row" without copying a value. Operators hand each other
/// positions ([`crate::exec::Batch`]) and read rows where they lie
/// ([`RowView`]); a `Row` is made only where a row outlives its batch, by
/// cloning a stored row's handle or by collecting values into one new
/// allocation. Writing through [`Row::get_mut`] copies first when anyone
/// else still holds the row.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row {
            values: values.into(),
        }
    }

    /// Empty row (used as the seed for joins).
    pub fn empty() -> Row {
        Row::default()
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Mutable value at position `i`. Copy-on-write: a row that is shared
    /// (a result set taken earlier, a running scan's batch) is copied before
    /// the write, so only this handle sees it.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut Value> {
        Arc::make_mut(&mut self.values).get_mut(i)
    }

    /// Append a value (used when composing join outputs).
    pub fn push(&mut self, v: Value) {
        self.values = self.values.iter().cloned().chain([v]).collect();
    }

    /// Concatenate two rows into a new one (join output).
    pub fn concat(&self, other: &Row) -> Row {
        self.values
            .iter()
            .chain(other.values.iter())
            .cloned()
            .collect()
    }

    /// Hashable key over the given positions, telling apart what `=` does
    /// not (`3` and `3.0`, `-0.0` and `0.0`): the apply memo's and the
    /// primary key's identity. The hash operators compare by `=` instead.
    pub fn group_key(&self, indices: &[usize]) -> Vec<GroupKey> {
        (indices.iter())
            .map(|&i| self.values.get(i).map_or(GroupKey::Null, Value::group_key))
            .collect()
    }

    /// Consume the row and return its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.to_vec()
    }
}

/// Read access to one row's values by position, wherever they lie: a
/// [`Row`], or a row of a [`crate::exec::Batch`] read where its store holds
/// it. What [`crate::expr::Expr::eval`] and the hash operators' keys read.
pub trait RowView {
    /// The value at position `i`; `None` past the row's end.
    fn value(&self, i: usize) -> Option<&Value>;
}

impl RowView for Row {
    fn value(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }
}

impl<R: RowView + ?Sized> RowView for &R {
    fn value(&self, i: usize) -> Option<&Value> {
        (**self).value(i)
    }
}

/// A row made of the values an operator computed, allocated once.
impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Row {
        Row {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", v)?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// A row paired with the schema that names its fields. Borrowed view used by
/// the content translator when instantiating templates ("MOVIE.TITLE").
#[derive(Debug, Clone, Copy)]
pub struct NamedRow<'a> {
    pub schema: &'a TableSchema,
    pub row: &'a Row,
}

impl<'a> NamedRow<'a> {
    /// Pair a schema with a row. The arity is not required to match exactly
    /// (projected rows may be narrower), lookups simply fail for missing
    /// fields.
    pub fn new(schema: &'a TableSchema, row: &'a Row) -> NamedRow<'a> {
        NamedRow { schema, row }
    }

    /// Value of the attribute with the given (case-insensitive) name.
    pub fn value(&self, column: &str) -> Option<&'a Value> {
        self.schema
            .column_index(column)
            .and_then(|i| self.row.get(i))
    }

    /// Value of the relation's heading attribute.
    pub fn heading_value(&self) -> Option<&'a Value> {
        self.value(self.schema.effective_heading())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "MOVIES",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("title", DataType::Text),
                ColumnDef::new("year", DataType::Integer),
            ],
        )
        .with_heading("title")
    }

    fn row() -> Row {
        Row::new(vec![
            Value::int(1),
            Value::text("Match Point"),
            Value::int(2005),
        ])
    }

    #[test]
    fn a_clone_shares_and_a_write_through_get_mut_copies_first() {
        let mut r = row();
        let earlier = r.clone();
        assert!(std::ptr::eq(r.values(), earlier.values()), "one allocation");
        *r.get_mut(2).unwrap() = Value::int(1999);
        assert_eq!(r.get(2), Some(&Value::int(1999)));
        assert_eq!(earlier, row(), "the other handle keeps what it read");
        assert!(r.get_mut(3).is_none());
        // Unshared, the write happens in place.
        let at = r.values().as_ptr();
        *r.get_mut(0).unwrap() = Value::int(2);
        assert_eq!(r.values().as_ptr(), at);
    }

    #[test]
    fn push_appends_without_touching_a_shared_copy() {
        let mut r = row();
        let earlier = r.clone();
        r.push(Value::Null);
        assert_eq!(r.arity(), 4);
        assert_eq!(r.get(3), Some(&Value::Null));
        assert_eq!(earlier.arity(), 3);
        assert_eq!(Row::empty().arity(), 0);
        assert_eq!(Row::default(), Row::empty());
        assert_eq!(r.clone().into_values(), r.values());
    }

    #[test]
    fn concat_joins_rows() {
        let r = row();
        let joined = r.concat(&Row::new(vec![Value::text("x")]));
        assert_eq!(joined.arity(), 4);
        assert_eq!(joined.get(3), Some(&Value::text("x")));
    }

    #[test]
    fn group_key_is_stable() {
        let r = row();
        assert_eq!(r.group_key(&[0, 1]), r.clone().group_key(&[0, 1]));
        assert_ne!(r.group_key(&[0]), r.group_key(&[1]));
    }

    #[test]
    fn named_row_lookup_by_name_and_heading() {
        let s = schema();
        let r = row();
        let nr = NamedRow::new(&s, &r);
        assert_eq!(nr.value("TITLE"), Some(&Value::text("Match Point")));
        assert_eq!(nr.heading_value(), Some(&Value::text("Match Point")));
        assert_eq!(nr.value("missing"), None);
    }

    #[test]
    fn display_renders_parenthesized_tuple() {
        assert_eq!(row().to_string(), "(1, Match Point, 2005)");
    }
}
