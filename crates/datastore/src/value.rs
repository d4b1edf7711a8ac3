//! Typed runtime values and the data types that describe them.
//!
//! The paper's examples only require a handful of scalar types (identifiers,
//! names, years, dates), but the substrate implements the full set a small
//! relational engine needs: integers, floats, booleans, text, dates and NULL,
//! with total ordering semantics suitable for sorting and grouping.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Integer,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Boolean,
    /// Calendar date (year, month, day).
    Date,
}

impl DataType {
    /// Human-readable name of the type, used by error messages and the
    /// schema narrator.
    pub fn name(&self) -> &'static str {
        match self {
            DataType::Integer => "integer",
            DataType::Float => "float",
            DataType::Text => "text",
            DataType::Boolean => "boolean",
            DataType::Date => "date",
        }
    }

    /// Whether a value of type `other` can be stored in a column of `self`
    /// without loss (integers widen to floats; everything accepts NULL at the
    /// value level, which is checked separately).
    pub fn accepts(&self, other: DataType) -> bool {
        *self == other || (*self == DataType::Float && other == DataType::Integer)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A calendar date. Only the fields needed for formatting narratives are
/// stored; no time-zone handling is required by the paper's examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Date {
    pub year: i32,
    pub month: u8,
    pub day: u8,
}

impl Date {
    /// Construct a date, validating the month/day ranges loosely (the
    /// substrate does not need full Gregorian calendar rules).
    pub fn new(year: i32, month: u8, day: u8) -> Option<Date> {
        if (1..=12).contains(&month) && (1..=31).contains(&day) {
            Some(Date { year, month, day })
        } else {
            None
        }
    }

    /// Month name in English, used by the narrative formatter
    /// ("December 1, 1935").
    pub fn month_name(&self) -> &'static str {
        const NAMES: [&str; 12] = [
            "January",
            "February",
            "March",
            "April",
            "May",
            "June",
            "July",
            "August",
            "September",
            "October",
            "November",
            "December",
        ];
        NAMES[(self.month as usize).saturating_sub(1).min(11)]
    }

    /// Format as the paper does in its example: `December 1, 1935`.
    pub fn long_format(&self) -> String {
        format!("{} {}, {}", self.month_name(), self.day, self.year)
    }

    /// ISO-8601 `YYYY-MM-DD` format, used for round-tripping through text.
    pub fn iso_format(&self) -> String {
        format!("{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }

    /// Parse an ISO-8601 date.
    pub fn parse_iso(s: &str) -> Option<Date> {
        let mut parts = s.splitn(3, '-');
        let year: i32 = parts.next()?.parse().ok()?;
        let month: u8 = parts.next()?.parse().ok()?;
        let day: u8 = parts.next()?.parse().ok()?;
        Date::new(year, month, day)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.iso_format())
    }
}

/// A dynamically typed runtime value. Text is shared (`Arc<str>`), so a
/// clone of any value copies at most 24 bytes and bumps a count — a
/// projection or a join output that carries a title allocates no string.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. NULL compares below every other value for ordering purposes
    /// and is never equal to anything (including itself) under SQL equality,
    /// but [`Value::total_cmp`] gives a total order for sorting.
    Null,
    Integer(i64),
    Float(f64),
    Text(Arc<str>),
    Boolean(bool),
    Date(Date),
}

impl Value {
    /// The dynamic type of the value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Integer(_) => Some(DataType::Integer),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into().into())
    }

    /// Convenience constructor for integer values.
    pub fn int(i: i64) -> Value {
        Value::Integer(i)
    }

    /// Numeric view of the value (integers and floats), used by arithmetic
    /// and aggregate evaluation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view of the value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Text view of the value (only for `Text`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of the value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL three-valued equality: NULL = anything is unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// SQL three-valued comparison: returns `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total ordering across all values, used for ORDER BY and grouping.
    /// NULL sorts first; values of different types sort by a fixed type rank
    /// so the order is always defined.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Boolean(_) => 1,
                Value::Integer(_) | Value::Float(_) => 2,
                Value::Date(_) => 3,
                Value::Text(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Integer(a), Value::Integer(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => cmp_f64(*a, *b),
            (Value::Integer(a), Value::Float(b)) => cmp_f64(*a as f64, *b),
            (Value::Float(a), Value::Integer(b)) => cmp_f64(*a, *b as f64),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Boolean(a), Value::Boolean(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Render the value the way a narrative should read it: dates in long
    /// form, text without quotes, NULL as "unknown".
    pub fn narrative_form(&self) -> String {
        match self {
            Value::Null => "unknown".to_string(),
            Value::Integer(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 {
                    format!("{:.0}", f)
                } else {
                    format!("{}", f)
                }
            }
            Value::Text(s) => s.to_string(),
            Value::Boolean(b) => if *b { "yes" } else { "no" }.to_string(),
            Value::Date(d) => d.long_format(),
        }
    }

    /// Render the value as a SQL literal (quoted text, ISO dates).
    pub fn sql_literal(&self) -> String {
        fmt::from_fn(|f| self.write_sql_literal(f)).to_string()
    }

    /// [`Value::sql_literal`], written into `out` instead of a string of its
    /// own.
    pub fn write_sql_literal(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Null => out.write_str("NULL"),
            Value::Integer(i) => write!(out, "{i}"),
            Value::Float(f) => write!(out, "{f}"),
            Value::Text(s) => write!(out, "'{}'", s.replace('\'', "''")),
            Value::Boolean(b) => out.write_str(if *b { "TRUE" } else { "FALSE" }),
            Value::Date(d) => write!(out, "DATE '{d}'"),
        }
    }

    /// A hashable key of this exact value (floats by bit pattern, so `3` and
    /// `3.0`, `-0.0` and `0.0` are four keys): the identity of indexes,
    /// primary keys, statistics' value counts and the apply memo. The hash
    /// operators (joins, `GROUP BY`, `DISTINCT`) compare by SQL `=` instead.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Integer(i) => GroupKey::Integer(*i),
            Value::Float(f) => GroupKey::FloatBits(f.to_bits()),
            Value::Text(s) => GroupKey::Text(s.clone()),
            Value::Boolean(b) => GroupKey::Boolean(*b),
            Value::Date(d) => GroupKey::Date(*d),
        }
    }
}

/// The order of two floats, total: the numbers by value (`-0.0 = 0.0`, as
/// `partial_cmp` has it) and a NaN by [`f64::total_cmp`] — a positive NaN
/// after every number, equal only to itself. What every float comparison in
/// the engine (`=`, `<`, `ORDER BY`, the vector kernels) goes through, so a
/// NaN neither equals a number nor hands a sort an inconsistent comparator.
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.total_cmp(&b))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal && !(self.is_null() ^ other.is_null())
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Integer(i) => write!(f, "{}", i),
            Value::Float(x) => write!(f, "{}", x),
            Value::Text(s) => f.write_str(s),
            Value::Boolean(b) => write!(f, "{}", b),
            Value::Date(d) => write!(f, "{}", d),
        }
    }
}

/// Hashable, `Eq` representation of a [`Value`]'s exact identity
/// ([`Value::group_key`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKey {
    Null,
    Integer(i64),
    FloatBits(u64),
    Text(Arc<str>),
    Boolean(bool),
    Date(Date),
}

impl GroupKey {
    /// The value this key was made from ([`Value::group_key`]'s inverse).
    pub fn to_value(&self) -> Value {
        match self {
            GroupKey::Null => Value::Null,
            GroupKey::Integer(i) => Value::Integer(*i),
            GroupKey::FloatBits(bits) => Value::Float(f64::from_bits(*bits)),
            GroupKey::Text(s) => Value::Text(s.clone()),
            GroupKey::Boolean(b) => Value::Boolean(*b),
            GroupKey::Date(d) => Value::Date(*d),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

impl From<Date> for Value {
    fn from(v: Date) -> Self {
        Value::Date(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_accepts_widening() {
        assert!(DataType::Float.accepts(DataType::Integer));
        assert!(!DataType::Integer.accepts(DataType::Float));
        assert!(DataType::Text.accepts(DataType::Text));
        assert!(!DataType::Text.accepts(DataType::Integer));
    }

    #[test]
    fn date_construction_validates_ranges() {
        assert!(Date::new(1935, 12, 1).is_some());
        assert!(Date::new(1935, 13, 1).is_none());
        assert!(Date::new(1935, 0, 1).is_none());
        assert!(Date::new(1935, 1, 32).is_none());
    }

    #[test]
    fn date_long_format_matches_paper_example() {
        let d = Date::new(1935, 12, 1).unwrap();
        assert_eq!(d.long_format(), "December 1, 1935");
    }

    #[test]
    fn date_iso_round_trip() {
        let d = Date::new(2005, 3, 9).unwrap();
        assert_eq!(Date::parse_iso(&d.iso_format()), Some(d));
        assert!(Date::parse_iso("not-a-date").is_none());
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(Value::int(1).sql_eq(&Value::int(1)), Some(true));
        assert_eq!(Value::int(1).sql_eq(&Value::int(2)), Some(false));
        assert_eq!(Value::Null.sql_eq(&Value::int(1)), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn total_cmp_orders_mixed_numerics() {
        assert_eq!(
            Value::Integer(2).total_cmp(&Value::Float(2.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Integer(3)),
            Ordering::Equal
        );
    }

    #[test]
    fn total_cmp_null_sorts_first() {
        assert_eq!(Value::Null.total_cmp(&Value::int(0)), Ordering::Less);
        assert_eq!(Value::text("a").total_cmp(&Value::Null), Ordering::Greater);
    }

    #[test]
    fn narrative_form_renders_humanely() {
        assert_eq!(Value::Null.narrative_form(), "unknown");
        assert_eq!(Value::Boolean(true).narrative_form(), "yes");
        assert_eq!(
            Value::Date(Date::new(1935, 12, 1).unwrap()).narrative_form(),
            "December 1, 1935"
        );
        assert_eq!(Value::Float(2005.0).narrative_form(), "2005");
    }

    #[test]
    fn sql_literal_escapes_quotes() {
        assert_eq!(Value::text("O'Brien").sql_literal(), "'O''Brien'");
    }

    #[test]
    fn group_key_distinguishes_values() {
        assert_ne!(Value::int(1).group_key(), Value::int(2).group_key());
        assert_eq!(Value::text("x").group_key(), Value::text("x").group_key());
        assert_eq!(Value::Null.group_key(), Value::Null.group_key());
    }
}
