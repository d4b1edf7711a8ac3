//! Derived data: samples, histograms, distribution summaries — and the
//! statistics the optimizer plans with.
//!
//! Section 2.1 of the paper points out that "database samples, histograms,
//! data distribution approximations are all, in some sense, small databases
//! and can be summarized textually as above". This module provides those
//! derived artifacts so the content translator can narrate them, and it is
//! also the estimation layer behind cost-based join ordering: [`TableStats`]
//! holds per-column NDV, null counts, min/max and a histogram (a snapshot
//! cached on [`crate::Database`]), [`ColumnStats`] turns predicates
//! into selectivities, and [`join_cardinality`] is the classic
//! |L|·|R| / max(ndv_l, ndv_r) estimate — the numbers the planner quotes
//! when it explains *why* it chose a join order.
//!
//! Nothing here reads a table's rows. Every [`Table`] keeps one
//! `LiveColumn` per column current as rows come and go, and statistics,
//! histograms and frequency tables are all views of those: exact at all
//! times, at the price of one counter update per value written.

use crate::catalog::FoldedName;
use crate::table::Table;
use crate::value::{DataType, GroupKey, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Buckets used for the histograms collected into [`TableStats`].
pub const STATS_HISTOGRAM_BUCKETS: usize = 10;

/// Selectivity assumed for predicates the estimator cannot interpret
/// (non-literal comparisons, LIKE, cross-variable residuals…). One third is
/// the traditional System R guess for an inequality.
pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// The class of a range estimate (`<`, `<=`, `>`, `>=`, `BETWEEN`): the
/// fraction of a column's non-NULL values the range keeps, rounded in log
/// space to the nearest point of the grid `2^(k/4)`, with "none" a class of
/// its own. Every bound of one class gets one bit-identical selectivity
/// ([`ColumnStats::lt_selectivity`] and its siblings estimate from the
/// class), so a plan made for one bound of a class is the plan for every
/// bound of it: the plan cache keeps one template per class of a statement's
/// range literals (`crate::adaptive::RangeParam`). Snapping moves an
/// estimate by at most `2^(1/8)`, about ±9 %, which no misestimate flag
/// (10×) can notice. A histogram bucket would be a coarser class, but it
/// would have to estimate every bound at the bucket's midpoint: on a
/// ten-bucket histogram of 3,000 ids, `id <= 5` would be 150 rows, a
/// 30× misestimate that sets off the feedback loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeClass(i32);

impl RangeClass {
    /// The range keeps no value.
    pub const NONE: RangeClass = RangeClass(i32::MIN);
    /// The statistics cannot place a bound (no numeric bounds): the
    /// estimate is a default that does not read the bound.
    pub const UNKNOWN: RangeClass = RangeClass(i32::MAX);

    /// The class of a range that keeps `fraction` of the non-NULL values.
    fn of(fraction: f64) -> RangeClass {
        if fraction > 0.0 {
            RangeClass((fraction.min(1.0).log2() * 4.0).round() as i32)
        } else {
            RangeClass::NONE
        }
    }

    /// The fraction of the non-NULL values every range of this class is
    /// estimated to keep; `None` for [`RangeClass::UNKNOWN`].
    fn fraction(self) -> Option<f64> {
        match self {
            RangeClass::UNKNOWN => None,
            RangeClass::NONE => Some(0.0),
            RangeClass(k) => Some((f64::from(k) / 4.0).exp2()),
        }
    }
}

/// An equi-width histogram over a numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Table and column the histogram describes.
    pub table: String,
    pub column: String,
    /// Lower bound of the first bucket.
    pub min: f64,
    /// Upper bound of the last bucket.
    pub max: f64,
    /// Bucket counts, low to high.
    pub buckets: Vec<usize>,
    /// Number of NULL values skipped.
    pub nulls: usize,
}

impl Histogram {
    /// Width of one bucket.
    pub fn bucket_width(&self) -> f64 {
        if self.buckets.is_empty() {
            0.0
        } else {
            (self.max - self.min) / self.buckets.len() as f64
        }
    }

    /// Range `[low, high)` covered by bucket `i`.
    pub fn bucket_range(&self, i: usize) -> (f64, f64) {
        let w = self.bucket_width();
        (self.min + w * i as f64, self.min + w * (i + 1) as f64)
    }

    /// Total number of non-NULL values.
    pub fn total(&self) -> usize {
        self.buckets.iter().sum()
    }

    /// Index of the most populated bucket.
    pub fn modal_bucket(&self) -> Option<usize> {
        self.buckets
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
    }

    /// Estimated fraction of non-NULL values strictly below `x`, with linear
    /// interpolation inside the bucket containing `x`. Clamped to [0, 1].
    pub fn fraction_below(&self, x: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        if x <= self.min {
            return 0.0;
        }
        if x >= self.max {
            return 1.0;
        }
        let width = self.bucket_width();
        if width <= 0.0 {
            // Degenerate single-point distribution: min == max handled above.
            return 0.0;
        }
        let idx = (((x - self.min) / width) as usize).min(self.buckets.len() - 1);
        let below: usize = self.buckets[..idx].iter().sum();
        let (lo, _hi) = self.bucket_range(idx);
        let within = ((x - lo) / width).clamp(0.0, 1.0) * self.buckets[idx] as f64;
        ((below as f64 + within) / total as f64).clamp(0.0, 1.0)
    }
}

/// Build an equi-width histogram over a numeric column, from the column's
/// value counts (one step per distinct value, not per row).
pub fn histogram(table: &Table, column: &str, buckets: usize) -> Option<Histogram> {
    let live = table.live_column(column)?;
    let built = live.counts.buckets(buckets)?;
    Some(built.histogram(table.name(), column, live.nulls))
}

/// Frequency table of the most common values of a (typically categorical)
/// column, descending by count, ties by value. Values are told apart the
/// way the statistics tell them apart (by [`Value::group_key`]).
pub fn top_values(table: &Table, column: &str, k: usize) -> Vec<(Value, usize)> {
    let Some(live) = table.live_column(column) else {
        return Vec::new();
    };
    let mut out = live.counts.values();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| extreme_cmp(&a.0, &b.0)));
    out.truncate(k);
    out
}

/// Basic numeric summary of a column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    pub table: String,
    pub column: String,
    pub non_null: usize,
    pub nulls: usize,
    pub distinct: usize,
    pub min: Option<Value>,
    pub max: Option<Value>,
}

/// Summarize a column: counts, distinct values, min and max — the column's
/// statistics under other names. `distinct` is therefore the statistics'
/// NDV: a Float column holding `3` and `3.0` has two distinct values, though
/// both print as "3".
pub fn summarize_column(table: &Table, column: &str) -> Option<ColumnSummary> {
    let live = table.live_column(column)?;
    let (stats, _) = live.stats(table.name(), column, table.len());
    Some(ColumnSummary {
        table: table.name().to_string(),
        column: column.to_string(),
        non_null: stats.non_null,
        nulls: stats.nulls,
        distinct: stats.ndv,
        min: stats.min,
        max: stats.max,
    })
}

/// Estimation-oriented statistics of one column: NDV, null count, bounds and
/// (for numeric columns) an equi-width histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub column: String,
    /// Number of distinct non-NULL values.
    pub ndv: usize,
    /// Number of NULL values.
    pub nulls: usize,
    /// Number of non-NULL values.
    pub non_null: usize,
    /// Smallest and largest non-NULL value under [`Value::total_cmp`]. Where
    /// that calls two spellings equal (`3` and `3.0` in a Float column) the
    /// integer counts as the smaller, then the smaller bit pattern, so both
    /// are a function of the values alone.
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Histogram over the column, when it is numeric.
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Total number of values (rows) the column was collected over.
    pub fn rows(&self) -> usize {
        self.non_null + self.nulls
    }

    /// Fraction of rows that are non-NULL. 1.0 over an empty column (a
    /// predicate over no rows eliminates nothing, and 0/0 should not poison
    /// downstream products).
    pub fn non_null_fraction(&self) -> f64 {
        let rows = self.rows();
        if rows == 0 {
            1.0
        } else {
            self.non_null as f64 / rows as f64
        }
    }

    /// Selectivity of `column = <literal>` under the uniform-NDV assumption:
    /// the matching rows are the non-NULL fraction spread evenly over the
    /// distinct values. Zero when the column holds no values at all.
    pub fn eq_selectivity(&self) -> f64 {
        if self.ndv == 0 {
            return 0.0;
        }
        self.non_null_fraction() / self.ndv as f64
    }

    /// The fraction of the non-NULL values below `x` (through `x` with
    /// `inclusive`), read from the histogram when one exists, else
    /// interpolated between min and max; `None` when the column has no
    /// numeric bounds to place `x` between.
    fn fraction_below(&self, x: f64, inclusive: bool) -> Option<f64> {
        let below = match &self.histogram {
            Some(h) => h.fraction_below(x),
            None => match (
                self.min.as_ref().and_then(Value::as_f64),
                self.max.as_ref().and_then(Value::as_f64),
            ) {
                (Some(min), Some(max)) if max > min => ((x - min) / (max - min)).clamp(0.0, 1.0),
                (Some(min), Some(_)) => {
                    // Single-point distribution.
                    if x > min || (inclusive && x == min) {
                        1.0
                    } else {
                        0.0
                    }
                }
                _ => return None,
            },
        };
        // `below` is a fraction of the non-NULL values, so the equality mass
        // moved at the boundary must also be a fraction of the non-NULLs
        // (1/NDV) — the single non-null scaling happens in the caller. The
        // mass is only added for `<=` when x can actually be a value (within
        // the column's range), and subtracted for a strict `<` at exactly
        // the maximum, where the histogram's fraction_below saturates at 1.0
        // although the max-valued rows do not match.
        let eq_mass = if self.ndv > 0 {
            1.0 / self.ndv as f64
        } else {
            0.0
        };
        let min = self.min.as_ref().and_then(Value::as_f64);
        let max = self.max.as_ref().and_then(Value::as_f64);
        let within_range =
            min.map(|m| x >= m).unwrap_or(true) && max.map(|m| x <= m).unwrap_or(true);
        Some(if inclusive && within_range {
            (below + eq_mass).min(1.0)
        } else if !inclusive && max == Some(x) {
            (below - eq_mass).max(0.0)
        } else {
            below
        })
    }

    /// The class of `column < x` (`<= x` with `inclusive`): see
    /// [`RangeClass`].
    pub fn lt_class(&self, x: f64, inclusive: bool) -> RangeClass {
        self.fraction_below(x, inclusive)
            .map_or(RangeClass::UNKNOWN, RangeClass::of)
    }

    /// The class of `column > x` (`>= x` with `inclusive`).
    pub fn gt_class(&self, x: f64, inclusive: bool) -> RangeClass {
        self.fraction_below(x, !inclusive)
            .map_or(RangeClass::UNKNOWN, |below| RangeClass::of(1.0 - below))
    }

    /// The class of `column BETWEEN lo AND hi` (inclusive bounds).
    pub fn between_class(&self, lo: f64, hi: f64) -> RangeClass {
        if hi < lo {
            return RangeClass::NONE;
        }
        match (
            self.fraction_below(hi, true),
            self.fraction_below(lo, false),
        ) {
            (Some(hi), Some(lo)) => RangeClass::of(hi - lo),
            _ => RangeClass::UNKNOWN,
        }
    }

    /// The selectivity every range of `class` gets: the class's grid point
    /// scaled by the non-NULL fraction, or `unknown` where the statistics
    /// could not place the bound.
    fn class_selectivity(&self, class: RangeClass, unknown: f64) -> f64 {
        match class.fraction() {
            Some(fraction) => fraction * self.non_null_fraction(),
            None => unknown,
        }
    }

    /// Selectivity of `column < x` (or `<= x` with `inclusive`): the
    /// fraction of the non-NULL values below `x`, estimated from the
    /// histogram when one exists, else by linear interpolation between min
    /// and max, snapped to its [`RangeClass`] — the nearest point of the
    /// grid `2^(k/4)`, within ±9 % of the interpolation, not the histogram
    /// bucket, whose midpoint can be 30× off — and scaled by the non-NULL
    /// fraction; [`DEFAULT_SELECTIVITY`] without numeric bounds. Every `x`
    /// of one class gets the same bits, which is what lets a plan-cache
    /// template stand for every bound of its class.
    pub fn lt_selectivity(&self, x: f64, inclusive: bool) -> f64 {
        self.class_selectivity(self.lt_class(x, inclusive), DEFAULT_SELECTIVITY)
    }

    /// Selectivity of `column > x` (or `>= x`): the complement of
    /// [`ColumnStats::lt_selectivity`] among the non-NULL values, snapped.
    pub fn gt_selectivity(&self, x: f64, inclusive: bool) -> f64 {
        let unknown = (self.non_null_fraction() - DEFAULT_SELECTIVITY).max(0.0);
        self.class_selectivity(self.gt_class(x, inclusive), unknown)
    }

    /// Selectivity of `column BETWEEN lo AND hi` (inclusive bounds), snapped;
    /// 0 for an empty range.
    pub fn between_selectivity(&self, lo: f64, hi: f64) -> f64 {
        self.class_selectivity(self.between_class(lo, hi), 0.0)
    }

    /// Selectivity of `column IS NULL`.
    pub fn null_selectivity(&self) -> f64 {
        let rows = self.rows();
        if rows == 0 {
            0.0
        } else {
            self.nulls as f64 / rows as f64
        }
    }
}

/// Per-table statistics: a snapshot of the table's live column summaries,
/// cached on the [`crate::Database`] catalog until the table is next written.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub table: String,
    pub row_count: usize,
    /// Column statistics keyed by lower-cased column name.
    columns: BTreeMap<String, ColumnStats>,
}

impl TableStats {
    /// The statistics of every column of a table as of now. No row is read:
    /// the table has kept them current with every write (see
    /// `LiveColumn`).
    pub fn collect(table: &Table) -> TableStats {
        TableStats::snapshot(table).0
    }

    /// [`TableStats::collect`], and how many columns had their bounds and
    /// histogram re-derived from their value counts on the way.
    pub(crate) fn snapshot(table: &Table) -> (TableStats, usize) {
        let mut rederived = 0;
        let mut columns = BTreeMap::new();
        for (col, live) in table.schema().columns.iter().zip(table.live_columns()) {
            let (stats, fresh) = live.stats(table.name(), &col.name, table.len());
            rederived += usize::from(fresh);
            columns.insert(col.name.to_lowercase(), stats);
        }
        let stats = TableStats {
            table: table.name().to_string(),
            row_count: table.len(),
            columns,
        };
        (stats, rederived)
    }

    /// Statistics of one column by case-insensitive name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(FoldedName::lower(name).as_str())
    }

    /// NDV of a column, defaulting to 1 when the column is unknown (the
    /// safest assumption: an unknown key does not reduce a join's output).
    pub fn ndv(&self, column: &str) -> usize {
        self.column(column).map(|c| c.ndv).unwrap_or(1)
    }
}

// ---------------------------------------------------------------------------
// Live column summaries
// ---------------------------------------------------------------------------

/// The order a column's extremes are picked by: [`Value::total_cmp`], and
/// where that calls two spellings equal (`3` and `3.0`) the integer first,
/// then the smaller bit pattern — never the order rows arrived in or a hash
/// map happens to iterate in.
fn extreme_cmp(a: &Value, b: &Value) -> Ordering {
    fn spelling(v: &Value) -> (bool, u64) {
        match v {
            Value::Float(f) => (true, f.to_bits()),
            _ => (false, 0),
        }
    }
    a.total_cmp(b).then_with(|| spelling(a).cmp(&spelling(b)))
}

/// How often each distinct non-NULL value of one column occurs. Typed by the
/// column's declared type, because the counts stay resident: an integer
/// costs 16 bytes in an ordered summary ([`OrderedCounts`]), a text one
/// boxed string that a lookup borrows. A value of another type (only an
/// unchecked `update_where` can store one) turns the counts into the general
/// map, which a Float column starts with: it tells `3` from `3.0`, as
/// [`Value::group_key`] does.
#[derive(Debug, Clone)]
enum ValueCounts {
    Integer(IntegerCounts),
    /// Keyed by the rows' own shared strings: counting a value copies none.
    Text(HashMap<Arc<str>, u32>),
    Other(HashMap<GroupKey, u32>),
}

impl ValueCounts {
    fn for_type(data_type: DataType) -> ValueCounts {
        match data_type {
            DataType::Integer => ValueCounts::Integer(IntegerCounts::default()),
            DataType::Text => ValueCounts::Text(HashMap::new()),
            _ => ValueCounts::Other(HashMap::new()),
        }
    }

    fn add(&mut self, v: &Value) {
        match (&mut *self, v) {
            (ValueCounts::Integer(counts), Value::Integer(i)) => {
                _ = counts.get_mut().count(*i, true)
            }
            (ValueCounts::Text(m), Value::Text(s)) => match m.get_mut(&**s) {
                Some(count) => *count += 1,
                None => {
                    m.insert(Arc::clone(s), 1);
                }
            },
            (ValueCounts::Other(m), _) => *m.entry(v.group_key()).or_insert(0) += 1,
            _ => {
                self.generalize();
                self.add(v);
            }
        }
    }

    fn generalize(&mut self) {
        let general = match std::mem::replace(self, ValueCounts::Other(HashMap::new())) {
            ValueCounts::Integer(mut counts) => (counts.get_mut().pairs())
                .map(|(i, count)| (GroupKey::Integer(i), count))
                .collect(),
            ValueCounts::Text(m) => m
                .into_iter()
                .map(|(s, count)| (GroupKey::Text(s), count))
                .collect(),
            ValueCounts::Other(m) => m,
        };
        *self = ValueCounts::Other(general);
    }

    /// Forget one occurrence; true when it was the last of its value.
    fn remove(&mut self, v: &Value) -> bool {
        fn take<K, Q>(m: &mut HashMap<K, u32>, key: &Q) -> bool
        where
            K: Borrow<Q> + Hash + Eq,
            Q: Hash + Eq + ?Sized,
        {
            match m.get_mut(key) {
                Some(count) if *count > 1 => {
                    *count -= 1;
                    false
                }
                Some(_) => {
                    m.remove(key);
                    true
                }
                None => false,
            }
        }
        match (self, v) {
            (ValueCounts::Integer(counts), Value::Integer(i)) => counts.get_mut().count(*i, false),
            (ValueCounts::Text(m), Value::Text(s)) => take::<_, str>(m, s),
            (ValueCounts::Other(m), _) => take(m, &v.group_key()),
            // A typed map that met another type is no longer typed.
            _ => false,
        }
    }

    /// Number of distinct values.
    fn distinct(&self) -> usize {
        match self {
            ValueCounts::Integer(counts) => counts.lock().distinct,
            ValueCounts::Text(m) => m.len(),
            ValueCounts::Other(m) => m.len(),
        }
    }

    /// Every distinct value with its count, in no particular order.
    fn values(&self) -> Vec<(Value, usize)> {
        match self {
            ValueCounts::Integer(counts) => (counts.lock().pairs())
                .map(|(i, count)| (Value::Integer(i), count as usize))
                .collect(),
            ValueCounts::Text(m) => m
                .iter()
                .map(|(s, count)| (Value::text(&**s), *count as usize))
                .collect(),
            ValueCounts::Other(m) => m
                .iter()
                .map(|(key, count)| (key.to_value(), *count as usize))
                .collect(),
        }
    }

    /// Extremes and histogram from scratch: two passes over the distinct
    /// values, or for integers, binary searches in their ordered summary.
    fn shape(&self) -> Shape {
        fn bounds(values: impl Iterator<Item = Value>) -> Option<(Value, Value)> {
            let mut bounds: Option<(Value, Value)> = None;
            for v in values {
                match &mut bounds {
                    None => bounds = Some((v.clone(), v)),
                    Some((min, _)) if extreme_cmp(&v, min).is_lt() => *min = v,
                    Some((_, max)) if extreme_cmp(&v, max).is_gt() => *max = v,
                    Some(_) => {}
                }
            }
            bounds
        }
        match self {
            ValueCounts::Integer(counts) => counts.lock().shape(STATS_HISTOGRAM_BUCKETS),
            // Strings are compared where they lie; only the two extremes
            // are copied.
            ValueCounts::Text(m) => {
                let text = |s: &str| Value::text(s);
                let (min, max) = (m.keys().min(), m.keys().max());
                Shape {
                    bounds: min.zip(max).map(|(min, max)| (text(min), text(max))),
                    buckets: None,
                }
            }
            ValueCounts::Other(m) => Shape {
                bounds: bounds(m.keys().map(GroupKey::to_value)),
                buckets: self.buckets(STATS_HISTOGRAM_BUCKETS),
            },
        }
    }

    /// An equi-width histogram of `n` buckets over the numeric values.
    fn buckets(&self, n: usize) -> Option<Buckets> {
        match self {
            ValueCounts::Integer(counts) => counts.lock().shape(n).buckets,
            ValueCounts::Text(_) => None,
            ValueCounts::Other(m) => Buckets::build(
                m.iter()
                    .filter_map(|(key, count)| Some((key.to_value().as_f64()?, *count))),
                n,
            ),
        }
    }
}

/// An Integer column's [`OrderedCounts`], behind a lock that only a snapshot
/// takes, to merge through `&Table`; a write holds `&mut` and takes none.
#[derive(Debug, Default)]
struct IntegerCounts(Mutex<OrderedCounts>);

impl Clone for IntegerCounts {
    fn clone(&self) -> IntegerCounts {
        IntegerCounts(Mutex::new(self.lock().clone()))
    }
}

impl IntegerCounts {
    fn get_mut(&mut self) -> &mut OrderedCounts {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock(&self) -> MutexGuard<'_, OrderedCounts> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `n` one up, or one down.
fn step(n: &mut u32, up: bool) {
    *n = *n + u32::from(up) - u32::from(!up);
}

/// Distinct integers in ascending order, their counts, and a Fenwick tree
/// of prefix counts (*A New Data Structure for Cumulative Frequency Tables*,
/// 1994). A value already present, or above the largest, is counted in
/// place in O(log NDV); a new one below the largest is staged until the next
/// snapshot merges it in, the one step that walks every distinct value. A
/// count that falls to 0 stays as a tombstone until a merge.
#[derive(Debug, Clone, Default)]
struct OrderedCounts {
    values: Vec<i64>,
    counts: Vec<u32>,
    /// `tree[i]` sums `counts[i & (i + 1)..=i]`.
    tree: Vec<u32>,
    /// New values below the largest of `values`, with their counts.
    staged: BTreeMap<i64, u32>,
    /// Number of values counted at least once, staged ones included.
    distinct: usize,
}

impl OrderedCounts {
    /// One more (`up`) or one fewer occurrence of `i`; true when that was
    /// the first or the last of its value.
    fn count(&mut self, i: i64, up: bool) -> bool {
        let edge = match self.values.binary_search(&i) {
            Ok(at) => self.bump(at, up) == u32::from(up),
            Err(at) if at == self.values.len() && up => {
                self.push(i, 1);
                true
            }
            Err(_) => {
                let count = self.staged.entry(i).or_insert(0);
                step(count, up);
                let count = *count;
                if count == 0 {
                    self.staged.remove(&i);
                }
                count == u32::from(up)
            }
        };
        self.distinct = self.distinct + usize::from(edge && up) - usize::from(edge && !up);
        edge
    }

    /// One more or one fewer occurrence of the value at `at`; its new count.
    fn bump(&mut self, at: usize, up: bool) -> u32 {
        let mut i = at;
        while i < self.tree.len() {
            step(&mut self.tree[i], up);
            i |= i + 1;
        }
        step(&mut self.counts[at], up);
        self.counts[at]
    }

    /// Append `value`, above every value held, `count` times.
    fn push(&mut self, value: i64, count: u32) {
        let at = self.values.len();
        (self.tree).push(count + (self.prefix(at) - self.prefix(at & (at + 1))) as u32);
        self.values.push(value);
        self.counts.push(count);
    }

    /// Every value counted at least once, with its count, in no order.
    fn pairs(&self) -> impl Iterator<Item = (i64, u32)> + '_ {
        let sorted = self.values.iter().zip(&self.counts);
        (sorted.chain(&self.staged)).filter_map(|(&i, &count)| (count > 0).then_some((i, count)))
    }

    /// Put the staged values in place and drop the tombstones, if any are
    /// staged or tombstones outnumber live values; true when it did.
    fn merge(&mut self) -> bool {
        let tombstones = self.values.len() + self.staged.len() - self.distinct;
        if self.staged.is_empty() && tombstones <= self.distinct {
            return false;
        }
        let mut pairs: Vec<(i64, u32)> = self.pairs().collect();
        pairs.sort(); // two ascending runs: one merge
        *self = OrderedCounts {
            values: Vec::with_capacity(pairs.len()),
            counts: Vec::with_capacity(pairs.len()),
            tree: Vec::with_capacity(pairs.len()),
            staged: BTreeMap::new(),
            distinct: self.distinct,
        };
        pairs.into_iter().for_each(|(i, count)| self.push(i, count));
        true
    }

    /// The number of occurrences of the values before position `end`.
    fn prefix(&self, end: usize) -> usize {
        let (mut sum, mut i) = (0, end);
        while i > 0 {
            sum += self.tree[i - 1] as usize;
            i &= i - 1;
        }
        sum
    }

    /// The first position whose prefix count, itself included, exceeds `k`.
    fn position_past(&self, mut k: usize) -> usize {
        let (mut at, mut width) = (0, (self.tree.len() + 1).next_power_of_two() / 2);
        while width > 0 {
            if at + width <= self.tree.len() && self.tree[at + width - 1] as usize <= k {
                at += width;
                k -= self.tree[at - 1] as usize;
            }
            width /= 2;
        }
        at
    }

    /// Merge, then find the extremes past any tombstones by two descents of
    /// the tree, and `n` equi-width buckets between them: [`Buckets::slot`]
    /// never decreases as the value grows (above 2^53 too), so a bucket is a
    /// run of positions, and its count a difference of two prefix counts.
    fn shape(&mut self, n: usize) -> Shape {
        self.merge();
        let Some(last) = self.prefix(self.values.len()).checked_sub(1) else {
            return Shape::default();
        };
        let live = |k| self.values[self.position_past(k)];
        let (lo, hi) = (live(0), live(last));
        let buckets = Buckets::empty(lo as f64, hi as f64, n).map(|mut buckets| {
            let mut below = 0;
            for k in 0..n {
                let upto = self.prefix(self.first_in(&buckets, k + 1));
                buckets.counts[k] = upto - below;
                below = upto;
            }
            buckets
        });
        let bounds = Some((Value::Integer(lo), Value::Integer(hi)));
        Shape { bounds, buckets }
    }

    /// The first position [`Buckets::slot`] puts in bucket `k` or above:
    /// searched for at `min + k · width`, then moved by the exact test.
    fn first_in(&self, buckets: &Buckets, k: usize) -> usize {
        if k >= buckets.counts.len() {
            return self.values.len();
        }
        let start = buckets.min + buckets.width * k as f64;
        let guess = self.values.partition_point(|&i| (i as f64) < start);
        let below = |at: &usize| buckets.slot(self.values[*at] as f64) < k;
        let from = (0..guess).rev().find(below).map_or(0, |at| at + 1);
        let end = self.values.len();
        (from..end).find(|at| !below(at)).unwrap_or(end)
    }
}

/// Equi-width bucket counts over the numeric values of one column.
#[derive(Debug, Clone)]
struct Buckets {
    min: f64,
    max: f64,
    /// Width of one bucket; 1 when all values are one point.
    width: f64,
    counts: Vec<usize>,
}

impl Buckets {
    /// From (value, count) pairs: one pass for the range, one to fill.
    fn build(values: impl Iterator<Item = (f64, u32)> + Clone, n: usize) -> Option<Buckets> {
        let mut range: Option<(f64, f64)> = None;
        for (x, _) in values.clone() {
            let (min, max) = range.unwrap_or((f64::INFINITY, f64::NEG_INFINITY));
            range = Some((min.min(x), max.max(x)));
        }
        let (min, max) = range?;
        let mut buckets = Buckets::empty(min, max, n)?;
        for (x, count) in values {
            let slot = buckets.slot(x);
            buckets.counts[slot] += count as usize;
        }
        Some(buckets)
    }

    /// `n` empty buckets between `min` and `max`; `None` for no buckets.
    fn empty(min: f64, max: f64, n: usize) -> Option<Buckets> {
        let width = if max > min {
            (max - min) / n as f64
        } else {
            1.0
        };
        (n > 0).then(|| Buckets {
            min,
            max,
            width,
            counts: vec![0; n],
        })
    }

    /// The bucket `x` falls in.
    fn slot(&self, x: f64) -> usize {
        (((x - self.min) / self.width) as usize).min(self.counts.len() - 1)
    }

    fn histogram(&self, table: &str, column: &str, nulls: usize) -> Histogram {
        Histogram {
            table: table.to_string(),
            column: column.to_string(),
            min: self.min,
            max: self.max,
            buckets: self.counts.clone(),
            nulls,
        }
    }
}

/// What of a column's statistics depends on where its values lie: the
/// extremes, and the [`STATS_HISTOGRAM_BUCKETS`] buckets between the numeric
/// ones.
#[derive(Debug, Clone, Default)]
struct Shape {
    bounds: Option<(Value, Value)>,
    buckets: Option<Buckets>,
}

impl Shape {
    /// Take a new occurrence of `v` in; false when it lies outside the
    /// histogram's range, which moves every bucket boundary.
    fn admit(&mut self, v: &Value) -> bool {
        match &mut self.bounds {
            None => self.bounds = Some((v.clone(), v.clone())),
            Some((min, _)) if extreme_cmp(v, min).is_lt() => *min = v.clone(),
            Some((_, max)) if extreme_cmp(v, max).is_gt() => *max = v.clone(),
            Some(_) => {}
        }
        match (v.as_f64(), &mut self.buckets) {
            (None, _) => true,
            (Some(x), Some(buckets)) if buckets.min <= x && x <= buckets.max => {
                let slot = buckets.slot(x);
                buckets.counts[slot] += 1;
                true
            }
            (Some(_), _) => false,
        }
    }

    /// Let one occurrence of `v` go (`last`: no other is left); false when
    /// that takes an extreme away, and the next one has to be looked for.
    fn release(&mut self, v: &Value, last: bool) -> bool {
        let is_extreme =
            |(min, max): &(Value, Value)| v.total_cmp(min).is_eq() || v.total_cmp(max).is_eq();
        if last && self.bounds.as_ref().is_some_and(is_extreme) {
            return false;
        }
        match (v.as_f64(), &mut self.buckets) {
            (None, _) => true,
            (Some(x), Some(buckets)) if !(last && (x == buckets.min || x == buckets.max)) => {
                let slot = buckets.slot(x);
                buckets.counts[slot] -= 1;
                true
            }
            (Some(_), _) => false,
        }
    }
}

/// The running summary of one column, kept by its [`Table`]: a write costs
/// one counter update per value, and where the value lies between the
/// current extremes, one bucket update. Only a value that widens the
/// histogram's range, or the disappearance of the last copy of an extreme,
/// leaves the [`Shape`] to be derived again when statistics are next asked
/// for: by binary search in an Integer column's ordered counts, and in one
/// step per distinct value in any other column's.
#[derive(Debug, Clone)]
pub(crate) struct LiveColumn {
    counts: ValueCounts,
    nulls: usize,
    /// Unset while waiting to be re-derived. A `OnceLock` so that asking for
    /// statistics through `&Table` can store what it derived; writers hold
    /// `&mut` and update or clear it without synchronisation.
    shape: OnceLock<Shape>,
}

impl LiveColumn {
    pub(crate) fn new(data_type: DataType) -> LiveColumn {
        LiveColumn {
            counts: ValueCounts::for_type(data_type),
            nulls: 0,
            shape: OnceLock::new(),
        }
    }

    /// Count one more occurrence of `v`.
    pub(crate) fn add(&mut self, v: &Value) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        self.counts.add(v);
        if self.shape.get_mut().is_some_and(|shape| !shape.admit(v)) {
            self.shape.take();
        }
    }

    /// Count one occurrence of `v` less.
    pub(crate) fn remove(&mut self, v: &Value) {
        if v.is_null() {
            self.nulls -= 1;
            return;
        }
        let last = self.counts.remove(v);
        if self
            .shape
            .get_mut()
            .is_some_and(|shape| !shape.release(v, last))
        {
            self.shape.take();
        }
    }

    /// The column's statistics over `rows` rows, and whether they walked
    /// every distinct value (to merge staged integers or derive a shape).
    fn stats(&self, table: &str, column: &str, rows: usize) -> (ColumnStats, bool) {
        let mut rederived = match &self.counts {
            ValueCounts::Integer(counts) => counts.lock().merge(),
            _ => false,
        };
        let shape = self.shape.get_or_init(|| {
            rederived |= !matches!(self.counts, ValueCounts::Integer(_));
            self.counts.shape()
        });
        let (min, max) = shape.bounds.clone().unzip();
        let stats = ColumnStats {
            column: column.to_string(),
            ndv: self.counts.distinct(),
            nulls: self.nulls,
            non_null: rows - self.nulls,
            min,
            max,
            histogram: shape
                .buckets
                .as_ref()
                .map(|buckets| buckets.histogram(table, column, self.nulls)),
        };
        (stats, rederived)
    }
}

/// The classic equi-join cardinality estimate:
/// `|L| · |R| / max(ndv_l, ndv_r)`, with NDVs clamped to at least 1 so
/// empty-statistics inputs degrade to a cross product rather than dividing
/// by zero. NDVs should already be capped at each side's cardinality by the
/// caller when the inputs are filtered intermediates.
pub fn join_cardinality(left_rows: f64, right_rows: f64, left_ndv: usize, right_ndv: usize) -> f64 {
    let d = left_ndv.max(right_ndv).max(1) as f64;
    left_rows * right_rows / d
}

/// Selectivity of a semi-join on the probe side, under the classic
/// containment assumption: of the probe side's `probe_ndv` distinct keys,
/// `min(probe_ndv, build_ndv)` are expected to find a build-side match, so
/// the fraction of probe *rows* that survive is `min(ndv) / probe_ndv`.
pub fn semi_join_selectivity(probe_ndv: usize, build_ndv: usize) -> f64 {
    probe_ndv.min(build_ndv).max(1) as f64 / probe_ndv.max(1) as f64
}

/// Estimated output of a semi-join (`EXISTS` / `IN` after decorrelation):
/// the probe rows scaled by distinct-key containment.
pub fn semi_join_cardinality(probe_rows: f64, probe_ndv: usize, build_ndv: usize) -> f64 {
    probe_rows * semi_join_selectivity(probe_ndv, build_ndv)
}

/// Estimated output of an anti-join (`NOT EXISTS` / `NOT IN`): the
/// complement of the semi-join estimate, clamped at zero.
pub fn anti_join_cardinality(probe_rows: f64, probe_ndv: usize, build_ndv: usize) -> f64 {
    (probe_rows - semi_join_cardinality(probe_rows, probe_ndv, build_ndv)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::Date;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// The oracle: statistics collected from scratch in one pass over the
    /// rows, as [`TableStats::collect`] did before tables kept summaries.
    fn collect_from_rows(table: &Table) -> TableStats {
        let schema_columns = &table.schema().columns;
        let ncols = schema_columns.len();
        let mut nulls = vec![0usize; ncols];
        let mut distinct: Vec<HashSet<GroupKey>> = vec![HashSet::new(); ncols];
        let mut bounds: Vec<Option<(&Value, &Value)>> = vec![None; ncols];
        let mut numeric: Vec<Vec<f64>> = vec![Vec::new(); ncols];
        for row in table.rows() {
            for i in 0..ncols {
                let Some(v) = row.get(i) else { continue };
                if v.is_null() {
                    nulls[i] += 1;
                    continue;
                }
                distinct[i].insert(v.group_key());
                bounds[i] = Some(match bounds[i] {
                    None => (v, v),
                    Some((min, max)) => (
                        if extreme_cmp(v, min).is_lt() { v } else { min },
                        if extreme_cmp(v, max).is_gt() { v } else { max },
                    ),
                });
                if let Some(x) = v.as_f64() {
                    numeric[i].push(x);
                }
            }
        }
        let mut columns = BTreeMap::new();
        for (i, col) in schema_columns.iter().enumerate() {
            columns.insert(
                col.name.to_lowercase(),
                ColumnStats {
                    column: col.name.clone(),
                    ndv: distinct[i].len(),
                    nulls: nulls[i],
                    non_null: table.len() - nulls[i],
                    min: bounds[i].map(|(min, _)| min.clone()),
                    max: bounds[i].map(|(_, max)| max.clone()),
                    histogram: histogram_from_numeric(
                        table.name(),
                        &col.name,
                        &numeric[i],
                        nulls[i],
                        STATS_HISTOGRAM_BUCKETS,
                    ),
                },
            );
        }
        TableStats {
            table: table.name().to_string(),
            row_count: table.len(),
            columns,
        }
    }

    fn histogram_from_numeric(
        table: &str,
        column: &str,
        numeric: &[f64],
        nulls: usize,
        buckets: usize,
    ) -> Option<Histogram> {
        if buckets == 0 || numeric.is_empty() {
            return None;
        }
        let min = numeric.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = numeric.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut counts = vec![0usize; buckets];
        let width = if max > min {
            (max - min) / buckets as f64
        } else {
            1.0
        };
        for x in numeric {
            let mut idx = ((x - min) / width) as usize;
            if idx >= buckets {
                idx = buckets - 1;
            }
            counts[idx] += 1;
        }
        Some(Histogram {
            table: table.to_string(),
            column: column.to_string(),
            min,
            max,
            buckets: counts,
            nulls,
        })
    }

    /// Live statistics equal the oracle's, spelling included (`==` on values
    /// cannot tell `3` from `3.0`; `Debug` can).
    fn assert_live_matches_rows(table: &Table, context: &str) {
        let (live, oracle) = (TableStats::collect(table), collect_from_rows(table));
        assert_eq!(live, oracle, "{context}");
        assert_eq!(format!("{live:?}"), format!("{oracle:?}"), "{context}");
    }

    /// A table with one column of every type; `score` is a Float column
    /// that is fed integers too.
    fn typed_table() -> Table {
        Table::new(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", DataType::Integer),
                    ColumnDef::nullable("name", DataType::Text),
                    ColumnDef::nullable("score", DataType::Float),
                    ColumnDef::nullable("day", DataType::Date),
                    ColumnDef::nullable("flag", DataType::Boolean),
                ],
            )
            .with_primary_key(&["id"]),
        )
    }

    fn typed_row(rng: &mut StdRng, id: i64) -> Vec<Value> {
        let maybe = |rng: &mut StdRng, v: Value| if rng.gen_bool(0.15) { Value::Null } else { v };
        let name = Value::text(format!("n{}", rng.gen_range(0..12u8)));
        let score = match rng.gen_range(0..3u8) {
            0 => Value::Integer(rng.gen_range(-4..=4i64)),
            1 => Value::Float(rng.gen_range(-4..=4i64) as f64),
            _ => Value::Float(rng.gen_range(-40..=40i64) as f64 / 8.0),
        };
        let day = Value::Date(
            Date::new(2000 + rng.gen_range(0..3i32), 1, rng.gen_range(1..=5u8)).unwrap(),
        );
        let flag = Value::Boolean(rng.gen_bool(0.5));
        vec![
            Value::int(id),
            maybe(rng, name),
            maybe(rng, score),
            maybe(rng, day),
            maybe(rng, flag),
        ]
    }

    #[test]
    fn live_statistics_equal_a_from_scratch_collection_after_every_write() {
        for seed in [0xDB15_0001u64, 0xDB15_0002, 0xDB15_0003] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = typed_table();
            let mut next_id = 0;
            for step in 0..300 {
                let context = format!("seed {seed:#x}, step {step}");
                match rng.gen_range(0..10u8) {
                    0..=4 => {
                        // Several inserts between two snapshots.
                        for _ in 0..rng.gen_range(1..=6u8) {
                            next_id += 1;
                            t.insert_values(typed_row(&mut rng, next_id)).unwrap();
                        }
                    }
                    5 => {
                        // The current minimum and maximum score, all copies.
                        let stats = TableStats::collect(&t);
                        let score = stats.column("score").unwrap();
                        let (min, max) = (score.min.clone(), score.max.clone());
                        t.delete_where(|r| r.get(2) == min.as_ref() || r.get(2) == max.as_ref());
                    }
                    6 => {
                        // From the middle.
                        let k = rng.gen_range(2..=5i64);
                        t.delete_where(|r| r.get(0).and_then(Value::as_i64).unwrap() % k == 0);
                    }
                    7 => {
                        // The tail, or now and then everything.
                        let from = if rng.gen_bool(0.2) { 0 } else { next_id - 3 };
                        t.delete_where(|r| r.get(0).and_then(Value::as_i64).unwrap() > from);
                    }
                    8 => {
                        let replacement = typed_row(&mut rng, 0);
                        let k = rng.gen_range(2..=4i64);
                        t.update_where(
                            |r| r.get(0).and_then(Value::as_i64).unwrap() % k == 1,
                            |r| {
                                for (col, value) in replacement.iter().enumerate().skip(1) {
                                    *r.get_mut(col).unwrap() = value.clone();
                                }
                            },
                        )
                        .unwrap();
                    }
                    _ => {
                        // Key columns move to ids not used yet.
                        let base = next_id;
                        next_id += base;
                        t.update_where(
                            |r| r.get(0).and_then(Value::as_i64).unwrap() % 3 == 0,
                            |r| {
                                let id = r.get(0).and_then(Value::as_i64).unwrap();
                                *r.get_mut(0).unwrap() = Value::int(id + base);
                            },
                        )
                        .unwrap();
                    }
                }
                assert_live_matches_rows(&t, &context);
            }
        }
    }

    #[test]
    fn equal_extremes_of_different_spelling_are_reported_by_rule_not_by_arrival() {
        let float_column = || {
            Table::new(TableSchema::new(
                "F",
                vec![ColumnDef::new("x", DataType::Float)],
            ))
        };
        let spelled = |t: &Table| {
            let stats = TableStats::collect(t);
            let x = stats.column("x").unwrap();
            format!("{:?} {:?}", x.min, x.max)
        };
        let (mut a, mut b) = (float_column(), float_column());
        for v in [Value::Integer(3), Value::Float(3.0)] {
            a.insert_values(vec![v]).unwrap();
        }
        for v in [Value::Float(3.0), Value::Integer(3)] {
            b.insert_values(vec![v]).unwrap();
        }
        assert_eq!(spelled(&a), "Some(Integer(3)) Some(Float(3.0))");
        assert_eq!(spelled(&b), spelled(&a));
        assert_eq!(TableStats::collect(&a).ndv("x"), 2, "3 and 3.0 are two");
        // Written while a snapshot is current, and re-derived after the
        // integer goes: the same rule.
        b.insert_values(vec![Value::Float(3.0)]).unwrap();
        assert_eq!(spelled(&b), spelled(&a));
        b.delete_where(|r| matches!(r.get(0), Some(Value::Integer(_))));
        assert_eq!(spelled(&b), "Some(Float(3.0)) Some(Float(3.0))");
        assert_live_matches_rows(&b, "after the integer spelling left");
    }

    #[test]
    fn only_staged_integers_and_a_lost_text_extreme_leave_a_column_to_re_derive() {
        let mut t = table();
        let rederived = |t: &Table| TableStats::snapshot(t).1;
        assert_eq!(
            rederived(&t),
            1,
            "a new table derives its text column once; its integers came in order"
        );
        assert_eq!(rederived(&t), 0, "and keeps what it derived");
        // A middle row leaves a tombstone in each integer column, and the
        // same values coming back revive them.
        t.delete_where(|r| r.get(0) == Some(&Value::int(3)));
        assert_eq!(rederived(&t), 0, "a middle value left");
        t.insert_values(vec![Value::int(3), Value::text("C"), Value::int(2000)])
            .unwrap();
        assert_eq!(rederived(&t), 0, "and came back");
        // Six inserts past every extreme: the integers are appended, the
        // text column just takes the new maximum.
        for id in 7..13 {
            t.insert_values(vec![
                Value::int(id),
                Value::text(format!("Z{id}")),
                Value::int(2000 + id),
            ])
            .unwrap();
        }
        assert_eq!(rederived(&t), 0, "appends");
        // The maxima of both integer columns leave: tombstones, found past.
        t.delete_where(|r| r.get(0).and_then(Value::as_i64) >= Some(10));
        assert_eq!(rederived(&t), 0, "the largest ids and years are gone");
        // Two new years inside the range are staged and merged once.
        for (id, year) in [(20, 1995), (21, 1996)] {
            t.insert_values(vec![Value::int(id), Value::text("Y"), Value::int(year)])
                .unwrap();
        }
        assert_eq!(rederived(&t), 1, "year only");
        // The last copy of the largest title leaves.
        t.delete_where(|r| r.get(1) == Some(&Value::text("Z9")));
        assert_eq!(rederived(&t), 1, "title only");
        assert_live_matches_rows(&t, "after all of it");
    }

    /// Buckets found by binary search in an ordered summary are the ones a
    /// pass over the values fills, where `as f64` rounds many integers to
    /// one float (above 2^53) and where the range is all of `i64`.
    #[test]
    fn integer_buckets_hold_at_the_ends_of_i64() {
        let mut t = Table::new(TableSchema::new(
            "W",
            vec![ColumnDef::new("x", DataType::Integer)],
        ));
        let mut rng = StdRng::seed_from_u64(0xDB15_0004);
        let near = |rng: &mut StdRng, at: i64| at.saturating_add(rng.gen_range(-3000..3000i64));
        for step in 0..400 {
            let x = match rng.gen_range(0..4u8) {
                0 => near(&mut rng, 1 << 53),
                1 => near(&mut rng, i64::MAX),
                2 => near(&mut rng, i64::MIN),
                _ => near(&mut rng, 0),
            };
            t.insert_values(vec![Value::int(x)]).unwrap();
            if step % 3 == 0 {
                t.delete_where(|r| r.get(0) == Some(&Value::int(x)));
            }
            if step % 40 == 39 {
                // The low half goes: the range shrinks to the top end.
                t.delete_where(|r| r.get(0).and_then(Value::as_i64) < Some(1 << 52));
            }
            assert_live_matches_rows(&t, &format!("step {step}"));
        }
    }

    #[test]
    fn a_value_of_another_type_generalizes_the_count_map() {
        // Only an unchecked update can store text in an integer column; the
        // statistics stay those of the rows.
        let mut t = table();
        t.update_where(
            |r| r.get(0) == Some(&Value::int(2)),
            |r| *r.get_mut(2).unwrap() = Value::text("unknown"),
        )
        .unwrap();
        assert_live_matches_rows(&t, "text in an integer column");
        t.update_where(
            |r| r.get(0) == Some(&Value::int(2)),
            |r| *r.get_mut(1).unwrap() = Value::int(7),
        )
        .unwrap();
        assert_live_matches_rows(&t, "an integer in a text column");
        t.delete_where(|r| r.get(0) == Some(&Value::int(2)));
        assert_live_matches_rows(&t, "and gone again");
    }

    fn table() -> Table {
        let mut t = Table::new(
            TableSchema::new(
                "MOVIES",
                vec![
                    ColumnDef::new("id", DataType::Integer),
                    ColumnDef::new("title", DataType::Text),
                    ColumnDef::nullable("year", DataType::Integer),
                ],
            )
            .with_primary_key(&["id"]),
        );
        let rows: &[(i64, &str, Option<i64>)] = &[
            (1, "A", Some(1990)),
            (2, "B", Some(1992)),
            (3, "C", Some(2000)),
            (4, "D", Some(2005)),
            (5, "E", Some(2005)),
            (6, "F", None),
        ];
        for (id, title, year) in rows {
            t.insert_values(vec![
                Value::int(*id),
                Value::text(*title),
                year.map(Value::int).unwrap_or(Value::Null),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn histogram_counts_and_ranges() {
        let t = table();
        let h = histogram(&t, "year", 3).unwrap();
        assert_eq!(h.total(), 5);
        assert_eq!(h.nulls, 1);
        assert_eq!(h.buckets.len(), 3);
        assert_eq!(h.buckets.iter().sum::<usize>(), 5);
        let (lo, _hi) = h.bucket_range(0);
        assert_eq!(lo, 1990.0);
        assert!(h.modal_bucket().is_some());
    }

    #[test]
    fn histogram_rejects_degenerate_requests() {
        let t = table();
        assert!(histogram(&t, "year", 0).is_none());
        assert!(histogram(&t, "title", 4).is_none());
        assert!(histogram(&t, "missing", 4).is_none());
    }

    #[test]
    fn top_values_orders_by_frequency() {
        let t = table();
        let top = top_values(&t, "year", 2);
        assert_eq!(top[0].1, 2);
        assert_eq!(top[0].0, Value::int(2005));
    }

    #[test]
    fn table_stats_collects_ndv_nulls_and_bounds() {
        let t = table();
        let s = TableStats::collect(&t);
        assert_eq!(s.row_count, 6);
        let year = s.column("YEAR").unwrap();
        assert_eq!(year.ndv, 4);
        assert_eq!(year.nulls, 1);
        assert_eq!(year.non_null, 5);
        assert_eq!(year.min, Some(Value::int(1990)));
        assert_eq!(year.max, Some(Value::int(2005)));
        assert!(year.histogram.is_some(), "numeric column gets a histogram");
        let title = s.column("title").unwrap();
        assert_eq!(title.ndv, 6);
        assert!(title.histogram.is_none(), "text column has no histogram");
        assert!(s.column("missing").is_none());
        assert_eq!(s.ndv("id"), 6);
        assert_eq!(s.ndv("missing"), 1, "unknown column defaults to NDV 1");
    }

    #[test]
    fn eq_selectivity_is_one_over_ndv_scaled_by_nulls() {
        let t = table();
        let s = TableStats::collect(&t);
        let id = s.column("id").unwrap();
        assert!((id.eq_selectivity() - 1.0 / 6.0).abs() < 1e-9);
        // year: 5/6 non-null spread over 4 distinct values.
        let year = s.column("year").unwrap();
        assert!((year.eq_selectivity() - (5.0 / 6.0) / 4.0).abs() < 1e-9);
        assert!((year.null_selectivity() - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_table_stats_do_not_divide_by_zero() {
        let t = Table::new(TableSchema::new(
            "EMPTY",
            vec![ColumnDef::new("x", DataType::Integer)],
        ));
        let s = TableStats::collect(&t);
        assert_eq!(s.row_count, 0);
        let x = s.column("x").unwrap();
        assert_eq!(x.ndv, 0);
        assert_eq!(x.eq_selectivity(), 0.0);
        assert_eq!(x.null_selectivity(), 0.0);
        assert_eq!(x.non_null_fraction(), 1.0);
        // Range estimation over no data falls back to the default guess.
        assert_eq!(x.lt_selectivity(10.0, false), DEFAULT_SELECTIVITY);
        // Joining an empty relation estimates zero rows.
        assert_eq!(join_cardinality(0.0, 100.0, 0, 7), 0.0);
    }

    #[test]
    fn all_null_column_selectivities() {
        let mut t = Table::new(TableSchema::new(
            "N",
            vec![ColumnDef::nullable("x", DataType::Integer)],
        ));
        for _ in 0..4 {
            t.insert_values(vec![Value::Null]).unwrap();
        }
        let s = TableStats::collect(&t);
        let x = s.column("x").unwrap();
        assert_eq!(x.ndv, 0);
        assert_eq!(x.eq_selectivity(), 0.0, "equality never matches NULL");
        assert_eq!(x.null_selectivity(), 1.0);
        assert_eq!(x.non_null_fraction(), 0.0);
    }

    #[test]
    fn range_selectivity_uses_the_histogram() {
        let t = table();
        let s = TableStats::collect(&t);
        let year = s.column("year").unwrap();
        // Everything is within [1990, 2005]: below the min nothing matches,
        // above the max everything non-null matches.
        assert_eq!(year.lt_selectivity(1900.0, false), 0.0);
        assert!((year.gt_selectivity(2100.0, false)).abs() < 1e-9);
        let all = year.lt_selectivity(2100.0, false);
        assert!((all - 5.0 / 6.0).abs() < 1e-9, "all non-null rows: {all}");
        // A mid-range cut matches some fraction strictly between.
        let mid = year.gt_selectivity(2000.0, false);
        assert!(mid > 0.0 && mid < 5.0 / 6.0, "mid-range selectivity {mid}");
        // BETWEEN covering the whole range ~ the non-null fraction.
        let span = year.between_selectivity(1990.0, 2005.0);
        assert!((span - 5.0 / 6.0).abs() < 0.2, "between span {span}");
        assert_eq!(year.between_selectivity(2010.0, 2000.0), 0.0);
    }

    #[test]
    fn inclusive_range_on_nullable_column_does_not_double_scale_nulls() {
        // 4 rows: 2 NULLs, 2 values equal to 7 (ndv=1). `col <= 7` matches
        // exactly half the rows; the equality mass must be scaled by the
        // non-null fraction exactly once.
        let mut t = Table::new(TableSchema::new(
            "H",
            vec![ColumnDef::nullable("x", DataType::Integer)],
        ));
        for v in [Value::int(7), Value::int(7), Value::Null, Value::Null] {
            t.insert_values(vec![v]).unwrap();
        }
        let s = TableStats::collect(&t);
        let x = s.column("x").unwrap();
        assert!((x.lt_selectivity(7.0, true) - 0.5).abs() < 1e-9);
        assert_eq!(x.lt_selectivity(7.0, false), 0.0);
    }

    #[test]
    fn range_boundaries_respect_strictness_and_column_bounds() {
        let t = table();
        let s = TableStats::collect(&t);
        let year = s.column("year").unwrap();
        // Strict `year < max` must not claim every non-NULL row: the rows
        // equal to the max (2005 appears twice) do not match.
        assert!(
            year.lt_selectivity(2005.0, false) < year.non_null_fraction(),
            "strict < max must exclude the max-valued rows"
        );
        // An inclusive bound below the column minimum matches nothing; no
        // phantom equality mass is added outside the range.
        assert_eq!(year.lt_selectivity(1000.0, true), 0.0);
        assert_eq!(year.between_selectivity(500.0, 1000.0), 0.0);
    }

    /// A nullable Integer column of 600 skewed values (NULL one row in
    /// seven) and the grid of bounds the range tests sweep, from well below
    /// its minimum to well above its maximum, halves included.
    fn skewed() -> (ColumnStats, Vec<f64>) {
        let mut t = Table::new(TableSchema::new(
            "S",
            vec![ColumnDef::nullable("x", DataType::Integer)],
        ));
        for i in 0..600i64 {
            let v = if i % 7 == 3 {
                Value::Null
            } else {
                Value::int(i * i % 997 / (1 + i % 5))
            };
            t.insert_values(vec![v]).unwrap();
        }
        let stats = TableStats::collect(&t).column("x").unwrap().clone();
        let bounds = (-40..=2100).map(|b| f64::from(b) / 2.0).collect();
        (stats, bounds)
    }

    /// Every bound of one class gets a bit-identical selectivity: one value
    /// per class, for each operator and for BETWEEN.
    #[test]
    fn a_range_class_has_one_selectivity() {
        let (x, bounds) = skewed();
        let mut seen: Vec<(&str, RangeClass, u64)> = Vec::new();
        let mut check = |op: &'static str, class: RangeClass, selectivity: f64| match seen
            .iter()
            .find(|(o, c, _)| *o == op && *c == class)
        {
            Some(&(_, _, bits)) => assert_eq!(bits, selectivity.to_bits(), "{op} {class:?}"),
            None => seen.push((op, class, selectivity.to_bits())),
        };
        for &b in &bounds {
            for inclusive in [false, true] {
                let (lt, gt) = if inclusive { ("<=", ">=") } else { ("<", ">") };
                check(lt, x.lt_class(b, inclusive), x.lt_selectivity(b, inclusive));
                check(gt, x.gt_class(b, inclusive), x.gt_selectivity(b, inclusive));
            }
        }
        for &lo in bounds.iter().step_by(37) {
            for &hi in bounds.iter().step_by(23) {
                check(
                    "between",
                    x.between_class(lo, hi),
                    x.between_selectivity(lo, hi),
                );
            }
        }
        // The sweep crossed many classes of every operator, `NONE` included.
        for op in ["<", "<=", ">", ">=", "between"] {
            let classes = seen.iter().filter(|(o, _, _)| *o == op);
            assert!(classes.clone().count() >= 8, "{op}: {seen:?}");
            assert!(
                classes.clone().any(|(_, c, _)| *c == RangeClass::NONE),
                "{op}"
            );
        }
    }

    /// Snapping moves an estimate by at most 2^(1/8) either way, and keeps a
    /// range that keeps nothing at exactly 0.
    #[test]
    fn a_snapped_selectivity_is_within_an_eighth_octave_of_the_interpolated_one() {
        let (x, bounds) = skewed();
        let nnf = x.non_null_fraction();
        let below = |b, inclusive| x.fraction_below(b, inclusive).unwrap();
        let close = |what: String, interpolated: f64, snapped: f64| {
            if interpolated <= 0.0 {
                assert_eq!(snapped, 0.0, "{what}");
            } else {
                let ratio = snapped / interpolated;
                let limit = 2f64.powf(0.125) + 1e-12;
                assert!(ratio <= limit && 1.0 / ratio <= limit, "{what}: {ratio}");
            }
        };
        for &b in &bounds {
            for inclusive in [false, true] {
                let lt = below(b, inclusive) * nnf;
                close(format!("< {b}"), lt, x.lt_selectivity(b, inclusive));
                let gt = (1.0 - below(b, !inclusive)) * nnf;
                close(format!("> {b}"), gt, x.gt_selectivity(b, inclusive));
            }
        }
        for &lo in bounds.iter().step_by(37) {
            for &hi in bounds.iter().step_by(23) {
                let span = if hi < lo {
                    0.0
                } else {
                    (below(hi, true) - below(lo, false)).max(0.0) * nnf
                };
                close(format!("{lo}..{hi}"), span, x.between_selectivity(lo, hi));
            }
        }
    }

    /// What the grid leaves alone: an empty range is 0, a single-point column
    /// keeps 0 or its whole non-NULL fraction, and a column the statistics
    /// cannot place a bound in (text, all NULL, empty) keeps the defaults.
    #[test]
    fn range_edge_cases_keep_their_estimates() {
        let t = table();
        let s = TableStats::collect(&t);
        let year = s.column("year").unwrap();
        assert_eq!(year.between_selectivity(2010.0, 2000.0), 0.0);
        assert_eq!(year.lt_selectivity(1990.0, false), 0.0);
        assert_eq!(year.gt_selectivity(2005.0, false), 0.0);
        assert_eq!(year.lt_selectivity(1000.0, true), 0.0);
        // NULLs scale the class's fraction once: everything below 2100 is
        // every non-NULL year, five rows of six.
        assert_eq!(year.lt_selectivity(2100.0, false), 5.0 / 6.0);
        assert_eq!(year.between_selectivity(1900.0, 2100.0), 5.0 / 6.0);

        let mut point = Table::new(TableSchema::new(
            "P",
            vec![ColumnDef::nullable("x", DataType::Integer)],
        ));
        for v in [Value::int(7), Value::int(7), Value::int(7), Value::Null] {
            point.insert_values(vec![v]).unwrap();
        }
        let point = TableStats::collect(&point);
        let x = point.column("x").unwrap();
        assert_eq!(x.lt_selectivity(7.0, true), 0.75);
        assert_eq!(x.lt_selectivity(7.0, false), 0.0);
        assert_eq!(x.gt_selectivity(6.0, false), 0.75);
        assert_eq!(x.gt_selectivity(7.0, false), 0.0);
        assert_eq!(x.between_selectivity(7.0, 7.0), 0.75);

        let title = s.column("title").unwrap();
        assert!(title.histogram.is_none());
        let mut nulls = Table::new(TableSchema::new(
            "N",
            vec![ColumnDef::nullable("x", DataType::Integer)],
        ));
        for _ in 0..4 {
            nulls.insert_values(vec![Value::Null]).unwrap();
        }
        let nulls = TableStats::collect(&nulls);
        let empty = Table::new(TableSchema::new(
            "E",
            vec![ColumnDef::new("x", DataType::Integer)],
        ));
        let empty = TableStats::collect(&empty);
        for column in [
            title,
            nulls.column("x").unwrap(),
            empty.column("x").unwrap(),
        ] {
            assert_eq!(column.lt_class(5.0, true), RangeClass::UNKNOWN);
            assert_eq!(column.lt_selectivity(5.0, true), DEFAULT_SELECTIVITY);
            let complement = (column.non_null_fraction() - DEFAULT_SELECTIVITY).max(0.0);
            assert_eq!(column.gt_selectivity(5.0, false), complement);
            assert_eq!(column.between_selectivity(1.0, 5.0), 0.0);
        }
    }

    #[test]
    fn histogram_fraction_below_interpolates() {
        let t = table();
        let h = histogram(&t, "year", 3).unwrap();
        assert_eq!(h.fraction_below(h.min), 0.0);
        assert_eq!(h.fraction_below(h.max + 1.0), 1.0);
        let mid = h.fraction_below((h.min + h.max) / 2.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn join_cardinality_formula() {
        // |L|·|R| / max(ndv).
        assert_eq!(join_cardinality(1000.0, 3000.0, 1000, 1000), 3000.0);
        assert_eq!(join_cardinality(10.0, 12.0, 10, 8), 12.0);
        // NDV of zero (no stats) degrades to a cross product, not a panic.
        assert_eq!(join_cardinality(5.0, 4.0, 0, 0), 20.0);
    }

    #[test]
    fn semi_and_anti_join_cardinalities_are_complements() {
        // 1000 movies probing 600 distinct cast mids: containment says 600
        // of the 1000 distinct probe keys match.
        assert_eq!(semi_join_cardinality(1000.0, 1000, 600), 600.0);
        assert_eq!(anti_join_cardinality(1000.0, 1000, 600), 400.0);
        // Build side richer than probe side: every probe key matches.
        assert_eq!(semi_join_selectivity(10, 1000), 1.0);
        assert_eq!(anti_join_cardinality(50.0, 10, 1000), 0.0);
        // Degenerate NDVs never divide by zero.
        assert_eq!(semi_join_selectivity(0, 0), 1.0);
    }

    #[test]
    fn column_summary_counts() {
        let t = table();
        let s = summarize_column(&t, "year").unwrap();
        assert_eq!(s.non_null, 5);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.distinct, 4);
        assert_eq!(s.min, Some(Value::int(1990)));
        assert_eq!(s.max, Some(Value::int(2005)));
        assert!(summarize_column(&t, "missing").is_none());
    }
}
