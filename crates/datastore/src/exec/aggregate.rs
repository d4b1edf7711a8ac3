//! Aggregate functions, their accumulators, and the shared grouping engine
//! used by both the sequential aggregate operator and the parallel
//! partial-aggregation workers.

use crate::error::StoreError;
use crate::exec::vector::ValueVector;
use crate::expr::Expr;
use crate::tuple::Row;
use crate::value::{GroupKey, Value};
use std::collections::{HashMap, HashSet};

/// The aggregate functions the paper's queries use (COUNT, COUNT DISTINCT)
/// plus the rest of the usual SQL set so generated workloads can vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    CountDistinct,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// SQL spelling used when narrating or printing plans.
    pub fn sql_name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count(distinct)",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// The English phrase used by the query narrator ("the number of …").
    pub fn narrative_phrase(&self) -> &'static str {
        match self {
            AggFunc::Count | AggFunc::CountDistinct => "the number of",
            AggFunc::Sum => "the total",
            AggFunc::Avg => "the average",
            AggFunc::Min => "the smallest",
            AggFunc::Max => "the largest",
        }
    }
}

/// An aggregate expression: a function applied to an argument expression
/// (`None` means `COUNT(*)`).
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    /// Argument over the input row; `None` encodes `*`.
    pub arg: Option<Expr>,
    /// Output column name.
    pub output_name: String,
}

impl AggExpr {
    /// `COUNT(*)` with the given output name.
    pub fn count_star(output_name: impl Into<String>) -> AggExpr {
        AggExpr {
            func: AggFunc::Count,
            arg: None,
            output_name: output_name.into(),
        }
    }

    /// An aggregate over an argument expression.
    pub fn new(func: AggFunc, arg: Expr, output_name: impl Into<String>) -> AggExpr {
        AggExpr {
            func,
            arg: Some(arg),
            output_name: output_name.into(),
        }
    }
}

/// Running state for one aggregate within one group.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
    distinct: HashSet<GroupKey>,
}

impl Accumulator {
    /// Fresh accumulator for the given function.
    pub fn new(func: AggFunc) -> Accumulator {
        Accumulator {
            func,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
            distinct: HashSet::new(),
        }
    }

    /// Fold one value into the accumulator. For `COUNT(*)` the caller passes
    /// a non-NULL placeholder; for every other function SQL semantics ignore
    /// NULL inputs.
    pub fn update(&mut self, value: &Value) {
        if value.is_null() {
            return;
        }
        match self.func {
            AggFunc::Count => self.count += 1,
            AggFunc::CountDistinct => {
                self.distinct.insert(value.group_key());
            }
            AggFunc::Sum | AggFunc::Avg => {
                if let Some(x) = value.as_f64() {
                    self.sum += x;
                    self.count += 1;
                }
            }
            AggFunc::Min => {
                let better = match &self.min {
                    None => true,
                    Some(cur) => value.total_cmp(cur).is_lt(),
                };
                if better {
                    self.min = Some(value.clone());
                }
            }
            AggFunc::Max => {
                let better = match &self.max {
                    None => true,
                    Some(cur) => value.total_cmp(cur).is_gt(),
                };
                if better {
                    self.max = Some(value.clone());
                }
            }
        }
    }

    /// Fold a non-NULL `i64` without materializing a `Value` — the
    /// vectorized hot path over an integer column. Semantics match
    /// `update(&Value::Integer(v))` exactly.
    pub fn update_i64(&mut self, v: i64) {
        match self.func {
            AggFunc::Count => self.count += 1,
            AggFunc::CountDistinct => {
                self.distinct.insert(GroupKey::Integer(v));
            }
            AggFunc::Sum | AggFunc::Avg => {
                self.sum += v as f64;
                self.count += 1;
            }
            AggFunc::Min => {
                let better = match &self.min {
                    None => true,
                    Some(Value::Integer(cur)) => v < *cur,
                    Some(cur) => Value::Integer(v).total_cmp(cur).is_lt(),
                };
                if better {
                    self.min = Some(Value::Integer(v));
                }
            }
            AggFunc::Max => {
                let better = match &self.max {
                    None => true,
                    Some(Value::Integer(cur)) => v > *cur,
                    Some(cur) => Value::Integer(v).total_cmp(cur).is_gt(),
                };
                if better {
                    self.max = Some(Value::Integer(v));
                }
            }
        }
    }

    /// Fold a non-NULL `f64`; semantics match `update(&Value::Float(v))`.
    pub fn update_f64(&mut self, v: f64) {
        match self.func {
            AggFunc::Count => self.count += 1,
            AggFunc::CountDistinct => {
                self.distinct.insert(GroupKey::FloatBits(v.to_bits()));
            }
            AggFunc::Sum | AggFunc::Avg => {
                self.sum += v;
                self.count += 1;
            }
            AggFunc::Min | AggFunc::Max => self.update(&Value::Float(v)),
        }
    }

    /// Fold a non-NULL string; semantics match `update(&Value::Text(..))`
    /// but only clone the string when the accumulator actually keeps it.
    pub fn update_str(&mut self, v: &str) {
        match self.func {
            AggFunc::Count => self.count += 1,
            AggFunc::CountDistinct => {
                self.distinct.insert(GroupKey::Text(v.into()));
            }
            // Text has no numeric value: SUM/AVG ignore it, per `update`.
            AggFunc::Sum | AggFunc::Avg => {}
            AggFunc::Min => {
                let better = match &self.min {
                    None => true,
                    Some(Value::Text(cur)) => v < &**cur,
                    Some(cur) => Value::text(v).total_cmp(cur).is_lt(),
                };
                if better {
                    self.min = Some(Value::text(v));
                }
            }
            AggFunc::Max => {
                let better = match &self.max {
                    None => true,
                    Some(Value::Text(cur)) => v > &**cur,
                    Some(cur) => Value::text(v).total_cmp(cur).is_gt(),
                };
                if better {
                    self.max = Some(Value::text(v));
                }
            }
        }
    }

    /// Absorb another accumulator's state, as when merging per-worker
    /// partial aggregates. Folding rows into two accumulators and merging
    /// them equals folding all rows into one: counts and sums add,
    /// distinct sets union, and MIN/MAX replace only on a strict
    /// improvement so the earlier (sequential-order) value wins ties —
    /// keeping merged results byte-identical to the single-threaded run.
    pub fn merge(&mut self, other: &Accumulator) {
        debug_assert_eq!(self.func, other.func, "merging mismatched accumulators");
        match self.func {
            AggFunc::Count => self.count += other.count,
            AggFunc::CountDistinct => {
                self.distinct.extend(other.distinct.iter().cloned());
            }
            AggFunc::Sum | AggFunc::Avg => {
                self.sum += other.sum;
                self.count += other.count;
            }
            AggFunc::Min => {
                if let Some(v) = &other.min {
                    let better = match &self.min {
                        None => true,
                        Some(cur) => v.total_cmp(cur).is_lt(),
                    };
                    if better {
                        self.min = Some(v.clone());
                    }
                }
            }
            AggFunc::Max => {
                if let Some(v) = &other.max {
                    let better = match &self.max {
                        None => true,
                        Some(cur) => v.total_cmp(cur).is_gt(),
                    };
                    if better {
                        self.max = Some(v.clone());
                    }
                }
            }
        }
    }

    /// Final value of the aggregate for its group.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Integer(self.count as i64),
            AggFunc::CountDistinct => Value::Integer(self.distinct.len() as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum.fract() == 0.0 {
                    Value::Integer(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Evaluate the argument of an aggregate for one input row. `COUNT(*)` maps
/// every row to a non-NULL marker so it counts all rows.
pub fn agg_input(agg: &AggExpr, row: &Row) -> Value {
    match &agg.arg {
        None => Value::Integer(1),
        Some(e) => e.eval(row).unwrap_or(Value::Null),
    }
}

/// How a vectorized batch feeds one aggregate's accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArgKind {
    /// `COUNT(*)`: every row contributes the non-NULL marker.
    Star,
    /// A plain column reference — vectorizable.
    Column(usize),
    /// A general expression: evaluated per row, never vectorized.
    General,
}

/// Open-addressed `i64 → group id` cache for the hottest grouping shape: a
/// single integer GROUP BY column. SipHashing a one-element `GroupKey`
/// slice per row costs more than the accumulation itself; this map resolves
/// repeat keys with one multiply and a probe. It is only ever a cache over
/// the authoritative `GroupedAggregator::index` — a miss here falls through
/// to the general map (groups may arrive via row-path batches or merged
/// partials), and the answer is cached for the next row.
#[derive(Debug, Default)]
struct IntIdCache {
    /// `(key, id)` slots; an empty slot holds `id == usize::MAX`.
    slots: Vec<(i64, usize)>,
    len: usize,
}

impl IntIdCache {
    const EMPTY: usize = usize::MAX;

    fn slot_of(&self, key: i64) -> usize {
        // Fibonacci hashing: sequential keys (years, ids) spread well.
        let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) ^ h) as usize & (self.slots.len() - 1)
    }

    fn get(&self, key: i64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.slot_of(key);
        loop {
            let (k, id) = self.slots[i];
            if id == Self::EMPTY {
                return None;
            }
            if k == key {
                return Some(id);
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    fn insert(&mut self, key: i64, id: usize) {
        if self.slots.len() < 2 * (self.len + 1) {
            self.grow();
        }
        let mut i = self.slot_of(key);
        while self.slots[i].1 != Self::EMPTY {
            if self.slots[i].0 == key {
                self.slots[i].1 = id;
                return;
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
        self.slots[i] = (key, id);
        self.len += 1;
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, Self::EMPTY); cap]);
        let len = std::mem::take(&mut self.len);
        for (k, id) in old {
            if id != Self::EMPTY {
                self.insert(k, id);
            }
        }
        debug_assert_eq!(self.len, len);
    }
}

/// Hash-grouping engine shared by the sequential `aggregate` operator and
/// the per-morsel partial aggregates that run below an exchange. Groups are
/// kept in first-encounter order so output order is deterministic, and
/// [`GroupedAggregator::merge_partial`] folds another aggregator's groups
/// in (in morsel order) without disturbing that order — the key to parallel
/// GROUP BY staying byte-identical to the single-threaded run.
///
/// When built with `vectorized = true` and every aggregate argument is a
/// plain column (or `*`), each batch is transposed into [`ValueVector`]s and
/// accumulated with the typed `update_{i64,f64,str}` kernels; batches whose
/// columns resist transposition fall back to the row path, batch by batch,
/// with identical results.
#[derive(Debug)]
pub struct GroupedAggregator {
    group_by: Vec<usize>,
    aggregates: Vec<AggExpr>,
    args: Vec<ArgKind>,
    vectorized: bool,
    groups: Vec<(Vec<Value>, Vec<Accumulator>)>,
    index: HashMap<Vec<GroupKey>, usize>,
    /// Fast-path id cache for a single non-NULL integer grouping key.
    int_ids: IntIdCache,
    vector_batches: u64,
    row_batches: u64,
}

impl GroupedAggregator {
    /// Fresh aggregator. With no grouping columns there is exactly one
    /// group, even over empty input (SQL scalar-aggregate semantics).
    pub fn new(group_by: Vec<usize>, aggregates: Vec<AggExpr>, vectorized: bool) -> Self {
        let args: Vec<ArgKind> = aggregates
            .iter()
            .map(|a| match &a.arg {
                None => ArgKind::Star,
                Some(Expr::Column(c)) => ArgKind::Column(*c),
                Some(_) => ArgKind::General,
            })
            .collect();
        let vectorized = vectorized && !args.contains(&ArgKind::General);
        let mut groups = Vec::new();
        let mut index = HashMap::new();
        if group_by.is_empty() {
            groups.push((
                Vec::new(),
                aggregates
                    .iter()
                    .map(|a| Accumulator::new(a.func))
                    .collect::<Vec<_>>(),
            ));
            index.insert(Vec::new(), 0);
        }
        GroupedAggregator {
            group_by,
            aggregates,
            args,
            vectorized,
            groups,
            index,
            int_ids: IntIdCache::default(),
            vector_batches: 0,
            row_batches: 0,
        }
    }

    /// Number of batches accumulated through the typed vector kernels.
    pub fn vector_batches(&self) -> u64 {
        self.vector_batches
    }

    /// Number of batches that fell back to row-at-a-time accumulation.
    pub fn row_batches(&self) -> u64 {
        self.row_batches
    }

    /// Fold one batch of input rows into the group table.
    pub fn push_batch(&mut self, rows: &[Row]) -> Result<(), StoreError> {
        if rows.is_empty() {
            return Ok(());
        }
        if self.vectorized && self.push_batch_vectorized(rows, None) {
            self.vector_batches += 1;
            return Ok(());
        }
        self.row_batches += 1;
        for row in rows {
            let idx = self.group_id_for_row(row);
            for (agg, acc) in self.aggregates.iter().zip(self.groups[idx].1.iter_mut()) {
                acc.update(&agg_input(agg, row));
            }
        }
        Ok(())
    }

    /// Fold the rows at the selected positions of a batch — the fused
    /// scan→filter→aggregate path, which never materializes the surviving
    /// rows: the transpose gathers straight through the selection vector.
    pub fn push_selected(&mut self, rows: &[Row], sel: &[usize]) -> Result<(), StoreError> {
        if sel.is_empty() {
            return Ok(());
        }
        if self.vectorized && self.push_batch_vectorized(rows, Some(sel)) {
            self.vector_batches += 1;
            return Ok(());
        }
        self.row_batches += 1;
        for &i in sel {
            let row = &rows[i];
            let idx = self.group_id_for_row(row);
            for (agg, acc) in self.aggregates.iter().zip(self.groups[idx].1.iter_mut()) {
                acc.update(&agg_input(agg, row));
            }
        }
        Ok(())
    }

    /// Typed-kernel accumulation; `false` when this batch resists
    /// vectorization (mixed or non-vectorizable column types) and the row
    /// path must run instead. With a selection vector, only the selected
    /// positions are transposed (compacting the batch in the gather).
    fn push_batch_vectorized(&mut self, rows: &[Row], sel: Option<&[usize]>) -> bool {
        let transpose = |col: usize| match sel {
            None => ValueVector::from_rows(rows, col),
            Some(sel) => ValueVector::from_rows_selected(rows, col, sel),
        };
        // Transpose each referenced column once, even when several
        // aggregates read it (`sum(x), min(x), max(x)` is one gather).
        let mut pool: Vec<(usize, ValueVector)> = Vec::new();
        let pooled = |pool: &mut Vec<(usize, ValueVector)>, col: usize| -> Option<usize> {
            if let Some(p) = pool.iter().position(|(c, _)| *c == col) {
                return Some(p);
            }
            pool.push((col, transpose(col)?));
            Some(pool.len() - 1)
        };
        let mut key_slots = Vec::with_capacity(self.group_by.len());
        for &c in &self.group_by {
            match pooled(&mut pool, c) {
                Some(p) => key_slots.push(p),
                None => return false,
            }
        }
        let mut arg_slots: Vec<Option<usize>> = Vec::with_capacity(self.args.len());
        for arg in &self.args {
            match arg {
                ArgKind::Star => arg_slots.push(None),
                ArgKind::Column(c) => match pooled(&mut pool, *c) {
                    Some(p) => arg_slots.push(Some(p)),
                    None => return false,
                },
                ArgKind::General => return false,
            }
        }
        let len = match sel {
            None => rows.len(),
            Some(sel) => sel.len(),
        };
        // Resolve every row's group id first, then accumulate column-major:
        // one tight, monomorphic loop per aggregate over the whole batch.
        let mut ids: Vec<usize> = Vec::with_capacity(len);
        self.resolve_group_ids(&pool, &key_slots, len, &mut ids);
        for (j, slot) in arg_slots.iter().enumerate() {
            match slot.map(|p| &pool[p].1) {
                None => {
                    for &g in &ids {
                        self.groups[g].1[j].update_i64(1);
                    }
                }
                Some(ValueVector::Int { values, nulls }) => {
                    if nulls.any() {
                        for (i, &g) in ids.iter().enumerate() {
                            if !nulls.get(i) {
                                self.groups[g].1[j].update_i64(values[i]);
                            }
                        }
                    } else {
                        for (i, &g) in ids.iter().enumerate() {
                            self.groups[g].1[j].update_i64(values[i]);
                        }
                    }
                }
                Some(ValueVector::Float { values, nulls }) => {
                    for (i, &g) in ids.iter().enumerate() {
                        if !nulls.get(i) {
                            self.groups[g].1[j].update_f64(values[i]);
                        }
                    }
                }
                Some(ValueVector::Text { values, nulls }) => {
                    for (i, &g) in ids.iter().enumerate() {
                        if !nulls.get(i) {
                            self.groups[g].1[j].update_str(&values[i]);
                        }
                    }
                }
            }
        }
        true
    }

    /// Group id of every row of a transposed batch, in batch order.
    fn resolve_group_ids(
        &mut self,
        pool: &[(usize, ValueVector)],
        key_slots: &[usize],
        len: usize,
        ids: &mut Vec<usize>,
    ) {
        if self.group_by.is_empty() {
            ids.extend(std::iter::repeat_n(0, len));
            return;
        }
        // The hottest grouping shape — one integer key column with no NULLs
        // in this batch — resolves through the open-addressed id cache
        // instead of SipHashing a `GroupKey` slice per row.
        if let [p] = key_slots {
            if let ValueVector::Int { values, nulls } = &pool[*p].1 {
                if !nulls.any() {
                    for &v in values {
                        let id = match self.int_ids.get(v) {
                            Some(id) => id,
                            None => {
                                // The group may already exist via a row-path
                                // batch or a merged partial: consult the
                                // authoritative index before creating it.
                                let key = [GroupKey::Integer(v)];
                                let id = match self.index.get(&key[..]) {
                                    Some(&g) => g,
                                    None => self.new_group(key.to_vec(), vec![Value::Integer(v)]),
                                };
                                self.int_ids.insert(v, id);
                                id
                            }
                        };
                        ids.push(id);
                    }
                    return;
                }
            }
        }
        // General case: a reused scratch key avoids the per-row allocation;
        // the map is queried through the slice view of its owned keys.
        let mut scratch: Vec<GroupKey> = Vec::with_capacity(key_slots.len());
        for i in 0..len {
            scratch.clear();
            scratch.extend(key_slots.iter().map(|&p| pool[p].1.group_key(i)));
            let id = match self.index.get(scratch.as_slice()) {
                Some(&g) => g,
                None => {
                    let values: Vec<Value> =
                        key_slots.iter().map(|&p| pool[p].1.value(i)).collect();
                    self.new_group(scratch.clone(), values)
                }
            };
            ids.push(id);
        }
    }

    /// Append a new group and index it; returns its id.
    fn new_group(&mut self, key: Vec<GroupKey>, values: Vec<Value>) -> usize {
        self.groups.push((
            values,
            self.aggregates
                .iter()
                .map(|a| Accumulator::new(a.func))
                .collect(),
        ));
        self.index.insert(key, self.groups.len() - 1);
        self.groups.len() - 1
    }

    fn group_id_for_row(&mut self, row: &Row) -> usize {
        let key = row.group_key(&self.group_by);
        match self.index.get(&key) {
            Some(&i) => i,
            None => {
                let values = self
                    .group_by
                    .iter()
                    .map(|&i| row.get(i).cloned().unwrap_or(Value::Null))
                    .collect();
                self.groups.push((
                    values,
                    self.aggregates
                        .iter()
                        .map(|a| Accumulator::new(a.func))
                        .collect(),
                ));
                self.index.insert(key, self.groups.len() - 1);
                self.groups.len() - 1
            }
        }
    }

    /// Hand the raw partial state off to a gather step. The pre-seeded
    /// all-rows group (empty GROUP BY) is included even when no input
    /// arrived, so merging partials preserves scalar-aggregate semantics.
    pub fn into_partial(self) -> Vec<(Vec<Value>, Vec<Accumulator>)> {
        self.groups
    }

    /// Merge another aggregator's partial state into this one. New groups
    /// are appended in the order the partial discovered them; calling this
    /// in morsel order therefore reproduces the sequential first-encounter
    /// group order exactly.
    pub fn merge_partial(&mut self, partial: Vec<(Vec<Value>, Vec<Accumulator>)>) {
        for (values, accs) in partial {
            let key: Vec<GroupKey> = values.iter().map(Value::group_key).collect();
            match self.index.get(&key) {
                Some(&g) => {
                    for (mine, theirs) in self.groups[g].1.iter_mut().zip(&accs) {
                        mine.merge(theirs);
                    }
                }
                None => {
                    self.groups.push((values, accs));
                    self.index.insert(key, self.groups.len() - 1);
                }
            }
        }
    }

    /// Finalize: one output row per group (group values then aggregate
    /// results), filtered by HAVING.
    pub fn finish(self, having: Option<&Expr>) -> Result<Vec<Row>, StoreError> {
        let mut out = Vec::with_capacity(self.groups.len());
        for (group_values, accs) in &self.groups {
            let results = accs.iter().map(Accumulator::finish);
            let row: Row = group_values.iter().cloned().chain(results).collect();
            let keep = match having {
                None => true,
                Some(h) => h.eval_predicate(&row)?,
            };
            if keep {
                out.push(row);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_ignores_nulls_count_star_does_not() {
        let mut acc = Accumulator::new(AggFunc::Count);
        acc.update(&Value::int(1));
        acc.update(&Value::Null);
        acc.update(&Value::int(3));
        assert_eq!(acc.finish(), Value::Integer(2));

        // COUNT(*) is modelled by feeding the marker value for every row.
        let star = AggExpr::count_star("cnt");
        let mut acc = Accumulator::new(star.func);
        for _ in 0..5 {
            acc.update(&agg_input(&star, &Row::empty()));
        }
        assert_eq!(acc.finish(), Value::Integer(5));
    }

    #[test]
    fn count_distinct_deduplicates() {
        let mut acc = Accumulator::new(AggFunc::CountDistinct);
        for v in [1, 2, 2, 3, 3, 3] {
            acc.update(&Value::int(v));
        }
        acc.update(&Value::Null);
        assert_eq!(acc.finish(), Value::Integer(3));
    }

    #[test]
    fn sum_avg_min_max() {
        let mut sum = Accumulator::new(AggFunc::Sum);
        let mut avg = Accumulator::new(AggFunc::Avg);
        let mut min = Accumulator::new(AggFunc::Min);
        let mut max = Accumulator::new(AggFunc::Max);
        for v in [10, 20, 30] {
            let val = Value::int(v);
            sum.update(&val);
            avg.update(&val);
            min.update(&val);
            max.update(&val);
        }
        assert_eq!(sum.finish(), Value::Integer(60));
        assert_eq!(avg.finish(), Value::Float(20.0));
        assert_eq!(min.finish(), Value::Integer(10));
        assert_eq!(max.finish(), Value::Integer(30));
    }

    #[test]
    fn empty_group_results() {
        assert_eq!(Accumulator::new(AggFunc::Count).finish(), Value::Integer(0));
        assert_eq!(Accumulator::new(AggFunc::Sum).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Avg).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Min).finish(), Value::Null);
    }

    #[test]
    fn narrative_phrases() {
        assert_eq!(AggFunc::Count.narrative_phrase(), "the number of");
        assert_eq!(AggFunc::Max.narrative_phrase(), "the largest");
        assert_eq!(AggFunc::CountDistinct.sql_name(), "count(distinct)");
    }

    #[test]
    fn typed_updates_match_value_updates() {
        for func in [
            AggFunc::Count,
            AggFunc::CountDistinct,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let mut typed = Accumulator::new(func);
            let mut plain = Accumulator::new(func);
            for v in [3i64, -1, 3, 7] {
                typed.update_i64(v);
                plain.update(&Value::int(v));
            }
            assert_eq!(typed.finish(), plain.finish(), "i64 path for {func:?}");

            let mut typed = Accumulator::new(func);
            let mut plain = Accumulator::new(func);
            for v in [1.5f64, -0.25, 1.5] {
                typed.update_f64(v);
                plain.update(&Value::Float(v));
            }
            assert_eq!(typed.finish(), plain.finish(), "f64 path for {func:?}");

            let mut typed = Accumulator::new(func);
            let mut plain = Accumulator::new(func);
            for v in ["pear", "apple", "pear"] {
                typed.update_str(v);
                plain.update(&Value::text(v));
            }
            assert_eq!(typed.finish(), plain.finish(), "str path for {func:?}");
        }
    }

    #[test]
    fn merge_equals_single_accumulation() {
        for func in [
            AggFunc::Count,
            AggFunc::CountDistinct,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let all = [2i64, 9, 2, 5, 9, 1];
            let mut whole = Accumulator::new(func);
            for v in all {
                whole.update(&Value::int(v));
            }
            let mut left = Accumulator::new(func);
            let mut right = Accumulator::new(func);
            for v in &all[..3] {
                left.update(&Value::int(*v));
            }
            for v in &all[3..] {
                right.update(&Value::int(*v));
            }
            left.merge(&right);
            assert_eq!(left.finish(), whole.finish(), "merge for {func:?}");
        }
        // Merging an empty partial changes nothing.
        let mut acc = Accumulator::new(AggFunc::Min);
        acc.update(&Value::int(4));
        acc.merge(&Accumulator::new(AggFunc::Min));
        assert_eq!(acc.finish(), Value::Integer(4));
    }

    fn rows_of(values: &[(i64, i64)]) -> Vec<Row> {
        values
            .iter()
            .map(|(g, v)| Row::new(vec![Value::int(*g), Value::int(*v)]))
            .collect()
    }

    fn sample_aggs() -> Vec<AggExpr> {
        vec![
            AggExpr::count_star("cnt"),
            AggExpr::new(AggFunc::Sum, Expr::Column(1), "total"),
            AggExpr::new(AggFunc::Min, Expr::Column(1), "lo"),
        ]
    }

    #[test]
    fn grouped_aggregator_vectorized_matches_row_path() {
        let rows = rows_of(&[(1, 10), (2, 20), (1, 30), (3, 5), (2, 2)]);
        let mut vectorized = GroupedAggregator::new(vec![0], sample_aggs(), true);
        let mut plain = GroupedAggregator::new(vec![0], sample_aggs(), false);
        vectorized.push_batch(&rows).unwrap();
        plain.push_batch(&rows).unwrap();
        assert_eq!(vectorized.vector_batches(), 1);
        assert_eq!(plain.vector_batches(), 0);
        assert_eq!(
            vectorized.finish(None).unwrap(),
            plain.finish(None).unwrap(),
            "group order and values must be identical"
        );
    }

    #[test]
    fn grouped_aggregator_falls_back_on_mixed_batches() {
        // Second batch mixes types in the argument column: that batch runs
        // row-at-a-time, the rest vectorized, and the totals still agree.
        let clean = rows_of(&[(1, 10), (2, 20)]);
        let mixed = vec![
            Row::new(vec![Value::int(1), Value::int(7)]),
            Row::new(vec![Value::int(1), Value::text("oops")]),
        ];
        let mut agg = GroupedAggregator::new(vec![0], sample_aggs(), true);
        agg.push_batch(&clean).unwrap();
        agg.push_batch(&mixed).unwrap();
        assert_eq!(agg.vector_batches(), 1);
        assert_eq!(agg.row_batches(), 1);
        let mut plain = GroupedAggregator::new(vec![0], sample_aggs(), false);
        plain.push_batch(&clean).unwrap();
        plain.push_batch(&mixed).unwrap();
        assert_eq!(agg.finish(None).unwrap(), plain.finish(None).unwrap());
    }

    #[test]
    fn merge_partials_in_order_reproduces_sequential_groups() {
        let rows = rows_of(&[(5, 1), (3, 2), (5, 3), (9, 4), (3, 5), (7, 6)]);
        let mut sequential = GroupedAggregator::new(vec![0], sample_aggs(), false);
        sequential.push_batch(&rows).unwrap();
        let expected = sequential.finish(None).unwrap();

        let mut first = GroupedAggregator::new(vec![0], sample_aggs(), true);
        let mut second = GroupedAggregator::new(vec![0], sample_aggs(), true);
        first.push_batch(&rows[..3]).unwrap();
        second.push_batch(&rows[3..]).unwrap();
        let mut gather = GroupedAggregator::new(vec![0], sample_aggs(), false);
        gather.merge_partial(first.into_partial());
        gather.merge_partial(second.into_partial());
        assert_eq!(gather.finish(None).unwrap(), expected);
    }

    #[test]
    fn empty_group_by_partials_keep_scalar_semantics() {
        // Zero partials merged: the gather's own seeded group still yields
        // the scalar-aggregate row for empty input.
        let gather = GroupedAggregator::new(Vec::new(), sample_aggs(), false);
        let out = gather.finish(None).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), Some(&Value::Integer(0)));
        assert_eq!(out[0].get(1), Some(&Value::Null));
    }
}
