//! Aggregate functions, their accumulators, and the grouping engine the
//! aggregate operators run on.

use crate::error::StoreError;
use crate::exec::batch::Batch;
use crate::exec::keys::{Key, KeyBatch, KeyTable, RowKey};
use crate::exec::vector::ValueVector;
use crate::expr::Expr;
use crate::tuple::{Row, RowView};
use crate::value::Value;
use std::sync::Arc;

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

/// Running state for one aggregate within one group. `COUNT(DISTINCT)`
/// counts like `COUNT`: the aggregator's (group, value) table hands it only
/// the values its group has not seen.
#[derive(Debug, Clone)]
pub(crate) struct Accumulator {
    func: AggFunc,
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Fresh accumulator for the given function.
    pub(crate) fn new(func: AggFunc) -> Accumulator {
        Accumulator {
            func,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// Fold one value into the accumulator. For `COUNT(*)` the caller passes
    /// a non-NULL placeholder; for every other function SQL semantics ignore
    /// NULL inputs.
    pub(crate) fn update(&mut self, value: &Value) {
        if value.is_null() {
            return;
        }
        match self.func {
            AggFunc::Count | AggFunc::CountDistinct => self.count += 1,
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
    pub(crate) fn update_i64(&mut self, v: i64) {
        match self.func {
            AggFunc::Count | AggFunc::CountDistinct => self.count += 1,
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
    pub(crate) fn update_f64(&mut self, v: f64) {
        match self.func {
            AggFunc::Count | AggFunc::CountDistinct => self.count += 1,
            AggFunc::Sum | AggFunc::Avg => {
                self.sum += v;
                self.count += 1;
            }
            AggFunc::Min | AggFunc::Max => self.update(&Value::Float(v)),
        }
    }

    /// Fold a non-NULL string; semantics match `update(&Value::Text(..))`,
    /// and a kept string is the same shared one.
    pub(crate) fn update_str(&mut self, v: &Arc<str>) {
        match self.func {
            AggFunc::Count | AggFunc::CountDistinct => self.count += 1,
            // Text has no numeric value: SUM/AVG ignore it, per `update`.
            AggFunc::Sum | AggFunc::Avg => {}
            AggFunc::Min => {
                let better = match &self.min {
                    None => true,
                    Some(Value::Text(cur)) => **v < **cur,
                    Some(cur) => Value::Text(Arc::clone(v)).total_cmp(cur).is_lt(),
                };
                if better {
                    self.min = Some(Value::Text(Arc::clone(v)));
                }
            }
            AggFunc::Max => {
                let better = match &self.max {
                    None => true,
                    Some(Value::Text(cur)) => **v > **cur,
                    Some(cur) => Value::Text(Arc::clone(v)).total_cmp(cur).is_gt(),
                };
                if better {
                    self.max = Some(Value::Text(Arc::clone(v)));
                }
            }
        }
    }

    /// Final value of the aggregate for its group.
    pub(crate) fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count | AggFunc::CountDistinct => Value::Integer(self.count as i64),
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
pub fn agg_input(agg: &AggExpr, row: &(impl RowView + ?Sized)) -> Value {
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

/// Whether `value` is new to group `g` of a `COUNT(DISTINCT)` with these
/// (group, value) `pairs` — always, for an aggregate without any.
fn first_in_group(pairs: Option<&mut KeyTable>, g: usize, value: &Value) -> bool {
    let Some(pairs) = pairs else {
        return true;
    };
    let group = Value::Integer(g as i64);
    let key: [&Value; 2] = [&group, value];
    pairs.insert(key.hash(), &key[..]).1
}

/// The id of the group `key` names, whose [`Key::hash`] is `hash`; a new
/// group gets fresh accumulators.
fn group_of(
    groups: &mut KeyTable,
    accs: &mut Vec<Accumulator>,
    aggregates: &[AggExpr],
    hash: u64,
    key: &(impl Key + ?Sized),
) -> usize {
    let (id, fresh) = groups.insert(hash, key);
    if fresh {
        accs.extend(aggregates.iter().map(|a| Accumulator::new(a.func)));
    }
    id as usize
}

/// Hash-grouping engine of the `aggregate` operator. Groups are a key
/// table's ids, in first-encounter order, so output order is deterministic.
/// Every column is read where the input batch holds it; only a group's key
/// and its accumulators are stored.
///
/// When built with `vectorized = true` and every aggregate argument is a
/// plain column (or `*`), each batch's argument columns are transposed into
/// [`ValueVector`]s and accumulated with the typed `update_{i64,f64,str}`
/// kernels; batches whose columns resist transposition fall back to the row
/// path, batch by batch, with identical results. On that path the group-key
/// columns are transposed once per batch too and the batch's groups looked
/// up together (`KeyBatch`, `KeyTable::insert_batch`), in arrays kept from
/// batch to batch; a batch whose key column holds Floats or mixes kinds, and
/// the row path, read each row's key where it lies.
#[derive(Debug)]
pub struct GroupedAggregator {
    group_by: Vec<usize>,
    aggregates: Vec<AggExpr>,
    args: Vec<ArgKind>,
    vectorized: bool,
    /// The groups' keys; a group is its id.
    groups: KeyTable,
    /// `aggregates.len()` accumulators per group, in group order.
    accs: Vec<Accumulator>,
    /// Per aggregate, the (group, value) pairs a `COUNT(DISTINCT)` has seen.
    distinct: Vec<Option<KeyTable>>,
    vector_batches: u64,
    /// The vector path's arrays, kept from one batch to the next: its key
    /// columns and hashes, and each row's group id.
    keys: KeyBatch<'static>,
    ids: Vec<usize>,
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
        let distinct = aggregates
            .iter()
            .map(|a| (a.func == AggFunc::CountDistinct).then(|| KeyTable::new(2)))
            .collect();
        let mut agg = GroupedAggregator {
            groups: KeyTable::new(group_by.len()),
            group_by,
            aggregates,
            args,
            vectorized,
            accs: Vec::new(),
            distinct,
            vector_batches: 0,
            keys: KeyBatch::default(),
            ids: Vec::new(),
        };
        if agg.group_by.is_empty() {
            let all: &[Value] = &[];
            group_of(
                &mut agg.groups,
                &mut agg.accs,
                &agg.aggregates,
                all.hash(),
                all,
            );
        }
        agg
    }

    /// Number of batches accumulated through the typed vector kernels.
    pub fn vector_batches(&self) -> u64 {
        self.vector_batches
    }

    /// Fold one batch of input rows into the group table.
    pub fn push_batch(&mut self, batch: &Batch) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.vectorized && self.push_batch_vectorized(batch) {
            self.vector_batches += 1;
            return Ok(());
        }
        for i in 0..batch.len() {
            self.push_row(&batch.row(i));
        }
        Ok(())
    }

    fn push_row(&mut self, row: &impl RowView) {
        let key = RowKey(row, &self.group_by);
        let g = group_of(
            &mut self.groups,
            &mut self.accs,
            &self.aggregates,
            key.hash(),
            &key,
        );
        let n = self.aggregates.len();
        for j in 0..n {
            let value = agg_input(&self.aggregates[j], row);
            if !value.is_null() && first_in_group(self.distinct[j].as_mut(), g, &value) {
                self.accs[g * n + j].update(&value);
            }
        }
    }

    /// Typed-kernel accumulation; `false` when this batch resists
    /// vectorization (mixed or non-vectorizable column types) and the row
    /// path must run instead.
    fn push_batch_vectorized(&mut self, batch: &Batch) -> bool {
        let transpose = |col: usize| ValueVector::from_column(batch.column(col), batch.len());
        // Transpose each argument column once, even when several aggregates
        // read it (`sum(x), min(x), max(x)` is one gather). A `COUNT(DISTINCT)`
        // reads its values from the rows, as the groups' keys are read.
        let mut pool: Vec<(usize, ValueVector)> = Vec::new();
        let mut arg_slots: Vec<Option<usize>> = Vec::with_capacity(self.args.len());
        for (arg, pairs) in self.args.iter().zip(&self.distinct) {
            match arg {
                ArgKind::Column(c) if pairs.is_none() => {
                    let p = match pool.iter().position(|(pc, _)| pc == c) {
                        Some(p) => p,
                        None => match transpose(*c) {
                            Some(v) => {
                                pool.push((*c, v));
                                pool.len() - 1
                            }
                            None => return false,
                        },
                    };
                    arg_slots.push(Some(p));
                }
                ArgKind::General => return false,
                _ => arg_slots.push(None),
            }
        }
        // Resolve every row's group id first, then accumulate column-major:
        // one tight, monomorphic loop per aggregate over the whole batch.
        let mut ids = std::mem::take(&mut self.ids);
        self.group_ids(batch, &mut ids);
        let n = self.aggregates.len();
        for (j, slot) in arg_slots.iter().enumerate() {
            let accs = &mut self.accs;
            match (slot.map(|p| &pool[p].1), self.distinct[j].as_mut()) {
                (None, None) => {
                    for &g in &ids {
                        accs[g * n + j].update_i64(1);
                    }
                }
                (_, Some(pairs)) => {
                    for (i, &g) in ids.iter().enumerate() {
                        let value = agg_input(&self.aggregates[j], &batch.row(i));
                        if !value.is_null() && first_in_group(Some(&mut *pairs), g, &value) {
                            accs[g * n + j].update(&value);
                        }
                    }
                }
                (Some(ValueVector::Int { values, nulls }), None) => {
                    for (i, &g) in ids.iter().enumerate() {
                        if !nulls.get(i) {
                            accs[g * n + j].update_i64(values[i]);
                        }
                    }
                }
                (Some(ValueVector::Float { values, nulls }), None) => {
                    for (i, &g) in ids.iter().enumerate() {
                        if !nulls.get(i) {
                            accs[g * n + j].update_f64(values[i]);
                        }
                    }
                }
                (Some(ValueVector::Text { values, nulls }), None) => {
                    for (i, &g) in ids.iter().enumerate() {
                        if !nulls.get(i) {
                            accs[g * n + j].update_str(values[i]);
                        }
                    }
                }
            }
        }
        self.ids = ids;
        true
    }

    /// Put the group ids of a batch's rows in `ids`, new groups given fresh
    /// accumulators: its key columns read once and looked up as a batch, or,
    /// for a batch whose key column does not transpose, row by row into the
    /// same table.
    fn group_ids<'a>(&mut self, batch: &'a Batch, ids: &mut Vec<usize>) {
        let (known, len) = (self.groups.len(), batch.len());
        ids.clear();
        ids.reserve(len);
        let mut keys: KeyBatch<'a> = std::mem::take(&mut self.keys);
        if self.group_by.is_empty() {
            // No key: the one group there is.
            ids.resize(len, 0);
        } else if keys.read(len, &self.group_by, |c| batch.column(c)) {
            self.groups.insert_batch(&keys, ids);
        } else {
            ids.extend((0..len).map(|i| {
                let key = RowKey(&batch.row(i), &self.group_by);
                self.groups.insert(key.hash(), &key).0 as usize
            }));
        }
        self.keys = keys.recycle();
        let fresh = self.groups.len() - known;
        (self.accs).extend(
            (0..fresh).flat_map(|_| self.aggregates.iter().map(|a| Accumulator::new(a.func))),
        );
    }

    /// Finalize: one output row per group (group values then aggregate
    /// results), filtered by HAVING.
    pub fn finish(self, having: Option<&Expr>) -> Result<Vec<Row>, StoreError> {
        let n = self.aggregates.len();
        let mut out = Vec::with_capacity(self.groups.len());
        for g in 0..self.groups.len() {
            let results = self.accs[g * n..(g + 1) * n]
                .iter()
                .map(Accumulator::finish);
            let row: Row = (self.groups.key(g as u32).iter().cloned())
                .chain(results)
                .collect();
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

    /// `func` of column 0 over `values`, one group, through the aggregator.
    fn fold(func: AggFunc, values: &[Value], vectorized: bool) -> Value {
        let mut agg = GroupedAggregator::new(
            Vec::new(),
            vec![AggExpr::new(func, Expr::Column(0), "x")],
            vectorized,
        );
        let rows: Vec<Row> = values.iter().map(|v| Row::new(vec![v.clone()])).collect();
        agg.push_batch(&Batch::from(rows)).unwrap();
        agg.finish(None).unwrap()[0].get(0).unwrap().clone()
    }

    #[test]
    fn count_distinct_deduplicates() {
        let mut values: Vec<Value> = [1, 2, 2, 3, 3, 3].map(Value::int).to_vec();
        values.push(Value::Null);
        for vectorized in [false, true] {
            assert_eq!(
                fold(AggFunc::CountDistinct, &values, vectorized),
                Value::Integer(3)
            );
        }
        // By SQL `=`: 1 and 1.0 are one value, and so are -0.0 and 0.0.
        let mixed = [
            Value::int(1),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Float(0.0),
        ];
        assert_eq!(
            fold(AggFunc::CountDistinct, &mixed, false),
            Value::Integer(2)
        );
        assert_eq!(
            fold(AggFunc::CountDistinct, &mixed[2..], true),
            Value::Integer(1)
        );
        // `count(distinct *)` counts the one marker every row gives: 1 per
        // group, on either path.
        let rows: Vec<Row> = [1, 2, 1].map(|v| Row::new(vec![Value::int(v)])).to_vec();
        for vectorized in [false, true] {
            let star = AggExpr {
                func: AggFunc::CountDistinct,
                arg: None,
                output_name: "x".into(),
            };
            let mut agg = GroupedAggregator::new(vec![0], vec![star], vectorized);
            agg.push_batch(&Batch::from(rows.clone())).unwrap();
            assert_eq!(agg.vector_batches(), u64::from(vectorized));
            let counts: Vec<Value> = (agg.finish(None).unwrap().iter())
                .map(|r| r.get(1).unwrap().clone())
                .collect();
            assert_eq!(counts, [Value::Integer(1), Value::Integer(1)]);
        }
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
                typed.update_str(&Arc::from(v));
                plain.update(&Value::text(v));
            }
            assert_eq!(typed.finish(), plain.finish(), "str path for {func:?}");
        }
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
        vectorized.push_batch(&Batch::from(rows.clone())).unwrap();
        plain.push_batch(&Batch::from(rows)).unwrap();
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
        agg.push_batch(&Batch::from(clean.clone())).unwrap();
        agg.push_batch(&Batch::from(mixed.clone())).unwrap();
        assert_eq!(agg.vector_batches(), 1);
        let mut plain = GroupedAggregator::new(vec![0], sample_aggs(), false);
        plain.push_batch(&Batch::from(clean)).unwrap();
        plain.push_batch(&Batch::from(mixed)).unwrap();
        assert_eq!(agg.finish(None).unwrap(), plain.finish(None).unwrap());
    }

    #[test]
    fn empty_group_by_partials_keep_scalar_semantics() {
        // No rows pushed: the aggregator's own seeded group still yields
        // the scalar-aggregate row for empty input.
        let empty = GroupedAggregator::new(Vec::new(), sample_aggs(), false);
        let out = empty.finish(None).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), Some(&Value::Integer(0)));
        assert_eq!(out[0].get(1), Some(&Value::Null));
    }
}
