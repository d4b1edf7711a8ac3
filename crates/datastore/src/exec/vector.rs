//! Columnar batches and typed kernels for the vectorized execution path.
//!
//! The row engine evaluates expressions one `Value` at a time, paying an
//! enum match per row on the hottest loops. This module transposes the
//! columns a kernel reads, from where a [`Batch`] holds them, into
//! [`ValueVector`]s — typed `i64`/`f64` arrays, or the batch's own strings
//! borrowed, with a word-packed [`NullBitmap`] — and evaluates comparison
//! predicates and conjunctions with tight typed loops over those arrays
//! instead.
//!
//! Vectorization is best-effort by design: a batch whose column mixes types
//! (or uses a type outside the three vectorized ones) simply refuses to
//! transpose, and the caller falls back to the per-row `Value` path for that
//! batch. Results are identical either way — the kernels replicate the SQL
//! three-valued comparison semantics of [`Value::sql_cmp`] exactly, with
//! NULL never selected by a WHERE mask.

use crate::exec::batch::Batch;
use crate::expr::{CmpOp, Expr, Param, ParamLookup};
use crate::value::{cmp_f64, Value};
use std::sync::Arc;

/// Word-packed validity companion to a [`ValueVector`]: bit `i` is set when
/// slot `i` holds SQL NULL.
#[derive(Debug, Clone, Default)]
pub struct NullBitmap {
    words: Vec<u64>,
}

impl NullBitmap {
    /// An all-valid bitmap for `len` slots.
    pub fn new(len: usize) -> NullBitmap {
        NullBitmap {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Mark slot `i` as NULL.
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// True when slot `i` is NULL.
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// One column of a batch, transposed into a typed array plus a null bitmap;
/// a Text column borrows its strings from the rows that hold them. NULL
/// slots hold an arbitrary placeholder in the typed array; the bitmap is
/// authoritative.
#[derive(Debug, Clone)]
pub enum ValueVector<'a> {
    Int {
        values: Vec<i64>,
        nulls: NullBitmap,
    },
    Float {
        values: Vec<f64>,
        nulls: NullBitmap,
    },
    Text {
        values: Vec<&'a Arc<str>>,
        nulls: NullBitmap,
    },
}

impl<'a> ValueVector<'a> {
    /// Transpose the `len` values of one column of a batch
    /// ([`Batch::column`]). Returns `None` when the column resists typed
    /// vectorization for this batch: a mix of types, or a type (boolean,
    /// date) the vectors do not cover — the caller then falls back to the
    /// per-row path for the whole batch.
    pub fn from_column(
        column: impl Iterator<Item = &'a Value> + Clone,
        len: usize,
    ) -> Option<ValueVector<'a>> {
        // The first non-NULL value fixes the vector's type.
        let first = column.clone().find(|v| !v.is_null());
        let mut nulls = NullBitmap::new(len);
        match first {
            // An all-NULL column vectorizes as integers of nothing but
            // placeholders; every kernel consults the bitmap first.
            None => {
                for i in 0..len {
                    nulls.set(i);
                }
                Some(ValueVector::Int {
                    values: vec![0; len],
                    nulls,
                })
            }
            Some(Value::Integer(_)) => {
                let mut values = Vec::with_capacity(len);
                for (i, value) in column.enumerate() {
                    match value {
                        Value::Integer(v) => values.push(*v),
                        Value::Null => {
                            nulls.set(i);
                            values.push(0);
                        }
                        _ => return None,
                    }
                }
                Some(ValueVector::Int { values, nulls })
            }
            Some(Value::Float(_)) => {
                let mut values = Vec::with_capacity(len);
                for (i, value) in column.enumerate() {
                    match value {
                        Value::Float(v) => values.push(*v),
                        Value::Null => {
                            nulls.set(i);
                            values.push(0.0);
                        }
                        _ => return None,
                    }
                }
                Some(ValueVector::Float { values, nulls })
            }
            Some(Value::Text(first)) => {
                let mut values = Vec::with_capacity(len);
                for (i, value) in column.enumerate() {
                    match value {
                        Value::Text(v) => values.push(v),
                        // Any string will do as the placeholder.
                        Value::Null => {
                            nulls.set(i);
                            values.push(first);
                        }
                        _ => return None,
                    }
                }
                Some(ValueVector::Text { values, nulls })
            }
            Some(_) => None, // Boolean / Date: no typed kernel.
        }
    }

    /// Number of slots.
    fn len(&self) -> usize {
        match self {
            ValueVector::Int { values, .. } => values.len(),
            ValueVector::Float { values, .. } => values.len(),
            ValueVector::Text { values, .. } => values.len(),
        }
    }

    /// True when slot `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ValueVector::Int { nulls, .. }
            | ValueVector::Float { nulls, .. }
            | ValueVector::Text { nulls, .. } => nulls.get(i),
        }
    }
}

/// AND a `column <op> literal` comparison into `mask`, with WHERE
/// semantics: a NULL slot is never selected. Returns `false` (mask left in
/// an unspecified state) when no typed kernel covers the vector/literal type
/// pair — the caller must then fall back to row-at-a-time evaluation.
pub fn and_compare_literal(
    vec: &ValueVector,
    op: CmpOp,
    literal: &Value,
    mask: &mut [bool],
) -> bool {
    match (vec, literal) {
        (ValueVector::Int { values, nulls }, Value::Integer(b)) => {
            for (i, v) in values.iter().enumerate() {
                mask[i] &= !nulls.get(i) && op.holds(v.cmp(b));
            }
            true
        }
        (ValueVector::Int { values, nulls }, Value::Float(b)) => {
            for (i, v) in values.iter().enumerate() {
                mask[i] &= !nulls.get(i) && op.holds(cmp_f64(*v as f64, *b));
            }
            true
        }
        (ValueVector::Float { values, nulls }, Value::Integer(b)) => {
            let b = *b as f64;
            for (i, v) in values.iter().enumerate() {
                mask[i] &= !nulls.get(i) && op.holds(cmp_f64(*v, b));
            }
            true
        }
        (ValueVector::Float { values, nulls }, Value::Float(b)) => {
            for (i, v) in values.iter().enumerate() {
                mask[i] &= !nulls.get(i) && op.holds(cmp_f64(*v, *b));
            }
            true
        }
        (ValueVector::Text { values, nulls }, Value::Text(b)) => {
            for (i, v) in values.iter().enumerate() {
                mask[i] &= !nulls.get(i) && op.holds(str::cmp(v, b));
            }
            true
        }
        _ => false,
    }
}

/// AND a `column <op> column` comparison into `mask`; same contract as
/// [`and_compare_literal`].
pub fn and_compare_columns(
    left: &ValueVector,
    op: CmpOp,
    right: &ValueVector,
    mask: &mut [bool],
) -> bool {
    match (left, right) {
        (
            ValueVector::Int {
                values: a,
                nulls: an,
            },
            ValueVector::Int {
                values: b,
                nulls: bn,
            },
        ) => {
            for i in 0..a.len() {
                mask[i] &= !an.get(i) && !bn.get(i) && op.holds(a[i].cmp(&b[i]));
            }
            true
        }
        (
            ValueVector::Text {
                values: a,
                nulls: an,
            },
            ValueVector::Text {
                values: b,
                nulls: bn,
            },
        ) => {
            for i in 0..a.len() {
                mask[i] &= !an.get(i) && !bn.get(i) && op.holds(str::cmp(a[i], b[i]));
            }
            true
        }
        // Numeric pairs that are not both integers compare as floats,
        // exactly like `Value::total_cmp`'s mixed-numeric arms.
        (
            ValueVector::Int { .. } | ValueVector::Float { .. },
            ValueVector::Int { .. } | ValueVector::Float { .. },
        ) => {
            for (i, m) in mask.iter_mut().enumerate().take(left.len()) {
                *m &= !left.is_null(i)
                    && !right.is_null(i)
                    && op.holds(cmp_f64(numeric_at(left, i), numeric_at(right, i)));
            }
            true
        }
        _ => false,
    }
}

fn numeric_at(vec: &ValueVector, i: usize) -> f64 {
    match vec {
        ValueVector::Int { values, .. } => values[i] as f64,
        ValueVector::Float { values, .. } => values[i],
        ValueVector::Text { .. } => f64::NAN,
    }
}

/// One compiled conjunct of a vectorizable predicate.
#[derive(Debug, Clone)]
enum KernelTerm {
    /// `column <op> literal` (either written order, normalized). The
    /// literal of a parameter is the value it was bound to last
    /// ([`VectorPredicate::rebind`]); unbound or bound to NULL it has no
    /// typed kernel, so every batch falls back, as a predicate on a NULL
    /// literal is never compiled.
    CompareLiteral {
        column: usize,
        op: CmpOp,
        literal: Value,
        param: Option<Param>,
    },
    /// `column <op> column`.
    CompareColumns {
        left: usize,
        op: CmpOp,
        right: usize,
    },
}

/// A predicate compiled for vector evaluation: a conjunction of simple
/// comparisons over typed columns. Compilation looks only at the expression
/// shape; the per-batch type check happens in [`VectorPredicate::evaluate`],
/// which falls back (returns `None`) when a referenced column refuses to
/// transpose or a kernel has no typed arm for the operand types.
#[derive(Debug, Clone)]
pub struct VectorPredicate {
    terms: Vec<KernelTerm>,
    columns: Vec<usize>,
}

impl VectorPredicate {
    /// Compile an expression, or `None` when its shape has no typed kernel
    /// (anything beyond conjunctions of simple comparisons).
    pub fn compile(expr: &Expr) -> Option<VectorPredicate> {
        let mut terms = Vec::new();
        collect_terms(expr, &mut terms)?;
        if terms.is_empty() {
            return None;
        }
        let mut columns: Vec<usize> = terms
            .iter()
            .flat_map(|t| match t {
                KernelTerm::CompareLiteral { column, .. } => vec![*column],
                KernelTerm::CompareColumns { left, right, .. } => vec![*left, *right],
            })
            .collect();
        columns.sort_unstable();
        columns.dedup();
        Some(VectorPredicate { terms, columns })
    }

    /// Bind each parameter term `bindings` has a value for to that value, in
    /// place: the kernel stays compiled whatever the value's kind.
    pub fn rebind(&mut self, bindings: ParamLookup<'_>) {
        for term in &mut self.terms {
            if let KernelTerm::CompareLiteral {
                literal,
                param: Some(param),
                ..
            } = term
            {
                if let Some(v) = bindings(*param) {
                    literal.clone_from(v);
                }
            }
        }
    }

    /// Evaluate the predicate over a batch: `Some(mask)` with one selection
    /// flag per row (NULL comparisons unselected, per WHERE semantics), or
    /// `None` when this batch resists vectorization and the caller should
    /// evaluate row-at-a-time instead.
    pub fn evaluate(&self, batch: &Batch) -> Option<Vec<bool>> {
        let mut vectors: Vec<(usize, ValueVector)> = Vec::with_capacity(self.columns.len());
        for &c in &self.columns {
            vectors.push((c, ValueVector::from_column(batch.column(c), batch.len())?));
        }
        let vector_of = |col: usize| -> &ValueVector {
            let idx = vectors
                .iter()
                .position(|(c, _)| *c == col)
                .expect("column transposed");
            &vectors[idx].1
        };
        let mut mask = vec![true; batch.len()];
        for term in &self.terms {
            let ok = match term {
                KernelTerm::CompareLiteral {
                    column,
                    op,
                    literal,
                    ..
                } => and_compare_literal(vector_of(*column), *op, literal, &mut mask),
                KernelTerm::CompareColumns { left, op, right } => {
                    and_compare_columns(vector_of(*left), *op, vector_of(*right), &mut mask)
                }
            };
            if !ok {
                return None;
            }
        }
        Some(mask)
    }
}

/// And-flatten an expression into kernel terms; `None` when any conjunct is
/// not a simple comparison.
fn collect_terms(expr: &Expr, terms: &mut Vec<KernelTerm>) -> Option<()> {
    match expr {
        Expr::And(a, b) => {
            collect_terms(a, terms)?;
            collect_terms(b, terms)
        }
        Expr::Compare { op, left, right } => {
            let (column, op, other) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(l), Expr::Column(r)) => {
                    terms.push(KernelTerm::CompareColumns {
                        left: *l,
                        op: *op,
                        right: *r,
                    });
                    return Some(());
                }
                (Expr::Column(c), other) => (*c, *op, other),
                // Flip the operand order, mirroring the operator.
                (other, Expr::Column(c)) => (*c, flip(*op), other),
                _ => return None,
            };
            let (literal, param) = match other {
                Expr::Literal(v) if !v.is_null() => (v.clone(), None),
                // A parameter compares like the literal it will be bound
                // to, so the shape is eligible — the vectorize decision must
                // match between a plan-cache template and its bound
                // counterpart, and a correlation value is bound in place.
                Expr::Param(param) => (Value::Null, Some(*param)),
                _ => return None,
            };
            terms.push(KernelTerm::CompareLiteral {
                column,
                op,
                literal,
                param,
            });
            Some(())
        }
        _ => None,
    }
}

/// Mirror a comparison operator across flipped operands (`5 < x` ⇔ `x > 5`).
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::NotEq => CmpOp::NotEq,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::LtEq => CmpOp::GtEq,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::GtEq => CmpOp::LtEq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::tuple::Row;

    fn from_rows(rows: &Batch, col: usize) -> Option<ValueVector<'_>> {
        ValueVector::from_column(rows.column(col), rows.len())
    }

    fn rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::int(1), Value::text("a"), Value::Float(1.5)]),
            Row::new(vec![Value::int(2), Value::Null, Value::Float(2.5)]),
            Row::new(vec![Value::Null, Value::text("c"), Value::Float(3.5)]),
            Row::new(vec![Value::int(4), Value::text("d"), Value::Float(4.5)]),
        ]
    }

    #[test]
    fn transpose_types_and_nulls() {
        let rs = Batch::from(rows());
        let ints = from_rows(&rs, 0).unwrap();
        assert_eq!(ints.len(), 4);
        assert!(ints.is_null(2));
        assert!(!ints.is_null(0));
        assert!(matches!(&ints, ValueVector::Int { values, .. } if values[3] == 4));
        let texts = from_rows(&rs, 1).unwrap();
        assert!(texts.is_null(1));
        assert!(matches!(&texts, ValueVector::Text { values, .. } if &**values[0] == "a"));
    }

    #[test]
    fn mixed_and_unsupported_columns_refuse_to_transpose() {
        let rs = Batch::from(vec![
            Row::new(vec![Value::int(1), Value::Boolean(true)]),
            Row::new(vec![Value::text("x"), Value::Boolean(false)]),
        ]);
        assert!(from_rows(&rs, 0).is_none(), "mixed types");
        assert!(from_rows(&rs, 1).is_none(), "booleans");
    }

    #[test]
    fn all_null_column_transposes_with_every_slot_null() {
        let rs = Batch::from(vec![
            Row::new(vec![Value::Null]),
            Row::new(vec![Value::Null]),
        ]);
        let vec = from_rows(&rs, 0).unwrap();
        assert!(vec.is_null(0) && vec.is_null(1));
    }

    #[test]
    fn compare_kernels_match_row_semantics() {
        let rs = rows();
        let pred = Expr::col_cmp_value(0, CmpOp::Gt, Value::int(1));
        let compiled = VectorPredicate::compile(&pred).unwrap();
        let mask = compiled.evaluate(&Batch::from(rs.clone())).unwrap();
        let expected: Vec<bool> = rs.iter().map(|r| pred.eval_predicate(r).unwrap()).collect();
        assert_eq!(mask, expected);
        // NULL never selected.
        assert!(!mask[2]);
    }

    #[test]
    fn flipped_literal_and_conjunction() {
        let rs = rows();
        // 2 <= col0 AND col2 < 4.0
        let pred = Expr::And(
            Box::new(Expr::Compare {
                op: CmpOp::LtEq,
                left: Box::new(Expr::Literal(Value::int(2))),
                right: Box::new(Expr::Column(0)),
            }),
            Box::new(Expr::col_cmp_value(2, CmpOp::Lt, Value::Float(4.0))),
        );
        let compiled = VectorPredicate::compile(&pred).unwrap();
        let mask = compiled.evaluate(&Batch::from(rs.clone())).unwrap();
        let expected: Vec<bool> = rs.iter().map(|r| pred.eval_predicate(r).unwrap()).collect();
        assert_eq!(mask, expected);
        assert_eq!(mask, vec![false, true, false, false]);
    }

    #[test]
    fn column_column_comparison_and_mixed_numerics() {
        let rs = vec![
            Row::new(vec![Value::int(1), Value::Float(1.0)]),
            Row::new(vec![Value::int(2), Value::Float(1.5)]),
            Row::new(vec![Value::Null, Value::Float(9.0)]),
        ];
        let pred = Expr::col_eq(0, 0);
        let compiled = VectorPredicate::compile(&pred).unwrap();
        assert_eq!(
            compiled.evaluate(&Batch::from(rs.clone())).unwrap(),
            vec![true, true, false],
            "x = x is false for NULL"
        );
        let pred = Expr::Compare {
            op: CmpOp::Gt,
            left: Box::new(Expr::Column(0)),
            right: Box::new(Expr::Column(1)),
        };
        let mask = VectorPredicate::compile(&pred)
            .unwrap()
            .evaluate(&Batch::from(rs.clone()))
            .unwrap();
        let expected: Vec<bool> = rs.iter().map(|r| pred.eval_predicate(r).unwrap()).collect();
        assert_eq!(mask, expected);
    }

    #[test]
    fn unsupported_shapes_do_not_compile() {
        assert!(VectorPredicate::compile(&Expr::Literal(Value::Boolean(true))).is_none());
        assert!(VectorPredicate::compile(&Expr::Or(
            Box::new(Expr::col_cmp_value(0, CmpOp::Eq, Value::int(1))),
            Box::new(Expr::col_cmp_value(0, CmpOp::Eq, Value::int(2))),
        ))
        .is_none());
        assert!(VectorPredicate::compile(&Expr::IsNull(Box::new(Expr::Column(0)))).is_none());
        // Comparisons against NULL literals stay row-at-a-time.
        assert!(
            VectorPredicate::compile(&Expr::col_cmp_value(0, CmpOp::Eq, Value::Null)).is_none()
        );
    }

    #[test]
    fn type_mismatch_falls_back_at_runtime() {
        let rs = rows();
        // col0 is integers; comparing against text compiles (shape is fine)
        // but the kernel has no typed arm, so evaluation falls back.
        let pred = Expr::col_cmp_value(0, CmpOp::Eq, Value::text("x"));
        let compiled = VectorPredicate::compile(&pred).unwrap();
        assert!(compiled.evaluate(&Batch::from(rs)).is_none());
    }
}
