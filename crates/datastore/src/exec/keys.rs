//! The one key table behind every hash operator: the hash join's build, the
//! semi-/anti-join's key set, the keyed scalar subquery, the aggregator's
//! groups and `COUNT(DISTINCT)` pairs, and `DISTINCT`.
//!
//! A key is hashed and compared **where it lies** — a row's key columns, a
//! group id beside a value — through [`Key`]. Nothing is built to look a key
//! up; only a key the table has not seen is stored, once, in one flat
//! `Vec<Value>`, and named by a dense `u32` id in first-encounter order. The
//! operators keep their per-key state (a join's row run, a group's
//! accumulators) in vectors indexed by that id.
//!
//! The grouped aggregator's vector path reads a batch's keys once instead:
//! [`KeyBatch`] transposes its key columns (Integers or Text, NULL aside;
//! Text borrowed) into arrays kept from batch to batch and writes each row's
//! hash column by column, to the words [`Key::hash`] writes for the same
//! key, and [`KeyTable::insert_batch`] looks the rows up in order, comparing
//! typed values with the stored ones. Same table, same ids, same
//! first-encounter order: a batch whose key column holds Floats or mixes
//! kinds goes row by row into it, and a partial aggregate merges into it, as
//! before.
//!
//! Two keys are the same key when every pair of values is SQL `=`, with NULL
//! the same as NULL ([`Value::total_cmp`] says `Equal`; the joins drop a key
//! with a NULL before they reach the table). So `1 = 1.0` and `-0.0 = 0.0`
//! meet in one group, as `WHERE` says they are equal, and a NaN meets only
//! itself. A number is hashed by its `f64` value: an integral one by that
//! integer (which folds `-0.0` into `0`), any other by its bits. Above 2^53 an
//! Integer and a Float can be `=` while two Integers that both equal that
//! Float are not, so `=` is not transitive there: such a value joins the first
//! key it equals, in first-encounter order.

use crate::tuple::Row;
use crate::value::{cmp_f64, Value};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The hasher of the key tables and the shape caches: multiply and rotate,
/// one step per 8 bytes. The keys are values this process read out of its own
/// tables, hashed for the length of one statement — nobody gets to choose
/// them against a hash they cannot observe — so SipHash's per-key set-up,
/// most of what hashing a one-integer key cost, buys nothing here.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Little-endian words, the last one zero-padded, assembled in
        // registers: a short string is one word and no copy.
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            self.write_u64(rest.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best bits on top; the tables index with the
        // low ones.
        self.0.rotate_left(26)
    }
}

/// The hash word of a number, by its `f64` value (see the module docs).
fn float_word(f: f64) -> u64 {
    let i = f as i64;
    if i as f64 == f {
        i as u64
    } else {
        f.to_bits()
    }
}

#[inline]
fn hash_value(value: &Value, h: &mut KeyHasher) {
    match value {
        Value::Null => h.write_u64(0x6E75_6C6C),
        // An Integer an `f64` holds exactly is its own float word.
        Value::Integer(i) if i.unsigned_abs() <= 1 << 53 => h.write_u64(*i as u64),
        Value::Integer(i) => h.write_u64(float_word(*i as f64)),
        Value::Float(f) => h.write_u64(float_word(*f)),
        Value::Text(s) => {
            h.write(s.as_bytes());
            h.write_u64(s.len() as u64);
        }
        Value::Boolean(_) | Value::Date(_) => value.group_key().hash(h),
    }
}

/// SQL `=`, NULL the same as NULL: [`Value::total_cmp`], with the two
/// commonest cases inline.
#[inline]
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Integer(a), Value::Integer(b)) => a == b,
        (Value::Text(a), Value::Text(b)) => a == b,
        _ => a.total_cmp(b).is_eq(),
    }
}

/// A key as it lies: `width` values, each read where it is.
pub(crate) trait Key {
    fn width(&self) -> usize;
    fn at(&self, j: usize) -> &Value;

    #[inline]
    fn hash(&self) -> u64 {
        let mut h = KeyHasher::default();
        for j in 0..self.width() {
            hash_value(self.at(j), &mut h);
        }
        h.finish()
    }

    /// Whether any value is NULL — a key that equals nothing under SQL `=`.
    fn has_null(&self) -> bool {
        (0..self.width()).any(|j| self.at(j).is_null())
    }
}

/// A row's values at the key columns: `RowKey(row, cols)`.
pub(crate) struct RowKey<'a>(pub(crate) &'a Row, pub(crate) &'a [usize]);

impl Key for RowKey<'_> {
    fn width(&self) -> usize {
        self.1.len()
    }

    fn at(&self, j: usize) -> &Value {
        self.0.get(self.1[j]).unwrap_or(&Value::Null)
    }
}

/// Values side by side: a whole row (`DISTINCT`), or a key another table
/// stored (merging partial aggregates).
impl Key for [Value] {
    fn width(&self) -> usize {
        self.len()
    }

    fn at(&self, j: usize) -> &Value {
        &self[j]
    }
}

/// Values from wherever they lie: a group id beside the value a
/// `COUNT(DISTINCT)` counts once per group.
impl Key for [&Value] {
    fn width(&self) -> usize {
        self.len()
    }

    fn at(&self, j: usize) -> &Value {
        self[j]
    }
}

/// A batch's keys, read once: one typed column per key column, a NULL as
/// `None` and Text borrowed from its rows, and each row's hash, written as
/// the columns were read. What [`KeyTable::insert_batch`] looks up without a
/// `Value` match per value. The grouped aggregator keeps one and reads each
/// batch into the arrays of the one before ([`KeyBatch::recycle`]).
#[derive(Debug, Default)]
pub(crate) struct KeyBatch<'a> {
    columns: Vec<KeyColumn<'a>>,
    hashers: Vec<KeyHasher>,
}

#[derive(Debug)]
enum KeyColumn<'a> {
    Integer(Vec<Option<i64>>),
    Text(Vec<Option<&'a Arc<str>>>),
}

impl<'a> KeyBatch<'a> {
    /// Read columns `columns` of the `len` rows `rows` yields; `false` when
    /// one of them does not hold Integers or Text alone (NULL aside).
    pub(crate) fn read<I>(&mut self, rows: I, len: usize, columns: &[usize]) -> bool
    where
        I: Iterator<Item = &'a Row> + Clone,
    {
        self.hashers.clear();
        self.hashers.resize(len, KeyHasher::default());
        self.columns
            .resize_with(columns.len(), || KeyColumn::Integer(Vec::new()));
        (self.columns.iter_mut().zip(columns)).all(|(column, &c)| {
            column.read(
                rows.clone().map(move |r| r.get(c).unwrap_or(&NULL)),
                &mut self.hashers,
            )
        })
    }

    /// These arrays, emptied, to read a batch of rows of another lifetime
    /// into. (Collecting an emptied vector's `into_iter` into one of an
    /// item of the same size keeps its allocation.)
    pub(crate) fn recycle<'b>(self) -> KeyBatch<'b> {
        let columns = (self.columns.into_iter())
            .map(|column| match column {
                KeyColumn::Integer(mut v) => {
                    v.clear();
                    KeyColumn::Integer(v)
                }
                KeyColumn::Text(mut v) => {
                    v.clear();
                    KeyColumn::Text(v.into_iter().map(|_| None).collect())
                }
            })
            .collect();
        KeyBatch {
            columns,
            hashers: self.hashers,
        }
    }
}

static NULL: Value = Value::Null;

impl<'a> KeyColumn<'a> {
    /// Read one column into this one's array, each value's words written to
    /// its row's hasher: the words [`Key::hash`] writes for the same value.
    /// `false` at the first value of another kind than the first one's.
    fn read<I>(&mut self, values: I, hashers: &mut [KeyHasher]) -> bool
    where
        I: Iterator<Item = &'a Value> + Clone,
    {
        /// Gather the values of the kind `typed` picks out into `out`, or
        /// `false` at the first value of another kind.
        fn gather<'a, T: Copy>(
            out: &mut Vec<Option<T>>,
            values: impl Iterator<Item = &'a Value>,
            hashers: &mut [KeyHasher],
            typed: impl Fn(&'a Value) -> Option<T>,
        ) -> bool {
            out.clear();
            out.reserve(hashers.len());
            for (value, h) in values.zip(hashers) {
                hash_value(value, h);
                match typed(value) {
                    Some(v) => out.push(Some(v)),
                    None if value.is_null() => out.push(None),
                    None => return false,
                }
            }
            true
        }
        match values.clone().find(|v| !v.is_null()) {
            None | Some(Value::Integer(_)) => {
                if let KeyColumn::Text(_) = self {
                    *self = KeyColumn::Integer(Vec::new());
                }
                let KeyColumn::Integer(out) = self else {
                    unreachable!("an Integer column")
                };
                gather(out, values, hashers, |v| match v {
                    Value::Integer(i) => Some(*i),
                    _ => None,
                })
            }
            Some(Value::Text(_)) => {
                if let KeyColumn::Integer(_) = self {
                    *self = KeyColumn::Text(Vec::new());
                }
                let KeyColumn::Text(out) = self else {
                    unreachable!("a Text column")
                };
                gather(out, values, hashers, |v| match v {
                    Value::Text(s) => Some(s),
                    _ => None,
                })
            }
            Some(_) => false,
        }
    }

    /// Whether row `i`'s value is `stored`'s under [`same`].
    #[inline]
    fn same(&self, i: usize, stored: &Value) -> bool {
        match self {
            KeyColumn::Integer(v) => same_integer(v[i], stored),
            KeyColumn::Text(v) => match (v[i], stored) {
                (Some(a), Value::Text(b)) => a == b,
                (a, b) => a.is_none() && b.is_null(),
            },
        }
    }

    /// Row `i`'s value, to be stored.
    fn value(&self, i: usize) -> Value {
        let value = match self {
            KeyColumn::Integer(v) => v[i].map(Value::Integer),
            KeyColumn::Text(v) => v[i].map(|s| Value::Text(Arc::clone(s))),
        };
        value.unwrap_or(Value::Null)
    }
}

/// [`same`] for an Integer (or NULL) read from a batch.
#[inline]
fn same_integer(a: Option<i64>, stored: &Value) -> bool {
    match (a, stored) {
        (Some(a), Value::Integer(b)) => a == *b,
        (Some(a), Value::Float(b)) => cmp_f64(a as f64, *b).is_eq(),
        (a, b) => a.is_none() && b.is_null(),
    }
}

/// Distinct keys of one width, stored once each in first-encounter order and
/// named by their position (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct KeyTable {
    width: usize,
    /// Key `id`'s values are `values[id * width..(id + 1) * width]`.
    values: Vec<Value>,
    /// Key `id`'s hash: the table grows without rehashing a value, and a
    /// probe compares values only on a full hash match.
    hashes: Vec<u64>,
    /// Open addressing, linear probing, at most half full: `id + 1`, or 0
    /// for an empty slot.
    slots: Vec<u32>,
}

impl KeyTable {
    /// An empty table of `width`-value keys; it allocates on its first key.
    pub(crate) fn new(width: usize) -> KeyTable {
        KeyTable {
            width,
            ..KeyTable::default()
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Key `id`'s values.
    pub(crate) fn key(&self, id: u32) -> &[Value] {
        let start = id as usize * self.width;
        &self.values[start..start + self.width]
    }

    /// The id of `key`, whose [`Key::hash`] is `hash`, if the table holds it.
    #[inline]
    pub(crate) fn find(&self, hash: u64, key: &(impl Key + ?Sized)) -> Option<u32> {
        self.find_by(hash, |stored| {
            (stored.iter().enumerate()).all(|(j, value)| same(key.at(j), value))
        })
    }

    /// The id of the key whose hash is `hash` and whose stored values `is`
    /// accepts, if the table holds one.
    #[inline]
    fn find_by(&self, hash: u64, mut is: impl FnMut(&[Value]) -> bool) -> Option<u32> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = hash as usize & mask;
        loop {
            let id = self.slots[i].checked_sub(1)?;
            let start = id as usize * self.width;
            if self.hashes[id as usize] == hash && is(&self.values[start..start + self.width]) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id of `key`, whose [`Key::hash`] is `hash`, storing it under the
    /// next id if it is new; the flag says whether it was.
    #[inline]
    pub(crate) fn insert(&mut self, hash: u64, key: &(impl Key + ?Sized)) -> (u32, bool) {
        match self.find(hash, key) {
            Some(id) => (id, false),
            None => (
                self.store(hash, (0..self.width).map(|j| key.at(j).clone())),
                true,
            ),
        }
    }

    /// Append to `ids` the ids of a batch's keys, storing each new one as it
    /// is met: the ids, hashes and first-encounter order [`KeyTable::insert`]
    /// gives row by row.
    pub(crate) fn insert_batch(&mut self, batch: &KeyBatch, ids: &mut Vec<usize>) {
        debug_assert_eq!(batch.columns.len(), self.width, "key width");
        match &batch.columns[..] {
            // The commonest key, compared without a match on its column: the
            // lookups of `group by m.year` over 3,000 rows take 34 µs here
            // and 41 µs in the loop below (release build, one thread, a
            // 2-core x86-64 host).
            [KeyColumn::Integer(v)] => self.insert_each(
                &batch.hashers,
                ids,
                |i, stored| same_integer(v[i], &stored[0]),
                |i| [v[i].map_or(Value::Null, Value::Integer)],
            ),
            columns => self.insert_each(
                &batch.hashers,
                ids,
                |i, stored| (columns.iter().zip(stored)).all(|(c, value)| c.same(i, value)),
                |i| columns.iter().map(move |c| c.value(i)),
            ),
        }
    }

    /// [`KeyTable::insert_batch`] given how row `i` compares with a stored
    /// key and what it stores.
    #[inline]
    fn insert_each<K: IntoIterator<Item = Value>>(
        &mut self,
        hashers: &[KeyHasher],
        ids: &mut Vec<usize>,
        is: impl Fn(usize, &[Value]) -> bool,
        key: impl Fn(usize) -> K,
    ) {
        for (i, hasher) in hashers.iter().enumerate() {
            let hash = hasher.finish();
            let id = match self.find_by(hash, |stored| is(i, stored)) {
                Some(id) => id,
                None => self.store(hash, key(i)),
            };
            ids.push(id as usize);
        }
    }

    /// Store a key the table does not hold: out of line, so that the probe
    /// every row takes stays small enough to inline.
    #[inline(never)]
    fn store(&mut self, hash: u64, key: impl IntoIterator<Item = Value>) -> u32 {
        if self.slots.len() <= 2 * self.hashes.len() {
            // Double the slots (at least 16) and place every id again, in id
            // order, so a key still comes before any later key on its path.
            let len = (self.slots.len() * 2).max(16);
            self.slots.clear();
            self.slots.resize(len, 0);
            for id in 0..self.hashes.len() {
                self.place(self.hashes[id], id as u32);
            }
        }
        let id = self.hashes.len() as u32;
        self.place(hash, id);
        self.hashes.push(hash);
        self.values.extend(key);
        debug_assert_eq!(
            self.values.len(),
            self.hashes.len() * self.width,
            "key width"
        );
        id
    }

    /// Put `id` in the first empty slot on `hash`'s probe path.
    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = id + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash1(v: &Value) -> u64 {
        [v].hash()
    }

    #[test]
    fn equal_numbers_hash_alike_and_share_an_id() {
        let pairs = [
            (Value::Integer(1), Value::Float(1.0)),
            (Value::Float(-0.0), Value::Float(0.0)),
            (Value::Integer(0), Value::Float(-0.0)),
            (Value::Integer(-7), Value::Float(-7.0)),
            (Value::Integer(1 << 60), Value::Float((1u64 << 60) as f64)),
            (
                Value::Integer((1 << 53) + 1),
                Value::Float((1u64 << 53) as f64),
            ),
            (Value::Float(f64::NAN), Value::Float(f64::NAN)),
        ];
        for (a, b) in pairs {
            assert_eq!(a.sql_eq(&b), Some(true), "{a:?} = {b:?}");
            assert_eq!(hash1(&a), hash1(&b), "{a:?} and {b:?}");
            let mut table = KeyTable::new(1);
            assert_eq!(table.insert(hash1(&a), &[&a][..]), (0, true));
            assert_eq!(table.insert(hash1(&b), &[&b][..]), (0, false));
        }
        let mut table = KeyTable::new(1);
        for v in [Value::Float(1.5), Value::Float(f64::NAN), Value::text("1")] {
            table.insert(hash1(&v), &[&v][..]);
        }
        let one = Value::Integer(1);
        assert_eq!(table.find(hash1(&one), &[&one][..]), None);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn ids_follow_first_encounter_and_survive_growth() {
        let mut table = KeyTable::new(2);
        let rows: Vec<Row> = (0..1000)
            .map(|i| {
                Row::new(vec![
                    Value::int(i % 300),
                    Value::text(format!("k{}", i % 3)),
                ])
            })
            .collect();
        let mut first = Vec::new();
        for row in &rows {
            let key = RowKey(row, &[0, 1]);
            let (id, fresh) = table.insert(key.hash(), &key);
            if fresh {
                assert_eq!(id as usize, first.len());
                first.push(row.clone());
            }
        }
        assert_eq!(table.len(), 300);
        for (id, row) in first.iter().enumerate() {
            assert_eq!(table.key(id as u32), row.values());
            let key = RowKey(row, &[0, 1]);
            assert_eq!(table.find(key.hash(), &key), Some(id as u32));
            assert_eq!(table.hashes[id], row.values().hash());
        }
    }

    #[test]
    fn a_batch_lookup_is_the_row_lookup() {
        // Batches of typed columns and batches that go row by row, into one
        // table, against a table fed row by row: the same ids and hashes.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0040_0001);
        let mut draw = |kind: usize| match (kind, rng.gen_range(0..8)) {
            (_, 0) => Value::Null,
            (0, v) => Value::int([0, 1, -1, 1 << 60, (1 << 53) + 1, i64::MIN, 7][v - 1]),
            (1, v) => {
                Value::Float([0.0, -0.0, 1.0, f64::NAN, 0.5, (1u64 << 60) as f64, 7.0][v - 1])
            }
            (_, v) => Value::text(["", "a", "ab", "abcdefgh", "abcdefghi", "7", "é"][v - 1]),
        };
        for kinds in [vec![0], vec![1], vec![2], vec![0, 2], vec![2, 1, 0]] {
            let (mut batched, mut rowwise) =
                (KeyTable::new(kinds.len()), KeyTable::new(kinds.len()));
            let mut arrays: KeyBatch<'static> = KeyBatch::default();
            for round in 0..20 {
                // Every third batch mixes two kinds in its first column, so
                // it does not transpose; the one before it swaps Integers
                // and Text there, so the arrays of the batch before are
                // read into as the other kind.
                let rows: Vec<Row> = (0..64)
                    .map(|i| {
                        let first = match round % 3 {
                            2 if i % 2 == 1 => 1 - kinds[0].min(1),
                            1 => 2 - kinds[0],
                            _ => kinds[0],
                        };
                        Row::new(
                            std::iter::once(first)
                                .chain(kinds[1..].iter().copied())
                                .map(&mut draw)
                                .collect::<Vec<_>>(),
                        )
                    })
                    .collect();
                let columns: Vec<usize> = (0..kinds.len()).collect();
                let expected: Vec<usize> = (rows.iter())
                    .map(|row| {
                        let key = RowKey(row, &columns);
                        rowwise.insert(key.hash(), &key).0 as usize
                    })
                    .collect();
                let (mut batch, mut got) = (std::mem::take(&mut arrays), Vec::new());
                if batch.read(rows.iter(), rows.len(), &columns) {
                    batched.insert_batch(&batch, &mut got);
                } else {
                    // Floats, and a column of mixed kinds, go row by row.
                    assert!(
                        round % 3 == 2 || kinds.contains(&1),
                        "{kinds:?} round {round}"
                    );
                    got.extend(rows.iter().map(|row| {
                        let key = RowKey(row, &columns);
                        batched.insert(key.hash(), &key).0 as usize
                    }));
                }
                assert_eq!(got, expected, "{kinds:?} round {round}");
                arrays = batch.recycle();
            }
            assert_eq!(batched.len(), rowwise.len());
            for id in 0..batched.len() as u32 {
                assert_eq!(batched.hashes[id as usize], rowwise.hashes[id as usize]);
                assert_eq!(
                    format!("{:?}", batched.key(id)),
                    format!("{:?}", rowwise.key(id))
                );
            }
        }
    }

    #[test]
    fn a_key_with_a_null_is_one_key() {
        let mut table = KeyTable::new(2);
        let key = [Value::Null, Value::int(1)];
        assert!(key.has_null());
        assert_eq!(table.insert(key.hash(), &key[..]), (0, true));
        assert_eq!(table.insert(key.hash(), &key[..]), (0, false));
    }
}
