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
use crate::value::Value;
use std::hash::{Hash, Hasher};

/// The hasher of the key tables and the shape caches: multiply and rotate,
/// one step per 8 bytes. The keys are values this process read out of its own
/// tables, hashed for the length of one statement — nobody gets to choose
/// them against a hash they cannot observe — so SipHash's per-key set-up,
/// most of what hashing a one-integer key cost, buys nothing here.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
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

    /// Key `id`'s hash ([`Key::hash`] of its values).
    pub(crate) fn hash_of(&self, id: u32) -> u64 {
        self.hashes[id as usize]
    }

    /// The id of `key`, whose [`Key::hash`] is `hash`, if the table holds it.
    #[inline]
    pub(crate) fn find(&self, hash: u64, key: &(impl Key + ?Sized)) -> Option<u32> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = hash as usize & mask;
        loop {
            let id = self.slots[i].checked_sub(1)?;
            let start = id as usize * self.width;
            if self.hashes[id as usize] == hash
                && (0..key.width()).all(|j| same(key.at(j), &self.values[start + j]))
            {
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
            None => (self.store(hash, key), true),
        }
    }

    /// Store a key the table does not hold: out of line, so that the probe
    /// every row takes stays small enough to inline.
    #[inline(never)]
    fn store(&mut self, hash: u64, key: &(impl Key + ?Sized)) -> u32 {
        debug_assert_eq!(key.width(), self.width, "key width");
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
        self.values
            .extend((0..self.width).map(|j| key.at(j).clone()));
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
            assert_eq!(table.hash_of(id as u32), row.values().hash());
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
