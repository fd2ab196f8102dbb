//! Hash indexes on key columns.
//!
//! The coordinator's base-result structure "is indexed on K, which allows us
//! to efficiently determine RNG(X, t, θ_K) for any tuple t in H" (paper
//! Sect. 3.2) — synchronization is O(|H|). [`KeyIndex`] is that index: an
//! open-addressing table from key hashes to dense entry positions. It holds
//! no keys itself: the caller keeps its entries (rows, accumulator
//! vectors) in a `Vec` parallel to the index and decides equality on a hash
//! match, so a lookup takes a borrowed key and never allocates.
//!
//! [`hash_values`] produces the hashes: a multiply-xorshift over each value's
//! canonical `(tag, word)` form ([`canon_i64`] / [`canon_f64`]), so values
//! that compare equal hash equally (`Int(2)` and `Double(2.0)`, `-0.0` and
//! `0.0`, every `NaN`), exactly like [`Value`]'s own `Hash`.

use crate::columns::{canon_f64, canon_i64, CANON_NULL};
use crate::row::Row;
use crate::value::Value;

/// A streaming 64-bit key hash. Consistency between the build and probe
/// sides of one index is all it must provide. It is not DoS-resistant:
/// the keys it hashes are the warehouse's own group values, which the
/// site kernels already hash the same unkeyed way.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    /// A fresh hasher.
    #[inline]
    pub(crate) fn new() -> KeyHasher {
        KeyHasher(0x51CA_11A0_C0FF_EE00)
    }

    /// Mix in one 64-bit word.
    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }

    /// Mix in one canonical `(tag, word)` pair.
    #[inline]
    pub(crate) fn canon(&mut self, (tag, w): (u8, u64)) {
        self.word(tag as u64);
        self.word(w);
    }

    /// Mix in one value, consistently with [`Value`] equality.
    #[inline]
    pub(crate) fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.canon(CANON_NULL),
            Value::Int(i) => self.canon(canon_i64(*i)),
            Value::Double(d) => self.canon(canon_f64(*d)),
            Value::Str(s) => {
                self.word(3);
                let bytes = s.as_bytes();
                for chunk in bytes.chunks(8) {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    self.word(u64::from_le_bytes(w));
                }
                self.word(bytes.len() as u64);
            }
        }
    }

    /// The final hash (avalanched, so low bits are usable as a slot index).
    #[inline]
    pub(crate) fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// The key hash of a value slice (a row's key columns).
#[inline]
pub fn hash_values(values: &[Value]) -> u64 {
    let mut h = KeyHasher::new();
    for v in values {
        h.value(v);
    }
    h.finish()
}

/// The key hash of `row`'s values at `idx` — equal to [`hash_values`] of
/// those values gathered into a slice.
#[inline]
pub fn hash_row_key(row: &Row, idx: &[usize]) -> u64 {
    let mut h = KeyHasher::new();
    for &c in idx {
        h.value(row.get(c));
    }
    h.finish()
}

/// An open-addressing (linear probing) table from key hashes to dense
/// entry positions `0..len()`, assigned in insertion order.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    /// Entry position + 1 per slot (0 = empty); length a power of two.
    slots: Vec<u32>,
    /// The hash of every entry, by position.
    hashes: Vec<u64>,
}

impl KeyIndex {
    /// An empty index.
    pub fn new() -> KeyIndex {
        KeyIndex::with_capacity(0)
    }

    /// An empty index sized for `n` entries without growing.
    pub fn with_capacity(n: usize) -> KeyIndex {
        KeyIndex {
            slots: vec![0; (n.max(4) * 2).next_power_of_two()],
            hashes: Vec::with_capacity(n),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The position of the entry with hash `hash` for which `eq` holds
    /// (`eq` receives candidate positions whose hash matches).
    #[inline]
    pub fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        loop {
            let e = self.slots[s];
            if e == 0 {
                return None;
            }
            let pos = (e - 1) as usize;
            if self.hashes[pos] == hash && eq(pos) {
                return Some(pos);
            }
            s = (s + 1) & mask;
        }
    }

    /// Append a new entry with hash `hash` and return its position
    /// (`len()` before the call). The caller guarantees no equal entry is
    /// present — look it up with [`KeyIndex::find`] first.
    ///
    /// # Panics
    /// Panics past `u32::MAX - 1` entries.
    pub fn insert(&mut self, hash: u64) -> usize {
        let pos = self.hashes.len();
        assert!(pos < u32::MAX as usize - 1, "key index full");
        if (pos + 1) * 2 > self.slots.len() {
            self.grow();
        }
        self.hashes.push(hash);
        self.place(hash, pos);
        pos
    }

    fn place(&mut self, hash: u64, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        while self.slots[s] != 0 {
            s = (s + 1) & mask;
        }
        self.slots[s] = pos as u32 + 1;
    }

    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        for pos in 0..self.hashes.len() {
            self.place(self.hashes[pos], pos);
        }
    }
}

impl Default for KeyIndex {
    fn default() -> KeyIndex {
        KeyIndex::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn equal_values_hash_equally() {
        assert_eq!(
            hash_values(&[Value::Int(2)]),
            hash_values(&[Value::Double(2.0)])
        );
        assert_eq!(
            hash_values(&[Value::Double(-0.0)]),
            hash_values(&[Value::Int(0)])
        );
        assert_eq!(
            hash_values(&[Value::Double(f64::NAN)]),
            hash_values(&[Value::Double(-f64::NAN)])
        );
        let (a, b): (Arc<str>, Arc<str>) = (Arc::from("abcdefghij"), Arc::from("abcdefghij"));
        assert_eq!(hash_values(&[Value::Str(a)]), hash_values(&[Value::Str(b)]));
        assert_ne!(hash_values(&[Value::Int(1)]), hash_values(&[Value::Int(2)]));
        assert_ne!(
            hash_values(&[Value::str("ab")]),
            hash_values(&[Value::str("ab\0")])
        );
        assert_ne!(hash_values(&[Value::Null]), hash_values(&[Value::Int(0)]));
    }

    #[test]
    fn find_and_insert_dense_positions_through_growth() {
        let keys: Vec<Vec<Value>> = (0..1000i64)
            .map(|i| vec![Value::Int(i % 50), Value::str(format!("k{}", i % 7))])
            .collect();
        let mut index = KeyIndex::new();
        let mut entries: Vec<&[Value]> = Vec::new();
        let mut first_pos = Vec::new();
        for k in &keys {
            let h = hash_values(k);
            let pos = match index.find(h, |p| entries[p] == &k[..]) {
                Some(p) => p,
                None => {
                    let p = index.insert(h);
                    assert_eq!(p, entries.len(), "positions are dense");
                    entries.push(k);
                    p
                }
            };
            first_pos.push(pos);
        }
        // 1000 keys cycle with period lcm(50, 7) = 350.
        assert_eq!(index.len(), 350);
        for (k, &p) in keys.iter().zip(&first_pos) {
            assert_eq!(
                index.find(hash_values(k), |q| entries[q] == &k[..]),
                Some(p)
            );
        }
        assert_eq!(index.find(hash_values(&[Value::Int(-1)]), |_| true), None);
    }
}
