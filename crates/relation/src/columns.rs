//! Columnar physical layout for relations.
//!
//! A [`Columns`] store holds one typed vector per column — `Vec<i64>` for
//! integer columns, `Vec<f64>` for doubles, dictionary-encoded `u32` codes
//! plus an interned string table for strings, each with an optional
//! validity [`Bitmap`] marking non-`NULL` rows. Columns whose values do not
//! all share one type (legal: type conformance is checked lazily) fall back
//! to a [`Column::Mixed`] vector of [`Value`]s.
//!
//! The store is a *projection* of a relation's rows: [`Columns::from_rows`]
//! is lossless (`NaN` bit patterns, `-0.0`, `NULL`s and shared `Str`
//! handles all survive the round trip through [`Columns::to_rows`]), and
//! the wire codec keeps serializing through the row encoding — columnar
//! layout never changes what travels between sites.
//!
//! The vectorized GMDJ kernel consumes this layout: aggregate inner loops
//! run over `&[i64]` / `&[f64]` slices, and group-key probes compare
//! *canonical keys* ([`canon_i64`] / [`canon_f64`] plus dictionary codes)
//! instead of hashing [`Value`] enums row by row.

use crate::index::{KeyHasher, KeyIndex};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{total_f64_cmp, DataType, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A fixed-length bitmap (one bit per row). Used as a validity mask:
/// a set bit means the row holds a real value, a clear bit means `NULL`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-clear bitmap of `len` bits.
    pub fn new(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }
}

/// One physical column: a typed vector with an optional validity bitmap
/// (`None` ⇒ no `NULL`s), or a [`Value`] vector for mixed-type columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// All non-`NULL` values are `Int`. `data[i]` is meaningful only where
    /// `valid` is set (or everywhere when `valid` is `None`).
    Int {
        /// The integer values (0 at `NULL` rows).
        data: Vec<i64>,
        /// Validity mask; `None` means no `NULL`s.
        valid: Option<Bitmap>,
    },
    /// All non-`NULL` values are `Double`. Bit patterns are preserved
    /// exactly (`NaN` payloads, `-0.0`).
    Double {
        /// The double values (0.0 at `NULL` rows).
        data: Vec<f64>,
        /// Validity mask; `None` means no `NULL`s.
        valid: Option<Bitmap>,
    },
    /// All non-`NULL` values are `Str`, dictionary-encoded: `codes[i]`
    /// indexes `dict`, which holds each distinct string once (first
    /// occurrence order). Rows sharing a string share one `Arc`.
    Str {
        /// Per-row dictionary codes (0 at `NULL` rows).
        codes: Vec<u32>,
        /// The interned string table.
        dict: Vec<Arc<str>>,
        /// Validity mask; `None` means no `NULL`s.
        valid: Option<Bitmap>,
    },
    /// Fallback for columns mixing value types: plain values.
    Mixed(Vec<Value>),
}

impl Column {
    /// The value at row `i` (clones are cheap: `Str` shares the interned
    /// `Arc`).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int { data, valid } => match valid {
                Some(v) if !v.get(i) => Value::Null,
                _ => Value::Int(data[i]),
            },
            Column::Double { data, valid } => match valid {
                Some(v) if !v.get(i) => Value::Null,
                _ => Value::Double(data[i]),
            },
            Column::Str { codes, dict, valid } => match valid {
                Some(v) if !v.get(i) => Value::Null,
                _ => Value::Str(Arc::clone(&dict[codes[i] as usize])),
            },
            Column::Mixed(vs) => vs[i].clone(),
        }
    }

    /// Is row `i` non-`NULL`?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            Column::Int { valid, .. }
            | Column::Double { valid, .. }
            | Column::Str { valid, .. } => valid.as_ref().is_none_or(|v| v.get(i)),
            Column::Mixed(vs) => !vs[i].is_null(),
        }
    }

    /// The order of row `i` against `v` under [`Value`]'s total order —
    /// what `self.value(i).cmp(v)` gives, without building the value — or
    /// `None` when either side is `NULL` (a comparison with `NULL` is
    /// never true).
    #[inline]
    pub fn cmp_value(&self, i: usize, v: &Value) -> Option<Ordering> {
        if v.is_null() || !self.is_valid(i) {
            return None;
        }
        Some(match self {
            Column::Int { data, .. } => match v {
                Value::Int(c) => data[i].cmp(c),
                Value::Double(d) => total_f64_cmp(data[i] as f64, *d),
                // Numbers sort before strings.
                _ => Ordering::Less,
            },
            Column::Double { data, .. } => match v {
                Value::Int(c) => total_f64_cmp(data[i], *c as f64),
                Value::Double(d) => total_f64_cmp(data[i], *d),
                _ => Ordering::Less,
            },
            Column::Str { codes, dict, .. } => match v {
                Value::Str(s) => (*dict[codes[i] as usize]).cmp(&**s),
                _ => Ordering::Greater,
            },
            Column::Mixed(vs) => vs[i].cmp(v),
        })
    }

    /// Mix row `i`'s canonical key into `h`: equal values (by [`Value`]
    /// equality) mix equally within one column. String rows mix their
    /// dictionary code.
    #[inline]
    fn hash_into(&self, i: usize, h: &mut KeyHasher) {
        match self {
            Column::Int { data, .. } => h.canon(if self.is_valid(i) {
                canon_i64(data[i])
            } else {
                CANON_NULL
            }),
            Column::Double { data, .. } => h.canon(if self.is_valid(i) {
                canon_f64(data[i])
            } else {
                CANON_NULL
            }),
            Column::Str { codes, .. } => h.canon(if self.is_valid(i) {
                (CANON_STR_TAG, codes[i] as u64)
            } else {
                CANON_NULL
            }),
            Column::Mixed(vs) => h.value(&vs[i]),
        }
    }

    /// Whether rows `a` and `b` hold [`Value`]-equal values (two `NULL`s
    /// are equal, as under the total order).
    #[inline]
    fn same_at(&self, a: usize, b: usize) -> bool {
        // Typed layouts: equal validity, and equal data where valid.
        let typed = |data_eq: bool| {
            let valid = self.is_valid(a);
            valid == self.is_valid(b) && (!valid || data_eq)
        };
        match self {
            Column::Int { data, .. } => typed(data[a] == data[b]),
            Column::Double { data, .. } => typed(canon_f64(data[a]) == canon_f64(data[b])),
            Column::Str { codes, .. } => typed(codes[a] == codes[b]),
            Column::Mixed(vs) => vs[a] == vs[b],
        }
    }

    /// The typed integer slice and validity, if this is an `Int` column.
    pub fn as_int(&self) -> Option<(&[i64], Option<&Bitmap>)> {
        match self {
            Column::Int { data, valid } => Some((data, valid.as_ref())),
            _ => None,
        }
    }

    /// The typed double slice and validity, if this is a `Double` column.
    pub fn as_double(&self) -> Option<(&[f64], Option<&Bitmap>)> {
        match self {
            Column::Double { data, valid } => Some((data, valid.as_ref())),
            _ => None,
        }
    }

    /// The dictionary codes, string table and validity, if this is a
    /// `Str` column.
    pub fn as_str_dict(&self) -> Option<StrDictView<'_>> {
        match self {
            Column::Str { codes, dict, valid } => Some((codes, dict, valid.as_ref())),
            _ => None,
        }
    }
}

/// Borrowed view of a dictionary-encoded string column: `(codes, dict,
/// validity)`.
pub type StrDictView<'a> = (&'a [u32], &'a [Arc<str>], Option<&'a Bitmap>);

/// The columnar store of one relation: `arity` typed columns of equal
/// length. Built lazily by [`crate::Relation::columns`] and cached.
#[derive(Debug, Clone, PartialEq)]
pub struct Columns {
    len: usize,
    cols: Vec<Column>,
}

/// What a column scan found, before committing to a representation.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Unknown,
    Int,
    Double,
    Str,
    Mixed,
}

impl Columns {
    /// Build the columnar store from row-major data.
    ///
    /// Column representations are chosen from the values actually present
    /// (the declared schema type only breaks ties for all-`NULL` columns):
    /// a column whose non-`NULL` values are all of one type gets the typed
    /// vector, anything else falls back to [`Column::Mixed`].
    pub fn from_rows(schema: &Schema, rows: &[Row]) -> Columns {
        let arity = schema.len();
        let mut cols = Vec::with_capacity(arity);
        for c in 0..arity {
            // Pass 1: classify.
            let mut kind = Kind::Unknown;
            let mut nulls = false;
            for r in rows {
                let k = match r.get(c) {
                    Value::Null => {
                        nulls = true;
                        continue;
                    }
                    Value::Int(_) => Kind::Int,
                    Value::Double(_) => Kind::Double,
                    Value::Str(_) => Kind::Str,
                };
                if kind == Kind::Unknown {
                    kind = k;
                } else if kind != k {
                    kind = Kind::Mixed;
                    break;
                }
            }
            if kind == Kind::Unknown {
                // Empty or all-NULL: the declared type picks the layout.
                kind = match schema.field(c).data_type() {
                    DataType::Int => Kind::Int,
                    DataType::Double => Kind::Double,
                    DataType::Str => Kind::Str,
                };
            }
            // Pass 2: build.
            cols.push(build_column(kind, nulls, rows, c));
        }
        Columns {
            len: rows.len(),
            cols,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column `c`.
    #[inline]
    pub fn col(&self, c: usize) -> &Column {
        &self.cols[c]
    }

    /// The value at (`c`, `row`).
    #[inline]
    pub fn value(&self, c: usize, row: usize) -> Value {
        self.cols[c].value(row)
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.cols.iter().map(|c| c.value(i)).collect::<Vec<_>>())
    }

    /// Materialize all rows (the inverse of [`Columns::from_rows`]).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// The distinct combinations of the columns at `idx`, as rows in
    /// first-occurrence order, each holding its first occurrence's values
    /// — a duplicate-eliminating projection in one pass over the typed
    /// columns. Rows are deduplicated on canonical keys (so `Int(2)` and
    /// `Double(2.0)`, or `-0.0` and `0.0`, count as one, as under
    /// [`Value`] equality), and only the surviving rows are materialized.
    pub(crate) fn distinct_rows(&self, idx: &[usize]) -> Vec<Row> {
        assert!(self.len < u32::MAX as usize, "relation too large to index");
        let cols: Vec<&Column> = idx.iter().map(|&c| &self.cols[c]).collect();
        let mut index = KeyIndex::new();
        let mut firsts: Vec<u32> = Vec::new();
        for i in 0..self.len {
            let mut h = KeyHasher::new();
            for c in &cols {
                c.hash_into(i, &mut h);
            }
            let h = h.finish();
            let seen = index.find(h, |p| {
                let first = firsts[p] as usize;
                cols.iter().all(|c| c.same_at(first, i))
            });
            if seen.is_none() {
                index.insert(h);
                firsts.push(i as u32);
            }
        }
        firsts
            .iter()
            .map(|&i| Row::new(cols.iter().map(|c| c.value(i as usize)).collect()))
            .collect()
    }
}

fn build_column(kind: Kind, nulls: bool, rows: &[Row], c: usize) -> Column {
    let n = rows.len();
    let mut valid = nulls.then(|| Bitmap::new(n));
    match kind {
        Kind::Unknown => unreachable!("classified above"),
        Kind::Mixed => Column::Mixed(rows.iter().map(|r| r.get(c).clone()).collect()),
        Kind::Int => {
            let mut data = vec![0i64; n];
            for (i, r) in rows.iter().enumerate() {
                if let Value::Int(v) = r.get(c) {
                    data[i] = *v;
                    if let Some(b) = &mut valid {
                        b.set(i);
                    }
                }
            }
            Column::Int { data, valid }
        }
        Kind::Double => {
            let mut data = vec![0f64; n];
            for (i, r) in rows.iter().enumerate() {
                if let Value::Double(v) = r.get(c) {
                    data[i] = *v;
                    if let Some(b) = &mut valid {
                        b.set(i);
                    }
                }
            }
            Column::Double { data, valid }
        }
        Kind::Str => {
            let mut codes = vec![0u32; n];
            let mut dict: Vec<Arc<str>> = Vec::new();
            let mut intern: HashMap<Arc<str>, u32> = HashMap::new();
            for (i, r) in rows.iter().enumerate() {
                if let Value::Str(s) = r.get(c) {
                    let code = *intern.entry(Arc::clone(s)).or_insert_with(|| {
                        dict.push(Arc::clone(s));
                        (dict.len() - 1) as u32
                    });
                    codes[i] = code;
                    if let Some(b) = &mut valid {
                        b.set(i);
                    }
                }
            }
            Column::Str { codes, dict, valid }
        }
    }
}

/// Canonical key of an integer value: the `(tag, word)` pair such that two
/// values compare [`Value`]-equal iff their canonical keys are equal
/// (strings are interned to codes by the caller; `NULL` is [`CANON_NULL`]).
/// Mirrors [`Value`]'s `Hash` normalization: integral doubles share the
/// integer tag, so `Int(2)` and `Double(2.0)` canonicalize identically.
#[inline]
pub fn canon_i64(i: i64) -> (u8, u64) {
    (1, i as u64)
}

/// Canonical key of a double value — see [`canon_i64`]. `NaN` collapses to
/// one bit pattern and `-0.0` to `+0.0` (integral, hence `Int(0)`).
#[inline]
pub fn canon_f64(d: f64) -> (u8, u64) {
    if d.fract() == 0.0 && d >= i64::MIN as f64 && d <= i64::MAX as f64 {
        (1, d as i64 as u64)
    } else if d.is_nan() {
        (2, f64::NAN.to_bits())
    } else {
        (2, d.to_bits())
    }
}

/// Canonical key of `NULL`. `NULL = NULL` holds under the total value
/// order, so equi-key probes must treat two `NULL` keys as a match.
pub const CANON_NULL: (u8, u64) = (0, 0);

/// The tag canonical string keys use; the word is a dictionary code.
pub const CANON_STR_TAG: u8 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Schema;

    fn schema3() -> Schema {
        Schema::of(&[
            ("i", DataType::Int),
            ("d", DataType::Double),
            ("s", DataType::Str),
        ])
    }

    #[test]
    fn typed_columns_round_trip() {
        let rows = vec![
            row![1i64, 1.5, "a"],
            row![2i64, -0.0, "b"],
            row![3i64, f64::NAN, "a"],
        ];
        let cols = Columns::from_rows(&schema3(), &rows);
        assert!(matches!(cols.col(0), Column::Int { valid: None, .. }));
        assert!(matches!(cols.col(1), Column::Double { valid: None, .. }));
        let (codes, dict, _) = cols.col(2).as_str_dict().unwrap();
        assert_eq!(dict.len(), 2, "dictionary holds distinct strings once");
        assert_eq!(codes, &[0, 1, 0]);
        let back = cols.to_rows();
        assert_eq!(back.len(), 3);
        // Bit-exact doubles: -0.0 and NaN survive.
        match back[1].get(1) {
            Value::Double(d) => assert_eq!(d.to_bits(), (-0.0f64).to_bits()),
            other => panic!("unexpected {other:?}"),
        }
        match back[2].get(1) {
            Value::Double(d) => assert!(d.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
        // Interning: equal strings share one Arc.
        match (back[0].get(2), back[2].get(2)) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected strings"),
        }
    }

    #[test]
    fn nulls_get_validity_bitmaps() {
        let rows = vec![
            row![1i64, Value::Null, "a"],
            row![Value::Null, 2.0, Value::Null],
        ];
        let cols = Columns::from_rows(&schema3(), &rows);
        for c in 0..3 {
            assert!(cols.col(c).is_valid(0) != (c == 1));
        }
        assert_eq!(cols.value(0, 1), Value::Null);
        assert_eq!(cols.value(1, 0), Value::Null);
        assert_eq!(cols.to_rows(), rows);
    }

    #[test]
    fn mixed_column_falls_back() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rows = vec![row![1i64], row!["s"], row![Value::Null]];
        let cols = Columns::from_rows(&schema, &rows);
        assert!(matches!(cols.col(0), Column::Mixed(_)));
        assert_eq!(cols.to_rows(), rows);
    }

    #[test]
    fn empty_and_all_null_use_schema_type() {
        let schema = schema3();
        let cols = Columns::from_rows(&schema, &[]);
        assert!(matches!(cols.col(0), Column::Int { .. }));
        assert!(matches!(cols.col(1), Column::Double { .. }));
        assert!(matches!(cols.col(2), Column::Str { .. }));
        let rows = vec![row![Value::Null, Value::Null, Value::Null]];
        let cols = Columns::from_rows(&schema, &rows);
        assert!(matches!(cols.col(2), Column::Str { .. }));
        assert_eq!(cols.to_rows(), rows);
    }

    #[test]
    fn bitmap_ops() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(129));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129) && !b.get(1));
        assert_eq!(b.count_ones(), 3);
        assert!(!b.all_set());
    }

    #[test]
    fn canonical_keys_mirror_value_equality() {
        // Int(2) == Double(2.0).
        assert_eq!(canon_i64(2), canon_f64(2.0));
        // -0.0 == 0.0 == Int(0).
        assert_eq!(canon_f64(-0.0), canon_i64(0));
        // NaN == NaN regardless of payload.
        assert_eq!(canon_f64(f64::NAN), canon_f64(-f64::NAN));
        // Non-integral doubles differ from every integer.
        assert_ne!(canon_f64(2.5).0, canon_i64(2).0);
        // Distinct values get distinct keys.
        assert_ne!(canon_i64(1), canon_i64(2));
        assert_ne!(canon_f64(1.25), canon_f64(1.5));
    }
}
