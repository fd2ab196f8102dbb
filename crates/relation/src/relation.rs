//! In-memory relations (multisets of rows) and basic relational operators.

use crate::columns::Columns;
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::index::{hash_row_key, hash_values, KeyIndex};
use crate::row::Row;
use crate::schema::{Schema, SchemaRef};
use crate::value::Value;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A multiset of rows sharing one schema.
///
/// This is the storage unit of each warehouse site's local detail relation
/// and of every structure shipped between sites and the coordinator. Rows
/// remain the interchange representation (the codec and CSV loader read
/// them unchanged); the columnar physical layout used by the vectorized
/// kernel is built lazily by [`Relation::columns`] and cached — clones
/// share the cache, mutation invalidates it.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: SchemaRef,
    rows: Vec<Row>,
    columns: OnceLock<Arc<Columns>>,
}

/// Equality is over schema and rows only — whether the columnar cache has
/// been built is invisible.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema: Arc::new(schema),
            rows: Vec::new(),
            columns: OnceLock::new(),
        }
    }

    /// A relation from a schema and rows.
    ///
    /// Validates that every row has the schema's arity. (Type conformance is
    /// checked lazily by expressions; generators produce well-typed rows.)
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Relation> {
        let schema = Arc::new(schema);
        for r in &rows {
            if r.len() != schema.len() {
                return Err(Error::SchemaMismatch(format!(
                    "row arity {} vs schema arity {}",
                    r.len(),
                    schema.len()
                )));
            }
        }
        Ok(Relation {
            schema,
            rows,
            columns: OnceLock::new(),
        })
    }

    /// A relation reusing an existing shared schema (no arity re-check; used
    /// on hot paths where rows are constructed against that schema).
    pub fn from_shared(schema: SchemaRef, rows: Vec<Row>) -> Relation {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        Relation {
            schema,
            rows,
            columns: OnceLock::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared schema handle.
    pub fn schema_ref(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Mutable access to the rows (coordinator-side in-place merges).
    /// Invalidates the cached columnar layout.
    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        self.columns.take();
        &mut self.rows
    }

    /// Append a row. Invalidates the cached columnar layout.
    ///
    /// # Panics
    /// Debug-asserts the arity matches.
    pub fn push(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.schema.len());
        self.columns.take();
        self.rows.push(row);
    }

    /// The columnar physical layout of this relation (typed vectors,
    /// dictionary-encoded strings, validity bitmaps). Built on first use
    /// and cached; clones of this relation share the cache.
    pub fn columns(&self) -> &Columns {
        self.columns
            .get_or_init(|| Arc::new(Columns::from_rows(&self.schema, &self.rows)))
    }

    /// Iterate over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Projection onto named columns (π). Multiset semantics: keeps
    /// duplicates.
    pub fn project(&self, columns: &[&str]) -> Result<Relation> {
        let idx = self.schema.indexes_of(columns)?;
        let schema = self.schema.project(&idx)?;
        let rows = self.rows.iter().map(|r| r.project(&idx)).collect();
        Relation::new(schema, rows)
    }

    /// Duplicate-eliminating projection (π with DISTINCT) preserving first
    /// occurrence order, each surviving row holding its first occurrence's
    /// values — used to build base-values relations B₀ from a site's
    /// partition. One pass with a [`KeyIndex`]; only surviving rows are
    /// materialized. Runs over the cached [`Columns`] on canonical keys
    /// when they are built, over the rows otherwise — never building
    /// columns a row-kernel or skew-donor site would not use.
    pub fn project_distinct(&self, columns: &[&str]) -> Result<Relation> {
        let idx = self.schema.indexes_of(columns)?;
        let schema = self.schema.project(&idx)?;
        let rows = match self.columns.get() {
            Some(cols) => cols.distinct_rows(&idx),
            None => {
                let mut index = KeyIndex::new();
                let mut firsts: Vec<&Row> = Vec::new();
                for r in &self.rows {
                    let h = hash_row_key(r, &idx);
                    let seen = index.find(h, |p| idx.iter().all(|&c| firsts[p].get(c) == r.get(c)));
                    if seen.is_none() {
                        index.insert(h);
                        firsts.push(r);
                    }
                }
                firsts.into_iter().map(|r| r.project(&idx)).collect()
            }
        };
        Relation::new(schema, rows)
    }

    /// Selection (σ) by a bound predicate.
    pub fn select(&self, pred: &BoundExpr) -> Result<Relation> {
        let mut rows = Vec::new();
        for r in &self.rows {
            if pred.eval_row(r)?.is_truthy() {
                rows.push(r.clone());
            }
        }
        Ok(Relation::from_shared(self.schema_ref(), rows))
    }

    /// Selection by an arbitrary row predicate closure.
    pub fn filter(&self, mut keep: impl FnMut(&Row) -> bool) -> Relation {
        Relation::from_shared(
            self.schema_ref(),
            self.rows.iter().filter(|r| keep(r)).cloned().collect(),
        )
    }

    /// Multiset union (⊔). Schemas must be identical.
    pub fn union_all(&self, other: &Relation) -> Result<Relation> {
        if self.schema() != other.schema() {
            return Err(Error::SchemaMismatch(format!(
                "union of {} and {}",
                self.schema(),
                other.schema()
            )));
        }
        let mut rows = Vec::with_capacity(self.len() + other.len());
        rows.extend_from_slice(&self.rows);
        rows.extend_from_slice(&other.rows);
        Ok(Relation::from_shared(self.schema_ref(), rows))
    }

    /// Multiset union (⊔) in place: append `other`'s rows without
    /// copying the rows already held. Schemas must be identical.
    pub fn append(&mut self, other: Relation) -> Result<()> {
        if self.schema() != other.schema() {
            return Err(Error::SchemaMismatch(format!(
                "union of {} and {}",
                self.schema(),
                other.schema()
            )));
        }
        self.rows_mut().extend(other.rows);
        Ok(())
    }

    /// Distinct rows, preserving first-occurrence order.
    pub fn distinct(&self) -> Relation {
        let mut index = KeyIndex::with_capacity(self.rows.len());
        let mut kept: Vec<&Row> = Vec::new();
        for r in &self.rows {
            let h = hash_values(r.values());
            if index.find(h, |p| kept[p] == r).is_none() {
                index.insert(h);
                kept.push(r);
            }
        }
        Relation::from_shared(self.schema_ref(), kept.into_iter().cloned().collect())
    }

    /// Rows sorted by the named columns (ascending, total value order).
    pub fn sorted_by(&self, columns: &[&str]) -> Result<Relation> {
        let idx = self.schema.indexes_of(columns)?;
        let mut out = Relation::from_shared(self.schema_ref(), self.rows.clone());
        out.sort_by_indexes(&idx);
        Ok(out)
    }

    /// Stable in-place sort by the columns at `idx` (ascending, total
    /// value order). Invalidates the cached columnar layout.
    pub fn sort_by_indexes(&mut self, idx: &[usize]) {
        self.rows_mut().sort_by(|a, b| {
            for &i in idx {
                let ord = a.get(i).cmp(b.get(i));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    /// A canonical form for multiset comparison in tests: all rows sorted.
    pub fn canonicalized(&self) -> Relation {
        let mut rows = self.rows.clone();
        rows.sort();
        Relation::from_shared(self.schema_ref(), rows)
    }

    /// Multiset equality irrespective of row order and of schema sharing.
    pub fn same_bag(&self, other: &Relation) -> bool {
        self.schema() == other.schema()
            && self.canonicalized().rows == other.canonicalized().rows
    }

    /// The distinct values of one column.
    pub fn column_values(&self, column: &str) -> Result<Vec<Value>> {
        let i = self.schema.index_of(column)?;
        let mut set: HashSet<Value> = HashSet::new();
        let mut out = Vec::new();
        for r in &self.rows {
            let v = r.get(i).clone();
            if set.insert(v.clone()) {
                out.push(v);
            }
        }
        Ok(out)
    }

    /// Estimated bytes this relation holds in memory: the row vector, each
    /// row's boxed value slice plus an allocator header, and string
    /// payloads (a shared string is counted at every use, so the estimate
    /// errs high). A cached columnar layout is not included. Several times
    /// [`Relation::encoded_size`] for numeric rows: a [`Value`] takes 24
    /// bytes in memory against 9 on the wire.
    pub fn resident_bytes(&self) -> usize {
        /// Per-allocation bookkeeping of a typical allocator.
        const ALLOC_HEADER: usize = 16;
        let values: usize = self
            .rows
            .iter()
            .map(|r| {
                let strings: usize = r
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => 2 * std::mem::size_of::<usize>() + s.len() + ALLOC_HEADER,
                        _ => 0,
                    })
                    .sum();
                r.len() * std::mem::size_of::<Value>() + ALLOC_HEADER + strings
            })
            .sum();
        std::mem::size_of::<Relation>()
            + self.schema.encoded_size()
            + self.rows.capacity() * std::mem::size_of::<Row>()
            + values
    }

    /// Approximate serialized size in bytes (schema + rows).
    pub fn encoded_size(&self) -> usize {
        self.schema.encoded_size() + 4 + self.rows.iter().map(Row::encoded_size).sum::<usize>()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for r in &self.rows {
            writeln!(f, "{r}")?;
        }
        write!(f, "({} rows)", self.rows.len())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::value::DataType;

    fn sample() -> Relation {
        Relation::new(
            Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]),
            vec![row![1i64, "x"], row![2i64, "y"], row![1i64, "x"]],
        )
        .unwrap()
    }

    #[test]
    fn arity_checked() {
        let err = Relation::new(Schema::of(&[("a", DataType::Int)]), vec![row![1i64, 2i64]]);
        assert!(err.is_err());
    }

    #[test]
    fn project_keeps_duplicates_distinct_removes_them() {
        let r = sample();
        assert_eq!(r.project(&["b"]).unwrap().len(), 3);
        let d = r.project_distinct(&["b"]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.rows()[0], row!["x"]);
    }

    #[test]
    fn union_requires_same_schema() {
        let r = sample();
        let other = Relation::empty(Schema::of(&[("z", DataType::Int)]));
        assert!(r.union_all(&other).is_err());
        let u = r.union_all(&r).unwrap();
        assert_eq!(u.len(), 6);
        let mut a = r.clone();
        assert!(a.append(other).is_err());
        a.append(r.clone()).unwrap();
        assert_eq!(a, u);
    }

    #[test]
    fn distinct_and_same_bag() {
        let r = sample();
        assert_eq!(r.distinct().len(), 2);
        let shuffled = Relation::new(
            Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]),
            vec![row![2i64, "y"], row![1i64, "x"], row![1i64, "x"]],
        )
        .unwrap();
        assert!(r.same_bag(&shuffled));
        assert!(!r.same_bag(&r.distinct()));
    }

    #[test]
    fn sorted_by_columns() {
        let r = sample();
        let s = r.sorted_by(&["b", "a"]).unwrap();
        assert_eq!(s.rows()[0], row![1i64, "x"]);
        assert_eq!(s.rows()[2], row![2i64, "y"]);
    }

    #[test]
    fn column_values_distinct_in_order() {
        let r = sample();
        assert_eq!(
            r.column_values("a").unwrap(),
            vec![Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn filter_closure() {
        let r = sample();
        let f = r.filter(|row| row.get(0) == &Value::Int(1));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn resident_bytes_exceed_encoded_size() {
        let r = sample();
        let rows = r.len() * (std::mem::size_of::<Row>() + 2 * std::mem::size_of::<Value>());
        assert!(r.resident_bytes() > rows);
        assert!(r.resident_bytes() > r.encoded_size());
        let mut bigger = r.clone();
        bigger.push(row![3i64, "a longer string value"]);
        assert!(bigger.resident_bytes() > r.resident_bytes() + 21);
    }

    #[test]
    fn project_distinct_keeps_first_occurrence_values() {
        let r = Relation::new(
            Schema::of(&[("k", DataType::Double), ("s", DataType::Str)]),
            vec![
                row![-0.0, "a"],
                row![0.0, "a"],
                row![f64::NAN, Value::Null],
                row![-f64::NAN, Value::Null],
                row![1.5, "b"],
                row![Value::Null, "a"],
                row![1.5, "b"],
            ],
        )
        .unwrap();
        let d = r.project_distinct(&["k", "s"]).unwrap();
        // The columnar path (columns built) gives the same rows, bitwise.
        r.columns();
        let dc = r.project_distinct(&["k", "s"]).unwrap();
        assert_eq!(format!("{d:?}"), format!("{dc:?}"));
        assert_eq!(d.len(), 4);
        match d.rows()[0].get(0) {
            Value::Double(x) => assert_eq!(x.to_bits(), (-0.0f64).to_bits()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(d.rows()[3], row![Value::Null, "a"]);
        // A mixed-type column: Int(2) and Double(2.0) are one group.
        let m = Relation::new(
            Schema::of(&[("k", DataType::Int)]),
            vec![
                row![2i64],
                row!["x"],
                row![2.0],
                row![Value::Null],
                row!["x"],
            ],
        )
        .unwrap();
        assert_eq!(
            m.project_distinct(&["k"]).unwrap().rows(),
            &[row![2i64], row!["x"], row![Value::Null]]
        );
        m.columns();
        assert_eq!(
            m.project_distinct(&["k"]).unwrap().rows(),
            &[row![2i64], row!["x"], row![Value::Null]]
        );
    }

    #[test]
    fn columns_view_round_trips_and_invalidates() {
        let mut r = sample();
        let cols = r.columns();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.to_rows(), r.rows());
        // Mutation invalidates the cached layout.
        r.push(row![9i64, "z"]);
        assert_eq!(r.columns().len(), 4);
        assert_eq!(r.columns().value(1, 3), Value::str("z"));
        r.rows_mut().pop();
        assert_eq!(r.columns().len(), 3);
        // The cache is invisible to equality.
        let fresh = sample();
        assert_eq!(r, fresh);
    }
}
