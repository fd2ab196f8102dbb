//! Coordinator-side synchronization.
//!
//! The coordinator maintains the base-result structure X, indexed on the
//! key attributes K, and consolidates each site's sub-results into it as
//! they arrive — O(|H|) per incoming relation (paper Sect. 3.2). Three
//! synchronizers cover the three stage shapes:
//!
//! * [`BaseSync`] — union + duplicate elimination of base fragments;
//! * [`MergeSync`] — super-aggregate merging of physical accumulators
//!   (Theorem 1), with insert-on-first-sight for folded units (Prop 2);
//! * [`ChainSync`] — disjoint assembly of locally-finalized results from
//!   synchronization-reduced units (Thm 5 / Cor 1), which *verifies* the
//!   partition assumption by rejecting duplicate keys.

use skalla_gmdj::agg::AccLayout;
use skalla_gmdj::operator::Gmdj;
use skalla_relation::{
    hash_row_key, hash_values, Error, KeyIndex, Relation, Result, Row, Schema, SchemaRef, Value,
};

/// Whether `row`'s values at `idx` equal `key`.
fn key_matches(row: &Row, idx: &[usize], key: &[Value]) -> bool {
    idx.iter().zip(key).all(|(&c, v)| row.get(c) == v)
}

/// Index `rows` on the key columns `idx`, rejecting a duplicate key.
fn index_unique(rows: &[Row], idx: &[usize]) -> Result<KeyIndex> {
    let mut index = KeyIndex::with_capacity(rows.len());
    for row in rows {
        let h = hash_row_key(row, idx);
        let dup = index.find(h, |p| idx.iter().all(|&c| rows[p].get(c) == row.get(c)));
        if dup.is_some() {
            return Err(Error::Execution(format!(
                "base-values relation has duplicate key {:?}",
                row.key(idx)
            )));
        }
        index.insert(h);
    }
    Ok(index)
}

/// Check that `key` column values are unique in `rel`; returns the key
/// column indexes.
pub fn verify_unique_key(rel: &Relation, key: &[String]) -> Result<Vec<usize>> {
    let idx = rel
        .schema()
        .indexes_of(&key.iter().map(String::as_str).collect::<Vec<_>>())?;
    index_unique(rel.rows(), &idx)?;
    Ok(idx)
}

/// Synchronizer for the base round: collects each site's distinct groups,
/// deduplicating every fragment as it arrives — the rows already absorbed
/// are never copied again.
#[derive(Debug)]
pub struct BaseSync {
    schema: Option<SchemaRef>,
    /// Distinct rows in first-arrival order, indexed on all columns.
    rows: Vec<Row>,
    index: KeyIndex,
}

impl BaseSync {
    /// Start with nothing collected.
    pub fn new() -> BaseSync {
        BaseSync {
            schema: None,
            rows: Vec::new(),
            index: KeyIndex::new(),
        }
    }

    /// Absorb one site's base fragment. Its schema must be the first
    /// fragment's.
    pub fn absorb(&mut self, fragment: Relation) -> Result<()> {
        match &self.schema {
            None => self.schema = Some(fragment.schema_ref()),
            Some(s) if **s != *fragment.schema() => {
                return Err(Error::SchemaMismatch(format!(
                    "union of {} and {}",
                    s,
                    fragment.schema()
                )));
            }
            Some(_) => {}
        }
        for row in fragment.into_rows() {
            let h = hash_values(row.values());
            if self.index.find(h, |p| self.rows[p] == row).is_none() {
                self.index.insert(h);
                self.rows.push(row);
            }
        }
        Ok(())
    }

    /// Verify the key is unique over the distinct rows and sort them by
    /// key into B₀.
    ///
    /// Fragments arrive in whatever order site threads reply, so without
    /// the sort the row order of B₀ — and of every later round, and of
    /// the final result — would vary run to run. Sorting by the (unique)
    /// key makes distributed results reproducible and lets ablation runs
    /// (kernels, transports, skew balancing) be compared bit for bit.
    pub fn finish(self, key: &[String]) -> Result<Relation> {
        let schema = self
            .schema
            .ok_or_else(|| Error::Execution("no base fragments received".into()))?;
        let mut b = Relation::from_shared(schema, self.rows);
        let idx = verify_unique_key(&b, key)?;
        b.sort_by_indexes(&idx);
        Ok(b)
    }
}

impl Default for BaseSync {
    fn default() -> Self {
        BaseSync::new()
    }
}

/// Synchronizer for a single-operator unit: merges physical sub-aggregates
/// into X per Theorem 1.
#[derive(Debug)]
pub struct MergeSync {
    /// Full current-B rows (or key rows when folded) with accumulator
    /// columns appended.
    rows: Vec<Row>,
    /// `rows` indexed on `key_idx`.
    index: KeyIndex,
    key_idx: Vec<usize>,
    base_arity: usize,
    layout: AccLayout,
    fold: bool,
}

impl MergeSync {
    /// Build X from the current base structure (`None` for folded units,
    /// where X grows from the incoming sub-results).
    pub fn new(b_cur: Option<&Relation>, key: &[String], op: &Gmdj) -> Result<MergeSync> {
        let layout = op.layout();
        match b_cur {
            Some(b) => {
                let key_idx = b
                    .schema()
                    .indexes_of(&key.iter().map(String::as_str).collect::<Vec<_>>())?;
                let index = index_unique(b.rows(), &key_idx)?;
                let init = layout.init();
                let rows = b.iter().map(|row| row.extend(&init)).collect();
                Ok(MergeSync {
                    rows,
                    index,
                    key_idx,
                    base_arity: b.schema().len(),
                    layout,
                    fold: false,
                })
            }
            None => Ok(MergeSync {
                rows: Vec::new(),
                index: KeyIndex::new(),
                key_idx: (0..key.len()).collect(),
                base_arity: key.len(),
                layout,
                fold: true,
            }),
        }
    }

    /// Absorb one site's sub-result. `h` has the key columns first, then
    /// the physical accumulator columns. Accumulators merge in place.
    pub fn absorb(&mut self, h: &Relation) -> Result<()> {
        let key_len = self.key_idx.len();
        let width = self.layout.width();
        if h.schema().len() != key_len + width {
            return Err(Error::Execution(format!(
                "sub-result arity {} != key {} + accumulators {}",
                h.schema().len(),
                key_len,
                width
            )));
        }
        for row in h {
            let (key, accs) = row.values().split_at(key_len);
            let hash = hash_values(key);
            let key_idx = &self.key_idx;
            let rows = &self.rows;
            match self
                .index
                .find(hash, |p| key_matches(&rows[p], key_idx, key))
            {
                Some(pos) => {
                    let dst = &mut self.rows[pos].values_mut()[self.base_arity..];
                    self.layout.merge(dst, accs)?;
                }
                None if self.fold => {
                    // Prop 2: first sighting of this group — its base part
                    // is exactly its key.
                    self.index.insert(hash);
                    self.rows.push(row.clone());
                }
                None => {
                    return Err(Error::Execution(format!(
                        "site reported unknown group {:?}",
                        key.to_vec()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Finalize X into B_next with the logical output schema.
    pub fn finish(self, b_in_schema: &Schema, op: &Gmdj, detail: &Schema) -> Result<Relation> {
        let out_schema = op.output_schema(b_in_schema, detail)?;
        let mut rows = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let (base_part, acc_part) = row.values().split_at(self.base_arity);
            let logical = self.layout.finalize(acc_part)?;
            let mut vs = Vec::with_capacity(base_part.len() + logical.len());
            vs.extend_from_slice(base_part);
            vs.extend(logical);
            rows.push(Row::new(vs));
        }
        let mut out = Relation::new(out_schema, rows)?;
        if self.fold {
            // Insertion order is site-arrival order; sort for determinism.
            out.sort_by_indexes(&self.key_idx);
        }
        Ok(out)
    }
}

/// Synchronizer for a locally-chained unit: assembles disjoint finalized
/// results.
#[derive(Debug)]
pub struct ChainSync {
    /// Key columns + logical aggregate values, in arrival order.
    rows: Vec<Row>,
    /// `rows` indexed on their leading key columns.
    index: KeyIndex,
    key_len: usize,
}

impl ChainSync {
    /// A synchronizer expecting `key_len` leading key columns.
    pub fn new(key_len: usize) -> ChainSync {
        ChainSync {
            rows: Vec::new(),
            index: KeyIndex::new(),
            key_len,
        }
    }

    /// Absorb one site's finalized result (key columns + logical
    /// aggregates). Duplicate keys mean the partition-attribute assumption
    /// was violated — an execution error, not silent wrong answers.
    pub fn absorb(&mut self, h: &Relation) -> Result<()> {
        let key_len = self.key_len;
        for row in h {
            let key = &row.values()[..key_len];
            let hash = hash_values(key);
            let rows = &self.rows;
            if self
                .index
                .find(hash, |p| &rows[p].values()[..key_len] == key)
                .is_some()
            {
                return Err(Error::Execution(format!(
                    "two sites reported group {:?}: partition attribute assumption violated",
                    key.to_vec()
                )));
            }
            self.index.insert(hash);
            self.rows.push(row.clone());
        }
        Ok(())
    }

    /// Assemble B_next against the coordinator's current B (non-folded):
    /// every group of `b_cur` gets its site-computed aggregates, or
    /// `empty_aggs` when no site owned it.
    pub fn finish_against(
        self,
        b_cur: &Relation,
        key: &[String],
        empty_aggs: &[Value],
        out_schema: Schema,
    ) -> Result<Relation> {
        let key_idx = verify_unique_key(b_cur, key)?;
        let key_len = self.key_len;
        let mut out = Vec::with_capacity(b_cur.len());
        let mut placed = 0usize;
        for row in b_cur {
            let hash = hash_row_key(row, &key_idx);
            let found = self.index.find(hash, |p| {
                key_matches(row, &key_idx, &self.rows[p].values()[..key_len])
            });
            out.push(match found {
                Some(p) => {
                    placed += 1;
                    row.extend(&self.rows[p].values()[key_len..])
                }
                None => row.extend(empty_aggs),
            });
        }
        // B's keys are unique, so each reported group was placed at most
        // once.
        if placed < self.rows.len() {
            return Err(Error::Execution(format!(
                "sites reported {} group(s) not in the base structure",
                self.rows.len() - placed
            )));
        }
        Relation::new(out_schema, out)
    }

    /// Assemble B_next for a folded unit: the collected rows *are* the
    /// result (sorted by key for determinism).
    pub fn finish_folded(mut self, out_schema: Schema) -> Result<Relation> {
        let key_len = self.key_len;
        self.rows
            .sort_by(|a, b| a.values()[..key_len].cmp(&b.values()[..key_len]));
        Relation::new(out_schema, self.rows)
    }
}

/// A *partial* merger of physical sub-aggregates that does **not**
/// finalize: regional coordinators in the multi-tier topology use it to
/// combine their sites' sub-results into one still-mergeable relation
/// before forwarding to the root (Theorem 1 applied recursively — merge is
/// associative, so any intermediate grouping of the partition is valid).
#[derive(Debug)]
pub struct PartialMerge {
    /// Key columns + physical accumulators, in first-arrival key order.
    rows: Vec<Row>,
    /// `rows` indexed on their leading key columns.
    index: KeyIndex,
    key_len: usize,
    layout: AccLayout,
}

impl PartialMerge {
    /// A partial merger for sub-results of `op` keyed on `key_len` leading
    /// columns.
    pub fn new(key_len: usize, op: &Gmdj) -> PartialMerge {
        PartialMerge {
            rows: Vec::new(),
            index: KeyIndex::new(),
            key_len,
            layout: op.layout(),
        }
    }

    fn check_arity(&self, h: &Relation) -> Result<()> {
        let width = self.layout.width();
        if h.schema().len() != self.key_len + width {
            return Err(Error::Execution(format!(
                "partial merge arity {} != key {} + accumulators {width}",
                h.schema().len(),
                self.key_len
            )));
        }
        Ok(())
    }

    /// The hash of `key` and the position of its row, if present.
    fn find(&self, key: &[Value]) -> (u64, Option<usize>) {
        let hash = hash_values(key);
        let key_len = self.key_len;
        let rows = &self.rows;
        (
            hash,
            self.index
                .find(hash, |p| &rows[p].values()[..key_len] == key),
        )
    }

    /// Merge `accs` into the accumulators of the row at `pos`, in place.
    fn merge_into(&mut self, pos: usize, accs: &[Value]) -> Result<()> {
        self.layout
            .merge(&mut self.rows[pos].values_mut()[self.key_len..], accs)
    }

    /// Merge one sub-result (key columns + physical accumulators) held
    /// elsewhere; [`PartialMerge::absorb_owned`] on a copy of it.
    pub fn absorb(&mut self, h: &Relation) -> Result<()> {
        self.absorb_owned(h.clone())
    }

    /// Merge one sub-result, taking it by value: the row of a key not
    /// seen before moves in, and the accumulators of a key already held
    /// merge in place.
    pub fn absorb_owned(&mut self, h: Relation) -> Result<()> {
        self.check_arity(&h)?;
        for row in h.into_rows() {
            match self.find(&row.values()[..self.key_len]) {
                (_, Some(pos)) => self.merge_into(pos, &row.values()[self.key_len..])?,
                (hash, None) => {
                    self.index.insert(hash);
                    self.rows.push(row);
                }
            }
        }
        Ok(())
    }

    /// The merged (still physical) relation, in first-arrival key order.
    pub fn into_relation(self, schema: SchemaRef) -> Relation {
        Relation::from_shared(schema, self.rows)
    }
}
/// Two adjacent sub-result chunks of one tree level (the right one absent
/// for a lone leftover).
type Pair = (Relation, Option<Relation>);

/// Merge one pair of sub-result chunks (left first), or pass a lone
/// leftover through.
fn merge_pair((left, right): Pair, key_len: usize, op: &Gmdj) -> Result<Relation> {
    let Some(right) = right else {
        return Ok(left);
    };
    let schema = left.schema_ref();
    let mut pm = PartialMerge::new(key_len, op);
    pm.absorb_owned(left)?;
    pm.absorb_owned(right)?;
    Ok(pm.into_relation(schema))
}

/// Merge sub-result chunks as a binary tree of [`PartialMerge`]s instead of
/// a left fold, pairing adjacent chunks level by level until one remains.
///
/// Levels with several pairs run them on scoped worker threads (up to
/// `parallelism`). The tree *shape* depends only on `chunks.len()`, and
/// within every [`PartialMerge`] accumulators merge in fixed (left, right)
/// order — so the result is deterministic regardless of thread count, and
/// equal to the left fold by merge associativity (Theorem 1, proven by
/// `partial_merge_is_associative_with_merge_sync`). Chunks are consumed:
/// each pair's rows move into its merge, and only accumulators of keys
/// present on both sides are touched.
///
/// Returns `None` when `chunks` is empty.
pub fn parallel_merge_tree(
    mut chunks: Vec<Relation>,
    key_len: usize,
    op: &Gmdj,
    parallelism: usize,
) -> Result<Option<Relation>> {
    while chunks.len() > 1 {
        let mut pairs: Vec<Pair> = Vec::with_capacity(chunks.len() / 2 + 1);
        let mut it = chunks.into_iter();
        while let Some(left) = it.next() {
            pairs.push((left, it.next()));
        }
        let merged: Vec<Result<Relation>> = if parallelism > 1 && pairs.len() > 1 {
            // Deal the pairs round-robin to the workers; results return to
            // their pair's slot, so the level's output order is fixed.
            let workers = parallelism.min(pairs.len());
            let mut dealt: Vec<Vec<(usize, Pair)>> = (0..workers).map(|_| Vec::new()).collect();
            let n_pairs = pairs.len();
            for (i, pair) in pairs.into_iter().enumerate() {
                dealt[i % workers].push((i, pair));
            }
            let mut out: Vec<Option<Result<Relation>>> = (0..n_pairs).map(|_| None).collect();
            std::thread::scope(|s| {
                let handles: Vec<_> = dealt
                    .into_iter()
                    .map(|mine| {
                        s.spawn(move || {
                            mine.into_iter()
                                .map(|(i, pair)| (i, merge_pair(pair, key_len, op)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    for (i, r) in h.join().expect("merge workers do not panic") {
                        out[i] = Some(r);
                    }
                }
            });
            out.into_iter().map(|r| r.expect("every pair merged")).collect()
        } else {
            pairs
                .into_iter()
                .map(|pair| merge_pair(pair, key_len, op))
                .collect()
        };
        chunks = merged.into_iter().collect::<Result<Vec<_>>>()?;
    }
    Ok(chunks.pop())
}

/// The finalize-of-nothing aggregate values for a run of operators: what a
/// group's outputs are when no detail tuple anywhere matches it.
pub fn empty_aggregates(ops: &[Gmdj]) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    for op in ops {
        let layout = op.layout();
        out.extend(layout.finalize(&layout.init())?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skalla_gmdj::agg::AggSpec;
    use skalla_gmdj::theta::ThetaBuilder;
    use skalla_relation::{row, DataType};

    fn key() -> Vec<String> {
        vec!["g".to_string()]
    }

    fn op() -> Gmdj {
        Gmdj::new("t").block(
            ThetaBuilder::group_by(&["g"]).build(),
            vec![AggSpec::count("cnt"), AggSpec::avg("v", "avg")],
        )
    }

    fn b0() -> Relation {
        Relation::new(
            Schema::of(&[("g", DataType::Int)]),
            vec![row![1i64], row![2i64]],
        )
        .unwrap()
    }

    fn detail_schema() -> Schema {
        Schema::of(&[("g", DataType::Int), ("v", DataType::Int)])
    }

    #[test]
    fn base_sync_dedups_and_checks_key() {
        let mut s = BaseSync::new();
        s.absorb(b0()).unwrap();
        s.absorb(b0()).unwrap();
        let b = s.finish(&key()).unwrap();
        assert_eq!(b.len(), 2);

        // Duplicate keys (distinct rows, same key) are rejected.
        let dup = Relation::new(
            Schema::of(&[("g", DataType::Int), ("x", DataType::Int)]),
            vec![row![1i64, 1i64], row![1i64, 2i64]],
        )
        .unwrap();
        let mut s = BaseSync::new();
        s.absorb(dup).unwrap();
        assert!(s.finish(&key()).is_err());

        assert!(BaseSync::new().finish(&key()).is_err());
    }

    /// Sub-results from two sites merge per Theorem 1 (COUNT sums, AVG
    /// merges sums and counts).
    #[test]
    fn merge_sync_super_aggregates() {
        let mut sync = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
        // h schema: g, cnt, avg__sum, avg__cnt.
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        let h1 = Relation::new(
            h_schema.clone(),
            vec![row![1i64, 2i64, 30i64, 2i64], row![2i64, 1i64, 8i64, 1i64]],
        )
        .unwrap();
        let h2 = Relation::new(
            h_schema,
            vec![row![1i64, 1i64, 30i64, 1i64]],
        )
        .unwrap();
        sync.absorb(&h1).unwrap();
        sync.absorb(&h2).unwrap();
        let out = sync
            .finish(b0().schema(), &op(), &detail_schema())
            .unwrap();
        assert_eq!(out.rows()[0], row![1i64, 3i64, 20.0]);
        assert_eq!(out.rows()[1], row![2i64, 1i64, 8.0]);
    }

    #[test]
    fn merge_sync_rejects_unknown_groups_and_bad_arity() {
        let mut sync = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
        let h = Relation::new(
            Schema::of(&[
                ("g", DataType::Int),
                ("cnt", DataType::Int),
                ("avg__sum", DataType::Int),
                ("avg__cnt", DataType::Int),
            ]),
            vec![row![9i64, 1i64, 1i64, 1i64]],
        )
        .unwrap();
        assert!(sync.absorb(&h).is_err());
        let bad = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![1i64, 1i64]],
        )
        .unwrap();
        assert!(sync.absorb(&bad).is_err());
    }

    #[test]
    fn merge_sync_folded_inserts_new_groups() {
        let mut sync = MergeSync::new(None, &key(), &op()).unwrap();
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        sync.absorb(
            &Relation::new(h_schema.clone(), vec![row![2i64, 1i64, 8i64, 1i64]]).unwrap(),
        )
        .unwrap();
        sync.absorb(
            &Relation::new(
                h_schema,
                vec![row![1i64, 2i64, 30i64, 2i64], row![2i64, 2i64, 4i64, 2i64]],
            )
            .unwrap(),
        )
        .unwrap();
        let out = sync
            .finish(b0().schema(), &op(), &detail_schema())
            .unwrap();
        // Sorted by key despite arrival order.
        assert_eq!(out.rows()[0], row![1i64, 2i64, 15.0]);
        assert_eq!(out.rows()[1], row![2i64, 3i64, 4.0]);
    }

    #[test]
    fn chain_sync_rejects_duplicate_groups() {
        let mut sync = ChainSync::new(1);
        let h = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![1i64, 5i64]],
        )
        .unwrap();
        sync.absorb(&h).unwrap();
        assert!(sync.absorb(&h).is_err());
    }

    #[test]
    fn chain_sync_fills_unowned_groups() {
        let mut sync = ChainSync::new(1);
        let h = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![1i64, 5i64]],
        )
        .unwrap();
        sync.absorb(&h).unwrap();
        let out_schema = Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]);
        let out = sync
            .finish_against(&b0(), &key(), &[Value::Int(0)], out_schema)
            .unwrap();
        assert_eq!(out.rows()[0], row![1i64, 5i64]);
        assert_eq!(out.rows()[1], row![2i64, 0i64]);
    }

    #[test]
    fn chain_sync_folded_sorts_by_key() {
        let mut sync = ChainSync::new(1);
        let schema = Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]);
        sync.absorb(&Relation::new(schema.clone(), vec![row![5i64, 1i64]]).unwrap())
            .unwrap();
        sync.absorb(&Relation::new(schema.clone(), vec![row![2i64, 3i64]]).unwrap())
            .unwrap();
        let out = sync.finish_folded(schema).unwrap();
        assert_eq!(out.rows()[0], row![2i64, 3i64]);
        assert_eq!(out.rows()[1], row![5i64, 1i64]);
    }

    #[test]
    fn chain_sync_rejects_groups_outside_base() {
        let mut sync = ChainSync::new(1);
        let h = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![9i64, 5i64]],
        )
        .unwrap();
        sync.absorb(&h).unwrap();
        let out_schema = Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]);
        assert!(sync
            .finish_against(&b0(), &key(), &[Value::Int(0)], out_schema)
            .is_err());
    }

    #[test]
    fn partial_merge_is_associative_with_merge_sync() {
        // Merging h1+h2 regionally and then into X must equal absorbing
        // them directly.
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        let h1 = Relation::new(
            h_schema.clone(),
            vec![row![1i64, 2i64, 30i64, 2i64], row![2i64, 1i64, 8i64, 1i64]],
        )
        .unwrap();
        let h2 = Relation::new(h_schema.clone(), vec![row![1i64, 1i64, 30i64, 1i64]]).unwrap();

        // Direct path.
        let mut direct = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
        direct.absorb(&h1).unwrap();
        direct.absorb(&h2).unwrap();
        let direct_out = direct.finish(b0().schema(), &op(), &detail_schema()).unwrap();

        // Regional path.
        let mut region = PartialMerge::new(1, &op());
        region.absorb(&h1).unwrap();
        region.absorb(&h2).unwrap();
        let regional = region.into_relation(std::sync::Arc::new(h_schema));
        assert_eq!(regional.len(), 2, "groups merged regionally");
        let mut root = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
        root.absorb(&regional).unwrap();
        let tree_out = root.finish(b0().schema(), &op(), &detail_schema()).unwrap();

        assert_eq!(direct_out, tree_out);
    }

    #[test]
    fn parallel_merge_tree_equals_left_fold() {
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        // 7 chunks (odd count exercises the lone-leftover path).
        let chunks: Vec<Relation> = (0..7)
            .map(|i| {
                Relation::new(
                    h_schema.clone(),
                    vec![
                        row![1i64, 1i64, 10 * (i + 1), 1i64],
                        row![2i64, 2i64, i, 2i64],
                    ],
                )
                .unwrap()
            })
            .collect();

        let mut fold = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
        for c in &chunks {
            fold.absorb(c).unwrap();
        }
        let fold_out = fold.finish(b0().schema(), &op(), &detail_schema()).unwrap();

        for parallelism in [1usize, 4] {
            let merged = parallel_merge_tree(chunks.clone(), 1, &op(), parallelism)
                .unwrap()
                .unwrap();
            let mut sync = MergeSync::new(Some(&b0()), &key(), &op()).unwrap();
            sync.absorb(&merged).unwrap();
            let tree_out = sync.finish(b0().schema(), &op(), &detail_schema()).unwrap();
            assert_eq!(tree_out, fold_out, "parallelism {parallelism}");
        }
    }

    #[test]
    fn parallel_merge_tree_empty_and_single() {
        assert!(parallel_merge_tree(Vec::new(), 1, &op(), 4)
            .unwrap()
            .is_none());
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        let one = Relation::new(h_schema, vec![row![1i64, 1i64, 5i64, 1i64]]).unwrap();
        let out = parallel_merge_tree(vec![one.clone()], 1, &op(), 4)
            .unwrap()
            .unwrap();
        assert_eq!(out, one);
    }

    /// The union → distinct → key check → sort pipeline `BaseSync` used
    /// to run over all fragments at once: the reference its incremental
    /// deduplication must reproduce.
    fn base_sync_reference(fragments: &[Relation], key: &[String]) -> Result<Relation> {
        let mut acc = fragments[0].clone();
        for f in &fragments[1..] {
            acc = acc.union_all(f)?;
        }
        let b = acc.distinct();
        verify_unique_key(&b, key)?;
        b.sorted_by(&key.iter().map(String::as_str).collect::<Vec<_>>())
    }

    fn base_sync_run(fragments: &[Relation], key: &[String]) -> Result<Relation> {
        let mut s = BaseSync::new();
        for f in fragments {
            s.absorb(f.clone())?;
        }
        s.finish(key)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Overlapping fragments (sites sharing groups) give the same B₀
        /// in every arrival order, equal to the all-at-once reference; a
        /// key reported with two different payloads is rejected with the
        /// reference's error in every order.
        #[test]
        fn base_sync_is_arrival_order_independent(
            groups in proptest::collection::vec((0i64..40, 0i64..3), 1..60),
            n_frags in 1usize..6,
            rotate in 0usize..6,
            conflict in proptest::prelude::any::<bool>(),
        ) {
            let schema = Schema::of(&[("g", DataType::Int), ("h", DataType::Int)]);
            let key = vec!["g".to_string(), "h".to_string()];
            let mut frags: Vec<Vec<Row>> = vec![Vec::new(); n_frags];
            for (i, &(g, h)) in groups.iter().enumerate() {
                // Under a conflict the key is `g` alone: make `h` a
                // function of `g` so only the injected key conflicts.
                let h = if conflict { g % 3 } else { h };
                // Every group on one site, every third one on a second.
                frags[i % n_frags].push(row![g, h]);
                if i % 3 == 0 {
                    frags[(i + 1) % n_frags].push(row![g, h]);
                }
            }
            let mut key = key;
            if conflict {
                // Key on `g` alone, with one `g` carrying two payloads.
                key.truncate(1);
                frags[0].push(row![41i64, 0i64]);
                frags[n_frags - 1].push(row![41i64, 1i64]);
            }
            let rels: Vec<Relation> = frags
                .into_iter()
                .map(|rows| Relation::new(schema.clone(), rows).unwrap())
                .collect();
            let mut rotated = rels.clone();
            rotated.rotate_left(rotate % n_frags);
            let mut reversed = rels.clone();
            reversed.reverse();
            let want = base_sync_reference(&rels, &key);
            for order in [&rels, &rotated, &reversed] {
                let got = base_sync_run(order, &key);
                if conflict {
                    // One conflicting key: the same error in every order.
                    let err = got.unwrap_err();
                    proptest::prop_assert_eq!(&err, &base_sync_reference(order, &key).unwrap_err());
                    proptest::prop_assert_eq!(&err, want.as_ref().unwrap_err());
                } else {
                    proptest::prop_assert_eq!(got.unwrap().rows(), want.as_ref().unwrap().rows());
                }
            }
        }
    }

    #[test]
    fn base_sync_rejects_schema_mismatch_like_union() {
        let mut s = BaseSync::new();
        s.absorb(b0()).unwrap();
        let other = Relation::new(Schema::of(&[("z", DataType::Int)]), vec![row![1i64]]).unwrap();
        let err = s.absorb(other.clone()).unwrap_err();
        assert_eq!(err, b0().union_all(&other).unwrap_err());
    }

    #[test]
    fn partial_merge_merges_repeated_keys_in_place() {
        let h_schema = Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]);
        let h = Relation::new(
            h_schema.clone(),
            vec![
                row![1i64, 2i64, 30i64, 2i64],
                row![2i64, 1i64, 8i64, 1i64],
                row![1i64, 1i64, 5i64, 1i64],
            ],
        )
        .unwrap();
        let mut pm = PartialMerge::new(1, &op());
        pm.absorb(&h).unwrap();
        pm.absorb_owned(h).unwrap();
        let a = pm.into_relation(std::sync::Arc::new(h_schema));
        assert_eq!(
            a.rows(),
            &[row![1i64, 6i64, 70i64, 6i64], row![2i64, 2i64, 16i64, 2i64]]
        );
    }

    #[test]
    fn partial_merge_rejects_bad_arity() {
        let mut pm = PartialMerge::new(1, &op());
        let bad = Relation::new(
            Schema::of(&[("g", DataType::Int), ("cnt", DataType::Int)]),
            vec![row![1i64, 1i64]],
        )
        .unwrap();
        assert!(pm.absorb(&bad).is_err());
    }

    #[test]
    fn empty_aggregates_finalize_init() {
        let aggs = empty_aggregates(&[op()]).unwrap();
        assert_eq!(aggs, vec![Value::Int(0), Value::Null]);
    }
}
