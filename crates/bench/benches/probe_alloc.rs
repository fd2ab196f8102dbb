//! Regression guard: the GMDJ hash-probe loop performs **zero heap
//! allocations per detail-tuple miss**.
//!
//! The legacy probe materialized a `Vec<Value>` key per detail tuple
//! (`Row::key`) even when the index missed; the bucket index probes with a
//! precomputed hash and in-place column comparisons instead. This guard
//! measures allocator activity with a counting `#[global_allocator]` while
//! evaluating two all-miss workloads that differ only in detail size: for
//! the fast path the difference must be (near) zero, while the legacy path
//! is kept as a positive control proving the instrument actually counts
//! per-probe allocations.
//!
//! The same guard covers the columnar kernel: its canonical-key probe and
//! typed aggregate inner loops must also perform zero per-row heap
//! allocations (its setup allocates a constant *number* of typed vectors,
//! independent of detail size, so the size delta still isolates the
//! per-row cost).
//!
//! Two more cases must not allocate per row either: the columnar kernel
//! with a lowered residual θ (a detail-only `r.v >= literal` conjunct
//! filtered before the probe and a base-dependent `r.v >= b.g * 0`
//! conjunct compared against a per-base precompute), and the
//! coordinator's `PartialMerge::absorb_owned` (the merge every
//! coordinator, regional and site-side merge runs) into keys it already
//! holds (accumulators merge in place, keys are looked up by borrowed
//! slice; the sub-result is copied outside the measured region).
//!
//! Not a timing benchmark — plain assertions, run by `ci.sh`.

use skalla_core::coordinator::PartialMerge;
use skalla_gmdj::prelude::*;
use skalla_gmdj::{eval_local, EvalOptions};
use skalla_relation::{DataType, Row};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Detail rows whose keys all miss the base index (base keys are < 1000).
fn miss_detail(rows: usize) -> Relation {
    Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]),
        (0..rows)
            .map(|i| Row::new(vec![(1000 + i as i64).into(), (i as i64).into()]))
            .collect(),
    )
    .unwrap()
}

/// Detail rows whose keys all hit the base index and pass the residual.
fn hit_detail(rows: usize) -> Relation {
    Relation::new(
        Schema::of(&[("g", DataType::Int), ("v", DataType::Int)]),
        (0..rows)
            .map(|i| Row::new(vec![(i as i64 % 64).into(), (i as i64).into()]))
            .collect(),
    )
    .unwrap()
}

/// A sub-result (key `g`, COUNT + AVG accumulators) over `keys` groups.
fn sub_result(keys: usize) -> Relation {
    Relation::new(
        Schema::of(&[
            ("g", DataType::Int),
            ("cnt", DataType::Int),
            ("avg__sum", DataType::Int),
            ("avg__cnt", DataType::Int),
        ]),
        (0..keys as i64)
            .map(|g| Row::new(vec![g.into(), 1i64.into(), g.into(), 1i64.into()]))
            .collect(),
    )
    .unwrap()
}

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

fn main() {
    let base = Relation::new(
        Schema::of(&[("g", DataType::Int)]),
        (0..64).map(|g: i64| Row::new(vec![g.into()])).collect(),
    )
    .unwrap();
    let op = Gmdj::new("t").block(
        ThetaBuilder::group_by(&["g"]).build(),
        vec![AggSpec::count("cnt")],
    );
    // Single morsel, single worker: the only size-dependent work is the
    // probe loop itself.
    let opts = |legacy_probe: bool, columnar: bool| EvalOptions {
        hash_path: true,
        parallelism: 1,
        morsel_rows: 1 << 30,
        legacy_probe,
        columnar,
        skew_balance: true,
        cache: true,
        fault_panic_morsel: None,
    };

    const SMALL: usize = 1_000;
    const LARGE: usize = 11_000;
    let small = miss_detail(SMALL);
    let large = miss_detail(LARGE);

    // Warm up every path (lazy one-time allocations — including the cached
    // columnar layout — must not skew counts).
    for legacy in [false, true] {
        eval_local(&base, &small, &op, opts(legacy, false)).unwrap();
        eval_local(&base, &large, &op, opts(legacy, false)).unwrap();
    }
    eval_local(&base, &small, &op, opts(false, true)).unwrap();
    eval_local(&base, &large, &op, opts(false, true)).unwrap();

    let fast_small = allocs_during(|| {
        eval_local(&base, &small, &op, opts(false, false)).unwrap();
    });
    let fast_large = allocs_during(|| {
        eval_local(&base, &large, &op, opts(false, false)).unwrap();
    });
    let col_small = allocs_during(|| {
        eval_local(&base, &small, &op, opts(false, true)).unwrap();
    });
    let col_large = allocs_during(|| {
        eval_local(&base, &large, &op, opts(false, true)).unwrap();
    });
    let legacy_small = allocs_during(|| {
        eval_local(&base, &small, &op, opts(true, false)).unwrap();
    });
    let legacy_large = allocs_during(|| {
        eval_local(&base, &large, &op, opts(true, false)).unwrap();
    });

    // Lowered residual: every row passes the pre-probe filter, hits one
    // base row and is compared against the per-base precompute.
    let residual_op = Gmdj::new("t").block(
        ThetaBuilder::group_by(&["g"])
            .and(Expr::dcol("v").ge(Expr::lit(0i64)))
            .and(Expr::dcol("v").ge(Expr::bcol("g").mul(Expr::lit(0i64))))
            .build(),
        vec![AggSpec::count("cnt"), AggSpec::sum("v", "sv")],
    );
    let (hit_small, hit_large) = (hit_detail(SMALL), hit_detail(LARGE));
    eval_local(&base, &hit_small, &residual_op, opts(false, true)).unwrap();
    eval_local(&base, &hit_large, &residual_op, opts(false, true)).unwrap();
    let res_small = allocs_during(|| {
        eval_local(&base, &hit_small, &residual_op, opts(false, true)).unwrap();
    });
    let res_large = allocs_during(|| {
        eval_local(&base, &hit_large, &residual_op, opts(false, true)).unwrap();
    });

    // PartialMerge: absorbing a sub-result whose keys are all present.
    let merge_op = Gmdj::new("t").block(
        ThetaBuilder::group_by(&["g"]).build(),
        vec![AggSpec::count("cnt"), AggSpec::avg("v", "avg")],
    );
    let merge_allocs = |keys: usize| {
        let h = sub_result(keys);
        let mut pm = PartialMerge::new(1, &merge_op);
        pm.absorb_owned(h.clone()).unwrap();
        allocs_during(|| pm.absorb_owned(h).unwrap())
    };
    let (merge_small, merge_large) = (merge_allocs(SMALL), merge_allocs(LARGE));

    let fast_delta = fast_large.saturating_sub(fast_small);
    let col_delta = col_large.saturating_sub(col_small);
    let legacy_delta = legacy_large.saturating_sub(legacy_small);
    let extra_rows = (LARGE - SMALL) as u64;

    println!("probe_alloc guard ({extra_rows} extra all-miss probes)");
    println!("  fast probe     allocation delta: {fast_delta}");
    println!("  columnar       allocation delta: {col_delta}");
    println!("  legacy probe   allocation delta: {legacy_delta}");
    let res_delta = res_large.saturating_sub(res_small);
    println!("  residual θ     allocation delta: {res_delta}");
    println!(
        "  partial merge  allocations: {merge_small} ({SMALL} keys), {merge_large} ({LARGE} keys)"
    );

    // Fast path: probing must not allocate per miss. Allow a tiny slack for
    // allocator-internal noise, but nothing proportional to row count.
    assert!(
        fast_delta <= 16,
        "fast probe allocated {fast_delta} times for {extra_rows} extra misses \
         — the zero-allocation probe regressed"
    );
    // Columnar kernel: canonical-key probing and the typed inner loops
    // must not allocate per row either.
    assert!(
        col_delta <= 16,
        "columnar kernel allocated {col_delta} times for {extra_rows} extra \
         rows — its inner loops regressed to per-row allocation"
    );
    // Lowered residual: the pre-probe filter and the per-base comparison
    // run on typed columns; only the selection vectors grow (amortized).
    assert!(
        res_delta <= 16,
        "lowered residual allocated {res_delta} times for {extra_rows} extra \
         rows — its conjunct tests regressed to per-row allocation"
    );
    // In-place merge: no key copy, no accumulator copy.
    assert!(
        merge_large <= 16,
        "PartialMerge::absorb_owned into existing keys allocated {merge_large} times \
         for {LARGE} rows — the in-place merge regressed"
    );
    // Positive control: the legacy probe allocates a key per miss, so the
    // counter must see at least one allocation per extra row.
    assert!(
        legacy_delta >= extra_rows,
        "legacy probe delta {legacy_delta} < {extra_rows}: the tracking \
         allocator is not observing per-probe allocations"
    );
    println!("probe_alloc guard passed ✓");
}
