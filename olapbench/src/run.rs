//! One benchmark run: set-up repetitions, the closed-loop timed window
//! (split into an untraced and a traced half with `--trace 1`), the
//! traffic prefix, and the oracle check.

use crate::measure;
use crate::workload::{cube_aggs, Dataset, Op, Stream, Workload, CUBE_DIMS};
use skalla_core::{Cluster, ExecStats, OptFlags, Planner, Skalla};
use skalla_gmdj::EvalOptions;
use skalla_net::CostModel;
use skalla_obs::{Obs, Track};
use skalla_query::{compile_text, cube, cube_with_rollup};
use skalla_relation::{Relation, Value};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Fewest operations a timed window completes, so the p90 has at least
/// ten samples beyond it. The window runs past `--seconds` if needed.
pub const MIN_OPS: usize = 100;

/// Ad-hoc answers kept per client loop or serial run for the oracle.
const ADHOC_KEPT: usize = 1;

/// What one operation's distributed executions reported, summed (a cube
/// runs one per computed grouping set).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTotals {
    /// Executions that contacted the sites.
    pub executions: u32,
    /// Executions answered by the semantic cache (hit or coalesced).
    pub cache_answers: u32,
    /// Bytes shipped coordinator → sites.
    pub bytes_down: u64,
    /// Bytes shipped sites → coordinator.
    pub bytes_up: u64,
    /// Messages both ways.
    pub msgs: u64,
    /// Synchronization rounds (a cache answer has none).
    pub rounds: u64,
    /// Σ `ExecStats::wall_s`.
    pub wall_s: f64,
    /// Σ over rounds and sites of site busy time.
    pub site_busy_sum_s: f64,
    /// Σ over rounds of the busiest site's time (the critical path).
    pub site_critical_s: f64,
    /// Σ coordinator compute time.
    pub coord_s: f64,
    /// Σ `ExecStats::simulated(&CostModel::lan())`.
    pub sim_lan_s: f64,
    /// Worst round's busiest-site time over its mean site time.
    pub busy_ratio: f64,
}

impl ExecTotals {
    fn add(&mut self, stats: &ExecStats) {
        self.wall_s += stats.wall_s;
        if stats.is_cache_hit() {
            self.cache_answers += 1;
            return;
        }
        self.executions += 1;
        self.bytes_down += stats.bytes_down();
        self.bytes_up += stats.bytes_up();
        self.msgs += stats.total_messages();
        self.rounds += stats.n_rounds() as u64;
        for stage in &stats.stages {
            let sum: f64 = stage.site_busy_s.iter().sum();
            let max = stage.site_busy_s.iter().cloned().fold(0.0, f64::max);
            self.site_busy_sum_s += sum;
            self.site_critical_s += max;
            if sum > 0.0 {
                let ratio = max * stage.site_busy_s.len() as f64 / sum;
                self.busy_ratio = self.busy_ratio.max(ratio);
            }
        }
        self.coord_s += stats.stages.iter().map(|s| s.coord_s).sum::<f64>();
        self.sim_lan_s += stats.simulated(&CostModel::lan()).total_s();
    }
}

/// One completed operation.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Whether the operation was the cube.
    pub cube: bool,
    /// Client-observed latency.
    pub latency_s: f64,
    /// `compile_text` time (0 for the cube).
    pub compile_s: f64,
    /// `Planner::optimize` time (0 for the cube).
    pub optimize_s: f64,
    /// `Skalla::execute` or `cube` call time.
    pub call_s: f64,
    /// What the engine reported.
    pub exec: ExecTotals,
    /// Cube grouping sets served by local roll-up.
    pub rolled_up: usize,
}

impl Sample {
    /// Scheduler queue wait: bench-timed `execute` minus the engine's
    /// own wall time (queries only; a cube mixes in planning).
    pub fn sched_wait_s(&self) -> f64 {
        (self.call_s - self.exec.wall_s).max(0.0)
    }
}

/// The operations of one client (or one phase), with the answers kept
/// for the oracle check.
#[derive(Default)]
pub struct Ops {
    /// Completed operations.
    pub samples: Vec<Sample>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// `(op key, answer)` pairs checked against the oracle afterwards.
    pub kept: Vec<(String, Relation)>,
}

/// Fixed context of a run: the stream, the data, and the answer-keeping
/// policy.
pub struct Ctx<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its data.
    pub data: &'a Dataset,
    /// Its operation stream.
    pub stream: &'a Stream,
}

impl Ctx<'_> {
    /// Whether to keep the answer of operation `index` for the oracle
    /// check. Ad-hoc answers each need their own oracle run, so only the
    /// first [`ADHOC_KEPT`] of every client loop and serial run is kept:
    /// each probe engine's cold query, the start of each slice (later in
    /// the stream each time) and the start of the traffic replay. `dashboard` keeps
    /// answers computed by the sites and a sample of the cached ones, all
    /// checked against seven oracle answers.
    fn keep(&self, ops: &Ops, index: u64, from_cache: bool) -> bool {
        match self.workload {
            Workload::Dashboard => ops.kept.len() < 32 && (!from_cache || index.is_multiple_of(61)),
            _ => ops.kept.len() < ADHOC_KEPT,
        }
    }

    /// Run `client`'s operation `index` on `engine` (bumping the epoch
    /// first when the stream says so), recording bench-side spans on
    /// `spans` around each layer call.
    fn run_op(&self, engine: &Skalla, client: usize, index: u64, spans: &Obs, ops: &mut Ops) {
        if self.stream.bump_before(client, index) {
            engine.bump_partition_epoch();
        }
        let op = self.stream.op(client, index);
        let flags = self.workload.flags();
        let track = Track::Query(client as u32);
        ops.attempted += 1;
        let t0 = Instant::now();
        let mut root = spans.span(track, "op");
        let outcome = match &op {
            Op::Query(text) => query_op(engine, text, flags, spans, track),
            Op::Cube => {
                let _s = spans.span(track, "query.cube");
                cube(engine, self.data.table, &CUBE_DIMS, &cube_aggs(), flags).map(|res| {
                    let mut sample = Sample {
                        cube: true,
                        call_s: t0.elapsed().as_secs_f64(),
                        rolled_up: res.rolled_up_levels(),
                        ..Sample::default()
                    };
                    for stats in res.levels.iter().filter_map(|l| l.stats.as_ref()) {
                        sample.exec.add(stats);
                    }
                    (sample, res.relation)
                })
            }
        };
        let latency_s = t0.elapsed().as_secs_f64();
        root.arg("index", index as i64);
        drop(root);
        match outcome {
            Ok((sample, answer)) => {
                if self.keep(ops, index, sample.exec.executions == 0) {
                    ops.kept.push((op.key().to_string(), answer));
                }
                ops.samples.push(Sample {
                    latency_s,
                    ..sample
                });
            }
            Err(e) => {
                ops.failed += 1;
                eprintln!("olapbench: client {client} op {index} failed: {e}");
            }
        }
    }

    /// Client `client`'s closed loop from operation `first`: issue the
    /// next operation as soon as the previous answer arrives, until
    /// `deadline` has passed and at least `min_ops` have been attempted.
    pub fn client_loop(
        &self,
        engine: &Skalla,
        client: usize,
        first: u64,
        deadline: Instant,
        min_ops: u64,
        spans: &Obs,
    ) -> Ops {
        let mut ops = Ops::default();
        let mut index = first;
        while Instant::now() < deadline || ops.attempted < min_ops {
            self.run_op(engine, client, index, spans, &mut ops);
            index += 1;
        }
        ops
    }

    /// Run operations `range` of client 0 alone, in order.
    pub fn serial(&self, engine: &Skalla, range: std::ops::Range<u64>) -> Ops {
        let mut ops = Ops::default();
        for index in range {
            self.run_op(engine, 0, index, &Obs::disabled(), &mut ops);
        }
        ops
    }
}

/// `compile_text` → `Planner::optimize` → `Skalla::execute`, each timed
/// and spanned.
fn query_op(
    engine: &Skalla,
    text: &str,
    flags: OptFlags,
    spans: &Obs,
    track: Track,
) -> skalla_relation::Result<(Sample, Relation)> {
    let t = Instant::now();
    let expr = {
        let _s = spans.span(track, "query.compile");
        compile_text(text)?
    };
    let compile_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let plan = {
        let _s = spans.span(track, "plan.optimize");
        Planner::new(engine.distribution()).optimize(&expr, flags)
    };
    let optimize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let out = {
        let _s = spans.span(track, "warehouse.execute");
        engine.execute(&plan)?
    };
    let mut sample = Sample {
        compile_s,
        optimize_s,
        call_s: t.elapsed().as_secs_f64(),
        ..Sample::default()
    };
    sample.exec.add(&out.stats);
    Ok((sample, out.relation))
}

/// Timed closed-loop operations, accumulated over window slices.
#[derive(Default)]
pub struct Phase {
    /// Completed operations.
    pub samples: Vec<Sample>,
    /// Σ slice length, each from its start until its last client stopped.
    pub elapsed_s: f64,
    /// Process CPU seconds spent in the slices.
    pub cpu_s: f64,
    /// Semantic-cache counter deltas `(hits, misses, coalesced, prefix_hits)`.
    pub cache: [u64; 4],
    /// Cache occupancy in bytes at the end of the last slice.
    pub cache_bytes: u64,
}

impl Phase {
    /// Completed operations per second.
    pub fn qps(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed_s
    }
}

fn cache_counters(engine: &Skalla) -> [u64; 4] {
    let s = engine.semantic_cache().stats();
    [s.hits, s.misses, s.coalesced, s.prefix_hits]
}

/// Move `ops`' counts and kept answers into `all`, returning its samples.
pub fn tally(all: &mut Ops, mut ops: Ops) -> Vec<Sample> {
    all.attempted += ops.attempted;
    all.failed += ops.failed;
    all.kept.append(&mut ops.kept);
    ops.samples
}

/// One slice of the timed window: every client runs its closed loop
/// against `engine` for `seconds`, and for at least `min_ops` operations
/// in total, continuing its stream at `next[client]` (advanced on
/// return). The slice's samples and measurements accumulate in `phase`.
#[allow(clippy::too_many_arguments)]
pub fn window_slice(
    ctx: &Ctx,
    engine: &Skalla,
    next: &mut [u64],
    seconds: f64,
    min_ops: usize,
    spans: &Obs,
    phase: &mut Phase,
    all: &mut Ops,
) -> Result<(), String> {
    let per_client = min_ops.div_ceil(next.len()) as u64;
    let cache0 = cache_counters(engine);
    let cpu0 = measure::process_cpu_s()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per: Vec<Ops> = std::thread::scope(|scope| {
        let handles: Vec<_> = next
            .iter()
            .enumerate()
            .map(|(c, &first)| {
                scope.spawn(move || ctx.client_loop(engine, c, first, deadline, per_client, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    phase.elapsed_s += start.elapsed().as_secs_f64();
    phase.cpu_s += measure::process_cpu_s()? - cpu0;
    let cache1 = cache_counters(engine);
    for (i, delta) in phase.cache.iter_mut().enumerate() {
        *delta += cache1[i] - cache0[i];
    }
    phase.cache_bytes = engine.semantic_cache().stats().bytes;
    for (c, ops) in per.into_iter().enumerate() {
        next[c] += ops.attempted;
        let samples = tally(all, ops);
        phase.samples.extend(samples);
    }
    Ok(())
}

/// Check every kept answer against the centralized oracle over the same
/// partitions: for queries, `GmdjExpr::eval_centralized` over the
/// gathered fragments (what `Cluster::execute_centralized` runs, with the
/// gathering done once); for the cube, one distributed query per
/// grouping set (`rollup = false`).
/// Answers must [`agree`](agrees) with the oracle. Returns the number of mismatches (an oracle failure counts as one).
pub fn verify(ctx: &Ctx, kept: &[(String, Relation)]) -> u64 {
    let cluster = Cluster::from_partitions(ctx.data.table, ctx.data.parts.clone());
    let gathered = cluster.global_catalog();
    let mut oracle: HashMap<&str, Option<Relation>> = HashMap::new();
    let mut mismatches = 0;
    for (key, answer) in kept {
        let expected = oracle.entry(key).or_insert_with(|| {
            let result = if key == Op::Cube.key() {
                cube_with_rollup(
                    &cluster,
                    ctx.data.table,
                    &CUBE_DIMS,
                    &cube_aggs(),
                    ctx.workload.flags(),
                    false,
                )
                .map(|r| r.relation)
            } else {
                compile_text(key)
                    .and_then(|expr| expr.eval_centralized(&gathered, EvalOptions::default()))
            };
            result
                .map_err(|e| eprintln!("olapbench: oracle failed: {e}"))
                .ok()
        });
        match expected {
            Some(rel) if agrees(rel, answer) => {}
            _ => {
                mismatches += 1;
                eprintln!("olapbench: answer differs from the oracle for:\n{key}");
            }
        }
    }
    mismatches
}

/// Largest relative difference allowed between two doubles of a row.
/// The engine promises bit-identical answers only on exact-sum data;
/// elsewhere sites sum floats in another order than the oracle does.
const FLOAT_REL_TOL: f64 = 1e-9;

/// Whether `actual` holds the same rows as `expected`, in any order:
/// every value equal, doubles within [`FLOAT_REL_TOL`].
pub fn agrees(expected: &Relation, actual: &Relation) -> bool {
    if expected.schema() != actual.schema() || expected.len() != actual.len() {
        return false;
    }
    // Rows lead with their distinct group keys, so sorting pairs them up.
    let (e, a) = (expected.canonicalized(), actual.canonicalized());
    e.rows().iter().zip(a.rows()).all(|(er, ar)| {
        er.values()
            .iter()
            .zip(ar.values())
            .all(|(x, y)| match (x, y) {
                (Value::Double(x), Value::Double(y)) => {
                    x == y || (x - y).abs() <= FLOAT_REL_TOL * x.abs().max(y.abs())
                }
                _ => x == y,
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use skalla_relation::{DataType, Row, Schema};

    /// Bytes and rounds of client 0's traffic prefix on a fresh engine
    /// over a small copy of the workload's data; also checks answers.
    fn traffic(w: Workload, seed: u64) -> Vec<(u64, u64)> {
        let data = Dataset::with_rows(w, seed, 6_000);
        let stream = Stream::new(w, seed);
        let ctx = Ctx {
            workload: w,
            data: &data,
            stream: &stream,
        };
        let (dep, _) = Deployment::start(&data, w, Obs::disabled()).expect("engine starts");
        let ops = ctx.serial(dep.engine(), 0..stream.traffic_ops());
        assert_eq!(ops.failed, 0, "{}", w.name());
        assert_eq!(verify(&ctx, &ops.kept), 0, "{}", w.name());
        ops.samples
            .iter()
            .map(|s| (s.exec.bytes_down + s.exec.bytes_up, s.exec.rounds))
            .collect()
    }

    #[test]
    fn a_seed_fixes_the_traffic() {
        for w in Workload::ALL {
            let first = traffic(w, 5);
            assert_eq!(first.len() as u64, Stream::new(w, 5).traffic_ops());
            assert!(first.iter().any(|&(bytes, rounds)| bytes > 0 && rounds > 0));
            assert_eq!(first, traffic(w, 5), "{}", w.name());
        }
    }

    #[test]
    fn oracle_comparison_tolerates_float_reordering_only() {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Double)]);
        let rel = |rows: &[(i64, f64)]| {
            let rows = rows
                .iter()
                .map(|&(k, v)| Row::new(vec![Value::Int(k), Value::Double(v)]))
                .collect();
            Relation::new(schema.clone(), rows).expect("rows match the schema")
        };
        let expected = rel(&[(1, 0.1 + 0.2), (2, 5.0)]);
        assert!(agrees(&expected, &rel(&[(2, 5.0), (1, 0.3)])));
        assert!(!agrees(&expected, &rel(&[(1, 0.3001), (2, 5.0)])));
        assert!(!agrees(&expected, &rel(&[(1, 0.3)])));
        assert!(!agrees(&expected, &rel(&[(3, 0.3), (2, 5.0)])));
    }
}
