//! The four workloads: their data, their client count and optimizer
//! flags, and the seeded operation stream each client issues.
//!
//! Everything here is a pure function of the workload and `--seed`. The
//! engine only ever sees the generated partitions and query text.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skalla_core::OptFlags;
use skalla_datagen::flow::{generate_flows, FlowConfig};
use skalla_datagen::partition::{observe_int_ranges, partition_by_int_ranges, Partition};
use skalla_datagen::tpcr::{generate_tpcr, TpcrConfig};
use skalla_gmdj::{AggSpec, EvalOptions};
use skalla_relation::Relation;

/// Warehouse sites in every workload (the paper's eight-site setup).
pub const SITES: usize = 8;
/// TPC-R fact rows shared by the three TPC-R workloads.
pub const TPCR_ROWS: usize = 400_000;
/// Flow rows in `skewed_flows`.
pub const FLOW_ROWS: usize = 60_000;
/// `dashboard`: client 0 bumps the partition epoch (a data load) before
/// every `BUMP_EVERY`-th refresh of the pool.
pub const BUMP_EVERY: u64 = 24;
/// Cube dimensions of the `dashboard` cube (5 × 3 × 5 finest groups).
pub const CUBE_DIMS: [&str; 3] = ["region_key", "return_flag", "order_priority"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct partition-aligned analyst queries, in-process sites.
    AdhocAligned,
    /// Distinct non-aligned queries against sites served over TCP.
    AdhocCrossTcp,
    /// Two clients refreshing a fixed pool plus a cube, cache on.
    Dashboard,
    /// The paper's Fig. 2 configuration on Zipf-skewed flow data.
    SkewedFlows,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::AdhocAligned,
        Workload::AdhocCrossTcp,
        Workload::Dashboard,
        Workload::SkewedFlows,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocAligned => "adhoc_aligned",
            Workload::AdhocCrossTcp => "adhoc_cross_tcp",
            Workload::Dashboard => "dashboard",
            Workload::SkewedFlows => "skewed_flows",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads (at most the runner's 2 cores).
    pub fn clients(self) -> usize {
        match self {
            Workload::Dashboard => 2,
            _ => 1,
        }
    }

    /// Whether the sites are `SiteServer`s reached over 127.0.0.1.
    pub fn tcp(self) -> bool {
        self == Workload::AdhocCrossTcp
    }

    /// Evaluation options the engine is built with. `skewed_flows` turns
    /// the semantic cache off: its queries share their `SELECT DISTINCT`
    /// base stage, and a base resumed from the cache skips round 1, where
    /// sites report heavy hitters, so the skew balancer would not run.
    pub fn eval_options(self) -> EvalOptions {
        EvalOptions {
            cache: self != Workload::SkewedFlows,
            ..EvalOptions::default()
        }
    }

    /// Optimizer flags every operation is planned with.
    pub fn flags(self) -> OptFlags {
        match self {
            Workload::SkewedFlows => OptFlags::group_reduction_only(),
            _ => OptFlags::all(),
        }
    }
}

/// A partitioned fact table, as handed to the engine.
pub struct Dataset {
    /// Table name the queries reference.
    pub table: &'static str,
    /// One fragment (with its φ-domains) per site.
    pub parts: Vec<Partition>,
}

impl Dataset {
    /// Generate the workload's data from the seed.
    pub fn generate(workload: Workload, seed: u64) -> Dataset {
        let rows = match workload {
            Workload::SkewedFlows => FLOW_ROWS,
            _ => TPCR_ROWS,
        };
        Dataset::with_rows(workload, seed, rows)
    }

    /// The workload's data at another size (tests use small ones).
    pub fn with_rows(workload: Workload, seed: u64, rows: usize) -> Dataset {
        match workload {
            Workload::SkewedFlows => {
                let flows = generate_flows(&FlowConfig::new(rows, seed));
                Dataset {
                    table: "flow",
                    parts: partition_by_int_ranges(&flows, "source_as", SITES),
                }
            }
            _ => {
                let tpcr = generate_tpcr(&TpcrConfig::new(rows, seed));
                let mut parts = partition_by_int_ranges(&tpcr, "nation_key", SITES);
                observe_int_ranges(&mut parts, &["cust_key", "cust_group"]);
                Dataset {
                    table: "tpcr",
                    parts,
                }
            }
        }
    }

    /// A deep copy whose relations have never built their columnar
    /// layout, so the engine pays that cost where a fresh load would.
    pub fn fresh_parts(&self) -> Vec<Partition> {
        self.parts
            .iter()
            .map(|p| Partition {
                relation: Relation::from_shared(
                    p.relation.schema_ref(),
                    p.relation.rows().to_vec(),
                ),
                domains: p.domains.clone(),
            })
            .collect()
    }
}

/// One client operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Query text, compiled, planned and executed.
    Query(String),
    /// The `dashboard` cube over [`CUBE_DIMS`].
    Cube,
}

impl Op {
    /// Identifies the operation's answer: equal keys must give equal
    /// answers within one partition epoch.
    pub fn key(&self) -> &str {
        match self {
            Op::Query(text) => text,
            Op::Cube => "CUBE",
        }
    }
}

/// The aggregates of the `dashboard` cube.
pub fn cube_aggs() -> Vec<AggSpec> {
    vec![
        AggSpec::count("n"),
        AggSpec::sum("extended_price", "revenue"),
        AggSpec::avg("quantity", "avg_qty"),
    ]
}

/// The seeded operation stream of one workload.
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// Added to the operation index in a filter that holds for every
    /// row, so each ad-hoc query has a plan fingerprint of its own.
    unique_base: i64,
    /// `dashboard`'s fixed query pool (empty otherwise).
    pool: Vec<String>,
}

impl Stream {
    /// The stream for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed);
        let unique_base = rng.gen_range(0..1_000_000i64);
        let pool = if workload == Workload::Dashboard {
            dashboard_pool(&mut rng)
        } else {
            Vec::new()
        };
        Stream {
            workload,
            seed,
            unique_base,
            pool,
        }
    }

    /// Operations in one `dashboard` refresh: the pool plus the cube.
    fn refresh_len(&self) -> u64 {
        self.pool.len() as u64 + 1
    }

    /// The `i`-th operation of `client`.
    pub fn op(&self, client: usize, i: u64) -> Op {
        if self.workload == Workload::Dashboard {
            // Clients start at different points of the refresh so they
            // do not issue the same query in lockstep.
            let slot = (i + 3 * client as u64) % self.refresh_len();
            return match self.pool.get(slot as usize) {
                Some(text) => Op::Query(text.clone()),
                None => Op::Cube,
            };
        }
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (i.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let u = self.unique_base + i as i64;
        Op::Query(match self.workload {
            Workload::AdhocAligned => aligned_query(i, u, &mut rng),
            Workload::AdhocCrossTcp => cross_query(i, u, &mut rng),
            Workload::SkewedFlows => flow_query(i, u, &mut rng),
            Workload::Dashboard => unreachable!("handled above"),
        })
    }

    /// Whether `client` bumps the partition epoch before its `i`-th
    /// operation (only `dashboard`'s client 0 loads data).
    pub fn bump_before(&self, client: usize, i: u64) -> bool {
        self.workload == Workload::Dashboard
            && client == 0
            && i > 0
            && i.is_multiple_of(BUMP_EVERY * self.refresh_len())
    }

    /// How many of client 0's first operations the traffic metrics
    /// average over: one full bump cycle for `dashboard`.
    pub fn traffic_ops(&self) -> u64 {
        match self.workload {
            Workload::Dashboard => BUMP_EVERY * self.refresh_len(),
            _ => 6,
        }
    }
}

/// Partition-aligned analyst queries: the `customer_profile`, Fig. 2
/// (group reduction) and Fig. 4 (synchronization reduction) shapes.
/// `ship_date` lies in `0..2557`, so `ship_date < 2557 + u` keeps every
/// row and only makes the fingerprint unique.
fn aligned_query(i: u64, u: i64, rng: &mut StdRng) -> String {
    let uniq = 2557 + u;
    match i % 3 {
        0 => format!(
            "BASE SELECT DISTINCT cust_key FROM tpcr;
             MD lines = COUNT(*), avg_price = AVG(extended_price), spread = STDDEV(extended_price)
                OVER tpcr WHERE cust_key = b.cust_key AND ship_date >= {d} AND ship_date < {uniq};
             MD pricey = COUNT(*)
                OVER tpcr WHERE cust_key = b.cust_key AND extended_price >= b.avg_price * {f:.3};",
            d = rng.gen_range(0..400i64),
            f = rng.gen_range(0.8..1.3f64),
        ),
        1 => format!(
            "BASE SELECT DISTINCT cust_key FROM tpcr;
             MD cnt1 = COUNT(*), avg1 = AVG(extended_price)
                OVER tpcr WHERE cust_key = b.cust_key AND quantity >= {q} AND ship_date < {uniq};
             MD cnt2 = COUNT(*), avg2 = AVG(quantity)
                OVER tpcr WHERE cust_key = b.cust_key AND extended_price >= b.avg1;",
            q = rng.gen_range(1..8i64),
        ),
        _ => format!(
            "BASE SELECT DISTINCT cust_group FROM tpcr;
             MD cnt1 = COUNT(*), avg1 = AVG(extended_price)
                OVER tpcr WHERE cust_group = b.cust_group AND ship_date >= {d} AND ship_date < {uniq};
             MD cnt2 = COUNT(*), avg2 = AVG(quantity)
                OVER tpcr WHERE cust_group = b.cust_group AND extended_price >= b.avg1;
             MD cnt3 = COUNT(*)
                OVER tpcr WHERE cust_group = b.cust_group AND quantity >= b.avg2 * {f:.3};",
            d = rng.gen_range(0..400i64),
            f = rng.gen_range(0.8..1.2f64),
        ),
    }
}

/// Queries grouped on attributes the partitioning says nothing about,
/// so every site ships partial aggregates for every group.
fn cross_query(i: u64, u: i64, rng: &mut StdRng) -> String {
    let uniq = 2557 + u;
    match i % 3 {
        0 => format!(
            "BASE SELECT DISTINCT part_key FROM tpcr;
             MD cnt1 = COUNT(*), avg1 = AVG(extended_price)
                OVER tpcr WHERE part_key = b.part_key AND ship_date >= {d} AND ship_date < {uniq};
             MD cnt2 = COUNT(*)
                OVER tpcr WHERE part_key = b.part_key AND extended_price >= b.avg1 * {f:.3};",
            d = rng.gen_range(0..400i64),
            f = rng.gen_range(0.8..1.3f64),
        ),
        1 => format!(
            "BASE SELECT DISTINCT supp_key FROM tpcr;
             MD cnt1 = COUNT(*), revenue = SUM(extended_price), spread = STDDEV(discount)
                OVER tpcr WHERE supp_key = b.supp_key AND quantity >= {q} AND ship_date < {uniq};
             MD big = COUNT(*)
                OVER tpcr WHERE supp_key = b.supp_key AND extended_price >= b.revenue / b.cnt1;",
            q = rng.gen_range(1..8i64),
        ),
        _ => format!(
            "BASE SELECT DISTINCT order_priority, return_flag FROM tpcr;
             MD cnt1 = COUNT(*), avg_disc = AVG(discount)
                OVER tpcr WHERE order_priority = b.order_priority AND return_flag = b.return_flag
                AND ship_date >= {d} AND ship_date < {uniq};
             MD late = COUNT(*)
                OVER tpcr WHERE order_priority = b.order_priority AND return_flag = b.return_flag
                AND discount >= b.avg_disc;",
            d = rng.gen_range(0..400i64),
        ),
    }
}

/// The paper's flow queries: `elephant_flows` twice, then Example 1, so
/// the median lies inside one shape's latencies rather than on the gap
/// between two. Flow start times lie in `0..86400`.
fn flow_query(i: u64, u: i64, rng: &mut StdRng) -> String {
    let uniq = 86_400 + u;
    match i % 3 {
        0 | 1 => format!(
            "BASE SELECT DISTINCT source_as FROM flow;
             MD flows = COUNT(*), bytes = SUM(num_bytes), avg_bytes = AVG(num_bytes)
                OVER flow WHERE source_as = b.source_as AND start_time >= {t} AND start_time < {uniq};
             MD big_flows = COUNT(*), big_bytes = SUM(num_bytes)
                OVER flow WHERE source_as = b.source_as AND num_bytes >= {k:.3} * b.avg_bytes;",
            t = rng.gen_range(0..7_200i64),
            k = rng.gen_range(1.5..3.0f64),
        ),
        _ => format!(
            "BASE SELECT DISTINCT source_as, dest_as FROM flow;
             MD cnt1 = COUNT(*), sum1 = SUM(num_bytes)
                OVER flow WHERE source_as = b.source_as AND dest_as = b.dest_as
                AND start_time >= {t} AND start_time < {uniq};
             MD cnt2 = COUNT(*)
                OVER flow WHERE source_as = b.source_as AND dest_as = b.dest_as
                AND num_bytes >= {k:.3} * b.sum1 / b.cnt1;",
            t = rng.gen_range(0..7_200i64),
            k = rng.gen_range(0.8..1.5f64),
        ),
    }
}

/// `dashboard`'s six refreshed queries over low-cardinality dimensions.
/// Their constants are drawn once per seed. The fourth shares its first
/// operator with the first, so resuming from a cached prefix can apply.
fn dashboard_pool(rng: &mut StdRng) -> Vec<String> {
    let d = rng.gen_range(0..400i64);
    vec![
        format!(
            "BASE SELECT DISTINCT nation_key FROM tpcr;
             MD orders = COUNT(*), revenue = SUM(extended_price)
                OVER tpcr WHERE nation_key = b.nation_key AND ship_date >= {d};"
        ),
        format!(
            "BASE SELECT DISTINCT region_key FROM tpcr;
             MD lines = COUNT(*), avg_qty = AVG(quantity)
                OVER tpcr WHERE region_key = b.region_key AND discount <= {disc:.2};
             MD big = COUNT(*)
                OVER tpcr WHERE region_key = b.region_key AND quantity >= b.avg_qty;",
            disc = rng.gen_range(0.03..0.09f64),
        ),
        format!(
            "BASE SELECT DISTINCT return_flag FROM tpcr;
             MD n = COUNT(*), avg_price = AVG(extended_price)
                OVER tpcr WHERE return_flag = b.return_flag AND ship_date < {d2};",
            d2 = rng.gen_range(1_500..2_557i64),
        ),
        format!(
            "BASE SELECT DISTINCT nation_key FROM tpcr;
             MD orders = COUNT(*), revenue = SUM(extended_price)
                OVER tpcr WHERE nation_key = b.nation_key AND ship_date >= {d};
             MD above = COUNT(*)
                OVER tpcr WHERE nation_key = b.nation_key AND extended_price >= b.revenue / b.orders;"
        ),
        format!(
            "BASE SELECT DISTINCT order_priority FROM tpcr;
             MD n = COUNT(*), avg_disc = AVG(discount)
                OVER tpcr WHERE order_priority = b.order_priority AND quantity >= {q};",
            q = rng.gen_range(1..25i64),
        ),
        format!(
            "BASE SELECT DISTINCT cust_group FROM tpcr;
             MD n = COUNT(*), revenue = SUM(extended_price)
                OVER tpcr WHERE cust_group = b.cust_group AND ship_date >= {d};
             MD top = COUNT(*)
                OVER tpcr WHERE cust_group = b.cust_group AND extended_price >= b.revenue / b.n;"
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_stream() {
        for w in Workload::ALL {
            let (a, b) = (Stream::new(w, 7), Stream::new(w, 7));
            for client in 0..w.clients() {
                for i in 0..200 {
                    assert_eq!(a.op(client, i), b.op(client, i), "{}", w.name());
                    assert_eq!(a.bump_before(client, i), b.bump_before(client, i));
                }
            }
        }
    }

    #[test]
    fn another_seed_changes_the_constants() {
        for w in Workload::ALL {
            let (a, b) = (Stream::new(w, 7), Stream::new(w, 8));
            assert!(
                (0..10).all(|i| a.op(0, i) != b.op(0, i) || a.op(0, i) == Op::Cube),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn ad_hoc_queries_never_repeat_and_compile() {
        for w in [
            Workload::AdhocAligned,
            Workload::AdhocCrossTcp,
            Workload::SkewedFlows,
        ] {
            let stream = Stream::new(w, 3);
            let mut keys: Vec<String> = (0..1000)
                .map(|i| stream.op(0, i).key().to_string())
                .collect();
            for key in &keys[..6] {
                skalla_query::compile_text(key).expect("query compiles");
            }
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), 1000, "{}", w.name());
        }
    }

    #[test]
    fn dashboard_refreshes_pool_and_cube_and_bumps() {
        let stream = Stream::new(Workload::Dashboard, 3);
        let refresh: Vec<Op> = (0..7).map(|i| stream.op(1, i)).collect();
        assert_eq!(refresh.iter().filter(|op| **op == Op::Cube).count(), 1);
        for op in &refresh {
            if let Op::Query(text) = op {
                skalla_query::compile_text(text).expect("query compiles");
            }
        }
        assert_eq!(stream.op(0, 0), stream.op(1, 4));
        let bumps: Vec<u64> = (0..400).filter(|&i| stream.bump_before(0, i)).collect();
        assert_eq!(bumps, [BUMP_EVERY * 7, 2 * BUMP_EVERY * 7]);
        assert!((0..400).all(|i| !stream.bump_before(1, i)));
    }
}
