//! The metrics the benchmark reports, the per-layer self-time table,
//! and the final result line.

use crate::measure::{mean, median, percentile};
use crate::run::Sample;
use crate::workload::Workload;
use skalla_obs::json::Json;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("cold_query_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("qps", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("wire_bytes_per_query", "bytes"),
    ("rounds_per_query", "count"),
    ("sim_lan_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("query.compile_us", "us"),
    ("plan.optimize_us", "us"),
    ("relation.columns_build_ms", "ms"),
    ("gmdj.eval_ms", "ms"),
    ("site.busy_sum_ms", "ms"),
    ("site.busy_max_ms", "ms"),
    ("site.skew", "ratio"),
    ("coord.merge_ms", "ms"),
    ("net.bytes_down", "bytes"),
    ("net.bytes_up", "bytes"),
    ("net.msgs", "count"),
    ("exec.unattributed_ms", "ms"),
    ("scheduler.wait_ms_p50", "ms"),
    ("scheduler.wait_ms_p90", "ms"),
    ("cache.hit_rate", "ratio"),
    ("cache.coalesced", "count"),
    ("cache.prefix_hits", "count"),
    ("cache.bytes", "bytes"),
    ("cache.hit_us_p50", "us"),
    ("cube.ms_p50", "ms"),
    ("cube.rolled_up_levels", "count"),
    ("skew.busy_ratio", "ratio"),
    ("skew.donors", "count"),
    ("skew.hot_keys", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer metrics whose layer runs on only some workloads, with those
/// workloads. Every other per-layer metric applies everywhere. The result
/// line still carries all of them, as `BENCHMARK.json` declares one metric
/// list for every workload; elsewhere they read 0 and the printed table
/// marks them `n/a`.
const ONLY_ON: [(&str, &[Workload]); 9] = [
    ("cache.hit_rate", &CACHE_ON),
    ("cache.prefix_hits", &CACHE_ON),
    ("cache.bytes", &CACHE_ON),
    ("cache.coalesced", &[Workload::Dashboard]),
    ("cache.hit_us_p50", &[Workload::Dashboard]),
    ("cube.ms_p50", &[Workload::Dashboard]),
    ("cube.rolled_up_levels", &[Workload::Dashboard]),
    ("skew.donors", &[Workload::SkewedFlows]),
    ("skew.hot_keys", &[Workload::SkewedFlows]),
];

/// Workloads whose engine consults the semantic cache.
const CACHE_ON: [Workload; 3] = [
    Workload::AdhocAligned,
    Workload::AdhocCrossTcp,
    Workload::Dashboard,
];

/// Whether per-layer metric `name` measures a layer that runs on `w`.
pub fn applies(w: Workload, name: &str) -> bool {
    ONLY_ON
        .iter()
        .find(|(n, _)| *n == name)
        .is_none_or(|(_, on)| on.contains(&w))
}

/// Measured values by metric name.
pub type Values = Vec<(&'static str, f64)>;

/// Inputs of the end-to-end metrics.
pub struct EndToEnd<'a> {
    /// Set-up time of each engine stood up.
    pub setup_s: &'a [f64],
    /// First-operation latency after each set-up.
    pub cold_s: &'a [f64],
    /// The timed window's operations.
    pub window: &'a [Sample],
    /// Window length.
    pub window_s: f64,
    /// Process CPU seconds in the window.
    pub cpu_s: f64,
    /// Client 0's first operations from an empty cache.
    pub traffic: &'a [Sample],
    /// Peak resident set after the window.
    pub peak_rss_mb: f64,
}

/// Compute every end-to-end metric.
pub fn end_to_end(e: &EndToEnd) -> Result<Values, String> {
    let latencies: Vec<f64> = e.window.iter().map(|s| s.latency_s * 1e3).collect();
    let ops = e.window.len() as f64;
    let executed: Vec<f64> = e
        .window
        .iter()
        .filter(|s| s.exec.executions > 0)
        .map(|s| s.exec.sim_lan_s * 1e3)
        .collect();
    let traffic_ops = e.traffic.len() as f64;
    let values = vec![
        ("setup_s", median(e.setup_s)),
        ("cold_query_ms", median(e.cold_s) * 1e3),
        ("query_p50_ms", percentile(&latencies, 0.5)?),
        ("query_p90_ms", percentile(&latencies, 0.9)?),
        ("qps", ops / e.window_s),
        ("cpu_ms_per_query", e.cpu_s * 1e3 / ops),
        (
            "wire_bytes_per_query",
            e.traffic
                .iter()
                .map(|s| (s.exec.bytes_down + s.exec.bytes_up) as f64)
                .sum::<f64>()
                / traffic_ops,
        ),
        (
            "rounds_per_query",
            e.traffic.iter().map(|s| s.exec.rounds as f64).sum::<f64>() / traffic_ops,
        ),
        ("sim_lan_ms_p50", median(&executed)),
        ("peak_rss_mb", e.peak_rss_mb),
    ];
    Ok(values)
}

/// Inputs of the per-layer metrics.
pub struct PerLayer<'a> {
    /// Operations of both halves of the window.
    pub window: &'a [Sample],
    /// Completed operations per second, untraced half.
    pub qps_untraced: f64,
    /// Completed operations per second, traced half.
    pub qps_traced: f64,
    /// Semantic-cache deltas `(hits, misses, coalesced, prefix_hits)`
    /// over both halves.
    pub cache: [u64; 4],
    /// Cache occupancy at the end of the traced half.
    pub cache_bytes: u64,
    /// Median `Relation::columns()` build time over the site partitions.
    pub columns_build_ms: f64,
    /// Warm centralized evaluation of the first query over site 0.
    pub gmdj_eval_ms: f64,
    /// `skew.donors` and `skew.hot_keys` recorder counters, per
    /// executed operation of the traced half.
    pub skew_counters: (f64, f64),
}

/// Compute every per-layer metric.
pub fn per_layer(p: &PerLayer) -> Result<Values, String> {
    let queries: Vec<&Sample> = p.window.iter().filter(|s| !s.cube).collect();
    let executed: Vec<&Sample> = p.window.iter().filter(|s| s.exec.executions > 0).collect();
    let of = |set: &[&Sample], f: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
        set.iter().map(|s| f(s)).collect()
    };
    let waits = of(&queries, &|s| s.sched_wait_s() * 1e3);
    let cached: Vec<f64> = p
        .window
        .iter()
        .filter(|s| s.exec.executions == 0 && s.exec.cache_answers > 0)
        .map(|s| s.latency_s * 1e6)
        .collect();
    let cubes: Vec<&Sample> = p.window.iter().filter(|s| s.cube).collect();
    let [hits, misses, coalesced, prefix_hits] = p.cache;
    let lookups = (hits + misses + coalesced).max(1) as f64;
    let per_op = |f: &dyn Fn(&Sample) -> f64| mean(&p.window.iter().map(f).collect::<Vec<_>>());
    Ok(vec![
        (
            "query.compile_us",
            median(&of(&queries, &|s| s.compile_s * 1e6)),
        ),
        (
            "plan.optimize_us",
            median(&of(&queries, &|s| s.optimize_s * 1e6)),
        ),
        ("relation.columns_build_ms", p.columns_build_ms),
        ("gmdj.eval_ms", p.gmdj_eval_ms),
        (
            "site.busy_sum_ms",
            median(&of(&executed, &|s| s.exec.site_busy_sum_s * 1e3)),
        ),
        (
            "site.busy_max_ms",
            median(&of(&executed, &|s| s.exec.site_critical_s * 1e3)),
        ),
        ("site.skew", median(&of(&executed, &site_skew))),
        (
            "coord.merge_ms",
            median(&of(&executed, &|s| s.exec.coord_s * 1e3)),
        ),
        ("net.bytes_down", per_op(&|s| s.exec.bytes_down as f64)),
        ("net.bytes_up", per_op(&|s| s.exec.bytes_up as f64)),
        ("net.msgs", per_op(&|s| s.exec.msgs as f64)),
        (
            "exec.unattributed_ms",
            median(&of(&executed, &|s| exec_unattributed_s(s) * 1e3)),
        ),
        ("scheduler.wait_ms_p50", percentile(&waits, 0.5)?),
        ("scheduler.wait_ms_p90", percentile(&waits, 0.9)?),
        ("cache.hit_rate", (hits + coalesced) as f64 / lookups),
        ("cache.coalesced", coalesced as f64),
        ("cache.prefix_hits", prefix_hits as f64),
        ("cache.bytes", p.cache_bytes as f64),
        ("cache.hit_us_p50", median(&cached)),
        ("cube.ms_p50", median(&of(&cubes, &|s| s.latency_s * 1e3))),
        (
            "cube.rolled_up_levels",
            mean(&of(&cubes, &|s| s.rolled_up as f64)),
        ),
        (
            "skew.busy_ratio",
            median(&of(&executed, &|s| s.exec.busy_ratio)),
        ),
        ("skew.donors", p.skew_counters.0),
        ("skew.hot_keys", p.skew_counters.1),
        ("trace.overhead_frac", 1.0 - p.qps_traced / p.qps_untraced),
    ])
}

/// Critical-path site time over mean site time, summed over rounds
/// (1 = perfectly even sites).
fn site_skew(s: &Sample) -> f64 {
    let mean_site = s.exec.site_busy_sum_s / crate::workload::SITES as f64;
    if mean_site > 0.0 {
        s.exec.site_critical_s / mean_site
    } else {
        1.0
    }
}

/// Engine wall time no round accounts for: `ExecStats::wall_s` minus,
/// per round, the busiest site and the coordinator.
fn exec_unattributed_s(s: &Sample) -> f64 {
    s.exec.wall_s - s.exec.site_critical_s - s.exec.coord_s
}

/// Self time per layer over `samples`, as a text table whose rows add up
/// to the operations' total latency, with an explicit `unattributed` row.
pub fn layer_table(samples: &[Sample]) -> String {
    let sum = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).sum::<f64>();
    let total = sum(&|s| s.latency_s);
    let mut rows = vec![
        ("query.compile", sum(&|s| s.compile_s)),
        ("plan.optimize", sum(&|s| s.optimize_s)),
        (
            "scheduler.wait",
            sum(&|s| if s.cube { 0.0 } else { s.sched_wait_s() }),
        ),
        (
            "cube.plan+rollup",
            sum(&|s| if s.cube { s.sched_wait_s() } else { 0.0 }),
        ),
        ("site.critical_path", sum(&|s| s.exec.site_critical_s)),
        ("coord.merge", sum(&|s| s.exec.coord_s)),
    ];
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("unattributed", total - attributed));
    let mut out = format!(
        "{:<20} {:>12} {:>8}   ({} operations)\n",
        "layer",
        "self_ms",
        "share",
        samples.len()
    );
    for (name, secs) in rows {
        out += &format!(
            "{name:<20} {:>12.3} {:>7.1}%\n",
            secs * 1e3,
            100.0 * secs / total.max(f64::MIN_POSITIVE)
        );
    }
    out += &format!("{:<20} {:>12.3} {:>7.1}%\n", "total", total * 1e3, 100.0);
    out
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&'static str, &'static str)],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::from(*unit)),
            ]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = skalla_obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn every_layer_metric_applies_somewhere() {
        for (name, _) in ONLY_ON {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
        for w in Workload::ALL {
            assert_eq!(applies(w, "cache.hit_rate"), w.eval_options().cache);
        }
        for (name, _) in PER_LAYER {
            assert!(Workload::ALL.iter().any(|&w| applies(w, name)), "{name}");
        }
    }

    #[test]
    fn result_line_refuses_missing_metrics() {
        let values: Values = vec![("setup_s", 0.5)];
        let line = result_line(true, 3, 0, &END_TO_END[..1], &values).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        assert!(result_line(true, 3, 0, &END_TO_END[..2], &values).is_err());
    }
}
