//! End-to-end OLAP benchmark for Skalla.
//!
//! ```text
//! cargo run --release --manifest-path olapbench/Cargo.toml -- \
//!     --workload adhoc_aligned --seed 1 --seconds 16 --trace 0
//! ```
//!
//! Generates the workload's data and query stream from the seed, stands
//! the engine up (timed, several times), runs a closed loop for the
//! given seconds, checks the answers against the centralized oracle,
//! and prints one JSON result line last. `--trace 1` splits the window
//! into an untraced and a traced half and reports the per-layer metrics
//! instead, writing a Chrome trace and a self-time table under
//! `.bench_out/`. See README.md for the workloads and the layer map.

mod deploy;
mod measure;
mod report;
mod run;
mod workload;

use deploy::Deployment;
use report::{EndToEnd, PerLayer};
use run::{tally, window_slice, Ctx, Ops, Phase, Sample, MIN_OPS};
use skalla_core::EngineConfig;
use skalla_gmdj::EvalOptions;
use skalla_obs::{ExportCursor, Obs, Recorder};
use skalla_query::compile_text;
use skalla_relation::Relation;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Dataset, Op, Stream, Workload};

const USAGE: &str =
    "usage: olapbench --workload <adhoc_aligned|adhoc_cross_tcp|dashboard|skewed_flows> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Engines stood up per run, each serving one slice of the window.
const SLICES: usize = 16;

/// Where traced runs write their Chrome trace and layer table.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad(&"must be in (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("olapbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `EvalOptions::default()` and `EngineConfig::default()` read
    // `SKALLA_*` variables; a stray one would make two commits measure
    // different programs.
    let stray: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SKALLA_"))
        .collect();
    if !stray.is_empty() {
        eprintln!("olapbench: refusing to run with {} set", stray.join(", "));
        return ExitCode::from(2);
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("eval options: {:?}", args.workload.eval_options());
    println!(
        "cache budget: {} bytes",
        EngineConfig::default().cache_bytes
    );
    match bench(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("olapbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run the benchmark and return the result line.
///
/// The timed window runs on one long-lived engine (a second, traced one
/// with `--trace 1`, which takes every second slice), warmed by client
/// 0's first operation. It is cut into [`SLICES`] slices, and before
/// each untraced one a probe engine is stood up (set-up timed), answers
/// client 0's first operation (the cold query) and is dropped. Spreading
/// the probes over the run, rather than bunching them at its start,
/// keeps their medians steady on a host whose speed drifts.
fn bench(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let t = Instant::now();
    let data = Dataset::generate(w, args.seed);
    println!("data generated in {:.3} s", t.elapsed().as_secs_f64());
    let stream = Stream::new(w, args.seed);
    let ctx = Ctx {
        workload: w,
        data: &data,
        stream: &stream,
    };
    let mut all = Ops::default();
    let engine_obs = Obs::recording();
    let spans = Obs::recording();
    spans
        .recorder()
        .expect("recording")
        .set_process(2, "olapbench");
    let disabled = Obs::disabled();

    let (mut setup_s, mut cold_s) = (Vec::new(), Vec::new());
    let mut phases = [Phase::default(), Phase::default()];
    let mut traffic = Vec::new();
    let mut next: Vec<u64> = (0..w.clients()).map(|c| u64::from(c == 0)).collect();
    let n_traffic = stream.traffic_ops();
    let window_engine = |obs: &Obs, all: &mut Ops| -> Result<Deployment, String> {
        let (dep, _) = Deployment::start(&data, w, obs.clone())?;
        let warm = tally(all, ctx.serial(dep.engine(), 0..1));
        warm.first().ok_or("the warm-up operation failed")?;
        Ok(dep)
    };
    let untraced_dep = window_engine(&disabled, &mut all)?;
    let traced_dep = match args.trace {
        true => Some(window_engine(&engine_obs, &mut all)?),
        false => None,
    };
    // The warm-up's counters are not the window's.
    let warm_counters = engine_obs.recorder().expect("recording").counters();
    for slice in 0..SLICES {
        let traced = args.trace && slice % 2 == 1;
        let dep = match &traced_dep {
            Some(dep) if traced => dep,
            _ => {
                let (probe, secs) = Deployment::start(&data, w, disabled.clone())?;
                let cold = tally(&mut all, ctx.serial(probe.engine(), 0..1));
                let cold = cold.first().ok_or("the cold operation failed")?;
                setup_s.push(secs);
                cold_s.push(cold.latency_s);
                &untraced_dep
            }
        };
        window_slice(
            &ctx,
            dep.engine(),
            &mut next,
            args.seconds / SLICES as f64,
            // Whatever the window still lacks of MIN_OPS, spread over the
            // slices left.
            MIN_OPS
                .saturating_sub(phases[0].samples.len() + phases[1].samples.len())
                .div_ceil(SLICES - slice),
            if traced { &spans } else { &disabled },
            &mut phases[usize::from(traced)],
            &mut all,
        )?;
    }
    // Traffic: client 0's first operations from an empty cache, replayed
    // alone on the window engine after a fresh epoch.
    if !args.trace {
        untraced_dep.engine().bump_partition_epoch();
        traffic = tally(&mut all, ctx.serial(untraced_dep.engine(), 0..n_traffic));
    }
    let peak_rss_mb = measure::peak_rss_mb()?;
    let ms: Vec<String> = cold_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!("cold operation per probe engine, ms: {}", ms.join(" "));
    let [untraced, traced] = phases;
    println!(
        "window: {} operations in {:.3} s over {SLICES} slices ({} clients, closed loop)",
        untraced.samples.len() + traced.samples.len(),
        untraced.elapsed_s + traced.elapsed_s,
        w.clients()
    );

    let values = if args.trace {
        let rec = engine_obs.recorder().expect("recording");
        let executed = traced
            .samples
            .iter()
            .filter(|s| s.exec.executions > 0)
            .count()
            .max(1) as f64;
        let counters = rec.counters();
        let count = |c: &HashMap<String, f64>, name: &str| c.get(name).copied().unwrap_or(0.0);
        let per_exec =
            |name: &str| (count(&counters, name) - count(&warm_counters, name)) / executed;
        let skew_counters = (per_exec("skew.donors"), per_exec("skew.hot_keys"));
        write_trace(
            args,
            rec,
            spans.recorder().expect("recording"),
            &traced.samples,
        )?;
        let (qps_untraced, qps_traced) = (untraced.qps(), traced.qps());
        let cache: [u64; 4] = std::array::from_fn(|i| untraced.cache[i] + traced.cache[i]);
        let mut samples = untraced.samples;
        samples.extend(traced.samples);
        report::per_layer(&PerLayer {
            window: &samples,
            qps_untraced,
            qps_traced,
            cache,
            cache_bytes: traced.cache_bytes,
            columns_build_ms: columns_build_ms(&data),
            gmdj_eval_ms: gmdj_eval_ms(&ctx)?,
            skew_counters,
        })?
    } else {
        if traffic.len() as u64 != n_traffic {
            return Err(format!(
                "traffic prefix has {} of {n_traffic} operations",
                traffic.len()
            ));
        }
        report::end_to_end(&EndToEnd {
            setup_s: &setup_s,
            cold_s: &cold_s,
            window: &untraced.samples,
            window_s: untraced.elapsed_s,
            cpu_s: untraced.cpu_s,
            traffic: &traffic,
            peak_rss_mb,
        })?
    };

    let t = Instant::now();
    let mismatches = run::verify(&ctx, &all.kept);
    let check_s = t.elapsed().as_secs_f64();
    let failed = all.failed + mismatches;
    println!(
        "checked {} answers against the oracle in {check_s:.3} s: {mismatches} mismatches; failed_frac {:.6} ({failed} of {})",
        all.kept.len(),
        failed as f64 / all.attempted as f64,
        all.attempted
    );
    let declared = if args.trace {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    };
    for (name, unit) in declared {
        if let Some((_, v)) = values.iter().find(|(n, _)| n == name) {
            let note = if args.trace && !report::applies(w, name) {
                "  n/a: layer not run on this workload"
            } else {
                ""
            };
            println!("  {name:<28} {v:>16.4} {unit}{note}");
        }
    }
    report::result_line(failed == 0, all.attempted, failed, declared, &values)
}

/// Write the merged Chrome trace (engine and bench-side spans) and the
/// traced slices' per-layer self-time table under [`OUT_DIR`].
fn write_trace(
    args: &Args,
    engine: &Recorder,
    bench: &Recorder,
    traced: &[Sample],
) -> Result<(), String> {
    let offset = bench.wall_start_unix_us() as i64 - engine.wall_start_unix_us() as i64;
    engine.import_remote(bench.take_delta(&mut ExportCursor::default()), offset);
    let table = report::layer_table(traced);
    println!("per-layer self time, traced slices:\n{table}");
    let stem = format!("{OUT_DIR}/{}-seed{}", args.workload.name(), args.seed);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let trace_path = format!("{stem}.trace.json");
    std::fs::write(&trace_path, skalla_obs::chrome::write_chrome_trace(engine))
        .map_err(|e| format!("{trace_path}: {e}"))?;
    let table_path = format!("{stem}.layers.txt");
    std::fs::write(&table_path, &table).map_err(|e| format!("{table_path}: {e}"))?;
    println!("wrote {trace_path} and {table_path}");
    Ok(())
}

/// Median time to build the columnar layout of a never-built copy of
/// each site partition.
fn columns_build_ms(data: &Dataset) -> f64 {
    let times: Vec<f64> = data
        .fresh_parts()
        .iter()
        .map(|p| {
            let t = Instant::now();
            std::hint::black_box(p.relation.columns());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    measure::median(&times)
}

/// Warm centralized evaluation of the workload's first query over site
/// 0's partition: median of three after one untimed run.
fn gmdj_eval_ms(ctx: &Ctx) -> Result<f64, String> {
    let Op::Query(text) = ctx.stream.op(0, 0) else {
        return Err("the first operation is not a query".into());
    };
    let expr = compile_text(&text).map_err(|e| e.to_string())?;
    let site0: HashMap<String, Relation> = HashMap::from([(
        ctx.data.table.to_string(),
        ctx.data.parts[0].relation.clone(),
    )]);
    let mut times = Vec::new();
    for rep in 0..4 {
        let t = Instant::now();
        std::hint::black_box(
            expr.eval_centralized(&site0, EvalOptions::default())
                .map_err(|e| e.to_string())?,
        );
        if rep > 0 {
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(measure::median(&times))
}
