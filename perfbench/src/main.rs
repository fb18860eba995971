//! The repository benchmark: one command, four workloads.
//!
//! ```text
//! perfbench --workload <hpcg-par|hpcg-dist2|bfs-rmat|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from the seed, sets itself up several
//! times (`setup_s` is the fastest), measures for about `--seconds`
//! seconds, checks every output, and prints its metrics: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod adapter;
mod bfs_wl;
mod host;
mod hpcg_wl;
mod serve_wl;
mod stats;
mod trace;

use stats::{Metrics, Ops};
use std::process::ExitCode;

/// The parsed command line.
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["hpcg-par", "hpcg-dist2", "bfs-rmat", "serve-mix"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput", "work/s"),
    ("p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer the workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("latency.tail_ms", "ms"),
    ("latency.samples", "count"),
    ("hpcg.spmv_s", "s"),
    ("hpcg.smooth_s", "s"),
    ("hpcg.transfer_s", "s"),
    ("hpcg.dot_s", "s"),
    ("hpcg.update_s", "s"),
    ("hpcg.glue_s", "s"),
    ("hpcg.coarse_share", "ratio"),
    ("hpcg.calls_per_iter", "count"),
    ("hpcg.pcg_iters_1e8", "count"),
    ("kernel.spmv_gbs", "GB/s"),
    ("kernel.smooth_gbs", "GB/s"),
    ("kernel.spmv_roof_pct", "%"),
    ("host.triad_dram_gbs", "GB/s"),
    ("host.triad_ws_gbs", "GB/s"),
    ("host.working_set_mb", "MiB"),
    ("plan.run_s", "s"),
    ("plan.compile_s", "s"),
    ("plan.hit_ratio", "ratio"),
    ("ctx.self_s", "s"),
    ("runtime.par_call_us", "us"),
    ("runtime.empty_step_us", "us"),
    ("runtime.supersteps_per_iter", "count"),
    ("runtime.superstep_us_p50", "us"),
    ("exchange.h_bytes_per_iter", "B"),
    ("exchange.wait_s", "s"),
    ("shard.interior_s", "s"),
    ("shard.boundary_s", "s"),
    ("exchange.hidden_s", "s"),
    ("bsp.model_error", "ratio"),
    ("bfs.root_ms_p50", "ms"),
    ("bfs.root_ms_p90", "ms"),
    ("bfs.push_steps", "count"),
    ("bfs.pull_steps", "count"),
    ("bfs.dense_teps", "edges/s"),
    ("bfs.dist2_h_bytes", "B"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.exec_ms_p50.mxv", "ms"),
    ("serve.exec_ms_p50.cg", "ms"),
    ("serve.exec_ms_p50.bfs", "ms"),
    ("serve.batch_share", "ratio"),
    ("serve.plan_hit_ratio", "ratio"),
    ("serve.refused", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.late_ms_p99", "ms"),
    ("serve.ladder_rps", "jobs/s"),
    ("ref.gflops", "GFLOP/s"),
    ("seq.gflops", "GFLOP/s"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped_spans", "count"),
];

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?})",
            run.workload
        ));
    }
    if run.seconds.is_nan() || run.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(run)
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`
/// with exactly the metrics of `table`, each carrying its unit.
fn result_json(ops: Ops, m: &Metrics, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            // `+ 0.0` turns the -0 of an empty sum into 0.
            let v = m.get(name).filter(|v| v.is_finite()).unwrap_or(0.0) + 0.0;
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ops.failed == 0 && ops.attempted > 0,
        ops.attempted,
        ops.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::gather();
    println!("{}", host.describe());
    println!(
        "workload {} | seed {} | {} s | trace {}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );
    let (mut m, mut ops) = (Metrics::default(), Ops::default());
    match run.workload.as_str() {
        "hpcg-par" => hpcg_wl::run(hpcg_wl::Target::Par, &run, &host, &mut m, &mut ops),
        "hpcg-dist2" => hpcg_wl::run(hpcg_wl::Target::Dist2, &run, &host, &mut m, &mut ops),
        "bfs-rmat" => bfs_wl::run(&run, &host, &mut m, &mut ops),
        "serve-mix" => serve_wl::run(&run, &mut m, &mut ops),
        _ => unreachable!("validated by parse_args"),
    }
    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        println!("{name:<28} {:>16.6} {unit}", m.get(name).unwrap_or(0.0));
    }
    println!("checks: {} attempted, {} failed", ops.attempted, ops.failed);
    println!("{}", result_json(ops, &m, table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let compact: String = text.split_whitespace().collect();
        for w in WORKLOADS {
            assert!(compact.contains(&format!("\"name\":\"{w}\"")), "{w}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{entry}");
        }
        let names = compact.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_metric_of_the_table() {
        let mut m = Metrics::default();
        m.set("p50_ms", 1.25);
        let ops = Ops {
            attempted: 3,
            failed: 1,
        };
        let line = result_json(ops, &m, &END_TO_END);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));
        assert!(line.contains("\"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}"));
        assert_eq!(line.matches("\"value\":").count(), END_TO_END.len());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let run = parse_args(&args("--workload bfs-rmat --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!((run.seed, run.seconds, run.trace), (7, 2.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload bfs-rmat --trace 2")).is_err());
        assert!(parse_args(&args("--workload bfs-rmat --seed")).is_err());
    }
}
