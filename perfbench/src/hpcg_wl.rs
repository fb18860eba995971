//! The `hpcg-par` and `hpcg-dist2` workloads: ALP HPCG (`GrbHpcg` on a
//! runtime-selected backend) on the 48³ reference problem with 4
//! multigrid levels and deferred plans on.

use crate::adapter::{iteration_secs, Class, Mode, Timed};
use crate::host::{self, Host};
use crate::stats::{fastest, median, ratio, tail, Metrics, Ops};
use crate::trace::{self, SpanAgg};
use crate::Run;
use graphblas::backend::dist::cost::spmv_bytes;
use graphblas::{BackendKind, CostSummary, Distributed, DynCtx, Sequential};
use hpcg::{
    flops_per_iteration, run_with_rhs, validate, GrbHpcg, Grid3, Problem, RefHpcg, RhsVariant,
    RunConfig,
};
use std::time::Instant;

/// Grid edge of the benchmark problem.
pub const SIZE: usize = 48;
/// Multigrid levels.
pub const LEVELS: usize = 4;
/// CG iterations per timed solve (one official HPCG set).
pub const ITERS: usize = 50;
/// Iteration cap of the validation solves.
const VALIDATION_ITERS: usize = 500;
/// Set-ups before each timed solve. The run alternates set-ups and
/// solves, so its set-ups are spread over the whole measurement window
/// and `setup_s`, the fastest of them, does not hinge on one stall of
/// the host.
const SETUPS_PER_SOLVE: usize = 4;

/// The backend an HPCG workload runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// `par`: the shared-memory backend.
    Par,
    /// `dist:2`: a two-node sharded cluster.
    Dist2,
}

type Alp = Timed<GrbHpcg<BackendKind>>;

struct Instance {
    k: Alp,
    b: graphblas::Vector<f64>,
    flops: f64,
    cluster: Option<Distributed>,
}

/// Builds the problem, the containers and (on `dist:2`) the cluster, and
/// runs one warm-up iteration, which compiles every per-level plan.
fn set_up(target: Target) -> Instance {
    let problem = Problem::build_with(Grid3::cube(SIZE), LEVELS, RhsVariant::Reference)
        .expect("48^3 problem builds");
    let flops = flops_per_iteration(&problem);
    let b = problem.b.clone();
    let (kind, cluster) = match target {
        Target::Par => (BackendKind::Parallel, None),
        Target::Dist2 => {
            let d = Distributed::new(2);
            (BackendKind::Dist(d), Some(d))
        }
    };
    let mut k = Timed::new(
        GrbHpcg::with_ctx(problem, DynCtx::runtime(kind)),
        Mode::Iterations,
    );
    let warm = RunConfig {
        iterations: 1,
        preconditioned: true,
    };
    run_with_rhs(&mut k, &b, flops, warm);
    if let Some(d) = cluster {
        d.take_steps();
    }
    Instance {
        k,
        b,
        flops,
        cluster,
    }
}

/// One timed 50-iteration solve: its residual history, iteration end
/// stamps, per-call log, drained spans and (on `dist:2`) supersteps.
struct Solve {
    history: Vec<f64>,
    stamps: Vec<Instant>,
    log: crate::adapter::CallLog,
    spans: Option<SpanAgg>,
    steps: Vec<bsp::StepCost>,
    wall_secs: f64,
}

fn solve(inst: &mut Instance, spans: Option<SpanAgg>) -> Solve {
    let cfg = RunConfig {
        iterations: ITERS,
        preconditioned: true,
    };
    let t0 = Instant::now();
    inst.k.begin(spans);
    let (_, cg) = run_with_rhs(&mut inst.k, &inst.b, inst.flops, cfg);
    let (log, stamps, spans) = inst.k.end();
    let wall_secs = t0.elapsed().as_secs_f64();
    Solve {
        history: cg.residual_history,
        stamps,
        log,
        spans,
        steps: inst.cluster.map(|d| d.take_steps()).unwrap_or_default(),
        wall_secs,
    }
}

/// Alternates [`SETUPS_PER_SOLVE`] fresh set-ups (each replacing the
/// last instance) with one timed solve until `seconds` are (about to be)
/// used up; at least one round. Returns the last instance, every set-up's
/// seconds and the solves.
fn rounds(target: Target, seconds: f64) -> (Instance, Vec<f64>, Vec<Solve>) {
    let start = Instant::now();
    let (mut inst, mut setup_secs, mut solves) = (None, Vec::new(), Vec::<Solve>::new());
    loop {
        let round = Instant::now();
        for _ in 0..SETUPS_PER_SOLVE {
            drop(inst.take());
            let t = Instant::now();
            inst = Some(set_up(target));
            setup_secs.push(t.elapsed().as_secs_f64());
        }
        let i = inst.as_mut().expect("set up this round");
        solves.push(solve(i, None));
        let last = round.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + 0.5 * last >= seconds {
            return (inst.expect("set up"), setup_secs, solves);
        }
    }
}

/// Relative distance a `par` residual may have from `Sequential`: the
/// parallel backend reassociates its reductions (fixed chunks, so the
/// result is deterministic but not in sequential order).
pub const PAR_RTOL: f64 = 1e-6;

/// Checks every timed solve's residual history and counts each wrong one
/// as a failed op. With `exact` (backends that keep the sequential
/// order, like `dist:2`) a history must equal the `Sequential` one bit
/// for bit; otherwise it must equal the first run bit for bit
/// (determinism) and stay within [`PAR_RTOL`] of `Sequential`. Returns
/// the largest relative distance from `Sequential`.
pub fn check_histories(reference: &[f64], runs: &[Vec<f64>], exact: bool, ops: &mut Ops) -> f64 {
    let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut worst = 0.0f64;
    for h in runs {
        let rel = if h.len() == reference.len() {
            h.iter()
                .zip(reference)
                .map(|(a, b)| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE))
                .fold(0.0, f64::max)
        } else {
            f64::INFINITY
        };
        worst = worst.max(rel);
        let ok = if exact {
            bits(h) == bits(reference)
        } else {
            bits(h) == bits(&runs[0]) && rel <= PAR_RTOL
        };
        ops.check(ok);
    }
    worst
}

/// Bytes of the level matrices in CSR (8-byte values, 4-byte column
/// indices, 8-byte row pointers) plus ten vectors per level.
fn working_set_bytes(p: &Problem) -> f64 {
    p.levels
        .iter()
        .map(|l| (l.a.nnz() * 12 + l.n() * 8 + 10 * l.n() * 8) as f64)
        .sum()
}

/// Runs one HPCG workload.
pub fn run(target: Target, cfg: &Run, host: &Host, m: &mut Metrics, ops: &mut Ops) {
    let main_tid = trace::current_tid();
    let (mut inst, setup_secs, solves) = rounds(target, cfg.seconds);
    let problem = inst.k.inner().problem().clone();
    let ws = working_set_bytes(&problem);
    let mb = 1024.0 * 1024.0;
    println!(
        "hpcg: {SIZE}^3, {LEVELS} levels, {} rows, {} nnz on the fine grid; \
         working set {:.1} MiB vs L2 {:.1} MiB and LLC {:.1} MiB",
        problem.n(),
        problem.levels[0].a.nnz(),
        ws / mb,
        host.l2_bytes as f64 / mb,
        host.llc_bytes as f64 / mb
    );

    let iter_secs: Vec<f64> = solves
        .iter()
        .flat_map(|s| iteration_secs(&s.stamps, ITERS))
        .collect();
    // Every solve does the same work on a fresh set-up, and co-tenants of
    // the host can slow whole seconds of a run, so the quietest solve's
    // median iteration is the steadiest reading of the code.
    let solve_p50: Vec<f64> = solves
        .iter()
        .map(|s| median(&iteration_secs(&s.stamps, ITERS)))
        .collect();
    let t_iter = fastest(&solve_p50);
    m.set("throughput", inst.flops / t_iter);
    m.set("p50_ms", t_iter * 1e3);
    let (tail_q, tail_s) = tail(&iter_secs);
    m.set("latency.tail_ms", tail_s * 1e3);
    m.set("latency.samples", iter_secs.len() as f64);
    m.set("setup_s", fastest(&setup_secs));
    let total_iters = (solves.len() * ITERS) as f64;
    let total_secs: f64 = solves.iter().map(|s| s.wall_secs).sum();
    println!(
        "hpcg: {} timed solve(s) x {ITERS} iterations; gflops {:.4} GFLOP/s \
         (median iteration of the quietest solve), {:.4} GFLOP/s (all solves, whole); \
         iteration p50 {:.3} ms (per solve {:.3?}), p{:.1} {:.3} ms over {} iterations; \
         {} set-ups, fastest {:.4} s, median {:.4} s",
        solves.len(),
        inst.flops / t_iter / 1e9,
        inst.flops * total_iters / total_secs / 1e9,
        t_iter * 1e3,
        solve_p50.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
        tail_q * 100.0,
        tail_s * 1e3,
        iter_secs.len(),
        setup_secs.len(),
        fastest(&setup_secs),
        median(&setup_secs)
    );

    // The traced run sets up once more with tracing on, so its plan
    // compiles are seen, then runs one traced solve.
    let mut traced = None;
    let mut setup_spans = SpanAgg::default();
    if cfg.trace {
        drop(inst);
        setup_spans = SpanAgg::start();
        obs::set_enabled(true);
        inst = set_up(target);
        setup_spans.drain();
        inst.k.set_mode(Mode::Layers);
        traced = Some(solve(&mut inst, Some(SpanAgg::start())));
        inst.k.set_mode(Mode::Iterations);
        obs::set_enabled(false);
    }

    // Correctness: HPCG validation on the benchmarked kernels, and every
    // timed solve's residual history against `Sequential`.
    let report = validate(&mut inst.k, &inst.b, VALIDATION_ITERS);
    ops.check(report.passed);
    let mut seq = GrbHpcg::<Sequential>::new(problem.clone());
    let seq_cfg = RunConfig {
        iterations: ITERS,
        preconditioned: true,
    };
    let (seq_report, seq_cg) = run_with_rhs(&mut seq, &problem.b, inst.flops, seq_cfg);
    let mut histories: Vec<Vec<f64>> = solves.iter().map(|s| s.history.clone()).collect();
    if let Some(t) = &traced {
        histories.push(t.history.clone());
    }
    let exact = target == Target::Dist2;
    let worst = check_histories(&seq_cg.residual_history, &histories, exact, ops);
    println!(
        "hpcg: validation {} (PCG {} iterations to 1e-8, plain CG {}); \
         {} residual histories checked against Sequential ({}), largest relative distance {worst:.3e}",
        if report.passed { "PASSED" } else { "FAILED" },
        report.pcg_iterations,
        report.plain_cg_iterations,
        histories.len(),
        if exact { "bit for bit" } else { "deterministic, within 1e-6" }
    );

    if let Some(t) = traced {
        let spans = t.spans.as_ref().expect("traced solve drains spans");
        let log = &t.log;
        let kernel = log.kernel_secs();
        let glue = log.glue_secs + log.drain_secs;
        // Every blocking step is inside a kernel call or between two.
        ops.check((kernel + glue - t.wall_secs).abs() <= 0.01 * t.wall_secs);
        m.set("hpcg.spmv_s", log.class_secs(Class::Spmv));
        m.set("hpcg.smooth_s", log.class_secs(Class::Smooth));
        m.set("hpcg.transfer_s", log.class_secs(Class::Transfer));
        m.set("hpcg.dot_s", log.class_secs(Class::Dot));
        m.set("hpcg.update_s", log.class_secs(Class::Update));
        m.set("hpcg.glue_s", glue);
        m.set("hpcg.coarse_share", ratio(log.coarse_secs(), kernel));
        m.set(
            "hpcg.calls_per_iter",
            log.total_calls() as f64 / ITERS as f64,
        );
        m.set("hpcg.pcg_iters_1e8", report.pcg_iterations as f64);

        // Kernel bandwidth from the CSR byte model (computed, not counted).
        let (mut spmv_b, mut smooth_b) = (0.0, 0.0);
        for (l, lvl) in problem.levels.iter().enumerate() {
            let bytes = spmv_bytes(lvl.a.nnz(), lvl.n());
            spmv_b += log.calls[l][Class::Spmv as usize] as f64 * bytes;
            smooth_b += log.calls[l][Class::Smooth as usize] as f64 * 2.0 * bytes;
        }
        let spmv_gbs = spmv_b / log.class_secs(Class::Spmv) / 1e9;
        m.set("kernel.spmv_gbs", spmv_gbs);
        m.set(
            "kernel.smooth_gbs",
            smooth_b / log.class_secs(Class::Smooth) / 1e9,
        );
        let ws_gbs = host::triad_gbs(host::triad_elems_for_total(ws), host.threads(), 10);
        m.set("host.triad_ws_gbs", ws_gbs);
        m.set("host.working_set_mb", ws / mb);
        m.set("kernel.spmv_roof_pct", 100.0 * spmv_gbs / ws_gbs);

        m.set("plan.run_s", spans.secs("plan.run"));
        let compiles = setup_spans.count("plan.compile") + spans.count("plan.compile");
        let lookups = setup_spans.count("plan.cache") + spans.count("plan.cache");
        m.set(
            "plan.compile_s",
            setup_spans.secs("plan.compile") + spans.secs("plan.compile"),
        );
        m.set(
            "plan.hit_ratio",
            1.0 - ratio(compiles as f64, lookups as f64),
        );
        m.set("ctx.self_s", kernel - spans.top_level_secs(main_tid));

        m.set("runtime.par_call_us", host::par_call_us(2000));
        m.set("runtime.empty_step_us", host::empty_step_us(500));
        let steps = &t.steps;
        m.set(
            "runtime.supersteps_per_iter",
            steps.len() as f64 / ITERS as f64,
        );
        let step_us: Vec<f64> = steps.iter().map(|s| s.measured_secs * 1e6).collect();
        m.set("runtime.superstep_us_p50", median(&step_us));
        let h: f64 = steps.iter().map(|s| s.h_bytes).sum();
        m.set("exchange.h_bytes_per_iter", h / ITERS as f64);
        m.set("exchange.wait_s", spans.secs("shard.exchange"));
        m.set("shard.interior_s", spans.secs("shard.interior"));
        m.set("shard.boundary_s", spans.secs("shard.boundary"));
        m.set(
            "exchange.hidden_s",
            steps.iter().map(|s| s.overlap_hidden_secs).sum(),
        );
        if let Some(d) = inst.cluster {
            let summary = CostSummary::from_steps(d.nodes(), d.layout().name(), steps);
            m.set("bsp.model_error", summary.model_error());
        }

        let traced_iter = median(&iteration_secs(&t.stamps, ITERS));
        m.set("trace.overhead_pct", 100.0 * (traced_iter / t_iter - 1.0));
        m.set("trace.dropped_spans", spans.dropped as f64);

        if target == Target::Par {
            let llc = host.llc_bytes.max(64 << 20) as f64;
            let elems = (4.0 * llc / 8.0).ceil() as usize;
            m.set(
                "host.triad_dram_gbs",
                host::triad_gbs(elems, host.threads(), 3),
            );
            let mut r = RefHpcg::new(problem.clone());
            let b = problem.b.as_slice().to_vec();
            let (ref_report, _) = run_with_rhs(&mut r, &b, inst.flops, seq_cfg);
            m.set("ref.gflops", ref_report.gflops);
            m.set("seq.gflops", seq_report.gflops);
        }
        println!(
            "hpcg traced: {} spans, {} dropped; kernel {:.3} s + glue {:.3} s = wall {:.3} s",
            spans.records.len(),
            spans.dropped,
            kernel,
            glue,
            t.wall_secs
        );
    }
    m.set("peak_rss_mb", host::peak_rss_mib());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_history_counts_as_a_failed_op() {
        let seq = vec![3.0, 2.0, 1.0];
        let mut ops = Ops::default();
        check_histories(&seq, &[seq.clone(), seq.clone()], true, &mut ops);
        assert_eq!(
            ops,
            Ops {
                attempted: 2,
                failed: 0
            }
        );
        let mut bad = seq.clone();
        bad[1] = f64::from_bits(bad[1].to_bits() + 1);
        let mut ops = Ops::default();
        check_histories(&seq, &[seq.clone(), bad.clone()], true, &mut ops);
        assert_eq!(
            ops,
            Ops {
                attempted: 2,
                failed: 1
            }
        );
        // Off by one ulp is within tolerance but breaks determinism.
        let mut ops = Ops::default();
        check_histories(&seq, &[seq.clone(), bad], false, &mut ops);
        assert_eq!(
            ops,
            Ops {
                attempted: 2,
                failed: 1
            }
        );
        let mut far = seq.clone();
        far[2] *= 1.0 + 1e-4;
        let mut ops = Ops::default();
        check_histories(&seq, &[far.clone(), far], false, &mut ops);
        assert_eq!(
            ops,
            Ops {
                attempted: 2,
                failed: 2
            }
        );
    }
}
