//! The `bfs-rmat` workload: direction-optimizing BFS (`bfs_levels_on` on
//! `Sequential`) over a Graph500 RMAT graph, scale 18, edge factor 16.

use crate::host::{self, Host};
use crate::stats::{fastest, harmonic_mean, median, quantile, tail, Metrics, Ops, Rng};
use crate::trace::SpanAgg;
use crate::Run;
use graphblas::algorithms::{bfs_levels, bfs_levels_dense, bfs_levels_on, FrontierStats};
use graphblas::{ctx, ctx_on, CsrMatrix, Distributed, GraphMatrix, Sequential};
use hpcg_bench::rmat::{rmat_adjacency, RmatConfig};
use std::time::Instant;

/// log2 of the vertex count.
pub const SCALE: u32 = 18;
/// Generated edges per vertex.
pub const EDGE_FACTOR: usize = 16;
/// Distinct BFS roots per run.
const ROOTS: usize = 16;
/// Set-ups per run; the reported `setup_s` is the fastest. Each one
/// generates the graph (about 9 s on a 2-CPU Xeon), so there are two.
const SETUPS: usize = 2;

/// The symmetric, self-loop-free RMAT adjacency (Graph500 parameters)
/// with unit weights, from the workspace's shared generator.
pub fn rmat_graph(scale: u32, edge_factor: usize, seed: u64) -> CsrMatrix<f64> {
    rmat_adjacency(RmatConfig {
        scale,
        edge_factor,
        seed,
    })
}

/// `count` distinct roots drawn with `seed` from the component of the
/// highest-degree vertex, which in an RMAT graph is the giant one.
///
/// Graph500 draws roots among all vertices with an edge, but an RMAT
/// graph also has components of two or three vertices. A traversal from
/// one of them costs only the call overhead, and one such root among
/// sixteen sets the harmonic-mean TEPS, so whether a seed happens to
/// draw one would decide the figure.
pub fn pick_roots(a: &CsrMatrix<f64>, count: usize, seed: u64) -> Vec<usize> {
    let hub = (0..a.nrows())
        .max_by_key(|&v| a.row_nnz(v))
        .expect("graph has vertices");
    let reach = bfs_levels(ctx::<Sequential>(), a, hub).expect("BFS from the hub");
    let mut rng = Rng::new(seed.wrapping_add(0x0bf5));
    let mut roots = Vec::with_capacity(count);
    while roots.len() < count {
        let v = rng.below(a.nrows());
        if reach[v] >= 0 && !roots.contains(&v) {
            roots.push(v);
        }
    }
    roots
}

/// Undirected edges inside the traversed component (Graph500's TEPS
/// numerator): half the degree sum of the reached vertices.
pub fn traversed_edges(a: &CsrMatrix<f64>, levels: &[i64]) -> f64 {
    let deg: usize = levels
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l >= 0)
        .map(|(v, _)| a.row_nnz(v))
        .sum();
    deg as f64 / 2.0
}

/// Counts one checked traversal, failed unless `got` equals `want`.
pub fn check_levels(got: &[i64], want: &[i64], ops: &mut Ops) {
    ops.check(got == want);
}

struct Graph {
    g: GraphMatrix<f64>,
    roots: Vec<usize>,
}

fn set_up(seed: u64) -> Graph {
    let a = rmat_graph(SCALE, EDGE_FACTOR, seed);
    let roots = pick_roots(&a, ROOTS, seed);
    let g = GraphMatrix::from_csr(a);
    bfs_levels_on(ctx::<Sequential>(), &g, roots[0]).expect("warm-up BFS");
    Graph { g, roots }
}

/// One BFS from `root`: its levels, frontier counts and seconds.
fn bfs(g: &GraphMatrix<f64>, root: usize) -> (Vec<i64>, FrontierStats, f64) {
    let t = Instant::now();
    let (levels, stats) = bfs_levels_on(ctx::<Sequential>(), g, root).expect("BFS");
    (levels, stats, t.elapsed().as_secs_f64())
}

/// Runs the BFS workload.
pub fn run(cfg: &Run, host: &Host, m: &mut Metrics, ops: &mut Ops) {
    let mut setup_secs = Vec::new();
    let mut graph = None;
    for _ in 0..SETUPS {
        drop(graph.take());
        let t = Instant::now();
        graph = Some(set_up(cfg.seed));
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let Graph { g, roots } = graph.expect("at least one set-up");
    let a = g.csr();
    let mb = 1024.0 * 1024.0;
    println!(
        "bfs: RMAT scale {SCALE}, edge factor {EDGE_FACTOR}: {} vertices, {} stored edges; \
         CSR+CSC {:.1} MiB vs L2 {:.1} MiB and LLC {:.1} MiB; {} roots",
        a.nrows(),
        a.nnz(),
        (a.storage_bytes() + g.csc().storage_bytes()) as f64 / mb,
        host.l2_bytes as f64 / mb,
        host.llc_bytes as f64 / mb,
        roots.len()
    );

    // Reference levels from the dense-frontier baseline, one per root.
    let mut want = Vec::with_capacity(roots.len());
    let mut dense_teps = Vec::with_capacity(roots.len());
    for &r in &roots {
        let t = Instant::now();
        let levels = bfs_levels_dense(ctx::<Sequential>(), a, r).expect("dense BFS");
        dense_teps.push(traversed_edges(a, &levels) / t.elapsed().as_secs_f64());
        want.push(levels);
    }
    let edges: Vec<f64> = want.iter().map(|l| traversed_edges(a, l)).collect();

    let start = Instant::now();
    let (mut secs, mut teps) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < roots.len() || start.elapsed().as_secs_f64() < cfg.seconds {
        let k = i % roots.len();
        let (levels, _, s) = bfs(&g, roots[k]);
        check_levels(&levels, &want[k], ops);
        secs.push(s);
        teps.push(edges[k] / s);
        i += 1;
    }
    let hm = harmonic_mean(&teps);
    m.set("throughput", hm);
    m.set("p50_ms", quantile(&secs, 0.5) * 1e3);
    let (tail_q, tail_s) = tail(&secs);
    m.set("latency.tail_ms", tail_s * 1e3);
    m.set("latency.samples", secs.len() as f64);
    m.set("setup_s", fastest(&setup_secs));
    println!(
        "bfs: {} traversals checked against bfs_levels_dense; teps {:.4e} edges/s \
         (harmonic mean); BFS p50 {:.3} ms, p{:.1} {:.3} ms",
        secs.len(),
        hm,
        quantile(&secs, 0.5) * 1e3,
        tail_q * 100.0,
        tail_s * 1e3
    );

    if cfg.trace {
        let mut spans = SpanAgg::start();
        obs::set_enabled(true);
        let (mut root_ms, mut push, mut pull) = (Vec::new(), 0, 0);
        for (k, &r) in roots.iter().enumerate() {
            let (levels, stats, s) = bfs(&g, r);
            check_levels(&levels, &want[k], ops);
            root_ms.push(s * 1e3);
            push += stats.push_steps;
            pull += stats.pull_steps;
        }
        obs::set_enabled(false);
        spans.drain();
        m.set("bfs.root_ms_p50", quantile(&root_ms, 0.5));
        m.set("bfs.root_ms_p90", quantile(&root_ms, 0.9));
        m.set("bfs.push_steps", push as f64);
        m.set("bfs.pull_steps", pull as f64);
        m.set("bfs.dense_teps", harmonic_mean(&dense_teps));
        let cluster = Distributed::new(2);
        let (levels, _) = bfs_levels_on(ctx_on(cluster), &g, roots[0]).expect("dist:2 BFS");
        check_levels(&levels, &want[0], ops);
        let h: f64 = cluster.take_steps().iter().map(|s| s.h_bytes).sum();
        m.set("bfs.dist2_h_bytes", h);
        let untraced_ms = quantile(&secs, 0.5) * 1e3;
        m.set(
            "trace.overhead_pct",
            100.0 * (median(&root_ms) / untraced_ms - 1.0),
        );
        m.set("trace.dropped_spans", spans.dropped as f64);
    }
    m.set("peak_rss_mb", host::peak_rss_mib());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_graph_is_symmetric_and_seeded() {
        let a = rmat_graph(8, 8, 3);
        assert!(a.is_symmetric());
        assert!((0..a.nrows()).all(|v| a.get(v, v).is_none()));
        assert_eq!(a, rmat_graph(8, 8, 3));
        assert_ne!(a, rmat_graph(8, 8, 4));
    }

    #[test]
    fn roots_are_distinct_and_in_one_component() {
        let a = rmat_graph(8, 8, 1);
        let roots = pick_roots(&a, 16, 1);
        assert_eq!(roots.len(), 16);
        let reach = bfs_levels(ctx::<Sequential>(), &a, roots[0]).unwrap();
        assert!(roots.iter().all(|&r| a.row_nnz(r) > 0 && reach[r] >= 0));
        assert_eq!(roots, pick_roots(&a, 16, 1));
    }

    #[test]
    fn corrupted_levels_count_as_a_failed_op() {
        let a = rmat_graph(8, 8, 2);
        let g = GraphMatrix::from_csr(a.clone());
        let root = pick_roots(&a, 1, 2)[0];
        let want = bfs_levels_dense(ctx::<Sequential>(), &a, root).unwrap();
        let (mut got, _, _) = bfs(&g, root);
        let mut ops = Ops::default();
        check_levels(&got, &want, &mut ops);
        assert_eq!(
            ops,
            Ops {
                attempted: 1,
                failed: 0
            }
        );
        let v = got.iter().position(|&l| l > 0).unwrap();
        got[v] += 1;
        check_levels(&got, &want, &mut ops);
        assert_eq!(
            ops,
            Ops {
                attempted: 2,
                failed: 1
            }
        );
    }
}
