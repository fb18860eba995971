//! The `serve-mix` workload: an in-process `Server` with two workers,
//! driven as an open loop — one thread submits jobs at fixed due times,
//! a few threads wait for the replies — by two tenants sending a seeded
//! mix of `mxv`, `cg`, `bfs`, `dot` and `put` jobs.

use crate::bfs_wl::{pick_roots, rmat_graph};
use crate::host;
use crate::stats::{fastest, median, quantile, ratio, tail, Metrics, Ops, Rng};
use crate::trace::SpanAgg;
use crate::Run;
use graphblas::{ctx, CsrMatrix, Sequential, Vector};
use hpcg::Grid3;
use serve::protocol::{BackendSpec, JobSpec, Payload, Request};
use serve::{JobTicket, ServeError, Server, ServerConfig};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rate (jobs/s) of the fixed-rate phase: well below the 450 to
/// 1,000 jobs/s the two workers drain on a 2-CPU Xeon, so `p50_ms` is
/// read on a server that keeps up.
pub const RATE: f64 = 100.0;
/// Offered rates of the capacity ladder, lowest first.
pub const LADDER: [f64; 8] = [100.0, 150.0, 225.0, 340.0, 500.0, 750.0, 1100.0, 1600.0];
/// The p99 latency limit a ladder rung must meet.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Worker threads of the server.
const WORKERS: usize = 2;
/// Latency charged to a refused or failed job: it missed the limit.
const MISSED_MS: f64 = 10.0 * P99_LIMIT_MS;
/// Grid edge of the stencil matrix behind `mxv` and `cg` jobs.
const STENCIL: usize = 16;
/// RMAT scale of the `bfs` graph.
const RMAT_SCALE: u32 = 14;
/// CG iterations per `cg` job.
const CG_ITERS: usize = 16;
/// Distinct inputs per job kind.
const POOL: usize = 8;
/// Set-ups per run; the reported `setup_s` is the fastest.
const SETUPS: usize = 9;
/// Windows the fixed-rate phase is split into.
const WINDOWS: usize = 5;
/// Threads waiting for replies. Job `i` goes to collector `i % COLLECTORS`,
/// which waits on its tickets in order, so a slow job delays the observed
/// reply only of the jobs behind it on the same collector.
const COLLECTORS: usize = 4;
const TENANTS: [&str; 2] = ["acme", "zeta"];

/// The kind of one scheduled job.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `mxv` on the stencil matrix (batchable).
    Mxv,
    /// 16-iteration `cg` on the stencil matrix.
    Cg,
    /// `bfs` on the RMAT graph.
    Bfs,
    /// `dot` of two pooled vectors.
    Dot,
    /// `put` re-registering the stencil matrix with identical entries.
    Put,
}

/// One block of the job mix. The shares are those of `serve_bench`'s
/// `job_for` (`mxv` 1/3, `dot` 1/6, `cg` 1/6, `bfs` 1/12) without its
/// `tricount` and `sssp` jobs, which this mix leaves out, so 36 jobs hold
/// 16 `mxv`, 8 `dot`, 8 `cg` and 4 `bfs`. The one `put` per block is
/// chosen, not derived: `job_for` sends no writes.
const BLOCK: [(Kind, usize); 5] = [
    (Kind::Mxv, 16),
    (Kind::Dot, 8),
    (Kind::Cg, 8),
    (Kind::Bfs, 4),
    (Kind::Put, 1),
];
/// Jobs per block of the mix.
const BLOCK_LEN: usize = 37;
/// Jobs in one saturation drain: sixteen blocks of the mix.
const DRAIN: usize = 16 * BLOCK_LEN;
/// Backends `mxv` jobs take in turn, as in `serve_bench`.
const MXV_BACKENDS: [BackendSpec; 3] = [BackendSpec::Seq, BackendSpec::Par, BackendSpec::Dist(2)];

/// One scheduled job: what to send and which pooled input it uses.
#[derive(Copy, Clone, Debug)]
pub struct Planned {
    kind: Kind,
    tenant: usize,
    backend: BackendSpec,
    item: usize,
}

/// The seeded job sequence: blocks of [`BLOCK`] in seeded order, tenants
/// and pooled inputs drawn at random. `mxv` jobs cycle through `seq`,
/// `par` and `dist:2`; every fourth `cg` runs on `dist:2`, the rest on
/// `seq` (`cg` on `par` reassociates its sums, so it could not be checked
/// bit for bit); `bfs`, `dot` and `put` run on `seq`.
pub fn schedule(len: usize, seed: u64) -> Vec<Planned> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
    let (mut mxv_count, mut cg_count) = (0, 0);
    let mut out = Vec::with_capacity(len + BLOCK_LEN);
    while out.len() < len {
        let mut block: Vec<Kind> = BLOCK
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        rng.shuffle(&mut block);
        for kind in block {
            let backend = match kind {
                Kind::Mxv => {
                    mxv_count += 1;
                    MXV_BACKENDS[mxv_count % MXV_BACKENDS.len()]
                }
                Kind::Cg => {
                    cg_count += 1;
                    if cg_count % 4 == 0 {
                        BackendSpec::Dist(2)
                    } else {
                        BackendSpec::Seq
                    }
                }
                _ => BackendSpec::Seq,
            };
            out.push(Planned {
                kind,
                tenant: rng.below(TENANTS.len()),
                backend,
                item: rng.below(POOL),
            });
        }
    }
    out.truncate(len);
    out
}

/// The pooled inputs and, for each, the answer of direct `Sequential`
/// execution outside the server.
pub struct Inputs {
    stencil: CsrMatrix<f64>,
    triplets: Vec<(usize, usize, f64)>,
    graph: CsrMatrix<f64>,
    xs: Vec<Vec<f64>>,
    sources: Vec<usize>,
}

/// The direct `Sequential` answers for every pooled input: `mxv`, `cg`,
/// `bfs` and `dot` per pool slot.
pub struct Expected(Vec<[Payload; 4]>);

fn seeded_vector(n: usize, rng: &mut Rng) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64() - 0.5).collect()
}

/// Direct `Sequential` CG with the same plans and update order as the
/// service's `cg` job.
fn direct_cg(a: &CsrMatrix<f64>, b: &[f64], iters: usize) -> Payload {
    let exec = ctx::<Sequential>();
    let n = a.nrows();
    let spmv = hpcg::fused::build_spmv_dot_plan(exec, n);
    let update = {
        let mut pb = exec.plan::<f64>();
        let xs = pb.output(n);
        let rs = pb.output(n);
        let ps = pb.input(n);
        let aps = pb.input(n);
        let alpha = pb.param(0.0);
        let neg_alpha = pb.param(0.0);
        pb.axpy(xs, alpha, ps);
        pb.axpy(rs, neg_alpha, aps);
        pb.norm2_squared(rs);
        pb.compile()
    };
    let mut x = Vector::zeros(n);
    let mut r = Vector::from_dense(b.to_vec());
    let mut p = r.clone();
    let mut ap = Vector::zeros(n);
    let mut rs_old = exec.norm2_squared(&r).expect("norm");
    let norm0 = rs_old.sqrt();
    let (mut iterations, mut rs_new) = (0, rs_old);
    for _ in 0..iters {
        if rs_old == 0.0 {
            break;
        }
        let p_ap = hpcg::fused::spmv_dot_replay(&spmv, a, &p, &mut ap);
        if p_ap == 0.0 {
            break;
        }
        let alpha = rs_old / p_ap;
        rs_new = {
            let mut bnd = update.bindings();
            bnd.bind_output(update.output_slot(0), &mut x)
                .bind_output(update.output_slot(1), &mut r)
                .bind_input(update.input_slot(0), &p)
                .bind_input(update.input_slot(1), &ap)
                .set(update.param(0), alpha)
                .set(update.param(1), -alpha);
            update.run(&mut bnd).expect("update plan")[update.scalar(0)]
        };
        iterations += 1;
        let mut p_next = r.clone();
        exec.axpy(&mut p_next, rs_new / rs_old, &p).expect("axpy");
        p = p_next;
        rs_old = rs_new;
    }
    Payload::Solve {
        iterations,
        relative_residual: if norm0 > 0.0 {
            rs_new.sqrt() / norm0
        } else {
            0.0
        },
        x: x.as_slice().to_vec(),
    }
}

impl Inputs {
    /// Generates the matrices and input pools from `seed`.
    pub fn new(seed: u64) -> Inputs {
        let stencil = hpcg::problem::build_stencil_matrix(Grid3::cube(STENCIL));
        let triplets: Vec<_> = stencil.iter_entries().collect();
        let graph = rmat_graph(RMAT_SCALE, 16, seed);
        let sources = pick_roots(&graph, POOL, seed);
        let mut rng = Rng::new(seed ^ 0xd07);
        let n = stencil.nrows();
        let xs = (0..POOL + 1).map(|_| seeded_vector(n, &mut rng)).collect();
        Inputs {
            stencil,
            triplets,
            graph,
            xs,
            sources,
        }
    }

    /// Computes every pooled job's answer by direct `Sequential` execution.
    pub fn expected(&self) -> Expected {
        let exec = ctx::<Sequential>();
        let n = self.stencil.nrows();
        Expected(
            (0..POOL)
                .map(|i| {
                    let x = Vector::from_dense(self.xs[i].clone());
                    let mut y = Vector::zeros(n);
                    exec.mxv(&self.stencil, &x).into(&mut y).expect("mxv");
                    let y_next = Vector::from_dense(self.xs[i + 1].clone());
                    let dot = exec.dot(&x, &y_next).compute().expect("dot");
                    let levels =
                        graphblas::algorithms::bfs_levels(exec, &self.graph, self.sources[i])
                            .expect("bfs");
                    [
                        Payload::Vector(y.as_slice().to_vec()),
                        direct_cg(&self.stencil, &self.xs[i], CG_ITERS),
                        Payload::Levels(levels),
                        Payload::Scalar(dot),
                    ]
                })
                .collect(),
        )
    }

    /// The request for one planned job.
    pub fn request(&self, p: &Planned) -> Request {
        let job = match p.kind {
            Kind::Mxv => JobSpec::Mxv {
                matrix: "stencil".into(),
                x: self.xs[p.item].clone(),
            },
            Kind::Cg => JobSpec::Cg {
                matrix: "stencil".into(),
                iters: CG_ITERS,
                b: self.xs[p.item].clone(),
            },
            Kind::Bfs => JobSpec::Bfs {
                matrix: "rmat".into(),
                source: self.sources[p.item],
            },
            Kind::Dot => JobSpec::Dot {
                x: self.xs[p.item].clone(),
                y: self.xs[p.item + 1].clone(),
            },
            Kind::Put => self.put_stencil(),
        };
        Request {
            tenant: TENANTS[p.tenant].into(),
            backend: p.backend,
            job,
        }
    }

    fn put_stencil(&self) -> JobSpec {
        JobSpec::Put {
            name: "stencil".into(),
            nrows: self.stencil.nrows(),
            ncols: self.stencil.ncols(),
            triplets: self.triplets.clone(),
        }
    }
}

impl Expected {
    /// Whether `got` is the direct `Sequential` answer for job `p`.
    pub fn is_correct(&self, p: &Planned, got: &Payload) -> bool {
        let slot = match p.kind {
            Kind::Put => return *got == Payload::Ack,
            Kind::Mxv => 0,
            Kind::Cg => 1,
            Kind::Bfs => 2,
            Kind::Dot => 3,
        };
        *got == self.0[p.item][slot]
    }
}

/// Starts a server, registers the matrices and runs one job of each
/// kind on each backend the mix uses (compiling the `cg` plans and
/// starting the `dist:2` clusters).
fn start_server(inputs: &Inputs) -> Server {
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        // Deep enough that no rung of the ladder is refused: an
        // overloaded rung shows as latency, not as failed jobs.
        queue_bound: 4096,
    });
    let put = |name: &str, a: &CsrMatrix<f64>| Request {
        tenant: "setup".into(),
        backend: BackendSpec::Seq,
        job: JobSpec::Put {
            name: name.into(),
            nrows: a.nrows(),
            ncols: a.ncols(),
            triplets: a.iter_entries().collect(),
        },
    };
    server
        .call(put("stencil", &inputs.stencil))
        .expect("register stencil");
    server
        .call(put("rmat", &inputs.graph))
        .expect("register rmat");
    let warm = [
        (Kind::Mxv, BackendSpec::Seq),
        (Kind::Mxv, BackendSpec::Par),
        (Kind::Mxv, BackendSpec::Dist(2)),
        (Kind::Cg, BackendSpec::Seq),
        (Kind::Cg, BackendSpec::Dist(2)),
        (Kind::Bfs, BackendSpec::Seq),
        (Kind::Dot, BackendSpec::Seq),
    ];
    // Two rounds, so each of the two workers has likely seen every shape.
    for _ in 0..2 {
        let tickets: Vec<JobTicket> = warm
            .iter()
            .map(|&(kind, backend)| {
                let p = Planned {
                    kind,
                    tenant: 0,
                    backend,
                    item: 0,
                };
                let mut request = inputs.request(&p);
                // A tenant of its own keeps the warm-up out of the
                // tenants' latency histograms.
                request.tenant = "setup".into();
                server.submit(request).expect("warm-up submit")
            })
            .collect();
        for t in tickets {
            t.wait().expect("warm-up job");
        }
    }
    server
}

/// What one open-loop phase observed.
#[derive(Default)]
pub struct Phase {
    /// Per-job latency from due time to reply (ms); refused and failed
    /// jobs are charged [`MISSED_MS`].
    pub lat_ms: Vec<f64>,
    /// Per-job lateness of the submitting thread against the due time (ms).
    pub late_ms: Vec<f64>,
    /// Kinds of the accepted jobs, in submission order.
    pub accepted: Vec<Kind>,
    /// Jobs refused with `Overloaded`.
    pub refused: u64,
    /// Largest sampled queue depth.
    pub depth_max: usize,
    /// Checked outcomes.
    pub ops: Ops,
}

impl Phase {
    /// Appends a later phase's observations to this one.
    fn absorb(&mut self, later: Phase) {
        self.lat_ms.extend(later.lat_ms);
        self.late_ms.extend(later.late_ms);
        self.accepted.extend(later.accepted);
        self.refused += later.refused;
        self.depth_max = self.depth_max.max(later.depth_max);
        self.ops = merge(self.ops, later.ops);
    }

    /// p99 latency (ms).
    pub fn p99(&self) -> f64 {
        quantile(&self.lat_ms, 0.99)
    }

    /// Whether the queue kept up: the last tenth of the jobs waited no
    /// longer, at the median, than the limit.
    pub fn steady(&self) -> bool {
        let tail = &self.lat_ms[self.lat_ms.len() * 9 / 10..];
        median(tail) <= P99_LIMIT_MS
    }
}

/// Offers `jobs` at `rate` jobs/s (all at once if `rate` is infinite)
/// and collects every reply.
fn open_loop(
    server: &Server,
    inputs: &Inputs,
    expected: &Expected,
    jobs: &[Planned],
    rate: f64,
) -> Phase {
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..COLLECTORS)
        .map(|_| mpsc::channel::<(usize, Instant, Option<JobTicket>)>())
        .unzip();
    let mut phase = Phase::default();
    std::thread::scope(|s| {
        let collectors: Vec<_> = rxs
            .into_iter()
            .map(|rx| {
                s.spawn(move || {
                    rx.into_iter()
                        .map(|(i, due, ticket): (usize, Instant, Option<JobTicket>)| {
                            let ms = ticket.and_then(|t| {
                                let reply = t.wait();
                                let ms = due.elapsed().as_secs_f64() * 1e3;
                                let ok = matches!(&reply, Ok((payload, _))
                                    if expected.is_correct(&jobs[i], payload));
                                ok.then_some(ms)
                            });
                            (i, ms)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let submitter = s.spawn(move || {
            let start = Instant::now() + Duration::from_millis(2);
            let (mut late, mut accepted, mut refused, mut depth) = (Vec::new(), Vec::new(), 0, 0);
            for (i, p) in jobs.iter().enumerate() {
                let due = if rate.is_finite() {
                    start + Duration::from_secs_f64(i as f64 / rate)
                } else {
                    start
                };
                let request = inputs.request(p);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                late.push((Instant::now() - due).as_secs_f64() * 1e3);
                depth = depth.max(server.queued());
                let ticket = match server.submit(request) {
                    Ok(t) => {
                        accepted.push(p.kind);
                        Some(t)
                    }
                    Err(ServeError::Overloaded { .. }) => {
                        refused += 1;
                        None
                    }
                    Err(e) => panic!("submit failed: {e}"),
                };
                txs[i % COLLECTORS]
                    .send((i, due, ticket))
                    .expect("collector alive");
            }
            (late, accepted, refused, depth)
        });
        let (late, accepted, refused, depth) = submitter.join().expect("submitter");
        let mut lat = vec![MISSED_MS; jobs.len()];
        for c in collectors {
            for (i, ms) in c.join().expect("collector") {
                phase.ops.check(ms.is_some());
                if let Some(ms) = ms {
                    lat[i] = ms;
                }
            }
        }
        phase.lat_ms = lat;
        phase.late_ms = late;
        phase.accepted = accepted;
        phase.refused = refused;
        phase.depth_max = depth;
    });
    phase
}

/// The highest offered rate meeting the p99 limit with a steady queue:
/// the rungs are offered in order until one fails, and the rate where
/// p99 crosses the limit is interpolated (in log latency) between the
/// last passing rung and the failing one.
pub fn max_rate(rungs: &[(f64, f64, bool)]) -> f64 {
    let mut prev: Option<(f64, f64)> = None;
    for &(rate, p99, steady) in rungs {
        if p99 > P99_LIMIT_MS || !steady {
            return match prev {
                None => rate * P99_LIMIT_MS / p99.max(P99_LIMIT_MS),
                Some((r0, p0)) => {
                    // A growing queue fails the rung whatever its p99.
                    let p1 = if steady {
                        p99.max(P99_LIMIT_MS * 1.0001)
                    } else {
                        f64::INFINITY
                    };
                    let f = (P99_LIMIT_MS.ln() - p0.ln()) / (p1.ln() - p0.ln());
                    r0 + (rate - r0) * f.clamp(0.0, 1.0)
                }
            };
        }
        prev = Some((rate, p99));
    }
    prev.map_or(0.0, |(r, _)| r)
}

/// Runs the serve workload: half of `--seconds` in the open loop at
/// [`RATE`] (`p50_ms`), then saturation drains (`throughput`); the
/// traced run adds a traced copy of one open-loop window and the ladder.
pub fn run(cfg: &Run, m: &mut Metrics, ops: &mut Ops) {
    let mut setup_secs = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        if let Some((server, _)) = state.take() {
            Server::shutdown(server);
        }
        let t = Instant::now();
        let inputs = Inputs::new(cfg.seed);
        let server = start_server(&inputs);
        setup_secs.push(t.elapsed().as_secs_f64());
        state = Some((server, inputs));
    }
    let (server, inputs) = state.expect("at least one set-up");
    let expected = inputs.expected();
    // The open loop runs as windows that offer the same job sequence.
    let per_window = (RATE * cfg.seconds / 2.0 / WINDOWS as f64).ceil() as usize;
    let window_jobs = schedule(per_window, cfg.seed);
    let mut fixed = Phase::default();
    let mut window_p50 = Vec::new();
    for _ in 0..WINDOWS {
        let phase = open_loop(&server, &inputs, &expected, &window_jobs, RATE);
        window_p50.push(median(&phase.lat_ms));
        fixed.absorb(phase);
    }
    *ops = merge(*ops, fixed.ops);
    // Read before the drains: their queued requests are the load
    // generator's memory, not the server's.
    m.set("peak_rss_mb", host::peak_rss_mib());
    // Co-tenants of the host can slow whole seconds of a run. A change to
    // the server moves every window, so the quietest window's median is
    // the steadiest reading of it.
    let p50 = fastest(&window_p50);
    let (tail_q, tail_ms) = tail(&fixed.lat_ms);
    m.set("p50_ms", p50);
    m.set("latency.tail_ms", tail_ms);
    m.set("latency.samples", fixed.lat_ms.len() as f64);
    m.set("setup_s", fastest(&setup_secs));

    let drains = saturate(&inputs, &expected, cfg, ops);
    let rps = median(&drains.rps);
    m.set("throughput", rps);
    m.set("serve.batch_share", ratio(drains.batched, drains.jobs_ok));
    m.set(
        "serve.plan_hit_ratio",
        ratio(drains.hits, drains.hits + drains.misses),
    );
    println!(
        "serve: {WORKERS} workers; {WINDOWS} windows of {per_window} jobs offered at {RATE} jobs/s: \
         p50 {p50:.3} ms (quietest window; windows {window_p50:.3?}), p{:.1} {tail_ms:.3} ms \
         over all windows (due time to reply), {} refused; {} drains of {DRAIN} jobs: \
         median {rps:.2} jobs/s (runs {:.2?}); {} set-ups, fastest {:.4} s, median {:.4} s",
        tail_q * 100.0,
        fixed.refused,
        drains.rps.len(),
        drains.rps,
        setup_secs.len(),
        fastest(&setup_secs),
        median(&setup_secs),
    );

    if cfg.trace {
        let mut spans = SpanAgg::start();
        obs::set_enabled(true);
        // At most 300 jobs: few enough that no span ring overflows
        // before the workers go quiet and the buffer can be drained.
        let traced_jobs = &window_jobs[..window_jobs.len().min(300)];
        let traced = open_loop(&server, &inputs, &expected, traced_jobs, RATE);
        obs::set_enabled(false);
        spans.drain();
        *ops = merge(*ops, traced.ops);
        let waits: Vec<&obs::SpanRecord> = {
            let mut w: Vec<_> = spans.named("queue.wait").collect();
            w.sort_by_key(|r| r.start_ns);
            w
        };
        let wait_ms: Vec<f64> = waits.iter().map(|r| r.dur_ns as f64 * 1e-6).collect();
        m.set("serve.queue_wait_ms_p50", quantile(&wait_ms, 0.5));
        m.set("serve.queue_wait_ms_p99", quantile(&wait_ms, 0.99));
        let exec = exec_ms_by_kind(&spans, &waits, &traced.accepted);
        let total: f64 = exec.iter().map(|&(_, ms)| ms).sum();
        let mut shares = Vec::new();
        for kind in [Kind::Mxv, Kind::Cg, Kind::Bfs, Kind::Dot, Kind::Put] {
            let v: Vec<f64> = exec
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|&(_, ms)| ms)
                .collect();
            shares.push(format!(
                "{kind:?} {:.1} %",
                100.0 * ratio(v.iter().sum(), total)
            ));
            let name = match kind {
                Kind::Mxv => "serve.exec_ms_p50.mxv",
                Kind::Cg => "serve.exec_ms_p50.cg",
                Kind::Bfs => "serve.exec_ms_p50.bfs",
                _ => continue,
            };
            m.set(name, median(&v));
        }
        println!(
            "serve traced: share of worker execution time by job kind: {}",
            shares.join(", ")
        );
        let rungs = ladder(&server, &inputs, &expected, cfg, ops);
        m.set("serve.ladder_rps", max_rate(&rungs));
        m.set("serve.refused", fixed.refused as f64);
        m.set("serve.queue_depth_max", fixed.depth_max as f64);
        m.set("serve.late_ms_p99", quantile(&fixed.late_ms, 0.99));
        m.set(
            "trace.overhead_pct",
            100.0 * (median(&traced.lat_ms) / median(&fixed.lat_ms) - 1.0),
        );
        m.set("trace.dropped_spans", spans.dropped as f64);
    }
    Server::shutdown(server);
}

/// What the saturation drains observed.
struct Drains {
    /// Jobs completed per second of each drain.
    rps: Vec<f64>,
    /// `ServeStats` deltas over all drains.
    jobs_ok: f64,
    batched: f64,
    hits: f64,
    misses: f64,
}

/// Saturation: the same [`DRAIN`] jobs queued at once on a freshly
/// started server, which the workers drain as fast as they can,
/// coalescing the queued `mxv` jobs. A drain's rate is the jobs the
/// server completed (`ServeStats::jobs_ok`) over the wall time from
/// submission to the last reply. There is one drain per two seconds of
/// `--seconds` (at least three), each on a server of its own, after one
/// uncounted drain: the first drain of a process ran about a quarter
/// slower than the rest, while its requests' memory was first touched.
///
/// On one server, drain after drain runs at nearly the same rate, but
/// between servers the rate moves by up to 2× (about 500 against 900
/// jobs/s on a 2-CPU Xeon), with the process using about 1.1 against
/// 1.9 CPUs; the cause is not known. A fresh server per drain samples
/// both.
fn saturate(inputs: &Inputs, expected: &Expected, cfg: &Run, ops: &mut Ops) -> Drains {
    let burst = schedule(DRAIN, cfg.seed.wrapping_add(1000));
    let drains = (cfg.seconds / 2.0).ceil().max(3.0) as usize;
    let mut d = Drains {
        rps: Vec::new(),
        jobs_ok: 0.0,
        batched: 0.0,
        hits: 0.0,
        misses: 0.0,
    };
    for k in 0..=drains {
        let server = start_server(inputs);
        let s = server.stats();
        let counters = || {
            [
                &s.jobs_ok,
                &s.batched_jobs,
                &s.plan_cache_hits,
                &s.plan_cache_misses,
            ]
            .map(|c| c.load(Ordering::Relaxed) as f64)
        };
        let before = counters();
        let phase = open_loop(&server, inputs, expected, &burst, f64::INFINITY);
        let after = counters();
        *ops = merge(*ops, phase.ops);
        Server::shutdown(server);
        if k == 0 {
            continue;
        }
        let drain_secs = phase.lat_ms.iter().copied().fold(0.0, f64::max) / 1e3;
        let [jobs_ok, batched, hits, misses] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
        d.rps.push(jobs_ok / drain_secs);
        d.jobs_ok += jobs_ok;
        d.batched += batched;
        d.hits += hits;
        d.misses += misses;
    }
    d
}

/// Climbs the offered-rate ladder, one equal slice of `--seconds` per
/// rung, until a rung misses the p99 limit or its queue keeps growing. A
/// rung that misses is offered once more and fails only if it misses
/// twice, so one stall of the host does not end the climb. Returns the
/// `(rate, p99, steady)` of every rung offered.
fn ladder(
    server: &Server,
    inputs: &Inputs,
    expected: &Expected,
    cfg: &Run,
    ops: &mut Ops,
) -> Vec<(f64, f64, bool)> {
    let rung_secs = cfg.seconds / LADDER.len() as f64;
    let mut rungs = Vec::new();
    for (k, &rate) in LADDER.iter().enumerate() {
        let mut best: Option<(f64, bool)> = None;
        for attempt in 0..2u64 {
            let seed = cfg.seed + 1 + 2 * k as u64 + attempt;
            let jobs = schedule((rate * rung_secs).ceil() as usize, seed);
            let phase = open_loop(server, inputs, expected, &jobs, rate);
            *ops = merge(*ops, phase.ops);
            let (p99, steady) = (phase.p99(), phase.steady());
            let pass = p99 <= P99_LIMIT_MS && steady;
            println!(
                "serve: rung {rate} jobs/s, attempt {}: p99 {p99:.2} ms, {}",
                attempt + 1,
                if pass {
                    "meets the limit"
                } else {
                    "misses the limit"
                }
            );
            if best.is_none_or(|(b, s)| (steady, -p99) > (s, -b)) {
                best = Some((p99, steady));
            }
            if pass {
                break;
            }
        }
        let (p99, steady) = best.expect("one attempt per rung");
        rungs.push((rate, p99, steady));
        if p99 > P99_LIMIT_MS || !steady {
            break;
        }
    }
    rungs
}

fn merge(a: Ops, b: Ops) -> Ops {
    Ops {
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
    }
}

/// Execution milliseconds of each traced job, paired with its kind.
///
/// A worker records `queue.wait` when it dequeues a job and then opens
/// `serve.exec` (one job) or `serve.batch` (coalesced `mxv` jobs) on the
/// same thread. The `queue.wait` spans, ordered by start (the submit
/// instant), line up with the accepted jobs in submission order, so each
/// execution span inherits the kind of the last job its thread dequeued.
fn exec_ms_by_kind(
    spans: &SpanAgg,
    waits: &[&obs::SpanRecord],
    kinds: &[Kind],
) -> Vec<(Kind, f64)> {
    let mut by_tid: std::collections::HashMap<u64, Vec<(u64, Kind)>> = Default::default();
    for (w, &kind) in waits.iter().zip(kinds) {
        by_tid
            .entry(w.tid)
            .or_default()
            .push((w.start_ns + w.dur_ns, kind));
    }
    for v in by_tid.values_mut() {
        v.sort_by_key(|&(end, _)| end);
    }
    spans
        .records
        .iter()
        .filter(|r| r.name == "serve.exec" || r.name == "serve.batch")
        .filter_map(|r| {
            let deq = by_tid.get(&r.tid)?;
            let i = deq.partition_point(|&(end, _)| end <= r.start_ns);
            let (_, kind) = *deq.get(i.checked_sub(1)?)?;
            Some((kind, r.dur_ns as f64 * 1e-6))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_every_block_holds_the_mix() {
        let a = schedule(20 * BLOCK_LEN, 5);
        let b = schedule(20 * BLOCK_LEN, 5);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.kind == y.kind && x.item == y.item && x.tenant == y.tenant));
        assert_eq!(BLOCK.iter().map(|&(_, n)| n).sum::<usize>(), BLOCK_LEN);
        for block in a.chunks(BLOCK_LEN) {
            for (kind, n) in BLOCK {
                assert_eq!(block.iter().filter(|p| p.kind == kind).count(), n);
            }
        }
        let cg: Vec<_> = a.iter().filter(|p| p.kind == Kind::Cg).collect();
        let dist = cg
            .iter()
            .filter(|p| p.backend == BackendSpec::Dist(2))
            .count();
        assert_eq!(dist, cg.len() / 4);
        assert!(a
            .iter()
            .filter(|p| p.kind != Kind::Mxv && p.kind != Kind::Cg)
            .all(|p| p.backend == BackendSpec::Seq));
    }

    /// A fast job submitted right behind a slow one is collected on its
    /// own: its latency is not charged the slow job's time.
    #[test]
    fn a_fast_job_behind_a_slow_one_is_not_charged_its_time() {
        let inputs = Inputs::new(3);
        let expected = inputs.expected();
        let server = start_server(&inputs);
        let job = |kind| Planned {
            kind,
            tenant: 0,
            backend: if kind == Kind::Cg {
                BackendSpec::Dist(2)
            } else {
                BackendSpec::Seq
            },
            item: 1,
        };
        let jobs = [job(Kind::Cg), job(Kind::Dot)];
        let phase = open_loop(&server, &inputs, &expected, &jobs, f64::INFINITY);
        Server::shutdown(server);
        assert_eq!(phase.ops.failed, 0);
        let (slow, fast) = (phase.lat_ms[0], phase.lat_ms[1]);
        assert!(fast < slow, "dot {fast} ms behind cg {slow} ms");
    }

    #[test]
    fn a_corrupted_reply_is_not_correct() {
        let inputs = Inputs::new(3);
        let expected = inputs.expected();
        for (kind, slot) in [
            (Kind::Mxv, 0),
            (Kind::Cg, 1),
            (Kind::Bfs, 2),
            (Kind::Dot, 3),
        ] {
            let p = Planned {
                kind,
                tenant: 0,
                backend: BackendSpec::Seq,
                item: 2,
            };
            let good = expected.0[2][slot].clone();
            assert!(expected.is_correct(&p, &good), "{kind:?}");
            let bad = match good {
                Payload::Vector(mut v) => {
                    v[7] = f64::from_bits(v[7].to_bits() ^ 1);
                    Payload::Vector(v)
                }
                Payload::Solve {
                    iterations,
                    relative_residual,
                    mut x,
                } => {
                    x[0] += 1e-12;
                    Payload::Solve {
                        iterations,
                        relative_residual,
                        x,
                    }
                }
                Payload::Levels(mut l) => {
                    l[inputs.sources[2]] = 1;
                    Payload::Levels(l)
                }
                Payload::Scalar(d) => Payload::Scalar(d * (1.0 + f64::EPSILON)),
                other => other,
            };
            assert!(!expected.is_correct(&p, &bad), "{kind:?}");
        }
    }

    #[test]
    fn max_rate_interpolates_between_rungs() {
        let l = P99_LIMIT_MS;
        assert_eq!(
            max_rate(&[(100.0, l / 2.0, true), (200.0, l / 2.0, true)]),
            200.0
        );
        let r = max_rate(&[(100.0, l / 2.0, true), (200.0, l * 2.0, true)]);
        assert!((r - 150.0).abs() < 1e-9, "{r}");
        assert!(max_rate(&[(100.0, l * 2.0, true)]) < 100.0);
        assert_eq!(
            max_rate(&[(100.0, l / 2.0, true), (200.0, l / 2.0, false)]),
            100.0
        );
    }
}
