//! A delegating [`Kernels`] adapter that times HPCG's calls into its
//! kernel layer from the outside.
//!
//! Every trait method forwards to the wrapped implementation — including
//! the fused defaults (`spmv_dot`, `axpy_norm2`, `residual_restrict`), so
//! the wrapped run executes exactly the calls the unwrapped run does and
//! its numerics cannot change. In [`Mode::Iterations`] the adapter only
//! stamps the end of each CG iteration (one clock read per iteration);
//! in [`Mode::Layers`] it also times every call by class and level,
//! measures the wall time between calls (`glue`) and drains the span
//! buffer between calls so a long traced run loses no spans.

use crate::trace::SpanAgg;
use hpcg::{KernelTimers, Kernels};
use std::cell::Cell;
use std::time::Instant;

/// What the adapter records.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Only CG iteration boundaries.
    Iterations,
    /// Iteration boundaries plus per-call class/level times.
    Layers,
}

/// The HPCG kernel classes the per-layer metrics report.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Class {
    /// `spmv`, `spmv_dot`.
    Spmv,
    /// The RBGS smoother sweep.
    Smooth,
    /// `restrict_to`, `prolong_add`, `residual_restrict`.
    Transfer,
    /// `dot`.
    Dot,
    /// Vector updates and buffer moves: `waxpby`, `axpy`, `axpy_norm2`,
    /// `xpay`, `sub_reverse`, `copy`, `set_zero`, `alloc`.
    Update,
}

impl Class {
    fn index(self) -> usize {
        self as usize
    }
}

/// Per-call accounting of one measurement window.
#[derive(Clone, Debug, Default)]
pub struct CallLog {
    /// Seconds per `[class][level]`.
    pub secs: Vec<[f64; 5]>,
    /// Calls per `[class][level]`.
    pub calls: Vec<[u64; 5]>,
    /// Wall seconds outside any kernel call inside the window.
    pub glue_secs: f64,
    /// Seconds spent draining the span buffer between calls.
    pub drain_secs: f64,
}

impl CallLog {
    fn new(levels: usize) -> CallLog {
        CallLog {
            secs: vec![[0.0; 5]; levels],
            calls: vec![[0; 5]; levels],
            ..CallLog::default()
        }
    }

    /// Seconds in `class`, summed over levels.
    pub fn class_secs(&self, class: Class) -> f64 {
        self.secs.iter().map(|l| l[class.index()]).sum()
    }

    /// Seconds in every kernel call.
    pub fn kernel_secs(&self) -> f64 {
        self.secs.iter().flatten().sum()
    }

    /// Seconds in kernel calls at levels ≥ 1 (the coarse grids).
    pub fn coarse_secs(&self) -> f64 {
        self.secs.iter().skip(1).flatten().sum()
    }

    /// Number of kernel calls.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().flatten().sum()
    }
}

/// The timing adapter around a [`Kernels`] implementation.
pub struct Timed<K: Kernels> {
    inner: K,
    mode: Mode,
    /// End instant of every CG iteration (stamped after the level-0
    /// `axpy_norm2`, the last call of an iteration).
    stamps: Vec<Instant>,
    log: CallLog,
    /// Time spent in `alloc`, which only gets `&self`.
    alloc_secs: Cell<f64>,
    alloc_calls: Cell<u64>,
    last_end: Option<Instant>,
    spans: Option<SpanAgg>,
}

impl<K: Kernels> Timed<K> {
    /// Wraps `inner`.
    pub fn new(inner: K, mode: Mode) -> Timed<K> {
        let levels = inner.levels();
        Timed {
            inner,
            mode,
            stamps: Vec::new(),
            log: CallLog::new(levels),
            alloc_secs: Cell::new(0.0),
            alloc_calls: Cell::new(0),
            last_end: None,
            spans: None,
        }
    }

    /// The wrapped implementation.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    /// Switches what the adapter records from now on.
    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
    }

    /// Starts a measurement window: clears the iteration stamps and the
    /// call log, and (in layer mode) begins counting glue from now. Spans
    /// drained during the window go to `spans`.
    pub fn begin(&mut self, spans: Option<SpanAgg>) {
        self.stamps.clear();
        self.log = CallLog::new(self.inner.levels());
        self.alloc_secs.set(0.0);
        self.alloc_calls.set(0);
        self.spans = spans;
        self.last_end = (self.mode == Mode::Layers).then(Instant::now);
    }

    /// Ends the window: the trailing gap counts as glue. Returns the call
    /// log, the CG iteration end stamps and the span aggregate.
    pub fn end(&mut self) -> (CallLog, Vec<Instant>, Option<SpanAgg>) {
        if let Some(last) = self.last_end.take() {
            self.log.glue_secs += last.elapsed().as_secs_f64();
        }
        let mut log = std::mem::take(&mut self.log);
        if let Some(l0) = log.secs.first_mut() {
            l0[Class::Update.index()] += self.alloc_secs.get();
        }
        if let Some(c0) = log.calls.first_mut() {
            c0[Class::Update.index()] += self.alloc_calls.get();
        }
        let spans = self.spans.take().map(|mut agg| {
            agg.drain();
            agg
        });
        (log, std::mem::take(&mut self.stamps), spans)
    }

    #[inline]
    fn timed<R>(&mut self, class: Class, level: usize, f: impl FnOnce(&mut K) -> R) -> R {
        if self.mode == Mode::Iterations {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        if let Some(last) = self.last_end {
            self.log.glue_secs += (t0 - last).as_secs_f64();
        }
        let out = f(&mut self.inner);
        let t1 = Instant::now();
        self.log.secs[level][class.index()] += (t1 - t0).as_secs_f64();
        self.log.calls[level][class.index()] += 1;
        let mut end = t1;
        if let Some(agg) = self.spans.as_mut() {
            if agg.wants_drain() {
                agg.drain();
                end = Instant::now();
                self.log.drain_secs += (end - t1).as_secs_f64();
            }
        }
        if self.last_end.is_some() {
            self.last_end = Some(end);
        }
        out
    }
}

impl<K: Kernels> Kernels for Timed<K> {
    type V = K::V;

    fn levels(&self) -> usize {
        self.inner.levels()
    }

    fn n_at(&self, level: usize) -> usize {
        self.inner.n_at(level)
    }

    fn alloc(&self, level: usize) -> K::V {
        if self.mode == Mode::Iterations {
            return self.inner.alloc(level);
        }
        let t0 = Instant::now();
        let v = self.inner.alloc(level);
        self.alloc_secs
            .set(self.alloc_secs.get() + t0.elapsed().as_secs_f64());
        self.alloc_calls.set(self.alloc_calls.get() + 1);
        v
    }

    fn set_zero(&mut self, level: usize, v: &mut K::V) {
        self.timed(Class::Update, level, |k| k.set_zero(level, v))
    }

    fn copy(&mut self, level: usize, src: &K::V, dst: &mut K::V) {
        self.timed(Class::Update, level, |k| k.copy(level, src, dst))
    }

    fn spmv(&mut self, level: usize, y: &mut K::V, x: &K::V) {
        self.timed(Class::Spmv, level, |k| k.spmv(level, y, x))
    }

    fn dot(&mut self, level: usize, x: &K::V, y: &K::V) -> f64 {
        self.timed(Class::Dot, level, |k| k.dot(level, x, y))
    }

    fn waxpby(&mut self, level: usize, w: &mut K::V, alpha: f64, x: &K::V, beta: f64, y: &K::V) {
        self.timed(Class::Update, level, |k| {
            k.waxpby(level, w, alpha, x, beta, y)
        })
    }

    fn axpy(&mut self, level: usize, x: &mut K::V, alpha: f64, y: &K::V) {
        self.timed(Class::Update, level, |k| k.axpy(level, x, alpha, y))
    }

    fn spmv_dot(&mut self, level: usize, y: &mut K::V, x: &K::V) -> f64 {
        self.timed(Class::Spmv, level, |k| k.spmv_dot(level, y, x))
    }

    fn axpy_norm2(&mut self, level: usize, x: &mut K::V, alpha: f64, y: &K::V) -> f64 {
        let out = self.timed(Class::Update, level, |k| k.axpy_norm2(level, x, alpha, y));
        if level == 0 {
            self.stamps.push(Instant::now());
        }
        out
    }

    fn residual_restrict(&mut self, level: usize, f: &mut K::V, z: &K::V, r: &K::V, rc: &mut K::V) {
        self.timed(Class::Transfer, level, |k| {
            k.residual_restrict(level, f, z, r, rc)
        })
    }

    fn xpay(&mut self, level: usize, p: &mut K::V, beta: f64, z: &K::V) {
        self.timed(Class::Update, level, |k| k.xpay(level, p, beta, z))
    }

    fn sub_reverse(&mut self, level: usize, w: &mut K::V, r: &K::V) {
        self.timed(Class::Update, level, |k| k.sub_reverse(level, w, r))
    }

    fn smooth(&mut self, level: usize, x: &mut K::V, r: &K::V) {
        self.timed(Class::Smooth, level, |k| k.smooth(level, x, r))
    }

    fn restrict_to(&mut self, level: usize, rc: &mut K::V, rf: &K::V) {
        self.timed(Class::Transfer, level, |k| k.restrict_to(level, rc, rf))
    }

    fn prolong_add(&mut self, level: usize, zf: &mut K::V, zc: &K::V) {
        self.timed(Class::Transfer, level, |k| k.prolong_add(level, zf, zc))
    }

    fn timers_mut(&mut self) -> &mut KernelTimers {
        self.inner.timers_mut()
    }

    fn timers(&self) -> &KernelTimers {
        self.inner.timers()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// Wall seconds of each CG iteration after the first, from the iteration
/// end stamps of consecutive solves (`per_solve` stamps each). The first
/// iteration of a solve also carries the solve's set-up calls, so it is
/// left out.
pub fn iteration_secs(stamps: &[Instant], per_solve: usize) -> Vec<f64> {
    stamps
        .chunks(per_solve.max(1))
        .flat_map(|solve| solve.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphblas::{BackendKind, DynCtx};
    use hpcg::{flops_per_iteration, run_with_rhs, GrbHpcg, Grid3, Problem, RhsVariant, RunConfig};

    fn history(backend: &str, wrapped: Option<Mode>, size: usize) -> Vec<u64> {
        let p = Problem::build_with(Grid3::cube(size), 3, RhsVariant::Reference).unwrap();
        let f = flops_per_iteration(&p);
        let b = p.b.clone();
        let k = GrbHpcg::with_ctx(p, DynCtx::runtime(BackendKind::parse(backend).unwrap()));
        let cfg = RunConfig {
            iterations: 8,
            preconditioned: true,
        };
        let cg = match wrapped {
            None => run_with_rhs(&mut { k }, &b, f, cfg).1,
            Some(mode) => {
                let mut t = Timed::new(k, mode);
                t.begin(None);
                let cg = run_with_rhs(&mut t, &b, f, cfg).1;
                let (log, stamps, _) = t.end();
                assert_eq!(stamps.len(), 8, "one stamp per CG iteration");
                if mode == Mode::Layers {
                    assert!(log.total_calls() > 8 * 10);
                    assert!(log.class_secs(Class::Smooth) > 0.0);
                }
                cg
            }
        };
        cg.residual_history.iter().map(|v| v.to_bits()).collect()
    }

    /// Timing cannot change the numerics: the wrapped run's residual
    /// history is bit-identical to the unwrapped run on every backend.
    #[test]
    fn wrapped_history_is_bit_identical_on_seq_par_and_dist2() {
        for backend in ["seq", "par", "dist:2"] {
            let plain = history(backend, None, 16);
            for mode in [Mode::Iterations, Mode::Layers] {
                assert_eq!(
                    history(backend, Some(mode), 16),
                    plain,
                    "{backend} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn iteration_secs_skip_each_solves_first_iteration() {
        let t0 = Instant::now();
        let stamps: Vec<Instant> = (0..6)
            .map(|i| t0 + std::time::Duration::from_millis(10 * i))
            .collect();
        let secs = iteration_secs(&stamps, 3);
        assert_eq!(secs.len(), 4);
        assert!(secs.iter().all(|&s| (s - 0.01).abs() < 1e-9));
    }
}
