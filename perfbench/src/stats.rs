//! Small statistics helpers and the metric list a run reports.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between order
/// statistics; `0.0` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile of `xs` with at least ten samples above it
/// (at most p99, at least the median), as a `(quantile, value)` pair —
/// the tail a sample of this size can support.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let q = (1.0 - 10.0 / xs.len().max(1) as f64).clamp(0.5, 0.99);
    (q, quantile(xs, q))
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The smallest of `xs` (`0.0` for an empty sample): the steadiest
/// reading of a cost that host noise can only add to.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The harmonic mean of positive `xs` (Graph500's TEPS aggregate).
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>()
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64, for the benchmark's own seeded choices: BFS roots, the
/// serve job schedule and input vectors. (Graphs come from
/// `hpcg_bench::rmat`.)
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform double in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Shuffles `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Named metric values collected by a workload, in insertion order.
#[derive(Default, Debug, Clone)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Sets `name` to `value` (the last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Outcome counts of a run's correctness checks.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong, refused or errored.
    pub failed: u64,
}

impl Ops {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&xs), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, v) = tail(&xs);
        assert!((q - 0.9).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&xs[..10]).0, 0.5);
        let many: Vec<f64> = (0..5000).map(f64::from).collect();
        assert_eq!(tail(&many).0, 0.99);
    }

    #[test]
    fn harmonic_mean_weights_slow_samples() {
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rng_is_seeded_and_shuffles_in_place() {
        let mut xs: Vec<u32> = (0..10).collect();
        Rng::new(4).shuffle(&mut xs);
        let mut ys: Vec<u32> = (0..10).collect();
        Rng::new(4).shuffle(&mut ys);
        assert_eq!(xs, ys);
        ys.sort_unstable();
        assert_eq!(ys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ops_count_failures() {
        let mut ops = Ops::default();
        ops.check(true);
        ops.check(false);
        assert_eq!(
            ops,
            Ops {
                attempted: 2,
                failed: 1
            }
        );
    }
}
