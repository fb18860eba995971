//! Host ceilings and probes measured in the benchmark's own process:
//! cache sizes, STREAM-style triads, peak resident memory and the
//! per-call cost of the parallel and distributed runtimes.

use crate::stats::median;
use graphblas::{ctx, ctx_on, Distributed, Parallel, Vector};
use hpcg_bench::hostinfo::HostInfo;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// What the benchmark reports about the host.
pub struct Host {
    /// CPU model, logical CPUs and the last-level cache string.
    pub info: HostInfo,
    /// Per-core L2 cache in bytes (0 when unknown).
    pub l2_bytes: usize,
    /// Last-level cache in bytes (0 when unknown).
    pub llc_bytes: usize,
}

/// Parses a sysfs cache size such as `"4096K"` or `"300M"`.
fn parse_size(s: &str) -> usize {
    let s = s.trim();
    let (digits, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1usize << 10),
        Some('M') => (&s[..s.len() - 1], 1 << 20),
        Some('G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.trim().parse::<usize>().map_or(0, |v| v * mult)
}

fn sysfs_cache(index: usize) -> usize {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map_or(0, |s| parse_size(&s))
}

impl Host {
    /// Reads the host description.
    pub fn gather() -> Host {
        let info = HostInfo::gather();
        let llc_bytes = parse_size(&info.l3_cache);
        Host {
            info,
            l2_bytes: sysfs_cache(2),
            llc_bytes,
        }
    }

    /// One line naming the CPU, `nproc` and the cache sizes, for the log.
    pub fn describe(&self) -> String {
        format!(
            "host: {} | nproc {} | L2 {:.1} MiB | LLC {:.1} MiB",
            self.info.cpu_model,
            self.info.logical_cpus,
            self.l2_bytes as f64 / MIB,
            self.llc_bytes as f64 / MIB
        )
    }

    /// Threads the probes use: one per logical CPU.
    pub fn threads(&self) -> usize {
        self.info.logical_cpus.max(1)
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// STREAM triad `a ← b + s·c` over three arrays of `elems` doubles each,
/// split over `threads` threads (each thread touches its own block
/// first, so pages land near it). Returns the best rate in GB/s over
/// `reps` passes, counting 3 × 8 bytes per element as STREAM does.
pub fn triad_gbs(elems: usize, threads: usize, reps: usize) -> f64 {
    let threads = threads.max(1);
    let per = elems.div_ceil(threads).max(1);
    let mut a = vec![0.0f64; elems];
    let mut b = vec![0.0f64; elems];
    let mut c = vec![0.0f64; elems];
    let run = |a: &mut [f64], b: &mut [f64], c: &mut [f64], init: bool| {
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(per)
                .zip(b.chunks_mut(per))
                .zip(c.chunks_mut(per))
            {
                s.spawn(move || {
                    if init {
                        b.fill(1.0);
                        c.fill(2.0);
                        a.fill(0.0);
                    } else {
                        for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                            *a = *b + 3.0 * *c;
                        }
                    }
                });
            }
        });
    };
    run(&mut a, &mut b, &mut c, true);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        run(&mut a, &mut b, &mut c, false);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(a.iter().step_by(4096).all(|&v| v == 7.0), "triad result");
    3.0 * 8.0 * elems as f64 / best / 1e9
}

/// Elements per triad array such that the three arrays total `bytes`.
pub fn triad_elems_for_total(bytes: f64) -> usize {
    (bytes / 24.0).ceil() as usize
}

/// Median microseconds of one `Parallel` `dot` on a vector just long
/// enough that the runtime splits it into two chunks (the parallel
/// backend's minimum chunk is 512 elements) — the fork/join cost of one
/// parallel call.
pub fn par_call_us(reps: usize) -> f64 {
    let n = 1100;
    let x = Vector::from_dense(vec![0.5; n]);
    let y = Vector::from_dense(vec![2.0; n]);
    let c = ctx::<Parallel>();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let d = c.dot(&x, &y).compute().expect("parallel dot");
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(d, n as f64);
            us
        })
        .collect();
    median(&samples)
}

/// Median microseconds of one `dot` on a two-element vector on a
/// two-node cluster — the cost of an otherwise empty superstep.
pub fn empty_step_us(reps: usize) -> f64 {
    let cluster = Distributed::new(2);
    let c = ctx_on(cluster);
    let x = Vector::from_dense(vec![1.5, 2.0]);
    let y = Vector::from_dense(vec![2.0, 0.5]);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let d = c.dot(&x, &y).compute().expect("distributed dot");
            let us = t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(d, 4.0);
            us
        })
        .collect();
    cluster.reset_costs();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("4096K\n"), 4 << 20);
        assert_eq!(parse_size("300M"), 300 << 20);
        assert_eq!(parse_size("300 MiB"), 0);
        assert_eq!(parse_size("512"), 512);
    }

    #[test]
    fn triad_is_positive() {
        assert!(triad_gbs(1 << 16, 2, 2) > 0.0);
    }
}
