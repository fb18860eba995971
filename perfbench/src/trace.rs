//! Collects the spans the program already exports through `obs`.
//!
//! The span buffer is a set of fixed-capacity rings that overwrite their
//! oldest records when full. [`SpanAgg`] moves the buffered records into
//! its own vector whenever the buffer passes a threshold, so a traced run
//! of any length keeps every span. Draining is only safe while no other
//! thread records spans (between two kernel calls of the HPCG solver
//! loop, or after a server has gone quiet); callers pick those points.

use obs::SpanRecord;

/// Buffered spans are drained once the buffer holds more than this many
/// (a quarter of one ring, so no ring overflows between two checks).
const DRAIN_THRESHOLD: usize = obs::span::STRIPE_CAPACITY / 4;

/// Every span drained during one measurement window.
#[derive(Debug, Default, Clone)]
pub struct SpanAgg {
    /// The drained records, in drain order.
    pub records: Vec<SpanRecord>,
    /// Records the rings overwrote before they could be drained.
    pub dropped: u64,
    checks: u32,
}

impl SpanAgg {
    /// Starts a window with an empty span buffer.
    pub fn start() -> SpanAgg {
        obs::clear();
        SpanAgg::default()
    }

    /// Whether the buffer is full enough to drain (checked every 16th
    /// call, which keeps the lock traffic off the hot path).
    pub fn wants_drain(&mut self) -> bool {
        self.checks = self.checks.wrapping_add(1);
        self.checks.is_multiple_of(16) && obs::span_count() > DRAIN_THRESHOLD
    }

    /// Moves every buffered span into this aggregate.
    pub fn drain(&mut self) {
        self.dropped += obs::dropped_count();
        self.records.extend(obs::snapshot());
        obs::clear();
    }

    /// Sum of the durations (seconds) of spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.named(name).map(|r| r.dur_ns as f64 * 1e-9).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.records.iter().filter(move |r| r.name == name)
    }

    /// Total seconds of the outermost spans recorded on thread `tid`.
    pub fn top_level_secs(&self, tid: u64) -> f64 {
        self.records
            .iter()
            .filter(|r| r.tid == tid && r.depth == 0)
            .map(|r| r.dur_ns as f64 * 1e-9)
            .sum()
    }
}

/// The span thread id of the calling thread, learnt by recording one
/// probe span (tracing is left as it was found, the buffer empty).
pub fn current_tid() -> u64 {
    let was = obs::enabled();
    obs::set_enabled(true);
    obs::clear();
    drop(obs::span_enter("perfbench.tid", "bench"));
    let tid = obs::snapshot().first().map_or(0, |r| r.tid);
    obs::clear();
    obs::set_enabled(was);
    tid
}
