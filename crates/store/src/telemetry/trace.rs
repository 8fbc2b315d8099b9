//! Sampled request tracing: a deterministic 1-in-N sampler plus the
//! per-stage span record the traced probe paths fill in.
//!
//! Tracing a request costs a handful of `Instant::now()` calls and one
//! histogram lock per stage; sampling keeps that off the common path.
//! The whole-store benchmark reports the total as `trace.overhead_pct`:
//! ~2% over the untraced path at the default 1-in-64 rate.

use std::time::Instant;

/// Deterministic 1-in-N sampler (`every == 0` disables sampling).
///
/// Counting, not random: over any window of `every` requests exactly one
/// is traced, so two runs over the same op sequence trace the same
/// requests — which keeps the deterministic `--quick` benches honest.
///
/// ```
/// use hope_store::telemetry::TraceSampler;
///
/// let mut s = TraceSampler::new(3);
/// let picks: Vec<bool> = (0..6).map(|_| s.tick()).collect();
/// assert_eq!(picks, vec![false, false, true, false, false, true]);
/// assert!(!TraceSampler::new(0).tick(), "0 disables sampling entirely");
/// ```
#[derive(Debug, Clone)]
pub struct TraceSampler {
    every: u32,
    seen: u32,
}

impl TraceSampler {
    /// Sampler tracing one request in `every` (`0` = never).
    pub fn new(every: u32) -> TraceSampler {
        TraceSampler { every, seen: 0 }
    }

    /// True when sampling is configured at all.
    pub fn is_enabled(&self) -> bool {
        self.every > 0
    }

    /// Count one request; true when this one should be traced.
    #[inline]
    pub fn tick(&mut self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.seen += 1;
        if self.seen >= self.every {
            self.seen = 0;
            true
        } else {
            false
        }
    }
}

/// Per-stage wall-clock spans of one traced request, in nanoseconds.
///
/// Stages mirror the probe pipeline: dictionary **encode** of the probe
/// key, index **probe** (descent + version resolve, or the whole mutation
/// for an insert), and **decode** (a scan's pull loop; point ops never
/// decode — keys are kept in source form). An ART point read alternates
/// encode chunks and probes; each stage is the sum of its laps. Queue wait is recorded
/// separately by the serving worker (it is a property of the envelope,
/// not of the store call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeSpans {
    /// Probe-key (or scan-bound) encode time.
    pub encode_ns: u64,
    /// Index descent + entry resolution (scans: time to first hit).
    pub probe_ns: u64,
    /// Result decode / scan pull-loop time (0 for point ops).
    pub decode_ns: u64,
}

impl ProbeSpans {
    /// Sum of all stages.
    pub fn total_ns(&self) -> u64 {
        self.encode_ns.saturating_add(self.probe_ns).saturating_add(self.decode_ns)
    }
}

/// Stage-boundary hook the request paths are generic over, so the traced
/// and untraced forms of `get` / `insert` / a served scan are one
/// function: `()` records nothing and compiles away, [`Stopwatch`] reads
/// the clock at each boundary. A point read may alternate the stages —
/// encode a chunk, probe, encode more — so each boundary adds the time
/// since the last one to its stage. A served scan calls [`probed`] at its
/// first hit (capture, bound encode and descent) and [`decoded`] when the
/// pull loop ends.
///
/// [`probed`]: SpanRecorder::probed
/// [`decoded`]: SpanRecorder::decoded
pub(crate) trait SpanRecorder {
    /// Begin timing (called right before the first stage).
    fn start() -> Self;
    /// An encode stage (the probe key, or a chunk of it) is done.
    fn encoded(&mut self) {}
    /// An index probe (or the whole mutation, for an insert) is done.
    fn probed(&mut self) {}
    /// A decode stage (the rest of a scan's pull loop) is done.
    fn decoded(&mut self) {}
}

impl SpanRecorder for () {
    fn start() {}
}

/// The recording [`SpanRecorder`]: fills a [`ProbeSpans`].
#[derive(Debug)]
pub(crate) struct Stopwatch {
    lap: Instant,
    pub(crate) spans: ProbeSpans,
}

impl Stopwatch {
    /// Nanoseconds since the previous stage boundary; restarts the lap.
    fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.lap).as_nanos() as u64;
        self.lap = now;
        ns
    }
}

impl SpanRecorder for Stopwatch {
    fn start() -> Stopwatch {
        Stopwatch { lap: Instant::now(), spans: ProbeSpans::default() }
    }

    fn encoded(&mut self) {
        self.spans.encode_ns += self.lap_ns();
    }

    fn probed(&mut self) {
        self.spans.probe_ns += self.lap_ns();
    }

    fn decoded(&mut self) {
        self.spans.decode_ns += self.lap_ns();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_periodic_and_zero_disables() {
        let mut s = TraceSampler::new(4);
        assert!(s.is_enabled());
        let picks: Vec<bool> = (0..12).map(|_| s.tick()).collect();
        assert_eq!(picks.iter().filter(|&&p| p).count(), 3);
        assert!(picks[3] && picks[7] && picks[11]);
        let mut off = TraceSampler::new(0);
        assert!(!off.is_enabled());
        assert!((0..100).all(|_| !off.tick()));
    }

    /// Two encode chunks, each followed by a probe: each stage holds the
    /// sum of its laps (a stage that kept only its last lap would hold
    /// half), and the stages never sum to more than the whole request.
    #[test]
    fn interleaved_laps_add_up_per_stage() {
        let pause = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let began = Instant::now();
        let mut watch = Stopwatch::start();
        pause(2);
        watch.encoded();
        pause(6);
        watch.probed();
        pause(2);
        watch.encoded();
        pause(6);
        watch.probed();
        let whole = began.elapsed().as_nanos() as u64;
        let ProbeSpans { encode_ns, probe_ns, decode_ns } = watch.spans;
        assert!(encode_ns >= 4_000_000 && probe_ns >= 12_000_000, "{:?}", watch.spans);
        assert_eq!(decode_ns, 0);
        assert!(watch.spans.total_ns() <= whole, "{:?} over {whole} ns", watch.spans);
    }

    /// A served scan's split: the probe lap ends at the first hit, the
    /// decode lap at the end of the pull loop, and nothing is encode.
    #[test]
    fn decode_lap_follows_the_probe() {
        let mut watch = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        watch.probed();
        std::thread::sleep(std::time::Duration::from_millis(4));
        watch.decoded();
        let ProbeSpans { encode_ns, probe_ns, decode_ns } = watch.spans;
        assert_eq!(encode_ns, 0);
        assert!(probe_ns >= 2_000_000 && decode_ns >= 4_000_000, "{:?}", watch.spans);
    }

    #[test]
    fn spans_total() {
        let sp = ProbeSpans { encode_ns: 10, probe_ns: 20, decode_ns: 30 };
        assert_eq!(sp.total_ns(), 60);
        assert_eq!(ProbeSpans::default().total_ns(), 0);
    }
}
