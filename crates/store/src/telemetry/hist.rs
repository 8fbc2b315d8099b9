//! The reusable log-linear latency histogram.
//!
//! [`LatencyHistogram`] is a fixed-size log-linear histogram (HdrHistogram
//! shape, no dependencies): one bucket per nanosecond below 256 ns (the
//! sub-µs probe and span region records *exactly*), then octaves of 32
//! linear sub-buckets with ≤ 3.2% relative bucket width all the way to
//! `u64::MAX` ns — plenty for p50/p99/p999 gates — in 16 KiB of counters
//! that merge with a single pass. Recording is branch-light (a
//! leading-zeros and two shifts), so the workers can stamp every request
//! without the measurement becoming the workload.

/// Values below this many ns get one bucket each (exact recording).
const EXACT: u64 = 256;
/// log2 of [`EXACT`].
const EXACT_BITS: u32 = 8;
/// Linear sub-buckets per power-of-two octave above the exact region.
const SUB: usize = 32;
/// log2 of [`SUB`].
const SUB_BITS: u32 = 5;
/// Octaves above the exact region: msb 8 ..= 63 covers all of `u64`.
const OCTAVES: usize = 56;
/// Total bucket count.
const BUCKETS: usize = EXACT as usize + SUB * OCTAVES;

/// A log-linear latency histogram over nanosecond values.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: vec![0; BUCKETS], total: 0, sum_ns: 0, max_ns: 0 }
    }

    /// Bucket index of a nanosecond value.
    fn bucket(ns: u64) -> usize {
        if ns < EXACT {
            // The exact region: one bucket per nanosecond.
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let octave = (msb - EXACT_BITS) as usize;
        let sub = ((ns >> (msb - SUB_BITS)) as usize) & (SUB - 1);
        (EXACT as usize + octave * SUB + sub).min(BUCKETS - 1)
    }

    /// Lower bound (ns) of bucket `i` — what quantiles report.
    fn bucket_floor(i: usize) -> u64 {
        if i < EXACT as usize {
            return i as u64;
        }
        let r = i - EXACT as usize;
        let (octave, sub) = (r / SUB, (r % SUB) as u64);
        let base = 1u64 << (octave as u32 + EXACT_BITS);
        base + sub * (base >> SUB_BITS)
    }

    /// Record one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded samples in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.total as f64
        }
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the lower bound of the bucket
    /// holding that rank — a deterministic, conservative-by-≤3.2% figure.
    /// Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        Self::bucket_floor(BUCKETS - 1)
    }

    /// `(p50, p99, p999)` in nanoseconds.
    pub fn slo_points(&self) -> (u64, u64, u64) {
        (self.quantile_ns(0.50), self.quantile_ns(0.99), self.quantile_ns(0.999))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_the_range() {
        let mut prev_floor = 0;
        for i in 1..BUCKETS {
            let f = LatencyHistogram::bucket_floor(i);
            assert!(f > prev_floor, "floor not monotone at {i}");
            prev_floor = f;
        }
        for ns in [0u64, 1, 31, 32, 33, 255, 256, 257, 1000, 123_456, u64::MAX / 2, u64::MAX] {
            let b = LatencyHistogram::bucket(ns);
            assert!(b < BUCKETS);
            assert!(LatencyHistogram::bucket_floor(b) <= ns, "floor above sample at {ns}");
        }
        // The exact region records sub-256ns values without rounding.
        for ns in 0..EXACT {
            assert_eq!(LatencyHistogram::bucket_floor(LatencyHistogram::bucket(ns)), ns);
        }
    }

    #[test]
    fn quantiles_track_a_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 1000 samples: 989 at ~1 µs, 10 at ~100 µs, 1 at ~10 ms. Rank
        // 990 (p99) is the first 100 µs sample; rank 999 (p999) the last;
        // rank 1000 (the max) is the 10 ms outlier.
        for _ in 0..989 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        h.record(10_000_000);
        assert_eq!(h.count(), 1000);
        let (p50, p99, p999) = h.slo_points();
        assert!((900..=1_100).contains(&p50), "p50 = {p50}");
        assert!((90_000..=110_000).contains(&p99), "p99 = {p99}");
        assert!((90_000..=110_000).contains(&p999), "p999 = {p999}");
        assert!((9_000_000..=10_500_000).contains(&h.quantile_ns(1.0)));
        assert_eq!(h.max_ns(), 10_000_000);
        assert!(h.mean_ns() > 1_000.0);
        assert!(h.sum_ns() > 989 * 1_000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let samples_a = [5u64, 70, 3_000, 40_000];
        let samples_b = [9u64, 800, 800, 2_000_000];
        let (mut a, mut b, mut both) =
            (LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new());
        for &s in &samples_a {
            a.record(s);
            both.record(s);
        }
        for &s in &samples_b {
            b.record(s);
            both.record(s);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.slo_points(), both.slo_points());
        assert_eq!(a.max_ns(), both.max_ns());
    }
}
