//! Property suite for [`hope_store::telemetry::LatencyHistogram`]
//! — the accounting structure every serving SLO gate rests on.
//!
//! Three algebraic claims, attacked with random sample sets:
//!
//! * **merge is associative and commutative**, and any merge order is
//!   observably identical to recording every sample into one histogram —
//!   so per-worker, per-phase sharding of the accounting never changes a
//!   reported quantile;
//! * **quantiles are monotone in `q`** — p999 can never come out below
//!   p99, whatever the distribution;
//! * **the sub-256 ns region records exactly** — one bucket per
//!   nanosecond, so for sample sets entirely below 256 ns every quantile
//!   equals the true order statistic, not a bucket approximation.

use hope_store::telemetry::LatencyHistogram;
use proptest::collection::vec;
use proptest::prelude::*;

/// The full observable surface of a histogram, for equality checks
/// (the type deliberately does not expose its buckets).
fn observe(h: &LatencyHistogram) -> (u64, u64, u64, Vec<u64>) {
    let qs = [0.0, 0.01, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999, 1.0];
    (h.count(), h.sum_ns(), h.max_ns(), qs.iter().map(|&q| h.quantile_ns(q)).collect())
}

fn record_all(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// Spread raw draws across the interesting regions: the exact sub-256 ns
/// buckets, the first octaves, the deep log-linear range, and the
/// saturated tail (the vendored proptest shim has no `prop_oneof`).
fn spread(raw: Vec<u64>) -> Vec<u64> {
    raw.into_iter()
        .map(|r| match r % 4 {
            0 => (r >> 2) % 256,
            1 => 256 + (r >> 2) % 100_000,
            2 => 100_000 + (r >> 2) % 10_000_000_000,
            _ => u64::MAX - (r >> 2) % 1_000,
        })
        .collect()
}

/// Map a raw draw onto a quantile in `[0, 1]`.
fn as_q(raw: u64) -> f64 {
    raw as f64 / u64::MAX as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_associative_commutative_and_equals_one_pass(
        raw_a in vec(any::<u64>(), 0..300),
        raw_b in vec(any::<u64>(), 0..300),
        raw_c in vec(any::<u64>(), 0..300),
    ) {
        let (a, b, c) = (spread(raw_a), spread(raw_b), spread(raw_c));
        let (ha, hb, hc) = (record_all(&a), record_all(&b), record_all(&c));

        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut right_inner = hb.clone();
        right_inner.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_inner);
        // c ⊕ b ⊕ a (commuted)
        let mut commuted = hc.clone();
        commuted.merge(&hb);
        commuted.merge(&ha);
        // every sample through a single histogram
        let mut all = Vec::with_capacity(a.len() + b.len() + c.len());
        all.extend_from_slice(&a);
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        let one_pass = record_all(&all);

        let expected = observe(&one_pass);
        prop_assert_eq!(observe(&left), expected.clone());
        prop_assert_eq!(observe(&right), expected.clone());
        prop_assert_eq!(observe(&commuted), expected);
    }

    #[test]
    fn quantiles_are_monotone_in_q(
        raw in vec(any::<u64>(), 0..300),
        raw_qs in vec(any::<u64>(), 2..20),
    ) {
        let h = record_all(&spread(raw));
        let mut qs: Vec<f64> = raw_qs.into_iter().map(as_q).collect();
        qs.sort_by(f64::total_cmp);
        let values: Vec<u64> = qs.iter().map(|&q| h.quantile_ns(q)).collect();
        for w in values.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles decreased: {:?} over {:?}", values, qs);
        }
        // And every quantile is bounded by the recorded max.
        prop_assert!(values.last().copied().unwrap_or(0) <= h.max_ns());
    }

    #[test]
    fn sub_256ns_region_records_exactly(
        raw in vec(0u64..256, 1..200),
        raw_q in any::<u64>(),
    ) {
        let mut samples = raw;
        let h = record_all(&samples);
        samples.sort_unstable();
        let q = as_q(raw_q);
        // The reported quantile must be the *true* order statistic: rank
        // ceil(q·n) clamped to at least 1, 1-indexed into the sorted set.
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        prop_assert_eq!(h.quantile_ns(q), samples[rank - 1]);
        // Exactness extends to the aggregates.
        prop_assert_eq!(h.max_ns(), *samples.last().unwrap());
        prop_assert_eq!(h.sum_ns(), samples.iter().sum::<u64>());
        prop_assert_eq!(h.count(), samples.len() as u64);
    }
}
