//! Mixed read/write/scan traffic with a mid-run key-distribution shift.
//!
//! The YCSB drivers (`ycsb`) model the paper's measured phases: a fixed
//! operation mix over a *stationary* key population. A serving store faces
//! the situation of Appendix C instead: the distribution its dictionary was
//! trained on drifts away under live writes. This generator produces that
//! scenario directly — a stream of point reads, inserts and bounded range
//! scans whose *insert* keys switch from one key population to another at
//! a configurable point of the run (the Email-A → Email-B split of the
//! `fig15` row of `figures`), while reads and scans keep targeting keys
//! known to be present.
//!
//! Keys are materialized (not dataset indices like [`crate::Op`]) so the
//! stream can be replayed against any store and an uncompressed shadow map
//! side by side.

use crate::gen::generate_email_split;
use crate::splitmix64;

/// One operation of a mixed store workload, with concrete keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    /// Point lookup; the key was loaded or previously inserted.
    Get(Vec<u8>),
    /// Insert (or update) of this key/value pair.
    Insert(Vec<u8>, u64),
    /// Bounded range scan over `low..=high`, returning at most `limit`.
    Scan(Vec<u8>, Vec<u8>, usize),
}

/// Operation-mix and shift parameters for [`MixedWorkload::generate`].
#[derive(Debug, Clone, Copy)]
pub struct TrafficSpec {
    /// Percentage of operations that are point reads (0..=100).
    pub read_pct: u8,
    /// Percentage of operations that are inserts; the remainder after
    /// reads and inserts are range scans.
    pub insert_pct: u8,
    /// Maximum scan limit; each scan draws a limit in `1..=scan_limit`.
    pub scan_limit: usize,
    /// Fraction of the run (0.0..=1.0) after which insert keys switch
    /// from the pre-shift to the post-shift population.
    pub shift_after: f64,
}

impl Default for TrafficSpec {
    /// A read-heavy serving mix: 70% reads, 20% inserts, 10% scans, with
    /// the distribution shift at half of the run.
    fn default() -> Self {
        TrafficSpec { read_pct: 70, insert_pct: 20, scan_limit: 50, shift_after: 0.5 }
    }
}

/// A generated mixed workload: keys to bulk-load plus an operation stream.
#[derive(Debug)]
pub struct MixedWorkload {
    /// Keys loaded before the measured run (pre-shift population).
    pub initial: Vec<Vec<u8>>,
    /// The operation stream; inserts switch population mid-run.
    pub ops: Vec<StoreOp>,
    /// Index of the first operation drawn after the shift point.
    pub shift_at: usize,
}

impl MixedWorkload {
    /// Generate `num_ops` operations over `num_initial` loaded keys,
    /// deterministically from `seed`.
    ///
    /// The loaded keys and pre-shift inserts come from the Email-A
    /// population (gmail/yahoo accounts); post-shift inserts come from
    /// Email-B (every other host). Reads pick uniformly among keys already
    /// present (loaded or inserted earlier in the stream), so a replay can
    /// check every result. Scans start at a present key and span a short
    /// suffix interval above it.
    pub fn generate(num_initial: usize, num_ops: usize, spec: TrafficSpec, seed: u64) -> Self {
        assert!(num_initial > 0, "need at least one loaded key");
        assert!(spec.read_pct as usize + spec.insert_pct as usize <= 100, "mix exceeds 100%");
        assert!((0.0..=1.0).contains(&spec.shift_after), "shift_after out of range");
        // Generate both populations up front, sized by what the stream
        // can actually consume: pools only shrink on inserts, and at most
        // `insert_pct`% of the ops are inserts (each phase draws from one
        // pool, so each pool needs at most the full insert bound). Email-A
        // is the ~25% head of the host distribution *and* its distinct-key
        // space is finite, so sizing by `num_ops` outright would both
        // over-generate and cap the stream length a seed can request —
        // millions of ops are fine as long as the insert budget fits.
        let max_inserts = num_ops * spec.insert_pct as usize / 100 + 1;
        let budget = (num_initial + 2 * max_inserts) * 5 + 200;
        let (mut pool_a, mut pool_b) = generate_email_split(budget, seed);
        assert!(pool_a.len() > num_initial + max_inserts, "Email-A pool too small");
        assert!(pool_b.len() > max_inserts, "Email-B pool too small");
        let initial: Vec<Vec<u8>> = pool_a.drain(..num_initial).collect();

        let mut present: Vec<Vec<u8>> = initial.clone();
        let mut state = seed ^ 0x7AFF_1C0D_E5E5_D00D;
        let shift_at = ((num_ops as f64) * spec.shift_after) as usize;
        let mut ops = Vec::with_capacity(num_ops);
        for i in 0..num_ops {
            let r = (splitmix64(&mut state) % 100) as u8;
            if r < spec.read_pct {
                let k = &present[(splitmix64(&mut state) as usize) % present.len()];
                ops.push(StoreOp::Get(k.clone()));
            } else if r < spec.read_pct + spec.insert_pct {
                let pool = if i < shift_at { &mut pool_a } else { &mut pool_b };
                let key = pool.pop().expect("insert pool exhausted");
                let value = splitmix64(&mut state);
                present.push(key.clone());
                ops.push(StoreOp::Insert(key, value));
            } else {
                let low = present[(splitmix64(&mut state) as usize) % present.len()].clone();
                // Span a small interval above `low`: bump the final byte and
                // pad, so the range holds `low` plus nearby keys.
                let mut high = low.clone();
                match high.last_mut() {
                    Some(b) if *b < u8::MAX => *b += 1,
                    _ => high.push(0xFF),
                }
                let limit = 1 + (splitmix64(&mut state) as usize) % spec.scan_limit.max(1);
                ops.push(StoreOp::Scan(low, high, limit));
            }
        }
        MixedWorkload { initial, ops, shift_at }
    }

    /// Partition the op stream across `cores` serving threads,
    /// round-robin, keeping each op's **global index** so per-core
    /// consumers can still tell pre-shift from post-shift
    /// (`index < shift_at`) and any chunking can be checked against the
    /// undivided stream.
    ///
    /// The partition is a pure function of the stream: op `i` goes to
    /// core `i % cores`, and within a core ops stay in global order. So
    /// for any `cores ≥ 1`, interleaving the returned streams by global
    /// index reproduces `self.ops` byte-for-byte — the property the
    /// `traffic_determinism` suite asserts, and what makes multi-core
    /// serving benches replayable.
    pub fn split_across(&self, cores: usize) -> Vec<Vec<(usize, StoreOp)>> {
        assert!(cores > 0, "need at least one core");
        let mut streams: Vec<Vec<(usize, StoreOp)>> =
            (0..cores).map(|_| Vec::with_capacity(self.ops.len() / cores + 1)).collect();
        for (i, op) in self.ops.iter().enumerate() {
            streams[i % cores].push((i, op.clone()));
        }
        streams
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn spec() -> TrafficSpec {
        TrafficSpec::default()
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MixedWorkload::generate(500, 2000, spec(), 9);
        let b = MixedWorkload::generate(500, 2000, spec(), 9);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.ops, b.ops);
        let c = MixedWorkload::generate(500, 2000, spec(), 10);
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn mix_roughly_matches_spec() {
        let w = MixedWorkload::generate(500, 10_000, spec(), 3);
        let gets = w.ops.iter().filter(|o| matches!(o, StoreOp::Get(_))).count();
        let ins = w.ops.iter().filter(|o| matches!(o, StoreOp::Insert(..))).count();
        let scans = w.ops.iter().filter(|o| matches!(o, StoreOp::Scan(..))).count();
        assert_eq!(gets + ins + scans, 10_000);
        assert!((6_000..8_000).contains(&gets), "gets = {gets}");
        assert!((1_400..2_600).contains(&ins), "inserts = {ins}");
        assert!((500..1_500).contains(&scans), "scans = {scans}");
    }

    #[test]
    fn inserts_shift_population_mid_run() {
        let w = MixedWorkload::generate(300, 6_000, spec(), 4);
        let is_a = |k: &[u8]| k.starts_with(b"com.gmail@") || k.starts_with(b"com.yahoo@");
        for (i, op) in w.ops.iter().enumerate() {
            if let StoreOp::Insert(k, _) = op {
                if i < w.shift_at {
                    assert!(is_a(k), "pre-shift insert from Email-B at op {i}");
                } else {
                    assert!(!is_a(k), "post-shift insert from Email-A at op {i}");
                }
            }
        }
        // Loaded keys are all pre-shift population.
        assert!(w.initial.iter().all(|k| is_a(k)));
    }

    #[test]
    fn replay_against_a_shadow_map_is_closed() {
        // Every Get hits a key that exists at that point; scans bracket
        // their low key.
        let w = MixedWorkload::generate(200, 3_000, spec(), 5);
        let mut shadow: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for (i, k) in w.initial.iter().enumerate() {
            shadow.insert(k.clone(), i as u64);
        }
        for op in &w.ops {
            match op {
                StoreOp::Get(k) => assert!(shadow.contains_key(k), "dangling read"),
                StoreOp::Insert(k, v) => {
                    shadow.insert(k.clone(), *v);
                }
                StoreOp::Scan(low, high, limit) => {
                    assert!(low < high);
                    assert!(*limit >= 1);
                    let hits = shadow.range(low.clone()..=high.clone()).count();
                    assert!(hits >= 1, "scan misses its own anchor key");
                }
            }
        }
    }
}
