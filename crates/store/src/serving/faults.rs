//! Deterministic fault injection for the serving pipeline.
//!
//! A [`FaultPlan`] is a seeded, serializable description of the faults a
//! run should suffer. Every decision it makes is a **pure function of
//! `(worker, request index, phase)`** — the request index is the
//! admission ticket the server stamps on each envelope — hashed together
//! with the plan's seed through a SplitMix64 finalizer. No clocks, no
//! global state: over a fixed op sequence submitted in a fixed order, two
//! runs suffer *exactly* the same faults, which is what lets the
//! `faults` acceptance drill diff byte-identical `DIGEST` lines across
//! virtual-time runs while one worker is degraded 10×.
//!
//! Four fault families:
//!
//! * **probe slowdown** — every request executed by the degraded worker
//!   pays [`FaultPlan::slow_factor`]× its service cost;
//! * **stalls** — 1-in-[`FaultPlan::stall_every`] degraded-worker
//!   requests pay a large fixed [`FaultPlan::stall_ns`] pause (the
//!   "worker wedged on an fsync" shape);
//! * **latency spikes** — 1-in-[`FaultPlan::spike_every`] requests on
//!   *any* worker pay [`FaultPlan::spike_ns`] (background noise: page
//!   faults, TLB shootdowns);
//! * **queue-pressure bursts** — recurring windows of the request-index
//!   space ([`FaultPlan::burst_len`] out of every
//!   [`FaultPlan::burst_every`] indices) pay [`FaultPlan::burst_ns`]
//!   each; in wall mode the consecutive delays stack up inside one
//!   worker's queue, which is exactly a pressure burst.
//!
//! In virtual time the penalties are added to [`virtual_cost`]
//! (deterministic bookkeeping); in wall mode the worker really waits them
//! out, so queues back up for real.
//!
//! The plan also covers the **maintenance path**: installed on a store
//! via [`HopeStore::inject_faults`], it forces every
//! [`FaultPlan::rebuild_fail_every`]-th rebuild attempt per shard to fail
//! with [`StoreError::FaultInjected`] *before* any build work happens.
//! The shard's normal failure handling takes over from there: the old
//! generation keeps serving, `store.shard.{i}.rebuild_errors` ticks, and
//! a [`RebuildFailed`](crate::telemetry::EventKind::RebuildFailed) event
//! lands in the ring — so every injected failure is attributable from
//! telemetry alone.
//!
//! Finally, the **degraded-mode hook**: [`FaultPlan::reroute`] sheds a
//! configured fraction ([`FaultPlan::shed_pct`]) of the degraded worker's
//! would-be traffic to healthy peers at admission, chosen
//! deterministically per request. [`Server::push`] consults it so the
//! fixed op stream never queues behind the sick worker; cross-worker
//! execution is safe by construction (readers never block, writers
//! serialize on the shard's writer mutex, not the worker).
//!
//! [`virtual_cost`]: super::virtual_cost
//! [`Server::push`]: super::Server
//! [`HopeStore::inject_faults`]: crate::HopeStore::inject_faults
//! [`StoreError::FaultInjected`]: crate::StoreError::FaultInjected

use std::fmt;
use std::str::FromStr;

/// Domain-separation salts, one per decision family.
const SALT_STALL: u64 = 0x5354_414C;
const SALT_SPIKE: u64 = 0x5350_494B;
const SALT_SHED: u64 = 0x5348_4544;
const SALT_PICK: u64 = 0x5049_434B;

/// SplitMix64-style finalizer over the decision coordinates. Pure; the
/// whole determinism story rests on this taking nothing but its
/// arguments. Shared with the admission controller's shed draw (same
/// determinism contract, disjoint salts).
pub(crate) fn mix(seed: u64, worker: u64, index: u64, phase: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(worker.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(phase.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one request suffers, as decided by [`FaultPlan::action`]. The
/// components compose: a degraded-worker request can be slowed *and*
/// stalled *and* sit inside a burst window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAction {
    /// Service-cost multiplier (`1` = unimpaired).
    pub slow_factor: u64,
    /// Stall pause added, ns.
    pub stall_ns: u64,
    /// Queue-pressure-burst delay added, ns.
    pub burst_ns: u64,
    /// Latency-spike delay added, ns.
    pub spike_ns: u64,
}

impl Default for FaultAction {
    fn default() -> Self {
        FaultAction { slow_factor: 1, stall_ns: 0, burst_ns: 0, spike_ns: 0 }
    }
}

impl FaultAction {
    /// True when the request is entirely unimpaired.
    pub fn is_none(&self) -> bool {
        *self == FaultAction::default()
    }

    /// Total additive delay (stall + burst + spike), ns.
    pub fn extra_ns(&self) -> u64 {
        self.stall_ns + self.burst_ns + self.spike_ns
    }
}

/// Per-worker tally of the faults actually injected (reported in
/// [`WorkerStats`](super::WorkerStats) and summed into the
/// `serving.fault.*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Requests that paid the degraded-worker slow factor.
    pub slowed: u64,
    /// Requests that hit a stall.
    pub stalled: u64,
    /// Requests inside a queue-pressure burst window.
    pub burst: u64,
    /// Requests that hit a latency spike.
    pub spiked: u64,
}

impl FaultTally {
    /// Count one request's action into the tally.
    pub fn note(&mut self, a: &FaultAction) {
        self.slowed += u64::from(a.slow_factor > 1);
        self.stalled += u64::from(a.stall_ns > 0);
        self.burst += u64::from(a.burst_ns > 0);
        self.spiked += u64::from(a.spike_ns > 0);
    }

    /// Fold another worker's tally into this one.
    pub fn merge(&mut self, other: &FaultTally) {
        self.slowed += other.slowed;
        self.stalled += other.stalled;
        self.burst += other.burst;
        self.spiked += other.spiked;
    }

    /// Total injections across all families.
    pub fn total(&self) -> u64 {
        self.slowed + self.stalled + self.burst + self.spiked
    }
}

/// A deterministic, serializable fault-injection plan (see module docs).
///
/// `Copy` on purpose: it rides inside
/// [`ServingConfig`](super::ServingConfig) and is re-read per request
/// with no synchronization. The [`Default`] plan injects nothing.
///
/// Serialization round-trips through `Display`/`FromStr`:
///
/// ```
/// use hope_store::serving::FaultPlan;
/// let plan = FaultPlan { degraded_worker: Some(1), slow_factor: 10, ..FaultPlan::default() };
/// let wire = plan.to_string();
/// assert_eq!(wire.parse::<FaultPlan>().unwrap(), plan);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every decision hash.
    pub seed: u64,
    /// The sick worker (slow factor, stalls and shedding apply to it);
    /// `None` degrades nobody.
    pub degraded_worker: Option<usize>,
    /// Service-cost multiplier on the degraded worker (≥ 1; `1` = none).
    pub slow_factor: u64,
    /// 1-in-N stall probability on the degraded worker (`0` = never).
    pub stall_every: u64,
    /// Stall pause, ns.
    pub stall_ns: u64,
    /// 1-in-N spike probability on any worker (`0` = never).
    pub spike_every: u64,
    /// Spike delay, ns.
    pub spike_ns: u64,
    /// Burst window period over the request-index space (`0` = never).
    pub burst_every: u64,
    /// Burst window length (indices `i % burst_every < burst_len` burn).
    pub burst_len: u64,
    /// Per-request delay inside a burst window, ns.
    pub burst_ns: u64,
    /// Percentage (`0..=100`) of the degraded worker's would-be traffic
    /// the admission path sheds to healthy workers.
    pub shed_pct: u8,
    /// Fail every N-th rebuild attempt per shard, counting from the
    /// first (`0` = never; `2` = attempts 0, 2, 4 … fail, so a failed
    /// rebuild heals on the next pass).
    pub rebuild_fail_every: u64,
    /// Bitmask of phases the serving-side faults are active in (bit `p`
    /// = phase `p`; the maintenance path has no phase and ignores it).
    pub phase_mask: u16,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            degraded_worker: None,
            slow_factor: 1,
            stall_every: 0,
            stall_ns: 0,
            spike_every: 0,
            spike_ns: 0,
            burst_every: 0,
            burst_len: 0,
            burst_ns: 0,
            shed_pct: 0,
            rebuild_fail_every: 0,
            phase_mask: u16::MAX,
        }
    }
}

impl FaultPlan {
    /// True when the plan can inject anything at all on the serving side.
    pub fn any_serving_faults(&self) -> bool {
        (self.degraded_worker.is_some() && (self.slow_factor > 1 || self.stall_every > 0))
            || self.spike_every > 0
            || (self.burst_every > 0 && self.burst_len > 0)
    }

    /// True when the plan's serving-side faults apply in `phase`.
    pub fn active(&self, phase: u8) -> bool {
        phase < 16 && self.phase_mask & (1 << phase) != 0
    }

    /// True when `worker` is the plan's degraded worker and the plan is
    /// active in `phase` — the degraded-mode hook admission control and
    /// report consumers query.
    pub fn is_degraded(&self, worker: usize, phase: u8) -> bool {
        self.degraded_worker == Some(worker) && self.active(phase)
    }

    /// The faults request `index` suffers when executed by `worker` in
    /// `phase`. Pure: same arguments, same answer, every run.
    pub fn action(&self, worker: usize, index: u64, phase: u8) -> FaultAction {
        let mut a = FaultAction::default();
        if !self.active(phase) {
            return a;
        }
        let w = worker as u64;
        if self.degraded_worker == Some(worker) {
            a.slow_factor = self.slow_factor.max(1);
            if self.stall_every > 0
                && mix(self.seed, w, index, phase.into(), SALT_STALL)
                    .is_multiple_of(self.stall_every)
            {
                a.stall_ns = self.stall_ns;
            }
        }
        if self.spike_every > 0
            && mix(self.seed, w, index, phase.into(), SALT_SPIKE).is_multiple_of(self.spike_every)
        {
            a.spike_ns = self.spike_ns;
        }
        if self.burst_every > 0 && index % self.burst_every < self.burst_len {
            a.burst_ns = self.burst_ns;
        }
        a
    }

    /// The degraded-mode shed decision: when request `index` would be
    /// routed to the degraded `worker` in an active `phase`, return the
    /// healthy worker to send it to instead (for `shed_pct`% of that
    /// traffic, chosen deterministically). `None` = keep the home worker.
    pub fn reroute(&self, worker: usize, index: u64, phase: u8, workers: usize) -> Option<usize> {
        if workers < 2 || self.shed_pct == 0 || !self.is_degraded(worker, phase) {
            return None;
        }
        let w = worker as u64;
        if mix(self.seed, w, index, phase.into(), SALT_SHED) % 100 >= u64::from(self.shed_pct) {
            return None;
        }
        // Any offset in 1..workers lands off the degraded worker.
        let hop = 1 + mix(self.seed, w, index, phase.into(), SALT_PICK) % (workers as u64 - 1);
        Some((worker + hop as usize) % workers)
    }

    /// Maintenance-path decision: does rebuild attempt number `attempt`
    /// (0-based, counted per shard while the plan is installed) fail?
    pub fn rebuild_fails(&self, _shard: u32, attempt: u64) -> bool {
        self.rebuild_fail_every > 0 && attempt.is_multiple_of(self.rebuild_fail_every)
    }
}

/// Compact `key=value;…` wire format (hand-rolled; the workspace is
/// serde-free). [`FromStr`] parses exactly what this prints.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let degraded = match self.degraded_worker {
            Some(w) => w.to_string(),
            None => "none".to_string(),
        };
        write!(
            f,
            "seed={};degraded={};slow={};stall={}/{};spike={}/{};burst={}/{}/{};\
             shed={};rebuild_fail={};phases={:x}",
            self.seed,
            degraded,
            self.slow_factor,
            self.stall_every,
            self.stall_ns,
            self.spike_every,
            self.spike_ns,
            self.burst_every,
            self.burst_len,
            self.burst_ns,
            self.shed_pct,
            self.rebuild_fail_every,
            self.phase_mask,
        )
    }
}

/// Error from parsing a [`FaultPlan`] wire string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultPlanError {
    /// The field (or shape) that failed to parse.
    pub field: &'static str,
}

impl fmt::Display for ParseFaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: bad `{}`", self.field)
    }
}

impl std::error::Error for ParseFaultPlanError {}

impl FromStr for FaultPlan {
    type Err = ParseFaultPlanError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn num(v: &str, field: &'static str) -> Result<u64, ParseFaultPlanError> {
            v.parse().map_err(|_| ParseFaultPlanError { field })
        }
        fn pair(v: &str, field: &'static str) -> Result<(u64, u64), ParseFaultPlanError> {
            match v.split_once('/') {
                Some((a, b)) => Ok((num(a, field)?, num(b, field)?)),
                None => Err(ParseFaultPlanError { field }),
            }
        }
        let mut plan = FaultPlan::default();
        for part in s.split(';').filter(|p| !p.is_empty()) {
            let (key, val) =
                part.split_once('=').ok_or(ParseFaultPlanError { field: "key=value" })?;
            match key {
                "seed" => plan.seed = num(val, "seed")?,
                "degraded" => {
                    plan.degraded_worker = match val {
                        "none" => None,
                        w => Some(num(w, "degraded")? as usize),
                    }
                }
                "slow" => plan.slow_factor = num(val, "slow")?.max(1),
                "stall" => (plan.stall_every, plan.stall_ns) = pair(val, "stall")?,
                "spike" => (plan.spike_every, plan.spike_ns) = pair(val, "spike")?,
                "burst" => {
                    let mut it = val.splitn(3, '/');
                    let every = it.next().ok_or(ParseFaultPlanError { field: "burst" })?;
                    let len = it.next().ok_or(ParseFaultPlanError { field: "burst" })?;
                    let ns = it.next().ok_or(ParseFaultPlanError { field: "burst" })?;
                    plan.burst_every = num(every, "burst")?;
                    plan.burst_len = num(len, "burst")?;
                    plan.burst_ns = num(ns, "burst")?;
                }
                "shed" => {
                    let p = num(val, "shed")?;
                    if p > 100 {
                        return Err(ParseFaultPlanError { field: "shed" });
                    }
                    plan.shed_pct = p as u8;
                }
                "rebuild_fail" => plan.rebuild_fail_every = num(val, "rebuild_fail")?,
                "phases" => {
                    plan.phase_mask = u16::from_str_radix(val, 16)
                        .map_err(|_| ParseFaultPlanError { field: "phases" })?
                }
                _ => return Err(ParseFaultPlanError { field: "unknown key" }),
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercised_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            degraded_worker: Some(1),
            slow_factor: 10,
            stall_every: 97,
            stall_ns: 50_000,
            spike_every: 64,
            spike_ns: 2_000,
            burst_every: 4096,
            burst_len: 32,
            burst_ns: 8_000,
            shed_pct: 75,
            rebuild_fail_every: 2,
            phase_mask: 0b110,
        }
    }

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(!plan.any_serving_faults());
        for (w, i, p) in [(0, 0, 0), (3, 999, 2), (1, 123_456, 15)] {
            assert!(plan.action(w, i, p).is_none());
            assert_eq!(plan.reroute(w, i, p, 4), None);
        }
        assert!(!plan.rebuild_fails(0, 0));
    }

    #[test]
    fn decisions_are_pure_and_phase_gated() {
        let plan = exercised_plan();
        for i in 0..10_000u64 {
            for w in 0..4usize {
                assert_eq!(plan.action(w, i, 1), plan.action(w, i, 1), "impure at {w}/{i}");
                // Phase 0 is masked out: no serving fault fires there.
                assert!(plan.action(w, i, 0).is_none());
                assert_eq!(plan.reroute(w, i, 0, 4), None);
            }
        }
    }

    #[test]
    fn degradation_targets_only_the_sick_worker() {
        let plan = exercised_plan();
        let (mut stalls, mut spikes, mut bursts) = (0u64, 0u64, 0u64);
        for i in 0..100_000u64 {
            let sick = plan.action(1, i, 1);
            assert_eq!(sick.slow_factor, 10);
            stalls += u64::from(sick.stall_ns > 0);
            spikes += u64::from(sick.spike_ns > 0);
            bursts += u64::from(sick.burst_ns > 0);
            for w in [0usize, 2, 3] {
                let healthy = plan.action(w, i, 1);
                assert_eq!(healthy.slow_factor, 1);
                assert_eq!(healthy.stall_ns, 0, "stall on a healthy worker");
            }
        }
        // 1-in-97, 1-in-64 and 32-in-4096 rates over 100k draws.
        assert!((700..=1_400).contains(&stalls), "stalls = {stalls}");
        assert!((1_100..=2_100).contains(&spikes), "spikes = {spikes}");
        assert_eq!(bursts, 100_000 / 4096 * 32 + 32, "bursts = {bursts}");
    }

    #[test]
    fn reroute_sheds_the_configured_fraction_to_healthy_workers() {
        let plan = exercised_plan();
        let mut shed = 0u64;
        for i in 0..100_000u64 {
            // Healthy home workers are never rerouted.
            assert_eq!(plan.reroute(0, i, 1, 4), None);
            if let Some(alt) = plan.reroute(1, i, 1, 4) {
                assert_ne!(alt, 1, "shed back onto the sick worker");
                assert!(alt < 4);
                shed += 1;
            }
        }
        let pct = shed as f64 / 1_000.0;
        assert!((70.0..=80.0).contains(&pct), "shed {pct:.1}% instead of ~75%");
        // Two workers: the only healthy peer is the other one.
        assert!(!matches!(plan.reroute(1, 3, 1, 2), Some(alt) if alt != 0));
    }

    #[test]
    fn rebuild_failures_follow_the_every_n_cadence() {
        let plan = exercised_plan();
        for shard in 0..4u32 {
            assert!(plan.rebuild_fails(shard, 0));
            assert!(!plan.rebuild_fails(shard, 1));
            assert!(plan.rebuild_fails(shard, 2));
        }
    }

    #[test]
    fn wire_format_round_trips() {
        for plan in [FaultPlan::default(), exercised_plan()] {
            let wire = plan.to_string();
            assert_eq!(wire.parse::<FaultPlan>().unwrap(), plan, "{wire}");
        }
        assert!("slow=ten".parse::<FaultPlan>().is_err());
        assert!("shed=101".parse::<FaultPlan>().is_err());
        assert!("nonsense".parse::<FaultPlan>().is_err());
        assert!("bogus=1".parse::<FaultPlan>().is_err());
        // Partial strings fill the rest from the default plan.
        let p: FaultPlan = "degraded=2;slow=4".parse().unwrap();
        assert_eq!(p.degraded_worker, Some(2));
        assert_eq!(p.slow_factor, 4);
        assert_eq!(p.phase_mask, u16::MAX);
    }

    #[test]
    fn fault_action_accounting() {
        let mut tally = FaultTally::default();
        tally.note(&FaultAction::default());
        assert_eq!(tally.total(), 0);
        let a = FaultAction { slow_factor: 10, stall_ns: 5, burst_ns: 0, spike_ns: 2 };
        assert!(!a.is_none());
        assert_eq!(a.extra_ns(), 7);
        tally.note(&a);
        assert_eq!((tally.slowed, tally.stalled, tally.burst, tally.spiked), (1, 1, 0, 1));
        let mut sum = FaultTally::default();
        sum.merge(&tally);
        sum.merge(&tally);
        assert_eq!(sum.total(), 6);
    }
}
