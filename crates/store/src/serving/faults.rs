//! Deterministic fault injection for the serving pipeline.
//!
//! A [`FaultPlan`] is a seeded description of the faults a run should
//! suffer. Every decision it makes is a **pure function of
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
//! The plan only injects: it never moves traffic. Shedding a sick
//! worker's requests to healthy peers is the
//! [admission controller](super::admission)'s job alone, and it has to
//! find the sick worker from latency, as it would in production.
//!
//! [`virtual_cost`]: super::virtual_cost
//! [`HopeStore::inject_faults`]: crate::HopeStore::inject_faults
//! [`StoreError::FaultInjected`]: crate::StoreError::FaultInjected

use std::fmt;

/// Domain-separation salts, one per decision family.
const SALT_STALL: u64 = 0x5354_414C;
const SALT_SPIKE: u64 = 0x5350_494B;

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

    /// What `ns` of unimpaired service costs under this action:
    /// `ns × slow_factor + extra_ns`. The virtual-time charge (the
    /// admission sensor's and the worker's) and the wall-mode penalty
    /// are both this one formula.
    pub(crate) fn stretch(&self, ns: u64) -> u64 {
        ns.saturating_mul(self.slow_factor.max(1)).saturating_add(self.extra_ns())
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

/// A deterministic fault-injection plan (see module docs).
///
/// `Copy` on purpose: it rides inside
/// [`ServingConfig`](super::ServingConfig) and is re-read per request
/// with no synchronization. The [`Default`] plan injects nothing.
///
/// `Display` prints it as one `key=value;…` line for run notes:
///
/// ```
/// use hope_store::serving::FaultPlan;
/// let plan = FaultPlan { degraded_worker: Some(1), slow_factor: 10, ..FaultPlan::default() };
/// assert!(plan.is_degraded(1) && !plan.is_degraded(0));
/// assert!(plan.to_string().starts_with("seed=0;degraded=1;slow=10;"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every decision hash.
    pub seed: u64,
    /// The sick worker (slow factor and stalls apply to it);
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

    /// True when `worker` is the plan's degraded worker in at least one
    /// phase — what separates healthy-worker tail latency from the sick
    /// worker's in a report.
    pub fn is_degraded(&self, worker: usize) -> bool {
        self.degraded_worker == Some(worker) && self.phase_mask != 0
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

    /// Maintenance-path decision: does rebuild attempt number `attempt`
    /// (0-based, counted per shard while the plan is installed) fail?
    pub fn rebuild_fails(&self, _shard: u32, attempt: u64) -> bool {
        self.rebuild_fail_every > 0 && attempt.is_multiple_of(self.rebuild_fail_every)
    }
}

/// Compact `key=value;…` form, one line (the drills print it in their
/// notes).
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let degraded = match self.degraded_worker {
            Some(w) => w.to_string(),
            None => "none".to_string(),
        };
        write!(
            f,
            "seed={};degraded={};slow={};stall={}/{};spike={}/{};burst={}/{}/{};\
             rebuild_fail={};phases={:x}",
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
            self.rebuild_fail_every,
            self.phase_mask,
        )
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
            assert!(!plan.is_degraded(w));
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
        assert!(plan.is_degraded(1) && [0, 2, 3].iter().all(|&w| !plan.is_degraded(w)));
        // A plan masked out of every phase degrades nobody.
        assert!(!FaultPlan { phase_mask: 0, ..plan }.is_degraded(1));
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
    fn fault_action_accounting() {
        let mut tally = FaultTally::default();
        tally.note(&FaultAction::default());
        assert_eq!(tally.total(), 0);
        let a = FaultAction { slow_factor: 10, stall_ns: 5, burst_ns: 0, spike_ns: 2 };
        assert!(!a.is_none());
        assert_eq!(a.extra_ns(), 7);
        assert_eq!((a.stretch(100), FaultAction::default().stretch(100)), (1_007, 100));
        tally.note(&a);
        assert_eq!((tally.slowed, tally.stalled, tally.burst, tally.spiked), (1, 1, 0, 1));
        let mut sum = FaultTally::default();
        sum.merge(&tally);
        sum.merge(&tally);
        assert_eq!(sum.total(), 6);
    }
}
