//! Closed-loop adaptive admission control — the serving plane's only
//! way to move a request off its home worker.
//!
//! Nobody tells the server which worker is sick: a
//! [`FaultPlan`](super::FaultPlan) only injects faults. An
//! [`AdmissionController`] watches per-worker latency over sliding
//! windows of the admission-index space, detects a degrading worker on
//! its own (window p99 vs. the median of its peers, sustained over
//! several windows, with a hysteresis band), and engages **graduated**
//! shedding at admission — 25%, 50%, 75% of the sick worker's would-be
//! traffic sent to its healthiest peers — then steps back down as the
//! worker heals.
//!
//! ## The control loop
//!
//! Requests are binned into windows of [`AdmissionConfig::window`]
//! consecutive admission indices. When the stream crosses into a new
//! window the controller **seals** the previous one and judges every
//! worker:
//!
//! * `ratio(w) = p99(w) / median{ p99(v) : v ≠ w }` — the leave-one-out
//!   baseline means one sick worker cannot poison the reference its own
//!   degradation is measured against;
//! * `ratio ≥ engage_ratio` is *sick* evidence, `ratio ≤ disengage_ratio`
//!   is *healthy* evidence, anything in between (the hysteresis band) is
//!   neither and resets both streaks — a worker hovering at the boundary
//!   cannot flap the controller;
//! * [`AdmissionConfig::engage_after`] consecutive sick windows raise the
//!   worker's shed level by [`AdmissionConfig::shed_step_pct`] (capped at
//!   [`AdmissionConfig::max_shed_pct`]); [`AdmissionConfig::disengage_after`]
//!   consecutive healthy windows lower it one step. Streaks reset after
//!   every transition, so two decisions for one worker are always at
//!   least `min(engage_after, disengage_after)` windows apart — the
//!   no-oscillation guarantee `tests/admission_props.rs` proves.
//! * a window with fewer than [`AdmissionConfig::min_window_ops`] samples
//!   for the worker (or no valid peer baseline) is no evidence at all —
//!   the controller abstains and the streaks carry over, so a
//!   heavily-shed worker (few samples per window) can still accumulate
//!   the healthy evidence it needs to disengage.
//!
//! ## Determinism
//!
//! Every decision is a pure function of `(window snapshot, config,
//! request index)`. The per-request shed draw reuses the fault layer's
//! SplitMix64 finalizer keyed on `(seed, worker, index)`; the shed
//! target prefers the peers with the lowest current shed level and picks
//! among them by the same hash. With a single producer the admission
//! index equals the stream position, so virtual-time `--quick` runs
//! (where the controller observes each request's *would-be* cost on its
//! home worker at admission) are byte-identical run to run — CI diffs
//! the `adaptive` drill's DIGEST lines to prove it. In wall mode workers
//! feed real completion latencies instead and the loop is a genuine
//! feedback controller.
//!
//! The home-worker cost sensor doubles as the **probe** signal: even a
//! 100%-shed worker keeps producing window samples (what its traffic
//! *would have* cost there), so the controller can observe recovery and
//! disengage. Wall mode instead caps `max_shed_pct` below 100 so the
//! residual traffic keeps probing the sick worker.

use super::faults::mix;
use crate::error::StoreError;
use crate::telemetry::LatencyHistogram;

/// Domain-separation salts for the admission-shed decision family
/// (disjoint from the fault layer's).
const SALT_ADMIT: u64 = 0x4144_4D49;
const SALT_TARGET: u64 = 0x5447_5254;

/// Closed-loop admission-controller parameters (see module docs).
///
/// `Copy` on purpose: it rides inside
/// [`ServingConfig`](super::ServingConfig) next to the fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Requests per sliding window of the admission-index space (≥ 1).
    pub window: u64,
    /// Window-p99 ratio (worker vs. peer median) at or above which the
    /// window counts as sick evidence.
    pub engage_ratio: f64,
    /// Ratio at or below which the window counts as healthy evidence.
    /// Must sit strictly below `engage_ratio`: the gap is the hysteresis
    /// band where neither streak grows.
    pub disengage_ratio: f64,
    /// Consecutive sick windows before the shed level steps up (≥ 1).
    pub engage_after: u32,
    /// Consecutive healthy windows before the shed level steps down (≥ 1).
    pub disengage_after: u32,
    /// Shed-level step per decision, percent (1..=100).
    pub shed_step_pct: u8,
    /// Shed-level cap, percent (≤ 100). Keep below 100 in wall mode so
    /// residual traffic still probes the sick worker.
    pub max_shed_pct: u8,
    /// Minimum samples a worker needs in a window for a verdict; thinner
    /// windows abstain (no verdict, streaks carry over).
    pub min_window_ops: u64,
    /// Seed for the per-request shed draw and target pick.
    pub seed: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            window: 1024,
            engage_ratio: 3.0,
            disengage_ratio: 1.5,
            engage_after: 3,
            disengage_after: 3,
            shed_step_pct: 25,
            max_shed_pct: 75,
            min_window_ops: 64,
            seed: 0,
        }
    }
}

impl AdmissionConfig {
    /// The quick-mode shape: windows small enough that engage →
    /// escalate → disengage all fit inside a 10k-op virtual drill.
    pub fn quick(seed: u64) -> Self {
        AdmissionConfig { window: 256, min_window_ops: 24, seed, ..AdmissionConfig::default() }
    }

    /// Validate the parameters ([`Server::start`] calls this).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] on a zero window/streak/step, a cap
    /// or step above 100, or ratios that close the hysteresis band.
    ///
    /// [`Server::start`]: super::Server::start
    pub fn validate(&self) -> Result<(), StoreError> {
        if self.window == 0 {
            return Err(StoreError::InvalidConfig {
                reason: "admission window must be at least 1",
            });
        }
        if self.engage_after == 0 || self.disengage_after == 0 {
            return Err(StoreError::InvalidConfig {
                reason: "admission engage_after/disengage_after must be at least 1",
            });
        }
        if self.shed_step_pct == 0 || self.shed_step_pct > 100 {
            return Err(StoreError::InvalidConfig {
                reason: "admission shed_step_pct must be in 1..=100",
            });
        }
        if self.max_shed_pct > 100 {
            return Err(StoreError::InvalidConfig {
                reason: "admission max_shed_pct must be in 0..=100",
            });
        }
        if !(self.engage_ratio.is_finite() && self.disengage_ratio.is_finite())
            || self.disengage_ratio < 1.0
            || self.engage_ratio <= self.disengage_ratio
        {
            return Err(StoreError::InvalidConfig {
                reason: "admission ratios need 1.0 <= disengage_ratio < engage_ratio",
            });
        }
        Ok(())
    }
}

/// One shed-level transition the controller made at a window seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionDecision {
    /// The window whose seal produced the decision.
    pub window: u64,
    /// The worker whose shed level changed.
    pub worker: usize,
    /// Shed level before, percent.
    pub from_pct: u8,
    /// Shed level after, percent.
    pub to_pct: u8,
    /// The sealed window's p99 ratio vs. the peer median, ×1000 (what
    /// the evidence was; fits the packed event-log word).
    pub ratio_x1000: u64,
}

impl AdmissionDecision {
    /// True when the decision raised the shed level (an engage step).
    pub fn is_engage(&self) -> bool {
        self.to_pct > self.from_pct
    }
}

/// What the controller did over a run (see
/// [`ServingReport::admission`](super::ServingReport::admission)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdmissionReport {
    /// Windows sealed (a judgment pass ran at each).
    pub windows: u64,
    /// Requests the controller sent away from their home worker.
    pub shed: u64,
    /// Every shed-level transition, in seal order.
    pub decisions: Vec<AdmissionDecision>,
    /// Final shed level per worker, percent.
    pub levels: Vec<u8>,
}

impl AdmissionReport {
    /// Engage-step decisions.
    pub fn engages(&self) -> u64 {
        self.decisions.iter().filter(|d| d.is_engage()).count() as u64
    }

    /// Release-step decisions.
    pub fn releases(&self) -> u64 {
        self.decisions.iter().filter(|d| !d.is_engage()).count() as u64
    }

    /// The window whose seal produced the first engage step, if any.
    pub fn first_engage_window(&self) -> Option<u64> {
        self.decisions.iter().find(|d| d.is_engage()).map(|d| d.window)
    }

    /// The window whose seal produced the last release step, if any.
    pub fn last_release_window(&self) -> Option<u64> {
        self.decisions.iter().rev().find(|d| !d.is_engage()).map(|d| d.window)
    }
}

/// Per-worker control state.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerCtl {
    /// Current shed level, percent.
    level_pct: u8,
    /// Consecutive sick-window streak.
    sick: u32,
    /// Consecutive healthy-window streak.
    healthy: u32,
}

/// The closed-loop controller (see module docs). Standalone-usable —
/// `tests/admission_props.rs` drives it directly with synthetic window
/// streams; the server wires it into admission behind a mutex.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    /// Window the stream is currently in (`index / cfg.window`).
    cur_window: u64,
    /// Current-window latency accumulator per worker.
    histos: Vec<LatencyHistogram>,
    ctl: Vec<WorkerCtl>,
    /// Scratch for the leave-one-out median (kept to avoid per-seal
    /// allocation).
    peer_p99s: Vec<u64>,
    windows: u64,
    shed: u64,
    decisions: Vec<AdmissionDecision>,
}

impl AdmissionController {
    /// New controller over `workers` workers, judging nobody yet.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] when the config fails
    /// [`AdmissionConfig::validate`] or `workers` is zero.
    pub fn new(cfg: AdmissionConfig, workers: usize) -> Result<AdmissionController, StoreError> {
        cfg.validate()?;
        if workers == 0 {
            return Err(StoreError::InvalidConfig {
                reason: "admission controller needs at least one worker",
            });
        }
        Ok(AdmissionController {
            cfg,
            cur_window: 0,
            histos: (0..workers).map(|_| LatencyHistogram::new()).collect(),
            ctl: vec![WorkerCtl::default(); workers],
            peer_p99s: Vec::with_capacity(workers),
            windows: 0,
            shed: 0,
            decisions: Vec::new(),
        })
    }

    /// The config the controller runs with.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Workers under control.
    pub fn workers(&self) -> usize {
        self.histos.len()
    }

    /// Current shed level of `worker`, percent.
    pub fn level_pct(&self, worker: usize) -> u8 {
        self.ctl[worker].level_pct
    }

    /// Windows sealed (and judged) so far.
    pub fn windows_sealed(&self) -> u64 {
        self.windows
    }

    /// Feed one latency observation for `worker` into the current
    /// window. In virtual mode this is the request's would-be cost on
    /// its home worker (recorded at admission); in wall mode the real
    /// *service* time on the executing worker — queue wait is excluded,
    /// because under backpressure it measures arrival pressure, not
    /// worker health.
    pub fn observe(&mut self, worker: usize, latency_ns: u64) {
        self.histos[worker].record(latency_ns);
    }

    /// Move the stream clock to `index`, sealing (and judging) every
    /// window the stream has left behind. Returns the decisions this
    /// call produced — empty on the fast path (no window crossed, no
    /// allocation).
    pub fn advance(&mut self, index: u64) -> Vec<AdmissionDecision> {
        let window = index / self.cfg.window;
        if window <= self.cur_window {
            return Vec::new();
        }
        let made = self.decisions.len();
        self.seal(self.cur_window);
        // A quiet stream can skip whole windows; the empty ones carry no
        // evidence, and judging them would just reset every streak.
        self.cur_window = window;
        self.decisions[made..].to_vec()
    }

    /// Seal window `w`: judge every worker from its accumulated
    /// histogram, update streaks and levels, clear the accumulators.
    fn seal(&mut self, w: u64) {
        self.windows += 1;
        let engage_cap = self.cfg.max_shed_pct;
        for worker in 0..self.histos.len() {
            let own = &self.histos[worker];
            let own_count = own.count();
            let own_p99 = own.quantile_ns(0.99);
            self.peer_p99s.clear();
            for (v, h) in self.histos.iter().enumerate() {
                if v != worker && h.count() >= self.cfg.min_window_ops {
                    self.peer_p99s.push(h.quantile_ns(0.99));
                }
            }
            let c = &mut self.ctl[worker];
            if own_count < self.cfg.min_window_ops || self.peer_p99s.is_empty() {
                // Thin window: abstain — no verdict either way, and the
                // streaks carry over. A heavily-shed worker sees few
                // samples per window; if thin windows *reset* streaks,
                // it could never accumulate the healthy evidence needed
                // to disengage.
                continue;
            }
            self.peer_p99s.sort_unstable();
            let base = self.peer_p99s[self.peer_p99s.len() / 2].max(1);
            let ratio = own_p99 as f64 / base as f64;
            let ratio_x1000 = (ratio * 1000.0) as u64;
            if ratio >= self.cfg.engage_ratio {
                c.sick += 1;
                c.healthy = 0;
                if c.sick >= self.cfg.engage_after {
                    c.sick = 0;
                    if c.level_pct < engage_cap {
                        let from = c.level_pct;
                        c.level_pct = from.saturating_add(self.cfg.shed_step_pct).min(engage_cap);
                        self.decisions.push(AdmissionDecision {
                            window: w,
                            worker,
                            from_pct: from,
                            to_pct: c.level_pct,
                            ratio_x1000,
                        });
                    }
                }
            } else if ratio <= self.cfg.disengage_ratio {
                c.healthy += 1;
                c.sick = 0;
                if c.healthy >= self.cfg.disengage_after {
                    c.healthy = 0;
                    if c.level_pct > 0 {
                        let from = c.level_pct;
                        c.level_pct = from.saturating_sub(self.cfg.shed_step_pct);
                        self.decisions.push(AdmissionDecision {
                            window: w,
                            worker,
                            from_pct: from,
                            to_pct: c.level_pct,
                            ratio_x1000,
                        });
                    }
                }
            } else {
                // Hysteresis band: evidence for neither side.
                c.sick = 0;
                c.healthy = 0;
            }
        }
        for h in &mut self.histos {
            *h = LatencyHistogram::new();
        }
    }

    /// The shed decision for request `index` homed on `worker`: when the
    /// worker's level sheds this request, the healthy peer to send it
    /// to (preferring the peers with the lowest shed level, picked by
    /// hash among ties). `None` = keep the home worker. Pure in
    /// `(levels, config, worker, index)`; counts into the report.
    pub fn shed(&mut self, worker: usize, index: u64) -> Option<usize> {
        let level = u64::from(self.ctl[worker].level_pct);
        let workers = self.ctl.len();
        if level == 0 || workers < 2 {
            return None;
        }
        if mix(self.cfg.seed, worker as u64, index, 0, SALT_ADMIT) % 100 >= level {
            return None;
        }
        let min_peer =
            self.ctl.iter().enumerate().filter(|(v, _)| *v != worker).map(|(_, c)| c.level_pct);
        let min_level = min_peer.min().unwrap_or(0);
        let candidates = self
            .ctl
            .iter()
            .enumerate()
            .filter(|(v, c)| *v != worker && c.level_pct == min_level)
            .map(|(v, _)| v);
        let n = candidates.clone().count() as u64;
        let pick = mix(self.cfg.seed, worker as u64, index, 0, SALT_TARGET) % n;
        let target = candidates.clone().nth(pick as usize).expect("candidate pick in range");
        self.shed += 1;
        Some(target)
    }

    /// Snapshot what the controller did so far.
    pub fn report(&self) -> AdmissionReport {
        AdmissionReport {
            windows: self.windows,
            shed: self.shed,
            decisions: self.decisions.clone(),
            levels: self.ctl.iter().map(|c| c.level_pct).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig { window: 100, min_window_ops: 10, seed: 7, ..AdmissionConfig::default() }
    }

    /// Drive `windows` full windows where worker 0 records `sick_ns` and
    /// the rest 1_000 ns, 20 samples each.
    fn drive(ctl: &mut AdmissionController, windows: u64, sick_ns: u64) -> Vec<AdmissionDecision> {
        let mut out = Vec::new();
        let start = ctl.cur_window;
        for w in start..start + windows {
            for _ in 0..20 {
                ctl.observe(0, sick_ns);
                for v in 1..ctl.workers() {
                    ctl.observe(v, 1_000);
                }
            }
            out.extend(ctl.advance((w + 1) * ctl.cfg.window));
        }
        out
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        assert!(AdmissionConfig::default().validate().is_ok());
        assert!(AdmissionConfig::quick(3).validate().is_ok());
        for bad in [
            AdmissionConfig { window: 0, ..cfg() },
            AdmissionConfig { engage_after: 0, ..cfg() },
            AdmissionConfig { disengage_after: 0, ..cfg() },
            AdmissionConfig { shed_step_pct: 0, ..cfg() },
            AdmissionConfig { shed_step_pct: 101, ..cfg() },
            AdmissionConfig { max_shed_pct: 101, ..cfg() },
            AdmissionConfig { disengage_ratio: 0.5, ..cfg() },
            AdmissionConfig { engage_ratio: 1.5, disengage_ratio: 1.5, ..cfg() },
            AdmissionConfig { engage_ratio: f64::NAN, ..cfg() },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        assert!(AdmissionController::new(cfg(), 0).is_err());
    }

    #[test]
    fn engages_after_sustained_degradation_and_escalates() {
        let mut ctl = AdmissionController::new(cfg(), 4).unwrap();
        // Two sick windows: streak building, no decision yet.
        assert!(drive(&mut ctl, 2, 10_000).is_empty());
        assert_eq!(ctl.level_pct(0), 0);
        // Third seals the streak: engage to 25.
        let d = drive(&mut ctl, 1, 10_000);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].worker, d[0].from_pct, d[0].to_pct), (0, 0, 25));
        assert!(d[0].is_engage());
        assert!(d[0].ratio_x1000 >= 3_000);
        // Sustained sickness escalates to the cap and stops there.
        drive(&mut ctl, 12, 10_000);
        assert_eq!(ctl.level_pct(0), 75);
        let report = ctl.report();
        assert_eq!(report.engages(), 3);
        assert_eq!(report.levels, vec![75, 0, 0, 0]);
        assert_eq!(report.first_engage_window(), Some(2));
    }

    #[test]
    fn disengages_as_the_worker_heals() {
        let mut ctl = AdmissionController::new(cfg(), 4).unwrap();
        drive(&mut ctl, 9, 10_000);
        assert_eq!(ctl.level_pct(0), 75);
        // Healthy windows walk the level back down one step per streak.
        drive(&mut ctl, 3, 1_000);
        assert_eq!(ctl.level_pct(0), 50);
        drive(&mut ctl, 6, 1_000);
        assert_eq!(ctl.level_pct(0), 0);
        let report = ctl.report();
        assert_eq!(report.releases(), 3);
        assert_eq!(report.last_release_window(), Some(17));
        // Fully healed: further healthy windows decide nothing.
        assert!(drive(&mut ctl, 5, 1_000).is_empty());
    }

    #[test]
    fn hysteresis_band_resets_both_streaks() {
        let mut ctl = AdmissionController::new(cfg(), 4).unwrap();
        // ratio 2.0 sits between disengage (1.5) and engage (3.0).
        for _ in 0..20 {
            assert!(drive(&mut ctl, 2, 10_000).is_empty());
            assert!(drive(&mut ctl, 1, 2_000).is_empty());
        }
        assert_eq!(ctl.level_pct(0), 0);
    }

    #[test]
    fn thin_windows_are_no_evidence() {
        let c = AdmissionConfig { min_window_ops: 50, ..cfg() };
        let mut ctl = AdmissionController::new(c, 4).unwrap();
        // 20 samples per worker per window < 50: never engages.
        drive(&mut ctl, 10, 100_000);
        assert_eq!(ctl.level_pct(0), 0);
        assert!(ctl.report().decisions.is_empty());
        assert_eq!(ctl.report().windows, 10);
    }

    #[test]
    fn thin_windows_abstain_but_do_not_reset_streaks() {
        let mut ctl = AdmissionController::new(cfg(), 4).unwrap();
        // Two sick windows (engage_after is 3)...
        drive(&mut ctl, 2, 100_000);
        // ...then a thin window: 2 samples per worker < min_window_ops.
        let w = ctl.cur_window;
        for _ in 0..2 {
            for v in 0..4 {
                ctl.observe(v, 1_000);
            }
        }
        assert!(ctl.advance((w + 1) * ctl.cfg.window).is_empty(), "thin window decided");
        // One more sick window completes the carried-over streak: a
        // heavily-shed worker with sparse samples can still be judged.
        let d = drive(&mut ctl, 1, 100_000);
        assert_eq!(d.len(), 1);
        assert!(d[0].is_engage() && d[0].worker == 0);
        assert_eq!(ctl.level_pct(0), cfg().shed_step_pct);
    }

    #[test]
    fn shed_draw_matches_level_and_avoids_the_sick_worker() {
        let mut ctl = AdmissionController::new(cfg(), 4).unwrap();
        assert_eq!(ctl.shed(0, 1), None, "level 0 sheds nothing");
        drive(&mut ctl, 9, 10_000);
        assert_eq!(ctl.level_pct(0), 75);
        let mut shed = 0u64;
        for i in 0..100_000u64 {
            assert_eq!(ctl.shed(1, i), None, "healthy home worker untouched");
            if let Some(t) = ctl.shed(0, i) {
                assert_ne!(t, 0, "shed back onto the sick worker");
                assert!(t < 4);
                shed += 1;
            }
        }
        let pct = shed as f64 / 1_000.0;
        assert!((70.0..=80.0).contains(&pct), "shed {pct:.1}% instead of ~75%");
        assert_eq!(ctl.report().shed, shed);
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut ctl = AdmissionController::new(cfg(), 4).unwrap();
            let mut log = drive(&mut ctl, 9, 10_000);
            log.extend(drive(&mut ctl, 9, 1_000));
            let sheds: Vec<Option<usize>> = (0..1000).map(|i| ctl.shed(0, i)).collect();
            (log, sheds)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn two_workers_reroute_to_the_only_peer() {
        let mut ctl = AdmissionController::new(cfg(), 2).unwrap();
        drive(&mut ctl, 3, 10_000);
        assert_eq!(ctl.level_pct(0), 25);
        for i in 0..1000 {
            if let Some(t) = ctl.shed(0, i) {
                assert_eq!(t, 1);
            }
        }
    }
}
