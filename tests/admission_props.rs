//! Property suite for [`hope_store::serving::AdmissionController`] — the
//! closed-loop admission policy behind the `adaptive` drill.
//!
//! Three behavioural claims, attacked with random window scripts:
//!
//! * **determinism** — two controllers fed byte-identical observation
//!   and probe schedules emit byte-identical decision sequences, shed
//!   verdicts, and reports, whatever the script. This is the contract
//!   the `--quick` virtual drills rest on;
//! * **shedding is monotone in sustained degradation** — more
//!   consecutive sick windows can only raise the shed level, and every
//!   request a lightly-engaged controller sheds is also shed by a more
//!   heavily engaged one (the per-request draw is a fixed hash compared
//!   against the level);
//! * **hysteresis forbids oscillation** — consecutive decisions for the
//!   same worker are always at least `min(engage_after,
//!   disengage_after)` windows apart, because each transition resets the
//!   evidence streaks. A flapping controller would shed and unshed the
//!   same traffic on alternating windows; this property pins that off.

use hope_store::serving::{AdmissionConfig, AdmissionController, AdmissionDecision};
use proptest::collection::vec;
use proptest::prelude::*;

const WORKERS: usize = 4;
const SICK: usize = 1;

/// Per-window latency the sick worker reports: `0` marks a thin window
/// (too few samples to be evidence either way).
const HEALTHY_NS: u64 = 1_000;
const SICK_NS: u64 = 20_000;
const THIN: u64 = 0;

fn cfg(window: u64, seed: u64) -> AdmissionConfig {
    AdmissionConfig { window, min_window_ops: 8, seed, ..AdmissionConfig::default() }
}

/// Map raw draws onto a window script: thin / healthy / sick.
fn script(raw: Vec<u64>) -> Vec<u64> {
    raw.into_iter()
        .map(|r| match r % 3 {
            0 => THIN,
            1 => HEALTHY_NS,
            _ => SICK_NS,
        })
        .collect()
}

/// Drive the controller through the scripted windows: 16 samples per
/// worker per window (thin windows get 2, below `min_window_ops`),
/// advancing the admission clock as a single producer would. Returns
/// every decision the seals emitted.
fn drive(ctl: &mut AdmissionController, plan: &[u64], window: u64) -> Vec<AdmissionDecision> {
    let mut decisions = Vec::new();
    for (w, &sick_ns) in plan.iter().enumerate() {
        let base = w as u64 * window;
        let per = if sick_ns == THIN { 2 } else { 16 };
        for s in 0..per {
            decisions.extend(ctl.advance(base + s * window / per));
            for worker in 0..WORKERS {
                let ns = if worker == SICK && sick_ns != THIN { sick_ns } else { HEALTHY_NS };
                ctl.observe(worker, ns);
            }
        }
    }
    // Seal the script's last window.
    decisions.extend(ctl.advance(plan.len() as u64 * window));
    decisions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn identical_inputs_produce_identical_decisions_and_sheds(
        raw in vec(any::<u64>(), 4..40),
        wexp in 0u64..3,
        seed in any::<u64>(),
    ) {
        let window = 64u64 << wexp;
        let plan = script(raw);
        let c = cfg(window, seed);
        let mut a = AdmissionController::new(c, WORKERS).unwrap();
        let mut b = AdmissionController::new(c, WORKERS).unwrap();
        let da = drive(&mut a, &plan, window);
        let db = drive(&mut b, &plan, window);
        prop_assert_eq!(&da, &db);

        // Probe the shed path over a window of fresh indices: the
        // verdicts (shed or not, and the shed target) must agree
        // index by index.
        let base = plan.len() as u64 * window;
        for i in base..base + window {
            prop_assert_eq!(a.shed(SICK, i), b.shed(SICK, i));
        }
        prop_assert_eq!(a.report(), b.report());

        // Levels only ever sit on multiples of the step, within the cap.
        for w in 0..WORKERS {
            let l = a.level_pct(w);
            prop_assert!(l <= c.max_shed_pct && l.is_multiple_of(c.shed_step_pct), "level {l}");
        }
    }

    #[test]
    fn shedding_is_monotone_in_sustained_degradation(
        k1 in 0usize..20,
        extra in 0usize..20,
        wexp in 0u64..3,
        seed in any::<u64>(),
    ) {
        let window = 64u64 << wexp;
        let k2 = k1 + extra;
        let c = cfg(window, seed);
        let mut a = AdmissionController::new(c, WORKERS).unwrap();
        let mut b = AdmissionController::new(c, WORKERS).unwrap();
        drive(&mut a, &vec![SICK_NS; k1], window);
        drive(&mut b, &vec![SICK_NS; k2], window);

        // More sustained sickness ⇒ an equal or higher shed level.
        prop_assert!(a.level_pct(SICK) <= b.level_pct(SICK));

        // And the shed sets are nested: the draw is a pure hash of
        // (seed, worker, index) compared against the level, so every
        // index the lower level sheds, the higher level sheds too.
        let base = k2 as u64 * window;
        for i in base..base + 2 * window {
            if a.shed(SICK, i).is_some() {
                prop_assert!(b.shed(SICK, i).is_some(), "index {i} shed at lower level only");
            }
        }
    }

    #[test]
    fn hysteresis_keeps_consecutive_decisions_apart(
        raw in vec(any::<u64>(), 4..60),
        wexp in 0u64..3,
        seed in any::<u64>(),
    ) {
        let window = 64u64 << wexp;
        let plan = script(raw);
        let c = cfg(window, seed);
        let mut ctl = AdmissionController::new(c, WORKERS).unwrap();
        let decisions = drive(&mut ctl, &plan, window);

        let gap = u64::from(c.engage_after.min(c.disengage_after));
        for worker in 0..WORKERS {
            let windows: Vec<u64> =
                decisions.iter().filter(|d| d.worker == worker).map(|d| d.window).collect();
            for pair in windows.windows(2) {
                prop_assert!(
                    pair[1] - pair[0] >= gap,
                    "worker {worker} decided at windows {} and {} (streaks reset to {gap})",
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}
