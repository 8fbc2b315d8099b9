//! Integration suite for the serving-side fault-injection layer
//! (`hope_store::serving::faults`): determinism of virtual-time runs
//! under an active plan, a sick worker keeping exactly its own traffic
//! when no controller runs, wall-mode stalls vs the exactly-once
//! completion guarantee, and config validation — plus the
//! adaptive-admission variants (the controller is the only shed path):
//! against a fully-degraded worker, against a wall-mode stall storm, and
//! against mid-drill rebuild failures, each holding exactly-once and full
//! telemetry attribution of every controller decision.

use std::sync::Arc;

use hope_store::serving::{
    AdmissionConfig, FaultPlan, Request, Response, Server, ServingConfig, ServingReport,
};
use hope_store::telemetry::EventKind;
use hope_store::{HopeStore, StoreConfig, StoreError};

fn store(n: u64) -> Arc<HopeStore<u64>> {
    let pairs = (0..n).map(|i| (format!("com.gmail@user{i:06}").into_bytes(), i));
    Arc::new(
        HopeStore::build(
            StoreConfig { min_observed_bytes: u64::MAX, ..StoreConfig::default() },
            pairs,
        )
        .expect("store build"),
    )
}

/// A fixed three-phase op stream: gets, inserts and scans spread over
/// the keyspace, submitted in one thread so admission indices equal
/// stream positions. Returns how many requests each worker was home to.
fn drive(server: &Server<u64>, n: u64, ops: usize) -> Vec<u64> {
    let mut homes = vec![0u64; server.queue_depths().len()];
    for i in 0..ops {
        let phase = i * 3 / ops;
        let k = format!("com.gmail@user{:06}", (i as u64 * 131) % n).into_bytes();
        homes[server.worker_of(&k)] += 1;
        let req = match i % 10 {
            0..=6 => Request::get(k),
            7 | 8 => Request::insert(k, i as u64),
            _ => {
                let mut high = k.clone();
                high.push(0xFF);
                Request::scan(k, high, 8)
            }
        };
        server.submit_detached(req, phase).expect("open");
    }
    server.flush();
    homes
}

fn observe(r: &ServingReport) -> Vec<(u64, u64, u64, u64, u64, u64)> {
    let mut rows = Vec::new();
    for p in &r.phases {
        let (p50, p99, p999) = p.latency.slo_points();
        rows.push((p.ops, p.gets + p.inserts + p.scans, p.errors, p50, p99, p999));
    }
    for w in &r.worker_stats {
        let (p50, p99, p999) = w.latency.slo_points();
        rows.push((w.ops, w.faults.total(), u64::from(w.degraded), p50, p99, p999));
    }
    let shed = r.admission.as_ref().map_or(0, |a| a.shed);
    rows.push((shed, r.total_ops(), r.total_rejected(), 0, 0, 0));
    rows
}

fn exercised_plan() -> FaultPlan {
    FaultPlan {
        seed: 99,
        degraded_worker: Some(1),
        slow_factor: 10,
        stall_every: 50,
        stall_ns: 40_000,
        spike_every: 400,
        spike_ns: 5_000,
        burst_every: 512,
        burst_len: 16,
        burst_ns: 2_000,
        rebuild_fail_every: 0,
        phase_mask: u16::MAX,
    }
}

/// Two virtual-time runs over the same op stream and plan, with the
/// admission controller shedding, are observably identical: per-phase
/// stats, per-worker stats, fault tallies, shed counts — everything the
/// `faults` and `adaptive` drills' DIGESTs are built from.
#[test]
fn virtual_runs_with_faults_are_deterministic() {
    let n = 4_000u64;
    let cfg = ServingConfig {
        workers: 4,
        phases: 3,
        virtual_time: true,
        faults: Some(exercised_plan()),
        admission: Some(AdmissionConfig::quick(99)),
        ..ServingConfig::default()
    };
    let run = || {
        let server = Server::start(store(n), cfg).expect("start");
        let submitted: u64 = drive(&server, n, 6_000).iter().sum();
        let report = server.shutdown();
        assert_eq!(report.total_ops(), submitted);
        assert!(report.admission.as_ref().is_some_and(|a| a.shed > 0), "the controller never shed");
        observe(&report)
    };
    assert_eq!(run(), run(), "two identical virtual runs diverged");
}

/// Without the admission controller nothing sheds: every worker executes
/// exactly the requests homed on it, and the degraded worker's virtual
/// latencies show the 10× slow factor — its p50 is an order of magnitude
/// above any healthy worker's.
#[test]
fn slow_factor_shows_up_in_the_degraded_tail() {
    let n = 4_000u64;
    let plan = FaultPlan { stall_every: 0, spike_every: 0, burst_every: 0, ..exercised_plan() };
    let cfg = ServingConfig {
        workers: 4,
        phases: 3,
        virtual_time: true,
        faults: Some(plan),
        ..ServingConfig::default()
    };
    let server = Server::start(store(n), cfg).expect("start");
    let homes = drive(&server, n, 4_000);
    let report = server.shutdown();
    assert_eq!(report.total_ops(), homes.iter().sum::<u64>());
    for w in &report.worker_stats {
        assert_eq!(w.ops, homes[w.worker], "worker {} ran requests homed elsewhere", w.worker);
    }
    let sick = &report.worker_stats[1];
    assert!(sick.ops > 0, "no shed: the sick worker must keep its traffic");
    assert_eq!(sick.faults.slowed, sick.ops, "every sick-worker request pays the factor");
    let sick_p50 = sick.latency.quantile_ns(0.50);
    for w in report.worker_stats.iter().filter(|w| !w.degraded) {
        if w.ops == 0 {
            continue;
        }
        let healthy_p50 = w.latency.quantile_ns(0.50).max(1);
        let ratio = sick_p50 as f64 / healthy_p50 as f64;
        assert!(
            (5.0..=20.0).contains(&ratio),
            "slow factor 10 not visible: sick p50 {sick_p50}ns vs healthy {healthy_p50}ns"
        );
    }
}

/// Wall-mode stalls on the sick worker must not break exactly-once
/// completion: every ticketed request resolves, nothing is rejected,
/// and the stall tally shows the injections really happened.
#[test]
fn wall_mode_stalls_do_not_lose_tickets() {
    let n = 2_000u64;
    let plan = FaultPlan {
        seed: 7,
        degraded_worker: Some(1),
        slow_factor: 2,
        stall_every: 8,
        stall_ns: 2_000_000, // 2 ms: long enough to really wait, short enough for CI
        spike_every: 0,
        burst_every: 0,
        rebuild_fail_every: 0,
        phase_mask: u16::MAX,
        ..FaultPlan::default()
    };
    let cfg = ServingConfig {
        workers: 2,
        phases: 1,
        virtual_time: false,
        faults: Some(plan),
        ..ServingConfig::default()
    };
    let server = Server::start(store(n), cfg).expect("start");
    let ops = 600usize;
    let tickets: Vec<_> = (0..ops)
        .map(|i| {
            let k = format!("com.gmail@user{:06}", (i as u64 * 17) % n).into_bytes();
            server.submit(Request::get(k), 0).expect("open")
        })
        .collect();
    server.flush();
    let mut resolved = 0u64;
    for t in tickets {
        assert!(t.is_done(), "a ticket was lost under injected stalls");
        match t.wait() {
            Response::Get(Some(_)) => resolved += 1,
            other => panic!("wrong response under stalls: {other:?}"),
        }
    }
    assert_eq!(resolved, ops as u64);
    let report = server.shutdown();
    assert_eq!(report.total_ops(), ops as u64);
    assert_eq!(report.total_rejected(), 0);
    let stalled: u64 = report.worker_stats.iter().map(|w| w.faults.stalled).sum();
    assert!(stalled > 0, "the plan must actually have stalled something");
    assert_eq!(
        report.telemetry.counter("serving.fault.stalled"),
        Some(stalled),
        "stall counter must mirror the tallies"
    );
}

/// Assert the full attribution chain for a controller-on run: the
/// report, the `serving.admission.*` counters, the per-queue `shed_away`
/// tallies and the event log must all tell the same story.
fn assert_admission_attribution(report: &ServingReport) {
    let adm = report.admission.as_ref().expect("controller-on run must report");
    assert_eq!(
        report.telemetry.counter("serving.admission.shed"),
        Some(adm.shed),
        "shed counter must mirror the report"
    );
    assert_eq!(
        report.telemetry.counter("serving.admission.engage"),
        Some(adm.engages()),
        "engage counter must mirror the decisions"
    );
    assert_eq!(
        report.telemetry.counter("serving.admission.release"),
        Some(adm.releases()),
        "release counter must mirror the decisions"
    );
    assert_eq!(
        report.queues.iter().map(|q| q.shed_away).sum::<u64>(),
        adm.shed,
        "per-queue shed_away tallies must sum to the shed count"
    );
    // Every decision is attributed in the event log, field for field
    // (shard=worker, prev_epoch/epoch=levels, keys=window, bytes=ratio),
    // in decision order.
    let events: Vec<_> = report
        .telemetry
        .events_of(EventKind::AdmissionEngage)
        .chain(report.telemetry.events_of(EventKind::AdmissionRelease))
        .collect();
    assert_eq!(events.len(), adm.decisions.len(), "every decision must be logged");
    let mut logged: Vec<_> = events
        .iter()
        .map(|e| (e.keys, e.shard as usize, e.prev_epoch as u8, e.epoch as u8, e.bytes))
        .collect();
    logged.sort_unstable();
    let mut decided: Vec<_> = adm
        .decisions
        .iter()
        .map(|d| (d.window, d.worker, d.from_pct, d.to_pct, d.ratio_x1000))
        .collect();
    decided.sort_unstable();
    assert_eq!(logged, decided, "event fields must match the decisions");
}

/// The controller against the `faults` drill's sickness at full
/// strength: it must find the sick worker itself, engage on it, shed
/// real traffic to healthy peers, keep every request exactly-once — and
/// every decision must be attributable through the telemetry.
#[test]
fn controller_sheds_a_fully_degraded_worker_exactly_once() {
    let n = 4_000u64;
    let plan = exercised_plan();
    let admission =
        AdmissionConfig { window: 256, min_window_ops: 16, seed: 99, ..AdmissionConfig::default() };
    let cfg = ServingConfig {
        workers: 4,
        phases: 3,
        virtual_time: true,
        faults: Some(plan),
        admission: Some(admission),
        ..ServingConfig::default()
    };
    let server = Server::start(store(n), cfg).expect("start");
    assert!(server.is_degraded(1) && !server.is_degraded(0));
    let submitted: u64 = drive(&server, n, 6_000).iter().sum();
    let report = server.shutdown();

    assert_eq!(report.total_ops(), submitted);
    assert_eq!(report.total_rejected(), 0);

    let adm = report.admission.as_ref().unwrap();
    assert!(
        adm.decisions.iter().any(|d| d.is_engage() && d.worker == 1),
        "controller never engaged on the sick worker: {:?}",
        adm.decisions
    );
    assert!(adm.shed > 0, "an engaged controller must shed traffic");
    // The shed cap keeps probe traffic flowing to the sick worker, and
    // shed requests complete on healthy peers — nothing is dropped.
    assert!(report.worker_stats[1].ops > 0, "capped shed must leave probe traffic");
    assert_eq!(report.worker_stats.iter().map(|w| w.ops).sum::<u64>(), submitted);
    assert_admission_attribution(&report);

    // The whole drill is deterministic: a second identical run agrees
    // decision for decision.
    let server = Server::start(store(n), cfg).expect("start");
    drive(&server, n, 6_000);
    let again = server.shutdown();
    assert_eq!(again.admission.as_ref().unwrap(), adm);
    assert_eq!(observe(&again), observe(&report));
}

/// A wall-clock stall storm with the controller in the loop: real
/// multi-millisecond stalls, real thread timing. Engagement is up to
/// the machine, but exactly-once completion and attribution are not.
#[test]
fn wall_mode_stall_storm_with_controller_keeps_exactly_once() {
    let n = 2_000u64;
    let plan = FaultPlan {
        seed: 7,
        degraded_worker: Some(1),
        slow_factor: 2,
        stall_every: 8,
        stall_ns: 2_000_000,
        spike_every: 0,
        burst_every: 0,
        rebuild_fail_every: 0,
        phase_mask: u16::MAX,
        ..FaultPlan::default()
    };
    let admission =
        AdmissionConfig { window: 128, min_window_ops: 8, seed: 7, ..AdmissionConfig::default() };
    let cfg = ServingConfig {
        workers: 2,
        phases: 1,
        virtual_time: false,
        faults: Some(plan),
        admission: Some(admission),
        ..ServingConfig::default()
    };
    let server = Server::start(store(n), cfg).expect("start");
    let ops = 600usize;
    let tickets: Vec<_> = (0..ops)
        .map(|i| {
            let k = format!("com.gmail@user{:06}", (i as u64 * 17) % n).into_bytes();
            server.submit(Request::get(k), 0).expect("open")
        })
        .collect();
    server.flush();
    for t in &tickets {
        assert!(t.is_done(), "a ticket was lost under stalls with the controller on");
    }
    let report = server.shutdown();
    assert_eq!(report.total_ops(), ops as u64);
    assert_eq!(report.total_rejected(), 0);
    assert!(report.worker_stats.iter().map(|w| w.faults.stalled).sum::<u64>() > 0);
    assert_admission_attribution(&report);
}

/// Mid-drill rebuild failures must not disturb the admission loop: the
/// serving path keeps exactly-once while `maintain()` takes injected
/// failures and heals on retry, and the controller's accounting stays
/// fully attributed throughout.
#[test]
fn rebuild_failures_mid_drill_leave_the_controller_consistent() {
    use hope_bench::harness::{build_serving_store, phase_bounds, serving_config, to_request};
    use hope_workloads::{MixedWorkload, TrafficSpec};

    let workload = MixedWorkload::generate(4_000, 6_000, TrafficSpec::default(), 42);
    let plan = FaultPlan {
        seed: 42,
        degraded_worker: Some(1),
        slow_factor: 10,
        stall_every: 97,
        stall_ns: 50_000,
        rebuild_fail_every: 2,
        phase_mask: u16::MAX,
        ..FaultPlan::default()
    };
    let store = build_serving_store(&workload);
    store.inject_faults(plan);
    let serving = ServingConfig {
        faults: Some(plan),
        admission: Some(AdmissionConfig::quick(42)),
        ..serving_config(true)
    };
    let server = Server::start(Arc::clone(&store), serving).expect("start");

    let mut submitted = 0u64;
    let mut injected = 0u64;
    let mut healed = false;
    for (phase, &(lo, hi)) in phase_bounds(&workload).iter().enumerate() {
        for op in &workload.ops[lo..hi] {
            server.submit_detached(to_request(op), phase).expect("open");
        }
        server.flush();
        submitted += (hi - lo) as u64;
        if phase == 0 {
            continue;
        }
        // Maintenance under live traffic: `rebuild_fail_every: 2` fails
        // every other attempt, so a bounded retry loop must land clean.
        for _ in 0..4 {
            let (_, errors) = store.maintain();
            healed = errors.is_empty();
            for (shard, e) in errors {
                assert!(
                    matches!(e, StoreError::FaultInjected { .. }),
                    "real rebuild error on shard {shard}: {e}"
                );
                injected += 1;
            }
            if healed {
                break;
            }
        }
    }
    assert!(injected > 0, "the plan must actually have failed a rebuild");
    assert!(healed, "rebuilds must heal on retry");
    assert_eq!(
        store.telemetry().counter("store.faults.injected_rebuild_failures"),
        Some(injected),
        "injected-failure counter must mirror the observed errors"
    );

    let report = server.shutdown();
    assert_eq!(report.total_ops(), submitted);
    assert_eq!(report.total_rejected(), 0);
    let adm = report.admission.as_ref().unwrap();
    assert!(
        adm.decisions.iter().any(|d| d.is_engage() && d.worker == 1),
        "controller must still engage under maintenance churn"
    );
    assert_admission_attribution(&report);
}

/// `Server::start` rejects nonsensical plans up front.
#[test]
fn invalid_fault_plans_are_rejected_at_start() {
    let s = store(100);
    let base = ServingConfig { workers: 2, ..ServingConfig::default() };
    let cases = [
        FaultPlan { degraded_worker: Some(2), ..FaultPlan::default() }, // no such worker
        FaultPlan { slow_factor: 0, ..FaultPlan::default() },
    ];
    for plan in cases {
        let cfg = ServingConfig { faults: Some(plan), ..base };
        match Server::start(Arc::clone(&s), cfg) {
            Err(StoreError::InvalidConfig { .. }) => {}
            other => panic!("plan {plan} accepted: {other:?}"),
        }
    }
    // A valid plan (and no plan at all) still starts.
    for faults in [None, Some(exercised_plan())] {
        let cfg = ServingConfig { workers: 2, faults, ..ServingConfig::default() };
        drop(Server::start(Arc::clone(&s), cfg).expect("valid config"));
    }
}
