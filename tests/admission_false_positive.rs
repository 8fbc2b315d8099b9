//! The false-positive drill for the adaptive admission controller: the
//! `slo` drill's healthy workload (no fault plan at all) driven twice in
//! deterministic virtual mode — once with the controller off, once with
//! it on. A healthy fleet must give the controller nothing to do:
//!
//! * zero requests shed, zero decisions, every level parked at 0% —
//!   while the controller demonstrably *was* judging (windows sealed);
//! * the `serving.admission.*` counters all read zero;
//! * the serving report is byte-identical to the controller-off run,
//!   modulo the fields the controller itself adds (its report and the
//!   zero-valued `shed_away` queue counters) — observing traffic must
//!   not perturb it.

use hope_bench::harness::{build_serving_store, phase_bounds, serving_config, to_request};
use hope_store::serving::{AdmissionConfig, Server, ServingConfig, ServingReport};
use hope_workloads::{MixedWorkload, TrafficSpec};

/// One virtual-mode pass over the workload with a single producer
/// (admission index == stream position, the determinism contract).
fn run(workload: &MixedWorkload, admission: Option<AdmissionConfig>) -> ServingReport {
    let store = build_serving_store(workload);
    let serving = ServingConfig { admission, ..serving_config(true) };
    let server = Server::start(store, serving).expect("server start");
    for (phase, &(lo, hi)) in phase_bounds(workload).iter().enumerate() {
        for op in &workload.ops[lo..hi] {
            server.submit_detached(to_request(op), phase).expect("server open");
        }
        server.flush();
    }
    server.shutdown()
}

/// Everything the two runs must agree on: per-phase stats, per-worker
/// stats, queue stats. `shed_away` and the admission report are the
/// controller's own additions and are asserted to be zero separately.
fn digest(r: &ServingReport) -> String {
    let mut s = String::new();
    for ph in &r.phases {
        let (p50, p99, p999) = ph.latency.slo_points();
        s.push_str(&format!(
            "phase ops={} gets={} inserts={} scans={} scan_hits={} errors={} \
             p50={p50} p99={p99} p999={p999} mean={:.1} max={}\n",
            ph.ops,
            ph.gets,
            ph.inserts,
            ph.scans,
            ph.scan_hits,
            ph.errors,
            ph.latency.mean_ns(),
            ph.latency.max_ns(),
        ));
    }
    for w in &r.worker_stats {
        let (p50, p99, p999) = w.latency.slo_points();
        s.push_str(&format!(
            "worker {} ops={} degraded={} faults={} p50={p50} p99={p99} p999={p999}\n",
            w.worker,
            w.ops,
            w.degraded,
            w.faults.total(),
        ));
    }
    // Batch counts and peak depths are scheduling artifacts (they vary
    // run to run even without a controller); only the admitted totals
    // are part of the determinism contract.
    for (i, q) in r.queues.iter().enumerate() {
        s.push_str(&format!("queue {i} enqueued={} rejected={}\n", q.enqueued, q.rejected));
    }
    s.push_str(&format!("total={} rejected={}\n", r.total_ops(), r.total_rejected()));
    s
}

#[test]
fn healthy_traffic_is_never_shed_and_never_perturbed() {
    let workload = MixedWorkload::generate(4_000, 6_000, TrafficSpec::default(), 42);

    let off = run(&workload, None);
    let on = run(&workload, Some(AdmissionConfig::quick(42)));

    // The controller was genuinely in the loop...
    let adm = on.admission.as_ref().expect("controller-on run must report");
    assert!(adm.windows > 0, "no windows sealed: the controller never judged anything");

    // ...and found nothing: no decisions, no shedding, levels parked.
    assert_eq!(adm.decisions, vec![], "healthy run produced decisions");
    assert_eq!(adm.shed, 0, "healthy run shed traffic");
    assert!(adm.levels.iter().all(|&l| l == 0), "levels off zero: {:?}", adm.levels);
    for counter in
        ["serving.admission.shed", "serving.admission.engage", "serving.admission.release"]
    {
        assert_eq!(on.telemetry.counter(counter), Some(0), "{counter} must be zero");
    }
    assert!(on.queues.iter().all(|q| q.shed_away == 0));

    // The controller-off run has no admission report and no shed.
    assert!(off.admission.is_none());
    assert!(off.queues.iter().all(|q| q.shed_away == 0));

    // Observing must not perturb: everything else is byte-identical.
    assert_eq!(digest(&on), digest(&off), "controller-on run diverged from controller-off");
}
