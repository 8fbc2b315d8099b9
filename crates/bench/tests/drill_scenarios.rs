//! The drills' determinism contract, in tier-1: every scenario of
//! [`hope_bench::drills::SCENARIOS`] run twice in-process in `--quick`
//! virtual time must pass all its gates, produce identical `DIGEST`
//! vectors, and report every gate it printed in its JSON object.
//!
//! The size is the smallest the drills are known to pass at — the
//! `adaptive` shift window (20 % of the ops) must span the controller's
//! three 256-request engage windows.

use hope_bench::drills::SCENARIOS;
use hope_bench::BenchConfig;

fn check(name: &str) {
    let scenario = SCENARIOS.iter().find(|s| s.name == name).expect("scenario in the table");
    let cfg = BenchConfig { keys: 2_000, queries: 6_000, quick: true, ..BenchConfig::default() };
    let (a, b) = (scenario.run(&cfg), scenario.run(&cfg));
    for g in &a.gates {
        assert!(g.ok, "{name}: gate {} failed: {} (required: {})", g.name, g.measured, g.required);
    }
    assert!(a.pass() && b.pass());
    assert_eq!(a.digest, b.digest, "{name}: DIGEST lines differ between two quick runs");
    assert!(a.digest.last().expect("a gates line").ends_with("pass=true"));
    let json = a.to_json();
    assert!(json.contains(&format!("\"scenario\": \"{name}\"")));
    for g in &a.gates {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", g.name)),
            "{name}: {} not in JSON",
            g.name
        );
    }
    for d in &a.digest {
        assert!(json.contains(d.as_str()), "{name}: digest line `{d}` not in JSON");
    }
}

#[test]
fn slo_is_deterministic_and_passes() {
    check("slo");
}

#[test]
fn telemetry_is_deterministic_and_passes() {
    check("telemetry");
}

#[test]
fn faults_is_deterministic_and_passes() {
    check("faults");
}

#[test]
fn adaptive_is_deterministic_and_passes() {
    check("adaptive");
}

#[test]
fn snapshot_is_deterministic_and_passes() {
    check("snapshot");
}
