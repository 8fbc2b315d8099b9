//! The determinism contract of both tables, in tier-1: every row of
//! [`hope_bench::drills::SCENARIOS`] and [`hope_bench::figures::FIGURES`]
//! run twice in-process must pass all its gates, produce identical
//! `DIGEST` vectors, and report every gate, digest and recorded line it
//! printed in its JSON object; no `DIGEST` field is named for a
//! wall-clock unit (the drills' virtual-time quantiles are `p50=…ns`
//! values, not clock readings).
//!
//! Each size is the smallest the row is known to pass at:
//!
//! * the drills at 2 000 keys / 6 000 ops — the `adaptive` shift window
//!   (20 % of the ops) must span the controller's three 256-request
//!   engage windows;
//! * the figures at 2 000 keys / 1 000 queries, except the three whose
//!   claim needs more keys to hold: `fig12` / `fig16` at 12 000 (below
//!   that HOT's savings on Wiki do not cover Single-Char's 2 KB
//!   dictionary) and `fig13` at 14 000 (a 10 % sample must be large
//!   enough for Email 4-Grams to reach 0.9 of its full-sample CPR).

use hope_bench::drills::SCENARIOS;
use hope_bench::figures::FIGURES;
use hope_bench::harness::Table;
use hope_bench::BenchConfig;

/// Field-name endings that mark a wall-clock column.
const CLOCK_SUFFIXES: [&str; 5] = ["_ns", "_us", "_ms", "_s", "_per_char"];

fn check(table: &Table, name: &str, keys: usize, queries: usize) {
    let row = table.rows.iter().find(|r| r.name == name).expect("row in the table");
    let cfg = BenchConfig { keys, queries, quick: true, ..BenchConfig::default() };
    let (a, b) = (row.run(&cfg), row.run(&cfg));
    for g in &a.gates {
        assert!(g.ok, "{name}: gate {} failed: {} (required: {})", g.name, g.measured, g.required);
    }
    assert!(a.pass() && b.pass());
    assert_eq!(a.digest, b.digest, "{name}: DIGEST lines differ between two runs");
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
    for line in a.digest.iter().chain(&a.recorded) {
        assert!(json.contains(&format!("{line:?}")), "{name}: line `{line}` not in JSON");
    }
    for field in a.digest.iter().flat_map(|line| line.split_whitespace()) {
        let field_name = field.split('=').next().expect("split yields one item");
        assert!(
            !CLOCK_SUFFIXES.iter().any(|s| field_name.ends_with(s)),
            "{name}: wall-clock field `{field}` in a DIGEST line"
        );
    }
}

fn drill(name: &str) {
    check(&SCENARIOS, name, 2_000, 6_000);
}

#[test]
fn slo_is_deterministic_and_passes() {
    drill("slo");
}

#[test]
fn telemetry_is_deterministic_and_passes() {
    drill("telemetry");
}

#[test]
fn faults_is_deterministic_and_passes() {
    drill("faults");
}

#[test]
fn adaptive_is_deterministic_and_passes() {
    drill("adaptive");
}

#[test]
fn snapshot_is_deterministic_and_passes() {
    drill("snapshot");
}

#[test]
fn every_figure_is_deterministic_and_passes() {
    for row in FIGURES.rows {
        let keys = match row.name {
            "fig12" | "fig16" => 12_000,
            "fig13" => 14_000,
            _ => 2_000,
        };
        check(&FIGURES, row.name, keys, 1_000);
    }
}
