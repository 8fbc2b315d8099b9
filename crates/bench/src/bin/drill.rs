//! `drill` — the serving acceptance drills: the
//! [`hope_bench::drills::SCENARIOS`] table over the shared harness.
//!
//! Usage: `cargo run --release -p hope_bench --bin drill --
//!         [SCENARIO…] [--quick --keys N --queries N --seed N --out PATH]`
//!
//! Runs the named scenarios (`slo`, `telemetry`, `faults`, `adaptive`,
//! `snapshot`; none = all), prints each one's notes, `DIGEST` lines and
//! gate verdicts, writes one JSON report (default `BENCH_drills.json`)
//! and exits non-zero if any gate failed. `--quick` runs in virtual
//! time: the `DIGEST` lines of two runs are byte-identical, which CI
//! checks by diffing them.

#![deny(unsafe_code)]

fn main() {
    hope_bench::drills::SCENARIOS.main()
}
