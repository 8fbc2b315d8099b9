//! `drill` — the serving acceptance drills, one scenario table
//! ([`hope_bench::drills`]) over one harness.
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

use hope_bench::drills::{parse_args, USAGE};
use hope_bench::harness::{exit_code, write_json, ScenarioReport};

fn main() {
    let args =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|e| hope_bench::usage_exit(&e, USAGE));
    let mut reports: Vec<ScenarioReport> = Vec::new();
    for scenario in &args.scenarios {
        let report = scenario.run(&args.cfg);
        report.print();
        reports.push(report);
    }
    write_json(&args.out, &args.cfg, &reports).expect("write the JSON report");
    println!("# wrote {}", args.out);
    std::process::exit(exit_code(reports.iter().flat_map(|r| &r.gates)));
}
