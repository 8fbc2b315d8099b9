//! `figures` — the paper's tables and figures: the
//! [`hope_bench::figures::FIGURES`] table over the shared harness.
//!
//! Usage: `cargo run --release -p hope_bench --bin figures --
//!         [ROW…] [--quick --keys N --queries N --seed N --out PATH]`
//!
//! Runs the named rows (`table1`, `fig08` … `fig17`; none = all), prints
//! each one's `DIGEST` lines (deterministic columns), `RECORD` lines
//! (wall-clock columns) and gate verdicts, writes one JSON report
//! (default `BENCH_figures.json`) and exits non-zero if any gate failed.
//! The `DIGEST` lines of two runs with the same arguments are
//! byte-identical, which CI checks by diffing two `--quick` runs.

#![deny(unsafe_code)]

fn main() {
    hope_bench::figures::FIGURES.main()
}
