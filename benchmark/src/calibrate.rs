//! `--calibrate N`: run every workload N times with one seed and N times
//! with another seed each time, print each end-to-end metric's median,
//! quartiles and range as a markdown report, and fail when a metric is
//! noisier than the bound `BENCHMARK.json` gives it. The report is
//! committed as `CALIBRATION.md`.
//!
//! The same-seed runs do identical work, so their spread is the machine's:
//! a timed metric's range must stay within its bound and a byte metric
//! must repeat exactly. The other-seed runs are what the driver of the
//! benchmark does (inputs vary too), judged as it judges: the
//! interquartile spread against the bound, and the median against the
//! first set's. Of `setup_s` only the medians are judged, as by the driver.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::timing::{median, quartiles};

/// Spread statistics of one metric over the runs of one workload.
struct Row {
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

impl Row {
    fn of(values: &[f64]) -> Row {
        let (q1, q3) = quartiles(values);
        Row {
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile distance as a share of the median — the spread the
    /// bound is judged against.
    fn iqr(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    fn range(&self) -> f64 {
        (self.max - self.min) / self.median
    }
}

/// The `end_to_end` bounds of `BENCHMARK.json`, by metric name.
fn bounds(manifest: &Json) -> Result<Vec<(String, f64)>, String> {
    manifest
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .items()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn first_line_of(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find(|l| l.starts_with(prefix)).map(str::to_string)
}

/// One untraced run; every end-to-end metric's value, in table order.
fn one_run(exe: &Path, workload: &str, seed: usize, seconds: u64) -> Result<Vec<f64>, String> {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--trace", "0"])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed} failed: {line}"));
    }
    let metrics = result.get("metrics").ok_or("result without metrics")?;
    END_TO_END
        .iter()
        .map(|def| {
            metrics
                .get(def.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: no {} in the result", def.name))
        })
        .collect()
}

/// `runs` runs of `workload`, seeded by `seed_of(run)`: the samples of
/// each metric, and the longest run's seconds.
fn sample(
    exe: &Path,
    workload: &str,
    runs: usize,
    seconds: u64,
    seed_of: impl Fn(usize) -> usize,
) -> Result<(Vec<Vec<f64>>, f64), String> {
    let mut samples = vec![Vec::with_capacity(runs); END_TO_END.len()];
    let mut longest: f64 = 0.0;
    for run in 1..=runs {
        let started = std::time::Instant::now();
        let values = one_run(exe, workload, seed_of(run), seconds)?;
        longest = longest.max(started.elapsed().as_secs_f64());
        // Progress, and the raw values behind the report.
        eprintln!("{workload} seed {}: {values:?}", seed_of(run));
        for (all, one) in samples.iter_mut().zip(values) {
            all.push(one);
        }
    }
    Ok((samples, longest))
}

/// Run the calibration; `Ok(true)` when every metric stayed in bounds.
pub fn calibrate(runs: usize, seconds: u64) -> Result<bool, String> {
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = bounds(&Json::parse(&manifest)?)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let cpu = first_line_of("/proc/cpuinfo", "model name")
        .and_then(|l| l.split(':').nth(1).map(|s| s.trim().to_string()))
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_else(|_| "unknown".into());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# Calibration of `hope_benchmark`\n");
    println!(
        "Per workload, {runs} untraced runs with seed 1 and then {runs} with seeds 1..={runs} \
         (`--seconds {seconds}`), one after another, on: {threads} hardware threads, {cpu}, load \
         average before the first run `{}`.\n",
        load.trim()
    );
    println!(
        "`range` is (max − min) / median; `iqr` is (q3 − q1) / median with the quartiles of \
         Python's `statistics.quantiles(n=4)`.\n\n\
         * **One seed** — identical work, so the spread is the machine's. A timed metric is \
         `ok` when its range is within its bound; a byte metric must be `exact` (range 0).\n\
         * **Other seeds** — what the benchmark's driver does, judged as it judges: `ok` when \
         the iqr is within a third of the bound, `wide` within the bound, `NOISY` beyond it; \
         and `moved` is how far the median lies from the one-seed median, which must be \
         within the bound too.\n\
         * **`setup_s`** has to be a time in seconds, and a time on a shared box has a run in \
         ten that reads a quarter off. The driver does not judge its spread, only that the \
         medians of two sets of runs agree within the bound; nor does this report \
         (`exempt`), which shows the spread all the same.\n"
    );

    let mut all_ok = true;
    for w in &WORKLOADS {
        let (same, longest_same) = sample(&exe, w.name, runs, seconds, |_| 1)?;
        let (other, longest_other) = sample(&exe, w.name, runs, seconds, |run| run)?;
        println!("## {}\n", w.name);
        println!("Longest run: {:.1} s.\n", longest_same.max(longest_other));
        println!("| metric | unit | bound | one seed: median | range | | other seeds: median | iqr | moved | |");
        println!("|---|---|---:|---:|---:|---|---:|---:|---:|---|");
        for ((def, same), other) in END_TO_END.iter().zip(&same).zip(&other) {
            let bound = bounds
                .iter()
                .find(|(name, _)| name == def.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let (same, other) = (Row::of(same), Row::of(other));
            let spread_exempt = def.name == "setup_s";
            // The byte metrics are ratios of allocator counts.
            let same_verdict = if def.unit == "ratio" {
                if same.range() == 0.0 {
                    "exact"
                } else {
                    "NOT EXACT"
                }
            } else if spread_exempt {
                "exempt"
            } else if same.range() <= bound {
                "ok"
            } else {
                "NOISY"
            };
            let moved = (other.median - same.median).abs() / same.median;
            let other_verdict = if moved > bound {
                "MOVED"
            } else if spread_exempt {
                "exempt"
            } else if other.iqr() <= bound / 3.0 {
                "ok"
            } else if other.iqr() <= bound {
                "wide"
            } else {
                "NOISY"
            };
            all_ok &= !["NOT EXACT", "NOISY", "MOVED"]
                .iter()
                .any(|bad| *bad == same_verdict || *bad == other_verdict);
            println!(
                "| `{}` | {} | {:.1} % | {:.4} | {:.2} % | {same_verdict} | {:.4} | {:.2} % | \
                 {:.2} % | {other_verdict} |",
                def.name,
                def.unit,
                bound * 100.0,
                same.median,
                same.range() * 100.0,
                other.median,
                other.iqr() * 100.0,
                moved * 100.0,
            );
        }
        println!();
    }
    Ok(all_ok)
}
