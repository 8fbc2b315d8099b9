//! The benchmark's contract, checked end to end through the binary:
//! `BENCHMARK.json` names exactly what the runs print, a smoke run of
//! every workload is correct in both modes, and a seed fixes everything
//! that is not a timing.

use std::path::PathBuf;
use std::process::Command;

use hope_benchmark::json::Json;
use hope_benchmark::spec::{MetricDef, ABSOLUTE, END_TO_END, PER_LAYER, WORKLOADS};

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no string {key} in {obj:?}"))
}

/// One smoke run; returns the stdout lines before the result line, and
/// the parsed result line.
fn smoke(workload: &str, seed: u64, trace: bool) -> (Vec<String>, Json) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("traces");
    let out = Command::new(env!("CARGO_BIN_EXE_hope_benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--smoke"])
        .args(["--seconds", "20", "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("spawn hope_benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} seed {seed} trace {trace}: {stdout}");
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = Json::parse(&lines.pop().expect("a result line")).expect("result line is JSON");
    if trace {
        let trace_file = out_dir.join(format!("trace-{workload}-{seed}.jsonl"));
        let spans = std::fs::read_to_string(&trace_file).expect("a traced run writes its spans");
        let first = Json::parse(spans.lines().next().expect("at least one span")).unwrap();
        for key in ["id", "parent", "name", "start_ns", "end_ns", "ops"] {
            assert!(first.get(key).is_some(), "span without {key}: {first:?}");
        }
    }
    (lines, result)
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {metric} in {result:?}"))
}

fn checksum(lines: &[String]) -> &str {
    lines.iter().find(|l| l.starts_with("checksum ")).expect("a checksum line")
}

#[test]
fn manifest_names_what_the_binary_prints() {
    let m = manifest();
    let names: Vec<&str> =
        m.get("workloads").unwrap().items().iter().map(|w| field(w, "name")).collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    let same = |key: &str, table: &[MetricDef]| {
        let listed: Vec<(&str, &str, &str)> = m
            .get(key)
            .unwrap()
            .items()
            .iter()
            .map(|d| (field(d, "name"), field(d, "unit"), field(d, "better")))
            .collect();
        let printed: Vec<(&str, &str, &str)> =
            table.iter().map(|d| (d.name, d.unit, d.better)).collect();
        assert_eq!(listed, printed, "{key} of BENCHMARK.json and src/spec.rs differ");
    };
    same("end_to_end", &END_TO_END);
    same("per_layer", &PER_LAYER);
    for d in &ABSOLUTE {
        let listed =
            PER_LAYER.iter().any(|p| (p.name, p.unit, p.better) == (d.name, d.unit, d.better));
        assert!(listed, "{} is printed by an untraced run but is no per-layer metric", d.name);
    }
    for d in m.get("end_to_end").unwrap().items() {
        let bound = d.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{d:?}");
    }
    let paths: Vec<&str> =
        m.get("paths").unwrap().items().iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> =
        m.get("command").unwrap().items().iter().filter_map(Json::as_str).collect();
    assert!(command.contains(&"benchmark/Cargo.toml"), "{command:?}");
}

#[test]
fn every_workload_smokes_correctly_in_both_modes() {
    for w in &WORKLOADS {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let (lines, result) = smoke(w.name, 7, trace);
            let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{}", w.name);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let printed: Vec<(&str, &str)> = result
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(name, m)| (name.as_str(), field(m, "unit")))
                .collect();
            let expected: Vec<(&str, &str)> = table.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(printed, expected, "{} trace {trace}", w.name);
            for d in table {
                assert!(value(&result, d.name).is_finite(), "{} {}", w.name, d.name);
            }
            if !trace {
                for d in table {
                    assert!(value(&result, d.name) > 0.0, "{} {} must never be 0", w.name, d.name);
                }
                // The absolute figures behind the ratios: printed, not gated.
                for d in &ABSOLUTE {
                    let printed = lines.iter().any(|l| {
                        l.starts_with(d.name) && l.ends_with(&format!("{} (not gated)", d.unit))
                    });
                    assert!(printed, "{}: no line for {}", w.name, d.name);
                }
            }
        }
    }
}

#[test]
fn a_seed_fixes_bytes_counts_and_results() {
    // Exact figures: live-heap ratios, byte and count metrics — not
    // timings, and not the serving counters (queue depth is timing).
    let exact = |d: &&MetricDef| {
        (d.unit.starts_with("bytes") || d.unit == "count" || d.unit == "ratio")
            && !d.name.starts_with("serving.")
            && !d.name.starts_with("baseline.")
    };
    for w in &WORKLOADS {
        let (lines_a, a) = smoke(w.name, 11, false);
        let (lines_b, b) = smoke(w.name, 11, false);
        for metric in ["mem_vs_raw", "stored_per_user_byte"] {
            assert_eq!(value(&a, metric), value(&b, metric), "{} {metric}", w.name);
        }
        assert_eq!(a.get("attempted"), b.get("attempted"));
        assert_eq!(checksum(&lines_a), checksum(&lines_b), "{}: same seed, other results", w.name);
        let (lines_c, _) = smoke(w.name, 12, false);
        assert_ne!(
            checksum(&lines_a),
            checksum(&lines_c),
            "{}: seed 12 gave seed 11's inputs",
            w.name
        );

        let (traced_a, ta) = smoke(w.name, 11, true);
        let (traced_b, tb) = smoke(w.name, 11, true);
        assert_eq!(checksum(&traced_a), checksum(&traced_b));
        for d in PER_LAYER.iter().filter(exact) {
            assert_eq!(value(&ta, d.name), value(&tb, d.name), "{} {}", w.name, d.name);
        }
    }
}

#[test]
fn a_run_too_short_for_nine_rounds_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_hope_benchmark"))
        .args(["--workload", WORKLOADS[0].name, "--seconds", "15"])
        .output()
        .expect("spawn hope_benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
