use std::path::PathBuf;
use std::process::ExitCode;

use hope_benchmark::calibrate::calibrate;
use hope_benchmark::run::{run, RunArgs};
use hope_benchmark::spec::{workload, Scale, DEFAULT_SECONDS, WORKLOADS};

const USAGE: &str = "usage: hope_benchmark --workload <name> [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--out <dir>]\n       hope_benchmark --calibrate <runs>";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut smoke) =
        (None, 1u64, DEFAULT_SECONDS, false, false);
    let mut calibrate_runs = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => name = Some(value()),
            "--seed" => seed = parse(&value(), "--seed"),
            "--seconds" => seconds = parse(&value(), "--seconds"),
            "--trace" => trace = parse::<u8>(&value(), "--trace") != 0,
            "--smoke" => smoke = true,
            "--calibrate" => calibrate_runs = Some(parse::<usize>(&value(), "--calibrate")),
            "--out" => out_dir = PathBuf::from(value()),
            _ => die(&format!("unknown argument {flag}")),
        }
    }
    // Below 16 a run would have fewer than the nine rounds a median needs.
    if !(16..=60).contains(&seconds) {
        die("--seconds must be in 16..=60");
    }
    if let Some(runs) = calibrate_runs {
        return match calibrate(runs.max(2), seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => die(&e),
        };
    }
    let name = name.unwrap_or_else(|| die("--workload is required"));
    let Some(workload) = workload(&name) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        die(&format!("unknown workload {name}; known: {}", names.join(", ")))
    };
    let scale = if smoke { Scale::smoke() } else { Scale::full(seconds) };
    let result = run(&RunArgs { workload, seed, scale, trace, out_dir });
    for (def, value) in &result.metrics {
        println!("{:<40} {:>16.4} {}", def.name, value, def.unit);
    }
    for (def, value) in &result.absolute {
        println!("{:<40} {:>16.4} {} (not gated)", def.name, value, def.unit);
    }
    for note in &result.notes {
        println!("note: {note}");
    }
    println!("checksum {:#018x}", result.tally.checksum);
    println!("{}", result.to_json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| die(&format!("{flag}: cannot parse {text:?}")))
}

fn die(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2)
}
