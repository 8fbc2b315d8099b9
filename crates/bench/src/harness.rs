//! What both tables share, written once: the **row and table** types
//! ([`Row`], [`Table`] — [`crate::drills::SCENARIOS`] and
//! [`crate::figures::FIGURES`] are the two instances, [`Table::main`] is
//! the body of both binaries), the one **gate list** shape ([`Gate`])
//! every verdict line and the exit code are printed from, the one
//! **report** ([`ScenarioReport`]: notes, `DIGEST` lines, `RECORD`
//! lines, gates) with its printer, and the one **JSON writer**
//! ([`write_json`]).
//!
//! The rest is what the serving drills share. All drills drive the same
//! shape — the mixed-shift traffic stream
//! through a thread-per-core [`Server`] over a sharded [`HopeStore`],
//! measured in three phases around the Email-A → Email-B shift. This
//! module holds the one **pass driver** ([`run_pass`]: build the store,
//! start the server, submit the three phase windows, flush, maintain,
//! shut down) and the per-phase **`DIGEST` formatter** ([`phase_digest`]).
//! A scenario keeps only its own configuration, extra sections and gates.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hope_store::serving::{
    LatencyHistogram, Request, Server, ServingConfig, ServingReport, WorkerStats,
};
use hope_store::telemetry::TelemetrySnapshot;
use hope_store::{HopeStore, Maintainer, StoreConfig, StoreError, SwapReport};
use hope_workloads::{MixedWorkload, StoreOp};

use crate::BenchConfig;

/// The three measured traffic phases, in driver order.
pub const PHASE_NAMES: [&str; 3] = ["pre_shift", "shift", "post_shift"];

/// Worker threads every serving bench runs with.
pub const SERVING_WORKERS: usize = 4;

/// Per-worker queue budget of the serving benches.
pub const SERVING_QUEUE_CAPACITY: usize = 1024;

/// Batch size of the serving benches.
pub const SERVING_BATCH: usize = 64;

/// Every Nth submit of a producer's phase window carries a completion
/// ticket; the exactly-once gates assert all of them resolve.
pub const TICKET_SAMPLE: usize = 64;

/// Convert one workload op into a serving request.
pub fn to_request(op: &StoreOp) -> Request {
    match op {
        StoreOp::Get(k) => Request::get(k.clone()),
        StoreOp::Insert(k, v) => Request::insert(k.clone(), *v),
        StoreOp::Scan(low, high, limit) => Request::scan(low.clone(), high.clone(), *limit),
    }
}

/// Phase windows over the global op index: pre-shift, then the 20% of
/// the run right after the generator's shift point, then the rest.
pub fn phase_bounds(workload: &MixedWorkload) -> [(usize, usize); 3] {
    let ops = workload.ops.len();
    let shift_end = (workload.shift_at + ops / 5).min(ops);
    [(0, workload.shift_at), (workload.shift_at, shift_end), (shift_end, ops)]
}

/// The store config every serving drill starts from: a drift threshold
/// low enough that quick runs still trigger detection, and an event
/// ring deep enough that attribution gates can count events without
/// overflow.
pub fn serving_store_config() -> StoreConfig {
    StoreConfig { min_observed_bytes: 1024, event_capacity: 4096, ..StoreConfig::default() }
}

/// Build a store over the workload's initial keys (value = position).
pub fn build_store(workload: &MixedWorkload, cfg: StoreConfig) -> Arc<HopeStore> {
    let pairs = workload.initial.iter().enumerate().map(|(i, k)| (k.clone(), i as u64));
    Arc::new(HopeStore::build(cfg, pairs).expect("store build"))
}

/// [`build_store`] with [`serving_store_config`].
pub fn build_serving_store(workload: &MixedWorkload) -> Arc<HopeStore> {
    build_store(workload, serving_store_config())
}

/// The serving config every serving bench runs: 4 workers, bounded
/// queues, three measured phases, virtual time in quick mode.
pub fn serving_config(quick: bool) -> ServingConfig {
    ServingConfig {
        workers: SERVING_WORKERS,
        queue_capacity: SERVING_QUEUE_CAPACITY,
        batch: SERVING_BATCH,
        phases: 3,
        virtual_time: quick,
        ..ServingConfig::default()
    }
}

/// Per-phase throughput: virtual (busiest-worker service time) in quick
/// mode, wall-clock otherwise.
pub fn phase_ops_per_sec(report: &ServingReport, p: usize, wall_ns: &[u64; 3]) -> f64 {
    if report.virtual_time {
        report.phases[p].virtual_ops_per_sec()
    } else {
        report.phases[p].ops as f64 * 1e9 / wall_ns[p].max(1) as f64
    }
}

/// How one pass differs from the standard one ([`PassSpec::standard`]).
pub struct PassSpec<'a> {
    /// The store the pass builds.
    pub store: StoreConfig,
    /// The server it starts; a fault plan in here is also installed on
    /// the store's maintenance path.
    pub serving: ServingConfig,
    /// Producer threads (op `i` goes to producer `i % producers`). One
    /// producer makes the admission index equal the stream position,
    /// which every per-index fault and admission decision keys on.
    pub producers: usize,
    /// Request mapping.
    pub request: &'a (dyn Fn(&StoreOp) -> Request + Sync),
    /// Run a [`Maintainer`] thread under the traffic (hot-swaps land
    /// concurrently with requests, at timing-dependent positions).
    pub background_maintainer: bool,
    /// Driver-paced `maintain()` passes after each phase's flush: up to
    /// this many, stopping at the first clean one.
    pub maintain_passes: [usize; 3],
}

impl PassSpec<'static> {
    /// The common shape: the serving store and config, one producer,
    /// plain requests, one maintenance pass after the shift and one
    /// after the run.
    pub fn standard(quick: bool) -> Self {
        PassSpec {
            store: serving_store_config(),
            serving: serving_config(quick),
            producers: 1,
            request: &to_request,
            background_maintainer: false,
            maintain_passes: [0, 1, 1],
        }
    }
}

/// Everything one pass produced.
pub struct PassOutcome {
    /// The server's shutdown report (phases, workers, queues, telemetry).
    pub report: ServingReport,
    /// Wall-clock nanoseconds per phase (submit through flush).
    pub wall_ns: [u64; 3],
    /// Requests submitted.
    pub submitted: u64,
    /// Completion tickets handed out / found resolved after the run.
    pub tickets: (u64, u64),
    /// Hot-swaps the maintenance passes (driver and thread) reported.
    pub swaps: Vec<SwapReport>,
    /// Injected rebuild failures the maintenance passes returned.
    pub injected: Vec<(usize, StoreError)>,
    /// The last driver-paced maintenance pass reported no errors.
    pub healed: bool,
    /// Per phase: some shard's epoch moved between the phase's first
    /// submit and the end of its maintenance.
    pub swap_in_phase: [bool; 3],
}

impl PassOutcome {
    /// Store errors across all phases.
    pub fn errors(&self) -> u64 {
        self.report.phases.iter().map(|p| p.errors).sum()
    }

    /// Every submitted request completed, none was rejected, and every
    /// sampled ticket resolved.
    pub fn exactly_once(&self) -> bool {
        self.report.total_ops() == self.submitted
            && self.report.total_rejected() == 0
            && self.tickets.0 == self.tickets.1
    }

    /// The `completed=… rejected=… tickets=…` digest fields.
    pub fn completion(&self) -> String {
        format!(
            "completed={}/{} rejected={} tickets={}/{}",
            self.report.total_ops(),
            self.submitted,
            self.report.total_rejected(),
            self.tickets.1,
            self.tickets.0,
        )
    }

    /// Merged latency of the workers `pick` selects.
    pub fn tail(&self, pick: impl Fn(&WorkerStats) -> bool) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        self.report.worker_stats.iter().filter(|w| pick(w)).for_each(|w| h.merge(&w.latency));
        h
    }

    /// Human-readable context the digest's phase lines leave out:
    /// per-phase throughput and one line per worker.
    pub fn notes(&self) -> Vec<String> {
        let r = &self.report;
        let rate = |p| phase_ops_per_sec(r, p, &self.wall_ns);
        let mut out =
            vec![format!("# ops/sec by phase: {:.0} / {:.0} / {:.0}", rate(0), rate(1), rate(2))];
        for (w, q) in r.worker_stats.iter().zip(&r.queues) {
            let (p50, p99, p999) = w.latency.slo_points();
            out.push(format!(
                "# worker {}{}: {} ops, p50 {p50}ns p99 {p99}ns p999 {p999}ns, peak depth {}, \
                 shed_away {}, {:?}",
                w.worker,
                if w.degraded { " (degraded)" } else { "" },
                w.ops,
                q.peak_depth,
                q.shed_away,
                w.faults,
            ));
        }
        out
    }
}

/// The one pass driver: build the store, start a [`Server`], submit the
/// three phase windows, flush, run the maintenance the spec paces, shut
/// down. Rebuild errors other than injected faults are bugs and panic.
pub fn run_pass(workload: &MixedWorkload, spec: &PassSpec<'_>) -> PassOutcome {
    let store = build_store(workload, spec.store);
    if let Some(plan) = spec.serving.faults {
        store.inject_faults(plan);
    }
    let server = Server::start(Arc::clone(&store), spec.serving).expect("server start");
    let maintainer = spec
        .background_maintainer
        .then(|| Maintainer::spawn(Arc::clone(&store), Duration::from_millis(2)));

    let (mut swaps, mut injected, mut healed) = (Vec::new(), Vec::new(), true);
    let (mut wall_ns, mut swap_in_phase, mut submitted) = ([0u64; 3], [false; 3], 0u64);
    let mut tickets = Vec::new();
    for (phase, &(lo, hi)) in phase_bounds(workload).iter().enumerate() {
        let epochs_before = store.epochs();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let producers: Vec<_> = (0..spec.producers)
                .map(|p| {
                    let server = &server;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        let window = (lo..hi).filter(|i| i % spec.producers == p);
                        for (n, op) in window.map(|i| &workload.ops[i]).enumerate() {
                            // Backpressure submit: a drill admits its whole
                            // fixed op sequence (load shedding is exercised
                            // by tests/serving_overload.rs).
                            let req = (spec.request)(op);
                            if n.is_multiple_of(TICKET_SAMPLE) {
                                mine.push(server.submit(req, phase).expect("server open"));
                            } else {
                                server.submit_detached(req, phase).expect("server open");
                            }
                        }
                        mine
                    })
                })
                .collect();
            for p in producers {
                tickets.extend(p.join().expect("producer thread"));
            }
        });
        server.flush();
        wall_ns[phase] = t0.elapsed().as_nanos() as u64;
        submitted += (hi - lo) as u64;
        for _ in 0..spec.maintain_passes[phase] {
            let (new_swaps, errors) = store.maintain();
            healed = errors.is_empty();
            swaps.extend(new_swaps);
            injected.extend(errors);
            if healed {
                break;
            }
        }
        swap_in_phase[phase] = store.epochs() != epochs_before;
    }
    if let Some(m) = maintainer {
        let log = m.stop();
        swaps.extend(log.swaps);
        injected.extend(log.errors);
    }
    if let Some((shard, e)) =
        injected.iter().find(|(_, e)| !matches!(e, StoreError::FaultInjected { .. }))
    {
        panic!("real rebuild error on shard {shard}: {e}");
    }
    let resolved = tickets.iter().filter(|t| t.is_done()).count() as u64;
    PassOutcome {
        report: server.shutdown(),
        wall_ns,
        submitted,
        tickets: (tickets.len() as u64, resolved),
        swaps,
        injected,
        healed,
        swap_in_phase,
    }
}

/// One named requirement of a scenario and what the run measured.
#[derive(Debug)]
pub struct Gate {
    /// Short identifier (also a key of the JSON report).
    pub name: &'static str,
    /// What must hold, thresholds included.
    pub required: String,
    /// What the run showed.
    pub measured: String,
    /// The verdict.
    pub ok: bool,
}

impl Gate {
    /// A gate from its verdict and the two sides of its report.
    pub fn new(
        name: &'static str,
        ok: bool,
        required: impl Into<String>,
        measured: impl Into<String>,
    ) -> Gate {
        Gate { name, required: required.into(), measured: measured.into(), ok }
    }

    /// The verdict line; a failure comes out diff-style (required vs
    /// measured) so a CI log shows which requirement broke and by how
    /// much.
    pub fn lines(&self) -> Vec<String> {
        if self.ok {
            return vec![format!("# gate {:20} ok  ({})", self.name, self.measured)];
        }
        vec![
            format!("# gate {:20} FAILED", self.name),
            format!("- {}: {}  (required)", self.name, self.required),
            format!("+ {}: {}  (measured)", self.name, self.measured),
        ]
    }
}

/// Process exit code for a set of gate verdicts: 0 only if all hold.
pub fn exit_code<'a>(gates: impl IntoIterator<Item = &'a Gate>) -> i32 {
    i32::from(!gates.into_iter().all(|g| g.ok))
}

/// The per-phase `DIGEST` lines: op counts always, latency quantiles
/// when `latency`, throughput when `wall_ns` is given (virtual in quick
/// mode, so still deterministic there).
pub fn phase_digest(
    report: &ServingReport,
    latency: bool,
    wall_ns: Option<&[u64; 3]>,
) -> Vec<String> {
    let line = |(p, ph): (usize, &hope_store::serving::PhaseStats)| {
        let mut s = format!(
            "phase={} ops={} gets={} inserts={} scans={} errors={}",
            PHASE_NAMES[p], ph.ops, ph.gets, ph.inserts, ph.scans, ph.errors
        );
        if latency {
            let (p50, p99, p999) = ph.latency.slo_points();
            s.push_str(&format!(" p50={p50}ns p99={p99}ns p999={p999}ns"));
        }
        if let Some(wall) = wall_ns {
            s.push_str(&format!(" kops={:.1}", phase_ops_per_sec(report, p, wall) / 1e3));
        }
        s
    };
    report.phases.iter().enumerate().map(line).collect()
}

/// What one row's run produced: everything the printer, the JSON
/// writer and the exit code need.
#[derive(Default)]
pub struct ScenarioReport {
    /// Row name (in [`crate::drills::SCENARIOS`] or
    /// [`crate::figures::FIGURES`]).
    pub scenario: &'static str,
    /// Operations in the driven stream (0 for a row that drives none).
    pub ops: usize,
    /// Human-readable context, printed as given.
    pub notes: Vec<String>,
    /// The deterministic `key=value` summary lines (without the
    /// `DIGEST [scenario]` prefix the printer adds). Equal across two
    /// `--quick` runs of the same arguments.
    pub digest: Vec<String>,
    /// `key=value` lines of what is measured but never gated and never in
    /// a `DIGEST`: wall-clock columns, and findings derived from them.
    pub recorded: Vec<String>,
    /// The row's requirements and their verdicts.
    pub gates: Vec<Gate>,
    /// Telemetry of the row's main pass, when it ran a store.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ScenarioReport {
    /// All gates hold.
    pub fn pass(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    /// One measured cell named by `key`: its deterministic columns join
    /// the digest, its wall-clock columns the recorded lines (either may
    /// be empty).
    pub fn cell(&mut self, key: &str, deterministic: &str, timed: &str) {
        if !deterministic.is_empty() {
            self.digest.push(format!("{key} {deterministic}"));
        }
        if !timed.is_empty() {
            self.recorded.push(format!("{key} {timed}"));
        }
    }

    /// Close the digest with its `gates …` line: the row's own fields,
    /// then the overall verdict.
    pub fn seal(&mut self, fields: String) {
        self.digest.push(format!("gates {fields} pass={}", self.pass()));
    }

    /// [`ScenarioReport::seal`] with one `name=verdict` field per gate.
    pub fn seal_with_verdicts(&mut self) {
        let verdicts: Vec<String> =
            self.gates.iter().map(|g| format!("{}={}", g.name, g.ok)).collect();
        self.seal(verdicts.join(" "));
    }

    /// Print notes, `DIGEST` and `RECORD` lines, gate verdicts and the
    /// PASS/FAIL line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for d in &self.digest {
            println!("DIGEST [{}] {d}", self.scenario);
        }
        for r in &self.recorded {
            println!("RECORD [{}] {r}", self.scenario);
        }
        for line in self.gates.iter().flat_map(Gate::lines) {
            println!("{line}");
        }
        println!("# {} — {}\n", self.scenario, if self.pass() { "PASS" } else { "FAIL" });
    }

    /// This row's JSON object: gate list, digest and recorded lines, then
    /// [`TelemetrySnapshot::to_json`] verbatim (`null` without a store).
    pub fn to_json(&self) -> String {
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                format!(
                    "{{\"name\": {:?}, \"required\": {:?}, \"measured\": {:?}, \"ok\": {}}}",
                    g.name, g.required, g.measured, g.ok
                )
            })
            .collect();
        let lines = |v: &[String]| v.iter().map(|l| format!("{l:?}")).collect::<Vec<_>>();
        let telemetry = self.telemetry.as_ref().map_or("null".into(), TelemetrySnapshot::to_json);
        format!(
            "    {{\n    \"scenario\": {:?},\n    \"ops\": {},\n    \"pass\": {},\n    \
             \"gates\": {},\n    \"digest\": {},\n    \"recorded\": {},\n    \
             \"telemetry\": {}\n    }}",
            self.scenario,
            self.ops,
            self.pass(),
            json_array(&gates),
            json_array(&lines(&self.digest)),
            json_array(&lines(&self.recorded)),
            telemetry.trim_end(),
        )
    }
}

/// A scenario's JSON array of already-rendered items, one per line at the
/// report's indent; `[]` when there are none.
fn json_array(items: &[String]) -> String {
    if items.is_empty() {
        return "[]".into();
    }
    format!("[\n      {}\n    ]", items.join(",\n      "))
}

/// One row of a table: a named run that fills in a [`ScenarioReport`].
pub struct Row {
    /// Name on the command line and in the report.
    pub name: &'static str,
    pub(crate) body: fn(&BenchConfig, &mut ScenarioReport),
}

impl Row {
    /// Run the row at the configured size.
    pub fn run(&self, cfg: &BenchConfig) -> ScenarioReport {
        let mut report = ScenarioReport { scenario: self.name, ..ScenarioReport::default() };
        (self.body)(cfg, &mut report);
        report
    }
}

/// A table of rows and what its binary needs beside them.
pub struct Table {
    /// Binary name: the usage line's first word and the report's `"bench"`.
    pub bench: &'static str,
    /// The report's `"dataset"`.
    pub dataset: &'static str,
    /// Where the JSON report goes without `--out`.
    pub default_out: &'static str,
    /// The rows, in the order the binary runs them.
    pub rows: &'static [Row],
}

impl Table {
    /// The rows `names` asks for, in that order (all when none named).
    ///
    /// # Errors
    ///
    /// A message for a name that is not a row of this table.
    pub fn select(&self, names: &[String]) -> Result<Vec<&'static Row>, String> {
        if names.is_empty() {
            return Ok(self.rows.iter().collect());
        }
        let find = |n: &String| self.rows.iter().find(|r| r.name == n);
        names.iter().map(|n| find(n).ok_or_else(|| format!("unknown row `{n}`"))).collect()
    }

    /// The binary's usage line.
    pub fn usage(&self) -> String {
        let names: Vec<&str> = self.rows.iter().map(|r| r.name).collect();
        format!(
            "{} [{} …] [--quick] [--keys N] [--queries N] [--seed N] [--out PATH]",
            self.bench,
            names.join("|")
        )
    }

    /// The whole body of a binary: parse `std::env::args` (a malformed
    /// command line prints the error plus the usage line and exits 2),
    /// run and print the selected rows, write the JSON report, exit 1 if
    /// any gate failed.
    pub fn main(&self) -> ! {
        let parsed = BenchConfig::parse(std::env::args().skip(1))
            .and_then(|cfg| Ok((self.select(&cfg.rows)?, cfg)));
        let (rows, cfg) = parsed.unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {}", self.usage());
            std::process::exit(2)
        });
        let mut reports: Vec<ScenarioReport> = Vec::new();
        for row in rows {
            let report = row.run(&cfg);
            report.print();
            reports.push(report);
        }
        let out = cfg.out.as_deref().unwrap_or(self.default_out);
        write_json(out, self, &cfg, &reports).expect("write the JSON report");
        println!("# wrote {out}");
        std::process::exit(exit_code(reports.iter().flat_map(|r| &r.gates)))
    }
}

/// The one JSON writer (hand-rolled; the workspace builds offline, no
/// serde): the run's envelope, then one object per row.
pub fn write_json(
    path: &str,
    table: &Table,
    cfg: &BenchConfig,
    reports: &[ScenarioReport],
) -> std::io::Result<()> {
    let scenarios: Vec<String> = reports.iter().map(ScenarioReport::to_json).collect();
    let json = format!(
        "{{\n  \"bench\": {:?},\n  \"dataset\": {:?},\n  \
         \"keys\": {},\n  \"queries\": {},\n  \"seed\": {},\n  \"quick\": {},\n  \
         \"pass\": {},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        table.bench,
        table.dataset,
        cfg.keys,
        cfg.queries,
        cfg.seed,
        cfg.quick,
        reports.iter().all(ScenarioReport::pass),
        scenarios.join(",\n"),
    );
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_workloads::TrafficSpec;

    #[test]
    fn phase_bounds_cover_the_stream_exactly_once() {
        let w = MixedWorkload::generate(500, 2_000, TrafficSpec::default(), 7);
        let b = phase_bounds(&w);
        assert_eq!(b[0].0, 0);
        assert_eq!(b[0].1, b[1].0);
        assert_eq!(b[1].1, b[2].0);
        assert_eq!(b[2].1, w.ops.len());
        assert_eq!(b[1].0, w.shift_at);
    }

    #[test]
    fn serving_config_matches_the_published_shape() {
        let c = serving_config(true);
        assert_eq!((c.workers, c.queue_capacity, c.batch, c.phases), (4, 1024, 64, 3));
        assert!(c.virtual_time);
        assert!(c.faults.is_none() && c.admission.is_none());
        assert!(!serving_config(false).virtual_time);
    }

    #[test]
    fn empty_arrays_print_as_brackets_and_full_ones_one_item_a_line() {
        assert_eq!(json_array(&[]), "[]");
        let two = ["\"a\"".to_string(), "\"b\"".to_string()];
        assert_eq!(json_array(&two), "[\n      \"a\",\n      \"b\"\n    ]");
        let report = ScenarioReport {
            scenario: "row",
            digest: vec!["k=1".into()],
            gates: vec![Gate::new("g", true, "req", "meas")],
            ..ScenarioReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"recorded\": [],\n"), "{json}");
        assert!(json.contains("\"digest\": [\n      \"k=1\"\n    ],\n"), "{json}");
        assert!(
            json.contains("\"gates\": [\n      {\"name\": \"g\", \"required\": \"req\""),
            "{json}"
        );
    }

    #[test]
    fn a_failing_gate_prints_required_and_measured_and_fails_the_run() {
        let ok = Gate::new("no_errors", true, "errors == 0", "errors 0");
        let bad = Gate::new("p99_ratio", false, "shift p99 <= 10x pre-shift", "ratio 12.50");
        assert_eq!(ok.lines().len(), 1);
        assert_eq!(exit_code([&ok]), 0);
        let lines = bad.lines();
        assert_eq!(lines[1], "- p99_ratio: shift p99 <= 10x pre-shift  (required)");
        assert_eq!(lines[2], "+ p99_ratio: ratio 12.50  (measured)");
        assert_ne!(exit_code([&ok, &bad]), 0);
    }
}
