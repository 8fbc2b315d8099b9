//! One run: parse nothing, decide nothing — take a workload, a seed and a
//! size, run the phases in order, and return every metric with the count
//! of checked operations and failures.

use std::path::PathBuf;

use hope_store::HopeStore;

use crate::alloc::{bytes_freed_by_drop, settle};
use crate::inputs::{Fresh, Inputs};
use crate::layers;
use crate::phases::{build_raw_twin, build_store, Direct, Plan, Round};
use crate::spec::{MetricDef, Scale, Workload, ABSOLUTE, END_TO_END, PER_LAYER};
use crate::timing::{median, Tracer};

/// Checked operations, failures among them, and a checksum of every
/// result (equal across two runs with the same seed).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub checksum: u64,
    /// What is being checked now, and the failures seen under each label.
    context: &'static str,
    failures: Vec<(&'static str, u64)>,
}

impl Tally {
    /// Label the checks that follow, so a failure names the call it
    /// came from.
    pub fn at(&mut self, context: &'static str) {
        self.context = context;
    }

    /// Count one operation whose result word was `got` and must be `want`.
    #[inline]
    pub fn check(&mut self, got: u64, want: u64) {
        self.attempted += 1;
        self.checksum = self.checksum.rotate_left(1) ^ got;
        if got != want {
            self.fail(1);
        }
    }

    /// [`Tally::check`] for every pair of `got` and `want`.
    pub fn check_all(&mut self, got: &[u64], want: &[u64]) {
        assert_eq!(got.len(), want.len(), "a result per operation on both sides");
        for (&got, &want) in got.iter().zip(want) {
            self.check(got, want);
        }
    }

    /// Count `n` failed operations under the current label.
    pub fn fail(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.failed += n;
        match self.failures.iter_mut().find(|(at, _)| *at == self.context) {
            Some((_, count)) => *count += n,
            None => self.failures.push((self.context, n)),
        }
    }

    /// `"<count> failed in <label>"` per label that saw a failure.
    pub fn failure_notes(&self) -> Vec<String> {
        self.failures.iter().map(|(at, n)| format!("{n} failed in {at}")).collect()
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub scale: Scale,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes `trace-<workload>-<seed>.jsonl`.
    pub out_dir: PathBuf,
}

/// Metrics with their measured values.
pub type Measured = Vec<(MetricDef, f64)>;

/// What a run measured.
#[derive(Debug)]
pub struct RunResult {
    pub tally: Tally,
    /// Every metric of the run's kind, in the order of its table.
    pub metrics: Measured,
    /// An untraced run's absolute figures behind its ratios — printed,
    /// not gated, and not in the result line (a traced run reports the
    /// same names among its metrics).
    pub absolute: Measured,
    /// Open-loop windows that ran off schedule, and where checks failed.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The result line: one JSON object, printed last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", def.name, value, def.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Pair a metric table with measured values given by name; a name missing
/// on either side is a bug in this file.
pub(crate) fn tabulate(table: &[MetricDef], values: &[(&str, f64)]) -> Measured {
    assert_eq!(table.len(), values.len(), "metric table and values differ in length");
    table
        .iter()
        .map(|def| {
            let (_, v) = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("metric {} not measured", def.name));
            assert!(v.is_finite(), "metric {} is not finite", def.name);
            (*def, *v)
        })
        .collect()
}

pub fn run(args: &RunArgs) -> RunResult {
    let (inputs, mut fresh) = Inputs::generate(args.workload, &args.scale, args.seed);
    let plan = Plan { w: args.workload, scale: args.scale, inputs: &inputs, seed: args.seed };
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    let (metrics, absolute) = if args.trace {
        let mut tracer = Tracer::new();
        let values = layers::run(plan, &mut fresh, &mut tracer, &mut tally, &mut notes);
        let path = args.out_dir.join(format!("trace-{}-{}.jsonl", args.workload.name, args.seed));
        tracer.write_jsonl(&path).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        (tabulate(&PER_LAYER, &values), Vec::new())
    } else {
        end_to_end(plan, &mut fresh, &mut tally, &mut notes)
    };
    notes.extend(tally.failure_notes());
    RunResult { tally, metrics, absolute, notes }
}

/// Timed builds of an untraced run, after one untimed cold build.
const SETUP_BUILDS: usize = 5;

/// One `HopeStore::build` of the workload's load, its seconds appended to
/// `setup`.
fn timed_build(plan: Plan<'_>, setup: &mut Vec<f64>) -> HopeStore {
    let (store, seconds) = build_store(plan.w, plan.inputs);
    setup.push(seconds);
    store
}

/// The untraced run: one cold build (its bytes are `mem_vs_raw`'s), one
/// timed build that becomes the store of the phases, then `rounds + 1`
/// passes that each do one round of every phase — get, scan, insert, mix,
/// one shard's rebuild — and, every third pass, one more timed build until
/// there are [`SETUP_BUILDS`]; then the memory figure. There is no served
/// phase: what two threads do together is too noisy to gate on the box
/// this was built on, and the traced run reports it.
///
/// Returns the end-to-end metrics, and the store's absolute figures
/// ([`ABSOLUTE`]) behind the ratios.
///
/// `setup_s` is the median of the timed builds. Every other timed figure
/// is the median over the rounds of the store's time ÷ the shadow map's
/// time for the same operations ([`Round`]). The rounds of one phase are
/// spread over the whole run instead of sitting back to back, so an
/// episode of interference (they last seconds on a shared box) meets a
/// few rounds of every phase, not all rounds of one.
fn end_to_end(
    plan: Plan<'_>,
    fresh: &mut Fresh,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> (Measured, Measured) {
    // The first build of a process runs ~20 % slower than the ones after
    // it (cold caches, a heap still growing): it is not timed.
    let (cold, _) = build_store(plan.w, plan.inputs);
    let fresh_bytes = bytes_freed_by_drop(cold);
    let raw_bytes = bytes_freed_by_drop(build_raw_twin(plan.w, plan.inputs));
    let mut setup = Vec::with_capacity(SETUP_BUILDS);
    let mut direct = Direct::new(plan, timed_build(plan, &mut setup));

    let rounds = plan.scale.rounds;
    let shards = direct.store.config().shards;
    let mut measured: [Vec<Round>; 5] = Default::default();
    for r in 0..=rounds {
        if r % 3 == 2 && setup.len() < SETUP_BUILDS {
            drop(timed_build(plan, &mut setup));
            settle();
        }
        // The drifting workload's insert keys switch population at half
        // the stream.
        let shifted = plan.w.drift && r > rounds / 2;
        let pass = [
            direct.get_round(tally),
            direct.scan_round(tally),
            direct.insert_round(tally, fresh),
            direct.mix_round(tally, fresh, shifted),
            direct.rebuild_round(tally, r % shards),
        ];
        if r > 0 {
            for (all, one) in measured.iter_mut().zip(pass) {
                all.push(one);
            }
        }
    }
    let stored_per_user_byte = direct.finish(tally);

    let names = ["get_vs_map", "scan_vs_map", "insert_vs_map", "mix_vs_map", "rebuild_vs_map"];
    let mut values = vec![("setup_s", median(&setup))];
    let mut absolute = Vec::new();
    for ((name, rounds), def) in names.into_iter().zip(&measured).zip(ABSOLUTE) {
        let ratios: Vec<f64> = rounds.iter().map(Round::vs_map).collect();
        let shown: Vec<String> = ratios.iter().map(|v| format!("{v:.3}")).collect();
        notes.push(format!("rounds of {name}: {}", shown.join(" ")));
        values.push((name, median(&ratios)));
        let ns_per_op = median(&rounds.iter().map(Round::store_ns_per_op).collect::<Vec<_>>());
        absolute.push((def, if def.unit == "1/s" { 1e9 / ns_per_op } else { ns_per_op }));
    }
    values.push(("mem_vs_raw", fresh_bytes as f64 / raw_bytes as f64));
    values.push(("stored_per_user_byte", stored_per_user_byte));
    (tabulate(&END_TO_END, &values), absolute)
}
