//! The serving drills: one table of five scenarios over the shared
//! [`harness`](crate::harness) — what the `drill` binary runs and what
//! `tests/drill_scenarios.rs` holds to the determinism contract.
//!
//! | Scenario | Drives | Gates |
//! |---|---|---|
//! | `slo` | the mixed Email-A → Email-B stream from two producers while a [`Maintainer`](hope_store::Maintainer) hot-swaps drifted dictionaries under the traffic | exactly-once, zero errors, a swap inside the shift phase, shift p99 ≤ [`TARGET_P99_RATIO`]× pre-shift, virtual throughput ≥ [`TARGET_VIRTUAL_MOPS`] M ops/s |
//! | `telemetry` | the same stream with 1-in-[`TRACE_EVERY`] tracing and driver-paced maintenance, then audits the store's telemetry against the swaps the driver saw | every swap logged, epochs monotone, nothing dropped, traces and codec counters populated, Prometheus export complete |
//! | `faults` | a no-fault baseline, then worker 1 sick (10× slow, stalls, spikes, bursts; it keeps all its traffic) and every other rebuild attempt failing | healthy-worker p999 ≤ [`TARGET_HEALTHY_P999_RATIO`]× baseline, exactly-once, every injected failure attributed, healed within [`MAX_HEAL_PASSES`] passes |
//! | `adaptive` | baseline, a healthy control pass with the admission controller on, then the shift-phase sickness, which only the controller can shed | bounded engage ([`engage_bound`]), healthy p999 bound, shed accounting agrees, bounded release ([`disengage_bound`]), no false positives |
//! | `snapshot` | frozen-view audit under churn, capture-latency probe on an 8× larger store, localized-drift rebuild, and a serving pass with every other scan a `SnapshotScan` | frozen equality, capture flat (≤ [`LATENCY_FLAT_RATIO`]×), a dictionary kept and one replaced with re-encoded fraction < [`MAX_REENCODED_FRAC`], exactly-once with balanced snapshot lifecycle |
//!
//! **Determinism**: `--quick` switches the server to virtual-time
//! accounting — each request's latency is a pure function of the
//! request, the op stream of the seed, routing of the keys, every fault
//! and admission decision of `(worker, request index, phase)` — so two
//! quick runs produce identical [`ScenarioReport::digest`] vectors no
//! matter how threads interleave. Numbers that depend on wall time or on
//! write arrival order (capture medians, swap and event counts of
//! the multi-producer passes) stay out of the digest.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hope_store::serving::{AdmissionConfig, FaultPlan, FaultTally, Request, ServingConfig};
use hope_store::telemetry::EventKind;
use hope_store::{HopeStore, StoreConfig};
use hope_workloads::{MixedWorkload, StoreOp, TrafficSpec};

use crate::harness::{
    phase_bounds, phase_digest, run_pass, serving_config, serving_store_config, to_request, Gate,
    PassOutcome, PassSpec, Row, ScenarioReport, Table, SERVING_BATCH, SERVING_QUEUE_CAPACITY,
    SERVING_WORKERS,
};
use crate::BenchConfig;

/// `slo`: shift-phase p99 must stay within this factor of pre-shift p99
/// (a hot-swap must not melt the tail; virtual mode sits near 1×).
pub const TARGET_P99_RATIO: f64 = 10.0;

/// `slo` (virtual mode): slowest phase's virtual throughput, in millions
/// of ops per second per busiest worker.
pub const TARGET_VIRTUAL_MOPS: f64 = 0.5;

/// `slo` / `telemetry`: producer threads feeding the server.
pub const PRODUCERS: usize = 2;

/// `telemetry`: every Nth request per worker runs the span-timed paths.
pub const TRACE_EVERY: u32 = 64;

/// `faults` / `adaptive`: healthy-worker p999 must stay within this
/// factor of the no-fault baseline p999.
pub const TARGET_HEALTHY_P999_RATIO: f64 = 3.0;

/// `faults` / `adaptive`: the sick worker the plan degrades.
pub const DEGRADED: usize = 1;

/// `faults`: healing passes allowed after the traffic ends (every failed
/// attempt heals on the next pass at `rebuild_fail_every = 2`, so two is
/// already generous).
pub const MAX_HEAL_PASSES: usize = 4;

/// `adaptive`: windows granted per healthy verdict the release ladder
/// needs. In wall mode the sick worker's post-fault windows stretch two
/// ways: at high shed levels its sample count runs thin and whole
/// windows abstain, and right after fault end it still drains a queue of
/// penalized requests whose slow completions contaminate post-fault
/// windows with sick evidence while the admission clock races ahead.
pub const RELEASE_WINDOW_SLACK: u64 = 8;

/// `snapshot`: the large store's median `snapshot()` latency must stay
/// within this factor of the small store's. The true ratio is ~1 (the
/// capture does identical O(shards) work on both); the headroom absorbs
/// scheduler noise so the boolean is stable run to run.
pub const LATENCY_FLAT_RATIO: f64 = 8.0;

/// `snapshot`: the large store holds this many times the small store's
/// keys — an O(keys) capture would blow the ratio gate immediately.
const SIZE_FACTOR: usize = 8;

/// `snapshot`: capture trials per store (interleaved small/large).
const LATENCY_TRIALS: usize = 101;

/// `snapshot`: ceiling on `reencoded / (reused + reencoded)` summed over
/// all shards after localized drift.
pub const MAX_REENCODED_FRAC: f64 = 0.5;

/// `snapshot`: the drift is confined to this bottom fraction of the
/// sorted keyspace — entirely inside the first shard's range (shard
/// split points are quantiles), so the other shards see no traffic at
/// all, are not drifted, and keep the store's dictionary.
const DRIFT_PREFIX_DENOM: usize = 10;

/// `snapshot`: within the drifted prefix, one key in this many gets a
/// value update (key bytes unchanged).
const DRIFT_UPDATE_EVERY: usize = 2;

/// `snapshot`: within the drifted prefix, one key in this many spawns a
/// sibling key: the key plus [`DRIFT_SUFFIX_LEN`] bytes the dictionary
/// has never seen.
const DRIFT_NEW_EVERY: usize = 25;

/// `snapshot`: length of a sibling's unseen suffix — long enough that
/// the siblings drag the first shard's observed CPR under the drift
/// threshold although the value updates around them (12 to 1) still
/// compress at the baseline.
const DRIFT_SUFFIX_LEN: usize = 48;

/// The five drills, in the order `drill` runs them.
pub static SCENARIOS: Table = Table {
    bench: "drill",
    dataset: "email-mixed-traffic",
    default_out: "BENCH_drills.json",
    rows: &[
        Row { name: "slo", body: slo },
        Row { name: "telemetry", body: telemetry },
        Row { name: "faults", body: faults },
        Row { name: "adaptive", body: adaptive },
        Row { name: "snapshot", body: snapshot },
    ],
};

/// The seeded mixed-traffic stream a drill drives: `queries` ops in
/// virtual time for a quick run, `queries × full_ops_factor` in
/// wall-clock mode for a full one.
fn workload(cfg: &BenchConfig, full_ops_factor: usize, out: &mut ScenarioReport) -> MixedWorkload {
    out.ops = if cfg.quick { cfg.queries } else { cfg.queries.saturating_mul(full_ops_factor) };
    let mode = if cfg.quick { "virtual-time (deterministic)" } else { "wall-clock" };
    out.notes.push(format!(
        "# drill {}: {} initial keys, {} ops, seed {}, {mode} mode",
        out.scenario, cfg.keys, out.ops, cfg.seed
    ));
    MixedWorkload::generate(cfg.keys, out.ops, TrafficSpec::default(), cfg.seed)
}

fn slo(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let workload = &workload(cfg, 20, out);
    // Hot-swap runs *concurrently with the traffic*; the one direct pass
    // after the shift makes the verdict timing-independent — by then the
    // drift has either been detected or the gate should fail.
    let pass = run_pass(
        workload,
        &PassSpec {
            producers: PRODUCERS,
            background_maintainer: true,
            maintain_passes: [0, 1, 0],
            ..PassSpec::standard(cfg.quick)
        },
    );
    let phases = &pass.report.phases;
    let p99_pre = phases[0].latency.quantile_ns(0.99).max(1);
    let p99_shift = phases[1].latency.quantile_ns(0.99);
    let p99_ratio = p99_shift as f64 / p99_pre as f64;
    let vmops = phases.iter().map(|p| p.virtual_ops_per_sec()).fold(f64::INFINITY, f64::min) / 1e6;
    let (errors, swap_in_shift) = (pass.errors(), pass.swap_in_phase[1]);

    out.notes.extend(pass.notes());
    out.notes.push(format!("# {} hot-swaps in all", pass.swaps.len()));
    out.digest = phase_digest(&pass.report, true, Some(&pass.wall_ns));
    out.gates = vec![
        exactly_once_gate(&[("run", &pass)]),
        Gate::new(
            "swap_in_shift",
            swap_in_shift,
            "a dictionary hot-swap during the shift phase",
            if swap_in_shift { "a shard epoch changed" } else { "no shard epoch changed" },
        ),
        Gate::new(
            "p99_ratio",
            p99_ratio <= TARGET_P99_RATIO,
            format!("shift p99 <= {TARGET_P99_RATIO}x pre-shift p99"),
            format!("ratio {p99_ratio:.2} ({p99_shift} ns vs {p99_pre} ns)"),
        ),
        Gate::new(
            "virtual_mops",
            !cfg.quick || vmops >= TARGET_VIRTUAL_MOPS,
            format!("virtual throughput >= {TARGET_VIRTUAL_MOPS} M ops/s (quick mode)"),
            format!("{vmops:.3} M ops/s"),
        ),
    ];
    out.seal(format!(
        "completed={}/{} rejected={} errors={errors} swap_in_shift={swap_in_shift} \
         p99_ratio={p99_ratio:.2}",
        pass.report.total_ops(),
        pass.submitted,
        pass.report.total_rejected(),
    ));
    out.telemetry = Some(pass.report.telemetry);
}

fn telemetry(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let workload = &workload(cfg, 20, out);
    // No Maintainer thread: swaps happen only at the driver's maintain()
    // calls after each flush barrier, so the event audit has exact ground
    // truth. The ring stays at its default capacity — `no_drops` is a
    // statement about that default.
    let store = StoreConfig { min_observed_bytes: 1024, ..StoreConfig::default() };
    let pass = run_pass(
        workload,
        &PassSpec {
            store,
            serving: ServingConfig { trace_sample_every: TRACE_EVERY, ..serving_config(cfg.quick) },
            producers: PRODUCERS,
            maintain_passes: [1, 1, 1],
            ..PassSpec::standard(cfg.quick)
        },
    );
    let (snap, swaps, shards) = (&pass.report.telemetry, &pass.swaps, store.shards);

    let swap_ends: Vec<_> = snap.events_of(EventKind::SwapEnd).collect();
    let swap_begins = snap.events_of(EventKind::SwapBegin).count();
    let built = snap.events_of(EventKind::GenerationBuilt).count();
    let failed = snap.events_of(EventKind::RebuildFailed).count();
    let all_logged = swaps.iter().all(|r| {
        swap_ends.iter().any(|e| {
            e.shard as usize == r.shard && e.prev_epoch == r.old_epoch && e.epoch == r.new_epoch
        })
    });
    let rebuilds: u64 =
        (0..shards).map(|i| snap.counter(&format!("store.shard.{i}.rebuilds")).unwrap_or(0)).sum();
    let counts_agree = rebuilds == swaps.len() as u64
        && swap_begins == swaps.len()
        && swap_ends.len() == swaps.len();
    let seq_monotone = snap.events.windows(2).all(|w| w[0].seq < w[1].seq);
    // Per shard, successive swap_end events (in snapshot = seq order) must
    // chain: each steps the epoch strictly up from the previous swap's.
    let mut last_epoch: BTreeMap<u32, u64> = BTreeMap::new();
    let epochs_monotone = swap_ends.iter().all(|e| {
        let chained = last_epoch.insert(e.shard, e.epoch).is_none_or(|prev| e.prev_epoch == prev);
        chained && e.epoch > e.prev_epoch
    });
    let spans = |name| snap.histogram(name).map_or(0, |h| h.count);
    let traced = spans("serving.trace.probe") + spans("serving.trace.decode");
    let encoded = snap.gauge("store.codec.encode_keys").unwrap_or(0);
    let prom = snap.to_prometheus();
    let prom_ok = prom.contains("# TYPE store_shard_0_epoch gauge")
        && prom.contains("serving_trace_probe_count")
        && prom.contains("# TYPE store_codec_encode_keys gauge");

    out.notes.extend(pass.notes());
    out.digest = phase_digest(&pass.report, false, None);
    out.gates = vec![
        exactly_once_gate(&[("run", &pass)]),
        Gate::new(
            "swap_observed",
            !swaps.is_empty(),
            "at least one hot-swap reported to the driver",
            format!("{} swaps reported", swaps.len()),
        ),
        Gate::new(
            "all_swaps_logged",
            all_logged && counts_agree && failed == 0,
            "every SwapReport has its swap_end event; begin/end/rebuilds counts agree; 0 failed",
            format!(
                "{} reports vs {} swap_end / {swap_begins} swap_begin events, rebuilds counter \
                 {rebuilds}, {failed} failed",
                swaps.len(),
                swap_ends.len(),
            ),
        ),
        Gate::new(
            "epochs_monotone",
            epochs_monotone && seq_monotone,
            "per shard, swap_end epochs chain strictly upward; event seq strictly increasing",
            format!("{} swap_end events, seq_monotone={seq_monotone}", swap_ends.len()),
        ),
        Gate::new(
            "generation_built",
            built == shards,
            "one generation_built event per shard",
            format!("{built} generation_built events for {shards} shards"),
        ),
        Gate::new(
            "no_drops",
            snap.dropped_events == 0,
            "dropped_events == 0 at the default ring capacity",
            format!("{} events dropped", snap.dropped_events),
        ),
        Gate::new(
            "trace_sampled",
            traced > 0,
            "serving.trace.{probe,decode} histograms non-empty",
            format!("{traced} spans recorded"),
        ),
        Gate::new(
            "codec_counted",
            encoded > 0,
            "store.codec.encode_keys > 0",
            format!("{encoded} keys encoded"),
        ),
        Gate::new(
            "prometheus",
            prom_ok,
            "Prometheus text carries the shard epoch gauges, trace series and codec gauges",
            format!("{} bytes rendered", prom.len()),
        ),
    ];
    out.seal_with_verdicts();
    out.telemetry = Some(pass.report.telemetry);
}

/// The sickness both fault drills inject on worker [`DEGRADED`]: 10×
/// probe slowdown, 1-in-97 stalls, background spikes on every worker.
fn sickness(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        degraded_worker: Some(DEGRADED),
        slow_factor: 10,
        stall_every: 97,
        stall_ns: 50_000,
        spike_every: 2_000,
        spike_ns: 10_000,
        ..FaultPlan::default()
    }
}

/// The `slo …` digest line and the `p999_ok` gate of a sick pass against
/// its no-fault baseline (all workers healthy there): the sick worker's
/// slowdown must stay on it, not spread to its peers — by itself in
/// `faults`, with the controller shedding its traffic in `adaptive`.
fn healthy_tail(base: &PassOutcome, sick: &PassOutcome) -> (String, Gate) {
    let base_p999 = base.tail(|_| true).quantile_ns(0.999).max(1);
    let healthy = sick.tail(|w| w.worker != DEGRADED).quantile_ns(0.999);
    let degraded = sick.tail(|w| w.worker == DEGRADED).quantile_ns(0.999);
    let ratio = healthy as f64 / base_p999 as f64;
    let digest = format!(
        "slo base_p999={base_p999}ns healthy_p999={healthy}ns degraded_p999={degraded}ns \
         ratio={ratio:.2}"
    );
    let gate = Gate::new(
        "p999_ok",
        ratio <= TARGET_HEALTHY_P999_RATIO,
        format!("healthy-worker p999 <= {TARGET_HEALTHY_P999_RATIO}x no-fault baseline p999"),
        format!("ratio {ratio:.2} ({healthy} ns vs {base_p999} ns)"),
    );
    (digest, gate)
}

/// Every pass completed each submitted request exactly once, without a
/// store error, and resolved every sampled ticket.
fn exactly_once_gate(passes: &[(&str, &PassOutcome)]) -> Gate {
    let measured: Vec<String> = passes
        .iter()
        .map(|(name, p)| format!("{name}: {} errors={}", p.completion(), p.errors()))
        .collect();
    Gate::new(
        "exactly_once",
        passes.iter().all(|(_, p)| p.exactly_once() && p.errors() == 0),
        "every request completed exactly once: 0 rejected, 0 errors, every ticket resolved",
        measured.join("; "),
    )
}

fn faults(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let workload = &workload(cfg, 20, out);
    // On top of the sickness: queue-pressure bursts and every other
    // rebuild attempt per shard failing with `FaultInjected`. Nothing
    // sheds: the sick worker keeps its traffic.
    let plan = FaultPlan {
        burst_every: 8_192,
        burst_len: 16,
        burst_ns: 4_000,
        rebuild_fail_every: 2,
        ..sickness(cfg.seed)
    };
    // The no-fault pass the sick tail is measured against.
    let base = run_pass(workload, &PassSpec::standard(cfg.quick));
    // One pass right after the shift (where `slo`'s maintainer would have
    // swapped), then a healing loop after the run: every injected failure
    // is followed by a clean retry at `rebuild_fail_every = 2`.
    let faulted = run_pass(
        workload,
        &PassSpec {
            serving: ServingConfig { faults: Some(plan), ..serving_config(cfg.quick) },
            maintain_passes: [0, 1, MAX_HEAL_PASSES],
            ..PassSpec::standard(cfg.quick)
        },
    );
    let (slo_digest, p999_gate) = healthy_tail(&base, &faulted);
    let p999_ok = p999_gate.ok;
    let errors = base.errors() + faulted.errors();
    // Every injected rebuild failure must be attributable from the event
    // ring and the counter alone.
    let snap = &faulted.report.telemetry;
    let injected = faulted.injected.len() as u64;
    let events = snap.events_of(EventKind::RebuildFailed).count() as u64;
    let counter = snap.counter("store.faults.injected_rebuild_failures").unwrap_or(0);
    let attributed = injected >= 1 && injected == events && injected == counter;
    let base_clean = base.injected.is_empty() && base.healed;
    let mut tally = FaultTally::default();
    faulted.report.worker_stats.iter().for_each(|w| tally.merge(&w.faults));
    let degraded_ops = faulted.report.worker_stats[DEGRADED].ops;
    let healthy_ops = faulted.report.total_ops() - degraded_ops;

    out.notes.push(format!("# plan {plan}"));
    out.notes.extend(faulted.notes());
    out.digest = phase_digest(&faulted.report, true, None);
    out.digest.push(format!(
        "faults slowed={} stalled={} burst={} spiked={} \
         degraded_ops={degraded_ops} healthy_ops={healthy_ops}",
        tally.slowed, tally.stalled, tally.burst, tally.spiked,
    ));
    out.digest.push(slo_digest);
    out.gates = vec![
        p999_gate,
        exactly_once_gate(&[("base", &base), ("faulted", &faulted)]),
        Gate::new(
            "attributed",
            attributed,
            "injected >= 1 and driver errors == rebuild_failed events == counter",
            format!("injected {injected}, events {events}, counter {counter}"),
        ),
        Gate::new(
            "healed",
            faulted.healed,
            format!("a clean maintenance pass within {MAX_HEAL_PASSES} after the run"),
            format!("healed {}", faulted.healed),
        ),
        Gate::new(
            "base_clean",
            base_clean,
            "baseline run maintains cleanly with no injections",
            format!("baseline injected {} / healed {}", base.injected.len(), base.healed),
        ),
    ];
    out.seal(format!(
        "{} errors={errors} p999_ok={p999_ok} attributed={attributed} healed={}",
        faulted.completion(),
        faulted.healed,
    ));
    out.telemetry = Some(faulted.report.telemetry);
}

/// Upper bound on requests in flight (admitted, not yet executed): in
/// wall mode their observations lag the admission clock by this much.
const QUEUE_LAG: u64 = (SERVING_WORKERS * (SERVING_QUEUE_CAPACITY + SERVING_BATCH)) as u64;

/// `adaptive`: requests after fault onset within which the first engage
/// must seal — the engage streak itself plus one partial + one judged
/// window, plus the wall-mode observation lag of everything in flight.
pub fn engage_bound(ac: &AdmissionConfig) -> u64 {
    (u64::from(ac.engage_after) + 2) * ac.window + QUEUE_LAG
}

/// `adaptive`: requests after fault end within which every level must
/// walk back to zero — a full release ladder from the cap (`steps *
/// disengage_after` healthy verdicts, each granted
/// [`RELEASE_WINDOW_SLACK`] windows for abstention and backlog drain),
/// plus partial-window and in-flight slack.
pub fn disengage_bound(ac: &AdmissionConfig) -> u64 {
    let steps = u64::from(ac.max_shed_pct.div_ceil(ac.shed_step_pct));
    (steps * u64::from(ac.disengage_after) * RELEASE_WINDOW_SLACK + 4) * ac.window + QUEUE_LAG
}

fn adaptive(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let workload = &workload(cfg, 20, out);
    let ac = if cfg.quick {
        AdmissionConfig::quick(cfg.seed)
    } else {
        AdmissionConfig { seed: cfg.seed, ..AdmissionConfig::default() }
    };
    // The sickness confined to the shift phase (mask bit 1), rebuild
    // faults OFF: detection and mitigation belong to the controller.
    let plan = FaultPlan { phase_mask: 0b010, ..sickness(cfg.seed) };
    let with = |faults, admission| {
        let serving = ServingConfig { faults, admission, ..serving_config(cfg.quick) };
        run_pass(workload, &PassSpec { serving, ..PassSpec::standard(cfg.quick) })
    };
    let base = with(None, None);
    let control = with(None, Some(ac));
    let run = with(Some(plan), Some(ac));
    let adm = run.report.admission.as_ref().expect("controller configured");
    let control_adm = control.report.admission.as_ref().expect("controller configured");
    let (onset, fault_end) = phase_bounds(workload)[1];
    let (onset, fault_end) = (onset as u64, fault_end as u64);

    // Healthy engages are tolerated in wall mode — machine noise — but
    // gated to zero in the deterministic virtual run.
    let first_engage_at = adm.first_engage_window().map(|w| (w + 1) * ac.window);
    let engaged =
        adm.decisions.iter().any(|d| d.is_engage() && d.worker == DEGRADED) && adm.shed > 0;
    let healthy_engages =
        adm.decisions.iter().filter(|d| d.is_engage() && d.worker != DEGRADED).count();
    let bounded_engage = first_engage_at
        .is_some_and(|at| at > onset && at <= onset + engage_bound(&ac))
        && (!cfg.quick || healthy_engages == 0);
    let (slo_digest, p999_gate) = healthy_tail(&base, &run);
    let p999_ok = p999_gate.ok;
    let passes = [("base", &base), ("control", &control), ("adaptive", &run)];
    let errors: u64 = passes.iter().map(|(_, p)| p.errors()).sum();
    // Each shed request was counted exactly once: report, counter,
    // per-queue counters and events all agree.
    let snap = &run.report.telemetry;
    let shed_counter = snap.counter("serving.admission.shed").unwrap_or(0);
    let shed_away: u64 = run.report.queues.iter().map(|q| q.shed_away).sum();
    let engage_events = snap.events_of(EventKind::AdmissionEngage).count() as u64;
    let release_events = snap.events_of(EventKind::AdmissionRelease).count() as u64;
    let shed_agrees = adm.shed == shed_counter
        && adm.shed == shed_away
        && engage_events == adm.engages()
        && release_events == adm.releases();
    let last_release_at = adm.last_release_window().map(|w| (w + 1) * ac.window);
    let disengaged = adm.levels.iter().all(|&l| l == 0)
        && last_release_at.is_some_and(|at| at <= fault_end + disengage_bound(&ac));
    let no_false_positive = control_adm.shed == 0
        && control_adm.decisions.is_empty()
        && control_adm.levels.iter().all(|&l| l == 0);

    out.notes.push(format!("# plan {plan}"));
    out.notes.push(format!("# admission {ac:?}"));
    out.notes.extend(run.notes());
    out.notes.extend(adm.decisions.iter().map(|d| format!("# decision {d:?}")));
    let or_none = |v: Option<u64>| v.map_or("none".to_string(), |v| v.to_string());
    let levels: Vec<String> = adm.levels.iter().map(|l| l.to_string()).collect();
    out.digest = phase_digest(&run.report, true, None);
    out.digest.push(format!(
        "admission windows={} engages={} releases={} shed={} first_engage={} last_release={} \
         levels={}",
        adm.windows,
        adm.engages(),
        adm.releases(),
        adm.shed,
        or_none(first_engage_at),
        or_none(last_release_at),
        levels.join("/"),
    ));
    out.digest.push(format!(
        "control shed={} decisions={} windows={}",
        control_adm.shed,
        control_adm.decisions.len(),
        control_adm.windows,
    ));
    out.digest.push(slo_digest);
    out.gates = vec![
        Gate::new(
            "engaged",
            engaged,
            "controller engages on the sick worker and sheds",
            format!("engage on worker {DEGRADED}: {engaged}, shed {}", adm.shed),
        ),
        Gate::new(
            "bounded_engage",
            bounded_engage,
            format!(
                "first engage within {} requests of onset {onset}; 0 healthy engages in quick mode",
                engage_bound(&ac)
            ),
            format!("first_engage_at {first_engage_at:?}, healthy engages {healthy_engages}"),
        ),
        p999_gate,
        exactly_once_gate(&passes),
        Gate::new(
            "shed_agrees",
            shed_agrees,
            "shed accounting agrees (report / counter / queues / events)",
            format!(
                "report {}, counter {shed_counter}, shed_away {shed_away}, \
                 events {engage_events}/{release_events} vs {}/{}",
                adm.shed,
                adm.engages(),
                adm.releases(),
            ),
        ),
        Gate::new(
            "disengaged",
            disengaged,
            format!(
                "levels back to zero within {} requests of fault end {fault_end}",
                disengage_bound(&ac)
            ),
            format!("levels {:?}, last_release_at {last_release_at:?}", adm.levels),
        ),
        Gate::new(
            "no_false_positive",
            no_false_positive,
            "healthy control run sheds nothing and decides nothing",
            format!(
                "control shed {}, decisions {}, levels {:?}",
                control_adm.shed,
                control_adm.decisions.len(),
                control_adm.levels
            ),
        ),
    ];
    out.seal(format!(
        "{} errors={errors} engaged={engaged} bounded_engage={bounded_engage} \
         p999_ok={p999_ok} shed_agrees={shed_agrees} disengaged={disengaged} \
         no_false_positive={no_false_positive}",
        run.completion(),
    ));
    out.telemetry = Some(run.report.telemetry);
}

/// Build a store and its shadow map from `keys` (value = first-seen
/// position, deduplicated through the map so store and shadow agree by
/// construction).
fn build_with_shadow(keys: &[Vec<u8>]) -> (HopeStore, BTreeMap<Vec<u8>, u64>) {
    let mut shadow = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        shadow.entry(k.clone()).or_insert(i as u64);
    }
    let cfg = StoreConfig { min_observed_bytes: 512, ..serving_store_config() };
    let pairs = shadow.iter().map(|(k, v)| (k.clone(), *v));
    (HopeStore::build(cfg, pairs).expect("store build"), shadow)
}

/// `snapshot` (a) frozen equality: take a snapshot, churn the live store
/// hard (the workload's inserts plus forced hot-swaps round-robin over
/// the shards), then audit the snapshot against the shadow map of the
/// capture instant. Returns the digest line and the gate.
fn frozen(workload: &MixedWorkload) -> (String, Gate) {
    let (store, shadow) = build_with_shadow(&workload.initial);
    let shards = store.config().shards;
    let snap = store.snapshot();

    // One churn op in `swap_every` forces a shard hot-swap: every 64th in
    // quick runs, capped at ~200 swaps total on full-size runs (each swap
    // re-encodes a whole shard; the gate needs swaps *present under the
    // open snapshot*, not thousands of them).
    let swap_every = (workload.ops.len() / 200).max(64);
    let (mut churn_swaps, mut churned) = (0u64, Vec::new());
    for (i, op) in workload.ops.iter().enumerate() {
        if i.is_multiple_of(swap_every) {
            store.force_rebuild(i / swap_every % shards).expect("forced rebuild");
            churn_swaps += 1;
        } else if let StoreOp::Insert(k, v) = op {
            store.insert(k.clone(), *v).expect("insert");
            churned.push(k);
        }
    }

    // Full-range sweep (inclusive bounds = the shadow's own extremes):
    // byte-for-byte the capture instant.
    let want: Vec<(Vec<u8>, u64)> = shadow.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let (low, high) = (&want.first().expect("non-empty").0, &want.last().expect("non-empty").0);
    let mut got = Vec::new();
    snap.range_into(low, high, usize::MAX, &mut got).expect("snapshot range");
    let range_equal = got == want && snap.len() == shadow.len();

    // Every key the churn touched reads as the shadow says — updated
    // keys show the pre-churn value, post-capture keys are invisible.
    let (mut points_equal, mut invisible) = (true, true);
    for k in &churned {
        let seen = snap.get(k).expect("snapshot get");
        points_equal &= seen == shadow.get(*k).copied();
        invisible &= shadow.contains_key(*k) || seen.is_none();
    }

    let open = store.telemetry();
    drop(snap);
    let closed = store.telemetry();
    let lifecycle = open.counter("store.snapshot.taken") == Some(1)
        && open.gauge("store.snapshot.active") == Some(1)
        && closed.counter("store.snapshot.dropped") == Some(1)
        && closed.gauge("store.snapshot.active") == Some(0);

    let fields = format!(
        "range_equal={range_equal} points_equal={points_equal} invisible={invisible} \
         lifecycle={lifecycle}"
    );
    let digest = format!(
        "frozen keys={} churn_inserts={} churn_swaps={churn_swaps} {fields}",
        shadow.len(),
        churned.len(),
    );
    let gate = Gate::new(
        "frozen",
        range_equal && points_equal && invisible && lifecycle,
        "snapshot equals the shadow map of the capture instant; lifecycle counters balance",
        fields,
    );
    (digest, gate)
}

/// `snapshot` (b) flat capture: interleaved `snapshot()` trials on a
/// small and a [`SIZE_FACTOR`]×-larger store. Wall clock by nature: only
/// the sizes and the boolean reach the digest.
fn capture(workload: &MixedWorkload, cfg: &BenchConfig) -> (String, Gate) {
    let cap = workload.initial.len();
    let small_n = (cfg.keys / SIZE_FACTOR).clamp(1_000.min(cap), cap);
    let (small, _) = build_with_shadow(&workload.initial[..small_n]);
    let (large, _) = build_with_shadow(&workload.initial);
    let time_capture = |store: &HopeStore| {
        let t0 = Instant::now();
        let snap = store.snapshot();
        let ns = t0.elapsed().as_nanos() as u64;
        drop(snap);
        ns
    };
    let (mut small_ns, mut large_ns) = (Vec::new(), Vec::new());
    for _ in 0..LATENCY_TRIALS {
        small_ns.push(time_capture(&small));
        large_ns.push(time_capture(&large));
    }
    let median = |mut ns: Vec<u64>| *ns.select_nth_unstable(LATENCY_TRIALS / 2).1;
    let (small_med, large_med) = (median(small_ns), median(large_ns));
    let ratio = large_med as f64 / small_med.max(1) as f64;
    let flat = ratio <= LATENCY_FLAT_RATIO;
    let digest =
        format!("capture small_keys={} large_keys={} flat={flat}", small.len(), large.len());
    let gate = Gate::new(
        "latency_flat",
        flat,
        format!("median snapshot() latency on {SIZE_FACTOR}x the keys <= {LATENCY_FLAT_RATIO}x"),
        format!(
            "{} keys -> {small_med} ns, {} keys -> {large_med} ns (ratio {ratio:.2})",
            small.len(),
            large.len()
        ),
    );
    (digest, gate)
}

/// `snapshot` (c) keep-or-replace rebuild: apply localized drift — value
/// updates plus a trickle of sibling keys ending in bytes the dictionary
/// has never seen, all confined to the bottom decile of the sorted
/// keyspace (one shard's range) — then force-rebuild every shard and sum
/// the swap reports' accounting. The shards outside the drifted range
/// see no traffic, so they keep the store's dictionary and reload 100%
/// of their encoded bytes without an encode call. Only the drifted shard
/// trains a replacement and pays a re-encode, which is what keeps the
/// overall re-encoded fraction under the gate.
fn rebuild(workload: &MixedWorkload, notes: &mut Vec<String>) -> (String, Gate) {
    let (store, mut shadow) = build_with_shadow(&workload.initial);
    let mut prefix: Vec<Vec<u8>> = shadow.keys().cloned().collect();
    prefix.truncate(shadow.len() / DRIFT_PREFIX_DENOM);
    for (i, k) in prefix.iter().enumerate() {
        if i.is_multiple_of(DRIFT_UPDATE_EVERY) {
            store.insert(k.clone(), u64::MAX - i as u64).expect("drift update");
            shadow.insert(k.clone(), u64::MAX - i as u64);
        }
        if i.is_multiple_of(DRIFT_NEW_EVERY) {
            let mut sib = k.clone();
            sib.extend((0..DRIFT_SUFFIX_LEN).map(|j| 0x80 | (i * 31 + j * 7) as u8));
            store.insert(sib.clone(), i as u64).expect("drift insert");
            shadow.insert(sib, i as u64);
        }
    }

    let (mut incremental, mut reused, mut reencoded) = (0u64, 0u64, 0u64);
    let shards = store.config().shards;
    for s in 0..shards {
        let r = store.force_rebuild(s).expect("forced rebuild");
        incremental += u64::from(r.incremental);
        reused += r.reused_bytes;
        reencoded += r.reencoded_bytes;
        notes.push(format!("# rebuild {r:?}"));
    }
    let frac = reencoded as f64 / (reused + reencoded).max(1) as f64;
    // The rebuilt store still answers every key (sampled).
    let contents =
        shadow.iter().step_by(7).all(|(k, v)| store.get(k).expect("post-rebuild get") == Some(*v));

    let full = shards as u64 - incremental;
    let digest = format!(
        "rebuild shards={shards} incremental={incremental} full={full} reused={reused} \
         reencoded={reencoded} frac={frac:.4} contents={contents}"
    );
    let gate = Gate::new(
        "rebuild",
        incremental >= 1 && full >= 1 && frac < MAX_REENCODED_FRAC && contents,
        format!(
            ">= 1 incremental and >= 1 full swap, re-encoded fraction < {MAX_REENCODED_FRAC}, \
             contents preserved"
        ),
        format!("incremental={incremental} full={full} frac={frac:.4} contents={contents}"),
    );
    (digest, gate)
}

fn snapshot(cfg: &BenchConfig, out: &mut ScenarioReport) {
    let workload = &workload(cfg, 10, out);
    let (frozen_digest, frozen_gate) = frozen(workload);
    let (capture_digest, capture_gate) = capture(workload, cfg);
    let (rebuild_digest, rebuild_gate) = rebuild(workload, &mut out.notes);

    // (d) exactly-once: the three-phase drill with every other range
    // scan submitted as a point-in-time `SnapshotScan`; the maintenance
    // passes hot-swap under live snapshot scans.
    let scans = AtomicU64::new(0);
    let request = |op: &StoreOp| match op {
        StoreOp::Scan(low, high, limit) if scans.fetch_add(1, Ordering::Relaxed) % 2 == 1 => {
            Request::snapshot_scan(low.clone(), high.clone(), *limit)
        }
        other => to_request(other),
    };
    let pass = run_pass(workload, &PassSpec { request: &request, ..PassSpec::standard(cfg.quick) });
    let snap_scans = scans.load(Ordering::Relaxed) / 2;
    let snap = &pass.report.telemetry;
    let taken = snap.counter("store.snapshot.taken").unwrap_or(0);
    let dropped = snap.counter("store.snapshot.dropped").unwrap_or(0);
    let active = snap.gauge("store.snapshot.active").unwrap_or(0);
    let errors = pass.errors();
    let lifecycle =
        format!("snap_scans={snap_scans} taken={taken} dropped={dropped} active={active}");

    out.notes.extend(pass.notes());
    out.digest = phase_digest(&pass.report, true, None);
    out.digest.extend([frozen_digest, rebuild_digest, capture_digest]);
    out.digest.push(format!("serving {} {lifecycle} errors={errors}", pass.completion()));
    out.gates = vec![
        frozen_gate,
        capture_gate,
        rebuild_gate,
        exactly_once_gate(&[("run", &pass)]),
        Gate::new(
            "snap_balanced",
            taken == snap_scans && dropped == taken && active == 0,
            "snapshots taken == dropped == snapshot scans, active gauge 0",
            lifecycle,
        ),
    ];
    out.seal_with_verdicts();
    out.telemetry = Some(pass.report.telemetry);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Vec<&'static str>, BenchConfig), String> {
        let cfg = BenchConfig::parse(args.iter().map(|a| a.to_string()))?;
        Ok((SCENARIOS.select(&cfg.rows)?.iter().map(|r| r.name).collect(), cfg))
    }

    #[test]
    fn drill_arguments_select_scenarios_and_reject_typos() {
        let (all, cfg) = parse(&["--quick"]).unwrap();
        assert_eq!(all, ["slo", "telemetry", "faults", "adaptive", "snapshot"]);
        assert_eq!(cfg.out, None);
        let (two, cfg) = parse(&["snapshot", "--out", "x.json", "slo", "--seed", "7"]).unwrap();
        assert_eq!(
            (two, cfg.out.as_deref(), cfg.seed),
            (vec!["snapshot", "slo"], Some("x.json"), 7)
        );

        assert_eq!(parse(&["nosuch"]).err().unwrap(), "unknown row `nosuch`");
        assert_eq!(parse(&["--sead", "7"]).err().unwrap(), "unknown flag `--sead`");
        assert_eq!(parse(&["slo", "--out"]).err().unwrap(), "--out needs a value");
        assert_eq!(parse(&["--keys"]).err().unwrap(), "--keys needs a value");
        assert!(SCENARIOS.usage().starts_with("drill [slo|telemetry|faults|adaptive|snapshot …]"));
    }
}
