//! The serving worker loop: drain one queue in batches, run each request
//! through one executor, account latency per phase, complete tickets.
//!
//! Sampled tracing is the same executor with a different span recorder:
//! when [`ServingConfig::trace_sample_every`](super::ServingConfig) is
//! `N > 0`, every Nth request a worker executes runs with the store's
//! stopwatch where the others run with the no-op `()` recorder, and its
//! encode / probe / decode spans (plus its queue wait, in wall mode) land
//! in the `serving.trace.*` histograms of the store's telemetry registry.
//! A point op's spans are the store's own (encode, then index probe); a
//! scan's probe span runs to its first hit (snapshot capture, bound
//! encode and descent) and its decode span over the rest of the pull
//! loop. A request that ends in an error records no spans. Untraced
//! requests pay one predictable branch.
//!
//! Fault injection rides the same loop: when the config carries a
//! [`FaultPlan`](super::FaultPlan) with serving-side faults, each request
//! asks the plan for its [`FaultAction`](super::FaultAction) — a pure
//! function of `(worker, request index, phase)`. In virtual mode the
//! action scales and pads the deterministic cost (byte-identical across
//! runs); in wall mode the worker actually waits the injected time out,
//! so wall-clock SLO gates see real degradation.

use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use hope::Value;

use super::faults::FaultTally;
use super::{
    virtual_cost, Envelope, PhaseStats, Request, Response, ScanSummary, Shared, TicketState,
};
use crate::cursor::RangeCursor;
use crate::error::StoreError;
use crate::telemetry::{Histo, ProbeSpans, SpanRecorder, Stopwatch, TraceSampler};

/// What one worker hands back when it exits: its own totals per phase
/// (merged into the report at shutdown) and the faults it injected.
#[derive(Debug)]
pub(crate) struct WorkerOutput {
    pub phases: Vec<PhaseStats>,
    pub faults: FaultTally,
}

/// The `serving.trace.*` span histograms (resolved once per worker).
#[derive(Debug)]
struct TraceHistos {
    queue_wait: Histo,
    encode: Histo,
    probe: Histo,
    decode: Histo,
}

/// Execute one request against the store, timing its stages with `S`
/// (`()` untraced, a stopwatch when sampled). Point ops go straight to
/// the shard's span-generic paths; both scan kinds pull through
/// [`drain`].
fn execute<V: Value, S: SpanRecorder>(
    shared: &Shared<V>,
    req: Request<V>,
) -> Result<(Response<V>, S), StoreError> {
    let store = &shared.store;
    Ok(match req {
        Request::Get { key } => {
            let (v, spans) = store.shard_ref(store.route(&key)).get_with::<S, _>(&key, V::clone)?;
            (Response::Get(v), spans)
        }
        Request::Insert { key, value } => {
            let (prev, spans) = store.shard_ref(store.route(&key)).insert::<S>(&key, value)?;
            (Response::Insert(prev), spans)
        }
        Request::Scan { low, high, limit } => {
            let spans = S::start();
            drain(store.cursor(&low, &high, limit)?, spans)?
        }
        Request::SnapshotScan { low, high, limit } => {
            // The capture pins every shard at one instant; the cursor
            // then reads that instant no matter what swaps or writes
            // land mid-scan (its epochs are the *pinned* generations').
            // The capture is charged to the probe span.
            let spans = S::start();
            let snap = store.snapshot();
            drain(snap.cursor(&low, &high, limit)?, spans)?
        }
    })
}

/// Pull a scan's cursor dry into a [`ScanSummary`]. The probe span ends
/// at the first hit (or at the end of an empty scan); the decode span is
/// the rest of the pull loop.
fn drain<V: Value, S: SpanRecorder>(
    mut cur: RangeCursor<'_, V>,
    mut spans: S,
) -> Result<(Response<V>, S), StoreError> {
    let mut summary = ScanSummary::default();
    while let Some((k, _v)) = cur.next_hit() {
        if summary.hits == 0 {
            spans.probed();
        }
        summary.hits += 1;
        summary.key_bytes += k.len() as u64;
        if let Some(e) = cur.hit_epoch() {
            summary.note_epoch(e);
        }
    }
    if summary.hits == 0 {
        spans.probed();
    } else {
        spans.decoded();
    }
    match cur.error() {
        Some(e) => Err(e.clone()),
        None => Ok((Response::Scan(summary), spans)),
    }
}

/// Execute one request with span recorder `S`, tally its response into
/// the phase totals and complete its ticket (if any). The recorder comes
/// back only for a request that succeeded.
fn serve<V: Value, S: SpanRecorder>(
    shared: &Shared<V>,
    req: Request<V>,
    ticket: Option<Arc<TicketState<V>>>,
    acc: &mut PhaseStats,
) -> Option<S> {
    let (resp, spans) = match execute::<V, S>(shared, req) {
        Ok((resp, spans)) => (resp, Some(spans)),
        Err(e) => (Response::Error(e), None),
    };
    match &resp {
        Response::Get(_) => acc.gets += 1,
        Response::Insert(_) => acc.inserts += 1,
        Response::Scan(s) => {
            acc.scans += 1;
            acc.scan_hits += s.hits as u64;
        }
        Response::Error(_) => acc.errors += 1,
        // `Response` is non_exhaustive for downstream crates; in-crate the
        // match is complete.
        #[allow(unreachable_patterns)]
        _ => {}
    }
    if let Some(t) = ticket {
        t.complete(resp);
    }
    spans
}

/// The worker thread body: worker `i` owns `shared.queues[i]`.
pub(crate) fn run<V: Value>(i: usize, shared: Arc<Shared<V>>) -> WorkerOutput {
    let cfg = shared.cfg;
    let tel = shared.store.telemetry_handle();
    let mut sampler = TraceSampler::new(cfg.trace_sample_every);
    let trace = sampler.is_enabled().then(|| TraceHistos {
        queue_wait: tel.registry().histo("serving.trace.queue_wait"),
        encode: tel.registry().histo("serving.trace.encode"),
        probe: tel.registry().histo("serving.trace.probe"),
        decode: tel.registry().histo("serving.trace.decode"),
    });
    // Fault decisions are made here, at execution, from the envelope's
    // admission index — not at admission — so a shed request is
    // still judged by the worker that *executes* it (the whole point of
    // shedding away from a degraded worker).
    let faults = cfg.faults.filter(|p| p.any_serving_faults());
    let mut tally = FaultTally::default();
    let mut phases: Vec<PhaseStats> = (0..cfg.phases).map(|_| PhaseStats::empty()).collect();
    let mut batch: Vec<Envelope<V>> = Vec::with_capacity(cfg.batch);
    // Wall-mode admission feedback: the controller's sensor is the real
    // *service* time of the requests this worker executed (execution +
    // injected penalties, queue wait excluded — under a saturating
    // producer queue wait measures arrival pressure, not worker health,
    // and would trip the loop on routing imbalance alone), fed back one
    // batch at a time (one controller lock per batch, not per request).
    // Virtual mode observes at admission instead — that path is
    // deterministic, this one is a live feedback loop.
    let feedback = (!cfg.virtual_time).then_some(()).and(shared.admission.as_ref());
    let mut observed: Vec<u64> = Vec::new();
    // `pop_batch` returns false only when the queue is closed *and*
    // drained, so every admitted request is executed — never dropped.
    while shared.queues[i].pop_batch(&mut batch, cfg.batch) {
        let n = batch.len() as u64;
        for env in batch.drain(..) {
            let acc = &mut phases[env.phase as usize];
            let traced = sampler.tick();
            let action = faults.map(|p| p.action(i, env.index, env.phase)).unwrap_or_default();
            tally.note(&action);
            // Queue wait is measured at dequeue, before execution eats
            // into it (wall mode only — virtual mode has no enqueue time).
            let queue_wait_ns =
                if traced { env.enqueued_at.map(|t| t.elapsed().as_nanos() as u64) } else { None };
            // Virtual mode: a request's cost is a pure function of the
            // request (virtual_cost) and the plan's action — deterministic
            // across runs. Wall mode: enqueue→completion, the latency a
            // client would see, with injected delays actually waited out.
            let cost = virtual_cost(&env.req);
            let started = (!cfg.virtual_time).then(Instant::now);
            let spans = if traced {
                serve::<V, Stopwatch>(&shared, env.req, env.ticket, acc).map(|w| w.spans)
            } else {
                serve::<V, ()>(&shared, env.req, env.ticket, acc);
                None
            };
            record_trace(&trace, queue_wait_ns, spans);
            let (latency_ns, service_ns) = match started {
                None => {
                    let charged = action.stretch(cost);
                    (charged, charged)
                }
                Some(started) => {
                    let executed = started.elapsed().as_nanos() as u64;
                    let penalty = action.stretch(executed) - executed;
                    if penalty > 0 {
                        inject_wall_delay(penalty);
                    }
                    let service = started.elapsed().as_nanos() as u64;
                    let total = env.enqueued_at.map_or(service, |t| t.elapsed().as_nanos() as u64);
                    (total, service)
                }
            };
            acc.ops += 1;
            acc.busy_ns_total += service_ns;
            // A worker's own phase total: its busiest worker is itself.
            acc.busy_ns_max = acc.busy_ns_total;
            acc.latency.record(latency_ns);
            if feedback.is_some() {
                observed.push(service_ns);
            }
        }
        if let Some(hook) = feedback {
            let mut ctl = hook.ctl.lock().unwrap_or_else(PoisonError::into_inner);
            for &ns in &observed {
                ctl.observe(i, ns);
            }
            drop(ctl);
            observed.clear();
        }
        shared.note_completed(n);
    }
    // Publish this worker's phase aggregates into the shared registry
    // (`serving.phase.{p}.*`) — the same numbers `shutdown` merges into
    // `ServingReport.phases`, but visible to mid-run snapshots too.
    let reg = tel.registry();
    for (p, acc) in phases.iter().enumerate() {
        if acc.ops == 0 {
            continue;
        }
        reg.counter(&format!("serving.phase.{p}.ops")).add(acc.ops);
        reg.counter(&format!("serving.phase.{p}.gets")).add(acc.gets);
        reg.counter(&format!("serving.phase.{p}.inserts")).add(acc.inserts);
        reg.counter(&format!("serving.phase.{p}.scans")).add(acc.scans);
        reg.counter(&format!("serving.phase.{p}.scan_hits")).add(acc.scan_hits);
        reg.counter(&format!("serving.phase.{p}.errors")).add(acc.errors);
        reg.histo(&format!("serving.phase.{p}.latency")).merge(&acc.latency);
    }
    if tally.total() > 0 {
        reg.counter("serving.fault.slowed").add(tally.slowed);
        reg.counter("serving.fault.stalled").add(tally.stalled);
        reg.counter("serving.fault.burst").add(tally.burst);
        reg.counter("serving.fault.spiked").add(tally.spiked);
    }
    WorkerOutput { phases, faults: tally }
}

/// Actually wait out an injected delay (wall mode). Short delays spin —
/// `thread::sleep` has ~50µs floor jitter that would swamp a 10µs spike —
/// long stalls sleep so a degraded worker doesn't burn a core.
fn inject_wall_delay(ns: u64) {
    if ns >= 1_000_000 {
        std::thread::sleep(Duration::from_nanos(ns));
    } else {
        let deadline = Instant::now() + Duration::from_nanos(ns);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }
}

/// Record one traced request's spans (no-op when tracing is off).
fn record_trace(
    trace: &Option<TraceHistos>,
    queue_wait_ns: Option<u64>,
    spans: Option<ProbeSpans>,
) {
    let Some(t) = trace else { return };
    if let Some(w) = queue_wait_ns {
        t.queue_wait.record(w);
    }
    if let Some(s) = spans {
        t.encode.record(s.encode_ns);
        t.probe.record(s.probe_ns);
        t.decode.record(s.decode_ns);
    }
}
