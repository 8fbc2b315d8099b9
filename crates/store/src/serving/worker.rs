//! The serving worker loop: drain one queue in batches, execute against
//! the store, account latency per phase, complete tickets.
//!
//! Workers also carry the sampled-tracing hook: when
//! [`ServingConfig::trace_sample_every`](super::ServingConfig) is `N > 0`,
//! every Nth request a worker executes runs on the store's traced probe
//! paths and its queue-wait / encode / probe / decode spans land in the
//! `serving.trace.*` histograms of the store's telemetry registry. The
//! untraced path is untouched — disabled tracing costs one predictable
//! branch per request.
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
use super::{virtual_cost, Envelope, Request, Response, ScanSummary, Shared};
use crate::telemetry::{Histo, LatencyHistogram, ProbeSpans, TraceSampler};

/// Per-phase accumulator one worker keeps (merged at shutdown).
#[derive(Debug)]
pub(crate) struct PhaseAccum {
    pub ops: u64,
    pub gets: u64,
    pub inserts: u64,
    pub scans: u64,
    pub scan_hits: u64,
    pub errors: u64,
    pub latency: LatencyHistogram,
    pub busy_ns: u64,
}

impl PhaseAccum {
    fn new() -> Self {
        PhaseAccum {
            ops: 0,
            gets: 0,
            inserts: 0,
            scans: 0,
            scan_hits: 0,
            errors: 0,
            latency: LatencyHistogram::new(),
            busy_ns: 0,
        }
    }
}

/// What one worker hands back when it exits.
#[derive(Debug)]
pub(crate) struct WorkerOutput {
    pub phases: Vec<PhaseAccum>,
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

/// Execute one request against the store.
fn execute<V: Value>(shared: &Shared<V>, req: Request<V>) -> Response<V> {
    match req {
        Request::Get { key } => match shared.store.get(&key) {
            Ok(v) => Response::Get(v),
            Err(e) => Response::Error(e),
        },
        Request::Insert { key, value } => match shared.store.insert(key, value) {
            Ok(prev) => Response::Insert(prev),
            Err(e) => Response::Error(e),
        },
        Request::Scan { low, high, limit } => {
            let mut cur = match shared.store.cursor(&low, &high, limit) {
                Ok(c) => c,
                Err(e) => return Response::Error(e),
            };
            let mut summary = ScanSummary::default();
            while let Some((k, _v)) = cur.next_hit() {
                summary.hits += 1;
                summary.key_bytes += k.len() as u64;
                if let Some(e) = cur.hit_epoch() {
                    summary.note_epoch(e);
                }
            }
            match cur.error() {
                Some(e) => Response::Error(e.clone()),
                None => Response::Scan(summary),
            }
        }
        Request::SnapshotScan { low, high, limit } => {
            // The capture pins every shard at one instant; the cursor
            // then reads that instant no matter what swaps or writes
            // land mid-scan (its epochs are the *pinned* generations').
            let snap = shared.store.snapshot();
            let mut cur = match snap.cursor(&low, &high, limit) {
                Ok(c) => c,
                Err(e) => return Response::Error(e),
            };
            let mut summary = ScanSummary::default();
            while let Some((k, _v)) = cur.next_hit() {
                summary.hits += 1;
                summary.key_bytes += k.len() as u64;
                if let Some(e) = cur.hit_epoch() {
                    summary.note_epoch(e);
                }
            }
            match cur.error() {
                Some(e) => Response::Error(e.clone()),
                None => Response::Scan(summary),
            }
        }
    }
}

/// [`execute`] on the store's span-timed paths. For scans, the probe span
/// is the time to the first hit (bound encode + index descent) and the
/// decode span is the remainder of the pull loop.
fn execute_traced<V: Value>(
    shared: &Shared<V>,
    req: Request<V>,
) -> (Response<V>, Option<ProbeSpans>) {
    match req {
        Request::Get { key } => match shared.store.get_traced(&key) {
            Ok((v, spans)) => (Response::Get(v), Some(spans)),
            Err(e) => (Response::Error(e), None),
        },
        Request::Insert { key, value } => match shared.store.insert_traced(key, value) {
            Ok((prev, spans)) => (Response::Insert(prev), Some(spans)),
            Err(e) => (Response::Error(e), None),
        },
        Request::Scan { low, high, limit } => {
            let probe_started = Instant::now();
            let mut cur = match shared.store.cursor(&low, &high, limit) {
                Ok(c) => c,
                Err(e) => return (Response::Error(e), None),
            };
            let mut summary = ScanSummary::default();
            let mut probe_ns = 0u64;
            let mut pull_started: Option<Instant> = None;
            while let Some((k, _v)) = cur.next_hit() {
                if summary.hits == 0 {
                    probe_ns = probe_started.elapsed().as_nanos() as u64;
                    pull_started = Some(Instant::now());
                }
                summary.hits += 1;
                summary.key_bytes += k.len() as u64;
                if let Some(e) = cur.hit_epoch() {
                    summary.note_epoch(e);
                }
            }
            if summary.hits == 0 {
                probe_ns = probe_started.elapsed().as_nanos() as u64;
            }
            let decode_ns = pull_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let spans = ProbeSpans { encode_ns: 0, probe_ns, decode_ns };
            match cur.error() {
                Some(e) => (Response::Error(e.clone()), None),
                None => (Response::Scan(summary), Some(spans)),
            }
        }
        Request::SnapshotScan { low, high, limit } => {
            // Probe span = snapshot capture + bound encode + descent to
            // the first hit; decode span = the rest of the pull loop —
            // the same split as a plain traced scan, with the capture
            // charged to the probe.
            let probe_started = Instant::now();
            let snap = shared.store.snapshot();
            let mut cur = match snap.cursor(&low, &high, limit) {
                Ok(c) => c,
                Err(e) => return (Response::Error(e), None),
            };
            let mut summary = ScanSummary::default();
            let mut probe_ns = 0u64;
            let mut pull_started: Option<Instant> = None;
            while let Some((k, _v)) = cur.next_hit() {
                if summary.hits == 0 {
                    probe_ns = probe_started.elapsed().as_nanos() as u64;
                    pull_started = Some(Instant::now());
                }
                summary.hits += 1;
                summary.key_bytes += k.len() as u64;
                if let Some(e) = cur.hit_epoch() {
                    summary.note_epoch(e);
                }
            }
            if summary.hits == 0 {
                probe_ns = probe_started.elapsed().as_nanos() as u64;
            }
            let decode_ns = pull_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
            let spans = ProbeSpans { encode_ns: 0, probe_ns, decode_ns };
            match cur.error() {
                Some(e) => (Response::Error(e.clone()), None),
                None => (Response::Scan(summary), Some(spans)),
            }
        }
    }
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
    let mut phases: Vec<PhaseAccum> = (0..cfg.phases).map(|_| PhaseAccum::new()).collect();
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
            let (latency_ns, service_ns) = if cfg.virtual_time {
                let cost = virtual_cost(&env.req) * action.slow_factor.max(1) + action.extra_ns();
                let spans = run_one(&shared, env.req, env.ticket, acc, traced);
                record_trace(&trace, queue_wait_ns, spans);
                (cost, cost)
            } else {
                let started = Instant::now();
                let spans = run_one(&shared, env.req, env.ticket, acc, traced);
                record_trace(&trace, queue_wait_ns, spans);
                let executed = started.elapsed().as_nanos() as u64;
                let penalty =
                    executed.saturating_mul(action.slow_factor.max(1) - 1) + action.extra_ns();
                if penalty > 0 {
                    inject_wall_delay(penalty);
                }
                let service = started.elapsed().as_nanos() as u64;
                let total = env.enqueued_at.map_or(service, |t| t.elapsed().as_nanos() as u64);
                (total, service)
            };
            acc.ops += 1;
            acc.busy_ns += service_ns;
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

/// Execute (traced or not), tally, complete — one request end to end.
fn run_one<V: Value>(
    shared: &Shared<V>,
    req: Request<V>,
    ticket: Option<Arc<super::TicketState<V>>>,
    acc: &mut PhaseAccum,
    traced: bool,
) -> Option<ProbeSpans> {
    let (resp, spans) =
        if traced { execute_traced(shared, req) } else { (execute(shared, req), None) };
    finish(ticket, resp, acc);
    spans
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

/// Tally the response kind and complete the ticket (if any).
fn finish<V: Value>(
    ticket: Option<Arc<super::TicketState<V>>>,
    resp: Response<V>,
    acc: &mut PhaseAccum,
) {
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
}
