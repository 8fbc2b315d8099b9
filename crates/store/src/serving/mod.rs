//! # The serving harness: thread-per-core request pipelines with SLOs
//!
//! [`HopeStore`] is `Sync` — any thread may call it — but a store that
//! serves millions of users is not driven by "any thread": it is driven
//! by a fixed pool of core-pinned workers fed by bounded queues, because
//! that is the shape that makes tail latency *governable*. This module is
//! that shape, as a library:
//!
//! * **Thread-per-core workers with shard affinity** — [`Server::start`]
//!   spawns `workers` threads; every request is routed by its key's
//!   shard ([`HopeStore::shard_of`], i.e. by encoded-prefix range) to the
//!   worker owning that shard (`shard % workers`). Point writes for one
//!   shard therefore always execute on the same worker, so the shard's
//!   writer mutex is never contended and its cache lines stay put; scans
//!   route by their low bound and may read across shards (reads never
//!   block, so cross-worker reads are safe by construction).
//! * **Bounded queues with admission control** — each worker owns one
//!   [`queue::BoundedQueue`] of `queue_capacity` requests.
//!   [`Server::try_submit_detached`] *refuses* work beyond that budget
//!   and hands the request back ([`Rejected`]) instead of queueing
//!   unboundedly: under overload the system sheds load at the front door
//!   with a bounded worst-case queue wait, rather than melting down with
//!   seconds-deep queues. [`Server::submit`] (with a completion
//!   [`Ticket`]) and [`Server::submit_detached`] are the backpressure
//!   variants: they wait for space, admitting everything (what a
//!   deterministic benchmark driver wants). With an
//!   [`AdmissionConfig`], the controller may also send a request to a
//!   healthy peer instead of its degraded home worker.
//! * **Batched execution** — workers drain up to `batch` requests per
//!   queue lock round, amortizing synchronization, and run every request
//!   through one executor: gets/inserts on the store's zero-alloc probe
//!   paths, scans (live or snapshot) pulled through a
//!   [`RangeCursor`](crate::RangeCursor), recording the epoch of every
//!   generation they touch (the hot-swap torn-read check rides on this).
//!   A request sampled for tracing
//!   ([`ServingConfig::trace_sample_every`]) runs the same executor with
//!   a stopwatch and records its spans in `serving.trace.*`.
//! * **Tail-latency accounting** — per phase (the driver tags each
//!   request with a phase id), workers record latency into a
//!   [`LatencyHistogram`]: wall-clock enqueue→completion by
//!   default, or **virtual time** ([`ServingConfig::virtual_time`]) where
//!   each request costs a deterministic amount derived from the request
//!   alone ([`virtual_cost`]) — two runs over the same op sequence then
//!   produce byte-identical histograms, which is what lets CI gate on
//!   p99/p999 (`drill slo --quick`).
//!
//! ```
//! use std::sync::Arc;
//! use hope_store::prelude::*;
//! use hope_store::serving::{Request, Response, Server, ServingConfig};
//!
//! let pairs = (0..500u64).map(|i| (format!("com.gmail@u{i:04}").into_bytes(), i));
//! let store = Arc::new(HopeStore::build(StoreConfig::default(), pairs)?);
//! let server = Server::start(Arc::clone(&store), ServingConfig::default())?;
//!
//! let t = server.submit(Request::get(b"com.gmail@u0007".to_vec()), 0).unwrap();
//! assert!(matches!(t.wait(), Response::Get(Some(7))));
//! let t = server.submit(Request::scan(b"com.gmail@u0100".to_vec(),
//!                                     b"com.gmail@u0102".to_vec(), 10), 0).unwrap();
//! match t.wait() {
//!     Response::Scan(s) => assert_eq!(s.hits, 3),
//!     other => panic!("{other:?}"),
//! }
//! let report = server.shutdown();
//! assert_eq!(report.phases[0].ops, 2);
//! # Ok::<(), StoreError>(())
//! ```

pub mod admission;
pub mod faults;
pub mod queue;
mod worker;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use hope::Value;

use crate::error::StoreError;
use crate::HopeStore;

pub use crate::telemetry::LatencyHistogram;
pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionReport};
pub use faults::{FaultAction, FaultPlan, FaultTally};
pub use queue::{QueueCounters, QueueStats, RejectReason};

use crate::telemetry::{Counter, Event, EventKind, Gauge, Telemetry, TelemetrySnapshot};
use queue::BoundedQueue;

/// Serving-pipeline parameters ([`Server::start`]).
#[derive(Debug, Clone, Copy)]
pub struct ServingConfig {
    /// Worker threads; shards are owned `shard % workers` (≥ 1).
    pub workers: usize,
    /// Per-worker queue budget: requests beyond it are refused by
    /// [`Server::try_submit_detached`] and wait in [`Server::submit`]
    /// (≥ 1).
    pub queue_capacity: usize,
    /// Max requests a worker drains per queue lock round (≥ 1).
    pub batch: usize,
    /// Latency phases tracked (the driver tags requests; `1..=16`).
    pub phases: usize,
    /// Deterministic virtual-time latency accounting (see [`virtual_cost`])
    /// instead of wall-clock enqueue→completion.
    pub virtual_time: bool,
    /// Sampled request tracing: every Nth request per worker runs the
    /// same executor timed by a stopwatch and records its encode / probe
    /// / decode spans (and, in wall mode, its queue wait) into
    /// `serving.trace.*` histograms. `0` disables tracing (the default —
    /// the untraced hot path pays nothing).
    pub trace_sample_every: u32,
    /// Deterministic fault injection (see [`faults`]): per-worker
    /// slowdowns, stalls, spikes and queue-pressure bursts. `None` (the
    /// default) injects nothing and costs one branch per request.
    pub faults: Option<FaultPlan>,
    /// Closed-loop adaptive admission control (see [`admission`]): a
    /// per-worker controller watches windowed latency at admission,
    /// detects a degrading worker against its peers, and autonomously
    /// sheds a graduated fraction of its traffic to healthy workers —
    /// the only path that moves a request off its home worker. `None`
    /// (the default) disables the loop entirely.
    pub admission: Option<AdmissionConfig>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            workers: 4,
            queue_capacity: 1024,
            batch: 64,
            phases: 1,
            virtual_time: false,
            trace_sample_every: 0,
            faults: None,
            admission: None,
        }
    }
}

/// One serving request. Keys are owned (they cross a thread boundary).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Request<V: Value = u64> {
    /// Point lookup.
    Get {
        /// Source key to look up.
        key: Vec<u8>,
    },
    /// Insert or update.
    Insert {
        /// Source key to write.
        key: Vec<u8>,
        /// Value to store.
        value: V,
    },
    /// Bounded inclusive range scan, executed through a pull cursor.
    Scan {
        /// Inclusive low bound.
        low: Vec<u8>,
        /// Inclusive high bound.
        high: Vec<u8>,
        /// Max hits returned.
        limit: usize,
    },
    /// Bounded inclusive range scan over a point-in-time
    /// [`Snapshot`](crate::versioned::Snapshot) the worker captures at
    /// execution start — the serving-side face of the store's O(1)
    /// copy-on-write snapshots. Unlike [`Request::Scan`], concurrent
    /// writes and dictionary swaps are invisible for the whole scan, in
    /// every shard.
    SnapshotScan {
        /// Inclusive low bound.
        low: Vec<u8>,
        /// Inclusive high bound.
        high: Vec<u8>,
        /// Max hits returned.
        limit: usize,
    },
}

impl<V: Value> Request<V> {
    /// Point-lookup request.
    pub fn get(key: Vec<u8>) -> Self {
        Request::Get { key }
    }

    /// Insert/update request.
    pub fn insert(key: Vec<u8>, value: V) -> Self {
        Request::Insert { key, value }
    }

    /// Range-scan request.
    pub fn scan(low: Vec<u8>, high: Vec<u8>, limit: usize) -> Self {
        Request::Scan { low, high, limit }
    }

    /// Snapshot-pinned range-scan request.
    pub fn snapshot_scan(low: Vec<u8>, high: Vec<u8>, limit: usize) -> Self {
        Request::SnapshotScan { low, high, limit }
    }

    /// The key this request routes on (scans route by their low bound).
    pub fn routing_key(&self) -> &[u8] {
        match self {
            Request::Get { key } | Request::Insert { key, .. } => key,
            Request::Scan { low, .. } | Request::SnapshotScan { low, .. } => low,
        }
    }
}

/// What a scan executed by a worker observed (hit payloads are consumed
/// by the worker; the driver-side summary is what SLO checks need).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScanSummary {
    /// Hits emitted (≤ the request's limit).
    pub hits: usize,
    /// Source-key bytes across all hits.
    pub key_bytes: u64,
    /// Epochs of the generations that served hits, in shard order,
    /// consecutive duplicates collapsed. A scan that reads S shards must
    /// observe at most S epochs — one per shard — or a hot-swap tore it
    /// (the `store_swap` harness test asserts exactly this).
    pub epochs: Vec<u64>,
}

impl ScanSummary {
    /// Record the epoch of the generation that served the next hit,
    /// collapsing consecutive duplicates — the invariant-preserving way
    /// to grow [`epochs`](ScanSummary::epochs): a cursor pins one
    /// generation per shard, so a well-formed scan notes at most one
    /// epoch per shard it touches, in shard order.
    pub fn note_epoch(&mut self, epoch: u64) {
        if self.epochs.last() != Some(&epoch) {
            self.epochs.push(epoch);
        }
    }
}

/// A completed request's result.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Response<V: Value = u64> {
    /// Result of a [`Request::Get`].
    Get(Option<V>),
    /// Previous value replaced by a [`Request::Insert`].
    Insert(Option<V>),
    /// Summary of a [`Request::Scan`] or [`Request::SnapshotScan`].
    Scan(ScanSummary),
    /// The store refused the operation (codec validation and the like).
    Error(StoreError),
}

/// A request refused at admission; the request comes back to the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejected<V: Value = u64> {
    /// The refused request, returned intact for retry or shedding.
    pub request: Request<V>,
    /// Why it was refused.
    pub reason: RejectReason,
}

/// Completion handle for one admitted request. Every admitted request is
/// completed exactly once — including requests still queued at
/// [`Server::shutdown`], which are drained, not dropped.
#[derive(Debug)]
pub struct Ticket<V: Value = u64>(Arc<TicketState<V>>);

#[derive(Debug)]
pub(crate) struct TicketState<V: Value> {
    slot: Mutex<Option<Response<V>>>,
    done: Condvar,
}

impl<V: Value> TicketState<V> {
    fn new() -> Arc<Self> {
        Arc::new(TicketState { slot: Mutex::new(None), done: Condvar::new() })
    }

    pub(crate) fn complete(&self, resp: Response<V>) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(slot.is_none(), "a request completed twice");
        *slot = Some(resp);
        self.done.notify_all();
    }
}

impl<V: Value> Ticket<V> {
    /// Block until the request completes and take its response.
    pub fn wait(self) -> Response<V> {
        let mut slot = self.0.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(resp) = slot.take() {
                return resp;
            }
            slot = self.0.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// True once the request has completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.0.slot.lock().unwrap_or_else(PoisonError::into_inner).is_some()
    }
}

/// One queued request with its accounting envelope.
#[derive(Debug)]
pub(crate) struct Envelope<V: Value> {
    pub req: Request<V>,
    pub phase: u8,
    /// Admission ticket number (the order requests were admitted in) —
    /// the request index every [`FaultPlan`] decision keys on. With a
    /// single submitter it equals the stream position, which is what
    /// makes fault injection byte-deterministic across runs.
    pub index: u64,
    /// Wall-mode latency starts at admission.
    pub enqueued_at: Option<Instant>,
    pub ticket: Option<Arc<TicketState<V>>>,
}

/// Deterministic virtual service cost of a request, in nanoseconds.
///
/// A pure function of the request itself (key lengths and the scan
/// limit — deliberately *not* the scan's actual hit count, which could
/// differ across interleavings): over a fixed op sequence, every run
/// records byte-identical latency histograms regardless of scheduling.
/// The constants are scaled to the repo's measured microbench costs
/// (the whole-store benchmark's `cursor.pull_hit_ns`: ~220 ns per pulled
/// hit, sub-µs probes).
pub fn virtual_cost<V: Value>(req: &Request<V>) -> u64 {
    match req {
        Request::Get { key } => 150 + 2 * key.len() as u64,
        Request::Insert { key, .. } => 250 + 3 * key.len() as u64,
        Request::Scan { low, high, limit } => {
            400 + 2 * (low.len() + high.len()) as u64 + 220 * (*limit).min(256) as u64
        }
        // The snapshot capture itself is O(shards) — a small flat
        // surcharge over a plain scan of the same shape.
        Request::SnapshotScan { low, high, limit } => {
            600 + 2 * (low.len() + high.len()) as u64 + 220 * (*limit).min(256) as u64
        }
    }
}

/// The admission controller plus its telemetry handles, as wired into
/// [`Shared`]. The controller itself lives behind a mutex: admission
/// takes it once per request (the fast path is a window check), workers
/// take it once per *batch* in wall mode to feed observations.
#[derive(Debug)]
pub(crate) struct AdmissionHook {
    pub ctl: Mutex<AdmissionController>,
    /// `serving.admission.engage` — shed-level raises.
    engage: Counter,
    /// `serving.admission.release` — shed-level drops.
    release: Counter,
    /// `serving.admission.shed` — requests the controller sent to a peer.
    shed: Counter,
    /// `serving.admission.windows` — windows sealed (controller clock).
    windows: Gauge,
    /// `serving.admission.level.{w}` — current shed level per worker.
    levels: Vec<Gauge>,
}

impl AdmissionHook {
    /// Mirror one controller decision into the metrics registry and the
    /// event ring — every autonomous shed-level change is attributable
    /// from telemetry alone, exactly like injected faults are.
    fn note_decision(&self, d: &AdmissionDecision, tel: &Telemetry) {
        let kind =
            if d.is_engage() { EventKind::AdmissionEngage } else { EventKind::AdmissionRelease };
        if d.is_engage() {
            self.engage.inc();
        } else {
            self.release.inc();
        }
        self.levels[d.worker].set(u64::from(d.to_pct));
        tel.events().record(Event {
            kind,
            shard: d.worker as u32,
            prev_epoch: u64::from(d.from_pct),
            epoch: u64::from(d.to_pct),
            keys: d.window,
            bytes: d.ratio_x1000,
            ..Event::default()
        });
    }
}

/// State shared between the submitters and the worker threads.
#[derive(Debug)]
pub(crate) struct Shared<V: Value> {
    pub store: Arc<HopeStore<V>>,
    pub queues: Vec<BoundedQueue<Envelope<V>>>,
    pub cfg: ServingConfig,
    /// Closed-loop admission control, when configured.
    pub admission: Option<AdmissionHook>,
    /// Requests admitted (incremented before the push so `completed`
    /// can never observably exceed it).
    admitted: AtomicU64,
    /// Requests fully executed and completed.
    completed: AtomicU64,
    flush_lock: Mutex<()>,
    flush_cv: Condvar,
}

impl<V: Value> Shared<V> {
    pub(crate) fn note_completed(&self, n: u64) {
        self.completed.fetch_add(n, Ordering::Release);
        self.flush_cv.notify_all();
    }
}

/// Aggregated per-phase serving statistics (see [`Server::shutdown`]).
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Requests completed in this phase.
    pub ops: u64,
    /// Point lookups.
    pub gets: u64,
    /// Inserts/updates.
    pub inserts: u64,
    /// Range scans.
    pub scans: u64,
    /// Total scan hits emitted.
    pub scan_hits: u64,
    /// Requests that completed with [`Response::Error`].
    pub errors: u64,
    /// Latency distribution (wall or virtual per the config).
    pub latency: LatencyHistogram,
    /// Busiest single worker's service time in this phase (ns) — the
    /// virtual-throughput denominator: with perfect overlap the phase
    /// takes exactly this long.
    pub busy_ns_max: u64,
    /// Total service time across workers (ns).
    pub busy_ns_total: u64,
}

impl PhaseStats {
    pub(crate) fn empty() -> Self {
        PhaseStats {
            ops: 0,
            gets: 0,
            inserts: 0,
            scans: 0,
            scan_hits: 0,
            errors: 0,
            latency: LatencyHistogram::new(),
            busy_ns_max: 0,
            busy_ns_total: 0,
        }
    }

    /// Fold `other` in: counts and total service time add, histograms
    /// merge, the busiest-worker time keeps the larger. One worker's own
    /// totals carry `busy_ns_max == busy_ns_total`.
    fn merge(&mut self, other: &PhaseStats) {
        self.ops += other.ops;
        self.gets += other.gets;
        self.inserts += other.inserts;
        self.scans += other.scans;
        self.scan_hits += other.scan_hits;
        self.errors += other.errors;
        self.latency.merge(&other.latency);
        self.busy_ns_max = self.busy_ns_max.max(other.busy_ns_max);
        self.busy_ns_total += other.busy_ns_total;
    }

    /// Ops per second implied by the busiest worker's service time
    /// (virtual mode) — 0 when nothing ran.
    pub fn virtual_ops_per_sec(&self) -> f64 {
        if self.busy_ns_max == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.busy_ns_max as f64
        }
    }
}

/// Per-worker aggregate over all phases (see
/// [`ServingReport::worker_stats`]) — the attribution the fault-SLO gate
/// needs: healthy-worker tail latency is the merge of every
/// non-[`degraded`](WorkerStats::degraded) worker's histogram.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Requests this worker executed.
    pub ops: u64,
    /// Total service time on this worker (ns; includes injected delays).
    pub busy_ns: u64,
    /// Latency distribution of the requests this worker executed.
    pub latency: LatencyHistogram,
    /// Faults injected into this worker's requests.
    pub faults: FaultTally,
    /// True when the config's [`FaultPlan`] degrades this worker in at
    /// least one phase.
    pub degraded: bool,
}

/// Everything the serving run did, returned by [`Server::shutdown`].
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Per-phase aggregates, indexed by the phase tag requests carried.
    pub phases: Vec<PhaseStats>,
    /// Per-worker aggregates, in worker order.
    pub worker_stats: Vec<WorkerStats>,
    /// Per-worker queue counters, in worker order.
    pub queues: Vec<QueueStats>,
    /// Worker threads the server ran.
    pub workers: usize,
    /// What the adaptive admission controller did, when one was
    /// configured: windows sealed, requests shed, every shed-level
    /// decision, final levels.
    pub admission: Option<AdmissionReport>,
    /// Whether latencies are virtual (deterministic) or wall-clock.
    pub virtual_time: bool,
    /// Store-wide telemetry at shutdown: registered metrics (including
    /// the `serving.worker.*` queue counters, `serving.phase.*`
    /// aggregates and any `serving.trace.*` span histograms this run
    /// recorded), refreshed shard/codec gauges, and the lifecycle event
    /// ring.
    pub telemetry: TelemetrySnapshot,
}

impl ServingReport {
    /// Total requests completed across phases.
    pub fn total_ops(&self) -> u64 {
        self.phases.iter().map(|p| p.ops).sum()
    }

    /// Total requests refused at admission across queues.
    pub fn total_rejected(&self) -> u64 {
        self.queues.iter().map(|q| q.rejected).sum()
    }
}

/// The serving pipeline over an `Arc<HopeStore<V>>` (see module docs).
#[derive(Debug)]
pub struct Server<V: Value = u64> {
    shared: Arc<Shared<V>>,
    handles: Vec<std::thread::JoinHandle<worker::WorkerOutput>>,
}

impl<V: Value> Server<V> {
    /// Spawn the worker threads and open the queues.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] for zero workers/capacity/batch or a
    /// phase count outside `1..=16`.
    pub fn start(store: Arc<HopeStore<V>>, cfg: ServingConfig) -> Result<Server<V>, StoreError> {
        if cfg.workers == 0 {
            return Err(StoreError::InvalidConfig { reason: "need at least one serving worker" });
        }
        if cfg.queue_capacity == 0 {
            return Err(StoreError::InvalidConfig { reason: "queue capacity must be at least 1" });
        }
        if cfg.batch == 0 {
            return Err(StoreError::InvalidConfig { reason: "batch must be at least 1" });
        }
        if !(1..=16).contains(&cfg.phases) {
            return Err(StoreError::InvalidConfig { reason: "phases must be in 1..=16" });
        }
        if let Some(plan) = &cfg.faults {
            if plan.degraded_worker.is_some_and(|w| w >= cfg.workers) {
                return Err(StoreError::InvalidConfig {
                    reason: "fault plan degrades a worker the config does not have",
                });
            }
            if plan.slow_factor == 0 {
                return Err(StoreError::InvalidConfig {
                    reason: "fault plan slow_factor must be at least 1",
                });
            }
        }
        let registry_handle = store.telemetry_handle();
        let admission = match cfg.admission {
            Some(ac) => {
                let reg = registry_handle.registry();
                Some(AdmissionHook {
                    ctl: Mutex::new(AdmissionController::new(ac, cfg.workers)?),
                    engage: reg.counter("serving.admission.engage"),
                    release: reg.counter("serving.admission.release"),
                    shed: reg.counter("serving.admission.shed"),
                    windows: reg.gauge("serving.admission.windows"),
                    levels: (0..cfg.workers)
                        .map(|w| reg.gauge(&format!("serving.admission.level.{w}")))
                        .collect(),
                })
            }
            None => None,
        };
        let queues = (0..cfg.workers)
            .map(|i| {
                let counters = QueueCounters::register(registry_handle.registry(), i);
                BoundedQueue::with_counters(cfg.queue_capacity, counters)
            })
            .collect();
        let shared = Arc::new(Shared {
            store,
            queues,
            cfg,
            admission,
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            flush_lock: Mutex::new(()),
            flush_cv: Condvar::new(),
        });
        let handles = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hope-serve-{i}"))
                    .spawn(move || worker::run(i, shared))
                    .expect("spawn serving worker")
            })
            .collect();
        Ok(Server { shared, handles })
    }

    /// The worker owning `key`'s shard — the routing hook the module docs
    /// describe (`shard % workers`).
    pub fn worker_of(&self, key: &[u8]) -> usize {
        self.shared.store.shard_of(key) % self.shared.cfg.workers
    }

    /// True when the config's fault plan degrades `worker` in at least
    /// one phase — the admission-side hook a driver uses to separate
    /// healthy-worker tail latency from the sick worker's.
    pub fn is_degraded(&self, worker: usize) -> bool {
        self.shared.cfg.faults.is_some_and(|p| p.is_degraded(worker))
    }

    fn envelope(&self, req: Request<V>, phase: usize, ticket: bool) -> Envelope<V> {
        Envelope {
            req,
            phase: phase.min(self.shared.cfg.phases - 1) as u8,
            index: 0,
            enqueued_at: (!self.shared.cfg.virtual_time).then(Instant::now),
            ticket: ticket.then(|| TicketState::new()),
        }
    }

    fn push(&self, mut env: Envelope<V>, blocking: bool) -> Result<Option<Ticket<V>>, Rejected<V>> {
        let home = self.shared.store.shard_of(env.req.routing_key()) % self.shared.cfg.workers;
        let mut worker = home;
        let ticket = env.ticket.as_ref().map(|t| Ticket(Arc::clone(t)));
        let index = self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        env.index = index;
        if let Some(hook) = &self.shared.admission {
            let mut ctl = hook.ctl.lock().unwrap_or_else(PoisonError::into_inner);
            // Seal windows the stream has crossed (and judge the workers)
            // *before* this request's own shed draw: the draw always uses
            // fully-sealed evidence, which keeps every decision a pure
            // function of (window snapshot, config, index).
            let decisions = ctl.advance(index);
            if self.shared.cfg.virtual_time {
                // The virtual-mode sensor: observe what this request
                // *would* cost on its home worker, sick or not. Recorded
                // at admission — the single producer makes the window
                // binning deterministic — and it keeps probing a fully
                // shed worker, so the controller can see it heal.
                let action = self
                    .shared
                    .cfg
                    .faults
                    .map(|p| p.action(home, index, env.phase))
                    .unwrap_or_default();
                ctl.observe(home, action.stretch(virtual_cost(&env.req)));
            }
            let shed_to = ctl.shed(home, index);
            let windows = ctl.windows_sealed();
            drop(ctl);
            hook.windows.set(windows);
            if !decisions.is_empty() {
                let tel = self.shared.store.telemetry_handle();
                for d in &decisions {
                    hook.note_decision(d, &tel);
                }
            }
            if let Some(alt) = shed_to {
                worker = alt;
                hook.shed.inc();
                self.shared.queues[home].note_shed_away();
            }
        }
        let queue = &self.shared.queues[worker];
        let pushed = if blocking { queue.push_blocking(env) } else { queue.try_push(env) };
        match pushed {
            Ok(()) => Ok(ticket),
            Err((env, reason)) => {
                self.shared.admitted.fetch_sub(1, Ordering::Relaxed);
                Err(Rejected { request: env.req, reason })
            }
        }
    }

    /// Admission-controlled submit: refuse (returning the request) when
    /// the target worker's queue is at budget. No completion ticket — the
    /// fire-and-forget shape for throughput drivers that read results
    /// from the [`ServingReport`] instead. `phase` tags the latency
    /// sample (clamped to the configured phase count).
    pub fn try_submit_detached(&self, req: Request<V>, phase: usize) -> Result<(), Rejected<V>> {
        self.push(self.envelope(req, phase, false), false).map(|_| ())
    }

    /// Backpressure submit: wait for queue space instead of refusing
    /// (fails only when the server is shutting down) and hand back a
    /// completion [`Ticket`]. `phase` as for
    /// [`Server::try_submit_detached`].
    pub fn submit(&self, req: Request<V>, phase: usize) -> Result<Ticket<V>, Rejected<V>> {
        self.push(self.envelope(req, phase, true), true).map(|t| t.expect("ticketed"))
    }

    /// [`Server::submit`] without a completion ticket.
    pub fn submit_detached(&self, req: Request<V>, phase: usize) -> Result<(), Rejected<V>> {
        self.push(self.envelope(req, phase, false), true).map(|_| ())
    }

    /// Block until every admitted request has completed. Callers must
    /// have joined their own submitter threads first: the barrier covers
    /// requests admitted *before* this call.
    pub fn flush(&self) {
        let mut guard = self.shared.flush_lock.lock().unwrap_or_else(PoisonError::into_inner);
        while self.shared.completed.load(Ordering::Acquire)
            < self.shared.admitted.load(Ordering::Relaxed)
        {
            let (g, _) = self
                .shared
                .flush_cv
                .wait_timeout(guard, std::time::Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
    }

    /// Current backlog of every worker queue (diagnostics; racy).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared.queues.iter().map(|q| q.depth()).collect()
    }

    /// Close admission, drain every queue (admitted requests complete —
    /// never dropped), join the workers, and return the merged report.
    pub fn shutdown(mut self) -> ServingReport {
        for q in &self.shared.queues {
            q.close();
        }
        let cfg = self.shared.cfg;
        let mut phases = vec![PhaseStats::empty(); cfg.phases];
        let mut worker_stats = Vec::with_capacity(cfg.workers);
        for (i, h) in self.handles.drain(..).enumerate() {
            let out = h.join().expect("serving worker panicked");
            let mut all = PhaseStats::empty();
            for (agg, w) in phases.iter_mut().zip(&out.phases) {
                agg.merge(w);
                all.merge(w);
            }
            worker_stats.push(WorkerStats {
                worker: i,
                ops: all.ops,
                busy_ns: all.busy_ns_total,
                latency: all.latency,
                faults: out.faults,
                degraded: cfg.faults.is_some_and(|p| p.is_degraded(i)),
            });
        }
        ServingReport {
            phases,
            worker_stats,
            queues: self.shared.queues.iter().map(|q| q.stats()).collect(),
            workers: cfg.workers,
            admission: self
                .shared
                .admission
                .as_ref()
                .map(|h| h.ctl.lock().unwrap_or_else(PoisonError::into_inner).report()),
            virtual_time: cfg.virtual_time,
            telemetry: self.shared.store.telemetry(),
        }
    }
}

impl<V: Value> Drop for Server<V> {
    /// A dropped (not shut down) server still closes and joins cleanly.
    fn drop(&mut self) {
        for q in &self.shared.queues {
            q.close();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Consecutive duplicates collapse; a repeat after another epoch
    /// stays, so a scan that bounced between generations is visible.
    #[test]
    fn scan_summary_collapses_only_consecutive_epochs() {
        let mut s = ScanSummary::default();
        for e in [3u64, 3, 3, 7, 7, 3] {
            s.note_epoch(e);
        }
        assert_eq!(s.epochs, vec![3, 7, 3]);
    }
}
