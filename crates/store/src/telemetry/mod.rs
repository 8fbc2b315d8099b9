//! # First-class telemetry: metrics registry, event log, request tracing
//!
//! Everything the store and serving stack measure flows through this
//! module, in three layers:
//!
//! * **[`MetricsRegistry`]** — named [`Counter`] / [`Gauge`] / [`Histo`]
//!   handles under hierarchical dot names (`store.shard.3.rebuilds`,
//!   `serving.worker.0.queue_depth_peak`). Handles are cheap `Arc`-backed
//!   clones; the hot-path ops (`inc`, `add`, `set`) are `#[inline]`
//!   relaxed atomics, so instrumented code pays one uncontended atomic
//!   per observation and never a lock or a map lookup.
//! * **[`EventLog`]** — a fixed-capacity lock-free ring of dictionary
//!   lifecycle [`Event`]s (swap begin/end, rebuild failures) that
//!   readers snapshot without tearing (see [`EventLog`] docs).
//! * **[`TraceSampler`] / [`ProbeSpans`]** — deterministic 1-in-N request
//!   tracing with per-stage spans (queue-wait, encode, probe, decode),
//!   recorded into registry histograms by the serving workers.
//!
//! [`Telemetry`] bundles the first two; every
//! [`HopeStore`](crate::HopeStore) owns one and exposes point-in-time
//! [`TelemetrySnapshot`]s via
//! [`HopeStore::telemetry`](crate::HopeStore::telemetry) — exportable as
//! hand-rolled JSON (the `BENCH_*.json` convention; this workspace is
//! serde-free) or Prometheus text.
//!
//! ```
//! use hope_store::telemetry::Telemetry;
//!
//! let tel = Telemetry::new(64);
//! tel.registry().counter("demo.requests").add(3);
//! tel.registry().gauge("demo.backlog").set(17);
//! tel.registry().histo("demo.latency").record(1_500);
//!
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("demo.requests"), Some(3));
//! assert_eq!(snap.gauge("demo.backlog"), Some(17));
//! assert!(snap.to_json().contains("\"demo.requests\": 3"));
//! assert!(snap.to_prometheus().contains("demo_requests 3"));
//! ```

mod event;
mod hist;
mod trace;

pub use event::{Event, EventKind, EventLog};
pub use hist::LatencyHistogram;
pub use trace::{ProbeSpans, TraceSampler};
pub(crate) use trace::{SpanRecorder, Stopwatch};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing counter handle.
///
/// Clones share the same underlying atomic; a handle detached from any
/// registry ([`Counter::detached`]) still counts — it is just not
/// exported — which lets instrumented components default to zero-cost
/// wiring in tests.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not registered anywhere (counts, but is never exported).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle (with a max-tracking helper for
/// peak-style gauges). Clones share the same underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not registered anywhere (records, but is never exported).
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (peak tracking).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Add 1 (live-object gauges: snapshots outstanding, cursors open).
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract 1, saturating at 0 — a stray extra `dec` must not wrap a
    /// live-object gauge to `u64::MAX`.
    #[inline]
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared [`LatencyHistogram`] handle (mutex-guarded; meant for
/// sampled or per-batch recording, not per-request hot loops — workers
/// keep thread-local histograms and [`Histo::merge`] them at exit).
#[derive(Debug, Clone, Default)]
pub struct Histo(Arc<Mutex<LatencyHistogram>>);

impl Histo {
    /// A histogram not registered anywhere.
    pub fn detached() -> Histo {
        Histo::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LatencyHistogram> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one nanosecond sample.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.lock().record(ns);
    }

    /// Fold a locally accumulated histogram in (one lock per merge).
    pub fn merge(&self, other: &LatencyHistogram) {
        self.lock().merge(other);
    }

    /// Copy the current distribution out.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.lock().clone()
    }
}

/// What [`MetricsRegistry::collect`] hands to the snapshot: sorted
/// `(name, value)` lists for counters and gauges plus summarized
/// histograms.
type CollectedMetrics = (Vec<(String, u64)>, Vec<(String, u64)>, Vec<(String, HistogramSummary)>);

#[derive(Debug, Clone)]
enum MetricSlot {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

/// The name → handle table: get-or-create typed handles under
/// hierarchical dot names.
///
/// Registration takes a lock; the returned handles do not (hold on to
/// them — don't re-register per operation on a hot path). Registering a
/// name that already exists under a **different** kind returns a
/// detached handle instead of panicking: telemetry must never take the
/// serving path down, and hierarchical names make such collisions a
/// programming error that the missing export surfaces quickly.
///
/// ```
/// use hope_store::telemetry::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let ops = reg.counter("store.shard.0.rebuilds");
/// ops.inc();
/// ops.add(2);
/// // Same name → same underlying counter.
/// assert_eq!(reg.counter("store.shard.0.rebuilds").get(), 3);
/// // Kind mismatch → detached handle, not a panic.
/// reg.gauge("store.shard.0.rebuilds").set(99);
/// assert_eq!(reg.counter("store.shard.0.rebuilds").get(), 3);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, MetricSlot>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn slots(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, MetricSlot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get or create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| MetricSlot::Counter(Counter::default()))
        {
            MetricSlot::Counter(c) => c.clone(),
            _ => Counter::detached(),
        }
    }

    /// Get or create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots();
        match slots.entry(name.to_string()).or_insert_with(|| MetricSlot::Gauge(Gauge::default())) {
            MetricSlot::Gauge(g) => g.clone(),
            _ => Gauge::detached(),
        }
    }

    /// Get or create the histogram registered under `name`.
    pub fn histo(&self, name: &str) -> Histo {
        let mut slots = self.slots();
        match slots.entry(name.to_string()).or_insert_with(|| MetricSlot::Histo(Histo::default())) {
            MetricSlot::Histo(h) => h.clone(),
            _ => Histo::detached(),
        }
    }

    /// Copy every registered metric out, sorted by name.
    fn collect(&self) -> CollectedMetrics {
        let slots = self.slots();
        let (mut counters, mut gauges, mut histos) = (Vec::new(), Vec::new(), Vec::new());
        for (name, slot) in slots.iter() {
            match slot {
                MetricSlot::Counter(c) => counters.push((name.clone(), c.get())),
                MetricSlot::Gauge(g) => gauges.push((name.clone(), g.get())),
                MetricSlot::Histo(h) => {
                    histos.push((name.clone(), HistogramSummary::from(&h.snapshot())))
                }
            }
        }
        (counters, gauges, histos)
    }
}

/// The store-wide telemetry hub: one [`MetricsRegistry`] plus one
/// [`EventLog`]. Every [`HopeStore`](crate::HopeStore) owns one behind an
/// `Arc`; the serving [`Server`](crate::serving::Server) records into the
/// same hub through the store handle.
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricsRegistry,
    events: EventLog,
}

impl Telemetry {
    /// New hub whose event ring holds `event_capacity` events (min 1).
    pub fn new(event_capacity: usize) -> Telemetry {
        Telemetry { registry: MetricsRegistry::new(), events: EventLog::new(event_capacity) }
    }

    /// The metric name table.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The lifecycle event ring.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Point-in-time copy of every metric and resident event.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (counters, gauges, histograms) = self.registry.collect();
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
            events: self.events.snapshot(),
            dropped_events: self.events.dropped(),
        }
    }
}

/// Five-point summary of one histogram in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample (ns).
    pub mean_ns: f64,
    /// Median (ns, bucket floor).
    pub p50_ns: u64,
    /// 99th percentile (ns, bucket floor).
    pub p99_ns: u64,
    /// 99.9th percentile (ns, bucket floor).
    pub p999_ns: u64,
    /// Largest sample (exact, ns).
    pub max_ns: u64,
    /// Saturating sum of all samples (ns) — the Prometheus `_sum` series.
    pub sum_ns: u64,
}

impl From<&LatencyHistogram> for HistogramSummary {
    fn from(h: &LatencyHistogram) -> HistogramSummary {
        let (p50_ns, p99_ns, p999_ns) = h.slo_points();
        HistogramSummary {
            count: h.count(),
            mean_ns: h.mean_ns(),
            p50_ns,
            p99_ns,
            p999_ns,
            max_ns: h.max_ns(),
            sum_ns: h.sum_ns(),
        }
    }
}

/// A point-in-time copy of everything a [`Telemetry`] hub knows: metric
/// values sorted by name, histogram summaries, and the resident tail of
/// the event ring. Plain data — safe to hold, print, or ship across
/// threads; see [`TelemetrySnapshot::to_json`] and
/// [`TelemetrySnapshot::to_prometheus`] for the export formats.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Resident lifecycle events, oldest first (ascending `seq`).
    pub events: Vec<Event>,
    /// Events lost to ring-capacity overflow before this snapshot.
    pub dropped_events: u64,
}

/// Append `s` as a JSON string literal (quotes, backslashes and control
/// characters escaped — names are normally `[a-z0-9._]` but the registry
/// accepts anything).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Sanitize a dot name into a Prometheus metric name (`[a-zA-Z0-9_]`,
/// non-conforming bytes become `_`).
fn prom_name(name: &str) -> String {
    let mut s: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

impl TelemetrySnapshot {
    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of the gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Summary of the histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Events of one kind, in `seq` order.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Serialize as pretty-printed JSON (hand-rolled — the workspace is
    /// serde-free by design, matching the `BENCH_*.json` convention).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            s.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut s, name);
            s.push_str(&format!(": {v}"));
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            s.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut s, name);
            s.push_str(&format!(": {v}"));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            s.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut s, name);
            s.push_str(&format!(
                ": {{\"count\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"p999_ns\": {}, \"max_ns\": {}}}",
                h.count, h.mean_ns, h.p50_ns, h.p99_ns, h.p999_ns, h.max_ns
            ));
        }
        s.push_str("\n  },\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            s.push_str(if i == 0 { "\n    " } else { ",\n    " });
            s.push_str(&format!(
                "{{\"seq\": {}, \"kind\": \"{}\", \"shard\": {}, \"prev_epoch\": {}, \
                 \"epoch\": {}, \"keys\": {}, \"replayed\": {}, \"bytes\": {}, \
                 \"duration_ns\": {}}}",
                e.seq,
                e.kind.name(),
                e.shard,
                e.prev_epoch,
                e.epoch,
                e.keys,
                e.replayed,
                e.bytes,
                e.duration_ns
            ));
        }
        s.push_str(&format!("\n  ],\n  \"dropped_events\": {}\n}}\n", self.dropped_events));
        s
    }

    /// Serialize in the Prometheus text exposition format: counters and
    /// gauges as-is, histograms as summaries (`{quantile=...}` series
    /// plus `_count` / `_sum`), dot names sanitized to underscores.
    /// Events are not metrics and are not exported here (use
    /// [`TelemetrySnapshot::to_json`]); the drop counter is.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            s.push_str(&format!("# TYPE {n} summary\n"));
            s.push_str(&format!("{n}{{quantile=\"0.5\"}} {}\n", h.p50_ns));
            s.push_str(&format!("{n}{{quantile=\"0.99\"}} {}\n", h.p99_ns));
            s.push_str(&format!("{n}{{quantile=\"0.999\"}} {}\n", h.p999_ns));
            s.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum_ns, h.count));
        }
        s.push_str(&format!(
            "# TYPE telemetry_events_dropped counter\ntelemetry_events_dropped {}\n",
            self.dropped_events
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_share_state_and_kinds_collide_safely() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.ops");
        let b = reg.counter("x.ops");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x.ops").get(), 5);
        let g = reg.gauge("x.depth");
        g.set(3);
        g.record_max(9);
        g.record_max(2);
        assert_eq!(g.get(), 9);
        g.inc();
        assert_eq!(g.get(), 10);
        g.set(1);
        g.dec();
        g.dec(); // saturates at zero, never wraps
        assert_eq!(g.get(), 0);
        let h = reg.histo("x.lat");
        h.record(100);
        assert_eq!(h.snapshot().count(), 1);
        // Kind mismatch: detached, never a panic, original untouched.
        reg.histo("x.ops").record(123);
        assert_eq!(reg.counter("x.ops").get(), 5);
    }

    #[test]
    fn snapshot_sorts_names_and_looks_itself_up() {
        let tel = Telemetry::new(4);
        tel.registry().counter("b.second").add(2);
        tel.registry().counter("a.first").add(1);
        tel.registry().gauge("c.third").set(3);
        let mut local = LatencyHistogram::new();
        local.record(1_000);
        local.record(2_000);
        tel.registry().histo("d.lat").merge(&local);
        tel.events().record(Event { kind: EventKind::SwapEnd, epoch: 2, ..Event::default() });

        let snap = tel.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "b.second"]);
        assert_eq!(snap.counter("a.first"), Some(1));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("c.third"), Some(3));
        let h = snap.histogram("d.lat").unwrap();
        assert_eq!(h.count, 2);
        assert!(h.mean_ns > 1_000.0);
        assert_eq!(snap.events_of(EventKind::SwapEnd).count(), 1);
        assert_eq!(snap.events_of(EventKind::SwapBegin).count(), 0);
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn json_and_prometheus_exports_carry_every_section() {
        let tel = Telemetry::new(4);
        tel.registry().counter("store.ops").add(7);
        tel.registry().gauge("store.shard.0.epoch").set(3);
        tel.registry().histo("serving.trace.encode").record(500);
        tel.events().record(Event {
            kind: EventKind::SwapEnd,
            shard: 1,
            prev_epoch: 3,
            epoch: 5,
            keys: 10,
            ..Event::default()
        });
        let snap = tel.snapshot();

        let json = snap.to_json();
        assert!(json.contains("\"store.ops\": 7"), "{json}");
        assert!(json.contains("\"store.shard.0.epoch\": 3"));
        assert!(json.contains("\"kind\": \"swap_end\""));
        assert!(json.contains("\"dropped_events\": 0"));

        let prom = snap.to_prometheus();
        assert!(prom.contains("store_ops 7"), "{prom}");
        assert!(prom.contains("# TYPE store_ops counter"));
        assert!(prom.contains("store_shard_0_epoch 3"));
        assert!(prom.contains("serving_trace_encode{quantile=\"0.5\"} "));
        assert!(prom.contains("serving_trace_encode_count 1"));
        assert!(prom.contains("telemetry_events_dropped 0"));
    }

    #[test]
    fn json_escapes_hostile_names() {
        let tel = Telemetry::new(1);
        tel.registry().counter("we\"ird\\name\n").inc();
        let json = tel.snapshot().to_json();
        assert!(json.contains("we\\\"ird\\\\name\\u000a"), "{json}");
    }
}
