//! Watch a store watch itself: the telemetry layer end to end.
//!
//! Builds a sharded `hope_store`, drifts the write traffic until a
//! dictionary hot-swap fires, then reads the whole story back out of the
//! store's own telemetry — per-shard CPR-drift gauges, the codec's
//! fast-path/fallback split, the swap events in the lifecycle ring, and
//! a sampled-tracing histogram of where get latency actually goes —
//! finishing with the Prometheus rendering a scrape endpoint would
//! serve.
//!
//! Run with: `cargo run --release --example observability`

use hope_store::prelude::*;
use hope_workloads::generate_email_split;

fn main() {
    let (email_a, email_b) = generate_email_split(60_000, 42);
    let load: Vec<(Vec<u8>, u64)> =
        email_a.iter().take(15_000).enumerate().map(|(i, k)| (k.clone(), i as u64)).collect();
    let cfg = StoreConfig { min_observed_bytes: 4 * 1024, ..StoreConfig::default() };
    let store = HopeStore::build(cfg, load.clone()).expect("store build");

    // Sampled tracing by hand: every 64th get runs the span-timed path.
    // (Servers set `ServingConfig::trace_sample_every` and get this per
    // worker, into the same `serving.trace.*` histograms.)
    let registry = store.telemetry_handle();
    let probe_spans = registry.registry().histo("serving.trace.probe");
    let mut sampler = TraceSampler::new(64);
    for (key, value) in load.iter().cycle().take(50_000) {
        if sampler.tick() {
            let (v, spans) = store.get_traced(key).expect("valid key");
            assert_eq!(v, Some(*value));
            probe_spans.record(spans.probe_ns);
        } else {
            assert_eq!(store.get(key).expect("valid key"), Some(*value));
        }
    }

    // Drift the insert population until maintenance wants a rebuild.
    for (i, k) in email_b.iter().take(20_000).enumerate() {
        store.insert(k.clone(), i as u64).expect("valid key");
    }
    let (swaps, errors) = store.maintain();
    assert!(errors.is_empty());
    println!("maintenance swapped {} shard(s)\n", swaps.len());

    // The snapshot: every number the store kept about itself.
    let snap = store.telemetry();
    println!("== gauges (drift, per shard) ==");
    for shard in 0..cfg.shards {
        println!(
            "  shard {shard}: epoch {}, {} keys, baseline CPR {}m, observed {}m, drift {}m",
            snap.gauge(&format!("store.shard.{shard}.epoch")).unwrap_or(0),
            snap.gauge(&format!("store.shard.{shard}.keys")).unwrap_or(0),
            snap.gauge(&format!("store.shard.{shard}.baseline_cpr_milli")).unwrap_or(0),
            snap.gauge(&format!("store.shard.{shard}.observed_cpr_milli")).unwrap_or(0),
            snap.gauge(&format!("store.shard.{shard}.drift_milli")).unwrap_or(0),
        );
    }

    println!("\n== codec counters ==");
    for name in ["encode_keys", "automaton_fallback_takes"] {
        println!(
            "  store.codec.{name} = {}",
            snap.gauge(&format!("store.codec.{name}")).unwrap_or(0)
        );
    }

    println!(
        "\n== lifecycle events ({} recorded, {} dropped) ==",
        snap.events.len(),
        snap.dropped_events
    );
    for ev in &snap.events {
        println!(
            "  [{}] {} shard {} epoch {}->{} ({} keys, {} replayed, {:.1} ms)",
            ev.seq,
            ev.kind.name(),
            ev.shard,
            ev.prev_epoch,
            ev.epoch,
            ev.keys,
            ev.replayed,
            ev.duration_ns as f64 / 1e6,
        );
    }
    assert_eq!(snap.events_of(EventKind::SwapEnd).count(), swaps.len());

    if let Some(h) = snap.histogram("serving.trace.probe") {
        println!(
            "\n== sampled get probe spans == {} samples, p50 {} ns, p99 {} ns, max {} ns",
            h.count, h.p50_ns, h.p99_ns, h.max_ns
        );
    }

    println!("\n== prometheus (first lines of what /metrics would serve) ==");
    for line in snap.to_prometheus().lines().take(8) {
        println!("  {line}");
    }
}
