//! Serve a compressed key-value store that retrains its own dictionaries.
//!
//! Builds a sharded `hope_store` over email keys, serves point and range
//! queries, then shifts the write traffic to a different key population —
//! the kind of drift that silently erodes a static dictionary's
//! compression (Appendix C). A background maintenance thread notices the
//! degraded compression rate and hot-swaps fresh dictionaries in, while
//! the foreground keeps querying without a wrong answer or a blocked read.
//!
//! Run with: `cargo run --release --example store_serving`

use std::sync::Arc;
use std::time::Duration;

use hope_store::prelude::*;
use hope_workloads::generate_email_split;

fn main() {
    // Two email populations: A (gmail/yahoo) to load, B (the rest) to
    // drift toward.
    let (email_a, email_b) = generate_email_split(120_000, 42);
    let load: Vec<(Vec<u8>, u64)> =
        email_a.iter().take(20_000).enumerate().map(|(i, k)| (k.clone(), i as u64)).collect();

    let cfg = StoreConfig { min_observed_bytes: 16 * 1024, ..StoreConfig::default() };
    let store = Arc::new(HopeStore::build(cfg, load.clone()).expect("store build"));
    println!("loaded {} keys into {} shards, epochs {:?}", store.len(), cfg.shards, store.epochs());
    // One dictionary for the whole store: shard 0 reports its bytes, the
    // shards sharing it report 0.
    for s in store.stats() {
        println!(
            "  shard {}: {} keys, baseline CPR {:.2}, dict {} KiB",
            s.shard,
            s.keys,
            s.baseline_cpr,
            s.dict_bytes / 1024
        );
    }

    // Serve some reads: a point get, then a lazy cursor over a window.
    let (probe_key, probe_val) = &load[1234];
    assert_eq!(store.get(probe_key).expect("valid key"), Some(*probe_val));
    let mut window = store
        .cursor(probe_key, &[probe_key.as_slice(), b"\xff"].concat(), 5)
        .expect("valid bounds");
    let mut hits = 0;
    while let Some((_key, _value)) = window.next_hit() {
        hits += 1;
    }
    println!("\npoint get ok; cursor from {:?} -> {hits} hits", String::from_utf8_lossy(probe_key));

    // Background maintenance + drifting writes.
    let maintainer = Maintainer::spawn(Arc::clone(&store), Duration::from_millis(2));
    for (i, k) in email_b.iter().take(30_000).enumerate() {
        store.insert(k.clone(), i as u64).expect("valid key");
        if i % 5_000 == 4_999 {
            // Reads stay correct mid-drift, mid-swap.
            assert_eq!(store.get(probe_key).expect("valid key"), Some(*probe_val));
            std::thread::sleep(Duration::from_millis(5)); // let maintenance observe
        }
    }
    let log = maintainer.stop();
    assert!(log.errors.is_empty(), "rebuild failures: {:?}", log.errors);

    println!(
        "\nafter drift: {} dictionary hot-swaps, epochs {:?}",
        log.swaps.len(),
        store.epochs()
    );
    for r in &log.swaps {
        println!(
            "  shard {}: epoch {} -> {}, observed CPR {:.2} vs baseline {:.2}, {} keys re-encoded",
            r.shard,
            r.old_epoch,
            r.new_epoch,
            r.observed_cpr.unwrap_or(0.0),
            r.old_baseline_cpr,
            r.live_keys
        );
    }
    assert_eq!(
        store.get(probe_key).expect("valid key"),
        Some(*probe_val),
        "reads survived every swap"
    );
    assert_eq!(store.len(), 50_000);
    println!("\nall {} keys still served correctly — no reader ever blocked", store.len());
}
