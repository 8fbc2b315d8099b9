//! Figure 17 (extension) — `hope_store` dictionary hot-swap under a
//! mid-run key-distribution shift.
//!
//! Picks up where Figure 15 (Appendix C) leaves off: instead of measuring
//! how much a *static* dictionary loses when the distribution drifts, this
//! harness drives the sharded store with live mixed traffic whose insert
//! population switches from Email-A (gmail/yahoo) to Email-B mid-run, lets
//! the store's maintenance pass detect the CPR degradation and hot-swap
//! per-shard dictionaries, and then checks two things:
//!
//! 1. **Correctness** — every point/range query agrees with an
//!    uncompressed shadow map replayed alongside, and concurrent reader
//!    threads hammering the loaded keys across the swap window observe no
//!    wrong answer.
//! 2. **Recovery** — after the swaps, the compression rate on the shifted
//!    key population is within 10% of a dictionary built *fresh* from that
//!    population (the acceptance bar for the swap machinery).
//!
//! Usage: `cargo run --release -p hope_bench --bin fig17_store_shift
//!         [-- --keys N --queries N --quick]`

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hope::stats;
use hope_bench::{build_hope, time, BenchConfig};
use hope_store::{HopeStore, StoreConfig};
use hope_workloads::{sample_keys, MixedWorkload, StoreOp, TrafficSpec};

fn main() {
    let cfg = BenchConfig::from_args();
    let spec = TrafficSpec::default();
    let workload = MixedWorkload::generate(cfg.keys, cfg.queries, spec, cfg.seed);
    println!("# Figure 17: hope_store dictionary hot-swap under distribution shift");
    println!(
        "# {} loaded Email-A keys, {} ops ({}% read / {}% insert / {}% scan), shift at op {}",
        workload.initial.len(),
        workload.ops.len(),
        spec.read_pct,
        spec.insert_pct,
        100 - spec.read_pct as usize - spec.insert_pct as usize,
        workload.shift_at
    );

    // Store + uncompressed shadow, loaded identically.
    let store_cfg = StoreConfig {
        // Judge drift on a window scaled to the insert volume so small
        // --quick runs still exercise the swap.
        min_observed_bytes: ((cfg.queries as u64) * 22 / 160).max(1024),
        ..StoreConfig::default()
    };
    let initial: Vec<(Vec<u8>, u64)> =
        workload.initial.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect();
    let (store, build_t) =
        time(|| HopeStore::build(store_cfg, initial.clone()).expect("store build"));
    let store = Arc::new(store);
    let mut shadow: BTreeMap<Vec<u8>, u64> = initial.into_iter().collect();
    println!("# store built in {build_t:?}; shard epochs {:?}", store.epochs());

    // Concurrent readers verify the loaded keys (whose values the
    // workload never touches) across every swap window.
    let stop = Arc::new(AtomicBool::new(false));
    let reader_checks = Arc::new(AtomicU64::new(0));
    let frozen: Arc<Vec<(Vec<u8>, u64)>> =
        Arc::new(workload.initial.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect());
    let readers: Vec<_> = (0..3)
        .map(|t| {
            let (store, stop, frozen, checks) = (
                Arc::clone(&store),
                Arc::clone(&stop),
                Arc::clone(&frozen),
                Arc::clone(&reader_checks),
            );
            std::thread::spawn(move || {
                let mut i = t * 37;
                while !stop.load(Ordering::Relaxed) {
                    let (k, v) = &frozen[i % frozen.len()];
                    assert_eq!(
                        store.get(k).expect("valid key"),
                        Some(*v),
                        "reader saw a wrong point result"
                    );
                    if i % 16 == 0 {
                        // Zero-allocation visitor scan: hits are borrowed.
                        let mut ok = false;
                        let hits = store
                            .range_with(k, k, 2, |rk, rv| {
                                ok = rk == k.as_slice() && *rv == *v;
                            })
                            .expect("valid bounds");
                        assert!(hits == 1 && ok, "reader saw a wrong range for {k:?}");
                    }
                    checks.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();

    // Replay the traffic, verifying every result and running maintenance
    // periodically (as the background thread would).
    let maintain_every = (workload.ops.len() / 25).max(1);
    let mut swaps = Vec::new();
    let mut degraded_cpr: Option<f64> = None;
    let mut shifted_keys: Vec<Vec<u8>> = Vec::new();
    for (i, op) in workload.ops.iter().enumerate() {
        match op {
            StoreOp::Get(k) => {
                assert_eq!(
                    store.get(k).expect("valid key"),
                    shadow.get(k).copied(),
                    "point query diverged"
                );
            }
            StoreOp::Insert(k, v) => {
                if i >= workload.shift_at {
                    shifted_keys.push(k.clone());
                }
                let old = store.insert(k.clone(), *v).expect("valid key");
                assert_eq!(old, shadow.insert(k.clone(), *v), "insert result diverged");
            }
            StoreOp::Scan(low, high, limit) => {
                let mut got = Vec::new();
                store.range_into(low, high, *limit, &mut got).expect("valid bounds");
                let want: Vec<(Vec<u8>, u64)> = shadow
                    .range(low.clone()..=high.clone())
                    .take(*limit)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                assert_eq!(got, want, "range query diverged");
            }
        }
        if (i + 1) % maintain_every == 0 {
            // Remember the worst observed CPR before any swap fires.
            let worst =
                store.stats().iter().filter_map(|s| s.observed_cpr).fold(f64::INFINITY, f64::min);
            if worst.is_finite() {
                degraded_cpr = Some(degraded_cpr.map_or(worst, |d: f64| d.min(worst)));
            }
            let (reports, errors) = store.maintain();
            assert!(errors.is_empty(), "rebuild errors: {errors:?}");
            for r in &reports {
                // Losslessness across the swap: keys served by the fresh
                // generation round-trip through its decoder.
                let generation = store.generation(r.shard).expect("shard in range");
                let hope = generation.hope();
                let mut decode_scratch = hope::DecodeScratch::new();
                let sample =
                    shadow.keys().filter(|k| store.shard_of(k) == r.shard).step_by(97).take(32);
                for k in sample {
                    let e = hope.encode(k);
                    let back = hope
                        .decode_to(e.as_bytes(), e.bit_len(), &mut decode_scratch)
                        .expect("swap produced an undecodable encoding");
                    assert_eq!(back, k.as_slice(), "swap broke encode→decode round-trip");
                }
                println!(
                    "# op {:>8}: shard {} swapped epoch {} -> {} (observed CPR {:.3} vs baseline {:.3}; {} keys re-encoded, {} writes replayed)",
                    i + 1,
                    r.shard,
                    r.old_epoch,
                    r.new_epoch,
                    r.observed_cpr.unwrap_or(0.0),
                    r.old_baseline_cpr,
                    r.live_keys,
                    r.replayed
                );
            }
            swaps.extend(reports);
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader thread saw an incorrect result");
    }

    // Final verification sweep against the shadow.
    for (k, v) in shadow.iter().step_by(7) {
        assert_eq!(store.get(k).expect("valid key"), Some(*v), "post-run divergence");
    }
    println!(
        "# {} concurrent reader checks, {} swaps, final epochs {:?}",
        reader_checks.load(Ordering::Relaxed),
        swaps.len(),
        store.epochs()
    );
    assert!(!swaps.is_empty(), "the shift never triggered a dictionary swap");

    // Recovery: encode the shifted population under each shard's *live*
    // dictionary vs a dictionary built fresh from that population.
    let store_cfg = *store.config();
    let mut per_shard: Vec<Vec<Vec<u8>>> = vec![Vec::new(); store_cfg.shards];
    for k in &shifted_keys {
        per_shard[store.shard_of(k)].push(k.clone());
    }
    let (mut src, mut enc) = (0u64, 0u64);
    for (s, keys) in per_shard.iter().enumerate() {
        if keys.is_empty() {
            continue;
        }
        let m = stats::measure(store.generation(s).expect("shard in range").hope(), keys);
        src += m.src_bytes;
        enc += m.enc_bytes;
    }
    let post_swap_cpr = src as f64 / enc as f64;
    let pct = ((5_000.0 / shifted_keys.len() as f64) * 100.0).clamp(1.0, 100.0);
    let fresh_sample = sample_keys(&shifted_keys, pct, cfg.seed ^ 0xF);
    let fresh = build_hope(store_cfg.scheme, store_cfg.dict_entries, &fresh_sample);
    let fresh_cpr = stats::measure(&fresh, &shifted_keys).cpr();

    println!("\n{:28} {:>10}", "dictionary", "CPR");
    if let Some(d) = degraded_cpr {
        println!("{:28} {:>10.3}", "pre-swap (degraded)", d);
    }
    println!("{:28} {:>10.3}", "post-swap (hot-swapped)", post_swap_cpr);
    println!("{:28} {:>10.3}", "fresh-built on shifted keys", fresh_cpr);
    let ratio = post_swap_cpr / fresh_cpr;
    println!("# post-swap / fresh-built = {ratio:.3} (acceptance: >= 0.9)");
    assert!(
        ratio >= 0.9,
        "post-swap CPR {post_swap_cpr:.3} not within 10% of fresh-built {fresh_cpr:.3}"
    );
    println!("# PASS: swap recovered compression within 10% of a fresh dictionary");
}
