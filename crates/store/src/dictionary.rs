//! A trained dictionary as the store holds it, and the one function that
//! trains one.
//!
//! A store is built with **one** dictionary, trained on a sample of the
//! whole load, and every shard's first generation shares it. A rebuild
//! that finds its shard undrifted hands the same `Arc` to the next
//! generation; only a drifted shard trains a replacement, from its own
//! traffic — so per-shard dictionaries exist exactly where the key
//! distribution split (see [`crate::shard`] for the decision).

use std::sync::{Arc, Mutex};

use hope::index::KeyRun;
use hope::{stats, CodecStats, Hope, HopeBuilder, HopeError};

use crate::shard::lock;
use crate::StoreConfig;

/// Every `HOLDOUT_EVERY`-th sample key is withheld from training and the
/// baseline CPR is measured on the withheld keys. A dictionary compresses
/// the keys it was trained on better than fresh keys of the same
/// population (ALM-Improved by ~10 %), so an in-sample baseline reads as
/// drift that is not there.
const HOLDOUT_EVERY: usize = 8;

/// Samples under this many keys are not split — too few withheld keys to
/// measure on — and get an in-sample baseline.
const MIN_SPLIT_SAMPLE: usize = 64;

/// The store-wide codec counters behind the `store.codec.*` gauges: what
/// every dictionary the store ever held has published so far.
pub(crate) type CodecTotal = Arc<Mutex<CodecStats>>;

/// One trained dictionary, behind the `Arc` every generation encoded
/// under it holds — generations of several shards after a build, and of
/// one shard across rebuilds that keep it.
#[derive(Debug)]
pub(crate) struct Dictionary {
    /// The compressor.
    pub hope: Hope,
    /// CPR on the sample keys withheld from training (see
    /// [`HOLDOUT_EVERY`]): the reference observed CPR is judged against.
    pub baseline_cpr: f64,
    /// The part of `hope`'s counters already added to `total`.
    published: Mutex<CodecStats>,
    total: CodecTotal,
}

impl Dictionary {
    pub(crate) fn new(hope: Hope, baseline_cpr: f64, total: CodecTotal) -> Arc<Dictionary> {
        Arc::new(Dictionary { hope, baseline_cpr, published: Mutex::default(), total })
    }

    /// Add what `hope` has counted since the last call to the store-wide
    /// total. The counters live in the `Hope`, which any number of shards
    /// (and pinned, superseded generations) may share; publishing deltas
    /// counts every encode exactly once whoever asks and however often,
    /// and keeps the total monotone across dictionary swaps.
    pub(crate) fn publish_codec_stats(&self) {
        // Counters only grow, and reading them under the lock orders the
        // reads, so no delta is negative.
        let mut published = lock(&self.published);
        let now = self.hope.codec_stats();
        let mut total = lock(&self.total);
        total.encode_keys += now.encode_keys - published.encode_keys;
        total.automaton_fallback_takes +=
            now.automaton_fallback_takes - published.automaton_fallback_takes;
        total.decode_keys += now.decode_keys - published.decode_keys;
        *published = now;
    }
}

/// The counters die with the `Hope`: publish the remainder when the last
/// holder — a shard's current generation, or a superseded one a reader or
/// snapshot still pins — lets go.
impl Drop for Dictionary {
    fn drop(&mut self) {
        self.publish_codec_stats();
    }
}

/// Fallback dictionary sample when there is no traffic and no resident
/// key to learn from: enough short strings that every scheme's selector
/// finds patterns to divide on.
fn default_sample() -> Vec<Vec<u8>> {
    (0..64u32).map(|i| format!("hope-default-{i:04}").into_bytes()).collect()
}

/// The sample a drifted shard's replacement dictionary trains on, drawn
/// from the old generation's write `tail` — the writes since the shard's
/// last rebuild, in arrival order — with `cap` counted as at least 1. A
/// tail of n ≥ `cap` writes gives the keys at positions 0, s, 2s, … for
/// s = ⌈n / `cap`⌉: at most `cap`. A thinner one gives every write, then
/// tops up the `need` keys it lacks from the sorted `live` run by the
/// build sample's rule: every ⌊live / need⌋-th key, between `need` and
/// 2 · `need` − 1 of them when the run holds `need` or more.
pub(crate) fn replace_sample(tail: &KeyRun, live: &KeyRun, cap: usize) -> Vec<Vec<u8>> {
    let cap = cap.max(1);
    let step = tail.len().div_ceil(cap).max(1);
    let mut sample: Vec<Vec<u8>> = tail.iter().step_by(step).map(<[u8]>::to_vec).collect();
    if tail.len() < cap {
        let need = cap - tail.len();
        sample.extend(live.iter().step_by((live.len() / need).max(1)).map(<[u8]>::to_vec));
    }
    sample
}

/// Train a dictionary on `sample` — the one place the store builds one.
/// Every [`HOLDOUT_EVERY`]-th key is withheld and the baseline measured
/// on those; a sample too small to split ([`MIN_SPLIT_SAMPLE`]), or the
/// default sample standing in for an empty one (variable-size schemes
/// reject empty samples), trains and measures on all of it.
pub(crate) fn train(
    cfg: &StoreConfig,
    sample: &[Vec<u8>],
    codec_total: &CodecTotal,
) -> Result<Arc<Dictionary>, HopeError> {
    let fallback;
    let (sample, split) = if sample.is_empty() {
        fallback = default_sample();
        (fallback.as_slice(), false)
    } else {
        (sample, sample.len() >= MIN_SPLIT_SAMPLE)
    };
    let (mut training, mut withheld) = (Vec::new(), Vec::new());
    for (i, key) in sample.iter().enumerate() {
        if split && i % HOLDOUT_EVERY == HOLDOUT_EVERY - 1 {
            withheld.push(key);
        } else {
            training.push(key);
        }
    }
    let hope = HopeBuilder::new(cfg.scheme)
        .dictionary_entries(cfg.dict_entries)
        .build_from_sample(training.iter().map(|&k| k.clone()))?;
    let judged = if split { &withheld } else { &training };
    let baseline_cpr = stats::measure(&hope, judged).cpr();
    Ok(Dictionary::new(hope, baseline_cpr, Arc::clone(codec_total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(keys: impl IntoIterator<Item = u32>) -> KeyRun {
        let mut run = KeyRun::with_capacity(0, 0);
        for key in keys {
            run.push(&key.to_be_bytes());
        }
        run
    }

    fn ids(sample: &[Vec<u8>]) -> Vec<u32> {
        sample.iter().map(|k| u32::from_be_bytes(k[..].try_into().unwrap())).collect()
    }

    /// Live keys are 1 000 and up; tail writes below, arriving in
    /// descending order so arrival order is not key order.
    fn tail(n: usize) -> KeyRun {
        run((0..n as u32).rev())
    }

    #[test]
    fn replace_sample_never_holds_more_than_cap_tail_writes() {
        let live = run(1_000..1_100);
        for cap in 1..=40usize {
            for n in 0..=4 * cap + 1 {
                let sample = ids(&replace_sample(&tail(n), &KeyRun::with_capacity(0, 0), cap));
                assert!(sample.len() <= cap, "n {n}, cap {cap}: {} keys", sample.len());
                if n >= cap {
                    let with_live = ids(&replace_sample(&tail(n), &live, cap));
                    assert_eq!(with_live, sample, "n {n}, cap {cap}: no top-up");
                }
            }
        }
    }

    #[test]
    fn a_full_tail_gives_the_writes_at_every_ceil_n_over_cap_th_position() {
        let live = run(1_000..1_100);
        for cap in 1..=40usize {
            for n in cap..=4 * cap + 1 {
                let s = n.div_ceil(cap);
                let want: Vec<u32> = (0..n).step_by(s).map(|at| (n - 1 - at) as u32).collect();
                assert_eq!(ids(&replace_sample(&tail(n), &live, cap)), want, "n {n}, cap {cap}");
            }
        }
    }

    /// 5 writes under a cap of 16 leave 11 to top up from 100 live keys:
    /// every ⌊100 / 11⌋ = 9th, 12 of them.
    #[test]
    fn a_thin_tail_gives_every_write_in_arrival_order_then_the_live_top_up() {
        let sample = ids(&replace_sample(&tail(5), &run(1_000..1_100), 16));
        let want: Vec<u32> = [4, 3, 2, 1, 0].into_iter().chain((1_000..1_100).step_by(9)).collect();
        assert_eq!(sample, want);
    }

    /// A zero cap counts as 1, as the build sample's step does.
    #[test]
    fn an_empty_tail_and_a_zero_cap_do_not_panic() {
        let (none, live) = (KeyRun::with_capacity(0, 0), run(1_000..1_010));
        assert!(replace_sample(&none, &none, 16).is_empty());
        assert!(replace_sample(&none, &none, 0).is_empty());
        assert_eq!(ids(&replace_sample(&none, &live, 0)), [1_000]);
        assert_eq!(ids(&replace_sample(&tail(3), &live, 0)), [2]);
        assert_eq!(ids(&replace_sample(&none, &live, 4)), [1_000, 1_002, 1_004, 1_006, 1_008]);
    }

    #[test]
    fn baseline_is_held_out_when_the_sample_splits() {
        let cfg = StoreConfig { scheme: hope::Scheme::ThreeGrams, ..StoreConfig::default() };
        let total = CodecTotal::default();
        let sample: Vec<Vec<u8>> = (0..800u32)
            .map(|i| format!("com.gmail@user{:05}", i * 7919 % 100_000).into())
            .collect();
        let dict = train(&cfg, &sample, &total).unwrap();
        // The baseline is exactly the CPR on every 8th key …
        let held: Vec<&Vec<u8>> = sample.iter().skip(7).step_by(8).collect();
        assert_eq!(dict.baseline_cpr, stats::measure(&dict.hope, &held).cpr());
        // … which the dictionary never saw, so it reads below in-sample.
        let seen: Vec<&Vec<u8>> =
            sample.iter().enumerate().filter(|(i, _)| i % 8 != 7).map(|(_, k)| k).collect();
        assert!(dict.baseline_cpr < stats::measure(&dict.hope, &seen).cpr());

        // Too small to split, and the empty-sample fallback: in-sample.
        let small = &sample[..MIN_SPLIT_SAMPLE - 1];
        let dict = train(&cfg, small, &total).unwrap();
        assert_eq!(dict.baseline_cpr, stats::measure(&dict.hope, small).cpr());
        let dict = train(&cfg, &[], &total).unwrap();
        assert_eq!(dict.baseline_cpr, stats::measure(&dict.hope, &default_sample()).cpr());
    }

    #[test]
    fn counters_publish_once_and_the_last_holder_publishes_the_rest() {
        let total = CodecTotal::default();
        let dict = train(&StoreConfig::default(), &[], &total).unwrap();
        let trained = dict.hope.codec_stats().encode_keys;
        dict.hope.encode(b"hope-default-0001");
        dict.publish_codec_stats();
        dict.publish_codec_stats();
        assert_eq!(lock(&total).encode_keys, trained + 1, "a second publish adds nothing");

        dict.hope.encode(b"hope-default-0002");
        let second_holder = Arc::clone(&dict);
        drop(dict);
        assert_eq!(lock(&total).encode_keys, trained + 1, "still held");
        drop(second_holder);
        assert_eq!(lock(&total).encode_keys, trained + 2);
    }
}
