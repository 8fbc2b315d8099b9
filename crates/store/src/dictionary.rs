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
