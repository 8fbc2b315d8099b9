//! Compression-quality and encoder-behaviour invariants at integration
//! scale: CPR thresholds per scheme, batch/individual equality, lossless
//! round trips, and the scheme ordering the paper reports.

use hope::{stats, HopeBuilder, Scheme};
use hope_workloads::{generate, sample_keys, Dataset};

fn build(scheme: Scheme, sample: &[Vec<u8>], dict: usize) -> hope::Hope {
    HopeBuilder::new(scheme)
        .dictionary_entries(dict)
        .build_from_sample(sample.iter().cloned())
        .expect("build")
}

#[test]
fn every_scheme_compresses_every_dataset() {
    for dataset in Dataset::ALL {
        let keys = generate(dataset, 5000, 23);
        let sample = sample_keys(&keys, 20.0, 1);
        for scheme in Scheme::ALL {
            let hope = build(scheme, &sample, 1 << 14);
            let st = stats::measure(&hope, &keys);
            assert!(st.cpr() > 1.1, "{dataset}/{scheme}: cpr {:.3} (no compression)", st.cpr());
        }
    }
}

#[test]
fn higher_order_schemes_beat_single_char() {
    // Figure 8's headline ordering: Double-Char > Single-Char, and the
    // VIVC schemes (at 16K entries) > Double-Char.
    for dataset in Dataset::ALL {
        let keys = generate(dataset, 5000, 29);
        let sample = sample_keys(&keys, 20.0, 2);
        let single = stats::measure(&build(Scheme::SingleChar, &sample, 256), &keys).cpr();
        let double = stats::measure(&build(Scheme::DoubleChar, &sample, 0x10100), &keys).cpr();
        let four = stats::measure(&build(Scheme::FourGrams, &sample, 1 << 14), &keys).cpr();
        assert!(double > single, "{dataset}: double {double:.3} <= single {single:.3}");
        assert!(four > double, "{dataset}: 4-grams {four:.3} <= double {double:.3}");
    }
}

#[test]
fn larger_dictionaries_do_not_hurt_vivc_compression() {
    let keys = generate(Dataset::Email, 5000, 31);
    let sample = sample_keys(&keys, 50.0, 3);
    for scheme in [Scheme::ThreeGrams, Scheme::FourGrams] {
        let small = stats::measure(&build(scheme, &sample, 1 << 10), &keys).cpr();
        let large = stats::measure(&build(scheme, &sample, 1 << 14), &keys).cpr();
        assert!(
            large >= small * 0.98,
            "{scheme}: cpr fell from {small:.3} to {large:.3} with a larger dict"
        );
    }
}

#[test]
fn batch_encoding_equals_individual_on_real_data() {
    let mut keys = generate(Dataset::Email, 3000, 37);
    keys.sort();
    let sample = sample_keys(&keys, 20.0, 4);
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    for scheme in Scheme::ALL {
        let hope = build(scheme, &sample, 1 << 12);
        for bs in [2usize, 8, 32] {
            let batch = hope.encode_batch(&refs, bs);
            for (k, e) in refs.iter().zip(&batch) {
                assert_eq!(e, &hope.encode(k), "{scheme} bs={bs}");
            }
        }
    }
}

#[test]
fn lossless_roundtrip_on_all_datasets() {
    for dataset in Dataset::ALL {
        let keys = generate(dataset, 2000, 41);
        let sample = sample_keys(&keys, 20.0, 5);
        for scheme in Scheme::ALL {
            let hope = build(scheme, &sample, 1 << 12);
            let dec = hope.decoder();
            for k in keys.iter().step_by(17) {
                let e = hope.encode(k);
                assert_eq!(
                    dec.decode(e.as_bytes(), e.bit_len()).as_deref(),
                    Ok(k.as_slice()),
                    "{dataset}/{scheme}: roundtrip of {k:?}"
                );
            }
        }
    }
}

#[test]
fn dictionary_correctness_is_sample_independent() {
    // §4.1: the sample only affects the compression rate, never
    // correctness. Build from a *mismatched* sample and verify ordering
    // and losslessness still hold on a foreign dataset.
    let wiki_sample = sample_keys(&generate(Dataset::Wiki, 2000, 43), 50.0, 6);
    let urls = generate(Dataset::Url, 1500, 47);
    for scheme in Scheme::ALL {
        let hope = build(scheme, &wiki_sample, 1 << 12);
        let dec = hope.decoder();
        let mut enc: Vec<(hope::EncodedKey, &Vec<u8>)> =
            urls.iter().map(|k| (hope.encode(k), k)).collect();
        enc.sort_by(|a, b| a.0.cmp(&b.0));
        let mut expect: Vec<&Vec<u8>> = urls.iter().collect();
        expect.sort();
        assert_eq!(
            enc.iter().map(|(_, k)| *k).collect::<Vec<_>>(),
            expect,
            "{scheme}: order broke on foreign keys"
        );
        for (e, k) in enc.iter().step_by(97) {
            let back = dec.decode(e.as_bytes(), e.bit_len());
            assert_eq!(back.as_deref(), Ok(k.as_slice()), "{scheme}");
        }
    }
}

#[test]
fn build_timings_are_populated() {
    let keys = generate(Dataset::Email, 2000, 53);
    let sample = sample_keys(&keys, 50.0, 7);
    for scheme in Scheme::ALL {
        let hope = build(scheme, &sample, 1 << 12);
        let t = hope.timings();
        assert!(t.total().as_nanos() > 0, "{scheme}");
        assert!(t.symbol_select.as_nanos() > 0, "{scheme}: selector untimed");
    }
}
