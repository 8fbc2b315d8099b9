//! Compile-time thread-safety contract of the encode/decode pipeline.
//!
//! A built HOPE dictionary is immutable, so every stage must be shareable
//! across threads (`Send + Sync`): the `hope_store` serving layer parks a
//! `Hope` behind an `Arc` epoch handle and reads it from many threads at
//! once. These assertions are evaluated by the compiler — if a field ever
//! regresses to a non-thread-safe type (`Rc`, `Cell`, raw pointers without
//! impls), this test stops building rather than failing at runtime.

use hope::decoder::Decoder;
use hope::dict::{ArtDict, BitmapTrieDict, Dict, DoubleCharDict, SingleCharDict, SortedDict};
use hope::{Encoder, FastDecoder, Hope, HopeBuilder, HopeError, OrderedIndex, Scheme};

fn assert_send_sync<T: Send + Sync + ?Sized>() {}

#[test]
fn encoder_and_decoder_are_send_sync() {
    assert_send_sync::<Encoder>();
    assert_send_sync::<Decoder>();
    assert_send_sync::<FastDecoder>();
    assert_send_sync::<Hope>();
    assert_send_sync::<HopeError>();
}

#[test]
fn v1_trait_objects_are_send_sync() {
    // The generic index contract is usable behind shared references from
    // many threads.
    assert_send_sync::<dyn OrderedIndex<u64>>();
    assert_send_sync::<dyn OrderedIndex<Vec<u8>>>();
    assert_send_sync::<Box<dyn OrderedIndex<u64>>>();
}

#[test]
fn all_dictionary_structures_are_send_sync() {
    // The four Table-1 dictionary structures…
    assert_send_sync::<SingleCharDict>();
    assert_send_sync::<DoubleCharDict>();
    assert_send_sync::<BitmapTrieDict>();
    assert_send_sync::<ArtDict>();
    // …plus the binary-search baseline and the dispatch wrapper.
    assert_send_sync::<SortedDict>();
    assert_send_sync::<Dict>();
}

/// Beyond the compile-time assertion: actually share one compressor across
/// threads and check every thread sees identical encodings.
#[test]
fn hope_encodes_identically_from_many_threads() {
    let sample: Vec<Vec<u8>> =
        (0..200).map(|i| format!("com.gmail@user{i:03}").into_bytes()).collect();
    let hope = std::sync::Arc::new(
        HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample).unwrap(),
    );
    let want = hope.encode(b"com.gmail@probe");
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let h = std::sync::Arc::clone(&hope);
            let want = want.clone();
            std::thread::spawn(move || {
                for _ in 0..100 {
                    assert_eq!(h.encode(b"com.gmail@probe"), want);
                }
            })
        })
        .collect();
    for t in handles {
        t.join().unwrap();
    }
}
