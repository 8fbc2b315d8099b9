//! Quickstart: build a HOPE compressor from sampled keys, encode new keys
//! order-preservingly, and verify losslessness with the decoder.
//!
//! Run: `cargo run --release --example quickstart`

use hope::prelude::*;

fn main() {
    // 1. Sample keys the way a DBMS would at index-creation time.
    let sample: Vec<Vec<u8>> = [
        "com.gmail@alice",
        "com.gmail@bob",
        "com.gmail@carol",
        "com.yahoo@dave",
        "com.yahoo@erin",
        "org.acm@frank",
        "net.github@grace",
        "com.gmail@heidi",
        "com.outlook@ivan",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();

    // 2. Build a Double-Char compressor (the paper's sweet spot between
    //    compression rate and encoding speed).
    let hope =
        HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample.clone()).expect("build");
    println!(
        "built {} with {} dictionary entries ({} KB)",
        hope.scheme(),
        hope.dict_entries(),
        hope.dict_memory_bytes() / 1024
    );

    // 3. Encode keys — including keys never seen in the sample. Any HOPE
    //    dictionary encodes arbitrary keys (completeness, §3.1).
    let keys = [
        "com.gmail@aaron",
        "com.gmail@zoe",
        "com.hotmail@newcomer",
        "org.acm@turing",
        "zz.unseen@pattern",
    ];
    let mut encoded: Vec<_> = keys.iter().map(|k| hope.encode(k.as_bytes())).collect();

    for (k, e) in keys.iter().zip(&encoded) {
        println!("{k:24} {:2}B -> {:2}B ({} bits)", k.len(), e.byte_len(), e.bit_len());
    }

    // 4. Order is preserved: sorting encodings sorts the original keys.
    //    `Hope::decode_to` is fallible: corruption would surface as an
    //    error, not a panic.
    encoded.sort();
    let mut scratch = DecodeScratch::new();
    let decoded: Vec<String> = encoded
        .iter()
        .map(|e| {
            let back = hope.decode_to(e.as_bytes(), e.bit_len(), &mut scratch).expect("lossless");
            String::from_utf8(back.to_vec()).expect("utf8")
        })
        .collect();
    println!("\nsorted by encoding: {decoded:?}");
    let mut expect: Vec<String> = keys.iter().map(|s| s.to_string()).collect();
    expect.sort();
    assert_eq!(decoded, expect, "order preservation violated");
    println!("order preserved ✓  lossless ✓");
}
