//! The one random generator and the hostile key families the model tests
//! share (`index_model`, `store_model`) and `order_preservation` draws its
//! fixed hostile set from.
//!
//! The keys are drawn to break whatever holds them: bytes from a hostile
//! alphabet (`0x00`, `0x01`, `a`, `0xfe`, `0xff`) and random bytes; keys
//! whose 8-byte B+tree heads tie (`a`, `a\0`, `a\0…\0\x01`, and keys
//! sharing an 8-byte run past a common stem) or whose 4-byte HOT leaf
//! heads tie (a 4-byte run past another stem); prefix chains; the empty
//! key; `stem + 0x00^k` families, which a dictionary trained on 0x00 runs
//! encodes as repeats of its shortest, smallest code; and a few keys of
//! 64 KiB and more, so a node's byte offsets overflow a `u16`.

#![allow(dead_code)] // each test crate uses its own part of the module

/// splitmix64: every model program draws from its own seed, and a failure
/// names that seed (the vendored proptest shim does not shrink).
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

pub const HOSTILE: [u8; 5] = [0x00, 0x01, b'a', 0xfe, 0xff];

/// A stem that runs of 8 shared bytes follow.
const STEM: &[u8] = b"\x01stem";

/// A stem that runs of 4 shared bytes follow.
const STEM4: &[u8] = b"\x01hot";

/// A long stem: loads of hundreds of keys under it make a compound node
/// of HOT skip bytes, and keys that leave it at every depth drop them.
pub const LONG_STEM: &[u8] = b"\x01long/shared/stem/of/a/loaded/trie/";

/// Stems of the `stem + 0x00^k` families ([`zero_padded`]).
pub const ZERO_STEMS: [&[u8]; 6] = [b"a", b"ab", b"b", b"m", b"mz", b"z"];

/// A few hostile bytes.
pub fn hostile_tail(rng: &mut Rng, most: usize) -> impl Iterator<Item = u8> + '_ {
    (0..rng.below(most + 1)).map(|_| HOSTILE[rng.below(HOSTILE.len())])
}

/// A key under [`LONG_STEM`]: a hostile byte or two and a counter, so
/// loads of hundreds of them are mostly distinct.
pub fn long_stem_key(rng: &mut Rng) -> Vec<u8> {
    let mut k = LONG_STEM.to_vec();
    k.extend(hostile_tail(rng, 2));
    k.extend_from_slice(format!("{:04}", rng.below(10_000)).as_bytes());
    k
}

/// `stem` followed by `zeros` 0x00 bytes.
pub fn zero_padded(stem: &[u8], zeros: usize) -> Vec<u8> {
    let mut k = stem.to_vec();
    k.resize(stem.len() + zeros, 0);
    k
}

/// A short name for a key in a failure message (long keys are not
/// printed whole).
pub fn show(k: &[u8]) -> String {
    if k.len() <= 48 {
        format!("{k:?}")
    } else {
        format!("{:?}…({} B)", &k[..16], k.len())
    }
}

/// One key from the families above.
pub fn key(rng: &mut Rng) -> Vec<u8> {
    match rng.below(100) {
        0..=3 => Vec::new(),
        4..=27 => hostile_tail(rng, 11).collect(),
        28..=39 => (0..rng.below(20)).map(|_| rng.next() as u8).collect(),
        // Heads tie in zero padding: `a`, `a\0`, `a\0\0`, …, `a\0…\0\x01`.
        40..=51 => {
            let mut k = zero_padded(b"a", rng.below(12));
            if rng.below(2) == 0 {
                k.push(0x01);
            }
            k
        }
        // 8-byte heads tie past the stem: one of two 8-byte runs, then a
        // tail.
        52..=65 => {
            let run = if rng.below(2) == 0 { [b'r'; 8] } else { [0xff; 8] };
            let tail: Vec<u8> = hostile_tail(rng, 3).collect();
            STEM.iter().copied().chain(run).chain(tail).collect()
        }
        // 4-byte heads tie past the stem: one 4-byte run, then a tail.
        66..=77 => {
            let tail: Vec<u8> = hostile_tail(rng, 4).collect();
            STEM4.iter().copied().chain([b'r'; 4]).chain(tail).collect()
        }
        // Under the long stem, or leaving it at some depth.
        78..=87 => {
            if rng.below(2) == 0 {
                long_stem_key(rng)
            } else {
                let mut k = LONG_STEM[..rng.below(LONG_STEM.len())].to_vec();
                k.extend(hostile_tail(rng, 3));
                k
            }
        }
        // A prefix chain.
        88..=98 => b"\x00a\xffchain\x00\x00a\x01\xfe"[..rng.below(14)].to_vec(),
        // 64 KiB and more; four of them differ only at their far end.
        _ => {
            let mut k = vec![0x61; 65_536 + rng.below(64)];
            k.push(HOSTILE[rng.below(4)]);
            k
        }
    }
}

/// A fixed set built to collide under zero padding: the empty key, `0x00`
/// and `0xFF` runs, chains that differ only in trailing `0x00` bytes (with
/// and without a `0x01` after them), and 20 000 short keys over a
/// four-byte alphabet, so near-every pair shares a long prefix.
pub fn hostile_keys() -> Vec<Vec<u8>> {
    let mut keys = vec![Vec::new()];
    for n in 1..=40 {
        keys.push(vec![0x00; n]);
        keys.push(vec![0xFF; n]);
    }
    for stem in [&b""[..], b"a", b"ab", b"\x00a", b"\xff", b"com.gmail@"] {
        for zeros in 0..12 {
            let mut key = zero_padded(stem, zeros);
            keys.push(key.clone());
            key.push(0x01);
            keys.push(key);
        }
    }
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for _ in 0..20_000 {
        let len = rng.below(13);
        keys.push((0..len).map(|_| *rng.pick(&[0x00, 0x01, b'a', 0xFF])).collect());
    }
    keys
}
