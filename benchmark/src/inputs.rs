//! Seed → inputs: the key pool, the op streams, and the shadow map every
//! result is checked against. The seed reaches only these generators; the
//! store always runs with `StoreConfig::default().seed`.

use std::collections::BTreeMap;
use std::ops::Bound;

use hope_workloads::{generate, generate_email_split};

use crate::spec::{Mix, Scale, Workload};

/// SplitMix64 — the generator `hope_workloads` uses, kept local because
/// that crate does not export it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// these sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Fresh (never loaded) key ids, handed out in order.
#[derive(Debug)]
pub struct Supply {
    ids: Vec<u32>,
    next: usize,
}

impl Supply {
    pub fn take(&mut self) -> u32 {
        let id = *self.ids.get(self.next).expect("fresh-key supply sized too small (a bug)");
        self.next += 1;
        id
    }
}

/// Everything a run needs that depends on the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The key pool. A key's id is its index; its value in the store and
    /// in the shadow map is always its id, so values identify keys.
    pub keys: Vec<Vec<u8>>,
    /// Ids `0..load` are the bulk load.
    pub load: usize,
    /// Load ids in key order — scans pick `[i, i + L)` of it, so a scan
    /// has at least `L` keys in range and returns exactly `L` hits.
    pub sorted_load: Vec<u32>,
}

/// The fresh keys of a run, split off [`Inputs`] so phases can draw from
/// them while the shadow map borrows the key pool.
#[derive(Debug)]
pub struct Fresh {
    /// Fresh keys of the load's population.
    pub main: Supply,
    /// Fresh keys of the drifted population (Email-B); empty unless the
    /// workload drifts.
    pub shifted: Supply,
}

/// Upper bound on the fresh keys a run consumes, per population:
/// `(load population, shifted population)`. Random mixes are bounded by
/// their expectation plus a 10 % margin.
fn fresh_demand(w: &Workload, scale: &Scale) -> (usize, usize) {
    let pct = |ops: usize| ops * w.mix.insert_pct as usize / 100 * 11 / 10 + 64;
    // The traced run adds one batch timed per operation.
    let insert_phase = (scale.rounds + 2) * insert_batch(w, scale);
    let mix = pct((scale.rounds + 1) * scale.of(w.mix_round_ops));
    // Served (traced run): six paced seconds, counting the window at
    // twice the rate as two, and one saturated window.
    let served = pct(7 * scale.of(w.served_rate as usize) + scale.of(w.served_window_ops));
    if w.drift {
        (insert_phase + mix / 2 + 64, mix / 2 + 64 + served)
    } else {
        (insert_phase + mix + served, 0)
    }
}

/// Keys per timed round of the insert phase: a fiftieth of the load, and
/// at least the 5 000 that keep a round near 20 ms.
pub fn insert_batch(w: &Workload, scale: &Scale) -> usize {
    (scale.of(w.keys) / 50).max(scale.of(5_000))
}

impl Inputs {
    pub fn generate(w: &Workload, scale: &Scale, seed: u64) -> (Inputs, Fresh) {
        let load = scale.of(w.keys);
        let (need, need_shifted) = fresh_demand(w, scale);
        let (keys, fresh, fresh_shifted) = if w.drift {
            // Email-A is a little under 25 % of the generator's output and
            // Email-B the rest; size the draw for whichever side needs more.
            let budget = ((load + need) * 5).max(need_shifted * 3 / 2) + 1000;
            let (mut a, b) = generate_email_split(budget, seed);
            assert!(
                a.len() >= load + need,
                "Email-A pool too small: {} < {}",
                a.len(),
                load + need
            );
            assert!(b.len() >= need_shifted, "Email-B pool too small");
            a.truncate(load + need);
            let shifted_from = a.len() as u32;
            a.extend(b.into_iter().take(need_shifted));
            let fresh = (load as u32..shifted_from).collect();
            let shifted = (shifted_from..a.len() as u32).collect();
            (a, fresh, shifted)
        } else {
            let keys = generate(w.dataset, load + need, seed);
            let fresh = (load as u32..keys.len() as u32).collect();
            (keys, fresh, Vec::new())
        };
        let mut sorted_load: Vec<u32> = (0..load as u32).collect();
        sorted_load.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        let fresh = Fresh {
            main: Supply { ids: fresh, next: 0 },
            shifted: Supply { ids: fresh_shifted, next: 0 },
        };
        (Inputs { keys, load, sorted_load }, fresh)
    }

    pub fn key(&self, id: u32) -> &[u8] {
        &self.keys[id as usize]
    }

    /// The bulk load as owned `(key, value)` pairs, as `HopeStore::build`
    /// takes them.
    pub fn load_pairs(&self) -> Vec<(Vec<u8>, u64)> {
        self.keys[..self.load].iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect()
    }

    /// Bounds of the scan that starts at sorted position `lo` and spans
    /// `len` loaded keys.
    pub fn scan_bounds(&self, lo: u32, len: usize) -> (&[u8], &[u8]) {
        let lo = lo as usize;
        (self.key(self.sorted_load[lo]), self.key(self.sorted_load[lo + len - 1]))
    }
}

/// One operation of a stream, by key id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u32),
    Insert(u32),
    /// Scan from sorted-load position `lo` over `Mix::scan_len` loaded
    /// keys, with that many hits as the limit.
    Scan(u32),
}

/// Draws op streams. Gets pick uniformly among keys present at that point
/// of the stream (loaded, or inserted earlier by this generator), so every
/// get is a hit and no operation fails on a healthy store.
#[derive(Debug)]
pub struct OpGen {
    rng: Rng,
    mix: Mix,
    present: Vec<u32>,
    scan_starts: usize,
}

impl OpGen {
    pub fn new(inputs: &Inputs, mix: Mix, seed: u64) -> OpGen {
        assert!(inputs.load >= mix.scan_len, "load smaller than one scan");
        OpGen {
            rng: Rng::new(seed),
            mix,
            present: (0..inputs.load as u32).collect(),
            scan_starts: inputs.load - mix.scan_len + 1,
        }
    }

    /// `n` uniform gets of present keys.
    pub fn gets(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.present[self.rng.below(self.present.len())]).collect()
    }

    /// `n` scan start positions.
    pub fn scans(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.rng.below(self.scan_starts) as u32).collect()
    }

    /// `n` ops of the workload's mix, inserts drawing from `supply`.
    pub fn mixed(&mut self, n: usize, supply: &mut Supply) -> Vec<Op> {
        (0..n)
            .map(|_| {
                let r = self.rng.below(100) as u32;
                if r < self.mix.get_pct {
                    Op::Get(self.present[self.rng.below(self.present.len())])
                } else if r < self.mix.get_pct + self.mix.insert_pct {
                    let id = supply.take();
                    self.present.push(id);
                    Op::Insert(id)
                } else {
                    Op::Scan(self.rng.below(self.scan_starts) as u32)
                }
            })
            .collect()
    }
}

/// Order-sensitive digest of a scan's hits. The store side folds hits in
/// its visitor callback; the shadow side folds the expected hits; equal
/// digests mean the same keys (values identify keys) in the same order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanDigest {
    pub hits: u64,
    pub key_bytes: u64,
    acc: u64,
}

impl ScanDigest {
    #[inline]
    pub fn fold(&mut self, key: &[u8], value: u64) {
        self.hits += 1;
        self.key_bytes += key.len() as u64;
        let edges = (key.first().copied().unwrap_or(0) as u64) << 8
            | key.last().copied().unwrap_or(0) as u64;
        self.acc =
            (self.acc.rotate_left(7) ^ value ^ (edges << 40)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// The digest as one word, for the per-op outcome log.
    pub fn word(&self) -> u64 {
        self.acc ^ self.hits.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ self.key_bytes << 20
    }
}

/// Outcome words for results that carry no value.
pub const NONE: u64 = u64::MAX;
/// The store returned an error.
pub const ERROR: u64 = u64::MAX - 1;

/// One result as a word: the value, [`NONE`], or [`ERROR`].
pub fn outcome<E>(r: Result<Option<u64>, E>) -> u64 {
    match r {
        Ok(Some(v)) => v,
        Ok(None) => NONE,
        Err(_) => ERROR,
    }
}

/// The shadow map: an uncompressed `BTreeMap` holding what the store must
/// hold. Keys borrow from the input pool.
#[derive(Debug)]
pub struct Shadow<'k> {
    map: BTreeMap<&'k [u8], u64>,
}

impl<'k> Shadow<'k> {
    /// A shadow of the bulk load.
    pub fn of_load(inputs: &'k Inputs) -> Shadow<'k> {
        let map = inputs.keys[..inputs.load]
            .iter()
            .enumerate()
            .map(|(i, k)| (k.as_slice(), i as u64))
            .collect();
        Shadow { map }
    }

    pub fn get(&self, key: &[u8]) -> u64 {
        self.map.get(key).copied().unwrap_or(NONE)
    }

    /// Insert; returns the outcome word an insert into the store must
    /// produce (the previous value, or [`NONE`]).
    pub fn insert(&mut self, key: &'k [u8], value: u64) -> u64 {
        self.map.insert(key, value).unwrap_or(NONE)
    }

    pub fn scan(&self, low: &[u8], high: &[u8], limit: usize) -> ScanDigest {
        let mut d = ScanDigest::default();
        let bounds = (Bound::Included(low), Bound::Included(high));
        for (k, v) in self.map.range::<[u8], _>(bounds).take(limit) {
            d.fold(k, *v);
        }
        d
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Σ (key bytes + 8 value bytes) — the user's data, the denominator
    /// of `stored_per_user_byte`.
    pub fn user_bytes(&self) -> usize {
        self.map.keys().map(|k| k.len() + 8).sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'k [u8], u64)> + '_ {
        self.map.iter().map(|(k, v)| (*k, *v))
    }
}
