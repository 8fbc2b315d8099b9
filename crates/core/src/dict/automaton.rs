//! Prefix automaton: the bitmap trie's floor lookup flattened into a dense
//! `state × next byte → entry` table (3-Grams / 4-Grams only).
//!
//! A state is a byte prefix along which the lookup outcome is still
//! undecided; a 4-byte entry either *advances* to a deeper state, *emits*
//! a pack-ready `(code, length, symbol length)` triple (no dictionary
//! boundary extends the prefix, so the floor interval is determined), or
//! marks a *fallback* edge. An emit whose code or symbol is too long for
//! the word escapes to a side list, so every symbol a row reaches is
//! answered by the table. States are allocated breadth-first up to the
//! state budget (1 KiB per state), so the shallowest — hottest — prefixes
//! always get rows; cold tails past the budget resolve through a fallback
//! edge, which the owning [`BitmapTrieDict`](super::BitmapTrieDict)
//! answers with its trie walk. The per-symbol cost is one dependent table
//! load per matched byte: no bitmap ranks, no payload-array loads.
//!
//! This is the one table kept beyond the paper's Table 1 structures: it
//! pays end to end (DESIGN.md, "One structure per scheme"). ALM's ART got
//! the same treatment once and it bought nothing, so it is gone.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::axis::IntervalSet;
use crate::bitpack::Code;

/// Default cap on the number of states. One state is a 256-entry row of
/// 4-byte entries, so 16 384 states bound the table at 16 MiB. The n-gram
/// dictionaries sit far below the ceiling (on the email corpus a 64K-entry
/// 4-Grams dictionary wants ~4.5K states and a 3-Grams ~800, both fully
/// tabled with zero fallback edges).
pub(super) const AUTOMATON_STATE_BUDGET: usize = 16_384;

/// Longest code an emit entry `bits << 8 | symbol length << 5 | code
/// length` holds with the advance flag (bit 31) left clear.
const MAX_CODE_LEN: u8 = 23;

/// Longest symbol an emit entry holds.
const MAX_SYMBOL_LEN: usize = 7;

/// Entry tag: bit 31 set = advance to the state in the low bits.
const ADVANCE_FLAG: u32 = 1 << 31;

/// Entry sentinel: resolve this symbol through the trie walk (state budget
/// exceeded).
const FALLBACK: u32 = u32::MAX;

/// The flattened floor lookup of one interval division.
#[derive(Debug)]
pub(super) struct Automaton {
    /// `trans[(state << 8) | byte]`: emit / advance / fallback entry.
    trans: Box<[u32]>,
    /// Per-state emit entry used when the source ends exactly at the
    /// state's prefix (the dictionary's terminator case).
    exhaust: Box<[u32]>,
    /// Emits an entry cannot hold: an emit of code length 0 is the one at
    /// index `entry >> 8` here.
    wide: Box<[(Code, usize)]>,
    /// Times a fallback edge was actually taken (telemetry; relaxed).
    fallback_takes: AtomicU64,
}

impl Automaton {
    /// Flatten an interval division into at most `max_states` transition
    /// rows (breadth-first, shallow prefixes first; a budget of 0 still
    /// gets the root row). `set` must be a valid division (non-empty,
    /// starting at the axis origin), as every dictionary build requires.
    ///
    /// A state is a byte prefix some boundary strictly extends; each
    /// `(state, byte)` entry *advances* when a boundary strictly extends
    /// the extended prefix, and *emits* the floor interval's `(code, symbol
    /// length)` otherwise — then every source sharing that prefix has the
    /// same floor, so the emitted symbol is exact regardless of later
    /// bytes. Edges past the state budget become fallback edges.
    pub(super) fn build(set: &IntervalSet, codes: &[Code], max_states: usize) -> Automaton {
        assert_eq!(set.len(), codes.len());
        // Emit interval `f`: inline, or its side-list index (one per
        // interval, however many edges emit it).
        let (mut wide, mut wide_at) = (Vec::new(), vec![None; set.len()]);
        let mut emit = |f: usize| {
            let (c, sym_len) = (codes[f], set.symbol_len(f));
            debug_assert!(sym_len >= 1, "symbols are non-empty (§3.2)");
            if (1..=MAX_CODE_LEN).contains(&c.len) && sym_len <= MAX_SYMBOL_LEN {
                return (c.bits as u32) << 8 | (sym_len as u32) << 5 | u32::from(c.len);
            }
            *wide_at[f].get_or_insert_with(|| {
                wide.push((c, sym_len));
                assert!(wide.len() <= 1 << 23, "wide emits past the entry's 23 index bits");
                ((wide.len() - 1) as u32) << 8
            })
        };
        // Work list doubles as the state table: processing order == id
        // order, so transition rows land at `state * 256` in BFS order.
        // Each state carries its prefix and the index range of boundaries
        // that strictly extend it.
        let mut states: Vec<(Vec<u8>, usize, usize)> = vec![(Vec::new(), 0, set.len())];
        let mut trans: Vec<u32> = Vec::new();
        let mut exhaust: Vec<u32> = Vec::new();
        let mut q = Vec::new();
        let mut s = 0usize;
        while s < states.len() {
            let (prefix, lo, hi) = states[s].clone();
            let d = prefix.len();
            // Source ends exactly at this prefix: emit its floor interval.
            // (The root's entry is never consulted: a lookup always reads
            // at least one byte before it can exhaust the source.)
            exhaust.push(if d == 0 { FALLBACK } else { emit(set.floor_index(&prefix)) });
            let row = trans.len();
            trans.resize(row + 256, 0);
            // Boundaries in [lo, hi) strictly extend `prefix`, so they are
            // at least d+1 bytes long and sorted by their byte at `d`.
            let mut i = lo;
            for b in 0..256usize {
                let mut j = i;
                while j < hi && set.boundary(j)[d] == b as u8 {
                    j += 1;
                }
                q.clear();
                q.extend_from_slice(&prefix);
                q.push(b as u8);
                // Boundaries strictly extending `q` = the group minus an
                // exact match (which, sorted, can only be the first).
                let eq = i < j && set.boundary(i).len() == d + 1;
                let ext_lo = i + eq as usize;
                trans[row + b] = if ext_lo < j {
                    // The floor of a source with prefix `q` still depends
                    // on later bytes: advance (or fall back past budget).
                    if states.len() < max_states {
                        states.push((q.clone(), ext_lo, j));
                        ADVANCE_FLAG | (states.len() - 1) as u32
                    } else {
                        FALLBACK
                    }
                } else {
                    // No boundary extends `q`: every source with this
                    // prefix shares floor(q), and its symbol is at most
                    // |q| bytes, so the emit is exact.
                    let f = set.floor_index(&q);
                    debug_assert!(set.symbol_len(f) <= q.len());
                    emit(f)
                };
                i = j;
            }
            debug_assert_eq!(i, hi);
            s += 1;
        }
        Automaton {
            trans: trans.into_boxed_slice(),
            exhaust: exhaust.into_boxed_slice(),
            wide: wide.into_boxed_slice(),
            fallback_takes: AtomicU64::new(0),
        }
    }

    /// Resolve the symbol at the head of the (non-empty) `src` to its code
    /// and the bytes it consumes, or `None` when the walk meets a fallback
    /// edge — the caller then asks the trie.
    #[inline]
    pub(super) fn step(&self, src: &[u8]) -> Option<(Code, usize)> {
        let mut state = 0usize;
        for &b in src {
            let e = self.trans[(state << 8) | b as usize];
            if e & ADVANCE_FLAG == 0 {
                return Some(self.emitted(e));
            }
            if e == FALLBACK {
                return self.fallback();
            }
            state = (e & !ADVANCE_FLAG) as usize;
        }
        match self.exhaust[state] {
            FALLBACK => self.fallback(),
            e => Some(self.emitted(e)),
        }
    }

    /// Unpack an emit entry into `(code, source bytes consumed)`.
    #[inline]
    fn emitted(&self, e: u32) -> (Code, usize) {
        debug_assert_eq!(e & ADVANCE_FLAG, 0);
        match e & 0x1F {
            0 => self.wide[(e >> 8) as usize],
            len => (Code { bits: u64::from(e >> 8), len: len as u8 }, (e >> 5 & 7) as usize),
        }
    }

    #[cold]
    fn fallback(&self) -> Option<(Code, usize)> {
        self.fallback_takes.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// `(states, fallback edges)`.
    #[cfg(test)]
    pub(super) fn stats(&self) -> (usize, usize) {
        (self.exhaust.len(), self.trans.iter().filter(|&&e| e == FALLBACK).count())
    }

    /// Times a fallback edge was taken since construction.
    pub(super) fn fallback_takes(&self) -> u64 {
        self.fallback_takes.load(Ordering::Relaxed)
    }

    /// Bytes of memory used by the two tables and the side list.
    pub(super) fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.trans)
            + std::mem::size_of_val(&*self.exhaust)
            + std::mem::size_of_val(&*self.wide)
    }
}
