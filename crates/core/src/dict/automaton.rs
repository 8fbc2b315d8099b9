//! Prefix automaton: the bitmap trie's floor lookup flattened into a dense
//! `state × next byte → entry` table (3-Grams / 4-Grams only).
//!
//! A state is a byte prefix along which the lookup outcome is still
//! undecided; an entry either *advances* to a deeper state, *emits* a
//! pack-ready `(code, length, symbol length)` triple (no dictionary
//! boundary extends the prefix, so the floor interval is determined), or
//! marks a *fallback* edge. States are allocated breadth-first up to the
//! state budget (2 KiB per state), so the shallowest — hottest — prefixes
//! always get rows; cold tails past the budget, over-long codes and
//! over-long symbols resolve through a fallback edge, which the owning
//! [`BitmapTrieDict`](super::BitmapTrieDict) answers with its trie walk.
//! The per-symbol cost is one dependent table load per matched byte: no
//! bitmap ranks, no payload-array loads.
//!
//! This is the one table kept beyond the paper's Table 1 structures: it
//! pays end to end (DESIGN.md, "One structure per scheme"). ALM's ART got
//! the same treatment once and it bought nothing, so it is gone.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::axis::IntervalSet;
use crate::bitpack::Code;

/// Default cap on the number of states. One state is a 256-entry row of
/// 8-byte entries, so 16 384 states bound the table at 32 MiB. The n-gram
/// dictionaries sit far below the ceiling (on the email corpus a 64K-entry
/// 4-Grams dictionary wants ~4.5K states and a 3-Grams ~800, both fully
/// tabled with zero fallback edges).
pub(super) const AUTOMATON_STATE_BUDGET: usize = 16_384;

/// Maximum code length an `(bits << 16) | (sym << 8) | len` emit entry can
/// hold with the advance flag (bit 63) left clear.
const MAX_CODE_LEN: u8 = 46;

/// Entry tag: bit 63 set = advance to the state in the low bits.
const ADVANCE_FLAG: u64 = 1 << 63;

/// Entry sentinel: resolve this symbol through the trie walk (state budget
/// exceeded, or unpackable code/symbol).
const FALLBACK: u64 = u64::MAX;

/// Pack an emit entry, or [`FALLBACK`] when the code or symbol does not fit.
fn pack_emit(c: Code, sym_len: usize) -> u64 {
    debug_assert!(sym_len >= 1, "symbols are non-empty (§3.2)");
    if c.len <= MAX_CODE_LEN && sym_len <= u8::MAX as usize {
        (c.bits << 16) | ((sym_len as u64) << 8) | c.len as u64
    } else {
        FALLBACK
    }
}

/// Unpack an emit entry into `(code, source bytes consumed)`.
#[inline]
fn unpack_emit(e: u64) -> (Code, usize) {
    debug_assert_eq!(e & ADVANCE_FLAG, 0);
    (Code { bits: e >> 16, len: (e & 0xFF) as u8 }, ((e >> 8) & 0xFF) as usize)
}

/// The flattened floor lookup of one interval division.
#[derive(Debug)]
pub(super) struct Automaton {
    /// `trans[(state << 8) | byte]`: emit / advance / fallback entry.
    trans: Box<[u64]>,
    /// Per-state emit entry used when the source ends exactly at the
    /// state's prefix (the dictionary's terminator case).
    exhaust: Box<[u64]>,
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
    /// bytes. Edges past the state budget, and entries whose code or
    /// symbol cannot be packed, become fallback edges.
    pub(super) fn build(set: &IntervalSet, codes: &[Code], max_states: usize) -> Automaton {
        assert_eq!(set.len(), codes.len());
        // Work list doubles as the state table: processing order == id
        // order, so transition rows land at `state * 256` in BFS order.
        // Each state carries its prefix and the index range of boundaries
        // that strictly extend it.
        let mut states: Vec<(Vec<u8>, usize, usize)> = vec![(Vec::new(), 0, set.len())];
        let mut trans: Vec<u64> = Vec::new();
        let mut exhaust: Vec<u64> = Vec::new();
        let mut q = Vec::new();
        let mut s = 0usize;
        while s < states.len() {
            let (prefix, lo, hi) = states[s].clone();
            let d = prefix.len();
            // Source ends exactly at this prefix: emit its floor interval.
            // (The root's entry is never consulted: a lookup always reads
            // at least one byte before it can exhaust the source.)
            exhaust.push(if d == 0 {
                FALLBACK
            } else {
                let f = set.floor_index(&prefix);
                pack_emit(codes[f], set.symbol_len(f))
            });
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
                        ADVANCE_FLAG | (states.len() - 1) as u64
                    } else {
                        FALLBACK
                    }
                } else {
                    // No boundary extends `q`: every source with this
                    // prefix shares floor(q), and its symbol is at most
                    // |q| bytes, so the emit is exact.
                    let f = set.floor_index(&q);
                    debug_assert!(set.symbol_len(f) <= q.len());
                    pack_emit(codes[f], set.symbol_len(f))
                };
                i = j;
            }
            debug_assert_eq!(i, hi);
            s += 1;
        }
        Automaton {
            trans: trans.into_boxed_slice(),
            exhaust: exhaust.into_boxed_slice(),
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
                return Some(unpack_emit(e));
            }
            if e == FALLBACK {
                return self.fallback();
            }
            state = (e & !ADVANCE_FLAG) as usize;
        }
        match self.exhaust[state] {
            FALLBACK => self.fallback(),
            e => Some(unpack_emit(e)),
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

    /// Bytes of memory used by the two tables.
    pub(super) fn memory_bytes(&self) -> usize {
        (self.trans.len() + self.exhaust.len()) * 8
    }
}
