//! One 4-byte payload word per dictionary entry, shared by the ART and the
//! bitmap trie (§4.2: "leaves store codes"): `code bits << 10 | symbol
//! length << 5 | code length`. Codes of 1–22 bits and symbols of at most
//! 31 bytes fit: ALM symbols are at most 8 bytes and ALM-Improved's 16,
//! and trained on the store's 2 048-key sample no code on Email, Wiki or
//! URL is longer. An entry that does not fit — a 20 k-key URL sample
//! gives 13 % of ALM-Improved's entries codes of 23–25 bits — *escapes*:
//! its word has code length 0, and its bits index a side list of
//! `(Code, symbol length)`.

use crate::axis::IntervalSet;
use crate::bitpack::Code;

/// Longest code a payload word holds.
pub(super) const MAX_CODE_LEN: u8 = 22;

/// Longest symbol a payload word holds.
pub(super) const MAX_SYMBOL_LEN: usize = 31;

/// The `(code, symbol length)` of every entry, in interval order.
#[derive(Debug)]
pub(super) struct Payloads {
    words: Box<[u32]>,
    /// The escaped entries, in interval order.
    wide: Box<[(Code, usize)]>,
}

impl Payloads {
    /// Pack each interval's code and symbol length.
    pub(super) fn new(set: &IntervalSet, codes: &[Code]) -> Self {
        let mut wide = Vec::new();
        let words = codes
            .iter()
            .zip(set.iter())
            .map(|(&c, (_, sym_len))| {
                if (1..=MAX_CODE_LEN).contains(&c.len) && sym_len <= MAX_SYMBOL_LEN {
                    (c.bits as u32) << 10 | (sym_len as u32) << 5 | u32::from(c.len)
                } else {
                    wide.push((c, sym_len));
                    assert!(wide.len() <= 1 << 27, "escapes past the word's 27 index bits");
                    ((wide.len() - 1) as u32) << 5
                }
            })
            .collect();
        Payloads { words, wide: wide.into_boxed_slice() }
    }

    /// Entry `i`'s code and symbol length.
    #[inline]
    pub(super) fn get(&self, i: usize) -> (Code, usize) {
        let e = self.words[i];
        match e & 0x1F {
            0 => self.wide[(e >> 5) as usize],
            len => (Code { bits: u64::from(e >> 10), len: len as u8 }, (e >> 5 & 0x1F) as usize),
        }
    }

    /// Number of entries.
    pub(super) fn len(&self) -> usize {
        self.words.len()
    }

    /// Number of escaped entries.
    #[cfg(test)]
    pub(super) fn escaped(&self) -> usize {
        self.wide.len()
    }

    /// Bytes of the words and the side list.
    pub(super) fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words) + std::mem::size_of_val(&*self.wide)
    }
}
