//! Binary-search dictionary: the baseline the paper compares the bitmap
//! trie against (§4.2 reports the trie is ~2.3× faster). Also serves as the
//! reference implementation the fast structures are differential-tested
//! against.

use super::DictLookup;
use crate::axis::IntervalSet;
use crate::bitpack::Code;

/// Sorted boundary list + parallel code/symbol-length arrays; floor lookup
/// by binary search.
#[derive(Debug)]
pub struct SortedDict {
    boundaries: Vec<Box<[u8]>>,
    code_bits: Vec<u64>,
    code_len: Vec<u8>,
    sym_len: Vec<u16>,
}

impl SortedDict {
    /// Build from an interval set and its assigned codes.
    pub fn build(set: &IntervalSet, codes: &[Code]) -> Self {
        assert_eq!(set.len(), codes.len());
        SortedDict {
            boundaries: (0..set.len()).map(|i| set.boundary(i).into()).collect(),
            code_bits: codes.iter().map(|c| c.bits).collect(),
            code_len: codes.iter().map(|c| c.len).collect(),
            sym_len: (0..set.len()).map(|i| set.symbol_len(i) as u16).collect(),
        }
    }

    /// In-order `(symbol, code)` enumeration.
    pub(super) fn for_each_entry(&self, f: &mut dyn FnMut(&[u8], Code)) {
        for (i, b) in self.boundaries.iter().enumerate() {
            let code = Code { bits: self.code_bits[i], len: self.code_len[i] };
            f(&b[..self.sym_len[i] as usize], code);
        }
    }
}

impl DictLookup for SortedDict {
    #[inline]
    fn lookup(&self, src: &[u8]) -> (Code, usize) {
        debug_assert!(!src.is_empty());
        let idx = self.boundaries.partition_point(|b| b.as_ref() <= src);
        debug_assert!(idx > 0, "source below the first boundary");
        let i = idx - 1;
        (Code { bits: self.code_bits[i], len: self.code_len[i] }, self.sym_len[i] as usize)
    }

    fn memory_bytes(&self) -> usize {
        let boundary_bytes: usize =
            self.boundaries.iter().map(|b| b.len() + std::mem::size_of::<Box<[u8]>>()).sum();
        boundary_bytes + self.code_bits.len() * 8 + self.code_len.len() + self.sym_len.len() * 2
    }

    fn num_entries(&self) -> usize {
        self.boundaries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hu_tucker::fixed_len_codes;

    #[test]
    fn floor_semantics() {
        let set = IntervalSet::from_patterns(&[b"ing".to_vec(), b"ion".to_vec()]);
        let codes = fixed_len_codes(set.len());
        let d = SortedDict::build(&set, &codes);
        // "ingest" falls in [ing, inh) and consumes 3 bytes.
        let (_, consumed) = d.lookup(b"ingest");
        assert_eq!(consumed, 3);
        // "inz" falls in the gap [inh, ion): symbol "i".
        let (_, consumed) = d.lookup(b"inz");
        assert_eq!(consumed, 1);
    }

    #[test]
    fn memory_counts_boundary_bytes() {
        let set = IntervalSet::from_patterns(&[]);
        let codes = fixed_len_codes(set.len());
        let d = SortedDict::build(&set, &codes);
        assert!(d.memory_bytes() > 256 * 9);
        assert_eq!(d.num_entries(), 256);
    }
}
