//! Code Assigners (§4.2): map per-interval access weights to monotonically
//! increasing prefix codes.
//!
//! Two assigners exist, matching Table 1:
//! * **fixed-length** — `ceil(log2 (N + 1))`-bit consecutive integers from
//!   1 (ALM);
//! * **Hu-Tucker** — optimal order-preserving prefix codes (all others).
//!
//! Both reserve the all-zeros code ([`CodeAssigner::assign`]): that is
//! what makes the zero-*padded bytes* of an encoding, not just its bits,
//! a strict total order identical to source-key order.

use crate::bitpack::Code;
use crate::hu_tucker;

/// Which code assigner a scheme uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodeAssigner {
    /// Monotone fixed-length codes `1..=N` of `ceil(log2 (N + 1))` bits.
    FixedLength,
    /// Optimal order-preserving prefix codes (Hu-Tucker via Garsia–Wachs).
    HuTucker,
}

impl CodeAssigner {
    /// Assign one code per weight. The result is always monotonically
    /// increasing in bitstring order, prefix-free, and **holds no
    /// all-zeros code**: a zero-weight sentinel leaf is assigned in front
    /// of the real ones and its code dropped. The sentinel takes the
    /// smallest code, so every kept code — greater, and not an extension
    /// of it — has a 1 where the two first differ. Every encoding is a
    /// concatenation of such codes, so an encoding that extends another
    /// extends it by a 1 bit somewhere, which zero padding cannot
    /// reproduce: distinct keys never share padded bytes (DESIGN.md,
    /// "Encoded-key comparison").
    ///
    /// The price is one bit on the leftmost interval's code (Hu-Tucker:
    /// the sentinel becomes its sibling, every other depth is unchanged)
    /// or, for a fixed-length dictionary of exactly `2^k` entries, one bit
    /// per code.
    pub fn assign(&self, weights: &[u64]) -> Vec<Code> {
        let with_sentinel: Vec<u64> = std::iter::once(0).chain(weights.iter().copied()).collect();
        let mut codes = match self {
            CodeAssigner::FixedLength => hu_tucker::fixed_len_codes(with_sentinel.len()),
            CodeAssigner::HuTucker => hu_tucker::hu_tucker_codes(&with_sentinel),
        };
        codes.split_off(1)
    }
}

/// Verify the two structural properties order preservation rests on
/// (§3.1): codes strictly increase in bitstring order, and no code is a
/// prefix of its successor (with monotonicity this implies global
/// prefix-freedom). Used by tests and debug assertions.
pub fn codes_are_order_preserving(codes: &[Code]) -> bool {
    codes
        .windows(2)
        .all(|w| w[0].cmp_bitstring(&w[1]) == std::cmp::Ordering::Less && !w[0].is_prefix_of(&w[1]))
}

/// Range-Encoding code assignment — the alternative §4.2 mentions and
/// rejects: "Range Encoding requires more bits than Hu-Tucker to ensure
/// that codes are exactly on range boundaries to guarantee
/// order-preserving". Implemented here as an ablation so that claim can be
/// measured (see the unit tests below).
///
/// Interval `i` occupies the probability range `[cum_i, cum_{i+1})`; its
/// code is the shortest dyadic interval fully inside that range, which
/// costs up to two bits more than `-log2(p_i)`.
pub fn range_encoding_codes(weights: &[u64]) -> Vec<Code> {
    let n = weights.len();
    assert!(n > 0);
    if n == 1 {
        return vec![Code::new(0, 1)];
    }
    let total: u128 = weights.iter().map(|&w| (w.max(1)) as u128).sum();
    let mut codes = Vec::with_capacity(n);
    let mut cum: u128 = 0;
    for &w in weights {
        let w = w.max(1) as u128;
        let lo = cum;
        let hi = cum + w;
        cum = hi;
        let mut assigned = None;
        for len in 1..=crate::hu_tucker::MAX_CODE_LEN {
            // Find the smallest dyadic cell [c, c+1)/2^len inside
            // [lo, hi)/total: c = ceil(lo * 2^len / total).
            let scale = 1u128 << len;
            let c = (lo * scale).div_ceil(total);
            if (c + 1) * total <= hi * scale {
                assigned = Some(Code::new(c as u64, len as u8));
                break;
            }
        }
        codes.push(assigned.expect("a dyadic cell fits within 64 bits"));
    }
    debug_assert!(codes_are_order_preserving(&codes));
    codes
}

/// Expected code length `sum(p_i * len_i)` under the given weights — the
/// quantity the Hu-Tucker-vs-Range-Encoding ablation compares.
pub fn expected_code_length(weights: &[u64], codes: &[Code]) -> f64 {
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if total == 0 {
        return 0.0;
    }
    let bits: u128 = weights.iter().zip(codes).map(|(&w, c)| w as u128 * c.len as u128).sum();
    bits as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_length_assigner() {
        // Codes are `1..=n` in `ceil(log2(n + 1))` bits: a dictionary of
        // exactly `2^k` entries pays one bit per code for the reserved
        // zero, one of `2^k - 1` entries pays nothing.
        for (n, len) in [(1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9), (65_535, 16)] {
            let codes = CodeAssigner::FixedLength.assign(&vec![1; n]);
            let want = (1..=n as u64).map(|i| Code::new(i, len));
            assert!(codes.iter().copied().eq(want), "n = {n}: {codes:?}");
            assert!(codes_are_order_preserving(&codes), "n = {n}");
        }
    }

    #[test]
    fn hu_tucker_assigner_favors_heavy_intervals() {
        let codes = CodeAssigner::HuTucker.assign(&[100, 1, 1, 1]);
        assert!(codes[0].len < codes[2].len);
        assert!(codes_are_order_preserving(&codes));
        assert!(codes.iter().all(|c| c.bits != 0), "{codes:?}");
    }

    /// The smallest dictionary there is — one interval, one code — is
    /// where the all-zeros code did its damage: `x`, `xx`, `xxx` all
    /// padded to `0x00`. With it reserved they are three increasing byte
    /// strings.
    #[test]
    fn single_interval_dictionary_separates_runs_of_its_symbol() {
        use crate::dict::{Dict, SortedDict};
        let set = crate::axis::IntervalSet::from_parts(vec![b"x"[..].into()], vec![1]);
        for assigner in [CodeAssigner::FixedLength, CodeAssigner::HuTucker] {
            let dict = Dict::Sorted(SortedDict::build(&set, &assigner.assign(&[1])));
            let enc = crate::encoder::Encoder::new(dict);
            let bytes = [&b"x"[..], b"xx", b"xxx"].map(|k| enc.encode(k).into_bytes());
            assert_eq!(bytes, [vec![0x80], vec![0xC0], vec![0xE0]], "{assigner:?}");
        }
    }

    #[test]
    fn monotone_prefix_free_check_rejects_bad_codes() {
        let bad = vec![Code::new(0b0, 1), Code::new(0b01, 2)]; // prefix
        assert!(!codes_are_order_preserving(&bad));
        let unordered = vec![Code::new(0b1, 1), Code::new(0b0, 1)];
        assert!(!codes_are_order_preserving(&unordered));
    }

    #[test]
    fn range_encoding_is_valid_but_never_beats_hu_tucker() {
        // The §4.2 claim: Range Encoding pays extra bits for alignment.
        let cases: Vec<Vec<u64>> = vec![
            vec![100, 1, 1, 1],
            vec![1; 16],
            vec![5, 10, 15, 20, 25, 25],
            vec![1, 1000, 1, 1000, 1],
        ];
        for w in cases {
            let re = range_encoding_codes(&w);
            assert!(codes_are_order_preserving(&re), "{w:?}");
            let ht = hu_tucker::hu_tucker_codes(&w);
            let e_re = expected_code_length(&w, &re);
            let e_ht = expected_code_length(&w, &ht);
            assert!(e_ht <= e_re + 1e-9, "weights {w:?}: Hu-Tucker {e_ht:.3} vs Range {e_re:.3}");
        }
    }

    #[test]
    fn range_encoding_single_entry() {
        assert_eq!(range_encoding_codes(&[7]), vec![Code::new(0, 1)]);
    }

    proptest::proptest! {
        #[test]
        fn range_encoding_random_weights(
            w in proptest::collection::vec(0u64..100_000, 1..300)
        ) {
            let re = range_encoding_codes(&w);
            proptest::prop_assert!(codes_are_order_preserving(&re) || re.len() == 1);
            // Shannon bound + 2 alignment bits per symbol.
            let total: f64 = w.iter().map(|&x| x.max(1) as f64).sum();
            for (x, c) in w.iter().zip(&re) {
                let p = (*x).max(1) as f64 / total;
                let bound = (-p.log2()).ceil() + 2.0;
                proptest::prop_assert!(
                    (c.len as f64) <= bound,
                    "p={p} len={} bound={bound}", c.len
                );
            }
        }
    }
}
