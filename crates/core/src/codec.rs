//! Key validation shared by the codec and the serving stack.
//!
//! [`Hope`](crate::Hope) is the one codec type: its `encode_to`,
//! `encode_range_bounds_to` and `decode_to` write into caller-owned
//! scratch and return `Result`, so query loops stay allocation-free and a
//! too-long key or a corrupt stream is an error, not a panic. The
//! "compression off" baseline is not a second type but a scheme:
//! [`Scheme::Identity`](crate::Scheme::Identity).

use crate::builder::HopeError;

/// Hard upper bound on the length of a single source key, in bytes.
///
/// Encoding itself is total — any byte string has an order-preserving
/// encoding — but the serving stack buffers whole keys in per-thread and
/// per-cursor scratch, so a pathological multi-megabyte "key" would pin
/// that much memory on every thread that ever touched it. 1 MiB is far
/// above every dataset the paper evaluates (emails, URLs, words) while
/// still bounding scratch growth; [`Hope::encode_to`](crate::Hope::encode_to)
/// and the `hope_store` write path reject longer keys with
/// [`HopeError::KeyTooLong`].
pub const MAX_KEY_BYTES: usize = 1 << 20;

/// Shared key-length validation for the codec's validated surface (and
/// for serving layers that must reject keys *before* encoding them —
/// `hope_store` validates every bulk-load key with this before it samples
/// or encodes any).
pub fn validate_key_len(key: &[u8]) -> Result<(), HopeError> {
    if key.len() > MAX_KEY_BYTES {
        return Err(HopeError::KeyTooLong { len: key.len(), max: MAX_KEY_BYTES });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecodeScratch, EncodeScratch, Hope, HopeBuilder, Scheme};

    fn identity() -> Hope {
        HopeBuilder::new(Scheme::Identity).build_from_sample(Vec::<Vec<u8>>::new()).unwrap()
    }

    #[test]
    fn identity_codec_round_trips_and_orders() {
        let hope = identity();
        let mut enc = EncodeScratch::new();
        let mut dec = DecodeScratch::new();
        let a = hope.encode_to(b"abc", &mut enc).unwrap().to_vec();
        let bits_a = enc.bit_len();
        let b = hope.encode_to(b"abd", &mut enc).unwrap().to_vec();
        assert_eq!((a.as_slice(), bits_a), (&b"abc"[..], 24));
        assert!(a < b);
        assert_eq!(hope.decode_to(&a, bits_a, &mut dec).unwrap(), b"abc");
        let (lo, hi) = hope.encode_range_bounds_to(b"a", b"b", &mut enc).unwrap();
        assert_eq!((lo, hi), (&b"a"[..], &b"b"[..]));
    }

    #[test]
    fn identity_codec_rejects_oversized_keys_and_ragged_streams() {
        let hope = identity();
        let mut enc = EncodeScratch::new();
        let mut dec = DecodeScratch::new();
        let giant = vec![0u8; MAX_KEY_BYTES + 1];
        assert!(matches!(hope.encode_to(&giant, &mut enc), Err(HopeError::KeyTooLong { .. })));
        assert!(matches!(
            hope.encode_range_bounds_to(b"a", &giant, &mut enc),
            Err(HopeError::KeyTooLong { .. })
        ));
        // A length that ends inside a code, and one the bytes cannot hold.
        for bit_len in [9, 24] {
            let got = hope.decode_to(b"ab", bit_len, &mut dec);
            assert_eq!(got, Err(HopeError::CorruptEncoding { bit_len }));
        }
    }
}
