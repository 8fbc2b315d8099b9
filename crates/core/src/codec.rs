//! The unified, fallible codec surface: [`KeyCodec`].
//!
//! Before the v1 API, the encode side (`Hope::encode_to`), the decode side
//! (`Decoder`/`FastDecoder`) and the range-bound helper each had their own
//! shape — some infallible, some `Option`-returning. [`KeyCodec`] folds
//! them into one object-safe trait with a single error type
//! ([`HopeError`]), so a serving layer can program
//! against *any* order-preserving key transform:
//!
//! * [`Hope`](crate::Hope) — the paper's compressor — implements it with
//!   its zero-allocation scratch paths (the dictionary's own encode loop,
//!   the cached [`FastDecoder`](crate::FastDecoder) on decode);
//! * [`IdentityCodec`] stores keys verbatim — the "compression off"
//!   baseline, useful for differential tests and for running a
//!   `hope_store`-shaped stack without a dictionary.
//!
//! All three methods write into caller-owned scratch so query loops stay
//! allocation-free, and all three return `Result`: encoding validates the
//! key (see [`MAX_KEY_BYTES`]) and decoding surfaces stream corruption
//! instead of panicking or returning a bare `None`.

use crate::builder::HopeError;
use crate::decoder::DecodeScratch;
use crate::encoder::EncodeScratch;

/// Hard upper bound on the length of a single source key, in bytes.
///
/// Encoding itself is total — any byte string has an order-preserving
/// encoding — but the serving stack buffers whole keys in per-thread and
/// per-cursor scratch, so a pathological multi-megabyte "key" would pin
/// that much memory on every thread that ever touched it. 1 MiB is far
/// above every dataset the paper evaluates (emails, URLs, words) while
/// still bounding scratch growth; [`KeyCodec::encode_to`] and the
/// `hope_store` write path reject longer keys with
/// [`HopeError::KeyTooLong`].
pub const MAX_KEY_BYTES: usize = 1 << 20;

/// An order-preserving, lossless byte-string codec.
///
/// The contract:
///
/// * **strict order preservation** — for any keys, `a < b` exactly when
///   the padded encoded bytes satisfy `enc(a) < enc(b)`: distinct keys
///   never share a byte string, so an index may hold the encoded bytes
///   *as* the key;
/// * **losslessness** — `decode_to` of an `encode_to` result returns the
///   original key;
/// * **exact range bounds** — `encode_range_bounds_to(lo, hi)` returns the
///   byte strings of `lo` and `hi`, which by the first point admit the
///   encodings of exactly the keys in `lo..=hi`.
///
/// The trait is object-safe; `hope_store` generations hold their codec as
/// a concrete [`Hope`](crate::Hope), but adapters can box a
/// `dyn KeyCodec` (see the `send_sync` integration test).
pub trait KeyCodec: Send + Sync + std::fmt::Debug {
    /// Encode one key into `scratch` and return its padded encoded bytes
    /// (exact bit length via [`EncodeScratch::bit_len`]).
    ///
    /// # Errors
    ///
    /// [`HopeError::KeyTooLong`] when `key` exceeds [`MAX_KEY_BYTES`].
    fn encode_to<'s>(
        &self,
        key: &[u8],
        scratch: &'s mut EncodeScratch,
    ) -> Result<&'s [u8], HopeError>;

    /// Encode the inclusive boundaries of a range query into `scratch`
    /// and return the two padded byte strings `(low, high)`.
    ///
    /// # Errors
    ///
    /// [`HopeError::KeyTooLong`] when either bound exceeds
    /// [`MAX_KEY_BYTES`].
    fn encode_range_bounds_to<'s>(
        &self,
        low: &[u8],
        high: &[u8],
        scratch: &'s mut EncodeScratch,
    ) -> Result<(&'s [u8], &'s [u8]), HopeError>;

    /// Decode `bit_len` bits of `enc` (the padded encoded bytes) back to
    /// the source key, filling `scratch` and returning the decoded bytes
    /// (invalidated by the next call on the same scratch).
    ///
    /// # Errors
    ///
    /// [`HopeError::CorruptEncoding`] when the bitstream does not end
    /// exactly on a code boundary — impossible for this codec's own
    /// output, so it indicates corruption.
    fn decode_to<'s>(
        &self,
        enc: &[u8],
        bit_len: usize,
        scratch: &'s mut DecodeScratch,
    ) -> Result<&'s [u8], HopeError>;
}

/// The trivial codec: keys encode to themselves.
///
/// Order preservation and losslessness are immediate; the bit length is
/// always `8 * len`. Serves as the "Uncompressed" baseline wherever a
/// [`KeyCodec`] is expected.
///
/// ```
/// use hope::codec::{IdentityCodec, KeyCodec};
/// use hope::{DecodeScratch, EncodeScratch};
///
/// let mut enc = EncodeScratch::new();
/// let mut dec = DecodeScratch::new();
/// let bytes = IdentityCodec.encode_to(b"com.gmail@alice", &mut enc).unwrap().to_vec();
/// assert_eq!(bytes, b"com.gmail@alice");
/// let back = IdentityCodec.decode_to(&bytes, enc.bit_len(), &mut dec).unwrap();
/// assert_eq!(back, b"com.gmail@alice");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityCodec;

impl KeyCodec for IdentityCodec {
    fn encode_to<'s>(
        &self,
        key: &[u8],
        scratch: &'s mut EncodeScratch,
    ) -> Result<&'s [u8], HopeError> {
        validate_key_len(key)?;
        Ok(scratch.fill_identity(key))
    }

    fn encode_range_bounds_to<'s>(
        &self,
        low: &[u8],
        high: &[u8],
        scratch: &'s mut EncodeScratch,
    ) -> Result<(&'s [u8], &'s [u8]), HopeError> {
        validate_key_len(low)?;
        validate_key_len(high)?;
        Ok(scratch.fill_identity_pair(low, high))
    }

    fn decode_to<'s>(
        &self,
        enc: &[u8],
        bit_len: usize,
        scratch: &'s mut DecodeScratch,
    ) -> Result<&'s [u8], HopeError> {
        if !bit_len.is_multiple_of(8) || bit_len / 8 > enc.len() {
            return Err(HopeError::CorruptEncoding { bit_len });
        }
        Ok(scratch.fill(&enc[..bit_len / 8]))
    }
}

/// Shared key-length validation for [`KeyCodec`] implementations (and
/// for serving layers that must reject keys *before* encoding them —
/// `hope_store` validates bulk-load keys with this ahead of the
/// unvalidated batch encoder).
pub fn validate_key_len(key: &[u8]) -> Result<(), HopeError> {
    if key.len() > MAX_KEY_BYTES {
        return Err(HopeError::KeyTooLong { len: key.len(), max: MAX_KEY_BYTES });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_codec_round_trips_and_orders() {
        let mut enc = EncodeScratch::new();
        let mut dec = DecodeScratch::new();
        let a = IdentityCodec.encode_to(b"abc", &mut enc).unwrap().to_vec();
        let bits_a = enc.bit_len();
        let b = IdentityCodec.encode_to(b"abd", &mut enc).unwrap().to_vec();
        assert!(a < b);
        assert_eq!(IdentityCodec.decode_to(&a, bits_a, &mut dec).unwrap(), b"abc");
        let (lo, hi) = IdentityCodec.encode_range_bounds_to(b"a", b"b", &mut enc).unwrap();
        assert_eq!((lo, hi), (&b"a"[..], &b"b"[..]));
    }

    #[test]
    fn identity_codec_rejects_oversized_keys_and_ragged_streams() {
        let mut enc = EncodeScratch::new();
        let mut dec = DecodeScratch::new();
        let giant = vec![0u8; MAX_KEY_BYTES + 1];
        assert!(matches!(
            IdentityCodec.encode_to(&giant, &mut enc),
            Err(HopeError::KeyTooLong { .. })
        ));
        assert!(matches!(
            IdentityCodec.decode_to(b"ab", 9, &mut dec),
            Err(HopeError::CorruptEncoding { bit_len: 9 })
        ));
    }

    #[test]
    fn codec_is_object_safe() {
        let codecs: Vec<Box<dyn KeyCodec>> = vec![Box::new(IdentityCodec)];
        let mut scratch = EncodeScratch::new();
        assert_eq!(codecs[0].encode_to(b"k", &mut scratch).unwrap(), b"k");
    }
}
