//! # HOPE — High-speed Order-Preserving Encoder
//!
//! A from-scratch Rust reproduction of *"Order-Preserving Key Compression
//! for In-Memory Search Trees"* (Zhang et al., SIGMOD 2020).
//!
//! HOPE compresses arbitrary byte-string keys while preserving their
//! lexicographic order, so compressed keys can be stored directly in
//! order-sensitive structures (B+trees, tries, range filters) and still
//! support range queries. It samples an initial key set, selects dictionary
//! symbols according to one of six schemes, assigns order-preserving prefix
//! codes, and then encodes keys with a handful of dictionary lookups and bit
//! concatenations per key.
//!
//! ## Quick start
//!
//! ```
//! use hope::{Scheme, HopeBuilder};
//!
//! let sample: Vec<&[u8]> = vec![b"com.gmail@alice", b"com.gmail@bob", b"org.acm@carol"];
//! let hope = HopeBuilder::new(Scheme::DoubleChar)
//!     .build_from_sample(sample.iter().map(|k| k.to_vec()))
//!     .unwrap();
//!
//! let a = hope.encode(b"com.gmail@alice");
//! let b = hope.encode(b"com.gmail@bob");
//! assert!(a < b); // order preserved
//! ```
//!
//! ## Schemes (paper §3.3, Table 1)
//!
//! | Scheme | Category | Dictionary | Codes |
//! |---|---|---|---|
//! | [`Scheme::SingleChar`] | FIVC | 256-entry array | Hu-Tucker |
//! | [`Scheme::DoubleChar`] | FIVC | 65 792-entry array | Hu-Tucker |
//! | [`Scheme::Alm`] | VIFC | ART | fixed-length |
//! | [`Scheme::ThreeGrams`] | VIVC | bitmap-trie | Hu-Tucker |
//! | [`Scheme::FourGrams`] | VIVC | bitmap-trie | Hu-Tucker |
//! | [`Scheme::AlmImproved`] | VIVC | ART | Hu-Tucker |
//!
//! [`Scheme::Identity`] is the paper's *Uncompressed* baseline as a scheme
//! of the same codec: no table, byte `b` coded as the 8 bits of `b`, so
//! every encoding is a copy of the key.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod axis;
pub mod bitpack;
pub mod builder;
pub mod code_assign;
pub mod codec;
pub mod decoder;
pub mod dict;
pub mod encoder;
pub mod hu_tucker;
pub mod index;
pub mod selector;
pub mod stats;

pub use bitpack::{Code, EncodedKey};
pub use builder::{BuildTimings, CodecStats, Hope, HopeBuilder, HopeError};
pub use codec::MAX_KEY_BYTES;
pub use decoder::{DecodeScratch, Decoder, FastDecoder};
pub use encoder::{EncodeScratch, Encoder};
pub use index::{EncodedBytes, OrderedIndex, Probe, Value};
pub use selector::Scheme;

/// One-stop import for the v1 public API.
///
/// Pulls in the builder, the compressor (the one codec type), the
/// generic ordered-index contract and the reusable scratch types — the
/// names ~every embedding needs:
///
/// ```
/// use hope::prelude::*;
///
/// let sample = vec![b"com.gmail@alice".to_vec(), b"com.gmail@bob".to_vec()];
/// let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample)?;
/// let mut enc = EncodeScratch::new();
/// let mut dec = DecodeScratch::new();
/// let bytes = hope.encode_to(b"com.gmail@carol", &mut enc)?.to_vec();
/// assert_eq!(hope.decode_to(&bytes, enc.bit_len(), &mut dec)?, b"com.gmail@carol");
/// # Ok::<(), HopeError>(())
/// ```
pub mod prelude {
    pub use crate::bitpack::EncodedKey;
    pub use crate::builder::{CodecStats, Hope, HopeBuilder, HopeError};
    pub use crate::codec::MAX_KEY_BYTES;
    pub use crate::decoder::{DecodeScratch, Decoder, FastDecoder};
    pub use crate::encoder::EncodeScratch;
    pub use crate::index::{EncodedBytes, OrderedIndex, Probe, Value};
    pub use crate::selector::Scheme;
}
