//! The store's error surface: [`StoreError`].
//!
//! Every fallible `hope_store` operation reports through this one type —
//! construction, probes, maintenance — replacing the mix of panics and
//! `Option`s the pre-v1 surface had. Codec-level failures (dictionary
//! build, key validation, stream corruption) arrive wrapped as
//! [`StoreError::Codec`], so `?` composes across the layers.

use hope::HopeError;

/// Errors from the `hope_store` serving stack.
///
/// The enum is `#[non_exhaustive]`: future PRs may add variants without a
/// breaking change, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// A nonsensical [`StoreConfig`](crate::StoreConfig) — zero shards,
    /// a degrade ratio outside `(0, 1]`, and the like. Reported from
    /// [`HopeStore::build`](crate::HopeStore::build) instead of panicking.
    InvalidConfig {
        /// Which invariant the configuration violates.
        reason: &'static str,
    },
    /// The codec rejected a key or a stored encoding: dictionary-build
    /// failures, over-long keys ([`HopeError::KeyTooLong`]), corrupt
    /// streams. The inner error says which.
    Codec(HopeError),
    /// A shard index out of range was passed to a per-shard operation
    /// ([`HopeStore::generation`](crate::HopeStore::generation),
    /// [`HopeStore::force_rebuild`](crate::HopeStore::force_rebuild)).
    NoSuchShard {
        /// The requested shard.
        shard: usize,
        /// How many shards the store has.
        shards: usize,
    },
    /// A shard's write log reached its configured capacity
    /// ([`StoreConfig::write_log_capacity`](crate::StoreConfig::write_log_capacity),
    /// at most `u32::MAX` — entry indices are 32-bit), or the keys written
    /// since the last rebuild reached 4 GiB (the write tail's key offsets
    /// are 32-bit too). The insert was **not** applied; the shard keeps
    /// serving. This is back-pressure, not corruption: run
    /// [`HopeStore::maintain`](crate::HopeStore::maintain) or
    /// [`HopeStore::force_rebuild`](crate::HopeStore::force_rebuild) to
    /// compact the log, then retry.
    WriteLogFull {
        /// Shard whose log is full.
        shard: usize,
        /// The capacity the log hit.
        capacity: u32,
    },
    /// A rebuild forced to fail by an installed fault-injection plan
    /// ([`HopeStore::inject_faults`](crate::HopeStore::inject_faults)) —
    /// the deterministic test double for a real dictionary-build failure.
    /// The shard keeps serving its current generation, exactly as it
    /// would for [`StoreError::Codec`].
    FaultInjected {
        /// Shard whose rebuild was failed.
        shard: usize,
        /// 0-based rebuild attempt (per shard, counted while the plan is
        /// installed) the plan chose to fail.
        attempt: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::InvalidConfig { reason } => {
                write!(f, "invalid store configuration: {reason}")
            }
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::NoSuchShard { shard, shards } => {
                write!(f, "shard {shard} out of range (store has {shards})")
            }
            StoreError::WriteLogFull { shard, capacity } => {
                write!(
                    f,
                    "shard {shard} write log full ({capacity} entries): rebuild to compact, \
                     then retry"
                )
            }
            StoreError::FaultInjected { shard, attempt } => {
                write!(f, "injected fault: shard {shard} rebuild attempt {attempt} forced to fail")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HopeError> for StoreError {
    fn from(e: HopeError) -> Self {
        StoreError::Codec(e)
    }
}

/// Key validation for paths that must reject keys *before* any encoding
/// work (bulk loads feeding the unvalidated batch encoder, cursor
/// bounds). Delegates to the codec's own rule so the limit can never
/// drift between the layers.
pub(crate) fn validate_key(key: &[u8]) -> Result<(), StoreError> {
    Ok(hope::codec::validate_key_len(key)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = StoreError::InvalidConfig { reason: "need at least one shard" };
        assert!(e.to_string().contains("one shard"));
        let e: StoreError = HopeError::EmptySample.into();
        assert!(matches!(e, StoreError::Codec(HopeError::EmptySample)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(StoreError::NoSuchShard { shard: 9, shards: 4 }.to_string().contains("9"));
        let e = StoreError::WriteLogFull { shard: 2, capacity: 128 };
        assert!(e.to_string().contains("write log full"), "{e}");
        assert!(e.to_string().contains("128"));
    }
}
