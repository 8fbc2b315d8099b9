//! Root integration package of the HOPE reproduction workspace.
//!
//! Re-exports the workspace crates so the examples under `examples/` and
//! the cross-crate integration tests under `tests/` can use every
//! component through one dependency. See the `hope` crate for the
//! compressor itself and DESIGN.md for the full system inventory.

#![deny(unsafe_code)]

pub use hope;
pub use hope_art;
pub use hope_btree;
pub use hope_hot;
pub use hope_surf;
pub use hope_workloads;
