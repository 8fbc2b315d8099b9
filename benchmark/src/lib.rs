//! `hope_benchmark` — the whole-store benchmark of the HOPE reproduction.
//!
//! One invocation runs one workload with one seed, checks every result
//! against a shadow `BTreeMap`, and prints every metric of its kind
//! (end-to-end, or per-layer with `--trace 1`). See `README.md` for the
//! metric glossary and the repeatability rules the design follows.

pub mod alloc;
pub mod calibrate;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod phases;
pub mod run;
pub mod served;
pub mod spec;
pub mod timing;

/// Byte metrics are live-heap deltas of this allocator.
#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
