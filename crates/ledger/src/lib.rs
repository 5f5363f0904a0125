//! The performance ledger: six canonical workloads, end-to-end figures,
//! and outside-in per-layer attribution.
//!
//! Everything here measures the workspace crates **from outside**: by
//! timing calls into their public functions, by decorating their public
//! traits, and by reading the counters they already export. See
//! `README.md` in this crate for every metric and workload by name.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod stats;
pub mod tracer;
pub mod workloads;
