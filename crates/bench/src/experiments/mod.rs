//! One module per row of [`crate::EXPERIMENTS`], and [`census`], a tool.

pub mod blackhole;
pub mod campaign;
pub mod census;
pub mod checkpoint;
pub mod errorscope_cost;
pub mod flock;
pub mod generic_vs_finite;
pub mod gridvm;
pub mod java_universe_trace;
pub mod jvm_result_codes;
pub mod kernel_trace;
pub mod localize;
pub mod matchmaker;
pub mod naive_vs_scoped;
pub mod partition;
pub mod parworld;
pub mod scope_routing;
pub mod standard_universe;
pub mod timeout_scope;
