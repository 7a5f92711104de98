//! Benchmark of the Footprint NoC simulator: four simulation workloads
//! timed end to end through the public API, and a separate traced run that
//! times each crate's public calls from outside. See `README.md`.

pub mod affinity;
pub mod json;
pub mod plan;
pub mod run;
pub mod trace;
