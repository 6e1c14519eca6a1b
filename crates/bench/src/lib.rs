//! # ildp-bench — experiment harness
//!
//! Reusable experiment runners behind the per-figure binaries. Each
//! function runs one (workload × configuration) cell of the paper's
//! evaluation and returns the timing/translation statistics the figures
//! and tables are built from. See DESIGN.md §4 for the experiment index
//! and EXPERIMENTS.md for paper-vs-measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod lint;
pub mod miscompile;
pub mod report;
pub mod runners;
pub mod store;
pub mod throughput;
pub mod triage;

pub use report::*;
pub use runners::*;

/// Default workload scale for harness runs (`ILDP_SCALE` overrides).
pub fn harness_scale() -> u32 {
    std::env::var("ILDP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
}
