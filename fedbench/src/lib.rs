//! `fedbench` — one end-to-end benchmark of the MSQL federation.
//!
//! See `README.md` in this directory for the workloads, the metrics and how
//! to run it.

pub mod bench;
pub mod check;
pub mod floors;
pub mod gen;
pub mod json;
pub mod layers;
pub mod pin;
pub mod repro;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
