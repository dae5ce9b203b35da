//! Whole verified-flow benchmark for asyncmap.
//!
//! Three workloads run the flow a user of the mapper pays for — parse or
//! synthesize, preflight, map, self-verify, lint, audit and the
//! fundamental-mode analyzer, or the reuse-aware ECO loop — through the
//! public API, one job at a time, and check every output. See
//! `README.md` for the workloads, the metrics and the traced mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod host;
pub mod stats;
pub mod trace;
pub mod workload;
