//! # spinbench — end-to-end benchmark of the quicspin campaign tools
//!
//! The benchmark runs the real user commands (`spinctl run`,
//! `spinctl matrix` and their read-back commands) and the paper-table
//! pipeline as child processes and measures them from outside: wall
//! clock, and CPU time plus peak resident memory from `wait4`. A separate
//! traced run replays each workload in process through the crates' public
//! functions with spans around every layer call, and reads the program's
//! own profiler and telemetry, to attribute the time to layers.
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! the map from layer metrics to end-to-end metrics.

pub mod bench;
pub mod catalog;
pub mod paper;
pub mod proc;
pub mod replay;
pub mod results;
pub mod stats;
pub mod trace;
pub mod workload;
