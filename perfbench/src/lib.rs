//! End-to-end and per-layer benchmark of the PSTM stack.
//!
//! See `perfbench/README.md` for the workloads, the metrics and what
//! each per-layer number is expected to move.

pub mod fleet;
pub mod gate;
pub mod gen;
pub mod ladder;
pub mod report;
pub mod stats;
