//! # pcc-benchmark — the repo benchmark
//!
//! Five sized workloads, end-to-end and per-layer metrics, fresh-process
//! medians with regression bounds, and an outside-in traced run. See
//! `README.md` next to this crate for how to run it, what every number
//! means, and the product API surface it compiles against.

pub mod catalog;
pub mod compare;
pub mod json;
pub mod kernels;
pub mod run;
pub mod trace;
pub mod workloads;
