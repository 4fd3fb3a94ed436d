//! The compact-routing workspace's benchmark: three workloads (`labeled-zipf`,
//! `named-zipf`, `churn-mixed`) driven in a closed loop by one client
//! thread, with every output checked against the reference schemes and an
//! optional traced run that attributes time to each layer. See
//! `perfbench/README.md`.

pub mod report;
pub mod rng;
pub mod schemes;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workload;
