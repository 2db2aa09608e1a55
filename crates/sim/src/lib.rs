//! Deterministic discrete-event simulator for cluster-scale experiments.
//!
//! The paper's testbed is a Google Cloud cluster (8-core c2 replicas, up
//! to 32 replicas, 80K clients). This crate substitutes that hardware with
//! a calibrated discrete-event model (the substitution is noted in
//! ARCHITECTURE.md, "Scope"): per-replica multi-server pipeline stages with
//! a bounded core pool, a serialized NIC with configurable bandwidth and latency,
//! closed-loop clients, and crypto/storage costs priced by
//! [`rdb_crypto::CostModel`] and [`service::Overheads`].
//!
//! The same protocol flows implemented by the sans-io state machines in
//! `rdb-consensus` are modeled here at batch granularity (quorum bundles
//! instead of individual votes), which keeps runs fast while preserving
//! quorum timing, per-stage utilization and network load — the quantities
//! every figure in the paper's evaluation is built from.
//!
//! # Example
//!
//! ```
//! use rdb_sim::SimConfig;
//! use rdb_common::SystemConfig;
//!
//! let mut system = SystemConfig::new(4).unwrap();
//! system.num_clients = 1_000;
//! let mut cfg = SimConfig::new(system);
//! cfg.warmup_ms = 100;
//! cfg.measure_ms = 200;
//! let report = cfg.run();
//! assert!(report.throughput_tps > 0.0);
//! ```

pub mod des;
pub mod multi;
pub mod report;
pub mod service;

pub use des::{SimConfig, SimMode};
pub use multi::MultiPrimaryPrediction;
pub use report::{SimReport, SimStage};
pub use service::{Overheads, ServiceModel};
