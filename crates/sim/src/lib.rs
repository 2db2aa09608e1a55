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
//! The simulator has no protocol model of its own: every replica is the
//! runtime's [`rdb_pipeline::Node`] (its batch assemblers,
//! `ReplicaCore` and in-order execute stage) and every client its
//! [`rdb_consensus::ClientCore`], stepped at virtual time, so every
//! batch cut, message, commit and retransmission is the runtime's. It prices them — stage
//! service times, core contention, NIC transmission and link latency —
//! which yields the quantities every figure in the paper's evaluation is
//! built from: throughput, latency and per-stage utilization.
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
pub mod report;
pub mod service;

pub use des::{SimConfig, SimMode};
pub use report::{SimReport, SimStage};
pub use service::{Overheads, ServiceModel};
