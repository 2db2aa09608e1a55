//! Sans-io BFT consensus: one replicated-log substrate, two protocol rules.
//!
//! The replica machines are pure state machines — messages in, [`Action`]s
//! out — so the same logic runs under the threaded pipeline
//! (`rdb-pipeline`) and any single-threaded test driver. This mirrors the
//! paper's methodology: hold the fabric fixed and swap only the protocol.
//!
//! - [`substrate`] — everything that is not a protocol's normal-case rule,
//!   written once: view changes, checkpointing, vote sender checks.
//! - [`pbft`] — the three-phase rule over a per-sequence instance log
//!   (Figures 1, 8-17 run this).
//! - [`zyzzyva`] — the speculative single-phase rule with the client-driven
//!   commit-certificate slow path (the comparison protocol of Figures 1,
//!   8, 17).
//! - [`engine`] — the substrate over whichever rule is configured; k of
//!   them ([`ConsensusConfig::for_instance`]) order multi-primary, owned
//!   and routed by `rdb_pipeline::ReplicaCore`.
//! - [`client`] — the client side of both protocols, one sans-io machine.
//!
//! # Example
//!
//! ```
//! use rdb_consensus::{ConsensusConfig, ReplicaEngine};
//! use rdb_common::{ProtocolKind, ReplicaId};
//!
//! let cfg = ConsensusConfig::new(4, 100);
//! let engine = ReplicaEngine::new(ProtocolKind::Pbft, ReplicaId(0), cfg);
//! assert!(engine.is_primary());
//! ```

#![deny(clippy::too_many_lines)]

pub mod actions;
pub mod checkpoint;
pub mod client;
pub mod config;
pub mod engine;
#[cfg(test)]
mod multi;
pub mod pbft;
pub mod substrate;
pub mod zyzzyva;

pub use actions::Action;
pub use checkpoint::CheckpointTracker;
pub use client::{
    ClientCore, ClientEffect, ClientInput, ResultBytes, RETRANSMIT_AFTER, ZYZZYVA_CLIENT_TIMEOUT,
};
pub use config::ConsensusConfig;
pub use engine::ReplicaEngine;
pub use pbft::Pbft;
pub use zyzzyva::Zyzzyva;
