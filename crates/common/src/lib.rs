//! Shared vocabulary types for the ResilientDB reproduction.
//!
//! This crate defines the identifiers, wire encoding, message formats,
//! transactions, blocks, configuration and quorum arithmetic shared by every
//! other crate in the workspace. It is deliberately dependency-light so that
//! the consensus state machines (`rdb-consensus`), the threaded runtime
//! (`rdb-pipeline`) and the discrete-event simulator (`rdb-sim`) can all speak
//! the same language.
//!
//! # Example
//!
//! ```
//! use rdb_common::{config::SystemConfig, quorum};
//!
//! let cfg = SystemConfig::new(16).expect("16 replicas is a valid BFT population");
//! assert_eq!(cfg.f, 5);
//! assert_eq!(quorum::prepare_quorum(cfg.f), 10);
//! assert_eq!(quorum::commit_quorum(cfg.f), 11);
//! ```

pub mod block;
pub mod codec;
pub mod config;
pub mod error;
pub mod ids;
pub mod messages;
pub mod options;
pub mod peers;
pub mod quorum;
pub mod sections;
pub mod snapshot;
pub mod transaction;

pub use block::{Block, BlockCertificate, BlockLink};
pub use codec::{Wire, WireReader, WireWriter};
pub use config::{
    CryptoScheme, DurabilityConfig, FsyncMode, ProtocolKind, SystemConfig, ThreadConfig,
};
pub use error::{CommonError, Result};
pub use ids::{ClientId, Digest, ReplicaId, SeqNum, SignatureBytes, TxnId, ViewNum};
pub use messages::{Message, MessageKind};
pub use options::{NodeOptions, TransportMode};
pub use peers::PeerMap;
pub use snapshot::Snapshot;
pub use transaction::{Batch, Operation, ReadWriteSet, Transaction};
