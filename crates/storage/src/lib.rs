//! Storage substrate: state stores, the blockchain ledger, the state
//! commitment and the write-ahead log.
//!
//! Four pieces of the paper's replica live here:
//!
//! - [`store`] — the key-value state the execute-thread reads and writes.
//!   [`MemStore`] is the in-memory structure every replica runs; the
//!   [`StateStore`] trait lets tests and benches substitute instrumented
//!   or I/O-charging stores. There is no second, paged backend: Figure
//!   14's SQLite comparison is not reproduced.
//! - [`blockchain`] — the immutable ledger. Blocks are certified by the
//!   2f+1 commit signatures gathered during consensus instead of hashing
//!   the previous block on the critical path (Section 4.6).
//! - [`merkle`] — the incremental Merkle commitment the store
//!   maintains over its records (checkpoint digests, snapshot vouching,
//!   partial state proofs).
//! - [`wal`] — the write-ahead log with group commit that makes the
//!   recovery path durable across process death.

#![deny(unsafe_code)]

pub mod blockchain;
pub mod merkle;
pub mod store;
pub mod wal;

pub use blockchain::Blockchain;
pub use merkle::{MerkleAccumulator, MerkleProof};
pub use store::{hash_records, record_hash, MemStore, StateStore, WriteRecord};
pub use wal::{FsyncPolicy, Wal, WalRecovery};
