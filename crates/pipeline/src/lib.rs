//! The replica runtime: ResilientDB's multi-threaded deep pipeline
//! (Section 4 of the paper) as one sans-IO replica value plus one loop per
//! stage over real OS threads.
//!
//! - [`node`] — [`Node`]: one replica's batch assemblers, [`ReplicaCore`]
//!   and execute stage behind one `step(input, now, &mut effects)`, which
//!   the worker, the figure simulator and the core tests all drive; and
//!   [`route`], where a replica sends what reaches it.
//! - [`core`] — [`ReplicaCore`]: consensus dispatch, suspicion timers,
//!   gap-fill and the fetch/snapshot recovery ladder as a state machine
//!   with no threads, channels or clock reads.
//! - [`replica`] — [`spawn_replica`] builds the shared state, registers
//!   the replica's routing as its transport delivery function and starts
//!   the stage loops (batch, worker, execute), joined by plain
//!   channels; the worker loop verifies what reaches it, steps the node
//!   and carries out its effects, forwarding the execution ones in order.
//! - [`batch`] — signature-window verification and batch assembly, shared
//!   by the batch stage and the worker's `0B` node.
//! - [`queues::ExecStage`] — the in-order buffer in front of execution:
//!   committed batches parked by sequence, run from *exactly* the next
//!   sequence number, owned by the execute thread or the node.
//! - [`executor`] / [`scheduler`] — ordered execution, block creation,
//!   client replies; serially or across conflict-scheduled workers.
//! - [`recovery`] / [`durable`] — validation of fetched batches and
//!   snapshots; the typed write-ahead log and restart-from-disk replay.
//! - [`metrics`] — per-thread busy-time tracking, producing the saturation
//!   percentages of Figure 9.
//!
//! Thread counts are configuration (`ThreadConfig`), so the paper's
//! `0E 0B` → `1E 2B` progression (Figure 8) is a parameter sweep, not a
//! code change.

// Keeps every stage a function one can read in a sitting; the threshold
// lives in the workspace's clippy.toml.
#![deny(clippy::too_many_lines)]

pub mod batch;
pub mod core;
pub mod durable;
pub mod executor;
pub mod metrics;
pub mod node;
pub mod queues;
pub mod recovery;
pub mod replica;
pub mod scheduler;

pub use core::{CoreEnv, Effect, Input, ReplicaCore};
pub use durable::{recover_replica, Durability, RecoveryReport, RecoverySource, WalEntry};
pub use executor::{client_replies, execute_txn, Executor, OutItem, TxnOutcome};
pub use metrics::{MetricsRegistry, SaturationReport, Stage, StageRecorder, ThreadSaturation};
pub use node::{route, Node, NodeEffect, NodeInput, Route};
pub use queues::{CommitItem, ExecBackend, ExecStage, ExecuteItem};
pub use replica::{spawn_replica, ReplicaHandle, ReplicaShared};
pub use scheduler::{conflict_waves, ExecPool, ParallelExecutor};
