//! The action vocabulary emitted by the consensus state machines.
//!
//! State machines are *sans-io*: they never touch the network, clocks or
//! crypto. Handlers consume messages and return [`Action`]s; the runtime
//! (threaded pipeline or discrete-event simulator) interprets them — signs
//! and sends messages, executes batches in order, prunes state.

use rdb_common::block::BlockCertificate;
use rdb_common::{Batch, ClientId, Digest, Message, ReplicaId, SeqNum, ViewNum};
use std::sync::Arc;

/// An instruction from a replica state machine to its runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Sign and send `msg` to every other replica.
    Broadcast(Message),
    /// Sign and send `msg` to one replica.
    SendReplica(ReplicaId, Message),
    /// Sign and send `msg` to a client.
    SendClient(ClientId, Message),
    /// The batch at `seq` is committed: execute it **in sequence order**,
    /// append a block certified by `certificate`, and reply to clients.
    CommitBatch {
        /// Committed sequence number.
        seq: SeqNum,
        /// View in which the batch committed.
        view: ViewNum,
        /// Batch digest.
        digest: Digest,
        /// The transactions to execute, shared with the in-flight
        /// `PrePrepare` (no deep copy on commit).
        batch: Arc<Batch>,
        /// 2f+1 commit signatures proving the order.
        certificate: BlockCertificate,
    },
    /// Zyzzyva: execute speculatively (order not yet guaranteed) and send
    /// each client a `SpecResponse` carrying `history`.
    SpecExecute {
        /// Proposed sequence number.
        seq: SeqNum,
        /// Current view.
        view: ViewNum,
        /// Batch digest.
        digest: Digest,
        /// Rolling speculative-history digest after this batch.
        history: Digest,
        /// The transactions to execute, shared with the in-flight
        /// `PrePrepare` (no deep copy on speculative dispatch).
        batch: Arc<Batch>,
    },
    /// A checkpoint at `seq` became stable: state below it may be pruned.
    StableCheckpoint {
        /// The stable sequence number.
        seq: SeqNum,
    },
    /// Zyzzyva mis-speculation: the speculative suffix above `to` diverged
    /// from the authoritative history (view change or certificate
    /// mismatch). The runtime must undo every speculative execution with
    /// `seq > to` — restoring overwritten records and rolling the chain
    /// back — before applying any re-emitted `SpecExecute`/`CommitBatch`
    /// actions for the reconciled history.
    Rollback {
        /// Last sequence number that survives: the committed/checkpointed
        /// prefix both histories agree on.
        to: SeqNum,
    },
    /// The replica moved to a new view (primary may have changed).
    EnterView {
        /// The view now active.
        view: ViewNum,
        /// The consensus instance whose view changed (`0` outside
        /// multi-primary deployments).
        instance: u32,
    },
}

impl Action {
    /// Convenience: the outbound message if this action sends one.
    pub fn message(&self) -> Option<&Message> {
        match self {
            Action::Broadcast(m) | Action::SendReplica(_, m) | Action::SendClient(_, m) => Some(m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_accessor() {
        let m = Message::Prepare {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
        };
        assert!(Action::Broadcast(m.clone()).message().is_some());
        assert!(Action::SendReplica(ReplicaId(1), m.clone())
            .message()
            .is_some());
        assert!(Action::SendClient(ClientId(0), m).message().is_some());
        assert!(Action::StableCheckpoint { seq: SeqNum(0) }
            .message()
            .is_none());
    }
}
