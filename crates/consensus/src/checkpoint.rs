//! Checkpoint collection (Section 4.7).
//!
//! After every Δ executed batches a replica broadcasts a `Checkpoint`
//! message carrying its state digest (whose state component is the
//! store's sparse-Merkle root — see `rdb_storage::merkle` — the same
//! commitment snapshot transfer and durable recovery verify against).
//! When 2f+1 matching checkpoints for the same sequence arrive, the
//! checkpoint is *stable*: everything below it can be garbage-collected,
//! and a replica with a data directory persists the covering snapshot
//! and compacts its write-ahead log down to the suffix above it.

use rdb_common::{Digest, ReplicaId, SeqNum};
use std::collections::{HashMap, HashSet};

/// Collects `Checkpoint` messages and detects stability.
#[derive(Debug)]
pub struct CheckpointTracker {
    quorum: usize,
    /// seq → digest → replicas that vouched for it.
    votes: HashMap<SeqNum, HashMap<Digest, HashSet<ReplicaId>>>,
    stable: SeqNum,
}

impl CheckpointTracker {
    /// Creates a tracker requiring `quorum` (= 2f+1) matching votes.
    pub fn new(quorum: usize) -> Self {
        CheckpointTracker {
            quorum,
            votes: HashMap::new(),
            stable: SeqNum(0),
        }
    }

    /// The highest stable checkpoint seen so far.
    pub fn stable_seq(&self) -> SeqNum {
        self.stable
    }

    /// Records a checkpoint vote. Returns `Some(seq)` when this vote makes
    /// a *new, higher* checkpoint stable.
    pub fn record(&mut self, from: ReplicaId, seq: SeqNum, digest: Digest) -> Option<SeqNum> {
        if seq <= self.stable {
            return None; // already covered by a stable checkpoint
        }
        let by_digest = self.votes.entry(seq).or_default();
        let voters = by_digest.entry(digest).or_default();
        voters.insert(from);
        if voters.len() >= self.quorum {
            self.stable = seq;
            // Drop all vote state at or below the new stable point.
            self.votes.retain(|s, _| *s > seq);
            return Some(seq);
        }
        None
    }

    /// Forces the stable point to `seq` (snapshot install: the snapshot's
    /// base checkpoint was already proven stable by the peers that served
    /// it, so this replica adopts it without re-collecting votes).
    /// Never moves the stable point backwards.
    pub fn force_stable(&mut self, seq: SeqNum) {
        if seq <= self.stable {
            return;
        }
        self.stable = seq;
        self.votes.retain(|s, _| *s > seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CheckpointTracker {
        /// Number of sequences with outstanding (unstable) votes.
        fn pending(&self) -> usize {
            self.votes.len()
        }
    }

    fn d(b: u8) -> Digest {
        Digest([b; 32])
    }

    #[test]
    fn stability_requires_quorum_of_matching_digests() {
        let mut t = CheckpointTracker::new(3);
        assert_eq!(t.record(ReplicaId(0), SeqNum(10), d(1)), None);
        assert_eq!(t.record(ReplicaId(1), SeqNum(10), d(1)), None);
        // A divergent digest does not help.
        assert_eq!(t.record(ReplicaId(2), SeqNum(10), d(9)), None);
        // The third matching vote stabilizes.
        assert_eq!(t.record(ReplicaId(3), SeqNum(10), d(1)), Some(SeqNum(10)));
        assert_eq!(t.stable_seq(), SeqNum(10));
    }

    #[test]
    fn duplicate_votes_do_not_count_twice() {
        let mut t = CheckpointTracker::new(3);
        t.record(ReplicaId(0), SeqNum(5), d(1));
        t.record(ReplicaId(0), SeqNum(5), d(1));
        assert_eq!(t.record(ReplicaId(0), SeqNum(5), d(1)), None);
        t.record(ReplicaId(1), SeqNum(5), d(1));
        assert_eq!(t.record(ReplicaId(2), SeqNum(5), d(1)), Some(SeqNum(5)));
    }

    #[test]
    fn old_checkpoints_ignored_after_stability() {
        let mut t = CheckpointTracker::new(2);
        t.record(ReplicaId(0), SeqNum(10), d(1));
        assert_eq!(t.record(ReplicaId(1), SeqNum(10), d(1)), Some(SeqNum(10)));
        // Votes for seq <= 10 are now no-ops.
        assert_eq!(t.record(ReplicaId(2), SeqNum(10), d(1)), None);
        assert_eq!(t.record(ReplicaId(2), SeqNum(5), d(1)), None);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn force_stable_adopts_remote_checkpoint_and_never_regresses() {
        let mut t = CheckpointTracker::new(3);
        t.record(ReplicaId(0), SeqNum(5), d(1));
        t.force_stable(SeqNum(10));
        assert_eq!(t.stable_seq(), SeqNum(10));
        assert_eq!(t.pending(), 0, "stale vote state is dropped");
        t.force_stable(SeqNum(4));
        assert_eq!(t.stable_seq(), SeqNum(10), "never moves backwards");
    }

    #[test]
    fn stability_advances_monotonically() {
        let mut t = CheckpointTracker::new(2);
        t.record(ReplicaId(0), SeqNum(10), d(1));
        t.record(ReplicaId(1), SeqNum(10), d(1));
        t.record(ReplicaId(0), SeqNum(20), d(2));
        assert_eq!(t.record(ReplicaId(1), SeqNum(20), d(2)), Some(SeqNum(20)));
        assert_eq!(t.stable_seq(), SeqNum(20));
    }
}
