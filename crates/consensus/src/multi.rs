//! Multi-primary ordering: k parallel consensus instances over one
//! replica set, merged into a single global sequence space.
//!
//! The single PBFT primary's outbound bandwidth and batch-assembly path
//! are the structural throughput ceiling the paper identifies; the
//! ResilientDB lineage's answer (RCC) is to run k *independent* consensus
//! instances over the same n replicas. Instance `j` is led by replica
//! `(view_j + j) mod n` and owns the interleaved global sequences
//! `j+1, j+1+k, j+1+2k, …`, so at view 0 the k instances are led by k
//! distinct replicas, each batching and proposing concurrently. Commit
//! streams need no merge stage: because every instance already speaks
//! global sequence numbers, the runtime's existing in-order execution
//! (execution queues drained strictly by sequence) interleaves them
//! deterministically — digests are bit-identical regardless of
//! per-instance commit arrival order.
//!
//! [`MultiEngine`] is the router: one [`ReplicaEngine`] per instance,
//! sequence-bearing messages dispatched by `(seq − 1) mod k`, view-change
//! traffic by the explicit `instance` tag it carries. View changes,
//! checkpointing and equivocation handling all stay *per instance* — a
//! crashed primary stalls only the 1/k of the sequence space its instance
//! owns while the other k−1 instances keep committing.

use crate::actions::Action;
use crate::config::ConsensusConfig;
use crate::engine::ReplicaEngine;
use crate::substrate::Fetched;
use rdb_common::block::BlockCertificate;
use rdb_common::messages::{Message, SignedMessage};
use rdb_common::{Batch, Digest, ProtocolKind, ReplicaId, SeqNum, ViewNum};
use std::sync::Arc;

/// k consensus instances behind one engine-shaped interface.
///
/// With `k = 1` this is a zero-cost wrapper over a single
/// [`ReplicaEngine`] (either protocol); with `k > 1` it requires PBFT —
/// Zyzzyva's speculative history chain cannot interleave instances.
#[derive(Debug)]
pub struct MultiEngine {
    engines: Vec<ReplicaEngine>,
    /// Highest global sequence proven stable by any instance's checkpoint
    /// quorum (a state digest covers the whole global prefix, so the
    /// per-instance stability proofs merge by max).
    merged_stable: SeqNum,
}

impl MultiEngine {
    /// Creates `k` instances of `protocol` at replica `id`.
    ///
    /// # Panics
    /// Panics if `k == 0`, `k > n`, or `k > 1` with a non-PBFT protocol.
    pub fn new(protocol: ProtocolKind, id: ReplicaId, config: ConsensusConfig, k: usize) -> Self {
        assert!(k >= 1, "need at least one consensus instance");
        assert!(
            k == 1 || protocol == ProtocolKind::Pbft,
            "multi-primary ordering requires PBFT: Zyzzyva's speculative history is one \
             hash chain over consecutive sequences, which k interleaved instances cannot extend"
        );
        let engines = (0..k)
            .map(|j| ReplicaEngine::new(protocol, id, config.for_instance(j as u32, k as u64)))
            .collect();
        MultiEngine {
            engines,
            merged_stable: SeqNum(0),
        }
    }

    /// Number of parallel instances.
    pub fn k(&self) -> usize {
        self.engines.len()
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.engines[0].id()
    }

    /// Which instance owns global sequence `seq`.
    pub fn owner(&self, seq: SeqNum) -> usize {
        if seq.0 == 0 {
            0
        } else {
            ((seq.0 - 1) % self.engines.len() as u64) as usize
        }
    }

    /// Current view of instance `j`.
    pub fn view(&self, j: usize) -> ViewNum {
        self.engines[j].view()
    }

    /// Current primary of instance `j`.
    pub fn primary(&self, j: usize) -> ReplicaId {
        self.engines[j].primary()
    }

    /// Whether this replica leads instance `j`.
    pub fn is_primary(&self, j: usize) -> bool {
        self.engines[j].is_primary()
    }

    /// The next global sequence instance `j` would assign (PBFT only).
    pub fn next_seq(&self, j: usize) -> Option<SeqNum> {
        self.engines[j].next_seq()
    }

    /// Primary path: propose a digested batch on instance `j`.
    pub fn propose(&mut self, j: usize, batch: Batch, digest: Digest) -> Vec<Action> {
        self.engines[j].propose(batch, digest)
    }

    /// Routes a verified message to the owning instance.
    ///
    /// Sequence-bearing messages go by `(seq − 1) mod k`; view-change
    /// traffic goes by its explicit `instance` tag (out-of-range tags are
    /// dropped — a byzantine peer must not crash the router).
    pub fn on_message(&mut self, sm: &SignedMessage) -> Vec<Action> {
        let j = match sm.msg() {
            Message::ViewChange { instance, .. } | Message::NewView { instance, .. } => {
                let j = *instance as usize;
                if j >= self.engines.len() {
                    return Vec::new();
                }
                j
            }
            m => match m.seq() {
                Some(seq) => self.owner(seq),
                None => return Vec::new(),
            },
        };
        let actions = self.engines[j].on_message(sm);
        self.merge_stability(actions)
    }

    /// Execution-layer notification, routed to the owner of `seq`.
    pub fn on_executed(&mut self, seq: SeqNum, state_digest: Digest) -> Vec<Action> {
        let j = self.owner(seq);
        let actions = self.engines[j].on_executed(seq, state_digest);
        self.merge_stability(actions)
    }

    /// Suspicion timer fired for instance `j`.
    pub fn on_timeout(&mut self, j: usize) -> Vec<Action> {
        self.engines[j].on_timeout()
    }

    /// Whether instance `j` has ordered-but-unfinished work stuck.
    pub fn has_stalled_work(&self, j: usize) -> bool {
        self.engines[j].has_stalled_work()
    }

    /// Serves a peer's `FetchRequest` for `seq` from the owning instance.
    pub fn serve_fetch(&self, seq: SeqNum) -> Option<Fetched> {
        self.engines[self.owner(seq)].serve_fetch(seq)
    }

    /// Installs a runtime-validated fetched batch on the owning instance.
    pub fn install_fetched(
        &mut self,
        seq: SeqNum,
        view: ViewNum,
        digest: Digest,
        batch: Arc<Batch>,
        certificate: BlockCertificate,
    ) -> Vec<Action> {
        let j = self.owner(seq);
        let actions = self.engines[j].install_fetched(seq, view, digest, batch, certificate);
        self.merge_stability(actions)
    }

    /// Adopts a verified snapshot at `base` on every instance (the global
    /// execution prefix covers all of their interleaved slices).
    pub fn install_snapshot(&mut self, base: SeqNum, history: Digest) {
        for e in &mut self.engines {
            e.install_snapshot(base, history);
        }
        self.merged_stable = self.merged_stable.max(base);
    }

    /// Sequences worth fetching, merged across instances, oldest first.
    pub fn fetch_wanted(&self, limit: usize) -> Vec<SeqNum> {
        let mut wanted: Vec<SeqNum> = self
            .engines
            .iter()
            .flat_map(|e| e.fetch_wanted(limit))
            .collect();
        wanted.sort();
        wanted.dedup();
        wanted.truncate(limit);
        wanted
    }

    /// Rewrites per-instance `StableCheckpoint` actions into the merged
    /// global prune point. A checkpoint quorum at global sequence `s`
    /// proves 2f+1 replicas hold identical *global* state at `s`
    /// (state digests cover the whole prefix, not one instance's slice),
    /// so the runtime may prune below the max across instances; emissions
    /// are filtered to keep the merged point monotonic.
    fn merge_stability(&mut self, actions: Vec<Action>) -> Vec<Action> {
        if self.engines.len() == 1 {
            return actions; // single instance: already monotonic
        }
        actions
            .into_iter()
            .filter_map(|a| match a {
                Action::StableCheckpoint { seq } => {
                    if seq > self.merged_stable {
                        self.merged_stable = seq;
                        Some(Action::StableCheckpoint { seq })
                    } else {
                        None
                    }
                }
                other => Some(other),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::messages::Sender;
    use rdb_common::SignatureBytes;
    use rdb_common::{ClientId, Operation, Transaction};
    use rdb_crypto::digest as batch_digest;

    fn batch(tag: u64) -> Batch {
        vec![Transaction::new(
            ClientId(tag),
            tag,
            vec![Operation::Write {
                key: tag,
                value: vec![tag as u8],
            }],
        )]
        .into_iter()
        .collect()
    }

    fn net(k: usize, checkpoint_interval: u64) -> Vec<MultiEngine> {
        let cfg = ConsensusConfig::new(4, checkpoint_interval);
        (0..4)
            .map(|i| MultiEngine::new(ProtocolKind::Pbft, ReplicaId(i), cfg, k))
            .collect()
    }

    /// Delivers every broadcast/unicast in `pending` to its destinations,
    /// collecting commits per replica, until the network is quiescent.
    fn run_to_quiescence(
        engines: &mut [MultiEngine],
        mut pending: Vec<(ReplicaId, Action)>,
    ) -> Vec<Vec<(SeqNum, Digest)>> {
        let mut commits: Vec<Vec<(SeqNum, Digest)>> = vec![Vec::new(); engines.len()];
        while !pending.is_empty() {
            let mut next = Vec::new();
            for (from, action) in pending.drain(..) {
                let targets: Vec<ReplicaId> = match &action {
                    Action::Broadcast(_) => (0..engines.len() as u32)
                        .map(ReplicaId)
                        .filter(|r| *r != from)
                        .collect(),
                    Action::SendReplica(to, _) => vec![*to],
                    Action::CommitBatch { seq, digest, .. } => {
                        commits[from.0 as usize].push((*seq, *digest));
                        continue;
                    }
                    _ => continue,
                };
                let msg = action.message().expect("send actions carry a message");
                let sm =
                    SignedMessage::new(msg.clone(), Sender::Replica(from), SignatureBytes::empty());
                for to in targets {
                    for a in engines[to.0 as usize].on_message(&sm) {
                        next.push((to, a));
                    }
                }
            }
            pending = next;
        }
        commits
    }

    #[test]
    fn two_instances_commit_interleaved_sequences() {
        let mut engines = net(2, 1_000);
        // Replica 0 leads instance 0 (seqs 1, 3, …); replica 1 leads
        // instance 1 (seqs 2, 4, …).
        assert!(engines[0].is_primary(0) && !engines[0].is_primary(1));
        assert!(engines[1].is_primary(1) && !engines[1].is_primary(0));

        let b1 = batch(1);
        let d1 = batch_digest(&b1.canonical_bytes());
        let b2 = batch(2);
        let d2 = batch_digest(&b2.canonical_bytes());
        let mut pending: Vec<(ReplicaId, Action)> = Vec::new();
        for a in engines[0].propose(0, b1, d1) {
            pending.push((ReplicaId(0), a));
        }
        for a in engines[1].propose(1, b2, d2) {
            pending.push((ReplicaId(1), a));
        }
        let commits = run_to_quiescence(&mut engines, pending);
        for (r, committed) in commits.iter().enumerate() {
            let mut seqs: Vec<SeqNum> = committed.iter().map(|(s, _)| *s).collect();
            seqs.sort();
            assert_eq!(
                seqs,
                vec![SeqNum(1), SeqNum(2)],
                "replica {r} must commit both instances' sequences"
            );
            for (s, d) in committed {
                let want = if *s == SeqNum(1) { d1 } else { d2 };
                assert_eq!(*d, want, "replica {r} digest at {s:?}");
            }
        }
    }

    #[test]
    fn proposing_on_a_backup_instance_is_a_noop() {
        let mut engines = net(2, 1_000);
        let b = batch(1);
        let d = batch_digest(&b.canonical_bytes());
        // Replica 0 does not lead instance 1.
        assert!(engines[0].propose(1, b, d).is_empty());
    }

    #[test]
    fn view_change_routes_by_instance_tag() {
        let mut engines = net(2, 1_000);
        // Time out instance 1 on replicas 0, 2, 3: its next primary is
        // replica (1 + 1) mod 4 = 2. Instance 0 must be untouched.
        let mut pending = Vec::new();
        for r in [0u32, 2, 3] {
            for a in engines[r as usize].on_timeout(1) {
                pending.push((ReplicaId(r), a));
            }
        }
        let _ = run_to_quiescence(&mut engines, pending);
        for (i, e) in engines.iter().enumerate() {
            assert_eq!(e.view(0), ViewNum(0), "instance 0 keeps its view at {i}");
            assert_eq!(e.view(1), ViewNum(1), "instance 1 advances at {i}");
            assert_eq!(e.primary(1), ReplicaId(2));
        }
        assert!(engines[2].is_primary(1));
        assert!(!engines[1].is_primary(1), "old primary demoted");
    }

    #[test]
    fn out_of_range_instance_tag_dropped() {
        let mut engines = net(2, 1_000);
        let sm = SignedMessage::new(
            Message::NewView {
                new_view: ViewNum(1),
                reissued: vec![],
                instance: 9,
            },
            Sender::Replica(ReplicaId(2)),
            SignatureBytes::empty(),
        );
        assert!(engines[0].on_message(&sm).is_empty());
    }

    #[test]
    fn stable_checkpoints_merge_monotonically() {
        // Δ = 1 batch per instance. Drive executions so instance 0
        // stabilizes at 3 first, then instance 1 at 2: the second must be
        // swallowed (2 < 3), a later one at 4 must pass.
        let mut engines = net(2, 1);
        let sd = Digest([9; 32]);
        let mut stable_emitted = Vec::new();
        // Own executions broadcast Checkpoint and record the self-vote;
        // feed the peers' matching votes in by hand.
        let vote = |seq: SeqNum, from: u32| {
            SignedMessage::new(
                Message::Checkpoint {
                    seq,
                    state_digest: sd,
                    replica: ReplicaId(from),
                },
                Sender::Replica(ReplicaId(from)),
                SignatureBytes::empty(),
            )
        };
        let e = &mut engines[0];
        for seq in [SeqNum(1), SeqNum(3), SeqNum(2), SeqNum(4)] {
            let acts = e.on_executed(seq, sd);
            stable_emitted.extend(acts.iter().filter_map(|a| match a {
                Action::StableCheckpoint { seq } => Some(*seq),
                _ => None,
            }));
            for from in [1, 2] {
                let acts = e.on_message(&vote(seq, from));
                stable_emitted.extend(acts.iter().filter_map(|a| match a {
                    Action::StableCheckpoint { seq } => Some(*seq),
                    _ => None,
                }));
            }
        }
        assert!(
            stable_emitted.windows(2).all(|w| w[0] < w[1]),
            "merged prune points must be strictly increasing: {stable_emitted:?}"
        );
        assert!(
            stable_emitted.contains(&SeqNum(3)) && stable_emitted.contains(&SeqNum(4)),
            "got {stable_emitted:?}"
        );
        assert!(
            !stable_emitted.contains(&SeqNum(2)),
            "instance 1's late stability at 2 is behind the merged point: {stable_emitted:?}"
        );
    }

    #[test]
    fn fetch_routes_to_owning_instance_and_merges_wants() {
        let mut engines = net(2, 1_000);
        // Commit seq 1 (instance 0) and seq 2 (instance 1) everywhere.
        let b1 = batch(1);
        let d1 = batch_digest(&b1.canonical_bytes());
        let b2 = batch(2);
        let d2 = batch_digest(&b2.canonical_bytes());
        let mut pending: Vec<(ReplicaId, Action)> = Vec::new();
        for a in engines[0].propose(0, b1, d1) {
            pending.push((ReplicaId(0), a));
        }
        for a in engines[1].propose(1, b2, d2) {
            pending.push((ReplicaId(1), a));
        }
        let _ = run_to_quiescence(&mut engines, pending);
        // Both sequences are servable, each from its owning instance.
        let (_, dg1, _, cert1) = engines[2].serve_fetch(SeqNum(1)).expect("seq 1 committed");
        let (_, dg2, _, _) = engines[2].serve_fetch(SeqNum(2)).expect("seq 2 committed");
        assert_eq!(dg1, d1);
        assert_eq!(dg2, d2);
        assert!(cert1.signer_count() >= 3);
        // A fresh replica that installs only seq 2 reports the seq-1 hole.
        let cfg = ConsensusConfig::new(4, 1_000);
        let mut late = MultiEngine::new(ProtocolKind::Pbft, ReplicaId(3), cfg, 2);
        let (v2, dg2, b2, c2) = engines[2].serve_fetch(SeqNum(2)).unwrap();
        let acts = late.install_fetched(SeqNum(2), v2, dg2, b2, c2);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::CommitBatch { seq, .. } if *seq == SeqNum(2))));
        // Snapshot install covers every instance.
        late.install_snapshot(SeqNum(6), Digest::ZERO);
        assert!(late.fetch_wanted(8).is_empty());
    }

    #[test]
    fn k1_wraps_either_protocol() {
        let cfg = ConsensusConfig::new(4, 100);
        let p = MultiEngine::new(ProtocolKind::Pbft, ReplicaId(0), cfg, 1);
        let z = MultiEngine::new(ProtocolKind::Zyzzyva, ReplicaId(0), cfg, 1);
        assert!(p.is_primary(0) && z.is_primary(0));
        assert_eq!(p.next_seq(0), Some(SeqNum(1)));
        assert_eq!(z.next_seq(0), None);
    }

    #[test]
    #[should_panic(expected = "requires PBFT")]
    fn zyzzyva_multi_primary_panics() {
        let cfg = ConsensusConfig::new(4, 100);
        let _ = MultiEngine::new(ProtocolKind::Zyzzyva, ReplicaId(0), cfg, 2);
    }
}
