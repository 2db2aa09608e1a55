//! Multi-primary ordering, the consensus half: k [`ReplicaEngine`]s per
//! replica, instance `j` built with [`ConsensusConfig::for_instance`] so it
//! is led by replica `(view + j) mod n` and owns the global sequences
//! `j+1, j+1+k, j+1+2k, …`.
//!
//! The router that holds the k engines is `rdb_pipeline::ReplicaCore`;
//! these tests drive bare engines, routing each sequence-bearing message by
//! [`ConsensusConfig::owns`], to check that the per-instance configs alone
//! make the k instances commit disjoint, interleaved sequences.

#[cfg(test)]
mod tests {
    use crate::actions::Action;
    use crate::config::ConsensusConfig;
    use crate::engine::ReplicaEngine;
    use rdb_common::messages::{Message, Sender, SignedMessage};
    use rdb_common::{
        Batch, ClientId, Digest, Operation, ProtocolKind, ReplicaId, SeqNum, SignatureBytes,
        Transaction,
    };
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

    /// The k engines of one replica, instance `j` at index `j`.
    fn instances(protocol: ProtocolKind, id: ReplicaId, k: u64) -> Vec<ReplicaEngine> {
        let cfg = ConsensusConfig::new(4, 1_000);
        (0..k)
            .map(|j| ReplicaEngine::new(protocol, id, cfg.for_instance(j as u32, k)))
            .collect()
    }

    /// The instance among `engines` that owns the message's sequence.
    fn owner<'a>(engines: &'a mut [ReplicaEngine], msg: &Message) -> &'a mut ReplicaEngine {
        let seq = msg.seq().expect("normal-case traffic carries a sequence");
        engines
            .iter_mut()
            .find(|e| e.config().owns(seq))
            .expect("every sequence has an owning instance")
    }

    /// Delivers every broadcast/unicast in `pending` to its destinations,
    /// collecting commits per replica, until the network is quiescent.
    fn run_to_quiescence(
        replicas: &mut [Vec<ReplicaEngine>],
        mut pending: Vec<(ReplicaId, Action)>,
    ) -> Vec<Vec<(SeqNum, Digest)>> {
        let mut commits: Vec<Vec<(SeqNum, Digest)>> = vec![Vec::new(); replicas.len()];
        while !pending.is_empty() {
            let mut next = Vec::new();
            for (from, action) in pending.drain(..) {
                let targets: Vec<ReplicaId> = match &action {
                    Action::Broadcast(_) => (0..replicas.len() as u32)
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
                    let engine = owner(&mut replicas[to.0 as usize], msg);
                    for a in engine.on_message(&sm) {
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
        let mut replicas: Vec<Vec<ReplicaEngine>> = (0..4)
            .map(|i| instances(ProtocolKind::Pbft, ReplicaId(i), 2))
            .collect();
        // Replica 0 leads instance 0 (seqs 1, 3, …); replica 1 leads
        // instance 1 (seqs 2, 4, …).
        assert!(replicas[0][0].is_primary() && !replicas[0][1].is_primary());
        assert!(replicas[1][1].is_primary() && !replicas[1][0].is_primary());
        assert_eq!(replicas[0][0].next_seq(), Some(SeqNum(1)));
        assert_eq!(replicas[1][1].next_seq(), Some(SeqNum(2)));

        let b1 = batch(1);
        let d1 = batch_digest(&b1.canonical_bytes());
        let b2 = batch(2);
        let d2 = batch_digest(&b2.canonical_bytes());
        let mut pending: Vec<(ReplicaId, Action)> = Vec::new();
        for a in replicas[0][0].propose(b1, d1) {
            pending.push((ReplicaId(0), a));
        }
        for a in replicas[1][1].propose(b2, d2) {
            pending.push((ReplicaId(1), a));
        }
        let commits = run_to_quiescence(&mut replicas, pending);
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
        // Each primary steps by k on its own share of the sequence space.
        assert_eq!(replicas[0][0].next_seq(), Some(SeqNum(3)));
        assert_eq!(replicas[1][1].next_seq(), Some(SeqNum(4)));
    }

    #[test]
    fn k1_wraps_either_protocol() {
        let p = instances(ProtocolKind::Pbft, ReplicaId(0), 1).remove(0);
        let z = instances(ProtocolKind::Zyzzyva, ReplicaId(0), 1).remove(0);
        assert!(p.is_primary() && z.is_primary());
        assert_eq!(p.next_seq(), Some(SeqNum(1)));
        assert_eq!(z.next_seq(), None);
        // The single instance owns the whole sequence space.
        for s in 1..=5 {
            assert!(p.config().owns(SeqNum(s)) && z.config().owns(SeqNum(s)));
        }
    }
}
