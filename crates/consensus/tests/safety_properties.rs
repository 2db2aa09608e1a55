//! Property-based safety tests: no delivery order, duplication pattern, or
//! partial delivery may make two replicas commit different batches at the
//! same sequence number — the core BFT invariant that makes the paper's
//! out-of-order consensus (Section 4.5) safe — in a fault-free view, across
//! a primary crash and view change, and against a replica that forges the
//! `replica` field of its votes — to other replicas or to a client.

use proptest::prelude::*;
use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{
    Batch, ClientId, Digest, Operation, ProtocolKind, ReplicaId, SeqNum, SignatureBytes,
    Transaction, ViewNum,
};
use rdb_consensus::{
    Action, ClientCore, ClientEffect, ClientInput, ConsensusConfig, ReplicaEngine,
    ZYZZYVA_CLIENT_TIMEOUT,
};
use std::collections::HashMap;
use std::time::Instant;

const N: usize = 4;

fn batch(tag: u64) -> Batch {
    vec![Transaction::new(
        ClientId(tag),
        tag,
        vec![Operation::Write {
            key: tag,
            value: tag.to_le_bytes().to_vec(),
        }],
    )]
    .into_iter()
    .collect()
}

fn digest_for(tag: u64) -> Digest {
    Digest([tag as u8; 32])
}

/// Runs a full cluster of state machines over a message schedule derived
/// from `order`, returning each replica's committed (seq → digest) map and
/// final view.
///
/// With `crash_after = Some(k)` the view-0 primary crashes after `k`
/// deliveries: nothing reaches it any more (what it already sent stays on
/// the wire), and the three survivors' suspicion timers fire once.
fn run_cluster(
    protocol: ProtocolKind,
    n_batches: u64,
    order: &[usize],
    duplicate_every: usize,
    crash_after: Option<usize>,
) -> (Vec<HashMap<SeqNum, Digest>>, Vec<ViewNum>) {
    let cfg = ConsensusConfig::new(N, 1_000_000);
    let mut engines: Vec<ReplicaEngine> = (0..N as u32)
        .map(|i| ReplicaEngine::new(protocol, ReplicaId(i), cfg))
        .collect();
    let mut committed: Vec<HashMap<SeqNum, Digest>> = vec![HashMap::new(); N];
    // In-flight messages: (destination, signed message).
    let mut wires: Vec<(usize, SignedMessage)> = Vec::new();

    let drain = |from: usize,
                 actions: Vec<Action>,
                 wires: &mut Vec<(usize, SignedMessage)>,
                 committed: &mut Vec<HashMap<SeqNum, Digest>>| {
        for act in actions {
            match act {
                Action::Broadcast(msg) => {
                    for dest in 0..N {
                        if dest != from {
                            wires.push((dest, signed(from as u32, msg.clone())));
                        }
                    }
                }
                Action::SendReplica(r, msg) => wires.push((r.as_usize(), signed(from as u32, msg))),
                Action::CommitBatch { seq, digest, .. } => {
                    let prev = committed[from].insert(seq, digest);
                    assert!(
                        prev.is_none() || prev == Some(digest),
                        "replica {from} committed two digests at {seq}"
                    );
                }
                Action::SpecExecute { seq, digest, .. } => {
                    let prev = committed[from].insert(seq, digest);
                    assert!(prev.is_none() || prev == Some(digest));
                }
                // Mis-speculation undone: the suffix is no longer history.
                Action::Rollback { to } => committed[from].retain(|seq, _| *seq <= to),
                _ => {}
            }
        }
    };

    // The primary proposes all batches up front (out-of-order consensus).
    for tag in 1..=n_batches {
        let actions = engines[0].propose(batch(tag), digest_for(tag));
        drain(0, actions, &mut wires, &mut committed);
    }

    // Deliver messages following the permutation stream until quiescent.
    let mut step = 0usize;
    let mut crashed = false;
    loop {
        if !crashed && crash_after.is_some_and(|k| step >= k || wires.is_empty()) {
            crashed = true;
            for (r, engine) in engines.iter_mut().enumerate().skip(1) {
                drain(r, engine.on_timeout(), &mut wires, &mut committed);
            }
        }
        if crashed {
            wires.retain(|(dest, _)| *dest != 0);
        }
        if wires.is_empty() {
            break;
        }
        let pick = order.get(step % order.len()).copied().unwrap_or(0) % wires.len();
        step += 1;
        let (dest, msg) = wires.swap_remove(pick);
        // Optionally duplicate the message (byzantine-ish network).
        if duplicate_every > 0 && step.is_multiple_of(duplicate_every) {
            let actions = engines[dest].on_message(&msg);
            drain(dest, actions, &mut wires, &mut committed);
        }
        let actions = engines[dest].on_message(&msg);
        drain(dest, actions, &mut wires, &mut committed);
        if step > 200_000 {
            panic!("schedule did not quiesce");
        }
    }
    let views = engines.iter().map(ReplicaEngine::view).collect();
    (committed, views)
}

/// Every sequence any replica decided has one digest cluster-wide.
fn assert_single_digest_per_seq(
    committed: &[HashMap<SeqNum, Digest>],
) -> Result<(), TestCaseError> {
    let mut agreed: HashMap<SeqNum, Digest> = HashMap::new();
    for (r, map) in committed.iter().enumerate() {
        for (seq, digest) in map {
            let first = *agreed.entry(*seq).or_insert(*digest);
            prop_assert_eq!(first, *digest, "replica {} diverges at {}", r, seq);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PBFT: any delivery order + duplication yields identical commit maps
    /// at every replica, covering every proposed sequence.
    #[test]
    fn pbft_agreement_under_arbitrary_delivery(
        order in proptest::collection::vec(0usize..64, 8..64),
        n_batches in 1u64..6,
        duplicate_every in 0usize..5,
    ) {
        let (committed, _) =
            run_cluster(ProtocolKind::Pbft, n_batches, &order, duplicate_every, None);
        // Every replica commits every sequence 1..=n_batches.
        for (r, map) in committed.iter().enumerate() {
            prop_assert_eq!(map.len() as u64, n_batches, "replica {} incomplete", r);
        }
        // All replicas agree on the digest at every sequence.
        for seq in 1..=n_batches {
            let d0 = committed[0][&SeqNum(seq)];
            for map in &committed {
                prop_assert_eq!(map[&SeqNum(seq)], d0);
            }
        }
    }

    /// Zyzzyva: speculative execution is sequential and identical across
    /// replicas for any delivery order of the primary's proposals.
    #[test]
    fn zyzzyva_speculative_order_is_common(
        order in proptest::collection::vec(0usize..64, 8..64),
        n_batches in 1u64..6,
    ) {
        let (committed, _) = run_cluster(ProtocolKind::Zyzzyva, n_batches, &order, 0, None);
        for seq in 1..=n_batches {
            let d0 = committed[0][&SeqNum(seq)];
            for map in &committed {
                prop_assert_eq!(map[&SeqNum(seq)], d0);
            }
        }
    }

    /// Either protocol: the primary crashes at an arbitrary point of an
    /// arbitrary delivery order, the survivors change view, and whatever
    /// each replica decided — before the crash, in the old view after
    /// voting, or off the new primary's re-issue — is one digest per
    /// sequence. (Liveness is not asserted: a re-issue can stall on a
    /// sequence a voter committed only after casting its vote.)
    #[test]
    fn view_change_keeps_one_digest_per_sequence(
        zyzzyva in any::<bool>(),
        order in proptest::collection::vec(0usize..64, 8..64),
        n_batches in 1u64..6,
        duplicate_every in 0usize..5,
        crash_after in 0usize..80,
    ) {
        let protocol = if zyzzyva { ProtocolKind::Zyzzyva } else { ProtocolKind::Pbft };
        let (committed, views) =
            run_cluster(protocol, n_batches, &order, duplicate_every, Some(crash_after));
        assert_single_digest_per_seq(&committed)?;
        // No message is lost, so the 2f+1 votes always meet: the survivors
        // end in view 1 under replica 1; the crashed primary never moved.
        prop_assert_eq!(views, vec![ViewNum(0), ViewNum(1), ViewNum(1), ViewNum(1)]);
    }
}

/// `msg` in an envelope whose verified sender is replica `from`.
fn signed(from: u32, msg: Message) -> SignedMessage {
    SignedMessage::new(
        msg,
        Sender::Replica(ReplicaId(from)),
        SignatureBytes(vec![from as u8]),
    )
}

/// The envelope's verified sender is what counts: n checkpoint votes from
/// one sender, each claiming a different `replica`, are one vote — never
/// the 2f+1 that would make the victim garbage-collect below a state
/// nobody else vouched for.
#[test]
fn forged_replica_ids_cannot_stabilise_a_checkpoint() {
    let checkpoint = |replica| Message::Checkpoint {
        seq: SeqNum(100),
        state_digest: digest_for(9),
        replica,
    };
    for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
        let mut victim = ReplicaEngine::new(protocol, ReplicaId(1), ConsensusConfig::new(N, 100));
        for claimed in 0..N as u32 {
            // Byzantine replica 3 signs it, whatever `replica` claims.
            let acts = victim.on_message(&signed(3, checkpoint(ReplicaId(claimed))));
            assert!(acts.is_empty(), "{protocol:?}: {acts:?}");
        }
        // Two more distinct, real voters do complete the quorum: the
        // forger's own vote counted once.
        for honest in [0u32, 2] {
            let acts = victim.on_message(&signed(honest, checkpoint(ReplicaId(honest))));
            let stable =
                matches!(&acts[..], [Action::StableCheckpoint { seq }] if *seq == SeqNum(100));
            assert_eq!(stable, honest == 2, "{protocol:?}: {acts:?}");
        }
    }
}

/// The sequences at which `engine` broadcasts a checkpoint vote while it
/// executes `seqs`.
fn checkpoint_votes(engine: &mut ReplicaEngine, seqs: impl Iterator<Item = u64>) -> Vec<u64> {
    seqs.flat_map(|seq| engine.on_executed(SeqNum(seq), digest_for(seq)))
        .filter_map(|act| match act {
            Action::Broadcast(Message::Checkpoint { seq, .. }) => Some(seq.0),
            _ => None,
        })
        .collect()
}

/// Checkpoint votes must land on the same sequences at every replica or
/// no 2f+1 of them ever match: the cadence is a function of the sequence
/// number, not of where a replica restarted or installed a snapshot.
#[test]
fn checkpoint_cadence_follows_the_sequence_not_the_boot_point() {
    for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
        // A durable replica restarted at WAL head 7 with Δ = 4.
        let mut reborn = ReplicaEngine::new(protocol, ReplicaId(1), ConsensusConfig::new(N, 4));
        reborn.install_snapshot(SeqNum(7), Digest::ZERO);
        assert_eq!(
            checkpoint_votes(&mut reborn, 8..=16),
            [8, 12, 16],
            "{protocol:?}"
        );
        // Two instances: instance j owns j+1, j+3, …; its Δ-th, 2Δ-th, …
        // own sequences are the boundaries, wherever it picks up.
        for (instance, from, expected) in [(0, 1, [7, 15]), (1, 2, [8, 16]), (0, 11, [15, 23])] {
            let cfg = ConsensusConfig::new(N, 4).for_instance(instance, 2);
            let mut engine = ReplicaEngine::new(protocol, ReplicaId(1), cfg);
            let owned = (from..).step_by(2).take_while(|seq| *seq <= expected[1]);
            assert_eq!(
                checkpoint_votes(&mut engine, owned),
                expected,
                "{protocol:?} instance {instance} from {from}"
            );
        }
    }
}

/// Likewise for view-change votes: the victim is view 1's primary, so f+1
/// forged votes would make it join and 2f+1 would crown it.
#[test]
fn forged_replica_ids_cannot_trigger_a_view_change() {
    let view_change = |replica| Message::ViewChange {
        new_view: ViewNum(1),
        last_stable: SeqNum(0),
        prepared: vec![],
        tail: vec![],
        replica,
        instance: 0,
    };
    for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
        let mut victim = ReplicaEngine::new(protocol, ReplicaId(1), ConsensusConfig::new(N, 100));
        for claimed in 0..N as u32 {
            let acts = victim.on_message(&signed(3, view_change(ReplicaId(claimed))));
            assert!(acts.is_empty(), "{protocol:?}: {acts:?}");
        }
        assert_eq!(victim.view(), ViewNum(0), "{protocol:?}");
        // A second, real voter reaches f+1: the victim joins, and its own
        // vote makes 2f+1.
        let acts = victim.on_message(&signed(2, view_change(ReplicaId(2))));
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::EnterView { view, .. } if *view == ViewNum(1))),
            "{protocol:?}: {acts:?}"
        );
    }
}

/// A `ClientCore` driven on a virtual clock, one input at a time.
struct Client {
    core: ClientCore,
    now: Instant,
}

impl Client {
    fn new(id: ClientId, protocol: ProtocolKind) -> Self {
        let now = Instant::now();
        let core = ClientCore::new(id, protocol, 1, N, now);
        Client { core, now }
    }

    fn step(&mut self, input: ClientInput) -> Vec<ClientEffect> {
        let mut fx = Vec::new();
        self.core.step(input, self.now, &mut fx);
        fx
    }

    fn track(&mut self, counter: u64) {
        let txn = Transaction::new(self.core.id(), counter, Vec::new());
        self.step(ClientInput::Submit(vec![txn]));
    }

    fn on_reply(&mut self, sm: &SignedMessage) -> Vec<ClientEffect> {
        self.step(ClientInput::Reply(sm.clone()))
    }

    /// The fast-path timer fires; only what it does counts.
    fn on_timeout(&mut self) -> Vec<ClientEffect> {
        self.now += ZYZZYVA_CLIENT_TIMEOUT;
        self.step(ClientInput::Tick)
    }
}

/// The client trackers count the verified sender too: f+1 replies (or
/// 3f+1 speculative responses) signed by one faulty replica under
/// different `replica` ids are one vote, and must not complete a request
/// with a result no honest replica produced.
#[test]
fn forged_replica_ids_cannot_complete_a_client_request() {
    let me = ClientId(7);
    let reply = |replica, result: &[u8]| Message::ClientReply {
        view: ViewNum(0),
        client: me,
        replica,
        results: [(0, result)].into_iter().collect(),
    };
    let mut pbft = Client::new(me, ProtocolKind::Pbft);
    pbft.track(0);
    for claimed in 0..N as u32 {
        let acts = pbft.on_reply(&signed(3, reply(ReplicaId(claimed), b"evil")));
        assert!(acts.is_empty(), "{acts:?}");
    }
    // Two real voters do: the request was still open.
    assert!(pbft
        .on_reply(&signed(0, reply(ReplicaId(0), b"ok")))
        .is_empty());
    let acts = pbft.on_reply(&signed(1, reply(ReplicaId(1), b"ok")));
    assert!(
        matches!(&acts[..], [ClientEffect::Complete { result, .. }] if **result == *b"ok"),
        "{acts:?}"
    );

    let spec = |replica| Message::SpecResponse {
        view: ViewNum(0),
        seq: SeqNum(1),
        digest: digest_for(1),
        history: digest_for(2),
        client: me,
        replica,
        results: [(0, b"evil")].into_iter().collect(),
    };
    let mut zyzzyva = Client::new(me, ProtocolKind::Zyzzyva);
    zyzzyva.track(0);
    for claimed in 0..N as u32 {
        let acts = zyzzyva.on_reply(&signed(3, spec(ReplicaId(claimed))));
        assert!(acts.is_empty(), "{acts:?}");
    }
    // One voter is no commit-certificate quorum either.
    assert!(zyzzyva.on_timeout().is_empty());
}

/// Likewise on Zyzzyva's slow path: 2f+1 `LocalCommit`s from one sender
/// do not acknowledge a commit certificate.
#[test]
fn forged_replica_ids_cannot_fake_a_local_commit_quorum() {
    let me = ClientId(7);
    let mut client = Client::new(me, ProtocolKind::Zyzzyva);
    client.track(0);
    for r in 0..3u32 {
        let spec = Message::SpecResponse {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: digest_for(1),
            history: digest_for(2),
            client: me,
            replica: ReplicaId(r),
            results: [(0, b"ok")].into_iter().collect(),
        };
        assert!(client.on_reply(&signed(r, spec)).is_empty());
    }
    assert_eq!(client.on_timeout().len(), 1, "certificate distributed");
    let ack = |replica| Message::LocalCommit {
        view: ViewNum(0),
        seq: SeqNum(1),
        replica,
    };
    for claimed in 0..N as u32 {
        let acts = client.on_reply(&signed(3, ack(ReplicaId(claimed))));
        assert!(acts.is_empty(), "{acts:?}");
    }
    // The forger's own acknowledgement counted once: two more real ones
    // make 2f+1.
    assert!(client.on_reply(&signed(0, ack(ReplicaId(0)))).is_empty());
    let acts = client.on_reply(&signed(1, ack(ReplicaId(1))));
    assert!(
        matches!(&acts[..], [ClientEffect::Complete { .. }]),
        "{acts:?}"
    );
}

#[test]
fn equivocation_cannot_commit_two_digests_at_one_seq() {
    // A byzantine primary sends conflicting pre-prepares to different
    // backups; no correct replica may gather a commit quorum for both.
    let cfg = ConsensusConfig::new(N, 1_000_000);
    let mut r1 = rdb_consensus::Pbft::new(ReplicaId(1), cfg);

    let pp = |d: Digest| {
        SignedMessage::new(
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d,
                batch: batch(1).into(),
            },
            Sender::Replica(ReplicaId(0)),
            SignatureBytes::empty(),
        )
    };
    // r1 accepts digest A, then sees the conflicting B: B must be refused.
    let a = digest_for(1);
    let b = digest_for(2);
    assert!(!r1.on_message(&pp(a)).is_empty());
    assert!(r1.on_message(&pp(b)).is_empty());
    // Votes for B never advance r1.
    for from in [2u32, 3] {
        let acts = r1.on_message(&SignedMessage::new(
            Message::Prepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: b,
            },
            Sender::Replica(ReplicaId(from)),
            SignatureBytes::empty(),
        ));
        assert!(acts.is_empty(), "conflicting prepares must not fire");
    }
}
