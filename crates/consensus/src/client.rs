//! Client-side protocol state machines.
//!
//! PBFT clients wait for `f+1` matching replies. Zyzzyva clients implement
//! the protocol's distinctive two paths: complete on `3f+1` matching
//! speculative responses (fast), or — after a timeout with at least `2f+1`
//! matching — assemble a commit certificate from the response signatures,
//! broadcast it, and wait for `2f+1` `LocalCommit` acknowledgements.
//! The timeout-driven slow path is what makes Zyzzyva collapse under a
//! single backup failure (Figure 17).

use crate::actions::ClientAction;
use rdb_common::block::BlockCertificate;
use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{quorum, ClientId, Digest, ReplicaId, SeqNum, SignatureBytes, ViewNum};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// The replica whose vote `sm` is: its authenticated sender, provided the
/// body's self-declared `replica` field agrees with it. Signature checks
/// authenticate `sm.sender()`; the field is merely signed-over content, so
/// counting it would let one faulty replica cast a whole quorum.
fn voter(sm: &SignedMessage, declared: ReplicaId) -> Option<ReplicaId> {
    (sm.sender() == Sender::Replica(declared)).then_some(declared)
}

/// PBFT client: collects `f+1` matching replies per request.
#[derive(Debug)]
pub struct PbftClient {
    id: ClientId,
    f: usize,
    /// counter → the `(replica, result)` votes seen so far.
    outstanding: HashMap<u64, Vec<(ReplicaId, Vec<u8>)>>,
}

impl PbftClient {
    /// Creates a client for a system tolerating `f` faults.
    pub fn new(id: ClientId, f: usize) -> Self {
        PbftClient {
            id,
            f,
            outstanding: HashMap::new(),
        }
    }

    /// This client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Registers a request as outstanding (call when sending it).
    pub fn track(&mut self, counter: u64) {
        self.outstanding.entry(counter).or_default();
    }

    /// Number of requests still awaiting a reply quorum.
    pub fn pending(&self) -> usize {
        self.outstanding.len()
    }

    /// Handles a `ClientReply` envelope: one sender check, then each of
    /// its results counts as that replica's vote for its counter. Returns
    /// a `Complete` for every request that reached `f+1` distinct replicas
    /// agreeing on the result.
    pub fn on_reply(&mut self, sm: &SignedMessage) -> Vec<ClientAction> {
        let Message::ClientReply {
            client,
            replica,
            results,
            ..
        } = sm.msg()
        else {
            return Vec::new();
        };
        let (true, Some(replica)) = (*client == self.id, voter(sm, *replica)) else {
            return Vec::new();
        };
        let mut completed = Vec::new();
        for (counter, result) in results {
            let Some(votes) = self.outstanding.get_mut(counter) else {
                continue; // not ours / already collected
            };
            if votes.iter().any(|(r, res)| *r == replica && res == result) {
                continue; // duplicate vote
            }
            let matching = votes.iter().filter(|(_, res)| res == result).count() + 1;
            if matching >= quorum::client_reply_quorum(self.f) {
                self.outstanding.remove(counter);
                completed.push(ClientAction::Complete {
                    txn_counter: *counter,
                    result: result.clone(),
                });
            } else {
                votes.push((replica, result.clone()));
            }
        }
        completed
    }
}

/// A matching-group key for speculative responses: sequence, digests and
/// result must agree for responses to count toward the same quorum. The
/// view is deliberately *not* part of the key: after a view change a
/// re-issued sequence executes in different views at different replicas,
/// yet the executions match — the group tracks the highest view seen so
/// the commit certificate names one every replica has reached.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SpecKey {
    seq: SeqNum,
    digest: Digest,
    history: Digest,
    result: Vec<u8>,
}

#[derive(Debug, Default)]
struct SpecTracker {
    groups: HashMap<SpecKey, (ViewNum, Vec<(ReplicaId, SignatureBytes)>)>,
    cc_sent: bool,
    local_commits: HashSet<ReplicaId>,
    /// Result bytes associated with the certificate we distributed.
    cc_result: Vec<u8>,
}

/// How long a Zyzzyva client waits for the fast path before distributing
/// commit certificates. The client sessions and the figure simulator's
/// closed-loop clients both wait this long.
pub const ZYZZYVA_CLIENT_TIMEOUT: Duration = Duration::from_millis(300);

/// Zyzzyva client: fast path (3f+1 matching) and commit-certificate slow
/// path (2f+1 matching + 2f+1 `LocalCommit`s).
#[derive(Debug)]
pub struct ZyzzyvaClient {
    id: ClientId,
    f: usize,
    outstanding: HashMap<u64, SpecTracker>,
}

impl ZyzzyvaClient {
    /// Creates a client for a system tolerating `f` faults.
    pub fn new(id: ClientId, f: usize) -> Self {
        ZyzzyvaClient {
            id,
            f,
            outstanding: HashMap::new(),
        }
    }

    /// This client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Registers a request as outstanding (call when sending it).
    pub fn track(&mut self, counter: u64) {
        self.outstanding.entry(counter).or_default();
    }

    /// Number of requests still in flight.
    pub fn pending(&self) -> usize {
        self.outstanding.len()
    }

    /// Handles a speculative-response envelope: one sender check, then
    /// each result is matched per counter, the envelope's signature
    /// standing for every one of them. Returns a `Complete` for every
    /// request that reached `3f+1` matching responses.
    pub fn on_spec_response(&mut self, sm: &SignedMessage) -> Vec<ClientAction> {
        let Message::SpecResponse {
            view,
            seq,
            digest,
            history,
            client,
            replica,
            results,
        } = sm.msg()
        else {
            return Vec::new();
        };
        let (true, Some(replica)) = (*client == self.id, voter(sm, *replica)) else {
            return Vec::new();
        };
        let mut completed = Vec::new();
        for (counter, result) in results {
            let Some(tracker) = self.outstanding.get_mut(counter) else {
                continue;
            };
            let key = SpecKey {
                seq: *seq,
                digest: *digest,
                history: *history,
                result: result.clone(),
            };
            let (group_view, group) = tracker.groups.entry(key).or_default();
            if group.iter().any(|(r, _)| *r == replica) {
                continue; // duplicate response from the same replica
            }
            *group_view = (*group_view).max(*view);
            group.push((replica, sm.sig().clone()));
            if group.len() >= quorum::zyzzyva_fast_quorum(self.f) {
                self.outstanding.remove(counter);
                completed.push(ClientAction::Complete {
                    txn_counter: *counter,
                    result: result.clone(),
                });
            }
        }
        completed
    }

    /// The request timer fired before the fast quorum arrived. With at
    /// least `2f+1` matching responses, distribute a commit certificate;
    /// with fewer, the request must be retransmitted (returned as a
    /// no-action here; the driver handles retransmission policy).
    ///
    /// Re-fires re-distribute the certificate: a lost broadcast or lost
    /// acknowledgements would otherwise wedge the request forever.
    /// `LocalCommit` acknowledgements deduplicate by replica, so re-sends
    /// are idempotent.
    pub fn on_timeout(&mut self, counter: u64) -> Vec<ClientAction> {
        let Some(tracker) = self.outstanding.get_mut(&counter) else {
            return Vec::new();
        };
        let cc_quorum = quorum::zyzzyva_cc_quorum(self.f);
        let Some((key, (view, group))) = tracker
            .groups
            .iter()
            .filter(|(_, (_, g))| g.len() >= cc_quorum)
            .max_by_key(|(_, (_, g))| g.len())
        else {
            return Vec::new(); // not enough agreement: caller retransmits
        };
        tracker.cc_sent = true;
        tracker.cc_result = key.result.clone();
        let cert = BlockCertificate::new(group.clone());
        let msg = Message::CommitCert {
            view: *view,
            seq: key.seq,
            digest: key.digest,
            cert,
            client: self.id,
        };
        vec![ClientAction::BroadcastReplicas(msg)]
    }

    /// One diagnostic line per stuck request: response-group shapes, whether
    /// a commit certificate went out, and how many acknowledgements are in.
    pub fn debug_stuck(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .outstanding
            .iter()
            .map(|(c, t)| {
                let mut groups: Vec<String> = t
                    .groups
                    .iter()
                    .map(|(k, (v, g))| format!("seq={} view={} n={}", k.seq.0, v.0, g.len()))
                    .collect();
                groups.sort();
                format!(
                    "counter={c} cc_sent={} acks={} groups=[{}]",
                    t.cc_sent,
                    t.local_commits.len(),
                    groups.join(", ")
                )
            })
            .collect();
        out.sort();
        out
    }

    /// Handles a `LocalCommit` acknowledging our certificate. Completes on
    /// `2f+1` distinct acknowledgements.
    ///
    /// `counter` identifies which outstanding request the acknowledgement
    /// belongs to (Zyzzyva's `LocalCommit` carries the sequence; the driver
    /// maps it back to its request).
    pub fn on_local_commit(&mut self, counter: u64, sm: &SignedMessage) -> Vec<ClientAction> {
        let Message::LocalCommit { replica, .. } = sm.msg() else {
            return Vec::new();
        };
        let (Some(replica), Some(tracker)) =
            (voter(sm, *replica), self.outstanding.get_mut(&counter))
        else {
            return Vec::new();
        };
        if !tracker.cc_sent {
            return Vec::new();
        }
        tracker.local_commits.insert(replica);
        if tracker.local_commits.len() >= quorum::zyzzyva_cc_quorum(self.f) {
            let result = tracker.cc_result.clone();
            self.outstanding.remove(&counter);
            return vec![ClientAction::Complete {
                txn_counter: counter,
                result,
            }];
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reply envelope from `replica` answering `results` of `client`.
    fn replies(client: u64, replica: u32, results: &[(u64, &[u8])]) -> SignedMessage {
        SignedMessage::new(
            Message::ClientReply {
                view: ViewNum(0),
                client: ClientId(client),
                replica: ReplicaId(replica),
                results: results.iter().map(|(c, r)| (*c, r.to_vec())).collect(),
            },
            Sender::Replica(ReplicaId(replica)),
            SignatureBytes::empty(),
        )
    }

    fn reply(client: u64, counter: u64, replica: u32, result: &[u8]) -> SignedMessage {
        replies(client, replica, &[(counter, result)])
    }

    fn specs(client: u64, replica: u32, results: &[(u64, &[u8])]) -> SignedMessage {
        SignedMessage::new(
            Message::SpecResponse {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: Digest([1; 32]),
                history: Digest([2; 32]),
                client: ClientId(client),
                replica: ReplicaId(replica),
                results: results.iter().map(|(c, r)| (*c, r.to_vec())).collect(),
            },
            Sender::Replica(ReplicaId(replica)),
            SignatureBytes(vec![replica as u8; 4]),
        )
    }

    fn spec(client: u64, counter: u64, replica: u32, result: &[u8]) -> SignedMessage {
        specs(client, replica, &[(counter, result)])
    }

    fn completed(acts: &[ClientAction]) -> Vec<u64> {
        acts.iter()
            .map(|a| match a {
                ClientAction::Complete { txn_counter, .. } => *txn_counter,
                other => panic!("expected Complete, got {other:?}"),
            })
            .collect()
    }

    fn local_commit(replica: u32) -> SignedMessage {
        SignedMessage::new(
            Message::LocalCommit {
                view: ViewNum(0),
                seq: SeqNum(1),
                replica: ReplicaId(replica),
            },
            Sender::Replica(ReplicaId(replica)),
            SignatureBytes::empty(),
        )
    }

    // ---- PBFT client (f = 1: needs 2 matching replies) ----

    #[test]
    fn pbft_client_completes_at_f_plus_1() {
        let mut c = PbftClient::new(ClientId(7), 1);
        c.track(0);
        assert!(c.on_reply(&reply(7, 0, 0, b"ok")).is_empty());
        let acts = c.on_reply(&reply(7, 0, 1, b"ok"));
        assert!(
            matches!(&acts[..], [ClientAction::Complete { txn_counter: 0, result }] if result == b"ok")
        );
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn pbft_client_requires_matching_results() {
        let mut c = PbftClient::new(ClientId(7), 1);
        c.track(0);
        assert!(c.on_reply(&reply(7, 0, 0, b"ok")).is_empty());
        assert!(c.on_reply(&reply(7, 0, 1, b"bad")).is_empty());
        // A second vote for "ok" completes.
        let acts = c.on_reply(&reply(7, 0, 2, b"ok"));
        assert_eq!(acts.len(), 1);
    }

    #[test]
    fn pbft_client_ignores_duplicates_and_foreign_replies() {
        let mut c = PbftClient::new(ClientId(7), 1);
        c.track(0);
        c.on_reply(&reply(7, 0, 0, b"ok"));
        assert!(
            c.on_reply(&reply(7, 0, 0, b"ok")).is_empty(),
            "same replica twice"
        );
        assert!(
            c.on_reply(&reply(8, 0, 1, b"ok")).is_empty(),
            "another client's reply"
        );
        assert!(
            c.on_reply(&reply(7, 5, 1, b"ok")).is_empty(),
            "untracked counter"
        );
        assert_eq!(c.pending(), 1);
    }

    #[test]
    fn pbft_coalesced_envelope_completes_all_its_counters_at_f_plus_1() {
        let mut c = PbftClient::new(ClientId(7), 1);
        (0..3).for_each(|n| c.track(n));
        let batch: [(u64, &[u8]); 3] = [(0, b"a"), (1, b"b"), (2, b"c")];
        assert!(c.on_reply(&replies(7, 0, &batch)).is_empty());
        // The same replica's envelope again counts once per counter.
        assert!(c.on_reply(&replies(7, 0, &batch)).is_empty());
        assert_eq!(completed(&c.on_reply(&replies(7, 1, &batch))), [0, 1, 2]);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn pbft_disagreement_on_one_counter_delays_only_that_counter() {
        let mut c = PbftClient::new(ClientId(7), 1);
        (0..3).for_each(|n| c.track(n));
        c.on_reply(&replies(7, 0, &[(0, b"a"), (1, b"b"), (2, b"c")]));
        let acts = c.on_reply(&replies(7, 1, &[(0, b"a"), (1, b"WRONG"), (2, b"c")]));
        assert_eq!(completed(&acts), [0, 2]);
        assert_eq!(c.pending(), 1);
        let acts = c.on_reply(&replies(7, 2, &[(0, b"a"), (1, b"b"), (2, b"c")]));
        assert_eq!(
            completed(&acts),
            [1],
            "finished counters are not re-completed"
        );
    }

    // ---- Zyzzyva client (f = 1: fast quorum 4, cc quorum 3) ----

    #[test]
    fn zyzzyva_coalesced_envelope_completes_all_its_counters_on_the_fast_path() {
        let mut c = ZyzzyvaClient::new(ClientId(7), 1);
        c.track(0);
        c.track(1);
        let batch: [(u64, &[u8]); 2] = [(0, b"a"), (1, b"b")];
        for r in 0..3 {
            assert!(c.on_spec_response(&specs(7, r, &batch)).is_empty());
        }
        assert_eq!(completed(&c.on_spec_response(&specs(7, 3, &batch))), [0, 1]);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn zyzzyva_fast_path_needs_all_replicas() {
        let mut c = ZyzzyvaClient::new(ClientId(7), 1);
        c.track(0);
        for r in 0..3 {
            assert!(
                c.on_spec_response(&spec(7, 0, r, b"ok")).is_empty(),
                "replica {r}"
            );
        }
        let acts = c.on_spec_response(&spec(7, 0, 3, b"ok"));
        assert!(
            matches!(&acts[..], [ClientAction::Complete { txn_counter: 0, .. }]),
            "3f+1 matching must complete: {acts:?}"
        );
    }

    #[test]
    fn zyzzyva_slow_path_via_commit_certificate() {
        let mut c = ZyzzyvaClient::new(ClientId(7), 1);
        c.track(0);
        // Only 3 of 4 replicas answer (one crashed) — fast path impossible.
        for r in 0..3 {
            c.on_spec_response(&spec(7, 0, r, b"ok"));
        }
        // Timeout: with 2f+1 = 3 matching the client distributes a CC.
        let acts = c.on_timeout(0);
        match &acts[..] {
            [ClientAction::BroadcastReplicas(Message::CommitCert { cert, seq, .. })] => {
                assert_eq!(cert.signer_count(), 3);
                assert_eq!(*seq, SeqNum(1));
            }
            other => panic!("expected CommitCert broadcast, got {other:?}"),
        }
        // 2f+1 LocalCommits complete the request.
        assert!(c.on_local_commit(0, &local_commit(0)).is_empty());
        assert!(c.on_local_commit(0, &local_commit(1)).is_empty());
        let acts = c.on_local_commit(0, &local_commit(2));
        assert!(
            matches!(&acts[..], [ClientAction::Complete { txn_counter: 0, result }] if result == b"ok")
        );
    }

    #[test]
    fn zyzzyva_timeout_without_cc_quorum_is_noop() {
        let mut c = ZyzzyvaClient::new(ClientId(7), 1);
        c.track(0);
        c.on_spec_response(&spec(7, 0, 0, b"ok"));
        c.on_spec_response(&spec(7, 0, 1, b"ok"));
        // Only 2 < 2f+1 matching: the driver must retransmit instead.
        assert!(c.on_timeout(0).is_empty());
        assert_eq!(c.pending(), 1);
    }

    #[test]
    fn zyzzyva_divergent_histories_do_not_match() {
        let mut c = ZyzzyvaClient::new(ClientId(7), 1);
        c.track(0);
        for r in 0..3 {
            c.on_spec_response(&spec(7, 0, r, b"ok"));
        }
        // Fourth replica diverges on the result: no fast quorum.
        let acts = c.on_spec_response(&spec(7, 0, 3, b"DIFFERENT"));
        assert!(acts.is_empty());
        assert_eq!(c.pending(), 1);
    }

    #[test]
    fn zyzzyva_duplicate_spec_responses_ignored() {
        let mut c = ZyzzyvaClient::new(ClientId(7), 1);
        c.track(0);
        for _ in 0..10 {
            assert!(c.on_spec_response(&spec(7, 0, 0, b"ok")).is_empty());
        }
    }

    #[test]
    fn zyzzyva_timeout_resends_cc_until_acked() {
        let mut c = ZyzzyvaClient::new(ClientId(7), 1);
        c.track(0);
        for r in 0..3 {
            c.on_spec_response(&spec(7, 0, r, b"ok"));
        }
        assert_eq!(c.on_timeout(0).len(), 1);
        // The first certificate (or its acks) may be lost: a later timeout
        // re-distributes it rather than wedging the request.
        assert_eq!(c.on_timeout(0).len(), 1, "re-fire must re-send the CC");
        // Partial acks survive the re-send; completion still needs 2f+1.
        assert!(c.on_local_commit(0, &local_commit(0)).is_empty());
        assert_eq!(c.on_timeout(0).len(), 1);
        assert!(c.on_local_commit(0, &local_commit(1)).is_empty());
        let acts = c.on_local_commit(0, &local_commit(2));
        assert!(matches!(&acts[..], [ClientAction::Complete { .. }]));
    }

    #[test]
    fn zyzzyva_local_commits_before_cc_ignored() {
        let mut c = ZyzzyvaClient::new(ClientId(7), 1);
        c.track(0);
        assert!(c.on_local_commit(0, &local_commit(0)).is_empty());
    }
}
