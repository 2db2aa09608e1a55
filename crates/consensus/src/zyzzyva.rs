//! The Zyzzyva protocol rule (Kotla et al., SOSP'07), sans-io.
//!
//! Zyzzyva is the speculative single-phase protocol the paper uses as the
//! "fast but fragile" comparison point. The primary orders a batch and
//! broadcasts it; backups **execute immediately** in sequence order and
//! reply to the client with a speculative response carrying their rolling
//! history digest. The client completes on 3f+1 *matching* responses (fast
//! path). With between 2f+1 and 3f matching responses the client times out
//! and distributes a *commit certificate*; replicas acknowledge with
//! `LocalCommit` (slow path). This client-driven second phase is exactly
//! why one crashed backup collapses Zyzzyva's throughput (Figure 17): the
//! fast path needs *all* replicas to answer.
//!
//! View changes run on the shared [`crate::substrate`]; what is Zyzzyva's
//! own is the speculative log, the tail a vote carries (everything
//! speculatively executed above the stable checkpoint), and what the
//! incoming primary does with the merged tails: roll back its own
//! speculation where it contradicts them, catch its execution up, and
//! re-issue the tail so laggards fill their gaps. The full Zyzzyva
//! new-view proof and fill-hole subprotocols are out of scope
//! (ARCHITECTURE.md, "Scope").

use crate::actions::Action;
use crate::config::ConsensusConfig;
use crate::substrate::{Fetched, MergedTail, ProtocolRule, Replica, Substrate};
use rdb_common::block::BlockCertificate;
use rdb_common::messages::{BatchTail, Message, Sender, SignedMessage};
use rdb_common::{quorum, Batch, Digest, ReplicaId, SeqNum, ViewNum};
use rdb_crypto::chain_digest;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One speculatively executed batch retained for view changes, fetch
/// serving and mis-speculation rollback.
#[derive(Debug)]
struct SpecEntry {
    digest: Digest,
    /// Rolling history digest *after* this batch — what a rollback to this
    /// sequence restores.
    history: Digest,
    batch: Arc<Batch>,
}

/// The Zyzzyva replica state machine.
pub type Zyzzyva = Replica<ZyzzyvaRule>;

impl Zyzzyva {
    /// Creates the state machine for replica `id`.
    pub fn new(id: ReplicaId, config: ConsensusConfig) -> Self {
        Replica::with_rule(id, config, ZyzzyvaRule::default())
    }
}

/// Zyzzyva's speculative single-phase rule over its in-order history.
#[derive(Debug, Default)]
pub struct ZyzzyvaRule {
    /// Highest sequence executed speculatively. Execution is strictly
    /// sequential and a primary executes what it proposes, so this is also
    /// where the next proposal goes.
    spec_executed: SeqNum,
    /// Rolling digest over the speculatively executed history (what
    /// speculative responses carry).
    history: Digest,
    /// Proposals that arrived out of order, waiting for their predecessor.
    /// Batches are shared with the `PrePrepare`s that carried them.
    pending: BTreeMap<SeqNum, (ViewNum, Digest, Arc<Batch>)>,
    /// Highest sequence covered by a commit certificate.
    committed: SeqNum,
    /// Speculatively executed batches above the stable checkpoint — the
    /// tail a `ViewChange` vote carries. Pruned at stable checkpoints.
    spec_log: BTreeMap<SeqNum, SpecEntry>,
    /// Rolling history just below the lowest `spec_log` entry (the value a
    /// rollback all the way to the stable checkpoint restores).
    base_history: Digest,
}

impl ZyzzyvaRule {
    /// Queues a proposal and speculatively executes every consecutive
    /// sequence now available. Zyzzyva executes strictly in order — a gap
    /// stalls execution until the hole fills.
    fn enqueue_proposal(
        &mut self,
        seq: SeqNum,
        view: ViewNum,
        digest: Digest,
        batch: Arc<Batch>,
    ) -> Vec<Action> {
        if seq <= self.spec_executed {
            return Vec::new(); // duplicate
        }
        self.pending.insert(seq, (view, digest, batch));
        let mut actions = Vec::new();
        while let Some((view, digest, batch)) = self.pending.remove(&self.spec_executed.next()) {
            actions.extend(self.try_spec_execute(self.spec_executed.next(), view, digest, batch));
        }
        actions
    }

    fn try_spec_execute(
        &mut self,
        seq: SeqNum,
        view: ViewNum,
        digest: Digest,
        batch: Arc<Batch>,
    ) -> Vec<Action> {
        debug_assert_eq!(
            seq,
            self.spec_executed.next(),
            "speculative execution is sequential"
        );
        self.spec_executed = seq;
        self.history = chain_digest(&self.history, &digest);
        self.spec_log.insert(
            seq,
            SpecEntry {
                digest,
                history: self.history,
                batch: Arc::clone(&batch),
            },
        );
        vec![Action::SpecExecute {
            seq,
            view,
            digest,
            history: self.history,
            batch,
        }]
    }

    /// Rolls the speculative suffix back to `to`: every execution above it
    /// is undone by the runtime (the emitted [`Action::Rollback`]), the
    /// rolling history rewinds to its value at `to`, and re-execution of
    /// the reconciled order resumes from `to + 1`.
    fn rollback_to(&mut self, ctx: &Substrate, to: SeqNum) -> Vec<Action> {
        if to >= self.spec_executed {
            return Vec::new();
        }
        debug_assert!(to >= ctx.stable_seq(), "never below stable");
        self.spec_log.retain(|s, _| *s <= to);
        self.history = self
            .spec_log
            .get(&to)
            .map(|e| e.history)
            .unwrap_or(self.base_history);
        self.spec_executed = to;
        vec![Action::Rollback { to }]
    }

    /// Compares an authoritative `(seq, digest)` history — a new primary's
    /// reissued list, a commit certificate, or an f+1-vouched fetch —
    /// against the local speculation. Parked proposals it contradicts are
    /// dropped; at the first executed divergence the suffix rolls back to
    /// the last agreeing sequence (never below the stable checkpoint).
    fn reconcile(&mut self, ctx: &Substrate, authoritative: &[(SeqNum, Digest)]) -> Vec<Action> {
        for (seq, dg) in authoritative {
            if self.pending.get(seq).is_some_and(|(_, pd, _)| pd != dg) {
                self.pending.remove(seq);
            }
        }
        for (seq, dg) in authoritative {
            if self.spec_log.get(seq).is_some_and(|e| e.digest != *dg) {
                let to = SeqNum(seq.0.saturating_sub(1)).max(ctx.stable_seq());
                return self.rollback_to(ctx, to);
            }
        }
        Vec::new()
    }
}

impl ProtocolRule for ZyzzyvaRule {
    /// Orders a batch and broadcasts it. The primary also speculatively
    /// executes its own proposal.
    fn propose(&mut self, ctx: &Substrate, batch: Batch, digest: Digest) -> Vec<Action> {
        let seq = self.spec_executed.next();
        // One allocation; the broadcast and the speculative execution
        // share the same batch.
        let batch = Arc::new(batch);
        let mut actions = vec![Action::Broadcast(Message::PrePrepare {
            view: ctx.view,
            seq,
            digest,
            batch: Arc::clone(&batch),
        })];
        actions.extend(self.try_spec_execute(seq, ctx.view, digest, batch));
        actions
    }

    fn on_message(&mut self, ctx: &Substrate, sm: &SignedMessage) -> Vec<Action> {
        match (sm.msg(), sm.sender()) {
            (
                Message::PrePrepare {
                    view,
                    seq,
                    digest,
                    batch,
                },
                Sender::Replica(from),
            ) => {
                // Accept proposals from the primary of the current *or a
                // later* view (re-issues can race ahead of the NewView
                // announcement); execution order is fixed by the sequence
                // number either way.
                if *view < ctx.view || from != ctx.config.primary_of(*view) || from == ctx.id {
                    return Vec::new();
                }
                self.enqueue_proposal(*seq, *view, *digest, Arc::clone(batch))
            }
            (
                Message::CommitCert {
                    view,
                    seq,
                    digest,
                    cert,
                    ..
                },
                Sender::Client(client),
            ) => {
                // Certificates assembled before a view change still prove
                // 2f+1 matching speculative executions of this sequence.
                if *view > ctx.view {
                    return Vec::new();
                }
                // The runtime verified the certificate's signatures; the
                // state machine checks the count.
                if cert.signer_count() < quorum::zyzzyva_cc_quorum(ctx.config.f) {
                    return Vec::new();
                }
                // Mis-speculation: 2f+1 replicas certified a different
                // digest at this sequence than we executed. Our suffix from
                // here on contradicts the agreed order — roll it back; the
                // certified batch itself arrives via fetch (`committed`
                // advances past `spec_executed`, which `fetch_wanted`
                // reports as a hole).
                let mut actions = self.reconcile(ctx, &[(*seq, *digest)]);
                if *seq > self.committed {
                    self.committed = *seq;
                }
                actions.push(Action::SendClient(
                    client,
                    Message::LocalCommit {
                        view: *view,
                        seq: *seq,
                        replica: ctx.id,
                    },
                ));
                actions
            }
            _ => Vec::new(),
        }
    }

    /// Whether ordered proposals are stuck behind a sequence hole.
    fn has_stalled_work(&self, _ctx: &Substrate) -> bool {
        !self.pending.is_empty()
    }

    fn tail(&self, _ctx: &Substrate) -> BatchTail {
        self.spec_log
            .iter()
            .map(|(s, e)| (*s, e.digest, Arc::clone(&e.batch)))
            .collect()
    }

    /// `pending` survives: re-issued proposals park there keyed by sequence
    /// until their predecessors arrive. The reissued list is the new
    /// primary's authoritative history: if our speculative suffix diverges
    /// from it, roll back to the last agreeing sequence before the
    /// re-issued `PrePrepare`s re-execute the reconciled order.
    fn enter_view(&mut self, ctx: &Substrate, reissued: &[(SeqNum, Digest)]) -> Vec<Action> {
        self.reconcile(ctx, reissued)
    }

    /// If this replica's own speculation contradicts the merged history,
    /// the suffix rolls back before catching up — then the view is
    /// announced and the reconciled tail re-issued so every backup
    /// converges the same way.
    fn lead_view(&mut self, ctx: &Substrate, merged: MergedTail) -> Vec<Action> {
        let authoritative: Vec<(SeqNum, Digest)> =
            merged.iter().map(|(s, (d, _))| (*s, *d)).collect();
        let mut actions = self.reconcile(ctx, &authoritative);
        // Catch our own execution up to the merged log before proposing
        // anything new (execution is strictly sequential).
        let mut catchup = Vec::new();
        while let Some((d, b)) = merged.get(&self.spec_executed.next()).cloned() {
            catchup.extend(self.try_spec_execute(self.spec_executed.next(), ctx.view, d, b));
        }
        // Announce first so backups install the view before the re-issued
        // pre-prepares reach them (in-order transports).
        actions.push(Action::Broadcast(Message::NewView {
            new_view: ctx.view,
            reissued: authoritative,
            instance: ctx.config.instance,
        }));
        for (seq, (digest, batch)) in merged {
            actions.push(Action::Broadcast(Message::PrePrepare {
                view: ctx.view,
                seq,
                digest,
                batch,
            }));
        }
        actions.extend(catchup);
        actions
    }

    /// Keeps the rolling history at the prune point so later rollbacks
    /// bottom out there.
    fn prune(&mut self, _ctx: &Substrate, stable: SeqNum) {
        if let Some(e) = self.spec_log.get(&stable) {
            self.base_history = e.history;
        }
        self.pending.retain(|s, _| *s > stable);
        self.spec_log.retain(|s, _| *s > stable);
    }

    /// Zyzzyva has no per-sequence commit certificate to attach (ordering
    /// proof lives client-side), so the certificate is empty and the
    /// requester accepts on f+1 distinct peers agreeing instead.
    fn serve_fetch(&self, ctx: &Substrate, seq: SeqNum) -> Option<Fetched> {
        let e = self.spec_log.get(&seq)?;
        let certificate = BlockCertificate::new(Vec::new());
        Some((ctx.view, e.digest, Arc::clone(&e.batch), certificate))
    }

    /// Validated means f+1 matching peers, or a full commit certificate. A
    /// fetched digest contradicting local speculation at the same sequence
    /// triggers rollback first; the batch then (re-)executes through the
    /// ordinary in-order path.
    fn install_fetched(
        &mut self,
        ctx: &mut Substrate,
        seq: SeqNum,
        (view, digest, batch, certificate): Fetched,
    ) -> Vec<Action> {
        if certificate.signer_count() >= quorum::zyzzyva_cc_quorum(ctx.config.f)
            && seq > self.committed
        {
            self.committed = seq;
        }
        let mut actions = Vec::new();
        if view > ctx.view {
            // Vouched evidence of a view change we slept through (the
            // `NewView` and its reissue list never reached us): everything
            // we speculated beyond the certified prefix may follow the old
            // primary's abandoned order, and no reissue will ever arrive to
            // reconcile it. Roll back to the certified prefix and rebuild
            // the suffix from authoritative fetches.
            let floor = self.committed.max(ctx.stable_seq());
            actions.extend(self.rollback_to(ctx, floor));
            ctx.adopt_view(view);
        }
        actions.extend(self.reconcile(ctx, &[(seq, digest)]));
        actions.extend(self.enqueue_proposal(seq, view, digest, batch));
        actions
    }

    /// Speculation bookkeeping restarts on top of the snapshot, with the
    /// rolling history the snapshotting replicas had at `base`.
    fn install_snapshot(&mut self, _ctx: &Substrate, base: SeqNum, history: Digest) {
        if base > self.spec_executed {
            self.spec_executed = base;
            self.history = history;
        }
        self.base_history = self.history;
        self.pending.retain(|s, _| *s > base);
        self.spec_log.retain(|s, _| *s > base);
        self.committed = self.committed.max(base);
    }

    /// The hole stalling in-order execution below the first parked
    /// proposal, plus certified sequences (`committed`) this replica never
    /// executed.
    fn fetch_wanted(&self, _ctx: &Substrate, limit: usize) -> Vec<SeqNum> {
        let first_parked = self.pending.keys().next().copied().unwrap_or(SeqNum(0));
        let mut wanted = Vec::new();
        let mut s = self.spec_executed.next();
        while (s < first_parked || s <= self.committed) && wanted.len() < limit {
            if !self.pending.contains_key(&s) {
                wanted.push(s);
            }
            s = s.next();
        }
        wanted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::{ClientId, Operation, SignatureBytes, Transaction};

    impl Zyzzyva {
        fn spec_executed(&self) -> SeqNum {
            self.rule.spec_executed
        }

        fn committed(&self) -> SeqNum {
            self.rule.committed
        }

        fn history(&self) -> Digest {
            self.rule.history
        }
    }

    fn cfg() -> ConsensusConfig {
        ConsensusConfig::new(4, 1000)
    }

    fn batch() -> Batch {
        vec![Transaction::new(
            ClientId(0),
            0,
            vec![Operation::Write {
                key: 1,
                value: vec![1],
            }],
        )]
        .into_iter()
        .collect()
    }

    fn d(b: u8) -> Digest {
        Digest([b; 32])
    }

    fn pre_prepare(seq: u64, digest: Digest) -> SignedMessage {
        SignedMessage::new(
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(seq),
                digest,
                batch: batch().into(),
            },
            Sender::Replica(ReplicaId(0)),
            SignatureBytes::empty(),
        )
    }

    #[test]
    fn backup_speculatively_executes_in_order() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        let acts = r1.on_message(&pre_prepare(1, d(1)));
        match &acts[..] {
            [Action::SpecExecute { seq, history, .. }] => {
                assert_eq!(*seq, SeqNum(1));
                assert_ne!(*history, Digest::ZERO);
            }
            other => panic!("expected SpecExecute, got {other:?}"),
        }
        assert_eq!(r1.spec_executed(), SeqNum(1));
    }

    #[test]
    fn gap_stalls_execution_until_hole_fills() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        // Seq 2 and 3 arrive before seq 1.
        assert!(r1.on_message(&pre_prepare(2, d(2))).is_empty());
        assert!(r1.on_message(&pre_prepare(3, d(3))).is_empty());
        assert_eq!(r1.spec_executed(), SeqNum(0));
        // Seq 1 releases all three, in order.
        let acts = r1.on_message(&pre_prepare(1, d(1)));
        let seqs: Vec<u64> = acts
            .iter()
            .filter_map(|a| match a {
                Action::SpecExecute { seq, .. } => Some(seq.0),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(r1.spec_executed(), SeqNum(3));
    }

    #[test]
    fn history_chains_over_batches() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        r1.on_message(&pre_prepare(1, d(1)));
        let h1 = r1.history();
        r1.on_message(&pre_prepare(2, d(2)));
        let h2 = r1.history();
        assert_ne!(h1, h2);
        // A replica fed the same proposals computes the same history.
        let mut r2 = Zyzzyva::new(ReplicaId(2), cfg());
        r2.on_message(&pre_prepare(1, d(1)));
        r2.on_message(&pre_prepare(2, d(2)));
        assert_eq!(r2.history(), h2);
    }

    #[test]
    fn primary_executes_its_own_proposal() {
        let mut p = Zyzzyva::new(ReplicaId(0), cfg());
        let acts = p.propose(batch(), d(9));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Broadcast(Message::PrePrepare { .. }))));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SpecExecute { seq, .. } if *seq == SeqNum(1))));
        assert_eq!(p.spec_executed(), SeqNum(1));
    }

    #[test]
    fn duplicate_proposals_ignored() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        r1.on_message(&pre_prepare(1, d(1)));
        assert!(r1.on_message(&pre_prepare(1, d(1))).is_empty());
    }

    #[test]
    fn commit_certificate_acknowledged() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        r1.on_message(&pre_prepare(1, d(1)));
        // Client distributes a certificate with 2f+1 = 3 signers.
        let cert = BlockCertificate::new(
            (0..3)
                .map(|i| (ReplicaId(i), SignatureBytes(vec![i as u8])))
                .collect(),
        );
        let cc = SignedMessage::new(
            Message::CommitCert {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(1),
                cert,
                client: ClientId(7),
            },
            Sender::Client(ClientId(7)),
            SignatureBytes::empty(),
        );
        let acts = r1.on_message(&cc);
        assert!(
            matches!(
                &acts[..],
                [Action::SendClient(c, Message::LocalCommit { seq, .. })]
                    if *c == ClientId(7) && *seq == SeqNum(1)
            ),
            "got {acts:?}"
        );
        assert_eq!(r1.committed(), SeqNum(1));
    }

    #[test]
    fn undersized_certificate_rejected() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        r1.on_message(&pre_prepare(1, d(1)));
        let cert = BlockCertificate::new(
            (0..2)
                .map(|i| (ReplicaId(i), SignatureBytes(vec![i as u8])))
                .collect(),
        );
        let cc = SignedMessage::new(
            Message::CommitCert {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(1),
                cert,
                client: ClientId(7),
            },
            Sender::Client(ClientId(7)),
            SignatureBytes::empty(),
        );
        assert!(r1.on_message(&cc).is_empty());
        assert_eq!(r1.committed(), SeqNum(0));
    }

    #[test]
    fn proposal_from_non_primary_rejected() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        let bad = SignedMessage::new(
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(1),
                batch: batch().into(),
            },
            Sender::Replica(ReplicaId(2)),
            SignatureBytes::empty(),
        );
        assert!(r1.on_message(&bad).is_empty());
    }

    #[test]
    fn checkpoint_interval_fires() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), ConsensusConfig::new(4, 2));
        assert!(r1.on_executed(SeqNum(1), d(1)).is_empty());
        let acts = r1.on_executed(SeqNum(2), d(2));
        assert!(matches!(
            &acts[..],
            [Action::Broadcast(Message::Checkpoint { .. })]
        ));
    }

    fn view_change(
        from: u32,
        new_view: u64,
        tail: Vec<(SeqNum, Digest, Arc<Batch>)>,
    ) -> SignedMessage {
        SignedMessage::new(
            Message::ViewChange {
                new_view: ViewNum(new_view),
                last_stable: SeqNum(0),
                prepared: vec![],
                tail,
                replica: ReplicaId(from),
                instance: 0,
            },
            Sender::Replica(ReplicaId(from)),
            SignatureBytes::empty(),
        )
    }

    #[test]
    fn timeout_broadcasts_vote_with_spec_tail() {
        let mut r2 = Zyzzyva::new(ReplicaId(2), cfg());
        r2.on_message(&pre_prepare(1, d(1)));
        let acts = r2.on_timeout();
        match &acts[..] {
            [Action::Broadcast(Message::ViewChange { new_view, tail, .. })] => {
                assert_eq!(*new_view, ViewNum(1));
                assert_eq!(tail.len(), 1);
                assert_eq!(tail[0].0, SeqNum(1));
                assert_eq!(tail[0].1, d(1));
            }
            other => panic!("expected ViewChange broadcast, got {other:?}"),
        }
    }

    #[test]
    fn new_primary_adopts_union_tail_and_reissues() {
        // Replica 1 is the primary of view 1. It only saw seq 1; the vote
        // tails carry seq 1 and 2, so it must catch up seq 2 and re-issue
        // both in the new view.
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        r1.on_message(&pre_prepare(1, d(1)));
        let longer: Vec<(SeqNum, Digest, Arc<Batch>)> = vec![
            (SeqNum(1), d(1), Arc::new(batch())),
            (SeqNum(2), d(2), Arc::new(batch())),
        ];
        assert!(r1.on_message(&view_change(2, 1, longer.clone())).is_empty());
        // The second vote reaches the f+1 join threshold: r1 joins the
        // view change, its own vote completes the 2f+1 quorum, and
        // become_primary fires in the same step.
        let acts = r1.on_message(&view_change(3, 1, longer));
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Broadcast(Message::ViewChange { new_view, .. }) if *new_view == ViewNum(1)
        )));
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::EnterView { view, .. } if *view == ViewNum(1))));
        assert!(acts.iter().any(
            |a| matches!(a, Action::Broadcast(Message::NewView { new_view, reissued, .. })
                if *new_view == ViewNum(1) && reissued.len() == 2)
        ));
        let reissued: Vec<u64> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast(Message::PrePrepare { view, seq, .. }) if *view == ViewNum(1) => {
                    Some(seq.0)
                }
                _ => None,
            })
            .collect();
        assert_eq!(reissued, vec![1, 2]);
        // Catch-up executed seq 2 locally.
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::SpecExecute { seq, .. } if *seq == SeqNum(2))));
        assert_eq!(r1.spec_executed(), SeqNum(2));
        assert_eq!(r1.view(), ViewNum(1));
        assert!(r1.is_primary());
        // The next fresh proposal continues after the adopted tail.
        let acts = r1.propose(batch(), d(9));
        assert!(acts.iter().any(
            |a| matches!(a, Action::Broadcast(Message::PrePrepare { seq, .. }) if *seq == SeqNum(3))
        ));
    }

    #[test]
    fn backup_installs_new_view_and_accepts_reissues() {
        let mut r2 = Zyzzyva::new(ReplicaId(2), cfg());
        // A re-issued proposal from the view-1 primary arrives before the
        // NewView announcement: accepted (future view) and executed.
        let early = SignedMessage::new(
            Message::PrePrepare {
                view: ViewNum(1),
                seq: SeqNum(1),
                digest: d(1),
                batch: batch().into(),
            },
            Sender::Replica(ReplicaId(1)),
            SignatureBytes::empty(),
        );
        let acts = r2.on_message(&early);
        assert!(matches!(&acts[..], [Action::SpecExecute { seq, .. }] if *seq == SeqNum(1)));
        let nv = SignedMessage::new(
            Message::NewView {
                new_view: ViewNum(1),
                reissued: vec![(SeqNum(1), d(1))],
                instance: 0,
            },
            Sender::Replica(ReplicaId(1)),
            SignatureBytes::empty(),
        );
        let acts = r2.on_message(&nv);
        assert!(matches!(&acts[..], [Action::EnterView { view, .. }] if *view == ViewNum(1)));
        assert_eq!(r2.view(), ViewNum(1));
        // NewView from a non-primary of that view is rejected.
        let bogus = SignedMessage::new(
            Message::NewView {
                new_view: ViewNum(2),
                reissued: vec![],
                instance: 0,
            },
            Sender::Replica(ReplicaId(0)),
            SignatureBytes::empty(),
        );
        assert!(r2.on_message(&bogus).is_empty());
    }

    fn commit_cert(seq: u64, digest: Digest) -> SignedMessage {
        let cert = BlockCertificate::new(
            (0..3)
                .map(|i| (ReplicaId(i), SignatureBytes(vec![i as u8])))
                .collect(),
        );
        SignedMessage::new(
            Message::CommitCert {
                view: ViewNum(0),
                seq: SeqNum(seq),
                digest,
                cert,
                client: ClientId(7),
            },
            Sender::Client(ClientId(7)),
            SignatureBytes::empty(),
        )
    }

    #[test]
    fn commit_cert_digest_mismatch_rolls_back_speculative_suffix() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        r1.on_message(&pre_prepare(1, d(1)));
        let h1 = r1.history();
        r1.on_message(&pre_prepare(2, d(99))); // mis-speculated batch
        r1.on_message(&pre_prepare(3, d(3)));
        // The client's certificate proves 2f+1 replicas executed d(2) at
        // seq 2 — our d(99) suffix is wrong.
        let acts = r1.on_message(&commit_cert(2, d(2)));
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::Rollback { to } if *to == SeqNum(1))),
            "must roll back to the agreed prefix: {acts:?}"
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::SendClient(_, Message::LocalCommit { .. }))),
            "still acknowledges the certificate: {acts:?}"
        );
        assert_eq!(r1.spec_executed(), SeqNum(1));
        assert_eq!(r1.history(), h1, "history rewinds with the rollback");
        assert_eq!(r1.committed(), SeqNum(2));
        // The certified-but-unexecuted sequence is now a fetch target.
        assert_eq!(r1.fetch_wanted(8), vec![SeqNum(2)]);
        // Re-executing the certified history converges with a replica
        // that never mis-speculated.
        r1.on_message(&pre_prepare(2, d(2)));
        r1.on_message(&pre_prepare(3, d(3)));
        let mut clean = Zyzzyva::new(ReplicaId(2), cfg());
        clean.on_message(&pre_prepare(1, d(1)));
        clean.on_message(&pre_prepare(2, d(2)));
        clean.on_message(&pre_prepare(3, d(3)));
        assert_eq!(r1.history(), clean.history());
        assert_eq!(r1.spec_executed(), SeqNum(3));
    }

    #[test]
    fn matching_commit_cert_does_not_roll_back() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        r1.on_message(&pre_prepare(1, d(1)));
        r1.on_message(&pre_prepare(2, d(2)));
        let acts = r1.on_message(&commit_cert(2, d(2)));
        assert!(
            !acts.iter().any(|a| matches!(a, Action::Rollback { .. })),
            "agreeing certificate must not disturb speculation: {acts:?}"
        );
        assert_eq!(r1.spec_executed(), SeqNum(2));
    }

    #[test]
    fn new_view_reissue_mismatch_rolls_back_backup() {
        // r2 speculated d(66) at seq 2; the view-1 primary's NewView says
        // the surviving history has d(2) there.
        let mut r2 = Zyzzyva::new(ReplicaId(2), cfg());
        r2.on_message(&pre_prepare(1, d(1)));
        let h1 = r2.history();
        r2.on_message(&pre_prepare(2, d(66)));
        let nv = SignedMessage::new(
            Message::NewView {
                new_view: ViewNum(1),
                reissued: vec![(SeqNum(1), d(1)), (SeqNum(2), d(2))],
                instance: 0,
            },
            Sender::Replica(ReplicaId(1)),
            SignatureBytes::empty(),
        );
        let acts = r2.on_message(&nv);
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::Rollback { to } if *to == SeqNum(1))),
            "got {acts:?}"
        );
        assert_eq!(r2.history(), h1);
        // The re-issued PrePrepare re-executes the reconciled sequence.
        let reissue = SignedMessage::new(
            Message::PrePrepare {
                view: ViewNum(1),
                seq: SeqNum(2),
                digest: d(2),
                batch: batch().into(),
            },
            Sender::Replica(ReplicaId(1)),
            SignatureBytes::empty(),
        );
        let acts = r2.on_message(&reissue);
        assert!(matches!(&acts[..], [Action::SpecExecute { seq, .. }] if *seq == SeqNum(2)));
        // Digest-identical to a never-speculated run.
        let mut clean = Zyzzyva::new(ReplicaId(3), cfg());
        clean.on_message(&pre_prepare(1, d(1)));
        clean.on_message(&pre_prepare(2, d(2)));
        assert_eq!(r2.history(), clean.history());
    }

    #[test]
    fn new_primary_rolls_back_own_divergent_speculation() {
        // r1 (view-1 primary) speculated d(66) at seq 2, but both other
        // vote tails carry d(2): the majority merge wins and r1 must roll
        // its own suffix back before re-executing.
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        r1.on_message(&pre_prepare(1, d(1)));
        r1.on_message(&pre_prepare(2, d(66)));
        let majority: Vec<(SeqNum, Digest, Arc<Batch>)> = vec![
            (SeqNum(1), d(1), Arc::new(batch())),
            (SeqNum(2), d(2), Arc::new(batch())),
        ];
        r1.on_message(&view_change(2, 1, majority.clone()));
        let acts = r1.on_message(&view_change(3, 1, majority));
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::Rollback { to } if *to == SeqNum(1))),
            "own suffix must roll back: {acts:?}"
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::SpecExecute { seq, digest, .. }
                    if *seq == SeqNum(2) && *digest == d(2))),
            "catch-up re-executes the majority digest: {acts:?}"
        );
        assert_eq!(r1.spec_executed(), SeqNum(2));
        let mut clean = Zyzzyva::new(ReplicaId(2), cfg());
        clean.on_message(&pre_prepare(1, d(1)));
        clean.on_message(&pre_prepare(2, d(2)));
        assert_eq!(r1.history(), clean.history());
    }

    #[test]
    fn serve_and_install_fetch_fill_holes() {
        let mut donor = Zyzzyva::new(ReplicaId(1), cfg());
        donor.on_message(&pre_prepare(1, d(1)));
        donor.on_message(&pre_prepare(2, d(2)));
        let (view, dg, b, cert) = donor.serve_fetch(SeqNum(1)).expect("in spec log");
        assert_eq!((view, dg), (ViewNum(0), d(1)));
        assert_eq!(cert.signer_count(), 0, "no server-side ordering proof");
        assert!(donor.serve_fetch(SeqNum(9)).is_none());

        // r2 missed seq 1: seq 2 parks, fetch_wanted names the hole, and
        // installing the fetched batch releases the parked proposal.
        let mut r2 = Zyzzyva::new(ReplicaId(2), cfg());
        r2.on_message(&pre_prepare(2, d(2)));
        assert_eq!(r2.fetch_wanted(8), vec![SeqNum(1)]);
        let acts = r2.install_fetched(SeqNum(1), view, dg, b, cert);
        let seqs: Vec<u64> = acts
            .iter()
            .filter_map(|a| match a {
                Action::SpecExecute { seq, .. } => Some(seq.0),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2], "hole fill releases the parked tail");
        assert_eq!(r2.history(), donor.history());
        assert!(r2.fetch_wanted(8).is_empty());
    }

    #[test]
    fn install_snapshot_adopts_remote_history() {
        let mut r2 = Zyzzyva::new(ReplicaId(2), cfg());
        r2.install_snapshot(SeqNum(10), d(42));
        assert_eq!(r2.spec_executed(), SeqNum(10));
        assert_eq!(r2.history(), d(42));
        assert_eq!(r2.committed(), SeqNum(10));
        assert!(r2.fetch_wanted(8).is_empty());
        // Pre-snapshot proposals are duplicates now.
        assert!(r2.on_message(&pre_prepare(5, d(5))).is_empty());
        // The next sequence continues on the adopted history.
        let acts = r2.on_message(&pre_prepare(11, d(11)));
        assert!(
            matches!(&acts[..], [Action::SpecExecute { seq, history, .. }]
            if *seq == SeqNum(11) && *history == chain_digest(&d(42), &d(11)))
        );
    }

    #[test]
    fn stale_commit_cert_from_old_view_accepted() {
        let mut r1 = Zyzzyva::new(ReplicaId(1), cfg());
        r1.on_message(&pre_prepare(1, d(1)));
        // View change happens before the client's certificate lands.
        let nv = SignedMessage::new(
            Message::NewView {
                new_view: ViewNum(1),
                reissued: vec![],
                instance: 0,
            },
            Sender::Replica(ReplicaId(1)),
            SignatureBytes::empty(),
        );
        // Self-addressed NewView is fine for the test: install view 1.
        let _ = r1.on_message(&nv);
        assert_eq!(r1.view(), ViewNum(1));
        let cert = BlockCertificate::new(
            (0..3)
                .map(|i| (ReplicaId(i), SignatureBytes(vec![i as u8])))
                .collect(),
        );
        let cc = SignedMessage::new(
            Message::CommitCert {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(1),
                cert,
                client: ClientId(7),
            },
            Sender::Client(ClientId(7)),
            SignatureBytes::empty(),
        );
        let acts = r1.on_message(&cc);
        assert!(matches!(
            &acts[..],
            [Action::SendClient(_, Message::LocalCommit { .. })]
        ));
        assert_eq!(r1.committed(), SeqNum(1));
    }
}
