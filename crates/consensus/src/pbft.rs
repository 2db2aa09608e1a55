//! The PBFT protocol rule (Castro & Liskov, OSDI'99), sans-io.
//!
//! Three phases: the primary assigns a sequence number and broadcasts
//! `PrePrepare`; backups broadcast `Prepare`; on 2f matching prepares a
//! replica broadcasts `Commit`; on 2f+1 matching commits the batch is
//! committed and handed to ordered execution. Out-of-order consensus is
//! natural here (Section 4.5 of the paper): instances at different
//! sequence numbers progress independently, and PBFT's quorum logic — not
//! hash-chaining between requests — guarantees a single common order.
//!
//! View changes run on the shared [`crate::substrate`]; what is PBFT's own
//! is the per-sequence [`Instance`] log, the tail a vote carries (every
//! batch held above the stable checkpoint), and what the incoming primary
//! does with the merged tails: fill holes with no-op batches and re-issue
//! every unresolved sequence at its original number — so requests in
//! flight when the old primary died commit exactly once in the new view.
//! The full new-view proof machinery of the original paper is out of scope
//! (ARCHITECTURE.md, "Scope"), but the re-issue path is real and exercised
//! by the failure-scenario matrix.

use crate::actions::Action;
use crate::config::ConsensusConfig;
use crate::substrate::{Fetched, MergedTail, ProtocolRule, Replica, Substrate};
use rdb_common::block::BlockCertificate;
use rdb_common::messages::{BatchTail, Message, Sender, SignedMessage};
use rdb_common::{quorum, Batch, Digest, ReplicaId, SeqNum, SignatureBytes, ViewNum};
use rdb_crypto::digest as batch_digest;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Bound on parked future-view messages (proposals and votes that raced
/// ahead of our `NewView` processing).
const MAX_PARKED: usize = 4096;

/// A prepare or commit vote. One that arrives for a view ahead of ours is
/// parked and replayed once the view installs, so quorums formed across
/// the change are not lost to message reordering.
#[derive(Debug)]
struct Vote {
    view: ViewNum,
    seq: SeqNum,
    from: ReplicaId,
    digest: Digest,
    /// A commit vote's signature (it goes into the certificate); `None`
    /// marks a prepare.
    sig: Option<SignatureBytes>,
}

/// Per-sequence consensus instance state.
#[derive(Debug, Default)]
struct Instance {
    digest: Option<Digest>,
    /// Shared with the `PrePrepare` that carried it — storing it here is a
    /// reference-count bump, not a copy of the transactions.
    batch: Option<Arc<Batch>>,
    view: ViewNum,
    prepares: HashSet<ReplicaId>,
    commits: HashSet<ReplicaId>,
    commit_sigs: Vec<(ReplicaId, SignatureBytes)>,
    /// Backup has broadcast its own Prepare (broadcasts are not
    /// self-delivered, so the own vote is tracked here).
    sent_prepare: bool,
    sent_commit: bool,
    committed: bool,
    /// The proof this instance was installed with by a fetch, when it
    /// committed off a peer's certificate instead of its own quorum.
    fetched: Option<BlockCertificate>,
}

impl Instance {
    /// The 2f+1 commit proof: the certificate a fetch installed, or else
    /// the collected signatures plus our own vote. The runtime holds that
    /// signature, so an empty placeholder marks it (when served to a peer,
    /// the verified response envelope vouches).
    fn certificate(&self, me: ReplicaId) -> BlockCertificate {
        if let Some(fetched) = &self.fetched {
            return fetched.clone();
        }
        let mut certificate = BlockCertificate::new(self.commit_sigs.clone());
        if self.sent_commit && !certificate.contains(me) {
            certificate.commits.push((me, SignatureBytes::empty()));
        }
        certificate
    }
}

/// The PBFT replica state machine.
pub type Pbft = Replica<PbftRule>;

impl Pbft {
    /// Creates the state machine for replica `id`.
    pub fn new(id: ReplicaId, config: ConsensusConfig) -> Self {
        Replica::with_rule(id, config, PbftRule::new(&config))
    }
}

/// PBFT's three-phase rule over its per-sequence instance log.
#[derive(Debug)]
pub struct PbftRule {
    /// Next sequence number this primary will assign.
    pub(crate) next_seq: SeqNum,
    instances: HashMap<SeqNum, Instance>,
    /// Pre-prepares for views ahead of ours, parked until the view installs.
    future_proposals: BTreeMap<(ViewNum, SeqNum), (ReplicaId, Digest, Arc<Batch>)>,
    /// Prepare/commit votes for views ahead of ours.
    future_votes: Vec<Vote>,
}

impl PbftRule {
    pub(crate) fn new(config: &ConsensusConfig) -> Self {
        PbftRule {
            next_seq: config.first_seq(),
            instances: HashMap::new(),
            future_proposals: BTreeMap::new(),
            future_votes: Vec::new(),
        }
    }

    fn on_pre_prepare(
        &mut self,
        ctx: &Substrate,
        from: ReplicaId,
        view: ViewNum,
        seq: SeqNum,
        digest: Digest,
        batch: Arc<Batch>,
    ) -> Vec<Action> {
        if view > ctx.view {
            // A re-issued proposal raced ahead of the NewView announcement:
            // park it until the view installs.
            if from == ctx.config.primary_of(view) && self.future_proposals.len() < MAX_PARKED {
                self.future_proposals
                    .insert((view, seq), (from, digest, batch));
            }
            return Vec::new();
        }
        if view < ctx.view || from != ctx.primary() || ctx.is_primary() {
            return Vec::new(); // old view, not from the primary, or echo
        }
        if seq <= ctx.low_water() {
            return Vec::new(); // already garbage-collected
        }
        let inst = self.instances.entry(seq).or_default();
        if let Some(existing) = inst.digest {
            if existing != digest {
                // Equivocating primary: refuse the conflicting proposal.
                return Vec::new();
            }
        }
        inst.digest = Some(digest);
        inst.batch = Some(batch);
        inst.view = view;
        inst.sent_prepare = true;
        let mut actions = vec![Action::Broadcast(Message::Prepare { view, seq, digest })];
        if inst.committed {
            // A post-view-change re-issue of a sequence this replica has
            // already committed: a straggler that missed the original
            // commit round needs a fresh 2f+1 — our Prepare alone cannot
            // unblock it because everyone else's `sent_commit` is long
            // since true. Re-cast the Commit too (same digest, so
            // repeating it is safe); without this, the straggler stalls,
            // keeps voting, and view changes churn forever.
            actions.push(Action::Broadcast(Message::Commit { view, seq, digest }));
        }
        // Prepares and commits may have raced ahead of this pre-prepare.
        actions.extend(self.check_progress(ctx, seq));
        actions
    }

    /// Counts a prepare or commit vote toward its instance's quorums.
    fn on_vote(&mut self, ctx: &Substrate, vote: Vote) -> Vec<Action> {
        if vote.view > ctx.view {
            if self.future_votes.len() < MAX_PARKED {
                self.future_votes.push(vote);
            }
            return Vec::new();
        }
        // An old view, a prepare from that view's primary (it never
        // prepares), or a sequence already garbage-collected.
        if vote.view < ctx.view
            || (vote.sig.is_none() && vote.from == ctx.config.primary_of(vote.view))
            || vote.seq <= ctx.low_water()
        {
            return Vec::new();
        }
        let inst = self.instances.entry(vote.seq).or_default();
        if inst.digest.is_some_and(|d| d != vote.digest) {
            return Vec::new(); // conflicting digest: ignore
        }
        if let Some(sig) = vote.sig {
            if inst.commits.insert(vote.from) {
                inst.commit_sigs.push((vote.from, sig));
            }
        } else {
            inst.prepares.insert(vote.from);
        }
        self.check_progress(ctx, vote.seq)
    }

    /// Re-evaluates the prepare and commit quorums for `seq` after any
    /// state change, emitting whatever the new state warrants. This is the
    /// single place quorum rules live, so out-of-order arrivals (commit
    /// before prepare before pre-prepare) cannot wedge an instance.
    fn check_progress(&mut self, ctx: &Substrate, seq: SeqNum) -> Vec<Action> {
        let Some(inst) = self.instances.get_mut(&seq) else {
            return Vec::new();
        };
        let mut actions = Vec::new();
        let (Some(digest), true) = (inst.digest, inst.batch.is_some()) else {
            return Vec::new(); // no pre-prepare yet: nothing can fire
        };
        // Prepared: pre-prepare + 2f prepares from distinct replicas. A
        // backup's own Prepare counts (broadcasts are not self-delivered);
        // the primary holds the pre-prepare implicitly and needs 2f
        // prepares from backups. This own-vote accounting is what lets the
        // quorum still form when f backups are down (Figure 17).
        if !inst.sent_commit
            && inst.prepares.len() + inst.sent_prepare as usize
                >= quorum::prepare_quorum(ctx.config.f)
        {
            inst.sent_commit = true;
            actions.push(Action::Broadcast(Message::Commit {
                view: inst.view,
                seq,
                digest,
            }));
        }
        // Committed: 2f+1 distinct commit votes; our own broadcast is not
        // self-delivered, so it counts via `sent_commit`.
        let own = inst.sent_commit as usize;
        if !inst.committed && inst.commits.len() + own >= quorum::commit_quorum(ctx.config.f) {
            inst.committed = true;
            actions.push(Action::CommitBatch {
                seq,
                view: inst.view,
                digest,
                batch: inst.batch.clone().expect("batch present"),
                certificate: inst.certificate(ctx.id),
            });
        }
        actions
    }
}

impl ProtocolRule for PbftRule {
    /// Assigns the next sequence number and returns the `PrePrepare`
    /// broadcast.
    fn propose(&mut self, ctx: &Substrate, batch: Batch, digest: Digest) -> Vec<Action> {
        let seq = self.next_seq;
        self.next_seq = ctx.config.next_owned(self.next_seq);
        // One allocation for the batch; the instance and the broadcast
        // message share it from here on.
        let batch = Arc::new(batch);
        let inst = self.instances.entry(seq).or_default();
        inst.digest = Some(digest);
        inst.batch = Some(Arc::clone(&batch));
        inst.view = ctx.view;
        vec![Action::Broadcast(Message::PrePrepare {
            view: ctx.view,
            seq,
            digest,
            batch,
        })]
    }

    fn on_message(&mut self, ctx: &Substrate, sm: &SignedMessage) -> Vec<Action> {
        let Sender::Replica(from) = sm.sender() else {
            return Vec::new(); // clients talk to the runtime
        };
        match sm.msg() {
            Message::PrePrepare {
                view,
                seq,
                digest,
                batch,
            } => self.on_pre_prepare(ctx, from, *view, *seq, *digest, Arc::clone(batch)),
            Message::Prepare { view, seq, digest } | Message::Commit { view, seq, digest } => {
                let (view, seq, digest) = (*view, *seq, *digest);
                let sig = matches!(sm.msg(), Message::Commit { .. }).then(|| sm.sig().clone());
                self.on_vote(
                    ctx,
                    Vote {
                        view,
                        seq,
                        from,
                        digest,
                        sig,
                    },
                )
            }
            _ => Vec::new(),
        }
    }

    /// Whether any instance has started but not committed. Commits
    /// stranded above an execution hole also count: a sequence this replica
    /// never saw (its PrePrepare was lost) can only be refilled by a
    /// view-change re-issue, so committing past the hole is not progress.
    fn has_stalled_work(&self, ctx: &Substrate) -> bool {
        if self.instances.values().any(|i| !i.committed) {
            return true;
        }
        let next = ctx.config.next_owned(ctx.last_executed);
        !self.instances.contains_key(&next) && self.instances.keys().any(|seq| *seq > next)
    }

    /// Committed instances are included, so the new primary can catch up
    /// stragglers.
    fn tail(&self, ctx: &Substrate) -> BatchTail {
        let stable = ctx.stable_seq();
        let mut v: BatchTail = self
            .instances
            .iter()
            .filter(|(s, _)| **s > stable)
            .filter_map(|(s, i)| match (&i.digest, &i.batch) {
                (Some(d), Some(b)) => Some((*s, *d, Arc::clone(b))),
                _ => None,
            })
            .collect();
        v.sort_by_key(|(s, _, _)| *s);
        v
    }

    fn prepared(&self) -> Vec<(SeqNum, Digest)> {
        let mut v: Vec<(SeqNum, Digest)> = self
            .instances
            .iter()
            .filter(|(_, i)| i.sent_commit && !i.committed)
            .filter_map(|(s, i)| i.digest.map(|d| (*s, d)))
            .collect();
        v.sort_by_key(|(s, _)| *s);
        v
    }

    fn enter_view(&mut self, ctx: &Substrate, _reissued: &[(SeqNum, Digest)]) -> Vec<Action> {
        // Uncommitted instances are abandoned; the new primary re-issues.
        self.instances.retain(|_, i| i.committed);
        let head = self.instances.keys().copied().max().unwrap_or(SeqNum(0));
        self.next_seq = ctx.config.next_owned(ctx.last_executed.max(head));
        // Replay parked messages addressed to the view just installed:
        // proposals first (they create the instances), then votes.
        let mut actions = Vec::new();
        let later = self
            .future_proposals
            .split_off(&(ctx.view.next(), SeqNum(0)));
        let parked = std::mem::replace(&mut self.future_proposals, later);
        for ((view, seq), (from, d, batch)) in parked {
            if view == ctx.view {
                actions.extend(self.on_pre_prepare(ctx, from, view, seq, d, batch));
            }
        }
        for vote in std::mem::take(&mut self.future_votes) {
            actions.extend(self.on_vote(ctx, vote)); // re-parks later views
        }
        actions
    }

    /// Fills interior holes with no-op batches (sequential execution must
    /// not stall on a sequence nobody carried), announces the view, and
    /// re-issues every unresolved sequence at its original number.
    fn lead_view(&mut self, ctx: &Substrate, merged: MergedTail) -> Vec<Action> {
        let stable = ctx.stable_seq();
        let hi = merged.keys().next_back().copied().unwrap_or(stable);
        let mut reissue: BatchTail = Vec::new();
        // Walk only the sequences this instance owns (a stride-k grid in a
        // multi-primary deployment; every sequence when k = 1).
        let mut seq = ctx.config.next_owned(stable);
        while seq <= hi {
            let (d, batch) = merged.get(&seq).cloned().unwrap_or_else(|| {
                // Interior hole: no vote carried this sequence, so no
                // correct replica can have prepared it. A no-op batch
                // keeps execution sequential.
                let batch = Arc::new(Batch::new(Vec::new()));
                (batch_digest(&batch.canonical_bytes()), batch)
            });
            reissue.push((seq, d, batch));
            seq = ctx.config.next_owned(seq);
        }
        // Announce first so backups install the view before the re-issued
        // pre-prepares reach them (in-order transports).
        let mut actions = vec![Action::Broadcast(Message::NewView {
            new_view: ctx.view,
            reissued: reissue.iter().map(|(s, d, _)| (*s, *d)).collect(),
            instance: ctx.config.instance,
        })];
        for (seq, d, batch) in reissue {
            let inst = self.instances.entry(seq).or_default();
            let (d, batch) = if inst.committed {
                // Locally committed already: re-announce our copy so
                // stragglers catch up, without touching the instance.
                match (&inst.digest, &inst.batch) {
                    (Some(cd), Some(cb)) => (*cd, Arc::clone(cb)),
                    _ => (d, batch),
                }
            } else {
                *inst = Instance {
                    digest: Some(d),
                    batch: Some(Arc::clone(&batch)),
                    view: ctx.view,
                    ..Instance::default()
                };
                (d, batch)
            };
            actions.push(Action::Broadcast(Message::PrePrepare {
                view: ctx.view,
                seq,
                digest: d,
                batch,
            }));
        }
        if self.next_seq <= hi {
            self.next_seq = ctx.config.next_owned(hi);
        }
        actions
    }

    fn prune(&mut self, ctx: &Substrate, _stable: SeqNum) {
        let floor = ctx.low_water();
        self.instances.retain(|s, _| *s > floor);
    }

    /// Only committed instances are served: the certificate is the proof.
    fn serve_fetch(&self, ctx: &Substrate, seq: SeqNum) -> Option<Fetched> {
        let inst = self.instances.get(&seq).filter(|i| i.committed)?;
        let batch = Arc::clone(inst.batch.as_ref()?);
        Some((inst.view, inst.digest?, batch, inst.certificate(ctx.id)))
    }

    /// The runtime has already checked the certificate: the instance
    /// commits directly off the remote proof — this replica never voted,
    /// so no quorum bookkeeping applies — and keeps it, to serve to the
    /// next peer that fetches this sequence.
    fn install_fetched(
        &mut self,
        ctx: &mut Substrate,
        seq: SeqNum,
        (view, digest, batch, certificate): Fetched,
    ) -> Vec<Action> {
        if seq <= ctx.last_executed {
            return Vec::new();
        }
        let inst = self.instances.entry(seq).or_default();
        if inst.committed {
            return Vec::new();
        }
        inst.digest = Some(digest);
        inst.batch = Some(Arc::clone(&batch));
        inst.view = view;
        inst.committed = true;
        inst.fetched = Some(certificate.clone());
        // A primary whose log advanced through fetch (e.g. a recovered
        // ex-primary catching up) must not re-propose a sequence the
        // cluster already decided.
        if self.next_seq <= seq {
            self.next_seq = ctx.config.next_owned(seq);
        }
        vec![Action::CommitBatch {
            seq,
            view,
            digest,
            batch,
            certificate,
        }]
    }

    /// Covered instances are dropped and proposals resume past whatever
    /// survives.
    fn install_snapshot(&mut self, ctx: &Substrate, base: SeqNum, _history: Digest) {
        self.instances.retain(|s, _| *s > base);
        let head = self.instances.keys().copied().max().unwrap_or(SeqNum(0));
        self.next_seq = self
            .next_seq
            .max(ctx.config.next_owned(ctx.last_executed.max(head)));
    }

    /// Execution holes below the local commit frontier, plus instances
    /// where f+1 commit votes arrived but the `PrePrepare` itself was lost.
    fn fetch_wanted(&self, ctx: &Substrate, limit: usize) -> Vec<SeqNum> {
        let floor = ctx.last_executed;
        let frontier = self
            .instances
            .iter()
            .filter(|(s, i)| i.committed && **s > floor)
            .map(|(s, _)| *s)
            .max();
        let mut wanted: Vec<SeqNum> = Vec::new();
        if let Some(frontier) = frontier {
            let mut seq = ctx.config.next_owned(floor);
            while seq < frontier {
                if !self.instances.get(&seq).is_some_and(|i| i.committed) {
                    wanted.push(seq);
                }
                seq = ctx.config.next_owned(seq);
            }
        }
        for (s, i) in &self.instances {
            if *s > floor
                && !i.committed
                && i.batch.is_none()
                && i.commits.len() > ctx.config.f
                && !wanted.contains(s)
            {
                wanted.push(*s);
            }
        }
        wanted.sort();
        wanted.truncate(limit);
        wanted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::{ClientId, Operation, Transaction};

    impl Pbft {
        fn next_seq(&self) -> SeqNum {
            self.rule.next_seq
        }

        fn last_executed(&self) -> SeqNum {
            self.sub.last_executed
        }
    }

    fn cfg(n: usize) -> ConsensusConfig {
        ConsensusConfig::new(n, 2)
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

    fn signed(from: u32, msg: Message) -> SignedMessage {
        SignedMessage::new(
            msg,
            Sender::Replica(ReplicaId(from)),
            SignatureBytes(vec![from as u8]),
        )
    }

    /// Drives one full consensus round at a backup replica of a 4-node
    /// system (f = 1: prepare quorum 2, commit quorum 3).
    #[test]
    fn backup_full_round() {
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        // Pre-prepare from primary r0.
        let acts = r1.on_message(&signed(
            0,
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
                batch: batch().into(),
            },
        ));
        assert!(matches!(
            &acts[..],
            [Action::Broadcast(Message::Prepare { .. })]
        ));
        // Prepare quorum is 2f = 2 distinct replicas; r1's own Prepare
        // counts (it broadcast one on receiving the pre-prepare), so one
        // more backup's prepare completes the quorum.
        let acts = r1.on_message(&signed(
            2,
            Message::Prepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        assert!(
            matches!(&acts[..], [Action::Broadcast(Message::Commit { .. })]),
            "own prepare + one backup = 2f → commit, got {acts:?}"
        );
        let acts = r1.on_message(&signed(
            3,
            Message::Prepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        assert!(acts.is_empty(), "extra prepares are absorbed");
        // Commits from r0 and r2; with r1's own commit that is 3 = 2f+1.
        let acts = r1.on_message(&signed(
            0,
            Message::Commit {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        assert!(acts.is_empty());
        let acts = r1.on_message(&signed(
            2,
            Message::Commit {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        match &acts[..] {
            [Action::CommitBatch {
                seq, certificate, ..
            }] => {
                assert_eq!(*seq, SeqNum(1));
                assert!(certificate.signer_count() >= 3);
                assert!(
                    certificate.contains(ReplicaId(1)),
                    "own commit in certificate"
                );
            }
            other => panic!("expected CommitBatch, got {other:?}"),
        }
    }

    #[test]
    fn primary_proposes_sequentially() {
        let mut p = Pbft::new(ReplicaId(0), cfg(4));
        assert!(p.is_primary());
        let a1 = p.propose(batch(), d(1));
        let a2 = p.propose(batch(), d(2));
        match (&a1[..], &a2[..]) {
            (
                [Action::Broadcast(Message::PrePrepare { seq: s1, .. })],
                [Action::Broadcast(Message::PrePrepare { seq: s2, .. })],
            ) => {
                assert_eq!(*s1, SeqNum(1));
                assert_eq!(*s2, SeqNum(2));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn backup_cannot_propose() {
        let mut b = Pbft::new(ReplicaId(2), cfg(4));
        assert!(b.propose(batch(), d(1)).is_empty());
    }

    #[test]
    fn primary_commits_with_backup_quorum() {
        // Primary of n=4: needs 2f=2 prepares from backups, then 2f+1=3
        // commits counting its own implicit one.
        let mut p = Pbft::new(ReplicaId(0), cfg(4));
        p.propose(batch(), d(5));
        assert!(p
            .on_message(&signed(
                1,
                Message::Prepare {
                    view: ViewNum(0),
                    seq: SeqNum(1),
                    digest: d(5)
                }
            ))
            .is_empty());
        let acts = p.on_message(&signed(
            2,
            Message::Prepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(5),
            },
        ));
        assert!(matches!(
            &acts[..],
            [Action::Broadcast(Message::Commit { .. })]
        ));
        p.on_message(&signed(
            1,
            Message::Commit {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(5),
            },
        ));
        let acts = p.on_message(&signed(
            2,
            Message::Commit {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(5),
            },
        ));
        assert!(
            matches!(&acts[..], [Action::CommitBatch { .. }]),
            "got {acts:?}"
        );
    }

    #[test]
    fn reissued_committed_sequence_recasts_commit_vote() {
        // r2 commits seq 1 in view 0. After a view change, the new primary
        // r1 re-issues seq 1 (a straggler somewhere missed it). r2 must
        // re-cast BOTH its Prepare and its Commit: the straggler needs a
        // fresh 2f+1 commit quorum, and every other replica's sent_commit
        // flag is long since true.
        let mut r2 = Pbft::new(ReplicaId(2), cfg(4));
        let commit = |from: u32| {
            signed(
                from,
                Message::Commit {
                    view: ViewNum(0),
                    seq: SeqNum(1),
                    digest: d(7),
                },
            )
        };
        r2.on_message(&signed(
            0,
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
                batch: batch().into(),
            },
        ));
        r2.on_message(&signed(
            1,
            Message::Prepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        r2.on_message(&signed(
            3,
            Message::Prepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        r2.on_message(&commit(0));
        let acts = r2.on_message(&commit(1));
        assert!(
            acts.iter().any(|a| matches!(a, Action::CommitBatch { .. })),
            "setup must commit seq 1: {acts:?}"
        );
        // View change: r1 announces view 1 and re-issues seq 1.
        r2.on_message(&signed(
            1,
            Message::NewView {
                new_view: ViewNum(1),
                reissued: vec![(SeqNum(1), d(7))],
                instance: 0,
            },
        ));
        let acts = r2.on_message(&signed(
            1,
            Message::PrePrepare {
                view: ViewNum(1),
                seq: SeqNum(1),
                digest: d(7),
                batch: batch().into(),
            },
        ));
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Broadcast(Message::Prepare { view, seq, .. })
                    if *view == ViewNum(1) && *seq == SeqNum(1)
            )),
            "must re-prepare: {acts:?}"
        );
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Broadcast(Message::Commit { view, seq, .. })
                    if *view == ViewNum(1) && *seq == SeqNum(1)
            )),
            "must re-cast the commit vote: {acts:?}"
        );
        assert!(
            !acts.iter().any(|a| matches!(a, Action::CommitBatch { .. })),
            "must not execute twice: {acts:?}"
        );
    }

    #[test]
    fn out_of_order_messages_still_commit() {
        // Commits and prepares arrive before the pre-prepare (Section 4.5).
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        r1.on_message(&signed(
            2,
            Message::Prepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        r1.on_message(&signed(
            3,
            Message::Prepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        r1.on_message(&signed(
            0,
            Message::Commit {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        r1.on_message(&signed(
            2,
            Message::Commit {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        // Nothing committed yet — no pre-prepare, so no batch to execute.
        // When the pre-prepare arrives the stored quorums fire all at once:
        // prepare, commit, and the commit-quorum (2 stored commits + own).
        let acts = r1.on_message(&signed(
            0,
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
                batch: batch().into(),
            },
        ));
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::Broadcast(Message::Commit { .. }))),
            "stored prepares must trigger commit: {acts:?}"
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::CommitBatch { seq, .. } if *seq == SeqNum(1))),
            "stored commits + own must reach quorum: {acts:?}"
        );
        // A late commit after the fact is absorbed without re-committing.
        let acts = r1.on_message(&signed(
            3,
            Message::Commit {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
            },
        ));
        assert!(acts.is_empty(), "must not commit twice: {acts:?}");
    }

    #[test]
    fn parallel_instances_commit_independently() {
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        // Start two instances; finish seq 2 before seq 1.
        for seq in [1u64, 2] {
            r1.on_message(&signed(
                0,
                Message::PrePrepare {
                    view: ViewNum(0),
                    seq: SeqNum(seq),
                    digest: d(seq as u8),
                    batch: batch().into(),
                },
            ));
        }
        let drive = |r: &mut Pbft, seq: u64| -> Vec<Action> {
            let mut acts = Vec::new();
            for from in [2u32, 3] {
                acts.extend(r.on_message(&signed(
                    from,
                    Message::Prepare {
                        view: ViewNum(0),
                        seq: SeqNum(seq),
                        digest: d(seq as u8),
                    },
                )));
            }
            for from in [0u32, 2] {
                acts.extend(r.on_message(&signed(
                    from,
                    Message::Commit {
                        view: ViewNum(0),
                        seq: SeqNum(seq),
                        digest: d(seq as u8),
                    },
                )));
            }
            acts
        };
        let acts2 = drive(&mut r1, 2);
        assert!(
            acts2
                .iter()
                .any(|a| matches!(a, Action::CommitBatch { seq, .. } if *seq == SeqNum(2))),
            "seq 2 commits first"
        );
        let acts1 = drive(&mut r1, 1);
        assert!(
            acts1
                .iter()
                .any(|a| matches!(a, Action::CommitBatch { seq, .. } if *seq == SeqNum(1))),
            "seq 1 commits later"
        );
    }

    #[test]
    fn equivocating_primary_rejected() {
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        r1.on_message(&signed(
            0,
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
                batch: batch().into(),
            },
        ));
        // Conflicting digest for the same sequence.
        let acts = r1.on_message(&signed(
            0,
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(8),
                batch: batch().into(),
            },
        ));
        assert!(acts.is_empty(), "conflicting pre-prepare must be dropped");
    }

    #[test]
    fn pre_prepare_from_non_primary_rejected() {
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        let acts = r1.on_message(&signed(
            2,
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
                batch: batch().into(),
            },
        ));
        assert!(acts.is_empty());
    }

    #[test]
    fn wrong_view_messages_ignored() {
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        let acts = r1.on_message(&signed(
            0,
            Message::PrePrepare {
                view: ViewNum(3),
                seq: SeqNum(1),
                digest: d(7),
                batch: batch().into(),
            },
        ));
        assert!(acts.is_empty());
    }

    #[test]
    fn duplicate_prepares_do_not_double_count() {
        // Use the primary (no own-prepare credit): five copies of the same
        // backup's prepare must never reach the 2f = 2 quorum.
        let mut p = Pbft::new(ReplicaId(0), cfg(4));
        p.propose(batch(), d(7));
        for _ in 0..5 {
            let acts = p.on_message(&signed(
                1,
                Message::Prepare {
                    view: ViewNum(0),
                    seq: SeqNum(1),
                    digest: d(7),
                },
            ));
            assert!(acts.is_empty(), "same sender must not reach quorum alone");
        }
    }

    #[test]
    fn checkpoint_cycle() {
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4)); // Δ = 2 batches
        assert!(r1.on_executed(SeqNum(1), d(1)).is_empty());
        let acts = r1.on_executed(SeqNum(2), d(2));
        assert!(
            matches!(&acts[..], [Action::Broadcast(Message::Checkpoint { seq, .. })] if *seq == SeqNum(2))
        );
        // The broadcast recorded r1's own vote; two matching remote
        // checkpoints complete the 2f+1 = 3 quorum.
        let acts = r1.on_message(&signed(
            0,
            Message::Checkpoint {
                seq: SeqNum(2),
                state_digest: d(2),
                replica: ReplicaId(0),
            },
        ));
        assert!(acts.is_empty());
        let acts = r1.on_message(&signed(
            2,
            Message::Checkpoint {
                seq: SeqNum(2),
                state_digest: d(2),
                replica: ReplicaId(2),
            },
        ));
        assert!(
            matches!(&acts[..], [Action::StableCheckpoint { seq }] if *seq == SeqNum(2)),
            "got {acts:?}"
        );
        // A late straggler vote for the already-stable sequence is a no-op.
        let acts = r1.on_message(&signed(
            3,
            Message::Checkpoint {
                seq: SeqNum(2),
                state_digest: d(2),
                replica: ReplicaId(3),
            },
        ));
        assert!(acts.is_empty(), "got {acts:?}");
        // Old sequences are now rejected.
        let acts = r1.on_message(&signed(
            0,
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(9),
                batch: batch().into(),
            },
        ));
        assert!(acts.is_empty());
    }

    #[test]
    fn view_change_installs_new_primary() {
        // n=4: view 1's primary is r1. Drive view-change votes into r1.
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        let vote = |from: u32| {
            signed(
                from,
                Message::ViewChange {
                    new_view: ViewNum(1),
                    last_stable: SeqNum(0),
                    prepared: vec![],
                    tail: vec![],
                    replica: ReplicaId(from),
                    instance: 0,
                },
            )
        };
        assert!(r1.on_message(&vote(0)).is_empty());
        // The second vote reaches the f+1 join threshold: r1 joins the
        // view change without waiting for its own timer, its own vote
        // completes the 2f+1 quorum, and it becomes the view-1 primary.
        let acts = r1.on_message(&vote(2));
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Broadcast(Message::ViewChange { new_view, .. }) if *new_view == ViewNum(1)
            )),
            "must join the view change: {acts:?}"
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::EnterView { view, .. } if *view == ViewNum(1))),
            "got {acts:?}"
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::Broadcast(Message::NewView { .. }))),
            "incoming primary must announce"
        );
        assert!(r1.is_primary());
    }

    #[test]
    fn backup_follows_new_view_announcement() {
        let mut r2 = Pbft::new(ReplicaId(2), cfg(4));
        let acts = r2.on_message(&signed(
            1,
            Message::NewView {
                new_view: ViewNum(1),
                reissued: vec![],
                instance: 0,
            },
        ));
        assert!(matches!(&acts[..], [Action::EnterView { view, .. }] if *view == ViewNum(1)));
        assert_eq!(r2.primary(), ReplicaId(1));
        // NewView from a replica that is not the new primary is ignored.
        let acts = r2.on_message(&signed(
            3,
            Message::NewView {
                new_view: ViewNum(2),
                reissued: vec![],
                instance: 0,
            },
        ));
        assert!(acts.is_empty());
    }

    #[test]
    fn view_change_reissues_in_flight_batches() {
        // r1 prepared seq 1 in view 0 but never committed it; the old
        // primary r0 died. Votes carrying r1's batch tail must make the new
        // primary (r1) re-issue seq 1 at its original number in view 1.
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        let b = batch();
        r1.on_message(&signed(
            0,
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: d(7),
                batch: b.clone().into(),
            },
        ));
        // Our own timeout vote carries the tail.
        r1.on_timeout();
        let vote = |from: u32, tail: Vec<(SeqNum, Digest, Arc<Batch>)>| {
            signed(
                from,
                Message::ViewChange {
                    new_view: ViewNum(1),
                    last_stable: SeqNum(0),
                    prepared: vec![],
                    tail,
                    replica: ReplicaId(from),
                    instance: 0,
                },
            )
        };
        assert!(r1
            .on_message(&vote(2, vec![(SeqNum(1), d(7), Arc::new(batch()))]))
            .is_empty());
        let acts = r1.on_message(&vote(3, vec![]));
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::EnterView { view, .. } if *view == ViewNum(1))),
            "got {acts:?}"
        );
        let reissued: Vec<(ViewNum, SeqNum, Digest)> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast(Message::PrePrepare {
                    view, seq, digest, ..
                }) => Some((*view, *seq, *digest)),
                _ => None,
            })
            .collect();
        assert_eq!(
            reissued,
            vec![(ViewNum(1), SeqNum(1), d(7))],
            "in-flight batch must be re-issued at its original sequence"
        );
        assert!(r1.is_primary());
        // The re-issued instance commits exactly once in the new view.
        for from in [2u32, 3] {
            r1.on_message(&signed(
                from,
                Message::Prepare {
                    view: ViewNum(1),
                    seq: SeqNum(1),
                    digest: d(7),
                },
            ));
        }
        let mut commits = Vec::new();
        for from in [2u32, 3] {
            commits.extend(r1.on_message(&signed(
                from,
                Message::Commit {
                    view: ViewNum(1),
                    seq: SeqNum(1),
                    digest: d(7),
                },
            )));
        }
        assert_eq!(
            commits
                .iter()
                .filter(|a| matches!(a, Action::CommitBatch { seq, .. } if *seq == SeqNum(1)))
                .count(),
            1,
            "re-issued sequence commits exactly once: {commits:?}"
        );
    }

    #[test]
    fn new_primary_fills_holes_with_noops() {
        // Votes carry seq 2 but nobody carried seq 1: the new primary must
        // fill the hole with a no-op batch so execution cannot stall.
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        r1.on_timeout();
        let tail = vec![(SeqNum(2), d(9), Arc::new(batch()))];
        let vote = |from: u32, tail: Vec<(SeqNum, Digest, Arc<Batch>)>| {
            signed(
                from,
                Message::ViewChange {
                    new_view: ViewNum(1),
                    last_stable: SeqNum(0),
                    prepared: vec![],
                    tail,
                    replica: ReplicaId(from),
                    instance: 0,
                },
            )
        };
        r1.on_message(&vote(2, tail.clone()));
        let acts = r1.on_message(&vote(3, tail));
        let reissued: Vec<(SeqNum, usize)> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast(Message::PrePrepare { seq, batch, .. }) => {
                    Some((*seq, batch.len()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(reissued.len(), 2, "got {reissued:?}");
        assert_eq!(reissued[0], (SeqNum(1), 0), "hole filled with a no-op");
        assert_eq!(reissued[1].0, SeqNum(2));
    }

    #[test]
    fn future_view_preprepare_parks_until_install() {
        // The re-issued PrePrepare races ahead of the NewView announcement;
        // it must be replayed once the view installs, not dropped.
        let mut r2 = Pbft::new(ReplicaId(2), cfg(4));
        let acts = r2.on_message(&signed(
            1,
            Message::PrePrepare {
                view: ViewNum(1),
                seq: SeqNum(1),
                digest: d(7),
                batch: batch().into(),
            },
        ));
        assert!(acts.is_empty(), "future-view proposal is parked");
        let acts = r2.on_message(&signed(
            1,
            Message::NewView {
                new_view: ViewNum(1),
                reissued: vec![(SeqNum(1), d(7))],
                instance: 0,
            },
        ));
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::Broadcast(Message::Prepare { view, seq, .. })
                    if *view == ViewNum(1) && *seq == SeqNum(1)
            )),
            "parked proposal replays on install: {acts:?}"
        );
    }

    /// Drives r1 (backup of a 4-node system) to commit `seq` with digest
    /// `dg` via the normal three-phase path.
    fn commit_at(r: &mut Pbft, seq: u64, dg: Digest) {
        r.on_message(&signed(
            0,
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(seq),
                digest: dg,
                batch: batch().into(),
            },
        ));
        for from in [2u32, 3] {
            r.on_message(&signed(
                from,
                Message::Prepare {
                    view: ViewNum(0),
                    seq: SeqNum(seq),
                    digest: dg,
                },
            ));
        }
        for from in [0u32, 2] {
            r.on_message(&signed(
                from,
                Message::Commit {
                    view: ViewNum(0),
                    seq: SeqNum(seq),
                    digest: dg,
                },
            ));
        }
    }

    #[test]
    fn serve_fetch_returns_committed_batch_with_certificate() {
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        commit_at(&mut r1, 1, d(7));
        let (view, dg, b, cert) = r1.serve_fetch(SeqNum(1)).expect("committed");
        assert_eq!(view, ViewNum(0));
        assert_eq!(dg, d(7));
        assert_eq!(b.len(), 1);
        assert!(cert.signer_count() >= 3, "2f+1 commit proof");
        assert!(cert.contains(ReplicaId(1)), "server's own vote included");
        // Uncommitted and unknown sequences are not served.
        assert!(r1.serve_fetch(SeqNum(9)).is_none());
    }

    #[test]
    fn install_fetched_commits_without_voting() {
        // r3 missed everything about seq 1 (the hole) but committed seq 2.
        let mut r3 = Pbft::new(ReplicaId(3), cfg(4));
        let cert = BlockCertificate::new(
            (0..3)
                .map(|i| (ReplicaId(i), SignatureBytes(vec![i as u8; 8])))
                .collect(),
        );
        assert_eq!(r3.fetch_wanted(8), vec![], "no evidence yet");
        let acts = r3.install_fetched(SeqNum(1), ViewNum(0), d(7), batch().into(), cert.clone());
        assert!(
            matches!(&acts[..], [Action::CommitBatch { seq, .. }] if *seq == SeqNum(1)),
            "got {acts:?}"
        );
        // Installing again is a no-op (already committed).
        let acts = r3.install_fetched(SeqNum(1), ViewNum(0), d(7), batch().into(), cert);
        assert!(acts.is_empty(), "must not commit twice: {acts:?}");
    }

    /// A replica that caught up by fetch never saw its own commit quorum
    /// for the sequence; what it serves onward is the proof it installed,
    /// not one rebuilt from the votes it happened to see.
    #[test]
    fn a_fetched_instance_serves_the_certificate_it_installed() {
        let mut r3 = Pbft::new(ReplicaId(3), cfg(4));
        let cert = BlockCertificate::new(
            (0..3)
                .map(|i| (ReplicaId(i), SignatureBytes(vec![i as u8; 8])))
                .collect(),
        );
        r3.install_fetched(SeqNum(1), ViewNum(0), d(7), batch().into(), cert.clone());
        let (_, digest, _, served) = r3.serve_fetch(SeqNum(1)).expect("committed");
        assert_eq!(digest, d(7));
        assert_eq!(served, cert);
    }

    /// Checkpoint votes travel beside the ordering traffic, not behind it:
    /// three peers can make sequence 2 stable while this replica's commits
    /// for it are still queued. It must keep the instance and commit —
    /// dropping it leaves a hole only a state transfer repairs.
    #[test]
    fn a_stable_checkpoint_ahead_of_execution_keeps_what_is_still_to_commit() {
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4)); // Δ = 2 batches
        commit_at(&mut r1, 1, d(1));
        r1.on_executed(SeqNum(1), d(1));
        // Sequence 2: proposed and prepared here, its commits still queued.
        let propose = Message::PrePrepare {
            view: ViewNum(0),
            seq: SeqNum(2),
            digest: d(2),
            batch: batch().into(),
        };
        r1.on_message(&signed(0, propose));
        let mut stable = Vec::new();
        for from in [0u32, 2, 3] {
            let vote = Message::Checkpoint {
                seq: SeqNum(2),
                state_digest: d(9),
                replica: ReplicaId(from),
            };
            stable.extend(r1.on_message(&signed(from, vote)));
        }
        assert!(matches!(&stable[..], [Action::StableCheckpoint { seq }] if *seq == SeqNum(2)));
        // The queued votes arrive: prepared, then committed, as if the
        // checkpoint had not overtaken them.
        let vote = |from: u32, commit: bool| {
            let (view, seq, digest) = (ViewNum(0), SeqNum(2), d(2));
            signed(
                from,
                if commit {
                    Message::Commit { view, seq, digest }
                } else {
                    Message::Prepare { view, seq, digest }
                },
            )
        };
        r1.on_message(&vote(2, false));
        r1.on_message(&vote(0, true));
        let acts = r1.on_message(&vote(2, true));
        assert!(
            acts.iter()
                .any(|a| matches!(a, Action::CommitBatch { seq, .. } if *seq == SeqNum(2))),
            "got {acts:?}"
        );
        // Once it has executed through the stable point, that is the floor:
        // sequence 1 went at the checkpoint, sequence 2 goes at the next.
        r1.on_executed(SeqNum(2), d(9));
        assert!(r1.on_message(&vote(3, true)).is_empty());
        assert!(r1.serve_fetch(SeqNum(1)).is_none());
    }

    #[test]
    fn fetch_wanted_reports_holes_below_commit_frontier() {
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        // Commit seq 3 while seqs 1 and 2 never arrived.
        commit_at(&mut r1, 3, d(3));
        assert_eq!(r1.fetch_wanted(8), vec![SeqNum(1), SeqNum(2)]);
        assert_eq!(r1.fetch_wanted(1), vec![SeqNum(1)], "limit respected");
        // Filling seq 1 narrows the gap.
        let cert = BlockCertificate::new(
            (0..3)
                .map(|i| (ReplicaId(i), SignatureBytes(vec![1u8; 8])))
                .collect(),
        );
        r1.install_fetched(SeqNum(1), ViewNum(0), d(1), batch().into(), cert);
        assert_eq!(r1.fetch_wanted(8), vec![SeqNum(2)]);
    }

    #[test]
    fn fetch_wanted_flags_lost_pre_prepare_with_vote_evidence() {
        // f+1 = 2 commit votes for seq 1 arrive but the PrePrepare never
        // does: the batch is being committed out there without us.
        let mut r1 = Pbft::new(ReplicaId(1), cfg(4));
        for from in [2u32, 3] {
            r1.on_message(&signed(
                from,
                Message::Commit {
                    view: ViewNum(0),
                    seq: SeqNum(1),
                    digest: d(7),
                },
            ));
        }
        assert_eq!(r1.fetch_wanted(8), vec![SeqNum(1)]);
    }

    #[test]
    fn install_snapshot_jumps_past_missed_history() {
        let mut r2 = Pbft::new(ReplicaId(2), cfg(4));
        r2.install_snapshot(SeqNum(10), Digest::ZERO);
        assert_eq!(r2.last_executed(), SeqNum(10));
        assert!(r2.next_seq() > SeqNum(10));
        assert!(r2.fetch_wanted(8).is_empty());
        // Pre-snapshot traffic is now below the stable point and ignored.
        let acts = r2.on_message(&signed(
            0,
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(5),
                digest: d(5),
                batch: batch().into(),
            },
        ));
        assert!(acts.is_empty(), "covered sequence must be rejected");
        let acts = r2.install_fetched(
            SeqNum(5),
            ViewNum(0),
            d(5),
            batch().into(),
            BlockCertificate::new(
                (0..3)
                    .map(|i| (ReplicaId(i), SignatureBytes(vec![0u8; 8])))
                    .collect(),
            ),
        );
        assert!(acts.is_empty(), "covered fetch must be rejected");
    }
}
