//! The replicated-log substrate PBFT and Zyzzyva share.
//!
//! The paper holds the fabric fixed and swaps only the protocol, so
//! everything that is *not* a protocol's normal-case rule lives here, once:
//! view state, the suspicion timer's timeout → vote → escalate ladder, the
//! f+1 join rule, the 2f+1 view-change quorum, the majority-per-sequence
//! merge of the vote tails, the checkpoint cadence with its stability
//! quorum, and the check that a vote's self-declared `replica` is the
//! authenticated sender of the envelope that carried it.
//!
//! A [`Replica`] is this [`Substrate`] plus a [`ProtocolRule`] — the
//! protocol's per-sequence log and the four answers only it can give: what
//! is my tail, what do I do on entering a view, what do I do with the
//! merged tail as the new primary, what do I prune at a stable checkpoint.

use crate::actions::Action;
use crate::checkpoint::CheckpointTracker;
use crate::config::ConsensusConfig;
use rdb_common::block::BlockCertificate;
use rdb_common::messages::{BatchTail, Message, Sender, SignedMessage};
use rdb_common::{quorum, Batch, Digest, ReplicaId, SeqNum, ViewNum};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// After this many timer re-fires without the voted view installing, vote
/// for the next view instead (the voted-for primary may itself be down).
pub(crate) const ESCALATE_AFTER: u32 = 3;

/// The vote tails of a view-change quorum merged to one `(digest, batch)`
/// per sequence.
pub type MergedTail = BTreeMap<SeqNum, (Digest, Arc<Batch>)>;

/// What [`ProtocolRule::serve_fetch`] answers a peer's `FetchRequest` with.
pub type Fetched = (ViewNum, Digest, Arc<Batch>, BlockCertificate);

/// The state every protocol keeps the same way: who we are, which view we
/// are in and are voting for, and where the stable checkpoint stands.
#[derive(Debug)]
pub struct Substrate {
    pub(crate) config: ConsensusConfig,
    pub(crate) id: ReplicaId,
    pub(crate) view: ViewNum,
    /// Highest sequence the execution layer reported as executed.
    pub(crate) last_executed: SeqNum,
    checkpoints: CheckpointTracker,
    /// View-change votes: new view → voter → the voter's batch tail.
    view_change_votes: HashMap<ViewNum, HashMap<ReplicaId, BatchTail>>,
    /// Set when this replica has voted for a view change.
    voted_view: Option<ViewNum>,
    /// Timer re-fires since the vote for `voted_view` (drives escalation).
    timeout_strikes: u32,
}

impl Substrate {
    /// The current primary (of this machine's consensus instance).
    pub(crate) fn primary(&self) -> ReplicaId {
        self.config.primary_of(self.view)
    }

    pub(crate) fn is_primary(&self) -> bool {
        self.primary() == self.id
    }

    /// The highest stable checkpoint: nothing at or below it is kept.
    pub(crate) fn stable_seq(&self) -> SeqNum {
        self.checkpoints.stable_seq()
    }

    /// The stable checkpoint, held back to this replica's own execution
    /// while it trails the quorum that made the checkpoint stable: what it
    /// has not executed it must still be able to commit. Checkpoint votes
    /// travel beside the ordering traffic, not behind it, so they can
    /// announce a stable point whose last commits are still in this
    /// replica's input queues — dropping those instances would leave holes
    /// only a state transfer repairs.
    pub(crate) fn low_water(&self) -> SeqNum {
        self.stable_seq().min(self.last_executed)
    }

    /// Moves to `view`, ending any vote in progress. Reached through a
    /// view change, or by a rule that learns of a later view another way
    /// (Zyzzyva's f+1-vouched fetch).
    pub(crate) fn adopt_view(&mut self, view: ViewNum) {
        self.view = view;
        self.voted_view = None;
        self.timeout_strikes = 0;
        self.view_change_votes.retain(|v, _| *v > view);
    }
}

/// What differs between the protocols: the per-sequence log and the
/// normal-case rule over it. Every method gets the shared [`Substrate`] as
/// context; none of them is reached except through a [`Replica`].
pub trait ProtocolRule {
    /// Primary path: order `batch` at the next sequence.
    fn propose(&mut self, ctx: &Substrate, batch: Batch, digest: Digest) -> Vec<Action>;

    /// A verified normal-case message (anything but checkpoint and
    /// view-change traffic, which the substrate handles).
    fn on_message(&mut self, ctx: &Substrate, sm: &SignedMessage) -> Vec<Action>;

    /// Whether ordered-but-unfinished work is stuck behind the primary.
    fn has_stalled_work(&self, ctx: &Substrate) -> bool;

    /// Every batch held above the stable checkpoint, in sequence order —
    /// what this replica's `ViewChange` vote carries.
    fn tail(&self, ctx: &Substrate) -> BatchTail;

    /// The `(seq, digest)` summary a vote carries beside the tail.
    fn prepared(&self) -> Vec<(SeqNum, Digest)> {
        Vec::new()
    }

    /// `ctx.view` was just installed. `reissued` is the new primary's
    /// announced history (empty at the new primary itself, which goes on to
    /// [`ProtocolRule::lead_view`]).
    fn enter_view(&mut self, ctx: &Substrate, reissued: &[(SeqNum, Digest)]) -> Vec<Action>;

    /// This replica leads the view just entered: announce it and re-issue
    /// what the quorum's merged tails say was in flight.
    fn lead_view(&mut self, ctx: &Substrate, merged: MergedTail) -> Vec<Action>;

    /// A checkpoint at `stable` became stable: drop log state it covers.
    fn prune(&mut self, ctx: &Substrate, stable: SeqNum);

    /// The committed batch at `seq` with its ordering proof, if held.
    fn serve_fetch(&self, ctx: &Substrate, seq: SeqNum) -> Option<Fetched>;

    /// Installs a fetched batch the runtime has validated.
    fn install_fetched(
        &mut self,
        ctx: &mut Substrate,
        seq: SeqNum,
        fetched: Fetched,
    ) -> Vec<Action>;

    /// A verified snapshot moved the stable point to `base`.
    fn install_snapshot(&mut self, ctx: &Substrate, base: SeqNum, history: Digest);

    /// Sequences worth fetching from peers, oldest first, at most `limit`.
    fn fetch_wanted(&self, ctx: &Substrate, limit: usize) -> Vec<SeqNum>;
}

/// A replica state machine: the shared substrate driven by rule `R`.
#[derive(Debug)]
pub struct Replica<R> {
    pub(crate) sub: Substrate,
    pub(crate) rule: R,
}

impl<R: ProtocolRule> Replica<R> {
    pub(crate) fn with_rule(id: ReplicaId, config: ConsensusConfig, rule: R) -> Self {
        let sub = Substrate {
            config,
            id,
            view: ViewNum(0),
            last_executed: SeqNum(0),
            checkpoints: CheckpointTracker::new(quorum::checkpoint_quorum(config.f())),
            view_change_votes: HashMap::new(),
            voted_view: None,
            timeout_strikes: 0,
        };
        Replica { sub, rule }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.sub.id
    }

    /// The configuration this machine runs under (its instance, of k).
    pub fn config(&self) -> &ConsensusConfig {
        &self.sub.config
    }

    /// The current view.
    pub fn view(&self) -> ViewNum {
        self.sub.view
    }

    /// The current primary (of this machine's consensus instance).
    pub fn primary(&self) -> ReplicaId {
        self.sub.primary()
    }

    /// Whether this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.sub.is_primary()
    }

    /// Whether ordered-but-unfinished work is stuck — the signal the
    /// runtime's suspicion timer combines with client demand to decide the
    /// primary is dead.
    pub fn has_stalled_work(&self) -> bool {
        self.rule.has_stalled_work(&self.sub)
    }

    /// Primary path: propose a batch (already digested by a batch-thread).
    /// Returns an empty action list when called on a backup.
    pub fn propose(&mut self, batch: Batch, digest: Digest) -> Vec<Action> {
        if !self.is_primary() {
            return Vec::new();
        }
        self.rule.propose(&self.sub, batch, digest)
    }

    /// Handles a signed message. Signature verification is the runtime's
    /// job (it owns the crypto provider), so `sm.sender()` is authentic —
    /// but a vote's `replica` field is merely signed-over content. A vote
    /// is counted only when the two agree: otherwise one byzantine replica
    /// signing with its own key could cast a whole quorum.
    pub fn on_message(&mut self, sm: &SignedMessage) -> Vec<Action> {
        let Sender::Replica(from) = sm.sender() else {
            return self.rule.on_message(&self.sub, sm);
        };
        let me = self.sub.config.instance;
        match sm.msg() {
            Message::Checkpoint {
                seq,
                state_digest,
                replica,
            } if *replica == from => self.record_checkpoint(from, *seq, *state_digest),
            Message::ViewChange {
                new_view,
                replica,
                tail,
                instance,
                ..
            } if *replica == from && *instance == me => {
                self.on_view_change(from, *new_view, tail.clone())
            }
            Message::NewView {
                new_view,
                reissued,
                instance,
            } if *instance == me
                && *new_view > self.sub.view
                && from == self.sub.config.primary_of(*new_view) =>
            {
                self.install_view(*new_view, reissued)
            }
            Message::Checkpoint { .. } | Message::ViewChange { .. } | Message::NewView { .. } => {
                Vec::new()
            }
            _ => self.rule.on_message(&self.sub, sm),
        }
    }

    /// Notification from the execution layer that the batch at `seq` has
    /// been executed with the given replica state digest. Emits a
    /// `Checkpoint` broadcast at every Δ-th sequence of this instance
    /// (Section 4.7). The cadence is a function of the sequence number, so
    /// replicas vote at the same sequences wherever each of them booted,
    /// restarted or installed a snapshot.
    pub fn on_executed(&mut self, seq: SeqNum, state_digest: Digest) -> Vec<Action> {
        let sub = &mut self.sub;
        sub.last_executed = sub.last_executed.max(seq);
        // This instance's `index`-th sequence: it owns every k-th one.
        let index = seq.0.saturating_sub(1) / sub.config.instances + 1;
        if !index.is_multiple_of(sub.config.checkpoint_interval_batches) {
            return Vec::new();
        }
        let mut actions = vec![Action::Broadcast(Message::Checkpoint {
            seq,
            state_digest,
            replica: sub.id,
        })];
        // The 2f+1 stability quorum includes this replica's own checkpoint
        // (the broadcast skips self-delivery, so the vote is recorded
        // here). This is both the PBFT-paper counting and what lets a
        // replica that lagged behind its peers stabilize the moment its
        // own execution reaches the boundary.
        actions.extend(self.record_checkpoint(self.sub.id, seq, state_digest));
        actions
    }

    /// Counts a checkpoint vote; at 2f+1 matching votes the rule
    /// garbage-collects below the new stable point.
    fn record_checkpoint(&mut self, from: ReplicaId, seq: SeqNum, digest: Digest) -> Vec<Action> {
        match self.sub.checkpoints.record(from, seq, digest) {
            Some(stable) => {
                self.rule.prune(&self.sub, stable);
                vec![Action::StableCheckpoint { seq: stable }]
            }
            None => Vec::new(),
        }
    }

    /// Suspicion timer fired (a proposal stalled, or clients signalled
    /// unmet demand): vote to replace the primary. Re-fires re-broadcast
    /// the same vote (lossy networks drop votes too); after
    /// `ESCALATE_AFTER` fruitless re-fires the vote escalates to the next
    /// view in case the voted-for primary is itself down.
    pub fn on_timeout(&mut self) -> Vec<Action> {
        let sub = &mut self.sub;
        let target = match sub.voted_view {
            Some(t) if t > sub.view => {
                sub.timeout_strikes += 1;
                if sub.timeout_strikes >= ESCALATE_AFTER {
                    sub.timeout_strikes = 0;
                    t.next()
                } else {
                    t
                }
            }
            _ => sub.view.next(),
        };
        self.vote_view_change(target)
    }

    /// Broadcasts this replica's `ViewChange` vote for `target` and counts
    /// it toward the quorum.
    fn vote_view_change(&mut self, target: ViewNum) -> Vec<Action> {
        self.sub.voted_view = Some(target);
        let tail = self.rule.tail(&self.sub);
        let mut actions = vec![Action::Broadcast(Message::ViewChange {
            new_view: target,
            last_stable: self.sub.stable_seq(),
            prepared: self.rule.prepared(),
            tail: tail.clone(),
            replica: self.sub.id,
            instance: self.sub.config.instance,
        })];
        actions.extend(self.on_view_change(self.sub.id, target, tail));
        actions
    }

    /// PBFT's liveness join rule (§4.5.2 of the paper): once f+1 replicas
    /// are voting for views beyond ours, join them at the smallest such
    /// view even though our own suspicion timer has not fired — at least
    /// one of those voters is correct, so the suspicion is genuine.
    /// Without this, a straggling minority (replicas that lost Commit
    /// messages on a lossy network, or a healed partition's small side)
    /// votes forever while the healthy majority ignores it and no quorum
    /// ever forms.
    fn maybe_join_view_change(&mut self) -> Vec<Action> {
        let sub = &mut self.sub;
        if sub.voted_view.is_some_and(|t| t > sub.view) {
            return Vec::new(); // already voting for a future view
        }
        let future = || sub.view_change_votes.iter().filter(|(v, _)| **v > sub.view);
        let voters: HashSet<ReplicaId> = future()
            .flat_map(|(_, votes)| votes.keys())
            .copied()
            .collect();
        if voters.len() <= sub.config.f() {
            return Vec::new();
        }
        let target = future()
            .map(|(v, _)| *v)
            .min()
            .expect("f+1 voters imply a future-view vote bucket");
        sub.timeout_strikes = 0;
        self.vote_view_change(target)
    }

    fn on_view_change(
        &mut self,
        from: ReplicaId,
        new_view: ViewNum,
        tail: BatchTail,
    ) -> Vec<Action> {
        let sub = &mut self.sub;
        if new_view <= sub.view {
            return Vec::new();
        }
        let votes = sub.view_change_votes.entry(new_view).or_default();
        votes.insert(from, tail);
        if votes.len() < quorum::commit_quorum(sub.config.f())
            || sub.config.primary_of(new_view) != sub.id
        {
            return self.maybe_join_view_change();
        }
        // 2f+1 votes named this replica the incoming primary.
        let votes = sub.view_change_votes.remove(&new_view).unwrap_or_default();
        let merged = self.merge_tails(votes);
        let mut actions = self.install_view(new_view, &[]);
        actions.extend(self.rule.lead_view(&self.sub, merged));
        actions
    }

    /// Merges a quorum's vote tails to the majority digest per sequence, so
    /// an equivocating old primary — under which correct replicas' logs can
    /// diverge instead of being prefixes of one another — cannot split the
    /// new view.
    fn merge_tails(&self, votes: HashMap<ReplicaId, BatchTail>) -> MergedTail {
        // Our own tail counts once: it is usually already in `votes` (we
        // voted on the way here); chaining it unconditionally would double
        // its weight and let a divergent own suffix tie a true majority.
        let own = if votes.contains_key(&self.sub.id) {
            Vec::new()
        } else {
            self.rule.tail(&self.sub)
        };
        let mut candidates: BTreeMap<SeqNum, Vec<(Digest, Arc<Batch>, usize)>> = BTreeMap::new();
        for (seq, d, batch) in votes.values().chain(std::iter::once(&own)).flatten() {
            let cands = candidates.entry(*seq).or_default();
            match cands.iter_mut().find(|(cd, _, _)| cd == d) {
                Some((_, _, count)) => *count += 1,
                None => cands.push((*d, Arc::clone(batch), 1)),
            }
        }
        candidates
            .into_iter()
            .map(|(seq, cands)| {
                let (d, batch, _) = cands
                    .into_iter()
                    .max_by_key(|(_, _, count)| *count)
                    .expect("candidate list is never empty");
                (seq, (d, batch))
            })
            .collect()
    }

    fn install_view(&mut self, new_view: ViewNum, reissued: &[(SeqNum, Digest)]) -> Vec<Action> {
        self.sub.adopt_view(new_view);
        let mut actions = vec![Action::EnterView {
            view: new_view,
            instance: self.sub.config.instance,
        }];
        actions.extend(self.rule.enter_view(&self.sub, reissued));
        actions
    }

    /// Serves a peer's `FetchRequest` for `seq`: the batch plus whatever
    /// ordering proof the protocol retains. `None` when the sequence is not
    /// held — never decided here, or garbage-collected by a stable
    /// checkpoint (the runtime then falls back to a snapshot).
    pub fn serve_fetch(&self, seq: SeqNum) -> Option<Fetched> {
        self.rule.serve_fetch(&self.sub, seq)
    }

    /// Installs a fetched batch the runtime has validated, filling an
    /// execution hole without a view change.
    pub fn install_fetched(
        &mut self,
        seq: SeqNum,
        view: ViewNum,
        digest: Digest,
        batch: Arc<Batch>,
        certificate: BlockCertificate,
    ) -> Vec<Action> {
        self.rule
            .install_fetched(&mut self.sub, seq, (view, digest, batch, certificate))
    }

    /// Adopts a verified snapshot at `base` (with the Zyzzyva rolling
    /// history at that point; ignored under PBFT): execution state below
    /// it is authoritative, so the stable point jumps forward.
    pub fn install_snapshot(&mut self, base: SeqNum, history: Digest) {
        self.sub.last_executed = self.sub.last_executed.max(base);
        self.sub.checkpoints.force_stable(base);
        self.rule.install_snapshot(&self.sub, base, history);
    }

    /// Sequences worth fetching from peers (execution holes below the
    /// commit frontier), oldest first, at most `limit`.
    pub fn fetch_wanted(&self, limit: usize) -> Vec<SeqNum> {
        self.rule.fetch_wanted(&self.sub, limit)
    }
}

#[cfg(test)]
mod tests {
    //! The view-change rules, run against both protocol rules: whatever the
    //! per-sequence log looks like, the substrate behaves the same.

    use super::*;
    use crate::engine::ReplicaEngine;
    use rdb_common::{ProtocolKind, SignatureBytes};

    const PROTOCOLS: [ProtocolKind; 2] = [ProtocolKind::Pbft, ProtocolKind::Zyzzyva];

    fn engine(protocol: ProtocolKind, id: u32) -> ReplicaEngine {
        ReplicaEngine::new(protocol, ReplicaId(id), ConsensusConfig::new(4, 1_000))
    }

    fn d(b: u8) -> Digest {
        Digest([b; 32])
    }

    fn signed(from: u32, msg: Message) -> SignedMessage {
        SignedMessage::new(
            msg,
            Sender::Replica(ReplicaId(from)),
            SignatureBytes::empty(),
        )
    }

    fn vote(from: u32, new_view: u64, tail: BatchTail) -> SignedMessage {
        signed(
            from,
            Message::ViewChange {
                new_view: ViewNum(new_view),
                last_stable: SeqNum(0),
                prepared: vec![],
                tail,
                replica: ReplicaId(from),
                instance: 0,
            },
        )
    }

    /// The view this replica's own `ViewChange` broadcast in `acts` names.
    fn voted_for(acts: &[Action]) -> Option<ViewNum> {
        acts.iter().find_map(|a| match a {
            Action::Broadcast(Message::ViewChange { new_view, .. }) => Some(*new_view),
            _ => None,
        })
    }

    #[test]
    fn backup_joins_view_change_after_f_plus_one_votes() {
        // r3 is not view 1's primary and its own timer never fired, but
        // f+1 = 2 distinct replicas voting for a future view mean at least
        // one correct replica suspects the primary — r3 must join rather
        // than leave the voters stranded short of a quorum.
        for protocol in PROTOCOLS {
            let mut r3 = engine(protocol, 3);
            assert!(
                r3.on_message(&vote(0, 1, vec![])).is_empty(),
                "{protocol:?}: one vote is not enough"
            );
            // The same voter again is still one voter.
            assert!(r3.on_message(&vote(0, 1, vec![])).is_empty());
            let acts = r3.on_message(&vote(2, 1, vec![]));
            assert_eq!(
                voted_for(&acts),
                Some(ViewNum(1)),
                "{protocol:?}: f+1 votes must trigger the join rule: {acts:?}"
            );
            assert_eq!(r3.view(), ViewNum(0), "joining is not installing");
        }
    }

    #[test]
    fn timeout_rebroadcasts_then_escalates() {
        for protocol in PROTOCOLS {
            let mut r2 = engine(protocol, 2);
            // Re-fires re-broadcast the same vote (lossy networks drop
            // votes); after ESCALATE_AFTER fruitless re-fires, vote for the
            // next view: the voted-for primary may itself be down.
            for _ in 0..ESCALATE_AFTER {
                assert_eq!(
                    voted_for(&r2.on_timeout()),
                    Some(ViewNum(1)),
                    "{protocol:?}"
                );
            }
            assert_eq!(
                voted_for(&r2.on_timeout()),
                Some(ViewNum(2)),
                "{protocol:?}"
            );
            // The strike count restarts for the escalated vote.
            assert_eq!(voted_for(&r2.on_timeout()), Some(ViewNum(2)));
        }
    }

    #[test]
    fn own_tail_counts_once_in_the_majority_merge() {
        // The old primary equivocated: r1 holds digest 66 at seq 1, r2 and
        // r3 hold digest 2. r1's own vote is already among the 2f+1 (the
        // join rule cast it), so the merge is 2 against 1 and digest 2 must
        // win every time — counting r1's tail again would tie it.
        for protocol in PROTOCOLS {
            let mut r1 = engine(protocol, 1);
            let batch = || Arc::new(Batch::new(Vec::new()));
            r1.on_message(&signed(
                0,
                Message::PrePrepare {
                    view: ViewNum(0),
                    seq: SeqNum(1),
                    digest: d(66),
                    batch: batch(),
                },
            ));
            let majority = || vec![(SeqNum(1), d(2), batch())];
            assert!(r1.on_message(&vote(2, 1, majority())).is_empty());
            let acts = r1.on_message(&vote(3, 1, majority()));
            assert_eq!(voted_for(&acts), Some(ViewNum(1)), "{protocol:?}");
            assert!(r1.is_primary(), "{protocol:?}: 2f+1 votes install view 1");
            let reissued: Vec<(SeqNum, Digest)> = acts
                .iter()
                .filter_map(|a| match a {
                    Action::Broadcast(Message::PrePrepare {
                        view: ViewNum(1),
                        seq,
                        digest,
                        ..
                    }) => Some((*seq, *digest)),
                    _ => None,
                })
                .collect();
            assert_eq!(reissued, vec![(SeqNum(1), d(2))], "{protocol:?}: {acts:?}");
        }
    }

    #[test]
    fn votes_for_another_instance_or_an_old_view_are_ignored() {
        for protocol in PROTOCOLS {
            let mut r3 = engine(protocol, 3);
            for from in [0, 1, 2] {
                let elsewhere = Message::ViewChange {
                    new_view: ViewNum(1),
                    last_stable: SeqNum(0),
                    prepared: vec![],
                    tail: vec![],
                    replica: ReplicaId(from),
                    instance: 1,
                };
                assert!(r3.on_message(&signed(from, elsewhere)).is_empty());
                assert!(r3.on_message(&vote(from, 0, vec![])).is_empty());
            }
            assert_eq!(r3.view(), ViewNum(0), "{protocol:?}");
        }
    }
}
