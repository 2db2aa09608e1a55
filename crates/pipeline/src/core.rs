//! The replica's decision logic as a sans-IO state machine.
//!
//! [`ReplicaCore`] is everything the worker thread *decides*: it owns one
//! [`ReplicaEngine`] per consensus instance and routes to them itself
//! (sequence-bearing messages to the owner of their sequence, view-change
//! traffic by its instance tag), the per-instance suspicion timers,
//! multi-primary gap-fill, the recovery ladder (fetch-missing with
//! back-off and peer rotation, the quiescence probe, f+1 vouching for
//! fetched batches and snapshots) and the stable cursor. It touches no
//! thread, socket, queue, clock or shared state: one entry point,
//! [`ReplicaCore::step`], takes an [`Input`] and the current time and
//! appends plain-data [`Effect`]s for the caller to carry out.
//!
//! It batches nothing, executes nothing and reads no execution state: what
//! touches the store, the ledger or the serving snapshot is an effect the
//! execute stage applies in the core's order ([`Effect::for_stage`]). A
//! [`crate::Node`] puts the core
//! between the batch assemblers and the execute stage, and every driver —
//! `replica::worker_loop` with the wall clock, the figure simulator at
//! virtual time, and the tests at the bottom of this file with a
//! synthetic clock and four nodes wired through a `VecDeque` — steps it
//! through one.

use crate::durable::RecoveryReport;
use crate::recovery;
use crate::{ExecuteItem, OutItem};
use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{Digest, ProtocolKind, ReplicaId, SeqNum, Snapshot, SystemConfig, ViewNum};
use rdb_consensus::{Action, ConsensusConfig, ReplicaEngine};
use rdb_crypto::{digest, CryptoProvider};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sequences per `FetchRequest` (and per catch-up probe window).
const FETCH_BATCH: usize = 32;
/// Cap on outstanding fetch requests awaiting responses.
const MAX_INFLIGHT: usize = 64;
/// Sequences served per incoming `FetchRequest`; bounds the amplification
/// an abusive fetcher can extract.
const SERVE_CAP: usize = 32;
/// How often the fetch driver re-examines the engines for holes.
const FETCH_POLL_EVERY: Duration = Duration::from_millis(20);
/// The suspicion timeout doubles per fruitless strike up to `2^5 = 32×`.
const MAX_BACKOFF_SHIFT: u32 = 5;

/// One thing that happened, for [`ReplicaCore::step`] to react to.
#[derive(Debug, Clone)]
pub enum Input {
    /// A replica message whose MAC or signature was already checked (the
    /// worker verifies what the transport delivers to it).
    Verified(SignedMessage),
    /// A digested batch ready to propose on `instance` (from a batch
    /// assembler: a batch thread's, or the node's own).
    Propose {
        /// The consensus instance this replica leads.
        instance: usize,
        /// The assembled batch.
        batch: rdb_common::Batch,
        /// Its digest, computed once by the assembler.
        digest: Digest,
    },
    /// Execution finished for `seq`. `epoch` identifies the execution
    /// timeline the result belongs to; every [`Effect::Rollback`] and
    /// [`Effect::InstallSnapshot`] starts a new one, and results from a
    /// displaced timeline are ignored.
    Executed {
        /// The executed sequence.
        seq: SeqNum,
        /// State commitment after executing it.
        state_digest: Digest,
        /// Execution epoch the result was produced in.
        epoch: u64,
    },
    /// A backup received client traffic for `instance`: unmet demand the
    /// suspicion timer combines with lack of progress to detect a dead or
    /// partitioned primary (clients rebroadcast requests to every replica
    /// when their own timers expire).
    ClientDemand(usize),
    /// Nothing arrived for a while: only the timers run, as on every
    /// step.
    Tick,
}

/// One thing the driver must do on the core's behalf. Effects are carried
/// out in the order they were appended.
#[derive(Debug)]
pub enum Effect {
    /// Sign and transmit a message.
    Send(OutItem),
    /// A batch committed (or speculatively ordered) on `instance`: queue
    /// it for in-order execution.
    Execute {
        /// The consensus instance that ordered it.
        instance: usize,
        /// What to execute.
        item: ExecuteItem,
    },
    /// Undo the speculative suffix above `to`: the execute stage drops the
    /// parked items above it, rewinds store/chain/counters and moves its
    /// next sequence to `min(next, to + 1)` under a new epoch
    /// ([`crate::ExecStage::apply`]). It takes effect after every
    /// `Execute` emitted before it, which may run first; the reconciled
    /// history follows as further [`Effect::Execute`]s.
    Rollback {
        /// Last sequence that survives.
        to: SeqNum,
    },
    /// Install an f+1-vouched, payload-verified snapshot: the execute
    /// stage drops the parked items it covers, replaces store and ledger
    /// and moves its next sequence to `max(next, base + 1)` under a new
    /// epoch, in order with the other execution effects.
    InstallSnapshot(Arc<Snapshot>),
    /// `seq` became a 2f+1-stable checkpoint: nothing at or below it can
    /// roll back any more ([`crate::Executor::note_stable`]). Emitted as
    /// soon as it stabilizes: the stage applies it after every `Rollback`
    /// and `InstallSnapshot` emitted before it.
    Stable {
        /// The stable sequence.
        seq: SeqNum,
    },
    /// A peer asked for sequences this replica has pruned: the stage
    /// answers from its snapshot mark, which no rollback emitted before
    /// this can still supersede ([`crate::ExecStage::apply`]).
    ServeSnapshot {
        /// The peer that asked.
        to: Sender,
        /// This replica, as the response names its sender.
        from: ReplicaId,
        /// The pruned sequences asked for.
        pruned: Vec<SeqNum>,
    },
    /// `instance` installed `view`; client routing must follow its new
    /// primary.
    ViewEntered {
        /// The consensus instance.
        instance: usize,
        /// The view it entered.
        view: ViewNum,
    },
    /// Accounting for one served `FetchRequest`.
    FetchServed {
        /// Sequences (or a covering snapshot) sent back.
        served: u64,
        /// Sequences this replica could not vouch for, or beyond the
        /// per-request cap.
        dropped: u64,
    },
}

impl Effect {
    /// Whether the execute stage carries this effect out, in the core's order.
    pub fn for_stage(&self) -> bool {
        matches!(
            self,
            Effect::Execute { .. }
                | Effect::Rollback { .. }
                | Effect::InstallSnapshot(_)
                | Effect::Stable { .. }
                | Effect::ServeSnapshot { .. }
        )
    }
}

/// Each instance checkpoints every Δ of its *own* executed batches;
/// scaling Δ by 1/k keeps the global prune cadence (in global sequence
/// numbers) independent of k.
pub(crate) fn checkpoint_delta(config: &SystemConfig) -> u64 {
    let k = config.consensus_instances.max(1) as u64;
    (config.checkpoint_interval / config.batch_size as u64 / k).max(1)
}

/// Clients shard across the `k` consensus instances by id.
pub(crate) fn client_instance(from: Sender, k: usize) -> usize {
    match from {
        Sender::Client(c) => (c.0 % k as u64) as usize,
        Sender::Replica(_) => 0,
    }
}

/// One consensus instance: its engine and its suspicion timer. No
/// progress on the instance for a view timeout while its work is stalled
/// (or its client demand is pending) votes out *its* primary — the other
/// k−1 instances keep their timers and their progress.
struct Instance {
    engine: ReplicaEngine,
    last_progress: Instant,
    /// Consecutive suspicion fires without real progress in between. The
    /// effective timeout doubles with each strike (Castro-Liskov §4.5.2's
    /// exponential backoff), so a replica that cannot be helped by a view
    /// change — e.g. a straggler with an execution hole and no state
    /// transfer — stops dragging the healthy quorum into view-change
    /// storms. Reset whenever the instance's execution advances or it
    /// installs a view.
    suspect_strikes: u32,
    client_demand: bool,
}

impl Instance {
    /// Re-arms the suspicion timer and clears the strikes.
    fn rearm(&mut self, now: Instant) {
        self.last_progress = now;
        self.suspect_strikes = 0;
    }
}

/// The worker's state machine — see the module docs.
pub struct ReplicaCore {
    /// Instance `j` owns the global sequences `j+1, j+1+k, …`.
    instances: Vec<Instance>,
    provider: CryptoProvider,
    me: ReplicaId,
    /// Every replica but this one, in id order.
    peers: Vec<Sender>,
    /// Fault tolerance threshold (certificate quorums, f+1 vouching).
    f: usize,
    protocol: ProtocolKind,
    /// Execution timeline counter. The execute stage keeps its own, which
    /// advances on the same `Rollback`/`InstallSnapshot` effects once it
    /// applies them; until then its results carry the older value.
    epoch: u64,
    /// Highest stable checkpoint, each rise emitted as [`Effect::Stable`];
    /// the engines keep nothing at or below it.
    stable_checkpoint: SeqNum,
    view_timeout: Duration,
    /// Highest globally committed sequence seen (any instance). Execution
    /// drains strictly in global order, so a committed sequence above an
    /// instance we lead obliges us to fill our slots below it (no-op
    /// batches) — otherwise one idle instance stalls the whole schedule.
    commit_frontier: SeqNum,
    /// Highest sequence executed locally. When `commit_frontier` sits
    /// above it, the instance owning `last_executed + 1` is holding up
    /// the global schedule — suspicion treats that as stalled work even
    /// if the instance itself ordered nothing (its primary may be dead
    /// with no client traffic to surface demand).
    last_executed: SeqNum,
    /// Sequences with an outstanding `FetchRequest` and the deadline after
    /// which they may be re-requested (from a rotated peer).
    fetch_inflight: HashMap<SeqNum, Instant>,
    /// Zyzzyva fallback: distinct peers that returned an identical
    /// `FetchResponse` for `(seq, digest)` — f+1 of them stand in for an
    /// offline-verifiable certificate.
    fetch_votes: HashMap<(SeqNum, ViewNum, Digest), HashSet<ReplicaId>>,
    /// Distinct peers whose latest snapshot response presented each
    /// `agreement_key`, plus the (payload-verified) snapshot itself.
    #[allow(clippy::type_complexity)]
    snap_votes: HashMap<(SeqNum, Digest, Digest), (HashSet<ReplicaId>, Arc<Snapshot>)>,
    /// Rotating peer index so retries spread across the cluster.
    fetch_rr: usize,
    last_fetch_poll: Instant,
    /// Last-executed watermark and when it last moved — the quiescence
    /// detector behind the catch-up probe.
    probe_mark: (SeqNum, Instant),
    fetch_backoff: Duration,
}

impl std::fmt::Debug for ReplicaCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaCore")
            .field("id", &self.me)
            .field("epoch", &self.epoch)
            .field("last_executed", &self.last_executed)
            .field("commit_frontier", &self.commit_frontier)
            .finish_non_exhaustive()
    }
}

impl ReplicaCore {
    /// Builds the core for replica `id` at time `now`. A replica that
    /// rebuilt itself from disk passes its `recovered` report: the engines
    /// and every cursor resume past the recovered head (everything below
    /// it is already executed, and its prefix pruned).
    pub fn new(
        config: &SystemConfig,
        id: ReplicaId,
        provider: CryptoProvider,
        recovered: Option<&RecoveryReport>,
        now: Instant,
    ) -> Self {
        let k = config.consensus_instances.max(1);
        assert!(
            k == 1 || config.protocol == ProtocolKind::Pbft,
            "multi-primary ordering requires PBFT: Zyzzyva's speculative history is one \
             hash chain over consecutive sequences, which k interleaved instances cannot extend"
        );
        let instances = (0..k)
            .map(|j| {
                let cfg = ConsensusConfig::new(config.n, checkpoint_delta(config))
                    .for_instance(j as u32, k as u64);
                let mut engine = ReplicaEngine::new(config.protocol, id, cfg);
                if let Some(r) = recovered.filter(|r| r.head.0 > 0) {
                    engine.install_snapshot(r.head, r.history);
                }
                Instance {
                    engine,
                    last_progress: now,
                    suspect_strikes: 0,
                    client_demand: false,
                }
            })
            .collect();
        let head = recovered.map_or(SeqNum(0), |r| r.head);
        let view_timeout = Duration::from_millis(config.view_timeout_ms);
        ReplicaCore {
            instances,
            provider,
            me: id,
            peers: (0..config.n as u32)
                .map(ReplicaId)
                .filter(|r| *r != id)
                .map(Sender::Replica)
                .collect(),
            f: config.f,
            protocol: config.protocol,
            epoch: 0,
            stable_checkpoint: recovered.map_or(SeqNum(0), |r| r.stable),
            view_timeout,
            commit_frontier: head,
            last_executed: head,
            fetch_inflight: HashMap::new(),
            fetch_votes: HashMap::new(),
            snap_votes: HashMap::new(),
            fetch_rr: id.0 as usize,
            last_fetch_poll: now,
            probe_mark: (SeqNum(0), now),
            // Retries must fit several rounds inside a view timeout so a
            // straggler repairs itself before suspecting anyone.
            fetch_backoff: (view_timeout / 4)
                .clamp(Duration::from_millis(40), Duration::from_millis(250)),
        }
    }

    /// Reacts to `input` at time `now`, then runs the gap-fill, suspicion
    /// and fetch timers; everything the driver must do is appended to
    /// `fx`.
    pub fn step(&mut self, input: Input, now: Instant, fx: &mut Vec<Effect>) {
        match input {
            Input::Verified(sm) => self.on_message(&sm, now, fx),
            Input::Propose {
                instance,
                batch,
                digest,
            } => {
                let actions = self.instances[instance].engine.propose(batch, digest);
                self.run_actions(actions, now, fx);
            }
            Input::Executed {
                seq,
                state_digest,
                epoch,
            } => self.on_executed(seq, state_digest, epoch, now, fx),
            Input::ClientDemand(j) => {
                if let Some(i) = self.instances.get_mut(j) {
                    i.client_demand = true;
                }
            }
            Input::Tick => {}
        }
        self.fill_gaps(now, fx);
        self.maybe_suspect(now, fx);
        self.maybe_fetch(now, fx);
    }

    /// The instance that owns global sequence `seq` (instance 0 for the
    /// sequence-less `SeqNum(0)`).
    fn owner(&self, seq: SeqNum) -> usize {
        let owns = |i: &Instance| i.engine.config().owns(seq);
        self.instances.iter().position(owns).unwrap_or(0)
    }

    /// Instance `j` made real progress: re-arm its suspicion timer.
    fn note_progress(&mut self, j: usize, now: Instant) {
        self.instances[j].rearm(now);
        self.instances[j].client_demand = false;
    }

    fn on_message(&mut self, sm: &SignedMessage, now: Instant, fx: &mut Vec<Effect>) {
        // Fetch-protocol traffic is runtime state, not consensus input.
        // The rest goes to one instance: view-change traffic by its tag (a
        // byzantine peer's tag ≥ k is dropped), everything else by its seq.
        let j = match sm.msg() {
            // Served only to its signer, never to a third party it names.
            Message::FetchRequest { seqs, replica } if sm.sender() == Sender::Replica(*replica) => {
                return self.serve_fetch_request(*replica, seqs, fx);
            }
            Message::FetchRequest { seqs, .. } => {
                let dropped = seqs.len() as u64;
                return fx.push(Effect::FetchServed { served: 0, dropped });
            }
            Message::FetchResponse { .. } | Message::SnapshotResponse { .. } => {
                return self.on_recovery_response(sm, now, fx);
            }
            Message::ViewChange { instance, .. } | Message::NewView { instance, .. } => {
                *instance as usize
            }
            m => match m.seq() {
                Some(seq) => self.owner(seq),
                None => return,
            },
        };
        if let Some(i) = self.instances.get_mut(j) {
            let actions = i.engine.on_message(sm);
            self.run_actions(actions, now, fx);
        }
    }

    fn on_executed(
        &mut self,
        seq: SeqNum,
        state_digest: Digest,
        epoch: u64,
        now: Instant,
        fx: &mut Vec<Effect>,
    ) {
        if epoch != self.epoch {
            return; // executed on a rolled-back/superseded timeline
        }
        self.last_executed = self.last_executed.max(seq);
        let j = self.owner(seq);
        self.note_progress(j, now);
        let actions = self.instances[j].engine.on_executed(seq, state_digest);
        self.run_actions(actions, now, fx);
    }

    /// The suspicion timers (Section 4.2 of PBFT, simplified), one per
    /// instance: stalled consensus work or unmet client demand with no
    /// progress for a full view timeout means that instance's primary is
    /// dead or cut off — vote it out. Re-arming the timer after each vote
    /// gives the view change its own (doubled) timeout before the vote
    /// escalates further.
    fn maybe_suspect(&mut self, now: Instant, fx: &mut Vec<Effect>) {
        let k = self.instances.len();
        for j in 0..k {
            let shift = self.instances[j].suspect_strikes.min(MAX_BACKOFF_SHIFT);
            let last_progress = self.instances[j].last_progress;
            if now.duration_since(last_progress) < self.view_timeout * (1u32 << shift) {
                continue;
            }
            // An instance with a dead primary and *no* client traffic
            // still stalls the merged schedule once another instance
            // commits past its slot: that hold-up is this instance's
            // fault, so it counts as stalled work for its timer.
            let next_needed = self.last_executed.next();
            let holds_schedule =
                k > 1 && self.commit_frontier >= next_needed && self.owner(next_needed) == j;
            let i = &mut self.instances[j];
            if i.engine.has_stalled_work() || i.client_demand || holds_schedule {
                let actions = i.engine.on_timeout();
                i.last_progress = now;
                i.suspect_strikes = i.suspect_strikes.saturating_add(1);
                self.run_actions(actions, now, fx);
                self.fill_gaps(now, fx);
            } else {
                // Quiet and healthy: keep the timer from firing immediately
                // on the first demand signal after a long idle stretch.
                i.rearm(now);
            }
        }
    }

    /// Multi-primary gap-fill: execution consumes the global sequence
    /// space strictly in order, so once any instance commits past a slot
    /// owned by an instance *we* lead, we must propose into that slot —
    /// an empty no-op batch if no client traffic is pending — or the
    /// committed tail above it never executes. (RCC resolves the same
    /// obligation with explicit no-op proposals.) `k == 1` never triggers:
    /// a single primary's frontier cannot pass its own next slot.
    fn fill_gaps(&mut self, now: Instant, fx: &mut Vec<Effect>) {
        if self.instances.len() == 1 {
            return;
        }
        for j in 0..self.instances.len() {
            if !self.instances[j].engine.is_primary() {
                continue;
            }
            while self.instances[j]
                .engine
                .next_seq()
                .is_some_and(|s| s <= self.commit_frontier)
            {
                let batch = rdb_common::Batch::new(Vec::new());
                let d = digest(&batch.canonical_bytes());
                let actions = self.instances[j].engine.propose(batch, d);
                if actions.is_empty() {
                    break; // engine refused (e.g. mid view change)
                }
                self.run_actions(actions, now, fx);
            }
        }
    }

    fn run_actions(&mut self, actions: Vec<Action>, now: Instant, fx: &mut Vec<Effect>) {
        for action in actions {
            match action {
                Action::Broadcast(msg) => fx.push(Effect::Send(OutItem {
                    targets: self.peers.clone(),
                    msg,
                })),
                Action::SendReplica(r, msg) => {
                    fx.push(Effect::Send(OutItem::to(Sender::Replica(r), msg)));
                }
                Action::SendClient(c, msg) => {
                    fx.push(Effect::Send(OutItem::to(Sender::Client(c), msg)));
                }
                // Deliberately NOT a progress signal: the timer re-arms on
                // `Input::Executed` (PBFT §2.4 stops the timer when a
                // request executes, not when it commits). A commit above an
                // execution hole would otherwise starve the view change
                // that re-issues the missing sequence.
                Action::CommitBatch {
                    seq,
                    view,
                    digest,
                    batch,
                    certificate,
                } => {
                    self.queue_execution(
                        ExecuteItem {
                            seq,
                            view,
                            digest,
                            batch,
                            certificate,
                            history: None,
                        },
                        fx,
                    );
                }
                Action::SpecExecute {
                    seq,
                    view,
                    digest,
                    history,
                    batch,
                } => {
                    self.queue_execution(
                        ExecuteItem {
                            seq,
                            view,
                            digest,
                            batch,
                            certificate: Default::default(),
                            history: Some(history),
                        },
                        fx,
                    );
                }
                Action::StableCheckpoint { seq } => {
                    // A checkpoint's state digest covers the whole global
                    // prefix, so the instances' stable points merge by max.
                    if seq > self.stable_checkpoint {
                        self.stable_checkpoint = seq;
                        fx.push(Effect::Stable { seq });
                    }
                }
                Action::Rollback { to } => {
                    // New epoch: in-flight `Executed` notifications from
                    // the displaced timeline are dropped. The engine
                    // re-emits the reconciled history right after, and
                    // re-execution proceeds from `to + 1`.
                    self.epoch += 1;
                    self.last_executed = self.last_executed.min(to);
                    self.fetch_votes.retain(|(seq, _, _), _| *seq > to);
                    fx.push(Effect::Rollback { to });
                }
                Action::EnterView { view, instance } => {
                    // The view change itself is progress.
                    let instance = instance as usize;
                    if instance < self.instances.len() {
                        self.note_progress(instance, now);
                        fx.push(Effect::ViewEntered { instance, view });
                    }
                }
            }
        }
    }

    fn queue_execution(&mut self, item: ExecuteItem, fx: &mut Vec<Effect>) {
        self.commit_frontier = self.commit_frontier.max(item.seq);
        fx.push(Effect::Execute {
            instance: self.owner(item.seq),
            item,
        });
    }

    /// Serves a peer's `FetchRequest`: one `FetchResponse` per retained
    /// committed sequence and nothing for sequences it cannot vouch for.
    /// Sequences at or below the stable checkpoint are pruned: the
    /// execute stage answers those from its snapshot mark.
    fn serve_fetch_request(&mut self, requester: ReplicaId, seqs: &[SeqNum], fx: &mut Vec<Effect>) {
        if requester == self.me {
            return;
        }
        let (to, from) = (Sender::Replica(requester), self.me);
        let mut served = 0u64;
        let mut dropped = seqs.len().saturating_sub(SERVE_CAP) as u64;
        let mut pruned = Vec::new();
        for &seq in seqs.iter().take(SERVE_CAP) {
            let served_by = &self.instances[self.owner(seq)].engine;
            if let Some((view, digest, batch, certificate)) = served_by.serve_fetch(seq) {
                let msg = Message::FetchResponse {
                    seq,
                    view,
                    digest,
                    batch,
                    certificate,
                    replica: self.me,
                };
                fx.push(Effect::Send(OutItem::to(to, msg)));
                served += 1;
            } else if seq <= self.stable_checkpoint {
                pruned.push(seq);
            } else {
                dropped += 1;
            }
        }
        if !pruned.is_empty() {
            fx.push(Effect::ServeSnapshot { to, from, pruned });
        }
        fx.push(Effect::FetchServed { served, dropped });
    }

    /// Validates and installs a `FetchResponse` or `SnapshotResponse`.
    fn on_recovery_response(&mut self, sm: &SignedMessage, now: Instant, fx: &mut Vec<Effect>) {
        let Sender::Replica(from) = sm.sender() else {
            return; // clients cannot vouch for ordering
        };
        match sm.msg() {
            Message::FetchResponse {
                seq,
                view,
                digest: claimed,
                batch,
                certificate,
                replica,
            } => {
                if *replica != from || *seq <= self.last_executed {
                    return;
                }
                // The digest must bind the transferred batch content —
                // otherwise a valid certificate could smuggle a forged
                // batch in beside it.
                if digest(&batch.canonical_bytes()) != *claimed {
                    return;
                }
                let quorum = rdb_common::quorum::commit_quorum(self.f);
                let certified = recovery::verify_fetch_certificate(
                    &self.provider,
                    quorum,
                    from,
                    *view,
                    *seq,
                    *claimed,
                    certificate,
                );
                // f+1 distinct peers presenting identical (seq, view,
                // digest) responses: at least one is honest. This is the
                // only path for Zyzzyva, whose speculation has no
                // offline-verifiable certificate to ship. The view is part
                // of the match: the engine treats a fetched later view as
                // proof of a missed view change, so a lone byzantine
                // responder must not get to invent one. Under PBFT the
                // certificate installed with the batch goes into the
                // chain, whose append demands 2f+1 signers: a shorter one
                // still vouches, but a response carrying a full one
                // installs.
                let votes = self.fetch_votes.entry((*seq, *view, *claimed)).or_default();
                votes.insert(from);
                let installable = match self.protocol {
                    ProtocolKind::Pbft => certificate.signer_count() >= quorum,
                    ProtocolKind::Zyzzyva => true,
                };
                if certified || (votes.len() > self.f && installable) {
                    self.fetch_votes.retain(|(s, _, _), _| s != seq);
                    self.fetch_inflight.remove(seq);
                    let j = self.owner(*seq);
                    let actions = self.instances[j].engine.install_fetched(
                        *seq,
                        *view,
                        *claimed,
                        Arc::clone(batch),
                        certificate.clone(),
                    );
                    self.run_actions(actions, now, fx);
                }
            }
            Message::SnapshotResponse { snapshot, replica } => {
                if *replica != from || snapshot.base_seq <= self.last_executed {
                    return;
                }
                if !recovery::verify_snapshot(snapshot) {
                    return;
                }
                // One vote per peer — its newest — so what is held is
                // bounded by the peer count however long no f+1 match
                // (under load every peer's mark moves each interval).
                let key = snapshot.agreement_key();
                self.snap_votes.retain(|k, (voters, _)| {
                    *k == key || {
                        voters.remove(&from);
                        !voters.is_empty()
                    }
                });
                let (voters, kept) = self
                    .snap_votes
                    .entry(key)
                    .or_insert_with(|| (HashSet::new(), Arc::clone(snapshot)));
                voters.insert(from);
                if voters.len() > self.f {
                    let snapshot = Arc::clone(kept);
                    self.snap_votes.clear();
                    self.adopt_snapshot(snapshot, now, fx);
                }
            }
            _ => {}
        }
    }

    /// Adopts an f+1-vouched, payload-verified snapshot: fast-forwards the
    /// consensus engines and every cursor past the transferred history.
    fn adopt_snapshot(&mut self, snapshot: Arc<Snapshot>, now: Instant, fx: &mut Vec<Effect>) {
        let base = snapshot.base_seq;
        self.epoch += 1;
        // The global prefix covers every instance's interleaved slice, and
        // installing it is progress: re-arm every suspicion timer.
        for i in &mut self.instances {
            i.engine.install_snapshot(base, snapshot.history);
            i.rearm(now);
        }
        self.last_executed = self.last_executed.max(base);
        self.commit_frontier = self.commit_frontier.max(base);
        self.stable_checkpoint = self.stable_checkpoint.max(base);
        self.fetch_inflight.retain(|seq, _| *seq > base);
        self.fetch_votes.retain(|(seq, _, _), _| *seq > base);
        fx.push(Effect::InstallSnapshot(snapshot));
    }

    /// Sequences worth fetching, merged across the instances, oldest
    /// first, at most `limit`.
    fn fetch_wanted(&self, limit: usize) -> Vec<SeqNum> {
        let mut wanted: Vec<SeqNum> = self
            .instances
            .iter()
            .flat_map(|i| i.engine.fetch_wanted(limit))
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        wanted.truncate(limit);
        wanted
    }

    /// The fetch driver: when the engines report execution holes below
    /// the commit frontier, request the missing batches from rotating
    /// peers — deduplicating in-flight sequences, capping the outstanding
    /// set, and retrying (next peer) after a backoff. Under Zyzzyva each
    /// request fans out to f+1 peers, since acceptance needs f+1 matching
    /// responses rather than one verifiable certificate.
    fn maybe_fetch(&mut self, now: Instant, fx: &mut Vec<Effect>) {
        if now.duration_since(self.last_fetch_poll) < FETCH_POLL_EVERY {
            return;
        }
        self.last_fetch_poll = now;
        // Expired entries are eligible for re-request (peer rotation below
        // naturally lands retries elsewhere).
        self.fetch_inflight.retain(|_, deadline| *deadline > now);
        let budget = MAX_INFLIGHT.saturating_sub(self.fetch_inflight.len());
        if budget == 0 {
            return;
        }
        let seqs: Vec<SeqNum> = self
            .fetch_wanted(FETCH_BATCH + self.fetch_inflight.len())
            .into_iter()
            .filter(|s| *s > self.last_executed && !self.fetch_inflight.contains_key(s))
            .take(budget.min(FETCH_BATCH))
            .collect();
        if seqs.is_empty() {
            self.maybe_probe(now, fx);
        } else {
            self.send_fetch(seqs, now, fx);
        }
    }

    /// Quiescent-network catch-up. A replica that rejoins after the load
    /// has drained receives no new traffic that would reveal the committed
    /// frontier, so the engine reports no holes and [`Self::maybe_fetch`]
    /// has nothing to do — forever. When execution has not advanced for a
    /// couple of backoff periods and nothing is in flight, probe a peer
    /// with a plain `FetchRequest` for the next sequence window: either it
    /// comes back served (the log moved on without us — install and keep
    /// going) or the peer is equally idle and drops it, which costs one
    /// tiny message per idle interval. The probe is paced by
    /// `probe_mark` alone and marks nothing in flight: a hole the engines
    /// report right after an unanswered probe is requested at the next
    /// poll, not one back-off later.
    fn maybe_probe(&mut self, now: Instant, fx: &mut Vec<Effect>) {
        if self.probe_mark.0 != self.last_executed {
            self.probe_mark = (self.last_executed, now);
            return;
        }
        if now.duration_since(self.probe_mark.1) < self.fetch_backoff * 2
            || !self.fetch_inflight.is_empty()
        {
            return;
        }
        self.probe_mark.1 = now;
        let seqs = (1..=FETCH_BATCH as u64)
            .map(|i| SeqNum(self.last_executed.0 + i))
            .collect();
        self.request_batches(seqs, fx);
    }

    /// Requests the holes `seqs`, each in flight until one back-off from
    /// `now`.
    fn send_fetch(&mut self, seqs: Vec<SeqNum>, now: Instant, fx: &mut Vec<Effect>) {
        let deadline = now + self.fetch_backoff;
        for &seq in &seqs {
            self.fetch_inflight.insert(seq, deadline);
        }
        self.request_batches(seqs, fx);
    }

    /// Sends one `FetchRequest` for `seqs` to the next peer in the
    /// rotation (f+1 of them under Zyzzyva).
    fn request_batches(&mut self, seqs: Vec<SeqNum>, fx: &mut Vec<Effect>) {
        let fanout = match self.protocol {
            ProtocolKind::Pbft => 1,
            ProtocolKind::Zyzzyva => (self.f + 1).min(self.peers.len()),
        };
        let targets = (0..fanout)
            .map(|i| self.peers[(self.fetch_rr + i) % self.peers.len()])
            .collect();
        self.fetch_rr = self.fetch_rr.wrapping_add(1);
        let msg = Message::FetchRequest {
            seqs,
            replica: self.me,
        };
        fx.push(Effect::Send(OutItem { targets, msg }));
    }
}

#[cfg(test)]
mod tests {
    //! Single-threaded drivers for the core: a synthetic clock (one real
    //! `Instant` plus offsets), no sleeps, no channels. Each replica is a
    //! [`Node`] over a real executor, as the worker builds one under
    //! `0E 0B`.

    use super::*;
    use crate::{ExecBackend, ExecStage, Executor, Node, NodeEffect, NodeInput};
    use parking_lot::Mutex;
    use rdb_common::block::{Block, BlockCertificate, BlockLink};
    use rdb_common::messages::MessageKind;
    use rdb_common::{Batch, ClientId, CryptoScheme, Operation, SignatureBytes, Transaction};
    use rdb_crypto::{KeyRegistry, PeerClass};
    use rdb_storage::blockchain::ChainMode;
    use rdb_storage::{Blockchain, MemStore, StateStore};
    use std::cell::Cell;
    use std::collections::VecDeque;

    const VIEW_TIMEOUT: Duration = Duration::from_millis(1_000);
    const MS: Duration = Duration::from_millis(1);

    /// The real executor as the stage's back end, noting each snapshot it
    /// installs.
    struct Backend {
        executor: Arc<Executor>,
        installed: Mutex<Vec<SeqNum>>,
    }

    impl ExecBackend for Backend {
        fn rollback_to(&self, to: SeqNum) {
            self.executor.rollback_to(to);
        }
        fn install_snapshot(&self, snapshot: &Arc<Snapshot>) {
            self.installed.lock().push(snapshot.base_seq);
            self.executor.install_snapshot(snapshot);
        }
        fn note_stable(&self, seq: SeqNum) {
            self.executor.note_stable(seq);
        }
        fn snapshot_base(&self) -> Option<SeqNum> {
            self.executor.snapshot_base()
        }
        fn latest_snapshot(&self) -> Option<Arc<Snapshot>> {
            self.executor.latest_snapshot()
        }
    }

    /// One replica: its node, and what it did.
    struct Replica {
        node: Node,
        backend: Arc<Backend>,
        executor: Arc<Executor>,
        chain: Arc<Mutex<Blockchain>>,
        /// `Some` for a replica whose execute stage runs outside its node,
        /// as an execute thread's does.
        thread_stage: Option<ExecStage>,
        /// `Some` while that stage lags: execution effects wait here, in
        /// order, as in an execute thread's channel.
        stage_backlog: Option<Vec<Effect>>,
        /// `(seq, state digest)` of everything executed, in order.
        executed: Vec<(SeqNum, Digest)>,
        /// Every message this replica sent, with its targets.
        sent: Vec<OutItem>,
        views: Vec<(usize, ViewNum)>,
        /// `Some` while every step is recorded: the input, its time and
        /// the `Debug` form of the effects it appended.
        recorded: Option<Vec<(NodeInput, Instant, String)>>,
    }

    impl Replica {
        fn sent_kind(&self, kind: MessageKind) -> Vec<&OutItem> {
            self.sent.iter().filter(|o| o.msg.kind() == kind).collect()
        }

        fn core(&self) -> &ReplicaCore {
            &self.node.core
        }

        fn stage(&self) -> &ExecStage {
            match (&self.node.stage, &self.thread_stage) {
                (Some((stage, _)), _) | (None, Some(stage)) => stage,
                (None, None) => unreachable!("every test replica has a stage"),
            }
        }

        fn installed(&self) -> Vec<SeqNum> {
            self.backend.installed.lock().clone()
        }
    }

    /// Four nodes wired through a `VecDeque` on one thread — the seed of
    /// the deterministic-simulation harness.
    struct Cluster {
        registry: KeyRegistry,
        now: Instant,
        k: usize,
        nodes: Vec<Replica>,
        wire: VecDeque<(usize, NodeInput)>,
        /// Replicas whose traffic (both directions) is dropped.
        isolated: HashSet<usize>,
    }

    fn config(protocol: ProtocolKind, k: usize) -> SystemConfig {
        let mut cfg = SystemConfig::new(4).unwrap();
        cfg.protocol = protocol;
        cfg.batch_size = 2;
        cfg.consensus_instances = k;
        cfg.view_timeout_ms = VIEW_TIMEOUT.as_millis() as u64;
        cfg.table_size = 64;
        cfg
    }

    impl Cluster {
        fn new(cfg: &SystemConfig) -> Self {
            Self::with_stage_threads(cfg, &[])
        }

        /// A cluster whose replicas in `threaded` run their execute stage
        /// outside their node, as an execute thread does.
        fn with_stage_threads(cfg: &SystemConfig, threaded: &[usize]) -> Self {
            let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, cfg.n, 4, 7);
            let now = Instant::now();
            let nodes = (0..cfg.n as u32)
                .map(|r| {
                    let id = ReplicaId(r);
                    let store: Arc<dyn StateStore> = Arc::new(MemStore::with_table(64, 8));
                    let (quorum, mode) = match cfg.protocol {
                        ProtocolKind::Pbft => (3, ChainMode::Certificate),
                        ProtocolKind::Zyzzyva => (0, ChainMode::PrevHash),
                    };
                    let chain = Arc::new(Mutex::new(Blockchain::new(Digest::ZERO, quorum, mode)));
                    let executor =
                        Arc::new(Executor::new(id, cfg.protocol, store, Arc::clone(&chain)));
                    let backend = Arc::new(Backend {
                        executor: Arc::clone(&executor),
                        installed: Mutex::new(Vec::new()),
                    });
                    let provider = registry.provider_for_replica(id);
                    let core = ReplicaCore::new(cfg, id, provider, None, now);
                    let mut node = Node::new(core).with_batching(cfg, now);
                    let threaded = threaded.contains(&(r as usize));
                    if !threaded {
                        node = node.with_stage(SeqNum(1), Arc::clone(&backend) as _);
                    }
                    Replica {
                        node,
                        backend,
                        executor,
                        chain,
                        thread_stage: threaded.then(|| ExecStage::new(SeqNum(1))),
                        stage_backlog: None,
                        executed: Vec::new(),
                        sent: Vec::new(),
                        views: Vec::new(),
                        recorded: None,
                    }
                })
                .collect();
            Cluster {
                registry,
                now,
                k: cfg.consensus_instances,
                nodes,
                wire: VecDeque::new(),
                isolated: HashSet::new(),
            }
        }

        /// `txns` single-write transactions from `client`, as its request
        /// carries them.
        fn request(&self, client: u64, first_counter: u64, txns: u64) -> NodeInput {
            let txns = (first_counter..first_counter + txns)
                .map(|c| {
                    let op = Operation::Write {
                        key: c % 64,
                        value: c.to_le_bytes().to_vec(),
                    };
                    Transaction::new(ClientId(client), c, vec![op])
                })
                .collect();
            let instance = client_instance(Sender::Client(ClientId(client)), self.k);
            NodeInput::Requests { instance, txns }
        }

        /// Steps replica `r` at the current virtual time — after a tick
        /// if its node is due, as the worker does — and carries out its
        /// effects: sends go on the wire (signed, as the worker would),
        /// cut batches are proposed at once and executions run in
        /// sequence order on the real executor.
        fn step(&mut self, r: usize, input: impl Into<NodeInput>) {
            let (input, mut fx) = (input.into(), Vec::new());
            let tick = matches!(input, NodeInput::Core(Input::Tick));
            let due = self.nodes[r].node.next_due();
            if !tick && due.is_some_and(|due| self.now > due) {
                self.step_node(r, Input::Tick.into(), &mut fx);
            }
            self.step_node(r, input, &mut fx);
            for effect in fx {
                self.apply(r, effect);
            }
        }

        /// Steps replica `r`'s node once, recording the step if asked to.
        fn step_node(&mut self, r: usize, input: NodeInput, fx: &mut Vec<NodeEffect>) {
            let (replica, from) = (&mut self.nodes[r], fx.len());
            let record = replica.recorded.is_some().then(|| input.clone());
            replica.node.step(input, self.now, fx);
            if let (Some(input), Some(log)) = (record, &mut replica.recorded) {
                log.push((input, self.now, format!("{:?}", &fx[from..])));
            }
        }

        fn apply(&mut self, r: usize, effect: NodeEffect) {
            match effect {
                NodeEffect::Propose(input) => self.step(r, input),
                NodeEffect::Committed(_) => {}
                NodeEffect::Execute { window, epoch } => self.execute(r, window, epoch),
                NodeEffect::Core(effect) => self.carry_out(r, effect),
            }
        }

        fn carry_out(&mut self, r: usize, effect: Effect) {
            let me = Sender::Replica(ReplicaId(r as u32));
            let node = &mut self.nodes[r];
            match effect {
                Effect::Send(item) => {
                    let provider = self.registry.provider_for_replica(ReplicaId(r as u32));
                    let sm = SignedMessage::sign_with(item.msg.clone(), me, |bytes| {
                        provider.sign(PeerClass::Replica, bytes)
                    });
                    for target in &item.targets {
                        if let Sender::Replica(to) = target {
                            let to = to.0 as usize;
                            if !self.isolated.contains(&r) && !self.isolated.contains(&to) {
                                self.wire
                                    .push_back((to, Input::Verified(sm.clone()).into()));
                            }
                        }
                    }
                    node.sent.push(item);
                }
                Effect::ViewEntered { instance, view } => node.views.push((instance, view)),
                Effect::FetchServed { .. } => {}
                // Only from a node without a stage: its execute thread's.
                effect => {
                    if let Some(backlog) = &mut node.stage_backlog {
                        backlog.push(effect);
                        return;
                    }
                    let stage = node
                        .thread_stage
                        .as_mut()
                        .expect("a stage outside the node");
                    let answer = stage.apply(effect, &*node.backend);
                    let (window, epoch) = (stage.take_window(usize::MAX), stage.epoch());
                    self.execute(r, window, epoch);
                    for effect in answer {
                        self.carry_out(r, effect);
                    }
                }
            }
        }

        /// Runs a window on replica `r`'s executor; the results go on the
        /// wire back to it.
        fn execute(&mut self, r: usize, window: Vec<ExecuteItem>, epoch: u64) {
            let node = &mut self.nodes[r];
            for item in window {
                let (state_digest, _replies) = node.executor.execute(&item);
                node.executed.push((item.seq, state_digest));
                let done = Input::Executed {
                    seq: item.seq,
                    state_digest,
                    epoch,
                };
                self.wire.push_back((r, done.into()));
            }
        }

        /// Lets replica `r`'s stage apply its backlog, in order, and keep
        /// up from then on.
        fn catch_up_stage(&mut self, r: usize) {
            for effect in self.nodes[r].stage_backlog.take().unwrap_or_default() {
                self.carry_out(r, effect);
            }
        }

        /// Delivers everything on the wire (and whatever that causes).
        fn run(&mut self) {
            while let Some((to, input)) = self.wire.pop_front() {
                self.step(to, input);
            }
        }

        /// Moves the clock and lets every replica notice.
        fn advance(&mut self, by: Duration) {
            self.now += by;
            for r in 0..self.nodes.len() {
                self.step(r, Input::Tick);
            }
            self.run();
        }

        /// Submits one full batch (two transactions) from `client` to
        /// replica `primary` and runs to quiescence.
        fn commit_batch(&mut self, primary: usize, client: u64, first_counter: u64) {
            let request = self.request(client, first_counter, 2);
            self.step(primary, request);
            self.run();
        }
    }

    fn view_changes(node: &Replica) -> usize {
        node.sent_kind(MessageKind::ViewChange).len()
    }

    fn fetch_requests(node: &Replica) -> Vec<(Vec<Sender>, Vec<SeqNum>)> {
        node.sent
            .iter()
            .filter_map(|o| match &o.msg {
                Message::FetchRequest { seqs, .. } => Some((o.targets.clone(), seqs.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn four_cores_on_one_thread_commit_a_batch_with_equal_digests() {
        for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
            let mut c = Cluster::new(&config(protocol, 1));
            c.commit_batch(0, 0, 0);
            let digests: Vec<_> = c.nodes.iter().map(|n| n.executed.clone()).collect();
            assert_eq!(digests[0].len(), 1, "{protocol:?}: one batch executed");
            assert_eq!(digests[0][0].0, SeqNum(1));
            assert!(
                digests.iter().all(|d| *d == digests[0]),
                "{protocol:?}: replicas disagree: {digests:?}"
            );
            assert!(c.nodes.iter().all(|n| n.executor.executed_txns() == 2));
        }
    }

    #[test]
    fn a_partial_batch_is_proposed_on_the_first_idle_tick_after_the_flush_delay() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        let one_txn = c.request(0, 0, 1);
        c.step(0, one_txn);
        assert!(c.nodes[0].sent.is_empty(), "half a batch: nothing proposed");
        c.advance(crate::batch::BATCH_FLUSH_AFTER);
        assert!(c.nodes[0].sent.is_empty(), "flush delay not exceeded yet");
        c.advance(MS);
        assert_eq!(c.nodes[0].sent_kind(MessageKind::PrePrepare).len(), 1);
        assert!(c.nodes.iter().all(|n| n.executor.executed_txns() == 1));
    }

    #[test]
    fn a_busy_0b_core_cuts_a_partial_batch_on_any_input_after_the_flush_delay() {
        use crate::batch::BATCH_FLUSH_AFTER;
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        let start = c.now;
        assert_eq!(c.nodes[0].node.next_due(), None, "nothing pending");
        let one_txn = c.request(0, 0, 1);
        c.step(0, one_txn);
        assert_eq!(
            c.nodes[0].node.next_due(),
            Some(start + BATCH_FLUSH_AFTER),
            "due one flush period after the last cut"
        );
        // A busy worker never idles into a `Tick`: whatever it steps next
        // cuts the overdue batch.
        c.now += BATCH_FLUSH_AFTER + MS;
        let cut_at = c.now;
        c.step(0, Input::ClientDemand(0));
        assert_eq!(c.nodes[0].sent_kind(MessageKind::PrePrepare).len(), 1);
        assert_eq!(c.nodes[0].node.next_due(), None);
        c.run();
        assert!(c.nodes.iter().all(|n| n.executor.executed_txns() == 1));

        c.now += MS;
        let another = c.request(0, 1, 1);
        c.step(0, another);
        assert_eq!(c.nodes[0].node.next_due(), Some(cut_at + BATCH_FLUSH_AFTER));
    }

    #[test]
    fn suspicion_needs_demand_and_a_full_timeout_then_doubles_up_to_32x() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        // Votes must not reach a quorum, or the view change completes and
        // resets the strikes: watch replica 1 alone.
        c.isolated.extend([0, 1, 2, 3]);
        c.advance(VIEW_TIMEOUT * 5);
        assert_eq!(view_changes(&c.nodes[1]), 0, "no demand, no stalled work");

        c.step(1, Input::ClientDemand(0));
        c.advance(VIEW_TIMEOUT - MS);
        assert_eq!(view_changes(&c.nodes[1]), 0, "one ms short of the timeout");
        c.advance(MS);
        assert_eq!(view_changes(&c.nodes[1]), 1, "fires at the full timeout");

        // Each fruitless strike doubles the wait: 2×, 4×, … 32×, then stays.
        let mut fired = 1;
        for factor in [2u32, 4, 8, 16, 32, 32, 32] {
            c.advance(VIEW_TIMEOUT * factor - MS);
            assert_eq!(view_changes(&c.nodes[1]), fired, "early at {factor}×");
            c.advance(MS);
            fired += 1;
            assert_eq!(view_changes(&c.nodes[1]), fired, "due at {factor}×");
        }
    }

    #[test]
    fn executing_resets_the_suspicion_backoff_and_a_stale_epoch_does_not() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        c.isolated.extend([0, 1, 2, 3]);
        c.step(1, Input::ClientDemand(0));
        c.advance(VIEW_TIMEOUT);
        c.advance(VIEW_TIMEOUT * 2);
        assert_eq!(view_changes(&c.nodes[1]), 2, "two strikes: next wait is 4×");

        // A result from another execution timeline is not progress.
        let executed = |epoch| Input::Executed {
            seq: SeqNum(1),
            state_digest: Digest::ZERO,
            epoch,
        };
        c.step(1, executed(c.nodes[1].core().epoch + 1));
        c.advance(VIEW_TIMEOUT * 4);
        assert_eq!(
            view_changes(&c.nodes[1]),
            3,
            "stale epoch ignored: 4× wait held"
        );

        // A current-epoch result is: demand is met, strikes are cleared.
        c.step(1, executed(c.nodes[1].core().epoch));
        c.advance(VIEW_TIMEOUT * 8);
        assert_eq!(view_changes(&c.nodes[1]), 3, "demand was met by executing");
        c.step(1, Input::ClientDemand(0));
        c.advance(VIEW_TIMEOUT);
        assert_eq!(view_changes(&c.nodes[1]), 4, "back to the base timeout");
    }

    #[test]
    fn an_executed_from_before_a_rollback_carries_the_old_epoch_and_is_ignored() {
        let mut c = Cluster::new(&config(ProtocolKind::Zyzzyva, 1));
        c.commit_batch(0, 0, 0);
        let epoch = c.nodes[1].core().epoch;
        // Replica 1 speculatively executes seq 2; its result is still in
        // flight to its core when the rollback comes.
        let request = c.request(0, 2, 2);
        c.step(0, request);
        let for_1 = |want_executed: bool| {
            move |(to, input): &(usize, NodeInput)| {
                *to == 1
                    && matches!(input, NodeInput::Core(Input::Executed { .. })) == want_executed
            }
        };
        let pre_prepare = c.wire.iter().position(for_1(false)).unwrap();
        let (_, pre_prepare) = c.wire.remove(pre_prepare).unwrap();
        c.step(1, pre_prepare);
        let result = c.wire.iter().position(for_1(true)).unwrap();
        let (_, result) = c.wire.remove(result).unwrap();
        assert!(matches!(
            result,
            NodeInput::Core(Input::Executed { seq: SeqNum(2), epoch: e, .. }) if e == epoch
        ));

        // A client's commit certificate for another digest at seq 2: the
        // speculative suffix rolls back to 1.
        let signers = (0..3).map(|i| (ReplicaId(i), SignatureBytes(vec![i as u8])));
        let cert = Message::CommitCert {
            view: ViewNum(0),
            seq: SeqNum(2),
            digest: Digest([9; 32]),
            cert: BlockCertificate::new(signers.collect()),
            client: ClientId(0),
        };
        let from = Sender::Client(ClientId(0));
        c.step(
            1,
            Input::Verified(SignedMessage::new(cert, from, Default::default())),
        );
        let node = &c.nodes[1];
        assert_eq!(
            (node.core().epoch, node.stage().epoch()),
            (epoch + 1, epoch + 1)
        );
        assert_eq!(node.stage().next(), SeqNum(2), "seq 2 runs again");
        assert_eq!(node.executor.executed_batches(), 1, "seq 2 was undone");

        // The old timeline's result reaches the core and is not progress.
        assert_eq!(c.nodes[1].core().last_executed, SeqNum(1));
        c.step(1, result);
        assert_eq!(c.nodes[1].core().last_executed, SeqNum(1));
    }

    /// A forged proposal at `seq` from replica 0, straight to a backup's
    /// core: the speculation only that backup runs.
    fn forged_proposal(seq: u64) -> Input {
        let forged = Arc::new(Batch::new(vec![Transaction::new(
            ClientId(5),
            seq,
            vec![Operation::Write {
                key: seq,
                value: vec![1; 8],
            }],
        )]));
        let proposal = Message::PrePrepare {
            view: ViewNum(0),
            seq: SeqNum(seq),
            digest: digest(&forged.canonical_bytes()),
            batch: forged,
        };
        let primary = Sender::Replica(ReplicaId(0));
        Input::Verified(SignedMessage::new(proposal, primary, Default::default()))
    }

    /// The ledger's first retained block.
    fn ledger_base(node: &Replica) -> SeqNum {
        node.chain.lock().iter().next().expect("a head").seq
    }

    /// A checkpoint that stabilizes above a rollback the execute stage has
    /// not applied yet waits for it in the stage's queue. Pruning first
    /// would drop the undo records the rollback needs (or move the
    /// ledger's base past its target) and leave the displaced writes in
    /// place.
    #[test]
    fn a_checkpoint_stable_above_a_pending_rollback_waits_for_the_stage() {
        let mut cfg = config(ProtocolKind::Zyzzyva, 1);
        cfg.checkpoint_interval = 4; // a checkpoint every 2 batches
        let mut c = Cluster::with_stage_threads(&cfg, &[1]);
        for node in &c.nodes {
            node.executor.set_snapshot_interval(2);
        }
        c.commit_batch(0, 0, 0);
        let after_1 = c.nodes[1].executor.store().state_digest();
        let block_1 = c.nodes[1].chain.lock().head().clone();
        let txns_1 = c.nodes[1].executor.executed_txns();

        // Replica 1 alone speculatively executes a forged proposal at 2.
        c.step(1, forged_proposal(2));
        c.run();
        assert_eq!(c.nodes[1].executor.executed_batches(), 2);

        // The others execute the primary's real seq 2 and vote on it.
        c.isolated.insert(1);
        c.commit_batch(0, 0, 2);
        c.isolated.remove(&1);
        let votes: Vec<Input> = [0, 2, 3]
            .into_iter()
            .map(|r| {
                let vote = c.nodes[r].sent_kind(MessageKind::Checkpoint)[0].msg.clone();
                let from = Sender::Replica(ReplicaId(r as u32));
                Input::Verified(SignedMessage::new(vote, from, Default::default()))
            })
            .collect();
        let Message::PrePrepare { digest: real, .. } =
            c.nodes[0].sent_kind(MessageKind::PrePrepare)[1].msg
        else {
            unreachable!("the primary's second proposal")
        };

        // A client's certificate for the real seq 2 rolls replica 1 back
        // to 1 while its stage lags; then 2f+1 votes make 2 stable.
        c.nodes[1].stage_backlog = Some(Vec::new());
        let signers = [0, 2, 3].map(|i| (ReplicaId(i), SignatureBytes(vec![i as u8])));
        let cert = Message::CommitCert {
            view: ViewNum(0),
            seq: SeqNum(2),
            digest: real,
            cert: BlockCertificate::new(signers.into()),
            client: ClientId(0),
        };
        let from = Sender::Client(ClientId(0));
        c.step(
            1,
            Input::Verified(SignedMessage::new(cert, from, Default::default())),
        );
        for vote in votes {
            c.step(1, vote);
        }
        assert_eq!(c.nodes[1].core().stable_checkpoint, SeqNum(2));

        // The stage applies the rollback, then the stable checkpoint: the
        // undo log rewinds all of the forged batch — store, ledger and
        // counters — and the ledger is pruned no further than its head.
        c.catch_up_stage(1);
        c.run();
        let node = &c.nodes[1];
        assert_eq!(node.executor.executed_batches(), 1);
        assert_eq!(node.executor.executed_txns(), txns_1);
        assert_eq!(node.executor.store().state_digest(), after_1);
        assert_eq!(*node.chain.lock().head(), block_1);
        assert_eq!(ledger_base(node), SeqNum(1), "pruned up to the head");

        // Replica 1 catches up from the others and converges on a replica
        // that never speculated.
        for _ in 0..50 {
            c.advance(FETCH_POLL_EVERY);
        }
        c.commit_batch(0, 0, 4);
        let (one, zero) = (&c.nodes[1], &c.nodes[0]);
        assert_eq!(one.executed.last(), zero.executed.last());
        assert_eq!(one.executed.last().map(|e| e.0), Some(SeqNum(3)));
        assert_eq!(
            one.executor.store().state_digest(),
            zero.executor.store().state_digest()
        );
        assert_eq!(ledger_base(one), SeqNum(2), "pruning follows execution");
    }

    /// A peer asks a Zyzzyva replica for a pruned sequence while a
    /// rollback below its newest snapshot mark still waits for the stage.
    /// The answer comes from the stage, after the rollback dropped that
    /// mark, so the speculation it captured is never served.
    #[test]
    fn a_pruned_fetch_behind_a_queued_rollback_never_gets_the_superseded_mark() {
        let mut cfg = config(ProtocolKind::Zyzzyva, 1);
        cfg.checkpoint_interval = 4; // a checkpoint every 2 batches
        let mut c = Cluster::with_stage_threads(&cfg, &[1]);
        for node in &c.nodes {
            node.executor.set_snapshot_interval(2);
        }
        c.commit_batch(0, 0, 0);
        c.commit_batch(0, 0, 2);
        assert_eq!(c.nodes[1].core().stable_checkpoint, SeqNum(2));

        // Replica 1 alone speculates on 3 and 4 and marks its snapshot at 4.
        c.isolated.insert(1);
        for seq in [3, 4] {
            c.step(1, forged_proposal(seq));
        }
        c.run();
        c.isolated.remove(&1);
        assert_eq!(c.nodes[1].executor.snapshot_base(), Some(SeqNum(4)));

        // A client's certificate for another digest at 3 rolls it back to 2
        // while its stage lags; then replica 2 asks for the pruned 1.
        c.nodes[1].stage_backlog = Some(Vec::new());
        let signers = [0, 2, 3].map(|i| (ReplicaId(i), SignatureBytes(vec![i as u8])));
        let cert = Message::CommitCert {
            view: ViewNum(0),
            seq: SeqNum(3),
            digest: Digest([9; 32]),
            cert: BlockCertificate::new(signers.into()),
            client: ClientId(0),
        };
        let client = Sender::Client(ClientId(0));
        c.step(
            1,
            Input::Verified(SignedMessage::new(cert, client, Default::default())),
        );
        let fetch = Message::FetchRequest {
            seqs: vec![SeqNum(1)],
            replica: ReplicaId(2),
        };
        let from = Sender::Replica(ReplicaId(2));
        c.step(
            1,
            Input::Verified(SignedMessage::new(fetch, from, Default::default())),
        );
        c.catch_up_stage(1);
        c.run();

        let node = &c.nodes[1];
        assert_eq!(node.executor.executed_batches(), 2, "3 and 4 undone");
        assert_eq!(node.executor.snapshot_base(), None, "the mark at 4 is gone");
        let served = node.sent_kind(MessageKind::SnapshotResponse);
        assert!(
            served.iter().all(|o| matches!(
                &o.msg,
                Message::SnapshotResponse { snapshot, .. } if snapshot.base_seq <= SeqNum(2)
            )),
            "served a mark the rollback superseded"
        );
    }

    /// A request is served only to the replica that signed it: naming a
    /// third one would let any replica, or a client, have this replica
    /// send it batches and a whole-store snapshot.
    #[test]
    fn a_fetch_request_is_served_only_to_the_replica_that_signed_it() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        c.commit_batch(0, 0, 0);
        let ask = |c: &mut Cluster, signer: Sender| {
            let msg = Message::FetchRequest {
                seqs: vec![SeqNum(1), SeqNum(2)],
                replica: ReplicaId(3),
            };
            let input = Input::Verified(SignedMessage::new(msg, signer, Default::default()));
            let mut fx = Vec::new();
            c.nodes[0].node.step(input.into(), c.now, &mut fx);
            let mut sent = Vec::new();
            let mut counted = None;
            for effect in fx {
                match effect {
                    NodeEffect::Core(Effect::Send(o)) => sent.push((o.targets, o.msg.kind())),
                    NodeEffect::Core(Effect::FetchServed { served, dropped }) => {
                        counted = Some((served, dropped));
                    }
                    other => panic!("nothing else: {other:?}"),
                }
            }
            (sent, counted)
        };
        for signer in [Sender::Replica(ReplicaId(2)), Sender::Client(ClientId(0))] {
            assert_eq!(
                ask(&mut c, signer),
                (Vec::new(), Some((0, 2))),
                "{signer:?}"
            );
        }
        let to_3 = vec![Sender::Replica(ReplicaId(3))];
        assert_eq!(
            ask(&mut c, Sender::Replica(ReplicaId(3))),
            (vec![(to_3, MessageKind::FetchResponse)], Some((1, 1)))
        );
    }

    /// A core is a function of its inputs: a fresh node built from the same
    /// config and keys, stepped with what replica 3 was stepped with —
    /// through a view change, a fetch catch-up and a snapshot install —
    /// appends the same effects in the same order. Nothing else is
    /// recorded: the core reads no state it does not own.
    #[test]
    fn a_fresh_node_stepped_through_a_recorded_run_appends_the_same_effects() {
        let mut cfg = config(ProtocolKind::Pbft, 1);
        cfg.checkpoint_interval = 16; // a checkpoint every 8 batches
        let mut c = Cluster::with_stage_threads(&cfg, &[3]);
        let start = c.now;
        for node in &c.nodes {
            node.executor.set_snapshot_interval(8);
        }
        c.nodes[3].recorded = Some(Vec::new());

        // A view change: the primary proposes nothing for a view timeout.
        for r in 1..4 {
            c.step(r, Input::ClientDemand(0));
        }
        c.advance(VIEW_TIMEOUT);
        assert!(c.nodes.iter().all(|n| n.views == [(0, ViewNum(1))]));

        // A fetch catch-up: replica 3 misses 1 and 2, then hears of 3.
        c.isolated.insert(3);
        c.commit_batch(1, 0, 0);
        c.commit_batch(1, 0, 2);
        c.isolated.remove(&3);
        c.commit_batch(1, 0, 4);
        for _ in 0..20 {
            c.advance(FETCH_POLL_EVERY);
        }
        assert_eq!(c.nodes[3].executed.len(), 3);
        assert_eq!(c.nodes[3].executed, c.nodes[0].executed);

        // A snapshot install: it misses two checkpoints the others prune.
        c.isolated.insert(3);
        for b in 3..16 {
            c.commit_batch(1, 0, b * 2);
        }
        c.isolated.remove(&3);
        c.commit_batch(1, 0, 32);
        for _ in 0..50 {
            c.advance(FETCH_POLL_EVERY);
        }
        assert_eq!(c.nodes[3].installed(), vec![SeqNum(16)]);
        assert_eq!(c.nodes[3].executed.last(), c.nodes[0].executed.last());

        let recorded = c.nodes[3].recorded.take().expect("recorded");
        let provider = c.registry.provider_for_replica(ReplicaId(3));
        let core = ReplicaCore::new(&cfg, ReplicaId(3), provider, None, start);
        let mut fresh = Node::new(core).with_batching(&cfg, start);
        for (i, (input, now, appended)) in recorded.into_iter().enumerate() {
            let mut fx = Vec::new();
            fresh.step(input, now, &mut fx);
            assert_eq!(format!("{fx:?}"), appended, "step {i}");
        }
    }

    #[test]
    fn entering_a_view_resets_the_suspicion_backoff() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        // Two fruitless strikes at replica 1 while it is cut off …
        c.isolated.extend([0, 1]);
        c.step(1, Input::ClientDemand(0));
        c.advance(VIEW_TIMEOUT);
        c.advance(VIEW_TIMEOUT * 2);
        assert_eq!(view_changes(&c.nodes[1]), 2);
        // … then the link heals (the primary stays dead) and everyone has
        // demand: the next round of votes reaches a quorum.
        c.isolated.remove(&1);
        for r in 1..4 {
            c.step(r, Input::ClientDemand(0));
        }
        c.advance(VIEW_TIMEOUT * 4);
        for r in 1..4 {
            assert_eq!(
                c.nodes[r].views.last(),
                Some(&(0, ViewNum(1))),
                "replica {r}"
            );
        }
        // Strikes cleared: fresh demand fires after one base timeout.
        let before = view_changes(&c.nodes[2]);
        c.isolated.extend([1, 2, 3]);
        c.step(2, Input::ClientDemand(0));
        c.advance(VIEW_TIMEOUT - MS);
        assert_eq!(view_changes(&c.nodes[2]), before);
        c.advance(MS);
        assert_eq!(view_changes(&c.nodes[2]), before + 1);
    }

    #[test]
    fn the_quiescence_probe_fires_after_two_idle_backoffs_and_not_before() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        c.isolated.extend([0, 1, 2, 3]);
        // The fetch driver looks every `FETCH_POLL_EVERY`, so that is the
        // probe's granularity.
        let backoff = c.nodes[3].core().fetch_backoff;
        c.advance(backoff * 2 - FETCH_POLL_EVERY);
        assert!(
            fetch_requests(&c.nodes[3]).is_empty(),
            "not idle long enough"
        );
        c.advance(FETCH_POLL_EVERY);
        let probes = fetch_requests(&c.nodes[3]);
        assert_eq!(probes.len(), 1);
        let (targets, seqs) = &probes[0];
        assert_eq!(targets.len(), 1, "PBFT asks one peer");
        let want: Vec<SeqNum> = (1..=FETCH_BATCH as u64).map(SeqNum).collect();
        assert_eq!(*seqs, want, "the next window above last-executed");
        // The probe is in flight for one back-off, then idle time counts
        // again from when it was sent.
        c.advance(backoff * 2 - FETCH_POLL_EVERY);
        assert_eq!(fetch_requests(&c.nodes[3]).len(), 1);
        c.advance(FETCH_POLL_EVERY);
        let probes = fetch_requests(&c.nodes[3]);
        assert_eq!(probes.len(), 2);
        assert_ne!(
            probes[0].0, probes[1].0,
            "the retry rotates to another peer"
        );
    }

    #[test]
    fn a_hole_found_after_an_unanswered_probe_is_requested_at_the_next_poll() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        // Replica 3 sits idle and cut off until it probes; nobody answers.
        c.isolated.insert(3);
        let backoff = c.nodes[3].core().fetch_backoff;
        c.advance(backoff * 2);
        assert_eq!(fetch_requests(&c.nodes[3]).len(), 1, "the probe");
        // Meanwhile the others commit three batches; replica 3 hears only
        // the fourth's commit: holes at sequences 1 to 3, inside the
        // window the probe asked for.
        for b in 0..3 {
            c.commit_batch(0, 0, b * 2);
        }
        c.isolated.remove(&3);
        c.commit_batch(0, 0, 6);
        assert!(c.nodes[3].executed.is_empty(), "hole at sequence 1");
        c.isolated.insert(3);
        c.advance(FETCH_POLL_EVERY);
        let asked = fetch_requests(&c.nodes[3]);
        assert_eq!(asked.len(), 2, "the holes at the next poll: {asked:?}");
        let holes: Vec<SeqNum> = (1..=3).map(SeqNum).collect();
        assert_eq!(asked[1].1, holes);
    }

    #[test]
    fn fetch_caps_in_flight_requests_retries_rotated_peers_and_catches_up() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        // Replica 3 misses 70 batches, then hears the 71st commit: 70 holes.
        c.isolated.insert(3);
        for b in 0..70 {
            c.commit_batch(0, 0, b * 2);
        }
        c.isolated.remove(&3);
        c.commit_batch(0, 0, 140);
        assert!(c.nodes[3].executed.is_empty(), "hole at sequence 1");
        assert!(
            fetch_requests(&c.nodes[3]).is_empty(),
            "fetch polls on a timer"
        );

        // Cut it off again so requests go unanswered.
        c.isolated.insert(3);
        c.advance(FETCH_POLL_EVERY);
        c.advance(FETCH_POLL_EVERY);
        c.advance(FETCH_POLL_EVERY);
        let asked = fetch_requests(&c.nodes[3]);
        assert_eq!(asked.len(), 2, "two windows fill the in-flight cap");
        let in_flight: usize = asked.iter().map(|(_, seqs)| seqs.len()).sum();
        assert_eq!(in_flight, MAX_INFLIGHT);
        assert_eq!(asked[0].1[0], SeqNum(1), "oldest hole first");
        assert_ne!(asked[0].0, asked[1].0, "consecutive requests rotate peers");

        // Nothing more until the back-off expires; then the same holes are
        // re-requested, from the next peers in the rotation.
        let backoff = c.nodes[3].core().fetch_backoff;
        c.advance(backoff - FETCH_POLL_EVERY * 3);
        assert_eq!(fetch_requests(&c.nodes[3]).len(), 2, "still backing off");
        c.advance(FETCH_POLL_EVERY);
        let asked = fetch_requests(&c.nodes[3]);
        assert_eq!(asked.len(), 3, "first window expired and is retried");
        assert_eq!(asked[2].1, asked[0].1);
        assert_ne!(asked[2].0, asked[0].0);

        // Healed, the certified responses fill every hole and execution
        // converges on the survivors' state.
        c.isolated.remove(&3);
        for _ in 0..20 {
            c.advance(backoff);
        }
        assert_eq!(c.nodes[3].executed.len(), 71);
        assert_eq!(c.nodes[3].executed, c.nodes[0].executed);
    }

    #[test]
    fn a_forged_digest_fetch_response_is_dropped_but_f_plus_1_honest_ones_install() {
        let mut c = Cluster::new(&config(ProtocolKind::Zyzzyva, 1));
        let batch = Arc::new(Batch::new(vec![Transaction::new(
            ClientId(0),
            0,
            vec![Operation::Write {
                key: 1,
                value: vec![7; 8],
            }],
        )]));
        let honest = digest(&batch.canonical_bytes());
        let response = |from: u32, claimed: Digest| {
            let msg = Message::FetchResponse {
                seq: SeqNum(1),
                view: ViewNum(0),
                digest: claimed,
                batch: Arc::clone(&batch),
                certificate: Default::default(),
                replica: ReplicaId(from),
            };
            let sender = Sender::Replica(ReplicaId(from));
            Input::Verified(SignedMessage::new(msg, sender, Default::default()))
        };
        // The claimed digest does not bind the batch: not even f+1 such
        // responses count as votes.
        for from in [0, 1, 2] {
            c.step(3, response(from, Digest([9; 32])));
        }
        assert!(c.nodes[3].executed.is_empty());
        // One honest response is only one voucher (f = 1) …
        c.step(3, response(0, honest));
        assert!(c.nodes[3].executed.is_empty());
        // … a repeat from the same peer is still one …
        c.step(3, response(0, honest));
        assert!(c.nodes[3].executed.is_empty());
        // … a second distinct peer makes f+1.
        c.step(3, response(1, honest));
        assert_eq!(c.nodes[3].executed.len(), 1);
    }

    /// The PBFT twin: f+1 matching responses vouch, but the batch goes
    /// into a chain whose append demands 2f+1 signers, so the response
    /// that installs must carry that many — here a third one does.
    #[test]
    fn under_pbft_f_plus_1_vouchers_with_a_short_certificate_wait_for_a_full_one() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        let batch = Arc::new(Batch::new(vec![Transaction::new(
            ClientId(0),
            0,
            vec![Operation::Write {
                key: 1,
                value: vec![7; 8],
            }],
        )]));
        let honest = digest(&batch.canonical_bytes());
        let signer = |r: u32| (ReplicaId(r), SignatureBytes(vec![r as u8; 8]));
        let response = |from: u32, signers: Vec<(ReplicaId, SignatureBytes)>| {
            let msg = Message::FetchResponse {
                seq: SeqNum(1),
                view: ViewNum(0),
                digest: honest,
                batch: Arc::clone(&batch),
                certificate: BlockCertificate::new(signers),
                replica: ReplicaId(from),
            };
            let sender = Sender::Replica(ReplicaId(from));
            Input::Verified(SignedMessage::new(msg, sender, Default::default()))
        };
        // What a responder that itself installed by fetch used to serve:
        // one peer's signature and its own placeholder.
        let short = |from: u32| vec![signer(1), (ReplicaId(from), SignatureBytes::empty())];
        c.step(3, response(1, short(1)));
        c.step(3, response(2, short(2)));
        assert!(
            c.nodes[3].executed.is_empty(),
            "f+1 vouchers, but no certificate a chain would take"
        );
        // A duplicated signer does not make a short certificate whole.
        c.step(3, response(2, vec![signer(1), signer(1), signer(2)]));
        assert!(c.nodes[3].executed.is_empty());
        // A further matching response with 2f+1 signers installs.
        c.step(3, response(0, vec![signer(0), signer(1), signer(2)]));
        assert_eq!(c.nodes[3].executed.len(), 1);
        assert_eq!(c.nodes[3].executed[0].0, SeqNum(1));
    }

    fn snapshot_at(base: u64) -> Arc<Snapshot> {
        let records = vec![(1, vec![7; 8]), (2, vec![5; 4])];
        let store = MemStore::new();
        for (k, v) in &records {
            store.put(*k, v);
        }
        Arc::new(Snapshot {
            base_seq: SeqNum(base),
            block: Block {
                seq: SeqNum(base),
                digest: Digest([1; 32]),
                view: ViewNum(0),
                link: BlockLink::Hash(Digest([2; 32])),
                txn_count: 3,
                result_digest: store.state_digest(),
            },
            history: Digest::ZERO,
            records,
        })
    }

    /// A back end with a snapshot mark at `base` that counts how often the
    /// snapshot behind it — a copy of the whole store — is asked for.
    struct MarkedBackend {
        base: Option<u64>,
        built: Cell<u64>,
    }

    impl ExecBackend for MarkedBackend {
        fn rollback_to(&self, _: SeqNum) {}
        fn install_snapshot(&self, _: &Arc<Snapshot>) {}
        fn note_stable(&self, _: SeqNum) {}
        fn snapshot_base(&self) -> Option<SeqNum> {
            self.base.map(SeqNum)
        }
        fn latest_snapshot(&self) -> Option<Arc<Snapshot>> {
            self.built.set(self.built.get() + 1);
            self.base.map(snapshot_at)
        }
    }

    #[test]
    fn a_fetch_request_builds_the_snapshot_once_and_only_to_send_it() {
        let cfg = config(ProtocolKind::Pbft, 1);
        let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, cfg.n, 4, 7);
        // Everything asked for is pruned; returns (snapshots sent,
        // snapshots built, served, dropped) once the stage has answered.
        let serve = |base: Option<u64>, seqs: &[u64]| {
            let backend = MarkedBackend {
                base,
                built: Cell::new(0),
            };
            let provider = registry.provider_for_replica(ReplicaId(0));
            let mut core = ReplicaCore::new(&cfg, ReplicaId(0), provider, None, Instant::now());
            core.stable_checkpoint = SeqNum(10);
            let seqs: Vec<SeqNum> = seqs.iter().copied().map(SeqNum).collect();
            let (mut fx, mut stage) = (Vec::new(), ExecStage::new(SeqNum(11)));
            core.serve_fetch_request(ReplicaId(3), &seqs, &mut fx);
            let answered = fx.into_iter().flat_map(|e| match e.for_stage() {
                true => stage.apply(e, &backend),
                false => vec![e],
            });
            let (mut sent, mut served, mut dropped) = (0, 0, 0);
            for effect in answered {
                match effect {
                    Effect::Send(o) if o.msg.kind() == MessageKind::SnapshotResponse => sent += 1,
                    Effect::FetchServed {
                        served: s,
                        dropped: d,
                    } => (served, dropped) = (served + s, dropped + d),
                    other => panic!("nothing else: {other:?}"),
                }
            }
            (sent, backend.built.get(), served, dropped)
        };
        // The mark at 4 covers 2 and 3 (sent once), not 6 and 7.
        assert_eq!(serve(Some(4), &[2, 3, 6, 7]), (1, 1, 1, 0));
        // It covers nothing asked for: nothing is built to be thrown away.
        assert_eq!(serve(Some(4), &[6, 7]), (0, 0, 0, 0));
        assert_eq!(serve(None, &[2, 3]), (0, 0, 0, 2));
    }

    #[test]
    fn f_plus_1_matching_snapshot_responses_install_and_f_do_not() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        let response = |from: u32, claimed_by: u32, snapshot: &Arc<Snapshot>| {
            let msg = Message::SnapshotResponse {
                snapshot: Arc::clone(snapshot),
                replica: ReplicaId(claimed_by),
            };
            let sender = Sender::Replica(ReplicaId(from));
            Input::Verified(SignedMessage::new(msg, sender, Default::default()))
        };
        let snapshot = snapshot_at(8);
        c.step(3, response(0, 0, &snapshot));
        assert!(
            c.nodes[3].installed().is_empty(),
            "f vouchers are not enough"
        );
        c.step(3, response(0, 0, &snapshot));
        c.step(3, response(1, 2, &snapshot));
        assert!(
            c.nodes[3].installed().is_empty(),
            "a repeat voucher and a response relayed under another name do not count"
        );
        let mut tampered = (*snapshot).clone();
        tampered.records[0].1[0] ^= 1;
        c.step(3, response(1, 1, &Arc::new(tampered)));
        assert!(
            c.nodes[3].installed().is_empty(),
            "payload must match its commitment"
        );

        let epoch = c.nodes[3].core().epoch;
        c.step(3, response(1, 1, &snapshot));
        assert_eq!(c.nodes[3].installed(), vec![SeqNum(8)]);
        assert_eq!(
            c.nodes[3].core().epoch,
            epoch + 1,
            "a new execution timeline"
        );
        assert_eq!(c.nodes[3].stage().next(), SeqNum(9));
        // Already covered: the same snapshot again is a no-op.
        c.step(3, response(2, 2, &snapshot));
        assert_eq!(c.nodes[3].installed().len(), 1);
    }

    #[test]
    fn unmatched_snapshot_responses_hold_one_vote_per_peer() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 1));
        let response = |from: u32, base: u64| {
            let msg = Message::SnapshotResponse {
                snapshot: snapshot_at(base),
                replica: ReplicaId(from),
            };
            let sender = Sender::Replica(ReplicaId(from));
            Input::Verified(SignedMessage::new(msg, sender, Default::default()))
        };
        // Under load every peer's mark has moved by the time it answers.
        for i in 0..50u64 {
            c.step(3, response((i % 3) as u32, 8 + 4 * i));
            c.advance(10 * MS);
            assert!(c.nodes[3].core().snap_votes.len() <= 3, "after {i}");
        }
        assert!(c.nodes[3].installed().is_empty(), "no two ever matched");
        let voters = |c: &Cluster| -> usize {
            let votes = c.nodes[3].core().snap_votes.values();
            votes.map(|(voters, _)| voters.len()).sum()
        };
        assert_eq!(voters(&c), 3);
        // A peer that moves on to a base another already vouched for
        // leaves its old entry (now empty, so dropped) and makes f+1.
        c.step(3, response(0, 1_000));
        assert_eq!((c.nodes[3].core().snap_votes.len(), voters(&c)), (3, 3));
        c.step(3, response(1, 1_000));
        assert_eq!(c.nodes[3].installed(), vec![SeqNum(1_000)]);
        assert!(c.nodes[3].core().snap_votes.is_empty());
    }

    #[test]
    fn k2_gap_fill_proposes_a_noop_once_the_frontier_passes_an_owned_slot() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 2));
        // Client 1 shards to instance 1, led by replica 1, which owns the
        // even sequences: its first batch commits at sequence 2.
        c.commit_batch(1, 1, 0);
        // Replica 0 leads instance 0 and had nothing to order — but the
        // schedule cannot pass its slot 1, so it fills it with a no-op.
        let noops: Vec<_> = c.nodes[0]
            .sent
            .iter()
            .filter_map(|o| match &o.msg {
                Message::PrePrepare { seq, batch, .. } => Some((*seq, batch.len())),
                _ => None,
            })
            .collect();
        assert_eq!(noops, vec![(SeqNum(1), 0)]);
        let executed = c.nodes[0].executed.clone();
        assert_eq!(
            executed.iter().map(|(s, _)| s.0).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(c.nodes.iter().all(|n| n.executed == executed));
        assert!(c.nodes.iter().all(|n| n.executor.executed_txns() == 2));
    }

    #[test]
    fn k2_a_proposal_on_an_instance_led_elsewhere_is_dropped() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 2));
        // Replica 0 leads instance 0 only.
        let batch = Batch::new(Vec::new());
        let digest = digest(&batch.canonical_bytes());
        c.step(
            0,
            Input::Propose {
                instance: 1,
                batch,
                digest,
            },
        );
        c.run();
        let idle = |n: &Replica| n.sent.is_empty() && n.executed.is_empty();
        assert!(c.nodes.iter().all(idle));
    }

    #[test]
    fn k2_view_change_traffic_tagged_past_k_is_dropped() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 2));
        let view_change = Message::ViewChange {
            new_view: ViewNum(1),
            last_stable: SeqNum(0),
            prepared: Vec::new(),
            tail: Vec::new(),
            replica: ReplicaId(2),
            instance: 2,
        };
        let new_view = Message::NewView {
            new_view: ViewNum(1),
            reissued: Vec::new(),
            instance: 9,
        };
        let from = Sender::Replica(ReplicaId(2));
        for msg in [view_change, new_view] {
            c.step(
                0,
                Input::Verified(SignedMessage::new(msg, from, Default::default())),
            );
        }
        c.run();
        assert!(c
            .nodes
            .iter()
            .all(|n| n.sent.is_empty() && n.views.is_empty()));
    }

    #[test]
    fn k2_a_view_change_on_instance_1_leaves_instance_0_alone() {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 2));
        // Replicas 0, 2 and 3 give up on instance 1's primary, replica 1;
        // its next one is replica (1 + 1) mod 4 = 2.
        for r in [0, 2, 3] {
            c.step(r, Input::ClientDemand(1));
        }
        c.advance(VIEW_TIMEOUT);
        for (r, n) in c.nodes.iter().enumerate() {
            let [zero, one] = &n.core().instances[..] else {
                unreachable!("two instances")
            };
            let view_and_primary = |i: &Instance| (i.engine.view(), i.engine.primary());
            assert_eq!(view_and_primary(zero), (ViewNum(0), ReplicaId(0)), "{r}");
            assert_eq!(view_and_primary(one), (ViewNum(1), ReplicaId(2)), "{r}");
            assert_eq!(n.views.last(), Some(&(1, ViewNum(1))), "{r}");
            assert!(n.views.iter().all(|(j, _)| *j == 1), "{r}: {:?}", n.views);
        }
    }

    #[test]
    fn k2_instances_stable_out_of_order_emit_strictly_increasing_stable_effects() {
        let cfg = config(ProtocolKind::Pbft, 2);
        let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, cfg.n, 4, 7);
        let provider = registry.provider_for_replica(ReplicaId(0));
        let now = Instant::now();
        let mut core = ReplicaCore::new(&cfg, ReplicaId(0), provider, None, now);
        // Instance 0 stabilizes 3 before instance 1 stabilizes 2; then
        // instance 1 stabilizes 4.
        let mut stable = Vec::new();
        for seq in [3, 2, 4].map(SeqNum) {
            for from in (1..4).map(ReplicaId) {
                let vote = Message::Checkpoint {
                    seq,
                    state_digest: Digest([9; 32]),
                    replica: from,
                };
                let vote = SignedMessage::new(vote, Sender::Replica(from), Default::default());
                let mut fx = Vec::new();
                core.step(Input::Verified(vote), now, &mut fx);
                stable.extend(fx.iter().filter_map(|e| match e {
                    Effect::Stable { seq } => Some(*seq),
                    _ => None,
                }));
            }
        }
        assert_eq!(stable, [3, 4].map(SeqNum));
    }

    /// A k = 2 cluster where replica 3 missed sequences 1 to 4, then
    /// committed 5 and 6: each instance has two holes.
    fn k2_with_holes_at_replica_3() -> Cluster {
        let mut c = Cluster::new(&config(ProtocolKind::Pbft, 2));
        // Client 1's batches go to instance 1 (even sequences); replica 0
        // fills instance 0's slot below each with a no-op.
        c.isolated.insert(3);
        c.commit_batch(1, 1, 0);
        c.commit_batch(1, 1, 2);
        c.isolated.remove(&3);
        c.commit_batch(1, 1, 4);
        assert!(c.nodes[3].executed.is_empty());
        c
    }

    #[test]
    fn k2_holes_are_fetched_oldest_first_and_served_by_the_owning_engine() {
        let mut c = k2_with_holes_at_replica_3();
        let holes = [1, 2, 3, 4].map(SeqNum);
        assert_eq!(c.nodes[3].core().fetch_wanted(8), holes);
        c.advance(FETCH_POLL_EVERY);
        let asked = fetch_requests(&c.nodes[3]);
        assert_eq!(asked.len(), 1);
        assert_eq!(asked[0].1, holes);
        let served: Vec<SeqNum> = c
            .nodes
            .iter()
            .flat_map(|n| &n.sent)
            .filter_map(|o| match &o.msg {
                Message::FetchResponse { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(served, holes, "every hole served, either instance's");
        assert_eq!(c.nodes[3].executed.len(), 6);
        assert_eq!(c.nodes[3].executed, c.nodes[0].executed);
    }

    #[test]
    fn k2_one_snapshot_install_covers_both_instances() {
        let mut c = k2_with_holes_at_replica_3();
        let wanted = |c: &Cluster, j: usize| c.nodes[3].core().instances[j].engine.fetch_wanted(8);
        assert_eq!(wanted(&c, 0), [1, 3].map(SeqNum));
        assert_eq!(wanted(&c, 1), [2, 4].map(SeqNum));
        let snapshot = snapshot_at(8);
        for from in (0..2).map(ReplicaId) {
            let msg = Message::SnapshotResponse {
                snapshot: Arc::clone(&snapshot),
                replica: from,
            };
            let response = SignedMessage::new(msg, Sender::Replica(from), Default::default());
            c.step(3, Input::Verified(response));
        }
        assert_eq!(c.nodes[3].installed(), vec![SeqNum(8)]);
        assert!(wanted(&c, 0).is_empty() && wanted(&c, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "requires PBFT")]
    fn zyzzyva_at_k2_is_refused_where_the_engines_are_built() {
        let _ = Cluster::new(&config(ProtocolKind::Zyzzyva, 2));
    }
}
