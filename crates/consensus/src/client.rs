//! The client side of both protocols, as one sans-io state machine.
//!
//! [`ClientCore`] decides where to send, when a request is complete, when
//! to fall back and when to retransmit, at a caller-supplied `now`; it
//! never reads a clock, signs, verifies or sends. The runtime's
//! `ClientSession` steps it at the wall clock, the figure simulator one
//! core per simulated client at virtual time.
//!
//! PBFT clients wait for `f+1` matching replies. Zyzzyva clients complete
//! on `3f+1` matching speculative responses (fast), or — after
//! [`ZYZZYVA_CLIENT_TIMEOUT`] with `2f+1` matching — distribute a commit
//! certificate and wait for `2f+1` `LocalCommit`s. That slow path is what
//! makes Zyzzyva collapse under a single backup failure (Figure 17).

use rdb_common::block::BlockCertificate;
use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{
    quorum, ClientId, Digest, Operation, ProtocolKind, ReplicaId, SeqNum, SignatureBytes,
    Transaction, ViewNum,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the one Zyzzyva client, [`ClientCore`] — whether the runtime
/// or the figure simulator steps it — waits without completing anything
/// before distributing commit certificates for the requests with `2f+1`
/// matching responses, and re-distributing them until acknowledged.
pub const ZYZZYVA_CLIENT_TIMEOUT: Duration = Duration::from_millis(300);

/// Quiet period after which a client rebroadcasts its in-flight requests
/// to *every* replica: it reaches whoever is primary now and is the
/// backups' client-demand signal for view-change suspicion. Replicas
/// deduplicate re-ordered transactions, so retransmission is safe.
pub const RETRANSMIT_AFTER: Duration = Duration::from_millis(500);

/// What the driver hands a [`ClientCore`].
#[derive(Debug)]
pub enum ClientInput {
    /// Send a burst of this client's transactions as one request
    /// (Section 4.2's client-side batching).
    Submit(Vec<Transaction>),
    /// A replica's envelope whose MAC or signature the driver verified.
    Reply(SignedMessage),
    /// Time passed: fire whichever timer is due.
    Tick,
}

/// One thing the driver must do on the core's behalf.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEffect {
    /// Sign `msg` (a request or a commit certificate) once and send it to
    /// every replica in `to`: the primary, or all of them.
    Send { to: Vec<ReplicaId>, msg: Message },
    /// Request `counter` completed with the execution result `result`,
    /// handed over from the tally that completed it.
    Complete { counter: u64, result: ResultBytes },
}

/// Longest result a [`ResultBytes`] holds without a heap object: as many
/// bytes as keep it the size of a `Vec`.
const INLINE_RESULT: usize = 22;

/// One execution result as the client tallies and completes it: inline
/// when it is at most [`INLINE_RESULT`] bytes — every result this
/// system's replicas produce is at most 8 — and boxed only when longer.
/// Dereferences to its bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct ResultBytes(Repr);

/// Inline bytes past the length stay zero, so equal results compare equal.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline(u8, [u8; INLINE_RESULT]),
    Boxed(Box<[u8]>),
}

impl Default for ResultBytes {
    fn default() -> Self {
        ResultBytes(Repr::Inline(0, [0; INLINE_RESULT]))
    }
}

impl From<&[u8]> for ResultBytes {
    fn from(result: &[u8]) -> Self {
        let mut inline = [0; INLINE_RESULT];
        match inline.get_mut(..result.len()) {
            Some(head) => {
                head.copy_from_slice(result);
                ResultBytes(Repr::Inline(result.len() as u8, inline))
            }
            None => ResultBytes(Repr::Boxed(result.into())),
        }
    }
}

impl std::ops::Deref for ResultBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(len, bytes) => &bytes[..*len as usize],
            Repr::Boxed(bytes) => bytes,
        }
    }
}

impl std::fmt::Debug for ResultBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// The replica whose vote `sm` is: its authenticated sender, provided the
/// body's self-declared `replica` field agrees with it. Signature checks
/// authenticate `sm.sender()`; the field is merely signed-over content, so
/// counting it would let one faulty replica cast a whole quorum.
fn voter(sm: &SignedMessage, declared: ReplicaId) -> Option<ReplicaId> {
    (sm.sender() == Sender::Replica(declared)).then_some(declared)
}

/// Responses that count toward the same quorum: sequence, digests and
/// result agree (a PBFT reply carries only the result). The view is not
/// matched — a re-issued sequence executes in different views at
/// different replicas — so the group keeps the highest one for its
/// commit certificate.
#[derive(Debug)]
struct Group {
    seq: SeqNum,
    digest: Digest,
    history: Digest,
    result: ResultBytes,
    view: ViewNum,
    voters: Voters,
    /// Each voter's envelope signature, in vote order — Zyzzyva only: a
    /// commit certificate forwards them. One copy per envelope, shared by
    /// every group it voted in. Empty, so unallocated, under PBFT.
    sigs: Vec<(ReplicaId, Arc<SignatureBytes>)>,
}

/// The replicas that voted for a group, one bit each: the first 64
/// inline, any above in `high`, which a deployment of at most 64 replicas
/// never allocates.
#[derive(Debug, Default)]
struct Voters {
    low: u64,
    high: Vec<u64>,
}

impl Voters {
    /// Adds `replica`; `false` if it had voted already.
    fn insert(&mut self, replica: ReplicaId) -> bool {
        let r = replica.0 as usize;
        let (word, bit) = match r.checked_sub(64) {
            None => (&mut self.low, r),
            Some(above) => {
                if above / 64 >= self.high.len() {
                    self.high.resize(above / 64 + 1, 0);
                }
                (&mut self.high[above / 64], above % 64)
            }
        };
        let fresh = *word & (1 << bit) == 0;
        *word |= 1 << bit;
        fresh
    }

    fn len(&self) -> usize {
        let high: u32 = self.high.iter().map(|w| w.count_ones()).sum();
        (self.low.count_ones() + high) as usize
    }
}

/// A request's response groups: nearly always one — the replicas agree —
/// held inline; the others, allocated only on disagreement, in `more`.
#[derive(Debug, Default)]
struct Groups {
    first: Option<Group>,
    more: Vec<Group>,
}

impl Groups {
    fn iter(&self) -> impl Iterator<Item = &Group> {
        self.first.iter().chain(&self.more)
    }

    /// The group `matches` picks, started by `start` if there is none.
    fn find_or_start(
        &mut self,
        matches: impl Fn(&Group) -> bool,
        start: impl FnOnce() -> Group,
    ) -> &mut Group {
        if !self.iter().any(&matches) {
            match self.first {
                None => self.first = Some(start()),
                Some(_) => self.more.push(start()),
            }
        }
        let mut groups = self.first.iter_mut().chain(&mut self.more);
        groups.find(|g| matches(g)).expect("started above")
    }
}

/// A commit certificate this client distributed: the sequence it names,
/// the result it vouches for and the replicas that acknowledged it.
#[derive(Debug)]
struct Certified {
    seq: SeqNum,
    result: ResultBytes,
    acks: Vec<ReplicaId>,
}

/// Everything the client knows about one request still in flight.
#[derive(Debug)]
struct Request {
    /// Kept for retransmission.
    txn: Transaction,
    groups: Groups,
    cert: Option<Certified>,
    /// Completed by the envelope being tallied; removed once it is.
    done: bool,
}

/// One client's protocol state: its requests in flight, the replicas'
/// views and its two timers. Under PBFT what a completed transaction
/// allocates in the core is only the copy kept for retransmission: each
/// request's response group, with its result and its voters, lives
/// inline in the request's record.
#[derive(Debug)]
pub struct ClientCore {
    id: ClientId,
    protocol: ProtocolKind,
    f: usize,
    n: usize,
    /// The consensus instance this client shards to (`id % k`), so a
    /// retransmission can never land in a second instance and
    /// double-order.
    instance: u64,
    /// The highest view `f+1` replicas have reached: requests go to its
    /// primary.
    view: ViewNum,
    /// The latest view each replica stamped on a reply.
    views: Vec<ViewNum>,
    next_counter: u64,
    /// In counter order.
    requests: Vec<Request>,
    /// Last completion (or the submission that ended an idle spell):
    /// Zyzzyva's fast-path timer runs from here.
    last_progress: Instant,
    /// Last submission or retransmission.
    last_send: Instant,
}

impl ClientCore {
    /// A client of a deployment of `n` replicas tolerating `f` faults,
    /// ordering on `instances` parallel instances, at time `now`.
    pub fn new(
        id: ClientId,
        protocol: ProtocolKind,
        f: usize,
        instances: usize,
        n: usize,
        now: Instant,
    ) -> Self {
        let instance = id.0 % instances.max(1) as u64;
        ClientCore {
            id,
            protocol,
            f,
            n,
            instance,
            view: ViewNum(0),
            views: vec![ViewNum(0); n],
            next_counter: 0,
            requests: Vec::new(),
            last_progress: now,
            last_send: now,
        }
    }

    /// This client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Transactions built so far.
    pub fn submitted(&self) -> u64 {
        self.next_counter
    }

    /// Builds this client's next transaction.
    pub fn txn(&mut self, ops: Vec<Operation>) -> Transaction {
        self.next_counter += 1;
        Transaction::new(self.id, self.next_counter - 1, ops)
    }

    /// Number of requests still awaiting completion.
    pub fn pending(&self) -> usize {
        self.requests.len()
    }

    /// The earliest time a [`ClientInput::Tick`] would act, if any
    /// request is in flight.
    pub fn next_due(&self) -> Option<Instant> {
        if self.requests.is_empty() {
            return None;
        }
        let retransmit = self.last_send + RETRANSMIT_AFTER;
        Some(match self.protocol {
            ProtocolKind::Pbft => retransmit,
            ProtocolKind::Zyzzyva => retransmit.min(self.last_progress + ZYZZYVA_CLIENT_TIMEOUT),
        })
    }

    /// Reacts to `input` at time `now`; everything the driver must do is
    /// appended to `fx`.
    pub fn step(&mut self, input: ClientInput, now: Instant, fx: &mut Vec<ClientEffect>) {
        match input {
            ClientInput::Submit(txns) => self.submit(txns, now, fx),
            ClientInput::Tick => self.on_tick(now, fx),
            ClientInput::Reply(sm) => {
                let before = fx.len();
                self.on_reply(&sm, fx);
                // A reply's only effects are completions: progress.
                if fx.len() > before {
                    self.last_progress = now;
                }
            }
        }
    }

    fn submit(&mut self, txns: Vec<Transaction>, now: Instant, fx: &mut Vec<ClientEffect>) {
        if self.requests.is_empty() {
            self.last_progress = now;
        }
        self.last_send = now;
        for t in &txns {
            debug_assert_eq!(t.id.client, self.id, "foreign transaction");
            let request = Request {
                txn: t.clone(),
                groups: Groups::default(),
                cert: None,
                done: false,
            };
            match self.find(t.id.counter) {
                Ok(at) => self.requests[at] = request,
                Err(at) => self.requests.insert(at, request),
            }
        }
        fx.push(ClientEffect::Send {
            to: vec![primary_of(self.view, self.instance, self.n)],
            msg: Message::ClientRequest { txns },
        });
    }

    /// One envelope: one sender check, then each `(counter, result)` of a
    /// reply counts as that replica's vote for its counter, completing
    /// every request that reaches its quorum of matching votes. Nothing
    /// is allocated per result (under PBFT): a vote is a bit, a group's
    /// result is inline, and the completed requests leave in one pass
    /// once the whole envelope is tallied.
    fn on_reply(&mut self, sm: &SignedMessage, fx: &mut Vec<ClientEffect>) {
        let zero = (SeqNum(0), Digest::ZERO, Digest::ZERO);
        let (view, client, declared, (seq, digest, history), results) =
            match (self.protocol, sm.msg()) {
                (
                    ProtocolKind::Pbft,
                    Message::ClientReply {
                        view,
                        client,
                        replica,
                        results,
                    },
                ) => (*view, *client, *replica, zero, results),
                (
                    ProtocolKind::Zyzzyva,
                    Message::SpecResponse {
                        view,
                        seq,
                        digest,
                        history,
                        client,
                        replica,
                        results,
                    },
                ) => (*view, *client, *replica, (*seq, *digest, *history), results),
                (ProtocolKind::Zyzzyva, Message::LocalCommit { seq, replica, .. }) => {
                    if let Some(replica) = voter(sm, *replica) {
                        self.on_local_commit(replica, *seq, fx);
                    }
                    return;
                }
                _ => return,
            };
        let (true, Some(replica)) = (client == self.id, voter(sm, declared)) else {
            return;
        };
        if replica.0 as usize >= self.n {
            return; // not a replica of this deployment
        }
        self.note_view(replica, view);
        let (needed, sig) = match self.protocol {
            ProtocolKind::Pbft => (quorum::client_reply_quorum(self.f), None),
            ProtocolKind::Zyzzyva => (
                quorum::zyzzyva_fast_quorum(self.f),
                Some(Arc::new(sm.sig().clone())),
            ),
        };
        let mut completed = false;
        for (counter, result) in results.iter() {
            let Ok(at) = self.find(counter) else {
                continue; // not ours / already complete
            };
            let request = &mut self.requests[at];
            if request.done {
                continue; // completed earlier in this envelope
            }
            let group = request.groups.find_or_start(
                |g| (g.seq, g.digest, g.history) == (seq, digest, history) && *g.result == *result,
                || Group {
                    seq,
                    digest,
                    history,
                    result: result.into(),
                    view,
                    voters: Voters::default(),
                    sigs: Vec::with_capacity(if sig.is_some() { needed } else { 0 }),
                },
            );
            if !group.voters.insert(replica) {
                continue; // duplicate vote
            }
            group.view = group.view.max(view);
            if let Some(sig) = &sig {
                group.sigs.push((replica, Arc::clone(sig)));
            }
            if group.voters.len() >= needed {
                request.done = true;
                completed = true;
                let result = std::mem::take(&mut group.result);
                fx.push(ClientEffect::Complete { counter, result });
            }
        }
        if completed {
            self.requests.retain(|r| !r.done);
        }
    }

    fn find(&self, counter: u64) -> Result<usize, usize> {
        self.requests
            .binary_search_by_key(&counter, |r| r.txn.id.counter)
    }

    /// Clients learn the current view from replies (PBFT §4.1), but one
    /// replica's stamp proves nothing: re-aim at the primary of the
    /// highest view `f+1` distinct replicas have reached, which at least
    /// one correct replica has. A stamp at or below that view cannot
    /// raise it, so only a higher one is recorded.
    fn note_view(&mut self, replica: ReplicaId, view: ViewNum) {
        if view <= self.view {
            return;
        }
        let Some(seen) = self.views.get_mut(replica.0 as usize) else {
            return;
        };
        *seen = (*seen).max(view);
        let mut views = self.views.clone();
        views.sort_unstable_by(|a, b| b.cmp(a));
        self.view = views[self.f.min(self.n - 1)];
    }

    /// A `LocalCommit` acknowledges the certificates naming its sequence
    /// and no other; `2f+1` distinct acknowledgements complete a request.
    fn on_local_commit(&mut self, replica: ReplicaId, seq: SeqNum, fx: &mut Vec<ClientEffect>) {
        let needed = quorum::zyzzyva_cc_quorum(self.f);
        self.requests.retain_mut(|request| {
            let Some(cert) = request.cert.as_mut().filter(|c| c.seq == seq) else {
                return true;
            };
            if !cert.acks.contains(&replica) {
                cert.acks.push(replica);
            }
            if cert.acks.len() < needed {
                return true;
            }
            let result = std::mem::take(&mut cert.result);
            let counter = request.txn.id.counter;
            fx.push(ClientEffect::Complete { counter, result });
            false
        });
    }

    /// The two timers. Zyzzyva's fast path stalled: distribute a commit
    /// certificate for every request with `2f+1` matching responses, again
    /// on every fire until acknowledged (a lost certificate would wedge
    /// it). Nothing sent for longer: rebroadcast every request in flight.
    fn on_tick(&mut self, now: Instant, fx: &mut Vec<ClientEffect>) {
        if self.requests.is_empty() {
            return;
        }
        let everyone = || (0..self.n as u32).map(ReplicaId).collect();
        if self.protocol == ProtocolKind::Zyzzyva
            && now >= self.last_progress + ZYZZYVA_CLIENT_TIMEOUT
        {
            self.last_progress = now;
            let needed = quorum::zyzzyva_cc_quorum(self.f);
            for request in &mut self.requests {
                let Some(group) = request
                    .groups
                    .iter()
                    .filter(|g| g.sigs.len() >= needed)
                    .max_by_key(|g| g.sigs.len())
                else {
                    continue; // not enough agreement: retransmission helps
                };
                if request.cert.as_ref().is_none_or(|c| c.seq != group.seq) {
                    request.cert = Some(Certified {
                        seq: group.seq,
                        result: group.result.clone(),
                        acks: Vec::new(),
                    });
                }
                let msg = Message::CommitCert {
                    view: group.view,
                    seq: group.seq,
                    digest: group.digest,
                    cert: BlockCertificate::new(
                        group.sigs[..needed]
                            .iter()
                            .map(|(r, sig)| (*r, SignatureBytes::clone(sig)))
                            .collect(),
                    ),
                    client: self.id,
                };
                fx.push(ClientEffect::Send {
                    to: everyone(),
                    msg,
                });
            }
        }
        if now >= self.last_send + RETRANSMIT_AFTER {
            self.last_send = now;
            let txns = self.requests.iter().map(|r| r.txn.clone()).collect();
            let msg = Message::ClientRequest { txns };
            fx.push(ClientEffect::Send {
                to: everyone(),
                msg,
            });
        }
    }

    /// One diagnostic line per request in flight, by counter: its
    /// response groups, whether a commit certificate went out, and how
    /// many acknowledgements are in.
    pub fn debug_stuck(&self) -> Vec<String> {
        self.requests
            .iter()
            .map(|r| {
                let groups: Vec<String> = r
                    .groups
                    .iter()
                    .map(|g| format!("seq={} view={} n={}", g.seq.0, g.view.0, g.voters.len()))
                    .collect();
                format!(
                    "counter={} cc_sent={} acks={} groups=[{}]",
                    r.txn.id.counter,
                    r.cert.is_some(),
                    r.cert.as_ref().map_or(0, |c| c.acks.len()),
                    groups.join(", ")
                )
            })
            .collect()
    }
}

/// Instance `j` at view `v` is led by replica `(v + j) % n`, computed
/// without overflowing whatever view a reply claims.
fn primary_of(view: ViewNum, instance: u64, n: usize) -> ReplicaId {
    let n = n as u64;
    ReplicaId(((view.0 % n + instance % n) % n) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client of four replicas (f = 1) and the virtual clock it runs on.
    struct Client {
        core: ClientCore,
        now: Instant,
    }

    impl Client {
        fn new(protocol: ProtocolKind) -> Self {
            let now = Instant::now();
            let core = ClientCore::new(ClientId(7), protocol, 1, 1, 4, now);
            Client { core, now }
        }

        fn step(&mut self, input: ClientInput) -> Vec<ClientEffect> {
            let mut fx = Vec::new();
            self.core.step(input, self.now, &mut fx);
            fx
        }

        /// Submits the request with this counter.
        fn track(&mut self, counter: u64) {
            let txn = Transaction::new(ClientId(7), counter, Vec::new());
            self.step(ClientInput::Submit(vec![txn]));
        }

        fn pending(&self) -> usize {
            self.core.pending()
        }

        fn on_reply(&mut self, sm: &SignedMessage) -> Vec<ClientEffect> {
            self.step(ClientInput::Reply(sm.clone()))
        }

        fn on_spec_response(&mut self, sm: &SignedMessage) -> Vec<ClientEffect> {
            self.on_reply(sm)
        }

        fn on_local_commit(&mut self, sm: &SignedMessage) -> Vec<ClientEffect> {
            self.on_reply(sm)
        }

        /// One fast-path timeout later: the commit certificates the timer
        /// sends (a retransmission falling due with it is left out).
        fn on_timeout(&mut self) -> Vec<ClientEffect> {
            self.now += ZYZZYVA_CLIENT_TIMEOUT;
            certificates(self.step(ClientInput::Tick))
        }
    }

    fn certificates(fx: Vec<ClientEffect>) -> Vec<ClientEffect> {
        fx.into_iter()
            .filter(|e| {
                matches!(
                    e,
                    ClientEffect::Send {
                        msg: Message::CommitCert { .. },
                        ..
                    }
                )
            })
            .collect()
    }

    fn signed(replica: u32, msg: Message) -> SignedMessage {
        SignedMessage::new(
            msg,
            Sender::Replica(ReplicaId(replica)),
            SignatureBytes(vec![replica as u8; 4]),
        )
    }

    /// A reply envelope from `replica` answering `results` of `client`.
    fn replies(client: u64, replica: u32, results: &[(u64, &[u8])]) -> SignedMessage {
        viewed_replies(client, replica, 0, results)
    }

    fn viewed_replies(
        client: u64,
        replica: u32,
        view: u64,
        results: &[(u64, &[u8])],
    ) -> SignedMessage {
        let msg = Message::ClientReply {
            view: ViewNum(view),
            client: ClientId(client),
            replica: ReplicaId(replica),
            results: results.iter().copied().collect(),
        };
        signed(replica, msg)
    }

    fn reply(client: u64, counter: u64, replica: u32, result: &[u8]) -> SignedMessage {
        replies(client, replica, &[(counter, result)])
    }

    fn specs_at(seq: u64, client: u64, replica: u32, results: &[(u64, &[u8])]) -> SignedMessage {
        let msg = Message::SpecResponse {
            view: ViewNum(0),
            seq: SeqNum(seq),
            digest: Digest([seq as u8; 32]),
            history: Digest([2; 32]),
            client: ClientId(client),
            replica: ReplicaId(replica),
            results: results.iter().copied().collect(),
        };
        signed(replica, msg)
    }

    fn specs(client: u64, replica: u32, results: &[(u64, &[u8])]) -> SignedMessage {
        specs_at(1, client, replica, results)
    }

    fn spec(client: u64, counter: u64, replica: u32, result: &[u8]) -> SignedMessage {
        specs(client, replica, &[(counter, result)])
    }

    fn completed(acts: &[ClientEffect]) -> Vec<u64> {
        acts.iter()
            .map(|a| match a {
                ClientEffect::Complete { counter, .. } => *counter,
                other => panic!("expected Complete, got {other:?}"),
            })
            .collect()
    }

    fn local_commit_at(seq: u64, replica: u32) -> SignedMessage {
        let msg = Message::LocalCommit {
            view: ViewNum(0),
            seq: SeqNum(seq),
            replica: ReplicaId(replica),
        };
        signed(replica, msg)
    }

    fn local_commit(replica: u32) -> SignedMessage {
        local_commit_at(1, replica)
    }

    fn everyone() -> Vec<ReplicaId> {
        (0..4).map(ReplicaId).collect()
    }

    // ---- PBFT client (f = 1: needs 2 matching replies) ----

    #[test]
    fn pbft_client_completes_at_f_plus_1() {
        let mut c = Client::new(ProtocolKind::Pbft);
        c.track(0);
        assert!(c.on_reply(&reply(7, 0, 0, b"ok")).is_empty());
        let acts = c.on_reply(&reply(7, 0, 1, b"ok"));
        assert!(
            matches!(&acts[..], [ClientEffect::Complete { counter: 0, result }] if **result == *b"ok")
        );
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn pbft_client_requires_matching_results() {
        let mut c = Client::new(ProtocolKind::Pbft);
        c.track(0);
        assert!(c.on_reply(&reply(7, 0, 0, b"ok")).is_empty());
        assert!(c.on_reply(&reply(7, 0, 1, b"bad")).is_empty());
        // A second vote for "ok" completes.
        let acts = c.on_reply(&reply(7, 0, 2, b"ok"));
        assert_eq!(acts.len(), 1);
    }

    #[test]
    fn pbft_client_ignores_duplicates_and_foreign_replies() {
        let mut c = Client::new(ProtocolKind::Pbft);
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
        let mut c = Client::new(ProtocolKind::Pbft);
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
        let mut c = Client::new(ProtocolKind::Pbft);
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
        let mut c = Client::new(ProtocolKind::Zyzzyva);
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
        let mut c = Client::new(ProtocolKind::Zyzzyva);
        c.track(0);
        for r in 0..3 {
            assert!(
                c.on_spec_response(&spec(7, 0, r, b"ok")).is_empty(),
                "replica {r}"
            );
        }
        let acts = c.on_spec_response(&spec(7, 0, 3, b"ok"));
        assert!(
            matches!(&acts[..], [ClientEffect::Complete { counter: 0, .. }]),
            "3f+1 matching must complete: {acts:?}"
        );
    }

    #[test]
    fn zyzzyva_slow_path_via_commit_certificate() {
        let mut c = Client::new(ProtocolKind::Zyzzyva);
        c.track(0);
        // Only 3 of 4 replicas answer (one crashed) — fast path impossible.
        for r in 0..3 {
            c.on_spec_response(&spec(7, 0, r, b"ok"));
        }
        // Timeout: with 2f+1 = 3 matching the client distributes a CC.
        let acts = c.on_timeout();
        match &acts[..] {
            [ClientEffect::Send {
                msg: Message::CommitCert { cert, seq, .. },
                ..
            }] => {
                assert_eq!(cert.signer_count(), 3);
                assert_eq!(*seq, SeqNum(1));
            }
            other => panic!("expected CommitCert broadcast, got {other:?}"),
        }
        // 2f+1 LocalCommits complete the request.
        assert!(c.on_local_commit(&local_commit(0)).is_empty());
        assert!(c.on_local_commit(&local_commit(1)).is_empty());
        let acts = c.on_local_commit(&local_commit(2));
        assert!(
            matches!(&acts[..], [ClientEffect::Complete { counter: 0, result }] if **result == *b"ok")
        );
    }

    #[test]
    fn zyzzyva_timeout_without_cc_quorum_is_noop() {
        let mut c = Client::new(ProtocolKind::Zyzzyva);
        c.track(0);
        c.on_spec_response(&spec(7, 0, 0, b"ok"));
        c.on_spec_response(&spec(7, 0, 1, b"ok"));
        // Only 2 < 2f+1 matching: the client must retransmit instead.
        assert!(c.on_timeout().is_empty());
        assert_eq!(c.pending(), 1);
    }

    #[test]
    fn zyzzyva_divergent_histories_do_not_match() {
        let mut c = Client::new(ProtocolKind::Zyzzyva);
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
        let mut c = Client::new(ProtocolKind::Zyzzyva);
        c.track(0);
        for _ in 0..10 {
            assert!(c.on_spec_response(&spec(7, 0, 0, b"ok")).is_empty());
        }
    }

    #[test]
    fn zyzzyva_timeout_resends_cc_until_acked() {
        let mut c = Client::new(ProtocolKind::Zyzzyva);
        c.track(0);
        for r in 0..3 {
            c.on_spec_response(&spec(7, 0, r, b"ok"));
        }
        assert_eq!(c.on_timeout().len(), 1);
        // The first certificate (or its acks) may be lost: a later timeout
        // re-distributes it rather than wedging the request.
        assert_eq!(c.on_timeout().len(), 1, "re-fire must re-send the CC");
        // Partial acks survive the re-send; completion still needs 2f+1.
        assert!(c.on_local_commit(&local_commit(0)).is_empty());
        assert_eq!(c.on_timeout().len(), 1);
        assert!(c.on_local_commit(&local_commit(1)).is_empty());
        let acts = c.on_local_commit(&local_commit(2));
        assert!(matches!(&acts[..], [ClientEffect::Complete { .. }]));
    }

    #[test]
    fn zyzzyva_local_commits_before_cc_ignored() {
        let mut c = Client::new(ProtocolKind::Zyzzyva);
        c.track(0);
        assert!(c.on_local_commit(&local_commit(0)).is_empty());
    }

    #[test]
    fn a_local_commit_acknowledges_only_the_certificate_for_its_own_sequence() {
        let mut c = Client::new(ProtocolKind::Zyzzyva);
        c.track(0);
        c.track(1);
        for r in 0..3 {
            c.on_spec_response(&specs_at(1, 7, r, &[(0, b"ok")]));
            c.on_spec_response(&specs_at(2, 7, r, &[(1, b"ok")]));
        }
        assert_eq!(c.on_timeout().len(), 2, "one certificate per sequence");
        assert!(c.on_local_commit(&local_commit_at(1, 0)).is_empty());
        assert!(c.on_local_commit(&local_commit_at(1, 1)).is_empty());
        let acts = c.on_local_commit(&local_commit_at(1, 2));
        assert_eq!(completed(&acts), [0]);
        assert_eq!(c.pending(), 1, "nobody acknowledged sequence 2");
        for r in 0..3 {
            c.on_local_commit(&local_commit_at(2, r));
        }
        assert_eq!(c.pending(), 0);
    }

    // ---- the timers and the re-aim, at virtual time ----

    #[test]
    fn a_lost_reply_is_retransmitted_to_every_replica_and_then_completes() {
        let mut c = Client::new(ProtocolKind::Pbft);
        c.track(0);
        let sent = c.now;
        assert_eq!(c.core.next_due(), Some(sent + RETRANSMIT_AFTER));
        c.now = sent + RETRANSMIT_AFTER - Duration::from_millis(1);
        assert!(c.step(ClientInput::Tick).is_empty(), "not due yet");
        // Replica 0's reply was lost; the rest never saw the request.
        c.on_reply(&reply(7, 0, 0, b"ok"));
        c.now = sent + RETRANSMIT_AFTER;
        let txns = vec![Transaction::new(ClientId(7), 0, Vec::new())];
        assert_eq!(
            c.step(ClientInput::Tick),
            [ClientEffect::Send {
                to: everyone(),
                msg: Message::ClientRequest { txns },
            }]
        );
        assert_eq!(c.core.next_due(), Some(c.now + RETRANSMIT_AFTER));
        assert_eq!(completed(&c.on_reply(&reply(7, 0, 2, b"ok"))), [0]);
        assert_eq!(c.core.next_due(), None);
    }

    #[test]
    fn replies_from_f_plus_1_replicas_at_view_v_re_aim_submit_at_its_primary() {
        let mut c = Client::new(ProtocolKind::Pbft);
        let submit = |c: &mut Client| match &c.step(ClientInput::Submit(Vec::new()))[..] {
            [ClientEffect::Send { to, .. }] => to.clone(),
            other => panic!("expected one send, got {other:?}"),
        };
        assert_eq!(submit(&mut c), [ReplicaId(0)]);
        c.on_reply(&viewed_replies(7, 1, 2, &[]));
        assert_eq!(submit(&mut c), [ReplicaId(0)], "one replica is not f+1");
        c.on_reply(&viewed_replies(7, 3, 2, &[]));
        assert_eq!(submit(&mut c), [ReplicaId(2)], "view 2's primary");
    }

    #[test]
    fn one_replica_cannot_re_aim_a_client_or_overflow_its_arithmetic() {
        // k = 2: client 1 shards to instance 1, led by replica 1 at view 0.
        let now = Instant::now();
        let core = || ClientCore::new(ClientId(1), ProtocolKind::Pbft, 1, 2, 4, now);
        let submit = |core: &mut ClientCore, sm: SignedMessage| {
            let mut fx = Vec::new();
            core.step(ClientInput::Reply(sm), now, &mut fx);
            core.step(ClientInput::Submit(Vec::new()), now, &mut fx);
            match &fx[..] {
                [ClientEffect::Send { to, .. }] => to.clone(),
                other => panic!("expected one send, got {other:?}"),
            }
        };
        let max = viewed_replies(1, 3, u64::MAX, &[]);
        assert_eq!(submit(&mut core(), max), [ReplicaId(1)]);
        let mut c = core();
        let one = submit(&mut c, viewed_replies(1, 0, 1, &[]));
        assert_eq!(one, [ReplicaId(1)], "one replica is not f+1");
        let two = submit(&mut c, viewed_replies(1, 2, 1, &[]));
        assert_eq!(two, [ReplicaId(2)], "(view 1 + instance 1) % 4");
    }

    #[test]
    fn a_lost_commit_certificate_is_redistributed_on_the_next_due_tick() {
        let mut c = Client::new(ProtocolKind::Zyzzyva);
        c.track(0);
        for r in 0..3 {
            c.on_spec_response(&spec(7, 0, r, b"ok"));
        }
        c.now = c.core.next_due().expect("a request in flight");
        let first = certificates(c.step(ClientInput::Tick));
        assert_eq!(first.len(), 1, "{first:?}");
        // That certificate is lost: no acknowledgement comes back. The
        // next due ticks (a retransmission may fall due first) send it
        // again within one more timeout.
        let lost_at = c.now;
        let again = loop {
            c.now = c.core.next_due().expect("still in flight");
            assert!(c.now <= lost_at + ZYZZYVA_CLIENT_TIMEOUT);
            let sent = certificates(c.step(ClientInput::Tick));
            if !sent.is_empty() {
                break sent;
            }
        };
        assert_eq!(again, first);
        for r in 0..2 {
            assert!(c.on_local_commit(&local_commit(r)).is_empty());
        }
        assert_eq!(completed(&c.on_local_commit(&local_commit(3))), [0]);
    }
}
