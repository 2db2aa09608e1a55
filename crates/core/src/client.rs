//! Client sessions: submit transactions, await quorum-backed results.
//!
//! A [`ClientSession`] speaks whichever client protocol the deployment
//! runs: PBFT (f+1 matching replies) or Zyzzyva (3f+1 fast path with the
//! commit-certificate fallback driven automatically on timeout).

use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{ClientId, Operation, ProtocolKind, ReplicaId, Transaction, TxnId, ViewNum};
use rdb_consensus::{ClientAction, PbftClient, ZyzzyvaClient, ZYZZYVA_CLIENT_TIMEOUT};
use rdb_crypto::{CryptoProvider, KeyRegistry, PeerClass};
use rdb_net::{Endpoint, NetHandle};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::time::{Duration, Instant};

/// Quiet period after which a client rebroadcasts its in-flight requests
/// to *every* replica: the request or its replies may have been lost, or
/// the primary may have crashed — the rebroadcast both reaches whoever is
/// primary now and doubles as the backups' client-demand signal for
/// view-change suspicion. Replicas deduplicate re-ordered transactions,
/// so retransmission is safe.
const RETRANSMIT_AFTER: Duration = Duration::from_millis(500);

enum Tracker {
    Pbft(PbftClient),
    Zyzzyva(ZyzzyvaClient),
}

/// Every completed request's result, kept for the session's lifetime.
/// Counters are dense per session, so a result costs one index entry plus
/// its bytes in a shared arena — not a map slot and an allocation each.
#[derive(Default)]
struct Results {
    /// By counter: where the result starts in `bytes` and its length
    /// ([`Results::ABSENT`] = not completed yet).
    index: Vec<(usize, u32)>,
    bytes: Vec<u8>,
}

impl Results {
    const ABSENT: u32 = u32::MAX;

    /// Records the result of `counter`, one this session submitted (the
    /// trackers complete nothing else, and each counter once).
    fn insert(&mut self, counter: u64, result: &[u8]) {
        let at = counter as usize;
        if at >= self.index.len() {
            self.index.resize(at + 1, (0, Self::ABSENT));
        }
        let len = u32::try_from(result.len())
            .ok()
            .filter(|len| *len != Self::ABSENT)
            .expect("a result fits in a message frame");
        self.index[at] = (self.bytes.len(), len);
        self.bytes.extend_from_slice(result);
    }

    fn get(&self, counter: u64) -> Option<&[u8]> {
        let &(start, len) = self.index.get(usize::try_from(counter).ok()?)?;
        (len != Self::ABSENT).then(|| &self.bytes[start..start + len as usize])
    }
}

/// A connected client able to submit transactions and collect results.
pub struct ClientSession {
    id: ClientId,
    endpoint: Endpoint,
    provider: CryptoProvider,
    tracker: Tracker,
    primary: ReplicaId,
    /// The consensus instance this client shards to (`id % k`): requests
    /// always target the *same* instance, so a view-change re-aim follows
    /// that instance's primary rotation and a retransmission can never
    /// land in a second instance and double-order.
    instance: usize,
    /// Highest view seen in any reply (stamped by the sharded instance);
    /// replies from a newer view re-aim `primary` so post-view-change
    /// submissions skip the dead leader.
    known_view: ViewNum,
    n: usize,
    counter: u64,
    results: Results,
    last_progress: Instant,
    /// Requests that have distributed a Zyzzyva commit certificate and are
    /// waiting on `LocalCommit` acknowledgements; each leaves on completion.
    cc_counters: BTreeSet<u64>,
    /// Copies of submitted-but-uncompleted transactions, kept for
    /// retransmission (counter → transaction).
    in_flight: HashMap<u64, Transaction>,
    last_retransmit: Instant,
}

impl fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientSession")
            .field("id", &self.id)
            .finish()
    }
}

impl Drop for ClientSession {
    fn drop(&mut self) {
        // Free the address so the same client id can reconnect later
        // (repeated measurement runs reuse ids).
        self.endpoint.network().deregister(Sender::Client(self.id));
    }
}

impl ClientSession {
    /// Opens a session for `id` on `net`. `registry`, `protocol`, `f`,
    /// `instances` and `n` must match the cluster's; a process outside the
    /// deployment gets `net` from [`crate::client_net`] and `registry`
    /// from [`crate::registry_for`].
    pub fn connect(
        id: ClientId,
        net: &NetHandle,
        registry: &KeyRegistry,
        protocol: ProtocolKind,
        f: usize,
        instances: usize,
        n: usize,
    ) -> Self {
        let tracker = match protocol {
            ProtocolKind::Pbft => Tracker::Pbft(PbftClient::new(id, f)),
            ProtocolKind::Zyzzyva => Tracker::Zyzzyva(ZyzzyvaClient::new(id, f)),
        };
        let instances = instances.max(1);
        let instance = (id.0 % instances as u64) as usize;
        ClientSession {
            id,
            endpoint: net.register(Sender::Client(id)),
            provider: registry.provider_for_client(id),
            tracker,
            // Instance `j` at view 0 is led by replica `j`.
            primary: ReplicaId((instance % n) as u32),
            instance,
            known_view: ViewNum(0),
            n,
            counter: 0,
            results: Results::default(),
            last_progress: Instant::now(),
            cc_counters: BTreeSet::new(),
            in_flight: HashMap::new(),
            last_retransmit: Instant::now(),
        }
    }

    /// This client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> u64 {
        self.counter
    }

    /// Builds a single-write transaction (convenience for examples).
    pub fn write_txn(&mut self, key: u64, value: Vec<u8>) -> Transaction {
        let t = Transaction::new(self.id, self.counter, vec![Operation::Write { key, value }]);
        self.counter += 1;
        t
    }

    /// Builds a read transaction.
    pub fn read_txn(&mut self, key: u64) -> Transaction {
        let t = Transaction::new(self.id, self.counter, vec![Operation::Read { key }]);
        self.counter += 1;
        t
    }

    /// Builds a transaction with explicit operations.
    pub fn txn(&mut self, ops: Vec<Operation>) -> Transaction {
        let t = Transaction::new(self.id, self.counter, ops);
        self.counter += 1;
        t
    }

    /// Signs and submits a burst of transactions as one client request
    /// (Section 4.2's client-side batching). Transactions must have been
    /// built by this session so their ids are tracked.
    pub fn submit(&mut self, txns: Vec<Transaction>) {
        for t in &txns {
            debug_assert_eq!(t.id.client, self.id, "foreign transaction");
            match &mut self.tracker {
                Tracker::Pbft(p) => p.track(t.id.counter),
                Tracker::Zyzzyva(z) => z.track(t.id.counter),
            }
            self.in_flight.insert(t.id.counter, t.clone());
        }
        self.last_retransmit = Instant::now();
        let msg = Message::ClientRequest { txns };
        let sm = SignedMessage::sign_with(msg, Sender::Client(self.id), |bytes| {
            self.provider.sign(PeerClass::Replica, bytes)
        });
        // A client's messages are never shed: under load the swarm
        // backpressures rather than losing submissions.
        let _ = self.endpoint.send(Sender::Replica(self.primary), sm);
    }

    /// One diagnostic line per request still awaiting completion: under
    /// Zyzzyva its response groups, certificate and acknowledgements;
    /// under PBFT just its counter (the client keeps no other state).
    pub fn debug_stuck(&self) -> Vec<String> {
        match &self.tracker {
            Tracker::Pbft(_) => {
                let mut counters: Vec<u64> = self.in_flight.keys().copied().collect();
                counters.sort_unstable();
                counters.iter().map(|c| format!("counter={c}")).collect()
            }
            Tracker::Zyzzyva(z) => z.debug_stuck(),
        }
    }

    /// Number of requests still awaiting completion.
    pub fn pending(&self) -> usize {
        match &self.tracker {
            Tracker::Pbft(p) => p.pending(),
            Tracker::Zyzzyva(z) => z.pending(),
        }
    }

    /// The result bytes of a completed request, if available.
    pub fn result(&self, txn: TxnId) -> Option<&[u8]> {
        self.results.get(txn.counter)
    }

    fn broadcast(&self, msg: &Message) {
        // Encode-once: one envelope shared across all n destinations.
        let sm = SignedMessage::sign_with(msg.clone(), Sender::Client(self.id), |bytes| {
            self.provider.sign(PeerClass::Replica, bytes)
        });
        let replicas: Vec<Sender> = (0..self.n as u32)
            .map(|r| Sender::Replica(ReplicaId(r)))
            .collect();
        let _ = self.endpoint.broadcast(&replicas, &sm);
    }

    fn handle_actions(&mut self, actions: Vec<ClientAction>) -> usize {
        let mut completed = 0;
        for act in actions {
            match act {
                ClientAction::Complete {
                    txn_counter,
                    result,
                } => {
                    self.results.insert(txn_counter, &result);
                    self.in_flight.remove(&txn_counter);
                    self.cc_counters.remove(&txn_counter);
                    completed += 1;
                }
                ClientAction::BroadcastReplicas(msg) => self.broadcast(&msg),
                ClientAction::Send(r, msg) => {
                    let sm = SignedMessage::sign_with(msg, Sender::Client(self.id), |bytes| {
                        self.provider.sign(PeerClass::Replica, bytes)
                    });
                    let _ = self.endpoint.send(Sender::Replica(r), sm);
                }
            }
        }
        if completed > 0 {
            self.last_progress = Instant::now();
        }
        completed
    }

    /// Feeds one inbound envelope through the protocol tracker; returns
    /// requests completed by it.
    fn on_message(&mut self, sm: SignedMessage) -> usize {
        // The trackers count `sm.sender()` as the voter, so an envelope
        // whose MAC or signature does not check out is dropped unread.
        if !self
            .provider
            .verify(sm.sender(), sm.signing_bytes(), sm.sig())
        {
            return 0;
        }
        // Clients learn the current view from replies (PBFT §4.1): a reply
        // stamped with a newer view means a view change happened — re-aim
        // future submissions at that view's primary.
        if let Message::ClientReply { view, .. } | Message::SpecResponse { view, .. } = sm.msg() {
            if *view > self.known_view {
                self.known_view = *view;
                // Re-aim at the new primary of *this client's* instance:
                // instance `j` at view `v` is led by `(v + j) % n`.
                self.primary =
                    ReplicaId(((self.known_view.0 + self.instance as u64) % self.n as u64) as u32);
            }
        }
        let acts = match (&mut self.tracker, sm.msg()) {
            (Tracker::Pbft(p), Message::ClientReply { .. }) => p.on_reply(&sm),
            (Tracker::Zyzzyva(z), Message::SpecResponse { .. }) => z.on_spec_response(&sm),
            (Tracker::Zyzzyva(z), Message::LocalCommit { .. }) => {
                // The acknowledgement carries only the sequence; offer it to
                // every request that distributed a certificate.
                let mut acts = Vec::new();
                for &c in &self.cc_counters {
                    acts.extend(z.on_local_commit(c, &sm));
                }
                acts
            }
            _ => Vec::new(),
        };
        self.handle_actions(acts)
    }

    /// Quiet-period bookkeeping: if Zyzzyva's fast path has stalled past the
    /// client timeout, distribute commit certificates for every pending
    /// request; and for either protocol, rebroadcast in-flight requests to
    /// every replica after a longer quiet spell (lost traffic or a crashed
    /// primary). Returns requests completed by the fallback.
    fn on_quiet(&mut self) -> usize {
        let mut completed = 0;
        if let Tracker::Zyzzyva(z) = &mut self.tracker {
            if self.last_progress.elapsed() > ZYZZYVA_CLIENT_TIMEOUT {
                let mut outstanding: Vec<u64> = self.in_flight.keys().copied().collect();
                outstanding.sort_unstable();
                let mut acts = Vec::new();
                for c in outstanding {
                    let a = z.on_timeout(c);
                    if !a.is_empty() {
                        self.cc_counters.insert(c);
                        acts.extend(a);
                    }
                }
                completed += self.handle_actions(acts);
                self.last_progress = Instant::now();
            }
        }
        if self.pending() > 0
            && !self.in_flight.is_empty()
            && self.last_retransmit.elapsed() > RETRANSMIT_AFTER
        {
            let mut txns: Vec<Transaction> = self.in_flight.values().cloned().collect();
            txns.sort_by_key(|t| t.id.counter);
            self.broadcast(&Message::ClientRequest { txns });
            self.last_retransmit = Instant::now();
        }
        completed
    }

    /// Processes incoming replies until all submitted requests complete or
    /// `deadline` passes. Returns the number of requests completed by this
    /// call. Drives Zyzzyva's commit-certificate path automatically when
    /// the fast path stalls.
    pub fn await_all(&mut self, deadline: Duration) -> usize {
        let start = Instant::now();
        let mut completed = 0;
        self.last_progress = Instant::now();
        while self.pending() > 0 && start.elapsed() < deadline {
            match self.endpoint.recv_timeout(Duration::from_millis(50)) {
                Ok(sm) => completed += self.on_message(sm),
                Err(_) => completed += self.on_quiet(),
            }
        }
        completed
    }

    /// Non-blocking progress pump for swarm drivers multiplexing thousands
    /// of sessions on one thread: drains whatever replies have arrived,
    /// fires the Zyzzyva timeout fallback if the session has gone quiet,
    /// and returns immediately. Returns requests completed by this call.
    pub fn poll_progress(&mut self) -> usize {
        let mut completed = 0;
        let mut saw_any = false;
        while let Some(sm) = self.endpoint.try_recv() {
            saw_any = true;
            completed += self.on_message(sm);
            if self.pending() == 0 {
                break;
            }
        }
        if !saw_any && self.pending() > 0 {
            completed += self.on_quiet();
        }
        completed
    }

    /// Convenience: submit `txns` and wait for them all.
    pub fn submit_and_wait(&mut self, txns: Vec<Transaction>, deadline: Duration) -> usize {
        self.submit(txns);
        self.await_all(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::{CryptoScheme, Digest, SeqNum, SignatureBytes};
    use rdb_net::{Network, NetworkConfig};

    /// One client session on an in-memory network whose four replica
    /// addresses are plain endpoints the test speaks through, and the
    /// transaction it submitted.
    fn session(protocol: ProtocolKind) -> (Vec<Endpoint>, ClientSession, TxnId, KeyRegistry) {
        let net = Network::new(NetworkConfig::default());
        let replicas = (0..4)
            .map(|r| net.register(Sender::Replica(ReplicaId(r))))
            .collect();
        let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 1, 7);
        let mut client =
            ClientSession::connect(ClientId(0), &net.handle(), &registry, protocol, 1, 1, 4);
        let txn = client.write_txn(3, b"v".to_vec());
        let id = txn.id;
        client.submit(vec![txn]);
        (replicas, client, id, registry)
    }

    /// Replica `r`'s answer `result` to `txn`, MAC'd by `r` and then, if
    /// `corrupt`, with one bit of the MAC flipped.
    fn answer(
        registry: &KeyRegistry,
        protocol: ProtocolKind,
        r: u32,
        txn: TxnId,
        corrupt: bool,
    ) -> SignedMessage {
        let (client, replica) = (txn.client, ReplicaId(r));
        let results = vec![(txn.counter, b"ok".to_vec())];
        let msg = match protocol {
            ProtocolKind::Pbft => Message::ClientReply {
                view: ViewNum(0),
                client,
                replica,
                results,
            },
            ProtocolKind::Zyzzyva => Message::SpecResponse {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: Digest([1; 32]),
                history: Digest([2; 32]),
                client,
                replica,
                results,
            },
        };
        let provider = registry.provider_for_replica(replica);
        SignedMessage::sign_with(msg, Sender::Replica(replica), |bytes| {
            let mut sig = provider.sign(PeerClass::Client, bytes).0;
            if corrupt {
                sig[0] ^= 1;
            }
            SignatureBytes(sig)
        })
    }

    /// `quorum` matching answers, enough to complete the request (f + 1
    /// replies under PBFT, all 3f + 1 speculative responses on Zyzzyva's
    /// fast path), first under corrupted MACs, then genuine.
    fn a_quorum_completes_only_when_its_macs_verify(protocol: ProtocolKind, quorum: u32) {
        let (replicas, mut client, txn, registry) = session(protocol);
        for (r, ep) in replicas.iter().enumerate().take(quorum as usize) {
            let forged = answer(&registry, protocol, r as u32, txn, true);
            ep.send(Sender::Client(txn.client), forged).unwrap();
        }
        assert_eq!(
            client.poll_progress(),
            0,
            "{protocol:?}: forged MACs counted"
        );
        assert_eq!(client.pending(), 1);
        assert_eq!(client.result(txn), None);
        for (r, ep) in replicas.iter().enumerate().take(quorum as usize) {
            let genuine = answer(&registry, protocol, r as u32, txn, false);
            ep.send(Sender::Client(txn.client), genuine).unwrap();
        }
        assert_eq!(client.poll_progress(), 1, "{protocol:?}");
        assert_eq!(client.result(txn), Some(&b"ok"[..]));
    }

    #[test]
    fn pbft_replies_under_a_corrupted_mac_complete_nothing() {
        a_quorum_completes_only_when_its_macs_verify(ProtocolKind::Pbft, 2);
    }

    #[test]
    fn zyzzyva_responses_under_a_corrupted_mac_complete_nothing() {
        a_quorum_completes_only_when_its_macs_verify(ProtocolKind::Zyzzyva, 4);
    }

    #[test]
    fn slow_path_completions_leave_no_certificate_bookkeeping_behind() {
        const N: u64 = 5;
        let protocol = ProtocolKind::Zyzzyva;
        let (replicas, mut client, first, registry) = session(protocol);
        let txns = (1..N).map(|_| client.write_txn(3, b"v".to_vec())).collect();
        client.submit(txns);
        // 2f + 1 speculative responses per request: too few for the fast
        // path, enough for a commit certificate.
        for (r, ep) in replicas.iter().enumerate().take(3) {
            for counter in 0..N {
                let txn = TxnId { counter, ..first };
                let response = answer(&registry, protocol, r as u32, txn, false);
                ep.send(Sender::Client(first.client), response).unwrap();
            }
        }
        assert_eq!(client.poll_progress(), 0);
        client.last_progress = Instant::now()
            .checked_sub(ZYZZYVA_CLIENT_TIMEOUT * 2)
            .unwrap();
        assert_eq!(client.poll_progress(), 0, "certificates went out");
        assert_eq!(client.cc_counters.len(), N as usize);
        for (r, ep) in replicas.iter().enumerate().take(3) {
            let replica = ReplicaId(r as u32);
            let ack = Message::LocalCommit {
                view: ViewNum(0),
                seq: SeqNum(1),
                replica,
            };
            let provider = registry.provider_for_replica(replica);
            let ack = SignedMessage::sign_with(ack, Sender::Replica(replica), |bytes| {
                provider.sign(PeerClass::Client, bytes)
            });
            ep.send(Sender::Client(first.client), ack).unwrap();
        }
        assert_eq!(client.poll_progress(), N as usize);
        assert!(client.cc_counters.is_empty(), "{:?}", client.cc_counters);
    }

    #[test]
    fn results_are_found_by_counter_whatever_order_they_completed_in() {
        let mut results = Results::default();
        results.insert(3, b"three");
        results.insert(0, b"");
        results.insert(2, b"two");
        assert_eq!(results.get(3), Some(&b"three"[..]));
        assert_eq!(results.get(2), Some(&b"two"[..]));
        assert_eq!(results.get(0), Some(&b""[..]), "empty is not absent");
        assert_eq!(
            results.get(1),
            None,
            "below a completed one, never completed"
        );
        assert_eq!(results.get(4), None);
        assert_eq!(results.get(u64::MAX), None);
        results.insert(1, b"one");
        assert_eq!(results.get(1), Some(&b"one"[..]));
        assert_eq!(results.get(3), Some(&b"three"[..]));
    }
}
