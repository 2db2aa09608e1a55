//! Client sessions: submit transactions, await quorum-backed results.
//!
//! A [`ClientSession`] is the IO shell around an
//! [`rdb_consensus::ClientCore`], which speaks whichever client protocol
//! the deployment runs: PBFT (f+1 matching replies) or Zyzzyva (3f+1 fast
//! path with the commit-certificate fallback driven by its timer). The
//! session verifies what arrives, steps the core at the wall clock, signs
//! and sends what the core sends and keeps what it completes.

use rdb_common::messages::{Sender, SignedMessage};
use rdb_common::{ClientId, Operation, ProtocolKind, Transaction, TxnId};
use rdb_consensus::{ClientCore, ClientEffect, ClientInput};
use rdb_crypto::{CryptoProvider, KeyRegistry, PeerClass};
use rdb_net::{Endpoint, NetHandle};
use std::fmt;
use std::time::{Duration, Instant};

/// Every completed request's result, kept for the session's lifetime.
/// Counters are dense per session and a replica's result is at most 8
/// bytes (a write echoes its key, a read the first 8 bytes of the value),
/// so such a result costs 9 bytes: its bytes in an 8-byte index entry
/// and its length in a byte beside it — not a map slot and an
/// allocation each. A longer one goes to a shared arena, which its index
/// entry locates.
#[derive(Default)]
struct Results {
    /// By counter: the result's bytes, or for a [`Results::LONG`] one its
    /// start and length in `long` (two little-endian `u32`s).
    index: Vec<[u8; 8]>,
    /// By counter: the result's length, [`Results::LONG`] or
    /// [`Results::ABSENT`] (not completed yet).
    lens: Vec<u8>,
    long: Vec<u8>,
}

impl Results {
    const ABSENT: u8 = u8::MAX;
    const LONG: u8 = u8::MAX - 1;

    /// Records the result of `counter`, one this session submitted (the
    /// core completes nothing else, and each counter once).
    fn insert(&mut self, counter: u64, result: &[u8]) {
        let at = counter as usize;
        if at >= self.index.len() {
            self.index.resize(at + 1, [0; 8]);
            self.lens.resize(at + 1, Self::ABSENT);
        }
        let entry = &mut self.index[at];
        if let Some(inline) = entry.get_mut(..result.len()) {
            inline.copy_from_slice(result);
            self.lens[at] = result.len() as u8;
            return;
        }
        let start = u32::try_from(self.long.len()).expect("a session's results fit in 4 GiB");
        let len = u32::try_from(result.len()).expect("a result fits in a message frame");
        entry[..4].copy_from_slice(&start.to_le_bytes());
        entry[4..].copy_from_slice(&len.to_le_bytes());
        self.lens[at] = Self::LONG;
        self.long.extend_from_slice(result);
    }

    fn get(&self, counter: u64) -> Option<&[u8]> {
        let at = usize::try_from(counter).ok()?;
        let (entry, len) = (self.index.get(at)?, *self.lens.get(at)?);
        match len {
            Self::ABSENT => None,
            Self::LONG => {
                let word = |half: &[u8]| u32::from_le_bytes(half.try_into().expect("4 bytes"));
                let start = word(&entry[..4]) as usize;
                Some(&self.long[start..start + word(&entry[4..]) as usize])
            }
            len => Some(&entry[..len as usize]),
        }
    }
}

/// A connected client able to submit transactions and collect results.
pub struct ClientSession {
    core: ClientCore,
    /// The core's effects, drained after every step: one buffer for the
    /// session's life, not one per envelope.
    fx: Vec<ClientEffect>,
    results: Results,
    endpoint: Endpoint,
    provider: CryptoProvider,
}

impl fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientSession")
            .field("id", &self.id())
            .finish()
    }
}

impl Drop for ClientSession {
    fn drop(&mut self) {
        // Free the address so the same client id can reconnect later
        // (repeated measurement runs reuse ids).
        self.endpoint
            .network()
            .deregister(Sender::Client(self.id()));
    }
}

impl ClientSession {
    /// Opens a session for `id` on `net`. `registry`, `protocol`,
    /// `instances` and `n` must match the cluster's; a process outside the
    /// deployment gets `net` from [`crate::client_net`] and `registry`
    /// from [`crate::registry_for`].
    pub fn connect(
        id: ClientId,
        net: &NetHandle,
        registry: &KeyRegistry,
        protocol: ProtocolKind,
        instances: usize,
        n: usize,
    ) -> Self {
        ClientSession {
            core: ClientCore::new(id, protocol, instances, n, Instant::now()),
            fx: Vec::new(),
            results: Results::default(),
            endpoint: net.register(Sender::Client(id)),
            provider: registry.provider_for_client(id),
        }
    }

    /// This client's identity.
    pub fn id(&self) -> ClientId {
        self.core.id()
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> u64 {
        self.core.submitted()
    }

    /// Builds a single-write transaction (convenience for examples).
    pub fn write_txn(&mut self, key: u64, value: Vec<u8>) -> Transaction {
        self.core.txn(vec![Operation::Write { key, value }])
    }

    /// Builds a read transaction.
    pub fn read_txn(&mut self, key: u64) -> Transaction {
        self.core.txn(vec![Operation::Read { key }])
    }

    /// Builds a transaction with explicit operations.
    pub fn txn(&mut self, ops: Vec<Operation>) -> Transaction {
        self.core.txn(ops)
    }

    /// Signs and submits a burst of transactions as one client request
    /// (Section 4.2's client-side batching). Transactions must have been
    /// built by this session so their ids are tracked.
    pub fn submit(&mut self, txns: Vec<Transaction>) {
        self.step(ClientInput::Submit(txns), Instant::now());
    }

    /// One diagnostic line per request still awaiting completion: its
    /// response groups, commit certificate and acknowledgements.
    pub fn debug_stuck(&self) -> Vec<String> {
        self.core.debug_stuck()
    }

    /// Number of requests still awaiting completion.
    pub fn pending(&self) -> usize {
        self.core.pending()
    }

    /// The result bytes of a completed request, if available.
    pub fn result(&self, txn: TxnId) -> Option<&[u8]> {
        self.results.get(txn.counter)
    }

    /// Steps the core on `input` at `now`: signs each of its sends once
    /// for all of its destinations, and keeps its completions. Returns
    /// the requests completed.
    fn step(&mut self, input: ClientInput, now: Instant) -> usize {
        let mut fx = std::mem::take(&mut self.fx);
        self.core.step(input, now, &mut fx);
        let mut completed = 0;
        for effect in fx.drain(..) {
            match effect {
                ClientEffect::Send { to, msg } => {
                    let sm = SignedMessage::sign_with(msg, Sender::Client(self.id()), |bytes| {
                        self.provider.sign(PeerClass::Replica, bytes)
                    });
                    let to: Vec<Sender> = to.into_iter().map(Sender::Replica).collect();
                    // A client's messages are never shed: under load the
                    // swarm backpressures rather than losing submissions.
                    let _ = self.endpoint.broadcast(&to, &sm);
                }
                ClientEffect::Complete { counter, result } => {
                    self.results.insert(counter, &result);
                    completed += 1;
                }
            }
        }
        self.fx = fx;
        completed
    }

    /// Feeds one inbound envelope to the core; returns what it completed.
    fn on_message(&mut self, sm: SignedMessage, now: Instant) -> usize {
        // The core counts `sm.sender()` as the voter, so an envelope whose
        // MAC or signature does not check out is dropped unread.
        if !self
            .provider
            .verify(sm.sender(), sm.signing_bytes(), sm.sig())
        {
            return 0;
        }
        self.step(ClientInput::Reply(sm), now)
    }

    /// Processes incoming replies until all submitted requests complete or
    /// `deadline` passes. Returns the number of requests completed by this
    /// call. Drives Zyzzyva's commit-certificate path automatically when
    /// the fast path stalls.
    pub fn await_all(&mut self, deadline: Duration) -> usize {
        let start = Instant::now();
        let mut completed = 0;
        while self.pending() > 0 && start.elapsed() < deadline {
            if let Ok(sm) = self.endpoint.recv_timeout(Duration::from_millis(50)) {
                completed += self.on_message(sm, Instant::now());
            }
            completed += self.step(ClientInput::Tick, Instant::now());
        }
        completed
    }

    /// Non-blocking progress pump for swarm drivers multiplexing thousands
    /// of sessions on one thread: drains whatever replies have arrived,
    /// fires the core's timers if one is due, and returns immediately.
    /// Returns requests completed by this call.
    pub fn poll_progress(&mut self) -> usize {
        self.poll_at(Instant::now())
    }

    /// [`Self::poll_progress`] at `now`, so a driver polling many sessions
    /// reads the clock once per pass. The core is ticked only once its
    /// next timer is due: a tick before that acts on nothing.
    pub(crate) fn poll_at(&mut self, now: Instant) -> usize {
        let mut completed = 0;
        while let Some(sm) = self.endpoint.try_recv() {
            completed += self.on_message(sm, now);
            if self.pending() == 0 {
                break;
            }
        }
        if self.core.next_due().is_some_and(|due| now >= due) {
            completed += self.step(ClientInput::Tick, now);
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
    use rdb_common::messages::Message;
    use rdb_common::{CryptoScheme, Digest, ReplicaId, SeqNum, SignatureBytes, ViewNum};
    use rdb_consensus::ZYZZYVA_CLIENT_TIMEOUT;
    use rdb_net::{Network, NetworkConfig};

    /// The requests that distributed a commit certificate and still wait
    /// for its acknowledgements.
    fn awaiting_acks(client: &ClientSession) -> Vec<String> {
        let stuck = client.debug_stuck().into_iter();
        stuck.filter(|line| line.contains("cc_sent=true")).collect()
    }

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
            ClientSession::connect(ClientId(0), &net.handle(), &registry, protocol, 1, 4);
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
        let results = [(txn.counter, b"ok")].into_iter().collect();
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
        let later = Instant::now() + ZYZZYVA_CLIENT_TIMEOUT * 2;
        assert_eq!(client.poll_at(later), 0, "certificates went out");
        assert_eq!(awaiting_acks(&client).len(), N as usize);
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
        assert!(
            awaiting_acks(&client).is_empty(),
            "{:?}",
            awaiting_acks(&client)
        );
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

    #[test]
    fn results_past_8_bytes_go_to_the_arena_beside_inline_ones() {
        let mut results = Results::default();
        let long: Vec<u8> = (0..=255).collect();
        results.insert(1, b"exactly8");
        results.insert(0, &long);
        results.insert(2, b"nine byte");
        results.insert(3, b"");
        assert_eq!(results.get(0), Some(&long[..]));
        assert_eq!(results.get(1), Some(&b"exactly8"[..]));
        assert_eq!(results.get(2), Some(&b"nine byte"[..]));
        assert_eq!(results.get(3), Some(&b""[..]));
        assert_eq!(results.long.len(), long.len() + 9, "only the long ones");
    }

    #[test]
    fn a_result_index_entry_is_8_bytes() {
        let mut results = Results::default();
        results.insert(0, b"x");
        // One entry per confirmed transaction, for the session's lifetime.
        assert_eq!(std::mem::size_of_val(&results.index[0]), 8);
    }
}
