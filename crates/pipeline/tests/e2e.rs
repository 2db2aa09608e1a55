//! End-to-end tests: full replica pipelines over the in-memory network,
//! real crypto, both protocols, with and without failures.

use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{
    ClientId, CryptoScheme, Operation, ProtocolKind, ReplicaId, SystemConfig, ThreadConfig,
    Transaction,
};
use rdb_consensus::{ClientCore, ClientEffect, ClientInput, ZYZZYVA_CLIENT_TIMEOUT};
use rdb_crypto::{KeyRegistry, PeerClass};
use rdb_net::{Endpoint, Network, NetworkConfig};
use rdb_pipeline::{spawn_replica, ReplicaHandle};
use std::time::{Duration, Instant};

fn test_config(n: usize, protocol: ProtocolKind) -> SystemConfig {
    let mut cfg = SystemConfig::new(n).unwrap();
    cfg.protocol = protocol;
    cfg.batch_size = 5;
    cfg.checkpoint_interval = 1000;
    cfg.num_clients = 4;
    cfg.table_size = 512;
    cfg.threads = ThreadConfig::standard();
    cfg
}

struct TestClient {
    id: ClientId,
    endpoint: Endpoint,
    provider: rdb_crypto::CryptoProvider,
    counter: u64,
}

impl TestClient {
    fn new(id: u64, net: &Network, registry: &KeyRegistry) -> Self {
        let cid = ClientId(id);
        TestClient {
            id: cid,
            endpoint: net.register(Sender::Client(cid)),
            provider: registry.provider_for_client(cid),
            counter: 0,
        }
    }

    fn make_txns(&mut self, count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| {
                let t = Transaction::new(
                    self.id,
                    self.counter,
                    vec![Operation::Write {
                        key: (i as u64) % 512,
                        value: vec![i as u8; 8],
                    }],
                );
                self.counter += 1;
                t
            })
            .collect()
    }

    fn send_request(&self, txns: Vec<Transaction>, to: ReplicaId) {
        let msg = Message::ClientRequest { txns };
        let sm = SignedMessage::sign_with(msg, Sender::Client(self.id), |bytes| {
            self.provider.sign(PeerClass::Replica, bytes)
        });
        self.endpoint
            .send(Sender::Replica(to), sm)
            .expect("send to primary");
    }
}

/// The client protocol under test, stepped at the wall clock.
struct Tracker(ClientCore);

impl Tracker {
    fn new(client: &TestClient, cfg: &SystemConfig) -> Self {
        let core = ClientCore::new(client.id, cfg.protocol, 1, cfg.n, Instant::now());
        Tracker(core)
    }

    fn step(&mut self, input: ClientInput, now: Instant) -> Vec<ClientEffect> {
        let mut fx = Vec::new();
        self.0.step(input, now, &mut fx);
        fx
    }

    /// Tracks `txns` and sends them, as one request, where the core says.
    fn submit(&mut self, client: &TestClient, txns: Vec<Transaction>) {
        for effect in self.step(ClientInput::Submit(txns), Instant::now()) {
            if let ClientEffect::Send {
                to,
                msg: Message::ClientRequest { txns },
            } = effect
            {
                client.send_request(txns, to[0]);
            }
        }
    }

    fn on_reply(&mut self, sm: &SignedMessage) -> Vec<ClientEffect> {
        self.step(ClientInput::Reply(sm.clone()), Instant::now())
    }

    /// The fast path's timer fires.
    fn on_timeout(&mut self) -> Vec<ClientEffect> {
        self.step(ClientInput::Tick, Instant::now() + ZYZZYVA_CLIENT_TIMEOUT)
    }
}

fn spawn_cluster(cfg: &SystemConfig, net: &Network, registry: &KeyRegistry) -> Vec<ReplicaHandle> {
    (0..cfg.n as u32)
        .map(|i| spawn_replica(cfg, ReplicaId(i), &net.handle(), registry))
        .collect()
}

#[test]
fn pbft_end_to_end_commits_and_replies() {
    let cfg = test_config(4, ProtocolKind::Pbft);
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 7);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);

    let mut client = TestClient::new(0, &net, &registry);
    let mut tracker = Tracker::new(&client, &cfg);
    let txns = client.make_txns(25); // 5 batches of 5
    tracker.submit(&client, txns);

    // Collect replies until all 25 requests complete.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut completed = 0;
    while completed < 25 && Instant::now() < deadline {
        let Ok(sm) = client.endpoint.recv_timeout(Duration::from_millis(200)) else {
            continue;
        };
        for act in tracker.on_reply(&sm) {
            if matches!(act, ClientEffect::Complete { .. }) {
                completed += 1;
            }
        }
    }
    assert_eq!(completed, 25, "all requests must complete");

    // Every replica executed the same chain.
    std::thread::sleep(Duration::from_millis(300));
    let heads: Vec<u64> = replicas
        .iter()
        .map(|r| r.shared().executor.chain().lock().head_seq().0)
        .collect();
    assert!(
        heads.iter().all(|h| *h == 5),
        "all replicas at 5 blocks: {heads:?}"
    );
    let digests: Vec<_> = replicas
        .iter()
        .map(|r| r.shared().executor.store().state_digest())
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "stores must agree"
    );
    for r in &replicas {
        assert!(r.shared().executor.chain().lock().verify().is_ok());
    }
    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
}

#[test]
fn zyzzyva_fast_path_end_to_end() {
    let cfg = test_config(4, ProtocolKind::Zyzzyva);
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 8);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);

    let mut client = TestClient::new(0, &net, &registry);
    let mut tracker = Tracker::new(&client, &cfg);
    let txns = client.make_txns(10); // 2 batches of 5
    tracker.submit(&client, txns);

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut completed = 0;
    while completed < 10 && Instant::now() < deadline {
        let Ok(sm) = client.endpoint.recv_timeout(Duration::from_millis(200)) else {
            continue;
        };
        for act in tracker.on_reply(&sm) {
            if matches!(act, ClientEffect::Complete { .. }) {
                completed += 1;
            }
        }
    }
    assert_eq!(
        completed, 10,
        "fast path must complete with all replicas live"
    );
    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
}

#[test]
fn pbft_survives_backup_failure() {
    let cfg = test_config(4, ProtocolKind::Pbft);
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 9);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);

    // Crash one backup (f = 1 tolerated).
    net.faults().crash(Sender::Replica(ReplicaId(3)));

    let mut client = TestClient::new(0, &net, &registry);
    let mut tracker = Tracker::new(&client, &cfg);
    let txns = client.make_txns(10);
    tracker.submit(&client, txns);

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut completed = 0;
    while completed < 10 && Instant::now() < deadline {
        let Ok(sm) = client.endpoint.recv_timeout(Duration::from_millis(200)) else {
            continue;
        };
        for act in tracker.on_reply(&sm) {
            if matches!(act, ClientEffect::Complete { .. }) {
                completed += 1;
            }
        }
    }
    assert_eq!(completed, 10, "PBFT must commit with one backup down");
    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
}

#[test]
fn zyzzyva_backup_failure_needs_commit_certificates() {
    let cfg = test_config(4, ProtocolKind::Zyzzyva);
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 10);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);

    net.faults().crash(Sender::Replica(ReplicaId(3)));

    let mut client = TestClient::new(0, &net, &registry);
    let mut tracker = Tracker::new(&client, &cfg);
    let txns = client.make_txns(5); // one batch
    tracker.submit(&client, txns);

    // Fast path cannot complete (only 3 of 4 respond). Gather responses,
    // then fire the client timeout to trigger the commit-certificate path.
    let gather_deadline = Instant::now() + Duration::from_secs(10);
    let mut specs = 0;
    while specs < 15 && Instant::now() < gather_deadline {
        let Ok(sm) = client.endpoint.recv_timeout(Duration::from_millis(200)) else {
            continue;
        };
        let acts = tracker.on_reply(&sm);
        assert!(
            acts.is_empty(),
            "fast path must not complete with a dead backup"
        );
        if let Message::SpecResponse { results, .. } = sm.msg() {
            specs += results.iter().len();
        }
    }
    assert!(
        specs >= 15,
        "3 live replicas × 5 txns spec results, got {specs}"
    );

    // Timeout: distribute commit certificates.
    let mut completed = 0;
    for act in tracker.on_timeout() {
        if let ClientEffect::Send {
            msg: msg @ Message::CommitCert { .. },
            ..
        } = act
        {
            // Encode-once broadcast: one envelope, cloned per replica.
            let sm = SignedMessage::sign_with(msg, Sender::Client(client.id), |bytes| {
                client.provider.sign(PeerClass::Replica, bytes)
            });
            for r in 0..4u32 {
                let _ = client
                    .endpoint
                    .send(Sender::Replica(ReplicaId(r)), sm.clone());
            }
        }
    }
    // Collect LocalCommits. They carry the sequence; all five requests were
    // in the same batch (seq 1), so each acknowledges all five.
    let deadline = Instant::now() + Duration::from_secs(10);
    while completed < 5 && Instant::now() < deadline {
        let Ok(sm) = client.endpoint.recv_timeout(Duration::from_millis(200)) else {
            continue;
        };
        if !matches!(sm.msg(), Message::LocalCommit { .. }) {
            continue;
        }
        for act in tracker.on_reply(&sm) {
            if matches!(act, ClientEffect::Complete { .. }) {
                completed += 1;
            }
        }
    }
    assert_eq!(completed, 5, "slow path must complete all requests");
    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
}

#[test]
fn monolithic_configuration_still_commits() {
    // 0E 0B: everything on the worker thread (Figure 8's baseline).
    let mut cfg = test_config(4, ProtocolKind::Pbft);
    cfg.threads = ThreadConfig::monolithic();
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 11);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);

    let mut client = TestClient::new(0, &net, &registry);
    let mut tracker = Tracker::new(&client, &cfg);
    let txns = client.make_txns(10);
    tracker.submit(&client, txns);

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut completed = 0;
    while completed < 10 && Instant::now() < deadline {
        let Ok(sm) = client.endpoint.recv_timeout(Duration::from_millis(200)) else {
            continue;
        };
        for act in tracker.on_reply(&sm) {
            if matches!(act, ClientEffect::Complete { .. }) {
                completed += 1;
            }
        }
    }
    assert_eq!(completed, 10, "monolithic pipeline must still be correct");
    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
}

/// Runs a PBFT cluster with the given thread config over a fixed,
/// conflict-heavy workload; returns the replicas' state digests once all
/// `n_txns` requests complete.
fn run_fixed_workload(threads: ThreadConfig, seed: u64) -> Vec<rdb_common::Digest> {
    let mut cfg = test_config(4, ProtocolKind::Pbft);
    cfg.threads = threads;
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, seed);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);

    let mut client = TestClient::new(0, &net, &registry);
    let mut tracker = Tracker::new(&client, &cfg);
    // Deliberately conflicting: every transaction hits key (i % 7), so the
    // conflict scheduler must chain most of them; a scheduling bug that
    // reorders conflicting transactions would diverge the digests.
    let txns: Vec<Transaction> = (0..40u64)
        .map(|i| {
            let t = Transaction::new(
                client.id,
                client.counter,
                vec![
                    Operation::Write {
                        key: i % 7,
                        value: vec![i as u8; 8],
                    },
                    Operation::Read { key: (i + 1) % 7 },
                    Operation::Write {
                        key: 100 + i,
                        value: vec![(i as u8) ^ 0xff; 8],
                    },
                ],
            );
            client.counter += 1;
            t
        })
        .collect();
    tracker.submit(&client, txns);

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut completed = 0;
    while completed < 40 && Instant::now() < deadline {
        let Ok(sm) = client.endpoint.recv_timeout(Duration::from_millis(200)) else {
            continue;
        };
        for act in tracker.on_reply(&sm) {
            if matches!(act, ClientEffect::Complete { .. }) {
                completed += 1;
            }
        }
    }
    assert_eq!(completed, 40, "all requests must complete");
    // Let the last batch's execution land everywhere.
    std::thread::sleep(Duration::from_millis(300));
    let digests = replicas
        .iter()
        .map(|r| r.shared().executor.store().state_digest())
        .collect();
    for r in &replicas {
        assert!(r.shared().executor.chain().lock().verify().is_ok());
    }
    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
    digests
}

#[test]
fn parallel_execution_matches_serial_digests_end_to_end() {
    // The determinism invariant, pinned through the full pipeline: a 4E
    // cluster (conflict-scheduled worker pool) must reach exactly the
    // state digest of a 1E cluster executing the same workload serially.
    let serial = run_fixed_workload(ThreadConfig::with_e_b(1, 2), 21);
    let parallel = run_fixed_workload(ThreadConfig::with_e_b(4, 2), 21);
    assert!(
        serial.windows(2).all(|w| w[0] == w[1]),
        "serial replicas agree"
    );
    assert!(
        parallel.windows(2).all(|w| w[0] == w[1]),
        "parallel replicas agree"
    );
    assert_eq!(
        serial[0], parallel[0],
        "parallel execution must be bit-identical to serial"
    );
}

#[test]
fn checkpoints_prune_the_chain() {
    let mut cfg = test_config(4, ProtocolKind::Pbft);
    cfg.checkpoint_interval = 10; // every 2 batches of 5
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 12);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);

    let mut client = TestClient::new(0, &net, &registry);
    let mut tracker = Tracker::new(&client, &cfg);
    let txns = client.make_txns(50); // 10 batches → ~5 checkpoints
    tracker.submit(&client, txns);

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut completed = 0;
    while completed < 50 && Instant::now() < deadline {
        let Ok(sm) = client.endpoint.recv_timeout(Duration::from_millis(200)) else {
            continue;
        };
        for act in tracker.on_reply(&sm) {
            if matches!(act, ClientEffect::Complete { .. }) {
                completed += 1;
            }
        }
    }
    assert_eq!(completed, 50);
    // Give checkpoints a moment to propagate, then check pruning happened.
    std::thread::sleep(Duration::from_millis(500));
    let retained = replicas[0].shared().executor.chain().lock().retained();
    assert!(
        retained < 11,
        "checkpointing should prune old blocks, retained={retained}"
    );
    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
}

/// Waits up to ten seconds for `done`.
fn eventually(done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    done()
}

#[test]
fn a_replica_message_under_a_corrupted_mac_is_counted_and_never_stepped() {
    for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
        let cfg = test_config(4, protocol);
        let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 11);
        let net = Network::new(NetworkConfig::default());
        let replicas = spawn_cluster(&cfg, &net, &registry);
        // Replica 2's fetch for a sequence nobody has ordered: a live
        // replica that steps it counts one unservable sequence.
        let fetch = SignedMessage::sign_with(
            Message::FetchRequest {
                seqs: vec![rdb_common::SeqNum(50)],
                replica: ReplicaId(2),
            },
            Sender::Replica(ReplicaId(2)),
            |bytes| {
                registry
                    .provider_for_replica(ReplicaId(2))
                    .sign(PeerClass::Replica, bytes)
            },
        );
        let corrupted = corrupt_mac(&fetch);
        // Straight to replica 1, past every other replica's pipeline.
        let wire = net.register(Sender::Replica(ReplicaId(9)));
        let to = Sender::Replica(ReplicaId(1));
        let stepped = || net.stats().fetch_dropped();
        let rejected = || replicas[1].shared().dropped_bad_sigs();

        wire.send(to, fetch).unwrap();
        assert!(
            eventually(|| stepped() == 1),
            "{protocol:?}: the genuine fetch is stepped"
        );
        wire.send(to, corrupted).unwrap();
        assert!(
            eventually(|| rejected() == 1),
            "{protocol:?}: the bad MAC is counted"
        );
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            stepped(),
            1,
            "{protocol:?}: the corrupted fetch is never stepped"
        );
        assert_eq!(rejected(), 1);

        // A checkpoint vote shares the worker's verify window: a forged
        // one is counted like any other replica message.
        let vote = SignedMessage::sign_with(
            Message::Checkpoint {
                seq: rdb_common::SeqNum(10),
                state_digest: rdb_common::Digest([7; 32]),
                replica: ReplicaId(2),
            },
            Sender::Replica(ReplicaId(2)),
            |bytes| {
                registry
                    .provider_for_replica(ReplicaId(2))
                    .sign(PeerClass::Replica, bytes)
            },
        );
        wire.send(to, corrupt_mac(&vote)).unwrap();
        assert!(
            eventually(|| rejected() == 2),
            "{protocol:?}: the forged checkpoint vote is counted"
        );
        replicas.into_iter().for_each(ReplicaHandle::shutdown);
        net.shutdown();
    }
}

/// `sm` with one bit of its MAC flipped.
fn corrupt_mac(sm: &SignedMessage) -> SignedMessage {
    let mut mac = sm.sig().clone();
    mac.0[0] ^= 0x01;
    SignedMessage::new(sm.msg().clone(), sm.sender(), mac)
}

/// Under `0B` a client request joins the worker's verify window: a forged
/// one is counted and never batched, and a genuine one still commits.
#[test]
fn a_forged_client_request_under_0b_is_counted_and_never_proposed() {
    let mut cfg = test_config(4, ProtocolKind::Pbft);
    cfg.threads = ThreadConfig::monolithic();
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 13);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);
    let mut client = TestClient::new(0, &net, &registry);
    let txns = client.make_txns(5);
    let genuine = SignedMessage::sign_with(
        Message::ClientRequest { txns },
        Sender::Client(client.id),
        |bytes| client.provider.sign(PeerClass::Replica, bytes),
    );
    let to = Sender::Replica(ReplicaId(0));
    let primary = replicas[0].shared();

    client.endpoint.send(to, corrupt_mac(&genuine)).unwrap();
    assert!(
        eventually(|| primary.dropped_bad_sigs() == 1),
        "the forged request is counted"
    );
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(primary.committed_batches(), 0, "and never proposed");

    client.endpoint.send(to, genuine).unwrap();
    assert!(
        eventually(|| replicas.iter().all(|r| r.shared().committed_batches() == 1)),
        "the genuine request commits"
    );
    assert_eq!(primary.dropped_bad_sigs(), 1);
    replicas.into_iter().for_each(ReplicaHandle::shutdown);
    net.shutdown();
}
