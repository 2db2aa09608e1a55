//! Signature/MAC coverage invariants for the encode-once message path.
//!
//! The envelope refactor memoizes the canonical bytes that signatures are
//! computed and checked over — these tests pin down that it changed *what
//! bytes are hashed*, never *how often* a node signs or verifies. The
//! per-batch counts below are derived from the protocol by hand; if a
//! refactor accidentally skips (or duplicates) a verification, the exact
//! equality fails.

use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{
    ClientId, CryptoScheme, Digest, Operation, ProtocolKind, ReplicaId, SeqNum, SignatureBytes,
    SystemConfig, ThreadConfig, Transaction, ViewNum,
};
use rdb_crypto::{KeyRegistry, PeerClass};
use rdb_net::{Network, NetworkConfig};
use rdb_pipeline::{spawn_replica, ReplicaHandle};
use std::time::{Duration, Instant};

const BATCH: usize = 5;

fn test_config(protocol: ProtocolKind) -> SystemConfig {
    let mut cfg = SystemConfig::new(4).unwrap();
    cfg.protocol = protocol;
    cfg.batch_size = BATCH;
    // No checkpoints during the test window: keeps the expected counts
    // a pure function of one consensus round.
    cfg.checkpoint_interval = 1_000_000;
    cfg.num_clients = 4;
    cfg.table_size = 512;
    cfg.threads = ThreadConfig::standard();
    cfg
}

fn spawn_cluster(cfg: &SystemConfig, net: &Network, registry: &KeyRegistry) -> Vec<ReplicaHandle> {
    (0..cfg.n as u32)
        .map(|i| spawn_replica(cfg, ReplicaId(i), &net.handle(), registry))
        .collect()
}

fn send_one_batch(net: &Network, registry: &KeyRegistry) {
    let client = ClientId(0);
    let endpoint = net.register(Sender::Client(client));
    let provider = registry.provider_for_client(client);
    let txns: Vec<Transaction> = (0..BATCH as u64)
        .map(|i| {
            Transaction::new(
                client,
                i,
                vec![Operation::Write {
                    key: i,
                    value: vec![1; 8],
                }],
            )
        })
        .collect();
    let sm = SignedMessage::sign_with(
        Message::ClientRequest { txns },
        Sender::Client(client),
        |bytes| provider.sign(PeerClass::Replica, bytes),
    );
    endpoint
        .send(Sender::Replica(ReplicaId(0)), sm)
        .expect("send to primary");
}

/// Polls until every replica's (signs, verifies) hits `expected`, then
/// holds for a settle window to prove the counts do not overshoot.
fn assert_counts_converge(replicas: &[ReplicaHandle], expected: &[(u64, u64)]) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let got: Vec<(u64, u64)> = replicas
            .iter()
            .map(|r| {
                let s = &r.shared().crypto_stats;
                (s.signs(), s.verifies())
            })
            .collect();
        if got == expected {
            break;
        }
        for (i, (g, e)) in got.iter().zip(expected).enumerate() {
            assert!(
                g.0 <= e.0 && g.1 <= e.1,
                "replica {i} exceeded expected sign/verify counts: {g:?} > {e:?}"
            );
        }
        assert!(
            Instant::now() < deadline,
            "counts never converged: got {got:?}, expected {expected:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Settle: nothing else may sign or verify after quiescence.
    std::thread::sleep(Duration::from_millis(300));
    let after: Vec<(u64, u64)> = replicas
        .iter()
        .map(|r| {
            let s = &r.shared().crypto_stats;
            (s.signs(), s.verifies())
        })
        .collect();
    assert_eq!(after, expected, "counts moved after quiescence");
}

#[test]
fn pbft_per_batch_sign_verify_counts_are_exact() {
    let cfg = test_config(ProtocolKind::Pbft);
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 21);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);
    send_one_batch(&net, &registry);

    // Primary: signs PrePrepare + Commit + one reply envelope for the
    // batch's one client (not one per txn); verifies the client request
    // plus a Prepare and a Commit from each of 3 backups.
    let primary = (2 + 1, 1 + 3 + 3);
    // Backup: signs Prepare + Commit + the reply envelope; verifies the
    // PrePrepare, Prepares from the 2 other backups, and Commits from the
    // primary and the 2 other backups.
    let backup = (2 + 1, 1 + 2 + 3);
    let expected = vec![primary, backup, backup, backup];
    assert_counts_converge(&replicas, &expected);

    for r in &replicas {
        assert_eq!(r.shared().committed_batches(), 1);
        assert_eq!(r.shared().dropped_bad_sigs(), 0);
    }
    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
}

#[test]
fn zyzzyva_per_batch_sign_verify_counts_are_exact() {
    let cfg = test_config(ProtocolKind::Zyzzyva);
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 22);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);
    send_one_batch(&net, &registry);

    // Single-phase: the primary signs the PrePrepare plus one speculative
    // response envelope for the batch's one client and verifies only the
    // client request; each backup signs its response and verifies only
    // the PrePrepare.
    let primary = (1 + 1, 1);
    let backup = (1, 1);
    let expected = vec![primary, backup, backup, backup];
    assert_counts_converge(&replicas, &expected);

    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
}

#[test]
fn bad_signatures_are_still_dropped() {
    // dropped_bad_sigs behavior is unchanged by the envelope refactor: a
    // tampered/forged message is verified against its canonical bytes and
    // discarded, on both the batch-thread path (client requests) and the
    // worker path (replica messages) — under CMAC replica links and under
    // Ed25519-signed ones, where the worker checks a vote's signature.
    for scheme in [CryptoScheme::CmacEd25519, CryptoScheme::Ed25519] {
        drops_forgeries(scheme);
    }
}

fn drops_forgeries(scheme: CryptoScheme) {
    let cfg = test_config(ProtocolKind::Pbft);
    let registry = KeyRegistry::generate(scheme, 4, 4, 23);
    let net = Network::new(NetworkConfig::default());
    let replicas = spawn_cluster(&cfg, &net, &registry);

    // Forged client request: garbage signature.
    let attacker_client = net.register(Sender::Client(ClientId(1)));
    let req = SignedMessage::new(
        Message::ClientRequest {
            txns: vec![Transaction::new(
                ClientId(1),
                0,
                vec![Operation::Write {
                    key: 1,
                    value: vec![9; 4],
                }],
            )],
        },
        Sender::Client(ClientId(1)),
        SignatureBytes(vec![0xde, 0xad]),
    );
    attacker_client
        .send(Sender::Replica(ReplicaId(0)), req)
        .unwrap();

    // Forged replica message: a Prepare claiming replica 2, its MAC or
    // signature with one bit flipped, sent straight to a backup's worker
    // path from an address outside the cluster.
    let attacker_replica = net.register(Sender::Replica(ReplicaId(9)));
    let signer = registry.provider_for_replica(ReplicaId(2));
    let prepare = SignedMessage::sign_with(
        Message::Prepare {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: Digest([7; 32]),
        },
        Sender::Replica(ReplicaId(2)),
        |bytes| signer.sign(PeerClass::Replica, bytes),
    );
    let mut sig = prepare.sig().clone();
    sig.0[0] ^= 1;
    let forged = SignedMessage::new(prepare.into_message(), Sender::Replica(ReplicaId(2)), sig);
    attacker_replica
        .send(Sender::Replica(ReplicaId(1)), forged)
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline
        && (replicas[0].shared().dropped_bad_sigs() < 1
            || replicas[1].shared().dropped_bad_sigs() < 1)
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        replicas[0].shared().dropped_bad_sigs(),
        1,
        "{scheme:?}: primary must drop the forged client request"
    );
    assert_eq!(
        replicas[1].shared().dropped_bad_sigs(),
        1,
        "{scheme:?}: backup must drop the forged prepare"
    );
    // Nothing committed anywhere.
    for r in &replicas {
        assert_eq!(r.shared().committed_batches(), 0);
    }
    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
}
