//! Message-path microbenchmarks for the encode-once envelope.
//!
//! Measures the hot path the tentpole refactor targets: broadcasting a
//! batch-carrying `PrePrepare` to n peers, the sign+verify round trip over
//! memoized canonical bytes, and batch-digest memoization. It writes
//! `BENCH_message_path.json` at the workspace root through
//! [`rdb_bench::report`] so the perf trajectory is recorded, not asserted
//! — CI runs this bench with a short window and uploads the file.
//!
//! The `clone_baseline` numbers reproduce the pre-envelope message path:
//! one deep copy of the batch per destination plus a from-scratch
//! serialization on every sign and every verify.

use rdb_bench::report::{time_ns, Length, Report};
use rdb_common::codec::{Wire, WireWriter};
use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{
    Batch, ClientId, CryptoScheme, Digest, Operation, ReplicaId, SeqNum, SignatureBytes,
    Transaction, ViewNum,
};
use rdb_crypto::{digest, KeyRegistry, PeerClass};
use std::hint::black_box;
use std::sync::Arc;

const TXNS: usize = 100;

fn batch(n: usize) -> Batch {
    (0..n as u64)
        .map(|i| {
            Transaction::new(
                ClientId(i % 8),
                i,
                vec![Operation::Write {
                    key: i,
                    value: vec![(i & 0xff) as u8; 8],
                }],
            )
        })
        .collect()
}

fn pre_prepare(b: Arc<Batch>) -> Message {
    Message::PrePrepare {
        view: ViewNum(0),
        seq: SeqNum(1),
        digest: Digest([7; 32]),
        batch: b,
    }
}

/// Pre-envelope behavior: encode `sender ‖ body` with a fresh writer.
fn fresh_signing_bytes(msg: &Message, from: Sender) -> Vec<u8> {
    let mut w = WireWriter::new();
    from.write(&mut w);
    msg.write(&mut w);
    w.into_bytes()
}

/// One broadcast on the encode-once path: sign once (structural cost only
/// — the signer is a constant, crypto is measured separately), then one
/// cheap clone per destination, each of which could verify against the
/// shared buffer.
fn broadcast_encode_once(body: &Arc<Batch>, peers: usize) -> usize {
    let sm = SignedMessage::sign_with(
        pre_prepare(Arc::clone(body)),
        Sender::Replica(ReplicaId(0)),
        |_| SignatureBytes(vec![9; 16]),
    );
    let mut delivered = 0;
    for _ in 0..peers {
        let clone = sm.clone();
        delivered += black_box(clone.signing_bytes().len());
    }
    delivered
}

/// One broadcast on the pre-refactor path: per destination, deep-clone the
/// batch into a fresh message and re-serialize it for verification.
fn broadcast_clone_baseline(body: &Arc<Batch>, peers: usize) -> usize {
    let from = Sender::Replica(ReplicaId(0));
    let sign_bytes = fresh_signing_bytes(&pre_prepare(Arc::clone(body)), from);
    let mut delivered = black_box(sign_bytes.len());
    for _ in 0..peers {
        // Deep copy: what `msg.clone()` cost before the batch was shared.
        let copy = Arc::new((**body).clone());
        let msg = pre_prepare(copy);
        // What each receiver's verify cost: a from-scratch serialization.
        delivered += black_box(fresh_signing_bytes(&msg, from).len());
    }
    delivered
}

fn run_suite(report: &mut Report) {
    let body = Arc::new(batch(TXNS));
    let iters = report.iters();

    // --- broadcast fan-out at n ∈ {4, 16, 32} ---------------------------
    for peers in [4usize, 16, 32] {
        let b = Arc::clone(&body);
        let ns_new = time_ns(iters, || {
            black_box(broadcast_encode_once(&b, peers));
        });
        report.record(format!("broadcast/encode_once/{peers}"), ns_new);
        let b = Arc::clone(&body);
        let ns_old = time_ns(iters, || {
            black_box(broadcast_clone_baseline(&b, peers));
        });
        report.record(format!("broadcast/clone_baseline/{peers}"), ns_old);
        report.record(format!("broadcast/speedup/{peers}"), ns_old / ns_new);
    }

    // --- sign + verify round trip (real CMAC) ---------------------------
    let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 4, 42);
    let signer = registry.provider_for_replica(ReplicaId(0));
    let verifier = registry.provider_for_replica(ReplicaId(1));
    let b = Arc::clone(&body);
    let ns = time_ns(iters, || {
        let sm = SignedMessage::sign_with(
            pre_prepare(Arc::clone(&b)),
            Sender::Replica(ReplicaId(0)),
            |bytes| signer.sign(PeerClass::Replica, bytes),
        );
        // The receiver's verify consumes the memoized bytes.
        black_box(verifier.verify(sm.sender(), sm.signing_bytes(), sm.sig()));
    });
    report.record("sign_verify/memoized_roundtrip", ns);
    let b = Arc::clone(&body);
    let ns = time_ns(iters, || {
        let from = Sender::Replica(ReplicaId(0));
        let msg = pre_prepare(Arc::clone(&b));
        let sig = signer.sign(PeerClass::Replica, &fresh_signing_bytes(&msg, from));
        // Pre-refactor: the receiver re-serialized before verifying.
        black_box(verifier.verify(from, &fresh_signing_bytes(&msg, from), &sig));
    });
    report.record("sign_verify/reencode_roundtrip", ns);

    // --- digest memoization ---------------------------------------------
    let sm = SignedMessage::new(
        pre_prepare(Arc::clone(&body)),
        Sender::Replica(ReplicaId(0)),
        SignatureBytes::empty(),
    );
    let ns = time_ns(iters, || {
        black_box(sm.digest_with(digest));
    });
    report.record("digest/memoized", ns);
    let ns = time_ns(iters, || {
        let msg = pre_prepare(Arc::clone(&body));
        black_box(digest(&fresh_signing_bytes(
            &msg,
            Sender::Replica(ReplicaId(0)),
        )));
    });
    report.record("digest/recompute", ns);
}

fn main() {
    let Some(mut report) = Report::start(
        "message_path",
        "BENCH_message_path.json",
        "ns_per_op (speedup entries are ratios)",
        Length::Iters(500),
    ) else {
        return;
    };
    report.param("txns_per_batch", TXNS);
    run_suite(&mut report);
    report.write();
}
