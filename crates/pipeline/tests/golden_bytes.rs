//! Golden wire bytes: the exact encoding of one instance of every
//! `Message` variant, a signed envelope, a block under each link, a
//! snapshot, every WAL record kind and the commit path's WAL encoder.
//!
//! Signatures, batch digests, `wal.log` and `.snap` files all hang off
//! these bytes, so a codec change that moves any of them fails here
//! first. Each value is also decoded back from its pinned hex.

use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{
    Batch, Block, BlockCertificate, BlockLink, ClientId, Digest, Operation, ReplicaId, SeqNum,
    SignatureBytes, Snapshot, Transaction, ViewNum, Wire,
};
use rdb_pipeline::durable::commit_entry_bytes;
use rdb_pipeline::{ExecuteItem, WalEntry};
use std::fmt::Debug;
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
        .collect()
}

fn batch() -> Batch {
    Batch::new(vec![
        Transaction::new(
            ClientId(3),
            1,
            vec![
                Operation::Write {
                    key: 7,
                    value: vec![0xaa, 0xbb],
                },
                Operation::Read { key: 9 },
            ],
        ),
        Transaction::new(ClientId(4), 2, vec![Operation::Read { key: 1 }]).with_payload(vec![5]),
    ])
}

fn cert() -> BlockCertificate {
    BlockCertificate::new(vec![
        (ReplicaId(0), SignatureBytes(vec![0x11; 2])),
        (ReplicaId(2), SignatureBytes(vec![0x22; 3])),
    ])
}

fn block(link: BlockLink) -> Block {
    Block {
        seq: SeqNum(5),
        digest: Digest([0xd1; 32]),
        view: ViewNum(1),
        link,
        txn_count: 2,
        result_digest: Digest([0xe2; 32]),
    }
}

fn snapshot() -> Snapshot {
    Snapshot {
        base_seq: SeqNum(8),
        block: block(BlockLink::Hash(Digest([0x0f; 32]))),
        history: Digest([0x33; 32]),
        records: vec![(1, vec![7; 3]), (2, vec![])],
    }
}

fn messages() -> Vec<(&'static str, Message)> {
    let (view, seq, digest) = (ViewNum(1), SeqNum(2), Digest([0xd3; 32]));
    vec![
        (
            "client_request",
            Message::ClientRequest { txns: batch().txns },
        ),
        (
            "pre_prepare",
            Message::PrePrepare {
                view,
                seq,
                digest,
                batch: Arc::new(batch()),
            },
        ),
        ("prepare", Message::Prepare { view, seq, digest }),
        ("commit", Message::Commit { view, seq, digest }),
        (
            "client_reply",
            Message::ClientReply {
                view,
                client: ClientId(4),
                replica: ReplicaId(2),
                results: [(1, &[9][..]), (2, &[])].into_iter().collect(),
            },
        ),
        (
            "spec_response",
            Message::SpecResponse {
                view,
                seq,
                digest,
                history: Digest([0x44; 32]),
                client: ClientId(4),
                replica: ReplicaId(2),
                results: [(1, [9])].into_iter().collect(),
            },
        ),
        (
            "commit_cert",
            Message::CommitCert {
                view,
                seq,
                digest,
                cert: cert(),
                client: ClientId(4),
            },
        ),
        (
            "local_commit",
            Message::LocalCommit {
                view,
                seq,
                replica: ReplicaId(3),
            },
        ),
        (
            "checkpoint",
            Message::Checkpoint {
                seq,
                state_digest: Digest([0x55; 32]),
                replica: ReplicaId(1),
            },
        ),
        (
            "view_change",
            Message::ViewChange {
                new_view: ViewNum(2),
                last_stable: SeqNum(1),
                prepared: vec![(seq, digest)],
                tail: vec![(seq, digest, Arc::new(batch()))],
                replica: ReplicaId(3),
                instance: 1,
            },
        ),
        (
            "new_view",
            Message::NewView {
                new_view: ViewNum(2),
                reissued: vec![(seq, digest), (SeqNum(3), Digest::ZERO)],
                instance: 1,
            },
        ),
        (
            "fetch_request",
            Message::FetchRequest {
                seqs: vec![SeqNum(5), SeqNum(7)],
                replica: ReplicaId(2),
            },
        ),
        (
            "fetch_response",
            Message::FetchResponse {
                seq,
                view,
                digest,
                batch: Arc::new(batch()),
                certificate: cert(),
                replica: ReplicaId(3),
            },
        ),
        (
            "snapshot_response",
            Message::SnapshotResponse {
                snapshot: Arc::new(snapshot()),
                replica: ReplicaId(1),
            },
        ),
    ]
}

fn commit_item(history: Option<Digest>) -> ExecuteItem {
    ExecuteItem {
        seq: SeqNum(6),
        view: ViewNum(1),
        digest: Digest([0xd6; 32]),
        batch: Arc::new(batch()),
        certificate: cert(),
        history,
    }
}

fn commit_entry(item: &ExecuteItem) -> WalEntry {
    WalEntry::Commit {
        seq: item.seq,
        view: item.view,
        digest: item.digest,
        batch: (*item.batch).clone(),
        certificate: item.certificate.clone(),
        history: item.history,
    }
}

/// `(name, encoded bytes)` for every pinned value, in table order.
fn encodings() -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = messages()
        .into_iter()
        .map(|(name, msg)| (format!("message.{name}"), msg.encode()))
        .collect();
    let signed = SignedMessage::sign_with(
        Message::Prepare {
            view: ViewNum(1),
            seq: SeqNum(2),
            digest: Digest([0xd3; 32]),
        },
        Sender::Replica(ReplicaId(1)),
        |bytes| SignatureBytes(bytes[..4].to_vec()),
    );
    out.push(("signed_message".into(), signed.encode()));
    out.push((
        "block.hash_link".into(),
        block(BlockLink::Hash(Digest([0x0f; 32]))).encode(),
    ));
    out.push((
        "block.certificate_link".into(),
        block(BlockLink::Certificate(cert())).encode(),
    ));
    out.push(("snapshot".into(), snapshot().encode()));
    for (name, history) in [("pbft", None), ("zyzzyva", Some(Digest([0x77; 32])))] {
        let item = commit_item(history);
        out.push((format!("wal.commit.{name}"), commit_entry(&item).encode()));
        out.push((
            format!("commit_entry_bytes.{name}"),
            commit_entry_bytes(&item),
        ));
    }
    out.push((
        "wal.rollback".into(),
        WalEntry::Rollback { to: SeqNum(4) }.encode(),
    ));
    out.push((
        "wal.stable".into(),
        WalEntry::Stable { seq: SeqNum(8) }.encode(),
    ));
    out
}

/// Recorded from the codec before lengths were counted from `write`.
const GOLDEN: &[(&str, &str)] = &[
    ("message.client_request", "0002000000030000000000000001000000000000000200000001070000000000000002000000aabb0009000000000000000000000004000000000000000200000000000000010000000001000000000000000100000005"),
    ("message.pre_prepare", "0101000000000000000200000000000000d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d302000000030000000000000001000000000000000200000001070000000000000002000000aabb0009000000000000000000000004000000000000000200000000000000010000000001000000000000000100000005"),
    ("message.prepare", "0201000000000000000200000000000000d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3"),
    ("message.commit", "0301000000000000000200000000000000d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3"),
    ("message.client_reply", "0401000000000000000400000000000000020000000200000001000000000000000100000009020000000000000000000000"),
    ("message.spec_response", "0501000000000000000200000000000000d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d344444444444444444444444444444444444444444444444444444444444444440400000000000000020000000100000001000000000000000100000009"),
    ("message.commit_cert", "0601000000000000000200000000000000d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3020000000000000002000000111102000000030000002222220400000000000000"),
    ("message.local_commit", "070100000000000000020000000000000003000000"),
    ("message.checkpoint", "080200000000000000555555555555555555555555555555555555555555555555555555555555555501000000"),
    ("message.view_change", "0902000000000000000100000000000000010000000200000000000000d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3010000000200000000000000d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d302000000030000000000000001000000000000000200000001070000000000000002000000aabb00090000000000000000000000040000000000000002000000000000000100000000010000000000000001000000050300000001000000"),
    ("message.new_view", "0a0200000000000000020000000200000000000000d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d30300000000000000000000000000000000000000000000000000000000000000000000000000000001000000"),
    ("message.fetch_request", "0b020000000500000000000000070000000000000002000000"),
    ("message.fetch_response", "0c02000000000000000100000000000000d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d302000000030000000000000001000000000000000200000001070000000000000002000000aabb00090000000000000000000000040000000000000002000000000000000100000000010000000000000001000000050200000000000000020000001111020000000300000022222203000000"),
    ("message.snapshot_response", "0d08000000000000000500000000000000d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d10100000000000000000f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f02000000e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e233333333333333333333333333333333333333333333333333333333333333330200000001000000000000000300000007070702000000000000000000000001000000"),
    ("signed_message", "00010000000201000000000000000200000000000000d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d3d30400000000010000"),
    ("block.hash_link", "0500000000000000d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d10100000000000000000f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f02000000e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2"),
    ("block.certificate_link", "0500000000000000d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d10100000000000000010200000000000000020000001111020000000300000022222202000000e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2"),
    ("snapshot", "08000000000000000500000000000000d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d10100000000000000000f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f02000000e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2e2333333333333333333333333333333333333333333333333333333333333333302000000010000000000000003000000070707020000000000000000000000"),
    ("wal.commit.pbft", "0106000000000000000100000000000000d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d60002000000030000000000000001000000000000000200000001070000000000000002000000aabb000900000000000000000000000400000000000000020000000000000001000000000100000000000000010000000502000000000000000200000011110200000003000000222222"),
    ("commit_entry_bytes.pbft", "0106000000000000000100000000000000d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d60002000000030000000000000001000000000000000200000001070000000000000002000000aabb000900000000000000000000000400000000000000020000000000000001000000000100000000000000010000000502000000000000000200000011110200000003000000222222"),
    ("wal.commit.zyzzyva", "0106000000000000000100000000000000d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d601777777777777777777777777777777777777777777777777777777777777777702000000030000000000000001000000000000000200000001070000000000000002000000aabb000900000000000000000000000400000000000000020000000000000001000000000100000000000000010000000502000000000000000200000011110200000003000000222222"),
    ("commit_entry_bytes.zyzzyva", "0106000000000000000100000000000000d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d601777777777777777777777777777777777777777777777777777777777777777702000000030000000000000001000000000000000200000001070000000000000002000000aabb000900000000000000000000000400000000000000020000000000000001000000000100000000000000010000000502000000000000000200000011110200000003000000222222"),
    ("wal.rollback", "020400000000000000"),
    ("wal.stable", "030800000000000000"),
];

#[test]
fn every_layout_encodes_to_its_pinned_bytes() {
    let got = encodings();
    let mut mismatches = Vec::new();
    for (name, bytes) in &got {
        let want = GOLDEN.iter().find(|(n, _)| n == name).map(|(_, h)| *h);
        if want != Some(hex(bytes).as_str()) {
            mismatches.push(format!("    (\"{name}\", \"{}\"),", hex(bytes)));
        }
    }
    assert!(
        mismatches.is_empty(),
        "bytes moved:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(GOLDEN.len(), got.len(), "one pinned value per layout");
}

fn golden(name: &str) -> Vec<u8> {
    let (_, h) = GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not pinned"));
    unhex(h)
}

fn decodes_to<T: Wire + PartialEq + Debug>(name: &str, want: &T) {
    assert_eq!(&T::decode(&golden(name)).expect(name), want, "{name}");
}

#[test]
fn every_pinned_encoding_decodes_back() {
    for (name, msg) in messages() {
        decodes_to(&format!("message.{name}"), &msg);
    }
    let signed = SignedMessage::decode(&golden("signed_message")).expect("signed");
    assert_eq!(signed.sender(), Sender::Replica(ReplicaId(1)));
    assert_eq!(signed.sig().as_ref(), &signed.signing_bytes()[..4]);
    decodes_to(
        "block.hash_link",
        &block(BlockLink::Hash(Digest([0x0f; 32]))),
    );
    decodes_to(
        "block.certificate_link",
        &block(BlockLink::Certificate(cert())),
    );
    decodes_to("snapshot", &snapshot());
    for (name, history) in [("pbft", None), ("zyzzyva", Some(Digest([0x77; 32])))] {
        let entry = commit_entry(&commit_item(history));
        decodes_to(&format!("wal.commit.{name}"), &entry);
        decodes_to(&format!("commit_entry_bytes.{name}"), &entry);
    }
    decodes_to("wal.rollback", &WalEntry::Rollback { to: SeqNum(4) });
    decodes_to("wal.stable", &WalEntry::Stable { seq: SeqNum(8) });
}
