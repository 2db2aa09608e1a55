//! Property tests for the encode-once envelope: whatever path an envelope
//! takes — clone, forward, decode, re-sign — its memoized canonical
//! encoding must stay byte-identical to a fresh `Wire` encoding of the
//! same `(sender, body, signature)` triple.

use proptest::prelude::*;
use rdb_common::codec::{Wire, WireWriter};
use rdb_common::messages::{Message, ReplyResults, Sender, SignedMessage};
use rdb_common::{Batch, ClientId, Digest, Operation, ReplicaId, SignatureBytes, Transaction};
use std::sync::Arc;

/// Builds a batch from generated raw material.
fn build_batch(keys: &[u64], value_len: usize, payload_len: usize) -> Batch {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            Transaction::new(
                ClientId(k % 7),
                i as u64,
                vec![
                    Operation::Write {
                        key: k,
                        value: vec![(k & 0xff) as u8; value_len],
                    },
                    Operation::Read {
                        key: k.wrapping_add(1),
                    },
                ],
            )
            .with_payload(vec![0xab; payload_len])
        })
        .collect()
}

/// The reference encoding, built field by field with a fresh writer —
/// deliberately *not* via `SignedMessage::write`, so a cache bug cannot
/// hide on both sides of the comparison.
fn fresh_encoding(msg: &Message, from: Sender, sig: &SignatureBytes) -> Vec<u8> {
    let mut w = WireWriter::new();
    from.write(&mut w);
    msg.write(&mut w);
    w.put_var_bytes(sig.as_ref());
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memoized_encoding_is_byte_identical_after_clone_forward_resign(
        keys in proptest::collection::vec(0u64..1_000_000, 1..40),
        value_len in 0usize..32,
        payload_len in 0usize..64,
        digest_byte in 0u64..256,
        from_replica in 0u32..16,
        sig_byte in 0u64..256,
        sig_len in 0usize..96,
    ) {
        let batch = build_batch(&keys, value_len, payload_len);
        let msg = Message::PrePrepare {
            view: rdb_common::ViewNum(0),
            seq: rdb_common::SeqNum(1),
            digest: Digest([digest_byte as u8; 32]),
            batch: Arc::new(batch),
        };
        let from = Sender::Replica(ReplicaId(from_replica));
        let sig = SignatureBytes(vec![sig_byte as u8; sig_len]);
        let reference = fresh_encoding(&msg, from, &sig);

        // Plain construction.
        let sm = SignedMessage::new(msg.clone(), from, sig.clone());
        prop_assert_eq!(&sm.encode(), &reference);

        // Clones (broadcast fan-out) share the memo and stay identical.
        let mut clones = Vec::new();
        for _ in 0..4 {
            clones.push(sm.clone());
        }
        for c in &clones {
            prop_assert_eq!(&c.encode(), &reference);
            prop_assert_eq!(
                c.signing_bytes().as_ptr(),
                sm.signing_bytes().as_ptr(),
                "clones must share one serialization"
            );
        }

        // Forward after a decode round-trip (receiver-side path).
        let decoded = SignedMessage::decode(&reference).unwrap();
        prop_assert_eq!(&decoded.encode(), &reference);
        prop_assert_eq!(decoded.signing_bytes(), sm.signing_bytes());

        // Re-sign the shared body as a different sender: the body Arc is
        // reused, the new envelope's encoding matches a fresh encoding
        // under the new identity.
        let from2 = Sender::Replica(ReplicaId(from_replica + 1));
        let resigned = SignedMessage::sign_shared(Arc::clone(sm.body()), from2, |bytes| {
            SignatureBytes(vec![bytes.len() as u8; 8])
        });
        prop_assert!(Arc::ptr_eq(resigned.body(), sm.body()));
        let reference2 = fresh_encoding(&msg, from2, resigned.sig());
        prop_assert_eq!(&resigned.encode(), &reference2);

        // encoded_len stays exact through all of it.
        prop_assert_eq!(sm.encoded_len(), reference.len());
        prop_assert_eq!(resigned.encoded_len(), reference2.len());
    }

    #[test]
    fn client_request_envelopes_round_trip(
        keys in proptest::collection::vec(0u64..1_000_000, 0..20),
        client in 0u64..1_000,
        sig_len in 0usize..96,
    ) {
        let msg = Message::ClientRequest {
            txns: build_batch(&keys, 8, 0).txns,
        };
        let from = Sender::Client(ClientId(client));
        let sig = SignatureBytes(vec![3; sig_len]);
        let sm = SignedMessage::new(msg.clone(), from, sig.clone());
        let reference = fresh_encoding(&msg, from, &sig);
        prop_assert_eq!(&sm.encode(), &reference);
        let back = SignedMessage::decode(&reference).unwrap();
        prop_assert_eq!(back, sm);
    }

    #[test]
    fn reply_envelopes_round_trip(
        counters in proptest::collection::vec(0u64..u64::MAX, 0..60),
        value_len in 0usize..1025,
        spec in 0u8..2,
        replica in 0u32..16,
        sig_len in 0usize..96,
    ) {
        // Value lengths vary per result from empty up to `value_len`.
        let results: ReplyResults = counters
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, vec![c as u8; (value_len * (i + 1)) / counters.len()]))
            .collect();
        let msg = if spec == 1 {
            Message::SpecResponse {
                view: rdb_common::ViewNum(3),
                seq: rdb_common::SeqNum(9),
                digest: Digest([1; 32]),
                history: Digest([2; 32]),
                client: ClientId(5),
                replica: ReplicaId(replica),
                results,
            }
        } else {
            Message::ClientReply {
                view: rdb_common::ViewNum(3),
                client: ClientId(5),
                replica: ReplicaId(replica),
                results,
            }
        };
        prop_assert_eq!(msg.encoded_len(), msg.encode().len());
        prop_assert_eq!(&Message::decode(&msg.encode()).unwrap(), &msg);
        let from = Sender::Replica(ReplicaId(replica));
        let sig = SignatureBytes(vec![3; sig_len]);
        let sm = SignedMessage::new(msg.clone(), from, sig.clone());
        let reference = fresh_encoding(&msg, from, &sig);
        prop_assert_eq!(&sm.encode(), &reference);
        prop_assert_eq!(sm.encoded_len(), reference.len());
        prop_assert_eq!(SignedMessage::decode(&reference).unwrap(), sm);
        // No prefix of a valid encoding decodes to a (different) message.
        let body = msg.encode();
        prop_assert!(Message::decode(&body[..body.len() - 1]).is_err());
    }
}
