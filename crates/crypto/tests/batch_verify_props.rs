//! Property tests pinning the window API's contract:
//! `CryptoProvider::verify_batch` must be *observably identical* to
//! calling `CryptoProvider::verify` once per item — same verdicts, same
//! counter advance — for random mixes of valid and corrupted signatures,
//! random senders, and every crypto scheme. The benchmark's replay
//! verifies its windows through it.
//!
//! The corruption patterns deliberately scatter bad signatures across the
//! window (both halves, runs, all-bad, none-bad), so every bad index must
//! be reported wherever it sits.

use proptest::prelude::*;
use rdb_common::messages::Sender;
use rdb_common::{ClientId, CryptoScheme, ReplicaId, SignatureBytes};
use rdb_crypto::{KeyRegistry, PeerClass};

const N_REPLICAS: usize = 4;
const N_CLIENTS: usize = 6;

/// One generated item: who signs, what, and how the signature is mangled.
struct Item {
    from: Sender,
    msg: Vec<u8>,
    sig: SignatureBytes,
}

/// Decodes a raw u64 stream into a window of signed (and possibly
/// corrupted) messages against `reg`. Corruption modes: valid, flipped
/// byte in the signature, truncated signature, signature over different
/// bytes, and an out-of-registry sender.
fn build_items(reg: &KeyRegistry, raw: &[u64]) -> Vec<Item> {
    raw.iter()
        .enumerate()
        .map(|(i, &r)| {
            let msg = format!("payload {i} {:x}", r >> 16).into_bytes();
            let (from, provider) = if r % 3 == 0 {
                let id = ReplicaId((r % N_REPLICAS as u64) as u32);
                (Sender::Replica(id), reg.provider_for_replica(id))
            } else {
                let id = ClientId(r % N_CLIENTS as u64);
                (Sender::Client(id), reg.provider_for_client(id))
            };
            // All traffic in this test is addressed to a replica.
            let mut sig = provider.sign(PeerClass::Replica, &msg);
            let mut from = from;
            match (r >> 8) % 8 {
                // 50%: left valid.
                0..=3 => {}
                4 => {
                    // Flip one signature byte.
                    if !sig.is_empty() {
                        let pos = (r as usize >> 11) % sig.len();
                        sig.0[pos] ^= 1 << ((r >> 3) % 8);
                    }
                }
                5 => {
                    // Truncate.
                    let keep = sig.len() / 2;
                    sig.0.truncate(keep);
                }
                6 => {
                    // Sign over different bytes (replay under wrong message).
                    sig = provider.sign(PeerClass::Replica, b"other message");
                }
                _ => {
                    // Claim an id outside the registry.
                    from = Sender::Client(ClientId(1_000_000 + r % 7));
                }
            }
            Item { from, msg, sig }
        })
        .collect()
}

/// Asserts batch ≡ per-item on one receiving replica for one scheme.
fn assert_batch_matches_single(scheme: CryptoScheme, raw: &[u64]) {
    let reg = KeyRegistry::generate(scheme, N_REPLICAS, N_CLIENTS, 0xbadc0de);
    let items = build_items(&reg, raw);
    let receiver = reg.provider_for_replica(ReplicaId(0));

    let refs: Vec<(Sender, &[u8], &SignatureBytes)> = items
        .iter()
        .map(|it| (it.from, it.msg.as_slice(), &it.sig))
        .collect();

    let before = receiver.stats().verifies();
    let batch = receiver.verify_batch(&refs);
    let after_batch = receiver.stats().verifies();
    let single: Vec<bool> = refs
        .iter()
        .map(|(f, m, s)| receiver.verify(*f, m, s))
        .collect();
    let after_single = receiver.stats().verifies();

    assert_eq!(
        batch, single,
        "verify_batch disagrees with per-item verify ({scheme:?})"
    );
    assert_eq!(
        after_batch - before,
        items.len() as u64,
        "verify_batch must count one verify per item"
    );
    assert_eq!(after_single - after_batch, items.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_matches_single_cmac_ed25519(
        raw in proptest::collection::vec(any::<u64>(), 1..24)
    ) {
        assert_batch_matches_single(CryptoScheme::CmacEd25519, &raw);
    }

    #[test]
    fn batch_matches_single_pure_ed25519(
        raw in proptest::collection::vec(any::<u64>(), 1..24)
    ) {
        assert_batch_matches_single(CryptoScheme::Ed25519, &raw);
    }

    #[test]
    fn batch_matches_single_nocrypto(
        raw in proptest::collection::vec(any::<u64>(), 1..16)
    ) {
        assert_batch_matches_single(CryptoScheme::NoCrypto, &raw);
    }
}

// RSA keygen is too slow for many proptest cases; one directed mixed
// window covers the per-item fallback path.
#[test]
fn batch_matches_single_rsa_directed() {
    let raw: Vec<u64> = (0..10u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    assert_batch_matches_single(CryptoScheme::Rsa, &raw);
}

/// *Every* bad index is reported even when bad signatures dominate the
/// window and cluster adversarially.
#[test]
fn bisection_finds_all_bad_indices_in_adversarial_layouts() {
    let reg = KeyRegistry::generate(CryptoScheme::Ed25519, N_REPLICAS, N_CLIENTS, 99);
    let receiver = reg.provider_for_replica(ReplicaId(0));
    let layouts: [&[usize]; 6] = [
        &[0],
        &[15],
        &[0, 1, 2, 3, 4, 5, 6, 7],
        &[8, 9, 10, 11, 12, 13, 14, 15],
        &[0, 2, 4, 6, 8, 10, 12, 14],
        &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    ];
    for bad in layouts {
        let msgs: Vec<Vec<u8>> = (0..16).map(|i| format!("m{i}").into_bytes()).collect();
        let sigs: Vec<SignatureBytes> = (0..16)
            .map(|i| {
                let id = ClientId((i % N_CLIENTS) as u64);
                let mut sig = reg
                    .provider_for_client(id)
                    .sign(PeerClass::Replica, &msgs[i]);
                if bad.contains(&i) {
                    sig.0[17] ^= 0x20;
                }
                sig
            })
            .collect();
        let items: Vec<(Sender, &[u8], &SignatureBytes)> = (0..16)
            .map(|i| {
                (
                    Sender::Client(ClientId((i % N_CLIENTS) as u64)),
                    msgs[i].as_slice(),
                    &sigs[i],
                )
            })
            .collect();
        let verdicts = receiver.verify_batch(&items);
        for (i, ok) in verdicts.iter().enumerate() {
            assert_eq!(
                *ok,
                !bad.contains(&i),
                "layout {bad:?}: wrong verdict at index {i}"
            );
        }
    }
}
