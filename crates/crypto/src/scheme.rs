//! Signing-scheme abstraction over the concrete primitives.
//!
//! The paper's recommended configuration (Section 6, "Cryptographic
//! Signatures") signs client↔replica traffic with Ed25519 digital
//! signatures (non-repudiation, forwardable) and replica↔replica traffic
//! with CMAC-AES MACs (cheap; replicas never forward each other's messages,
//! so non-repudiation is unnecessary). [`KeyRegistry`] generates all key
//! material for a deployment and hands each node a [`CryptoProvider`] that
//! picks the correct primitive per link.
//!
//! Replica↔replica MACs use a single group key, a simplification of the
//! pairwise-key authenticator vectors of PBFT: the cost per message (one
//! CMAC tag) is what the performance study measures.

use crate::cmac::CmacAes128;
use crate::ed25519::{Ed25519KeyPair, Ed25519PublicKey};
use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::sha2::sha256;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdb_common::messages::Sender;
use rdb_common::{ClientId, CryptoScheme, ReplicaId, SignatureBytes};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Whether a message is addressed to a replica or a client — this decides
/// which primitive signs it under [`CryptoScheme::CmacEd25519`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerClass {
    /// Destination is a replica.
    Replica,
    /// Destination is a client.
    Client,
}

/// RSA modulus size used by the registry. 1024-bit keeps key generation
/// fast while preserving the RSA≫Ed25519 cost ratio Figure 13 measures.
pub const RSA_BITS: usize = 1024;

struct RegistryInner {
    scheme: CryptoScheme,
    replica_ed: Vec<Ed25519KeyPair>,
    client_ed: Vec<Ed25519KeyPair>,
    replica_rsa: Vec<RsaKeyPair>,
    client_rsa: Vec<RsaKeyPair>,
    // Public keys in dense vectors indexed by replica/client id: the
    // per-message verify path indexes an array instead of hashing a
    // `Sender` (replica and client id spaces are dense by construction).
    replica_ed_publics: Vec<Ed25519PublicKey>,
    client_ed_publics: Vec<Ed25519PublicKey>,
    replica_rsa_publics: Vec<RsaPublicKey>,
    client_rsa_publics: Vec<RsaPublicKey>,
    group_cmac: CmacAes128,
}

impl RegistryInner {
    /// The Ed25519 public key claimed by `from`, if `from` is in range.
    fn ed_public(&self, from: Sender) -> Option<&Ed25519PublicKey> {
        match from {
            Sender::Replica(r) => self.replica_ed_publics.get(r.as_usize()),
            Sender::Client(c) => self.client_ed_publics.get(c.as_usize()),
        }
    }

    /// The RSA public key claimed by `from`, if `from` is in range.
    fn rsa_public(&self, from: Sender) -> Option<&RsaPublicKey> {
        match from {
            Sender::Replica(r) => self.replica_rsa_publics.get(r.as_usize()),
            Sender::Client(c) => self.client_rsa_publics.get(c.as_usize()),
        }
    }
}

/// Key material for an entire deployment (all replicas + client drivers).
#[derive(Clone)]
pub struct KeyRegistry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for KeyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyRegistry")
            .field("scheme", &self.inner.scheme)
            .field(
                "replicas",
                &self
                    .inner
                    .replica_ed
                    .len()
                    .max(self.inner.replica_rsa.len()),
            )
            .field(
                "clients",
                &self.inner.client_ed.len().max(self.inner.client_rsa.len()),
            )
            .finish()
    }
}

impl KeyRegistry {
    /// Generates deterministic key material for `n_replicas` replicas and
    /// `n_clients` client drivers from `seed`.
    ///
    /// Ed25519 keys are always generated (cheap, and `CmacEd25519` needs
    /// them for the client path); RSA keys are generated only when the
    /// scheme is [`CryptoScheme::Rsa`] because 1024-bit key generation is
    /// slow.
    pub fn generate(scheme: CryptoScheme, n_replicas: usize, n_clients: usize, seed: u64) -> Self {
        let derive_seed = |tag: u8, idx: u64| -> [u8; 32] {
            let mut input = [0u8; 17];
            input[..8].copy_from_slice(&seed.to_le_bytes());
            input[8] = tag;
            input[9..17].copy_from_slice(&idx.to_le_bytes());
            sha256(&input)
        };

        let replica_ed: Vec<Ed25519KeyPair> = (0..n_replicas)
            .map(|i| Ed25519KeyPair::from_seed(&derive_seed(0, i as u64)))
            .collect();
        let client_ed: Vec<Ed25519KeyPair> = (0..n_clients)
            .map(|i| Ed25519KeyPair::from_seed(&derive_seed(1, i as u64)))
            .collect();
        let replica_ed_publics: Vec<Ed25519PublicKey> = replica_ed
            .iter()
            .map(|kp| kp.public_key().clone())
            .collect();
        let client_ed_publics: Vec<Ed25519PublicKey> =
            client_ed.iter().map(|kp| kp.public_key().clone()).collect();

        let (replica_rsa, client_rsa) = if scheme == CryptoScheme::Rsa {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5151_5151);
            let r: Vec<RsaKeyPair> = (0..n_replicas)
                .map(|_| RsaKeyPair::generate(RSA_BITS, &mut rng))
                .collect();
            let c: Vec<RsaKeyPair> = (0..n_clients)
                .map(|_| RsaKeyPair::generate(RSA_BITS, &mut rng))
                .collect();
            (r, c)
        } else {
            (Vec::new(), Vec::new())
        };
        let replica_rsa_publics: Vec<RsaPublicKey> = replica_rsa
            .iter()
            .map(|kp| kp.public_key().clone())
            .collect();
        let client_rsa_publics: Vec<RsaPublicKey> = client_rsa
            .iter()
            .map(|kp| kp.public_key().clone())
            .collect();

        let group_key_bytes = derive_seed(2, 0);
        let mut group_key = [0u8; 16];
        group_key.copy_from_slice(&group_key_bytes[..16]);

        KeyRegistry {
            inner: Arc::new(RegistryInner {
                scheme,
                replica_ed,
                client_ed,
                replica_rsa,
                client_rsa,
                replica_ed_publics,
                client_ed_publics,
                replica_rsa_publics,
                client_rsa_publics,
                group_cmac: CmacAes128::new(&group_key),
            }),
        }
    }

    /// The scheme this registry was generated for.
    pub fn scheme(&self) -> CryptoScheme {
        self.inner.scheme
    }

    /// A provider for replica `id`.
    ///
    /// # Panics
    /// Panics if `id` is outside the generated replica range.
    pub fn provider_for_replica(&self, id: ReplicaId) -> CryptoProvider {
        assert!(
            id.as_usize() < self.inner.replica_ed.len(),
            "replica {id} not in registry"
        );
        CryptoProvider {
            registry: self.clone(),
            me: Sender::Replica(id),
            stats: CryptoStats::default(),
        }
    }

    /// A provider for client `id`.
    ///
    /// # Panics
    /// Panics if `id` is outside the generated client range.
    pub fn provider_for_client(&self, id: ClientId) -> CryptoProvider {
        assert!(
            id.as_usize() < self.inner.client_ed.len(),
            "client {id} not in registry"
        );
        CryptoProvider {
            registry: self.clone(),
            me: Sender::Client(id),
            stats: CryptoStats::default(),
        }
    }
}

/// Shared sign/verify call counters for one [`CryptoProvider`] family.
///
/// Every clone of a provider (one per pipeline stage thread) bumps the
/// same counters, so tests can assert that a refactor of the message path
/// did not silently change how often a node signs or verifies — the
/// "no accidentally-skipped verification" invariant.
#[derive(Debug, Default, Clone)]
pub struct CryptoStats {
    inner: Arc<CryptoStatsInner>,
}

#[derive(Debug, Default)]
struct CryptoStatsInner {
    signs: AtomicU64,
    verifies: AtomicU64,
}

impl CryptoStats {
    /// Total [`CryptoProvider::sign`] calls.
    pub fn signs(&self) -> u64 {
        self.inner.signs.load(Ordering::Relaxed)
    }

    /// Total [`CryptoProvider::verify`] calls.
    pub fn verifies(&self) -> u64 {
        self.inner.verifies.load(Ordering::Relaxed)
    }
}

/// One node's view of the key material: signs outgoing messages and
/// verifies incoming ones, picking the primitive the scheme dictates for
/// each link.
#[derive(Debug, Clone)]
pub struct CryptoProvider {
    registry: KeyRegistry,
    me: Sender,
    stats: CryptoStats,
}

impl CryptoProvider {
    /// The identity this provider signs as.
    pub fn identity(&self) -> Sender {
        self.me
    }

    /// The shared sign/verify call counters (clones of this provider all
    /// report here).
    pub fn stats(&self) -> &CryptoStats {
        &self.stats
    }

    /// Which primitive authenticates a message from `from`.
    ///
    /// Under `CmacEd25519` every replica-originated message uses a MAC —
    /// including replies to clients. Section 6 of the paper: digital
    /// signatures are only necessary for messages that get *forwarded*
    /// (client requests travel inside pre-prepares), and no replica
    /// forwards another replica's messages, so MACs suffice for all
    /// replica traffic.
    fn link_uses_mac(&self, from: Sender, _to_class: PeerClass) -> bool {
        self.registry.inner.scheme == CryptoScheme::CmacEd25519
            && matches!(from, Sender::Replica(_))
    }

    /// Signs `bytes` for a destination of class `to`.
    pub fn sign(&self, to: PeerClass, bytes: &[u8]) -> SignatureBytes {
        self.stats.inner.signs.fetch_add(1, Ordering::Relaxed);
        let inner = &self.registry.inner;
        match inner.scheme {
            CryptoScheme::NoCrypto => SignatureBytes::empty(),
            CryptoScheme::CmacEd25519 if self.link_uses_mac(self.me, to) => {
                SignatureBytes(inner.group_cmac.tag(bytes).to_vec())
            }
            CryptoScheme::CmacEd25519 | CryptoScheme::Ed25519 => {
                let kp = match self.me {
                    Sender::Replica(r) => &inner.replica_ed[r.as_usize()],
                    Sender::Client(c) => &inner.client_ed[c.as_usize()],
                };
                SignatureBytes(kp.sign(bytes).to_vec())
            }
            CryptoScheme::Rsa => {
                let kp = match self.me {
                    Sender::Replica(r) => &inner.replica_rsa[r.as_usize()],
                    Sender::Client(c) => &inner.client_rsa[c.as_usize()],
                };
                SignatureBytes(kp.sign(bytes))
            }
        }
    }

    /// Verifies `sig` over `bytes` as coming from `from` (addressed to this
    /// node).
    pub fn verify(&self, from: Sender, bytes: &[u8], sig: &SignatureBytes) -> bool {
        self.stats.inner.verifies.fetch_add(1, Ordering::Relaxed);
        let inner = &self.registry.inner;
        match inner.scheme {
            CryptoScheme::NoCrypto => true,
            CryptoScheme::CmacEd25519 if self.link_uses_mac(from, self.my_class()) => {
                inner.group_cmac.verify(bytes, sig.as_ref())
            }
            CryptoScheme::CmacEd25519 | CryptoScheme::Ed25519 => inner
                .ed_public(from)
                .is_some_and(|pk| pk.verify(bytes, sig.as_ref())),
            CryptoScheme::Rsa => inner
                .rsa_public(from)
                .is_some_and(|pk| pk.verify(bytes, sig.as_ref())),
        }
    }

    /// One verdict per item, in order: [`Self::verify`] on each. The
    /// runtime verifies message by message; this stays for the
    /// benchmark's replay, which verifies a window of client requests
    /// through it.
    pub fn verify_batch(&self, items: &[(Sender, &[u8], &SignatureBytes)]) -> Vec<bool> {
        items
            .iter()
            .map(|(from, bytes, sig)| self.verify(*from, bytes, sig))
            .collect()
    }

    /// The peer class of this provider's own identity.
    fn my_class(&self) -> PeerClass {
        match self.me {
            Sender::Replica(_) => PeerClass::Replica,
            Sender::Client(_) => PeerClass::Client,
        }
    }

    /// Expected signature size in bytes for a message to `to`, used by the
    /// network size model.
    pub fn signature_len(&self, to: PeerClass) -> usize {
        match self.registry.inner.scheme {
            CryptoScheme::NoCrypto => 0,
            CryptoScheme::CmacEd25519 if self.link_uses_mac(self.me, to) => 16,
            CryptoScheme::CmacEd25519 | CryptoScheme::Ed25519 => 64,
            CryptoScheme::Rsa => RSA_BITS / 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(scheme: CryptoScheme) -> KeyRegistry {
        KeyRegistry::generate(scheme, 4, 2, 42)
    }

    #[test]
    fn replica_to_replica_cmac_round_trip() {
        let reg = registry(CryptoScheme::CmacEd25519);
        let signer = reg.provider_for_replica(ReplicaId(0));
        let verifier = reg.provider_for_replica(ReplicaId(1));
        let sig = signer.sign(PeerClass::Replica, b"prepare");
        assert_eq!(sig.len(), 16, "replica link should use a 16-byte MAC");
        assert!(verifier.verify(Sender::Replica(ReplicaId(0)), b"prepare", &sig));
        assert!(!verifier.verify(Sender::Replica(ReplicaId(0)), b"tampered", &sig));
    }

    #[test]
    fn client_to_replica_uses_ed25519_in_cmac_mode() {
        let reg = registry(CryptoScheme::CmacEd25519);
        let client = reg.provider_for_client(ClientId(0));
        let replica = reg.provider_for_replica(ReplicaId(0));
        let sig = client.sign(PeerClass::Replica, b"request");
        assert_eq!(sig.len(), 64, "client must digitally sign");
        assert!(replica.verify(Sender::Client(ClientId(0)), b"request", &sig));
        // A different client's identity must not verify.
        assert!(!replica.verify(Sender::Client(ClientId(1)), b"request", &sig));
    }

    #[test]
    fn replica_to_client_uses_mac_in_cmac_mode() {
        // Replies are never forwarded, so replicas MAC them (Section 6).
        let reg = registry(CryptoScheme::CmacEd25519);
        let replica = reg.provider_for_replica(ReplicaId(2));
        let client = reg.provider_for_client(ClientId(1));
        let sig = replica.sign(PeerClass::Client, b"reply");
        assert_eq!(sig.len(), 16);
        assert!(client.verify(Sender::Replica(ReplicaId(2)), b"reply", &sig));
    }

    #[test]
    fn pure_ed25519_scheme() {
        let reg = registry(CryptoScheme::Ed25519);
        let a = reg.provider_for_replica(ReplicaId(0));
        let b = reg.provider_for_replica(ReplicaId(1));
        let sig = a.sign(PeerClass::Replica, b"m");
        assert_eq!(sig.len(), 64);
        assert!(b.verify(Sender::Replica(ReplicaId(0)), b"m", &sig));
    }

    #[test]
    fn no_crypto_accepts_everything() {
        let reg = registry(CryptoScheme::NoCrypto);
        let a = reg.provider_for_replica(ReplicaId(0));
        let sig = a.sign(PeerClass::Replica, b"m");
        assert!(sig.is_empty());
        assert!(a.verify(Sender::Replica(ReplicaId(3)), b"anything", &sig));
    }

    #[test]
    fn rsa_scheme_round_trip() {
        let reg = KeyRegistry::generate(CryptoScheme::Rsa, 4, 1, 7);
        let a = reg.provider_for_replica(ReplicaId(0));
        let b = reg.provider_for_replica(ReplicaId(1));
        let sig = a.sign(PeerClass::Replica, b"m");
        assert_eq!(sig.len(), RSA_BITS / 8);
        assert!(b.verify(Sender::Replica(ReplicaId(0)), b"m", &sig));
        assert!(!b.verify(Sender::Replica(ReplicaId(0)), b"x", &sig));
    }

    #[test]
    fn registry_is_deterministic() {
        let r1 = registry(CryptoScheme::CmacEd25519);
        let r2 = registry(CryptoScheme::CmacEd25519);
        let s1 = r1
            .provider_for_replica(ReplicaId(0))
            .sign(PeerClass::Client, b"m");
        let s2 = r2
            .provider_for_replica(ReplicaId(0))
            .sign(PeerClass::Client, b"m");
        assert_eq!(s1, s2);
    }

    #[test]
    fn verify_batch_matches_per_item_for_mixed_links() {
        // A replica receiving a window that mixes MAC'd replica traffic,
        // Ed25519-signed client requests (one of them corrupt), and an
        // unknown sender: the window's verdicts must equal per-item verify,
        // with two, three and four signed requests.
        let reg = registry(CryptoScheme::CmacEd25519);
        let replica = reg.provider_for_replica(ReplicaId(0));
        let peer = reg.provider_for_replica(ReplicaId(1));
        let clients = [
            reg.provider_for_client(ClientId(0)),
            reg.provider_for_client(ClientId(1)),
        ];
        let mac_sig = peer.sign(PeerClass::Replica, b"prepare");
        let ghost_sig = SignatureBytes(vec![0u8; 64]); // unknown client id
        for signed in [2, 3, 4] {
            let reqs: Vec<Vec<u8>> = (0..signed)
                .map(|i| format!("req{i}").into_bytes())
                .collect();
            let mut sigs: Vec<SignatureBytes> = reqs
                .iter()
                .enumerate()
                .map(|(i, req)| clients[i % 2].sign(PeerClass::Replica, req))
                .collect();
            sigs[1].0[10] ^= 1; // corrupt

            let mut items: Vec<(Sender, &[u8], &SignatureBytes)> =
                vec![(Sender::Replica(ReplicaId(1)), b"prepare", &mac_sig)];
            for (i, (req, sig)) in reqs.iter().zip(&sigs).enumerate() {
                items.push((Sender::Client(ClientId(i as u64 % 2)), req, sig));
            }
            items.push((Sender::Client(ClientId(99)), b"ghost", &ghost_sig));
            let batch = replica.verify_batch(&items);
            let single: Vec<bool> = items
                .iter()
                .map(|(f, b, s)| replica.verify(*f, b, s))
                .collect();
            assert_eq!(batch, single, "{signed} signed requests");
            let mut want = vec![true; signed + 1];
            want[2] = false;
            want.push(false);
            assert_eq!(batch, want, "{signed} signed requests");
        }
    }

    #[test]
    fn verify_batch_counts_each_item_once() {
        let reg = registry(CryptoScheme::CmacEd25519);
        let replica = reg.provider_for_replica(ReplicaId(0));
        let client = reg.provider_for_client(ClientId(0));
        let sig = client.sign(PeerClass::Replica, b"m");
        let items: Vec<(Sender, &[u8], &SignatureBytes)> = (0..5)
            .map(|_| (Sender::Client(ClientId(0)), b"m" as &[u8], &sig))
            .collect();
        let before = replica.stats().verifies();
        let verdicts = replica.verify_batch(&items);
        assert_eq!(verdicts, vec![true; 5]);
        assert_eq!(replica.stats().verifies(), before + 5);
    }

    #[test]
    fn verify_batch_under_rsa_and_nocrypto() {
        let reg = KeyRegistry::generate(CryptoScheme::Rsa, 4, 1, 7);
        let a = reg.provider_for_replica(ReplicaId(0));
        let b = reg.provider_for_replica(ReplicaId(1));
        let sig = a.sign(PeerClass::Replica, b"m");
        let bad = SignatureBytes(vec![1u8; sig.len()]);
        let items: Vec<(Sender, &[u8], &SignatureBytes)> = vec![
            (Sender::Replica(ReplicaId(0)), b"m", &sig),
            (Sender::Replica(ReplicaId(0)), b"m", &bad),
        ];
        assert_eq!(b.verify_batch(&items), vec![true, false]);

        let reg = registry(CryptoScheme::NoCrypto);
        let p = reg.provider_for_replica(ReplicaId(0));
        let empty = SignatureBytes::empty();
        let items: Vec<(Sender, &[u8], &SignatureBytes)> =
            vec![(Sender::Replica(ReplicaId(3)), b"anything", &empty)];
        assert_eq!(p.verify_batch(&items), vec![true]);
    }

    #[test]
    fn signature_len_matches_actual() {
        for scheme in [
            CryptoScheme::NoCrypto,
            CryptoScheme::Ed25519,
            CryptoScheme::CmacEd25519,
        ] {
            let reg = registry(scheme);
            let p = reg.provider_for_replica(ReplicaId(0));
            for class in [PeerClass::Replica, PeerClass::Client] {
                assert_eq!(
                    p.sign(class, b"m").len(),
                    p.signature_len(class),
                    "{scheme:?}"
                );
            }
        }
    }
}
