//! Strongly-typed identifiers used throughout the system.
//!
//! Newtypes keep replica indices, client identities, sequence numbers, views
//! and transaction identifiers statically distinct (C-NEWTYPE), so a sequence
//! number can never be passed where a view number is expected.

use std::fmt;

/// Index of a replica in the closed membership set `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// Returns the raw index as a `usize`, suitable for vector indexing.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u32> for ReplicaId {
    fn from(v: u32) -> Self {
        ReplicaId(v)
    }
}

/// Identity of a client. Clients live outside the replica membership, so they
/// use a separate (wider) id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

impl ClientId {
    /// Returns the raw identity as a `usize` for table lookups.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u64> for ClientId {
    fn from(v: u64) -> Self {
        ClientId(v)
    }
}

/// Monotonically increasing consensus sequence number assigned by the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// The sequence number immediately after `self`.
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }

    /// The sequence number immediately before `self`, saturating at zero.
    pub fn prev(self) -> SeqNum {
        SeqNum(self.0.saturating_sub(1))
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u64> for SeqNum {
    fn from(v: u64) -> Self {
        SeqNum(v)
    }
}

/// View number; `view % n` names the current primary, as in PBFT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ViewNum(pub u64);

impl ViewNum {
    /// Replica acting as primary for this view among `n` replicas.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn primary(self, n: usize) -> ReplicaId {
        assert!(n > 0, "membership must be non-empty");
        ReplicaId((self.0 % n as u64) as u32)
    }

    /// The next view.
    pub fn next(self) -> ViewNum {
        ViewNum(self.0 + 1)
    }
}

impl fmt::Display for ViewNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for ViewNum {
    fn from(v: u64) -> Self {
        ViewNum(v)
    }
}

/// Client-scoped transaction identifier (client id, request counter).
///
/// The pair is globally unique because client ids are unique; the counter is
/// assigned by the client and echoes back in replies so the client can match
/// responses to outstanding requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxnId {
    /// Issuing client.
    pub client: ClientId,
    /// Client-local request counter.
    pub counter: u64,
}

impl TxnId {
    /// Creates a transaction id for `client`'s `counter`-th request.
    pub fn new(client: ClientId, counter: u64) -> Self {
        TxnId { client, counter }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.counter)
    }
}

/// A 32-byte cryptographic digest (output of SHA-256).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used by the genesis block.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Borrows the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Constructs a digest from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Hex rendering of the first `n` bytes, for logs.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// An opaque signature or MAC tag produced by `rdb-crypto`.
///
/// Kept as plain bytes here so `rdb-common` does not depend on the crypto
/// crate; the scheme that produced the bytes is carried by the enclosing
/// message context.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SignatureBytes(pub Vec<u8>);

impl SignatureBytes {
    /// An empty signature (used by the `NoCrypto` scheme).
    pub fn empty() -> Self {
        SignatureBytes(Vec::new())
    }

    /// Byte length of the signature; contributes to modeled message size.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the signature carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl AsRef<[u8]> for SignatureBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for SignatureBytes {
    fn from(v: Vec<u8>) -> Self {
        SignatureBytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_primary_rotates() {
        assert_eq!(ViewNum(0).primary(4), ReplicaId(0));
        assert_eq!(ViewNum(1).primary(4), ReplicaId(1));
        assert_eq!(ViewNum(4).primary(4), ReplicaId(0));
        assert_eq!(ViewNum(7).primary(4), ReplicaId(3));
    }

    #[test]
    fn seq_num_next_prev() {
        let s = SeqNum(5);
        assert_eq!(s.next(), SeqNum(6));
        assert_eq!(s.prev(), SeqNum(4));
        assert_eq!(SeqNum(0).prev(), SeqNum(0));
    }

    #[test]
    fn digest_display_is_hex() {
        let mut raw = [0u8; 32];
        raw[0] = 0xab;
        raw[31] = 0x01;
        let d = Digest(raw);
        let s = d.to_string();
        assert_eq!(s.len(), 64);
        assert!(s.starts_with("ab"));
        assert!(s.ends_with("01"));
    }

    #[test]
    fn txn_id_orders_by_client_then_counter() {
        let a = TxnId::new(ClientId(1), 9);
        let b = TxnId::new(ClientId(2), 0);
        assert!(a < b);
        let c = TxnId::new(ClientId(1), 10);
        assert!(a < c);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ReplicaId(3).to_string(), "r3");
        assert_eq!(ClientId(12).to_string(), "c12");
        assert_eq!(SeqNum(7).to_string(), "s7");
        assert_eq!(ViewNum(2).to_string(), "v2");
        assert_eq!(TxnId::new(ClientId(1), 2).to_string(), "c1#2");
    }

    #[test]
    fn signature_bytes_basics() {
        let s = SignatureBytes::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        let s = SignatureBytes::from(vec![1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_ref(), &[1, 2, 3]);
    }
}
