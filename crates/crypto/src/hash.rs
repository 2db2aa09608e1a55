//! Digest helpers bridging the raw hash functions to [`rdb_common::Digest`].

use crate::sha2::{sha256, sha256_pair, sha256_parts};
use rdb_common::Digest;

/// Hashes `data` with SHA-256, the one digest function of the system (as
/// in the paper's setup).
pub fn digest(data: &[u8]) -> Digest {
    Digest(sha256(data))
}

/// Hashes the logical concatenation of `parts` with SHA-256, streaming each
/// part into the hasher instead of allocating the concatenation.
pub fn digest_parts(parts: &[&[u8]]) -> Digest {
    Digest(sha256_parts(parts))
}

/// Chains a rolling history digest with the next batch digest, as Zyzzyva's
/// replicas do: `h' = H(h || d)`.
pub fn chain_digest(history: &Digest, next: &Digest) -> Digest {
    Digest(sha256_pair(history.as_bytes(), next.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_sha256() {
        let d = digest(b"abc");
        assert_eq!(
            d.to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn digest_parts_matches_concatenated_digest() {
        let a = digest(b"a");
        let b = digest(b"b");
        let mut concat = Vec::new();
        concat.extend_from_slice(a.as_bytes());
        concat.extend_from_slice(b.as_bytes());
        assert_eq!(digest_parts(&[a.as_bytes(), b.as_bytes()]), digest(&concat));
        assert_eq!(chain_digest(&a, &b), digest(&concat));
    }

    #[test]
    fn chain_digest_depends_on_both_inputs() {
        let a = digest(b"a");
        let b = digest(b"b");
        let ab = chain_digest(&a, &b);
        let ba = chain_digest(&b, &a);
        assert_ne!(ab, ba);
        assert_ne!(ab, a);
        assert_eq!(ab, chain_digest(&a, &b));
    }
}
