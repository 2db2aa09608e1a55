//! CMAC with AES-128 (NIST SP 800-38B, RFC 4493).
//!
//! This is the replica↔replica authenticator in the paper's recommended
//! configuration: MACs are an order of magnitude cheaper than digital
//! signatures and suffice between replicas because no replica forwards
//! another replica's messages (non-repudiation is not needed).
//!
//! A tag is one CBC-MAC chain over the message, its last block padded and
//! masked with a subkey; the chain runs on the AES backend selected once
//! per process ([`crate::aes::backend`]).

use crate::aes::{self, Aes128};

fn dbl(block: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let carry = block[0] & 0x80;
    for i in 0..15 {
        out[i] = (block[i] << 1) | (block[i + 1] >> 7);
    }
    out[15] = block[15] << 1;
    if carry != 0 {
        out[15] ^= 0x87;
    }
    out
}

/// CMAC-AES128 keyed MAC.
#[derive(Debug, Clone)]
pub struct CmacAes128 {
    cipher: Aes128,
    k1: [u8; 16],
    k2: [u8; 16],
    /// The selected backend's chain, fixed at construction so that a tag
    /// does no feature detection or lookup.
    chain: fn(&Aes128, &[u8], &[u8; 16]) -> [u8; 16],
}

impl CmacAes128 {
    /// Derives the CMAC subkeys from `key`; tags run on the process's
    /// [`aes::backend`].
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_backend(key, aes::backend())
    }

    /// As [`CmacAes128::new`], on a given backend (benches and tests put
    /// the backends side by side; see [`aes::backends`]).
    pub fn with_backend(key: &[u8; 16], backend: &aes::Backend) -> Self {
        let cipher = Aes128::new(key);
        let l = cipher.encrypt(&[0u8; 16]);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        CmacAes128 {
            cipher,
            k1,
            k2,
            chain: backend.chain,
        }
    }

    /// Computes the 16-byte tag over `msg`.
    pub fn tag(&self, msg: &[u8]) -> [u8; 16] {
        // Every block but the last goes through the chain as it is; the
        // last (empty for an empty message) is masked with K1 when whole,
        // padded with `0x80 0…` and masked with K2 when not.
        let (blocks, tail) = msg.split_at(msg.len().saturating_sub(1) / 16 * 16);
        let mut last = [0u8; 16];
        last[..tail.len()].copy_from_slice(tail);
        let subkey = if tail.len() == 16 {
            &self.k1
        } else {
            last[tail.len()] = 0x80;
            &self.k2
        };
        for (l, k) in last.iter_mut().zip(subkey) {
            *l ^= k;
        }
        (self.chain)(&self.cipher, blocks, &last)
    }

    /// Verifies that `tag` authenticates `msg` (constant-time comparison).
    pub fn verify(&self, msg: &[u8], tag: &[u8]) -> bool {
        if tag.len() != 16 {
            return false;
        }
        let expected = self.tag(msg);
        let mut diff = 0u8;
        for i in 0..16 {
            diff |= expected[i] ^ tag[i];
        }
        diff == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4493 test vectors (key 2b7e1516...).
    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    const MSG64: [u8; 64] = [
        0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17,
        0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
        0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19, 0x1a,
        0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17, 0xad, 0x2b, 0x41, 0x7b,
        0xe6, 0x6c, 0x37, 0x10,
    ];

    /// The RFC 4493 answer on the selected backend and on every backend
    /// this CPU can run.
    fn assert_tag(msg: &[u8], expected: [u8; 16]) {
        assert_eq!(CmacAes128::new(&KEY).tag(msg), expected, "selected backend");
        for b in aes::backends() {
            let cmac = CmacAes128::with_backend(&KEY, &b);
            assert_eq!(cmac.tag(msg), expected, "{} backend", b.name());
        }
    }

    #[test]
    fn rfc4493_empty_message() {
        assert_tag(
            b"",
            [
                0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75,
                0x67, 0x46,
            ],
        );
    }

    #[test]
    fn rfc4493_16_bytes() {
        assert_tag(
            &MSG64[..16],
            [
                0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a,
                0x28, 0x7c,
            ],
        );
    }

    #[test]
    fn rfc4493_40_bytes() {
        assert_tag(
            &MSG64[..40],
            [
                0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14, 0x97,
                0xc8, 0x27,
            ],
        );
    }

    #[test]
    fn rfc4493_64_bytes() {
        assert_tag(
            &MSG64,
            [
                0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92, 0xfc, 0x49, 0x74, 0x17, 0x79, 0x36,
                0x3c, 0xfe,
            ],
        );
    }

    /// SP 800-38B §6.2 step by step: pad the whole message into blocks,
    /// mask the last, CBC-encrypt with the bare block cipher. Shares no
    /// code with `tag` but the key schedule and `dbl`.
    fn reference_tag(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
        let cipher = Aes128::new(key);
        let k1 = dbl(&cipher.encrypt(&[0u8; 16]));
        let k2 = dbl(&k1);
        let whole = !msg.is_empty() && msg.len().is_multiple_of(16);
        let mut m = msg.to_vec();
        if !whole {
            m.push(0x80);
            m.resize(m.len().div_ceil(16) * 16, 0);
        }
        let n = m.len();
        for (b, k) in m[n - 16..].iter_mut().zip(if whole { k1 } else { k2 }) {
            *b ^= k;
        }
        let mut x = [0u8; 16];
        for block in m.chunks(16) {
            for i in 0..16 {
                x[i] ^= block[i];
            }
            cipher.encrypt_block(&mut x);
        }
        x
    }

    #[test]
    fn every_length_around_the_k1_k2_switch() {
        // 0 and every length that ends a block, or one byte either side of
        // it, for the first two blocks: where the last block flips between
        // padded-with-K2 and whole-with-K1.
        let msg: Vec<u8> = (0..33u8).map(|i| i.wrapping_mul(37) ^ 0x5c).collect();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33] {
            let expected = reference_tag(&KEY, &msg[..len]);
            for b in aes::backends() {
                let cmac = CmacAes128::with_backend(&KEY, &b);
                assert_eq!(cmac.tag(&msg[..len]), expected, "{} len {len}", b.name());
                assert!(
                    cmac.verify(&msg[..len], &expected),
                    "{} len {len}",
                    b.name()
                );
            }
        }
        assert_eq!(
            reference_tag(&KEY, &MSG64[..40]),
            CmacAes128::new(&KEY).tag(&MSG64[..40])
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let cmac = CmacAes128::new(&KEY);
        let tag = cmac.tag(b"attack at dawn");
        assert!(cmac.verify(b"attack at dawn", &tag));
        assert!(!cmac.verify(b"attack at dusk", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!cmac.verify(b"attack at dawn", &bad));
        assert!(!cmac.verify(b"attack at dawn", &tag[..8]));
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        let a = CmacAes128::new(&[1; 16]);
        let b = CmacAes128::new(&[2; 16]);
        assert_ne!(a.tag(b"m"), b.tag(b"m"));
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Every backend present tags a random message under a random
            /// key exactly as the reference does, and rejects it with one
            /// bit flipped in the message or in the tag.
            #[test]
            fn backends_agree_and_reject_a_flipped_bit(
                key in proptest::collection::vec(any::<u8>(), 16..17),
                msg in proptest::collection::vec(any::<u8>(), 0..4097),
                bit in any::<usize>(),
            ) {
                let key: [u8; 16] = key.try_into().unwrap();
                let expected = reference_tag(&key, &msg);
                for b in aes::backends() {
                    let cmac = CmacAes128::with_backend(&key, &b);
                    prop_assert_eq!(cmac.tag(&msg), expected, "{} backend", b.name());
                    prop_assert!(cmac.verify(&msg, &expected), "{} backend", b.name());
                    let mut bad_tag = expected;
                    bad_tag[bit / 8 % 16] ^= 1 << (bit % 8);
                    prop_assert!(!cmac.verify(&msg, &bad_tag), "{} backend, tag", b.name());
                    if !msg.is_empty() {
                        let mut bad_msg = msg.clone();
                        bad_msg[bit / 8 % msg.len()] ^= 1 << (bit % 8);
                        prop_assert!(!cmac.verify(&bad_msg, &expected), "{} backend, msg", b.name());
                    }
                }
            }
        }
    }
}
