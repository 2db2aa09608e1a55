//! SHA-256 and SHA-512 (FIPS 180-4), implemented from scratch.
//!
//! SHA-256 produces the 32-byte digests used for batch digests, block hashes
//! and state checkpoints. SHA-512 is required internally by Ed25519
//! (RFC 8032). Both are validated against the FIPS known-answer vectors in
//! the tests below.
//!
//! SHA-256 has two interchangeable compression kernels: the portable one in
//! this file and the SHA-NI one in [`hw`], picked once per process by CPU
//! feature detection ([`backend`]). The tests drive both over the same
//! inputs; nothing outside the tests and benches can tell them apart.

use std::sync::OnceLock;

/// SHA-256 round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-512 round constants.
const K512: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

/// SHA-256 initial hash value (FIPS 180-4 §5.3.3).
const IV256: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The padding block that follows a message of exactly 64 bytes: `0x80`,
/// zeros, and the bit length 512. Every interior Merkle node hashes 64
/// bytes, so [`sha256_pair`] compresses this same block every time.
const PAD64: [u32; 16] = [0x8000_0000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 512];

/// `K256[i] + W[i]` for [`PAD64`], expanded at compile time: the portable
/// `sha256_pair` runs its second compression as 64 bare rounds.
const PAD64_WK: [u32; 64] = expand(PAD64);

/// The SHA-NI kernel: the crate's only `unsafe`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw;

/// One implementation of the SHA-256 compression function.
///
/// Which one a process uses is decided by what its CPU can run
/// ([`backend`]), never by configuration: every backend produces the same
/// digests, so there is nothing to choose. The type is public only so that
/// benches and tests can put the backends side by side ([`backends`]).
#[derive(Debug, Clone, Copy)]
pub struct Backend {
    name: &'static str,
    /// Folds whole 64-byte blocks (`blocks.len() % 64 == 0`) into `state`.
    compress: fn(state: &mut [u32; 8], blocks: &[u8]),
    /// `SHA-256(left ‖ right)` in one shot.
    pair: fn(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32],
    /// Two independent `pair`s, `(SHA-256(a ‖ b), SHA-256(c ‖ d))`.
    pair2: Pair2,
}

type Pair2 = fn(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32], d: &[u8; 32]) -> ([u8; 32], [u8; 32]);

const PORTABLE: Backend = Backend {
    name: "portable",
    compress: compress_portable,
    pair: pair_portable,
    pair2: |a, b, c, d| (pair_portable(a, b), pair_portable(c, d)),
};

impl Backend {
    /// `"sha-ni"` or `"portable"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// A fresh hasher that compresses with this backend.
    pub(crate) fn hasher(&self) -> Sha256 {
        Sha256 {
            state: IV256,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
            compress: self.compress,
        }
    }

    /// One-shot SHA-256 over `data` with this backend.
    pub fn sha256(&self, data: &[u8]) -> [u8; 32] {
        let mut h = self.hasher();
        h.update(data);
        h.finalize()
    }

    /// `SHA-256(left ‖ right)` with this backend.
    pub fn sha256_pair(&self, left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
        (self.pair)(left, right)
    }

    /// `(SHA-256(a ‖ b), SHA-256(c ‖ d))` with this backend.
    pub fn sha256_pair2(
        &self,
        a: &[u8; 32],
        b: &[u8; 32],
        c: &[u8; 32],
        d: &[u8; 32],
    ) -> ([u8; 32], [u8; 32]) {
        (self.pair2)(a, b, c, d)
    }
}

/// The hardware backend, if this CPU has one.
fn hardware() -> Option<Backend> {
    #[cfg(target_arch = "x86_64")]
    return hw::kernel();
    #[cfg(not(target_arch = "x86_64"))]
    None
}

/// The backend every digest in this process is computed with: SHA-NI where
/// the CPU has it, the portable code otherwise. Detected once.
pub fn backend() -> &'static Backend {
    static SELECTED: OnceLock<Backend> = OnceLock::new();
    SELECTED.get_or_init(|| hardware().unwrap_or(PORTABLE))
}

/// Every backend this CPU can run, the selected one first.
pub fn backends() -> impl Iterator<Item = Backend> {
    hardware().into_iter().chain([PORTABLE])
}

/// Message schedule of one block with the round constants folded in:
/// `out[i] = K256[i] + W[i]`.
const fn expand(block: [u32; 16]) -> [u32; 64] {
    let mut w = [0u32; 64];
    let mut i = 0;
    while i < 16 {
        w[i] = block[i];
        i += 1;
    }
    while i < 64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
        i += 1;
    }
    i = 0;
    while i < 64 {
        w[i] = w[i].wrapping_add(K256[i]);
        i += 1;
    }
    w
}

/// The 64 rounds of one compression over an expanded schedule `wk`
/// (see [`expand`]), including the final feed-forward into `state`.
fn rounds(state: &mut [u32; 8], wk: &[u32; 64]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for &wk_i in wk {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(wk_i);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Big-endian words of `bytes` into `words` (`bytes.len() == 4 * words.len()`).
fn load_be(words: &mut [u32], bytes: &[u8]) {
    for (w, b) in words.iter_mut().zip(bytes.chunks_exact(4)) {
        *w = u32::from_be_bytes(b.try_into().expect("exact 4-byte chunk"));
    }
}

fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (o, s) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&s.to_be_bytes());
    }
    out
}

fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        load_be(&mut w, block);
        rounds(state, &expand(w));
    }
}

fn pair_portable(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let mut w = [0u32; 16];
    load_be(&mut w[..8], left);
    load_be(&mut w[8..], right);
    let mut state = IV256;
    rounds(&mut state, &expand(w));
    rounds(&mut state, &PAD64_WK);
    state_bytes(&state)
}

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    /// Bytes pending in `buf`; always `< 64` between calls.
    buf_len: usize,
    total_len: u64,
    compress: fn(&mut [u32; 8], &[u8]),
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the process's [`backend`].
    pub fn new() -> Self {
        backend().hasher()
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Block-aligned input is compressed straight out of the caller's
    /// slice — the internal buffer is only touched for the ragged head
    /// (completing a partial block) and tail (carrying a partial block).
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            (self.compress)(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // The whole run of full blocks goes to the kernel in one call, read
        // in place from the caller's bytes.
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            (self.compress)(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the hash, producing the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding is written where it lands: `0x80`, zeros up to the last
        // eight bytes of a block (spilling into a second block when fewer
        // than nine bytes are free), then the message length in bits.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            (self.compress)(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        (self.compress)(&mut self.state, &self.buf);
        state_bytes(&self.state)
    }
}

/// One-shot SHA-256 over `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    backend().sha256(data)
}

/// SHA-256 over the logical concatenation of `parts`, without building the
/// concatenation: each part streams into the hasher, so multi-part digests
/// (history chaining, header-plus-payload hashes) never allocate a scratch
/// buffer.
pub fn sha256_parts(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

/// `SHA-256(left ‖ right)` for two 32-byte halves — an interior Merkle
/// node. Bit-identical to `sha256` over the 64-byte concatenation, without
/// a hasher: the halves are compressed from where they lie, and the
/// padding block that always follows 64 bytes of message is a constant.
pub fn sha256_pair(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    backend().sha256_pair(left, right)
}

/// Two independent [`sha256_pair`]s, `(SHA-256(a ‖ b), SHA-256(c ‖ d))`:
/// the SHA-NI kernel runs both through one interleaved pass, which is
/// cheaper than two (the Merkle flush hashes each level two parents at a
/// time); the portable kernel runs them one after the other.
pub fn sha256_pair2(
    a: &[u8; 32],
    b: &[u8; 32],
    c: &[u8; 32],
    d: &[u8; 32],
) -> ([u8; 32], [u8; 32]) {
    backend().sha256_pair2(a, b, c, d)
}

/// Incremental SHA-512 hasher.
#[derive(Debug, Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buf: [u8; 128],
    buf_len: usize,
    total_len: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha512 {
            state: [
                0x6a09e667f3bcc908,
                0xbb67ae8584caa73b,
                0x3c6ef372fe94f82b,
                0xa54ff53a5f1d36f1,
                0x510e527fade682d1,
                0x9b05688c2b3e6c1f,
                0x1f83d9abfb41bd6b,
                0x5be0cd19137e2179,
            ],
            buf: [0u8; 128],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Block-aligned input is compressed straight out of the caller's
    /// slice, as in [`Sha256::update`].
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = 128 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 128 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        let mut chunks = rest.chunks_exact(128);
        for block in chunks.by_ref() {
            self.compress(block.try_into().expect("exact 128-byte chunk"));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finishes the hash, producing the 64-byte digest.
    pub fn finalize(mut self) -> [u8; 64] {
        // Padding written in place, as in [`Sha256::finalize`]; the length
        // field is sixteen bytes here.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 112 {
            let block = self.buf;
            self.compress(&block);
            self.buf.fill(0);
        }
        self.buf[112..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 64];
        for (i, s) in self.state.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&s.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 128]) {
        let mut w = [0u64; 80];
        for i in 0..16 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&block[i * 8..i * 8 + 8]);
            w[i] = u64::from_be_bytes(b);
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K512[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-512 over `data`.
pub fn sha512(data: &[u8]) -> [u8; 64] {
    let mut h = Sha512::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Asserts the known answer on the selected backend and on every other
    /// backend this CPU can run.
    fn assert_sha256(data: &[u8], expected_hex: &str) {
        assert_eq!(hex(&sha256(data)), expected_hex, "selected backend");
        for b in backends() {
            assert_eq!(hex(&b.sha256(data)), expected_hex, "{} backend", b.name());
        }
    }

    // FIPS 180-4 known-answer vectors.
    #[test]
    fn sha256_empty() {
        assert_sha256(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn sha256_abc() {
        assert_sha256(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn sha256_two_block_message() {
        assert_sha256(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn sha256_million_a() {
        assert_sha256(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        // Feed in irregular chunk sizes to cross block boundaries.
        let mut h = Sha256::new();
        let mut pos = 0;
        for (i, chunk) in [1usize, 63, 64, 65, 127, 128, 300, 252].iter().enumerate() {
            let end = (pos + chunk).min(data.len());
            h.update(&data[pos..end]);
            pos = end;
            let _ = i;
        }
        h.update(&data[pos..]);
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            hex(&sha512(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            hex(&sha512(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
    }

    #[test]
    fn sha512_two_block_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&sha512(msg)),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
             501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
        );
    }

    #[test]
    fn sha512_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..5000).map(|i| (i % 241) as u8).collect();
        let oneshot = sha512(&data);
        let mut h = Sha512::new();
        for chunk in data.chunks(97) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn sha256_parts_matches_concatenation() {
        let a = vec![0x11u8; 37];
        let b = vec![0x22u8; 64];
        let c = vec![0x33u8; 1];
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        concat.extend_from_slice(&c);
        assert_eq!(sha256_parts(&[&a, &b, &c]), sha256(&concat));
        assert_eq!(sha256_parts(&[]), sha256(b""));
        assert_eq!(sha256_parts(&[&[], &a, &[]]), sha256(&a));
    }

    #[test]
    fn block_aligned_update_matches_buffered() {
        // Exercise the direct-compress path: exact multiples of the block
        // size, fed whole and in aligned halves.
        let data: Vec<u8> = (0..512).map(|i| (i * 7 % 256) as u8).collect();
        let oneshot = sha256(&data);
        let mut h = Sha256::new();
        h.update(&data[..256]);
        h.update(&data[256..]);
        assert_eq!(h.finalize(), oneshot);
        let one512 = sha512(&data);
        let mut h = Sha512::new();
        h.update(&data[..128]);
        h.update(&data[128..]);
        assert_eq!(h.finalize(), one512);
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha512(b"a")[..32], sha512(b"b")[..32]);
    }

    /// The straightforward FIPS 180-4 §5.1 padding, built as bytes: what
    /// `finalize` must be equivalent to without ever materializing it.
    fn padded(data: &[u8], block: usize, len_bytes: usize) -> Vec<u8> {
        let mut m = data.to_vec();
        m.push(0x80);
        while !(m.len() + len_bytes).is_multiple_of(block) {
            m.push(0);
        }
        let bits = (data.len() as u128) * 8;
        m.extend_from_slice(&bits.to_be_bytes()[16 - len_bytes..]);
        m
    }

    #[test]
    fn sha256_padding_boundaries() {
        // 55 is the longest message whose padding fits its own block; 56
        // spills; 63/64 and 119/120 repeat the pattern one block on.
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 121, 127, 128] {
            let data: Vec<u8> = (0..len).map(|i| (i * 13 + 5) as u8).collect();
            let blocks = padded(&data, 64, 8);
            assert_eq!(blocks.len(), (len + 9).div_ceil(64) * 64, "len {len}");
            for b in backends() {
                let mut state = IV256;
                (b.compress)(&mut state, &blocks);
                assert_eq!(
                    b.sha256(&data),
                    state_bytes(&state),
                    "{} backend, len {len}",
                    b.name()
                );
            }
        }
        // Pinned against an independent implementation, so the reference
        // above cannot share a mistake with `finalize`.
        assert_sha256(
            &[b'a'; 55],
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
        );
        assert_sha256(
            &[b'a'; 56],
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
        );
        assert_sha256(
            &[b'a'; 64],
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
        );
    }

    #[test]
    fn sha512_padding_boundaries() {
        for len in [0usize, 1, 111, 112, 113, 127, 128, 129, 239, 240] {
            let data: Vec<u8> = (0..len).map(|i| (i * 11 + 3) as u8).collect();
            let blocks = padded(&data, 128, 16);
            assert_eq!(blocks.len(), (len + 17).div_ceil(128) * 128, "len {len}");
            let mut h = Sha512::new();
            for block in blocks.chunks_exact(128) {
                h.compress(block.try_into().unwrap());
            }
            let mut expected = [0u8; 64];
            for (o, s) in expected.chunks_exact_mut(8).zip(h.state) {
                o.copy_from_slice(&s.to_be_bytes());
            }
            assert_eq!(sha512(&data), expected, "len {len}");
        }
        assert_eq!(
            hex(&sha512(&[b'a'; 111])),
            "fa9121c7b32b9e01733d034cfc78cbf67f926c7ed83e82200ef86818196921760b4beff48404df811b953828274461673c68d04e297b0eb7b2b4d60fc6b566a2"
        );
        assert_eq!(
            hex(&sha512(&[b'a'; 112])),
            "c01d080efd492776a1c43bd23dd99d0a2e626d481e16782e75d54c2503b5dc32bd05f0f1ba33e568b88fd2d970929b719ecbb152f58f130a407c8830604b70ca"
        );
    }

    #[test]
    fn sha256_pair_is_sha256_of_the_concatenation() {
        let mut left = [0u8; 32];
        let mut right = [0u8; 32];
        for round in 0..64u8 {
            let mut concat = [0u8; 64];
            concat[..32].copy_from_slice(&left);
            concat[32..].copy_from_slice(&right);
            let expected = sha256(&concat);
            assert_eq!(sha256_pair(&left, &right), expected);
            for b in backends() {
                assert_eq!(b.sha256_pair(&left, &right), expected, "{}", b.name());
            }
            // Chain the output back in so every round sees fresh bytes.
            left = expected;
            right = sha256(&[round]);
        }
    }

    #[test]
    fn pad64_schedule_is_the_expansion_of_the_padding_block() {
        let block = padded(&[0u8; 64], 64, 8);
        let mut w = [0u32; 16];
        load_be(&mut w, &block[64..]);
        assert_eq!(w, PAD64);
        assert_eq!(PAD64_WK, expand(w));
    }

    /// Says on the real stderr (the test harness captures `eprintln!`, not
    /// this) which backend the process selected and whether the hardware
    /// half of the differential tests ran, so a green run on a CPU without
    /// SHA-NI cannot be mistaken for a tested kernel.
    #[test]
    fn report_backend() {
        use std::io::Write;
        let ran: Vec<&str> = backends().map(|b| b.name()).collect();
        let hw = if ran.contains(&"sha-ni") {
            "sha-ni kernel tested against portable"
        } else {
            "sha-ni kernel NOT RUN (cpu lacks sha/sse4.1/ssse3): portable only"
        };
        let _ = writeln!(
            std::io::stderr(),
            "sha256 backend: selected={} differential={hw}",
            backend().name()
        );
        assert_eq!(backend().name(), ran[0]);
        assert_eq!(*ran.last().unwrap(), "portable");
    }

    mod differential {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Every backend present, fed the same message through the
            /// same random `update` split points, lands on the digest the
            /// portable one-shot produces.
            #[test]
            fn backends_agree_over_random_messages_and_splits(
                data in proptest::collection::vec(any::<u8>(), 0..1025),
                cuts in proptest::collection::vec(any::<u16>(), 0..8),
            ) {
                let expected = PORTABLE.sha256(&data);
                let mut cuts: Vec<usize> =
                    cuts.iter().map(|c| *c as usize % (data.len() + 1)).collect();
                cuts.sort_unstable();
                for b in backends() {
                    let mut h = b.hasher();
                    let mut from = 0;
                    for &cut in &cuts {
                        h.update(&data[from..cut]);
                        from = cut;
                    }
                    h.update(&data[from..]);
                    prop_assert_eq!(h.finalize(), expected, "{} backend", b.name());
                }
            }

            #[test]
            fn pair_agrees_across_backends(
                left in proptest::collection::vec(any::<u8>(), 32..33),
                right in proptest::collection::vec(any::<u8>(), 32..33),
            ) {
                let (left, right): ([u8; 32], [u8; 32]) =
                    (left.try_into().unwrap(), right.try_into().unwrap());
                let expected = PORTABLE.sha256(&[left, right].concat());
                for b in backends() {
                    prop_assert_eq!(b.sha256_pair(&left, &right), expected, "{} backend", b.name());
                }
            }

            /// Every backend's `pair2` is its `pair` twice, over distinct
            /// halves and over four identical ones.
            #[test]
            fn pair2_is_two_pairs_on_every_backend(
                bytes in proptest::collection::vec(any::<u8>(), 128..129),
            ) {
                let (halves, _) = bytes.as_chunks::<32>();
                let [a, b, c, d] = [halves[0], halves[1], halves[2], halves[3]];
                for bk in backends() {
                    let twice = (bk.sha256_pair(&a, &b), bk.sha256_pair(&c, &d));
                    prop_assert_eq!(bk.sha256_pair2(&a, &b, &c, &d), twice, "{} backend", bk.name());
                    let same = bk.sha256_pair(&a, &a);
                    prop_assert_eq!(bk.sha256_pair2(&a, &a, &a, &a), (same, same), "{} backend", bk.name());
                    prop_assert_eq!(twice.0, PORTABLE.sha256(&[a, b].concat()));
                }
            }
        }
    }
}
