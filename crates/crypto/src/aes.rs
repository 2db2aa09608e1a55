//! AES-128 block cipher (FIPS 197), encryption direction only.
//!
//! CMAC (the replica↔replica authenticator in the paper's recommended
//! configuration) only needs the forward permutation, so decryption is not
//! implemented. Validated against the FIPS known-answer vector.
//!
//! CMAC's CBC-MAC chain has two interchangeable kernels: the portable,
//! byte-wise one in this file and the AES-NI one in [`hw`], picked once per
//! process by CPU feature detection ([`backend`]), exactly as `sha2` picks
//! its compression function. The tests drive both over the same inputs.

use std::sync::OnceLock;

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

fn xtime(b: u8) -> u8 {
    let hi = b & 0x80;
    let mut r = b << 1;
    if hi != 0 {
        r ^= 0x1b;
    }
    r
}

/// AES-128 with a pre-expanded key schedule.
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands `key` into the 11 round keys.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut rk = [[0u8; 16]; 11];
        rk[0] = *key;
        for round in 1..11 {
            let prev = rk[round - 1];
            let mut t = [prev[12], prev[13], prev[14], prev[15]];
            // RotWord + SubWord + Rcon
            t.rotate_left(1);
            for b in &mut t {
                *b = SBOX[*b as usize];
            }
            t[0] ^= RCON[round - 1];
            for i in 0..4 {
                rk[round][i] = prev[i] ^ t[i];
            }
            for i in 4..16 {
                rk[round][i] = prev[i] ^ rk[round][i - 4];
            }
        }
        Aes128 { round_keys: rk }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // State is column-major: byte (row, col) at index row + 4*col.
        let s = *state;
        for row in 1..4 {
            for col in 0..4 {
                state[row + 4 * col] = s[row + 4 * ((col + row) % 4)];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for col in 0..4 {
            let i = 4 * col;
            let a = [state[i], state[i + 1], state[i + 2], state[i + 3]];
            state[i] = xtime(a[0]) ^ (xtime(a[1]) ^ a[1]) ^ a[2] ^ a[3];
            state[i + 1] = a[0] ^ xtime(a[1]) ^ (xtime(a[2]) ^ a[2]) ^ a[3];
            state[i + 2] = a[0] ^ a[1] ^ xtime(a[2]) ^ (xtime(a[3]) ^ a[3]);
            state[i + 3] = (xtime(a[0]) ^ a[0]) ^ a[1] ^ a[2] ^ xtime(a[3]);
        }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            Self::sub_bytes(block);
            Self::shift_rows(block);
            Self::mix_columns(block);
            Self::add_round_key(block, &self.round_keys[round]);
        }
        Self::sub_bytes(block);
        Self::shift_rows(block);
        Self::add_round_key(block, &self.round_keys[10]);
    }

    /// Encrypts a copy of `block`, returning the ciphertext.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }
}

/// The AES-NI kernel: with `sha2::hw`, the crate's only `unsafe`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw;

/// One implementation of the CBC-MAC chain under CMAC.
///
/// Which one a process uses is decided by what its CPU can run
/// ([`backend`]), never by configuration: every backend produces the same
/// tags. The type is public only so that benches and tests can put the
/// backends side by side ([`backends`]).
#[derive(Debug, Clone, Copy)]
pub struct Backend {
    name: &'static str,
    /// `x ← E(x ⊕ b)` from `x = 0` over each whole 16-byte block `b` of
    /// `blocks` (`blocks.len() % 16 == 0`), then over `last`; returns `x`.
    pub(crate) chain: fn(cipher: &Aes128, blocks: &[u8], last: &[u8; 16]) -> [u8; 16],
}

const PORTABLE: Backend = Backend {
    name: "portable",
    chain: chain_portable,
};

impl Backend {
    /// `"aes-ni"` or `"portable"`.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

fn chain_portable(cipher: &Aes128, blocks: &[u8], last: &[u8; 16]) -> [u8; 16] {
    debug_assert!(blocks.len().is_multiple_of(16));
    let mut x = [0u8; 16];
    for block in blocks.chunks_exact(16).chain([&last[..]]) {
        for (xi, bi) in x.iter_mut().zip(block) {
            *xi ^= bi;
        }
        cipher.encrypt_block(&mut x);
    }
    x
}

/// The hardware backend, if this CPU has one.
fn hardware() -> Option<Backend> {
    #[cfg(target_arch = "x86_64")]
    return hw::kernel();
    #[cfg(not(target_arch = "x86_64"))]
    None
}

/// The backend every CMAC tag in this process is computed with: AES-NI
/// where the CPU has it, the portable code otherwise. Detected once.
pub fn backend() -> &'static Backend {
    static SELECTED: OnceLock<Backend> = OnceLock::new();
    SELECTED.get_or_init(|| hardware().unwrap_or(PORTABLE))
}

/// Every backend this CPU can run, the selected one first.
pub fn backends() -> impl Iterator<Item = Backend> {
    hardware().into_iter().chain([PORTABLE])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts the known answer on the block cipher and on every backend's
    /// chain this CPU can run: the chain over a one-block message is that
    /// block's encryption.
    fn assert_block(aes: &Aes128, pt: &[u8; 16], expected: &[u8; 16]) {
        assert_eq!(aes.encrypt(pt), *expected, "encrypt_block");
        for b in backends() {
            assert_eq!((b.chain)(aes, &[], pt), *expected, "{} backend", b.name());
        }
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS 197 Appendix B: key 2b7e1516..., plaintext 3243f6a8...
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_block(&Aes128::new(&key), &pt, &expected);
    }

    #[test]
    fn nist_sp800_38a_ecb_vector() {
        // SP 800-38A F.1.1 ECB-AES128 block #1.
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected = [
            0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
            0xef, 0x97,
        ];
        assert_block(&Aes128::new(&key), &pt, &expected);
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        let aes1 = Aes128::new(&[1; 16]);
        let aes2 = Aes128::new(&[2; 16]);
        let block = [7u8; 16];
        assert_eq!(aes1.encrypt(&block), aes1.encrypt(&block));
        assert_ne!(aes1.encrypt(&block), aes2.encrypt(&block));
    }

    /// Says on the real stderr (the test harness captures `eprintln!`, not
    /// this) which backend the process selected and whether the hardware
    /// half of the differential tests ran, so a green run on a CPU without
    /// AES-NI cannot be mistaken for a tested kernel.
    #[test]
    fn report_backend() {
        use std::io::Write;
        let ran: Vec<&str> = backends().map(|b| b.name()).collect();
        let hw = if ran.contains(&"aes-ni") {
            "aes-ni kernel tested against portable"
        } else {
            "aes-ni kernel NOT RUN (cpu lacks aes/sse2): portable only"
        };
        let _ = writeln!(
            std::io::stderr(),
            "aes backend: selected={} differential={hw}",
            backend().name()
        );
        assert_eq!(backend().name(), ran[0]);
        assert_eq!(*ran.last().unwrap(), "portable");
    }
}
