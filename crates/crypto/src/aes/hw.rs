//! The CMAC chain on the x86 AES instructions (AES-NI).
//!
//! Like `sha2::hw`, this module holds its own `unsafe` and the one
//! condition it rests on: [`chain`] executes `aesenc`, `aesenclast` and
//! SSE2 loads, stores and XORs, so it may only run on a CPU that reports
//! `aes` and `sse2`. [`kernel`] is the only way to reach it and hands it
//! out only after checking exactly that.
//!
//! The round keys are the ones [`Aes128::new`] expands: FIPS 197 lays the
//! state out column by column, byte 0 first, which is the byte order
//! `aesenc` reads from a register, so each round key loads unchanged.

use super::{Aes128, Backend};
use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_setzero_si128,
    _mm_storeu_si128, _mm_xor_si128,
};

/// The AES-NI backend, if this CPU can run it.
pub(super) fn kernel() -> Option<Backend> {
    let supported = is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2");
    supported.then_some(Backend {
        name: "aes-ni",
        chain: chain_checked,
    })
}

fn chain_checked(cipher: &Aes128, blocks: &[u8], last: &[u8; 16]) -> [u8; 16] {
    // SAFETY: this function is private and leaves the module only as a
    // field of the `Backend` that `kernel()` builds after
    // `is_x86_feature_detected!` confirmed `aes` and `sse2`, the features
    // `chain` is compiled for.
    unsafe { chain(cipher, blocks, last) }
}

#[inline]
#[target_feature(enable = "aes,sse2")]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a reference to 16 readable bytes and
    // `_mm_loadu_si128` has no alignment requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// `E_k(x ⊕ block)`: the key-whitening XOR folded into the chaining XOR,
/// nine full rounds, the last round without MixColumns.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn encrypt_xor(keys: &[__m128i; 11], x: __m128i, block: __m128i) -> __m128i {
    let mut s = _mm_xor_si128(_mm_xor_si128(x, block), keys[0]);
    for key in &keys[1..10] {
        s = _mm_aesenc_si128(s, *key);
    }
    _mm_aesenclast_si128(s, keys[10])
}

/// The CBC-MAC chain from a zero block over every whole 16-byte block of
/// `blocks` (a trailing partial block is ignored; the caller never passes
/// one), then over `last`.
#[target_feature(enable = "aes,sse2")]
fn chain(cipher: &Aes128, blocks: &[u8], last: &[u8; 16]) -> [u8; 16] {
    let mut keys = [_mm_setzero_si128(); 11];
    for (key, bytes) in keys.iter_mut().zip(&cipher.round_keys) {
        *key = load(bytes);
    }
    let mut x = _mm_setzero_si128();
    for block in blocks.as_chunks::<16>().0 {
        x = encrypt_xor(&keys, x, load(block));
    }
    x = encrypt_xor(&keys, x, load(last));
    let mut out = [0u8; 16];
    // SAFETY: `out` is 16 writable bytes; `_mm_storeu_si128` has no
    // alignment requirement.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), x) };
    out
}
