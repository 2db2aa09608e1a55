//! SHA-256 compression on the x86 SHA extensions (SHA-NI).
//!
//! This module and its child [`avx512`] hold all of the SHA-2 code's
//! `unsafe`, and the one condition it rests on: the three kernel functions
//! here execute `sha256rnds2`, `sha256msg1`, `sha256msg2`, `pshufb` and
//! `pblendw`, so they may only run on a CPU that reports `sha`, `ssse3`
//! and `sse4.1`; the lane kernel in [`avx512`] needs `avx512f`. Each
//! module's `kernel()` is the only way to reach its functions and hands
//! them out only after checking exactly that, so no caller — in this crate
//! or outside it — can get the check wrong.
//!
//! The instruction sequence is the one from Intel's "SHA Extensions"
//! white paper: the state lives in two registers as `ABEF`/`CDGH`, each
//! `sha256rnds2` does two rounds, and the message schedule for the next
//! four rounds is computed by `sha256msg1`/`sha256msg2` while the current
//! four retire. `pair2` runs two such states, one step of each in turn.

pub(super) mod avx512;

use super::{Backend, IV256, K256, PAD64};
use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

/// The SHA-NI backend, if this CPU can run it.
pub(super) fn kernel() -> Option<Backend> {
    let supported = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3");
    supported.then_some(Backend {
        name: "sha-ni",
        compress: compress_checked,
        pair: pair_checked,
        pair2: pair2_checked,
        lanes: None,
    })
}

fn compress_checked(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: this function is private and leaves the module only as a
    // field of the `Backend` that `kernel()` builds after
    // `is_x86_feature_detected!` confirmed `sha`, `sse4.1` and `ssse3`,
    // the features `compress` is compiled for.
    unsafe { compress(state, blocks) }
}

fn pair_checked(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    // SAFETY: as in `compress_checked` — reachable only through
    // `kernel()`, after the `sha`/`sse4.1`/`ssse3` check.
    unsafe { pair(left, right) }
}

fn pair2_checked(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32], d: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
    // SAFETY: as in `compress_checked` — reachable only through
    // `kernel()`, after the `sha`/`sse4.1`/`ssse3` check.
    unsafe { pair2(a, b, c, d) }
}

/// Byte shuffle that turns four little-endian loaded words big-endian.
#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn be_mask() -> __m128i {
    _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203)
}

/// Four message words from 16 bytes of input.
#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn load_words(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a reference to 16 readable bytes and
    // `_mm_loadu_si128` has no alignment requirement.
    let raw = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
    _mm_shuffle_epi8(raw, be_mask())
}

/// `[a, b, c, d, e, f, g, h]` into the `ABEF`/`CDGH` register layout
/// `sha256rnds2` works on.
#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn pack_state(state: &[u32; 8]) -> (__m128i, __m128i) {
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    (_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h))
}

#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn unpack_state(abef: __m128i, cdgh: __m128i) -> [u32; 8] {
    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    let mut out = [0u32; 8];
    // SAFETY: `out` is 32 writable bytes, so both 16-byte halves are in
    // bounds; `_mm_storeu_si128` has no alignment requirement.
    unsafe {
        _mm_storeu_si128(out.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(out.as_mut_ptr().add(4).cast(), hgfe);
    }
    out
}

/// One 64-byte block per lane, each given as its sixteen big-endian words
/// in four registers, folded into that lane's packed `(ABEF, CDGH)` state.
/// The lanes are independent hashes; running them step by step side by
/// side lets one lane's `sha256rnds2` issue while the other's retires.
#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn block_rounds<const N: usize>(lanes: &mut [(__m128i, __m128i); N], mut w: [[__m128i; 4]; N]) {
    let input = *lanes;
    for i in 0..16 {
        let [k0, k1, k2, k3] = [
            K256[4 * i],
            K256[4 * i + 1],
            K256[4 * i + 2],
            K256[4 * i + 3],
        ];
        let k = _mm_set_epi32(k3 as i32, k2 as i32, k1 as i32, k0 as i32);
        for (w, (abef, cdgh)) in w.iter_mut().zip(lanes.iter_mut()) {
            if i >= 4 {
                // W[4i..4i+4] from the previous sixteen words.
                let [w0, w1, w2, w3] = [w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]];
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                w[i % 4] = _mm_sha256msg2_epu32(partial, w3);
            }
            let wk = _mm_add_epi32(w[i % 4], k);
            *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
            *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
    }
    for ((abef, cdgh), (abef_in, cdgh_in)) in lanes.iter_mut().zip(input) {
        *abef = _mm_add_epi32(*abef, abef_in);
        *cdgh = _mm_add_epi32(*cdgh, cdgh_in);
    }
}

#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn block_words(block: &[u8; 64]) -> [__m128i; 4] {
    let (quarters, _) = block.as_chunks::<16>();
    [
        load_words(&quarters[0]),
        load_words(&quarters[1]),
        load_words(&quarters[2]),
        load_words(&quarters[3]),
    ]
}

/// Folds whole 64-byte blocks into `state`; a trailing partial block is
/// ignored (the caller never passes one).
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    let mut lane = [pack_state(state)];
    for block in blocks.as_chunks::<64>().0 {
        block_rounds(&mut lane, [block_words(block)]);
    }
    let [(abef, cdgh)] = lane;
    *state = unpack_state(abef, cdgh);
}

/// The message words of `left ‖ right`, loaded straight from the halves.
#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn pair_words(left: &[u8; 32], right: &[u8; 32]) -> [__m128i; 4] {
    let (l, _) = left.as_chunks::<16>();
    let (r, _) = right.as_chunks::<16>();
    [
        load_words(&l[0]),
        load_words(&l[1]),
        load_words(&r[0]),
        load_words(&r[1]),
    ]
}

/// `SHA-256(l ‖ r)` for each lane's `(l, r)`: the message block straight
/// from the two halves, then the constant padding block of a 64-byte
/// message.
#[inline]
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn pairs<const N: usize>(halves: [(&[u8; 32], &[u8; 32]); N]) -> [[u8; 32]; N] {
    let p = PAD64.map(|w| w as i32);
    let padding = [
        _mm_set_epi32(p[3], p[2], p[1], p[0]),
        _mm_set_epi32(p[7], p[6], p[5], p[4]),
        _mm_set_epi32(p[11], p[10], p[9], p[8]),
        _mm_set_epi32(p[15], p[14], p[13], p[12]),
    ];
    let mut lanes = [pack_state(&IV256); N];
    block_rounds(&mut lanes, halves.map(|(l, r)| pair_words(l, r)));
    block_rounds(&mut lanes, [padding; N]);
    lanes.map(|(abef, cdgh)| super::state_bytes(&unpack_state(abef, cdgh)))
}

#[target_feature(enable = "sha,sse4.1,ssse3")]
fn pair(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    let [out] = pairs([(left, right)]);
    out
}

/// Two independent pair hashes in one interleaved pass.
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn pair2(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32], d: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
    let [x, y] = pairs([(a, b), (c, d)]);
    (x, y)
}
