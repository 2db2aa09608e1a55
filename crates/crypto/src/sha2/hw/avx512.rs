//! Sixteen SHA-256 compressions side by side on AVX-512F.
//!
//! A 512-bit register holds the same word of sixteen independent hashes,
//! one per 32-bit lane, so each instruction advances all sixteen and the
//! FIPS 180-4 round is written once, lane-parallel: the rotations are
//! `vprord`, and `Ch`, `Maj` and the three-way XORs are one `vpternlogd`
//! each. SHA-NI runs one round pair per instruction but on one message
//! (two interleaved, [`super::pair2`]); these lanes keep sixteen in flight.
//!
//! The messages arrive one per register, so a 16×16 word transpose turns
//! them into word-per-register form on the way in, and a second one turns
//! the eight state registers back into sixteen digests on the way out.
//! Nothing here needs more than AVX-512F: byte order is swapped with two
//! rotations and a blend, not with `vpshufb` (AVX-512BW).

use super::super::{Lanes, IV256, K256, PAD64_WK};
use core::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_mask_storeu_epi32, _mm512_rol_epi32,
    _mm512_ror_epi32, _mm512_set1_epi32, _mm512_setzero_si512, _mm512_shuffle_i32x4,
    _mm512_srli_epi32, _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64,
    _mm512_unpacklo_epi32, _mm512_unpacklo_epi64,
};

/// The 16-lane kernel, if this CPU can run it.
pub(in crate::sha2) fn kernel() -> Option<Lanes> {
    is_x86_feature_detected!("avx512f").then_some(Lanes { hash: hash_checked })
}

fn hash_checked(blocks: &[&[u8; 64]; 16], pad64: bool) -> [[u8; 32]; 16] {
    // SAFETY: this function is private and leaves the module only as the
    // field of the `Lanes` that `kernel()` builds after
    // `is_x86_feature_detected!` confirmed `avx512f`, the one feature
    // `hash` is compiled for.
    unsafe { hash(blocks, pad64) }
}

/// Lane `i` compresses `blocks[i]` from the initial hash value and, when
/// `pad64`, then the padding block of a 64-byte message.
#[target_feature(enable = "avx512f")]
fn hash(blocks: &[&[u8; 64]; 16], pad64: bool) -> [[u8; 32]; 16] {
    let rows = blocks.map(|block| {
        // SAFETY: `block` is a reference to 64 readable bytes and
        // `_mm512_loadu_si512` has no alignment requirement.
        unsafe { _mm512_loadu_si512(block.as_ptr().cast()) }
    });
    let words = transpose(rows).map(|w| big_endian(w));
    let mut state = IV256.map(|v| _mm512_set1_epi32(v as i32));
    compress(&mut state, words);
    if pad64 {
        compress_expanded(&mut state, &PAD64_WK);
    }
    let zero = _mm512_setzero_si512();
    let [a, b, c, d, e, f, g, h] = state.map(|s| big_endian(s));
    let digests = transpose([
        a, b, c, d, e, f, g, h, zero, zero, zero, zero, zero, zero, zero, zero,
    ]);
    let mut out = [[0u8; 32]; 16];
    for (out, digest) in out.iter_mut().zip(digests) {
        // SAFETY: the mask stores the low eight 32-bit words, exactly the
        // 32 writable bytes of `out`; masked-off words are not touched and
        // `_mm512_mask_storeu_epi32` has no alignment requirement.
        unsafe { _mm512_mask_storeu_epi32(out.as_mut_ptr().cast(), 0x00ff, digest) };
    }
    out
}

/// Word `j` of row `i` becomes word `i` of row `j`: four rounds of
/// interleaving, at 32-bit, 64-bit and twice at 128-bit granularity.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose(r: [__m512i; 16]) -> [__m512i; 16] {
    let mut t = r;
    for k in 0..8 {
        t[2 * k] = _mm512_unpacklo_epi32(r[2 * k], r[2 * k + 1]);
        t[2 * k + 1] = _mm512_unpackhi_epi32(r[2 * k], r[2 * k + 1]);
    }
    // 128-bit lane `l` of `u[4k + j]`: word `4l + j` of rows `4k..4k + 4`.
    let mut u = t;
    for k in 0..4 {
        let [a, b, c, d] = [t[4 * k], t[4 * k + 1], t[4 * k + 2], t[4 * k + 3]];
        u[4 * k] = _mm512_unpacklo_epi64(a, c);
        u[4 * k + 1] = _mm512_unpackhi_epi64(a, c);
        u[4 * k + 2] = _mm512_unpacklo_epi64(b, d);
        u[4 * k + 3] = _mm512_unpackhi_epi64(b, d);
    }
    // Gather those 128-bit lanes: 0x88 takes lanes 0 and 2 of each
    // operand, 0xdd lanes 1 and 3.
    let mut v = u;
    for j in 0..4 {
        v[j] = _mm512_shuffle_i32x4(u[j], u[4 + j], 0x88);
        v[4 + j] = _mm512_shuffle_i32x4(u[j], u[4 + j], 0xdd);
        v[8 + j] = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0x88);
        v[12 + j] = _mm512_shuffle_i32x4(u[8 + j], u[12 + j], 0xdd);
    }
    let mut out = v;
    for j in 0..4 {
        out[j] = _mm512_shuffle_i32x4(v[j], v[8 + j], 0x88);
        out[8 + j] = _mm512_shuffle_i32x4(v[j], v[8 + j], 0xdd);
        out[4 + j] = _mm512_shuffle_i32x4(v[4 + j], v[12 + j], 0x88);
        out[12 + j] = _mm512_shuffle_i32x4(v[4 + j], v[12 + j], 0xdd);
    }
    out
}

/// Reverses the bytes of every 32-bit word: bytes 3 and 1 come from the
/// rotation right by 8, bytes 2 and 0 from the rotation left by 8.
#[inline]
#[target_feature(enable = "avx512f")]
fn big_endian(x: __m512i) -> __m512i {
    let odd = _mm512_set1_epi32(0xff00_ff00u32 as i32);
    _mm512_ternarylogic_epi32(odd, _mm512_ror_epi32(x, 8), _mm512_rol_epi32(x, 8), 0xca)
}

#[inline]
#[target_feature(enable = "avx512f")]
fn add(a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi32(a, b)
}

/// `a ^ b ^ c`.
#[inline]
#[target_feature(enable = "avx512f")]
fn xor3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
    _mm512_ternarylogic_epi32(a, b, c, 0x96)
}

/// One round over every lane, with `wk = K[i] + W[i]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn round(s: &mut [__m512i; 8], wk: __m512i) {
    let [a, b, c, d, e, f, g, h] = *s;
    let sigma1 = xor3(
        _mm512_ror_epi32(e, 6),
        _mm512_ror_epi32(e, 11),
        _mm512_ror_epi32(e, 25),
    );
    // Ch(e, f, g) = e ? f : g, bitwise; Maj(a, b, c) = the majority bit.
    let ch = _mm512_ternarylogic_epi32(e, f, g, 0xca);
    let t1 = add(add(h, sigma1), add(ch, wk));
    let sigma0 = xor3(
        _mm512_ror_epi32(a, 2),
        _mm512_ror_epi32(a, 13),
        _mm512_ror_epi32(a, 22),
    );
    let t2 = add(sigma0, _mm512_ternarylogic_epi32(a, b, c, 0xe8));
    *s = [add(t1, t2), a, b, c, add(d, t1), e, f, g];
}

/// Expands `$body` once for each round of a group of sixteen, with the
/// constant `$r` bound to the round's index in the group: every index into
/// the message schedule is then a constant, so the schedule and the state
/// stay in registers instead of an array indexed at run time.
macro_rules! sixteen_rounds {
    ($r:ident => $body:block) => {
        sixteen_rounds!(@ $r $body 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
    };
    (@ $r:ident $body:block $($i:literal)*) => {
        $({
            const $r: usize = $i;
            $body
        })*
    };
}

/// One block per lane, given as its sixteen message words, folded into
/// `state`. The schedule is extended in place, sixteen words at a time.
#[inline]
#[target_feature(enable = "avx512f")]
fn compress(state: &mut [__m512i; 8], mut w: [__m512i; 16]) {
    let input = *state;
    for group in 0..4 {
        sixteen_rounds!(R => {
            if group > 0 {
                // W[i] = σ1(W[i - 2]) + W[i - 7] + σ0(W[i - 15]) + W[i - 16].
                let w15 = w[(R + 1) % 16];
                let w2 = w[(R + 14) % 16];
                let s0 = xor3(
                    _mm512_ror_epi32(w15, 7),
                    _mm512_ror_epi32(w15, 18),
                    _mm512_srli_epi32(w15, 3),
                );
                let s1 = xor3(
                    _mm512_ror_epi32(w2, 17),
                    _mm512_ror_epi32(w2, 19),
                    _mm512_srli_epi32(w2, 10),
                );
                w[R] = add(add(w[R], s0), add(w[(R + 9) % 16], s1));
            }
            let k = _mm512_set1_epi32(K256[16 * group + R] as i32);
            round(state, add(w[R], k));
        });
    }
    for (s, input) in state.iter_mut().zip(input) {
        *s = add(*s, input);
    }
}

/// One block whose schedule, round constants included, is the same in
/// every lane and known in advance (see `super::super::expand`).
#[inline]
#[target_feature(enable = "avx512f")]
fn compress_expanded(state: &mut [__m512i; 8], wk: &[u32; 64]) {
    let input = *state;
    for group in 0..4 {
        sixteen_rounds!(R => {
            round(state, _mm512_set1_epi32(wk[16 * group + R] as i32));
        });
    }
    for (s, input) in state.iter_mut().zip(input) {
        *s = add(*s, input);
    }
}
