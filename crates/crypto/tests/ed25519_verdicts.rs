//! A pinned verdict corpus for Ed25519 verification: adversarial keys and
//! signatures whose accept/reject verdicts from `verify` are recorded as
//! constants.
//! Any change to the field or curve arithmetic must leave every verdict
//! as recorded here.
//!
//! The corpus covers:
//! - small-order (torsion) points `[ℓ]P`, derived from seeded random curve
//!   points `P`, used as the public key `A`, as the nonce point `R`, and
//!   added to a valid `A` (a mixed-order key);
//! - non-canonical `y` encodings (`y ≥ p`) for `R` and for `A`;
//! - `S = ℓ`, `S = ℓ + 1` and the malleated `S + ℓ`;
//! - one flipped bit in each of `R`, `S` and the message.
//!
//! Verification is cofactorless (`S·B − k·A − R == 𝒪`).

use rdb_crypto::ed25519::{Ed25519PublicKey, EdwardsPoint};
use rdb_crypto::scalar25519::{mul_add, reduce512};
use rdb_crypto::sha2::sha512;

/// ℓ, little-endian.
const L_LE: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
];

/// `p = 2^255 − 19`, little-endian.
const P_LE: [u8; 32] = [
    0xed, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
];

const ZERO: [u8; 32] = [0u8; 32];

/// `a·b mod ℓ`.
fn mul(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    mul_add(a, b, &ZERO)
}

/// A scalar mod ℓ derived from a label.
fn scalar(label: &str) -> [u8; 32] {
    reduce512(&sha512(label.as_bytes()))
}

/// `k = SHA-512(R || A || M) mod ℓ`.
fn challenge(r: &[u8; 32], a: &[u8; 32], msg: &[u8]) -> [u8; 32] {
    let mut buf = Vec::with_capacity(64 + msg.len());
    buf.extend_from_slice(r);
    buf.extend_from_slice(a);
    buf.extend_from_slice(msg);
    reduce512(&sha512(&buf))
}

fn basemul(s: &[u8; 32]) -> EdwardsPoint {
    EdwardsPoint::basepoint().scalar_mul(s)
}

fn sig(r: &[u8; 32], s: &[u8; 32]) -> [u8; 64] {
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(r);
    out[32..].copy_from_slice(s);
    out
}

/// The small-order component `[ℓ]P` of the `n`-th seeded random curve
/// point `P` outside the prime-order subgroup (a point of order 2, 4 or 8).
fn torsion(n: u32) -> EdwardsPoint {
    let mut found = 0;
    for attempt in 0u32.. {
        let mut y = [0u8; 32];
        y.copy_from_slice(&sha512(format!("corpus point {attempt}").as_bytes())[..32]);
        y[31] &= 0x7f;
        y[31] |= (attempt as u8 & 1) << 7;
        if let Some(p) = EdwardsPoint::decompress(&y) {
            let t = p.scalar_mul(&L_LE);
            if t == EdwardsPoint::identity() {
                continue;
            }
            if found == n {
                return t;
            }
            found += 1;
        }
    }
    unreachable!()
}

/// One corpus entry: the encoded key, the message and the signature.
struct Case {
    name: &'static str,
    key: [u8; 32],
    msg: Vec<u8>,
    sig: [u8; 64],
}

/// An honest signature under secret scalar `a` (public key `a·B`).
fn honest(name: &'static str, a: &[u8; 32], msg: &[u8]) -> Case {
    let key = basemul(a).compress();
    let r = scalar(&format!("nonce {name}"));
    let r_bytes = basemul(&r).compress();
    let k = challenge(&r_bytes, &key, msg);
    Case {
        name,
        key,
        msg: msg.to_vec(),
        sig: sig(&r_bytes, &mul_add(&k, a, &r)),
    }
}

fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    let msg = b"corpus message: transfer 10 from alice to bob".to_vec();

    for i in 0..4 {
        let name: &'static str = ["valid 0", "valid 1", "valid 2", "valid 3"][i];
        let a = scalar(&format!("secret {i}"));
        cases.push(honest(name, &a, &format!("{i} {}", msg.len()).into_bytes()));
    }

    let a = scalar("secret torsion");
    let a_point = basemul(&a);
    let r = scalar("nonce torsion");
    let r_point = basemul(&r);
    let r_bytes = r_point.compress();
    for (t, names) in [
        (
            0u32,
            [
                "small-order A (P0)",
                "small-order R (P0)",
                "mixed-order A (P0)",
                "R + torsion (P0)",
            ],
        ),
        (
            1,
            [
                "small-order A (P1)",
                "small-order R (P1)",
                "mixed-order A (P1)",
                "R + torsion (P1)",
            ],
        ),
        (
            2,
            [
                "small-order A (P2)",
                "small-order R (P2)",
                "mixed-order A (P2)",
                "R + torsion (P2)",
            ],
        ),
        (
            3,
            [
                "small-order A (P3)",
                "small-order R (P3)",
                "mixed-order A (P3)",
                "R + torsion (P3)",
            ],
        ),
    ] {
        let tp = torsion(t);
        let t_bytes = tp.compress();
        // A = T: S·B − k·T − R = −k·T with S = r.
        let k = challenge(&r_bytes, &t_bytes, &msg);
        let _ = k;
        cases.push(Case {
            name: names[0],
            key: t_bytes,
            msg: msg.clone(),
            sig: sig(&r_bytes, &r),
        });
        // R = T under an honest key: S = k·a leaves −T.
        let key = a_point.compress();
        let k = challenge(&t_bytes, &key, &msg);
        cases.push(Case {
            name: names[1],
            key,
            msg: msg.clone(),
            sig: sig(&t_bytes, &mul(&k, &a)),
        });
        // A = a·B + T, S = r + k·a: leaves −k·T.
        let mixed = a_point.add(&tp).compress();
        let k = challenge(&r_bytes, &mixed, &msg);
        cases.push(Case {
            name: names[2],
            key: mixed,
            msg: msg.clone(),
            sig: sig(&r_bytes, &mul_add(&k, &a, &r)),
        });
        // R = r·B + T under an honest key, S = r + k·a: leaves −T.
        let rt = r_point.add(&tp).compress();
        let k = challenge(&rt, &key, &msg);
        cases.push(Case {
            name: names[3],
            key,
            msg: msg.clone(),
            sig: sig(&rt, &mul_add(&k, &a, &r)),
        });
    }

    // R with y ≥ p: p + 1 encodes the identity (y = 1), p encodes y = 0;
    // S is what the canonical reading of R would need.
    let key = a_point.compress();
    for (name, mut enc, s_for_canonical) in [
        ("R = p + 1 (identity)", P_LE, true),
        ("R = p (y = 0)", P_LE, false),
        ("R = p + 1 with sign bit", P_LE, true),
    ] {
        if s_for_canonical {
            enc[0] += 1;
        }
        if name.ends_with("sign bit") {
            enc[31] |= 0x80;
        }
        let k = challenge(&enc, &key, &msg);
        let s = if s_for_canonical { mul(&k, &a) } else { r };
        cases.push(Case {
            name,
            key,
            msg: msg.clone(),
            sig: sig(&enc, &s),
        });
    }

    // S = ℓ, S = ℓ + 1, S + ℓ over an honest signature.
    let base = honest("S base", &a, &msg);
    let mut l_plus_1 = L_LE;
    l_plus_1[0] += 1;
    let malleated = {
        let mut s = [0u8; 32];
        let mut carry = 0u16;
        for i in 0..32 {
            let v = base.sig[32 + i] as u16 + L_LE[i] as u16 + carry;
            s[i] = v as u8;
            carry = v >> 8;
        }
        s
    };
    for (name, s) in [
        ("S = l", L_LE),
        ("S = l + 1", l_plus_1),
        ("S + l", malleated),
    ] {
        let mut r_part = [0u8; 32];
        r_part.copy_from_slice(&base.sig[..32]);
        cases.push(Case {
            name,
            key: base.key,
            msg: base.msg.clone(),
            sig: sig(&r_part, &s),
        });
    }

    // One flipped bit in R, in S and in the message.
    for (name, bit) in [
        ("flip R bit 0", 0usize),
        ("flip R bit 200", 200),
        ("flip S bit 3", 259),
        ("flip S bit 250", 506),
    ] {
        let mut c = honest(name, &a, &msg);
        c.sig[bit / 8] ^= 1 << (bit % 8);
        cases.push(c);
    }
    let mut c = honest("flip message bit", &a, &msg);
    c.msg[5] ^= 0x10;
    cases.push(c);

    cases
}

fn verdict_string(v: impl IntoIterator<Item = bool>) -> String {
    v.into_iter().map(|b| if b { '1' } else { '0' }).collect()
}

/// Keys with `y ≥ p` never parse, so no signature under them verifies.
#[test]
fn non_canonical_keys_never_parse() {
    let mut p_plus_1 = P_LE;
    p_plus_1[0] += 1;
    let mut p_plus_1_signed = p_plus_1;
    p_plus_1_signed[31] |= 0x80;
    let mut p_signed = P_LE;
    p_signed[31] |= 0x80;
    let parsed: Vec<bool> = [P_LE, p_plus_1, p_plus_1_signed, p_signed]
        .iter()
        .map(|k| Ed25519PublicKey::from_bytes(k).is_some())
        .collect();
    assert_eq!(verdict_string(parsed), A_NON_CANONICAL_PARSES);
}

/// The verdict of `verify` for every corpus entry, in order; `-` marks a
/// key that does not parse.
const SINGLE: &str = "1111000000001000100000000000000";
/// Whether each `y ≥ p` key encoding parses.
const A_NON_CANONICAL_PARSES: &str = "0000";

#[test]
fn verdicts_match_the_recorded_corpus() {
    let cases = corpus();
    let keys: Vec<Option<Ed25519PublicKey>> = cases
        .iter()
        .map(|c| Ed25519PublicKey::from_bytes(&c.key))
        .collect();
    let single: String = cases
        .iter()
        .zip(&keys)
        .map(|(c, k)| match k {
            None => '-',
            Some(k) if k.verify(&c.msg, &c.sig) => '1',
            Some(_) => '0',
        })
        .collect();
    let names: Vec<&str> = cases.iter().map(|c| c.name).collect();
    assert_eq!(single, SINGLE, "single verdicts for {names:?}");
}
