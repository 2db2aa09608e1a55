//! Field arithmetic modulo `p = 2^255 - 19` in radix-2^51.
//!
//! Elements are five 64-bit limbs; products are accumulated in `u128` with
//! the `19·` folding that makes reduction modulo `2^255 - 19` cheap. This
//! is the standard unsaturated-limb representation used by production
//! Curve25519 implementations, written from scratch here.
//!
//! # Limb bounds
//!
//! Every limb of every [`Fe`] is below 2^54. Reduction is lazy, so the
//! operations differ in what they accept and produce:
//!
//! - [`Fe::mul`], [`Fe::square`] and [`Fe::sub`] accept limbs below 2^54
//!   and return *tight* limbs, below 2^52; so do [`Fe::neg`],
//!   [`Fe::from_bytes`] and every constant here;
//! - [`Fe::add`] does no carrying: it accepts limbs below 2^53 (a tight
//!   element qualifies) and returns limbs below 2^54, fit for `mul`,
//!   `square` and `sub` but not for another `add`.
//!
//! The bounds are debug-asserted at each operation's entry. Within them no
//! `u64` or `u128` accumulation can overflow: a product term is below
//! `19·2^108`, a column of five below 2^115.
//!
//! This implementation favours clarity over constant-time guarantees; it is
//! a research artifact, not a hardened library (ARCHITECTURE.md, "Scope").

const MASK51: u64 = (1u64 << 51) - 1;

/// A field element modulo `2^255 - 19`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fe(pub [u64; 5]);

/// Whether every limb is below `2^bits`.
fn limbs_below(x: &Fe, bits: u32) -> bool {
    x.0.iter().all(|&l| l >> bits == 0)
}

#[allow(clippy::should_implement_trait)] // math naming (add/sub/mul/neg) is deliberate
impl Fe {
    /// Additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// Multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Loads a field element from 32 little-endian bytes (top bit ignored,
    /// per RFC 7748 conventions).
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load8 = |b: &[u8]| -> u64 {
            let mut a = [0u8; 8];
            a.copy_from_slice(&b[..8]);
            u64::from_le_bytes(a)
        };
        let mut h = [0u64; 5];
        h[0] = load8(&bytes[0..]) & MASK51;
        h[1] = (load8(&bytes[6..]) >> 3) & MASK51;
        h[2] = (load8(&bytes[12..]) >> 6) & MASK51;
        h[3] = (load8(&bytes[19..]) >> 1) & MASK51;
        h[4] = (load8(&bytes[24..]) >> 12) & MASK51;
        Fe(h)
    }

    /// Serializes to 32 little-endian bytes in fully-reduced canonical form.
    pub fn to_bytes(self) -> [u8; 32] {
        let t = self.reduced();
        // Compute h mod p exactly: add 19, propagate, then use the carry
        // out of the top limb to decide whether to fold 19 back in.
        let mut q = (t.0[0] + 19) >> 51;
        q = (t.0[1] + q) >> 51;
        q = (t.0[2] + q) >> 51;
        q = (t.0[3] + q) >> 51;
        q = (t.0[4] + q) >> 51;
        let mut h = t.0;
        h[0] += 19 * q;
        let mut carry;
        carry = h[0] >> 51;
        h[0] &= MASK51;
        h[1] += carry;
        carry = h[1] >> 51;
        h[1] &= MASK51;
        h[2] += carry;
        carry = h[2] >> 51;
        h[2] &= MASK51;
        h[3] += carry;
        carry = h[3] >> 51;
        h[3] &= MASK51;
        h[4] += carry;
        h[4] &= MASK51;

        let mut out = [0u8; 32];
        let write = |out: &mut [u8; 32], bit_off: usize, v: u64| {
            // OR 51 bits of v into the byte array at bit offset bit_off.
            let mut v = v as u128;
            v <<= bit_off % 8;
            let byte0 = bit_off / 8;
            for i in 0..8 {
                if byte0 + i < 32 {
                    out[byte0 + i] |= (v >> (8 * i)) as u8;
                }
            }
        };
        write(&mut out, 0, h[0]);
        write(&mut out, 51, h[1]);
        write(&mut out, 102, h[2]);
        write(&mut out, 153, h[3]);
        write(&mut out, 204, h[4]);
        out
    }

    /// Weakly reduces any limbs to tight ones (value unchanged mod p).
    #[inline]
    fn reduced(self) -> Fe {
        let mut h = self.0;
        let c0 = h[0] >> 51;
        h[0] &= MASK51;
        h[1] += c0;
        let c1 = h[1] >> 51;
        h[1] &= MASK51;
        h[2] += c1;
        let c2 = h[2] >> 51;
        h[2] &= MASK51;
        h[3] += c2;
        let c3 = h[3] >> 51;
        h[3] &= MASK51;
        h[4] += c3;
        let c4 = h[4] >> 51;
        h[4] &= MASK51;
        h[0] += 19 * c4;
        Fe(h)
    }

    /// `self + other`, limb by limb with no carry (see the module's limb
    /// bounds).
    #[inline]
    pub fn add(self, other: Fe) -> Fe {
        debug_assert!(limbs_below(&self, 53) && limbs_below(&other, 53));
        Fe([
            self.0[0] + other.0[0],
            self.0[1] + other.0[1],
            self.0[2] + other.0[2],
            self.0[3] + other.0[3],
            self.0[4] + other.0[4],
        ])
    }

    /// `self - other`: adds `16p` first, which every limb of `other` is
    /// below, then carries.
    #[inline]
    pub fn sub(self, other: Fe) -> Fe {
        // 16p in radix-51: (2^55 - 304, 2^55 - 16, ...).
        const SIXTEEN_P0: u64 = 0x7FFFFFFFFFFED0;
        const SIXTEEN_PI: u64 = 0x7FFFFFFFFFFFF0;
        debug_assert!(limbs_below(&self, 54) && limbs_below(&other, 54));
        Fe([
            self.0[0] + SIXTEEN_P0 - other.0[0],
            self.0[1] + SIXTEEN_PI - other.0[1],
            self.0[2] + SIXTEEN_PI - other.0[2],
            self.0[3] + SIXTEEN_PI - other.0[3],
            self.0[4] + SIXTEEN_PI - other.0[4],
        ])
        .reduced()
    }

    /// `-self`.
    #[inline]
    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// `self * other`: 25 limb products, inputs taken as they are.
    #[inline]
    pub fn mul(self, other: Fe) -> Fe {
        debug_assert!(limbs_below(&self, 54) && limbs_below(&other, 54));
        let a = &self.0;
        let b = &other.0;
        // 19·b[i] fits a u64: b[i] < 2^54.
        let b1_19 = 19 * b[1];
        let b2_19 = 19 * b[2];
        let b3_19 = 19 * b[3];
        let b4_19 = 19 * b[4];
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let t0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let t1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let t2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let t3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let t4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        Self::carry128([t0, t1, t2, t3, t4])
    }

    /// `self * self`: the 15 distinct limb products of a square.
    #[inline]
    pub fn square(self) -> Fe {
        debug_assert!(limbs_below(&self, 54));
        let a = &self.0;
        let a0_2 = 2 * a[0];
        let a1_2 = 2 * a[1];
        let a2_2 = 2 * a[2];
        let a3_19 = 19 * a[3];
        let a4_19 = 19 * a[4];
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let t0 = m(a[0], a[0]) + m(a1_2, a4_19) + m(a2_2, a3_19);
        let t1 = m(a0_2, a[1]) + m(a2_2, a4_19) + m(a[3], a3_19);
        let t2 = m(a0_2, a[2]) + m(a[1], a[1]) + m(2 * a[3], a4_19);
        let t3 = m(a0_2, a[3]) + m(a1_2, a[2]) + m(a[4], a4_19);
        let t4 = m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]);
        Self::carry128([t0, t1, t2, t3, t4])
    }

    /// `self^(2^k)`: `k` squarings in a row.
    fn pow2k(self, k: u32) -> Fe {
        let mut t = self;
        for _ in 0..k {
            t = t.square();
        }
        t
    }

    /// Carries five column sums (each below 2^115) into tight limbs.
    #[inline]
    fn carry128(mut t: [u128; 5]) -> Fe {
        t[1] += t[0] >> 51;
        t[2] += t[1] >> 51;
        t[3] += t[2] >> 51;
        t[4] += t[3] >> 51;
        // t[4] < 5·2^108 + 2^64, so its carry is below 2^59.4 and 19 times
        // it still fits a u64.
        let c = (t[4] >> 51) as u64;
        let mut out = [
            (t[0] as u64) & MASK51,
            (t[1] as u64) & MASK51,
            (t[2] as u64) & MASK51,
            (t[3] as u64) & MASK51,
            (t[4] as u64) & MASK51,
        ];
        out[0] += 19 * c;
        out[1] += out[0] >> 51;
        out[0] &= MASK51;
        Fe(out)
    }

    /// `(self^(2^250 - 1), self^11)`: the shared prefix of the inversion
    /// and square-root addition chains (from the curve25519 reference
    /// implementation).
    fn pow22501(self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.pow2k(2).mul(self);
        let z11 = z9.mul(z2);
        let z2_5_0 = z11.square().mul(z9);
        let z2_10_0 = z2_5_0.pow2k(5).mul(z2_5_0);
        let z2_20_0 = z2_10_0.pow2k(10).mul(z2_10_0);
        let z2_40_0 = z2_20_0.pow2k(20).mul(z2_20_0);
        let z2_50_0 = z2_40_0.pow2k(10).mul(z2_10_0);
        let z2_100_0 = z2_50_0.pow2k(50).mul(z2_50_0);
        let z2_200_0 = z2_100_0.pow2k(100).mul(z2_100_0);
        let z2_250_0 = z2_200_0.pow2k(50).mul(z2_50_0);
        (z2_250_0, z11)
    }

    /// Raises to the power `2^255 - 21` (i.e. `p - 2`), giving the inverse.
    pub fn invert(self) -> Fe {
        let (z2_250_0, z11) = self.pow22501();
        z2_250_0.pow2k(5).mul(z11)
    }

    /// Raises to the power `(p - 5) / 8 = 2^252 - 3`, used in square-root
    /// extraction during point decompression.
    pub fn pow_p58(self) -> Fe {
        let (z2_250_0, _) = self.pow22501();
        z2_250_0.pow2k(2).mul(self)
    }

    /// Whether the canonical encoding is odd (the "sign" bit of x).
    pub fn is_odd(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Whether this element is zero.
    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }
}

/// `sqrt(-1) mod p`, needed during decompression.
pub fn sqrt_m1() -> Fe {
    static CACHE: std::sync::OnceLock<Fe> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        // Canonical little-endian encoding of 2^((p-1)/4).
        const BYTES: [u8; 32] = [
            0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18,
            0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f,
            0x80, 0x24, 0x83, 0x2b,
        ];
        Fe::from_bytes(&BYTES)
    })
}

/// The Edwards curve constant `d = -121665/121666 mod p`.
pub fn edwards_d() -> Fe {
    static CACHE: std::sync::OnceLock<Fe> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        const BYTES: [u8; 32] = [
            0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a,
            0x70, 0x00, 0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b,
            0xee, 0x6c, 0x03, 0x52,
        ];
        Fe::from_bytes(&BYTES)
    })
}

/// `2d`, the constant the extended-coordinate addition formula actually
/// consumes — cached so the point-addition hot path (hundreds of calls per
/// scalar multiplication) does not re-derive it from bytes every time.
pub fn edwards_d2() -> Fe {
    static CACHE: std::sync::OnceLock<Fe> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| edwards_d().add(edwards_d()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::BigUint;
    use proptest::prelude::*;

    fn fe(v: u64) -> Fe {
        Fe([v & MASK51, 0, 0, 0, 0]).reduced()
    }

    #[test]
    fn add_sub_identities() {
        let a = fe(12345);
        assert_eq!(a.add(Fe::ZERO).to_bytes(), a.to_bytes());
        assert_eq!(a.sub(a).to_bytes(), Fe::ZERO.to_bytes());
        assert_eq!(a.sub(Fe::ZERO).to_bytes(), a.to_bytes());
    }

    #[test]
    fn mul_identities() {
        let a = fe(987_654_321);
        assert_eq!(a.mul(Fe::ONE).to_bytes(), a.to_bytes());
        assert_eq!(a.mul(Fe::ZERO).to_bytes(), Fe::ZERO.to_bytes());
    }

    #[test]
    fn small_multiplication() {
        assert_eq!(fe(6).mul(fe(7)).to_bytes(), fe(42).to_bytes());
        assert_eq!(fe(6).square().to_bytes(), fe(36).to_bytes());
    }

    #[test]
    fn inverse_round_trips() {
        for v in [1u64, 2, 19, 12345, 0xffff_ffff] {
            let a = fe(v);
            let inv = a.invert();
            assert_eq!(
                a.mul(inv).to_bytes(),
                Fe::ONE.to_bytes(),
                "1/{v} * {v} != 1"
            );
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = sqrt_m1();
        let minus_one = Fe::ZERO.sub(Fe::ONE);
        assert_eq!(i.square().to_bytes(), minus_one.to_bytes());
    }

    #[test]
    fn edwards_d_value() {
        // d * 121666 == -121665 (mod p)
        let d = edwards_d();
        let lhs = d.mul(fe(121_666));
        let rhs = fe(121_665).neg();
        assert_eq!(lhs.to_bytes(), rhs.to_bytes());
    }

    #[test]
    fn byte_round_trip_canonical() {
        // p - 1 should round trip; p should reduce to zero.
        let mut p_minus_1 = [0u8; 32];
        p_minus_1[0] = 0xec;
        for b in p_minus_1.iter_mut().skip(1).take(30) {
            *b = 0xff;
        }
        p_minus_1[31] = 0x7f;
        let a = Fe::from_bytes(&p_minus_1);
        assert_eq!(a.to_bytes(), p_minus_1);

        let mut p_bytes = p_minus_1;
        p_bytes[0] = 0xed; // p itself
        let b = Fe::from_bytes(&p_bytes);
        assert_eq!(b.to_bytes(), [0u8; 32]);
    }

    #[test]
    fn subtraction_wraps_correctly() {
        // 0 - 1 == p - 1
        let r = Fe::ZERO.sub(Fe::ONE);
        let mut expected = [0u8; 32];
        expected[0] = 0xec;
        for b in expected.iter_mut().skip(1).take(30) {
            *b = 0xff;
        }
        expected[31] = 0x7f;
        assert_eq!(r.to_bytes(), expected);
    }

    /// The value of `x` as an integer (not reduced mod p).
    fn big(x: Fe) -> BigUint {
        (0..5).rev().fold(BigUint::zero(), |acc, i| {
            acc.shl(51).add(&BigUint::from_u64(x.0[i]))
        })
    }

    fn big_p() -> BigUint {
        BigUint::one().shl(255).sub(&BigUint::from_u64(19))
    }

    /// Elements with arbitrary limbs below `2^bits`; one case in four has
    /// every limb at the bound's edge, `2^bits − 1`.
    struct Loose(u32);

    impl Strategy for Loose {
        type Value = Fe;
        fn generate(&self, rng: &mut proptest::TestRng) -> Fe {
            let edge = rng.next_u64().is_multiple_of(4);
            Fe([(); 5].map(|_| {
                let limb = rng.next_u64() >> (64 - self.0);
                if edge {
                    (1 << self.0) - 1
                } else {
                    limb
                }
            }))
        }
    }

    fn loose(bits: u32) -> Loose {
        Loose(bits)
    }

    proptest! {
        #[test]
        fn square_matches_mul(a in loose(54)) {
            prop_assert_eq!(a.square(), a.mul(a));
        }

        /// Each operation's output stays within the module's stated limb
        /// bounds, for inputs at the edge of what it accepts, and has the
        /// right value mod p.
        #[test]
        fn ops_stay_within_limb_bounds(a in loose(54), b in loose(54), c in loose(53), d in loose(53)) {
            let p = big_p();
            let tight = |x: Fe| x.0.iter().all(|&l| l < 1 << 52);
            let prod = a.mul(b);
            prop_assert!(tight(prod));
            prop_assert_eq!(big(prod).rem(&p), big(a).mul(&big(b)).rem(&p));
            let sq = a.square();
            prop_assert!(tight(sq));
            prop_assert_eq!(big(sq).rem(&p), big(a).mul(&big(a)).rem(&p));
            let diff = a.sub(b);
            prop_assert!(tight(diff));
            prop_assert_eq!(
                big(diff).add(&big(b)).rem(&p),
                big(a).rem(&p)
            );
            prop_assert!(tight(a.neg()));
            prop_assert!(tight(Fe::from_bytes(&a.to_bytes())));
            let sum = c.add(d);
            prop_assert!(sum.0.iter().all(|&l| l < 1 << 54));
            prop_assert_eq!(big(sum), big(c).add(&big(d)));
            prop_assert!(tight(a.invert()) && tight(a.pow_p58()));
        }

        #[test]
        fn mul_commutes(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(fe(a).mul(fe(b)).to_bytes(), fe(b).mul(fe(a)).to_bytes());
        }

        #[test]
        fn add_assoc(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let l = fe(a).add(fe(b)).add(fe(c));
            let r = fe(a).add(fe(b).add(fe(c)));
            prop_assert_eq!(l.to_bytes(), r.to_bytes());
        }

        #[test]
        fn distributive(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let l = fe(a).mul(fe(b).add(fe(c)));
            let r = fe(a).mul(fe(b)).add(fe(a).mul(fe(c)));
            prop_assert_eq!(l.to_bytes(), r.to_bytes());
        }

        #[test]
        fn bytes_round_trip(bytes in proptest::array::uniform32(any::<u8>())) {
            let mut canonical = bytes;
            canonical[31] &= 0x7f; // clear the unused top bit
            let a = Fe::from_bytes(&canonical);
            let back = Fe::from_bytes(&a.to_bytes());
            prop_assert_eq!(a.to_bytes(), back.to_bytes());
        }
    }
}
