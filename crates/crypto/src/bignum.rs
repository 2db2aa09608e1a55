//! Arbitrary-precision unsigned integers for RSA and scalar reduction.
//!
//! Little-endian `u64` limbs, schoolbook multiplication, binary long
//! division, Montgomery modular exponentiation for odd moduli, extended
//! Euclid for modular inverses, and Miller–Rabin primality testing. Sized
//! for 512–2048-bit RSA work, not general-purpose big-number computing.

use rand::RngCore;
use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs,
/// normalized so the most significant limb is non-zero).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from a single limb.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes (no leading zeros; zero → empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the top limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Whether this equals one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Number of significant bits.
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// The `i`-th bit (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Compares two values.
    pub fn cmp_val(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for i in 0..longer.len() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = longer[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`.
    ///
    /// # Panics
    /// Panics if `other > self` (unsigned subtraction must not underflow).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp_val(other) != Ordering::Less,
            "BigUint::sub would underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shifts left by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Shifts right by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Binary long division: returns `(quotient, remainder)`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_val(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        let bits = self.bit_len();
        let mut quotient_limbs = vec![0u64; self.limbs.len()];
        let mut rem = BigUint::zero();
        for i in (0..bits).rev() {
            rem = rem.shl(1);
            if self.bit(i) {
                if rem.is_zero() {
                    rem = BigUint::one();
                } else {
                    rem.limbs[0] |= 1;
                }
            }
            if rem.cmp_val(divisor) != Ordering::Less {
                rem = rem.sub(divisor);
                quotient_limbs[i / 64] |= 1 << (i % 64);
            }
        }
        let mut q = BigUint {
            limbs: quotient_limbs,
        };
        q.normalize();
        (q, rem)
    }

    /// `self mod m`.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.divrem(m).1
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery multiplication for odd `m`, plain divide-and-reduce
    /// otherwise.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow modulus must be non-zero");
        if m.is_one() {
            return BigUint::zero();
        }
        if m.is_odd() {
            Montgomery::new(m).modpow(self, exp)
        } else {
            // Rare path (even modulus): square-and-multiply with division.
            let base = self.rem(m);
            let mut result = BigUint::one();
            let mut acc = base;
            for i in 0..exp.bit_len() {
                if exp.bit(i) {
                    result = result.mul(&acc).rem(m);
                }
                acc = acc.mul(&acc).rem(m);
            }
            result
        }
    }

    /// Modular inverse `self^{-1} mod m` via extended Euclid, if it exists.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Extended Euclid with sign-tracked coefficients for `self`.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = (BigUint::zero(), false); // (magnitude, negative?)
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q * t1 with sign tracking.
            let qt1 = q.mul(&t1.0);
            let t2 = match (t0.1, t1.1) {
                (false, false) => {
                    if t0.0.cmp_val(&qt1) != Ordering::Less {
                        (t0.0.sub(&qt1), false)
                    } else {
                        (qt1.sub(&t0.0), true)
                    }
                }
                (true, true) => {
                    if qt1.cmp_val(&t0.0) != Ordering::Less {
                        (qt1.sub(&t0.0), false)
                    } else {
                        (t0.0.sub(&qt1), true)
                    }
                }
                (false, true) => (t0.0.add(&qt1), false),
                (true, false) => (t0.0.add(&qt1), true),
            };
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None; // gcd != 1, no inverse
        }
        let (mag, neg) = t0;
        let inv = if neg { m.sub(&mag.rem(m)) } else { mag.rem(m) };
        Some(inv.rem(m))
    }

    /// Uniformly random value with exactly `bits` bits (top bit set).
    pub fn random_bits(bits: usize, rng: &mut impl RngCore) -> BigUint {
        assert!(bits > 0, "need at least one bit");
        let limbs_needed = bits.div_ceil(64);
        let mut limbs = vec![0u64; limbs_needed];
        for l in &mut limbs {
            *l = rng.next_u64();
        }
        // Mask excess bits, then force the top bit.
        let top_bits = bits - (limbs_needed - 1) * 64;
        if top_bits < 64 {
            limbs[limbs_needed - 1] &= (1u64 << top_bits) - 1;
        }
        limbs[limbs_needed - 1] |= 1u64 << (top_bits - 1);
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn random_below(bound: &BigUint, rng: &mut impl RngCore) -> BigUint {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bit_len();
        loop {
            let limbs_needed = bits.div_ceil(64);
            let mut limbs = vec![0u64; limbs_needed];
            for l in &mut limbs {
                *l = rng.next_u64();
            }
            let top_bits = bits - (limbs_needed - 1) * 64;
            if top_bits < 64 {
                limbs[limbs_needed - 1] &= (1u64 << top_bits) - 1;
            }
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if candidate.cmp_val(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probable_prime(&self, rounds: usize, rng: &mut impl RngCore) -> bool {
        if self.is_zero() || self.is_one() {
            return false;
        }
        let two = BigUint::from_u64(2);
        if self.cmp_val(&two) == Ordering::Equal {
            return true;
        }
        if !self.is_odd() {
            return false;
        }
        // Quick trial division by small primes.
        for p in [
            3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
        ] {
            let pb = BigUint::from_u64(p);
            if self.cmp_val(&pb) == Ordering::Equal {
                return true;
            }
            if self.rem(&pb).is_zero() {
                return false;
            }
        }
        // Write self-1 = d * 2^s.
        let n_minus_1 = self.sub(&BigUint::one());
        let s = {
            let mut s = 0;
            while !n_minus_1.bit(s) {
                s += 1;
            }
            s
        };
        let d = n_minus_1.shr(s);
        'witness: for _ in 0..rounds {
            let bound = self.sub(&BigUint::from_u64(3));
            let a = BigUint::random_below(&bound, rng).add(&two);
            let mut x = a.modpow(&d, self);
            if x.is_one() || x.cmp_val(&n_minus_1) == Ordering::Equal {
                continue;
            }
            for _ in 0..s - 1 {
                x = x.modpow(&two, self);
                if x.cmp_val(&n_minus_1) == Ordering::Equal {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generates a random probable prime with exactly `bits` bits.
    pub fn gen_prime(bits: usize, rng: &mut impl RngCore) -> BigUint {
        assert!(bits >= 8, "prime must have at least 8 bits");
        loop {
            let mut candidate = BigUint::random_bits(bits, rng);
            candidate.limbs[0] |= 1; // force odd
            if candidate.is_probable_prime(20, rng) {
                return candidate;
            }
        }
    }
}

/// Montgomery context for repeated multiplication modulo an odd `n`.
struct Montgomery {
    n: Vec<u64>,
    n0_inv: u64,
    /// R^2 mod n where R = 2^(64k), used to convert into Montgomery form.
    rr: BigUint,
}

impl Montgomery {
    fn new(modulus: &BigUint) -> Self {
        debug_assert!(modulus.is_odd());
        let k = modulus.limbs.len();
        // n0_inv = -n[0]^{-1} mod 2^64 via Newton iteration.
        let n0 = modulus.limbs[0];
        let mut inv = n0; // correct to 3 bits since n0*n0 ≡ 1 (mod 8)
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        // R^2 mod n computed by shifting.
        let rr = BigUint::one().shl(2 * 64 * k).rem(modulus);
        Montgomery {
            n: modulus.limbs.clone(),
            n0_inv,
            rr,
        }
    }

    /// Montgomery product: returns `a * b * R^{-1} mod n` (inputs as k-limb
    /// slices in Montgomery form).
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let k = self.n.len();
        let mut t = vec![0u64; k + 2];
        for i in 0..k {
            // t += a[i] * b
            let ai = a.get(i).copied().unwrap_or(0) as u128;
            let mut carry = 0u128;
            for j in 0..k {
                let sum = t[j] as u128 + ai * b.get(j).copied().unwrap_or(0) as u128 + carry;
                t[j] = sum as u64;
                carry = sum >> 64;
            }
            let sum = t[k] as u128 + carry;
            t[k] = sum as u64;
            t[k + 1] = t[k + 1].wrapping_add((sum >> 64) as u64);
            // m = t[0] * n0_inv mod 2^64; t = (t + m*n) / 2^64
            let m = t[0].wrapping_mul(self.n0_inv) as u128;
            let mut carry = {
                let sum = t[0] as u128 + m * self.n[0] as u128;
                debug_assert_eq!(sum as u64, 0);
                sum >> 64
            };
            for j in 1..k {
                let sum = t[j] as u128 + m * self.n[j] as u128 + carry;
                t[j - 1] = sum as u64;
                carry = sum >> 64;
            }
            let sum = t[k] as u128 + carry;
            t[k - 1] = sum as u64;
            t[k] = t[k + 1].wrapping_add((sum >> 64) as u64);
            t[k + 1] = 0;
        }
        t.truncate(k + 1);
        // Conditional subtraction to bring into [0, n).
        let mut result = BigUint { limbs: t };
        result.normalize();
        let n_big = BigUint {
            limbs: self.n.clone(),
        };
        if result.cmp_val(&n_big) != Ordering::Less {
            result = result.sub(&n_big);
        }
        let mut limbs = result.limbs;
        limbs.resize(k, 0);
        limbs
    }

    fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let k = self.n.len();
        let n_big = BigUint {
            limbs: self.n.clone(),
        };
        let base_red = base.rem(&n_big);
        let mut base_limbs = base_red.limbs.clone();
        base_limbs.resize(k, 0);
        let mut rr = self.rr.limbs.clone();
        rr.resize(k, 0);
        // Convert base into Montgomery form: base * R mod n.
        let base_mont = self.mont_mul(&base_limbs, &rr);
        // one in Montgomery form: R mod n = mont_mul(1, R^2).
        let mut one = vec![0u64; k];
        one[0] = 1;
        let mut acc = self.mont_mul(&one, &rr);
        // Left-to-right square and multiply.
        for i in (0..exp.bit_len()).rev() {
            acc = self.mont_mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mont_mul(&acc, &base_mont);
            }
        }
        // Convert out of Montgomery form.
        let out = self.mont_mul(&acc, &one);
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn byte_round_trip() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(
            n.to_bytes_be(),
            vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]
        );
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
        // Leading zeros stripped.
        let n = BigUint::from_bytes_be(&[0x00, 0x00, 0xff]);
        assert_eq!(n.to_bytes_be(), vec![0xff]);
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(big(5).add(&big(7)), big(12));
        assert_eq!(big(12).sub(&big(7)), big(5));
        assert_eq!(big(6).mul(&big(7)), big(42));
        let (q, r) = big(43).divrem(&big(6));
        assert_eq!(q, big(7));
        assert_eq!(r, big(1));
    }

    #[test]
    fn carry_propagation() {
        let a = BigUint {
            limbs: vec![u64::MAX, u64::MAX],
        };
        let b = a.add(&BigUint::one());
        assert_eq!(b.limbs, vec![0, 0, 1]);
        assert_eq!(b.sub(&BigUint::one()).limbs, vec![u64::MAX, u64::MAX]);
    }

    #[test]
    fn shifts() {
        let a = big(0b1011);
        assert_eq!(a.shl(3), big(0b1011000));
        assert_eq!(a.shr(2), big(0b10));
        assert_eq!(a.shl(64).shr(64), a);
        assert_eq!(a.shl(100).bit_len(), 4 + 100);
    }

    #[test]
    fn modpow_small_cases() {
        // 2^10 mod 1000 = 24
        assert_eq!(big(2).modpow(&big(10), &big(1000)), big(24));
        // 3^0 = 1
        assert_eq!(big(3).modpow(&big(0), &big(7)), big(1));
        // Fermat: 2^(p-1) mod p = 1 for prime p.
        assert_eq!(big(2).modpow(&big(100), &big(101)), big(1));
        // odd modulus (Montgomery) and even modulus (fallback) agree
        assert_eq!(big(7).modpow(&big(13), &big(100)), big(7));
        assert_eq!(big(7).modpow(&big(13), &big(101)), big(75));
    }

    #[test]
    fn mod_inverse_small() {
        // 3 * 7 = 21 ≡ 1 mod 10
        assert_eq!(big(3).mod_inverse(&big(10)), Some(big(7)));
        // gcd(4, 8) != 1
        assert_eq!(big(4).mod_inverse(&big(8)), None);
        // 65537^{-1} mod a prime-ish modulus round-trips
        let m = big(999_999_937);
        let e = big(65_537);
        let d = e.mod_inverse(&m).unwrap();
        assert_eq!(e.mul(&d).rem(&m), BigUint::one());
    }

    #[test]
    fn miller_rabin_knowns() {
        let mut rng = StdRng::seed_from_u64(42);
        for p in [2u64, 3, 5, 101, 65_537, 2_147_483_647] {
            assert!(
                big(p).is_probable_prime(20, &mut rng),
                "{p} should be prime"
            );
        }
        for c in [
            1u64,
            4,
            100,
            65_535,
            561, /* Carmichael */
            2_147_483_649,
        ] {
            assert!(
                !big(c).is_probable_prime(20, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn gen_prime_has_requested_bits() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = BigUint::gen_prime(64, &mut rng);
        assert_eq!(p.bit_len(), 64);
        assert!(p.is_odd());
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let bound = big(1000);
        for _ in 0..100 {
            let r = BigUint::random_below(&bound, &mut rng);
            assert!(r.cmp_val(&bound) == Ordering::Less);
        }
    }

    proptest! {
        #[test]
        fn add_sub_round_trip(a in 0u64..u64::MAX/2, b in 0u64..u64::MAX/2) {
            let x = big(a).add(&big(b));
            prop_assert_eq!(x.sub(&big(b)), big(a));
        }

        #[test]
        fn mul_matches_u128(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let expected = a as u128 * b as u128;
            let got = big(a).mul(&big(b));
            let exp_big = BigUint::from_bytes_be(&expected.to_be_bytes());
            prop_assert_eq!(got, exp_big);
        }

        #[test]
        fn divrem_invariant(a in any::<u64>(), d in 1u64..u64::MAX) {
            let (q, r) = big(a).divrem(&big(d));
            prop_assert_eq!(q.mul(&big(d)).add(&r), big(a));
            prop_assert!(r.cmp_val(&big(d)) == Ordering::Less);
        }

        #[test]
        fn modpow_matches_naive(base in 0u64..1000, exp in 0u64..20, m in 3u64..10_000) {
            // Naive u128 computation for cross-checking.
            let mut expected = 1u128;
            for _ in 0..exp {
                expected = expected * base as u128 % m as u128;
            }
            prop_assert_eq!(
                big(base).modpow(&big(exp), &big(m)),
                BigUint::from_bytes_be(&(expected as u64).to_be_bytes())
            );
        }

        #[test]
        fn multi_limb_divrem(a_bytes in proptest::collection::vec(any::<u8>(), 1..40),
                             d_bytes in proptest::collection::vec(any::<u8>(), 1..20)) {
            let a = BigUint::from_bytes_be(&a_bytes);
            let d = BigUint::from_bytes_be(&d_bytes);
            prop_assume!(!d.is_zero());
            let (q, r) = a.divrem(&d);
            prop_assert_eq!(q.mul(&d).add(&r), a);
            prop_assert!(r.cmp_val(&d) == Ordering::Less);
        }

        #[test]
        fn montgomery_matches_plain(a_bytes in proptest::collection::vec(any::<u8>(), 1..24),
                                    e in 1u64..50,
                                    m_bytes in proptest::collection::vec(any::<u8>(), 1..16)) {
            let a = BigUint::from_bytes_be(&a_bytes);
            let mut m = BigUint::from_bytes_be(&m_bytes);
            prop_assume!(!m.is_zero());
            if !m.is_odd() { m = m.add(&BigUint::one()); }
            prop_assume!(!m.is_one());
            // Plain square-multiply with divrem (reference).
            let base = a.rem(&m);
            let mut reference = BigUint::one();
            let eb = big(e);
            let mut acc = base;
            for i in 0..eb.bit_len() {
                if eb.bit(i) { reference = reference.mul(&acc).rem(&m); }
                acc = acc.mul(&acc).rem(&m);
            }
            prop_assert_eq!(a.modpow(&eb, &m), reference);
        }
    }
}
