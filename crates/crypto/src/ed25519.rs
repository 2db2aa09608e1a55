//! Ed25519 signatures (RFC 8032), built on the radix-2^51 field arithmetic
//! in [`crate::field25519`].
//!
//! This is the client-facing digital signature scheme in the paper's
//! recommended configuration: clients sign requests with Ed25519 (for
//! non-repudiation), while replica↔replica traffic uses CMAC. Validated
//! against the RFC 8032 test vectors.
//!
//! # Hot-path structure
//!
//! The paper's core crypto lesson (Section 6) is that signature checking,
//! not consensus, burns most replica cycles — so the scalar multiplications
//! here are organized around how the pipeline actually calls them:
//!
//! - **Signing** is always fixed-base (`r·B`, `a·B`). [`basepoint_table`]
//!   holds the radix-64 multiples of `B` for all 43 digit positions in
//!   affine form, so a fixed-base multiplication is ~43 table additions of
//!   7M each (M: one field multiply) and *zero* doublings, instead of the
//!   naive 256-double/128-add ladder that [`EdwardsPoint::scalar_mul`]
//!   keeps around as the reference baseline.
//! - **Verification** evaluates `S·B − k·A == R` as one variable-time
//!   Straus multi-scalar multiplication. Both scalars are split into four
//!   64-bit parts, each against a precomputed multiple `2^(64j)·B` or
//!   `−2^(64j)·A`, so the shared doubling chain is 64 steps long instead
//!   of 253: `B`'s width-8 wNAF tables are built once per process, `A`'s
//!   width-5 tables on the key's first verification (a client's key checks
//!   every request it sends). A verification under a key verified before
//!   allocates nothing: its digits live on the stack.
//!
//! # Point forms
//!
//! A doubling chain carries projective `(X : Y : Z)` points; doubling and
//! addition produce the completed form, which converts to projective (3M)
//! when the next step doubles and to extended (4M) when it adds. Addends
//! are precomputed: cached `(Y+X, Y−X, 2d·T, 2Z)` in per-point tables (an
//! addition costs 4M), affine Niels `(y+x, y−x, 2d·xy)` in the basepoint
//! tables (3M).
//!
//! All scalar-mult routines here are variable-time (research code, as
//! noted in the crate docs).

use crate::field25519::{edwards_d, edwards_d2, sqrt_m1, Fe};
use crate::scalar25519;
use crate::sha2::Sha512;
use std::sync::OnceLock;

/// Reduces the 64-byte SHA-512 output modulo ℓ (little-endian in and out).
fn reduce_mod_l(bytes_le: &[u8; 64]) -> [u8; 32] {
    scalar25519::reduce512(bytes_le)
}

/// Computes `(a * b + c) mod ℓ` over little-endian 32-byte scalars.
fn mul_add_mod_l(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    scalar25519::mul_add(a, b, c)
}

/// Whether little-endian scalar `s` is canonical (`s < ℓ`).
fn scalar_is_canonical(s: &[u8; 32]) -> bool {
    scalar25519::is_canonical(s)
}

/// A point on the twisted Edwards curve in extended coordinates
/// `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z` and `T = XY/Z`.
#[derive(Debug, Clone, Copy)]
pub struct EdwardsPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point in projective coordinates `(X : Y : Z)`: all that a doubling
/// reads, so a doubling chain carries no `T` from step to step.
#[derive(Debug, Clone, Copy)]
struct ProjectivePoint {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// The completed form `((X : Z), (Y : T))`, `x = X/Z` and `y = Y/T`, that
/// doubling and addition produce. Converting it costs 3M to projective and
/// 4M to extended (M: one field multiply), so each step pays only for the
/// coordinates its successor reads: a doubling chain goes to projective, a
/// point about to be added to goes to extended.
#[derive(Debug, Clone, Copy)]
struct CompletedPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An addend held as `(Y+X, Y−X, 2d·T, 2Z)`: what the addition formula
/// reads of it, so adding it costs 4M plus 4M back to extended, with no
/// multiply by `2d`. Per-point Straus tables hold these.
#[derive(Debug, Clone, Copy)]
struct CachedPoint {
    y_plus_x: Fe,
    y_minus_x: Fe,
    t2d: Fe,
    z2: Fe,
}

/// An affine addend `(y+x, y−x, 2d·xy)` (Niels form, `Z = 1`): one multiply
/// cheaper to add than a [`CachedPoint`]. The basepoint tables, built once
/// per process, hold these.
#[derive(Debug, Clone, Copy)]
struct AffineNielsPoint {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl EdwardsPoint {
    /// The identity element (0, 1).
    pub fn identity() -> Self {
        EdwardsPoint {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point `B` (y = 4/5, x even).
    pub fn basepoint() -> Self {
        static BASE: OnceLock<EdwardsPoint> = OnceLock::new();
        *BASE.get_or_init(|| {
            const BASE_Y: [u8; 32] = [
                0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
                0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
                0x66, 0x66, 0x66, 0x66,
            ];
            Self::decompress(&BASE_Y).expect("the standard base point decompresses")
        })
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_cached(self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            t2d: self.t.mul(edwards_d2()),
            z2: self.z.add(self.z),
        }
    }

    /// `self + q`, or `self − q` when `negate` (4M).
    fn add_cached(&self, q: &CachedPoint, negate: bool) -> CompletedPoint {
        let (q_plus, q_minus) = if negate {
            (q.y_minus_x, q.y_plus_x)
        } else {
            (q.y_plus_x, q.y_minus_x)
        };
        CompletedPoint::from_sum(
            self.y.add(self.x).mul(q_plus),
            self.y.sub(self.x).mul(q_minus),
            self.z.mul(q.z2),
            self.t.mul(q.t2d),
            negate,
        )
    }

    /// `self + q`, or `self − q` when `negate` (3M).
    fn add_affine(&self, q: &AffineNielsPoint, negate: bool) -> CompletedPoint {
        let (q_plus, q_minus) = if negate {
            (q.y_minus_x, q.y_plus_x)
        } else {
            (q.y_plus_x, q.y_minus_x)
        };
        CompletedPoint::from_sum(
            self.y.add(self.x).mul(q_plus),
            self.y.sub(self.x).mul(q_minus),
            self.z.add(self.z),
            self.t.mul(q.xy2d),
            negate,
        )
    }

    /// Point addition using the unified extended-coordinate formulas for
    /// `a = -1` twisted Edwards curves.
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        self.add_cached(&other.to_cached(), false).to_extended()
    }

    /// Point doubling.
    pub fn double(&self) -> EdwardsPoint {
        self.to_projective().double().to_extended()
    }

    /// Negation: `(x, y) → (-x, y)`.
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication by a little-endian 32-byte scalar.
    ///
    /// This is the naive 256-step double-and-add ladder, kept as the
    /// correctness reference and the bench baseline; the hot paths use
    /// [`BasepointTable::mul`] and the Straus loop behind verification.
    pub fn scalar_mul(&self, scalar: &[u8; 32]) -> EdwardsPoint {
        let mut acc = EdwardsPoint::identity();
        for byte in scalar.iter().rev() {
            for bit_idx in (0..8).rev() {
                acc = acc.double();
                if (byte >> bit_idx) & 1 == 1 {
                    acc = acc.add(self);
                }
            }
        }
        acc
    }

    /// Compresses to the 32-byte encoding: `y` with the sign of `x` in the
    /// top bit.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_odd() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding, if it names a curve point.
    pub fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let sign = bytes[31] >> 7;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = Fe::from_bytes(&y_bytes);
        // Reject non-canonical y encodings.
        if y.to_bytes() != y_bytes {
            return None;
        }
        // x^2 = (y^2 - 1) / (d y^2 + 1)
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = edwards_d().mul(yy).add(Fe::ONE);
        // x = u v^3 (u v^7)^((p-5)/8)
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vxx = v.mul(x.square());
        if vxx.sub(u).is_zero() {
            // x is correct
        } else if vxx.add(u).is_zero() {
            x = x.mul(sqrt_m1());
        } else {
            return None;
        }
        if x.is_zero() && sign == 1 {
            return None; // -0 is not a valid encoding
        }
        if x.is_odd() != (sign == 1) {
            x = x.neg();
        }
        Some(EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// Equality in the group (projective cross-comparison).
    pub fn ct_eq(&self, other: &EdwardsPoint) -> bool {
        let l1 = self.x.mul(other.z);
        let r1 = other.x.mul(self.z);
        let l2 = self.y.mul(other.z);
        let r2 = other.y.mul(self.z);
        l1.sub(r1).is_zero() && l2.sub(r2).is_zero()
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other)
    }
}

impl Eq for EdwardsPoint {}

impl ProjectivePoint {
    fn identity() -> Self {
        ProjectivePoint {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
        }
    }

    /// `2·self` (4 squarings), completed.
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let yy_plus_xx = yy.add(xx);
        let yy_minus_xx = yy.sub(xx);
        CompletedPoint {
            x: self.x.add(self.y).square().sub(yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz.add(zz).sub(yy_minus_xx),
        }
    }

    fn to_extended(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.mul(self.z),
            y: self.y.mul(self.z),
            z: self.z.square(),
            t: self.x.mul(self.y),
        }
    }
}

impl CompletedPoint {
    /// The tail both addition forms share, from the products
    /// `PP = (Y₁+X₁)(Y₂+X₂)`, `MM = (Y₁−X₁)(Y₂−X₂)`, `ZZ2 = 2Z₁Z₂` and
    /// `TT2d = 2d·T₁T₂` (with `q`'s halves swapped when `negate`).
    fn from_sum(pp: Fe, mm: Fe, zz2: Fe, tt2d: Fe, negate: bool) -> CompletedPoint {
        let (z, t) = if negate {
            (zz2.sub(tt2d), zz2.add(tt2d))
        } else {
            (zz2.add(tt2d), zz2.sub(tt2d))
        };
        CompletedPoint {
            x: pp.sub(mm),
            y: pp.add(mm),
            z,
            t,
        }
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
        }
    }

    fn to_extended(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }
}

impl AffineNielsPoint {
    /// Converts every point with one field inversion between them
    /// (Montgomery's trick: invert the product of the `Z`s, then peel one
    /// `Z` off per point).
    fn from_extended_all(points: &[EdwardsPoint]) -> Vec<AffineNielsPoint> {
        let mut prefix = Vec::with_capacity(points.len());
        let mut product = Fe::ONE;
        for p in points {
            prefix.push(product);
            product = product.mul(p.z);
        }
        let mut inv = product.invert();
        let mut out = vec![
            AffineNielsPoint {
                y_plus_x: Fe::ONE,
                y_minus_x: Fe::ONE,
                xy2d: Fe::ZERO,
            };
            points.len()
        ];
        for (i, p) in points.iter().enumerate().rev() {
            let zinv = inv.mul(prefix[i]);
            inv = inv.mul(p.z);
            let x = p.x.mul(zinv);
            let y = p.y.mul(zinv);
            out[i] = AffineNielsPoint {
                y_plus_x: y.add(x),
                y_minus_x: y.sub(x),
                xy2d: x.mul(y).mul(edwards_d2()),
            };
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Scalar recodings
// ---------------------------------------------------------------------------

/// A little-endian scalar as 64-bit limbs, with a zero fifth limb so a
/// window starting in the top limb can read one past it.
fn scalar_limbs(scalar: &[u8; 32]) -> [u64; 5] {
    let mut limbs = [0u64; 5];
    for (limb, bytes) in limbs.iter_mut().zip(scalar.chunks_exact(8)) {
        *limb = u64::from_le_bytes(bytes.try_into().expect("8-byte chunks"));
    }
    limbs
}

/// Digit positions of the fixed-base table: radix 64, 43 digits cover a
/// scalar below 2^255 with room for the top digit's carry.
const FIXED_ROWS: usize = 43;

/// Signed radix-64 digits of a little-endian scalar: 43 digits in
/// `[-32, 32]` with `s = Σ dᵢ·64ⁱ`. Requires `s < 2^255` (true for every
/// scalar this module produces: canonical scalars are `< ℓ < 2^253` and
/// clamped secret scalars clear bit 255).
fn radix64_digits(scalar: &[u8; 32]) -> [i8; FIXED_ROWS] {
    debug_assert!(scalar[31] & 0x80 == 0, "scalar must be < 2^255");
    let limbs = scalar_limbs(scalar);
    let mut e = [0i8; FIXED_ROWS];
    for (i, d) in e.iter_mut().enumerate() {
        let (idx, shift) = (6 * i / 64, 6 * i % 64);
        let bits = if shift <= 58 {
            limbs[idx] >> shift
        } else {
            (limbs[idx] >> shift) | (limbs[idx + 1] << (64 - shift))
        };
        *d = (bits & 63) as i8;
    }
    // Re-center each digit into [-32, 32), pushing the carry upward; the
    // top digit (bits 252 and up, below 8) absorbs the final carry.
    let mut carry = 0i8;
    for d in e.iter_mut().take(FIXED_ROWS - 1) {
        *d += carry;
        carry = (*d + 32) >> 6;
        *d -= carry << 6;
    }
    e[FIXED_ROWS - 1] += carry;
    e
}

/// Width-`w` non-adjacent form of a little-endian scalar: 256 digits, each
/// zero or odd in `(−2^(w−1), 2^(w−1))`, with at most one nonzero digit in
/// any `w` consecutive positions. Requires `s < 2^255` and `w ≤ 8`.
fn non_adjacent_form(scalar: &[u8; 32], w: usize) -> [i8; 256] {
    debug_assert!(scalar[31] & 0x80 == 0, "scalar must be < 2^255");
    let width = 1u64 << w;
    let mut naf = [0i8; 256];
    let limbs = scalar_limbs(scalar);
    // Past the top set bit only a carry is left to emit.
    let top = (0..4)
        .rev()
        .find(|&i| limbs[i] != 0)
        .map_or(0, |i| 64 * i + 64 - limbs[i].leading_zeros() as usize);
    let mut pos = 0usize;
    let mut carry = 0u64;
    while pos < 256 && (pos < top || carry != 0) {
        let idx = pos / 64;
        let shift = pos % 64;
        // `w` bits of the (carry-adjusted) scalar starting at `pos`.
        let bits = if shift <= 64 - w {
            limbs[idx] >> shift
        } else {
            (limbs[idx] >> shift) | (limbs[idx + 1] << (64 - shift))
        };
        let window = carry + (bits & (width - 1));
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        if window < width / 2 {
            naf[pos] = window as i8;
            carry = 0;
        } else {
            // Take window - 2^w (negative, odd) and carry the borrow up.
            naf[pos] = (window as i64 - width as i64) as i8;
            carry = 1;
        }
        pos += w;
    }
    naf
}

/// The odd multiples `[P, 3P, 5P, …, (2N−1)P]`.
fn odd_multiples<const N: usize>(p: &EdwardsPoint) -> [EdwardsPoint; N] {
    let p2 = p.double().to_cached();
    let mut t = [*p; N];
    for j in 1..N {
        t[j] = t[j - 1].add_cached(&p2, false).to_extended();
    }
    t
}

/// A point's width-5 Straus table: `[P, 3P, …, 15P]`, cached.
fn straus_table(p: &EdwardsPoint) -> [CachedPoint; 8] {
    odd_multiples::<8>(p).map(EdwardsPoint::to_cached)
}

/// Scalars against a precomputed point are split into this many 64-bit
/// parts, the `j`-th against `2^(64j)·P`: the doubling chain then runs 64
/// steps where a whole 253-bit scalar needs 253. The identity
/// `s·P = Σ sⱼ·(2^(64j)·P)` holds over the integers, so the sum is the
/// same group element for points of any order.
const PARTS: usize = 4;

/// The `j`-th 64-bit part of a little-endian scalar, as a scalar.
fn scalar_part(s: &[u8; 32], j: usize) -> [u8; 32] {
    let mut part = [0u8; 32];
    part[..8].copy_from_slice(&s[8 * j..8 * j + 8]);
    part
}

/// `2^64·p`: 64 doublings.
fn mul_by_pow_2_64(p: &EdwardsPoint) -> EdwardsPoint {
    let mut r = p.to_projective();
    for _ in 0..63 {
        r = r.double().to_projective();
    }
    r.double().to_extended()
}

/// The base point's width-8 tables `[Bⱼ, 3Bⱼ, …, 127Bⱼ]` for
/// `Bⱼ = 2^(64j)·B`, one per scalar part, affine, built once per process:
/// `B` appears in *every* verification equation, and the wider window cuts
/// its additions from ~43 to ~28 per equation.
fn basepoint_part_tables() -> &'static [[AffineNielsPoint; 64]] {
    static TABLES: OnceLock<Vec<[AffineNielsPoint; 64]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut points = Vec::with_capacity(64 * PARTS);
        let mut p = EdwardsPoint::basepoint();
        for j in 0..PARTS {
            if j > 0 {
                p = mul_by_pow_2_64(&p);
            }
            points.extend(odd_multiples::<64>(&p));
        }
        AffineNielsPoint::from_extended_all(&points)
            .chunks(64)
            .map(|table| table.try_into().expect("tables of 64"))
            .collect()
    })
}

/// Variable-time multi-scalar multiplication `Σ sᵢ·Pᵢ` (Straus'
/// interleaving trick): one shared doubling chain over all points, with a
/// width-5 wNAF digit table per point. Scalars must be `< 2^255`.
pub fn multiscalar_mul_vartime(scalars: &[[u8; 32]], points: &[EdwardsPoint]) -> EdwardsPoint {
    assert_eq!(scalars.len(), points.len());
    let tables: Vec<[CachedPoint; 8]> = points.iter().map(straus_table).collect();
    let nafs: Vec<[i8; 256]> = scalars.iter().map(|s| non_adjacent_form(s, 5)).collect();
    straus(&[], &nafs, &tables)
}

/// `s·B + Σⱼ cⱼ·Pⱼ`, with `s` split into parts against the process-wide
/// basepoint tables and `c` into parts against `tables` (`Pⱼ`'s width-5
/// table, one per part): the verification equation's one shape, its
/// digits on the stack.
fn double_scalar_mul(s: &[u8; 32], c: &[u8; 32], tables: &[[CachedPoint; 8]]) -> EdwardsPoint {
    let b_nafs: [[i8; 256]; PARTS] =
        std::array::from_fn(|j| non_adjacent_form(&scalar_part(s, j), 8));
    let nafs: [[i8; 256]; PARTS] =
        std::array::from_fn(|j| non_adjacent_form(&scalar_part(c, j), 5));
    straus(&b_nafs, &nafs, tables)
}

/// The Straus evaluation loop: `Σ bⱼ·Bⱼ + Σ sᵢ·Pᵢ`, with `b_nafs` the
/// width-8 digits of parts against the basepoint tables (as many as
/// given) and `nafs[i]` the width-5 digits against `tables[i]`. The chain
/// doubles in projective form; only a step that adds pays for the
/// extended coordinates.
fn straus(b_nafs: &[[i8; 256]], nafs: &[[i8; 256]], tables: &[[CachedPoint; 8]]) -> EdwardsPoint {
    let high = (0..256)
        .rev()
        .find(|&i| b_nafs.iter().chain(nafs).any(|naf| naf[i] != 0));
    let Some(high) = high else {
        return EdwardsPoint::identity();
    };
    let b_tables = basepoint_part_tables();
    let mut acc = ProjectivePoint::identity();
    for i in (0..=high).rev() {
        let mut t = acc.double();
        for (naf, table) in b_nafs.iter().zip(b_tables) {
            let d = naf[i];
            if d != 0 {
                let q = &table[d.unsigned_abs() as usize / 2];
                t = t.to_extended().add_affine(q, d < 0);
            }
        }
        for (naf, table) in nafs.iter().zip(tables) {
            let d = naf[i];
            if d != 0 {
                let q = &table[d.unsigned_abs() as usize / 2];
                t = t.to_extended().add_cached(q, d < 0);
            }
        }
        acc = t.to_projective();
    }
    acc.to_extended()
}

// ---------------------------------------------------------------------------
// Fixed-base table
// ---------------------------------------------------------------------------

/// Precomputed radix-64 multiples of the base point: `rows[i][j]` holds
/// `(j+1)·64ⁱ·B`, affine, for all 43 digit positions. A fixed-base scalar
/// multiplication becomes ~43 table additions (7M each) with *no*
/// doublings — the doubling chain is baked into the table at startup.
pub struct BasepointTable {
    rows: Vec<[AffineNielsPoint; 32]>,
}

impl BasepointTable {
    fn build() -> Self {
        let mut points = Vec::with_capacity(FIXED_ROWS * 32);
        let mut p = EdwardsPoint::basepoint(); // 64^i · B
        for _ in 0..FIXED_ROWS {
            let step = p.to_cached();
            let mut q = p;
            points.push(q);
            for _ in 1..32 {
                q = q.add_cached(&step, false).to_extended();
                points.push(q);
            }
            let mut r = p.to_projective();
            for _ in 0..5 {
                r = r.double().to_projective();
            }
            p = r.double().to_extended();
        }
        let rows = AffineNielsPoint::from_extended_all(&points)
            .chunks(32)
            .map(|row| row.try_into().expect("rows of 32"))
            .collect();
        BasepointTable { rows }
    }

    /// Fixed-base scalar multiplication `s·B` via the precomputed table.
    /// Requires `s < 2^255` (canonical and clamped scalars both qualify).
    pub fn mul(&self, scalar: &[u8; 32]) -> EdwardsPoint {
        let digits = radix64_digits(scalar);
        let mut acc = EdwardsPoint::identity();
        for (row, &d) in self.rows.iter().zip(digits.iter()) {
            if d != 0 {
                acc = acc
                    .add_affine(&row[d.unsigned_abs() as usize - 1], d < 0)
                    .to_extended();
            }
        }
        acc
    }
}

/// The process-wide precomputed basepoint table, built on first use.
pub fn basepoint_table() -> &'static BasepointTable {
    static TABLE: OnceLock<BasepointTable> = OnceLock::new();
    TABLE.get_or_init(BasepointTable::build)
}

fn clamp(scalar: &mut [u8; 32]) {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// An Ed25519 public key (compressed point).
#[derive(Clone)]
pub struct Ed25519PublicKey {
    compressed: [u8; 32],
    point: EdwardsPoint,
    /// Straus tables of `−2^(64j)·A`, one per scalar part, built on the
    /// key's first verification: a client's key checks every request it
    /// sends, so its doublings are paid once, not per signature.
    tables: OnceLock<Vec<[CachedPoint; 8]>>,
}

impl PartialEq for Ed25519PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.compressed == other.compressed
    }
}

impl Eq for Ed25519PublicKey {}

impl std::fmt::Debug for Ed25519PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Ed25519PublicKey")
            .field(&self.compressed)
            .finish()
    }
}

impl Ed25519PublicKey {
    /// Parses a public key from its 32-byte encoding.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let point = EdwardsPoint::decompress(bytes)?;
        Some(Ed25519PublicKey {
            compressed: *bytes,
            point,
            tables: OnceLock::new(),
        })
    }

    /// The Straus tables of `−2^(64j)·A` for `j < PARTS`, built on first
    /// use.
    fn straus_tables(&self) -> &[[CachedPoint; 8]] {
        self.tables.get_or_init(|| {
            let mut p = self.point.neg();
            let mut tables = Vec::with_capacity(PARTS);
            for j in 0..PARTS {
                if j > 0 {
                    p = mul_by_pow_2_64(&p);
                }
                tables.push(straus_table(&p));
            }
            tables
        })
    }

    /// The 32-byte encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.compressed
    }

    /// Verifies `sig` (64 bytes: `R || S`) over `msg`: rejects a signature
    /// of the wrong length, with a non-canonical `S` or an `R` that is not
    /// a curve point, then checks `S·B − k·A == R` for
    /// `k = SHA-512(R || A || M) mod ℓ` (cofactorless).
    pub fn verify(&self, msg: &[u8], sig: &[u8]) -> bool {
        let ([r_bytes, s], []) = sig.as_chunks::<32>() else {
            return false;
        };
        if !scalar_is_canonical(s) {
            return false;
        }
        let Some(r_point) = EdwardsPoint::decompress(r_bytes) else {
            return false;
        };
        let mut h = Sha512::new();
        h.update(r_bytes);
        h.update(&self.compressed);
        h.update(msg);
        let k = reduce_mod_l(&h.finalize());
        double_scalar_mul(s, &k, self.straus_tables()).ct_eq(&r_point)
    }
}

/// An Ed25519 signing key pair derived from a 32-byte seed.
#[derive(Debug, Clone)]
pub struct Ed25519KeyPair {
    expanded_scalar: [u8; 32],
    prefix: [u8; 32],
    public: Ed25519PublicKey,
}

impl Ed25519KeyPair {
    /// Derives the key pair from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        let h = {
            let mut hasher = Sha512::new();
            hasher.update(seed);
            hasher.finalize()
        };
        let mut scalar = [0u8; 32];
        scalar.copy_from_slice(&h[..32]);
        clamp(&mut scalar);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        let a_point = basepoint_table().mul(&scalar);
        let compressed = a_point.compress();
        Ed25519KeyPair {
            expanded_scalar: scalar,
            prefix,
            public: Ed25519PublicKey {
                compressed,
                point: a_point,
                tables: OnceLock::new(),
            },
        }
    }

    /// The public half.
    pub fn public_key(&self) -> &Ed25519PublicKey {
        &self.public
    }

    /// Signs `msg`, producing the 64-byte signature `R || S`.
    pub fn sign(&self, msg: &[u8]) -> [u8; 64] {
        // r = SHA512(prefix || M) mod ℓ
        let r = {
            let mut h = Sha512::new();
            h.update(&self.prefix);
            h.update(msg);
            reduce_mod_l(&h.finalize())
        };
        let r_point = basepoint_table().mul(&r);
        let r_bytes = r_point.compress();
        // k = SHA512(R || A || M) mod ℓ
        let k = {
            let mut h = Sha512::new();
            h.update(&r_bytes);
            h.update(&self.public.compressed);
            h.update(msg);
            reduce_mod_l(&h.finalize())
        };
        // S = (r + k * a) mod ℓ
        let s = mul_add_mod_l(&k, &self.expanded_scalar, &r);
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(&s);
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The group order `ℓ = 2^252 + 27742317777372353535851937790883648493`,
    /// big-endian bytes: the non-canonical and order-adjacent scalars.
    const L_BYTES: [u8; 32] = [
        0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x14, 0xde, 0xf9, 0xde, 0xa2, 0xf7, 0x9c, 0xd6, 0x58, 0x12, 0x63, 0x1a, 0x5c, 0xf5,
        0xd3, 0xed,
    ];

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn seed32(s: &str) -> [u8; 32] {
        let v = unhex(s);
        let mut a = [0u8; 32];
        a.copy_from_slice(&v);
        a
    }

    // RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test1() {
        let seed = seed32("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
        let kp = Ed25519KeyPair::from_seed(&seed);
        assert_eq!(
            kp.public_key().as_bytes().to_vec(),
            unhex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        );
        let sig = kp.sign(b"");
        assert_eq!(
            sig.to_vec(),
            unhex(
                "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                 5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
            )
        );
        assert!(kp.public_key().verify(b"", &sig));
    }

    // RFC 8032 §7.1 TEST 2 (one byte 0x72).
    #[test]
    fn rfc8032_test2() {
        let seed = seed32("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
        let kp = Ed25519KeyPair::from_seed(&seed);
        assert_eq!(
            kp.public_key().as_bytes().to_vec(),
            unhex("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
        );
        let msg = [0x72u8];
        let sig = kp.sign(&msg);
        assert_eq!(
            sig.to_vec(),
            unhex(
                "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                 085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
            )
        );
        assert!(kp.public_key().verify(&msg, &sig));
    }

    // RFC 8032 §7.1 TEST 3 (two bytes).
    #[test]
    fn rfc8032_test3() {
        let seed = seed32("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
        let kp = Ed25519KeyPair::from_seed(&seed);
        let msg = unhex("af82");
        let sig = kp.sign(&msg);
        assert_eq!(
            sig.to_vec(),
            unhex(
                "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                 18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
            )
        );
        assert!(kp.public_key().verify(&msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = Ed25519KeyPair::from_seed(&[7u8; 32]);
        let sig = kp.sign(b"hello");
        assert!(!kp.public_key().verify(b"hellp", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = Ed25519KeyPair::from_seed(&[7u8; 32]);
        let mut sig = kp.sign(b"hello");
        sig[10] ^= 1;
        assert!(!kp.public_key().verify(b"hello", &sig));
        // Also tamper with S half.
        let mut sig2 = kp.sign(b"hello");
        sig2[40] ^= 1;
        assert!(!kp.public_key().verify(b"hello", &sig2));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Ed25519KeyPair::from_seed(&[1u8; 32]);
        let kp2 = Ed25519KeyPair::from_seed(&[2u8; 32]);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn non_canonical_s_rejected() {
        let kp = Ed25519KeyPair::from_seed(&[3u8; 32]);
        let mut sig = kp.sign(b"msg");
        // Set S to ℓ (non-canonical).
        let mut l_le = L_BYTES;
        l_le.reverse();
        sig[32..].copy_from_slice(&l_le);
        assert!(!kp.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn group_law_sanity() {
        let b = EdwardsPoint::basepoint();
        // 2B via double == B + B
        assert!(b.double().ct_eq(&b.add(&b)));
        // B + identity == B
        assert!(b.add(&EdwardsPoint::identity()).ct_eq(&b));
        // B + (-B) == identity
        assert!(b.add(&b.neg()).ct_eq(&EdwardsPoint::identity()));
        // scalar_mul by 3 == B + B + B
        let mut three = [0u8; 32];
        three[0] = 3;
        assert!(b.scalar_mul(&three).ct_eq(&b.add(&b).add(&b)));
    }

    #[test]
    fn order_annihilates_basepoint() {
        // ℓ·B == identity
        let mut l_le = L_BYTES;
        l_le.reverse();
        let lb = EdwardsPoint::basepoint().scalar_mul(&l_le);
        assert!(lb.ct_eq(&EdwardsPoint::identity()));
    }

    #[test]
    fn compress_decompress_round_trip() {
        let b = EdwardsPoint::basepoint();
        for k in 1u8..20 {
            let mut s = [0u8; 32];
            s[0] = k;
            let p = b.scalar_mul(&s);
            let c = p.compress();
            let q = EdwardsPoint::decompress(&c).expect("valid point");
            assert!(p.ct_eq(&q), "k={k}");
        }
    }

    #[test]
    fn invalid_point_rejected() {
        // An encoding whose x^2 has no square root.
        let mut bad = [0u8; 32];
        bad[0] = 2;
        // Find some invalid ones in a small scan (at least one must fail).
        let mut rejected = 0;
        for v in 0u8..50 {
            bad[0] = v;
            if EdwardsPoint::decompress(&bad).is_none() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "expected some encodings to be invalid");
    }

    #[test]
    fn large_message_signs() {
        let kp = Ed25519KeyPair::from_seed(&[9u8; 32]);
        let msg = vec![0xabu8; 10_000];
        let sig = kp.sign(&msg);
        assert!(kp.public_key().verify(&msg, &sig));
    }

    // --- fast-path equivalence -------------------------------------------

    /// A spread of scalars exercising digit/carry edge cases: tiny, all-ones
    /// nibbles, near-ℓ, and pseudo-random.
    fn test_scalars() -> Vec<[u8; 32]> {
        let mut out = Vec::new();
        out.push([0u8; 32]);
        let mut one = [0u8; 32];
        one[0] = 1;
        out.push(one);
        out.push({
            let mut s = [0x77u8; 32];
            s[31] = 0x07;
            s
        });
        out.push({
            let mut s = [0x88u8; 32];
            s[31] = 0x08;
            s
        });
        // ℓ - 1 (the largest canonical scalar).
        let mut l_le = L_BYTES;
        l_le.reverse();
        l_le[0] -= 1;
        out.push(l_le);
        // Pseudo-random scalars reduced mod ℓ.
        for seed in 0u8..8 {
            let mut h = Sha512::new();
            h.update(&[seed]);
            out.push(reduce_mod_l(&h.finalize()));
        }
        out
    }

    #[test]
    fn basepoint_table_matches_naive_ladder() {
        let b = EdwardsPoint::basepoint();
        let table = basepoint_table();
        for s in test_scalars() {
            assert!(
                table.mul(&s).ct_eq(&b.scalar_mul(&s)),
                "table/ladder mismatch for scalar {s:02x?}"
            );
        }
        // Clamped secret scalars have bit 254 set — the table must handle
        // the top-digit carry they produce.
        let mut clamped = [0xffu8; 32];
        clamp(&mut clamped);
        assert!(table.mul(&clamped).ct_eq(&b.scalar_mul(&clamped)));
    }

    #[test]
    fn multiscalar_matches_naive_sum() {
        let b = EdwardsPoint::basepoint();
        let scalars = test_scalars();
        let p1 = b.scalar_mul(&scalars[5]);
        let p2 = b.scalar_mul(&scalars[6]).neg();
        let p3 = b.double();
        let picks = [scalars[2], scalars[4], scalars[7]];
        let points = [p1, p2, p3];
        let fast = multiscalar_mul_vartime(&picks, &points);
        let mut slow = EdwardsPoint::identity();
        for (s, p) in picks.iter().zip(&points) {
            slow = slow.add(&p.scalar_mul(s));
        }
        assert!(fast.ct_eq(&slow));
    }

    /// A scalar mod ℓ from 64 random bytes.
    fn random_scalar(lo: [u8; 32], hi: [u8; 32]) -> [u8; 32] {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&lo);
        wide[32..].copy_from_slice(&hi);
        reduce_mod_l(&wide)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        #[test]
        fn basepoint_table_matches_ladder_on_random_scalars(
            lo in proptest::array::uniform32(proptest::prelude::any::<u8>()),
            hi in proptest::array::uniform32(proptest::prelude::any::<u8>()),
        ) {
            let s = random_scalar(lo, hi);
            let b = EdwardsPoint::basepoint();
            proptest::prop_assert!(basepoint_table().mul(&s).ct_eq(&b.scalar_mul(&s)));
            // Below 2^255 but not reduced: the top radix-64 digit carries.
            let mut raw = lo;
            raw[31] &= 0x7f;
            proptest::prop_assert!(basepoint_table().mul(&raw).ct_eq(&b.scalar_mul(&raw)));
        }

        /// The verification MSM `s·B + k·P`, over the shared width-8
        /// basepoint table and a width-5 table of `P`, equals the ladder's
        /// sum, for points `P` of any order (decompressed from random
        /// bytes).
        #[test]
        fn verify_msm_matches_ladder_on_random_scalars(
            lo in proptest::array::uniform32(proptest::prelude::any::<u8>()),
            hi in proptest::array::uniform32(proptest::prelude::any::<u8>()),
            y in proptest::array::uniform32(proptest::prelude::any::<u8>()),
        ) {
            let s = random_scalar(lo, hi);
            let k = random_scalar(hi, y);
            let p = EdwardsPoint::decompress(&y)
                .unwrap_or_else(|| EdwardsPoint::basepoint().scalar_mul(&y.map(|b| b & 0x3f)));
            let slow = EdwardsPoint::basepoint().scalar_mul(&s).add(&p.scalar_mul(&k));
            let b_nafs: [[i8; 256]; PARTS] =
                std::array::from_fn(|j| non_adjacent_form(&scalar_part(&s, j), 8));
            let fast = straus(&b_nafs, &[non_adjacent_form(&k, 5)], &[straus_table(&p)]);
            proptest::prop_assert!(fast.ct_eq(&slow));
            // As a key: `k` split into parts against `−A`'s part tables.
            let key = Ed25519PublicKey::from_bytes(&p.neg().compress()).expect("a curve point");
            proptest::prop_assert!(double_scalar_mul(&s, &k, key.straus_tables()).ct_eq(&slow));
        }
    }

    #[test]
    fn multiscalar_empty_is_identity() {
        assert!(multiscalar_mul_vartime(&[], &[]).ct_eq(&EdwardsPoint::identity()));
        // All-zero scalars likewise.
        let z = [[0u8; 32]];
        let p = [EdwardsPoint::basepoint()];
        assert!(multiscalar_mul_vartime(&z, &p).ct_eq(&EdwardsPoint::identity()));
    }
}
