//! Cost model for cryptographic operations.
//!
//! The discrete-event simulator prices each crypto operation in nanoseconds
//! instead of executing it. [`CostModel::optimized`] provides the
//! deterministic constants every figure and the benchmark's
//! `sim.predicted_tps` are priced with — typical of production crypto
//! libraries, so absolute throughput lands near the paper's testbed.
//! What this crate's own implementations cost on the current host is
//! measured by the `crypto_path` bench into `BENCH_crypto.json`.
//!
//! The model prices a production library's Ed25519 batch verifier,
//! because it simulates the paper's testbed; the runtime verifies each
//! signature alone.

use rdb_common::CryptoScheme;

/// The fewest Ed25519 signatures the modelled batch verifier checks
/// together; a smaller window is priced as single verifies.
const ED25519_BATCH_MIN: usize = 4;

/// Nanosecond costs for each primitive, split into a fixed per-call cost and
/// a per-byte cost where throughput depends on input size.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// SHA-256: fixed overhead per call.
    pub sha256_fixed_ns: f64,
    /// SHA-256: marginal cost per input byte.
    pub sha256_per_byte_ns: f64,
    /// CMAC-AES128: fixed overhead per call.
    pub cmac_fixed_ns: f64,
    /// CMAC-AES128: marginal cost per input byte.
    pub cmac_per_byte_ns: f64,
    /// Ed25519 signature generation (windowed fixed-base multiplication).
    pub ed25519_sign_ns: f64,
    /// Ed25519 single-signature verification (Straus double-scalar
    /// multiplication).
    pub ed25519_verify_ns: f64,
    /// Ed25519 *batch* verification, amortized per signature at large
    /// batch sizes (≥ 32): the asymptote of the shared-doubling-chain
    /// random-linear-combination check. Per-item cost at batch size `n`
    /// is modeled as `batch + (single − batch) / n` — the doubling chain
    /// is the fixed cost the batch divides.
    pub ed25519_batch_verify_ns: f64,
    /// RSA-1024 signature generation (private-key operation).
    pub rsa_sign_ns: f64,
    /// RSA-1024 signature verification (e = 65537).
    pub rsa_verify_ns: f64,
}

impl CostModel {
    /// Constants typical of *production* crypto libraries (OpenSSL,
    /// ed25519-dalek on a 3.8 GHz core). The simulator prices every
    /// figure with these so its absolute throughput lands near the
    /// paper's testbed, which used tuned libraries rather than
    /// from-scratch implementations, and so runs reproduce exactly.
    ///
    /// `ed25519_batch_verify_ns` models dalek-style `verify_batch`
    /// (amortizing to roughly a quarter of a single verify), which
    /// high-throughput BFT implementations rely on to keep client
    /// signature checking off the critical path. RSA sign over a CMAC tag
    /// is ≈ 10^4: this cost asymmetry (MAC ≪ Ed25519 ≪ RSA) is what
    /// produces the paper's RSA latency collapse in Figure 13.
    pub fn optimized() -> Self {
        CostModel {
            sha256_fixed_ns: 80.0,
            sha256_per_byte_ns: 1.2,
            cmac_fixed_ns: 120.0,
            cmac_per_byte_ns: 1.0,
            ed25519_sign_ns: 17_000.0,
            ed25519_verify_ns: 42_000.0,
            ed25519_batch_verify_ns: 11_000.0,
            rsa_sign_ns: 1_300_000.0,
            rsa_verify_ns: 32_000.0,
        }
    }

    /// Cost to hash `len` bytes with SHA-256.
    pub fn hash_ns(&self, len: usize) -> f64 {
        self.sha256_fixed_ns + self.sha256_per_byte_ns * len as f64
    }

    /// Cost for one node to *sign* `len` bytes under `scheme`, where
    /// `from_replica` says whether the signer is a replica (replicas use
    /// the MAC fast path of `CmacEd25519`; clients always use Ed25519).
    pub fn sign_ns(&self, scheme: CryptoScheme, from_replica: bool, len: usize) -> f64 {
        match scheme {
            CryptoScheme::NoCrypto => 0.0,
            CryptoScheme::CmacEd25519 if from_replica => {
                self.cmac_fixed_ns + self.cmac_per_byte_ns * len as f64
            }
            // Digital signatures hash the message internally; fold the
            // per-byte hashing cost in so large messages price correctly.
            CryptoScheme::CmacEd25519 | CryptoScheme::Ed25519 => {
                self.ed25519_sign_ns + self.sha256_per_byte_ns * len as f64
            }
            CryptoScheme::Rsa => self.rsa_sign_ns + self.sha256_per_byte_ns * len as f64,
        }
    }

    /// Cost for one node to *verify* a signature over `len` bytes that was
    /// produced by a replica (`from_replica`) or a client.
    pub fn verify_ns(&self, scheme: CryptoScheme, from_replica: bool, len: usize) -> f64 {
        match scheme {
            CryptoScheme::NoCrypto => 0.0,
            CryptoScheme::CmacEd25519 if from_replica => {
                self.cmac_fixed_ns + self.cmac_per_byte_ns * len as f64
            }
            CryptoScheme::CmacEd25519 | CryptoScheme::Ed25519 => {
                self.ed25519_verify_ns + self.sha256_per_byte_ns * len as f64
            }
            CryptoScheme::Rsa => self.rsa_verify_ns + self.sha256_per_byte_ns * len as f64,
        }
    }

    /// Per-item cost to verify one of `batch` signatures checked together
    /// by the modelled batch verifier. Only Ed25519 links amortize, and
    /// only in a window of at least `ED25519_BATCH_MIN` signatures; a
    /// smaller one is priced one signature at a time. In a batched window
    /// the shared doubling chain is a fixed cost the batch divides, so the
    /// per-item cost is `batch_ns + (single_ns − batch_ns) / n`, which
    /// tends to the measured batch asymptote at large `n`. MAC, RSA and
    /// no-crypto links price exactly as [`CostModel::verify_ns`].
    pub fn verify_batch_ns(
        &self,
        scheme: CryptoScheme,
        from_replica: bool,
        len: usize,
        batch: usize,
    ) -> f64 {
        let batch = batch.max(1);
        match scheme {
            CryptoScheme::CmacEd25519 if from_replica => self.verify_ns(scheme, from_replica, len),
            CryptoScheme::CmacEd25519 | CryptoScheme::Ed25519 if batch >= ED25519_BATCH_MIN => {
                let fixed = (self.ed25519_verify_ns - self.ed25519_batch_verify_ns).max(0.0);
                self.ed25519_batch_verify_ns
                    + fixed / batch as f64
                    + self.sha256_per_byte_ns * len as f64
            }
            _ => self.verify_ns(scheme, from_replica, len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_below_the_batch_minimum_price_as_single_verifies() {
        let m = CostModel::optimized();
        let single = m.verify_ns(CryptoScheme::Ed25519, false, 100);
        let at = |n| m.verify_batch_ns(CryptoScheme::Ed25519, false, 100, n);
        assert_eq!(at(1), single);
        assert_eq!(at(ED25519_BATCH_MIN - 1), single, "verified one at a time");
        assert_eq!(ED25519_BATCH_MIN, 4);
        assert!(at(4) < single, "the first batched window amortizes");
        assert!(at(32) < at(4));
        // A client's signature on a CMAC link is the same Ed25519 verify.
        let client = |n| m.verify_batch_ns(CryptoScheme::CmacEd25519, false, 100, n);
        assert_eq!(client(3), single);
        assert_eq!(client(32), at(32));
    }

    #[test]
    fn reference_ordering_holds() {
        // The relative ordering that drives Figure 13:
        // MAC ≪ Ed25519 ≪ RSA-sign.
        let m = CostModel::optimized();
        let mac = m.sign_ns(CryptoScheme::CmacEd25519, true, 100);
        let ed = m.sign_ns(CryptoScheme::Ed25519, true, 100);
        let rsa = m.sign_ns(CryptoScheme::Rsa, true, 100);
        assert!(mac * 10.0 < ed, "MAC should be ≫10× cheaper than Ed25519");
        assert!(
            ed * 10.0 < rsa,
            "Ed25519 should be ≫10× cheaper than RSA sign"
        );
        assert_eq!(m.sign_ns(CryptoScheme::NoCrypto, true, 100), 0.0);
    }

    #[test]
    fn cmac_fast_path_only_for_replica_senders() {
        let m = CostModel::optimized();
        let from_replica = m.sign_ns(CryptoScheme::CmacEd25519, true, 100);
        let from_client = m.sign_ns(CryptoScheme::CmacEd25519, false, 100);
        assert!(from_replica < from_client / 10.0);
    }

    #[test]
    fn costs_scale_with_length() {
        let m = CostModel::optimized();
        assert!(m.hash_ns(100_000) > m.hash_ns(100) * 10.0);
        assert!(
            m.sign_ns(CryptoScheme::CmacEd25519, true, 100_000)
                > m.sign_ns(CryptoScheme::CmacEd25519, true, 100)
        );
    }

    #[test]
    fn batch_verify_amortizes_toward_asymptote() {
        let m = CostModel::optimized();
        let single = m.verify_ns(CryptoScheme::Ed25519, false, 100);
        let at_1 = m.verify_batch_ns(CryptoScheme::Ed25519, false, 100, 1);
        let at_32 = m.verify_batch_ns(CryptoScheme::Ed25519, false, 100, 32);
        let at_128 = m.verify_batch_ns(CryptoScheme::Ed25519, false, 100, 128);
        assert!((at_1 - single).abs() < 1.0, "batch of one == single verify");
        assert!(at_32 < single / 2.0, "batch of 32 should be ≥2× cheaper");
        assert!(at_128 < at_32, "larger batches amortize further");
        assert!(
            at_128 > m.ed25519_batch_verify_ns,
            "never below the asymptote"
        );
        // MAC'd links have no batch structure: same cost either way.
        assert_eq!(
            m.verify_batch_ns(CryptoScheme::CmacEd25519, true, 100, 32),
            m.verify_ns(CryptoScheme::CmacEd25519, true, 100)
        );
    }
}
