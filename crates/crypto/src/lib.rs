//! From-scratch cryptographic substrate for the ResilientDB reproduction.
//!
//! The paper's Figure 13 compares four signing configurations (none,
//! ED25519, RSA, CMAC+ED25519); reproducing it honestly requires real
//! implementations with honest relative costs, so this crate implements
//! every primitive from scratch:
//!
//! - [`sha2`] — SHA-256 / SHA-512 (FIPS 180-4), SHA-256 also on SHA-NI
//!   and, sixteen messages per pass, on AVX-512F
//! - [`aes`] + [`cmac`] — AES-128 and CMAC (FIPS 197, SP 800-38B)
//! - [`bignum`] + [`rsa`] — Montgomery-based RSA signatures
//! - [`field25519`] + [`ed25519`] — Ed25519 (RFC 8032)
//! - [`scheme`] — per-link scheme selection ([`CryptoProvider`])
//! - [`cost`] — nanosecond cost model for the discrete-event simulator
//!
//! All primitives are validated against their standard known-answer
//! vectors. The implementations favour clarity over constant-time
//! execution; they are research artifacts, not hardened libraries.
//!
//! # Example
//!
//! ```
//! use rdb_crypto::scheme::{KeyRegistry, PeerClass};
//! use rdb_common::{CryptoScheme, ReplicaId};
//! use rdb_common::messages::Sender;
//!
//! let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 1, 42);
//! let signer = registry.provider_for_replica(ReplicaId(0));
//! let verifier = registry.provider_for_replica(ReplicaId(1));
//! let sig = signer.sign(PeerClass::Replica, b"prepare");
//! assert!(verifier.verify(Sender::Replica(ReplicaId(0)), b"prepare", &sig));
//! ```

// Indexed limb/byte loops are the clearest way to express the
// specifications these modules implement (FIPS pseudocode is indexed).
#![allow(clippy::needless_range_loop)]
// The two exceptions are the hardware kernels, `sha2::hw` (SHA-NI, and
// in its child `sha2::hw::avx512` the 16-lane AVX-512F kernel) and
// `aes::hw` (AES-NI), each reachable only through its `kernel()`.
#![deny(unsafe_code)]

pub mod aes;
pub mod bignum;
pub mod cmac;
pub mod cost;
pub mod ed25519;
pub mod field25519;
pub mod hash;
pub mod rsa;
pub mod scalar25519;
pub mod scheme;
pub mod sha2;

pub use cost::CostModel;
pub use hash::{chain_digest, digest, digest_parts};
pub use scheme::{CryptoProvider, CryptoStats, KeyRegistry, PeerClass};
