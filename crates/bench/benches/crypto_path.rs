//! Crypto fast-path microbenchmarks — the measured costs of this crate's
//! own kernels, set beside the simulator's fixed
//! [`rdb_crypto::CostModel::optimized`] constants.
//!
//! Measures:
//!
//! - fixed-base scalar multiplication: the naive double-and-add ladder the
//!   seed shipped with vs. the precomputed basepoint table;
//! - Ed25519 signing (windowed) and single verification (Straus), both
//!   under a key already verified against (the steady state: a client's
//!   key checks every request it sends) and under a freshly parsed key,
//!   which also pays for the key's precomputed tables;
//! - the CMAC and RSA baselines that anchor the paper's MAC-vs-signature
//!   cost asymmetry (Section 6 / Figure 13), and CMAC tags over 100 B,
//!   2 KiB and 56 KiB (one `mem_hotkey_rw` `PrePrepare`) on every AES
//!   backend this CPU can run (AES-NI and portable);
//! - SHA-256 over one block and over 1 KiB on every backend this CPU can
//!   run (SHA-NI with the 16-lane AVX-512 kernel, SHA-NI, portable), and
//!   the one-shot `sha256_pair` under every interior Merkle node;
//!   `sha256/pair`, `sha256/pair_x2` and `sha256/pair_x16` time a pair
//!   hash on the selected backend one at a time, two per interleaved
//!   `sha256_pair2` pass and sixteen per lane-kernel pass (ns per pair
//!   hash each way; the last only where the CPU has the lane kernel). The
//!   SHA-256 and AES backends the process selected are named in the JSON
//!   envelope.
//!
//! Writes `BENCH_crypto.json` at the workspace root through
//! [`rdb_bench::report`]; CI runs this bench with a short window and
//! uploads the file.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdb_bench::report::{time_ns, Length, Report};
use rdb_crypto::aes;
use rdb_crypto::cmac::CmacAes128;
use rdb_crypto::ed25519::{basepoint_table, Ed25519KeyPair, Ed25519PublicKey, EdwardsPoint};
use rdb_crypto::rsa::RsaKeyPair;
use rdb_crypto::scheme::RSA_BITS;
use rdb_crypto::sha2::{self, sha512};
use std::hint::black_box;

/// Message size for all signature operations: a typical signed client
/// request in this system.
const MSG_BYTES: usize = 100;

fn run_suite(report: &mut Report) {
    let iters = report.iters();
    // Heavier ops (RSA) get a scaled-down iteration count.
    let slow_iters = (iters / 10).max(3);

    let msg = vec![0xefu8; MSG_BYTES];
    let kp = Ed25519KeyPair::from_seed(&[3u8; 32]);
    let scalar = {
        // A canonical-size scalar derived from a fixed transcript.
        let mut s = [0u8; 32];
        s.copy_from_slice(&sha512(b"crypto_path scalar")[..32]);
        s[31] &= 0x0f;
        s
    };

    // --- fixed-base scalar multiplication --------------------------------
    let base = EdwardsPoint::basepoint();
    let table = basepoint_table(); // build cost paid before timing
    let ns_ladder = time_ns(iters.min(100), || {
        black_box(base.scalar_mul(black_box(&scalar)));
    });
    report.record("scalar_mul/naive_ladder", ns_ladder);
    let ns_table = time_ns(iters, || {
        black_box(table.mul(black_box(&scalar)));
    });
    report.record("scalar_mul/basepoint_table", ns_table);
    report.record("scalar_mul/speedup", ns_ladder / ns_table);

    // --- Ed25519 sign / single verify ------------------------------------
    let ns_sign = time_ns(iters, || {
        black_box(kp.sign(black_box(&msg)));
    });
    report.record("ed25519/sign/windowed", ns_sign);
    // The seed's sign cost is dominated by its naive ladder; reconstruct
    // it for the trajectory record: sign = ladder-mul + everything else.
    report.record(
        "ed25519/sign/naive_baseline",
        ns_sign - ns_table + ns_ladder,
    );
    let sig = kp.sign(&msg);
    let ns_verify = time_ns(iters, || {
        black_box(kp.public_key().verify(black_box(&msg), &sig));
    });
    report.record("ed25519/verify/single", ns_verify);
    let key_bytes = *kp.public_key().as_bytes();
    let ns_first = time_ns(iters, || {
        let key = Ed25519PublicKey::from_bytes(&key_bytes).expect("a valid key");
        black_box(key.verify(black_box(&msg), &sig));
    });
    report.record("ed25519/verify/first_under_key", ns_first);

    // --- SHA-256, per backend -----------------------------------------------
    for backend in sha2::backends() {
        for (label, len) in [("64B", 64usize), ("1KiB", 1024)] {
            let data = vec![0x5au8; len];
            let ns = time_ns(iters * 50, || {
                black_box(backend.sha256(black_box(&data)));
            });
            report.record(format!("sha256/{label}/{}", backend.name()), ns);
        }
        let (left, right) = ([0x11u8; 32], [0x22u8; 32]);
        let ns = time_ns(iters * 50, || {
            black_box(backend.sha256_pair(black_box(&left), black_box(&right)));
        });
        report.record(format!("sha256_pair/{}", backend.name()), ns);
    }
    // The Merkle flush's two kernels on the selected backend, ns per pair
    // hash: one at a time, and two per interleaved pass.
    let [a, b, c, d] = [[0x11u8; 32], [0x22; 32], [0x33; 32], [0x44; 32]];
    let ns = time_ns(iters * 50, || {
        black_box(sha2::sha256_pair(black_box(&a), black_box(&b)));
    });
    report.record("sha256/pair", ns);
    let ns = time_ns(iters * 50, || {
        black_box(sha2::sha256_pair2(
            black_box(&a),
            black_box(&b),
            black_box(&c),
            black_box(&d),
        ));
    });
    report.record("sha256/pair_x2", ns / 2.0);
    // Sixteen per pass, where the CPU has the lane kernel.
    if let Some(lanes) = sha2::backend().lanes() {
        let messages: [[u8; 64]; sha2::LANES] = std::array::from_fn(|i| [i as u8; 64]);
        let ns = time_ns(iters * 10, || {
            black_box(lanes.sha256_64(black_box(&messages.each_ref())));
        });
        report.record("sha256/pair_x16", ns / sha2::LANES as f64);
    }

    // --- CMAC, per backend, then the selected one -------------------------
    for backend in aes::backends() {
        let cmac = CmacAes128::with_backend(&[7u8; 16], &backend);
        for (label, len) in [("100B", MSG_BYTES), ("2KiB", 2048), ("56KiB", 56 * 1024)] {
            let data = vec![0xefu8; len];
            // Roughly the same bytes per row: 56 KiB on the portable chain
            // is ~0.6 ms a tag.
            let n = (iters as usize * 10 * MSG_BYTES / len).max(3) as u32;
            let ns = time_ns(n, || {
                black_box(cmac.tag(black_box(&data)));
            });
            report.record(format!("cmac/tag/{label}/{}", backend.name()), ns);
        }
    }
    let cmac = CmacAes128::new(&[7u8; 16]);
    let ns_tag = time_ns(iters * 10, || {
        black_box(cmac.tag(black_box(&msg)));
    });
    report.record("cmac/tag/100B", ns_tag);
    let tag = cmac.tag(&msg);
    let ns_mac_verify = time_ns(iters * 10, || {
        black_box(cmac.verify(black_box(&msg), &tag));
    });
    report.record("cmac/verify/100B", ns_mac_verify);

    // --- RSA baseline ------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(11);
    let rsa = RsaKeyPair::generate(RSA_BITS, &mut rng);
    let ns_rsa_sign = time_ns(slow_iters, || {
        black_box(rsa.sign(black_box(&msg)));
    });
    report.record("rsa1024/sign/100B", ns_rsa_sign);
    let rsig = rsa.sign(&msg);
    let ns_rsa_verify = time_ns(slow_iters * 4, || {
        black_box(rsa.public_key().verify(black_box(&msg), &rsig));
    });
    report.record("rsa1024/verify/100B", ns_rsa_verify);
}

fn main() {
    let Some(mut report) = Report::start(
        "crypto_path",
        "BENCH_crypto.json",
        "ns_per_op (speedup entries are ratios; sha256/pair_x2 and pair_x16 are \
         per pair hash, two and sixteen per call)",
        Length::Iters(200),
    ) else {
        return;
    };
    report.param("msg_bytes", MSG_BYTES);
    run_suite(&mut report);
    report.write();
}
