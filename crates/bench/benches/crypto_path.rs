//! Crypto fast-path microbenchmarks — the measured costs of this crate's
//! own kernels, set beside the simulator's fixed
//! [`rdb_crypto::CostModel::optimized`] constants, and the evidence for
//! the batch-verify pipeline stage.
//!
//! Measures, with the same JSON-emitting harness as `message_path`:
//!
//! - fixed-base scalar multiplication: the naive double-and-add ladder the
//!   seed shipped with vs. the precomputed basepoint table;
//! - Ed25519 signing (windowed) and single verification (Straus);
//! - Ed25519 batch verification at window sizes {8, 32, 128}, reported as
//!   amortized ns *per signature*;
//! - the CMAC and RSA baselines that anchor the paper's MAC-vs-signature
//!   cost asymmetry (Section 6 / Figure 13), and CMAC tags over 100 B,
//!   2 KiB and 56 KiB (one `mem_hotkey_rw` `PrePrepare`) on every AES
//!   backend this CPU can run (AES-NI and portable);
//! - SHA-256 over one block and over 1 KiB on every backend this CPU can
//!   run (SHA-NI and portable), and the one-shot `sha256_pair` under every
//!   interior Merkle node. The SHA-256 and AES backends the process
//!   selected are named in the JSON envelope.
//!
//! Emits `BENCH_crypto.json` at the workspace root; CI runs this bench
//! with a short window and uploads the file.

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rdb_crypto::aes;
use rdb_crypto::cmac::CmacAes128;
use rdb_crypto::ed25519::{
    basepoint_table, verify_batch, BatchEntry, Ed25519KeyPair, EdwardsPoint,
};
use rdb_crypto::rsa::RsaKeyPair;
use rdb_crypto::scheme::RSA_BITS;
use rdb_crypto::sha2::{self, sha512};
use std::hint::black_box;
use std::time::Instant;

/// Message size for all signature operations: a typical signed client
/// request in this system.
const MSG_BYTES: usize = 100;

struct Sample {
    name: String,
    value: f64,
}

fn record(samples: &mut Vec<Sample>, name: impl Into<String>, value: f64) -> f64 {
    let name = name.into();
    samples.push(Sample {
        name: name.clone(),
        value,
    });
    if name.contains("speedup") {
        println!("{name:<48} {value:>12.2} x");
    } else {
        println!("{name:<48} {value:>12.0} ns/op");
    }
    value
}

/// Times `op` and returns mean ns/iter over `iters` runs (one warm-up).
fn time_ns(iters: u32, mut op: impl FnMut()) -> f64 {
    op();
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn run_suite() -> Vec<Sample> {
    let mut samples = Vec::new();
    let iters: u32 = std::env::var("RDB_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    // Heavier ops (RSA, large batches) get a scaled-down iteration count.
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
    record(&mut samples, "scalar_mul/naive_ladder", ns_ladder);
    let ns_table = time_ns(iters, || {
        black_box(table.mul(black_box(&scalar)));
    });
    record(&mut samples, "scalar_mul/basepoint_table", ns_table);
    record(&mut samples, "scalar_mul/speedup", ns_ladder / ns_table);

    // --- Ed25519 sign / single verify ------------------------------------
    let ns_sign = time_ns(iters, || {
        black_box(kp.sign(black_box(&msg)));
    });
    record(&mut samples, "ed25519/sign/windowed", ns_sign);
    // The seed's sign cost is dominated by its naive ladder; reconstruct
    // it for the trajectory record: sign = ladder-mul + everything else.
    record(
        &mut samples,
        "ed25519/sign/naive_baseline",
        ns_sign - ns_table + ns_ladder,
    );
    let sig = kp.sign(&msg);
    let ns_verify = time_ns(iters, || {
        black_box(kp.public_key().verify(black_box(&msg), &sig));
    });
    record(&mut samples, "ed25519/verify/single", ns_verify);

    // --- Ed25519 batch verify at {8, 32, 128} ----------------------------
    // Distinct keys and messages per slot: the honest workload, not the
    // same-key shortcut.
    let keys: Vec<Ed25519KeyPair> = (0..128)
        .map(|i| Ed25519KeyPair::from_seed(&[i as u8 + 1; 32]))
        .collect();
    let msgs: Vec<Vec<u8>> = (0..128)
        .map(|i| {
            let mut m = vec![0xabu8; MSG_BYTES];
            m[0] = i as u8;
            m
        })
        .collect();
    let sigs: Vec<[u8; 64]> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
    for batch in [8usize, 32, 128] {
        let entries: Vec<BatchEntry> = (0..batch)
            .map(|i| BatchEntry {
                public: keys[i].public_key(),
                msg: &msgs[i],
                sig: &sigs[i],
            })
            .collect();
        let n = if batch >= 128 {
            slow_iters
        } else {
            iters.min(50)
        };
        let ns_total = time_ns(n, || {
            black_box(verify_batch(black_box(&entries)));
        });
        let per_sig = ns_total / batch as f64;
        record(
            &mut samples,
            format!("ed25519/verify/batch/{batch}"),
            per_sig,
        );
        record(
            &mut samples,
            format!("ed25519/verify/batch_speedup/{batch}"),
            ns_verify / per_sig,
        );
    }

    // --- SHA-256, per backend -----------------------------------------------
    for backend in sha2::backends() {
        for (label, len) in [("64B", 64usize), ("1KiB", 1024)] {
            let data = vec![0x5au8; len];
            let ns = time_ns(iters * 50, || {
                black_box(backend.sha256(black_box(&data)));
            });
            record(
                &mut samples,
                format!("sha256/{label}/{}", backend.name()),
                ns,
            );
        }
        let (left, right) = ([0x11u8; 32], [0x22u8; 32]);
        let ns = time_ns(iters * 50, || {
            black_box(backend.sha256_pair(black_box(&left), black_box(&right)));
        });
        record(&mut samples, format!("sha256_pair/{}", backend.name()), ns);
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
            record(
                &mut samples,
                format!("cmac/tag/{label}/{}", backend.name()),
                ns,
            );
        }
    }
    let cmac = CmacAes128::new(&[7u8; 16]);
    let ns_tag = time_ns(iters * 10, || {
        black_box(cmac.tag(black_box(&msg)));
    });
    record(&mut samples, "cmac/tag/100B", ns_tag);
    let tag = cmac.tag(&msg);
    let ns_mac_verify = time_ns(iters * 10, || {
        black_box(cmac.verify(black_box(&msg), &tag));
    });
    record(&mut samples, "cmac/verify/100B", ns_mac_verify);

    // --- RSA baseline ------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(11);
    let rsa = RsaKeyPair::generate(RSA_BITS, &mut rng);
    let ns_rsa_sign = time_ns(slow_iters, || {
        black_box(rsa.sign(black_box(&msg)));
    });
    record(&mut samples, "rsa1024/sign/100B", ns_rsa_sign);
    let rsig = rsa.sign(&msg);
    let ns_rsa_verify = time_ns(slow_iters * 4, || {
        black_box(rsa.public_key().verify(black_box(&msg), &rsig));
    });
    record(&mut samples, "rsa1024/verify/100B", ns_rsa_verify);

    samples
}

fn emit_json(samples: &[Sample]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crypto.json");
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"crypto_path\",\n");
    out.push_str(&format!("  \"msg_bytes\": {MSG_BYTES},\n"));
    out.push_str(&format!(
        "  \"sha256_backend\": \"{}\",\n",
        sha2::backend().name()
    ));
    out.push_str(&format!(
        "  \"aes_backend\": \"{}\",\n",
        aes::backend().name()
    ));
    out.push_str(
        "  \"unit\": \"ns_per_op (batch entries are per-signature; speedup entries are ratios)\",\n",
    );
    out.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {:.1}}}{}\n",
            s.name, s.value, comma
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("could not write BENCH_crypto.json: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn bench_crypto_path(_c: &mut Criterion) {
    let samples = run_suite();
    emit_json(&samples);
}

criterion_group!(benches, bench_crypto_path);

fn main() {
    // `cargo test` runs bench targets with `--test`: compile/run parity
    // only, skip the measurement suite.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    benches();
}
