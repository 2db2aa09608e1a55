//! Multi-primary ordering bench: k parallel PBFT instances vs the
//! single-primary baseline, k ∈ {1, 2, 4}.
//!
//! Two kinds of rows go into `BENCH_multi_primary.json`:
//!
//! - **Model rows** — the calibrated discrete-event simulator's k = 1
//!   run plus the [`rdb_sim::multi`] prediction for each k. This is the
//!   in-memory cluster model (8-core replicas, the paper's testbed
//!   shape) and carries the headline result: spreading leadership
//!   across k instances relieves the leader-only batch stage, the k = 1
//!   bottleneck.
//! - **Threaded rows** — a real 4-replica deployment under the swarm
//!   driver's closed-loop load (four sessions, bursts of 20, for one
//!   window), per transport (in-memory switchboard and TCP loopback) and
//!   per k: committed txn/s and burst-latency p50/p99. These are honest
//!   wall-clock numbers for whatever hardware
//!   runs the bench: on a single-core CI container all k values share
//!   one core, so the threaded sweep is expected to be flat there — the
//!   rows exist to show k > 1 costs nothing and to exercise the path,
//!   not to reproduce the cluster speedup.

use criterion::{criterion_group, Criterion};
use rdb_common::TransportMode;
use resilientdb::{SwarmConfig, SystemBuilder};
use std::time::Duration;

const KS: [usize; 3] = [1, 2, 4];

fn window_ms() -> u64 {
    std::env::var("RDB_BENCH_WINDOW_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_500)
}

struct ThreadedRow {
    transport: &'static str,
    k: usize,
    throughput_tps: f64,
    p50_ms: f64,
    p99_ms: f64,
    completed: u64,
}

fn run_threaded(transport: TransportMode, k: usize, window: Duration) -> ThreadedRow {
    let db = SystemBuilder::new(4)
        .batch_size(20)
        .consensus_instances(k)
        .client_keys(8)
        // Large table, distinct keys per client: low contention.
        .table_size(16_384)
        .transport(transport)
        .seed(42)
        .build()
        .expect("valid config");
    let load = SwarmConfig {
        clients: 4,
        txns_per_client: u64::MAX,
        burst: 20,
        shards: 4,
        first_client: 0,
        deadline: window,
    };
    let m = db.run_swarm(&load, |_, _| {});
    db.shutdown();
    ThreadedRow {
        transport: match transport {
            TransportMode::InMemory => "memory",
            TransportMode::Tcp => "tcp",
        },
        k,
        throughput_tps: m.tps(),
        p50_ms: m.p50_us as f64 / 1_000.0,
        p99_ms: m.p99_us as f64 / 1_000.0,
        completed: m.committed,
    }
}

fn run_suite() -> String {
    // Model sweep: one calibrated k = 1 DES run, predictions per k.
    let cfg = rdb_bench::sim_base(4);
    let (base, model) = rdb_sim::multi::sweep(&cfg, &KS);
    println!(
        "model base: {:.0} txn/s, binding stage at primary = batch ({:.1}%)",
        base.throughput_tps,
        base.primary_saturation
            .values()
            .cloned()
            .fold(0.0_f64, f64::max)
    );
    for row in &model {
        println!(
            "model k={}: {:.0} txn/s ({:.2}x), bottleneck {}",
            row.k,
            row.predicted_tps,
            row.speedup,
            row.bottleneck.0.label()
        );
    }
    let k2_speedup = model
        .iter()
        .find(|r| r.k == 2)
        .map(|r| r.speedup)
        .unwrap_or(f64::NAN);
    assert!(
        k2_speedup >= 1.5,
        "k=2 model speedup {k2_speedup:.3} below the 1.5x acceptance bar"
    );

    // Threaded sweep over both transports.
    let window = Duration::from_millis(window_ms());
    let mut threaded = Vec::new();
    for transport in [TransportMode::InMemory, TransportMode::Tcp] {
        for k in KS {
            let row = run_threaded(transport, k, window);
            println!(
                "threaded {}/k={}: {:.0} txn/s, p50 {:.2} ms, p99 {:.2} ms, {} txns",
                row.transport, row.k, row.throughput_tps, row.p50_ms, row.p99_ms, row.completed
            );
            threaded.push(row);
        }
    }

    let model_rows: Vec<String> = model
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let threaded_rows: Vec<String> = threaded
        .iter()
        .map(|r| {
            format!(
                "    {{\"transport\": \"{}\", \"k\": {}, \"throughput_tps\": {:.1}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"completed\": {}}}",
                r.transport, r.k, r.throughput_tps, r.p50_ms, r.p99_ms, r.completed
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"multi_primary\",\n  \"replicas\": 4,\n  \
         \"model_base_tps\": {:.1},\n  \"model_k2_speedup\": {:.3},\n  \
         \"model\": [\n{}\n  ],\n  \"threaded\": [\n{}\n  ]\n}}\n",
        base.throughput_tps,
        k2_speedup,
        model_rows.join(",\n"),
        threaded_rows.join(",\n")
    )
}

fn bench_multi_primary(_c: &mut Criterion) {
    let json = run_suite();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_multi_primary.json"
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write BENCH_multi_primary.json: {e}");
    } else {
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_multi_primary);

fn main() {
    // `cargo test` runs bench targets with `--test`: compile/run parity
    // only, skip the measurement suite.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    benches();
}
