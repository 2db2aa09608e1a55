//! Multi-primary ordering bench: k parallel PBFT instances vs the
//! single-primary baseline, k ∈ {1, 2, 4}.
//!
//! Two kinds of rows go into `BENCH_multi_primary.json`, written through
//! [`rdb_bench::report`]:
//!
//! - **Model rows** — one calibrated discrete-event simulator run per k,
//!   with `consensus_instances = k`. This is the in-memory cluster model
//!   (8-core replicas, the paper's testbed shape) and carries the
//!   headline result: spreading leadership across k instances relieves
//!   the leader-only batch stage, the k = 1 bottleneck. `model/base_tps`
//!   is the k = 1 run; per k, `model/k=<k>/{predicted_tps,speedup}` (the
//!   run's txn/s and its ratio to k = 1), the run's busiest stage at
//!   replica 0 as `model/k=<k>/bottleneck/<stage>` and every stage's
//!   busy % there as `model/k=<k>/stage_load/<stage>`.
//! - **Threaded rows** — a real 4-replica deployment under the swarm
//!   driver's closed-loop load (four sessions, bursts of 20, for one
//!   window), per transport (in-memory switchboard and TCP loopback) and
//!   per k: `threaded/<transport>/k=<k>/{throughput_tps,p50_ms,p99_ms,completed}`,
//!   committed txn/s, burst-latency p50/p99 and the txns committed in
//!   the window. These are honest wall-clock numbers for whatever
//!   hardware runs the bench (the envelope records its core count): on a
//!   box with fewer cores than the four replicas' threads all k values
//!   share them, so the threaded sweep is expected to be flat there —
//!   the rows exist to show k > 1 costs nothing and to exercise the
//!   path, not to reproduce the cluster speedup.

use rdb_bench::report::{Length, Report};
use rdb_common::TransportMode;
use rdb_sim::SimReport;
use resilientdb::{SwarmConfig, SystemBuilder};
use std::time::Duration;

const KS: [usize; 3] = [1, 2, 4];

/// Runs one window of closed-loop load against a 4-replica deployment
/// with `k` instances and records its `threaded/` rows.
fn run_threaded(report: &mut Report, transport: TransportMode, k: usize, window: Duration) {
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
    let prefix = match transport {
        TransportMode::InMemory => format!("threaded/memory/k={k}"),
        TransportMode::Tcp => format!("threaded/tcp/k={k}"),
    };
    report.record(format!("{prefix}/throughput_tps"), m.tps());
    report.record(format!("{prefix}/p50_ms"), m.p50_us as f64 / 1_000.0);
    report.record(format!("{prefix}/p99_ms"), m.p99_us as f64 / 1_000.0);
    report.record(format!("{prefix}/completed"), m.committed as f64);
}

fn run_suite(report: &mut Report) {
    // Model sweep: one calibrated DES run per k.
    let model: Vec<SimReport> = KS
        .iter()
        .map(|&k| {
            let mut cfg = rdb_bench::sim_base(4);
            cfg.system.consensus_instances = k;
            cfg.run()
        })
        .collect();
    let base = model[0].throughput_tps;
    report.record("model/base_tps", base);
    let mut speedups = Vec::new();
    for (k, run) in KS.iter().zip(&model) {
        let speedup = run.throughput_tps / base;
        report.record(format!("model/k={k}/predicted_tps"), run.throughput_tps);
        report.record(format!("model/k={k}/speedup"), speedup);
        let load = &run.primary_saturation;
        if let Some((stage, busy)) = load.iter().max_by(|a, b| a.1.total_cmp(b.1)) {
            report.record(format!("model/k={k}/bottleneck/{}", stage.label()), *busy);
        }
        for (stage, busy) in load {
            report.record(format!("model/k={k}/stage_load/{}", stage.label()), *busy);
        }
        speedups.push(speedup);
    }
    let k2_speedup = speedups[1];
    assert!(
        k2_speedup >= 1.5,
        "k=2 model speedup {k2_speedup:.3} below the 1.5x acceptance bar"
    );
    assert!(
        speedups[2] >= k2_speedup,
        "k=4 model speedup {:.3} below k=2's {k2_speedup:.3}",
        speedups[2]
    );

    // Threaded sweep over both transports.
    let window = report.window();
    for transport in [TransportMode::InMemory, TransportMode::Tcp] {
        for k in KS {
            run_threaded(report, transport, k, window);
        }
    }
}

fn main() {
    let Some(mut report) = Report::start(
        "multi_primary",
        "BENCH_multi_primary.json",
        "per-name suffix: _tps txn/s | speedup ratio | bottleneck/<stage> and \
         stage_load/<stage> % busy | _ms milliseconds | completed txns",
        Length::WindowMs(1_500),
    ) else {
        return;
    };
    report.param("replicas", 4usize);
    run_suite(&mut report);
    report.write();
}
