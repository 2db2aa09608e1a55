//! The paper's headline question, live: can a well-crafted system running
//! three-phase PBFT outperform single-phase Zyzzyva? Runs both protocols
//! on the threaded runtime at laptop scale, then reruns the comparison in
//! the calibrated simulator at paper scale (16 replicas, 80K clients),
//! healthy and under one backup failure.
//!
//! ```text
//! cargo run --release --example protocol_comparison
//! ```

use rdb_common::{MessageKind, ProtocolKind, ReplicaId, ThreadConfig};
use rdb_pipeline::Stage;
use resilientdb::{ResilientDb, SwarmConfig, SwarmReport, SystemBuilder};
use std::time::Duration;

/// `clients` closed-loop sessions submitting bursts of 30 writes for two
/// seconds.
fn measure(db: &ResilientDb, clients: usize) -> SwarmReport {
    let cfg = SwarmConfig {
        clients,
        txns_per_client: u64::MAX,
        burst: 30,
        shards: clients,
        first_client: 0,
        deadline: Duration::from_secs(2),
    };
    db.run_swarm(&cfg, |_, _| {})
}

fn threaded_measurement(protocol: ProtocolKind) -> SwarmReport {
    let db = SystemBuilder::new(4)
        .protocol(protocol)
        .batch_size(10)
        .table_size(1_024)
        .client_keys(4)
        .build()
        .expect("valid configuration");
    let m = measure(&db, 3);
    print_wire_breakdown(protocol, &db);
    db.shutdown();
    m
}

/// Per-kind message and bytes-on-wire breakdown. The byte counts come
/// from the exact canonical encoding (`Wire::encoded_len`) of every sent
/// envelope, so the same table is directly comparable between the
/// in-memory switchboard and a TCP deployment.
fn print_wire_breakdown(protocol: ProtocolKind, db: &ResilientDb) {
    let stats = db.network().stats();
    println!("\n-- wire traffic by message kind ({}) --", protocol.name());
    for kind in MessageKind::ALL {
        let sent = stats.sent(kind);
        if sent == 0 {
            continue;
        }
        let bytes = stats.bytes_for(kind);
        println!(
            "{kind:>14?}: {sent:>7} msgs, {bytes:>10} bytes ({:>5} B/msg)",
            bytes / sent
        );
    }
    println!(
        "{:>14}: {:>7} msgs, {:>10} bytes",
        "total",
        stats.total_sent(),
        stats.bytes_sent()
    );
}

/// Runs PBFT on the parallel-execution pipeline and prints the primary's
/// per-stage saturation (Figure 9's measurement, now including the
/// execute-worker pool), making the pipeline's bottleneck visible.
fn saturation_breakdown() {
    let db = SystemBuilder::new(4)
        .batch_size(10)
        .table_size(1_024)
        // 4 conflict-scheduled execute workers behind the coordinator.
        .threads(ThreadConfig::with_e_b(4, 2))
        .client_keys(4)
        .build()
        .expect("valid configuration");
    let m = measure(&db, 3);
    let report = db.saturation(ReplicaId(0));
    println!("\n-- primary per-stage saturation (PBFT, 4E 2B pipeline) --");
    println!("   ({:.0} txn/s over the window)", m.tps());
    let stages = [
        Stage::Batch,
        Stage::Worker,
        Stage::ExecuteCoord,
        Stage::Execute,
        Stage::Output,
    ];
    for stage in stages {
        let threads: Vec<_> = report.threads.iter().filter(|t| t.stage == stage).collect();
        if threads.is_empty() {
            continue;
        }
        let items: u64 = threads.iter().map(|t| t.items).sum();
        println!(
            "{:>14}: {:>5.1}% mean over {} thread(s), {:>7} items",
            stage.label(),
            report.stage_mean(stage),
            threads.len(),
            items
        );
    }
    println!(
        "cumulative saturation: {:.0}% (the paper's Figure 9 metric)",
        report.cumulative_pct()
    );
    db.shutdown();
}

/// Multi-primary ordering: runs k = 2 parallel PBFT instances and prints
/// each instance's committed batches at replica 0 — the proposal load
/// shared between the two leaders — beside replica 0's stage saturations.
/// Its batch threads serve every instance it leads.
fn multi_primary_breakdown() {
    const K: usize = 2;
    let db = SystemBuilder::new(4)
        .batch_size(10)
        .table_size(1_024)
        .consensus_instances(K)
        .threads(ThreadConfig::with_e_b(4, 2))
        .client_keys(4)
        .build()
        .expect("valid configuration");
    let m = measure(&db, 4);
    println!("\n-- multi-primary (k = {K}) breakdown, replica 0 --");
    println!("   ({:.0} txn/s over the window)", m.tps());
    for j in 0..K {
        println!(
            "    instance {j}: {:>5} committed batches, view {}",
            db.committed_batches_for(ReplicaId(0), j),
            db.instance_views(j)[0],
        );
    }
    // Replica 0 leads instance 0 only; the shared stages serve the merged
    // schedule once, whole.
    let report = db.saturation(ReplicaId(0));
    for stage in [
        Stage::Batch,
        Stage::Worker,
        Stage::ExecuteCoord,
        Stage::Execute,
    ] {
        println!(
            "    {:>14}: {:>5.1}% mean",
            stage.label(),
            report.stage_mean(stage)
        );
    }
    db.shutdown();

    // What the same split buys when cores are not shared: the calibrated
    // cluster model, run with k instances.
    let model = |k| {
        let mut cfg = rdb_sim::SimConfig::new(rdb_common::SystemConfig::new(4).unwrap());
        cfg.system.consensus_instances = k;
        cfg.warmup_ms = 300;
        cfg.measure_ms = 700;
        cfg.run()
    };
    let base = model(1).throughput_tps;
    println!("   cluster model (8-core replicas): k=1 {base:.0} txn/s");
    for k in [2, 4] {
        let run = model(k);
        let busiest = run
            .primary_saturation
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or("none", |(stage, _)| stage.label());
        println!(
            "    k={k}: {:>8.0} txn/s ({:.2}x), busiest stage {busiest}",
            run.throughput_tps,
            run.throughput_tps / base
        );
    }
}

fn sim_tput(protocol: ProtocolKind, threads: ThreadConfig, failures: usize) -> f64 {
    let mut cfg = rdb_sim::SimConfig::new(rdb_common::SystemConfig::new(16).unwrap());
    cfg.system.protocol = protocol;
    cfg.system.threads = threads;
    cfg.failures = failures;
    cfg.warmup_ms = 300;
    cfg.measure_ms = 700;
    cfg.run().throughput_tps
}

fn main() {
    println!("-- threaded runtime (4 replicas, laptop scale) --");
    let pbft = threaded_measurement(ProtocolKind::Pbft);
    let zyz = threaded_measurement(ProtocolKind::Zyzzyva);
    for (name, m) in [("PBFT   ", &pbft), ("Zyzzyva", &zyz)] {
        println!(
            "{name} : {:>8.0} txn/s, burst p50 {:>6.1} ms, p99 {:>6.1} ms",
            m.tps(),
            m.p50_us as f64 / 1_000.0,
            m.p99_us as f64 / 1_000.0
        );
    }

    saturation_breakdown();
    multi_primary_breakdown();

    println!("\n-- simulator (16 replicas, 80K clients, paper scale) --");
    let pbft_good = sim_tput(ProtocolKind::Pbft, ThreadConfig::standard(), 0);
    let zyz_mono = sim_tput(ProtocolKind::Zyzzyva, ThreadConfig::monolithic(), 0);
    let zyz_good = sim_tput(ProtocolKind::Zyzzyva, ThreadConfig::standard(), 0);
    println!(
        "PBFT on the ResilientDB pipeline (1E 2B): {:>8.0} txn/s",
        pbft_good
    );
    println!(
        "Zyzzyva, protocol-centric design (0E 0B): {:>8.0} txn/s",
        zyz_mono
    );
    println!(
        "Zyzzyva on the ResilientDB pipeline:      {:>8.0} txn/s",
        zyz_good
    );
    println!(
        "→ well-crafted PBFT beats protocol-centric Zyzzyva by {:.0}%",
        100.0 * (pbft_good / zyz_mono - 1.0)
    );

    println!("\n-- one backup failure (the paper's Q11) --");
    let pbft_fail = sim_tput(ProtocolKind::Pbft, ThreadConfig::standard(), 1);
    let zyz_fail = sim_tput(ProtocolKind::Zyzzyva, ThreadConfig::standard(), 1);
    println!(
        "PBFT with 1 crashed backup:    {:>8.0} txn/s (unaffected)",
        pbft_fail
    );
    println!(
        "Zyzzyva with 1 crashed backup: {:>8.0} txn/s ({:.0}x collapse)",
        zyz_fail,
        zyz_good / zyz_fail.max(1.0)
    );
}
