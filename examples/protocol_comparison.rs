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
/// replica 0's saturation broken out per instance — batch-assembly thread
/// `b` serves instance `b mod k`, so the leader-only stage that binds the
/// single-primary pipeline is visibly split across instances, and each
/// instance's committed batches show the proposal load sharing.
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
    println!("\n-- multi-primary (k = {K}) per-instance breakdown, replica 0 --");
    println!("   ({:.0} txn/s over the window)", m.tps());
    let report = db.saturation(ReplicaId(0));
    for j in 0..K {
        // Replica 0 leads instance 0; for every other instance it only
        // batches after a view change hands it that instance's lead.
        let batch: Vec<_> = report
            .threads
            .iter()
            .filter(|t| t.stage == Stage::Batch && t.index % K == j)
            .collect();
        let sat = if batch.is_empty() {
            0.0
        } else {
            batch.iter().map(|t| t.saturation_pct).sum::<f64>() / batch.len() as f64
        };
        let items: u64 = batch.iter().map(|t| t.items).sum();
        println!(
            "    instance {j}: batch {:>5.1}% over {} thread(s), {:>6} items, \
             {:>5} committed batches, view {}",
            sat,
            batch.len(),
            items,
            db.committed_batches_for(ReplicaId(0), j),
            db.instance_views(j)[0],
        );
    }
    // The shared stages still serve the merged schedule once, whole.
    for stage in [Stage::Worker, Stage::ExecuteCoord, Stage::Execute] {
        println!(
            "    shared {:>9}: {:>5.1}% (one merged global schedule)",
            stage.label(),
            report.stage_mean(stage)
        );
    }
    db.shutdown();

    // What the same split buys when cores are not shared: the calibrated
    // cluster model's prediction from its measured k = 1 saturations.
    let mut cfg = rdb_sim::SimConfig::new(rdb_common::SystemConfig::new(4).unwrap());
    cfg.warmup_ms = 300;
    cfg.measure_ms = 700;
    let (base, rows) = rdb_sim::multi::sweep(&cfg, &[1, 2, 4]);
    println!(
        "   cluster model (8-core replicas): base {:.0} txn/s",
        base.throughput_tps
    );
    for r in &rows {
        println!(
            "    k={}: {:>8.0} txn/s predicted ({:.2}x), bottleneck {}",
            r.k,
            r.predicted_tps,
            r.speedup,
            r.bottleneck.0.label()
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
