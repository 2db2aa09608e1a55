//! Cross-crate integration tests: the full public API surface exercised
//! end-to-end — fabric, clients, workloads, failures, the state store,
//! and sim-vs-threaded cross-checks.

use rdb_common::{
    ClientId, CryptoScheme, Digest, PeerMap, ProtocolKind, ReplicaId, SystemConfig, ThreadConfig,
};
use rdb_pipeline::Stage;
use rdb_sim::SimConfig;
use rdb_workload::{WorkloadConfig, WorkloadGenerator};
use resilientdb::{
    client_net, registry_for, start_replica, ClientSession, NodeOptions, ReplicaNode, TransportMode,
};
use resilientdb::{FaultAction, ResilientDb, SwarmConfig, SystemBuilder};
use std::time::{Duration, Instant};

/// Per-wait budget for commit/execution progress. 25 s covers a loaded
/// laptop running the suite in parallel; slow CI machines can extend it
/// with `RDB_TEST_WAIT_SECS` instead of editing every bound.
fn wait() -> Duration {
    let secs = std::env::var("RDB_TEST_WAIT_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(25);
    Duration::from_secs(secs)
}

/// Clients only need `f + 1` matching replies, so any single replica's
/// execute stage may trail `submit_and_wait`; poll instead of asserting
/// instantaneous progress.
fn await_executed(db: &ResilientDb, id: ReplicaId, at_least: u64) -> u64 {
    let deadline = Instant::now() + wait();
    loop {
        let executed = db.executed_txns(id);
        if executed >= at_least || Instant::now() >= deadline {
            return executed;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn full_stack_pbft_with_workload_generator() {
    let db = SystemBuilder::new(4)
        .batch_size(10)
        .table_size(512)
        .client_keys(2)
        .build()
        .unwrap();
    let mut gen = WorkloadGenerator::new(
        WorkloadConfig {
            table_size: 512,
            ops_per_txn: 3,
            ..Default::default()
        },
        11,
    );
    let mut client = db.client(0);
    let txns: Vec<_> = (0..40).map(|_| gen.next_transaction(client.id())).collect();
    assert_eq!(client.submit_and_wait(txns, wait()), 40);
    assert!(db.verify_chains().is_ok());
    assert!(await_executed(&db, ReplicaId(0), 40) >= 40);
    db.shutdown();
}

#[test]
fn protocol_smoke_both_variants_build_and_verify() {
    // Both protocol paths must come up, commit a trivial workload and
    // leave verifiable chains — keeps the non-default variant exercised
    // in tier-1, not only in the long e2e tests.
    for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
        let db = SystemBuilder::new(4)
            .protocol(protocol)
            .batch_size(4)
            .table_size(64)
            .client_keys(1)
            .build()
            .unwrap_or_else(|e| panic!("{protocol:?} must build: {e:?}"));
        let mut client = db.client(0);
        let txns: Vec<_> = (0..8)
            .map(|i| client.write_txn(i % 64, vec![i as u8]))
            .collect();
        assert_eq!(
            client.submit_and_wait(txns, wait()),
            8,
            "{protocol:?} must commit"
        );
        assert!(
            db.verify_chains().is_ok(),
            "{protocol:?} chains must verify"
        );
        db.shutdown();
    }
}

#[test]
fn two_clients_interleave() {
    let db = SystemBuilder::new(4)
        .batch_size(8)
        .table_size(256)
        .client_keys(2)
        .build()
        .unwrap();
    let mut c0 = db.client(0);
    let mut c1 = db.client(1);
    let t0: Vec<_> = (0..16).map(|i| c0.write_txn(i, vec![0xa0; 4])).collect();
    let t1: Vec<_> = (0..16)
        .map(|i| c1.write_txn(i + 100, vec![0xb1; 4]))
        .collect();
    c0.submit(t0);
    c1.submit(t1);
    assert_eq!(c0.await_all(wait()), 16);
    assert_eq!(c1.await_all(wait()), 16);
    db.shutdown();
}

#[test]
fn eight_replicas_commit() {
    let db = SystemBuilder::new(8)
        .batch_size(10)
        .table_size(256)
        .client_keys(1)
        .build()
        .unwrap();
    let mut client = db.client(0);
    let txns: Vec<_> = (0..20)
        .map(|i| client.write_txn(i % 256, vec![i as u8]))
        .collect();
    assert_eq!(client.submit_and_wait(txns, wait()), 20);
    db.shutdown();
}

#[test]
fn pure_ed25519_scheme_end_to_end() {
    let db = SystemBuilder::new(4)
        .crypto(CryptoScheme::Ed25519)
        .batch_size(5)
        .table_size(128)
        .client_keys(1)
        .build()
        .unwrap();
    let mut client = db.client(0);
    let txns: Vec<_> = (0..10).map(|i| client.write_txn(i, vec![1])).collect();
    assert_eq!(client.submit_and_wait(txns, wait()), 10);
    db.shutdown();
}

#[test]
fn store_takes_any_key_and_value_a_client_sends() {
    // A key past the preloaded table and a value 512× its 8-byte records:
    // every replica executes the write, the read answers with the value
    // (a read's result is its first 8 bytes) and the state digests agree.
    const TABLE: u64 = 512;
    for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
        let db = SystemBuilder::new(4)
            .protocol(protocol)
            .batch_size(1)
            .table_size(TABLE)
            .client_keys(1)
            .build()
            .unwrap();
        let mut client = db.client(0);
        let value: Vec<u8> = (0..4_096u32).map(|i| i as u8).collect();
        let write = client.write_txn(TABLE + 7, value.clone());
        let read = client.read_txn(TABLE + 7);
        let read_id = read.id;
        assert_eq!(
            client.submit_and_wait(vec![write], wait()),
            1,
            "{protocol:?}"
        );
        assert_eq!(
            client.submit_and_wait(vec![read], wait()),
            1,
            "{protocol:?}"
        );
        assert_eq!(client.result(read_id), Some(&value[..8]), "{protocol:?}");
        for r in 0..4 {
            let executed = await_executed(&db, ReplicaId(r), 2);
            assert!(
                executed >= 2,
                "{protocol:?}: replica {r} executed {executed}"
            );
        }
        let deadline = Instant::now() + wait();
        while !db.state_digests().windows(2).all(|w| w[0] == w[1]) {
            assert!(
                Instant::now() < deadline,
                "{protocol:?}: state digests diverged"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        db.shutdown();
    }
}

#[test]
fn pbft_tolerates_f_failures_zyzzyva_needs_cc() {
    // PBFT side: crash one backup of four, everything still commits.
    let db = SystemBuilder::new(4)
        .batch_size(5)
        .table_size(128)
        .client_keys(1)
        .build()
        .unwrap();
    db.crash_backup(ReplicaId(2));
    let mut client = db.client(0);
    let txns: Vec<_> = (0..10).map(|i| client.write_txn(i, vec![2])).collect();
    assert_eq!(client.submit_and_wait(txns, wait()), 10);
    db.shutdown();

    // Zyzzyva side: same failure forces the commit-certificate slow path,
    // which the client session drives automatically.
    let db = SystemBuilder::new(4)
        .protocol(ProtocolKind::Zyzzyva)
        .batch_size(5)
        .table_size(128)
        .client_keys(1)
        .build()
        .unwrap();
    db.crash_backup(ReplicaId(3));
    let mut client = db.client(0);
    let txns: Vec<_> = (0..5).map(|i| client.write_txn(i, vec![3])).collect();
    assert_eq!(client.submit_and_wait(txns, wait()), 5);
    db.shutdown();
}

#[test]
fn thread_config_sweep_commits_everywhere() {
    // Every Figure 8 configuration must be *correct*; performance differs,
    // safety must not.
    for threads in [
        ThreadConfig::monolithic(),
        ThreadConfig::with_e_b(1, 0),
        ThreadConfig::with_e_b(1, 1),
        ThreadConfig::with_e_b(1, 2),
    ] {
        let db = SystemBuilder::new(4)
            .threads(threads)
            .batch_size(5)
            .table_size(128)
            .client_keys(1)
            .build()
            .unwrap();
        let mut client = db.client(0);
        let txns: Vec<_> = (0..10).map(|i| client.write_txn(i, vec![4])).collect();
        assert_eq!(
            client.submit_and_wait(txns, wait()),
            10,
            "config {} must commit",
            threads.label()
        );
        db.shutdown();
    }
}

#[test]
fn simulator_matches_threaded_runtime_ordering() {
    // Qualitative cross-check: in both the simulator and the threaded
    // runtime, the pipelined configuration beats the monolith and PBFT
    // survives failures. (Absolute numbers differ by design — the sim
    // models a datacenter, the runtime shares one laptop.)
    let sim_run = |threads: ThreadConfig, failures: usize| -> f64 {
        let mut sys = SystemConfig::new(4).unwrap();
        sys.num_clients = 2_000;
        sys.threads = threads;
        let mut cfg = SimConfig::new(sys);
        cfg.failures = failures;
        cfg.warmup_ms = 150;
        cfg.measure_ms = 300;
        cfg.run().throughput_tps
    };
    let piped = sim_run(ThreadConfig::standard(), 0);
    let mono = sim_run(ThreadConfig::monolithic(), 0);
    assert!(
        piped > mono,
        "sim: pipeline {piped} must beat monolith {mono}"
    );
    let failed = sim_run(ThreadConfig::standard(), 1);
    assert!(failed > piped * 0.5, "sim: PBFT under failure must hold up");
}

/// The reply path pays per (client, batch), not per transaction: with
/// bursts that fill a batch, a round costs one request, 24 consensus
/// messages and n reply envelopes — under one message per transaction.
/// Per-transaction replies alone would be n = 4 per transaction.
#[test]
fn replies_are_coalesced_per_client_per_batch() {
    const BURST: u64 = 50;
    const BURSTS: u64 = 40;
    let db = SystemBuilder::new(4)
        .batch_size(BURST as usize)
        .table_size(512)
        .client_keys(1)
        .build()
        .unwrap();
    let mut client = db.client(0);
    let before = db.network().stats().total_sent();
    let mut confirmed = 0;
    for _ in 0..BURSTS {
        let txns: Vec<_> = (0..BURST)
            .map(|i| client.write_txn(i % 512, vec![i as u8; 8]))
            .collect();
        confirmed += client.submit_and_wait(txns, wait()) as u64;
    }
    assert_eq!(confirmed, BURST * BURSTS);
    let per_txn = (db.network().stats().total_sent() - before) as f64 / confirmed as f64;
    assert!(per_txn < 1.0, "{per_txn:.2} messages per transaction");
    assert!(db.verify_chains().is_ok());
    db.shutdown();
}

/// A backup sleeps through two checkpoint intervals, so its holes are
/// pruned everywhere and only a snapshot can repair it — and the peers
/// serving that snapshot do not stop for it: they build it from their
/// mark while executing past it. The rejoiner must land on their digest
/// and their head block's result — the chained per-block digest picks up
/// from the installed snapshot block — without having executed the
/// history it was handed.
fn rejoins_by_snapshot_while_the_cluster_keeps_executing(
    protocol: ProtocolKind,
    transport: TransportMode,
) {
    const BATCH: u64 = 5;
    const INTERVAL: u64 = 10; // batches per checkpoint
    let mut builder = SystemBuilder::new(4)
        .protocol(protocol)
        .transport(transport)
        .batch_size(BATCH as usize)
        .checkpoint_interval(INTERVAL * BATCH)
        .table_size(128)
        .client_keys(1);
    // A 100 ms fetch back-off: under PBFT the f + 1 peers that must vouch
    // for one mark are asked a back-off apart, so the load below is paced
    // to keep a mark current for several of those.
    builder.config_mut().view_timeout_ms = 400;
    let db = builder.build().unwrap();
    let mut client = db.client(0);
    let mut submitted = 0;
    let mut burst = |batches: u64| {
        for _ in 0..batches {
            let txns: Vec<_> = (submitted..submitted + BATCH)
                .map(|i| client.write_txn(i % 128, i.to_le_bytes().to_vec()))
                .collect();
            assert_eq!(client.submit_and_wait(txns, wait()), BATCH as usize);
            submitted += BATCH;
        }
        submitted
    };
    let sleeper = ReplicaId(2);
    burst(2);
    db.crash_backup(sleeper);
    burst(2 * INTERVAL + 3);
    db.apply_fault(&FaultAction::Recover(sleeper.0));
    // New commits are how the rejoiner learns it is behind, and what the
    // serving peers execute on top of the mark they serve.
    let deadline = Instant::now() + wait();
    let converged = loop {
        let total = burst(1);
        std::thread::sleep(Duration::from_millis(50));
        let digests = db.state_digests();
        let heads = db.head_results();
        if digests.iter().all(|d| *d == digests[0]) && heads.iter().all(|h| *h == heads[0]) {
            break Some(total);
        }
        if Instant::now() >= deadline {
            break None;
        }
    };
    let total = converged.unwrap_or_else(|| {
        panic!(
            "{protocol:?} {transport:?}: rejoiner stuck at head {} of {:?}",
            db.chain_heads()[sleeper.as_usize()],
            db.head_results()
        )
    });
    assert!(
        db.executed_txns(sleeper) < total,
        "{protocol:?}: transferred history is installed, not re-executed"
    );
    assert!(db.verify_chains().is_ok());
    db.shutdown();
}

#[test]
fn pbft_rejoins_by_snapshot_while_the_cluster_keeps_executing() {
    rejoins_by_snapshot_while_the_cluster_keeps_executing(
        ProtocolKind::Pbft,
        TransportMode::InMemory,
    );
}

#[test]
fn zyzzyva_rejoins_by_snapshot_while_the_cluster_keeps_executing() {
    rejoins_by_snapshot_while_the_cluster_keeps_executing(
        ProtocolKind::Zyzzyva,
        TransportMode::InMemory,
    );
}

#[test]
fn pbft_rejoins_by_snapshot_over_tcp() {
    rejoins_by_snapshot_while_the_cluster_keeps_executing(ProtocolKind::Pbft, TransportMode::Tcp);
}

#[test]
fn zyzzyva_rejoins_by_snapshot_over_tcp() {
    rejoins_by_snapshot_while_the_cluster_keeps_executing(
        ProtocolKind::Zyzzyva,
        TransportMode::Tcp,
    );
}

/// Four replica nodes over loopback TCP, each with its own data directory.
/// Retries on fresh ports if one was snatched between reserving and
/// binding it.
fn durable_tcp_cluster(
    protocol: ProtocolKind,
    dir: &std::path::Path,
) -> (NodeOptions, Vec<ReplicaNode>) {
    for _ in 0..3 {
        let listeners: Vec<_> = (0..4)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port"))
            .collect();
        let mut peers = PeerMap::new();
        for (i, l) in listeners.iter().enumerate() {
            peers.insert(ReplicaId(i as u32), l.local_addr().expect("bound"));
        }
        drop(listeners);
        let mut opts = NodeOptions::new(peers).expect("valid peer map");
        opts.system.protocol = protocol;
        opts.system.batch_size = 5;
        opts.system.checkpoint_interval = 4 * 5;
        opts.system.table_size = 128;
        opts.system.num_clients = 1;
        opts.system.view_timeout_ms = 400;
        opts.system.durability.data_dir = Some(dir.to_str().expect("utf-8 temp dir").into());
        let nodes: Vec<_> = (0..4)
            .map_while(|i| start_replica(&opts, ReplicaId(i)).ok())
            .collect();
        if nodes.len() == 4 {
            return (opts, nodes);
        }
        nodes.into_iter().for_each(ReplicaNode::shutdown);
    }
    panic!("lost the port race three times");
}

/// A durable replica is shut down in the middle of a checkpoint interval
/// and started again from its data directory while the others move on:
/// it replays its WAL under the same interval (so it re-derives the same
/// per-block digests), catches up, votes at the sequences its peers vote
/// at, and ends on their head block result and state digest.
fn restarts_from_its_data_directory(protocol: ProtocolKind) {
    const BATCH: u64 = 5;
    let dir = std::env::temp_dir().join(format!(
        "rdb-integration-restart-{protocol:?}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (opts, mut nodes) = durable_tcp_cluster(protocol, &dir);
    let client_net = client_net(&opts, None).expect("client transport");
    let mut client = ClientSession::connect(
        ClientId(0),
        &client_net,
        &registry_for(&opts),
        opts.system.protocol,
        opts.system.consensus_instances,
        opts.system.n,
    );
    let mut submitted = 0;
    let mut burst = |batches: u64| {
        for _ in 0..batches {
            let txns: Vec<_> = (submitted..submitted + BATCH)
                .map(|i| client.write_txn(i % 128, i.to_le_bytes().to_vec()))
                .collect();
            assert_eq!(client.submit_and_wait(txns, wait()), BATCH as usize);
            submitted += BATCH;
        }
    };
    // Δ = 4 batches: one whole interval and three batches into the next.
    burst(7);
    let victim = 2;
    let executed = |node: &ReplicaNode| node.shared().executor.executed_txns();
    let deadline = Instant::now() + wait();
    while executed(&nodes[victim]) < 7 * BATCH && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        executed(&nodes[victim]),
        7 * BATCH,
        "{protocol:?}: victim caught up before dying"
    );
    nodes.remove(victim).shutdown();
    burst(3);
    let reborn = start_replica(&opts, ReplicaId(victim as u32)).expect("restart on the same port");
    let recovered = reborn
        .shared()
        .recovery_report()
        .expect("durable replica reports recovery");
    assert!(
        recovered.head.0 >= 4,
        "{protocol:?}: restarted from disk, got {recovered:?}"
    );
    nodes.insert(victim, reborn);
    let head_of = |node: &ReplicaNode| -> (u64, Digest, Digest) {
        let shared = node.shared();
        let chain = shared.executor.chain().lock();
        (
            chain.head().seq.0,
            chain.head().result_digest,
            shared.executor.store().state_digest(),
        )
    };
    let deadline = Instant::now() + wait();
    let converged = loop {
        // New commits are how the restarted replica learns it is behind.
        burst(1);
        std::thread::sleep(Duration::from_millis(50));
        let heads: Vec<_> = nodes.iter().map(head_of).collect();
        if heads.iter().all(|h| *h == heads[0]) {
            break true;
        }
        if Instant::now() >= deadline {
            eprintln!("{protocol:?}: heads {heads:?}");
            break false;
        }
    };
    drop(client);
    client_net.shutdown();
    nodes.into_iter().for_each(ReplicaNode::shutdown);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        converged,
        "{protocol:?}: restarted replica never matched the survivors"
    );
}

#[test]
fn pbft_restarts_from_its_data_directory() {
    restarts_from_its_data_directory(ProtocolKind::Pbft);
}

#[test]
fn zyzzyva_restarts_from_its_data_directory() {
    restarts_from_its_data_directory(ProtocolKind::Zyzzyva);
}

#[test]
fn saturation_metrics_exposed() {
    let db = SystemBuilder::new(4)
        .batch_size(5)
        .table_size(128)
        .client_keys(1)
        .build()
        .unwrap();
    let mut client = db.client(0);
    let txns: Vec<_> = (0..20).map(|i| client.write_txn(i, vec![5])).collect();
    assert_eq!(client.submit_and_wait(txns, wait()), 20);
    let report = db.saturation(ReplicaId(0));
    assert!(
        !report.threads.is_empty(),
        "primary must report thread metrics"
    );
    assert!(report.cumulative_pct() >= 0.0);
    db.shutdown();
}

/// A `1E 2B` deployment with `k` consensus instances.
fn multi_primary(k: usize) -> ResilientDb {
    SystemBuilder::new(4)
        .threads(ThreadConfig::with_e_b(1, 2))
        .consensus_instances(k)
        .batch_size(10)
        .table_size(4_096)
        .client_keys(4)
        .build()
        .unwrap()
}

/// The batch threads `id` runs, each with the items it recorded.
fn batch_thread_items(db: &ResilientDb, id: ReplicaId) -> Vec<u64> {
    let report = db.saturation(id);
    let batch = report.threads.iter().filter(|t| t.stage == Stage::Batch);
    batch.map(|t| t.items).collect()
}

/// `batch_threads` is the number of batch threads at any number of
/// instances: every thread serves every instance its replica leads.
#[test]
fn batch_threads_are_b_at_every_k() {
    let db = multi_primary(4);
    for r in 0..4 {
        let threads = batch_thread_items(&db, ReplicaId(r)).len();
        assert_eq!(threads, 2, "replica {r} runs B = 2 batch threads");
    }
    db.shutdown();
}

/// At k = 2 both leaders keep both batch threads busy: clients 0 and 2
/// shard to instance 0 (led by replica 0), 1 and 3 to instance 1 (led by
/// replica 1), and each leader's two threads share its requests.
#[test]
fn every_batch_thread_of_a_leader_records_items() {
    let db = multi_primary(2);
    let load = SwarmConfig {
        clients: 4,
        txns_per_client: u64::MAX,
        burst: 20,
        shards: 4,
        first_client: 0,
        deadline: Duration::from_millis(1_500),
    };
    let m = db.run_swarm(&load, |_, _| {});
    assert!(m.committed > 0, "the swarm committed nothing");
    for leader in [0, 1] {
        let items = batch_thread_items(&db, ReplicaId(leader));
        assert_eq!(items.len(), 2);
        assert!(
            items.iter().all(|&n| n > 0),
            "replica {leader}'s batch threads recorded {items:?} items"
        );
    }
    db.shutdown();
}
