//! Multi-primary ordering, end to end: k parallel PBFT instances over one
//! replica set must produce exactly the state a single-primary deployment
//! reaches on the same workload — the merge into one global execute
//! schedule is deterministic — while spreading proposals across k leaders.

use resilientdb::SystemBuilder;
use std::time::Duration;

/// Runs `clients` sessions, each writing `txns_per_client` unique keys,
/// over a fresh k-instance deployment; returns the replicas' state
/// digests once everything commits.
fn run_workload(k: usize, clients: u64, txns_per_client: u64) -> Vec<rdb_common::Digest> {
    let db = SystemBuilder::new(4)
        .batch_size(4)
        .consensus_instances(k)
        .client_keys(clients as usize)
        .table_size(4096)
        .seed(77)
        .build()
        .expect("valid config");
    let mut sessions: Vec<_> = (0..clients).map(|c| db.client(c)).collect();
    for s in &mut sessions {
        // Unique key per (client, index): the committed write-set — and so
        // the state digest — is independent of commit interleaving.
        let base = s.id().0 * txns_per_client;
        let txns: Vec<_> = (0..txns_per_client)
            .map(|i| s.write_txn(base + i, (base + i).to_le_bytes().to_vec()))
            .collect();
        s.submit(txns);
    }
    for s in &mut sessions {
        let done = s.await_all(Duration::from_secs(30));
        assert_eq!(
            done as u64,
            txns_per_client,
            "client {:?} must complete its requests (k={k})",
            s.id()
        );
    }
    // Let the tail of the schedule execute on every replica.
    std::thread::sleep(Duration::from_millis(400));
    let digests = db.state_digests();
    db.verify_chains().expect("chains verify");
    db.shutdown();
    digests
}

#[test]
fn k2_digests_match_k1() {
    let k1 = run_workload(1, 4, 12);
    let k2 = run_workload(2, 4, 12);
    assert!(k1.windows(2).all(|w| w[0] == w[1]), "k=1 replicas agree");
    assert!(k2.windows(2).all(|w| w[0] == w[1]), "k=2 replicas agree");
    assert_eq!(
        k1[0], k2[0],
        "two-instance schedule must execute to the single-primary state"
    );
}

#[test]
fn k4_digests_match_k1() {
    let k1 = run_workload(1, 4, 8);
    let k4 = run_workload(4, 4, 8);
    assert!(k4.windows(2).all(|w| w[0] == w[1]), "k=4 replicas agree");
    assert_eq!(
        k1[0], k4[0],
        "four-instance schedule matches single-primary"
    );
}

#[test]
fn crashed_instance_primary_stalls_only_its_instance() {
    let mut builder = SystemBuilder::new(4)
        .batch_size(4)
        .consensus_instances(2)
        .client_keys(2)
        .table_size(4096)
        .seed(79);
    builder.config_mut().view_timeout_ms = 300;
    let db = builder.build().expect("valid config");

    // Replica 1 is instance 1's view-0 primary and a plain backup of
    // instance 0. Kill it before any traffic flows.
    db.apply_fault(&resilientdb::FaultAction::Crash(1));

    // Client 0 shards to instance 0 (led by the healthy replica 0): its
    // load must complete promptly, with instance 1 dead the whole time.
    let mut c0 = db.client(0);
    let txns: Vec<_> = (0..8u64).map(|i| c0.write_txn(i, vec![7])).collect();
    c0.submit(txns);
    let done = c0.await_all(Duration::from_secs(20));
    assert_eq!(
        done, 8,
        "instance 0 must commit with instance 1's primary dead"
    );
    assert!(
        db.committed_batches_for(rdb_common::ReplicaId(0), 0) > 0,
        "instance 0 committed real work"
    );

    // Client 1 shards to instance 1: initially aimed at the dead replica,
    // its retransmission broadcast surfaces demand, suspicion fires, and
    // the per-instance view change elects replica (1+1) mod 4 = 2. The
    // reply's view stamp re-aims the session at that same instance's new
    // primary.
    let mut c1 = db.client(1);
    let txns: Vec<_> = (0..8u64).map(|i| c1.write_txn(100 + i, vec![9])).collect();
    c1.submit(txns);
    let done = c1.await_all(Duration::from_secs(25));
    assert_eq!(done, 8, "instance 1 must recover via its own view change");

    // Instance 1 view-changed on the survivors; instance 0 never did.
    let v1 = db.instance_views(1);
    for r in [0usize, 2, 3] {
        assert!(
            v1[r] >= 1,
            "replica {r} must have advanced instance 1's view: {v1:?}"
        );
    }
    let v0 = db.instance_views(0);
    for r in [0usize, 2, 3] {
        assert_eq!(v0[r], 0, "instance 0 must be untouched: {v0:?}");
    }
    db.shutdown();
}

#[test]
fn instances_share_proposal_load() {
    let db = SystemBuilder::new(4)
        .batch_size(2)
        .consensus_instances(2)
        .client_keys(4)
        .table_size(4096)
        .seed(78)
        .build()
        .expect("valid config");
    let mut sessions: Vec<_> = (0..4u64).map(|c| db.client(c)).collect();
    for s in &mut sessions {
        let base = s.id().0 * 100;
        let txns: Vec<_> = (0..10u64).map(|i| s.write_txn(base + i, vec![1])).collect();
        s.submit(txns);
    }
    for s in &mut sessions {
        assert_eq!(s.await_all(Duration::from_secs(30)), 10);
    }
    std::thread::sleep(Duration::from_millis(300));
    // Both instances must have committed real work at replica 0: clients
    // 0/2 shard to instance 0 (led by replica 0), clients 1/3 to instance
    // 1 (led by replica 1).
    let i0 = db.committed_batches_for(rdb_common::ReplicaId(0), 0);
    let i1 = db.committed_batches_for(rdb_common::ReplicaId(0), 1);
    assert!(i0 > 0, "instance 0 committed nothing");
    assert!(i1 > 0, "instance 1 committed nothing");
    db.shutdown();
}
