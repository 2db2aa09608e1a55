//! A replicated key-value store under a YCSB-style workload, with a
//! mid-run backup failure — demonstrating that the PBFT fabric keeps
//! committing with `f` replicas down (Figure 17's PBFT side) — and a
//! contention sweep over the deterministic parallel executor: the same
//! cluster commits a low-contention burst (keys spread over the table,
//! conflict waves stay shallow) and a high-contention burst (90% of
//! operations on 4 hot keys, forcing the scheduler to serialize).
//!
//! ```text
//! cargo run --example kv_store
//! ```

use rdb_common::{ReplicaId, ThreadConfig};
use rdb_workload::{WorkloadConfig, WorkloadGenerator};
use resilientdb::{FaultAction, SystemBuilder};
use std::time::{Duration, Instant};

fn main() {
    let table_size = 2_048;
    let db = SystemBuilder::new(4)
        .batch_size(10)
        .table_size(table_size)
        // Four conflict-scheduled execute workers per replica (4E 2B).
        .threads(ThreadConfig::with_e_b(4, 2))
        .client_keys(1)
        .build()
        .expect("valid configuration");

    // YCSB-style generator: Zipfian key choice over the table, write-only
    // (the paper's workload), seeded for reproducibility.
    let mut gen = WorkloadGenerator::new(
        WorkloadConfig {
            table_size,
            zipf_theta: 0.9,
            ..Default::default()
        },
        7,
    );
    let mut client = db.client(0);

    // Phase 1: healthy cluster.
    let healthy: Vec<_> = (0..30).map(|_| gen.next_transaction(client.id())).collect();
    let done = client.submit_and_wait(healthy, Duration::from_secs(15));
    println!("phase 1 (healthy): {done}/30 committed");
    assert_eq!(done, 30);

    // Phase 2: crash one backup (n=4 tolerates f=1) and keep going.
    db.crash_backup(ReplicaId(3));
    println!("crashed backup r3 — PBFT continues with 2f+1 live replicas");
    let degraded: Vec<_> = (0..30).map(|_| gen.next_transaction(client.id())).collect();
    let done = client.submit_and_wait(degraded, Duration::from_secs(20));
    println!("phase 2 (one backup down): {done}/30 committed");
    assert_eq!(done, 30);

    // Phase 3: recover the backup; new commits flow again.
    db.apply_fault(&FaultAction::Recover(3));
    let recovered: Vec<_> = (0..30).map(|_| gen.next_transaction(client.id())).collect();
    let done = client.submit_and_wait(recovered, Duration::from_secs(15));
    println!("phase 3 (recovered): {done}/30 committed");
    assert_eq!(done, 30);

    // Phase 4: contention sweep over the parallel executor. Same cluster,
    // two bursts: keys spread over the table vs. 90% on 4 hot keys.
    //
    // The fresh generators restart their per-client counters at 0, which
    // would collide with the transaction ids phases 1-3 already used (and
    // whose surplus replies may still sit in the client's mailbox) — so
    // renumber each burst to continue the session's id sequence.
    let mut issued = 90u64; // phases 1-3: 3 × 30 transactions
    let mut renumber = |txns: Vec<rdb_common::Transaction>| -> Vec<rdb_common::Transaction> {
        txns.into_iter()
            .map(|t| {
                let renumbered = rdb_common::Transaction::new(t.id.client, issued, t.ops)
                    .with_payload(t.payload);
                issued += 1;
                renumbered
            })
            .collect()
    };
    let mut low_gen = WorkloadGenerator::new(
        WorkloadConfig {
            table_size,
            zipf_theta: 0.0,
            ops_per_txn: 4,
            conflict_ratio: 0.0,
            ..Default::default()
        },
        13,
    );
    let low = renumber(
        (0..60)
            .map(|_| low_gen.next_transaction(client.id()))
            .collect(),
    );
    let start = Instant::now();
    let done = client.submit_and_wait(low, Duration::from_secs(20));
    println!(
        "phase 4a (low contention, 4E pool):  {done}/60 committed in {:.0} ms",
        start.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(done, 60);

    let mut hot_gen = WorkloadGenerator::new(
        WorkloadConfig {
            table_size,
            zipf_theta: 0.0,
            ops_per_txn: 4,
            conflict_ratio: 0.9,
            hot_keys: 4,
            ..Default::default()
        },
        14,
    );
    let hot = renumber(
        (0..60)
            .map(|_| hot_gen.next_transaction(client.id()))
            .collect(),
    );
    let start = Instant::now();
    let done = client.submit_and_wait(hot, Duration::from_secs(20));
    println!(
        "phase 4b (high contention, 4 hot keys): {done}/60 committed in {:.0} ms",
        start.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(done, 60);
    println!("both bursts commit — determinism holds regardless of contention");

    // The three live replicas always agreed; verify their chains.
    db.verify_chains().expect("chains verify");
    let heads = db.chain_heads();
    println!("chain heads: {heads:?} (r3 lags — it was down)");

    db.shutdown();
}
