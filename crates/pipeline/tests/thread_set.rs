//! The thread set of a replica at the standard pipeline (`1E 2B`): two
//! batch threads, the worker and the execute thread — no input, checkpoint
//! or output threads (the transport delivers into the consuming stage, the
//! worker verifies checkpoint votes, the execute stage sends its replies).
//!
//! A test binary of its own, so no other test's replicas are counted, and
//! Linux-only: it reads thread names from `/proc/self/task/*/comm`.
#![cfg(target_os = "linux")]

use rdb_common::{CryptoScheme, ReplicaId, SystemConfig, ThreadConfig};
use rdb_crypto::KeyRegistry;
use rdb_net::{Network, NetworkConfig};
use rdb_pipeline::spawn_replica;
use std::time::{Duration, Instant};

/// This process's threads named `r<replica>-<stage>`, by replica: the
/// stage part of each name, sorted.
fn replica_threads(n: usize) -> Vec<Vec<String>> {
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect();
    (0..n)
        .map(|r| {
            let prefix = format!("r{r}-");
            let mut stages: Vec<String> = names
                .iter()
                .filter_map(|name| name.strip_prefix(&prefix).map(str::to_string))
                .collect();
            stages.sort();
            stages
        })
        .collect()
}

#[test]
fn a_standard_replica_runs_two_batch_threads_a_worker_and_an_execute_thread() {
    let mut cfg = SystemConfig::new(4).unwrap();
    cfg.threads = ThreadConfig::standard();
    cfg.crypto = CryptoScheme::NoCrypto;
    cfg.table_size = 512;
    let registry = KeyRegistry::generate(cfg.crypto, 4, 1, 3);
    let net = Network::new(NetworkConfig::default());
    let replicas: Vec<_> = (0..4)
        .map(|i| spawn_replica(&cfg, ReplicaId(i), &net.handle(), &registry))
        .collect();

    // A thread names itself once it runs: give the last ones a moment.
    let expected = vec![["batch-0", "batch-1", "execute-0", "worker"]; 4];
    let deadline = Instant::now() + Duration::from_secs(5);
    while replica_threads(4) != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(replica_threads(4), expected);

    for r in replicas {
        r.shutdown();
    }
    net.shutdown();
}
