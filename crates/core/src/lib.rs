//! # ResilientDB reproduction
//!
//! A from-scratch reproduction of *"Permissioned Blockchain Through the
//! Looking Glass: Architectural and Implementation Lessons Learned"*
//! (Gupta, Rahnama, Sadoghi — ICDCS 2020): a high-throughput permissioned
//! blockchain fabric whose deeply pipelined, multi-threaded replicas let a
//! classical three-phase protocol (PBFT) outperform a single-phase
//! speculative protocol (Zyzzyva) implemented protocol-centrically.
//!
//! ## What lives where
//!
//! - [`SystemBuilder`] / [`ResilientDb`] — launch a real replica set (OS
//!   threads, in-memory network or loopback TCP, real crypto) in one
//!   process; [`start_replica`] / [`client_net`] — one node of a
//!   multi-process cluster (the `rdb-node` binary).
//! - [`ClientSession`] — submit transactions, await quorum-backed results
//!   under either protocol.
//! - [`swarm`] — the one client-load driver: sessions multiplexed onto
//!   shard threads, closed-loop bursts, throughput and latency
//!   percentiles. `rdb-node --swarm` and `--client`, the scenario runner,
//!   the benches and the examples all measure through [`run_swarm`].
//! - [`scenario`] — fault plans and the named failure catalog:
//!   [`run_scenario`] drives the load driver and fires a [`FaultPlan`]
//!   from its progress callback, which every refill waits on
//!   ([`FaultPlan::take_due`] is the one due-check, shared with
//!   `rdb-node --fault-plan`).
//! - `rdb-sim` (re-exported as [`sim`]) — the deterministic discrete-event
//!   simulator used for cluster-scale parameter sweeps (the paper's
//!   figures).
//!
//! ## Quickstart
//!
//! ```
//! use resilientdb::SystemBuilder;
//! use std::time::Duration;
//!
//! let db = SystemBuilder::new(4)
//!     .batch_size(5)
//!     .table_size(1_000)
//!     .client_keys(1)
//!     .build()
//!     .expect("valid configuration");
//!
//! let mut client = db.client(0);
//! let txns = vec![
//!     client.write_txn(1, b"alpha".to_vec()),
//!     client.write_txn(2, b"beta".to_vec()),
//!     client.write_txn(3, b"gamma".to_vec()),
//!     client.write_txn(4, b"delta".to_vec()),
//!     client.write_txn(5, b"epsilon".to_vec()),
//! ];
//! let done = client.submit_and_wait(txns, Duration::from_secs(10));
//! assert_eq!(done, 5);
//! db.shutdown();
//! ```

pub mod client;
pub mod fabric;
pub mod scenario;
pub mod swarm;

pub use client::ClientSession;
pub use fabric::{
    client_net, registry_for, start_replica, ReplicaNode, ResilientDb, SystemBuilder,
};
pub use rdb_common::{NodeOptions, TransportMode};
pub use scenario::{
    run_scenario, scenario_by_name, scenarios, FaultAction, FaultEvent, FaultPlan, Mark, Scenario,
    ScenarioResult,
};
pub use swarm::{run_swarm, SwarmConfig, SwarmReport};

/// Re-export of the shared types crate.
pub use rdb_common as common;
/// Re-export of the consensus state machines.
pub use rdb_consensus as consensus;
/// Re-export of the crypto substrate.
pub use rdb_crypto as crypto;
/// Re-export of the discrete-event simulator.
pub use rdb_sim as sim;
/// Re-export of the storage substrate.
pub use rdb_storage as storage;
/// Re-export of the workload generator.
pub use rdb_workload as workload;

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ProtocolKind;
    use std::time::Duration;

    #[test]
    fn quickstart_pbft() {
        let db = SystemBuilder::new(4)
            .batch_size(5)
            .table_size(256)
            .client_keys(1)
            .build()
            .unwrap();
        let mut c = db.client(0);
        let txns: Vec<_> = (0..10).map(|i| c.write_txn(i, vec![i as u8])).collect();
        let done = c.submit_and_wait(txns, Duration::from_secs(15));
        assert_eq!(done, 10);
        assert!(db.verify_chains().is_ok());
        db.shutdown();
    }

    #[test]
    fn quickstart_zyzzyva() {
        let db = SystemBuilder::new(4)
            .protocol(ProtocolKind::Zyzzyva)
            .batch_size(5)
            .table_size(256)
            .client_keys(1)
            .build()
            .unwrap();
        let mut c = db.client(0);
        let txns: Vec<_> = (0..10).map(|i| c.write_txn(i, vec![i as u8])).collect();
        let done = c.submit_and_wait(txns, Duration::from_secs(15));
        assert_eq!(done, 10);
        db.shutdown();
    }

    #[test]
    fn zyzzyva_survives_backup_crash_via_cc_path() {
        let db = SystemBuilder::new(4)
            .protocol(ProtocolKind::Zyzzyva)
            .batch_size(5)
            .table_size(256)
            .client_keys(1)
            .build()
            .unwrap();
        db.crash_backup(rdb_common::ReplicaId(3));
        let mut c = db.client(0);
        let txns: Vec<_> = (0..5).map(|i| c.write_txn(i, vec![i as u8])).collect();
        let done = c.submit_and_wait(txns, Duration::from_secs(20));
        assert_eq!(done, 5, "commit-certificate path must complete");
        db.shutdown();
    }

    #[test]
    fn quickstart_over_tcp_loopback() {
        // The same fabric, every message over a real socket: an
        // in-process cluster on TransportMode::Tcp must commit and
        // converge exactly like the in-memory default.
        let db = SystemBuilder::new(4)
            .transport(TransportMode::Tcp)
            .batch_size(5)
            .table_size(256)
            .client_keys(1)
            .build()
            .unwrap();
        let mut c = db.client(0);
        let txns: Vec<_> = (0..10).map(|i| c.write_txn(i, vec![i as u8])).collect();
        let done = c.submit_and_wait(txns, Duration::from_secs(30));
        assert_eq!(done, 10);
        assert!(db.verify_chains().is_ok());
        db.shutdown();
    }

    #[test]
    fn state_converges_across_replicas() {
        let db = SystemBuilder::new(4)
            .batch_size(5)
            .table_size(256)
            .client_keys(2)
            .build()
            .unwrap();
        let mut c = db.client(0);
        let txns: Vec<_> = (0..20)
            .map(|i| c.write_txn(i % 256, vec![i as u8]))
            .collect();
        assert_eq!(c.submit_and_wait(txns, Duration::from_secs(15)), 20);
        // Allow the slowest replica to finish executing.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let heads = db.chain_heads();
            if heads.iter().all(|h| *h == heads[0]) || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let digests = db.state_digests();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "stores diverged");
        db.shutdown();
    }
}
