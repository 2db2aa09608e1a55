//! YCSB-style workload generation (Cooper et al., SoCC'10), as used in the
//! paper's evaluation: a 600K-record table indexed with Zipfian-distributed
//! keys, write-only transactions (most blockchain requests are updates),
//! configurable operations per transaction (Figure 11) and payload bytes
//! per transaction (Figure 12).
//!
//! # Example
//!
//! ```
//! use rdb_workload::{WorkloadConfig, WorkloadGenerator};
//! use rdb_common::ClientId;
//!
//! let mut gen = WorkloadGenerator::new(WorkloadConfig::default(), 42);
//! let txn = gen.next_transaction(ClientId(0));
//! assert_eq!(txn.ops.len(), 1);
//! ```

pub mod zipf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdb_common::{Batch, ClientId, Operation, Transaction};
use std::collections::HashMap;
use zipf::Zipfian;

/// Parameters of the YCSB-style workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Records in the table (paper: 600K active records).
    pub table_size: u64,
    /// Operations per transaction (Figure 11 sweeps 1..50).
    pub ops_per_txn: usize,
    /// Fraction of operations that are writes (paper: 1.0 — all updates).
    pub write_ratio: f64,
    /// Value bytes written by each write operation.
    pub value_size: usize,
    /// Extra opaque payload bytes per transaction (Figure 12).
    pub payload_bytes: usize,
    /// Zipfian skew parameter θ (0 = uniform).
    pub zipf_theta: f64,
    /// Fraction of operations redirected to the hot-key set. `0.0`
    /// (the default) leaves key choice purely Zipfian; `1.0` sends every
    /// operation to one of [`WorkloadConfig::hot_keys`] keys, forcing the
    /// conflict scheduler to serialize almost everything. The knob lets
    /// benchmarks sweep contention independently of the Zipf skew.
    pub conflict_ratio: f64,
    /// Size of the hot-key set targeted by conflicting operations.
    pub hot_keys: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            table_size: 600_000,
            ops_per_txn: 1,
            write_ratio: 1.0,
            value_size: 8,
            payload_bytes: 0,
            zipf_theta: 0.9,
            conflict_ratio: 0.0,
            hot_keys: 16,
        }
    }
}

/// Deterministic transaction generator for a population of clients.
///
/// Each client has its own request counter so transaction ids are unique;
/// key selection shares one Zipfian stream, like a YCSB driver process.
#[derive(Debug)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    rng: StdRng,
    zipf: Zipfian,
    counters: HashMap<ClientId, u64>,
}

impl WorkloadGenerator {
    /// Creates a generator with the given config and seed.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        let zipf = Zipfian::new(config.table_size, config.zipf_theta);
        WorkloadGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
            zipf,
            counters: HashMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Generates the next transaction for `client`.
    pub fn next_transaction(&mut self, client: ClientId) -> Transaction {
        let counter = self.counters.entry(client).or_insert(0);
        let this_counter = *counter;
        *counter += 1;
        let mut ops = Vec::with_capacity(self.config.ops_per_txn);
        for _ in 0..self.config.ops_per_txn {
            // The contention knob short-circuits the Zipfian stream only
            // when active, so `conflict_ratio: 0.0` consumes exactly the
            // randomness the pre-knob generator did.
            let key = if self.config.conflict_ratio > 0.0
                && self.rng.gen_bool(self.config.conflict_ratio.min(1.0))
            {
                self.rng
                    .gen_range(0..self.config.hot_keys.clamp(1, self.config.table_size))
            } else {
                self.zipf.next(&mut self.rng)
            };
            if self.rng.gen_bool(self.config.write_ratio) {
                let mut value = vec![0u8; self.config.value_size];
                self.rng.fill(&mut value[..]);
                ops.push(Operation::Write { key, value });
            } else {
                ops.push(Operation::Read { key });
            }
        }
        let mut txn = Transaction::new(client, this_counter, ops);
        if self.config.payload_bytes > 0 {
            // The paper pads Pre-prepare messages with 8-byte integers; the
            // content is irrelevant, only the size matters.
            let mut payload = vec![0u8; self.config.payload_bytes];
            self.rng.fill(&mut payload[..]);
            txn = txn.with_payload(payload);
        }
        txn
    }

    /// Generates a client-side batch of `n` transactions from one client
    /// (stock-trading style bursts, Section 4.2).
    pub fn next_client_batch(&mut self, client: ClientId, n: usize) -> Vec<Transaction> {
        (0..n).map(|_| self.next_transaction(client)).collect()
    }

    /// Generates a full consensus batch drawing one transaction from each
    /// of `batch_size` round-robin clients, mirroring the primary's
    /// batch-threads pulling from the shared queue.
    pub fn next_batch(&mut self, clients: &[ClientId], batch_size: usize) -> Batch {
        assert!(!clients.is_empty(), "need at least one client");
        (0..batch_size)
            .map(|i| self.next_transaction(clients[i % clients.len()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::Wire;

    #[test]
    fn transactions_have_unique_increasing_ids() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::default(), 1);
        let t0 = g.next_transaction(ClientId(5));
        let t1 = g.next_transaction(ClientId(5));
        let t2 = g.next_transaction(ClientId(6));
        assert_eq!(t0.id.counter, 0);
        assert_eq!(t1.id.counter, 1);
        assert_eq!(t2.id.counter, 0);
        assert_ne!(t0.id, t1.id);
    }

    #[test]
    fn ops_per_txn_respected() {
        let cfg = WorkloadConfig {
            ops_per_txn: 10,
            ..Default::default()
        };
        let mut g = WorkloadGenerator::new(cfg, 1);
        let t = g.next_transaction(ClientId(0));
        assert_eq!(t.ops.len(), 10);
    }

    #[test]
    fn write_only_by_default() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::default(), 1);
        for _ in 0..100 {
            let t = g.next_transaction(ClientId(0));
            assert!(t.ops.iter().all(Operation::is_write));
        }
    }

    #[test]
    fn read_ratio_respected() {
        let cfg = WorkloadConfig {
            write_ratio: 0.0,
            ..Default::default()
        };
        let mut g = WorkloadGenerator::new(cfg, 1);
        let t = g.next_transaction(ClientId(0));
        assert!(t.ops.iter().all(|o| !o.is_write()));
    }

    #[test]
    fn keys_within_table() {
        let cfg = WorkloadConfig {
            table_size: 100,
            ops_per_txn: 5,
            ..Default::default()
        };
        let mut g = WorkloadGenerator::new(cfg, 1);
        for _ in 0..200 {
            let t = g.next_transaction(ClientId(0));
            for op in &t.ops {
                assert!(op.key() < 100);
            }
        }
    }

    #[test]
    fn payload_size_respected() {
        let cfg = WorkloadConfig {
            payload_bytes: 4096,
            ..Default::default()
        };
        let mut g = WorkloadGenerator::new(cfg, 1);
        let t = g.next_transaction(ClientId(0));
        assert_eq!(t.payload.len(), 4096);
        assert!(t.encoded_len() > 4096);
    }

    #[test]
    fn conflict_ratio_one_stays_in_hot_set() {
        let cfg = WorkloadConfig {
            conflict_ratio: 1.0,
            hot_keys: 8,
            ops_per_txn: 4,
            ..Default::default()
        };
        let mut g = WorkloadGenerator::new(cfg, 3);
        for _ in 0..100 {
            let t = g.next_transaction(ClientId(0));
            for op in &t.ops {
                assert!(op.key() < 8, "hot-set key expected, got {}", op.key());
            }
        }
    }

    #[test]
    fn conflict_ratio_zero_matches_pre_knob_stream() {
        // The knob must be a pure extension: disabled, the generator
        // produces the exact transactions it did before the knob existed.
        let mut plain = WorkloadGenerator::new(WorkloadConfig::default(), 11);
        let mut knobbed = WorkloadGenerator::new(
            WorkloadConfig {
                conflict_ratio: 0.0,
                hot_keys: 4,
                ..Default::default()
            },
            11,
        );
        for _ in 0..50 {
            assert_eq!(
                plain.next_transaction(ClientId(2)),
                knobbed.next_transaction(ClientId(2))
            );
        }
    }

    #[test]
    fn partial_conflict_ratio_mixes_hot_and_cold() {
        let cfg = WorkloadConfig {
            conflict_ratio: 0.5,
            hot_keys: 4,
            zipf_theta: 0.0,
            ..Default::default()
        };
        let mut g = WorkloadGenerator::new(cfg, 5);
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..400 {
            let t = g.next_transaction(ClientId(0));
            for op in &t.ops {
                total += 1;
                if op.key() < 4 {
                    hot += 1;
                }
            }
        }
        // ~50% hot (plus a sliver of cold traffic landing there by chance).
        let frac = hot as f64 / total as f64;
        assert!((0.35..0.75).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = WorkloadGenerator::new(WorkloadConfig::default(), 9);
        let mut b = WorkloadGenerator::new(WorkloadConfig::default(), 9);
        for _ in 0..50 {
            assert_eq!(
                a.next_transaction(ClientId(1)),
                b.next_transaction(ClientId(1))
            );
        }
    }

    #[test]
    fn batch_round_robins_clients() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::default(), 1);
        let clients = [ClientId(0), ClientId(1), ClientId(2)];
        let batch = g.next_batch(&clients, 7);
        assert_eq!(batch.len(), 7);
        let from_c0 = batch
            .txns
            .iter()
            .filter(|t| t.id.client == ClientId(0))
            .count();
        assert_eq!(from_c0, 3); // positions 0, 3, 6
    }

    #[test]
    fn client_batch_single_origin() {
        let mut g = WorkloadGenerator::new(WorkloadConfig::default(), 1);
        let txns = g.next_client_batch(ClientId(4), 5);
        assert_eq!(txns.len(), 5);
        assert!(txns.iter().all(|t| t.id.client == ClientId(4)));
        let counters: Vec<u64> = txns.iter().map(|t| t.id.counter).collect();
        assert_eq!(counters, vec![0, 1, 2, 3, 4]);
    }
}
