//! Simulation output: throughput, latency and stage saturations.

use std::collections::BTreeMap;
use std::fmt;

/// Pipeline stages the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimStage {
    /// Network ingestion threads.
    Input,
    /// Batch assembly threads (primary).
    Batch,
    /// The consensus worker thread.
    Worker,
    /// Ordered execution threads.
    Execute,
    /// Signing/transmit threads.
    Output,
    /// The NIC (bandwidth, not a CPU thread).
    Nic,
}

impl SimStage {
    /// All CPU stages (excluding the NIC).
    pub const CPU: [SimStage; 5] = [
        SimStage::Input,
        SimStage::Batch,
        SimStage::Worker,
        SimStage::Execute,
        SimStage::Output,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            SimStage::Input => "input",
            SimStage::Batch => "batch",
            SimStage::Worker => "worker",
            SimStage::Execute => "execute",
            SimStage::Output => "output",
            SimStage::Nic => "nic",
        }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Committed transactions per second during the measurement window.
    pub throughput_tps: f64,
    /// Mean client-observed latency in milliseconds.
    pub avg_latency_ms: f64,
    /// Transactions completed inside the measurement window.
    pub completed_txns: u64,
    /// Batches committed at the primary during the whole run.
    pub batches_committed: u64,
    /// Client requests rebroadcast to every replica after
    /// `rdb_consensus::RETRANSMIT_AFTER` without a completion.
    pub retransmissions: u64,
    /// Mean per-thread saturation (%) by stage at the primary.
    pub primary_saturation: BTreeMap<SimStage, f64>,
    /// Mean per-thread saturation (%) by stage averaged over live backups.
    pub backup_saturation: BTreeMap<SimStage, f64>,
}

impl SimReport {
    /// Throughput in thousands of transactions per second.
    pub fn ktps(&self) -> f64 {
        self.throughput_tps / 1_000.0
    }

    /// Sum of primary stage saturations (the "cumulative" bar of Fig. 9).
    pub fn primary_cumulative(&self) -> f64 {
        self.primary_saturation.values().sum()
    }

    /// Sum of backup stage saturations.
    pub fn backup_cumulative(&self) -> f64 {
        self.backup_saturation.values().sum()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} ktxn/s, {:.2} ms latency ({} txns, {} batches, {} retransmissions)",
            self.ktps(),
            self.avg_latency_ms,
            self.completed_txns,
            self.batches_committed,
            self.retransmissions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_sums() {
        let mut primary = BTreeMap::new();
        primary.insert(SimStage::Worker, 50.0);
        primary.insert(SimStage::Batch, 30.0);
        let r = SimReport {
            throughput_tps: 10_000.0,
            avg_latency_ms: 5.0,
            completed_txns: 10_000,
            batches_committed: 100,
            retransmissions: 0,
            primary_saturation: primary,
            backup_saturation: BTreeMap::new(),
        };
        assert!((r.primary_cumulative() - 80.0).abs() < 1e-9);
        assert!((r.ktps() - 10.0).abs() < 1e-9);
        assert!(r.to_string().contains("ktxn/s"));
    }
}
