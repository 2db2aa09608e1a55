//! The five workloads. Names are fixed: later issues cite them.
//!
//! Common configuration unless a workload says otherwise: n = 4, f = 1,
//! PBFT, one consensus instance, `CryptoScheme::CmacEd25519`,
//! `ThreadConfig::standard()` (1E 2B), batch size 50, 65 536 preloaded
//! records, 8-byte values, one write per transaction, uniform keys,
//! injected message delay 0.

use rdb_common::{ThreadConfig, TransportMode};
use rdb_workload::WorkloadConfig;

/// Replicas in every workload — the smallest legal cluster, so there is
/// no single-node baseline.
pub const REPLICAS: usize = 4;
/// Transactions per consensus batch.
pub const BATCH_SIZE: usize = 50;
/// Records preloaded into every replica's table.
pub const TABLE_SIZE: u64 = 65_536;
/// Group-commit window of the durable workload, microseconds.
pub const GROUP_COMMIT_WINDOW_US: u64 = 4_000;
/// Load-generator threads (the box has two cores).
pub const DRIVER_THREADS: usize = 2;
/// A request slower than this misses the latency limit.
pub const SLO_MS: f64 = 100.0;

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Each session sends its next request when the previous one is
    /// confirmed: throughput is capacity, latency follows from it.
    Closed,
    /// Requests are due on a fixed schedule whatever the system does,
    /// round-robin over the sessions; each is timed from its due time.
    Open {
        /// Requests per second over all sessions.
        requests_per_s: f64,
    },
}

/// One workload: what differs from the common configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Fixed name.
    pub name: &'static str,
    /// One line on why it is in the set.
    pub why: &'static str,
    /// Closed or open loop.
    pub load: Loop,
    /// Logical client sessions multiplexed over the driver threads.
    pub sessions: usize,
    /// Transactions per request.
    pub burst: usize,
    /// Transport backend.
    pub transport: TransportMode,
    /// WAL + snapshots under the scratch directory, group commit.
    pub durable: bool,
    /// Replica thread allocation.
    pub threads: ThreadConfig,
    /// Operation mix.
    pub ops_per_txn: usize,
    /// Fraction of operations that write.
    pub write_ratio: f64,
    /// Bytes per written value.
    pub value_size: usize,
    /// Zipfian skew (0 = uniform).
    pub zipf_theta: f64,
    /// Share of operations sent to the hot-key set.
    pub conflict_ratio: f64,
    /// Size of the hot-key set.
    pub hot_keys: u64,
    /// Crash replica 3 before warm-up and never recover it.
    pub backup_down: bool,
    /// Upper estimate of confirmed txn/s, sizing the pre-generated input
    /// (a closed loop that outruns it generates the rest on the fly).
    pub pregen_tps: f64,
}

impl Workload {
    /// Generator configuration for this workload.
    pub fn generator(&self) -> WorkloadConfig {
        WorkloadConfig {
            table_size: TABLE_SIZE,
            ops_per_txn: self.ops_per_txn,
            write_ratio: self.write_ratio,
            value_size: self.value_size,
            payload_bytes: 0,
            zipf_theta: self.zipf_theta,
            conflict_ratio: self.conflict_ratio,
            hot_keys: self.hot_keys,
        }
    }

    /// Whether no fault is injected (then no view change and no
    /// duplicate execution may happen).
    pub fn fault_free(&self) -> bool {
        !self.backup_down
    }

    /// Whether any transaction reads.
    pub fn has_reads(&self) -> bool {
        self.write_ratio < 1.0
    }
}

fn common(name: &'static str, why: &'static str) -> Workload {
    Workload {
        name,
        why,
        load: Loop::Closed,
        sessions: 8,
        burst: 50,
        transport: TransportMode::InMemory,
        durable: false,
        threads: ThreadConfig::standard(),
        ops_per_txn: 1,
        write_ratio: 1.0,
        value_size: 8,
        zipf_theta: 0.0,
        conflict_ratio: 0.0,
        hot_keys: 16,
        backup_down: false,
        pregen_tps: 30_000.0,
    }
}

/// All workloads, in reporting order.
pub fn all() -> Vec<Workload> {
    vec![
        common(
            "mem_uniform",
            "closed loop at saturation with the network free: crypto, codec, \
             consensus and pipeline stages do the work; the reference every other \
             workload is a delta from",
        ),
        Workload {
            load: Loop::Open {
                requests_per_s: 600.0,
            },
            sessions: 64,
            burst: 10,
            pregen_tps: 6_000.0,
            ..common(
                "mem_open_6k",
                "open loop at 6000 txn/s, about a third of capacity: latency is set \
                 by the batch-flush timer, partial batches and wake-ups, not by \
                 service time",
            )
        },
        Workload {
            transport: TransportMode::Tcp,
            durable: true,
            pregen_tps: 20_000.0,
            ..common(
                "tcp_durable",
                "mem_uniform over loopback TCP with a group-commit WAL: the delta to \
                 mem_uniform is the wire and disk cost in rdb_net and rdb_storage",
            )
        },
        Workload {
            threads: ThreadConfig::with_e_b(4, 2),
            ops_per_txn: 8,
            write_ratio: 0.5,
            value_size: 256,
            zipf_theta: 0.99,
            conflict_ratio: 0.5,
            hot_keys: 16,
            pregen_tps: 7_000.0,
            ..common(
                "mem_hotkey_rw",
                "execution-bound: 8 ops/txn, half reads, 256 B values, hot keys, 4 \
                 execute threads; narrow conflict waves, where the wave executor \
                 loses to serial",
            )
        },
        Workload {
            backup_down: true,
            ..common(
                "mem_backup_down",
                "mem_uniform with replica 3 crashed throughout: every quorum needs \
                 all three survivors, the steady state of the paper's Figure 17",
            )
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
