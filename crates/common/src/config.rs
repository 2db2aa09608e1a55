//! System configuration.
//!
//! [`SystemConfig`] captures every knob the paper sweeps: replica count,
//! batch size, thread counts (the `E`/`B` notation of Figure 8), crypto
//! scheme (Figure 13), client population (Figure 15), cores per replica
//! (Figure 16), operations per transaction (Figure 11), payload size
//! (Figure 12) and the consensus protocol (Figures 1, 8, 17). Every
//! replica runs the in-memory store; Figure 14's SQLite comparison is not
//! reproduced.

use crate::error::{CommonError, Result};
use crate::quorum;

/// Which consensus protocol the deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProtocolKind {
    /// Three-phase PBFT (two quadratic phases). The paper's headline choice.
    #[default]
    Pbft,
    /// Single-phase speculative Zyzzyva with client-side commit collection.
    Zyzzyva,
}

impl ProtocolKind {
    /// Human-readable protocol name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Pbft => "PBFT",
            ProtocolKind::Zyzzyva => "Zyzzyva",
        }
    }
}

/// Cryptographic signing configuration (Figure 13's four settings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CryptoScheme {
    /// No signatures anywhere — upper bound only, not a valid deployment.
    NoCrypto,
    /// Everyone signs with ED25519 digital signatures.
    Ed25519,
    /// Everyone signs with RSA digital signatures.
    Rsa,
    /// Replicas authenticate with CMAC(AES-128); clients sign with ED25519.
    /// The paper's recommended configuration.
    #[default]
    CmacEd25519,
}

impl CryptoScheme {
    /// Human-readable scheme name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            CryptoScheme::NoCrypto => "NoSig",
            CryptoScheme::Ed25519 => "ED25519",
            CryptoScheme::Rsa => "RSA",
            CryptoScheme::CmacEd25519 => "CMAC+ED25519",
        }
    }
}

/// When the write-ahead log forces appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FsyncMode {
    /// fsync on every append — strongest durability, one disk flush per
    /// committed batch.
    Always,
    /// Group commit: appends only mark the log dirty and a flusher thread
    /// issues one fsync per `group_commit_window_us` window, amortizing
    /// the flush across every batch committed inside it.
    #[default]
    Group,
    /// Never fsync — the OS page cache decides; a machine crash may lose
    /// the unsynced tail (a process crash does not).
    Never,
}

impl FsyncMode {
    /// Stable lowercase name, used by config files and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            FsyncMode::Always => "always",
            FsyncMode::Group => "group",
            FsyncMode::Never => "never",
        }
    }
}

/// Durability knobs for the recovery path: where replica state lives on
/// disk and how aggressively the write-ahead log flushes.
///
/// With `data_dir` unset (the default) replicas are memory-only, exactly
/// as before this layer existed: a restarted replica recovers over the
/// network via snapshot transfer. Setting it gives each replica a
/// `<data_dir>/replica-<id>` directory holding its WAL and persisted
/// checkpoint snapshots, and a restart replays local state first, falling
/// back to the network only when the directory is missing or corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory for per-replica persistent state (`None` ⇒ memory
    /// only, no WAL, no persisted snapshots).
    pub data_dir: Option<String>,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncMode,
    /// Group-commit window in microseconds (only meaningful with
    /// [`FsyncMode::Group`]; default 1 ms).
    pub group_commit_window_us: u64,
}

impl DurabilityConfig {
    /// Default group-commit window: 1 ms.
    pub const DEFAULT_GROUP_COMMIT_WINDOW_US: u64 = 1_000;

    /// The group-commit window as a [`std::time::Duration`].
    pub fn group_commit_window(&self) -> std::time::Duration {
        std::time::Duration::from_micros(self.group_commit_window_us)
    }
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            data_dir: None,
            fsync: FsyncMode::Group,
            group_commit_window_us: Self::DEFAULT_GROUP_COMMIT_WINDOW_US,
        }
    }
}

/// Per-replica thread allocation, mirroring Figures 6a/6b.
///
/// The paper's `xE yB` notation maps to `execute_threads = x`,
/// `batch_threads = y`. Setting either to zero folds that stage's work into
/// the worker-thread (the "0E 0B" monolithic baseline of Figure 8). The
/// worker itself is not configurable: every replica runs exactly one, so
/// protocol state has a single owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadConfig {
    /// Batch-assembly threads per replica (`B`), at any number of
    /// consensus instances: each thread batches for every instance the
    /// replica leads.
    pub batch_threads: usize,
    /// Execution threads (`E`). `0` folds execution into the worker
    /// (the paper's degraded `0E` mode), `1` is the paper's serial
    /// execute-thread, and `N ≥ 2` runs a pool of `N` conflict-scheduled
    /// execute workers behind a coordinator.
    pub execute_threads: usize,
    /// Output threads sharing the client-bound send load (the worker sends
    /// consensus traffic itself).
    pub output_threads: usize,
}

impl ThreadConfig {
    /// The paper's standard pipeline: one worker, one execute (`1E`), two
    /// batch-threads (`2B`) and two output threads. There are no input or
    /// checkpoint threads: the transport delivers each message into the
    /// stage that consumes it, and the worker verifies checkpoint votes
    /// with the rest of the replica traffic.
    pub fn standard() -> Self {
        ThreadConfig {
            batch_threads: 2,
            execute_threads: 1,
            output_threads: 2,
        }
    }

    /// The `xE yB` notation of Figure 8 applied to the standard pipeline.
    pub fn with_e_b(execute_threads: usize, batch_threads: usize) -> Self {
        ThreadConfig {
            execute_threads,
            batch_threads,
            ..Self::standard()
        }
    }

    /// Single-threaded monolith: every task on the worker thread (`0E 0B`).
    pub fn monolithic() -> Self {
        ThreadConfig {
            batch_threads: 0,
            execute_threads: 0,
            output_threads: 1,
        }
    }

    /// Short `xE yB` label used in figure output.
    pub fn label(&self) -> String {
        format!("{}E {}B", self.execute_threads, self.batch_threads)
    }
}

impl Default for ThreadConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Full deployment configuration, of honest replicas only: a byzantine one
/// is a fault injected at its transport (`rdb_net::FaultController`).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of replicas `n`.
    pub n: usize,
    /// Tolerated byzantine replicas `f = (n-1)/3` (derived, cached).
    pub f: usize,
    /// Consensus protocol.
    pub protocol: ProtocolKind,
    /// Transactions per consensus batch (the paper's default is 100).
    pub batch_size: usize,
    /// Checkpoint period Δ in *transactions* (paper default: 10 000).
    pub checkpoint_interval: u64,
    /// Number of closed-loop clients issuing requests.
    pub num_clients: usize,
    /// Thread allocation per replica.
    pub threads: ThreadConfig,
    /// Signing configuration.
    pub crypto: CryptoScheme,
    /// Operations per transaction (Figure 11; paper default 1).
    pub ops_per_txn: usize,
    /// Extra payload bytes attached to each transaction (Figure 12).
    pub payload_bytes: usize,
    /// Hardware cores per replica machine (Figure 16; paper default 8).
    pub cores: usize,
    /// Number of YCSB records pre-loaded into each replica's store.
    pub table_size: u64,
    /// How long a replica waits without consensus progress (while demand
    /// is pending) before voting to change views, in milliseconds.
    pub view_timeout_ms: u64,
    /// Number of parallel consensus instances `k` (multi-primary ordering).
    /// Instance `j` is led by replica `(view + j) mod n` and owns the
    /// interleaved global sequences `j+1, j+1+k, j+1+2k, …`; commit streams
    /// merge into one deterministic execute schedule. `1` is classic
    /// single-primary operation.
    pub consensus_instances: usize,
    /// Durability of the recovery path: data directory, fsync policy and
    /// group-commit window.
    pub durability: DurabilityConfig,
}

impl SystemConfig {
    /// Creates a configuration for `n` replicas with paper-default settings.
    ///
    /// # Errors
    /// Returns [`CommonError::InvalidConfig`] if `n < 4` (no fault can be
    /// tolerated below four replicas).
    pub fn new(n: usize) -> Result<Self> {
        if n < 4 {
            return Err(CommonError::InvalidConfig(format!(
                "need at least 4 replicas for BFT, got {n}"
            )));
        }
        Ok(SystemConfig {
            n,
            f: quorum::max_faults(n),
            protocol: ProtocolKind::Pbft,
            batch_size: 100,
            checkpoint_interval: 10_000,
            num_clients: 80_000,
            threads: ThreadConfig::standard(),
            crypto: CryptoScheme::CmacEd25519,
            ops_per_txn: 1,
            payload_bytes: 0,
            cores: 8,
            table_size: 600_000,
            view_timeout_ms: 2_000,
            consensus_instances: 1,
            durability: DurabilityConfig::default(),
        })
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns [`CommonError::InvalidConfig`] if the population cannot reach
    /// quorum, a stage has no thread to run it, or a sweep parameter is zero.
    pub fn validate(&self) -> Result<()> {
        if self.n < quorum::min_replicas(self.f) {
            return Err(CommonError::InvalidConfig(format!(
                "n={} cannot tolerate f={}",
                self.n, self.f
            )));
        }
        if self.f != quorum::max_faults(self.n) {
            return Err(CommonError::InvalidConfig(format!(
                "f={} is not (n-1)/3 for n={}",
                self.f, self.n
            )));
        }
        if self.batch_size == 0 {
            return Err(CommonError::InvalidConfig(
                "batch_size must be positive".into(),
            ));
        }
        if self.threads.output_threads == 0 {
            return Err(CommonError::InvalidConfig("need output threads".into()));
        }
        if self.ops_per_txn == 0 {
            return Err(CommonError::InvalidConfig(
                "ops_per_txn must be positive".into(),
            ));
        }
        if self.cores == 0 {
            return Err(CommonError::InvalidConfig("cores must be positive".into()));
        }
        if self.num_clients == 0 {
            return Err(CommonError::InvalidConfig(
                "need at least one client request".into(),
            ));
        }
        if self.view_timeout_ms == 0 {
            return Err(CommonError::InvalidConfig(
                "view_timeout_ms must be positive".into(),
            ));
        }
        if self.consensus_instances == 0 {
            return Err(CommonError::InvalidConfig(
                "consensus_instances must be positive".into(),
            ));
        }
        if self.consensus_instances > self.n {
            return Err(CommonError::InvalidConfig(format!(
                "consensus_instances={} exceeds replica count n={}",
                self.consensus_instances, self.n
            )));
        }
        if self.consensus_instances > 1 && self.protocol != ProtocolKind::Pbft {
            return Err(CommonError::InvalidConfig(
                "multi-primary ordering (consensus_instances > 1) requires PBFT; \
                 Zyzzyva's speculative history chain cannot interleave instances"
                    .into(),
            ));
        }
        if self.durability.fsync == FsyncMode::Group && self.durability.group_commit_window_us == 0
        {
            return Err(CommonError::InvalidConfig(
                "group_commit_window_us must be positive under fsync = group".into(),
            ));
        }
        if let Some(dir) = &self.durability.data_dir {
            if dir.is_empty() {
                return Err(CommonError::InvalidConfig(
                    "data_dir must be a non-empty path when set".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SystemConfig::new(16).unwrap();
        assert_eq!(c.f, 5);
        assert_eq!(c.batch_size, 100);
        assert_eq!(c.checkpoint_interval, 10_000);
        assert_eq!(c.table_size, 600_000);
        assert_eq!(c.cores, 8);
        assert_eq!(c.crypto, CryptoScheme::CmacEd25519);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn too_few_replicas_rejected() {
        assert!(SystemConfig::new(3).is_err());
        assert!(SystemConfig::new(4).is_ok());
    }

    #[test]
    fn validation_catches_zero_knobs() {
        let mut c = SystemConfig::new(4).unwrap();
        c.batch_size = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::new(4).unwrap();
        c.cores = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::new(4).unwrap();
        c.f = 3; // inconsistent with n=4
        assert!(c.validate().is_err());
    }

    #[test]
    fn thread_config_counts() {
        let t = ThreadConfig::standard();
        // 2 batch + 1 worker + 1 exec + 2 out
        let per_stage = [t.batch_threads, t.execute_threads, t.output_threads];
        assert_eq!(per_stage, [2, 1, 2]);
        assert_eq!(t.label(), "1E 2B");
        assert_eq!(ThreadConfig::monolithic().label(), "0E 0B");
    }

    #[test]
    fn consensus_instances_validation() {
        let c = SystemConfig::new(4).unwrap();
        assert_eq!(c.consensus_instances, 1, "default is single-primary");

        let with_k = |k: usize| SystemConfig {
            consensus_instances: k,
            ..SystemConfig::new(4).unwrap()
        };
        assert!(with_k(2).validate().is_ok());
        assert!(with_k(4).validate().is_ok());
        assert!(with_k(0).validate().is_err(), "zero instances rejected");
        assert!(
            with_k(5).validate().is_err(),
            "more instances than replicas"
        );
        let c = SystemConfig {
            protocol: ProtocolKind::Zyzzyva,
            ..with_k(2)
        };
        assert!(c.validate().is_err(), "multi-primary is PBFT-only");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ProtocolKind::Pbft.name(), "PBFT");
        assert_eq!(ProtocolKind::Zyzzyva.name(), "Zyzzyva");
        assert_eq!(CryptoScheme::CmacEd25519.name(), "CMAC+ED25519");
        assert_eq!(FsyncMode::Group.name(), "group");
    }

    #[test]
    fn durability_defaults_and_validation() {
        let c = SystemConfig::new(4).unwrap();
        assert!(c.durability.data_dir.is_none(), "memory-only by default");
        assert_eq!(c.durability.fsync, FsyncMode::Group);
        assert_eq!(
            c.durability.group_commit_window(),
            std::time::Duration::from_millis(1)
        );

        let mut c = SystemConfig::new(4).unwrap();
        c.durability.data_dir = Some("/tmp/rdb".into());
        assert!(c.validate().is_ok());

        // A zero window under group commit would spin the flusher.
        c.durability.group_commit_window_us = 0;
        assert!(c.validate().is_err());
        c.durability.fsync = FsyncMode::Always;
        assert!(c.validate().is_ok(), "window is irrelevant off group mode");

        let mut c = SystemConfig::new(4).unwrap();
        c.durability.data_dir = Some(String::new());
        assert!(c.validate().is_err(), "empty data_dir rejected");
    }
}
