//! Durable recovery: the typed write-ahead log and restart-from-disk
//! replay.
//!
//! `rdb_storage::wal` stores opaque checksummed byte records; this module
//! gives them meaning. Every committed batch appends a [`WalEntry::Commit`]
//! carrying the full [`ExecuteItem`] in the canonical `Wire` encoding (the
//! same codec every message crosses the network in, so the log format
//! needs no second serializer). Zyzzyva's speculative rewinds append
//! [`WalEntry::Rollback`] markers, and stable checkpoints append
//! [`WalEntry::Stable`] — together the log is a faithful transcript of the
//! execute-stage's state transitions.
//!
//! On restart, [`recover_replica`] rebuilds the replica from its data
//! directory alone: load the newest checkpoint snapshot that passes the
//! Merkle commitment check ([`crate::recovery::verify_snapshot`] — a
//! corrupt file degrades to replaying more WAL, or to the network path),
//! then re-execute the WAL suffix above the snapshot base through the
//! ordinary [`Executor`] so counters, dedup state, the undo log and the
//! ledger all regenerate exactly as they would have live. Under Zyzzyva
//! the replayed speculative tail above the last stable mark is rolled
//! back — it was never committed, and the reconciled history will be
//! re-learned from peers.
//!
//! A stable checkpoint persists its snapshot only once the log holds as
//! many bytes as the last persisted snapshot encodes to
//! ([`Durability::snapshot_due`]; always, before the first): the
//! break-even between replaying a log and loading the state it rebuilds.
//! Until then a stable checkpoint costs one `Stable` marker, and recovery
//! replays at most about one snapshot's worth of log. Once a snapshot at
//! `base` is persisted, every entry at or below `base` is dead weight and
//! [`Durability::persist_stable`] rewrites the log without them. The
//! snapshot's name is durable (its directory synced) before the
//! superseded snapshot is deleted or the log compacted; a crash between
//! the snapshot write and the compaction is safe — replay skips entries
//! the snapshot already covers.

use crate::executor::Executor;
use crate::queues::ExecuteItem;
use crate::recovery::verify_snapshot;
use rdb_common::block::BlockCertificate;
use rdb_common::codec::{counted_len, Sink, Wire, WireReader, WireWriter};
use rdb_common::error::{CommonError, Result};
use rdb_common::{Batch, Digest, DurabilityConfig, FsyncMode, SeqNum, Snapshot, ViewNum};
use rdb_storage::wal::{FsyncPolicy, Wal};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One durable state transition of the execute stage.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// A batch committed at `seq` — everything needed to re-execute it.
    Commit {
        /// Global sequence number.
        seq: SeqNum,
        /// View it was ordered in.
        view: ViewNum,
        /// Batch digest.
        digest: Digest,
        /// The ordered transactions.
        batch: Batch,
        /// PBFT's 2f+1 commit signatures (empty under Zyzzyva).
        certificate: BlockCertificate,
        /// Zyzzyva's rolling history digest after `seq` (`None` for PBFT).
        history: Option<Digest>,
    },
    /// Speculative execution was rewound so `to` is the last executed
    /// sequence (Zyzzyva view change / reconciliation).
    Rollback {
        /// The sequence execution rewound to.
        to: SeqNum,
    },
    /// The checkpoint at `seq` became 2f+1-stable: nothing at or below it
    /// can ever roll back.
    Stable {
        /// The stable checkpoint sequence.
        seq: SeqNum,
    },
}

const TAG_COMMIT: u8 = 1;
const TAG_ROLLBACK: u8 = 2;
const TAG_STABLE: u8 = 3;

impl WalEntry {
    /// The sequence an encoded entry is about (`Rollback`'s `to`), read
    /// without decoding it: every variant starts with its tag, then that.
    /// `None` for a payload too short to hold both or with an unknown tag.
    /// Compaction — which keeps the entries above the persisted snapshot
    /// base — runs this over the whole log under the lock appends wait on,
    /// where decoding every batch just to drop it is the cost that matters.
    pub fn seq_of(payload: &[u8]) -> Option<SeqNum> {
        let (tag, rest) = payload.split_first()?;
        let seq = rest.first_chunk::<8>()?;
        matches!(*tag, TAG_COMMIT | TAG_ROLLBACK | TAG_STABLE)
            .then(|| SeqNum(u64::from_le_bytes(*seq)))
    }
}

impl Wire for WalEntry {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        match self {
            WalEntry::Commit {
                seq,
                view,
                digest,
                batch,
                certificate,
                history,
            } => write_commit(w, *seq, *view, digest, history.as_ref(), batch, certificate),
            WalEntry::Rollback { to } => {
                w.put_u8(TAG_ROLLBACK);
                w.put_u64(to.0);
            }
            WalEntry::Stable { seq } => {
                w.put_u8(TAG_STABLE);
                w.put_u64(seq.0);
            }
        }
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            TAG_COMMIT => {
                let seq = SeqNum(r.get_u64()?);
                let view = ViewNum(r.get_u64()?);
                let digest = Digest(r.get_array32()?);
                let history = match r.get_u8()? {
                    0 => None,
                    1 => Some(Digest(r.get_array32()?)),
                    other => {
                        return Err(CommonError::Codec(format!(
                            "bad history flag {other} in wal commit"
                        )))
                    }
                };
                let batch = Batch::read(r)?;
                let certificate = BlockCertificate::read(r)?;
                Ok(WalEntry::Commit {
                    seq,
                    view,
                    digest,
                    batch,
                    certificate,
                    history,
                })
            }
            TAG_ROLLBACK => Ok(WalEntry::Rollback {
                to: SeqNum(r.get_u64()?),
            }),
            TAG_STABLE => Ok(WalEntry::Stable {
                seq: SeqNum(r.get_u64()?),
            }),
            other => Err(CommonError::Codec(format!("unknown wal entry tag {other}"))),
        }
    }
}

/// The one writer of the `Commit` record layout, shared by the owned
/// [`WalEntry::Commit`] and [`commit_entry_bytes`].
fn write_commit(
    w: &mut WireWriter<impl Sink>,
    seq: SeqNum,
    view: ViewNum,
    digest: &Digest,
    history: Option<&Digest>,
    batch: &Batch,
    certificate: &BlockCertificate,
) {
    w.put_u8(TAG_COMMIT);
    w.put_u64(seq.0);
    w.put_u64(view.0);
    w.put_bytes(digest.as_bytes());
    match history {
        Some(h) => {
            w.put_u8(1);
            w.put_bytes(h.as_bytes());
        }
        None => w.put_u8(0),
    }
    batch.write(w);
    certificate.write(w);
}

/// Encodes a [`WalEntry::Commit`] for `item` without cloning the batch
/// out of its `Arc` — the commit path calls this once per batch, so the
/// copy matters.
pub fn commit_entry_bytes(item: &ExecuteItem) -> Vec<u8> {
    let ExecuteItem {
        seq,
        view,
        digest,
        batch,
        certificate,
        history,
    } = item;
    let history = history.as_ref();
    let len = counted_len(|w| write_commit(w, *seq, *view, digest, history, batch, certificate));
    let mut w = WireWriter::with_capacity(len);
    write_commit(&mut w, *seq, *view, digest, history, batch, certificate);
    w.into_bytes()
}

/// Maps the config-level fsync mode onto the storage-level WAL policy.
fn policy_of(config: &DurabilityConfig) -> FsyncPolicy {
    match config.fsync {
        FsyncMode::Always => FsyncPolicy::Always,
        FsyncMode::Group => FsyncPolicy::Group(config.group_commit_window()),
        FsyncMode::Never => FsyncPolicy::Never,
    }
}

/// A replica's handle on its durable state: the open WAL plus the
/// directory its checkpoint snapshots persist into. Attached to the
/// [`Executor`] *after* replay so re-execution does not re-log itself.
pub struct Durability {
    wal: Wal,
    dir: PathBuf,
    /// Base sequence of the newest snapshot on disk (0 = none yet);
    /// guards against redundant persists of the same checkpoint.
    persisted_base: AtomicU64,
    /// Encoded length of that snapshot (0 = none yet): the log may grow
    /// to this many bytes before persisting a newer one pays for itself.
    snapshot_len: AtomicU64,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("dir", &self.dir)
            .field(
                "persisted_base",
                &self.persisted_base.load(Ordering::Relaxed),
            )
            .field("snapshot_len", &self.snapshot_len.load(Ordering::Relaxed))
            .finish()
    }
}

/// What a replica found on disk at startup, before any of it is trusted.
#[derive(Debug)]
pub struct LocalState {
    /// The newest snapshot that loaded *and decoded* cleanly (Merkle
    /// verification happens in [`recover_replica`], not here).
    pub snapshot: Option<Snapshot>,
    /// Every decodable WAL entry, in log order; the scan already dropped
    /// any torn or checksum-corrupt tail.
    pub entries: Vec<WalEntry>,
}

impl Durability {
    /// Opens (or creates) the replica's durable state under `dir` and
    /// returns the handle plus whatever previous state survived on disk.
    ///
    /// # Errors
    /// Any I/O error creating the directory or opening the log. A corrupt
    /// snapshot or WAL tail is *not* an error — recovery degrades.
    pub fn open(dir: &Path, config: &DurabilityConfig) -> io::Result<(Self, LocalState)> {
        std::fs::create_dir_all(dir)?;
        let snapshot = newest_snapshot(dir);
        let (wal, recovered) = Wal::open(dir.join("wal.log"), policy_of(config))?;
        let mut entries = Vec::with_capacity(recovered.records.len());
        for record in &recovered.records {
            match WalEntry::decode(record) {
                Ok(entry) => entries.push(entry),
                // An undecodable record means the suffix was written by a
                // different version or corrupted in place (the checksum
                // only guards torn writes): everything after it is
                // unreliable, stop — exactly like a torn tail.
                Err(_) => break,
            }
        }
        let durability = Durability {
            wal,
            dir: dir.to_path_buf(),
            persisted_base: AtomicU64::new(snapshot.as_ref().map_or(0, |s| s.base_seq.0)),
            snapshot_len: AtomicU64::new(snapshot.as_ref().map_or(0, |s| s.encoded_len() as u64)),
        };
        Ok((durability, LocalState { snapshot, entries }))
    }

    /// Appends one entry to the log. Durability failure is a replica
    /// failure — a half-logged replica would lie to itself on restart.
    pub fn log(&self, entry: &WalEntry) {
        self.log_raw(&entry.encode());
    }

    /// Appends pre-encoded entry bytes (the commit hot path uses
    /// [`commit_entry_bytes`] to skip cloning the batch).
    pub fn log_raw(&self, bytes: &[u8]) {
        self.wal
            .append(bytes)
            .expect("wal append failed: durable state is unrecoverable");
    }

    /// Whether a stable checkpoint should persist its snapshot: once the
    /// log holds as many bytes as the last persisted snapshot encodes to
    /// (at once, before the first). Replaying the log then costs about
    /// what loading a newer snapshot would; persisting sooner writes the
    /// whole table to spare replaying less than its size.
    pub fn snapshot_due(&self) -> bool {
        self.wal.byte_len() >= self.snapshot_len.load(Ordering::Relaxed)
    }

    /// Persists `snapshot` as the replica's newest stable checkpoint and
    /// compacts the WAL down to the suffix above its base. Skips silently
    /// if an equal-or-newer snapshot is already on disk.
    pub fn persist_stable(&self, snapshot: &Snapshot) {
        let base = snapshot.base_seq.0;
        if self.persisted_base.fetch_max(base, Ordering::Relaxed) >= base {
            return;
        }
        let path = self.dir.join(format!("snapshot-{base}.snap"));
        snapshot
            .save_to(&path)
            .expect("snapshot persist failed: durable state is unrecoverable");
        self.snapshot_len
            .store(snapshot.encoded_len() as u64, Ordering::Relaxed);
        // `save_to` synced the new name into the directory, so older
        // snapshots are superseded on disk too; best-effort cleanup.
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for f in dir.flatten() {
                if let Some(seq) = snapshot_seq_of(&f.path()) {
                    if seq < base {
                        let _ = std::fs::remove_file(f.path());
                    }
                }
            }
        }
        self.wal
            .rewrite_retain(|payload| WalEntry::seq_of(payload).is_some_and(|seq| seq.0 > base))
            .expect("wal compaction failed: durable state is unrecoverable");
    }

    /// Total WAL appends since open (bench/diagnostics).
    pub fn wal_appends(&self) -> u64 {
        self.wal.appends()
    }

    /// Total fsyncs the WAL issued since open (bench/diagnostics).
    pub fn wal_syncs(&self) -> u64 {
        self.wal.syncs()
    }
}

/// Parses `snapshot-<seq>.snap` file names.
fn snapshot_seq_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("snapshot-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Loads the newest snapshot in `dir` that decodes cleanly, trying
/// candidates newest-first so one corrupt file falls back to its
/// predecessor instead of the network.
fn newest_snapshot(dir: &Path) -> Option<Snapshot> {
    let mut seqs: Vec<u64> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|f| snapshot_seq_of(&f.path()))
        .collect();
    seqs.sort_unstable();
    while let Some(seq) = seqs.pop() {
        if let Ok(snap) = Snapshot::load_from(&dir.join(format!("snapshot-{seq}.snap"))) {
            return Some(snap);
        }
    }
    None
}

/// Where a restarted replica's state came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// Rebuilt from the local data directory (snapshot and/or WAL).
    Local,
    /// Nothing usable on disk — the replica starts from genesis and the
    /// existing network state-transfer path fills the gap.
    None,
}

impl RecoverySource {
    /// Stable lowercase name for log lines.
    pub fn name(self) -> &'static str {
        match self {
            RecoverySource::Local => "local",
            RecoverySource::None => "none",
        }
    }
}

/// What [`recover_replica`] rebuilt, for the caller's log line and the
/// consensus engine's re-basing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Where the state came from.
    pub source: RecoverySource,
    /// Base sequence of the installed snapshot (0 = none).
    pub snapshot_seq: SeqNum,
    /// Batches re-executed from the WAL suffix (net of rollbacks).
    pub replayed_batches: u64,
    /// Distinct transactions re-executed from the WAL suffix.
    pub replayed_txns: u64,
    /// Last executed sequence after recovery — consensus resumes at
    /// `head + 1`.
    pub head: SeqNum,
    /// Zyzzyva's rolling history digest at `head` ([`Digest::ZERO`] under
    /// PBFT).
    pub history: Digest,
    /// The stable-checkpoint floor recovery proved (snapshot base or a
    /// later `Stable` marker).
    pub stable: SeqNum,
}

/// Rebuilds `executor` from the data directory and attaches durability to
/// it, so every later commit extends the same log.
///
/// The sequence is: install the newest Merkle-verified snapshot, replay
/// the WAL suffix above its base through the ordinary execute path
/// (stopping at the first sequence gap — a compacted log whose snapshot
/// was lost cannot replay and degrades to the network), honor `Rollback`
/// and `Stable` markers in log order, and finally rewind any speculative
/// tail above the stable floor (a no-op under PBFT, which never keeps
/// undo records). Only then is the WAL handed to the executor.
///
/// # Errors
/// Any I/O error opening the directory or log; corruption is degraded
/// around, not returned.
pub fn recover_replica(
    executor: &Executor,
    dir: &Path,
    config: &DurabilityConfig,
) -> io::Result<(Arc<Durability>, RecoveryReport)> {
    let (durability, state) = Durability::open(dir, config)?;
    let txns_before = executor.executed_txns();
    let batches_before = executor.executed_batches();

    let mut base = SeqNum(0);
    let mut history_at: BTreeMap<SeqNum, Digest> = BTreeMap::new();
    let mut source = RecoverySource::None;
    if let Some(snapshot) = state.snapshot.map(Arc::new) {
        // The same gate a network snapshot passes: records must hash back
        // to the block's Merkle commitment.
        if verify_snapshot(&snapshot) {
            executor.install_snapshot(&snapshot);
            base = snapshot.base_seq;
            history_at.insert(base, snapshot.history);
            source = RecoverySource::Local;
        }
    }

    let mut last = base;
    let mut stable = base;
    for entry in state.entries {
        match entry {
            WalEntry::Commit {
                seq,
                view,
                digest,
                batch,
                certificate,
                history,
            } => {
                if seq.0 <= base.0 {
                    // Covered by the snapshot (crash between snapshot
                    // persist and log compaction).
                    continue;
                }
                if seq.0 != last.0 + 1 {
                    // A gap means the prefix this suffix builds on is
                    // gone; nothing after it can be trusted either.
                    break;
                }
                let item = ExecuteItem {
                    seq,
                    view,
                    digest,
                    batch: Arc::new(batch),
                    certificate,
                    history,
                };
                executor.execute(item);
                history_at.insert(seq, history.unwrap_or(Digest::ZERO));
                last = seq;
                source = RecoverySource::Local;
            }
            WalEntry::Rollback { to } => {
                if to.0 < last.0 {
                    executor.rollback_to(to);
                    history_at.split_off(&SeqNum(to.0 + 1));
                    last = to;
                }
            }
            WalEntry::Stable { seq } => {
                if seq.0 > stable.0 {
                    stable = seq;
                    executor.prune_undo(seq);
                }
            }
        }
    }

    // A speculative suffix above the stable floor was never committed;
    // the live run may have rewound it after our last log record. Replay
    // conservatively forgets it (PBFT keeps no undo records, so this
    // rewinds nothing there).
    if executor.rollback_to(stable) > 0 {
        history_at.split_off(&SeqNum(stable.0 + 1));
        last = stable;
    }

    let history = history_at
        .range(..=last)
        .next_back()
        .map_or(Digest::ZERO, |(_, h)| *h);
    let report = RecoveryReport {
        source,
        snapshot_seq: base,
        replayed_batches: executor.executed_batches() - batches_before,
        replayed_txns: executor.executed_txns() - txns_before,
        head: last,
        history,
        stable,
    };
    let durability = Arc::new(durability);
    executor.set_durability(Arc::clone(&durability));
    Ok((durability, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use rdb_common::{Batch, ClientId, Operation, ProtocolKind, ReplicaId, Transaction};
    use rdb_storage::blockchain::ChainMode;
    use rdb_storage::{Blockchain, MemStore, StateStore};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rdb-durable-test-{}-{name}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn item(seq: u64, tag: u8, zyzzyva: bool) -> ExecuteItem {
        let batch: Batch = (0..3u64)
            .map(|i| {
                Transaction::new(
                    ClientId(seq * 100 + i),
                    tag as u64,
                    vec![Operation::Write {
                        key: 10 + i,
                        value: vec![tag, seq as u8, i as u8],
                    }],
                )
            })
            .collect();
        ExecuteItem {
            seq: SeqNum(seq),
            view: ViewNum(0),
            digest: Digest([tag ^ seq as u8; 32]),
            batch: Arc::new(batch),
            certificate: BlockCertificate::default(),
            history: zyzzyva.then_some(Digest([seq as u8 | 0x40; 32])),
        }
    }

    /// `txns` single-write transactions over keys 1000.. with 16-byte
    /// values: a wide batch that makes the state — and so the snapshot —
    /// several intervals of [`item`]s' log large.
    fn wide_item(seq: u64, txns: u64, zyzzyva: bool) -> ExecuteItem {
        let batch: Batch = (0..txns)
            .map(|i| {
                let op = Operation::Write {
                    key: 1_000 + i,
                    value: vec![seq as u8; 16],
                };
                Transaction::new(ClientId(7_000 + i), seq, vec![op])
            })
            .collect();
        ExecuteItem {
            batch: Arc::new(batch),
            ..item(seq, 0, zyzzyva)
        }
    }

    /// Bytes one `Stable` marker adds to the log: its 9-byte entry in a
    /// frame of u32 length and SHA-256 checksum.
    const MARKER_BYTES: u64 = 4 + 32 + 9;

    fn fresh_executor(protocol: ProtocolKind) -> Executor {
        fresh_with_chain(protocol).0
    }

    fn fresh_with_chain(protocol: ProtocolKind) -> (Executor, Arc<Mutex<Blockchain>>) {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let mode = match protocol {
            ProtocolKind::Pbft => ChainMode::Certificate,
            ProtocolKind::Zyzzyva => ChainMode::PrevHash,
        };
        let chain = Arc::new(Mutex::new(Blockchain::new(Digest::ZERO, 0, mode)));
        let executor = Executor::new(ReplicaId(1), protocol, store, Arc::clone(&chain));
        (executor, chain)
    }

    fn config() -> DurabilityConfig {
        DurabilityConfig {
            fsync: FsyncMode::Never, // tests survive process exit, not power loss
            ..DurabilityConfig::default()
        }
    }

    #[test]
    fn wal_entries_round_trip_and_match_the_hot_path_encoder() {
        let it = item(7, 3, true);
        let commit = WalEntry::Commit {
            seq: it.seq,
            view: it.view,
            digest: it.digest,
            batch: (*it.batch).clone(),
            certificate: it.certificate.clone(),
            history: it.history,
        };
        for entry in [
            commit.clone(),
            WalEntry::Rollback { to: SeqNum(4) },
            WalEntry::Stable { seq: SeqNum(8) },
        ] {
            let bytes = entry.encode();
            assert_eq!(bytes.len(), entry.encoded_len());
            assert_eq!(WalEntry::decode(&bytes).unwrap(), entry);
        }
        assert_eq!(
            commit_entry_bytes(&it),
            commit.encode(),
            "zero-clone encoder must stay byte-identical"
        );
        // PBFT commits (no history) take the other flag branch.
        let it = item(2, 1, false);
        let decoded = WalEntry::decode(&commit_entry_bytes(&it)).unwrap();
        assert!(matches!(decoded, WalEntry::Commit { history: None, .. }));
    }

    #[test]
    fn seq_of_reads_what_decode_would_without_decoding() {
        let it = item(7, 3, true);
        for entry in [
            WalEntry::decode(&commit_entry_bytes(&it)).unwrap(),
            WalEntry::decode(&commit_entry_bytes(&item(300, 1, false))).unwrap(),
            WalEntry::Rollback { to: SeqNum(4) },
            WalEntry::Stable {
                seq: SeqNum(1 << 40),
            },
        ] {
            let bytes = entry.encode();
            let seq = match &entry {
                WalEntry::Commit { seq, .. } | WalEntry::Stable { seq } => *seq,
                WalEntry::Rollback { to } => *to,
            };
            assert_eq!(WalEntry::seq_of(&bytes), Some(seq), "{entry:?}");
            // Truncated inside the sequence, or down to nothing.
            assert_eq!(WalEntry::seq_of(&bytes[..8]), None);
            assert_eq!(WalEntry::seq_of(&bytes[..1]), None);
            assert_eq!(WalEntry::seq_of(&[]), None);
            let mut unknown = bytes.clone();
            unknown[0] = 9;
            assert_eq!(WalEntry::seq_of(&unknown), None);
            assert!(WalEntry::decode(&unknown).is_err());
        }
    }

    #[test]
    fn pbft_restart_replays_the_wal_suffix() {
        let dir = tmp("pbft-replay");
        let live = fresh_executor(ProtocolKind::Pbft);
        let (_, report) = recover_replica(&live, &dir, &config()).expect("first boot");
        assert_eq!(report.source, RecoverySource::None, "empty data dir");
        assert_eq!(report.head, SeqNum(0));
        for seq in 1..=4 {
            live.execute(item(seq, seq as u8, false));
        }
        let digest = live.store().state_digest();
        let (txns, batches) = (live.executed_txns(), live.executed_batches());
        drop(live); // process death; the WAL handle closes

        let reborn = fresh_executor(ProtocolKind::Pbft);
        let (_, report) = recover_replica(&reborn, &dir, &config()).expect("restart");
        assert_eq!(report.source, RecoverySource::Local);
        assert_eq!(report.snapshot_seq, SeqNum(0), "no checkpoint yet: all WAL");
        assert_eq!(report.head, SeqNum(4));
        assert_eq!(report.replayed_batches, 4);
        assert_eq!(report.replayed_txns, txns);
        assert_eq!(reborn.store().state_digest(), digest);
        assert_eq!(reborn.executed_batches(), batches);
        // Execution continues seamlessly and stays digest-equal with a
        // replica that never died.
        let survivor = fresh_executor(ProtocolKind::Pbft);
        for seq in 1..=5 {
            survivor.execute(item(seq, seq as u8, false));
        }
        reborn.execute(item(5, 5, false));
        assert_eq!(
            reborn.store().state_digest(),
            survivor.store().state_digest()
        );
    }

    #[test]
    fn stable_checkpoint_persists_a_snapshot_and_compacts_the_wal() {
        let dir = tmp("checkpoint");
        let live = fresh_executor(ProtocolKind::Pbft);
        let (durability, _) = recover_replica(&live, &dir, &config()).expect("boot");
        live.set_snapshot_interval(2);
        for seq in 1..=5 {
            live.execute(item(seq, seq as u8, false));
        }
        assert_eq!(durability.wal_appends(), 5);
        assert!(durability.snapshot_due(), "no snapshot yet: size 0");
        live.note_stable(SeqNum(4));
        assert!(
            dir.join("snapshot-4.snap").exists(),
            "latest captured snapshot (base 4) persisted"
        );
        let persisted = live.latest_snapshot().expect("marked at 4");
        assert_eq!(
            durability.snapshot_len.load(Ordering::Relaxed),
            persisted.encoded_len() as u64
        );
        assert_eq!(
            durability.wal.byte_len(),
            8 + 36 + commit_entry_bytes(&item(5, 5, false)).len() as u64,
            "compacted to the header and the one commit above the base"
        );
        let digest = live.store().state_digest();
        drop(live);

        let reborn = fresh_executor(ProtocolKind::Pbft);
        let (_, report) = recover_replica(&reborn, &dir, &config()).expect("restart");
        assert_eq!(report.source, RecoverySource::Local);
        assert_eq!(report.snapshot_seq, SeqNum(4));
        assert_eq!(report.replayed_batches, 1, "only seq 5 is above the base");
        assert_eq!(report.head, SeqNum(5));
        assert_eq!(report.stable, SeqNum(4));
        assert_eq!(reborn.store().state_digest(), digest);
        assert_eq!(
            reborn.executed_batches(),
            1,
            "transferred history is installed, not re-executed"
        );
    }

    /// Which blocks carry the store's root is decided by the snapshot
    /// interval, so replay must run under the interval the live run had:
    /// set before `recover_replica`, as `replica.rs::build_shared` does.
    #[test]
    fn a_mid_interval_restart_rederives_the_survivors_chain_head() {
        for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
            let zyzzyva = protocol == ProtocolKind::Zyzzyva;
            let dir = tmp("mid-interval");
            let live = fresh_executor(protocol);
            live.set_snapshot_interval(4);
            let (_, _) = recover_replica(&live, &dir, &config()).expect("boot");
            for seq in 1..=9 {
                live.execute(item(seq, seq as u8, zyzzyva));
                if seq == 5 {
                    live.note_stable(SeqNum(4)); // snapshot-4 on disk, WAL above it
                }
            }
            drop(live); // dies one batch into the third interval

            let (survivor, survivor_chain) = fresh_with_chain(protocol);
            survivor.set_snapshot_interval(4);
            for seq in 1..=11 {
                survivor.execute(item(seq, seq as u8, zyzzyva));
            }
            // Each restart extends the log it recovers from: one copy each.
            let copy = tmp("mid-interval-copy");
            for file in std::fs::read_dir(&dir).expect("list") {
                let file = file.expect("entry");
                std::fs::copy(file.path(), copy.join(file.file_name())).expect("copy");
            }
            let restart = |interval_first: bool| {
                let (reborn, chain) = fresh_with_chain(protocol);
                if interval_first {
                    reborn.set_snapshot_interval(4);
                }
                let dir = if interval_first { &dir } else { &copy };
                let (_, report) = recover_replica(&reborn, dir, &config()).expect("restart");
                reborn.set_snapshot_interval(4);
                assert_eq!(report.snapshot_seq, SeqNum(4));
                // PBFT replays 5..=9, across the boundary at 8; Zyzzyva
                // rewinds to the stable floor.
                assert_eq!(report.head, SeqNum(if zyzzyva { 4 } else { 9 }));
                for seq in report.head.0 + 1..=11 {
                    reborn.execute(item(seq, seq as u8, zyzzyva));
                }
                let head = chain.lock().head().clone();
                (head, reborn.store().state_digest())
            };
            let expected = (
                survivor_chain.lock().head().clone(),
                survivor.store().state_digest(),
            );
            assert_eq!(restart(true), expected, "{protocol:?}");
            if !zyzzyva {
                // Replayed with no interval, block 8 chains on 7 where
                // the survivor's carries the root, and 9 onwards inherit it.
                let (head, state) = restart(false);
                assert_eq!(state, expected.1);
                assert_ne!(head, expected.0);
            }
        }
    }

    #[test]
    fn zyzzyva_discards_the_unstable_speculative_tail() {
        let dir = tmp("zyz-tail");
        let live = fresh_executor(ProtocolKind::Zyzzyva);
        let (_, _) = recover_replica(&live, &dir, &config()).expect("boot");
        live.execute(item(1, 1, true));
        live.note_stable(SeqNum(1));
        let stable_digest = live.store().state_digest();
        // A speculative suffix that never reached a stable checkpoint.
        live.execute(item(2, 66, true));
        live.execute(item(3, 66, true));
        drop(live);

        let reborn = fresh_executor(ProtocolKind::Zyzzyva);
        let (_, report) = recover_replica(&reborn, &dir, &config()).expect("restart");
        assert_eq!(
            report.head,
            SeqNum(1),
            "tail above the stable floor rewound"
        );
        assert_eq!(report.stable, SeqNum(1));
        assert_eq!(
            report.history,
            Digest([1 | 0x40; 32]),
            "history at the floor"
        );
        assert_eq!(reborn.store().state_digest(), stable_digest);
        assert_eq!(reborn.executed_batches(), 1, "net of the rewind");
    }

    #[test]
    fn logged_rollbacks_replay_in_order() {
        let dir = tmp("rollback");
        let live = fresh_executor(ProtocolKind::Zyzzyva);
        let (_, _) = recover_replica(&live, &dir, &config()).expect("boot");
        live.execute(item(1, 1, true));
        live.execute(item(2, 66, true)); // mis-speculation
        live.rollback_to(SeqNum(1)); // logs a Rollback marker
        live.execute(item(2, 2, true)); // reconciled history
        live.note_stable(SeqNum(2));
        let digest = live.store().state_digest();
        drop(live);

        let reborn = fresh_executor(ProtocolKind::Zyzzyva);
        let (_, report) = recover_replica(&reborn, &dir, &config()).expect("restart");
        assert_eq!(report.head, SeqNum(2));
        assert_eq!(
            reborn.store().state_digest(),
            digest,
            "rewind replayed exactly"
        );
    }

    #[test]
    fn corrupt_snapshot_degrades_to_the_network_path() {
        let dir = tmp("corrupt");
        let live = fresh_executor(ProtocolKind::Pbft);
        let (_, _) = recover_replica(&live, &dir, &config()).expect("boot");
        live.set_snapshot_interval(2);
        for seq in 1..=3 {
            live.execute(item(seq, seq as u8, false));
        }
        live.note_stable(SeqNum(2)); // snapshot-2 persisted, WAL keeps only seq 3
        drop(live);
        // Bit rot takes the snapshot out; the compacted WAL alone cannot
        // rebuild (its suffix starts above genesis).
        let snap_path = dir.join("snapshot-2.snap");
        let mut bytes = std::fs::read(&snap_path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap_path, &bytes).expect("write");

        let reborn = fresh_executor(ProtocolKind::Pbft);
        let (_, report) = recover_replica(&reborn, &dir, &config()).expect("restart");
        assert_eq!(report.source, RecoverySource::None, "nothing trustworthy");
        assert_eq!(report.head, SeqNum(0));
        assert_eq!(reborn.executed_batches(), 0, "no partial state installed");
    }

    #[test]
    fn snapshot_files_rotate() {
        let dir = tmp("rotate");
        let live = fresh_executor(ProtocolKind::Pbft);
        let (durability, _) = recover_replica(&live, &dir, &config()).expect("boot");
        live.set_snapshot_interval(2);
        live.execute(wide_item(1, 64, false));
        live.execute(item(2, 2, false));
        live.note_stable(SeqNum(2));
        assert!(dir.join("snapshot-2.snap").exists(), "the first persists");
        // Later checkpoints only log their marker until the log has grown
        // as large as snapshot-2; the one that persists rotates it out.
        let mut seq = 2;
        while dir.join("snapshot-2.snap").exists() {
            assert!(seq < 40, "the log outgrew the snapshot long ago");
            for s in seq + 1..=seq + 2 {
                live.execute(item(s, s as u8, false));
            }
            seq += 2;
            let due = durability.wal.byte_len() + MARKER_BYTES
                >= durability.snapshot_len.load(Ordering::Relaxed);
            live.note_stable(SeqNum(seq));
            assert_eq!(dir.join(format!("snapshot-{seq}.snap")).exists(), due);
        }
        assert!(seq > 4, "at least one checkpoint only logged its marker");
        assert!(
            dir.join(format!("snapshot-{seq}.snap")).exists(),
            "superseded snapshot removed"
        );
    }

    #[test]
    fn a_snapshot_persists_only_once_the_log_is_as_large_as_the_last() {
        const INTERVAL: u64 = 4;
        for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
            let zyzzyva = protocol == ProtocolKind::Zyzzyva;
            let dir = tmp("break-even");
            let (live, live_chain) = fresh_with_chain(protocol);
            live.set_snapshot_interval(INTERVAL);
            let (durability, _) = recover_replica(&live, &dir, &config()).expect("boot");
            let snapshot_len = || durability.snapshot_len.load(Ordering::Relaxed);
            let mut persisted = Vec::new();
            for seq in 1..=40 * INTERVAL {
                live.execute(&match seq {
                    1 => wide_item(seq, 128, zyzzyva),
                    _ => item(seq, seq as u8, zyzzyva),
                });
                if seq % INTERVAL != 0 {
                    continue;
                }
                let (logged, last) = (durability.wal.byte_len(), snapshot_len());
                live.note_stable(SeqNum(seq));
                let persists = dir.join(format!("snapshot-{seq}.snap")).exists();
                assert_eq!(
                    persists,
                    logged + MARKER_BYTES >= last,
                    "{protocol:?} at {seq}"
                );
                if persists {
                    persisted.push(seq);
                }
                // Within the snapshot's size after every stable checkpoint,
                // so never more than that plus one interval of appends.
                assert!(
                    durability.wal.byte_len() <= snapshot_len(),
                    "{protocol:?} at {seq}"
                );

                // A restart from what is on disk now rebuilds this replica.
                let copy = tmp("break-even-restart");
                for file in std::fs::read_dir(&dir).expect("list") {
                    let file = file.expect("entry");
                    std::fs::copy(file.path(), copy.join(file.file_name())).expect("copy");
                }
                let (reborn, chain) = fresh_with_chain(protocol);
                reborn.set_snapshot_interval(INTERVAL);
                let (_, report) = recover_replica(&reborn, &copy, &config()).expect("restart");
                let base = *persisted.last().expect("the first checkpoint persists");
                assert_eq!(report.snapshot_seq, SeqNum(base));
                assert_eq!(report.replayed_batches, seq - base);
                assert_eq!(chain.lock().head(), live_chain.lock().head());
                assert_eq!(reborn.store().state_digest(), live.store().state_digest());
                std::fs::remove_dir_all(&copy).expect("clean up");
            }
            assert!(
                persisted.len() > 2 && persisted.len() < 20,
                "{protocol:?}: the rule both fired and waited: {persisted:?}"
            );
        }
    }
}
