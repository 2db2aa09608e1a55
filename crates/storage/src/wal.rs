//! Write-ahead log with group commit for the block-append path.
//!
//! The WAL is a flat file of length-prefixed, checksummed records:
//!
//! ```text
//! [ 8-byte magic "RDBWAL01" ]
//! [ u32 len | 32-byte SHA-256(payload) | payload ] *
//! ```
//!
//! Payloads are opaque bytes — the pipeline encodes its typed records with
//! the canonical `Wire` codec before appending, so the on-disk bytes are the
//! same deterministic encoding every digest and signature already covers.
//!
//! **Crash behaviour.** A crash can leave a torn final record (length or
//! payload only partially written) or, on pathological media, a corrupt
//! checksum anywhere. [`Wal::open`] scans forward and keeps the longest
//! valid prefix, truncating the rest — the recovery contract is "every
//! record you get back was durably and completely appended, in order".
//!
//! **Group commit.** `fsync` per append caps a serial commit loop at the
//! disk's sync latency. [`FsyncPolicy::Group`] instead marks the log dirty
//! and lets a flusher thread issue one `fdatasync` per window, amortizing
//! the sync across every append that landed in the window — the same move
//! PR 2 made for serialization (encode once, share the bytes). The window
//! bounds the data loss of a power failure; a clean process crash loses
//! nothing because appends always reach the OS page cache synchronously.

use parking_lot::{Condvar, Mutex};
use rdb_common::snapshot::rename_durably;
use rdb_crypto::sha2::sha256;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MAGIC: &[u8; 8] = b"RDBWAL01";
const HEADER_LEN: u64 = 8;
/// Per-record framing overhead: u32 length + 32-byte checksum.
const RECORD_OVERHEAD: usize = 4 + 32;
/// Upper bound on a single record; anything larger is treated as a torn
/// length field during recovery (a batch of 100 txns encodes to ~10 KiB).
const MAX_RECORD: usize = 256 << 20;

/// When appends reach the platter, not just the page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` on every append — durable at once, pays full sync latency
    /// per record.
    Always,
    /// Group commit: appends mark the log dirty; a flusher thread syncs at
    /// most once per window. Power-failure loss is bounded by the window.
    Group(Duration),
    /// Never sync explicitly; the OS flushes on its own schedule. The
    /// honest lower bound for the bench sweep, not a durability mode.
    Never,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Default, Clone)]
pub struct WalRecovery {
    /// Fully-valid payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes discarded past the last valid record (torn tail / corruption).
    pub torn_bytes: u64,
}

struct WalState {
    file: File,
    /// Appends since the last sync (group mode's dirty marker).
    unsynced: u64,
}

struct WalShared {
    state: Mutex<WalState>,
    /// The log file's length in bytes, header included. Written under
    /// `state`'s lock, read without it: the flusher holds that lock across
    /// `fdatasync`.
    len: AtomicU64,
    wake: Condvar,
    stop: AtomicBool,
    appends: AtomicU64,
    syncs: AtomicU64,
}

impl WalShared {
    fn sync_if_dirty(&self) -> io::Result<()> {
        let mut st = self.state.lock();
        if st.unsynced > 0 {
            st.file.sync_data()?;
            st.unsynced = 0;
            self.syncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// An open write-ahead log. Appends are thread-safe; one `Wal` per replica.
pub struct Wal {
    shared: Arc<WalShared>,
    path: PathBuf,
    policy: FsyncPolicy,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .field("appends", &self.appends())
            .field("syncs", &self.syncs())
            .finish()
    }
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, recovering the valid
    /// prefix and truncating any torn tail before the first new append.
    pub fn open(path: impl AsRef<Path>, policy: FsyncPolicy) -> io::Result<(Wal, WalRecovery)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;

        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (frames, valid_len) = scan(&bytes);
        let recovery = WalRecovery {
            records: frames.iter().map(|f| bytes[payload(f)].to_vec()).collect(),
            torn_bytes: bytes.len() as u64 - valid_len,
        };
        if bytes.len() as u64 != valid_len {
            // Torn tail (or a file that isn't a WAL at all): keep the valid
            // prefix, drop the rest, and make the truncation itself durable
            // before anything appends after it.
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        if valid_len < HEADER_LEN {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.sync_data()?;
        }
        let len = file.seek(SeekFrom::End(0))?;

        let shared = Arc::new(WalShared {
            state: Mutex::new(WalState { file, unsynced: 0 }),
            len: AtomicU64::new(len),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            appends: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        });
        let flusher = match policy {
            FsyncPolicy::Group(window) => Some(spawn_flusher(Arc::clone(&shared), window)),
            _ => None,
        };
        Ok((
            Wal {
                shared,
                path,
                policy,
                flusher: Mutex::new(flusher),
            },
            recovery,
        ))
    }

    /// Appends one record. The write always reaches the OS synchronously;
    /// when it reaches the disk is the [`FsyncPolicy`]'s call.
    pub fn append(&self, payload: &[u8]) -> io::Result<()> {
        let checksum = sha256(payload);
        let mut frame = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum);
        frame.extend_from_slice(payload);

        let mut st = self.shared.state.lock();
        st.file.write_all(&frame)?;
        self.shared
            .len
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.shared.appends.fetch_add(1, Ordering::Relaxed);
        match self.policy {
            FsyncPolicy::Always => {
                st.file.sync_data()?;
                self.shared.syncs.fetch_add(1, Ordering::Relaxed);
            }
            FsyncPolicy::Group(_) => st.unsynced += 1,
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Forces any unsynced appends to disk now (checkpoint barrier).
    pub fn sync(&self) -> io::Result<()> {
        self.shared.sync_if_dirty()
    }

    /// Compacts the log, retaining only records `keep` accepts (in order).
    /// Atomic: the retained set is written to a sibling temp file, synced,
    /// and renamed over the log, so a crash leaves either the old or the
    /// new log — never a partial rewrite. The rename itself is durable
    /// (the directory is synced) before this returns.
    pub fn rewrite_retain(&self, mut keep: impl FnMut(&[u8]) -> bool) -> io::Result<()> {
        let mut st = self.shared.state.lock();
        st.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        st.file.read_to_end(&mut bytes)?;
        // Each retained frame is copied as `scan` read and verified it —
        // length, checksum, payload — so no record is hashed twice.
        let mut kept = MAGIC.to_vec();
        for frame in scan(&bytes).0 {
            if keep(&bytes[payload(&frame)]) {
                kept.extend_from_slice(&bytes[frame]);
            }
        }

        let tmp_path = self.path.with_extension("rewrite");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&kept)?;
        tmp.sync_data()?;
        drop(tmp);
        rename_durably(&tmp_path, &self.path)?;

        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        st.file = file;
        st.unsynced = 0;
        self.shared.len.store(kept.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// The log's length in bytes, header and record framing included:
    /// what a restart reads back. Never waits on the flusher's sync.
    pub fn byte_len(&self) -> u64 {
        self.shared.len.load(Ordering::Relaxed)
    }

    /// Total records appended through this handle.
    pub fn appends(&self) -> u64 {
        self.shared.appends.load(Ordering::Relaxed)
    }

    /// Total `fdatasync` calls issued — the number group commit amortizes.
    pub fn syncs(&self) -> u64 {
        self.shared.syncs.load(Ordering::Relaxed)
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        if let Some(handle) = self.flusher.lock().take() {
            let _ = handle.join();
        }
        // Final sync so a clean shutdown under Group policy loses nothing.
        let _ = self.shared.sync_if_dirty();
    }
}

fn spawn_flusher(shared: Arc<WalShared>, window: Duration) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("wal-flush".into())
        .spawn(move || loop {
            {
                // Sleep on the condvar so Drop can wake us immediately.
                let mut st = shared.state.lock();
                shared.wake.wait_for(&mut st, window);
            }
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            let _ = shared.sync_if_dirty();
        })
        .expect("spawn wal flusher")
}

/// Scans `bytes` for the longest valid record prefix. Returns the range of
/// each valid record's frame (length, checksum, payload), in order, and
/// the byte offset the file should be truncated to.
fn scan(bytes: &[u8]) -> (Vec<Range<usize>>, u64) {
    let mut frames = Vec::new();
    if bytes.len() < HEADER_LEN as usize || &bytes[..8] != MAGIC {
        return (frames, 0);
    }
    let mut pos = HEADER_LEN as usize;
    loop {
        if pos + RECORD_OVERHEAD > bytes.len() {
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD || pos + RECORD_OVERHEAD + len > bytes.len() {
            break;
        }
        let checksum = &bytes[pos + 4..pos + 36];
        let payload = &bytes[pos + 36..pos + 36 + len];
        if sha256(payload) != *checksum {
            break;
        }
        frames.push(pos..pos + RECORD_OVERHEAD + len);
        pos += RECORD_OVERHEAD + len;
    }
    (frames, pos as u64)
}

/// The payload inside a frame [`scan`] returned.
fn payload(frame: &Range<usize>) -> Range<usize> {
    frame.start + RECORD_OVERHEAD..frame.end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rdb-wal-test-{}-{name}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("wal.log")
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let path = tmp("roundtrip");
        {
            let (wal, rec) = Wal::open(&path, FsyncPolicy::Always).expect("open");
            assert!(rec.records.is_empty());
            wal.append(b"alpha").expect("append");
            wal.append(b"beta").expect("append");
            wal.append(&[]).expect("empty payload is legal");
            assert_eq!(wal.appends(), 3);
            assert_eq!(wal.syncs(), 3);
        }
        let (_, rec) = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(
            rec.records,
            vec![b"alpha".to_vec(), b"beta".to_vec(), vec![]]
        );
        assert_eq!(rec.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_recovers_to_last_valid_prefix() {
        let path = tmp("torn");
        {
            let (wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
            wal.append(b"keep-1").expect("append");
            wal.append(b"keep-2").expect("append");
            wal.append(b"torn-away").expect("append");
        }
        // Chop mid-way through the final record's payload.
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(len - 4).expect("truncate");
        drop(f);

        let (wal, rec) = Wal::open(&path, FsyncPolicy::Never).expect("recover");
        assert_eq!(rec.records, vec![b"keep-1".to_vec(), b"keep-2".to_vec()]);
        assert!(rec.torn_bytes > 0, "the torn record is reported");
        // The log is usable immediately after recovery.
        wal.append(b"keep-3").expect("append after recovery");
        drop(wal);
        let (_, rec) = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(
            rec.records,
            vec![b"keep-1".to_vec(), b"keep-2".to_vec(), b"keep-3".to_vec()]
        );
    }

    #[test]
    fn corrupt_checksum_discards_suffix() {
        let path = tmp("corrupt");
        {
            let (wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
            wal.append(b"good").expect("append");
            wal.append(b"flipped").expect("append");
            wal.append(b"after").expect("append");
        }
        // Flip a payload byte of the middle record: it and everything after
        // it are gone — suffix order would otherwise be unprovable.
        let mut bytes = std::fs::read(&path).expect("read");
        let second_payload = 8 + (36 + 4) + 36; // header, "good" record, framing
        bytes[second_payload] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");

        let (_, rec) = Wal::open(&path, FsyncPolicy::Never).expect("recover");
        assert_eq!(rec.records, vec![b"good".to_vec()]);
    }

    #[test]
    fn non_wal_file_is_reset_not_trusted() {
        let path = tmp("notawal");
        std::fs::write(&path, b"definitely not a wal").expect("write");
        let (wal, rec) = Wal::open(&path, FsyncPolicy::Never).expect("open");
        assert!(rec.records.is_empty());
        assert_eq!(rec.torn_bytes, 20);
        wal.append(b"fresh").expect("append");
        drop(wal);
        let (_, rec) = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(rec.records, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn group_commit_amortizes_syncs() {
        let path = tmp("group");
        let (wal, _) =
            Wal::open(&path, FsyncPolicy::Group(Duration::from_millis(5))).expect("open");
        for i in 0..200u32 {
            wal.append(&i.to_le_bytes()).expect("append");
        }
        // Let at least one window elapse, then force the tail out.
        std::thread::sleep(Duration::from_millis(20));
        wal.sync().expect("sync");
        let syncs = wal.syncs();
        assert!(syncs >= 1, "flusher ran");
        assert!(
            syncs < 200,
            "group commit must not sync per append (got {syncs})"
        );
        drop(wal);
        let (_, rec) = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(rec.records.len(), 200);
    }

    #[test]
    fn rewrite_retain_keeps_the_selected_suffix() {
        let path = tmp("rewrite");
        let (wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
        for tag in [b"a1", b"a2", b"b1", b"b2"] {
            wal.append(tag).expect("append");
        }
        wal.rewrite_retain(|payload| payload.starts_with(b"b"))
            .expect("rewrite");
        wal.append(b"b3").expect("append after rewrite");
        drop(wal);
        let (_, rec) = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(
            rec.records,
            vec![b"b1".to_vec(), b"b2".to_vec(), b"b3".to_vec()]
        );
    }

    #[test]
    fn a_compacted_log_reopens_with_the_same_records_and_no_torn_bytes() {
        let path = tmp("compacted");
        let (wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
        let records: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 13 * i as usize]).collect();
        for record in &records {
            wal.append(record).expect("append");
        }
        wal.rewrite_retain(|payload| payload.len() % 2 == 0)
            .expect("rewrite");
        let kept: Vec<Vec<u8>> = records.into_iter().filter(|r| r.len() % 2 == 0).collect();
        let len = wal.byte_len();
        drop(wal);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), len);
        let (_, rec) = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(rec.records, kept, "every retained frame verifies");
        assert_eq!(rec.torn_bytes, 0);
    }

    #[test]
    fn byte_len_is_the_file_length() {
        let path = tmp("byte-len");
        let file_len = || std::fs::metadata(&path).expect("meta").len();
        let (wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("open");
        assert_eq!(wal.byte_len(), HEADER_LEN);
        wal.append(b"seven!!").expect("append");
        wal.append(&[]).expect("append");
        assert_eq!(wal.byte_len(), HEADER_LEN + 2 * 36 + 7);
        assert_eq!(wal.byte_len(), file_len());
        drop(wal);
        let (wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("reopen");
        assert_eq!(wal.byte_len(), file_len(), "read back on open");
        wal.rewrite_retain(|_| false).expect("compact");
        assert_eq!(wal.byte_len(), HEADER_LEN);
    }
}
