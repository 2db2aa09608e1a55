//! Checkpoint snapshots for state transfer.
//!
//! A [`Snapshot`] captures everything a lagging or freshly restarted
//! replica needs to resume execution from a 2f+1-stable checkpoint
//! instead of genesis: the full `StateStore` contents at that sequence,
//! the chain block recorded there, and (for Zyzzyva) the rolling
//! speculative-history digest. The snapshot is self-committing: the
//! block's `result_digest` binds the batch digest to the store digest at
//! that sequence, so a receiver recomputes the store digest from the
//! transferred records and rejects any snapshot whose contents do not
//! hash back to the block it claims to sit under (the hash functions
//! live in `rdb_crypto`/`rdb_storage`; this crate only defines the data
//! and its wire form).

use crate::block::Block;
use crate::codec::{read_vec, write_vec, Sink, Wire, WireReader, WireWriter};
use crate::error::Result;
use crate::ids::{Digest, SeqNum};
use std::io::{self, Read as _, Write as _};
use std::path::Path;

/// On-disk snapshot file magic (version-bearing).
const SNAP_MAGIC: &[u8; 8] = b"RDBSNAP1";

/// A serialized replica state at a stable checkpoint boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The checkpoint sequence this snapshot captures; execution resumes
    /// at `base_seq + 1`.
    pub base_seq: SeqNum,
    /// The chain block at `base_seq` — its `result_digest` is the state
    /// commitment the transferred records must hash back to.
    pub block: Block,
    /// Zyzzyva's rolling history digest after `base_seq`
    /// ([`Digest::ZERO`] under PBFT, which carries no history).
    pub history: Digest,
    /// Every `(key, value)` record in the state store at `base_seq`.
    pub records: Vec<(u64, Vec<u8>)>,
}

impl Snapshot {
    /// The identity a receiver matches across peers before installing:
    /// f+1 distinct replicas must present the same `(base_seq,
    /// result_digest, history)` triple, so at least one honest replica
    /// vouches for the state.
    pub fn agreement_key(&self) -> (SeqNum, Digest, Digest) {
        (self.base_seq, self.block.result_digest, self.history)
    }

    /// Persists the snapshot to `path` atomically: the canonical `Wire`
    /// encoding is framed with a magic, length, and FNV-1a checksum,
    /// written to a sibling temp file, fsynced, and renamed into place —
    /// a crash mid-save leaves the previous snapshot file untouched. The
    /// rename is durable ([`rename_durably`]) before this returns, so a
    /// caller may then delete what the new file supersedes.
    ///
    /// The checksum is an *integrity* guard (bit rot, torn rename on
    /// exotic filesystems). Authenticity is not its job: every consumer
    /// re-verifies the records against the block's Merkle state commitment
    /// before installing, exactly as it would for a snapshot from a peer.
    ///
    /// # Errors
    /// Any I/O error from writing, syncing, or renaming the temp file.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        let payload = self.encode();
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(SNAP_MAGIC)?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(&fnv1a(&payload).to_le_bytes())?;
            f.write_all(&payload)?;
            f.sync_data()?;
        }
        rename_durably(&tmp, path)
    }

    /// Loads a snapshot saved by [`Snapshot::save_to`], rejecting files
    /// with a bad magic, length, checksum, or payload encoding.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidData`] on any corruption; otherwise the
    /// underlying read error.
    pub fn load_from(path: &Path) -> io::Result<Snapshot> {
        let corrupt = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < 24 || &bytes[..8] != SNAP_MAGIC {
            return Err(corrupt("snapshot magic mismatch"));
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        if bytes.len() != 24 + len {
            return Err(corrupt("snapshot length mismatch"));
        }
        let payload = &bytes[24..];
        if fnv1a(payload) != checksum {
            return Err(corrupt("snapshot checksum mismatch"));
        }
        Snapshot::decode(payload).map_err(|_| corrupt("snapshot payload undecodable"))
    }
}

/// Renames `from` over `to`, then fsyncs `to`'s directory. A synced file
/// under a name its directory has not synced can lose that name in a
/// power failure, so code that deletes or compacts what `to` supersedes
/// must run only after this returns.
///
/// # Errors
/// Any I/O error from the rename or from syncing the directory.
pub fn rename_durably(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::rename(from, to)?;
    let dir = match to.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// FNV-1a over `bytes` — a dependency-free integrity checksum (this crate
/// deliberately has no crypto dependency; see [`Snapshot::save_to`]).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Wire for Snapshot {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_u64(self.base_seq.0);
        self.block.write(w);
        w.put_bytes(self.history.as_bytes());
        write_vec(w, &self.records);
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        let base_seq = SeqNum(r.get_u64()?);
        let block = Block::read(r)?;
        let history = Digest(r.get_array32()?);
        Ok(Snapshot {
            base_seq,
            block,
            history,
            records: read_vec(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ViewNum;

    fn snap() -> Snapshot {
        Snapshot {
            base_seq: SeqNum(8),
            block: Block {
                seq: SeqNum(8),
                digest: Digest([1; 32]),
                view: ViewNum(0),
                link: crate::block::BlockLink::Hash(Digest([9; 32])),
                txn_count: 5,
                result_digest: Digest([4; 32]),
            },
            history: Digest([2; 32]),
            records: vec![(1, vec![7; 8]), (2, vec![]), (u64::MAX, vec![3])],
        }
    }

    #[test]
    fn round_trips_and_exact_len() {
        let s = snap();
        let bytes = s.encode();
        assert_eq!(bytes.len(), s.encoded_len());
        assert_eq!(Snapshot::decode(&bytes).unwrap(), s);
    }

    #[test]
    fn agreement_key_binds_base_commitment_and_history() {
        let s = snap();
        assert_eq!(
            s.agreement_key(),
            (SeqNum(8), Digest([4; 32]), Digest([2; 32]))
        );
        let mut tampered = snap();
        tampered.history = Digest([3; 32]);
        assert_ne!(s.agreement_key(), tampered.agreement_key());
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rdb-snap-test-{}-{name}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("snapshot-8.snap")
    }

    #[test]
    fn disk_round_trip_preserves_the_snapshot() {
        let path = tmp("roundtrip");
        let s = snap();
        s.save_to(&path).expect("save");
        assert_eq!(Snapshot::load_from(&path).expect("load"), s);
        // Saving again over the same path (newer checkpoint, same slot)
        // replaces the file atomically.
        let mut newer = snap();
        newer.base_seq = SeqNum(16);
        newer.block.seq = SeqNum(16);
        newer.save_to(&path).expect("re-save");
        assert_eq!(Snapshot::load_from(&path).expect("reload"), newer);
    }

    #[test]
    fn corrupt_files_are_rejected_not_trusted() {
        let path = tmp("corrupt");
        snap().save_to(&path).expect("save");
        let pristine = std::fs::read(&path).expect("read");

        // A flipped payload byte fails the checksum.
        let mut flipped = pristine.clone();
        *flipped.last_mut().expect("non-empty") ^= 1;
        std::fs::write(&path, &flipped).expect("write");
        let err = Snapshot::load_from(&path).expect_err("checksum");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A truncated file fails the length check.
        std::fs::write(&path, &pristine[..pristine.len() - 3]).expect("write");
        assert!(Snapshot::load_from(&path).is_err(), "truncation detected");

        // A non-snapshot file fails the magic check.
        std::fs::write(&path, b"definitely not a snapshot").expect("write");
        assert!(Snapshot::load_from(&path).is_err(), "bad magic detected");
    }
}
