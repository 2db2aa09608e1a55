//! Key-value state stores.
//!
//! The execute stage applies transaction operations against a
//! [`StateStore`]. [`MemStore`] keeps its records in the Merkle
//! commitment's own table ([`crate::merkle`]): each value sits beside its
//! key and record hash in the leaf bucket the key hashes to, under one
//! lock. Writes mark leaves dirty and asking for the digest re-hashes what
//! is dirty, so taking a checkpoint never requires scanning the store, a
//! Byzantine snapshot cannot exploit XOR cancellation, and membership can
//! be proven against the 32-byte root ([`MemStore::prove`]).
//!
//! Execution never mutates the store directly: it buffers writes as
//! [`WriteRecord`]s (hashing each record where it is produced — under
//! parallel execution that is an execute-worker, off the commit path) and
//! commits them in canonical order through [`StateStore::apply_logged`],
//! which shows the caller each value a write displaces, before it is
//! overwritten in place, for the caller to copy into its pre-image arena.
//! Because the state digest is content-based (a pure function of the
//! final records), any apply schedule that produces the same final
//! contents produces the same digest.

use crate::merkle::{MerkleAccumulator, MerkleProof};
use parking_lot::RwLock;
use rdb_common::Digest;
use rdb_crypto::digest_parts;
use rdb_crypto::sha2::{self, padded_block, Backend, PaddedBatch};

/// Hash of one `(key, value)` record, folded into the state digest.
pub fn record_hash(key: u64, value: &[u8]) -> [u8; 32] {
    digest_parts(&[&key.to_le_bytes(), value]).0
}

/// Sets every write's `hash` to its [`record_hash`]: sixteen per pass of
/// the lane kernel where the CPU has one and `key ‖ value` fits one block
/// (values of up to 47 bytes), the rest one at a time. The one way
/// execution hashes what it wrote, serially or per transaction.
pub fn hash_records(writes: &mut [WriteRecord]) {
    hash_records_on(sha2::backend(), writes);
}

fn hash_records_on(backend: &Backend, writes: &mut [WriteRecord]) {
    let mut batch = PaddedBatch::new(backend);
    for at in 0..writes.len() {
        let w = &writes[at];
        match padded_block(&[&w.key.to_le_bytes(), &w.value]) {
            Some(block) => batch.push(at, block, |at, hash| writes[at].hash = hash),
            None => writes[at].hash = record_hash(w.key, &w.value),
        }
    }
    batch.finish(|at, hash| writes[at].hash = hash);
}

/// A buffered write: the unit of the deferred-commit execution path.
///
/// The record hash is computed when the write is produced, so the serial
/// `apply` step only folds precomputed hashes instead of re-hashing every
/// value on the commit path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRecord {
    /// Record key in the table.
    pub key: u64,
    /// Final value for the key.
    pub value: Vec<u8>,
    /// Precomputed `record_hash(key, value)`.
    pub hash: [u8; 32],
}

impl WriteRecord {
    /// Creates a record, hashing it immediately (caller's thread).
    pub fn new(key: u64, value: Vec<u8>) -> Self {
        let hash = record_hash(key, &value);
        WriteRecord { key, value, hash }
    }
}

/// A stored value: up to [`INLINE`] bytes sit in the record itself, beside
/// its key and hash, so reading or overwriting them touches no second
/// cache line and the table holds no allocation per record; longer ones
/// go to the heap, whose buffer an overwrite reuses.
#[derive(Debug, Clone)]
enum Value {
    Inline(u8, [u8; INLINE]),
    Heap(Vec<u8>),
}

/// The most bytes a [`Value`] keeps inline: what fits in a `Vec`'s room
/// beside the spare bits of its capacity, so a value is no larger than a
/// `Vec`.
const INLINE: usize = 15;

impl Default for Value {
    fn default() -> Self {
        Value::Inline(0, [0; INLINE])
    }
}

impl Value {
    fn bytes(&self) -> &[u8] {
        match self {
            Value::Inline(len, bytes) => &bytes[..*len as usize],
            Value::Heap(bytes) => bytes,
        }
    }

    fn set(&mut self, value: &[u8]) {
        match self {
            Value::Heap(bytes) if value.len() > INLINE => value.clone_into(bytes),
            _ if value.len() > INLINE => *self = Value::Heap(value.to_vec()),
            _ => {
                let mut inline = [0; INLINE];
                inline[..value.len()].copy_from_slice(value);
                *self = Value::Inline(value.len() as u8, inline);
            }
        }
    }
}

/// Abstract key-value state accessed during execution.
///
/// Implementations must be thread-safe: execute workers read while the
/// commit step writes, and the worker reads it to build a serving
/// snapshot.
pub trait StateStore: Send + Sync {
    /// Reads the value stored under `key` into `out` (replacing what it
    /// held), returning whether the key exists. Allocates nothing once
    /// `out` has the capacity.
    fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool;

    /// Reads the value stored under `key`.
    fn get(&self, key: u64) -> Option<Vec<u8>> {
        let mut value = Vec::new();
        self.get_into(key, &mut value).then_some(value)
    }

    /// Stores `value` under `key`.
    fn put(&self, key: u64, value: &[u8]);

    /// Commits buffered writes in order (the in-order commit step of
    /// deferred execution), reusing their precomputed hashes.
    fn apply(&self, writes: &[WriteRecord]) {
        self.apply_logged(writes, &mut |_, _| {});
    }

    /// [`apply`](Self::apply), showing `displaced` per write, in the same
    /// order, the key and the value the write displaced (`None` = the key
    /// did not exist) before it is overwritten, for the caller to copy
    /// into its pre-image log. A key written twice shows the batch's own
    /// first write the second time, so the *first* entry per key is its
    /// pre-batch image.
    fn apply_logged(&self, writes: &[WriteRecord], displaced: &mut dyn FnMut(u64, Option<&[u8]>));

    /// Number of records present.
    fn len(&self) -> usize;

    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Incrementally-maintained digest over all records. Costs in
    /// proportion to what was written since the last call.
    fn state_digest(&self) -> Digest;

    /// Removes `key`, returning whether it was present. Backends that
    /// maintain an incremental digest fold the removed record's hash out,
    /// so remove-after-put restores the exact pre-put digest — the
    /// property speculative rollback relies on to undo writes to
    /// previously-absent keys.
    fn remove(&self, key: u64) -> bool;

    /// Every `(key, value)` record, sorted by key — the deterministic
    /// payload of a checkpoint snapshot.
    fn export_records(&self) -> Vec<(u64, Vec<u8>)>;

    /// Replaces the entire contents with `records` (snapshot install).
    /// Afterwards `state_digest()` reflects exactly the installed records.
    fn install_records(&self, records: &[(u64, Vec<u8>)]);
}

/// In-memory key-value store — ResilientDB's default state backend.
///
/// One table holds both the records and their commitment: the
/// [`MerkleAccumulator`] keeps each value beside its key and record hash
/// in the leaf bucket the key hashes to, so a read, a write and the
/// write's mark on the tree find the key once. One lock covers table and
/// tree: reads (execute workers, snapshot builds) share it, a commit takes
/// it exclusively once per batch.
#[derive(Debug, Default)]
pub struct MemStore {
    table: RwLock<MerkleAccumulator<Value>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store pre-loaded with `n` records of `value_size` zero
    /// bytes, mirroring the paper's 600K-record YCSB table initialization.
    /// Bulk-builds the commitment (one tree build, not `n` root-path
    /// walks) before handing the store over, so set-up pays for it and not
    /// the first caller to ask for a digest.
    pub fn with_table(n: u64, value_size: usize) -> Self {
        let value = vec![0u8; value_size];
        let store = Self::new();
        store.install((0..n).map(|key| (key, value.as_slice())));
        store
    }

    /// Replaces the contents with `records` and builds the tree.
    fn install<'a>(&self, records: impl Iterator<Item = (u64, &'a [u8])>) {
        let mut table = self.table.write();
        table.clear();
        for (key, value) in records {
            table.upsert(key, record_hash(key, value)).0.set(value);
        }
        // Build the tree here, not at the installer's next digest.
        table.root();
    }

    /// Membership proof for `key` against the current [`state_digest`]:
    /// the record's leaf bucket plus its sibling path. Verified with
    /// [`crate::merkle::verify_proof`].
    ///
    /// [`state_digest`]: StateStore::state_digest
    pub fn prove(&self, key: u64) -> Option<MerkleProof> {
        self.table.write().prove(key)
    }
}

impl StateStore for MemStore {
    fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool {
        out.clear();
        let table = self.table.read();
        table
            .get(key)
            .map(|v| out.extend_from_slice(v.bytes()))
            .is_some()
    }

    fn put(&self, key: u64, value: &[u8]) {
        let hash = record_hash(key, value);
        self.table.write().upsert(key, hash).0.set(value);
    }

    fn apply_logged(&self, writes: &[WriteRecord], displaced: &mut dyn FnMut(u64, Option<&[u8]>)) {
        let mut table = self.table.write();
        for w in writes {
            let (slot, present) = table.upsert(w.key, w.hash);
            displaced(w.key, present.then_some(slot.bytes()));
            slot.set(&w.value);
        }
    }

    fn len(&self) -> usize {
        self.table.read().len()
    }

    fn state_digest(&self) -> Digest {
        self.table.write().root()
    }

    fn remove(&self, key: u64) -> bool {
        self.table.write().take(key).is_some()
    }

    fn export_records(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = {
            let table = self.table.read();
            table
                .records()
                .map(|(k, v)| (k, v.bytes().to_vec()))
                .collect()
        };
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    fn install_records(&self, records: &[(u64, Vec<u8>)]) {
        self.install(records.iter().map(|(k, v)| (*k, v.as_slice())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records with every value length from 0 to 64 — 8 + 47 bytes is the
    /// longest that fits one block, 8 + 48 the shortest that does not —
    /// three times over: distinct bytes, all-0x00 or all-0xFF, and the
    /// first round repeated without its empty value, each round in a
    /// shuffled order. 143 of them fit one block: eight full lane passes,
    /// gathered across records that do not fit, and a remainder of
    /// fifteen.
    #[test]
    fn hash_records_is_record_hash_on_every_backend() {
        let mut writes: Vec<WriteRecord> = Vec::new();
        for round in 0..3u64 {
            for len in (usize::from(round == 2)..=64).map(|i| i * 29 % 65) {
                let value = match round {
                    1 => vec![if len % 2 == 0 { 0x00 } else { 0xff }; len],
                    _ => (0..len).map(|i| (i * 7 + len) as u8).collect(),
                };
                let key = if round == 1 {
                    u64::MAX - len as u64
                } else {
                    len as u64
                };
                writes.push(WriteRecord {
                    key,
                    value,
                    hash: [0; 32],
                });
            }
        }
        let portable = sha2::backends().last().expect("portable");
        let expected: Vec<[u8; 32]> = writes
            .iter()
            .map(|w| portable.sha256(&[&w.key.to_le_bytes()[..], &w.value].concat()))
            .collect();
        for (w, expected) in writes.iter().zip(&expected) {
            assert_eq!(
                record_hash(w.key, &w.value),
                *expected,
                "{} bytes",
                w.value.len()
            );
        }
        for backend in sha2::backends() {
            let mut hashed = writes.clone();
            hash_records_on(&backend, &mut hashed);
            for (w, expected) in hashed.iter().zip(&expected) {
                let len = w.value.len();
                assert_eq!(w.hash, *expected, "{}, {len} bytes", backend.name());
            }
        }
        let mut hashed = writes.clone();
        hash_records(&mut hashed);
        assert!(hashed.iter().zip(&expected).all(|(w, e)| w.hash == *e));
    }

    #[test]
    fn get_put_round_trip() {
        let s = MemStore::new();
        assert!(s.get(1).is_none());
        s.put(1, b"alpha");
        assert_eq!(s.get(1).as_deref(), Some(&b"alpha"[..]));
        s.put(1, b"beta");
        assert_eq!(s.get(1).as_deref(), Some(&b"beta"[..]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn table_preload() {
        let s = MemStore::with_table(100, 8);
        assert_eq!(s.len(), 100);
        assert_eq!(s.get(99).unwrap().len(), 8);
        assert!(s.get(100).is_none());
    }

    #[test]
    fn digest_tracks_content_not_history() {
        let a = MemStore::new();
        a.put(1, b"x");
        a.put(2, b"y");
        let b = MemStore::new();
        b.put(2, b"y");
        b.put(1, b"x");
        // Same content via different orders → same digest.
        assert_eq!(a.state_digest(), b.state_digest());

        // Overwrite then restore → digest returns to the original value.
        let before = a.state_digest();
        a.put(1, b"z");
        assert_ne!(a.state_digest(), before);
        a.put(1, b"x");
        assert_eq!(a.state_digest(), before);
    }

    #[test]
    fn empty_store_zero_digest() {
        let s = MemStore::new();
        assert_eq!(s.state_digest(), Digest::ZERO);
        assert!(s.is_empty());
    }

    #[test]
    fn digests_differ_across_contents() {
        let a = MemStore::new();
        a.put(1, b"x");
        let b = MemStore::new();
        b.put(1, b"y");
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn apply_equals_direct_puts() {
        let direct = MemStore::new();
        direct.put(1, b"one");
        direct.put(2, b"two");
        direct.put(1, b"uno");

        let applied = MemStore::new();
        applied.apply(&[
            WriteRecord::new(1, b"one".to_vec()),
            WriteRecord::new(2, b"two".to_vec()),
            WriteRecord::new(1, b"uno".to_vec()),
        ]);

        assert_eq!(direct.state_digest(), applied.state_digest());
        assert_eq!(applied.get(1).as_deref(), Some(&b"uno"[..]));
        assert_eq!(applied.get(2).as_deref(), Some(&b"two"[..]));
        assert_eq!(applied.len(), 2);
    }

    #[test]
    fn apply_uses_precomputed_hashes() {
        // A WriteRecord constructed off-thread carries its hash; apply must
        // fold exactly that hash, so the digest matches a plain put.
        let w = WriteRecord::new(7, b"payload".to_vec());
        assert_eq!(w.hash, record_hash(7, b"payload"));
        let s = MemStore::new();
        s.apply(std::slice::from_ref(&w));
        let p = MemStore::new();
        p.put(7, b"payload");
        assert_eq!(s.state_digest(), p.state_digest());
    }

    #[test]
    fn remove_restores_pre_put_digest() {
        let s = MemStore::new();
        s.put(1, b"x");
        let before = s.state_digest();
        s.put(2, b"new");
        assert!(s.remove(2), "present key removes");
        assert_eq!(s.state_digest(), before, "digest folds the record back out");
        assert_eq!(s.len(), 1);
        assert!(!s.remove(2), "absent key is a no-op");
        assert_eq!(s.state_digest(), before);
    }

    #[test]
    fn export_install_round_trips_content_and_digest() {
        let a = MemStore::new();
        a.put(5, b"five");
        a.put(1, b"one");
        a.put(99, b"ninety-nine");
        let records = a.export_records();
        assert_eq!(records.len(), 3);
        assert!(records.windows(2).all(|w| w[0].0 < w[1].0), "sorted by key");

        let b = MemStore::new();
        b.put(42, b"stale state that install must wipe");
        b.install_records(&records);
        assert_eq!(b.state_digest(), a.state_digest());
        assert_eq!(b.len(), 3);
        assert!(b.get(42).is_none());
        assert_eq!(b.get(5).as_deref(), Some(&b"five"[..]));
    }

    #[test]
    fn proofs_check_out_against_the_state_digest() {
        let s = MemStore::with_table(64, 8);
        s.put(7, b"proven");
        let proof = s.prove(7).expect("present key");
        assert!(crate::merkle::verify_proof(
            s.state_digest(),
            7,
            record_hash(7, b"proven"),
            &proof
        ));
        // The proof pins the value: a different value hash fails.
        assert!(!crate::merkle::verify_proof(
            s.state_digest(),
            7,
            record_hash(7, b"forged"),
            &proof
        ));
        // And the proof is against *this* state: a later write invalidates it.
        s.put(7, b"moved on");
        assert!(!crate::merkle::verify_proof(
            s.state_digest(),
            7,
            record_hash(7, b"proven"),
            &proof
        ));
        assert!(s.prove(1 << 40).is_none(), "absent key has no proof");
    }

    #[test]
    fn concurrent_writers() {
        use std::sync::Arc;
        let s = Arc::new(MemStore::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        s.put(t * 1000 + i, &i.to_le_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 8000);
        assert_eq!(s.get(7999).as_deref(), Some(&999u64.to_le_bytes()[..]));
    }
}
