//! Incremental binary Merkle commitment over store records — and, with a
//! value type, the record table it commits to.
//!
//! A fixed-depth binary Merkle tree (it replaced an XOR fold of record
//! hashes, which a Byzantine responder could cancel and which admits no
//! partial proofs):
//!
//! - Records are bucketed into `2^DEPTH` leaves by a Fibonacci hash of their
//!   key. A leaf commits to the sorted `(key, record_hash)` pairs of its
//!   bucket; interior nodes are `SHA-256(left ‖ right)`.
//! - The tree is **flat**: all `2^(DEPTH+1)` node hashes sit in one
//!   heap-ordered array (root at 1, children of `i` at `2i` and `2i + 1`,
//!   leaf `l` at `2^DEPTH + l`), so a node is an index away from its
//!   parent, sibling and children. The array costs a fixed 4 MiB and is
//!   allocated, filled with each level's all-empty subtree hash, on the
//!   first insert — an accumulator that never holds a record (or was
//!   [`clear`]ed) owns no memory.
//! - **One table.** The buckets live in a second array indexed by leaf,
//!   each entry `(key, record_hash, value)` in key order. A bare
//!   commitment keeps `()` beside each hash; [`crate::MemStore`] keeps the
//!   record's value there, so the store has no map of its own and a read,
//!   a write and the write's mark on the tree all find the key through
//!   [`bucket_of`] once. A bucket with one record — the common case —
//!   holds it inline in the array; only a shared bucket is a heap vector.
//! - Updates are **lazy**: `upsert`/`take` (and the hash-only
//!   `update`/`remove`/[`apply`]) edit the leaf bucket and mark the leaf
//!   dirty, nothing else. [`root`] and [`prove`] first *flush*: every
//!   dirty leaf is re-hashed once and dirty parents are propagated level
//!   by level, two parents per kernel pass ([`sha256_pair2`]), so
//!   whatever was written since the last flush — one record or a
//!   checkpoint interval of batches — shares its leaf and upper-tree
//!   work. The values are those of hashing on every write; only when the
//!   hashing happens differs.
//! - The root is a pure function of the record *contents* — identical across
//!   stores and across put/remove histories that converge on the same
//!   state, which the Zyzzyva undo log depends on.
//!   It is also independent of the layout: the roots are those of the
//!   sparse per-level-map tree this array replaced, pinned by
//!   `tests/golden_roots.rs`.
//!
//! An empty store commits to [`Digest::ZERO`], preserving the XOR-fold
//! convention every genesis block and test fixture already assumes.
//!
//! [`apply`]: MerkleAccumulator::apply
//! [`clear`]: MerkleAccumulator::clear
//! [`root`]: MerkleAccumulator::root
//! [`prove`]: MerkleAccumulator::prove
//!
//! [`prove`](MerkleAccumulator::prove) / [`verify_proof`] add what the XOR
//! fold never could: a replica can hand over one bucket plus `DEPTH` sibling
//! hashes and a verifier checks membership against the 32-byte commitment
//! without the full record set.

use rdb_common::Digest;
use rdb_crypto::sha2::{sha256_pair, sha256_pair2, Sha256};
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// Tree depth: `2^16` leaf buckets. At the paper-scale 600K-row table this
/// averages ~9 records per bucket; the per-update path is 16 compressions.
pub const DEPTH: usize = 16;
const LEAVES: u32 = 1 << DEPTH;

/// Leaf bucket for a key: top `DEPTH` bits of the Fibonacci product, so
/// sequential workload keys spread across distinct buckets.
#[inline]
pub fn bucket_of(key: u64) -> u32 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - DEPTH)) as u32
}

/// Per-level hash of an all-empty subtree (level 0 is a leaf), computed
/// once per process.
fn empty_levels() -> &'static [[u8; 32]; DEPTH + 1] {
    static EMPTY: OnceLock<[[u8; 32]; DEPTH + 1]> = OnceLock::new();
    EMPTY.get_or_init(|| {
        let mut levels = [[0u8; 32]; DEPTH + 1];
        for l in 0..DEPTH {
            levels[l + 1] = sha256_pair(&levels[l], &levels[l]);
        }
        levels
    })
}

/// One record of a leaf bucket: its key, its record hash and what the
/// owner keeps beside them — nothing for a bare commitment, the value for
/// [`crate::MemStore`], whose table this is.
type Entry<V> = (u64, [u8; 32], V);

/// A leaf's records, key-sorted. Buckets average about one record, so a
/// lone one sits inline in the bucket array, a load away from its leaf
/// index; only a shared bucket goes to the heap, grown one entry at a
/// time.
#[derive(Debug, Clone)]
enum Bucket<V> {
    Empty,
    One(Entry<V>),
    Many(Vec<Entry<V>>),
}

impl<V> Deref for Bucket<V> {
    type Target = [Entry<V>];

    fn deref(&self) -> &[Entry<V>] {
        match self {
            Bucket::Empty => &[],
            Bucket::One(entry) => std::slice::from_ref(entry),
            Bucket::Many(entries) => entries,
        }
    }
}

impl<V> DerefMut for Bucket<V> {
    fn deref_mut(&mut self) -> &mut [Entry<V>] {
        match self {
            Bucket::Empty => &mut [],
            Bucket::One(entry) => std::slice::from_mut(entry),
            Bucket::Many(entries) => entries,
        }
    }
}

impl<V> Bucket<V> {
    fn insert(&mut self, at: usize, entry: Entry<V>) {
        *self = match std::mem::replace(self, Bucket::Empty) {
            Bucket::Empty => Bucket::One(entry),
            Bucket::One(first) => {
                let mut entries = Vec::with_capacity(2);
                entries.push(first);
                entries.insert(at, entry);
                Bucket::Many(entries)
            }
            Bucket::Many(mut entries) => {
                entries.reserve_exact(1);
                entries.insert(at, entry);
                Bucket::Many(entries)
            }
        };
    }

    /// Removes the entry at `at`. A shared bucket stays on the heap, at
    /// whatever size it shrinks to.
    fn remove(&mut self, at: usize) -> Entry<V> {
        match std::mem::replace(self, Bucket::Empty) {
            Bucket::One(entry) => entry,
            Bucket::Many(mut entries) => {
                let entry = entries.remove(at);
                *self = Bucket::Many(entries);
                entry
            }
            Bucket::Empty => unreachable!("no entry to remove"),
        }
    }
}

/// Hash of one leaf bucket: the concatenation of `key ‖ record_hash` for
/// every entry in key order. The empty bucket hashes to all-zero, so
/// vacating a bucket restores the empty subtree hash.
fn leaf_hash<'a>(mut entries: impl Iterator<Item = (u64, &'a [u8; 32])>) -> [u8; 32] {
    let Some(first) = entries.next() else {
        return [0u8; 32];
    };
    let mut h = Sha256::new();
    for (key, rh) in std::iter::once(first).chain(entries) {
        h.update(&key.to_le_bytes());
        h.update(rh);
    }
    h.finalize()
}

/// The incremental commitment, and with a value type `V` the record table
/// it commits to: every record sits once, in its leaf's bucket, so finding
/// a key for a read, a write or its hash is one [`bucket_of`] away. Not
/// internally synchronized; its owner locks it.
#[derive(Debug, Clone, Default)]
pub struct MerkleAccumulator<V = ()> {
    /// Node hashes in heap order; index 0 is unused. Empty until the first
    /// insert, `2 * LEAVES` entries afterwards.
    nodes: Vec<[u8; 32]>,
    /// Bucket contents by leaf index, key-sorted; allocated together with
    /// `nodes`.
    buckets: Vec<Bucket<V>>,
    /// One bit per leaf whose bucket changed since its node was hashed;
    /// allocated together with `nodes`. A set, so it stays bounded however
    /// many writes go by before somebody asks for the root.
    dirty: Vec<u64>,
    len: usize,
}

impl MerkleAccumulator {
    pub fn new() -> Self {
        Self::default()
    }
}

impl<V: Default> MerkleAccumulator<V> {
    /// Drops every record, resets the commitment to empty and releases the
    /// tree's memory.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Inserts or replaces the record hash for `key`.
    pub fn update(&mut self, key: u64, record_hash: [u8; 32]) {
        self.upsert(key, record_hash);
    }

    /// Batched update: `Some` inserts or replaces, `None` removes.
    pub fn apply<I>(&mut self, writes: I)
    where
        I: IntoIterator<Item = (u64, Option<[u8; 32]>)>,
    {
        for (key, rh) in writes {
            match rh {
                Some(rh) => self.update(key, rh),
                None => self.remove(key),
            }
        }
    }

    /// Sets `key`'s record hash and hands back its value slot, with whether
    /// the key was present: a fresh key's slot holds `V::default()`. Marks
    /// the leaf dirty if the bucket's contents changed.
    pub(crate) fn upsert(&mut self, key: u64, record_hash: [u8; 32]) -> (&mut V, bool) {
        if self.nodes.is_empty() {
            self.allocate();
        }
        let leaf = bucket_of(key) as usize;
        let bucket = &mut self.buckets[leaf];
        let (at, present, changed) = match bucket.binary_search_by_key(&key, |e| e.0) {
            Ok(at) => (
                at,
                true,
                std::mem::replace(&mut bucket[at].1, record_hash) != record_hash,
            ),
            Err(at) => {
                bucket.insert(at, (key, record_hash, V::default()));
                self.len += 1;
                (at, false, true)
            }
        };
        if changed {
            self.dirty[leaf / 64] |= 1 << (leaf % 64);
        }
        (&mut bucket[at].2, present)
    }
}

impl<V> MerkleAccumulator<V> {
    /// Number of records committed to.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Builds the all-empty tree: every node at heap depth `d` holds the
    /// empty-subtree hash of level `DEPTH - d`.
    fn allocate(&mut self) {
        let empty = empty_levels();
        self.nodes = vec![[0u8; 32]; 2 * LEAVES as usize];
        for d in 0..=DEPTH {
            self.nodes[1 << d..2 << d].fill(empty[DEPTH - d]);
        }
        self.buckets = (0..LEAVES).map(|_| Bucket::Empty).collect();
        self.dirty = vec![0; LEAVES as usize / 64];
    }

    /// The value kept under `key`.
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        let bucket = self.buckets.get(bucket_of(key) as usize)?;
        let at = bucket.binary_search_by_key(&key, |e| e.0).ok()?;
        Some(&bucket[at].2)
    }

    /// Removes `key` (no-op if absent).
    pub fn remove(&mut self, key: u64) {
        self.take(key);
    }

    /// Removes `key`, handing back its value; marks the leaf dirty.
    pub(crate) fn take(&mut self, key: u64) -> Option<V> {
        let leaf = bucket_of(key) as usize;
        let bucket = self.buckets.get_mut(leaf)?;
        let at = bucket.binary_search_by_key(&key, |e| e.0).ok()?;
        self.len -= 1;
        self.dirty[leaf / 64] |= 1 << (leaf % 64);
        Some(bucket.remove(at).2)
    }

    /// Every record with its value, in bucket (not key) order.
    pub(crate) fn records(&self) -> impl Iterator<Item = (u64, &V)> {
        self.buckets
            .iter()
            .flat_map(|b| b.iter())
            .map(|e| (e.0, &e.2))
    }

    /// Brings the node array up to date with the buckets: every dirty leaf
    /// is re-hashed once and parents are propagated level by level,
    /// deduplicated, so everything written since the last flush shares the
    /// upper tree instead of walking `DEPTH` levels per write. Parents go
    /// through the kernel two at a time ([`sha256_pair2`]). Returns the
    /// number of leaf and pair hashes that took.
    fn flush(&mut self) -> usize {
        let mut level: Vec<u32> = Vec::new();
        for (word, bits) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let leaf = word as u32 * 64 + bits.trailing_zeros();
                bits &= bits - 1;
                let bucket = &self.buckets[leaf as usize];
                self.nodes[(LEAVES + leaf) as usize] =
                    leaf_hash(bucket.iter().map(|e| (e.0, &e.1)));
                level.push(LEAVES + leaf);
            }
        }
        // `level` holds heap positions, ascending within one level; halving
        // them keeps the order, so siblings dedup as neighbours.
        let mut hashes = level.len();
        for _ in 0..DEPTH {
            for at in &mut level {
                *at >>= 1;
            }
            level.dedup();
            // Two parents per kernel pass; an odd one out is hashed twice.
            for pair in level.chunks(2) {
                let [l, r] = [pair[0], pair[pair.len() - 1]].map(|p| 2 * p as usize);
                let nodes = &self.nodes;
                let (x, y) = sha256_pair2(&nodes[l], &nodes[l + 1], &nodes[r], &nodes[r + 1]);
                self.nodes[l / 2] = x;
                self.nodes[r / 2] = y;
            }
            hashes += level.len();
        }
        hashes
    }

    /// The 32-byte state commitment, after a flush. An empty accumulator
    /// commits to [`Digest::ZERO`] (the pre-Merkle convention); any
    /// occupancy yields the tree root.
    pub fn root(&mut self) -> Digest {
        self.flush();
        if self.len == 0 {
            return Digest::ZERO;
        }
        Digest(self.nodes[1])
    }

    /// Membership proof for `key`: its full leaf bucket plus the `DEPTH`
    /// sibling hashes on the root path, after a flush — so it verifies
    /// against the [`root`](Self::root) of the same contents. `None` if
    /// the key is absent.
    pub fn prove(&mut self, key: u64) -> Option<MerkleProof> {
        self.flush();
        self.get(key)?;
        let leaf = bucket_of(key);
        let mut at = (leaf + LEAVES) as usize;
        let mut siblings = Vec::with_capacity(DEPTH);
        while at > 1 {
            siblings.push(self.nodes[at ^ 1]);
            at >>= 1;
        }
        Some(MerkleProof {
            leaf,
            entries: self.buckets[leaf as usize]
                .iter()
                .map(|e| (e.0, e.1))
                .collect(),
            siblings,
        })
    }
}

/// A partial state proof: one leaf bucket and its root path.
#[derive(Debug, Clone)]
pub struct MerkleProof {
    /// Leaf index the bucket hashes into.
    pub leaf: u32,
    /// The complete `(key, record_hash)` contents of that bucket.
    pub entries: Vec<(u64, [u8; 32])>,
    /// Sibling hash at each level, leaf-side first.
    pub siblings: Vec<[u8; 32]>,
}

/// Verifies that `proof` places `(key, record_hash)` under `root`.
///
/// Checks, in order: the bucket really is the one `key` hashes to, the
/// claimed pair appears in it, and folding the bucket hash with the sibling
/// path reproduces the commitment.
pub fn verify_proof(root: Digest, key: u64, record_hash: [u8; 32], proof: &MerkleProof) -> bool {
    if proof.leaf != bucket_of(key) || proof.leaf >= LEAVES || proof.siblings.len() != DEPTH {
        return false;
    }
    if !proof
        .entries
        .iter()
        .any(|(k, h)| *k == key && *h == record_hash)
    {
        return false;
    }
    let mut bucket = proof.entries.clone();
    bucket.sort_unstable_by_key(|e| e.0);
    if bucket.windows(2).any(|w| w[0].0 == w[1].0)
        || bucket.iter().any(|(k, _)| bucket_of(*k) != proof.leaf)
    {
        return false;
    }
    let mut hash = leaf_hash(bucket.iter().map(|(k, h)| (*k, h)));
    let mut index = proof.leaf;
    for sibling in &proof.siblings {
        hash = if index & 1 == 0 {
            sha256_pair(&hash, sibling)
        } else {
            sha256_pair(sibling, &hash)
        };
        index >>= 1;
    }
    Digest(hash) == root
}

/// One-shot commitment over a record set (the snapshot-verification path):
/// hashes every record and bulk-builds the tree.
pub fn commitment_of<'a, I>(records: I) -> Digest
where
    I: IntoIterator<Item = (u64, &'a [u8])>,
{
    let mut acc = MerkleAccumulator::new();
    acc.apply(
        records
            .into_iter()
            .map(|(k, v)| (k, Some(crate::store::record_hash(k, v)))),
    );
    acc.root()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::record_hash;

    fn rh(key: u64, tag: u8) -> [u8; 32] {
        record_hash(key, &[tag; 8])
    }

    #[test]
    fn writes_hash_nothing_until_the_root_is_asked_for() {
        const ROWS: u64 = 65_536;
        let mut acc = MerkleAccumulator::new();
        acc.apply((0..ROWS).map(|k| (k, Some(rh(k, 0)))));
        acc.root();
        let flushed = acc.nodes.clone();
        // One checkpoint interval of the benchmark's uniform workload:
        // 200 batches of 50 writes.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for batch in 0..200u64 {
            acc.apply((0..50).map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % ROWS, Some(rh(rng % ROWS, batch as u8 + 1)))
            }));
        }
        assert!(acc.nodes == flushed, "apply edits buckets, never a node");
        // Hashing per batch costs ~114 650 for the same writes.
        let hashes = acc.flush();
        assert!((10_000..=45_000).contains(&hashes), "{hashes} hashes");
        println!("tree hashes for 200 x 50 uniform writes into 64k rows: {hashes}");
        assert!(acc.nodes != flushed);
        assert_eq!(acc.flush(), 0, "nothing dirty, nothing hashed");
        assert_eq!(MerkleAccumulator::new().flush(), 0);
    }

    #[test]
    fn buckets_hold_no_spare_capacity() {
        let mut acc = MerkleAccumulator::new();
        acc.apply((0..65_536u64).map(|k| (k, Some(rh(k, 0)))));
        let spare = |b: &Bucket<()>| match b {
            Bucket::Many(entries) => entries.capacity() - entries.len(),
            _ => 0,
        };
        let spare: usize = acc.buckets.iter().map(spare).sum();
        assert_eq!(spare, 0, "spare bucket entries after 65 536 inserts");
    }

    #[test]
    fn empty_commits_to_zero() {
        assert_eq!(MerkleAccumulator::new().root(), Digest::ZERO);
    }

    #[test]
    fn root_is_content_only() {
        let mut a = MerkleAccumulator::new();
        a.update(1, rh(1, 1));
        a.update(2, rh(2, 2));
        let mut b = MerkleAccumulator::new();
        b.update(2, rh(2, 2));
        b.update(7, rh(7, 7));
        b.update(1, rh(1, 1));
        b.remove(7);
        assert_eq!(a.root(), b.root());
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn remove_restores_prior_root() {
        let mut a = MerkleAccumulator::new();
        a.update(1, rh(1, 1));
        let before = a.root();
        a.update(9, rh(9, 9));
        assert_ne!(a.root(), before);
        a.remove(9);
        assert_eq!(a.root(), before);
        a.remove(1);
        assert_eq!(a.root(), Digest::ZERO);
    }

    #[test]
    fn distinct_contents_distinct_roots() {
        // Value swap between two keys, same multiset of values: roots differ.
        let (mut a, mut b) = (MerkleAccumulator::new(), MerkleAccumulator::new());
        a.update(1, rh(1, 1));
        a.update(2, rh(2, 2));
        b.update(1, rh(2, 2));
        b.update(2, rh(1, 1));
        assert_ne!(a.root(), b.root());
        // A strict subset commits differently too.
        let mut c = MerkleAccumulator::new();
        c.update(1, rh(1, 1));
        assert_ne!(a.root(), c.root());
        // Colliding buckets (keys LEAVES apart may share one) still separate.
        let (mut d, mut e) = (MerkleAccumulator::new(), MerkleAccumulator::new());
        d.update(0, rh(0, 1));
        e.update(0, rh(0, 2));
        assert_ne!(d.root(), e.root());
    }

    #[test]
    fn batched_apply_equals_incremental() {
        let writes: Vec<(u64, Option<[u8; 32]>)> = (0..300u64)
            .map(|k| (k * 7919, Some(rh(k * 7919, k as u8))))
            .chain([(7919u64 * 3, None), (7919u64 * 4, None)])
            .collect();
        let mut batched = MerkleAccumulator::new();
        batched.apply(writes.iter().copied());
        let mut stepped = MerkleAccumulator::new();
        let step = |acc: &mut MerkleAccumulator, k: u64, h: Option<[u8; 32]>| match h {
            Some(h) => acc.update(k, h),
            None => acc.remove(k),
        };
        for (k, h) in &writes {
            step(&mut stepped, *k, *h);
        }
        assert_eq!(batched.root(), stepped.root());
        assert_eq!(batched.len(), stepped.len());

        // A second batch that vacates buckets: removes of sole occupants
        // (each leaf goes back to the all-zero hash and its ancestors to
        // the empty-subtree hashes), a put-then-remove of a fresh key
        // inside the batch, and a remove of a key that was never there.
        let sole: Vec<u64> = (0..300u64)
            .map(|k| k * 7919)
            .filter(|k| batched.buckets[bucket_of(*k) as usize].len() == 1)
            .take(40)
            .collect();
        assert_eq!(sole.len(), 40, "fixture has single-record buckets");
        let fresh = 1u64 << 50;
        let vacate: Vec<(u64, Option<[u8; 32]>)> = sole
            .iter()
            .map(|k| (*k, None))
            .chain([
                (fresh, Some(rh(fresh, 1))),
                (fresh, None),
                (fresh + 1, None),
            ])
            .collect();
        batched.apply(vacate.iter().copied());
        for (k, h) in &vacate {
            step(&mut stepped, *k, *h);
        }
        assert_eq!(batched.root(), stepped.root());
        assert_eq!(batched.len(), stepped.len());
        let empty = empty_levels();
        for k in &sole {
            let leaf = (bucket_of(*k) + LEAVES) as usize;
            assert_eq!(batched.nodes[leaf], empty[0]);
            assert!(batched.buckets[leaf - LEAVES as usize].is_empty());
        }
        // And it is the root of the surviving set built from nothing.
        let mut rebuilt = MerkleAccumulator::new();
        rebuilt.apply(
            (0..300u64)
                .map(|k| k * 7919)
                .filter(|k| !sole.contains(k) && *k != 7919 * 3 && *k != 7919 * 4)
                .map(|k| (k, Some(rh(k, (k / 7919) as u8)))),
        );
        assert_eq!(batched.root(), rebuilt.root());
    }

    #[test]
    fn flat_layout_is_a_heap_of_pair_hashes() {
        let mut acc = MerkleAccumulator::new();
        assert!(acc.nodes.is_empty(), "no memory before the first insert");
        acc.remove(5);
        assert!(
            acc.nodes.is_empty(),
            "a remove from nothing allocates nothing"
        );
        acc.apply((0..2_000u64).map(|k| (k, Some(rh(k, k as u8)))));
        assert_eq!(acc.nodes.len(), 2 * LEAVES as usize);
        assert_eq!(acc.buckets.len(), LEAVES as usize);
        let root = acc.root();
        assert!(acc.dirty.iter().all(|bits| *bits == 0), "flushed");
        // Every interior node is the pair hash of its two children, and
        // every leaf the hash of its bucket — the whole array, not just
        // the paths the flush walked.
        for at in 1..LEAVES as usize {
            assert_eq!(
                acc.nodes[at],
                sha256_pair(&acc.nodes[2 * at], &acc.nodes[2 * at + 1]),
                "node {at}"
            );
        }
        for leaf in 0..LEAVES as usize {
            assert_eq!(
                acc.nodes[LEAVES as usize + leaf],
                leaf_hash(acc.buckets[leaf].iter().map(|e| (e.0, &e.1)))
            );
            assert!(acc.buckets[leaf].windows(2).all(|w| w[0].0 < w[1].0));
        }
        assert_eq!(root, Digest(acc.nodes[1]));
        acc.clear();
        assert!(acc.nodes.is_empty() && acc.buckets.is_empty() && acc.dirty.is_empty());
        assert_eq!(acc.root(), Digest::ZERO);
    }

    #[test]
    fn proofs_round_trip_for_every_key_on_the_flat_layout() {
        // Scattered keys, so some buckets hold several records and both
        // left- and right-hand nodes occur at every level.
        // (An arithmetic progression would not do: the Fibonacci bucket
        // hash spreads one perfectly.)
        let key_of = |k: u64| {
            let z = (k + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
            z ^ (z >> 29)
        };
        let mut acc = MerkleAccumulator::new();
        acc.apply((0..3_000u64).map(|k| (key_of(k), Some(rh(key_of(k), k as u8)))));
        for k in (0..3_000u64).step_by(7) {
            acc.remove(key_of(k));
        }
        let root = acc.root();
        let mut shared_bucket = false;
        for k in 0..3_000u64 {
            let key = key_of(k);
            match acc.prove(key) {
                Some(proof) => {
                    assert!(k % 7 != 0);
                    assert_eq!(proof.siblings.len(), DEPTH);
                    shared_bucket |= proof.entries.len() > 1;
                    assert!(verify_proof(root, key, rh(key, k as u8), &proof));
                    assert!(!verify_proof(root, key, rh(key, !(k as u8)), &proof));
                }
                None => assert!(k % 7 == 0, "only removed keys lack a proof"),
            }
        }
        assert!(shared_bucket, "fixture exercises multi-record buckets");
    }

    #[test]
    fn proofs_verify_and_reject_tampering() {
        let mut acc = MerkleAccumulator::new();
        for k in 0..64u64 {
            acc.update(k, rh(k, k as u8));
        }
        let root = acc.root();
        let proof = acc.prove(17).expect("present key proves");
        assert!(verify_proof(root, 17, rh(17, 17), &proof));
        // Wrong value hash.
        assert!(!verify_proof(root, 17, rh(17, 18), &proof));
        // Wrong key for this bucket's proof.
        assert!(!verify_proof(root, 99_999, rh(17, 17), &proof));
        // Tampered sibling.
        let mut bad = proof.clone();
        bad.siblings[3][0] ^= 1;
        assert!(!verify_proof(root, 17, rh(17, 17), &bad));
        // Padded bucket (smuggled entry) no longer matches the root.
        let mut padded = proof.clone();
        padded.entries.push((17 + (LEAVES as u64) * 17, [9u8; 32]));
        assert!(!verify_proof(root, 17, rh(17, 17), &padded));
        // Absent key has no proof.
        assert!(acc.prove(1 << 40).is_none());
    }

    #[test]
    fn commitment_of_matches_accumulated_store_order() {
        let records: Vec<(u64, Vec<u8>)> =
            (0..40u64).map(|k| (k * 31, vec![k as u8; 16])).collect();
        let mut acc = MerkleAccumulator::new();
        for (k, v) in records.iter().rev() {
            acc.update(*k, record_hash(*k, v));
        }
        let oneshot = commitment_of(records.iter().map(|(k, v)| (*k, v.as_slice())));
        assert_eq!(acc.root(), oneshot);
    }
}
