//! Property tests pinning the incremental Merkle accumulator to its
//! from-scratch definition.
//!
//! The store never rebuilds the tree — every `put`/`remove`/`apply`
//! marks a leaf dirty and `root`/`prove` re-hash what is dirty, whenever
//! they happen to be called. These properties assert that after an
//! arbitrary interleaving of writes and flushes the root is bit-identical
//! to hashing the surviving record set from scratch ([`commitment_of`],
//! the same function snapshot verification uses), that batching is
//! order-insensitive within a batch (last write per key wins), and that
//! every surviving key still proves membership against the final root.
//!
//! The last property drives `MemStore` itself — one table holding each
//! record's value beside its key and hash — against a `BTreeMap` model.

use proptest::prelude::*;
use rdb_storage::merkle::{bucket_of, commitment_of, verify_proof, MerkleAccumulator};
use rdb_storage::{record_hash, MemStore, StateStore, WriteRecord};
use std::collections::{BTreeMap, BTreeSet};

/// Keys that share leaf buckets three at a time, so every store edit
/// lands beside other records of its bucket. Searched for once.
fn shared_bucket_keys() -> &'static [u64] {
    static KEYS: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    KEYS.get_or_init(|| {
        let mut by_bucket: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let mut keys = Vec::new();
        for key in 0.. {
            let bucket = by_bucket.entry(bucket_of(key)).or_default();
            bucket.push(key);
            if bucket.len() == 3 {
                keys.extend_from_slice(bucket);
                if keys.len() == 24 {
                    return keys;
                }
            }
        }
        unreachable!("the key space has shared buckets")
    })
}

/// A value of 0..40 bytes picked by `raw`: lengths on both sides of what a
/// record keeps inline, so an overwrite can grow or shrink it across that.
fn value_of(raw: u64) -> Vec<u8> {
    vec![(raw >> 16) as u8; (raw >> 24) as usize % 40]
}

/// Checks the store against the model: contents, `get`, `len` and the
/// root, which must be the one-shot commitment of what it exports.
fn check(
    store: &MemStore,
    model: &BTreeMap<u64, Vec<u8>>,
    keys: &[u64],
) -> Result<(), TestCaseError> {
    let exported = store.export_records();
    prop_assert_eq!(
        exported.iter().cloned().collect::<BTreeMap<_, _>>(),
        model.clone()
    );
    let oneshot = commitment_of(exported.iter().map(|(k, v)| (*k, v.as_slice())));
    prop_assert_eq!(store.state_digest(), oneshot);
    prop_assert_eq!(store.len(), model.len());
    for key in keys {
        prop_assert_eq!(store.get(*key), model.get(key).cloned());
    }
    Ok(())
}

/// Decode one raw u64 into an op: a small key space (64 keys across a
/// 2^16-bucket tree forces same-bucket collisions) and a ~25% remove mix.
fn op_of(raw: u64) -> (u64, Option<Vec<u8>>) {
    let key = raw % 64;
    if raw % 4 == 3 {
        (key, None)
    } else {
        (key, Some(raw.to_le_bytes().to_vec()))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental updates/removes ≡ from-scratch rebuild of the final
    /// record set, for any op sequence.
    #[test]
    fn incremental_root_equals_from_scratch_rebuild(
        raw_ops in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut acc = MerkleAccumulator::new();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for raw in raw_ops {
            let (key, value) = op_of(raw);
            match value {
                Some(v) => {
                    acc.update(key, record_hash(key, &v));
                    model.insert(key, v);
                }
                None => {
                    acc.remove(key);
                    model.remove(&key);
                }
            }
        }
        let rebuilt = commitment_of(model.iter().map(|(k, v)| (*k, v.as_slice())));
        prop_assert_eq!(acc.root(), rebuilt);
    }

    /// Batched `apply` ≡ one-at-a-time application of the same writes, for
    /// any chunking of the op stream.
    #[test]
    fn batched_apply_equals_singleton_application(
        raw_ops in proptest::collection::vec(any::<u64>(), 1..200),
        chunk in 1usize..17,
    ) {
        let mut batched = MerkleAccumulator::new();
        let mut singly = MerkleAccumulator::new();
        for window in raw_ops.chunks(chunk) {
            batched.apply(window.iter().map(|&raw| {
                let (key, value) = op_of(raw);
                (key, value.map(|v| record_hash(key, &v)))
            }));
            for &raw in window {
                let (key, value) = op_of(raw);
                match value {
                    Some(v) => singly.update(key, record_hash(key, &v)),
                    None => singly.remove(key),
                }
            }
            prop_assert_eq!(batched.root(), singly.root());
        }
    }

    /// After any op sequence, every surviving key proves membership
    /// against the final root, and a tampered record hash is rejected.
    #[test]
    fn surviving_keys_prove_membership(
        raw_ops in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        let mut acc = MerkleAccumulator::new();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for raw in raw_ops {
            let (key, value) = op_of(raw);
            match value {
                Some(v) => {
                    acc.update(key, record_hash(key, &v));
                    model.insert(key, v);
                }
                None => {
                    acc.remove(key);
                    model.remove(&key);
                }
            }
        }
        let root = acc.root();
        for (key, value) in &model {
            let proof = acc.prove(*key).expect("present key must prove");
            let hash = record_hash(*key, value);
            prop_assert!(verify_proof(root, *key, hash, &proof));
            let mut tampered = hash;
            tampered[0] ^= 1;
            prop_assert!(!verify_proof(root, *key, tampered, &proof));
        }
        // Absent keys yield no proof at all.
        prop_assert!(acc.prove(u64::MAX).is_none());
    }

    /// Whenever anybody asks — after one write or after hundreds, batched
    /// or not, across a `clear` — the root is that of the surviving
    /// records, and a proof issued with writes still unflushed verifies
    /// against the root returned next.
    #[test]
    fn any_interleaving_of_writes_and_flushes_commits_to_the_survivors(
        raw_ops in proptest::collection::vec(any::<u64>(), 1..300),
    ) {
        let mut acc = MerkleAccumulator::new();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut ops = raw_ops.iter().copied();
        while let Some(raw) = ops.next() {
            // The bits `op_of` does not read pick what happens.
            match (raw >> 8) % 16 {
                0 => {
                    let rebuilt = commitment_of(model.iter().map(|(k, v)| (*k, v.as_slice())));
                    prop_assert_eq!(acc.root(), rebuilt);
                    prop_assert_eq!(acc.len(), model.len());
                }
                1 => {
                    let key = raw % 64;
                    let proof = acc.prove(key);
                    prop_assert_eq!(proof.is_some(), model.contains_key(&key));
                    if let (Some(proof), Some(value)) = (proof, model.get(&key)) {
                        let hash = record_hash(key, value);
                        prop_assert!(verify_proof(acc.root(), key, hash, &proof));
                    }
                }
                2 => {
                    acc.clear();
                    model.clear();
                }
                3..=5 => {
                    // A batch of up to four writes, repeats included.
                    let batch: Vec<u64> = std::iter::once(raw).chain(ops.by_ref().take(3)).collect();
                    acc.apply(batch.iter().map(|&raw| {
                        let (key, value) = op_of(raw);
                        (key, value.map(|v| record_hash(key, &v)))
                    }));
                    for raw in batch {
                        match op_of(raw) {
                            (key, Some(v)) => model.insert(key, v),
                            (key, None) => model.remove(&key),
                        };
                    }
                }
                _ => match op_of(raw) {
                    (key, Some(v)) => {
                        acc.update(key, record_hash(key, &v));
                        model.insert(key, v);
                    }
                    (key, None) => {
                        acc.remove(key);
                        model.remove(&key);
                    }
                },
            }
        }
        let rebuilt = commitment_of(model.iter().map(|(k, v)| (*k, v.as_slice())));
        prop_assert_eq!(acc.root(), rebuilt);
    }

    /// A bucket filled and vacated again leaves no trace, whether a flush
    /// saw it occupied or not: the leaf and its ancestors go back to the
    /// empty-subtree hashes the untouched tree has.
    #[test]
    fn vacating_a_bucket_restores_the_empty_subtree(
        kept in proptest::collection::vec(0u64..1_000, 0..20),
        passing in proptest::collection::vec(1_000u64..2_000, 1..20),
        flush_while_occupied in any::<bool>(),
    ) {
        let passing: BTreeSet<u64> = passing.into_iter().collect();
        let hash_of = |key: u64| (key, Some(record_hash(key, &key.to_le_bytes())));
        let mut untouched = MerkleAccumulator::new();
        untouched.apply(kept.iter().copied().map(hash_of));
        let mut acc = untouched.clone();
        let before = acc.root();
        acc.apply(passing.iter().copied().map(hash_of));
        if flush_while_occupied {
            prop_assert_ne!(acc.root(), before);
        }
        acc.apply(passing.iter().map(|key| (*key, None)));
        prop_assert_eq!(acc.root(), before);
        prop_assert_eq!(acc.root(), untouched.root());
        // And the vacated leaves take new records like fresh ones.
        let late = [hash_of(5_000), hash_of(*passing.first().expect("non-empty"))];
        acc.apply(late);
        untouched.apply(late);
        prop_assert_eq!(acc.root(), untouched.root());
    }
}

proptest! {
    // Every step re-derives the root from scratch: fewer, shorter cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `MemStore` against a `BTreeMap`: after every `apply`, `put`,
    /// `remove` and `install_records` over keys sharing buckets, with value
    /// lengths changing at existing keys, the contents, `get` and the root
    /// agree with the model — and an `apply`'s displaced values, replayed
    /// newest-first, restore the contents and the root from before it (the
    /// Zyzzyva undo contract) before the batch is applied again.
    #[test]
    fn store_agrees_with_a_model_and_its_pre_images_undo_every_batch(
        raw_ops in proptest::collection::vec(any::<u64>(), 1..80),
    ) {
        let keys = shared_bucket_keys();
        let store = MemStore::new();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut ops = raw_ops.iter().copied();
        while let Some(raw) = ops.next() {
            let key = keys[raw as usize % keys.len()];
            match (raw >> 8) % 8 {
                0..=2 => {
                    // A batch of up to five writes, repeated keys included.
                    let batch: Vec<WriteRecord> = std::iter::once(raw)
                        .chain(ops.by_ref().take(4))
                        .map(|raw| WriteRecord::new(keys[raw as usize % keys.len()], value_of(raw)))
                        .collect();
                    let (before, root) = (model.clone(), store.state_digest());
                    let mut pre: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
                    store.apply_logged(&batch, &mut |key, old| pre.push((key, old.map(<[u8]>::to_vec))));
                    prop_assert_eq!(pre.len(), batch.len());
                    for w in &batch {
                        model.insert(w.key, w.value.clone());
                    }
                    check(&store, &model, keys)?;
                    for (key, old) in pre.iter().rev() {
                        match old {
                            Some(value) => store.put(*key, value),
                            None => prop_assert!(store.remove(*key)),
                        }
                    }
                    check(&store, &before, keys)?;
                    prop_assert_eq!(store.state_digest(), root);
                    store.apply(&batch);
                }
                3 | 4 => {
                    let value = value_of(raw);
                    store.put(key, &value);
                    model.insert(key, value);
                }
                5 | 6 => {
                    prop_assert_eq!(store.remove(key), model.remove(&key).is_some());
                }
                _ => {
                    // A snapshot of some other state: every third key.
                    let records: Vec<(u64, Vec<u8>)> = keys
                        .iter()
                        .skip(raw as usize % 3)
                        .step_by(3)
                        .map(|k| (*k, value_of(raw ^ k)))
                        .collect();
                    store.install_records(&records);
                    model = records.into_iter().collect();
                }
            }
            check(&store, &model, keys)?;
        }
    }
}
