//! Golden state commitments, recorded on the commit *before* the flat
//! Merkle layout and the SHA-NI kernel landed (7b19bbe).
//!
//! Every digest in the system hangs off these roots: checkpoints compare
//! them across replicas, snapshots are vouched by them, and a WAL written
//! by an older build must recover to the same value. A faster tree or hash
//! kernel is only acceptable if it is bit-identical, so the constants below
//! were printed by the per-level-`HashMap` tree over the scalar SHA-256 and
//! may never be edited to make a change pass.

use rdb_common::Digest;
use rdb_storage::merkle::commitment_of;
use rdb_storage::{MemStore, StateStore};

/// `MemStore::with_table(65_536, 8)` — the table every benchmark workload
/// starts from.
const TABLE_64K: &str = "ba74f1e8778ed1de6f7191541b9f653e4c68fbf13beb1d9b75c31bd63cc09422";
/// The same store after [`mixed_ops`].
const TABLE_64K_MIXED: &str = "381f2302f218bb3ff0696f7f4b45aa3caa2bfe47358b00666c5a4f4a7cb17532";
/// Records left by [`mixed_ops`] (fresh keys put, table keys removed).
const MIXED_LEN: usize = 65_125;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded 2 000-operation mix over keys `0..70_000`: overwrites of table
/// rows, puts of keys the table never held, and removes (a quarter of the
/// operations; some vacate a bucket, some hit absent keys). Values vary in
/// length from 0 to 39 bytes.
fn mixed_ops(store: &MemStore) {
    let mut rng = 14u64;
    for _ in 0..2_000 {
        let r = splitmix64(&mut rng);
        let key = (r >> 16) % 70_000;
        if r.is_multiple_of(4) {
            store.remove(key);
        } else {
            let value = vec![(r >> 8) as u8; (r % 40) as usize];
            store.put(key, &value);
        }
    }
}

#[test]
fn table_root_is_unchanged() {
    let store = MemStore::with_table(65_536, 8);
    assert_eq!(store.state_digest().to_string(), TABLE_64K);
}

#[test]
fn mixed_history_root_is_unchanged_and_unwinds_to_zero() {
    let store = MemStore::with_table(65_536, 8);
    mixed_ops(&store);
    assert_eq!(store.state_digest().to_string(), TABLE_64K_MIXED);

    // The one-shot snapshot-verification path lands on the same root as
    // the incremental history.
    let records = store.export_records();
    assert_eq!(records.len(), MIXED_LEN);
    let oneshot = commitment_of(records.iter().map(|(k, v)| (*k, v.as_slice())));
    assert_eq!(oneshot.to_string(), TABLE_64K_MIXED);

    // Emptying the store again — every bucket vacated, every interior node
    // back to its empty-subtree hash — commits to the genesis convention.
    for (key, _) in &records {
        assert!(store.remove(*key));
    }
    assert!(store.is_empty());
    assert_eq!(store.state_digest(), Digest::ZERO);
}
