//! Wire properties of the flat `ReplyResults`: it must encode exactly as
//! the `u32`-counted list of `(u64, Vec<u8>)` pairs it replaced, so replies
//! signed by either shape verify under the other, and it must decode
//! hostile input without trusting its counts.

use proptest::prelude::*;
use rdb_common::codec::{Wire, WireReader, WireWriter};
use rdb_common::messages::ReplyResults;

/// The replaced encoding, written out field by field: the count, then
/// each counter and its length-prefixed result.
fn legacy_encoding(results: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32(results.len() as u32);
    for (counter, result) in results {
        w.put_u64(*counter);
        w.put_u32(result.len() as u32);
        w.put_bytes(result);
    }
    w.into_bytes()
}

/// `counters` with results of lengths from 0 up to `max_len`, each byte
/// drawn from the counter so results differ.
fn legacy_results(counters: &[u64], max_len: usize) -> Vec<(u64, Vec<u8>)> {
    counters
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, vec![c as u8; (max_len * i) / counters.len().max(1)]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encodes_as_the_legacy_list_round_trips_and_counts_exactly(
        counters in proptest::collection::vec(0u64..u64::MAX, 0..80),
        max_len in 0usize..300,
    ) {
        let legacy = legacy_results(&counters, max_len);
        let flat: ReplyResults = legacy.iter().map(|(c, r)| (*c, r.as_slice())).collect();
        let bytes = flat.encode();
        prop_assert_eq!(&bytes, &legacy_encoding(&legacy));
        prop_assert_eq!(flat.encoded_len(), bytes.len());
        let back = ReplyResults::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &flat);
        let pairs: Vec<(u64, Vec<u8>)> = back.iter().map(|(c, r)| (c, r.to_vec())).collect();
        prop_assert_eq!(pairs, legacy);
    }

    #[test]
    fn a_count_past_the_remaining_bytes_is_rejected_before_allocating(
        counters in proptest::collection::vec(0u64..u64::MAX, 0..20),
        max_len in 0usize..40,
        excess in 1u32..1_000_000,
    ) {
        let mut bytes = legacy_encoding(&legacy_results(&counters, max_len));
        let past = (bytes.len() - 4) as u32 + excess;
        bytes[..4].copy_from_slice(&past.to_le_bytes());
        match ReplyResults::decode(&bytes) {
            Err(e) => prop_assert!(e.to_string().contains("list count"), "{}", e),
            Ok(r) => prop_assert!(false, "count {} decoded to {:?}", past, r),
        }
    }

    #[test]
    fn a_truncated_entry_is_rejected(
        counters in proptest::collection::vec(0u64..u64::MAX, 1..20),
        max_len in 0usize..40,
        cut_seed in 0usize..10_000,
    ) {
        let bytes = legacy_encoding(&legacy_results(&counters, max_len));
        // Every proper prefix past the count stops inside some entry.
        let cut = 4 + cut_seed % (bytes.len() - 4);
        prop_assert!(ReplyResults::decode(&bytes[..cut]).is_err());
        // So does a reader that cannot finish the last entry, even when
        // other data follows in the reader's view of the message.
        let mut r = WireReader::new(&bytes[..bytes.len() - 1]);
        prop_assert!(ReplyResults::read(&mut r).is_err());
    }
}
