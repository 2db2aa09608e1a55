//! Property tests for multi-primary ordering's merge invariant: k
//! parallel consensus instances commit into one interleaved global
//! sequence space (instance `j` owns seqs `j+1, j+1+k, …`), and the
//! execute stage ([`ExecStage`]) runs the merged stream strictly in global
//! order, whatever has become ready after each arrival. For
//! random batches, k ∈ {1, 2, 4} and *adversarial* commit-arrival
//! interleavings — any permutation of the commit stream, including
//! out-of-order within one instance — the per-sequence state digests,
//! client replies and final store contents must be bit-identical to the
//! k = 1 serial schedule. No-op gap-fill batches (empty, as proposed by
//! an instance with nothing to say) are injected too: they must not
//! perturb state or replies.

use proptest::prelude::*;
use rdb_common::block::BlockCertificate;
use rdb_common::{
    Batch, ClientId, Digest, Operation, ProtocolKind, ReplicaId, SeqNum, Transaction, ViewNum,
};
use rdb_pipeline::{Effect, ExecStage, ExecuteItem, Executor, OutItem};
use rdb_storage::blockchain::ChainMode;
use rdb_storage::{Blockchain, MemStore, StateStore};
use std::sync::Arc;

/// Tiny key space keeps the workloads conflict-dense.
const KEY_SPACE: u64 = 24;

fn decode_op(raw: u64) -> Operation {
    let key = raw % KEY_SPACE;
    if (raw >> 5) & 0b11 == 0 {
        Operation::Read { key }
    } else {
        Operation::Write {
            key,
            value: vec![(raw >> 8) as u8, (raw >> 16) as u8, (raw >> 24) as u8],
        }
    }
}

/// Builds the global schedule: one `ExecuteItem` per sequence `1..=m`,
/// where raw words are packed into transactions (empty batches appear
/// when a raw word selects gap-fill — the no-op an instance proposes to
/// unblock the merged schedule).
fn build_schedule(raw_ops: &[u64]) -> Vec<ExecuteItem> {
    let mut items = Vec::new();
    let mut counter = 0u64;
    let mut i = 0usize;
    while i < raw_ops.len() {
        let seq = items.len() as u64 + 1;
        let selector = raw_ops[i];
        let batch: Batch = if selector.is_multiple_of(7) {
            // Gap-fill no-op: an empty batch in the committed schedule.
            Batch::new(Vec::new())
        } else {
            let take = 1 + (selector % 4) as usize;
            let txns: Vec<Transaction> = raw_ops[i..raw_ops.len().min(i + take)]
                .iter()
                .map(|&raw| {
                    let t = Transaction::new(ClientId(raw % 5), counter, vec![decode_op(raw)]);
                    counter += 1;
                    t
                })
                .collect();
            i += take.saturating_sub(1);
            txns.into_iter().collect()
        };
        i += 1;
        items.push(ExecuteItem {
            seq: SeqNum(seq),
            view: ViewNum(0),
            digest: Digest([seq as u8; 32]),
            batch: batch.into(),
            certificate: BlockCertificate::default(),
            history: None,
        });
    }
    items
}

fn fresh_executor() -> Arc<Executor> {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::with_table(KEY_SPACE, 8));
    let chain = Arc::new(parking_lot::Mutex::new(Blockchain::new(
        Digest::ZERO,
        0,
        ChainMode::Certificate,
    )));
    Arc::new(Executor::new(
        ReplicaId(1),
        ProtocolKind::Pbft,
        store,
        chain,
    ))
}

fn store_contents(store: &Arc<dyn StateStore>) -> Vec<Option<Vec<u8>>> {
    (0..KEY_SPACE).map(|k| store.get(k)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merged_k_streams_match_serial_schedule(
        raw_ops in proptest::collection::vec(any::<u64>(), 4..100),
        k_sel in 0usize..3,
        arrival_seed in any::<u64>(),
    ) {
        let k = [1usize, 2, 4][k_sel];
        let items = build_schedule(&raw_ops);
        prop_assume!(!items.is_empty());

        // Reference: the k = 1 serial schedule, executed in order.
        let serial = fresh_executor();
        let serial_out: Vec<(Digest, Vec<OutItem>)> =
            items.iter().map(|it| serial.execute(it)).collect();

        // k streams: instance j = (seq - 1) % k commits its owned
        // subsequence j+1, j+1+k, … in order, but the instances race —
        // the merged arrival at the execute stage is an adversarial
        // interleaving of the k in-order commit streams, chosen by a
        // seeded xorshift at every step. One instance may run
        // arbitrarily far ahead of another.
        let mut streams: Vec<Vec<&ExecuteItem>> = vec![Vec::new(); k];
        for it in &items {
            streams[(it.seq.0 as usize - 1) % k].push(it);
        }
        let mut cursors = vec![0usize; k];
        let mut arrival: Vec<&ExecuteItem> = Vec::with_capacity(items.len());
        let mut state = arrival_seed | 1;
        while arrival.len() < items.len() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let live: Vec<usize> = (0..k).filter(|&j| cursors[j] < streams[j].len()).collect();
            let j = live[(state % live.len() as u64) as usize];
            arrival.push(streams[j][cursors[j]]);
            cursors[j] += 1;
        }

        // Deposit in arrival order and, after each deposit, run whatever
        // became ready — exactly what the replica's execute stage does.
        let mut stage = ExecStage::new(SeqNum(1));
        let merged_exec = fresh_executor();
        let mut merged_out = Vec::with_capacity(items.len());
        for it in &arrival {
            let instance = (it.seq.0 as usize - 1) % k;
            let deposit = Effect::Execute { instance, item: (*it).clone() };
            stage.apply(deposit, &*merged_exec);
            for ready in stage.take_window(usize::MAX) {
                prop_assert_eq!(ready.seq.0 as usize, merged_out.len() + 1, "out of order");
                merged_out.push(merged_exec.execute(&ready));
            }
        }
        prop_assert_eq!(stage.next(), SeqNum(items.len() as u64 + 1), "every seq ran");

        // Per-sequence digests and replies bit-identical to serial...
        prop_assert_eq!(serial_out.len(), merged_out.len());
        for (j, (s, m)) in serial_out.iter().zip(&merged_out).enumerate() {
            prop_assert_eq!(&s.0, &m.0, "state digest diverged at seq {} (k={})", j + 1, k);
            prop_assert_eq!(&s.1, &m.1, "replies diverged at seq {} (k={})", j + 1, k);
        }
        // ...and so are the final stores.
        prop_assert_eq!(
            serial.store().state_digest(),
            merged_exec.store().state_digest()
        );
        prop_assert_eq!(
            store_contents(serial.store()),
            store_contents(merged_exec.store())
        );
        prop_assert_eq!(serial.executed_txns(), merged_exec.executed_txns());
    }
}
