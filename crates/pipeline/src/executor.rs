//! Ordered batch execution (the execute stage's work).
//!
//! Executes each transaction's operations against a read view of the
//! state, buffers the writes, commits them in canonical order through
//! [`StateStore::apply`], appends a block to the ledger, and produces the
//! per-client reply messages. Under PBFT the block is certified by the
//! 2f+1 commit signatures; under Zyzzyva execution is speculative and
//! replies carry the rolling history digest.
//!
//! Execution is split into two halves so the conflict scheduler
//! ([`crate::scheduler`]) can run the first half on a worker pool:
//!
//! - [`execute_txn`] — pure transaction evaluation over a read closure,
//!   producing a [`TxnOutcome`] (reply bytes + buffered, pre-hashed
//!   writes). Safe to run concurrently for non-conflicting transactions.
//! - [`Executor::commit`] — the in-order half: apply writes, append the
//!   block, build replies, maintain counters.

use crate::durable::{commit_entry_bytes, Durability, WalEntry};
use crate::queues::ExecuteItem;
use parking_lot::Mutex;
use rdb_common::messages::{Message, ReplyResults, Sender};
use rdb_common::{ClientId, Operation, ProtocolKind, ReplicaId, Transaction, TxnId};
use rdb_common::{Digest, SeqNum, Snapshot};
use rdb_crypto::chain_digest;
use rdb_storage::{Blockchain, StateStore, WriteRecord};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An outgoing message with its destinations (all of one peer class, so
/// the output thread signs once).
#[derive(Debug, Clone, PartialEq)]
pub struct OutItem {
    /// Destinations (never empty).
    pub targets: Vec<Sender>,
    /// Unsigned message body.
    pub msg: Message,
}

impl OutItem {
    /// Single-destination item.
    pub fn to(dest: Sender, msg: Message) -> Self {
        OutItem {
            targets: vec![dest],
            msg,
        }
    }
}

/// The buffered result of evaluating one transaction: the reply bytes and
/// the final per-key writes (pre-hashed, in first-write order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxnOutcome {
    /// Reply payload: the last operation's echo, exactly as the serial
    /// executor produced it (write → key bytes, read → value truncated
    /// to 8 bytes).
    pub result: Vec<u8>,
    /// Final value per written key, hashed where produced.
    pub writes: Vec<WriteRecord>,
}

/// Evaluates `txn` against `read`, buffering writes instead of mutating.
///
/// Reads observe the transaction's own earlier writes first (read-your-own
/// -writes), then fall through to `read` — which the caller points at the
/// batch overlay plus the base store. Pure in the scheduling sense: no
/// shared state is touched, so non-conflicting transactions can be
/// evaluated concurrently and the outcome is a function of `(txn, read)`.
pub fn execute_txn<F>(txn: &Transaction, read: F) -> TxnOutcome
where
    F: Fn(u64) -> Option<Vec<u8>>,
{
    // Final value per key in first-write order; transactions carry few ops,
    // so a linear scan beats a per-txn hash map.
    let mut local: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut result = Vec::with_capacity(8);
    for op in &txn.ops {
        match op {
            Operation::Write { key, value } => {
                match local.iter_mut().find(|(k, _)| k == key) {
                    Some((_, v)) => v.clone_from(value),
                    None => local.push((*key, value.clone())),
                }
                result = key.to_le_bytes().to_vec();
            }
            Operation::Read { key } => {
                result = local
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
                    .or_else(|| read(*key))
                    .unwrap_or_default();
                result.truncate(8);
            }
        }
    }
    TxnOutcome {
        result,
        writes: local
            .into_iter()
            .map(|(k, v)| WriteRecord::new(k, v))
            .collect(),
    }
}

/// What undoing one speculatively executed batch takes: the pre-batch
/// value of every key it touched (`None` = the key did not exist), plus
/// the bookkeeping deltas to reverse.
#[derive(Debug)]
struct UndoRecord {
    /// Pre-batch image per touched key (first-touch capture, so restoring
    /// all entries — in any order — rewinds the batch exactly).
    pre: Vec<(u64, Option<Vec<u8>>)>,
    /// Transaction ids this batch inserted into the dedup set.
    fresh_ids: Vec<TxnId>,
    /// Duplicates this batch counted.
    dups: u64,
}

/// The transaction ids already executed, in bounded space: per client a
/// dense executed prefix (`0..next`) plus the few counters executed above
/// it. Clients number their transactions consecutively, so the prefix
/// swallows everything and memory is per client, not per transaction;
/// sparse counters stay correct, just not compact.
#[derive(Debug, Default)]
struct SeenTxns {
    clients: HashMap<ClientId, (u64, BTreeSet<u64>)>,
}

impl SeenTxns {
    /// Records `id`; `false` if it was already recorded.
    fn insert(&mut self, id: TxnId) -> bool {
        let (next, above) = self.clients.entry(id.client).or_default();
        if id.counter < *next || !above.insert(id.counter) {
            return false;
        }
        while above.remove(next) {
            *next += 1;
        }
        true
    }

    /// Forgets `id` (rollback): below the prefix this re-opens it, moving
    /// the counters in between back above it.
    fn remove(&mut self, id: TxnId) {
        let Some((next, above)) = self.clients.get_mut(&id.client) else {
            return;
        };
        if id.counter < *next {
            above.extend(id.counter + 1..*next);
            *next = id.counter;
        } else {
            above.remove(&id.counter);
        }
    }
}

/// The execution engine shared by the execute-thread (1E) or the worker
/// (0E: integrated ordering and execution).
pub struct Executor {
    id: ReplicaId,
    protocol: ProtocolKind,
    store: Arc<dyn StateStore>,
    chain: Arc<Mutex<Blockchain>>,
    executed_txns: AtomicU64,
    executed_batches: AtomicU64,
    /// Transaction ids already executed, for at-most-once accounting: a
    /// client retransmission ordered into a second batch (e.g. across a
    /// view change) is replied to again but not counted again. Its writes
    /// are content-identical, so re-applying them is state-idempotent and
    /// keeps serial and parallel execution digest-equal.
    seen: Mutex<SeenTxns>,
    deduped_txns: AtomicU64,
    /// Per-sequence undo records for the speculative (uncheckpointed)
    /// suffix. Only maintained under Zyzzyva — PBFT never rolls back.
    undo: Mutex<BTreeMap<SeqNum, UndoRecord>>,
    /// Capture a serving snapshot whenever `seq % interval == 0`
    /// (0 disables). Aligned with the checkpoint cadence so every replica
    /// captures identical state at identical sequences.
    snapshot_interval: AtomicU64,
    /// The most recent captured snapshot, served to rejoining peers.
    latest_snapshot: Mutex<Option<Arc<Snapshot>>>,
    /// The replica's write-ahead log, when it runs durable. Attached
    /// *after* restart replay (see [`crate::durable::recover_replica`]) so
    /// replayed batches do not re-log themselves.
    durability: Mutex<Option<Arc<Durability>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("id", &self.id)
            .field("protocol", &self.protocol)
            .field(
                "executed_batches",
                &self.executed_batches.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl Executor {
    /// Creates an executor over the replica's store and chain.
    pub fn new(
        id: ReplicaId,
        protocol: ProtocolKind,
        store: Arc<dyn StateStore>,
        chain: Arc<Mutex<Blockchain>>,
    ) -> Self {
        Executor {
            id,
            protocol,
            store,
            chain,
            executed_txns: AtomicU64::new(0),
            executed_batches: AtomicU64::new(0),
            seen: Mutex::new(SeenTxns::default()),
            deduped_txns: AtomicU64::new(0),
            undo: Mutex::new(BTreeMap::new()),
            snapshot_interval: AtomicU64::new(0),
            latest_snapshot: Mutex::new(None),
            durability: Mutex::new(None),
        }
    }

    /// Attaches the durable WAL: every commit, rollback and stable mark
    /// from here on is logged. Call after restart replay, never before.
    pub fn set_durability(&self, durability: Arc<Durability>) {
        *self.durability.lock() = Some(durability);
    }

    /// The attached durable state, if this executor runs durable.
    pub fn durability(&self) -> Option<Arc<Durability>> {
        self.durability.lock().clone()
    }

    /// Enables snapshot capture every `interval` sequences (0 disables).
    pub fn set_snapshot_interval(&self, interval: u64) {
        self.snapshot_interval.store(interval, Ordering::Relaxed);
    }

    /// The most recently captured serving snapshot, if any.
    pub fn latest_snapshot(&self) -> Option<Arc<Snapshot>> {
        self.latest_snapshot.lock().clone()
    }

    /// Total *distinct* transactions executed (duplicates excluded).
    pub fn executed_txns(&self) -> u64 {
        self.executed_txns.load(Ordering::Relaxed)
    }

    /// Duplicate transactions detected (re-ordered retransmissions).
    pub fn deduped_txns(&self) -> u64 {
        self.deduped_txns.load(Ordering::Relaxed)
    }

    /// Total batches executed.
    pub fn executed_batches(&self) -> u64 {
        self.executed_batches.load(Ordering::Relaxed)
    }

    /// The state store this executor commits into.
    pub fn store(&self) -> &Arc<dyn StateStore> {
        &self.store
    }

    /// Executes `item` serially: evaluates each transaction in batch order
    /// against the store overlaid with the batch's earlier writes, then
    /// commits. Returns the replica state digest after execution (fed back
    /// to the consensus engine for checkpointing) and the outgoing reply
    /// messages.
    pub fn execute(&self, item: &ExecuteItem) -> (Digest, Vec<OutItem>) {
        let mut overlay: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut results = Vec::with_capacity(item.batch.len());
        let mut writes: Vec<WriteRecord> = Vec::with_capacity(item.batch.len());
        for txn in &item.batch.txns {
            let out = execute_txn(txn, |k| {
                overlay.get(&k).cloned().or_else(|| self.store.get(k))
            });
            for w in &out.writes {
                overlay.insert(w.key, w.value.clone());
            }
            results.push(out.result);
            writes.extend(out.writes);
        }
        self.commit(item, results, &writes)
    }

    /// The in-order half of execution: applies the buffered writes in
    /// canonical order, appends the block, builds the client replies and
    /// bumps the executed counters. `results` holds one reply payload per
    /// transaction, in batch order.
    ///
    /// Callers (the serial path above and the parallel scheduler) must
    /// invoke this in sequence order — the ledger append asserts it.
    pub fn commit(
        &self,
        item: &ExecuteItem,
        results: Vec<Vec<u8>>,
        writes: &[WriteRecord],
    ) -> (Digest, Vec<OutItem>) {
        debug_assert_eq!(results.len(), item.batch.len());
        // Zyzzyva executes speculatively: capture the pre-batch image of
        // every touched key so a mis-speculation can be rewound exactly.
        let pre_images = if self.protocol == ProtocolKind::Zyzzyva {
            let mut captured: Vec<(u64, Option<Vec<u8>>)> = Vec::with_capacity(writes.len());
            for w in writes {
                if !captured.iter().any(|(k, _)| *k == w.key) {
                    captured.push((w.key, self.store.get(w.key)));
                }
            }
            Some(captured)
        } else {
            None
        };
        self.store.apply(writes);
        // One reply per client, not per transaction: a batch's results are
        // grouped by client in batch order, so the output stage signs —
        // and the transport carries — one envelope per client per batch.
        let mut slot_of: HashMap<ClientId, usize> = HashMap::new();
        let mut grouped: Vec<(ClientId, ReplyResults)> = Vec::new();
        for (txn, result) in item.batch.txns.iter().zip(results) {
            let slot = *slot_of.entry(txn.id.client).or_insert_with(|| {
                grouped.push((txn.id.client, Vec::new()));
                grouped.len() - 1
            });
            grouped[slot].1.push((txn.id.counter, result));
        }
        let replies = grouped
            .into_iter()
            .map(|(client, results)| {
                let msg = match item.history {
                    // Zyzzyva: speculative response with the history digest.
                    Some(history) => Message::SpecResponse {
                        view: item.view,
                        seq: item.seq,
                        digest: item.digest,
                        history,
                        client,
                        replica: self.id,
                        results,
                    },
                    // PBFT: committed reply.
                    None => Message::ClientReply {
                        view: item.view,
                        client,
                        replica: self.id,
                        results,
                    },
                };
                OutItem::to(Sender::Client(client), msg)
            })
            .collect();
        // Append the block. The result digest covers the store state so
        // replicas can cross-check execution.
        let store_digest = self.store.state_digest();
        {
            let mut chain = self.chain.lock();
            chain
                .append(
                    item.seq,
                    item.digest,
                    item.view,
                    item.certificate.clone(),
                    item.batch.len() as u32,
                    store_digest,
                )
                .expect("execution is sequential, append cannot gap");
        }
        // The checkpoint state digest must be identical across replicas, so
        // it covers the ordered batch digest and the store contents — NOT
        // the block certificate (each replica legitimately collects a
        // different 2f+1 commit-signature set).
        let state_digest = chain_digest(&item.digest, &store_digest);
        let fresh_ids: Vec<TxnId> = {
            let mut seen = self.seen.lock();
            item.batch
                .txns
                .iter()
                .filter(|t| seen.insert(t.id))
                .map(|t| t.id)
                .collect()
        };
        let fresh = fresh_ids.len() as u64;
        self.executed_txns.fetch_add(fresh, Ordering::Relaxed);
        self.deduped_txns
            .fetch_add(item.batch.len() as u64 - fresh, Ordering::Relaxed);
        self.executed_batches.fetch_add(1, Ordering::Relaxed);
        if let Some(pre) = pre_images {
            self.undo.lock().insert(
                item.seq,
                UndoRecord {
                    pre,
                    fresh_ids,
                    dups: item.batch.len() as u64 - fresh,
                },
            );
        }
        let interval = self.snapshot_interval.load(Ordering::Relaxed);
        if interval > 0 && item.seq.0.is_multiple_of(interval) {
            self.capture_snapshot(item.seq, item.history);
        }
        // Make the batch durable before its replies leave the replica.
        if let Some(durability) = self.durability.lock().clone() {
            durability.log_raw(&commit_entry_bytes(item));
        }
        (state_digest, replies)
    }

    /// Captures the serving snapshot at `seq`: the full store contents
    /// plus the chain block just appended there. Runs on the execute path
    /// at checkpoint cadence, so every replica captures identical state
    /// at identical sequences (the f+1 agreement a receiver requires).
    fn capture_snapshot(&self, seq: SeqNum, history: Option<Digest>) {
        let Some(block) = self
            .chain
            .lock()
            .blocks_between(SeqNum(seq.0 - 1), seq)
            .pop()
        else {
            return;
        };
        let snapshot = Snapshot {
            base_seq: seq,
            block,
            history: history.unwrap_or(Digest::ZERO),
            records: self.store.export_records(),
        };
        *self.latest_snapshot.lock() = Some(Arc::new(snapshot));
    }

    /// Rolls speculative execution back so the last executed sequence is
    /// `to`: restores pre-batch images newest-first, truncates the ledger,
    /// and reverses the dedup/counter bookkeeping. Returns the number of
    /// batches undone. The rewound state is bit-identical to a replica
    /// that never executed the suffix — the store's Merkle commitment is
    /// content-only, so restoring every touched record restores the root.
    pub fn rollback_to(&self, to: SeqNum) -> usize {
        let suffix: BTreeMap<SeqNum, UndoRecord> = self.undo.lock().split_off(&SeqNum(to.0 + 1));
        let undone = suffix.len();
        let mut seen = self.seen.lock();
        for (_, rec) in suffix.into_iter().rev() {
            for (key, pre) in &rec.pre {
                match pre {
                    Some(value) => self.store.put(*key, value),
                    None => {
                        self.store.remove(*key);
                    }
                }
            }
            for id in &rec.fresh_ids {
                seen.remove(*id);
            }
            self.executed_txns
                .fetch_sub(rec.fresh_ids.len() as u64, Ordering::Relaxed);
            self.deduped_txns.fetch_sub(rec.dups, Ordering::Relaxed);
            self.executed_batches.fetch_sub(1, Ordering::Relaxed);
        }
        drop(seen);
        if undone > 0 {
            let mut chain = self.chain.lock();
            let target = SeqNum(to.0.min(chain.head_seq().0));
            chain.truncate_to(target);
            if let Some(durability) = self.durability.lock().clone() {
                durability.log(&WalEntry::Rollback { to });
            }
        }
        undone
    }

    /// Drops undo records at or below a stable checkpoint: nothing below
    /// it can ever be rolled back.
    pub fn prune_undo(&self, through: SeqNum) {
        self.undo.lock().retain(|seq, _| *seq > through);
    }

    /// Records that the checkpoint at `seq` became 2f+1-stable: prunes the
    /// undo log, and — when running durable — logs a `Stable` marker and
    /// persists the serving snapshot to disk (compacting the WAL down to
    /// the suffix above it) once the captured snapshot's base is covered
    /// by the stable floor.
    pub fn note_stable(&self, seq: SeqNum) {
        self.prune_undo(seq);
        let Some(durability) = self.durability.lock().clone() else {
            return;
        };
        durability.log(&WalEntry::Stable { seq });
        let snapshot = self.latest_snapshot.lock().clone();
        if let Some(snapshot) = snapshot {
            if snapshot.base_seq <= seq {
                durability.persist_stable(&snapshot);
            }
        }
    }

    /// Replaces the replica state with a verified snapshot: the store
    /// contents, the ledger re-based at the snapshot block, and a cleared
    /// undo log. Executed-counter totals (`executed_txns`,
    /// `executed_batches`, `deduped_txns`) are deliberately *not*
    /// advanced — the point of state transfer is that the receiver skips
    /// re-executing the transferred history, so the counters keep meaning
    /// "work this process actually performed" (restart replay and the
    /// smoke scripts rely on that reading).
    pub fn install_snapshot(&self, snapshot: &Snapshot) {
        self.store.install_records(&snapshot.records);
        self.chain
            .lock()
            .install_snapshot_block(snapshot.block.clone());
        self.undo.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::block::BlockCertificate;
    use rdb_common::{Batch, ClientId, SeqNum, SignatureBytes, Transaction, ViewNum};
    use rdb_storage::blockchain::ChainMode;
    use rdb_storage::MemStore;

    fn exec_item(seq: u64, history: Option<Digest>) -> ExecuteItem {
        let batch: Batch = (0..3u64)
            .map(|i| {
                Transaction::new(
                    ClientId(i),
                    0,
                    vec![Operation::Write {
                        key: 10 + i,
                        value: vec![i as u8; 4],
                    }],
                )
            })
            .collect();
        ExecuteItem {
            seq: SeqNum(seq),
            view: ViewNum(0),
            digest: Digest([seq as u8; 32]),
            batch: batch.into(),
            certificate: BlockCertificate::new(vec![
                (ReplicaId(0), SignatureBytes(vec![1])),
                (ReplicaId(1), SignatureBytes(vec![2])),
                (ReplicaId(2), SignatureBytes(vec![3])),
            ]),
            history,
        }
    }

    fn executor(protocol: ProtocolKind, mode: ChainMode) -> Executor {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let chain = Arc::new(Mutex::new(Blockchain::new(Digest::ZERO, 3, mode)));
        Executor::new(ReplicaId(1), protocol, store, chain)
    }

    #[test]
    fn pbft_execution_writes_and_replies() {
        let ex = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        let (digest, replies) = ex.execute(&exec_item(1, None));
        assert_ne!(digest, Digest::ZERO);
        assert_eq!(replies.len(), 3);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.targets, vec![Sender::Client(ClientId(i as u64))]);
            assert!(matches!(&r.msg, Message::ClientReply { .. }));
        }
        assert_eq!(ex.executed_txns(), 3);
        assert_eq!(ex.executed_batches(), 1);
    }

    #[test]
    fn zyzzyva_execution_sends_spec_responses() {
        let ex = zyz_executor();
        let h = Digest([9; 32]);
        let (_, replies) = ex.execute(&exec_item(1, Some(h)));
        for r in &replies {
            match &r.msg {
                Message::SpecResponse { history, .. } => assert_eq!(*history, h),
                other => panic!("expected SpecResponse, got {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic_across_replicas() {
        let a = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        let b = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        let (da, ra) = a.execute(&exec_item(1, None));
        let (db, rb) = b.execute(&exec_item(1, None));
        assert_eq!(da, db, "state digests must match across replicas");
        let results = |o: &OutItem| match &o.msg {
            Message::ClientReply { results, .. } => results.clone(),
            _ => panic!(),
        };
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert_eq!(results(x), results(y));
        }
    }

    #[test]
    fn chain_grows_per_batch() {
        let ex = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        ex.execute(&exec_item(1, None));
        ex.execute(&exec_item(2, None));
        assert_eq!(ex.chain.lock().head_seq(), SeqNum(2));
        assert!(ex.chain.lock().verify().is_ok());
    }

    #[test]
    fn retransmitted_txns_replied_but_counted_once() {
        let ex = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        let (_, r1) = ex.execute(&exec_item(1, None));
        // The same transactions ordered again at a later sequence (a
        // retransmission that crossed a view change).
        let (_, r2) = ex.execute(&exec_item(2, None));
        assert_eq!(r1.len(), 3);
        assert_eq!(r2.len(), 3, "duplicates still get replies");
        assert_eq!(ex.executed_txns(), 3, "but are not counted again");
        assert_eq!(ex.deduped_txns(), 3);
        assert_eq!(ex.executed_batches(), 2);
    }

    /// A batch interleaving three clients (`a b a c b a`): the reply path's
    /// unit of work is the client, not the transaction.
    fn interleaved_item(history: Option<Digest>) -> ExecuteItem {
        let mut next = [0u64; 3];
        let batch: Batch = [0usize, 1, 0, 2, 1, 0]
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let counter = next[c];
                next[c] += 1;
                let op = Operation::Write {
                    key: 20 + i as u64,
                    value: vec![i as u8; 4],
                };
                Transaction::new(ClientId(c as u64), counter, vec![op])
            })
            .collect();
        ExecuteItem {
            batch: batch.into(),
            ..exec_item(1, history)
        }
    }

    #[test]
    fn one_reply_envelope_per_client_with_results_in_batch_order() {
        let ex = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        let (state, replies) = ex.execute(&interleaved_item(None));
        let key = |i: u64| (20 + i).to_le_bytes().to_vec();
        let expect = [
            (0u64, vec![(0, key(0)), (1, key(2)), (2, key(5))]),
            (1, vec![(0, key(1)), (1, key(4))]),
            (2, vec![(0, key(3))]),
        ];
        assert_eq!(replies.len(), 3, "three clients, three envelopes");
        for (reply, (client, results)) in replies.iter().zip(expect) {
            assert_eq!(reply.targets, vec![Sender::Client(ClientId(client))]);
            assert_eq!(
                reply.msg,
                Message::ClientReply {
                    view: ViewNum(0),
                    client: ClientId(client),
                    replica: ReplicaId(1),
                    results,
                }
            );
        }
        assert_eq!(ex.executed_txns(), 6);

        // Grouping replies touches nothing that is committed to: a batch
        // of the same writes from one client yields the same state digest,
        // store root and chain head.
        let single = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        let mut item = interleaved_item(None);
        let txns: Batch = item
            .batch
            .txns
            .iter()
            .enumerate()
            .map(|(i, t)| Transaction::new(ClientId(0), i as u64, t.ops.clone()))
            .collect();
        item.batch = txns.into();
        let (single_state, single_replies) = single.execute(&item);
        assert_eq!(single_replies.len(), 1);
        assert_eq!(single_state, state);
        assert_eq!(single.store.state_digest(), ex.store.state_digest());
        assert_eq!(
            single.chain.lock().head_digest(),
            ex.chain.lock().head_digest()
        );
    }

    #[test]
    fn zyzzyva_spec_responses_coalesce_per_client_too() {
        let ex = zyz_executor();
        let h = Digest([9; 32]);
        let (_, replies) = ex.execute(&interleaved_item(Some(h)));
        let counters: Vec<Vec<u64>> = replies
            .iter()
            .map(|r| match &r.msg {
                Message::SpecResponse {
                    history, results, ..
                } if *history == h => results.iter().map(|(c, _)| *c).collect(),
                other => panic!("expected SpecResponse, got {other:?}"),
            })
            .collect();
        assert_eq!(counters, [vec![0, 1, 2], vec![0, 1], vec![0]]);
    }

    // ---- the bounded dedup set ----

    fn id(client: u64, counter: u64) -> TxnId {
        TxnId::new(ClientId(client), counter)
    }

    #[test]
    fn seen_txns_insert_duplicate_out_of_order_and_remove() {
        let mut seen = SeenTxns::default();
        assert!(seen.insert(id(1, 0)));
        assert!(!seen.insert(id(1, 0)), "duplicate");
        assert!(seen.insert(id(2, 0)), "clients are independent");
        // Out of order: 2 parks above the prefix until 1 closes the gap.
        assert!(seen.insert(id(1, 2)));
        assert!(!seen.insert(id(1, 2)));
        assert!(seen.insert(id(1, 1)));
        assert_eq!(seen.clients[&ClientId(1)], (3, BTreeSet::new()));
        // Removing below the prefix re-opens it; the rest stays recorded.
        seen.remove(id(1, 1));
        assert_eq!(seen.clients[&ClientId(1)], (1, BTreeSet::from([2])));
        assert!(!seen.insert(id(1, 0)));
        assert!(!seen.insert(id(1, 2)));
        assert!(seen.insert(id(1, 1)), "forgotten, so fresh again");
        // Removing above the prefix, and something never inserted.
        assert!(seen.insert(id(1, 9)));
        seen.remove(id(1, 9));
        seen.remove(id(3, 4));
        assert!(seen.insert(id(1, 9)));
        // Sparse counters: correct, just not compact.
        assert!(seen.insert(id(4, u64::MAX)));
        assert!(!seen.insert(id(4, u64::MAX)));
    }

    proptest::proptest! {
        /// Any interleaving of inserts and removes answers exactly as the
        /// unbounded `HashSet<TxnId>` it replaced.
        #[test]
        fn seen_txns_agrees_with_a_hash_set(
            ops in proptest::collection::vec(0u64..3 * 12 * 4, 0..200),
        ) {
            let mut seen = SeenTxns::default();
            let mut oracle = std::collections::HashSet::new();
            for op in ops {
                // 3 clients × 12 counters; one op in four is a remove.
                let txn = id(op % 3, op / 3 % 12);
                if op / 36 == 0 {
                    seen.remove(txn);
                    oracle.remove(&txn);
                } else {
                    proptest::prop_assert_eq!(seen.insert(txn), oracle.insert(txn));
                }
            }
        }
    }

    /// A Zyzzyva executor: speculative chains carry no certificates, so
    /// the ledger's certificate quorum is zero (as in `spawn_replica`).
    fn zyz_executor() -> Executor {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        let chain = Arc::new(Mutex::new(Blockchain::new(
            Digest::ZERO,
            0,
            ChainMode::PrevHash,
        )));
        Executor::new(ReplicaId(1), ProtocolKind::Zyzzyva, store, chain)
    }

    /// An exec item whose transactions write distinct values derived from
    /// `tag`, so different speculative suffixes produce different state.
    fn tagged_item(seq: u64, tag: u8) -> ExecuteItem {
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
            batch: batch.into(),
            certificate: BlockCertificate::default(),
            history: Some(Digest([seq as u8; 32])),
        }
    }

    #[test]
    fn rollback_restores_state_counters_and_chain() {
        let ex = zyz_executor();
        ex.execute(&tagged_item(1, 1));
        let state_at_1 = ex.store.state_digest();
        let head_at_1 = ex.chain.lock().head_digest();
        // A divergent speculative suffix.
        ex.execute(&tagged_item(2, 66));
        ex.execute(&tagged_item(3, 66));
        assert_eq!(ex.executed_batches(), 3);
        assert_eq!(ex.rollback_to(SeqNum(1)), 2);
        assert_eq!(ex.store.state_digest(), state_at_1);
        assert_eq!(ex.chain.lock().head_digest(), head_at_1);
        assert_eq!(ex.executed_batches(), 1);
        assert_eq!(ex.executed_txns(), 3);
        // Re-executing the reconciled history converges with a replica
        // that never speculated.
        ex.execute(&tagged_item(2, 2));
        ex.execute(&tagged_item(3, 2));
        let clean = zyz_executor();
        clean.execute(&tagged_item(1, 1));
        clean.execute(&tagged_item(2, 2));
        clean.execute(&tagged_item(3, 2));
        assert_eq!(ex.store.state_digest(), clean.store.state_digest());
        assert_eq!(ex.executed_txns(), clean.executed_txns());
    }

    #[test]
    fn rollback_removes_rewound_txns_from_dedup_set() {
        let ex = zyz_executor();
        ex.execute(&tagged_item(1, 1));
        ex.execute(&tagged_item(2, 9));
        ex.rollback_to(SeqNum(1));
        // The same transactions re-ordered after reconciliation must count
        // as fresh, not as retransmissions.
        ex.execute(&tagged_item(2, 9));
        assert_eq!(ex.executed_txns(), 6);
        assert_eq!(ex.deduped_txns(), 0);
    }

    #[test]
    fn snapshot_capture_and_install_round_trip() {
        let ex = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        ex.set_snapshot_interval(2);
        ex.execute(&exec_item(1, None));
        assert!(ex.latest_snapshot().is_none(), "seq 1 is off-cadence");
        ex.execute(&exec_item(2, None));
        let snap = ex.latest_snapshot().expect("captured at seq 2");
        assert_eq!(snap.base_seq, SeqNum(2));
        assert_eq!(snap.block.result_digest, ex.store.state_digest());

        // A fresh replica installs the snapshot instead of replaying.
        let fresh = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        fresh.install_snapshot(&snap);
        assert_eq!(fresh.store.state_digest(), ex.store.state_digest());
        assert_eq!(fresh.chain.lock().head_seq(), SeqNum(2));
        assert_eq!(
            fresh.executed_txns(),
            0,
            "transferred history is not re-counted"
        );
        // Execution resumes at base + 1 and both replicas stay in step.
        let (da, _) = ex.execute(&exec_item(3, None));
        let (db, _) = fresh.execute(&exec_item(3, None));
        assert_eq!(da, db);
    }

    /// The documented `install_snapshot` invariant: transferred history is
    /// installed, never counted as executed work. Restart replay and the
    /// fault-matrix smoke script both read the counters as "work this
    /// process performed", so advancing them here would break that math.
    #[test]
    fn install_snapshot_does_not_advance_executed_counters() {
        let source = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        source.set_snapshot_interval(2);
        source.execute(&exec_item(1, None));
        source.execute(&exec_item(2, None));
        let snap = source.latest_snapshot().expect("captured at seq 2");

        let receiver = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        receiver.execute(&exec_item(1, None)); // some pre-transfer work
        let (txns, batches, dups) = (
            receiver.executed_txns(),
            receiver.executed_batches(),
            receiver.deduped_txns(),
        );
        receiver.install_snapshot(&snap);
        assert_eq!(receiver.executed_txns(), txns);
        assert_eq!(receiver.executed_batches(), batches);
        assert_eq!(receiver.deduped_txns(), dups);
        // The state itself did move to the snapshot.
        assert_eq!(receiver.store.state_digest(), source.store.state_digest());
    }

    #[test]
    fn prune_undo_caps_rollback_depth() {
        let ex = zyz_executor();
        ex.execute(&tagged_item(1, 1));
        ex.execute(&tagged_item(2, 2));
        ex.prune_undo(SeqNum(2));
        assert_eq!(
            ex.rollback_to(SeqNum(0)),
            0,
            "checkpointed prefix cannot rewind"
        );
    }

    #[test]
    fn read_operations_return_stored_values() {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
        store.put(42, &[7, 7, 7]);
        let chain = Arc::new(Mutex::new(Blockchain::new(
            Digest::ZERO,
            0,
            ChainMode::Certificate,
        )));
        let ex = Executor::new(ReplicaId(0), ProtocolKind::Pbft, store, chain);
        let batch: Batch = vec![Transaction::new(
            ClientId(0),
            0,
            vec![Operation::Read { key: 42 }],
        )]
        .into_iter()
        .collect();
        let item = ExecuteItem {
            seq: SeqNum(1),
            view: ViewNum(0),
            digest: Digest::ZERO,
            batch: batch.into(),
            certificate: BlockCertificate::default(),
            history: None,
        };
        let (_, replies) = ex.execute(&item);
        match &replies[0].msg {
            Message::ClientReply { results, .. } => {
                assert_eq!(results, &vec![(0, vec![7, 7, 7])])
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
