//! Ordered batch execution (the execute stage's work).
//!
//! Executes each transaction's operations against a read view of the
//! state, buffers the writes, commits them in canonical order through
//! [`StateStore::apply_logged`], appends a block to the ledger, and
//! produces the per-client reply messages. Under PBFT the block is certified by the
//! 2f+1 commit signatures; under Zyzzyva execution is speculative and
//! replies carry the rolling history digest.
//!
//! Execution is split into two halves so the conflict scheduler
//! ([`crate::scheduler`]) can run the first half on a worker pool:
//!
//! - [`execute_txn`] — pure transaction evaluation over a read closure,
//!   producing a [`TxnOutcome`] (reply bytes + buffered, pre-hashed
//!   writes). Safe to run concurrently for non-conflicting transactions.
//!   It wraps the one evaluator the serial [`Executor::execute`] also
//!   runs, there into buffers kept across batches, so the serial path
//!   allocates only each transaction's reply payload and a few buffers
//!   per batch (`tests/alloc_budget.rs` counts them).
//! - [`Executor::commit`] — the in-order half: apply writes, append the
//!   block, build replies, maintain counters.

use crate::durable::{commit_entry_bytes, Durability, WalEntry};
use crate::queues::{CommitItem, ExecuteItem};
use parking_lot::Mutex;
use rdb_common::messages::{Message, ReplyResults, Sender};
use rdb_common::{ClientId, Operation, ProtocolKind, ReplicaId, Transaction, TxnId};
use rdb_common::{Digest, SeqNum, Snapshot};
use rdb_crypto::chain_digest;
use rdb_crypto::sha2::Sha256;
use rdb_storage::{hash_records, Blockchain, StateStore, WriteRecord};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An outgoing message with its destinations (all of one peer class, so
/// its sender signs once).
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

/// A batch's buffered writes in first-write order per transaction. Slots
/// past `len` keep their value buffers, so refilling the buffer for the
/// next batch reuses them instead of allocating.
#[derive(Debug, Default)]
struct WriteBuf {
    slots: Vec<WriteRecord>,
    len: usize,
}

impl WriteBuf {
    fn written(&self) -> &[WriteRecord] {
        &self.slots[..self.len]
    }

    fn written_mut(&mut self) -> &mut [WriteRecord] {
        &mut self.slots[..self.len]
    }

    fn push(&mut self, key: u64, value: &[u8]) {
        match self.slots.get_mut(self.len) {
            Some(slot) => {
                slot.key = key;
                value.clone_into(&mut slot.value);
            }
            None => self.slots.push(WriteRecord {
                key,
                value: value.to_vec(),
                hash: [0; 32],
            }),
        }
        self.len += 1;
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

/// The one transaction evaluator. Appends `txn`'s final value per written
/// key to `writes` (first-write order, not yet hashed: the caller hashes a
/// transaction's or a batch's writes at once with [`hash_records`]) and
/// its reply payload to `result`: the last operation's echo
/// (write → key bytes, read → value truncated to 8 bytes). Reads see the
/// transaction's own writes first, then `read(key, earlier, buf)`, which
/// is handed the writes that were in `writes` before this transaction and
/// fills `buf`. Allocates nothing once the buffers have grown.
fn evaluate(
    txn: &Transaction,
    mut read: impl FnMut(u64, &[WriteRecord], &mut Vec<u8>) -> bool,
    writes: &mut WriteBuf,
    buf: &mut Vec<u8>,
    result: &mut Vec<u8>,
) {
    let start = writes.len;
    let mut echo = ([0u8; 8], 0);
    for op in &txn.ops {
        match op {
            Operation::Write { key, value } => {
                match writes.slots[start..writes.len]
                    .iter_mut()
                    .find(|w| w.key == *key)
                {
                    Some(w) => value.clone_into(&mut w.value),
                    None => writes.push(*key, value),
                }
                echo = (key.to_le_bytes(), 8);
            }
            Operation::Read { key } => {
                let own = writes.slots[start..writes.len]
                    .iter()
                    .find(|w| w.key == *key);
                let value = match own {
                    Some(w) => &w.value[..],
                    None if read(*key, &writes.slots[..start], buf) => &buf[..],
                    None => &[],
                };
                let n = value.len().min(8);
                echo.0[..n].copy_from_slice(&value[..n]);
                echo.1 = n;
            }
        }
    }
    result.extend_from_slice(&echo.0[..echo.1]);
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
    let mut writes = WriteBuf::default();
    let mut result = Vec::with_capacity(8);
    let read = |key, _: &[WriteRecord], buf: &mut Vec<u8>| read(key).map(|v| *buf = v).is_some();
    evaluate(txn, read, &mut writes, &mut Vec::new(), &mut result);
    hash_records(&mut writes.slots);
    TxnOutcome {
        result,
        writes: writes.slots,
    }
}

/// The serial path's per-batch working memory, reused from one batch to
/// the next (only the execute thread runs it).
#[derive(Debug, Default)]
struct Scratch {
    writes: WriteBuf,
    /// Newest write per key, as an index into `writes`.
    overlay: HashMap<u64, usize>,
    /// The batch's reply payloads back to back, and where each ends.
    results: Vec<u8>,
    ends: Vec<usize>,
    /// A read's value.
    buf: Vec<u8>,
}

/// A block's result digest between mark boundaries: the previous block's
/// chained with this batch's writes in commit order — bytes the batch just
/// produced, where the store's root would re-hash its tree. Replicas whose
/// execution diverges at a sequence disagree from that block on. The
/// previous digest comes from the chain head, so whatever moves the head
/// (a rollback, a snapshot install, a WAL replay) re-derives it.
fn write_set_digest(prev: Digest, writes: &[WriteRecord]) -> Digest {
    let mut h = Sha256::new();
    h.update(prev.as_bytes());
    for w in writes {
        h.update(&w.key.to_le_bytes());
        h.update(&w.hash);
    }
    Digest(h.finalize())
}

/// What undoing one executed batch takes: the value every write of it
/// displaced, plus the bookkeeping deltas to reverse.
#[derive(Debug)]
struct UndoRecord {
    /// What [`StateStore::apply_logged`] showed: one entry per write, in
    /// write order, so a key's *first* entry is its pre-batch image
    /// (`None` = the key did not exist) and restoring them newest-first
    /// rewinds the batch exactly. Values are copied back to back into
    /// `bytes`: an interval of records is dropped at every mark, and two
    /// allocations a batch free in microseconds where one per value does
    /// not.
    pre: Vec<(u64, Option<Range<usize>>)>,
    bytes: Vec<u8>,
    /// Transaction ids this batch inserted into the dedup set.
    fresh_ids: Vec<TxnId>,
    /// Duplicates this batch counted.
    dups: u64,
}

impl UndoRecord {
    /// Applies `writes` to `store`, logging what they displaced.
    fn apply(
        store: &dyn StateStore,
        writes: &[WriteRecord],
        fresh_ids: Vec<TxnId>,
        dups: u64,
    ) -> Self {
        let mut pre = Vec::with_capacity(writes.len());
        let mut bytes = Vec::with_capacity(writes.iter().map(|w| w.value.len()).sum());
        store.apply_logged(writes, &mut |key, old| {
            let at = old.map(|old| {
                bytes.extend_from_slice(old);
                bytes.len() - old.len()..bytes.len()
            });
            pre.push((key, at));
        });
        UndoRecord {
            pre,
            bytes,
            fresh_ids,
            dups,
        }
    }

    fn pre_images(&self) -> impl DoubleEndedIterator<Item = (u64, Option<&[u8]>)> {
        self.pre
            .iter()
            .map(|(key, at)| (*key, at.clone().map(|at| &self.bytes[at])))
    }
}

/// The pre-image log and the snapshot mark that reads it. One lock covers
/// both and is held across every store mutation (`commit`'s apply,
/// `rollback_to`, `install_snapshot`), so a snapshot being materialised
/// sees a store and a log that describe the same instant.
#[derive(Debug, Default)]
struct PreImageLog {
    /// Per executed sequence, what it displaced. Zyzzyva rewinds
    /// mis-speculation through it; under both protocols the mark rewinds
    /// an exported record set through it.
    undo: BTreeMap<SeqNum, UndoRecord>,
    /// The newest checkpoint boundary a snapshot can be served of. The
    /// execute path captures it without `records`; the first demand fills
    /// them in and sets `built` (nobody sees it before). State transfer
    /// installs one whole.
    mark: Option<Arc<Snapshot>>,
    built: bool,
    /// Highest stable checkpoint noted: Zyzzyva never rolls back below it.
    stable: SeqNum,
}

impl PreImageLog {
    /// Drops the records nothing can read any more. PBFT never rolls
    /// back, so only the mark reads its log: it empties whenever a mark is
    /// captured and never outgrows one interval. Zyzzyva also rewinds down
    /// to the stable checkpoint, so it keeps what is above the lower of
    /// the two — a lagging replica's mark can sit below a checkpoint its
    /// peers made stable.
    fn prune(&mut self, protocol: ProtocolKind) {
        let mark = self.mark.as_ref().map(|m| m.base_seq);
        let through = match protocol {
            ProtocolKind::Pbft => mark,
            ProtocolKind::Zyzzyva => Some(mark.map_or(self.stable, |m| m.min(self.stable))),
        };
        if let Some(through) = through {
            self.undo = self.undo.split_off(&through.next());
        }
    }
}

/// Rewinds `records` — a key-sorted export of the store — to the instant
/// before the oldest entry of `log` was applied: every key takes its
/// oldest pre-image (`None` = it did not exist yet). Overwrites land by
/// binary search; only a key appearing or vanishing moves anything.
fn rewind<'a>(
    records: &mut Vec<(u64, Vec<u8>)>,
    log: impl Iterator<Item = (u64, Option<&'a [u8]>)>,
) {
    let mut oldest: Vec<(u64, Option<&[u8]>)> = log.collect();
    // Stable sort, so dedup keeps each key's first — its oldest — entry.
    oldest.sort_by_key(|pre| pre.0);
    oldest.dedup_by_key(|pre| pre.0);
    let exported = records.len();
    let mut created = Vec::new();
    for (key, value) in oldest {
        match (
            records[..exported].binary_search_by_key(&key, |(k, _)| *k),
            value,
        ) {
            (Ok(at), Some(value)) => value.clone_into(&mut records[at].1),
            (Ok(_), None) => created.push(key),
            (Err(_), Some(value)) => records.push((key, value.to_vec())),
            (Err(_), None) => {}
        }
    }
    if records.len() > exported {
        records.sort_unstable_by_key(|(key, _)| *key);
    }
    if !created.is_empty() {
        records.retain(|(key, _)| created.binary_search(key).is_err());
    }
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
        if id.counter != *next {
            // Below the prefix it is a duplicate; above it, it parks.
            return id.counter > *next && above.insert(id.counter);
        }
        // In order — the common case — extends the prefix without ever
        // touching the set (removing from an empty one allocates nothing).
        *next += 1;
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

/// `replica`'s replies to an executed batch, one reply per client, not
/// per transaction: `results` (one per transaction, in batch order) are
/// grouped by client in first-appearance order, each client's in batch
/// order, so the execute stage signs — and the transport carries — one
/// envelope per client per batch. Each reply's results are copied once,
/// into its own flat [`ReplyResults`] sized exactly by a first pass.
/// Zyzzyva (`item.history` set) answers with speculative responses, PBFT
/// with committed replies.
pub fn client_replies<'a>(
    item: &ExecuteItem,
    replica: ReplicaId,
    results: impl Iterator<Item = &'a [u8]> + Clone,
) -> Vec<OutItem> {
    // A batch carries few clients: a scan of them beats hashing each
    // transaction's. Per client: its results and their bytes, counted
    // first so that its reply is allocated once, at its exact size.
    let mut grouped: Vec<(ClientId, usize, usize, ReplyResults)> = Vec::new();
    for (txn, result) in item.batch.txns.iter().zip(results.clone()) {
        match grouped.iter_mut().find(|g| g.0 == txn.id.client) {
            Some(g) => {
                g.1 += 1;
                g.2 += result.len();
            }
            None => grouped.push((txn.id.client, 1, result.len(), ReplyResults::default())),
        }
    }
    for (_, count, bytes, results) in &mut grouped {
        *results = ReplyResults::with_capacity(*count, *bytes);
    }
    for (txn, result) in item.batch.txns.iter().zip(results) {
        let g = grouped.iter_mut().find(|g| g.0 == txn.id.client);
        g.expect("grouped above").3.push(txn.id.counter, result);
    }
    let reply = |client, results| match item.history {
        Some(history) => Message::SpecResponse {
            view: item.view,
            seq: item.seq,
            digest: item.digest,
            history,
            client,
            replica,
            results,
        },
        None => Message::ClientReply {
            view: item.view,
            client,
            replica,
            results,
        },
    };
    grouped
        .into_iter()
        .map(|(client, _, _, results)| OutItem::to(Sender::Client(client), reply(client, results)))
        .collect()
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
    /// What executed batches displaced, and the snapshot mark served from it.
    log: Mutex<PreImageLog>,
    /// The serial path's buffers, kept across batches.
    scratch: Mutex<Scratch>,
    /// Mark a serving snapshot whenever `seq % interval == 0`
    /// (0 disables). Aligned with the checkpoint cadence so every replica
    /// marks identical state at identical sequences. Part of the
    /// replicated state machine: it decides which blocks carry the store's
    /// root, so it must be set before anything is executed or replayed.
    snapshot_interval: AtomicU64,
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
            log: Mutex::new(PreImageLog::default()),
            scratch: Mutex::new(Scratch::default()),
            snapshot_interval: AtomicU64::new(0),
            durability: Mutex::new(None),
        }
    }

    /// Attaches the durable WAL: every commit, rollback and stable mark
    /// from here on is logged. Call after restart replay, never before.
    pub fn set_durability(&self, durability: Arc<Durability>) {
        *self.durability.lock() = Some(durability);
    }

    /// Enables snapshot capture every `interval` sequences (0 disables).
    /// Every replica must run the same value, set before the first commit
    /// (and before [`crate::durable::recover_replica`] replays any).
    pub fn set_snapshot_interval(&self, interval: u64) {
        self.snapshot_interval.store(interval, Ordering::Relaxed);
    }

    /// The serving snapshot at the newest mark, if any. The first call
    /// per mark builds it — the whole store exported and rewound through
    /// the pre-images logged above the mark, byte for byte what copying
    /// the table at the mark would have produced — holding the log's lock,
    /// so execution waits; later calls clone an `Arc`.
    pub fn latest_snapshot(&self) -> Option<Arc<Snapshot>> {
        self.snapshot_where(|_| true)
    }

    /// Base sequence of [`Executor::latest_snapshot`], without building it.
    pub fn snapshot_base(&self) -> Option<SeqNum> {
        self.log.lock().mark.as_ref().map(|m| m.base_seq)
    }

    /// [`Executor::latest_snapshot`] if the mark's base satisfies `wanted`
    /// (checked under the same lock, before anything is built).
    fn snapshot_where(&self, wanted: impl FnOnce(SeqNum) -> bool) -> Option<Arc<Snapshot>> {
        let mut log = self.log.lock();
        let PreImageLog {
            undo, mark, built, ..
        } = &mut *log;
        let mark = mark.as_mut().filter(|m| wanted(m.base_seq))?;
        if !*built {
            let mut records = self.store.export_records();
            let above = undo.range(mark.base_seq.next()..);
            rewind(&mut records, above.flat_map(|(_, rec)| rec.pre_images()));
            // Not handed out yet, so this is the only reference: no copy.
            Arc::make_mut(mark).records = records;
            *built = true;
        }
        Some(Arc::clone(mark))
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
    /// commits. Returns the digest of the batch and its execution result
    /// (fed back to the consensus engine for checkpointing) and the
    /// outgoing reply messages. Works in buffers kept from the previous
    /// batch, which it outgrows only with a larger batch: what it
    /// allocates is the replies (per client an envelope and its results'
    /// two flat buffers) and the pre-image log's record (and the block's
    /// certificate, for a borrowed `item`).
    pub fn execute(&self, item: impl CommitItem) -> (Digest, Vec<OutItem>) {
        let mut scratch = self.scratch.lock();
        let Scratch {
            writes,
            overlay,
            results,
            ends,
            buf,
        } = &mut *scratch;
        writes.clear();
        overlay.clear();
        results.clear();
        ends.clear();
        for txn in &item.borrow().batch.txns {
            let from = writes.len;
            let read = |key, earlier: &[WriteRecord], buf: &mut Vec<u8>| match overlay.get(&key) {
                Some(&at) => {
                    earlier[at].value.clone_into(buf);
                    true
                }
                None => self.store.get_into(key, buf),
            };
            evaluate(txn, read, writes, buf, results);
            ends.push(results.len());
            for (at, w) in writes.written().iter().enumerate().skip(from) {
                overlay.insert(w.key, at);
            }
        }
        hash_records(writes.written_mut());
        let results = (0..ends.len()).map(|i| {
            let start = if i == 0 { 0 } else { ends[i - 1] };
            &results[start..ends[i]]
        });
        self.commit(item, results, writes.written())
    }

    /// The in-order half of execution: applies the buffered writes in
    /// canonical order, appends the block, builds the client replies and
    /// bumps the executed counters. `results` yields one reply payload per
    /// transaction, in batch order, borrowed from wherever execution left
    /// it: [`client_replies`] copies each once, into its client's reply.
    ///
    /// Callers (the serial path above and the parallel scheduler) must
    /// invoke this in sequence order — the ledger append asserts it.
    pub fn commit<'a>(
        &self,
        item: impl CommitItem,
        results: impl ExactSizeIterator<Item = &'a [u8]> + Clone,
        writes: &[WriteRecord],
    ) -> (Digest, Vec<OutItem>) {
        let it = item.borrow();
        let (seq, view, digest, history) = (it.seq, it.view, it.digest, it.history);
        let txns = it.batch.len();
        debug_assert_eq!(results.len(), txns);
        let interval = self.snapshot_interval.load(Ordering::Relaxed);
        // PBFT without marks has no reader for the undo log.
        let logged = self.protocol == ProtocolKind::Zyzzyva || interval > 0;
        let mut fresh_ids = Vec::with_capacity(if logged { txns } else { 0 });
        let mut fresh = 0u64;
        {
            let mut seen = self.seen.lock();
            for txn in it.batch.txns.iter().filter(|t| seen.insert(t.id)) {
                fresh += 1;
                if logged {
                    fresh_ids.push(txn.id);
                }
            }
        }
        let dups = txns as u64 - fresh;
        let stable = {
            // Store and log move together under the log's lock (free
            // unless a snapshot is being built: only this thread commits).
            let mut log = self.log.lock();
            if logged {
                let record = UndoRecord::apply(&*self.store, writes, fresh_ids, dups);
                log.undo.insert(seq, record);
            } else {
                self.store.apply(writes);
            }
            log.stable
        };
        let replies = client_replies(it, self.id, results);
        // Append the block. Its result digest lets replicas cross-check
        // execution sequence by sequence; only a mark boundary needs it to
        // be the store's Merkle root (the checkpoint vote, the snapshot
        // mark and `verify_snapshot` read it there), so only a boundary
        // pays for bringing the tree up to date.
        let boundary = interval > 0 && seq.0.is_multiple_of(interval);
        let result_digest = if boundary {
            self.store.state_digest()
        } else {
            let prev = self.chain.lock().head().result_digest;
            write_set_digest(prev, writes)
        };
        // Encoded before the certificate moves into the block.
        let durable = (self.durability.lock().clone()).map(|d| (d, commit_entry_bytes(it)));
        let certificate = item.into_certificate();
        let mut chain = self.chain.lock();
        chain
            .append(seq, digest, view, certificate, txns as u32, result_digest)
            .expect("execution is sequential, append cannot gap");
        // Catches up with a stable checkpoint that was ahead of execution.
        chain.prune_below(stable);
        drop(chain);
        // The checkpoint state digest must be identical across replicas, so
        // it covers the ordered batch digest and the execution result — NOT
        // the block certificate (each replica legitimately collects a
        // different 2f+1 commit-signature set).
        let state_digest = chain_digest(&digest, &result_digest);
        self.executed_txns.fetch_add(fresh, Ordering::Relaxed);
        self.deduped_txns.fetch_add(dups, Ordering::Relaxed);
        self.executed_batches.fetch_add(1, Ordering::Relaxed);
        if boundary {
            self.capture_snapshot(seq, history);
        }
        // Make the batch durable before its replies leave the replica.
        if let Some((durability, entry)) = durable {
            durability.log_raw(&entry);
        }
        (state_digest, replies)
    }

    /// Marks the serving snapshot at `seq`: the chain block just appended
    /// there and no record — those are copied when somebody asks. Runs on
    /// the execute path at checkpoint cadence, so every replica marks
    /// identical state at identical sequences (the f+1 agreement a
    /// receiver requires).
    fn capture_snapshot(&self, seq: SeqNum, history: Option<Digest>) {
        let Some(block) = self
            .chain
            .lock()
            .blocks_between(SeqNum(seq.0 - 1), seq)
            .pop()
        else {
            return;
        };
        let mut log = self.log.lock();
        let snapshot = Snapshot {
            base_seq: seq,
            block,
            history: history.unwrap_or(Digest::ZERO),
            records: Vec::new(),
        };
        log.mark = Some(Arc::new(snapshot));
        log.built = false;
        log.prune(self.protocol);
    }

    /// Rolls speculative execution back so the last executed sequence is
    /// `to`: restores displaced values newest-first, truncates the ledger,
    /// and reverses the dedup/counter bookkeeping. Returns the number of
    /// batches undone. The rewound state is bit-identical to a replica
    /// that never executed the suffix — the store's Merkle commitment is
    /// content-only, so restoring every touched record restores the root.
    ///
    /// Always 0 under PBFT: committed batches are final, and its log
    /// exists for the snapshot mark alone (restart recovery ends with a
    /// rollback to the stable floor and relies on this).
    pub fn rollback_to(&self, to: SeqNum) -> usize {
        if self.protocol != ProtocolKind::Zyzzyva {
            return 0;
        }
        let mut log = self.log.lock();
        let suffix = log.undo.split_off(&to.next());
        // The store is about to rewind below the mark: what the mark
        // stood for is gone.
        if log.mark.as_ref().is_some_and(|m| m.base_seq > to) {
            log.mark = None;
        }
        let undone = suffix.len();
        let mut seen = self.seen.lock();
        for (_, rec) in suffix.into_iter().rev() {
            for (key, pre) in rec.pre_images().rev() {
                match pre {
                    Some(value) => self.store.put(key, value),
                    None => {
                        self.store.remove(key);
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
        drop(log);
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

    /// Records that the checkpoint at `seq` became 2f+1-stable — nothing
    /// at or below it can roll back any more: drops the log records no
    /// rollback or mark can still read, prunes the ledger below `seq` (up
    /// to its head; each commit prunes on) and, when durable, logs a
    /// `Stable` marker. Once the WAL has grown as large as the last
    /// persisted snapshot ([`Durability::snapshot_due`]) it also persists
    /// the serving snapshot, if the mark's base is covered by the stable
    /// floor, and compacts the WAL down to the suffix above it: the one
    /// place a healthy durable replica pays for materialising a snapshot,
    /// once per log grown by a snapshot's size. The execute stage calls it
    /// behind every rollback before it, so nothing a rollback needs is
    /// pruned.
    pub fn note_stable(&self, seq: SeqNum) {
        {
            let mut log = self.log.lock();
            log.stable = log.stable.max(seq);
            log.prune(self.protocol);
        }
        self.chain.lock().prune_below(seq);
        let Some(durability) = self.durability.lock().clone() else {
            return;
        };
        durability.log(&WalEntry::Stable { seq });
        if !durability.snapshot_due() {
            return;
        }
        if let Some(snapshot) = self.snapshot_where(|base| base <= seq) {
            durability.persist_stable(&snapshot);
        }
    }

    /// Replaces the replica state with a verified snapshot: the store
    /// contents, the ledger re-based at the snapshot block, a cleared
    /// pre-image log, and — since the old mark read that log — the
    /// installed snapshot as the new mark. Executed-counter totals
    /// (`executed_txns`, `executed_batches`, `deduped_txns`) are *not*
    /// advanced — the point of state transfer is that the receiver skips
    /// re-executing the transferred history, so the counters keep meaning
    /// "work this process actually performed" (restart replay and the
    /// smoke scripts rely on that reading).
    pub fn install_snapshot(&self, snapshot: &Arc<Snapshot>) {
        let mut log = self.log.lock();
        self.store.install_records(&snapshot.records);
        self.chain
            .lock()
            .install_snapshot_block(snapshot.block.clone());
        log.undo.clear();
        log.mark = Some(Arc::clone(snapshot));
        log.built = true;
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
        let (digest, replies) = ex.execute(exec_item(1, None));
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
        let (_, replies) = ex.execute(exec_item(1, Some(h)));
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
        let (da, ra) = a.execute(exec_item(1, None));
        let (db, rb) = b.execute(exec_item(1, None));
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
        ex.execute(exec_item(1, None));
        ex.execute(exec_item(2, None));
        assert_eq!(ex.chain.lock().head_seq(), SeqNum(2));
        assert!(ex.chain.lock().verify().is_ok());
    }

    #[test]
    fn retransmitted_txns_replied_but_counted_once() {
        let ex = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        let (_, r1) = ex.execute(exec_item(1, None));
        // The same transactions ordered again at a later sequence (a
        // retransmission that crossed a view change).
        let (_, r2) = ex.execute(exec_item(2, None));
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
        let (state, replies) = ex.execute(interleaved_item(None));
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
                    results: results.into_iter().collect(),
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
        let (_, replies) = ex.execute(interleaved_item(Some(h)));
        let counters: Vec<Vec<u64>> = replies
            .iter()
            .map(|r| match &r.msg {
                Message::SpecResponse {
                    history, results, ..
                } if *history == h => results.iter().map(|(c, _)| c).collect(),
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

    /// An executor over `store` with the ledger mode its protocol runs in
    /// `spawn_replica`: speculative chains carry no certificates, so
    /// Zyzzyva's certificate quorum is zero.
    fn executor_on(protocol: ProtocolKind, store: Arc<dyn StateStore>) -> Executor {
        let (quorum, mode) = match protocol {
            ProtocolKind::Pbft => (3, ChainMode::Certificate),
            ProtocolKind::Zyzzyva => (0, ChainMode::PrevHash),
        };
        let chain = Arc::new(Mutex::new(Blockchain::new(Digest::ZERO, quorum, mode)));
        Executor::new(ReplicaId(1), protocol, store, chain)
    }

    fn zyz_executor() -> Executor {
        executor_on(ProtocolKind::Zyzzyva, Arc::new(MemStore::new()))
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
        ex.execute(tagged_item(1, 1));
        let state_at_1 = ex.store.state_digest();
        let head_at_1 = ex.chain.lock().head_digest();
        // A divergent speculative suffix.
        ex.execute(tagged_item(2, 66));
        ex.execute(tagged_item(3, 66));
        assert_eq!(ex.executed_batches(), 3);
        assert_eq!(ex.rollback_to(SeqNum(1)), 2);
        assert_eq!(ex.store.state_digest(), state_at_1);
        assert_eq!(ex.chain.lock().head_digest(), head_at_1);
        assert_eq!(ex.executed_batches(), 1);
        assert_eq!(ex.executed_txns(), 3);
        // Re-executing the reconciled history converges with a replica
        // that never speculated.
        ex.execute(tagged_item(2, 2));
        ex.execute(tagged_item(3, 2));
        let clean = zyz_executor();
        clean.execute(tagged_item(1, 1));
        clean.execute(tagged_item(2, 2));
        clean.execute(tagged_item(3, 2));
        assert_eq!(ex.store.state_digest(), clean.store.state_digest());
        assert_eq!(ex.executed_txns(), clean.executed_txns());
    }

    #[test]
    fn rollback_removes_rewound_txns_from_dedup_set() {
        let ex = zyz_executor();
        ex.execute(tagged_item(1, 1));
        ex.execute(tagged_item(2, 9));
        ex.rollback_to(SeqNum(1));
        // The same transactions re-ordered after reconciliation must count
        // as fresh, not as retransmissions.
        ex.execute(tagged_item(2, 9));
        assert_eq!(ex.executed_txns(), 6);
        assert_eq!(ex.deduped_txns(), 0);
    }

    #[test]
    fn snapshot_capture_and_install_round_trip() {
        let ex = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        ex.set_snapshot_interval(2);
        ex.execute(exec_item(1, None));
        assert!(ex.latest_snapshot().is_none(), "seq 1 is off-cadence");
        ex.execute(exec_item(2, None));
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
        let (da, _) = ex.execute(exec_item(3, None));
        let (db, _) = fresh.execute(exec_item(3, None));
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
        source.execute(exec_item(1, None));
        source.execute(exec_item(2, None));
        let snap = source.latest_snapshot().expect("captured at seq 2");

        let receiver = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        receiver.execute(exec_item(1, None)); // some pre-transfer work
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
        ex.execute(tagged_item(1, 1));
        ex.execute(tagged_item(2, 2));
        ex.note_stable(SeqNum(2));
        assert_eq!(
            ex.rollback_to(SeqNum(0)),
            0,
            "checkpointed prefix cannot rewind"
        );
    }

    // ---- the snapshot mark and the pre-image log ----

    const INTERVAL: u64 = 4;
    const KEYS: u64 = 24;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A seeded batch over a tiny key space, so batches overwrite each
    /// other, create keys late, and — the last transaction rewrites the
    /// first one's key — write one key twice.
    fn random_item(seq: u64, rng: &mut u64, protocol: ProtocolKind) -> ExecuteItem {
        let mut txns: Vec<Transaction> = (0..4u64)
            .map(|i| {
                let ops = (0..1 + xorshift(rng) % 2)
                    .map(|_| Operation::Write {
                        key: xorshift(rng) % KEYS,
                        value: xorshift(rng).to_le_bytes()[..1 + (seq + i) as usize % 8].to_vec(),
                    })
                    .collect();
                Transaction::new(ClientId(i), xorshift(rng), ops)
            })
            .collect();
        let Operation::Write { key, .. } = txns[0].ops[0] else {
            unreachable!("random_item only writes")
        };
        let again = Operation::Write {
            key,
            value: vec![seq as u8],
        };
        txns.push(Transaction::new(ClientId(9), xorshift(rng), vec![again]));
        let zyzzyva = protocol == ProtocolKind::Zyzzyva;
        ExecuteItem {
            seq: SeqNum(seq),
            view: ViewNum(0),
            digest: Digest([xorshift(rng) as u8; 32]),
            batch: Arc::new(txns.into_iter().collect()),
            certificate: match protocol {
                ProtocolKind::Pbft => exec_item(seq, None).certificate,
                ProtocolKind::Zyzzyva => BlockCertificate::default(),
            },
            history: zyzzyva.then_some(Digest([seq as u8 | 0x80; 32])),
        }
    }

    /// What eager capture produced: the store copied whole, right now.
    fn eager_snapshot(ex: &Executor, item: &ExecuteItem) -> Snapshot {
        let block = ex.chain.lock().blocks_between(item.seq.prev(), item.seq);
        Snapshot {
            base_seq: item.seq,
            block: block.into_iter().next().expect("block just appended"),
            history: item.history.unwrap_or(Digest::ZERO),
            records: ex.store.export_records(),
        }
    }

    /// The snapshot materialised `after` batches past the mark is the one
    /// an oracle exports eagerly *at* the mark — under Zyzzyva with a
    /// mis-speculated suffix executed and rewound in between.
    fn materialised_equals_eager(protocol: ProtocolKind) {
        for seed in 1..=12u64 {
            for after in [0, 1, INTERVAL - 1] {
                let mut rng = seed;
                let prefix: Vec<ExecuteItem> = (1..=INTERVAL)
                    .map(|seq| random_item(seq, &mut rng, protocol))
                    .collect();
                let oracle = executor_on(protocol, Arc::new(MemStore::new()));
                oracle.set_snapshot_interval(INTERVAL);
                prefix.iter().for_each(|item| drop(oracle.execute(item)));
                let expected = eager_snapshot(&oracle, &prefix[INTERVAL as usize - 1]);
                assert!(crate::recovery::verify_snapshot(&expected));

                let ex = executor_on(protocol, Arc::new(MemStore::new()));
                ex.set_snapshot_interval(INTERVAL);
                prefix.iter().for_each(|item| drop(ex.execute(item)));
                if protocol == ProtocolKind::Zyzzyva && after > 0 {
                    for seq in INTERVAL + 1..=INTERVAL + after {
                        ex.execute(random_item(seq, &mut rng, protocol));
                    }
                    // Rewind to the mark, or to one batch above it.
                    let to = INTERVAL + (seed % 2).min(after - 1);
                    assert_eq!(ex.rollback_to(SeqNum(to)), (INTERVAL + after - to) as usize);
                    for seq in to + 1..=INTERVAL + after {
                        ex.execute(random_item(seq, &mut rng, protocol));
                    }
                } else {
                    for seq in INTERVAL + 1..=INTERVAL + after {
                        ex.execute(random_item(seq, &mut rng, protocol));
                    }
                }
                let snapshot = ex.latest_snapshot().expect("marked at the interval");
                let case = format!("{protocol:?} seed {seed}, {after} batches after the mark");
                assert_eq!(snapshot.records, expected.records, "{case}");
                assert_eq!(snapshot.agreement_key(), expected.agreement_key(), "{case}");
                assert_eq!(*snapshot, expected, "{case}");
                assert!(crate::recovery::verify_snapshot(&snapshot), "{case}");
            }
        }
    }

    #[test]
    fn materialised_snapshot_equals_eager_capture_on_memstore() {
        for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
            materialised_equals_eager(protocol);
        }
    }

    #[test]
    fn rewind_handles_keys_that_appeared_and_vanished_since() {
        let rec = |k: u64, v: u8| (k, vec![v]);
        let mut records = vec![rec(1, 10), rec(3, 30), rec(5, 50)];
        let log: [(u64, Option<&[u8]>); 5] = [
            (3, Some(&[3])),  // overwritten since: oldest image wins…
            (3, Some(&[33])), // …not this later one
            (5, None),        // created since
            (4, Some(&[4])),  // removed since
            (7, None),        // created and removed since
        ];
        rewind(&mut records, log.into_iter());
        assert_eq!(records, vec![rec(1, 10), rec(3, 3), rec(4, 4)]);
    }

    /// A store that counts how often it is copied whole and how often it
    /// is asked for its digest (the one call that flushes the tree).
    struct CountingStore {
        inner: MemStore,
        exports: AtomicU64,
        digests: AtomicU64,
    }

    impl CountingStore {
        fn with_table() -> Arc<Self> {
            Arc::new(CountingStore {
                inner: MemStore::with_table(KEYS, 8),
                exports: AtomicU64::new(0),
                digests: AtomicU64::new(0),
            })
        }
    }

    impl StateStore for CountingStore {
        fn get_into(&self, key: u64, out: &mut Vec<u8>) -> bool {
            self.inner.get_into(key, out)
        }
        fn put(&self, key: u64, value: &[u8]) {
            self.inner.put(key, value);
        }
        fn apply_logged(
            &self,
            writes: &[WriteRecord],
            displaced: &mut dyn FnMut(u64, Option<&[u8]>),
        ) {
            self.inner.apply_logged(writes, displaced);
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn state_digest(&self) -> Digest {
            self.digests.fetch_add(1, Ordering::Relaxed);
            self.inner.state_digest()
        }
        fn remove(&self, key: u64) -> bool {
            self.inner.remove(key)
        }
        fn export_records(&self) -> Vec<(u64, Vec<u8>)> {
            self.exports.fetch_add(1, Ordering::Relaxed);
            self.inner.export_records()
        }
        fn install_records(&self, records: &[(u64, Vec<u8>)]) {
            self.inner.install_records(records);
        }
    }

    #[test]
    fn marks_copy_nothing_and_each_is_materialised_at_most_once() {
        let store = CountingStore::with_table();
        let ex = executor_on(
            ProtocolKind::Pbft,
            Arc::clone(&store) as Arc<dyn StateStore>,
        );
        ex.set_snapshot_interval(INTERVAL);
        let mut rng = 7;
        let mut run = |through: u64| {
            let from = ex.executed_batches() + 1;
            for seq in from..=through {
                ex.execute(random_item(seq, &mut rng, ProtocolKind::Pbft));
            }
        };
        run(5 * INTERVAL + 1);
        assert_eq!(ex.snapshot_base(), Some(SeqNum(5 * INTERVAL)));
        assert_eq!(
            store.exports.load(Ordering::Relaxed),
            0,
            "five marks, no demand"
        );
        let first = ex.latest_snapshot().expect("marked");
        for _ in 0..3 {
            assert!(Arc::ptr_eq(&first, &ex.latest_snapshot().expect("marked")));
        }
        assert_eq!(
            store.exports.load(Ordering::Relaxed),
            1,
            "built once per mark"
        );
        run(6 * INTERVAL);
        assert_eq!(
            store.exports.load(Ordering::Relaxed),
            1,
            "a new mark is free again"
        );
        assert_eq!(
            ex.latest_snapshot().expect("marked").base_seq,
            SeqNum(6 * INTERVAL)
        );
        assert_eq!(store.exports.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn snapshots_materialised_while_commits_race_them_all_verify() {
        use std::sync::atomic::AtomicBool;
        const MARKS: usize = 6;
        let ex = executor_on(ProtocolKind::Pbft, Arc::new(MemStore::with_table(KEYS, 8)));
        ex.set_snapshot_interval(INTERVAL);
        let stop = AtomicBool::new(false);
        let (checked, bad) = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut rng = 3;
                let mut seq = 0;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    ex.execute(random_item(seq, &mut rng, ProtocolKind::Pbft));
                }
            });
            // Every call lands between two commits or inside one; the
            // committer never pauses for it except on the log's lock.
            let mut seen: Vec<SeqNum> = Vec::new();
            let mut bad = Vec::new();
            while seen.len() < MARKS {
                let Some(snapshot) = ex.latest_snapshot() else {
                    continue;
                };
                if seen.last() != Some(&snapshot.base_seq) {
                    seen.push(snapshot.base_seq);
                    if !crate::recovery::verify_snapshot(&snapshot) {
                        bad.push(snapshot.base_seq);
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
            (seen, bad)
        });
        assert_eq!(checked.len(), MARKS);
        assert!(
            bad.is_empty(),
            "snapshots at {bad:?} do not hash back to their block"
        );
    }

    #[test]
    fn pbft_log_never_outgrows_one_interval_and_is_empty_without_marks() {
        let ex = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        ex.set_snapshot_interval(INTERVAL);
        let mut rng = 11;
        for seq in 1..=10 * INTERVAL {
            ex.execute(random_item(seq, &mut rng, ProtocolKind::Pbft));
            // Stability is none of its business: some checkpoints never
            // become stable here, some do late.
            if seq % (3 * INTERVAL) == 0 {
                ex.note_stable(SeqNum(seq - INTERVAL));
            }
            assert_eq!(
                ex.log.lock().undo.len() as u64,
                seq % INTERVAL,
                "after {seq}"
            );
        }
        let unmarked = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        for seq in 1..=INTERVAL {
            unmarked.execute(random_item(seq, &mut rng, ProtocolKind::Pbft));
        }
        assert!(unmarked.log.lock().undo.is_empty(), "no reader, no log");
    }

    #[test]
    fn pbft_rollback_is_a_no_op_even_with_a_log_to_rewind() {
        let ex = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        ex.set_snapshot_interval(INTERVAL);
        let mut rng = 5;
        for seq in 1..INTERVAL {
            ex.execute(random_item(seq, &mut rng, ProtocolKind::Pbft));
        }
        let (state, batches) = (ex.store.state_digest(), ex.executed_batches());
        assert_eq!(ex.rollback_to(SeqNum(0)), 0, "committed batches are final");
        assert_eq!(ex.store.state_digest(), state);
        assert_eq!(ex.executed_batches(), batches);
        assert_eq!(ex.chain.lock().head_seq(), SeqNum(INTERVAL - 1));
    }

    #[test]
    fn install_snapshot_replaces_the_mark_it_invalidates() {
        let mut rng = 2;
        let items: Vec<ExecuteItem> = (1..=2 * INTERVAL)
            .map(|seq| random_item(seq, &mut rng, ProtocolKind::Pbft))
            .collect();
        let source = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        source.set_snapshot_interval(INTERVAL);
        items.iter().for_each(|item| drop(source.execute(item)));
        let transferred = source.latest_snapshot().expect("marked at 2Δ");

        // The receiver holds an unbuilt mark at Δ and log records above it.
        let receiver = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        receiver.set_snapshot_interval(INTERVAL);
        items[..INTERVAL as usize + 1]
            .iter()
            .for_each(|item| drop(receiver.execute(item)));
        assert_eq!(receiver.snapshot_base(), Some(SeqNum(INTERVAL)));
        receiver.install_snapshot(&transferred);
        let served = receiver.latest_snapshot().expect("the installed one");
        assert_eq!(served.base_seq, SeqNum(2 * INTERVAL));
        assert!(
            Arc::ptr_eq(&served, &transferred),
            "already built: not copied again"
        );
        assert!(receiver.log.lock().undo.is_empty());
        // And the next mark materialises from the installed state.
        for seq in 2 * INTERVAL + 1..=3 * INTERVAL + 1 {
            let item = random_item(seq, &mut rng, ProtocolKind::Pbft);
            source.execute(&item);
            receiver.execute(&item);
        }
        let (a, b) = (source.latest_snapshot(), receiver.latest_snapshot());
        assert_eq!(a, b);
        assert!(crate::recovery::verify_snapshot(&b.expect("marked at 3Δ")));
    }

    #[test]
    fn zyzzyva_rollback_below_the_mark_drops_it() {
        let ex = zyz_executor();
        ex.set_snapshot_interval(2);
        ex.execute(tagged_item(1, 1));
        ex.execute(tagged_item(2, 66)); // mis-speculated, and marked
        ex.execute(tagged_item(3, 66));
        assert_eq!(ex.snapshot_base(), Some(SeqNum(2)));
        assert_eq!(ex.rollback_to(SeqNum(1)), 2);
        assert_eq!(ex.latest_snapshot(), None, "the state it stood for is gone");
        // The reconciled history marks sequence 2 afresh.
        ex.execute(tagged_item(2, 2));
        ex.execute(tagged_item(3, 2));
        let clean = zyz_executor();
        clean.set_snapshot_interval(2);
        clean.execute(tagged_item(1, 1));
        clean.execute(tagged_item(2, 2));
        let snapshot = ex.latest_snapshot().expect("marked again");
        assert_eq!(*snapshot, eager_snapshot(&clean, &tagged_item(2, 2)));
    }

    #[test]
    fn zyzzyva_keeps_the_log_under_a_lagging_replicas_mark() {
        // This replica marked 2 and executed 3; its peers already made
        // the checkpoint at 4 stable without it.
        let ex = zyz_executor();
        ex.set_snapshot_interval(2);
        let clean = zyz_executor();
        clean.set_snapshot_interval(2);
        for seq in 1..=3 {
            ex.execute(tagged_item(seq, seq as u8));
            if seq <= 2 {
                clean.execute(tagged_item(seq, seq as u8));
            }
        }
        ex.note_stable(SeqNum(4));
        assert_eq!(
            ex.log.lock().undo.keys().copied().collect::<Vec<_>>(),
            [SeqNum(3)],
            "pruned through min(stable, mark), not through stable"
        );
        let snapshot = ex.latest_snapshot().expect("marked at 2");
        assert_eq!(*snapshot, eager_snapshot(&clean, &tagged_item(2, 2)));
        // Once its own mark reaches 4, stability prunes through it.
        ex.execute(tagged_item(4, 4));
        ex.execute(tagged_item(5, 5));
        assert_eq!(
            ex.log.lock().undo.keys().copied().collect::<Vec<_>>(),
            [SeqNum(5)]
        );
    }

    // ---- the per-block result digest ----

    fn block(ex: &Executor, seq: u64) -> rdb_common::block::Block {
        let chain = ex.chain.lock();
        chain.block_at(SeqNum(seq)).expect("retained").clone()
    }

    fn prefix8(d: Digest) -> u64 {
        u64::from_be_bytes(d.0[..8].try_into().expect("8 bytes"))
    }

    #[test]
    fn a_boundary_block_carries_the_store_root_and_nothing_else_asks_for_it() {
        // What the parent commit — which put the root in every block —
        // computed at sequences 4 and 8 for these items: the block's
        // result digest and the digest handed to the engine.
        const GOLDEN: [(u64, u64); 2] = [
            (0x22f4_43d9_68de_ef4d, 0xb3a7_58af_3674_6d20),
            (0xd1e9_22fb_fe28_08fc, 0x1796_5de1_b79f_0c41),
        ];
        for protocol in [ProtocolKind::Pbft, ProtocolKind::Zyzzyva] {
            let store = CountingStore::with_table();
            let ex = executor_on(protocol, Arc::clone(&store) as Arc<dyn StateStore>);
            ex.set_snapshot_interval(INTERVAL);
            let mut rng = 1;
            let mut golden = GOLDEN.iter();
            for seq in 1..=2 * INTERVAL {
                let item = random_item(seq, &mut rng, protocol);
                let (state, _) = ex.execute(&item);
                let result = block(&ex, seq).result_digest;
                assert_eq!(state, chain_digest(&item.digest, &result));
                assert_eq!(
                    store.digests.load(Ordering::Relaxed),
                    seq / INTERVAL,
                    "one flush per boundary, none in between (after {seq})"
                );
                if seq % INTERVAL == 0 {
                    assert_eq!(result, store.inner.state_digest(), "{protocol:?} {seq}");
                    let expected = golden.next().expect("two boundaries");
                    assert_eq!((prefix8(result), prefix8(state)), *expected);
                } else {
                    assert_ne!(result, store.inner.state_digest(), "{protocol:?} {seq}");
                }
            }
        }
    }

    #[test]
    fn without_an_interval_the_executor_never_asks_for_the_root() {
        let store = CountingStore::with_table();
        let ex = executor_on(
            ProtocolKind::Zyzzyva,
            Arc::clone(&store) as Arc<dyn StateStore>,
        );
        let mut rng = 4;
        for seq in 1..=3 * INTERVAL {
            ex.execute(random_item(seq, &mut rng, ProtocolKind::Zyzzyva));
        }
        ex.rollback_to(SeqNum(INTERVAL));
        assert_eq!(store.digests.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn between_boundaries_blocks_agree_exactly_when_the_writes_do() {
        let same_writes_reordered = |seq: u64| {
            let mut item = exec_item(seq, None);
            let mut txns = item.batch.txns.clone();
            txns.swap(0, 1);
            item.batch = Arc::new(txns.into_iter().collect());
            item
        };
        let [a, b, swapped] = [(); 3].map(|_| {
            let ex = executor(ProtocolKind::Pbft, ChainMode::Certificate);
            ex.set_snapshot_interval(INTERVAL);
            ex
        });
        for seq in 1..INTERVAL {
            let (da, _) = a.execute(exec_item(seq, None));
            let (db, _) = b.execute(exec_item(seq, None));
            let item = match seq {
                2 => same_writes_reordered(seq),
                _ => exec_item(seq, None),
            };
            let (ds, _) = swapped.execute(&item);
            assert_eq!(block(&a, seq), block(&b, seq));
            assert_eq!(da, db);
            // Two writes to distinct keys in the other order: the same
            // store, a different execution — and every block after it
            // says so, since each chains on the one before.
            assert_eq!(swapped.store.state_digest(), a.store.state_digest());
            assert_eq!(
                block(&swapped, seq).result_digest == block(&a, seq).result_digest,
                seq < 2,
                "at {seq}"
            );
            assert_eq!(ds == da, seq < 2);
        }
        // The boundary block commits to the store alone.
        a.execute(exec_item(INTERVAL, None));
        swapped.execute(exec_item(INTERVAL, None));
        assert_eq!(
            block(&a, INTERVAL).result_digest,
            block(&swapped, INTERVAL).result_digest
        );
    }

    #[test]
    fn zyzzyva_rollback_across_a_boundary_converges_with_the_clean_history() {
        let ex = zyz_executor();
        let clean = zyz_executor();
        ex.set_snapshot_interval(INTERVAL);
        clean.set_snapshot_interval(INTERVAL);
        for seq in 1..INTERVAL - 1 {
            ex.execute(tagged_item(seq, 1));
            clean.execute(tagged_item(seq, 1));
        }
        // Mis-speculated from before the boundary to past it.
        for seq in INTERVAL - 1..=INTERVAL + 2 {
            ex.execute(tagged_item(seq, 66));
        }
        assert_eq!(ex.rollback_to(SeqNum(INTERVAL - 2)), 4);
        for seq in INTERVAL - 1..=INTERVAL + 2 {
            ex.execute(tagged_item(seq, 2));
            clean.execute(tagged_item(seq, 2));
            assert_eq!(block(&ex, seq), block(&clean, seq), "at {seq}");
        }
        assert_eq!(
            ex.chain.lock().head_digest(),
            clean.chain.lock().head_digest()
        );
        assert_eq!(ex.store.state_digest(), clean.store.state_digest());
        assert_eq!(ex.latest_snapshot(), clean.latest_snapshot());
    }

    #[test]
    fn a_snapshot_installer_derives_the_same_blocks_as_its_source() {
        let mut rng = 6;
        let source = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        let receiver = executor(ProtocolKind::Pbft, ChainMode::Certificate);
        source.set_snapshot_interval(INTERVAL);
        receiver.set_snapshot_interval(INTERVAL);
        for seq in 1..=INTERVAL + 1 {
            source.execute(random_item(seq, &mut rng, ProtocolKind::Pbft));
        }
        // Materialised one batch past the mark, installed, and the batch
        // above the mark replayed: the chained digest picks up from the
        // snapshot block.
        receiver.install_snapshot(&source.latest_snapshot().expect("marked"));
        let mut replay = 6;
        for seq in 1..=2 * INTERVAL {
            let item = random_item(seq, &mut replay, ProtocolKind::Pbft);
            if seq > INTERVAL + 1 {
                source.execute(&item);
            }
            if seq > INTERVAL {
                receiver.execute(&item);
                assert_eq!(block(&receiver, seq), block(&source, seq), "at {seq}");
            }
        }
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
                assert_eq!(*results, [(0, [7, 7, 7])].into_iter().collect())
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
