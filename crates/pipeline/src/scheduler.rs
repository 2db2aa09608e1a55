//! Deterministic parallel execution via read/write-set conflict scheduling.
//!
//! The Fabric lesson (Androulaki et al.) applied to the paper's ordered
//! pipeline: each transaction declares the keys it reads and writes, so
//! the executor can fan *non-conflicting* transactions out to a pool of
//! execute workers while keeping the committed result bit-identical to
//! serial execution.
//!
//! The scheme, for one in-order window of committed sequences:
//!
//! 1. [`conflict_waves`] partitions the window's transactions (in canonical
//!    order) into *waves*: transaction `j` lands one level above the
//!    deepest earlier transaction `i < j` it conflicts with (write-write,
//!    write-read or read-write key overlap). Same-wave transactions are
//!    pairwise conflict-free by construction.
//! 2. Each wave is chunked across the [`ExecPool`] workers. A worker
//!    evaluates its transactions with [`execute_txn`] against a frozen
//!    read view: the overlay of all *completed* waves' writes, falling
//!    through to the base store. Any key a transaction reads is, by the
//!    wave invariant, last written either in an earlier wave (visible in
//!    the overlay) or by itself (read-your-own-writes) — exactly what
//!    serial execution would observe.
//! 3. After the last wave, the coordinator commits each sequence in order
//!    through [`Executor::commit`]: buffered writes are applied to the
//!    store in canonical order, the block is appended, and `on_executed`
//!    fires with a `state_digest` identical to serial execution's.
//!
//! The base store is never touched between waves — writes live in the
//! overlay until the in-order commit — so workers read a consistent
//! snapshot without any versioning machinery in the store itself.

use crate::executor::{execute_txn, Executor, OutItem, TxnOutcome};
use crate::metrics::StageRecorder;
use crate::queues::CommitItem;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use rdb_common::{Batch, Digest, Transaction};
use rdb_storage::StateStore;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Partitions `txns` (in canonical serial order) into conflict-free waves.
///
/// Returns wave buckets of indices into `txns`, each bucket ascending.
/// Wave `w+1` transactions conflict only with waves `≤ w`; transactions
/// within one wave are pairwise non-conflicting, so they may execute in
/// any interleaving without changing the serial-order outcome.
pub fn conflict_waves(txns: &[&Transaction]) -> Vec<Vec<usize>> {
    /// Per-key scheduling state: the last writer and the readers since.
    #[derive(Default)]
    struct KeyState {
        last_writer: Option<usize>,
        readers: Vec<usize>,
    }

    let mut level = vec![0usize; txns.len()];
    let mut keys: HashMap<u64, KeyState> = HashMap::new();
    let mut max_level = 0;
    for (i, txn) in txns.iter().enumerate() {
        let rw = txn.rw_set();
        let mut lvl = 0;
        for k in &rw.reads {
            // A read must follow the latest earlier write of the key.
            if let Some(state) = keys.get(k) {
                if let Some(w) = state.last_writer {
                    lvl = lvl.max(level[w] + 1);
                }
            }
        }
        for k in &rw.writes {
            // A write must follow the latest earlier write *and* every
            // read of that version (write-read anti-dependency).
            if let Some(state) = keys.get(k) {
                if let Some(w) = state.last_writer {
                    lvl = lvl.max(level[w] + 1);
                }
                for &r in &state.readers {
                    lvl = lvl.max(level[r] + 1);
                }
            }
        }
        level[i] = lvl;
        max_level = max_level.max(lvl);
        for k in &rw.writes {
            let state = keys.entry(*k).or_default();
            state.last_writer = Some(i);
            state.readers.clear();
        }
        for k in &rw.reads {
            // A key both read and written is covered by last_writer.
            if !rw.writes.contains(k) {
                keys.entry(*k).or_default().readers.push(i);
            }
        }
    }
    let mut waves = vec![Vec::new(); max_level + 1];
    for (i, lvl) in level.iter().enumerate() {
        waves[*lvl].push(i);
    }
    waves
}

/// One unit of pool work: evaluate the flat-index range `[lo, hi)` of
/// `wave` within the shared window context.
struct Task {
    ctx: Arc<WindowCtx>,
    wave: usize,
    lo: usize,
    hi: usize,
}

/// Shared state for one scheduling window, read by every worker.
struct WindowCtx {
    /// The window's batches, in sequence order (`Arc` bumps of the batches
    /// already shared with consensus — nothing else from the items is
    /// needed by the workers, so the certificates are never copied).
    batches: Vec<Arc<rdb_common::Batch>>,
    /// Flat transaction index → `(item index, txn index within batch)`.
    flat: Vec<(usize, usize)>,
    /// Conflict waves over flat indices.
    waves: Vec<Vec<usize>>,
    /// Writes of all *completed* waves (frozen while a wave runs).
    overlay: RwLock<HashMap<u64, Vec<u8>>>,
    /// Per-flat-index outcome slots, filled by the workers.
    outcomes: Vec<Mutex<Option<TxnOutcome>>>,
    /// The base store, read through when the overlay misses.
    store: Arc<dyn StateStore>,
    /// Completion signalling back to the coordinator (task count).
    done_tx: Sender<usize>,
}

impl WindowCtx {
    fn run_task(&self, wave: usize, lo: usize, hi: usize) {
        for &fi in &self.waves[wave][lo..hi] {
            let (ii, ti) = self.flat[fi];
            let txn = &self.batches[ii].txns[ti];
            let overlay = self.overlay.read();
            let out = execute_txn(txn, |k| {
                overlay.get(&k).cloned().or_else(|| self.store.get(k))
            });
            drop(overlay);
            *self.outcomes[fi].lock() = Some(out);
        }
    }
}

/// A pool of execute workers fed wave chunks over a channel.
///
/// Dropping the pool closes the channel; workers drain and exit, and the
/// drop joins them.
pub struct ExecPool {
    task_tx: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ExecPool {
    /// Spawns `workers` pool threads. `recorders` (one per worker, padded
    /// by reuse of the last if short) attribute busy time to the execute
    /// stage's saturation metrics.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn new(name: &str, workers: usize, recorders: Vec<StageRecorder>) -> Self {
        assert!(workers > 0, "need at least one execute worker");
        let (task_tx, task_rx): (Sender<Task>, Receiver<Task>) = channel::unbounded();
        let handles = (0..workers)
            .map(|w| {
                let rx = task_rx.clone();
                let rec = recorders
                    .get(w.min(recorders.len().saturating_sub(1)))
                    .cloned();
                std::thread::Builder::new()
                    .name(format!("{name}-exec-pool-{w}"))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            // Catch panics so the coordinator's wave
                            // barrier never hangs on a dead worker: the
                            // count is reported either way, and a missing
                            // outcome turns into a loud coordinator panic
                            // instead of a silent execute-stage stall.
                            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                || match &rec {
                                    Some(rec) => rec
                                        .record(|| task.ctx.run_task(task.wave, task.lo, task.hi)),
                                    None => task.ctx.run_task(task.wave, task.lo, task.hi),
                                },
                            ));
                            let _ = task.ctx.done_tx.send(task.hi - task.lo);
                            if let Err(panic) = outcome {
                                std::panic::resume_unwind(panic);
                            }
                        }
                    })
                    .expect("spawn execute pool worker")
            })
            .collect();
        ExecPool {
            task_tx: Some(task_tx),
            workers: handles,
        }
    }

    /// Number of pool workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    fn sender(&self) -> &Sender<Task> {
        self.task_tx.as_ref().expect("pool is live")
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        // Close the channel so workers fall out of their recv loop.
        self.task_tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The deterministic parallel executor: schedules an in-order window of
/// committed sequences across the pool and commits in sequence order.
pub struct ParallelExecutor {
    executor: Arc<Executor>,
    pool: ExecPool,
}

impl std::fmt::Debug for ParallelExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelExecutor")
            .field("pool", &self.pool)
            .finish()
    }
}

impl ParallelExecutor {
    /// Creates a parallel executor committing through `executor`.
    pub fn new(executor: Arc<Executor>, pool: ExecPool) -> Self {
        ParallelExecutor { executor, pool }
    }

    /// The underlying serial executor (counters, store, chain).
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// Executes `items` — a contiguous in-order window of committed
    /// sequences — and returns `(state_digest, replies)` per item, in
    /// order. The digests are bit-identical to executing each item with
    /// [`Executor::execute`] serially. Owned items move their certificates
    /// into the blocks.
    pub fn execute_window<I: CommitItem>(
        &self,
        items: impl IntoIterator<Item = I>,
    ) -> Vec<(Digest, Vec<OutItem>)> {
        let items: Vec<I> = items.into_iter().collect();
        if items.is_empty() {
            return Vec::new();
        }
        let batches: Vec<Arc<Batch>> = items
            .iter()
            .map(|i| Arc::clone(&i.borrow().batch))
            .collect();
        let flat: Vec<(usize, usize)> = batches
            .iter()
            .enumerate()
            .flat_map(|(ii, batch)| (0..batch.len()).map(move |ti| (ii, ti)))
            .collect();
        let txns: Vec<&Transaction> = flat.iter().map(|&(ii, ti)| &batches[ii].txns[ti]).collect();
        let waves = conflict_waves(&txns);
        let outcomes = (0..txns.len()).map(|_| Mutex::new(None)).collect();
        let (done_tx, done_rx) = channel::unbounded();
        let ctx = Arc::new(WindowCtx {
            batches,
            flat,
            waves,
            overlay: RwLock::new(HashMap::new()),
            outcomes,
            store: Arc::clone(self.executor.store()),
            done_tx,
        });

        let last_wave = ctx.waves.len() - 1;
        for (w, wave) in ctx.waves.iter().enumerate() {
            if wave.is_empty() {
                continue;
            }
            // Chunk the wave so each dispatch amortizes channel overhead;
            // 2× workers keeps the pool busy despite uneven chunks.
            let chunks = (self.pool.worker_count() * 2).min(wave.len());
            let per = wave.len().div_ceil(chunks);
            let mut sent = 0usize;
            let mut lo = 0;
            while lo < wave.len() {
                let hi = (lo + per).min(wave.len());
                let sent_ok = self
                    .pool
                    .sender()
                    .send(Task {
                        ctx: Arc::clone(&ctx),
                        wave: w,
                        lo,
                        hi,
                    })
                    .is_ok();
                assert!(sent_ok, "pool is live");
                sent += 1;
                lo = hi;
            }
            // Wave barrier: every chunk reports its transaction count.
            let mut finished = 0usize;
            for _ in 0..sent {
                finished += done_rx.recv().expect("pool worker alive");
            }
            debug_assert_eq!(finished, wave.len());
            // Publish the wave's writes for the following waves. The last
            // wave skips this — nothing executes after it; its writes reach
            // the store through the in-order commit below.
            if w < last_wave {
                let mut overlay = ctx.overlay.write();
                for &fi in wave {
                    let outcome = ctx.outcomes[fi].lock();
                    for wr in &outcome.as_ref().expect("outcome filled").writes {
                        overlay.insert(wr.key, wr.value.clone());
                    }
                }
            }
        }

        // In-order merge: commit each sequence with its transactions'
        // buffered results and writes in canonical order.
        let mut out = Vec::with_capacity(items.len());
        let mut fi = 0usize;
        for item in items {
            let txns = item.borrow().batch.len();
            let mut results = Vec::with_capacity(txns);
            let mut writes = Vec::new();
            for _ in 0..txns {
                let outcome = ctx.outcomes[fi]
                    .lock()
                    .take()
                    .expect("every transaction executed");
                results.push(outcome.result);
                writes.extend(outcome.writes);
                fi += 1;
            }
            out.push(self.executor.commit(item, results.into_iter(), &writes));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::ExecuteItem;
    use rdb_common::block::BlockCertificate;
    use rdb_common::{ClientId, Operation, ProtocolKind, ReplicaId, SeqNum, ViewNum};
    use rdb_storage::blockchain::ChainMode;
    use rdb_storage::{Blockchain, MemStore};

    fn txn(client: u64, counter: u64, ops: Vec<Operation>) -> Transaction {
        Transaction::new(ClientId(client), counter, ops)
    }

    fn write(key: u64, v: u8) -> Operation {
        Operation::Write {
            key,
            value: vec![v; 8],
        }
    }

    fn read(key: u64) -> Operation {
        Operation::Read { key }
    }

    #[test]
    fn independent_txns_share_one_wave() {
        let a = txn(0, 0, vec![write(1, 1)]);
        let b = txn(1, 0, vec![write(2, 2)]);
        let c = txn(2, 0, vec![read(3)]);
        let waves = conflict_waves(&[&a, &b, &c]);
        assert_eq!(waves, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn write_write_conflicts_serialize() {
        let a = txn(0, 0, vec![write(1, 1)]);
        let b = txn(1, 0, vec![write(1, 2)]);
        let c = txn(2, 0, vec![write(1, 3)]);
        let waves = conflict_waves(&[&a, &b, &c]);
        assert_eq!(waves, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn read_write_dependencies_level_correctly() {
        // a writes k1; b reads k1 (after a); c writes k1 (after b's read —
        // the anti-dependency); d touches an unrelated key.
        let a = txn(0, 0, vec![write(1, 1)]);
        let b = txn(1, 0, vec![read(1)]);
        let c = txn(2, 0, vec![write(1, 9)]);
        let d = txn(3, 0, vec![write(7, 7)]);
        let waves = conflict_waves(&[&a, &b, &c, &d]);
        assert_eq!(waves, vec![vec![0, 3], vec![1], vec![2]]);
    }

    #[test]
    fn readers_of_same_version_share_a_wave() {
        let a = txn(0, 0, vec![write(1, 1)]);
        let b = txn(1, 0, vec![read(1)]);
        let c = txn(2, 0, vec![read(1)]);
        let waves = conflict_waves(&[&a, &b, &c]);
        assert_eq!(waves, vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn waves_agree_with_the_declared_conflict_predicate() {
        // `conflict_waves` levels with per-key last-writer/reader tables;
        // `ReadWriteSet::conflicts_with` states the same rule as a pairwise
        // predicate. Cross-check them on a conflict-dense pseudo-random
        // batch so the two encodings cannot drift apart silently.
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let txns: Vec<Transaction> = (0..60)
            .map(|i| {
                let ops = (0..1 + next() % 4)
                    .map(|_| {
                        let key = next() % 12;
                        if next() % 4 == 0 {
                            read(key)
                        } else {
                            write(key, (next() & 0xff) as u8)
                        }
                    })
                    .collect();
                txn(i % 5, i, ops)
            })
            .collect();
        let refs: Vec<&Transaction> = txns.iter().collect();
        let waves = conflict_waves(&refs);
        let sets: Vec<_> = txns.iter().map(|t| t.rw_set()).collect();

        for wave in &waves {
            // Same-wave transactions are pairwise non-conflicting.
            for (a, &i) in wave.iter().enumerate() {
                for &j in &wave[a + 1..] {
                    assert!(
                        !sets[i].conflicts_with(&sets[j]),
                        "txns {i} and {j} share a wave but conflict"
                    );
                }
            }
        }
        // A transaction above wave 0 conflicts with some earlier-wave
        // transaction that precedes it in serial order (levels are tight).
        for (w, wave) in waves.iter().enumerate().skip(1) {
            for &j in wave {
                let justified = waves[w - 1]
                    .iter()
                    .any(|&i| i < j && sets[i].conflicts_with(&sets[j]));
                assert!(justified, "txn {j} in wave {w} has no wave-{} dep", w - 1);
            }
        }
    }

    fn exec_item(seq: u64, txns: Vec<Transaction>) -> ExecuteItem {
        let batch: Batch = txns.into_iter().collect();
        ExecuteItem {
            seq: SeqNum(seq),
            view: ViewNum(0),
            digest: Digest([seq as u8; 32]),
            batch: batch.into(),
            certificate: BlockCertificate::default(),
            history: None,
        }
    }

    fn fresh_executor() -> Arc<Executor> {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::with_table(64, 8));
        let chain = Arc::new(Mutex::new(Blockchain::new(
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

    /// The window used by the equivalence tests: chained writes/reads over
    /// a hot key plus independent traffic, across two sequences.
    fn window() -> Vec<ExecuteItem> {
        vec![
            exec_item(
                1,
                vec![
                    txn(0, 0, vec![write(1, 1), read(2)]),
                    txn(1, 0, vec![read(1), write(2, 2)]),
                    txn(2, 0, vec![write(30, 3)]),
                ],
            ),
            exec_item(
                2,
                vec![
                    txn(0, 1, vec![read(2), write(1, 4)]),
                    txn(3, 0, vec![write(40, 5), read(40)]),
                ],
            ),
        ]
    }

    #[test]
    fn parallel_window_matches_serial_execution() {
        for workers in [1, 2, 4] {
            let serial = fresh_executor();
            let serial_out: Vec<(Digest, Vec<OutItem>)> =
                window().iter().map(|i| serial.execute(i)).collect();

            let par_exec = fresh_executor();
            let pool = ExecPool::new("t", workers, Vec::new());
            let par = ParallelExecutor::new(Arc::clone(&par_exec), pool);
            let par_out = par.execute_window(window());

            assert_eq!(serial_out, par_out, "workers={workers}");
            assert_eq!(
                serial.store().state_digest(),
                par_exec.store().state_digest()
            );
            assert_eq!(serial.executed_txns(), par_exec.executed_txns());
        }
    }

    #[test]
    fn empty_window_is_a_no_op() {
        let pool = ExecPool::new("t", 2, Vec::new());
        let par = ParallelExecutor::new(fresh_executor(), pool);
        assert!(par.execute_window(Vec::<ExecuteItem>::new()).is_empty());
    }

    #[test]
    fn empty_batch_commits() {
        let pool = ExecPool::new("t", 2, Vec::new());
        let par = ParallelExecutor::new(fresh_executor(), pool);
        let out = par.execute_window(&[exec_item(1, vec![])]);
        assert_eq!(out.len(), 1);
        assert!(out[0].1.is_empty());
        assert_eq!(par.executor().executed_batches(), 1);
    }
}
