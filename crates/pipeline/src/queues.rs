//! The execute stage's in-order buffer (Section 4.6).
//!
//! Committed batches reach the execute stage in any order — k consensus
//! instances race, and a gap-filling fetch lands late. [`ExecStage`] parks
//! each by sequence and hands out *exactly the next sequence in order*
//! (plus whatever consecutive successors are already parked), never
//! rescanning or re-queuing out-of-order arrivals. It has one owner, which
//! applies the core's execution effects ([`Effect::for_stage`]) in the
//! order the core emitted them: the execute thread (`1E`, and the wave
//! executor's coordinator) fed by the worker over one FIFO channel, or a
//! [`crate::Node`] that holds it (`0E`, the figure simulator, the core
//! tests). The next sequence and the epoch are therefore plain fields, a
//! rollback or snapshot install takes effect between two windows, and no
//! stable checkpoint or served snapshot overtakes a rollback before it.

use crate::core::Effect;
use crate::executor::{Executor, OutItem};
use rdb_common::block::BlockCertificate;
use rdb_common::messages::Message;
use rdb_common::{Batch, Digest, SeqNum, Snapshot, ViewNum};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The state the stage's effects reach: the real [`Executor`]. Each method
/// defaults to a back end with no state, the figure simulator's.
pub trait ExecBackend {
    /// Undoes every executed sequence above `to`.
    fn rollback_to(&self, _to: SeqNum) {}
    /// Replaces state and ledger with `snapshot`.
    fn install_snapshot(&self, _snapshot: &Arc<Snapshot>) {}
    /// Notes the stable checkpoint `seq` and prunes below it.
    fn note_stable(&self, _seq: SeqNum) {}
    /// Base sequence of the serving snapshot, for free.
    fn snapshot_base(&self) -> Option<SeqNum> {
        None
    }
    /// The serving snapshot; building it may copy the whole store.
    fn latest_snapshot(&self) -> Option<Arc<Snapshot>> {
        None
    }
}

impl ExecBackend for Executor {
    fn rollback_to(&self, to: SeqNum) {
        Executor::rollback_to(self, to);
    }
    fn install_snapshot(&self, snapshot: &Arc<Snapshot>) {
        Executor::install_snapshot(self, snapshot);
    }
    fn note_stable(&self, seq: SeqNum) {
        Executor::note_stable(self, seq);
    }
    fn snapshot_base(&self) -> Option<SeqNum> {
        Executor::snapshot_base(self)
    }
    fn latest_snapshot(&self) -> Option<Arc<Snapshot>> {
        Executor::latest_snapshot(self)
    }
}

/// A batch ready for ordered execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecuteItem {
    /// Sequence number of the batch.
    pub seq: SeqNum,
    /// View in which it was ordered.
    pub view: ViewNum,
    /// Batch digest.
    pub digest: Digest,
    /// The transactions, shared with the consensus instance and the
    /// original `PrePrepare` (committing never copies the batch).
    pub batch: Arc<Batch>,
    /// PBFT: the 2f+1 commit signatures. Empty for speculative execution.
    pub certificate: BlockCertificate,
    /// Zyzzyva: the rolling history digest (`None` for PBFT).
    pub history: Option<Digest>,
}

/// A committed batch as the commit path takes it: owned, so its
/// certificate moves into the block, or borrowed, so it is cloned.
pub trait CommitItem: Borrow<ExecuteItem> {
    /// The block certificate, moved out or cloned.
    fn into_certificate(self) -> BlockCertificate;
}

impl CommitItem for ExecuteItem {
    fn into_certificate(self) -> BlockCertificate {
        self.certificate
    }
}

impl CommitItem for &ExecuteItem {
    fn into_certificate(self) -> BlockCertificate {
        self.certificate.clone()
    }
}

/// Committed batches parked by sequence, the next sequence to run, and
/// the execution epoch.
///
/// Every [`Effect::Rollback`] and [`Effect::InstallSnapshot`] starts a new
/// epoch, exactly as the core's does, so the two count the same effects
/// and a result stamped with [`Self::epoch`] at the time of its window is
/// recognizably stale once the core has moved on.
#[derive(Debug)]
pub struct ExecStage {
    parked: BTreeMap<SeqNum, ExecuteItem>,
    next: SeqNum,
    epoch: u64,
}

impl ExecStage {
    /// An empty stage that runs `next` first: 1 on a fresh replica, the
    /// sequence after the recovered head on a restarted one.
    pub fn new(next: SeqNum) -> Self {
        ExecStage {
            parked: BTreeMap::new(),
            next,
            epoch: 0,
        }
    }

    /// The next sequence to execute.
    pub fn next(&self) -> SeqNum {
        self.next
    }

    /// The current execution epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the next sequence is parked, i.e. a window is ready.
    pub fn ready(&self) -> bool {
        self.parked.contains_key(&self.next)
    }

    /// Applies one of the core's execution effects:
    ///
    /// - `Execute` parks the item;
    /// - `Rollback { to }` drops the parked items above `to`, rewinds
    ///   `backend`, moves the next sequence to `min(next, to + 1)` and
    ///   starts a new epoch;
    /// - `InstallSnapshot` drops the parked items the snapshot covers,
    ///   installs it in `backend`, moves the next sequence to
    ///   `max(next, base + 1)` and starts a new epoch;
    /// - `Stable` notes the checkpoint in `backend`;
    /// - `ServeSnapshot` hands back the answer from `backend`'s mark as it
    ///   stands now, built only if it covers a sequence asked for: the
    ///   `SnapshotResponse`, if any, and its [`Effect::FetchServed`].
    ///   Nothing else hands back anything.
    ///
    /// # Panics
    /// Panics on any other effect: those are the worker's to carry out.
    pub fn apply(&mut self, effect: Effect, backend: &dyn ExecBackend) -> Vec<Effect> {
        match effect {
            Effect::Execute { item, .. } => {
                self.parked.insert(item.seq, item);
            }
            Effect::Rollback { to } => {
                self.parked.split_off(&to.next());
                backend.rollback_to(to);
                self.next = self.next.min(to.next());
                self.epoch += 1;
            }
            Effect::InstallSnapshot(snapshot) => {
                let base = snapshot.base_seq;
                self.parked = self.parked.split_off(&base.next());
                backend.install_snapshot(&snapshot);
                self.next = self.next.max(base.next());
                self.epoch += 1;
            }
            Effect::Stable { seq } => backend.note_stable(seq),
            Effect::ServeSnapshot { to, from, pruned } => {
                let Some(base) = backend.snapshot_base() else {
                    let dropped = pruned.len() as u64;
                    return vec![Effect::FetchServed { served: 0, dropped }];
                };
                // Nothing is built unless the mark covers a sequence asked for.
                let covered = pruned.iter().any(|seq| *seq <= base);
                if let Some(snapshot) = covered.then(|| backend.latest_snapshot()).flatten() {
                    let replica = from;
                    let msg = Message::SnapshotResponse { snapshot, replica };
                    let response = Effect::Send(OutItem::to(to, msg));
                    let (served, dropped) = (1, 0);
                    return vec![response, Effect::FetchServed { served, dropped }];
                }
            }
            other => unreachable!("not an execution effect: {other:?}"),
        }
        Vec::new()
    }

    /// Removes the next window: the next sequence and up to `cap − 1`
    /// consecutive successors, as far as they are parked. Empty when the
    /// next sequence is not.
    pub fn take_window(&mut self, cap: usize) -> Vec<ExecuteItem> {
        let mut window = Vec::new();
        while window.len() < cap {
            let Some(item) = self.parked.remove(&self.next) else {
                break;
            };
            self.next = self.next.next();
            window.push(item);
        }
        window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use rdb_common::block::{Block, BlockLink};
    use rdb_common::{ProtocolKind, ReplicaId, Snapshot};
    use rdb_storage::blockchain::ChainMode;
    use rdb_storage::{Blockchain, MemStore, StateStore};

    fn item(seq: u64) -> ExecuteItem {
        ExecuteItem {
            seq: SeqNum(seq),
            view: ViewNum(0),
            digest: Digest([seq as u8; 32]),
            batch: Arc::new(Batch::default()),
            certificate: BlockCertificate::default(),
            history: None,
        }
    }

    fn deposit(seq: u64) -> Effect {
        Effect::Execute {
            instance: 0,
            item: item(seq),
        }
    }

    fn executor() -> Executor {
        let store: Arc<dyn StateStore> = Arc::new(MemStore::with_table(16, 8));
        let chain = Blockchain::new(Digest::ZERO, 0, ChainMode::PrevHash);
        Executor::new(
            ReplicaId(0),
            ProtocolKind::Zyzzyva,
            store,
            Arc::new(Mutex::new(chain)),
        )
    }

    fn snapshot_at(base: u64) -> Arc<Snapshot> {
        Arc::new(Snapshot {
            base_seq: SeqNum(base),
            block: Block {
                seq: SeqNum(base),
                digest: Digest([4; 32]),
                view: ViewNum(0),
                link: BlockLink::Hash(Digest::ZERO),
                txn_count: 0,
                result_digest: MemStore::with_table(16, 8).state_digest(),
            },
            history: Digest::ZERO,
            records: Vec::new(),
        })
    }

    fn seqs(window: &[ExecuteItem]) -> Vec<u64> {
        window.iter().map(|i| i.seq.0).collect()
    }

    /// Takes everything ready as one window and executes it.
    fn run_ready(stage: &mut ExecStage, ex: &Executor) -> Vec<u64> {
        let window = stage.take_window(usize::MAX);
        for item in &window {
            ex.execute(item);
        }
        seqs(&window)
    }

    /// The sequence of the next window of one, if it is ready.
    fn take_one(stage: &mut ExecStage) -> Option<SeqNum> {
        stage.take_window(1).first().map(|i| i.seq)
    }

    #[test]
    fn claim_follows_the_cursor_exactly() {
        let (mut stage, ex) = (ExecStage::new(SeqNum(1)), executor());
        stage.apply(deposit(2), &ex);
        assert!(!stage.ready(), "1 is not parked");
        assert_eq!(take_one(&mut stage), None, "2 waits for 1");
        stage.apply(deposit(1), &ex);
        assert_eq!(take_one(&mut stage), Some(SeqNum(1)));
        assert_eq!(take_one(&mut stage), Some(SeqNum(2)));
        assert!(stage.parked.is_empty());
        assert_eq!(stage.next(), SeqNum(3));
    }

    #[test]
    fn claim_widens_over_consecutive_parked_sequences_only() {
        let (mut stage, ex) = (ExecStage::new(SeqNum(1)), executor());
        for seq in [1, 2, 3, 5] {
            stage.apply(deposit(seq), &ex);
        }
        assert_eq!(seqs(&stage.take_window(2)), vec![1, 2], "capped");
        assert_eq!(
            seqs(&stage.take_window(8)),
            vec![3],
            "stops at the hole before 5"
        );
        assert_eq!((stage.next(), stage.epoch()), (SeqNum(4), 0));
        assert!(stage.take_window(8).is_empty(), "4 is not parked");
        stage.apply(deposit(4), &ex);
        assert_eq!(seqs(&stage.take_window(8)), vec![4, 5]);
    }

    /// A rollback drops the parked suffix above its target and undoes
    /// what ran there; an install drops everything its snapshot covers.
    #[test]
    fn purge_drops_exactly_the_requested_range() {
        let (mut stage, ex) = (ExecStage::new(SeqNum(1)), executor());
        for seq in [1, 2, 3, 5, 6] {
            stage.apply(deposit(seq), &ex);
        }
        assert_eq!(run_ready(&mut stage, &ex), vec![1, 2, 3]);
        stage.apply(deposit(4), &ex);
        stage.apply(Effect::Rollback { to: SeqNum(2) }, &ex);
        assert!(stage.parked.is_empty(), "4, 5 and 6 were above the target");
        assert_eq!(ex.executed_batches(), 2, "3 was undone");

        let mut stage = ExecStage::new(SeqNum(1));
        for seq in 2..=6 {
            stage.apply(deposit(seq), &ex);
        }
        stage.apply(Effect::InstallSnapshot(snapshot_at(4)), &ex);
        assert_eq!(stage.parked.len(), 2, "2, 3 and 4 are covered");
        assert_eq!(ex.snapshot_base(), Some(SeqNum(4)));
        assert_eq!(run_ready(&mut stage, &ex), vec![5, 6]);
    }

    /// A rollback rewinds the next sequence to `to + 1` (never forward);
    /// an install moves it to `base + 1` (never back). Each starts an
    /// epoch.
    #[test]
    fn repoint_moves_cursor_and_bumps_epoch() {
        let (mut stage, ex) = (ExecStage::new(SeqNum(1)), executor());
        for seq in 1..=5 {
            stage.apply(deposit(seq), &ex);
        }
        assert_eq!(run_ready(&mut stage, &ex).len(), 5);
        assert_eq!((stage.next(), stage.epoch()), (SeqNum(6), 0));
        stage.apply(Effect::Rollback { to: SeqNum(2) }, &ex);
        assert_eq!((stage.next(), stage.epoch()), (SeqNum(3), 1));
        stage.apply(Effect::Rollback { to: SeqNum(9) }, &ex);
        assert_eq!((stage.next(), stage.epoch()), (SeqNum(3), 2));
        stage.apply(Effect::InstallSnapshot(snapshot_at(7)), &ex);
        assert_eq!((stage.next(), stage.epoch()), (SeqNum(8), 3));
        stage.apply(Effect::InstallSnapshot(snapshot_at(4)), &ex);
        assert_eq!((stage.next(), stage.epoch()), (SeqNum(8), 4));
    }

    #[test]
    fn repoint_to_the_same_cursor_displaces_the_parked_item() {
        // A rollback whose target is just below the next sequence leaves
        // `next` where it was. The displaced timeline's item for that
        // sequence must never run, and the re-emitted one must — under
        // the new epoch.
        let (mut stage, ex) = (ExecStage::new(SeqNum(1)), executor());
        let mut displaced = item(1);
        displaced.digest = Digest([1; 32]);
        stage.apply(
            Effect::Execute {
                instance: 0,
                item: displaced,
            },
            &ex,
        );
        assert!(stage.ready());
        stage.apply(Effect::Rollback { to: SeqNum(0) }, &ex);
        assert_eq!(
            (stage.next(), stage.epoch()),
            (SeqNum(1), 1),
            "same next, new epoch"
        );
        assert!(
            stage.take_window(1).is_empty(),
            "the displaced item is gone"
        );
        let mut reemitted = item(1);
        reemitted.digest = Digest([2; 32]);
        stage.apply(
            Effect::Execute {
                instance: 0,
                item: reemitted,
            },
            &ex,
        );
        assert_eq!(stage.take_window(1)[0].digest, Digest([2; 32]));
    }

    #[test]
    fn cross_thread_handoff() {
        // The `1E` hand-off: the worker sends deposits over a channel in
        // any order; the execute thread's stage still runs them in order.
        let (tx, rx) = crossbeam::channel::unbounded();
        let producer = std::thread::spawn(move || {
            for seq in (1..=50).rev() {
                tx.send(deposit(seq)).unwrap();
            }
        });
        let (mut stage, ex) = (ExecStage::new(SeqNum(1)), executor());
        let mut ran = Vec::new();
        while ran.len() < 50 {
            let effect = rx.recv_timeout(std::time::Duration::from_secs(5));
            stage.apply(effect.expect("item arrives"), &ex);
            while let Some(seq) = take_one(&mut stage) {
                ran.push(seq.0);
            }
        }
        producer.join().unwrap();
        assert_eq!(ran, (1..=50).collect::<Vec<_>>());
    }
}
