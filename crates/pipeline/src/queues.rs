//! Inter-stage queues.
//!
//! Two special-purpose structures from the paper's design:
//!
//! - [`ClientRequestQueue`] — the common queue between the input-thread
//!   and the batch-threads (Section 4.3: "any enqueued request is
//!   consumed as soon as any batch-thread is available").
//! - [`ExecutionQueues`] — the array of `QC` logical queues in front of the
//!   execute-thread (Section 4.6): the worker deposits the batch for
//!   sequence `k` into queue `k mod QC`, and the execute-thread *waits on
//!   exactly the queue of the next sequence in order*, never scanning or
//!   re-queuing out-of-order arrivals.

use crossbeam::channel;
use parking_lot::{Condvar, Mutex};
use rdb_common::block::BlockCertificate;
use rdb_common::messages::SignedMessage;
use rdb_common::{Batch, Digest, SeqNum, ViewNum};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Multi-producer multi-consumer queue of client requests. Consumers
/// block on it ([`Self::pop_timeout`]) rather than poll: seven of a
/// cluster's eight batch threads never see a request.
#[derive(Debug)]
pub struct ClientRequestQueue {
    tx: channel::Sender<SignedMessage>,
    rx: channel::Receiver<SignedMessage>,
}

impl Default for ClientRequestQueue {
    fn default() -> Self {
        let (tx, rx) = channel::unbounded();
        ClientRequestQueue { tx, rx }
    }
}

impl ClientRequestQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a client request (input-thread side).
    pub fn push(&self, msg: SignedMessage) {
        // Cannot fail: the queue holds a receiver for as long as it lives.
        let _ = self.tx.send(msg);
    }

    /// Dequeues a request if one is available (batch-thread side).
    pub fn pop(&self) -> Option<SignedMessage> {
        self.rx.try_recv().ok()
    }

    /// Dequeues a request, waiting up to `timeout` for one to arrive.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<SignedMessage> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Requests currently waiting.
    pub fn depth(&self) -> usize {
        self.rx.len()
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

/// The `QC`-slot logical queue array in front of the execute-thread.
///
/// Slot `k mod QC` holds the item for sequence `k`. Because at most `QC`
/// sequences can be in flight (bounded by clients × outstanding requests),
/// no two live sequences collide in a slot.
///
/// Recovery additions: the next-to-execute *cursor* lives here (shared
/// between the execute stage and the worker) together with an execution
/// *gate* and an *epoch* counter. The execute stage [claims](Self::claim)
/// its items under the gate, holds it while executing and advances the
/// cursor as it lets go; the worker takes the gate to roll the cursor back
/// (Zyzzyva mis-speculation) or jump it forward (snapshot install),
/// bumping the epoch so in-flight `Executed` notifications from the
/// displaced timeline are recognizably stale. Items leave their slots
/// only under the gate, so whatever the worker's purge finds parked is
/// all there is of the displaced timeline — nothing is ever in flight
/// between the queue and the execute stage across a repoint.
#[derive(Debug)]
pub struct ExecutionQueues {
    slots: Vec<Mutex<Vec<ExecuteItem>>>,
    ready: Vec<Condvar>,
    cursor: AtomicU64,
    epoch: AtomicU64,
    gate: Mutex<()>,
}

impl ExecutionQueues {
    /// Creates `qc` logical queues.
    ///
    /// # Panics
    /// Panics if `qc` is zero.
    pub fn new(qc: usize) -> Self {
        assert!(qc > 0, "need at least one execution queue");
        ExecutionQueues {
            slots: (0..qc).map(|_| Mutex::new(Vec::new())).collect(),
            ready: (0..qc).map(|_| Condvar::new()).collect(),
            cursor: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
            gate: Mutex::new(()),
        }
    }

    /// The next sequence the execute stage should run.
    pub fn cursor(&self) -> SeqNum {
        SeqNum(self.cursor.load(Ordering::Acquire))
    }

    /// Positions the cursor without starting a new epoch: boot-time
    /// recovery (before any stage thread runs) and [`Claim::finish`].
    pub fn set_cursor(&self, next: SeqNum) {
        self.cursor.store(next.0, Ordering::Release);
    }

    /// The current execution epoch. Bumped by [`Self::repoint`]; an
    /// `Executed` notification carrying an older epoch refers to a
    /// rolled-back or superseded timeline and must be ignored.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Locks out the execute stage while the worker mutates execution
    /// state (rollback or snapshot install).
    pub fn gate(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.gate.lock()
    }

    /// Moves the cursor to `next` and starts a new epoch. Caller must hold
    /// the [`Self::gate`].
    pub fn repoint(&self, next: SeqNum) {
        self.cursor.store(next.0, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Discards every parked item with `seq > above` (rolled-back
    /// speculative suffix — the engine re-emits the reconciled history).
    pub fn purge_above(&self, above: SeqNum) -> usize {
        let mut purged = 0;
        for slot in &self.slots {
            let mut s = slot.lock();
            let before = s.len();
            s.retain(|i| i.seq <= above);
            purged += before - s.len();
        }
        purged
    }

    /// Discards every parked item with `seq <= through` (history a
    /// freshly installed snapshot already covers).
    pub fn purge_through(&self, through: SeqNum) -> usize {
        let mut purged = 0;
        for slot in &self.slots {
            let mut s = slot.lock();
            let before = s.len();
            s.retain(|i| i.seq > through);
            purged += before - s.len();
        }
        purged
    }

    fn index(&self, seq: SeqNum) -> usize {
        (seq.0 % self.slots.len() as u64) as usize
    }

    /// Deposits the item for its sequence's slot (worker-thread side).
    ///
    /// `notify_one` suffices: the execute-thread design gives each slot at
    /// most one waiter (the thread blocked on exactly the next sequence in
    /// order), so waking "all" waiters was only ever waking that one — at
    /// the cost of a broadcast syscall per deposit.
    pub fn deposit(&self, item: ExecuteItem) {
        let idx = self.index(item.seq);
        self.slots[idx].lock().push(item);
        self.ready[idx].notify_one();
    }

    /// Waits up to `timeout` for the item of exactly `seq` to be parked,
    /// without removing it. This is the paper's trick: the execute-thread
    /// blocks on the one queue that will hold the next batch in order.
    fn wait_ready(&self, seq: SeqNum, timeout: Duration) -> bool {
        let idx = self.index(seq);
        let mut slot = self.slots[idx].lock();
        loop {
            if slot.iter().any(|i| i.seq == seq) {
                return true;
            }
            if timeout.is_zero() || self.ready[idx].wait_for(&mut slot, timeout).timed_out() {
                return false;
            }
        }
    }

    /// The execute stage's one way to remove work: waits up to `wait` for
    /// the cursor's item, then — under the gate — takes it and up to
    /// `cap − 1` consecutive successors that are already parked. `None`
    /// when nothing became ready, or when the worker repointed or purged
    /// in the meantime (the next call sees the new cursor).
    ///
    /// The wait happens outside the gate and removes nothing, so a
    /// rollback or snapshot install never races a half-claimed item: the
    /// displaced timeline is purged wholesale, and an item the worker
    /// re-emits afterwards — even for the *same* cursor — is claimed under
    /// the new epoch.
    pub fn claim(&self, cap: usize, wait: Duration) -> Option<Claim<'_>> {
        if !self.wait_ready(self.cursor(), wait) {
            return None;
        }
        let gate = self.gate.lock();
        let first = self.cursor();
        let mut items = Vec::with_capacity(cap.min(8));
        while items.len() < cap {
            match self.try_take(SeqNum(first.0 + items.len() as u64)) {
                Some(item) => items.push(item),
                None => break,
            }
        }
        if items.is_empty() {
            return None;
        }
        Some(Claim {
            queues: self,
            _gate: gate,
            epoch: self.epoch(),
            items,
        })
    }

    /// Non-blocking take: the item for exactly `seq`, if already deposited.
    pub fn try_take(&self, seq: SeqNum) -> Option<ExecuteItem> {
        let idx = self.index(seq);
        let mut slot = self.slots[idx].lock();
        let pos = slot.iter().position(|i| i.seq == seq)?;
        Some(slot.swap_remove(pos))
    }

    /// Items waiting across all slots (for saturation metrics).
    pub fn depth(&self) -> usize {
        self.slots.iter().map(|s| s.lock().len()).sum()
    }
}

/// An in-order window of committed batches held by the execute stage,
/// together with the gate that keeps the worker from repointing execution
/// underneath it.
#[derive(Debug)]
pub struct Claim<'a> {
    queues: &'a ExecutionQueues,
    _gate: parking_lot::MutexGuard<'a, ()>,
    epoch: u64,
    items: Vec<ExecuteItem>,
}

impl Claim<'_> {
    /// The claimed batches: consecutive sequences starting at the cursor.
    pub fn items(&self) -> &[ExecuteItem] {
        &self.items
    }

    /// The execution epoch the window was claimed in; results reported
    /// with it are recognizably stale after a later repoint.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Marks the window executed: advances the cursor past it and opens
    /// the gate.
    pub fn finish(self) {
        let last = self.items.last().expect("a claim is never empty");
        self.queues.set_cursor(last.seq.next());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::messages::{Message, Sender};
    use rdb_common::{ClientId, SignatureBytes};
    use std::sync::Arc;

    fn item(seq: u64) -> ExecuteItem {
        ExecuteItem {
            seq: SeqNum(seq),
            view: ViewNum(0),
            digest: Digest::ZERO,
            batch: Arc::new(Batch::default()),
            certificate: BlockCertificate::default(),
            history: None,
        }
    }

    #[test]
    fn client_queue_fifo_and_counts() {
        let q = ClientRequestQueue::new();
        for i in 0..5u64 {
            q.push(SignedMessage::new(
                Message::ClientRequest { txns: vec![] },
                Sender::Client(ClientId(i)),
                SignatureBytes::empty(),
            ));
        }
        assert_eq!(q.depth(), 5);
        let first = q.pop().unwrap();
        assert_eq!(first.sender(), Sender::Client(ClientId(0)));
        assert_eq!(q.depth(), 4);
    }

    #[test]
    fn client_queue_pop_timeout_wakes_on_push() {
        let q = Arc::new(ClientRequestQueue::new());
        assert!(q.pop_timeout(Duration::ZERO).is_none(), "empty: times out");
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_timeout(Duration::from_secs(30)))
        };
        q.push(SignedMessage::new(
            Message::ClientRequest { txns: vec![] },
            Sender::Client(ClientId(9)),
            SignatureBytes::empty(),
        ));
        let got = consumer.join().unwrap().expect("woken by the push");
        assert_eq!(got.sender(), Sender::Client(ClientId(9)));
    }

    /// Claims one item and finishes it, returning its sequence.
    fn claim_one(eq: &ExecutionQueues, wait: Duration) -> Option<SeqNum> {
        let claim = eq.claim(1, wait)?;
        let seq = claim.items()[0].seq;
        claim.finish();
        Some(seq)
    }

    #[test]
    fn claim_follows_the_cursor_exactly() {
        let eq = ExecutionQueues::new(8);
        eq.deposit(item(2));
        eq.deposit(item(1));
        // Claiming at cursor 1 ignores the parked seq 2.
        assert_eq!(claim_one(&eq, Duration::from_millis(100)), Some(SeqNum(1)));
        assert_eq!(claim_one(&eq, Duration::from_millis(100)), Some(SeqNum(2)));
        assert_eq!(eq.depth(), 0);
        assert_eq!(eq.cursor(), SeqNum(3));
    }

    #[test]
    fn claim_widens_over_consecutive_parked_sequences_only() {
        let eq = ExecutionQueues::new(8);
        for seq in [1u64, 2, 3, 5] {
            eq.deposit(item(seq));
        }
        let claim = eq.claim(8, Duration::ZERO).unwrap();
        let seqs: Vec<u64> = claim.items().iter().map(|i| i.seq.0).collect();
        assert_eq!(seqs, vec![1, 2, 3], "stops at the hole before 5");
        claim.finish();
        assert_eq!(eq.cursor(), SeqNum(4));
        assert!(eq.claim(8, Duration::ZERO).is_none(), "4 is not parked");
        assert_eq!(eq.depth(), 1);
    }

    #[test]
    fn repoint_to_the_same_cursor_displaces_the_parked_item() {
        // Regression: a rollback whose target is just below the cursor
        // repoints to the *same* cursor. The displaced timeline's item for
        // that sequence must never execute, and the re-emitted one must —
        // under the new epoch. The execute stage used to remove the item
        // before taking the gate and re-check only the cursor, which this
        // repoint leaves unchanged.
        let eq = ExecutionQueues::new(8);
        let mut displaced = item(1);
        displaced.digest = Digest([1; 32]);
        eq.deposit(displaced);
        assert!(
            eq.wait_ready(SeqNum(1), Duration::ZERO),
            "execute stage saw it"
        );
        {
            let _gate = eq.gate();
            assert_eq!(eq.purge_above(SeqNum(0)), 1);
            eq.repoint(SeqNum(1));
        }
        assert_eq!(eq.cursor(), SeqNum(1), "same cursor, new epoch");
        assert!(
            eq.claim(1, Duration::ZERO).is_none(),
            "the displaced item is gone, not claimable"
        );
        let mut reemitted = item(1);
        reemitted.digest = Digest([2; 32]);
        eq.deposit(reemitted);
        let claim = eq.claim(1, Duration::ZERO).unwrap();
        assert_eq!(claim.items()[0].digest, Digest([2; 32]));
        assert_eq!(claim.epoch(), 1);
    }

    #[test]
    fn a_held_claim_keeps_the_worker_from_repointing() {
        let eq = Arc::new(ExecutionQueues::new(8));
        eq.deposit(item(1));
        let claim = eq.claim(1, Duration::ZERO).unwrap();
        let (eq2, (tx, rx)) = (Arc::clone(&eq), std::sync::mpsc::channel());
        let worker = std::thread::spawn(move || {
            let _gate = eq2.gate();
            tx.send(eq2.cursor()).unwrap();
            eq2.repoint(SeqNum(1));
        });
        // The worker is parked on the gate: nothing arrives until the
        // claim finishes, and by then the cursor has already advanced.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        claim.finish();
        assert_eq!(rx.recv().unwrap(), SeqNum(2));
        worker.join().unwrap();
        assert_eq!((eq.cursor(), eq.epoch()), (SeqNum(1), 1));
    }

    #[test]
    fn try_take_is_non_blocking_and_exact() {
        let eq = ExecutionQueues::new(8);
        assert!(eq.try_take(SeqNum(1)).is_none());
        eq.deposit(item(2));
        eq.deposit(item(1));
        assert_eq!(eq.try_take(SeqNum(1)).unwrap().seq, SeqNum(1));
        assert!(eq.try_take(SeqNum(1)).is_none());
        assert_eq!(eq.try_take(SeqNum(2)).unwrap().seq, SeqNum(2));
        assert_eq!(eq.depth(), 0);
    }

    #[test]
    fn claim_times_out_when_absent() {
        let eq = ExecutionQueues::new(8);
        eq.deposit(item(5));
        assert!(eq.claim(1, Duration::from_millis(20)).is_none());
        assert_eq!(eq.depth(), 1, "wrong-seq item stays parked");
    }

    #[test]
    fn colliding_slots_distinguished_by_seq() {
        // QC=4: seq 1 and seq 5 share slot 1.
        let eq = ExecutionQueues::new(4);
        eq.deposit(item(5));
        eq.deposit(item(1));
        assert_eq!(eq.try_take(SeqNum(1)).unwrap().seq, SeqNum(1));
        assert_eq!(eq.try_take(SeqNum(5)).unwrap().seq, SeqNum(5));
    }

    #[test]
    fn cross_thread_handoff() {
        let eq = Arc::new(ExecutionQueues::new(16));
        let eq2 = Arc::clone(&eq);
        let producer = std::thread::spawn(move || {
            for seq in (1..=50u64).rev() {
                eq2.deposit(item(seq));
            }
        });
        // Consume strictly in order despite reversed production.
        for seq in 1..=50u64 {
            let got = claim_one(&eq, Duration::from_secs(2)).expect("item arrives");
            assert_eq!(got, SeqNum(seq));
        }
        producer.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_queues_panics() {
        let _ = ExecutionQueues::new(0);
    }

    #[test]
    fn repoint_moves_cursor_and_bumps_epoch() {
        let eq = ExecutionQueues::new(8);
        assert_eq!(eq.cursor(), SeqNum(1));
        assert_eq!(eq.epoch(), 0);
        eq.set_cursor(SeqNum(5));
        assert_eq!(eq.cursor(), SeqNum(5));
        assert_eq!(eq.epoch(), 0, "normal advance keeps the epoch");
        let g = eq.gate();
        eq.repoint(SeqNum(3));
        drop(g);
        assert_eq!(eq.cursor(), SeqNum(3));
        assert_eq!(eq.epoch(), 1, "repoint starts a new epoch");
    }

    #[test]
    fn purge_drops_exactly_the_requested_range() {
        let eq = ExecutionQueues::new(4);
        for seq in 1..=6u64 {
            eq.deposit(item(seq));
        }
        assert_eq!(eq.purge_above(SeqNum(4)), 2, "5 and 6 dropped");
        assert_eq!(eq.depth(), 4);
        assert_eq!(eq.purge_through(SeqNum(2)), 2, "1 and 2 dropped");
        assert_eq!(eq.depth(), 2);
        assert!(eq.try_take(SeqNum(3)).is_some());
        assert!(eq.try_take(SeqNum(4)).is_some());
    }

    #[test]
    fn multi_deposit_into_one_slot_wakes_the_waiter_every_time() {
        // Regression for the notify_all → notify_one change: with QC=1
        // every deposit lands in the same slot, and the single waiter must
        // be woken for each of a rapid burst of deposits — a lost wakeup
        // would stall the claim loop until its timeout.
        let eq = Arc::new(ExecutionQueues::new(1));
        let eq2 = Arc::clone(&eq);
        let producer = std::thread::spawn(move || {
            // Burst several items into the slot, out of order, with no
            // pacing: the waiter is mid-wait for seq 1 while later seqs
            // pile into the same slot vector.
            for seq in [3u64, 1, 2, 5, 4] {
                eq2.deposit(item(seq));
            }
        });
        for seq in 1..=5u64 {
            let got = claim_one(&eq, Duration::from_secs(5))
                .unwrap_or_else(|| panic!("waiter missed wakeup for seq {seq}"));
            assert_eq!(got, SeqNum(seq));
        }
        producer.join().unwrap();
        assert_eq!(eq.depth(), 0);
    }
}
