//! Fault injection: crashes, probabilistic drops, delay jitter,
//! partitions, and per-sender rewrites — every fault, lies included,
//! comes from here, never from the protocol code.
//!
//! Drop and delay decisions are deterministic: each directed link keeps
//! its own message counter, and the decision for message `k` on link
//! `(from, to)` is a pure hash of `(seed, from, to, k)`. Because every
//! transport evaluates a link's messages in send order, a scenario with
//! a fixed seed makes the same drop/delay choices run after run, no
//! matter how OS threads interleave across links — unlike the old
//! shared global counter, whose decisions depended on cross-thread
//! arrival order.

use parking_lot::{Condvar, Mutex, RwLock};
use rdb_common::messages::{Sender, SignedMessage};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Callback invoked when a node is crashed or recovered via the
/// controller. Transports register one to mirror the logical fault onto
/// physical resources (e.g. tearing down TCP sockets so recovery
/// exercises the reconnect path).
pub type FaultListener = Arc<dyn Fn(Sender, bool) + Send + Sync>;

/// A byzantine sender's strategy: given a destination and the envelope
/// the sender's honest core sends it, returns the envelope that
/// destination receives instead, or `None` to send the original.
pub type Rewrite = Arc<dyn Fn(Sender, &SignedMessage) -> Option<SignedMessage> + Send + Sync>;

/// Controls which messages the network discards or delays.
///
/// Cloneable handle; all clones share state, so tests can hold the
/// controller while the system holds the network.
#[derive(Debug, Default, Clone)]
pub struct FaultController {
    inner: Arc<FaultInner>,
}

#[derive(Default)]
struct FaultInner {
    crashed: RwLock<HashSet<Sender>>,
    /// Pairs (a, b) that cannot communicate, stored in both directions.
    severed: RwLock<HashSet<(Sender, Sender)>>,
    /// Drop probability in units of 1/10000 (0 = reliable).
    drop_per_10k: AtomicU64,
    /// Maximum extra one-way delay in microseconds (0 = none).
    delay_jitter_us: AtomicU64,
    /// Scenario seed mixed into every drop/delay hash.
    seed: AtomicU64,
    /// Per-directed-link message counters driving the decision hashes.
    links: RwLock<HashMap<(Sender, Sender), Arc<LinkCounters>>>,
    /// Crash/recover observers (socket teardown, logging, ...).
    listeners: RwLock<Vec<FaultListener>>,
    /// Per-sender rewrites (byzantine strategies); `rewriting` is set once
    /// any is installed, the only check a send pays while all are honest.
    rewriting: AtomicBool,
    rewrites: RwLock<HashMap<Sender, Rewrite>>,
}

impl std::fmt::Debug for FaultInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInner")
            .field("crashed", &self.crashed.read().len())
            .field("severed", &self.severed.read().len())
            .field("drop_per_10k", &self.drop_per_10k)
            .field("delay_jitter_us", &self.delay_jitter_us)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Default)]
struct LinkCounters {
    drop_seq: AtomicU64,
    delay_seq: AtomicU64,
}

/// SplitMix64 finalizer: a full-avalanche mix of one 64-bit word.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Packs a sender into a distinct 64-bit tag (replica ids and client
/// ids occupy disjoint ranges).
fn sender_tag(s: Sender) -> u64 {
    match s {
        Sender::Replica(id) => id.0 as u64,
        Sender::Client(id) => (1u64 << 32) | id.0,
    }
}

impl FaultInner {
    fn link(&self, from: Sender, to: Sender) -> Arc<LinkCounters> {
        if let Some(c) = self.links.read().get(&(from, to)) {
            return Arc::clone(c);
        }
        Arc::clone(self.links.write().entry((from, to)).or_default())
    }

    /// Pure decision hash for message `seq` on the directed link.
    fn link_hash(&self, from: Sender, to: Sender, seq: u64) -> u64 {
        let seed = self.seed.load(Ordering::Relaxed);
        let key = mix64(sender_tag(from).wrapping_mul(0x517c_c1b7_2722_0a95) ^ sender_tag(to));
        mix64(seed ^ key ^ seq.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }
}

impl FaultController {
    /// Creates a controller with no faults active.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the scenario seed mixed into every drop/delay decision.
    /// Changing the seed replays a different — but equally
    /// deterministic — fault pattern.
    pub fn set_seed(&self, seed: u64) {
        self.inner.seed.store(seed, Ordering::Relaxed);
    }

    /// Registers a crash/recover observer. The callback receives the
    /// node and `true` on crash / `false` on recovery, synchronously
    /// under the caller of [`crash`](Self::crash) /
    /// [`recover`](Self::recover).
    pub fn add_listener(&self, listener: FaultListener) {
        self.inner.listeners.write().push(listener);
    }

    /// Crashes `node`: all traffic to and from it is discarded until
    /// [`FaultController::recover`].
    pub fn crash(&self, node: Sender) {
        if self.inner.crashed.write().insert(node) {
            self.notify(node, true);
        }
    }

    /// Recovers a crashed node.
    pub fn recover(&self, node: Sender) {
        if self.inner.crashed.write().remove(&node) {
            self.notify(node, false);
        }
    }

    fn notify(&self, node: Sender, down: bool) {
        let listeners: Vec<_> = self.inner.listeners.read().clone();
        for l in listeners {
            l(node, down);
        }
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: Sender) -> bool {
        self.inner.crashed.read().contains(&node)
    }

    /// The nodes currently crashed.
    pub(crate) fn crashed(&self) -> Vec<Sender> {
        self.inner.crashed.read().iter().copied().collect()
    }

    /// Partitions the membership into two groups that cannot talk across
    /// the cut, in either direction.
    pub fn partition(&self, group_a: &[Sender], group_b: &[Sender]) {
        let mut severed = self.inner.severed.write();
        for &a in group_a {
            for &b in group_b {
                severed.insert((a, b));
                severed.insert((b, a));
            }
        }
    }

    /// Heals every severed link.
    pub fn heal_all(&self) {
        self.inner.severed.write().clear();
    }

    /// Sets a uniform message-drop probability (0.0 ..= 1.0).
    pub fn set_drop_rate(&self, rate: f64) {
        let per_10k = (rate.clamp(0.0, 1.0) * 10_000.0) as u64;
        self.inner.drop_per_10k.store(per_10k, Ordering::Relaxed);
    }

    /// Sets the maximum extra one-way delay applied per message.
    /// Each message on a link draws a deterministic uniform delay in
    /// `[0, max)`; zero disables jitter.
    pub fn set_delay_jitter(&self, max: Duration) {
        self.inner
            .delay_jitter_us
            .store(max.as_micros() as u64, Ordering::Relaxed);
    }

    /// The deterministic extra delay for the next message from `from`
    /// to `to`, or `None` when jitter is disabled. Advances the link's
    /// delay counter, so call exactly once per sent message.
    pub fn delay_for(&self, from: Sender, to: Sender) -> Option<Duration> {
        let max_us = self.inner.delay_jitter_us.load(Ordering::Relaxed);
        if max_us == 0 {
            return None;
        }
        let seq = self
            .inner
            .link(from, to)
            .delay_seq
            .fetch_add(1, Ordering::Relaxed);
        let h = self.inner.link_hash(from, to, seq ^ 0xdead_beef_0bad_f00d);
        Some(Duration::from_micros(h % max_us))
    }

    /// Decides whether a message from `from` to `to` should be dropped.
    ///
    /// Rate-based decisions are a pure hash of `(seed, from, to, k)`
    /// where `k` is the link's own message counter, so replays are
    /// identical run-to-run regardless of thread interleaving.
    pub fn should_drop(&self, from: Sender, to: Sender) -> bool {
        if self.is_crashed(from) || self.is_crashed(to) {
            return true;
        }
        if self.inner.severed.read().contains(&(from, to)) {
            return true;
        }
        let rate = self.inner.drop_per_10k.load(Ordering::Relaxed);
        if rate == 0 {
            return false;
        }
        let seq = self
            .inner
            .link(from, to)
            .drop_seq
            .fetch_add(1, Ordering::Relaxed);
        self.inner.link_hash(from, to, seq) % 10_000 < rate
    }

    /// Makes `sender` byzantine: from now on every envelope it sends
    /// passes through `rewrite` once per destination, in place of any
    /// rewrite installed for `sender` before.
    pub fn set_rewrite(&self, sender: Sender, rewrite: Rewrite) {
        self.inner.rewrites.write().insert(sender, rewrite);
        self.inner.rewriting.store(true, Ordering::Relaxed);
    }

    /// The envelope `to` receives in place of `msg` from `from`, or `None`
    /// when `from` sends it as is. Both transports ask right after
    /// [`should_drop`](Self::should_drop).
    pub fn rewrite(&self, from: Sender, to: Sender, msg: &SignedMessage) -> Option<SignedMessage> {
        if !self.inner.rewriting.load(Ordering::Relaxed) {
            return None;
        }
        let rewrite = self.inner.rewrites.read().get(&from).cloned()?;
        rewrite(to, msg)
    }
}

/// The one delayed-delivery path both transports share: a deadline heap
/// drained by a thread spawned on first use. A backend hands it
/// `(due, deliver)` for every message that modeled latency or
/// [`FaultController::delay_for`] jitter holds back; `deliver` runs on the
/// delay thread once `due` has passed, in deadline order and FIFO between
/// equal deadlines. The thread exits within one idle wait of the line
/// being dropped or [`shutdown`](Self::shutdown), so `deliver` closures
/// should hold only weak references to the transport that owns the line.
pub(crate) struct DelayLine {
    shared: Arc<DelayShared>,
    started: Once,
}

#[derive(Default)]
struct DelayShared {
    state: Mutex<DelayState>,
    signal: Condvar,
}

#[derive(Default)]
struct DelayState {
    heap: BinaryHeap<DelayEntry>,
    next_seq: u64,
    shutdown: bool,
}

struct DelayEntry {
    due: Instant,
    seq: u64,
    deliver: Box<dyn FnOnce() + Send>,
}

impl PartialEq for DelayEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayEntry {}
impl PartialOrd for DelayEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse so the BinaryHeap pops the earliest deadline first;
        // tie-break on sequence for FIFO between equal deadlines.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

impl DelayLine {
    /// How long the idle delay thread sleeps between liveness checks.
    const IDLE_WAIT: Duration = Duration::from_millis(50);

    pub(crate) fn new() -> Self {
        DelayLine {
            shared: Arc::default(),
            started: Once::new(),
        }
    }

    /// Runs `deliver` on the delay thread once `due` has passed.
    pub(crate) fn schedule(&self, due: Instant, deliver: impl FnOnce() + Send + 'static) {
        self.started.call_once(|| {
            let weak = Arc::downgrade(&self.shared);
            std::thread::Builder::new()
                .name("rdb-net-delay".into())
                .spawn(move || {
                    // Upgrading per round lets the line's owner be freed
                    // while the thread sleeps.
                    while let Some(shared) = weak.upgrade() {
                        if !shared.run_due() {
                            return;
                        }
                    }
                })
                .expect("spawn delay thread");
        });
        let mut st = self.shared.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.heap.push(DelayEntry {
            due,
            seq,
            deliver: Box::new(deliver),
        });
        self.shared.signal.notify_one();
    }

    /// Stops the delay thread; entries still parked are never delivered.
    pub(crate) fn shutdown(&self) {
        self.shared.state.lock().shutdown = true;
        self.shared.signal.notify_all();
    }
}

impl DelayShared {
    /// One round of the delay thread: deliver what is due, else sleep
    /// until the next deadline (or [`DelayLine::IDLE_WAIT`]). Returns
    /// `false` once the line is shut down.
    fn run_due(&self) -> bool {
        let mut due = Vec::new();
        {
            let mut st = self.state.lock();
            if st.shutdown {
                return false;
            }
            let now = Instant::now();
            while st.heap.peek().is_some_and(|e| e.due <= now) {
                due.push(st.heap.pop().expect("peeked entry exists").deliver);
            }
            if due.is_empty() {
                let wait = st.heap.peek().map_or(DelayLine::IDLE_WAIT, |e| {
                    e.due.saturating_duration_since(now)
                });
                self.signal.wait_for(&mut st, wait);
                return !st.shutdown;
            }
        }
        for deliver in due {
            deliver();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::{ClientId, ReplicaId};
    use std::sync::atomic::AtomicUsize;

    fn r(i: u32) -> Sender {
        Sender::Replica(ReplicaId(i))
    }

    #[test]
    fn crash_blocks_both_directions() {
        let fc = FaultController::new();
        fc.crash(r(1));
        assert!(fc.should_drop(r(0), r(1)));
        assert!(fc.should_drop(r(1), r(0)));
        assert!(!fc.should_drop(r(0), r(2)));
        assert!(fc.is_crashed(r(1)) && !fc.is_crashed(r(2)));
        fc.recover(r(1));
        assert!(!fc.should_drop(r(0), r(1)));
    }

    #[test]
    fn sever_and_heal() {
        let fc = FaultController::new();
        fc.partition(&[r(0)], &[r(1)]);
        assert!(fc.should_drop(r(0), r(1)));
        assert!(fc.should_drop(r(1), r(0)));
        fc.heal_all();
        assert!(!fc.should_drop(r(0), r(1)));
    }

    #[test]
    fn partition_cuts_cross_traffic_only() {
        let fc = FaultController::new();
        let a = [r(0), r(1)];
        let b = [r(2), r(3)];
        fc.partition(&a, &b);
        assert!(fc.should_drop(r(0), r(2)));
        assert!(fc.should_drop(r(3), r(1)));
        assert!(!fc.should_drop(r(0), r(1)));
        assert!(!fc.should_drop(r(2), r(3)));
        fc.heal_all();
        assert!(!fc.should_drop(r(0), r(2)));
    }

    #[test]
    fn drop_rate_statistics() {
        let fc = FaultController::new();
        fc.set_drop_rate(0.5);
        let drops = (0..10_000).filter(|_| fc.should_drop(r(0), r(1))).count();
        // Deterministic mixing should land near 50%.
        assert!((3_000..7_000).contains(&drops), "drops={drops}");
        fc.set_drop_rate(0.0);
        assert!(!fc.should_drop(r(0), r(1)));
    }

    #[test]
    fn drop_decisions_replay_per_link() {
        // Same seed → identical decision sequence on each link, even
        // when another link's traffic interleaves arbitrarily.
        let run = |interleave: bool| -> Vec<bool> {
            let fc = FaultController::new();
            fc.set_seed(7);
            fc.set_drop_rate(0.3);
            let mut out = Vec::new();
            for i in 0..1_000 {
                if interleave && i % 3 == 0 {
                    // Foreign-link traffic must not perturb (0 → 1).
                    fc.should_drop(r(2), r(3));
                    fc.should_drop(r(1), r(0));
                }
                out.push(fc.should_drop(r(0), r(1)));
            }
            out
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn different_seeds_differ_and_links_decorrelate() {
        let decisions = |seed: u64, from: Sender, to: Sender| -> Vec<bool> {
            let fc = FaultController::new();
            fc.set_seed(seed);
            fc.set_drop_rate(0.5);
            (0..256).map(|_| fc.should_drop(from, to)).collect()
        };
        assert_ne!(decisions(1, r(0), r(1)), decisions(2, r(0), r(1)));
        assert_ne!(decisions(1, r(0), r(1)), decisions(1, r(1), r(0)));
    }

    #[test]
    fn delay_jitter_is_bounded_and_deterministic() {
        let fc = FaultController::new();
        assert!(fc.delay_for(r(0), r(1)).is_none());
        fc.set_seed(11);
        fc.set_delay_jitter(Duration::from_micros(500));
        let a: Vec<_> = (0..64).map(|_| fc.delay_for(r(0), r(1)).unwrap()).collect();
        assert!(a.iter().all(|d| *d < Duration::from_micros(500)));
        assert!(a.iter().any(|d| *d > Duration::ZERO));

        let fc2 = FaultController::new();
        fc2.set_seed(11);
        fc2.set_delay_jitter(Duration::from_micros(500));
        let b: Vec<_> = (0..64)
            .map(|_| fc2.delay_for(r(0), r(1)).unwrap())
            .collect();
        assert_eq!(a, b, "same seed must replay the same jitter");

        fc.set_delay_jitter(Duration::ZERO);
        assert!(fc.delay_for(r(0), r(1)).is_none());
    }

    #[test]
    fn listeners_fire_on_crash_and_recover() {
        let fc = FaultController::new();
        let crashes = Arc::new(AtomicUsize::new(0));
        let recoveries = Arc::new(AtomicUsize::new(0));
        let (c, v) = (Arc::clone(&crashes), Arc::clone(&recoveries));
        fc.add_listener(Arc::new(move |_, down| {
            if down {
                c.fetch_add(1, Ordering::Relaxed);
            } else {
                v.fetch_add(1, Ordering::Relaxed);
            }
        }));
        fc.crash(r(1));
        fc.crash(r(1)); // idempotent: no second notification
        fc.recover(r(1));
        fc.recover(r(1));
        assert_eq!(crashes.load(Ordering::Relaxed), 1);
        assert_eq!(recoveries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clients_can_crash_too() {
        let fc = FaultController::new();
        let c = Sender::Client(ClientId(7));
        fc.crash(c);
        assert!(fc.should_drop(c, r(0)));
    }
}
