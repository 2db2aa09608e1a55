//! Real TCP transport: the in-memory switchboard's semantics over sockets,
//! driven by a nonblocking reactor.
//!
//! One [`TcpTransport`] is one node of a multi-process deployment (it can
//! host several local endpoints, e.g. thousands of client sessions in a
//! swarm process). Architecture:
//!
//! - **Event loops**: a small fixed pool of reactor threads
//!   ([`crate::reactor::Poller`], level-triggered) owns every socket.
//!   Connections are distributed round-robin across loops; each loop
//!   multiplexes accept, read and write readiness, so one process holds
//!   tens of thousands of sockets on a handful of threads instead of two
//!   threads per connection.
//! - **Outbound**: senders push frames onto a per-link bounded queue and
//!   notify the owning loop (once — an armed link is never re-notified).
//!   The loop drains the queue into a per-connection pending list and
//!   writes it with **vectored writes**, coalescing up to 64 frames per
//!   syscall. Replica-to-replica traffic (consensus gossip) uses a
//!   *drop-oldest* policy on overflow — the protocol tolerates loss and
//!   retransmits by design — while a message with a client on either end
//!   is *never* shed: the sender blocks on the queue (backpressure) until
//!   space frees up. Which policy applies is decided from the two
//!   endpoints in one place, `TcpInner::dispatch_now`. A send serializes
//!   the envelope **once** and shares the encoded buffer across every
//!   destination's queue.
//! - **Inbound**: frames decode through [`SignedMessage::decode`]'s
//!   memo-seeding path, so the zero-copy envelope (canonical bytes
//!   memoized, verified without re-serialization) survives the socket,
//!   and the reactor thread that read it calls the destination's
//!   [`Delivery`] function.
//! - **Routing**: replicas are dialed from the [`PeerMap`] by a single
//!   dialer thread (reconnect with exponential backoff, so a restarted
//!   replica rejoins without coordination). Clients are *not* in the map —
//!   a client dials every replica and announces itself with a HELLO frame,
//!   and replies travel back over the client-initiated connection (learned
//!   as a *reverse link*). In swarm mode ([`TcpConfig::dedicated_to`])
//!   each client endpoint instead gets its own *dedicated* connection to
//!   one replica, so an N-client swarm exercises N real sockets.
//! - **Reclamation**: closed connections are reaped *eagerly* — the loop
//!   deregisters the fd, frees the slab slot and drops the routes the
//!   moment the socket dies, so churned connections cannot accumulate
//!   (see [`TcpTransport::open_connections`]).
//! - **Faults**: [`FaultController`] is evaluated on the send side, same
//!   as the in-memory backend, so drops, partitions and a byzantine
//!   sender's rewrites behave identically over both. A rewritten envelope
//!   is encoded on its own, outside the broadcast's shared buffer.

use crate::fault::{DelayLine, FaultController};
use crate::frame::{self, Frame, FrameAccumulator};
use crate::reactor::{Event, Interest, Poller, WakeReceiver, Waker};
use crate::stats::NetworkStats;
use crate::transport::{Delivery, Endpoint, NetHandle, NetworkError, Transport};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender as ChanSender};
use parking_lot::{Condvar, Mutex, RwLock};
use rdb_common::codec::Wire;
use rdb_common::messages::{Sender, SignedMessage};
use rdb_common::{PeerMap, ReplicaId};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Outbound frames buffered per replica (gossip) link before the
/// drop-oldest policy applies.
const QUEUE_CAPACITY: usize = 4096;
/// Outbound frames buffered per client-path link (reverse and dedicated
/// links) before senders block.
const CLIENT_QUEUE_CAPACITY: usize = 4096;
/// Reactor threads driving the sockets. More loops add read/decode
/// parallelism; 2 is plenty for a 4-replica cluster.
const EVENT_LOOPS: usize = 2;

/// Configuration for a [`TcpTransport`].
#[derive(Debug, Clone, Default)]
pub struct TcpConfig {
    /// Address to accept peer connections on. `None` for client processes,
    /// which only dial out.
    pub listen: Option<SocketAddr>,
    /// Replica id → address map (clients are learned via HELLO frames).
    pub peers: PeerMap,
    /// Swarm mode: give every locally registered client endpoint its own
    /// dedicated connection to this replica (normally the view-0 primary)
    /// instead of sharing one link per replica. The id must be in `peers`.
    pub dedicated_to: Option<ReplicaId>,
}

impl TcpConfig {
    /// Config for replica `id` of `peers`: listens on its map entry.
    ///
    /// # Panics
    /// Panics if `id` is not in the map.
    pub fn for_replica(id: ReplicaId, peers: PeerMap) -> Self {
        let listen = peers.get(id).expect("replica id missing from peer map");
        TcpConfig {
            listen: Some(listen),
            peers,
            ..TcpConfig::default()
        }
    }

    /// Config for a client process: no listener, dials every replica.
    pub fn for_client(peers: PeerMap) -> Self {
        TcpConfig {
            listen: None,
            peers,
            ..TcpConfig::default()
        }
    }

    /// Config for a swarm process: no listener, one dedicated connection
    /// per client endpoint to `primary`, shared links to the rest.
    pub fn for_swarm(peers: PeerMap, primary: ReplicaId) -> Self {
        TcpConfig {
            listen: None,
            peers,
            dedicated_to: Some(primary),
        }
    }
}

/// Upper bound of the per-destination MSG frame header (tag + `Sender`),
/// used by the send-side oversize guard.
const MSG_HEADER_MAX: usize = 16;

/// Initial reconnect backoff for dialed links.
const RECONNECT_MIN: Duration = Duration::from_millis(10);
/// Backoff ceiling (doubles from [`RECONNECT_MIN`] up to this).
const RECONNECT_MAX: Duration = Duration::from_secs(1);
/// Connect timeout for the dialer thread.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Granularity at which blocked threads re-check for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Reserved poller token: the loop's wake pipe.
const WAKER_TOKEN: usize = usize::MAX;
/// Reserved poller token: the accept listener (loop 0 only).
const LISTENER_TOKEN: usize = usize::MAX - 1;

/// Frames coalesced into one vectored write (two iovecs each).
const MAX_WRITE_FRAMES: usize = 64;
/// Pending frames refilled from the link queue per drain.
const REFILL_BATCH: usize = 128;
/// Frames parsed per readiness event before yielding (level-triggered
/// polling re-reports a still-readable socket, so fairness is free).
const MAX_READ_FRAMES: usize = 256;

/// One queued outbound frame.
#[derive(Clone)]
enum OutFrame {
    /// Announce a local endpoint to the peer (routing for replies).
    Hello(Sender),
    /// An envelope for `to`; `payload` is the shared canonical encoding.
    /// `reliable` frames are never shed by the overflow policy.
    Msg {
        to: Sender,
        payload: Arc<Vec<u8>>,
        reliable: bool,
    },
}

impl OutFrame {
    fn sheddable(&self) -> bool {
        matches!(
            self,
            OutFrame::Msg {
                reliable: false,
                ..
            }
        )
    }
}

/// What a link connects to — determines hello policy and teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkPeer {
    /// Shared dialed link to a replica in the peer map.
    Replica(ReplicaId),
    /// Dedicated dialed link carrying exactly one client endpoint.
    Dedicated { owner: Sender },
    /// Reverse link bound to one accepted connection.
    Accepted,
}

/// A bounded outbound queue drained by the event loop that owns its
/// connection. Senders push and (at most once while the queue is armed)
/// notify the owner; the loop drains, and disarms only after observing an
/// empty queue under the same lock pushes take — so a push can never be
/// stranded without either a pending notify or a registered write
/// interest.
struct Link {
    peer: LinkPeer,
    /// Dial target; `None` for accepted (reverse) links.
    addr: Option<SocketAddr>,
    capacity: usize,
    state: Mutex<LinkState>,
    space: Condvar,
}

struct LinkState {
    frames: VecDeque<OutFrame>,
    closed: bool,
    /// The owning loop already knows about queued frames (a flush command
    /// is in flight or write interest is registered).
    armed: bool,
    /// Owning connection, if currently bound: (loop index, token).
    owner: Option<(usize, usize)>,
}

enum PushPolicy {
    /// Drop-oldest on overflow — replica gossip tolerates loss.
    Gossip,
    /// Never shed; blocks the sender (backpressure) on overflow.
    Reliable,
}

impl Link {
    fn new(peer: LinkPeer, addr: Option<SocketAddr>, capacity: usize) -> Arc<Link> {
        Arc::new(Link {
            peer,
            addr,
            capacity: capacity.max(1),
            state: Mutex::new(LinkState {
                frames: VecDeque::new(),
                closed: false,
                armed: false,
                owner: None,
            }),
            space: Condvar::new(),
        })
    }

    /// Queues `f`, returning the `(loop, token)` to notify if the link was
    /// not already armed. HELLO frames bypass the capacity check — a
    /// routing announcement is never shed and never a backpressure source
    /// (there are at most as many as local endpoints).
    fn push(
        &self,
        f: OutFrame,
        policy: PushPolicy,
        stats: &NetworkStats,
    ) -> Option<(usize, usize)> {
        let mut s = self.state.lock();
        if s.closed {
            return None;
        }
        if !matches!(f, OutFrame::Hello(_)) {
            loop {
                if s.frames.len() < self.capacity {
                    break;
                }
                // Overflow: shed the oldest sheddable frame. A queued
                // HELLO is a routing announcement and losing one would
                // permanently strand a reply path, so only non-reliable
                // Msg frames are victims.
                if let Some(idx) = s.frames.iter().position(OutFrame::sheddable) {
                    s.frames.remove(idx);
                    stats.record_dropped();
                    break;
                }
                match policy {
                    // Nothing sheddable (hellos/reliable only): gossip may
                    // exceed capacity rather than stall the pipeline.
                    PushPolicy::Gossip => break,
                    PushPolicy::Reliable => {
                        self.space.wait(&mut s);
                        if s.closed {
                            return None;
                        }
                    }
                }
            }
        }
        s.frames.push_back(f);
        if !s.armed {
            if let Some(owner) = s.owner {
                s.armed = true;
                return Some(owner);
            }
        }
        None
    }

    /// Moves up to `max` frames into the connection's pending list.
    fn drain_into(&self, out: &mut VecDeque<PendingFrame>, max: usize) {
        let mut s = self.state.lock();
        let mut n = 0;
        while n < max {
            match s.frames.pop_front() {
                Some(f) => {
                    out.push_back(PendingFrame::new(f));
                    n += 1;
                }
                None => break,
            }
        }
        if n > 0 {
            self.space.notify_all();
        }
    }

    /// Disarms iff the queue is still empty (checked under the push lock,
    /// closing the push/disarm race). Returns whether it disarmed.
    fn disarm_if_empty(&self) -> bool {
        let mut s = self.state.lock();
        if s.frames.is_empty() {
            s.armed = false;
            true
        } else {
            false
        }
    }

    /// Returns unsent frames to the queue front (in order) after a
    /// connection died; they retry on the next connection.
    fn requeue_front(&self, frames: Vec<OutFrame>) {
        let mut s = self.state.lock();
        for f in frames.into_iter().rev() {
            s.frames.push_front(f);
        }
    }

    fn bind(&self, loop_idx: usize, token: usize) {
        let mut s = self.state.lock();
        s.owner = Some((loop_idx, token));
        // The adopting loop flushes immediately; arm so senders skip
        // redundant notifies meanwhile.
        s.armed = true;
    }

    fn unbind(&self, loop_idx: usize, token: usize) {
        let mut s = self.state.lock();
        if s.owner == Some((loop_idx, token)) {
            s.owner = None;
            s.armed = false;
        }
    }

    fn owner(&self) -> Option<(usize, usize)> {
        self.state.lock().owner
    }

    fn close(&self) {
        let mut s = self.state.lock();
        s.closed = true;
        self.space.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

/// One outbound frame staged on a connection, with partial-write progress.
struct PendingFrame {
    /// Length prefix + (hello body | per-destination MSG header).
    head: Vec<u8>,
    /// The broadcast-shared envelope bytes (MSG frames only).
    payload: Option<Arc<Vec<u8>>>,
    /// The original frame, retained so a dead connection can requeue it.
    frame: OutFrame,
    written: usize,
}

impl PendingFrame {
    fn new(frame: OutFrame) -> PendingFrame {
        let (head, payload) = match &frame {
            OutFrame::Hello(from) => {
                let body = frame::hello_body(*from);
                let mut head = (body.len() as u32).to_le_bytes().to_vec();
                head.extend_from_slice(&body);
                (head, None)
            }
            OutFrame::Msg { to, payload, .. } => {
                let header = frame::msg_header(*to);
                let total = (header.len() + payload.len()) as u32;
                let mut head = total.to_le_bytes().to_vec();
                head.extend_from_slice(&header);
                (head, Some(Arc::clone(payload)))
            }
        };
        PendingFrame {
            head,
            payload,
            frame,
            written: 0,
        }
    }

    fn total_len(&self) -> usize {
        self.head.len() + self.payload.as_ref().map_or(0, |p| p.len())
    }
}

/// One live socket owned by an event loop.
struct Conn {
    stream: TcpStream,
    acc: FrameAccumulator,
    /// The outbound queue this connection drains. Dialed connections use
    /// the persistent (shared or dedicated) link; accepted connections get
    /// a fresh reverse link.
    link: Arc<Link>,
    pending: VecDeque<PendingFrame>,
    /// Endpoints the peer announced over this connection (reverse routes
    /// to drop on teardown).
    announced: Vec<Sender>,
    /// Write interest currently registered with the poller.
    want_write: bool,
    /// Dialed links persist (requeue + redial on death); accepted links
    /// die with their connection.
    dialed: bool,
}

/// Token-indexed connection storage with slot reuse.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Slab {
    fn insert(&mut self, conn: Conn) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(conn);
                i
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        }
    }

    fn get_mut(&mut self, token: usize) -> Option<&mut Conn> {
        self.slots.get_mut(token)?.as_mut()
    }

    fn remove(&mut self, token: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(token)?.take();
        if conn.is_some() {
            self.free.push(token);
        }
        conn
    }

    fn tokens(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }
}

enum LoopCmd {
    /// Take ownership of an established connection.
    Adopt {
        stream: TcpStream,
        link: Arc<Link>,
        dialed: bool,
    },
    /// A link owned by connection `token` has queued frames.
    Flush(usize),
    /// Tear down connection `token` now (eager reclamation).
    Close(usize),
}

/// The sending side of one event loop.
struct LoopHandle {
    cmd_tx: ChanSender<LoopCmd>,
    waker: Waker,
    /// True while the loop is (about to be) blocked in the poller; lets
    /// senders skip the wake syscall when the loop is already running.
    sleeping: Arc<AtomicBool>,
}

struct DialRequest {
    link: Arc<Link>,
    /// Wait this long before attempting.
    delay: Duration,
    /// Delay after the next failure (doubles up to [`RECONNECT_MAX`]).
    backoff: Duration,
}

struct TcpInner {
    cfg: TcpConfig,
    local_addr: Option<SocketAddr>,
    /// Where each endpoint hosted here takes its messages.
    deliveries: RwLock<HashMap<Sender, Delivery>>,
    /// Endpoints hosted by this transport, announced in HELLOs, with
    /// their dedicated-link target (swarm mode) if any.
    locals: RwLock<Vec<(Sender, Option<ReplicaId>)>>,
    /// Shared links to replicas in the peer map, created on first use.
    dialed: RwLock<HashMap<u32, Arc<Link>>>,
    /// Dedicated per-client links (swarm mode).
    dedicated: RwLock<HashMap<Sender, Arc<Link>>>,
    /// Links learned from inbound HELLOs (clients, chiefly).
    reverse: RwLock<HashMap<Sender, Arc<Link>>>,
    loops: OnceLock<Vec<LoopHandle>>,
    dial_tx: OnceLock<ChanSender<DialRequest>>,
    stats: NetworkStats,
    faults: FaultController,
    shutdown: AtomicBool,
    /// Live socket gauge across all loops (readable via
    /// [`TcpTransport::open_connections`]).
    open_conns: AtomicUsize,
    /// Round-robin cursor for assigning connections to loops.
    rr: AtomicUsize,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Holds jitter-delayed envelopes until they are due.
    delay: DelayLine,
}

impl TcpInner {
    fn loops(&self) -> &[LoopHandle] {
        self.loops.get().expect("event loops started")
    }

    fn deliver(&self, to: Sender, msg: SignedMessage) {
        let kind = msg.kind();
        if let Some(deliver) = self.deliveries.read().get(&to) {
            if deliver(msg) {
                self.stats.record_delivered(kind);
                return;
            }
        }
        self.stats.record_dropped();
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Hands a flush/close/adopt command to loop `li`, waking it only if
    /// it is parked in the poller.
    fn send_loop_cmd(&self, li: usize, cmd: LoopCmd) {
        let h = &self.loops()[li];
        let _ = h.cmd_tx.send(cmd);
        if h.sleeping.load(Ordering::SeqCst) {
            h.waker.wake();
        }
    }

    fn notify_owner(&self, owner: Option<(usize, usize)>) {
        if let Some((li, token)) = owner {
            self.send_loop_cmd(li, LoopCmd::Flush(token));
        }
    }

    fn push_link(&self, link: &Link, f: OutFrame, policy: PushPolicy) {
        let owner = link.push(f, policy, &self.stats);
        self.notify_owner(owner);
    }

    /// Round-robin loop assignment for new connections.
    fn next_loop(&self) -> usize {
        self.rr.fetch_add(1, Ordering::Relaxed) % self.loops().len()
    }

    fn request_dial(&self, link: Arc<Link>, delay: Duration) {
        if let Some(tx) = self.dial_tx.get() {
            let _ = tx.send(DialRequest {
                link,
                delay,
                backoff: RECONNECT_MIN,
            });
        }
    }

    /// Get-or-create the shared dialed link for a mapped replica.
    /// Read-locked fast path: after the first message to a peer this is a
    /// shared-lock map lookup, so concurrent senders do not serialize.
    fn dialed_link(&self, id: ReplicaId, addr: SocketAddr) -> Arc<Link> {
        if let Some(link) = self.dialed.read().get(&id.0) {
            return Arc::clone(link);
        }
        let mut dialed = self.dialed.write();
        // Double-check: another sender may have raced the upgrade.
        if let Some(link) = dialed.get(&id.0) {
            return Arc::clone(link);
        }
        let link = Link::new(LinkPeer::Replica(id), Some(addr), QUEUE_CAPACITY);
        dialed.insert(id.0, Arc::clone(&link));
        drop(dialed);
        self.request_dial(Arc::clone(&link), Duration::ZERO);
        link
    }

    /// The outbound link for `from → to`, if any route exists.
    fn route_to(&self, from: Sender, to: Sender) -> Option<Arc<Link>> {
        if let (Some(primary), Sender::Replica(r)) = (self.cfg.dedicated_to, to) {
            if r == primary {
                if let Some(link) = self.dedicated.read().get(&from) {
                    return Some(Arc::clone(link));
                }
            }
        }
        if let Sender::Replica(r) = to {
            if let Some(addr) = self.cfg.peers.get(r) {
                return Some(self.dialed_link(r, addr));
            }
        }
        self.reverse.read().get(&to).cloned()
    }

    /// Whether a dial for `link` must wait: the remote replica — or the
    /// local node itself — is currently crash-faulted, so re-establishing
    /// the socket would undo the injected failure. The dialer keeps the
    /// request in its backoff queue, which is exactly the reconnect path
    /// a recovery then exercises.
    fn dial_blocked(&self, link: &Link) -> bool {
        let target = match link.peer {
            LinkPeer::Replica(r) => Some(Sender::Replica(r)),
            LinkPeer::Dedicated { owner } => {
                if self.faults.is_crashed(owner) {
                    return true;
                }
                self.cfg.dedicated_to.map(Sender::Replica)
            }
            LinkPeer::Accepted => None,
        };
        if target.is_some_and(|t| self.faults.is_crashed(t)) {
            return true;
        }
        // A crashed local replica endpoint must not keep dialing out.
        self.locals
            .read()
            .iter()
            .any(|(a, _)| matches!(a, Sender::Replica(_)) && self.faults.is_crashed(*a))
    }

    /// Tears down every live socket touching `node` (crash fault). Dialed
    /// links are *not* closed: `close_conn` requeues their unsent frames
    /// and re-enters the dialer, which stalls in backoff until the node
    /// recovers — so recovery rides the real reconnect path. Accepted
    /// (reverse) links are closed by `close_conn` itself; the remote
    /// re-dials and re-announces after its own recovery.
    fn teardown_sockets(&self, node: Sender) {
        let mut links: Vec<Arc<Link>> = Vec::new();
        let local = self.locals.read().iter().any(|(a, _)| *a == node);
        if local {
            // The node itself crashed: drop every connection it owns.
            links.extend(self.dialed.read().values().cloned());
            links.extend(self.dedicated.read().values().cloned());
            links.extend(self.reverse.read().values().cloned());
        } else {
            if let Sender::Replica(r) = node {
                if let Some(l) = self.dialed.read().get(&r.0) {
                    links.push(Arc::clone(l));
                }
                if self.cfg.dedicated_to == Some(r) {
                    links.extend(self.dedicated.read().values().cloned());
                }
            }
            if let Some(l) = self.reverse.read().get(&node) {
                links.push(Arc::clone(l));
            }
        }
        for link in links {
            if let Some((li, token)) = link.owner() {
                self.send_loop_cmd(li, LoopCmd::Close(token));
            }
        }
    }

    /// Routes one (possibly jitter-delayed) envelope: local endpoints
    /// short-circuit the socket, everything else rides a link. Stats and
    /// fault decisions already happened at send time.
    fn dispatch_now(
        &self,
        from: Sender,
        to: Sender,
        msg: &SignedMessage,
        payload: &mut Option<Arc<Vec<u8>>>,
    ) {
        if self.deliveries.read().contains_key(&to) {
            self.deliver(to, msg.clone());
            return;
        }
        let Some(link) = self.route_to(from, to) else {
            self.stats.record_dropped();
            return;
        };
        // Send-side twin of the reader's MAX_FRAME guard: an envelope the
        // receiver is guaranteed to reject must not reach the wire — the
        // link would otherwise retry the same doomed frame through endless
        // reconnects, wedging it. Dropping it (counted) is the only
        // deliverable outcome.
        if msg.encoded_len() + MSG_HEADER_MAX > frame::MAX_FRAME {
            self.stats.record_dropped();
            return;
        }
        let shared = payload
            .get_or_insert_with(|| Arc::new(msg.encode()))
            .clone();
        // The one reliability rule: a client on either end (a request, a
        // reply) is never shed; replica-to-replica gossip is droppable.
        let reliable = matches!(from, Sender::Client(_)) || matches!(to, Sender::Client(_));
        let policy = if reliable {
            PushPolicy::Reliable
        } else {
            PushPolicy::Gossip
        };
        self.push_link(
            &link,
            OutFrame::Msg {
                to,
                payload: shared,
                reliable,
            },
            policy,
        );
    }

    /// The HELLOs a freshly connected dialed link announces. A dedicated
    /// link announces exactly its one client; a shared link to replica `r`
    /// announces every local endpoint *except* clients whose dedicated
    /// link targets `r` (those announce themselves on their own
    /// connection — announcing them here too would flap the peer's
    /// latest-wins reverse route between the two sockets).
    fn hellos_for(&self, link: &Link) -> Vec<Sender> {
        match link.peer {
            LinkPeer::Dedicated { owner } => vec![owner],
            LinkPeer::Replica(r) => self
                .locals
                .read()
                .iter()
                .filter(|(_, dedicated)| *dedicated != Some(r))
                .map(|(addr, _)| *addr)
                .collect(),
            LinkPeer::Accepted => Vec::new(),
        }
    }
}

fn configure_stream(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)
}

/// The single dialer thread: establishes outbound connections (blocking
/// `connect_timeout` — `std` has no nonblocking connect) from a deadline
/// queue with per-link exponential backoff, then hands each socket to an
/// event loop. Dials are serialized, so a cluster of unreachable peers
/// with filtered ports can delay each other by up to the connect timeout;
/// on loopback (and healthy networks) refusal is immediate.
fn dialer(inner: &Arc<TcpInner>, rx: &Receiver<DialRequest>) {
    let mut pending: Vec<(Instant, DialRequest)> = Vec::new();
    while !inner.is_shutdown() {
        let now = Instant::now();
        let mut next_due = now + POLL_INTERVAL;
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 <= now {
                let (_, req) = pending.swap_remove(i);
                attempt_dial(inner, req, &mut pending);
            } else {
                next_due = next_due.min(pending[i].0);
                i += 1;
            }
        }
        let wait = next_due
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        match rx.recv_timeout(wait) {
            Ok(req) => {
                let due = Instant::now() + req.delay;
                pending.push((due, req));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn attempt_dial(
    inner: &Arc<TcpInner>,
    req: DialRequest,
    pending: &mut Vec<(Instant, DialRequest)>,
) {
    if req.link.is_closed() || inner.is_shutdown() {
        return;
    }
    if inner.dial_blocked(&req.link) {
        // A crash fault is pinning this link down; keep backing off so
        // recovery reconnects through the normal retry path.
        pending.push((
            Instant::now() + req.backoff,
            DialRequest {
                link: req.link,
                delay: req.backoff,
                backoff: (req.backoff * 2).min(RECONNECT_MAX),
            },
        ));
        return;
    }
    let addr = req.link.addr.expect("dialed link has an address");
    match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
        Ok(stream) if configure_stream(&stream).is_ok() => {
            let li = inner.next_loop();
            inner.send_loop_cmd(
                li,
                LoopCmd::Adopt {
                    stream,
                    link: req.link,
                    dialed: true,
                },
            );
        }
        _ => {
            pending.push((
                Instant::now() + req.backoff,
                DialRequest {
                    link: req.link,
                    delay: req.backoff,
                    backoff: (req.backoff * 2).min(RECONNECT_MAX),
                },
            ));
        }
    }
}

/// One reactor thread: owns a poller, a slab of connections, and (for
/// loop 0) the accept listener.
struct EventLoop {
    idx: usize,
    inner: Arc<TcpInner>,
    poller: Poller,
    conns: Slab,
    cmd_rx: Receiver<LoopCmd>,
    wake_rx: WakeReceiver,
    sleeping: Arc<AtomicBool>,
    listener: Option<TcpListener>,
}

impl EventLoop {
    fn run(mut self) {
        if self
            .poller
            .register(self.wake_rx.raw_fd(), WAKER_TOKEN, Interest::READ)
            .is_err()
        {
            return;
        }
        if let Some(listener) = &self.listener {
            if listener.set_nonblocking(true).is_err()
                || self
                    .poller
                    .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
                    .is_err()
            {
                return;
            }
        }
        let mut events: Vec<Event> = Vec::new();
        loop {
            while let Ok(cmd) = self.cmd_rx.try_recv() {
                self.handle_cmd(cmd);
            }
            if self.inner.is_shutdown() {
                break;
            }
            // Sleep/wake protocol: publish "sleeping", then re-check the
            // command queue — a sender that enqueued after our check will
            // observe sleeping=true and wake us; one that enqueued before
            // is caught by this re-check.
            self.sleeping.store(true, Ordering::SeqCst);
            if !self.cmd_rx.is_empty() || self.inner.is_shutdown() {
                self.sleeping.store(false, Ordering::SeqCst);
                continue;
            }
            let res = self.poller.wait(&mut events, POLL_INTERVAL);
            self.sleeping.store(false, Ordering::SeqCst);
            if res.is_err() {
                break;
            }
            for &ev in &events {
                match ev.token {
                    WAKER_TOKEN => self.wake_rx.drain(),
                    LISTENER_TOKEN => self.accept_burst(),
                    token => self.conn_event(token, ev),
                }
            }
        }
        self.teardown_all();
    }

    fn handle_cmd(&mut self, cmd: LoopCmd) {
        match cmd {
            LoopCmd::Adopt {
                stream,
                link,
                dialed,
            } => self.adopt(stream, link, dialed),
            LoopCmd::Flush(token) => {
                // If write interest is registered the poller is already
                // driving this connection; a flush attempt would just
                // collect another WouldBlock.
                if let Some(conn) = self.conns.get_mut(token) {
                    if conn.want_write {
                        return;
                    }
                }
                self.flush_conn(token);
            }
            LoopCmd::Close(token) => self.close_conn(token),
        }
    }

    fn adopt(&mut self, stream: TcpStream, link: Arc<Link>, dialed: bool) {
        if self.inner.is_shutdown() || (dialed && link.is_closed()) {
            return; // dropping the stream closes it
        }
        let hellos = if dialed {
            self.inner.hellos_for(&link)
        } else {
            Vec::new()
        };
        let fd = stream.as_raw_fd();
        let token = self.conns.insert(Conn {
            stream,
            acc: FrameAccumulator::new(),
            link: Arc::clone(&link),
            pending: hellos
                .into_iter()
                .map(|from| PendingFrame::new(OutFrame::Hello(from)))
                .collect(),
            announced: Vec::new(),
            want_write: false,
            dialed,
        });
        if self.poller.register(fd, token, Interest::READ).is_err() {
            self.conns.remove(token);
            if dialed {
                self.inner.request_dial(link, RECONNECT_MIN);
            }
            return;
        }
        link.bind(self.idx, token);
        self.inner.open_conns.fetch_add(1, Ordering::Relaxed);
        self.flush_conn(token);
    }

    fn accept_burst(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    if configure_stream(&stream).is_err() {
                        continue;
                    }
                    let link = Link::new(LinkPeer::Accepted, None, CLIENT_QUEUE_CAPACITY);
                    // Spread accepted connections across all loops; the
                    // command is drained at the top of each iteration, so
                    // self-assignment works too.
                    let li = self.inner.next_loop();
                    self.inner.send_loop_cmd(
                        li,
                        LoopCmd::Adopt {
                            stream,
                            link,
                            dialed: false,
                        },
                    );
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Transient accept failure (e.g. EMFILE): level-triggered
                // polling retries on the next tick.
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: usize, ev: Event) {
        let dead = if let Some(conn) = self.conns.get_mut(token) {
            // A pure hangup (no pending bytes) kills the connection; if
            // it is also readable, drain first so the final frames are
            // not lost, and let the read error/EOF report the death.
            let dead = (ev.hangup && !ev.readable)
                || (ev.readable && read_burst(&self.inner, conn).is_err());
            if !dead && ev.writable {
                self.flush_conn(token);
                return;
            }
            dead
        } else {
            return; // torn down earlier in this batch
        };
        if dead {
            self.close_conn(token);
        }
    }

    /// Drains the connection's link through vectored writes until the
    /// socket blocks or the queue is empty, maintaining write interest
    /// and the link's armed flag.
    fn flush_conn(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            if conn.pending.len() < MAX_WRITE_FRAMES {
                let room = REFILL_BATCH - conn.pending.len().min(REFILL_BATCH);
                conn.link.drain_into(&mut conn.pending, room);
            }
            if conn.pending.is_empty() {
                if conn.link.disarm_if_empty() {
                    if conn.want_write {
                        conn.want_write = false;
                        let fd = conn.stream.as_raw_fd();
                        let _ = self.poller.reregister(fd, token, Interest::READ);
                    }
                    return;
                }
                continue; // frames landed between drain and disarm
            }
            match write_pending(conn) {
                Ok(true) => {
                    // Socket is full: register write interest and let the
                    // poller resume us. The link stays armed — senders
                    // need not notify while the kernel drives the flush.
                    if !conn.want_write {
                        conn.want_write = true;
                        let fd = conn.stream.as_raw_fd();
                        let _ = self.poller.reregister(fd, token, Interest::READ_WRITE);
                    }
                    return;
                }
                Ok(false) => continue,
                // Write error: fall through to teardown (the only way out
                // of the loop other than return).
                Err(_) => break,
            }
        }
        self.close_conn(token);
    }

    /// Eagerly reclaims a dead connection: poller slot, slab slot, gauge,
    /// reverse routes; requeues + redials for dialed links, closes
    /// accepted links so senders stop routing to them.
    fn close_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.inner.open_conns.fetch_sub(1, Ordering::Relaxed);
        conn.link.unbind(self.idx, token);
        if !conn.announced.is_empty() {
            let mut reverse = self.inner.reverse.write();
            for addr in &conn.announced {
                if reverse
                    .get(addr)
                    .is_some_and(|l| Arc::ptr_eq(l, &conn.link))
                {
                    reverse.remove(addr);
                }
            }
        }
        if conn.dialed {
            // A partially written frame is safe to resend in full: the
            // receiver saw a truncated frame and discarded the connection
            // state with it.
            let unsent: Vec<OutFrame> = conn.pending.into_iter().map(|pf| pf.frame).collect();
            conn.link.requeue_front(unsent);
            if !conn.link.is_closed() && !self.inner.is_shutdown() {
                self.inner.request_dial(conn.link, RECONNECT_MIN);
            }
        } else {
            conn.link.close();
        }
    }

    fn teardown_all(&mut self) {
        for token in self.conns.tokens() {
            self.close_conn(token);
        }
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
    }
}

/// Parses inbound frames until the socket would block (bounded per event;
/// level-triggered polling re-reports leftover readability).
fn read_burst(inner: &Arc<TcpInner>, conn: &mut Conn) -> io::Result<()> {
    for _ in 0..MAX_READ_FRAMES {
        match conn.acc.poll(&mut (&conn.stream)) {
            Ok(Some(body)) => handle_frame(inner, conn, &body)?,
            Ok(None) => return Ok(()),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn handle_frame(inner: &Arc<TcpInner>, conn: &mut Conn, body: &[u8]) -> io::Result<()> {
    match frame::parse_frame(body)? {
        Frame::Hello(from) => {
            // Latest announcement wins: a restarted client's new
            // connection replaces the stale route. Only accepted links
            // are closed when replaced — a shared dialed link may carry
            // other endpoints' traffic and must survive.
            if let Some(old) = inner.reverse.write().insert(from, Arc::clone(&conn.link)) {
                if !Arc::ptr_eq(&old, &conn.link) && old.peer == LinkPeer::Accepted {
                    old.close();
                }
            }
            conn.announced.push(from);
        }
        Frame::Msg { to, msg } => inner.deliver(to, msg),
    }
    Ok(())
}

/// Writes a vectored burst from the pending list. Returns `Ok(true)` if
/// the socket blocked, `Ok(false)` if progress was made.
fn write_pending(conn: &mut Conn) -> io::Result<bool> {
    let mut slices: Vec<IoSlice<'_>> =
        Vec::with_capacity(2 * conn.pending.len().min(MAX_WRITE_FRAMES));
    for (i, pf) in conn.pending.iter().take(MAX_WRITE_FRAMES).enumerate() {
        let mut off = if i == 0 { pf.written } else { 0 };
        if off < pf.head.len() {
            slices.push(IoSlice::new(&pf.head[off..]));
            off = 0;
        } else {
            off -= pf.head.len();
        }
        if let Some(payload) = &pf.payload {
            if off < payload.len() {
                slices.push(IoSlice::new(&payload[off..]));
            }
        }
    }
    match (&conn.stream).write_vectored(&slices) {
        Ok(0) => Err(io::ErrorKind::WriteZero.into()),
        Ok(mut n) => {
            while n > 0 {
                let pf = conn
                    .pending
                    .front_mut()
                    .expect("wrote more bytes than were pending");
                let remaining = pf.total_len() - pf.written;
                if n >= remaining {
                    n -= remaining;
                    conn.pending.pop_front();
                } else {
                    pf.written += n;
                    n = 0;
                }
            }
            Ok(false)
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(false),
        Err(e) => Err(e),
    }
}

/// Binds a listener with `SO_REUSEADDR` set and a 1024-deep accept
/// backlog. On Linux std's `TcpListener::bind` sets `SO_REUSEADDR` too
/// (a std listener also rebinds through a served connection's TIME_WAIT);
/// what this adds is the backlog: std listens with 128, so a burst of
/// connects the reactor has not accepted yet — a swarm's sessions dialing
/// at once — overflows it and the extra SYNs wait out a retransmit.
/// Non-IPv4 addresses and non-Linux targets fall back to the std bind.
#[cfg(target_os = "linux")]
fn bind_reuseaddr(addr: SocketAddr) -> io::Result<TcpListener> {
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::FromRawFd;

    let SocketAddr::V4(v4) = addr else {
        return TcpListener::bind(addr);
    };

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;

    /// Mirrors the kernel's `struct sockaddr_in` (16 bytes, no padding).
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        /// Network byte order.
        port: u16,
        /// Network byte order.
        addr: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    // SAFETY: plain syscalls on a socket fd this function owns until it
    // is wrapped into a TcpListener (or closed on the error paths).
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let fail = |fd: c_int| -> io::Error {
        let e = io::Error::last_os_error();
        unsafe { close(fd) };
        e
    };
    let one: c_int = 1;
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            (&one as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(fail(fd));
    }
    let sa = SockaddrIn {
        family: AF_INET as u16,
        port: v4.port().to_be(),
        addr: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    if unsafe { bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) } < 0 {
        return Err(fail(fd));
    }
    if unsafe { listen(fd, 1024) } < 0 {
        return Err(fail(fd));
    }
    Ok(unsafe { TcpListener::from_raw_fd(fd) })
}

#[cfg(not(target_os = "linux"))]
fn bind_reuseaddr(addr: SocketAddr) -> io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// A TCP-backed [`Transport`]: one instance per OS process/node.
///
/// Call [`TcpTransport::shutdown`] (or `NetHandle::shutdown`) when done —
/// background threads hold the transport alive until then.
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<TcpInner>,
}

impl fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpTransport")
            .field("listen", &self.inner.local_addr)
            .field("peers", &self.inner.cfg.peers.len())
            .finish()
    }
}

impl TcpTransport {
    /// Starts a transport, binding the listener named in `cfg.listen` (if
    /// any) and spawning the reactor threads.
    ///
    /// # Errors
    /// Returns the bind error if the listen address is taken or invalid.
    pub fn new(cfg: TcpConfig) -> io::Result<TcpTransport> {
        let listener = match cfg.listen {
            Some(addr) => Some(bind_reuseaddr(addr)?),
            None => None,
        };
        Ok(Self::with_listener(cfg, listener))
    }

    /// Starts a transport over a pre-bound listener (or none). Useful when
    /// ports are allocated by the OS first (`127.0.0.1:0`) and the peer
    /// map is assembled from the actual bound addresses.
    pub fn with_listener(cfg: TcpConfig, listener: Option<TcpListener>) -> TcpTransport {
        let local_addr = listener.as_ref().and_then(|l| l.local_addr().ok());
        let inner = Arc::new(TcpInner {
            cfg,
            local_addr,
            deliveries: RwLock::new(HashMap::new()),
            locals: RwLock::new(Vec::new()),
            dialed: RwLock::new(HashMap::new()),
            dedicated: RwLock::new(HashMap::new()),
            reverse: RwLock::new(HashMap::new()),
            loops: OnceLock::new(),
            dial_tx: OnceLock::new(),
            stats: NetworkStats::new(),
            faults: FaultController::new(),
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
            threads: Mutex::new(Vec::new()),
            delay: DelayLine::new(),
        });
        // Crash faults tear real sockets down (recovery then re-dials);
        // the listener holds a weak ref so the controller never keeps the
        // transport alive.
        let weak = Arc::downgrade(&inner);
        inner.faults.add_listener(Arc::new(move |node, down| {
            if down {
                if let Some(inner) = weak.upgrade() {
                    inner.teardown_sockets(node);
                }
            }
        }));
        let mut handles = Vec::with_capacity(EVENT_LOOPS);
        let mut ev_loops = Vec::with_capacity(EVENT_LOOPS);
        let mut listener = listener;
        for idx in 0..EVENT_LOOPS {
            let (cmd_tx, cmd_rx) = channel::unbounded();
            let (waker, wake_rx) = crate::reactor::wake_pair().expect("create reactor wake pipe");
            let sleeping = Arc::new(AtomicBool::new(false));
            handles.push(LoopHandle {
                cmd_tx,
                waker,
                sleeping: Arc::clone(&sleeping),
            });
            ev_loops.push(EventLoop {
                idx,
                inner: Arc::clone(&inner),
                poller: Poller::new().expect("create reactor poller"),
                conns: Slab::default(),
                cmd_rx,
                wake_rx,
                sleeping,
                listener: listener.take(), // loop 0 gets the listener
            });
        }
        // Before any loop runs: a peer already dialing this port (a
        // restarted replica's do) is accepted, and handed to a loop by
        // index, on loop 0's first iteration.
        inner.loops.set(handles).ok().expect("loops set once");
        let mut threads: Vec<_> = ev_loops
            .into_iter()
            .map(|ev_loop| {
                std::thread::Builder::new()
                    .name(format!("tcp-loop-{}", ev_loop.idx))
                    .spawn(move || ev_loop.run())
                    .expect("spawn tcp event loop")
            })
            .collect();
        let (dial_tx, dial_rx) = channel::unbounded();
        inner.dial_tx.set(dial_tx).expect("dialer set once");
        let dial_inner = Arc::clone(&inner);
        threads.push(
            std::thread::Builder::new()
                .name("tcp-dialer".into())
                .spawn(move || dialer(&dial_inner, &dial_rx))
                .expect("spawn tcp dialer"),
        );
        *inner.threads.lock() = threads;
        TcpTransport { inner }
    }

    /// Binds `n` ephemeral loopback listeners and returns the resulting
    /// peer map plus the listeners (pass each to
    /// [`TcpTransport::with_listener`] via its replica's config).
    ///
    /// # Errors
    /// Returns the first bind error.
    pub fn bind_loopback_cluster(n: usize) -> io::Result<(PeerMap, Vec<TcpListener>)> {
        let mut peers = PeerMap::new();
        let mut listeners = Vec::with_capacity(n);
        for i in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            peers.insert(ReplicaId(i as u32), listener.local_addr()?);
            listeners.push(listener);
        }
        Ok((peers, listeners))
    }

    /// The actually bound listen address, if this transport listens.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.inner.local_addr
    }

    /// Live sockets currently owned by this transport's event loops —
    /// the observable for connection-reclamation tests and swarm sizing.
    pub fn open_connections(&self) -> usize {
        self.inner.open_conns.load(Ordering::Relaxed)
    }

    /// A [`NetHandle`] over this transport.
    pub fn handle(&self) -> NetHandle {
        NetHandle::new(Arc::new(self.clone()))
    }

    /// Registers `addr`, returning its endpoint (convenience mirroring the
    /// in-memory backend).
    ///
    /// # Panics
    /// Panics if `addr` is already registered on this transport.
    pub fn register(&self, addr: Sender) -> Endpoint {
        self.handle().register(addr)
    }

    /// The shared fault controller (send-side evaluation).
    pub fn faults(&self) -> &FaultController {
        &self.inner.faults
    }

    /// The shared delivery statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.inner.stats
    }

    /// Routes one envelope to one destination: local endpoints
    /// short-circuit the socket entirely (a transport can host several
    /// endpoints), everything else goes through a peer link. `payload`
    /// memoizes the serialized bytes so a send encodes once no matter how
    /// many link destinations.
    fn dispatch_one(
        &self,
        from: Sender,
        to: Sender,
        msg: &SignedMessage,
        payload: &mut Option<Arc<Vec<u8>>>,
    ) -> Result<(), NetworkError> {
        let local = self.inner.deliveries.read().contains_key(&to);
        if !local && self.inner.route_to(from, to).is_none() {
            self.inner.stats.record_dropped();
            return Err(NetworkError::UnknownDestination(format!("{to:?}")));
        }
        self.inner.stats.record_sent(msg.kind(), msg.encoded_len());
        if self.inner.faults.should_drop(from, to) {
            self.inner.stats.record_dropped();
            return Ok(()); // silently dropped, like a real network
        }
        // A rewritten envelope is this destination's alone: it gets its
        // own encoding and must never fill or reuse the shared `payload`.
        let rewritten = self.inner.faults.rewrite(from, to, msg);
        let (msg, payload) = match &rewritten {
            Some(own) => (own, &mut None),
            None => (msg, payload),
        };
        // Fault-injected jitter parks the envelope on the delay line; it
        // re-routes when due (links may have churned meanwhile).
        if let Some(extra) = self.inner.faults.delay_for(from, to) {
            let (weak, msg) = (Arc::downgrade(&self.inner), msg.clone());
            self.inner.delay.schedule(Instant::now() + extra, move || {
                if let Some(inner) = weak.upgrade() {
                    inner.dispatch_now(from, to, &msg, &mut None);
                }
            });
            return Ok(());
        }
        self.inner.dispatch_now(from, to, msg, payload);
        Ok(())
    }

    /// Stops the reactor threads and the dialer, and joins them.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.delay.shutdown();
        for link in self.inner.dialed.read().values() {
            link.close();
        }
        for link in self.inner.dedicated.read().values() {
            link.close();
        }
        for link in self.inner.reverse.read().values() {
            link.close();
        }
        for h in self.inner.loops() {
            h.waker.wake();
        }
        let handles: Vec<JoinHandle<()>> = self.inner.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Transport for TcpTransport {
    fn send(&self, from: Sender, to: &[Sender], msg: SignedMessage) -> Result<(), NetworkError> {
        // Encode once, lazily: a send that fault injection drops entirely
        // never serializes at all, and n live peers share one buffer.
        let mut payload: Option<Arc<Vec<u8>>> = None;
        let mut res = Ok(());
        for &dest in to.iter().filter(|&&d| d != from) {
            res = res.and(self.dispatch_one(from, dest, &msg, &mut payload));
        }
        res
    }

    fn register_delivery(&self, addr: Sender, deliver: Delivery) {
        let prev = self.inner.deliveries.write().insert(addr, deliver);
        assert!(prev.is_none(), "address {addr:?} registered twice");
        // Swarm mode: this client gets its own connection to the primary.
        let dedicated_target = match (self.inner.cfg.dedicated_to, addr) {
            (Some(t), Sender::Client(_)) if self.inner.cfg.peers.get(t).is_some() => Some(t),
            _ => None,
        };
        self.inner.locals.write().push((addr, dedicated_target));
        if let Some(target) = dedicated_target {
            let link = Link::new(
                LinkPeer::Dedicated { owner: addr },
                self.inner.cfg.peers.get(target),
                CLIENT_QUEUE_CAPACITY,
            );
            self.inner.dedicated.write().insert(addr, Arc::clone(&link));
            self.inner.request_dial(link, Duration::ZERO);
        }
        // A client eagerly dials every replica and announces itself, so
        // replicas it has never messaged (PBFT backups replying to a
        // request sent only to the primary) still have a reply route.
        // The dedicated target (if any) is skipped: its own connection
        // announces the endpoint at adoption.
        if matches!(addr, Sender::Client(_)) {
            let peers: Vec<(ReplicaId, SocketAddr)> = self.inner.cfg.peers.iter().collect();
            for (id, peer_addr) in peers {
                if Some(id) == dedicated_target {
                    continue;
                }
                let link = self.inner.dialed_link(id, peer_addr);
                self.inner
                    .push_link(&link, OutFrame::Hello(addr), PushPolicy::Reliable);
            }
        }
    }

    fn deregister(&self, addr: Sender) {
        self.inner.deliveries.write().remove(&addr);
        self.inner.locals.write().retain(|(a, _)| *a != addr);
        // Eagerly reclaim the dedicated connection (swarm churn): close
        // the link so senders stop using it, then tell the owning loop to
        // tear the socket down now rather than at peer-side EOF.
        if let Some(link) = self.inner.dedicated.write().remove(&addr) {
            link.close();
            if let Some((li, token)) = link.owner() {
                self.inner.send_loop_cmd(li, LoopCmd::Close(token));
            }
        }
    }

    fn stats(&self) -> &NetworkStats {
        &self.inner.stats
    }

    fn faults(&self) -> &FaultController {
        &self.inner.faults
    }

    fn shutdown(&self) {
        TcpTransport::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::messages::Message;
    use rdb_common::{ClientId, SignatureBytes};

    fn r(i: u32) -> Sender {
        Sender::Replica(ReplicaId(i))
    }

    fn msg(from: Sender) -> SignedMessage {
        SignedMessage::new(
            Message::ClientRequest { txns: vec![] },
            from,
            SignatureBytes(vec![3; 8]),
        )
    }

    /// Two replica transports wired through a loopback peer map.
    fn pair() -> (TcpTransport, TcpTransport) {
        let (peers, mut listeners) = TcpTransport::bind_loopback_cluster(2).unwrap();
        let t1 = TcpTransport::with_listener(
            TcpConfig {
                peers: peers.clone(),
                ..TcpConfig::default()
            },
            Some(listeners.remove(1)),
        );
        let t0 = TcpTransport::with_listener(
            TcpConfig {
                peers,
                ..TcpConfig::default()
            },
            Some(listeners.remove(0)),
        );
        (t0, t1)
    }

    /// A restarted replica must rebind its old address immediately even
    /// though the predecessor's served connections left TIME_WAIT
    /// sockets on the same local port (the kill-and-restart path of the
    /// durable-recovery smoke test).
    #[test]
    fn rebind_survives_time_wait_from_a_served_connection() {
        let listener = bind_reuseaddr("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (served, _) = listener.accept().unwrap();
        // Server closes first: its side of the connection ends up owning
        // the port in FIN_WAIT/TIME_WAIT.
        drop(served);
        drop(listener);
        drop(client);
        bind_reuseaddr(addr).expect("rebind onto the lingering port");
    }

    /// More connects than std's 128-deep backlog queue on a listener that
    /// accepts none of them.
    #[test]
    fn backlog_holds_more_than_128_unaccepted_connects() {
        let listener = bind_reuseaddr("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let conns: Vec<TcpStream> = (0..200)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(500))
                    .unwrap_or_else(|e| panic!("connect {i} did not queue: {e}"))
            })
            .collect();
        assert_eq!(conns.len(), 200);
        drop(listener);
    }

    #[test]
    fn replica_to_replica_over_sockets() {
        let (t0, t1) = pair();
        let a = t0.register(r(0));
        let b = t1.register(r(1));
        a.send(r(1), msg(r(0))).unwrap();
        let got = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.sender(), r(0));
        assert_eq!(t0.stats().total_sent(), 1);
        // The mailbox push happens before the counter bump, so the recv
        // above can race ahead of the event loop's record_delivered.
        let deadline = Instant::now() + Duration::from_secs(5);
        while t1.stats().total_delivered() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(t1.stats().total_delivered(), 1);
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn crash_tears_down_socket_and_recover_redials() {
        let (t0, t1) = pair();
        let a = t0.register(r(0));
        let b = t1.register(r(1));
        a.send(r(1), msg(r(0))).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(5)).is_ok());
        let connected = |t: &TcpTransport| t.open_connections() > 0;
        assert!(connected(&t0), "send established a dialed connection");

        // Crash the remote: the dialed socket must actually close, and
        // the dialer must not re-establish it while the fault holds.
        t0.faults().crash(r(1));
        let deadline = Instant::now() + Duration::from_secs(5);
        while t0.open_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(t0.open_connections(), 0, "crash must tear the socket down");
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(t0.open_connections(), 0, "no redial while crashed");

        // Recovery rides the reconnect/backoff path and traffic flows
        // again over a fresh socket.
        t0.faults().recover(r(1));
        a.send(r(1), msg(r(0))).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while Instant::now() < deadline {
            if b.recv_timeout(Duration::from_millis(200)).is_ok() {
                delivered = true;
                break;
            }
            // The torn-down frame may have been requeued before the drop
            // filter engaged; keep nudging.
            let _ = a.send(r(1), msg(r(0)));
        }
        assert!(delivered, "recovered link must deliver over a new socket");
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn delay_jitter_defers_socket_delivery() {
        let (t0, t1) = pair();
        let a = t0.register(r(0));
        let b = t1.register(r(1));
        t0.faults().set_seed(3);
        t0.faults().set_delay_jitter(Duration::from_millis(80));
        let start = Instant::now();
        for _ in 0..8 {
            a.send(r(1), msg(r(0))).unwrap();
        }
        for _ in 0..8 {
            assert!(b.recv_timeout(Duration::from_secs(5)).is_ok());
        }
        // At least one of 8 uniform draws from [0, 80ms) lands late
        // enough that the batch cannot complete instantly.
        assert!(
            start.elapsed() >= Duration::from_millis(10),
            "jitter must defer delivery, elapsed {:?}",
            start.elapsed()
        );
        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn client_reply_routes_over_reverse_link() {
        let (t0, t1) = pair();
        let replica = t0.register(r(0));
        let client_net =
            TcpTransport::new(TcpConfig::for_client(t0.inner.cfg.peers.clone())).unwrap();
        let client = client_net.register(Sender::Client(ClientId(7)));
        // Client → replica over a dialed link…
        client.send(r(0), msg(Sender::Client(ClientId(7)))).unwrap();
        let got = replica.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.sender(), Sender::Client(ClientId(7)));
        // …and the replica can reply without the client being in any map,
        // even though the client never listens.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match replica.send(Sender::Client(ClientId(7)), msg(r(0))) {
                Ok(()) => break,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("no reverse route established: {e}"),
            }
        }
        assert!(client.recv_timeout(Duration::from_secs(5)).is_ok());
        t0.shutdown();
        t1.shutdown();
        client_net.shutdown();
    }

    #[test]
    fn local_endpoints_short_circuit() {
        let t = TcpTransport::new(TcpConfig::default()).unwrap();
        let a = t.register(Sender::Client(ClientId(1)));
        let b = t.register(Sender::Client(ClientId(2)));
        a.send(
            Sender::Client(ClientId(2)),
            msg(Sender::Client(ClientId(1))),
        )
        .unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        t.shutdown();
    }

    #[test]
    fn unknown_destination_errors() {
        let t = TcpTransport::new(TcpConfig::default()).unwrap();
        let a = t.register(r(0));
        assert!(matches!(
            a.send(Sender::Client(ClientId(99)), msg(r(0))),
            Err(NetworkError::UnknownDestination(_))
        ));
        t.shutdown();
    }

    #[test]
    fn gossip_overflow_sheds_messages_never_hellos() {
        let stats = NetworkStats::new();
        let link = Link::new(LinkPeer::Accepted, None, 2);
        link.push(
            OutFrame::Hello(Sender::Client(ClientId(1))),
            PushPolicy::Reliable,
            &stats,
        );
        let msg_frame = |b: u8| OutFrame::Msg {
            to: r(1),
            payload: Arc::new(vec![b]),
            reliable: false,
        };
        link.push(msg_frame(1), PushPolicy::Gossip, &stats);
        // Queue is at capacity: the overflow victim must be the Msg, not
        // the routing announcement sitting in front of it.
        link.push(msg_frame(2), PushPolicy::Gossip, &stats);
        assert_eq!(stats.dropped(), 1);
        let s = link.state.lock();
        assert_eq!(s.frames.len(), 2);
        assert!(matches!(s.frames[0], OutFrame::Hello(_)));
        match &s.frames[1] {
            OutFrame::Msg { payload, .. } => assert_eq!(***payload, vec![2]),
            other => panic!(
                "expected msg frame, got hello={}",
                matches!(other, OutFrame::Hello(_))
            ),
        }
    }

    #[test]
    fn reliable_overflow_sheds_gossip_to_make_room() {
        let stats = NetworkStats::new();
        let link = Link::new(LinkPeer::Accepted, None, 1);
        let frame = |reliable| OutFrame::Msg {
            to: r(1),
            payload: Arc::new(vec![0]),
            reliable,
        };
        link.push(frame(false), PushPolicy::Gossip, &stats);
        // The reliable push must not block: the queued gossip frame is
        // sheddable and yields its slot.
        link.push(frame(true), PushPolicy::Reliable, &stats);
        assert_eq!(stats.dropped(), 1);
        let s = link.state.lock();
        assert_eq!(s.frames.len(), 1);
        assert!(matches!(s.frames[0], OutFrame::Msg { reliable: true, .. }));
    }

    /// Reliability follows the endpoints, not the call: a client's plain
    /// `Endpoint::send` into a full link waits for space instead of
    /// shedding, and every request arrives once the replica is reachable.
    #[test]
    fn client_send_into_a_full_link_waits_and_is_not_shed() {
        let (peers, mut listeners) = TcpTransport::bind_loopback_cluster(1).unwrap();
        let addr = listeners[0].local_addr().unwrap();
        // Nobody listens yet: dials are refused and the link stays queued.
        drop(listeners.remove(0));
        let client_net = TcpTransport::new(TcpConfig::for_client(peers.clone())).unwrap();
        // Registering queues the HELLO; the sends fill the link's other
        // slots, and the last one finds it full.
        let client = client_net.register(Sender::Client(ClientId(1)));
        let (done_tx, done_rx) = channel::bounded(1);
        let sender = std::thread::spawn(move || {
            for _ in 0..QUEUE_CAPACITY {
                client.send(r(0), msg(Sender::Client(ClientId(1)))).unwrap();
            }
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_millis(300)).is_err(),
            "a client send into a full link must wait for space"
        );

        let server = TcpTransport::with_listener(
            TcpConfig {
                peers,
                ..TcpConfig::default()
            },
            Some(bind_reuseaddr(addr).unwrap()),
        );
        let replica = server.register(r(0));
        for _ in 0..QUEUE_CAPACITY {
            replica.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        sender.join().unwrap();
        assert_eq!(client_net.stats().dropped(), 0, "nothing was shed");
        client_net.shutdown();
        server.shutdown();
    }

    #[test]
    fn dedicated_mode_uses_one_connection_per_client() {
        let (peers, mut listeners) = TcpTransport::bind_loopback_cluster(1).unwrap();
        let server = TcpTransport::with_listener(
            TcpConfig {
                peers: peers.clone(),
                ..TcpConfig::default()
            },
            Some(listeners.remove(0)),
        );
        let replica = server.register(r(0));
        let swarm = TcpTransport::new(TcpConfig::for_swarm(peers, ReplicaId(0))).unwrap();
        let c1 = swarm.register(Sender::Client(ClientId(1)));
        let c2 = swarm.register(Sender::Client(ClientId(2)));
        c1.send(r(0), msg(Sender::Client(ClientId(1)))).unwrap();
        c2.send(r(0), msg(Sender::Client(ClientId(2)))).unwrap();
        for _ in 0..2 {
            replica.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        // One dedicated socket per client on the swarm side (and no
        // shared link: the only replica is the dedicated target).
        let deadline = Instant::now() + Duration::from_secs(5);
        while swarm.open_connections() != 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(swarm.open_connections(), 2);
        // Replies route over each client's own connection.
        replica
            .send(Sender::Client(ClientId(1)), msg(r(0)))
            .unwrap();
        replica
            .send(Sender::Client(ClientId(2)), msg(r(0)))
            .unwrap();
        assert!(c1.recv_timeout(Duration::from_secs(5)).is_ok());
        assert!(c2.recv_timeout(Duration::from_secs(5)).is_ok());
        // Deregistering reclaims the dedicated socket eagerly.
        drop(c1);
        swarm.handle().deregister(Sender::Client(ClientId(1)));
        let deadline = Instant::now() + Duration::from_secs(5);
        while swarm.open_connections() != 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(swarm.open_connections(), 1);
        server.shutdown();
        swarm.shutdown();
    }

    #[test]
    fn shutdown_joins_threads_quickly() {
        let (t0, t1) = pair();
        let _a = t0.register(r(0));
        let _b = t1.register(r(1));
        let start = Instant::now();
        t0.shutdown();
        t1.shutdown();
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}
