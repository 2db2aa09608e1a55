//! Real TCP transport: the in-memory switchboard's semantics over sockets,
//! driven by a nonblocking reactor.
//!
//! One [`TcpTransport`] is one node of a multi-process deployment (it can
//! host several local endpoints, e.g. thousands of client sessions in a
//! swarm process). Architecture:
//!
//! - **Event loop**: one reactor thread per transport
//!   ([`crate::reactor::Poller`], level-triggered) owns the listener,
//!   every connection and every dial — one thread owns the state, as in a
//!   replica's single worker. It multiplexes accept, connect, read and
//!   write readiness, so one process holds tens of thousands of sockets.
//! - **Outbound**: senders push frames onto a per-link bounded queue and
//!   notify the loop (once — an armed link is never re-notified). The
//!   loop drains the queue into a per-connection pending list and writes
//!   it with **vectored writes**, coalescing up to 64 frames per syscall.
//!   On overflow replica-to-replica gossip is *drop-oldest* — the
//!   protocol tolerates loss and retransmits by design — while a frame
//!   with a client on either end is *reliable*: its sender blocks
//!   (backpressure) until space frees up. A HELLO is never shed. A send
//!   serializes the envelope **once** and shares the encoded buffer
//!   across every destination's queue.
//! - **Inbound**: frames decode through [`SignedMessage::decode`]'s
//!   memo-seeding path, so the zero-copy envelope (canonical bytes
//!   memoized, verified without re-serialization) survives the socket,
//!   and the loop calls the destination's [`Delivery`] function.
//! - **Routing**: the loop dials replicas from the [`PeerMap`] with a
//!   nonblocking connect — a bounded number in flight, in the order the
//!   links were made — and redials a link without a connection with
//!   exponential backoff, so a restarted replica rejoins without
//!   coordination. Off Linux, and for a non-IPv4 address, it falls back
//!   to std's blocking `connect_timeout` — degraded, like the poller's
//!   fallback: each dial stalls the loop. Clients are *not* in the map — a
//!   client dials every replica and announces itself with a HELLO frame,
//!   and replies travel back over the client-initiated connection
//!   (learned as a *reverse route*). In swarm mode
//!   ([`TcpConfig::dedicated_to`]) each client endpoint instead gets its
//!   own *dedicated* connection to one replica, so an N-client swarm
//!   exercises N real sockets.
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
use crossbeam::channel::{self, Receiver, Sender as ChanSender};
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
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Outbound frames buffered per link before the overflow policy applies.
const QUEUE_CAPACITY: usize = 4096;

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
/// How long a dial's connect may stay in flight before it counts as
/// failed.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Longest the loop sleeps in the poller without a deadline due.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// Connects the loop keeps in flight; further due dials wait for a slot.
/// Without a cap a burst of new links — a swarm's sessions registering —
/// is dialed all at once, and no open connection is served until every
/// one of those connects has started.
const MAX_CONNECTING: usize = 128;

/// Reserved poller token: the loop's wake pipe.
const WAKER_TOKEN: usize = usize::MAX;
/// Reserved poller token: the accept listener.
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

/// A bounded outbound queue drained by the event loop through the
/// connection that owns it. Senders push and (at most once while the
/// queue is armed) notify the loop; the loop drains, and disarms only
/// after observing an empty queue under the same lock pushes take — so a
/// push can never be stranded without either a pending notify or a
/// registered write interest.
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
    /// The loop already knows about queued frames (a flush command is in
    /// flight or write interest is registered).
    armed: bool,
    /// Token of the open connection draining this link, if any.
    owner: Option<usize>,
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

    /// Queues `f`, returning the connection token to notify if the link
    /// was not already armed. On overflow the oldest sheddable (gossip)
    /// frame is dropped; with none queued, gossip exceeds capacity rather
    /// than stall the pipeline, and a reliable frame waits for space
    /// (backpressure). A HELLO bypasses the capacity check — a routing
    /// announcement is never shed and never a backpressure source (there
    /// are at most as many as local endpoints).
    fn push(&self, f: OutFrame, stats: &NetworkStats) -> Option<usize> {
        let mut s = self.state.lock();
        if s.closed {
            return None;
        }
        if let OutFrame::Msg { reliable, .. } = f {
            while s.frames.len() >= self.capacity {
                // Only non-reliable Msg frames are victims: losing a
                // queued HELLO would permanently strand a reply path.
                if let Some(idx) = s.frames.iter().position(OutFrame::sheddable) {
                    s.frames.remove(idx);
                    stats.record_dropped();
                    break;
                }
                if !reliable {
                    break;
                }
                self.space.wait(&mut s);
                if s.closed {
                    return None;
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
        let n = max.min(s.frames.len());
        out.extend(s.frames.drain(..n).map(PendingFrame::new));
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

    fn bind(&self, token: usize) {
        let mut s = self.state.lock();
        s.owner = Some(token);
        // The loop flushes immediately; arm so senders skip redundant
        // notifies meanwhile.
        s.armed = true;
    }

    fn unbind(&self, token: usize) {
        let mut s = self.state.lock();
        if s.owner == Some(token) {
            s.owner = None;
            s.armed = false;
        }
    }

    fn owner(&self) -> Option<usize> {
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

/// A dialed link's reconnect backoff: a failed or lost connection waits
/// it before the next dial, and it then doubles from [`RECONNECT_MIN`] up
/// to [`RECONNECT_MAX`]; a connect starts it over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Redial(Duration);

impl Redial {
    const FIRST: Redial = Redial(RECONNECT_MIN);

    /// A dial failed, or its connection died, at `now`: when to dial next.
    fn failed(&mut self, now: Instant) -> Instant {
        let due = now + self.0;
        self.0 = (self.0 * 2).min(RECONNECT_MAX);
        due
    }

    /// A dial connected.
    fn connected(&mut self) {
        *self = Redial::FIRST;
    }
}

/// Reverse routes learned from inbound HELLOs: the link that reaches an
/// endpoint outside the peer map (a client, chiefly).
#[derive(Default)]
struct ReverseRoutes(HashMap<Sender, Arc<Link>>);

impl ReverseRoutes {
    /// `from` announced itself over `link`. The latest announcement wins:
    /// a restarted client's new connection replaces the stale route. The
    /// replaced link is closed only if it is an accepted one — a shared
    /// dialed link may carry other endpoints' traffic and must survive.
    fn announce(&mut self, from: Sender, link: &Arc<Link>) {
        if let Some(old) = self.0.insert(from, Arc::clone(link)) {
            if !Arc::ptr_eq(&old, link) && old.peer == LinkPeer::Accepted {
                old.close();
            }
        }
    }

    /// The connection over `link` died: drops the routes it announced
    /// that no later announcement has replaced.
    fn forget(&mut self, announced: &[Sender], link: &Arc<Link>) {
        for addr in announced {
            if self.0.get(addr).is_some_and(|l| Arc::ptr_eq(l, link)) {
                self.0.remove(addr);
            }
        }
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
        let (header, payload) = match &frame {
            OutFrame::Hello(from) => (frame::hello_body(*from), None),
            OutFrame::Msg { to, payload, .. } => {
                (frame::msg_header(*to), Some(Arc::clone(payload)))
            }
        };
        let len = header.len() + payload.as_ref().map_or(0, |p| p.len());
        let mut head = (len as u32).to_le_bytes().to_vec();
        head.extend_from_slice(&header);
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

/// One socket owned by the event loop.
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
    /// A dialed link's schedule: the link persists (requeue + redial on
    /// death). `None` for an accepted link, which dies with its
    /// connection.
    redial: Option<Redial>,
    /// While the dial's connect is in flight: when it gives up.
    connect_by: Option<Instant>,
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
        let conn = self.slots.get_mut(token)?.take()?;
        self.free.push(token);
        Some(conn)
    }
}

enum LoopCmd {
    /// A new dialed link: connect it.
    Dial(Arc<Link>),
    /// The link owned by connection `token` has queued frames.
    Flush(usize),
    /// Tear down connection `token` now (eager reclamation).
    Close(usize),
}

/// Where one envelope goes.
enum Route {
    /// An endpoint hosted by this transport: the socket is skipped.
    Local,
    Link(Arc<Link>),
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
    reverse: RwLock<ReverseRoutes>,
    /// The event loop's commands and wake-up.
    cmd_tx: ChanSender<LoopCmd>,
    waker: Waker,
    /// True while the loop is (about to be) blocked in the poller; lets
    /// senders skip the wake syscall when the loop is already running.
    sleeping: AtomicBool,
    stats: NetworkStats,
    faults: FaultController,
    shutdown: AtomicBool,
    /// Live socket gauge (readable via [`TcpTransport::open_connections`]).
    open_conns: AtomicUsize,
    thread: Mutex<Option<JoinHandle<()>>>,
    /// Holds jitter-delayed envelopes until they are due.
    delay: DelayLine,
}

impl TcpInner {
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

    /// Hands a command to the event loop, waking it only if it is parked
    /// in the poller.
    fn send_loop_cmd(&self, cmd: LoopCmd) {
        let _ = self.cmd_tx.send(cmd);
        if self.sleeping.load(Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    fn push_link(&self, link: &Link, f: OutFrame) {
        if let Some(token) = link.push(f, &self.stats) {
            self.send_loop_cmd(LoopCmd::Flush(token));
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
        self.send_loop_cmd(LoopCmd::Dial(Arc::clone(&link)));
        link
    }

    /// Where an envelope `from → to` goes, if anywhere.
    fn route(&self, from: Sender, to: Sender) -> Option<Route> {
        if self.deliveries.read().contains_key(&to) {
            return Some(Route::Local);
        }
        if let (Some(primary), Sender::Replica(r)) = (self.cfg.dedicated_to, to) {
            if r == primary {
                if let Some(link) = self.dedicated.read().get(&from) {
                    return Some(Route::Link(Arc::clone(link)));
                }
            }
        }
        if let Sender::Replica(r) = to {
            if let Some(addr) = self.cfg.peers.get(r) {
                return Some(Route::Link(self.dialed_link(r, addr)));
            }
        }
        self.reverse.read().0.get(&to).cloned().map(Route::Link)
    }

    /// Whether a dial for `link` must wait: the remote replica — or the
    /// local node itself — is crash-faulted, and a socket would undo the
    /// fault. The link keeps backing off: a recovery's reconnect path.
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
        let deliveries = self.deliveries.read();
        (self.faults.crashed().iter())
            .any(|n| matches!(n, Sender::Replica(_)) && deliveries.contains_key(n))
    }

    fn all_links(&self) -> Vec<Arc<Link>> {
        let mut links: Vec<Arc<Link>> = self.dialed.read().values().cloned().collect();
        links.extend(self.dedicated.read().values().cloned());
        links.extend(self.reverse.read().0.values().cloned());
        links
    }

    /// Tears down every live socket touching `node` (crash fault). Dialed
    /// links are *not* closed: `close_conn` requeues their unsent frames
    /// and backs them off until the node recovers. Accepted links are
    /// closed; the remote re-dials and re-announces after its recovery.
    fn teardown_sockets(&self, node: Sender) {
        let mut links = Vec::new();
        if self.locals.read().iter().any(|(a, _)| *a == node) {
            // The node itself crashed: drop every connection it owns.
            links = self.all_links();
        } else {
            if let Sender::Replica(r) = node {
                links.extend(self.dialed.read().get(&r.0).cloned());
                if self.cfg.dedicated_to == Some(r) {
                    links.extend(self.dedicated.read().values().cloned());
                }
            }
            links.extend(self.reverse.read().0.get(&node).cloned());
        }
        for link in links {
            if let Some(token) = link.owner() {
                self.send_loop_cmd(LoopCmd::Close(token));
            }
        }
    }

    /// Hands one envelope to its route. Stats and fault decisions already
    /// happened at send time.
    fn forward(
        &self,
        from: Sender,
        to: Sender,
        route: Route,
        msg: &SignedMessage,
        payload: &mut Option<Arc<Vec<u8>>>,
    ) {
        let link = match route {
            Route::Local => return self.deliver(to, msg.clone()),
            Route::Link(link) => link,
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
        self.push_link(
            &link,
            OutFrame::Msg {
                to,
                payload: shared,
                reliable,
            },
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

/// The transport's one reactor thread: owns the poller, the listener,
/// every connection and every dial.
struct EventLoop {
    inner: Arc<TcpInner>,
    poller: Poller,
    conns: Slab,
    cmd_rx: Receiver<LoopCmd>,
    wake_rx: WakeReceiver,
    listener: Option<TcpListener>,
    /// Dialed links between connections, with when each dials next.
    idle: Vec<(Instant, Arc<Link>, Redial)>,
    /// Connects in flight by deadline — in start order, as every one
    /// gets [`CONNECT_TIMEOUT`]. Entries whose connect has finished are
    /// skipped when they fall due.
    connecting: VecDeque<(Instant, usize)>,
    /// Connects in flight, at most [`MAX_CONNECTING`].
    in_flight: usize,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            while let Ok(cmd) = self.cmd_rx.try_recv() {
                self.handle_cmd(cmd);
            }
            if self.inner.is_shutdown() {
                break;
            }
            let timeout = self.run_timers(Instant::now());
            // Sleep/wake protocol: publish "sleeping", then re-check the
            // command queue — a sender that enqueued after our check will
            // observe sleeping=true and wake us; one that enqueued before
            // is caught by this re-check.
            let sleeping = &self.inner.sleeping;
            sleeping.store(true, Ordering::SeqCst);
            if !self.cmd_rx.is_empty() || self.inner.is_shutdown() {
                sleeping.store(false, Ordering::SeqCst);
                continue;
            }
            let res = self.poller.wait(&mut events, timeout);
            sleeping.store(false, Ordering::SeqCst);
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
            LoopCmd::Dial(link) => self.idle.push((Instant::now(), link, Redial::FIRST)),
            // With write interest registered the poller already drives
            // the connection; a flush would just collect a WouldBlock.
            LoopCmd::Flush(token) => {
                if !self.conns.get_mut(token).is_some_and(|c| c.want_write) {
                    self.flush_conn(token);
                }
            }
            LoopCmd::Close(token) => self.close_conn(token),
        }
    }

    /// Gives up on every connect past its deadline and starts every dial
    /// that is due; returns how long the poller may sleep before the next
    /// such deadline.
    fn run_timers(&mut self, now: Instant) -> Duration {
        let mut next = now + POLL_INTERVAL;
        while let Some(&(by, token)) = self.connecting.front() {
            if by > now {
                next = next.min(by);
                break;
            }
            self.connecting.pop_front();
            if self
                .conns
                .get_mut(token)
                .is_some_and(|c| c.connect_by == Some(by))
            {
                self.close_conn(token);
            }
        }
        // In order: links dial in the order they were made, so a
        // node's shared links go out ahead of a swarm's sessions.
        for (due, link, redial) in std::mem::take(&mut self.idle) {
            if due <= now && self.in_flight < MAX_CONNECTING {
                self.dial(link, redial, now);
            } else {
                if due > now {
                    next = next.min(due);
                }
                self.idle.push((due, link, redial));
            }
        }
        // The poller counts whole milliseconds: round up, never spin.
        (next - now).max(Duration::from_millis(1))
    }

    /// Starts a connect for `link` — or backs it off while a crash fault
    /// pins it down or the connect fails at once.
    fn dial(&mut self, link: Arc<Link>, mut redial: Redial, now: Instant) {
        if link.is_closed() || self.inner.is_shutdown() {
            return;
        }
        if !self.inner.dial_blocked(&link) {
            let addr = link.addr.expect("dialed link has an address");
            if let Ok(stream) = connect_nonblocking(addr) {
                return self.adopt(stream, link, Some(redial));
            }
        }
        self.idle.push((redial.failed(now), link, redial));
    }

    /// Takes ownership of a socket: a dialed one while its connect is in
    /// flight (write readiness reports the outcome), an accepted one
    /// open.
    fn adopt(&mut self, stream: TcpStream, link: Arc<Link>, redial: Option<Redial>) {
        let connect_by = redial.map(|_| Instant::now() + CONNECT_TIMEOUT);
        let fd = stream.as_raw_fd();
        let token = self.conns.insert(Conn {
            stream,
            acc: FrameAccumulator::new(),
            link,
            pending: VecDeque::new(),
            announced: Vec::new(),
            want_write: connect_by.is_some(),
            redial,
            connect_by,
        });
        self.inner.open_conns.fetch_add(1, Ordering::Relaxed);
        self.in_flight += usize::from(connect_by.is_some());
        // A dial waits for write readiness: its connect's outcome.
        let interest = match connect_by {
            Some(_) => Interest::READ_WRITE,
            None => Interest::READ,
        };
        if self.poller.register(fd, token, interest).is_err() {
            return self.close_conn(token);
        }
        match connect_by {
            Some(by) => self.connecting.push_back((by, token)),
            None => self.opened(token),
        }
    }

    /// Connection `token` is open: a dialed one announces this node's
    /// endpoints and starts its backoff over; the link binds, and what
    /// queued meanwhile flushes.
    fn opened(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token) else {
            return;
        };
        if conn.connect_by.take().is_some() {
            self.in_flight -= 1;
        }
        if let Some(redial) = &mut conn.redial {
            redial.connected();
            let hellos = self.inner.hellos_for(&conn.link);
            conn.pending.extend(
                hellos
                    .into_iter()
                    .map(|from| PendingFrame::new(OutFrame::Hello(from))),
            );
        }
        conn.link.bind(token);
        self.flush_conn(token);
    }

    /// Accepts until `WouldBlock` — or a transient failure (e.g.
    /// EMFILE), which level-triggered polling retries on the next tick.
    fn accept_burst(&mut self) {
        while let Some(Ok((stream, _))) = self.listener.as_ref().map(TcpListener::accept) {
            if configure_stream(&stream).is_ok() {
                let link = Link::new(LinkPeer::Accepted, None, QUEUE_CAPACITY);
                self.adopt(stream, link, None);
            }
        }
    }

    fn conn_event(&mut self, token: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(token) else {
            return; // torn down earlier in this batch
        };
        if conn.connect_by.is_some() {
            // Write readiness (or an error) reports the connect's
            // outcome. A crash fault or a deregistration that landed
            // meanwhile still wins.
            let ok = matches!(conn.stream.take_error(), Ok(None))
                && !conn.link.is_closed()
                && !self.inner.dial_blocked(&conn.link);
            return if ok {
                self.opened(token)
            } else {
                self.close_conn(token)
            };
        }
        // A pure hangup (no pending bytes) kills the connection; if it is
        // also readable, drain first so the final frames are not lost,
        // and let the read error/EOF report the death.
        let dead =
            (ev.hangup && !ev.readable) || (ev.readable && read_burst(&self.inner, conn).is_err());
        if dead {
            self.close_conn(token);
        } else if ev.writable {
            self.flush_conn(token);
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

    /// Eagerly reclaims a dead connection (or a failed connect): poller
    /// slot, slab slot, gauge, reverse routes; requeues and backs off a
    /// dialed link, closes an accepted one so senders stop routing to it.
    fn close_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.inner.open_conns.fetch_sub(1, Ordering::Relaxed);
        self.in_flight -= usize::from(conn.connect_by.is_some());
        conn.link.unbind(token);
        if !conn.announced.is_empty() {
            self.inner
                .reverse
                .write()
                .forget(&conn.announced, &conn.link);
        }
        let Some(mut redial) = conn.redial else {
            return conn.link.close();
        };
        // A partially written frame is safe to resend in full: the
        // receiver saw a truncated frame and discarded the connection
        // state with it.
        let unsent: Vec<OutFrame> = conn.pending.into_iter().map(|pf| pf.frame).collect();
        conn.link.requeue_front(unsent);
        if !conn.link.is_closed() && !self.inner.is_shutdown() {
            let due = redial.failed(Instant::now());
            self.idle.push((due, conn.link, redial));
        }
    }

    fn teardown_all(&mut self) {
        for token in 0..self.conns.slots.len() {
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
            Ok(Some(body)) => match frame::parse_frame(&body)? {
                Frame::Hello(from) => {
                    inner.reverse.write().announce(from, &conn.link);
                    conn.announced.push(from);
                }
                Frame::Msg { to, msg } => inner.deliver(to, msg),
            },
            Ok(None) => return Ok(()),
            Err(e) => return Err(e),
        }
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

/// The degraded dial: std's blocking connect, bounded by
/// [`CONNECT_TIMEOUT`], stalls the event loop while it waits.
fn connect_blocking(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    configure_stream(&stream)?;
    Ok(stream)
}

/// Sockets through the C library where std has no knob: a listener with
/// a deeper accept backlog, and a connect that does not block.
#[cfg(target_os = "linux")]
mod sys {
    use std::io;
    use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::raw::{c_int, c_void};

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const EINPROGRESS: i32 = 115;

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

    impl SockaddrIn {
        fn new(v4: SocketAddrV4) -> SockaddrIn {
            SockaddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be(),
                addr: u32::from(*v4.ip()).to_be(),
                zero: [0; 8],
            }
        }
    }

    const SOCKADDR_LEN: u32 = std::mem::size_of::<SockaddrIn>() as u32;

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
        fn connect(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
    }

    fn cvt(rc: c_int) -> io::Result<c_int> {
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc)
        }
    }

    /// A fresh IPv4 stream socket; dropping it on an error path closes it.
    fn socket_v4(flags: c_int) -> io::Result<OwnedFd> {
        // SAFETY: a plain syscall; a non-negative result is a new fd that
        // nothing else owns, so the `OwnedFd` may take it over.
        unsafe {
            let fd = cvt(socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | flags, 0))?;
            Ok(OwnedFd::from_raw_fd(fd))
        }
    }

    /// Binds a listener with `SO_REUSEADDR` set and a 1024-deep accept
    /// backlog. On Linux std's `TcpListener::bind` sets `SO_REUSEADDR` too
    /// (a std listener also rebinds through a served connection's
    /// TIME_WAIT); what this adds is the backlog: std listens with 128, so
    /// a burst of connects the reactor has not accepted yet — a swarm's
    /// sessions dialing at once — overflows it and the extra SYNs wait out
    /// a retransmit. A non-IPv4 address falls back to the std bind.
    pub(super) fn bind_reuseaddr(addr: SocketAddr) -> io::Result<TcpListener> {
        let SocketAddr::V4(v4) = addr else {
            return TcpListener::bind(addr);
        };
        let fd = socket_v4(0)?;
        let one: c_int = 1;
        let sa = SockaddrIn::new(v4);
        // SAFETY: syscalls on an fd `fd` owns, with pointers to live
        // locals of the sizes passed.
        unsafe {
            cvt(setsockopt(
                fd.as_raw_fd(),
                SOL_SOCKET,
                SO_REUSEADDR,
                (&one as *const c_int).cast(),
                std::mem::size_of::<c_int>() as u32,
            ))?;
            cvt(bind(fd.as_raw_fd(), &sa, SOCKADDR_LEN))?;
            cvt(listen(fd.as_raw_fd(), 1024))?;
        }
        Ok(TcpListener::from(fd))
    }

    /// Starts a connect to `addr` without waiting for it: the stream comes
    /// back nonblocking, and its write readiness reports the outcome
    /// (`TcpStream::take_error`). A non-IPv4 address falls back to the
    /// blocking dial.
    pub(super) fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
        let SocketAddr::V4(v4) = addr else {
            return super::connect_blocking(addr);
        };
        let fd = socket_v4(SOCK_NONBLOCK)?;
        let sa = SockaddrIn::new(v4);
        // SAFETY: a syscall on an fd `fd` owns, with a pointer to a live
        // local of the size passed.
        if let Err(e) = cvt(unsafe { connect(fd.as_raw_fd(), &sa, SOCKADDR_LEN) }) {
            if e.raw_os_error() != Some(EINPROGRESS) {
                return Err(e);
            }
        }
        let stream = TcpStream::from(fd);
        stream.set_nodelay(true)?;
        Ok(stream)
    }
}

/// Off Linux: std's bind, with its 128-deep backlog, and the blocking dial.
#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) use super::connect_blocking as connect_nonblocking;

    pub(super) fn bind_reuseaddr(addr: super::SocketAddr) -> std::io::Result<super::TcpListener> {
        super::TcpListener::bind(addr)
    }
}

use sys::{bind_reuseaddr, connect_nonblocking};

/// A TCP-backed [`Transport`]: one instance per OS process/node.
///
/// Call [`TcpTransport::shutdown`] (or `NetHandle::shutdown`) when done —
/// the event-loop thread holds the transport alive until then.
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
    /// any) and spawning the event-loop thread.
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
        let (cmd_tx, cmd_rx) = channel::unbounded();
        let (waker, wake_rx) = crate::reactor::wake_pair().expect("create reactor wake pipe");
        let inner = Arc::new(TcpInner {
            cfg,
            local_addr,
            deliveries: RwLock::new(HashMap::new()),
            locals: RwLock::new(Vec::new()),
            dialed: RwLock::new(HashMap::new()),
            dedicated: RwLock::new(HashMap::new()),
            reverse: RwLock::new(ReverseRoutes::default()),
            cmd_tx,
            waker,
            sleeping: AtomicBool::new(false),
            stats: NetworkStats::new(),
            faults: FaultController::new(),
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            thread: Mutex::new(None),
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
        let mut poller = Poller::new().expect("create reactor poller");
        poller
            .register(wake_rx.raw_fd(), WAKER_TOKEN, Interest::READ)
            .expect("register reactor wake pipe");
        if let Some(l) = &listener {
            l.set_nonblocking(true)
                .and_then(|()| poller.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ))
                .expect("register listener");
        }
        let ev_loop = EventLoop {
            inner: Arc::clone(&inner),
            poller,
            conns: Slab::default(),
            cmd_rx,
            wake_rx,
            listener,
            idle: Vec::new(),
            connecting: VecDeque::new(),
            in_flight: 0,
        };
        let thread = std::thread::Builder::new()
            .name("tcp-loop-0".into())
            .spawn(move || ev_loop.run())
            .expect("spawn tcp event loop");
        *inner.thread.lock() = Some(thread);
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

    /// Live sockets currently owned by this transport's event loop, dials
    /// still connecting included — the observable for
    /// connection-reclamation tests and swarm sizing.
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
        let Some(route) = self.inner.route(from, to) else {
            self.inner.stats.record_dropped();
            return Err(NetworkError::UnknownDestination(format!("{to:?}")));
        };
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
                let Some(inner) = weak.upgrade() else {
                    return;
                };
                match inner.route(from, to) {
                    Some(route) => inner.forward(from, to, route, &msg, &mut None),
                    None => inner.stats.record_dropped(),
                }
            });
            return Ok(());
        }
        self.inner.forward(from, to, route, msg, payload);
        Ok(())
    }

    /// Stops the event-loop thread and joins it.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.delay.shutdown();
        for link in self.inner.all_links() {
            link.close();
        }
        self.inner.waker.wake();
        let thread = self.inner.thread.lock().take();
        if let Some(thread) = thread {
            let _ = thread.join();
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
                QUEUE_CAPACITY,
            );
            self.inner.dedicated.write().insert(addr, Arc::clone(&link));
            self.inner.send_loop_cmd(LoopCmd::Dial(link));
        }
        // A client eagerly dials every replica and announces itself, so
        // replicas it has never messaged (PBFT backups replying to a
        // request sent only to the primary) still have a reply route.
        // The dedicated target (if any) is skipped: its own connection
        // announces the endpoint at adoption.
        if matches!(addr, Sender::Client(_)) {
            let peers = self.inner.cfg.peers.iter();
            for (id, peer_addr) in peers.filter(|(id, _)| Some(*id) != dedicated_target) {
                let link = self.inner.dialed_link(id, peer_addr);
                self.inner.push_link(&link, OutFrame::Hello(addr));
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
            if let Some(token) = link.owner() {
                self.inner.send_loop_cmd(LoopCmd::Close(token));
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
        // the event loop must not redial it while the fault holds.
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
        link.push(OutFrame::Hello(Sender::Client(ClientId(1))), &stats);
        let msg_frame = |b: u8| OutFrame::Msg {
            to: r(1),
            payload: Arc::new(vec![b]),
            reliable: false,
        };
        link.push(msg_frame(1), &stats);
        // Queue is at capacity: the overflow victim must be the Msg, not
        // the routing announcement sitting in front of it.
        link.push(msg_frame(2), &stats);
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
        link.push(frame(false), &stats);
        // The reliable push must not block: the queued gossip frame is
        // sheddable and yields its slot.
        link.push(frame(true), &stats);
        assert_eq!(stats.dropped(), 1);
        let s = link.state.lock();
        assert_eq!(s.frames.len(), 1);
        assert!(matches!(s.frames[0], OutFrame::Msg { reliable: true, .. }));
    }

    /// Failed dials back off 10, 20, 40, … ms up to the 1 s cap, and a
    /// connect starts the schedule over.
    #[test]
    fn redial_backoff_doubles_to_a_cap_and_resets_on_connect() {
        let now = Instant::now();
        let mut redial = Redial::FIRST;
        let waits: Vec<u128> = (0..9)
            .map(|_| (redial.failed(now) - now).as_millis())
            .collect();
        assert_eq!(waits, [10, 20, 40, 80, 160, 320, 640, 1000, 1000]);
        redial.connected();
        assert_eq!(redial.failed(now) - now, RECONNECT_MIN);
        assert_eq!(redial.failed(now) - now, 2 * RECONNECT_MIN);
    }

    /// A restarted client's new connection takes over its reverse route
    /// and closes the stale accepted link — but a shared dialed link that
    /// carried the same HELLO is replaced without being closed.
    #[test]
    fn reannounce_replaces_the_route_and_closes_only_accepted_links() {
        let client = Sender::Client(ClientId(7));
        let first = Link::new(LinkPeer::Accepted, None, QUEUE_CAPACITY);
        let restarted = Link::new(LinkPeer::Accepted, None, QUEUE_CAPACITY);
        let shared = Link::new(LinkPeer::Replica(ReplicaId(1)), None, QUEUE_CAPACITY);
        let mut routes = ReverseRoutes::default();
        let route = |routes: &ReverseRoutes| routes.0.get(&client).cloned().unwrap();

        routes.announce(client, &first);
        routes.announce(client, &first); // a repeat keeps the link open
        assert!(!first.is_closed());
        routes.announce(client, &restarted);
        assert!(Arc::ptr_eq(&route(&routes), &restarted));
        assert!(first.is_closed(), "the stale accepted link is closed");

        routes.announce(client, &shared);
        routes.announce(client, &restarted);
        assert!(Arc::ptr_eq(&route(&routes), &restarted));
        assert!(!shared.is_closed(), "a shared dialed link survives");

        // The replaced connection dying must not drop the live route…
        routes.forget(&[client], &shared);
        assert!(Arc::ptr_eq(&route(&routes), &restarted));
        // …and the route goes with the connection that holds it.
        routes.forget(&[client], &restarted);
        assert!(!routes.0.contains_key(&client));
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
