//! The pluggable transport abstraction.
//!
//! [`Transport`] is what the replica pipeline and client sessions program
//! against: register an address, get an [`Endpoint`], send
//! [`SignedMessage`]s to one or many destinations, observe
//! [`NetworkStats`], inject faults through a [`FaultController`]. Two
//! backends implement it:
//!
//! - [`crate::Network`] — the in-memory switchboard (zero-copy channel
//!   hand-off, optional modeled latency). The default for tests, examples
//!   and the simulator-adjacent threaded runtime.
//! - [`crate::TcpTransport`] — real sockets with length-prefixed framing
//!   over the canonical [`Wire`](rdb_common::Wire) encoding, driven by a
//!   nonblocking reactor with bounded per-link queues and
//!   reconnect-with-backoff. The substrate for multi-process deployments
//!   (`rdb-node`).
//!
//! There is one send path, [`Transport::send`], and it takes a set of
//! destinations. Callers never pick a delivery class: whether a message
//! may be shed under backpressure follows from its two endpoints, and
//! each backend decides it in one place.
//!
//! Backends hand each inbound message to the [`Delivery`] function its
//! address registered, on whatever thread the message arrived on: the
//! sender's own thread in memory, a reactor thread over TCP, the delay
//! line's thread for a delayed message. [`NetHandle::register`] builds the
//! usual one, a crossbeam mailbox behind an [`Endpoint`], so clients and
//! tests keep a backend-agnostic receive side; a replica registers its
//! routing instead ([`NetHandle::attach`]), and each message goes straight
//! to the stage that consumes it.

use crate::fault::FaultController;
use crate::stats::NetworkStats;
use crossbeam::channel::{self, Receiver, RecvTimeoutError};
use rdb_common::messages::{Sender, SignedMessage};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Errors returned by network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Destination address was never registered (in-memory) or has no
    /// route — not in the peer map and no connection announced it (TCP).
    UnknownDestination(String),
    /// The network has been shut down.
    Closed,
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownDestination(d) => write!(f, "unknown destination: {d}"),
            NetworkError::Closed => write!(f, "network closed"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Where a backend hands a message addressed to one registered address.
/// It returns whether the message was taken, which the backend counts as
/// delivered or dropped.
///
/// It runs on a thread the receiver does not own (a sender's, a reactor's,
/// the delay line's) while the backend holds its address map, so it must
/// never block: a bounded queue behind it refuses, it does not wait.
pub type Delivery = Box<dyn Fn(SignedMessage) -> bool + Send + Sync>;

/// A message transport connecting replicas and clients: one multicast
/// send plus endpoint lifecycle and observability.
///
/// Object-safe so deployments can choose a backend at runtime; consumers
/// hold a [`NetHandle`] rather than a concrete network type. Fault
/// injection is evaluated on the **send side** for both backends: a
/// message is discarded when the sender's controller says
/// [`FaultController::should_drop`], and replaced per destination when it
/// holds a [`FaultController::rewrite`] for the sender, which makes
/// drop/partition/byzantine semantics identical whether the link is a
/// channel or a socket.
///
/// Reliability is not the caller's choice; it follows the endpoints. A
/// message with a client on either end (a request, a reply) is never shed
/// — a backend that bounds its queues makes the sender wait for space.
/// Replica-to-replica traffic is droppable gossip: the protocol tolerates
/// loss and retransmits by design, so a backend may shed it under
/// backpressure (the TCP backend's drop-oldest link policy).
pub trait Transport: Send + Sync + fmt::Debug {
    /// Sends `msg` from `from` to every address in `to`, skipping `from`
    /// itself. Every destination shares the one envelope: the in-memory
    /// backend hands each a reference-count bump, the TCP backend
    /// serializes once and shares the bytes across every link.
    ///
    /// # Errors
    /// Returns the first [`NetworkError::UnknownDestination`] — a
    /// destination the backend has no route to; the remaining
    /// destinations are still attempted. Messages discarded by fault
    /// injection do *not* error — like a real network, the sender cannot
    /// tell.
    fn send(&self, from: Sender, to: &[Sender], msg: SignedMessage) -> Result<(), NetworkError>;

    /// Routes every message addressed to `addr` into `deliver`, in the
    /// order each sender sent them.
    ///
    /// # Panics
    /// Panics if `addr` is already registered on this transport.
    fn register_delivery(&self, addr: Sender, deliver: Delivery);

    /// Removes `addr`; future sends to it fail or are dropped. Once this
    /// returns, its delivery function is never called again, and the
    /// address may be registered anew.
    fn deregister(&self, addr: Sender);

    /// The shared delivery statistics.
    fn stats(&self) -> &NetworkStats;

    /// The shared fault controller.
    fn faults(&self) -> &FaultController;

    /// Stops background threads (wire thread, event loop).
    fn shutdown(&self);
}

/// Cloneable handle to a [`Transport`] backend — the currency passed to
/// `spawn_replica`, client sessions and the fabric.
#[derive(Clone)]
pub struct NetHandle {
    transport: Arc<dyn Transport>,
}

impl fmt::Debug for NetHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("NetHandle").field(&self.transport).finish()
    }
}

impl NetHandle {
    /// Wraps a transport backend.
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        NetHandle { transport }
    }

    /// Registers `addr` with a mailbox, returning its endpoint.
    ///
    /// # Panics
    /// Panics if `addr` is already registered.
    pub fn register(&self, addr: Sender) -> Endpoint {
        let (tx, rx) = channel::unbounded();
        self.transport
            .register_delivery(addr, Box::new(move |msg| tx.send(msg).is_ok()));
        Endpoint {
            addr,
            rx,
            net: self.clone(),
        }
    }

    /// Registers `addr` with `deliver` as its receive side, returning an
    /// endpoint to send from. The endpoint's own receive methods report
    /// [`NetworkError::Closed`]: everything addressed to `addr` goes to
    /// `deliver`.
    ///
    /// # Panics
    /// Panics if `addr` is already registered.
    pub fn attach(&self, addr: Sender, deliver: Delivery) -> Endpoint {
        self.transport.register_delivery(addr, deliver);
        let (_, rx) = channel::unbounded();
        Endpoint {
            addr,
            rx,
            net: self.clone(),
        }
    }

    /// Removes `addr` (future sends to it error or drop).
    pub fn deregister(&self, addr: Sender) {
        self.transport.deregister(addr);
    }

    /// The shared fault controller.
    pub fn faults(&self) -> &FaultController {
        self.transport.faults()
    }

    /// The shared delivery statistics.
    pub fn stats(&self) -> &NetworkStats {
        self.transport.stats()
    }

    /// Shuts down the backend's threads.
    pub fn shutdown(&self) {
        self.transport.shutdown();
    }
}

/// A registered node's handle for sending and receiving messages.
///
/// Cloneable: every clone sends as the same address and drains the same
/// mailbox.
#[derive(Clone)]
pub struct Endpoint {
    addr: Sender,
    rx: Receiver<SignedMessage>,
    net: NetHandle,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("addr", &self.addr)
            .finish()
    }
}

impl Endpoint {
    /// This endpoint's address.
    pub fn addr(&self) -> Sender {
        self.addr
    }

    /// Sends `msg` to `to` — see [`Transport::send`].
    ///
    /// # Errors
    /// Returns [`NetworkError::UnknownDestination`] if the backend has no
    /// route to `to`.
    pub fn send(&self, to: Sender, msg: SignedMessage) -> Result<(), NetworkError> {
        self.net.transport.send(self.addr, &[to], msg)
    }

    /// Sends `msg` to every address in `to` except this endpoint's own —
    /// see [`Transport::send`].
    ///
    /// # Errors
    /// Returns the first [`NetworkError`] encountered; remaining
    /// destinations are still attempted.
    pub fn broadcast(&self, to: &[Sender], msg: &SignedMessage) -> Result<(), NetworkError> {
        self.net.transport.send(self.addr, to, msg.clone())
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    /// Returns [`NetworkError::Closed`] if the network is gone.
    pub fn recv(&self) -> Result<SignedMessage, NetworkError> {
        self.rx.recv().map_err(|_| NetworkError::Closed)
    }

    /// Blocks up to `timeout` for a message; errors on timeout.
    ///
    /// # Errors
    /// Returns [`NetworkError::Closed`] if the network is gone or nothing
    /// arrived in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<SignedMessage, NetworkError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(NetworkError::Closed),
            Err(RecvTimeoutError::Disconnected) => Err(NetworkError::Closed),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<SignedMessage> {
        self.rx.try_recv().ok()
    }

    /// The transport this endpoint belongs to.
    pub fn network(&self) -> &NetHandle {
        &self.net
    }
}
