//! Transport fabric for the threaded ResilientDB runtime.
//!
//! Replicas and clients register with a [`Transport`] backend and obtain an
//! [`Endpoint`] for sending and receiving [`SignedMessage`]s
//! (`rdb_common::messages::SignedMessage`). Two backends exist behind the
//! same trait:
//!
//! - [`Network`] — the in-memory switchboard: zero-copy channel hand-off,
//!   optional modeled latency, the default for tests and single-process
//!   deployments.
//! - [`TcpTransport`] — real sockets: length-prefixed frames over the
//!   canonical wire encoding, driven by a nonblocking reactor
//!   ([`reactor`]) whose event-loop pool holds tens of thousands of
//!   connections, with bounded per-link queues, vectored-write frame
//!   coalescing, reconnect-with-backoff, and reply routing for clients
//!   that dial in. The substrate for multi-process clusters (`rdb-node`)
//!   and client swarms.
//!
//! The trait has one send method, [`Transport::send`], which takes a set
//! of destinations and skips the sender. Reliability follows the
//! endpoints, not the call: a message with a client on either end
//! (request, reply) is never shed, while replica-to-replica gossip is
//! droppable — the protocol retransmits — and the TCP backend sheds the
//! oldest gossip frame on a full link.
//!
//! Both support byte-accounted delivery statistics ([`NetworkStats`]) and
//! send-side fault injection ([`FaultController`]: crashes, message drops,
//! partitions, and per-sender rewrites for byzantine strategies) — the
//! substrate for the paper's failure experiments (Figure 17).
//!
//! # Example
//!
//! ```
//! use rdb_net::{Network, NetworkConfig};
//! use rdb_common::messages::{Message, Sender, SignedMessage};
//! use rdb_common::{ReplicaId, SignatureBytes};
//!
//! let net = Network::new(NetworkConfig::default());
//! let a = net.register(Sender::Replica(ReplicaId(0)));
//! let b = net.register(Sender::Replica(ReplicaId(1)));
//! let msg = SignedMessage::new(
//!     Message::ClientRequest { txns: vec![] },
//!     Sender::Replica(ReplicaId(0)),
//!     SignatureBytes::empty(),
//! );
//! a.send(Sender::Replica(ReplicaId(1)), msg.clone()).unwrap();
//! let got = b.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
//! assert_eq!(got.msg(), msg.msg());
//! ```

pub mod fault;
pub mod frame;
pub mod memory;
pub mod reactor;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use fault::FaultController;
pub use memory::{Network, NetworkConfig};
pub use stats::NetworkStats;
pub use tcp::{TcpConfig, TcpTransport};
pub use transport::{Endpoint, NetHandle, NetworkError, Transport};
