//! The in-memory switchboard: endpoints, delivery, latency shaping.
//!
//! With zero latency a send calls the receiver's delivery function on the
//! sender's own thread; with a configured latency (or fault-injected
//! jitter) the delay line both backends share holds messages until due,
//! preserving per-link FIFO ordering for equal deadlines.

use crate::fault::{DelayLine, FaultController};
use crate::stats::NetworkStats;
use crate::transport::{Delivery, Endpoint, NetHandle, NetworkError, Transport};
use parking_lot::RwLock;
use rdb_common::codec::Wire;
use rdb_common::messages::{Sender, SignedMessage};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for an in-memory network.
#[derive(Debug, Clone, Default)]
pub struct NetworkConfig {
    /// One-way delivery latency applied to every message.
    pub latency: Duration,
}

struct NetInner {
    config: NetworkConfig,
    deliveries: RwLock<HashMap<Sender, Delivery>>,
    stats: NetworkStats,
    faults: FaultController,
    delay: DelayLine,
}

impl NetInner {
    fn deliver(&self, to: Sender, msg: SignedMessage) {
        let kind = msg.kind();
        let deliveries = self.deliveries.read();
        if let Some(deliver) = deliveries.get(&to) {
            if deliver(msg) {
                self.stats.record_delivered(kind);
                return;
            }
        }
        self.stats.record_dropped();
    }
}

/// An in-memory network connecting replicas and clients.
///
/// Cloneable handle; all clones refer to the same switchboard. Implements
/// [`Transport`], so a [`NetHandle`] over it is interchangeable with the
/// TCP backend.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("endpoints", &self.inner.deliveries.read().len())
            .field("latency", &self.inner.config.latency)
            .finish()
    }
}

impl Network {
    /// Creates a network.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            inner: Arc::new(NetInner {
                config,
                deliveries: RwLock::new(HashMap::new()),
                stats: NetworkStats::new(),
                faults: FaultController::new(),
                delay: DelayLine::new(),
            }),
        }
    }

    /// A [`NetHandle`] over this switchboard, for APIs that take the
    /// backend-agnostic transport handle.
    pub fn handle(&self) -> NetHandle {
        NetHandle::new(Arc::new(self.clone()))
    }

    /// Registers `addr`, returning its endpoint.
    ///
    /// # Panics
    /// Panics if `addr` is already registered.
    pub fn register(&self, addr: Sender) -> Endpoint {
        self.handle().register(addr)
    }

    /// Removes `addr` from the switchboard (future sends to it error).
    pub fn deregister(&self, addr: Sender) {
        self.inner.deliveries.write().remove(&addr);
    }

    /// The shared fault controller.
    pub fn faults(&self) -> &FaultController {
        &self.inner.faults
    }

    /// The shared delivery statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.inner.stats
    }

    /// Stops delayed delivery (no-op for networks that never delayed).
    pub fn shutdown(&self) {
        self.inner.delay.shutdown();
    }

    /// Sends one envelope to one destination. Delivery never sheds, so
    /// every message is reliable here whatever its endpoints.
    fn send_one(&self, from: Sender, to: Sender, msg: SignedMessage) -> Result<(), NetworkError> {
        if !self.inner.deliveries.read().contains_key(&to) {
            self.inner.stats.record_dropped();
            return Err(NetworkError::UnknownDestination(format!("{to:?}")));
        }
        // Exact bytes-on-wire accounting: `encoded_len` is the envelope's
        // memoized signing bytes plus its signature, so pricing a broadcast
        // walks no batch — and both transport backends report the same
        // number for the same message.
        self.inner.stats.record_sent(msg.kind(), msg.encoded_len());
        if self.inner.faults.should_drop(from, to) {
            self.inner.stats.record_dropped();
            return Ok(()); // silently dropped, like a real network
        }
        let msg = self.inner.faults.rewrite(from, to, &msg).unwrap_or(msg);
        // Total one-way delay: configured base latency plus any
        // fault-injected deterministic jitter for this link message.
        let delay = self.inner.config.latency
            + self
                .inner
                .faults
                .delay_for(from, to)
                .unwrap_or(Duration::ZERO);
        if delay.is_zero() {
            self.inner.deliver(to, msg);
        } else {
            // Weak: a parked message must not keep the network alive.
            let weak = Arc::downgrade(&self.inner);
            self.inner.delay.schedule(Instant::now() + delay, move || {
                if let Some(inner) = weak.upgrade() {
                    inner.deliver(to, msg);
                }
            });
        }
        Ok(())
    }
}

impl Transport for Network {
    fn send(&self, from: Sender, to: &[Sender], msg: SignedMessage) -> Result<(), NetworkError> {
        // Every destination but the last gets a clone (reference-count
        // bumps); the last takes `msg` itself.
        let mut dests = to.iter().copied().filter(|&d| d != from);
        let Some(mut dest) = dests.next() else {
            return Ok(());
        };
        let mut res = Ok(());
        for next in dests {
            res = res.and(self.send_one(from, dest, msg.clone()));
            dest = next;
        }
        res.and(self.send_one(from, dest, msg))
    }

    fn register_delivery(&self, addr: Sender, deliver: Delivery) {
        let prev = self.inner.deliveries.write().insert(addr, deliver);
        assert!(prev.is_none(), "address {addr:?} registered twice");
    }

    fn deregister(&self, addr: Sender) {
        Network::deregister(self, addr);
    }

    fn stats(&self) -> &NetworkStats {
        &self.inner.stats
    }

    fn faults(&self) -> &FaultController {
        &self.inner.faults
    }

    fn shutdown(&self) {
        Network::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::messages::Message;
    use rdb_common::{ReplicaId, SignatureBytes};

    fn r(i: u32) -> Sender {
        Sender::Replica(ReplicaId(i))
    }

    fn msg(from: Sender) -> SignedMessage {
        SignedMessage::new(
            Message::ClientRequest { txns: vec![] },
            from,
            SignatureBytes::empty(),
        )
    }

    #[test]
    fn point_to_point_delivery() {
        let net = Network::new(NetworkConfig::default());
        let a = net.register(r(0));
        let b = net.register(r(1));
        a.send(r(1), msg(r(0))).unwrap();
        let got = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.sender(), r(0));
        assert_eq!(net.stats().total_sent(), 1);
    }

    #[test]
    fn broadcast_skips_self() {
        let net = Network::new(NetworkConfig::default());
        let eps: Vec<Endpoint> = (0..4).map(|i| net.register(r(i))).collect();
        let all: Vec<Sender> = (0..4).map(r).collect();
        eps[0].broadcast(&all, &msg(r(0))).unwrap();
        assert!(eps[0].try_recv().is_none(), "no self-delivery");
        for ep in &eps[1..] {
            assert!(ep.recv_timeout(Duration::from_secs(1)).is_ok());
        }
    }

    #[test]
    fn unknown_destination_errors() {
        let net = Network::new(NetworkConfig::default());
        let a = net.register(r(0));
        assert!(matches!(
            a.send(r(9), msg(r(0))),
            Err(NetworkError::UnknownDestination(_))
        ));
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let net = Network::new(NetworkConfig::default());
        let a = net.register(r(0));
        let b = net.register(r(1));
        net.faults().crash(r(1));
        a.send(r(1), msg(r(0))).unwrap(); // no error: silent drop
        assert!(b.try_recv().is_none());
        assert_eq!(net.stats().dropped(), 1);
        net.faults().recover(r(1));
        a.send(r(1), msg(r(0))).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn latency_delays_delivery() {
        let net = Network::new(NetworkConfig {
            latency: Duration::from_millis(30),
        });
        let a = net.register(r(0));
        let b = net.register(r(1));
        let start = Instant::now();
        a.send(r(1), msg(r(0))).unwrap();
        assert!(b.try_recv().is_none(), "must not arrive instantly");
        let got = b.recv_timeout(Duration::from_secs(2));
        assert!(got.is_ok());
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(25),
            "arrived after {elapsed:?}"
        );
        net.shutdown();
    }

    #[test]
    fn latency_preserves_fifo_per_link() {
        let net = Network::new(NetworkConfig {
            latency: Duration::from_millis(5),
        });
        let a = net.register(r(0));
        let b = net.register(r(1));
        for i in 0..20u64 {
            let m = SignedMessage::new(
                Message::Checkpoint {
                    seq: rdb_common::SeqNum(i),
                    state_digest: rdb_common::Digest::ZERO,
                    replica: ReplicaId(0),
                },
                r(0),
                SignatureBytes::empty(),
            );
            a.send(r(1), m).unwrap();
        }
        for i in 0..20u64 {
            let got = b.recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(got.msg().seq(), Some(rdb_common::SeqNum(i)));
        }
        net.shutdown();
    }

    #[test]
    fn deregister_stops_delivery() {
        let net = Network::new(NetworkConfig::default());
        let a = net.register(r(0));
        let _b = net.register(r(1));
        net.deregister(r(1));
        assert!(a.send(r(1), msg(r(0))).is_err());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let net = Network::new(NetworkConfig::default());
        let _a = net.register(r(0));
        let _a2 = net.register(r(0));
    }

    #[test]
    fn bytes_accounted_exactly() {
        let net = Network::new(NetworkConfig::default());
        let a = net.register(r(0));
        let _b = net.register(r(1));
        let m = msg(r(0));
        let want = m.encoded_len() as u64;
        a.send(r(1), m).unwrap();
        assert_eq!(net.stats().bytes_sent(), want);
        assert_eq!(
            net.stats()
                .bytes_for(rdb_common::MessageKind::ClientRequest),
            want
        );
    }
}
