//! Transport-conformance suite: every test runs against both backends
//! through the [`Transport`] trait, pinning the semantics the replica
//! pipeline depends on — framing round-trips (including batches far past
//! 64 KiB), per-link FIFO ordering, send-side fault injection, reply
//! routing for clients, delivery functions (per-sender order, silence
//! after deregistration, replacement on re-registration), a byzantine
//! sender's per-destination rewrites and byte-exact `NetworkStats`
//! accounting.
//! TCP-only behaviors (reconnect after a peer restart, late peer start)
//! get dedicated tests at the bottom.

use rdb_common::messages::{Message, MessageKind, Sender, SignedMessage};
use rdb_common::{
    Batch, ClientId, Digest, Operation, PeerMap, ReplicaId, SeqNum, SignatureBytes, Transaction,
    ViewNum, Wire,
};
use rdb_net::{Endpoint, NetHandle, Network, NetworkConfig, NetworkError, TcpConfig, TcpTransport};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const RECV_WAIT: Duration = Duration::from_secs(10);

fn r(i: u32) -> Sender {
    Sender::Replica(ReplicaId(i))
}

fn c(i: u64) -> Sender {
    Sender::Client(ClientId(i))
}

/// A cluster of registered replica endpoints over one backend.
struct Cluster {
    /// Transport of each replica (same handle repeated for in-memory).
    nets: Vec<NetHandle>,
    eps: Vec<Endpoint>,
    /// Extra transports to shut down (client-side TCP transports).
    extra: Vec<NetHandle>,
    peers: PeerMap,
}

impl Cluster {
    fn memory(n: usize) -> Cluster {
        let net = Network::new(NetworkConfig::default()).handle();
        let eps = (0..n as u32).map(|i| net.register(r(i))).collect();
        Cluster {
            nets: vec![net; n],
            eps,
            extra: Vec::new(),
            peers: PeerMap::new(),
        }
    }

    fn tcp(n: usize) -> Cluster {
        let (peers, listeners) = TcpTransport::bind_loopback_cluster(n).expect("bind loopback");
        let nets: Vec<NetHandle> = listeners
            .into_iter()
            .map(|listener| {
                TcpTransport::with_listener(
                    TcpConfig {
                        listen: listener.local_addr().ok(),
                        peers: peers.clone(),
                        ..TcpConfig::default()
                    },
                    Some(listener),
                )
                .handle()
            })
            .collect();
        let eps = nets
            .iter()
            .enumerate()
            .map(|(i, net)| net.register(r(i as u32)))
            .collect();
        Cluster {
            nets,
            eps,
            extra: Vec::new(),
            peers,
        }
    }

    /// The transport hosting replica `i` (for fault/stat injection on the
    /// send side).
    fn net(&self, i: usize) -> &NetHandle {
        &self.nets[i]
    }

    /// Registers a client endpoint: on the shared switchboard in memory,
    /// on its own dial-out transport over TCP (as a real client process
    /// would).
    fn add_client(&mut self, id: u64) -> Endpoint {
        if self.peers.is_empty() {
            self.nets[0].register(c(id))
        } else {
            let net = TcpTransport::new(TcpConfig::for_client(self.peers.clone()))
                .expect("client transport")
                .handle();
            let ep = net.register(c(id));
            self.extra.push(net);
            ep
        }
    }

    fn shutdown(self) {
        for net in self.nets.iter().chain(self.extra.iter()) {
            net.shutdown();
        }
    }
}

/// Runs `test` against a fresh cluster of each backend.
fn conformance(n: usize, test: impl Fn(&mut Cluster, &str)) {
    for (name, mut cluster) in [("memory", Cluster::memory(n)), ("tcp", Cluster::tcp(n))] {
        test(&mut cluster, name);
        cluster.shutdown();
    }
}

fn prepare_msg(from: Sender, seq: u64) -> SignedMessage {
    SignedMessage::new(
        Message::Prepare {
            view: ViewNum(0),
            seq: SeqNum(seq),
            digest: Digest([7; 32]),
        },
        from,
        SignatureBytes(vec![9; 32]),
    )
}

fn big_preprepare(from: Sender, txns: usize, payload: usize) -> SignedMessage {
    let batch: Batch = (0..txns as u64)
        .map(|i| {
            Transaction::new(
                ClientId(i % 4),
                i,
                vec![Operation::Write {
                    key: i,
                    value: vec![(i & 0xff) as u8; payload],
                }],
            )
        })
        .collect();
    SignedMessage::new(
        Message::PrePrepare {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: Digest([3; 32]),
            batch: Arc::new(batch),
        },
        from,
        SignatureBytes(vec![5; 64]),
    )
}

#[test]
fn round_trip_preserves_envelope() {
    conformance(2, |cl, name| {
        let sm = prepare_msg(r(0), 42);
        cl.eps[0].send(r(1), sm.clone()).unwrap();
        let got = cl.eps[1].recv_timeout(RECV_WAIT).unwrap_or_else(|e| {
            panic!("[{name}] no delivery: {e}");
        });
        assert_eq!(got, sm, "[{name}] envelope must survive the link");
        assert_eq!(
            got.signing_bytes(),
            sm.signing_bytes(),
            "[{name}] canonical bytes must be identical (and memo-seeded)"
        );
    });
}

#[test]
fn round_trip_survives_batches_past_64kib() {
    conformance(2, |cl, name| {
        // ~200 txns × 512-byte payloads ≈ 110 KiB on the wire: well past
        // a u16 length field and any single-read framing assumption.
        let sm = big_preprepare(r(0), 200, 512);
        assert!(
            sm.encoded_len() > 64 * 1024,
            "test batch must exceed 64 KiB, got {}",
            sm.encoded_len()
        );
        cl.eps[0].send(r(1), sm.clone()).unwrap();
        let got = cl.eps[1].recv_timeout(RECV_WAIT).unwrap_or_else(|e| {
            panic!("[{name}] no delivery of large frame: {e}");
        });
        assert_eq!(got, sm, "[{name}] large envelope must survive intact");
        assert_eq!(got.encoded_len(), sm.encoded_len());
    });
}

#[test]
fn per_link_delivery_is_fifo() {
    conformance(2, |cl, name| {
        const N: u64 = 200;
        for i in 0..N {
            cl.eps[0].send(r(1), prepare_msg(r(0), i)).unwrap();
        }
        for i in 0..N {
            let got = cl.eps[1].recv_timeout(RECV_WAIT).unwrap_or_else(|e| {
                panic!("[{name}] message {i} missing: {e}");
            });
            assert_eq!(
                got.msg().seq(),
                Some(SeqNum(i)),
                "[{name}] out-of-order delivery"
            );
        }
    });
}

#[test]
fn send_side_crash_faults_drop_traffic() {
    conformance(2, |cl, name| {
        cl.net(0).faults().crash(r(1));
        cl.eps[0].send(r(1), prepare_msg(r(0), 1)).unwrap();
        assert!(
            cl.eps[1].recv_timeout(Duration::from_millis(300)).is_err(),
            "[{name}] crashed destination must receive nothing"
        );
        cl.net(0).faults().recover(r(1));
        cl.eps[0].send(r(1), prepare_msg(r(0), 2)).unwrap();
        let got = cl.eps[1].recv_timeout(RECV_WAIT).unwrap_or_else(|e| {
            panic!("[{name}] recovery must restore delivery: {e}");
        });
        assert_eq!(got.msg().seq(), Some(SeqNum(2)));
    });
}

#[test]
fn partitions_cut_cross_traffic_only() {
    conformance(4, |cl, name| {
        // Partition {0,1} | {2,3} on every sender's controller (one call
        // on the shared controller in memory, one per node over TCP).
        for i in 0..4 {
            cl.net(i).faults().partition(&[r(0), r(1)], &[r(2), r(3)]);
        }
        cl.eps[0].send(r(2), prepare_msg(r(0), 1)).unwrap();
        assert!(
            cl.eps[2].recv_timeout(Duration::from_millis(300)).is_err(),
            "[{name}] cross-partition traffic must drop"
        );
        cl.eps[0].send(r(1), prepare_msg(r(0), 2)).unwrap();
        assert!(
            cl.eps[1].recv_timeout(RECV_WAIT).is_ok(),
            "[{name}] same-side traffic must flow"
        );
        for i in 0..4 {
            cl.net(i).faults().heal_all();
        }
        cl.eps[0].send(r(2), prepare_msg(r(0), 3)).unwrap();
        assert!(
            cl.eps[2].recv_timeout(RECV_WAIT).is_ok(),
            "[{name}] healed partition must deliver"
        );
    });
}

#[test]
fn a_senders_rewrite_gives_each_destination_its_own_envelope() {
    conformance(4, |cl, name| {
        // r0 lies in its Prepares to r1 and r3, its first and last
        // destination, and tells r2 the truth. Over TCP that order
        // catches both ways of sharing the broadcast's one encoding: a
        // variant that filled it would reach r2, a variant that reused
        // it would leave r3 with the original.
        let lie = |to: u32, honest: &SignedMessage| match honest.msg() {
            Message::Prepare { view, seq, .. } if to != 2 => Some(SignedMessage::new(
                Message::Prepare {
                    view: *view,
                    seq: *seq,
                    digest: Digest([to as u8; 32]),
                },
                honest.sender(),
                SignatureBytes(vec![to as u8; 32]),
            )),
            _ => None,
        };
        let rewrite: rdb_net::fault::Rewrite = Arc::new(move |to, sm| match to {
            Sender::Replica(r) => lie(r.0, sm),
            Sender::Client(_) => None,
        });
        cl.net(0).faults().set_rewrite(r(0), rewrite);
        let all = [r(0), r(1), r(2), r(3)];
        let prepare = prepare_msg(r(0), 1);
        let checkpoint = SignedMessage::new(
            Message::Checkpoint {
                seq: SeqNum(1),
                state_digest: Digest([3; 32]),
                replica: ReplicaId(0),
            },
            r(0),
            SignatureBytes(vec![4; 16]),
        );
        let honest_peer = prepare_msg(r(1), 1);
        cl.eps[0].broadcast(&all, &prepare).unwrap();
        cl.eps[0].broadcast(&all, &checkpoint).unwrap();
        cl.eps[1].broadcast(&all, &honest_peer).unwrap();
        // Order holds per sender only, so each replica's inbox is split
        // by sender before it is compared.
        for i in 0..4u32 {
            let from_liar = match i {
                0 => vec![],
                _ => vec![
                    lie(i, &prepare).unwrap_or_else(|| prepare.clone()),
                    checkpoint.clone(),
                ],
            };
            let from_peer = if i == 1 {
                vec![]
            } else {
                vec![honest_peer.clone()]
            };
            let mut got: [Vec<Vec<u8>>; 2] = [vec![], vec![]];
            for _ in 0..from_liar.len() + from_peer.len() {
                let sm = cl.eps[i as usize]
                    .recv_timeout(RECV_WAIT)
                    .unwrap_or_else(|e| panic!("[{name}] r{i} missed a message: {e}"));
                got[usize::from(sm.sender() != r(0))].push(sm.encode());
            }
            let encoded = |v: Vec<SignedMessage>| v.iter().map(Wire::encode).collect::<Vec<_>>();
            // Its own variant of the Prepare, then the checkpoint the
            // strategy skips, byte-identical.
            assert_eq!(got[0], encoded(from_liar), "[{name}] r{i} from the liar");
            assert_eq!(
                got[1],
                encoded(from_peer),
                "[{name}] r{i} from an honest peer"
            );
        }
    });
}

#[test]
fn stats_count_bytes_on_wire_exactly() {
    conformance(2, |cl, name| {
        let prepares: Vec<SignedMessage> = (0..5).map(|i| prepare_msg(r(0), i)).collect();
        let big = big_preprepare(r(0), 50, 128);
        let mut want_prepare_bytes = 0u64;
        for sm in &prepares {
            want_prepare_bytes += sm.encoded_len() as u64;
            cl.eps[0].send(r(1), sm.clone()).unwrap();
        }
        cl.eps[0].send(r(1), big.clone()).unwrap();
        let stats = cl.net(0).stats();
        assert_eq!(
            stats.bytes_for(MessageKind::Prepare),
            want_prepare_bytes,
            "[{name}] per-kind byte accounting must equal Wire::encoded_len"
        );
        assert_eq!(
            stats.bytes_for(MessageKind::PrePrepare),
            big.encoded_len() as u64,
            "[{name}]"
        );
        assert_eq!(stats.sent(MessageKind::Prepare), 5, "[{name}]");
        assert_eq!(stats.sent(MessageKind::PrePrepare), 1, "[{name}]");
        assert_eq!(
            stats.bytes_sent(),
            want_prepare_bytes + big.encoded_len() as u64,
            "[{name}] total bytes are the sum of the kinds"
        );
        // Delivery accounting lands on the receiving node's stats.
        for _ in 0..6 {
            cl.eps[1].recv_timeout(RECV_WAIT).unwrap();
        }
        let delivered = cl.net(1).stats().delivered(MessageKind::Prepare);
        assert_eq!(delivered, 5, "[{name}] deliveries recorded per kind");
    });
}

#[test]
fn broadcast_reaches_every_peer_once() {
    conformance(4, |cl, name| {
        let all: Vec<Sender> = (0..4).map(r).collect();
        let sm = big_preprepare(r(0), 20, 64);
        cl.eps[0].broadcast(&all, &sm).unwrap();
        assert!(
            cl.eps[0].try_recv().is_none(),
            "[{name}] no self-delivery on broadcast"
        );
        for ep in &cl.eps[1..] {
            let got = ep.recv_timeout(RECV_WAIT).unwrap_or_else(|e| {
                panic!("[{name}] broadcast missed {:?}: {e}", ep.addr());
            });
            assert_eq!(got, sm);
        }
        assert_eq!(
            cl.net(0).stats().sent(MessageKind::PrePrepare),
            3,
            "[{name}] one send per destination"
        );
        assert_eq!(
            cl.net(0).stats().bytes_for(MessageKind::PrePrepare),
            3 * sm.encoded_len() as u64,
            "[{name}] broadcast bytes = n × encoded_len"
        );
    });
}

#[test]
fn unknown_destinations_error() {
    conformance(2, |cl, name| {
        // A replica outside the membership and a client nobody announced.
        assert!(
            matches!(
                cl.eps[0].send(r(99), prepare_msg(r(0), 1)),
                Err(NetworkError::UnknownDestination(_))
            ),
            "[{name}]"
        );
        assert!(
            matches!(
                cl.eps[0].send(c(99), prepare_msg(r(0), 1)),
                Err(NetworkError::UnknownDestination(_))
            ),
            "[{name}]"
        );
    });
}

#[test]
fn client_requests_and_replies_route_both_ways() {
    let run = |mut cl: Cluster, name: &str| {
        let client = cl.add_client(7);
        let req = SignedMessage::new(
            Message::ClientRequest { txns: vec![] },
            c(7),
            SignatureBytes(vec![1; 16]),
        );
        client.send(r(0), req).unwrap();
        let got = cl.eps[0].recv_timeout(RECV_WAIT).unwrap_or_else(|e| {
            panic!("[{name}] request must reach the replica: {e}");
        });
        assert_eq!(got.sender(), c(7));
        // The reply route may be learned asynchronously (HELLO in flight
        // over TCP), so retry until the transport knows the client.
        let reply = prepare_msg(r(0), 1);
        let deadline = Instant::now() + RECV_WAIT;
        loop {
            match cl.eps[0].send(c(7), reply.clone()) {
                Ok(()) => break,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("[{name}] no reply route to the client: {e}"),
            }
        }
        assert!(
            client.recv_timeout(RECV_WAIT).is_ok(),
            "[{name}] reply must reach the client"
        );
        cl.shutdown();
    };
    run(Cluster::memory(2), "memory");
    run(Cluster::tcp(2), "tcp");
}

/// What a test delivery function saw: `(sender, seq)` per message.
type Seen = Arc<Mutex<Vec<(Sender, u64)>>>;

/// Replaces replica `i`'s mailbox with a delivery function that records
/// every message it is handed.
fn attach_recorder(cl: &Cluster, i: u32) -> Seen {
    let seen = Seen::default();
    let log = Arc::clone(&seen);
    cl.net(i as usize).deregister(r(i));
    let _ = cl.net(i as usize).attach(
        r(i),
        Box::new(move |sm: SignedMessage| {
            let seq = sm.msg().seq().map_or(u64::MAX, |s| s.0);
            log.lock().unwrap().push((sm.sender(), seq));
            true
        }),
    );
    seen
}

/// Waits until `seen` holds `count` messages.
fn await_seen(seen: &Seen, count: usize, name: &str) {
    let deadline = Instant::now() + RECV_WAIT;
    while seen.lock().unwrap().len() < count {
        assert!(
            Instant::now() < deadline,
            "[{name}] {} of {count} messages delivered",
            seen.lock().unwrap().len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_delivery_function_sees_each_senders_messages_in_order_until_deregistered() {
    conformance(3, |cl, name| {
        const N: u64 = 100;
        let seen = attach_recorder(cl, 2);
        for i in 0..N {
            for from in 0..2 {
                cl.eps[from]
                    .send(r(2), prepare_msg(r(from as u32), i))
                    .unwrap();
            }
        }
        await_seen(&seen, 2 * N as usize, name);
        for from in [r(0), r(1)] {
            let seqs: Vec<u64> = seen
                .lock()
                .unwrap()
                .iter()
                .filter(|(s, _)| *s == from)
                .map(|&(_, seq)| seq)
                .collect();
            assert_eq!(
                seqs,
                (0..N).collect::<Vec<_>>(),
                "[{name}] {from:?}'s order"
            );
        }
        cl.net(2).deregister(r(2));
        // In memory the address is gone at once (the send errors); over
        // TCP the frame still crosses the socket and is dropped on arrival.
        let _ = cl.eps[0].send(r(2), prepare_msg(r(0), N));
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            seen.lock().unwrap().len(),
            2 * N as usize,
            "[{name}] nothing after deregister"
        );
    });
}

#[test]
fn a_restarted_replicas_registration_replaces_the_old_function() {
    conformance(2, |cl, name| {
        let old = attach_recorder(cl, 1);
        cl.eps[0].send(r(1), prepare_msg(r(0), 1)).unwrap();
        await_seen(&old, 1, name);
        // The restart: the old incarnation deregisters, the new registers.
        let new = attach_recorder(cl, 1);
        cl.eps[0].send(r(1), prepare_msg(r(0), 2)).unwrap();
        await_seen(&new, 1, name);
        assert_eq!(new.lock().unwrap()[0], (r(0), 2), "[{name}]");
        assert_eq!(
            old.lock().unwrap().len(),
            1,
            "[{name}] the old one is retired"
        );
    });
}

// ---------------------------------------------------------------------------
// TCP-only behaviors.
// ---------------------------------------------------------------------------

/// A peer that starts *after* traffic begins is reached once it binds:
/// the dialed writer retries with backoff and nothing but queue overflow
/// loses messages.
#[test]
fn tcp_late_peer_receives_queued_traffic() {
    let (peers, mut listeners) = TcpTransport::bind_loopback_cluster(2).unwrap();
    let l1 = listeners.remove(1);
    let l0 = listeners.remove(0);
    let t0 = TcpTransport::with_listener(
        TcpConfig {
            listen: l0.local_addr().ok(),
            peers: peers.clone(),
            ..TcpConfig::default()
        },
        Some(l0),
    );
    let a = t0.register(r(0));
    // Peer 1 does not exist yet; sends enqueue and the writer backs off.
    for i in 0..10 {
        a.send(r(1), prepare_msg(r(0), i)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(200));
    let t1 = TcpTransport::with_listener(
        TcpConfig {
            listen: l1.local_addr().ok(),
            peers,
            ..TcpConfig::default()
        },
        Some(l1),
    );
    let b = t1.register(r(1));
    for i in 0..10 {
        let got = b
            .recv_timeout(RECV_WAIT)
            .unwrap_or_else(|e| panic!("queued message {i} lost: {e}"));
        assert_eq!(got.msg().seq(), Some(SeqNum(i)), "FIFO across the backoff");
    }
    t0.shutdown();
    t1.shutdown();
}

/// A restarted replica (same address, fresh process state) rejoins: the
/// peer's writer reconnects with backoff and new traffic flows.
#[test]
fn tcp_reconnects_after_peer_restart() {
    let (peers, mut listeners) = TcpTransport::bind_loopback_cluster(2).unwrap();
    let l1 = listeners.remove(1);
    let l0 = listeners.remove(0);
    let addr1 = peers.get(ReplicaId(1)).unwrap();
    let t0 = TcpTransport::with_listener(
        TcpConfig {
            listen: l0.local_addr().ok(),
            peers: peers.clone(),
            ..TcpConfig::default()
        },
        Some(l0),
    );
    let t1 = TcpTransport::with_listener(
        TcpConfig {
            listen: Some(addr1),
            peers: peers.clone(),
            ..TcpConfig::default()
        },
        Some(l1),
    );
    let a = t0.register(r(0));
    let b = t1.register(r(1));
    a.send(r(1), prepare_msg(r(0), 1)).unwrap();
    assert!(b.recv_timeout(RECV_WAIT).is_ok(), "pre-restart delivery");

    // "Restart" node 1: tear the whole transport down, then bring a fresh
    // one up on the same address (retrying the bind in case the old
    // listener needs a moment to release the port).
    t1.shutdown();
    drop(b);
    let deadline = Instant::now() + RECV_WAIT;
    let t1b = loop {
        match TcpTransport::new(TcpConfig {
            listen: Some(addr1),
            peers: peers.clone(),
            ..TcpConfig::default()
        }) {
            Ok(t) => break t,
            Err(e) if Instant::now() < deadline => {
                eprintln!("rebind pending: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("cannot rebind {addr1}: {e}"),
        }
    };
    let b2 = t1b.register(r(1));

    // Keep sending until one lands: messages written into the dead socket
    // during the outage may be lost (that is TCP), but the link must heal.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut healed = false;
    let mut seq = 100;
    while Instant::now() < deadline {
        a.send(r(1), prepare_msg(r(0), seq)).unwrap();
        seq += 1;
        if b2.recv_timeout(Duration::from_millis(200)).is_ok() {
            healed = true;
            break;
        }
    }
    assert!(healed, "restarted peer never rejoined");
    t0.shutdown();
    t1b.shutdown();
}

/// Swarm scale through the reactor: ≥1K concurrent client sessions, each
/// on its own dedicated socket, run a HELLO + request/reply conversation
/// against one replica. Per-link FIFO must hold per client, the stats
/// must stay byte-exact across thousands of links, and the connection
/// gauge must show every socket.
#[test]
fn tcp_many_clients_request_reply_over_dedicated_links() {
    const CLIENTS: u64 = 1_000;
    const PER_CLIENT: u64 = 4;
    let wait = Duration::from_secs(60);

    let (peers, mut listeners) = TcpTransport::bind_loopback_cluster(1).unwrap();
    let l0 = listeners.remove(0);
    let t0 = TcpTransport::with_listener(
        TcpConfig {
            listen: l0.local_addr().ok(),
            peers: peers.clone(),
            ..TcpConfig::default()
        },
        Some(l0),
    );
    let replica = t0.register(r(0));
    // One swarm transport hosts every session; `dedicated_to` gives each
    // registered client endpoint its own connection to replica 0.
    let swarm = TcpTransport::new(TcpConfig::for_swarm(peers, ReplicaId(0))).unwrap();
    let swarm_handle = swarm.handle();
    let sessions: Vec<Endpoint> = (0..CLIENTS).map(|k| swarm_handle.register(c(k))).collect();

    // Every client fires its requests; seq = k * 1000 + i makes per-client
    // FIFO checkable from the replica's interleaved inbox.
    let mut want_bytes = 0u64;
    for (k, ep) in sessions.iter().enumerate() {
        for i in 0..PER_CLIENT {
            let sm = prepare_msg(c(k as u64), k as u64 * 1_000 + i);
            want_bytes += sm.encoded_len() as u64;
            ep.send(r(0), sm).unwrap();
        }
    }

    // Drain at the replica: all requests arrive, in order per client.
    let mut last_seq: Vec<Option<u64>> = vec![None; CLIENTS as usize];
    let deadline = Instant::now() + wait;
    for n in 0..CLIENTS * PER_CLIENT {
        let got = replica
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .unwrap_or_else(|e| panic!("request {n} missing: {e}"));
        let Sender::Client(ClientId(k)) = got.sender() else {
            panic!("unexpected sender {:?}", got.sender());
        };
        let seq = got.msg().seq().expect("prepare has a seq").0;
        assert_eq!(seq / 1_000, k, "seq namespace must match the client");
        let prev = last_seq[k as usize].replace(seq);
        assert!(prev.is_none_or(|p| p < seq), "client {k} out of order");
        // Reply over the learned reverse route (same dedicated socket).
        replica.send(got.sender(), prepare_msg(r(0), seq)).unwrap();
    }

    // The gauge sees every dedicated socket (+ shared replica link).
    assert!(
        swarm.open_connections() >= CLIENTS as usize,
        "expected ≥{CLIENTS} open connections, gauge says {}",
        swarm.open_connections()
    );

    // Every session collects its own replies, FIFO per link.
    for (k, ep) in sessions.iter().enumerate() {
        for i in 0..PER_CLIENT {
            let got = ep
                .recv_timeout(wait)
                .unwrap_or_else(|e| panic!("client {k} reply {i} missing: {e}"));
            assert_eq!(got.msg().seq(), Some(SeqNum(k as u64 * 1_000 + i)));
        }
    }

    // Byte-exact accounting across 1K links: requests on the swarm
    // transport, replies on the replica's.
    assert_eq!(swarm.stats().bytes_sent(), want_bytes);
    assert_eq!(
        swarm.stats().sent(MessageKind::Prepare),
        CLIENTS * PER_CLIENT
    );
    assert_eq!(t0.stats().sent(MessageKind::Prepare), CLIENTS * PER_CLIENT);

    swarm_handle.shutdown();
    t0.shutdown();
}

#[cfg(target_os = "linux")]
fn open_fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

/// Reclamation regression: 1K connect/disconnect cycles through the
/// reactor must not leak file descriptors or connection state — closed
/// connections are reaped eagerly on both the dialing and accepting side.
#[test]
fn tcp_connection_churn_reclaims_fds_and_state() {
    const CYCLES: u64 = 1_000;
    let wait = Duration::from_secs(30);

    let (peers, mut listeners) = TcpTransport::bind_loopback_cluster(1).unwrap();
    let l0 = listeners.remove(0);
    let t0 = TcpTransport::with_listener(
        TcpConfig {
            listen: l0.local_addr().ok(),
            peers: peers.clone(),
            ..TcpConfig::default()
        },
        Some(l0),
    );
    let replica = t0.register(r(0));
    let swarm = TcpTransport::new(TcpConfig::for_swarm(peers, ReplicaId(0))).unwrap();
    let swarm_handle = swarm.handle();

    // Warm up the shared link and thread pool before baselining fds.
    let warm = swarm_handle.register(c(u64::MAX));
    warm.send(r(0), prepare_msg(c(u64::MAX), 0)).unwrap();
    replica.recv_timeout(wait).expect("warmup round trip");
    swarm_handle.deregister(c(u64::MAX));
    drop(warm);

    #[cfg(target_os = "linux")]
    let fd_baseline = open_fd_count();

    for k in 0..CYCLES {
        let ep = swarm_handle.register(c(k));
        ep.send(r(0), prepare_msg(c(k), k)).unwrap();
        let got = replica
            .recv_timeout(wait)
            .unwrap_or_else(|e| panic!("cycle {k} round trip failed: {e}"));
        assert_eq!(got.sender(), c(k));
        // Deregistering tears the dedicated connection down eagerly; the
        // replica side reaps the accepted socket on EOF.
        swarm_handle.deregister(c(k));
    }

    // Both gauges converge back to the steady state: the swarm keeps at
    // most its shared replica link, the replica at most that same link.
    let deadline = Instant::now() + wait;
    loop {
        let open = swarm.open_connections() + t0.open_connections();
        if open <= 2 || Instant::now() > deadline {
            assert!(
                open <= 2,
                "churned connections not reclaimed: swarm={} replica={}",
                swarm.open_connections(),
                t0.open_connections()
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // And the process-level fd table shows no growth beyond slack for
    // in-flight reaping.
    #[cfg(target_os = "linux")]
    {
        let deadline = Instant::now() + wait;
        loop {
            let now = open_fd_count();
            if now <= fd_baseline + 8 || Instant::now() > deadline {
                assert!(
                    now <= fd_baseline + 8,
                    "fd leak across churn: {fd_baseline} before, {now} after"
                );
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    swarm_handle.shutdown();
    t0.shutdown();
}
