//! Network-path benchmarks: the in-memory switchboard vs real TCP
//! loopback sockets, measured through the same [`Transport`] trait the
//! replica pipeline uses.
//!
//! Two measurements per backend:
//!
//! - **PrePrepare broadcast throughput** — one sender fans a 100-txn
//!   batch proposal out to 3 peers (the 4-replica primary's hot path);
//!   reported as ns/broadcast and MB/s of wire bytes.
//! - **Request/response RTT** — a small PrePrepare ping answered by a
//!   Commit pong, sequentially; reported as p50/p99 microseconds.
//!
//! It writes `BENCH_net.json` at the workspace root through
//! [`rdb_bench::report`]; CI runs this with a short `RDB_BENCH_ITERS`
//! window and uploads the file.

use rdb_bench::report::{Length, Report};
use rdb_common::codec::Wire;
use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{
    Batch, ClientId, Digest, Operation, ReplicaId, SeqNum, SignatureBytes, Transaction, ViewNum,
};
use rdb_net::{Endpoint, NetHandle, Network, NetworkConfig, TcpConfig, TcpTransport};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PEERS: usize = 4;
const BROADCAST_TXNS: usize = 100;
const PING_TXNS: usize = 10;

fn r(i: u32) -> Sender {
    Sender::Replica(ReplicaId(i))
}

fn batch(n: usize) -> Arc<Batch> {
    Arc::new(
        (0..n as u64)
            .map(|i| {
                Transaction::new(
                    ClientId(i % 8),
                    i,
                    vec![Operation::Write {
                        key: i,
                        value: vec![(i & 0xff) as u8; 8],
                    }],
                )
            })
            .collect(),
    )
}

fn pre_prepare(seq: u64, b: Arc<Batch>) -> SignedMessage {
    SignedMessage::new(
        Message::PrePrepare {
            view: ViewNum(0),
            seq: SeqNum(seq),
            digest: Digest([7; 32]),
            batch: b,
        },
        r(0),
        SignatureBytes(vec![9; 32]),
    )
}

/// A 4-node cluster over one backend: per-node handles plus registered
/// replica endpoints.
struct Cluster {
    name: &'static str,
    nets: Vec<NetHandle>,
    eps: Vec<Endpoint>,
}

impl Cluster {
    fn memory() -> Cluster {
        let net = Network::new(NetworkConfig::default()).handle();
        let eps = (0..PEERS as u32).map(|i| net.register(r(i))).collect();
        Cluster {
            name: "in_memory",
            nets: vec![net],
            eps,
        }
    }

    fn tcp() -> Cluster {
        let (peers, listeners) =
            TcpTransport::bind_loopback_cluster(PEERS).expect("bind loopback cluster");
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
            name: "tcp_loopback",
            nets,
            eps,
        }
    }

    fn shutdown(self) {
        for net in &self.nets {
            net.shutdown();
        }
    }
}

/// Broadcast `count` PrePrepares to every peer and wait until each peer
/// has drained all of them. Returns elapsed wall time.
fn run_broadcast(cluster: &mut Cluster, count: u32) -> Duration {
    let all: Vec<Sender> = (0..PEERS as u32).map(r).collect();
    let receivers: Vec<_> = cluster.eps.drain(1..).collect();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<Endpoint>();
    let mut drains = Vec::new();
    for ep in receivers {
        let done_tx = done_tx.clone();
        drains.push(std::thread::spawn(move || {
            let mut got = 0u32;
            while got < count {
                if ep.recv_timeout(Duration::from_secs(30)).is_ok() {
                    got += 1;
                } else {
                    break;
                }
            }
            let _ = done_tx.send(ep);
            got
        }));
    }
    let body = batch(BROADCAST_TXNS);
    let start = Instant::now();
    for i in 0..count {
        let sm = pre_prepare(u64::from(i), Arc::clone(&body));
        cluster.eps[0].broadcast(&all, &sm).expect("broadcast");
    }
    for d in drains {
        let received = d.join().expect("drain thread");
        assert_eq!(received, count, "receiver lost broadcast messages");
    }
    let elapsed = start.elapsed();
    // Re-adopt the endpoints (the drain threads hand them back in
    // completion order) and restore id order for the next measurement.
    for _ in 0..PEERS - 1 {
        cluster.eps.push(done_rx.recv().expect("endpoint returned"));
    }
    cluster.eps.sort_by_key(|ep| match ep.addr() {
        Sender::Replica(id) => id.0,
        Sender::Client(_) => u32::MAX,
    });
    elapsed
}

/// Sequential ping/pong: returns sorted per-round-trip times.
fn run_rtt(cluster: &mut Cluster, count: u32) -> Vec<Duration> {
    let echo_ep = cluster.eps.remove(1);
    let echo = std::thread::spawn(move || {
        let mut answered = 0u32;
        while answered < count {
            let Ok(sm) = echo_ep.recv_timeout(Duration::from_secs(30)) else {
                break;
            };
            let pong = SignedMessage::new(
                Message::Commit {
                    view: ViewNum(0),
                    seq: sm.msg().seq().unwrap_or(SeqNum(0)),
                    digest: Digest([1; 32]),
                },
                r(1),
                SignatureBytes(vec![2; 32]),
            );
            echo_ep.send(r(0), pong).expect("pong");
            answered += 1;
        }
        echo_ep
    });
    let body = batch(PING_TXNS);
    let mut samples = Vec::with_capacity(count as usize);
    for i in 0..count {
        let start = Instant::now();
        cluster.eps[0]
            .send(r(1), pre_prepare(u64::from(i), Arc::clone(&body)))
            .expect("ping");
        cluster.eps[0]
            .recv_timeout(Duration::from_secs(30))
            .expect("pong lost");
        samples.push(start.elapsed());
    }
    cluster.eps.insert(1, echo.join().expect("echo thread"));
    samples.sort();
    samples
}

fn percentile(sorted: &[Duration], pct: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * pct / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Records one backend's broadcast and RTT rows; returns its ns per
/// broadcast, the numerator or denominator of the headline ratio.
fn run_backend(cluster: &mut Cluster, iters: u32, report: &mut Report) -> f64 {
    let name = cluster.name;
    // Warm-up: establish TCP connections and fault-free fast paths so the
    // measurement starts from a steady state on both backends.
    let _ = run_broadcast(cluster, 8.min(iters));

    let wire_bytes = pre_prepare(0, batch(BROADCAST_TXNS)).encoded_len() as f64;
    let elapsed = run_broadcast(cluster, iters);
    let ns_per = elapsed.as_nanos() as f64 / f64::from(iters);
    report.record(format!("broadcast/{name}/ns_per_broadcast"), ns_per);
    let mb_per_s = (wire_bytes * (PEERS - 1) as f64 * f64::from(iters))
        / elapsed.as_secs_f64()
        / (1024.0 * 1024.0);
    report.record(format!("broadcast/{name}/wire_mb_per_s"), mb_per_s);
    report.record(format!("broadcast/{name}/broadcasts_per_s"), 1e9 / ns_per);

    let rtts = run_rtt(cluster, iters);
    report.record(
        format!("rtt/{name}/p50_us"),
        percentile(&rtts, 50.0).as_nanos() as f64 / 1_000.0,
    );
    report.record(
        format!("rtt/{name}/p99_us"),
        percentile(&rtts, 99.0).as_nanos() as f64 / 1_000.0,
    );
    ns_per
}

fn main() {
    let Some(mut report) = Report::start(
        "net_path",
        "BENCH_net.json",
        "per-name suffix: ns_per_broadcast | wire_mb_per_s | broadcasts_per_s | p50_us | p99_us | ratio",
        Length::Iters(500),
    ) else {
        return;
    };
    report.param("peers", PEERS);
    report.param("broadcast_txns", BROADCAST_TXNS);
    report.param("ping_txns", PING_TXNS);
    let iters = report.iters();
    let mut mem = Cluster::memory();
    let mem_ns = run_backend(&mut mem, iters, &mut report);
    mem.shutdown();
    let mut tcp = Cluster::tcp();
    let tcp_ns = run_backend(&mut tcp, iters, &mut report);
    tcp.shutdown();
    // The headline ratio: what the real socket costs over the switchboard.
    report.record("broadcast/tcp_over_memory_ratio", tcp_ns / mem_ns);
    report.write();
}
