//! Thread budget of the TCP transport: one event-loop thread per
//! transport, owning its listener, connections and dials, and none left
//! after shutdown.
//!
//! A test binary of its own, so no other test's transports are counted,
//! and Linux-only: it reads thread names from `/proc/self/task/*/comm`.
#![cfg(target_os = "linux")]

use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{ReplicaId, SignatureBytes};
use rdb_net::{TcpConfig, TcpTransport};
use std::time::{Duration, Instant};

/// Names of this process's threads that start with `tcp-`.
fn tcp_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|name| name.starts_with("tcp-"))
        .collect();
    names.sort();
    names
}

#[test]
fn one_event_loop_thread_per_transport_and_none_after_shutdown() {
    let r = |i| Sender::Replica(ReplicaId(i));
    let (peers, mut listeners) = TcpTransport::bind_loopback_cluster(2).unwrap();
    let t1 = TcpTransport::with_listener(
        TcpConfig::for_replica(ReplicaId(1), peers.clone()),
        Some(listeners.remove(1)),
    );
    let t0 = TcpTransport::with_listener(
        TcpConfig::for_replica(ReplicaId(0), peers),
        Some(listeners.remove(0)),
    );
    let a = t0.register(r(0));
    let b = t1.register(r(1));
    // r0 dials r1 and the message crosses the socket: every role a
    // transport has — listen, dial, read, write — is running.
    let msg = SignedMessage::new(
        Message::ClientRequest { txns: vec![] },
        r(0),
        SignatureBytes(vec![3; 8]),
    );
    a.send(r(1), msg).unwrap();
    assert_eq!(
        b.recv_timeout(Duration::from_secs(5)).unwrap().sender(),
        r(0)
    );

    assert_eq!(tcp_threads(), ["tcp-loop-0", "tcp-loop-0"]);
    t0.shutdown();
    t1.shutdown();
    // A joined thread's task entry can outlive the join by a moment.
    let deadline = Instant::now() + Duration::from_secs(2);
    while !tcp_threads().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(tcp_threads(), Vec::<String>::new());
}
