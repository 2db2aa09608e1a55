//! Length-prefixed framing for the TCP transport.
//!
//! Every frame is `u32 len (LE)` followed by `len` body bytes:
//!
//! ```text
//! body := 0x01 ‖ Sender                      HELLO — announces a local
//!                                            endpoint of the writing node
//!       | 0x02 ‖ Sender(to) ‖ SignedMessage  MSG — one envelope for `to`
//! ```
//!
//! The `SignedMessage` bytes are the exact canonical [`Wire`] encoding, so
//! a broadcast serializes the envelope **once** and every peer's writer
//! reuses the same shared buffer; only the tiny per-destination header
//! differs. On the receive side [`SignedMessage::decode`] seeds the
//! envelope's memo from the socket buffer, so verification after a decode
//! costs zero re-serializations — the zero-copy path survives the wire.
//!
//! [`FrameAccumulator`] is a resumable state machine: a read that would
//! block (or times out) in the middle of a frame must not lose
//! synchronization.

use rdb_common::codec::{Wire, WireReader, WireWriter};
use rdb_common::messages::{Sender, SignedMessage};
use std::io::{self, Read};

/// Upper bound on a frame body, guarding the reader against corrupt or
/// hostile length prefixes. Generous enough for a multi-megabyte batch.
pub const MAX_FRAME: usize = 64 << 20;

const TAG_HELLO: u8 = 0x01;
const TAG_MSG: u8 = 0x02;

/// A decoded inbound frame.
#[derive(Debug)]
pub enum Frame {
    /// The writing node hosts endpoint `from`; replies to it can use this
    /// connection.
    Hello(Sender),
    /// An envelope addressed to local endpoint `to`.
    Msg { to: Sender, msg: SignedMessage },
}

/// Encodes a HELLO body (no length prefix; the writer adds it).
pub fn hello_body(from: Sender) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(1 + from.encoded_len());
    w.put_u8(TAG_HELLO);
    from.write(&mut w);
    w.into_bytes()
}

/// Encodes the per-destination MSG header (tag + destination). The message
/// payload itself is written separately so broadcasts can share one
/// serialization across all destinations.
pub fn msg_header(to: Sender) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(1 + to.encoded_len());
    w.put_u8(TAG_MSG);
    to.write(&mut w);
    w.into_bytes()
}

/// Parses a complete frame body.
///
/// # Errors
/// Returns an [`io::Error`] of kind `InvalidData` on unknown tags or a
/// malformed payload.
pub fn parse_frame(body: &[u8]) -> io::Result<Frame> {
    let bad = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let mut r = WireReader::new(body);
    match r.get_u8().map_err(|e| bad(e.to_string()))? {
        TAG_HELLO => {
            let from = Sender::read(&mut r).map_err(|e| bad(e.to_string()))?;
            r.finish().map_err(|e| bad(e.to_string()))?;
            Ok(Frame::Hello(from))
        }
        TAG_MSG => {
            let to = Sender::read(&mut r).map_err(|e| bad(e.to_string()))?;
            // `SignedMessage::read` seeds the canonical-bytes memo from
            // this buffer — the receiver never re-serializes to verify.
            let msg = SignedMessage::read(&mut r).map_err(|e| bad(e.to_string()))?;
            r.finish().map_err(|e| bad(e.to_string()))?;
            Ok(Frame::Msg { to, msg })
        }
        t => Err(bad(format!("unknown frame tag {t:#x}"))),
    }
}

/// Resumable frame parser with no stream of its own: the caller supplies
/// the `Read` on every poll — the reactor's nonblocking connections own
/// their socket and lend it per readiness event, and a blocking socket
/// with a read timeout works the same way.
///
/// `poll` returns `Ok(Some(body))` when a full frame has arrived,
/// `Ok(None)` when the read would block (or timed out) mid-frame, and
/// `Err` on EOF or a transport error. Partial header or body bytes are
/// kept across polls, so frame synchronization survives arbitrarily slow
/// senders.
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    header: [u8; 4],
    filled: usize,
    body: Vec<u8>,
    in_body: bool,
}

impl FrameAccumulator {
    /// An accumulator positioned at a frame boundary.
    pub fn new() -> Self {
        FrameAccumulator::default()
    }

    /// Advances the frame state machine; see the type docs for the return
    /// contract.
    ///
    /// # Errors
    /// Returns an [`io::Error`] on EOF (`UnexpectedEof`), oversized or
    /// zero-length frames (`InvalidData`), or any socket error.
    pub fn poll(&mut self, stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        loop {
            if !self.in_body {
                match stream.read(&mut self.header[self.filled..]) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => self.filled += n,
                    Err(e) if would_block(&e) => return Ok(None),
                    Err(e) => return Err(e),
                }
                if self.filled < 4 {
                    continue;
                }
                let len = u32::from_le_bytes(self.header) as usize;
                if len == 0 || len > MAX_FRAME {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} out of range"),
                    ));
                }
                self.body = vec![0; len];
                self.filled = 0;
                self.in_body = true;
            }
            match stream.read(&mut self.body[self.filled..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.filled += n,
                Err(e) if would_block(&e) => return Ok(None),
                Err(e) => return Err(e),
            }
            if self.filled == self.body.len() {
                self.in_body = false;
                self.filled = 0;
                return Ok(Some(std::mem::take(&mut self.body)));
            }
        }
    }
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::messages::Message;
    use rdb_common::{ClientId, ReplicaId, SignatureBytes};
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        (tx, rx)
    }

    fn frame_bytes(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn hello_round_trips() {
        let (mut tx, mut rx) = loopback_pair();
        let from = Sender::Client(ClientId(42));
        tx.write_all(&frame_bytes(&hello_body(from))).unwrap();
        let mut acc = FrameAccumulator::new();
        let body = loop {
            if let Some(b) = acc.poll(&mut rx).unwrap() {
                break b;
            }
        };
        match parse_frame(&body).unwrap() {
            Frame::Hello(s) => assert_eq!(s, from),
            other => panic!("expected hello, got {other:?}"),
        }
    }

    #[test]
    fn msg_round_trips_and_seeds_memo() {
        let (mut tx, mut rx) = loopback_pair();
        let sm = SignedMessage::new(
            Message::ClientRequest { txns: vec![] },
            Sender::Replica(ReplicaId(1)),
            SignatureBytes(vec![9; 16]),
        );
        let to = Sender::Replica(ReplicaId(2));
        let mut body = msg_header(to);
        body.extend_from_slice(&sm.encode());
        tx.write_all(&frame_bytes(&body)).unwrap();
        let mut acc = FrameAccumulator::new();
        let got = loop {
            if let Some(b) = acc.poll(&mut rx).unwrap() {
                break b;
            }
        };
        match parse_frame(&got).unwrap() {
            Frame::Msg { to: t, msg } => {
                assert_eq!(t, to);
                assert_eq!(msg, sm);
                assert_eq!(msg.signing_bytes(), sm.signing_bytes());
            }
            other => panic!("expected msg, got {other:?}"),
        }
    }

    #[test]
    fn partial_frames_survive_timeouts() {
        let (mut tx, mut rx) = loopback_pair();
        let body = hello_body(Sender::Replica(ReplicaId(7)));
        let bytes = frame_bytes(&body);
        let mut acc = FrameAccumulator::new();
        // Dribble the frame one byte at a time, polling after every byte:
        // the reader times out between bytes (returning None) but must not
        // lose its place mid-header or mid-body.
        let mut out = None;
        for b in &bytes {
            tx.write_all(std::slice::from_ref(b)).unwrap();
            tx.flush().unwrap();
            if let Some(f) = acc.poll(&mut rx).unwrap() {
                out = Some(f);
            }
        }
        // The last poll may race the final byte's arrival; drain to finish.
        while out.is_none() {
            out = acc.poll(&mut rx).unwrap();
        }
        match parse_frame(&out.unwrap()).unwrap() {
            Frame::Hello(s) => assert_eq!(s, Sender::Replica(ReplicaId(7))),
            other => panic!("expected hello, got {other:?}"),
        }
    }

    #[test]
    fn oversized_and_zero_frames_rejected() {
        for len in [0, MAX_FRAME as u32 + 1] {
            let (mut tx, mut rx) = loopback_pair();
            tx.write_all(&len.to_le_bytes()).unwrap();
            let mut acc = FrameAccumulator::new();
            let err = loop {
                match acc.poll(&mut rx) {
                    Ok(None) => continue,
                    Ok(Some(_)) => panic!("frame of length {len} accepted"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn eof_is_an_error() {
        let (tx, mut rx) = loopback_pair();
        drop(tx);
        let mut acc = FrameAccumulator::new();
        let err = loop {
            match acc.poll(&mut rx) {
                Ok(None) => continue,
                Ok(Some(_)) => panic!("frame from nowhere"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(parse_frame(&[0x77, 0, 0]).is_err());
    }
}
