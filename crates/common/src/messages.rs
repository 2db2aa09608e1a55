//! Protocol messages exchanged between clients and replicas.
//!
//! One enum covers both protocols: PBFT uses `PrePrepare`/`Prepare`/`Commit`,
//! Zyzzyva reuses `PrePrepare` as its order-request and adds `SpecResponse`,
//! `CommitCert` and `LocalCommit`. Checkpoints and the view-change skeleton
//! are shared.

use crate::block::BlockCertificate;
use crate::codec::{read_vec, write_vec, Sink, Wire, WireReader, WireWriter};
use crate::error::{CommonError, Result};
use crate::ids::{ClientId, Digest, ReplicaId, SeqNum, SignatureBytes, ViewNum};
use crate::transaction::{Batch, Transaction};
use std::sync::{Arc, OnceLock};

/// The batch tail a `ViewChange` vote carries: each in-flight sequence
/// above the stable checkpoint with its digest and payload, so the
/// incoming primary can re-issue sequences it never saw proposed.
pub type BatchTail = Vec<(SeqNum, Digest, Arc<Batch>)>;

/// What a reply envelope carries for one client: `(transaction counter,
/// opaque execution result)` per answered transaction, in batch order.
///
/// Flat: every result's bytes back to back in one buffer, and one
/// `(counter, end)` entry per result, so a reply is two heap objects
/// however many transactions it answers — from the executor that fills
/// it, through the wire, to the client that tallies it. On the wire it is
/// the `u32`-counted list of `(u64 counter, u32-length-prefixed result)`
/// pairs, byte for byte what [`write_vec`] writes for `(u64, Vec<u8>)`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ReplyResults {
    /// Per result: its counter and where its bytes end in `bytes`.
    entries: Vec<(u64, usize)>,
    bytes: Vec<u8>,
}

impl ReplyResults {
    /// Room for `results` results of `bytes` bytes in all, allocated now
    /// (nothing for zero).
    pub fn with_capacity(results: usize, bytes: usize) -> Self {
        ReplyResults {
            entries: Vec::with_capacity(results),
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// Appends `counter`'s result.
    pub fn push(&mut self, counter: u64, result: &[u8]) {
        self.bytes.extend_from_slice(result);
        self.entries.push((counter, self.bytes.len()));
    }

    /// Each `(counter, result)`, in the order pushed.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, &[u8])> + Clone + '_ {
        let mut start = 0;
        self.entries.iter().map(move |&(counter, end)| {
            let result = &self.bytes[start..end];
            start = end;
            (counter, result)
        })
    }
}

impl<B: AsRef<[u8]>> FromIterator<(u64, B)> for ReplyResults {
    fn from_iter<I: IntoIterator<Item = (u64, B)>>(results: I) -> Self {
        let mut out = ReplyResults::default();
        for (counter, result) in results {
            out.push(counter, result.as_ref());
        }
        out
    }
}

impl std::fmt::Debug for ReplyResults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Wire for ReplyResults {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_u32(self.entries.len() as u32);
        for (counter, result) in self.iter() {
            w.put_u64(counter);
            w.put_var_bytes(result);
        }
    }

    /// One pass checks every entry and totals the result bytes, a second
    /// copies them: each buffer is allocated once, at its exact size.
    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        let n = r.get_count()?;
        let start = r.offset();
        let mut total = 0;
        for _ in 0..n {
            r.get_u64()?;
            total += r.get_var_bytes()?.len();
        }
        let mut checked = WireReader::new(r.window(start, r.offset()));
        let mut out = ReplyResults::with_capacity(n, total);
        for _ in 0..n {
            let counter = checked.get_u64()?;
            out.push(counter, checked.get_var_bytes()?);
        }
        Ok(out)
    }
}

/// Originator of a message: a replica or a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sender {
    /// Message sent by a replica.
    Replica(ReplicaId),
    /// Message sent by a client.
    Client(ClientId),
}

impl Sender {
    /// The replica id, if this sender is a replica.
    pub fn replica(&self) -> Option<ReplicaId> {
        match self {
            Sender::Replica(r) => Some(*r),
            Sender::Client(_) => None,
        }
    }

    /// The client id, if this sender is a client.
    pub fn client(&self) -> Option<ClientId> {
        match self {
            Sender::Client(c) => Some(*c),
            Sender::Replica(_) => None,
        }
    }
}

impl Wire for Sender {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        match self {
            Sender::Replica(r) => {
                w.put_u8(0);
                w.put_u32(r.0);
            }
            Sender::Client(c) => {
                w.put_u8(1);
                w.put_u64(c.0);
            }
        }
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(Sender::Replica(ReplicaId(r.get_u32()?))),
            1 => Ok(Sender::Client(ClientId(r.get_u64()?))),
            t => Err(CommonError::Codec(format!("invalid sender tag {t}"))),
        }
    }
}

/// Discriminant for [`Message`], used for dispatch tables and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Client request (possibly a client-side batch of transactions).
    ClientRequest,
    /// Primary's batch proposal (PBFT pre-prepare / Zyzzyva order-request).
    PrePrepare,
    /// Backup's agreement with a proposal.
    Prepare,
    /// Replica's commit vote.
    Commit,
    /// Execution result returned to a client (PBFT path).
    ClientReply,
    /// Speculative execution result returned to a client (Zyzzyva path).
    SpecResponse,
    /// Client-assembled commit certificate (Zyzzyva slow path).
    CommitCert,
    /// Replica acknowledgement of a commit certificate.
    LocalCommit,
    /// Periodic state checkpoint.
    Checkpoint,
    /// View-change request.
    ViewChange,
    /// New-view installation by the incoming primary.
    NewView,
    /// Request to re-fetch committed batches for missing sequences.
    FetchRequest,
    /// A committed batch plus its commit certificate, answering a fetch.
    FetchResponse,
    /// A checkpoint snapshot (store records + chain block), answering a
    /// fetch for sequences already garbage-collected at the server.
    SnapshotResponse,
}

impl MessageKind {
    /// Number of message kinds (the length of [`MessageKind::ALL`]).
    pub const COUNT: usize = 14;

    /// Dense index of this kind into [`MessageKind::ALL`], for atomic
    /// per-kind counter tables that avoid hashing.
    pub const fn index(self) -> usize {
        match self {
            MessageKind::ClientRequest => 0,
            MessageKind::PrePrepare => 1,
            MessageKind::Prepare => 2,
            MessageKind::Commit => 3,
            MessageKind::ClientReply => 4,
            MessageKind::SpecResponse => 5,
            MessageKind::CommitCert => 6,
            MessageKind::LocalCommit => 7,
            MessageKind::Checkpoint => 8,
            MessageKind::ViewChange => 9,
            MessageKind::NewView => 10,
            MessageKind::FetchRequest => 11,
            MessageKind::FetchResponse => 12,
            MessageKind::SnapshotResponse => 13,
        }
    }

    /// All kinds, for iteration in statistics tables.
    pub const ALL: [MessageKind; Self::COUNT] = [
        MessageKind::ClientRequest,
        MessageKind::PrePrepare,
        MessageKind::Prepare,
        MessageKind::Commit,
        MessageKind::ClientReply,
        MessageKind::SpecResponse,
        MessageKind::CommitCert,
        MessageKind::LocalCommit,
        MessageKind::Checkpoint,
        MessageKind::ViewChange,
        MessageKind::NewView,
        MessageKind::FetchRequest,
        MessageKind::FetchResponse,
        MessageKind::SnapshotResponse,
    ];
}

/// A protocol message body (unsigned).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → primary: one or more transactions to order.
    ClientRequest {
        /// The transactions; clients may batch several per request.
        txns: Vec<Transaction>,
    },
    /// Primary → backups: proposed batch at `(view, seq)`. Acts as PBFT's
    /// pre-prepare and as Zyzzyva's order-request.
    PrePrepare {
        /// Current view.
        view: ViewNum,
        /// Sequence number assigned by the primary.
        seq: SeqNum,
        /// Digest over the batch's canonical bytes, computed once by the
        /// batch-thread and threaded through every later stage.
        digest: Digest,
        /// The batch itself (full payload travels with the proposal).
        /// Shared: the proposing engine, the in-flight message, and the
        /// execution queue all hold the same allocation, so cloning a
        /// `PrePrepare` never deep-copies the transactions.
        batch: Arc<Batch>,
    },
    /// Backup → all replicas: agreement to order `digest` at `(view, seq)`.
    Prepare {
        /// Current view.
        view: ViewNum,
        /// Sequence under agreement.
        seq: SeqNum,
        /// Batch digest from the pre-prepare.
        digest: Digest,
    },
    /// Replica → all replicas: commit vote for `(view, seq, digest)`.
    Commit {
        /// Current view.
        view: ViewNum,
        /// Sequence under commitment.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
    },
    /// Replica → client: the results of every transaction of this client
    /// that one batch executed — one envelope (and one signature) per
    /// client per batch, however many transactions it answers.
    ClientReply {
        /// View in which the batch committed.
        view: ViewNum,
        /// Client whose transactions these are.
        client: ClientId,
        /// Replica that executed the batch.
        replica: ReplicaId,
        /// `(transaction counter, opaque execution result)` in batch order.
        results: ReplyResults,
    },
    /// Replica → client (Zyzzyva): speculative execution results with the
    /// replica's history digest, before any commit guarantee exists.
    /// Coalesced per client per batch like [`Message::ClientReply`].
    SpecResponse {
        /// Current view.
        view: ViewNum,
        /// Sequence the primary proposed.
        seq: SeqNum,
        /// Batch digest.
        digest: Digest,
        /// Rolling digest of the replica's executed history.
        history: Digest,
        /// Client whose transactions these are.
        client: ClientId,
        /// Replica that executed speculatively.
        replica: ReplicaId,
        /// `(transaction counter, opaque execution result)` in batch order.
        results: ReplyResults,
    },
    /// Client → replicas (Zyzzyva slow path): proof that 2f+1 replicas
    /// returned matching speculative responses.
    CommitCert {
        /// View of the speculative responses.
        view: ViewNum,
        /// Sequence being certified.
        seq: SeqNum,
        /// Batch digest being certified.
        digest: Digest,
        /// The 2f+1 matching speculative-response signatures.
        cert: BlockCertificate,
        /// Client that assembled the certificate.
        client: ClientId,
    },
    /// Replica → client (Zyzzyva): acknowledgement that the commit
    /// certificate was accepted and the request is durably ordered.
    LocalCommit {
        /// View of the certificate.
        view: ViewNum,
        /// Certified sequence.
        seq: SeqNum,
        /// Acknowledging replica.
        replica: ReplicaId,
    },
    /// Replica → all replicas: state checkpoint after Δ executions.
    Checkpoint {
        /// Highest sequence covered by this checkpoint.
        seq: SeqNum,
        /// Digest of the replica state (chain + store) at `seq`.
        state_digest: Digest,
        /// Replica taking the checkpoint.
        replica: ReplicaId,
    },
    /// Replica → all replicas: request to move to a new view after a
    /// suspected primary failure.
    ViewChange {
        /// Proposed new view.
        new_view: ViewNum,
        /// Last stable checkpoint sequence at the sender.
        last_stable: SeqNum,
        /// Sequences prepared above the stable checkpoint: `(seq, digest)`.
        prepared: Vec<(SeqNum, Digest)>,
        /// The batches behind `prepared` (PBFT) or the spec-executed tail
        /// above the stable checkpoint (Zyzzyva): `(seq, digest, batch)`.
        /// Travels with the vote so the incoming primary can re-issue an
        /// in-flight sequence even if it never saw the original proposal.
        tail: Vec<(SeqNum, Digest, Arc<Batch>)>,
        /// Requesting replica.
        replica: ReplicaId,
        /// Consensus instance whose primary is being changed (multi-primary
        /// ordering; `0` for single-primary deployments).
        instance: u32,
    },
    /// Incoming primary → all replicas: installs the new view.
    NewView {
        /// The view being installed.
        new_view: ViewNum,
        /// Pre-prepares re-issued for in-flight sequences: `(seq, digest)`.
        reissued: Vec<(SeqNum, Digest)>,
        /// Consensus instance the view applies to (multi-primary ordering;
        /// `0` for single-primary deployments).
        instance: u32,
    },
    /// Replica → replica: a replica with execution holes below the commit
    /// frontier asks a peer for the committed batches it is missing.
    FetchRequest {
        /// The missing sequences (bounded by the requester).
        seqs: Vec<SeqNum>,
        /// Requesting replica (responses are addressed back to it).
        replica: ReplicaId,
    },
    /// Replica → replica: a committed batch plus the 2f+1 commit
    /// certificate proving its order, filling one requested hole. The
    /// requester re-verifies the certificate before installing; under
    /// Zyzzyva the certificate is empty and f+1 matching responses from
    /// distinct peers stand in for it.
    FetchResponse {
        /// The sequence being filled.
        seq: SeqNum,
        /// View in which the batch committed (the view its commit votes
        /// were signed over).
        view: ViewNum,
        /// Batch digest.
        digest: Digest,
        /// The transactions, shared with the server's retained copy.
        batch: Arc<Batch>,
        /// The 2f+1 commit signatures (empty under Zyzzyva speculation).
        certificate: BlockCertificate,
        /// Responding replica.
        replica: ReplicaId,
    },
    /// Replica → replica: answers a fetch whose sequences fell at or below
    /// the server's pruning horizon — the full state at the last stable
    /// checkpoint, so the requester can skip re-executing history.
    SnapshotResponse {
        /// The serialized checkpoint state.
        snapshot: Arc<crate::snapshot::Snapshot>,
        /// Responding replica.
        replica: ReplicaId,
    },
}

impl Message {
    /// The discriminant of this message.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::ClientRequest { .. } => MessageKind::ClientRequest,
            Message::PrePrepare { .. } => MessageKind::PrePrepare,
            Message::Prepare { .. } => MessageKind::Prepare,
            Message::Commit { .. } => MessageKind::Commit,
            Message::ClientReply { .. } => MessageKind::ClientReply,
            Message::SpecResponse { .. } => MessageKind::SpecResponse,
            Message::CommitCert { .. } => MessageKind::CommitCert,
            Message::LocalCommit { .. } => MessageKind::LocalCommit,
            Message::Checkpoint { .. } => MessageKind::Checkpoint,
            Message::ViewChange { .. } => MessageKind::ViewChange,
            Message::NewView { .. } => MessageKind::NewView,
            Message::FetchRequest { .. } => MessageKind::FetchRequest,
            Message::FetchResponse { .. } => MessageKind::FetchResponse,
            Message::SnapshotResponse { .. } => MessageKind::SnapshotResponse,
        }
    }

    /// The consensus sequence number this message refers to, if any.
    /// Fetch-protocol messages deliberately return `None`: they are a
    /// runtime-level recovery protocol handled before engine routing.
    pub fn seq(&self) -> Option<SeqNum> {
        match self {
            Message::PrePrepare { seq, .. }
            | Message::Prepare { seq, .. }
            | Message::Commit { seq, .. }
            | Message::SpecResponse { seq, .. }
            | Message::CommitCert { seq, .. }
            | Message::LocalCommit { seq, .. }
            | Message::Checkpoint { seq, .. } => Some(*seq),
            _ => None,
        }
    }
}

impl Wire for Message {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        match self {
            Message::ClientRequest { txns } => {
                w.put_u8(0);
                write_vec(w, txns);
            }
            Message::PrePrepare {
                view,
                seq,
                digest,
                batch,
            } => {
                w.put_u8(1);
                w.put_u64(view.0);
                w.put_u64(seq.0);
                w.put_bytes(digest.as_bytes());
                batch.write(w);
            }
            Message::Prepare { view, seq, digest } => {
                w.put_u8(2);
                w.put_u64(view.0);
                w.put_u64(seq.0);
                w.put_bytes(digest.as_bytes());
            }
            Message::Commit { view, seq, digest } => {
                w.put_u8(3);
                w.put_u64(view.0);
                w.put_u64(seq.0);
                w.put_bytes(digest.as_bytes());
            }
            Message::ClientReply {
                view,
                client,
                replica,
                results,
            } => {
                w.put_u8(4);
                w.put_u64(view.0);
                w.put_u64(client.0);
                w.put_u32(replica.0);
                results.write(w);
            }
            Message::SpecResponse {
                view,
                seq,
                digest,
                history,
                client,
                replica,
                results,
            } => {
                w.put_u8(5);
                w.put_u64(view.0);
                w.put_u64(seq.0);
                w.put_bytes(digest.as_bytes());
                w.put_bytes(history.as_bytes());
                w.put_u64(client.0);
                w.put_u32(replica.0);
                results.write(w);
            }
            Message::CommitCert {
                view,
                seq,
                digest,
                cert,
                client,
            } => {
                w.put_u8(6);
                w.put_u64(view.0);
                w.put_u64(seq.0);
                w.put_bytes(digest.as_bytes());
                cert.write(w);
                w.put_u64(client.0);
            }
            Message::LocalCommit { view, seq, replica } => {
                w.put_u8(7);
                w.put_u64(view.0);
                w.put_u64(seq.0);
                w.put_u32(replica.0);
            }
            Message::Checkpoint {
                seq,
                state_digest,
                replica,
            } => {
                w.put_u8(8);
                w.put_u64(seq.0);
                w.put_bytes(state_digest.as_bytes());
                w.put_u32(replica.0);
            }
            Message::ViewChange {
                new_view,
                last_stable,
                prepared,
                tail,
                replica,
                instance,
            } => {
                w.put_u8(9);
                w.put_u64(new_view.0);
                w.put_u64(last_stable.0);
                write_vec(w, prepared);
                write_vec(w, tail);
                w.put_u32(replica.0);
                w.put_u32(*instance);
            }
            Message::NewView {
                new_view,
                reissued,
                instance,
            } => {
                w.put_u8(10);
                w.put_u64(new_view.0);
                write_vec(w, reissued);
                w.put_u32(*instance);
            }
            Message::FetchRequest { seqs, replica } => {
                w.put_u8(11);
                write_vec(w, seqs);
                w.put_u32(replica.0);
            }
            Message::FetchResponse {
                seq,
                view,
                digest,
                batch,
                certificate,
                replica,
            } => {
                w.put_u8(12);
                w.put_u64(seq.0);
                w.put_u64(view.0);
                w.put_bytes(digest.as_bytes());
                batch.write(w);
                certificate.write(w);
                w.put_u32(replica.0);
            }
            Message::SnapshotResponse { snapshot, replica } => {
                w.put_u8(13);
                snapshot.write(w);
                w.put_u32(replica.0);
            }
        }
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(Message::ClientRequest { txns: read_vec(r)? }),
            1 => Ok(Message::PrePrepare {
                view: ViewNum(r.get_u64()?),
                seq: SeqNum(r.get_u64()?),
                digest: Digest(r.get_array32()?),
                batch: Arc::new(Batch::read(r)?),
            }),
            2 => Ok(Message::Prepare {
                view: ViewNum(r.get_u64()?),
                seq: SeqNum(r.get_u64()?),
                digest: Digest(r.get_array32()?),
            }),
            3 => Ok(Message::Commit {
                view: ViewNum(r.get_u64()?),
                seq: SeqNum(r.get_u64()?),
                digest: Digest(r.get_array32()?),
            }),
            4 => Ok(Message::ClientReply {
                view: ViewNum(r.get_u64()?),
                client: ClientId(r.get_u64()?),
                replica: ReplicaId(r.get_u32()?),
                results: ReplyResults::read(r)?,
            }),
            5 => Ok(Message::SpecResponse {
                view: ViewNum(r.get_u64()?),
                seq: SeqNum(r.get_u64()?),
                digest: Digest(r.get_array32()?),
                history: Digest(r.get_array32()?),
                client: ClientId(r.get_u64()?),
                replica: ReplicaId(r.get_u32()?),
                results: ReplyResults::read(r)?,
            }),
            6 => Ok(Message::CommitCert {
                view: ViewNum(r.get_u64()?),
                seq: SeqNum(r.get_u64()?),
                digest: Digest(r.get_array32()?),
                cert: BlockCertificate::read(r)?,
                client: ClientId(r.get_u64()?),
            }),
            7 => Ok(Message::LocalCommit {
                view: ViewNum(r.get_u64()?),
                seq: SeqNum(r.get_u64()?),
                replica: ReplicaId(r.get_u32()?),
            }),
            8 => Ok(Message::Checkpoint {
                seq: SeqNum(r.get_u64()?),
                state_digest: Digest(r.get_array32()?),
                replica: ReplicaId(r.get_u32()?),
            }),
            9 => Ok(Message::ViewChange {
                new_view: ViewNum(r.get_u64()?),
                last_stable: SeqNum(r.get_u64()?),
                prepared: read_vec(r)?,
                tail: read_vec(r)?,
                replica: ReplicaId(r.get_u32()?),
                instance: r.get_u32()?,
            }),
            10 => Ok(Message::NewView {
                new_view: ViewNum(r.get_u64()?),
                reissued: read_vec(r)?,
                instance: r.get_u32()?,
            }),
            11 => Ok(Message::FetchRequest {
                seqs: read_vec(r)?,
                replica: ReplicaId(r.get_u32()?),
            }),
            12 => Ok(Message::FetchResponse {
                seq: SeqNum(r.get_u64()?),
                view: ViewNum(r.get_u64()?),
                digest: Digest(r.get_array32()?),
                batch: Arc::new(Batch::read(r)?),
                certificate: BlockCertificate::read(r)?,
                replica: ReplicaId(r.get_u32()?),
            }),
            13 => Ok(Message::SnapshotResponse {
                snapshot: Arc::new(crate::snapshot::Snapshot::read(r)?),
                replica: ReplicaId(r.get_u32()?),
            }),
            t => Err(CommonError::Codec(format!("invalid message tag {t}"))),
        }
    }
}

/// Shared memoization slots of a [`SignedMessage`]: every clone of an
/// envelope points at the same cache, so whatever one handle computes —
/// canonical signing bytes, digest — is free for all the others
/// (including the copies a broadcast fans out to n peers).
#[derive(Debug, Default)]
struct EnvelopeCache {
    /// Canonical `sender ‖ body` encoding: the bytes that are signed,
    /// verified, and (plus the signature) sent on the wire.
    signing: OnceLock<Vec<u8>>,
    /// Digest over the signing bytes (hasher supplied by the caller, since
    /// `rdb_common` has no crypto dependency).
    digest: OnceLock<Digest>,
}

/// A message plus its authentication: who sent it and the signature/MAC over
/// the body's canonical encoding.
///
/// This is an **encode-once envelope**: the body lives behind an `Arc`, the
/// canonical encoding is memoized in a cache shared by all clones, and
/// `clone()` is a couple of reference-count bumps plus a small signature
/// copy. Broadcasting to *n* peers therefore performs **one** serialization
/// and **one** batch allocation instead of *n* of each, and every receiver
/// verifies against the already-encoded bytes.
#[derive(Debug, Clone)]
pub struct SignedMessage {
    body: Arc<Message>,
    from: Sender,
    sig: SignatureBytes,
    cache: Arc<EnvelopeCache>,
}

impl PartialEq for SignedMessage {
    fn eq(&self, other: &Self) -> bool {
        self.from == other.from && self.sig == other.sig && self.body == other.body
    }
}

impl SignedMessage {
    /// Wraps a message with its sender and signature.
    pub fn new(msg: Message, from: Sender, sig: SignatureBytes) -> Self {
        Self::from_shared(Arc::new(msg), from, sig)
    }

    /// Wraps an already-shared body (forwarding or re-signing paths): the
    /// transactions are never copied, only the `Arc` is cloned.
    ///
    /// The canonical-bytes cache is *not* carried over because the sender
    /// may differ; [`SignedMessage::signing_bytes`] repopulates it lazily.
    pub fn from_shared(body: Arc<Message>, from: Sender, sig: SignatureBytes) -> Self {
        SignedMessage {
            body,
            from,
            sig,
            cache: Arc::new(EnvelopeCache::default()),
        }
    }

    /// Builds a signed envelope in one pass: encodes `sender ‖ msg` once,
    /// hands the bytes to `signer`, and keeps them memoized so every later
    /// verification (at any clone, on any receiver) reuses them.
    pub fn sign_with(
        msg: Message,
        from: Sender,
        signer: impl FnOnce(&[u8]) -> SignatureBytes,
    ) -> Self {
        Self::sign_shared(Arc::new(msg), from, signer)
    }

    /// [`SignedMessage::sign_with`] over an already-shared body, for
    /// re-signing a forwarded message without copying its transactions.
    pub fn sign_shared(
        body: Arc<Message>,
        from: Sender,
        signer: impl FnOnce(&[u8]) -> SignatureBytes,
    ) -> Self {
        let mut sm = Self::from_shared(body, from, SignatureBytes::empty());
        sm.sig = signer(sm.signing_bytes());
        sm
    }

    /// The message body.
    pub fn msg(&self) -> &Message {
        &self.body
    }

    /// The shared body handle, for forwarding without a deep copy.
    pub fn body(&self) -> &Arc<Message> {
        &self.body
    }

    /// Extracts the owned message body: zero-copy when this envelope holds
    /// the last reference, cloning only otherwise.
    pub fn into_message(self) -> Message {
        Arc::try_unwrap(self.body).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Originator.
    pub fn sender(&self) -> Sender {
        self.from
    }

    /// Signature or MAC over [`SignedMessage::signing_bytes`].
    pub fn sig(&self) -> &SignatureBytes {
        &self.sig
    }

    /// The discriminant of the message body.
    pub fn kind(&self) -> MessageKind {
        self.body.kind()
    }

    /// The canonical bytes a signature from `from` over `msg` covers,
    /// computed without building an envelope. This is what lets a third
    /// party re-verify a *forwarded* signature — e.g. each commit vote
    /// inside a fetched block certificate, where the verifier must
    /// reconstruct the exact `Commit` message the signer signed.
    pub fn signing_bytes_for(from: Sender, msg: &Message) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(from.encoded_len() + msg.encoded_len());
        from.write(&mut w);
        msg.write(&mut w);
        w.into_bytes()
    }

    /// The bytes that are signed: sender followed by the message body, so a
    /// signature cannot be replayed as coming from someone else.
    ///
    /// Computed at most once per envelope *family* — clones share the
    /// buffer, so a body signed once and broadcast to n peers is verified n
    /// times against a single serialization.
    pub fn signing_bytes(&self) -> &[u8] {
        self.cache
            .signing
            .get_or_init(|| Self::signing_bytes_for(self.from, &self.body))
    }

    /// Memoized digest over the signing bytes. The hasher is supplied by
    /// the caller (`rdb_common` is crypto-free); it runs at most once per
    /// envelope family regardless of how many clones ask.
    pub fn digest_with(&self, hasher: impl FnOnce(&[u8]) -> Digest) -> Digest {
        *self
            .cache
            .digest
            .get_or_init(|| hasher(self.signing_bytes()))
    }
}

impl Wire for SignedMessage {
    /// The wire layout is exactly `signing_bytes ‖ len(sig) ‖ sig`, so a
    /// memoized envelope serializes with a memcpy, not a re-encode, and
    /// its [`Wire::encoded_len`] is the memoized signing bytes' length
    /// plus the signature's: once they are cached, counting walks no body.
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_bytes(self.signing_bytes());
        w.put_var_bytes(self.sig.as_ref());
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        let start = r.offset();
        let from = Sender::read(r)?;
        let msg = Message::read(r)?;
        let end = r.offset();
        let sig = SignatureBytes(r.get_var_bytes()?.to_vec());
        let sm = Self::new(msg, from, sig);
        // Seed the cache from the raw input: verification after a decode
        // costs zero serializations.
        let _ = sm.cache.signing.set(r.window(start, end).to_vec());
        Ok(sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Operation;

    fn sample_batch() -> Batch {
        (0..3)
            .map(|i| {
                Transaction::new(
                    ClientId(i),
                    i,
                    vec![Operation::Write {
                        key: i,
                        value: vec![i as u8; 4],
                    }],
                )
            })
            .collect()
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::ClientRequest {
                txns: sample_batch().txns,
            },
            Message::PrePrepare {
                view: ViewNum(1),
                seq: SeqNum(2),
                digest: Digest([3; 32]),
                batch: sample_batch().into(),
            },
            Message::Prepare {
                view: ViewNum(1),
                seq: SeqNum(2),
                digest: Digest([3; 32]),
            },
            Message::Commit {
                view: ViewNum(1),
                seq: SeqNum(2),
                digest: Digest([3; 32]),
            },
            Message::ClientReply {
                view: ViewNum(1),
                client: ClientId(4),
                replica: ReplicaId(6),
                results: [(5, vec![7, 8]), (6, vec![]), (9, vec![1; 8])]
                    .into_iter()
                    .collect(),
            },
            Message::SpecResponse {
                view: ViewNum(1),
                seq: SeqNum(2),
                digest: Digest([3; 32]),
                history: Digest([4; 32]),
                client: ClientId(4),
                replica: ReplicaId(6),
                results: [(5, [9])].into_iter().collect(),
            },
            Message::CommitCert {
                view: ViewNum(1),
                seq: SeqNum(2),
                digest: Digest([3; 32]),
                cert: BlockCertificate::new(vec![(ReplicaId(0), SignatureBytes(vec![1; 16]))]),
                client: ClientId(4),
            },
            Message::LocalCommit {
                view: ViewNum(1),
                seq: SeqNum(2),
                replica: ReplicaId(3),
            },
            Message::Checkpoint {
                seq: SeqNum(100),
                state_digest: Digest([5; 32]),
                replica: ReplicaId(2),
            },
            Message::ViewChange {
                new_view: ViewNum(2),
                last_stable: SeqNum(90),
                prepared: vec![(SeqNum(91), Digest([1; 32]))],
                tail: vec![(SeqNum(91), Digest([1; 32]), Arc::new(sample_batch()))],
                replica: ReplicaId(3),
                instance: 1,
            },
            Message::NewView {
                new_view: ViewNum(2),
                reissued: vec![(SeqNum(91), Digest([1; 32]))],
                instance: 1,
            },
            Message::FetchRequest {
                seqs: vec![SeqNum(5), SeqNum(7)],
                replica: ReplicaId(2),
            },
            Message::FetchResponse {
                seq: SeqNum(5),
                view: ViewNum(1),
                digest: Digest([3; 32]),
                batch: sample_batch().into(),
                certificate: BlockCertificate::new(vec![
                    (ReplicaId(0), SignatureBytes(vec![1; 16])),
                    (ReplicaId(1), SignatureBytes(vec![2; 16])),
                    (ReplicaId(3), SignatureBytes(vec![3; 16])),
                ]),
                replica: ReplicaId(3),
            },
            Message::SnapshotResponse {
                snapshot: Arc::new(crate::snapshot::Snapshot {
                    base_seq: SeqNum(8),
                    block: crate::block::Block::genesis(Digest([6; 32])),
                    history: Digest([2; 32]),
                    records: vec![(1, vec![7; 8]), (2, vec![5; 8])],
                }),
                replica: ReplicaId(1),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in all_messages() {
            let bytes = msg.encode();
            let back = Message::decode(&bytes).unwrap_or_else(|e| {
                panic!("decode failed for {:?}: {e}", msg.kind());
            });
            assert_eq!(back, msg);
        }
    }

    /// Both reply shapes around one `results` list.
    fn reply_variants(results: ReplyResults) -> [Message; 2] {
        [
            Message::ClientReply {
                view: ViewNum(1),
                client: ClientId(4),
                replica: ReplicaId(6),
                results: results.clone(),
            },
            Message::SpecResponse {
                view: ViewNum(1),
                seq: SeqNum(2),
                digest: Digest([3; 32]),
                history: Digest([4; 32]),
                client: ClientId(4),
                replica: ReplicaId(6),
                results,
            },
        ]
    }

    #[test]
    fn reply_envelopes_round_trip_with_zero_one_and_many_results() {
        let many: ReplyResults = (0..50).map(|c| (c, vec![c as u8; 8])).collect();
        let one = [(7, vec![1; 1024])].into_iter().collect();
        for results in [ReplyResults::default(), one, many] {
            for msg in reply_variants(results) {
                let bytes = msg.encode();
                assert_eq!(msg.encoded_len(), bytes.len(), "{:?}", msg.kind());
                assert_eq!(Message::decode(&bytes).unwrap(), msg);
            }
        }
    }

    #[test]
    fn an_oversized_result_count_is_an_error_not_an_allocation() {
        for msg in reply_variants([(1, [2; 4])].into_iter().collect()) {
            let mut bytes = msg.encode();
            // The count sits right before the one encoded result.
            let count_at = bytes.len() - (8 + 4 + 4) - 4;
            assert_eq!(bytes[count_at..count_at + 4], 1u32.to_le_bytes());
            bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(Message::decode(&bytes).is_err(), "{:?}", msg.kind());
            // A count the input could hold but does not: truncated, not UB.
            bytes[count_at..count_at + 4].copy_from_slice(&2u32.to_le_bytes());
            assert!(Message::decode(&bytes).is_err(), "{:?}", msg.kind());
        }
    }

    /// Every counted list, reached through a message whose bytes stop at
    /// its count: a count larger than the bytes left is a codec error from
    /// the one list guard, not an allocation or a panic.
    #[test]
    fn every_counted_list_rejects_a_count_past_the_input() {
        fn header(w: &mut WireWriter, tag: u8, u64s: u64) {
            w.put_u8(tag);
            (0..u64s).for_each(|v| w.put_u64(v));
        }
        /// Writes a message's bytes up to one list's count.
        type Prefix = fn(&mut WireWriter);
        let lists: [(&str, Prefix); 10] = [
            ("txns", |w| header(w, 0, 0)),
            ("ops", |w| {
                header(w, 0, 0);
                w.put_u32(1);
                w.put_u64(4);
                w.put_u64(5);
            }),
            ("reply results", |w| {
                header(w, 4, 2);
                w.put_u32(6);
            }),
            ("spec results", |w| {
                header(w, 5, 2);
                w.put_bytes(&[0; 64]);
                w.put_u64(4);
                w.put_u32(6);
            }),
            ("certificate commits", |w| {
                header(w, 6, 2);
                w.put_bytes(&[0; 32]);
            }),
            ("prepared pairs", |w| header(w, 9, 2)),
            ("batch tail", |w| {
                header(w, 9, 2);
                w.put_u32(0);
            }),
            ("reissued pairs", |w| header(w, 10, 1)),
            ("fetch seqs", |w| header(w, 11, 0)),
            ("snapshot records", |w| {
                header(w, 13, 1);
                crate::block::Block::genesis(Digest::ZERO).write(w);
                w.put_bytes(&[0; 32]);
            }),
        ];
        for (list, prefix) in lists {
            for count in [u32::MAX, 17] {
                let mut w = WireWriter::new();
                prefix(&mut w);
                w.put_u32(count);
                w.put_bytes(&[0; 16]);
                match Message::decode(&w.into_bytes()) {
                    Err(CommonError::Codec(m)) if m.starts_with("list count") => {}
                    other => panic!("{list}: count {count} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn kinds_cover_all_variants() {
        let kinds: Vec<MessageKind> = all_messages().iter().map(Message::kind).collect();
        for k in MessageKind::ALL {
            assert!(kinds.contains(&k), "missing variant for {k:?}");
        }
    }

    #[test]
    fn signed_message_round_trip() {
        let msg = Message::Prepare {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: Digest([2; 32]),
        };
        let sm = SignedMessage::new(
            msg,
            Sender::Replica(ReplicaId(1)),
            SignatureBytes(vec![9; 64]),
        );
        let bytes = sm.encode();
        assert_eq!(SignedMessage::decode(&bytes).unwrap(), sm);
    }

    #[test]
    fn signing_bytes_bind_sender() {
        let msg = Message::Prepare {
            view: ViewNum(0),
            seq: SeqNum(1),
            digest: Digest([2; 32]),
        };
        let a = SignedMessage::new(
            msg.clone(),
            Sender::Replica(ReplicaId(1)),
            SignatureBytes::empty(),
        );
        let b = SignedMessage::new(msg, Sender::Replica(ReplicaId(2)), SignatureBytes::empty());
        assert_ne!(a.signing_bytes(), b.signing_bytes());
    }

    #[test]
    fn clones_share_one_serialization() {
        // The encode-once guarantee, asserted structurally: every clone of
        // an envelope returns the *same buffer* from signing_bytes(), so a
        // broadcast that clones per destination serializes exactly once.
        let sm = SignedMessage::sign_with(
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: Digest([3; 32]),
                batch: sample_batch().into(),
            },
            Sender::Replica(ReplicaId(0)),
            |_| SignatureBytes(vec![7; 32]),
        );
        let original = sm.signing_bytes().as_ptr();
        for _ in 0..16 {
            let clone = sm.clone();
            assert_eq!(clone.signing_bytes().as_ptr(), original);
            assert!(Arc::ptr_eq(clone.body(), sm.body()), "body is shared");
        }
    }

    #[test]
    fn sign_with_signs_canonical_bytes() {
        let msg = Message::LocalCommit {
            view: ViewNum(1),
            seq: SeqNum(2),
            replica: ReplicaId(3),
        };
        let from = Sender::Replica(ReplicaId(3));
        let sm = SignedMessage::sign_with(msg.clone(), from, |bytes| {
            SignatureBytes(bytes.iter().rev().copied().collect())
        });
        let manual = SignedMessage::new(msg, from, SignatureBytes::empty());
        let expected: Vec<u8> = manual.signing_bytes().iter().rev().copied().collect();
        assert_eq!(sm.sig().as_ref(), &expected[..]);
    }

    #[test]
    fn digest_with_memoizes() {
        let sm = SignedMessage::new(
            Message::ClientRequest { txns: vec![] },
            Sender::Client(ClientId(1)),
            SignatureBytes::empty(),
        );
        let mut calls = 0;
        let d1 = sm.digest_with(|_| {
            calls += 1;
            Digest([9; 32])
        });
        // Second ask (even via a clone) must not re-hash.
        let d2 = sm.clone().digest_with(|_| {
            calls += 1;
            Digest([1; 32])
        });
        assert_eq!(d1, d2);
        assert_eq!(calls, 1);
    }

    #[test]
    fn into_message_avoids_copy_when_unique() {
        let sm = SignedMessage::new(
            Message::Prepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: Digest([2; 32]),
            },
            Sender::Replica(ReplicaId(1)),
            SignatureBytes::empty(),
        );
        let msg = sm.into_message();
        assert!(matches!(msg, Message::Prepare { .. }));
    }

    #[test]
    fn decode_seeds_signing_cache() {
        let sm = SignedMessage::new(
            Message::Checkpoint {
                seq: SeqNum(4),
                state_digest: Digest([5; 32]),
                replica: ReplicaId(2),
            },
            Sender::Replica(ReplicaId(2)),
            SignatureBytes(vec![1; 16]),
        );
        let bytes = sm.encode();
        let back = SignedMessage::decode(&bytes).unwrap();
        // The decoded envelope's signing bytes must equal the sender's
        // without re-serializing (cache seeded straight from the input).
        assert_eq!(back.signing_bytes(), sm.signing_bytes());
    }

    #[test]
    fn encoded_len_is_exact_for_all_variants() {
        for msg in all_messages() {
            assert_eq!(msg.encoded_len(), msg.encode().len(), "{:?}", msg.kind());
            let sm = SignedMessage::new(
                msg,
                Sender::Replica(ReplicaId(1)),
                SignatureBytes(vec![7; 64]),
            );
            assert_eq!(sm.encoded_len(), sm.encode().len());
        }
    }

    #[test]
    fn encoded_len_memoized_and_consistent_across_paths() {
        // Path 1: built locally (no signing bytes cached yet).
        let sm = SignedMessage::new(
            Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: Digest([3; 32]),
                batch: sample_batch().into(),
            },
            Sender::Replica(ReplicaId(0)),
            SignatureBytes(vec![7; 64]),
        );
        let bytes = sm.encode();
        assert_eq!(sm.encoded_len(), bytes.len());
        // Path 2: decoded (signing bytes seeded from the input buffer).
        let back = SignedMessage::decode(&bytes).unwrap();
        assert_eq!(back.encoded_len(), bytes.len());
        // Path 3: signing bytes computed first, then the length asked for.
        let sm2 = SignedMessage::new(
            Message::ClientRequest {
                txns: sample_batch().txns,
            },
            Sender::Client(ClientId(9)),
            SignatureBytes(vec![1; 16]),
        );
        let _ = sm2.signing_bytes();
        assert_eq!(sm2.encoded_len(), sm2.encode().len());
        // Clones share the memoized answer.
        assert_eq!(sm2.clone().encoded_len(), sm2.encoded_len());
    }

    #[test]
    fn kind_index_is_dense_and_consistent() {
        for (i, k) in MessageKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn seq_accessor() {
        assert_eq!(
            Message::Prepare {
                view: ViewNum(0),
                seq: SeqNum(7),
                digest: Digest::ZERO
            }
            .seq(),
            Some(SeqNum(7))
        );
        assert_eq!(Message::ClientRequest { txns: vec![] }.seq(), None);
    }

    #[test]
    fn bad_message_tag_rejected() {
        assert!(Message::decode(&[99]).is_err());
    }

    #[test]
    fn signing_bytes_for_matches_envelope_path() {
        // The reconstruction used to re-verify forwarded certificate
        // signatures must produce byte-identical input to what the
        // original signer's envelope signed.
        let msg = Message::Commit {
            view: ViewNum(2),
            seq: SeqNum(9),
            digest: Digest([5; 32]),
        };
        let from = Sender::Replica(ReplicaId(3));
        let sm = SignedMessage::new(msg.clone(), from, SignatureBytes::empty());
        assert_eq!(
            SignedMessage::signing_bytes_for(from, &msg),
            sm.signing_bytes()
        );
    }
}
