//! Service-time model: how long each pipeline stage works on each job.
//!
//! Costs combine the crypto [`CostModel`] with fixed per-message overheads
//! (syscall-ish receive/dispatch costs) and storage access costs. Message
//! sizes come from the model's own closed-form byte counts in
//! [`ServiceModel::new`], [`ServiceModel::message_bytes`] and
//! [`ServiceModel::reply_bytes`], so the network model prices
//! transmission without serializing a message.

use rdb_common::{CryptoScheme, Message, ProtocolKind, SystemConfig};
use rdb_crypto::CostModel;
use rdb_pipeline::Input;

/// The window the model's replica-message verifies are priced at: the
/// model prices a production library's batch verifier over windows of
/// this many signatures, a verifier the runtime does not run (it checks
/// each signature alone).
const MODEL_VERIFY_WINDOW: usize = 32;

/// Fixed overheads, all in nanoseconds (tunable; defaults represent a
/// 3.8 GHz core running an optimized build).
#[derive(Debug, Clone)]
pub struct Overheads {
    /// Receiving + dispatching one client request at an input thread.
    pub input_request_ns: f64,
    /// Receiving + dispatching one replica message at an input thread.
    pub input_message_ns: f64,
    /// One consensus state-machine step at the worker.
    pub process_message_ns: f64,
    /// Sequence assignment + bookkeeping when proposing.
    pub propose_ns: f64,
    /// Copying/allocating one transaction into a batch.
    pub batch_per_txn_ns: f64,
    /// Per-payload-byte copy cost while batching.
    pub batch_per_byte_ns: f64,
    /// Building one reply message.
    pub reply_create_ns: f64,
    /// One store operation at the execute stage. The default prices the
    /// in-memory store (hash-map access + digest fold), the only store a
    /// replica runs.
    pub store_op_ns: f64,
}

impl Default for Overheads {
    fn default() -> Self {
        // Per-message fixed costs reflect what a real TCP-based replica
        // pays per message: socket receive, framing, deserialization,
        // buffer-pool bookkeeping and queue hand-offs (several µs each in
        // the systems the paper benchmarks — this is exactly why batching
        // pays off so dramatically in Figure 10).
        Overheads {
            input_request_ns: 1_500.0,
            input_message_ns: 3_000.0,
            process_message_ns: 5_000.0,
            propose_ns: 2_000.0,
            batch_per_txn_ns: 300.0,
            batch_per_byte_ns: 0.15,
            reply_create_ns: 400.0,
            store_op_ns: 600.0,
        }
    }
}

/// Serialized bytes of a batch of `txns` transactions of `txn_bytes` each.
fn batch_bytes(txns: usize, txn_bytes: usize) -> usize {
    16 + 8 + 8 + 32 + txns * txn_bytes
}

/// Computed per-job service times and message sizes for one configuration.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    cost: CostModel,
    over: Overheads,
    scheme: CryptoScheme,
    protocol: ProtocolKind,
    /// Transactions per batch.
    pub batch_size: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Serialized bytes of one transaction.
    pub txn_bytes: usize,
    /// Serialized bytes of one batch (the pre-prepare payload).
    pub batch_bytes: usize,
    /// Bytes of a prepare/commit/ack message.
    pub vote_bytes: usize,
    /// Reply envelopes a full batch produces: one per distinct client in
    /// it (the closed loop's clients submit single transactions, so a
    /// batch draws on `batch_size` of them unless there are fewer).
    pub replies_per_batch: usize,
    /// Signature or MAC bytes on a message.
    sig_bytes: usize,
    /// Bytes of one commit-certificate message (Zyzzyva slow path).
    pub cc_bytes: usize,
}

impl ServiceModel {
    /// Builds the model for `config` with the given crypto cost model.
    pub fn new(config: &SystemConfig, cost: CostModel, over: Overheads) -> Self {
        let value_size = 8;
        let op_bytes = 13 + value_size;
        let txn_bytes = 24 + config.ops_per_txn * op_bytes + 4 + config.payload_bytes;
        let batch_bytes = batch_bytes(config.batch_size, txn_bytes);
        let sig = match config.crypto {
            CryptoScheme::NoCrypto => 0,
            CryptoScheme::CmacEd25519 => 16,
            CryptoScheme::Ed25519 => 64,
            CryptoScheme::Rsa => 128,
        };
        let vote_bytes = 16 + 8 + 8 + 32 + sig;
        let q = rdb_common::quorum::zyzzyva_cc_quorum(config.f);
        let cc_bytes = 16 + 8 + 8 + 32 + q * (4 + sig.max(16)) + 8;
        ServiceModel {
            cost,
            over,
            scheme: config.crypto,
            protocol: config.protocol,
            batch_size: config.batch_size,
            ops_per_txn: config.ops_per_txn,
            txn_bytes,
            batch_bytes,
            vote_bytes,
            replies_per_batch: config.batch_size.min(config.num_clients).max(1),
            sig_bytes: sig,
            cc_bytes,
        }
    }

    /// Wire bytes of the reply envelopes answering `txns` transactions of
    /// one batch: a signed header per client plus `(counter, result)` per
    /// transaction.
    pub fn reply_bytes(&self, txns: usize) -> usize {
        txns.min(self.replies_per_batch) * (16 + 8 + 8 + 4 + self.sig_bytes) + txns * (8 + 8)
    }

    /// Input thread: ingest one client request.
    pub fn input_request(&self) -> f64 {
        self.over.input_request_ns
    }

    /// Input thread: ingest one replica message.
    pub fn input_message(&self) -> f64 {
        self.over.input_message_ns
    }

    /// Batch thread: verify client signatures, assemble and digest one
    /// batch of `txns` transactions (a partial batch is priced by its own
    /// length, a full one has `batch_size`).
    ///
    /// Client signatures are priced as *batch-verified*: the model prices
    /// the whole window of requests feeding one consensus batch through a
    /// production library's batch verifier, so the per-signature cost is
    /// the amortized batched rate, not the single-verify rate. The runtime
    /// runs no batch verifier; it checks each signature alone.
    pub fn assemble_batch(&self, txns: usize) -> f64 {
        let b = txns as f64;
        let verify =
            b * self
                .cost
                .verify_batch_ns(self.scheme, false, self.txn_bytes, self.batch_size);
        let copy =
            b * (self.over.batch_per_txn_ns + self.over.batch_per_byte_ns * self.txn_bytes as f64);
        // One digest over the whole batch (Section 4.3's single-hash trick).
        let digest = self.cost.hash_ns(batch_bytes(txns, self.txn_bytes));
        verify + copy + digest
    }

    /// Worker: propose a batch (bookkeeping only; digest already computed).
    pub fn propose(&self) -> f64 {
        self.over.propose_ns
    }

    /// Worker at a backup: verify the pre-prepare (signature over the whole
    /// batch) and re-digest it to validate the primary's digest. The model
    /// prices digital-signature schemes at the batch verifier's amortized
    /// rate over a `MODEL_VERIFY_WINDOW`, a verifier the runtime does not
    /// run (MAC'd links are unaffected — `verify_batch_ns` falls through).
    pub fn verify_pre_prepare(&self) -> f64 {
        self.cost
            .verify_batch_ns(self.scheme, true, self.batch_bytes, MODEL_VERIFY_WINDOW)
            + self.cost.hash_ns(self.batch_bytes)
            + self.over.process_message_ns
    }

    /// Worker: verify + process one prepare/commit vote (priced at the
    /// modelled batch verifier's rate, as for pre-prepares).
    pub fn process_vote(&self) -> f64 {
        self.cost
            .verify_batch_ns(self.scheme, true, self.vote_bytes, MODEL_VERIFY_WINDOW)
            + self.over.process_message_ns
    }

    /// Output thread: sign one replica-bound message of `bytes`.
    pub fn sign_replica_msg(&self, bytes: usize) -> f64 {
        self.cost.sign_ns(self.scheme, true, bytes)
    }

    /// Execute stage: run a batch of `txns` transactions against the store.
    pub fn execute_batch(&self, txns: usize) -> f64 {
        (txns * self.ops_per_txn) as f64 * self.over.store_op_ns
    }

    /// Output: create + sign the replies for a batch of `txns`
    /// transactions — one envelope per client, covering all of that
    /// client's results.
    ///
    /// Protocol fidelity point: PBFT replies are terminal (clients only
    /// match them against each other), so MACs suffice under
    /// `CmacEd25519`. Zyzzyva's speculative responses are *forwarded* by
    /// clients inside commit certificates, so they must be digital
    /// signatures — this is the hidden crypto tax of the single-phase
    /// protocol.
    pub fn reply_batch(&self, txns: usize) -> f64 {
        let envelopes = txns.min(self.replies_per_batch).max(1);
        let envelope_bytes = self.reply_bytes(txns) / envelopes;
        let sign = match (self.protocol, self.scheme) {
            (_, CryptoScheme::NoCrypto) => 0.0,
            (ProtocolKind::Zyzzyva, CryptoScheme::CmacEd25519) => {
                self.cost.ed25519_sign_ns + self.cost.sha256_per_byte_ns * envelope_bytes as f64
            }
            (_, scheme) => self.cost.sign_ns(scheme, true, envelope_bytes),
        };
        envelopes as f64 * (self.over.reply_create_ns + sign)
    }

    /// Worker: verify one commit certificate (Zyzzyva slow path): `q`
    /// forwarded *digital signatures* plus processing. The `q` signatures
    /// arrive together in one message, so the model prices them through
    /// its batch verifier.
    pub fn verify_commit_cert(&self, q: usize) -> f64 {
        let per_sig = match self.scheme {
            CryptoScheme::NoCrypto => 0.0,
            CryptoScheme::Rsa => self.cost.rsa_verify_ns,
            _ => self
                .cost
                .verify_batch_ns(CryptoScheme::Ed25519, false, 0, q),
        };
        q as f64 * per_sig + self.over.process_message_ns
    }

    /// Wire bytes of one message a replica core sends: a proposal (or a
    /// fetched batch) carries the whole batch, a commit certificate its
    /// signatures, everything else is vote-sized.
    pub fn message_bytes(&self, msg: &Message) -> usize {
        match msg {
            Message::PrePrepare { .. } | Message::FetchResponse { .. } => self.batch_bytes,
            Message::CommitCert { .. } => self.cc_bytes,
            _ => self.vote_bytes,
        }
    }

    /// Output: build and sign one message a replica core sends (once,
    /// however many targets it has). A `LocalCommit` is a client reply.
    pub fn send_message(&self, msg: &Message) -> f64 {
        let sign = self.sign_replica_msg(self.message_bytes(msg));
        match msg {
            Message::LocalCommit { .. } => self.over.reply_create_ns + sign,
            _ => sign,
        }
    }

    /// Worker: one step of the replica core on `input`.
    pub fn worker_step(&self, input: &Input) -> f64 {
        match input {
            Input::Verified(sm) => match sm.msg() {
                Message::PrePrepare { .. } | Message::FetchResponse { .. } => {
                    self.verify_pre_prepare()
                }
                Message::CommitCert { cert, .. } => self.verify_commit_cert(cert.signer_count()),
                _ => self.process_vote(),
            },
            Input::Propose { .. } => self.propose(),
            _ => self.over.process_message_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::SystemConfig;

    fn model(mutate: impl FnOnce(&mut SystemConfig)) -> ServiceModel {
        let mut cfg = SystemConfig::new(16).unwrap();
        mutate(&mut cfg);
        ServiceModel::new(&cfg, CostModel::optimized(), Overheads::default())
    }

    #[test]
    fn batch_assembly_scales_with_batch_size() {
        let small = model(|c| c.batch_size = 10);
        let large = model(|c| c.batch_size = 1000);
        assert!(large.assemble_batch(1000) > small.assemble_batch(10) * 50.0);
    }

    #[test]
    fn replies_are_priced_per_client_not_per_transaction() {
        // The paper's many single-transaction clients: a reply each, priced
        // exactly as the per-transaction reply was.
        let many = model(|c| c.batch_size = 100);
        assert_eq!(many.replies_per_batch, 100);
        assert_eq!(many.reply_bytes(1), 16 + 8 + 16 + 4 + 8 + 16);
        assert_eq!(many.reply_bytes(100), 100 * many.reply_bytes(1));
        // Few clients whose bursts fill a batch: one envelope each.
        let few = model(|c| {
            c.batch_size = 100;
            c.num_clients = 4;
        });
        assert_eq!(few.replies_per_batch, 4);
        assert_eq!(few.reply_bytes(100), 4 * (36 + 16) + 100 * 16);
        assert!(few.reply_batch(100) * 10.0 < many.reply_batch(100));
    }

    #[test]
    fn a_partial_batch_is_charged_its_share_of_the_per_transaction_work() {
        let m = model(|c| c.batch_size = 100);
        assert_eq!(m.replies_per_batch, 100);
        // Verify and copy: the assembly less its one digest over the batch.
        let per_txn_assembly =
            |txns: usize| m.assemble_batch(txns) - m.cost.hash_ns(batch_bytes(txns, m.txn_bytes));
        // Each kind of work is charged 40/100 of the full batch's.
        let is_two_fifths = |part: f64, full: f64| (part / full - 0.4).abs() < 1e-9;
        assert!(is_two_fifths(per_txn_assembly(40), per_txn_assembly(100)));
        assert!(is_two_fifths(m.execute_batch(40), m.execute_batch(100)));
        assert!(is_two_fifths(m.reply_batch(40), m.reply_batch(100)));
        // A full batch prices as the whole configured batch.
        assert_eq!(batch_bytes(100, m.txn_bytes), m.batch_bytes);
    }

    #[test]
    fn paged_storage_dominates_execution() {
        let cfg = SystemConfig::new(16).unwrap();
        let mem = model(|_| {});
        // 400 µs an operation: an API call, page fetch and journaled write.
        let paged = Overheads {
            store_op_ns: 400_000.0,
            ..Overheads::default()
        };
        let paged = ServiceModel::new(&cfg, CostModel::optimized(), paged);
        assert!(paged.execute_batch(100) > mem.execute_batch(100) * 100.0);
    }

    #[test]
    fn rsa_votes_cost_more_than_cmac() {
        let mac = model(|c| c.crypto = CryptoScheme::CmacEd25519);
        let rsa = model(|c| c.crypto = CryptoScheme::Rsa);
        assert!(rsa.process_vote() > mac.process_vote() * 5.0);
        assert!(rsa.reply_batch(100) > mac.reply_batch(100) * 10.0);
    }

    #[test]
    fn no_crypto_eliminates_signature_costs() {
        let none = model(|c| c.crypto = CryptoScheme::NoCrypto);
        let mac = model(|c| c.crypto = CryptoScheme::CmacEd25519);
        assert!(none.assemble_batch(100) < mac.assemble_batch(100));
        assert_eq!(none.sign_replica_msg(100), 0.0);
    }

    #[test]
    fn payload_inflates_batch_bytes() {
        let small = model(|c| c.payload_bytes = 0);
        let large = model(|c| c.payload_bytes = 8192);
        assert!(large.batch_bytes > small.batch_bytes + 100 * 8000);
    }

    #[test]
    fn multi_op_txns_inflate_execution() {
        let one = model(|c| c.ops_per_txn = 1);
        let fifty = model(|c| c.ops_per_txn = 50);
        assert!((fifty.execute_batch(100) / one.execute_batch(100) - 50.0).abs() < 1.0);
    }
}
