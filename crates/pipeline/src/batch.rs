//! Signature-window verification and batch assembly (Section 4.3).
//!
//! Client signature checking is the dominant crypto cost at the primary
//! (the paper's Section 6 observation), so requests are not verified one
//! at a time: a stage drains up to [`rdb_crypto::VERIFY_WINDOW`] queued
//! messages and checks them as *one* batch-verification equation.
//! Per-message accept/drop semantics are exactly those of per-item
//! verification — a bad signature in the window is bisected out and
//! dropped while the rest proceed.
//!
//! [`verify_window`] is that step, shared by the worker, checkpoint and
//! batch stages; [`BatchAssembler`] builds consensus batches on top of it,
//! for a batch thread or — with `batch_threads = 0` — for the worker. It
//! reads no clock: the caller passes `now`.

use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{Batch, Digest, SignatureBytes, Transaction};
use rdb_crypto::{digest, CryptoProvider};
use std::time::{Duration, Instant};

/// How long a partial batch waits for more requests before it is cut
/// anyway.
pub const BATCH_FLUSH_AFTER: Duration = Duration::from_millis(1);

/// Verifies `window` as one crypto batch and drains it: every authentic
/// message goes to `accept`; the number of rejected ones is returned.
pub(crate) fn verify_window(
    provider: &CryptoProvider,
    window: &mut Vec<SignedMessage>,
    mut accept: impl FnMut(SignedMessage),
) -> u64 {
    if window.is_empty() {
        return 0;
    }
    // Memoized canonical bytes: the sender's clone already serialized
    // them, so `signing_bytes` is a lookup.
    let items: Vec<(Sender, &[u8], &SignatureBytes)> = window
        .iter()
        .map(|sm| (sm.sender(), sm.signing_bytes(), sm.sig()))
        .collect();
    let verdicts = provider.verify_batch(&items);
    let mut rejected = 0;
    for (sm, ok) in window.drain(..).zip(verdicts) {
        if ok {
            accept(sm);
        } else {
            rejected += 1;
        }
    }
    rejected
}

/// Turns verified client requests into digested consensus batches for one
/// instance: full batches are cut as soon as `batch_size` transactions are
/// pending, a partial one once it has waited [`BATCH_FLUSH_AFTER`].
#[derive(Debug)]
pub(crate) struct BatchAssembler {
    batch_size: usize,
    pending: Vec<Transaction>,
    last_cut: Instant,
}

impl BatchAssembler {
    pub(crate) fn new(batch_size: usize, now: Instant) -> Self {
        BatchAssembler {
            batch_size,
            pending: Vec::new(),
            last_cut: now,
        }
    }

    /// Verifies a window of client requests, queues the authentic ones'
    /// transactions and appends every full batch to `cut`. Returns the
    /// number of requests dropped for a bad signature.
    pub(crate) fn ingest(
        &mut self,
        provider: &CryptoProvider,
        window: &mut Vec<SignedMessage>,
        now: Instant,
        cut: &mut Vec<(Batch, Digest)>,
    ) -> u64 {
        let pending = &mut self.pending;
        let rejected = verify_window(provider, window, |sm| {
            // `into_message` is move-out, not copy: the client's send
            // handed over the only reference to the request body.
            if let Message::ClientRequest { txns } = sm.into_message() {
                pending.extend(txns);
            }
        });
        while self.pending.len() >= self.batch_size {
            let rest = self.pending.split_off(self.batch_size);
            let txns = std::mem::replace(&mut self.pending, rest);
            self.cut(txns, now, cut);
        }
        rejected
    }

    /// When the pending partial batch becomes due for flushing (`None`
    /// while nothing is pending): the only reason for a batch thread to
    /// wake without input.
    pub(crate) fn flush_deadline(&self) -> Option<Instant> {
        (!self.pending.is_empty()).then(|| self.last_cut + BATCH_FLUSH_AFTER)
    }

    /// Whether a partial batch has waited long enough to be flushed.
    pub(crate) fn flush_due(&self, now: Instant) -> bool {
        self.flush_deadline().is_some_and(|due| now > due)
    }

    /// Cuts the pending transactions as one partial batch; call when
    /// [`Self::flush_due`].
    pub(crate) fn flush(&mut self, now: Instant, cut: &mut Vec<(Batch, Digest)>) {
        let txns = std::mem::take(&mut self.pending);
        self.cut(txns, now, cut);
    }

    fn cut(&mut self, txns: Vec<Transaction>, now: Instant, cut: &mut Vec<(Batch, Digest)>) {
        let batch = Batch::new(txns);
        let d = digest(&batch.canonical_bytes());
        cut.push((batch, d));
        self.last_cut = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::{ClientId, CryptoScheme, Operation, ReplicaId};
    use rdb_crypto::{KeyRegistry, PeerClass};

    fn request(registry: &KeyRegistry, client: u64, txns: usize, forge: bool) -> SignedMessage {
        let from = Sender::Client(ClientId(client));
        let txns = (0..txns as u64)
            .map(|i| {
                let op = Operation::Write {
                    key: i,
                    value: vec![0; 8],
                };
                Transaction::new(ClientId(client), i, vec![op])
            })
            .collect();
        let provider = registry.provider_for_client(ClientId(client));
        let sm = SignedMessage::sign_with(Message::ClientRequest { txns }, from, |bytes| {
            provider.sign(PeerClass::Replica, bytes)
        });
        if forge {
            let mut sig = sm.sig().clone();
            sig.0[0] ^= 0xff;
            SignedMessage::new(sm.into_message(), from, sig)
        } else {
            sm
        }
    }

    #[test]
    fn cuts_full_batches_drops_forgeries_and_flushes_the_rest_when_due() {
        let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 2, 7);
        let provider = registry.provider_for_replica(ReplicaId(0));
        let t0 = Instant::now();
        let mut asm = BatchAssembler::new(4, t0);
        let mut window = vec![
            request(&registry, 0, 3, false),
            request(&registry, 1, 3, true),
            request(&registry, 1, 3, false),
        ];
        let mut cut = Vec::new();
        let rejected = asm.ingest(&provider, &mut window, t0, &mut cut);
        assert_eq!(rejected, 1, "the forged request is bisected out");
        assert!(window.is_empty());
        assert_eq!(
            cut.len(),
            1,
            "6 authentic txns at batch_size 4: one full batch"
        );
        assert_eq!(cut[0].0.len(), 4);
        assert_eq!(cut[0].1, digest(&cut[0].0.canonical_bytes()));

        assert_eq!(
            asm.flush_deadline(),
            Some(t0 + BATCH_FLUSH_AFTER),
            "the remainder waits one flush period from the last cut"
        );
        assert!(!asm.flush_due(t0 + BATCH_FLUSH_AFTER), "not overdue yet");
        assert!(asm.flush_due(t0 + BATCH_FLUSH_AFTER * 2));
        asm.flush(t0 + BATCH_FLUSH_AFTER * 2, &mut cut);
        assert_eq!(cut.len(), 2);
        assert_eq!(cut[1].0.len(), 2, "the partial remainder");
        assert!(
            !asm.flush_due(t0 + BATCH_FLUSH_AFTER * 9),
            "nothing pending"
        );
        assert_eq!(asm.flush_deadline(), None, "no reason to wake");

        // A lone request long after the last cut is already overdue: the
        // batch thread must not add a flush period to its latency.
        let late = t0 + BATCH_FLUSH_AFTER * 50;
        let mut window = vec![request(&registry, 0, 1, false)];
        asm.ingest(&provider, &mut window, late, &mut cut);
        assert!(asm.flush_deadline().is_some_and(|due| due < late));
        assert!(asm.flush_due(late));
    }
}
