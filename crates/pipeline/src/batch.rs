//! Signature verification and batch assembly (Section 4.3).
//!
//! A stage verifies what it drains one message at a time: a bad signature
//! is dropped while the rest proceed. `verify_window` is that step,
//! shared by the worker and the batch stage; `BatchAssembler` builds
//! consensus batches from what it accepted, one pending batch per
//! consensus instance, on every batch thread or — with `batch_threads =
//! 0` — inside the worker's [`crate::Node`]. It verifies nothing and
//! reads no clock: the caller passes authentic transactions and `now`.

use crate::core::{client_instance, Input};
use rdb_common::messages::{Message, SignedMessage};
use rdb_common::{Batch, SystemConfig, Transaction};
use rdb_crypto::{digest, CryptoProvider};
use std::time::{Duration, Instant};

/// How long a partial batch waits for more requests before it is cut
/// anyway.
pub const BATCH_FLUSH_AFTER: Duration = Duration::from_millis(1);

/// Verifies each of `msgs` as it is drained: every authentic message goes
/// to `accept`; the number of rejected ones is returned.
pub(crate) fn verify_window(
    provider: &CryptoProvider,
    msgs: impl IntoIterator<Item = SignedMessage>,
    mut accept: impl FnMut(SignedMessage),
) -> u64 {
    let mut rejected = 0;
    for sm in msgs {
        // Memoized canonical bytes: the sender's clone already serialized
        // them, so `signing_bytes` is a lookup.
        if provider.verify(sm.sender(), sm.signing_bytes(), sm.sig()) {
            accept(sm);
        } else {
            rejected += 1;
        }
    }
    rejected
}

/// Turns verified client requests into digested consensus batches, one
/// pending batch per consensus instance: an instance's full batches are
/// cut as soon as `batch_size` of its transactions are pending, a partial
/// one once it has waited [`BATCH_FLUSH_AFTER`] since that instance's last
/// cut. Every batch leaves as the [`Input::Propose`] that proposes it.
#[derive(Debug, Default)]
pub(crate) struct BatchAssembler {
    batch_size: usize,
    /// Per instance: its pending transactions and when it last cut.
    pending: Vec<(Vec<Transaction>, Instant)>,
}

impl BatchAssembler {
    /// One pending batch per consensus instance of `config`.
    pub(crate) fn new(config: &SystemConfig, now: Instant) -> Self {
        let k = config.consensus_instances.max(1);
        BatchAssembler {
            batch_size: config.batch_size,
            pending: (0..k).map(|_| (Vec::new(), now)).collect(),
        }
    }

    /// Queues authentic transactions for `instance` and appends every
    /// full batch to `cut`.
    pub(crate) fn push(
        &mut self,
        instance: usize,
        txns: Vec<Transaction>,
        now: Instant,
        cut: &mut Vec<Input>,
    ) {
        let (pending, last_cut) = &mut self.pending[instance];
        pending.extend(txns);
        while pending.len() >= self.batch_size {
            let rest = pending.split_off(self.batch_size);
            let txns = std::mem::replace(pending, rest);
            propose(instance, txns, cut);
            *last_cut = now;
        }
    }

    /// [`Self::push`] for a client request, on the instance its client
    /// shards to.
    pub(crate) fn push_request(&mut self, sm: SignedMessage, now: Instant, cut: &mut Vec<Input>) {
        let instance = client_instance(sm.sender(), self.pending.len());
        // `into_message` is move-out, not copy: the client's send handed
        // over the only reference.
        if let Message::ClientRequest { txns } = sm.into_message() {
            self.push(instance, txns, now, cut);
        }
    }

    /// When the earliest pending partial batch becomes due for flushing
    /// (`None` while nothing is pending): the only reason for a batch
    /// thread to wake without input.
    pub(crate) fn flush_deadline(&self) -> Option<Instant> {
        self.pending
            .iter()
            .filter(|(pending, _)| !pending.is_empty())
            .map(|(_, last_cut)| *last_cut + BATCH_FLUSH_AFTER)
            .min()
    }

    /// Whether some partial batch has waited long enough to be flushed.
    pub(crate) fn flush_due(&self, now: Instant) -> bool {
        self.flush_deadline().is_some_and(|due| now > due)
    }

    /// Cuts every partial batch that has waited long enough.
    pub(crate) fn flush(&mut self, now: Instant, cut: &mut Vec<Input>) {
        for (instance, (pending, last_cut)) in self.pending.iter_mut().enumerate() {
            if !pending.is_empty() && now > *last_cut + BATCH_FLUSH_AFTER {
                propose(instance, std::mem::take(pending), cut);
                *last_cut = now;
            }
        }
    }
}

/// Digests `txns` as one batch and appends its proposal on `instance`.
fn propose(instance: usize, txns: Vec<Transaction>, cut: &mut Vec<Input>) {
    let batch = Batch::new(txns);
    let digest = digest(&batch.canonical_bytes());
    cut.push(Input::Propose {
        instance,
        batch,
        digest,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::messages::Sender;
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

    /// What a batch thread does with a window: verify it, batch the
    /// authentic requests.
    fn ingest(
        asm: &mut BatchAssembler,
        provider: &CryptoProvider,
        window: &mut Vec<SignedMessage>,
        now: Instant,
        cut: &mut Vec<Input>,
    ) -> u64 {
        verify_window(provider, window.drain(..), |sm| {
            asm.push_request(sm, now, cut)
        })
    }

    /// The instance and batch a cut proposes.
    fn proposal(input: &Input) -> (usize, &Batch) {
        let Input::Propose {
            instance,
            batch,
            digest: d,
        } = input
        else {
            panic!("the assembler cuts only proposals");
        };
        assert_eq!(*d, digest(&batch.canonical_bytes()));
        (*instance, batch)
    }

    /// `(instance, transactions)` of each cut, which it takes.
    fn drain(cut: &mut Vec<Input>) -> Vec<(usize, usize)> {
        let cuts = cut.iter().map(proposal).map(|(j, b)| (j, b.len()));
        let cuts = cuts.collect();
        cut.clear();
        cuts
    }

    fn config(k: usize, batch_size: usize) -> SystemConfig {
        let mut config = SystemConfig::new(4).unwrap();
        config.consensus_instances = k;
        config.batch_size = batch_size;
        config
    }

    #[test]
    fn cuts_full_batches_drops_forgeries_and_flushes_the_rest_when_due() {
        let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 2, 7);
        let provider = registry.provider_for_replica(ReplicaId(0));
        let t0 = Instant::now();
        let mut asm = BatchAssembler::new(&config(1, 4), t0);
        let mut window = vec![
            request(&registry, 0, 3, false),
            request(&registry, 1, 3, true),
            request(&registry, 1, 3, false),
        ];
        let mut cut = Vec::new();
        let rejected = ingest(&mut asm, &provider, &mut window, t0, &mut cut);
        assert_eq!(rejected, 1, "the forged request is bisected out");
        assert!(window.is_empty());
        assert_eq!(
            cut.len(),
            1,
            "6 authentic txns at batch_size 4: one full batch"
        );
        assert_eq!(proposal(&cut[0]).1.len(), 4);

        assert_eq!(
            asm.flush_deadline(),
            Some(t0 + BATCH_FLUSH_AFTER),
            "the remainder waits one flush period from the last cut"
        );
        assert!(!asm.flush_due(t0 + BATCH_FLUSH_AFTER), "not overdue yet");
        asm.flush(t0 + BATCH_FLUSH_AFTER, &mut cut);
        assert_eq!(cut.len(), 1, "a flush before the deadline cuts nothing");
        assert!(asm.flush_due(t0 + BATCH_FLUSH_AFTER * 2));
        asm.flush(t0 + BATCH_FLUSH_AFTER * 2, &mut cut);
        assert_eq!(cut.len(), 2);
        assert_eq!(proposal(&cut[1]).1.len(), 2, "the partial remainder");
        assert!(
            !asm.flush_due(t0 + BATCH_FLUSH_AFTER * 9),
            "nothing pending"
        );
        assert_eq!(asm.flush_deadline(), None, "no reason to wake");

        // A lone request long after the last cut is already overdue: the
        // batch thread must not add a flush period to its latency.
        let late = t0 + BATCH_FLUSH_AFTER * 50;
        let mut window = vec![request(&registry, 0, 1, false)];
        ingest(&mut asm, &provider, &mut window, late, &mut cut);
        assert!(asm.flush_deadline().is_some_and(|due| due < late));
        assert!(asm.flush_due(late));
    }

    /// With k instances each client's requests go to its own instance's
    /// pending batch, which fills, cuts and falls due on its own.
    #[test]
    fn each_instance_batches_and_flushes_on_its_own() {
        let registry = KeyRegistry::generate(CryptoScheme::CmacEd25519, 4, 2, 7);
        let provider = registry.provider_for_replica(ReplicaId(0));
        let t0 = Instant::now();
        let mut asm = BatchAssembler::new(&config(2, 4), t0);
        let mut cut = Vec::new();
        // Client 0 shards to instance 0, client 1 to instance 1: each
        // cuts one full batch, instance 1 later.
        let mut window = vec![request(&registry, 0, 5, false)];
        ingest(&mut asm, &provider, &mut window, t0, &mut cut);
        let later = t0 + BATCH_FLUSH_AFTER * 3 / 2;
        let mut window = vec![request(&registry, 1, 6, false)];
        ingest(&mut asm, &provider, &mut window, later, &mut cut);
        assert_eq!(drain(&mut cut), [(0, 4), (1, 4)]);
        assert_eq!(
            asm.flush_deadline(),
            Some(t0 + BATCH_FLUSH_AFTER),
            "the earliest deadline: instance 0's remainder"
        );

        // Past instance 0's deadline, before instance 1's: only instance
        // 0's remainder is cut.
        asm.flush(t0 + BATCH_FLUSH_AFTER * 2, &mut cut);
        assert_eq!(drain(&mut cut), [(0, 1)]);
        assert_eq!(asm.flush_deadline(), Some(later + BATCH_FLUSH_AFTER));
        asm.flush(later + BATCH_FLUSH_AFTER * 2, &mut cut);
        assert_eq!(drain(&mut cut), [(1, 2)]);
        assert_eq!(asm.flush_deadline(), None);
    }
}
