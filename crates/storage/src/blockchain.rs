//! The immutable ledger maintained at each replica.
//!
//! Each executed batch appends one [`Block`]. In the ResilientDB design the
//! block is linked to its predecessor by the 2f+1 commit signatures that
//! certified it (the consensus proof), avoiding the hash of the previous
//! block on the execution critical path; the traditional hash linkage is
//! also supported so the two chaining styles can be compared (an ablation
//! the paper motivates in Section 4.6).

use rdb_common::block::{Block, BlockCertificate, BlockLink};
use rdb_common::{CommonError, Digest, Result, SeqNum, ViewNum};
use rdb_crypto::digest;

/// How new blocks are linked to the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainMode {
    /// Store the 2f+1 commit signatures (ResilientDB default; no hashing).
    #[default]
    Certificate,
    /// Hash the previous block into each new block (traditional chains).
    PrevHash,
}

/// An append-only blockchain with checkpoint-driven pruning.
#[derive(Debug)]
pub struct Blockchain {
    /// Blocks currently retained (pruned below `base_seq`).
    blocks: Vec<Block>,
    /// Sequence number of `blocks[0]`.
    base_seq: SeqNum,
    /// Number of commit signatures a certificate must carry (2f+1).
    commit_quorum: usize,
    mode: ChainMode,
    /// Hash of the last appended block (for `PrevHash` mode).
    head_hash: Digest,
}

impl Blockchain {
    /// Creates a chain holding only the genesis block.
    ///
    /// `seed` becomes the genesis digest (the paper suggests the hash of
    /// the first primary's identifier); `commit_quorum` is `2f+1`.
    pub fn new(seed: Digest, commit_quorum: usize, mode: ChainMode) -> Self {
        let genesis = Block::genesis(seed);
        let head_hash = digest(&genesis.canonical_bytes());
        Blockchain {
            blocks: vec![genesis],
            base_seq: SeqNum(0),
            commit_quorum,
            mode,
            head_hash,
        }
    }

    /// Height of the last block (genesis = 0).
    pub fn head_seq(&self) -> SeqNum {
        self.head().seq
    }

    /// The last block (genesis, or a snapshot's, when nothing was appended).
    pub fn head(&self) -> &Block {
        self.blocks.last().expect("the head block is never pruned")
    }

    /// Number of retained blocks (including genesis until pruned).
    pub fn retained(&self) -> usize {
        self.blocks.len()
    }

    /// Appends the block for the batch committed at `seq`.
    ///
    /// The caller provides the batch digest, the view, the certificate
    /// gathered from 2f+1 `Commit` signatures, and the execution-result
    /// digest. The link is built according to [`ChainMode`].
    ///
    /// # Errors
    /// Returns [`CommonError::InvalidMessage`] if `seq` is not exactly one
    /// past the head, or the certificate is smaller than the commit quorum.
    pub fn append(
        &mut self,
        seq: SeqNum,
        batch_digest: Digest,
        view: ViewNum,
        certificate: BlockCertificate,
        txn_count: u32,
        result_digest: Digest,
    ) -> Result<&Block> {
        if seq != self.head_seq().next() {
            return Err(CommonError::InvalidMessage(format!(
                "appending {seq} but head is {}",
                self.head_seq()
            )));
        }
        if certificate.signer_count() < self.commit_quorum {
            return Err(CommonError::InvalidMessage(format!(
                "certificate carries {} signatures, quorum is {}",
                certificate.signer_count(),
                self.commit_quorum
            )));
        }
        let link = match self.mode {
            ChainMode::Certificate => BlockLink::Certificate(certificate),
            ChainMode::PrevHash => BlockLink::Hash(self.head_hash),
        };
        let block = Block {
            seq,
            digest: batch_digest,
            view,
            link,
            txn_count,
            result_digest,
        };
        if self.mode == ChainMode::PrevHash {
            self.head_hash = digest(&block.canonical_bytes());
        }
        self.blocks.push(block);
        Ok(self.blocks.last().expect("just pushed"))
    }

    /// The block at `seq`, if retained.
    pub fn block_at(&self, seq: SeqNum) -> Option<&Block> {
        let idx = seq.0.checked_sub(self.base_seq.0)? as usize;
        self.blocks.get(idx)
    }

    /// Iterates over the retained blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Blocks in `(after, up_to]`, for building checkpoint messages.
    pub fn blocks_between(&self, after: SeqNum, up_to: SeqNum) -> Vec<Block> {
        self.blocks
            .iter()
            .filter(|b| b.seq > after && b.seq <= up_to)
            .cloned()
            .collect()
    }

    /// Discards blocks strictly below `keep_from` (checkpoint GC,
    /// Section 4.7: a stable checkpoint lets replicas clear old blocks).
    ///
    /// Never prunes past the head: a checkpoint becomes stable from 2f+1
    /// *remote* checkpoint messages, which can happen while this
    /// replica's own execution still lags behind the covered sequence —
    /// advancing the base past the head would make the replica's next
    /// (perfectly sequential) append look like a gap. The unpruned tail
    /// is collected by a later checkpoint once execution catches up.
    ///
    /// Returns the base after pruning, so callers can tell whether the
    /// request was clamped (returned base < requested `keep_from`) and
    /// needs retrying later.
    pub fn prune_below(&mut self, keep_from: SeqNum) -> SeqNum {
        let keep_from = SeqNum(keep_from.0.min(self.head_seq().0));
        if keep_from <= self.base_seq {
            return self.base_seq;
        }
        let cut = ((keep_from.0 - self.base_seq.0) as usize).min(self.blocks.len());
        self.blocks.drain(..cut);
        self.base_seq = keep_from;
        self.base_seq
    }

    /// Rolls the chain back to `seq`, discarding every block above it
    /// (Zyzzyva mis-speculation rollback: the speculative suffix is
    /// abandoned and the reconciled history re-appended).
    ///
    /// `seq` must be retained (at or above the pruning base) — rolling back
    /// below a stable checkpoint would contradict 2f+1 replicas.
    ///
    /// Returns how many blocks were discarded.
    pub fn truncate_to(&mut self, seq: SeqNum) -> usize {
        assert!(
            seq >= self.base_seq,
            "cannot roll back to {seq}: pruned below base {}",
            self.base_seq
        );
        if seq >= self.head_seq() {
            return 0;
        }
        let keep = (seq.0 - self.base_seq.0) as usize + 1;
        let dropped = self.blocks.len() - keep;
        self.blocks.truncate(keep);
        self.head_hash = digest(&self.head().canonical_bytes());
        dropped
    }

    /// Replaces the whole chain with a single snapshot block: the verified
    /// block at a remote peer's stable checkpoint. Everything this replica
    /// held (possibly nothing but genesis) is discarded; execution resumes
    /// at `block.seq + 1` on top of the installed state.
    pub fn install_snapshot_block(&mut self, block: Block) {
        self.head_hash = digest(&block.canonical_bytes());
        self.base_seq = block.seq;
        self.blocks = vec![block];
    }

    /// Verifies the retained chain: sequence continuity, certificate
    /// quorums, and (in `PrevHash` mode) the hash links.
    pub fn verify(&self) -> Result<()> {
        for pair in self.blocks.windows(2) {
            let (prev, cur) = (&pair[0], &pair[1]);
            if cur.seq != prev.seq.next() {
                return Err(CommonError::InvalidMessage(format!(
                    "gap between {} and {}",
                    prev.seq, cur.seq
                )));
            }
            match &cur.link {
                BlockLink::Certificate(cert) => {
                    if cert.signer_count() < self.commit_quorum {
                        return Err(CommonError::InvalidMessage(format!(
                            "block {} certificate below quorum",
                            cur.seq
                        )));
                    }
                }
                BlockLink::Hash(h) => {
                    if *h != digest(&prev.canonical_bytes()) {
                        return Err(CommonError::InvalidMessage(format!(
                            "block {} hash link does not match block {}",
                            cur.seq, prev.seq
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Digest over the retained chain head — combined with the store digest
    /// to form checkpoint state digests.
    pub fn head_digest(&self) -> Digest {
        digest(&self.head().canonical_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ids::{ReplicaId, SignatureBytes};

    fn cert(n: usize) -> BlockCertificate {
        BlockCertificate::new(
            (0..n)
                .map(|i| (ReplicaId(i as u32), SignatureBytes(vec![i as u8; 16])))
                .collect(),
        )
    }

    fn chain(mode: ChainMode) -> Blockchain {
        Blockchain::new(digest(b"genesis"), 3, mode)
    }

    #[test]
    fn append_and_verify_certificate_mode() {
        let mut c = chain(ChainMode::Certificate);
        for i in 1..=10u64 {
            c.append(
                SeqNum(i),
                digest(&i.to_le_bytes()),
                ViewNum(0),
                cert(3),
                100,
                Digest::ZERO,
            )
            .unwrap();
        }
        assert_eq!(c.head_seq(), SeqNum(10));
        assert!(c.verify().is_ok());
    }

    #[test]
    fn append_and_verify_prevhash_mode() {
        let mut c = chain(ChainMode::PrevHash);
        for i in 1..=10u64 {
            c.append(
                SeqNum(i),
                digest(&i.to_le_bytes()),
                ViewNum(0),
                cert(3),
                100,
                Digest::ZERO,
            )
            .unwrap();
        }
        assert!(c.verify().is_ok());
        // Tamper with a middle block: verification must fail.
        let mut tampered = chain(ChainMode::PrevHash);
        for i in 1..=5u64 {
            tampered
                .append(
                    SeqNum(i),
                    digest(&i.to_le_bytes()),
                    ViewNum(0),
                    cert(3),
                    100,
                    Digest::ZERO,
                )
                .unwrap();
        }
        tampered.blocks[2].digest = digest(b"evil");
        assert!(tampered.verify().is_err());
    }

    #[test]
    fn rejects_gap_and_small_certificate() {
        let mut c = chain(ChainMode::Certificate);
        assert!(c
            .append(
                SeqNum(2),
                Digest::ZERO,
                ViewNum(0),
                cert(3),
                1,
                Digest::ZERO
            )
            .is_err());
        assert!(c
            .append(
                SeqNum(1),
                Digest::ZERO,
                ViewNum(0),
                cert(2),
                1,
                Digest::ZERO
            )
            .is_err());
        assert!(c
            .append(
                SeqNum(1),
                Digest::ZERO,
                ViewNum(0),
                cert(3),
                1,
                Digest::ZERO
            )
            .is_ok());
    }

    #[test]
    fn block_lookup() {
        let mut c = chain(ChainMode::Certificate);
        for i in 1..=5u64 {
            c.append(
                SeqNum(i),
                digest(&i.to_le_bytes()),
                ViewNum(0),
                cert(3),
                10,
                Digest::ZERO,
            )
            .unwrap();
        }
        assert_eq!(c.block_at(SeqNum(0)).unwrap().seq, SeqNum(0));
        assert_eq!(
            c.block_at(SeqNum(3)).unwrap().digest,
            digest(&3u64.to_le_bytes())
        );
        assert!(c.block_at(SeqNum(6)).is_none());
    }

    #[test]
    fn pruning_respects_base() {
        let mut c = chain(ChainMode::Certificate);
        for i in 1..=10u64 {
            c.append(
                SeqNum(i),
                digest(&i.to_le_bytes()),
                ViewNum(0),
                cert(3),
                10,
                Digest::ZERO,
            )
            .unwrap();
        }
        c.prune_below(SeqNum(6));
        assert_eq!(c.retained(), 5); // blocks 6..=10
        assert!(c.block_at(SeqNum(5)).is_none());
        assert_eq!(c.block_at(SeqNum(6)).unwrap().seq, SeqNum(6));
        // Appending continues to work after pruning.
        c.append(
            SeqNum(11),
            Digest::ZERO,
            ViewNum(0),
            cert(3),
            10,
            Digest::ZERO,
        )
        .unwrap();
        assert_eq!(c.head_seq(), SeqNum(11));
        assert!(c.verify().is_ok());
        // Pruning below the base is a no-op.
        c.prune_below(SeqNum(2));
        assert_eq!(c.block_at(SeqNum(6)).unwrap().seq, SeqNum(6));
    }

    #[test]
    fn pruning_past_the_head_clamps_instead_of_gapping() {
        // Regression: a stable checkpoint (assembled from 2f+1 remote
        // checkpoints) can cover sequences this replica has not executed
        // yet. Pruning must clamp at the head so the execute thread's
        // next append is still `head + 1`, not a phantom gap.
        let mut c = chain(ChainMode::Certificate);
        for i in 1..=3u64 {
            c.append(
                SeqNum(i),
                digest(&i.to_le_bytes()),
                ViewNum(0),
                cert(3),
                10,
                Digest::ZERO,
            )
            .unwrap();
        }
        c.prune_below(SeqNum(10)); // checkpoint ahead of local execution
        assert_eq!(c.head_seq(), SeqNum(3), "head must not jump forward");
        assert_eq!(c.retained(), 1, "the head block itself is kept");
        // Execution continues exactly where it left off.
        c.append(
            SeqNum(4),
            Digest::ZERO,
            ViewNum(0),
            cert(3),
            10,
            Digest::ZERO,
        )
        .unwrap();
        assert!(c.verify().is_ok());
    }

    #[test]
    fn blocks_between_for_checkpoints() {
        let mut c = chain(ChainMode::Certificate);
        for i in 1..=10u64 {
            c.append(
                SeqNum(i),
                digest(&i.to_le_bytes()),
                ViewNum(0),
                cert(3),
                10,
                Digest::ZERO,
            )
            .unwrap();
        }
        let blocks = c.blocks_between(SeqNum(3), SeqNum(7));
        let seqs: Vec<u64> = blocks.iter().map(|b| b.seq.0).collect();
        assert_eq!(seqs, vec![4, 5, 6, 7]);
    }

    #[test]
    fn truncate_discards_suffix_and_reappends_identically() {
        let build = |upto: u64| {
            let mut c = chain(ChainMode::PrevHash);
            for i in 1..=upto {
                c.append(
                    SeqNum(i),
                    digest(&i.to_le_bytes()),
                    ViewNum(0),
                    cert(3),
                    10,
                    Digest::ZERO,
                )
                .unwrap();
            }
            c
        };
        let mut rolled = build(8);
        assert_eq!(rolled.truncate_to(SeqNum(5)), 3);
        assert_eq!(rolled.head_seq(), SeqNum(5));
        assert!(rolled.block_at(SeqNum(6)).is_none());
        // Re-executing 6..=8 yields a chain indistinguishable from one
        // that never speculated.
        for i in 6..=8u64 {
            rolled
                .append(
                    SeqNum(i),
                    digest(&i.to_le_bytes()),
                    ViewNum(0),
                    cert(3),
                    10,
                    Digest::ZERO,
                )
                .unwrap();
        }
        let straight = build(8);
        assert_eq!(rolled.head_digest(), straight.head_digest());
        assert!(rolled.verify().is_ok());
        // Truncating at or above the head is a no-op.
        assert_eq!(rolled.truncate_to(SeqNum(8)), 0);
        assert_eq!(rolled.truncate_to(SeqNum(20)), 0);
    }

    #[test]
    #[should_panic(expected = "pruned below base")]
    fn truncate_below_stable_base_panics() {
        let mut c = chain(ChainMode::Certificate);
        for i in 1..=6u64 {
            c.append(
                SeqNum(i),
                digest(&i.to_le_bytes()),
                ViewNum(0),
                cert(3),
                10,
                Digest::ZERO,
            )
            .unwrap();
        }
        c.prune_below(SeqNum(4));
        c.truncate_to(SeqNum(3));
    }

    #[test]
    fn install_snapshot_block_resumes_from_base() {
        // Build the "authoritative" chain a peer snapshotted at seq 5.
        let mut donor = chain(ChainMode::Certificate);
        for i in 1..=5u64 {
            donor
                .append(
                    SeqNum(i),
                    digest(&i.to_le_bytes()),
                    ViewNum(0),
                    cert(3),
                    10,
                    digest(&[i as u8]),
                )
                .unwrap();
        }
        let base_block = donor.block_at(SeqNum(5)).unwrap().clone();

        // A rejoining replica installs it over its genesis-only chain.
        let mut rejoiner = chain(ChainMode::Certificate);
        rejoiner.install_snapshot_block(base_block);
        assert_eq!(rejoiner.head_seq(), SeqNum(5));
        assert_eq!(rejoiner.retained(), 1);
        assert_eq!(rejoiner.head_digest(), donor.head_digest());
        assert!(rejoiner.block_at(SeqNum(0)).is_none(), "genesis discarded");
        // Execution resumes at base + 1.
        rejoiner
            .append(
                SeqNum(6),
                digest(b"next"),
                ViewNum(0),
                cert(3),
                10,
                Digest::ZERO,
            )
            .unwrap();
        assert!(rejoiner.verify().is_ok());
    }

    #[test]
    fn head_digest_changes_with_appends() {
        let mut c = chain(ChainMode::Certificate);
        let d0 = c.head_digest();
        c.append(
            SeqNum(1),
            digest(b"x"),
            ViewNum(0),
            cert(3),
            1,
            Digest::ZERO,
        )
        .unwrap();
        assert_ne!(c.head_digest(), d0);
    }
}
