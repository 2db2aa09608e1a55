//! Blockchain block structure.
//!
//! The paper's block is `B_i = {k, d, v, H(B_{i-1})}` (Section 2.2) but
//! ResilientDB replaces the previous-block hash with the 2f+1 `Commit`
//! signatures gathered during consensus (Section 4.6, "Block Generation"):
//! the certificate already proves the order, so re-hashing the chain on the
//! critical path is avoided. Both linkage styles are supported here so the
//! ablation bench can compare them.

use crate::codec::{read_vec, write_vec, Sink, Wire, WireReader, WireWriter};
use crate::error::{CommonError, Result};
use crate::ids::{Digest, ReplicaId, SeqNum, SignatureBytes, ViewNum};

/// Proof that 2f+1 distinct replicas committed a batch: the signatures on
/// their `Commit` messages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockCertificate {
    /// `(replica, signature-over-its-commit-message)` pairs, 2f+1 of them.
    pub commits: Vec<(ReplicaId, SignatureBytes)>,
}

impl BlockCertificate {
    /// Creates a certificate from commit signatures.
    pub fn new(commits: Vec<(ReplicaId, SignatureBytes)>) -> Self {
        BlockCertificate { commits }
    }

    /// Number of distinct signers: a replica listed twice counts once.
    pub fn signer_count(&self) -> usize {
        self.commits
            .iter()
            .enumerate()
            .filter(|(i, (r, _))| !self.commits[..*i].iter().any(|(q, _)| q == r))
            .count()
    }

    /// Whether `replica` contributed a signature.
    pub fn contains(&self, replica: ReplicaId) -> bool {
        self.commits.iter().any(|(r, _)| *r == replica)
    }
}

impl Wire for BlockCertificate {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        write_vec(w, &self.commits);
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(BlockCertificate {
            commits: read_vec(r)?,
        })
    }
}

/// How a block is linked to its predecessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockLink {
    /// Traditional chaining: hash of the previous block (genesis uses
    /// [`Digest::ZERO`]).
    Hash(Digest),
    /// ResilientDB chaining: the 2f+1 commit signatures certify the order,
    /// no hash of the previous block is computed.
    Certificate(BlockCertificate),
}

impl Wire for BlockLink {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        match self {
            BlockLink::Hash(d) => {
                w.put_u8(0);
                w.put_bytes(d.as_bytes());
            }
            BlockLink::Certificate(c) => {
                w.put_u8(1);
                c.write(w);
            }
        }
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(BlockLink::Hash(Digest(r.get_array32()?))),
            1 => Ok(BlockLink::Certificate(BlockCertificate::read(r)?)),
            t => Err(CommonError::Codec(format!("invalid block link tag {t}"))),
        }
    }
}

/// A block in the immutable ledger, one per executed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Consensus sequence number `k` of the batch this block records.
    pub seq: SeqNum,
    /// Digest `d` of the batch.
    pub digest: Digest,
    /// View `v` in which consensus completed (identifies the primary).
    pub view: ViewNum,
    /// Link to the predecessor block.
    pub link: BlockLink,
    /// Number of transactions executed in the batch.
    pub txn_count: u32,
    /// Digest over the execution results, so replicas can cross-check
    /// execution block by block: the state store's commitment at a
    /// checkpoint boundary, a digest chaining the batch's writes onto the
    /// previous block's in between (the executor decides which).
    pub result_digest: Digest,
}

impl Block {
    /// Constructs the genesis block. It carries dummy data (the paper
    /// suggests the hash of the first primary's identifier, passed here as
    /// `seed`).
    pub fn genesis(seed: Digest) -> Self {
        Block {
            seq: SeqNum(0),
            digest: seed,
            view: ViewNum(0),
            link: BlockLink::Hash(Digest::ZERO),
            txn_count: 0,
            result_digest: Digest::ZERO,
        }
    }

    /// Canonical bytes over which the block hash is computed.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.encode()
    }
}

impl Wire for Block {
    fn write(&self, w: &mut WireWriter<impl Sink>) {
        w.put_u64(self.seq.0);
        w.put_bytes(self.digest.as_bytes());
        w.put_u64(self.view.0);
        self.link.write(w);
        w.put_u32(self.txn_count);
        w.put_bytes(self.result_digest.as_bytes());
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(Block {
            seq: SeqNum(r.get_u64()?),
            digest: Digest(r.get_array32()?),
            view: ViewNum(r.get_u64()?),
            link: BlockLink::read(r)?,
            txn_count: r.get_u32()?,
            result_digest: Digest(r.get_array32()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cert() -> BlockCertificate {
        BlockCertificate::new(vec![
            (ReplicaId(0), SignatureBytes(vec![1; 8])),
            (ReplicaId(1), SignatureBytes(vec![2; 8])),
            (ReplicaId(3), SignatureBytes(vec![3; 8])),
        ])
    }

    #[test]
    fn genesis_block_properties() {
        let g = Block::genesis(Digest([7; 32]));
        assert_eq!(g.seq, SeqNum(0));
        assert_eq!(g.link, BlockLink::Hash(Digest::ZERO));
        assert_eq!(g.txn_count, 0);
    }

    #[test]
    fn block_round_trip_hash_link() {
        let b = Block {
            seq: SeqNum(5),
            digest: Digest([1; 32]),
            view: ViewNum(2),
            link: BlockLink::Hash(Digest([9; 32])),
            txn_count: 100,
            result_digest: Digest([4; 32]),
        };
        assert_eq!(Block::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn block_round_trip_certificate_link() {
        let b = Block {
            seq: SeqNum(6),
            digest: Digest([1; 32]),
            view: ViewNum(0),
            link: BlockLink::Certificate(cert()),
            txn_count: 50,
            result_digest: Digest([4; 32]),
        };
        assert_eq!(Block::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn encoded_len_is_exact() {
        let hash_block = Block {
            seq: SeqNum(5),
            digest: Digest([1; 32]),
            view: ViewNum(2),
            link: BlockLink::Hash(Digest([9; 32])),
            txn_count: 100,
            result_digest: Digest([4; 32]),
        };
        let cert_block = Block {
            link: BlockLink::Certificate(cert()),
            ..hash_block.clone()
        };
        for b in [hash_block, cert_block] {
            assert_eq!(b.encoded_len(), b.encode().len());
        }
        assert_eq!(cert().encoded_len(), cert().encode().len());
    }

    #[test]
    fn certificate_membership() {
        let c = cert();
        assert_eq!(c.signer_count(), 3);
        assert!(c.contains(ReplicaId(1)));
        assert!(!c.contains(ReplicaId(2)));
    }

    #[test]
    fn a_duplicated_signer_is_counted_once() {
        let mut c = cert();
        c.commits.push((ReplicaId(1), SignatureBytes(vec![2; 8])));
        c.commits.push((ReplicaId(1), SignatureBytes::empty()));
        assert_eq!(c.commits.len(), 5);
        assert_eq!(c.signer_count(), 3);
        let two = BlockCertificate::new(vec![
            (ReplicaId(0), SignatureBytes(vec![1; 8])),
            (ReplicaId(0), SignatureBytes(vec![1; 8])),
            (ReplicaId(2), SignatureBytes::empty()),
        ]);
        assert_eq!(two.signer_count(), 2, "short of a 2f+1 quorum of 3");
    }

    #[test]
    fn bad_link_tag_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(5);
        assert!(BlockLink::decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn blocks_vector_round_trip() {
        let blocks = vec![
            Block::genesis(Digest([1; 32])),
            Block::genesis(Digest([2; 32])),
        ];
        let mut w = WireWriter::new();
        write_vec(&mut w, &blocks);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(read_vec::<Block>(&mut r).unwrap(), blocks);
    }
}
