//! Consensus-level configuration shared by both protocols.

use rdb_common::{quorum, ReplicaId, SeqNum, ViewNum};

/// Parameters the state machines need (a slice of
/// [`rdb_common::SystemConfig`], kept small so the machines stay portable
/// between the threaded runtime and the simulator). Every field describes
/// the honest protocol; faults, lies included, are injected outside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsensusConfig {
    /// Number of replicas.
    pub n: usize,
    /// Tolerated faults `f = (n-1)/3`.
    pub f: usize,
    /// Broadcast a checkpoint every this many executed *batches*.
    pub checkpoint_interval_batches: u64,
    /// Which multi-primary consensus instance this state machine runs
    /// (`0` for single-primary deployments).
    pub instance: u32,
    /// Total parallel consensus instances `k` sharing the global sequence
    /// space. Instance `j` owns sequences `j+1, j+1+k, j+1+2k, …` and is
    /// led by replica `(view + j) mod n`. `1` is classic PBFT.
    pub instances: u64,
}

impl ConsensusConfig {
    /// Creates a config for `n` replicas (deriving `f`).
    ///
    /// # Panics
    /// Panics if `n < 4`.
    pub fn new(n: usize, checkpoint_interval_batches: u64) -> Self {
        assert!(n >= 4, "BFT needs at least 4 replicas");
        assert!(
            checkpoint_interval_batches > 0,
            "checkpoint interval must be positive"
        );
        ConsensusConfig {
            n,
            f: quorum::max_faults(n),
            checkpoint_interval_batches,
            instance: 0,
            instances: 1,
        }
    }

    /// Makes this config describe instance `j` of `k` parallel consensus
    /// instances (multi-primary ordering).
    ///
    /// # Panics
    /// Panics if `j >= k` or `k > n`.
    pub fn for_instance(mut self, instance: u32, instances: u64) -> Self {
        assert!(instances >= 1, "need at least one instance");
        assert!(
            (instance as u64) < instances,
            "instance {instance} out of range for k={instances}"
        );
        assert!(
            instances <= self.n as u64,
            "more instances ({instances}) than replicas ({})",
            self.n
        );
        self.instance = instance;
        self.instances = instances;
        self
    }

    /// The primary of *this instance* in `view`: replica
    /// `(view + instance) mod n`, so at any view the k instances are led
    /// by k distinct replicas.
    pub fn primary_of(&self, view: ViewNum) -> ReplicaId {
        ReplicaId(((view.0 + self.instance as u64) % self.n as u64) as u32)
    }

    /// The first global sequence this instance owns (`instance + 1`;
    /// sequence numbering starts at 1).
    pub fn first_seq(&self) -> SeqNum {
        SeqNum(self.instance as u64 + 1)
    }

    /// The next owned sequence strictly after `seq` (which need not itself
    /// be owned). From `SeqNum(0)` — "nothing yet" — this is the first
    /// owned sequence.
    pub fn next_owned(&self, seq: SeqNum) -> SeqNum {
        let first = self.first_seq();
        if seq < first {
            return first;
        }
        // Round seq down to the owned grid, then step one stride.
        let offset = (seq.0 - first.0) / self.instances;
        SeqNum(first.0 + (offset + 1) * self.instances)
    }

    /// Whether this instance owns global sequence `seq`.
    pub fn owns(&self, seq: SeqNum) -> bool {
        seq.0 >= 1 && (seq.0 - 1) % self.instances == self.instance as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_f() {
        let c = ConsensusConfig::new(16, 100);
        assert_eq!(c.f, 5);
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn too_small_panics() {
        let _ = ConsensusConfig::new(3, 100);
    }

    #[test]
    fn single_instance_matches_classic_pbft() {
        let c = ConsensusConfig::new(4, 100);
        assert_eq!(c.instance, 0);
        assert_eq!(c.instances, 1);
        assert_eq!(c.primary_of(ViewNum(0)), ReplicaId(0));
        assert_eq!(c.primary_of(ViewNum(5)), ReplicaId(1));
        assert_eq!(c.first_seq(), SeqNum(1));
        assert_eq!(c.next_owned(SeqNum(0)), SeqNum(1));
        assert_eq!(c.next_owned(SeqNum(1)), SeqNum(2));
        assert_eq!(c.next_owned(SeqNum(7)), SeqNum(8));
        assert!(c.owns(SeqNum(1)) && c.owns(SeqNum(2)));
        assert!(!c.owns(SeqNum(0)));
    }

    #[test]
    fn instance_stride_and_offset() {
        let c = ConsensusConfig::new(4, 100).for_instance(1, 2);
        assert_eq!(c.primary_of(ViewNum(0)), ReplicaId(1));
        assert_eq!(c.primary_of(ViewNum(1)), ReplicaId(2));
        assert_eq!(c.primary_of(ViewNum(3)), ReplicaId(0));
        assert_eq!(c.first_seq(), SeqNum(2));
        // Owned grid: 2, 4, 6, 8, …
        assert_eq!(c.next_owned(SeqNum(0)), SeqNum(2));
        assert_eq!(c.next_owned(SeqNum(1)), SeqNum(2));
        assert_eq!(c.next_owned(SeqNum(2)), SeqNum(4));
        assert_eq!(c.next_owned(SeqNum(3)), SeqNum(4));
        assert_eq!(c.next_owned(SeqNum(4)), SeqNum(6));
        assert!(c.owns(SeqNum(2)) && c.owns(SeqNum(4)));
        assert!(!c.owns(SeqNum(1)) && !c.owns(SeqNum(3)));

        // Four instances partition the space with no overlap.
        let configs: Vec<_> = (0..4)
            .map(|j| ConsensusConfig::new(4, 100).for_instance(j, 4))
            .collect();
        for s in 1..=32u64 {
            let owners = configs.iter().filter(|c| c.owns(SeqNum(s))).count();
            assert_eq!(owners, 1, "seq {s} must have exactly one owner");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn instance_out_of_range_panics() {
        let _ = ConsensusConfig::new(4, 100).for_instance(2, 2);
    }
}
