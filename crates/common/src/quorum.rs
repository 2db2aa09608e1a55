//! Quorum arithmetic for BFT populations.
//!
//! PBFT tolerates `f` byzantine replicas out of `n >= 3f + 1`. The prepare
//! phase needs `2f` matching messages from *other* replicas, the commit phase
//! `2f + 1` (counting one's own), and Zyzzyva's speculative fast path needs
//! all `3f + 1` replies at the client.

/// Largest `f` tolerated by a population of `n` replicas (`f = (n - 1) / 3`).
///
/// Returns zero for degenerate populations (`n < 4` tolerates no faults).
pub fn max_faults(n: usize) -> usize {
    n.saturating_sub(1) / 3
}

/// Minimum population needed to tolerate `f` byzantine replicas.
pub fn min_replicas(f: usize) -> usize {
    3 * f + 1
}

/// Matching `Prepare` messages (from distinct backups) needed to become
/// *prepared*: `2f`.
pub fn prepare_quorum(f: usize) -> usize {
    2 * f
}

/// Matching `Commit` messages (including the replica's own) needed to become
/// *committed*: `2f + 1`.
pub fn commit_quorum(f: usize) -> usize {
    2 * f + 1
}

/// Matching `Checkpoint` messages needed to establish a stable checkpoint.
pub fn checkpoint_quorum(f: usize) -> usize {
    2 * f + 1
}

/// Replies a PBFT client must collect before accepting a result: `f + 1`
/// (at least one is from a non-faulty replica).
pub fn client_reply_quorum(f: usize) -> usize {
    f + 1
}

/// Speculative replies a Zyzzyva client needs for the single-phase fast
/// path: all `3f + 1`.
pub fn zyzzyva_fast_quorum(f: usize) -> usize {
    3 * f + 1
}

/// Speculative replies a Zyzzyva client needs to assemble a commit
/// certificate on the slow path: `2f + 1`.
pub fn zyzzyva_cc_quorum(f: usize) -> usize {
    2 * f + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_population_sizes() {
        // The paper evaluates n in {4, 8, 16, 32}.
        assert_eq!(max_faults(4), 1);
        assert_eq!(max_faults(8), 2);
        assert_eq!(max_faults(16), 5);
        assert_eq!(max_faults(32), 10);
    }

    #[test]
    fn quorums_for_sixteen_replicas() {
        let f = max_faults(16);
        assert_eq!(prepare_quorum(f), 10);
        assert_eq!(commit_quorum(f), 11);
        assert_eq!(client_reply_quorum(f), 6);
        assert_eq!(zyzzyva_fast_quorum(f), 16);
        assert_eq!(zyzzyva_cc_quorum(f), 11);
    }

    #[test]
    fn min_replicas_inverts_max_faults() {
        for f in 0..20 {
            let n = min_replicas(f);
            assert_eq!(max_faults(n), f);
            // One fewer replica tolerates fewer faults.
            assert!(max_faults(n - 1) < f || f == 0);
        }
    }

    #[test]
    fn liveness_under_failures() {
        // n=16, f=5: commit quorum 11 survives 5 failures but not 6.
        let quorum = commit_quorum(max_faults(16));
        assert!(16 >= quorum);
        assert!(16 - 5 >= quorum);
        assert!(16 - 6 < quorum);
    }

    #[test]
    fn degenerate_populations() {
        assert_eq!(max_faults(0), 0);
        assert_eq!(max_faults(1), 0);
        assert_eq!(max_faults(3), 0);
    }
}
