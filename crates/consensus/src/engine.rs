//! Protocol-agnostic replica engine.
//!
//! The pipeline drives consensus through [`ReplicaEngine`] so the protocol
//! is a runtime configuration knob (as in Figures 1, 8 and 17, which swap
//! PBFT for Zyzzyva on the same fabric). The engine is the shared
//! [`Replica`] over [`AnyRule`]: what the substrate owns is reached
//! directly, and only the genuinely per-protocol calls are forwarded.

use crate::actions::Action;
use crate::config::ConsensusConfig;
use crate::pbft::PbftRule;
use crate::substrate::{Fetched, MergedTail, ProtocolRule, Replica, Substrate};
use crate::zyzzyva::ZyzzyvaRule;
use rdb_common::messages::{BatchTail, SignedMessage};
use rdb_common::{Batch, Digest, ProtocolKind, ReplicaId, SeqNum};

/// A replica's consensus engine: PBFT or Zyzzyva behind one interface.
pub type ReplicaEngine = Replica<AnyRule>;

/// Whichever protocol rule the deployment configured.
#[derive(Debug)]
pub enum AnyRule {
    /// Three-phase PBFT.
    Pbft(PbftRule),
    /// Single-phase speculative Zyzzyva.
    Zyzzyva(ZyzzyvaRule),
}

impl ReplicaEngine {
    /// Creates the engine for `protocol` at replica `id`.
    pub fn new(protocol: ProtocolKind, id: ReplicaId, config: ConsensusConfig) -> Self {
        let rule = match protocol {
            ProtocolKind::Pbft => AnyRule::Pbft(PbftRule::new(&config)),
            ProtocolKind::Zyzzyva => AnyRule::Zyzzyva(ZyzzyvaRule::default()),
        };
        Replica::with_rule(id, config, rule)
    }

    /// The next sequence this engine would assign as primary, when the
    /// protocol exposes it (PBFT only — the multi-primary gap-fill logic
    /// needs it; Zyzzyva never runs with `k > 1`).
    pub fn next_seq(&self) -> Option<SeqNum> {
        match &self.rule {
            AnyRule::Pbft(p) => Some(p.next_seq),
            AnyRule::Zyzzyva(_) => None,
        }
    }
}

/// Forwards one [`ProtocolRule`] call to the configured protocol's rule.
macro_rules! forward {
    ($self:ident, $rule:ident => $call:expr) => {
        match $self {
            AnyRule::Pbft($rule) => $call,
            AnyRule::Zyzzyva($rule) => $call,
        }
    };
}

impl ProtocolRule for AnyRule {
    fn propose(&mut self, ctx: &Substrate, batch: Batch, digest: Digest) -> Vec<Action> {
        forward!(self, r => r.propose(ctx, batch, digest))
    }

    fn on_message(&mut self, ctx: &Substrate, sm: &SignedMessage) -> Vec<Action> {
        forward!(self, r => r.on_message(ctx, sm))
    }

    fn has_stalled_work(&self, ctx: &Substrate) -> bool {
        forward!(self, r => r.has_stalled_work(ctx))
    }

    fn tail(&self, ctx: &Substrate) -> BatchTail {
        forward!(self, r => r.tail(ctx))
    }

    fn prepared(&self) -> Vec<(SeqNum, Digest)> {
        forward!(self, r => r.prepared())
    }

    fn enter_view(&mut self, ctx: &Substrate, reissued: &[(SeqNum, Digest)]) -> Vec<Action> {
        forward!(self, r => r.enter_view(ctx, reissued))
    }

    fn lead_view(&mut self, ctx: &Substrate, merged: MergedTail) -> Vec<Action> {
        forward!(self, r => r.lead_view(ctx, merged))
    }

    fn prune(&mut self, ctx: &Substrate, stable: SeqNum) {
        forward!(self, r => r.prune(ctx, stable))
    }

    fn serve_fetch(&self, ctx: &Substrate, seq: SeqNum) -> Option<Fetched> {
        forward!(self, r => r.serve_fetch(ctx, seq))
    }

    fn install_fetched(
        &mut self,
        ctx: &mut Substrate,
        seq: SeqNum,
        fetched: Fetched,
    ) -> Vec<Action> {
        forward!(self, r => r.install_fetched(ctx, seq, fetched))
    }

    fn install_snapshot(&mut self, ctx: &Substrate, base: SeqNum, history: Digest) {
        forward!(self, r => r.install_snapshot(ctx, base, history))
    }

    fn fetch_wanted(&self, ctx: &Substrate, limit: usize) -> Vec<SeqNum> {
        forward!(self, r => r.fetch_wanted(ctx, limit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ViewNum;

    #[test]
    fn engine_dispatches_by_protocol() {
        let cfg = ConsensusConfig::new(4, 100);
        let mut p = ReplicaEngine::new(ProtocolKind::Pbft, ReplicaId(0), cfg);
        let mut z = ReplicaEngine::new(ProtocolKind::Zyzzyva, ReplicaId(0), cfg);
        let b1 = ReplicaEngine::new(ProtocolKind::Zyzzyva, ReplicaId(1), cfg);
        assert_eq!((p.id(), b1.id()), (ReplicaId(0), ReplicaId(1)));
        assert!(p.is_primary() && z.is_primary() && !b1.is_primary());
        assert_eq!((p.primary(), p.view()), (ReplicaId(0), ViewNum(0)));
        // The same call runs the configured rule: PBFT only orders, Zyzzyva
        // also executes speculatively.
        let speculates =
            |acts: Vec<Action>| acts.iter().any(|a| matches!(a, Action::SpecExecute { .. }));
        assert!(!speculates(p.propose(Batch::new(Vec::new()), Digest::ZERO)));
        assert!(speculates(z.propose(Batch::new(Vec::new()), Digest::ZERO)));
        assert_eq!(p.next_seq(), Some(SeqNum(2)));
        assert_eq!(z.next_seq(), None);
    }
}
