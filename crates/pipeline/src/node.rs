//! One replica as a value: [`Node`].
//!
//! A replica is three sans-IO parts: a [`BatchAssembler`] with one
//! pending batch per consensus instance, the [`ReplicaCore`] and the
//! execute stage ([`ExecStage`]), which carries out every effect that
//! touches execution state and answers a peer's fetch of a pruned range.
//! [`Node::step`] runs the part an input is for and hands out what passes
//! from one part to the next: a cut batch, stepped back as
//! [`Input::Propose`], and an in-order window, whose results come back as
//! [`Input::Executed`]. When is the driver's choice. The worker steps both
//! back at once (and builds its node without the parts that batch or
//! execute threads run), the figure simulator (`rdb_sim::des`) once it has
//! priced them, and the core tests at once, on one thread. A node steps
//! only what its driver has authenticated.

use crate::batch::BatchAssembler;
use crate::core::{client_instance, Effect, Input, ReplicaCore};
use crate::queues::{ExecBackend, ExecStage, ExecuteItem};
use rdb_common::messages::{Message, Sender};
use rdb_common::{ReplicaId, SeqNum, SystemConfig, Transaction};
use std::sync::Arc;
use std::time::Instant;

/// One thing that happened, for [`Node::step`].
#[derive(Debug, Clone)]
pub enum NodeInput {
    /// Authentic transactions for `instance`, which this replica leads:
    /// its assembler batches them (a node built [`Node::with_batching`]).
    Requests {
        /// The instance their client shards to.
        instance: usize,
        /// The transactions.
        txns: Vec<Transaction>,
    },
    /// Anything the core steps on.
    Core(Input),
}

impl From<Input> for NodeInput {
    fn from(input: Input) -> Self {
        NodeInput::Core(input)
    }
}

/// One thing the driver must do on the node's behalf, in order.
#[derive(Debug)]
pub enum NodeEffect {
    /// A batch the assembler cut, as the [`Input::Propose`] to step back.
    Propose(Input),
    /// A batch committed (or was speculatively ordered) on this instance.
    Committed(usize),
    /// The next in-order window, taken in execution epoch `epoch`: run it
    /// and step each result back as an [`Input::Executed`] in `epoch`. A
    /// back end with state runs it before the node steps again, as a
    /// rollback in that step would rewind the state at once.
    Execute {
        /// Consecutive sequences, the next one to execute first.
        window: Vec<ExecuteItem>,
        /// The stage's epoch when the window was taken.
        epoch: u64,
    },
    /// Everything else the core decided; without a stage, its execution
    /// effects too, for the stage's owner.
    Core(Effect),
}

/// Where a message that reaches a replica goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A client request for an instance the replica leads: to its batching.
    Batch(usize),
    /// A client request for an instance led elsewhere: only the demand
    /// counts (a rebroadcast reaches the leader too).
    Demand(usize),
    /// Everything else: to the core.
    Worker,
}

/// Routes `msg` from `from` at replica `me` of `n`, whose instance `j` of
/// `k` is in view `view_of(j)` and so led by replica `(view + j) % n`.
pub fn route(
    msg: &Message,
    from: Sender,
    me: ReplicaId,
    n: usize,
    k: usize,
    view_of: impl Fn(usize) -> u64,
) -> Route {
    if !matches!(msg, Message::ClientRequest { .. }) {
        return Route::Worker;
    }
    let j = client_instance(from, k);
    if (view_of(j) + j as u64) % n as u64 == me.0 as u64 {
        Route::Batch(j)
    } else {
        Route::Demand(j)
    }
}

/// One replica — see the module docs.
pub struct Node {
    pub(crate) core: ReplicaCore,
    /// With no instances when batch threads assemble.
    assembler: BatchAssembler,
    /// The execute stage and the state it applies its effects to; `None`
    /// when an execute thread owns them.
    pub(crate) stage: Option<(ExecStage, Arc<dyn ExecBackend + Send + Sync>)>,
    core_fx: Vec<Effect>,
}

impl Node {
    /// A node of `core` alone, whose execution effects go out as
    /// [`NodeEffect::Core`].
    pub fn new(core: ReplicaCore) -> Self {
        Node {
            core,
            assembler: BatchAssembler::default(),
            stage: None,
            core_fx: Vec::new(),
        }
    }

    /// Adds batching, one pending batch per consensus instance of
    /// `config`.
    pub fn with_batching(mut self, config: &SystemConfig, now: Instant) -> Self {
        self.assembler = BatchAssembler::new(config, now);
        self
    }

    /// Adds the execute stage, which runs `next` first and applies the
    /// execution effects to `backend`.
    pub fn with_stage(mut self, next: SeqNum, backend: Arc<dyn ExecBackend + Send + Sync>) -> Self {
        self.stage = Some((ExecStage::new(next), backend));
        self
    }

    /// The earliest flush deadline of a partial batch. Only an
    /// [`Input::Tick`] cuts one, so a driver steps one once this passes,
    /// however busy it is — or, as a batch thread does, once it is idle.
    pub fn next_due(&self) -> Option<Instant> {
        self.assembler.flush_deadline()
    }

    /// Reacts to `input` at time `now`, appending what the driver must do
    /// to `fx`.
    pub fn step(&mut self, input: NodeInput, now: Instant, fx: &mut Vec<NodeEffect>) {
        let mut cut = Vec::new();
        match input {
            NodeInput::Requests { instance, txns } => {
                self.assembler.push(instance, txns, now, &mut cut);
                fx.extend(cut.into_iter().map(NodeEffect::Propose));
            }
            NodeInput::Core(input) => {
                if matches!(input, Input::Tick) {
                    self.assembler.flush(now, &mut cut);
                    fx.extend(cut.into_iter().map(NodeEffect::Propose));
                }
                self.core.step(input, now, &mut self.core_fx);
                self.carry_out(fx);
            }
        }
    }

    /// Passes the core's effects on, the execution ones through the stage
    /// if the node holds it. The window is taken once the whole step is
    /// applied: a rollback rewinds the back end at once, so nothing it
    /// displaces may be handed out before it.
    fn carry_out(&mut self, fx: &mut Vec<NodeEffect>) {
        for effect in self.core_fx.drain(..) {
            if let Effect::Execute { instance, .. } = effect {
                fx.push(NodeEffect::Committed(instance));
            }
            match &mut self.stage {
                Some((stage, backend)) if effect.for_stage() => {
                    let answer = stage.apply(effect, &**backend);
                    fx.extend(answer.into_iter().map(NodeEffect::Core));
                }
                _ => fx.push(NodeEffect::Core(effect)),
            }
        }
        if let Some((stage, _)) = &mut self.stage {
            let window = stage.take_window(usize::MAX);
            if !window.is_empty() {
                let epoch = stage.epoch();
                fx.push(NodeEffect::Execute { window, epoch });
            }
        }
    }
}
