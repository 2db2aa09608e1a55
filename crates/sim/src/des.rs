//! The discrete-event simulator.
//!
//! Models each replica as a set of multi-server stages (input, batch,
//! worker, execute, output) competing for a bounded number of cores, plus
//! a serialized NIC, and runs the replica itself inside them: every live
//! replica is an [`rdb_pipeline::Node`] — the runtime's batch assemblers,
//! `ReplicaCore` and in-order execute stage — stepped at virtual time.
//! How batches are cut, which messages a replica sends, when a batch
//! commits, in which order batches execute and when a checkpoint
//! stabilizes all come from [`Node::step`]; the simulator only prices
//! what the nodes do:
//!
//! - a client request is routed by [`rdb_pipeline::route`], as the
//!   runtime routes it; the leader's input stage pays for it and its
//!   assembler batches it, and each batch cut is priced on the batch
//!   stage (the worker under `0B`) before the node proposes it;
//! - a message a node sends is signed on the sender's output stage and
//!   transmitted by its NIC; one link latency later each receiver's input
//!   stage pays for it, and the receiver's worker steps on it;
//! - each in-order window a node hands out is priced batch by batch on the
//!   execute stage (the worker under `0E`); its results go back to the
//!   node, and its replies to the clients.
//!
//! Clients form a closed loop, as the paper's 80K do: each is the
//! runtime's [`ClientCore`] with one request outstanding, submitting the
//! next the moment one completes. Their requests are the batches the
//! primary proposes, each replica's replies reach them as real envelopes;
//! their timers fire at [`ClientCore::next_due`], and a node's at
//! [`Node::next_due`].

use crate::report::{SimReport, SimStage};
use crate::service::{Overheads, ServiceModel};
use rdb_common::messages::{Sender, SignedMessage};
use rdb_common::{
    ClientId, CryptoScheme, Digest, Message, ReplicaId, SeqNum, SignatureBytes, SystemConfig,
    ThreadConfig, Transaction,
};
use rdb_consensus::{ClientCore, ClientEffect, ClientInput};
use rdb_crypto::{CostModel, KeyRegistry};
use rdb_pipeline::{
    client_replies, route, Effect, ExecBackend, ExecuteItem, Input, Node, NodeEffect, NodeInput,
    OutItem, ReplicaCore, Route,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Ns = u64;

/// What the simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Full consensus (PBFT or Zyzzyva per the system config).
    Consensus,
    /// Figure 7's upper bound: the primary answers clients directly with
    /// no consensus; `execute` controls whether requests are executed.
    UpperBound {
        /// Execute requests before replying.
        execute: bool,
    },
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The deployment being simulated.
    pub system: SystemConfig,
    /// Crypto cost constants (defaults to production-library costs).
    pub cost: CostModel,
    /// Fixed stage overheads.
    pub overheads: Overheads,
    /// Per-replica NIC bandwidth in Gbit/s.
    pub bandwidth_gbps: f64,
    /// One-way link latency in microseconds.
    pub link_latency_us: f64,
    /// Number of crashed backups (highest-numbered replicas).
    pub failures: usize,
    /// Simulated warmup before measurement starts, in milliseconds.
    pub warmup_ms: u64,
    /// Measurement window, in milliseconds.
    pub measure_ms: u64,
    /// What to simulate.
    pub mode: SimMode,
}

impl SimConfig {
    /// Paper-like defaults around `system`.
    pub fn new(system: SystemConfig) -> Self {
        SimConfig {
            system,
            cost: CostModel::optimized(),
            overheads: Overheads::default(),
            bandwidth_gbps: 10.0,
            link_latency_us: 75.0,
            failures: 0,
            warmup_ms: 400,
            measure_ms: 1_200,
            mode: SimMode::Consensus,
        }
    }

    /// Runs the simulation to completion.
    pub fn run(&self) -> SimReport {
        let mut sim = Sim::new(self);
        sim.run_until(sim.end + sim.latency_ns * 4);
        sim.report()
    }
}

/// The nodes' execution back end: no state, and no serving snapshot (peers
/// are never far enough behind to need one).
struct NoLedger;

impl ExecBackend for NoLedger {}

/// Continuations: what happens when a job or transmission finishes.
#[derive(Debug)]
enum After {
    /// The input stage ingested client requests, each for its instance.
    Ingested(Vec<(usize, Vec<Transaction>)>),
    /// The input stage (or a batch thread, for a proposal) paid for this
    /// input: the worker steps on it next.
    Received(Input),
    /// The input stage paid for `count` client requests for `instance`,
    /// which another replica leads: the worker steps on that much demand.
    Demand { instance: usize, count: u64 },
    /// The worker paid for this input: step the node.
    Step(Input),
    /// Output signed a message; hand it to the NIC.
    Signed(OutItem),
    /// The NIC finished transmitting a message to all of its targets.
    Sent(OutItem),
    /// The execute stage ran `item` in execution epoch `epoch`.
    Executed { item: ExecuteItem, epoch: u64 },
    /// Output signed the batch's client replies; hand to NIC.
    RepliesSigned(ExecuteItem),
    /// NIC finished sending the replies.
    RepliesSent(ExecuteItem),
    /// Upper-bound mode: worker finished a chunk.
    UpperDone { count: u64, arrival: Ns },
    /// Upper-bound mode: NIC finished sending the replies for a chunk.
    UpperSent { count: u64, arrival: Ns },
}

#[derive(Debug)]
enum EventKind {
    /// A stage job completed.
    JobDone {
        replica: usize,
        stage: usize,
        service: Ns,
        after: After,
    },
    /// The NIC finished a transmission.
    NicDone { replica: usize, after: After },
    /// A job arrives at a stage's queue.
    JobArrive {
        replica: usize,
        stage: usize,
        service: Ns,
        after: After,
    },
    /// Upper-bound mode: client requests reach the primary.
    ClientArrive { count: u64 },
    /// These clients submit their first request (reach the primary, in
    /// upper-bound mode).
    Start(Range<usize>),
    /// A replica's messages reach their clients.
    ToClients { replica: usize, items: Vec<OutItem> },
    /// A replica's replies to an executed batch reach its clients.
    Replies { replica: usize, item: ExecuteItem },
    /// A client's timer may be due.
    ClientTick(usize),
    /// A replica's node may be due (a partial batch to cut).
    NodeTick(usize),
}

/// Stage indices, in [`SimStage::CPU`] order.
const S_INPUT: usize = 0;
const S_BATCH: usize = 1;
const S_WORKER: usize = 2;
const S_EXECUTE: usize = 3;
const S_OUTPUT: usize = 4;

#[derive(Debug, Default)]
struct StageState {
    servers: usize,
    busy: usize,
    queue: VecDeque<(Ns, After)>,
    busy_ns: u64,
}

struct Rep {
    stages: Vec<StageState>,
    cores: usize,
    cores_busy: usize,
    /// Jobs whose stage has a free server but no core was available.
    core_wait: VecDeque<(usize, Ns, After)>,
    nic_busy_until: Ns,
    nic_busy_ns: u64,
    /// The replica; `None` for a crashed one.
    node: Option<Node>,
    /// Per instance, the view the node has entered: what [`route`] asks.
    views: Vec<u64>,
    /// When its earliest pending `NodeTick` fires (`Ns::MAX`: none).
    tick_at: Ns,
    /// Batches executed.
    #[cfg(test)]
    executed: u64,
}

/// One simulated client.
struct Client {
    core: ClientCore,
    /// When its request in flight was submitted.
    sent_at: Ns,
    /// When its earliest pending `ClientTick` fires (`Ns::MAX`: none).
    tick_at: Ns,
    /// The signers of the commit certificate its request in flight sent.
    #[cfg(test)]
    certified: Option<Vec<ReplicaId>>,
}

struct Sim<'a> {
    cfg: &'a SimConfig,
    svc: ServiceModel,
    reps: Vec<Rep>,
    /// Pending events by time, then by scheduling order; each names the
    /// slot of `kinds` that holds it (the heap moves 24 bytes, not the
    /// event).
    events: BinaryHeap<Reverse<(Ns, u64, usize)>>,
    kinds: Vec<Option<EventKind>>,
    free_kinds: Vec<usize>,
    now: Ns,
    event_seq: u64,
    latency_ns: Ns,
    /// The nodes' and clients' clock at virtual time zero.
    start: Instant,
    clients: Vec<Client>,
    /// What the clients sent at the current instant, which travels
    /// together: per replica, the requests for the instances it leads,
    /// each with its instance, and how many requests for each instance it
    /// does not lead.
    requests: Vec<Vec<(usize, Vec<Transaction>)>>,
    demand: Vec<Vec<u64>>,
    retransmissions: u64,
    warmup_end: Ns,
    end: Ns,
    completed_txns: u64,
    latency_sum_ns: f64,
    latency_count: u64,
    /// Per instance, the batches committed at the primary.
    batches_committed: Vec<u64>,
    /// PrePrepare, Prepare and Commit messages sent, counted per target.
    #[cfg(test)]
    ordering_msgs: u64,
    /// Per completed request: the certificate it completed through, if
    /// its client sent one.
    #[cfg(test)]
    completions: Vec<Option<Vec<ReplicaId>>>,
}

/// The paper's input stage, which the model keeps pricing: every message
/// a replica receives is served here before its worker sees it. The
/// runtime has no such stage any more (its transport hands each message to
/// the stage that consumes it), so the model sizes it itself, as the
/// runtime's pools were sized: three threads, two in the monolithic
/// `0E 0B` configuration. Whether the model follows the runtime here is
/// for ROADMAP item 15, which prices the model from measurements.
fn model_input_threads(t: &ThreadConfig) -> usize {
    if t.execute_threads == 0 && t.batch_threads == 0 {
        2
    } else {
        3
    }
}

/// The paper's output stage, which the model keeps pricing as it does the
/// input stage: every client reply is served here. The runtime's execute
/// stage sends its replies itself, so the model sizes the stage as the
/// runtime's output pool was sized: two threads, one at `0E 0B`.
fn model_output_threads(t: &ThreadConfig) -> usize {
    if t.execute_threads == 0 && t.batch_threads == 0 {
        1
    } else {
        2
    }
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a SimConfig) -> Self {
        let sys = &cfg.system;
        let svc = ServiceModel::new(sys, cfg.cost.clone(), cfg.overheads.clone());
        let n = sys.n;
        let t = &sys.threads;
        let start = Instant::now();
        // `ServiceModel` prices the crypto of `sys.crypto`; the nodes
        // themselves sign and verify nothing.
        let registry = KeyRegistry::generate(CryptoScheme::NoCrypto, n, 0, 0);
        let k = sys.consensus_instances.max(1);
        // Sized as `spawn_replica` sizes its thread pools (but for the
        // input and output stages, see `model_input_threads` and
        // `model_output_threads`); a replica runs
        // exactly one worker (Section 4.3), while Figure 7's upper bound
        // measures two independent threads answering clients directly.
        let workers = match cfg.mode {
            SimMode::UpperBound { .. } => 2,
            SimMode::Consensus => 1,
        };
        let servers = [
            model_input_threads(t),
            t.batch_threads,
            workers,
            t.execute_threads,
            model_output_threads(t),
        ];
        let reps = (0..n)
            .map(|r| {
                let crashed = r != 0 && r >= n - cfg.failures;
                let id = ReplicaId(r as u32);
                let node = (!crashed).then(|| {
                    let provider = registry.provider_for_replica(id);
                    let core = ReplicaCore::new(sys, id, provider, None, start);
                    Node::new(core)
                        .with_batching(sys, start)
                        .with_stage(SeqNum(1), Arc::new(NoLedger))
                });
                Rep {
                    stages: servers
                        .iter()
                        .map(|&servers| StageState {
                            servers,
                            ..Default::default()
                        })
                        .collect(),
                    cores: sys.cores,
                    cores_busy: 0,
                    core_wait: VecDeque::new(),
                    nic_busy_until: 0,
                    nic_busy_ns: 0,
                    node,
                    views: vec![0; k],
                    tick_at: Ns::MAX,
                    #[cfg(test)]
                    executed: 0,
                }
            })
            .collect();
        let clients = match cfg.mode {
            SimMode::UpperBound { .. } => Vec::new(),
            SimMode::Consensus => (0..sys.num_clients as u64)
                .map(|c| Client {
                    core: ClientCore::new(ClientId(c), sys.protocol, sys.f, k, n, start),
                    sent_at: 0,
                    tick_at: Ns::MAX,
                    #[cfg(test)]
                    certified: None,
                })
                .collect(),
        };
        let warmup_end = cfg.warmup_ms * 1_000_000;
        let end = warmup_end + cfg.measure_ms * 1_000_000;
        let mut sim = Sim {
            cfg,
            svc,
            reps,
            events: BinaryHeap::new(),
            kinds: Vec::new(),
            free_kinds: Vec::new(),
            now: 0,
            event_seq: 0,
            latency_ns: (cfg.link_latency_us * 1_000.0) as Ns,
            start,
            clients,
            requests: vec![Vec::new(); n],
            demand: vec![vec![0; k]; n],
            retransmissions: 0,
            warmup_end,
            end,
            completed_txns: 0,
            latency_sum_ns: 0.0,
            latency_count: 0,
            batches_committed: vec![0; k],
            #[cfg(test)]
            ordering_msgs: 0,
            #[cfg(test)]
            completions: Vec::new(),
        };
        // Seed the closed loop: every client submits its one outstanding
        // request, staggered over a short ramp so the input stage is not
        // hit by one giant burst.
        let total = sys.num_clients as u64;
        let chunk = sys.batch_size as u64;
        let chunks = total.div_ceil(chunk);
        let ramp_ns: Ns = 20_000_000; // 20 ms
        for i in 0..chunks {
            let count = chunk.min(total - i * chunk);
            let (at, first) = (i * ramp_ns / chunks.max(1), (i * chunk) as usize);
            sim.push_event(at, EventKind::Start(first..first + count as usize));
        }
        sim
    }

    fn push_event(&mut self, at: Ns, kind: EventKind) {
        self.event_seq += 1;
        let slot = self.free_kinds.pop().unwrap_or(self.kinds.len());
        if slot == self.kinds.len() {
            self.kinds.push(None);
        }
        self.kinds[slot] = Some(kind);
        self.events.push(Reverse((at, self.event_seq, slot)));
    }

    fn live(&self, r: usize) -> bool {
        self.reps[r].node.is_some()
    }

    /// Enqueues a job for `stage` at `replica`, starting it if a server
    /// and core are free.
    fn enqueue(&mut self, replica: usize, stage: usize, service_ns: f64, after: After) {
        if !self.live(replica) {
            return;
        }
        let service = service_ns.max(1.0) as Ns;
        let rep = &mut self.reps[replica];
        let st = &mut rep.stages[stage];
        if st.busy < st.servers {
            if rep.cores_busy < rep.cores {
                st.busy += 1;
                rep.cores_busy += 1;
                let at = self.now + service;
                self.push_event(
                    at,
                    EventKind::JobDone {
                        replica,
                        stage,
                        service,
                        after,
                    },
                );
            } else {
                rep.core_wait.push_back((stage, service, after));
            }
        } else {
            st.queue.push_back((service, after));
        }
    }

    /// Called after a job releases its server+core: start whatever can run.
    fn dispatch(&mut self, replica: usize) {
        loop {
            let rep = &mut self.reps[replica];
            if rep.cores_busy >= rep.cores {
                return;
            }
            // First serve core-waiters whose stage has a free server, then
            // pull from the stage queues.
            let waiter = (0..rep.core_wait.len()).find(|&i| {
                let stage = rep.core_wait[i].0;
                rep.stages[stage].busy < rep.stages[stage].servers
            });
            let job = match waiter {
                Some(i) => rep.core_wait.remove(i),
                None => (0..SimStage::CPU.len()).find_map(|stage| {
                    let st = &mut rep.stages[stage];
                    if st.busy < st.servers {
                        st.queue
                            .pop_front()
                            .map(|(service, after)| (stage, service, after))
                    } else {
                        None
                    }
                }),
            };
            let Some((stage, service, after)) = job else {
                return;
            };
            rep.stages[stage].busy += 1;
            rep.cores_busy += 1;
            let at = self.now + service;
            self.push_event(
                at,
                EventKind::JobDone {
                    replica,
                    stage,
                    service,
                    after,
                },
            );
        }
    }

    /// Serialized NIC: transmission completes FIFO.
    fn nic_push(&mut self, replica: usize, bytes: f64, after: After) {
        if !self.live(replica) {
            return;
        }
        let tx_ns = (bytes * 8.0 / self.cfg.bandwidth_gbps).max(1.0) as Ns;
        let rep = &mut self.reps[replica];
        let start = rep.nic_busy_until.max(self.now);
        let done = start + tx_ns;
        rep.nic_busy_until = done;
        rep.nic_busy_ns += tx_ns;
        self.push_event(done, EventKind::NicDone { replica, after });
    }

    /// Queues a step of `replica`'s core on `input` at its worker.
    fn queue_step(&mut self, replica: usize, input: Input) {
        let service = self.svc.worker_step(&input);
        self.enqueue(replica, S_WORKER, service, After::Step(input));
    }

    /// Delivers a job to replica `to`'s input stage, which pays `service`
    /// for it one link latency from now.
    fn deliver(&mut self, to: usize, service: f64, after: After) {
        if !self.live(to) {
            return;
        }
        self.push_event(
            self.now + self.latency_ns,
            EventKind::JobArrive {
                replica: to,
                stage: S_INPUT,
                service: service.max(1.0) as Ns,
                after,
            },
        );
    }

    /// Delivers the envelope `sm` to replica `to`, verified.
    fn deliver_message(&mut self, to: usize, sm: SignedMessage) {
        let after = After::Received(Input::Verified(sm));
        self.deliver(to, self.svc.input_message(), after);
    }

    /// Sends what the clients sent at this instant on its way.
    fn flush_clients(&mut self) {
        for r in 0..self.reps.len() {
            if !self.requests[r].is_empty() {
                let requests = std::mem::take(&mut self.requests[r]);
                let txns: usize = requests.iter().map(|(_, txns)| txns.len()).sum();
                let service = txns as f64 * self.svc.input_request();
                self.deliver(r, service, After::Ingested(requests));
            }
            for instance in 0..self.demand[r].len() {
                let count = std::mem::take(&mut self.demand[r][instance]);
                if count > 0 {
                    let service = count as f64 * self.svc.input_request();
                    self.deliver(r, service, After::Demand { instance, count });
                }
            }
        }
    }

    // --- the replica nodes ---------------------------------------------------

    /// Steps `replica`'s node on `input` at the current virtual time,
    /// arms its timer just past its next due time and carries out its
    /// effects.
    fn step(&mut self, replica: usize, input: NodeInput) {
        let mut fx = Vec::new();
        let rep = &mut self.reps[replica];
        let Some(node) = rep.node.as_mut() else {
            return;
        };
        node.step(input, self.start + Duration::from_nanos(self.now), &mut fx);
        if let Some(due) = node.next_due() {
            let due = (due - self.start).as_nanos() as Ns + 1;
            if due < rep.tick_at {
                rep.tick_at = due;
                self.push_event(due, EventKind::NodeTick(replica));
            }
        }
        for effect in fx {
            self.apply(replica, effect);
        }
    }

    /// Ticks `replica`'s node if it is due and its batch stage has nothing
    /// queued: a batch thread cuts a partial batch only when idle (under
    /// `0B`, the worker does at once).
    fn tick_if_due(&mut self, replica: usize) {
        let rep = &self.reps[replica];
        let batch = &rep.stages[S_BATCH];
        let batching = batch.busy > 0
            || !batch.queue.is_empty()
            || rep.core_wait.iter().any(|(stage, ..)| *stage == S_BATCH);
        let now = self.start + Duration::from_nanos(self.now);
        let due = rep.node.as_ref().and_then(Node::next_due);
        if !batching && due.is_some_and(|due| now > due) {
            self.step(replica, Input::Tick.into());
        }
    }

    fn apply(&mut self, replica: usize, effect: NodeEffect) {
        match effect {
            NodeEffect::Propose(input) => {
                let Input::Propose { batch, .. } = &input else {
                    unreachable!("the assembler cuts only proposals");
                };
                let assemble = self.svc.assemble_batch(batch.len());
                if self.reps[replica].stages[S_BATCH].servers > 0 {
                    self.enqueue(replica, S_BATCH, assemble, After::Received(input));
                } else {
                    // 0B: assembly + propose folded into the worker.
                    let service = assemble + self.svc.worker_step(&input);
                    self.enqueue(replica, S_WORKER, service, After::Step(input));
                }
            }
            NodeEffect::Committed(instance) => {
                if replica == 0 {
                    self.batches_committed[instance] += 1;
                }
            }
            NodeEffect::Execute { window, epoch } => {
                let stage = if self.reps[replica].stages[S_EXECUTE].servers > 0 {
                    S_EXECUTE
                } else {
                    S_WORKER
                };
                for item in window {
                    // Gap-filling no-op batches carry no transactions.
                    let service = if item.batch.is_empty() {
                        0.0
                    } else {
                        self.svc.execute_batch(item.batch.len())
                    };
                    self.enqueue(replica, stage, service, After::Executed { item, epoch });
                }
            }
            NodeEffect::Core(Effect::Send(item)) => {
                #[cfg(test)]
                if matches!(
                    item.msg,
                    Message::PrePrepare { .. } | Message::Prepare { .. } | Message::Commit { .. }
                ) {
                    self.ordering_msgs += item.targets.len() as u64;
                }
                let service = self.svc.send_message(&item.msg);
                self.enqueue(replica, S_OUTPUT, service, After::Signed(item));
            }
            // `route` sends client traffic by this.
            NodeEffect::Core(Effect::ViewEntered { instance, view }) => {
                self.reps[replica].views[instance] = view.0;
            }
            // Fetch accounting: no replica serves a snapshot.
            NodeEffect::Core(_) => {}
        }
    }

    // --- the clients ---------------------------------------------------------

    /// Upper-bound mode: `count` requests reach the primary.
    fn on_client_arrive(&mut self, count: u64) {
        let SimMode::UpperBound { execute } = self.cfg.mode else {
            return;
        };
        let arrival = self.now;
        let per_req = self.svc.input_request()
            + if execute {
                self.cfg.overheads.store_op_ns * self.cfg.system.ops_per_txn as f64
            } else {
                0.0
            }
            + self.cfg.overheads.reply_create_ns;
        self.enqueue(
            0,
            S_WORKER,
            count as f64 * per_req,
            After::UpperDone { count, arrival },
        );
    }

    /// Client `c` submits its next request.
    fn submit(&mut self, c: usize) {
        let client = &mut self.clients[c];
        let txn = client.core.txn(Vec::new());
        client.sent_at = self.now;
        self.step_client(c, ClientInput::Submit(vec![txn]));
    }

    /// Steps client `c`'s core on `input` at the current virtual time,
    /// arms its timer and carries out its effects.
    fn step_client(&mut self, c: usize, input: ClientInput) {
        let mut fx = Vec::new();
        let client = &mut self.clients[c];
        client
            .core
            .step(input, self.start + Duration::from_nanos(self.now), &mut fx);
        if let Some(due) = client.core.next_due() {
            let due = (due - self.start).as_nanos() as Ns;
            if due < client.tick_at {
                client.tick_at = due;
                self.push_event(due, EventKind::ClientTick(c));
            }
        }
        for effect in fx {
            match effect {
                ClientEffect::Send { to, msg } => self.route(c, to, msg),
                ClientEffect::Complete { .. } => self.complete(c),
            }
        }
    }

    /// Carries a client's message to each of `to` where the runtime's
    /// router would: a request to the batching of an instance the
    /// replica leads, or to its demand for one it does not; anything else
    /// is verified worker input.
    fn route(&mut self, c: usize, to: Vec<ReplicaId>, msg: Message) {
        #[cfg(test)]
        if let Message::CommitCert { cert, .. } = &msg {
            let signers = (0..self.reps.len() as u32).map(ReplicaId);
            self.clients[c].certified = Some(signers.filter(|r| cert.contains(*r)).collect());
        }
        if to.len() > 1 && matches!(msg, Message::ClientRequest { .. }) {
            self.retransmissions += 1;
        }
        let from = Sender::Client(ClientId(c as u64));
        let sm = SignedMessage::new(msg, from, SignatureBytes::empty());
        let n = self.reps.len();
        for r in to {
            let views = &self.reps[r.0 as usize].views;
            let r = r.0 as usize;
            match route(sm.msg(), from, ReplicaId(r as u32), n, views.len(), |j| {
                views[j]
            }) {
                Route::Batch(instance) => {
                    if let Message::ClientRequest { txns } = sm.msg() {
                        self.requests[r].push((instance, txns.clone()));
                    }
                }
                Route::Demand(instance) => self.demand[r][instance] += 1,
                Route::Worker => self.deliver_message(r, sm.clone()),
            }
        }
    }

    /// Client `c`'s request completed; it submits the next while the
    /// closed loop runs.
    fn complete(&mut self, c: usize) {
        #[cfg(test)]
        self.completions.push(self.clients[c].certified.take());
        if self.now >= self.warmup_end && self.now < self.end {
            self.completed_txns += 1;
            self.latency_sum_ns += (self.now - self.clients[c].sent_at) as f64;
            self.latency_count += 1;
        }
        if self.now < self.end {
            self.submit(c);
        }
    }

    /// `replica`'s messages to clients arrive one link latency from now.
    fn deliver_to_clients(&mut self, replica: usize, items: Vec<OutItem>) {
        let at = self.now + self.latency_ns;
        self.push_event(at, EventKind::ToClients { replica, items });
    }

    /// Steps each item's client on it, as `replica`'s envelope.
    fn reach_clients(&mut self, replica: usize, items: Vec<OutItem>) {
        let from = Sender::Replica(ReplicaId(replica as u32));
        for item in items {
            if let [Sender::Client(c)] = item.targets[..] {
                let sm = SignedMessage::new(item.msg, from, SignatureBytes::empty());
                self.step_client(c.0 as usize, ClientInput::Reply(sm));
            }
        }
    }

    fn on_after(&mut self, replica: usize, after: After) {
        match after {
            After::Ingested(requests) => {
                for (instance, txns) in requests {
                    self.step(replica, NodeInput::Requests { instance, txns });
                }
            }
            After::Received(input) => self.queue_step(replica, input),
            After::Demand { instance, count } => {
                let input = Input::ClientDemand(instance);
                let service = count as f64 * self.svc.worker_step(&input);
                self.enqueue(replica, S_WORKER, service, After::Step(input));
            }
            After::Step(input) => self.step(replica, input.into()),
            After::Signed(item) => {
                let bytes = self.svc.message_bytes(&item.msg) * item.targets.len();
                self.nic_push(replica, bytes as f64, After::Sent(item));
            }
            // The only message a core sends a client.
            After::Sent(
                item @ OutItem {
                    msg: Message::LocalCommit { .. },
                    ..
                },
            ) => self.deliver_to_clients(replica, vec![item]),
            After::Sent(item) => {
                let from = Sender::Replica(ReplicaId(replica as u32));
                let sm = SignedMessage::new(item.msg, from, SignatureBytes::empty());
                for target in item.targets {
                    if let Sender::Replica(to) = target {
                        self.deliver_message(to.0 as usize, sm.clone());
                    }
                }
            }
            After::Executed { item, epoch } => {
                #[cfg(test)]
                {
                    self.reps[replica].executed += 1;
                }
                // Every replica reaches the same state at the same sequence.
                let seq = item.seq;
                let mut state_digest = Digest::ZERO;
                state_digest.0[..8].copy_from_slice(&seq.0.to_le_bytes());
                self.queue_step(
                    replica,
                    Input::Executed {
                        seq,
                        state_digest,
                        epoch,
                    },
                );
                if !item.batch.is_empty() {
                    let service = self.svc.reply_batch(item.batch.len());
                    self.enqueue(replica, S_OUTPUT, service, After::RepliesSigned(item));
                }
            }
            After::RepliesSigned(item) => {
                let bytes = self.svc.reply_bytes(item.batch.len()) as f64;
                self.nic_push(replica, bytes, After::RepliesSent(item));
            }
            After::RepliesSent(item) => {
                let at = self.now + self.latency_ns;
                self.push_event(at, EventKind::Replies { replica, item });
            }
            After::UpperDone { count, arrival } => {
                self.nic_push(
                    0,
                    self.svc.reply_bytes(count as usize) as f64,
                    After::UpperSent { count, arrival },
                );
            }
            After::UpperSent { count, arrival } => {
                let at = self.now + self.latency_ns;
                if at >= self.warmup_end && at < self.end {
                    self.completed_txns += count;
                    self.latency_sum_ns +=
                        count as f64 * ((at - arrival) as f64 + self.latency_ns as f64);
                    self.latency_count += count;
                }
                if at < self.end {
                    self.push_event(at + self.latency_ns, EventKind::ClientArrive { count });
                }
            }
        }
    }

    /// Processes events up to virtual time `until`.
    fn run_until(&mut self, until: Ns) {
        while let Some(Reverse((at, _, slot))) = self.events.pop() {
            if at > until {
                break;
            }
            self.now = at;
            self.free_kinds.push(slot);
            match self.kinds[slot].take().expect("a pending event") {
                EventKind::ClientArrive { count } => self.on_client_arrive(count),
                EventKind::JobArrive {
                    replica,
                    stage,
                    service,
                    after,
                } => {
                    self.enqueue(replica, stage, service as f64, after);
                }
                EventKind::JobDone {
                    replica,
                    stage,
                    service,
                    after,
                } => {
                    {
                        let rep = &mut self.reps[replica];
                        rep.stages[stage].busy -= 1;
                        rep.stages[stage].busy_ns += service;
                        rep.cores_busy -= 1;
                    }
                    self.on_after(replica, after);
                    self.dispatch(replica);
                    if stage == S_BATCH {
                        self.tick_if_due(replica);
                    }
                }
                EventKind::NicDone { replica, after } => self.on_after(replica, after),
                EventKind::Start(clients) => match self.cfg.mode {
                    SimMode::UpperBound { .. } => self.on_client_arrive(clients.len() as u64),
                    SimMode::Consensus => clients.for_each(|c| self.submit(c)),
                },
                EventKind::Replies { replica, item } => {
                    // Built as the executor builds them, once they arrive.
                    let results = std::iter::repeat_n(&[][..], item.batch.len());
                    let items = client_replies(&item, ReplicaId(replica as u32), results);
                    self.reach_clients(replica, items);
                }
                EventKind::ToClients { replica, items } => self.reach_clients(replica, items),
                EventKind::ClientTick(c) => {
                    if self.clients[c].tick_at == at {
                        self.clients[c].tick_at = Ns::MAX;
                        self.step_client(c, ClientInput::Tick);
                    }
                }
                EventKind::NodeTick(r) => {
                    if self.reps[r].tick_at == at {
                        self.reps[r].tick_at = Ns::MAX;
                        self.tick_if_due(r);
                    }
                }
            }
            if self
                .events
                .peek()
                .is_none_or(|Reverse((next, ..))| *next > self.now)
            {
                self.flush_clients();
            }
        }
    }

    fn report(&self) -> SimReport {
        // Saturation: busy per thread over the measured duration.
        let duration = self.end as f64;
        let sat = |rep: &Rep, s: usize| -> f64 {
            let st = &rep.stages[s];
            if st.servers == 0 {
                return 0.0;
            }
            100.0 * st.busy_ns as f64 / (duration * st.servers as f64)
        };
        let mut primary_saturation = BTreeMap::new();
        let mut backup_saturation = BTreeMap::new();
        let backups: Vec<&Rep> = self.reps[1..].iter().filter(|r| r.node.is_some()).collect();
        for (s, &stage) in SimStage::CPU.iter().enumerate() {
            primary_saturation.insert(stage, sat(&self.reps[0], s));
            let mean = if backups.is_empty() {
                0.0
            } else {
                backups.iter().map(|r| sat(r, s)).sum::<f64>() / backups.len() as f64
            };
            backup_saturation.insert(stage, mean);
        }
        primary_saturation.insert(
            SimStage::Nic,
            100.0 * self.reps[0].nic_busy_ns as f64 / duration,
        );

        let measure_s = self.cfg.measure_ms as f64 / 1_000.0;
        SimReport {
            throughput_tps: self.completed_txns as f64 / measure_s,
            avg_latency_ms: if self.latency_count == 0 {
                0.0
            } else {
                self.latency_sum_ns / self.latency_count as f64 / 1e6
            },
            completed_txns: self.completed_txns,
            batches_committed: self.batches_committed.iter().sum(),
            retransmissions: self.retransmissions,
            primary_saturation,
            backup_saturation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::{CryptoScheme, ProtocolKind};

    fn base(n: usize) -> SimConfig {
        let mut sys = SystemConfig::new(n).unwrap();
        sys.num_clients = 4_000;
        let mut cfg = SimConfig::new(sys);
        cfg.warmup_ms = 200;
        cfg.measure_ms = 400;
        cfg
    }

    #[test]
    fn pbft_sim_produces_throughput() {
        let report = base(4).run();
        assert!(report.throughput_tps > 1_000.0, "got {report}");
        assert!(report.avg_latency_ms > 0.0);
        assert!(report.batches_committed > 0);
    }

    #[test]
    fn zyzzyva_sim_produces_throughput() {
        let mut cfg = base(4);
        cfg.system.protocol = ProtocolKind::Zyzzyva;
        let report = cfg.run();
        assert!(report.throughput_tps > 1_000.0, "got {report}");
    }

    #[test]
    fn deterministic_runs() {
        let a = base(4).run();
        let b = base(4).run();
        assert_eq!(a.completed_txns, b.completed_txns);
        assert_eq!(a.batches_committed, b.batches_committed);
    }

    #[test]
    fn batching_beats_single_request_consensus() {
        let mut single = base(4);
        single.system.batch_size = 1;
        let mut batched = base(4);
        batched.system.batch_size = 100;
        let s = single.run();
        let b = batched.run();
        assert!(
            b.throughput_tps > s.throughput_tps * 3.0,
            "batched {} vs single {}",
            b.throughput_tps,
            s.throughput_tps
        );
    }

    #[test]
    fn pipelined_beats_monolith() {
        let mut mono = base(4);
        mono.system.threads = ThreadConfig::monolithic();
        let mut piped = base(4);
        piped.system.threads = ThreadConfig::standard();
        let m = mono.run();
        let p = piped.run();
        assert!(
            p.throughput_tps > m.throughput_tps,
            "pipelined {} vs monolithic {}",
            p.throughput_tps,
            m.throughput_tps
        );
    }

    /// Execution is priced by `store_op_ns`: at 400 µs an operation, a
    /// paged store's cost, it binds the whole pipeline.
    #[test]
    fn paged_storage_collapses_throughput() {
        let mem = base(4).run();
        let mut paged_cfg = base(4);
        paged_cfg.overheads.store_op_ns = 400_000.0;
        let paged = paged_cfg.run();
        assert!(
            paged.throughput_tps < mem.throughput_tps / 4.0,
            "paged {} vs mem {}",
            paged.throughput_tps,
            mem.throughput_tps
        );
    }

    #[test]
    fn rsa_slower_than_cmac() {
        let mut rsa_cfg = base(4);
        rsa_cfg.system.crypto = CryptoScheme::Rsa;
        let rsa = rsa_cfg.run();
        let cmac = base(4).run();
        assert!(
            cmac.throughput_tps > rsa.throughput_tps * 2.0,
            "cmac {} vs rsa {}",
            cmac.throughput_tps,
            rsa.throughput_tps
        );
    }

    #[test]
    fn zyzzyva_collapses_under_failure_pbft_does_not() {
        let mut pbft_fail = base(4);
        pbft_fail.failures = 1;
        let pbft = pbft_fail.run();

        let mut zyz_ok = base(4);
        zyz_ok.system.protocol = ProtocolKind::Zyzzyva;
        let zyz_healthy = zyz_ok.run();

        let mut zyz_fail = base(4);
        zyz_fail.system.protocol = ProtocolKind::Zyzzyva;
        zyz_fail.failures = 1;
        let zyz = zyz_fail.run();

        assert!(
            pbft.throughput_tps > zyz.throughput_tps * 2.0,
            "PBFT under failure {} must dominate Zyzzyva under failure {}",
            pbft.throughput_tps,
            zyz.throughput_tps
        );
        assert!(
            zyz.throughput_tps < zyz_healthy.throughput_tps / 2.0,
            "Zyzzyva must collapse: healthy {} vs failed {}",
            zyz_healthy.throughput_tps,
            zyz.throughput_tps
        );
    }

    #[test]
    fn upper_bound_exceeds_consensus() {
        let consensus = base(4).run();
        let mut ub_cfg = base(4);
        ub_cfg.mode = SimMode::UpperBound { execute: false };
        ub_cfg.system.crypto = CryptoScheme::NoCrypto;
        let ub = ub_cfg.run();
        assert!(
            ub.throughput_tps > consensus.throughput_tps,
            "upper bound {} vs consensus {}",
            ub.throughput_tps,
            consensus.throughput_tps
        );
    }

    #[test]
    fn fewer_cores_reduce_throughput() {
        let mut one_core = base(4);
        one_core.system.cores = 1;
        let one = one_core.run();
        let eight = base(4).run();
        assert!(
            eight.throughput_tps > one.throughput_tps * 1.5,
            "8 cores {} vs 1 core {}",
            eight.throughput_tps,
            one.throughput_tps
        );
    }

    /// The cores, not the simulator, decide the protocol's traffic: a
    /// fault-free 4-replica PBFT round is 3 pre-prepares, 3 × 3 prepares
    /// and 4 × 3 commits — the live runtime's `consensus.msgs_per_batch`.
    #[test]
    fn pbft_round_sends_24_ordering_messages() {
        let mut cfg = base(4);
        cfg.system.num_clients = 400;
        let mut sim = Sim::new(&cfg);
        // Past the closed loop's end, let every batch in flight finish.
        sim.run_until(Ns::MAX);
        let batches: u64 = sim.batches_committed.iter().sum();
        assert!(batches > 100, "only {batches} batches");
        assert_eq!(sim.ordering_msgs, 24 * batches);
        for rep in &sim.reps {
            assert_eq!(rep.executed, batches, "every replica executed all");
        }
    }

    /// The simulator's Zyzzyva slow path is the client cores': with every
    /// replica up no client sends a commit certificate, and with a backup
    /// down every request completes through one, signed by the three
    /// replicas that answered.
    #[test]
    fn zyzzyva_slow_path_is_the_client_cores() {
        let completions = |failures| {
            let mut cfg = base(4);
            cfg.system.protocol = ProtocolKind::Zyzzyva;
            cfg.failures = failures;
            let mut sim = Sim::new(&cfg);
            sim.run_until(sim.end);
            sim.completions
        };
        let healthy = completions(0);
        assert!(healthy.len() > 1_000, "{}", healthy.len());
        assert!(
            healthy.iter().all(Option::is_none),
            "a certificate went out"
        );
        let failed = completions(1);
        assert!(failed.len() > 1_000, "{}", failed.len());
        let answered = Some(vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)]);
        assert!(failed.iter().all(|signers| *signers == answered));
    }

    /// A closed loop with fewer clients than a batch holds still commits:
    /// the leader's assembler cuts the partial batch once it is overdue,
    /// well inside the clients' retransmission timer.
    #[test]
    fn fewer_clients_than_a_batch_commit_without_retransmitting() {
        let mut cfg = base(4);
        cfg.system.num_clients = 40;
        cfg.system.batch_size = 100;
        let report = cfg.run();
        assert!(report.batches_committed > 0, "got {report}");
        assert!(report.completed_txns > 0, "got {report}");
        assert_eq!(report.retransmissions, 0);
    }

    /// The simulator runs k instances itself: at k = 2 the primary commits
    /// batches of both instances, and spreading the leader-only batch
    /// stage over two leaders raises throughput by at least half.
    #[test]
    fn two_instances_commit_on_both_and_reach_one_and_a_half_times_one() {
        let run = |k| {
            let mut cfg = SimConfig::new(SystemConfig::new(4).unwrap());
            cfg.system.consensus_instances = k;
            cfg.warmup_ms = 200;
            cfg.measure_ms = 400;
            let mut sim = Sim::new(&cfg);
            sim.run_until(sim.end + sim.latency_ns * 4);
            (sim.report(), sim.batches_committed)
        };
        let (one, _) = run(1);
        let (two, committed) = run(2);
        assert!(
            committed.iter().all(|&c| c > 0),
            "both instances commit: {committed:?}"
        );
        assert!(
            two.throughput_tps >= 1.5 * one.throughput_tps,
            "k = 2 {} vs k = 1 {}",
            two.throughput_tps,
            one.throughput_tps
        );
    }

    #[test]
    fn saturation_reported() {
        let report = base(4).run();
        let batch_sat = report.primary_saturation[&SimStage::Batch];
        assert!(batch_sat > 1.0, "batch stage should be busy: {batch_sat}");
        assert!(report.primary_cumulative() > batch_sat);
    }
}
