//! The discrete-event simulator.
//!
//! Models each replica as a set of multi-server stages (input, batch,
//! worker, execute, output) competing for a bounded number of cores, plus
//! a serialized NIC. Batches are the unit of work; replica-to-replica vote
//! floods are aggregated into quorum *bundles* whose arrival times are the
//! k-th order statistic of the senders' transmit-completion times — this
//! keeps the event count O(n) per batch instead of O(n²) while preserving
//! quorum timing, stage utilization and network load.
//!
//! Clients form a closed loop: a completed batch immediately re-submits
//! its transactions (after a link latency), so offered load self-regulates
//! exactly as the paper's 80K closed-loop clients do.

use crate::report::{SimReport, SimStage};
use crate::service::{Overheads, ServiceModel};
use rdb_common::{quorum, ProtocolKind, SystemConfig};
use rdb_crypto::CostModel;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

type Ns = u64;

/// How long a Zyzzyva client waits for all 3f+1 speculative replies
/// before distributing a commit certificate (the slow path).
const CLIENT_TIMEOUT_MS: Ns = 50;

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
        Sim::new(self).run()
    }
}

/// Vote phases whose floods are aggregated into bundles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Prepare,
    Commit,
}

/// Continuations: what happens when a job or transmission finishes.
#[derive(Debug, Clone)]
enum After {
    /// Input ingested a chunk of client requests.
    Ingested { count: u64, arrival: Ns },
    /// A batch-thread finished assembling the batch.
    BatchAssembled { batch: usize },
    /// The worker proposed the batch (primary).
    Proposed { batch: usize },
    /// Output signed the pre-prepare; hand to NIC.
    PrePrepareSigned { batch: usize },
    /// A backup's input ingested the pre-prepare.
    PrePrepareDelivered { batch: usize },
    /// A backup's worker validated the pre-prepare.
    PrePrepareProcessed { batch: usize },
    /// Output signed a vote; hand to NIC.
    VoteSigned { batch: usize, phase: Phase },
    /// NIC finished flooding a vote.
    VoteSent { batch: usize, phase: Phase },
    /// NIC finished sending the pre-prepare broadcast.
    PrePrepareSent { batch: usize },
    /// Input ingested a quorum (or straggler) vote bundle.
    VoteBundleIngested {
        batch: usize,
        phase: Phase,
        count: u64,
        advance: bool,
    },
    /// Worker processed a vote bundle that completed a quorum.
    QuorumReached { batch: usize, phase: Phase },
    /// Capacity-only work (stragglers); no protocol progress.
    Absorb,
    /// Execution of the batch finished.
    Executed { batch: usize },
    /// Output signed the batch's client replies; hand to NIC.
    RepliesSigned { batch: usize },
    /// NIC finished sending the replies.
    RepliesSent { batch: usize },
    /// Zyzzyva slow path: input ingested the commit certificates.
    CcIngested { batch: usize },
    /// Zyzzyva slow path: worker verified the commit certificates.
    CcProcessed { batch: usize },
    /// Zyzzyva slow path: output signed the local-commits; hand to NIC.
    LocalCommitsSigned { batch: usize },
    /// Zyzzyva slow path: NIC finished sending local-commits.
    LocalCommitsSent { batch: usize },
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
    /// Client requests reach the primary.
    ClientArrive { count: u64 },
    /// A Zyzzyva client's fast-path timer expired.
    ZyzzyvaTimeout { batch: usize },
}

struct Event {
    at: Ns,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

const STAGE_COUNT: usize = 5;
const S_INPUT: usize = 0;
const S_BATCH: usize = 1;
const S_WORKER: usize = 2;
const S_EXECUTE: usize = 3;
const S_OUTPUT: usize = 4;

fn stage_enum(idx: usize) -> SimStage {
    match idx {
        S_INPUT => SimStage::Input,
        S_BATCH => SimStage::Batch,
        S_WORKER => SimStage::Worker,
        S_EXECUTE => SimStage::Execute,
        _ => SimStage::Output,
    }
}

#[derive(Debug, Default)]
struct StageState {
    servers: usize,
    busy: usize,
    queue: VecDeque<(Ns, After)>,
    busy_ns: u64,
}

#[derive(Debug)]
struct Rep {
    stages: Vec<StageState>,
    cores: usize,
    cores_busy: usize,
    /// Jobs whose stage has a free server but no core was available.
    core_wait: VecDeque<(usize, Ns, After)>,
    nic_busy_until: Ns,
    nic_busy_ns: u64,
    crashed: bool,
}

/// Per-batch protocol bookkeeping.
#[derive(Debug, Default)]
struct BatchSt {
    size: u64,
    arrival: Ns,
    prepare_senders: Vec<(usize, Ns)>,
    prepare_sched: u64,
    prepare_absorbed: bool,
    commit_senders: Vec<(usize, Ns)>,
    commit_sched: u64,
    commit_absorbed: bool,
    reply_arrivals: u64,
    lc_arrivals: u64,
    completed: bool,
    cc_fired: bool,
}

struct Sim<'a> {
    cfg: &'a SimConfig,
    svc: ServiceModel,
    n: usize,
    f: usize,
    reps: Vec<Rep>,
    events: BinaryHeap<Reverse<Event>>,
    now: Ns,
    event_seq: u64,
    latency_ns: Ns,
    pool: u64,
    pool_arrivals: VecDeque<(u64, Ns)>,
    batches: Vec<BatchSt>,
    warmup_end: Ns,
    end: Ns,
    completed_txns: u64,
    latency_sum_ns: f64,
    latency_count: u64,
    batches_committed: u64,
    ckpt_amortized: f64,
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a SimConfig) -> Self {
        let sys = &cfg.system;
        let svc = ServiceModel::new(sys, cfg.cost.clone(), cfg.overheads.clone());
        let n = sys.n;
        let t = &sys.threads;
        let mut reps = Vec::with_capacity(n);
        for r in 0..n {
            let is_primary = r == 0;
            let mut stages = Vec::with_capacity(STAGE_COUNT);
            let servers = |s: usize| -> usize {
                match s {
                    S_INPUT => {
                        if is_primary {
                            t.client_input_threads + t.replica_input_threads
                        } else {
                            t.replica_input_threads.max(1)
                        }
                    }
                    S_BATCH => {
                        if is_primary {
                            t.batch_threads
                        } else {
                            0
                        }
                    }
                    // A replica runs exactly one worker (Section 4.3);
                    // Figure 7's upper bound measures two independent
                    // threads answering clients directly.
                    S_WORKER => {
                        if matches!(cfg.mode, SimMode::UpperBound { .. }) {
                            2
                        } else {
                            1
                        }
                    }
                    S_EXECUTE => t.execute_threads,
                    _ => t.output_threads.max(1),
                }
            };
            for s in 0..STAGE_COUNT {
                stages.push(StageState {
                    servers: servers(s),
                    ..Default::default()
                });
            }
            let crashed = r != 0 && r >= n - cfg.failures;
            reps.push(Rep {
                stages,
                cores: sys.cores,
                cores_busy: 0,
                core_wait: VecDeque::new(),
                nic_busy_until: 0,
                nic_busy_ns: 0,
                crashed,
            });
        }
        let warmup_end = cfg.warmup_ms * 1_000_000;
        let end = warmup_end + cfg.measure_ms * 1_000_000;
        let interval_batches = (sys.checkpoint_interval / sys.batch_size as u64).max(1);
        let ckpt_amortized = svc.checkpoint_worker_amortized(n, interval_batches);
        Sim {
            cfg,
            svc,
            n,
            f: sys.f,
            reps,
            events: BinaryHeap::new(),
            now: 0,
            event_seq: 0,
            latency_ns: (cfg.link_latency_us * 1_000.0) as Ns,
            pool: 0,
            pool_arrivals: VecDeque::new(),
            batches: Vec::new(),
            warmup_end,
            end,
            completed_txns: 0,
            latency_sum_ns: 0.0,
            latency_count: 0,
            batches_committed: 0,
            ckpt_amortized,
        }
    }

    fn push_event(&mut self, at: Ns, kind: EventKind) {
        self.event_seq += 1;
        self.events.push(Reverse(Event {
            at,
            seq: self.event_seq,
            kind,
        }));
    }

    /// Enqueues a job for `stage` at `replica`, starting it if a server
    /// and core are free.
    fn enqueue(&mut self, replica: usize, stage: usize, service_ns: f64, after: After) {
        if self.reps[replica].crashed {
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
            // First serve core-waiters whose stage has a free server.
            let mut started = false;
            for i in 0..rep.core_wait.len() {
                let stage = rep.core_wait[i].0;
                if rep.stages[stage].busy < rep.stages[stage].servers {
                    let (stage, service, after) = rep.core_wait.remove(i).expect("index checked");
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
                    started = true;
                    break;
                }
            }
            if started {
                continue;
            }
            // Then pull from stage queues.
            for stage in 0..STAGE_COUNT {
                let rep = &mut self.reps[replica];
                let st = &mut rep.stages[stage];
                if st.busy < st.servers && rep.cores_busy < rep.cores {
                    if let Some((service, after)) = st.queue.pop_front() {
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
                        started = true;
                        break;
                    }
                }
            }
            if !started {
                return;
            }
        }
    }

    /// Serialized NIC: transmission completes FIFO.
    fn nic_push(&mut self, replica: usize, bytes: f64, after: After) {
        if self.reps[replica].crashed {
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

    fn live(&self, r: usize) -> bool {
        !self.reps[r].crashed
    }

    fn live_count(&self) -> usize {
        self.reps.iter().filter(|r| !r.crashed).count()
    }

    // --- protocol flow -----------------------------------------------------

    fn on_client_arrive(&mut self, count: u64) {
        let arrival = self.now;
        match self.cfg.mode {
            SimMode::UpperBound { execute } => {
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
            SimMode::Consensus => {
                self.enqueue(
                    0,
                    S_INPUT,
                    count as f64 * self.svc.input_request(),
                    After::Ingested { count, arrival },
                );
            }
        }
    }

    fn form_batches(&mut self) {
        let b = self.cfg.system.batch_size as u64;
        while self.pool >= b {
            self.pool -= b;
            // The batch inherits the arrival time of its oldest requests.
            let mut need = b;
            let mut arrival = self.now;
            while need > 0 {
                let Some((cnt, t)) = self.pool_arrivals.front_mut() else {
                    break;
                };
                arrival = arrival.min(*t);
                if *cnt > need {
                    *cnt -= need;
                    need = 0;
                } else {
                    need -= *cnt;
                    self.pool_arrivals.pop_front();
                }
            }
            let id = self.batches.len();
            self.batches.push(BatchSt {
                size: b,
                arrival,
                ..Default::default()
            });
            let has_batch_stage = self.reps[0].stages[S_BATCH].servers > 0;
            if has_batch_stage {
                self.enqueue(
                    0,
                    S_BATCH,
                    self.svc.assemble_batch(),
                    After::BatchAssembled { batch: id },
                );
            } else {
                // 0B: assembly + propose folded into the worker.
                self.enqueue(
                    0,
                    S_WORKER,
                    self.svc.assemble_batch() + self.svc.propose(),
                    After::Proposed { batch: id },
                );
            }
        }
    }

    fn schedule_execute(&mut self, replica: usize, batch: usize) {
        let has_exec = self.reps[replica].stages[S_EXECUTE].servers > 0;
        let stage = if has_exec { S_EXECUTE } else { S_WORKER };
        self.enqueue(
            replica,
            stage,
            self.svc.execute_batch(),
            After::Executed { batch },
        );
    }

    /// Vote-bundle scheduling: when enough senders of `phase` have finished
    /// transmitting, each receiver ingests a quorum bundle; once all live
    /// senders finished, receivers absorb the stragglers.
    fn check_vote_receivers(&mut self, batch: usize, phase: Phase) {
        let protocol = self.cfg.system.protocol;
        debug_assert_eq!(protocol, ProtocolKind::Pbft, "vote phases are PBFT-only");
        let live_senders: Vec<usize> = match phase {
            // Backups send prepares; everyone sends commits.
            Phase::Prepare => (1..self.n).filter(|&r| self.live(r)).collect(),
            Phase::Commit => (0..self.n).filter(|&r| self.live(r)).collect(),
        };
        let senders_done: Vec<(usize, Ns)> = match phase {
            Phase::Prepare => self.batches[batch].prepare_senders.clone(),
            Phase::Commit => self.batches[batch].commit_senders.clone(),
        };
        for r in 0..self.n {
            if !self.live(r) {
                continue;
            }
            let bit = 1u64 << r;
            let sched = match phase {
                Phase::Prepare => self.batches[batch].prepare_sched & bit != 0,
                Phase::Commit => self.batches[batch].commit_sched & bit != 0,
            };
            if sched {
                continue;
            }
            // Quorum counting: own votes count without traveling the wire.
            // Prepare: prepared = 2f votes; a backup contributed its own,
            // the primary holds the pre-prepare. Commit: 2f+1 total, one
            // is the receiver's own.
            let needed_from_others = match phase {
                Phase::Prepare => {
                    if r == 0 {
                        quorum::prepare_quorum(self.f)
                    } else {
                        quorum::prepare_quorum(self.f).saturating_sub(1)
                    }
                }
                Phase::Commit => quorum::commit_quorum(self.f) - 1,
            };
            let from_others = senders_done.iter().filter(|(s, _)| *s != r).count();
            if from_others >= needed_from_others {
                match phase {
                    Phase::Prepare => self.batches[batch].prepare_sched |= bit,
                    Phase::Commit => self.batches[batch].commit_sched |= bit,
                }
                let count = needed_from_others as u64;
                let at = self.now + self.latency_ns;
                self.push_event(
                    at,
                    EventKind::JobArrive {
                        replica: r,
                        stage: S_INPUT,
                        service: (count as f64 * self.svc.input_message()).max(1.0) as Ns,
                        after: After::VoteBundleIngested {
                            batch,
                            phase,
                            count,
                            advance: true,
                        },
                    },
                );
            }
        }
        // Stragglers: once every live sender transmitted, receivers pay for
        // the surplus votes beyond their quorum (capacity only).
        let all_done = senders_done.len() >= live_senders.len();
        let absorbed = match phase {
            Phase::Prepare => self.batches[batch].prepare_absorbed,
            Phase::Commit => self.batches[batch].commit_absorbed,
        };
        if all_done && !absorbed {
            match phase {
                Phase::Prepare => self.batches[batch].prepare_absorbed = true,
                Phase::Commit => self.batches[batch].commit_absorbed = true,
            }
            for r in 0..self.n {
                if !self.live(r) {
                    continue;
                }
                let total_from_others = live_senders.iter().filter(|&&s| s != r).count();
                let needed = match phase {
                    Phase::Prepare => {
                        if r == 0 {
                            quorum::prepare_quorum(self.f)
                        } else {
                            quorum::prepare_quorum(self.f).saturating_sub(1)
                        }
                    }
                    Phase::Commit => quorum::commit_quorum(self.f) - 1,
                };
                let extra = total_from_others.saturating_sub(needed) as u64;
                if extra > 0 {
                    let at = self.now + self.latency_ns;
                    self.push_event(
                        at,
                        EventKind::JobArrive {
                            replica: r,
                            stage: S_INPUT,
                            service: (extra as f64 * self.svc.input_message()).max(1.0) as Ns,
                            after: After::VoteBundleIngested {
                                batch,
                                phase,
                                count: extra,
                                advance: false,
                            },
                        },
                    );
                }
            }
        }
    }

    fn complete_batch(&mut self, batch: usize, at: Ns) {
        if self.batches[batch].completed {
            return;
        }
        self.batches[batch].completed = true;
        let size = self.batches[batch].size;
        let arrival = self.batches[batch].arrival;
        if at >= self.warmup_end && at < self.end {
            self.completed_txns += size;
            // Full client-observed latency: request flight + pipeline +
            // reply flight (arrival timestamps are at the primary).
            self.latency_sum_ns += (at - arrival) as f64 + self.latency_ns as f64;
            self.latency_count += 1;
        }
        // Closed loop: the clients re-submit; their requests reach the
        // primary one link latency later.
        if at < self.end {
            self.push_event(
                at + self.latency_ns,
                EventKind::ClientArrive { count: size },
            );
        }
    }

    fn on_after(&mut self, replica: usize, after: After) {
        let protocol = self.cfg.system.protocol;
        match after {
            After::Ingested { count, arrival } => {
                self.pool += count;
                self.pool_arrivals.push_back((count, arrival));
                self.form_batches();
            }
            After::BatchAssembled { batch } => {
                self.enqueue(0, S_WORKER, self.svc.propose(), After::Proposed { batch });
            }
            After::Proposed { batch } => {
                self.enqueue(
                    0,
                    S_OUTPUT,
                    self.svc.sign_replica_msg(self.svc.batch_bytes),
                    After::PrePrepareSigned { batch },
                );
                if protocol == ProtocolKind::Zyzzyva {
                    // The primary executes its own proposal speculatively.
                    self.schedule_execute(0, batch);
                }
            }
            After::PrePrepareSigned { batch } => {
                let fanout = (self.n - 1) as f64;
                self.nic_push(
                    0,
                    fanout * self.svc.batch_bytes as f64,
                    After::PrePrepareSent { batch },
                );
            }
            After::PrePrepareSent { batch } => {
                for r in 1..self.n {
                    if !self.live(r) {
                        continue;
                    }
                    let at = self.now + self.latency_ns;
                    self.push_event(
                        at,
                        EventKind::JobArrive {
                            replica: r,
                            stage: S_INPUT,
                            service: self.svc.input_message().max(1.0) as Ns,
                            after: After::PrePrepareDelivered { batch },
                        },
                    );
                }
            }
            After::PrePrepareDelivered { batch } => {
                self.enqueue(
                    replica,
                    S_WORKER,
                    self.svc.verify_pre_prepare() + self.ckpt_amortized,
                    After::PrePrepareProcessed { batch },
                );
            }
            After::PrePrepareProcessed { batch } => match protocol {
                ProtocolKind::Pbft => {
                    self.enqueue(
                        replica,
                        S_OUTPUT,
                        self.svc.sign_replica_msg(self.svc.vote_bytes),
                        After::VoteSigned {
                            batch,
                            phase: Phase::Prepare,
                        },
                    );
                }
                ProtocolKind::Zyzzyva => {
                    self.schedule_execute(replica, batch);
                }
            },
            After::VoteSigned { batch, phase } => {
                let fanout = (self.n - 1) as f64;
                self.nic_push(
                    replica,
                    fanout * self.svc.vote_bytes as f64,
                    After::VoteSent { batch, phase },
                );
            }
            After::VoteSent { batch, phase } => {
                match phase {
                    Phase::Prepare => self.batches[batch]
                        .prepare_senders
                        .push((replica, self.now)),
                    Phase::Commit => self.batches[batch].commit_senders.push((replica, self.now)),
                }
                self.check_vote_receivers(batch, phase);
            }
            After::VoteBundleIngested {
                batch,
                phase,
                count,
                advance,
            } => {
                let after = if advance {
                    After::QuorumReached { batch, phase }
                } else {
                    After::Absorb
                };
                self.enqueue(
                    replica,
                    S_WORKER,
                    count as f64 * self.svc.process_vote(),
                    after,
                );
            }
            After::QuorumReached { batch, phase } => match phase {
                Phase::Prepare => {
                    self.enqueue(
                        replica,
                        S_OUTPUT,
                        self.svc.sign_replica_msg(self.svc.vote_bytes),
                        After::VoteSigned {
                            batch,
                            phase: Phase::Commit,
                        },
                    );
                }
                Phase::Commit => {
                    if replica == 0 {
                        self.batches_committed += 1;
                    }
                    self.schedule_execute(replica, batch);
                }
            },
            After::Absorb => {}
            After::Executed { batch } => {
                self.enqueue(
                    replica,
                    S_OUTPUT,
                    self.svc.reply_batch(),
                    After::RepliesSigned { batch },
                );
            }
            After::RepliesSigned { batch } => {
                let b = self.batches[batch].size as usize;
                self.nic_push(
                    replica,
                    self.svc.reply_bytes(b) as f64,
                    After::RepliesSent { batch },
                );
            }
            After::RepliesSent { batch } => {
                self.batches[batch].reply_arrivals += 1;
                let arrivals = self.batches[batch].reply_arrivals as usize;
                let client_sees_at = self.now + self.latency_ns;
                match protocol {
                    ProtocolKind::Pbft => {
                        if arrivals >= quorum::client_reply_quorum(self.f) {
                            self.complete_batch(batch, client_sees_at);
                        }
                    }
                    ProtocolKind::Zyzzyva => {
                        let live = self.live_count();
                        if self.cfg.failures == 0 {
                            // Fast path: all 3f+1 must answer.
                            if arrivals >= live {
                                self.complete_batch(batch, client_sees_at);
                            }
                        } else if arrivals >= quorum::zyzzyva_cc_quorum(self.f)
                            && !self.batches[batch].cc_fired
                        {
                            // Fast path is impossible: the client waits out
                            // its timer, then distributes certificates.
                            self.batches[batch].cc_fired = true;
                            let timeout = CLIENT_TIMEOUT_MS * 1_000_000;
                            self.push_event(
                                client_sees_at + timeout,
                                EventKind::ZyzzyvaTimeout { batch },
                            );
                        }
                    }
                }
            }
            After::CcIngested { batch } => {
                let b = self.batches[batch].size as f64;
                let q = quorum::zyzzyva_cc_quorum(self.f);
                self.enqueue(
                    replica,
                    S_WORKER,
                    b * self.svc.verify_commit_cert(q),
                    After::CcProcessed { batch },
                );
            }
            After::CcProcessed { batch } => {
                let b = self.batches[batch].size as f64;
                self.enqueue(
                    replica,
                    S_OUTPUT,
                    b * (self.cfg.overheads.reply_create_ns
                        + self.svc.sign_replica_msg(self.svc.vote_bytes)),
                    After::LocalCommitsSigned { batch },
                );
            }
            After::LocalCommitsSigned { batch } => {
                let b = self.batches[batch].size as f64;
                self.nic_push(
                    replica,
                    b * self.svc.vote_bytes as f64,
                    After::LocalCommitsSent { batch },
                );
            }
            After::LocalCommitsSent { batch } => {
                self.batches[batch].lc_arrivals += 1;
                if self.batches[batch].lc_arrivals as usize >= quorum::zyzzyva_cc_quorum(self.f) {
                    self.complete_batch(batch, self.now + self.latency_ns);
                }
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

    fn run(mut self) -> SimReport {
        // Seed the closed loop: every client submits its one outstanding
        // request, staggered over a short ramp so the input stage is not
        // hit by one giant burst.
        let total = self.cfg.system.num_clients as u64;
        let chunk = self.cfg.system.batch_size as u64;
        let chunks = total.div_ceil(chunk);
        let ramp_ns: Ns = 20_000_000; // 20 ms
        for i in 0..chunks {
            let count = chunk.min(total - i * chunk);
            let at = i * ramp_ns / chunks.max(1);
            self.push_event(at, EventKind::ClientArrive { count });
        }

        while let Some(Reverse(ev)) = self.events.pop() {
            if ev.at > self.end + self.latency_ns * 4 {
                break;
            }
            self.now = ev.at;
            match ev.kind {
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
                }
                EventKind::NicDone { replica, after } => self.on_after(replica, after),
                EventKind::ZyzzyvaTimeout { batch } => {
                    // The client broadcasts per-request commit certificates.
                    let b = self.batches[batch].size as f64;
                    for r in 0..self.n {
                        if !self.live(r) {
                            continue;
                        }
                        let at = self.now + self.latency_ns;
                        self.push_event(
                            at,
                            EventKind::JobArrive {
                                replica: r,
                                stage: S_INPUT,
                                service: (b * self.svc.input_message()).max(1.0) as Ns,
                                after: After::CcIngested { batch },
                            },
                        );
                    }
                }
            }
        }

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
        for s in 0..STAGE_COUNT {
            primary_saturation.insert(stage_enum(s), sat(&self.reps[0], s));
            let backups: Vec<&Rep> = self.reps[1..].iter().filter(|r| !r.crashed).collect();
            let mean = if backups.is_empty() {
                0.0
            } else {
                backups.iter().map(|r| sat(r, s)).sum::<f64>() / backups.len() as f64
            };
            backup_saturation.insert(stage_enum(s), mean);
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
            batches_committed: self.batches_committed,
            primary_saturation,
            backup_saturation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SQLITE_STAND_IN_OP_NS;
    use rdb_common::{CryptoScheme, ThreadConfig};

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

    #[test]
    fn paged_storage_collapses_throughput() {
        let mem = base(4).run();
        let mut paged_cfg = base(4);
        paged_cfg.overheads.store_op_ns = SQLITE_STAND_IN_OP_NS;
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

    #[test]
    fn saturation_reported() {
        let report = base(4).run();
        let batch_sat = report.primary_saturation[&SimStage::Batch];
        assert!(batch_sat > 1.0, "batch stage should be busy: {batch_sat}");
        assert!(report.primary_cumulative() > batch_sat);
    }
}
