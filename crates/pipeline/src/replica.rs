//! The threaded replica runtime (Figures 6a/6b): one replica [`Node`]
//! whose parts run on one loop per pipeline stage.
//!
//! ```text
//!             ┌─ client requests ─▶ batch_loop ─────── Propose ──────┐
//! transport ─▶ Router ─ replica msgs (unverified) ──────────────────▶ worker_loop ─▶ replica msgs ─▶ transport
//!  worker_loop ─▶ execution effects (FIFO) ─▶ execute_loop ─▶ client replies ─▶ transport
//!                                                  └─ Executed ─▶ worker_loop
//! ```
//!
//! Every stage is a plain function run by `ThreadConfig`-many threads;
//! [`spawn_replica`] only builds the shared state and starts them. All
//! decisions — consensus, timers, recovery — are made by the core, which
//! [`worker_loop`] steps through its [`Node`] and whose effects it alone
//! interprets. A replica message takes one hop, worker to worker:
//!
//! - The router ([`route_to_stage`]), the replica's delivery function, runs on the
//!   delivering thread and only pushes onto the consuming stage's channel
//!   ([`crate::route`]).
//! - [`worker_loop`] authenticates the messages of its backlog — every
//!   replica message, checkpoint votes included — one by one, steps the
//!   node and sends to replicas itself.
//! - [`batch_loop`] turns client requests into digested batches. Every
//!   batch thread reads the replica's one client-request channel and holds
//!   its own [`BatchAssembler`], with a pending batch for each instance
//!   this replica leads, so `B` threads serve the leader-only stage at any
//!   number of instances. `batch_threads = 0` leaves that to the node's
//!   own assembler, and the requests join the worker's backlog (the
//!   paper's `0B`).
//! - [`execute_loop`] owns the [`ExecStage`], fed the core's execution
//!   effects in order, and runs committed batches strictly in sequence
//!   order: serially for `execute_threads = 1`, through the conflict
//!   scheduler ([`crate::scheduler`]) for `N ≥ 2`, bit-identically. With
//!   `execute_threads = 0` the node holds the stage (`0E`, Figure 8).
//!   It signs each client reply and hands it to the transport itself, as
//!   the worker does its replica traffic: a frame to a client never waits
//!   for link space, so a slow client reader stalls no stage.
//!
//! Stage channels are unbounded: back-pressure comes from the closed-loop
//! clients and the transport, not from blocking a stage on its successor.

use crate::batch::{verify_window, BatchAssembler};
use crate::core::{client_instance, Effect, Input, ReplicaCore};
use crate::durable;
use crate::executor::{Executor, OutItem};
use crate::metrics::{MetricsRegistry, Stage, StageRecorder};
use crate::node::{route, Node, NodeEffect, NodeInput, Route};
use crate::queues::{ExecStage, ExecuteItem};
use crate::scheduler::{ExecPool, ParallelExecutor};
use crossbeam::channel::{self, Receiver, Sender as ChanSender};
use parking_lot::Mutex;
use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{Digest, ProtocolKind, ReplicaId, SeqNum, SystemConfig};
use rdb_crypto::{digest, CryptoProvider, CryptoStats, KeyRegistry, PeerClass};
use rdb_net::{Endpoint, NetHandle};
use rdb_storage::blockchain::ChainMode;
use rdb_storage::{Blockchain, MemStore, StateStore};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a stage blocks on its queue before re-checking for shutdown
/// (and, at the worker, the longest it goes without stepping the core).
pub const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Maximum committed sequences the parallel executor schedules in one
/// conflict graph (the in-order window of `execute_threads ≥ 2`).
pub const EXECUTE_WINDOW: usize = 4;

/// The most client requests a batch thread drains per wake-up, so a
/// pending partial batch's deadline is checked between drains.
const BATCH_DRAIN: usize = 32;

/// State shared between the replica's threads and exposed to callers.
pub struct ReplicaShared {
    /// This replica's id.
    pub id: ReplicaId,
    /// The key-value state.
    pub store: Arc<dyn StateStore>,
    /// The ledger.
    pub chain: Arc<Mutex<Blockchain>>,
    /// Per-thread saturation metrics.
    pub metrics: MetricsRegistry,
    /// The execution engine (owns executed-transaction counters).
    pub executor: Arc<Executor>,
    /// Sign/verify call counters shared by every stage thread's provider.
    pub crypto_stats: CryptoStats,
    committed_batches: AtomicU64,
    committed_per_instance: Vec<AtomicU64>,
    dropped_bad_sigs: AtomicU64,
    /// Per-instance installed views, updated by the worker on `EnterView` —
    /// the router sends client traffic for instance `j` to the batch
    /// stage only while `(view_j + j) % n` is this replica.
    instance_views: Vec<AtomicU64>,
    /// What restart-from-disk rebuilt (`None` when the replica runs
    /// memory-only, i.e. no `data_dir` configured).
    recovery: Option<durable::RecoveryReport>,
}

impl ReplicaShared {
    /// Batches committed by consensus so far (all instances).
    pub fn committed_batches(&self) -> u64 {
        self.committed_batches.load(Ordering::Relaxed)
    }

    /// Batches committed by consensus instance `j` so far.
    pub fn committed_batches_for(&self, j: usize) -> u64 {
        self.committed_per_instance[j].load(Ordering::Relaxed)
    }

    /// Messages dropped due to failed signature verification.
    pub fn dropped_bad_sigs(&self) -> u64 {
        self.dropped_bad_sigs.load(Ordering::Relaxed)
    }

    /// The view this replica currently has installed (instance 0's view —
    /// the classic single-primary notion when `consensus_instances == 1`).
    pub fn current_view(&self) -> u64 {
        self.instance_views[0].load(Ordering::Relaxed)
    }

    /// The view instance `j` currently has installed.
    pub fn instance_view(&self, j: usize) -> u64 {
        self.instance_views[j].load(Ordering::Relaxed)
    }

    /// Number of parallel consensus instances this replica runs.
    pub fn consensus_instances(&self) -> usize {
        self.instance_views.len()
    }

    /// What restart-from-disk recovery rebuilt at spawn time (`None` when
    /// the replica runs memory-only).
    pub fn recovery_report(&self) -> Option<durable::RecoveryReport> {
        self.recovery
    }
}

impl std::fmt::Debug for ReplicaShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaShared")
            .field("id", &self.id)
            .field("committed_batches", &self.committed_batches())
            .finish()
    }
}

/// A running replica: join handle bundle plus its shared state.
#[derive(Debug)]
pub struct ReplicaHandle {
    shared: Arc<ReplicaShared>,
    threads: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl ReplicaHandle {
    /// The replica's shared state (store, chain, metrics, counters).
    pub fn shared(&self) -> &Arc<ReplicaShared> {
        &self.shared
    }

    /// Stops all stage threads and joins them.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Spawns the full pipeline for replica `id` on `net`.
///
/// When `config.durability.data_dir` is set, the replica first rebuilds
/// itself from its per-replica directory (newest verified snapshot plus
/// the WAL suffix — see [`durable::recover_replica`]) and resumes
/// consensus past the recovered head; the outcome is published via
/// [`ReplicaShared::recovery_report`].
///
/// # Panics
/// Panics if the configuration is invalid (`config.validate()` fails) or
/// the replica data directory exists but cannot be opened for recovery.
pub fn spawn_replica(
    config: &SystemConfig,
    id: ReplicaId,
    net: &NetHandle,
    registry: &KeyRegistry,
) -> ReplicaHandle {
    config.validate().expect("invalid system configuration");
    let provider = registry.provider_for_replica(id);
    let threads_cfg = config.threads;
    let shared = build_shared(config, id, &provider);
    let (metrics, executor) = (&shared.metrics, &shared.executor);

    // --- channels -----------------------------------------------------------
    let (work_tx, work_rx) = channel::unbounded::<Work>();
    // The one client-request channel every batch thread reads. Batch
    // threads run on every replica: the channel only fills while this
    // replica leads an instance (routing is view-aware), and `propose` on
    // a backup engine is a no-op. Unused under `0B`, where the worker
    // batches.
    let (client_tx, client_rx) = channel::unbounded::<SignedMessage>();
    let client_tx = (threads_cfg.batch_threads > 0).then_some(client_tx);
    // `None` under `0E`: the worker's node holds the stage.
    let (exec_tx, exec_rx) = match threads_cfg.execute_threads {
        0 => (None, None),
        _ => {
            let (tx, rx) = channel::unbounded::<Effect>();
            (Some(tx), Some(rx))
        }
    };
    let deliver = {
        let (n, shared, work_tx) = (config.n, Arc::clone(&shared), work_tx.clone());
        move |sm: SignedMessage| route_to_stage(sm, n, &shared, &work_tx, client_tx.as_ref())
    };
    let endpoint = net.attach(Sender::Replica(id), Box::new(deliver));
    let shutdown = Arc::new(AtomicBool::new(false));
    let stage = |stage: Stage, index: usize| StageCtx {
        stop: Arc::clone(&shutdown),
        rec: metrics.recorder(stage, index),
        provider: provider.clone(),
        work_tx: work_tx.clone(),
        shared: Arc::clone(&shared),
    };
    let mut threads = Vec::new();
    let mut spawn = |name: String, body: Box<dyn FnOnce() + Send>| {
        let thread = std::thread::Builder::new()
            .name(format!("r{}-{name}", id.0))
            .spawn(body)
            .expect("spawn stage thread");
        threads.push(thread);
    };

    // --- the stage loops ----------------------------------------------------
    for b in 0..threads_cfg.batch_threads {
        let (ctx, rx, config) = (stage(Stage::Batch, b), client_rx.clone(), config.clone());
        spawn(
            format!("batch-{b}"),
            Box::new(move || batch_loop(&ctx, &rx, &config)),
        );
    }
    // The paper dedicates exactly one worker to the protocol state machine
    // (Section 4.3); additional workers would contend on consensus state.
    {
        let ctx = stage(Stage::Worker, 0);
        let io = WorkerIo {
            endpoint: endpoint.clone(),
            exec_tx,
        };
        let config = config.clone();
        spawn(
            "worker".into(),
            Box::new(move || worker_loop(&ctx, &work_rx, &config, io)),
        );
    }
    // 1E is the paper's serial execute-thread; N ≥ 2 makes it the
    // coordinator of N conflict-scheduled pool workers.
    if let Some(rx) = exec_rx {
        let parallel = threads_cfg.execute_threads > 1;
        let (stage_kind, name) = if parallel {
            (Stage::ExecuteCoord, "execute-coord")
        } else {
            (Stage::Execute, "execute-0")
        };
        let ctx = stage(stage_kind, 0);
        let pool_recorders: Vec<StageRecorder> = (0..threads_cfg.execute_threads)
            .filter(|_| parallel)
            .map(|w| metrics.recorder(Stage::Execute, w))
            .collect();
        let executor = Arc::clone(executor);
        let pool_name = format!("r{}", id.0);
        let exec_stage = ExecStage::new(next_to_execute(&shared));
        spawn(
            name.into(),
            Box::new(move || {
                // The pool lives on this thread: dropping it at shutdown
                // closes the task channel and joins the workers.
                let (cap, mut run) = if parallel {
                    let run = parallel_runner(Arc::clone(&executor), &pool_name, pool_recorders);
                    (EXECUTE_WINDOW, run)
                } else {
                    (1, serial_runner(Arc::clone(&executor)))
                };
                execute_loop(&ctx, &rx, exec_stage, &executor, cap, &mut *run, &endpoint);
            }),
        );
    }

    ReplicaHandle {
        shared,
        threads,
        shutdown,
    }
}

/// Builds everything the stage threads share: storage, the executor and
/// the counters behind [`ReplicaShared`]. With a data directory
/// configured, this is also where the replica rebuilds itself from its WAL
/// and snapshots — before any stage thread runs: replay re-executes
/// through the ordinary executor (the snapshot interval is already set, so
/// serving snapshots recapture too), and the report it publishes tells the
/// execute stage to resume past the recovered head. Anything the disk
/// could not prove is left to the network state-transfer path.
fn build_shared(
    config: &SystemConfig,
    id: ReplicaId,
    provider: &CryptoProvider,
) -> Arc<ReplicaShared> {
    let k = config.consensus_instances.max(1);
    let (data_dir, store, chain) = open_storage(config, id);
    let executor = Arc::new(Executor::new(
        id,
        config.protocol,
        Arc::clone(&store),
        Arc::clone(&chain),
    ));
    // Serving snapshots are captured on the same cadence as checkpoints
    // (Δ per-instance batches × k instances in global sequence numbers),
    // so every replica snapshots identical state at identical sequences —
    // the f+1 cross-peer agreement a state-transferring receiver demands.
    executor.set_snapshot_interval(crate::core::checkpoint_delta(config) * k as u64);
    let recovery = data_dir.as_ref().map(|dir| {
        let (_, report) = durable::recover_replica(&executor, dir, &config.durability)
            .expect("replica data directory unusable");
        report
    });
    let metrics = MetricsRegistry::new();
    metrics.start_window();
    let shared = ReplicaShared {
        id,
        store,
        chain,
        metrics,
        executor,
        crypto_stats: provider.stats().clone(),
        committed_batches: AtomicU64::new(0),
        committed_per_instance: (0..k).map(|_| AtomicU64::new(0)).collect(),
        dropped_bad_sigs: AtomicU64::new(0),
        instance_views: (0..k).map(|_| AtomicU64::new(0)).collect(),
        recovery,
    };
    Arc::new(shared)
}

/// Creates the replica's state store and ledger. With durability
/// configured, everything this replica persists lives under its own
/// subdirectory of the shared data root, which is returned too.
#[allow(clippy::type_complexity)]
fn open_storage(
    config: &SystemConfig,
    id: ReplicaId,
) -> (Option<PathBuf>, Arc<dyn StateStore>, Arc<Mutex<Blockchain>>) {
    let data_dir = config.durability.data_dir.as_ref().map(|root| {
        let dir = Path::new(root).join(format!("replica-{}", id.0));
        std::fs::create_dir_all(&dir).expect("create replica data directory");
        dir
    });
    let store: Arc<dyn StateStore> = Arc::new(MemStore::with_table(config.table_size, 8));
    let (chain_quorum, chain_mode) = match config.protocol {
        ProtocolKind::Pbft => (
            rdb_common::quorum::commit_quorum(config.f),
            ChainMode::Certificate,
        ),
        // Zyzzyva's speculative history is itself a hash chain.
        ProtocolKind::Zyzzyva => (0, ChainMode::PrevHash),
    };
    let genesis = digest(&id.0.to_le_bytes());
    let chain = Blockchain::new(genesis, chain_quorum, chain_mode);
    (data_dir, store, Arc::new(Mutex::new(chain)))
}

/// What every stage loop holds: the shutdown flag, its busy-time recorder,
/// this replica's crypto identity, the way to the worker and the shared
/// counters.
struct StageCtx {
    stop: Arc<AtomicBool>,
    rec: StageRecorder,
    provider: CryptoProvider,
    work_tx: ChanSender<Work>,
    shared: Arc<ReplicaShared>,
}

impl StageCtx {
    fn running(&self) -> bool {
        !self.stop.load(Ordering::Relaxed)
    }

    fn note_bad_sigs(&self, rejected: u64) {
        if rejected > 0 {
            self.shared
                .dropped_bad_sigs
                .fetch_add(rejected, Ordering::Relaxed);
        }
    }

    fn to_worker(&self, input: Input) {
        let _ = self.work_tx.send(Work::Step(input));
    }
}

/// What the worker's channel carries: a replica message as the transport
/// delivered it, never stepped before it is authenticated, or an input
/// another stage made.
enum Work {
    Unverified(SignedMessage),
    Step(Input),
}

/// The replica's transport delivery function, the router. It runs on the
/// delivering thread, so it only pushes onto the consuming stage's
/// channel: the batch threads' (`client_tx`; none under `0B`) or the
/// worker's. `false` once that stage is gone.
fn route_to_stage(
    sm: SignedMessage,
    n: usize,
    shared: &ReplicaShared,
    work_tx: &ChanSender<Work>,
    client_tx: Option<&ChanSender<SignedMessage>>,
) -> bool {
    let (k, view_of) = (shared.consensus_instances(), |j| shared.instance_view(j));
    let to = route(sm.msg(), sm.sender(), shared.id, n, k, view_of);
    match (to, client_tx) {
        (Route::Demand(j), _) => work_tx.send(Work::Step(Input::ClientDemand(j))).is_ok(),
        (Route::Batch(_), Some(client_tx)) => client_tx.send(sm).is_ok(),
        (Route::Batch(_) | Route::Worker, _) => work_tx.send(Work::Unverified(sm)).is_ok(),
    }
}

/// How long a stage may block before `due`: at most a [`POLL_INTERVAL`],
/// and nothing once it has passed.
fn wait_for(due: Option<Instant>) -> Duration {
    due.map_or(POLL_INTERVAL, |due| {
        due.saturating_duration_since(Instant::now())
            .min(POLL_INTERVAL)
    })
}

/// Batch thread (Section 4.3): verify client signatures as they are
/// drained, assemble batches for the instance each client shards to,
/// digest them once, hand them to the worker for proposing.
fn batch_loop(ctx: &StageCtx, rx: &Receiver<SignedMessage>, config: &SystemConfig) {
    let mut assembler = BatchAssembler::new(config, Instant::now());
    let mut cut = Vec::new();
    while ctx.running() {
        // Block until a request arrives or a pending partial batch falls
        // due. A deadline already in the past (the previous cut was long
        // ago) waits zero: a lone request still flushes immediately.
        let wait = wait_for(assembler.flush_deadline());
        let first = rx.recv_timeout(wait).ok();
        let now = Instant::now();
        if first.is_none() && !assembler.flush_due(now) {
            continue;
        }
        ctx.rec.record(|| {
            match first {
                Some(sm) => {
                    let queued = std::iter::from_fn(|| rx.try_recv().ok());
                    let drained = std::iter::once(sm).chain(queued).take(BATCH_DRAIN);
                    let rejected = verify_window(&ctx.provider, drained, |sm| {
                        assembler.push_request(sm, now, &mut cut);
                    });
                    ctx.note_bad_sigs(rejected);
                }
                None => assembler.flush(now, &mut cut),
            }
            for input in cut.drain(..) {
                ctx.to_worker(input);
            }
        });
    }
}

/// Everything the worker loop touches on the node's behalf.
struct WorkerIo {
    /// Everything the worker sends leaves from here.
    endpoint: Endpoint,
    /// The execute thread's channel, every execution effect in the core's
    /// order; `None` under `0E`, where the node holds the stage.
    exec_tx: Option<ChanSender<Effect>>,
}

impl WorkerIo {
    /// Carries out one of the node's effects; what it steps back goes to
    /// `inputs`.
    fn apply(
        &mut self,
        effect: NodeEffect,
        ctx: &StageCtx,
        serial: &mut Option<Box<RunWindow>>,
        inputs: &mut VecDeque<NodeInput>,
    ) {
        let shared = &ctx.shared;
        let effect = match effect {
            NodeEffect::Propose(input) => return inputs.push_back(input.into()),
            NodeEffect::Committed(instance) => {
                shared.committed_batches.fetch_add(1, Ordering::Relaxed);
                shared.committed_per_instance[instance].fetch_add(1, Ordering::Relaxed);
                return;
            }
            NodeEffect::Execute { window, epoch } => {
                let run = serial
                    .as_deref_mut()
                    .expect("only a node's own stage hands out windows");
                return run_window(window, epoch, run, ctx, &self.endpoint, |done| {
                    inputs.push_back(done.into());
                });
            }
            NodeEffect::Core(effect) => effect,
        };
        match effect {
            Effect::Send(_) | Effect::FetchServed { .. } => {
                to_network(effect, &ctx.provider, &self.endpoint);
            }
            // The router sends client traffic by this.
            Effect::ViewEntered { instance, view } => {
                shared.instance_views[instance].store(view.0, Ordering::Relaxed);
            }
            // From a node without a stage: to the execute thread, in order.
            effect => {
                if let Some(exec_tx) = &self.exec_tx {
                    let _ = exec_tx.send(effect);
                }
            }
        }
    }
}

/// The first sequence the execute stage runs: the one past whatever
/// restart recovery replayed.
fn next_to_execute(shared: &ReplicaShared) -> SeqNum {
    shared.recovery.map_or(SeqNum(1), |r| r.head.next())
}

/// Worker thread: the one driver of the replica's [`Node`] and the only
/// interpreter of its effects. The node holds the parts no thread is
/// configured for: the assemblers under `0B`, the execute stage under
/// `0E`. Each wake-up steps the whole backlog with the wall clock: the
/// other stages' inputs, then the messages that pass verification
/// (forgeries are counted), each source's in order. A wake-up that finds
/// nothing after a [`POLL_INTERVAL`] steps an [`Input::Tick`], and so
/// does every wake-up once the node's next due time has passed: a busy
/// `0B` worker never idles, and its partial batch must not wait to fill.
/// What the node hands back — a cut batch, an executed window's results —
/// is stepped in the same turn.
fn worker_loop(ctx: &StageCtx, rx: &Receiver<Work>, config: &SystemConfig, mut io: WorkerIo) {
    let now = Instant::now();
    let (id, recovered) = (ctx.shared.id, ctx.shared.recovery.as_ref());
    let core = ReplicaCore::new(config, id, ctx.provider.clone(), recovered, now);
    let mut node = Node::new(core);
    if config.threads.batch_threads == 0 {
        node = node.with_batching(config, now);
    }
    // Under `0E` the node holds the stage, and its windows run here.
    let mut serial = None;
    if io.exec_tx.is_none() {
        let (next, executor) = (next_to_execute(&ctx.shared), &ctx.shared.executor);
        node = node.with_stage(next, Arc::clone(executor) as _);
        serial = Some(serial_runner(Arc::clone(executor)));
    }
    let k = config.consensus_instances.max(1);
    let mut fx = Vec::new();
    let mut unverified = Vec::new();
    let mut inputs = VecDeque::new();
    while ctx.running() {
        let due = node.next_due();
        let received = rx.recv_timeout(wait_for(due));
        let idle = received.is_err();
        if let Ok(first) = received {
            let queued = std::iter::from_fn(|| rx.try_recv().ok());
            for work in std::iter::once(first).chain(queued) {
                match work {
                    Work::Unverified(sm) => unverified.push(sm),
                    Work::Step(input) => inputs.push_back(input.into()),
                }
            }
        }
        if idle || due.is_some_and(|due| Instant::now() > due) {
            inputs.push_back(Input::Tick.into());
        }
        let mut turn = || {
            let rejected = verify_window(&ctx.provider, unverified.drain(..), |sm| {
                // A client request reaches the worker only under `0B`.
                if !matches!(sm.msg(), Message::ClientRequest { .. }) {
                    return inputs.push_back(Input::Verified(sm).into());
                }
                let instance = client_instance(sm.sender(), k);
                if let Message::ClientRequest { txns } = sm.into_message() {
                    inputs.push_back(NodeInput::Requests { instance, txns });
                }
            });
            ctx.note_bad_sigs(rejected);
            while let Some(input) = inputs.pop_front() {
                node.step(input, Instant::now(), &mut fx);
                for effect in fx.drain(..) {
                    io.apply(effect, ctx, &mut serial, &mut inputs);
                }
            }
        };
        if idle {
            turn();
        } else {
            ctx.rec.record(turn);
        }
    }
    // Off the transport: the router holds this replica's state.
    io.endpoint.network().deregister(io.endpoint.addr());
}

/// How the execute stage runs one in-order window of committed batches,
/// which it owns: `(state_digest, replies)` per item, in order.
type RunWindow = dyn FnMut(Vec<ExecuteItem>) -> Vec<(Digest, Vec<OutItem>)>;

/// The paper's serial execute-thread: one batch after the other.
fn serial_runner(executor: Arc<Executor>) -> Box<RunWindow> {
    Box::new(move |window| window.into_iter().map(|i| executor.execute(i)).collect())
}

/// Deterministic parallel execution: schedules the window's conflict
/// waves across one pool worker per recorder and commits in sequence
/// order, bit-identical to [`serial_runner`].
fn parallel_runner(
    executor: Arc<Executor>,
    pool_name: &str,
    pool_recorders: Vec<StageRecorder>,
) -> Box<RunWindow> {
    let pool = ExecPool::new(pool_name, pool_recorders.len(), pool_recorders);
    let parallel = ParallelExecutor::new(executor, pool);
    Box::new(move |window| parallel.execute_window(window))
}

/// Executes one window taken from an [`ExecStage`] in `epoch`: replies
/// leave through `endpoint`, each result goes to `done` as an
/// [`Input::Executed`] stamped with that epoch. The one execution step
/// behind both [`execute_loop`] and the worker's `0E` mode.
fn run_window(
    window: Vec<ExecuteItem>,
    epoch: u64,
    run: &mut RunWindow,
    ctx: &StageCtx,
    endpoint: &Endpoint,
    mut done: impl FnMut(Input),
) {
    let Some(first) = window.first().map(|item| item.seq) else {
        return;
    };
    // A window is consecutive sequences from its first.
    for (i, (state_digest, replies)) in run(window).into_iter().enumerate() {
        for reply in replies {
            transmit(&ctx.provider, endpoint, reply);
        }
        done(Input::Executed {
            seq: SeqNum(first.0 + i as u64),
            state_digest,
            epoch,
        });
    }
}

/// Execute thread: the owner of the replica's [`ExecStage`]. It blocks on
/// the worker's channel only while the next sequence is not parked, drains
/// every effect already queued into the stage — rollbacks, installs,
/// stable checkpoints (a durable one may persist a snapshot) and snapshots
/// served to peers happen here, between two windows — then runs the next
/// in-order window of up to `cap` batches and reports each result.
fn execute_loop(
    ctx: &StageCtx,
    rx: &Receiver<Effect>,
    mut stage: ExecStage,
    executor: &Executor,
    cap: usize,
    run: &mut RunWindow,
    endpoint: &Endpoint,
) {
    while ctx.running() {
        let first = if stage.ready() {
            None
        } else {
            match rx.recv_timeout(POLL_INTERVAL) {
                Ok(effect) => Some(effect),
                Err(_) => continue,
            }
        };
        ctx.rec.record(|| {
            let queued = std::iter::from_fn(|| rx.try_recv().ok());
            for effect in first.into_iter().chain(queued) {
                for answer in stage.apply(effect, executor) {
                    to_network(answer, &ctx.provider, endpoint);
                }
            }
            let window = stage.take_window(cap);
            run_window(window, stage.epoch(), run, ctx, endpoint, |done| {
                ctx.to_worker(done)
            });
        });
    }
}

/// Carries out a send, or a fetch request's accounting on the shared
/// network stats: what the worker and the stage hand the network.
fn to_network(effect: Effect, provider: &CryptoProvider, endpoint: &Endpoint) {
    let stats = endpoint.network().stats();
    match effect {
        Effect::Send(item) => transmit(provider, endpoint, item),
        Effect::FetchServed { served, dropped } => {
            stats.note_fetch_served(served);
            stats.note_fetch_dropped(dropped);
        }
        other => unreachable!("not for the network: {other:?}"),
    }
}

/// Signs `item` once and sends it to every target (but this replica) in
/// one transport call, which shares the envelope across them.
fn transmit(provider: &CryptoProvider, endpoint: &Endpoint, item: OutItem) {
    let class = match item.targets[0] {
        Sender::Replica(_) => PeerClass::Replica,
        Sender::Client(_) => PeerClass::Client,
    };
    let sm = SignedMessage::sign_with(item.msg, endpoint.addr(), |bytes| {
        provider.sign(class, bytes)
    });
    let _ = endpoint.broadcast(&item.targets, &sm);
}
