//! The threaded replica runtime (Figures 6a/6b): one loop per pipeline
//! stage around the sans-IO [`ReplicaCore`].
//!
//! ```text
//! network ─▶ input_loop ──▶ client-request queue ─▶ batch_loop ─┐
//!                  │                                            │ Propose
//!                  ├─ replica msgs ─────────────▶ worker_loop ◀─┘
//!                  └─ checkpoints ─▶ checkpoint_loop ─▶ worker_loop
//!  worker_loop ─▶ execution queues (QC slots) ─▶ execute_loop ─▶ output_loop ─▶ network
//!                                                    └─ Executed ─▶ worker_loop
//! ```
//!
//! Every stage is a plain function run by `ThreadConfig`-many threads;
//! [`spawn_replica`] only builds the shared state and starts them. All
//! decisions — consensus, timers, recovery — are made by the core, which
//! [`worker_loop`] feeds from its channel and whose [`Effect`]s it alone
//! carries out. The other loops verify, assemble, execute and transmit:
//!
//! - [`input_loop`] and [`checkpoint_loop`] batch-verify incoming
//!   signatures (checkpoint votes on their own thread so a burst of them
//!   cannot delay consensus traffic) and forward what is authentic.
//! - [`batch_loop`] turns client requests into digested batches;
//!   `batch_threads = 0` leaves that to the core (the paper's `0B`).
//! - [`execute_loop`] runs committed batches strictly in sequence order:
//!   serially for `execute_threads = 1`, through the conflict scheduler
//!   ([`crate::scheduler`]) for `N ≥ 2` — same loop, different "run this
//!   window" closure, bit-identical results. With `execute_threads = 0`
//!   the worker runs the same step itself after each deposit (`0E`,
//!   Figure 8's integrated ordering and execution).
//! - [`output_loop`] signs each outgoing message once and fans it out.
//!
//! Stage channels are unbounded: back-pressure comes from the closed-loop
//! clients and the transport, not from blocking a stage on its successor.

use crate::batch::{verify_window, BatchAssembler};
use crate::core::{client_instance, CoreEnv, Effect, Input, ReplicaCore};
use crate::durable;
use crate::executor::{Executor, OutItem};
use crate::metrics::{MetricsRegistry, Stage, StageRecorder};
use crate::queues::{Claim, ClientRequestQueue, ExecuteItem, ExecutionQueues};
use crate::scheduler::{ExecPool, ParallelExecutor};
use crossbeam::channel::{self, Receiver, Sender as ChanSender};
use parking_lot::Mutex;
use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{Digest, ProtocolKind, ReplicaId, SeqNum, Snapshot, SystemConfig};
use rdb_crypto::{digest, CryptoProvider, CryptoStats, KeyRegistry, PeerClass, VERIFY_WINDOW};
use rdb_net::{Endpoint, NetHandle, NetworkStats};
use rdb_storage::blockchain::ChainMode;
use rdb_storage::{Blockchain, MemStore, StateStore};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a stage blocks on its queue before re-checking for shutdown
/// (and, at the worker, before an idle tick of the core).
pub const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Maximum committed sequences the parallel executor schedules in one
/// conflict graph (the in-order window of `execute_threads ≥ 2`).
pub const EXECUTE_WINDOW: usize = 4;

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
    /// Per-instance client request queues (`queues[j]` fills only
    /// while this replica leads instance `j`; all empty on pure backups).
    pub client_queues: Vec<Arc<ClientRequestQueue>>,
    /// The execution engine (owns executed-transaction counters).
    pub executor: Arc<Executor>,
    /// Sign/verify call counters shared by every stage thread's provider.
    pub crypto_stats: CryptoStats,
    committed_batches: AtomicU64,
    committed_per_instance: Vec<AtomicU64>,
    dropped_bad_sigs: AtomicU64,
    /// Per-instance installed views, updated by the worker on `EnterView` —
    /// the input threads route client traffic for instance `j` by
    /// `(view_j + j) % n` through this.
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

impl CoreEnv for ReplicaShared {
    fn latest_snapshot(&self) -> Option<Arc<Snapshot>> {
        self.executor.latest_snapshot()
    }

    fn snapshot_base(&self) -> Option<SeqNum> {
        self.executor.snapshot_base()
    }

    fn prune_chain_below(&self, seq: SeqNum) -> SeqNum {
        self.chain.lock().prune_below(seq)
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
pub struct ReplicaHandle {
    shared: Arc<ReplicaShared>,
    threads: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for ReplicaHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaHandle")
            .field("id", &self.shared.id)
            .field("threads", &self.threads.len())
            .finish()
    }
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
    let endpoint = net.register(Sender::Replica(id));
    let k = config.consensus_instances.max(1);
    let threads_cfg = config.threads;
    let (shared, exec_queues) = build_shared(config, id, &provider);
    let (metrics, executor) = (&shared.metrics, &shared.executor);

    // --- channels -----------------------------------------------------------
    let (work_tx, work_rx) = channel::unbounded::<Input>();
    let (ckpt_tx, ckpt_rx) = channel::unbounded::<SignedMessage>();
    let (out_txs, out_rxs): (Vec<_>, Vec<_>) = (0..threads_cfg.output_threads)
        .map(|_| channel::unbounded::<OutItem>())
        .unzip();
    let out = OutShards {
        txs: out_txs,
        next: 0,
    };
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

    // --- the six loops ------------------------------------------------------
    // Every replica runs the full input complement: a backup can become the
    // primary at any view change, so the client-facing threads must already
    // be listening.
    for i in 0..threads_cfg.client_input_threads + threads_cfg.replica_input_threads {
        let (ctx, rx) = (stage(Stage::Input, i), endpoint.receiver());
        let router = Router {
            n: config.n as u64,
            to_batch_threads: threads_cfg.batch_threads > 0,
            ckpt_tx: (threads_cfg.checkpoint_threads > 0).then(|| ckpt_tx.clone()),
        };
        spawn(
            format!("input-{i}"),
            Box::new(move || input_loop(&ctx, &rx, &router)),
        );
    }
    // Batch threads are spawned on every replica: a queue only fills while
    // this replica leads its instance (input routing is view-aware), and
    // `propose` on a backup engine is a no-op. With k > 1 instances the
    // count is raised to at least k so every instance has a dedicated
    // batching path; thread `b` serves instance `b % k`.
    let batch_threads = match threads_cfg.batch_threads {
        0 => 0,
        b => b.max(k),
    };
    for b in 0..batch_threads {
        let (ctx, batch_size) = (stage(Stage::Batch, b), config.batch_size);
        spawn(
            format!("batch-{b}"),
            Box::new(move || batch_loop(&ctx, b % k, batch_size)),
        );
    }
    for c in 0..threads_cfg.checkpoint_threads {
        let (ctx, rx) = (stage(Stage::Checkpoint, c), ckpt_rx.clone());
        spawn(
            format!("ckpt-{c}"),
            Box::new(move || checkpoint_loop(&ctx, &rx)),
        );
    }
    // The paper dedicates exactly one worker to the protocol state machine
    // (Section 4.3); additional workers would contend on consensus state.
    {
        let ctx = stage(Stage::Worker, 0);
        let io = WorkerIo {
            out: out.clone(),
            queues: Arc::clone(&exec_queues),
            executor: Arc::clone(executor),
            net_stats: net.stats().clone(),
            execute_inline: threads_cfg.execute_threads == 0,
        };
        let config = config.clone();
        spawn(
            "worker".into(),
            Box::new(move || worker_loop(&ctx, &work_rx, &config, io)),
        );
    }
    // 1E is the paper's serial execute-thread; N ≥ 2 makes it the
    // coordinator of N conflict-scheduled pool workers.
    if threads_cfg.execute_threads > 0 {
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
        let (queues, mut out) = (Arc::clone(&exec_queues), out.clone());
        let executor = Arc::clone(executor);
        let pool_name = format!("r{}", id.0);
        spawn(
            name.into(),
            Box::new(move || {
                // The pool lives on this thread: dropping it at shutdown
                // closes the task channel and joins the workers.
                let (cap, mut run) = if parallel {
                    let run = parallel_runner(executor, &pool_name, pool_recorders);
                    (EXECUTE_WINDOW, run)
                } else {
                    (1, serial_runner(executor))
                };
                execute_loop(&ctx, &queues, cap, &mut *run, &mut out);
            }),
        );
    }
    for (o, rx) in out_rxs.into_iter().enumerate() {
        let (ctx, endpoint) = (stage(Stage::Output, o), endpoint.clone());
        spawn(
            format!("output-{o}"),
            Box::new(move || output_loop(&ctx, &rx, &endpoint)),
        );
    }

    ReplicaHandle {
        shared,
        threads,
        shutdown,
    }
}

/// Builds everything the stage threads share: storage, the executor, the
/// inter-stage queues and the counters behind [`ReplicaShared`]. With a
/// data directory configured, this is also where the replica rebuilds
/// itself from its WAL and snapshots — before any stage thread runs:
/// replay re-executes through the ordinary executor (the snapshot interval
/// is already set, so serving snapshots recapture too) and the execution
/// cursor resumes past the recovered head. Anything the disk could not
/// prove is left to the network state-transfer path.
fn build_shared(
    config: &SystemConfig,
    id: ReplicaId,
    provider: &CryptoProvider,
) -> (Arc<ReplicaShared>, Arc<ExecutionQueues>) {
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
    // QC = 2 × clients (Section 4.6): each client keeps one request
    // outstanding.
    let qc = (2 * config.num_clients).clamp(1024, 1 << 16);
    let exec_queues = Arc::new(ExecutionQueues::new(qc));
    let recovery = data_dir.as_ref().map(|dir| {
        let (_, report) = durable::recover_replica(&executor, dir, &config.durability)
            .expect("replica data directory unusable");
        exec_queues.set_cursor(report.head.next());
        report
    });
    let metrics = MetricsRegistry::new();
    metrics.start_window();
    let shared = ReplicaShared {
        id,
        store,
        chain,
        metrics,
        client_queues: (0..k)
            .map(|_| Arc::new(ClientRequestQueue::new()))
            .collect(),
        executor,
        crypto_stats: provider.stats().clone(),
        committed_batches: AtomicU64::new(0),
        committed_per_instance: (0..k).map(|_| AtomicU64::new(0)).collect(),
        dropped_bad_sigs: AtomicU64::new(0),
        instance_views: (0..k).map(|_| AtomicU64::new(0)).collect(),
        recovery,
    };
    (Arc::new(shared), exec_queues)
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
    work_tx: ChanSender<Input>,
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
}

/// Round-robin over the output threads' channels.
#[derive(Clone)]
struct OutShards {
    txs: Vec<ChanSender<OutItem>>,
    next: usize,
}

impl OutShards {
    fn send(&mut self, item: OutItem) {
        let shard = self.next % self.txs.len();
        self.next += 1;
        let _ = self.txs[shard].send(item);
    }
}

/// Where an input thread sends what it does not verify itself.
struct Router {
    n: u64,
    /// `false` is the `0B` configuration: requests go to the worker.
    to_batch_threads: bool,
    /// `None` when no checkpoint thread runs: checkpoints are verified here.
    ckpt_tx: Option<ChanSender<SignedMessage>>,
}

impl Router {
    /// Client requests go to the batching stage and checkpoints to the
    /// checkpoint thread (each verifies its own traffic); everything else
    /// is handed back for the caller's verify window.
    fn route(&self, ctx: &StageCtx, sm: SignedMessage) -> Option<SignedMessage> {
        let shared = &ctx.shared;
        match (sm.msg(), &self.ckpt_tx) {
            (Message::ClientRequest { .. }, _) => {
                // Instance `j` at view `v` is led by replica `(v + j) % n`.
                // Primaryship is dynamic: re-check the installed view on
                // every request.
                let j = client_instance(sm.sender(), shared.client_queues.len());
                let led_by = (shared.instance_view(j) + j as u64) % self.n;
                if led_by != shared.id.0 as u64 {
                    // Backups drop the payload (clients address the primary
                    // directly; rebroadcasts reach it too) but surface the
                    // demand to the suspicion timer.
                    let _ = ctx.work_tx.send(Input::ClientDemand(j));
                } else if self.to_batch_threads {
                    shared.client_queues[j].push(sm);
                } else {
                    let _ = ctx.work_tx.send(Input::ClientRequest(sm));
                }
                None
            }
            (Message::Checkpoint { .. }, Some(ckpt_tx)) => {
                let _ = ckpt_tx.send(sm);
                None
            }
            _ => Some(sm),
        }
    }
}

/// The batch-verify stage shared by the input and checkpoint threads:
/// block for one message, drain whatever else is already queued (up to
/// [`VERIFY_WINDOW`]), let `route` divert what another stage verifies,
/// check the rest as one crypto batch and forward the authentic messages
/// to the worker. Under load the shared multi-scalar multiplication
/// amortizes across the window, while an idle replica still verifies each
/// message immediately (a window of one).
fn verify_loop(
    ctx: &StageCtx,
    rx: &Receiver<SignedMessage>,
    route: impl Fn(SignedMessage) -> Option<SignedMessage>,
) {
    let mut window: Vec<SignedMessage> = Vec::with_capacity(VERIFY_WINDOW);
    while ctx.running() {
        let Ok(first) = rx.recv_timeout(POLL_INTERVAL) else {
            continue;
        };
        ctx.rec.record(|| {
            window.extend(route(first));
            while window.len() < VERIFY_WINDOW {
                match rx.try_recv() {
                    Ok(sm) => window.extend(route(sm)),
                    Err(_) => break,
                }
            }
            let rejected = verify_window(&ctx.provider, &mut window, |sm| {
                let _ = ctx.work_tx.send(Input::Verified(sm));
            });
            ctx.note_bad_sigs(rejected);
        });
    }
}

/// Input thread: receive off the network, route, verify replica traffic.
fn input_loop(ctx: &StageCtx, rx: &Receiver<SignedMessage>, router: &Router) {
    verify_loop(ctx, rx, |sm| router.route(ctx, sm));
}

/// Checkpoint thread: verify incoming `Checkpoint` votes off the
/// consensus traffic's critical path.
fn checkpoint_loop(ctx: &StageCtx, rx: &Receiver<SignedMessage>) {
    verify_loop(ctx, rx, Some);
}

/// Batch thread (Section 4.3): verify client signatures a window at a
/// time, assemble batches, digest them once, hand them to the worker for
/// proposing on `instance`.
fn batch_loop(ctx: &StageCtx, instance: usize, batch_size: usize) {
    let cq = &ctx.shared.client_queues[instance];
    let mut assembler = BatchAssembler::new(batch_size, Instant::now());
    let mut window: Vec<SignedMessage> = Vec::with_capacity(VERIFY_WINDOW);
    let mut cut = Vec::new();
    while ctx.running() {
        // Block until a request arrives or the pending partial batch falls
        // due. A deadline already in the past (the previous cut was long
        // ago) waits zero: a lone request still flushes immediately.
        let wait = assembler.flush_deadline().map_or(POLL_INTERVAL, |due| {
            due.saturating_duration_since(Instant::now())
                .min(POLL_INTERVAL)
        });
        let first = cq.pop_timeout(wait);
        let now = Instant::now();
        if first.is_none() && !assembler.flush_due(now) {
            continue;
        }
        ctx.rec.record(|| {
            match first {
                Some(sm) => {
                    window.push(sm);
                    while window.len() < VERIFY_WINDOW {
                        match cq.pop() {
                            Some(m) => window.push(m),
                            None => break,
                        }
                    }
                    let rejected = assembler.ingest(&ctx.provider, &mut window, now, &mut cut);
                    ctx.note_bad_sigs(rejected);
                }
                None => assembler.flush(now, &mut cut),
            }
            for (batch, digest) in cut.drain(..) {
                let _ = ctx.work_tx.send(Input::Propose {
                    instance,
                    batch,
                    digest,
                });
            }
        });
    }
}

/// Everything the worker loop touches on the core's behalf.
struct WorkerIo {
    out: OutShards,
    queues: Arc<ExecutionQueues>,
    executor: Arc<Executor>,
    /// Fetch served/dropped accounting lives on the shared network stats.
    net_stats: NetworkStats,
    /// `0E`: no execute thread — the worker drains the queues itself.
    execute_inline: bool,
}

impl WorkerIo {
    /// Carries out one of the core's decisions.
    fn apply(&mut self, effect: Effect, ctx: &StageCtx) {
        let shared = &ctx.shared;
        match effect {
            Effect::Send(item) => self.out.send(item),
            Effect::Execute { instance, item } => {
                shared.committed_batches.fetch_add(1, Ordering::Relaxed);
                shared.committed_per_instance[instance].fetch_add(1, Ordering::Relaxed);
                self.queues.deposit(item);
            }
            Effect::Rollback { to } => {
                let _gate = self.queues.gate();
                self.queues.purge_above(to);
                self.queues.repoint(self.queues.cursor().min(to.next()));
                self.executor.rollback_to(to);
            }
            Effect::InstallSnapshot(snapshot) => {
                let base = snapshot.base_seq;
                let _gate = self.queues.gate();
                self.queues.purge_through(base);
                self.queues.repoint(self.queues.cursor().max(base.next()));
                self.executor.install_snapshot(&snapshot);
            }
            // With a data directory configured this also logs a `Stable`
            // marker and, once the WAL has grown as large as the last
            // snapshot, persists the covering one and compacts behind it.
            Effect::Stable { seq } => self.executor.note_stable(seq),
            // The input threads route client traffic by this.
            Effect::ViewEntered { instance, view } => {
                shared.instance_views[instance].store(view.0, Ordering::Relaxed);
            }
            Effect::BadSignatures(rejected) => ctx.note_bad_sigs(rejected),
            Effect::FetchServed { served, dropped } => {
                self.net_stats.note_fetch_served(served);
                self.net_stats.note_fetch_dropped(dropped);
            }
        }
    }
}

/// Worker thread: the one driver of the [`ReplicaCore`] and the only
/// interpreter of its effects. Each input is stepped with the wall clock;
/// a quiet [`POLL_INTERVAL`] becomes an [`Input::Tick`]. In `0E` mode the
/// worker then runs whatever became executable and feeds the results
/// straight back in, so ordering and execution stay integrated.
fn worker_loop(ctx: &StageCtx, rx: &Receiver<Input>, config: &SystemConfig, mut io: WorkerIo) {
    let mut core = ReplicaCore::new(
        config,
        ctx.shared.id,
        ctx.provider.clone(),
        Arc::clone(&ctx.shared) as Arc<dyn CoreEnv + Send + Sync>,
        ctx.shared.recovery.as_ref(),
        Instant::now(),
    );
    let mut serial = serial_runner(Arc::clone(&io.executor));
    let mut fx = Vec::new();
    let mut inputs = VecDeque::new();
    while ctx.running() {
        let received = rx.recv_timeout(POLL_INTERVAL);
        let idle = received.is_err();
        inputs.push_back(received.unwrap_or(Input::Tick));
        let mut turn = || {
            while let Some(input) = inputs.pop_front() {
                core.step(input, Instant::now(), &mut fx);
                for effect in fx.drain(..) {
                    io.apply(effect, ctx);
                }
                debug_assert_eq!(core.epoch(), io.queues.epoch());
                while io.execute_inline {
                    let Some(claim) = io.queues.claim(1, Duration::ZERO) else {
                        break;
                    };
                    run_window(claim, &mut *serial, &mut io.out, |done| {
                        inputs.push_back(done)
                    });
                }
            }
        };
        if idle {
            turn();
        } else {
            ctx.rec.record(turn);
        }
    }
}

/// How the execute stage runs one in-order window of committed batches:
/// `(state_digest, replies)` per item, in order.
type RunWindow = dyn FnMut(&[ExecuteItem]) -> Vec<(Digest, Vec<OutItem>)>;

/// The paper's serial execute-thread: one batch after the other.
fn serial_runner(executor: Arc<Executor>) -> Box<RunWindow> {
    Box::new(move |window| window.iter().map(|i| executor.execute(i)).collect())
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

/// Executes one claimed window: replies go to the output stage, each
/// result to `done` as an [`Input::Executed`] stamped with the claim's
/// epoch, and the cursor advances past the window. The one execution step
/// behind both [`execute_loop`] and the worker's `0E` mode.
fn run_window(
    claim: Claim<'_>,
    run: &mut RunWindow,
    out: &mut OutShards,
    mut done: impl FnMut(Input),
) {
    for (item, (state_digest, replies)) in claim.items().iter().zip(run(claim.items())) {
        for reply in replies {
            out.send(reply);
        }
        done(Input::Executed {
            seq: item.seq,
            state_digest,
            epoch: claim.epoch(),
        });
    }
    claim.finish();
}

/// Execute thread: claim the next in-order window of up to `cap`
/// committed batches (blocking on exactly the cursor's queue slot), run
/// it, report each result to the worker.
fn execute_loop(
    ctx: &StageCtx,
    queues: &ExecutionQueues,
    cap: usize,
    run: &mut RunWindow,
    out: &mut OutShards,
) {
    while ctx.running() {
        let Some(claim) = queues.claim(cap, POLL_INTERVAL) else {
            continue;
        };
        ctx.rec.record(|| {
            run_window(claim, run, out, |done| {
                let _ = ctx.work_tx.send(done);
            })
        });
    }
}

/// Output thread: sign once per message, send it to every destination in
/// one transport call.
fn output_loop(ctx: &StageCtx, rx: &Receiver<OutItem>, endpoint: &Endpoint) {
    let me = Sender::Replica(ctx.shared.id);
    while ctx.running() {
        let Ok(item) = rx.recv_timeout(POLL_INTERVAL) else {
            continue;
        };
        ctx.rec.record(|| {
            let class = match item.targets.first() {
                Some(Sender::Replica(_)) => PeerClass::Replica,
                Some(Sender::Client(_)) => PeerClass::Client,
                None => return,
            };
            // Encode once, sign once; the transport shares the envelope
            // across every destination (skipping this replica) and keeps
            // client replies unsheddable, so a swarm of slow readers
            // backpressures the output stage instead of losing replies.
            let sm =
                SignedMessage::sign_with(item.msg, me, |bytes| ctx.provider.sign(class, bytes));
            let _ = endpoint.broadcast(&item.targets, &sm);
        });
    }
}
