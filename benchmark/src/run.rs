//! One workload against a live in-process 4-replica cluster: set-up,
//! warm-up, measured window, drain, correctness checks, teardown — and,
//! when tracing, the counters and the replay that give the per-layer
//! numbers.

use crate::load::{Control, Driver, Input, Request, PHASE_DRAIN, PHASE_STOP};
use crate::trace::{self, Tracer};
use crate::workloads::{
    Workload, BATCH_SIZE, DRIVER_THREADS, GROUP_COMMIT_WINDOW_US, REPLICAS, SLO_MS, TABLE_SIZE,
};
use crate::{replay, stats, sys};
use rdb_common::{CryptoScheme, DurabilityConfig, FsyncMode, ReplicaId, TransportMode};
use rdb_pipeline::{SaturationReport, Stage};
use resilientdb::{ResilientDb, SystemBuilder};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Load before the window, discarded: caches fill, connections open,
/// the first checkpoints pass.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Longest wait for outstanding requests after the window.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// Longest wait for the first commit and for replicas to converge.
const SETTLE_LIMIT: Duration = Duration::from_secs(10);
/// Seconds per group of the window: long enough that a group of the
/// slowest workload holds the 200 requests a p95 needs, short enough that
/// an 18 s window has six.
const GROUP_SECS: usize = 3;

/// End-to-end metrics, `(name, unit)`, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tps", "txn/s"),
    ("cpu_us_per_txn", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ns_per_txn", "ns"),
    ("crypto.client_sign_us", "us"),
    ("crypto.client_verify_us_per_req", "us"),
    ("crypto.mac_ns_per_msg", "ns"),
    ("crypto.mac_preprepare_us", "us"),
    ("crypto.reply_mac_us_per_txn", "us"),
    ("crypto.batch_digest_us", "us"),
    ("common.encode_preprepare_us", "us"),
    ("common.decode_preprepare_us", "us"),
    ("common.envelope_bytes_per_txn", "B"),
    ("consensus.engine_us_per_batch", "us"),
    ("consensus.msgs_per_batch", "count"),
    ("consensus.batch_fill", "ratio"),
    ("consensus.view_changes", "count"),
    ("net.msgs_per_txn", "count"),
    ("net.bytes_per_txn", "B"),
    ("net.dropped", "count"),
    ("net.broadcast_us", "us"),
    ("net.rtt_p50_us", "us"),
    ("pipeline.busy_pct.input", "%"),
    ("pipeline.busy_pct.batch", "%"),
    ("pipeline.busy_pct.worker", "%"),
    ("pipeline.busy_pct.execute", "%"),
    ("pipeline.busy_pct.checkpoint", "%"),
    ("pipeline.busy_pct.output", "%"),
    ("pipeline.backup_busy_pct.worker", "%"),
    ("pipeline.backup_busy_pct.execute", "%"),
    ("pipeline.execute_us_per_batch.e1", "us"),
    ("pipeline.execute_us_per_batch.e4", "us"),
    ("pipeline.wave_width", "count"),
    ("pipeline.dedup_txns", "count"),
    ("pipeline.wal_us_per_batch", "us"),
    ("pipeline.fsyncs_per_batch", "count"),
    ("storage.apply_us_per_batch", "us"),
    ("storage.state_digest_us", "us"),
    ("storage.chain_append_us", "us"),
    ("storage.wal_append_us", "us"),
    ("storage.wal_sync_us", "us"),
    ("core.submit_us_per_req", "us"),
    ("core.poll_us_per_reply", "us"),
    ("sim.predicted_tps", "txn/s"),
    ("sim.model_gap", "ratio"),
    ("budget.replay_cpu_us_per_txn", "us"),
    ("budget.unattributed_share", "ratio"),
    ("bench.gen_lag_p95_ms", "ms"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.tps_untraced", "txn/s"),
    ("bench.samples", "count"),
    ("e2e.tps", "txn/s"),
    ("e2e.cpu_us_per_txn", "us"),
    ("e2e.lat_p50_ms", "ms"),
    ("e2e.lat_p95_ms", "ms"),
    ("e2e.lat_p99_ms", "ms"),
    ("e2e.failed_share", "ratio"),
    ("e2e.slo_miss_share", "ratio"),
];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload-generator seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: u64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Scratch and output directory.
    pub out: PathBuf,
}

/// A reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (0 where a count says nothing).
    pub samples: usize,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed and no request failed.
    pub correct: bool,
    /// Requests due inside the window.
    pub attempted: usize,
    /// Of those: timed out, refused or answered wrongly.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced): what
    /// the result line carries.
    pub metrics: Vec<Metric>,
    /// What the clients saw besides: printed, not gated.
    pub ungated: Vec<Metric>,
    /// Human-readable remarks: check results, sample-count caveats.
    pub notes: Vec<String>,
}

fn build_cluster(w: &Workload, data_dir: &Path) -> Result<ResilientDb, String> {
    let mut builder = SystemBuilder::new(REPLICAS)
        .batch_size(BATCH_SIZE)
        .table_size(TABLE_SIZE)
        .client_keys(w.sessions)
        .crypto(CryptoScheme::CmacEd25519)
        .threads(w.threads)
        .transport(w.transport);
    if w.durable {
        builder.config_mut().durability = DurabilityConfig {
            data_dir: Some(data_dir.display().to_string()),
            fsync: FsyncMode::Group,
            group_commit_window_us: GROUP_COMMIT_WINDOW_US,
        };
    }
    builder.build().map_err(|e| format!("cluster build: {e}"))
}

/// Keys, bind, spawn, table preload, sessions, first confirmed commit.
fn set_up(
    w: &Workload,
    data_dir: &Path,
    inputs: Vec<Input>,
    epoch: Instant,
) -> Result<(ResilientDb, Vec<Driver>, Duration), String> {
    let start = Instant::now();
    let db = build_cluster(w, data_dir)?;
    let mut drivers: Vec<Driver> = inputs
        .into_iter()
        .enumerate()
        .map(|(t, input)| Driver::connect(w, t, &db, input, epoch))
        .collect();
    if !drivers[0].first_commit(SETTLE_LIMIT) {
        return Err("no commit within the set-up limit".to_string());
    }
    Ok((db, drivers, start.elapsed()))
}

/// Counters the crates already expose, read at the window's edges.
struct Counters {
    msgs: u64,
    bytes: u64,
    dropped: u64,
    executed: u64,
    batches: u64,
    primary: SaturationReport,
    backup: SaturationReport,
}

impl Counters {
    fn read(db: &ResilientDb) -> Counters {
        let stats = db.network().stats();
        Counters {
            msgs: stats.total_sent(),
            bytes: stats.bytes_sent(),
            dropped: stats.dropped(),
            executed: db.executed_txns(db.primary()),
            batches: db.committed_batches(db.primary()),
            primary: db.saturation(db.primary()),
            backup: db.saturation(ReplicaId(1)),
        }
    }
}

/// Busy share of the busiest thread of `stages` between two cumulative
/// reports, in percent. (A report gives busy/wall since the replica
/// started; busy time is recovered as share × wall.)
fn busy_pct(a: &SaturationReport, b: &SaturationReport, stages: &[Stage]) -> f64 {
    let busy_ns = |r: &SaturationReport, stage: Stage, index: usize| {
        r.thread(stage, index)
            .map_or(0.0, |t| t.saturation_pct / 100.0 * r.wall.as_nanos() as f64)
    };
    let wall = (b.wall.as_nanos() as f64 - a.wall.as_nanos() as f64).max(1.0);
    b.threads
        .iter()
        .filter(|t| stages.contains(&t.stage))
        .map(|t| 100.0 * (busy_ns(b, t.stage, t.index) - busy_ns(a, t.stage, t.index)) / wall)
        .fold(0.0, f64::max)
}

/// Replicas that are up in this workload.
fn live_replicas(w: &Workload) -> impl Iterator<Item = ReplicaId> {
    let down = w.backup_down.then_some(REPLICAS - 1);
    (0..REPLICAS)
        .filter(move |r| Some(*r) != down)
        .map(|r| ReplicaId(r as u32))
}

/// After the drain: live replicas converge, agree, and executed at least
/// what the clients saw confirmed. Returns the failed checks.
///
/// Duplicate ordering and view changes are *not* failures: a client
/// retransmits after 500 ms of silence and a backup suspects its primary
/// after 2 s, so a machine squeezed hard enough produces both on a
/// fault-free workload, and deduplication then does its job. They are
/// reported (a warning note, `pipeline.dedup_txns`,
/// `consensus.view_changes`) as the wasted work they are.
fn check_cluster(w: &Workload, db: &ResilientDb, confirmed: u64) -> Vec<String> {
    let live: Vec<ReplicaId> = live_replicas(w).collect();
    let deadline = Instant::now() + SETTLE_LIMIT;
    loop {
        let heads = db.chain_heads();
        let settled = live.iter().all(|r| {
            heads[r.as_usize()] == heads[live[0].as_usize()] && db.executed_txns(*r) >= confirmed
        });
        if settled || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut failures = Vec::new();
    let digests = db.state_digests();
    if live
        .iter()
        .any(|r| digests[r.as_usize()] != digests[live[0].as_usize()])
    {
        failures.push("state digests of live replicas differ".to_string());
    }
    if let Err(e) = db.verify_chains() {
        failures.push(format!("verify_chains: {e}"));
    }
    for r in &live {
        let executed = db.executed_txns(*r);
        if executed < confirmed {
            failures.push(format!(
                "replica {r} executed {executed} < {confirmed} confirmed"
            ));
        }
    }
    failures
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

/// The main thread's reading at a one-second boundary of the window.
struct Tick {
    at: Instant,
    cpu: Duration,
    /// Whether live spans were recorded in the second that starts here.
    traced: bool,
}

impl Tick {
    fn now(traced: bool) -> Tick {
        Tick {
            at: Instant::now(),
            cpu: sys::process_cpu(),
            traced,
        }
    }
}

/// What the clients saw over the measured window.
///
/// The window is read in groups of `GROUP_SECS` seconds. Co-tenants of
/// this box take cache and memory bandwidth away for ten seconds at a
/// time (throughput of every closed loop then drops by a third and comes
/// back), which no change to this repository causes or cures. The gated
/// rates are therefore those of the window's *best* group — what the
/// system does when it has the machine — and the whole-window figures
/// are printed beside them.
struct Window {
    seconds: f64,
    /// Requests due inside the window.
    attempted: usize,
    /// Of those: never confirmed, or answered wrongly.
    failed: usize,
    /// Failed, or slower than the latency limit.
    slo_missed: usize,
    /// Due time → confirmation of the correct ones, ms, ascending.
    latencies: Vec<f64>,
    /// Transactions confirmed inside the window.
    confirmed: u64,
    /// Highest confirmed-transactions-per-second of any group.
    tps: f64,
    /// Lowest process CPU per confirmed transaction of any group.
    cpu_us_per_txn: f64,
    /// Median per-second rate over the traced, and the untraced, seconds.
    tps_traced: f64,
    tps_untraced: f64,
    /// Median over the groups of each group's percentile.
    lat_p50_ms: f64,
    lat_p95_ms: f64,
    lat_p99_ms: f64,
    /// Requests in the smallest group.
    group_samples: usize,
}

/// Transactions of `requests` confirmed in `[from, to)`.
fn confirmed_in(requests: &[&Request], from: Instant, to: Instant) -> u64 {
    requests
        .iter()
        .filter(|r| r.done.is_some_and(|d| d >= from && d < to))
        .map(|r| r.len as u64)
        .sum()
}

fn summarize(requests: &[&Request], ticks: &[Tick]) -> Window {
    let (first, last) = (&ticks[0], &ticks[ticks.len() - 1]);
    let due_in =
        |from: Instant, to: Instant| requests.iter().filter(move |r| r.due >= from && r.due < to);
    let latencies_of = |from: Instant, to: Instant| {
        let mut l: Vec<f64> = due_in(from, to)
            .filter(|r| r.correct)
            .filter_map(|r| r.latency())
            .map(ms)
            .collect();
        stats::sort(&mut l);
        l
    };
    let attempted = due_in(first.at, last.at).count();
    let failed = due_in(first.at, last.at).filter(|r| !r.correct).count();
    let latencies = latencies_of(first.at, last.at);

    // Whole groups only (a shorter tail counts in the window totals); a
    // window shorter than one group is one group.
    let seconds = ticks.len() - 1;
    let group_secs = GROUP_SECS.min(seconds);
    let mut rates: Vec<f64> = Vec::new();
    let mut cpus: Vec<f64> = Vec::new();
    let mut groups: Vec<Vec<f64>> = Vec::new();
    for g in 0..seconds / group_secs {
        let (from, to) = (&ticks[g * group_secs], &ticks[(g + 1) * group_secs]);
        let txns = confirmed_in(requests, from.at, to.at);
        rates.push(txns as f64 / (to.at - from.at).as_secs_f64());
        if txns > 0 {
            cpus.push((to.cpu - from.cpu).as_secs_f64() * 1e6 / txns as f64);
        }
        groups.push(latencies_of(from.at, to.at));
    }
    let group_median = |p: f64| {
        let per_group: Vec<f64> = groups.iter().map(|g| stats::percentile(g, p)).collect();
        stats::median(&per_group)
    };
    let second_median = |traced: bool| {
        let rates: Vec<f64> = ticks
            .windows(2)
            .filter(|t| t[0].traced == traced)
            .map(|t| {
                confirmed_in(requests, t[0].at, t[1].at) as f64 / (t[1].at - t[0].at).as_secs_f64()
            })
            .collect();
        stats::median(&rates)
    };
    Window {
        seconds: (last.at - first.at).as_secs_f64(),
        attempted,
        failed,
        slo_missed: failed + latencies.iter().filter(|l| **l > SLO_MS).count(),
        confirmed: confirmed_in(requests, first.at, last.at),
        tps: rates.iter().copied().fold(0.0, f64::max),
        cpu_us_per_txn: cpus.iter().copied().fold(f64::INFINITY, f64::min),
        tps_traced: second_median(true),
        tps_untraced: second_median(false),
        lat_p50_ms: group_median(50.0),
        lat_p95_ms: group_median(95.0),
        lat_p99_ms: group_median(99.0),
        group_samples: groups.iter().map(Vec::len).min().unwrap_or(0),
        latencies,
    }
}

/// Runs one workload and reports its metrics.
pub fn run(w: &Workload, opts: &Options) -> Result<Outcome, String> {
    let scratch = opts.out.join(format!("scratch-{}", w.name));
    sys::fresh_dir(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let pid_file = sys::claim_pid_file(&opts.out, w.name)?;
    let epoch = Instant::now();
    let mut notes = Vec::new();

    // --- input -------------------------------------------------------------
    let cover = WARMUP.as_secs_f64() + opts.seconds as f64 + 1.0;
    let bursts = Input::bursts_for(w, cover);
    let inputs: Vec<Input> = (0..DRIVER_THREADS)
        .map(|t| Input::generate(w, opts.seed, t, bursts))
        .collect();
    let pregenerated: usize = inputs.iter().map(|i| i.txns).sum();
    let gen_took: Duration = inputs.iter().map(|i| i.took).sum();

    // --- set-up, several times ----------------------------------------------
    // The probes run the whole set-up with one request of input and are
    // torn down again; the last set-up carries the real input and stays.
    let probes = if opts.trace { 0 } else { SETUPS - 1 };
    let mut setups: Vec<f64> = Vec::with_capacity(SETUPS);
    for k in 0..probes {
        let probe_inputs = (0..DRIVER_THREADS)
            .map(|t| Input::generate(w, opts.seed, t, 1))
            .collect();
        let dir = scratch.join(format!("setup-{k}"));
        let (db, drivers, took) = set_up(w, &dir, probe_inputs, epoch)?;
        setups.push(took.as_secs_f64());
        drop(drivers);
        db.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (db, mut drivers, took) = set_up(w, &scratch.join("data"), inputs, epoch)?;
    setups.push(took.as_secs_f64());
    if w.backup_down {
        db.crash_backup(ReplicaId(REPLICAS as u32 - 1));
    }

    // --- warm-up, window, drain -----------------------------------------------
    let ctl = Control::default();
    let (before, after, ticks) = std::thread::scope(|scope| {
        let run_epoch = Instant::now();
        for d in drivers.iter_mut() {
            let ctl = &ctl;
            scope.spawn(move || d.run(ctl, run_epoch));
        }
        std::thread::sleep(WARMUP);
        let start = Instant::now();
        let before = Counters::read(&db);
        let mut ticks: Vec<Tick> = Vec::with_capacity(opts.seconds as usize + 1);
        for i in 0..opts.seconds {
            // When tracing, seconds go on-off-off-on: both halves see the
            // same drift and the same share of anything that repeats
            // every other second (a checkpoint per 10 000 txns does, at
            // 5 000 txn/s). Their rates give the tracing overhead.
            let traced = opts.trace && matches!(i % 4, 0 | 3);
            ctl.tracing.store(traced, Ordering::Relaxed);
            ticks.push(Tick::now(traced));
            let end = start + Duration::from_secs(i + 1);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
        }
        ctl.tracing.store(false, Ordering::Relaxed);
        ticks.push(Tick::now(false));
        let after = Counters::read(&db);
        let window_end = Instant::now();
        ctl.phase.store(PHASE_DRAIN, Ordering::Release);
        while ctl.idle.load(Ordering::Acquire) < DRIVER_THREADS
            && window_end.elapsed() < DRAIN_LIMIT
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        ctl.phase.store(PHASE_STOP, Ordering::Release);
        (before, after, ticks)
    });

    // --- correctness -----------------------------------------------------------
    let written: HashSet<(u64, [u8; 8])> = drivers
        .iter()
        .flat_map(|d| d.writes().iter().copied())
        .collect();
    for d in drivers.iter_mut() {
        d.verify(&written);
    }
    let requests: Vec<&Request> = drivers.iter().flat_map(|d| d.requests.iter()).collect();
    let confirmed_ever: u64 = requests
        .iter()
        .filter(|r| r.done.is_some())
        .map(|r| r.len as u64)
        .sum();
    let check_failures = check_cluster(w, &db, confirmed_ever);
    let win = summarize(&requests, &ticks);

    let n = win.latencies.len();
    for p in [50.0, 95.0, 99.0] {
        if !stats::supported(win.group_samples, p) {
            notes.push(format!(
                "p{p} of a {GROUP_SECS} s group of {} requests has {} samples beyond it \
                 (fewer than {}): an outlier, not a percentile; such a group supports {}",
                win.group_samples,
                stats::samples_beyond(win.group_samples, p),
                stats::MIN_SAMPLES_BEYOND,
                stats::highest_supported(win.group_samples)
                    .map_or("none".to_string(), |p| format!("p{p}"))
            ));
        }
    }
    let generated_online: usize = drivers.iter().map(|d| d.generated_online).sum();
    notes.push(format!(
        "input: {pregenerated} txns generated before the window in {:.3} s, \
         {generated_online} during it",
        gen_took.as_secs_f64()
    ));
    notes.push(format!(
        "window {:.3} s after {:.2} s warm-up: {} requests due, {} txns confirmed; injected \
         message delay 0, so latency is processor and queueing time only",
        win.seconds,
        WARMUP.as_secs_f64(),
        win.attempted,
        win.confirmed,
    ));
    let share = |part: usize| part as f64 / win.attempted.max(1) as f64;
    // Printed with every run, not gated: see the README for why.
    let ungated = if opts.trace {
        // The traced pass reports the same as `e2e.*`.
        Vec::new()
    } else {
        vec![
            Metric {
                name: "tps_whole_window",
                value: win.confirmed as f64 / win.seconds,
                unit: "txn/s",
                samples: win.confirmed as usize,
            },
            Metric {
                name: "cpu_us_per_txn_whole_window",
                value: (ticks[ticks.len() - 1].cpu - ticks[0].cpu).as_secs_f64() * 1e6
                    / win.confirmed.max(1) as f64,
                unit: "us",
                samples: win.confirmed as usize,
            },
            Metric {
                name: "lat_p50_ms",
                value: win.lat_p50_ms,
                unit: "ms",
                samples: n,
            },
            Metric {
                name: "lat_p95_ms",
                value: win.lat_p95_ms,
                unit: "ms",
                samples: n,
            },
            Metric {
                name: "lat_p99_ms",
                value: win.lat_p99_ms,
                unit: "ms",
                samples: n,
            },
            Metric {
                name: "failed_share",
                value: share(win.failed),
                unit: "ratio",
                samples: win.attempted,
            },
            Metric {
                name: "slo_miss_share",
                value: share(win.slo_missed),
                unit: "ratio",
                samples: win.attempted,
            },
        ]
    };
    let per_second: Vec<String> = ticks
        .windows(2)
        .map(|t| confirmed_in(&requests, t[0].at, t[1].at).to_string())
        .collect();
    notes.push(format!(
        "txns confirmed per second: {}",
        per_second.join(" ")
    ));
    for f in &check_failures {
        notes.push(format!("CHECK FAILED: {f}"));
    }
    let dedup: u64 = live_replicas(w).map(|r| db.deduped_txns(r)).sum();
    let view_changes = db.views().into_iter().max().unwrap_or(0);
    if w.fault_free() && (dedup, view_changes) != (0, 0) {
        notes.push(format!(
            "WARNING: {dedup} transactions ordered twice and {view_changes} view changes on a \
             fault-free workload: requests waited past the 500 ms retransmission or the 2 s \
             view timeout; read this run's numbers as those of a squeezed machine"
        ));
    }

    // --- metrics ------------------------------------------------------------------
    let mut values: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let table = if opts.trace {
        let sum = |f: fn(&Driver) -> u64| drivers.iter().map(f).sum::<u64>();
        let submits = sum(|d| d.submits);
        let polled = sum(|d| d.confirmed);
        let submit_us = sum(|d| d.submit_ns) as f64 / 1e3 / submits.max(1) as f64;
        let poll_us = sum(|d| d.poll_ns) as f64 / 1e3 / polled.max(1) as f64;
        let mut lags: Vec<f64> = drivers
            .iter()
            .flat_map(|d| d.lags.iter().map(|l| ms(*l)))
            .collect();
        stats::sort(&mut lags);
        let txns = win.confirmed.max(1) as f64;
        let executed = (after.executed - before.executed) as f64;
        let batches = (after.batches - before.batches) as f64;
        let primary = |stages: &[Stage]| busy_pct(&before.primary, &after.primary, stages);
        let backup = |stages: &[Stage]| busy_pct(&before.backup, &after.backup, stages);
        let execute = [Stage::Execute, Stage::ExecuteCoord];
        for (name, value, samples) in [
            (
                "consensus.batch_fill",
                executed / (batches * BATCH_SIZE as f64).max(1.0),
                0,
            ),
            ("consensus.view_changes", view_changes as f64, 0),
            (
                "net.msgs_per_txn",
                (after.msgs - before.msgs) as f64 / txns,
                0,
            ),
            (
                "net.bytes_per_txn",
                (after.bytes - before.bytes) as f64 / txns,
                0,
            ),
            ("net.dropped", (after.dropped - before.dropped) as f64, 0),
            ("pipeline.busy_pct.input", primary(&[Stage::Input]), 0),
            ("pipeline.busy_pct.batch", primary(&[Stage::Batch]), 0),
            ("pipeline.busy_pct.worker", primary(&[Stage::Worker]), 0),
            ("pipeline.busy_pct.execute", primary(&execute), 0),
            (
                "pipeline.busy_pct.checkpoint",
                primary(&[Stage::Checkpoint]),
                0,
            ),
            ("pipeline.busy_pct.output", primary(&[Stage::Output]), 0),
            (
                "pipeline.backup_busy_pct.worker",
                backup(&[Stage::Worker]),
                0,
            ),
            ("pipeline.backup_busy_pct.execute", backup(&execute), 0),
            ("pipeline.dedup_txns", dedup as f64, 0),
            ("core.submit_us_per_req", submit_us, submits as usize),
            ("core.poll_us_per_reply", poll_us, polled as usize),
            (
                "bench.gen_lag_p95_ms",
                stats::percentile(&lags, 95.0),
                lags.len(),
            ),
            (
                "bench.trace_overhead_share",
                1.0 - win.tps_traced / win.tps_untraced.max(1e-9),
                0,
            ),
            ("bench.tps_untraced", win.tps_untraced, 0),
            ("bench.samples", n as f64, n),
            ("e2e.tps", win.tps, win.confirmed as usize),
            (
                "e2e.cpu_us_per_txn",
                win.cpu_us_per_txn,
                win.confirmed as usize,
            ),
            ("e2e.lat_p50_ms", win.lat_p50_ms, n),
            ("e2e.lat_p95_ms", win.lat_p95_ms, n),
            ("e2e.lat_p99_ms", win.lat_p99_ms, n),
            ("e2e.failed_share", share(win.failed), win.attempted),
            ("e2e.slo_miss_share", share(win.slo_missed), win.attempted),
        ] {
            values.insert(name, (value, samples));
        }

        // The replay wants a quiet machine: stop the cluster first.
        drop(requests);
        let mut tracers: Vec<(String, Tracer)> = drivers
            .into_iter()
            .enumerate()
            .map(|(t, d)| (format!("driver{t}"), d.tracer))
            .collect();
        db.shutdown();
        let mut replay_tracer = Tracer::new(epoch);
        let layer = replay::run(w, opts.seed, &scratch, &mut replay_tracer)
            .map_err(|e| format!("replay: {e}"))?;
        tracers.push(("replay".to_string(), replay_tracer));
        for (name, value) in &layer {
            values.insert(name, (*value, 0));
        }
        // The replicas' share of the budget comes from the replay, the
        // client's from the live spans.
        let replay_cpu = layer[replay::REPLICA_US_PER_TXN] + submit_us / w.burst as f64 + poll_us;
        let predicted = replay::predicted_tps(w, sys::cpus());
        for (name, value) in [
            ("sim.predicted_tps", predicted),
            ("sim.model_gap", predicted / win.tps.max(1e-9)),
            ("budget.replay_cpu_us_per_txn", replay_cpu),
            (
                "budget.unattributed_share",
                1.0 - replay_cpu / win.cpu_us_per_txn.max(1e-9),
            ),
        ] {
            values.insert(name, (value, 0));
        }

        let trace_file = opts.out.join(format!("trace-{}.json", w.name));
        let named: Vec<(&str, &Tracer)> = tracers.iter().map(|(n, t)| (n.as_str(), t)).collect();
        trace::write_json(&trace_file, w.name, &named)
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        let spans: usize = named.iter().map(|(_, t)| t.spans().len()).sum();
        notes.push(format!("{spans} spans written to {}", trace_file.display()));
        notes.push(
            match w.transport {
                TransportMode::InMemory => {
                    "net.*_per_txn, net.dropped: the shared switchboard, all traffic"
                }
                TransportMode::Tcp => {
                    "net.*_per_txn, net.dropped: the client transport only; replica-to-replica \
                     volume is consensus.msgs_per_batch x encoded sizes"
                }
            }
            .to_string(),
        );
        PER_LAYER
    } else {
        for (name, value, samples) in [
            ("setup_s", stats::median(&setups), setups.len()),
            ("tps", win.tps, win.confirmed as usize),
            ("cpu_us_per_txn", win.cpu_us_per_txn, win.confirmed as usize),
            ("peak_rss_mb", sys::peak_rss_mib(), 1),
        ] {
            values.insert(name, (value, samples));
        }
        drop(requests);
        drop(drivers);
        db.shutdown();
        END_TO_END
    };
    let metrics = table
        .iter()
        .map(|(name, unit)| {
            let (value, samples) = values
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect();

    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_file(&pid_file);
    Ok(Outcome {
        correct: check_failures.is_empty() && win.failed == 0,
        attempted: win.attempted,
        failed: win.failed,
        metrics,
        ungated,
        notes,
    })
}
