//! Per-thread saturation metrics (Figure 9).
//!
//! Every stage thread records the time it spends *processing* (as opposed
//! to waiting for input). Saturation = busy-time / wall-time; 100% means
//! the thread never waits — it is the pipeline bottleneck.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which pipeline stage a thread belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// The paper's input threads. The runtime runs none (the transport
    /// delivers into the consuming stage), so this stage records nothing;
    /// it stays because the benchmark's `pipeline.busy_pct.input` names
    /// it.
    Input,
    /// Assembles and digests batches (primary only).
    Batch,
    /// Runs the consensus state machine.
    Worker,
    /// Executes committed batches (serial execute-thread, or the pool
    /// workers under parallel execution).
    Execute,
    /// Schedules conflict waves and commits in order (parallel execution
    /// only, `execute_threads ≥ 2`).
    ExecuteCoord,
    /// The paper's checkpoint thread. The runtime runs none (the worker
    /// verifies checkpoint votes and its core counts them), so this stage
    /// records nothing; it stays because the benchmark's
    /// `pipeline.busy_pct.checkpoint` names it.
    Checkpoint,
    /// The paper's output threads. The runtime runs none (the execute
    /// stage and the worker sign and send client replies themselves), so
    /// this stage records nothing; it stays because the benchmark's
    /// `pipeline.busy_pct.output` names it.
    Output,
}

impl Stage {
    /// Short label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Input => "input",
            Stage::Batch => "batch",
            Stage::Worker => "worker",
            Stage::Execute => "execute",
            Stage::ExecuteCoord => "execute-coord",
            Stage::Checkpoint => "checkpoint",
            Stage::Output => "output",
        }
    }
}

#[derive(Debug, Default)]
struct ThreadCounters {
    busy_ns: AtomicU64,
    items: AtomicU64,
}

/// Keyed per-thread counters: `(stage, thread index) → counters`.
type CounterMap = HashMap<(Stage, usize), Arc<ThreadCounters>>;

/// Shared registry of per-thread busy counters for one replica.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<CounterMap>>,
    started: Arc<Mutex<Option<Instant>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the beginning of the measurement window.
    pub fn start_window(&self) {
        *self.started.lock() = Some(Instant::now());
    }

    /// Obtains (creating if needed) the recorder for thread `index` of
    /// `stage`.
    pub fn recorder(&self, stage: Stage, index: usize) -> StageRecorder {
        let counters = Arc::clone(
            self.inner
                .lock()
                .entry((stage, index))
                .or_insert_with(|| Arc::new(ThreadCounters::default())),
        );
        StageRecorder { counters }
    }

    /// Saturation per thread since `start_window`, in percent.
    pub fn report(&self) -> SaturationReport {
        let wall = self
            .started
            .lock()
            .map(|s| s.elapsed())
            .unwrap_or(Duration::from_secs(1));
        let wall_ns = wall.as_nanos().max(1) as f64;
        let threads = self
            .inner
            .lock()
            .iter()
            .map(|((stage, idx), c)| ThreadSaturation {
                stage: *stage,
                index: *idx,
                saturation_pct: 100.0 * c.busy_ns.load(Ordering::Relaxed) as f64 / wall_ns,
                items: c.items.load(Ordering::Relaxed),
            })
            .collect();
        SaturationReport { wall, threads }
    }
}

/// A stage thread's handle for recording busy time.
#[derive(Debug, Clone)]
pub struct StageRecorder {
    counters: Arc<ThreadCounters>,
}

impl StageRecorder {
    /// Times `f`, attributing its duration to this thread's busy counter.
    pub fn record<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.counters
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.items.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Adds raw busy nanoseconds (for code that measures itself).
    pub fn add_busy_ns(&self, ns: u64) {
        self.counters.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.counters.items.fetch_add(1, Ordering::Relaxed);
    }
}

/// One thread's saturation.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadSaturation {
    /// The stage the thread serves.
    pub stage: Stage,
    /// Thread index within the stage.
    pub index: usize,
    /// Busy time / wall time, in percent (100 = fully saturated).
    pub saturation_pct: f64,
    /// Work items processed.
    pub items: u64,
}

/// A replica's saturation snapshot.
#[derive(Debug, Clone)]
pub struct SaturationReport {
    /// Measurement window length.
    pub wall: Duration,
    /// Per-thread saturations.
    pub threads: Vec<ThreadSaturation>,
}

impl SaturationReport {
    /// Sum of all thread saturations ("cumulative saturation" in Fig. 9).
    pub fn cumulative_pct(&self) -> f64 {
        self.threads.iter().map(|t| t.saturation_pct).sum()
    }

    /// Saturation of a specific thread, if present.
    pub fn thread(&self, stage: Stage, index: usize) -> Option<&ThreadSaturation> {
        self.threads
            .iter()
            .find(|t| t.stage == stage && t.index == index)
    }

    /// Mean saturation across the threads of `stage`.
    pub fn stage_mean(&self, stage: Stage) -> f64 {
        let of_stage: Vec<&ThreadSaturation> =
            self.threads.iter().filter(|t| t.stage == stage).collect();
        if of_stage.is_empty() {
            return 0.0;
        }
        of_stage.iter().map(|t| t.saturation_pct).sum::<f64>() / of_stage.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_busy_time() {
        let reg = MetricsRegistry::new();
        reg.start_window();
        let rec = reg.recorder(Stage::Worker, 0);
        rec.record(|| std::thread::sleep(Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(20));
        let report = reg.report();
        let worker = report.thread(Stage::Worker, 0).unwrap();
        // Busy ~20ms of ~40ms wall → roughly 50%, definitely between 20-90%.
        assert!(
            worker.saturation_pct > 20.0 && worker.saturation_pct < 90.0,
            "saturation {}",
            worker.saturation_pct
        );
        assert_eq!(worker.items, 1);
    }

    #[test]
    fn idle_thread_near_zero() {
        let reg = MetricsRegistry::new();
        reg.start_window();
        let _rec = reg.recorder(Stage::Execute, 0);
        std::thread::sleep(Duration::from_millis(10));
        let report = reg.report();
        assert!(report.thread(Stage::Execute, 0).unwrap().saturation_pct < 5.0);
    }

    #[test]
    fn cumulative_sums_threads() {
        let reg = MetricsRegistry::new();
        reg.start_window();
        reg.recorder(Stage::Batch, 0).add_busy_ns(10_000_000);
        reg.recorder(Stage::Batch, 1).add_busy_ns(10_000_000);
        std::thread::sleep(Duration::from_millis(20));
        let report = reg.report();
        let cum = report.cumulative_pct();
        let mean = report.stage_mean(Stage::Batch);
        assert!(cum > 0.0);
        assert!((mean - cum / 2.0).abs() < 1e-6);
    }

    #[test]
    fn same_recorder_shared_across_clones() {
        let reg = MetricsRegistry::new();
        reg.start_window();
        let a = reg.recorder(Stage::Output, 3);
        let b = reg.recorder(Stage::Output, 3);
        a.add_busy_ns(5);
        b.add_busy_ns(7);
        let report = reg.report();
        assert_eq!(report.thread(Stage::Output, 3).unwrap().items, 2);
    }
}
