//! Load generation: logical client sessions multiplexed over a few driver
//! threads with `submit` / `poll_progress` (the `swarm.rs` pattern — no
//! thread per client, no socket per client).
//!
//! Every transaction comes from `rdb_workload::WorkloadGenerator` seeded
//! with `--seed` and is generated before the measured window; the cluster
//! receives only the generated transactions.

use crate::trace::Tracer;
use crate::workloads::{Loop, Workload, DRIVER_THREADS};
use rdb_common::{ClientId, Operation, Transaction, TxnId};
use rdb_workload::WorkloadGenerator;
use resilientdb::{ClientSession, ResilientDb};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Drivers submit new requests.
pub const PHASE_RUN: u8 = 0;
/// Drivers only collect replies to what is outstanding.
pub const PHASE_DRAIN: u8 = 1;
/// Drivers return.
pub const PHASE_STOP: u8 = 2;

/// How long an idle driver naps before polling again.
const IDLE_NAP: Duration = Duration::from_micros(100);

/// What the main thread tells the drivers.
#[derive(Debug, Default)]
pub struct Control {
    /// One of the `PHASE_*` values.
    pub phase: AtomicU8,
    /// Whether live spans are recorded right now.
    pub tracing: AtomicBool,
    /// Drivers with nothing outstanding during the drain.
    pub idle: AtomicUsize,
}

/// A fixed-rate request schedule. Due times depend only on the index,
/// never on when earlier requests were actually sent, so a stall shows as
/// lateness of the requests due during it instead of silently lowering
/// the offered rate.
#[derive(Debug, Clone)]
pub struct OpenSchedule {
    interval_ns: u64,
    offset_ns: u64,
    next: u64,
}

impl OpenSchedule {
    /// A schedule of `requests_per_s`, the first request due at `offset`.
    pub fn new(requests_per_s: f64, offset: Duration) -> Self {
        assert!(requests_per_s > 0.0, "rate must be positive");
        OpenSchedule {
            interval_ns: (1e9 / requests_per_s).round() as u64,
            offset_ns: offset.as_nanos() as u64,
            next: 0,
        }
    }

    /// When request `index` is due, measured from the schedule's start.
    pub fn due(&self, index: u64) -> Duration {
        Duration::from_nanos(self.offset_ns + index * self.interval_ns)
    }

    /// When the next unsent request is due.
    pub fn next_due(&self) -> Duration {
        self.due(self.next)
    }

    /// Takes the next request if it is due at `elapsed`.
    pub fn take_due(&mut self, elapsed: Duration) -> Option<(u64, Duration)> {
        let due = self.next_due();
        (due <= elapsed).then(|| {
            let index = self.next;
            self.next += 1;
            (index, due)
        })
    }
}

/// Hands every request that is due to `sink` as `(index, due, sent)`.
/// The clock is read again for each request: time the sink spends on one
/// request makes the next ones late, and that lateness is recorded.
pub fn issue_due(
    schedule: &mut OpenSchedule,
    clock: impl Fn() -> Duration,
    mut sink: impl FnMut(u64, Duration, Duration),
) -> usize {
    let mut issued = 0;
    while let Some((index, due)) = schedule.take_due(clock()) {
        sink(index, due, clock());
        issued += 1;
    }
    issued
}

/// What a transaction's reply must be, from its last operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Last operation wrote `key`: the reply echoes the key.
    Wrote(u64),
    /// Last operation read `key`: the reply is the first eight bytes of a
    /// value some transaction (or the preload) wrote there.
    Read(u64),
}

/// One request: a burst of transactions from one session.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index of the session within its driver.
    pub session: usize,
    /// Counter of the burst's first transaction.
    pub first: u64,
    /// Transactions in the burst.
    pub len: usize,
    /// When it was due (closed loop: when it was sent).
    pub due: Instant,
    /// When the last of its transactions was confirmed by f+1 matching
    /// replies; `None` if that never happened.
    pub done: Option<Instant>,
    /// Whether every reply carried the value the operations dictate
    /// (filled in by [`Driver::verify`]).
    pub correct: bool,
}

impl Request {
    /// Due time → confirmation.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_duration_since(self.due))
    }
}

struct Session {
    session: ClientSession,
    pool: VecDeque<Vec<Transaction>>,
    /// Indices into `Driver::requests`, oldest first.
    outstanding: VecDeque<usize>,
    /// Expected reply per transaction counter.
    expect: Vec<Expect>,
}

/// The pre-generated input of one driver thread.
pub struct Input {
    gen: WorkloadGenerator,
    pools: Vec<VecDeque<Vec<Transaction>>>,
    /// Transactions generated.
    pub txns: usize,
    /// How long generating them took.
    pub took: Duration,
}

/// Client ids served by driver `thread`: every `DRIVER_THREADS`-th one.
fn clients_of(w: &Workload, thread: usize) -> Vec<ClientId> {
    (thread..w.sessions)
        .step_by(DRIVER_THREADS)
        .map(|i| ClientId(i as u64))
        .collect()
}

impl Input {
    /// Generates `bursts_per_session` requests for every session of
    /// driver `thread`, round-robin so that a prefix of the stream is a
    /// prefix of every session's input.
    pub fn generate(w: &Workload, seed: u64, thread: usize, bursts_per_session: usize) -> Self {
        let start = Instant::now();
        let clients = clients_of(w, thread);
        // One independent stream per driver thread.
        let mut gen = WorkloadGenerator::new(w.generator(), seed.wrapping_add(thread as u64));
        let mut pools: Vec<VecDeque<Vec<Transaction>>> = clients
            .iter()
            .map(|_| VecDeque::with_capacity(bursts_per_session))
            .collect();
        for _ in 0..bursts_per_session {
            for (pool, client) in pools.iter_mut().zip(&clients) {
                pool.push_back(gen.next_client_batch(*client, w.burst));
            }
        }
        Input {
            gen,
            pools,
            txns: bursts_per_session * clients.len() * w.burst,
            took: start.elapsed(),
        }
    }

    /// Requests per session that cover `secs` seconds of this workload.
    pub fn bursts_for(w: &Workload, secs: f64) -> usize {
        let requests = match w.load {
            Loop::Closed => w.pregen_tps * secs / w.burst as f64,
            Loop::Open { requests_per_s } => requests_per_s * secs,
        };
        (requests / w.sessions as f64).ceil() as usize + 1
    }
}

/// One load-generator thread: its sessions, their input and everything
/// it observed.
pub struct Driver {
    thread: usize,
    burst: usize,
    has_reads: bool,
    schedule: Option<OpenSchedule>,
    gen: WorkloadGenerator,
    sessions: Vec<Session>,
    /// Every request submitted, in submission order.
    pub requests: Vec<Request>,
    /// `(key, first eight value bytes)` of every submitted write (only
    /// collected when the workload reads).
    writes: Vec<(u64, [u8; 8])>,
    /// Live spans (`core.submit`, `core.poll`) recorded while tracing.
    pub tracer: Tracer,
    /// Transactions generated during the run because the pre-generated
    /// input ran out.
    pub generated_online: usize,
    /// Time inside `ClientSession::submit`, and calls.
    pub submit_ns: u64,
    /// `submit` calls.
    pub submits: u64,
    /// Time inside `poll_progress` calls that confirmed something.
    pub poll_ns: u64,
    /// Transactions those calls confirmed.
    pub confirmed: u64,
    /// `poll_progress` calls that confirmed nothing.
    pub idle_polls: u64,
    /// Send time minus due time of every open-loop request.
    pub lags: Vec<Duration>,
}

fn prefix8(value: &[u8]) -> [u8; 8] {
    let mut p = [0u8; 8];
    let n = value.len().min(8);
    p[..n].copy_from_slice(&value[..n]);
    p
}

impl Driver {
    /// Opens this thread's sessions on `db` and attaches their input.
    pub fn connect(
        w: &Workload,
        thread: usize,
        db: &ResilientDb,
        input: Input,
        epoch: Instant,
    ) -> Self {
        let clients = clients_of(w, thread);
        assert_eq!(clients.len(), input.pools.len(), "input is for this thread");
        let sessions = clients
            .iter()
            .zip(input.pools)
            .map(|(c, pool)| Session {
                session: db.client(c.0),
                pool,
                outstanding: VecDeque::new(),
                expect: Vec::new(),
            })
            .collect();
        let schedule = match w.load {
            Loop::Closed => None,
            // Thread t sends every DRIVER_THREADS-th request of the
            // global schedule, starting with request t.
            Loop::Open { requests_per_s } => Some(OpenSchedule::new(
                requests_per_s / DRIVER_THREADS as f64,
                Duration::from_secs_f64(thread as f64 / requests_per_s),
            )),
        };
        Driver {
            thread,
            burst: w.burst,
            has_reads: w.has_reads(),
            schedule,
            gen: input.gen,
            sessions,
            requests: Vec::new(),
            writes: Vec::new(),
            tracer: Tracer::new(epoch),
            generated_online: 0,
            submit_ns: 0,
            submits: 0,
            poll_ns: 0,
            confirmed: 0,
            idle_polls: 0,
            lags: Vec::new(),
        }
    }

    /// Trace request id: unique across drivers.
    fn request_id(&self, index: usize) -> u64 {
        ((self.thread as u64) << 48) | index as u64
    }

    fn submit(&mut self, s: usize, due: Instant, traced: bool) {
        let sess = &mut self.sessions[s];
        let txns = match sess.pool.pop_front() {
            Some(txns) => txns,
            None => {
                self.generated_online += self.burst;
                self.gen.next_client_batch(sess.session.id(), self.burst)
            }
        };
        let first = txns[0].id.counter;
        debug_assert_eq!(first as usize, sess.expect.len(), "counters are dense");
        for t in &txns {
            sess.expect.push(match t.ops.last() {
                Some(Operation::Read { key }) => Expect::Read(*key),
                Some(Operation::Write { key, .. }) => Expect::Wrote(*key),
                None => unreachable!("the generator emits at least one operation"),
            });
            if self.has_reads {
                for op in &t.ops {
                    if let Operation::Write { key, value } = op {
                        self.writes.push((*key, prefix8(value)));
                    }
                }
            }
        }
        let len = txns.len();
        let index = self.requests.len();
        let sent = Instant::now();
        sess.session.submit(txns);
        let end = Instant::now();
        self.submit_ns += (end - sent).as_nanos() as u64;
        self.submits += 1;
        sess.outstanding.push_back(index);
        self.requests.push(Request {
            session: s,
            first,
            len,
            due,
            done: None,
            correct: false,
        });
        if traced {
            let id = self.request_id(index);
            self.tracer.record("core.submit", id, sent, end);
        }
    }

    /// Pumps session `s` once; marks requests whose transactions are all
    /// confirmed. Returns whether anything was confirmed.
    fn poll(&mut self, s: usize, traced: bool) -> bool {
        let sess = &mut self.sessions[s];
        let start = Instant::now();
        let confirmed = sess.session.poll_progress();
        if confirmed == 0 {
            self.idle_polls += 1;
            return false;
        }
        let end = Instant::now();
        self.poll_ns += (end - start).as_nanos() as u64;
        self.confirmed += confirmed as u64;
        let front = sess.outstanding.front().copied();
        let all_done = sess.session.pending() == 0;
        while let Some(&index) = sess.outstanding.front() {
            let r = &self.requests[index];
            let done = all_done
                || (r.first..r.first + r.len as u64).all(|c| {
                    sess.session
                        .result(TxnId::new(sess.session.id(), c))
                        .is_some()
                });
            if !done {
                break;
            }
            self.requests[index].done = Some(end);
            sess.outstanding.pop_front();
        }
        if traced {
            if let Some(index) = front {
                let id = self.request_id(index);
                self.tracer.record("core.poll", id, start, end);
            }
        }
        true
    }

    fn outstanding(&self) -> usize {
        self.sessions.iter().map(|s| s.outstanding.len()).sum()
    }

    /// Submits session 0's first request and waits for its confirmation
    /// (the end of set-up). Returns whether it arrived in time.
    pub fn first_commit(&mut self, timeout: Duration) -> bool {
        let start = Instant::now();
        self.submit(0, start, false);
        while self.outstanding() > 0 {
            if start.elapsed() > timeout {
                return false;
            }
            if !self.poll(0, false) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        true
    }

    /// Runs until the main thread says stop. `epoch` is the instant the
    /// open-loop schedule counts from.
    pub fn run(&mut self, ctl: &Control, epoch: Instant) {
        let mut reported_idle = false;
        loop {
            let phase = ctl.phase.load(Ordering::Acquire);
            if phase == PHASE_STOP {
                return;
            }
            let traced = ctl.tracing.load(Ordering::Relaxed);
            let mut progressed = false;
            if phase == PHASE_RUN {
                if let Some(mut schedule) = self.schedule.take() {
                    let n = self.sessions.len();
                    progressed |= issue_due(
                        &mut schedule,
                        || epoch.elapsed(),
                        |index, due, sent| {
                            self.lags.push(sent.saturating_sub(due));
                            self.submit(index as usize % n, epoch + due, traced);
                        },
                    ) > 0;
                    self.schedule = Some(schedule);
                }
            }
            for s in 0..self.sessions.len() {
                if !self.sessions[s].outstanding.is_empty() {
                    progressed |= self.poll(s, traced);
                }
                if self.schedule.is_none()
                    && phase == PHASE_RUN
                    && self.sessions[s].outstanding.is_empty()
                {
                    self.submit(s, Instant::now(), traced);
                    progressed = true;
                }
            }
            if phase == PHASE_DRAIN && !reported_idle && self.outstanding() == 0 {
                ctl.idle.fetch_add(1, Ordering::Release);
                reported_idle = true;
            }
            if !progressed {
                let nap = match (&self.schedule, phase) {
                    (Some(schedule), PHASE_RUN) => schedule
                        .next_due()
                        .saturating_sub(epoch.elapsed())
                        .min(IDLE_NAP),
                    _ => IDLE_NAP,
                };
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
        }
    }

    /// Every `(key, value prefix)` this driver's transactions wrote.
    pub fn writes(&self) -> &[(u64, [u8; 8])] {
        &self.writes
    }

    /// Checks the reply of every confirmed transaction against what its
    /// operations dictate and marks each request. `written` holds every
    /// write any driver submitted; the preload put eight zero bytes
    /// under every key.
    pub fn verify(&mut self, written: &HashSet<(u64, [u8; 8])>) {
        for r in &mut self.requests {
            let sess = &self.sessions[r.session];
            let id = sess.session.id();
            r.correct = r.done.is_some()
                && (r.first..r.first + r.len as u64).all(|c| {
                    let Some(reply) = sess.session.result(TxnId::new(id, c)) else {
                        return false;
                    };
                    match sess.expect[c as usize] {
                        Expect::Wrote(key) => reply[..] == key.to_le_bytes(),
                        Expect::Read(key) => {
                            reply.len() == 8
                                && (reply[..] == [0u8; 8]
                                    || written.contains(&(key, prefix8(reply))))
                        }
                    }
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn due_times_depend_only_on_the_index() {
        let s = OpenSchedule::new(1_000.0, 3 * MS);
        assert_eq!(s.due(0), 3 * MS);
        assert_eq!(s.due(10), 13 * MS);
        let mut s = OpenSchedule::new(300.0, Duration::ZERO);
        assert_eq!(s.take_due(Duration::ZERO), Some((0, Duration::ZERO)));
        assert_eq!(s.take_due(Duration::ZERO), None, "request 1 is not due yet");
        assert_eq!(s.next_due(), Duration::from_nanos(3_333_333));
    }

    #[test]
    fn a_stalled_sink_shows_as_lateness_not_as_a_lower_rate() {
        // 1 request per ms; the sink takes 50 ms to accept request 5
        // and nothing otherwise. The loop wakes once per ms.
        let clock = Cell::new(Duration::ZERO);
        let mut schedule = OpenSchedule::new(1_000.0, Duration::ZERO);
        let mut sent: Vec<(u64, Duration, Duration)> = Vec::new();
        for tick in 0..100u32 {
            clock.set(clock.get().max(tick * MS));
            issue_due(
                &mut schedule,
                || clock.get(),
                |index, due, at| {
                    sent.push((index, due, at));
                    if index == 5 {
                        clock.set(clock.get() + 50 * MS);
                    }
                },
            );
        }
        // No request was skipped and no due time moved.
        assert_eq!(sent.len(), 100);
        for (i, (index, due, _)) in sent.iter().enumerate() {
            assert_eq!(*index, i as u64);
            assert_eq!(*due, i as u32 * MS);
        }
        let lag = |i: usize| sent[i].2 - sent[i].1;
        assert_eq!(
            lag(5),
            Duration::ZERO,
            "sent on time, then the sink stalled"
        );
        // Requests 6..=55 fell due during the stall; all go out at
        // t = 55 ms, each late by exactly what it waited.
        assert_eq!(lag(6), 49 * MS);
        assert_eq!(lag(30), 25 * MS);
        assert_eq!(lag(55), Duration::ZERO);
        assert_eq!(lag(56), Duration::ZERO, "caught up");
        // Timed from its due time, request 6 carries the stall even if
        // the system then answers instantly.
        let answered_at = sent[6].2;
        assert_eq!(answered_at - sent[6].1, 49 * MS);
    }
}
