//! Deterministic failure-scenario matrix.
//!
//! A [`FaultPlan`] is a schedule of fault injections — crashes, recoveries,
//! partitions, seeded message loss and delay jitter — fired at
//! deterministic marks: either a committed-transaction count or elapsed
//! wall clock. [`run_scenario`] executes a plan against a *live* deployment
//! (both protocols, both transport backends) while client load is in
//! flight, records committed-transaction-per-second buckets around the
//! fault events, and checks the robustness properties the paper's failure
//! experiments (Figure 17) rely on:
//!
//! - **liveness** — every submitted transaction completes despite the
//!   faults (clients retransmit, replicas deduplicate, view changes
//!   replace dead primaries);
//! - **safety** — every replica that is up at the end (never crashed, or
//!   crashed and recovered) converges to an identical state digest: loss
//!   bursts and rejoins are repaired by the fetch / state-transfer
//!   protocol, so only permanently-crashed replicas are excused.
//!
//! [`scenarios`] is the named catalog (backup crash, primary crash → view
//! change, cascading crashes, partition + heal, lossy links, delay jitter,
//! equivocating primary, crash during checkpoint, restart + rejoin,
//! rejoin via state transfer, chaos). The `faults` bench binary runs the catalog over the full
//! protocol × transport matrix and emits `BENCH_faults.json`; the
//! `rdb-node --fault-plan` flag applies a parsed plan to a single node of
//! a multi-process cluster.

use crate::fabric::SystemBuilder;
use crate::swarm::SwarmConfig;
use rdb_common::messages::{Message, Sender, SignedMessage};
use rdb_common::{Batch, ProtocolKind, ReplicaId, TransportMode};
use rdb_crypto::{CryptoProvider, PeerClass};
use rdb_net::fault::Rewrite;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When a fault event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// Once this many transactions have completed (across all clients).
    Committed(u64),
    /// Once this much wall clock has elapsed since load started.
    Elapsed(Duration),
}

/// What a fault event does.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Crash a replica (all its traffic dropped; sockets torn down on TCP).
    Crash(u32),
    /// Recover a crashed replica.
    Recover(u32),
    /// Partition the replica set into isolated groups.
    Partition(Vec<Vec<u32>>),
    /// Heal all partitions.
    HealAll,
    /// Set the uniform per-link message drop rate (`[0.0, 1.0]`).
    DropRate(f64),
    /// Set the maximum seeded per-message delivery delay.
    DelayJitter(Duration),
}

/// One scheduled fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When to fire.
    pub at: Mark,
    /// What to do.
    pub action: FaultAction,
}

/// A deterministic fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the per-link drop/delay schedule (and key generation).
    pub seed: u64,
    /// The events, in any order; the runner fires each once when due.
    pub events: Vec<FaultEvent>,
}

/// The next word of a plan line parsed as a `T`, or the line's error.
fn next<T: std::str::FromStr>(
    words: &mut std::str::SplitWhitespace<'_>,
    err: String,
) -> Result<T, String> {
    words.next().and_then(|w| w.parse().ok()).ok_or(err)
}

impl FaultPlan {
    /// Parses the plan-file mini language used by `rdb-node --fault-plan`.
    ///
    /// One directive per line; `#` starts a comment:
    ///
    /// ```text
    /// seed 42
    /// at committed 50 crash 0
    /// at elapsed_ms 2000 recover 0
    /// at elapsed_ms 800 partition 0,1|2,3
    /// at elapsed_ms 1800 heal
    /// at elapsed_ms 0 drop_rate 0.05
    /// at elapsed_ms 0 delay_jitter_us 2000
    /// ```
    ///
    /// # Errors
    /// Returns a message naming the offending line.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = |why: &str| format!("line {}: {why}: `{line}`", lineno + 1);
            let mut words = line.split_whitespace();
            match words.next() {
                Some("seed") => plan.seed = next(&mut words, bad("expected `seed <u64>`"))?,
                Some("at") => {
                    let kind = words.next().ok_or_else(|| bad("missing mark kind"))?;
                    let value: u64 = next(&mut words, bad("missing mark value"))?;
                    let at = match kind {
                        "committed" => Mark::Committed(value),
                        "elapsed_ms" => Mark::Elapsed(Duration::from_millis(value)),
                        _ => return Err(bad("mark kind must be `committed` or `elapsed_ms`")),
                    };
                    let verb = words.next().ok_or_else(|| bad("missing action"))?;
                    let action = match verb {
                        "crash" | "recover" => {
                            let r: u32 = next(&mut words, bad("expected a replica id"))?;
                            if verb == "crash" {
                                FaultAction::Crash(r)
                            } else {
                                FaultAction::Recover(r)
                            }
                        }
                        "partition" => {
                            let spec = words.next().ok_or_else(|| bad("expected groups"))?;
                            let groups: Result<Vec<Vec<u32>>, _> = spec
                                .split('|')
                                .map(|g| {
                                    g.split(',')
                                        .map(|r| {
                                            r.parse::<u32>().map_err(|_| bad("bad replica id"))
                                        })
                                        .collect()
                                })
                                .collect();
                            FaultAction::Partition(groups?)
                        }
                        "heal" => FaultAction::HealAll,
                        "drop_rate" => {
                            FaultAction::DropRate(next(&mut words, bad("expected a rate"))?)
                        }
                        "delay_jitter_us" => {
                            let us = next(&mut words, bad("expected microseconds"))?;
                            FaultAction::DelayJitter(Duration::from_micros(us))
                        }
                        _ => return Err(bad("unknown action")),
                    };
                    plan.events.push(FaultEvent { at, action });
                }
                _ => return Err(bad("expected `seed` or `at`")),
            }
        }
        Ok(plan)
    }

    /// Removes and returns the events due once `committed` transactions
    /// have completed and `elapsed` has passed since load started, in plan
    /// order. An event is returned by exactly one call: the first at which
    /// it is due. The scenario runner and `rdb-node --fault-plan` both fire
    /// their schedules through this one check.
    pub fn take_due(&mut self, committed: u64, elapsed: Duration) -> Vec<FaultEvent> {
        let (due, pending): (Vec<FaultEvent>, Vec<FaultEvent>) = std::mem::take(&mut self.events)
            .into_iter()
            .partition(|event| match event.at {
                Mark::Committed(at) => committed >= at,
                Mark::Elapsed(at) => elapsed >= at,
            });
        self.events = pending;
        due
    }

    /// Replicas this plan ever crashes.
    pub fn crashed_replicas(&self) -> HashSet<u32> {
        self.events
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::Crash(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    /// Replicas this plan crashes and never recovers. A recovered replica
    /// is expected to rejoin via the fetch / state-transfer protocol and
    /// converge with the survivors; only a permanently-down replica is
    /// excused from final digest agreement.
    pub fn permanently_down(&self) -> HashSet<u32> {
        let recovered: HashSet<u32> = self
            .events
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::Recover(r) => Some(r),
                _ => None,
            })
            .collect();
        self.crashed_replicas()
            .into_iter()
            .filter(|r| !recovered.contains(r))
            .collect()
    }
}

/// Transactions each client of a scenario submits.
const TXNS_PER_CLIENT: u64 = 60;
/// Transactions per consensus batch in every scenario.
const BATCH_SIZE: usize = 8;
/// Every scenario's replica suspicion timeout, in milliseconds.
const VIEW_TIMEOUT_MS: u64 = 400;

/// A named scenario: a fault plan plus the load shape it runs under.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (stable; keys `BENCH_faults.json`).
    pub name: &'static str,
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Make the initial primary equivocate from its first proposal on
    /// ([`equivocation`]; its own core stays honest).
    pub byzantine: bool,
    /// Parallel consensus instances (multi-primary ordering; `> 1` makes
    /// the scenario [`pbft_only`](Self::pbft_only)).
    pub consensus_instances: usize,
    /// Concurrent client sessions.
    pub clients: usize,
    /// Checkpoint interval Δ in transactions. Kept above the total load
    /// for most scenarios so view-change vote tails carry the entire log
    /// (stragglers catch all the way up); lowered for the
    /// checkpoint-interaction scenario.
    pub checkpoint_txns: u64,
    /// Hard wall-clock cap on the run.
    pub deadline: Duration,
}

impl Scenario {
    fn base(name: &'static str) -> Scenario {
        Scenario {
            name,
            plan: FaultPlan::default(),
            byzantine: false,
            consensus_instances: 1,
            clients: 2,
            checkpoint_txns: 1_000_000,
            deadline: Duration::from_secs(25),
        }
    }

    fn with_events(mut self, events: Vec<FaultEvent>) -> Scenario {
        self.plan.events = events;
        self
    }

    /// Total transactions this scenario submits.
    pub fn total_txns(&self) -> u64 {
        self.clients as u64 * TXNS_PER_CLIENT
    }

    /// Whether the scenario runs only under PBFT: multi-primary ordering
    /// is PBFT-only, and Zyzzyva's view change does not survive a
    /// byzantine primary yet.
    pub fn pbft_only(&self) -> bool {
        self.byzantine || self.consensus_instances > 1
    }
}

fn at_committed(n: u64, action: FaultAction) -> FaultEvent {
    FaultEvent {
        at: Mark::Committed(n),
        action,
    }
}

fn at_ms(ms: u64, action: FaultAction) -> FaultEvent {
    FaultEvent {
        at: Mark::Elapsed(Duration::from_millis(ms)),
        action,
    }
}

/// The named scenario catalog.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        // Figure 17's headline case: one crashed backup. PBFT degrades
        // gracefully (commit quorum still forms); Zyzzyva's fast path dies
        // and every request takes the client-driven certificate detour.
        Scenario::base("backup_crash").with_events(vec![at_committed(30, FaultAction::Crash(1))]),
        // The primary dies mid-stream: suspicion timers fire, a view
        // change elects replica 1, in-flight batches are re-issued and
        // committed exactly once.
        Scenario::base("primary_crash").with_events(vec![at_committed(30, FaultAction::Crash(0))]),
        // Crashes chase the primaryship: the first new primary dies too
        // (after the first recovers — f = 1 tolerates one fault at a time).
        Scenario {
            deadline: Duration::from_secs(35),
            ..Scenario::base("cascading_crashes")
        }
        .with_events(vec![
            at_committed(20, FaultAction::Crash(0)),
            at_ms(4_000, FaultAction::Recover(0)),
            at_ms(5_000, FaultAction::Crash(1)),
        ]),
        // A 2+2 split: neither half has a quorum, commits stall entirely,
        // then the heal lets the view-change votes union and the log
        // re-issue catch everyone up.
        Scenario {
            deadline: Duration::from_secs(35),
            ..Scenario::base("partition_heal")
        }
        .with_events(vec![
            at_committed(30, FaultAction::Partition(vec![vec![0, 1], vec![2, 3]])),
            at_ms(3_000, FaultAction::HealAll),
        ]),
        // A loss burst: 5% of messages silently vanish on every link for
        // 2.5 s, then the links recover. Vote re-broadcast and client
        // retransmission mask the loss; once the burst ends, any view
        // changes it triggered settle, and a straggler that lost a
        // re-issued PrePrepare outright fetches the committed batch (plus
        // its certificate) from a peer — so ALL FOUR replicas must end on
        // the same digest, not just a commit quorum.
        Scenario::base("lossy_network").with_events(vec![
            at_ms(0, FaultAction::DropRate(0.05)),
            at_ms(2_500, FaultAction::DropRate(0.0)),
        ]),
        // Up to 2 ms of seeded per-message delay: exercises reordering
        // (out-of-order proposals park; execution stays sequential).
        Scenario::base("delay_jitter").with_events(vec![at_ms(
            0,
            FaultAction::DelayJitter(Duration::from_millis(2)),
        )]),
        // The byzantine case: the initial primary's transport hands each
        // backup a *different* variant of every proposal. No quorum can
        // form, the honest replicas vote it out, and the new primary's
        // majority merge commits a single variant. PBFT-only: under
        // Zyzzyva 17 of 20 runs stall in view 0 (ARCHITECTURE "Scope").
        Scenario {
            byzantine: true,
            ..Scenario::base("equivocating_primary")
        },
        // Multi-primary ordering under fire: two consensus instances, and
        // the crash kills replica 1 — instance 1's view-0 primary but a
        // mere backup of instance 0. Instance 0 keeps committing
        // throughout; instance 1 stalls, its suspicion timers fire, a
        // per-instance view change hands it to replica 2 (= (1+1) mod 4),
        // and the sharded clients re-aim at the *same instance's* new
        // primary — never a second instance, so nothing double-orders.
        // PBFT-only by construction (k > 1 rejects Zyzzyva).
        Scenario {
            consensus_instances: 2,
            clients: 4,
            deadline: Duration::from_secs(35),
            ..Scenario::base("multi_primary_crash")
        }
        .with_events(vec![at_committed(30, FaultAction::Crash(1))]),
        // A backup dies just as a checkpoint interval boundary passes:
        // checkpoint stability (2f+1) must still be reached and pruning
        // must not strand the survivors.
        Scenario {
            checkpoint_txns: 32,
            ..Scenario::base("crash_during_checkpoint")
        }
        .with_events(vec![at_committed(34, FaultAction::Crash(3))]),
        // Crash, then recover: the rejoined replica must not poison the
        // healthy quorum — and with the fetch protocol it must do better
        // than not poisoning: it detects its execution hole, fetches the
        // committed batches (with certificates) it slept through, and
        // converges to the survivors' exact digest. All four replicas
        // must agree at the end.
        Scenario {
            deadline: Duration::from_secs(35),
            ..Scenario::base("restart_rejoin")
        }
        .with_events(vec![
            at_committed(30, FaultAction::Crash(2)),
            at_ms(3_000, FaultAction::Recover(2)),
        ]),
        // Rejoin through a *snapshot*: checkpointing is on (Δ = 32 txns),
        // so by the time the crashed replica returns, the survivors have
        // pruned the log below the stable checkpoint and cannot serve the
        // oldest holes batch-by-batch. The rejoiner must instead install
        // a verified state snapshot (f+1 peers agreeing on the state
        // commitment) at the checkpoint base and fetch only the tail —
        // and still converge to the survivors' digest.
        Scenario {
            checkpoint_txns: 32,
            deadline: Duration::from_secs(35),
            ..Scenario::base("rejoin_via_state_transfer")
        }
        .with_events(vec![
            at_committed(30, FaultAction::Crash(2)),
            at_ms(3_000, FaultAction::Recover(2)),
        ]),
        // Everything at once: background loss and jitter, a primary
        // crash, a short partition, and a heal — on BOTH protocols, with
        // ALL FOUR replicas required to agree at the end. The drop burst
        // can cost a replica a re-issued PrePrepare; it re-fetches the
        // committed batch from a peer. The recovered ex-primary rejoins
        // the same way. Under Zyzzyva the speculative histories diverge
        // 2+1+1 across the partition sides and the recovered ex-primary —
        // the view change rolls every replica's mis-speculated suffix
        // back to the committed prefix and re-executes the new primary's
        // merged history, which is exactly the reconciliation machinery
        // the source paper singles out as Zyzzyva's Achilles' heel.
        // Checkpointing stays off (Δ above the load) so recovery here is
        // pure per-batch fetch; the snapshot path is exercised by
        // `rejoin_via_state_transfer`.
        Scenario {
            deadline: Duration::from_secs(40),
            ..Scenario::base("chaos")
        }
        .with_events(vec![
            at_ms(0, FaultAction::DropRate(0.02)),
            at_ms(0, FaultAction::DelayJitter(Duration::from_millis(1))),
            at_committed(20, FaultAction::Crash(0)),
            at_ms(4_000, FaultAction::Partition(vec![vec![1, 2], vec![3]])),
            at_ms(6_000, FaultAction::HealAll),
            at_ms(6_500, FaultAction::Recover(0)),
            at_ms(7_000, FaultAction::DropRate(0.0)),
        ]),
    ]
}

/// Looks a catalog scenario up by name.
pub fn scenario_by_name(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

/// Equivocation, the byzantine strategy of `equivocating_primary`, for the
/// replica whose keys `provider` holds: backup `r` receives each
/// `PrePrepare` with its batch's transactions rotated left by `r`, under
/// that variant's honest digest, re-signed. With three or more
/// transactions per batch every backup sees a different digest, so no
/// prepare quorum forms and the honest replicas vote the liar out. Every
/// other message goes out as its honest core sent it.
pub fn equivocation(provider: CryptoProvider) -> Rewrite {
    Arc::new(move |to: Sender, sm: &SignedMessage| match (sm.msg(), to) {
        (
            Message::PrePrepare {
                view, seq, batch, ..
            },
            Sender::Replica(r),
        ) => {
            let mut txns = batch.txns.clone();
            txns.rotate_left(r.as_usize() % batch.txns.len().max(1));
            let variant = Batch::new(txns);
            let lie = Message::PrePrepare {
                view: *view,
                seq: *seq,
                digest: rdb_crypto::digest(&variant.canonical_bytes()),
                batch: Arc::new(variant),
            };
            let sign = |bytes: &[u8]| provider.sign(PeerClass::Replica, bytes);
            Some(SignedMessage::sign_with(lie, provider.identity(), sign))
        }
        _ => None,
    })
}

/// The measured outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub scenario: String,
    /// `"pbft"` or `"zyzzyva"`.
    pub protocol: String,
    /// `"memory"` or `"tcp"`.
    pub transport: String,
    /// Transactions submitted.
    pub total_txns: u64,
    /// Transactions completed at the clients.
    pub completed: u64,
    /// Wall clock from first submission to last completion (or deadline).
    pub elapsed_ms: u64,
    /// Client-completed transactions per elapsed second (bucket `i` covers
    /// `[i, i+1)` seconds) — the degradation profile around the faults.
    pub buckets: Vec<u64>,
    /// `(ms_since_start, committed_so_far, description)` for every fault
    /// fired; `committed_so_far` is the client-completed count it fired at.
    pub events: Vec<(u64, u64, String)>,
    /// Final installed view per replica (instance 0).
    pub final_views: Vec<u64>,
    /// Parallel consensus instances the deployment ran.
    pub consensus_instances: usize,
    /// Final installed view per replica, per instance (`[instance][replica]`).
    pub instance_views: Vec<Vec<u64>>,
    /// Multi-primary isolation (trivially true at k = 1): instances whose
    /// primary was never crashed kept view 0 and committed real work,
    /// while a crashed instance's view change reached a quorum.
    pub instances_isolated: bool,
    /// Size of the largest digest-agreeing replica set at the end.
    pub agreeing: usize,
    /// Whether every replica that is up at the end (never crashed, or
    /// crashed and recovered) agrees on the state digest and chain head.
    pub digests_agree: bool,
    /// Whether every submitted transaction completed.
    pub liveness: bool,
    /// One line per request still pending when the load stopped (see
    /// `SwarmReport::stuck`); empty when `liveness` holds.
    pub stuck: Vec<String>,
    /// Retransmitted transactions suppressed by the executor (max across
    /// replicas) — nonzero means exactly-once accounting did real work.
    pub deduped: u64,
}

impl ScenarioResult {
    /// Mean committed-per-second over the run.
    pub fn mean_tps(&self) -> f64 {
        if self.elapsed_ms == 0 {
            return 0.0;
        }
        self.completed as f64 * 1000.0 / self.elapsed_ms as f64
    }

    /// One JSON object (hand-rolled; the repo carries no serializer).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self.buckets.iter().map(|b| b.to_string()).collect();
        let events: Vec<String> = self
            .events
            .iter()
            .map(|(ms, c, d)| format!("{{\"ms\": {ms}, \"committed\": {c}, \"action\": \"{d}\"}}"))
            .collect();
        let views: Vec<String> = self.final_views.iter().map(|v| v.to_string()).collect();
        let stuck: Vec<String> = self
            .stuck
            .iter()
            .map(|line| format!("\"{}\"", line.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        let iviews: Vec<String> = self
            .instance_views
            .iter()
            .map(|per_replica| {
                let vs: Vec<String> = per_replica.iter().map(|v| v.to_string()).collect();
                format!("[{}]", vs.join(", "))
            })
            .collect();
        format!(
            "{{\"scenario\": \"{}\", \"protocol\": \"{}\", \"transport\": \"{}\", \
             \"total_txns\": {}, \"completed\": {}, \"elapsed_ms\": {}, \"mean_tps\": {:.1}, \
             \"liveness\": {}, \"digests_agree\": {}, \"agreeing_replicas\": {}, \
             \"final_views\": [{}], \"consensus_instances\": {}, \"instance_views\": [{}], \
             \"instances_isolated\": {}, \"deduped_txns\": {}, \
             \"committed_per_sec\": [{}], \"events\": [{}], \"stuck\": [{}]}}",
            self.scenario,
            self.protocol,
            self.transport,
            self.total_txns,
            self.completed,
            self.elapsed_ms,
            self.mean_tps(),
            self.liveness,
            self.digests_agree,
            self.agreeing,
            views.join(", "),
            self.consensus_instances,
            iviews.join(", "),
            self.instances_isolated,
            self.deduped,
            buckets.join(", "),
            events.join(", "),
            stuck.join(", ")
        )
    }
}

impl FaultAction {
    /// Human-readable one-liner (event timelines, `FAULT` log lines).
    pub fn describe(&self) -> String {
        match self {
            FaultAction::Crash(r) => format!("crash r{r}"),
            FaultAction::Recover(r) => format!("recover r{r}"),
            FaultAction::Partition(groups) => {
                let gs: Vec<String> = groups
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|r| r.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect();
                format!("partition {}", gs.join("|"))
            }
            FaultAction::HealAll => "heal".into(),
            FaultAction::DropRate(r) => format!("drop_rate {r}"),
            FaultAction::DelayJitter(d) => format!("delay_jitter {}us", d.as_micros()),
        }
    }

    /// Applies this action to a single transport's fault controller — the
    /// per-node half used by `rdb-node --fault-plan`, where every process
    /// of a multi-process cluster loads the same plan and applies it to
    /// its own transport (dropping a crashed peer's traffic locally is
    /// exactly what the in-process fabric does across all controllers).
    pub fn apply_to_controller(&self, faults: &rdb_net::FaultController) {
        match self {
            FaultAction::Crash(r) => faults.crash(Sender::Replica(ReplicaId(*r))),
            FaultAction::Recover(r) => faults.recover(Sender::Replica(ReplicaId(*r))),
            FaultAction::Partition(groups) => {
                let side = |g: &[u32]| -> Vec<Sender> {
                    g.iter().map(|&r| Sender::Replica(ReplicaId(r))).collect()
                };
                for (i, a) in groups.iter().enumerate() {
                    for b in &groups[i + 1..] {
                        faults.partition(&side(a), &side(b));
                    }
                }
            }
            FaultAction::HealAll => faults.heal_all(),
            FaultAction::DropRate(rate) => faults.set_drop_rate(*rate),
            FaultAction::DelayJitter(max) => faults.set_delay_jitter(*max),
        }
    }
}

/// Runs one scenario against a live 4-replica deployment on the given
/// protocol and transport backend.
///
/// # Panics
/// Panics only on configuration errors (the scenario catalog is valid by
/// construction); fault-induced failures are reported in the result, not
/// panicked on.
pub fn run_scenario(
    scenario: &Scenario,
    protocol: ProtocolKind,
    transport: TransportMode,
) -> ScenarioResult {
    let n = 4usize;
    let mut builder = SystemBuilder::new(n)
        .protocol(protocol)
        .transport(transport)
        .consensus_instances(scenario.consensus_instances.max(1))
        .batch_size(BATCH_SIZE)
        .table_size(4_096)
        .client_keys(scenario.clients)
        .checkpoint_interval(scenario.checkpoint_txns)
        .seed(scenario.plan.seed + 7);
    builder.config_mut().view_timeout_ms = VIEW_TIMEOUT_MS;
    let db = builder.build().expect("scenario config must be valid");
    db.set_fault_seed(scenario.plan.seed);
    if scenario.byzantine {
        db.equivocate(db.primary());
    }

    // Each client keeps one burst of about two batches in flight and
    // submits the next as it completes. The swarm holds that refill until
    // the progress callback — which fires the plan — has seen the
    // completion, so a `Committed` mark lands before any load submitted
    // after it: the fault hits requests genuinely mid-stream. Keys are
    // unique per transaction: the final state is independent of the
    // commit interleaving, so state digests are comparable across
    // replicas, protocols and transports.
    let total = scenario.total_txns();
    let mut plan = scenario.plan.clone();
    let mut fired: Vec<(u64, u64, String)> = Vec::new();
    let mut fire = |committed: u64, elapsed: Duration| {
        for event in plan.take_due(committed, elapsed) {
            db.apply_fault(&event.action);
            fired.push((
                elapsed.as_millis() as u64,
                committed,
                event.action.describe(),
            ));
        }
    };
    let mut buckets: Vec<u64> = Vec::new();
    let mut counted = 0u64;
    let start = Instant::now();
    let load = SwarmConfig {
        clients: scenario.clients,
        txns_per_client: TXNS_PER_CLIENT,
        burst: (BATCH_SIZE * 2).max(8),
        shards: scenario.clients,
        first_client: 0,
        deadline: scenario.deadline,
    };
    let report = db.run_swarm(&load, |committed, elapsed| {
        if committed > counted {
            let bucket = elapsed.as_secs() as usize;
            if buckets.len() <= bucket {
                buckets.resize(bucket + 1, 0);
            }
            buckets[bucket] += committed - counted;
            counted = committed;
        }
        fire(committed, elapsed);
    });
    let completed = report.committed;

    // Every replica that is up at the end — never crashed, or crashed and
    // recovered — must land in the digest-agreeing set. Loss bursts are no
    // excuse anymore: a straggler that lost a re-issued PrePrepare fetches
    // the committed batch (with its 2f+1 certificate, or f+1 matching
    // copies under Zyzzyva) from its peers, and a rejoiner whose holes
    // were pruned installs a verified checkpoint snapshot. Only replicas
    // the plan leaves permanently crashed are excused.
    let crashed = scenario.plan.crashed_replicas();
    let down = scenario.plan.permanently_down();
    let witnesses: Vec<usize> = (0..n).filter(|r| !down.contains(&(*r as u32))).collect();
    let required = witnesses.len();
    // On the in-memory fabric the load can drain before wall-clock marks
    // come due (a recovery at 3 s when the burst took 100 ms), so the
    // settle phase keeps firing overdue plan events — a recovered replica
    // still needs real time after its `recover` to fetch its way back.
    let last_mark = scenario
        .plan
        .events
        .iter()
        .filter_map(|e| match e.at {
            Mark::Elapsed(d) => Some(d),
            Mark::Committed(_) => None,
        })
        .max()
        .unwrap_or(Duration::ZERO);
    let settle_deadline = (start + last_mark).max(Instant::now()) + Duration::from_secs(10);
    let (agreeing, digests_agree) = loop {
        fire(completed, start.elapsed());
        let digests = db.state_digests();
        let heads = db.chain_heads();
        // Largest set of replicas sharing (digest, head).
        let mut best = 0usize;
        let mut best_members: Vec<usize> = Vec::new();
        for i in 0..n {
            let members: Vec<usize> = (0..n)
                .filter(|&j| digests[j] == digests[i] && heads[j] == heads[i])
                .collect();
            if members.len() > best {
                best = members.len();
                best_members = members;
            }
        }
        let agree = best >= required && witnesses.iter().all(|w| best_members.contains(w));
        if agree || Instant::now() > settle_deadline {
            break (best, agree);
        }
        std::thread::sleep(Duration::from_millis(50));
    };

    let deduped = (0..n as u32)
        .map(|r| db.deduped_txns(ReplicaId(r)))
        .max()
        .unwrap_or(0);
    let final_views = db.views();

    // Multi-primary isolation: a crash that hit one instance's primary
    // must have view-changed *that* instance only — every instance whose
    // view-0 primary stayed up keeps view 0 on the healthy replicas and
    // commits real work, while the crashed instance's new view reaches a
    // quorum.
    let kk = scenario.consensus_instances.max(1);
    let instance_views: Vec<Vec<u64>> = (0..kk).map(|j| db.instance_views(j)).collect();
    let mut instances_isolated = true;
    let quorum = 2 * db.config().f() + 1;
    if kk > 1 {
        let healthy = (0..n as u32).find(|r| !crashed.contains(r)).unwrap_or(0);
        for (j, per_replica) in instance_views.iter().enumerate() {
            let initial_primary = (j % n) as u32;
            if crashed.contains(&initial_primary) {
                let advanced = per_replica.iter().filter(|v| **v >= 1).count();
                instances_isolated &= advanced >= quorum;
            } else {
                let undisturbed = per_replica
                    .iter()
                    .enumerate()
                    .filter(|(r, _)| !crashed.contains(&(*r as u32)))
                    .all(|(_, v)| *v == 0);
                let committed_j = db.committed_batches_for(ReplicaId(healthy), j);
                instances_isolated &= undisturbed && committed_j > 0;
            }
        }
    }
    db.shutdown();

    ScenarioResult {
        scenario: scenario.name.to_string(),
        protocol: match protocol {
            ProtocolKind::Pbft => "pbft".into(),
            ProtocolKind::Zyzzyva => "zyzzyva".into(),
        },
        transport: match transport {
            TransportMode::InMemory => "memory".into(),
            TransportMode::Tcp => "tcp".into(),
        },
        total_txns: total,
        completed,
        elapsed_ms: report.elapsed.as_millis() as u64,
        buckets,
        events: fired,
        final_views,
        consensus_instances: kk,
        instance_views,
        instances_isolated,
        agreeing,
        digests_agree,
        liveness: completed >= total,
        stuck: report.stuck,
        deduped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parser_roundtrips_directives() {
        let plan = FaultPlan::parse(
            "# schedule\n\
             seed 42\n\
             at committed 50 crash 0\n\
             at elapsed_ms 2000 recover 0\n\
             at elapsed_ms 800 partition 0,1|2,3\n\
             at elapsed_ms 1800 heal\n\
             at elapsed_ms 0 drop_rate 0.05\n\
             at elapsed_ms 0 delay_jitter_us 2000\n",
        )
        .expect("valid plan");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.events.len(), 6);
        assert_eq!(
            plan.events[0],
            FaultEvent {
                at: Mark::Committed(50),
                action: FaultAction::Crash(0)
            }
        );
        assert_eq!(
            plan.events[2].action,
            FaultAction::Partition(vec![vec![0, 1], vec![2, 3]])
        );
        assert_eq!(
            plan.events[5].action,
            FaultAction::DelayJitter(Duration::from_millis(2))
        );
        assert_eq!(plan.crashed_replicas(), [0u32].into_iter().collect());
        // r0 is recovered later, so nobody is *permanently* down.
        assert!(plan.permanently_down().is_empty());
        let mut abandoned = plan;
        abandoned.events.remove(1);
        assert_eq!(abandoned.permanently_down(), [0u32].into_iter().collect());
    }

    #[test]
    fn plan_parser_rejects_garbage() {
        assert!(FaultPlan::parse("at committed x crash 0").is_err());
        assert!(FaultPlan::parse("at sometime 5 crash 0").is_err());
        assert!(FaultPlan::parse("at committed 5 explode 0").is_err());
        assert!(FaultPlan::parse("bogus").is_err());
    }

    #[test]
    fn catalog_is_complete_and_named_uniquely() {
        let cat = scenarios();
        assert!(cat.len() >= 11, "the matrix promises eleven scenarios");
        let names: HashSet<&str> = cat.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), cat.len(), "names must be unique");
        assert!(scenario_by_name("primary_crash").is_some());
        assert!(scenario_by_name("nonexistent").is_none());
    }

    #[test]
    fn result_json_is_wellformed_enough() {
        let r = ScenarioResult {
            scenario: "x".into(),
            protocol: "pbft".into(),
            transport: "memory".into(),
            total_txns: 10,
            completed: 10,
            elapsed_ms: 100,
            buckets: vec![5, 5],
            events: vec![(50, 4, "crash r0".into())],
            final_views: vec![1, 1, 1, 1],
            consensus_instances: 2,
            instance_views: vec![vec![1, 1, 1, 1], vec![0, 0, 0, 0]],
            instances_isolated: true,
            agreeing: 4,
            digests_agree: true,
            liveness: true,
            stuck: vec!["client=1 counter=7 \"quoted\"".into()],
            deduped: 3,
        };
        let json = r.to_json();
        assert!(json.contains("\"committed_per_sec\": [5, 5]"));
        assert!(json.contains("\"mean_tps\": 100.0"));
        assert!(
            json.contains("\"events\": [{\"ms\": 50, \"committed\": 4, \"action\": \"crash r0\"}]")
        );
        assert!(json.contains("\"consensus_instances\": 2"));
        assert!(json.contains("\"instance_views\": [[1, 1, 1, 1], [0, 0, 0, 0]]"));
        assert!(json.contains("\"instances_isolated\": true"));
        assert!(json.contains("\"stuck\": [\"client=1 counter=7 \\\"quoted\\\"\"]"));
    }

    #[test]
    fn each_mark_fires_once_in_order_and_an_overdue_mark_on_the_first_call() {
        let action = FaultAction::Crash;
        let mut plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent {
                    at: Mark::Committed(10),
                    action: action(1),
                },
                FaultEvent {
                    at: Mark::Elapsed(Duration::from_millis(100)),
                    action: action(2),
                },
                FaultEvent {
                    at: Mark::Committed(20),
                    action: action(3),
                },
                FaultEvent {
                    at: Mark::Elapsed(Duration::from_millis(200)),
                    action: action(4),
                },
            ],
        };
        let fired = |events: Vec<FaultEvent>| -> Vec<FaultAction> {
            events.into_iter().map(|e| e.action).collect()
        };
        let ms = Duration::from_millis;
        assert!(plan.take_due(9, ms(99)).is_empty());
        assert_eq!(fired(plan.take_due(10, ms(99))), [action(1)]);
        assert!(
            plan.take_due(10, ms(99)).is_empty(),
            "a fired mark stays fired"
        );
        // Overdue marks of both kinds fire on the first call that sees
        // them, in plan order.
        assert_eq!(fired(plan.take_due(500, ms(150))), [action(2), action(3)]);
        assert_eq!(fired(plan.take_due(500, ms(200))), [action(4)]);
        assert!(plan.take_due(u64::MAX, Duration::MAX).is_empty());
        assert!(plan.events.is_empty());
    }

    #[test]
    fn equivocation_gives_each_backup_its_own_signed_variant() {
        use rdb_common::{ClientId, CryptoScheme, Digest, Operation, SeqNum, Transaction, ViewNum};
        use rdb_crypto::KeyRegistry;
        let keys = KeyRegistry::generate(CryptoScheme::Ed25519, 4, 0, 9);
        let replica = |i: u32| Sender::Replica(ReplicaId(i));
        let faults = rdb_net::FaultController::new();
        faults.set_rewrite(
            replica(0),
            equivocation(keys.provider_for_replica(ReplicaId(0))),
        );
        let batch: Batch = (0..3u64)
            .map(|i| {
                Transaction::new(
                    ClientId(i),
                    i,
                    vec![Operation::Write {
                        key: i,
                        value: vec![],
                    }],
                )
            })
            .collect();
        let proposal = |from: u32| {
            let msg = Message::PrePrepare {
                view: ViewNum(0),
                seq: SeqNum(1),
                digest: rdb_crypto::digest(&batch.canonical_bytes()),
                batch: Arc::new(batch.clone()),
            };
            let signer = keys.provider_for_replica(ReplicaId(from));
            SignedMessage::sign_with(msg, replica(from), |b| signer.sign(PeerClass::Replica, b))
        };
        let honest = proposal(0);
        let mut digests: Vec<Digest> = Vec::new();
        for to in 1..4 {
            let lie = faults
                .rewrite(replica(0), replica(to), &honest)
                .expect("every backup is lied to");
            let Message::PrePrepare { digest, batch, .. } = lie.msg() else {
                panic!("a proposal stays a proposal: {lie:?}");
            };
            assert_eq!(*digest, rdb_crypto::digest(&batch.canonical_bytes()));
            let verifier = keys.provider_for_replica(ReplicaId(to));
            assert!(verifier.verify(replica(0), lie.signing_bytes(), lie.sig()));
            assert!(!verifier.verify(replica(1), lie.signing_bytes(), lie.sig()));
            digests.push(*digest);
        }
        digests.sort();
        digests.dedup();
        assert_eq!(digests.len(), 3, "each backup must see a unique digest");
        // Only the liar's proposals are rewritten.
        assert!(faults
            .rewrite(replica(1), replica(2), &proposal(1))
            .is_none());
        let vote = SignedMessage::new(
            Message::Checkpoint {
                seq: SeqNum(1),
                state_digest: Digest::ZERO,
                replica: ReplicaId(0),
            },
            replica(0),
            rdb_common::SignatureBytes::empty(),
        );
        assert!(faults.rewrite(replica(0), replica(1), &vote).is_none());
    }
}
