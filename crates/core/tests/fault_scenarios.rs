//! The failure-scenario matrix, fast subset: the scenarios that gate the
//! tier-1 suite. The full 10-scenario × 2-protocol × 2-transport sweep
//! lives in the `faults` binary (`cargo run --release --bin faults`);
//! here we pin the properties a regression would silently break:
//!
//! - crash the primary mid-batch-stream on BOTH transport backends and
//!   assert the new view commits every in-flight request exactly once;
//! - crash a backup and assert throughput degrades but liveness holds;
//! - equivocating primary (PBFT): honest replicas vote the liar out and
//!   converge on a single history.

use rdb_common::{ProtocolKind, TransportMode};
use resilientdb::scenario::{
    run_scenario, scenario_by_name, FaultAction, FaultEvent, FaultPlan, Mark, Scenario,
    ScenarioResult,
};
use std::time::Duration;

/// Every `Committed(n)` mark of the plan fired once `n` transactions had
/// completed and before the last one did — while load was still in flight,
/// not after it drained.
fn assert_marks_fired_mid_stream(scenario: &Scenario, result: &ScenarioResult) {
    for event in &scenario.plan.events {
        if let Mark::Committed(n) = event.at {
            let action = event.action.describe();
            assert!(
                result
                    .events
                    .iter()
                    .any(|(_, c, d)| *d == action && (n..result.total_txns).contains(c)),
                "{}/{}/{}: `{action}` at {n} committed did not fire mid-stream: {:?}",
                scenario.name,
                result.protocol,
                result.transport,
                result.events,
            );
        }
    }
}

fn assert_scenario(name: &str, protocol: ProtocolKind, transport: TransportMode) {
    let scenario = scenario_by_name(name).expect("catalog scenario");
    let result = run_scenario(&scenario, protocol, transport);
    assert_marks_fired_mid_stream(&scenario, &result);
    assert!(
        result.liveness,
        "{name}/{}/{}: only {}/{} txns completed in {}ms (views {:?}, events {:?})",
        result.protocol,
        result.transport,
        result.completed,
        result.total_txns,
        result.elapsed_ms,
        result.final_views,
        result.events,
    );
    assert!(
        result.digests_agree,
        "{name}/{}/{}: only {} replicas agree on the state digest (views {:?})",
        result.protocol, result.transport, result.agreeing, result.final_views,
    );
}

/// Satellite regression: primary crashes while client batches are in
/// flight; the view change must elect a new primary, re-issue the
/// in-flight batches, and commit every transaction exactly once — the
/// executor's dedup counters prove retransmissions were suppressed, and
/// a surviving replica must have moved past view 0.
fn primary_crash_exactly_once(protocol: ProtocolKind, transport: TransportMode) {
    let scenario = scenario_by_name("primary_crash").expect("catalog scenario");
    let result = run_scenario(&scenario, protocol, transport);
    assert_marks_fired_mid_stream(&scenario, &result);
    assert!(
        result.liveness,
        "{}/{}: only {}/{} txns completed in {}ms (views {:?})",
        result.protocol,
        result.transport,
        result.completed,
        result.total_txns,
        result.elapsed_ms,
        result.final_views,
    );
    assert!(result.digests_agree, "survivors diverged: {result:?}");
    // Exactly-once: every completion is a distinct transaction (liveness
    // already checked completed == total), and the surviving replicas
    // moved to a later view to get there.
    assert!(
        result.final_views.iter().any(|v| *v > 0),
        "no view change happened: views {:?}",
        result.final_views,
    );
    assert_eq!(
        result.completed, result.total_txns,
        "completions must match submissions exactly"
    );
}

#[test]
fn primary_crash_pbft_memory() {
    primary_crash_exactly_once(ProtocolKind::Pbft, TransportMode::InMemory);
}

#[test]
fn primary_crash_pbft_tcp() {
    primary_crash_exactly_once(ProtocolKind::Pbft, TransportMode::Tcp);
}

#[test]
fn primary_crash_zyzzyva_memory() {
    primary_crash_exactly_once(ProtocolKind::Zyzzyva, TransportMode::InMemory);
}

#[test]
fn primary_crash_zyzzyva_tcp() {
    primary_crash_exactly_once(ProtocolKind::Zyzzyva, TransportMode::Tcp);
}

#[test]
fn backup_crash_pbft_memory() {
    assert_scenario("backup_crash", ProtocolKind::Pbft, TransportMode::InMemory);
}

#[test]
fn backup_crash_zyzzyva_memory() {
    // Zyzzyva's fast path dies with one crashed backup: every request
    // must fall back to the client-driven commit-certificate path.
    assert_scenario(
        "backup_crash",
        ProtocolKind::Zyzzyva,
        TransportMode::InMemory,
    );
}

#[test]
fn lossy_network_pbft_memory() {
    assert_scenario("lossy_network", ProtocolKind::Pbft, TransportMode::InMemory);
}

#[test]
fn equivocating_primary_is_voted_out() {
    let scenario = scenario_by_name("equivocating_primary").expect("catalog scenario");
    let result = run_scenario(&scenario, ProtocolKind::Pbft, TransportMode::InMemory);
    assert!(
        result.liveness,
        "equivocation stalled the system: {result:?}"
    );
    assert!(result.digests_agree, "honest replicas diverged: {result:?}");
    // The liar held view 0; committing anything required electing someone
    // honest. Replica 0 itself may report any view — check the honest ones.
    assert!(
        result.final_views[1..].iter().all(|v| *v > 0),
        "honest replicas never left the equivocator's view: {:?}",
        result.final_views,
    );
}

#[test]
fn restart_rejoin_converges_with_survivors() {
    let scenario = scenario_by_name("restart_rejoin").expect("catalog scenario");
    let result = run_scenario(&scenario, ProtocolKind::Pbft, TransportMode::InMemory);
    assert!(result.liveness, "{result:?}");
    // `digests_agree` now demands the crashed-then-recovered replica in
    // the agreeing set too: it must have fetched the committed batches it
    // slept through, so ALL four replicas share one digest.
    assert!(result.digests_agree, "{result:?}");
    assert_eq!(result.agreeing, 4, "rejoiner did not converge: {result:?}");
}

/// The snapshot path: checkpointing prunes the log under the rejoiner's
/// holes, so per-batch fetch alone cannot repair it — the recovered
/// replica must install a verified checkpoint snapshot and fetch only the
/// tail, then land on the survivors' exact digest.
#[test]
fn rejoin_via_state_transfer_pbft_memory() {
    let scenario = scenario_by_name("rejoin_via_state_transfer").expect("catalog scenario");
    let result = run_scenario(&scenario, ProtocolKind::Pbft, TransportMode::InMemory);
    assert!(result.liveness, "{result:?}");
    assert!(result.digests_agree, "{result:?}");
    assert_eq!(result.agreeing, 4, "rejoiner did not converge: {result:?}");
}

#[test]
fn rejoin_via_state_transfer_zyzzyva_memory() {
    let scenario = scenario_by_name("rejoin_via_state_transfer").expect("catalog scenario");
    let result = run_scenario(&scenario, ProtocolKind::Zyzzyva, TransportMode::InMemory);
    assert!(result.liveness, "{result:?}");
    assert!(result.digests_agree, "{result:?}");
    assert_eq!(result.agreeing, 4, "rejoiner did not converge: {result:?}");
}

/// Chaos is no longer PBFT-only: Zyzzyva's mis-speculated suffixes are
/// rolled back at the view change and re-executed against the new
/// primary's merged history, so even the loss + crash + partition mix
/// must end with every replica (including the recovered ex-primary) on
/// one digest.
#[test]
fn chaos_zyzzyva_memory() {
    assert_scenario("chaos", ProtocolKind::Zyzzyva, TransportMode::InMemory);
}

/// A crashed backup must show up as degraded throughput, not as a gap in
/// the ledger: per-second buckets keep recording commits after the crash.
#[test]
fn backup_crash_records_degradation_buckets() {
    let scenario = scenario_by_name("backup_crash").expect("catalog scenario");
    let result = run_scenario(&scenario, ProtocolKind::Pbft, TransportMode::InMemory);
    assert!(result.liveness, "{result:?}");
    assert_marks_fired_mid_stream(&scenario, &result);
    assert!(
        result.buckets.iter().sum::<u64>() == result.completed,
        "buckets must account for every completion: {result:?}"
    );
}

/// Two of four replicas stay crashed, so no Zyzzyva request can gather
/// the 2f+1 acknowledgements its commit certificate needs. The run must
/// end at its deadline and report the miss with the requests that hung.
#[test]
fn a_liveness_miss_reports_its_stuck_requests() {
    let crash = |r| FaultEvent {
        at: Mark::Elapsed(Duration::ZERO),
        action: FaultAction::Crash(r),
    };
    let scenario = Scenario {
        name: "two_backups_down",
        plan: FaultPlan {
            seed: 0,
            events: vec![crash(2), crash(3)],
        },
        deadline: Duration::from_secs(3),
        ..scenario_by_name("backup_crash").expect("catalog scenario")
    };
    let result = run_scenario(&scenario, ProtocolKind::Zyzzyva, TransportMode::InMemory);
    assert!(!result.liveness, "{result:?}");
    assert!(!result.stuck.is_empty(), "{result:?}");
    assert!(
        result.stuck.iter().all(|line| line.starts_with("client=")),
        "{:?}",
        result.stuck
    );
    assert!(result.to_json().contains("\"stuck\": [\"client="));
}
