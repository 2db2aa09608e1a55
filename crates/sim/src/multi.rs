//! Multi-primary ordering model: predicted throughput for k parallel
//! consensus instances over one replica set.
//!
//! The threaded runtime runs k PBFT instances with rotated leadership —
//! instance `j` is led by replica `(view + j) mod n` and owns global
//! sequences `j+1, j+1+k, …` — so every replica is the primary of one
//! instance and a backup of the other `k − 1`. The win comes from the
//! asymmetry the discrete-event simulator already measures: at
//! saturation, the single-primary bottleneck is a leader-only stage
//! (batch assembly), pegged at ~100% on the primary and idle on every
//! backup. Spreading leadership spreads exactly that stage.
//!
//! The model is the standard linear-rate argument. Let `S_p[s]` and
//! `S_b[s]` be the k = 1 primary/backup saturations of stage `s` at
//! measured throughput `T₁`. In a k-instance deployment at the same
//! total throughput, each instance carries `T₁/k`, and a replica pays
//! the primary rate for its own instance plus the backup rate for the
//! other `k − 1`:
//!
//! ```text
//! U_k[s] = (S_p[s] + (k − 1) · S_b[s]) / k
//! ```
//!
//! Stages whose cost is role-independent (execution replays the whole
//! merged schedule everywhere, `S_p = S_b`) correctly don't shard under
//! this formula: `U_k = S_b` for all k. Scaling throughput until the
//! hottest stage hits the k = 1 binding level `B₁ = max_s S_p[s]` gives
//!
//! ```text
//! T_k = T₁ · B₁ / max_s U_k[s]
//! ```
//!
//! with a hard ceiling at `B₁ / U_∞` where `U_∞` is the saturation of
//! the non-shardable stages — on this pipeline, ordered execution.

use crate::des::SimConfig;
use crate::report::{SimReport, SimStage};
use std::collections::BTreeMap;

/// Predicted behaviour of one k value, derived from a k = 1 base run.
#[derive(Debug, Clone)]
pub struct MultiPrimaryPrediction {
    /// Number of parallel consensus instances.
    pub k: usize,
    /// Measured k = 1 throughput the prediction scales from (txn/s).
    pub base_tps: f64,
    /// Predicted committed-transactions/s with k instances.
    pub predicted_tps: f64,
    /// `predicted_tps / base_tps`.
    pub speedup: f64,
    /// Per-replica stage load `U_k[s]` (%) at the base throughput.
    pub per_stage: BTreeMap<SimStage, f64>,
    /// The stage that binds at k (highest `U_k`), and its load (%).
    pub bottleneck: (SimStage, f64),
}

/// Backup saturation for a stage; stages the backup map doesn't report
/// (the NIC) are taken at the primary rate — i.e. treated as
/// non-shardable, the conservative choice.
fn backup_rate(base: &SimReport, s: SimStage) -> f64 {
    base.backup_saturation
        .get(&s)
        .or_else(|| base.primary_saturation.get(&s))
        .copied()
        .unwrap_or(0.0)
}

/// Predicts the k-instance operating point from a k = 1 simulator run.
pub fn predict(base: &SimReport, k: usize) -> MultiPrimaryPrediction {
    let k = k.max(1);
    let binding = base
        .primary_saturation
        .values()
        .cloned()
        .fold(0.0_f64, f64::max);
    let mut per_stage = BTreeMap::new();
    for (&s, &sp) in &base.primary_saturation {
        let sb = backup_rate(base, s);
        per_stage.insert(s, (sp + (k as f64 - 1.0) * sb) / k as f64);
    }
    let bottleneck = per_stage
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(&s, &v)| (s, v))
        .unwrap_or((SimStage::Worker, 0.0));
    let speedup = if bottleneck.1 > 0.0 {
        binding / bottleneck.1
    } else {
        1.0
    };
    MultiPrimaryPrediction {
        k,
        base_tps: base.throughput_tps,
        predicted_tps: base.throughput_tps * speedup,
        speedup,
        per_stage,
        bottleneck,
    }
}

/// Runs the k = 1 base simulation once and predicts every requested k.
pub fn sweep(cfg: &SimConfig, ks: &[usize]) -> (SimReport, Vec<MultiPrimaryPrediction>) {
    let base = cfg.run();
    let rows = ks.iter().map(|&k| predict(&base, k)).collect();
    (base, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::SystemConfig;

    fn base_run() -> SimReport {
        let system = SystemConfig::new(4).unwrap();
        let mut cfg = SimConfig::new(system);
        cfg.warmup_ms = 200;
        cfg.measure_ms = 400;
        cfg.run()
    }

    #[test]
    fn k1_is_identity() {
        let base = base_run();
        let p = predict(&base, 1);
        assert!((p.speedup - 1.0).abs() < 1e-9, "k=1 speedup {}", p.speedup);
        assert!((p.predicted_tps - base.throughput_tps).abs() < 1e-6);
    }

    #[test]
    fn k2_clears_the_issue_bar() {
        let base = base_run();
        let p = predict(&base, 2);
        assert!(
            p.speedup >= 1.5,
            "k=2 must predict >= 1.5x on the calibrated model, got {:.3} \
             (bottleneck {:?})",
            p.speedup,
            p.bottleneck
        );
    }

    #[test]
    fn speedup_is_monotone_and_capped_by_execution() {
        let base = base_run();
        let binding = base
            .primary_saturation
            .values()
            .cloned()
            .fold(0.0_f64, f64::max);
        let exec = base.backup_saturation[&SimStage::Execute];
        let ceiling = binding / exec;
        let mut last = 0.0;
        for k in [1usize, 2, 4, 8, 16, 64] {
            let p = predict(&base, k);
            assert!(p.speedup >= last, "speedup must not regress with k");
            assert!(
                p.speedup <= ceiling + 1e-9,
                "k={k} speedup {:.2} exceeds execution ceiling {:.2}",
                p.speedup,
                ceiling
            );
            last = p.speedup;
        }
        // Large k runs into the non-shardable execute stage.
        let huge = predict(&base, 1_000);
        assert!((huge.speedup - ceiling).abs() / ceiling < 0.15);
    }
}
