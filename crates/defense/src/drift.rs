//! Windowed lookup-cost drift monitoring — the detection half of
//! attack-triggered epoch rollback.
//!
//! The paper's online campaign (Algorithm 2 adapted to a live write
//! queue) degrades the served index gradually: each admitted poison key
//! nudges the CDF model, and mean lookup cost creeps up across read
//! windows. A point-in-time screen can miss keys that are individually
//! unremarkable; what is *not* subtle is the aggregate: mean window cost
//! inflating past anything benign churn produces.
//!
//! [`CostDriftMonitor`] watches exactly that signal. It calibrates a
//! baseline from the first windows of healthy traffic, then judges every
//! later window's mean lookup cost against `baseline × threshold`. The
//! verdict feeds the server's rollback machinery (see
//! [`RollbackPolicy`]): on [`DriftVerdict::Degraded`] the writer
//! quarantines everything admitted since the trusted checkpoint and
//! republishes an epoch rebuilt from it. Detection is deliberately
//! separated from response — this module decides *whether* service
//! degraded, the writer decides *what* to do about it — so the monitor
//! stays a pure, deterministic function of the observed windows and can
//! be unit-tested without a server.
//!
//! Calibration matters for the same reason admission screens calibrate
//! on a bootstrap snapshot (see [`crate::admission`]): a threshold judged
//! against attacker-influenced state can be shifted by the attacker.
//! Windows observed before `calibration_windows` complete the baseline
//! and are never judged; the baseline is frozen thereafter.

use lis_server::{DriftVerdict, RollbackPolicy};

/// Judges windowed mean lookup cost against a calibrated baseline.
///
/// Construction is cheap and const-free; all state is a few scalars.
/// Determinism: the verdict sequence is a pure function of the
/// `(served, mean_cost)` sequence fed to [`RollbackPolicy::observe`].
#[derive(Debug, Clone)]
pub struct CostDriftMonitor {
    /// Degraded when `mean_cost > baseline * threshold`.
    threshold: f64,
    /// Windows with fewer served lookups than this are ignored entirely —
    /// a handful of requests says nothing about drift.
    min_served: u64,
    /// Number of qualifying windows averaged into the baseline.
    calibration_windows: u32,
    seen: u32,
    baseline_sum: f64,
    baseline: Option<f64>,
}

impl CostDriftMonitor {
    /// A monitor that calibrates over `calibration_windows` qualifying
    /// windows (those serving at least `min_served` lookups) and then
    /// flags any window whose mean cost exceeds the calibrated baseline
    /// by the factor `threshold`.
    ///
    /// A threshold of `1.02` sits above benign churn, whose whole-run
    /// drift on the scenario ladder's `benign` rung is ~0.99–1.00×; the
    /// `rollback` rung shows the windows of an undefended Algorithm-2
    /// campaign crossing it.
    pub fn new(threshold: f64, min_served: u64, calibration_windows: u32) -> Self {
        Self {
            threshold: threshold.max(1.0),
            min_served,
            calibration_windows: calibration_windows.max(1),
            seen: 0,
            baseline_sum: 0.0,
            baseline: None,
        }
    }

    /// The calibrated baseline mean cost, once calibration completes.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// The degradation factor this monitor tolerates.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl RollbackPolicy for CostDriftMonitor {
    fn name(&self) -> &str {
        "cost-drift"
    }

    fn observe(&mut self, _start_ms: u64, served: u64, mean_cost: f64) -> DriftVerdict {
        if served < self.min_served || !mean_cost.is_finite() {
            return DriftVerdict::Calibrating;
        }
        match self.baseline {
            None => {
                self.baseline_sum += mean_cost;
                self.seen += 1;
                if self.seen >= self.calibration_windows {
                    self.baseline = Some(self.baseline_sum / f64::from(self.seen));
                }
                DriftVerdict::Calibrating
            }
            Some(baseline) => {
                if mean_cost > baseline * self.threshold {
                    DriftVerdict::Degraded
                } else {
                    DriftVerdict::Healthy
                }
            }
        }
    }

    fn rolled_back(&mut self) {
        // The baseline was measured on trusted traffic; rollback restored
        // trusted content, so the frozen baseline stays valid. Nothing to
        // reset — cooldown against re-tripping on the tail of the
        // degraded window is the writer's job.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(mon: &mut CostDriftMonitor, windows: &[(u64, f64)]) -> Vec<DriftVerdict> {
        windows
            .iter()
            .enumerate()
            .map(|(i, &(served, cost))| mon.observe(i as u64 * 100, served, cost))
            .collect()
    }

    #[test]
    fn calibrates_then_flags_inflation() {
        let mut mon = CostDriftMonitor::new(1.02, 10, 3);
        let verdicts = feed(
            &mut mon,
            &[
                (100, 4.0),
                (100, 4.1),
                (100, 3.9), // calibration: baseline = 4.0
                (100, 4.05),
                (100, 4.3),
            ],
        );
        assert_eq!(
            verdicts,
            vec![
                DriftVerdict::Calibrating,
                DriftVerdict::Calibrating,
                DriftVerdict::Calibrating,
                DriftVerdict::Healthy,
                DriftVerdict::Degraded,
            ]
        );
        let baseline = mon.baseline().unwrap();
        assert!((baseline - 4.0).abs() < 1e-9);
    }

    #[test]
    fn thin_windows_never_judge_or_calibrate() {
        let mut mon = CostDriftMonitor::new(1.02, 50, 2);
        // All below min_served: the monitor stays in calibration forever.
        let verdicts = feed(&mut mon, &[(10, 4.0), (49, 400.0), (1, 0.1)]);
        assert!(verdicts.iter().all(|v| *v == DriftVerdict::Calibrating));
        assert!(mon.baseline().is_none());
    }

    #[test]
    fn baseline_is_frozen_after_calibration() {
        let mut mon = CostDriftMonitor::new(1.10, 1, 1);
        assert_eq!(mon.observe(0, 100, 10.0), DriftVerdict::Calibrating);
        // A slow upward creep below the threshold never re-anchors the
        // baseline, so the cumulative drift is still caught.
        assert_eq!(mon.observe(100, 100, 10.5), DriftVerdict::Healthy);
        assert_eq!(mon.observe(200, 100, 10.9), DriftVerdict::Healthy);
        assert_eq!(mon.observe(300, 100, 11.1), DriftVerdict::Degraded);
        assert!((mon.baseline().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_floor_is_one() {
        let mon = CostDriftMonitor::new(0.5, 1, 1);
        assert!((mon.threshold() - 1.0).abs() < 1e-9);
    }
}
