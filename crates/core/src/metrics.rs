//! Evaluation metrics for poisoning experiments.
//!
//! The paper's primary, implementation-independent metric is the **Ratio
//! Loss**: the MSE of the model trained on the poisoned keyset divided by
//! the MSE of the model trained on the legitimate keyset (Section III-C).
//! This module implements it together with the supporting statistics used
//! by the figures (per-model ratio distributions, lookup-cost summaries).

use crate::keys::KeySet;
use crate::linreg::LinearModel;
use crate::rmi::rmi_loss_of;
use crate::stats::BoxplotSummary;

/// Floor applied to clean losses when forming ratios, so an exactly-linear
/// clean CDF (loss 0) yields a large-but-finite ratio instead of ∞. The
/// floor is far below any loss a real experiment produces.
pub const LOSS_EPSILON: f64 = 1e-12;

/// Ratio of poisoned to clean loss with the epsilon guard.
pub fn ratio_loss(poisoned: f64, clean: f64) -> f64 {
    poisoned / clean.max(LOSS_EPSILON)
}

/// Per-model and aggregate ratio losses for an RMI experiment (the contents
/// of one boxplot + its black horizontal line in Figures 6–7).
#[derive(Debug, Clone)]
pub struct RmiRatioReport {
    /// Ratio `L_i(poisoned) / L_i(clean)` for each second-stage model.
    pub per_model: Vec<f64>,
    /// Clean RMI loss `L_RMI(K)`.
    pub clean_rmi_loss: f64,
    /// Poisoned RMI loss `L_RMI(K ∪ P)`.
    pub poisoned_rmi_loss: f64,
}

impl RmiRatioReport {
    /// Ratio between poisoned and clean RMI loss (the black line in the
    /// paper's Figure 6 plots).
    pub fn rmi_ratio(&self) -> f64 {
        ratio_loss(self.poisoned_rmi_loss, self.clean_rmi_loss)
    }

    /// Boxplot summary of per-model ratios.
    pub fn boxplot(&self) -> Option<BoxplotSummary> {
        BoxplotSummary::from_samples(&self.per_model)
    }

    /// Largest single-model ratio (the "up to 3000×" headline numbers).
    pub fn max_model_ratio(&self) -> f64 {
        self.per_model.iter().copied().fold(0.0, f64::max)
    }
}

/// Compares clean vs poisoned keysets under an `N`-leaf RMI, pairing
/// second-stage models by index.
///
/// Both keysets are partitioned into `N` equal-size parts, matching the
/// attack's bookkeeping (the poisoned partition `i` holds `K_i ∪ P_i` plus
/// the boundary-key drift that Algorithm 2's exchanges introduce).
pub fn rmi_ratio_report(
    clean: &KeySet,
    poisoned: &KeySet,
    num_leaves: usize,
) -> crate::error::Result<RmiRatioReport> {
    let clean_parts = clean.partition(num_leaves)?;
    let poisoned_parts = poisoned.partition(num_leaves)?;
    let mut per_model = Vec::with_capacity(num_leaves);
    for (c, p) in clean_parts.iter().zip(&poisoned_parts) {
        let lc = if c.len() < 2 {
            0.0
        } else {
            LinearModel::fit(c)?.mse
        };
        let lp = if p.len() < 2 {
            0.0
        } else {
            LinearModel::fit(p)?.mse
        };
        per_model.push(ratio_loss(lp, lc));
    }
    Ok(RmiRatioReport {
        per_model,
        clean_rmi_loss: rmi_loss_of(clean, num_leaves)?,
        poisoned_rmi_loss: rmi_loss_of(poisoned, num_leaves)?,
    })
}

/// Aggregate lookup-cost statistics (comparison counts) over a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupCostSummary {
    /// Mean comparisons per lookup.
    pub mean: f64,
    /// Maximum comparisons observed.
    pub max: usize,
    /// Number of lookups.
    pub count: usize,
}

impl LookupCostSummary {
    /// Summarises comparison counts.
    pub fn from_counts(counts: &[usize]) -> Option<Self> {
        if counts.is_empty() {
            return None;
        }
        Some(Self {
            mean: counts.iter().sum::<usize>() as f64 / counts.len() as f64,
            max: *counts.iter().max().unwrap(),
            count: counts.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeySet;

    #[test]
    fn ratio_loss_guards_zero() {
        assert!(ratio_loss(1.0, 0.0).is_finite());
        assert_eq!(ratio_loss(4.0, 2.0), 2.0);
    }

    #[test]
    fn rmi_report_structure() {
        let clean = KeySet::from_keys((0..100u64).map(|i| i * 10).collect()).unwrap();
        let mut poisoned = clean.clone();
        for k in [1u64, 2, 3, 4, 5] {
            poisoned.insert(k).unwrap();
        }
        let rep = rmi_ratio_report(&clean, &poisoned, 5).unwrap();
        assert_eq!(rep.per_model.len(), 5);
        assert!(rep.rmi_ratio() >= 1.0);
        assert!(rep.max_model_ratio() >= rep.per_model[0]);
        assert!(rep.boxplot().is_some());
    }

    #[test]
    fn lookup_cost_summary() {
        let s = LookupCostSummary::from_counts(&[1, 2, 3, 10]).unwrap();
        assert_eq!(s.max, 10);
        assert_eq!(s.count, 4);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!(LookupCostSummary::from_counts(&[]).is_none());
    }
}
