//! Optimal single-point poisoning of a linear regression on a CDF
//! (Section IV-C).
//!
//! Theorem 2 proves the loss sequence `L(kp)` is convex on every maximal
//! run of consecutive unoccupied keys, so its maximum over a run is attained
//! at one of the run's two endpoints. The optimal attack therefore
//! evaluates only the `≤ 2(n−1)` gap endpoints — each in constant time via
//! [`PoisonOracle`] — for a total of `O(n)` after preprocessing, instead of
//! the brute-force `O(mn)`.
//!
//! Candidates are restricted to the open interval `(min K, max K)`:
//! inserting outside the legitimate span would create an out-of-range
//! outlier that trivial sanitization removes (paper, Section IV-C).

use crate::oracle::PoisonOracle;
use lis_core::error::{LisError, Result};
use lis_core::keys::{Key, KeySet};

/// Outcome of a single-point poisoning search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinglePointPlan {
    /// The loss-maximising poisoning key.
    pub key: Key,
    /// MSE of the regression refit on `K ∪ {key}`.
    pub poisoned_mse: f64,
    /// MSE of the regression on the clean keyset.
    pub clean_mse: f64,
    /// Number of candidate keys evaluated.
    pub candidates_evaluated: usize,
}

impl SinglePointPlan {
    /// Ratio Loss achieved by this single insertion.
    pub fn ratio_loss(&self) -> f64 {
        lis_core::metrics::ratio_loss(self.poisoned_mse, self.clean_mse)
    }
}

/// Finds the in-range poisoning key that maximises the refit MSE.
///
/// Errors with [`LisError::NoPoisoningCandidates`] when the keyset is dense
/// (no unoccupied key between min and max) and with
/// [`LisError::DegenerateRegression`] when `n < 2`.
pub fn optimal_single_point(ks: &KeySet) -> Result<SinglePointPlan> {
    let oracle = PoisonOracle::new(ks);
    optimal_single_point_with(ks, &oracle)
}

/// Same as [`optimal_single_point`] but reuses a prebuilt oracle (the mixed
/// insert/remove campaign rebuilds the oracle once per step and calls this
/// directly, as does the rebuild-per-step reference loop in the greedy
/// attack's tests).
pub fn optimal_single_point_with(ks: &KeySet, oracle: &PoisonOracle) -> Result<SinglePointPlan> {
    if ks.len() < 2 {
        return Err(LisError::DegenerateRegression { n: ks.len() });
    }
    let mut best: Option<(Key, f64)> = None;
    let mut evaluated = 0usize;
    for gap in ks.gaps() {
        // The gap walk knows the insertion rank: avoid the binary search.
        let idx = gap.insert_rank - 1;
        for kp in gap.endpoints() {
            let loss = oracle.loss_with_rank(kp, idx);
            evaluated += 1;
            if best.is_none_or(|(_, b)| loss > b) {
                best = Some((kp, loss));
            }
        }
    }
    let (key, poisoned_mse) = best.ok_or(LisError::NoPoisoningCandidates)?;
    Ok(SinglePointPlan {
        key,
        poisoned_mse,
        clean_mse: oracle.clean_mse(),
        candidates_evaluated: evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::keys::KeyDomain;

    #[test]
    fn matches_bruteforce_on_small_sets() {
        // Exhaustively verify the endpoint restriction on several shapes.
        let cases: Vec<Vec<Key>> = vec![
            vec![2, 6, 7, 12],
            vec![0, 10, 20, 30, 40],
            vec![1, 2, 3, 50],
            vec![5, 6, 8, 9, 40, 41, 43],
            vec![0, 3, 9, 27, 81],
        ];
        for keys in cases {
            let ks = KeySet::from_keys(keys.clone()).unwrap();
            let plan = optimal_single_point(&ks).unwrap();
            // Brute force over ALL in-range unoccupied keys.
            let oracle = PoisonOracle::new(&ks);
            let mut best = f64::NEG_INFINITY;
            for kp in ks.min_key()..=ks.max_key() {
                if !ks.contains(kp) {
                    best = best.max(oracle.loss(kp));
                }
            }
            assert!(
                (plan.poisoned_mse - best).abs() < 1e-9,
                "keys {:?}: endpoint best {} vs brute force {}",
                keys,
                plan.poisoned_mse,
                best
            );
        }
    }

    #[test]
    fn dense_keyset_has_no_candidates() {
        let ks = KeySet::from_keys((10..20u64).collect()).unwrap();
        assert!(matches!(
            optimal_single_point(&ks),
            Err(LisError::NoPoisoningCandidates)
        ));
    }

    #[test]
    fn two_keys_minimum() {
        let one = KeySet::from_keys(vec![3]).unwrap();
        assert!(matches!(
            optimal_single_point(&one),
            Err(LisError::DegenerateRegression { n: 1 })
        ));
        let two = KeySet::from_keys(vec![3, 10]).unwrap();
        let plan = optimal_single_point(&two).unwrap();
        assert!(two.domain().contains(plan.key));
        assert!(!two.contains(plan.key));
    }

    #[test]
    fn candidate_count_is_linear_not_domain_sized() {
        // Huge sparse domain: evaluated candidates must scale with n, not m.
        let ks = KeySet::new(
            (0..100u64).map(|i| i * 1_000_000).collect(),
            KeyDomain::up_to(100_000_000),
        )
        .unwrap();
        let plan = optimal_single_point(&ks).unwrap();
        assert!(plan.candidates_evaluated <= 2 * (ks.len() - 1));
    }

    #[test]
    fn ratio_loss_exceeds_one_on_uniform_data() {
        let ks = KeySet::from_keys((0..90u64).map(|i| i * 5).collect()).unwrap();
        let plan = optimal_single_point(&ks).unwrap();
        assert!(plan.poisoned_mse > plan.clean_mse);
    }

    #[test]
    fn chosen_key_is_insertable() {
        let ks = KeySet::from_keys(vec![10, 14, 99, 105, 230]).unwrap();
        let plan = optimal_single_point(&ks).unwrap();
        assert!(ks.with_key(plan.key).is_ok());
    }
}
