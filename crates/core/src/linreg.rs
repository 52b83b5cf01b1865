//! Closed-form linear regression on CDFs (Definition 1 / Theorem 1).
//!
//! The second-stage building block of the RMI is an ordinary least-squares
//! fit of rank against key over the CDF pairs of a keyset. Following the
//! paper (and the original LIS work) the regression is *non-regularized*:
//! in a learned index the queries are overwhelmingly the training keys
//! themselves, so generalization via regularization buys nothing.
//!
//! Theorem 1 gives the closed form
//! `w* = Cov_KR / Var_K`, `b* = M_R − w*·M_K`, and the optimal MSE
//! `L = Var_R − Cov²_KR / Var_K`. (The paper's display writes
//! `−Cov²/Var_R + Var_K`, an obvious transposition; our property tests
//! cross-check the implemented form against explicit residual sums.)

use crate::error::{LisError, Result};
use crate::keys::{Key, KeySet};
use crate::stats::{midpoint_shift, rank_sq_sum, rank_sum, CdfMoments};

/// A fitted line `rank ≈ w·key + b` with its training loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Slope `w*`.
    pub w: f64,
    /// Intercept `b*` (in unshifted key coordinates).
    pub b: f64,
    /// Optimal mean-squared error on the training CDF.
    pub mse: f64,
    /// Number of training points.
    pub n: usize,
}

impl LinearModel {
    /// Fits the regression on the CDF of `ks` (ranks `1..=n`).
    ///
    /// Errors with [`LisError::DegenerateRegression`] when `n < 2` (a single
    /// point does not determine a line; the paper assumes `n ≥ 2`
    /// throughout).
    pub fn fit(ks: &KeySet) -> Result<Self> {
        if ks.len() < 2 {
            return Err(LisError::DegenerateRegression { n: ks.len() });
        }
        Ok(Self::from_moments(&CdfMoments::from_keyset(ks)))
    }

    /// Fits from explicit `(key, rank)` pairs; ranks need not be `1..=n`
    /// (second-stage models may train on global ranks — the fit only shifts
    /// by a constant).
    pub fn fit_pairs(pairs: &[(Key, usize)]) -> Result<Self> {
        if pairs.len() < 2 {
            return Err(LisError::DegenerateRegression { n: pairs.len() });
        }
        let lo = pairs.iter().map(|&(k, _)| k).min().unwrap();
        let hi = pairs.iter().map(|&(k, _)| k).max().unwrap();
        let shift = crate::stats::midpoint_shift(lo, hi);
        let m = CdfMoments::from_pairs_shifted(pairs.iter().copied(), shift);
        Ok(Self::from_moments(&m))
    }

    /// Builds the model from precomputed moments (Theorem 1).
    ///
    /// When `Var_K = 0` (all keys identical — impossible for a valid
    /// [`KeySet`] but representable through raw moments) the fit degrades to
    /// the horizontal line through the mean rank, whose MSE is `Var_R`.
    pub fn from_moments(m: &CdfMoments) -> Self {
        let var_x = m.var_x();
        let (w, mse) = if var_x > 0.0 {
            let w = m.cov_xr() / var_x;
            (w, optimal_mse(m))
        } else {
            (0.0, m.var_r())
        };
        // b in unshifted coordinates: rank = w·(k − shift) + b_shifted
        //                                  = w·k + (b_shifted − w·shift).
        let b_shifted = m.mean_r() - w * m.mean_x();
        LinearModel {
            w,
            b: b_shifted - w * m.shift,
            mse,
            n: m.n,
        }
    }

    /// Predicted (fractional) rank for `key`.
    pub fn predict(&self, key: Key) -> f64 {
        self.w * key as f64 + self.b
    }

    /// Predicted 0-based position clamped to `[0, n-1]`.
    pub fn predict_pos(&self, key: Key) -> usize {
        let p = self.predict(key) - 1.0;
        p.round().clamp(0.0, (self.n.saturating_sub(1)) as f64) as usize
    }

    /// Residual `prediction − rank` for one CDF pair.
    pub fn residual(&self, key: Key, rank: usize) -> f64 {
        self.predict(key) - rank as f64
    }

    /// Recomputes the MSE on an arbitrary CDF from scratch — the reference
    /// implementation used by tests and by the TRIM defense (which evaluates
    /// a fixed line on changing subsets).
    pub fn mse_on(&self, pairs: impl IntoIterator<Item = (Key, usize)>) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (k, r) in pairs {
            let e = self.residual(k, r);
            sum += e * e;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Largest absolute residual over the training CDF of `ks` — the "last
    /// mile" search radius a learned index must cover to guarantee hits.
    pub fn max_abs_error(&self, ks: &KeySet) -> f64 {
        ks.cdf_pairs()
            .map(|(k, r)| self.residual(k, r).abs())
            .fold(0.0, f64::max)
    }

    /// [`LinearModel::max_abs_error`] over a raw sorted slice with local
    /// ranks `1..=len` — the zero-copy twin used by the optimized build
    /// plane. Residual arithmetic is identical, so the result matches the
    /// keyset path bit for bit.
    ///
    /// Four running maxima, each kept by compare-and-select, break the
    /// one-`max`-per-key dependency chain and skip `f64::max`'s NaN
    /// handling. A maximum is exact and the residuals are never NaN, so
    /// neither the order they are compared in nor the form of the
    /// comparison can change the result. Keys and ranks convert as in
    /// [`fit_sorted_slice`].
    pub fn max_abs_error_slice(&self, keys: &[Key]) -> f64 {
        if signed_conversion_is_exact(keys) {
            self.max_abs_error_lanes::<true>(keys)
        } else {
            self.max_abs_error_lanes::<false>(keys)
        }
    }

    fn max_abs_error_lanes<const SIGNED: bool>(&self, keys: &[Key]) -> f64 {
        let mut max = [0.0f64; 4];
        let mut keep = |lane: usize, key: Key, rank: f64| {
            let e = (self.w * key_to_f64::<SIGNED>(key) + self.b - rank).abs();
            if e > max[lane] {
                max[lane] = e;
            }
        };
        let quads = keys.chunks_exact(4);
        let tail = quads.remainder();
        let mut rank = 1.0;
        for quad in quads {
            for (lane, &key) in quad.iter().enumerate() {
                keep(lane, key, rank + lane as f64);
            }
            rank += 4.0;
        }
        for (lane, &key) in tail.iter().enumerate() {
            keep(lane, key, rank + lane as f64);
        }
        max[0].max(max[1]).max(max[2].max(max[3]))
    }
}

/// Whether every key of the sorted slice `keys` fits in an `i64`, so that
/// `key_to_f64::<true>` equals `k as f64` on all of them.
pub fn signed_conversion_is_exact(keys: &[Key]) -> bool {
    keys.last().is_none_or(|&k| k <= i64::MAX as Key)
}

/// `k as f64`, through the signed conversion when `SIGNED`. Both round
/// the same integer to the nearest `f64`, so they agree on every key up
/// to `i64::MAX`; the signed one is a single instruction on baseline
/// x86-64, the unsigned one a multi-instruction sequence. Callers pick
/// `SIGNED` once per sorted slice with [`signed_conversion_is_exact`].
#[inline(always)]
pub fn key_to_f64<const SIGNED: bool>(k: Key) -> f64 {
    if SIGNED {
        k as i64 as f64
    } else {
        k as f64
    }
}

/// Fits the regression on a contiguous slice of strictly-sorted keys with
/// local ranks `1..=len`, without constructing a [`KeySet`] — the
/// zero-copy leaf-fit path of the parallel build plane.
///
/// Returns the model together with the raw [`CdfMoments`] (local midpoint
/// shift, local ranks) so a caller can assemble a parent model's moments
/// from its partitions via [`CdfMoments::rebase`] / [`CdfMoments::merge`]
/// instead of re-reading every key.
///
/// Arithmetic equivalence with [`LinearModel::fit`]: the key sums
/// (`Σx`, `Σx²`, `Σxr`) accumulate in the same order with the same
/// expressions, and the rank sums use the closed forms
/// [`rank_sum`]/[`rank_sq_sum`] — exactly equal to the accumulated sums
/// while the intermediate integers stay below 2⁵³ (every leaf-sized
/// partition; beyond that only the reported `mse` can differ in final
/// ulps, never `w` or `b`, which are rank-square-free).
///
/// The conversions are the cheap exact ones: the rank is a running
/// `f64` (`r += 1.0` is exact below 2⁵³), and when the slice's last key
/// fits in an `i64` every key converts as `(k as i64) as f64` — the same
/// correctly rounded value as `k as f64`, in one instruction instead of
/// the unsigned sequence. Slices reaching above `i64::MAX` keep
/// `k as f64`.
pub fn fit_sorted_slice(keys: &[Key]) -> Result<(LinearModel, CdfMoments)> {
    if keys.is_empty() {
        return Err(LisError::DegenerateRegression { n: 0 });
    }
    let n = keys.len();
    let shift = midpoint_shift(keys[0], keys[n - 1]);
    let (sum_x, sum_xx, sum_xr) = if signed_conversion_is_exact(keys) {
        key_sums::<true>(keys, shift)
    } else {
        key_sums::<false>(keys, shift)
    };
    let m = CdfMoments {
        n,
        shift,
        sum_x,
        sum_xx,
        sum_r: rank_sum(n),
        sum_rr: rank_sq_sum(n),
        sum_xr,
    };
    if n < 2 {
        // Single-point partitions are legal for the RMI's tail leaves: the
        // constant model through rank 1, zero loss (mirrors `fit_leaf`).
        return Ok((
            LinearModel {
                w: 0.0,
                b: 1.0,
                mse: 0.0,
                n: 1,
            },
            m,
        ));
    }
    Ok((LinearModel::from_moments(&m), m))
}

/// `(Σx, Σx², Σxr)` over `x = k − shift` and ranks `1..=len`, in key
/// order — the accumulation [`CdfMoments::from_pairs_shifted`] performs.
fn key_sums<const SIGNED: bool>(keys: &[Key], shift: f64) -> (f64, f64, f64) {
    let (mut sum_x, mut sum_xx, mut sum_xr) = (0.0, 0.0, 0.0);
    let mut rank = 0.0;
    for &k in keys {
        let x = key_to_f64::<SIGNED>(k) - shift;
        rank += 1.0;
        sum_x += x;
        sum_xx += x * x;
        sum_xr += x * rank;
    }
    (sum_x, sum_xx, sum_xr)
}

/// Optimal MSE from moments: `Var_R − Cov²_KR / Var_K` (corrected Theorem 1).
///
/// Clamped at zero: for an exactly-linear CDF floating error can produce a
/// tiny negative value.
pub fn optimal_mse(m: &CdfMoments) -> f64 {
    let var_x = m.var_x();
    if var_x <= 0.0 {
        return m.var_r();
    }
    let cov = m.cov_xr();
    (m.var_r() - cov * cov / var_x).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyDomain;

    fn paper_keys() -> KeySet {
        KeySet::new(vec![2, 6, 7, 12], KeyDomain::new(1, 13).unwrap()).unwrap()
    }

    /// Reference OLS computed the long way (normal equations on raw data).
    fn naive_fit(pairs: &[(f64, f64)]) -> (f64, f64, f64) {
        let n = pairs.len() as f64;
        let mk = pairs.iter().map(|p| p.0).sum::<f64>() / n;
        let mr = pairs.iter().map(|p| p.1).sum::<f64>() / n;
        let cov = pairs.iter().map(|p| (p.0 - mk) * (p.1 - mr)).sum::<f64>() / n;
        let var = pairs.iter().map(|p| (p.0 - mk) * (p.0 - mk)).sum::<f64>() / n;
        let w = cov / var;
        let b = mr - w * mk;
        let mse = pairs
            .iter()
            .map(|p| (w * p.0 + b - p.1).powi(2))
            .sum::<f64>()
            / n;
        (w, b, mse)
    }

    #[test]
    fn fit_matches_naive_ols() {
        let ks = paper_keys();
        let model = LinearModel::fit(&ks).unwrap();
        let pairs: Vec<(f64, f64)> = ks.cdf_pairs().map(|(k, r)| (k as f64, r as f64)).collect();
        let (w, b, mse) = naive_fit(&pairs);
        assert!((model.w - w).abs() < 1e-9, "w {} vs {}", model.w, w);
        assert!((model.b - b).abs() < 1e-9);
        assert!((model.mse - mse).abs() < 1e-9);
    }

    #[test]
    fn perfectly_linear_cdf_has_zero_loss() {
        // Evenly spaced keys: rank is an exact linear function of key.
        let ks = KeySet::from_keys((0..100).map(|i| i * 7).collect()).unwrap();
        let model = LinearModel::fit(&ks).unwrap();
        assert!(model.mse < 1e-9);
        for (k, r) in ks.cdf_pairs() {
            assert!((model.predict(k) - r as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn degenerate_cases_error() {
        let one = KeySet::from_keys(vec![5]).unwrap();
        assert!(matches!(
            LinearModel::fit(&one),
            Err(LisError::DegenerateRegression { n: 1 })
        ));
        assert!(LinearModel::fit_pairs(&[(1, 1)]).is_err());
    }

    #[test]
    fn predict_pos_clamps() {
        let ks = KeySet::from_keys(vec![10, 20, 30, 40]).unwrap();
        let model = LinearModel::fit(&ks).unwrap();
        assert_eq!(model.predict_pos(0), 0);
        assert_eq!(model.predict_pos(1000), 3);
        assert_eq!(model.predict_pos(10), 0);
        assert_eq!(model.predict_pos(40), 3);
    }

    #[test]
    fn fit_pairs_with_global_ranks_shifts_intercept_only() {
        let ks = KeySet::from_keys(vec![3, 9, 15, 27]).unwrap();
        let local = LinearModel::fit(&ks).unwrap();
        let global: Vec<(Key, usize)> = ks.cdf_pairs().map(|(k, r)| (k, r + 100)).collect();
        let shifted = LinearModel::fit_pairs(&global).unwrap();
        assert!((local.w - shifted.w).abs() < 1e-9);
        assert!((shifted.b - local.b - 100.0).abs() < 1e-7);
        assert!((local.mse - shifted.mse).abs() < 1e-7);
    }

    #[test]
    fn mse_on_matches_training_mse() {
        let ks = paper_keys();
        let model = LinearModel::fit(&ks).unwrap();
        let recomputed = model.mse_on(ks.cdf_pairs());
        assert!((model.mse - recomputed).abs() < 1e-9);
    }

    #[test]
    fn max_abs_error_bounds_all_residuals() {
        let ks = KeySet::from_keys(vec![1, 2, 3, 50, 51, 52, 100]).unwrap();
        let model = LinearModel::fit(&ks).unwrap();
        let bound = model.max_abs_error(&ks);
        for (k, r) in ks.cdf_pairs() {
            assert!(model.residual(k, r).abs() <= bound + 1e-12);
        }
        assert!(bound > 0.0);
    }

    #[test]
    fn fit_sorted_slice_is_bitwise_identical_to_keyset_fit() {
        // The zero-copy path must be indistinguishable from the KeySet
        // path — same shift, same accumulation order, closed-form rank
        // sums exact at these sizes, and the signed key conversion taken
        // exactly when it equals the unsigned one: slices ending below,
        // at and above `i64::MAX`, up to `u64::MAX`, and lengths 1..=9
        // (every tail lane of the four-way max).
        let top = i64::MAX as u64;
        let mut inputs = vec![
            vec![2u64, 6, 7, 12],
            (0..1000u64).map(|i| i * 7 + 3).collect::<Vec<_>>(),
            (1..500u64).map(|i| i * i).collect::<Vec<_>>(),
            (0..300u64).map(|i| top - 150 * 7919 + i * 7919).collect(),
            (0..300u64).map(|i| u64::MAX - (299 - i) * 12_345).collect(),
            (0..300u64).map(|i| top - (299 - i) * 977).collect(),
        ];
        inputs.extend((1..=9u64).map(|len| (0..len).map(|i| i * i * 3 + 5).collect()));
        for keys in inputs {
            let (slice_model, m) = fit_sorted_slice(&keys).unwrap();
            assert_eq!(m.n, keys.len());
            let ks = KeySet::from_keys(keys.clone()).unwrap();
            if keys.len() >= 2 {
                let ks_model = LinearModel::fit(&ks).unwrap();
                assert_eq!(slice_model.w.to_bits(), ks_model.w.to_bits());
                assert_eq!(slice_model.b.to_bits(), ks_model.b.to_bits());
                assert_eq!(slice_model.mse.to_bits(), ks_model.mse.to_bits());
            } else {
                assert_eq!(slice_model.w, 0.0);
                assert_eq!(slice_model.b, 1.0);
                assert_eq!(slice_model.mse, 0.0);
            }
            assert_eq!(
                slice_model.max_abs_error_slice(&keys).to_bits(),
                slice_model.max_abs_error(&ks).to_bits(),
                "{} keys ending at {}",
                keys.len(),
                keys[keys.len() - 1]
            );
        }
        assert!(fit_sorted_slice(&[]).is_err());
    }

    #[test]
    fn huge_keys_fit_stably() {
        let base = 10_u64.pow(9);
        let ks = KeySet::from_keys((0..1000).map(|i| base + i * 13).collect()).unwrap();
        let model = LinearModel::fit(&ks).unwrap();
        assert!(
            model.mse < 1e-6,
            "linear CDF at large offset should fit exactly, mse={}",
            model.mse
        );
    }
}
