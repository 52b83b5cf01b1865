//! The unified [`Defense`] trait: every mitigation in the crate behind one
//! interface, the counterpart of `lis_poison::attack::Attack`.
//!
//! A defense consumes a *suspect* keyset (possibly poisoned) and returns
//! the subset it trusts. Wrappers are provided for the TRIM adaptation
//! ([`TrimDefense`]) and the value-space filters ([`IqrDefense`],
//! [`DensityDefense`]). An undefended run has no defense stage at all:
//! the pipeline holds its defense as an `Option`.
//!
//! ## Example
//!
//! ```
//! use lis_core::keys::KeySet;
//! use lis_defense::strategy::{Defense, IqrDefense};
//!
//! let mut keys: Vec<u64> = (0..100).map(|i| 1_000 + i).collect();
//! keys.push(50_000_000); // a blatant value-space outlier
//! let suspect = KeySet::from_keys(keys).unwrap();
//! let out = IqrDefense { k: 1.5 }.sanitize(&suspect).unwrap();
//! assert_eq!(out.removed, vec![50_000_000]);
//! ```

use crate::trim::{trim_defense, TrimConfig};
use crate::{outlier, DefenseReport};
use lis_core::error::{LisError, Result};
use lis_core::keys::{Key, KeySet};

/// What a [`Defense`] returns: the keys it trusts and the keys it dropped.
#[derive(Debug, Clone)]
pub struct DefenseOutcome {
    /// The sanitized keyset the victim index should be (re)built on.
    pub retained: KeySet,
    /// Keys the defense discarded as suspected poison.
    pub removed: Vec<Key>,
}

impl DefenseOutcome {
    /// Scores this outcome against ground truth (the clean keyset and the
    /// actually injected poison) via [`crate::eval::evaluate_defense`].
    pub fn evaluate(&self, clean: &KeySet, poison: &[Key]) -> Result<DefenseReport> {
        crate::eval::evaluate_defense(clean, poison, &self.retained)
    }
}

/// A poisoning mitigation: suspect keyset in, trusted subset out. Object
/// safe, so harnesses can sweep `Vec<Box<dyn Defense>>`.
pub trait Defense {
    /// Short display name for tables and CLI flags.
    fn name(&self) -> &str;

    /// Sanitizes `suspect`, returning the retained subset.
    fn sanitize(&self, suspect: &KeySet) -> Result<DefenseOutcome>;
}

/// How [`TrimDefense`] derives the retained count from the suspect set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrimBudget {
    /// Retain exactly this many keys (the defender knows `n`).
    Keys(usize),
    /// Retain this fraction of the suspect set (the defender bounds the
    /// poisoning rate), e.g. `0.9` against ≤ 10% poisoning.
    Fraction(f64),
}

/// The CDF-adapted TRIM trimmed-loss defense.
#[derive(Debug, Clone, Copy)]
pub struct TrimDefense {
    /// Retained-count policy.
    pub budget: TrimBudget,
    /// Maximum refit iterations.
    pub max_iters: usize,
}

impl TrimDefense {
    /// TRIM retaining exactly `n` keys.
    pub fn keys(n: usize) -> Self {
        Self {
            budget: TrimBudget::Keys(n),
            max_iters: 50,
        }
    }

    /// TRIM retaining a fraction of the suspect set.
    pub fn fraction(f: f64) -> Self {
        Self {
            budget: TrimBudget::Fraction(f),
            max_iters: 50,
        }
    }

    fn retain_count(&self, total: usize) -> Result<usize> {
        let retain = match self.budget {
            TrimBudget::Keys(n) => n,
            TrimBudget::Fraction(f) => {
                if !(0.0..=1.0).contains(&f) {
                    return Err(LisError::InvalidBudget(format!(
                        "TRIM retain fraction {f} outside [0, 1]"
                    )));
                }
                (f * total as f64).round() as usize
            }
        };
        Ok(retain.min(total))
    }
}

impl Defense for TrimDefense {
    fn name(&self) -> &str {
        "trim"
    }

    fn sanitize(&self, suspect: &KeySet) -> Result<DefenseOutcome> {
        let retain = self.retain_count(suspect.len())?;
        let mut cfg = TrimConfig::new(retain);
        cfg.max_iters = self.max_iters;
        let out = trim_defense(suspect, &cfg)?;
        Ok(DefenseOutcome {
            retained: out.retained,
            removed: out.removed,
        })
    }
}

/// Tukey's fences on the key values.
#[derive(Debug, Clone, Copy)]
pub struct IqrDefense {
    /// Fence multiplier (conventionally `1.5`).
    pub k: f64,
}

impl Defense for IqrDefense {
    fn name(&self) -> &str {
        "iqr-filter"
    }

    fn sanitize(&self, suspect: &KeySet) -> Result<DefenseOutcome> {
        let (kept, removed) = outlier::iqr_filter(suspect, self.k);
        retained_from(suspect, kept, removed)
    }
}

/// Local-density filter: drops keys sitting in abnormally crowded
/// neighbourhoods.
#[derive(Debug, Clone, Copy)]
pub struct DensityDefense {
    /// Rank-space neighbourhood half-width.
    pub window: usize,
    /// Crowding threshold relative to the dataset's mean gap.
    pub crowd_factor: f64,
}

impl Defense for DensityDefense {
    fn name(&self) -> &str {
        "density-filter"
    }

    fn sanitize(&self, suspect: &KeySet) -> Result<DefenseOutcome> {
        let (kept, removed) =
            outlier::local_density_filter(suspect, self.window, self.crowd_factor)?;
        retained_from(suspect, kept, removed)
    }
}

/// Rebuilds a keyset from a filter's kept keys, preserving the suspect
/// set's domain. An empty kept set is an invariant breach (a defense that
/// removes everything defended nothing).
fn retained_from(suspect: &KeySet, kept: Vec<Key>, removed: Vec<Key>) -> Result<DefenseOutcome> {
    if kept.is_empty() {
        return Err(LisError::Invariant("defense removed every key".into()));
    }
    Ok(DefenseOutcome {
        retained: KeySet::new(kept, suspect.domain())?,
        removed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_poison::{Attack, GreedyCdfAttack, PoisonBudget};

    fn uniform(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step).collect()).unwrap()
    }

    #[test]
    fn trim_budgets_agree() {
        let clean = uniform(100, 9);
        let attack = GreedyCdfAttack {
            budget: PoisonBudget::keys(10),
        };
        let poisoned = attack.run(&clean).unwrap().poisoned;
        let by_keys = TrimDefense::keys(100).sanitize(&poisoned).unwrap();
        let by_fraction = TrimDefense::fraction(100.0 / 110.0)
            .sanitize(&poisoned)
            .unwrap();
        assert_eq!(by_keys.retained.len(), 100);
        assert_eq!(by_fraction.retained.len(), 100);
        assert_eq!(by_keys.removed.len(), 10);
    }

    #[test]
    fn trim_outcome_evaluates_against_ground_truth() {
        let clean = uniform(100, 13);
        let out = GreedyCdfAttack {
            budget: PoisonBudget::keys(10),
        }
        .run(&clean)
        .unwrap();
        let defended = TrimDefense::keys(clean.len())
            .sanitize(&out.poisoned)
            .unwrap();
        let report = defended.evaluate(&clean, &out.inserted).unwrap();
        assert!((0.0..=1.0).contains(&report.poison_recall));
        assert!(report.ratio_before() > 1.0);
    }

    #[test]
    fn filters_partition_the_suspect_set() {
        let mut keys: Vec<Key> = (0..200).map(|i| 5_000 + i * 3).collect();
        keys.push(0);
        keys.push(9_999_999);
        let suspect = KeySet::from_keys(keys).unwrap();
        let fleet: Vec<Box<dyn Defense>> = vec![
            Box::new(IqrDefense { k: 1.5 }),
            Box::new(DensityDefense {
                window: 3,
                crowd_factor: 3.0,
            }),
        ];
        for defense in &fleet {
            let out = defense.sanitize(&suspect).unwrap();
            assert_eq!(
                out.retained.len() + out.removed.len(),
                suspect.len(),
                "{} dropped keys on the floor",
                defense.name()
            );
        }
    }

    #[test]
    fn iqr_defense_catches_extremes() {
        let mut keys: Vec<Key> = (0..100).map(|i| 1_000 + i).collect();
        keys.push(10_000_000);
        let suspect = KeySet::from_keys(keys).unwrap();
        let out = IqrDefense { k: 1.5 }.sanitize(&suspect).unwrap();
        assert_eq!(out.removed, vec![10_000_000]);
    }

    #[test]
    fn trim_fraction_validates() {
        let ks = uniform(50, 3);
        assert!(TrimDefense::fraction(1.5).sanitize(&ks).is_err());
    }
}
