//! The unified [`Attack`] trait: every adversary in the crate behind one
//! interface, so harnesses compose *any* attack with *any* workload,
//! defense, and victim structure.
//!
//! Wrappers are provided for the paper's attacks and the future-work
//! extensions: [`GreedyCdfAttack`] (Algorithm 1), [`RmiPoisonAttack`]
//! (Algorithm 2), [`DpRmiPoisonAttack`] (the exact-DP volume allocator),
//! and [`RemovalAttack`] and [`MixedAttack`] (deletion-capable
//! adversaries). A clean run has no attack stage at all: the pipeline
//! holds its attack as an `Option`.
//!
//! ## Example
//!
//! ```
//! use lis_core::keys::KeySet;
//! use lis_poison::attack::{Attack, GreedyCdfAttack};
//! use lis_poison::PoisonBudget;
//!
//! let ks = KeySet::from_keys((0..90u64).map(|i| i * 5).collect()).unwrap();
//! let attack = GreedyCdfAttack { budget: PoisonBudget::keys(10) };
//! let outcome = attack.run(&ks).unwrap();
//! assert!(outcome.ratio_loss() > 5.0);
//! assert_eq!(outcome.poisoned.len(), ks.len() + outcome.inserted.len());
//! ```

use crate::greedy::{greedy_poison, PoisonBudget};
use crate::removal::{greedy_mixed, greedy_removal, MixedAction};
use crate::rmi_attack::{rmi_attack, RmiAttackConfig};
use crate::volume::dp_rmi_attack;
use lis_core::error::Result;
use lis_core::keys::{Key, KeySet};
use lis_core::metrics::ratio_loss;

/// The result every [`Attack`] produces: the manipulated keyset plus the
/// ground truth a defense evaluation needs.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Poisoning keys the adversary inserted (ground truth for defenses).
    pub inserted: Vec<Key>,
    /// Legitimate keys the adversary deleted (empty for insert-only
    /// attacks).
    pub removed: Vec<Key>,
    /// The keyset after the campaign: `(K ∪ inserted) ∖ removed`.
    pub poisoned: KeySet,
    /// Loss of the victim model family on the clean keyset.
    pub clean_loss: f64,
    /// Loss on the poisoned keyset.
    pub poisoned_loss: f64,
}

impl AttackOutcome {
    /// The paper's Ratio Loss, `poisoned / clean` with the epsilon guard.
    pub fn ratio_loss(&self) -> f64 {
        ratio_loss(self.poisoned_loss, self.clean_loss)
    }

    /// Total adversarial actions (insertions + deletions).
    pub fn actions(&self) -> usize {
        self.inserted.len() + self.removed.len()
    }
}

/// A poisoning adversary: consumes the clean keyset, produces the poisoned
/// one plus ground truth. Object safe, so harnesses can sweep
/// `Vec<Box<dyn Attack>>` campaigns.
pub trait Attack {
    /// Short display name for tables and CLI flags.
    fn name(&self) -> &str;

    /// Mounts the attack against `clean`.
    fn run(&self, clean: &KeySet) -> Result<AttackOutcome>;
}

/// Algorithm 1: greedy multi-point CDF poisoning of the regression model.
#[derive(Debug, Clone, Copy)]
pub struct GreedyCdfAttack {
    /// Number of poisoning keys to insert.
    pub budget: PoisonBudget,
}

impl Attack for GreedyCdfAttack {
    fn name(&self) -> &str {
        "greedy-cdf"
    }

    fn run(&self, clean: &KeySet) -> Result<AttackOutcome> {
        let plan = greedy_poison(clean, self.budget)?;
        Ok(AttackOutcome {
            poisoned: plan.poisoned_keyset(clean)?,
            clean_loss: plan.clean_mse,
            poisoned_loss: plan.final_mse(),
            inserted: plan.keys,
            removed: Vec::new(),
        })
    }
}

/// Algorithm 2: the two-stage RMI attack with greedy volume allocation and
/// CHANGELOSS neighbour exchanges.
#[derive(Debug, Clone, Copy)]
pub struct RmiPoisonAttack {
    /// Number of second-stage models the victim partitions into.
    pub num_models: usize,
    /// Attack parameters (`φ`, `α`, exchange bounds).
    pub cfg: RmiAttackConfig,
}

impl Attack for RmiPoisonAttack {
    fn name(&self) -> &str {
        "rmi-greedy"
    }

    fn run(&self, clean: &KeySet) -> Result<AttackOutcome> {
        let res = rmi_attack(clean, self.num_models, &self.cfg)?;
        Ok(AttackOutcome {
            inserted: res.poison_keys(),
            removed: Vec::new(),
            poisoned: res.poisoned_keyset(clean)?,
            clean_loss: res.clean_rmi_loss,
            poisoned_loss: res.poisoned_rmi_loss,
        })
    }
}

/// The exact-DP volume allocation variant — a strictly stronger adversary
/// than Algorithm 2 on skewed data.
#[derive(Debug, Clone, Copy)]
pub struct DpRmiPoisonAttack {
    /// Number of second-stage models the victim partitions into.
    pub num_models: usize,
    /// Overall poisoning percentage `φ·100`.
    pub poison_percent: f64,
    /// Per-model threshold multiplier `α`.
    pub alpha: f64,
}

impl Attack for DpRmiPoisonAttack {
    fn name(&self) -> &str {
        "rmi-dp"
    }

    fn run(&self, clean: &KeySet) -> Result<AttackOutcome> {
        let res = dp_rmi_attack(clean, self.num_models, self.poison_percent, self.alpha)?;
        Ok(AttackOutcome {
            inserted: res.poison_keys(),
            removed: Vec::new(),
            poisoned: res.poisoned_keyset(clean)?,
            clean_loss: res.clean_rmi_loss,
            poisoned_loss: res.poisoned_rmi_loss,
        })
    }
}

/// The deletion-capable adversary of the paper's future-work section.
#[derive(Debug, Clone, Copy)]
pub struct RemovalAttack {
    /// Number of legitimate keys to delete.
    pub count: usize,
}

impl Attack for RemovalAttack {
    fn name(&self) -> &str {
        "greedy-removal"
    }

    fn run(&self, clean: &KeySet) -> Result<AttackOutcome> {
        let campaign = greedy_removal(clean, self.count)?;
        let mut poisoned = clean.clone();
        for &k in &campaign.removed {
            poisoned.remove(k)?;
        }
        Ok(AttackOutcome {
            inserted: Vec::new(),
            removed: campaign.removed.clone(),
            poisoned,
            clean_loss: campaign.clean_mse,
            poisoned_loss: campaign.final_mse(),
        })
    }
}

/// The combined insert/delete adversary: each step takes whichever single
/// action increases the loss more.
#[derive(Debug, Clone, Copy)]
pub struct MixedAttack {
    /// Total action budget (insertions + deletions).
    pub budget: PoisonBudget,
}

impl Attack for MixedAttack {
    fn name(&self) -> &str {
        "greedy-mixed"
    }

    fn run(&self, clean: &KeySet) -> Result<AttackOutcome> {
        let campaign = greedy_mixed(clean, self.budget)?;
        let mut poisoned = clean.clone();
        let mut inserted = Vec::new();
        let mut removed = Vec::new();
        // Ground truth must net out action pairs on the same key: removing
        // earlier poison is not a legitimate casualty, and re-inserting a
        // previously removed legitimate key is not poison — otherwise the
        // `poisoned = (K ∪ inserted) ∖ removed` invariant breaks.
        for action in &campaign.actions {
            match *action {
                MixedAction::Insert(k) => {
                    poisoned.insert(k)?;
                    if let Some(i) = removed.iter().position(|&p| p == k) {
                        removed.swap_remove(i);
                    } else {
                        inserted.push(k);
                    }
                }
                MixedAction::Remove(k) => {
                    poisoned.remove(k)?;
                    if let Some(i) = inserted.iter().position(|&p| p == k) {
                        inserted.swap_remove(i);
                    } else {
                        removed.push(k);
                    }
                }
            }
        }
        Ok(AttackOutcome {
            inserted,
            removed,
            poisoned,
            clean_loss: campaign.clean_mse,
            poisoned_loss: campaign.final_mse(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step).collect()).unwrap()
    }

    fn check_consistency(outcome: &AttackOutcome, clean: &KeySet) {
        assert_eq!(
            outcome.poisoned.len(),
            clean.len() + outcome.inserted.len() - outcome.removed.len()
        );
        for &k in &outcome.inserted {
            assert!(outcome.poisoned.contains(k), "inserted {k} missing");
            assert!(!clean.contains(k), "inserted {k} collides with legit");
        }
        for &k in &outcome.removed {
            assert!(!outcome.poisoned.contains(k), "removed {k} still present");
            assert!(clean.contains(k), "removed {k} was never legit");
        }
    }

    #[test]
    fn greedy_cdf_attack_via_trait() {
        let ks = uniform(90, 5);
        let attack = GreedyCdfAttack {
            budget: PoisonBudget::keys(10),
        };
        assert_eq!(attack.name(), "greedy-cdf");
        let out = attack.run(&ks).unwrap();
        check_consistency(&out, &ks);
        assert_eq!(out.inserted.len(), 10);
        assert!(out.ratio_loss() > 5.0, "ratio {}", out.ratio_loss());
    }

    #[test]
    fn rmi_attacks_via_trait() {
        let ks = uniform(400, 9);
        let greedy = RmiPoisonAttack {
            num_models: 8,
            cfg: RmiAttackConfig::new(10.0).with_max_exchanges(8),
        };
        let dp = DpRmiPoisonAttack {
            num_models: 8,
            poison_percent: 10.0,
            alpha: 3.0,
        };
        for attack in [&greedy as &dyn Attack, &dp as &dyn Attack] {
            let out = attack.run(&ks).unwrap();
            check_consistency(&out, &ks);
            assert!(out.ratio_loss() > 1.0, "{}", attack.name());
            assert!(out.inserted.len() <= 40, "{} over budget", attack.name());
        }
    }

    #[test]
    fn removal_attack_via_trait() {
        let ks = uniform(200, 11);
        let out = RemovalAttack { count: 20 }.run(&ks).unwrap();
        check_consistency(&out, &ks);
        assert_eq!(out.removed.len(), 20);
        assert!(out.inserted.is_empty());
        assert!(out.poisoned_loss >= out.clean_loss * 0.5);
    }

    #[test]
    fn mixed_attack_accounts_actions() {
        let ks = uniform(150, 13);
        let out = MixedAttack {
            budget: PoisonBudget::keys(30),
        }
        .run(&ks)
        .unwrap();
        check_consistency(&out, &ks);
        assert!(out.actions() <= 30);
        assert!(out.ratio_loss() >= 1.0);
    }

    #[test]
    fn attacks_are_object_safe_and_sweepable() {
        let ks = uniform(120, 6);
        let fleet: Vec<Box<dyn Attack>> = vec![
            Box::new(GreedyCdfAttack {
                budget: PoisonBudget::keys(5),
            }),
            Box::new(RemovalAttack { count: 5 }),
        ];
        for attack in &fleet {
            let ratio = attack.run(&ks).unwrap().ratio_loss();
            assert!(ratio >= 1.0, "{} ratio {ratio}", attack.name());
        }
    }
}
