//! # lis-defense — mitigations against CDF poisoning
//!
//! Implementations of the defenses discussed in Section VI of the paper,
//! built so the paper's evasion claims are *testable* rather than asserted:
//!
//! * [`trim`] — a TRIM-style trimmed-loss defense adapted to CDF
//!   regression, with the per-iteration re-ranking the CDF setting forces;
//! * [`outlier`] — range, IQR, and local-density filters (the "known
//!   mitigations" the optimal attack is designed to evade by staying
//!   in-range and blending into dense regions);
//! * [`eval`] — ground-truth scoring: poison recall, removal precision,
//!   collateral damage, and post-defense ratio loss;
//! * [`strategy`] — the unified [`Defense`] trait and wrappers, the
//!   counterpart of `lis_poison::attack::Attack`;
//! * [`admission`] — the same statistics recast as *streaming* screens on
//!   the server's write queue ([`SourceRateLimit`], [`DensityScreen`],
//!   [`TrustedFence`]), calibrated on a trusted bootstrap snapshot so the
//!   attacker cannot shift the envelope they are judged against;
//! * [`drift`] — the recovery backstop behind those screens: a windowed
//!   mean-lookup-cost monitor ([`CostDriftMonitor`]) that detects a
//!   campaign which slipped past admission and triggers the server's
//!   epoch rollback to the trusted checkpoint.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod drift;
pub mod eval;
pub mod outlier;
pub mod robust;
pub mod strategy;
pub mod trim;

pub use admission::{DensityScreen, SourceRateLimit, TrustedFence};
pub use drift::CostDriftMonitor;
pub use eval::{evaluate_defense, evaluate_defense_campaign, DefenseReport};
pub use robust::{compare_on_attack, theil_sen, RobustModel};
pub use strategy::{Defense, DefenseOutcome, DensityDefense, IqrDefense, TrimBudget, TrimDefense};
pub use trim::{trim_defense, TrimConfig, TrimOutcome};
