//! # lis-poison — poisoning attacks on learned index structures
//!
//! The primary contribution of *"The Price of Tailoring the Index to Your
//! Data"* (Kornaropoulos, Ren, Tamassia — SIGMOD 2022): availability
//! poisoning attacks against regression models trained on CDFs, and against
//! the two-stage Recursive Model Index built from them.
//!
//! Poisoning a CDF differs from classic regression poisoning: the training
//! target of every point is its *rank*, so inserting one key shifts the
//! rank of every larger key — a single insertion perturbs a large fraction
//! of the training set (the "compound effect", Section IV-B).
//!
//! * [`attack`] — the unified [`Attack`] trait and wrappers, so harnesses
//!   sweep every adversary through one interface;
//! * [`oracle`] — O(1)-per-candidate poisoned-loss evaluation, both the
//!   immutable precomputed form and the incremental form whose moments
//!   stay valid under insert/remove (no per-step rebuilds);
//! * [`single`] — the optimal single-point attack (gap endpoints, O(n));
//! * [`loss_sequence`] — the full `L(kp)` sequence and its discrete
//!   derivative (Figure 3, Theorem 2);
//! * [`greedy`] — greedy multi-point poisoning (Algorithm 1), with exact
//!   and lazy-heap engines;
//! * [`bruteforce`] — exhaustive baselines used for validation;
//! * [`rmi_attack`](mod@rmi_attack) — the two-stage RMI attack with greedy volume
//!   allocation and CHANGELOSS neighbour exchanges (Algorithm 2).
//!
//! ## Quick example
//!
//! ```
//! use lis_core::keys::KeySet;
//! use lis_poison::{greedy_poison, PoisonBudget};
//!
//! // 90 uniformly spaced keys, 10 poisoning keys — the setting of the
//! // paper's Figure 4.
//! let ks = KeySet::from_keys((0..90u64).map(|i| i * 5).collect()).unwrap();
//! let plan = greedy_poison(&ks, PoisonBudget::keys(10)).unwrap();
//! assert!(plan.ratio_loss() > 5.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attack;
pub mod blackbox;
pub mod bruteforce;
pub mod greedy;
pub mod loss_sequence;
pub mod oracle;
pub mod removal;
pub mod rmi_attack;
pub mod single;
pub mod volume;

pub use attack::{
    Attack, AttackOutcome, DpRmiPoisonAttack, GreedyCdfAttack, MixedAttack, RemovalAttack,
    RmiPoisonAttack,
};
pub use blackbox::{blackbox_rmi_attack, infer_leaf_models, BlackboxOutcome};
pub use greedy::{
    greedy_poison, greedy_poison_lazy, greedy_poison_sorted, GreedyPlan, PoisonBudget,
};
pub use loss_sequence::LossSequence;
pub use oracle::{IncrementalOracle, PoisonOracle};
pub use removal::{greedy_mixed, greedy_removal, optimal_single_removal};
pub use rmi_attack::{rmi_attack, RmiAttackConfig, RmiAttackResult};
pub use single::{optimal_single_point, SinglePointPlan};
pub use volume::{dp_rmi_allocation, dp_rmi_attack, optimal_volume_allocation, VolumeAllocation};
