//! # lis — poisoning attacks on learned index structures
//!
//! Umbrella crate for the reproduction of *"The Price of Tailoring the
//! Index to Your Data: Poisoning Attacks on Learned Index Structures"*
//! (Kornaropoulos, Ren, Tamassia — SIGMOD 2022).
//!
//! Re-exports the four subsystem crates and adds the experiment
//! [`pipeline`]:
//!
//! * [`core`] — the learned-index substrate (CDF regression, RMI,
//!   B+-tree baseline, metrics) and the unified
//!   [`LearnedIndex`](lis_core::index::LearnedIndex) trait layer;
//! * [`poison`] — the paper's attacks behind the
//!   [`Attack`](lis_poison::Attack) trait (optimal single-point, greedy
//!   multi-point, RMI volume allocation, deletion adversaries);
//! * [`defense`] — TRIM adaptation and outlier filters behind the
//!   [`Defense`](lis_defense::Defense) trait;
//! * [`workloads`] — synthetic and simulated-real keysets;
//! * [`server`] — the concurrent serving front end (bounded request
//!   queue, adaptive micro-batcher, worker pool, latency histogram, and
//!   the epoch-swapped write plane with pluggable admission control);
//! * [`online`] — the online attack plane: live Algorithm-2 poisoning
//!   campaigns through the serve path, plus the benign / undefended /
//!   defended harness behind `lis-cli serve-online`;
//! * [`pipeline`] — the workload → attack → defense → index → report
//!   builder composing all of the above, measuring through [`server`];
//! * [`chaos`] — the robustness ladder: deterministic fault injection
//!   (see [`lis_server::fault`]) against the live server, scored on
//!   availability, correctness under faults, recovery time, and
//!   attack-triggered epoch rollback, behind `lis-cli chaos`;
//! * [`figures`] — the paper's figures and ablations as one table of
//!   pinned, deterministic quantities behind `lis-cli figures`.
//!
//! Wall-clock performance is measured by the separate `benchmark/`
//! package, not by this crate.
//!
//! ## End-to-end example
//!
//! ```
//! use lis::prelude::*;
//!
//! // 1. A uniform keyset — the friendliest case for a learned index.
//! let mut rng = lis::workloads::trial_rng(42, 0);
//! let domain = lis::workloads::domain_for_density(1_000, 0.2).unwrap();
//! let clean = lis::workloads::uniform_keys(&mut rng, 1_000, domain).unwrap();
//!
//! // 2. Poison 10% of it with the greedy CDF attack.
//! let budget = PoisonBudget::percentage(10.0, clean.len()).unwrap();
//! let plan = greedy_poison(&clean, budget).unwrap();
//! assert!(plan.ratio_loss() > 1.0);
//!
//! // 3. Build RMIs over both and compare their loss.
//! let poisoned = plan.poisoned_keyset(&clean).unwrap();
//! let clean_rmi = Rmi::build(&clean, &RmiConfig::linear_root(10)).unwrap();
//! let bad_rmi = Rmi::build(&poisoned, &RmiConfig::linear_root(10)).unwrap();
//! assert!(bad_rmi.rmi_loss() >= clean_rmi.rmi_loss());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use lis_core as core;
pub use lis_defense as defense;
pub use lis_online as online;
pub use lis_poison as poison;
pub use lis_server as server;
pub use lis_workloads as workloads;

pub mod chaos;
pub mod figures;
pub mod pipeline;

/// Convenience prelude importing the types used by almost every experiment.
pub mod prelude {
    pub use crate::chaos::{
        run_chaos, run_chaos_scenario, ChaosConfig, ChaosReport, ChaosScenarioReport,
    };
    pub use crate::pipeline::{Pipeline, PipelineReport, WorkloadSpec};
    pub use lis_core::btree::BPlusTree;
    pub use lis_core::index::{DynIndex, IndexRegistry, LearnedIndex, Lookup};
    pub use lis_core::keys::{Key, KeyDomain, KeySet};
    pub use lis_core::linreg::LinearModel;
    pub use lis_core::metrics::{ratio_loss, rmi_ratio_report};
    pub use lis_core::rmi::{Rmi, RmiConfig, Routing};
    pub use lis_core::shard::{ShardConfig, ShardedIndex};
    pub use lis_core::stats::BoxplotSummary;
    pub use lis_defense::{Defense, DefenseOutcome};
    pub use lis_defense::{DensityScreen, SourceRateLimit, TrustedFence};
    pub use lis_online::{run_campaign, run_online, Campaign, CampaignConfig, OnlineConfig};
    pub use lis_poison::{
        greedy_poison, greedy_poison_lazy, optimal_single_point, rmi_attack, Attack, AttackOutcome,
        GreedyPlan, IncrementalOracle, PoisonBudget, RmiAttackConfig, RmiAttackResult,
    };
    pub use lis_server::{
        AdmissionChain, AdmissionPolicy, AdmitAll, LatencyHistogram, ServeConfig, ServeReport,
        Server, WriteOp, WriteStatus,
    };
}
