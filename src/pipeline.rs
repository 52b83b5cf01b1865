//! The experiment pipeline: workload → attack → defense → index → report,
//! in one fluent chain.
//!
//! Every figure of the paper — and every scenario the ROADMAP adds — is an
//! instance of the same composition: sample a keyset, let an adversary
//! manipulate it, optionally sanitize it, build one or more victim
//! structures over the result, and measure loss, lookup cost, and memory
//! against the clean baseline. [`Pipeline`] captures that composition over
//! the unified traits ([`LearnedIndex`](lis_core::index::LearnedIndex) via
//! the [`IndexRegistry`], [`Attack`], [`Defense`]), so a new experiment is
//! a few lines instead of a hand-wired harness.
//!
//! Lookup cost is measured with one [`DynIndex::lookup_batch_into`] sweep
//! per build over the whole probe slice. That is the batch call the
//! serving front end's workers drain their micro-batches into, so a served
//! answer equals a measured one field for field; a unit test here serves
//! the pipeline's probes through [`lis_server::Server::serve_all`] and
//! checks it.
//!
//! ## Example
//!
//! ```
//! use lis::pipeline::{Pipeline, WorkloadSpec};
//! use lis::poison::{GreedyCdfAttack, PoisonBudget};
//!
//! let report = Pipeline::new(WorkloadSpec::Uniform { n: 1_000, density: 0.2 })
//!     .seed(7)
//!     .attack(GreedyCdfAttack { budget: PoisonBudget::keys(100) })
//!     .index("rmi")
//!     .index("btree")
//!     .queries(500)
//!     .run()
//!     .unwrap();
//!
//! let rmi = report.index("rmi").unwrap();
//! let btree = report.index("btree").unwrap();
//! assert!(rmi.all_members_found && btree.all_members_found);
//! // Poisoning hurts the learned index, not the B+-tree baseline.
//! assert!(rmi.cost_ratio() > btree.cost_ratio() * 0.99);
//! ```

use lis_core::error::{LisError, Result};
use lis_core::index::{DynIndex, IndexRegistry, Lookup};
use lis_core::keys::KeySet;
use lis_core::metrics::{ratio_loss, LookupCostSummary};
use lis_core::Key;
use lis_defense::{evaluate_defense_campaign, Defense, DefenseOutcome, DefenseReport};
use lis_poison::{Attack, AttackOutcome};
use lis_workloads::{
    domain_for_density, lognormal_keys, normal_keys, realsim, trial_rng, uniform_keys, ResultTable,
    DEFAULT_SEED,
};
use rand::Rng;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;

/// Which keyset the pipeline starts from.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// `n` distinct keys uniform over a domain of density `density`.
    Uniform {
        /// Number of keys.
        n: usize,
        /// Keyset density over the domain, in `(0, 1]`.
        density: f64,
    },
    /// Normal distribution (Figure 8 parameterization).
    Normal {
        /// Number of keys.
        n: usize,
        /// Keyset density over the domain, in `(0, 1]`.
        density: f64,
    },
    /// Log-normal distribution (Figure 6 parameterization).
    LogNormal {
        /// Number of keys.
        n: usize,
        /// Keyset density over the domain, in `(0, 1]`.
        density: f64,
    },
    /// The simulated Miami-Dade salary dataset (Figure 7).
    MiamiSalaries {
        /// Number of keys (capped at the dataset size).
        n: usize,
    },
    /// The simulated OSM school-latitude dataset (Figure 7).
    OsmLatitudes {
        /// Number of keys.
        n: usize,
    },
    /// A caller-supplied keyset (no sampling).
    Fixed(KeySet),
}

impl WorkloadSpec {
    /// Samples the keyset for `(seed, trial)`.
    pub fn sample(&self, seed: u64, trial: u64) -> Result<KeySet> {
        let mut rng = trial_rng(seed, trial);
        match self {
            Self::Uniform { n, density } => {
                uniform_keys(&mut rng, *n, domain_for_density(*n, *density)?)
            }
            Self::Normal { n, density } => {
                normal_keys(&mut rng, *n, domain_for_density(*n, *density)?)
            }
            Self::LogNormal { n, density } => {
                lognormal_keys(&mut rng, *n, domain_for_density(*n, *density)?)
            }
            Self::MiamiSalaries { n } => {
                realsim::miami_salaries_scaled(seed ^ trial, (*n).min(realsim::miami_stats::N))
            }
            Self::OsmLatitudes { n } => realsim::osm_latitudes_scaled(seed ^ trial, *n),
            Self::Fixed(ks) => Ok(ks.clone()),
        }
    }

    /// Short label for report rows.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Uniform { .. } => "uniform",
            Self::Normal { .. } => "normal",
            Self::LogNormal { .. } => "lognormal",
            Self::MiamiSalaries { .. } => "miami-salaries",
            Self::OsmLatitudes { .. } => "osm-latitudes",
            Self::Fixed(_) => "fixed",
        }
    }
}

/// Per-victim measurements of one pipeline run.
#[derive(Debug, Clone)]
pub struct IndexReport {
    /// Registry name of the victim structure.
    pub name: String,
    /// Training loss of the index built on the clean keyset.
    pub clean_loss: f64,
    /// Training loss of the index built on the final (attacked/defended)
    /// keyset.
    pub final_loss: f64,
    /// Lookup-cost summary on the clean build.
    pub clean_cost: LookupCostSummary,
    /// Lookup-cost summary on the final build, over the same probe keys.
    pub final_cost: LookupCostSummary,
    /// Estimated resident bytes of the final build.
    pub memory_bytes: usize,
    /// Estimated resident bytes of the clean build.
    pub clean_memory_bytes: usize,
    /// Whether every probed member key was found in both builds.
    pub all_members_found: bool,
}

impl IndexReport {
    /// Ratio Loss of the victim's model(s): `final / clean`. Model-free
    /// structures (both losses zero) report 1.0 — nothing degraded.
    pub fn loss_ratio(&self) -> f64 {
        if self.final_loss == 0.0 && self.clean_loss == 0.0 {
            return 1.0;
        }
        ratio_loss(self.final_loss, self.clean_loss)
    }

    /// Lookup-cost inflation: mean final cost over mean clean cost.
    pub fn cost_ratio(&self) -> f64 {
        self.final_cost.mean / self.clean_cost.mean.max(f64::MIN_POSITIVE)
    }

    /// Memory inflation: final bytes over clean bytes (the PLA attack's
    /// target metric).
    pub fn memory_ratio(&self) -> f64 {
        self.memory_bytes as f64 / (self.clean_memory_bytes as f64).max(1.0)
    }
}

/// Everything one pipeline run produced.
#[derive(Debug)]
pub struct PipelineReport {
    /// Workload label.
    pub workload: String,
    /// The sampled clean keyset.
    pub clean: KeySet,
    /// Attack name, when an attack ran.
    pub attack_name: Option<String>,
    /// The attack's outcome, when one ran.
    pub attack: Option<AttackOutcome>,
    /// Defense name, when a defense ran.
    pub defense_name: Option<String>,
    /// The defense's outcome, when one ran.
    pub defense: Option<DefenseOutcome>,
    /// Ground-truth defense scoring — present whenever both an attack and a
    /// defense ran, covering insertion, deletion, and mixed campaigns (via
    /// [`evaluate_defense_campaign`]).
    pub defense_report: Option<DefenseReport>,
    /// The keyset the final indexes were built on.
    pub final_keyset: KeySet,
    /// One report per requested index.
    pub indexes: Vec<IndexReport>,
    /// Number of member-key probes per build.
    pub probes: usize,
}

impl PipelineReport {
    /// The report for a named index, if requested.
    pub fn index(&self, name: &str) -> Option<&IndexReport> {
        self.indexes.iter().find(|r| r.name == name)
    }

    /// Renders the per-index measurements as an alignable table.
    pub fn table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "pipeline",
            &[
                "index",
                "clean_loss",
                "final_loss",
                "loss_ratio",
                "clean_cost",
                "final_cost",
                "cost_ratio",
                "mem_bytes",
                "mem_ratio",
                "members_ok",
            ],
        );
        for r in &self.indexes {
            table.push_row([
                r.name.clone(),
                format!("{:.4}", r.clean_loss),
                format!("{:.4}", r.final_loss),
                format!("{:.2}", r.loss_ratio()),
                format!("{:.2}", r.clean_cost.mean),
                format!("{:.2}", r.final_cost.mean),
                format!("{:.2}", r.cost_ratio()),
                r.memory_bytes.to_string(),
                format!("{:.2}", r.memory_ratio()),
                r.all_members_found.to_string(),
            ]);
        }
        table
    }

    /// A multi-line human-readable summary (workload, attack, defense, and
    /// the per-index table).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("workload: {} — {}\n", self.workload, self.clean));
        match (&self.attack_name, &self.attack) {
            (Some(name), Some(a)) => out.push_str(&format!(
                "attack:   {name} — {} inserted, {} removed, ratio loss {:.2}x\n",
                a.inserted.len(),
                a.removed.len(),
                a.ratio_loss()
            )),
            _ => out.push_str("attack:   none\n"),
        }
        match (&self.defense_name, &self.defense) {
            (Some(name), Some(d)) => {
                out.push_str(&format!(
                    "defense:  {name} — removed {} keys",
                    d.removed.len()
                ));
                if let Some(rep) = &self.defense_report {
                    out.push_str(&format!(
                        " (recall {:.0}%, precision {:.0}%, recovery {:.0}%)",
                        100.0 * rep.poison_recall,
                        100.0 * rep.removal_precision,
                        100.0 * rep.recovery()
                    ));
                }
                out.push('\n');
            }
            _ => out.push_str("defense:  none\n"),
        }
        out.push_str(&format!("probes:   {} member keys\n\n", self.probes));
        out.push_str(&self.table().render());
        out
    }
}

/// Builder composing one experiment end to end. See the module docs for an
/// example.
pub struct Pipeline {
    workload: WorkloadSpec,
    seed: u64,
    trial: u64,
    attack: Option<Box<dyn Attack>>,
    defense: Option<Box<dyn Defense>>,
    index_names: Vec<String>,
    registry: IndexRegistry,
    queries: usize,
}

impl Pipeline {
    /// Starts a pipeline over a workload. Defaults: seed
    /// [`DEFAULT_SEED`], trial 0, no attack, no defense, 2,000 probes, the
    /// default index registry, and — until [`Pipeline::index`] is called —
    /// an empty victim list.
    pub fn new(workload: WorkloadSpec) -> Self {
        Self {
            workload,
            seed: DEFAULT_SEED,
            trial: 0,
            attack: None,
            defense: None,
            index_names: Vec::new(),
            registry: IndexRegistry::with_defaults(),
            queries: 2_000,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trial number (independent re-run under the same seed).
    pub fn trial(mut self, trial: u64) -> Self {
        self.trial = trial;
        self
    }

    /// Mounts an attack between workload and index build.
    pub fn attack(mut self, attack: impl Attack + 'static) -> Self {
        self.attack = Some(Box::new(attack));
        self
    }

    /// Runs a defense over the attacked keyset before the index build.
    pub fn defense(mut self, defense: impl Defense + 'static) -> Self {
        self.defense = Some(Box::new(defense));
        self
    }

    /// Adds a victim index by registry name (callable repeatedly).
    pub fn index(mut self, name: &str) -> Self {
        self.index_names.push(name.to_string());
        self
    }

    /// Adds several victim indexes by registry name.
    pub fn indexes<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.index_names.extend(names.into_iter().map(String::from));
        self
    }

    /// Replaces the index registry (to supply custom configurations).
    pub fn registry(mut self, registry: IndexRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Sets the number of member-key probes per index build. Must be
    /// non-zero — [`Pipeline::run`] rejects a zero-probe pipeline with
    /// [`LisError::Invariant`] instead of silently probing anyway.
    pub fn queries(mut self, count: usize) -> Self {
        self.queries = count;
        self
    }

    /// Runs the composition: sample → attack → defend → build → measure.
    ///
    /// Per-victim builds and measurements run concurrently on scoped
    /// threads (every structure in the workspace is `Send + Sync`), and
    /// *within* each victim the model-based builds fan their own training
    /// out too (RMI leaf fits, deep-RMI stage fits — see
    /// [`lis_core::par`]). Each build is measured with one batched lookup
    /// sweep over the probes, and a panicking victim build surfaces as
    /// [`LisError::Invariant`] instead of crashing the run.
    pub fn run(self) -> Result<PipelineReport> {
        if self.index_names.is_empty() {
            return Err(LisError::Invariant(
                "pipeline needs at least one index (call .index(name))".into(),
            ));
        }
        if self.queries == 0 {
            return Err(LisError::Invariant(
                "pipeline needs at least one probe (queries(0) measures nothing)".into(),
            ));
        }
        let clean = self.workload.sample(self.seed, self.trial)?;

        // Attack.
        let (attack_name, attack_outcome) = match &self.attack {
            Some(attack) => (Some(attack.name().to_string()), Some(attack.run(&clean)?)),
            None => (None, None),
        };
        let suspect = attack_outcome
            .as_ref()
            .map(|a| a.poisoned.clone())
            .unwrap_or_else(|| clean.clone());

        // Defense.
        let (defense_name, defense_outcome) = match &self.defense {
            Some(defense) => (
                Some(defense.name().to_string()),
                Some(defense.sanitize(&suspect)?),
            ),
            None => (None, None),
        };
        let defense_report = match (&defense_outcome, &attack_outcome) {
            (Some(d), Some(a)) => Some(evaluate_defense_campaign(
                &clean,
                &a.inserted,
                &a.removed,
                &d.retained,
            )?),
            _ => None,
        };
        let final_keyset = defense_outcome
            .as_ref()
            .map(|d| d.retained.clone())
            .unwrap_or(suspect);

        let probes = draw_probes(&clean, &final_keyset, self.seed, self.trial, self.queries)?;

        // Build and measure every distinct victim on a bounded scoped
        // thread pool: repeated names are measured once (builds are
        // deterministic, so their rows are identical), and at most
        // available-parallelism workers run — a sharded victim's own
        // fan-out multiplies per *running* worker, not per requested name.
        let mut unique: Vec<&String> = Vec::new();
        for name in &self.index_names {
            if !unique.contains(&name) {
                unique.push(name);
            }
        }
        let measure = |name: &String| -> Result<IndexReport> {
            let clean_idx = self.registry.build(name, &clean)?;
            let final_idx = self.registry.build(name, &final_keyset)?;
            let mut answers = Vec::with_capacity(probes.len());
            let clean_costs = measured_costs(&clean_idx, &probes, &mut answers)?;
            let final_costs = measured_costs(&final_idx, &probes, &mut answers)?;
            Ok(IndexReport {
                name: name.clone(),
                clean_loss: clean_idx.loss(),
                final_loss: final_idx.loss(),
                all_members_found: clean_costs.1 && final_costs.1,
                clean_cost: clean_costs.0,
                final_cost: final_costs.0,
                memory_bytes: final_idx.memory_bytes(),
                clean_memory_bytes: clean_idx.memory_bytes(),
            })
        };
        // A panicking victim build (a buggy custom registry entry, a bug in
        // a structure) is reported as `LisError::Invariant` for that name
        // instead of poisoning the whole run.
        let measure_caught = |name: &String| -> (String, Result<IndexReport>) {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| measure(name)))
                .unwrap_or_else(|payload| {
                    Err(LisError::Invariant(format!(
                        "victim build for '{name}' panicked: {}",
                        panic_message(payload.as_ref())
                    )))
                });
            (name.clone(), result)
        };
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(unique.len())
            .max(1);
        let measured: Vec<(String, Result<IndexReport>)> = if workers <= 1 {
            unique.iter().map(|name| measure_caught(name)).collect()
        } else {
            let per_worker = unique.len().div_ceil(workers);
            // lis-analysis: allow(thread-discipline) — index *training*
            // fan-out: each worker owns a group of whole index builds
            // returning owned reports, outside `par::map_chunks`'s
            // borrowed-slice mapping shape.
            std::thread::scope(|scope| {
                let measure_caught = &measure_caught;
                let handles: Vec<_> = unique
                    .chunks(per_worker)
                    .map(|group| {
                        let handle = scope.spawn(move || {
                            // The victim fan-out owns the parallelism
                            // budget here: builds running on this worker
                            // (RMI leaf fits, sharded shard builds) must
                            // not spawn a second layer of workers.
                            let _guard = lis_core::par::enter_fanout_worker();
                            group
                                .iter()
                                .map(|name| measure_caught(name))
                                .collect::<Vec<_>>()
                        });
                        (group, handle)
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|(group, handle)| match handle.join() {
                        Ok(rows) => rows,
                        // Panics are caught per victim above; a panic that
                        // still escapes the worker (e.g. in the harness
                        // itself) is charged to every name in its group.
                        Err(payload) => {
                            let msg = panic_message(payload.as_ref());
                            group
                                .iter()
                                .map(|name| {
                                    (
                                        (*name).clone(),
                                        Err(LisError::Invariant(format!(
                                            "victim build worker panicked: {msg}"
                                        ))),
                                    )
                                })
                                .collect()
                        }
                    })
                    .collect()
            })
        };
        let mut by_name = HashMap::with_capacity(measured.len());
        for (name, report) in measured {
            by_name.insert(name, report?);
        }
        let indexes: Vec<IndexReport> = self
            .index_names
            .iter()
            .map(|name| by_name.get(name).expect("measured above").clone())
            .collect();

        Ok(PipelineReport {
            workload: self.workload.label().to_string(),
            clean,
            attack_name,
            attack: attack_outcome,
            defense_name,
            defense: defense_outcome,
            defense_report,
            final_keyset,
            indexes,
            probes: probes.len(),
        })
    }
}

/// Draws `count` probe keys, uniformly with replacement, from the
/// legitimate keys that survived the whole pipeline, so both builds must
/// answer them and their costs are comparable.
fn draw_probes(
    clean: &KeySet,
    final_keyset: &KeySet,
    seed: u64,
    trial: u64,
    count: usize,
) -> Result<Vec<Key>> {
    let survivors: Vec<Key> = final_keyset
        .keys()
        .iter()
        .copied()
        .filter(|&k| clean.contains(k))
        .collect();
    if survivors.is_empty() {
        return Err(LisError::Invariant(
            "no legitimate key survived the pipeline".into(),
        ));
    }
    let mut rng = trial_rng(seed ^ 0x51ED_BEEF, trial);
    Ok((0..count)
        .map(|_| survivors[rng.gen_range(0..survivors.len())])
        .collect())
}

/// Looks the probe set up in one batched sweep into `answers` (cleared and
/// refilled, so one buffer serves every build of a victim) and returns the
/// cost summary plus whether every probe was found. An empty probe set is
/// propagated as an error rather than asserted away.
fn measured_costs(
    index: &DynIndex,
    probes: &[Key],
    answers: &mut Vec<Lookup>,
) -> Result<(LookupCostSummary, bool)> {
    index.lookup_batch_into(probes, answers);
    let costs: Vec<usize> = answers.iter().map(|r| r.cost).collect();
    let all_found = answers.iter().all(|r| r.found);
    let summary = LookupCostSummary::from_counts(&costs).ok_or_else(|| {
        LisError::Invariant("lookup batch over an empty probe set has no cost summary".into())
    })?;
    Ok((summary, all_found))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_defense::TrimDefense;
    use lis_poison::{GreedyCdfAttack, PoisonBudget, RemovalAttack};

    #[test]
    fn pipeline_requires_an_index() {
        let err = Pipeline::new(WorkloadSpec::Uniform {
            n: 100,
            density: 0.2,
        })
        .run();
        assert!(err.is_err());
    }

    #[test]
    fn clean_pipeline_reports_unit_ratios() {
        let report = Pipeline::new(WorkloadSpec::Uniform {
            n: 500,
            density: 0.2,
        })
        .seed(3)
        .index("rmi")
        .index("btree")
        .queries(200)
        .run()
        .unwrap();
        assert_eq!(report.indexes.len(), 2);
        for idx in &report.indexes {
            assert!(idx.all_members_found, "{}", idx.name);
            assert!((idx.cost_ratio() - 1.0).abs() < 1e-9, "{}", idx.name);
        }
        assert!(report.attack.is_none() && report.defense.is_none());
    }

    #[test]
    fn attack_inflates_learned_cost_not_btree() {
        let report = Pipeline::new(WorkloadSpec::Uniform {
            n: 2_000,
            density: 0.15,
        })
        .seed(5)
        .attack(GreedyCdfAttack {
            budget: PoisonBudget::keys(200),
        })
        .index("rmi")
        .index("btree")
        .queries(1_000)
        .run()
        .unwrap();
        let rmi = report.index("rmi").unwrap();
        let btree = report.index("btree").unwrap();
        assert!(rmi.all_members_found && btree.all_members_found);
        assert!(
            rmi.loss_ratio() > 1.0,
            "rmi loss ratio {}",
            rmi.loss_ratio()
        );
        // The B+-tree fits no model: loss stays zero either way, and its
        // served cost barely moves.
        assert_eq!(btree.final_loss, 0.0);
        assert!(
            (btree.cost_ratio() - 1.0).abs() < 0.05,
            "btree cost ratio {}",
            btree.cost_ratio()
        );
    }

    #[test]
    fn defense_stage_reports_ground_truth() {
        let n = 800;
        let report = Pipeline::new(WorkloadSpec::Uniform { n, density: 0.1 })
            .seed(6)
            .attack(GreedyCdfAttack {
                budget: PoisonBudget::keys(80),
            })
            .defense(TrimDefense::keys(n))
            .index("rmi")
            .queries(300)
            .run()
            .unwrap();
        let rep = report
            .defense_report
            .expect("insertion attack + defense => report");
        assert!((0.0..=1.0).contains(&rep.poison_recall));
        assert_eq!(report.final_keyset.len(), n);
        assert!(report.render().contains("defense:  trim"));
    }

    #[test]
    fn removal_attack_scores_defense_ground_truth() {
        let report = Pipeline::new(WorkloadSpec::Uniform {
            n: 400,
            density: 0.2,
        })
        .seed(8)
        .attack(RemovalAttack { count: 40 })
        .defense(TrimDefense::fraction(1.0))
        .index("btree")
        .queries(100)
        .run()
        .unwrap();
        // A deletion campaign no longer drops the ground truth on the
        // floor: the report scores the defense against the suspect set the
        // attacker actually produced.
        let rep = report
            .defense_report
            .expect("deletion campaign + defense => report");
        assert_eq!(rep.attack_removed, 40);
        assert_eq!(rep.poison_seen, 0);
        assert_eq!(rep.poison_recall, 1.0);
        assert_eq!(report.final_keyset.len(), 360);
        assert!(report.index("btree").unwrap().all_members_found);
    }

    #[test]
    fn mixed_attack_scores_defense_ground_truth() {
        use lis_poison::MixedAttack;
        let n = 500;
        let report = Pipeline::new(WorkloadSpec::Uniform { n, density: 0.15 })
            .seed(11)
            .attack(MixedAttack {
                budget: PoisonBudget::keys(50),
            })
            .defense(TrimDefense::keys(n))
            .index("rmi")
            .queries(200)
            .run()
            .unwrap();
        let rep = report.defense_report.expect("mixed campaign => report");
        let attack = report.attack.as_ref().unwrap();
        assert_eq!(rep.poison_seen, attack.inserted.len());
        assert_eq!(rep.attack_removed, attack.removed.len());
        assert!((0.0..=1.0).contains(&rep.poison_recall));
        assert!((0.0..=1.0).contains(&rep.removal_precision));
    }

    #[test]
    fn zero_queries_is_an_invariant_error() {
        let err = Pipeline::new(WorkloadSpec::Uniform {
            n: 200,
            density: 0.2,
        })
        .index("btree")
        .queries(0)
        .run();
        assert!(matches!(err, Err(LisError::Invariant(_))), "{err:?}");
    }

    #[test]
    fn sharded_victims_flow_through_the_pipeline() {
        let report = Pipeline::new(WorkloadSpec::Uniform {
            n: 1_000,
            density: 0.2,
        })
        .seed(13)
        .attack(GreedyCdfAttack {
            budget: PoisonBudget::keys(100),
        })
        .index("rmi")
        .index("sharded:rmi:8")
        .queries(500)
        .run()
        .unwrap();
        let sharded = report.index("sharded:rmi:8").unwrap();
        let plain = report.index("rmi").unwrap();
        assert!(sharded.all_members_found && plain.all_members_found);
        assert!(sharded.loss_ratio() > 1.0);
    }

    #[test]
    fn repeated_index_names_measure_once_but_report_per_request() {
        let report = Pipeline::new(WorkloadSpec::Uniform {
            n: 300,
            density: 0.2,
        })
        .index("btree")
        .index("btree")
        .queries(100)
        .run()
        .unwrap();
        assert_eq!(report.indexes.len(), 2);
        assert_eq!(report.indexes[0].clean_cost, report.indexes[1].clean_cost);
        assert_eq!(report.indexes[0].final_cost, report.indexes[1].final_cost);
    }

    #[test]
    fn panicking_victim_build_is_an_error_not_a_crash() {
        let mut registry = IndexRegistry::with_defaults();
        registry.register("panicker", "always panics", |_| {
            panic!("intentional build panic")
        });
        let err = Pipeline::new(WorkloadSpec::Uniform {
            n: 200,
            density: 0.2,
        })
        .registry(registry)
        .index("btree")
        .index("panicker")
        .queries(50)
        .run();
        match err {
            Err(LisError::Invariant(msg)) => {
                assert!(
                    msg.contains("panicker") && msg.contains("intentional build panic"),
                    "{msg}"
                );
            }
            other => panic!("expected Invariant error, got {other:?}"),
        }
    }

    #[test]
    fn every_workload_spec_samples() {
        for spec in [
            WorkloadSpec::Uniform {
                n: 300,
                density: 0.2,
            },
            WorkloadSpec::Normal {
                n: 300,
                density: 0.2,
            },
            WorkloadSpec::LogNormal {
                n: 300,
                density: 0.2,
            },
            WorkloadSpec::MiamiSalaries { n: 300 },
            WorkloadSpec::OsmLatitudes { n: 300 },
        ] {
            let ks = spec.sample(1, 0).unwrap();
            assert_eq!(ks.len(), 300, "{}", spec.label());
        }
    }

    /// Every [`IndexReport`] field, floats as their IEEE bits, one line per
    /// victim.
    fn report_bits(report: &PipelineReport) -> Vec<String> {
        report
            .indexes
            .iter()
            .map(|r| {
                format!(
                    "{} clean={:#x}/{}/{} final={:#x}/{}/{} loss={:#x}/{:#x} mem={}/{} found={}",
                    r.name,
                    r.clean_cost.mean.to_bits(),
                    r.clean_cost.max,
                    r.clean_cost.count,
                    r.final_cost.mean.to_bits(),
                    r.final_cost.max,
                    r.final_cost.count,
                    r.clean_loss.to_bits(),
                    r.final_loss.to_bits(),
                    r.clean_memory_bytes,
                    r.memory_bytes,
                    r.all_members_found,
                )
            })
            .collect()
    }

    const PINNED_SEED: u64 = 9090;

    /// The two benchmark pipeline shapes, shrunk for a debug run: an
    /// Algorithm-2 attack on uniform keys against four victims, and a
    /// trimmed Algorithm-1 attack on log-normal keys.
    fn benchmark_shaped_runs() -> [PipelineReport; 2] {
        use lis_poison::{RmiAttackConfig, RmiPoisonAttack};
        let n = 5_000;
        let rmi = Pipeline::new(WorkloadSpec::Uniform { n, density: 0.1 })
            .seed(PINNED_SEED)
            .attack(RmiPoisonAttack {
                num_models: n / 100,
                cfg: RmiAttackConfig::new(10.0).with_max_exchanges(50),
            })
            .indexes(["rmi", "btree", "pla", "sharded:rmi:8"])
            .queries(3_000)
            .run()
            .unwrap();
        let n = 2_000;
        let greedy = Pipeline::new(WorkloadSpec::LogNormal { n, density: 0.1 })
            .seed(PINNED_SEED)
            .attack(GreedyCdfAttack {
                budget: PoisonBudget::percentage(10.0, n).unwrap(),
            })
            .defense(TrimDefense::keys(n))
            .indexes(["rmi", "btree"])
            .queries(2_000)
            .run()
            .unwrap();
        [rmi, greedy]
    }

    #[test]
    fn reports_are_pinned_bit_for_bit() {
        let [rmi, greedy] = benchmark_shaped_runs();
        assert_eq!(
            report_bits(&rmi),
            [
                "rmi clean=0x402a6098ead65b7a/16/3000 final=0x402c3596de8ca11c/18/3000 \
                 loss=0x40197c6eac5754e6/0x403321bff1f307b0 mem=43048/47328 found=true",
                "btree clean=0x402b395810624dd3/16/3000 final=0x402b3645a1cac083/16/3000 \
                 loss=0x0/0x0 mem=43652/47960 found=true",
                "pla clean=0x402806a7ef9db22d/18/3000 final=0x402803ece2a53491/18/3000 \
                 loss=0x4048283e425aee63/0x404aaa13bc3ad55d mem=40424/44904 found=true",
                "sharded:rmi:8 clean=0x403172015d867c3f/21/3000 final=0x40322e6bdc805762/22/3000 \
                 loss=0x401af2a75102df85/0x4035d388a17c7c70 mem=44800/48800 found=true",
            ]
        );
        assert_eq!(
            report_bits(&greedy),
            [
                "rmi clean=0x4021953f7ced9168/14/2000 final=0x401d3c6a7ef9db23/18/2000 \
                 loss=0x40134d94f9953946/0x4005fdc74d57895a mem=17368/17368 found=true",
                "btree clean=0x40264624dd2f1aa0/13/2000 final=0x402647ef9db22d0e/13/2000 \
                 loss=0x0/0x0 mem=17512/17512 found=true",
            ]
        );
    }

    #[test]
    fn reported_costs_equal_costs_served_through_the_front_end() {
        use lis_server::{ServeConfig, Server};
        use std::sync::Arc;
        let registry = IndexRegistry::with_defaults();
        for report in benchmark_shaped_runs() {
            let probes = draw_probes(
                &report.clean,
                &report.final_keyset,
                PINNED_SEED,
                0,
                report.probes,
            )
            .unwrap();
            for row in &report.indexes {
                let mut all_found = true;
                for (keyset, reported) in [
                    (&report.clean, &row.clean_cost),
                    (&report.final_keyset, &row.final_cost),
                ] {
                    let index = Arc::new(registry.build(&row.name, keyset).unwrap());
                    let server = Server::start(Arc::clone(&index), ServeConfig::offline());
                    let served = server.serve_all(&probes).unwrap();
                    server.shutdown();
                    let costs: Vec<usize> = served.iter().map(|r| r.cost).collect();
                    assert_eq!(
                        LookupCostSummary::from_counts(&costs).as_ref(),
                        Some(reported),
                        "{}",
                        row.name
                    );
                    all_found &= served.iter().all(|r| r.found);
                }
                assert_eq!(row.all_members_found, all_found, "{}", row.name);
            }
        }
    }

    #[test]
    fn fixed_workload_is_passed_through() {
        let ks = KeySet::from_keys((0..200u64).map(|i| i * 5).collect()).unwrap();
        let report = Pipeline::new(WorkloadSpec::Fixed(ks.clone()))
            .index("pla")
            .queries(50)
            .run()
            .unwrap();
        assert_eq!(report.clean, ks);
        assert!(report.index("pla").unwrap().all_members_found);
    }

    /// FNV-1a 64 over a keyset's keys, then its domain's bounds, each as
    /// little-endian bytes.
    fn keyset_digest(ks: &KeySet) -> u64 {
        let domain = ks.domain();
        let words = ks.keys().iter().copied().chain([domain.min, domain.max]);
        words
            .flat_map(|k| k.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }

    #[test]
    fn sampled_keysets_are_pinned_bit_for_bit() {
        let cases = [
            (
                WorkloadSpec::Uniform {
                    n: 1_000_000,
                    density: 0.1,
                },
                4_694_371_759_472_904_749,
            ),
            (
                WorkloadSpec::Normal {
                    n: 100_000,
                    density: 0.1,
                },
                14_845_769_649_835_727_378,
            ),
            (
                WorkloadSpec::LogNormal {
                    n: 10_000,
                    density: 0.1,
                },
                16_760_607_686_243_860_999,
            ),
            (
                WorkloadSpec::LogNormal {
                    n: 100_000,
                    density: 0.01,
                },
                7_278_560_522_842_235_842,
            ),
            (
                WorkloadSpec::MiamiSalaries { n: 5_300 },
                7_137_428_932_799_680_224,
            ),
            (
                WorkloadSpec::OsmLatitudes { n: 302_973 },
                18_077_917_597_631_175_638,
            ),
        ];
        for (spec, pinned) in cases {
            let ks = spec.sample(PINNED_SEED, 0).unwrap();
            assert_eq!(keyset_digest(&ks), pinned, "{spec:?}");
        }
    }
}
