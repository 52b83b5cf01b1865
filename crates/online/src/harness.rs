//! The online serving harness: matched scenarios against the write plane,
//! scored on drift, recall, and collateral.
//!
//! Every scenario runs the same three sequential phases against one
//! online server (`ServerBuilder::start_online`):
//!
//! 1. **pre** — benign closed-loop reads on the bootstrap index; its mean
//!    lookup cost is the scenario's own clean baseline;
//! 2. **campaign** — concurrently: the Algorithm-2 [`Campaign`] streams
//!    poison writes from a single adversarial source id, a fleet of
//!    rotating benign sources trickles legitimate mid-gap inserts, and
//!    benign readers keep measuring (this is where the epoch swaps and
//!    the admission filters earn their keep). The benign-baseline
//!    scenario skips the campaign, isolating the cost of benign churn;
//! 3. **post** — benign reads again; `post mean cost / pre mean cost` is
//!    the **drift** the campaign bought.
//!
//! Because pre and post use the same deterministic cost units
//! (comparisons/probes) rather than wall clock, drift is robust on noisy
//! shared runners; latency percentiles ride along in the report for the
//! full story. Defense **recall** is the fraction of campaign writes
//! turned away; **collateral** is the fraction of benign writes turned
//! away — the two axes every admission filter trades between.

use crate::campaign::{run_campaign, Campaign, CampaignConfig};
use lis_core::error::Result;
use lis_core::index::IndexRegistry;
use lis_core::keys::{Key, KeySet};
use lis_defense::{DensityScreen, SourceRateLimit};
use lis_server::{AdmitAll, ServeConfig, ServeReport, Server, WriteOp, WriteStatus};
use lis_workloads::{domain_for_density, trial_rng, uniform_keys};
use rand::Rng;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Source id the campaign writes under (benign sources rotate 0..16).
const ADVERSARY_SOURCE: u64 = 1_000;
/// Benign writer fleet size.
const BENIGN_SOURCES: u64 = 16;

/// Scale and shape of one [`run_online`] sweep.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Victim keyset size.
    pub keys: usize,
    /// Keyset density `n / |domain|`.
    pub density: f64,
    /// Registry name of the victim index.
    pub index: String,
    /// Campaign poison budget (`φ·100`).
    pub poison_percent: f64,
    /// Benign writes trickled during the campaign phase.
    pub benign_writes: usize,
    /// Closed-loop reads in each of the pre and post phases.
    pub probe_requests: usize,
    /// Concurrent benign reader threads during the campaign phase.
    pub readers: usize,
    /// Serving worker threads.
    pub workers: usize,
    /// RNG seed for workload derivation.
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            keys: 200_000,
            density: 0.1,
            index: "rmi".into(),
            poison_percent: 10.0,
            benign_writes: 2_000,
            probe_requests: 60_000,
            readers: 2,
            workers: 2,
            seed: lis_workloads::DEFAULT_SEED,
        }
    }
}

/// Outcome of one scenario (one server lifetime).
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (`benign`, `undefended`, `defended:<filter>`).
    pub name: String,
    /// Admission policy name the server ran.
    pub admission: String,
    /// Mean lookup cost of the pre (clean) read phase.
    pub pre_mean_cost: f64,
    /// Mean lookup cost of the post (after-campaign) read phase.
    pub post_mean_cost: f64,
    /// Poison keys the offline plan allocated.
    pub poison_planned: usize,
    /// Campaign writes submitted.
    pub poison_submitted: usize,
    /// Campaign writes the server applied.
    pub poison_applied: usize,
    /// Campaign writes admission control rejected.
    pub poison_rejected: usize,
    /// Benign writes submitted during the campaign phase.
    pub benign_submitted: usize,
    /// Benign writes applied.
    pub benign_applied: usize,
    /// Benign writes rejected (collateral numerator).
    pub benign_rejected: usize,
    /// The final server report (epochs, write counters, latency, and the
    /// windowed time series).
    pub serve: ServeReport,
}

impl ScenarioReport {
    /// Serving drift: post-campaign mean lookup cost over the clean
    /// baseline. 1.0 means the campaign bought nothing.
    pub fn drift(&self) -> f64 {
        self.post_mean_cost / self.pre_mean_cost.max(1e-12)
    }

    /// Fraction of campaign writes turned away (0 when no campaign ran).
    pub fn recall(&self) -> f64 {
        self.poison_rejected as f64 / (self.poison_submitted as f64).max(1.0)
    }

    /// Fraction of benign writes turned away.
    pub fn collateral(&self) -> f64 {
        self.benign_rejected as f64 / (self.benign_submitted as f64).max(1.0)
    }
}

/// Outcome of a whole sweep: one [`ScenarioReport`] per scenario.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// The configuration the sweep ran.
    pub config: OnlineConfig,
    /// Per-scenario results, in run order.
    pub scenarios: Vec<ScenarioReport>,
}

impl OnlineReport {
    /// Looks up a scenario by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// Renders the machine-readable `BENCH_online.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"online_serving\",");
        let _ = writeln!(
            out,
            "  \"units\": {{\"mean_cost\": \"key comparisons\", \"latency\": \"nanoseconds\", \"drift\": \"post/pre mean cost\"}},"
        );
        let _ = writeln!(out, "  \"keys\": {},", self.config.keys);
        let _ = writeln!(out, "  \"density\": {},", self.config.density);
        let _ = writeln!(out, "  \"index\": \"{}\",", self.config.index);
        let _ = writeln!(out, "  \"poison_percent\": {},", self.config.poison_percent);
        let _ = writeln!(out, "  \"benign_writes\": {},", self.config.benign_writes);
        let _ = writeln!(out, "  \"probe_requests\": {},", self.config.probe_requests);
        let _ = writeln!(out, "  \"seed\": {},", self.config.seed);
        let _ = writeln!(out, "  \"scenarios\": [");
        for (i, s) in self.scenarios.iter().enumerate() {
            let comma = if i + 1 < self.scenarios.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
            let _ = writeln!(out, "      \"admission\": \"{}\",", s.admission);
            let _ = writeln!(out, "      \"pre_mean_cost\": {:.4},", s.pre_mean_cost);
            let _ = writeln!(out, "      \"post_mean_cost\": {:.4},", s.post_mean_cost);
            let _ = writeln!(out, "      \"drift\": {:.4},", s.drift());
            let _ = writeln!(out, "      \"recall\": {:.4},", s.recall());
            let _ = writeln!(out, "      \"collateral\": {:.4},", s.collateral());
            let _ = writeln!(out, "      \"poison_planned\": {},", s.poison_planned);
            let _ = writeln!(out, "      \"poison_submitted\": {},", s.poison_submitted);
            let _ = writeln!(out, "      \"poison_applied\": {},", s.poison_applied);
            let _ = writeln!(out, "      \"poison_rejected\": {},", s.poison_rejected);
            let _ = writeln!(out, "      \"benign_submitted\": {},", s.benign_submitted);
            let _ = writeln!(out, "      \"benign_applied\": {},", s.benign_applied);
            let _ = writeln!(out, "      \"benign_rejected\": {},", s.benign_rejected);
            let _ = writeln!(out, "      \"epochs\": {},", s.serve.epochs);
            let _ = writeln!(out, "      \"served\": {},", s.serve.served);
            let _ = writeln!(out, "      \"writes_applied\": {},", s.serve.writes_applied);
            let _ = writeln!(
                out,
                "      \"writes_rejected\": {},",
                s.serve.writes_rejected
            );
            let _ = writeln!(out, "      \"writes_failed\": {},", s.serve.writes_failed);
            let _ = writeln!(out, "      \"p50_ns\": {},", s.serve.latency.p50());
            let _ = writeln!(out, "      \"p99_ns\": {},", s.serve.latency.p99());
            let _ = writeln!(out, "      \"window_ms\": {},", s.serve.window.as_millis());
            let _ = writeln!(out, "      \"timeline\": [");
            for (j, w) in s.serve.timeline.iter().enumerate() {
                let wc = if j + 1 < s.serve.timeline.len() {
                    ","
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "        {{\"start_ms\": {}, \"served\": {}, \"mean_cost\": {:.3}, \
                     \"p50_ns\": {}, \"p99_ns\": {}, \"epochs\": {}, \
                     \"writes_applied\": {}, \"writes_rejected\": {}}}{wc}",
                    w.start_ms,
                    w.served,
                    w.mean_cost(),
                    w.p50_ns,
                    w.p99_ns,
                    w.epochs,
                    w.writes_applied,
                    w.writes_rejected
                );
            }
            let _ = writeln!(out, "      ]");
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes [`OnlineReport::to_json`] to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// The sweep's claims as gates; empty when every one holds.
    ///
    /// At every scale: benign churn is never rejected, the undefended
    /// campaign lands ≥ 90 % of its planned budget, each defense keeps
    /// collateral below 20 %, and at least one denies most of the
    /// campaign. From 100,000 keys, where the campaign moves mean cost
    /// reliably: benign churn leaves serving flat (drift < 1.05), the
    /// undefended campaign drifts it, and some defense claws drift back.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let (Some(benign), Some(undefended)) =
            (self.scenario("benign"), self.scenario("undefended"))
        else {
            return vec!["the sweep lacks its benign or undefended scenario".into()];
        };
        if benign.benign_rejected > 0 {
            out.push(format!(
                "benign: admit-all rejected {} benign writes",
                benign.benign_rejected
            ));
        }
        if (undefended.poison_applied as f64) < 0.9 * undefended.poison_planned as f64 {
            out.push(format!(
                "undefended: the campaign landed {}/{} planned writes",
                undefended.poison_applied, undefended.poison_planned
            ));
        }
        let defended: Vec<&ScenarioReport> = SCENARIOS[2..]
            .iter()
            .filter_map(|name| self.scenario(name))
            .collect();
        for s in &defended {
            if s.collateral() >= 0.2 {
                out.push(format!(
                    "{}: benign collateral {:.3} (bound 0.2)",
                    s.name,
                    s.collateral()
                ));
            }
        }
        if !defended
            .iter()
            .any(|s| s.recall() > 0.5 && s.poison_applied < undefended.poison_applied / 2)
        {
            out.push("no admission defense denied most of the campaign".into());
        }
        if self.config.keys >= 100_000 {
            if benign.drift() >= 1.05 {
                out.push(format!(
                    "benign: churn drifted serving cost {:.3}x",
                    benign.drift()
                ));
            }
            if undefended.drift() <= benign.drift() + 0.01 {
                out.push(format!(
                    "undefended: drift {:.4} is not above benign {:.4}",
                    undefended.drift(),
                    benign.drift()
                ));
            }
            let best = defended
                .iter()
                .map(|s| s.drift())
                .fold(f64::INFINITY, f64::min);
            if best >= undefended.drift() {
                out.push(format!(
                    "no defense clawed back drift: best {best:.4} vs undefended {:.4}",
                    undefended.drift()
                ));
            }
        }
        out
    }
}

/// The scenario grid of one sweep, in run order.
pub const SCENARIOS: [&str; 4] = [
    "benign",
    "undefended",
    "defended:rate-limit",
    "defended:density",
];

/// Builds the admission policy a scenario runs under, calibrated on the
/// trusted `bootstrap` snapshot.
fn admission_for(scenario: &str, bootstrap: &KeySet) -> Box<dyn lis_server::AdmissionPolicy> {
    match scenario {
        // The campaign must land hundreds of writes from one identity;
        // 2% of the stream plus a 50-write burst starves it while a
        // 16-source benign fleet stays under its share.
        "defended:rate-limit" => Box::new(SourceRateLimit::new(0.02, 50.0)),
        // Poison packs keys against gap endpoints; a 3-key one-sided
        // window at 4x the bootstrap's average density catches the clump.
        "defended:density" => Box::new(DensityScreen::from_bootstrap(bootstrap, 3, 4.0)),
        _ => Box::new(AdmitAll),
    }
}

/// Mid-gap benign insert keys: each lands halfway inside a random gap of
/// the bootstrap keyset, the least suspicious write a legitimate client
/// can make. Distinct from each other and from all members.
fn benign_insert_keys(ks: &KeySet, count: usize, seed: u64) -> Vec<Key> {
    let keys = ks.keys();
    let mut rng = trial_rng(seed, 7_001);
    let mut out = Vec::with_capacity(count);
    let mut used = std::collections::BTreeSet::new();
    let mut guard = 0usize;
    while out.len() < count && guard < count * 50 {
        guard += 1;
        let i = rng.gen_range(0..keys.len() - 1);
        let (a, b) = (keys[i], keys[i + 1]);
        if b - a < 6 {
            continue;
        }
        let mid = a + (b - a) / 2;
        if used.insert(mid) {
            out.push(mid);
        }
    }
    out
}

/// Runs one scenario end to end; see the module docs for the phases.
fn run_scenario(scenario: &str, cfg: &OnlineConfig) -> Result<ScenarioReport> {
    let domain = domain_for_density(cfg.keys, cfg.density)?;
    let mut rng = trial_rng(cfg.seed, 11);
    let ks = uniform_keys(&mut rng, cfg.keys, domain)?;

    let index_name = cfg.index.clone();
    let registry = IndexRegistry::with_defaults();
    let server = Server::builder(
        ServeConfig::new()
            .workers(cfg.workers)
            .batch(64)
            .deadline(Duration::from_micros(200)),
    )
    .start_online(
        ks.clone(),
        move |ks| registry.build(&index_name, ks),
        admission_for(scenario, &ks),
    )?;

    // Deterministic probe stream: members, uniformly sampled.
    let mut probe_rng = trial_rng(cfg.seed, 13);
    let members = ks.keys();
    let probes: Vec<Key> = (0..cfg.probe_requests)
        .map(|_| members[probe_rng.gen_range(0..members.len())])
        .collect();

    // Phase 1: clean baseline.
    let before = server.stats();
    server.serve_all(&probes)?;
    let after = server.stats();
    let pre_mean_cost = (after.cost_units - before.cost_units) as f64
        / ((after.served - before.served) as f64).max(1.0);

    // Phase 2: campaign + benign writes + concurrent readers.
    let run_attack = scenario != "benign";
    let mut campaign = if run_attack {
        Some(Campaign::plan(
            &ks,
            &CampaignConfig {
                poison_percent: cfg.poison_percent,
                ..CampaignConfig::default()
            },
        )?)
    } else {
        None
    };
    let benign_keys = benign_insert_keys(&ks, cfg.benign_writes, cfg.seed);
    let stop = AtomicBool::new(false);
    let mut benign_applied = 0usize;
    let mut benign_rejected = 0usize;
    // lis-analysis: allow(thread-discipline) — the live harness runs
    // heterogeneous roles (benign readers + an adversarial writer)
    // concurrently against one server; that is role-parallelism, not the
    // data-parallelism `par::map_chunks` provides.
    std::thread::scope(|scope| -> Result<()> {
        // Benign readers measure while the writes land.
        for r in 0..cfg.readers {
            let handle = server.handle();
            let probes = &probes;
            let stop = &stop;
            scope.spawn(move || {
                let mut i = r * 17;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..256 {
                        let key = probes[i % probes.len()];
                        i += 1;
                        if handle.lookup(key).is_err() {
                            return;
                        }
                    }
                }
            });
        }
        // Benign writer fleet: rotating source ids, closed loop.
        let benign = scope.spawn(|| -> Result<(usize, usize)> {
            let handle = server.handle();
            let mut applied = 0;
            let mut rejected = 0;
            for (i, &key) in benign_keys.iter().enumerate() {
                match handle.write(WriteOp::Insert(key), i as u64 % BENIGN_SOURCES)? {
                    WriteStatus::Applied { .. } => applied += 1,
                    WriteStatus::Rejected { .. } => rejected += 1,
                    WriteStatus::Failed { .. } => {}
                }
            }
            Ok((applied, rejected))
        });
        // The campaign, windowed through the same write queue.
        if let Some(campaign) = campaign.as_mut() {
            let handle = server.handle();
            run_campaign(&handle, campaign, ADVERSARY_SOURCE, 32)?;
        }
        let (applied, rejected) = benign.join().expect("benign writer panicked")?;
        benign_applied = applied;
        benign_rejected = rejected;
        stop.store(true, Ordering::Relaxed);
        Ok(())
    })?;

    // Phase 3: post-campaign baseline on the final epoch.
    let before = server.stats();
    server.serve_all(&probes)?;
    let after = server.stats();
    let post_mean_cost = (after.cost_units - before.cost_units) as f64
        / ((after.served - before.served) as f64).max(1.0);

    let serve = server.shutdown();
    let (planned, submitted, applied, rejected) = campaign.as_ref().map_or((0, 0, 0, 0), |c| {
        (c.planned(), c.submitted(), c.applied(), c.rejected())
    });
    Ok(ScenarioReport {
        name: scenario.to_string(),
        admission: match scenario {
            "defended:rate-limit" => "rate-limit",
            "defended:density" => "density-screen",
            _ => "admit-all",
        }
        .to_string(),
        pre_mean_cost,
        post_mean_cost,
        poison_planned: planned,
        poison_submitted: submitted,
        poison_applied: applied,
        poison_rejected: rejected,
        benign_submitted: benign_keys.len(),
        benign_applied,
        benign_rejected,
        serve,
    })
}

/// Runs the full scenario grid (see [`SCENARIOS`]) and returns the sweep
/// report behind `BENCH_online.json`.
pub fn run_online(cfg: &OnlineConfig) -> Result<OnlineReport> {
    let mut scenarios = Vec::with_capacity(SCENARIOS.len());
    for scenario in SCENARIOS {
        scenarios.push(run_scenario(scenario, cfg)?);
    }
    Ok(OnlineReport {
        config: cfg.clone(),
        scenarios,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> OnlineConfig {
        OnlineConfig {
            keys: 4_000,
            benign_writes: 100,
            probe_requests: 2_000,
            readers: 1,
            workers: 2,
            ..OnlineConfig::default()
        }
    }

    #[test]
    fn benign_scenario_stays_flat_and_applies_all_writes() {
        let report = run_scenario("benign", &smoke_config()).unwrap();
        assert_eq!(report.poison_submitted, 0);
        assert_eq!(report.benign_rejected, 0);
        assert!(report.benign_applied > 0);
        assert!(
            report.drift() < 1.15,
            "benign churn should not move serving cost much, drift {:.3}",
            report.drift()
        );
        assert!(report.serve.epochs >= 1);
    }

    #[test]
    fn undefended_campaign_lands_its_budget() {
        let report = run_scenario("undefended", &smoke_config()).unwrap();
        assert!(report.poison_planned > 0);
        assert!(
            report.poison_applied as f64 >= 0.9 * report.poison_planned as f64,
            "undefended campaign should land its budget: {}/{}",
            report.poison_applied,
            report.poison_planned
        );
        assert_eq!(report.poison_rejected, 0);
        assert!(report.serve.epochs >= 1);
    }

    #[test]
    fn density_defense_rejects_most_poison_with_bounded_collateral() {
        let report = run_scenario("defended:density", &smoke_config()).unwrap();
        assert!(
            report.recall() > 0.5,
            "density screen should reject most poison, recall {:.3}",
            report.recall()
        );
        assert!(
            report.collateral() < 0.2,
            "collateral too high: {:.3}",
            report.collateral()
        );
        assert!(
            report.poison_applied < report.poison_planned,
            "defense should deny part of the budget"
        );
    }

    #[test]
    fn json_document_mentions_every_scenario() {
        let report = OnlineReport {
            config: smoke_config(),
            scenarios: vec![run_scenario("benign", &smoke_config()).unwrap()],
        };
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"online_serving\""));
        assert!(json.contains("\"name\": \"benign\""));
        assert!(json.contains("\"timeline\""));
    }
}
