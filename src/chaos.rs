//! The scenario ladder: deterministic fault injection and live poisoning
//! against the running server, scored on availability, correctness,
//! recovery, and the cost the attack bought.
//!
//! Robustness claims are cheap; this module makes them measurable. Each
//! scenario runs one server lifetime under a seeded fault schedule (see
//! `lis_server::fault`) or a live campaign while closed-loop clients ride
//! it out with bounded retry/backoff, and scores three things:
//!
//! * **availability** — the fraction of benign requests answered within
//!   the client retry budget;
//! * **correctness** — every answered request must return the *same
//!   result a fault-free run would* (reads are checked against direct
//!   index answers, writes against final membership);
//! * **recovery** — after the injector is disarmed, how long a clean
//!   pipelined sweep (every probe submitted, then every answer awaited,
//!   no retries) takes to complete, and how many of its probes fail —
//!   there must be none. The durable rungs instead time `recover` plus
//!   the rebuild of a fresh server, and use the sweep only for its
//!   failure count.
//!
//! The ladder (see [`SCENARIOS`]) climbs one fault class at a time:
//! `baseline` (no faults — the control), `worker-panic` (serve workers
//! die mid-batch and are respawned under supervision), `queue-saturation`
//! (injected latency spikes engage deadline-aware load shedding),
//! `delayed-publish` (epoch publication stalls; readers pin the previous
//! epoch), `writer-crash` (the writer dies with writes queued and
//! rebuilds from the authoritative keyset), four attack rungs that play
//! the paper's insert-only adversary against the write plane — `benign`
//! (benign churn alone, the control), `undefended` (an Algorithm-2
//! [`Campaign`] streams its poison beside the churn), and
//! `defended:rate-limit` / `defended:density` (the same campaign against
//! an admission filter) — each scored on **drift** (mean lookup cost after
//! the campaign over before it), **recall** (campaign writes turned away)
//! and **collateral** (benign writes turned away), then `rollback` (an
//! Algorithm-2 poisoning campaign degrades serving cost until the
//! [`CostDriftMonitor`] triggers epoch
//! rollback to the trusted checkpoint), `kill-recover` (a
//! SIGKILL-equivalent storage fault drops the durable write plane
//! mid-load; the server is shut down and *recovered from disk* into a
//! fresh server — every acked write must survive, no un-acked write may
//! half-apply), and `torn-tail` (the process dies inside a WAL append:
//! recovery truncates the torn record and keeps the acked prefix, and a
//! mid-log bit flip is *refused* as corruption rather than replayed).
//!
//! Every schedule derives from the one seed in [`ChaosConfig`], so a
//! failing ladder run reproduces exactly. `lis-cli chaos` writes the
//! resulting report as JSON; its gates (zero mismatches, zero lost or
//! missing acked writes, bounded recovery; availability ≥ 99% and
//! rollback restoring mean lookup cost to ≤ 1.01× the pre-campaign
//! baseline at full scale; the attack rungs' budget, collateral, recall
//! and drift separations) are listed at [`ChaosScenarioReport::violations`]
//! and [`ChaosReport::violations`].

use crate::online::{run_campaign, Campaign, CampaignConfig};
use lis_core::error::{LisError, Result};
use lis_core::index::IndexRegistry;
use lis_core::keys::{Key, KeySet};
use lis_core::scratch::ScratchDir;
use lis_defense::{CostDriftMonitor, DensityScreen, SourceRateLimit};
use lis_server::fault::FaultConfig;
use lis_server::{
    AdmissionPolicy, AdmitAll, Durability, FaultInjector, ResponseTicket, RetryPolicy, ServeConfig,
    ServeReport, Server, ServerHandle, WriteOp, WriteStatus, WriteTicket,
};
use lis_workloads::{domain_for_density, trial_rng, uniform_keys};
use rand::Rng;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The scenario ladder, in run order.
pub const SCENARIOS: [&str; 12] = [
    "baseline",
    "worker-panic",
    "queue-saturation",
    "delayed-publish",
    "writer-crash",
    "benign",
    "undefended",
    "defended:rate-limit",
    "defended:density",
    "rollback",
    "kill-recover",
    "torn-tail",
];

/// Whether `scenario` is one of the four attack rungs, which run no fault
/// schedule and measure drift across a live campaign.
fn is_attack_rung(scenario: &str) -> bool {
    matches!(scenario, "benign" | "undefended") || scenario.starts_with("defended:")
}

/// Source id every campaign writes under (benign writes use 0..16).
const ADVERSARY_SOURCE: u64 = 1_000;
/// In-flight window for pipelined write driving.
const WRITE_WINDOW: usize = 32;
/// Probes in the post-disarm recovery sweep.
const RECOVERY_SWEEP: usize = 2_000;

/// Scale and shape of one [`run_chaos`] ladder.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Victim keyset size.
    pub keys: usize,
    /// Keyset density `n / |domain|`.
    pub density: f64,
    /// Registry name of the victim index.
    pub index: String,
    /// Benign read requests per scenario.
    pub requests: usize,
    /// Benign writes in the write-plane and attack scenarios.
    pub writes: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Serving worker threads.
    pub workers: usize,
    /// Master seed of the keyset, the probe streams and every fault
    /// schedule.
    pub seed: u64,
    /// Poison budget of the attack and rollback scenarios' campaigns
    /// (`φ·100`).
    pub poison_percent: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            keys: 100_000,
            density: 0.1,
            index: "rmi".into(),
            requests: 40_000,
            writes: 512,
            clients: 4,
            workers: 2,
            seed: 0xC4A0_5EED,
            poison_percent: 10.0,
        }
    }
}

/// Outcome of one scenario (one server lifetime under one fault class).
#[derive(Debug, Clone)]
pub struct ChaosScenarioReport {
    /// Scenario name (see [`SCENARIOS`]).
    pub name: String,
    /// Benign read requests attempted.
    pub requests: usize,
    /// Requests answered within the retry budget.
    pub answered: usize,
    /// Answered requests whose result differed from the fault-free
    /// reference (must be zero: faults may cost retries, never wrong
    /// answers).
    pub mismatches: usize,
    /// Retry attempts spent across all requests.
    pub retries: u64,
    /// Writes driven through the pipelined retry loop.
    pub writes_submitted: usize,
    /// Writes acknowledged applied.
    pub writes_acked: usize,
    /// Writes lost to a terminal failure (must be zero).
    pub writes_lost: usize,
    /// Applied writes no longer (or never) visible when verified after
    /// the drive (must be zero). On `rollback` it counts the campaign's
    /// applied keys still visible after the rollback instead, which
    /// quarantine should make zero; that count is not gated.
    pub writes_missing: usize,
    /// Benign writes an admission filter turned away (the collateral
    /// numerator).
    pub writes_rejected: usize,
    /// Poison keys the campaign's offline plan allocated (attack and
    /// rollback scenarios).
    pub poison_planned: usize,
    /// Campaign writes submitted.
    pub poison_submitted: usize,
    /// Campaign writes the server applied.
    pub poison_applied: usize,
    /// Campaign writes admission control rejected.
    pub poison_rejected: usize,
    /// Faults the injector actually fired.
    pub faults_fired: u64,
    /// Post-disarm clean-sweep duration.
    pub recovery_ms: f64,
    /// Failures during the recovery sweep (must be zero).
    pub recovery_failures: usize,
    /// Mean lookup cost before the campaign (attack and rollback
    /// scenarios).
    pub pre_mean_cost: f64,
    /// Mean lookup cost after the campaign (attack scenarios) or after the
    /// rollback (rollback scenario).
    pub post_mean_cost: f64,
    /// WAL ops replayed on top of the snapshot during recovery (durable
    /// scenarios only).
    pub replayed_ops: usize,
    /// Torn-tail bytes recovery truncated (durable scenarios only).
    pub truncated_bytes: u64,
    /// Whether the recovered state matched the live timeline exactly:
    /// base ∪ acked ⊆ recovered ⊆ base ∪ submitted, deterministically
    /// across repeated recoveries (`true` for non-durable scenarios).
    pub recovered_ok: bool,
    /// Whether recovery *refused* the injected mid-log bit flip with a
    /// corruption error (torn-tail scenario only).
    pub corruption_detected: bool,
    /// The server's own final report (shed/restart/rollback counters,
    /// latency, timeline).
    pub serve: ServeReport,
}

impl ChaosScenarioReport {
    /// Fraction of benign requests answered within the retry budget.
    pub fn availability(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        self.answered as f64 / self.requests as f64
    }

    /// Post/pre mean lookup cost: the drift a campaign bought on an
    /// attack rung, what the rollback left of it on `rollback` (1.0 when
    /// the scenario measured no cost phases).
    pub fn drift(&self) -> f64 {
        if self.pre_mean_cost <= 0.0 {
            return 1.0;
        }
        self.post_mean_cost / self.pre_mean_cost
    }

    /// Fraction of campaign writes turned away (0 when no campaign ran).
    pub fn recall(&self) -> f64 {
        self.poison_rejected as f64 / (self.poison_submitted as f64).max(1.0)
    }

    /// Fraction of benign writes turned away.
    pub fn collateral(&self) -> f64 {
        self.writes_rejected as f64 / (self.writes_submitted as f64).max(1.0)
    }

    /// The scenario's own gates, as a list of violations (empty = the
    /// scenario holds). Scale-dependent gates arm only when the run is
    /// big enough to make them statistically meaningful; the always-on
    /// core is *correctness* — zero mismatches, zero lost writes, zero
    /// recovery failures — plus the attack rungs' budgets: `benign`
    /// rejects no benign write, `undefended` lands ≥ 90 % of its plan,
    /// each `defended:*` rung keeps collateral below 20 %, and from
    /// 100,000 keys benign churn leaves serving flat (drift < 1.05).
    pub fn violations(&self, cfg: &ChaosConfig) -> Vec<String> {
        let mut out = Vec::new();
        if self.mismatches > 0 {
            out.push(format!(
                "{}: {} answered requests diverged from the fault-free reference",
                self.name, self.mismatches
            ));
        }
        if self.writes_lost > 0 {
            out.push(format!(
                "{}: {} writes lost to terminal failures",
                self.name, self.writes_lost
            ));
        }
        if self.writes_missing > 0 && self.name != "rollback" {
            out.push(format!(
                "{}: {} acked writes not visible after the drive",
                self.name, self.writes_missing
            ));
        }
        if self.recovery_failures > 0 {
            out.push(format!(
                "{}: {} failures in the post-disarm recovery sweep",
                self.name, self.recovery_failures
            ));
        }
        if self.recovery_ms >= 5_000.0 {
            out.push(format!(
                "{}: recovery took {:.0}ms (bound 5000ms)",
                self.name, self.recovery_ms
            ));
        }
        if matches!(self.name.as_str(), "kill-recover" | "torn-tail") && !self.recovered_ok {
            out.push(format!(
                "{}: recovered state diverges from the live timeline",
                self.name
            ));
        }
        if self.name == "torn-tail" && !self.corruption_detected {
            out.push("torn-tail: mid-log bit-flip corruption was not refused".into());
        }
        match self.name.as_str() {
            "benign" if self.writes_rejected > 0 => out.push(format!(
                "benign: admit-all rejected {} benign writes",
                self.writes_rejected
            )),
            "undefended" if (self.poison_applied as f64) < 0.9 * self.poison_planned as f64 => {
                out.push(format!(
                    "undefended: the campaign landed {}/{} planned writes",
                    self.poison_applied, self.poison_planned
                ));
            }
            name if name.starts_with("defended:") && self.collateral() >= 0.2 => {
                out.push(format!(
                    "{name}: benign collateral {:.3} (bound 0.2)",
                    self.collateral()
                ));
            }
            _ => {}
        }
        if self.name == "benign" && cfg.keys >= 100_000 && self.drift() >= 1.05 {
            out.push(format!(
                "benign: churn drifted serving cost {:.3}x",
                self.drift()
            ));
        }
        let at_scale = cfg.requests >= 10_000 && cfg.keys >= 100_000;
        if at_scale {
            if self.availability() < 0.99 {
                out.push(format!(
                    "{}: availability {:.4} below 0.99",
                    self.name,
                    self.availability()
                ));
            }
            match self.name.as_str() {
                "worker-panic" if self.serve.workers_restarted == 0 => {
                    out.push("worker-panic: no worker was ever restarted".into());
                }
                "queue-saturation" if self.serve.shed == 0 => {
                    out.push("queue-saturation: load shedding never engaged".into());
                }
                "writer-crash" if self.serve.writer_restarts == 0 => {
                    out.push("writer-crash: the writer never crashed".into());
                }
                "rollback" => {
                    if self.serve.rollbacks == 0 {
                        out.push("rollback: drift never triggered a rollback".into());
                    } else if self.drift() > 1.01 {
                        out.push(format!(
                            "rollback: post/pre cost {:.4} above 1.01",
                            self.drift()
                        ));
                    }
                }
                name if name != "baseline" && !is_attack_rung(name) && self.faults_fired == 0 => {
                    out.push(format!("{name}: the fault schedule never fired"));
                }
                _ => {}
            }
        }
        out
    }
}

/// Outcome of a whole ladder: one [`ChaosScenarioReport`] per scenario.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The configuration the ladder ran.
    pub config: ChaosConfig,
    /// Per-scenario results, in run order.
    pub scenarios: Vec<ChaosScenarioReport>,
}

impl ChaosReport {
    /// Looks up a scenario by name.
    pub fn scenario(&self, name: &str) -> Option<&ChaosScenarioReport> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// All gate violations across the ladder (empty = the ladder holds):
    /// every scenario's own (see [`ChaosScenarioReport::violations`]),
    /// then the gates that compare attack rungs, each checked only when
    /// the report holds the rungs it compares. Some defense must deny
    /// most of the campaign (recall > 0.5 and fewer than half the
    /// undefended rung's applied writes). From 100,000 keys, where the
    /// campaign moves mean cost reliably, the undefended drift must
    /// exceed benign's by 0.01 and the best defense must claw drift back
    /// below the undefended one.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .scenarios
            .iter()
            .flat_map(|s| s.violations(&self.config))
            .collect();
        let Some(undefended) = self.scenario("undefended") else {
            return out;
        };
        let defended: Vec<&ChaosScenarioReport> = self
            .scenarios
            .iter()
            .filter(|s| s.name.starts_with("defended:"))
            .collect();
        if !defended.is_empty()
            && !defended
                .iter()
                .any(|s| s.recall() > 0.5 && s.poison_applied < undefended.poison_applied / 2)
        {
            out.push("no admission defense denied most of the campaign".into());
        }
        if self.config.keys >= 100_000 {
            if let Some(benign) = self.scenario("benign") {
                if undefended.drift() <= benign.drift() + 0.01 {
                    out.push(format!(
                        "undefended: drift {:.4} is not above benign {:.4}",
                        undefended.drift(),
                        benign.drift()
                    ));
                }
            }
            let best = defended
                .iter()
                .map(|s| s.drift())
                .fold(f64::INFINITY, f64::min);
            if !defended.is_empty() && best >= undefended.drift() {
                out.push(format!(
                    "no defense clawed back drift: best {best:.4} vs undefended {:.4}",
                    undefended.drift()
                ));
            }
        }
        out
    }

    /// Renders the machine-readable `BENCH_chaos.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"chaos\",");
        let _ = writeln!(
            out,
            "  \"units\": {{\"availability\": \"fraction answered within retry budget\", \
             \"recovery_ms\": \"milliseconds\", \"latency\": \"nanoseconds\", \
             \"mean_cost\": \"key comparisons\", \"drift\": \"post/pre mean cost\"}},"
        );
        let _ = writeln!(out, "  \"keys\": {},", self.config.keys);
        let _ = writeln!(out, "  \"density\": {},", self.config.density);
        let _ = writeln!(out, "  \"index\": \"{}\",", self.config.index);
        let _ = writeln!(out, "  \"requests\": {},", self.config.requests);
        let _ = writeln!(out, "  \"writes\": {},", self.config.writes);
        let _ = writeln!(out, "  \"clients\": {},", self.config.clients);
        let _ = writeln!(out, "  \"workers\": {},", self.config.workers);
        let _ = writeln!(out, "  \"seed\": {},", self.config.seed);
        let _ = writeln!(out, "  \"poison_percent\": {},", self.config.poison_percent);
        let _ = writeln!(out, "  \"scenarios\": [");
        for (i, s) in self.scenarios.iter().enumerate() {
            let comma = if i + 1 < self.scenarios.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
            let _ = writeln!(out, "      \"requests\": {},", s.requests);
            let _ = writeln!(out, "      \"answered\": {},", s.answered);
            let _ = writeln!(out, "      \"availability\": {:.6},", s.availability());
            let _ = writeln!(out, "      \"mismatches\": {},", s.mismatches);
            let _ = writeln!(out, "      \"retries\": {},", s.retries);
            let _ = writeln!(out, "      \"writes_submitted\": {},", s.writes_submitted);
            let _ = writeln!(out, "      \"writes_acked\": {},", s.writes_acked);
            let _ = writeln!(out, "      \"writes_lost\": {},", s.writes_lost);
            let _ = writeln!(out, "      \"writes_missing\": {},", s.writes_missing);
            let _ = writeln!(out, "      \"writes_rejected\": {},", s.writes_rejected);
            let _ = writeln!(out, "      \"poison_planned\": {},", s.poison_planned);
            let _ = writeln!(out, "      \"poison_submitted\": {},", s.poison_submitted);
            let _ = writeln!(out, "      \"poison_applied\": {},", s.poison_applied);
            let _ = writeln!(out, "      \"poison_rejected\": {},", s.poison_rejected);
            let _ = writeln!(out, "      \"faults_fired\": {},", s.faults_fired);
            let _ = writeln!(out, "      \"shed\": {},", s.serve.shed);
            let _ = writeln!(
                out,
                "      \"workers_restarted\": {},",
                s.serve.workers_restarted
            );
            let _ = writeln!(
                out,
                "      \"writer_restarts\": {},",
                s.serve.writer_restarts
            );
            let _ = writeln!(out, "      \"rollbacks\": {},", s.serve.rollbacks);
            let _ = writeln!(
                out,
                "      \"writes_quarantined\": {},",
                s.serve.writes_quarantined
            );
            let _ = writeln!(out, "      \"recovery_ms\": {:.3},", s.recovery_ms);
            let _ = writeln!(out, "      \"recovery_failures\": {},", s.recovery_failures);
            let _ = writeln!(out, "      \"replayed_ops\": {},", s.replayed_ops);
            let _ = writeln!(out, "      \"truncated_bytes\": {},", s.truncated_bytes);
            let _ = writeln!(out, "      \"recovered_ok\": {},", s.recovered_ok);
            let _ = writeln!(
                out,
                "      \"corruption_detected\": {},",
                s.corruption_detected
            );
            let _ = writeln!(out, "      \"pre_mean_cost\": {:.4},", s.pre_mean_cost);
            let _ = writeln!(out, "      \"post_mean_cost\": {:.4},", s.post_mean_cost);
            let _ = writeln!(out, "      \"drift\": {:.4},", s.drift());
            let _ = writeln!(out, "      \"recall\": {:.4},", s.recall());
            let _ = writeln!(out, "      \"collateral\": {:.4},", s.collateral());
            let _ = writeln!(out, "      \"p50_ns\": {},", s.serve.latency.p50());
            let _ = writeln!(out, "      \"p99_ns\": {},", s.serve.latency.p99());
            let _ = writeln!(out, "      \"epochs\": {},", s.serve.epochs);
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

    /// Writes [`ChaosReport::to_json`] to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// What one striped read drive observed.
#[derive(Debug, Default, Clone, Copy)]
struct ReadDrive {
    answered: usize,
    mismatches: usize,
    retries: u64,
}

/// Drives `probes` through closed-loop client threads, each request
/// retried per `policy` with the engine counting every retry — the exact
/// spend of riding out the fault schedule. `expected[i]` is the
/// fault-free membership answer for `probes[i]`.
fn drive_reads(
    server: &Server,
    probes: &[Key],
    expected: &[bool],
    clients: usize,
    policy: &RetryPolicy,
) -> ReadDrive {
    let clients = clients.max(1);
    let mut total = ReadDrive::default();
    // lis-analysis: allow(thread-discipline) — closed-loop benign client
    // fleets are role-parallel load generators against one server, not a
    // data-parallel computation for `par::map_chunks`.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let handle = server.handle();
                scope.spawn(move || {
                    let mut local = ReadDrive::default();
                    let mut i = c;
                    while i < probes.len() {
                        let (key, want) = (probes[i], expected[i]);
                        i += clients;
                        let mut attempt = 0u32;
                        loop {
                            let outcome = submit_once(&handle, key, policy);
                            match outcome {
                                Ok(hit) => {
                                    local.answered += 1;
                                    if hit != want {
                                        local.mismatches += 1;
                                    }
                                    break;
                                }
                                Err(e) if e.is_retryable() && attempt + 1 < policy.attempts => {
                                    attempt += 1;
                                    local.retries += 1;
                                    // lis-analysis: allow(no-prod-sleep) — retry backoff.
                                    std::thread::sleep(policy.backoff(attempt, key));
                                }
                                Err(_) => break,
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // lis-analysis: allow(serve-no-panic) — test/bench harness
            // aggregation; a panicked client is a harness bug.
            let local = handle.join().expect("chaos read client panicked");
            total.answered += local.answered;
            total.mismatches += local.mismatches;
            total.retries += local.retries;
        }
    });
    total
}

/// One submit + wait under the policy's deadline/timeout knobs.
fn submit_once(handle: &ServerHandle, key: Key, policy: &RetryPolicy) -> Result<bool> {
    let ticket = match policy.deadline {
        Some(deadline) => handle.submit_with_deadline(key, deadline)?,
        None => handle.submit(key)?,
    };
    let hit = match policy.wait_timeout {
        Some(timeout) => ticket.wait_timeout(timeout)?,
        None => ticket.wait()?,
    };
    Ok(hit.found)
}

/// What one pipelined write drive observed.
#[derive(Debug, Default, Clone, Copy)]
struct WriteDrive {
    submitted: usize,
    acked: usize,
    rejected: usize,
    lost: usize,
    retries: u64,
}

/// Drives `keys` as inserts with up to [`WRITE_WINDOW`] writes in flight,
/// resubmitting transient failures (writer crashed with the write
/// queued) with backoff. Admission rejections count as rejected, other
/// terminal failures as lost.
fn drive_writes(handle: &ServerHandle, keys: &[Key], policy: &RetryPolicy) -> WriteDrive {
    let mut drive = WriteDrive::default();
    let mut inflight: VecDeque<(Key, u32, WriteTicket)> = VecDeque::new();
    let mut next = 0usize;
    loop {
        while inflight.len() < WRITE_WINDOW && next < keys.len() {
            let key = keys[next];
            next += 1;
            drive.submitted += 1;
            match handle.submit_write(WriteOp::Insert(key), key % 16) {
                Ok(ticket) => inflight.push_back((key, 0, ticket)),
                Err(_) => drive.lost += 1,
            }
        }
        let Some((key, attempt, ticket)) = inflight.pop_front() else {
            break;
        };
        let transient = match ticket.wait() {
            Ok(status) if status.is_transient_failure() => true,
            Ok(WriteStatus::Applied { .. }) => {
                drive.acked += 1;
                false
            }
            Ok(WriteStatus::Rejected { .. }) => {
                drive.rejected += 1;
                false
            }
            Ok(_) => {
                drive.lost += 1;
                false
            }
            Err(e) => {
                if e.is_retryable() {
                    true
                } else {
                    drive.lost += 1;
                    false
                }
            }
        };
        if transient {
            if attempt + 1 < policy.attempts {
                drive.retries += 1;
                // lis-analysis: allow(no-prod-sleep) — retry backoff.
                std::thread::sleep(policy.backoff(attempt + 1, key));
                match handle.submit_write(WriteOp::Insert(key), key % 16) {
                    Ok(ticket) => inflight.push_back((key, attempt + 1, ticket)),
                    Err(_) => drive.lost += 1,
                }
            } else {
                drive.lost += 1;
            }
        }
    }
    drive
}

/// Post-disarm clean sweep with *no* retry budget: every probe is
/// submitted first (pipelined, so the batcher fills full batches instead
/// of waiting out its fill deadline once per probe), then each ticket is
/// waited on. Returns (duration, failures) — a recovered server answers
/// everything; a failed submit or wait counts as one failure.
fn recovery_sweep(server: &Server, probes: &[Key]) -> (Duration, usize) {
    let handle = server.handle();
    let started = Instant::now();
    let tickets: Vec<_> = probes
        .iter()
        .take(RECOVERY_SWEEP)
        .map(|&key| handle.submit(key))
        .collect();
    let failures = tickets
        .into_iter()
        .map(|ticket| ticket.and_then(ResponseTicket::wait))
        .filter(Result::is_err)
        .count();
    (started.elapsed(), failures)
}

/// Mid-gap benign insert keys for the write-plane and attack scenarios:
/// each lands halfway inside a random gap of the bootstrap keyset, the
/// least suspicious write a legitimate client can make. Distinct from
/// each other and from every member.
fn benign_insert_keys(ks: &KeySet, count: usize, seed: u64) -> Vec<Key> {
    let keys = ks.keys();
    let mut rng = trial_rng(seed, 9_301);
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

/// Mean lookup cost of serving `probes` once, from server counter deltas.
fn measured_sweep(server: &Server, probes: &[Key]) -> Result<f64> {
    let before = server.stats();
    server.serve_all(probes)?;
    let after = server.stats();
    Ok((after.cost_units - before.cost_units) as f64
        / ((after.served - before.served) as f64).max(1.0))
}

/// Deterministic probe stream plus its fault-free reference answers:
/// mostly members (found) with a salting of misses (not found). The
/// misses are `member + 1`, which never collides with the mid-gap keys
/// [`benign_insert_keys`] produces (those sit ≥ 3 above a member).
fn probe_stream(ks: &KeySet, requests: usize, seed: u64) -> (Vec<Key>, Vec<bool>) {
    let members = ks.keys();
    let mut probe_rng = trial_rng(seed, 19);
    let mut probes = Vec::with_capacity(requests);
    let mut expected = Vec::with_capacity(requests);
    for _ in 0..requests {
        if probe_rng.gen_range(0..16usize) == 0 {
            let miss = members[probe_rng.gen_range(0..members.len())] + 1;
            probes.push(miss);
            expected.push(ks.contains(miss));
        } else {
            let member = members[probe_rng.gen_range(0..members.len())];
            probes.push(member);
            expected.push(true);
        }
    }
    (probes, expected)
}

/// What the kill-aware write driver observed.
#[derive(Debug, Default, Clone)]
struct DurableWriteDrive {
    submitted: usize,
    acked_keys: Vec<Key>,
    lost: usize,
    halted: bool,
}

/// Sequential write driver for the *durable* rungs: one write per flush
/// (maximizing storage fault events), and a retryable error or closed
/// queue means the write plane was killed — the driver halts there
/// instead of counting the remainder as lost, because from the kill
/// onward the contract under test is recovery, not availability. The
/// acked keys are the durability obligation: every one must survive
/// `recover`.
fn drive_writes_durable(handle: &ServerHandle, keys: &[Key]) -> DurableWriteDrive {
    let mut drive = DurableWriteDrive::default();
    for &key in keys {
        drive.submitted += 1;
        let ticket = match handle.submit_write(WriteOp::Insert(key), key % 16) {
            Ok(ticket) => ticket,
            Err(_) => {
                drive.halted = true;
                break;
            }
        };
        match ticket.wait() {
            Ok(WriteStatus::Applied { .. }) => drive.acked_keys.push(key),
            Ok(_) => drive.lost += 1,
            Err(e) if e.is_retryable() => {
                drive.halted = true;
                break;
            }
            Err(_) => drive.lost += 1,
        }
    }
    drive
}

/// The fault schedule of one scenario, derived from the master seed so
/// each scenario's stream is independent but reproducible.
fn faults_for(scenario: &str, seed: u64) -> FaultInjector {
    let cfg = FaultConfig::new(seed ^ scenario.len() as u64);
    match scenario {
        "worker-panic" => FaultInjector::seeded(cfg.worker_panic(0.02)),
        "queue-saturation" => FaultInjector::seeded(cfg.slow_batch(0.3, Duration::from_millis(5))),
        // One scenario for both publication-path delays: stalled flushes
        // and late epoch swaps have the same observable contract (readers
        // pin the previous epoch; no write is lost).
        "delayed-publish" => FaultInjector::seeded(
            cfg.writer_stall(0.3, Duration::from_millis(1))
                .delayed_publish(0.5, Duration::from_millis(2)),
        ),
        // Flushes are far rarer events than batches (writes arrive in
        // micro-batches), so the per-event probability is high to get a
        // handful of crashes per run.
        "writer-crash" => FaultInjector::seeded(cfg.writer_crash(0.5)),
        // The durable rungs drive writes sequentially (one flush per
        // write), so per-flush probabilities are low: the kill should
        // land mid-load with a meaningful acked prefix already on disk,
        // not on the first append.
        "kill-recover" => {
            FaultInjector::seeded(cfg.crash_after_append(0.006).crash_before_append(0.003))
        }
        "torn-tail" => FaultInjector::seeded(cfg.torn_write(0.01)),
        _ => FaultInjector::disabled(),
    }
}

/// The admission policy a scenario runs under, calibrated on the trusted
/// `bootstrap` snapshot; [`AdmitAll`] outside the `defended:*` rungs.
fn admission_for(scenario: &str, bootstrap: &KeySet) -> Box<dyn AdmissionPolicy> {
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

/// Runs one scenario end to end. See the module docs for the phases.
fn run_scenario(scenario: &str, cfg: &ChaosConfig) -> Result<ChaosScenarioReport> {
    if matches!(scenario, "kill-recover" | "torn-tail") {
        return run_durable_scenario(scenario, cfg);
    }
    let domain = domain_for_density(cfg.keys, cfg.density)?;
    let mut rng = trial_rng(cfg.seed, 17);
    let ks = uniform_keys(&mut rng, cfg.keys, domain)?;
    let scenario_requests = if scenario == "queue-saturation" {
        // Saturation runs orders of magnitude slower by design (every
        // batch risks a 5ms spike on a single worker); a shorter stream
        // keeps the ladder's wall clock bounded without weakening the
        // shed/availability gates.
        (cfg.requests / 8).max(512)
    } else {
        cfg.requests
    };
    let attack = is_attack_rung(scenario);
    // A campaign inserts gap endpoints such as `member + 1` — exactly the
    // stream's miss probes — so a miss's answer changes mid-run and
    // cannot be checked: the attack rungs probe members only.
    let (probes, expected) = probe_stream(&ks, scenario_requests, cfg.seed);
    let (probes, expected): (Vec<Key>, Vec<bool>) = probes
        .into_iter()
        .zip(expected)
        .filter(|&(_, member)| member || !attack)
        .unzip();

    let faults = faults_for(scenario, cfg.seed);
    let online = attack || matches!(scenario, "delayed-publish" | "writer-crash" | "rollback");
    let index_name = cfg.index.clone();
    let registry = IndexRegistry::with_defaults();
    let mut serve_cfg = ServeConfig::new()
        .workers(cfg.workers)
        .batch(64)
        .deadline(Duration::from_micros(200))
        .write_batch(WRITE_WINDOW)
        .window(Duration::from_millis(25));
    if scenario == "queue-saturation" {
        // One slow worker, small batches, shallow queue: the estimated
        // wait inflates fast and the deadline admission check has
        // something to push back against.
        serve_cfg = serve_cfg.workers(1).batch(4).queue_depth(16);
    }
    let mut builder = Server::builder(serve_cfg).faults(faults.clone());
    if scenario == "rollback" {
        builder = builder.rollback(Box::new(CostDriftMonitor::new(
            1.02,
            (scenario_requests as u64 / 80).clamp(50, 500),
            3,
        )));
    }
    let server = if online {
        builder.start_online(
            ks.clone(),
            move |ks| registry.build(&index_name, ks),
            admission_for(scenario, &ks),
        )?
    } else {
        builder.start(std::sync::Arc::new(registry.build(&index_name, &ks)?))
    };
    let handle = server.handle();

    let policy = if scenario == "queue-saturation" {
        // The deadline sits below the wait the fault makes the server
        // estimate. Closed-loop clients leave at most `clients - 1`
        // requests queued when one submits, and the observed service
        // time per request is ≈ 0.3 × 5ms ÷ the mean batch (≤ 4), i.e.
        // ≥ 0.375ms: two queued requests already estimate ≥ 0.75ms. A
        // deadline above the ≈ 1–2ms peak estimate would shed one
        // request or none.
        RetryPolicy::new(16)
            .seed(cfg.seed)
            .deadline(Duration::from_micros(500))
            .wait_timeout(Duration::from_millis(500))
            .backoff_bounds(Duration::from_micros(200), Duration::from_millis(20))
    } else {
        RetryPolicy::new(16).seed(cfg.seed)
    };

    let mut pre_mean_cost = 0.0;
    let mut post_mean_cost = 0.0;
    let mut write_drive = WriteDrive::default();
    let mut writes_missing = 0usize;
    let mut campaign = None;
    let read_drive;

    if scenario == "rollback" {
        // Calibration: spread clean reads over enough windows for the
        // drift monitor to fix its baseline.
        let chunk = (probes.len() / 6).max(1);
        let mut cost_sum = 0.0;
        let mut chunks = 0.0f64;
        for part in probes.chunks(chunk) {
            cost_sum += measured_sweep(&server, part)?;
            chunks += 1.0;
            // lis-analysis: allow(no-prod-sleep) — window pacing: spreads the
            // calibration reads over several drift-monitor windows.
            std::thread::sleep(Duration::from_millis(26));
        }
        pre_mean_cost = cost_sum / chunks.max(1.0);
        read_drive = ReadDrive {
            answered: probes.len(),
            mismatches: 0,
            retries: 0,
        };
        // The live Algorithm-2 campaign lands its poison through the
        // serve path; every applied write is provisional post-checkpoint
        // state.
        let campaign = campaign.insert(plan_campaign(&ks, cfg)?);
        run_campaign(&handle, campaign, ADVERSARY_SOURCE, WRITE_WINDOW)?;
        // Keep reading until the drift monitor sees the degraded windows
        // and the writer rolls back (bounded so a broken monitor fails
        // the gate instead of hanging the ladder).
        let detect_deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().rollbacks == 0 && Instant::now() < detect_deadline {
            measured_sweep(&server, &probes[..chunk.min(probes.len())])?;
            // lis-analysis: allow(no-prod-sleep) — window pacing: one probe
            // sweep per drift-monitor window until the rollback lands.
            std::thread::sleep(Duration::from_millis(26));
        }
        // Recovered cost: the quarantined epoch is gone, the checkpoint
        // is back.
        post_mean_cost = measured_sweep(&server, &probes)?;
        // Quarantine *should* make the campaign's writes invisible.
        writes_missing = campaign
            .applied_keys()
            .iter()
            .filter(|&&k| handle.lookup(k).map(|h| h.found).unwrap_or(false))
            .count();
    } else if online {
        // Write-plane rungs: concurrent benign readers while the
        // pipelined writer rides out crashes/stalls. An attack rung
        // brackets the drive with two cost sweeps and, except on
        // `benign`, streams the campaign's poison beside it.
        if attack {
            pre_mean_cost = measured_sweep(&server, &probes)?;
            if scenario != "benign" {
                campaign = Some(plan_campaign(&ks, cfg)?);
            }
        }
        let insert_keys = benign_insert_keys(&ks, cfg.writes, cfg.seed);
        let mut drive_result = ReadDrive::default();
        // lis-analysis: allow(thread-discipline) — role parallelism: a
        // benign write driver, an adversary and a read fleet against one
        // server.
        std::thread::scope(|scope| -> Result<()> {
            let writer = scope.spawn(|| drive_writes(&handle, &insert_keys, &policy));
            let adversary = scope.spawn(|| match campaign.as_mut() {
                Some(campaign) => run_campaign(&handle, campaign, ADVERSARY_SOURCE, WRITE_WINDOW),
                None => Ok(()),
            });
            drive_result = drive_reads(&server, &probes, &expected, cfg.clients, &policy);
            // lis-analysis: allow(serve-no-panic) — harness aggregation.
            write_drive = writer.join().expect("chaos write driver panicked");
            // lis-analysis: allow(serve-no-panic) — harness aggregation.
            adversary.join().expect("chaos campaign driver panicked")
        })?;
        read_drive = drive_result;
        faults.disarm();
        // Every acked write must be durable across writer restarts.
        writes_missing = insert_keys
            .iter()
            .filter(|&&k| !handle.lookup(k).map(|h| h.found).unwrap_or(false))
            .count()
            .saturating_sub(insert_keys.len() - write_drive.acked);
        if attack {
            post_mean_cost = measured_sweep(&server, &probes)?;
        }
    } else {
        read_drive = drive_reads(&server, &probes, &expected, cfg.clients, &policy);
        faults.disarm();
    }

    faults.disarm();
    let (recovery, recovery_failures) = recovery_sweep(&server, &probes);
    let serve = server.shutdown();
    let (poison_planned, poison_submitted, poison_applied, poison_rejected) =
        campaign.as_ref().map_or((0, 0, 0, 0), |c| {
            (c.planned(), c.submitted(), c.applied(), c.rejected())
        });
    Ok(ChaosScenarioReport {
        name: scenario.to_string(),
        requests: probes.len(),
        answered: read_drive.answered,
        mismatches: read_drive.mismatches,
        retries: read_drive.retries + write_drive.retries,
        writes_submitted: write_drive.submitted,
        writes_acked: write_drive.acked,
        writes_lost: write_drive.lost,
        writes_missing,
        writes_rejected: write_drive.rejected,
        poison_planned,
        poison_submitted,
        poison_applied,
        poison_rejected,
        faults_fired: faults.total_fired(),
        recovery_ms: recovery.as_secs_f64() * 1_000.0,
        recovery_failures,
        pre_mean_cost,
        post_mean_cost,
        replayed_ops: 0,
        truncated_bytes: 0,
        recovered_ok: true,
        corruption_detected: false,
        serve,
    })
}

/// Plans the scenario's Algorithm-2 campaign against the bootstrap keyset.
fn plan_campaign(ks: &KeySet, cfg: &ChaosConfig) -> Result<Campaign> {
    Campaign::plan(
        ks,
        &CampaignConfig {
            poison_percent: cfg.poison_percent,
            ..CampaignConfig::default()
        },
    )
}

/// The durable rungs (7 and 8): a storage fault kills the write plane
/// mid-load, the server is torn down, and the authoritative state is
/// recovered *from disk* into a fresh server.
///
/// Phases, both scenarios:
/// 1. **Drive** — an online durable server under the storage fault
///    schedule: a benign read fleet rides alongside a sequential write
///    driver that halts when the kill lands (reads keep serving — the
///    read plane survives the write plane's death).
/// 2. **Recover** — shut the (possibly half-dead) server down, then
///    `recover(dir)` twice (determinism check) and resume a fresh server
///    from the recovered state. `recovery_ms` is recover + rebuild.
/// 3. **Verify** — `recovered_ok` requires base ∪ acked ⊆ recovered ⊆
///    base ∪ submitted: every acked write survived, nothing half-applied,
///    and only driven keys appeared. A clean sweep on the resumed server
///    counts `recovery_failures`.
///
/// `torn-tail` adds phase 4: resume the same directory under
/// `bit_flip(1.0)`, ack a handful of writes (every record flipped on
/// disk), and require `recover` on the live directory to *refuse* with a
/// corruption error — then a clean shutdown checkpoints past the damage
/// and a final recovery must hold those acked writes too.
fn run_durable_scenario(scenario: &str, cfg: &ChaosConfig) -> Result<ChaosScenarioReport> {
    let domain = domain_for_density(cfg.keys, cfg.density)?;
    let mut rng = trial_rng(cfg.seed, 17);
    let ks = uniform_keys(&mut rng, cfg.keys, domain)?;
    let (probes, expected) = probe_stream(&ks, cfg.requests, cfg.seed);
    let scratch = ScratchDir::new(&format!("chaos-{scenario}"))?;
    let dir = scratch.path();
    let faults = faults_for(scenario, cfg.seed);
    let serve_cfg = ServeConfig::new()
        .workers(cfg.workers)
        .batch(64)
        .deadline(Duration::from_micros(200))
        .write_batch(WRITE_WINDOW)
        .window(Duration::from_millis(25));
    let policy = RetryPolicy::new(16).seed(cfg.seed);
    let index_name = cfg.index.clone();
    let registry = IndexRegistry::with_defaults();
    let server = Server::builder(serve_cfg)
        .faults(faults.clone())
        .durability(Durability::dir(dir).snapshot_every((cfg.writes as u64 / 4).max(8)))
        .start_online(
            ks.clone(),
            move |k| registry.build(&index_name, k),
            Box::new(AdmitAll),
        )?;
    let handle = server.handle();
    let insert_keys = benign_insert_keys(&ks, cfg.writes, cfg.seed);
    let mut write_drive = DurableWriteDrive::default();
    let mut read_drive = ReadDrive::default();
    // lis-analysis: allow(thread-discipline) — role parallelism: one
    // write driver and a read fleet against one server.
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| drive_writes_durable(&handle, &insert_keys));
        read_drive = drive_reads(&server, &probes, &expected, cfg.clients, &policy);
        // lis-analysis: allow(serve-no-panic) — harness aggregation.
        write_drive = writer.join().expect("chaos write driver panicked");
    });
    faults.disarm();
    let faults_fired = faults.total_fired();
    let serve = server.shutdown();

    // Recovery. The determinism re-check runs *before* the resumed
    // server bootstraps (bootstrap checkpoints and truncates the WAL).
    let started = Instant::now();
    let rec = lis_server::recover(dir)?;
    let rec_again = lis_server::recover(dir)?;
    let deterministic = rec.keyset.keys() == rec_again.keyset.keys();
    let index_name = cfg.index.clone();
    let registry = IndexRegistry::with_defaults();
    let resumed = Server::builder(serve_cfg)
        .durability(Durability::resume(dir, &rec))
        .start_online(
            rec.keyset.clone(),
            move |k| registry.build(&index_name, k),
            Box::new(AdmitAll),
        )?;
    let recovery = started.elapsed();

    let submitted: std::collections::BTreeSet<Key> = insert_keys.iter().copied().collect();
    let writes_missing = write_drive
        .acked_keys
        .iter()
        .filter(|&&k| !rec.keyset.contains(k))
        .count();
    let base_survives = ks.keys().iter().all(|&k| rec.keyset.contains(k));
    let nothing_foreign = rec
        .keyset
        .keys()
        .iter()
        .all(|&k| ks.contains(k) || submitted.contains(&k));
    let mut recovered_ok = deterministic && base_survives && nothing_foreign;
    let (_, recovery_failures) = recovery_sweep(&resumed, &probes);

    let mut corruption_detected = false;
    let mut writes_submitted = write_drive.submitted;
    let mut writes_acked = write_drive.acked_keys.len();
    if scenario == "torn-tail" {
        // Phase 4: silent media corruption. Every WAL record written from
        // here on is bit-flipped after its checksum was computed;
        // recovery against the live directory must refuse to replay the
        // damage (with ≥ 2 records the first flip is mid-log — the
        // deterministic refusal path, any seed).
        resumed.shutdown();
        let rec2 = lis_server::recover(dir)?;
        let flip_faults =
            FaultInjector::seeded(FaultConfig::new(cfg.seed ^ scenario.len() as u64).bit_flip(1.0));
        let index_name = cfg.index.clone();
        let registry = IndexRegistry::with_defaults();
        let flipped = Server::builder(serve_cfg)
            .faults(flip_faults)
            .durability(Durability::resume(dir, &rec2))
            .start_online(
                rec2.keyset.clone(),
                move |k| registry.build(&index_name, k),
                Box::new(AdmitAll),
            )?;
        let flip_handle = flipped.handle();
        let flip_keys = benign_insert_keys(&rec2.keyset, 4, cfg.seed ^ 0xF11F);
        let mut flip_acked = Vec::new();
        for &key in &flip_keys {
            writes_submitted += 1;
            if flip_handle.write(WriteOp::Insert(key), 2)?.is_applied() {
                writes_acked += 1;
                flip_acked.push(key);
            }
        }
        corruption_detected = matches!(lis_server::recover(dir), Err(LisError::Corruption { .. }));
        // A clean shutdown checkpoints the authoritative keyset past the
        // damaged log; the directory must be recoverable again, acked
        // flips included.
        flipped.shutdown();
        let after = lis_server::recover(dir)?;
        let flips_survive = flip_acked.iter().all(|&k| after.keyset.contains(k));
        let tail_intact = rec2.keyset.keys().iter().all(|&k| after.keyset.contains(k));
        let exact = after.keyset.len() == rec2.keyset.len() + flip_acked.len();
        recovered_ok = recovered_ok && flips_survive && tail_intact && exact;
    } else {
        resumed.shutdown();
    }

    Ok(ChaosScenarioReport {
        name: scenario.to_string(),
        requests: probes.len(),
        answered: read_drive.answered,
        mismatches: read_drive.mismatches,
        retries: read_drive.retries,
        writes_submitted,
        writes_acked,
        writes_lost: write_drive.lost,
        writes_missing,
        writes_rejected: 0,
        poison_planned: 0,
        poison_submitted: 0,
        poison_applied: 0,
        poison_rejected: 0,
        faults_fired,
        recovery_ms: recovery.as_secs_f64() * 1_000.0,
        recovery_failures,
        pre_mean_cost: 0.0,
        post_mean_cost: 0.0,
        replayed_ops: rec.replayed_ops,
        truncated_bytes: rec.truncated_bytes,
        recovered_ok,
        corruption_detected,
        serve,
    })
}

/// Runs the full scenario ladder (see [`SCENARIOS`]) and returns the
/// report behind `BENCH_chaos.json`.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport> {
    let mut scenarios = Vec::with_capacity(SCENARIOS.len());
    for scenario in SCENARIOS {
        scenarios.push(run_scenario(scenario, cfg)?);
    }
    Ok(ChaosReport {
        config: cfg.clone(),
        scenarios,
    })
}

/// Runs a single named scenario from the ladder.
pub fn run_chaos_scenario(scenario: &str, cfg: &ChaosConfig) -> Result<ChaosReport> {
    if !SCENARIOS.contains(&scenario) {
        return Err(LisError::Invariant(format!(
            "unknown chaos scenario '{scenario}' (available: {})",
            SCENARIOS.join(", ")
        )));
    }
    Ok(ChaosReport {
        config: cfg.clone(),
        scenarios: vec![run_scenario(scenario, cfg)?],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> ChaosConfig {
        ChaosConfig {
            keys: 4_000,
            requests: 2_000,
            writes: 128,
            clients: 2,
            workers: 2,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn baseline_is_perfectly_available_and_correct() {
        let report = run_chaos_scenario("baseline", &smoke_config()).unwrap();
        let s = report.scenario("baseline").unwrap();
        assert_eq!(s.answered, s.requests);
        assert_eq!(s.mismatches, 0);
        assert_eq!(s.retries, 0);
        assert_eq!(s.faults_fired, 0);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn worker_panic_scenario_survives_with_retries() {
        let report = run_chaos_scenario("worker-panic", &smoke_config()).unwrap();
        let s = report.scenario("worker-panic").unwrap();
        assert_eq!(s.answered, s.requests, "requests lost under worker deaths");
        assert_eq!(s.mismatches, 0);
        assert!(s.faults_fired >= 1, "schedule never fired");
        assert!(s.serve.workers_restarted >= 1);
        assert_eq!(s.recovery_failures, 0);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn writer_crash_scenario_loses_no_acked_write() {
        // At smoke scale only a handful of flush events happen; this
        // seed's schedule is known to crash several of them.
        let cfg = ChaosConfig {
            seed: 0xDEAD,
            ..smoke_config()
        };
        let report = run_chaos_scenario("writer-crash", &cfg).unwrap();
        let s = report.scenario("writer-crash").unwrap();
        assert_eq!(s.writes_lost, 0);
        assert_eq!(s.writes_missing, 0);
        assert_eq!(s.mismatches, 0);
        assert!(s.serve.writer_restarts >= 1, "crash schedule never fired");
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn kill_recover_scenario_loses_no_acked_write() {
        // Smoke scale drives few flushes; this seed's schedule is known
        // to kill the write plane mid-drive.
        let cfg = ChaosConfig {
            seed: 0xBEEF,
            ..smoke_config()
        };
        let report = run_chaos_scenario("kill-recover", &cfg).unwrap();
        let s = report.scenario("kill-recover").unwrap();
        assert!(s.faults_fired >= 1, "kill schedule never fired");
        assert_eq!(s.serve.writer_restarts, 0, "a kill must not restart");
        assert_eq!(s.writes_missing, 0, "acked write lost across recovery");
        assert_eq!(s.mismatches, 0);
        assert_eq!(s.recovery_failures, 0);
        assert!(s.recovered_ok, "recovered state diverged");
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn torn_tail_scenario_truncates_and_refuses_corruption() {
        let cfg = ChaosConfig {
            seed: 0xBEEF,
            ..smoke_config()
        };
        let report = run_chaos_scenario("torn-tail", &cfg).unwrap();
        let s = report.scenario("torn-tail").unwrap();
        assert!(s.faults_fired >= 1, "torn-write schedule never fired");
        assert!(s.truncated_bytes > 0, "no torn tail was truncated");
        assert!(s.recovered_ok, "recovered state diverged");
        assert!(
            s.corruption_detected,
            "mid-log bit flip must be refused as corruption"
        );
        assert_eq!(s.writes_missing, 0);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn benign_scenario_stays_flat_and_applies_all_writes() {
        let report = run_chaos_scenario("benign", &smoke_config()).unwrap();
        let s = report.scenario("benign").unwrap();
        assert_eq!(s.poison_submitted, 0);
        assert_eq!(s.writes_rejected, 0);
        assert!(s.writes_acked > 0);
        assert!(
            s.drift() < 1.15,
            "benign churn should not move serving cost much, drift {:.3}",
            s.drift()
        );
        assert!(s.serve.epochs >= 1);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn undefended_campaign_lands_its_budget() {
        let report = run_chaos_scenario("undefended", &smoke_config()).unwrap();
        let s = report.scenario("undefended").unwrap();
        assert!(s.poison_planned > 0);
        assert!(
            s.poison_applied as f64 >= 0.9 * s.poison_planned as f64,
            "undefended campaign should land its budget: {}/{}",
            s.poison_applied,
            s.poison_planned
        );
        assert_eq!(s.poison_rejected, 0);
        assert!(s.serve.epochs >= 1);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn density_defense_rejects_most_poison_with_bounded_collateral() {
        let report = run_chaos_scenario("defended:density", &smoke_config()).unwrap();
        let s = report.scenario("defended:density").unwrap();
        assert!(
            s.recall() > 0.5,
            "density screen should reject most poison, recall {:.3}",
            s.recall()
        );
        assert!(
            s.collateral() < 0.2,
            "collateral too high: {:.3}",
            s.collateral()
        );
        assert!(
            s.poison_applied < s.poison_planned,
            "defense should deny part of the budget"
        );
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn attack_gates_compare_only_the_rungs_present() {
        let base = run_chaos_scenario("benign", &smoke_config())
            .unwrap()
            .scenarios
            .remove(0);
        let rung = |name: &str, post: f64, applied: usize, rejected: usize| ChaosScenarioReport {
            name: name.into(),
            pre_mean_cost: 10.0,
            post_mean_cost: post,
            poison_planned: 1_000,
            poison_submitted: applied + rejected,
            poison_applied: applied,
            poison_rejected: rejected,
            ..base.clone()
        };
        let mut report = ChaosReport {
            config: ChaosConfig {
                keys: 100_000,
                ..smoke_config()
            },
            scenarios: vec![rung("undefended", 11.0, 1_000, 0)],
        };
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        report.scenarios.push(rung("benign", 10.0, 0, 0));
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        // A defense that lets most of the campaign land, and its drift.
        report
            .scenarios
            .push(rung("defended:density", 11.0, 900, 100));
        let v = report.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("denied most") && v[1].contains("clawed back"));
        report.scenarios[2] = rung("defended:density", 10.0, 0, 1_000);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        // The campaign bought no more drift than benign churn.
        report.scenarios[0].post_mean_cost = 10.05;
        let v = report.violations();
        assert!(v.len() == 1 && v[0].contains("not above benign"), "{v:?}");
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        assert!(run_chaos_scenario("nope", &smoke_config()).is_err());
    }

    #[test]
    fn json_document_carries_the_gate_inputs() {
        let report = run_chaos_scenario("baseline", &smoke_config()).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"chaos\""));
        assert!(json.contains("\"availability\""));
        assert!(json.contains("\"recovery_ms\""));
        assert!(json.contains("\"timeline\""));
        assert!(json.contains("\"drift\""));
        assert!(json.contains("\"recall\""));
    }
}
