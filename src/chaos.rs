//! The chaos scenario ladder: deterministic fault injection against the
//! live server, scored on availability, correctness, and recovery.
//!
//! Robustness claims are cheap; this module makes them measurable. Each
//! scenario runs one server lifetime under a seeded fault schedule (see
//! `lis_server::fault`) while closed-loop clients ride out the faults
//! with bounded retry/backoff, and scores three things:
//!
//! * **availability** — the fraction of benign requests answered within
//!   the client retry budget;
//! * **correctness** — every answered request must return the *same
//!   result a fault-free run would* (reads are checked against direct
//!   index answers, writes against final membership);
//! * **recovery** — after the injector is disarmed, how long until a
//!   clean closed-loop sweep completes with zero failures.
//!
//! The ladder (see [`SCENARIOS`]) climbs one fault class at a time:
//! `baseline` (no faults — the control), `worker-panic` (serve workers
//! die mid-batch and are respawned under supervision), `queue-saturation`
//! (injected latency spikes engage deadline-aware load shedding),
//! `delayed-publish` (epoch publication stalls; readers pin the previous
//! epoch), `writer-crash` (the writer dies with writes queued and
//! rebuilds from the authoritative keyset), `rollback` (an
//! Algorithm-2 poisoning campaign degrades serving cost until the
//! [`CostDriftMonitor`](lis_defense::CostDriftMonitor) triggers epoch
//! rollback to the trusted checkpoint), `kill-recover` (a
//! SIGKILL-equivalent storage fault drops the durable write plane
//! mid-load; the server is shut down and *recovered from disk* into a
//! fresh server — every acked write must survive, no un-acked write may
//! half-apply), and `torn-tail` (the process dies inside a WAL append:
//! recovery truncates the torn record and keeps the acked prefix, and a
//! mid-log bit flip is *refused* as corruption rather than replayed).
//!
//! Every schedule derives from one seed (`LIS_CHAOS_SEED` overrides it),
//! so a failing ladder run reproduces exactly. The `chaos` bench commits
//! the resulting `BENCH_chaos.json`; its gates (availability ≥ 99%, zero
//! mismatches, bounded recovery, rollback restoring mean lookup cost to
//! ≤ 1.01× the pre-campaign baseline) arm at full scale and are relaxed
//! for CI smoke runs — see [`ChaosScenarioReport::violations`].

use lis_core::error::{LisError, Result};
use lis_core::index::IndexRegistry;
use lis_core::keys::{Key, KeySet};
use lis_core::scratch::ScratchDir;
use lis_defense::CostDriftMonitor;
use lis_online::{run_campaign, Campaign, CampaignConfig};
use lis_server::fault::FaultConfig;
use lis_server::{
    AdmitAll, Durability, FaultInjector, RetryPolicy, ServeConfig, ServeReport, Server,
    ServerHandle, WriteOp, WriteStatus, WriteTicket,
};
use lis_workloads::{domain_for_density, trial_rng, uniform_keys};
use rand::Rng;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The scenario ladder, in run order.
pub const SCENARIOS: [&str; 8] = [
    "baseline",
    "worker-panic",
    "queue-saturation",
    "delayed-publish",
    "writer-crash",
    "rollback",
    "kill-recover",
    "torn-tail",
];

/// Source id the rollback scenario's campaign writes under.
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
    /// Benign writes in the write-plane scenarios.
    pub writes: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Serving worker threads.
    pub workers: usize,
    /// Master fault-schedule seed (see
    /// [`seed_from_env`](lis_server::seed_from_env) / `LIS_CHAOS_SEED`).
    pub seed: u64,
    /// Poison budget of the rollback scenario's campaign (`φ·100`).
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
            seed: lis_server::seed_from_env(0xC4A0_5EED),
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
    /// the drive (must be zero outside the rollback scenario, where
    /// quarantine makes losing them the *point*).
    pub writes_missing: usize,
    /// Faults the injector actually fired.
    pub faults_fired: u64,
    /// Post-disarm clean-sweep duration.
    pub recovery_ms: f64,
    /// Failures during the recovery sweep (must be zero).
    pub recovery_failures: usize,
    /// Mean lookup cost before the campaign (rollback scenario only).
    pub pre_mean_cost: f64,
    /// Mean lookup cost after recovery (rollback scenario only).
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

    /// Post-recovery cost over the pre-campaign baseline (1.0 when the
    /// scenario measured no cost phases).
    pub fn rollback_ratio(&self) -> f64 {
        if self.pre_mean_cost <= 0.0 {
            return 1.0;
        }
        self.post_mean_cost / self.pre_mean_cost
    }

    /// The ladder's structural gates, as a list of violations (empty =
    /// the scenario holds). Scale-dependent gates arm only when the run
    /// is big enough to make them statistically meaningful; the
    /// always-on core is *correctness*: zero mismatches, zero lost
    /// writes, zero recovery failures.
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
                    } else if self.rollback_ratio() > 1.01 {
                        out.push(format!(
                            "rollback: post/pre cost {:.4} above 1.01",
                            self.rollback_ratio()
                        ));
                    }
                }
                name if name != "baseline" && self.faults_fired == 0 => {
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

    /// All gate violations across the ladder (empty = the ladder holds).
    pub fn violations(&self) -> Vec<String> {
        self.scenarios
            .iter()
            .flat_map(|s| s.violations(&self.config))
            .collect()
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
             \"rollback_ratio\": \"post/pre mean cost\"}},"
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
            let _ = writeln!(out, "      \"rollback_ratio\": {:.4},", s.rollback_ratio());
            let _ = writeln!(out, "      \"p50_ns\": {},", s.serve.latency.p50());
            let _ = writeln!(out, "      \"p99_ns\": {},", s.serve.latency.p99());
            let _ = writeln!(out, "      \"epochs\": {}", s.serve.epochs);
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
    lost: usize,
    retries: u64,
}

/// Drives `keys` as inserts with up to [`WRITE_WINDOW`] writes in flight,
/// resubmitting transient failures (writer crashed with the write
/// queued) with backoff. Terminal failures count as lost.
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

/// Post-disarm clean sweep: closed-loop lookups with *no* retry budget.
/// Returns (duration, failures) — a recovered server answers everything.
fn recovery_sweep(server: &Server, probes: &[Key]) -> (Duration, usize) {
    let handle = server.handle();
    let started = Instant::now();
    let mut failures = 0usize;
    for &key in probes.iter().take(RECOVERY_SWEEP) {
        if handle.lookup(key).is_err() {
            failures += 1;
        }
    }
    (started.elapsed(), failures)
}

/// Mid-gap insert keys for the write-plane scenarios: distinct from each
/// other and from every member.
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
    let (probes, expected) = probe_stream(&ks, scenario_requests, cfg.seed);

    let faults = faults_for(scenario, cfg.seed);
    let online = matches!(scenario, "delayed-publish" | "writer-crash" | "rollback");
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
    let builder = Server::builder(serve_cfg).faults(faults.clone());
    let server = if scenario == "rollback" {
        builder
            .rollback(Box::new(CostDriftMonitor::new(
                1.02,
                (scenario_requests as u64 / 80).clamp(50, 500),
                3,
            )))
            .start_online(
                ks.clone(),
                move |ks| registry.build(&index_name, ks),
                Box::new(AdmitAll),
            )?
    } else if online {
        builder.start_online(
            ks.clone(),
            move |ks| registry.build(&index_name, ks),
            Box::new(AdmitAll),
        )?
    } else {
        builder.start(std::sync::Arc::new(registry.build(&index_name, &ks)?))
    };
    let handle = server.handle();

    let policy = if scenario == "queue-saturation" {
        RetryPolicy::new(16)
            .seed(cfg.seed)
            .deadline(Duration::from_millis(2))
            .wait_timeout(Duration::from_millis(500))
            .backoff_bounds(Duration::from_micros(200), Duration::from_millis(20))
    } else {
        RetryPolicy::new(16).seed(cfg.seed)
    };

    let mut pre_mean_cost = 0.0;
    let mut post_mean_cost = 0.0;
    let mut write_drive = WriteDrive::default();
    let mut writes_missing = 0usize;
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
        let mut campaign = Campaign::plan(
            &ks,
            &CampaignConfig {
                poison_percent: cfg.poison_percent,
                ..CampaignConfig::default()
            },
        )?;
        run_campaign(&handle, &mut campaign, ADVERSARY_SOURCE, WRITE_WINDOW)?;
        write_drive.submitted = campaign.submitted();
        write_drive.acked = campaign.applied();
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
        // Write-plane fault classes: concurrent benign readers while the
        // pipelined writer rides out crashes/stalls.
        let insert_keys = benign_insert_keys(&ks, cfg.writes, cfg.seed);
        let mut drive_result = ReadDrive::default();
        // lis-analysis: allow(thread-discipline) — role parallelism:
        // one write driver and a read fleet against one server.
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| drive_writes(&handle, &insert_keys, &policy));
            drive_result = drive_reads(&server, &probes, &expected, cfg.clients, &policy);
            // lis-analysis: allow(serve-no-panic) — harness aggregation.
            write_drive = writer.join().expect("chaos write driver panicked");
        });
        read_drive = drive_result;
        faults.disarm();
        // Every acked write must be durable across writer restarts.
        writes_missing = insert_keys
            .iter()
            .filter(|&&k| !handle.lookup(k).map(|h| h.found).unwrap_or(false))
            .count()
            .saturating_sub(insert_keys.len() - write_drive.acked);
    } else {
        read_drive = drive_reads(&server, &probes, &expected, cfg.clients, &policy);
        faults.disarm();
    }

    faults.disarm();
    let (recovery, recovery_failures) = recovery_sweep(&server, &probes);
    let serve = server.shutdown();
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
            seed: 0xC4A0_5EED,
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
        assert!(json.contains("\"rollback_ratio\""));
    }
}
