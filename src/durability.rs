//! The durability benchmark engine behind `lis-cli durability` and the
//! `durability` bench (`BENCH_durability.json`).
//!
//! Four cells, one durable online server lifetime each:
//!
//! * **batch / window / none** — the three [`DurabilityLevel`]s under an
//!   identical pipelined insert load, so the fsync policy's write-path
//!   cost is directly comparable (`writes_per_s`), followed by a
//!   recovery *of the live directory* (before the clean shutdown's final
//!   checkpoint would truncate the WAL) measuring `recover_ms` and
//!   replay throughput;
//! * **kill** — the at-scale kill-and-recover acceptance: a seeded
//!   `crash_after_append` fault kills the write plane mid-load, and the
//!   cell verifies the durability contract across the process boundary —
//!   base ∪ acked ⊆ recovered ⊆ base ∪ submitted, deterministically.
//!
//! Gates (see [`DurabilityReport::violations`]): every cell must recover
//! a state exactly matching the live timeline with zero acked writes
//! lost, recovery must stay under 5 s, and checkpoints must actually
//! happen; at scale the kill cell must additionally have been killed
//! (a schedule that never fires proves nothing).

use lis_core::error::Result;
use lis_core::index::IndexRegistry;
use lis_core::keys::{Key, KeySet};
use lis_core::scratch::ScratchDir;
use lis_server::fault::FaultConfig;
use lis_server::{
    AdmitAll, Durability, DurabilityLevel, FaultInjector, Server, WriteOp, WriteStatus,
};
use lis_workloads::{domain_for_density, trial_rng, uniform_keys};
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// Scale and shape of one [`run_durability`] run.
#[derive(Debug, Clone)]
pub struct DurabilityBenchConfig {
    /// Base keyset size (the snapshot recovery loads).
    pub keys: usize,
    /// Keyset density `n / |domain|`.
    pub density: f64,
    /// Registry name of the served index.
    pub index: String,
    /// Inserts driven through the durable write plane per cell.
    pub writes: usize,
    /// Serving worker threads.
    pub workers: usize,
    /// Fault-schedule seed of the kill cell (`LIS_CHAOS_SEED` overrides).
    pub seed: u64,
}

impl Default for DurabilityBenchConfig {
    fn default() -> Self {
        Self {
            keys: 100_000,
            density: 0.1,
            index: "rmi".into(),
            writes: 2_048,
            workers: 2,
            seed: lis_server::seed_from_env(0xD07A_B1E5),
        }
    }
}

/// Outcome of one cell (one durable server lifetime).
#[derive(Debug, Clone)]
pub struct DurabilityCellReport {
    /// Cell name: the level (`batch` / `window` / `none`) or `kill`.
    pub name: String,
    /// Inserts submitted.
    pub writes_submitted: usize,
    /// Inserts acknowledged applied.
    pub writes_acked: usize,
    /// Wall-clock of the write drive, milliseconds.
    pub write_wall_ms: f64,
    /// Recovery wall-clock (newest snapshot + WAL tail replay), ms.
    pub recover_ms: f64,
    /// WAL records replayed by the recovery.
    pub replayed_records: usize,
    /// WAL ops replayed by the recovery.
    pub replayed_ops: usize,
    /// Torn-tail bytes the recovery truncated.
    pub truncated_bytes: u64,
    /// WAL bytes on disk at recovery time.
    pub wal_bytes: u64,
    /// LSN of the snapshot recovery started from (> 0 once the
    /// checkpoint cadence has engaged).
    pub snapshot_lsn: u64,
    /// Whether the storage fault killed the write plane (kill cell).
    pub killed: bool,
    /// Acked writes missing from the recovered state (must be 0).
    pub lost_acked: usize,
    /// Whether recovered ≡ live: base ∪ acked ⊆ recovered ⊆ base ∪
    /// submitted, stable across a second recovery.
    pub recovered_matches_live: bool,
}

impl DurabilityCellReport {
    /// Acked writes per second over the drive wall-clock.
    pub fn writes_per_s(&self) -> f64 {
        if self.write_wall_ms <= 0.0 {
            return 0.0;
        }
        self.writes_acked as f64 / (self.write_wall_ms / 1_000.0)
    }

    /// Replayed ops per second over the recovery wall-clock.
    pub fn replay_ops_per_s(&self) -> f64 {
        if self.recover_ms <= 0.0 || self.replayed_ops == 0 {
            return 0.0;
        }
        self.replayed_ops as f64 / (self.recover_ms / 1_000.0)
    }
}

/// Outcome of a whole durability run: one cell per level plus the kill.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// The configuration the run used.
    pub config: DurabilityBenchConfig,
    /// Per-cell results, in run order.
    pub cells: Vec<DurabilityCellReport>,
}

impl DurabilityReport {
    /// Looks up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&DurabilityCellReport> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// The run's structural gates, as a list of violations (empty = the
    /// durability contract holds). The correctness core — recovered ≡
    /// live, zero lost acked writes, bounded recovery — is always on;
    /// the kill-engagement gate arms at scale.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.cells {
            if !c.recovered_matches_live {
                out.push(format!(
                    "{}: recovered state diverges from the live timeline",
                    c.name
                ));
            }
            if c.lost_acked > 0 {
                out.push(format!(
                    "{}: {} acked writes lost across recovery",
                    c.name, c.lost_acked
                ));
            }
            if c.recover_ms >= 5_000.0 {
                out.push(format!(
                    "{}: recovery took {:.0}ms (bound 5000ms)",
                    c.name, c.recover_ms
                ));
            }
            if c.snapshot_lsn == 0 && c.name != "kill" {
                out.push(format!("{}: the checkpoint cadence never engaged", c.name));
            }
        }
        let at_scale = self.config.writes >= 1_024 && self.config.keys >= 100_000;
        if at_scale {
            if let Some(kill) = self.cell("kill") {
                if !kill.killed {
                    out.push("kill: the storage fault schedule never fired".into());
                }
            }
        }
        out
    }

    /// Renders the machine-readable `BENCH_durability.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"durability\",");
        let _ = writeln!(
            out,
            "  \"units\": {{\"writes_per_s\": \"acked inserts per second\", \
             \"recover_ms\": \"milliseconds\", \
             \"replay_ops_per_s\": \"WAL ops replayed per second\", \
             \"wal_bytes\": \"bytes\"}},"
        );
        let _ = writeln!(out, "  \"keys\": {},", self.config.keys);
        let _ = writeln!(out, "  \"density\": {},", self.config.density);
        let _ = writeln!(out, "  \"index\": \"{}\",", self.config.index);
        let _ = writeln!(out, "  \"writes\": {},", self.config.writes);
        let _ = writeln!(out, "  \"workers\": {},", self.config.workers);
        let _ = writeln!(out, "  \"seed\": {},", self.config.seed);
        let _ = writeln!(out, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", c.name);
            let _ = writeln!(out, "      \"writes_submitted\": {},", c.writes_submitted);
            let _ = writeln!(out, "      \"writes_acked\": {},", c.writes_acked);
            let _ = writeln!(out, "      \"write_wall_ms\": {:.3},", c.write_wall_ms);
            let _ = writeln!(out, "      \"writes_per_s\": {:.1},", c.writes_per_s());
            let _ = writeln!(out, "      \"recover_ms\": {:.3},", c.recover_ms);
            let _ = writeln!(out, "      \"replayed_records\": {},", c.replayed_records);
            let _ = writeln!(out, "      \"replayed_ops\": {},", c.replayed_ops);
            let _ = writeln!(
                out,
                "      \"replay_ops_per_s\": {:.1},",
                c.replay_ops_per_s()
            );
            let _ = writeln!(out, "      \"truncated_bytes\": {},", c.truncated_bytes);
            let _ = writeln!(out, "      \"wal_bytes\": {},", c.wal_bytes);
            let _ = writeln!(out, "      \"snapshot_lsn\": {},", c.snapshot_lsn);
            let _ = writeln!(out, "      \"killed\": {},", c.killed);
            let _ = writeln!(out, "      \"lost_acked\": {},", c.lost_acked);
            let _ = writeln!(
                out,
                "      \"recovered_matches_live\": {}",
                c.recovered_matches_live
            );
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes [`DurabilityReport::to_json`] to `path`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Waits until the durable directory stops changing. Acks precede the
/// WAL append but the *checkpoint* cadence runs after them, so right
/// after the last ack the writer may still be mid-snapshot (tmp write →
/// rename → WAL truncate → old-snapshot sweep); recovering the live
/// directory during that rotation races. With no writes in flight the
/// writer's residual activity is bounded, so two identical directory
/// observations 50 ms apart mean it has gone quiescent.
fn quiesce(dir: &std::path::Path) {
    let observe = |dir: &std::path::Path| -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| {
                let len = e.metadata().map(|m| m.len()).unwrap_or(0);
                (e.file_name().to_string_lossy().into_owned(), len)
            })
            .collect();
        entries.sort();
        entries
    };
    let started = Instant::now();
    let mut last = observe(dir);
    while started.elapsed() < std::time::Duration::from_secs(5) {
        std::thread::sleep(std::time::Duration::from_millis(50));
        let now = observe(dir);
        let tmp_pending = now.iter().any(|(name, _)| name.ends_with(".tmp"));
        if now == last && !tmp_pending {
            return;
        }
        last = now;
    }
}

/// Mid-gap insert keys, distinct from each other and from every member.
fn insert_keys(ks: &KeySet, count: usize, seed: u64) -> Vec<Key> {
    let keys = ks.keys();
    let mut rng = trial_rng(seed, 7_207);
    let mut out = Vec::with_capacity(count);
    let mut used = BTreeSet::new();
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

/// Runs one cell: durable server up, drive, recover the live directory,
/// verify, shut down.
fn run_cell(
    name: &str,
    level: DurabilityLevel,
    kill: bool,
    ks: &KeySet,
    cfg: &DurabilityBenchConfig,
) -> Result<DurabilityCellReport> {
    let scratch = ScratchDir::new(&format!("durability-bench-{name}"))?;
    let dir = scratch.path();
    let faults = if kill {
        // Sequential drive, one flush per write: a low per-flush
        // probability lands the kill mid-load with a meaty acked prefix.
        FaultInjector::seeded(
            FaultConfig::new(cfg.seed ^ name.len() as u64).crash_after_append(0.004),
        )
    } else {
        FaultInjector::disabled()
    };
    let index_name = cfg.index.clone();
    let registry = IndexRegistry::with_defaults();
    let server = Server::builder(
        lis_server::ServeConfig::new()
            .workers(cfg.workers)
            .write_batch(32),
    )
    .faults(faults)
    .durability(
        Durability::dir(dir)
            .level(level)
            // 2/5 of the drive: two checkpoints engage mid-run and a
            // ~writes/5 WAL tail is left for the replay measurement (a
            // writes/4 cadence would land exactly on the final write
            // and leave nothing to replay).
            .snapshot_every((cfg.writes as u64 * 2 / 5).max(8)),
    )
    .start_online(
        ks.clone(),
        move |k| registry.build(&index_name, k),
        Box::new(AdmitAll),
    )?;
    let handle = server.handle();
    let keys = insert_keys(ks, cfg.writes, cfg.seed);

    // The drive. Kill cells go sequentially (every write its own flush —
    // the fault schedule sees the most events); level cells pipeline so
    // group commit has real micro-batches to amortize the fsync over.
    let started = Instant::now();
    let mut acked: Vec<Key> = Vec::with_capacity(keys.len());
    let mut submitted = 0usize;
    let mut killed = false;
    if kill {
        for &key in &keys {
            submitted += 1;
            let outcome = handle
                .submit_write(WriteOp::Insert(key), key % 16)
                .and_then(|ticket| ticket.wait());
            match outcome {
                Ok(WriteStatus::Applied { .. }) => acked.push(key),
                Ok(_) => {}
                Err(e) if e.is_retryable() => {
                    killed = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
    } else {
        let mut inflight = std::collections::VecDeque::with_capacity(32);
        let mut next = 0usize;
        loop {
            while inflight.len() < 32 && next < keys.len() {
                let key = keys[next];
                next += 1;
                submitted += 1;
                inflight.push_back((key, handle.submit_write(WriteOp::Insert(key), key % 16)?));
            }
            let Some((key, ticket)) = inflight.pop_front() else {
                break;
            };
            if matches!(ticket.wait()?, WriteStatus::Applied { .. }) {
                acked.push(key);
            }
        }
    }
    let write_wall_ms = started.elapsed().as_secs_f64() * 1_000.0;

    // Recover the LIVE directory — before shutdown, whose final clean
    // checkpoint would truncate the WAL and zero the replay being
    // measured. (The kill cell's write plane is already dead; its WAL
    // tail is exactly what the kill left behind.)
    quiesce(dir);
    let wal_bytes = std::fs::metadata(dir.join("wal.log"))
        .map(|m| m.len())
        .unwrap_or(0);
    let recover_started = Instant::now();
    let rec = lis_server::recover(dir)?;
    let recover_ms = recover_started.elapsed().as_secs_f64() * 1_000.0;
    let rec_again = lis_server::recover(dir)?;

    let submitted_set: BTreeSet<Key> = keys.iter().copied().collect();
    let lost_acked = acked.iter().filter(|&&k| !rec.keyset.contains(k)).count();
    let recovered_matches_live = rec.keyset.keys() == rec_again.keyset.keys()
        && ks.keys().iter().all(|&k| rec.keyset.contains(k))
        && rec
            .keyset
            .keys()
            .iter()
            .all(|&k| ks.contains(k) || submitted_set.contains(&k));
    let _ = server.shutdown();
    Ok(DurabilityCellReport {
        name: name.to_string(),
        writes_submitted: submitted,
        writes_acked: acked.len(),
        write_wall_ms,
        recover_ms,
        replayed_records: rec.replayed_records,
        replayed_ops: rec.replayed_ops,
        truncated_bytes: rec.truncated_bytes,
        wal_bytes,
        snapshot_lsn: rec.snapshot_lsn,
        killed,
        lost_acked,
        recovered_matches_live,
    })
}

/// Runs the full durability grid (three levels + the kill cell) and
/// returns the report behind `BENCH_durability.json`.
pub fn run_durability(cfg: &DurabilityBenchConfig) -> Result<DurabilityReport> {
    let domain = domain_for_density(cfg.keys, cfg.density)?;
    let mut rng = trial_rng(cfg.seed, 23);
    let ks = uniform_keys(&mut rng, cfg.keys, domain)?;
    let cells = vec![
        run_cell("batch", DurabilityLevel::Batch, false, &ks, cfg)?,
        run_cell("window", DurabilityLevel::Window, false, &ks, cfg)?,
        run_cell("none", DurabilityLevel::None, false, &ks, cfg)?,
        run_cell("kill", DurabilityLevel::Batch, true, &ks, cfg)?,
    ];
    Ok(DurabilityReport {
        config: cfg.clone(),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> DurabilityBenchConfig {
        DurabilityBenchConfig {
            keys: 4_000,
            writes: 256,
            // This seed's kill schedule is known to fire within 256
            // sequential flushes (determinism makes that a constant).
            seed: 0xF00D,
            ..DurabilityBenchConfig::default()
        }
    }

    #[test]
    fn grid_holds_the_durability_contract_at_smoke_scale() {
        let report = run_durability(&smoke_config()).unwrap();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            assert!(cell.recovered_matches_live, "{} diverged", cell.name);
            assert_eq!(cell.lost_acked, 0, "{} lost acked writes", cell.name);
        }
        let kill = report.cell("kill").unwrap();
        assert!(kill.killed, "kill schedule never fired at this seed");
        assert!(kill.writes_acked < kill.writes_submitted);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn json_document_carries_the_gate_inputs() {
        let report = run_durability(&DurabilityBenchConfig {
            keys: 2_000,
            writes: 64,
            seed: 0xF00D,
            ..DurabilityBenchConfig::default()
        })
        .unwrap();
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"durability\""));
        assert!(json.contains("\"writes_per_s\""));
        assert!(json.contains("\"recover_ms\""));
        assert!(json.contains("\"recovered_matches_live\""));
    }
}
