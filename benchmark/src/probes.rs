//! The direct-call probes of traced rounds: one public call of one crate
//! each, timed from outside, feeding the per-layer metrics that no
//! end-to-end phase isolates. They run after the round's phases, so they
//! add no time to any end-to-end sample.

use crate::measure::{Rng, ScratchDir};
use crate::phases::{
    cell_a_attack, cell_a_spec, cell_b_attack, cell_b_defense, cell_b_spec, lookup_pass, Bench,
    Pass, Path, CELL_A_INDEXES, CELL_B_INDEXES,
};
use crate::spec::{self, INDEX_BATCH};
use crate::stream::mid_gap_key;
use crate::world::{Failure, DENSITY, RECORD_OPS};
use lis::core::index::DynIndex;
use lis::core::keys::{Key, KeySet};
use lis::core::search::set_pipeline_depth;
use lis::defense::{Defense, DensityScreen};
use lis::online::{Campaign, CampaignConfig};
use lis::pipeline::WorkloadSpec;
use lis::poison::{
    greedy_poison_lazy, optimal_single_point, rmi_attack, Attack, IncrementalOracle, PoisonBudget,
};
use lis::server::{
    recover, Admission, AdmissionPolicy, BatchPolicy, BatchQueue, DurabilityLevel, DurableStore,
    LatencyHistogram, ServeConfig, Server, WriteOp, WriteStatus,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// WAL records (of `RECORD_OPS` inserts) appended per round and per level.
const WAL_RECORDS: usize = 32;
/// Oracle updates, queue items, histogram samples and planner draws timed
/// per round.
const ORACLE_KEYS: usize = 512;
const QUEUE_ITEMS: usize = 16_384;
const HISTOGRAM_SAMPLES: usize = 65_536;
const CAMPAIGN_DRAWS: usize = 256;

/// State the probes keep between rounds. Built once, after the timed
/// set-ups, in traced runs only.
pub struct Probes {
    poisoned: DynIndex,
    btree: DynIndex,
    sharded: DynIndex,
    oracle: IncrementalOracle,
    oracle_keys: Vec<Key>,
    screen: DensityScreen,
    wal_batch: (ScratchDir, DurableStore),
    wal_none: (ScratchDir, DurableStore),
    /// A store whose directory holds a snapshot of the base keyset and an
    /// empty log: `snapshot()` rewrites it, `recover()` only loads it.
    snapshot: (ScratchDir, DurableStore),
    wal_ops: Vec<WriteOp>,
    campaign_keys: KeySet,
    latencies: Vec<u64>,
    /// Values the set-up of the probes produced once, booked at the end of
    /// the run (the warm-up round discards everything booked before it).
    pub once: Vec<(&'static str, f64)>,
}

fn store(
    label: &str,
    keys: &KeySet,
    level: DurabilityLevel,
) -> Result<(ScratchDir, DurableStore), Failure> {
    let dir = ScratchDir::new(label)?;
    let store = DurableStore::bootstrap(
        dir.path(),
        keys,
        0,
        0,
        level,
        u64::MAX,
        Duration::from_millis(100),
    )?;
    Ok((dir, store))
}

impl Probes {
    pub fn setup(bench: &mut Bench) -> Result<Self, Failure> {
        let world = &bench.world;
        let (base, seed) = (&world.base, world.seed);

        // The poisoned twin of the hot cell: Algorithm 2 at 10 % against
        // the base keyset, merged by one sort instead of per-key inserts.
        let attack = rmi_attack(
            base,
            (base.len() / 100).max(1),
            &crate::phases::alg2_config(),
        )?;
        let mut merged = base.keys().to_vec();
        merged.extend(attack.poison_keys());
        let poisoned = world
            .registry
            .build("rmi", &KeySet::new(merged, base.domain())?)?;
        let btree = world.registry.build("btree", base)?;
        let sharded = world.registry.build("sharded:rmi:8", base)?;

        // Comparisons per lookup on the clean and on the poisoned index,
        // over the same probes: the paper's quantity, exact.
        let probes = &world.hot_probes[..world.sizes.probe_lookups];
        let cost = |index: &DynIndex| {
            let answers = index.lookup_batch(probes);
            answers.iter().map(|a| a.cost).sum::<usize>() as f64 / probes.len() as f64
        };
        let (clean_cost, poisoned_cost) = (cost(&world.hot_index), cost(&poisoned));
        bench.log.checks.exact("core.cost.clean", clean_cost);
        bench.log.checks.exact("core.cost.poisoned", poisoned_cost);
        let once = vec![
            ("core.cost.clean", clean_cost),
            ("core.cost.poisoned", poisoned_cost),
            ("core.cost.inflation", poisoned_cost / clean_cost),
            (
                "core.index.bytes_per_key",
                world.hot_index.memory_bytes() as f64 / base.len() as f64,
            ),
        ];

        let mut rng = Rng::new(seed, 6);
        let mut used = HashSet::new();
        let oracle_keys = (0..ORACLE_KEYS)
            .map(|_| mid_gap_key(&mut rng, world.alg1_keys.keys(), &mut used))
            .collect();
        let wal_ops = (0..RECORD_OPS)
            .map(|_| WriteOp::Insert(mid_gap_key(&mut rng, base.keys(), &mut used)))
            .collect();
        let tiny = KeySet::from_keys((1..=1_000).collect())?;
        Ok(Self {
            oracle: IncrementalOracle::new(&world.alg1_keys),
            oracle_keys,
            screen: DensityScreen::from_bootstrap(base, 3, 4.0),
            wal_batch: store("wal-batch", &tiny, DurabilityLevel::Batch)?,
            wal_none: store("wal-none", &tiny, DurabilityLevel::None)?,
            snapshot: store("snapshot", base, DurabilityLevel::Batch)?,
            wal_ops,
            campaign_keys: WorkloadSpec::Uniform {
                n: world.sizes.campaign_keys,
                density: DENSITY,
            }
            .sample(seed, 3)?,
            latencies: (0..HISTOGRAM_SAMPLES)
                .map(|_| 1_000 + rng.below(2_000_000))
                .collect(),
            poisoned,
            btree,
            sharded,
            once,
        })
    }

    /// Every probe once.
    pub fn round(&mut self, bench: &mut Bench) -> Result<(), Failure> {
        self.builds(bench)?;
        self.lookups(bench);
        self.poison(bench)?;
        self.admission(bench);
        self.queue_and_histogram(bench);
        self.storage(bench)?;
        self.campaign(bench)?;
        self.pipeline_stages(bench)
    }

    fn builds(&mut self, bench: &mut Bench) -> Result<(), Failure> {
        let (w, log) = (&bench.world, &mut bench.log);
        for (span, metric, name) in [
            ("core.build.btree", "core.build.btree_ns_per_key", "btree"),
            (
                "core.build.sharded",
                "core.build.sharded_ns_per_key",
                "sharded:rmi:8",
            ),
        ] {
            let open = log.tracer.begin(span);
            let index = w.registry.build(name, &w.base)?;
            let elapsed = log.tracer.end(open);
            log.push(metric, elapsed.as_nanos() as f64 / index.len() as f64);
        }
        Ok(())
    }

    /// The lookup paths side by side: every hot variant over the same
    /// probes, the hot cell itself first, so that each has a baseline from
    /// the same round.
    fn lookups(&mut self, bench: &mut Bench) {
        let Bench {
            world: w, log, out, ..
        } = bench;
        let hot = &w.hot_probes[..w.sizes.probe_lookups];
        let cold = &w.cold_probes[..w.cold_probes.len().min(w.sizes.probe_lookups)];
        let (rmi, cold_rmi): (&DynIndex, &DynIndex) = (&w.hot_index, &w.cold_index);
        let (poisoned, btree, sharded) = (&self.poisoned, &self.btree, &self.sharded);
        let mut pass = |what: &str, index, probes, batch, path, depth| {
            let metric = spec::metric(&format!("core.lookup.{what}_ns")).name;
            // Depth 0 selects the default pipeline depth; the servers are
            // idle while the probes run, so the global knob is ours.
            let previous = set_pipeline_depth(depth);
            let pass = Pass {
                span: metric.strip_suffix("_ns").unwrap_or(metric),
                metrics: &[metric],
                index,
                probes,
                batch,
                path,
            };
            let cost = lookup_pass(log, out, &pass);
            set_pipeline_depth(previous);
            cost
        };
        use Path::{Batch, Each};
        const N: usize = INDEX_BATCH;
        let cost = pass("rmi_hot", rmi, hot, N, Batch, 0);
        pass("rmi_poisoned_hot", poisoned, hot, N, Batch, 0);
        pass("btree_hot", btree, hot, N, Batch, 0);
        pass("sharded_hot", sharded, hot, N, Batch, 0);
        // Every path through one index must count the same comparisons.
        let same = [
            pass("per_key_hot", rmi, hot, N, Each, 0),
            pass("depth1_hot", rmi, hot, N, Batch, 1),
            pass("batch64", rmi, hot, 64, Batch, 0),
        ]
        .iter()
        .all(|other| other.to_bits() == cost.to_bits());
        pass("per_key_cold", cold_rmi, cold, N, Each, 0);
        pass("depth1_cold", cold_rmi, cold, N, Batch, 1);
        log.checks.require(same, || {
            "lookup cost differs between batch sizes, depths or the per-key path".into()
        });
    }

    fn poison(&mut self, bench: &mut Bench) -> Result<(), Failure> {
        let (keys, log) = (&bench.world.alg1_keys, &mut bench.log);
        let budget = PoisonBudget::keys(bench.world.sizes.alg1_budget);
        let open = log.tracer.begin("poison.greedy_poison_lazy");
        let plan = greedy_poison_lazy(keys, budget)?;
        let elapsed = log.tracer.end(open);
        log.push(
            "poison.greedy_lazy_ns_per_point",
            elapsed.as_nanos() as f64 / plan.keys.len().max(1) as f64,
        );

        let open = log.tracer.begin("poison.optimal_single_point");
        let single = optimal_single_point(keys)?;
        let elapsed = log.tracer.end(open);
        log.checks.require(single.ratio_loss() > 1.0, || {
            "single point does not poison".into()
        });
        log.push("poison.single_point_ms", elapsed.as_secs_f64() * 1e3);

        // Insert then remove the same keys: the oracle ends each round as
        // it began.
        let open = log.tracer.begin("poison.oracle_update");
        for &key in &self.oracle_keys {
            self.oracle.insert(key)?;
        }
        for &key in &self.oracle_keys {
            self.oracle.remove(key)?;
        }
        let elapsed = log.tracer.end(open);
        log.push(
            "poison.oracle_update_ns",
            elapsed.as_nanos() as f64 / (2 * self.oracle_keys.len()) as f64,
        );
        Ok(())
    }

    /// The admission screen on the operations this round's write segment
    /// submitted, against the bootstrap keyset.
    fn admission(&mut self, bench: &mut Bench) {
        let (base, ops, log) = (&bench.world.base, &bench.segment_ops, &mut bench.log);
        let open = log.tracer.begin("defense.admission");
        let rejected = ops
            .iter()
            .filter(|(op, source)| {
                matches!(self.screen.admit(op, *source, base), Admission::Reject(_))
            })
            .count();
        let elapsed = log.tracer.end(open);
        log.push(
            "defense.admission_ns_per_op",
            elapsed.as_nanos() as f64 / ops.len().max(1) as f64,
        );
        // The stream is a function of the seed, so the count of the first
        // traced round repeats exactly; later rounds see later operations.
        if log
            .samples
            .values("defense.admission.rejected", None)
            .is_empty()
        {
            log.push("defense.admission.rejected", rejected as f64);
        }
    }

    fn queue_and_histogram(&mut self, bench: &mut Bench) {
        let log = &mut bench.log;
        let policy = BatchPolicy {
            max_batch: ServeConfig::new().batch,
            deadline: Duration::ZERO,
        };
        let queue = BatchQueue::new(ServeConfig::new().queue_depth);
        let mut batch = Vec::with_capacity(policy.max_batch);
        let mut popped = 0usize;
        let open = log.tracer.begin("server.queue.push_pop");
        for round in 0..QUEUE_ITEMS / policy.max_batch {
            for item in 0..policy.max_batch {
                let _ = queue.push(round * policy.max_batch + item);
            }
            queue.pop_batch_into(policy, &mut batch);
            popped += batch.len();
        }
        let elapsed = log.tracer.end(open);
        log.checks.ops(
            "server.queue",
            QUEUE_ITEMS as u64,
            (QUEUE_ITEMS - popped) as u64,
        );
        log.push(
            "server.queue.push_pop_ns",
            elapsed.as_nanos() as f64 / QUEUE_ITEMS as f64,
        );

        let mut histogram = LatencyHistogram::new();
        let open = log.tracer.begin("server.histogram.record");
        for &value in &self.latencies {
            histogram.record(value);
        }
        let elapsed = log.tracer.end(open);
        log.checks
            .require(histogram.count() == self.latencies.len() as u64, || {
                "histogram lost samples".into()
            });
        log.push(
            "server.histogram.record_ns",
            elapsed.as_nanos() as f64 / self.latencies.len() as f64,
        );
    }

    /// WAL appends with and without the per-batch fsync, a checkpoint of
    /// the base keyset, and a recovery that only loads that checkpoint.
    fn storage(&mut self, bench: &mut Bench) -> Result<(), Failure> {
        let (w, log) = (&bench.world, &mut bench.log);
        for (span, metric, (_, store)) in [
            (
                "server.wal.append_batch",
                "server.wal.append_batch_us",
                &mut self.wal_batch,
            ),
            (
                "server.wal.append_none",
                "server.wal.append_none_us",
                &mut self.wal_none,
            ),
        ] {
            for _ in 0..WAL_RECORDS {
                let open = log.tracer.begin(span);
                store.log_batch(&self.wal_ops, 0, false, false)?;
                let elapsed = log.tracer.end(open);
                log.push(metric, elapsed.as_nanos() as f64 / 1e3);
            }
        }

        let (dir, store) = &mut self.snapshot;
        let open = log.tracer.begin("server.snapshot");
        store.snapshot(&w.base, 0)?;
        let elapsed = log.tracer.end(open);
        log.push("server.snapshot_ms", elapsed.as_secs_f64() * 1e3);

        let open = log.tracer.begin("server.recover.snapshot_load");
        let loaded = recover(dir.path())?;
        let load_ms = log.tracer.end(open).as_secs_f64() * 1e3;
        log.checks
            .require(loaded.replayed_ops == 0 && loaded.keyset == w.base, || {
                "recovering a bare checkpoint did not return the base keyset".into()
            });
        log.push("server.recover.snapshot_load_ms", load_ms);
        // This round's full recovery minus this round's bare load.
        let logged = (w.sizes.recover_records * RECORD_OPS) as f64;
        if let Some(&full_ms) = log.samples.values("recover_ms", Some(true)).last() {
            log.push(
                "server.recover.replay_us_per_op",
                (full_ms - load_ms).max(0.0) * 1e3 / logged,
            );
        }
        Ok(())
    }

    fn campaign(&mut self, bench: &mut Bench) -> Result<(), Failure> {
        let log = &mut bench.log;
        let open = log.tracer.begin("online.campaign_plan");
        let mut campaign = Campaign::plan(&self.campaign_keys, &CampaignConfig::default())?;
        let elapsed = log.tracer.end(open);
        log.push("online.campaign_plan_ms", elapsed.as_secs_f64() * 1e3);

        let (mut busy, mut drawn) = (Duration::ZERO, 0u64);
        for _ in 0..CAMPAIGN_DRAWS {
            let start = Instant::now();
            let key = campaign.next_key();
            busy += start.elapsed();
            let Some(key) = key else { break };
            campaign.ack(key, &WriteStatus::Applied { epoch: 0 });
            drawn += 1;
        }
        log.tracer
            .aggregate("online.campaign_next_key", drawn, busy);
        log.checks
            .require(drawn > 0, || "campaign planned no key".into());
        log.push(
            "online.campaign_next_key_ns",
            busy.as_nanos() as f64 / drawn.max(1) as f64,
        );
        Ok(())
    }

    /// The calls `Pipeline::run` makes for cell A and cell B, one stage at
    /// a time on the same inputs, so that `pipeline_s` has a budget:
    /// sample, attack, defend, build every victim on the clean and on the
    /// final keyset, serve the probes through an offline server.
    fn pipeline_stages(&mut self, bench: &mut Bench) -> Result<(), Failure> {
        let (seed, a, b) = (
            bench.world.seed,
            bench.world.sizes.cell_a_keys,
            bench.world.sizes.cell_b_keys,
        );
        let mut stages = Stages::default();
        let cell_a = Cell {
            spec: cell_a_spec(a),
            attack: &cell_a_attack(a),
            defense: None,
            indexes: &CELL_A_INDEXES,
            queries: a / 2,
        };
        stages.run(bench, seed, &cell_a)?;
        let cell_b = Cell {
            spec: cell_b_spec(b),
            attack: &cell_b_attack(b),
            defense: Some(&cell_b_defense()),
            indexes: &CELL_B_INDEXES,
            queries: b,
        };
        stages.run(bench, seed, &cell_b)?;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        for (metric, value) in [
            ("pipeline.sample_ms", ms(stages.sample)),
            ("pipeline.attack_ms", ms(stages.attack)),
            ("pipeline.defense_ms", ms(stages.defense)),
            ("defense.trim_ms", ms(stages.defense)),
            ("pipeline.build_ms", ms(stages.build)),
            ("pipeline.measure_ms", ms(stages.measure)),
            (
                "workloads.sample_ns_per_key",
                stages.sample.as_nanos() as f64 / (a + b) as f64,
            ),
            (
                "server.serve_all_klps",
                stages.served as f64 / stages.serve_all.as_secs_f64() / 1e3,
            ),
        ] {
            bench.log.push(metric, value);
        }
        Ok(())
    }
}

/// One pipeline cell, as the stage-by-stage replay needs it.
struct Cell<'a> {
    spec: WorkloadSpec,
    attack: &'a dyn Attack,
    defense: Option<&'a dyn Defense>,
    indexes: &'a [&'a str],
    queries: usize,
}

/// Stage times of the two pipeline cells, summed.
#[derive(Default)]
struct Stages {
    sample: Duration,
    attack: Duration,
    defense: Duration,
    build: Duration,
    /// Start an offline server, serve the probes, shut it down.
    measure: Duration,
    /// The `serve_all` calls alone, and the probes they served.
    serve_all: Duration,
    served: usize,
}

impl Stages {
    fn run(&mut self, bench: &mut Bench, seed: u64, cell: &Cell) -> Result<(), Failure> {
        let (registry, log) = (&bench.world.registry, &mut bench.log);
        let open = log.tracer.begin("workloads.sample");
        let clean = cell.spec.sample(seed, 0)?;
        self.sample += log.tracer.end(open);

        let open = log.tracer.begin("poison.attack");
        let outcome = cell.attack.run(&clean)?;
        self.attack += log.tracer.end(open);

        let last = match cell.defense {
            Some(defense) => {
                let open = log.tracer.begin("defense.sanitize");
                let sanitized = defense.sanitize(&outcome.poisoned)?;
                self.defense += log.tracer.end(open);
                sanitized.retained
            }
            None => outcome.poisoned,
        };

        let survivors: Vec<Key> = last
            .keys()
            .iter()
            .copied()
            .filter(|&k| clean.contains(k))
            .collect();
        let mut rng = Rng::new(seed, 7);
        let probes: Vec<Key> = (0..cell.queries)
            .map(|_| survivors[rng.below(survivors.len() as u64) as usize])
            .collect();

        for name in cell.indexes {
            for keys in [&clean, &last] {
                let open = log.tracer.begin("core.build");
                let index = Arc::new(registry.build(name, keys)?);
                self.build += log.tracer.end(open);

                let open = log.tracer.begin("server.offline");
                let server = Server::start(index, ServeConfig::offline());
                let serving = log.tracer.begin("server.serve_all");
                let answers = server.serve_all(&probes)?;
                self.serve_all += log.tracer.end(serving);
                server.shutdown();
                self.measure += log.tracer.end(open);
                self.served += probes.len();
                let missed = answers.iter().filter(|a| !a.found).count();
                log.checks
                    .ops("server.serve_all", probes.len() as u64, missed as u64);
            }
        }
        Ok(())
    }
}
