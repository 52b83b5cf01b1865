//! Set-up: every input is generated here from `--seed`, every index is
//! built and every server is started, before the first timed round. The
//! crates under test receive only these generated inputs.

use crate::measure::{cpu_masks, restrict_to_cpus, Checks, Rng, ScratchDir, Tracer};
use crate::spec::{Sizes, WRITE_IN_FLIGHT};
use crate::stream::{mid_gap_key, WriteStream};
use lis::core::index::{DynIndex, IndexRegistry};
use lis::core::keys::{Key, KeySet};
use lis::defense::DensityScreen;
use lis::pipeline::WorkloadSpec;
use lis::poison::{rmi_attack, RmiAttackConfig};
use lis::server::{
    AdmissionChain, Durability, DurabilityLevel, DurableStore, ServeConfig, Server, ServerHandle,
    WriteOp,
};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Density of every uniform keyset (the hotpath bench's, one key per ten
/// slots).
pub const DENSITY: f64 = 0.1;
/// Inserts per WAL record of the deterministic recovery directory.
pub const RECORD_OPS: usize = 32;

/// The read plane's configuration on this two-core host: one worker, the
/// default 64-request batches and 200 µs fill deadline.
pub fn serve_config() -> ServeConfig {
    ServeConfig::new().workers(1)
}

pub type Failure = Box<dyn std::error::Error>;

/// Everything the timed rounds run against.
pub struct World {
    pub sizes: Sizes,
    pub seed: u64,
    pub registry: IndexRegistry,
    /// Uniform base keyset: the hot cell, all three servers, the snapshot
    /// of the recovery directory.
    pub base: KeySet,
    pub hot_index: Arc<DynIndex>,
    pub hot_probes: Vec<Key>,
    pub cold_index: DynIndex,
    pub cold_probes: Vec<Key>,
    /// Read-only server the lone synchronous caller talks to.
    pub lone_server: Option<Server>,
    pub lone: ServerHandle,
    /// Read-only server the pipelined caller saturates. A server of its
    /// own, so that each server's latency histogram and batch counters
    /// describe one kind of traffic.
    pub busy_server: Option<Server>,
    pub busy: ServerHandle,
    /// Durable online server: writes beside reads.
    pub online_server: Option<Server>,
    pub online: ServerHandle,
    pub live_dir: ScratchDir,
    pub stream: WriteStream,
    /// Snapshot of the base keyset plus `recover_records` WAL records.
    pub recover_dir: ScratchDir,
    /// What the first `recover()` of `recover_dir` returned; every later
    /// one must agree with it.
    pub recovered: Option<KeySet>,
    pub alg1_keys: KeySet,
    pub alg2_keys: KeySet,
}

fn uniform(n: usize, seed: u64, trial: u64) -> Result<KeySet, Failure> {
    Ok(WorkloadSpec::Uniform {
        n,
        density: DENSITY,
    }
    .sample(seed, trial)?)
}

/// `n` keys as prefix sums of seeded gaps of 1..=19 (mean 10): the
/// out-of-cache cell is too large for the rejection sampler of
/// `lis_workloads`, and needs no sort.
fn gap_keys(n: usize, rng: &mut Rng) -> Vec<Key> {
    let mut key = 0u64;
    (0..n)
        .map(|_| {
            key += 1 + rng.below(19);
            key
        })
        .collect()
}

impl World {
    pub fn build(
        sizes: &Sizes,
        seed: u64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Result<Self, Failure> {
        let registry = IndexRegistry::with_defaults();

        let span = tracer.begin("workloads.sample");
        let base = uniform(sizes.base_keys, seed, 0)?;
        tracer.end(span);
        let span = tracer.begin("core.build.rmi");
        let hot_index = Arc::new(registry.build("rmi", &base)?);
        tracer.end(span);
        let mut hot_probes = base.keys().to_vec();
        Rng::new(seed, 1).shuffle(&mut hot_probes);
        hot_probes.truncate(sizes.hot_probes.max(sizes.probe_lookups));

        let mut rng = Rng::new(seed, 2);
        let cold_keys = KeySet::from_keys(gap_keys(sizes.cold_keys, &mut rng))?;
        let cold_probes = (0..sizes.cold_probes)
            .map(|_| cold_keys.keys()[rng.below(cold_keys.len() as u64) as usize])
            .collect();
        let span = tracer.begin("core.build.rmi");
        let cold_index = registry.build("rmi", &cold_keys)?;
        tracer.end(span);
        drop(cold_keys);

        // The shared pool first, free to run anywhere; then every server
        // thread is born confined to the servers' CPU (see
        // `restrict_to_cpus`). The callers move to theirs per phase.
        let (_, servers, anywhere) = cpu_masks();
        lis::server::pool::shared();
        restrict_to_cpus(servers);
        let lone_server = Server::start(Arc::clone(&hot_index), serve_config());
        let busy_server = Server::start(Arc::clone(&hot_index), serve_config());

        // The campaign keys the write stream mixes in: Algorithm 2 against
        // the base keyset, with a budget of a tenth of the writes a long
        // run can submit, shuffled so they arrive spread over all models.
        let writes = 100 * sizes.write_segment;
        let span = tracer.begin("poison.rmi_attack");
        let plan = rmi_attack(
            &base,
            (base.len() / 100).max(1),
            &RmiAttackConfig::new(10.0 * writes as f64 / base.len() as f64).with_max_exchanges(64),
        )?;
        tracer.end(span);
        let mut campaign = plan.poison_keys();
        Rng::new(seed, 3).shuffle(&mut campaign);
        let lag = 4 * sizes.write_segment as u64;
        let stream = WriteStream::new(seed, campaign, lag);

        let live_dir = ScratchDir::new("live")?;
        let span = tracer.begin("server.start_online");
        let online_server = {
            let registry = IndexRegistry::with_defaults();
            Server::builder(serve_config().write_batch(WRITE_IN_FLIGHT))
                .durability(
                    Durability::dir(live_dir.path())
                        .level(DurabilityLevel::Batch)
                        .snapshot_every(lag),
                )
                .start_online(
                    base.clone(),
                    move |ks| registry.build("rmi", ks),
                    Box::new(
                        AdmissionChain::new().with(DensityScreen::from_bootstrap(&base, 3, 4.0)),
                    ),
                )?
        };
        tracer.end(span);
        restrict_to_cpus(anywhere);

        // The deterministic recovery directory: its content depends on the
        // seed only, never on how a server batched its writes.
        let recover_dir = ScratchDir::new("recover")?;
        let span = tracer.begin("server.wal.bootstrap");
        let mut store = DurableStore::bootstrap(
            recover_dir.path(),
            &base,
            0,
            0,
            DurabilityLevel::None,
            u64::MAX,
            Duration::from_millis(100),
        )?;
        let mut rng = Rng::new(seed, 5);
        let mut used = HashSet::new();
        for record in 0..sizes.recover_records {
            let ops: Vec<WriteOp> = (0..RECORD_OPS)
                .map(|_| WriteOp::Insert(mid_gap_key(&mut rng, base.keys(), &mut used)))
                .collect();
            store.log_batch(&ops, record as u64 + 1, false, false)?;
        }
        checks.exact(
            "server.wal.bytes_per_op",
            (store.wal_bytes() - 8) as f64 / (sizes.recover_records * RECORD_OPS) as f64,
        );
        drop(store);
        tracer.end(span);

        let alg1_keys = uniform(sizes.alg1_keys, seed, 1)?;
        let alg2_keys = uniform(sizes.alg2_keys, seed, 2)?;

        Ok(Self {
            sizes: sizes.clone(),
            seed,
            registry,
            base,
            hot_index,
            hot_probes,
            cold_index,
            cold_probes,
            lone: lone_server.handle(),
            lone_server: Some(lone_server),
            busy: busy_server.handle(),
            busy_server: Some(busy_server),
            online: online_server.handle(),
            online_server: Some(online_server),
            live_dir,
            stream,
            recover_dir,
            recovered: None,
            alg1_keys,
            alg2_keys,
        })
    }
}

impl Drop for World {
    /// Stops and joins every server thread (a set-up that is repeated to
    /// time it must not leave workers behind).
    fn drop(&mut self) {
        for server in [
            self.lone_server.take(),
            self.busy_server.take(),
            self.online_server.take(),
        ]
        .into_iter()
        .flatten()
        {
            server.shutdown();
        }
    }
}
