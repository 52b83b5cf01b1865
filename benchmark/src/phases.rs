//! The timed phases. One round runs each of them once, in a fixed order,
//! so that a noisy-neighbour episode is spread over all metrics instead
//! of wiping out one. A phase yields as many samples per round as it has
//! separately timed units of work (a lookup batch, a build, a window of
//! requests), so that the run's best decile has something to choose from.
//! Nothing here reaches into a crate: each phase times calls into public
//! functions from outside and checks every answer.

use crate::measure::{percentile_us, Log, OnCallersCpu};
use crate::probes::Probes;
use crate::spec::{self, INDEX_BATCH, READ_IN_FLIGHT, WRITE_IN_FLIGHT};
use crate::stream::WriteStream;
use crate::world::{serve_config, Failure, World, DENSITY, RECORD_OPS};
use lis::core::index::{DynIndex, Lookup};
use lis::core::keys::Key;
use lis::defense::TrimDefense;
use lis::pipeline::{Pipeline, PipelineReport, WorkloadSpec};
use lis::poison::{
    greedy_poison, rmi_attack, GreedyCdfAttack, PoisonBudget, RmiAttackConfig, RmiPoisonAttack,
};
use lis::server::{recover, ResponseTicket, Server, ServerHandle, WriteOp, WriteTicket};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Victims of pipeline cell A and cell B.
pub const CELL_A_INDEXES: [&str; 4] = ["rmi", "btree", "pla", "sharded:rmi:8"];
pub const CELL_B_INDEXES: [&str; 2] = ["rmi", "btree"];

/// Requests per `read_klps` sample and writes per `write_kops` sample.
const READ_WINDOW: usize = 12_500;
const WRITE_WINDOW: usize = 96;

/// Algorithm 2 as every phase mounts it: 10 % budget, 100 keys per model,
/// at most 64 exchanges.
pub fn alg2_config() -> RmiAttackConfig {
    RmiAttackConfig::new(10.0).with_max_exchanges(64)
}

pub fn cell_a_spec(n: usize) -> WorkloadSpec {
    WorkloadSpec::Uniform {
        n,
        density: DENSITY,
    }
}

pub fn cell_a_attack(n: usize) -> RmiPoisonAttack {
    RmiPoisonAttack {
        num_models: (n / 100).max(1),
        cfg: alg2_config(),
    }
}

pub fn cell_b_spec(n: usize) -> WorkloadSpec {
    WorkloadSpec::LogNormal {
        n,
        density: DENSITY,
    }
}

pub fn cell_b_attack(n: usize) -> GreedyCdfAttack {
    GreedyCdfAttack {
        budget: PoisonBudget::keys(n / 10),
    }
}

/// TRIM retaining the clean share of a keyset poisoned by 10 %.
pub fn cell_b_defense() -> TrimDefense {
    TrimDefense::fraction(1.0 / 1.1)
}

/// How one lookup pass drives the index.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `lookup_batch_into`, the serving path.
    Batch,
    /// `lookup_each_into`, the per-key twin.
    Each,
}

/// One lookup pass: which call is timed under which names over what.
pub struct Pass<'a> {
    pub span: &'static str,
    /// The metrics each sample is booked under (an end-to-end metric and
    /// its per-layer twin, or one of the two).
    pub metrics: &'a [&'static str],
    pub index: &'a DynIndex,
    pub probes: &'a [Key],
    pub batch: usize,
    pub path: Path,
}

/// Runs `pass`: every `batch`-key call is timed on its own and its answers
/// are checked between calls. Each call yields one sample (nanoseconds per
/// lookup); a pass of more than 128 calls yields one sample, their mean.
/// Returns comparisons per lookup.
pub fn lookup_pass(log: &mut Log, out: &mut Vec<Lookup>, pass: &Pass) -> f64 {
    let calls = pass.probes.len().div_ceil(pass.batch);
    let per_call = calls <= 128;
    let (mut busy, mut cost, mut found) = (Duration::ZERO, 0u64, 0u64);
    for chunk in pass.probes.chunks(pass.batch) {
        let start = Instant::now();
        let open = per_call.then(|| log.tracer.begin(pass.span));
        match pass.path {
            Path::Batch => pass.index.lookup_batch_into(black_box(chunk), out),
            Path::Each => pass.index.lookup_each_into(black_box(chunk), out),
        }
        let elapsed = match open {
            Some(open) => log.tracer.end(open),
            None => start.elapsed(),
        };
        busy += elapsed;
        if per_call {
            for metric in pass.metrics {
                log.push(metric, elapsed.as_nanos() as f64 / chunk.len() as f64);
            }
        }
        for answer in out.iter() {
            cost += answer.cost as u64;
            found += u64::from(answer.found);
        }
    }
    let n = pass.probes.len() as u64;
    if !per_call {
        log.tracer.aggregate(pass.span, calls as u64, busy);
        for metric in pass.metrics {
            log.push(metric, busy.as_nanos() as f64 / n as f64);
        }
    }
    log.checks.ops(pass.span, n, n - found);
    cost as f64 / n as f64
}

/// A run in progress: the world set-up built plus everything the rounds
/// accumulate.
pub struct Bench {
    pub world: World,
    pub log: Log,
    /// Reused answer buffer of the index passes.
    pub out: Vec<Lookup>,
    /// Next hot probe the read callers use, so that successive rounds ask
    /// for different keys.
    cursor: usize,
    /// Operations of the current round's write segment, for the admission
    /// probe of traced rounds.
    pub segment_ops: Vec<(WriteOp, u64)>,
    /// Total time and count of every lone-caller lookup since the server
    /// started, warm-up included: the client's side of the server's own
    /// latency histogram, which covers the same requests.
    lone_ns: u64,
    lone_calls: u64,
}

impl Bench {
    pub fn new(world: World, log: Log) -> Self {
        Self {
            world,
            log,
            out: Vec::new(),
            cursor: 0,
            segment_ops: Vec::new(),
            lone_ns: 0,
            lone_calls: 0,
        }
    }

    /// One round: every phase once.
    pub fn round(&mut self) -> Result<(), Failure> {
        self.lookup_hot();
        self.lookup_cold();
        self.build();
        self.read_lone()?;
        self.read_saturated()?;
        self.write_segment()?;
        self.recover()?;
        self.alg1()?;
        self.alg2()?;
        self.pipeline()
    }

    /// The in-cache cell. An untimed pass over the same probes comes first:
    /// the other phases of a round evict the index, and how much of it
    /// they evict is not what "hot" is meant to measure.
    fn lookup_hot(&mut self) {
        let w = &self.world;
        let probes = &w.hot_probes[..w.sizes.hot_probes];
        for chunk in probes.chunks(INDEX_BATCH) {
            w.hot_index
                .lookup_batch_into(black_box(chunk), &mut self.out);
        }
        let cost = lookup_pass(
            &mut self.log,
            &mut self.out,
            &Pass {
                span: "core.lookup.rmi_hot",
                metrics: &["lookup_hot_ns"],
                index: &w.hot_index,
                probes,
                batch: INDEX_BATCH,
                path: Path::Batch,
            },
        );
        self.log.checks.exact("lookup_cost", cost);
        self.log.push("lookup_cost", cost);
    }

    fn lookup_cold(&mut self) {
        let w = &self.world;
        lookup_pass(
            &mut self.log,
            &mut self.out,
            &Pass {
                span: "core.lookup.rmi_cold",
                metrics: &["lookup_cold_ns", "core.lookup.rmi_cold_ns"],
                index: &w.cold_index,
                probes: &w.cold_probes,
                batch: INDEX_BATCH,
                path: Path::Batch,
            },
        );
    }

    fn build(&mut self) {
        let (w, log) = (&self.world, &mut self.log);
        for _ in 0..w.sizes.builds {
            let span = log.tracer.begin("core.build.rmi");
            let index = w.registry.build("rmi", &w.base);
            let elapsed = log.tracer.end(span);
            log.checks
                .require(index.is_ok_and(|i| i.len() == w.base.len()), || {
                    "core.build.rmi: build failed or lost keys".into()
                });
            let ns_per_key = elapsed.as_nanos() as f64 / w.base.len() as f64;
            log.push("build_ns_per_key", ns_per_key);
            log.push("core.build.rmi_ns_per_key", ns_per_key);
        }
    }

    /// The keys of the next `n` read requests.
    fn next_probes(&mut self, n: usize) -> Vec<Key> {
        let probes = &self.world.hot_probes;
        let keys = (0..n)
            .map(|i| probes[(self.cursor + i) % probes.len()])
            .collect();
        self.cursor = (self.cursor + n) % probes.len();
        keys
    }

    /// The lone synchronous caller: one request at a time, each timed from
    /// submit to answer. In traced rounds the call is split into its
    /// submit and its wait, which is what `handle.lookup` does.
    fn read_lone(&mut self) -> Result<(), Failure> {
        let keys = self.next_probes(self.world.sizes.sync_lookups);
        let (handle, log) = (self.world.lone.clone(), &mut self.log);
        let fine = log.tracer.recording;
        let mut latencies = Vec::with_capacity(keys.len());
        let (mut submit, mut wait, mut found) = (Duration::ZERO, Duration::ZERO, 0u64);
        let pinned = OnCallersCpu::enter();
        let phase = log.tracer.begin("bench.read_lone");
        for &key in &keys {
            let answer = if fine {
                let call = log.tracer.begin("server.read.lookup");
                let span = log.tracer.begin("server.read.submit");
                let ticket = handle.submit(key)?;
                submit += log.tracer.end(span);
                let span = log.tracer.begin("server.read.wait");
                let answer = ticket.wait()?;
                wait += log.tracer.end(span);
                latencies.push(log.tracer.end(call).as_nanos() as u64);
                answer
            } else {
                let start = Instant::now();
                let answer = handle.lookup(key)?;
                latencies.push(start.elapsed().as_nanos() as u64);
                answer
            };
            found += u64::from(answer.found);
        }
        log.tracer.end(phase);
        drop(pinned);
        let n = keys.len() as u64;
        log.checks.ops("server.read.lookup", n, n - found);
        self.lone_ns += latencies.iter().sum::<u64>();
        self.lone_calls += n;
        latencies.sort_unstable();
        log.push("read_p50_us", percentile_us(&latencies, 50.0));
        log.push("server.read.p99_us", percentile_us(&latencies, 99.0));
        if fine {
            log.push("server.read.submit_ns", submit.as_nanos() as f64 / n as f64);
            log.push(
                "server.read.wait_us",
                wait.as_nanos() as f64 / 1e3 / n as f64,
            );
        }
        Ok(())
    }

    /// The pipelined caller: `READ_IN_FLIGHT` tickets in flight, the
    /// oldest awaited before the next is submitted. Every `READ_WINDOW`
    /// answers yield one throughput sample.
    fn read_saturated(&mut self) -> Result<(), Failure> {
        let keys = self.next_probes(self.world.sizes.saturation);
        let (handle, log) = (self.world.busy.clone(), &mut self.log);
        let fine = log.tracer.recording;
        let cpu_before = if fine { crate::measure::cpu_ns() } else { 0 };
        let mut tickets: VecDeque<ResponseTicket> = VecDeque::with_capacity(READ_IN_FLIGHT);
        let (mut submit, mut wait, mut found) = (Duration::ZERO, Duration::ZERO, 0u64);
        let pinned = OnCallersCpu::enter();
        let phase = log.tracer.begin("bench.read_saturated");
        // (A run shorter than one window, at smoke scale, is one window.)
        let window = READ_WINDOW
            .min(keys.len().saturating_sub(READ_IN_FLIGHT))
            .max(1);
        let (mut answered, mut window_start) = (0usize, Instant::now());
        for &key in &keys {
            if tickets.len() == READ_IN_FLIGHT {
                let ticket = tickets.pop_front().expect("non-empty");
                let start = fine.then(Instant::now);
                found += u64::from(ticket.wait()?.found);
                wait += start.map_or(Duration::ZERO, |s| s.elapsed());
                answered += 1;
                if answered % window == 0 {
                    let now = Instant::now();
                    let seconds = now.duration_since(window_start).as_secs_f64();
                    log.push("read_klps", window as f64 / seconds / 1e3);
                    window_start = now;
                }
            }
            let start = fine.then(Instant::now);
            tickets.push_back(handle.submit(key)?);
            submit += start.map_or(Duration::ZERO, |s| s.elapsed());
        }
        for ticket in tickets {
            found += u64::from(ticket.wait()?.found);
        }
        let n = keys.len() as u64;
        log.tracer
            .aggregate("server.read.submit_saturated", n, submit);
        log.tracer.aggregate("server.read.wait_saturated", n, wait);
        log.tracer.end(phase);
        drop(pinned);
        log.checks.ops("server.read.saturated", n, n - found);
        if fine {
            let cpu = crate::measure::cpu_ns().saturating_sub(cpu_before);
            log.push("server.read.cpu_ns_per_req", cpu as f64 / n as f64);
        }
        Ok(())
    }

    /// One segment of the write stream against the durable online server,
    /// `WRITE_IN_FLIGHT` writes in flight, while a second thread reads
    /// members of the base keyset from the same server one at a time.
    /// Every `WRITE_WINDOW` resolved writes yield one throughput sample.
    fn write_segment(&mut self) -> Result<(), Failure> {
        let n = self.world.sizes.write_segment;
        let reader_keys = self.next_probes(4_096);
        let reader = self.world.online.clone();
        let epoch_before = self.online_epoch();
        let stop = AtomicBool::new(false);
        // The writing and the reading caller share the callers' CPU: both
        // mostly wait.
        let pinned = OnCallersCpu::enter();
        let (segment, reads) = std::thread::scope(|scope| {
            let reading = scope.spawn(|| read_until(&reader, &reader_keys, &stop));
            let segment = self.drive_writes(n);
            stop.store(true, Ordering::Relaxed);
            (segment, reading.join().expect("reader thread panicked"))
        });
        drop(pinned);
        let (mut segment, mut reads) = (segment?, reads?);
        let epochs = self.online_epoch() - epoch_before;

        let (n, log) = (n as u64, &mut self.log);
        log.checks.ops("server.write", n, segment.failed);
        let lookups = reads.latencies.len() as u64;
        log.checks.ops("server.write.reader", lookups, reads.missed);
        log.tracer.aggregate(
            "server.write.reader",
            lookups,
            Duration::from_nanos(reads.latencies.iter().sum()),
        );
        // (A segment shorter than one window, at smoke scale, is one window.)
        let window = WRITE_WINDOW.min(n as usize);
        for resolved in segment.resolved.windows(window + 1).step_by(window) {
            let seconds = resolved[window].duration_since(resolved[0]).as_secs_f64();
            log.push("write_kops", window as f64 / seconds / 1e3);
        }
        reads.latencies.sort_unstable();
        segment.acks.sort_unstable();
        log.push(
            "server.write.ack_p50_us",
            percentile_us(&segment.acks, 50.0),
        );
        log.push(
            "server.write.ack_p99_us",
            percentile_us(&segment.acks, 99.0),
        );
        log.push(
            "server.write.ops_per_epoch",
            n as f64 / epochs.max(1) as f64,
        );
        if lookups > 0 {
            log.push(
                "server.write.reader_p50_us",
                percentile_us(&reads.latencies, 50.0),
            );
            log.push(
                "server.write.reader_p99_us",
                percentile_us(&reads.latencies, 99.0),
            );
        }
        if log.tracer.recording {
            log.push(
                "server.write.submit_ns",
                segment.submit.as_nanos() as f64 / n as f64,
            );
        }
        Ok(())
    }

    fn online_epoch(&self) -> u64 {
        self.world.online_server.as_ref().map_or(0, Server::epoch)
    }

    /// The writer side of [`Bench::write_segment`]: submits `n` operations
    /// of the stream, awaiting the oldest ticket whenever the window is
    /// full, then drains the window.
    fn drive_writes(&mut self, n: usize) -> Result<Segment, Failure> {
        let Self {
            world,
            log,
            segment_ops,
            ..
        } = self;
        let (writer, base, stream) = (world.online.clone(), world.base.keys(), &mut world.stream);
        let fine = log.tracer.recording;
        segment_ops.clear();
        let mut segment = Segment {
            submit: Duration::ZERO,
            acks: Vec::with_capacity(n),
            resolved: Vec::with_capacity(n + 1),
            failed: 0,
        };
        let mut in_flight = VecDeque::with_capacity(WRITE_IN_FLIGHT);
        let phase = log.tracer.begin("bench.write_segment");
        segment.resolved.push(Instant::now());
        for _ in 0..n {
            if in_flight.len() == WRITE_IN_FLIGHT {
                segment.resolve(stream, in_flight.pop_front().expect("non-empty"))?;
            }
            let number = stream.submitted();
            let (op, source) = stream.next_op(base);
            segment_ops.push((op, source));
            let sent = Instant::now();
            let span = fine.then(|| log.tracer.begin("server.write.submit"));
            let ticket = writer.submit_write(op, source)?;
            if let Some(span) = span {
                segment.submit += log.tracer.end(span);
            }
            in_flight.push_back(InFlight {
                number,
                op,
                ticket,
                sent,
            });
        }
        while let Some(oldest) = in_flight.pop_front() {
            segment.resolve(stream, oldest)?;
        }
        log.tracer.end(phase);
        Ok(segment)
    }

    /// `recover()` of the deterministic directory. Every call must replay
    /// every logged insert and agree with the first call.
    fn recover(&mut self) -> Result<(), Failure> {
        let (w, log) = (&mut self.world, &mut self.log);
        let span = log.tracer.begin("server.recover");
        let recovered = recover(w.recover_dir.path())?;
        let elapsed = log.tracer.end(span);
        let logged = w.sizes.recover_records * RECORD_OPS;
        let complete =
            recovered.replayed_ops == logged && recovered.keyset.len() == w.base.len() + logged;
        let agrees = match &w.recovered {
            Some(first) => *first == recovered.keyset,
            None => {
                w.recovered = Some(recovered.keyset);
                true
            }
        };
        let wrong = if complete && agrees { 0 } else { logged as u64 };
        log.checks.ops("server.recover", logged as u64, wrong);
        log.push("recover_ms", elapsed.as_secs_f64() * 1e3);
        Ok(())
    }

    /// Algorithm 1: the greedy CDF attack, timed per placed poison key.
    fn alg1(&mut self) -> Result<(), Failure> {
        let (w, log) = (&self.world, &mut self.log);
        let budget = PoisonBudget::keys(w.sizes.alg1_budget);
        for _ in 0..w.sizes.alg1_calls {
            let span = log.tracer.begin("poison.greedy_poison");
            let plan = greedy_poison(&w.alg1_keys, budget)?;
            let elapsed = log.tracer.end(span);
            log.checks
                .exact("poison.ratio_loss_alg1", plan.ratio_loss());
            log.checks.require(
                plan.keys.len() == budget.count && plan.ratio_loss() > 1.0,
                || format!("greedy_poison placed {} keys", plan.keys.len()),
            );
            let points = plan.keys.len() as f64;
            log.push("alg1_points_per_s", points / elapsed.as_secs_f64());
            log.push(
                "poison.greedy_exact_ns_per_point",
                elapsed.as_nanos() as f64 / points,
            );
        }
        Ok(())
    }

    /// Algorithm 2: the two-stage RMI attack, timed per placed poison key.
    fn alg2(&mut self) -> Result<(), Failure> {
        let (keys, log) = (&self.world.alg2_keys, &mut self.log);
        let span = log.tracer.begin("poison.rmi_attack");
        let result = rmi_attack(keys, (keys.len() / 100).max(1), &alg2_config())?;
        let elapsed = log.tracer.end(span);
        log.checks
            .exact("poison.ratio_loss_alg2", result.rmi_ratio());
        log.checks
            .require(result.total_poison > 0 && result.rmi_ratio() > 1.0, || {
                format!("rmi_attack placed {} keys", result.total_poison)
            });
        let points = result.total_poison as f64;
        log.push("alg2_points_per_s", points / elapsed.as_secs_f64());
        log.push(
            "poison.rmi_attack_ns_per_point",
            elapsed.as_nanos() as f64 / points,
        );
        Ok(())
    }

    /// Pipeline cell A then cell B, end to end through `Pipeline::run`.
    fn pipeline(&mut self) -> Result<(), Failure> {
        let (seed, a, b) = (
            self.world.seed,
            self.world.sizes.cell_a_keys,
            self.world.sizes.cell_b_keys,
        );
        let log = &mut self.log;
        let span = log.tracer.begin("pipeline.run");
        let cell_a = Pipeline::new(cell_a_spec(a))
            .seed(seed)
            .attack(cell_a_attack(a))
            .indexes(CELL_A_INDEXES)
            .queries(a / 2)
            .run()?;
        let mut elapsed = log.tracer.end(span);
        let span = log.tracer.begin("pipeline.run");
        let cell_b = Pipeline::new(cell_b_spec(b))
            .seed(seed)
            .attack(cell_b_attack(b))
            .defense(cell_b_defense())
            .indexes(CELL_B_INDEXES)
            .queries(b)
            .run()?;
        elapsed += log.tracer.end(span);
        for (cell, report) in [("A", &cell_a), ("B", &cell_b)] {
            check_cell(log, cell, report);
        }
        log.push("pipeline_s", elapsed.as_secs_f64());
        Ok(())
    }

    /// Ends the run: stops the servers, checks what they and the live
    /// durable directory hold against what the write stream was told, and
    /// books the values a run produces once.
    pub fn finish(&mut self, setup_s: f64, probes: Option<&Probes>) -> Result<(), Failure> {
        let (w, log) = (&mut self.world, &mut self.log);
        let stop = |server: &mut Option<Server>| {
            server.take().expect("servers run until finish").shutdown()
        };
        let online = stop(&mut w.online_server);
        let lone = stop(&mut w.lone_server);
        let busy = stop(&mut w.busy_server);

        let stream = &w.stream;
        log.checks.require(
            online.writes_failed == 0
                && online.writes_applied == stream.applied_total
                && online.writes_rejected == stream.rejected_total,
            || {
                format!(
                    "server counted {} applied / {} rejected / {} failed writes, the stream {} / {}",
                    online.writes_applied,
                    online.writes_rejected,
                    online.writes_failed,
                    stream.applied_total,
                    stream.rejected_total
                )
            },
        );
        // The live directory after a clean shutdown: every acknowledged
        // insert is there, no acknowledged remove is, nothing else is.
        let span = log.tracer.begin("server.recover_live");
        let recovered = recover(w.live_dir.path())?.keyset;
        log.tracer.end(span);
        let lost = stream.live.iter().filter(|&&k| !recovered.contains(k));
        let back = stream.removed.iter().filter(|&&k| recovered.contains(k));
        let (lost, back) = (lost.count() as u64, back.count() as u64);
        log.checks.ops(
            "acknowledged inserts recovered",
            stream.live.len() as u64,
            lost,
        );
        log.checks.ops(
            "acknowledged removes stay removed",
            stream.removed.len() as u64,
            back,
        );
        log.checks
            .require(recovered.len() == w.base.len() + stream.live.len(), || {
                format!("recovered {} keys", recovered.len())
            });

        log.samples.push("setup_s", setup_s, false);
        log.samples
            .push("peak_rss_mb", crate::measure::peak_rss_mib(), false);

        // Client mean minus server mean over the same requests: what a
        // caller waits after the worker has fulfilled its ticket.
        let wake_us = (self.lone_ns as f64 / self.lone_calls as f64 - lone.latency.mean()) / 1e3;
        let exact = |name: &str| log.checks.exact_value(name).unwrap_or(f64::NAN);
        let once = [
            ("server.read.server_p50_us", lone.latency.p50() as f64 / 1e3),
            ("server.read.wake_us", wake_us),
            (
                "server.read.deadline_us",
                serve_config().deadline.as_secs_f64() * 1e6,
            ),
            ("server.read.mean_batch", busy.mean_batch()),
            ("server.wal.bytes_per_op", exact("server.wal.bytes_per_op")),
            ("poison.ratio_loss_alg1", exact("poison.ratio_loss_alg1")),
            ("poison.ratio_loss_alg2", exact("poison.ratio_loss_alg2")),
        ];
        for (name, value) in once {
            log.push(name, value);
        }
        if let Some(probes) = probes {
            let value = |name: &str| {
                log.samples
                    .value(spec::metric(name), Some(true))
                    .map_or(f64::NAN, |v| v.0)
            };
            let stages: f64 = ["sample", "attack", "defense", "build", "measure"]
                .iter()
                .map(|stage| value(&format!("pipeline.{stage}_ms")))
                .sum();
            let unattributed = value("pipeline_s") * 1e3 - stages;
            log.push("pipeline.unattributed_ms", unattributed);
            for &(name, value) in &probes.once {
                log.push(name, value);
            }
        }
        Ok(())
    }

    /// On a seed the committed table covers, the hardware-independent
    /// values must be the committed ones.
    pub fn check_constants(&mut self, workload: spec::Workload, seed: u64, smoke: bool) {
        if smoke {
            return;
        }
        let Some(committed) = spec::constants(workload, seed) else {
            return;
        };
        let checks = &mut self.log.checks;
        for (name, want) in [
            ("lookup_cost", committed.lookup_cost),
            ("poison.ratio_loss_alg1", committed.ratio_loss_alg1),
            ("poison.ratio_loss_alg2", committed.ratio_loss_alg2),
        ] {
            let got = checks.exact_value(name).unwrap_or(f64::NAN);
            checks.require((got - want).abs() <= 5e-7, || {
                format!("{name} is {got}, the committed value for seed {seed} is {want}")
            });
        }
    }
}

fn check_cell(log: &mut Log, cell: &str, report: &PipelineReport) {
    let probes = (report.probes * report.indexes.len() * 2) as u64;
    let missed = report.indexes.iter().any(|i| !i.all_members_found);
    let wrong = if missed { probes } else { 0 };
    log.checks
        .ops(&format!("pipeline cell {cell}"), probes, wrong);
}

/// A submitted write whose answer is still out.
struct InFlight {
    number: u64,
    op: WriteOp,
    ticket: WriteTicket,
    sent: Instant,
}

/// What the writer side of one write segment measured.
struct Segment {
    /// Time inside `submit_write` (traced rounds only).
    submit: Duration,
    /// Submit-to-answer time of every write, nanoseconds.
    acks: Vec<u64>,
    /// When the segment began, then when each write resolved.
    resolved: Vec<Instant>,
    /// Writes the server answered `Failed`.
    failed: u64,
}

impl Segment {
    fn resolve(&mut self, stream: &mut WriteStream, write: InFlight) -> Result<(), Failure> {
        let status = write.ticket.wait()?;
        let now = Instant::now();
        self.resolved.push(now);
        self.acks
            .push(now.duration_since(write.sent).as_nanos() as u64);
        self.failed += u64::from(!stream.resolve(write.number, write.op, &status));
        Ok(())
    }
}

/// What the reader thread of the write phase saw.
struct Reads {
    latencies: Vec<u64>,
    missed: u64,
}

/// Reads `keys` round-robin through `handle`, one synchronous lookup at a
/// time, until `stop` is set.
fn read_until(
    handle: &ServerHandle,
    keys: &[Key],
    stop: &AtomicBool,
) -> Result<Reads, lis::core::error::LisError> {
    let mut reads = Reads {
        latencies: Vec::with_capacity(4_096),
        missed: 0,
    };
    for &key in keys.iter().cycle() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let start = Instant::now();
        let answer = handle.lookup(key)?;
        reads.latencies.push(start.elapsed().as_nanos() as u64);
        reads.missed += u64::from(!answer.found);
    }
    Ok(reads)
}
