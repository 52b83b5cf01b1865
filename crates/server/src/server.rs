//! The concurrent serving front end: a worker pool draining micro-batches
//! through [`DynIndex::lookup_batch`], plus the epoch-swapped write plane.
//!
//! [`Server::start`] takes a built (possibly sharded) index behind an
//! `Arc<DynIndex>` and spawns `workers` OS threads, all pulling from one
//! bounded [`BatchQueue`]. Clients submit keys through cloneable
//! [`ServerHandle`]s and either block per request ([`ServerHandle::lookup`])
//! or pipeline many in flight ([`ServerHandle::submit`] +
//! [`ResponseTicket::wait`]). Every response records its
//! submit-to-completion latency into a shared [`LatencyHistogram`], and the
//! server counts requests, batches, and lookup cost units, so one
//! [`ServeReport`] carries p50/p99/max latency, throughput, mean batch
//! size, mean per-lookup cost, and a windowed [`WindowStats`] time series.
//!
//! [`ServerBuilder::start_online`] additionally opens the **write plane**:
//! a dedicated bounded write queue drains into one writer thread that owns
//! the authoritative [`KeySet`]. Every drained write micro-batch is
//! validated, screened by an [`AdmissionPolicy`], staged, logged,
//! merged into the keyset in one pass, rebuilt into a fresh index from the
//! keyset, and published as one new epoch through the `EpochSlot`
//! (`crate::epoch`) — an `Arc` swap, so readers never block on
//! writers and the lookup hot path stays lock-free between epochs. Every
//! victim is trained on the keyset's CDF, so an epoch is a function of the
//! keyset alone: online ≡ offline and recovered ≡ live hold bit for bit.
//!
//! The same object serves three modes:
//!
//! * **offline measurement** — [`Server::serve_all`] pushes a probe slice
//!   through the queue and returns the answers in probe order, identical
//!   to one direct [`DynIndex::lookup_batch`] over the same slice (the
//!   experiment pipeline measures with that direct call, and a test there
//!   checks the two agree);
//! * **live traffic** — client threads submit keys continuously through
//!   [`ServerHandle::submit`] while the histogram tracks tail latency in
//!   flight;
//! * **online mutation** — write campaigns (see `lis::online`) poison the
//!   served keyset *while* benign traffic measures the drift.

use crate::durability::{Durability, DurableStore};
use crate::epoch::EpochSlot;
use crate::fault::{FaultInjector, InjectedFault, ProcessKill, RetryPolicy};
use crate::histogram::LatencyHistogram;
use crate::queue::{BatchPolicy, BatchQueue, PopTick};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{lock, Mutex, Signal};
use crate::write::{
    Admission, AdmissionPolicy, DriftVerdict, RollbackPolicy, WriteOp, WriteRequest, WriteStatus,
    WriteTicket, TRANSIENT_FAILURE_PREFIX,
};
use lis_check::thread::JoinHandle;
use lis_core::error::{LisError, Result};
use lis_core::index::{DynIndex, Lookup};
use lis_core::keys::{Key, KeySet, KeyView, Stage};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on tracked time-series windows; later samples merge into the
/// last window so an unexpectedly long session degrades gracefully instead
/// of growing without bound.
const MAX_WINDOWS: usize = 4_096;

/// Hard cap on worker respawns per session — a backstop against a
/// supervision storm when every batch panics (an injected p=1.0 schedule
/// or a deterministic front-end bug), far above any real chaos run.
const MAX_WORKER_RESTARTS: u64 = 4_096;

/// Tuning knobs of a [`Server`]. Zeros are clamped up to 1 (a server with
/// no workers or no queue could never answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bound on queued (admitted but unserved) requests — producers block
    /// beyond it.
    pub queue_depth: usize,
    /// Maximum requests per micro-batch.
    pub batch: usize,
    /// Deadline a worker waits for a partial batch to fill.
    pub deadline: Duration,
    /// Bound on queued writes (online servers only).
    pub write_queue_depth: usize,
    /// Maximum writes applied per epoch — each drained write micro-batch
    /// publishes one new epoch.
    pub write_batch: usize,
    /// Deadline the writer waits for a partial write batch to fill.
    pub write_deadline: Duration,
    /// Width of one [`WindowStats`] time-series bucket.
    pub window: Duration,
}

impl ServeConfig {
    /// Live-serving defaults: 4 workers, 64-request batches, 200µs flush
    /// deadline, 4096-deep queue; write plane: 1024-deep queue, 64 writes
    /// per epoch, 500µs flush deadline; 100ms time-series windows.
    pub fn new() -> Self {
        Self {
            workers: 4,
            queue_depth: 4_096,
            batch: 64,
            deadline: Duration::from_micros(200),
            write_queue_depth: 1_024,
            write_batch: 64,
            write_deadline: Duration::from_micros(500),
            window: Duration::from_millis(100),
        }
    }

    /// Offline-measurement defaults for [`Server::serve_all`]: two workers
    /// and large batches, so a probe sweep drains at full batch width
    /// without deadline stalls.
    pub fn offline() -> Self {
        Self {
            workers: 2,
            queue_depth: 4_096,
            batch: 1_024,
            deadline: Duration::from_micros(100),
            ..Self::new()
        }
    }

    /// Sets the worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the micro-batch size cap.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the micro-batch flush deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the queue bound.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the write-queue bound.
    pub fn write_queue_depth(mut self, depth: usize) -> Self {
        self.write_queue_depth = depth;
        self
    }

    /// Sets the writes-per-epoch cap.
    pub fn write_batch(mut self, batch: usize) -> Self {
        self.write_batch = batch;
        self
    }

    /// Sets the write micro-batch flush deadline.
    pub fn write_deadline(mut self, deadline: Duration) -> Self {
        self.write_deadline = deadline;
        self
    }

    /// Sets the time-series window width.
    pub fn window(mut self, window: Duration) -> Self {
        self.window = window;
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot response slot a worker fulfills and a client waits on.
pub(crate) struct ResponseSlot<T> {
    result: Mutex<Option<Result<T>>>,
    ready: Signal,
}

impl<T> ResponseSlot<T> {
    pub(crate) fn new() -> Self {
        Self {
            result: Mutex::new(None),
            ready: Signal::new(),
        }
    }

    pub(crate) fn fulfill(&self, outcome: Result<T>) {
        *lock(&self.result) = Some(outcome);
        self.ready.notify_one();
    }

    pub(crate) fn wait(&self) -> Result<T> {
        let mut guard = lock(&self.result);
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self.ready.wait(guard);
        }
    }

    pub(crate) fn wait_timeout(&self, timeout: Duration) -> Result<T> {
        let deadline = Instant::now() + timeout;
        let mut guard = lock(&self.result);
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(LisError::Timeout(timeout));
            }
            guard = self.ready.wait_timeout(guard, deadline - now).0;
        }
    }
}

/// A claim on one in-flight request; [`ResponseTicket::wait`] blocks until
/// a worker has served it.
pub struct ResponseTicket {
    slot: Arc<ResponseSlot<Lookup>>,
}

impl ResponseTicket {
    /// Blocks until the request is served and returns its [`Lookup`].
    ///
    /// Fails with [`LisError::Invariant`] if the serving worker's lookup
    /// panicked (a bug in the index structure) — the request is answered
    /// with an error rather than stranding the client forever.
    pub fn wait(self) -> Result<Lookup> {
        self.slot.wait()
    }

    /// Like [`ResponseTicket::wait`] but gives up with
    /// [`LisError::Timeout`] once `timeout` elapses without an answer, so
    /// a stalled or backlogged server cannot hang the client forever. The
    /// request itself stays in flight; its eventual answer is discarded
    /// with the ticket.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Lookup> {
        self.slot.wait_timeout(timeout)
    }
}

/// One queued request: the key, its admission time, and the response slot.
struct Request {
    key: Key,
    submitted: Instant,
    slot: Arc<ResponseSlot<Lookup>>,
}

/// One time-series bucket accumulated by a worker.
#[derive(Clone)]
struct WindowAccum {
    latency: LatencyHistogram,
    served: u64,
    cost_units: u64,
}

impl WindowAccum {
    fn new() -> Self {
        Self {
            latency: LatencyHistogram::new(),
            served: 0,
            cost_units: 0,
        }
    }
}

/// Per-worker stats: the session histogram plus the windowed time series,
/// both behind one worker-owned lock (uncontended on the hot path).
struct WorkerStats {
    latency: LatencyHistogram,
    windows: Vec<WindowAccum>,
}

/// One time-series bucket accumulated by the writer thread.
#[derive(Debug, Clone, Copy, Default)]
struct WriterWindow {
    epochs: u64,
    applied: u64,
    rejected: u64,
    failed: u64,
}

/// Counters and per-worker stats shared with the front end. Each worker
/// records into its own slot (uncontended on the hot path);
/// [`Server::stats`] merges them into one report.
struct Shared {
    workers: Vec<Mutex<WorkerStats>>,
    worker_count: usize,
    served: AtomicU64,
    batches: AtomicU64,
    cost_units: AtomicU64,
    /// Nanoseconds workers spent inside the serve span (lookup through
    /// fulfillment) — with `served`, the service-time estimate behind
    /// deadline load shedding.
    busy_ns: AtomicU64,
    shed: AtomicU64,
    workers_restarted: AtomicU64,
    writer_restarts: AtomicU64,
    rollbacks: AtomicU64,
    writes_quarantined: AtomicU64,
    writes_applied: AtomicU64,
    writes_rejected: AtomicU64,
    writes_failed: AtomicU64,
    writer_windows: Mutex<Vec<WriterWindow>>,
    /// Join handles of supervision-respawned workers; drained at
    /// shutdown after the original handles.
    respawned: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    window: Duration,
}

impl Shared {
    /// Index of the time-series window containing `now` (capped).
    fn window_index(&self, now: Instant) -> usize {
        let nanos = now.duration_since(self.started).as_nanos();
        let width = self.window.as_nanos().max(1);
        ((nanos / width) as usize).min(MAX_WINDOWS - 1)
    }

    /// Estimated time a request admitted now would wait to be served:
    /// queue depth × observed mean service time ÷ workers. `None` until
    /// at least one request has been served (no estimate, no shedding).
    fn estimated_wait(&self, queued: usize) -> Option<Duration> {
        let served = self.served.load(Ordering::Relaxed);
        if served == 0 {
            return None;
        }
        let per_request = self.busy_ns.load(Ordering::Relaxed) / served;
        let backlog = per_request.saturating_mul(queued as u64) / self.worker_count.max(1) as u64;
        Some(Duration::from_nanos(backlog))
    }

    /// Merged (served, cost_units) of completed read window `idx` across
    /// workers; `None` when no worker has reached that window yet.
    fn read_window(&self, idx: usize) -> Option<(u64, u64)> {
        let mut served = 0u64;
        let mut cost = 0u64;
        let mut any = false;
        for per_worker in &self.workers {
            let stats = lock(per_worker);
            if let Some(w) = stats.windows.get(idx) {
                served += w.served;
                cost += w.cost_units;
                any = true;
            }
        }
        any.then_some((served, cost))
    }
}

/// A cloneable submission endpoint for client threads.
#[derive(Clone)]
pub struct ServerHandle {
    queue: Arc<BatchQueue<Request>>,
    write_queue: Option<Arc<BatchQueue<WriteRequest>>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Enqueues one key, blocking while the queue is full. Fails with
    /// [`LisError::Shutdown`] after the server has shut down (retryable
    /// against a replacement server, unlike an invariant breach).
    pub fn submit(&self, key: Key) -> Result<ResponseTicket> {
        let slot = Arc::new(ResponseSlot::new());
        let request = Request {
            key,
            submitted: Instant::now(),
            slot: Arc::clone(&slot),
        };
        self.queue
            .push(request)
            .map_err(|_| LisError::Shutdown("request submitted to a shut-down server".into()))?;
        Ok(ResponseTicket { slot })
    }

    /// Like [`ServerHandle::submit`] but sheds the request up front with
    /// [`LisError::Overloaded`] when the estimated queue wait (depth ×
    /// observed mean service time ÷ workers) already exceeds `deadline`
    /// — the client learns *now* instead of timing out after queueing,
    /// and the queue stays reserved for requests that can meet their
    /// deadlines. Shed requests are counted in
    /// [`ServeReport::shed`].
    pub fn submit_with_deadline(&self, key: Key, deadline: Duration) -> Result<ResponseTicket> {
        if let Some(estimated_wait) = self.shared.estimated_wait(self.queue.len()) {
            if estimated_wait > deadline {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                return Err(LisError::Overloaded {
                    estimated_wait,
                    deadline,
                });
            }
        }
        self.submit(key)
    }

    /// Submits one key and blocks for its answer (a closed-loop client).
    pub fn lookup(&self, key: Key) -> Result<Lookup> {
        self.submit(key)?.wait()
    }

    /// A closed-loop lookup that rides out transient failures: shed
    /// ([`LisError::Overloaded`]), timed-out, and worker-death
    /// ([`LisError::Shutdown`]) outcomes are retried up to
    /// `policy.attempts` with deterministic exponential backoff (see
    /// [`RetryPolicy`]); deterministic errors surface immediately.
    pub fn lookup_retry(&self, key: Key, policy: &RetryPolicy) -> Result<Lookup> {
        policy.run(key, || {
            let ticket = match policy.deadline {
                Some(deadline) => self.submit_with_deadline(key, deadline)?,
                None => self.submit(key)?,
            };
            match policy.wait_timeout {
                Some(timeout) => ticket.wait_timeout(timeout),
                None => ticket.wait(),
            }
        })
    }

    /// Enqueues one write on the dedicated write queue, blocking while it
    /// is full. `source` is the submitting client's claimed identity —
    /// what per-source admission filters key on. Fails with
    /// [`LisError::Unsupported`] on a read-only server (started via
    /// [`Server::start`]) and [`LisError::Shutdown`] after shutdown.
    pub fn submit_write(&self, op: WriteOp, source: u64) -> Result<WriteTicket> {
        let queue = self.write_queue.as_ref().ok_or_else(|| {
            LisError::Unsupported(
                "write submitted to a read-only server (ServerBuilder::start_online enables writes)"
                    .into(),
            )
        })?;
        let slot = Arc::new(ResponseSlot::new());
        let request = WriteRequest {
            op,
            source,
            slot: Arc::clone(&slot),
        };
        queue
            .push(request)
            .map_err(|_| LisError::Shutdown("write submitted to a shut-down server".into()))?;
        Ok(WriteTicket { slot })
    }

    /// Submits one write and blocks for its [`WriteStatus`].
    pub fn write(&self, op: WriteOp, source: u64) -> Result<WriteStatus> {
        self.submit_write(op, source)?.wait()
    }

    /// A closed-loop write that rides out transient failures: retryable
    /// errors *and* [`WriteStatus::Failed`] outcomes marked transient
    /// (the writer crashed with the write queued — see
    /// [`WriteStatus::is_transient_failure`]) are resubmitted with
    /// backoff; terminal verdicts (applied / rejected / validation
    /// failure) return immediately.
    pub fn write_retry(
        &self,
        op: WriteOp,
        source: u64,
        policy: &RetryPolicy,
    ) -> Result<WriteStatus> {
        policy.run(op.key(), || {
            let ticket = self.submit_write(op, source)?;
            let status = match policy.wait_timeout {
                Some(timeout) => ticket.wait_timeout(timeout)?,
                None => ticket.wait()?,
            };
            if status.is_transient_failure() {
                // Map the crash-failed outcome onto the retryable error
                // channel so the shared retry loop drives resubmission.
                return Err(LisError::Shutdown(format!(
                    "{TRANSIENT_FAILURE_PREFIX} with write queued"
                )));
            }
            Ok(status)
        })
    }
}

/// One row of the windowed serving time series: what the server did during
/// `[start_ms, start_ms + window)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Window start offset from server start, in milliseconds.
    pub start_ms: u64,
    /// Requests served to completion within the window.
    pub served: u64,
    /// Lookup cost units accumulated within the window.
    pub cost_units: u64,
    /// p50 submit-to-completion latency (nanoseconds; 0 when idle).
    pub p50_ns: u64,
    /// p99 submit-to-completion latency (nanoseconds; 0 when idle).
    pub p99_ns: u64,
    /// Epochs published within the window.
    pub epochs: u64,
    /// Writes applied within the window.
    pub writes_applied: u64,
    /// Writes rejected by admission control within the window.
    pub writes_rejected: u64,
    /// Writes failed on validation within the window.
    pub writes_failed: u64,
}

impl WindowStats {
    /// Mean lookup cost units per request in this window.
    pub fn mean_cost(&self) -> f64 {
        self.cost_units as f64 / (self.served as f64).max(1.0)
    }
}

/// Final measurements of one serving session.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Registry name of the served index.
    pub index: String,
    /// Requests served to completion.
    pub served: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Total lookup cost units (comparisons/probes) across all requests.
    pub cost_units: u64,
    /// Wall clock from server start to shutdown.
    pub elapsed: Duration,
    /// Submit-to-completion latency distribution (nanoseconds).
    pub latency: LatencyHistogram,
    /// Epochs published by the write plane (0 on read-only servers).
    pub epochs: u64,
    /// Writes applied to the authoritative keyset.
    pub writes_applied: u64,
    /// Writes rejected by admission control.
    pub writes_rejected: u64,
    /// Writes failed on validation (duplicates, absent removes, domain).
    pub writes_failed: u64,
    /// Requests shed at admission because their estimated wait exceeded
    /// the deadline (see [`ServerHandle::submit_with_deadline`]).
    pub shed: u64,
    /// Serve workers respawned by supervision after a panic.
    pub workers_restarted: u64,
    /// Writer threads restarted by supervision after a crash.
    pub writer_restarts: u64,
    /// Attack-triggered epoch rollbacks (see `Server::builder`).
    pub rollbacks: u64,
    /// Applied writes discarded by rollbacks (poison and collateral
    /// benign writes alike — the rollback cannot tell them apart).
    pub writes_quarantined: u64,
    /// Width of one time-series window.
    pub window: Duration,
    /// The windowed time series — a campaign's lifetime as a curve.
    pub timeline: Vec<WindowStats>,
}

impl ServeReport {
    /// Requests per second over the session.
    pub fn throughput(&self) -> f64 {
        self.served as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Mean requests per dispatched micro-batch.
    pub fn mean_batch(&self) -> f64 {
        self.served as f64 / (self.batches as f64).max(1.0)
    }

    /// Mean lookup cost units per request — the hardware-independent
    /// quantity poisoning inflates.
    pub fn mean_cost(&self) -> f64 {
        self.cost_units as f64 / (self.served as f64).max(1.0)
    }
}

/// Constructor the writer thread uses to build each epoch's index from the
/// authoritative keyset.
pub type IndexBuild = Box<dyn Fn(&KeySet) -> Result<DynIndex> + Send>;

/// The serving front end: a bounded queue plus a worker pool over one
/// epoch-managed index. See the module docs for the serving model.
pub struct Server {
    queue: Arc<BatchQueue<Request>>,
    write_queue: Option<Arc<BatchQueue<WriteRequest>>>,
    shared: Arc<Shared>,
    slot: Arc<EpochSlot<DynIndex>>,
    workers: Vec<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    index_name: String,
}

/// Configures a [`Server`] beyond the [`ServeConfig`] knobs: a fault
/// schedule for chaos runs and a [`RollbackPolicy`] for attack-triggered
/// epoch rollback, and the constructor of online servers. Obtained from
/// [`Server::builder`]; the plain [`Server::start`] constructor is the
/// no-faults read-only fast path.
pub struct ServerBuilder {
    cfg: ServeConfig,
    faults: FaultInjector,
    rollback: Option<Box<dyn RollbackPolicy>>,
    durability: Durability,
}

impl ServerBuilder {
    /// Installs a fault schedule (see [`crate::fault`]). The default is
    /// [`FaultInjector::disabled`] — a no-op on every check site.
    pub fn faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Installs the durability plane (see [`crate::durability`]): the
    /// writer appends every validated micro-batch to a write-ahead log
    /// *before* fulfilling its tickets and checkpoints the keyset into
    /// snapshots. The default, [`Durability::in_memory`], keeps the
    /// authoritative keyset writer-local — existing servers and the
    /// zero-alloc read gate are untouched. Only meaningful with
    /// [`ServerBuilder::start_online`].
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Installs a drift monitor: the writer observes every completed
    /// read window's mean lookup cost through it, and on a
    /// [`DriftVerdict::Degraded`] verdict quarantines everything written
    /// since the bootstrap checkpoint and republishes an epoch rebuilt
    /// from it. Only meaningful with [`ServerBuilder::start_online`].
    pub fn rollback(mut self, policy: Box<dyn RollbackPolicy>) -> Self {
        self.rollback = Some(policy);
        self
    }

    /// Starts a read-only server (see [`Server::start`]) with this
    /// builder's fault schedule.
    pub fn start(self, index: Arc<DynIndex>) -> Server {
        let name = index.name().to_string();
        let slot = Arc::new(EpochSlot::new(index));
        Server::start_inner(slot, name, None, self.cfg, self.faults)
    }

    /// Spawns a server whose index is *mutable online*: reads serve the
    /// current epoch's snapshot, writes drain through a dedicated bounded
    /// queue into a writer thread owning the authoritative `keyset`.
    ///
    /// Per write micro-batch the writer validates each operation against
    /// the keyset and the batch's earlier accepted operations, consults
    /// `admission` (see [`AdmissionPolicy`])
    /// with the same view, merges the admitted ops into the keyset in one
    /// pass, and publishes one new epoch built from the keyset by `build`.
    /// Readers never block on any of this — publication is an `Arc` swap
    /// (see `crate::epoch`). `build` runs once here for the starting
    /// epoch, then once per published epoch.
    pub fn start_online<F>(
        self,
        keyset: KeySet,
        build: F,
        admission: Box<dyn AdmissionPolicy>,
    ) -> Result<Server>
    where
        F: Fn(&KeySet) -> Result<DynIndex> + Send + 'static,
    {
        let front = build(&keyset)?;
        let name = front.name().to_string();
        let slot = Arc::new(EpochSlot::new(Arc::new(front)));
        let rollback = self.rollback.map(|policy| RollbackState {
            policy,
            checkpoint: keyset.clone(),
            quarantined: 0,
            next_window: 0,
        });
        // Bootstrap the durable store (snapshot of the starting keyset +
        // fresh WAL) before the writer takes over; the fsync window
        // mirrors the serve-window normalization in `start_inner`.
        let fsync_window = if self.cfg.window.is_zero() {
            Duration::from_millis(100)
        } else {
            self.cfg.window
        };
        let store = self.durability.open(&keyset, fsync_window)?;
        let state = WriterState {
            keyset,
            build: Box::new(build),
            admission,
            rollback,
            flushes: self.durability.resume_flushes(),
            store,
        };
        Ok(Server::start_inner(
            slot,
            name,
            Some(state),
            self.cfg,
            self.faults,
        ))
    }
}

impl Server {
    /// A [`ServerBuilder`] for online servers and for servers that need
    /// fault injection or rollback; plain read-only servers use
    /// [`Server::start`] directly.
    pub fn builder(cfg: ServeConfig) -> ServerBuilder {
        ServerBuilder {
            cfg,
            faults: FaultInjector::disabled(),
            rollback: None,
            durability: Durability::in_memory(),
        }
    }

    /// Spawns the worker pool over a fixed `index` and starts accepting
    /// read requests. The write plane stays closed: [`ServerHandle`]
    /// write submissions fail with [`LisError::Unsupported`].
    pub fn start(index: Arc<DynIndex>, cfg: ServeConfig) -> Self {
        Self::builder(cfg).start(index)
    }

    fn start_inner(
        slot: Arc<EpochSlot<DynIndex>>,
        index_name: String,
        writer_state: Option<WriterState>,
        cfg: ServeConfig,
        faults: FaultInjector,
    ) -> Self {
        // Bring up the process-wide worker pool and register it as the
        // core fan-out backend: sharded oversize batches served below run
        // on pooled threads instead of per-batch scoped spawns.
        crate::pool::shared();
        let queue = Arc::new(BatchQueue::new(cfg.queue_depth));
        let worker_count = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            workers: (0..worker_count)
                .map(|_| {
                    Mutex::new(WorkerStats {
                        latency: LatencyHistogram::new(),
                        windows: Vec::new(),
                    })
                })
                .collect(),
            worker_count,
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            cost_units: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            workers_restarted: AtomicU64::new(0),
            writer_restarts: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            writes_quarantined: AtomicU64::new(0),
            writes_applied: AtomicU64::new(0),
            writes_rejected: AtomicU64::new(0),
            writes_failed: AtomicU64::new(0),
            writer_windows: Mutex::new(Vec::new()),
            respawned: Mutex::new(Vec::new()),
            started: Instant::now(),
            window: if cfg.window.is_zero() {
                Duration::from_millis(100)
            } else {
                cfg.window
            },
        });
        let policy = BatchPolicy {
            max_batch: cfg.batch.max(1),
            deadline: cfg.deadline,
        };
        let workers = (0..worker_count)
            .map(|w| {
                let ctx = Arc::new(WorkerCtx {
                    queue: Arc::clone(&queue),
                    shared: Arc::clone(&shared),
                    worker: w,
                    slot: Arc::clone(&slot),
                    policy,
                    faults: faults.clone(),
                    batch_seq: AtomicU64::new(0),
                });
                crate::pool::spawn_dedicated(move || supervised_worker(ctx))
            })
            .collect();
        let (write_queue, writer) = match writer_state {
            Some(state) => {
                let write_queue = Arc::new(BatchQueue::new(cfg.write_queue_depth));
                let write_policy = BatchPolicy {
                    max_batch: cfg.write_batch.max(1),
                    deadline: cfg.write_deadline,
                };
                let writer = {
                    let queue = Arc::clone(&write_queue);
                    let shared = Arc::clone(&shared);
                    let slot = Arc::clone(&slot);
                    let faults = faults.clone();
                    crate::pool::spawn_dedicated(move || {
                        supervised_writer(&queue, &shared, &slot, state, write_policy, &faults)
                    })
                };
                (Some(write_queue), Some(writer))
            }
            None => (None, None),
        };
        Self {
            queue,
            write_queue,
            shared,
            slot,
            workers,
            writer,
            index_name,
        }
    }

    /// A new submission endpoint (cheap to clone, one per client thread).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            queue: Arc::clone(&self.queue),
            write_queue: self.write_queue.as_ref().map(Arc::clone),
            shared: Arc::clone(&self.shared),
        }
    }

    /// The epoch currently served (0 until the first write is published).
    pub fn epoch(&self) -> u64 {
        self.slot.epoch()
    }

    /// Serves a whole probe slice through the queue and returns the answers
    /// in probe order — the offline-measurement path. Requests pipeline
    /// through the same batcher and workers as live traffic; the caller
    /// only waits once all probes are admitted.
    pub fn serve_all(&self, keys: &[Key]) -> Result<Vec<Lookup>> {
        let handle = self.handle();
        let mut tickets = Vec::with_capacity(keys.len());
        for &key in keys {
            tickets.push(handle.submit(key)?);
        }
        tickets.into_iter().map(ResponseTicket::wait).collect()
    }

    /// Builds a [`ServeReport`] from the current counters, merging the
    /// per-worker histograms and time-series windows.
    fn report(&self) -> ServeReport {
        let mut latency = LatencyHistogram::new();
        let mut windows: Vec<WindowAccum> = Vec::new();
        for per_worker in &self.shared.workers {
            let stats = lock(per_worker);
            latency.merge(&stats.latency);
            if windows.len() < stats.windows.len() {
                windows.resize(stats.windows.len(), WindowAccum::new());
            }
            for (acc, w) in windows.iter_mut().zip(stats.windows.iter()) {
                acc.latency.merge(&w.latency);
                acc.served += w.served;
                acc.cost_units += w.cost_units;
            }
        }
        let writer_windows = lock(&self.shared.writer_windows).clone();
        let rows = windows.len().max(writer_windows.len());
        let window = self.shared.window;
        let timeline = (0..rows)
            .map(|i| {
                let read = windows.get(i);
                let write = writer_windows.get(i).copied().unwrap_or_default();
                WindowStats {
                    start_ms: (window.as_millis() as u64).saturating_mul(i as u64),
                    served: read.map_or(0, |w| w.served),
                    cost_units: read.map_or(0, |w| w.cost_units),
                    p50_ns: read.map_or(0, |w| w.latency.p50()),
                    p99_ns: read.map_or(0, |w| w.latency.p99()),
                    epochs: write.epochs,
                    writes_applied: write.applied,
                    writes_rejected: write.rejected,
                    writes_failed: write.failed,
                }
            })
            .collect();
        ServeReport {
            index: self.index_name.clone(),
            served: self.shared.served.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            cost_units: self.shared.cost_units.load(Ordering::Relaxed),
            elapsed: self.shared.started.elapsed(),
            latency,
            epochs: self.slot.epoch(),
            writes_applied: self.shared.writes_applied.load(Ordering::Relaxed),
            writes_rejected: self.shared.writes_rejected.load(Ordering::Relaxed),
            writes_failed: self.shared.writes_failed.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            workers_restarted: self.shared.workers_restarted.load(Ordering::Relaxed),
            writer_restarts: self.shared.writer_restarts.load(Ordering::Relaxed),
            rollbacks: self.shared.rollbacks.load(Ordering::Relaxed),
            writes_quarantined: self.shared.writes_quarantined.load(Ordering::Relaxed),
            window,
            timeline,
        }
    }

    /// A snapshot of the running session's measurements.
    pub fn stats(&self) -> ServeReport {
        self.report()
    }

    /// Stops admission on both queues, drains the backlogs, joins the
    /// workers and the writer, and returns the session's final
    /// [`ServeReport`]. Workers survive panicking index lookups (those
    /// requests fail with [`LisError::Invariant`] at the ticket), so the
    /// join only fails on a bug in the front end itself.
    pub fn shutdown(mut self) -> ServeReport {
        self.queue.close();
        if let Some(write_queue) = &self.write_queue {
            write_queue.close();
        }
        for worker in std::mem::take(&mut self.workers) {
            // lis-analysis: allow(serve-no-panic) — shutdown teardown:
            // a panicked worker already failed its in-flight tickets, and
            // surfacing the panic to the caller is the report of record.
            worker.join().expect("serving worker panicked");
        }
        // Supervision-respawned workers registered themselves before
        // their predecessors exited, so this drain converges: once the
        // list is empty no live worker remains to push into it.
        loop {
            let respawned = lock(&self.shared.respawned).pop();
            match respawned {
                // lis-analysis: allow(serve-no-panic) — shutdown
                // teardown, same contract as the original worker joins.
                Some(worker) => worker.join().expect("respawned worker panicked"),
                None => break,
            }
        }
        if let Some(writer) = self.writer.take() {
            // lis-analysis: allow(serve-no-panic) — see the worker join.
            writer.join().expect("writer thread panicked");
        }
        self.report()
    }
}

/// Everything one supervised worker needs, bundled behind an `Arc` so a
/// dying worker can hand the context to its own replacement.
struct WorkerCtx {
    queue: Arc<BatchQueue<Request>>,
    shared: Arc<Shared>,
    worker: usize,
    slot: Arc<EpochSlot<DynIndex>>,
    policy: BatchPolicy,
    faults: FaultInjector,
    /// Monotonic batch sequence used as the fault-schedule event index.
    /// Lives in the shared ctx (not the loop) so a respawned worker
    /// continues the schedule instead of replaying it from event 0 —
    /// a replay would either never fire or crash-loop on the same event.
    batch_seq: AtomicU64,
}

/// Runs [`worker_loop`] under a supervisor: a panic that escapes the
/// loop (an injected worker death; real per-lookup panics are caught
/// inside) fails only the batch the worker was holding — its tickets
/// were resolved before the unwind — and the supervisor respawns a
/// replacement via [`crate::pool::spawn_dedicated`], registering the
/// new handle for shutdown to join. The server keeps serving; the
/// restart is counted in [`ServeReport::workers_restarted`].
fn supervised_worker(ctx: Arc<WorkerCtx>) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        worker_loop(
            &ctx.queue,
            &ctx.shared,
            ctx.worker,
            &ctx.slot,
            ctx.policy,
            &ctx.faults,
            &ctx.batch_seq,
        )
    }));
    if outcome.is_err() {
        let restarts = ctx.shared.workers_restarted.fetch_add(1, Ordering::SeqCst) + 1;
        if restarts <= MAX_WORKER_RESTARTS {
            let replacement = Arc::clone(&ctx);
            let handle = crate::pool::spawn_dedicated(move || supervised_worker(replacement));
            // Registered before this thread exits, so the shutdown drain
            // of `respawned` never misses a live replacement.
            lock(&ctx.shared.respawned).push(handle);
        }
    }
}

/// One worker: drain micro-batches, answer them through the current
/// epoch's snapshot, fulfill the tickets, record latency and counters.
/// Latencies land in this worker's own stats slot, so the hot path never
/// contends with other workers on a shared lock — and the batch, key, and
/// response buffers are all worker-owned and reused, so a steady-state
/// batch performs no heap allocation on the response path (the
/// `zero_alloc` integration test pins this down). The epoch snapshot is
/// cached and re-read only when the epoch counter moves, so lookups take
/// no lock while the write plane is idle *or* busy — readers never block
/// on writers. The `faults` checks compile down to one `Option`
/// discriminant branch per site when injection is disabled.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    queue: &BatchQueue<Request>,
    shared: &Shared,
    worker: usize,
    slot: &EpochSlot<DynIndex>,
    policy: BatchPolicy,
    faults: &FaultInjector,
    batch_seq: &AtomicU64,
) {
    let mut batch: Vec<Request> = Vec::with_capacity(policy.max_batch);
    let mut keys: Vec<Key> = Vec::with_capacity(policy.max_batch);
    let mut results: Vec<Lookup> = Vec::with_capacity(policy.max_batch);
    let mut epoch = slot.epoch();
    let mut index: Option<Arc<DynIndex>> = None;
    loop {
        if queue.is_empty() {
            // About to park: drop the cached snapshot so an idle worker
            // does not keep a retired epoch alive; resident memory stays
            // at one index.
            index = None;
        }
        if !queue.pop_batch_into(policy, &mut batch) {
            break;
        }
        if batch.is_empty() {
            continue;
        }
        let batches_drained = batch_seq.fetch_add(1, Ordering::Relaxed) + 1;
        // Injected worker death: the drained batch gets definite
        // (retryable) outcomes before the unwind — a fault may cost
        // retries, never strand a ticket.
        if faults.worker_panic(worker as u64, batches_drained) {
            for request in batch.drain(..) {
                request.slot.fulfill(Err(LisError::Shutdown(
                    "serving worker died mid-batch (injected fault)".into(),
                )));
            }
            std::panic::resume_unwind(Box::new(InjectedFault));
        }
        let serve_started = Instant::now();
        // Injected latency spike, inside the measured serve span so the
        // service-time estimate (and thus load shedding) sees it.
        if let Some(delay) = faults.slow_batch(worker as u64, batches_drained) {
            // lis-analysis: allow(no-prod-sleep) — injected fault delay.
            std::thread::sleep(delay);
        }
        let current = slot.epoch();
        if current != epoch || index.is_none() {
            index = Some(slot.load());
            epoch = current;
        }
        // lis-analysis: allow(serve-no-panic) — unreachable by
        // construction: the branch above populates `index` whenever it is
        // `None` before this line.
        let index = index.as_ref().expect("snapshot loaded above");
        keys.clear();
        keys.extend(batch.iter().map(|r| r.key));
        // A panicking lookup (a bug in the index structure) must not
        // strand the batch's clients on tickets nobody will fulfill: catch
        // it, fail every request in the batch, and keep serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            index.lookup_batch_into(&keys, &mut results)
        }));
        if outcome.is_err() {
            for request in batch.drain(..) {
                request.slot.fulfill(Err(LisError::Invariant(format!(
                    "index lookup panicked while serving key {}",
                    request.key
                ))));
            }
            continue;
        }
        let cost: usize = results.iter().map(|r| r.cost).sum();
        let done = Instant::now();
        let widx = shared.window_index(done);
        let mut stats = lock(&shared.workers[worker]);
        if stats.windows.len() <= widx {
            stats.windows.resize(widx + 1, WindowAccum::new());
        }
        for request in batch.iter() {
            let latency = done.duration_since(request.submitted);
            stats.latency.record_duration(latency);
            stats.windows[widx].latency.record_duration(latency);
        }
        stats.windows[widx].served += batch.len() as u64;
        stats.windows[widx].cost_units += cost as u64;
        drop(stats);
        // Counted before the acks: a client holding its answer must find
        // its own request in `stats()` and in the shedding estimate.
        shared
            .served
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared.cost_units.fetch_add(cost as u64, Ordering::Relaxed);
        // Busy time feeds the per-request service-time estimate behind
        // deadline-aware shedding; injected latency spikes count, so the
        // estimate degrades (and shedding engages) exactly when service
        // degrades.
        shared.busy_ns.fetch_add(
            done.duration_since(serve_started).as_nanos() as u64,
            Ordering::Relaxed,
        );
        for (request, hit) in batch.drain(..).zip(results.iter()) {
            request.slot.fulfill(Ok(*hit));
        }
    }
}

/// The writer thread's private state: the authoritative keyset and the
/// constructor every epoch is built with.
struct WriterState {
    keyset: KeySet,
    build: IndexBuild,
    admission: Box<dyn AdmissionPolicy>,
    rollback: Option<RollbackState>,
    /// Monotonic flush sequence used as the fault-schedule event index.
    /// Lives in the state (which outlives writer crashes) so a restarted
    /// writer continues the schedule instead of replaying it from event
    /// 0 — a replay would either never fire or crash-loop forever. The
    /// durable snapshot header persists it for the same reason one level
    /// up: a server resumed after a *process* kill continues the
    /// schedule too (see [`crate::durability`]).
    flushes: u64,
    /// The durability plane, when configured: the open WAL and the
    /// checkpoint cadence. `None` is the in-memory default.
    store: Option<DurableStore>,
}

/// Attack-triggered epoch rollback, owned by the writer thread. The
/// checkpoint is the bootstrap keyset — the last state known to predate
/// any online poisoning. Every write admitted after it is provisional:
/// when the installed [`RollbackPolicy`] judges a completed read window
/// [`DriftVerdict::Degraded`], the writer quarantines everything written
/// since the checkpoint, restores the keyset from it, and republishes a
/// rebuilt epoch. Epoch numbers stay monotonic — a rollback is a forward
/// publish of old, trusted *content*.
struct RollbackState {
    policy: Box<dyn RollbackPolicy>,
    checkpoint: KeySet,
    /// Writes applied since the checkpoint (the blast radius of a
    /// rollback, reported as `writes_quarantined` when one fires).
    quarantined: usize,
    /// First read window not yet shown to the policy; windows are
    /// observed exactly once, in order, and only once complete.
    next_window: usize,
}

impl WriterState {
    /// Feeds completed read windows to the rollback policy and performs
    /// the rollback when it trips. Called once per writer-loop
    /// iteration — including idle ticks, so a drift verdict lands even
    /// when the write plane has gone quiet after a campaign.
    fn maintain_rollback(&mut self, shared: &Shared, slot: &EpochSlot<DynIndex>) {
        let Some(mut rb) = self.rollback.take() else {
            return;
        };
        // Windows strictly before `current` are complete; the current one
        // is still accumulating and would bias the mean toward whatever
        // half-filled sample it holds.
        let current = shared.window_index(Instant::now());
        let window_ms = shared.window.as_millis() as u64;
        let mut degraded = false;
        for idx in rb.next_window..current {
            if let Some((served, cost)) = shared.read_window(idx) {
                if served > 0 {
                    let verdict = rb.policy.observe(
                        window_ms.saturating_mul(idx as u64),
                        served,
                        cost as f64 / served as f64,
                    );
                    if verdict == DriftVerdict::Degraded {
                        degraded = true;
                    }
                }
            }
        }
        rb.next_window = current;
        if degraded && rb.quarantined > 0 {
            // Quarantine the post-checkpoint write window: restore the
            // authoritative keyset and publish an epoch rebuilt from
            // trusted state.
            shared.rollbacks.fetch_add(1, Ordering::Relaxed);
            shared
                .writes_quarantined
                .fetch_add(rb.quarantined as u64, Ordering::Relaxed);
            self.keyset = rb.checkpoint.clone();
            self.republish(slot);
            rb.policy.rolled_back();
            rb.quarantined = 0;
            // Cooldown: the current (pre-rollback) window still reflects
            // degraded cost; judging it would re-trip immediately.
            rb.next_window = current + 1;
        }
        self.rollback = Some(rb);
    }

    /// Publishes an epoch rebuilt from the keyset; on a failed build the
    /// served snapshot stays as it is and the next flush rebuilds.
    fn republish(&self, slot: &EpochSlot<DynIndex>) {
        if let Ok(index) = (self.build)(&self.keyset) {
            drop(slot.publish(Arc::new(index)));
        }
    }
}

/// Runs [`writer_loop`] under a supervisor that models a writer *crash
/// and restart*: a panic escaping the loop (an injected crash) leaves
/// only the authoritative keyset, as a restarted writer process would
/// hold. The supervisor republishes an epoch rebuilt from that keyset,
/// counts the restart, and resumes the drain. Readers were never
/// blocked: they kept serving the last published epoch throughout.
fn supervised_writer(
    queue: &BatchQueue<WriteRequest>,
    shared: &Shared,
    slot: &EpochSlot<DynIndex>,
    mut state: WriterState,
    policy: BatchPolicy,
    faults: &FaultInjector,
) {
    loop {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            writer_loop(queue, shared, slot, &mut state, policy, faults)
        }));
        match outcome {
            // Clean exit: the write queue closed.
            Ok(()) => break,
            Err(payload) if payload.downcast_ref::<ProcessKill>().is_some() => {
                // SIGKILL-equivalent storage fault: NO restart — the
                // "process" is dead and only `recover` on the durable
                // directory brings the write plane back. Close the queue
                // and fail everything still buffered so no client blocks
                // on a ticket nothing will ever fulfill; the read plane
                // keeps serving the last published epoch.
                queue.close();
                let mut stranded: Vec<WriteRequest> = Vec::with_capacity(policy.max_batch);
                while queue.pop_batch_into(policy, &mut stranded) {
                    shared
                        .writes_failed
                        .fetch_add(stranded.len() as u64, Ordering::Relaxed);
                    for request in stranded.drain(..) {
                        request.slot.fulfill(Err(LisError::Shutdown(
                            "write plane closed: writer killed by injected storage fault".into(),
                        )));
                    }
                }
                break;
            }
            Err(_) => {
                shared.writer_restarts.fetch_add(1, Ordering::Relaxed);
                state.republish(slot);
            }
        }
    }
}

/// The writer thread: drain write micro-batches and take each through
/// validate → admit → stage → log → commit → rebuild → publish → ack,
/// one epoch per batch, then account the outcome. Operations keep their
/// submission order and each is judged against the keyset *plus* the
/// batch's earlier accepted operations, so a verdict is the one a
/// batch-of-one writer would have reached; the keyset's `O(n)` array pass
/// and the index rebuild are paid once per batch, not once per write.
/// With a rollback policy installed the drain uses a bounded tick so
/// completed read windows reach the drift monitor even when the write
/// plane goes idle.
fn writer_loop(
    queue: &BatchQueue<WriteRequest>,
    shared: &Shared,
    slot: &EpochSlot<DynIndex>,
    state: &mut WriterState,
    policy: BatchPolicy,
    faults: &FaultInjector,
) {
    let mut batch: Vec<WriteRequest> = Vec::with_capacity(policy.max_batch);
    let mut pending: Vec<Arc<ResponseSlot<WriteStatus>>> = Vec::new();
    let mut applied_ops: Vec<WriteOp> = Vec::new();
    // The batch's accepted ops, pending on top of `state.keyset`. Local
    // to the loop, so an unwind out of it (a crash, a kill) drops a
    // half-staged batch and leaves the keyset as the last commit left it.
    let mut stage = Stage::new();
    loop {
        let tick = if state.rollback.is_some() {
            queue.pop_batch_tick(policy, &mut batch, shared.window)
        } else if queue.pop_batch_into(policy, &mut batch) {
            PopTick::Batch
        } else {
            PopTick::Closed
        };
        match tick {
            PopTick::Closed => {
                // Clean shutdown: a final checkpoint makes recovery of a
                // cleanly stopped server replay nothing. An I/O failure
                // here is survivable — the WAL still holds the tail.
                if let Some(store) = state.store.as_mut() {
                    let _ = store.snapshot(&state.keyset, state.flushes);
                }
                break;
            }
            PopTick::Idle => {
                state.maintain_rollback(shared, slot);
                continue;
            }
            PopTick::Batch => {}
        }
        if batch.is_empty() {
            continue;
        }
        state.flushes += 1;
        // Injected writer crash: every drained request resolves to a
        // *transient* failure (the [`TRANSIENT_FAILURE_PREFIX`] contract
        // lets [`ServerHandle::write_retry`] resubmit) before the unwind
        // reaches the supervisor. The keyset is untouched by this batch,
        // so the restart rebuild is consistent.
        if faults.writer_crash(state.flushes) {
            for request in batch.drain(..) {
                request.slot.fulfill(Ok(WriteStatus::Failed {
                    reason: format!(
                        "{TRANSIENT_FAILURE_PREFIX} with write queued (injected fault)"
                    ),
                }));
            }
            std::panic::resume_unwind(Box::new(InjectedFault));
        }
        // Injected stall: the writer sits on the drained batch. Clients
        // see latency, not loss — tickets resolve after the stall.
        if let Some(delay) = faults.writer_stall(state.flushes) {
            // lis-analysis: allow(no-prod-sleep) — injected fault delay.
            std::thread::sleep(delay);
        }
        pending.clear();
        applied_ops.clear();
        let mut rejected = 0u64;
        let mut failed = 0u64;
        for request in batch.drain(..) {
            let current = stage.over(&state.keyset);
            let status = match request.op {
                WriteOp::Insert(k) if current.contains(k) => Some(WriteStatus::Failed {
                    reason: format!("duplicate key {k}"),
                }),
                WriteOp::Remove(k) if !current.contains(k) => Some(WriteStatus::Failed {
                    reason: format!("key {k} not present"),
                }),
                op => match state.admission.admit(&op, request.source, &current) {
                    Admission::Reject(filter) => Some(WriteStatus::Rejected { filter }),
                    Admission::Admit => {
                        let outcome = match op {
                            WriteOp::Insert(k) => stage.insert(&state.keyset, k),
                            WriteOp::Remove(k) => stage.remove(&state.keyset, k),
                        };
                        match outcome {
                            Ok(()) => None,
                            Err(e) => Some(WriteStatus::Failed {
                                reason: e.to_string(),
                            }),
                        }
                    }
                },
            };
            match status {
                Some(terminal) => {
                    if matches!(terminal, WriteStatus::Rejected { .. }) {
                        rejected += 1;
                    } else {
                        failed += 1;
                    }
                    request.slot.fulfill(Ok(terminal));
                }
                None => {
                    applied_ops.push(request.op);
                    pending.push(request.slot);
                }
            }
        }
        // Durability: the WAL append lands *before* the batch is merged
        // into the keyset and before any ticket below is fulfilled
        // `Applied` (group commit — one fsync per drained batch at
        // `DurabilityLevel::Batch`); the `durability-ack-order` lint
        // polices the ack ordering. The storage fault sites model
        // process death around the append: before it (the batch is
        // neither logged nor acked), torn inside it (a prefix is on disk,
        // nothing acked), or after it (logged and recoverable, but the
        // acks never went out — recovery may legitimately hold writes the
        // client saw fail, never the reverse).
        if !applied_ops.is_empty() {
            if let Some(store) = state.store.as_mut() {
                if faults.crash_before_append(state.flushes) {
                    kill_write_plane(&mut pending, shared);
                }
                let tear = faults.torn_write(state.flushes);
                let flip = faults.bit_flip(state.flushes);
                match store.log_batch(&applied_ops, state.flushes, tear, flip) {
                    Ok(_lsn) => {}
                    Err(e) => {
                        // The batch never reached the log: drop it
                        // unmerged, so the authoritative keyset matches
                        // durable state, and fail the tickets retryably.
                        stage.clear();
                        applied_ops.clear();
                        failed += pending.len() as u64;
                        for response in pending.drain(..) {
                            response.fulfill(Err(e.clone()));
                        }
                    }
                }
                if tear || faults.crash_after_append(state.flushes) {
                    kill_write_plane(&mut pending, shared);
                }
            }
        }
        let mut epochs_published = 0u64;
        if !applied_ops.is_empty() {
            state.keyset.commit(&mut stage);
            let epoch = match (state.build)(&state.keyset) {
                Ok(next) => {
                    // Injected publish delay: the epoch swap itself stays
                    // atomic; readers simply serve the previous epoch for
                    // longer (staleness, never inconsistency).
                    if let Some(delay) = faults.delayed_publish(state.flushes) {
                        // lis-analysis: allow(no-prod-sleep) — injected fault delay.
                        std::thread::sleep(delay);
                    }
                    // The retired epoch is freed by whichever reader lets
                    // go of it last.
                    drop(slot.publish(Arc::new(next)));
                    epochs_published = 1;
                    slot.epoch()
                }
                // The rebuild failed (e.g. the keyset shrank below a
                // builder's minimum): the writes are authoritative in the
                // keyset, the served snapshot lags, and the next flush
                // rebuilds.
                Err(_) => slot.epoch(),
            };
            for response in pending.drain(..) {
                response.fulfill(Ok(WriteStatus::Applied { epoch }));
            }
        }
        let applied = applied_ops.len() as u64;
        shared.writes_applied.fetch_add(applied, Ordering::Relaxed);
        shared
            .writes_rejected
            .fetch_add(rejected, Ordering::Relaxed);
        shared.writes_failed.fetch_add(failed, Ordering::Relaxed);
        let widx = shared.window_index(Instant::now());
        let mut windows = lock(&shared.writer_windows);
        if windows.len() <= widx {
            windows.resize(widx + 1, WriterWindow::default());
        }
        windows[widx].epochs += epochs_published;
        windows[widx].applied += applied;
        windows[widx].rejected += rejected;
        windows[widx].failed += failed;
        drop(windows);
        if let Some(rb) = state.rollback.as_mut() {
            rb.quarantined += applied as usize;
        }
        if applied > 0 {
            if let Some(store) = state.store.as_mut() {
                // Checkpoint cadence. An I/O failure here is non-fatal:
                // the WAL still holds the tail and the next flush retries.
                let _ = store.maybe_snapshot(&state.keyset, state.flushes);
            }
        }
        state.maintain_rollback(shared, slot);
    }
}

/// SIGKILL-equivalent exit from the writer: resolve the batch's
/// outstanding tickets first (a real kill leaves those clients with dead
/// connections; here the tickets must still resolve so no client blocks
/// forever), then unwind with [`ProcessKill`] so the supervisor shuts the
/// write plane down instead of restarting it.
fn kill_write_plane(pending: &mut Vec<Arc<ResponseSlot<WriteStatus>>>, shared: &Shared) -> ! {
    shared
        .writes_failed
        .fetch_add(pending.len() as u64, Ordering::Relaxed);
    for response in pending.drain(..) {
        response.fulfill(Err(LisError::Shutdown(
            "writer killed by injected storage fault".into(),
        )));
    }
    std::panic::resume_unwind(Box::new(ProcessKill));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::DurabilityLevel;
    use crate::write::AdmitAll;
    use lis_core::index::IndexRegistry;
    use lis_core::keys::KeySet;
    use lis_core::scratch::ScratchDir;

    fn served_index(n: u64) -> (KeySet, Arc<DynIndex>) {
        let ks = KeySet::from_keys((0..n).map(|i| i * 7 + 3).collect()).unwrap();
        let idx = IndexRegistry::with_defaults().build("rmi", &ks).unwrap();
        (ks, Arc::new(idx))
    }

    fn online_server(n: u64, index: &'static str) -> (KeySet, Server) {
        let domain = lis_core::keys::KeyDomain::new(0, 100_000_000).unwrap();
        let ks = KeySet::new((0..n).map(|i| i * 7 + 3).collect(), domain).unwrap();
        let registry = IndexRegistry::with_defaults();
        let server = Server::builder(ServeConfig::offline().workers(2).write_batch(8))
            .start_online(
                ks.clone(),
                move |ks| registry.build(index, ks),
                Box::new(AdmitAll),
            )
            .unwrap();
        (ks, server)
    }

    #[test]
    fn serve_all_matches_direct_batch() {
        let (ks, idx) = served_index(2_000);
        let probes: Vec<Key> = ks
            .keys()
            .iter()
            .step_by(3)
            .copied()
            .chain([0, 1, 999_999_999])
            .collect();
        let direct = idx.lookup_batch(&probes);
        let server = Server::start(Arc::clone(&idx), ServeConfig::offline());
        let served = server.serve_all(&probes).unwrap();
        let report = server.shutdown();
        assert_eq!(served, direct);
        assert_eq!(report.served as usize, probes.len());
        assert_eq!(report.latency.count() as usize, probes.len());
        assert_eq!(
            report.cost_units as usize,
            direct.iter().map(|r| r.cost).sum::<usize>()
        );
        assert!(report.throughput() > 0.0);
        assert!(report.mean_batch() >= 1.0);
        // The timeline accounts for every served request and cost unit.
        assert_eq!(
            report.timeline.iter().map(|w| w.served).sum::<u64>(),
            report.served
        );
        assert_eq!(
            report.timeline.iter().map(|w| w.cost_units).sum::<u64>(),
            report.cost_units
        );
    }

    #[test]
    fn closed_loop_lookup_answers() {
        let (ks, idx) = served_index(500);
        let server = Server::start(idx, ServeConfig::new().workers(2).batch(4));
        let handle = server.handle();
        for &k in ks.keys().iter().step_by(50) {
            assert!(handle.lookup(k).unwrap().found, "lost member {k}");
        }
        assert!(!handle.lookup(1).unwrap().found);
        let report = server.shutdown();
        assert_eq!(report.served, 11);
    }

    #[test]
    fn submit_after_shutdown_is_an_error() {
        let (_, idx) = served_index(100);
        let server = Server::start(idx, ServeConfig::offline());
        let handle = server.handle();
        server.shutdown();
        match handle.submit(42) {
            Err(err) => {
                assert!(matches!(err, LisError::Shutdown(_)), "got {err:?}");
                assert!(err.is_retryable());
            }
            Ok(_) => panic!("submit to a shut-down server succeeded"),
        }
    }

    #[test]
    fn config_zeros_are_clamped() {
        let (ks, idx) = served_index(64);
        let cfg = ServeConfig {
            workers: 0,
            queue_depth: 0,
            batch: 0,
            deadline: Duration::from_micros(0),
            write_queue_depth: 0,
            write_batch: 0,
            write_deadline: Duration::from_micros(0),
            window: Duration::from_micros(0),
        };
        let server = Server::start(idx, cfg);
        let served = server.serve_all(ks.keys()).unwrap();
        assert!(served.iter().all(|r| r.found));
        server.shutdown();
    }

    #[test]
    fn panicking_lookup_fails_the_request_without_stranding_clients() {
        use lis_core::index::LearnedIndex;
        struct PanickyIndex;
        impl LearnedIndex for PanickyIndex {
            fn lookup(&self, _: Key) -> Lookup {
                panic!("intentional lookup bug")
            }
            fn loss(&self) -> f64 {
                0.0
            }
            fn memory_bytes(&self) -> usize {
                1
            }
            fn len(&self) -> usize {
                1
            }
        }
        let index = Arc::new(DynIndex::new("boom", PanickyIndex));
        let server = Server::start(index, ServeConfig::new().workers(2).batch(4));
        let handle = server.handle();
        // Every request gets an answer — an error, not a hang.
        for key in 0..20 {
            match handle.lookup(key) {
                Err(LisError::Invariant(msg)) => assert!(msg.contains("panicked"), "{msg}"),
                other => panic!("expected Invariant error, got {other:?}"),
            }
        }
        // Workers survived the panics: shutdown joins cleanly and nothing
        // was counted as served.
        let report = server.shutdown();
        assert_eq!(report.served, 0);
        assert!(report.latency.is_empty());
    }

    #[test]
    fn per_worker_histograms_merge_into_one_report() {
        let (ks, idx) = served_index(1_000);
        let server = Server::start(Arc::clone(&idx), ServeConfig::new().workers(4).batch(8));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let handle = server.handle();
                let keys = ks.keys();
                scope.spawn(move || {
                    for &k in keys.iter().step_by(10) {
                        handle.lookup(k).unwrap();
                    }
                });
            }
        });
        let report = server.shutdown();
        // 4 closed-loop clients x 100 requests, all accounted for in the
        // merged histogram regardless of which worker served them.
        assert_eq!(report.served, 400);
        assert_eq!(report.latency.count(), 400);
    }

    #[test]
    fn stats_snapshot_while_live() {
        let (ks, idx) = served_index(300);
        let server = Server::start(idx, ServeConfig::offline());
        server.serve_all(ks.keys()).unwrap();
        let snap = server.stats();
        assert_eq!(snap.served, 300);
        assert_eq!(snap.index, "rmi");
        let report = server.shutdown();
        assert_eq!(report.served, 300);
    }

    /// The contract behind `stats_snapshot_while_live` and deadline
    /// shedding, pinned without timing: a request is counted before its
    /// answer is released, so the client that holds the answer finds it
    /// in `stats()` and in the service-time estimate.
    #[test]
    fn request_is_counted_before_its_answer_is_released() {
        let (ks, idx) = served_index(64);
        for _ in 0..32 {
            let server = Server::start(Arc::clone(&idx), ServeConfig::new().workers(1));
            let handle = server.handle();
            for (i, &k) in ks.keys().iter().take(10).enumerate() {
                assert!(handle.lookup(k).unwrap().found);
                assert_eq!(server.stats().served, i as u64 + 1);
                assert!(handle.shared.estimated_wait(1).is_some());
            }
            server.shutdown();
        }
    }

    #[test]
    fn fulfilling_tickets_nobody_waits_on_issues_no_wake() {
        for i in 0..1_000 {
            let slot = ResponseSlot::new();
            slot.fulfill(Ok(i));
            assert_eq!(slot.ready.wakes_issued(), 0);
            assert_eq!(slot.wait().unwrap(), i);
        }
    }

    #[test]
    fn parked_ticket_holder_gets_exactly_one_wake() {
        let slot = Arc::new(ResponseSlot::new());
        let holder = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        drop(slot.ready.await_parked(&slot.result));
        slot.fulfill(Ok(9u32));
        assert_eq!(holder.join().unwrap().unwrap(), 9);
        assert_eq!(slot.ready.wakes_issued(), 1);
    }

    #[test]
    fn wait_timeout_gives_up_on_a_stalled_server() {
        use lis_core::index::LearnedIndex;
        struct SlowIndex;
        impl LearnedIndex for SlowIndex {
            fn lookup(&self, _: Key) -> Lookup {
                std::thread::sleep(Duration::from_millis(250));
                Lookup::membership(true, 1)
            }
            fn loss(&self) -> f64 {
                0.0
            }
            fn memory_bytes(&self) -> usize {
                1
            }
            fn len(&self) -> usize {
                1
            }
        }
        let index = Arc::new(DynIndex::new("slow", SlowIndex));
        let server = Server::start(index, ServeConfig::new().workers(1).batch(1));
        let handle = server.handle();
        let ticket = handle.submit(1).unwrap();
        match ticket.wait_timeout(Duration::from_millis(10)) {
            Err(LisError::Timeout(waited)) => {
                assert_eq!(waited, Duration::from_millis(10));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        // A patient ticket on the same stalled server still gets served —
        // the timeout abandoned one ticket, not the request plane.
        let patient = handle.submit(2).unwrap();
        assert!(patient.wait_timeout(Duration::from_secs(30)).unwrap().found);
        server.shutdown();
    }

    #[test]
    fn writes_to_read_only_server_are_unsupported() {
        let (_, idx) = served_index(100);
        let server = Server::start(idx, ServeConfig::offline());
        let handle = server.handle();
        assert!(matches!(
            handle.write(WriteOp::Insert(1), 0),
            Err(LisError::Unsupported(_))
        ));
        server.shutdown();
    }

    #[test]
    fn online_rmi_serves_writes_through_epoch_rebuilds() {
        // Every victim takes the same path, updatable ALEX included: each
        // epoch is rebuilt from the keyset.
        for index in ["rmi", "alex"] {
            let (ks, server) = online_server(2_000, index);
            let handle = server.handle();
            // A fresh key is invisible, then visible after its epoch lands.
            assert!(!handle.lookup(1).unwrap().found);
            let status = handle.write(WriteOp::Insert(1), 7).unwrap();
            let epoch = match status {
                WriteStatus::Applied { epoch } => epoch,
                other => panic!("{index}: expected Applied, got {other:?}"),
            };
            assert!(epoch >= 1);
            assert!(
                handle.lookup(1).unwrap().found,
                "{index}: epoch swap lost the write"
            );
            // Removal takes effect the same way.
            let victim = ks.keys()[100];
            assert!(handle.lookup(victim).unwrap().found);
            assert!(handle
                .write(WriteOp::Remove(victim), 7)
                .unwrap()
                .is_applied());
            assert!(!handle.lookup(victim).unwrap().found);
            // Validation failures are terminal and do not bump the epoch.
            let before = server.epoch();
            assert!(matches!(
                handle.write(WriteOp::Insert(1), 7).unwrap(),
                WriteStatus::Failed { .. }
            ));
            assert!(matches!(
                handle.write(WriteOp::Remove(999_999_999), 7).unwrap(),
                WriteStatus::Failed { .. }
            ));
            assert_eq!(server.epoch(), before);
            for &k in ks.keys().iter().step_by(211) {
                assert!(handle.lookup(k).unwrap().found, "{index}: lost member {k}");
            }
            let report = server.shutdown();
            assert_eq!(report.writes_applied, 2);
            assert_eq!(report.writes_failed, 2);
            assert_eq!(report.epochs, 2, "{index}: one epoch per applied batch");
            assert_eq!(
                report.timeline.iter().map(|w| w.epochs).sum::<u64>(),
                report.epochs
            );
        }
    }

    #[test]
    fn admission_policy_rejects_and_is_reported() {
        struct OddOnly;
        impl AdmissionPolicy for OddOnly {
            fn name(&self) -> &str {
                "odd-only"
            }
            fn admit(&mut self, op: &WriteOp, _source: u64, _ks: &dyn KeyView) -> Admission {
                if op.key() % 2 == 1 {
                    Admission::Admit
                } else {
                    Admission::Reject("odd-only".into())
                }
            }
        }
        let ks = KeySet::from_keys((0..500u64).map(|i| i * 7 + 3).collect()).unwrap();
        let registry = IndexRegistry::with_defaults();
        let server = Server::builder(ServeConfig::offline().workers(1))
            .start_online(ks, move |ks| registry.build("btree", ks), Box::new(OddOnly))
            .unwrap();
        let handle = server.handle();
        assert!(handle.write(WriteOp::Insert(11), 0).unwrap().is_applied());
        match handle.write(WriteOp::Insert(12), 0).unwrap() {
            WriteStatus::Rejected { filter } => assert_eq!(filter, "odd-only"),
            other => panic!("expected Rejected, got {other:?}"),
        }
        assert!(handle.lookup(11).unwrap().found);
        assert!(!handle.lookup(12).unwrap().found);
        let report = server.shutdown();
        assert_eq!(report.writes_applied, 1);
        assert_eq!(report.writes_rejected, 1);
        assert_eq!(
            report
                .timeline
                .iter()
                .map(|w| w.writes_rejected)
                .sum::<u64>(),
            1
        );
    }

    #[test]
    fn concurrent_reads_survive_a_write_burst() {
        let (ks, server) = online_server(4_000, "rmi");
        let members: Vec<Key> = ks.keys().to_vec();
        std::thread::scope(|scope| {
            let write_handle = server.handle();
            scope.spawn(move || {
                for i in 0..400u64 {
                    let status = write_handle.write(WriteOp::Insert(i * 7 + 4), 1).unwrap();
                    assert!(status.is_applied(), "write {i} not applied: {status:?}");
                }
            });
            for _ in 0..2 {
                let handle = server.handle();
                let members = &members;
                scope.spawn(move || {
                    // Original members stay found through every epoch swap
                    // (the campaign only inserts).
                    for _ in 0..5 {
                        for &k in members.iter().step_by(17) {
                            assert!(handle.lookup(k).unwrap().found, "lost member {k}");
                        }
                    }
                });
            }
        });
        let report = server.shutdown();
        assert_eq!(report.writes_applied, 400);
        assert!(report.epochs >= 1);
        assert!(report.served > 0);
    }

    #[test]
    fn injected_worker_death_is_survived_and_counted() {
        use crate::fault::FaultConfig;
        let (ks, idx) = served_index(400);
        let faults = FaultInjector::seeded(FaultConfig::new(0xC4A05).worker_panic(0.3));
        let server = Server::builder(ServeConfig::new().workers(2).batch(4))
            .faults(faults.clone())
            .start(idx);
        let handle = server.handle();
        let policy = RetryPolicy::new(16);
        // Every member answers correctly despite repeated worker deaths —
        // a fault costs retries, never a wrong or lost answer.
        for &k in ks.keys().iter().step_by(5) {
            assert!(handle.lookup_retry(k, &policy).unwrap().found, "lost {k}");
        }
        assert!(!handle.lookup_retry(1, &policy).unwrap().found);
        faults.disarm();
        let report = server.shutdown();
        assert!(
            report.workers_restarted >= 1,
            "p=0.3 over ~81 batches fired nothing: {report:?}"
        );
        assert!(faults.fired(crate::fault::FaultSite::WorkerPanic) >= 1);
    }

    #[test]
    fn injected_writer_crash_recovers_and_write_retry_lands() {
        use crate::fault::FaultConfig;
        let ks = KeySet::from_keys((0..800u64).map(|i| i * 7 + 3).collect()).unwrap();
        let registry = IndexRegistry::with_defaults();
        let faults = FaultInjector::seeded(FaultConfig::new(0xC4A06).writer_crash(0.5));
        let server = Server::builder(ServeConfig::offline().workers(1).write_batch(4))
            .faults(faults.clone())
            .start_online(
                ks.clone(),
                move |ks| registry.build("btree", ks),
                Box::new(AdmitAll),
            )
            .unwrap();
        let handle = server.handle();
        let policy = RetryPolicy::new(16);
        for i in 0..30u64 {
            let status = handle
                .write_retry(WriteOp::Insert(i * 7 + 4), 1, &policy)
                .unwrap();
            assert!(status.is_applied(), "write {i}: {status:?}");
        }
        faults.disarm();
        // Every retried write is durable across the crashes: the restarted
        // writer rebuilt from the authoritative keyset, losing nothing.
        for i in 0..30u64 {
            assert!(handle.lookup(i * 7 + 4).unwrap().found, "lost write {i}");
        }
        for &k in ks.keys().iter().step_by(97) {
            assert!(handle.lookup(k).unwrap().found, "lost member {k}");
        }
        let report = server.shutdown();
        assert!(
            report.writer_restarts >= 1,
            "p=0.5 over >=30 flushes fired nothing: {report:?}"
        );
        assert_eq!(report.writes_applied, 30);
    }

    #[test]
    fn injected_stalls_delay_but_do_not_lose_writes() {
        use crate::fault::FaultConfig;
        let ks = KeySet::from_keys((0..300u64).map(|i| i * 7 + 3).collect()).unwrap();
        let registry = IndexRegistry::with_defaults();
        let faults = FaultInjector::seeded(
            FaultConfig::new(0xC4A07)
                .writer_stall(1.0, Duration::from_millis(2))
                .delayed_publish(1.0, Duration::from_millis(2)),
        );
        let server = Server::builder(ServeConfig::offline().workers(1))
            .faults(faults.clone())
            .start_online(
                ks,
                move |ks| registry.build("btree", ks),
                Box::new(AdmitAll),
            )
            .unwrap();
        let handle = server.handle();
        for i in 0..5u64 {
            assert!(handle
                .write(WriteOp::Insert(i * 7 + 4), 0)
                .unwrap()
                .is_applied());
            assert!(handle.lookup(i * 7 + 4).unwrap().found);
        }
        let report = server.shutdown();
        assert_eq!(report.writes_applied, 5);
        assert!(faults.fired(crate::fault::FaultSite::WriterStall) >= 5);
        assert!(faults.fired(crate::fault::FaultSite::DelayedPublish) >= 5);
    }

    #[test]
    fn deadline_shedding_trips_under_saturation() {
        use crate::fault::FaultConfig;
        let (ks, idx) = served_index(200);
        // Every batch eats a 5ms injected spike on one worker: the
        // service-time estimate inflates, so a microsecond deadline on a
        // backed-up queue must shed.
        let faults = FaultInjector::seeded(
            FaultConfig::new(0xC4A08).slow_batch(1.0, Duration::from_millis(5)),
        );
        let server = Server::builder(ServeConfig::new().workers(1).batch(1).queue_depth(64))
            .faults(faults)
            .start(idx);
        let handle = server.handle();
        // Prime the service-time estimate (shedding is conservative until
        // at least one batch has been measured).
        assert!(handle.lookup(ks.keys()[0]).unwrap().found);
        let mut tickets = Vec::new();
        for &k in ks.keys().iter().take(20) {
            tickets.push(handle.submit(k).unwrap());
        }
        let mut shed = 0u64;
        for &k in ks.keys().iter().take(10) {
            match handle.submit_with_deadline(k, Duration::from_micros(1)) {
                Err(LisError::Overloaded {
                    estimated_wait,
                    deadline,
                }) => {
                    shed += 1;
                    assert!(estimated_wait > deadline);
                }
                Ok(ticket) => tickets.push(ticket),
                Err(other) => panic!("expected Overloaded, got {other:?}"),
            }
        }
        assert!(shed >= 1, "saturated queue shed nothing");
        for ticket in tickets {
            assert!(ticket.wait().unwrap().found);
        }
        let report = server.shutdown();
        assert_eq!(report.shed, shed);
        // A generous deadline still admits once the backlog drains.
        // (Server is gone; the counter equality above is the contract.)
    }

    #[test]
    fn drift_rollback_quarantines_poison_writes() {
        /// Calibrates on the first completed window, then judges every
        /// later one degraded — a deterministic stand-in for a real drift
        /// monitor, so the rollback mechanics are testable in isolation.
        struct TripAfter {
            healthy_left: usize,
        }
        impl RollbackPolicy for TripAfter {
            fn name(&self) -> &str {
                "trip-after"
            }
            fn observe(&mut self, _start_ms: u64, _served: u64, _mean_cost: f64) -> DriftVerdict {
                if self.healthy_left > 0 {
                    self.healthy_left -= 1;
                    DriftVerdict::Healthy
                } else {
                    DriftVerdict::Degraded
                }
            }
        }
        let domain = lis_core::keys::KeyDomain::new(0, 10_000).unwrap();
        let ks = KeySet::new((0..500u64).map(|i| i * 7 + 3).collect(), domain).unwrap();
        let registry = IndexRegistry::with_defaults();
        let server = Server::builder(
            ServeConfig::offline()
                .workers(1)
                .window(Duration::from_millis(5)),
        )
        .rollback(Box::new(TripAfter { healthy_left: 1 }))
        .start_online(
            ks.clone(),
            move |ks| registry.build("btree", ks),
            Box::new(AdmitAll),
        )
        .unwrap();
        let handle = server.handle();
        // A "poison" write lands and is visible...
        assert!(handle.write(WriteOp::Insert(1), 9).unwrap().is_applied());
        assert!(handle.lookup(1).unwrap().found);
        // ...until read traffic fills enough windows for the policy to
        // trip and the writer to quarantine it.
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.stats().rollbacks == 0 {
            assert!(Instant::now() < deadline, "rollback never fired");
            for &k in ks.keys().iter().step_by(100) {
                handle.lookup(k).unwrap();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Post-rollback: the quarantined write is gone, the checkpoint
        // members all survive.
        let gone = Instant::now() + Duration::from_secs(20);
        while handle.lookup(1).unwrap().found {
            assert!(Instant::now() < gone, "quarantined write still served");
            std::thread::sleep(Duration::from_millis(2));
        }
        for &k in ks.keys().iter().step_by(50) {
            assert!(handle.lookup(k).unwrap().found, "rollback lost member {k}");
        }
        let report = server.shutdown();
        assert!(report.rollbacks >= 1);
        assert!(report.writes_quarantined >= 1);
    }

    /// End-to-end durable path: acked writes survive a clean shutdown,
    /// and a server resumed from `recover` continues the timeline (new
    /// LSNs, new writes, the persisted fault-schedule counter).
    #[test]
    fn durable_server_persists_acked_writes_across_restart() {
        // Every fsync level keeps the same contract; levels differ only
        // in how much of it a power loss (not a process exit) could void.
        for level in [
            DurabilityLevel::Batch,
            DurabilityLevel::Window,
            DurabilityLevel::None,
        ] {
            let scratch = ScratchDir::new(&format!("server-restart-{}", level.as_str())).unwrap();
            let dir = scratch.path();
            let domain = lis_core::keys::KeyDomain::new(0, 100_000_000).unwrap();
            let ks = KeySet::new((0..500u64).map(|i| i * 7 + 3).collect(), domain).unwrap();
            let registry = IndexRegistry::with_defaults();
            let server = Server::builder(ServeConfig::offline().workers(1).write_batch(8))
                .durability(Durability::dir(dir).level(level).snapshot_every(64))
                .start_online(
                    ks.clone(),
                    move |ks| registry.build("btree", ks),
                    Box::new(AdmitAll),
                )
                .unwrap();
            let handle = server.handle();
            let mut acked = Vec::new();
            for i in 0..40u64 {
                let key = i * 7 + 4;
                assert!(handle.write(WriteOp::Insert(key), 1).unwrap().is_applied());
                acked.push(key);
            }
            let removed = ks.keys()[0];
            assert!(handle
                .write(WriteOp::Remove(removed), 1)
                .unwrap()
                .is_applied());
            server.shutdown();

            let rec = crate::durability::recover(dir).unwrap();
            let mut expect = ks.clone();
            for &k in &acked {
                expect.insert(k).unwrap();
            }
            expect.remove(removed).unwrap();
            assert_eq!(
                rec.keyset.keys(),
                expect.keys(),
                "{level:?}: recovered != live"
            );
            // Clean shutdown checkpointed, so the tail replays nothing.
            assert_eq!(rec.replayed_records, 0);

            // Resume the timeline under the same directory.
            let registry = IndexRegistry::with_defaults();
            let resumed = Server::builder(ServeConfig::offline().workers(1).write_batch(8))
                .durability(Durability::resume(dir, &rec).level(level))
                .start_online(
                    rec.keyset.clone(),
                    move |ks| registry.build("btree", ks),
                    Box::new(AdmitAll),
                )
                .unwrap();
            let handle = resumed.handle();
            for &k in &acked {
                assert!(
                    handle.lookup(k).unwrap().found,
                    "{level:?}: lost acked write {k}"
                );
            }
            assert!(!handle.lookup(removed).unwrap().found);
            assert!(handle
                .write(WriteOp::Insert(99_999_999), 1)
                .unwrap()
                .is_applied());
            resumed.shutdown();
            let rec2 = crate::durability::recover(dir).unwrap();
            assert!(rec2.keyset.contains(99_999_999));
            assert!(rec2.last_lsn > rec.last_lsn, "resumed LSNs must advance");
        }
    }

    /// A storage kill (`crash_after_append` at p=1) is NOT a writer
    /// restart: the write plane closes, queued tickets resolve with a
    /// retryable error, reads keep serving, and recovery from the
    /// directory holds everything the log captured.
    #[test]
    fn storage_kill_closes_write_plane_without_restart() {
        use crate::fault::FaultConfig;
        let scratch = ScratchDir::new("server-kill").unwrap();
        let dir = scratch.path();
        let domain = lis_core::keys::KeyDomain::new(0, 100_000_000).unwrap();
        let ks = KeySet::new((0..400u64).map(|i| i * 7 + 3).collect(), domain).unwrap();
        let registry = IndexRegistry::with_defaults();
        let faults = FaultInjector::seeded(FaultConfig::new(0xD0D0).crash_after_append(1.0));
        let server = Server::builder(ServeConfig::offline().workers(1).write_batch(4))
            .durability(Durability::dir(dir))
            .faults(faults)
            .start_online(
                ks.clone(),
                move |ks| registry.build("btree", ks),
                Box::new(AdmitAll),
            )
            .unwrap();
        let handle = server.handle();
        let err = handle.write(WriteOp::Insert(11), 1).unwrap_err();
        assert!(matches!(err, LisError::Shutdown(_)), "got {err:?}");
        assert!(err.is_retryable());
        // The write plane is closed for good — no restart loop.
        let follow_up = handle.write(WriteOp::Insert(12), 1);
        assert!(follow_up.is_err(), "write plane must stay closed");
        // Reads still serve the last published epoch.
        assert!(handle.lookup(ks.keys()[0]).unwrap().found);
        // The kill fired *after* the append: the un-acked write is on
        // disk. Recovery holding writes the client saw fail is
        // legitimate; the reverse direction (acked but lost) never is.
        let rec = crate::durability::recover(dir).unwrap();
        assert!(rec.keyset.contains(11), "appended batch lost");
        let report = server.shutdown();
        assert_eq!(report.writer_restarts, 0, "kill must not restart");
    }
}

/// Model-checking tests: `lis_check` explores read-ticket waits against
/// `fulfill` over the real `ResponseSlot`, including the schedules where
/// the worker skips the wake-up because the holder has not parked yet.
/// (`crate::write::model_tests` runs the write-ticket twins.)
#[cfg(all(test, feature = "check"))]
mod model_tests {
    use super::*;
    use lis_check::{thread, try_check, CheckConfig};
    use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};

    fn cfg() -> CheckConfig {
        CheckConfig::new().min_schedules(300)
    }

    fn ticket_and_slot() -> (ResponseTicket, Arc<ResponseSlot<Lookup>>) {
        let slot = Arc::new(ResponseSlot::new());
        let ticket = ResponseTicket {
            slot: Arc::clone(&slot),
        };
        (ticket, slot)
    }

    #[test]
    fn read_ticket_wait_is_never_stranded_by_fulfill_order() {
        try_check("read-ticket-wait", cfg(), || {
            let (ticket, slot) = ticket_and_slot();
            let worker = {
                let slot = Arc::clone(&slot);
                thread::spawn(move || slot.fulfill(Ok(Lookup::membership(true, 3))))
            };
            let hit = ticket.wait().unwrap();
            assert!(hit.found && hit.cost == 3, "fulfillment lost");
            worker.join().unwrap();
            assert_eq!(slot.ready.parked(), 0);
        })
        .expect("wait must see the fulfillment under every schedule");
    }

    /// Zero timeout against a fulfiller: exactly one outcome. When expiry
    /// wins, the ticket is dropped and the worker's late `fulfill` lands
    /// on a slot nobody holds — it must find nobody parked and return.
    #[test]
    fn read_ticket_expiry_vs_fulfill_resolves_exactly_once() {
        let fulfilled = Arc::new(AtomicUsize::new(0));
        let expired = Arc::new(AtomicUsize::new(0));
        let (f, e) = (Arc::clone(&fulfilled), Arc::clone(&expired));
        try_check("read-ticket-timeout", cfg(), move || {
            let (ticket, slot) = ticket_and_slot();
            let worker = {
                let slot = Arc::clone(&slot);
                thread::spawn(move || slot.fulfill(Ok(Lookup::membership(true, 3))))
            };
            match ticket.wait_timeout(Duration::ZERO) {
                Ok(hit) => {
                    assert!(hit.found);
                    f.fetch_add(1, StdOrdering::SeqCst);
                }
                Err(LisError::Timeout(_)) => {
                    e.fetch_add(1, StdOrdering::SeqCst);
                }
                Err(other) => panic!("expected a hit or Timeout, got {other:?}"),
            }
            worker.join().unwrap();
            assert_eq!(slot.ready.wakes_issued(), 0, "nobody ever parked");
        })
        .expect("ticket race must resolve to exactly one outcome");
        assert!(
            fulfilled.load(StdOrdering::SeqCst) > 0,
            "exploration never saw the fulfiller win"
        );
        assert!(
            expired.load(StdOrdering::SeqCst) > 0,
            "exploration never saw the expiry win"
        );
    }

    /// A parked holder whose (far-future) timeout the scheduler fires
    /// early re-parks, while `fulfill` may read the count on either side
    /// of that: the answer still arrives under every schedule.
    #[test]
    fn read_ticket_timed_wait_rides_out_early_timeouts() {
        try_check("read-ticket-timed-wait", cfg(), || {
            let (ticket, slot) = ticket_and_slot();
            let holder = thread::spawn(move || ticket.wait_timeout(Duration::from_secs(3600)));
            slot.fulfill(Ok(Lookup::membership(true, 3)));
            assert!(holder.join().unwrap().unwrap().found, "fulfillment lost");
            assert_eq!(slot.ready.parked(), 0);
        })
        .expect("a timed wait must see the fulfillment under every schedule");
    }
}
