//! The persistent work-stealing worker pool — the serving plane's one
//! home for threads.
//!
//! Every fan-out in the workspace used to spawn scoped threads per batch
//! (server workers aside): RMI leaf training, sharded builds,
//! sharded oversize lookups. A [`WorkerPool`] replaces all of them with
//! one fixed set of workers, spawned once and reused: it implements
//! [`lis_core::par::Fanout`], and [`shared`] registers the process-wide
//! instance with `lis_core::par` so every `map_chunks`/`fanout` call —
//! build plane and read plane alike — runs on pooled threads from then
//! on.
//!
//! ## Design
//!
//! * **Work stealing** — each worker owns a deque; a fan-out deals its
//!   units across the deques round-robin, and an idle worker drains its
//!   own deque first, then steals from the others. Idle workers park on
//!   a condvar and are woken when work arrives.
//! * **Callers help** — the thread that submits a fan-out does not
//!   block-and-hope: it executes pending units itself until its run
//!   completes. This is what makes *nested* fan-outs compose (a pooled
//!   unit that submits a sub-fan-out drains it from inside the pool)
//!   and keeps a single-worker pool deadlock-free by construction.
//! * **Checked primitives** — every lock, condvar, and atomic comes
//!   through the `crate::sync` facade, so `--features check` model
//!   tests explore park/unpark, stealing, and shutdown interleavings
//!   over the *real* pool code (see `model_tests`).
//! * **Allocation-free steady state** — completion records are pooled
//!   ([`ScratchPool`]) and unit deques keep their capacity, so a warmed
//!   pool serves read-path fan-outs (sharded oversize batches) with
//!   zero allocations per batch; `Arc` clones only bump refcounts.
//!
//! Long-running serving loops (server workers, the writer) are *not*
//! fan-out units — they occupy a thread for the server's lifetime — so
//! they get dedicated threads via [`spawn_dedicated`], keeping this
//! module the one sanctioned spawn site of the serving plane. Worker
//! supervision uses the same door: when a supervised worker dies to an
//! injected fault, its replacement is respawned through
//! [`spawn_dedicated`], never via an ad-hoc `std::thread::spawn`.

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{lock, wait, Condvar, Mutex};
use lis_core::par::{self, Fanout, FanoutTask};
use lis_core::scratch::ScratchPool;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, OnceLock};

/// One schedulable unit of a fan-out: `task.run(idx)`.
struct Unit {
    task: Arc<dyn FanoutTask>,
    idx: usize,
    run: Arc<RunRecord>,
}

/// Completion latch of one fan-out call, pooled and reused across runs.
struct RunRecord {
    /// Units in this run.
    total: AtomicUsize,
    /// Units finished so far; the unit that makes this equal `total`
    /// signals `done`/`done_cv`.
    completed: AtomicUsize,
    /// Whether any unit panicked (the waiter re-panics after the run).
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl RunRecord {
    fn new() -> Self {
        Self {
            total: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }
}

/// Shared pool state: worker deques, the park lock, and pooled latches.
struct PoolShared {
    /// Per-worker unit deques; fan-outs deal units across them
    /// round-robin and idle workers steal from their neighbours.
    locals: Vec<Mutex<VecDeque<Unit>>>,
    /// Park lock (no data — pairs with `work_cv`).
    park: Mutex<()>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    /// Pooled completion latches: a warmed pool runs fan-outs without
    /// allocating.
    records: ScratchPool<Arc<RunRecord>>,
}

impl PoolShared {
    /// Pops a unit, preferring worker `home`'s own deque, then stealing
    /// from the others in ring order.
    fn grab(&self, home: usize) -> Option<Unit> {
        let k = self.locals.len();
        for off in 0..k {
            if let Some(unit) = lock(&self.locals[(home + off) % k]).pop_front() {
                return Some(unit);
            }
        }
        None
    }

    /// Whether any deque holds a unit.
    fn has_work(&self) -> bool {
        self.locals.iter().any(|q| !lock(q).is_empty())
    }

    /// Executes one unit: run it (containing panics), release the task
    /// clone, then complete the latch — in that order, so by the time a
    /// waiter observes completion every backend `Arc` clone of the task
    /// is gone and call sites can `Arc::try_unwrap` their captures.
    fn execute(&self, unit: Unit) {
        let Unit { task, idx, run } = unit;
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // A unit is a fan-out worker while it runs, so a lock-step scan
            // inside it stays on its thread instead of spawning lanes.
            let _fanout = par::enter_fanout_worker();
            task.run(idx)
        }));
        drop(task);
        if outcome.is_err() {
            run.panicked.store(true, Ordering::Release);
        }
        let total = run.total.load(Ordering::Acquire);
        if run.completed.fetch_add(1, Ordering::AcqRel) + 1 == total {
            let mut done = lock(&run.done);
            *done = true;
            run.done_cv.notify_all();
        }
    }

    /// Submits `n` units of `task` and helps execute until all complete.
    fn run_units(&self, task: &Arc<dyn FanoutTask>, n: usize) {
        if n == 0 {
            return;
        }
        let record = self.records.acquire_or(|| Arc::new(RunRecord::new()));
        record.total.store(n, Ordering::Release);
        record.completed.store(0, Ordering::Release);
        record.panicked.store(false, Ordering::Release);
        *lock(&record.done) = false;

        let k = self.locals.len();
        for idx in 0..n {
            let unit = Unit {
                task: Arc::clone(task),
                idx,
                run: Arc::clone(&record),
            };
            lock(&self.locals[idx % k]).push_back(unit);
        }
        {
            // Notify under the park lock so a worker between its empty
            // deque check and its wait cannot miss the wakeup.
            let _parked = lock(&self.park);
            self.work_cv.notify_all();
        }

        // Help: drain pending units (this run's or any other's — both
        // make global progress) and only sleep when nothing is
        // grabbable, i.e. every remaining unit is already in flight.
        loop {
            if let Some(unit) = self.grab(0) {
                self.execute(unit);
                continue;
            }
            let mut done = lock(&record.done);
            while !*done && !self.has_work() {
                done = wait(&record.done_cv, done);
            }
            let finished = *done;
            drop(done);
            if finished {
                break;
            }
        }

        let panicked = record.panicked.load(Ordering::Acquire);
        self.records.release(record);
        if panicked {
            // lis-analysis: allow(serve-no-panic) — a fan-out unit
            // panicked; re-raising on the submitting thread is the
            // scoped-join behaviour every build path already expects.
            panic!("build worker panicked");
        }
    }

    fn worker_loop(&self, me: usize) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if let Some(unit) = self.grab(me) {
                self.execute(unit);
                continue;
            }
            let mut parked = lock(&self.park);
            while !self.shutdown.load(Ordering::Acquire) && !self.has_work() {
                parked = wait(&self.work_cv, parked);
            }
        }
    }
}

/// A persistent work-stealing pool (see the module docs). Usually used
/// through [`shared`]; tests and model checks build private instances.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<lis_check::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `threads.max(1)` workers.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: Mutex::new(()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            records: ScratchPool::new(),
        });
        let workers = (0..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                lis_check::thread::spawn(move || shared.worker_loop(me))
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of pooled worker threads.
    pub fn threads(&self) -> usize {
        self.shared.locals.len()
    }

    /// Signals shutdown and joins every worker. In-flight units finish;
    /// units still queued when the last worker checks out are drained
    /// only by helping callers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _parked = lock(&self.shared.park);
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            // lis-analysis: allow(serve-no-panic) — worker bodies contain
            // unit panics via catch_unwind, so a join error means the
            // pool machinery itself is broken; propagate loudly.
            handle.join().expect("pool worker panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl Fanout for WorkerPool {
    fn run(&self, task: &Arc<dyn FanoutTask>, n: usize) {
        self.shared.run_units(task, n);
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// Spawns a *dedicated* thread for a long-running serving loop (server
/// workers, the writer): such loops occupy their thread for the
/// server's lifetime, so running them as pool units would starve
/// fan-outs. Routed through the `lis_check` facade, so model tests can
/// spawn serving loops under the exploring scheduler. This and the pool
/// itself are the serving plane's only sanctioned spawn sites.
pub fn spawn_dedicated<F, T>(f: F) -> lis_check::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    lis_check::thread::spawn(f)
}

static SHARED: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide pool, created on first use and registered as the
/// [`lis_core::par`] fan-out backend — from then on every build-plane
/// and sharded read-plane fan-out in the process runs on it. Sized by
/// the machine's available parallelism.
pub fn shared() -> &'static WorkerPool {
    let pool = SHARED.get_or_init(|| WorkerPool::new(par::available_workers()));
    let _ = par::install_fanout(pool);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::atomic::Ordering as StdOrdering;

    struct CountTask(Vec<StdAtomicUsize>);

    impl FanoutTask for CountTask {
        fn run(&self, idx: usize) {
            self.0[idx].fetch_add(1, StdOrdering::Relaxed);
        }
    }

    fn count_task(n: usize) -> Arc<CountTask> {
        Arc::new(CountTask((0..n).map(|_| StdAtomicUsize::new(0)).collect()))
    }

    #[test]
    fn pool_runs_every_unit_exactly_once() {
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.threads(), threads);
            for n in [1usize, 3, 17] {
                let task = count_task(n);
                let shared: Arc<dyn FanoutTask> = Arc::clone(&task) as Arc<dyn FanoutTask>;
                pool.run(&shared, n);
                drop(shared);
                let task = Arc::into_inner(task).expect("pool must drop task clones");
                for (i, c) in task.0.iter().enumerate() {
                    assert_eq!(
                        c.load(StdOrdering::Relaxed),
                        1,
                        "unit {i} ({threads} threads)"
                    );
                }
            }
            pool.shutdown();
        }
    }

    #[test]
    fn warmed_pool_reuses_completion_records() {
        let pool = WorkerPool::new(2);
        let task = count_task(8);
        let shared: Arc<dyn FanoutTask> = Arc::clone(&task) as Arc<dyn FanoutTask>;
        pool.run(&shared, 8);
        assert_eq!(pool.shared.records.idle(), 1, "latch not pooled");
        pool.run(&shared, 8);
        assert_eq!(pool.shared.records.idle(), 1, "latch not reused");
        drop(shared);
        for c in &Arc::into_inner(task).expect("task clones leaked").0 {
            assert_eq!(c.load(StdOrdering::Relaxed), 2);
        }
    }

    #[test]
    fn nested_fanouts_compose_through_the_pool() {
        // A unit that submits a sub-fan-out from inside the pool and
        // helps drain it: must complete on any pool width, including a
        // single worker (caller-helping is the no-deadlock guarantee).
        struct Outer {
            shared: Arc<PoolShared>,
            inner: Arc<CountTask>,
        }
        impl FanoutTask for Outer {
            fn run(&self, _idx: usize) {
                let task: Arc<dyn FanoutTask> = Arc::clone(&self.inner) as Arc<dyn FanoutTask>;
                self.shared.run_units(&task, self.inner.0.len());
            }
        }
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let inner = count_task(6);
            let outer = Arc::new(Outer {
                shared: Arc::clone(&pool.shared),
                inner: Arc::clone(&inner),
            });
            let task: Arc<dyn FanoutTask> = outer as Arc<dyn FanoutTask>;
            pool.run(&task, 3);
            for (i, c) in inner.0.iter().enumerate() {
                assert_eq!(
                    c.load(StdOrdering::Relaxed),
                    3,
                    "unit {i} ({threads} threads)"
                );
            }
            pool.shutdown();
        }
    }

    #[test]
    #[should_panic(expected = "build worker panicked")]
    fn unit_panic_propagates_to_the_submitter() {
        struct Explode;
        impl FanoutTask for Explode {
            fn run(&self, idx: usize) {
                if idx == 2 {
                    panic!("unit 2 exploded");
                }
            }
        }
        let pool = WorkerPool::new(2);
        let task: Arc<dyn FanoutTask> = Arc::new(Explode);
        pool.run(&task, 5);
    }

    #[test]
    fn pool_survives_a_panicked_unit() {
        struct ExplodeOnce(StdAtomicUsize);
        impl FanoutTask for ExplodeOnce {
            fn run(&self, _idx: usize) {
                if self.0.fetch_add(1, StdOrdering::Relaxed) == 0 {
                    panic!("first unit explodes");
                }
            }
        }
        let pool = WorkerPool::new(2);
        let task: Arc<dyn FanoutTask> = Arc::new(ExplodeOnce(StdAtomicUsize::new(0)));
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(&task, 3)));
        assert!(poisoned.is_err(), "panic must reach the submitter");
        // The same pool keeps serving fresh fan-outs afterwards.
        let count = count_task(4);
        let shared: Arc<dyn FanoutTask> = Arc::clone(&count) as Arc<dyn FanoutTask>;
        pool.run(&shared, 4);
        drop(shared);
        for c in &Arc::into_inner(count).expect("task clones leaked").0 {
            assert_eq!(c.load(StdOrdering::Relaxed), 1);
        }
        pool.shutdown();
    }

    #[test]
    fn pooled_units_run_as_fanout_workers() {
        struct Marked(Vec<StdAtomicUsize>);
        impl FanoutTask for Marked {
            fn run(&self, idx: usize) {
                if par::in_fanout_worker() {
                    self.0[idx].fetch_add(1, StdOrdering::Relaxed);
                }
            }
        }
        let pool = WorkerPool::new(2);
        let task = Arc::new(Marked((0..6).map(|_| StdAtomicUsize::new(0)).collect()));
        let shared: Arc<dyn FanoutTask> = Arc::clone(&task) as Arc<dyn FanoutTask>;
        pool.run(&shared, 6);
        drop(shared);
        for (i, c) in Arc::into_inner(task)
            .expect("task clones leaked")
            .0
            .iter()
            .enumerate()
        {
            assert_eq!(c.load(StdOrdering::Relaxed), 1, "unit {i} ran unmarked");
        }
        assert!(!par::in_fanout_worker(), "marking leaked to the submitter");
        pool.shutdown();
    }

    #[test]
    fn spawn_dedicated_runs_to_completion() {
        let handle = spawn_dedicated(|| 41 + 1);
        assert_eq!(handle.join().expect("dedicated thread panicked"), 42);
    }

    #[test]
    fn shared_pool_installs_the_core_fanout_backend() {
        let pool = shared();
        assert!(pool.threads() >= 1);
        assert!(par::installed_fanout().is_some(), "backend not installed");
        // Core fan-outs now run on the pool; results stay bit-identical
        // to the serial path.
        let parallel = par::map_chunks(32, 8, |r| r.map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(parallel, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_map_chunks_is_bit_identical_at_every_depth() {
        // The composition satellite: with the shared pool installed,
        // nested map_chunks submits to the pool instead of degrading to
        // serial — and stays bit-identical to the serial result at
        // depths 1, 2, and 3.
        shared();
        let depth3 = |workers: usize| {
            par::map_chunks(3, workers, move |outer| {
                outer
                    .map(|i| {
                        par::map_chunks(4, workers, move |mid| {
                            mid.map(|j| {
                                par::map_chunks(5, workers, move |inner| {
                                    inner
                                        .map(|k| ((i * 100 + j * 10 + k) as f64).sqrt())
                                        .collect::<Vec<_>>()
                                })
                            })
                            .collect::<Vec<_>>()
                        })
                    })
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(depth3(8), depth3(1));
    }
}

/// Model-checking tests: `lis_check` explores park/unpark, steal, and
/// shutdown interleavings over the real pool code. Pools are built
/// *inside* the model closure so their primitives register with the
/// exploring scheduler.
#[cfg(all(test, feature = "check"))]
mod model_tests {
    use super::*;
    use lis_check::{try_check, CheckConfig};
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::atomic::Ordering as StdOrdering;

    fn cfg() -> CheckConfig {
        CheckConfig::new().min_schedules(500)
    }

    struct CountTask(Vec<StdAtomicUsize>);

    impl FanoutTask for CountTask {
        fn run(&self, idx: usize) {
            self.0[idx].fetch_add(1, StdOrdering::Relaxed);
        }
    }

    fn count_task(n: usize) -> Arc<CountTask> {
        Arc::new(CountTask((0..n).map(|_| StdAtomicUsize::new(0)).collect()))
    }

    /// Submission races worker wake-up and stealing: every unit must run
    /// exactly once under every schedule, and shutdown must join.
    #[test]
    fn every_unit_runs_once_under_every_schedule() {
        let report = try_check("pool-units-run-once", cfg(), || {
            let pool = WorkerPool::new(2);
            let task = count_task(3);
            let shared: Arc<dyn FanoutTask> = Arc::clone(&task) as Arc<dyn FanoutTask>;
            pool.run(&shared, 3);
            for (i, c) in task.0.iter().enumerate() {
                assert_eq!(
                    c.load(StdOrdering::Relaxed),
                    1,
                    "unit {i} ran a wrong count"
                );
            }
            pool.shutdown();
        })
        .expect("pool must run every unit exactly once");
        assert!(report.distinct >= 100 || report.exhausted);
    }

    /// A parked worker must wake for late work: two back-to-back runs
    /// with the worker possibly parked (or still spinning) in between.
    #[test]
    fn parked_worker_wakes_for_late_work() {
        try_check("pool-park-unpark", cfg(), || {
            let pool = WorkerPool::new(1);
            let task = count_task(2);
            let shared: Arc<dyn FanoutTask> = Arc::clone(&task) as Arc<dyn FanoutTask>;
            pool.run(&shared, 1);
            pool.run(&shared, 2);
            assert_eq!(task.0[0].load(StdOrdering::Relaxed), 2);
            assert_eq!(task.0[1].load(StdOrdering::Relaxed), 1);
            pool.shutdown();
        })
        .expect("a parked worker must wake for late work");
    }

    /// A nested fan-out submitted from inside a pooled unit must drain
    /// on a single-worker pool under every schedule — the caller-helps
    /// loop is the no-deadlock guarantee, and this is its model proof.
    #[test]
    fn nested_fanout_never_deadlocks_on_one_worker() {
        try_check("pool-nested-no-deadlock", cfg(), || {
            struct Outer {
                shared: Arc<PoolShared>,
                inner: Arc<CountTask>,
            }
            impl FanoutTask for Outer {
                fn run(&self, _idx: usize) {
                    let task: Arc<dyn FanoutTask> = Arc::clone(&self.inner) as Arc<dyn FanoutTask>;
                    self.shared.run_units(&task, self.inner.0.len());
                }
            }
            let pool = WorkerPool::new(1);
            let inner = count_task(2);
            let outer = Arc::new(Outer {
                shared: Arc::clone(&pool.shared),
                inner: Arc::clone(&inner),
            });
            let task: Arc<dyn FanoutTask> = outer as Arc<dyn FanoutTask>;
            pool.run(&task, 1);
            for c in &inner.0 {
                assert_eq!(c.load(StdOrdering::Relaxed), 1);
            }
            pool.shutdown();
        })
        .expect("nested fan-outs must not deadlock");
    }

    /// Shutdown racing an idle worker's park decision must always join:
    /// the worker is between its deque check and its wait at every
    /// explored point, and the under-lock notify may not be lost.
    #[test]
    fn shutdown_joins_through_the_park_race() {
        try_check("pool-shutdown-vs-park", cfg(), || {
            let pool = WorkerPool::new(2);
            pool.shutdown();
        })
        .expect("shutdown must join parked and parking workers");
    }
}
