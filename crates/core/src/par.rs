//! Fan-out for the build and batch planes, shared by every structure
//! that trains independent sub-models (RMI leaves, sharded composites,
//! pipeline victims) or serves oversize batches across shards.
//!
//! The discipline mirrors [`crate::shard::ShardedIndex`]: at most
//! `workers` execution lanes, each owning one *contiguous* chunk of the
//! job range — never one thread per job — and results concatenated in
//! job order, so the output is **bit-identical** regardless of the
//! worker count. Parallelism only changes which thread runs a chunk;
//! every chunk's internal computation is sequential and deterministic.
//! That invariant is what lets `tests/property_buildpath.rs` pin
//! `parallel build ≡ serial build` exactly.
//!
//! ## Execution backends
//!
//! Work is described as a [`FanoutTask`] — a shared job whose `run(i)`
//! units are independent — and executed by a [`Fanout`] backend:
//!
//! * **installed pool** — `lis_server`'s persistent work-stealing pool
//!   registers itself once via [`install_fanout`]; from then on every
//!   fan-out (builds, sharded oversize batches, nested training) reuses
//!   its threads instead of spawning. Pool fan-outs *compose*: a nested
//!   [`map_chunks`] submits sub-units to the same fixed-width pool and
//!   helps drain them, so parallelism never multiplies.
//! * **scoped fallback** — without a pool (plain `lis-core` users), a
//!   fan-out spawns at most `workers` scoped threads, and *nested*
//!   fan-outs run serially on their worker: the outer fan-out already
//!   owns the machine's parallelism budget, and nesting would multiply
//!   thread counts quadratically.
//! * **lock-step lanes** — [`lockstep`] is for a loop of short rounds
//!   over one table, such as Algorithm 1's greedy steps: each round is a
//!   scan of a few milliseconds or less, and every round depends on the
//!   last. It spawns one scoped thread per lane beyond the caller's own
//!   for the whole call and hands each round over with a short spin and
//!   then `yield_now`, never a park. The table is cut into small parts
//!   dealt out to the lanes in contiguous runs; a lane that has finished
//!   its own parts takes the ones another lane has not reached, so a lane
//!   whose CPU comes late costs a round at most one part.
//!   It does not use the pool: a parked pool worker woken for a unit of a
//!   few hundred microseconds often starts too late to matter. Measured on
//!   a 2-vCPU VM, a 2-unit fan-out of ~175 µs units took 357 µs at p50,
//!   the serial time, because the caller ran both units itself. A long
//!   spin before yielding is no better: when the caller and a lane share
//!   one CPU, the spinner holds it while the other waits, and one greedy
//!   campaign ran at 0.4× serial that way. Lanes that each own a fixed
//!   half of the table were not enough either: in periods when the second
//!   vCPU runs slowly or comes late, a step waits for the slow half, and
//!   the same campaign read 0.9× serial.

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// The machine's available parallelism (the default worker cap).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a caller-requested thread count against a job count:
/// `0` means "pick for me" (available parallelism), and the result is
/// clamped to `[1, jobs]` so short job lists never over-spawn. A single
/// job resolves to 1 without asking the OS for the parallelism, which
/// costs system calls.
pub fn effective_workers(threads: usize, jobs: usize) -> usize {
    if jobs <= 1 {
        return 1;
    }
    let requested = if threads == 0 {
        available_workers()
    } else {
        threads
    };
    requested.min(jobs).max(1)
}

/// A shared fan-out job: `run(idx)` is invoked exactly once for every
/// index in `0..n`, possibly concurrently from many threads, with no
/// ordering between units. Units communicate results through the task's
/// own interior-mutable slots (each unit touching only its own), which
/// is what keeps executions thread-placement-independent.
pub trait FanoutTask: Send + Sync {
    /// Executes unit `idx`.
    fn run(&self, idx: usize);
}

/// An executor of [`FanoutTask`]s: `run` returns once every unit in
/// `0..n` has completed. A panic inside any unit must propagate to the
/// caller as a panic whose payload contains `"build worker panicked"`.
pub trait Fanout: Send + Sync {
    /// Runs `task.run(i)` exactly once for every `i` in `0..n`.
    fn run(&self, task: &Arc<dyn FanoutTask>, n: usize);
}

static FANOUT: OnceLock<&'static dyn Fanout> = OnceLock::new();

/// Registers the process-wide fan-out executor (the serving plane's
/// persistent pool). First call wins and returns `true`; later calls
/// are ignored and return `false`. Once installed, every [`fanout`] /
/// [`map_chunks`] with `workers > 1` runs on the pool instead of
/// spawning scoped threads.
pub fn install_fanout(pool: &'static dyn Fanout) -> bool {
    FANOUT.set(pool).is_ok()
}

/// The installed executor, if any.
pub fn installed_fanout() -> Option<&'static dyn Fanout> {
    FANOUT.get().copied()
}

/// Runs `task.run(i)` for every `i` in `0..n` across up to `workers`
/// execution lanes, returning once all units completed. Dispatches to
/// the installed pool when one is registered; otherwise falls back to
/// scoped threads (serial inside a fan-out worker — see the module
/// docs on nesting).
pub fn fanout(task: &Arc<dyn FanoutTask>, n: usize, workers: usize) {
    if n == 0 {
        return;
    }
    let workers = workers.min(n).max(1);
    if workers > 1 {
        if let Some(pool) = installed_fanout() {
            pool.run(task, n);
            return;
        }
    }
    if workers <= 1 || in_fanout_worker() {
        let _guard = enter_fanout_worker();
        for i in 0..n {
            task.run(i);
        }
        return;
    }
    let per_worker = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(per_worker)
            .map(|start| {
                let end = (start + per_worker).min(n);
                let task = Arc::clone(task);
                scope.spawn(move || {
                    let _guard = enter_fanout_worker();
                    for i in start..end {
                        task.run(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("build worker panicked");
        }
    });
}

/// The [`FanoutTask`] behind [`map_chunks`]: unit `c` maps the `c`-th
/// contiguous job chunk through `f` into its own slot.
struct MapChunksTask<R, F> {
    f: F,
    jobs: usize,
    per_chunk: usize,
    slots: Vec<Mutex<Vec<R>>>,
}

impl<R, F> FanoutTask for MapChunksTask<R, F>
where
    R: Send + 'static,
    F: Fn(Range<usize>) -> Vec<R> + Send + Sync + 'static,
{
    fn run(&self, chunk: usize) {
        let start = chunk * self.per_chunk;
        let end = (start + self.per_chunk).min(self.jobs);
        let out = (self.f)(start..end);
        debug_assert_eq!(
            out.len(),
            end - start,
            "chunk must yield one result per job"
        );
        *self.slots[chunk]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = out;
    }
}

/// Maps `f` over the job indices `0..jobs`, fanning contiguous chunks
/// out across at most `workers` execution lanes, and returns the
/// per-job results concatenated in job order.
///
/// `f` receives a contiguous `Range<usize>` of job indices and returns
/// one result per index, in order. With `workers <= 1` (or a single
/// job) everything runs on the calling thread — the serial and parallel
/// paths execute the same per-chunk code, so their outputs are
/// identical. A panicking job propagates the panic to the caller.
///
/// `f` must be `'static` (captures are `Arc`-shared, not borrowed): the
/// persistent pool's workers outlive any one call, and safe Rust cannot
/// lend them borrowed state. Call sites wrap their inputs in `Arc`s and
/// recover them with `Arc::try_unwrap` after the fan-out returns —
/// sound because every backend drops its task clones *before*
/// completing, so the caller's `Arc` is unique again.
///
/// Nesting composes **through the pool**: a `map_chunks` call from
/// inside another fan-out's worker submits its chunks to the same
/// fixed-width pool (and helps drain them), so a sharded build
/// constructing inner indexes that themselves train leaves in parallel
/// saturates the pool without oversubscribing the machine. Without a
/// pool, nested calls run serially on their worker, exactly as before.
/// Since chunk outputs are thread-placement-independent, the backend
/// choice changes scheduling only, never results.
pub fn map_chunks<R, F>(jobs: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Range<usize>) -> Vec<R> + Send + Sync + 'static,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = if in_fanout_worker() && installed_fanout().is_none() {
        1
    } else {
        workers.min(jobs).max(1)
    };
    if workers <= 1 {
        let out = f(0..jobs);
        debug_assert_eq!(out.len(), jobs, "chunk must yield one result per job");
        return out;
    }
    let per_chunk = jobs.div_ceil(workers);
    let chunks = jobs.div_ceil(per_chunk);
    let task = Arc::new(MapChunksTask {
        f,
        jobs,
        per_chunk,
        slots: (0..chunks).map(|_| Mutex::new(Vec::new())).collect(),
    });
    let shared: Arc<dyn FanoutTask> = Arc::clone(&task) as Arc<dyn FanoutTask>;
    fanout(&shared, chunks, workers);
    drop(shared);
    let task = Arc::into_inner(task).expect("fan-out backend leaked its task clone");
    let mut out = Vec::with_capacity(jobs);
    for slot in task.slots {
        out.extend(slot.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    debug_assert_eq!(out.len(), jobs, "chunks must yield one result per job");
    out
}

/// Spins a lock-step wait makes before it starts yielding its CPU.
const HANDOVER_SPINS: u32 = 64;

/// The round counter value that tells [`lockstep`]'s lanes to exit.
const STOP: u64 = u64::MAX;

/// Waits until `ready()` holds: a short spin, then `yield_now` until it
/// does. It never parks, and it never spins long: a long spin starves a
/// lane that shares the waiter's CPU (see the module docs).
fn handover_wait(ready: impl Fn() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < HANDOVER_SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Work as [`lockstep`] shares it: `work(part, offset, msg)`.
type PartWork<'a, T, M, R> = &'a (dyn Fn(&mut [T], usize, &M) -> R + Sync);

/// One part of a [`lockstep`] table and its result of the current round.
struct Part<'a, T, R> {
    items: &'a mut [T],
    /// Index of the part's first item in the whole table.
    offset: usize,
    result: Option<R>,
}

/// `round`'s low 32 bits above a part index: a claim counter's value.
fn tagged(round: u64, part: usize) -> u64 {
    (round << 32) | part as u64
}

/// What the caller of one [`lockstep`] call shares with its spawned lanes.
struct Shared<'a, T, M, R> {
    work: PartWork<'a, T, M, R>,
    /// Rounds published so far, or [`STOP`]. The caller stores it with
    /// `Release` after writing `msg` and resetting `next`; a lane loads it
    /// with `Acquire` before claiming.
    round: AtomicU64,
    /// The current round's message.
    msg: RwLock<Option<M>>,
    parts: Vec<Mutex<Part<'a, T, R>>>,
    /// `bounds[l]..bounds[l + 1]` are lane `l`'s parts.
    bounds: Vec<usize>,
    /// Per lane, its next unclaimed part, [`tagged`] with the round it
    /// belongs to: a lane still in an earlier round claims nothing.
    next: Vec<AtomicU64>,
    /// Parts finished, over every round. A part's worker adds to it with
    /// `Release` after storing the result; the caller reads it with
    /// `Acquire` before taking results or writing the next message.
    done: AtomicUsize,
    /// Whether any part's work panicked.
    panicked: AtomicBool,
}

impl<T, M, R> Shared<'_, T, M, R> {
    /// Claims the next unclaimed part of `lane` in `round`.
    fn claim(&self, lane: usize, round: u64) -> Option<usize> {
        let next = &self.next[lane];
        let mut seen = next.load(Ordering::Acquire);
        loop {
            let part = (seen & u64::from(u32::MAX)) as usize;
            if seen >> 32 != round & u64::from(u32::MAX) || part >= self.bounds[lane + 1] {
                return None;
            }
            match next.compare_exchange_weak(seen, seen + 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Some(part),
                Err(now) => seen = now,
            }
        }
    }

    /// Works `round` as lane `me`: its own parts in order, then whatever
    /// the other lanes have not claimed yet.
    fn work_round(&self, me: usize, round: u64) {
        let lanes = self.next.len();
        for lane in (me..lanes).chain(0..me) {
            while let Some(index) = self.claim(lane, round) {
                let mut part = self.parts[index]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let Part {
                    items,
                    offset,
                    result,
                } = &mut *part;
                let out = {
                    let msg = self.msg.read().unwrap_or_else(PoisonError::into_inner);
                    let msg = msg.as_ref().expect("the round's message is published");
                    caught(|| (self.work)(items, *offset, msg))
                };
                match out {
                    Some(out) => *result = Some(out),
                    None => self.panicked.store(true, Ordering::Release),
                }
                drop(part);
                self.done.fetch_add(1, Ordering::Release);
            }
        }
    }
}

/// Tells the lanes to exit when dropped, also while the caller unwinds,
/// so no lane is left waiting for a round that never comes.
struct StopLanes<'a>(&'a AtomicU64);

impl Drop for StopLanes<'_> {
    fn drop(&mut self) {
        self.0.store(STOP, Ordering::Release);
    }
}

/// How a [`Lockstep`] runs its rounds.
enum Lanes<'a, T, M, R> {
    /// Every round on the caller, the whole table as one part.
    One(&'a mut [T], PartWork<'a, T, M, R>),
    /// Parts shared with spawned lanes.
    Many(&'a Shared<'a, T, M, R>),
}

/// The rounds of one [`lockstep`] call, as its `drive` closure runs them.
pub struct Lockstep<'a, T, M, R> {
    lanes: Lanes<'a, T, M, R>,
    rounds: u64,
    results: Vec<R>,
}

impl<T, M, R> Lockstep<'_, T, M, R> {
    /// Number of lanes, the caller's included.
    pub fn lanes(&self) -> usize {
        match &self.lanes {
            Lanes::One(..) => 1,
            Lanes::Many(shared) => shared.next.len(),
        }
    }

    /// Runs one round: every part gets the work with `msg` once, and the
    /// results come back in part order. A panic in any part's work reaches
    /// the caller as `"build worker panicked"`, after every part has
    /// finished the round.
    pub fn round(&mut self, msg: M) -> &[R] {
        self.results.clear();
        let panicked = match &mut self.lanes {
            Lanes::One(items, work) => {
                let out = caught(|| work(items, 0, &msg));
                let panicked = out.is_none();
                self.results.extend(out);
                panicked
            }
            Lanes::Many(shared) => {
                *shared.msg.write().unwrap_or_else(PoisonError::into_inner) = Some(msg);
                self.rounds += 1;
                for (next, &first) in shared.next.iter().zip(&shared.bounds) {
                    next.store(tagged(self.rounds, first), Ordering::Release);
                }
                shared.round.store(self.rounds, Ordering::Release);
                shared.work_round(0, self.rounds);
                let finished = self.rounds as usize * shared.parts.len();
                handover_wait(|| shared.done.load(Ordering::Acquire) == finished);
                for part in &shared.parts {
                    let mut part = part.lock().unwrap_or_else(PoisonError::into_inner);
                    self.results.extend(part.result.take());
                }
                shared.panicked.load(Ordering::Acquire)
            }
        };
        if panicked {
            panic!("build worker panicked");
        }
        &self.results
    }
}

/// Runs `work`, turning a panic into `None`.
fn caught<R>(work: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(AssertUnwindSafe(work)).ok()
}

/// One spawned lane of [`lockstep`]: works each round as lane `me` until
/// the caller stops it.
fn lane_loop<T, M, R>(me: usize, shared: &Shared<'_, T, M, R>) {
    let _guard = enter_fanout_worker();
    let mut seen = 0;
    loop {
        handover_wait(|| shared.round.load(Ordering::Acquire) != seen);
        seen = shared.round.load(Ordering::Acquire);
        if seen == STOP {
            return;
        }
        shared.work_round(me, seen);
    }
}

/// Runs `drive`, which may run any number of rounds over `items` through
/// a [`Lockstep`], on up to `lanes` threads. `items` is cut into
/// contiguous parts of `part` items (the last may be shorter), and in
/// each round every part gets `work(part, offset, &msg)` once, where
/// `offset` is the part's first index in `items`; the caller gets the
/// results back in part order.
///
/// The parts are dealt out to the lanes in contiguous runs. The caller is
/// lane 0, and each other lane is one scoped thread for the whole call.
/// In a round every lane works its own parts in order, then any part of
/// another lane that lane has not reached, so a lane whose CPU is slow or
/// busy costs the round at most a part's time. A round is handed over
/// with a short spin and then `yield_now` (see the module docs for why
/// neither the pool nor a long spin). With one lane, or when called from
/// inside a fan-out worker, every round runs on the caller with all of
/// `items` as one part. Lanes are marked as fan-out workers, as
/// [`map_chunks`]'s workers are.
///
/// Which lane runs a part is a matter of timing, so the results do not
/// depend on it, or on the lane count, as long as `work` depends only on
/// its part and the message. A panic in any part reaches the caller as
/// `"build worker panicked"`; a panic in `drive` propagates as it is.
/// Either way every lane exits before `lockstep` returns or unwinds.
pub fn lockstep<T, M, R, W, D, O>(
    items: &mut [T],
    lanes: usize,
    part: usize,
    work: W,
    drive: D,
) -> O
where
    T: Send,
    M: Send + Sync,
    R: Send,
    W: Fn(&mut [T], usize, &M) -> R + Sync,
    D: FnOnce(&mut Lockstep<'_, T, M, R>) -> O,
{
    let part = part.max(1);
    let parts = items.len().div_ceil(part);
    let lanes = if in_fanout_worker() {
        1
    } else {
        lanes.clamp(1, parts.max(1))
    };
    if lanes == 1 {
        return drive(&mut Lockstep {
            lanes: Lanes::One(items, &work),
            rounds: 0,
            results: Vec::with_capacity(1),
        });
    }
    assert!(
        parts < u32::MAX as usize,
        "a lock-step table has too many parts"
    );
    let shared = Shared {
        work: &work,
        round: AtomicU64::new(0),
        msg: RwLock::new(None),
        parts: items
            .chunks_mut(part)
            .enumerate()
            .map(|(i, items)| {
                Mutex::new(Part {
                    items,
                    offset: i * part,
                    result: None,
                })
            })
            .collect(),
        bounds: (0..=lanes).map(|lane| lane * parts / lanes).collect(),
        next: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
        done: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        let shared = &shared;
        // Armed before the first spawn, so a failed spawn stops the lanes
        // already running too.
        let _stop = StopLanes(&shared.round);
        for me in 1..lanes {
            scope.spawn(move || lane_loop(me, shared));
        }
        drive(&mut Lockstep {
            lanes: Lanes::Many(shared),
            rounds: 0,
            results: Vec::with_capacity(parts),
        })
    })
}

thread_local! {
    /// Whether the current thread is a worker of an active fan-out.
    static IN_FANOUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// `true` when called from inside a fan-out worker (either a
/// [`map_chunks`] worker or a thread that called
/// [`enter_fanout_worker`]); without an installed pool, nested fan-outs
/// then run serially.
pub fn in_fanout_worker() -> bool {
    IN_FANOUT.with(|f| f.get())
}

/// Marks the current thread as a fan-out worker until the returned guard
/// drops. Harnesses that spawn their own worker threads (e.g. the
/// pipeline's per-victim fan-out) call this inside each worker so the
/// builds they invoke don't spawn a second layer of parallelism.
pub fn enter_fanout_worker() -> FanoutGuard {
    let prev = IN_FANOUT.with(|f| f.replace(true));
    FanoutGuard { prev }
}

/// RAII token of [`enter_fanout_worker`]; restores the previous marking.
pub struct FanoutGuard {
    prev: bool,
}

impl Drop for FanoutGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_FANOUT.with(|f| f.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_resolve_sanely() {
        assert!(available_workers() >= 1);
        assert_eq!(effective_workers(0, 100).max(1), effective_workers(0, 100));
        assert_eq!(effective_workers(4, 2), 2);
        assert_eq!(effective_workers(4, 100), 4);
        assert_eq!(effective_workers(1, 0), 1);
    }

    #[test]
    fn map_chunks_preserves_job_order() {
        for workers in [1usize, 2, 3, 7, 64] {
            let out = map_chunks(23, workers, |range| {
                range.map(|i| i * i).collect::<Vec<_>>()
            });
            assert_eq!(
                out,
                (0..23).map(|i| i * i).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
        assert!(map_chunks(0, 4, |r| r.collect::<Vec<_>>()).is_empty());
    }

    #[test]
    fn serial_and_parallel_agree_bitwise_on_float_work() {
        // Each job's computation is internally sequential, so float
        // results cannot depend on the worker count.
        let work = |range: std::ops::Range<usize>| {
            range
                .map(|i| (0..100).map(|j| ((i * 100 + j) as f64).sqrt()).sum::<f64>())
                .collect::<Vec<f64>>()
        };
        let serial = map_chunks(17, 1, work);
        let parallel = map_chunks(17, 5, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_fanouts_run_serially_without_changing_results() {
        // Without an installed pool, an inner map_chunks inside a
        // fan-out worker must not spawn — and must still produce
        // identical results. (With a pool the inner call submits to it
        // instead; `lis-server`'s pool tests pin that composition.)
        let nested = map_chunks(4, 4, |outer| {
            outer
                .map(|i| {
                    assert!(in_fanout_worker(), "worker not marked");
                    map_chunks(5, 4, move |inner| {
                        inner.map(|j| i * 10 + j).collect::<Vec<_>>()
                    })
                })
                .collect()
        });
        let flat = map_chunks(4, 1, |outer| {
            outer
                .map(|i| {
                    map_chunks(5, 4, move |inner| {
                        inner.map(|j| i * 10 + j).collect::<Vec<_>>()
                    })
                })
                .collect()
        });
        assert_eq!(nested, flat);
        assert!(!in_fanout_worker(), "marking leaked to the caller");
        // Manual guard for hand-rolled worker threads.
        {
            let _guard = enter_fanout_worker();
            assert!(in_fanout_worker());
        }
        assert!(!in_fanout_worker());
    }

    #[test]
    fn fanout_runs_every_unit_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Count(Vec<AtomicUsize>);
        impl FanoutTask for Count {
            fn run(&self, idx: usize) {
                self.0[idx].fetch_add(1, Ordering::Relaxed);
            }
        }
        for workers in [1usize, 3, 8] {
            let task = Arc::new(Count((0..13).map(|_| AtomicUsize::new(0)).collect()));
            let shared: Arc<dyn FanoutTask> = Arc::clone(&task) as Arc<dyn FanoutTask>;
            fanout(&shared, 13, workers);
            drop(shared);
            let task = Arc::into_inner(task).expect("backend must drop task clones");
            for (i, c) in task.0.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Relaxed),
                    1,
                    "unit {i} with {workers} workers"
                );
            }
        }
        // n == 0 is a no-op.
        let empty: Arc<dyn FanoutTask> = Arc::new(Count(Vec::new()));
        fanout(&empty, 0, 4);
    }

    #[test]
    fn lockstep_returns_part_results_in_order_every_round() {
        // Each item counts the rounds that reached it; each part returns
        // its offset, its length and the round's message.
        for (lanes, part) in [(1usize, 3usize), (2, 3), (3, 1), (7, 4), (2, 50)] {
            let mut items = vec![0u32; 20];
            let reported = lockstep(
                &mut items,
                lanes,
                part,
                |items: &mut [u32], offset, round: &u32| {
                    for item in items.iter_mut() {
                        *item += 1;
                    }
                    (offset, items.len(), *round)
                },
                |steps| {
                    let lanes = steps.lanes();
                    for round in 0..5u32 {
                        let mut next = 0;
                        for &(offset, len, seen) in steps.round(round) {
                            assert_eq!(offset, next, "parts out of order");
                            assert!(lanes == 1 || len <= part, "part of {len} items");
                            assert_eq!(seen, round, "stale message");
                            next += len;
                        }
                        assert_eq!(next, 20, "parts must cover every item");
                    }
                    lanes
                },
            );
            assert_eq!(reported, lanes.min(20_usize.div_ceil(part)));
            assert_eq!(items, vec![5; 20], "{lanes} lanes, parts of {part}");
        }
    }

    #[test]
    fn lockstep_rounds_reach_the_spawned_lanes() {
        // The caller's first part of every round waits until another
        // thread has worked a part of that round. Only a spawned lane can
        // (the caller is stuck), so this returns only if every round
        // reaches a lane, which then also takes the caller's other parts.
        use std::collections::HashSet;
        let caller = std::thread::current().id();
        let mut items = vec![0u8; 16];
        let elsewhere = AtomicU64::new(0);
        let threads = Mutex::new(HashSet::new());
        lockstep(
            &mut items,
            2,
            2,
            |_: &mut [u8], offset, round: &u64| {
                let me = std::thread::current().id();
                threads.lock().unwrap().insert(me);
                if me != caller {
                    elsewhere.fetch_max(*round, Ordering::AcqRel);
                } else if offset == 0 {
                    handover_wait(|| elsewhere.load(Ordering::Acquire) >= *round);
                }
            },
            |steps| {
                for round in 1..=4 {
                    assert_eq!(steps.round(round).len(), 8);
                }
            },
        );
        assert_eq!(threads.into_inner().unwrap().len(), 2);
    }

    #[test]
    fn lockstep_with_zero_rounds_or_more_lanes_than_items() {
        // Zero rounds: the lanes start and stop without running any work.
        let mut items = vec![1u8; 8];
        let lanes = lockstep(
            &mut items,
            4,
            1,
            |_: &mut [u8], _, _: &()| -> usize { unreachable!("no round ran") },
            |steps| steps.lanes(),
        );
        assert_eq!(lanes, 4);
        // More lanes than items: one part per item, and an empty table
        // is one empty part on the caller.
        let mut items = vec![0u8; 3];
        let seen = lockstep(
            &mut items,
            16,
            1,
            |items: &mut [u8], offset, _: &()| (offset, items.len()),
            |steps| (steps.lanes(), steps.round(()).to_vec()),
        );
        assert_eq!(seen, (3, vec![(0, 1), (1, 1), (2, 1)]));
        let seen = lockstep(
            &mut [] as &mut [u8],
            16,
            1,
            |items: &mut [u8], offset, _: &()| (offset, items.len()),
            |steps| (steps.lanes(), steps.round(()).to_vec()),
        );
        assert_eq!(seen, (1, vec![(0, 0)]));
    }

    #[test]
    fn lockstep_inside_a_fanout_stays_on_the_caller() {
        let inner = map_chunks(2, 2, |outer| {
            outer
                .map(|_| {
                    let mut items = vec![0u8; 64];
                    let caller = std::thread::current().id();
                    lockstep(
                        &mut items,
                        4,
                        8,
                        |_: &mut [u8], _, _: &()| std::thread::current().id(),
                        |steps| (steps.lanes(), steps.round(()) == [caller]),
                    )
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(inner, vec![(1, true); 2]);
    }

    #[test]
    fn lockstep_lanes_are_fanout_workers() {
        let caller = std::thread::current().id();
        let mut items = vec![0u8; 64];
        let marked = lockstep(
            &mut items,
            2,
            1,
            |_: &mut [u8], _, _: &()| std::thread::current().id() == caller || in_fanout_worker(),
            |steps| steps.round(()).to_vec(),
        );
        assert_eq!(marked, vec![true; 64]);
        assert!(!in_fanout_worker(), "marking leaked to the caller");
    }

    #[test]
    fn lockstep_lane_panic_propagates_without_hanging() {
        // The last part panics in the second round: the caller gets the
        // panic, and every lane exits (the scope joins them) first.
        for lanes in [1usize, 2, 3] {
            let mut items = vec![0u8; 9];
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                lockstep(
                    &mut items,
                    lanes,
                    2,
                    |items: &mut [u8], offset, round: &u32| {
                        if *round == 1 && offset + items.len() == 9 {
                            panic!("last part exploded");
                        }
                    },
                    |steps| {
                        for round in 0..4 {
                            steps.round(round);
                        }
                    },
                )
            }));
            let payload = caught.expect_err("the part's panic must reach the caller");
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                message.contains("build worker panicked"),
                "{lanes} lanes: {message}"
            );
        }
        // A panic in `drive` itself stops the lanes as well.
        let mut items = vec![0u8; 9];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            lockstep(
                &mut items,
                3,
                1,
                |_: &mut [u8], _, _: &()| (),
                |steps| {
                    steps.round(());
                    panic!("drive exploded");
                },
            )
        }));
        assert!(caught.is_err());
    }

    #[test]
    #[should_panic(expected = "build worker panicked")]
    fn worker_panic_propagates() {
        map_chunks(8, 4, |range| {
            if range.contains(&5) {
                panic!("job 5 exploded");
            }
            range.map(|_| 0u8).collect()
        });
    }
}
