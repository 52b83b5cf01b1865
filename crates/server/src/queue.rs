//! The bounded MPSC request queue with adaptive micro-batch draining.
//!
//! Producers ([`crate::server::ServerHandle`]s on client threads) push
//! single requests and block when the queue is full — backpressure, not
//! unbounded buffering. Consumers (the worker pool) drain *batches*: a
//! worker blocks for the first request, then keeps gathering until either
//! the batch-size cap or the flush deadline is hit, whichever comes first.
//! That is the classic micro-batching trade: under load, batches fill
//! instantly and lookups amortize the per-batch dispatch; under trickle
//! traffic, the deadline bounds how long any request waits for company.
//!
//! Built on `Mutex` + `Signal` (the serving plane's condvar, which wakes
//! only parked threads) — the workspace carries no external concurrency
//! dependency. A push or a pop therefore enters the kernel only when a
//! thread is actually parked on the other side.

use crate::sync::{lock, Mutex, Signal};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How a drained batch is cut. See [`BatchQueue::pop_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests per batch (flush when reached).
    pub max_batch: usize,
    /// Maximum time a worker waits for the batch to fill after its first
    /// request arrives (flush when elapsed).
    pub deadline: Duration,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Outcome of one [`BatchQueue::pop_batch_tick`] drain attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopTick {
    /// A (non-empty) batch was drained into the buffer.
    Batch,
    /// The tick elapsed with nothing queued; the buffer is empty.
    Idle,
    /// The queue is closed and drained — the consumer-shutdown signal.
    Closed,
}

/// A bounded multi-producer queue drained in micro-batches.
pub struct BatchQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Signal,
    not_full: Signal,
    capacity: usize,
}

impl<T> BatchQueue<T> {
    /// A queue holding at most `capacity` pending requests (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Signal::new(),
            not_full: Signal::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of requests currently queued.
    pub fn len(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// `true` iff no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, blocking while the queue is full. Returns the item
    /// back as `Err` if the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = lock(&self.state);
        loop {
            if state.closed {
                return Err(item);
            }
            if state.items.len() < self.capacity {
                break;
            }
            state = self.not_full.wait(state);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Drains the next micro-batch: blocks until a first request arrives,
    /// then gathers until `policy.max_batch` requests are in hand or
    /// `policy.deadline` has elapsed since the first pop. Returns `None`
    /// once the queue is closed *and* drained — the worker-shutdown signal.
    ///
    /// Allocating convenience wrapper over [`BatchQueue::pop_batch_into`];
    /// worker loops should reuse a batch buffer through that method.
    pub fn pop_batch(&self, policy: BatchPolicy) -> Option<Vec<T>> {
        let mut batch = Vec::new();
        if self.pop_batch_into(policy, &mut batch) {
            Some(batch)
        } else {
            None
        }
    }

    /// Drains the next micro-batch into a caller-owned buffer (cleared
    /// first), with the same blocking/batching semantics as
    /// [`BatchQueue::pop_batch`]. Returns `false` once the queue is closed
    /// *and* drained — the worker-shutdown signal. A worker that reuses
    /// one buffer across iterations pops batches without any per-batch
    /// heap allocation once the buffer has grown to the batch cap.
    pub fn pop_batch_into(&self, policy: BatchPolicy, batch: &mut Vec<T>) -> bool {
        self.pop_batch_bounded(policy, batch, None) != PopTick::Closed
    }

    /// Like [`BatchQueue::pop_batch_into`] but waits at most `tick` for
    /// the *first* request, returning [`PopTick::Idle`] when the tick
    /// elapses on an empty queue. A consumer with periodic housekeeping
    /// (the writer's drift monitor) drains with this so idle stretches
    /// still surface at tick granularity instead of blocking forever.
    pub fn pop_batch_tick(
        &self,
        policy: BatchPolicy,
        batch: &mut Vec<T>,
        tick: Duration,
    ) -> PopTick {
        self.pop_batch_bounded(policy, batch, Some(tick))
    }

    fn pop_batch_bounded(
        &self,
        policy: BatchPolicy,
        batch: &mut Vec<T>,
        first_wait: Option<Duration>,
    ) -> PopTick {
        // lis-analysis: begin(zero-alloc)
        batch.clear();
        let max_batch = policy.max_batch.max(1);
        let give_up = first_wait.map(|t| Instant::now() + t);
        let mut state = lock(&self.state);
        loop {
            if !state.items.is_empty() {
                break;
            }
            if state.closed {
                return PopTick::Closed;
            }
            match give_up {
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        return PopTick::Idle;
                    }
                    // The timeout result, not a clock re-read, decides
                    // `Idle`: a timed-out wait on a still-empty queue IS
                    // the tick elapsing, and under `lis_check` the
                    // timeout is a scheduler choice — re-checking the
                    // wall clock there livelocks.
                    let (guard, timeout) = self.not_empty.wait_timeout(state, at - now);
                    state = guard;
                    if timeout.timed_out() && state.items.is_empty() && !state.closed {
                        return PopTick::Idle;
                    }
                }
                None => state = self.not_empty.wait(state),
            }
        }
        let flush_at = Instant::now() + policy.deadline;
        // Producers woken since the last drain; notified only when slots
        // actually opened, and — on the final drain — after the lock is
        // released, so woken producers don't immediately collide with it.
        let mut undrained_wakeup = 0usize;
        loop {
            let before = batch.len();
            while batch.len() < max_batch {
                match state.items.pop_front() {
                    // lis-analysis: allow(zero-alloc) — pushes into the
                    // worker's reusable buffer; at or beyond capacity
                    // `max_batch` after the first few drains.
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            undrained_wakeup += batch.len() - before;
            if batch.len() >= max_batch || state.closed {
                break;
            }
            let now = Instant::now();
            if now >= flush_at {
                break;
            }
            // About to park for the rest of the deadline: open the freed
            // slots to blocked producers now rather than after the wait.
            if undrained_wakeup > 0 {
                undrained_wakeup = 0;
                self.not_full.notify_all();
            }
            let (guard, timeout) = self.not_empty.wait_timeout(state, flush_at - now);
            state = guard;
            if timeout.timed_out() && state.items.is_empty() {
                break;
            }
        }
        // Another worker may be parked on `not_empty` for requests that
        // arrived while we held the lock; wake one if anything remains.
        let items_remain = !state.items.is_empty();
        drop(state);
        if undrained_wakeup > 0 {
            self.not_full.notify_all();
        }
        if items_remain {
            self.not_empty.notify_one();
        }
        PopTick::Batch
        // lis-analysis: end(zero-alloc)
    }

    /// Closes the queue: further pushes fail, blocked producers and workers
    /// wake, and workers exit once the backlog is drained.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`BatchQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn policy(max_batch: usize, deadline_ms: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            deadline: Duration::from_millis(deadline_ms),
        }
    }

    #[test]
    fn full_batch_flushes_without_waiting_for_deadline() {
        let q = BatchQueue::new(64);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        let start = Instant::now();
        // Deadline is far away; the size cap must cut the batch.
        let batch = q.pop_batch(policy(8, 10_000)).unwrap();
        assert_eq!(batch, (0..8).collect::<Vec<_>>());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "waited on deadline"
        );
    }

    #[test]
    fn deadline_flushes_partial_batch() {
        let q = BatchQueue::new(64);
        q.push(1).unwrap();
        // Batch cap of 8 can never fill: the deadline must flush.
        let batch = q.pop_batch(policy(8, 20)).unwrap();
        assert_eq!(batch, vec![1]);
    }

    #[test]
    fn oversize_backlog_splits_into_batches() {
        let q = BatchQueue::new(64);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let first = q.pop_batch(policy(4, 0)).unwrap();
        let second = q.pop_batch(policy(4, 0)).unwrap();
        assert_eq!(first, vec![0, 1, 2, 3]);
        assert_eq!(second, vec![4, 5, 6, 7]);
    }

    #[test]
    fn pop_batch_into_reuses_buffer_and_signals_shutdown() {
        let q = BatchQueue::new(64);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let mut batch = Vec::new();
        assert!(q.pop_batch_into(policy(4, 0), &mut batch));
        assert_eq!(batch, vec![0, 1, 2, 3]);
        let cap = batch.capacity();
        // The next pop clears the stale contents and reuses the capacity.
        assert!(q.pop_batch_into(policy(4, 0), &mut batch));
        assert_eq!(batch, vec![4, 5, 6, 7]);
        assert_eq!(batch.capacity(), cap);
        assert!(q.pop_batch_into(policy(4, 10), &mut batch));
        assert_eq!(batch, vec![8, 9]);
        q.close();
        assert!(!q.pop_batch_into(policy(4, 0), &mut batch));
        assert!(batch.is_empty(), "shutdown pop must leave the buffer empty");
    }

    #[test]
    fn close_drains_backlog_then_signals_shutdown() {
        let q = BatchQueue::new(8);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.push(8), Err(8));
        assert_eq!(q.pop_batch(policy(4, 1_000)), Some(vec![7]));
        assert_eq!(q.pop_batch(policy(4, 1_000)), None);
    }

    #[test]
    fn push_blocks_on_full_queue_until_drained() {
        let q = Arc::new(BatchQueue::new(2));
        q.push(0).unwrap();
        q.push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2))
        };
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 2);
        let batch = q.pop_batch(policy(2, 0)).unwrap();
        assert_eq!(batch, vec![0, 1]);
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop_batch(policy(2, 50)).unwrap(), vec![2]);
    }

    #[test]
    fn pop_batch_tick_reports_idle_batch_and_closed() {
        let q = BatchQueue::new(8);
        let mut batch = Vec::new();
        let tick = Duration::from_millis(5);
        assert_eq!(
            q.pop_batch_tick(policy(4, 0), &mut batch, tick),
            PopTick::Idle
        );
        assert!(batch.is_empty());
        q.push(3).unwrap();
        assert_eq!(
            q.pop_batch_tick(policy(4, 0), &mut batch, tick),
            PopTick::Batch
        );
        assert_eq!(batch, vec![3]);
        q.close();
        assert_eq!(
            q.pop_batch_tick(policy(4, 0), &mut batch, tick),
            PopTick::Closed
        );
    }

    /// Property: closing a *full* queue with producers blocked on it gives
    /// every producer a definite outcome — `Ok` iff its item is drained,
    /// `Err` iff it bounced — and drains every accepted item exactly once.
    /// 64 trials vary the close point against the producer/consumer race.
    #[test]
    fn close_while_full_unblocks_every_producer_definitely() {
        for trial in 0..64u32 {
            let q = Arc::new(BatchQueue::new(2));
            q.push(100u32).unwrap();
            q.push(101u32).unwrap();
            let producers: Vec<_> = (0..4u32)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || q.push(p).map(|()| p))
                })
                .collect();
            let closer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for _ in 0..trial * 50 {
                        std::hint::spin_loop();
                    }
                    q.close();
                })
            };
            let mut drained = Vec::new();
            let mut batch = Vec::new();
            while q.pop_batch_into(policy(3, 0), &mut batch) {
                drained.append(&mut batch);
            }
            closer.join().unwrap();
            let mut accepted: Vec<u32> = vec![100, 101];
            for producer in producers {
                match producer.join().unwrap() {
                    Ok(p) => accepted.push(p),
                    Err(p) => assert!(
                        !drained.contains(&p),
                        "trial {trial}: bounced item {p} was drained"
                    ),
                }
            }
            drained.sort_unstable();
            accepted.sort_unstable();
            assert_eq!(
                drained, accepted,
                "trial {trial}: accepted items and drained items disagree"
            );
        }
    }

    /// Property: closing while a consumer is mid-drain strands nothing —
    /// the consumer keeps draining the backlog after close and stops only
    /// once it is empty, so accepted == drained under every close point.
    #[test]
    fn close_while_draining_leaves_no_item_stranded() {
        for trial in 0..64u32 {
            let q = Arc::new(BatchQueue::new(4));
            let producer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    (0..12u32).map(|i| q.push(i).is_ok()).collect::<Vec<_>>()
                })
            };
            let closer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for _ in 0..trial * 40 {
                        std::hint::spin_loop();
                    }
                    q.close();
                })
            };
            let mut drained = Vec::new();
            let mut batch = Vec::new();
            while q.pop_batch_into(policy(2, 1), &mut batch) {
                drained.append(&mut batch);
            }
            let pushed = producer.join().unwrap();
            closer.join().unwrap();
            // A bounced push never leaves a later accepted one (closed is
            // sticky), and accepted items are drained exactly once.
            let accepted: Vec<u32> = pushed
                .iter()
                .enumerate()
                .filter(|(_, ok)| **ok)
                .map(|(i, _)| i as u32)
                .collect();
            assert!(
                pushed.windows(2).all(|w| w[0] || !w[1]),
                "trial {trial}: push succeeded after a bounce"
            );
            drained.sort_unstable();
            assert_eq!(
                drained, accepted,
                "trial {trial}: an accepted item was stranded or duplicated"
            );
        }
    }

    #[test]
    fn traffic_nobody_waits_on_issues_no_wake() {
        let q = BatchQueue::new(1_000);
        for i in 0..1_000 {
            q.push(i).unwrap();
        }
        let mut batch = Vec::new();
        let mut drained = 0;
        // Every pop but the last leaves items behind: the "items remain"
        // check must not wake anyone either.
        while drained < 1_000 {
            assert!(q.pop_batch_into(policy(64, 0), &mut batch));
            drained += batch.len();
        }
        assert_eq!(q.not_empty.wakes_issued(), 0);
        assert_eq!(q.not_full.wakes_issued(), 0);
    }

    #[test]
    fn parked_consumer_gets_exactly_one_wake() {
        let q = Arc::new(BatchQueue::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(policy(1, 0)))
        };
        drop(q.not_empty.await_parked(&q.state));
        q.push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(vec![7]));
        assert_eq!(q.not_empty.wakes_issued(), 1);
        assert_eq!(q.not_full.wakes_issued(), 0);
    }

    #[test]
    fn parked_producer_gets_exactly_one_wake() {
        let q = Arc::new(BatchQueue::new(1));
        q.push(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1))
        };
        drop(q.not_full.await_parked(&q.state));
        assert_eq!(q.pop_batch(policy(1, 0)), Some(vec![0]));
        producer.join().unwrap().unwrap();
        assert_eq!(q.not_full.wakes_issued(), 1);
        // Nobody was parked on `not_empty` when either push landed.
        assert_eq!(q.not_empty.wakes_issued(), 0);
        assert_eq!(q.pop_batch(policy(1, 0)), Some(vec![1]));
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let q = Arc::new(BatchQueue::new(16));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        q.push(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(batch) = q.pop_batch(policy(7, 5)) {
                    seen.extend(batch);
                }
                seen
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        let mut expected: Vec<i32> = (0..4)
            .flat_map(|p| (0..50).map(move |i| p * 100 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }
}

/// Model-checking tests: `lis_check` explores push/pop/close
/// interleavings over the real `BatchQueue` code. Deadlines are pinned
/// to 0 or far-future so model runs stay deterministic (the scheduler
/// owns condvar timeouts; `Instant` comparisons must not flip mid-run).
#[cfg(all(test, feature = "check"))]
mod model_tests {
    use super::*;
    use lis_check::{thread, try_check, CheckConfig};
    use std::sync::Arc;

    fn cfg() -> CheckConfig {
        CheckConfig::new().min_schedules(500)
    }

    /// A producer pushing through a full queue races a draining consumer
    /// and a close: no item may be lost and no thread may strand.
    #[test]
    fn push_pop_close_strands_nothing() {
        let report = try_check("queue-push-pop-close", cfg(), || {
            let q = Arc::new(BatchQueue::new(2));
            let qp = Arc::clone(&q);
            let producer = thread::spawn(move || {
                for i in 0..3 {
                    qp.push(i).unwrap();
                }
            });
            let qc = Arc::clone(&q);
            let consumer = thread::spawn(move || {
                let mut seen = Vec::new();
                let mut batch = Vec::new();
                let policy = BatchPolicy {
                    max_batch: 2,
                    deadline: Duration::ZERO,
                };
                while qc.pop_batch_into(policy, &mut batch) {
                    seen.append(&mut batch);
                }
                seen
            });
            producer.join().unwrap();
            q.close();
            let mut seen = consumer.join().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2], "an enqueued request was lost");
        })
        .expect("queue push/pop/close must strand nothing");
        assert!(report.distinct >= 100 || report.exhausted);
    }

    /// Close must wake a producer blocked on a full queue and hand its
    /// item back — a blocked producer is a stranded ticket otherwise.
    #[test]
    fn close_wakes_blocked_producer() {
        try_check("queue-close-wakes-producer", cfg(), || {
            let q = Arc::new(BatchQueue::new(1));
            q.push(0u32).unwrap();
            let qp = Arc::clone(&q);
            let producer = thread::spawn(move || qp.push(1));
            q.close();
            assert_eq!(
                producer.join().unwrap(),
                Err(1),
                "close must bounce the blocked push"
            );
            // The backlog stays drainable after close.
            let batch = q.pop_batch(BatchPolicy {
                max_batch: 4,
                deadline: Duration::ZERO,
            });
            assert_eq!(batch, Some(vec![0]));
        })
        .expect("close must wake blocked producers");
    }

    /// Close against a *full* queue with blocked producers: every
    /// producer unblocks with a definite outcome under every schedule,
    /// and the drained set equals exactly the accepted pushes — the
    /// model-checked mirror of the property test above.
    #[test]
    fn close_while_full_has_definite_outcomes() {
        try_check("queue-close-while-full", cfg(), || {
            let q = Arc::new(BatchQueue::new(1));
            q.push(10u32).unwrap();
            let producers: Vec<_> = (0..2u32)
                .map(|p| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || q.push(p).map(|()| p))
                })
                .collect();
            let closer = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.close())
            };
            let mut drained = Vec::new();
            let mut batch = Vec::new();
            let policy = BatchPolicy {
                max_batch: 2,
                deadline: Duration::ZERO,
            };
            while q.pop_batch_into(policy, &mut batch) {
                drained.append(&mut batch);
            }
            closer.join().unwrap();
            let mut accepted = vec![10u32];
            for producer in producers {
                match producer.join().unwrap() {
                    Ok(p) => accepted.push(p),
                    Err(p) => assert!(!drained.contains(&p), "bounced item {p} drained"),
                }
            }
            drained.sort_unstable();
            accepted.sort_unstable();
            assert_eq!(drained, accepted, "a producer's outcome was indefinite");
        })
        .expect("close-while-full must give every producer a definite outcome");
    }

    /// Close racing a consumer mid-drain: the backlog outlives the close
    /// and the consumer stops only once it is empty — no accepted item
    /// stranded under any schedule.
    #[test]
    fn close_while_draining_strands_nothing() {
        try_check("queue-close-while-draining", cfg(), || {
            let q = Arc::new(BatchQueue::new(2));
            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || (0..3u32).map(|i| q.push(i).is_ok()).collect::<Vec<_>>())
            };
            let closer = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.close())
            };
            let mut drained = Vec::new();
            let mut batch = Vec::new();
            let policy = BatchPolicy {
                max_batch: 1,
                deadline: Duration::ZERO,
            };
            while q.pop_batch_into(policy, &mut batch) {
                drained.append(&mut batch);
            }
            let pushed = producer.join().unwrap();
            closer.join().unwrap();
            assert!(
                pushed.windows(2).all(|w| w[0] || !w[1]),
                "push succeeded after a bounce"
            );
            let accepted: Vec<u32> = pushed
                .iter()
                .enumerate()
                .filter(|(_, ok)| **ok)
                .map(|(i, _)| i as u32)
                .collect();
            drained.sort_unstable();
            assert_eq!(drained, accepted, "an accepted item was stranded");
        })
        .expect("close-while-draining must strand nothing");
    }

    /// `pop_batch_tick` against pushes and close: every outcome class is
    /// consistent — `Batch` carries items, `Idle` leaves the buffer
    /// empty with the queue open, `Closed` only after close.
    #[test]
    fn pop_batch_tick_outcomes_are_consistent() {
        try_check("queue-tick-vs-close", cfg(), || {
            let q = Arc::new(BatchQueue::new(4));
            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    q.push(1u32).unwrap();
                    q.close();
                })
            };
            let mut drained = Vec::new();
            let mut batch = Vec::new();
            let policy = BatchPolicy {
                max_batch: 4,
                deadline: Duration::ZERO,
            };
            // Far-future tick: the scheduler owns the timeout, so `Idle`
            // still occurs on schedules that fire it early while the
            // consumer parks (instead of spinning) between ticks. The
            // harness loop must be bounded, though — the scheduler may
            // fire the timeout on every wait while starving the
            // producer — so after two explored `Idle`s (a real 1-hour
            // tick never elapses twice here) fall back to the blocking
            // drain, which terminates on every schedule.
            let mut idle_ticks = 0;
            loop {
                match q.pop_batch_tick(policy, &mut batch, Duration::from_secs(3600)) {
                    PopTick::Batch => {
                        assert!(!batch.is_empty(), "Batch tick with empty buffer");
                        drained.append(&mut batch);
                    }
                    PopTick::Idle => {
                        assert!(batch.is_empty(), "Idle tick left items");
                        idle_ticks += 1;
                        if idle_ticks >= 2 {
                            while q.pop_batch_into(policy, &mut batch) {
                                drained.append(&mut batch);
                            }
                            break;
                        }
                    }
                    PopTick::Closed => break,
                }
            }
            producer.join().unwrap();
            assert_eq!(drained, vec![1], "tick drain lost the push");
        })
        .expect("pop_batch_tick must classify every outcome consistently");
    }

    /// With a far-future deadline the scheduler explores the condvar
    /// timeout firing at any point against pushes and close; the batch
    /// accounting must stay exact either way.
    #[test]
    fn deadline_wait_races_with_close() {
        try_check("queue-deadline-vs-close", cfg(), || {
            let q = Arc::new(BatchQueue::new(4));
            let qp = Arc::clone(&q);
            let producer = thread::spawn(move || {
                qp.push(1u32).unwrap();
                qp.push(2u32).unwrap();
                qp.close();
            });
            let mut seen = Vec::new();
            let mut batch = Vec::new();
            let policy = BatchPolicy {
                max_batch: 8,
                deadline: Duration::from_secs(3600),
            };
            while q.pop_batch_into(policy, &mut batch) {
                assert!(!batch.is_empty() || q.is_closed());
                seen.append(&mut batch);
            }
            producer.join().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, vec![1, 2], "drained batch accounting is off");
        })
        .expect("deadline waits must be safe against close");
    }

    /// A producer pushing into a full queue races the pop that makes
    /// room: on schedules where it has not parked yet the pop skips the
    /// `not_full` wake-up, and the producer must then see the free slot
    /// itself. No schedule strands it.
    #[test]
    fn every_pop_schedule_releases_a_producer_on_a_full_queue() {
        let report = try_check("queue-full-producer-vs-pop", cfg(), || {
            let q = Arc::new(BatchQueue::new(1));
            q.push(0u32).unwrap();
            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(1).unwrap())
            };
            let policy = BatchPolicy {
                max_batch: 1,
                deadline: Duration::ZERO,
            };
            let mut batch = Vec::new();
            assert!(q.pop_batch_into(policy, &mut batch));
            assert_eq!(batch, vec![0]);
            assert!(q.pop_batch_into(policy, &mut batch));
            assert_eq!(batch, vec![1], "the parked producer's item never arrived");
            producer.join().unwrap();
            assert_eq!(q.not_full.parked(), 0);
        })
        .expect("a pop must release a producer parked on a full queue");
        assert!(report.distinct >= 2 || report.exhausted);
    }

    /// Two consumers and a burst larger than `max_batch`: whichever
    /// consumer drains first leaves items behind while the other may be
    /// parked, and must hand it the rest. The queue is closed only by
    /// the consumer that sees the last item, so a stranded item (a
    /// parked consumer nobody wakes) shows up as a deadlock instead of
    /// being swept up by `close()`.
    #[test]
    fn burst_beyond_max_batch_strands_no_item_with_a_parked_consumer() {
        try_check("queue-burst-two-consumers", cfg(), || {
            const BURST: usize = 3;
            let q = Arc::new(BatchQueue::new(4));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    let seen = Arc::clone(&seen);
                    thread::spawn(move || {
                        let policy = BatchPolicy {
                            max_batch: 2,
                            deadline: Duration::ZERO,
                        };
                        let mut batch = Vec::new();
                        while q.pop_batch_into(policy, &mut batch) {
                            let mut seen = lock(&seen);
                            seen.append(&mut batch);
                            if seen.len() == BURST {
                                q.close();
                            }
                        }
                    })
                })
                .collect();
            for i in 0..BURST {
                q.push(i).unwrap();
            }
            for consumer in consumers {
                consumer.join().unwrap();
            }
            let mut seen = lock(&seen).clone();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2], "an item was lost or duplicated");
        })
        .expect("no item may be stranded while a consumer is parked");
    }

    /// `close()` with both kinds of waiter parked: a producer on the full
    /// queue and a consumer in its fill wait (far-future deadline, batch
    /// cap never reached). Close must wake both, and every accepted item
    /// is drained exactly once.
    #[test]
    fn close_wakes_parked_producer_and_filling_consumer() {
        try_check("queue-close-wakes-both-kinds", cfg(), || {
            let q = Arc::new(BatchQueue::new(1));
            q.push(10u32).unwrap();
            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(11).is_ok())
            };
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let policy = BatchPolicy {
                        max_batch: 8,
                        deadline: Duration::from_secs(3600),
                    };
                    let mut drained = Vec::new();
                    let mut batch = Vec::new();
                    while q.pop_batch_into(policy, &mut batch) {
                        drained.append(&mut batch);
                    }
                    drained
                })
            };
            q.close();
            let accepted = producer.join().unwrap();
            let drained = consumer.join().unwrap();
            let expected: Vec<u32> = if accepted { vec![10, 11] } else { vec![10] };
            assert_eq!(drained, expected, "close stranded or lost an item");
            assert_eq!(q.not_empty.parked(), 0);
            assert_eq!(q.not_full.parked(), 0);
        })
        .expect("close must wake producers and consumers alike");
    }
}
