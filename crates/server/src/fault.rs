//! Deterministic fault injection for the serving plane, plus the client
//! retry policy that rides out injected (and real) transient failures.
//!
//! A [`FaultInjector`] is threaded through the worker and writer loops.
//! Disabled (the default, [`FaultInjector::disabled`]) it is a single
//! `Option` branch per check site — no allocation, no atomics, no clock
//! reads — so the hot path the benchmark's `serve_read` workload measures
//! and the zero-alloc gate is untouched. Enabled, every decision is a pure
//! function of `(seed, site, stream, event)` hashed through SplitMix64:
//! the *n*-th flush of the writer or the *n*-th batch of worker *w*
//! fires (or not) identically on every run with the same seed,
//! regardless of thread interleaving. What varies across runs is only
//! how requests group into batches; the decision stream per site is
//! replayable, which is what makes a chaos failure reproducible.
//!
//! Injectable fault classes:
//!
//! * **worker panic mid-batch** — the worker fails its drained tickets
//!   with [`LisError::Shutdown`] and unwinds; supervision respawns it;
//! * **slow batch** — a latency spike inside the measured serve span,
//!   which is also how queue saturation is provoked (service time up,
//!   estimated wait up, deadline admission sheds);
//! * **writer stall** — the writer sleeps before processing a flush;
//! * **writer crash** — queued writes resolve to
//!   [`WriteStatus::Failed`](crate::write::WriteStatus) with a reason,
//!   the writer unwinds, and the supervisor republishes an epoch rebuilt
//!   from the authoritative keyset;
//! * **delayed publish** — the epoch swap lags the keyset mutation,
//!   stretching the window where readers serve the previous snapshot;
//! * **storage faults** (durable servers only) — process death before or
//!   after the WAL append (`CrashBeforeAppend` / `CrashAfterAppend`), a
//!   torn append (`TornWrite`), and silent media corruption (`BitFlip`).
//!   The crash sites unwind with `ProcessKill`: the supervisor shuts
//!   the write plane down instead of restarting, modelling SIGKILL so
//!   the chaos harness can exercise `durability::recover`.
//!
//! All counters and flags route through `crate::sync` so instrumented
//! (`--features check`) builds stay schedulable; injected delays are
//! plain `std::thread::sleep`s, each marked for the `no-prod-sleep` lint.
//!
//! The chaos ladder (`lis::chaos`) derives every schedule from the one
//! seed in its config (`lis-cli chaos --seed`).

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use lis_core::error::{LisError, Result};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64 — the workspace's standard deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault classes an injector can fire, one decision stream each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A serving worker panics after draining a batch.
    WorkerPanic,
    /// A serving worker sleeps inside the measured serve span.
    SlowBatch,
    /// The writer sleeps before processing a flush.
    WriterStall,
    /// The writer fails its drained writes and unwinds.
    WriterCrash,
    /// The writer sleeps between mutating the keyset and publishing.
    DelayedPublish,
    /// Process death before the WAL append: the drained batch is neither
    /// durable nor acked. Recovery must show none of it.
    CrashBeforeAppend,
    /// Process death after the WAL append but before any ticket is
    /// fulfilled: the batch is durable but never acked. Recovery must
    /// replay it whole (durable-but-unacked is the allowed direction).
    CrashAfterAppend,
    /// A torn write: only a prefix of the WAL record reaches the disk
    /// before process death. Recovery must truncate the torn tail.
    TornWrite,
    /// Silent media corruption: one bit of the appended record flips on
    /// the way to disk. Recovery must refuse with a checksum error once
    /// later records make the damage mid-log.
    BitFlip,
}

/// Every site, for iterating counters in reports and tests.
pub const FAULT_SITES: [FaultSite; 9] = [
    FaultSite::WorkerPanic,
    FaultSite::SlowBatch,
    FaultSite::WriterStall,
    FaultSite::WriterCrash,
    FaultSite::DelayedPublish,
    FaultSite::CrashBeforeAppend,
    FaultSite::CrashAfterAppend,
    FaultSite::TornWrite,
    FaultSite::BitFlip,
];

impl FaultSite {
    fn slot(self) -> usize {
        match self {
            FaultSite::WorkerPanic => 0,
            FaultSite::SlowBatch => 1,
            FaultSite::WriterStall => 2,
            FaultSite::WriterCrash => 3,
            FaultSite::DelayedPublish => 4,
            FaultSite::CrashBeforeAppend => 5,
            FaultSite::CrashAfterAppend => 6,
            FaultSite::TornWrite => 7,
            FaultSite::BitFlip => 8,
        }
    }

    /// Per-site salt so sites with equal probabilities draw independent
    /// decision streams from one seed.
    fn salt(self) -> u64 {
        0xC2B2_AE3D_27D4_EB4F_u64.wrapping_mul(self.slot() as u64 + 1)
    }
}

/// Probabilities and delays of one fault schedule. Probabilities are per
/// event (a drained batch for worker sites, a flush for writer sites) in
/// `[0, 1]`; zero disables the site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Probability a worker panics after draining a batch.
    pub worker_panic: f64,
    /// Probability a batch is served slowly.
    pub slow_batch: f64,
    /// How long a slow batch sleeps.
    pub slow: Duration,
    /// Probability the writer stalls before a flush.
    pub writer_stall: f64,
    /// How long a writer stall sleeps.
    pub stall: Duration,
    /// Probability the writer crashes on a flush.
    pub writer_crash: f64,
    /// Probability an epoch publish is delayed.
    pub delayed_publish: f64,
    /// How long a delayed publish sleeps.
    pub publish_delay: Duration,
    /// Probability the process dies before a flush's WAL append.
    pub crash_before_append: f64,
    /// Probability the process dies after the append, before the acks.
    pub crash_after_append: f64,
    /// Probability a WAL append tears mid-record (and the process dies).
    pub torn_write: f64,
    /// Probability one bit of a WAL record flips on the way to disk.
    pub bit_flip: f64,
}

impl FaultConfig {
    /// A schedule with every site off; enable sites with the builders.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            worker_panic: 0.0,
            slow_batch: 0.0,
            slow: Duration::from_millis(2),
            writer_stall: 0.0,
            stall: Duration::from_millis(2),
            writer_crash: 0.0,
            delayed_publish: 0.0,
            publish_delay: Duration::from_millis(2),
            crash_before_append: 0.0,
            crash_after_append: 0.0,
            torn_write: 0.0,
            bit_flip: 0.0,
        }
    }

    /// Sets the worker-panic probability.
    pub fn worker_panic(mut self, p: f64) -> Self {
        self.worker_panic = p;
        self
    }

    /// Sets the slow-batch probability and sleep.
    pub fn slow_batch(mut self, p: f64, slow: Duration) -> Self {
        self.slow_batch = p;
        self.slow = slow;
        self
    }

    /// Sets the writer-stall probability and sleep.
    pub fn writer_stall(mut self, p: f64, stall: Duration) -> Self {
        self.writer_stall = p;
        self.stall = stall;
        self
    }

    /// Sets the writer-crash probability.
    pub fn writer_crash(mut self, p: f64) -> Self {
        self.writer_crash = p;
        self
    }

    /// Sets the delayed-publish probability and sleep.
    pub fn delayed_publish(mut self, p: f64, delay: Duration) -> Self {
        self.delayed_publish = p;
        self.publish_delay = delay;
        self
    }

    /// Sets the crash-before-append probability.
    pub fn crash_before_append(mut self, p: f64) -> Self {
        self.crash_before_append = p;
        self
    }

    /// Sets the crash-after-append (before-ack) probability.
    pub fn crash_after_append(mut self, p: f64) -> Self {
        self.crash_after_append = p;
        self
    }

    /// Sets the torn-write probability.
    pub fn torn_write(mut self, p: f64) -> Self {
        self.torn_write = p;
        self
    }

    /// Sets the bit-flip probability.
    pub fn bit_flip(mut self, p: f64) -> Self {
        self.bit_flip = p;
        self
    }

    fn probability(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::WorkerPanic => self.worker_panic,
            FaultSite::SlowBatch => self.slow_batch,
            FaultSite::WriterStall => self.writer_stall,
            FaultSite::WriterCrash => self.writer_crash,
            FaultSite::DelayedPublish => self.delayed_publish,
            FaultSite::CrashBeforeAppend => self.crash_before_append,
            FaultSite::CrashAfterAppend => self.crash_after_append,
            FaultSite::TornWrite => self.torn_write,
            FaultSite::BitFlip => self.bit_flip,
        }
    }
}

struct FaultState {
    cfg: FaultConfig,
    armed: AtomicBool,
    fired: [AtomicU64; FAULT_SITES.len()],
}

/// A cloneable handle deciding, deterministically, whether fault number
/// `event` of `site` on `stream` fires. See the module docs.
#[derive(Clone, Default)]
pub struct FaultInjector(Option<Arc<FaultState>>);

impl FaultInjector {
    /// The no-op injector every default server runs with: each check
    /// site reduces to one `Option` discriminant branch.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// An armed injector drawing every decision from `cfg.seed`.
    pub fn seeded(cfg: FaultConfig) -> Self {
        Self(Some(Arc::new(FaultState {
            cfg,
            armed: AtomicBool::new(true),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
        })))
    }

    /// `true` iff this injector can ever fire.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Stops all further faults (the chaos harness disarms before
    /// measuring recovery). Decisions already taken stand.
    pub fn disarm(&self) {
        if let Some(state) = &self.0 {
            state.armed.store(false, Ordering::SeqCst);
        }
    }

    /// Re-enables a disarmed injector.
    pub fn rearm(&self) {
        if let Some(state) = &self.0 {
            state.armed.store(true, Ordering::SeqCst);
        }
    }

    /// Faults fired at `site` so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.fired[site.slot()].load(Ordering::Relaxed))
    }

    /// Total faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        FAULT_SITES.iter().map(|&s| self.fired(s)).sum()
    }

    /// The deterministic core: whether event number `event` of `site` on
    /// `stream` fires. Pure in `(seed, site, stream, event)`; counts the
    /// hit when armed.
    fn fires(&self, site: FaultSite, stream: u64, event: u64) -> bool {
        let Some(state) = &self.0 else {
            return false;
        };
        if !state.armed.load(Ordering::Relaxed) {
            return false;
        }
        let p = state.cfg.probability(site);
        if p <= 0.0 {
            return false;
        }
        let x = splitmix64(
            state.cfg.seed
                ^ site.salt()
                ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ event.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        // Top 53 bits → a uniform draw in [0, 1).
        let draw = (x >> 11) as f64 / (1u64 << 53) as f64;
        let hit = draw < p;
        if hit {
            state.fired[site.slot()].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Whether worker `worker`'s batch number `batch` dies mid-batch.
    pub(crate) fn worker_panic(&self, worker: u64, batch: u64) -> bool {
        self.fires(FaultSite::WorkerPanic, worker, batch)
    }

    /// The sleep, if any, injected into worker `worker`'s batch `batch`.
    pub(crate) fn slow_batch(&self, worker: u64, batch: u64) -> Option<Duration> {
        if self.fires(FaultSite::SlowBatch, worker, batch) {
            self.0.as_ref().map(|s| s.cfg.slow)
        } else {
            None
        }
    }

    /// The stall, if any, injected before writer flush `flush`.
    pub(crate) fn writer_stall(&self, flush: u64) -> Option<Duration> {
        if self.fires(FaultSite::WriterStall, 0, flush) {
            self.0.as_ref().map(|s| s.cfg.stall)
        } else {
            None
        }
    }

    /// Whether the writer crashes on flush `flush`.
    pub(crate) fn writer_crash(&self, flush: u64) -> bool {
        self.fires(FaultSite::WriterCrash, 0, flush)
    }

    /// The delay, if any, injected before publishing flush `flush`.
    pub(crate) fn delayed_publish(&self, flush: u64) -> Option<Duration> {
        if self.fires(FaultSite::DelayedPublish, 0, flush) {
            self.0.as_ref().map(|s| s.cfg.publish_delay)
        } else {
            None
        }
    }

    /// Whether the process dies before flush `flush`'s WAL append.
    pub(crate) fn crash_before_append(&self, flush: u64) -> bool {
        self.fires(FaultSite::CrashBeforeAppend, 0, flush)
    }

    /// Whether the process dies after flush `flush`'s append, pre-ack.
    pub(crate) fn crash_after_append(&self, flush: u64) -> bool {
        self.fires(FaultSite::CrashAfterAppend, 0, flush)
    }

    /// Whether flush `flush`'s WAL append tears mid-record.
    pub(crate) fn torn_write(&self, flush: u64) -> bool {
        self.fires(FaultSite::TornWrite, 0, flush)
    }

    /// Whether flush `flush`'s WAL record takes a bit flip on the way to
    /// disk.
    pub(crate) fn bit_flip(&self, flush: u64) -> bool {
        self.fires(FaultSite::BitFlip, 0, flush)
    }
}

/// Marker payload an injected panic unwinds with. Carrying a zero-sized
/// known type (instead of a `&str`) keeps injected unwinds silent under
/// the test harness's panic hook and lets supervisors assert the panic
/// was injected rather than a bug.
pub(crate) struct InjectedFault;

/// Marker payload a SIGKILL-equivalent storage fault unwinds with. The
/// writer supervisor treats it as process death: it does NOT restart the
/// writer — it fails everything still queued and closes the write plane,
/// so the chaos harness can `recover()` the durable directory into a
/// fresh server, exactly as an operator would after a real kill.
pub(crate) struct ProcessKill;

/// Bounded deterministic exponential backoff with jitter, shared by
/// [`ServerHandle::lookup_retry`](crate::server::ServerHandle::lookup_retry)
/// and [`ServerHandle::write_retry`](crate::server::ServerHandle::write_retry).
///
/// Attempt `a` (1-based among retries) sleeps a jittered duration in
/// `[b/2, b]` where `b = min(base · 2^(a-1), cap)`; the jitter is drawn
/// from SplitMix64 over `(seed, stream, a)`, so two clients retrying the
/// same key desynchronize deterministically instead of stampeding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); min 1.
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
    /// Per-attempt shed deadline handed to `submit_with_deadline`; `None`
    /// skips load shedding.
    pub deadline: Option<Duration>,
    /// Per-attempt bound on the ticket wait; `None` waits indefinitely.
    pub wait_timeout: Option<Duration>,
}

impl RetryPolicy {
    /// A policy with 50µs base, 5ms cap, and no deadlines.
    pub fn new(attempts: u32) -> Self {
        Self {
            attempts: attempts.max(1),
            base: Duration::from_micros(50),
            cap: Duration::from_millis(5),
            seed: 0x5EED_CAFE,
            deadline: None,
            wait_timeout: None,
        }
    }

    /// Sets the backoff base and cap.
    pub fn backoff_bounds(mut self, base: Duration, cap: Duration) -> Self {
        self.base = base;
        self.cap = cap;
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-attempt shed deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-attempt ticket-wait bound.
    pub fn wait_timeout(mut self, timeout: Duration) -> Self {
        self.wait_timeout = Some(timeout);
        self
    }

    /// The backoff before retry `attempt` (1-based) of `stream` —
    /// deterministic in `(seed, stream, attempt)`.
    pub fn backoff(&self, attempt: u32, stream: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(32);
        let grown = self.base.saturating_mul(1u32 << exp.min(31));
        let bounded = grown.min(self.cap).max(Duration::from_nanos(1));
        let span = bounded.as_nanos() as u64;
        let draw = splitmix64(self.seed ^ stream ^ u64::from(attempt).wrapping_mul(0x9E37));
        let jittered = span / 2 + draw % (span / 2 + 1);
        Duration::from_nanos(jittered)
    }

    /// Runs `op` up to `attempts` times, sleeping the backoff between
    /// tries, retrying only outcomes
    /// [`LisError::is_retryable`] classifies as transient.
    pub(crate) fn run<T>(&self, stream: u64, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let attempts = self.attempts.max(1);
        let mut last: Option<LisError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                // lis-analysis: allow(no-prod-sleep) — retry backoff.
                std::thread::sleep(self.backoff(attempt, stream));
            }
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if e.is_retryable() && attempt + 1 < attempts => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        // Unreachable: the loop always returns on its final attempt; the
        // stored error satisfies the type checker without a panic path.
        Err(last.unwrap_or(LisError::Timeout(Duration::ZERO)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let f = FaultInjector::disabled();
        assert!(!f.is_enabled());
        for event in 0..1_000 {
            assert!(!f.worker_panic(0, event));
            assert!(f.slow_batch(1, event).is_none());
            assert!(!f.writer_crash(event));
            assert!(f.writer_stall(event).is_none());
            assert!(f.delayed_publish(event).is_none());
            assert!(!f.crash_before_append(event));
            assert!(!f.crash_after_append(event));
            assert!(!f.torn_write(event));
            assert!(!f.bit_flip(event));
        }
        assert_eq!(f.total_fired(), 0);
    }

    #[test]
    fn decisions_are_pure_in_seed_site_stream_event() {
        let cfg = FaultConfig::new(42)
            .worker_panic(0.3)
            .writer_crash(0.3)
            .slow_batch(0.3, Duration::from_millis(1));
        let a = FaultInjector::seeded(cfg);
        let b = FaultInjector::seeded(cfg);
        for worker in 0..4u64 {
            for event in 0..500u64 {
                assert_eq!(a.worker_panic(worker, event), b.worker_panic(worker, event));
                assert_eq!(
                    a.slow_batch(worker, event).is_some(),
                    b.slow_batch(worker, event).is_some()
                );
                assert_eq!(a.writer_crash(event), b.writer_crash(event));
            }
        }
        assert_eq!(a.total_fired(), b.total_fired());
        assert!(a.fired(FaultSite::WorkerPanic) > 0, "p=0.3 never fired");
        // A different seed draws a different schedule.
        let c = FaultInjector::seeded(FaultConfig::new(43).worker_panic(0.3));
        let differs = (0..500u64).any(|e| a.worker_panic(0, e) != c.worker_panic(0, e));
        assert!(differs, "seeds 42 and 43 drew identical schedules");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let cfg = FaultConfig::new(7)
            .worker_panic(0.5)
            .writer_crash(0.5)
            .writer_stall(0.5, Duration::from_millis(1));
        let f = FaultInjector::seeded(cfg);
        let panics: Vec<bool> = (0..256).map(|e| f.worker_panic(0, e)).collect();
        let crashes: Vec<bool> = (0..256).map(|e| f.writer_crash(e)).collect();
        assert_ne!(panics, crashes, "sites share a decision stream");
    }

    #[test]
    fn storage_sites_draw_independent_streams() {
        let cfg = FaultConfig::new(5)
            .crash_before_append(0.5)
            .crash_after_append(0.5)
            .torn_write(0.5)
            .bit_flip(0.5);
        let f = FaultInjector::seeded(cfg);
        let before: Vec<bool> = (0..256).map(|e| f.crash_before_append(e)).collect();
        let after: Vec<bool> = (0..256).map(|e| f.crash_after_append(e)).collect();
        let torn: Vec<bool> = (0..256).map(|e| f.torn_write(e)).collect();
        let flip: Vec<bool> = (0..256).map(|e| f.bit_flip(e)).collect();
        assert_ne!(before, after, "crash sites share a decision stream");
        assert_ne!(torn, flip, "corruption sites share a decision stream");
        assert!(f.total_fired() > 0);
    }

    #[test]
    fn disarm_stops_faults_and_rearm_resumes() {
        let f = FaultInjector::seeded(FaultConfig::new(1).worker_panic(1.0));
        assert!(f.worker_panic(0, 0));
        f.disarm();
        assert!(!f.worker_panic(0, 1));
        assert_eq!(f.fired(FaultSite::WorkerPanic), 1);
        f.rearm();
        assert!(f.worker_panic(0, 1));
    }

    #[test]
    fn probability_bounds_hold() {
        let f = FaultInjector::seeded(FaultConfig::new(3).worker_panic(1.0).writer_crash(0.0));
        for e in 0..64 {
            assert!(f.worker_panic(0, e));
            assert!(!f.writer_crash(e));
        }
        let hits = (0..10_000u64)
            .filter(|&e| {
                FaultInjector::seeded(FaultConfig::new(9).slow_batch(0.2, Duration::ZERO))
                    .slow_batch(0, e)
                    .is_some()
            })
            .count();
        // 10k Bernoulli(0.2) draws: the empirical rate must be near 0.2.
        assert!((1_600..2_400).contains(&hits), "rate off: {hits}/10000");
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = RetryPolicy::new(8)
            .backoff_bounds(Duration::from_micros(100), Duration::from_millis(2))
            .seed(11);
        let a: Vec<Duration> = (1..8).map(|i| p.backoff(i, 42)).collect();
        let b: Vec<Duration> = (1..8).map(|i| p.backoff(i, 42)).collect();
        assert_eq!(a, b, "backoff must be deterministic");
        for (i, d) in a.iter().enumerate() {
            let bound = Duration::from_micros(100)
                .saturating_mul(1 << i)
                .min(Duration::from_millis(2));
            assert!(
                *d <= bound,
                "attempt {} backoff {d:?} over {bound:?}",
                i + 1
            );
            assert!(*d >= bound / 2, "attempt {} under jitter floor", i + 1);
        }
        // Distinct streams desynchronize.
        assert_ne!(p.backoff(3, 1), p.backoff(3, 2));
    }

    #[test]
    fn retry_run_retries_transient_and_surfaces_bugs() {
        let p =
            RetryPolicy::new(4).backoff_bounds(Duration::from_nanos(1), Duration::from_nanos(2));
        let mut calls = 0;
        let out: Result<u32> = p.run(0, || {
            calls += 1;
            if calls < 3 {
                Err(LisError::Shutdown("transient".into()))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls, 3);

        let mut calls = 0;
        let out: Result<u32> = p.run(0, || {
            calls += 1;
            Err(LisError::Invariant("bug".into()))
        });
        assert!(matches!(out, Err(LisError::Invariant(_))));
        assert_eq!(calls, 1, "non-retryable errors must not be retried");

        let mut calls = 0;
        let out: Result<u32> = p.run(0, || {
            calls += 1;
            Err(LisError::Timeout(Duration::from_millis(1)))
        });
        assert!(matches!(out, Err(LisError::Timeout(_))));
        assert_eq!(calls, 4, "retry budget not honored");
    }
}
