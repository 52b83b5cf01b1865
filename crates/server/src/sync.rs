//! Synchronization facade for the serving plane.
//!
//! Every lock, condvar, and atomic on the serve path comes through this
//! module instead of `std::sync` directly. In normal builds that is a
//! zero-cost re-export of std (via `lis_check`'s passthrough facade);
//! with `--features check` the primitives are instrumented and the
//! `lis_check` scheduler explores thread interleavings over the *real*
//! `EpochSlot` / `BatchQueue` / `ResponseSlot` code.
//!
//! The `lock`/`wait` helpers and [`Signal`] centralize the serving
//! plane's poison policy: a poisoned lock means another serving thread
//! panicked while holding it, and the only sound response is to
//! propagate that panic rather than serve from state of unknown
//! integrity. Keeping the `expect`s here (and nowhere else) is what
//! lets the serve-no-panic lint hold for the rest of the crate.
//!
//! [`Signal`] is the request path's one waiting primitive: a condvar
//! that issues a wake-up only when a thread is parked on it.

pub(crate) use lis_check::sync::atomic;
pub(crate) use lis_check::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

use atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Acquires `m`, propagating a poisoning panic from another serving
/// thread.
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // lis-analysis: allow(serve-no-panic) — poisoning means a peer
    // serving thread already panicked while holding this lock;
    // propagating is the only sound response and this helper is the one
    // sanctioned place for it.
    m.lock().expect("serving-plane lock poisoned")
}

/// Blocks on `cv`, releasing and re-acquiring the guard's mutex;
/// propagates poisoning. Callers must re-check their predicate in a
/// loop around this (the condvar-predicate lint enforces it).
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    // lis-analysis: allow(serve-no-panic) — see `lock`.
    // lis-analysis: allow(condvar-predicate) — this *is* the wait
    // primitive; predicate loops are enforced at its call sites.
    cv.wait(guard).expect("serving-plane lock poisoned")
}

// lis-analysis: zone(zero-alloc)

/// A condition variable that knows whether anyone is waiting on it.
///
/// std's futex `Condvar` enters the kernel on every notify, waiter or
/// not, and on the request path almost nobody waits: a pipelined caller
/// pushes into a queue whose worker is busy and a worker fulfils tickets
/// whose holder is still submitting. `Signal` counts the threads parked
/// on it and skips the wake-up when the count is zero.
///
/// No wake-up is lost, provided the notifier changes the waiter's
/// predicate under the mutex the waiter holds and calls `notify_*`
/// afterwards (with or without the mutex): a waiter raises the count
/// while it still holds that mutex, so either it locked after the
/// notifier — and saw the new predicate, and never parked — or its
/// increment happened-before the notifier's lock and is read here.
pub(crate) struct Signal {
    cv: Condvar,
    /// Threads between `wait*` entry and return. Written only under the
    /// predicate mutex, which orders it against the notifier's read.
    parked: AtomicUsize,
    #[cfg(test)]
    wakes: std::sync::atomic::AtomicUsize,
}

impl Signal {
    pub(crate) fn new() -> Self {
        Self {
            cv: Condvar::new(),
            parked: AtomicUsize::new(0),
            #[cfg(test)]
            wakes: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Parks until notified, releasing and re-acquiring the guard's
    /// mutex; propagates poisoning. Callers must re-check their
    /// predicate in a loop around this (the condvar-predicate lint
    /// enforces it).
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.parked.fetch_add(1, Ordering::SeqCst);
        // lis-analysis: allow(condvar-predicate) — this *is* the wait
        // primitive; predicate loops are enforced at its call sites.
        let guard = wait(&self.cv, guard);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        guard
    }

    /// Like [`Signal::wait`] but gives up after `timeout`.
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.parked.fetch_add(1, Ordering::SeqCst);
        // lis-analysis: allow(condvar-predicate) — see `wait`.
        let woken = self.cv.wait_timeout(guard, timeout);
        // lis-analysis: allow(serve-no-panic) — see `lock`.
        let woken = woken.expect("serving-plane lock poisoned");
        self.parked.fetch_sub(1, Ordering::SeqCst);
        woken
    }

    /// Whether a thread is parked, i.e. a wake-up is due (and, in test
    /// builds, counted as issued).
    fn wake_due(&self) -> bool {
        let due = self.parked.load(Ordering::SeqCst) > 0;
        #[cfg(test)]
        self.wakes
            .fetch_add(usize::from(due), std::sync::atomic::Ordering::Relaxed);
        due
    }

    /// Wakes one parked thread, if any is parked.
    pub(crate) fn notify_one(&self) {
        if self.wake_due() {
            self.cv.notify_one();
        }
    }

    /// Wakes every parked thread, if any is parked.
    pub(crate) fn notify_all(&self) {
        if self.wake_due() {
            self.cv.notify_all();
        }
    }

    /// Threads currently parked.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }

    /// Spins (yielding, never sleeping) until one thread is parked, and
    /// returns holding `mutex`, the one that guards the waiter's
    /// predicate: the count rises under it, so 1 seen while holding it
    /// means the waiter is inside the condvar wait.
    #[cfg(test)]
    pub(crate) fn await_parked<'a, T>(&self, mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
        loop {
            let guard = lock(mutex);
            if self.parked() == 1 {
                return guard;
            }
            drop(guard);
            std::thread::yield_now();
        }
    }

    /// Wake-ups actually issued (notifies that found a parked thread).
    #[cfg(test)]
    pub(crate) fn wakes_issued(&self) -> usize {
        self.wakes.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn notify_with_nobody_parked_issues_no_wake() {
        let signal = Signal::new();
        for _ in 0..1_000 {
            signal.notify_one();
            signal.notify_all();
        }
        assert_eq!(signal.wakes_issued(), 0);
    }

    #[test]
    fn parked_waiter_gets_exactly_one_wake() {
        let pair = Arc::new((Mutex::new(false), Signal::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (ready, signal) = &*pair;
                let mut guard = lock(ready);
                while !*guard {
                    guard = signal.wait(guard);
                }
            })
        };
        let (ready, signal) = &*pair;
        *signal.await_parked(ready) = true;
        signal.notify_one();
        waiter.join().unwrap();
        assert_eq!(signal.wakes_issued(), 1);
        assert_eq!(signal.parked(), 0);
        // Nobody is parked any more: further notifies are free again.
        signal.notify_one();
        assert_eq!(signal.wakes_issued(), 1);
    }

    #[test]
    fn timed_out_wait_leaves_nobody_parked() {
        let ready = Mutex::new(false);
        let signal = Signal::new();
        let (guard, result) = signal.wait_timeout(lock(&ready), Duration::from_millis(1));
        assert!(result.timed_out());
        assert!(!*guard);
        assert_eq!(signal.parked(), 0);
    }
}

/// Model-checking tests: `lis_check` explores waiter/notifier
/// interleavings over the real `Signal`, including the schedules where
/// the notify is skipped because the waiter has not parked yet.
#[cfg(all(test, feature = "check"))]
mod model_tests {
    use super::*;
    use lis_check::{thread, try_check, CheckConfig};
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
    use std::sync::Arc;

    fn cfg() -> CheckConfig {
        CheckConfig::new().min_schedules(500)
    }

    #[test]
    fn no_schedule_strands_the_waiter() {
        let report = try_check("signal-wait-vs-notify", cfg(), || {
            let pair = Arc::new((Mutex::new(false), Signal::new()));
            let notifier = {
                let pair = Arc::clone(&pair);
                thread::spawn(move || {
                    let (ready, signal) = &*pair;
                    *lock(ready) = true;
                    signal.notify_one();
                })
            };
            let (ready, signal) = &*pair;
            let mut guard = lock(ready);
            while !*guard {
                guard = signal.wait(guard);
            }
            drop(guard);
            notifier.join().unwrap();
            assert_eq!(signal.parked(), 0, "a returned waiter still counted");
        })
        .expect("a skipped notify must never strand the waiter");
        assert!(report.distinct >= 2 || report.exhausted);
    }

    #[test]
    fn wait_timeout_resolves_both_ways_and_unparks() {
        let timed_out = Arc::new(StdAtomicUsize::new(0));
        let notified = Arc::new(StdAtomicUsize::new(0));
        let (to, no) = (Arc::clone(&timed_out), Arc::clone(&notified));
        try_check("signal-timeout-vs-notify", cfg(), move || {
            let pair = Arc::new((Mutex::new(false), Signal::new()));
            let notifier = {
                let pair = Arc::clone(&pair);
                thread::spawn(move || {
                    let (ready, signal) = &*pair;
                    *lock(ready) = true;
                    signal.notify_one();
                })
            };
            let (ready, signal) = &*pair;
            let mut guard = lock(ready);
            let mut fired = false;
            while !*guard {
                // The scheduler owns the timeout; leave the loop when it
                // fires so the run stays bounded.
                let (g, result) = signal.wait_timeout(guard, Duration::from_secs(3600));
                guard = g;
                if result.timed_out() {
                    fired = true;
                    break;
                }
            }
            drop(guard);
            if fired {
                to.fetch_add(1, StdOrdering::SeqCst);
            } else {
                no.fetch_add(1, StdOrdering::SeqCst);
            }
            notifier.join().unwrap();
            assert_eq!(signal.parked(), 0, "a returned waiter still counted");
        })
        .expect("timeout and notify may race in any order");
        assert!(
            timed_out.load(StdOrdering::SeqCst) > 0,
            "exploration never fired the timeout"
        );
        assert!(
            notified.load(StdOrdering::SeqCst) > 0,
            "exploration never delivered the notify first"
        );
    }
}
