//! The `std::sync` facade.
//!
//! With the `check` feature **off** this module is a verbatim re-export
//! of `std::sync` — code written against it compiles to exactly what it
//! would with direct std imports. With `check` **on**, `Mutex`,
//! `Condvar`, and the atomics are instrumented: constructed inside a
//! model run they register with the active scheduler and every
//! operation becomes a scheduling decision; constructed (or used)
//! outside a model run they transparently pass through to std, so
//! ordinary tests and binaries built with the feature still behave
//! normally.

#[cfg(not(feature = "check"))]
pub use std::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, WaitTimeoutResult, Weak,
};

/// Atomic types (std re-export in normal builds; instrumented wrappers
/// under `check`).
#[cfg(not(feature = "check"))]
pub mod atomic {
    pub use std::sync::atomic::*;
}

#[cfg(feature = "check")]
pub use instrumented::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
#[cfg(feature = "check")]
pub use std::sync::{Arc, LockResult, PoisonError, Weak};

#[cfg(feature = "check")]
pub use instrumented::atomic;

#[cfg(feature = "check")]
mod instrumented {
    use crate::rt::{self, Scheduler, Wake};
    use std::ops::{Deref, DerefMut};
    use std::sync::{Arc, LockResult, PoisonError, Weak};
    use std::time::Duration;

    /// A model object's binding: the scheduler that was active when it
    /// was constructed, plus its id there.
    #[derive(Clone)]
    struct Binding {
        sched: Weak<Scheduler>,
        id: usize,
    }

    impl Binding {
        /// The scheduler + calling thread id, when the current thread
        /// belongs to the same live model run as the object.
        fn engage(&self) -> Option<(Arc<Scheduler>, usize, usize)> {
            let obj_sched = self.sched.upgrade()?;
            let (cur_sched, tid) = rt::current()?;
            if Arc::ptr_eq(&obj_sched, &cur_sched) {
                Some((obj_sched, tid, self.id))
            } else {
                None
            }
        }
    }

    /// A mutex whose lock/unlock are scheduling decisions inside a
    /// model run, and a plain `std::sync::Mutex` everywhere else.
    pub struct Mutex<T: ?Sized> {
        model: Option<Binding>,
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// A new mutex; registers with the active model run, if any.
        pub fn new(value: T) -> Self {
            let model = rt::current().map(|(sched, _)| Binding {
                id: sched.register_mutex(),
                sched: Arc::downgrade(&sched),
            });
            Self {
                model,
                inner: std::sync::Mutex::new(value),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Locks, blocking in *model time* when instrumented.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            if let Some((sched, tid, mid)) = self.model.as_ref().and_then(Binding::engage) {
                sched.mutex_lock(tid, mid);
                // The model grants exclusivity, so the real lock below
                // is uncontended; clear stale poison from aborted runs.
                let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    lock: self,
                    inner: Some(inner),
                })
            } else {
                match self.inner.lock() {
                    Ok(inner) => Ok(MutexGuard {
                        lock: self,
                        inner: Some(inner),
                    }),
                    Err(poison) => Err(PoisonError::new(MutexGuard {
                        lock: self,
                        inner: Some(poison.into_inner()),
                    })),
                }
            }
        }
    }

    impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Self::new(T::default())
        }
    }

    /// Guard of the instrumented [`Mutex`]; model-releases on drop.
    pub struct MutexGuard<'a, T: ?Sized> {
        lock: &'a Mutex<T>,
        inner: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken")
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard taken")
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if let Some(inner) = self.inner.take() {
                // Release the real lock before the model release so the
                // next model owner's real lock is uncontended.
                drop(inner);
                if let Some((sched, tid, mid)) = self.lock.model.as_ref().and_then(Binding::engage)
                {
                    sched.mutex_unlock(tid, mid);
                }
            }
        }
    }

    /// Result of [`Condvar::wait_timeout`]: mirrors std's API. Under the
    /// model, timeouts fire when the *scheduler* decides they do.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WaitTimeoutResult(bool);

    impl WaitTimeoutResult {
        /// `true` iff the wait ended by timing out.
        pub fn timed_out(&self) -> bool {
            self.0
        }
    }

    /// A condition variable whose waits and notifies are scheduling
    /// decisions inside a model run.
    pub struct Condvar {
        model: Option<Binding>,
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// A new condvar; registers with the active model run, if any.
        pub fn new() -> Self {
            let model = rt::current().map(|(sched, _)| Binding {
                id: sched.register_condvar(),
                sched: Arc::downgrade(&sched),
            });
            Self {
                model,
                inner: std::sync::Condvar::new(),
            }
        }

        /// Blocks (in model time when instrumented) until notified.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let (guard, _) = self.wait_inner(guard, false);
            Ok(guard)
        }

        /// Blocks until notified or until the scheduler fires the
        /// timeout (model) / `timeout` elapses (passthrough).
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            let (guard, timed_out) = self.wait_timeout_inner(guard, timeout);
            Ok((guard, WaitTimeoutResult(timed_out)))
        }

        fn wait_inner<'a, T>(
            &self,
            mut guard: MutexGuard<'a, T>,
            _timeout: bool,
        ) -> (MutexGuard<'a, T>, bool) {
            let mutex = guard.lock;
            let engaged =
                self.model
                    .as_ref()
                    .and_then(Binding::engage)
                    .and_then(|(sched, tid, cvid)| {
                        mutex
                            .model
                            .as_ref()
                            .and_then(Binding::engage)
                            .map(|(_, _, mid)| (sched, tid, cvid, mid))
                    });
            let inner = guard.inner.take().expect("guard taken");
            match engaged {
                Some((sched, tid, cvid, mid)) => {
                    drop(inner); // real unlock; model still owns the mutex
                    drop(guard); // inner is None: no model release
                    let _wake = sched.cond_wait(tid, cvid, mid, false);
                    let inner = mutex.inner.lock().unwrap_or_else(PoisonError::into_inner);
                    (
                        MutexGuard {
                            lock: mutex,
                            inner: Some(inner),
                        },
                        false,
                    )
                }
                None => {
                    drop(guard);
                    let inner = self
                        .inner
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                    (
                        MutexGuard {
                            lock: mutex,
                            inner: Some(inner),
                        },
                        false,
                    )
                }
            }
        }

        fn wait_timeout_inner<'a, T>(
            &self,
            mut guard: MutexGuard<'a, T>,
            timeout: Duration,
        ) -> (MutexGuard<'a, T>, bool) {
            let mutex = guard.lock;
            let engaged =
                self.model
                    .as_ref()
                    .and_then(Binding::engage)
                    .and_then(|(sched, tid, cvid)| {
                        mutex
                            .model
                            .as_ref()
                            .and_then(Binding::engage)
                            .map(|(_, _, mid)| (sched, tid, cvid, mid))
                    });
            let inner = guard.inner.take().expect("guard taken");
            match engaged {
                Some((sched, tid, cvid, mid)) => {
                    drop(inner);
                    drop(guard);
                    let wake = sched.cond_wait(tid, cvid, mid, true);
                    let inner = mutex.inner.lock().unwrap_or_else(PoisonError::into_inner);
                    (
                        MutexGuard {
                            lock: mutex,
                            inner: Some(inner),
                        },
                        wake == Wake::TimedOut,
                    )
                }
                None => {
                    drop(guard);
                    let (inner, result) = self
                        .inner
                        .wait_timeout(inner, timeout)
                        .unwrap_or_else(PoisonError::into_inner);
                    (
                        MutexGuard {
                            lock: mutex,
                            inner: Some(inner),
                        },
                        result.timed_out(),
                    )
                }
            }
        }

        /// Wakes one waiter (the longest-waiting, under the model).
        pub fn notify_one(&self) {
            if let Some((sched, tid, cvid)) = self.model.as_ref().and_then(Binding::engage) {
                sched.notify(tid, cvid, false);
            } else {
                self.inner.notify_one();
            }
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            if let Some((sched, tid, cvid)) = self.model.as_ref().and_then(Binding::engage) {
                sched.notify(tid, cvid, true);
            } else {
                self.inner.notify_all();
            }
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Self::new()
        }
    }

    impl std::fmt::Debug for Condvar {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Condvar").finish_non_exhaustive()
        }
    }

    /// Instrumented atomics: each access is a yield point inside a model
    /// run. The model runs one thread at a time (sequential
    /// consistency), so the `Ordering` argument is accepted for API
    /// compatibility and taken at its strongest.
    pub mod atomic {
        pub use std::sync::atomic::Ordering;

        use super::Binding;
        use crate::rt;
        use std::sync::Arc;

        macro_rules! instrumented_atomic {
            ($name:ident, $std:ty, $value:ty) => {
                /// Instrumented atomic; see the module docs.
                pub struct $name {
                    model: Option<Binding>,
                    inner: $std,
                }

                impl $name {
                    /// A new atomic; registers with the active model
                    /// run, if any.
                    pub fn new(value: $value) -> Self {
                        let model = rt::current().map(|(sched, _)| Binding {
                            id: sched.register_mutex(),
                            sched: Arc::downgrade(&sched),
                        });
                        Self {
                            model,
                            inner: <$std>::new(value),
                        }
                    }

                    fn yield_op(&self, op: &str) {
                        if let Some((sched, tid, id)) =
                            self.model.as_ref().and_then(Binding::engage)
                        {
                            sched.op(tid, format!("{}#{id}.{op}", stringify!($name)));
                        }
                    }

                    /// Atomic load (yield point under the model).
                    pub fn load(&self, order: Ordering) -> $value {
                        self.yield_op("load");
                        self.inner.load(order)
                    }

                    /// Atomic store (yield point under the model).
                    pub fn store(&self, value: $value, order: Ordering) {
                        self.yield_op("store");
                        self.inner.store(value, order)
                    }

                    /// Atomic swap (yield point under the model).
                    pub fn swap(&self, value: $value, order: Ordering) -> $value {
                        self.yield_op("swap");
                        self.inner.swap(value, order)
                    }
                }

                impl std::fmt::Debug for $name {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        self.inner.fmt(f)
                    }
                }
            };
        }

        instrumented_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
        instrumented_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
        instrumented_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

        impl AtomicU64 {
            /// Atomic add returning the previous value (yield point
            /// under the model).
            pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
                self.yield_op("fetch_add");
                self.inner.fetch_add(value, order)
            }
        }

        impl AtomicUsize {
            /// Atomic add returning the previous value (yield point
            /// under the model).
            pub fn fetch_add(&self, value: usize, order: Ordering) -> usize {
                self.yield_op("fetch_add");
                self.inner.fetch_add(value, order)
            }

            /// Atomic subtract returning the previous value (yield point
            /// under the model).
            pub fn fetch_sub(&self, value: usize, order: Ordering) -> usize {
                self.yield_op("fetch_sub");
                self.inner.fetch_sub(value, order)
            }
        }
    }
}
