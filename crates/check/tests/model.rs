//! Self-tests for the model checker: correct programs pass with broad
//! schedule coverage, and each seeded-bug class (atomicity violation,
//! deadlock, lost wakeup, stranded waiter) is caught with a trace and a
//! replay string. These are the ISSUE's "mutation" tests: every buggy
//! closure here is a mutant of a correct pattern used on the serve path.
#![cfg(feature = "check")]

use lis_check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use lis_check::sync::{Arc, Condvar, Mutex};
use lis_check::{thread, try_check, CheckConfig};
use std::time::Duration;

fn cfg(n: usize) -> CheckConfig {
    CheckConfig::new().min_schedules(n)
}

#[test]
fn correct_mutex_counter_passes() {
    let report = try_check("mutex-counter", cfg(200), || {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..2 {
                        *m.lock().unwrap() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock().unwrap(), 4);
    })
    .expect("correct counter must pass");
    assert!(report.schedules >= 2, "expected real exploration");
    assert!(report.distinct >= 2);
}

#[test]
fn explores_many_distinct_schedules() {
    // The CI acceptance knob: with a 10k target (or LIS_CHECK_ITERS),
    // a contended primitive test must cover >= that many distinct
    // schedules unless the bounded space is smaller and got exhausted.
    let target = CheckConfig::new().min_schedules;
    let report = try_check("coverage", CheckConfig::new(), || {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..3 {
                        *m.lock().unwrap() += i as u64 + 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock().unwrap(), 18);
    })
    .expect("correct program must pass");
    assert!(
        report.distinct >= target || report.exhausted,
        "coverage too small: {} distinct (target {target}, exhausted={})",
        report.distinct,
        report.exhausted
    );
}

#[test]
fn mutation_racy_increment_is_caught() {
    // Mutant: read-modify-write through separate atomic load/store
    // instead of fetch_add — the classic atomicity violation.
    let failure = try_check("racy-increment", cfg(500), || {
        let c = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
    })
    .expect_err("the lost update must be found");
    assert!(
        failure.message.contains("lost update"),
        "{}",
        failure.message
    );
    assert!(
        !failure.replay.is_empty(),
        "failure must carry a replay string"
    );
    assert!(
        failure.trace.contains("store"),
        "trace must show the schedule"
    );
}

#[test]
fn mutation_lock_order_deadlock_is_caught() {
    let failure = try_check("ab-ba-deadlock", cfg(500), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap();
        drop((_ga, _gb));
        t.join().unwrap();
    })
    .expect_err("the AB/BA deadlock must be found");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
    assert!(failure.message.contains("Mutex#"), "{}", failure.message);
}

#[test]
fn mutation_missing_predicate_loop_is_caught_as_lost_wakeup() {
    // Mutant: the predicate is checked in one critical section and the
    // wait happens in another, so a notify landing in the window between
    // them finds no waiter and is lost — the waiter then parks forever.
    // This is the bug class the predicate-loop lint guards against.
    let failure = try_check("lost-wakeup", cfg(500), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cv) = &*p2;
            *lock.lock().unwrap() = true;
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let need_wait = !*lock.lock().unwrap();
        if need_wait {
            // BUG: the notify may land here, before the wait below has
            // registered a waiter, and be lost.
            drop(cv.wait(lock.lock().unwrap()).unwrap());
        }
        t.join().unwrap();
    })
    .expect_err("the lost wakeup must be found");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
    assert!(
        failure.message.contains("lost-wakeup analysis"),
        "expected lost-wakeup diagnosis, got: {}",
        failure.message
    );
}

#[test]
fn predicate_loop_fixes_the_lost_wakeup() {
    // The repaired twin of the mutant above: the `while` loop makes the
    // pre-wait notify harmless.
    try_check("predicate-loop", cfg(500), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cv) = &*p2;
            *lock.lock().unwrap() = true;
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut ready = lock.lock().unwrap();
        while !*ready {
            ready = cv.wait(ready).unwrap();
        }
        drop(ready);
        t.join().unwrap();
    })
    .expect("predicate loop must pass");
}

/// The serving plane's `Signal` in miniature: a waiter counts itself as
/// parked while it still holds the predicate's mutex, and the notifier
/// wakes only when that count is non-zero. The notifier must read the
/// count *after* it changed the predicate under the mutex; the mutant
/// reads it before taking the lock.
fn wake_only_the_parked(read_count_before_lock: bool) {
    let shared = Arc::new((Mutex::new(false), Condvar::new(), AtomicUsize::new(0)));
    let s2 = Arc::clone(&shared);
    let notifier = thread::spawn(move || {
        let (lock, cv, parked) = &*s2;
        let stale = parked.load(Ordering::SeqCst);
        *lock.lock().unwrap() = true;
        let seen = if read_count_before_lock {
            // BUG: a waiter may lock, count itself and park between the
            // load above and the store, and is then never woken.
            stale
        } else {
            parked.load(Ordering::SeqCst)
        };
        if seen > 0 {
            cv.notify_one();
        }
    });
    let (lock, cv, parked) = &*shared;
    let mut ready = lock.lock().unwrap();
    while !*ready {
        parked.fetch_add(1, Ordering::SeqCst);
        ready = cv.wait(ready).unwrap();
        parked.fetch_sub(1, Ordering::SeqCst);
    }
    drop(ready);
    notifier.join().unwrap();
}

#[test]
fn mutation_parked_count_read_before_the_lock_is_caught_as_lost_wakeup() {
    let failure = try_check("stale-parked-count", cfg(500), || {
        wake_only_the_parked(true)
    })
    .expect_err("the skipped wake-up must be found");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
    assert!(
        failure.message.contains("parked in Condvar#"),
        "expected a stranded waiter, got: {}",
        failure.message
    );
    assert!(
        failure.message.contains("lost-wakeup analysis"),
        "{}",
        failure.message
    );
}

#[test]
fn parked_count_read_after_the_store_never_strands() {
    // The repaired twin: the waiter's increment happens under the mutex,
    // so a notifier that reads the count after its own critical section
    // either sees it or the waiter saw the new predicate and never parked.
    try_check("parked-count", cfg(500), || wake_only_the_parked(false))
        .expect("wake-only-the-parked must never strand the waiter");
}

#[test]
fn wait_timeout_resolves_both_ways() {
    // The scheduler owns the clock: both the timeout firing and the
    // notify arriving first must be explored, and the program must be
    // correct either way.
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    let timed_out = Arc::new(StdAtomicUsize::new(0));
    let notified = Arc::new(StdAtomicUsize::new(0));
    let (to, no) = (Arc::clone(&timed_out), Arc::clone(&notified));
    try_check("timeout-vs-notify", cfg(300), move || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cv) = &*p2;
            *lock.lock().unwrap() = true;
            cv.notify_one();
        });
        let (lock, cv) = &*pair;
        let mut done = lock.lock().unwrap();
        let mut fired = false;
        while !*done {
            let (g, res) = cv.wait_timeout(done, Duration::from_millis(1)).unwrap();
            done = g;
            if res.timed_out() {
                fired = true;
                break;
            }
        }
        drop(done);
        if fired {
            to.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        } else {
            no.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
        t.join().unwrap();
    })
    .expect("timeout race must be safe either way");
    assert!(
        timed_out.load(std::sync::atomic::Ordering::SeqCst) > 0,
        "exploration never fired the timeout"
    );
    assert!(
        notified.load(std::sync::atomic::Ordering::SeqCst) > 0,
        "exploration never delivered the notify first"
    );
}

#[test]
fn mutation_stranded_waiter_on_close_is_caught() {
    // Mutant of BatchQueue::close: setting `closed` without notifying
    // strands a parked consumer — detected as a deadlock.
    let failure = try_check("close-without-notify", cfg(500), || {
        let q = Arc::new((Mutex::new((Vec::<u32>::new(), false)), Condvar::new()));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || {
            let (lock, cv) = &*q2;
            let mut st = lock.lock().unwrap();
            while st.0.is_empty() && !st.1 {
                st = cv.wait(st).unwrap();
            }
        });
        let (lock, _cv) = &*q;
        lock.lock().unwrap().1 = true; // BUG: close without notify_all
        consumer.join().unwrap();
    })
    .expect_err("the stranded waiter must be found");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
}

#[test]
fn step_bound_catches_livelock() {
    let mut c = cfg(50);
    c.max_steps = 200;
    let failure = try_check("livelock", c, || {
        let stop = Arc::new(Mutex::new(false));
        // BUG: nobody ever sets `stop`, so this spins forever in model
        // time; the step bound reports it instead of hanging.
        while !*stop.lock().unwrap() {
            thread::yield_now();
        }
    })
    .expect_err("the livelock must be bounded");
    assert!(
        failure.message.contains("step bound"),
        "{}",
        failure.message
    );
}

#[test]
fn passthrough_outside_model_runs_normally() {
    // Instrumented primitives built outside `check()` behave like std:
    // the facade must not require a model run to function.
    let m = Arc::new(Mutex::new(0u64));
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let (m2, p2) = (Arc::clone(&m), Arc::clone(&pair));
    let t = thread::spawn(move || {
        *m2.lock().unwrap() += 1;
        let (lock, cv) = &*p2;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    });
    let (lock, cv) = &*pair;
    let mut ready = lock.lock().unwrap();
    while !*ready {
        let (g, _) = cv.wait_timeout(ready, Duration::from_secs(5)).unwrap();
        ready = g;
    }
    drop(ready);
    t.join().unwrap();
    assert_eq!(*m.lock().unwrap(), 1);
}
