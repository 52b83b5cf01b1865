//! Mutation self-test for the lint suite: a deliberately violating
//! source tree must trip every rule, inline allows must suppress, and
//! the real workspace must scan clean (the CI gate this crate exists
//! to hold).

use lis_analysis::{analyze, RULES};
use std::path::{Path, PathBuf};

/// A scratch "workspace" under the target dir (unique per test so the
/// suites can run in parallel).
fn scratch_root(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/lis-analysis-selftest")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, text).unwrap();
}

const VIOLATING_SERVER_FILE: &str = r#"
// lis-analysis: zone(zero-alloc)
pub fn hot(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    for x in xs {
        out.push(*x + 1);
    }
    out
}

pub fn wait_without_loop(cv: &std::sync::Condvar, m: &std::sync::Mutex<bool>) {
    let guard = m.lock().unwrap();
    let _guard = cv.wait(guard).unwrap();
}

pub fn spawn_somewhere() {
    std::thread::spawn(|| {}).join().unwrap();
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        let x: Option<u32> = Some(1);
        x.unwrap();
    }
}
"#;

/// Ticket waits whose outcome is discarded — the definite-outcome
/// contract violation — in its own file so `bad.rs` line assertions
/// stay stable.
const VIOLATING_TICKET_FILE: &str = r#"
pub fn swallow(t: crate::ResponseTicket) {
    let _ = t.wait();
}

pub fn swallow_timed(t: crate::ResponseTicket, d: std::time::Duration) {
    let _ = t.wait_timeout(d);
}
"#;

/// An applied-write ack that comes *before* the file's WAL append, plus a
/// compliant ack after it — the durability-ack-order violation in its own
/// file so line assertions stay stable.
const VIOLATING_ACK_FILE: &str = r#"
pub fn eager_ack(slot: crate::ResponseSlot, store: &mut crate::Store, ops: &[u8]) {
    slot.fulfill(Ok(WriteStatus::Applied { epoch: 1 }));
    store.log_batch(ops, 1, false, false);
}

pub fn durable_ack(slot: crate::ResponseSlot) {
    slot.fulfill(Ok(WriteStatus::Applied { epoch: 2 }));
}
"#;

/// Per-op keyset mutation in one of the two write-plane files — in the
/// replay loop, through a field path, and as a bulk `insert_all` — plus
/// the same call in a test module, which is exempt.
const VIOLATING_APPLY_FILE: &str = r#"
pub fn replay(keyset: &mut KeySet, state: &mut State, ops: &[Op]) {
    for op in ops {
        let _ = keyset.insert(op.key);
        let _ = state.keyset.remove(op.key);
    }
    let _ = keyset.insert_all(ops.iter().map(|op| op.key));
}

#[cfg(test)]
mod tests {
    #[test]
    fn references_apply_per_op() {
        let _ = keyset.insert(1);
    }
}
"#;

/// A request-path wake site on a bare `Condvar` beside compliant ones on
/// `Signal`s, a `Signal` wait outside a predicate loop, and a test module
/// whose notifies are exempt.
const VIOLATING_WAKE_FILE: &str = r#"
pub struct Queue {
    not_empty: Condvar,
    not_full: Signal,
}

impl Queue {
    pub fn push(&self) {
        self.not_empty.notify_one();
    }

    pub fn pop(&self, done: &Signal) {
        self.not_full.notify_all();
        done.notify_one();
    }

    pub fn park_once(&self, guard: Guard) -> Guard {
        self.not_full.wait(guard)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_notifies_are_exempt() {
        cv.notify_all();
    }
}
"#;

/// A rebuilt-per-epoch victim copying its keyset's array, beside the same
/// copy in a test module, which is exempt.
const VIOLATING_VICTIM_FILE: &str = r#"
pub fn build(ks: &KeySet) -> Index {
    let keys = ks.keys().to_vec();
    Index { keys }
}

#[cfg(test)]
mod tests {
    fn probes(ks: &KeySet) -> Vec<u64> {
        ks.keys().to_vec()
    }
}
"#;

/// A fixed-name scratch directory in a test. Spelled through `concat!` so
/// that this file, which the rule also walks, does not trip it.
const VIOLATING_SCRATCH_FILE: &str = concat!(
    "#[test]\n",
    "fn writes_a_fixture() {\n",
    "    let dir = std::env::temp_",
    "dir().join(\"fixture\");\n",
    "}\n",
);

/// A poll-and-sleep loop beside an allowed injected delay and a test
/// module's sleep, which is exempt.
const VIOLATING_SLEEP_FILE: &str = r#"
pub fn poll(ready: &AtomicBool) {
    while !ready.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(50));
    }
}

pub fn inject(delay: Duration) {
    // lis-analysis: allow(no-prod-sleep) — injected fault delay.
    std::thread::sleep(delay);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_sleep() {
        std::thread::sleep(Duration::from_millis(1));
    }
}
"#;

/// A global atomic knob beside an allowed id counter and a test module's
/// static, which is exempt.
const VIOLATING_KNOB_FILE: &str = r#"
static DEPTH: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

pub fn next_id() -> u64 {
    // lis-analysis: allow(no-global-knob) — an id source, not a setting.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

pub fn name(s: &'static str) -> &'static str {
    s
}

#[cfg(test)]
mod tests {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
}
"#;

#[test]
fn violating_tree_trips_every_rule() {
    let root = scratch_root("violating");
    write(&root, "src/lib.rs", "pub fn ok() {}\n");
    write(&root, "src/poll.rs", VIOLATING_SLEEP_FILE);
    write(&root, "crates/core/src/knob.rs", VIOLATING_KNOB_FILE);
    // The model checker's facade and the shims are exempt.
    write(&root, "crates/check/src/thread.rs", VIOLATING_SLEEP_FILE);
    write(&root, "crates/shims/rand/src/lib.rs", VIOLATING_SLEEP_FILE);
    write(&root, "crates/server/src/bad.rs", VIOLATING_SERVER_FILE);
    write(
        &root,
        "crates/server/src/ticket_bad.rs",
        VIOLATING_TICKET_FILE,
    );
    write(&root, "crates/server/src/ack_bad.rs", VIOLATING_ACK_FILE);
    write(
        &root,
        "crates/server/src/durability.rs",
        VIOLATING_APPLY_FILE,
    );
    // The same text outside the two write-plane files is not the rule's
    // business.
    write(
        &root,
        "crates/server/src/elsewhere.rs",
        VIOLATING_APPLY_FILE,
    );
    write(&root, "crates/server/src/queue.rs", VIOLATING_WAKE_FILE);
    // Off the request path (the worker pool's condvars) a bare notify is
    // not the rule's business.
    write(&root, "crates/server/src/pool.rs", VIOLATING_WAKE_FILE);
    write(
        &root,
        "crates/core/src/index.rs",
        "pub fn with_defaults() {\n    let _ = Registered::new();\n}\n",
    );
    write(
        &root,
        "crates/core/src/orphan.rs",
        "impl LearnedIndex for Orphan {}\nimpl LearnedIndex for Registered {}\n",
    );
    write(&root, "crates/core/src/rmi.rs", VIOLATING_VICTIM_FILE);
    // A structure that is not rebuilt per epoch may copy.
    write(&root, "crates/core/src/btree.rs", VIOLATING_VICTIM_FILE);
    write(&root, "tests/fixture.rs", VIOLATING_SCRATCH_FILE);
    // `ScratchDir`'s own module is where `temp_dir()` belongs.
    write(&root, "crates/core/src/scratch.rs", VIOLATING_SCRATCH_FILE);

    let report = analyze(&root);
    let hit: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    for rule in RULES {
        assert!(
            hit.contains(&rule),
            "rule `{rule}` not tripped by the violating tree; report: {:#?}",
            report.violations
        );
    }

    // The serve-path file trips zero-alloc (2 alloc sites), serve-no-panic
    // (unwraps outside the test mod only), condvar-predicate, and
    // thread-discipline.
    let in_bad = |rule: &str| {
        report
            .violations
            .iter()
            .filter(|v| v.rule == rule && v.file.ends_with("bad.rs"))
            .count()
    };
    assert_eq!(in_bad("zero-alloc"), 2);
    assert_eq!(in_bad("condvar-predicate"), 1);
    assert_eq!(in_bad("thread-discipline"), 1);
    assert!(in_bad("serve-no-panic") >= 3);
    assert!(
        !report
            .violations
            .iter()
            .any(|v| v.file.ends_with("bad.rs") && v.line >= 24),
        "the #[cfg(test)] module must be exempt"
    );

    // Both discarded ticket waits are flagged, and only those lines.
    let ticket: Vec<usize> = report
        .violations
        .iter()
        .filter(|v| v.rule == "ticket-definite-outcome")
        .map(|v| {
            assert!(v.file.ends_with("ticket_bad.rs"), "{v:?}");
            v.line
        })
        .collect();
    assert_eq!(ticket.len(), 2);

    // Only the ack preceding the WAL append is flagged; the ack after it
    // is compliant (the append at line 3 covers line 8).
    let acks: Vec<usize> = report
        .violations
        .iter()
        .filter(|v| v.rule == "durability-ack-order")
        .map(|v| {
            assert!(v.file.ends_with("ack_bad.rs"), "{v:?}");
            v.line
        })
        .collect();
    assert_eq!(acks.len(), 1);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "durability-ack-order" && v.message.contains("precedes")),
        "the eager ack must cite the append it precedes"
    );

    // The three per-op mutations in the write-plane file are flagged; the
    // test module's and the other file's are not.
    let applies: Vec<usize> = report
        .violations
        .iter()
        .filter(|v| v.rule == "writer-batch-apply")
        .map(|v| {
            assert!(v.file.ends_with("server/src/durability.rs"), "{v:?}");
            v.line
        })
        .collect();
    assert_eq!(applies, vec![4, 5, 7]);

    // Only the bare-condvar notify on the request path is flagged: not the
    // two `Signal` ones, the test module's, or the other file's.
    let wakes: Vec<(&str, usize)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "wake-through-signal")
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    assert_eq!(wakes.len(), 1, "{wakes:?}");
    assert!(wakes[0].0.ends_with("server/src/queue.rs") && wakes[0].1 == 9);
    // A `Signal` wait needs its predicate loop like any condvar wait.
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "condvar-predicate"
                && v.file.ends_with("server/src/queue.rs")
                && v.line == 18),
        "signal.wait(guard) outside a loop must be flagged"
    );

    // Only the victim's non-test copy is flagged.
    let copies: Vec<(&str, usize)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "shared-key-array")
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    assert_eq!(copies, vec![("crates/core/src/rmi.rs", 3)]);

    // The test's `temp_dir()` is flagged, tests/ being in scope; the
    // scratch module's is not.
    let scratch: Vec<(&str, usize)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "scratch-dir")
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    assert_eq!(scratch, vec![("tests/fixture.rs", 3)]);

    // Only the production poll is flagged: not the allowed delay, the test
    // module's sleep, or the exempt crates'.
    let sleeps: Vec<(&str, usize)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "no-prod-sleep")
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    assert_eq!(sleeps, vec![("src/poll.rs", 4)]);

    // Only the global knob is flagged: not the allowed id counter, the
    // `'static` lifetimes, or the test module's static.
    let knobs: Vec<(&str, usize)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "no-global-knob")
        .map(|v| (v.file.as_str(), v.line))
        .collect();
    assert_eq!(knobs, vec![("crates/core/src/knob.rs", 2)]);

    // The orphan index type is flagged; the registered one is not.
    let registry: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.rule == "registry-complete")
        .map(|v| v.message.as_str())
        .collect();
    assert_eq!(registry.len(), 1);
    assert!(registry[0].contains("`Orphan`"));

    // Machine-readable report: valid shape, counts match.
    let json = report.to_json();
    assert!(json.contains("\"violation_count\""));
    assert!(json.contains("\"rule\": \"zero-alloc\""));
}

#[test]
fn allows_suppress_and_are_counted() {
    let root = scratch_root("allowed");
    write(
        &root,
        "crates/server/src/excused.rs",
        r#"
pub fn teardown(h: std::thread::JoinHandle<()>) {
    // Justified: shutdown path, the panic is the report of record.
    // lis-analysis: allow(serve-no-panic)
    h.join().unwrap();
}

pub fn sanctioned_spawn() {
    // lis-analysis: allow(thread-discipline) — test fixture.
    std::thread::spawn(|| {}); // lis-analysis: allow(serve-no-panic)
}
"#,
    );
    let report = analyze(&root);
    assert!(
        report.is_clean(),
        "allows must suppress: {:#?}",
        report.violations
    );
    assert_eq!(report.allowed, 2);
}

/// The acceptance gate: the real workspace scans clean. This is the same
/// pass CI's `analyze` job runs; keeping it as a test means `cargo test`
/// alone catches a policy regression.
#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze(&root);
    assert!(
        report.files_scanned > 50,
        "workspace walk found too few files"
    );
    assert!(
        report.is_clean(),
        "workspace must pass its own lint suite: {:#?}",
        report.violations
    );
}
