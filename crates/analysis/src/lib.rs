//! # lis_analysis — repo-invariant lint suite
//!
//! A source-walking static-analysis pass enforcing the workspace's
//! cross-cutting invariants — the ones `rustc` and `clippy` cannot see
//! because they are *policies of this repo*, not properties of Rust:
//!
//! * **`zero-alloc`** — no allocation-capable calls (`Vec::new`,
//!   `vec![]`, `.push`, `.collect`, `.to_vec`, `.clone`, `format!`,
//!   `Box::new`, `.to_string`) inside declared zero-alloc zones. A zone
//!   is a whole file marked `// lis-analysis: zone(zero-alloc)` or a
//!   region between `// lis-analysis: begin(zero-alloc)` and
//!   `// lis-analysis: end(zero-alloc)`.
//! * **`thread-discipline`** — no `std::thread::spawn`/`scope` outside
//!   `lis_core::par` (the sanctioned fan-out home), the server's
//!   worker/writer entry points, and the `lis_check` scheduler runtime.
//! * **`condvar-predicate`** — every `Condvar::wait`/`wait_timeout`
//!   (direct, through the server's sync facade helpers, or on its
//!   `Signal`) sits inside a
//!   `while`/`loop` predicate loop, so a spurious or early wake re-checks
//!   its condition instead of proceeding on stale state.
//! * **`serve-no-panic`** — no `unwrap`/`expect`/`panic!` family calls in
//!   `crates/server/src` outside test modules: a panicking serve path
//!   strands client tickets.
//! * **`ticket-definite-outcome`** — no `let _ =` discard of a
//!   `.wait(`/`.wait_timeout(` result in `crates/server/src`: a ticket
//!   wait resolves to a value *or* a timeout/shutdown error, and
//!   discarding the result silently swallows that outcome instead of
//!   handling (or propagating) it.
//! * **`durability-ack-order`** — in any `crates/server/src` file that
//!   acks an applied write (`fulfill(Ok(WriteStatus::Applied`), the WAL
//!   append (`.log_batch(`) must come first in the file: an ack the
//!   durable log has not seen is a write the client trusts but a crash
//!   forgets.
//! * **`writer-batch-apply`** — no per-op keyset mutation
//!   (`keyset.insert(`, `keyset.remove(`, `insert_all(`) in the writer
//!   loop's and WAL replay's files (`crates/server/src/server.rs`,
//!   `durability.rs`) outside test modules: each is an `O(n)` array shift
//!   per write, where staging the batch (`Stage`) and one
//!   `KeySet::commit` pay it once per epoch or replay.
//! * **`wake-through-signal`** — in the non-test code of the request
//!   path's files (`crates/server/src/{queue,server,write}.rs`), every
//!   `.notify_one()`/`.notify_all()` is called on a field or binding
//!   declared as `Signal`, the serving plane's condvar that wakes only
//!   parked threads: a bare `Condvar` notify is a system call per request
//!   whether or not anyone waits.
//! * **`shared-key-array`** — no `.keys().to_vec()` in non-test code of
//!   the rebuilt-per-epoch victims (`crates/core/src/{rmi,pla}.rs`):
//!   an index stores the keyset's array through `KeySet::shared_keys`, so
//!   a write epoch's rebuild does not copy every key a second time.
//! * **`scratch-dir`** — no `temp_dir()` anywhere in the workspace, tests
//!   and benches included, outside `crates/core/src/scratch.rs`: a scratch
//!   directory comes from `ScratchDir`, unique per call, because two
//!   fixed names collide under parallel test threads.
//! * **`no-prod-sleep`** — no `thread::sleep` in non-test code of the
//!   root package's and the member crates' `src/` trees (the `lis_check`
//!   facade and the `shims` exempt): a sleep that stands in for an event
//!   is a poll, slow when the event is early and wrong when it is late.
//!   Injected fault delays, retry backoff and deliberate pacing carry an
//!   inline allow saying which they are.
//! * **`no-global-knob`** — no `static` of `Atomic*` type in non-test
//!   code of the same `src/` trees (the same exemptions): a process-global
//!   atomic is a runtime setting every caller shares and any test can
//!   flip mid-run. Id and sequence counters carry an inline allow naming
//!   them as such.
//! * **`registry-complete`** — every `impl LearnedIndex for T` in
//!   `lis-core` has its type constructed in
//!   `IndexRegistry::with_defaults`, so new structures are reachable by
//!   name from experiments and the CLI.
//! * **`forbid-unsafe`** — every workspace crate root carries
//!   `#![forbid(unsafe_code)]`.
//!
//! Any flagged line can be suppressed with an inline escape hatch —
//! `// lis-analysis: allow(<rule>)` on the line itself or in the
//! contiguous comment block directly above it — which is a *reviewed,
//! justified* exception rather than a silent one.
//!
//! Run as `cargo run -p lis_analysis` (CI's `analyze` job does). The
//! pass prints human-readable findings, writes a machine-readable JSON
//! report, and exits nonzero when any non-allowed violation remains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod scan;

pub use scan::FileScan;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule slug (e.g. `zero-alloc`).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Outcome of one full workspace pass.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Workspace root the pass ran over.
    pub root: PathBuf,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of violations suppressed by inline allows.
    pub allowed: usize,
    /// Remaining (non-allowed) violations.
    pub violations: Vec<Violation>,
}

/// The rule slugs this pass enforces, in report order.
pub const RULES: [&str; 14] = [
    "zero-alloc",
    "thread-discipline",
    "condvar-predicate",
    "serve-no-panic",
    "ticket-definite-outcome",
    "durability-ack-order",
    "writer-batch-apply",
    "wake-through-signal",
    "shared-key-array",
    "scratch-dir",
    "no-prod-sleep",
    "no-global-knob",
    "registry-complete",
    "forbid-unsafe",
];

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl AnalysisReport {
    /// Renders the report as JSON (hand-rolled; the workspace carries no
    /// serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"root\": \"{}\",",
            json_escape(&self.root.display().to_string())
        );
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"allowed\": {},", self.allowed);
        let rules: Vec<String> = RULES.iter().map(|r| format!("\"{r}\"")).collect();
        let _ = writeln!(out, "  \"rules\": [{}],", rules.join(", "));
        let _ = writeln!(out, "  \"violation_count\": {},", self.violations.len());
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let comma = if i + 1 == self.violations.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{comma}",
                v.rule,
                json_escape(&v.file),
                v.line,
                json_escape(&v.message)
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// `true` iff the pass found no (non-allowed) violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // Build output and hidden trees (`.git`, `.bench_build`).
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// The workspace's lintable source files: every `src/` tree of the root
/// package and the member crates. `tests/`, `benches/`, and `examples/`
/// trees are out of scope (the rules police the library/serve paths;
/// in-`src` test modules are excluded per rule instead).
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect_rs_files(&root.join("src"), &mut files);
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        let mut crate_dirs: Vec<PathBuf> = crates
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            collect_rs_files(&crate_dir.join("src"), &mut files);
            // Shim crates nest one level deeper (crates/shims/rand).
            if crate_dir.join("Cargo.toml").exists() {
                continue;
            }
            if let Ok(nested) = std::fs::read_dir(&crate_dir) {
                for sub in nested.flatten() {
                    let sub = sub.path();
                    if sub.is_dir() {
                        collect_rs_files(&sub.join("src"), &mut files);
                    }
                }
            }
        }
    }
    files.sort();
    files
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Calls that can hit the allocator, by syntactic fingerprint.
const ALLOC_PATTERNS: [&str; 9] = [
    "Vec::new",
    "vec![",
    ".push(",
    ".collect(",
    ".to_vec(",
    ".clone(",
    "format!",
    "Box::new",
    ".to_string(",
];

/// Whether `code` contains `pat` as a call-ish token (preceded by a
/// non-identifier character or line start).
fn has_token(code: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(i) = code[from..].find(pat) {
        let at = from + i;
        let prev_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if prev_ok {
            return true;
        }
        from = at + pat.len();
    }
    false
}

/// Whether a `wait(`-style call at `idx` (index of the `(`) has an
/// argument list matching the condvar shape: `min_args..=max_args`
/// comma-separated top-level arguments, the first non-empty.
fn call_args_in(code: &str, open: usize, min_args: usize, max_args: usize) -> bool {
    let bytes = code.as_bytes();
    debug_assert_eq!(bytes[open], b'(');
    let mut depth = 0usize;
    let mut args = 0usize;
    let mut current_len = 0usize;
    for &b in &bytes[open..] {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                if depth == 1 {
                    if current_len > 0 {
                        args += 1;
                    }
                    return (min_args..=max_args).contains(&args);
                }
                depth = depth.saturating_sub(1);
            }
            b',' if depth == 1 => {
                args += 1;
                current_len = 0;
            }
            b if depth >= 1 && !b.is_ascii_whitespace() => current_len += 1,
            _ => {}
        }
    }
    // Argument list continues on the next line: treat as matching (the
    // multi-line forms in this workspace are all real condvar waits).
    true
}

/// The identifier that ends `text` (empty when `text` ends in anything
/// else, such as the `)` of a call whose result is the receiver).
fn trailing_ident(text: &str) -> &str {
    let start = text
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_alphanumeric() || *c == '_')
        .last()
        .map_or(text.len(), |(i, _)| i);
    &text[start..]
}

/// Whether `code` declares a `static` (not a `'static` lifetime) whose
/// type is an atomic.
fn declares_atomic_static(code: &str) -> bool {
    code.match_indices("static ").any(|(at, pat)| {
        let boundary = code[..at]
            .chars()
            .next_back()
            .is_none_or(char::is_whitespace);
        let ty = code[at + pat.len()..]
            .split_once(':')
            .map_or("", |(_, rest)| rest.split('=').next().unwrap_or(""));
        boundary && ty.contains("Atomic")
    })
}

/// Names a file's non-test code declares with type `Signal` or `&Signal`
/// (struct fields, parameters, annotated bindings).
fn signal_names(scan: &FileScan) -> Vec<&str> {
    scan.lines()
        .iter()
        .filter(|line| !line.in_test)
        .flat_map(|line| {
            line.code
                .match_indices("Signal")
                .map(|(at, _)| &line.code[..at])
        })
        .filter_map(|before| {
            let before = before.trim_end().trim_end_matches('&').trim_end();
            before.strip_suffix(':')
        })
        .map(|declared| trailing_ident(declared.trim_end()))
        .filter(|name| !name.is_empty())
        .collect()
}

/// Runs the whole lint suite over the workspace at `root`.
pub fn analyze(root: &Path) -> AnalysisReport {
    let files = workspace_sources(root);
    let mut violations: Vec<Violation> = Vec::new();
    let mut allowed = 0usize;
    let mut scans: Vec<(PathBuf, FileScan)> = Vec::new();
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        scans.push((path.clone(), FileScan::new(&text)));
    }

    for (path, scan) in &scans {
        let relpath = rel(root, path);
        run_line_rules(root, &relpath, scan, &mut violations, &mut allowed);
    }
    run_ack_order_rule(root, &scans, &mut violations, &mut allowed);
    run_scratch_dir_rule(root, &mut violations, &mut allowed);
    run_registry_rule(root, &scans, &mut violations, &mut allowed);
    run_forbid_unsafe_rule(root, &mut violations, &mut allowed);

    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    AnalysisReport {
        root: root.to_path_buf(),
        files_scanned: scans.len(),
        allowed,
        violations,
    }
}

fn push_violation(
    scan: &FileScan,
    violations: &mut Vec<Violation>,
    allowed: &mut usize,
    rule: &'static str,
    file: &str,
    line: usize,
    message: String,
) {
    if scan.is_allowed(line, rule) {
        *allowed += 1;
    } else {
        violations.push(Violation {
            rule,
            file: file.to_string(),
            line,
            message,
        });
    }
}

/// Files where `std::thread::spawn`/`scope` is sanctioned: the fan-out
/// module (scoped fallback when no pool is installed), the serving
/// plane's worker pool (the one spawn site for pooled workers and
/// dedicated serving loops), and the model checker's own runtime (which
/// drives real threads by design).
fn thread_discipline_allowlisted(relpath: &str) -> bool {
    relpath == "crates/core/src/par.rs"
        || relpath == "crates/server/src/pool.rs"
        || relpath.starts_with("crates/check/src/")
}

fn run_line_rules(
    _root: &Path,
    relpath: &str,
    scan: &FileScan,
    violations: &mut Vec<Violation>,
    allowed: &mut usize,
) {
    let serve_path = relpath.starts_with("crates/server/src/");
    let write_plane = matches!(
        relpath,
        "crates/server/src/server.rs" | "crates/server/src/durability.rs"
    );
    // The model checker's facade and the shims stand in for std, so
    // process-wide policies (sleeps, global knobs) do not bind them.
    let std_policed =
        !relpath.starts_with("crates/check/src/") && !relpath.starts_with("crates/shims/");
    let epoch_victim = matches!(relpath, "crates/core/src/rmi.rs" | "crates/core/src/pla.rs");
    let signals = if matches!(
        relpath,
        "crates/server/src/queue.rs" | "crates/server/src/server.rs" | "crates/server/src/write.rs"
    ) {
        Some(signal_names(scan))
    } else {
        None
    };
    for line in scan.lines() {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        let lineno = line.number;

        // wake-through-signal: request-path wake sites go through
        // `Signal`, which skips the system call when nobody is parked.
        if let Some(signals) = &signals {
            for pat in [".notify_one(", ".notify_all("] {
                let Some(at) = code.find(pat) else {
                    continue;
                };
                let receiver = trailing_ident(&code[..at]);
                if !signals.contains(&receiver) {
                    push_violation(
                        scan,
                        violations,
                        allowed,
                        "wake-through-signal",
                        relpath,
                        lineno,
                        format!(
                            "`{pat})` on `{receiver}`, which this file does not declare as a \
                             `Signal` — a bare condvar notify enters the kernel on every \
                             request whether or not a thread is parked"
                        ),
                    );
                    break;
                }
            }
        }

        // zero-alloc: allocation-capable calls inside declared zones.
        if line.in_zero_alloc_zone {
            for pat in ALLOC_PATTERNS {
                if code.contains(pat) {
                    push_violation(
                        scan,
                        violations,
                        allowed,
                        "zero-alloc",
                        relpath,
                        lineno,
                        format!("allocation-capable call `{pat}` inside a zero-alloc zone"),
                    );
                    break;
                }
            }
        }

        // thread-discipline: raw spawns outside the sanctioned homes.
        if !thread_discipline_allowlisted(relpath)
            && (has_token(code, "thread::spawn")
                || has_token(code, "thread::scope")
                || code.contains("std::thread::Builder"))
        {
            push_violation(
                scan,
                violations,
                allowed,
                "thread-discipline",
                relpath,
                lineno,
                "thread spawn outside lis_core::par / server entry points — route fan-out \
                 through `lis_core::par::map_chunks` or justify with an allow"
                    .to_string(),
            );
        }

        // condvar-predicate: wait calls must sit inside a while/loop.
        if !relpath.starts_with("crates/check/src/") {
            let mut flagged = false;
            for pat in ["wait(", "wait_timeout("] {
                let mut from = 0;
                while let Some(i) = code[from..].find(pat) {
                    let at = from + i;
                    from = at + pat.len();
                    // Identifier boundary on the left (so `wait_timeout(`
                    // is not also matched as `wait(`... it cannot be, but
                    // `awaits(` could).
                    let before = &code[..at];
                    let prev = before.chars().next_back();
                    let method = prev == Some('.');
                    if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                        continue;
                    }
                    let open = at + pat.len() - 1;
                    // Condvar shapes: method form takes a guard (wait:
                    // exactly 1 arg; wait_timeout: 2); facade helper form
                    // takes the condvar + guard (2 or 3 args).
                    let is_condvar_wait = if pat == "wait(" {
                        if method {
                            call_args_in(code, open, 1, 1)
                        } else {
                            call_args_in(code, open, 2, 2)
                        }
                    } else if method {
                        call_args_in(code, open, 2, 2)
                    } else {
                        call_args_in(code, open, 3, 3)
                    };
                    if is_condvar_wait && !line.in_loop {
                        push_violation(
                            scan,
                            violations,
                            allowed,
                            "condvar-predicate",
                            relpath,
                            lineno,
                            format!(
                                "`{pat}..)` outside a while/loop predicate loop — a spurious \
                                 or early wake proceeds on stale state"
                            ),
                        );
                        flagged = true;
                        break;
                    }
                }
                if flagged {
                    break;
                }
            }
        }

        // ticket-definite-outcome: a discarded wait result swallows the
        // timeout/shutdown outcome a ticket is contractually given.
        if serve_path
            && code.trim_start().starts_with("let _ =")
            && (code.contains(".wait(") || code.contains(".wait_timeout("))
        {
            push_violation(
                scan,
                violations,
                allowed,
                "ticket-definite-outcome",
                relpath,
                lineno,
                "`let _ =` discards a wait result — handle (or propagate) the \
                 timeout/shutdown arms instead of swallowing them"
                    .to_string(),
            );
        }

        // writer-batch-apply: a per-op array shift where the batch should
        // be staged and committed once.
        if write_plane {
            for pat in ["keyset.insert(", "keyset.remove(", "insert_all("] {
                if code.contains(pat) {
                    push_violation(
                        scan,
                        violations,
                        allowed,
                        "writer-batch-apply",
                        relpath,
                        lineno,
                        format!(
                            "`{pat}..)` shifts the key array once per op — stage the batch \
                             (`Stage::insert`/`remove`) and `KeySet::commit` it once"
                        ),
                    );
                    break;
                }
            }
        }

        // shared-key-array: a victim copying the array its keyset shares.
        if epoch_victim && code.contains(".keys().to_vec()") {
            push_violation(
                scan,
                violations,
                allowed,
                "shared-key-array",
                relpath,
                lineno,
                "`.keys().to_vec()` copies every key on every build — store \
                 `KeySet::shared_keys()` instead"
                    .to_string(),
            );
        }

        // no-prod-sleep: a sleep standing in for an event.
        if std_policed && has_token(code, "thread::sleep(") {
            push_violation(
                scan,
                violations,
                allowed,
                "no-prod-sleep",
                relpath,
                lineno,
                "`thread::sleep` in production code — wait on the event (a `Signal`, a \
                 ticket, a join) instead of polling for it, or justify a fault delay, \
                 backoff or pacing with an allow"
                    .to_string(),
            );
        }

        // no-global-knob: a process-global atomic setting.
        if std_policed && declares_atomic_static(code) {
            push_violation(
                scan,
                violations,
                allowed,
                "no-global-knob",
                relpath,
                lineno,
                "`static` atomic in production code — a global runtime knob every caller \
                 shares; pass the setting explicitly, or justify an id counter with an allow"
                    .to_string(),
            );
        }

        // serve-no-panic: panicking calls on the serve path.
        if serve_path {
            for pat in [
                ".unwrap(",
                ".expect(",
                "panic!",
                "unimplemented!",
                "todo!(",
                "unreachable!",
            ] {
                if code.contains(pat) {
                    push_violation(
                        scan,
                        violations,
                        allowed,
                        "serve-no-panic",
                        relpath,
                        lineno,
                        format!(
                            "`{pat}..` on the serve path — a panicking worker strands client \
                             tickets; return an error or justify with an allow"
                        ),
                    );
                    break;
                }
            }
        }
    }
}

/// durability-ack-order: within any serve-path file that acks an applied
/// write, the WAL append must precede every such ack in file order. The
/// writer's drain is straight-line — validate, append, publish, fulfill —
/// so file order is a faithful proxy for program order there, and an ack
/// site appearing before the first `.log_batch(` (or in a file with
/// none at all) is a write acknowledged outside the durability contract.
fn run_ack_order_rule(
    root: &Path,
    scans: &[(PathBuf, FileScan)],
    violations: &mut Vec<Violation>,
    allowed: &mut usize,
) {
    for (path, scan) in scans {
        let relpath = rel(root, path);
        if !relpath.starts_with("crates/server/src/") {
            continue;
        }
        let first_append = scan
            .lines()
            .iter()
            .find(|l| !l.in_test && l.code.contains(".log_batch("))
            .map(|l| l.number);
        for line in scan.lines() {
            if line.in_test || !line.code.contains("fulfill(Ok(WriteStatus::Applied") {
                continue;
            }
            let durable = first_append.is_some_and(|append| append < line.number);
            if !durable {
                push_violation(
                    scan,
                    violations,
                    allowed,
                    "durability-ack-order",
                    &relpath,
                    line.number,
                    match first_append {
                        Some(append) => format!(
                            "applied-write ack precedes the WAL append at line {append} — \
                             a crash after this ack forgets a write the client trusts"
                        ),
                        None => "applied-write ack in a file with no `.log_batch(` WAL \
                                 append — the ack is outside the durability contract"
                            .to_string(),
                    },
                );
            }
        }
    }
}

/// scratch-dir: `temp_dir()` only inside `ScratchDir`'s own module. Unlike
/// the line rules this walks every `.rs` file under `root` — `tests/`,
/// `benches/`, `examples/` and test modules included — because the
/// directory collisions it prevents were between tests.
fn run_scratch_dir_rule(root: &Path, violations: &mut Vec<Violation>, allowed: &mut usize) {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);
    for path in files {
        let relpath = rel(root, &path);
        if relpath == "crates/core/src/scratch.rs" {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let scan = FileScan::new(&text);
        for line in scan.lines() {
            if has_token(&line.code, "temp_dir(") {
                push_violation(
                    &scan,
                    violations,
                    allowed,
                    "scratch-dir",
                    &relpath,
                    line.number,
                    "`temp_dir()` outside `lis_core::scratch` — take a `ScratchDir`, whose \
                     name is unique per call, instead of naming a directory that a parallel \
                     test can share"
                        .to_string(),
                );
            }
        }
    }
}

/// registry-complete: every `impl LearnedIndex for T` in lis-core must
/// construct `T` inside `IndexRegistry::with_defaults`.
fn run_registry_rule(
    root: &Path,
    scans: &[(PathBuf, FileScan)],
    violations: &mut Vec<Violation>,
    allowed: &mut usize,
) {
    // Gather the body of with_defaults from index.rs.
    let mut defaults_body = String::new();
    for (path, scan) in scans {
        if rel(root, path) != "crates/core/src/index.rs" {
            continue;
        }
        let mut in_fn = false;
        let mut depth_at_entry = 0usize;
        for line in scan.lines() {
            if !in_fn && line.code.contains("fn with_defaults") {
                in_fn = true;
                depth_at_entry = line.depth;
            } else if in_fn {
                // `depth` is measured at line start: the first line back
                // at the entry depth is past the function's closing `}`.
                if line.depth <= depth_at_entry {
                    break;
                }
                defaults_body.push_str(&line.code);
                defaults_body.push('\n');
            }
        }
    }
    if defaults_body.is_empty() {
        // Nothing to check against (e.g. a synthetic test tree).
        return;
    }
    for (path, scan) in scans {
        let relpath = rel(root, path);
        if !relpath.starts_with("crates/core/src/") {
            continue;
        }
        for line in scan.lines() {
            if line.in_test {
                continue;
            }
            let Some(rest) = line.code.split("impl LearnedIndex for ").nth(1) else {
                continue;
            };
            let ty: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if ty.is_empty() {
                continue;
            }
            if !defaults_body.contains(&ty) {
                push_violation(
                    scan,
                    violations,
                    allowed,
                    "registry-complete",
                    &relpath,
                    line.number,
                    format!(
                        "`{ty}` implements LearnedIndex but is never constructed in \
                         IndexRegistry::with_defaults — unreachable by name from \
                         experiments/CLI"
                    ),
                );
            }
        }
    }
}

/// forbid-unsafe: every crate root carries `#![forbid(unsafe_code)]`.
fn run_forbid_unsafe_rule(root: &Path, violations: &mut Vec<Violation>, allowed: &mut usize) {
    let mut roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    if let Ok(bins) = std::fs::read_dir(root.join("src/bin")) {
        let mut bin_files: Vec<PathBuf> = bins
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
            .collect();
        bin_files.sort();
        roots.extend(bin_files);
    }
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = crates
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            // A crate with both a lib and a bin target has two roots;
            // each needs the attribute.
            for candidate in [dir.join("src/lib.rs"), dir.join("src/main.rs")] {
                if candidate.exists() {
                    roots.push(candidate);
                }
            }
            if let Ok(nested) = std::fs::read_dir(&dir) {
                let mut subs: Vec<PathBuf> = nested
                    .flatten()
                    .map(|e| e.path())
                    .filter(|p| p.is_dir() && p.join("src/lib.rs").exists())
                    .collect();
                subs.sort();
                for sub in subs {
                    roots.push(sub.join("src/lib.rs"));
                }
            }
        }
    }
    for crate_root in roots {
        let Ok(text) = std::fs::read_to_string(&crate_root) else {
            continue;
        };
        if !text.contains("#![forbid(unsafe_code)]") {
            let scan = FileScan::new(&text);
            push_violation(
                &scan,
                violations,
                allowed,
                "forbid-unsafe",
                &rel(root, &crate_root),
                1,
                "crate root missing `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }
}

/// CLI driver: `lis_analysis [root] [--report <path>]`. Prints findings,
/// writes the JSON report, exits nonzero when violations remain.
pub fn cli_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--report" {
            if i + 1 >= args.len() {
                eprintln!("--report requires a path");
                return ExitCode::from(2);
            }
            report_path = Some(PathBuf::from(&args[i + 1]));
            i += 2;
        } else {
            root = Some(PathBuf::from(&args[i]));
            i += 1;
        }
    }
    let root = root.unwrap_or_else(|| {
        // cargo run -p lis_analysis: the manifest dir is
        // <root>/crates/analysis.
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(Path::parent)
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."))
    });
    let report = analyze(&root);
    let report_path =
        report_path.unwrap_or_else(|| root.join("target").join("lis-analysis-report.json"));
    if let Some(dir) = report_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&report_path, report.to_json()) {
        Ok(()) => eprintln!("lis_analysis: report written to {}", report_path.display()),
        Err(e) => eprintln!(
            "lis_analysis: could not write report to {}: {e}",
            report_path.display()
        ),
    }
    eprintln!(
        "lis_analysis: scanned {} files, {} allowed exception(s), {} violation(s)",
        report.files_scanned,
        report.allowed,
        report.violations.len()
    );
    for v in &report.violations {
        eprintln!("  [{}] {}:{}: {}", v.rule, v.file, v.line, v.message);
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
