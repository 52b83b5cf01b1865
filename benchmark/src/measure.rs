//! Measurement plumbing shared by every phase: the seeded generator, the
//! per-round sample store and its run statistic, the span recorder, the
//! correctness ledger, scratch directories and the `/proc` readers.

use crate::spec::{Better, Metric};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// SplitMix64: every input the benchmark generates itself comes from one
/// of these, seeded from `--seed` and a per-purpose stream number.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics. `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Nearest-rank percentile of individually timed calls, in microseconds.
pub fn percentile_us(sorted_ns: &[u64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1e3
}

/// One per-round sample; `traced` says whether spans were being recorded
/// while it was measured.
#[derive(Debug, Clone, Copy)]
struct Sample {
    value: f64,
    traced: bool,
}

/// Per-round samples of every metric, keyed by metric name.
#[derive(Default)]
pub struct Samples {
    by_name: BTreeMap<&'static str, Vec<Sample>>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64, traced: bool) {
        self.by_name
            .entry(name)
            .or_default()
            .push(Sample { value, traced });
    }

    /// The samples of `name` measured with tracing on (`Some(true)`), off
    /// (`Some(false)`) or either (`None`).
    pub fn values(&self, name: &str, traced: Option<bool>) -> Vec<f64> {
        self.by_name
            .get(name)
            .map(|samples| {
                samples
                    .iter()
                    .filter(|s| traced.is_none_or(|t| s.traced == t))
                    .map(|s| s.value)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Every sample as a JSON object `{name: [[value, recorded], ...]}`, in
    /// the order measured.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, samples)) in self.by_name.iter().enumerate() {
            let _ = write!(out, "{}\n\"{name}\": [", if i == 0 { "" } else { "," });
            for (j, s) in samples.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                if s.value.is_finite() {
                    let _ = write!(out, "{sep}[{}, {}]", s.value, u8::from(s.traced));
                } else {
                    let _ = write!(out, "{sep}[null, {}]", u8::from(s.traced));
                }
            }
            out.push(']');
        }
        out.push_str("\n}");
        out
    }

    /// The run's value of `metric` over the selected samples, and how many
    /// samples it rests on. `None` when nothing was measured.
    pub fn value(&self, metric: &Metric, traced: Option<bool>) -> Option<(f64, usize)> {
        let values = self.values(metric.name, traced);
        let last = *values.last()?;
        let value = match (metric.stat.share(), metric.better) {
            (None, _) => last,
            (Some(share), Better::Lower) => quantile(&values, share),
            (Some(share), Better::Higher) => quantile(&values, 1.0 - share),
        };
        Some((value, values.len()))
    }
}

/// The correctness ledger: operations attempted, operations whose answer
/// was wrong, and the first few reasons.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    exact: BTreeMap<&'static str, f64>,
}

impl Checks {
    /// Books `ops` operations of which `bad` answered wrongly.
    pub fn ops(&mut self, what: &str, ops: u64, bad: u64) {
        self.attempted += ops;
        if bad > 0 {
            self.fail(bad, format!("{what}: {bad} of {ops} wrong"));
        }
    }

    /// Books one check that must hold.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    /// Books a hardware-independent value: it must be bit-identical every
    /// time the run produces it (every round, every repeated set-up).
    pub fn exact(&mut self, name: &'static str, value: f64) {
        let first = *self.exact.entry(name).or_insert(value);
        self.require(first.to_bits() == value.to_bits(), || {
            format!("{name} changed within the run: {first} then {value}")
        });
    }

    /// The value booked under `name` by [`Checks::exact`].
    pub fn exact_value(&self, name: &str) -> Option<f64> {
        self.exact.get(name).copied()
    }

    fn fail(&mut self, count: u64, reason: String) {
        self.failed += count;
        if self.reasons.len() < 16 {
            self.reasons.push(reason);
        }
    }
}

/// Everything a run accumulates, apart from the world its phases read.
pub struct Log {
    pub tracer: Tracer,
    pub samples: Samples,
    pub checks: Checks,
}

impl Log {
    /// Books one sample of `name`, marked with whether spans are being
    /// recorded right now.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.push(name, value, self.tracer.recording);
    }
}

/// One recorded call into a layer (or one aggregated run of calls).
pub struct Span {
    pub name: &'static str,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `-1` at top level.
    pub parent: i64,
    /// Calls this record stands for: 1, or the call count of a hot loop
    /// whose calls were timed individually but folded into one record.
    pub calls: u64,
    /// Time inside those calls (equals `end_ns − start_ns` when `calls`
    /// is 1).
    pub busy_ns: u64,
}

/// A span that has begun. Always carries its start time, so the phase it
/// wraps is timed whether or not spans are being recorded.
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Records spans around the benchmark's calls into each layer, in memory,
/// and writes them out at exit. Recording is switched per round: a traced
/// run alternates recorded and unrecorded rounds, which is what the
/// per-metric tracing overhead is computed from.
pub struct Tracer {
    epoch: Instant,
    pub recording: bool,
    pub round: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            recording: false,
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span around a phase or a coarse call (always timed).
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            self.spans.push(Span {
                name,
                round: self.round,
                start_ns: self.since_epoch(start),
                end_ns: 0,
                parent: self.stack.last().map_or(-1, |&p| p as i64),
                calls: 1,
                busy_ns: 0,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { start, index }
    }

    /// Closes `open` and returns how long it lasted.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(index) = open.index {
            let end_ns = self.since_epoch(end);
            let span = &mut self.spans[index];
            span.end_ns = end_ns;
            span.busy_ns = end_ns - span.start_ns;
            self.stack.pop();
        }
        end.duration_since(open.start)
    }

    /// Records one aggregated child of the innermost open span: `calls`
    /// individually timed calls that together took `busy`. Used where one
    /// record per call would be millions of records.
    pub fn aggregate(&mut self, name: &'static str, calls: u64, busy: Duration) {
        if !self.recording {
            return;
        }
        let parent = self.stack.last().copied();
        let (start_ns, end_ns) =
            parent.map_or((0, 0), |p| (self.spans[p].start_ns, self.spans[p].start_ns));
        self.spans.push(Span {
            name,
            round: self.round,
            start_ns,
            end_ns,
            parent: parent.map_or(-1, |p| p as i64),
            calls,
            busy_ns: busy.as_nanos() as u64,
        });
    }

    /// Per span name: calls, total time and self time (total minus the
    /// time of its direct children), summed over every recorded round.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent >= 0 {
                child_ns[span.parent as usize] += span.busy_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let row = by_name.entry(span.name).or_default();
            row.0 += span.calls;
            row.1 += span.busy_ns;
            row.2 += span.busy_ns.saturating_sub(*children);
        }
        by_name
            .into_iter()
            .map(|(name, (calls, total, own))| (name, calls, total, own))
            .collect()
    }

    /// Writes every span, and every sample of every metric, as one JSON
    /// document. The layer of a span is the part of its name before the
    /// first dot.
    pub fn write_json(&self, path: &Path, header: &str, samples: &Samples) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 128 + 256);
        let _ = write!(
            out,
            "{{{header}, \"samples\": {}, \"spans\": [",
            samples.to_json()
        );
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                out,
                "{}\n{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{layer}\", \"round\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"calls\": {}, \"busy_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.round,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.calls,
                s.busy_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

/// The benchmark's own directory (where `Cargo.toml` lives): scratch
/// directories and trace files go under it, never under the system
/// temporary directory, so a run touches nothing outside its checkout.
pub fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory unique to this process and call, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = home()
            .join("scratch")
            .join(format!("{}-{n}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time consumed so far by every live thread of this process, in
/// nanoseconds (first field of each `/proc/self/task/*/schedstat`).
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Restricts the calling thread to the CPUs whose bit is set in `mask`.
/// Threads it spawns afterwards inherit the restriction. A no-op where the
/// call is missing or refused: placement then stays with the scheduler and
/// the run is merely noisier.
///
/// The benchmark uses this for one thing: a caller and the server worker
/// that answers it either share a CPU or do not, the scheduler flips
/// between the two every few seconds, and the two placements differ by
/// 20 % in latency and 50 % in throughput. Pinning the callers to CPU 0
/// and the servers to CPU 1 measures one placement, always the same one.
pub fn restrict_to_cpus(mask: u64) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // SAFETY: `sched_setaffinity(2)` reads `cpusetsize` bytes from
        // `mask`; `&mask` points to a live u64 and the size passed is its
        // size. Pid 0 names the calling thread. The call changes no memory
        // of this process.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = mask;
}

/// Confines the calling thread, and the threads it spawns meanwhile, to the
/// callers' CPU until dropped.
pub struct OnCallersCpu;

impl OnCallersCpu {
    pub fn enter() -> Self {
        restrict_to_cpus(cpu_masks().0);
        Self
    }
}

impl Drop for OnCallersCpu {
    fn drop(&mut self) {
        restrict_to_cpus(cpu_masks().2);
    }
}

/// The CPU callers run on during the serving phases, the CPU the servers'
/// threads are confined to, and every CPU. With one CPU all three are it.
///
/// Worked out once, on the first call, which set-up makes before it
/// restricts anything: `available_parallelism` counts the CPUs the calling
/// thread may run on, so it reads 1 on a restricted thread. (The same
/// holds inside the library: a server thread confined to one CPU sees one
/// worker and, for one, rebuilds the index of an epoch without fanning
/// out. That is the deployment measured here: a server with one CPU.)
pub fn cpu_masks() -> (u64, u64, u64) {
    static MASKS: OnceLock<(u64, u64, u64)> = OnceLock::new();
    *MASKS.get_or_init(|| {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get().min(64));
        let all = if cpus == 64 {
            u64::MAX
        } else {
            (1 << cpus) - 1
        };
        if cpus == 1 {
            (1, 1, 1)
        } else {
            (0b01, 0b10, all)
        }
    })
}
