//! `lis-benchmark`: the repository's one benchmark.
//!
//! ```text
//! lis-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1|file>] [--smoke]
//! ```
//!
//! One run = set-up (repeated `SETUPS` times, `setup_s` is the median) →
//! one untimed warm-up round → at least `min_rounds` timed rounds of fixed
//! work, as many as fit in `--seconds`. Every answer is checked. The run
//! prints every metric by name with its unit, `ops_attempted` and
//! `ops_failed`, and as its last line one JSON object for the harness:
//! the end-to-end metrics of an untraced run, the per-layer metrics of a
//! traced one. See `README.md` beside this package for the protocol.

mod measure;
mod phases;
mod probes;
mod spec;
mod stream;
mod world;

use measure::{quantile, Checks, Log, Samples, Tracer};
use phases::Bench;
use probes::Probes;
use spec::{Better, Metric, Sizes, Stat, Workload, END_TO_END, PER_LAYER, SETUPS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use world::{Failure, World};

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    /// Where a traced run writes its spans; `None` for an untraced run.
    trace: Option<PathBuf>,
    smoke: bool,
}

const USAGE: &str =
    "usage: lis-benchmark --workload <index_lookup|serve_read|serve_write|attack_sweep> \
                     --seed <u64> [--seconds <n>] [--trace <0|1|file>] [--smoke]";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(0.0..=3_600.0).contains(&parsed) {
                    return Err(format!("seconds {value} outside 0..=3600"));
                }
                seconds = Some(parsed);
            }
            "--trace" => trace = Some(value.clone()),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = match trace.as_deref() {
        None | Some("0") => None,
        Some("1") => Some(
            measure::home()
                .join("trace")
                .join(format!("{}-{seed}.json", workload.name())),
        ),
        Some(file) => Some(PathBuf::from(file)),
    };
    Ok(Options {
        workload,
        seed,
        seconds: seconds.unwrap_or(if smoke { 0.0 } else { 20.0 }),
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(failure) => {
            eprintln!("benchmark aborted: {failure}");
            ExitCode::from(3)
        }
    }
}

/// Runs one workload and prints its report. `Ok(false)` when an answer
/// was wrong.
fn run(options: &Options) -> Result<bool, Failure> {
    let sizes = if options.smoke {
        Sizes::of(options.workload).smoke()
    } else {
        Sizes::of(options.workload)
    };
    let traced = options.trace.is_some();
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();

    // Set-up, several times over; each world is torn down (servers joined,
    // directories removed) before the next one is timed.
    tracer.recording = traced;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let open = tracer.begin("bench.setup");
        world = Some(World::build(
            &sizes,
            options.seed,
            &mut tracer,
            &mut checks,
        )?);
        setups.push(tracer.end(open).as_secs_f64());
    }
    let world = world.expect("SETUPS is at least one");
    let log = Log {
        tracer,
        samples: Samples::default(),
        checks,
    };
    let mut bench = Bench::new(world, log);
    let mut probes = if traced {
        Some(Probes::setup(&mut bench)?)
    } else {
        None
    };

    // Warm-up: one round whose samples are thrown away.
    bench.log.tracer.recording = false;
    bench.round()?;
    if let Some(probes) = probes.as_mut() {
        probes.round(&mut bench)?;
    }
    bench.log.samples = Samples::default();

    // Timed rounds of fixed work. A traced run records spans and runs the
    // probes in every other round; the unrecorded rounds in between are
    // what its tracing overhead is measured against.
    let budget = Duration::from_secs_f64(options.seconds);
    let started = Instant::now();
    let mut rounds = 0u32;
    loop {
        let elapsed = started.elapsed();
        if rounds as usize >= sizes.min_rounds && elapsed + elapsed / rounds.max(1) > budget {
            break;
        }
        rounds += 1;
        bench.log.tracer.round = rounds;
        bench.log.tracer.recording = traced && rounds % 2 == 1;
        bench.round()?;
        if let (true, Some(probes)) = (bench.log.tracer.recording, probes.as_mut()) {
            probes.round(&mut bench)?;
        }
    }
    let measured = started.elapsed();

    bench.log.tracer.recording = traced;
    bench.log.tracer.round = rounds + 1;
    setups.sort_by(f64::total_cmp);
    bench.finish(quantile(&setups, 0.5), probes.as_ref())?;
    bench.check_constants(options.workload, options.seed, options.smoke);

    // The report.
    println!(
        "lis-benchmark workload={} seed={} scale={} rounds={rounds} measured_s={:.1} \
         setups={SETUPS} traced={} cpus={}",
        options.workload.name(),
        options.seed,
        if options.smoke { "smoke" } else { "full" },
        measured.as_secs_f64(),
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    // End-to-end values always come from unrecorded rounds, per-layer
    // values from recorded ones (every round of an untraced run is
    // unrecorded; it prints the per-layer metrics its phases yield anyway).
    let end_to_end = values(&bench.log.samples, END_TO_END, Some(false));
    let per_layer = values(&bench.log.samples, PER_LAYER, traced.then_some(true));
    print_metrics(&end_to_end);
    print_metrics(&per_layer);
    if traced {
        print_overhead(&bench.log.samples);
        print_budgets(&bench.log.tracer, &end_to_end, &per_layer, sizes.base_keys);
    }
    println!("ops_attempted {}", bench.log.checks.attempted);
    println!("ops_failed {}", bench.log.checks.failed);
    for reason in &bench.log.checks.reasons {
        println!("failed: {reason}");
    }
    if let Some(path) = &options.trace {
        let header = format!(
            "\"workload\": \"{}\", \"seed\": {}, \"rounds\": {rounds}",
            options.workload.name(),
            options.seed
        );
        bench
            .log
            .tracer
            .write_json(path, &header, &bench.log.samples)?;
        println!(
            "trace {} spans -> {}",
            bench.log.tracer.span_count(),
            path.display()
        );
    }

    let (list, reported) = if traced {
        (PER_LAYER, &per_layer)
    } else {
        (END_TO_END, &end_to_end)
    };
    if let Some(missing) = list
        .iter()
        .find(|m| !reported.iter().any(|r| r.0.name == m.name))
    {
        return Err(format!("metric {} was not measured", missing.name).into());
    }
    let correct = bench.log.checks.failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        bench.log.checks.attempted, bench.log.checks.failed
    );
    for (i, (metric, value, _)) in reported.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.name,
            metric.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

type Reported = Vec<(&'static Metric, f64, usize)>;

/// The run's value of every metric of `list` that has samples.
fn values(samples: &Samples, list: &'static [Metric], traced: Option<bool>) -> Reported {
    list.iter()
        .filter_map(|metric| {
            let (value, n) = samples.value(metric, traced)?;
            value.is_finite().then_some((metric, value, n))
        })
        .collect()
}

fn print_metrics(reported: &Reported) {
    for (metric, value, n) in reported {
        let stat = match (metric.stat, metric.better) {
            (Stat::Last, _) => "once",
            (Stat::Best, Better::Lower) => "min",
            (Stat::Best, Better::Higher) => "max",
            (Stat::BestDecile, Better::Lower) => "p10",
            (Stat::BestDecile, Better::Higher) => "p90",
            (Stat::BestQuartile, Better::Lower) => "p25",
            (Stat::BestQuartile, Better::Higher) => "p75",
        };
        println!(
            "metric {} {value:.6} {} stat={stat} samples={n}",
            metric.name, metric.unit
        );
    }
}

/// What recording spans costs each end-to-end metric: its value over the
/// recorded rounds against its value over the unrecorded ones, as a
/// percentage in the metric's worse direction.
fn print_overhead(samples: &Samples) {
    for metric in END_TO_END.iter().filter(|m| m.stat != Stat::Last) {
        let (Some((on, _)), Some((off, _))) = (
            samples.value(metric, Some(true)),
            samples.value(metric, Some(false)),
        ) else {
            continue;
        };
        let worse = match metric.better {
            Better::Lower => on / off - 1.0,
            Better::Higher => off / on - 1.0,
        };
        println!("trace_overhead_pct {} {:.2}", metric.name, worse * 100.0);
    }
}

/// Self time per span name, and the two stage budgets the trace yields
/// from outside: where a lone read's time goes and where a write epoch's
/// time goes.
fn print_budgets(tracer: &Tracer, end_to_end: &Reported, per_layer: &Reported, base_keys: usize) {
    println!("self_time span calls total_ms self_ms");
    for (name, calls, total, own) in tracer.self_times() {
        println!(
            "self_time {name} {calls} {:.3} {:.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let get = |name: &str| {
        end_to_end
            .iter()
            .chain(per_layer)
            .find(|r| r.0.name == name)
            .map(|r| r.1)
    };
    if let (Some(p50), Some(deadline), Some(index), Some(wake), Some(submit)) = (
        get("read_p50_us"),
        get("server.read.deadline_us"),
        get("core.lookup.batch64_ns"),
        get("server.read.wake_us"),
        get("server.read.submit_ns"),
    ) {
        // A lone request is a batch of one: the index answers one key.
        let index = index / 1e3;
        let submit = submit / 1e3;
        println!(
            "budget read_p50_us {p50:.1} = deadline {deadline:.1} + index {index:.2} + submit {submit:.2} \
             + wake {wake:.1} + remainder {:.1}",
            p50 - deadline - index - submit - wake
        );
    }
    if let (Some(kops), Some(per_epoch), Some(build), Some(apply), Some(wal)) = (
        get("write_kops"),
        get("server.write.ops_per_epoch"),
        get("core.build.rmi_ns_per_key"),
        get("server.recover.replay_us_per_op"),
        get("server.wal.append_batch_us"),
    ) {
        let epoch_us = per_epoch / kops * 1e3;
        // Per epoch: one rebuild of the served index over the base keyset
        // (which grows by well under 1 % during a run), one sorted-vector
        // insert per write (what recovery replays, timed there), one WAL
        // append with its fsync.
        let rebuild_us = build * base_keys as f64 / 1e3;
        let apply_us = apply * per_epoch;
        println!(
            "budget write_epoch_us {epoch_us:.0} = rebuild {rebuild_us:.0} + apply {apply_us:.0} \
             + wal {wal:.0} + remainder {:.0}",
            epoch_us - rebuild_us - apply_us - wal
        );
    }
}
