//! `lis-cli` — command-line front end for the learned-index poisoning
//! toolkit.
//!
//! ```text
//! lis-cli generate --dist lognormal --keys 10000 --density 0.05 --out keys.txt
//! lis-cli attack-regression --dist uniform --keys 1000 --density 0.1 --poison-pct 10
//! lis-cli attack-rmi --dist lognormal --keys 20000 --density 0.05 --model-size 200 --poison-pct 10 --alpha 3
//! lis-cli defend --dist uniform --keys 1000 --density 0.1 --poison-pct 10
//! lis-cli inspect --in keys.txt --index rmi,btree,pla
//! lis-cli pipeline --dist lognormal --keys 5000 --attack rmi --defense trim --index rmi,btree
//! lis-cli serve-bench --keys 100000 --index rmi,btree --attack-ratio 0,0.5 --workers 4
//! lis-cli chaos --keys 100000 --scenario worker-panic --seed 7
//! lis-cli figures --scale smoke --only fig4,fig6
//! lis-cli list-indexes
//! ```
//!
//! Victim structures are resolved by name through the
//! [`IndexRegistry`]; `list-indexes` prints what is available. Argument
//! parsing is hand-rolled (the workspace intentionally carries no CLI
//! dependency); every flag takes the form `--name value`.

#![forbid(unsafe_code)]

use lis::defense::{
    evaluate_defense, trim_defense, DensityDefense, IqrDefense, TrimConfig, TrimDefense,
};
use lis::pipeline::{BuildCache, Pipeline};
use lis::poison::{
    DpRmiPoisonAttack, GreedyCdfAttack, MixedAttack, RemovalAttack, RmiPoisonAttack,
};
use lis::prelude::*;
use lis::workloads::realsim;
use lis::workloads::{domain_for_density, lognormal_keys, normal_keys, trial_rng, uniform_keys};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, flags)) = parse_args(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "attack-regression" => cmd_attack_regression(&flags),
        "attack-rmi" => cmd_attack_rmi(&flags),
        "attack-rmi-dp" => cmd_attack_rmi_dp(&flags),
        "attack-removal" => cmd_attack_removal(&flags),
        "defend" => cmd_defend(&flags),
        "inspect" => cmd_inspect(&flags),
        "pipeline" => cmd_pipeline(&flags),
        "serve-bench" => cmd_serve_bench(&flags),
        "serve-online" => cmd_serve_online(&flags),
        "chaos" => cmd_chaos(&flags),
        "figures" => cmd_figures(&flags),
        "list-indexes" => cmd_list_indexes(),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
lis-cli — poisoning attacks on learned index structures

USAGE:
  lis-cli <command> [--flag value]...

COMMANDS:
  generate            sample a keyset and write it (one key per line)
      --dist D        uniform | normal | lognormal | miami | osm  [uniform]
      --keys N        number of keys                              [1000]
      --density F     keyset density in (0, 1]                    [0.1]
      --seed S        RNG seed                                    [42]
      --out FILE      output path (default: stdout)

  attack-regression   greedy CDF poisoning of a linear regression
      (generate flags) --poison-pct P                             [10]

  attack-rmi          Algorithm-2 attack on a two-stage RMI
      (generate flags) --poison-pct P --model-size M --alpha A    [10 / 100 / 3]

  attack-rmi-dp       exact-DP volume allocation variant (stronger)
      (same flags as attack-rmi)

  attack-removal      greedy key-deletion adversary
      (generate flags) --remove N                                 [50]

  defend              run the TRIM defense against the greedy attack
      (generate flags) --poison-pct P                             [10]

  inspect             index statistics for a keyset
      --in FILE       keys, one per line (or generate flags)
      --index NAMES   comma-separated registry names       [rmi,btree,pla]

  pipeline            workload -> attack -> defense -> index sweep
      (generate flags)
      --index NAMES   comma-separated registry names       [rmi,btree]
      --attack A      none|greedy|rmi|rmi-dp|removal|mixed      [greedy]
      --defense D     none|trim|iqr|density                       [none]
      --poison-pct P  attack budget as a percentage                 [10]
      --model-size M  keys per second-stage model (rmi attacks)    [100]
      --alpha A       per-model threshold multiplier                 [3]
      --queries Q     member-key probes per index                 [2000]
      --shards N      serve each victim as sharded:<name>:N          [1]

  serve-bench         concurrent serving harness with live adversary traffic
      (generate flags)
      --index NAMES       comma-separated registry names     [rmi,btree]
      --shards N          serve each victim as sharded:<name>:N      [1]
      --workers W         worker threads draining micro-batches      [4]
      --batch B           max requests per micro-batch              [64]
      --deadline-us D     micro-batch flush deadline in µs         [200]
      --attack-ratio R    comma-separated adversarial fractions [0,0.1,0.5]
      --requests N        requests per (index, ratio) session    [20000]
      --clients C         concurrent traffic generator threads       [2]
      --poison-pct P      RMI-attack budget percentage              [10]
      --model-size M      keys per second-stage model (campaign)   [100]

  serve-online        online attack plane: live poisoning + admission defenses
      --keys N            victim keyset size                      [200000]
      --density F         keyset density in (0, 1]                   [0.1]
      --index NAME        victim registry name                       [rmi]
      --poison-pct P      campaign budget percentage                  [10]
      --benign-writes N   benign inserts trickled during campaign   [2000]
      --requests N        benign reads per pre/post phase          [60000]
      --readers R         concurrent benign reader threads             [2]
      --workers W         serving worker threads                       [2]
      --seed S            workload RNG seed                           [42]
      --out FILE          JSON report path            [BENCH_online.json]

  chaos               robustness ladder: seeded fault injection vs the live server
      --keys N            victim keyset size                      [100000]
      --density F         keyset density in (0, 1]                   [0.1]
      --index NAME        victim registry name                       [rmi]
      --requests N        benign reads per scenario                [40000]
      --writes N          benign writes (write-plane scenarios)      [512]
      --clients C         closed-loop client threads                   [4]
      --workers W         serving worker threads                       [2]
      --seed S            fault-schedule seed (or LIS_CHAOS_SEED)
      --poison-pct P      rollback-scenario campaign budget           [10]
      --scenario NAME     run one rung instead of the whole ladder
                          (baseline | worker-panic | queue-saturation |
                           delayed-publish | writer-crash | rollback |
                           kill-recover | torn-tail)
      --out FILE          JSON report path             [BENCH_chaos.json]

  figures             the paper's figures and ablations, one pinned table
      --scale S           smoke (checks pinned values) | paper     [smoke]
      --only IDS          comma-separated entries, e.g. fig4,abl-trim  [all]

  list-indexes        print the registered index names

  help                print this message";

type Flags = HashMap<String, String>;

/// Splits `[command, --k v, --k v, ...]`; returns `None` on malformed input.
fn parse_args(args: &[String]) -> Option<(String, Flags)> {
    let mut it = args.iter();
    let cmd = it.next()?.clone();
    let mut flags = HashMap::new();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--")?;
        let value = it.next()?;
        flags.insert(name.to_string(), value.clone());
    }
    Some((cmd, flags))
}

fn flag<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value '{raw}' for --{name}")),
    }
}

fn load_or_generate(flags: &Flags) -> Result<KeySet, String> {
    if let Some(path) = flags.get("in") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let keys: Result<Vec<Key>, _> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.trim().parse())
            .collect();
        let keys = keys.map_err(|e| format!("parsing {path}: {e}"))?;
        return KeySet::from_keys(keys).map_err(|e| e.to_string());
    }
    let dist = flags.get("dist").map(String::as_str).unwrap_or("uniform");
    let n: usize = flag(flags, "keys", 1_000)?;
    let density: f64 = flag(flags, "density", 0.1)?;
    let seed: u64 = flag(flags, "seed", 42)?;
    let mut rng = trial_rng(seed, 0);
    match dist {
        "uniform" => {
            let domain = domain_for_density(n, density).map_err(|e| e.to_string())?;
            uniform_keys(&mut rng, n, domain).map_err(|e| e.to_string())
        }
        "normal" => {
            let domain = domain_for_density(n, density).map_err(|e| e.to_string())?;
            normal_keys(&mut rng, n, domain).map_err(|e| e.to_string())
        }
        "lognormal" => {
            let domain = domain_for_density(n, density).map_err(|e| e.to_string())?;
            lognormal_keys(&mut rng, n, domain).map_err(|e| e.to_string())
        }
        "miami" => realsim::miami_salaries_scaled(seed, n.min(realsim::miami_stats::N))
            .map_err(|e| e.to_string()),
        "osm" => realsim::osm_latitudes_scaled(seed, n).map_err(|e| e.to_string()),
        other => Err(format!("unknown distribution '{other}'")),
    }
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let ks = load_or_generate(flags)?;
    let mut out = String::with_capacity(ks.len() * 8);
    for &k in ks.keys() {
        out.push_str(&k.to_string());
        out.push('\n');
    }
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} keys to {path} ({ks})", ks.len());
        }
        None => print!("{out}"),
    }
    Ok(())
}

fn cmd_attack_regression(flags: &Flags) -> Result<(), String> {
    let ks = load_or_generate(flags)?;
    let pct: f64 = flag(flags, "poison-pct", 10.0)?;
    let budget = PoisonBudget::percentage(pct, ks.len()).map_err(|e| e.to_string())?;
    let plan = greedy_poison(&ks, budget).map_err(|e| e.to_string())?;
    println!("keyset:        {ks}");
    println!("poison keys:   {} ({pct}%)", plan.keys.len());
    println!("clean MSE:     {:.6}", plan.clean_mse);
    println!("poisoned MSE:  {:.6}", plan.final_mse());
    println!("ratio loss:    {:.2}x", plan.ratio_loss());
    if let Some(path) = flags.get("out") {
        let body: String = plan.keys.iter().map(|k| format!("{k}\n")).collect();
        std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("poison keys written to {path}");
    }
    Ok(())
}

fn cmd_attack_rmi(flags: &Flags) -> Result<(), String> {
    let ks = load_or_generate(flags)?;
    let pct: f64 = flag(flags, "poison-pct", 10.0)?;
    let model_size: usize = flag(flags, "model-size", 100)?;
    let alpha: f64 = flag(flags, "alpha", 3.0)?;
    let num_models = (ks.len() / model_size).max(1);
    let cfg = RmiAttackConfig::new(pct)
        .with_alpha(alpha)
        .with_max_exchanges(num_models.min(64));
    let res = rmi_attack(&ks, num_models, &cfg).map_err(|e| e.to_string())?;
    let ratios = res.model_ratios();
    let summary = BoxplotSummary::from_samples(&ratios).ok_or("no models")?;
    println!("keyset:            {ks}");
    println!("second stage:      {num_models} models x {model_size} keys");
    println!(
        "poison placed:     {} ({pct}% requested, alpha {alpha})",
        res.total_poison
    );
    println!("exchanges applied: {}", res.exchanges_applied);
    println!("per-model ratio:   {summary}");
    println!("RMI ratio loss:    {:.2}x", res.rmi_ratio());
    Ok(())
}

fn cmd_attack_rmi_dp(flags: &Flags) -> Result<(), String> {
    let ks = load_or_generate(flags)?;
    let pct: f64 = flag(flags, "poison-pct", 10.0)?;
    let model_size: usize = flag(flags, "model-size", 100)?;
    let alpha: f64 = flag(flags, "alpha", 3.0)?;
    let num_models = (ks.len() / model_size).max(1);
    let res = lis::poison::volume::dp_rmi_attack(&ks, num_models, pct, alpha)
        .map_err(|e| e.to_string())?;
    let ratios = res.model_ratios();
    let summary = BoxplotSummary::from_samples(&ratios).ok_or("no models")?;
    println!("keyset:          {ks}");
    println!("second stage:    {num_models} models x {model_size} keys");
    println!(
        "poison placed:   {} ({pct}% requested, alpha {alpha}, exact DP)",
        res.total_poison
    );
    println!("per-model ratio: {summary}");
    println!("RMI ratio loss:  {:.2}x", res.rmi_ratio());
    Ok(())
}

fn cmd_attack_removal(flags: &Flags) -> Result<(), String> {
    let ks = load_or_generate(flags)?;
    let count: usize = flag(flags, "remove", 50)?;
    let campaign = lis::poison::greedy_removal(&ks, count).map_err(|e| e.to_string())?;
    println!("keyset:        {ks}");
    println!("keys deleted:  {}", campaign.removed.len());
    println!("clean MSE:     {:.6}", campaign.clean_mse);
    println!("poisoned MSE:  {:.6}", campaign.final_mse());
    println!("ratio loss:    {:.2}x", campaign.ratio_loss());
    Ok(())
}

fn cmd_defend(flags: &Flags) -> Result<(), String> {
    let ks = load_or_generate(flags)?;
    let pct: f64 = flag(flags, "poison-pct", 10.0)?;
    let budget = PoisonBudget::percentage(pct, ks.len()).map_err(|e| e.to_string())?;
    let plan = greedy_poison(&ks, budget).map_err(|e| e.to_string())?;
    let poisoned = plan.poisoned_keyset(&ks).map_err(|e| e.to_string())?;
    let out = trim_defense(&poisoned, &TrimConfig::new(ks.len())).map_err(|e| e.to_string())?;
    let report = evaluate_defense(&ks, &plan.keys, &out.retained).map_err(|e| e.to_string())?;
    println!("attack ratio loss:   {:.2}x", report.ratio_before());
    println!("TRIM iterations:     {}", out.iterations);
    println!("poison recall:       {:.1}%", 100.0 * report.poison_recall);
    println!(
        "removal precision:   {:.1}%",
        100.0 * report.removal_precision
    );
    println!("legitimate removed:  {}", report.legit_removed);
    println!(
        "post-defense ratio:  {:.2}x (recovery {:.0}%)",
        report.ratio_after(),
        100.0 * report.recovery()
    );
    Ok(())
}

fn cmd_inspect(flags: &Flags) -> Result<(), String> {
    let ks = load_or_generate(flags)?;
    let names = flags
        .get("index")
        .cloned()
        .unwrap_or_else(|| "rmi,btree,pla".into());
    let registry = IndexRegistry::with_defaults();
    let probes: Vec<Key> = ks
        .keys()
        .iter()
        .step_by((ks.len() / 256).max(1))
        .copied()
        .collect();
    println!("keyset: {ks}\n");
    println!(
        "{:<12} {:>12} {:>12} {:>14}",
        "index", "loss", "mem_bytes", "mean_cost"
    );
    for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let idx = registry.build(name, &ks).map_err(|e| e.to_string())?;
        let results = idx.lookup_batch(&probes);
        let mean_cost =
            results.iter().map(|r| r.cost).sum::<usize>() as f64 / probes.len().max(1) as f64;
        if let Some(miss) = results.iter().position(|r| !r.found) {
            return Err(format!("{name} lost member key {}", probes[miss]));
        }
        println!(
            "{:<12} {:>12.4} {:>12} {:>14.2}",
            idx.name(),
            idx.loss(),
            idx.memory_bytes(),
            mean_cost
        );
    }
    Ok(())
}

fn cmd_serve_bench(flags: &Flags) -> Result<(), String> {
    use lis::server::{drive, BenignSource, MixedSource, ReplaySource, TrafficSource};
    use std::sync::Arc;
    use std::time::Duration;

    let ks = load_or_generate(flags)?;
    let seed: u64 = flag(flags, "seed", 42)?;
    let pct: f64 = flag(flags, "poison-pct", 10.0)?;
    let workers: usize = flag(flags, "workers", 4)?;
    let batch: usize = flag(flags, "batch", 64)?;
    let deadline_us: u64 = flag(flags, "deadline-us", 200)?;
    let requests: usize = flag(flags, "requests", 20_000)?;
    let clients: usize = flag(flags, "clients", 2)?;
    let shards: usize = flag(flags, "shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1 (1 serves unsharded)".into());
    }
    if clients == 0 || requests == 0 {
        return Err("--clients and --requests must be at least 1".into());
    }
    let ratios: Vec<f64> = flags
        .get("attack-ratio")
        .map(String::as_str)
        .unwrap_or("0,0.1,0.5")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("invalid value '{s}' for --attack-ratio"))
                .and_then(|r| {
                    if (0.0..=1.0).contains(&r) {
                        Ok(r)
                    } else {
                        Err(format!("--attack-ratio {r} outside [0, 1]"))
                    }
                })
        })
        .collect::<Result<_, _>>()?;
    if ratios.is_empty() {
        return Err("--attack-ratio needs at least one fraction".into());
    }

    // The live adversary replays the campaign's poison keys; the victims
    // serve the keyset that campaign already corrupted. Algorithm 2 is the
    // campaign that inflates second-stage errors — i.e. served lookup
    // cost — not just the root regression's loss.
    let model_size: usize = flag(flags, "model-size", 100)?;
    let num_models = (ks.len() / model_size).max(1);
    let outcome = RmiPoisonAttack {
        num_models,
        cfg: RmiAttackConfig::new(pct).with_max_exchanges(num_models.min(64)),
    }
    .run(&ks)
    .map_err(|e| e.to_string())?;
    println!(
        "serve-bench: {} keys, {} poison keys ({pct}%), attack ratio loss {:.1}x",
        ks.len(),
        outcome.inserted.len(),
        outcome.ratio_loss()
    );
    println!(
        "{} workers, batch {batch}, deadline {deadline_us}µs, {clients} clients x {} requests\n",
        workers,
        requests.div_ceil(clients)
    );

    let registry = IndexRegistry::with_defaults();
    let names = flags
        .get("index")
        .cloned()
        .unwrap_or_else(|| "rmi,btree".into());
    let cfg = lis::server::ServeConfig::new()
        .workers(workers)
        .batch(batch)
        .deadline(Duration::from_micros(deadline_us));

    let mut table = lis::workloads::ResultTable::new(
        "serve_bench",
        &[
            "index",
            "attack_ratio",
            "p50_us",
            "p90_us",
            "p99_us",
            "max_us",
            "kreq_per_s",
            "mlookups_per_s",
            "mean_batch",
            "mean_cost",
        ],
    );
    for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let resolved = if shards > 1 {
            format!("sharded:{name}:{shards}")
        } else {
            name.to_string()
        };
        if !registry.resolves(&resolved) {
            return Err(format!(
                "unknown index '{resolved}' (available: {}, sharded:<name>:<N>)",
                registry.names().join(", ")
            ));
        }
        let index = Arc::new(
            registry
                .build(&resolved, &outcome.poisoned)
                .map_err(|e| e.to_string())?,
        );
        for &ratio in &ratios {
            let server = lis::server::Server::start(Arc::clone(&index), cfg);
            let sources: Vec<Box<dyn TrafficSource>> = (0..clients)
                .map(|c| {
                    let benign = BenignSource::new(ks.keys().to_vec(), seed ^ c as u64)
                        .map_err(|e| e.to_string())?;
                    let adversary =
                        ReplaySource::new(outcome.inserted.clone()).map_err(|e| e.to_string())?;
                    Ok(Box::new(MixedSource::new(
                        benign,
                        adversary,
                        ratio,
                        seed.wrapping_add(0xA77A).wrapping_add(c as u64),
                    )) as Box<dyn TrafficSource>)
                })
                .collect::<Result<_, String>>()?;
            drive(&server, sources, requests.div_ceil(clients)).map_err(|e| e.to_string())?;
            let report = server.shutdown();
            table.push_row([
                resolved.clone(),
                format!("{ratio:.2}"),
                format!("{:.1}", report.latency.p50() as f64 / 1_000.0),
                format!("{:.1}", report.latency.p90() as f64 / 1_000.0),
                format!("{:.1}", report.latency.p99() as f64 / 1_000.0),
                format!("{:.1}", report.latency.max() as f64 / 1_000.0),
                format!("{:.1}", report.throughput() / 1_000.0),
                format!("{:.3}", report.mlookups_per_s()),
                format!("{:.1}", report.mean_batch()),
                format!("{:.2}", report.mean_cost()),
            ]);
        }
    }
    table.print();
    Ok(())
}

fn cmd_serve_online(flags: &Flags) -> Result<(), String> {
    use lis::online::{run_online, OnlineConfig};

    let defaults = OnlineConfig::default();
    let cfg = OnlineConfig {
        keys: flag(flags, "keys", defaults.keys)?,
        density: flag(flags, "density", defaults.density)?,
        index: flags.get("index").cloned().unwrap_or(defaults.index),
        poison_percent: flag(flags, "poison-pct", defaults.poison_percent)?,
        benign_writes: flag(flags, "benign-writes", defaults.benign_writes)?,
        probe_requests: flag(flags, "requests", defaults.probe_requests)?,
        readers: flag(flags, "readers", defaults.readers)?,
        workers: flag(flags, "workers", defaults.workers)?,
        seed: flag(flags, "seed", defaults.seed)?,
    };
    println!(
        "serve-online: {} keys ({}), {}% campaign, {} benign writes, {} probes/phase\n",
        cfg.keys, cfg.index, cfg.poison_percent, cfg.benign_writes, cfg.probe_requests
    );
    let report = run_online(&cfg).map_err(|e| e.to_string())?;
    println!(
        "{:<22} {:>9} {:>8} {:>8} {:>10} {:>9} {:>7}",
        "scenario", "drift", "recall", "collat", "applied", "rejected", "epochs"
    );
    for s in &report.scenarios {
        println!(
            "{:<22} {:>8.3}x {:>8.3} {:>8.3} {:>10} {:>9} {:>7}",
            s.name,
            s.drift(),
            s.recall(),
            s.collateral(),
            s.serve.writes_applied,
            s.serve.writes_rejected,
            s.serve.epochs
        );
    }
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_online.json".into());
    report
        .write_json(std::path::Path::new(&out))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("\nwrote {out}");
    let violations = report.violations();
    for v in &violations {
        println!("gate violation: {v}");
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{} online gate violation(s)", violations.len()))
    }
}

fn cmd_chaos(flags: &Flags) -> Result<(), String> {
    use lis::chaos::{run_chaos, run_chaos_scenario, ChaosConfig};

    let defaults = ChaosConfig::default();
    let cfg = ChaosConfig {
        keys: flag(flags, "keys", defaults.keys)?,
        density: flag(flags, "density", defaults.density)?,
        index: flags.get("index").cloned().unwrap_or(defaults.index),
        requests: flag(flags, "requests", defaults.requests)?,
        writes: flag(flags, "writes", defaults.writes)?,
        clients: flag(flags, "clients", defaults.clients)?,
        workers: flag(flags, "workers", defaults.workers)?,
        seed: flag(flags, "seed", defaults.seed)?,
        poison_percent: flag(flags, "poison-pct", defaults.poison_percent)?,
    };
    println!(
        "chaos: {} keys ({}), {} requests, {} writes, seed {:#x}\n",
        cfg.keys, cfg.index, cfg.requests, cfg.writes, cfg.seed
    );
    let report = match flags.get("scenario") {
        Some(name) => run_chaos_scenario(name, &cfg).map_err(|e| e.to_string())?,
        None => run_chaos(&cfg).map_err(|e| e.to_string())?,
    };
    println!(
        "{:<18} {:>7} {:>8} {:>8} {:>7} {:>6} {:>9} {:>9} {:>10}",
        "scenario",
        "avail%",
        "retries",
        "faults",
        "shed",
        "resp",
        "p99_us",
        "recov_ms",
        "rollbacks"
    );
    for s in &report.scenarios {
        println!(
            "{:<18} {:>7.3} {:>8} {:>8} {:>7} {:>6} {:>9.1} {:>9.1} {:>10}",
            s.name,
            100.0 * s.availability(),
            s.retries,
            s.faults_fired,
            s.serve.shed,
            s.serve.workers_restarted + s.serve.writer_restarts,
            s.serve.latency.p99() as f64 / 1_000.0,
            s.recovery_ms,
            s.serve.rollbacks
        );
    }
    let violations = report.violations();
    if violations.is_empty() {
        println!("\nall chaos gates hold");
    } else {
        println!("\ngate violations:");
        for v in &violations {
            println!("  {v}");
        }
    }
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_chaos.json".into());
    report
        .write_json(std::path::Path::new(&out))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("\nwrote {out}");
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{} chaos gate violation(s)", violations.len()))
    }
}

fn cmd_figures(flags: &Flags) -> Result<(), String> {
    use lis::figures::{select, summary, Scale};

    let scale: Scale = flag(flags, "scale", Scale::Smoke)?;
    let mut outcomes = Vec::new();
    for figure in select(flags.get("only").map(String::as_str))? {
        let outcome = figure
            .run(scale)
            .map_err(|e| format!("{}: {e}", figure.id))?;
        println!("{}", outcome.render());
        outcomes.push(outcome);
    }
    summary(&outcomes).print();
    let failed = outcomes.iter().filter(|o| !o.ok()).count();
    if failed == 0 {
        Ok(())
    } else {
        Err(format!(
            "{failed} figure(s) off their claim or pinned values"
        ))
    }
}

fn cmd_list_indexes() -> Result<(), String> {
    let registry = IndexRegistry::with_defaults();
    for name in registry.names() {
        println!(
            "{name:<12} {}",
            registry.description(name).unwrap_or_default()
        );
    }
    println!();
    println!("sharded:<name>:<N>  range-partitioned composite over any entry above,");
    println!("                    served by a scoped thread pool (e.g. sharded:rmi:8)");
    Ok(())
}

fn cmd_pipeline(flags: &Flags) -> Result<(), String> {
    let ks = load_or_generate(flags)?;
    let n = ks.len();
    let seed: u64 = flag(flags, "seed", 42)?;
    let pct: f64 = flag(flags, "poison-pct", 10.0)?;
    let model_size: usize = flag(flags, "model-size", 100)?;
    let alpha: f64 = flag(flags, "alpha", 3.0)?;
    let queries: usize = flag(flags, "queries", 2_000)?;
    let num_models = (n / model_size).max(1);

    let mut pipeline = Pipeline::new(WorkloadSpec::Fixed(ks))
        .seed(seed)
        .queries(queries);

    let attack = flags.get("attack").map(String::as_str).unwrap_or("greedy");
    pipeline = match attack {
        // No attack stage at all: the report then shows a plain clean run
        // instead of a vacuous null-adversary ground truth.
        "none" => pipeline,
        "greedy" => pipeline.attack(GreedyCdfAttack {
            budget: PoisonBudget::percentage(pct, n).map_err(|e| e.to_string())?,
        }),
        "rmi" => pipeline.attack(RmiPoisonAttack {
            num_models,
            cfg: RmiAttackConfig::new(pct)
                .with_alpha(alpha)
                .with_max_exchanges(num_models.min(64)),
        }),
        "rmi-dp" => pipeline.attack(DpRmiPoisonAttack {
            num_models,
            poison_percent: pct,
            alpha,
        }),
        "removal" => pipeline.attack(RemovalAttack {
            count: (pct / 100.0 * n as f64).floor() as usize,
        }),
        "mixed" => pipeline.attack(MixedAttack {
            budget: PoisonBudget::percentage(pct, n).map_err(|e| e.to_string())?,
        }),
        other => return Err(format!("unknown attack '{other}'")),
    };

    let defense = flags.get("defense").map(String::as_str).unwrap_or("none");
    pipeline = match defense {
        "none" => pipeline,
        "trim" => pipeline.defense(TrimDefense::keys(n)),
        "iqr" => pipeline.defense(IqrDefense { k: 1.5 }),
        "density" => pipeline.defense(DensityDefense {
            window: 3,
            crowd_factor: 3.0,
        }),
        other => return Err(format!("unknown defense '{other}'")),
    };

    let shards: usize = flag(flags, "shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1 (1 serves unsharded)".into());
    }
    let names = flags
        .get("index")
        .cloned()
        .unwrap_or_else(|| "rmi,btree".into());
    let registry = IndexRegistry::with_defaults();
    for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let resolved = if shards > 1 {
            format!("sharded:{name}:{shards}")
        } else {
            name.to_string()
        };
        // Fail fast on unresolvable names, before sampling and attacking.
        if !registry.resolves(&resolved) {
            return Err(format!(
                "unknown index '{resolved}' (available: {}, sharded:<name>:<N>)",
                registry.names().join(", ")
            ));
        }
        pipeline = pipeline.index(&resolved);
    }

    // Mount a cache so its effectiveness is visible in the output even on
    // a single run (repeated names hit; sweeps wrapping this command see
    // the same counters programmatically via `Pipeline::cache`).
    let cache = BuildCache::new();
    let report = pipeline
        .cache(cache.clone())
        .run()
        .map_err(|e| e.to_string())?;
    print!("{}", report.render());
    println!(
        "\nbuild cache: {} clean builds retained — {} hits, {} misses",
        cache.len(),
        cache.hits(),
        cache.misses()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis::core::scratch::ScratchDir;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_valid_args() {
        let (cmd, flags) = parse_args(&s(&["generate", "--keys", "10", "--dist", "osm"])).unwrap();
        assert_eq!(cmd, "generate");
        assert_eq!(flags.get("keys").unwrap(), "10");
        assert_eq!(flags.get("dist").unwrap(), "osm");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_args(&s(&[])).is_none());
        assert!(parse_args(&s(&["generate", "keys", "10"])).is_none());
        assert!(parse_args(&s(&["generate", "--keys"])).is_none());
    }

    #[test]
    fn flag_defaults_and_parsing() {
        let (_, flags) = parse_args(&s(&["x", "--keys", "7"])).unwrap();
        assert_eq!(flag(&flags, "keys", 1usize).unwrap(), 7);
        assert_eq!(flag(&flags, "density", 0.5f64).unwrap(), 0.5);
        assert!(flag::<usize>(&flags, "keys", 1).is_ok());
        let (_, bad) = parse_args(&s(&["x", "--keys", "abc"])).unwrap();
        assert!(flag::<usize>(&bad, "keys", 1).is_err());
    }

    #[test]
    fn generate_and_roundtrip_via_file() {
        let dir = ScratchDir::new("cli").unwrap();
        let path = dir.path().join("keys.txt").to_string_lossy().to_string();
        let mut flags = Flags::new();
        flags.insert("keys".into(), "50".into());
        flags.insert("out".into(), path.clone());
        cmd_generate(&flags).unwrap();

        let mut in_flags = Flags::new();
        in_flags.insert("in".into(), path);
        let ks = load_or_generate(&in_flags).unwrap();
        assert_eq!(ks.len(), 50);
    }

    #[test]
    fn unknown_distribution_errors() {
        let mut flags = Flags::new();
        flags.insert("dist".into(), "zipf".into());
        assert!(load_or_generate(&flags).is_err());
    }

    #[test]
    fn pipeline_command_serves_sharded_victims() {
        let mut flags = Flags::new();
        flags.insert("keys".into(), "400".into());
        flags.insert("index".into(), "rmi,btree".into());
        flags.insert("shards".into(), "4".into());
        flags.insert("queries".into(), "200".into());
        cmd_pipeline(&flags).unwrap();
        cmd_list_indexes().unwrap();
    }

    #[test]
    fn serve_bench_command_runs_two_indexes_two_ratios() {
        let mut flags = Flags::new();
        flags.insert("keys".into(), "600".into());
        flags.insert("index".into(), "rmi,btree".into());
        flags.insert("attack-ratio".into(), "0,0.5".into());
        flags.insert("requests".into(), "400".into());
        flags.insert("workers".into(), "2".into());
        flags.insert("batch".into(), "16".into());
        cmd_serve_bench(&flags).unwrap();
    }

    #[test]
    fn serve_bench_rejects_bad_ratio() {
        let mut flags = Flags::new();
        flags.insert("keys".into(), "200".into());
        flags.insert("attack-ratio".into(), "1.5".into());
        assert!(cmd_serve_bench(&flags).is_err());
        flags.insert("attack-ratio".into(), "abc".into());
        assert!(cmd_serve_bench(&flags).is_err());
    }

    #[test]
    fn serve_online_writes_json_report() {
        let dir = ScratchDir::new("cli-online").unwrap();
        let out = dir
            .path()
            .join("BENCH_online.json")
            .to_string_lossy()
            .to_string();
        let mut flags = Flags::new();
        flags.insert("keys".into(), "3000".into());
        flags.insert("benign-writes".into(), "60".into());
        flags.insert("requests".into(), "1500".into());
        flags.insert("readers".into(), "1".into());
        flags.insert("workers".into(), "2".into());
        flags.insert("out".into(), out.clone());
        cmd_serve_online(&flags).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"bench\": \"online_serving\""));
        assert!(json.contains("\"name\": \"undefended\""));
        assert!(json.contains("\"name\": \"defended:density\""));
    }

    #[test]
    fn chaos_command_runs_one_rung_and_writes_json() {
        let dir = ScratchDir::new("cli-chaos").unwrap();
        let out = dir
            .path()
            .join("BENCH_chaos.json")
            .to_string_lossy()
            .to_string();
        let mut flags = Flags::new();
        flags.insert("keys".into(), "3000".into());
        flags.insert("requests".into(), "800".into());
        flags.insert("writes".into(), "32".into());
        flags.insert("clients".into(), "2".into());
        flags.insert("scenario".into(), "worker-panic".into());
        flags.insert("seed".into(), "51966".into());
        flags.insert("out".into(), out.clone());
        cmd_chaos(&flags).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"bench\": \"chaos\""));
        assert!(json.contains("\"name\": \"worker-panic\""));

        flags.insert("scenario".into(), "nope".into());
        assert!(cmd_chaos(&flags).is_err());
    }

    #[test]
    fn figures_command_runs_selected_entries_and_rejects_bad_flags() {
        let mut flags = Flags::new();
        flags.insert("only".into(), "fig2,fig3".into());
        cmd_figures(&flags).unwrap();
        flags.insert("only".into(), "fig1".into());
        assert!(cmd_figures(&flags).is_err());
        flags.insert("only".into(), "fig2".into());
        flags.insert("scale".into(), "huge".into());
        assert!(cmd_figures(&flags).is_err());
    }

    #[test]
    fn attack_commands_run() {
        let mut flags = Flags::new();
        flags.insert("keys".into(), "300".into());
        cmd_attack_regression(&flags).unwrap();
        flags.insert("model-size".into(), "50".into());
        cmd_attack_rmi(&flags).unwrap();
        cmd_attack_rmi_dp(&flags).unwrap();
        cmd_inspect(&flags).unwrap();
        flags.insert("remove".into(), "20".into());
        cmd_attack_removal(&flags).unwrap();
    }
}
