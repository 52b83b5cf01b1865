//! `lis-cli` — command-line front end for the learned-index poisoning
//! toolkit.
//!
//! ```text
//! lis-cli generate --dist lognormal --keys 10000 --density 0.05 --out keys.txt
//! lis-cli pipeline --dist lognormal --keys 5000 --attack rmi --defense trim --index rmi,btree
//! lis-cli pipeline --attack none --in keys.txt --index rmi,btree,pla
//! lis-cli chaos --keys 100000 --scenario worker-panic --seed 7 --out chaos.json
//! lis-cli chaos --keys 20000 --scenario defended:density --out attack.json
//! lis-cli figures --scale smoke --only fig4,fig6
//! lis-cli list-indexes
//! ```
//!
//! Every experiment on one keyset is a `pipeline` run: sample (or read)
//! the keys, poison them with one attack, optionally defend, build the
//! victims, and report Ratio Loss and `Lookup.cost`. Victim structures are
//! resolved by name through the [`IndexRegistry`]; `list-indexes` prints
//! what is available. Argument parsing is hand-rolled (the workspace
//! intentionally carries no CLI dependency); every flag takes the form
//! `--name value`, and a flag the command does not read, one given
//! twice, or a required one left out, is a usage error.

#![forbid(unsafe_code)]

use lis::defense::{DensityDefense, IqrDefense, TrimDefense};
use lis::pipeline::{Pipeline, PipelineReport};
use lis::poison::{
    DpRmiPoisonAttack, GreedyCdfAttack, MixedAttack, RemovalAttack, RmiPoisonAttack,
};
use lis::prelude::*;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&args))
}

/// Runs one command line and returns its exit code: 0 on success, 1 when
/// the command fails, 2 on a usage error (nothing runs).
fn run(args: &[String]) -> u8 {
    let (command, flags) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    match (command.run)(&flags) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

const USAGE: &str = "\
lis-cli — poisoning attacks on learned index structures

USAGE:
  lis-cli <command> [--flag value]...

COMMANDS:
  generate            sample (or read) a keyset and write it, one key per line
      --dist D        uniform | normal | lognormal | miami | osm  [uniform]
      --keys N        number of keys                              [1000]
      --density F     keyset density in (0, 1]                    [0.1]
      --seed S        RNG seed                                    [42]
      --in FILE       read keys, one per line, instead of sampling
      --out FILE      output path (default: stdout)

  pipeline            workload -> attack -> defense -> index sweep
      (generate flags except --out)
      --index NAMES   comma-separated registry names       [rmi,btree]
      --attack A      none|greedy|rmi|rmi-dp|removal|mixed      [greedy]
      --defense D     none|trim|iqr|density                       [none]
      --poison-pct P  attack budget as a percentage                 [10]
      --model-size M  keys per second-stage model (rmi attacks)    [100]
      --alpha A       per-model threshold multiplier                 [3]
      --queries Q     member-key probes per index                 [2000]
      --shards N      serve each victim as sharded:<name>:N          [1]
      exits nonzero if any victim loses a member key

  chaos               scenario ladder: seeded faults and live poisoning vs the server
      --keys N            victim keyset size                      [100000]
      --density F         keyset density in (0, 1]                   [0.1]
      --index NAME        victim registry name                       [rmi]
      --requests N        benign reads per scenario                [40000]
      --writes N          benign writes (write-plane, attack rungs)  [512]
      --clients C         closed-loop client threads                   [4]
      --workers W         serving worker threads                       [2]
      --seed S            keyset, probe and fault-schedule seed [3298844397]
      --poison-pct P      campaign budget (attack, rollback rungs)    [10]
      --scenario NAME     run one rung instead of the whole ladder
                          (baseline | worker-panic | queue-saturation |
                           delayed-publish | writer-crash | benign |
                           undefended | defended:rate-limit |
                           defended:density | rollback | kill-recover |
                           torn-tail)
      --out FILE          JSON report path                      (required)

  figures             the paper's figures and ablations, one pinned table
      --scale S           smoke (checks pinned values) | paper     [smoke]
      --only IDS          comma-separated entries, e.g. fig4,abl-trim  [all]

  list-indexes        print the registered index names

  help                print this message";

type Flags = HashMap<String, String>;

/// One command: its name, the only flags it reads (space-separated), the
/// subset of them it cannot run without, and its body.
#[derive(Debug)]
struct Command {
    name: &'static str,
    flags: &'static str,
    required: &'static str,
    run: fn(&Flags) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        flags: "in dist keys density seed out",
        required: "",
        run: cmd_generate,
    },
    Command {
        name: "pipeline",
        flags: "in dist keys density seed index attack defense poison-pct model-size alpha queries shards",
        required: "",
        run: cmd_pipeline,
    },
    Command {
        name: "chaos",
        flags: "keys density index requests writes clients workers seed poison-pct scenario out",
        required: "out",
        run: cmd_chaos,
    },
    Command {
        name: "figures",
        flags: "scale only",
        required: "",
        run: cmd_figures,
    },
    Command {
        name: "list-indexes",
        flags: "",
        required: "",
        run: cmd_list_indexes,
    },
    Command {
        name: "help",
        flags: "",
        required: "",
        run: cmd_help,
    },
];

/// Splits `[command, --k v, --k v, ...]` and checks every flag against
/// the command's own lists, so a typo, a repeat or a missing required flag
/// fails before any work.
fn parse_args(args: &[String]) -> Result<(&'static Command, Flags), String> {
    let mut it = args.iter();
    let name = match it.next().map(String::as_str) {
        None => return Err("no command given".into()),
        Some("--help" | "-h") => "help",
        Some(name) => name,
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command '{name}'"))?;
    let mut flags = Flags::new();
    while let Some(arg) = it.next() {
        let flag = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("{name}: expected --flag, got '{arg}'"))?;
        if !command.flags.split(' ').any(|known| known == flag) {
            return Err(format!("{name}: unknown flag --{flag}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{name}: --{flag} needs a value"))?;
        if flags.insert(flag.to_string(), value.clone()).is_some() {
            return Err(format!("{name}: --{flag} given more than once"));
        }
    }
    if let Some(missing) = command
        .required
        .split_whitespace()
        .find(|f| !flags.contains_key(*f))
    {
        return Err(format!("{name}: --{missing} is required"));
    }
    Ok((command, flags))
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
    let n: usize = flag(flags, "keys", 1_000)?;
    let density: f64 = flag(flags, "density", 0.1)?;
    let seed: u64 = flag(flags, "seed", 42)?;
    let spec = match flags.get("dist").map(String::as_str).unwrap_or("uniform") {
        "uniform" => WorkloadSpec::Uniform { n, density },
        "normal" => WorkloadSpec::Normal { n, density },
        "lognormal" => WorkloadSpec::LogNormal { n, density },
        "miami" => WorkloadSpec::MiamiSalaries { n },
        "osm" => WorkloadSpec::OsmLatitudes { n },
        other => return Err(format!("unknown distribution '{other}'")),
    };
    spec.sample(seed, 0).map_err(|e| e.to_string())
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
        "{:<20} {:>7} {:>8} {:>7} {:>6} {:>5} {:>8} {:>9} {:>4} {:>7} {:>7} {:>7}",
        "scenario",
        "avail%",
        "retries",
        "faults",
        "shed",
        "resp",
        "p99_us",
        "recov_ms",
        "rb",
        "drift",
        "recall",
        "collat"
    );
    for s in &report.scenarios {
        println!(
            "{:<20} {:>7.3} {:>8} {:>7} {:>6} {:>5} {:>8.1} {:>9.1} {:>4} {:>6.3}x {:>7.3} {:>7.3}",
            s.name,
            100.0 * s.availability(),
            s.retries,
            s.faults_fired,
            s.serve.shed,
            s.serve.workers_restarted + s.serve.writer_restarts,
            s.serve.latency.p99() as f64 / 1_000.0,
            s.recovery_ms,
            s.serve.rollbacks,
            s.drift(),
            s.recall(),
            s.collateral()
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
    // `parse_args` rejects a command line without `--out`.
    let out = &flags["out"];
    report
        .write_json(std::path::Path::new(out))
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

fn cmd_help(_: &Flags) -> Result<(), String> {
    println!("{USAGE}");
    Ok(())
}

fn cmd_list_indexes(_: &Flags) -> Result<(), String> {
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

    let report = pipeline.run().map_err(|e| e.to_string())?;
    print!("{}", report.render());
    members_gate(&report)
}

/// Fails the run when any victim lost a member key: a poisoned or
/// defended index must still answer every legitimate key it holds.
fn members_gate(report: &PipelineReport) -> Result<(), String> {
    let lost: Vec<&str> = report
        .indexes
        .iter()
        .filter(|r| !r.all_members_found)
        .map(|r| r.name.as_str())
        .collect();
    if lost.is_empty() {
        Ok(())
    } else {
        Err(format!("{} lost a member key", lost.join(", ")))
    }
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
        assert_eq!(cmd.name, "generate");
        assert_eq!(flags.get("keys").unwrap(), "10");
        assert_eq!(flags.get("dist").unwrap(), "osm");
        assert_eq!(parse_args(&s(&["-h"])).unwrap().0.name, "help");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_args(&s(&[])).is_err());
        assert!(parse_args(&s(&["generate", "keys", "10"])).is_err());
        assert!(parse_args(&s(&["generate", "--keys"])).is_err());
        assert!(parse_args(&s(&["attack-rmi"])).is_err());
        assert_eq!(run(&s(&["generate", "--keys"])), 2);
        assert_eq!(run(&s(&["inspect"])), 2);
    }

    #[test]
    fn unknown_flag_is_a_usage_error_naming_flag_and_command() {
        let err = parse_args(&s(&["pipeline", "--atack", "rmi"])).unwrap_err();
        assert!(err.contains("pipeline") && err.contains("--atack"), "{err}");
        // A flag another command reads is still unknown here.
        let err = parse_args(&s(&["figures", "--keys", "10"])).unwrap_err();
        assert!(err.contains("figures") && err.contains("--keys"), "{err}");
        assert_eq!(run(&s(&["pipeline", "--atack", "rmi"])), 2);
    }

    #[test]
    fn repeated_flag_is_a_usage_error_naming_flag_and_command() {
        let args = s(&["pipeline", "--attack", "rmi", "--attack", "greedy"]);
        let err = parse_args(&args).unwrap_err();
        assert!(
            err.contains("pipeline") && err.contains("--attack"),
            "{err}"
        );
        assert_eq!(run(&args), 2);
    }

    #[test]
    fn flag_defaults_and_parsing() {
        let (_, flags) = parse_args(&s(&["generate", "--keys", "7"])).unwrap();
        assert_eq!(flag(&flags, "keys", 1usize).unwrap(), 7);
        assert_eq!(flag(&flags, "density", 0.5f64).unwrap(), 0.5);
        assert!(flag::<usize>(&flags, "keys", 1).is_ok());
        let (_, bad) = parse_args(&s(&["generate", "--keys", "abc"])).unwrap();
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
        in_flags.insert("in".into(), path.clone());
        let ks = load_or_generate(&in_flags).unwrap();
        assert_eq!(ks.len(), 50);

        // `generate --in` rewrites a key file unchanged.
        let copy = dir.path().join("copy.txt").to_string_lossy().to_string();
        assert_eq!(run(&s(&["generate", "--in", &path, "--out", &copy])), 0);
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&copy).unwrap());
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
        cmd_list_indexes(&flags).unwrap();
    }

    #[test]
    fn pipeline_fails_when_a_victim_loses_a_member_key() {
        let mut report = Pipeline::new(WorkloadSpec::Uniform {
            n: 200,
            density: 0.2,
        })
        .index("rmi")
        .index("btree")
        .queries(50)
        .run()
        .unwrap();
        members_gate(&report).unwrap();
        report.indexes[1].all_members_found = false;
        let err = members_gate(&report).unwrap_err();
        assert!(err.contains("btree") && !err.contains("rmi"), "{err}");
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

        // No default report path: a missing `--out` is a usage error.
        assert_eq!(run(&s(&["chaos", "--scenario", "baseline"])), 2);
    }

    /// The online attack scenarios run as rungs of `chaos` and land in its
    /// JSON report; the retired `serve-online` command is unknown.
    #[test]
    fn serve_online_writes_json_report() {
        let dir = ScratchDir::new("cli-online").unwrap();
        let out = dir
            .path()
            .join("BENCH_chaos.json")
            .to_string_lossy()
            .to_string();
        let mut flags = Flags::new();
        flags.insert("keys".into(), "3000".into());
        flags.insert("writes".into(), "60".into());
        flags.insert("requests".into(), "1500".into());
        flags.insert("clients".into(), "2".into());
        flags.insert("seed".into(), "51966".into());
        flags.insert("out".into(), out.clone());
        for rung in ["undefended", "defended:density"] {
            flags.insert("scenario".into(), rung.into());
            cmd_chaos(&flags).unwrap();
            let json = std::fs::read_to_string(&out).unwrap();
            assert!(json.contains("\"bench\": \"chaos\""));
            assert!(json.contains(&format!("\"name\": \"{rung}\"")), "{rung}");
            assert!(json.contains("\"recall\""));
        }

        assert_eq!(run(&s(&["serve-online", "--keys", "3000"])), 2);
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

    /// Every `--attack` and `--defense` arm of `pipeline`, and `--in FILE`
    /// after `generate --out`, run end to end through the command line.
    #[test]
    fn attack_commands_run() {
        let pipeline = |extra: &[&str]| {
            let base = ["pipeline", "--keys", "300", "--model-size", "50"];
            run(&s(&[&base[..], &["--queries", "100"], extra].concat()))
        };
        for attack in ["none", "greedy", "rmi", "rmi-dp", "removal", "mixed"] {
            assert_eq!(pipeline(&["--attack", attack]), 0, "--attack {attack}");
        }
        for defense in ["none", "trim", "iqr", "density"] {
            assert_eq!(pipeline(&["--defense", defense]), 0, "--defense {defense}");
        }
        assert_eq!(pipeline(&["--attack", "nope"]), 1);
        assert_eq!(pipeline(&["--defense", "nope"]), 1);

        let dir = ScratchDir::new("cli-pipeline-in").unwrap();
        let path = dir.path().join("keys.txt").to_string_lossy().to_string();
        assert_eq!(run(&s(&["generate", "--keys", "300", "--out", &path])), 0);
        let from_file = [
            "--attack",
            "none",
            "--in",
            &path,
            "--index",
            "rmi,btree,pla",
        ];
        assert_eq!(pipeline(&from_file), 0);
    }
}
