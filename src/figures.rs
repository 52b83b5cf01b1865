//! The paper's figures and the ablations around them, as one table.
//!
//! Every entry of [`FIGURES`] is one experiment: the cells it runs at each
//! [`Scale`], the quantities it reports (per-model and RMI Ratio Loss, loss
//! sequences, probe and segment counts — never wall clock), the paper's
//! number next to the measured one, and the paper's qualitative claim as a
//! predicate over the quantities. Every build and attack is deterministic,
//! so at [`Scale::Smoke`] each entry must reproduce its pinned values
//! *bit for bit*; a refactor that moves a paper number fails the table's
//! test instead of going unnoticed. [`Scale::Paper`] runs the paper's grids
//! (keysets scaled to ~10⁵ keys, ratios preserved, about a minute in
//! release) and checks the claims only.
//!
//! `lis-cli figures [--scale smoke|paper] [--only fig4,fig6]` is the
//! runner; to re-pin after an intended change, run it at smoke scale and
//! copy the measured values it prints into the entry's `pinned` list.

use lis_core::alex::{AlexConfig, AlexIndex};
use lis_core::bloom::{BloomFilter, LearnedBloom};
use lis_core::error::{LisError, Result};
use lis_core::hashindex::{HashIndex, HashKind};
use lis_core::keys::{Key, KeyDomain, KeySet};
use lis_core::linreg::LinearModel;
use lis_core::pla::PlaIndex;
use lis_core::rmi::{Rmi, RmiConfig};
use lis_core::stats::BoxplotSummary;
use lis_defense::robust::compare_on_attack;
use lis_defense::{evaluate_defense, trim_defense, DefenseReport, TrimConfig};
use lis_poison::blackbox::blackbox_rmi_attack;
use lis_poison::bruteforce::{
    bruteforce_multi_point, bruteforce_single_point, bruteforce_single_point_naive,
};
use lis_poison::removal::{greedy_mixed, greedy_removal};
use lis_poison::volume::dp_rmi_attack;
use lis_poison::{
    greedy_poison, optimal_single_point, rmi_attack, Attack, GreedyCdfAttack, LossSequence,
    PoisonBudget, RmiAttackConfig,
};
use lis_workloads::{
    domain_for_density, lognormal_keys, normal_keys, realsim, trial_rng, uniform_keys, ResultTable,
    DEFAULT_SEED,
};
use std::fmt::Write as _;

/// How much of each entry's grid to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few cells per entry, seconds in a debug build; checked against
    /// the pinned values.
    Smoke,
    /// The paper's grids; checked against the claims only.
    Paper,
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale '{other}' (smoke | paper)")),
        }
    }
}

impl Scale {
    fn pick<T>(self, smoke: T, paper: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Paper => paper,
        }
    }
}

/// The named quantities one entry measured, in the order it measured them.
/// Names are dot-separated segments, e.g. `median.n100.d10.p15`.
#[derive(Debug, Default)]
struct Measured(Vec<(String, f64)>);

impl Measured {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// The quantity called `name`; NaN when the entry did not measure it,
    /// so a misnamed predicate fails instead of passing.
    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }

    /// Every quantity whose name contains all of `segments`.
    fn over<'a>(&'a self, segments: &'a [&'a str]) -> impl Iterator<Item = f64> + 'a {
        self.0
            .iter()
            .filter(|(n, _)| segments.iter().all(|s| n.split('.').any(|part| part == *s)))
            .map(|&(_, v)| v)
    }

    fn max(&self, segments: &[&str]) -> f64 {
        self.over(segments).fold(f64::NEG_INFINITY, f64::max)
    }

    fn min(&self, segments: &[&str]) -> f64 {
        self.over(segments).fold(f64::INFINITY, f64::min)
    }

    fn sum(&self, segments: &[&str]) -> f64 {
        self.over(segments).sum()
    }
}

/// One row of the table: a figure of the paper or an ablation.
pub struct Figure {
    /// `fig2` … `fig8`, or `abl-<name>`.
    pub id: &'static str,
    /// What the entry reproduces.
    pub title: &'static str,
    /// The paper's number for [`Figure::headline`] (or, for an ablation,
    /// the section whose remark it tests).
    pub paper: &'static str,
    /// The measured quantity reported next to [`Figure::paper`].
    pub headline: &'static str,
    /// The paper's qualitative claim, in words.
    pub claim: &'static str,
    measure: fn(Scale) -> Result<Measured>,
    holds: fn(&Measured) -> bool,
    /// Every quantity at [`Scale::Smoke`], in order, bit-exact.
    pinned: &'static [(&'static str, f64)],
}

/// What running one entry produced.
pub struct Outcome {
    figure: &'static Figure,
    scale: Scale,
    measured: Measured,
    /// Whether the claim's predicate holds over the quantities.
    holds: bool,
    /// At smoke scale, every way the quantities differ from the pinned
    /// ones (empty when bit-identical); `None` at paper scale.
    drift: Option<Vec<String>>,
}

impl Figure {
    /// Runs the entry's cells at `scale` and checks them.
    pub fn run(&'static self, scale: Scale) -> Result<Outcome> {
        let measured = (self.measure)(scale)?;
        let holds = (self.holds)(&measured);
        let drift = (scale == Scale::Smoke).then(|| drift(&measured, self.pinned));
        Ok(Outcome {
            figure: self,
            scale,
            measured,
            holds,
            drift,
        })
    }
}

fn drift(measured: &Measured, pinned: &[(&str, f64)]) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..measured.0.len().max(pinned.len()) {
        match (measured.0.get(i), pinned.get(i)) {
            (Some((name, got)), Some(&(want_name, want))) => {
                if name != want_name || got.to_bits() != want.to_bits() {
                    out.push(format!("{name} = {got:?}, pinned {want_name} = {want:?}"));
                }
            }
            (Some((name, got)), None) => out.push(format!("{name} = {got:?}, not pinned")),
            (None, Some((want_name, _))) => out.push(format!("{want_name} pinned, not measured")),
            (None, None) => unreachable!(),
        }
    }
    out
}

impl Outcome {
    /// The claim holds and, at smoke scale, every quantity is the pinned one.
    pub fn ok(&self) -> bool {
        self.holds && self.drift.as_ref().is_none_or(Vec::is_empty)
    }

    fn claim_cell(&self) -> &'static str {
        if self.holds {
            "holds"
        } else {
            "FAILS"
        }
    }

    fn pinned_cell(&self) -> String {
        match &self.drift {
            None => "-".into(),
            Some(d) if d.is_empty() => "exact".into(),
            Some(d) => format!("{} DIFF", d.len()),
        }
    }

    /// The entry's report: the paper's number next to the measured one, the
    /// claim's verdict, any drift from the pinned values, and every
    /// quantity (`{:?}` precision, so a smoke run's output can be pinned).
    pub fn render(&self) -> String {
        let f = self.figure;
        let mut out = String::new();
        let _ = writeln!(out, "== {} · {} ({:?} scale)", f.id, f.title, self.scale);
        let _ = writeln!(out, "  paper     {}", f.paper);
        let _ = writeln!(
            out,
            "  measured  {} = {:.3}",
            f.headline,
            self.measured.get(f.headline)
        );
        let _ = writeln!(out, "  claim     {} — {}", f.claim, self.claim_cell());
        let _ = writeln!(out, "  pinned    {}", self.pinned_cell());
        for line in self.drift.iter().flatten() {
            let _ = writeln!(out, "    drift   {line}");
        }
        for (name, value) in &self.measured.0 {
            let _ = writeln!(out, "    ({name:?}, {value:?}),");
        }
        out
    }
}

/// The one-line-per-entry summary: expected next to measured.
pub fn summary(outcomes: &[Outcome]) -> ResultTable {
    let mut table = ResultTable::new("figures", &["id", "paper", "measured", "claim", "pinned"]);
    for o in outcomes {
        table.push_row([
            o.figure.id.to_string(),
            o.figure.paper.to_string(),
            format!(
                "{} = {:.3}",
                o.figure.headline,
                o.measured.get(o.figure.headline)
            ),
            o.claim_cell().to_string(),
            o.pinned_cell(),
        ]);
    }
    table
}

/// The entries named by a comma-separated `only` list, in table order, or
/// every entry when `only` is `None`.
pub fn select(only: Option<&str>) -> std::result::Result<Vec<&'static Figure>, String> {
    let Some(only) = only else {
        return Ok(FIGURES.iter().collect());
    };
    let ids: Vec<&str> = only.split(',').map(str::trim).collect();
    if let Some(unknown) = ids.iter().find(|id| FIGURES.iter().all(|f| f.id != **id)) {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        return Err(format!(
            "unknown figure '{unknown}' (available: {})",
            known.join(", ")
        ));
    }
    Ok(FIGURES.iter().filter(|f| ids.contains(&f.id)).collect())
}

// ---------------------------------------------------------------------------
// Shared cells.

/// Key distribution of a synthetic experiment.
#[derive(Debug, Clone, Copy)]
enum Dist {
    /// Uniform over the domain (Figures 4–6).
    Uniform,
    /// Normal with µ = (α+β)/2, σ = (β−α)/3 (Figure 8).
    Normal,
    /// Log-normal(0, 2) scaled onto the domain (Figure 6).
    LogNormal,
}

impl Dist {
    fn sample(self, seed: u64, trial: u64, n: usize, density: f64) -> Result<KeySet> {
        let domain = domain_for_density(n, density)?;
        let mut rng = trial_rng(seed, trial);
        match self {
            Dist::Uniform => uniform_keys(&mut rng, n, domain),
            Dist::Normal => normal_keys(&mut rng, n, domain),
            Dist::LogNormal => lognormal_keys(&mut rng, n, domain),
        }
    }

    fn label(self) -> &'static str {
        match self {
            Dist::Uniform => "uniform",
            Dist::Normal => "normal",
            Dist::LogNormal => "lognormal",
        }
    }
}

/// A percentage as a name segment: `15.0` → `"15"`.
fn pct(percent: f64) -> String {
    format!("{percent:.0}")
}

/// The 10-key example keyset of Figures 2 and 3.
fn ten_keys() -> Result<KeySet> {
    KeySet::from_keys(vec![0, 4, 9, 13, 18, 22, 27, 31, 36, 40])
}

fn bit(b: bool) -> f64 {
    f64::from(u8::from(b))
}

/// Figures 5 and 8: Algorithm 1 against linear regression on the CDF, one
/// boxplot of Ratio Loss per `(keys, density, poison %)` cell.
fn regression_grid(dist: Dist, scale: Scale) -> Result<Measured> {
    let (key_counts, densities, percents, trials): (&[usize], &[f64], &[f64], u64) = scale.pick(
        (&[100], &[0.1, 0.8], &[1.0, 15.0], 5),
        (
            &[100, 1_000],
            &[0.1, 0.4, 0.8],
            &[1.0, 3.0, 5.0, 8.0, 10.0, 12.0, 15.0],
            20,
        ),
    );
    let mut m = Measured::default();
    for &n in key_counts {
        for &density in densities {
            for &p in percents {
                let mut ratios = Vec::new();
                for trial in 0..trials {
                    let ks = dist.sample(DEFAULT_SEED, trial, n, density)?;
                    let attack = GreedyCdfAttack {
                        budget: PoisonBudget::percentage(p, n)?,
                    };
                    ratios.push(attack.run(&ks)?.ratio_loss());
                }
                let b = BoxplotSummary::from_samples(&ratios).expect("every cell runs trials");
                let cell = format!("n{n}.d{}.p{}", pct(density * 100.0), pct(p));
                m.put(format!("median.{cell}"), b.median);
                m.put(format!("max.{cell}"), b.max);
            }
        }
    }
    m.put("max_ratio", m.max(&["max"]));
    Ok(m)
}

/// One cell of the Figure-6/7 sweep: Algorithm 2 with `keys / model_size`
/// second-stage models. Puts the RMI-level ratio (the paper's black line),
/// the largest single-model ratio and the served-cost ratio under `cell`.
fn rmi_cell(
    m: &mut Measured,
    cell: &str,
    keys: &KeySet,
    model_size: usize,
    percent: f64,
    alpha: f64,
) -> Result<()> {
    let num_models = (keys.len() / model_size).max(1);
    let cfg = RmiAttackConfig::new(percent)
        .with_alpha(alpha)
        .with_max_exchanges(num_models.min(64));
    let res = rmi_attack(keys, num_models, &cfg)?;
    m.put(format!("rmi.{cell}"), res.rmi_ratio());
    m.put(
        format!("model.{cell}"),
        res.models.iter().map(|x| x.ratio()).fold(0.0, f64::max),
    );
    // What the damage costs served lookups: comparisons per legitimate key
    // on an RMI over the poisoned keyset, relative to one over the clean.
    let mean_cost = |ks: &KeySet| -> Result<f64> {
        let rmi = Rmi::build(ks, &RmiConfig::linear_root(num_models))?;
        let total: usize = keys.keys().iter().map(|&k| rmi.lookup(k).cost).sum();
        Ok(total as f64 / keys.len() as f64)
    };
    m.put(
        format!("cost.{cell}"),
        mean_cost(&res.poisoned_keyset(keys)?)? / mean_cost(keys)?,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// The entries, in paper order, then the ablations.

fn fig2(_: Scale) -> Result<Measured> {
    let ks = ten_keys()?;
    let before = LinearModel::fit(&ks)?;
    let plan = optimal_single_point(&ks)?;
    let poisoned = ks.with_key(plan.key)?;
    let after = LinearModel::fit(&poisoned)?;
    // The compound effect: the one key re-ranks every larger key.
    let mut inflated = 0;
    for (k, r) in ks.cdf_pairs() {
        let r_after = poisoned.rank(k).expect("legitimate keys stay members");
        if after.residual(k, r_after).abs() > before.residual(k, r).abs() {
            inflated += 1;
        }
    }
    let mut m = Measured::default();
    m.put("poison_key", plan.key as f64);
    m.put("mse_before", before.mse);
    m.put("mse_after", after.mse);
    m.put("ratio_loss", plan.ratio_loss());
    m.put("inflated_keys", f64::from(inflated));
    Ok(m)
}

fn fig3(_: Scale) -> Result<Measured> {
    let seq = LossSequence::evaluate(&ten_keys()?);
    let (key, loss) = seq
        .argmax()
        .ok_or_else(|| LisError::Invariant("the example keyset has gaps".into()))?;
    let mut m = Measured::default();
    m.put("argmax_key", key as f64);
    m.put("argmax_loss", loss);
    m.put("clean_loss", seq.clean_mse);
    m.put("convex_per_gap", bit(seq.is_convex_per_gap(1e-7)));
    Ok(m)
}

fn fig4(_: Scale) -> Result<Measured> {
    let mut m = Measured::default();
    let (mut sum, mut max_span) = (0.0, 0.0f64);
    for trial in 0..10u64 {
        let mut rng = trial_rng(DEFAULT_SEED, trial);
        let clean = uniform_keys(&mut rng, 90, KeyDomain::up_to(499))?;
        let plan = greedy_poison(&clean, PoisonBudget::keys(10))?;
        let lo = plan.keys.iter().min().copied().unwrap_or(0);
        let hi = plan.keys.iter().max().copied().unwrap_or(0);
        let span = (hi - lo) as f64 / (clean.max_key() - clean.min_key()) as f64;
        max_span = max_span.max(span);
        sum += plan.ratio_loss();
        m.put(format!("ratio.t{trial}"), plan.ratio_loss());
    }
    m.put("mean_ratio", sum / 10.0);
    m.put("max_poison_span", max_span);
    Ok(m)
}

fn fig5(scale: Scale) -> Result<Measured> {
    regression_grid(Dist::Uniform, scale)
}

fn fig6(scale: Scale) -> Result<Measured> {
    let (n, sizes, densities, alphas, percents): (usize, &[usize], &[f64], &[f64], &[f64]) = scale
        .pick(
            (10_000, &[100], &[0.2, 0.01], &[3.0], &[10.0]),
            // The paper's densities: 10⁷ keys over 5·10⁷ and 10⁹ slots.
            (
                100_000,
                &[100, 1_000],
                &[0.2, 0.01],
                &[2.0, 3.0],
                &[1.0, 5.0, 10.0],
            ),
        );
    let mut m = Measured::default();
    for dist in [Dist::Uniform, Dist::LogNormal] {
        for &density in densities {
            let keys = dist.sample(0xF166, 0, n, density)?;
            for &size in sizes {
                for &alpha in alphas {
                    for &p in percents {
                        let cell = format!(
                            "{}.d{}.m{size}.a{}.p{}",
                            dist.label(),
                            pct(density * 100.0),
                            pct(alpha),
                            pct(p)
                        );
                        rmi_cell(&mut m, &cell, &keys, size, p, alpha)?;
                    }
                }
            }
        }
    }
    m.put("max_rmi.uniform", m.max(&["rmi", "uniform"]));
    m.put("max_rmi.lognormal", m.max(&["rmi", "lognormal"]));
    m.put("max_model.lognormal", m.max(&["model", "lognormal"]));
    Ok(m)
}

fn fig7(scale: Scale) -> Result<Measured> {
    let (osm_keys, sizes, percents): (usize, &[usize], &[f64]) = scale.pick(
        (5_000, &[100], &[10.0, 20.0]),
        (30_000, &[50, 100, 200], &[5.0, 10.0, 20.0]),
    );
    let salaries = realsim::miami_salaries(1)?;
    let latitudes = realsim::osm_latitudes_scaled(1, osm_keys)?;
    let mut m = Measured::default();
    for (label, keys) in [("salaries", &salaries), ("osm", &latitudes)] {
        for &size in sizes {
            for &p in percents {
                let cell = format!("{label}.m{size}.p{}", pct(p));
                rmi_cell(&mut m, &cell, keys, size, p, 3.0)?;
            }
        }
    }
    m.put("max_rmi", m.max(&["rmi"]));
    m.put("max_model", m.max(&["model"]));
    Ok(m)
}

fn fig8(scale: Scale) -> Result<Measured> {
    regression_grid(Dist::Normal, scale)
}

fn abl_candidates(scale: Scale) -> Result<Measured> {
    let sizes: &[usize] = scale.pick(&[200, 400], &[200, 400, 800, 1_600, 3_200, 6_400]);
    let mut m = Measured::default();
    for &n in sizes {
        let domain = KeyDomain::up_to(n as u64 * 10);
        let ks = uniform_keys(&mut trial_rng(0xC0DE, n as u64), n, domain)?;
        let plan = optimal_single_point(&ks)?;
        let (_, scan) = bruteforce_single_point(&ks)?;
        let (_, naive) = bruteforce_single_point_naive(&ks)?;
        let close = |other: f64| (plan.poisoned_mse - other).abs() < 1e-6 * other.max(1.0);
        m.put(format!("poisoned_mse.n{n}"), plan.poisoned_mse);
        m.put(format!("agree.n{n}"), bit(close(scan) && close(naive)));
    }
    m.put("agree_all", m.min(&["agree"]));
    Ok(m)
}

fn abl_bruteforce(scale: Scale) -> Result<Measured> {
    let mut m = Measured::default();
    for trial in 0..scale.pick(4u64, 12) {
        let n = 8 + (trial as usize % 4) * 2;
        let domain = KeyDomain::up_to(n as u64 * 4);
        let ks = uniform_keys(&mut trial_rng(0xAB1A, trial), n, domain)?;
        for p in [1usize, 2, 3] {
            let greedy = greedy_poison(&ks, PoisonBudget::keys(p))?;
            let (_, exhaustive) = bruteforce_multi_point(&ks, p, 5_000_000)?;
            m.put(
                format!("fraction.t{trial}.p{p}"),
                greedy.final_mse() / exhaustive,
            );
        }
    }
    let fractions: Vec<f64> = m.over(&["fraction"]).collect();
    m.put(
        "mean",
        fractions.iter().sum::<f64>() / fractions.len() as f64,
    );
    m.put("worst", m.min(&["fraction"]));
    Ok(m)
}

fn abl_bloom(scale: Scale) -> Result<Measured> {
    let (n, probes, percents): (usize, u64, &[f64]) = scale.pick(
        (2_000, 5_000, &[15.0]),
        (20_000, 50_000, &[5.0, 10.0, 15.0]),
    );
    let clean = Dist::Uniform.sample(0xB100, 0, n, 0.1)?;
    let span = clean.domain().size();
    let non_members: Vec<Key> = (0..probes)
        .map(|i| i * span / probes)
        .filter(|k| !clean.contains(*k))
        .collect();
    let mut classic = BloomFilter::with_rate(n, 0.01)?;
    for &k in clean.keys() {
        classic.insert(k);
    }
    let mut m = Measured::default();
    m.put("bloom_fpr", classic.empirical_fpr(&non_members));
    let cell = |m: &mut Measured, label: &str, ks: &KeySet| -> Result<()> {
        let lb = LearnedBloom::build(ks, 0.01)?;
        m.put(format!("window.{label}"), lb.window() as f64);
        m.put(format!("backup.{label}"), lb.backup_fraction());
        m.put(format!("fpr.{label}"), lb.empirical_fpr(&non_members));
        Ok(())
    };
    cell(&mut m, "clean", &clean)?;
    for &p in percents {
        let plan = greedy_poison(&clean, PoisonBudget::percentage(p, n)?)?;
        cell(
            &mut m,
            &format!("p{}", pct(p)),
            &plan.poisoned_keyset(&clean)?,
        )?;
    }
    m.put("window_growth", m.max(&["window"]) / m.get("window.clean"));
    Ok(m)
}

fn abl_hash(scale: Scale) -> Result<Measured> {
    let (n, slots, percents): (usize, usize, &[f64]) = scale.pick(
        (5_000, 6_000, &[15.0]),
        (50_000, 60_000, &[5.0, 10.0, 15.0]),
    );
    let clean = Dist::Uniform.sample(0x4A5, 0, n, 0.1)?;
    let mut m = Measured::default();
    let cell = |m: &mut Measured, label: &str, ks: &KeySet, slots: usize| -> Result<()> {
        for (kind, name) in [(HashKind::Learned, "learned"), (HashKind::Random, "random")] {
            let table = HashIndex::build(ks, slots, kind)?;
            m.put(format!("{name}.{label}"), table.expected_probes());
        }
        Ok(())
    };
    cell(&mut m, "clean", &clean, slots)?;
    for &p in percents {
        let poisoned =
            greedy_poison(&clean, PoisonBudget::percentage(p, n)?)?.poisoned_keyset(&clean)?;
        // The table grows with the keyset: the load factor stays fixed.
        let grown = (poisoned.len() as f64 * slots as f64 / n as f64) as usize;
        cell(&mut m, &format!("p{}", pct(p)), &poisoned, grown)?;
    }
    m.put(
        "learned_inflation",
        m.max(&["learned"]) / m.get("learned.clean"),
    );
    m.put(
        "random_drift",
        m.max(&["random"]) / m.min(&["random"]) - 1.0,
    );
    Ok(m)
}

fn abl_pla(scale: Scale) -> Result<Measured> {
    let (n, epsilons, percents): (usize, &[usize], &[f64]) = scale.pick(
        (2_000, &[4], &[15.0]),
        (20_000, &[4, 16, 64], &[5.0, 10.0, 15.0]),
    );
    let clean = Dist::Uniform.sample(0x91A, 0, n, 0.1)?;
    let mut m = Measured::default();
    for &eps in epsilons {
        let segments = |ks: &KeySet| -> Result<f64> {
            Ok(PlaIndex::build(ks, eps)?.num_segments().max(1) as f64)
        };
        let base = segments(&clean)?;
        m.put(format!("segments.e{eps}"), base);
        for &p in percents {
            let budget = PoisonBudget::percentage(p, n)?;
            let greedy = greedy_poison(&clean, budget)?.poisoned_keyset(&clean)?;
            let cell = format!("e{eps}.p{}", pct(p));
            m.put(format!("greedy.{cell}"), segments(&greedy)? / base);
            m.put(
                format!("clump.{cell}"),
                segments(&sawtooth(&clean, budget.count))? / base,
            );
        }
    }
    m.put("worst_greedy", m.max(&["greedy"]));
    m.put("worst_clump", m.max(&["clump"]));
    Ok(m)
}

/// The PLA-aware attacker: fills every other interior gap completely, left
/// to right, until `budget` keys are placed. Each filled gap jumps the
/// local slope far above the baseline, so a segment spanning more than a
/// couple of teeth breaks its error cone and must cut.
fn sawtooth(clean: &KeySet, budget: usize) -> KeySet {
    let mut poisoned = clean.clone();
    let mut placed = 0;
    for gap in clean.gaps().into_iter().step_by(2) {
        for k in gap.lo..=gap.hi {
            if placed == budget {
                return poisoned;
            }
            if poisoned.insert(k).is_ok() {
                placed += 1;
            }
        }
    }
    poisoned
}

fn abl_removal(scale: Scale) -> Result<Measured> {
    let (trials, budgets): (u64, &[usize]) = scale.pick((2, &[30]), (6, &[30, 60]));
    let mut m = Measured::default();
    let mut margin = f64::INFINITY;
    for trial in 0..trials {
        let clean = Dist::Uniform.sample(0xDE1, trial, 600, 0.15)?;
        for &b in budgets {
            let insert = greedy_poison(&clean, PoisonBudget::keys(b))?;
            let delete = greedy_removal(&clean, b)?;
            let mixed = greedy_mixed(&clean, PoisonBudget::keys(b))?;
            let cell = format!("t{trial}.b{b}");
            m.put(format!("insert.{cell}"), insert.ratio_loss());
            m.put(format!("delete.{cell}"), delete.ratio_loss());
            m.put(format!("mixed.{cell}"), mixed.ratio_loss());
            // The mixed adversary's first move is the better of both.
            margin = margin
                .min(mixed.losses[0] - insert.losses[0])
                .min(mixed.losses[0] - delete.losses[0]);
        }
    }
    m.put("first_step_margin", margin);
    Ok(m)
}

fn abl_blackbox(scale: Scale) -> Result<Measured> {
    let (n, leaves): (usize, usize) = scale.pick((2_000, 20), (20_000, 200));
    let clean = Dist::Uniform.sample(0xB1AC, 0, n, 0.15)?;
    let rmi = Rmi::build(&clean, &RmiConfig::linear_root(leaves))?;
    let cfg = RmiAttackConfig::new(10.0).with_max_exchanges(20);
    let black = blackbox_rmi_attack(&rmi, &clean, &cfg)?;
    // A leaf is recovered when the inferred slope is within the rounding
    // error of two integer position probes across its partition.
    let recovered = rmi
        .leaves()
        .iter()
        .zip(&black.inferred)
        .zip(clean.partition(leaves)?)
        .filter(|((leaf, inferred), part)| {
            let span = (part.max_key() - part.min_key()) as f64;
            (leaf.model.w - inferred.w).abs() <= 2.5 / span + 1e-9
        })
        .count();
    let mut m = Measured::default();
    m.put("leaves", leaves as f64);
    m.put("probes", black.total_probes as f64);
    m.put("inferred", black.inferred.len() as f64);
    m.put("recovered", recovered as f64);
    m.put("rmi_ratio", black.attack.rmi_ratio());
    Ok(m)
}

fn abl_robust(scale: Scale) -> Result<Measured> {
    let (sizes, percents): (&[usize], &[f64]) =
        scale.pick((&[200], &[10.0]), (&[200, 1_000], &[5.0, 10.0, 15.0]));
    let mut m = Measured::default();
    for &n in sizes {
        let clean = Dist::Uniform.sample(0x7B, n as u64, n, 0.1)?;
        for &p in percents {
            let plan = greedy_poison(&clean, PoisonBudget::percentage(p, n)?)?;
            let cmp = compare_on_attack(&clean, &plan.poisoned_keyset(&clean)?, 200_000)?;
            let cell = format!("n{n}.p{}", pct(p));
            m.put(format!("ols_on_clean.{cell}"), cmp.ols_poisoned_on_clean);
            m.put(format!("ts_on_clean.{cell}"), cmp.ts_poisoned_on_clean);
            m.put(
                format!("rescue.{cell}"),
                cmp.ols_poisoned_on_clean / cmp.ts_poisoned_on_clean.max(1e-12),
            );
        }
    }
    m.put("best_rescue", m.max(&["rescue"]));
    Ok(m)
}

fn abl_trim(scale: Scale) -> Result<Measured> {
    let n = 500;
    let mut m = Measured::default();
    let put = |m: &mut Measured, cell: String, r: &DefenseReport| {
        m.put(format!("recall.{cell}"), r.poison_recall);
        m.put(format!("legit_removed.{cell}"), r.legit_removed as f64);
        m.put(format!("ratio_before.{cell}"), r.ratio_before());
        m.put(format!("ratio_after.{cell}"), r.ratio_after());
    };
    for &p in scale.pick(&[10.0][..], &[5.0, 10.0, 15.0]) {
        let clean = Dist::Uniform.sample(0x7121, p as u64, n, 0.1)?;
        // The paper's in-range greedy attack.
        let plan = greedy_poison(&clean, PoisonBudget::percentage(p, n)?)?;
        let poisoned = plan.poisoned_keyset(&clean)?;
        let out = trim_defense(&poisoned, &TrimConfig::new(n))?;
        let report = evaluate_defense(&clean, &plan.keys, &out.retained)?;
        put(&mut m, format!("greedy.p{}", pct(p)), &report);
        // A naive attacker clumped at the top of the domain.
        let top = clean.domain().max;
        let naive_keys: Vec<Key> = (0..(p / 100.0 * n as f64) as u64)
            .map(|i| top - i)
            .filter(|k| !clean.contains(*k))
            .collect();
        let mut naive = clean.clone();
        naive.insert_all(naive_keys.iter().copied())?;
        let out = trim_defense(&naive, &TrimConfig::new(n))?;
        let report = evaluate_defense(&clean, &naive_keys, &out.retained)?;
        put(&mut m, format!("naive.p{}", pct(p)), &report);
    }
    let recalls: Vec<f64> = m.over(&["recall", "greedy"]).collect();
    m.put(
        "greedy_mean_recall",
        recalls.iter().sum::<f64>() / recalls.len() as f64,
    );
    Ok(m)
}

fn abl_update(scale: Scale) -> Result<Measured> {
    let (n, percents): (usize, &[f64]) = scale.pick((2_000, &[10.0]), (20_000, &[5.0, 10.0]));
    let clean = Dist::Uniform.sample(0xA1EC, 0, n, 0.05)?;
    let cfg = AlexConfig {
        leaf_capacity: 128,
        fill_low: 0.5,
        fill_high: 0.8,
    };
    let probes: Vec<Key> = clean.keys().iter().copied().step_by(23).collect();
    let mut m = Measured::default();
    let stream = |m: &mut Measured, cell: String, keys: &[Key]| -> Result<()> {
        let mut index = AlexIndex::build(&clean, cfg)?;
        let before = index.mean_lookup_probes(&probes);
        index.reset_stats();
        for &k in keys {
            // A rejected duplicate is a no-op for both writers alike.
            let _ = index.insert(k);
        }
        let stats = index.stats();
        m.put(format!("splits.{cell}"), stats.splits as f64);
        m.put(
            format!("churn.{cell}"),
            (stats.shifts + stats.insert_probes) as f64,
        );
        m.put(
            format!("probe_inflation.{cell}"),
            index.mean_lookup_probes(&probes) / before.max(1e-9),
        );
        Ok(())
    };
    for &p in percents {
        let count = (p / 100.0 * n as f64) as usize;
        // The adversary streams greedy CDF poison after the build.
        let plan = greedy_poison(&clean, PoisonBudget::keys(count))?;
        stream(&mut m, format!("poison.p{}", pct(p)), &plan.keys)?;
        // A benign writer inserts as many evenly spread fresh keys.
        let step = (clean.max_key() - clean.min_key()) / (count as u64 + 1);
        let mut benign = Vec::with_capacity(count);
        let mut k = clean.min_key() + step;
        while benign.len() < count {
            if !clean.contains(k) {
                benign.push(k);
            }
            k += step;
            if k >= clean.max_key() {
                k = clean.min_key() + 1 + benign.len() as u64;
            }
        }
        stream(&mut m, format!("benign.p{}", pct(p)), &benign)?;
    }
    m.put(
        "churn_ratio",
        m.sum(&["churn", "poison"]) / m.sum(&["churn", "benign"]),
    );
    Ok(m)
}

fn abl_volume(scale: Scale) -> Result<Measured> {
    let (n, models, percents): (usize, &[usize], &[f64]) =
        scale.pick((2_000, &[20], &[10.0]), (20_000, &[20, 100], &[5.0, 10.0]));
    let mut m = Measured::default();
    for dist in [Dist::Uniform, Dist::LogNormal] {
        let keys = dist.sample(0xD0, 0, n, 0.05)?;
        for &num_models in models {
            for &p in percents {
                let cfg = RmiAttackConfig::new(p).with_max_exchanges(num_models.min(64));
                let greedy = rmi_attack(&keys, num_models, &cfg)?.poisoned_rmi_loss;
                let dp = dp_rmi_attack(&keys, num_models, p, 3.0)?.poisoned_rmi_loss;
                let cell = format!("{}.m{num_models}.p{}", dist.label(), pct(p));
                m.put(format!("greedy.{cell}"), greedy);
                m.put(format!("dp.{cell}"), dp);
                m.put(format!("gain.{cell}"), dp / greedy.max(1e-12));
            }
        }
    }
    m.put("min_gain", m.min(&["gain"]));
    Ok(m)
}

/// The table. Paper claims first (Figures 2–8), then the ablations that
/// test the paper's Section IV–VI remarks on other victims and defenses.
pub static FIGURES: &[Figure] = &[
    Figure {
        id: "fig2",
        title: "compound effect of one optimal poisoning key (10 keys)",
        paper: "one key re-ranks every larger key",
        headline: "ratio_loss",
        claim: "the optimal key raises the MSE and inflates most legitimate residuals",
        measure: fig2,
        holds: |m| m.get("ratio_loss") > 1.0 && m.get("inflated_keys") > 5.0,
        pinned: &[
            ("poison_key", 10.0),
            ("mse_before", 0.0030120481927706777),
            ("mse_after", 0.08468328141225356),
            ("ratio_loss", 28.114849428871977),
            ("inflated_keys", 8.0),
        ],
    },
    Figure {
        id: "fig3",
        title: "loss sequence L(kp) over the key space (Theorem 2)",
        paper: "L is convex within every gap",
        headline: "argmax_loss",
        claim: "the loss sequence is convex per gap and peaks above the clean loss",
        measure: fig3,
        holds: |m| m.get("convex_per_gap") == 1.0 && m.get("argmax_loss") > m.get("clean_loss"),
        pinned: &[
            ("argmax_key", 30.0),
            ("argmax_loss", 0.08468328141225356),
            ("clean_loss", 0.0030120481927706777),
            ("convex_per_gap", 1.0),
        ],
    },
    Figure {
        id: "fig4",
        title: "Algorithm 1 on 90 uniform keys + 10 poison, 10 keysets",
        paper: "Ratio Loss 7.4x on one sampled keyset",
        headline: "mean_ratio",
        claim: "mean Ratio Loss > 4, poison clustered in < 10% of the key range",
        measure: fig4,
        holds: |m| m.get("mean_ratio") > 4.0 && m.get("max_poison_span") < 0.1,
        pinned: &[
            ("ratio.t0", 4.684910352448801),
            ("ratio.t1", 8.275308365408371),
            ("ratio.t2", 2.881136262529899),
            ("ratio.t3", 7.21461823418547),
            ("ratio.t4", 5.709661156413037),
            ("ratio.t5", 6.112489115202715),
            ("ratio.t6", 7.060611348163706),
            ("ratio.t7", 4.262125617027812),
            ("ratio.t8", 3.995645033733292),
            ("ratio.t9", 2.9170226846324283),
            ("mean_ratio", 5.311352816974553),
            ("max_poison_span", 0.030927835051546393),
        ],
    },
    Figure {
        id: "fig5",
        title: "Algorithm 1 vs regression on CDF, uniform keys",
        paper: "up to ~100x in large sparse domains",
        headline: "max_ratio",
        claim: "the median ratio grows with poison % and is larger at 10% than at 80% density",
        measure: fig5,
        holds: |m| {
            m.sum(&["median", "d10", "p15"]) > m.sum(&["median", "d10", "p1"])
                && m.sum(&["median", "d10", "p15"]) > m.sum(&["median", "d80", "p15"])
        },
        pinned: &[
            ("median.n100.d10.p1", 1.1716009485999654),
            ("max.n100.d10.p1", 1.247954926057422),
            ("median.n100.d10.p15", 9.50051014162848),
            ("max.n100.d10.p15", 12.775584132944802),
            ("median.n100.d80.p1", 1.341984509511029),
            ("max.n100.d80.p1", 1.4083220932279572),
            ("median.n100.d80.p15", 3.150834036130698),
            ("max.n100.d80.p15", 5.70048310201527),
            ("max_ratio", 12.775584132944802),
        ],
    },
    Figure {
        id: "fig6",
        title: "Algorithm 2 vs two-stage RMI, uniform and log-normal keys",
        paper: "RMI up to 300x, one model up to 3000x (10^7 keys)",
        headline: "max_rmi.lognormal",
        claim: "log-normal is at least comparable to uniform (>= 0.8x its max RMI ratio)",
        measure: fig6,
        holds: |m| {
            m.get("max_rmi.lognormal") >= 0.8 * m.get("max_rmi.uniform")
                && m.get("max_model.lognormal") >= m.get("max_rmi.lognormal")
        },
        pinned: &[
            ("rmi.uniform.d20.m100.a3.p10", 4.260079886709113),
            ("model.uniform.d20.m100.a3.p10", 16.044992557188003),
            ("cost.uniform.d20.m100.a3.p10", 1.00306860688234),
            ("rmi.uniform.d1.m100.a3.p10", 3.9886876236075177),
            ("model.uniform.d1.m100.a3.p10", 14.095164568793713),
            ("cost.uniform.d1.m100.a3.p10", 1.0073849177538703),
            ("rmi.lognormal.d20.m100.a3.p10", 4.388249321422438),
            ("model.lognormal.d20.m100.a3.p10", 11.061258302624916),
            ("cost.lognormal.d20.m100.a3.p10", 1.0124921189583131),
            ("rmi.lognormal.d1.m100.a3.p10", 3.5262702378215365),
            ("model.lognormal.d1.m100.a3.p10", 20.15567838910984),
            ("cost.lognormal.d1.m100.a3.p10", 0.9942547784775164),
            ("max_rmi.uniform", 4.260079886709113),
            ("max_rmi.lognormal", 4.388249321422438),
            ("max_model.lognormal", 20.15567838910984),
        ],
    },
    Figure {
        id: "fig7",
        title: "Algorithm 2 vs RMI on Miami salaries and OSM latitudes (simulated)",
        paper: "RMI 4-24x, one model up to 70x",
        headline: "max_rmi",
        claim: "the real-data attack reaches the paper's order of magnitude (RMI > 2x)",
        measure: fig7,
        holds: |m| m.get("max_rmi") > 2.0,
        pinned: &[
            ("rmi.salaries.m100.p10", 3.7188341054182534),
            ("model.salaries.m100.p10", 12.59501994409309),
            ("cost.salaries.m100.p10", 1.0109010720774447),
            ("rmi.salaries.m100.p20", 8.190522672579334),
            ("model.salaries.m100.p20", 70.42657065892637),
            ("cost.salaries.m100.p20", 1.1564983426487108),
            ("rmi.osm.m100.p10", 3.7478050772065816),
            ("model.osm.m100.p10", 12.473371556101466),
            ("cost.osm.m100.p10", 1.0426714491099616),
            ("rmi.osm.m100.p20", 8.403670600352891),
            ("model.osm.m100.p20", 31.9092073412107),
            ("cost.osm.m100.p20", 1.0543212438305),
            ("max_rmi", 8.403670600352891),
            ("max_model", 70.42657065892637),
        ],
    },
    Figure {
        id: "fig8",
        title: "Algorithm 1 vs regression on CDF, normal keys (appendix)",
        paper: "up to 8x",
        headline: "max_ratio",
        claim: "the attack still beats the clean loss but stays far below uniform's extremes",
        measure: fig8,
        holds: |m| m.max(&["median", "p15"]) > 1.0 && m.get("max_ratio") < 100.0,
        pinned: &[
            ("median.n100.d10.p1", 1.111106939495199),
            ("max.n100.d10.p1", 1.1306428238243165),
            ("median.n100.d10.p15", 3.6805702036352455),
            ("max.n100.d10.p15", 5.160201780362447),
            ("median.n100.d80.p1", 1.2067620794787877),
            ("max.n100.d80.p1", 1.2881606407319293),
            ("median.n100.d80.p15", 1.6793456948625365),
            ("max.n100.d80.p15", 2.9214761627993364),
            ("max_ratio", 5.160201780362447),
        ],
    },
    Figure {
        id: "abl-candidates",
        title: "gap endpoints vs all m candidates vs a refit per candidate",
        paper: "Section IV-C: O(n) endpoints suffice",
        headline: "agree_all",
        claim: "the endpoint attack finds the optimum of the O(m+n) scan and the O(mn) refit",
        measure: abl_candidates,
        holds: |m| m.get("agree_all") == 1.0,
        pinned: &[
            ("poisoned_mse.n200", 5.380354179493679),
            ("agree.n200", 1.0),
            ("poisoned_mse.n400", 40.363965142028974),
            ("agree.n400", 1.0),
            ("agree_all", 1.0),
        ],
    },
    Figure {
        id: "abl-bruteforce",
        title: "Algorithm 1 vs exhaustive multi-point search on tiny keysets",
        paper: "Section IV-D: greedy matched brute force",
        headline: "mean",
        claim: "greedy reaches > 97% of the exhaustive optimum on average, > 80% at worst",
        measure: abl_bruteforce,
        holds: |m| m.get("mean") > 0.97 && m.get("worst") > 0.8,
        pinned: &[
            ("fraction.t0.p1", 1.0),
            ("fraction.t0.p2", 1.0),
            ("fraction.t0.p3", 1.0),
            ("fraction.t1.p1", 1.0),
            ("fraction.t1.p2", 1.0),
            ("fraction.t1.p3", 1.0),
            ("fraction.t2.p1", 1.0),
            ("fraction.t2.p2", 1.0),
            ("fraction.t2.p3", 1.0),
            ("fraction.t3.p1", 1.0),
            ("fraction.t3.p2", 0.9964281622383512),
            ("fraction.t3.p3", 0.9876259640686456),
            ("mean", 0.9986711771922496),
            ("worst", 0.9876259640686456),
        ],
    },
    Figure {
        id: "abl-bloom",
        title: "poisoning the learned existence index (model + backup Bloom)",
        paper: "Section VI: the index trio",
        headline: "window_growth",
        claim: "poison widens the learned filter's acceptance window",
        measure: abl_bloom,
        holds: |m| m.get("window_growth") > 1.0,
        pinned: &[
            ("bloom_fpr", 0.00865320612380741),
            ("window.clean", 16.0),
            ("backup.clean", 0.067),
            ("fpr.clean", 0.0),
            ("window.p15", 109.0),
            ("backup.p15", 0.25608695652173913),
            ("fpr.p15", 0.01730641224761482),
            ("window_growth", 6.8125),
        ],
    },
    Figure {
        id: "abl-hash",
        title: "poisoning the learned hash (point) index",
        paper: "Section VI: the index trio",
        headline: "learned_inflation",
        claim: "poison inflates the learned hash's expected probes; the random hash moves < 5%",
        measure: abl_hash,
        holds: |m| m.get("learned_inflation") > 1.0 && m.get("random_drift") < 0.05,
        pinned: &[
            ("learned.clean", 1.4122),
            ("random.clean", 1.4446),
            ("learned.p15", 5.299130434782609),
            ("random.p15", 1.4074782608695653),
            ("learned_inflation", 3.752393736568906),
            ("random_drift", 0.026374644754726395),
        ],
    },
    Figure {
        id: "abl-pla",
        title: "MSE-greedy vs a PLA-aware sawtooth against an error-bounded PLA",
        paper: "Section VI: each family needs its own attack",
        headline: "worst_clump",
        claim: "the tailored sawtooth forces more segments than MSE-greedy, and > 1.2x",
        measure: abl_pla,
        holds: |m| m.get("worst_clump") > m.get("worst_greedy") && m.get("worst_clump") > 1.2,
        pinned: &[
            ("segments.e4", 32.0),
            ("greedy.e4.p15", 1.0625),
            ("clump.e4.p15", 1.3125),
            ("worst_greedy", 1.0625),
            ("worst_clump", 1.3125),
        ],
    },
    Figure {
        id: "abl-removal",
        title: "insert-only vs delete-only vs mixed greedy adversaries",
        paper: "Section VI: deletion-capable adversaries",
        headline: "first_step_margin",
        claim: "the mixed adversary's first action is never worse than either pure one",
        measure: abl_removal,
        holds: |m| m.get("first_step_margin") >= -1e-9,
        pinned: &[
            ("insert.t0.b30", 5.993785985796069),
            ("delete.t0.b30", 5.195464775964796),
            ("mixed.t0.b30", 5.993785985796069),
            ("insert.t1.b30", 9.173305792806628),
            ("delete.t1.b30", 7.4096948646648055),
            ("mixed.t1.b30", 9.173305792806628),
            ("first_step_margin", 0.0),
        ],
    },
    Figure {
        id: "abl-blackbox",
        title: "black-box Algorithm 2: infer each leaf model by probing, then attack",
        paper: "Section VI: black-box adversaries",
        headline: "rmi_ratio",
        claim:
            "two probes per leaf recover every leaf model, and the attack still raises the RMI loss",
        measure: abl_blackbox,
        holds: |m| {
            m.get("recovered") == m.get("leaves")
                && m.get("inferred") == m.get("leaves")
                && m.get("rmi_ratio") > 1.0
        },
        pinned: &[
            ("leaves", 20.0),
            ("probes", 40.0),
            ("inferred", 20.0),
            ("recovered", 20.0),
            ("rmi_ratio", 4.501419111236207),
        ],
    },
    Figure {
        id: "abl-robust",
        title: "Theil-Sen vs OLS under CDF poisoning, scored on the clean keys",
        paper: "Section VI: robust models cost the RMI its edge",
        headline: "best_rescue",
        claim: "robust regression rescues nothing: OLS/Theil-Sen loss on clean keys < 1.25",
        measure: abl_robust,
        holds: |m| m.get("best_rescue") < 1.25,
        pinned: &[
            ("ols_on_clean.n200.p10", 190.51039577663695),
            ("ts_on_clean.n200.p10", 188.51193474571417),
            ("rescue.n200.p10", 1.0106012440730532),
            ("best_rescue", 1.0106012440730532),
        ],
    },
    Figure {
        id: "abl-trim",
        title: "the TRIM defense vs greedy in-range and naive clumped poison",
        paper: "Section VI: TRIM transfers poorly",
        headline: "greedy_mean_recall",
        claim: "TRIM does not recover every greedy poison key (mean recall < 0.999)",
        measure: abl_trim,
        holds: |m| m.get("greedy_mean_recall") < 0.999,
        pinned: &[
            ("recall.greedy.p10", 0.72),
            ("legit_removed.greedy.p10", 14.0),
            ("ratio_before.greedy.p10", 16.26295950242242),
            ("ratio_after.greedy.p10", 1.0666210897965787),
            ("recall.naive.p10", 0.0),
            ("legit_removed.naive.p10", 44.0),
            ("ratio_before.naive.p10", 3.6833279343860603),
            ("ratio_after.naive.p10", 7.753989031348745),
            ("greedy_mean_recall", 0.72),
        ],
    },
    Figure {
        id: "abl-update",
        title: "poison streamed through an ALEX-style index's insert channel",
        paper: "Section VI: updatable indexes",
        headline: "churn_ratio",
        claim: "the poison stream costs more shifts + probes than as many benign inserts",
        measure: abl_update,
        holds: |m| m.get("churn_ratio") > 1.0,
        pinned: &[
            ("splits.poison.p10", 4.0),
            ("churn.poison.p10", 34955.0),
            ("probe_inflation.poison.p10", 1.1352941176470588),
            ("splits.benign.p10", 0.0),
            ("churn.benign.p10", 29704.0),
            ("probe_inflation.benign.p10", 1.0),
            ("churn_ratio", 1.1767775383786696),
        ],
    },
    Figure {
        id: "abl-volume",
        title: "Algorithm 2's greedy volume allocation vs the exact DP",
        paper: "Section V: greedy allocation is a lower bound",
        headline: "min_gain",
        claim: "the DP allocation never falls materially below greedy (>= 0.95x)",
        measure: abl_volume,
        holds: |m| m.get("min_gain") > 0.95,
        pinned: &[
            ("greedy.uniform.m20.p10", 24.51859112956514),
            ("dp.uniform.m20.p10", 40.910695503744115),
            ("gain.uniform.m20.p10", 1.6685581682714614),
            ("greedy.lognormal.m20.p10", 28.94524790269235),
            ("dp.lognormal.m20.p10", 55.34721567260986),
            ("gain.lognormal.m20.p10", 1.9121347952753835),
            ("min_gain", 1.6685581682714614),
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_reproduces_its_pinned_smoke_values_and_claim() {
        let failures: Vec<String> = FIGURES
            .iter()
            .map(|figure| figure.run(Scale::Smoke).unwrap())
            .filter(|outcome| !outcome.ok())
            .map(|outcome| outcome.render())
            .collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn ids_are_unique_and_selectable() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
        let picked = select(Some("fig6, fig2")).unwrap();
        assert_eq!(
            picked.iter().map(|f| f.id).collect::<Vec<_>>(),
            ["fig2", "fig6"]
        );
        assert_eq!(select(None).unwrap().len(), FIGURES.len());
        assert!(matches!(select(Some("fig9")), Err(e) if e.contains("fig2")));
    }

    #[test]
    fn drift_names_every_difference() {
        let mut m = Measured::default();
        m.put("a", 1.0);
        m.put("b", 2.0);
        assert!(drift(&m, &[("a", 1.0), ("b", 2.0)]).is_empty());
        let d = drift(&m, &[("a", 1.0), ("b", 2.0000000000000004), ("c", 3.0)]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].starts_with("b = 2.0"));
        assert!(d[1].starts_with("c pinned"));
    }

    #[test]
    fn segment_filters_do_not_match_prefixes() {
        let mut m = Measured::default();
        m.put("median.d10.p1", 1.0);
        m.put("median.d10.p15", 5.0);
        assert_eq!(m.sum(&["median", "p1"]), 1.0);
        assert_eq!(m.max(&["d10"]), 5.0);
        assert!(m.get("median.d10.p2").is_nan());
    }
}
