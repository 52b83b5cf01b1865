//! Poisoning the two-stage RMI (Section V, Algorithm 2
//! `GreedyPoisoningRMI`).
//!
//! The RMI attack decomposes into two coupled problems:
//!
//! * **key allocation** — *which* keys to inject inside one second-stage
//!   partition: solved by the greedy CDF attack (Algorithm 1);
//! * **volume allocation** — *how many* keys each second-stage model
//!   receives: an integer program the paper attacks greedily.
//!
//! The volume allocator starts from the uniform split `φn/N`, then
//! repeatedly performs the best *neighbour exchange*: a poisoning slot
//! moves from model `i` to an adjacent model `j` while the boundary
//! legitimate key moves the opposite way (keeping every model's total key
//! count fixed), as long as (a) the receiving model stays under the
//! per-model threshold `t = α·φ·n/N` — the stealth cap that stops any
//! single regression from being flooded — and (b) the exchange improves
//! `L_RMI` by more than `ε`. Each applied exchange invalidates only the six
//! CHANGELOSS entries that mention the two touched models, which the
//! algorithm recomputes. An entry is two greedy runs over partitions of
//! about `n/N` keys with at most `t` poison keys each, so `O((n/N)·t)`.
//!
//! ## Parallelism
//!
//! Almost all of the work comes before the first exchange: the setup runs
//! one greedy attack per model (`N` jobs) and the initial CHANGELOSS table
//! two per boundary (`N − 1` jobs), against six per applied exchange. The
//! jobs of each phase read only the keys and the finished setup, so both
//! phases fan out through [`lis_core::par::map_chunks`], which runs
//! contiguous job chunks and concatenates their results in job order; the
//! first error in job order is the one returned, as a serial loop would.
//! Every job is the same sequential arithmetic on whichever thread runs
//! it, so the result is bit-identical at any worker count. The exchange
//! loop depends on every earlier step and stays serial.

use crate::greedy::{greedy_poison_sorted, PoisonBudget};
use lis_core::error::{LisError, Result};
use lis_core::keys::{Key, KeySet};
use lis_core::linreg::fit_sorted_slice;
use lis_core::metrics::ratio_loss;
use lis_core::par;
use std::sync::Arc;

/// Parameters of the RMI attack.
#[derive(Debug, Clone, Copy)]
pub struct RmiAttackConfig {
    /// Overall poisoning percentage `φ·100` (e.g. `10.0` for 10%).
    pub poison_percent: f64,
    /// Per-model threshold multiplier `α` (the paper evaluates 2 and 3).
    pub alpha: f64,
    /// Termination bound `ε` on the loss improvement of an exchange.
    pub epsilon: f64,
    /// Safety cap on the number of applied exchanges (the paper's loop is
    /// bounded only by `ε`; the cap guards pathological plateaus).
    pub max_exchanges: usize,
}

impl RmiAttackConfig {
    /// Paper-style defaults: `α = 3`, `ε` proportional to nothing in
    /// particular — a tiny absolute improvement bound.
    pub fn new(poison_percent: f64) -> Self {
        Self {
            poison_percent,
            alpha: 3.0,
            epsilon: 1e-9,
            max_exchanges: usize::MAX,
        }
    }

    /// Sets `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the exchange cap.
    pub fn with_max_exchanges(mut self, cap: usize) -> Self {
        self.max_exchanges = cap;
        self
    }
}

/// Outcome for one second-stage model.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// Legitimate keys this model ended up responsible for (after boundary
    /// drift from exchanges).
    pub legit: Vec<Key>,
    /// Poisoning keys injected into this model.
    pub poison: Vec<Key>,
    /// MSE of the regression trained on `legit ∪ poison`.
    pub poisoned_loss: f64,
    /// MSE of the regression trained on the model's *original* equal-size
    /// partition (the denominator of the paper's per-model ratio).
    pub clean_loss: f64,
}

impl ModelOutcome {
    /// Per-model Ratio Loss (one observation of the Figure-6 boxplots).
    pub fn ratio(&self) -> f64 {
        ratio_loss(self.poisoned_loss, self.clean_loss)
    }
}

/// Result of the full RMI attack.
#[derive(Debug, Clone)]
pub struct RmiAttackResult {
    /// One outcome per second-stage model.
    pub models: Vec<ModelOutcome>,
    /// `L_RMI` of the clean index (equal-size partitions of `K`).
    pub clean_rmi_loss: f64,
    /// `L_RMI` of the poisoned index (final allocation).
    pub poisoned_rmi_loss: f64,
    /// Number of neighbour exchanges the volume allocator applied.
    pub exchanges_applied: usize,
    /// Total poisoning keys actually placed (≤ requested when partitions
    /// saturate).
    pub total_poison: usize,
}

impl RmiAttackResult {
    /// RMI-level Ratio Loss (the black horizontal line in Figure 6).
    pub fn rmi_ratio(&self) -> f64 {
        ratio_loss(self.poisoned_rmi_loss, self.clean_rmi_loss)
    }

    /// All poisoning keys across models.
    pub fn poison_keys(&self) -> Vec<Key> {
        self.models
            .iter()
            .flat_map(|m| m.poison.iter().copied())
            .collect()
    }

    /// The poisoned keyset `K ∪ P`.
    pub fn poisoned_keyset(&self, clean: &KeySet) -> Result<KeySet> {
        let mut out = clean.clone();
        out.insert_all(self.poison_keys())?;
        Ok(out)
    }
}

/// Internal: state of one model during the attack.
#[derive(Debug, Clone)]
struct ModelState {
    /// Start index (inclusive) into the global sorted legit key array.
    start: usize,
    /// End index (exclusive).
    end: usize,
    /// Allocated poisoning volume.
    volume: usize,
    /// Current poisoned loss and keys for the allocated volume.
    loss: f64,
    poison: Vec<Key>,
}

/// Evaluation of one candidate exchange, cached so that applying it is
/// free.
#[derive(Debug, Clone)]
struct ExchangeEval {
    /// Gain in `Σ leaf losses` (not yet divided by `N`).
    delta: f64,
    new_loss_src: f64,
    new_loss_dst: f64,
    new_poison_src: Vec<Key>,
    new_poison_dst: Vec<Key>,
}

/// Runs Algorithm 2 against `ks` partitioned into `num_models` equal-size
/// second-stage models.
///
/// The setup and the initial CHANGELOSS table fan out across the
/// machine's cores (see the module docs); the result does not depend on
/// how many there are.
pub fn rmi_attack(
    ks: &KeySet,
    num_models: usize,
    cfg: &RmiAttackConfig,
) -> Result<RmiAttackResult> {
    rmi_attack_on(ks, num_models, cfg, 0)
}

/// [`rmi_attack`] with its independent phases fanned out across at most
/// `threads` workers (`0` = the machine's available parallelism).
#[allow(clippy::needless_range_loop)] // CHANGELOSS updates index neighbouring table entries
fn rmi_attack_on(
    ks: &KeySet,
    num_models: usize,
    cfg: &RmiAttackConfig,
    threads: usize,
) -> Result<RmiAttackResult> {
    if num_models == 0 || num_models > ks.len() {
        return Err(LisError::InvalidPartition {
            parts: num_models,
            keys: ks.len(),
        });
    }
    if !(0.0..=20.0).contains(&cfg.poison_percent) {
        return Err(LisError::InvalidBudget(format!(
            "poisoning percentage {} outside [0, 20]",
            cfg.poison_percent
        )));
    }
    if cfg.alpha < 1.0 {
        return Err(LisError::InvalidBudget(format!(
            "alpha {} must be ≥ 1",
            cfg.alpha
        )));
    }

    let shared_keys = ks.shared_keys();
    let n = shared_keys.len();
    let total_budget = (cfg.poison_percent / 100.0 * n as f64).floor() as usize;
    let per_model = total_budget / num_models;
    let remainder = total_budget % num_models;
    // Per-model stealth cap t = α·φ·n/N, but never below the uniform share.
    let threshold =
        ((cfg.alpha * total_budget as f64 / num_models as f64).ceil() as usize).max(per_model + 1);

    // Setup, one job per model on its equal-size partition: the clean
    // loss and the greedy poisoning of the uniform volume split.
    let bounds = ks.partition_bounds(num_models)?;
    let keys = Arc::clone(&shared_keys);
    let setup = par::map_chunks(
        num_models,
        par::effective_workers(threads, num_models),
        move |range| {
            range
                .map(|i| -> Result<(f64, ModelState)> {
                    let slice = &keys[bounds[i].clone()];
                    let volume = per_model + usize::from(i < remainder);
                    let (loss, poison) = eval_model(slice, volume)?;
                    let state = ModelState {
                        start: bounds[i].start,
                        end: bounds[i].end,
                        volume,
                        loss,
                        poison,
                    };
                    Ok((slice_loss(slice), state))
                })
                .collect()
        },
    );
    let mut states = Vec::with_capacity(num_models);
    let mut clean_losses = Vec::with_capacity(num_models);
    for job in setup {
        let (clean, state) = job?;
        clean_losses.push(clean);
        states.push(state);
    }
    let clean_rmi_loss = clean_losses.iter().sum::<f64>() / num_models as f64;

    // CHANGELOSS table, one job per boundary: entry (i, dir) with dir 0 =
    // "poison slot moves i → i+1" and dir 1 = "poison slot moves i+1 → i".
    let boundaries = num_models - 1;
    let shared_states = Arc::new(states);
    let (keys, table_states) = (Arc::clone(&shared_keys), Arc::clone(&shared_states));
    let entries = par::map_chunks(
        boundaries,
        par::effective_workers(threads, boundaries),
        move |range| {
            range
                .map(|i| -> Result<[Option<ExchangeEval>; 2]> {
                    Ok([
                        eval_exchange(&keys, &table_states, i, true, threshold)?,
                        eval_exchange(&keys, &table_states, i, false, threshold)?,
                    ])
                })
                .collect()
        },
    );
    let mut states = Arc::try_unwrap(shared_states).expect("fan-out released the states");
    let mut table: Vec<[Option<ExchangeEval>; 2]> = entries.into_iter().collect::<Result<_>>()?;
    let keys = &shared_keys[..];

    let mut exchanges = 0usize;
    while exchanges < cfg.max_exchanges {
        // Best available exchange.
        let mut best: Option<(usize, usize, f64)> = None;
        for (i, entry) in table.iter().enumerate() {
            for (dir, eval) in entry.iter().enumerate() {
                if let Some(e) = eval {
                    if best.is_none_or(|(_, _, d)| e.delta > d) {
                        best = Some((i, dir, e.delta));
                    }
                }
            }
        }
        let Some((i, dir, delta)) = best else { break };
        if delta <= cfg.epsilon {
            break;
        }

        // Apply exchange between pair (i, i+1). dir 0: slot i → i+1 and the
        // boundary key (smallest of i+1) moves into i. dir 1: the mirror.
        let eval = table[i][dir].take().expect("selected entry present");
        {
            let (left, right) = states.split_at_mut(i + 1);
            let src_right = dir == 1; // slot donor is i+1 when dir == 1
            let (a, b) = (&mut left[i], &mut right[0]);
            if src_right {
                // slot i+1 → i; boundary key: largest of i moves to i+1.
                a.end -= 1;
                b.start -= 1;
                a.volume += 1;
                b.volume -= 1;
                a.loss = eval.new_loss_dst;
                b.loss = eval.new_loss_src;
                a.poison = eval.new_poison_dst;
                b.poison = eval.new_poison_src;
            } else {
                // slot i → i+1; boundary key: smallest of i+1 moves to i.
                a.end += 1;
                b.start += 1;
                a.volume -= 1;
                b.volume += 1;
                a.loss = eval.new_loss_src;
                b.loss = eval.new_loss_dst;
                a.poison = eval.new_poison_src;
                b.poison = eval.new_poison_dst;
            }
        }
        exchanges += 1;

        // Recompute the six entries touching models i and i+1.
        let lo = i.saturating_sub(1);
        let hi = (i + 1).min(table.len().saturating_sub(1));
        for j in lo..=hi {
            table[j][0] = eval_exchange(keys, &states, j, true, threshold)?;
            table[j][1] = eval_exchange(keys, &states, j, false, threshold)?;
        }
    }

    let mut models = Vec::with_capacity(num_models);
    let mut total_poison = 0usize;
    let mut poisoned_sum = 0.0;
    for (state, clean) in states.iter().zip(&clean_losses) {
        total_poison += state.poison.len();
        poisoned_sum += state.loss;
        models.push(ModelOutcome {
            legit: keys[state.start..state.end].to_vec(),
            poison: state.poison.clone(),
            poisoned_loss: state.loss,
            clean_loss: *clean,
        });
    }

    Ok(RmiAttackResult {
        models,
        clean_rmi_loss,
        poisoned_rmi_loss: poisoned_sum / num_models as f64,
        exchanges_applied: exchanges,
        total_poison,
    })
}

/// Loss of a regression trained on a contiguous legit slice (0 when the
/// slice is too small to fit) — fitted zero-copy via [`fit_sorted_slice`].
fn slice_loss(slice: &[Key]) -> f64 {
    if slice.len() < 2 {
        return 0.0;
    }
    fit_sorted_slice(slice).map(|(m, _)| m.mse).unwrap_or(0.0)
}

/// Runs the key-allocation subproblem: greedy CDF poisoning of one model's
/// partition with the given volume. Returns the poisoned loss and keys.
///
/// This is Algorithm 2's inner loop, re-entered for every candidate
/// exchange; it runs entirely on the zero-copy slice paths
/// ([`fit_sorted_slice`], [`greedy_poison_sorted`]) so no interim
/// [`KeySet`] is cloned per evaluation.
fn eval_model(slice: &[Key], volume: usize) -> Result<(f64, Vec<Key>)> {
    if slice.len() < 2 {
        return Ok((0.0, Vec::new()));
    }
    if volume == 0 {
        return Ok((fit_sorted_slice(slice)?.0.mse, Vec::new()));
    }
    let plan = greedy_poison_sorted(slice, PoisonBudget::keys(volume))?;
    Ok((plan.final_mse(), plan.keys))
}

/// Evaluates the exchange across boundary `i`/`i+1`.
///
/// `slot_right` = `true` is the paper's `i → i+1` (a poison slot moves
/// right, the boundary legit key moves left); `false` is `i ← i+1`.
/// Returns `None` when the exchange is infeasible (donor out of slots,
/// receiver at the threshold, or a partition would shrink below 2 keys).
fn eval_exchange(
    keys: &[Key],
    states: &[ModelState],
    i: usize,
    slot_right: bool,
    threshold: usize,
) -> Result<Option<ExchangeEval>> {
    let a = &states[i];
    let b = &states[i + 1];
    let (donor, receiver) = if slot_right { (a, b) } else { (b, a) };
    if donor.volume == 0 || receiver.volume + 1 > threshold {
        return Ok(None);
    }
    // The key donor is the model *receiving* the poison slot's neighbour:
    // for i → i+1 the smallest legit key of i+1 moves into i, so i+1 must
    // keep ≥ 2 keys; mirrored otherwise.
    let key_donor = if slot_right { b } else { a };
    if key_donor.end - key_donor.start < 3 {
        return Ok(None);
    }

    let (new_a_range, new_b_range) = if slot_right {
        ((a.start, a.end + 1), (b.start + 1, b.end))
    } else {
        ((a.start, a.end - 1), (b.start - 1, b.end))
    };
    let (new_a_vol, new_b_vol) = if slot_right {
        (a.volume - 1, b.volume + 1)
    } else {
        (a.volume + 1, b.volume - 1)
    };

    let (loss_a, poison_a) = eval_model(&keys[new_a_range.0..new_a_range.1], new_a_vol)?;
    let (loss_b, poison_b) = eval_model(&keys[new_b_range.0..new_b_range.1], new_b_vol)?;
    let delta = loss_a + loss_b - a.loss - b.loss;

    // Orient src/dst so `apply` can read them positionally: src = model
    // losing the slot, dst = model gaining it.
    let (new_loss_src, new_loss_dst, new_poison_src, new_poison_dst) = if slot_right {
        (loss_a, loss_b, poison_a, poison_b)
    } else {
        (loss_b, loss_a, poison_b, poison_a)
    };
    Ok(Some(ExchangeEval {
        delta,
        new_loss_src,
        new_loss_dst,
        new_poison_src,
        new_poison_dst,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step).collect()).unwrap()
    }

    /// Keys with a skew reminiscent of log-normal data: quadratic spacing.
    fn skewed(n: u64) -> KeySet {
        KeySet::from_keys((1..=n).map(|i| i * i).collect()).unwrap()
    }

    #[test]
    fn validates_config() {
        let ks = uniform(100, 7);
        assert!(rmi_attack(&ks, 0, &RmiAttackConfig::new(10.0)).is_err());
        assert!(rmi_attack(&ks, 101, &RmiAttackConfig::new(10.0)).is_err());
        assert!(rmi_attack(&ks, 10, &RmiAttackConfig::new(30.0)).is_err());
        assert!(rmi_attack(&ks, 10, &RmiAttackConfig::new(10.0).with_alpha(0.5)).is_err());
    }

    #[test]
    fn attack_increases_rmi_loss_on_uniform_data() {
        let ks = uniform(500, 9);
        let res = rmi_attack(&ks, 10, &RmiAttackConfig::new(10.0)).unwrap();
        assert!(res.poisoned_rmi_loss > res.clean_rmi_loss);
        assert!(res.rmi_ratio() > 1.0);
    }

    #[test]
    fn budget_is_respected() {
        let ks = uniform(400, 11);
        let cfg = RmiAttackConfig::new(10.0);
        let res = rmi_attack(&ks, 8, &cfg).unwrap();
        let budget = (0.10 * 400.0) as usize;
        assert!(res.total_poison <= budget);
        // Uniform sparse data never saturates: exact placement expected.
        assert_eq!(res.total_poison, budget);
        // Per-model threshold t = ceil(α·φn/N) = ceil(3·40/8) = 15.
        for m in &res.models {
            assert!(
                m.poison.len() <= 15,
                "model over threshold: {}",
                m.poison.len()
            );
        }
    }

    #[test]
    fn poison_keys_are_fresh_and_in_range() {
        let ks = uniform(300, 13);
        let res = rmi_attack(&ks, 6, &RmiAttackConfig::new(8.0)).unwrap();
        let poisoned = res.poisoned_keyset(&ks).unwrap();
        assert_eq!(poisoned.len(), ks.len() + res.total_poison);
        for m in &res.models {
            let lo = *m.legit.first().unwrap();
            let hi = *m.legit.last().unwrap();
            for &p in &m.poison {
                assert!(
                    p > lo && p < hi,
                    "poison {p} outside model span [{lo}, {hi}]"
                );
                assert!(!ks.contains(p));
            }
        }
    }

    #[test]
    fn exchanges_never_hurt() {
        // The greedy exchange loop only applies strictly-improving moves,
        // so the final loss must be ≥ the uniform-allocation loss.
        let ks = skewed(400);
        let uniform_alloc =
            rmi_attack(&ks, 8, &RmiAttackConfig::new(10.0).with_max_exchanges(0)).unwrap();
        let exchanged = rmi_attack(&ks, 8, &RmiAttackConfig::new(10.0)).unwrap();
        assert!(
            exchanged.poisoned_rmi_loss >= uniform_alloc.poisoned_rmi_loss - 1e-9,
            "exchanges hurt: {} < {}",
            exchanged.poisoned_rmi_loss,
            uniform_alloc.poisoned_rmi_loss
        );
    }

    #[test]
    fn legit_key_count_is_preserved() {
        let ks = skewed(300);
        let res = rmi_attack(&ks, 6, &RmiAttackConfig::new(10.0)).unwrap();
        let total_legit: usize = res.models.iter().map(|m| m.legit.len()).sum();
        assert_eq!(total_legit, ks.len());
        // Partitions stay contiguous and ordered.
        let mut merged = Vec::new();
        for m in &res.models {
            merged.extend_from_slice(&m.legit);
        }
        assert_eq!(merged, ks.keys());
    }

    #[test]
    fn higher_percentage_higher_loss() {
        let ks = uniform(400, 17);
        let low = rmi_attack(&ks, 8, &RmiAttackConfig::new(1.0)).unwrap();
        let high = rmi_attack(&ks, 8, &RmiAttackConfig::new(10.0)).unwrap();
        assert!(
            high.poisoned_rmi_loss > low.poisoned_rmi_loss,
            "10% {} should beat 1% {}",
            high.poisoned_rmi_loss,
            low.poisoned_rmi_loss
        );
    }

    /// Every field of two results, losses compared bit for bit.
    fn assert_bit_identical(a: &RmiAttackResult, b: &RmiAttackResult, what: &str) {
        assert_eq!(a.models.len(), b.models.len(), "{what}: model count");
        for (i, (x, y)) in a.models.iter().zip(&b.models).enumerate() {
            assert_eq!(x.legit, y.legit, "{what}: model {i} legit");
            assert_eq!(x.poison, y.poison, "{what}: model {i} poison");
            assert_eq!(
                x.poisoned_loss.to_bits(),
                y.poisoned_loss.to_bits(),
                "{what}: model {i} poisoned loss"
            );
            assert_eq!(
                x.clean_loss.to_bits(),
                y.clean_loss.to_bits(),
                "{what}: model {i} clean loss"
            );
        }
        assert_eq!(
            a.clean_rmi_loss.to_bits(),
            b.clean_rmi_loss.to_bits(),
            "{what}"
        );
        assert_eq!(
            a.poisoned_rmi_loss.to_bits(),
            b.poisoned_rmi_loss.to_bits(),
            "{what}"
        );
        assert_eq!(a.exchanges_applied, b.exchanges_applied, "{what}");
        assert_eq!(a.total_poison, b.total_poison, "{what}");
    }

    #[test]
    fn fan_out_is_bit_identical_at_every_worker_count() {
        // Keys 0..200 leave no free slot, so the head models saturate.
        let dense_head = KeySet::from_keys(
            (0..200u64)
                .chain((1..=300u64).map(|i| 200 + i * i))
                .collect(),
        )
        .unwrap();
        let cases = [
            // n % N = 6 and budget % N = 1.
            ("uniform", uniform(503, 9), 7, RmiAttackConfig::new(10.0)),
            // n % N = 8 and budget % N = 7.
            ("skewed", skewed(611), 9, RmiAttackConfig::new(10.0)),
            // One slot per model and t = 3: receivers fill up, donors empty.
            ("dry", skewed(400), 40, RmiAttackConfig::new(10.0)),
            ("dense head", dense_head, 10, RmiAttackConfig::new(10.0)),
            // No boundary, so no CHANGELOSS entry.
            ("one model", skewed(150), 1, RmiAttackConfig::new(10.0)),
            (
                "no exchanges",
                skewed(300),
                6,
                RmiAttackConfig::new(10.0).with_max_exchanges(0),
            ),
        ];
        for (name, ks, models, cfg) in &cases {
            let serial = rmi_attack_on(ks, *models, cfg, 1).unwrap();
            for threads in [0, 2, 3, models + 5] {
                let fanned = rmi_attack_on(ks, *models, cfg, threads).unwrap();
                assert_bit_identical(&serial, &fanned, &format!("{name}, {threads} threads"));
            }
        }
        let dry = rmi_attack_on(&cases[2].1, 40, &cases[2].3, 1).unwrap();
        assert!(dry.exchanges_applied > 0);
        assert!(
            dry.models.iter().any(|m| m.poison.is_empty()),
            "no donor ran dry"
        );
        assert!(
            dry.models.iter().any(|m| m.poison.len() == 3),
            "no receiver hit t"
        );
    }

    #[test]
    fn zero_percent_is_identity() {
        // Skewed keys: clean per-model losses are non-zero, so the ratio is
        // a meaningful 1.0 rather than an epsilon-guard artefact.
        let ks = skewed(200);
        let res = rmi_attack(&ks, 4, &RmiAttackConfig::new(0.0)).unwrap();
        assert_eq!(res.total_poison, 0);
        assert!((res.rmi_ratio() - 1.0).abs() < 1e-9);
        assert_eq!(res.exchanges_applied, 0);
    }
}
