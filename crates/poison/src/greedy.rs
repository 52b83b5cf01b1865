//! Greedy multiple-point poisoning (Algorithm 1,
//! `GreedyPoisoningRegressionCDF`).
//!
//! The attack inserts `p` poisoning keys one at a time; each iteration runs
//! the optimal single-point attack against the keyset *as poisoned so far*
//! (legitimate ∪ previously chosen poison keys) and commits the
//! loss-maximising key. The paper does not prove global optimality of the
//! greedy composition but reports that it matched brute force on every
//! tested dataset — the `abl-bruteforce` entry of `lis::figures` and the
//! property tests below reproduce that observation.
//!
//! ## Engines
//!
//! Both engines run on an [`IncrementalOracle`] (moments maintained under
//! insertion, no per-step rebuild) and start from the same gap table:
//!
//! * [`greedy_poison`] — **exact** Algorithm 1. Each step is one fused
//!   scan of the gap table: it folds the previous step's accepted key into
//!   every gap's cached rank or suffix sum, then scores the gap's two
//!   endpoints as one two-lane call of the oracle's insertion scorer, and
//!   keeps the first maximum in ascending key order. A candidate costs
//!   four divides, the floor for losses bit-identical to
//!   `lis_core::linreg::optimal_mse`; the campaign is `O(n + p·g)` for
//!   `g` gaps;
//! * [`greedy_poison_lazy`] — the CELF-style lazy variant: candidates live
//!   in a max-heap keyed by their most recent evaluation and are
//!   re-evaluated only when they surface, taking the campaign toward
//!   `O(n + p·log n)`. Loss landscapes drift as poison accumulates, so a
//!   stale priority is a (tight, empirically reliable) estimate rather
//!   than a proven bound: the lazy campaign is *near-exact* —
//!   `tests/property_buildpath.rs` holds its final loss against the exact
//!   engine — and exists for build-plane sweeps where campaign generation
//!   dominates wall-clock.
//!
//! ## The gap table
//!
//! One 32-byte entry per interior gap (the paper restricts candidates to
//! the keyset's open span): the endpoints `lo` and `hi`, the 1-based rank
//! a key inserted in the gap takes, kept as an `f64` (exact below 2⁵³),
//! and the shifted-key sum of every current key above the gap. One
//! reverse pass over the keys builds it and accumulates the suffix sums
//! on the way, so the table holds the gaps in descending key order and
//! the exact scan walks it back to front. A gap whose last free key is
//! taken stays in place as a tombstone (`lo > hi`) that scans skip:
//! entries never move, so an accepted key's entry splits the table into
//! the gaps above it and the gaps below it.
//!
//! The unit tests keep two references: the loop that rebuilds the oracle
//! and re-enumerates the gaps every step, and the unfused exact loop (a
//! rank/suffix update sweep after every step, exhausted gaps removed),
//! which the exact engine must match bit for bit.

use crate::oracle::{IncrementalOracle, InsertScorer};
use lis_core::error::{LisError, Result};
use lis_core::keys::{Key, KeySet};
use lis_core::linreg::{key_to_f64, signed_conversion_is_exact};
use std::collections::BinaryHeap;

/// Poisoning budget expressed the way the paper parameterizes experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoisonBudget {
    /// Number of poisoning keys to insert.
    pub count: usize,
}

impl PoisonBudget {
    /// Budget as an absolute key count.
    pub fn keys(count: usize) -> Self {
        Self { count }
    }

    /// Budget as a percentage of the legitimate key count, e.g.
    /// `percentage(10.0, n)` for the paper's "10% poisoning". Rounds down.
    /// Errors when the percentage is negative or exceeds the paper's 20%
    /// allowable maximum (Section III-C).
    pub fn percentage(percent: f64, n: usize) -> Result<Self> {
        if !(0.0..=20.0).contains(&percent) {
            return Err(LisError::InvalidBudget(format!(
                "poisoning percentage {percent} outside [0, 20]"
            )));
        }
        Ok(Self {
            count: (percent / 100.0 * n as f64).floor() as usize,
        })
    }
}

/// Result of the greedy multi-point attack.
#[derive(Debug, Clone)]
pub struct GreedyPlan {
    /// Chosen poisoning keys, in insertion order.
    pub keys: Vec<Key>,
    /// MSE after each insertion (`losses[i]` = loss with `i + 1` poison
    /// keys); useful for plotting attack progress.
    pub losses: Vec<f64>,
    /// MSE of the regression on the clean keyset.
    pub clean_mse: f64,
}

impl GreedyPlan {
    /// Final poisoned MSE (clean MSE when the budget was zero).
    pub fn final_mse(&self) -> f64 {
        self.losses.last().copied().unwrap_or(self.clean_mse)
    }

    /// Final Ratio Loss.
    pub fn ratio_loss(&self) -> f64 {
        lis_core::metrics::ratio_loss(self.final_mse(), self.clean_mse)
    }

    /// The poisoned keyset `K ∪ P`.
    pub fn poisoned_keyset(&self, clean: &KeySet) -> Result<KeySet> {
        let mut out = clean.clone();
        out.insert_all(self.keys.iter().copied())?;
        Ok(out)
    }
}

/// One maximal run of unoccupied keys in the *current* (poisoned-so-far)
/// keyset, with the cached per-gap attack state: a key inserted in the
/// gap takes the 1-based rank `rank`, and `suffix` is the shifted-key sum
/// of every current key strictly above the gap (the interior is empty,
/// so both are shared by the gap's two candidate endpoints). `lo > hi`
/// marks an exhausted gap.
#[derive(Debug, Clone, Copy)]
struct Gap {
    lo: Key,
    hi: Key,
    rank: f64,
    suffix: f64,
}

impl Gap {
    fn is_live(&self) -> bool {
        self.lo <= self.hi
    }

    /// Takes `kp` (one of the endpoints) out of the gap; returns `false`
    /// when that exhausts it.
    fn consume(&mut self, kp: Key) -> bool {
        if kp == self.lo {
            self.lo += 1;
        } else {
            debug_assert_eq!(kp, self.hi);
            self.hi -= 1;
        }
        self.is_live()
    }
}

/// Builds the gap table (interior gaps only, as the paper restricts
/// candidates) in one reverse pass over `keys`, which accumulates the
/// suffix sums as it goes: the table comes out in descending key order.
fn gap_table<const SIGNED: bool>(keys: &[Key], shift: f64) -> Vec<Gap> {
    let mut gaps = Vec::with_capacity(keys.len() - 1);
    let mut suffix = 0.0;
    for i in (1..keys.len()).rev() {
        // suffix = Σ_{j ≥ i} (keys[j] − shift): every key above the gap
        // between keys[i − 1] and keys[i], which i keys lie below.
        suffix += key_to_f64::<SIGNED>(keys[i]) - shift;
        if keys[i] - keys[i - 1] > 1 {
            gaps.push(Gap {
                lo: keys[i - 1] + 1,
                hi: keys[i] - 1,
                rank: (i + 1) as f64,
                suffix,
            });
        }
    }
    gaps
}

/// Runs Algorithm 1: greedily inserts `budget.count` poisoning keys, each
/// step committing the exact loss-maximising gap endpoint.
///
/// Stops early (without error) if the keyset runs out of unoccupied
/// in-range slots, mirroring a real attacker hitting a saturated region;
/// the returned plan then holds fewer keys than requested.
pub fn greedy_poison(ks: &KeySet, budget: PoisonBudget) -> Result<GreedyPlan> {
    if ks.len() < 2 {
        return Err(LisError::DegenerateRegression { n: ks.len() });
    }
    greedy_poison_sorted(ks.keys(), budget)
}

/// [`greedy_poison`] over an already-sorted, duplicate-free slice — the
/// zero-copy entry point the RMI attack's per-leaf loops call (no interim
/// [`KeySet`] construction).
pub fn greedy_poison_sorted(keys: &[Key], budget: PoisonBudget) -> Result<GreedyPlan> {
    if keys.len() < 2 {
        return Err(LisError::DegenerateRegression { n: keys.len() });
    }
    if signed_conversion_is_exact(keys) {
        greedy_exact::<true>(keys, budget)
    } else {
        greedy_exact::<false>(keys, budget)
    }
}

/// The best endpoint a scan has seen so far.
struct Best {
    loss: f64,
    /// Table index of its gap; `usize::MAX` until a live gap is scored.
    index: usize,
    key: Key,
}

/// The exact engine, with keys converted through [`key_to_f64`].
fn greedy_exact<const SIGNED: bool>(keys: &[Key], budget: PoisonBudget) -> Result<GreedyPlan> {
    let mut oracle = IncrementalOracle::from_sorted_keys(keys);
    let clean_mse = oracle.clean_mse();
    let mut chosen = Vec::with_capacity(budget.count);
    let mut losses = Vec::with_capacity(budget.count);
    if budget.count == 0 {
        return Ok(GreedyPlan {
            keys: chosen,
            losses,
            clean_mse,
        });
    }
    let shift = oracle.shift();
    let mut gaps = gap_table::<SIGNED>(keys, shift);
    // The previous step's accepted key, not yet folded into the table:
    // `gaps[..split]` lie above it and `gaps[split..]` below it, and `xp`
    // is its shifted value.
    let mut pending: Option<(usize, f64)> = None;

    for _ in 0..budget.count {
        let scorer = oracle.insert_scorer();
        let mut best = Best {
            loss: f64::NEG_INFINITY,
            index: usize::MAX,
            key: 0,
        };
        // Ascending key order: the table's back (the low gaps) first.
        match pending {
            None => scan::<SIGNED>(&mut gaps, 0, &scorer, shift, |_| {}, &mut best),
            Some((split, xp)) => {
                let (above, below) = gaps.split_at_mut(split);
                scan::<SIGNED>(below, split, &scorer, shift, |g| g.suffix += xp, &mut best);
                scan::<SIGNED>(above, 0, &scorer, shift, |g| g.rank += 1.0, &mut best);
            }
        }
        if best.index == usize::MAX {
            break;
        }
        let kp = best.key;
        oracle.insert(kp)?;
        let gap = &mut gaps[best.index];
        // What is left of the winner's gap lies above `kp` exactly when
        // `kp` was its low endpoint.
        let left_above = kp == gap.lo;
        gap.consume(kp);
        let split = best.index + usize::from(left_above);
        pending = Some((split, key_to_f64::<SIGNED>(kp) - shift));
        chosen.push(kp);
        losses.push(best.loss);
    }
    Ok(GreedyPlan {
        keys: chosen,
        losses,
        clean_mse,
    })
}

/// Gaps an exact scan scores per batch. A batch's losses go to a stack
/// buffer, so the scoring loop carries no argmax from gap to gap and the
/// divides of neighbouring gaps overlap; only a batch whose best loss
/// beats the running best is walked again, in key order.
const SCAN_BATCH: usize = 64;

/// One part of an exact step's scan over `region`, the table entries
/// from index `offset` on: applies `update` to every entry, scores every
/// live gap's two endpoints, and folds them into `best` in ascending key
/// order (the table is descending, so back to front) under the strict
/// `>`, so ties keep the lowest key.
#[inline(always)]
fn scan<const SIGNED: bool>(
    region: &mut [Gap],
    offset: usize,
    scorer: &InsertScorer,
    shift: f64,
    update: impl Fn(&mut Gap),
    best: &mut Best,
) {
    let mut losses = [[0.0; 2]; SCAN_BATCH];
    let mut end = region.len();
    for batch in region.rchunks_mut(SCAN_BATCH) {
        let start = end - batch.len();
        end = start;
        // An exhausted gap is scored too, on stale endpoints; the walk
        // below skips it, and it can only cause a needless walk.
        let mut top = [f64::NEG_INFINITY; 2];
        for (gap, pair) in batch.iter_mut().zip(&mut losses) {
            update(gap);
            let x = [gap.lo, gap.hi].map(|k| key_to_f64::<SIGNED>(k) - shift);
            *pair = scorer.losses(x, gap.rank, gap.suffix);
            for lane in 0..2 {
                if pair[lane] > top[lane] {
                    top[lane] = pair[lane];
                }
            }
        }
        if top[0] <= best.loss && top[1] <= best.loss {
            continue;
        }
        for (i, (gap, &[lo_loss, hi_loss])) in batch.iter().zip(&losses).enumerate().rev() {
            if !gap.is_live() {
                continue;
            }
            if lo_loss > best.loss {
                *best = Best {
                    loss: lo_loss,
                    index: offset + start + i,
                    key: gap.lo,
                };
            }
            // A one-key gap scores the same key twice; the strict `>`
            // keeps the first.
            if hi_loss > best.loss {
                *best = Best {
                    loss: hi_loss,
                    index: offset + start + i,
                    key: gap.hi,
                };
            }
        }
    }
}

/// Max-heap entry of the lazy engine: priority is the candidate loss
/// (non-negative, so the raw bit pattern orders exactly like the float),
/// ties broken toward the lowest slab id (ascending key order, matching
/// the exact engine's first-maximum rule as far as a heap can).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LazyEntry {
    loss_bits: u64,
    /// Slab index of the gap this entry scores.
    id: u32,
    /// Gap mutation stamp at evaluation time; a mismatch means stale.
    stamp: u32,
    /// Step counter at evaluation time.
    epoch: u32,
    /// The winning endpoint at evaluation time.
    key: Key,
}

impl Ord for LazyEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.loss_bits
            .cmp(&other.loss_bits)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for LazyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The CELF-style lazy greedy campaign: same gap candidates as
/// [`greedy_poison`], but instead of re-scanning every gap per step,
/// candidates sit in a max-heap under their last-evaluated loss and are
/// re-evaluated lazily — pop the top, refresh it against the current
/// moments, and accept once the freshest evaluation still leads the heap.
/// Accepted points update the oracle incrementally, so a full campaign
/// runs in `O(n + p·(log n + R·B))` where `R` is the (empirically small)
/// number of refreshes per step and `B` the sorted-block query cost.
///
/// Near-exact, not proven-exact: a stale priority may underestimate a
/// competitor that poison drift has since promoted, and once the
/// campaign commits to a slightly-suboptimal cluster the trajectories
/// diverge. Measured final losses sit within a few percent of the exact
/// engine (typically <1% on uniform/normal shapes, up to ~3% on the
/// saturated lognormal head; `tests/property_buildpath.rs` holds the gap
/// under 5%). Use [`greedy_poison`] when
/// exact Algorithm-1 semantics matter more than build-plane wall-clock.
pub fn greedy_poison_lazy(ks: &KeySet, budget: PoisonBudget) -> Result<GreedyPlan> {
    if ks.len() < 2 {
        return Err(LisError::DegenerateRegression { n: ks.len() });
    }
    let keys = ks.keys();
    let mut oracle = IncrementalOracle::from_sorted_keys(keys);
    let clean_mse = oracle.clean_mse();
    let shift = oracle.shift();

    // Slab of live gaps (stable ids for heap entries, assigned in
    // ascending key order) + initial heap fill from the gap table the
    // exact engine starts from: every initial candidate is evaluated
    // in O(1) against the table's cached rank/suffix, and the heap is
    // built by one O(n) heapify instead of n pushes.
    let gaps = if signed_conversion_is_exact(keys) {
        gap_table::<true>(keys, shift)
    } else {
        gap_table::<false>(keys, shift)
    };
    let scorer = oracle.insert_scorer();
    let mut slab: Vec<Option<(Gap, u32)>> = Vec::with_capacity(gaps.len());
    let mut entries: Vec<LazyEntry> = Vec::with_capacity(gaps.len());
    for gap in gaps.into_iter().rev() {
        let id = slab.len() as u32;
        let x = [gap.lo, gap.hi].map(|k| k as f64 - shift);
        let [lo_loss, hi_loss] = scorer.losses(x, gap.rank, gap.suffix);
        let (key, loss) = if hi_loss > lo_loss {
            (gap.hi, hi_loss)
        } else {
            (gap.lo, lo_loss)
        };
        slab.push(Some((gap, 0)));
        entries.push(LazyEntry {
            loss_bits: loss.to_bits(),
            id,
            stamp: 0,
            epoch: 0,
            key,
        });
    }
    let mut heap: BinaryHeap<LazyEntry> = BinaryHeap::from(entries);

    let mut chosen = Vec::with_capacity(budget.count);
    let mut losses = Vec::with_capacity(budget.count);
    'campaign: for step in 1..=budget.count {
        let epoch = step as u32;

        // Force-refresh the top few *stale* live entries before trusting
        // the heap order: compound-effect losses grow as poison
        // accumulates (the marginal gains are super-, not sub-modular),
        // so stale priorities systematically underestimate and a pure
        // CELF accept would chase yesterday's landscape.
        let mut stash: Vec<LazyEntry> = Vec::new();
        let mut refreshed = 0usize;
        while refreshed < LAZY_FORCED_REFRESH {
            let Some(top) = heap.pop() else { break };
            let Some((gap, stamp)) = slab[top.id as usize] else {
                continue; // gap exhausted since this entry was pushed
            };
            if stamp != top.stamp {
                continue; // superseded by a fresher entry for this gap
            }
            if top.epoch == epoch {
                stash.push(top); // already current; keep it aside
                continue;
            }
            let (key, loss) = best_endpoint(&oracle, &gap);
            heap.push(LazyEntry {
                loss_bits: loss.to_bits(),
                id: top.id,
                stamp,
                epoch,
                key,
            });
            refreshed += 1;
        }
        heap.extend(stash);

        let accepted = loop {
            let Some(&top) = heap.peek() else {
                break 'campaign; // saturated: no candidates left anywhere
            };
            let Some((gap, stamp)) = slab[top.id as usize] else {
                heap.pop(); // gap exhausted since this entry was pushed
                continue;
            };
            if stamp != top.stamp {
                heap.pop(); // superseded by a fresher entry for this gap
                continue;
            }
            if top.epoch == epoch {
                heap.pop();
                break top; // freshest evaluation still leads: commit
            }
            // Refresh against the current moments and re-queue.
            heap.pop();
            let (key, loss) = best_endpoint(&oracle, &gap);
            heap.push(LazyEntry {
                loss_bits: loss.to_bits(),
                id: top.id,
                stamp,
                epoch,
                key,
            });
        };

        let kp = accepted.key;
        oracle.insert(kp)?;
        let (mut gap, stamp) = slab[accepted.id as usize].take().expect("live gap");
        if gap.consume(kp) {
            slab[accepted.id as usize] = Some((gap, stamp + 1));
        }
        // Greedy poison clusters (Figure 4): after an insertion, the next
        // argmax is overwhelmingly the same gap or a key-space neighbour,
        // whose losses just jumped. Re-evaluate the shrunk gap and the
        // nearest live gaps on both sides against the post-insert moments
        // and queue them as already-fresh for the next step — without
        // this, the hottest candidates sit buried under pre-insert
        // priorities (gap ids are assigned in ascending key order and
        // gaps only shrink, so id-adjacency is key-adjacency).
        for id in neighbourhood(&slab, accepted.id as usize) {
            let (gap, stamp) = slab[id].expect("neighbourhood yields live gaps");
            let (key, loss) = best_endpoint(&oracle, &gap);
            heap.push(LazyEntry {
                loss_bits: loss.to_bits(),
                id: id as u32,
                stamp,
                epoch: epoch + 1,
                key,
            });
        }
        chosen.push(kp);
        losses.push(f64::from_bits(accepted.loss_bits));
    }
    Ok(GreedyPlan {
        keys: chosen,
        losses,
        clean_mse,
    })
}

/// Stale entries force-refreshed per lazy step before the heap order is
/// trusted (see [`greedy_poison_lazy`]).
const LAZY_FORCED_REFRESH: usize = 3;

/// Live gaps re-evaluated around an accepted insertion, per side.
const LAZY_NEIGHBOURHOOD: usize = 6;

/// The accepted gap (if still live) plus up to [`LAZY_NEIGHBOURHOOD`] live
/// gaps on each side in id (= key) order.
fn neighbourhood(slab: &[Option<(Gap, u32)>], centre: usize) -> Vec<usize> {
    let mut ids = Vec::with_capacity(2 * LAZY_NEIGHBOURHOOD + 1);
    if slab[centre].is_some() {
        ids.push(centre);
    }
    let mut found = 0usize;
    for id in (0..centre).rev() {
        if found == LAZY_NEIGHBOURHOOD {
            break;
        }
        if slab[id].is_some() {
            ids.push(id);
            found += 1;
        }
    }
    let mut found = 0usize;
    for (off, slot) in slab[centre + 1..].iter().enumerate() {
        if found == LAZY_NEIGHBOURHOOD {
            break;
        }
        if slot.is_some() {
            ids.push(centre + 1 + off);
            found += 1;
        }
    }
    ids
}

/// Evaluates both endpoints of `gap` against the oracle's *current*
/// moments, querying rank and suffix from the sorted blocks (the gap
/// interior is empty, so one rank/suffix pair serves both endpoints).
fn best_endpoint(oracle: &IncrementalOracle, gap: &Gap) -> (Key, f64) {
    #[cfg(test)]
    tests::REFRESHES.with(|n| n.set(n.get() + 1));
    let idx = oracle.rank_below(gap.lo);
    let suffix = oracle.suffix_sum_above(gap.hi);
    let lo_loss = oracle.loss_insert_with(gap.lo, idx, suffix);
    if gap.hi == gap.lo {
        return (gap.lo, lo_loss);
    }
    let hi_loss = oracle.loss_insert_with(gap.hi, idx, suffix);
    if hi_loss > lo_loss {
        (gap.hi, hi_loss)
    } else {
        (gap.lo, lo_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::optimal_single_point_with;
    use crate::PoisonOracle;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// `best_endpoint` calls on this thread: every gap evaluation the
        /// lazy engine makes after its initial heap fill.
        pub(super) static REFRESHES: Cell<usize> = const { Cell::new(0) };
    }

    fn uniform(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step).collect()).unwrap()
    }

    /// The pre-optimization greedy loop — oracle rebuilt from scratch and
    /// gaps re-enumerated on every step, the keyset re-sorted-inserted per
    /// accepted point: the `O(p·n)` reference the exact engine must match.
    fn greedy_poison_reference(ks: &KeySet, budget: PoisonBudget) -> Result<GreedyPlan> {
        if ks.len() < 2 {
            return Err(LisError::DegenerateRegression { n: ks.len() });
        }
        let clean_mse = PoisonOracle::new(ks).clean_mse();
        let mut current = ks.clone();
        let mut keys = Vec::with_capacity(budget.count);
        let mut losses = Vec::with_capacity(budget.count);
        for _ in 0..budget.count {
            let oracle = PoisonOracle::new(&current);
            match optimal_single_point_with(&current, &oracle) {
                Ok(plan) => {
                    current.insert(plan.key)?;
                    keys.push(plan.key);
                    losses.push(plan.poisoned_mse);
                }
                Err(LisError::NoPoisoningCandidates) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(GreedyPlan {
            keys,
            losses,
            clean_mse,
        })
    }

    /// One gap of the unfused exact loop, with its rank as a `usize`
    /// insertion index.
    #[derive(Debug, Clone, Copy)]
    struct GapState {
        lo: Key,
        hi: Key,
        idx: usize,
        suffix: f64,
    }

    /// The exact engine without the fused scan: a `Vec<GapState>` in
    /// ascending key order built from a `suffix_from` array, every endpoint
    /// scored on its own, one more sweep per accepted point to update every
    /// cached rank and suffix, and exhausted gaps removed. The engine must
    /// match it bit for bit.
    fn greedy_poison_unfused(keys: &[Key], budget: PoisonBudget) -> Result<GreedyPlan> {
        let mut oracle = IncrementalOracle::from_sorted_keys(keys);
        let clean_mse = oracle.clean_mse();
        let shift = oracle.shift();
        let n = keys.len();
        let mut suffix_from = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix_from[i] = suffix_from[i + 1] + (keys[i] as f64 - shift);
        }
        let mut gaps = Vec::new();
        for (i, w) in keys.windows(2).enumerate() {
            if w[1] - w[0] > 1 {
                gaps.push(GapState {
                    lo: w[0] + 1,
                    hi: w[1] - 1,
                    idx: i + 1,
                    suffix: suffix_from[i + 1],
                });
            }
        }
        let mut chosen = Vec::new();
        let mut losses = Vec::new();
        for _ in 0..budget.count {
            let mut best: Option<(usize, Key, f64)> = None;
            for (gi, gap) in gaps.iter().enumerate() {
                let lo_loss = oracle.loss_insert_with(gap.lo, gap.idx, gap.suffix);
                if best.is_none_or(|(_, _, b)| lo_loss > b) {
                    best = Some((gi, gap.lo, lo_loss));
                }
                if gap.hi != gap.lo {
                    let hi_loss = oracle.loss_insert_with(gap.hi, gap.idx, gap.suffix);
                    if best.is_none_or(|(_, _, b)| hi_loss > b) {
                        best = Some((gi, gap.hi, hi_loss));
                    }
                }
            }
            let Some((gi, kp, loss)) = best else { break };
            oracle.insert(kp)?;
            let gap = &mut gaps[gi];
            if kp == gap.lo {
                gap.lo += 1;
            } else {
                gap.hi -= 1;
            }
            if gap.lo > gap.hi {
                gaps.remove(gi);
            }
            let xp = kp as f64 - shift;
            for gap in &mut gaps {
                if gap.lo > kp {
                    gap.idx += 1;
                } else {
                    gap.suffix += xp;
                }
            }
            chosen.push(kp);
            losses.push(loss);
        }
        Ok(GreedyPlan {
            keys: chosen,
            losses,
            clean_mse,
        })
    }

    /// A standard normal draw (Box–Muller).
    fn normal(rng: &mut TestRng) -> f64 {
        let u = 1.0 - rng.unit_f64();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * rng.unit_f64()).cos()
    }

    /// `n` draws of one keyset shape, deduplicated and sorted, and a budget
    /// large enough to run the shape's saturated case out of free slots.
    fn shaped_keys(shape: usize, n: usize, rng: &mut TestRng) -> (Vec<Key>, usize) {
        let top = i64::MAX as Key;
        let draw = |rng: &mut TestRng| -> Key {
            match shape {
                0 => rng.below(10 * n as u64),
                1 => (1e6 + 1e4 * normal(rng)).round().max(0.0) as Key,
                2 => (10.0 + 1.5 * normal(rng)).exp().round() as Key,
                3 => 1 + rng.below(n as u64).pow(2),
                4 => rng.below(n as u64 + n as u64 / 8 + 2),
                _ => top - 5 * n as u64 + rng.below(10 * n as u64),
            }
        };
        let keys: BTreeSet<Key> = (0..n).map(|_| draw(rng)).collect();
        let keys: Vec<Key> = keys.into_iter().collect();
        let free = (keys[keys.len() - 1] - keys[0] + 1) as usize - keys.len();
        (keys, free.min(60) + 3)
    }

    proptest! {
        #[test]
        fn exact_engine_matches_the_unfused_loop_bit_for_bit(
            seed in 0u64..u64::MAX,
            shape in 0usize..6,
            n in 2usize..300,
            budget in 0usize..3,
        ) {
            let (keys, many) = shaped_keys(shape, n, &mut TestRng::new(seed));
            prop_assume!(keys.len() >= 2);
            let budget = PoisonBudget::keys([0, 1, many][budget]);
            let fused = greedy_poison_sorted(&keys, budget).unwrap();
            let unfused = greedy_poison_unfused(&keys, budget).unwrap();
            prop_assert_eq!(&fused.keys, &unfused.keys, "shape {} keys {:?}", shape, keys);
            prop_assert_eq!(fused.clean_mse.to_bits(), unfused.clean_mse.to_bits());
            let bits = |plan: &GreedyPlan| plan.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&fused), bits(&unfused), "shape {}", shape);
        }
    }

    #[test]
    fn shaped_keys_cover_saturation_and_the_signed_limit() {
        // The property above must see its edge cases: a saturated shape
        // whose budget outruns its free slots (tombstones, early stop) and
        // keysets on both sides of i64::MAX.
        let mut rng = TestRng::new(7);
        let (tiny, many) = shaped_keys(4, 50, &mut rng);
        let plan = greedy_poison_sorted(&tiny, PoisonBudget::keys(many)).unwrap();
        assert!(plan.keys.len() < many, "{} of {many}", plan.keys.len());
        let (high, _) = shaped_keys(5, 200, &mut rng);
        let top = i64::MAX as Key;
        assert!(high[0] <= top && high[high.len() - 1] > top);
    }

    #[test]
    fn budget_percentage() {
        let b = PoisonBudget::percentage(10.0, 90).unwrap();
        assert_eq!(b.count, 9);
        assert!(PoisonBudget::percentage(25.0, 100).is_err());
        assert!(PoisonBudget::percentage(-1.0, 100).is_err());
        assert_eq!(PoisonBudget::percentage(0.0, 100).unwrap().count, 0);
    }

    #[test]
    fn zero_budget_is_identity() {
        // Quadratic spacing so the clean loss is safely above the epsilon
        // guard and the ratio is a meaningful 1.0.
        let ks = KeySet::from_keys((1..50u64).map(|i| i * i).collect()).unwrap();
        let plan = greedy_poison(&ks, PoisonBudget::keys(0)).unwrap();
        assert!(plan.keys.is_empty());
        assert_eq!(plan.final_mse(), plan.clean_mse);
        assert_eq!(plan.ratio_loss(), 1.0);
    }

    #[test]
    fn losses_are_monotone_nondecreasing() {
        // Each greedy step picks the max-loss insertion; with more poison
        // the optimal refit loss cannot drop below the previous step's
        // chosen value on these workloads.
        let ks = uniform(90, 5);
        let plan = greedy_poison(&ks, PoisonBudget::keys(10)).unwrap();
        assert_eq!(plan.keys.len(), 10);
        for w in plan.losses.windows(2) {
            assert!(w[1] >= w[0] * 0.999, "loss dropped: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn fig4_scale_ratio_exceeds_five() {
        // Figure 4: 90 uniform keys, 10 poisoning keys → error ×7.4. Exact
        // multipliers vary with the keyset; conservatively require > 5×.
        let ks = uniform(90, 5); // domain [0, 445], density ~20%
        let plan = greedy_poison(&ks, PoisonBudget::keys(10)).unwrap();
        assert!(
            plan.ratio_loss() > 5.0,
            "ratio loss {} below Figure-4 scale",
            plan.ratio_loss()
        );
    }

    #[test]
    fn poison_keys_cluster() {
        // Paper observation (Fig. 4): greedy concentrates poison in a dense
        // area. Verify the chosen keys span much less than the domain.
        let ks = uniform(90, 5);
        let plan = greedy_poison(&ks, PoisonBudget::keys(10)).unwrap();
        let lo = *plan.keys.iter().min().unwrap();
        let hi = *plan.keys.iter().max().unwrap();
        let span = (hi - lo) as f64;
        let domain = (ks.max_key() - ks.min_key()) as f64;
        assert!(span < domain / 2.0, "poison span {span} vs domain {domain}");
    }

    #[test]
    fn stops_when_saturated() {
        // Tiny domain: only 3 free slots but budget of 10.
        let ks = KeySet::from_keys(vec![0, 2, 4, 6]).unwrap();
        let plan = greedy_poison(&ks, PoisonBudget::keys(10)).unwrap();
        assert_eq!(plan.keys.len(), 3);
        let lazy = greedy_poison_lazy(&ks, PoisonBudget::keys(10)).unwrap();
        assert_eq!(lazy.keys.len(), 3);
    }

    #[test]
    fn poisoned_keyset_contains_everything() {
        let ks = uniform(40, 9);
        let plan = greedy_poison(&ks, PoisonBudget::keys(5)).unwrap();
        let poisoned = plan.poisoned_keyset(&ks).unwrap();
        assert_eq!(poisoned.len(), ks.len() + plan.keys.len());
        for &k in ks.keys() {
            assert!(poisoned.contains(k));
        }
        for &k in &plan.keys {
            assert!(poisoned.contains(k));
            assert!(!ks.contains(k), "poison key {k} collides with legit key");
        }
    }

    #[test]
    fn greedy_matches_exhaustive_two_point_on_tiny_set() {
        // For a tiny keyset, compare greedy(2) against the best pair found
        // by exhaustive search. Greedy is a heuristic, but the paper
        // reports it matches brute force on tested data; we allow a small
        // slack rather than asserting exact equality.
        let ks = KeySet::from_keys(vec![0, 7, 13, 22, 30]).unwrap();
        let plan = greedy_poison(&ks, PoisonBudget::keys(2)).unwrap();

        let mut best = 0.0f64;
        for a in ks.min_key()..=ks.max_key() {
            if ks.contains(a) {
                continue;
            }
            let with_a = ks.with_key(a).unwrap();
            for b in ks.min_key()..=ks.max_key() {
                if with_a.contains(b) {
                    continue;
                }
                let both = with_a.with_key(b).unwrap();
                let mse = lis_core::linreg::LinearModel::fit(&both).unwrap().mse;
                best = best.max(mse);
            }
        }
        assert!(
            plan.final_mse() >= 0.95 * best,
            "greedy {} vs exhaustive pair {}",
            plan.final_mse(),
            best
        );
    }

    #[test]
    fn incremental_engine_matches_reference_engine() {
        // The incremental-oracle engine must reproduce the rebuild-per-step
        // loop: same campaign keys, same per-step losses (to float
        // accumulation tolerance), across shapes with and without ties.
        for (ks, p) in [
            (uniform(90, 5), 10usize),
            (uniform(40, 9), 5),
            (
                KeySet::from_keys((1..120u64).map(|i| i * i).collect()).unwrap(),
                12,
            ),
            (KeySet::from_keys(vec![0, 7, 13, 22, 30]).unwrap(), 4),
        ] {
            let fast = greedy_poison(&ks, PoisonBudget::keys(p)).unwrap();
            let slow = greedy_poison_reference(&ks, PoisonBudget::keys(p)).unwrap();
            assert_eq!(fast.clean_mse.to_bits(), slow.clean_mse.to_bits());
            assert_eq!(fast.keys.len(), slow.keys.len());
            for (i, (a, b)) in fast.losses.iter().zip(&slow.losses).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "step {i}: {a} vs {b}"
                );
            }
            // Key-for-key equality can only break on exact float ties
            // (symmetric keysets); even then the loss trajectory above
            // already matched.
            let final_ratio = fast.final_mse() / slow.final_mse().max(f64::MIN_POSITIVE);
            assert!(
                (final_ratio - 1.0).abs() < 1e-9,
                "final losses diverged: {final_ratio}"
            );
        }
    }

    #[test]
    fn lazy_engine_tracks_exact_engine() {
        for (ks, p) in [
            (uniform(90, 5), 10usize),
            (
                KeySet::from_keys((1..300u64).map(|i| i * i / 2 + i).collect()).unwrap(),
                20,
            ),
            (uniform(500, 11), 40),
        ] {
            let exact = greedy_poison(&ks, PoisonBudget::keys(p)).unwrap();
            let lazy = greedy_poison_lazy(&ks, PoisonBudget::keys(p)).unwrap();
            assert_eq!(lazy.keys.len(), exact.keys.len());
            assert!(
                lazy.final_mse() >= 0.99 * exact.final_mse(),
                "lazy {} vs exact {}",
                lazy.final_mse(),
                exact.final_mse()
            );
            // Lazy poison keys are real, fresh, in-range insertions.
            let poisoned = lazy.poisoned_keyset(&ks).unwrap();
            assert_eq!(poisoned.len(), ks.len() + lazy.keys.len());
        }
    }

    #[test]
    fn lazy_refreshes_per_point_do_not_grow_with_n() {
        // The exact engine evaluates every gap per step, so its per-point
        // work grows linearly with n. The lazy engine's must not: at 4×
        // the keys and the same budget, it may make at most 2.5× the gap
        // evaluations per placed point. Counting evaluations instead of
        // timing them makes this deterministic at any scale.
        let jittered = |n: u64| {
            let keys = (0..n).map(|i| i * 10 + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61));
            KeySet::from_keys(keys.collect()).unwrap()
        };
        let budget = PoisonBudget::keys(200);
        let per_point = |ks: &KeySet| {
            REFRESHES.with(|n| n.set(0));
            let plan = greedy_poison_lazy(ks, budget).unwrap();
            assert_eq!(plan.keys.len(), budget.count);
            REFRESHES.with(Cell::get) as f64 / budget.count as f64
        };
        let (small, large) = (jittered(5_000), jittered(20_000));
        let (at_n, at_4n) = (per_point(&small), per_point(&large));
        assert!(
            at_4n <= 2.5 * at_n,
            "lazy refreshes per point scaled with n: {at_n:.1} at 5k keys, {at_4n:.1} at 20k"
        );
        // And far below the exact engine's one evaluation per gap per step.
        assert!(at_4n < large.len() as f64 / 10.0, "{at_4n:.1} per point");
    }
}
