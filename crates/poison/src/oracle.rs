//! The O(1)-per-candidate poisoned-loss oracle (Section IV-C).
//!
//! The "first attempt" of the paper recomputes the regression loss from
//! scratch for every potential poisoning key — `O(mn)` overall. The insight
//! behind the optimal attack is that, for a fixed keyset `K`, the loss after
//! inserting a candidate `kp` is a simple function of a handful of moments,
//! all of which can be updated in constant time as the candidate moves:
//!
//! * the rank multiset of the poisoned set is always exactly `1..=n+1`, so
//!   `Σr′` and `Σr′²` are closed-form constants independent of `kp`;
//! * `Σk′` and `Σk′²` gain only the candidate's own contribution;
//! * the cross-moment gains the candidate's `kp·rp` **plus the sum of every
//!   legitimate key larger than `kp`** — the compound effect: those keys'
//!   ranks each increase by one.
//!
//! [`PoisonOracle`] precomputes the legitimate moments and a suffix-sum
//! array of (shifted) keys in `O(n)`; each candidate evaluation is then
//! `O(log n)` for the rank lookup (or `O(1)` when the caller already knows
//! the insertion rank, as the gap walk does). This is algebraically
//! equivalent to the paper's discrete-derivative recurrences but evaluates
//! each candidate independently, avoiding accumulated floating-point drift.
//!
//! [`PoisonOracle`] is immutable: a campaign that *commits* points used to
//! rebuild it from scratch per step, which is what made the greedy CDF
//! attack `O(p·n)`. [`IncrementalOracle`] removes that rebuild — the same
//! moments kept valid under `insert`/`remove` in `O(1)` algebra per
//! mutation (plus sorted-block bookkeeping for the rank/suffix queries) —
//! and is what the campaign engines in [`crate::greedy`] run on.

use lis_core::error::{LisError, Result};
use lis_core::keys::{Key, KeySet};
use lis_core::linreg::{fit_sorted_slice, key_to_f64, optimal_mse, signed_conversion_is_exact};
use lis_core::stats::{rank_sq_sum, rank_sum, CdfMoments};

/// The loss of the regression refit after one insertion into `n` keys
/// with shifted sums `Σx`, `Σx²` and `Σxr`: the one formula every oracle
/// and campaign engine scores a candidate with.
///
/// It holds what no candidate changes: `n + 1`, and `M_R` and `Var_R` of
/// the ranks `1..=n+1`, computed exactly as [`CdfMoments::mean_r`] and
/// [`CdfMoments::var_r`] compute them. A candidate then costs the four
/// divides [`optimal_mse`] cannot avoid (`Σx/(n+1)`, `Σx²/(n+1)`,
/// `Σxr/(n+1)` and `Cov²/Var_X`), in the same IEEE operations and order,
/// so every loss equals `optimal_mse` over the augmented [`CdfMoments`]
/// bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InsertScorer {
    n1: f64,
    sum_x: f64,
    sum_xx: f64,
    sum_xr: f64,
    mean_r: f64,
    var_r: f64,
}

impl InsertScorer {
    /// Scorer for one insertion into `n` keys with the given shifted sums.
    pub(crate) fn new(n: usize, sum_x: f64, sum_xx: f64, sum_xr: f64) -> Self {
        let n1 = n + 1;
        let mean_r = rank_sum(n1) / n1 as f64;
        Self {
            n1: n1 as f64,
            sum_x,
            sum_xx,
            sum_xr,
            mean_r,
            var_r: (rank_sq_sum(n1) / n1 as f64 - mean_r * mean_r).max(0.0),
        }
    }

    /// Loss after inserting the key whose shifted value is `xp` at 1-based
    /// rank `rank`, where `suffix` is the shifted-key sum of every key
    /// above it.
    pub(crate) fn loss(&self, xp: f64, rank: f64, suffix: f64) -> f64 {
        self.losses([xp], rank, suffix)[0]
    }

    /// [`InsertScorer::loss`] for `L` candidates that share one rank and
    /// suffix, as a gap's two endpoints do: the exact greedy scan's batch
    /// loop scores such a pair as one two-lane SSE2 vector.
    #[inline(always)]
    pub(crate) fn losses<const L: usize>(&self, xp: [f64; L], rank: f64, suffix: f64) -> [f64; L] {
        // Compound effect: every key above the candidate gains one rank,
        // adding its shifted value to the cross moment once.
        let sum_xr = self.sum_xr + suffix;
        xp.map(|x| {
            let mean_x = (self.sum_x + x) / self.n1;
            let var_x = ((self.sum_xx + x * x) / self.n1 - mean_x * mean_x).max(0.0);
            let cov = (sum_xr + x * rank) / self.n1 - mean_x * self.mean_r;
            let explained = (self.var_r - cov * cov / var_x).max(0.0);
            if var_x <= 0.0 {
                self.var_r
            } else {
                explained
            }
        })
    }
}

/// `k − shift` for every key of `keys`, converted through [`key_to_f64`].
fn shifted<const SIGNED: bool>(keys: &[Key], shift: f64) -> impl Iterator<Item = f64> + '_ {
    keys.iter().map(move |&k| key_to_f64::<SIGNED>(k) - shift)
}

/// Precomputed state for constant-time poisoned-loss queries against a
/// fixed legitimate keyset.
#[derive(Debug, Clone)]
pub struct PoisonOracle {
    /// The legitimate keys (sorted), shifted into f64.
    xs: Vec<f64>,
    /// Raw keys for rank lookups.
    keys: Vec<Key>,
    /// `suffix[i] = Σ_{j ≥ i} xs[j]`; `suffix[n] = 0`.
    suffix: Vec<f64>,
    shift: f64,
    /// Scores one insertion into the legitimate keyset.
    scorer: InsertScorer,
    /// Loss of the clean regression (for ratio reporting).
    clean_mse: f64,
}

impl PoisonOracle {
    /// Builds the oracle in `O(n)` (after the keyset's own sort). The sums
    /// and the clean loss are [`fit_sorted_slice`]'s, and keys convert as
    /// there: through `i64` when the last key allows it.
    pub fn new(ks: &KeySet) -> Self {
        let keys = ks.keys().to_vec();
        let (fit, m) = fit_sorted_slice(&keys).expect("a KeySet is never empty");
        let xs: Vec<f64> = if signed_conversion_is_exact(&keys) {
            shifted::<true>(&keys, m.shift).collect()
        } else {
            shifted::<false>(&keys, m.shift).collect()
        };
        let mut suffix = vec![0.0; m.n + 1];
        for i in (0..m.n).rev() {
            suffix[i] = suffix[i + 1] + xs[i];
        }
        Self {
            xs,
            keys,
            suffix,
            shift: m.shift,
            scorer: InsertScorer::new(m.n, m.sum_x, m.sum_xx, m.sum_xr),
            clean_mse: fit.mse,
        }
    }

    /// Number of legitimate keys.
    pub fn n(&self) -> usize {
        self.xs.len()
    }

    /// MSE of the regression on the clean keyset.
    pub fn clean_mse(&self) -> f64 {
        self.clean_mse
    }

    /// Loss of the regression refit on `K ∪ {kp}`, where the caller supplies
    /// the number of legitimate keys strictly below `kp` (`idx`, equal to
    /// `kp`'s 0-based insertion position). `kp` must not collide with an
    /// existing key.
    pub fn loss_with_rank(&self, kp: Key, idx: usize) -> f64 {
        debug_assert!(idx <= self.xs.len());
        debug_assert!(
            self.keys.binary_search(&kp).is_err(),
            "poisoning key {kp} collides with a legitimate key"
        );
        self.scorer
            .loss(kp as f64 - self.shift, (idx + 1) as f64, self.suffix[idx])
    }

    /// Loss of the regression refit on `K ∪ {kp}`; `O(log n)` rank lookup.
    pub fn loss(&self, kp: Key) -> f64 {
        let idx = self.keys.partition_point(|&k| k < kp);
        self.loss_with_rank(kp, idx)
    }

    /// Reference implementation: refits the regression from scratch on the
    /// augmented pair list. Used by tests to validate the O(1) algebra.
    pub fn loss_refit(&self, ks: &KeySet, kp: Key) -> f64 {
        let augmented = ks.with_key(kp).expect("valid candidate");
        lis_core::linreg::LinearModel::fit(&augmented)
            .expect("n ≥ 2")
            .mse
    }
}

/// Smallest sorted-block length the [`IncrementalOracle`]'s key store
/// targets; the actual target grows as `√n` so both the per-block scans
/// and the cross-block scans stay `O(√n)` — sublinear rank/suffix queries
/// without a balanced tree. Blocks split at twice the target (splits
/// recompute their sums from scratch, bounding float drift).
const BLOCK_TARGET_MIN: usize = 256;

/// Block-length target for a store of `n` keys: `max(√n, BLOCK_TARGET_MIN)`.
fn block_target(n: usize) -> usize {
    ((n as f64).sqrt().ceil() as usize).max(BLOCK_TARGET_MIN)
}

/// One sorted run of keys with its cached shifted-key sum.
#[derive(Debug, Clone)]
struct Block {
    keys: Vec<Key>,
    sum_x: f64,
}

/// A [`PoisonOracle`] that survives mutation: the sufficient statistics
/// (`Σx`, `Σx²`, `Σxr` over shifted keys; `Σr`, `Σr²` are closed-form in
/// `n`) are maintained **incrementally** under [`IncrementalOracle::insert`]
/// / [`IncrementalOracle::remove`], so a campaign evaluating and committing
/// poison points pays `O(1)` moment algebra per accepted point instead of
/// the `O(n)` oracle rebuild the old greedy loop performed.
///
/// The keys themselves live in `~√n`-sized sorted blocks (see
/// [`block_target`]; a classic sorted-list decomposition): rank and
/// suffix-sum queries cost `O(√n)`, inserts and removals `O(√n)`
/// amortized. Inserting a key updates the cross
/// moment with the *compound effect* — every key above the insertion gains
/// one rank, adding the block-tracked suffix sum — and removal mirrors it.
///
/// `tests/property_incremental_oracle.rs` pins every query against a
/// from-scratch refit after arbitrary interleaved insert/remove sequences.
#[derive(Debug, Clone)]
pub struct IncrementalOracle {
    shift: f64,
    n: usize,
    sum_x: f64,
    sum_xx: f64,
    sum_xr: f64,
    clean_mse: f64,
    blocks: Vec<Block>,
    /// First key of each block, parallel to `blocks` (block routing).
    firsts: Vec<Key>,
    /// Block split threshold is `2 × target` (≈ `2√n` at construction).
    target: usize,
}

impl IncrementalOracle {
    /// Builds the oracle over a keyset in `O(n)`.
    pub fn new(ks: &KeySet) -> Self {
        Self::from_sorted_keys(ks.keys())
    }

    /// Builds the oracle over an already-sorted, duplicate-free slice in
    /// `O(n)` — the zero-copy entry the per-leaf attack loops use.
    ///
    /// The sums and the clean loss are [`fit_sorted_slice`]'s, and the
    /// block sums convert keys as it does: through `i64` when the last key
    /// allows it.
    pub fn from_sorted_keys(keys: &[Key]) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted");
        let (fit, m) = fit_sorted_slice(keys).expect("oracle needs at least one key");
        let signed = signed_conversion_is_exact(keys);
        let target = block_target(m.n);
        let mut blocks = Vec::with_capacity(m.n.div_ceil(target));
        let mut firsts = Vec::with_capacity(blocks.capacity());
        for chunk in keys.chunks(target) {
            firsts.push(chunk[0]);
            blocks.push(Block {
                keys: chunk.to_vec(),
                sum_x: if signed {
                    shifted::<true>(chunk, m.shift).sum()
                } else {
                    shifted::<false>(chunk, m.shift).sum()
                },
            });
        }
        Self {
            shift: m.shift,
            n: m.n,
            sum_x: m.sum_x,
            sum_xx: m.sum_xx,
            sum_xr: m.sum_xr,
            clean_mse: fit.mse,
            blocks,
            firsts,
            target,
        }
    }

    /// Number of keys currently tracked.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff every key has been removed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The fixed key shift chosen at construction (callers maintaining
    /// their own shifted suffix sums must agree on it).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// MSE of the regression on the keyset the oracle was built over.
    pub fn clean_mse(&self) -> f64 {
        self.clean_mse
    }

    /// MSE of the optimal regression on the *current* (mutated) keyset,
    /// from the maintained moments in `O(1)`.
    pub fn current_mse(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        optimal_mse(&self.moments())
    }

    fn moments(&self) -> CdfMoments {
        CdfMoments {
            n: self.n,
            shift: self.shift,
            sum_x: self.sum_x,
            sum_xx: self.sum_xx,
            sum_r: rank_sum(self.n),
            sum_rr: rank_sq_sum(self.n),
            sum_xr: self.sum_xr,
        }
    }

    /// Index of the block that may contain `key` (last block whose first
    /// key is ≤ `key`, clamped to block 0).
    fn block_for(&self, key: Key) -> usize {
        self.firsts.partition_point(|&f| f <= key).saturating_sub(1)
    }

    /// Whether `key` is currently present.
    pub fn contains(&self, key: Key) -> bool {
        if self.n == 0 {
            return false;
        }
        let b = self.block_for(key);
        self.blocks[b].keys.binary_search(&key).is_ok()
    }

    /// Number of keys strictly below `key` — the 0-based insertion index.
    pub fn rank_below(&self, key: Key) -> usize {
        if self.n == 0 {
            return 0;
        }
        let b = self.block_for(key);
        self.blocks[..b]
            .iter()
            .map(|blk| blk.keys.len())
            .sum::<usize>()
            + self.blocks[b].keys.partition_point(|&k| k < key)
    }

    /// Sum of shifted keys strictly greater than `key` — the compound
    /// effect's cross-moment contribution.
    pub fn suffix_sum_above(&self, key: Key) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let b = self.block_for(key);
        let block = &self.blocks[b];
        let pos = block.keys.partition_point(|&k| k <= key);
        let mut sum: f64 = block.keys[pos..]
            .iter()
            .map(|&k| k as f64 - self.shift)
            .sum();
        for blk in &self.blocks[b + 1..] {
            sum += blk.sum_x;
        }
        sum
    }

    /// Loss of the regression refit on the current set ∪ `{kp}` when the
    /// caller already knows `kp`'s insertion index and the suffix sum of
    /// shifted keys above it — pure `O(1)` algebra (the campaign engines
    /// maintain both per gap).
    pub fn loss_insert_with(&self, kp: Key, idx: usize, suffix_above: f64) -> f64 {
        debug_assert!(idx <= self.n);
        self.insert_scorer()
            .loss(kp as f64 - self.shift, (idx + 1) as f64, suffix_above)
    }

    /// Scores insertions into the *current* keyset; valid until the next
    /// [`IncrementalOracle::insert`] or [`IncrementalOracle::remove`].
    pub(crate) fn insert_scorer(&self) -> InsertScorer {
        InsertScorer::new(self.n, self.sum_x, self.sum_xx, self.sum_xr)
    }

    /// Loss of the regression refit on the current set ∪ `{kp}`;
    /// `O(#blocks)` for the rank/suffix queries. `kp` must be absent.
    pub fn loss_insert(&self, kp: Key) -> f64 {
        debug_assert!(!self.contains(kp), "poisoning key {kp} collides");
        self.loss_insert_with(kp, self.rank_below(kp), self.suffix_sum_above(kp))
    }

    /// Loss of the regression refit on the current set ∖ `{k}`;
    /// `O(#blocks)`. `k` must be present and the remainder must keep ≥ 2
    /// keys.
    pub fn loss_remove(&self, k: Key) -> f64 {
        debug_assert!(self.contains(k), "removal key {k} not present");
        let n1 = self.n - 1;
        if n1 < 2 {
            return 0.0;
        }
        let idx = self.rank_below(k);
        let x = k as f64 - self.shift;
        let r = (idx + 1) as f64;
        optimal_mse(&CdfMoments {
            n: n1,
            shift: self.shift,
            sum_x: self.sum_x - x,
            sum_xx: self.sum_xx - x * x,
            sum_r: rank_sum(n1),
            sum_rr: rank_sq_sum(n1),
            // Mirrored compound effect: every key above k loses one rank.
            sum_xr: self.sum_xr - x * r - self.suffix_sum_above(k),
        })
    }

    /// Commits an insertion: `O(1)` moment updates plus the sorted-block
    /// bookkeeping (`O(log #blocks + block)` amortized). Errors on
    /// duplicates.
    pub fn insert(&mut self, kp: Key) -> Result<()> {
        if self.n == 0 {
            let xp = kp as f64 - self.shift;
            self.blocks.push(Block {
                keys: vec![kp],
                sum_x: xp,
            });
            self.firsts.push(kp);
            self.n = 1;
            self.sum_x = xp;
            self.sum_xx = xp * xp;
            self.sum_xr = xp;
            return Ok(());
        }
        let b = self.block_for(kp);
        let pos = match self.blocks[b].keys.binary_search(&kp) {
            Ok(_) => return Err(LisError::DuplicateKey(kp)),
            Err(pos) => pos,
        };
        let xp = kp as f64 - self.shift;
        let rp = (self.rank_below(kp) + 1) as f64;
        // Moments first (they need the pre-insert suffix sum).
        self.sum_xr += self.suffix_sum_above(kp) + xp * rp;
        self.sum_x += xp;
        self.sum_xx += xp * xp;
        self.n += 1;
        // Structure second.
        self.blocks[b].keys.insert(pos, kp);
        self.blocks[b].sum_x += xp;
        if pos == 0 {
            self.firsts[b] = kp;
        }
        if self.blocks[b].keys.len() > 2 * self.target {
            let tail = self.blocks[b].keys.split_off(self.target);
            // Recompute both halves' sums from their keys: splits bound
            // the incremental float drift of the per-block sums.
            let shift = self.shift;
            self.blocks[b].sum_x = self.blocks[b].keys.iter().map(|&k| k as f64 - shift).sum();
            let tail_sum: f64 = tail.iter().map(|&k| k as f64 - shift).sum();
            self.firsts.insert(b + 1, tail[0]);
            self.blocks.insert(
                b + 1,
                Block {
                    keys: tail,
                    sum_x: tail_sum,
                },
            );
        }
        Ok(())
    }

    /// Commits a removal: the mirror of [`IncrementalOracle::insert`].
    /// Errors when `k` is absent.
    pub fn remove(&mut self, k: Key) -> Result<()> {
        if self.n == 0 {
            return Err(LisError::KeyNotFound(k));
        }
        let b = self.block_for(k);
        let pos = match self.blocks[b].keys.binary_search(&k) {
            Ok(pos) => pos,
            Err(_) => return Err(LisError::KeyNotFound(k)),
        };
        let x = k as f64 - self.shift;
        let r = (self.rank_below(k) + 1) as f64;
        self.sum_xr -= x * r + self.suffix_sum_above(k);
        self.sum_x -= x;
        self.sum_xx -= x * x;
        self.n -= 1;
        self.blocks[b].keys.remove(pos);
        self.blocks[b].sum_x -= x;
        if self.blocks[b].keys.is_empty() {
            self.blocks.remove(b);
            self.firsts.remove(b);
        } else if pos == 0 {
            self.firsts[b] = self.blocks[b].keys[0];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::keys::KeyDomain;
    use lis_core::stats::midpoint_shift;
    use proptest::TestRng;

    fn paper_keys() -> KeySet {
        KeySet::new(vec![2, 6, 7, 12], KeyDomain::new(1, 13).unwrap()).unwrap()
    }

    /// `optimal_mse` over the moments of `n` keys with the given shifted
    /// sums plus one candidate: the formula [`InsertScorer`] must equal.
    fn refit_mse(n: usize, sums: [f64; 3], xp: f64, rank: f64, suffix: f64) -> f64 {
        let [sum_x, sum_xx, sum_xr] = sums;
        optimal_mse(&CdfMoments {
            n: n + 1,
            shift: 0.0,
            sum_x: sum_x + xp,
            sum_xx: sum_xx + xp * xp,
            sum_r: rank_sum(n + 1),
            sum_rr: rank_sq_sum(n + 1),
            sum_xr: sum_xr + suffix + xp * rank,
        })
    }

    #[test]
    fn insert_scorer_matches_optimal_mse_bit_for_bit() {
        // Seeded random moments of three kinds: sums of real shifted
        // keysets, the same with the cross moment blown up (the clamp to
        // 0), and n copies of one key with the candidate on it (Var_X = 0).
        let mut rng = TestRng::new(0x5C0E);
        let (mut fitted, mut clamped, mut flat) = (0, 0, 0);
        for case in 0..3_000 {
            let n = 1 + rng.below(400) as usize;
            let spread = 10f64.powi(rng.below(12) as i32);
            let xs: Vec<f64> = (0..n).map(|_| (rng.unit_f64() - 0.5) * spread).collect();
            let mut sums = [0.0; 3];
            for (i, &x) in xs.iter().enumerate() {
                sums[0] += x;
                sums[1] += x * x;
                sums[2] += x * (i + 1) as f64;
            }
            let mut xp = [
                (rng.unit_f64() - 0.5) * spread,
                (rng.unit_f64() - 0.5) * spread,
            ];
            match case % 3 {
                1 => sums[2] *= 1e3,
                2 => {
                    let c = rng.below(1_000) as f64 - 500.0;
                    sums = [n as f64 * c, n as f64 * c * c, sums[2]];
                    xp = [c, c];
                }
                _ => {}
            }
            let rank = 1.0 + rng.below(n as u64 + 1) as f64;
            let suffix = (rng.unit_f64() - 0.5) * spread * n as f64;
            let scorer = InsertScorer::new(n, sums[0], sums[1], sums[2]);
            let pair = scorer.losses(xp, rank, suffix);
            for (lane, &x) in xp.iter().enumerate() {
                let want = refit_mse(n, sums, x, rank, suffix);
                assert_eq!(
                    scorer.loss(x, rank, suffix).to_bits(),
                    want.to_bits(),
                    "case {case}"
                );
                assert_eq!(
                    pair[lane].to_bits(),
                    want.to_bits(),
                    "case {case} lane {lane}"
                );
                match want {
                    w if w.to_bits() == scorer.var_r.to_bits() && case % 3 == 2 => flat += 1,
                    0.0 => clamped += 1,
                    _ => fitted += 1,
                }
            }
        }
        assert!(
            fitted > 100 && clamped > 100 && flat > 100,
            "{fitted} {clamped} {flat}"
        );
    }

    #[test]
    fn construction_converts_keys_exactly_around_i64_max() {
        // Three blocks' worth of keys ending below, at and above i64::MAX
        // (and at u64::MAX): every sum, block sum, shifted key and loss
        // equals the unsigned-conversion arithmetic bit for bit.
        let top = i64::MAX as Key;
        let run = |last: Key, step: Key| -> Vec<Key> {
            (0..600).rev().map(|i| last - i * step).collect()
        };
        for keys in [
            run(top - 1_000, 7),
            run(top, 5),
            run(top + 2_000, 9),
            run(Key::MAX, 3),
        ] {
            let shift = midpoint_shift(keys[0], keys[keys.len() - 1]);
            let xs: Vec<f64> = keys.iter().map(|&k| k as f64 - shift).collect();
            let mut sums = [0.0; 3];
            for (i, &x) in xs.iter().enumerate() {
                sums[0] += x;
                sums[1] += x * x;
                sums[2] += x * (i + 1) as f64;
            }
            let bits = |v: [f64; 3]| v.map(f64::to_bits);
            let clean = optimal_mse(&CdfMoments {
                n: keys.len(),
                shift,
                sum_x: sums[0],
                sum_xx: sums[1],
                sum_r: rank_sum(keys.len()),
                sum_rr: rank_sq_sum(keys.len()),
                sum_xr: sums[2],
            });

            let inc = IncrementalOracle::from_sorted_keys(&keys);
            assert_eq!(bits([inc.sum_x, inc.sum_xx, inc.sum_xr]), bits(sums));
            assert_eq!(inc.clean_mse().to_bits(), clean.to_bits());
            assert!(inc.blocks.len() > 1);
            for block in &inc.blocks {
                let want: f64 = block.keys.iter().map(|&k| k as f64 - shift).sum();
                assert_eq!(block.sum_x.to_bits(), want.to_bits());
            }

            let stat = PoisonOracle::new(&KeySet::from_keys(keys.clone()).unwrap());
            let sc = stat.scorer;
            assert_eq!(bits([sc.sum_x, sc.sum_xx, sc.sum_xr]), bits(sums));
            assert_eq!(stat.clean_mse().to_bits(), clean.to_bits());
            assert!(stat
                .xs
                .iter()
                .zip(&xs)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            let kp = keys[300] + 1;
            let want = refit_mse(keys.len(), sums, kp as f64 - shift, 302.0, stat.suffix[301]);
            assert_eq!(stat.loss(kp).to_bits(), want.to_bits());
            assert_eq!(inc.loss_insert(kp).to_bits(), stat.loss(kp).to_bits());
        }
    }

    #[test]
    fn oracle_matches_refit_everywhere() {
        let ks = paper_keys();
        let oracle = PoisonOracle::new(&ks);
        for kp in 1..=13u64 {
            if ks.contains(kp) {
                continue;
            }
            let fast = oracle.loss(kp);
            let slow = oracle.loss_refit(&ks, kp);
            assert!(
                (fast - slow).abs() < 1e-9,
                "kp={kp}: oracle {fast} vs refit {slow}"
            );
        }
    }

    #[test]
    fn clean_mse_matches_model_fit() {
        let ks = paper_keys();
        let oracle = PoisonOracle::new(&ks);
        let fit = lis_core::linreg::LinearModel::fit(&ks).unwrap();
        assert!((oracle.clean_mse() - fit.mse).abs() < 1e-12);
    }

    #[test]
    fn loss_with_rank_agrees_with_loss() {
        let ks = KeySet::from_keys(vec![10, 20, 30, 50, 80]).unwrap();
        let oracle = PoisonOracle::new(&ks);
        for (kp, idx) in [(11u64, 1usize), (25, 2), (79, 4), (31, 3)] {
            assert_eq!(oracle.loss(kp), oracle.loss_with_rank(kp, idx));
        }
    }

    #[test]
    fn large_scale_consistency() {
        // 10k uniform keys near 1e9: the shifted algebra must stay accurate.
        let ks =
            KeySet::from_keys((0..10_000u64).map(|i| 1_000_000_000 + i * 37).collect()).unwrap();
        let oracle = PoisonOracle::new(&ks);
        for kp in [1_000_000_005u64, 1_000_123_456, 1_000_369_950] {
            if ks.contains(kp) {
                continue;
            }
            let fast = oracle.loss(kp);
            let slow = oracle.loss_refit(&ks, kp);
            let denom = slow.abs().max(1.0);
            assert!(
                ((fast - slow) / denom).abs() < 1e-6,
                "kp={kp}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn incremental_oracle_matches_static_oracle_before_mutation() {
        let ks = KeySet::from_keys((0..3000u64).map(|i| i * 7 + (i % 5)).collect()).unwrap();
        let inc = IncrementalOracle::new(&ks);
        let stat = PoisonOracle::new(&ks);
        assert_eq!(inc.len(), ks.len());
        assert_eq!(inc.clean_mse().to_bits(), stat.clean_mse().to_bits());
        for kp in [3u64, 500, 10_000, ks.max_key() - 1] {
            if ks.contains(kp) {
                continue;
            }
            let a = inc.loss_insert(kp);
            let b = stat.loss(kp);
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "kp={kp}: {a} vs {b}"
            );
            assert_eq!(inc.rank_below(kp), ks.insertion_rank(kp) - 1);
        }
    }

    #[test]
    fn incremental_mutations_track_refit_across_block_splits() {
        // Enough inserts to force block splits (BLOCK_TARGET boundary) and
        // removals that empty blocks; every step checked against a
        // from-scratch refit.
        let mut ks = KeySet::from_keys((0..1500u64).map(|i| i * 4).collect()).unwrap();
        let mut inc = IncrementalOracle::new(&ks);
        for step in 0..900u64 {
            if step % 3 == 2 {
                let victim = ks.keys()[(step as usize * 7) % ks.len()];
                inc.remove(victim).unwrap();
                ks.remove(victim).unwrap();
            } else {
                let kp = step * 6 + 1;
                if ks.contains(kp) || !ks.domain().contains(kp) {
                    continue;
                }
                inc.insert(kp).unwrap();
                ks.insert(kp).unwrap();
            }
            if step % 97 == 0 {
                let refit = lis_core::linreg::LinearModel::fit(&ks).unwrap().mse;
                let fast = inc.current_mse();
                assert!(
                    (fast - refit).abs() <= 1e-6 * refit.abs().max(1.0),
                    "step {step}: {fast} vs {refit}"
                );
                assert_eq!(inc.len(), ks.len());
            }
        }
        // Structural errors are reported, not silently absorbed.
        let existing = ks.keys()[10];
        assert!(inc.insert(existing).is_err());
        assert!(inc.remove(existing + 1).is_err() || ks.contains(existing + 1));
    }

    #[test]
    fn loss_remove_matches_refit_without_key() {
        let ks = KeySet::from_keys(vec![2, 6, 7, 12, 19, 31, 40, 55]).unwrap();
        let inc = IncrementalOracle::new(&ks);
        for &k in ks.keys() {
            let mut without = ks.clone();
            without.remove(k).unwrap();
            let refit = lis_core::linreg::LinearModel::fit(&without).unwrap().mse;
            let fast = inc.loss_remove(k);
            assert!(
                (fast - refit).abs() <= 1e-9 * refit.abs().max(1.0),
                "k={k}: {fast} vs {refit}"
            );
        }
    }

    #[test]
    fn poisoning_never_decreases_optimal_loss_on_linear_data() {
        // For a perfectly linear CDF any insertion that breaks uniform
        // spacing strictly increases the loss.
        let ks = KeySet::from_keys((0..100u64).map(|i| i * 10).collect()).unwrap();
        let oracle = PoisonOracle::new(&ks);
        assert!(oracle.clean_mse() < 1e-9);
        for kp in [5u64, 41, 995, 503] {
            assert!(oracle.loss(kp) > 0.0, "kp={kp}");
        }
    }
}
