//! A learned hash index — the *point index* of the original LIS paper.
//!
//! Kraska et al. propose replacing a hash map's hash function with the
//! keyset's CDF model: `slot(k) = ⌊M · F(k)⌋` where `F` is the learned CDF
//! and `M` the table size. On data the model captures well this spreads
//! keys almost perfectly (few collisions); a classic random hash has
//! binomial collisions regardless of data.
//!
//! The poisoning angle mirrors the range-index attack: the model is trained
//! on the (poisoned) CDF, so an adversary who bends the CDF makes the
//! *legitimate* keys' predicted slots pile up — collision chains grow, and
//! with them the lookup cost. The `abl-hash` entry of `lis::figures`
//! measures that effect; this module supplies the substrate with both the learned
//! and a multiplicative-random baseline hash.

use crate::error::{LisError, Result};
use crate::index::{LearnedIndex, Lookup};
use crate::keys::{Key, KeySet};
use crate::linreg::LinearModel;

/// Build configuration for [`HashIndex`] under the [`LearnedIndex`] API:
/// the table is sized relative to the keyset (`slots = ⌈n · slots_per_key⌉`)
/// so one config serves any workload scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashIndexConfig {
    /// Buckets per stored key (the inverse load factor), > 0.
    pub slots_per_key: f64,
    /// Slot-assignment policy.
    pub kind: HashKind,
}

impl Default for HashIndexConfig {
    fn default() -> Self {
        Self {
            slots_per_key: 1.25,
            kind: HashKind::Learned,
        }
    }
}

/// Slot-assignment policy for [`HashIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashKind {
    /// Learned: slot from the linear CDF model (scaled rank prediction).
    Learned,
    /// Baseline: a SplitMix64-finalized hash — data-oblivious, behaves
    /// like a random function on distinct keys.
    Random,
}

/// A chained hash table over a fixed slot count.
#[derive(Debug, Clone)]
pub struct HashIndex {
    kind: HashKind,
    model: Option<LinearModel>,
    buckets: Vec<Vec<Key>>,
    len: usize,
}

impl HashIndex {
    /// Builds the table with `slots` buckets over the keys of `ks`.
    ///
    /// For [`HashKind::Learned`] the CDF model is trained on `ks` itself —
    /// which is exactly why poisoning the keyset degrades placement of the
    /// legitimate keys.
    pub fn build(ks: &KeySet, slots: usize, kind: HashKind) -> Result<Self> {
        if slots == 0 {
            return Err(LisError::Invariant(
                "hash table needs at least one slot".into(),
            ));
        }
        let model = match kind {
            HashKind::Learned => Some(LinearModel::fit(ks)?),
            HashKind::Random => None,
        };
        let mut table = Self {
            kind,
            model,
            buckets: vec![Vec::new(); slots],
            len: 0,
        };
        for &k in ks.keys() {
            let slot = table.slot(k);
            table.buckets[slot].push(k);
            table.len += 1;
        }
        Ok(table)
    }

    /// The bucket index for `key` under the configured policy.
    pub fn slot(&self, key: Key) -> usize {
        let m = self.buckets.len();
        match self.kind {
            HashKind::Learned => {
                let model = self.model.as_ref().expect("learned table has a model");
                // Normalized predicted rank ∈ [0, 1) scaled to the table.
                let frac =
                    ((model.predict(key) - 1.0) / model.n as f64).clamp(0.0, 1.0 - f64::EPSILON);
                (frac * m as f64) as usize
            }
            HashKind::Random => {
                // SplitMix64 finalizer: structured inputs (arithmetic
                // progressions) still land uniformly.
                let mut h = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
                h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                (h % m as u64) as usize
            }
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets.
    pub fn num_slots(&self) -> usize {
        self.buckets.len()
    }

    /// Looks up `key`; `cost` counts the chain elements inspected.
    pub fn lookup(&self, key: Key) -> Lookup {
        let bucket = &self.buckets[self.slot(key)];
        for (i, &k) in bucket.iter().enumerate() {
            if k == key {
                return Lookup::membership(true, i + 1);
            }
        }
        Lookup::membership(false, bucket.len())
    }

    /// Longest collision chain.
    pub fn max_chain(&self) -> usize {
        self.buckets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Expected probes for a *successful* lookup of a uniformly random
    /// stored key: `Σ over buckets of len·(len+1)/2 / n`.
    pub fn expected_probes(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let total: f64 = self
            .buckets
            .iter()
            .map(|b| b.len() as f64 * (b.len() as f64 + 1.0) / 2.0)
            .sum();
        total / self.len as f64
    }
}

impl LearnedIndex for HashIndex {
    type Config = HashIndexConfig;

    fn build(ks: &KeySet, cfg: &Self::Config) -> Result<Self> {
        if cfg.slots_per_key <= 0.0 || cfg.slots_per_key.is_nan() {
            return Err(LisError::Invariant("hash slots_per_key must be > 0".into()));
        }
        let slots = ((ks.len() as f64 * cfg.slots_per_key).ceil() as usize).max(1);
        HashIndex::build(ks, slots, cfg.kind)
    }

    fn lookup(&self, key: Key) -> Lookup {
        HashIndex::lookup(self, key)
    }

    /// MSE of the learned CDF model; `0.0` for the random-hash baseline.
    fn loss(&self) -> f64 {
        self.model.as_ref().map(|m| m.mse).unwrap_or(0.0)
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.buckets.len() * std::mem::size_of::<Vec<Key>>()
            + self.len * std::mem::size_of::<Key>()
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step).collect()).unwrap()
    }

    #[test]
    fn rejects_zero_slots() {
        let ks = uniform(10, 2);
        assert!(HashIndex::build(&ks, 0, HashKind::Random).is_err());
    }

    #[test]
    fn all_keys_found_both_kinds() {
        let ks = uniform(1_000, 7);
        for kind in [HashKind::Learned, HashKind::Random] {
            let t = HashIndex::build(&ks, 2_000, kind).unwrap();
            for &k in ks.keys() {
                assert!(t.lookup(k).found, "{kind:?} key {k}");
            }
            assert!(!t.lookup(3).found);
            assert_eq!(t.len(), 1_000);
        }
    }

    #[test]
    fn learned_hash_beats_random_on_linear_data() {
        // On an exactly-linear CDF the learned slot assignment is a
        // perfect spread; random hashing has birthday collisions.
        let ks = uniform(10_000, 13);
        let learned = HashIndex::build(&ks, 10_000, HashKind::Learned).unwrap();
        let random = HashIndex::build(&ks, 10_000, HashKind::Random).unwrap();
        assert!(
            learned.expected_probes() < random.expected_probes(),
            "learned {} vs random {}",
            learned.expected_probes(),
            random.expected_probes()
        );
        assert!(learned.max_chain() <= 2);
    }

    #[test]
    fn random_hash_is_data_independent() {
        // Same keys, different order/domain shape — chains statistically
        // identical because the hash ignores the CDF.
        let a = HashIndex::build(&uniform(5_000, 3), 5_000, HashKind::Random).unwrap();
        let skewed = KeySet::from_keys((1..=5_000u64).map(|i| i * i).collect()).unwrap();
        let b = HashIndex::build(&skewed, 5_000, HashKind::Random).unwrap();
        let diff = (a.expected_probes() - b.expected_probes()).abs();
        assert!(
            diff < 0.2,
            "random hash should not care about the CDF: {diff}"
        );
    }

    #[test]
    fn poisoning_inflates_learned_chains() {
        // Bend the CDF with a poison clump; legitimate keys pile up.
        let clean = uniform(5_000, 20);
        let clean_table = HashIndex::build(&clean, 6_000, HashKind::Learned).unwrap();

        let mut poisoned = clean.clone();
        for j in 0..500u64 {
            let k = 50_001 + j;
            if !poisoned.contains(k) {
                poisoned.insert(k).unwrap();
            }
        }
        let poisoned_table = HashIndex::build(&poisoned, 6_600, HashKind::Learned).unwrap();
        assert!(
            poisoned_table.expected_probes() > clean_table.expected_probes(),
            "poisoning should inflate chains: {} vs {}",
            poisoned_table.expected_probes(),
            clean_table.expected_probes()
        );
    }

    #[test]
    fn expected_probes_closed_form() {
        // Two buckets: [a, b], [c]: successful probes = (1+2+1)/3.
        let ks = KeySet::from_keys(vec![1, 2, 3]).unwrap();
        let mut t = HashIndex::build(&ks, 2, HashKind::Random).unwrap();
        // Rebuild buckets deterministically for the arithmetic check.
        t.buckets = vec![vec![1, 2], vec![3]];
        t.len = 3;
        assert!((t.expected_probes() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.max_chain(), 2);
    }
}
