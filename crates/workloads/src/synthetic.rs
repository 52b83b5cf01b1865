//! Synthetic key-set generators matching the paper's experimental setups.
//!
//! * **Uniform** (Figures 4–6): `n` distinct keys uniform over the domain.
//! * **Normal** (Figure 8): for a key domain `U = [α, β]`, keys follow
//!   `N(µ = (β+α)/2, σ = (β−α)/3)`, clamped into the domain.
//! * **Log-normal** (Figure 6): `LogNormal(µ = 0, σ = 2)` scaled onto the
//!   domain, the parameterization of the original LIS experiments.
//!
//! All generators return exactly `n` *distinct* integer keys (the paper's
//! keysets contain no multiplicities), resampling on collision with a
//! progress guard.
//!
//! **Distinct-key set.** Each generator collects its keys in one private
//! set whose representation follows from the density alone. At `m ≤ 128·n`
//! (every density ≥ 1/128, the paper's 0.01 included) it is a bitmap over
//! the domain: `m / 8` bytes, at most 16 per returned key, read out already
//! sorted. Sparser domains keep a `HashSet<Key>` (9 bytes per bucket at 8/7
//! to 16/7 buckets per key, so 10.3 to 20.6 bytes per key) and a sort. The
//! bitmap is the smaller of the two at every density ≥ 1/80 and at most 1.6
//! times the hash set below that; at the benchmark's density 0.1 it takes
//! 1.25 bytes per key. The draws do not depend on the representation, so
//! neither do the keyset and every later draw from the same `rng`.

use crate::rng::{sample_lognormal, sample_normal};
use lis_core::error::{LisError, Result};
use lis_core::keys::{Key, KeyDomain, KeySet};
use rand::Rng;
use std::collections::HashSet;

/// Upper bound on resampling passes before giving up (only reachable when
/// the requested count is close to the number of representable keys the
/// distribution can produce).
const MAX_ROUNDS: usize = 64;

/// Domain keys per returned key up to which [`Distinct`] is a bitmap: at
/// 128 it takes 16 bytes per key, inside a hash set's 10.3 to 20.6.
const BITMAP_KEYS_PER_KEY: u64 = 128;

/// One bit per key of a domain, set once the key has been drawn.
struct Bitmap {
    min: Key,
    size: u64,
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    fn new(domain: KeyDomain) -> Self {
        let size = domain.size();
        Self {
            min: domain.min,
            size,
            words: vec![0; size.div_ceil(64) as usize],
            len: 0,
        }
    }

    /// Adds `key`, which must lie in the domain.
    fn insert(&mut self, key: Key) {
        let offset = key - self.min;
        let word = &mut self.words[(offset / 64) as usize];
        let bit = 1u64 << (offset % 64);
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// The domain keys whose bit equals `drawn`, ascending.
    fn keys(&self, drawn: bool) -> Vec<Key> {
        let count = if drawn {
            self.len
        } else {
            (self.size - self.len as u64) as usize
        };
        let mut keys = Vec::with_capacity(count);
        // Bits past the domain's end, in the last word, are never drawn.
        let (last, tail) = (self.words.len() - 1, self.size % 64);
        for (i, &word) in self.words.iter().enumerate() {
            let mut bits = if drawn { word } else { !word };
            if i == last && tail != 0 {
                bits &= (1 << tail) - 1;
            }
            let base = self.min + 64 * i as u64;
            while bits != 0 {
                keys.push(base + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        keys
    }
}

/// The distinct keys one generator call has drawn so far, for a call that
/// returns `n` keys of a domain of `m` keys: a [`Bitmap`] when
/// `m ≤ 128·n`, else a hash set (see the module docs).
enum Distinct {
    Bitmap(Bitmap),
    Hash(HashSet<Key>),
}

impl Distinct {
    fn new(domain: KeyDomain, n: usize) -> Self {
        if domain.size() <= (n as u64).saturating_mul(BITMAP_KEYS_PER_KEY) {
            Self::Bitmap(Bitmap::new(domain))
        } else {
            Self::Hash(HashSet::with_capacity(n))
        }
    }

    /// Adds `key`, which must lie in the domain.
    fn insert(&mut self, key: Key) {
        match self {
            Self::Bitmap(bits) => bits.insert(key),
            Self::Hash(set) => {
                set.insert(key);
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Self::Bitmap(bits) => bits.len,
            Self::Hash(set) => set.len(),
        }
    }

    /// The drawn keys as a keyset of `domain`.
    fn into_keyset(self, domain: KeyDomain) -> KeySet {
        let keys = match self {
            Self::Bitmap(bits) => bits.keys(true),
            Self::Hash(set) => {
                let mut keys: Vec<Key> = set.into_iter().collect();
                keys.sort_unstable();
                keys
            }
        };
        KeySet::from_sorted_unchecked(keys, domain)
    }
}

/// Draws `n` distinct keys uniformly from `domain`.
///
/// Uses rejection sampling below 50% density and complement sampling above
/// (sample the keys to *exclude*), so dense keysets cost the same as sparse
/// ones.
pub fn uniform_keys<R: Rng>(rng: &mut R, n: usize, domain: KeyDomain) -> Result<KeySet> {
    let m = domain.size();
    if (n as u64) > m {
        return Err(LisError::InvalidBudget(format!(
            "cannot draw {n} distinct keys from {m}"
        )));
    }
    if n == 0 {
        return Err(LisError::EmptyKeySet);
    }
    if (n as u64) * 2 <= m {
        let mut set = Distinct::new(domain, n);
        while set.len() < n {
            set.insert(rng.gen_range(domain.min..=domain.max));
        }
        Ok(set.into_keyset(domain))
    } else {
        // Dense: choose the complement (keys to drop) instead. Here
        // `m < 2·n`, so the set is always a bitmap.
        let drop_count = (m - n as u64) as usize;
        let mut drop = Bitmap::new(domain);
        while drop.len < drop_count {
            drop.insert(rng.gen_range(domain.min..=domain.max));
        }
        Ok(KeySet::from_sorted_unchecked(drop.keys(false), domain))
    }
}

/// Draws `n` distinct keys from the Figure-8 normal distribution over
/// `domain`: `µ = (min+max)/2`, `σ = (max−min)/3`, clamped to the domain.
pub fn normal_keys<R: Rng>(rng: &mut R, n: usize, domain: KeyDomain) -> Result<KeySet> {
    let mu = (domain.min as f64 + domain.max as f64) / 2.0;
    let sigma = (domain.max as f64 - domain.min as f64) / 3.0;
    sample_distinct(rng, n, domain, |rng| sample_normal(rng, mu, sigma))
}

/// Draws `n` distinct keys log-normally distributed over `domain`:
/// `LogNormal(0, 2)` samples are mapped onto the domain by scaling the
/// distribution's 99th percentile to the domain span.
///
/// Scaling the 99.9th percentile onto the span compresses the distribution
/// head hard: after rounding and dedup the head becomes (near-)saturated
/// runs of consecutive integers — exactly what happens to real scaled
/// log-normal data. The models covering the saturated→sparse *transition
/// zone* are the ones the paper's attack amplifies the most ("we have some
/// regressions that handle concentrated keys and by poisoning these models,
/// we amplify the non-linearity", Section V-B): their clean CDF is almost
/// exactly linear (tiny loss) yet they still offer free slots for poison.
pub fn lognormal_keys<R: Rng>(rng: &mut R, n: usize, domain: KeyDomain) -> Result<KeySet> {
    lognormal_keys_with(rng, n, domain, 0.0, 2.0)
}

/// [`lognormal_keys`] with explicit `µ` and `σ`.
pub fn lognormal_keys_with<R: Rng>(
    rng: &mut R,
    n: usize,
    domain: KeyDomain,
    mu: f64,
    sigma: f64,
) -> Result<KeySet> {
    // 99.9th percentile of LogNormal(mu, sigma): exp(mu + 3.09·sigma).
    let p999 = (mu + 3.090_232 * sigma).exp();
    let span = (domain.max - domain.min) as f64;
    let scale = span / p999;
    sample_distinct(rng, n, domain, move |rng| {
        domain.min as f64 + sample_lognormal(rng, mu, sigma) * scale
    })
}

/// Generic engine: keeps sampling `f`, rounding and clamping into `domain`,
/// until `n` distinct keys accumulate.
pub fn sample_distinct<R: Rng>(
    rng: &mut R,
    n: usize,
    domain: KeyDomain,
    mut f: impl FnMut(&mut R) -> f64,
) -> Result<KeySet> {
    if n == 0 {
        return Err(LisError::EmptyKeySet);
    }
    if (n as u64) > domain.size() {
        return Err(LisError::InvalidBudget(format!(
            "cannot draw {n} distinct keys from {}",
            domain.size()
        )));
    }
    let mut set = Distinct::new(domain, n);
    for _ in 0..MAX_ROUNDS {
        let missing = n - set.len();
        if missing == 0 {
            break;
        }
        // Oversample: collisions grow as the set fills up.
        for _ in 0..missing.saturating_mul(2).max(64) {
            let v = f(rng);
            // The float clamp bounds the cast; the integer one catches a
            // bound above 2^53 that `as f64` rounded out of the domain.
            let k = v.round().clamp(domain.min as f64, domain.max as f64) as Key;
            set.insert(k.clamp(domain.min, domain.max));
            if set.len() == n {
                break;
            }
        }
    }
    if set.len() < n {
        // The distribution is too concentrated for this many distinct
        // integers (e.g. a spike narrower than n slots). Pad the remainder
        // uniformly — the paper's datasets dedup the same way (OSM latitudes
        // are scaled ×15,000 precisely "to achieve uniqueness of keys").
        while set.len() < n {
            set.insert(rng.gen_range(domain.min..=domain.max));
        }
    }
    Ok(set.into_keyset(domain))
}

/// Derives the key-domain size for a target `(keys, density)` pair, the
/// parameterization of Figures 5 and 8 ("we fix the number of keys and the
/// density and adjust the key domain accordingly").
pub fn domain_for_density(n: usize, density: f64) -> Result<KeyDomain> {
    if !(0.0 < density && density <= 1.0) {
        return Err(LisError::InvalidBudget(format!(
            "density {density} outside (0, 1]"
        )));
    }
    let m = (n as f64 / density).round().max(n as f64) as u64;
    KeyDomain::new(0, m - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::trial_rng;
    use rand::RngCore;

    /// The generators as they were before [`Distinct`]: every draw goes
    /// into a `HashSet`, which is collected and sorted by `KeySet::new`.
    mod reference {
        use super::*;

        pub fn uniform_keys<R: Rng>(rng: &mut R, n: usize, domain: KeyDomain) -> Result<KeySet> {
            let m = domain.size();
            if (n as u64) > m {
                return Err(LisError::InvalidBudget(format!(
                    "cannot draw {n} distinct keys from {m}"
                )));
            }
            if n == 0 {
                return Err(LisError::EmptyKeySet);
            }
            let keys: Vec<Key> = if (n as u64) * 2 <= m {
                let mut set = HashSet::with_capacity(n);
                while set.len() < n {
                    set.insert(rng.gen_range(domain.min..=domain.max));
                }
                set.into_iter().collect()
            } else {
                let drop_count = (m - n as u64) as usize;
                let mut drop = HashSet::with_capacity(drop_count);
                while drop.len() < drop_count {
                    drop.insert(rng.gen_range(domain.min..=domain.max));
                }
                (domain.min..=domain.max)
                    .filter(|k| !drop.contains(k))
                    .collect()
            };
            KeySet::new(keys, domain)
        }

        pub fn sample_distinct<R: Rng>(
            rng: &mut R,
            n: usize,
            domain: KeyDomain,
            mut f: impl FnMut(&mut R) -> f64,
        ) -> Result<KeySet> {
            if n == 0 {
                return Err(LisError::EmptyKeySet);
            }
            if (n as u64) > domain.size() {
                return Err(LisError::InvalidBudget(format!(
                    "cannot draw {n} distinct keys from {}",
                    domain.size()
                )));
            }
            let mut set: HashSet<Key> = HashSet::with_capacity(n);
            for _ in 0..MAX_ROUNDS {
                let missing = n - set.len();
                if missing == 0 {
                    break;
                }
                for _ in 0..missing.saturating_mul(2).max(64) {
                    let v = f(rng);
                    let k = v.round().clamp(domain.min as f64, domain.max as f64) as Key;
                    set.insert(k);
                    if set.len() == n {
                        break;
                    }
                }
            }
            while set.len() < n {
                set.insert(rng.gen_range(domain.min..=domain.max));
            }
            KeySet::new(set.into_iter().collect(), domain)
        }
    }

    /// A generator under test, run through either engine.
    #[derive(Debug, Clone, Copy)]
    enum Generator {
        Uniform,
        Normal,
        LogNormal,
        /// All mass within `width` keys of the domain's low end: narrower
        /// than `n` keys, it forces the uniform padding.
        Spike {
            width: f64,
        },
    }

    impl Generator {
        fn run(
            self,
            rng: &mut rand::rngs::StdRng,
            n: usize,
            domain: KeyDomain,
            old: bool,
        ) -> Result<KeySet> {
            let (lo, hi) = (domain.min as f64, domain.max as f64);
            let scale = (domain.max - domain.min) as f64 / (3.090_232f64 * 2.0).exp();
            let normal =
                |rng: &mut rand::rngs::StdRng| sample_normal(rng, (lo + hi) / 2.0, (hi - lo) / 3.0);
            let lognormal =
                |rng: &mut rand::rngs::StdRng| lo + sample_lognormal(rng, 0.0, 2.0) * scale;
            match (self, old) {
                (Self::Uniform, false) => uniform_keys(rng, n, domain),
                (Self::Uniform, true) => reference::uniform_keys(rng, n, domain),
                (Self::Normal, false) => normal_keys(rng, n, domain),
                (Self::Normal, true) => reference::sample_distinct(rng, n, domain, normal),
                (Self::LogNormal, false) => lognormal_keys(rng, n, domain),
                (Self::LogNormal, true) => reference::sample_distinct(rng, n, domain, lognormal),
                (Self::Spike { width }, old) => {
                    let spike = move |rng: &mut rand::rngs::StdRng| lo + rng.gen::<f64>() * width;
                    if old {
                        reference::sample_distinct(rng, n, domain, spike)
                    } else {
                        sample_distinct(rng, n, domain, spike)
                    }
                }
            }
        }
    }

    /// Runs `generator` through both engines from the same `rng` state and
    /// asserts the same keyset (or error) and the same next draw. Where the
    /// reference drew a key outside the domain (its float clamp rounded a
    /// bound above 2^53 outward), the new engine must succeed instead; its
    /// later draws may then differ, since the reference counted that key as
    /// one more distinct key.
    fn assert_matches_reference(generator: Generator, seed: u64, n: usize, domain: KeyDomain) {
        let context = format!("{generator:?} seed {seed} n {n} domain {domain}");
        let (mut new_rng, mut old_rng) = (trial_rng(seed, 7), trial_rng(seed, 7));
        let got = generator.run(&mut new_rng, n, domain, false);
        match generator.run(&mut old_rng, n, domain, true) {
            Ok(want) => assert_eq!(got.unwrap(), want, "{context}"),
            Err(LisError::KeyOutOfDomain { .. }) => {
                let got = got.unwrap();
                assert_eq!(got.len(), n, "{context}");
                assert_eq!(got.domain(), domain, "{context}");
                return;
            }
            Err(want) => assert_eq!(got.unwrap_err().to_string(), want.to_string()),
        }
        assert_eq!(new_rng.next_u64(), old_rng.next_u64(), "{context}");
    }

    #[test]
    fn every_generator_matches_the_hash_set_reference() {
        let mut cases = trial_rng(0xD15_7151C7, 0);
        for case in 0..112u64 {
            let n = cases.gen_range(1..=400usize);
            let n64 = n as u64;
            let m = match case % 7 {
                0 => 128 * n64 - 1,
                1 => 128 * n64,
                2 => 128 * n64 + 1,
                3 => n64,
                4 => n64 + 1,
                5 => cases.gen_range(n64..=4 * n64),
                _ => cases.gen_range(n64..=300 * n64),
            };
            let min = match (case / 7) % 4 {
                0 => 0,
                1 => cases.gen_range(1..=1u64 << 40),
                2 => cases.gen_range(1u64 << 53..=1u64 << 62),
                _ => u64::MAX - (m - 1),
            };
            let domain = KeyDomain::new(min, min + (m - 1)).unwrap();
            let width = cases.gen_range(0..n64) as f64;
            for generator in [
                Generator::Uniform,
                Generator::Normal,
                Generator::LogNormal,
                Generator::Spike { width },
            ] {
                assert_matches_reference(generator, case, n, domain);
            }
        }
    }

    #[test]
    fn the_bitmap_reaches_exactly_128_domain_keys_per_key() {
        for n in [1usize, 1_000] {
            let m = 128 * n as u64;
            let at = KeyDomain::new(5, 5 + m - 1).unwrap();
            assert!(matches!(Distinct::new(at, n), Distinct::Bitmap(_)));
            let above = KeyDomain::new(5, 5 + m).unwrap();
            assert!(matches!(Distinct::new(above, n), Distinct::Hash(_)));
        }
        // The full-range domain (whose size saturates) stays a hash set.
        let full = KeyDomain::new(0, u64::MAX).unwrap();
        assert!(matches!(Distinct::new(full, 1 << 20), Distinct::Hash(_)));
    }

    #[test]
    fn the_dense_complement_path_matches_at_its_extremes() {
        for (n, m) in [
            (1, 1),
            (64, 64),
            (64, 65),
            (1_000, 1_000),
            (1_000, 1_001),
            (999, 1_000),
        ] {
            for min in [0, 3, u64::MAX - (m - 1)] {
                let domain = KeyDomain::new(min, min + (m - 1)).unwrap();
                assert_matches_reference(Generator::Uniform, n, n as usize, domain);
            }
        }
    }

    #[test]
    fn normal_keys_stay_in_domains_above_2_pow_53() {
        // The float clamp rounds `2^53 + 1` down to `2^53`; the reference
        // returned `KeyOutOfDomain { key: 2^53 }` for a key it drew itself.
        let lo = (1u64 << 53) + 1;
        let domain = KeyDomain::new(lo, lo + 1_000_000).unwrap();
        let ks = normal_keys(&mut trial_rng(1, 1), 1000, domain).unwrap();
        assert_eq!(ks.len(), 1000);
        assert!(ks.min_key() >= domain.min && ks.max_key() <= domain.max);
        // At the top of the range `f64` steps by 2048 keys, so most keys
        // come from the uniform padding: through the hash set (n = 1,000,
        // m > 128·n) and through the bitmap (n = 10,000).
        let top = KeyDomain::new(u64::MAX - 1_000_000, u64::MAX).unwrap();
        for n in [1_000, 10_000] {
            let ks = normal_keys(&mut trial_rng(2, 1), n, top).unwrap();
            assert_eq!(ks.len(), n);
            assert_eq!(ks.domain(), top);
        }
    }

    #[test]
    fn uniform_exact_count_and_range() {
        let mut rng = trial_rng(1, 0);
        let domain = KeyDomain::up_to(9_999);
        for n in [10usize, 100, 5000, 9999] {
            let ks = uniform_keys(&mut rng, n, domain).unwrap();
            assert_eq!(ks.len(), n);
            assert!(ks.min_key() >= domain.min && ks.max_key() <= domain.max);
        }
    }

    #[test]
    fn uniform_dense_path() {
        let mut rng = trial_rng(2, 0);
        let domain = KeyDomain::up_to(999);
        let ks = uniform_keys(&mut rng, 900, domain).unwrap(); // 90% density
        assert_eq!(ks.len(), 900);
    }

    #[test]
    fn uniform_rejects_impossible() {
        let mut rng = trial_rng(3, 0);
        assert!(uniform_keys(&mut rng, 11, KeyDomain::up_to(9)).is_err());
        assert!(uniform_keys(&mut rng, 0, KeyDomain::up_to(9)).is_err());
    }

    #[test]
    fn normal_concentrates_at_center() {
        let mut rng = trial_rng(4, 0);
        let domain = KeyDomain::up_to(99_999);
        let ks = normal_keys(&mut rng, 5_000, domain).unwrap();
        assert_eq!(ks.len(), 5_000);
        // With σ = span/3 the central third holds ~38% of the mass — more
        // than either outer third (~31% each).
        let third = domain.size() / 3;
        let low = ks.keys().iter().filter(|&&k| k < third).count();
        let central = ks
            .keys()
            .iter()
            .filter(|&&k| k >= third && k < 2 * third)
            .count();
        let high = ks.len() - low - central;
        assert!(central > low, "central {central} vs low {low}");
        assert!(central > high, "central {central} vs high {high}");
    }

    #[test]
    fn lognormal_is_head_heavy() {
        let mut rng = trial_rng(5, 0);
        let domain = KeyDomain::up_to(999_999);
        let ks = lognormal_keys(&mut rng, 10_000, domain).unwrap();
        assert_eq!(ks.len(), 10_000);
        // The lower 10% of the domain should hold the majority of keys.
        let cutoff = domain.size() / 10;
        let head = ks.keys().iter().filter(|&&k| k < cutoff).count();
        assert!(head > ks.len() / 2, "head holds {head}/{}", ks.len());
    }

    #[test]
    fn determinism_per_seed() {
        let a = uniform_keys(&mut trial_rng(9, 1), 100, KeyDomain::up_to(10_000)).unwrap();
        let b = uniform_keys(&mut trial_rng(9, 1), 100, KeyDomain::up_to(10_000)).unwrap();
        let c = uniform_keys(&mut trial_rng(9, 2), 100, KeyDomain::up_to(10_000)).unwrap();
        assert_eq!(a.keys(), b.keys());
        assert_ne!(a.keys(), c.keys());
    }

    #[test]
    fn domain_for_density_arithmetic() {
        let d = domain_for_density(1000, 0.1).unwrap();
        assert_eq!(d.size(), 10_000);
        let d = domain_for_density(1000, 0.8).unwrap();
        assert_eq!(d.size(), 1250);
        assert!(domain_for_density(1000, 0.0).is_err());
        assert!(domain_for_density(1000, 1.5).is_err());
    }

    #[test]
    fn density_matches_request() {
        let mut rng = trial_rng(11, 0);
        let domain = domain_for_density(2000, 0.4).unwrap();
        let ks = uniform_keys(&mut rng, 2000, domain).unwrap();
        assert!((ks.density() - 0.4).abs() < 0.01);
    }

    #[test]
    fn spike_distribution_pads_uniformly() {
        // A distribution narrower than n representable slots still yields n
        // distinct keys thanks to uniform padding.
        let mut rng = trial_rng(12, 0);
        let domain = KeyDomain::up_to(10_000);
        let ks = sample_distinct(&mut rng, 500, domain, |_| 50.0).unwrap();
        assert_eq!(ks.len(), 500);
    }
}
