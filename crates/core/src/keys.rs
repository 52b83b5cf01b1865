//! Key sets: sorted, deduplicated collections of integer keys.
//!
//! The paper (Section III) models an index over a set `K ⊆ 𝒦` of `n`
//! distinct non-negative integer keys drawn from a key universe `𝒦` of size
//! `m`. Every key has a *rank* — its 1-based position in the sorted order —
//! and the (non-normalized) CDF of the keyset maps each key to its rank.
//!
//! [`KeySet`] is the canonical representation used throughout the
//! workspace: a sorted `Vec<u64>` with no duplicates, paired with the key
//! universe it was drawn from. It exposes rank queries, gap iteration (the
//! maximal runs of unoccupied keys that the poisoning attack mines for
//! candidates), and density accounting.
//!
//! A keyset that takes writes in batches does not pay the array shift per
//! write: a [`Stage`] collects validated operations, [`KeyView`] reads
//! "keyset plus stage" as if they were already applied, and
//! [`KeySet::commit`] merges the stage in one pass.
//!
//! The key array is shared, not owned: cloning a keyset and building an
//! index over it ([`KeySet::shared_keys`]) hand out the same array in
//! `O(1)`, and nothing ever writes an array another holder can see.

use crate::error::{LisError, Result};
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::sync::Arc;

/// A key is a non-negative integer, as in the paper (Section III,
/// "for simplicity, we assume that keys are non-negative integers").
pub type Key = u64;

/// The 1-based rank of a key inside a [`KeySet`].
pub type Rank = usize;

/// Inclusive integer key universe `𝒦 = [min, max]`.
///
/// The density of a keyset is `n / m` where `m = max - min + 1` is the
/// universe size. Poisoning candidates are restricted to this range so the
/// attack never plants detectable out-of-range outliers (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyDomain {
    /// Smallest admissible key (inclusive).
    pub min: Key,
    /// Largest admissible key (inclusive).
    pub max: Key,
}

impl KeyDomain {
    /// Creates a domain `[min, max]`. Errors if `min > max`.
    pub fn new(min: Key, max: Key) -> Result<Self> {
        if min > max {
            return Err(LisError::InvalidDomain { min, max });
        }
        Ok(Self { min, max })
    }

    /// Domain `[0, max]`, the common case for synthetic workloads.
    pub fn up_to(max: Key) -> Self {
        Self { min: 0, max }
    }

    /// Number of keys in the universe, `m = max - min + 1`.
    ///
    /// Saturates at `u64::MAX` for the degenerate full-range domain.
    pub fn size(&self) -> u64 {
        (self.max - self.min).saturating_add(1)
    }

    /// Whether `key` lies inside the domain.
    pub fn contains(&self, key: Key) -> bool {
        (self.min..=self.max).contains(&key)
    }
}

impl fmt::Display for KeyDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.min, self.max)
    }
}

/// A maximal run of consecutive *unoccupied* keys between two occupied keys
/// (or between an occupied key and a domain boundary).
///
/// For the keyset `{2, 6, 7, 12}` on domain `[1, 13]` the gaps are `{1}`,
/// `{3,4,5}`, `{8..11}`, `{13}` — exactly the subsequences of the running
/// example in Section IV-C of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gap {
    /// First unoccupied key of the run (inclusive).
    pub lo: Key,
    /// Last unoccupied key of the run (inclusive).
    pub hi: Key,
    /// Rank a key inserted anywhere in this gap would take
    /// (i.e. one plus the number of existing keys smaller than `lo`).
    pub insert_rank: Rank,
}

impl Gap {
    /// Number of unoccupied keys in the run.
    pub fn len(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// `true` iff the gap is empty (never produced by [`KeySet::gaps`]).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The candidate poisoning keys of this gap: its endpoints.
    ///
    /// By the per-gap convexity of the loss sequence (Theorem 2) the loss is
    /// maximised at one of the two endpoints, so these are the only keys the
    /// optimal attack must evaluate.
    pub fn endpoints(&self) -> impl Iterator<Item = Key> {
        let second = if self.hi != self.lo {
            Some(self.hi)
        } else {
            None
        };
        std::iter::once(self.lo).chain(second)
    }
}

/// A sorted, duplicate-free set of keys together with its domain.
///
/// This is the training set of every learned-index model in the workspace:
/// the CDF pairs are `(self.keys[i], i + 1)`.
///
/// `clone` is `O(1)`: clones share the key array. [`KeySet::insert`]/
/// [`KeySet::remove`] copy a shared array before writing it, and
/// [`KeySet::commit`] always merges into a fresh one, so an array never
/// changes under a clone or an index built from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySet {
    keys: Arc<Vec<Key>>,
    domain: KeyDomain,
}

impl KeySet {
    /// Builds a keyset from arbitrary (unsorted, possibly duplicated) keys.
    ///
    /// Keys are sorted and deduplicated. Errors if any key falls outside
    /// `domain` or if the resulting set is empty.
    ///
    /// Already strictly-sorted input (workload generators on the dense
    /// path, files written by `lis-cli generate`, partition slices) is
    /// detected in one `O(n)` scan and skips the sort and dedup entirely —
    /// the common build-plane case pays no re-sorting tax.
    pub fn new(mut keys: Vec<Key>, domain: KeyDomain) -> Result<Self> {
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            keys.sort_unstable();
            keys.dedup();
        }
        if keys.is_empty() {
            return Err(LisError::EmptyKeySet);
        }
        if keys[0] < domain.min || *keys.last().unwrap() > domain.max {
            return Err(LisError::KeyOutOfDomain {
                key: if keys[0] < domain.min {
                    keys[0]
                } else {
                    *keys.last().unwrap()
                },
                domain,
            });
        }
        Ok(Self {
            keys: Arc::new(keys),
            domain,
        })
    }

    /// Builds a keyset whose domain is exactly `[min(keys), max(keys)]`.
    pub fn from_keys(keys: Vec<Key>) -> Result<Self> {
        if keys.is_empty() {
            return Err(LisError::EmptyKeySet);
        }
        let min = *keys.iter().min().unwrap();
        let max = *keys.iter().max().unwrap();
        Self::new(keys, KeyDomain { min, max })
    }

    /// Builds from keys that the caller guarantees are sorted and distinct.
    ///
    /// Verified with a debug assertion; use [`KeySet::new`] when unsure.
    pub fn from_sorted_unchecked(keys: Vec<Key>, domain: KeyDomain) -> Self {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly sorted"
        );
        debug_assert!(!keys.is_empty());
        Self {
            keys: Arc::new(keys),
            domain,
        }
    }

    /// The sorted keys.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The sorted key array itself, shared in `O(1)` — what an index
    /// built over this keyset stores instead of a copy. No holder ever
    /// sees it change.
    pub fn shared_keys(&self) -> Arc<Vec<Key>> {
        Arc::clone(&self.keys)
    }

    /// The key domain (universe) this set was drawn from.
    pub fn domain(&self) -> KeyDomain {
        self.domain
    }

    /// Number of keys, `n`.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` iff the set holds no keys (unreachable for constructed sets).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Density `n / m` of the keyset over its domain.
    pub fn density(&self) -> f64 {
        self.keys.len() as f64 / self.domain.size() as f64
    }

    /// Smallest key.
    pub fn min_key(&self) -> Key {
        self.keys[0]
    }

    /// Largest key.
    pub fn max_key(&self) -> Key {
        *self.keys.last().unwrap()
    }

    /// Whether `key` is a member of the set (binary search).
    pub fn contains(&self, key: Key) -> bool {
        self.keys.binary_search(&key).is_ok()
    }

    /// 1-based rank of `key` if present.
    pub fn rank(&self, key: Key) -> Option<Rank> {
        self.keys.binary_search(&key).ok().map(|i| i + 1)
    }

    /// Rank that `key` *would take* if inserted: one plus the number of
    /// existing keys strictly smaller than `key`.
    ///
    /// This is the `T(i)` sequence of Algorithm 1.
    pub fn insertion_rank(&self, key: Key) -> Rank {
        self.keys.partition_point(|&k| k < key) + 1
    }

    /// Number of existing keys strictly greater than `key`.
    ///
    /// The poisoning loss oracle needs this count `c`: inserting `key`
    /// increments the rank of exactly these `c` keys (the compound effect of
    /// Section IV-B).
    pub fn count_above(&self, key: Key) -> usize {
        self.keys.len() - self.keys.partition_point(|&k| k <= key)
    }

    /// Iterates the CDF pairs `(key, rank)` with ranks `1..=n`.
    pub fn cdf_pairs(&self) -> impl Iterator<Item = (Key, Rank)> + '_ {
        self.keys.iter().enumerate().map(|(i, &k)| (k, i + 1))
    }

    /// Maximal runs of unoccupied keys *strictly between* the smallest and
    /// largest existing key.
    ///
    /// The optimal attack deliberately ignores the runs that touch the
    /// domain boundary: inserting below `min(K)` or above `max(K)` would
    /// create an out-of-range outlier that simple mitigations remove
    /// (Section IV-C). Use [`KeySet::gaps_in_domain`] for the unrestricted
    /// variant.
    pub fn gaps(&self) -> Vec<Gap> {
        let mut gaps = Vec::new();
        for (i, w) in self.keys.windows(2).enumerate() {
            if w[1] - w[0] > 1 {
                gaps.push(Gap {
                    lo: w[0] + 1,
                    hi: w[1] - 1,
                    insert_rank: i + 2,
                });
            }
        }
        gaps
    }

    /// Maximal runs of unoccupied keys over the *whole* domain, including
    /// the runs below `min(K)` and above `max(K)`.
    pub fn gaps_in_domain(&self) -> Vec<Gap> {
        let mut gaps = Vec::new();
        if self.keys[0] > self.domain.min {
            gaps.push(Gap {
                lo: self.domain.min,
                hi: self.keys[0] - 1,
                insert_rank: 1,
            });
        }
        gaps.extend(self.gaps());
        let last = *self.keys.last().unwrap();
        if last < self.domain.max {
            gaps.push(Gap {
                lo: last + 1,
                hi: self.domain.max,
                insert_rank: self.keys.len() + 1,
            });
        }
        gaps
    }

    /// Total number of unoccupied keys strictly between min and max key.
    pub fn free_slots_between(&self) -> u64 {
        self.gaps().iter().map(Gap::len).sum()
    }

    /// Returns a new keyset with `key` inserted. Errors if `key` is already
    /// present or outside the domain.
    pub fn with_key(&self, key: Key) -> Result<Self> {
        let mut next = self.clone();
        next.insert(key)?;
        Ok(next)
    }

    /// Inserts `key` in place (into a private copy if the array is
    /// shared), keeping sorted order.
    pub fn insert(&mut self, key: Key) -> Result<()> {
        if !self.domain.contains(key) {
            return Err(LisError::KeyOutOfDomain {
                key,
                domain: self.domain,
            });
        }
        match self.keys.binary_search(&key) {
            Ok(_) => Err(LisError::DuplicateKey(key)),
            Err(pos) => {
                Arc::make_mut(&mut self.keys).insert(pos, key);
                Ok(())
            }
        }
    }

    /// Removes `key` in place (from a private copy if the array is
    /// shared). Errors if absent.
    pub fn remove(&mut self, key: Key) -> Result<()> {
        match self.keys.binary_search(&key) {
            Ok(pos) => {
                Arc::make_mut(&mut self.keys).remove(pos);
                Ok(())
            }
            Err(_) => Err(LisError::KeyNotFound(key)),
        }
    }

    /// Merges another set of keys, in any order, into this keyset in one
    /// [`KeySet::commit`]. Each key is validated like [`KeySet::insert`];
    /// on the first key that is out of domain or a duplicate (of a member
    /// or of an earlier key of `keys`), returns that error and leaves the
    /// keyset unchanged.
    pub fn insert_all<I: IntoIterator<Item = Key>>(&mut self, keys: I) -> Result<()> {
        let mut stage = Stage::new();
        for k in keys {
            stage.insert(self, k)?;
        }
        self.commit(&mut stage);
        Ok(())
    }

    /// Merges `stage` into a fresh key array and leaves it empty: the
    /// result equals applying the staged operations one by one with
    /// [`KeySet::insert`]/[`KeySet::remove`], for one `O(n)` pass instead
    /// of one per operation.
    ///
    /// The merge walks the staged keys in order, copying the run of array
    /// keys below each one, then the staged key if it is an add (a
    /// removed key's place is skipped) — every surviving key is copied
    /// exactly once. It never writes the old array, so clones of this
    /// keyset and indexes sharing its array keep answering as before.
    ///
    /// `stage` must have been filled against this keyset since its last
    /// commit (see [`Stage`]).
    pub fn commit(&mut self, stage: &mut Stage) {
        let old = &self.keys;
        let mut merged = Vec::with_capacity(old.len().wrapping_add_signed(stage.net));
        let mut run = 0;
        for (&key, &op) in &stage.pending {
            let place = run + old[run..].partition_point(|&k| k < key);
            merged.extend_from_slice(&old[run..place]);
            run = match op {
                Pending::Add => {
                    merged.push(key);
                    place
                }
                Pending::Remove => place + 1,
            };
        }
        merged.extend_from_slice(&old[run..]);
        self.keys = Arc::new(merged);
        stage.clear();
    }

    /// Splits the keyset into `parts` contiguous partitions of (near-)equal
    /// size, the partition scheme of the two-stage RMI evaluated in the
    /// paper ("a partition of non-overlapping keyset of equal size assigned
    /// to models on the leaves", Section III-A).
    ///
    /// The first `n % parts` partitions receive one extra key. Each returned
    /// keyset keeps the parent domain restricted to its own key span.
    pub fn partition(&self, parts: usize) -> Result<Vec<KeySet>> {
        Ok(self
            .partition_bounds(parts)?
            .into_iter()
            .map(|range| {
                let slice = &self.keys[range];
                KeySet {
                    keys: Arc::new(slice.to_vec()),
                    domain: KeyDomain {
                        min: slice[0],
                        max: *slice.last().unwrap(),
                    },
                }
            })
            .collect())
    }

    /// The index ranges of [`KeySet::partition`] without copying any keys —
    /// the zero-copy partition view the parallel build plane trains on.
    /// Range `i` covers partition `i`'s keys in [`KeySet::keys`].
    pub fn partition_bounds(&self, parts: usize) -> Result<Vec<std::ops::Range<usize>>> {
        if parts == 0 || parts > self.keys.len() {
            return Err(LisError::InvalidPartition {
                parts,
                keys: self.keys.len(),
            });
        }
        let n = self.keys.len();
        let base = n / parts;
        let extra = n % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0;
        for i in 0..parts {
            let len = base + usize::from(i < extra);
            out.push(start..start + len);
            start += len;
        }
        Ok(out)
    }
}

impl fmt::Display for KeySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeySet(n={}, domain={}, density={:.2}%)",
            self.len(),
            self.domain,
            100.0 * self.density()
        )
    }
}

/// Read access to a sorted duplicate-free key collection — what a write
/// screen may ask of "the keyset as of this operation" without caring
/// whether that is a materialized [`KeySet`] or a keyset with writes
/// [staged](Stage) on top. `&KeySet` coerces to `&dyn KeyView`.
pub trait KeyView {
    /// Number of keys.
    fn len(&self) -> usize;

    /// `true` iff the view holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is a member.
    fn contains(&self, key: Key) -> bool;

    /// The `i`-th key strictly below `key`, counting down from the
    /// nearest (`i = 0` is the predecessor).
    fn nth_below(&self, key: Key, i: usize) -> Option<Key>;

    /// The `i`-th key at or above `key`, counting up from the nearest
    /// (`i = 0` is `key` itself when it is a member, else its successor).
    fn nth_at_or_above(&self, key: Key, i: usize) -> Option<Key>;
}

impl KeyView for KeySet {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn contains(&self, key: Key) -> bool {
        KeySet::contains(self, key)
    }

    fn nth_below(&self, key: Key, i: usize) -> Option<Key> {
        let below = self.keys.partition_point(|&k| k < key);
        Some(self.keys[below.checked_sub(i)?.checked_sub(1)?])
    }

    fn nth_at_or_above(&self, key: Key, i: usize) -> Option<Key> {
        let below = self.keys.partition_point(|&k| k < key);
        self.keys.get(below.checked_add(i)?).copied()
    }
}

/// What a [`Stage`] holds for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// The key is absent from the keyset and will be inserted.
    Add,
    /// The key is a member of the keyset and will be removed.
    Remove,
}

/// Writes accepted against a [`KeySet`] but not yet merged into its
/// array: the write plane stages a whole batch, then pays the `O(n)`
/// array pass once in [`KeySet::commit`] instead of once per write.
///
/// Every operation is validated on entry exactly as [`KeySet::insert`]/
/// [`KeySet::remove`] validate it, against the keyset *plus everything
/// staged so far* — read that combination through [`Stage::over`]. An
/// operation that undoes a staged one cancels it (insert-then-remove of
/// a new key, remove-then-reinsert of a member), so the stage only ever
/// holds keys absent from the keyset to add and members to remove, in
/// key order, at `O(log k)` per operation for `k` staged keys.
///
/// A stage is tied to the one keyset its operations were validated
/// against until it is committed or cleared.
#[derive(Debug, Clone, Default)]
pub struct Stage {
    pending: BTreeMap<Key, Pending>,
    /// Staged adds minus staged removes.
    net: isize,
}

impl Stage {
    /// An empty stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` iff nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drops everything staged; the keyset never saw it.
    pub fn clear(&mut self) {
        self.pending.clear();
        self.net = 0;
    }

    /// Stages an insert of `key`. Errors, like [`KeySet::insert`], if the
    /// key lies outside `base`'s domain or is already a member of the
    /// staged view.
    pub fn insert(&mut self, base: &KeySet, key: Key) -> Result<()> {
        if !base.domain.contains(key) {
            return Err(LisError::KeyOutOfDomain {
                key,
                domain: base.domain,
            });
        }
        match self.pending.entry(key) {
            Entry::Occupied(staged) if *staged.get() == Pending::Remove => {
                staged.remove();
            }
            Entry::Vacant(slot) if !base.contains(key) => {
                slot.insert(Pending::Add);
            }
            _ => return Err(LisError::DuplicateKey(key)),
        }
        self.net += 1;
        Ok(())
    }

    /// Stages a removal of `key`. Errors, like [`KeySet::remove`], if the
    /// key is not a member of the staged view.
    pub fn remove(&mut self, base: &KeySet, key: Key) -> Result<()> {
        match self.pending.entry(key) {
            Entry::Occupied(staged) if *staged.get() == Pending::Add => {
                staged.remove();
            }
            Entry::Vacant(slot) if base.contains(key) => {
                slot.insert(Pending::Remove);
            }
            _ => return Err(LisError::KeyNotFound(key)),
        }
        self.net -= 1;
        Ok(())
    }

    /// The keyset as it will be once this stage is committed to `base`.
    pub fn over<'a>(&'a self, base: &'a KeySet) -> Staged<'a> {
        Staged { base, stage: self }
    }
}

/// A [`KeySet`] seen through the writes [staged](Stage) on top of it:
/// every answer equals the same query on the committed keyset.
#[derive(Debug, Clone, Copy)]
pub struct Staged<'a> {
    base: &'a KeySet,
    stage: &'a Stage,
}

impl Staged<'_> {
    fn survives(&self, key: &Key) -> bool {
        self.stage.pending.get(key) != Some(&Pending::Remove)
    }
}

fn added((&key, &op): (&Key, &Pending)) -> Option<Key> {
    (op == Pending::Add).then_some(key)
}

/// The `n`-th key of two sorted streams merged, where `first(x, y)` says
/// `x` comes before `y` in the streams' common order.
fn nth_merged(
    a: impl Iterator<Item = Key>,
    b: impl Iterator<Item = Key>,
    n: usize,
    first: impl Fn(Key, Key) -> bool,
) -> Option<Key> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(|| match (a.peek(), b.peek()) {
        (Some(&x), Some(&y)) if first(y, x) => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
    .nth(n)
}

impl KeyView for Staged<'_> {
    fn len(&self) -> usize {
        self.base.len().wrapping_add_signed(self.stage.net)
    }

    fn contains(&self, key: Key) -> bool {
        match self.stage.pending.get(&key) {
            Some(&op) => op == Pending::Add,
            None => self.base.contains(key),
        }
    }

    fn nth_below(&self, key: Key, i: usize) -> Option<Key> {
        let keys = self.base.keys();
        let below = &keys[..keys.partition_point(|&k| k < key)];
        let kept = below.iter().rev().filter(|k| self.survives(k)).copied();
        let adds = self.stage.pending.range(..key).rev().filter_map(added);
        nth_merged(kept, adds, i, |x, y| x > y)
    }

    fn nth_at_or_above(&self, key: Key, i: usize) -> Option<Key> {
        let keys = self.base.keys();
        let above = &keys[keys.partition_point(|&k| k < key)..];
        let kept = above.iter().filter(|k| self.survives(k)).copied();
        let adds = self.stage.pending.range(key..).filter_map(added);
        nth_merged(kept, adds, i, |x, y| x < y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> KeySet {
        // Running example of Section IV-C: keys {2, 6, 7, 12} on [1, 13].
        KeySet::new(vec![2, 6, 7, 12], KeyDomain::new(1, 13).unwrap()).unwrap()
    }

    #[test]
    fn new_sorts_and_dedups() {
        let ks = KeySet::new(vec![5, 1, 3, 3, 5], KeyDomain::up_to(10)).unwrap();
        assert_eq!(ks.keys(), &[1, 3, 5]);
    }

    #[test]
    fn new_rejects_empty() {
        assert!(matches!(
            KeySet::new(vec![], KeyDomain::up_to(10)),
            Err(LisError::EmptyKeySet)
        ));
    }

    #[test]
    fn new_rejects_out_of_domain() {
        assert!(KeySet::new(vec![11], KeyDomain::up_to(10)).is_err());
        assert!(KeySet::new(vec![0], KeyDomain::new(1, 10).unwrap()).is_err());
    }

    #[test]
    fn domain_size_and_density() {
        let ks = paper_example();
        assert_eq!(ks.domain().size(), 13);
        assert!((ks.density() - 4.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn rank_queries() {
        let ks = paper_example();
        assert_eq!(ks.rank(2), Some(1));
        assert_eq!(ks.rank(7), Some(3));
        assert_eq!(ks.rank(5), None);
        assert_eq!(ks.insertion_rank(1), 1);
        assert_eq!(ks.insertion_rank(3), 2);
        assert_eq!(ks.insertion_rank(8), 4);
        assert_eq!(ks.insertion_rank(13), 5);
    }

    #[test]
    fn count_above_matches_compound_effect() {
        let ks = paper_example();
        assert_eq!(ks.count_above(1), 4);
        assert_eq!(ks.count_above(2), 3);
        assert_eq!(ks.count_above(8), 1);
        assert_eq!(ks.count_above(13), 0);
    }

    #[test]
    fn gaps_match_paper_running_example() {
        let ks = paper_example();
        // Interior subsequences: {3,4,5}, {8,9,10,11}.
        let gaps = ks.gaps();
        assert_eq!(gaps.len(), 2);
        assert_eq!((gaps[0].lo, gaps[0].hi, gaps[0].insert_rank), (3, 5, 2));
        assert_eq!((gaps[1].lo, gaps[1].hi, gaps[1].insert_rank), (8, 11, 4));
        // Including boundary runs: {1} and {13}.
        let all = ks.gaps_in_domain();
        assert_eq!(all.len(), 4);
        assert_eq!((all[0].lo, all[0].hi, all[0].insert_rank), (1, 1, 1));
        assert_eq!((all[3].lo, all[3].hi, all[3].insert_rank), (13, 13, 5));
    }

    #[test]
    fn gap_endpoints() {
        let g = Gap {
            lo: 3,
            hi: 5,
            insert_rank: 2,
        };
        assert_eq!(g.endpoints().collect::<Vec<_>>(), vec![3, 5]);
        let single = Gap {
            lo: 9,
            hi: 9,
            insert_rank: 1,
        };
        assert_eq!(single.endpoints().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn insert_and_remove_roundtrip() {
        let mut ks = paper_example();
        ks.insert(9).unwrap();
        assert_eq!(ks.keys(), &[2, 6, 7, 9, 12]);
        assert!(matches!(ks.insert(9), Err(LisError::DuplicateKey(9))));
        ks.remove(9).unwrap();
        assert_eq!(ks.keys(), &[2, 6, 7, 12]);
        assert!(ks.remove(9).is_err());
    }

    #[test]
    fn insert_respects_domain() {
        let mut ks = paper_example();
        assert!(ks.insert(0).is_err());
        assert!(ks.insert(14).is_err());
    }

    #[test]
    fn cdf_pairs_are_rank_ordered() {
        let ks = paper_example();
        let pairs: Vec<_> = ks.cdf_pairs().collect();
        assert_eq!(pairs, vec![(2, 1), (6, 2), (7, 3), (12, 4)]);
    }

    #[test]
    fn partition_equal_size() {
        let ks = KeySet::from_keys((0..10).map(|i| i * 3).collect()).unwrap();
        let parts = ks.partition(3).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 4); // 10 = 4 + 3 + 3
        assert_eq!(parts[1].len(), 3);
        assert_eq!(parts[2].len(), 3);
        let merged: Vec<_> = parts.iter().flat_map(|p| p.keys().to_vec()).collect();
        assert_eq!(merged, ks.keys());
    }

    #[test]
    fn new_accepts_presorted_input_without_resorting() {
        // Strictly sorted input takes the no-sort fast path and must be
        // indistinguishable from the sorting path.
        let sorted: Vec<Key> = (0..500).map(|i| i * 3 + 1).collect();
        let fast = KeySet::new(sorted.clone(), KeyDomain::up_to(2_000)).unwrap();
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        shuffled.swap(3, 250);
        let slow = KeySet::new(shuffled, KeyDomain::up_to(2_000)).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.keys(), &sorted[..]);
        // Sorted-but-duplicated input still deduplicates.
        let dups = KeySet::new(vec![1, 2, 2, 3], KeyDomain::up_to(10)).unwrap();
        assert_eq!(dups.keys(), &[1, 2, 3]);
        // Non-decreasing-but-not-strict never sneaks past the check.
        let eq_pair = KeySet::new(vec![5, 5], KeyDomain::up_to(10)).unwrap();
        assert_eq!(eq_pair.keys(), &[5]);
    }

    #[test]
    fn partition_bounds_match_partition() {
        let ks = KeySet::from_keys((0..103).map(|i| i * 7 + 2).collect()).unwrap();
        for parts in [1usize, 3, 10, 103] {
            let bounds = ks.partition_bounds(parts).unwrap();
            let owned = ks.partition(parts).unwrap();
            assert_eq!(bounds.len(), owned.len());
            for (range, part) in bounds.iter().zip(&owned) {
                assert_eq!(&ks.keys()[range.clone()], part.keys());
            }
            assert_eq!(bounds.last().unwrap().end, ks.len());
        }
        assert!(ks.partition_bounds(0).is_err());
        assert!(ks.partition_bounds(104).is_err());
    }

    #[test]
    fn partition_rejects_bad_counts() {
        let ks = paper_example();
        assert!(ks.partition(0).is_err());
        assert!(ks.partition(5).is_err());
    }

    #[test]
    fn free_slots_between() {
        let ks = paper_example();
        assert_eq!(ks.free_slots_between(), 3 + 4);
    }

    /// Every way of toggling a 12-key universe over a 6-key base: each
    /// pattern of kept runs, adds and removes the merge can meet on a
    /// small array, both array ends included.
    #[test]
    fn commit_matches_per_op_for_every_toggle_pattern() {
        let base = KeySet::new(vec![1, 2, 5, 6, 9, 10], KeyDomain::up_to(11)).unwrap();
        for mask in 0u32..1 << 12 {
            let mut expect = base.clone();
            let mut staged = base.clone();
            let mut stage = Stage::new();
            for key in (0..12u64).filter(|k| mask >> k & 1 == 1) {
                if base.contains(key) {
                    expect.remove(key).unwrap();
                    stage.remove(&staged, key).unwrap();
                } else {
                    expect.insert(key).unwrap();
                    stage.insert(&staged, key).unwrap();
                }
                assert_eq!(stage.over(&staged).len(), expect.len());
            }
            staged.commit(&mut stage);
            assert_eq!(staged, expect, "mask {mask:012b}");
            assert!(stage.is_empty());
        }
    }

    #[test]
    fn stage_validates_like_insert_and_remove_and_cancels_undone_ops() {
        let ks = paper_example();
        let mut stage = Stage::new();
        assert!(matches!(
            stage.insert(&ks, 14),
            Err(LisError::KeyOutOfDomain { key: 14, .. })
        ));
        assert!(matches!(
            stage.insert(&ks, 6),
            Err(LisError::DuplicateKey(6))
        ));
        assert!(matches!(
            stage.remove(&ks, 9),
            Err(LisError::KeyNotFound(9))
        ));
        stage.insert(&ks, 9).unwrap();
        assert!(matches!(
            stage.insert(&ks, 9),
            Err(LisError::DuplicateKey(9))
        ));
        stage.remove(&ks, 6).unwrap();
        assert!(matches!(
            stage.remove(&ks, 6),
            Err(LisError::KeyNotFound(6))
        ));
        let view = stage.over(&ks);
        assert!(view.contains(9) && !view.contains(6));
        assert_eq!(view.nth_below(12, 0), Some(9));
        assert_eq!(view.nth_below(12, 1), Some(7));
        assert_eq!(view.nth_at_or_above(3, 0), Some(7));
        assert_eq!(view.nth_at_or_above(3, 3), None);
        // Undoing both leaves nothing to commit.
        stage.remove(&ks, 9).unwrap();
        stage.insert(&ks, 6).unwrap();
        assert!(stage.is_empty());
    }

    /// SplitMix64: a seeded key stream for the merge tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn insert_all_equals_sequential_insert_on_random_input() {
        for seed in 0..64u64 {
            let mut rng = seed;
            let domain = KeyDomain::up_to(1 + splitmix(&mut rng) % 5_000);
            let base: Vec<Key> = (0..1 + splitmix(&mut rng) % 300)
                .map(|_| splitmix(&mut rng) % (domain.max + 1))
                .collect();
            let ks = KeySet::new(base, domain).unwrap();
            // Unsorted, fresh, distinct keys from anywhere in the domain.
            let mut fresh = Vec::new();
            for _ in 0..splitmix(&mut rng) % 400 {
                let k = splitmix(&mut rng) % (domain.max + 1);
                if !ks.contains(k) && !fresh.contains(&k) {
                    fresh.push(k);
                }
            }
            let mut expect = ks.clone();
            for &k in &fresh {
                expect.insert(k).unwrap();
            }
            let mut merged = ks.clone();
            merged.insert_all(fresh.iter().copied()).unwrap();
            assert_eq!(merged, expect, "seed {seed}");
        }
    }

    #[test]
    fn insert_all_rejects_a_bad_key_and_leaves_the_keyset_unchanged() {
        let ks = paper_example();
        let cases: [(&[Key], LisError); 3] = [
            (&[9, 3, 9, 4], LisError::DuplicateKey(9)),
            (&[9, 3, 7, 4], LisError::DuplicateKey(7)),
            (
                &[9, 3, 14, 4],
                LisError::KeyOutOfDomain {
                    key: 14,
                    domain: ks.domain(),
                },
            ),
        ];
        for (input, want) in cases {
            // The error sequential insertion meets first.
            let mut sequential = ks.clone();
            let first = input.iter().find_map(|&k| sequential.insert(k).err());
            assert_eq!(first.as_ref(), Some(&want), "{input:?}");

            let mut merged = ks.clone();
            let err = merged.insert_all(input.iter().copied()).unwrap_err();
            assert_eq!(err, want, "{input:?}");
            assert_eq!(merged.keys(), ks.keys(), "{input:?} applied a prefix");
            assert_eq!(merged.domain(), ks.domain());
        }
    }

    #[test]
    fn clones_share_the_array_and_writes_never_reach_the_other_holder() {
        let ks = paper_example();
        let mut writer = ks.clone();
        assert!(Arc::ptr_eq(&ks.shared_keys(), &writer.shared_keys()));
        writer.insert(9).unwrap();
        assert_eq!(writer.keys(), &[2, 6, 7, 9, 12]);
        assert_eq!(ks.keys(), &[2, 6, 7, 12]);

        let mut writer = ks.clone();
        writer.remove(6).unwrap();
        assert_eq!(writer.keys(), &[2, 7, 12]);
        assert_eq!(ks.keys(), &[2, 6, 7, 12]);
    }

    #[test]
    fn commit_leaves_an_index_sharing_the_old_array_answering_as_before() {
        use crate::rmi::{Rmi, RmiConfig};
        let mut ks = KeySet::from_keys((1..2000u64).map(|i| i * i / 3 + 2 * i).collect()).unwrap();
        let old = ks.shared_keys();
        let rmi = Rmi::build(&ks, &RmiConfig::linear_root(16)).unwrap();
        assert_eq!(
            rmi.keys().as_ptr(),
            old.as_ptr(),
            "the index copied the keys"
        );
        let before: Vec<_> = old.iter().map(|&k| rmi.lookup(k)).collect();

        let mut stage = Stage::new();
        for (i, &k) in old.iter().enumerate().step_by(7) {
            if i % 2 == 0 {
                stage.remove(&ks, k).unwrap();
            } else if !ks.contains(k + 1) {
                stage.insert(&ks, k + 1).unwrap();
            }
        }
        ks.commit(&mut stage);
        assert!(!Arc::ptr_eq(&ks.shared_keys(), &old));
        assert_ne!(ks.keys(), &old[..]);

        for (i, (&k, &want)) in old.iter().zip(&before).enumerate() {
            assert_eq!(want.pos, Some(i));
            assert_eq!(rmi.lookup(k), want, "key {k}");
        }
    }
}
