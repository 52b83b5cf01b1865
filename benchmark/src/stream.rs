//! The seeded write stream of the online server: 80 % benign mid-gap
//! inserts from sources 0–15, 10 % Algorithm-2 campaign keys from source
//! 1000, 10 % removes of keys whose insert was acknowledged `Applied` at
//! least `remove_lag` operations earlier.
//!
//! The stream never submits a key twice and only removes keys it saw
//! applied, so the server has no reason to answer `Failed`; such an answer
//! is counted as a failed operation. Which operation comes next depends
//! only on the seed and on acknowledgements that are at least a full
//! in-flight window old, so the stream is the same on every run of a seed
//! whatever the timing.

use crate::measure::Rng;
use lis::core::keys::Key;
use lis::server::{WriteOp, WriteStatus};
use std::collections::{HashSet, VecDeque};

/// Source id the campaign writes claim.
pub const CAMPAIGN_SOURCE: u64 = 1_000;

/// Draws a key strictly inside a random gap of `keys` that `used` does not
/// hold yet, and marks it used.
pub fn mid_gap_key(rng: &mut Rng, keys: &[Key], used: &mut HashSet<Key>) -> Key {
    loop {
        let i = rng.below(keys.len() as u64 - 1) as usize;
        let gap = keys[i + 1] - keys[i];
        if gap >= 2 && used.insert(keys[i] + gap / 2) {
            return keys[i] + gap / 2;
        }
    }
}

pub struct WriteStream {
    rng: Rng,
    campaign: Vec<Key>,
    used: HashSet<Key>,
    /// Applied inserts not yet removed, oldest first, with their op number.
    applied: VecDeque<(u64, Key)>,
    remove_lag: u64,
    submitted: u64,
    /// Keys the server must hold at the end: applied and not removed.
    pub live: HashSet<Key>,
    /// Keys the server must not hold at the end: removed with an `Applied`.
    pub removed: Vec<Key>,
    pub applied_total: u64,
    pub rejected_total: u64,
}

impl WriteStream {
    /// `campaign` are the pre-generated poison keys (none of them a member
    /// of the base keyset), handed out in the given order.
    pub fn new(seed: u64, campaign: Vec<Key>, remove_lag: u64) -> Self {
        Self {
            rng: Rng::new(seed, 4),
            used: campaign.iter().copied().collect(),
            campaign,
            applied: VecDeque::new(),
            remove_lag,
            submitted: 0,
            live: HashSet::new(),
            removed: Vec::new(),
            applied_total: 0,
            rejected_total: 0,
        }
    }

    /// The next operation and its source. `base` is the server's bootstrap
    /// keyset, whose gaps the benign inserts land in.
    pub fn next_op(&mut self, base: &[Key]) -> (WriteOp, u64) {
        let number = self.submitted;
        self.submitted += 1;
        match self.rng.below(10) {
            0 => {
                if let Some(key) = self.campaign.pop() {
                    return (WriteOp::Insert(key), CAMPAIGN_SOURCE);
                }
            }
            1 => {
                let due = self
                    .applied
                    .front()
                    .is_some_and(|&(at, _)| at + self.remove_lag <= number);
                if due {
                    let (_, key) = self.applied.pop_front().expect("front checked");
                    return (WriteOp::Remove(key), self.rng.below(16));
                }
            }
            _ => {}
        }
        let key = mid_gap_key(&mut self.rng, base, &mut self.used);
        (WriteOp::Insert(key), self.rng.below(16))
    }

    /// Books the server's answer to operation `number` (its position in
    /// the stream). Returns `false` for `Failed`, which must not happen.
    pub fn resolve(&mut self, number: u64, op: WriteOp, status: &WriteStatus) -> bool {
        match (status, op) {
            (WriteStatus::Applied { .. }, WriteOp::Insert(key)) => {
                self.applied.push_back((number, key));
                self.live.insert(key);
                self.applied_total += 1;
                true
            }
            (WriteStatus::Applied { .. }, WriteOp::Remove(key)) => {
                self.live.remove(&key);
                self.removed.push(key);
                self.applied_total += 1;
                true
            }
            (WriteStatus::Rejected { .. }, _) => {
                self.rejected_total += 1;
                true
            }
            (WriteStatus::Failed { .. }, _) => false,
        }
    }

    pub fn submitted(&self) -> u64 {
        self.submitted
    }
}
