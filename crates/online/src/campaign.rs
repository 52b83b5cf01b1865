//! The live Algorithm-2 campaign: plan offline once, poison online
//! through the serve path, adapt to rejections.
//!
//! Algorithm 2 solves two problems: how much poison each second-stage
//! model deserves (volume allocation, via bounded exchanges) and which
//! keys to place (greedy CDF poisoning inside each model's key range).
//! Splitting those matches the online threat model exactly: the attacker
//! plans the *allocation* once against a snapshot they can read, then
//! spends the budget as a write stream — and each next key is chosen
//! against the keyset *as it currently stands*, members plus every poison
//! key the server has actually accepted, using the O(1)-update
//! [`IncrementalOracle`] so the attacker never rebuilds anything.
//!
//! Rejections feed back: a key turned away by admission control is banned
//! and the campaign moves to its next-best candidate in that model's
//! region, so a defense is scored against an *adaptive* adversary, not a
//! replayed trace. A region whose candidates are exhausted does not
//! forfeit: its remaining budget is *redistributed* to the surviving
//! regions, highest-loss candidates first, so walling off one model only
//! concentrates the attack elsewhere. The budget is lost only when every
//! region is exhausted — the defender's win shows up as unspent budget
//! plus rejected writes, and must be earned across the whole key space.

use lis_core::error::Result;
use lis_core::keys::{Key, KeySet};
use lis_poison::{rmi_attack, IncrementalOracle, RmiAttackConfig};
use lis_server::{ServerHandle, WriteOp, WriteStatus, WriteTicket};
use std::collections::{BTreeMap, BTreeSet};

/// Parameters of an online poisoning campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Poison budget as a percentage of the victim keyset (`φ·100`).
    pub poison_percent: f64,
    /// Target second-stage model size the planner assumes (the victim's
    /// `leaves_for` heuristic uses ~100 keys per model).
    pub model_size: usize,
    /// Per-model stealth multiplier `α` of Algorithm 2.
    pub alpha: f64,
    /// Cap on planner exchanges (Algorithm 2's allocation loop).
    pub max_exchanges: usize,
    /// Attempt budget as a multiple of the poison budget: the campaign
    /// gives up after `attempt_factor × planned` submissions, so a
    /// rejecting defense terminates it.
    pub attempt_factor: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            poison_percent: 10.0,
            model_size: 100,
            alpha: 3.0,
            max_exchanges: 64,
            attempt_factor: 4,
        }
    }
}

/// One second-stage model's share of the campaign: its legitimate key
/// range (as planned), the live view of keys in that range, and the
/// remaining volume.
struct Region {
    /// Sorted live view: planned legit keys plus accepted poison.
    keys: Vec<Key>,
    /// Moment oracle over `keys`, updated in O(1) per accepted write.
    oracle: IncrementalOracle,
    /// Poison keys this region is still owed.
    remaining: usize,
    /// Keys the server rejected or failed — never retried.
    banned: BTreeSet<Key>,
}

impl Region {
    /// Best unbanned, not-in-flight gap-endpoint candidate by oracle loss.
    fn best_candidate(&self, inflight: &BTreeMap<Key, usize>) -> Option<Key> {
        let mut best: Option<(f64, Key)> = None;
        for w in self.keys.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b - a < 2 {
                continue;
            }
            for c in [a + 1, b - 1] {
                if self.banned.contains(&c) || inflight.contains_key(&c) {
                    continue;
                }
                let score = self.oracle.loss_insert(c);
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, c));
                }
                if a + 1 == b - 1 {
                    break;
                }
            }
        }
        best.map(|(_, c)| c)
    }
}

/// A live Algorithm-2 poisoning campaign (see the module docs).
pub struct Campaign {
    regions: Vec<Region>,
    /// Round-robin cursor so every model drains its volume concurrently,
    /// mirroring Algorithm 2's spread rather than finishing one model
    /// before starting the next.
    cursor: usize,
    /// Key → region routing for in-flight writes.
    inflight: BTreeMap<Key, usize>,
    planned: usize,
    submitted: usize,
    applied: usize,
    rejected: usize,
    failed: usize,
    /// Poison keys moved from exhausted regions to viable ones.
    redistributed: usize,
    max_attempts: usize,
    applied_keys: Vec<Key>,
}

impl Campaign {
    /// Plans a campaign against a read snapshot of the victim keyset:
    /// one offline `rmi_attack` run fixes the per-model volume
    /// allocation, then each model's budget becomes a `Region` with a
    /// live oracle. Models allocated zero poison are skipped.
    pub fn plan(ks: &KeySet, cfg: &CampaignConfig) -> Result<Self> {
        let num_models = (ks.len() / cfg.model_size.max(1)).max(1);
        let attack_cfg = RmiAttackConfig::new(cfg.poison_percent)
            .with_alpha(cfg.alpha)
            .with_max_exchanges(cfg.max_exchanges);
        let plan = rmi_attack(ks, num_models, &attack_cfg)?;
        let mut regions = Vec::new();
        let mut planned = 0usize;
        for model in &plan.models {
            if model.poison.is_empty() || model.legit.len() < 2 {
                continue;
            }
            planned += model.poison.len();
            regions.push(Region {
                oracle: IncrementalOracle::from_sorted_keys(&model.legit),
                keys: model.legit.clone(),
                remaining: model.poison.len(),
                banned: BTreeSet::new(),
            });
        }
        Ok(Self {
            regions,
            cursor: 0,
            inflight: BTreeMap::new(),
            planned,
            submitted: 0,
            applied: 0,
            rejected: 0,
            failed: 0,
            redistributed: 0,
            max_attempts: planned.saturating_mul(cfg.attempt_factor.max(1)),
            applied_keys: Vec::with_capacity(planned),
        })
    }

    /// Picks the next poison key: round-robin over regions with budget
    /// left, best-loss candidate within the region. A region whose every
    /// candidate is banned re-plans instead of forfeiting: its remaining
    /// budget moves to the regions that can still place keys (see
    /// `Campaign::redistribute`). Returns `None` when the campaign is
    /// spent (budget filled, every region exhausted, or attempt cap hit)
    /// — callers must later [`Campaign::ack`] every key taken.
    pub fn next_key(&mut self) -> Option<Key> {
        if self.submitted >= self.max_attempts || self.regions.is_empty() {
            return None;
        }
        let n = self.regions.len();
        // Each sweep either yields a key, or moves budget out of newly
        // exhausted regions and sweeps again. Bans never change inside
        // this call and budget only lands on regions with an open
        // candidate, so a productive sweep strictly shrinks the set of
        // budget-holding exhausted regions — the loop terminates.
        loop {
            let mut moved = false;
            for step in 0..n {
                let idx = (self.cursor + step) % n;
                let region = &mut self.regions[idx];
                if region.remaining == 0 {
                    continue;
                }
                match region.best_candidate(&self.inflight) {
                    Some(key) => {
                        self.cursor = (idx + 1) % n;
                        self.inflight.insert(key, idx);
                        self.submitted += 1;
                        return Some(key);
                    }
                    None => {
                        // Only gap endpoints are ever candidates; if every
                        // one is banned (not merely in flight), the region
                        // can make no progress — move its budget to the
                        // regions that still can.
                        let exhausted = region.keys.windows(2).all(|w| {
                            let (a, b) = (w[0], w[1]);
                            b - a < 2 || [a + 1, b - 1].iter().all(|c| region.banned.contains(c))
                        });
                        if exhausted {
                            let forfeit = std::mem::take(&mut region.remaining);
                            if forfeit > 0 && self.redistribute(idx, forfeit) {
                                moved = true;
                            }
                        }
                    }
                }
            }
            if !moved {
                return None;
            }
        }
    }

    /// Splits `budget` keys forfeited by exhausted region `from` across
    /// the regions that can still place a candidate, evenly, with the
    /// remainder going to the highest-loss regions first — the defender
    /// walling off one model concentrates the attack where it still
    /// hurts most. Returns `false` (budget genuinely lost) when no
    /// region can absorb it.
    fn redistribute(&mut self, from: usize, budget: usize) -> bool {
        let mut viable: Vec<(f64, usize)> = Vec::new();
        for (i, region) in self.regions.iter().enumerate() {
            if i == from {
                continue;
            }
            if let Some(key) = region.best_candidate(&self.inflight) {
                viable.push((region.oracle.loss_insert(key), i));
            }
        }
        if viable.is_empty() {
            return false;
        }
        viable.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let share = budget / viable.len();
        let mut extra = budget % viable.len();
        for &(_, i) in &viable {
            let mut grant = share;
            if extra > 0 {
                grant += 1;
                extra -= 1;
            }
            self.regions[i].remaining += grant;
        }
        self.redistributed += budget;
        true
    }

    /// Feeds back the server's verdict on a key from [`Campaign::next_key`].
    /// Applied keys join the region's live view (oracle updated in O(1));
    /// rejected or failed keys are banned so the campaign adapts instead
    /// of retrying.
    pub fn ack(&mut self, key: Key, status: &WriteStatus) {
        let Some(region_idx) = self.inflight.remove(&key) else {
            return;
        };
        let region = &mut self.regions[region_idx];
        match status {
            WriteStatus::Applied { .. } => {
                let pos = region.keys.binary_search(&key).unwrap_or_else(|p| p);
                region.keys.insert(pos, key);
                let _ = region.oracle.insert(key);
                region.remaining = region.remaining.saturating_sub(1);
                self.applied += 1;
                self.applied_keys.push(key);
            }
            WriteStatus::Rejected { .. } => {
                region.banned.insert(key);
                self.rejected += 1;
            }
            WriteStatus::Failed { .. } => {
                region.banned.insert(key);
                self.failed += 1;
            }
        }
    }

    /// Total poison keys the offline plan allocated.
    pub fn planned(&self) -> usize {
        self.planned
    }

    /// Writes submitted so far.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Writes the server applied.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Writes admission control rejected.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Writes that failed validation.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Poison keys whose home region was exhausted and whose budget was
    /// re-planned onto other regions instead of forfeited.
    pub fn redistributed(&self) -> usize {
        self.redistributed
    }

    /// The poison keys the server accepted, in application order.
    pub fn applied_keys(&self) -> &[Key] {
        &self.applied_keys
    }

    /// `true` once the campaign can make no further progress.
    pub fn done(&self) -> bool {
        self.submitted >= self.max_attempts || self.regions.iter().all(|r| r.remaining == 0)
    }
}

/// Drives `campaign` through `handle` with up to `window` writes in
/// flight, acknowledging each verdict back into the campaign. Returns
/// when the campaign is spent. `source` is the identity every campaign
/// write claims — per-source rate limiting keys on it.
pub fn run_campaign(
    handle: &ServerHandle,
    campaign: &mut Campaign,
    source: u64,
    window: usize,
) -> Result<()> {
    let window = window.max(1);
    let mut batch: Vec<(Key, WriteTicket)> = Vec::with_capacity(window);
    loop {
        batch.clear();
        while batch.len() < window {
            match campaign.next_key() {
                Some(key) => {
                    let ticket = handle.submit_write(WriteOp::Insert(key), source)?;
                    batch.push((key, ticket));
                }
                None => break,
            }
        }
        if batch.is_empty() {
            return Ok(());
        }
        for (key, ticket) in batch.drain(..) {
            let status = ticket.wait()?;
            campaign.ack(key, &status);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: u64, step: u64) -> KeySet {
        KeySet::from_keys((0..n).map(|i| i * step).collect()).unwrap()
    }

    #[test]
    fn plan_allocates_the_paper_budget() {
        let ks = uniform(2_000, 10);
        let campaign = Campaign::plan(&ks, &CampaignConfig::default()).unwrap();
        // 10% of 2000 = 200 keys across the planned regions.
        assert_eq!(campaign.planned(), 200);
        assert!(!campaign.done());
    }

    #[test]
    fn next_key_targets_gaps_and_acks_update_state() {
        let ks = uniform(1_000, 10);
        let mut campaign = Campaign::plan(&ks, &CampaignConfig::default()).unwrap();
        let key = campaign.next_key().expect("campaign has budget");
        // Poison lands strictly inside the key range, never on a member.
        assert!(key > 0 && key < 9_990);
        assert!(!ks.contains(key));
        campaign.ack(key, &WriteStatus::Applied { epoch: 1 });
        assert_eq!(campaign.applied(), 1);
        assert_eq!(campaign.applied_keys(), &[key]);
        // A rejected key is banned: it never comes back.
        let second = campaign.next_key().expect("budget left");
        campaign.ack(second, &WriteStatus::Rejected { filter: "x".into() });
        assert_eq!(campaign.rejected(), 1);
        for _ in 0..50 {
            match campaign.next_key() {
                Some(k) => {
                    assert_ne!(k, second, "banned key resubmitted");
                    campaign.ack(k, &WriteStatus::Applied { epoch: 1 });
                }
                None => break,
            }
        }
    }

    #[test]
    fn exhausted_region_redistributes_budget_instead_of_forfeiting() {
        let ks = uniform(1_000, 10);
        let cfg = CampaignConfig {
            attempt_factor: 30,
            ..CampaignConfig::default()
        };
        let mut campaign = Campaign::plan(&ks, &cfg).unwrap();
        let planned = campaign.planned();
        assert!(planned > 0);
        // A defense that walls off the lower half of the key space: every
        // candidate below the midpoint is rejected until those regions
        // exhaust; everything above is admitted.
        while let Some(key) = campaign.next_key() {
            if key < 5_000 {
                campaign.ack(
                    key,
                    &WriteStatus::Rejected {
                        filter: "walled-region".into(),
                    },
                );
            } else {
                campaign.ack(key, &WriteStatus::Applied { epoch: 1 });
            }
        }
        assert!(campaign.done());
        assert!(
            campaign.redistributed() > 0,
            "walled region forfeited instead of re-planning"
        );
        assert!(campaign.rejected() > 0, "the wall never engaged");
        // The walled regions' budget landed elsewhere: the campaign still
        // spends its full planned volume, just not where the wall stood.
        assert_eq!(campaign.applied(), planned);
        assert!(campaign.applied_keys().iter().all(|&k| k >= 5_000));
    }

    #[test]
    fn attempt_cap_terminates_a_fully_rejected_campaign() {
        let ks = uniform(500, 10);
        let cfg = CampaignConfig {
            attempt_factor: 2,
            ..CampaignConfig::default()
        };
        let mut campaign = Campaign::plan(&ks, &cfg).unwrap();
        let cap = campaign.planned() * 2;
        let mut attempts = 0;
        while let Some(key) = campaign.next_key() {
            attempts += 1;
            campaign.ack(
                key,
                &WriteStatus::Rejected {
                    filter: "wall".into(),
                },
            );
            assert!(attempts <= cap, "campaign ran past its attempt cap");
        }
        assert!(campaign.done());
        assert_eq!(campaign.applied(), 0);
        assert_eq!(campaign.rejected(), attempts);
    }
}
