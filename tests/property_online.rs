//! Property tests for the online write plane.
//!
//! The contract that makes live poisoning measurements meaningful: an
//! index mutated *online* through the serve path (epoch-swapped writes)
//! must answer exactly like an index built *offline* from the same final
//! keyset — for every victim structure, whether the write stream is
//! benign churn or an Algorithm-2 campaign.

use lis::core::index::ErasedIndex;
use lis::online::{run_campaign, Campaign, CampaignConfig};
use lis::prelude::*;
use lis::server::{AdmitAll, WriteOp};
use lis::workloads::{domain_for_density, trial_rng, uniform_keys};
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const N: usize = 600;
const DENSITY: f64 = 0.15;

fn sample_keyset(seed: u64) -> KeySet {
    let domain = domain_for_density(N, DENSITY).expect("valid density");
    let mut rng = trial_rng(seed, 0);
    uniform_keys(&mut rng, N, domain).expect("sampling")
}

/// A deterministic benign write stream: inserts into gap midpoints and
/// removes of scattered members, interleaved.
fn benign_ops(ks: &KeySet, seed: u64, writes: usize) -> Vec<WriteOp> {
    let mut rng = trial_rng(seed, 1);
    let keys = ks.keys().to_vec();
    let mut present: BTreeSet<Key> = keys.iter().copied().collect();
    let mut ops = Vec::with_capacity(writes);
    while ops.len() < writes {
        if rng.gen::<f64>() < 0.7 {
            let i = rng.gen_range(0..keys.len() - 1);
            let (a, b) = (keys[i], keys[i + 1]);
            if b - a >= 2 {
                let mid = a + (b - a) / 2;
                if present.insert(mid) {
                    ops.push(WriteOp::Insert(mid));
                }
            }
        } else {
            let i = rng.gen_range(0..keys.len());
            if present.remove(&keys[i]) {
                ops.push(WriteOp::Remove(keys[i]));
            }
        }
    }
    ops
}

/// Applies `ops` through a live online server, then checks every probe
/// against an index built offline from the same final keyset.
fn assert_online_matches_offline(
    name: &'static str,
    ks: &KeySet,
    ops: &[WriteOp],
) -> Result<(), TestCaseError> {
    let registry = IndexRegistry::with_defaults();
    let server = Server::builder(ServeConfig::offline().workers(2).write_batch(16))
        .start_online(
            ks.clone(),
            move |ks| IndexRegistry::with_defaults().build(name, ks),
            Box::new(AdmitAll),
        )
        .expect("online server");
    let handle = server.handle();
    let mut final_keys: BTreeSet<Key> = ks.keys().iter().copied().collect();
    for (i, &op) in ops.iter().enumerate() {
        let status = handle.write(op, i as u64 % 4).expect("write path");
        prop_assert!(
            status.is_applied(),
            "{}: benign op {:?} not applied: {:?}",
            name,
            op,
            status
        );
        match op {
            WriteOp::Insert(k) => final_keys.insert(k),
            WriteOp::Remove(k) => final_keys.remove(&k),
        };
    }

    // Probes: everything ever seen (members, inserted, removed) plus gap
    // interiors.
    let mut probes: Vec<Key> = final_keys.iter().copied().step_by(2).collect();
    probes.extend(ops.iter().map(|op| op.key()));
    probes.extend(ks.gaps().iter().take(30).map(|g| g.lo + (g.hi - g.lo) / 2));

    let offline_ks =
        KeySet::new(final_keys.into_iter().collect(), ks.domain()).expect("final keyset");
    let offline = registry.build(name, &offline_ks).expect("offline build");
    let expected = offline.lookup_batch(&probes);
    let online = server.serve_all(&probes).expect("online serve");
    for ((&k, got), want) in probes.iter().zip(&online).zip(&expected) {
        prop_assert_eq!(
            got,
            want,
            "{}: online/offline Lookup differs on {}",
            name,
            k
        );
        prop_assert_eq!(
            got.found,
            offline_ks.contains(k),
            "{}: online membership of {} wrong vs ground truth",
            name,
            k
        );
    }
    let report = server.shutdown();
    prop_assert_eq!(report.writes_applied as usize, ops.len());
    prop_assert!(report.epochs >= 1);
    Ok(())
}

/// A served index the test keeps its own handle on: the writer publishes
/// it wrapped, so the test's `Arc` is the very index readers are served.
struct Held(Arc<DynIndex>);

impl ErasedIndex for Held {
    fn lookup(&self, key: Key) -> Lookup {
        self.0.lookup(key)
    }
    fn lookup_batch(&self, keys: &[Key]) -> Vec<Lookup> {
        self.0.lookup_batch(keys)
    }
    fn lookup_batch_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        self.0.lookup_batch_into(keys, out)
    }
    fn lookup_each_into(&self, keys: &[Key], out: &mut Vec<Lookup>) {
        self.0.lookup_each_into(keys, out)
    }
    fn loss(&self) -> f64 {
        self.0.loss()
    }
    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// An rmi published at epoch `e` shares its keyset's key array with the
/// writer. Held across 60 further write epochs — each merging into a new
/// array — it still answers every member of epoch `e`'s keyset at the
/// same rank, and that keyset's array still holds the same keys.
#[test]
fn an_epoch_held_by_a_reader_keeps_answering_across_later_epochs() {
    let ks = sample_keyset(7);
    let ops = benign_ops(&ks, 7, 70);
    let latest = Arc::new(Mutex::new(None::<(KeySet, Arc<DynIndex>)>));
    let server = {
        let latest = Arc::clone(&latest);
        Server::builder(ServeConfig::offline().workers(1).write_batch(1))
            .start_online(
                ks.clone(),
                move |ks| {
                    let index = Arc::new(IndexRegistry::with_defaults().build("rmi", ks)?);
                    *latest.lock().unwrap() = Some((ks.clone(), Arc::clone(&index)));
                    Ok(DynIndex::new("rmi", Held(index)))
                },
                Box::new(AdmitAll),
            )
            .expect("online server")
    };
    let handle = server.handle();
    let (before, after) = ops.split_at(10);
    for &op in before {
        assert!(handle.write(op, 0).expect("write path").is_applied());
    }
    // Writes are acked after their epoch is published, so the last index
    // built is the one being served.
    let held_epoch = server.epoch();
    let (held_ks, held) = latest.lock().unwrap().clone().expect("built");
    let held_keys = held_ks.keys().to_vec();
    for &op in after {
        assert!(handle.write(op, 0).expect("write path").is_applied());
    }
    assert!(server.epoch() >= held_epoch + 50, "{}", server.epoch());

    assert_eq!(held_ks.keys(), &held_keys[..]);
    for (i, &k) in held_keys.iter().enumerate() {
        assert_eq!(held.lookup(k).pos, Some(i), "key {k}");
    }
    server.shutdown();
}

proptest! {
    /// Benign online mutation ≡ offline rebuild, whole `Lookup` for whole
    /// `Lookup` (found, rank and cost), for a learned structure (rmi), an
    /// updatable one (alex), and the baseline (btree).
    #[test]
    fn online_mutation_matches_offline_build(seed in 0u64..500) {
        let ks = sample_keyset(seed);
        let ops = benign_ops(&ks, seed, 60);
        for name in ["rmi", "alex", "btree"] {
            assert_online_matches_offline(name, &ks, &ops)?;
        }
    }

    /// A live Algorithm-2 campaign through the serve path leaves the
    /// victim answering exactly like an offline build over the poisoned
    /// keyset — poisoning degrades cost, never answers, online included.
    #[test]
    fn online_campaign_matches_offline_poisoned_build(seed in 0u64..200) {
        let ks = sample_keyset(seed);
        let name = if seed % 2 == 0 { "rmi" } else { "alex" };
        let server = Server::builder(ServeConfig::offline().workers(2).write_batch(16))
            .start_online(
                ks.clone(),
                move |ks| IndexRegistry::with_defaults().build(name, ks),
                Box::new(AdmitAll),
            )
            .expect("online server");
        let mut campaign = Campaign::plan(&ks, &CampaignConfig {
            poison_percent: 5.0,
            ..CampaignConfig::default()
        }).expect("plan");
        run_campaign(&server.handle(), &mut campaign, 99, 8).expect("campaign");
        prop_assert!(campaign.applied() > 0, "campaign landed nothing");

        let mut poisoned = ks.clone();
        for &k in campaign.applied_keys() {
            poisoned.insert(k).expect("poison key valid");
        }
        let offline = IndexRegistry::with_defaults()
            .build(name, &poisoned)
            .expect("offline poisoned build");
        let mut probes: Vec<Key> = poisoned.keys().iter().step_by(3).copied().collect();
        probes.extend(campaign.applied_keys());
        let expected = offline.lookup_batch(&probes);
        let online = server.serve_all(&probes).expect("online serve");
        for ((&k, got), want) in probes.iter().zip(&online).zip(&expected) {
            prop_assert_eq!(
                got, want,
                "{}: poisoned online/offline Lookup differs on {}", name, k
            );
        }
        server.shutdown();
    }

}
