//! Cross-crate integration tests: the full pipeline from workload
//! generation through attack, index rebuild, lookup, and defense.

use lis::defense::outlier::{iqr_filter, range_filter};
use lis::defense::{evaluate_defense, trim_defense, TrimConfig};
use lis::prelude::*;
use lis::workloads::{domain_for_density, lognormal_keys, trial_rng, uniform_keys};
use lis_core::btree::BPlusTree;
use lis_core::index::IndexRegistry;

#[test]
fn poisoned_index_still_answers_every_query() {
    // The attack is an *availability* attack: correctness must survive,
    // only performance degrades (Section III-C).
    let mut rng = trial_rng(1, 0);
    let domain = domain_for_density(2_000, 0.15).unwrap();
    let clean = uniform_keys(&mut rng, 2_000, domain).unwrap();

    let res = rmi_attack(
        &clean,
        20,
        &RmiAttackConfig::new(10.0).with_max_exchanges(16),
    )
    .unwrap();
    let poisoned = res.poisoned_keyset(&clean).unwrap();
    let rmi = Rmi::build(&poisoned, &RmiConfig::linear_root(20)).unwrap();

    for &k in clean.keys() {
        let hit = rmi.lookup(k);
        let pos = hit.pos.expect("legitimate key must still be found");
        assert_eq!(poisoned.keys()[pos], k);
    }
}

#[test]
fn poisoning_increases_lookup_cost() {
    let domain = domain_for_density(5_000, 0.1).unwrap();
    for shape in ["uniform", "lognormal"] {
        let mut rng = trial_rng(2, 0);
        let clean = match shape {
            "uniform" => uniform_keys(&mut rng, 5_000, domain),
            _ => lognormal_keys(&mut rng, 5_000, domain),
        }
        .unwrap();

        // Lookup cost counts the lane kernel's comparisons, which are
        // quantized: a window one past a lane boundary descends once and
        // pays a *shorter* tail, so the mild radius inflation of a 10%
        // budget can vanish (or even read negative) in total comparisons —
        // vectorization genuinely absorbs weak poisoning. The paper's upper
        // budget of 20% widens windows past several descent steps and
        // inflates robustly.
        let res = rmi_attack(
            &clean,
            50,
            &RmiAttackConfig::new(20.0).with_max_exchanges(16),
        )
        .unwrap();
        let poisoned = res.poisoned_keyset(&clean).unwrap();

        let before = Rmi::build(&clean, &RmiConfig::linear_root(50)).unwrap();
        let after = Rmi::build(&poisoned, &RmiConfig::linear_root(50)).unwrap();

        let cost = |rmi: &Rmi| -> usize { clean.keys().iter().map(|&k| rmi.lookup(k).cost).sum() };
        let (c_before, c_after) = (cost(&before), cost(&after));
        assert!(
            c_after > c_before,
            "{shape}: poisoning should inflate lookup comparisons: {c_after} vs {c_before}"
        );
    }
}

#[test]
fn vectorized_and_per_key_paths_agree_on_every_index() {
    // The vectorized serve path must be a pure performance change: for
    // every registry structure — over the clean keyset AND over an
    // Algorithm-2-poisoned one (inflated error radii stress the window
    // kernel hardest) — the batched lane-kernel path and the per-key
    // reference path agree exactly on found/rank/cost for member and
    // absent probes alike. (The lane kernel itself is pinned against a
    // scalar oracle in `lis_core::search`'s unit tests.)
    let mut rng = trial_rng(6, 0);
    let domain = domain_for_density(3_000, 0.1).unwrap();
    let clean = uniform_keys(&mut rng, 3_000, domain).unwrap();
    let res = rmi_attack(
        &clean,
        30,
        &RmiAttackConfig::new(10.0).with_max_exchanges(16),
    )
    .unwrap();
    let poisoned = res.poisoned_keyset(&clean).unwrap();

    // Member probes interleaved with near-miss absent probes, in a
    // non-sorted order so the monotone batch cursor has to re-sort.
    let probes: Vec<u64> = clean
        .keys()
        .iter()
        .rev()
        .step_by(3)
        .flat_map(|&k| [k, k + 1])
        .collect();

    let registry = IndexRegistry::with_defaults();
    let mut names: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
    names.push("sharded:rmi:4".to_string());
    for (dataset, ks) in [("clean", &clean), ("poisoned", &poisoned)] {
        for name in &names {
            let idx = registry.build(name, ks).unwrap();
            let mut reference = Vec::new();
            idx.lookup_each_into(&probes, &mut reference);
            let mut out = Vec::new();
            idx.lookup_batch_into(&probes, &mut out);
            assert_eq!(out, reference, "{name}/{dataset}: vectorized vs per-key");
        }
    }
}

#[test]
fn rmi_beats_btree_clean_and_loses_ground_poisoned() {
    let mut rng = trial_rng(3, 0);
    let domain = domain_for_density(10_000, 0.1).unwrap();
    let clean = uniform_keys(&mut rng, 10_000, domain).unwrap();
    let btree = BPlusTree::build(&clean, 64).unwrap();
    let rmi = Rmi::build(&clean, &RmiConfig::linear_root(100)).unwrap();

    let rmi_cost: usize = clean.keys().iter().map(|&k| rmi.lookup(k).cost).sum();
    let bt_cost: usize = clean.keys().iter().map(|&k| btree.lookup(k).cost).sum();
    assert!(
        rmi_cost < bt_cost,
        "clean RMI should beat the B+-tree on uniform data: {rmi_cost} vs {bt_cost}"
    );

    let res = rmi_attack(
        &clean,
        100,
        &RmiAttackConfig::new(10.0).with_max_exchanges(16),
    )
    .unwrap();
    let poisoned = res.poisoned_keyset(&clean).unwrap();
    let bad = Rmi::build(&poisoned, &RmiConfig::linear_root(100)).unwrap();
    let bad_cost: usize = clean.keys().iter().map(|&k| bad.lookup(k).cost).sum();
    assert!(
        bad_cost > rmi_cost,
        "the poisoned RMI must be slower than the clean one"
    );
}

#[test]
fn attack_effect_matches_metrics_report() {
    let mut rng = trial_rng(4, 0);
    let domain = domain_for_density(3_000, 0.2).unwrap();
    let clean = lognormal_keys(&mut rng, 3_000, domain).unwrap();

    let res = rmi_attack(
        &clean,
        30,
        &RmiAttackConfig::new(10.0).with_max_exchanges(16),
    )
    .unwrap();
    // The attack's own accounting must be self-consistent.
    let mean: f64 =
        res.models.iter().map(|m| m.poisoned_loss).sum::<f64>() / res.models.len() as f64;
    assert!((mean - res.poisoned_rmi_loss).abs() < 1e-9);
    assert!(res.rmi_ratio() >= 1.0);
    // And comparable to the generic report over the final keysets.
    let poisoned = res.poisoned_keyset(&clean).unwrap();
    let report = rmi_ratio_report(&clean, &poisoned, 30).unwrap();
    assert!(report.rmi_ratio() > 1.0);
}

#[test]
fn defense_pipeline_full_cycle() {
    let mut rng = trial_rng(6, 0);
    let domain = domain_for_density(800, 0.1).unwrap();
    let clean = uniform_keys(&mut rng, 800, domain).unwrap();
    let plan = greedy_poison(&clean, PoisonBudget::percentage(10.0, 800).unwrap()).unwrap();
    let poisoned = plan.poisoned_keyset(&clean).unwrap();

    // Value-space filters are blind to the in-range attack.
    let (_, removed) = range_filter(&poisoned, clean.min_key(), clean.max_key());
    assert!(removed.is_empty());
    let (_, removed) = iqr_filter(&poisoned, 1.5);
    assert_eq!(removed.iter().filter(|k| plan.keys.contains(k)).count(), 0);

    // TRIM runs to completion and produces a structurally valid report.
    let out = trim_defense(&poisoned, &TrimConfig::new(clean.len())).unwrap();
    assert_eq!(out.retained.len(), clean.len());
    let report = evaluate_defense(&clean, &plan.keys, &out.retained).unwrap();
    assert!(report.ratio_before() > 1.0);
    assert!((0.0..=1.0).contains(&report.poison_recall));
}

#[test]
fn deterministic_experiments_reproduce() {
    // The same seed must give byte-identical attack outcomes.
    let run = || {
        let mut rng = trial_rng(99, 0);
        let domain = domain_for_density(500, 0.2).unwrap();
        let ks = uniform_keys(&mut rng, 500, domain).unwrap();
        let plan = greedy_poison(&ks, PoisonBudget::keys(25)).unwrap();
        let final_mse = plan.final_mse();
        (ks.keys().to_vec(), plan.keys, final_mse)
    };
    let (k1, p1, l1) = run();
    let (k2, p2, l2) = run();
    assert_eq!(k1, k2);
    assert_eq!(p1, p2);
    assert_eq!(l1, l2);
}
