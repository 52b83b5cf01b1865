//! Cross-crate integration tests for the extension subsystems: the DP
//! attack on realistic data, query-workload-driven lookup costs, and the
//! learned existence index, updatable index and learned hash table under
//! poisoning.

use lis::core::alex::{AlexConfig, AlexIndex};
use lis::core::bloom::LearnedBloom;
use lis::core::hashindex::{HashIndex, HashKind};
use lis::poison::volume::dp_rmi_attack;
use lis::prelude::*;
use lis::workloads::realsim;
use lis::workloads::{member_queries, mixed_queries, trial_rng, QuerySkew};

#[test]
fn dp_attack_on_simulated_salaries() {
    // The beyond-paper DP attack must dominate Algorithm 2 on the Figure-7
    // salary dataset too.
    let salaries = realsim::miami_salaries_scaled(7, 2_000).unwrap();
    let num_models = 20;
    let greedy = rmi_attack(
        &salaries,
        num_models,
        &RmiAttackConfig::new(10.0).with_max_exchanges(num_models),
    )
    .unwrap();
    let dp = dp_rmi_attack(&salaries, num_models, 10.0, 3.0).unwrap();
    assert!(
        dp.poisoned_rmi_loss >= greedy.poisoned_rmi_loss * 0.95,
        "dp {} vs greedy {}",
        dp.poisoned_rmi_loss,
        greedy.poisoned_rmi_loss
    );
    assert!(dp.rmi_ratio() > 1.0);
}

#[test]
fn zipf_queries_hit_poisoned_hot_spots() {
    // Lookup cost under a skewed query stream: comparisons rise after
    // poisoning for member queries regardless of skew.
    let mut rng = trial_rng(11, 0);
    let domain = lis::workloads::domain_for_density(5_000, 0.1).unwrap();
    let clean = lis::workloads::uniform_keys(&mut rng, 5_000, domain).unwrap();
    let attack = rmi_attack(
        &clean,
        50,
        &RmiAttackConfig::new(10.0).with_max_exchanges(16),
    )
    .unwrap();
    let poisoned = attack.poisoned_keyset(&clean).unwrap();

    let before = Rmi::build(&clean, &RmiConfig::linear_root(50)).unwrap();
    let after = Rmi::build(&poisoned, &RmiConfig::linear_root(50)).unwrap();

    for skew in [QuerySkew::Uniform, QuerySkew::Zipf(1.1)] {
        let queries = member_queries(&mut rng, &clean, skew, 5_000);
        let cost = |rmi: &Rmi| -> usize { queries.iter().map(|&k| rmi.lookup(k).cost).sum() };
        let (c_before, c_after) = (cost(&before), cost(&after));
        assert!(
            c_after > c_before,
            "{skew:?}: poisoned lookups should cost more ({c_after} vs {c_before})"
        );
        // Every member query still succeeds.
        for &k in &queries {
            assert!(after.lookup(k).pos.is_some());
        }
    }
}

#[test]
fn existence_index_mixed_workload() {
    let mut rng = trial_rng(12, 0);
    let domain = lis::workloads::domain_for_density(3_000, 0.05).unwrap();
    let clean = lis::workloads::uniform_keys(&mut rng, 3_000, domain).unwrap();
    let lb = LearnedBloom::build(&clean, 0.01).unwrap();
    let queries = mixed_queries(&mut rng, &clean, 0.5, 4_000);
    let mut false_negatives = 0usize;
    for &q in &queries {
        let answer = lb.may_contain(q);
        if clean.contains(q) && !answer {
            false_negatives += 1;
        }
    }
    assert_eq!(
        false_negatives, 0,
        "existence index must never miss a member"
    );
}

#[test]
fn updatable_index_poison_stream_end_to_end() {
    let mut rng = trial_rng(13, 0);
    let domain = lis::workloads::domain_for_density(4_000, 0.05).unwrap();
    let clean = lis::workloads::uniform_keys(&mut rng, 4_000, domain).unwrap();
    let plan = greedy_poison(&clean, PoisonBudget::percentage(10.0, 4_000).unwrap()).unwrap();

    let mut idx = AlexIndex::build(&clean, AlexConfig::default()).unwrap();
    idx.reset_stats();
    for &k in &plan.keys {
        idx.insert(k).unwrap();
    }
    // Correctness survives the hostile stream.
    assert_eq!(idx.len(), clean.len() + plan.keys.len());
    for &k in clean.keys().iter().step_by(41) {
        assert!(idx.contains(k));
    }
    for &k in &plan.keys {
        assert!(idx.contains(k));
    }
    let sorted = idx.keys();
    assert!(sorted.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn learned_hash_chain_mass_is_conserved_under_poison() {
    let mut rng = trial_rng(14, 0);
    let domain = lis::workloads::domain_for_density(3_000, 0.1).unwrap();
    let clean = lis::workloads::uniform_keys(&mut rng, 3_000, domain).unwrap();
    let plan = greedy_poison(&clean, PoisonBudget::percentage(10.0, 3_000).unwrap()).unwrap();
    let poisoned = plan.poisoned_keyset(&clean).unwrap();

    let table = HashIndex::build(&poisoned, 4_000, HashKind::Learned).unwrap();
    assert_eq!(table.len(), poisoned.len());
    for &k in poisoned.keys().iter().step_by(31) {
        assert!(table.lookup(k).found);
    }
}
