//! Property tests for staged batch apply (see `lis_core::keys::Stage`).
//!
//! The writer and WAL replay no longer shift the key array once per
//! write: they stage a batch, read "keyset plus stage" through a
//! `KeyView`, and merge once. That is only an optimization if nothing
//! observable depends on where a batch ends, which is four equivalences,
//! quantified over random write scripts that are dense in the awkward
//! cases — one key inserted then removed (and removed then reinserted)
//! inside a batch, keys at both ends of the array, out-of-domain keys,
//! duplicates, keysets smaller than a density screen's `2·window + 1`,
//! and poison clumps that land inside one batch:
//!
//! * (a) stage + commit ≡ per-op `KeySet::insert`/`remove`, errors and all;
//! * (b) every `KeyView` answer on the staged view ≡ the same answer on
//!   the materialized keyset;
//! * (c) `DensityScreen` and `AdmissionChain` verdicts over the view ≡
//!   their verdicts over a keyset materialized op by op;
//! * (d) an online server answers one write stream with the same per-op
//!   statuses, and ends on the same keyset, at `write_batch(1)` and at
//!   `write_batch(32)`.

use lis::core::keys::{KeyView, Stage};
use lis::core::scratch::ScratchDir;
use lis::prelude::*;
use lis::server::{recover, Admission, Durability, DurabilityLevel};
use lis::workloads::trial_rng;
use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use rand::Rng;
use std::time::Duration;

/// (a) + (b). A 64-key universe whose domain `[2, 60]` leaves keys out of
/// range on both sides, so a script of a few dozen ops collides with
/// itself constantly.
fn universe() -> KeyDomain {
    KeyDomain::new(2, 60).expect("valid domain")
}

/// Asserts (b): the staged view and the materialized keyset agree on
/// every query a `KeyView` answers, over the whole universe.
fn assert_views_agree(staged: &dyn KeyView, materialized: &KeySet) -> Result<(), TestCaseError> {
    let materialized: &dyn KeyView = materialized;
    prop_assert_eq!(staged.len(), materialized.len());
    prop_assert_eq!(staged.is_empty(), materialized.is_empty());
    for key in 0..64 {
        prop_assert_eq!(
            staged.contains(key),
            materialized.contains(key),
            "contains({})",
            key
        );
        for i in 0..5 {
            prop_assert_eq!(
                staged.nth_below(key, i),
                materialized.nth_below(key, i),
                "nth_below({}, {})",
                key,
                i
            );
            prop_assert_eq!(
                staged.nth_at_or_above(key, i),
                materialized.nth_at_or_above(key, i),
                "nth_at_or_above({}, {})",
                key,
                i
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn stage_and_commit_match_per_op_apply(
        base in btree_set(2u64..61, 1..40),
        script in vec(0u64..128, 1..96),
        batch in 1usize..40,
    ) {
        let mut per_op = KeySet::new(base.into_iter().collect(), universe()).expect("base");
        let mut batched = per_op.clone();
        let mut stage = Stage::new();
        for (i, raw) in script.iter().enumerate() {
            let key = raw / 2;
            let (expect, got) = if raw % 2 == 0 {
                (per_op.insert(key), stage.insert(&batched, key))
            } else {
                (per_op.remove(key), stage.remove(&batched, key))
            };
            prop_assert_eq!(got, expect, "op {} on key {}", i, key);
            assert_views_agree(&stage.over(&batched), &per_op)?;
            if (i + 1) % batch == 0 {
                batched.commit(&mut stage);
                prop_assert!(stage.is_empty());
                prop_assert_eq!(&batched, &per_op, "after the batch ending at op {}", i);
            }
        }
        batched.commit(&mut stage);
        prop_assert_eq!(batched, per_op);
    }
}

/// The write streams of (c) and (d): benign mid-gap inserts, clumps of
/// consecutive keys hugging a member, member removes, and a small hot set
/// every kind of op keeps returning to — so duplicates, absent removes,
/// insert-then-remove and remove-then-reinsert all occur within a batch.
/// A few keys fall past the domain's end.
fn write_stream(base: &KeySet, raws: &[u64]) -> Vec<(WriteOp, u64)> {
    let members = base.keys();
    let span = base.domain().max + 40;
    let mut ops = Vec::with_capacity(raws.len());
    for &raw in raws {
        let (shape, pick, source) = (raw % 8, raw / 8, raw / 64 % 5);
        let member = members[pick as usize % members.len()];
        match shape {
            0 | 1 => ops.push((WriteOp::Insert(pick % span), source)),
            2 => ops.push((WriteOp::Remove(member), source)),
            3 => ops.push((WriteOp::Insert(member), source)),
            4 => {
                // The clump: one hostile source, back to back.
                let len = 2 + pick % 7;
                ops.extend((1..=len).map(|d| (WriteOp::Insert(member + d), 99)));
            }
            _ => {
                let hot = members[0] + 3 * (pick % 6);
                let op = if shape == 5 {
                    WriteOp::Insert(hot)
                } else {
                    WriteOp::Remove(hot)
                };
                ops.push((op, source));
            }
        }
    }
    ops
}

fn sparse_base(keys: impl IntoIterator<Item = Key>) -> KeySet {
    let keys: Vec<Key> = keys.into_iter().map(|k| 100 + k * 37).collect();
    let domain = KeyDomain::new(0, 100 + 400 * 37).expect("valid domain");
    KeySet::new(keys, domain).expect("base")
}

fn full_chain(bootstrap: &KeySet, window: usize) -> AdmissionChain {
    AdmissionChain::new()
        .with(SourceRateLimit::new(0.2, 6.0))
        .with(DensityScreen::from_bootstrap(bootstrap, window, 4.0))
        .with(TrustedFence::from_bootstrap(bootstrap, 1.5))
}

/// Runs `ops` through two instances of one policy the way the writer
/// does — validate, admit, apply — the `batched` side staging against a
/// keyset committed only every `batch` ops, the `per_op` side mutating a
/// keyset directly, and asserts (c): the same verdict on every op.
/// Returns how many ops were rejected.
fn assert_verdicts_agree(
    base: &KeySet,
    ops: &[(WriteOp, u64)],
    batch: usize,
    mut batched_policy: impl AdmissionPolicy,
    mut per_op_policy: impl AdmissionPolicy,
) -> Result<usize, TestCaseError> {
    let mut per_op = base.clone();
    let mut batched = base.clone();
    let mut stage = Stage::new();
    let mut rejected = 0;
    for (i, &(op, source)) in ops.iter().enumerate() {
        let current = stage.over(&batched);
        let valid = match op {
            WriteOp::Insert(k) => !per_op.contains(k),
            WriteOp::Remove(k) => per_op.contains(k),
        };
        prop_assert_eq!(
            current.contains(op.key()),
            per_op.contains(op.key()),
            "op {}",
            i
        );
        if valid {
            let verdict = batched_policy.admit(&op, source, &current);
            let expect = per_op_policy.admit(&op, source, &per_op);
            prop_assert_eq!(&verdict, &expect, "op {} = {:?} from {}", i, op, source);
            if verdict == Admission::Admit {
                let (staged, applied) = match op {
                    WriteOp::Insert(k) => (stage.insert(&batched, k), per_op.insert(k)),
                    WriteOp::Remove(k) => (stage.remove(&batched, k), per_op.remove(k)),
                };
                prop_assert_eq!(staged, applied, "op {}", i);
            } else {
                rejected += 1;
            }
        }
        if (i + 1) % batch == 0 {
            batched.commit(&mut stage);
        }
    }
    batched.commit(&mut stage);
    prop_assert_eq!(batched, per_op);
    Ok(rejected)
}

proptest! {
    /// Bases of 1–60 keys against windows of 1, 3 and 8 put many cases
    /// under the screen's `2·window + 1` floor and many just over it.
    #[test]
    fn admission_verdicts_over_the_view_match_a_materialized_keyset(
        base in btree_set(0u64..400, 1..60),
        raws in vec(0u64..1 << 40, 1..80),
        batch in 1usize..48,
        window in 0usize..3,
    ) {
        let window = [1, 3, 8][window];
        let base = sparse_base(base);
        let ops = write_stream(&base, &raws);
        let screen = DensityScreen::from_bootstrap(&base, window, 4.0);
        assert_verdicts_agree(&base, &ops, batch, screen.clone(), screen)?;
        assert_verdicts_agree(
            &base,
            &ops,
            batch,
            full_chain(&base, window),
            full_chain(&base, window),
        )?;
    }
}

/// The admission contract in one picture: thirty consecutive keys against
/// one member, all inside a single never-committed batch. The screen only
/// catches the clump if each verdict sees the clump's earlier keys.
#[test]
fn a_poison_clump_inside_one_batch_is_screened_key_by_key() {
    let base = KeySet::from_keys((0..500u64).map(|i| i * 100).collect()).expect("base");
    let clump: Vec<(WriteOp, u64)> = (25_001..25_030).map(|k| (WriteOp::Insert(k), 0)).collect();
    let screen = DensityScreen::from_bootstrap(&base, 3, 4.0);
    let rejected = assert_verdicts_agree(&base, &clump, usize::MAX, screen.clone(), screen)
        .expect("verdicts agree");
    assert!(rejected >= 20, "only {rejected} of the clump rejected");
}

/// What a client can tell apart: applied, rejected by which filter, failed
/// for which reason (an applied write's epoch number counts batches, so
/// it is the one thing that legitimately differs).
fn observable(status: &WriteStatus) -> String {
    match status {
        WriteStatus::Applied { .. } => "applied".into(),
        other => format!("{other:?}"),
    }
}

/// Serves `ops` through a durable online server, all in flight at once so
/// batches fill to `write_batch`, and returns what each op resolved to,
/// the keyset the server ended on, and how many epochs it took.
fn serve_stream(
    base: &KeySet,
    ops: &[(WriteOp, u64)],
    write_batch: usize,
) -> (Vec<String>, KeySet, u64) {
    let dir = ScratchDir::new("staged-apply").expect("scratch dir");
    let cfg = ServeConfig::offline()
        .workers(1)
        .write_batch(write_batch)
        .write_queue_depth(ops.len())
        .write_deadline(Duration::from_millis(2));
    let server = Server::builder(cfg)
        .durability(Durability::dir(dir.path()).level(DurabilityLevel::None))
        .start_online(
            base.clone(),
            |ks| IndexRegistry::with_defaults().build("rmi", ks),
            Box::new(full_chain(base, 3)),
        )
        .expect("online server");
    let handle = server.handle();
    let tickets: Vec<_> = ops
        .iter()
        .map(|&(op, source)| handle.submit_write(op, source).expect("submit"))
        .collect();
    let statuses = tickets
        .into_iter()
        .map(|ticket| observable(&ticket.wait().expect("write resolves")))
        .collect();
    let report = server.shutdown();
    let ended_on = recover(dir.path()).expect("recover").keyset;
    (statuses, ended_on, report.epochs)
}

/// (d), on three seeds.
#[test]
fn batch_size_changes_no_status_and_no_final_keyset() {
    for seed in [42, 7, 1234] {
        let mut rng = trial_rng(seed, 0);
        let base = sparse_base(0..400);
        let raws: Vec<u64> = (0..160).map(|_| rng.gen_range(0..1u64 << 40)).collect();
        let ops = write_stream(&base, &raws);

        let (one_by_one, ended_on, epochs) = serve_stream(&base, &ops, 1);
        let (batched, batched_ended_on, batched_epochs) = serve_stream(&base, &ops, 32);
        for (i, (a, b)) in one_by_one.iter().zip(&batched).enumerate() {
            assert_eq!(a, b, "seed {seed}: op {i} = {:?}", ops[i]);
        }
        assert_eq!(ended_on, batched_ended_on, "seed {seed}");
        assert!(
            batched_epochs < epochs,
            "seed {seed}: write_batch(32) never batched ({batched_epochs} vs {epochs} epochs)"
        );
        // The stream is worth the name: every outcome class occurs.
        for class in ["applied", "Rejected", "Failed"] {
            assert!(
                one_by_one.iter().any(|s| s.starts_with(class)),
                "seed {seed}: no {class} outcome"
            );
        }
    }
}
