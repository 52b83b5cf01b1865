//! Property tests for the durability plane (see `lis_server::durability`).
//!
//! The recovery contract, quantified over arbitrary write histories: for
//! any interleaved insert/remove script, with a crash injected after
//! every prefix of WAL appends — at a record boundary (a clean kill) or
//! mid-record (a torn final append) — `recover()` yields *exactly* the
//! state as of the last complete append. The acked prefix survives in
//! full, the torn suffix vanishes in full, and no batch ever
//! half-applies.

use lis::core::scratch::ScratchDir;
use lis::core::LisError;
use lis::prelude::*;
use lis::server::{recover, DurabilityLevel, DurableStore, WriteOp};
use proptest::prelude::*;
use std::path::Path;
use std::time::Duration;

/// Ops per WAL append — small so scripts cross many record boundaries.
const BATCH: usize = 3;

/// A scratch directory of its own per use (cases run within one process;
/// a fixed name would interleave their files).
fn scratch(tag: &str) -> ScratchDir {
    ScratchDir::new(&format!("prop-dur-{tag}")).expect("scratch dir")
}

/// Copies a durable directory so each crash point replays from its own
/// untouched copy (recovery truncates torn tails physically).
fn clone_dir(src: &Path, tag: &str) -> ScratchDir {
    let dst = scratch(tag);
    for entry in std::fs::read_dir(src).expect("read durable dir").flatten() {
        std::fs::copy(entry.path(), dst.path().join(entry.file_name())).expect("copy durable file");
    }
    dst
}

fn bootstrap(dir: &Path, keyset: &KeySet) -> DurableStore {
    DurableStore::bootstrap(
        dir,
        keyset,
        0,
        0,
        DurabilityLevel::None,
        u64::MAX,
        Duration::from_millis(50),
    )
    .expect("bootstrap")
}

fn base_keyset() -> KeySet {
    let domain = KeyDomain::new(0, 1_000_000).expect("valid domain");
    KeySet::new((0..200u64).map(|i| i * 11 + 5).collect(), domain).expect("valid keyset")
}

/// Interprets one raw script value against the reference keyset the way
/// the writer's validation loop would: a key already present is removed,
/// an absent one inserted — every produced op is applicable by
/// construction, mirroring the writer logging only *validated* batches.
fn op_for(reference: &mut KeySet, raw: u64) -> WriteOp {
    let key = 5 + (raw % 3_000) * 7;
    if reference.contains(key) {
        reference.remove(key).expect("validated remove");
        WriteOp::Remove(key)
    } else {
        reference.insert(key).expect("validated insert");
        WriteOp::Insert(key)
    }
}

proptest! {
    /// Crash after every record boundary: recovery is exactly the acked
    /// prefix, for every prefix.
    #[test]
    fn recovery_is_exactly_the_acked_prefix(
        script in proptest::collection::vec(0u64..30_000, 1..48)
    ) {
        let live = scratch("live");
        let mut reference = base_keyset();
        let mut store = bootstrap(live.path(), &reference);

        // `states[i]` is the reference keyset after i complete appends;
        // `offsets[i]` the WAL byte length at that point.
        let mut states = vec![reference.keys().to_vec()];
        let mut offsets = vec![store.wal_bytes()];
        let mut flush = 0u64;
        for chunk in script.chunks(BATCH) {
            let ops: Vec<WriteOp> = chunk.iter().map(|&raw| op_for(&mut reference, raw)).collect();
            flush += 1;
            store.log_batch(&ops, flush, false, false).expect("append");
            states.push(reference.keys().to_vec());
            offsets.push(store.wal_bytes());
        }

        for i in 0..offsets.len() {
            // Clean kill at the boundary: exactly i appends survive.
            let crash = clone_dir(live.path(), "cut");
            let wal = crash.path().join("wal.log");
            let file = std::fs::OpenOptions::new().write(true).open(&wal).expect("open wal");
            file.set_len(offsets[i]).expect("truncate");
            drop(file);
            let rec = recover(crash.path()).expect("recover at boundary");
            prop_assert_eq!(
                rec.keyset.keys(), states[i].as_slice(),
                "crash after {} appends recovered a different state", i
            );
            prop_assert_eq!(rec.replayed_records, i);
            prop_assert_eq!(rec.truncated_bytes, 0);

            // Torn kill inside the next record: the half-written append
            // must vanish in full — never half-apply.
            if i + 1 < offsets.len() {
                let torn = clone_dir(live.path(), "torn");
                let wal = torn.path().join("wal.log");
                let cut = offsets[i] + (offsets[i + 1] - offsets[i]) / 2;
                let file = std::fs::OpenOptions::new().write(true).open(&wal).expect("open wal");
                file.set_len(cut).expect("truncate");
                drop(file);
                let rec = recover(torn.path()).expect("recover torn tail");
                prop_assert_eq!(
                    rec.keyset.keys(), states[i].as_slice(),
                    "torn append {} half-applied", i + 1
                );
                prop_assert!(rec.truncated_bytes > 0, "torn tail not truncated");
                // The truncation is physical: recovering again is clean.
                let again = recover(torn.path()).expect("recover after truncation");
                prop_assert_eq!(again.truncated_bytes, 0);
                prop_assert_eq!(again.keyset.keys(), states[i].as_slice());
            }
        }
    }
}

/// One record may insert a key and remove it again; replay validates each
/// op against the record's earlier ops, so the pair cancels cleanly and
/// the ops around it still land.
#[test]
fn record_that_inserts_then_removes_one_key_replays() {
    let dir = scratch("cancel");
    let base = base_keyset();
    let member = base.keys()[3];
    let mut store = bootstrap(dir.path(), &base);
    let ops = [
        WriteOp::Insert(9),
        WriteOp::Insert(8),
        WriteOp::Remove(9),
        WriteOp::Remove(member),
        WriteOp::Insert(member),
        WriteOp::Insert(9),
    ];
    store.log_batch(&ops, 1, false, false).expect("append");
    let rec = recover(dir.path()).expect("recover");
    let mut expect = base;
    expect.insert(8).expect("fresh key");
    expect.insert(9).expect("fresh key");
    assert_eq!(rec.keyset, expect);
    assert_eq!((rec.replayed_records, rec.replayed_ops), (1, ops.len()));
}

/// A duplicate insert in the middle of a record is refused where it
/// stands: the error names the record's lsn and the op's index, whether
/// the key it repeats came from the snapshot, an earlier record, or an
/// earlier op of the same record.
#[test]
fn duplicate_insert_mid_record_is_corruption_naming_lsn_and_op() {
    let base = base_keyset();
    let member = base.keys()[7];
    for (repeated, earlier_record) in [(member, None), (8, Some(8)), (9, None)] {
        let dir = scratch("dup");
        let mut store = bootstrap(dir.path(), &base);
        let mut lsn = 1;
        if let Some(key) = earlier_record {
            store
                .log_batch(&[WriteOp::Insert(key)], lsn, false, false)
                .expect("append");
            lsn += 1;
        }
        let ops = [
            WriteOp::Insert(9),
            WriteOp::Insert(10),
            WriteOp::Insert(repeated),
            WriteOp::Insert(11),
        ];
        store.log_batch(&ops, lsn, false, false).expect("append");
        // A record behind it: the refusal must not depend on being last.
        store
            .log_batch(&[WriteOp::Insert(12)], lsn + 1, false, false)
            .expect("append");
        let err = recover(dir.path()).expect_err("duplicate must not replay");
        assert!(matches!(err, LisError::Corruption { .. }), "{err}");
        let text = err.to_string();
        assert!(
            text.contains(&format!("lsn {lsn} op 2 ")) && text.contains("duplicate"),
            "{text}"
        );
    }
}

/// Every single-bit flip anywhere in a snapshot file, and every cut of it
/// to a shorter length, is refused as corruption: never an `Io` error
/// (which a caller would retry), never a panic, never a keyset.
#[test]
fn every_bit_flip_and_truncation_of_a_snapshot_is_corruption() {
    let domain = KeyDomain::new(0, 1_000_000).expect("valid domain");
    for n in [1u64, 64] {
        let keyset = KeySet::new((0..n).map(|i| i * 15_013 + 2).collect(), domain).expect("keyset");
        let dir = scratch("snap-damage");
        drop(bootstrap(dir.path(), &keyset));
        let snap = std::fs::read_dir(dir.path())
            .expect("read durable dir")
            .flatten()
            .map(|entry| entry.path())
            .find(|path| path.extension().is_some_and(|ext| ext == "snap"))
            .expect("bootstrap snapshot");
        let pristine = std::fs::read(&snap).expect("read snapshot");
        assert_eq!(recover(dir.path()).expect("pristine").keyset, keyset);

        let damaged = (0..pristine.len() * 8)
            .map(|bit| {
                let mut bytes = pristine.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                (format!("bit {bit} flipped"), bytes)
            })
            .chain(
                (0..pristine.len())
                    .map(|len| (format!("cut to {len} bytes"), pristine[..len].to_vec())),
            );
        for (what, bytes) in damaged {
            std::fs::write(&snap, &bytes).expect("write damaged snapshot");
            match recover(dir.path()) {
                Err(LisError::Corruption { .. }) => {}
                Err(other) => panic!("{n} keys, {what}: expected Corruption, got {other}"),
                Ok(rec) => panic!("{n} keys, {what}: recovered {} keys", rec.keyset.len()),
            }
        }
    }
}
