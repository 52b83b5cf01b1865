//! The durability plane: write-ahead log, checksummed snapshots, and
//! crash recovery for the online server.
//!
//! Every acked write used to live only in the writer thread's in-memory
//! [`KeySet`]; the chaos plane proved that state survives *thread*
//! crashes, and this module extends the same guarantee — zero lost acked
//! writes — across full process restarts. The contract has three parts:
//!
//! * **WAL append before ack.** The writer appends each validated write
//!   micro-batch to an append-only, length-prefixed, CRC-checksummed log
//!   *before* any [`WriteTicket`](crate::write::WriteTicket) is
//!   fulfilled `Applied` (group commit: one `fdatasync` per drained
//!   batch at [`DurabilityLevel::Batch`]). The `durability-ack-order`
//!   lint polices exactly this ordering.
//! * **Checkpoints.** Every [`Durability::snapshot_every`] applied ops
//!   the writer writes a checksummed snapshot of the authoritative
//!   keyset (tmp-file + atomic rename + directory fsync) and truncates
//!   the WAL at the snapshot LSN, bounding both recovery replay and log
//!   growth. A clean shutdown writes a final snapshot, so recovering a
//!   cleanly stopped server replays nothing.
//! * **Recovery.** [`recover`] loads the newest valid snapshot and
//!   replays the WAL tail (each op validated in log order, the whole tail
//!   merged into the key array in one pass). A *torn final record* (the
//!   append the process died inside) is tolerated and truncated — by
//!   construction it was never acked. Any *mid-log* damage (a record that fails its checksum
//!   with more records behind it) is refused with a precise
//!   [`LisError::Corruption`]: replaying past it would resurrect a state
//!   that diverges from what clients were told.
//!
//! ## On-disk format (all integers little-endian)
//!
//! ```text
//! wal.log:   "LISWAL01" , then records:
//!   record:  len:u32 | crc:u32 (CRC-32/ISO-HDLC of payload) | payload
//!   payload: lsn:u64 | flushes:u64 | nops:u32 | nops × (tag:u8 | key:u64)
//!            (tag 0 = insert, 1 = remove)
//!
//! snap-<lsn:020>.snap:
//!   "LISSNP01" | crc:u32 of payload | payload_len:u64 | payload
//!   payload: lsn:u64 | flushes:u64 | domain_min:u64 | domain_max:u64
//!            | nkeys:u64 | nkeys × key:u64
//! ```
//!
//! The snapshot header persists `flushes` — the writer's fault-schedule
//! event counter — so a chaos schedule stays deterministic across
//! kill-and-recover: a server resumed via [`Durability::resume`]
//! continues the decision stream where the dead process left it instead
//! of replaying it from event 0 (the PR-9 restart invariant, one level
//! up). Each WAL record carries the counter too, so recovery returns
//! `max(snapshot, last record)` even when the tail outran the last
//! checkpoint.
//!
//! Known limitation (shared with length-prefixed log formats generally):
//! a bit flip *in a record's length field* that inflates it past the end
//! of the file is indistinguishable from a torn tail and is truncated
//! rather than refused. Flips in the payload — what the `BitFlip` fault
//! site injects — are always caught by the record checksum.

use crate::write::WriteOp;
use lis_core::error::{LisError, Result};
use lis_core::keys::{KeyDomain, KeySet, Stage};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// WAL file magic: identifies the format and its version.
const WAL_MAGIC: [u8; 8] = *b"LISWAL01";
/// Snapshot file magic.
const SNAP_MAGIC: [u8; 8] = *b"LISSNP01";
/// Bytes before the first WAL record.
const WAL_HEADER: u64 = 8;
/// Record header: len:u32 + crc:u32.
const RECORD_HEADER: usize = 8;
/// Fixed payload prefix: lsn + flushes + nops.
const PAYLOAD_PREFIX: usize = 20;
/// Bytes per op: tag + key.
const OP_BYTES: usize = 9;
/// Sanity bound on one record's payload (a batch is at most a few
/// thousand ops; anything past this is damage, not data).
const MAX_PAYLOAD: usize = 1 << 26;

/// CRC-32/ISO-HDLC lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32/ISO-HDLC of `bytes` — the workspace carries no checksum crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// When appends reach the disk. The knob trades write latency against
/// the window of acked-but-volatile data a power loss could take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityLevel {
    /// One `fdatasync` per drained micro-batch (group commit): an acked
    /// write is on disk before its ticket resolves. The default.
    Batch,
    /// At most one `fdatasync` per serve window: bounded staleness, far
    /// fewer syncs under sustained write load.
    Window,
    /// Never sync explicitly; the OS flushes when it pleases. Process
    /// crashes still lose nothing (the page cache survives them) — only
    /// power loss does.
    None,
}

impl DurabilityLevel {
    /// Stable lowercase name for reports and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Batch => "batch",
            Self::Window => "window",
            Self::None => "none",
        }
    }
}

/// Where (and how) an online server persists its write plane. The
/// default, [`Durability::in_memory`], is the pre-durability behavior:
/// the authoritative keyset lives only in the writer thread and every
/// existing test and the zero-alloc read gate are untouched.
#[derive(Debug, Clone)]
pub struct Durability {
    dir: Option<PathBuf>,
    level: DurabilityLevel,
    snapshot_every: u64,
    resume_lsn: u64,
    resume_flushes: u64,
}

impl Default for Durability {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl Durability {
    /// No durable storage: writes live (only) in the writer's keyset.
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            level: DurabilityLevel::Batch,
            snapshot_every: 4_096,
            resume_lsn: 0,
            resume_flushes: 0,
        }
    }

    /// Persist the write plane under `dir` (created if missing). The
    /// server bootstraps the directory on start: it writes a snapshot of
    /// the starting keyset and truncates the WAL, so the directory is
    /// recoverable from the first acked write on.
    pub fn dir(path: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(path.into()),
            ..Self::in_memory()
        }
    }

    /// Continue a recovered timeline under the same directory: LSNs and
    /// the fault-schedule event counter resume where [`recover`] found
    /// them, keeping both the log and any chaos schedule deterministic
    /// across the kill.
    pub fn resume(path: impl Into<PathBuf>, recovered: &Recovered) -> Self {
        Self {
            dir: Some(path.into()),
            resume_lsn: recovered.last_lsn,
            resume_flushes: recovered.flushes,
            ..Self::in_memory()
        }
    }

    /// Sets the fsync policy (default [`DurabilityLevel::Batch`]).
    pub fn level(mut self, level: DurabilityLevel) -> Self {
        self.level = level;
        self
    }

    /// Snapshot after this many applied ops (default 4096, min 1).
    pub fn snapshot_every(mut self, ops: u64) -> Self {
        self.snapshot_every = ops.max(1);
        self
    }

    /// `true` iff a directory is configured.
    pub fn is_durable(&self) -> bool {
        self.dir.is_some()
    }

    /// The fault-schedule event counter the writer starts from.
    pub(crate) fn resume_flushes(&self) -> u64 {
        self.resume_flushes
    }

    /// Opens the store (bootstrapping the directory), or `None` for the
    /// in-memory configuration. `window` is the fsync cadence of
    /// [`DurabilityLevel::Window`].
    pub(crate) fn open(&self, keyset: &KeySet, window: Duration) -> Result<Option<DurableStore>> {
        match &self.dir {
            None => Ok(None),
            Some(dir) => Ok(Some(DurableStore::bootstrap(
                dir,
                keyset,
                self.resume_lsn,
                self.resume_flushes,
                self.level,
                self.snapshot_every,
                window,
            )?)),
        }
    }
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> LisError {
    LisError::Io {
        context: format!("{what} {}: {e}", path.display()),
    }
}

fn corrupt(context: String) -> LisError {
    LisError::Corruption { context }
}

fn u32_at(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

fn u64_at(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

/// Syncs the directory entry itself so a rename/creation survives a
/// crash (on Linux a directory is fsynced like a file).
fn sync_dir(dir: &Path) -> Result<()> {
    let handle = File::open(dir).map_err(|e| io_err("open dir", dir, &e))?;
    handle.sync_all().map_err(|e| io_err("fsync dir", dir, &e))
}

/// The snapshot file name for `lsn` (zero-padded so lexicographic and
/// numeric order agree).
fn snapshot_name(lsn: u64) -> String {
    format!("snap-{lsn:020}.snap")
}

/// Parses a snapshot LSN back out of a file name.
fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// The writer thread's handle on one durable directory: the open WAL,
/// the LSN counter, and the checkpoint cadence. Constructed through
/// [`Durability`] (the server path) or [`DurableStore::bootstrap`]
/// directly (tests, the property harness, the benchmark).
pub struct DurableStore {
    dir: PathBuf,
    wal: File,
    wal_path: PathBuf,
    wal_len: u64,
    next_lsn: u64,
    snapshot_lsn: u64,
    level: DurabilityLevel,
    snapshot_every: u64,
    ops_since_snapshot: u64,
    window: Duration,
    last_sync: Instant,
    snapshots_written: u64,
}

impl DurableStore {
    /// Creates (or re-bootstraps) the directory: a snapshot of `keyset`
    /// at `lsn` with `flushes` in its header, then a fresh WAL. Crash
    /// ordering is safe at every point: the snapshot lands via
    /// tmp + rename before the old WAL is touched, and stale WAL records
    /// (LSN ≤ the new snapshot) are skipped on recovery.
    pub fn bootstrap(
        dir: &Path,
        keyset: &KeySet,
        lsn: u64,
        flushes: u64,
        level: DurabilityLevel,
        snapshot_every: u64,
        window: Duration,
    ) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
        let wal_path = dir.join("wal.log");
        let mut store = Self {
            dir: dir.to_path_buf(),
            wal: OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(&wal_path)
                .map_err(|e| io_err("open wal", &wal_path, &e))?,
            wal_path,
            wal_len: WAL_HEADER,
            next_lsn: lsn + 1,
            snapshot_lsn: lsn,
            level,
            snapshot_every: snapshot_every.max(1),
            ops_since_snapshot: 0,
            window,
            last_sync: Instant::now(),
            snapshots_written: 0,
        };
        store.write_snapshot(keyset, lsn, flushes)?;
        store.reset_wal()?;
        Ok(store)
    }

    /// Truncates the WAL to a bare header and syncs it.
    fn reset_wal(&mut self) -> Result<()> {
        self.wal
            .set_len(0)
            .map_err(|e| io_err("truncate wal", &self.wal_path, &e))?;
        self.wal
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek wal", &self.wal_path, &e))?;
        self.wal
            .write_all(&WAL_MAGIC)
            .map_err(|e| io_err("write wal header", &self.wal_path, &e))?;
        self.wal
            .sync_data()
            .map_err(|e| io_err("fsync wal", &self.wal_path, &e))?;
        self.wal_len = WAL_HEADER;
        Ok(())
    }

    /// Appends one validated micro-batch as a single WAL record and
    /// applies the fsync policy (group commit). Returns the record's
    /// LSN.
    ///
    /// `tear` and `flip` are the fault-injection surface: a torn append
    /// writes only a prefix of the record (the caller then models
    /// process death), and a flipped append damages one payload bit
    /// *after* the checksum is computed (silent media corruption the
    /// checksum must catch at recovery).
    pub fn log_batch(
        &mut self,
        ops: &[WriteOp],
        flushes: u64,
        tear: bool,
        flip: bool,
    ) -> Result<u64> {
        let lsn = self.next_lsn;
        let mut payload = Vec::with_capacity(PAYLOAD_PREFIX + ops.len() * OP_BYTES);
        payload.extend_from_slice(&lsn.to_le_bytes());
        payload.extend_from_slice(&flushes.to_le_bytes());
        payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
        for op in ops {
            let (tag, key) = match *op {
                WriteOp::Insert(k) => (0u8, k),
                WriteOp::Remove(k) => (1u8, k),
            };
            payload.push(tag);
            payload.extend_from_slice(&key.to_le_bytes());
        }
        let crc = crc32(&payload);
        if flip {
            let byte = (lsn as usize) % payload.len();
            payload[byte] ^= 1 << (lsn % 8);
        }
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc.to_le_bytes());
        record.extend_from_slice(&payload);
        let written = if tear {
            // A torn page: the header and roughly half the payload reach
            // the disk before the "power" goes.
            &record[..RECORD_HEADER + payload.len() / 2]
        } else {
            record.as_slice()
        };
        self.wal
            .write_all(written)
            .map_err(|e| io_err("append wal", &self.wal_path, &e))?;
        self.wal_len += written.len() as u64;
        let due = match self.level {
            DurabilityLevel::Batch => true,
            DurabilityLevel::Window => self.last_sync.elapsed() >= self.window,
            DurabilityLevel::None => false,
        };
        if due || tear {
            self.wal
                .sync_data()
                .map_err(|e| io_err("fsync wal", &self.wal_path, &e))?;
            self.last_sync = Instant::now();
        }
        self.next_lsn = lsn + 1;
        self.ops_since_snapshot += ops.len() as u64;
        Ok(lsn)
    }

    /// Writes a checkpoint if the op budget since the last one is spent.
    /// Returns whether a snapshot was taken.
    pub fn maybe_snapshot(&mut self, keyset: &KeySet, flushes: u64) -> Result<bool> {
        if self.ops_since_snapshot < self.snapshot_every {
            return Ok(false);
        }
        self.snapshot(keyset, flushes)?;
        Ok(true)
    }

    /// Writes a snapshot of `keyset` at the current LSN and truncates
    /// the WAL at it: recovery from here on replays only records past
    /// this point.
    pub fn snapshot(&mut self, keyset: &KeySet, flushes: u64) -> Result<()> {
        let lsn = self.next_lsn - 1;
        self.write_snapshot(keyset, lsn, flushes)?;
        self.reset_wal()?;
        self.snapshot_lsn = lsn;
        self.ops_since_snapshot = 0;
        Ok(())
    }

    /// The tmp + fsync + rename + dir-fsync snapshot write, plus removal
    /// of superseded snapshot (and leftover tmp) files.
    fn write_snapshot(&mut self, keyset: &KeySet, lsn: u64, flushes: u64) -> Result<()> {
        let keys = keyset.keys();
        let domain = keyset.domain();
        let mut payload = Vec::with_capacity(40 + keys.len() * 8);
        payload.extend_from_slice(&lsn.to_le_bytes());
        payload.extend_from_slice(&flushes.to_le_bytes());
        payload.extend_from_slice(&domain.min.to_le_bytes());
        payload.extend_from_slice(&domain.max.to_le_bytes());
        payload.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for &k in keys {
            payload.extend_from_slice(&k.to_le_bytes());
        }
        let mut bytes = Vec::with_capacity(20 + payload.len());
        bytes.extend_from_slice(&SNAP_MAGIC);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);

        let tmp = self.dir.join(format!("snap-{lsn:020}.tmp"));
        let dest = self.dir.join(snapshot_name(lsn));
        let mut file = File::create(&tmp).map_err(|e| io_err("create snapshot", &tmp, &e))?;
        file.write_all(&bytes)
            .map_err(|e| io_err("write snapshot", &tmp, &e))?;
        file.sync_all()
            .map_err(|e| io_err("fsync snapshot", &tmp, &e))?;
        drop(file);
        std::fs::rename(&tmp, &dest).map_err(|e| io_err("rename snapshot", &dest, &e))?;
        sync_dir(&self.dir)?;
        self.snapshots_written += 1;

        // Superseded snapshots and stale tmp files are garbage now that
        // the new checkpoint is durably visible.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let stale_snap = parse_snapshot_name(name).is_some_and(|other| other != lsn);
                let stale_tmp = name.ends_with(".tmp");
                if stale_snap || stale_tmp {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Logical WAL length in bytes (header included) — record boundaries
    /// for the crash-prefix property harness, log growth for reports.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_len
    }

    /// The LSN the next append will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The LSN of the newest checkpoint.
    pub fn snapshot_lsn(&self) -> u64 {
        self.snapshot_lsn
    }

    /// Snapshots written over this store's lifetime (the bootstrap one
    /// included).
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }
}

/// What [`recover`] reconstructed from a durable directory.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The authoritative keyset: newest snapshot plus the replayed tail.
    pub keyset: KeySet,
    /// The last LSN in the recovered timeline (snapshot LSN when the
    /// tail was empty).
    pub last_lsn: u64,
    /// The writer's fault-schedule event counter, for deterministic
    /// chaos replays across the kill (see [`Durability::resume`]).
    pub flushes: u64,
    /// The LSN of the snapshot the recovery started from.
    pub snapshot_lsn: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: usize,
    /// Ops applied during replay.
    pub replayed_ops: usize,
    /// Bytes of torn tail truncated (0 for a clean log).
    pub truncated_bytes: u64,
}

/// Recovers the authoritative state from a durable directory: loads the
/// newest valid snapshot and replays the WAL tail.
///
/// A torn final record — fewer bytes on disk than its length prefix
/// claims, or a checksum mismatch on the very last record — is the
/// append the process died inside; it was never acked, so it is
/// truncated (physically, so a resumed WAL is clean) and recovery
/// proceeds. A checksum mismatch, an implausible length, an LSN gap, or
/// an unreplayable op *with more log behind it* is mid-log corruption
/// and is refused with [`LisError::Corruption`] naming the record.
pub fn recover(dir: &Path) -> Result<Recovered> {
    // Newest snapshot: the highest-LSN `snap-*.snap` (tmp files are
    // unrenamed partial writes and are ignored).
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read dir", dir, &e))?;
    let mut newest: Option<(u64, PathBuf)> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(lsn) = name.to_str().and_then(parse_snapshot_name) else {
            continue;
        };
        if newest.as_ref().is_none_or(|(best, _)| lsn > *best) {
            newest = Some((lsn, entry.path()));
        }
    }
    let Some((snapshot_lsn, snap_path)) = newest else {
        return Err(LisError::Io {
            context: format!("no snapshot found in {}", dir.display()),
        });
    };
    let (mut keyset, mut flushes) = load_snapshot(&snap_path, snapshot_lsn)?;

    // The WAL tail. A directory that lost its WAL but kept a snapshot
    // recovers to the checkpoint (an empty tail).
    let wal_path = dir.join("wal.log");
    let mut bytes = Vec::new();
    match File::open(&wal_path) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes)
                .map_err(|e| io_err("read wal", &wal_path, &e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("open wal", &wal_path, &e)),
    }
    if !bytes.is_empty() && bytes.len() < WAL_MAGIC.len() {
        return Err(corrupt(format!(
            "wal {} shorter than its magic",
            wal_path.display()
        )));
    }
    if !bytes.is_empty() && bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(corrupt(format!(
            "wal {} has a foreign magic",
            wal_path.display()
        )));
    }

    let mut at = if bytes.is_empty() { 0 } else { WAL_MAGIC.len() };
    let mut last_lsn = snapshot_lsn;
    let mut replayed_records = 0usize;
    let mut replayed_ops = 0usize;
    let mut valid_end = at;
    let mut truncated_bytes = 0u64;
    // Replayed ops are validated against the snapshot plus everything
    // replayed before them, and merged into the key array once, after the
    // last record: the tail costs one `O(n)` pass, not one per op.
    let mut stage = Stage::new();
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        if remaining < RECORD_HEADER {
            // A torn record header at the tail.
            truncated_bytes = remaining as u64;
            break;
        }
        let len = u32_at(&bytes, at).unwrap_or(0) as usize;
        let crc = u32_at(&bytes, at + 4).unwrap_or(0);
        if remaining < RECORD_HEADER + len {
            // The final append died mid-write: tolerate and truncate.
            truncated_bytes = remaining as u64;
            break;
        }
        if !(PAYLOAD_PREFIX..=MAX_PAYLOAD).contains(&len) {
            return Err(corrupt(format!(
                "wal record after lsn {last_lsn} at byte {at}: implausible length {len}"
            )));
        }
        let payload = &bytes[at + RECORD_HEADER..at + RECORD_HEADER + len];
        if crc32(payload) != crc {
            if at + RECORD_HEADER + len == bytes.len() {
                // Checksum failure on the very last record: a torn
                // in-place tail write. Never acked; truncate.
                truncated_bytes = remaining as u64;
                break;
            }
            return Err(corrupt(format!(
                "wal record after lsn {last_lsn} at byte {at}: checksum mismatch mid-log"
            )));
        }
        let lsn = u64_at(payload, 0).unwrap_or(0);
        let record_flushes = u64_at(payload, 8).unwrap_or(0);
        let nops = u32_at(payload, 16).unwrap_or(0) as usize;
        if len != PAYLOAD_PREFIX + nops * OP_BYTES {
            return Err(corrupt(format!(
                "wal record lsn {lsn} at byte {at}: op count {nops} disagrees with length {len}"
            )));
        }
        at += RECORD_HEADER + len;
        if lsn <= snapshot_lsn {
            // Pre-checkpoint record (a crash landed between the snapshot
            // rename and the WAL truncation): already in the snapshot.
            valid_end = at;
            continue;
        }
        if lsn != last_lsn + 1 {
            return Err(corrupt(format!(
                "wal record lsn {lsn} follows lsn {last_lsn}: LSN gap mid-log"
            )));
        }
        for i in 0..nops {
            let base = PAYLOAD_PREFIX + i * OP_BYTES;
            let tag = payload[base];
            let key = u64_at(payload, base + 1).unwrap_or(0);
            let applied = match tag {
                0 => stage.insert(&keyset, key),
                1 => stage.remove(&keyset, key),
                other => {
                    return Err(corrupt(format!(
                        "wal record lsn {lsn} op {i}: unknown tag {other}"
                    )))
                }
            };
            if let Err(e) = applied {
                return Err(corrupt(format!(
                    "wal record lsn {lsn} op {i} does not replay against the keyset: {e}"
                )));
            }
        }
        last_lsn = lsn;
        flushes = flushes.max(record_flushes);
        replayed_records += 1;
        replayed_ops += nops;
        valid_end = at;
    }
    keyset.commit(&mut stage);

    if truncated_bytes > 0 {
        // Physically drop the torn tail so a resumed WAL is clean.
        let file = OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .map_err(|e| io_err("open wal for truncation", &wal_path, &e))?;
        file.set_len(valid_end as u64)
            .map_err(|e| io_err("truncate torn wal tail", &wal_path, &e))?;
        file.sync_data()
            .map_err(|e| io_err("fsync wal", &wal_path, &e))?;
    }

    Ok(Recovered {
        keyset,
        last_lsn,
        flushes,
        snapshot_lsn,
        replayed_records,
        replayed_ops,
        truncated_bytes,
    })
}

/// Loads and validates one snapshot file.
fn load_snapshot(path: &Path, expect_lsn: u64) -> Result<(KeySet, u64)> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read snapshot", path, &e))?;
    let header = SNAP_MAGIC.len() + 12;
    if bytes.len() < header || bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(corrupt(format!(
            "snapshot {} missing its magic/header",
            path.display()
        )));
    }
    let crc = u32_at(&bytes, 8).unwrap_or(0);
    let payload_len = u64_at(&bytes, 12).unwrap_or(0) as usize;
    let Some(payload) = bytes.get(header..header + payload_len) else {
        return Err(corrupt(format!(
            "snapshot {} shorter than its declared payload",
            path.display()
        )));
    };
    if crc32(payload) != crc {
        return Err(corrupt(format!(
            "snapshot {}: checksum mismatch",
            path.display()
        )));
    }
    let lsn = u64_at(payload, 0).unwrap_or(0);
    let flushes = u64_at(payload, 8).unwrap_or(0);
    let min = u64_at(payload, 16).unwrap_or(0);
    let max = u64_at(payload, 24).unwrap_or(0);
    let nkeys = u64_at(payload, 32).unwrap_or(0) as usize;
    if lsn != expect_lsn {
        return Err(corrupt(format!(
            "snapshot {}: header lsn {lsn} disagrees with file name",
            path.display()
        )));
    }
    if payload.len() != 40 + nkeys * 8 {
        return Err(corrupt(format!(
            "snapshot {}: key count {nkeys} disagrees with payload length",
            path.display()
        )));
    }
    let mut keys = Vec::with_capacity(nkeys);
    for i in 0..nkeys {
        match u64_at(payload, 40 + i * 8) {
            Some(k) => keys.push(k),
            None => {
                return Err(corrupt(format!(
                    "snapshot {}: truncated key table",
                    path.display()
                )))
            }
        }
    }
    let domain = KeyDomain::new(min, max)
        .map_err(|e| corrupt(format!("snapshot {}: invalid domain: {e}", path.display())))?;
    let keyset = KeySet::new(keys, domain)
        .map_err(|e| corrupt(format!("snapshot {}: invalid keyset: {e}", path.display())))?;
    Ok((keyset, flushes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::keys::Key;
    use lis_core::scratch::ScratchDir;

    fn base_keyset(n: u64) -> KeySet {
        let domain = KeyDomain::new(0, 1_000_000).unwrap();
        KeySet::new((0..n).map(|i| i * 11 + 5).collect(), domain).unwrap()
    }

    fn store(dir: &Path, ks: &KeySet, every: u64) -> DurableStore {
        DurableStore::bootstrap(
            dir,
            ks,
            0,
            0,
            DurabilityLevel::Batch,
            every,
            Duration::from_millis(50),
        )
        .unwrap()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // CRC-32/ISO-HDLC check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bootstrap_then_recover_roundtrips_the_keyset() {
        let scratch = ScratchDir::new("durability-roundtrip").unwrap();
        let dir = scratch.path();
        let ks = base_keyset(500);
        let _store = store(dir, &ks, u64::MAX);
        let rec = recover(dir).unwrap();
        assert_eq!(rec.keyset.keys(), ks.keys());
        assert_eq!(rec.last_lsn, 0);
        assert_eq!(rec.replayed_records, 0);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn wal_tail_replays_in_order() {
        let scratch = ScratchDir::new("durability-replay").unwrap();
        let dir = scratch.path();
        let mut ks = base_keyset(100);
        let mut s = store(dir, &ks, u64::MAX);
        for round in 0..5u64 {
            let ins: Vec<Key> = (0..3).map(|i| 2_000 + round * 10 + i).collect();
            let ops: Vec<WriteOp> = ins.iter().map(|&k| WriteOp::Insert(k)).collect();
            for &k in &ins {
                ks.insert(k).unwrap();
            }
            s.log_batch(&ops, round + 1, false, false).unwrap();
        }
        // One remove batch too.
        let victim = ks.keys()[0];
        ks.remove(victim).unwrap();
        s.log_batch(&[WriteOp::Remove(victim)], 6, false, false)
            .unwrap();

        let rec = recover(dir).unwrap();
        assert_eq!(rec.keyset.keys(), ks.keys());
        assert_eq!(rec.last_lsn, 6);
        assert_eq!(rec.replayed_records, 6);
        assert_eq!(rec.replayed_ops, 16);
        assert_eq!(rec.flushes, 6, "flushes counter must ride the records");
    }

    #[test]
    fn snapshot_truncates_the_wal_and_persists_flushes() {
        let scratch = ScratchDir::new("durability-snapshot").unwrap();
        let dir = scratch.path();
        let mut ks = base_keyset(100);
        let mut s = store(dir, &ks, 4);
        for round in 0..4u64 {
            let k = 3_000 + round;
            ks.insert(k).unwrap();
            s.log_batch(&[WriteOp::Insert(k)], round + 1, false, false)
                .unwrap();
        }
        assert!(s.maybe_snapshot(&ks, 4).unwrap());
        assert_eq!(s.wal_bytes(), WAL_HEADER, "snapshot must truncate the wal");
        assert_eq!(s.snapshot_lsn(), 4);
        // Tail past the checkpoint.
        ks.insert(9_999).unwrap();
        s.log_batch(&[WriteOp::Insert(9_999)], 5, false, false)
            .unwrap();

        let rec = recover(dir).unwrap();
        assert_eq!(rec.keyset.keys(), ks.keys());
        assert_eq!(rec.snapshot_lsn, 4);
        assert_eq!(rec.replayed_records, 1);
        assert_eq!(rec.last_lsn, 5);
        assert_eq!(rec.flushes, 5);
    }

    #[test]
    fn torn_final_record_is_truncated_not_fatal() {
        let scratch = ScratchDir::new("durability-torn").unwrap();
        let dir = scratch.path();
        let mut ks = base_keyset(100);
        let mut s = store(dir, &ks, u64::MAX);
        ks.insert(4_001).unwrap();
        s.log_batch(&[WriteOp::Insert(4_001)], 1, false, false)
            .unwrap();
        // The torn append: never acked, must not survive.
        s.log_batch(&[WriteOp::Insert(4_002)], 2, true, false)
            .unwrap();

        let rec = recover(dir).unwrap();
        assert_eq!(rec.keyset.keys(), ks.keys(), "torn batch half-applied");
        assert_eq!(rec.last_lsn, 1);
        assert!(rec.truncated_bytes > 0);
        // The truncation is physical: a second recovery sees a clean log.
        let rec2 = recover(dir).unwrap();
        assert_eq!(rec2.truncated_bytes, 0);
        assert_eq!(rec2.keyset.keys(), ks.keys());
    }

    #[test]
    fn mid_log_bit_flip_is_refused_with_corruption() {
        let scratch = ScratchDir::new("durability-bitflip").unwrap();
        let dir = scratch.path();
        let ks = base_keyset(100);
        let mut s = store(dir, &ks, u64::MAX);
        // Record 1 takes the flip; record 2 behind it makes it mid-log.
        s.log_batch(&[WriteOp::Insert(5_001)], 1, false, true)
            .unwrap();
        s.log_batch(&[WriteOp::Insert(5_002)], 2, false, false)
            .unwrap();
        let err = recover(dir).unwrap_err();
        assert!(
            matches!(err, LisError::Corruption { .. }),
            "expected Corruption, got {err}"
        );
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn flipped_final_record_is_treated_as_torn() {
        // The documented limitation boundary: damage on the very last
        // record cannot be told from a torn in-place write, so it
        // truncates instead of refusing.
        let scratch = ScratchDir::new("durability-flip-tail").unwrap();
        let dir = scratch.path();
        let ks = base_keyset(50);
        let mut s = store(dir, &ks, u64::MAX);
        s.log_batch(&[WriteOp::Insert(6_001)], 1, false, true)
            .unwrap();
        let rec = recover(dir).unwrap();
        assert_eq!(rec.keyset.keys(), ks.keys());
        assert!(rec.truncated_bytes > 0);
    }

    #[test]
    fn lsn_gap_is_refused() {
        let scratch = ScratchDir::new("durability-gap").unwrap();
        let dir = scratch.path();
        let ks = base_keyset(50);
        let mut s = store(dir, &ks, u64::MAX);
        s.log_batch(&[WriteOp::Insert(7_001)], 1, false, false)
            .unwrap();
        s.next_lsn += 1; // Skip an LSN, as a lost record would.
        s.log_batch(&[WriteOp::Insert(7_002)], 2, false, false)
            .unwrap();
        let err = recover(dir).unwrap_err();
        assert!(matches!(err, LisError::Corruption { .. }), "{err}");
        assert!(err.to_string().contains("LSN gap"), "{err}");
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let err = recover(Path::new("/nonexistent/lis-durability")).unwrap_err();
        assert!(matches!(err, LisError::Io { .. }), "{err}");
        assert!(err.is_retryable(), "I/O must classify as retryable");
    }

    #[test]
    fn corrupt_snapshot_is_refused() {
        let scratch = ScratchDir::new("durability-snapcorrupt").unwrap();
        let dir = scratch.path();
        let ks = base_keyset(80);
        let _s = store(dir, &ks, u64::MAX);
        let snap = dir.join(snapshot_name(0));
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, bytes).unwrap();
        let err = recover(dir).unwrap_err();
        assert!(matches!(err, LisError::Corruption { .. }), "{err}");
    }

    #[test]
    fn resume_continues_lsns_and_flushes() {
        let scratch = ScratchDir::new("durability-resume").unwrap();
        let dir = scratch.path();
        let mut ks = base_keyset(60);
        let mut s = store(dir, &ks, u64::MAX);
        ks.insert(8_001).unwrap();
        s.log_batch(&[WriteOp::Insert(8_001)], 3, false, false)
            .unwrap();
        let rec = recover(dir).unwrap();
        assert_eq!(rec.flushes, 3);

        let dur = Durability::resume(dir, &rec).snapshot_every(1_000);
        assert_eq!(dur.resume_flushes(), 3);
        let mut resumed = dur
            .open(&rec.keyset, Duration::from_millis(50))
            .unwrap()
            .unwrap();
        assert_eq!(resumed.next_lsn(), rec.last_lsn + 1);
        let mut ks2 = rec.keyset.clone();
        ks2.insert(8_002).unwrap();
        resumed
            .log_batch(&[WriteOp::Insert(8_002)], 4, false, false)
            .unwrap();
        let rec2 = recover(dir).unwrap();
        assert_eq!(rec2.keyset.keys(), ks2.keys());
        assert_eq!(rec2.last_lsn, rec.last_lsn + 1);
        assert_eq!(rec2.flushes, 4);
    }
}
