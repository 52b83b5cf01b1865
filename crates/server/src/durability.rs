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
//! ## Checksums and snapshot I/O
//!
//! Both checksums are [`Crc32`], a slicing-by-16 CRC-32/ISO-HDLC: sixteen
//! compile-time tables (16 KiB) fold sixteen bytes per step. On a
//! two-CPU shared VM an 8 MB snapshot costs ~4 ms of checksum, against
//! ~22 ms for a byte-at-a-time loop. [`crc32`] is its one-shot form.
//!
//! Snapshots never exist as one byte buffer. A checkpoint checksums the
//! payload in one pass over the keys, then writes the 60-byte header and
//! streams the key table through one 64 KiB block. A load reads the
//! header first and checks it against the file's length (with checked
//! arithmetic) before it allocates anything; it then streams the key table
//! through one 64 KiB block, checksumming and parsing each block into the
//! key array while it is in cache. A file that ends early, a length that
//! disagrees with the file, a checksum mismatch, an empty or disordered
//! key table, or a key outside the header's domain is
//! [`LisError::Corruption`] naming the file (and the key index): a
//! disordered table is refused, never re-sorted into a different keyset.
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
use lis_core::keys::{Key, KeyDomain, KeySet, Stage};
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
/// Snapshot frame: magic + crc:u32 + payload_len:u64.
const SNAP_FRAME: usize = 20;
/// Snapshot frame plus the fixed payload prefix (lsn, flushes, domain,
/// nkeys): everything before the key table.
const SNAP_HEAD: usize = SNAP_FRAME + 40;
/// Bytes per streamed block of the snapshot key table (a multiple of 8,
/// so each block holds whole keys).
const IO_BLOCK: usize = 64 * 1024;

/// Slicing-by-16 tables for CRC-32/ISO-HDLC (reflected polynomial
/// `0xEDB88320`), built at compile time. `CRC_TABLES[0]` is the classic
/// byte table; `CRC_TABLES[k][b]` is the register contribution of byte
/// `b` followed by `k` zero bytes, so sixteen lookups fold sixteen input
/// bytes at once.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// An incremental CRC-32/ISO-HDLC: feeding a byte string in any split
/// through [`Crc32::update`] gives the same [`Crc32::finish`] as
/// [`crc32`] over the whole. The workspace carries no checksum crate.
#[derive(Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of the empty string, ready for input.
    pub const fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum, sixteen bytes per step.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][usize::from(b[4])]
                ^ t[10][usize::from(b[5])]
                ^ t[9][usize::from(b[6])]
                ^ t[8][usize::from(b[7])]
                ^ t[7][usize::from(b[8])]
                ^ t[6][usize::from(b[9])]
                ^ t[5][usize::from(b[10])]
                ^ t[4][usize::from(b[11])]
                ^ t[3][usize::from(b[12])]
                ^ t[2][usize::from(b[13])]
                ^ t[1][usize::from(b[14])]
                ^ t[0][usize::from(b[15])];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// CRC-32/ISO-HDLC of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
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
    /// of superseded snapshot (and leftover tmp) files. The keys are
    /// streamed twice through one [`IO_BLOCK`] buffer — once for the
    /// payload checksum, once to the file — so no copy of the key table
    /// is ever built.
    fn write_snapshot(&mut self, keyset: &KeySet, lsn: u64, flushes: u64) -> Result<()> {
        let keys = keyset.keys();
        let domain = keyset.domain();
        let mut head = [0u8; SNAP_HEAD];
        let fields = [lsn, flushes, domain.min, domain.max, keys.len() as u64];
        for (slot, field) in head[SNAP_FRAME..].chunks_exact_mut(8).zip(fields) {
            slot.copy_from_slice(&field.to_le_bytes());
        }
        let mut block = vec![0u8; IO_BLOCK];
        let mut crc = Crc32::new();
        crc.update(&head[SNAP_FRAME..]);
        stream_keys(keys, &mut block, |bytes| {
            crc.update(bytes);
            Ok(())
        })?;
        let payload_len = (SNAP_HEAD - SNAP_FRAME + keys.len() * 8) as u64;
        head[..8].copy_from_slice(&SNAP_MAGIC);
        head[8..12].copy_from_slice(&crc.finish().to_le_bytes());
        head[12..SNAP_FRAME].copy_from_slice(&payload_len.to_le_bytes());

        let tmp = self.dir.join(format!("snap-{lsn:020}.tmp"));
        let dest = self.dir.join(snapshot_name(lsn));
        let mut file = File::create(&tmp).map_err(|e| io_err("create snapshot", &tmp, &e))?;
        let mut write = |bytes: &[u8]| {
            file.write_all(bytes)
                .map_err(|e| io_err("write snapshot", &tmp, &e))
        };
        write(&head)?;
        stream_keys(keys, &mut block, write)?;
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

/// Hands `keys` to `sink` as little-endian bytes, one filled `block` at
/// a time.
fn stream_keys(
    keys: &[Key],
    block: &mut [u8],
    mut sink: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    for run in keys.chunks(block.len() / 8) {
        let bytes = &mut block[..run.len() * 8];
        for (slot, &key) in bytes.chunks_exact_mut(8).zip(run) {
            slot.copy_from_slice(&key.to_le_bytes());
        }
        sink(bytes)?;
    }
    Ok(())
}

/// `read_exact` on a snapshot: a file that ends early is damage
/// ([`LisError::Corruption`]), any other failure retryable I/O.
fn read_snapshot(file: &mut File, buf: &mut [u8], path: &Path) -> Result<()> {
    file.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            corrupt(format!("snapshot {}: truncated", path.display()))
        }
        _ => io_err("read snapshot", path, &e),
    })
}

/// Loads and validates one snapshot file. The fixed header is checked
/// against the file's length before anything is allocated; the key table
/// then streams through one [`IO_BLOCK`] buffer, each block checksummed
/// and parsed while it is in cache. The table must be strictly ascending
/// inside the declared domain: a disordered table is refused, never
/// re-sorted into a different keyset.
fn load_snapshot(path: &Path, expect_lsn: u64) -> Result<(KeySet, u64)> {
    let name = path.display();
    let mut file = File::open(path).map_err(|e| io_err("open snapshot", path, &e))?;
    let file_len = file
        .metadata()
        .map_err(|e| io_err("stat snapshot", path, &e))?
        .len();
    let mut head = [0u8; SNAP_HEAD];
    if file_len < SNAP_FRAME as u64 {
        return Err(corrupt(format!("snapshot {name} missing its magic/header")));
    }
    read_snapshot(&mut file, &mut head[..SNAP_FRAME], path)?;
    if head[..8] != SNAP_MAGIC {
        return Err(corrupt(format!("snapshot {name} missing its magic/header")));
    }
    let crc = u32_at(&head, 8).unwrap_or(0);
    let payload_len = u64_at(&head, 12).unwrap_or(0);
    if payload_len != file_len - SNAP_FRAME as u64 {
        return Err(corrupt(format!(
            "snapshot {name}: declared payload of {payload_len} bytes disagrees with its {file_len}-byte file"
        )));
    }
    if payload_len < (SNAP_HEAD - SNAP_FRAME) as u64 {
        return Err(corrupt(format!(
            "snapshot {name}: payload of {payload_len} bytes is shorter than its header"
        )));
    }
    read_snapshot(&mut file, &mut head[SNAP_FRAME..], path)?;
    let [lsn, flushes, min, max, nkeys] =
        std::array::from_fn(|i| u64_at(&head, SNAP_FRAME + i * 8).unwrap_or(0));
    let table_len = nkeys
        .checked_mul(8)
        .filter(|&bytes| bytes.checked_add((SNAP_HEAD - SNAP_FRAME) as u64) == Some(payload_len))
        .and_then(|bytes| usize::try_from(bytes).ok());
    let Some(mut left) = table_len else {
        return Err(corrupt(format!(
            "snapshot {name}: key count {nkeys} disagrees with payload length"
        )));
    };

    let mut checksum = Crc32::new();
    checksum.update(&head[SNAP_FRAME..]);
    let mut keys: Vec<Key> = Vec::with_capacity(left / 8);
    let mut block = vec![0u8; IO_BLOCK.min(left)];
    // The first index whose key does not exceed its predecessor; reported
    // only once the checksum has vouched for the bytes.
    let mut disorder = None;
    while left > 0 {
        let bytes = &mut block[..left.min(IO_BLOCK)];
        read_snapshot(&mut file, bytes, path)?;
        checksum.update(bytes);
        let start = keys.len();
        keys.extend(bytes.chunks_exact(8).map(|b| u64_at(b, 0).unwrap_or(0)));
        if disorder.is_none() {
            let from = start.saturating_sub(1);
            disorder = keys[from..]
                .windows(2)
                .position(|w| w[0] >= w[1])
                .map(|i| from + i + 1);
        }
        left -= bytes.len();
    }
    if checksum.finish() != crc {
        return Err(corrupt(format!("snapshot {name}: checksum mismatch")));
    }
    if lsn != expect_lsn {
        return Err(corrupt(format!(
            "snapshot {name}: header lsn {lsn} disagrees with file name"
        )));
    }
    let domain = KeyDomain::new(min, max)
        .map_err(|e| corrupt(format!("snapshot {name}: invalid domain: {e}")))?;
    let (Some(&first), Some(&last)) = (keys.first(), keys.last()) else {
        return Err(corrupt(format!("snapshot {name}: empty key table")));
    };
    if let Some(i) = disorder {
        return Err(corrupt(format!(
            "snapshot {name}: key {i} ({}) does not exceed key {} ({}): the key table is not strictly ascending",
            keys[i],
            i - 1,
            keys[i - 1]
        )));
    }
    for (i, key) in [(0, first), (keys.len() - 1, last)] {
        if !domain.contains(key) {
            return Err(corrupt(format!(
                "snapshot {name}: key {i} ({key}) lies outside the domain {domain}"
            )));
        }
    }
    Ok((KeySet::from_sorted_unchecked(keys, domain), flushes))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The byte-at-a-time CRC-32/ISO-HDLC the sliced kernel must equal,
    /// shifting each byte through the polynomial bit by bit so it shares
    /// no table with the kernel.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// `len` deterministic pseudo-random bytes (SplitMix64 over `seed`).
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut out: Vec<u8> = (0..len.div_ceil(8))
            .flat_map(|_| next().to_le_bytes())
            .collect();
        out.truncate(len);
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // CRC-32/ISO-HDLC check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc_matches_the_byte_loop() {
        let bytes = random_bytes(1, 96);
        for offset in 0..16 {
            for len in 0..=80 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_reference(slice),
                    "offset {offset} len {len}"
                );
            }
        }
        let big = random_bytes(2, 1 << 20);
        assert_eq!(crc32(&big), crc32_reference(&big));
    }

    #[test]
    fn incremental_crc_matches_one_shot() {
        let bytes = random_bytes(3, 4_099);
        let whole = crc32(&bytes);
        for (round, cuts) in random_bytes(4, 64 * 6).chunks_exact(6).enumerate() {
            // Up to six random split points, sorted, some repeated.
            let mut at: Vec<usize> = cuts
                .iter()
                .map(|&c| usize::from(c) * bytes.len() / 256)
                .collect();
            at.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for &to in at.iter().chain([&bytes.len()]) {
                crc.update(&bytes[from..to]);
                from = to;
            }
            assert_eq!(crc.finish(), whole, "split {round}: {at:?}");
        }
    }

    /// FNV-1a 64 of `bytes`: pins a whole file in one constant.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn on_disk_bytes_are_pinned() {
        // A 1,000-key snapshot and one 32-op WAL record, byte for byte:
        // any change to the format or to the checksum breaks this pin.
        let scratch = ScratchDir::new("durability-pinned").unwrap();
        let dir = scratch.path();
        let domain = KeyDomain::new(3, 1 << 40).unwrap();
        let ks = KeySet::new(
            (0..1_000u64).map(|i| 3 + i * i * 7_919 + i).collect(),
            domain,
        )
        .unwrap();
        let mut s = DurableStore::bootstrap(
            dir,
            &ks,
            41,
            17,
            DurabilityLevel::None,
            u64::MAX,
            Duration::from_millis(50),
        )
        .unwrap();
        let ops: Vec<WriteOp> = (0..32u64)
            .map(|i| match i % 4 {
                3 => WriteOp::Remove(ks.keys()[i as usize * 9]),
                _ => WriteOp::Insert((1 << 39) | (i * 1_021)),
            })
            .collect();
        s.log_batch(&ops, 18, false, false).unwrap();

        let snap = std::fs::read(dir.join(snapshot_name(41))).unwrap();
        assert_eq!(snap.len(), 20 + 40 + 1_000 * 8);
        assert_eq!(
            hex(&snap[..60]),
            "4c4953534e503031e839f09c681f0000000000002900000000000000110000000000000003000000000000000000000000010000e803000000000000"
        );
        assert_eq!(fnv1a(&snap), 6_700_352_697_315_114_432);
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        assert_eq!(
            wal.len(),
            8 + RECORD_HEADER + PAYLOAD_PREFIX + 32 * OP_BYTES
        );
        assert_eq!(
            hex(&wal[..36]),
            "4c495357414c303134010000ea6d33a32a00000000000000120000000000000020000000"
        );
        assert_eq!(fnv1a(&wal), 14_446_385_672_270_752_426);

        let rec = recover(dir).unwrap();
        let mut live = ks.clone();
        for op in &ops {
            match *op {
                WriteOp::Insert(k) => live.insert(k).unwrap(),
                WriteOp::Remove(k) => live.remove(k).unwrap(),
            }
        }
        assert_eq!(rec.keyset, live);
        assert_eq!((rec.snapshot_lsn, rec.last_lsn, rec.flushes), (41, 42, 18));
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

    /// Applies `edit` to the bootstrap snapshot's bytes; with `reseal`,
    /// recomputes the payload checksum so only the edit is wrong.
    fn damage_snapshot(dir: &Path, reseal: bool, edit: impl FnOnce(&mut Vec<u8>)) {
        let snap = dir.join(snapshot_name(0));
        let mut bytes = std::fs::read(&snap).unwrap();
        edit(&mut bytes);
        if reseal {
            let crc = crc32_reference(&bytes[SNAP_FRAME..]);
            bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        }
        std::fs::write(&snap, bytes).unwrap();
    }

    fn corruption(dir: &Path) -> String {
        let err = recover(dir).unwrap_err();
        assert!(matches!(err, LisError::Corruption { .. }), "{err}");
        err.to_string()
    }

    #[test]
    fn disordered_snapshot_is_refused_not_resorted() {
        let key = |i: usize| SNAP_HEAD + i * 8;
        // The last case swaps the two keys either side of the first
        // streamed block boundary.
        let cases = [("swapped", 41), ("repeated", 7), ("swapped", IO_BLOCK / 8)];
        for (what, i) in cases {
            let scratch = ScratchDir::new("durability-disorder").unwrap();
            let dir = scratch.path();
            let _s = store(dir, &base_keyset(9_000), u64::MAX);
            damage_snapshot(dir, true, |bytes| {
                let (a, b) = (key(i - 1), key(i));
                if what == "swapped" {
                    let (lo, hi) = bytes.split_at_mut(b);
                    lo[a..b].swap_with_slice(&mut hi[..8]);
                } else {
                    bytes.copy_within(a..b, b);
                }
            });
            let text = corruption(dir);
            assert!(
                text.contains(&format!("key {i} ")) && text.contains("not strictly ascending"),
                "{what}: {text}"
            );
        }
    }

    #[test]
    fn snapshot_key_outside_its_domain_is_refused() {
        let scratch = ScratchDir::new("durability-domain").unwrap();
        let dir = scratch.path();
        let ks = base_keyset(80);
        let _s = store(dir, &ks, u64::MAX);
        // Shrink domain_max below the last key.
        damage_snapshot(dir, true, |bytes| {
            bytes[SNAP_FRAME + 24..SNAP_FRAME + 32].copy_from_slice(&100u64.to_le_bytes());
        });
        let text = corruption(dir);
        assert!(
            text.contains("key 79 ") && text.contains("outside the domain"),
            "{text}"
        );
    }

    #[test]
    fn malformed_snapshot_header_is_corruption_without_allocating() {
        type Edit = fn(&mut Vec<u8>);
        fn set_u64(b: &mut [u8], at: usize, v: u64) {
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        let cases: [(&str, Edit, &str); 5] = [
            (
                "truncated",
                |b| b.truncate(b.len() - 3),
                "disagrees with its",
            ),
            (
                "header cut short",
                |b| b.truncate(SNAP_HEAD - 1),
                "disagrees with its",
            ),
            (
                "nkeys × 8 overflows",
                |b| set_u64(b, SNAP_FRAME + 32, u64::MAX / 4),
                "key count",
            ),
            (
                "payload_len one frame past the file",
                |b| {
                    let len = b.len() as u64;
                    set_u64(b, 12, len)
                },
                "disagrees with its",
            ),
            (
                "payload_len near u64::MAX",
                |b| set_u64(b, 12, u64::MAX - 7),
                "disagrees with its",
            ),
        ];
        for (what, edit, says) in cases {
            let scratch = ScratchDir::new("durability-header").unwrap();
            let dir = scratch.path();
            let _s = store(dir, &base_keyset(80), u64::MAX);
            damage_snapshot(dir, false, edit);
            let text = corruption(dir);
            assert!(text.contains(says), "{what}: {text}");
        }
    }

    #[test]
    fn recover_roundtrips_a_benchmark_sized_directory() {
        // The benchmark's recovery shape: 1M keys behind a 64 × 32-op tail.
        let scratch = ScratchDir::new("durability-bench-sized").unwrap();
        let dir = scratch.path();
        let domain = KeyDomain::new(0, 20_000_000).unwrap();
        let mut live = KeySet::new((0..1_000_000).map(|i| i * 10 + 3).collect(), domain).unwrap();
        let mut s = store(dir, &live, u64::MAX);
        for record in 0..64u64 {
            let ops: Vec<WriteOp> = (0..32)
                .map(|i| WriteOp::Insert(record * 320 + i * 10 + 7))
                .collect();
            live.insert_all(ops.iter().map(|op| match *op {
                WriteOp::Insert(k) | WriteOp::Remove(k) => k,
            }))
            .unwrap();
            s.log_batch(&ops, record + 1, false, false).unwrap();
        }
        let rec = recover(dir).unwrap();
        assert_eq!(rec.keyset, live);
        assert_eq!((rec.replayed_records, rec.replayed_ops), (64, 2_048));
        assert_eq!(
            (rec.last_lsn, rec.flushes, rec.truncated_bytes),
            (64, 64, 0)
        );
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
