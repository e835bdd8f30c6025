//! The on-disk sink of a [`Wal`]: segmented, preallocated, with coalesced
//! group commit and torn-tail-tolerant recovery.
//!
//! `Segments` owns where a durable log's *bytes* go — the segment files, the
//! pending encode buffer, byte tickets, the shared durable watermark, I/O
//! counters, the manifest and the crash transform. It holds no
//! records: the decoded log lives once, in the [`Wal`] that owns the sink,
//! and every logical operation (`records`, `recover`, `checkpoint`) runs
//! there whether or not a sink is attached.
//!
//! ## Segmented layout
//!
//! The log is a sequence of fixed-capacity *segments*, named by the logical
//! byte offset of their first byte (`<root>.<base:016x>.seg` next to the
//! configured root path). Tickets are *global* logical offsets; a record at
//! logical offset `o` lives in the segment with the largest `base <= o`, at
//! file offset `o - base`. Segments are preallocated (`set_len` + sync) at
//! creation so appends never extend the file's metadata on the hot path, and
//! the unwritten region reads back as zeros — which the frame codec rejects
//! as a torn tail, so a half-filled segment recovers exactly to its last
//! complete frame.
//!
//! A frame **never straddles a segment boundary**: rotation happens at
//! append time, before the frame is placed, so the segment it lands in holds
//! it entirely (an oversized frame gets an oversized segment to itself). The
//! unused tail of a rotated-away segment is *rotation waste*; the next
//! segment's base records exactly where valid data ended, which is how
//! recovery tells waste from a genuine tear.
//!
//! Compaction ([`Wal::compact`]) never rewrites the log: a small manifest
//! file (`<root>.manifest`, written via tmp + fsync + atomic rename +
//! directory fsync) records the logical offset of the last checkpoint, and
//! whole segments that end at or before that offset are deleted. Byte
//! tickets stay monotone forever — nothing is ever renumbered. Compaction
//! fsyncs inline, so the engine never runs it: a running site truncates
//! only its in-memory records, and its segment files keep growing.
//!
//! ## Durability model
//!
//! Appends are buffered in memory and reach the disk one way: sealed into a
//! [`FlushBatch`] and executed, on a runtime's disk or inline by [`sync`]
//! (wait for the batches sealed before, seal, execute). Progress is tracked
//! in *byte tickets*: [`append_ticket`] after an
//! append names the byte offset that must become durable before any promise
//! depending on that record (a yes-vote, a decision ack) may leave the site;
//! [`durable_ticket`] is the current durable watermark and
//! [`sealed_ticket`] the sealed watermark (bytes handed to the flush
//! pipeline, in order). Because the log is written and fsynced strictly in
//! order, durability is *prefix-closed*: a durable ticket covers every
//! earlier record. Group commit falls out of the ticket scheme — one fsync
//! advances the watermark past every record flushed in the window — and
//! [`FlushBatch::execute_all`] *coalesces* a burst of sealed batches into
//! one buffered write + one fsync per touched segment file.
//!
//! A log is *dead* exactly when its [`FlushProgress`] is poisoned: a write
//! or fsync failed, a rotation could not create or grow a segment, or a
//! sealed batch could not get a file handle. A dead log still seals; its
//! batch is dropped unwritten and its completion fails, so every log failure
//! reaches the engine the same way.
//!
//! [`Wal`]: crate::wal::Wal
//! [`sync`]: crate::wal::Wal::sync
//! [`append_ticket`]: crate::wal::Wal::append_ticket
//! [`durable_ticket`]: crate::wal::Wal::durable_ticket
//! [`sealed_ticket`]: crate::wal::Wal::sealed_ticket
//! [`Wal::crash`]: crate::wal::Wal::crash
//! [`Wal::open`]: crate::wal::Wal::open
//! [`Wal::compact`]: crate::wal::Wal::compact
//!
//! ## Crash model
//!
//! A simulated crash ([`Wal::crash`]) is *adversarial*: unsynced
//! bytes are discarded, every segment is cut back to the durable watermark
//! (the maximum data loss an fsync-honouring disk permits), and later
//! segments are deleted — for a dead log too. A failed write is harsher
//! when no crash follows: a severed batch ([`FlushBatch::sever`]) tears a
//! frame mid-write, leaving a tail only checksum validation can reject.
//! Reopening with [`Wal::open`] discards any torn or corrupt tail —
//! first tear wins: nothing after the first bad frame, in this or any later
//! segment, is replayed.

use crate::codec::{decode_all, encode_frame, le_u32, le_u64};
use crate::wal::LogRecord;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Default segment capacity (4 MiB) when none is configured.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Per-WAL unique ids, so a flusher coalescing batches from several WALs can
/// tell their segment files apart without comparing inodes.
static WAL_UID: AtomicU64 = AtomicU64::new(0);

/// Observable I/O counters for one WAL (shared with its flush batches).
/// `fsyncs` counts *data-path* syncs only — the ones group commit pays per
/// transaction batch; preallocation, manifest, and truncation syncs are
/// metadata and not counted.
#[derive(Debug, Default)]
pub struct WalStats {
    fsyncs: AtomicU64,
}

impl WalStats {
    /// Data fsyncs performed so far (every flush-batch execution, inline
    /// syncs included).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Acquire)
    }

    fn add_fsyncs(&self, n: u64) {
        self.fsyncs.fetch_add(n, Ordering::AcqRel);
    }
}

/// Shared durable-watermark cell: the engine parks outgoing messages against
/// it and a background flusher advances it. Byte tickets are monotone, so a
/// single `fetch_max` + broadcast is enough. A flusher that hits a real I/O
/// error *poisons* the cell so waiters fail loudly instead of hanging on a
/// watermark that can never advance.
#[derive(Debug, Default)]
pub struct FlushProgress {
    durable: AtomicU64,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    cond: Condvar,
}

impl FlushProgress {
    fn new(durable: u64) -> Arc<Self> {
        Arc::new(FlushProgress {
            durable: AtomicU64::new(durable),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        })
    }

    /// The waiters' lock. It guards no data (the watermark and the poison
    /// flag are atomics), so a panic while it was held left nothing half
    /// written: a poisoned lock is taken as it is.
    fn guard(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current durable byte watermark.
    pub fn durable(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Advance the watermark (monotone) and wake waiters.
    pub fn advance(&self, to: u64) {
        let _g = self.guard();
        self.durable.fetch_max(to, Ordering::AcqRel);
        self.cond.notify_all();
    }

    /// Mark the log device failed: the watermark will never advance again.
    pub fn poison(&self) {
        let _g = self.guard();
        self.poisoned.store(true, Ordering::Release);
        self.cond.notify_all();
    }

    /// True once a flusher reported an unrecoverable I/O error.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Block until the watermark reaches `ticket`, or fail if the cell was
    /// poisoned before it got there.
    pub fn wait_for(&self, ticket: u64) -> io::Result<()> {
        if self.durable() >= ticket {
            return Ok(());
        }
        let mut g = self.guard();
        while self.durable() < ticket {
            if self.is_poisoned() {
                return Err(io::Error::other("wal flush pipeline failed"));
            }
            g = self.cond.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        Ok(())
    }
}

/// One physical write of a flush batch: a slice of the batch's bytes into a
/// segment file at a fixed offset (pwrite — no shared cursor to race on).
#[derive(Debug)]
struct SegWrite {
    /// The segment's own handle, shared: sealing a batch opens nothing.
    file: Arc<File>,
    /// (wal uid, segment base): identifies the file for fsync coalescing.
    sync_key: (u64, u64),
    /// File offset of the write.
    off: u64,
    /// Range into the batch's byte buffer.
    start: usize,
    len: usize,
}

/// A sealed batch of appended bytes for a flusher: write + fsync,
/// then advance the shared watermark. Batches sealed from one WAL must be
/// executed in seal order, preserving prefix durability; a batch may span a
/// rotation point, in which case it carries one write per touched segment.
#[derive(Debug)]
pub struct FlushBatch {
    bytes: Vec<u8>,
    writes: Vec<SegWrite>,
    ticket: u64,
    progress: Arc<FlushProgress>,
    stats: Arc<WalStats>,
}

impl FlushBatch {
    /// Byte ticket this batch advances the watermark to.
    pub fn ticket(&self) -> u64 {
        self.ticket
    }

    /// The watermark cell this batch advances (or poisons).
    pub fn progress(&self) -> Arc<FlushProgress> {
        Arc::clone(&self.progress)
    }

    /// Fault injection, the log's one fault hook: make this batch's writes
    /// fail from logical byte `at` on, the way a vanished log device would.
    /// Bytes below `at` go through the real handles and the rest through
    /// read-only ones, so the write fails with the OS's own `EBADF` after a
    /// torn prefix. At the batch's start nothing is written.
    #[doc(hidden)]
    pub fn sever(&mut self, at: u64) -> io::Result<()> {
        let mut writes = Vec::with_capacity(self.writes.len() + 1);
        for mut w in self.writes.drain(..) {
            // A write's first logical byte: its segment's base + file offset.
            let keep = at.saturating_sub(w.sync_key.1 + w.off).min(w.len as u64) as usize;
            if keep < w.len {
                let cut = SegWrite {
                    file: Arc::new(File::open("/dev/null")?),
                    sync_key: w.sync_key,
                    off: w.off + keep as u64,
                    start: w.start + keep,
                    len: w.len - keep,
                };
                w.len = keep;
                writes.extend((keep > 0).then_some(w));
                writes.push(cut);
            } else {
                writes.push(w);
            }
        }
        self.writes = writes;
        Ok(())
    }

    /// Write, fsync, and publish the new durable watermark.
    pub fn execute(self) -> io::Result<()> {
        Self::execute_all(vec![self])
    }

    /// Execute a drained burst of batches as **one group commit**: every
    /// write lands first, then each distinct segment file is fsynced exactly
    /// once, then every batch's watermark advances. N batches into one
    /// segment cost 1 fsync — this coalescing is where the flush pipeline's
    /// throughput comes from. Failure is per log: a write or fsync error
    /// poisons *that* log's watermark, so its parked waiters fail instead of
    /// hanging, while every other log in the burst still lands and advances.
    /// A batch whose watermark is already poisoned — by an earlier burst or
    /// by an earlier batch of this one — is dropped unwritten: its log lost
    /// an earlier batch, so landing this one would break prefix durability
    /// (and race the crash transform that follows a poisoning). Returns the
    /// first error met.
    pub fn execute_all(batches: Vec<FlushBatch>) -> io::Result<()> {
        let mut first_err = None;
        let mut fail = |b: &FlushBatch, e: io::Error| {
            b.progress.poison();
            first_err.get_or_insert(e);
        };
        for b in &batches {
            for w in &b.writes {
                if b.progress.is_poisoned() {
                    break;
                }
                let bytes = &b.bytes[w.start..w.start + w.len];
                if let Err(e) = w.file.write_all_at(bytes, w.off) {
                    fail(b, e);
                }
            }
        }
        // One fsync per distinct segment file across the whole burst, in
        // first-touched order (write order == logical order, so the
        // prefix-durability fsync ordering is preserved per WAL).
        let mut synced: Vec<(u64, u64)> = Vec::new();
        for b in &batches {
            for w in &b.writes {
                if b.progress.is_poisoned() {
                    break;
                }
                if !synced.contains(&w.sync_key) {
                    match w.file.sync_data() {
                        Ok(()) => {
                            synced.push(w.sync_key);
                            b.stats.add_fsyncs(1);
                        }
                        Err(e) => fail(b, e),
                    }
                }
            }
        }
        for b in batches.iter().filter(|b| !b.progress.is_poisoned()) {
            b.progress.advance(b.ticket);
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// One live segment file.
#[derive(Debug)]
struct Segment {
    /// Logical offset of file byte 0.
    base: u64,
    /// Preallocated file length (an oversized frame can push it past the
    /// configured segment size).
    capacity: u64,
    path: PathBuf,
    file: Arc<File>,
}

/// A pending (unsealed) byte range: where in the buffer, and where it lands.
#[derive(Clone, Copy, Debug)]
struct PendingSpan {
    /// Index into `segments`.
    seg: usize,
    /// File offset of the first byte.
    off: u64,
    /// Range into `buf`.
    start: usize,
    len: usize,
}

/// Segment file path for a given root and base offset.
pub fn segment_path(root: &Path, base: u64) -> PathBuf {
    let name = root
        .file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default();
    root.with_file_name(format!("{name}.{base:016x}.seg"))
}

/// Manifest file path for a given root.
fn manifest_path(root: &Path) -> PathBuf {
    let name = root
        .file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default();
    root.with_file_name(format!("{name}.manifest"))
}

const MANIFEST_MAGIC: u32 = 0x4F32_5057; // "O2PW"

fn encode_manifest(start: u64) -> [u8; 20] {
    let mut out = [0u8; 20];
    out[..4].copy_from_slice(&MANIFEST_MAGIC.to_le_bytes());
    out[4..8].copy_from_slice(&1u32.to_le_bytes());
    out[8..16].copy_from_slice(&start.to_le_bytes());
    let crc = crate::codec::crc32(&out[..16]);
    out[16..20].copy_from_slice(&crc.to_le_bytes());
    out
}

fn read_manifest(path: &Path) -> Option<u64> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() != 20 {
        return None;
    }
    let magic = le_u32(&bytes)?;
    let crc = le_u32(&bytes[16..])?;
    if magic != MANIFEST_MAGIC || crc != crate::codec::crc32(&bytes[..16]) {
        return None;
    }
    le_u64(&bytes[8..])
}

/// fsync the parent directory of `path` — the durability point of a rename
/// or file creation. The error is surfaced, not swallowed: a failed
/// directory sync means the metadata operation may not survive a crash.
fn fsync_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// The append-only, checksummed, segmented files behind an on-disk
/// [`Wal`](crate::wal::Wal) (see module docs).
#[derive(Debug)]
pub(crate) struct Segments {
    root: PathBuf,
    /// Capacity of each preallocated segment; rotation point.
    segment_bytes: u64,
    uid: u64,
    /// Segments in base order; the last is the append tail.
    segments: Vec<Segment>,
    /// Encoded frames appended since the last seal (logical range
    /// `[sealed, appended)` on a live log), with `spans` mapping them onto
    /// segments.
    buf: Vec<u8>,
    spans: Vec<PendingSpan>,
    /// Reused per-WAL encode scratch: `place` encodes here first (to learn
    /// the frame length for the rotation decision) without allocating.
    frame: Vec<u8>,
    /// Logical bytes appended over the WAL's lifetime (ticket space).
    appended: u64,
    /// Bytes sealed into flush batches, in order.
    sealed: u64,
    /// Logical offset recovery starts at (the manifest's checkpoint record).
    start: u64,
    /// Logical offset of the most recently appended checkpoint record.
    last_checkpoint: Option<u64>,
    /// The durable watermark; poisoned exactly when the log is dead.
    progress: Arc<FlushProgress>,
    stats: Arc<WalStats>,
}

impl Segments {
    /// Open (or create) the segment files rooted at `root` and decode the
    /// records they hold. Scans the root's segment files in base order,
    /// replays from the manifest's start offset, and stops at the first torn
    /// or corrupt frame — **first tear wins**: any later segment is deleted
    /// (its bytes were never covered by the watermark, so no promise depends
    /// on them), and the tail segment is re-zeroed past the cut so stale
    /// bytes can never decode as valid frames later.
    pub(crate) fn open(root: PathBuf, segment_bytes: u64) -> io::Result<(Self, Vec<LogRecord>)> {
        if segment_bytes == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "segment_bytes must be positive",
            ));
        }
        let mut found = Self::scan_segments(&root)?;
        found.sort_by_key(|&(base, _)| base);
        let start = read_manifest(&manifest_path(&root))
            .filter(|&s| found.first().is_none_or(|&(b, _)| s >= b))
            .or_else(|| found.first().map(|&(b, _)| b))
            .unwrap_or(0);

        let mut segments: Vec<Segment> = Vec::new();
        let mut records = Vec::new();
        let mut end = start;
        let mut torn = false;
        for (i, (base, path)) in found.iter().enumerate() {
            let seg_end = found.get(i + 1).map(|&(b, _)| b);
            if seg_end.is_some_and(|e| e <= start) {
                // Entirely before the live log (a compaction's deletion that
                // a crash interrupted): finish the job.
                std::fs::remove_file(path)?;
                continue;
            }
            let file = OpenOptions::new().read(true).write(true).open(path)?;
            let capacity = file.metadata()?.len();
            if torn || *base > end {
                // Past the first tear (or a base gap, which is the same
                // thing: the previous segment's data never reached this
                // one's base). Nothing here was promised; drop it.
                drop(file);
                std::fs::remove_file(path)?;
                continue;
            }
            let from = end - base; // == 0 for every segment after the first
            let mut bytes = Vec::with_capacity(capacity as usize);
            (&file).read_to_end(&mut bytes)?;
            let (recs, good) = decode_all(&bytes[from as usize..]);
            records.extend(recs);
            end = base + from + good as u64;
            let data_end = from as usize + good;
            // A stop before the physical end is a tear *unless* the next
            // segment's base says rotation ended the data exactly here.
            if data_end < bytes.len() && seg_end != Some(end) {
                torn = true;
                // Cut and re-zero the tail so stale bytes past the cut can
                // never checksum-decode after later appends.
                file.set_len(end - base)?;
                file.set_len(capacity)?;
                file.sync_data()?;
            }
            segments.push(Segment {
                base: *base,
                capacity,
                path: path.clone(),
                file: Arc::new(file),
            });
        }
        if segments.is_empty() {
            segments.push(Self::create_segment(&root, start, segment_bytes)?);
        }
        let sink = Segments {
            root,
            segment_bytes,
            uid: WAL_UID.fetch_add(1, Ordering::Relaxed),
            segments,
            buf: Vec::new(),
            spans: Vec::new(),
            frame: Vec::new(),
            appended: end,
            sealed: end,
            start,
            last_checkpoint: None,
            progress: FlushProgress::new(end),
            stats: Arc::default(),
        };
        Ok((sink, records))
    }

    fn scan_segments(root: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let dir = match root.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let prefix = format!(
            "{}.",
            root.file_name()
                .map(|n| n.to_string_lossy())
                .unwrap_or_default()
        );
        let mut found = Vec::new();
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(found),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(rest) = name.strip_prefix(&prefix) else {
                continue;
            };
            let Some(hex) = rest.strip_suffix(".seg") else {
                continue;
            };
            if hex.len() == 16 {
                if let Ok(base) = u64::from_str_radix(hex, 16) {
                    found.push((base, entry.path()));
                }
            }
        }
        Ok(found)
    }

    /// Create and preallocate a segment: `set_len` reserves the capacity up
    /// front (sparse — no blocks until data lands) and the creation is made
    /// durable (file sync + directory sync) before any data write targets
    /// it, so a crash can never lose a segment whose bytes were fsynced.
    fn create_segment(root: &Path, base: u64, capacity: u64) -> io::Result<Segment> {
        let path = segment_path(root, base);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.set_len(capacity)?;
        file.sync_all()?;
        fsync_dir(&path)?;
        Ok(Segment {
            base,
            capacity,
            path,
            file: Arc::new(file),
        })
    }

    /// Observable I/O counters (shared with this WAL's flush batches).
    pub(crate) fn stats(&self) -> Arc<WalStats> {
        Arc::clone(&self.stats)
    }

    /// Bases of the live segment files, in order (tests / diagnostics).
    pub(crate) fn segment_bases(&self) -> Vec<u64> {
        self.segments.iter().map(|s| s.base).collect()
    }

    /// Rotate if the incoming frame would not fit the tail segment. The
    /// frame is placed *entirely* in one segment — by construction it can
    /// never straddle a boundary. (`#[inline]`: the usual outcome is the
    /// early return, and `place` calls this on every append.)
    #[inline]
    fn ensure_capacity(&mut self, n: u64) -> io::Result<()> {
        // Nothing removes the tail segment (compaction keeps the last one).
        let Some(tail) = self.segments.last_mut() else {
            return Err(io::Error::other("wal has no tail segment"));
        };
        let used = self.appended - tail.base;
        if used + n <= tail.capacity {
            return Ok(());
        }
        if used == 0 {
            // Oversized frame into an empty segment: grow the preallocation
            // in place rather than leaving a zero-byte segment behind.
            tail.file.set_len(n)?;
            tail.file.sync_all()?;
            tail.capacity = n;
            return Ok(());
        }
        let seg = Self::create_segment(&self.root, self.appended, self.segment_bytes.max(n))?;
        self.segments.push(seg);
        Ok(())
    }

    /// Encode a record's frame and place it at the append tail (buffered;
    /// durable at the next flush). Inlined into its one caller, the
    /// out-of-line disk half of `Wal::append`. A dead log buffers nothing:
    /// the batch its next flush point seals fails, and reports it.
    #[inline]
    pub(crate) fn place(&mut self, rec: &LogRecord) {
        self.frame.clear();
        let n = encode_frame(rec, &mut self.frame) as u64;
        if matches!(rec, LogRecord::Checkpoint { .. }) {
            self.last_checkpoint = Some(self.appended);
        }
        if !self.progress.is_poisoned() && self.ensure_capacity(n).is_err() {
            // No segment can hold the frame (disk full, dir gone): the log
            // device is gone.
            self.progress.poison();
        }
        if !self.progress.is_poisoned() {
            let seg = self.segments.len() - 1;
            let s = &self.segments[seg];
            let off = self.appended - s.base;
            debug_assert!(
                off + n <= s.capacity,
                "frame must never straddle a segment boundary"
            );
            match self.spans.last_mut() {
                Some(sp) if sp.seg == seg => sp.len += self.frame.len(),
                _ => self.spans.push(PendingSpan {
                    seg,
                    off,
                    start: self.buf.len(),
                    len: self.frame.len(),
                }),
            }
            self.buf.extend_from_slice(&self.frame);
        }
        self.appended += n;
    }

    /// Ticket covering everything appended so far.
    pub(crate) fn append_ticket(&self) -> u64 {
        self.appended
    }

    /// Current durable watermark.
    pub(crate) fn durable_ticket(&self) -> u64 {
        self.progress.durable()
    }

    /// Sealed watermark: bytes sealed into flush batches, in order. Every
    /// crash/checkpoint/shutdown path waits for the pipeline to reach it
    /// first.
    pub(crate) fn sealed_ticket(&self) -> u64 {
        self.sealed
    }

    /// Bytes appended but not yet sealed. On a live log that is the
    /// buffer; a dead log buffers nothing, yet still owes a flush point.
    pub(crate) fn pending_bytes(&self) -> u64 {
        self.appended - self.sealed
    }

    /// True once the log device failed: the watermark is poisoned.
    pub(crate) fn is_dead(&self) -> bool {
        self.progress.is_poisoned()
    }

    /// Shared watermark cell (for flusher wiring and tests).
    pub(crate) fn progress(&self) -> Arc<FlushProgress> {
        Arc::clone(&self.progress)
    }

    /// One group commit, inline: wait for the batches sealed before (the
    /// log becomes durable strictly in order), seal, and execute. Fails
    /// when the watermark does not reach the sealed mark. A dead log fails
    /// before sealing: the bytes it owes stay pending for a flush point,
    /// whose failed completion reports the failure.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.progress.wait_for(self.sealed)?;
        if self.progress.is_poisoned() {
            return Err(io::Error::other("wal is dead"));
        }
        if let Some(batch) = self.seal_batch() {
            batch.execute()?;
        }
        self.progress.wait_for(self.sealed)
    }

    /// Seal everything appended since the last seal into a [`FlushBatch`]
    /// and advance the sealed watermark. Returns `None` only when nothing is
    /// pending. A dead log still seals: its batch carries its ticket and
    /// fails when executed. Each write shares its segment's handle.
    pub(crate) fn seal_batch(&mut self) -> Option<FlushBatch> {
        if self.appended == self.sealed {
            return None;
        }
        let writes = self
            .spans
            .drain(..)
            .map(|sp| {
                let seg = &self.segments[sp.seg];
                SegWrite {
                    file: Arc::clone(&seg.file),
                    sync_key: (self.uid, seg.base),
                    off: sp.off,
                    start: sp.start,
                    len: sp.len,
                }
            })
            .collect();
        self.sealed = self.appended;
        Some(FlushBatch {
            bytes: std::mem::take(&mut self.buf),
            writes,
            ticket: self.appended,
            progress: Arc::clone(&self.progress),
            stats: Arc::clone(&self.stats),
        })
    }

    /// Log reclamation: delete whole segments before the last checkpoint
    /// (nothing to do when none was appended since the live-log start).
    /// The live-log start offset is recorded in the manifest
    /// (written to a temp file, fsynced, atomically renamed, and the
    /// directory fsynced — every step's error is surfaced), so a crash at
    /// any point leaves either the old manifest or the new one, and the
    /// segments both generations need still exist. Byte tickets remain
    /// monotone — nothing is renumbered, only deleted.
    pub(crate) fn compact(&mut self) -> io::Result<()> {
        // Everything must be durable before segments are condemned: a
        // sealed-but-unflushed batch must not target a deleted file.
        self.sync()?;
        let Some(ckpt) = self.last_checkpoint.filter(|&c| c >= self.start) else {
            return Ok(());
        };
        let mpath = manifest_path(&self.root);
        let tmp = mpath.with_extension("manifest.tmp");
        let mut tf = File::create(&tmp)?;
        tf.write_all(&encode_manifest(ckpt))?;
        tf.sync_all()?;
        drop(tf);
        std::fs::rename(&tmp, &mpath)?;
        // Make the rename itself durable — a swallowed failure here would
        // let a crash resurrect the pre-checkpoint start offset while the
        // segments it needs are already gone.
        fsync_dir(&mpath)?;
        self.start = ckpt;
        // Drop every segment that ends at or before the new start.
        let mut dropped = false;
        while self.segments.len() > 1 && self.segments[1].base <= ckpt {
            let seg = self.segments.remove(0);
            std::fs::remove_file(&seg.path)?;
            dropped = true;
        }
        if dropped {
            fsync_dir(&self.root)?;
        }
        Ok(())
    }

    /// Simulated crash: lose the unsealed buffer, cut every segment back to
    /// the durable watermark (adversarial: maximum permitted loss), delete
    /// segments past it, and reopen — live log or dead, torn frames
    /// included.
    pub(crate) fn crash(mut self) -> io::Result<(Self, Vec<LogRecord>)> {
        // Let in-flight background batches land, then cut at the
        // watermark; without this a late flusher write could resurrect
        // bytes the truncation already declared lost. A poisoned pipeline
        // fails the wait, and `execute_all` drops the batches it still
        // holds for this log unwritten.
        let _ = self.progress.wait_for(self.sealed);
        let wm = self.progress.durable();
        for seg in &self.segments {
            if seg.base >= wm {
                std::fs::remove_file(&seg.path)?;
            } else {
                // set_len down then back up re-zeroes the cut tail, so
                // stale frames past the watermark can never decode.
                let keep = (wm - seg.base).min(seg.capacity);
                seg.file.set_len(keep)?;
                seg.file.set_len(seg.capacity)?;
                seg.file.sync_data()?;
            }
        }
        let root = std::mem::take(&mut self.root);
        let segment_bytes = self.segment_bytes;
        drop(self);
        Segments::open(root, segment_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use crate::wal::{CheckpointImage, Wal};
    use o2pc_common::{ExecId, GlobalTxnId, Key, Op, ScratchDir, Value};

    fn sub(i: u64) -> ExecId {
        ExecId::Sub(GlobalTxnId(i))
    }

    /// A scratch directory (removed when the guard drops) and the log root
    /// inside it.
    fn tmp(name: &str) -> (ScratchDir, PathBuf) {
        let dir = ScratchDir::new(&format!("dwal-{name}"));
        let path = dir.join("site.wal");
        (dir, path)
    }

    fn small(path: &Path, segment_bytes: u64) -> Wal {
        Wal::open_with_segment_bytes(path, segment_bytes).unwrap()
    }

    /// Seal what `w` has pending into a batch severed `into` bytes past its
    /// start, and execute it: the write must fail with the OS's `EBADF`.
    fn fail_next_batch(w: &mut Wal, into: u64) {
        let at = w.sealed_ticket() + into;
        let mut batch = w.seal_batch().expect("pending bytes");
        batch.sever(at).unwrap();
        let err = batch.execute().unwrap_err();
        assert_eq!(err.raw_os_error(), Some(9), "EBADF: {err}");
        assert!(w.is_dead());
    }

    /// Appended bytes are not yet durable (a flush is owed).
    fn dirty(w: &Wal) -> bool {
        w.append_ticket() > w.durable_ticket()
    }

    fn sample_workload(w: &mut Wal) {
        let mut store = Store::new();
        store.load(Key(1), Value(10));
        store.load(Key(2), Value(20));
        w.checkpoint(CheckpointImage::of_store(&store));
        w.append(LogRecord::Begin(sub(0)));
        store.apply(sub(0), Op::Add(Key(1), 5)).unwrap();
        let u = *store.last_undo(sub(0)).unwrap();
        w.append_update(sub(0), &u);
        w.append(LogRecord::Commit(sub(0)));
    }

    #[test]
    fn reopen_replays_synced_records() {
        let (_dir, path) = tmp("reopen");
        let mut w = Wal::open(&path).unwrap();
        sample_workload(&mut w);
        w.sync().unwrap();
        let recs = w.records().to_vec();
        drop(w);
        let w2 = Wal::open(&path).unwrap();
        assert_eq!(w2.records(), &recs[..]);
        assert_eq!(
            w2.recover().0.items,
            vec![(Key(1), Value(15)), (Key(2), Value(20))]
        );
    }

    #[test]
    fn tickets_and_dirtiness() {
        let (_dir, path) = tmp("tickets");
        let mut w = Wal::open(&path).unwrap();
        assert!(!dirty(&w));
        w.append(LogRecord::Begin(sub(1)));
        let t = w.append_ticket();
        assert!(dirty(&w));
        assert!(w.durable_ticket() < t);
        assert!(w.sealed_ticket() < t);
        assert_eq!(w.pending_bytes(), t);
        w.sync().unwrap();
        assert!(!dirty(&w));
        assert_eq!(w.durable_ticket(), t);
        assert_eq!(w.sealed_ticket(), t);
        assert_eq!(w.pending_bytes(), 0);
    }

    #[test]
    fn crash_loses_unsynced_tail_only() {
        let (_dir, path) = tmp("crash");
        let mut w = Wal::open(&path).unwrap();
        sample_workload(&mut w);
        w.sync().unwrap();
        let durable_len = w.len();
        w.append(LogRecord::Begin(sub(9))); // never synced
        let w2 = w.crash().unwrap();
        assert_eq!(w2.len(), durable_len, "unsynced record gone");
        assert!(!w2
            .records()
            .iter()
            .any(|r| matches!(r, LogRecord::Begin(e) if *e == sub(9))));
    }

    #[test]
    fn seal_batch_advances_watermark_on_execute() {
        let (_dir, path) = tmp("seal");
        let mut w = Wal::open(&path).unwrap();
        w.append(LogRecord::Begin(sub(2)));
        let t = w.append_ticket();
        let batch = w.seal_batch().unwrap();
        assert!(dirty(&w));
        assert_eq!(w.sealed_ticket(), t, "sealing advances the sealed mark");
        assert_eq!(batch.ticket(), t);
        batch.execute().unwrap();
        assert_eq!(w.durable_ticket(), t);
        assert!(!dirty(&w));
        // Nothing left to seal.
        assert!(w.seal_batch().is_none());
        drop(w);
        assert_eq!(Wal::open(&path).unwrap().len(), 1);
    }

    #[test]
    fn burst_of_batches_costs_one_fsync() {
        let (_dir, path) = tmp("coalesce");
        let mut w = Wal::open(&path).unwrap();
        let stats = w.stats().unwrap();
        let mut batches = Vec::new();
        for i in 0..8 {
            w.append(LogRecord::Begin(sub(i)));
            batches.push(w.seal_batch().unwrap());
        }
        let t = w.append_ticket();
        assert_eq!(stats.fsyncs(), 0);
        FlushBatch::execute_all(batches).unwrap();
        assert_eq!(
            stats.fsyncs(),
            1,
            "a burst of 8 sealed batches into one segment is one fsync"
        );
        assert_eq!(w.durable_ticket(), t);
        drop(w);
        assert_eq!(Wal::open(&path).unwrap().len(), 8);
    }

    /// One burst carrying batches of two logs, one of which fails: only the
    /// failed log is poisoned (and its later batch dropped unwritten); the
    /// healthy one reaches its ticket and reopens with all its records.
    #[test]
    fn failed_log_in_a_burst_poisons_only_itself() {
        let (_dir, path) = tmp("burst-two");
        let mut bad = Wal::open(&path).unwrap();
        let mut good = Wal::open(path.with_file_name("other.wal")).unwrap();
        let mut burst = Vec::new();
        for i in 0..2 {
            bad.append(LogRecord::Begin(sub(i)));
            burst.push(bad.seal_batch().unwrap());
            good.append(LogRecord::Begin(sub(i)));
            burst.push(good.seal_batch().unwrap());
        }
        burst[0].sever(0).unwrap();
        assert!(FlushBatch::execute_all(burst).is_err());
        assert!(bad.progress().unwrap().is_poisoned());
        assert_eq!(bad.durable_ticket(), 0, "nothing of the failed log landed");
        assert_eq!(bad.stats().unwrap().fsyncs(), 0);
        assert!(!good.progress().unwrap().is_poisoned());
        assert_eq!(good.durable_ticket(), good.append_ticket());
        let recs = good.records().to_vec();
        drop(good);
        let reopened = Wal::open(path.with_file_name("other.wal")).unwrap();
        assert_eq!(reopened.records(), &recs[..]);
        assert_eq!(bad.crash().unwrap().len(), 0, "prefix durability held");
    }

    #[test]
    fn zero_segment_bytes_is_invalid_input() {
        let (_dir, path) = tmp("zero-seg");
        let err = Wal::open_with_segment_bytes(&path, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn rotation_names_segments_by_base_and_never_straddles() {
        let (_dir, path) = tmp("rotate");
        let mut w = small(&path, 96);
        for i in 0..16 {
            w.append(LogRecord::Begin(sub(i)));
        }
        w.sync().unwrap();
        let bases = w.segment_bases();
        assert!(bases.len() > 1, "tiny segments must rotate: {bases:?}");
        assert_eq!(bases[0], 0);
        // Each segment's file decodes standalone from offset 0: no frame
        // straddles a boundary.
        let mut total = 0;
        for &b in &bases {
            let bytes = std::fs::read(segment_path(&path, b)).unwrap();
            let (recs, good) = decode_all(&bytes);
            total += recs.len();
            assert!(good > 0, "segment {b} holds whole frames");
        }
        assert_eq!(total, 16, "every record decodes from exactly one segment");
        // Bases record exactly where the previous segment's data ended.
        drop(w);
        let w2 = small(&path, 96);
        assert_eq!(w2.len(), 16, "reopen stitches segments back in order");
    }

    #[test]
    fn oversized_frame_gets_its_own_segment() {
        let (_dir, path) = tmp("oversize");
        let mut w = small(&path, 64);
        w.append(LogRecord::Begin(sub(0)));
        w.checkpoint(CheckpointImage {
            items: (0..64).map(|k| (Key(k), Value(k as i64))).collect(),
            ..CheckpointImage::default()
        });
        w.append(LogRecord::Begin(sub(1)));
        w.sync().unwrap();
        let recs = w.records().to_vec();
        drop(w);
        let w2 = small(&path, 64);
        assert_eq!(
            w2.records(),
            &recs[..],
            "oversized frame survives in its own segment"
        );
        assert_eq!(w2.end_lsn(), 3);
    }

    #[test]
    fn compact_drops_stale_segments_and_keeps_tickets_monotone() {
        let (_dir, path) = tmp("trunc");
        let mut w = small(&path, 128);
        sample_workload(&mut w);
        for i in 10..30 {
            w.append(LogRecord::Begin(sub(i)));
        }
        let mut store = Store::from_iter(w.recover().0.items);
        store.load(Key(1), Value(15));
        w.checkpoint(CheckpointImage::of_store(&store));
        w.append(LogRecord::Begin(sub(5)));
        let before = w.append_ticket();
        let files_before = w.segment_bases().len();
        w.compact().unwrap();
        assert!(w.append_ticket() >= before, "tickets monotone");
        assert!(!dirty(&w));
        assert!(
            w.segment_bases().len() < files_before,
            "stale segments physically deleted ({} -> {})",
            files_before,
            w.segment_bases().len()
        );
        // First record is now the checkpoint; recovery unchanged.
        assert!(matches!(w.records()[0], LogRecord::Checkpoint { .. }));
        let recs = w.records().to_vec();
        drop(w);
        let w2 = small(&path, 128);
        assert_eq!(w2.records(), &recs[..], "manifest start honoured on reopen");
    }

    #[test]
    fn severed_mid_frame_leaves_the_durable_prefix() {
        let (_dir, path) = tmp("torn");
        let mut w = Wal::open(&path).unwrap();
        sample_workload(&mut w);
        w.sync().unwrap();
        let good = w.records().to_vec();
        let from = w.append_ticket();
        w.append(LogRecord::Begin(sub(7)));
        fail_next_batch(&mut w, 5); // tear 5 bytes into the frame
        assert_eq!(w.durable_ticket(), from);
        drop(w);
        let bytes = std::fs::read(segment_path(&path, 0)).unwrap();
        let torn = &bytes[from as usize..][..5];
        assert!(torn.iter().any(|&b| b != 0), "the torn prefix reached disk");
        // The segment now ends in a torn frame; open discards it.
        let w2 = Wal::open(&path).unwrap();
        assert_eq!(w2.records(), &good[..]);
    }

    /// Severed at its start, a batch writes nothing; the log is dead from
    /// then on: a sync fails, and a later batch is still sealed but dropped
    /// unwritten.
    #[test]
    fn boundary_failure_writes_nothing_and_the_log_stays_dead() {
        let (_dir, path) = tmp("dead");
        let mut w = Wal::open(&path).unwrap();
        w.append(LogRecord::Begin(sub(1)));
        fail_next_batch(&mut w, 0);
        assert!(w.sync().is_err(), "dead wal stays dead");
        w.append(LogRecord::Begin(sub(2)));
        let batch = w.seal_batch().expect("a dead log still seals");
        let _ = batch.execute();
        assert!(w.is_dead());
        assert_eq!((w.durable_ticket(), w.pending_bytes()), (0, 0));
        assert!(w.sync().is_err());
        assert_eq!(w.stats().unwrap().fsyncs(), 0);
        assert_eq!(Wal::open(&path).unwrap().len(), 0, "nothing reached disk");
    }

    #[test]
    fn crash_of_failed_wal_recovers_durable_prefix() {
        let (_dir, path) = tmp("deadcrash");
        let mut w = Wal::open(&path).unwrap();
        sample_workload(&mut w);
        w.sync().unwrap();
        let good = w.records().to_vec();
        w.append(LogRecord::Begin(sub(8)));
        fail_next_batch(&mut w, 3);
        let w2 = w.crash().unwrap();
        assert_eq!(w2.records(), &good[..]);
        assert!(!w2.is_dead(), "the reopened log is a new device");
    }

    /// A rotation that cannot create the next segment kills the log with
    /// nothing buffered: the bytes are still owed, and the batch that seals
    /// them fails.
    #[test]
    fn failed_rotation_kills_the_log_and_its_next_batch_reports_it() {
        let (_dir, path) = tmp("norotate");
        let mut w = small(&path, 64);
        // An oversized checkpoint fills its segment exactly.
        w.checkpoint(CheckpointImage {
            items: (0..16).map(|k| (Key(k), Value(0))).collect(),
            ..CheckpointImage::default()
        });
        w.sync().unwrap();
        let durable = w.append_ticket();
        std::fs::create_dir(segment_path(&path, durable)).unwrap();
        w.append(LogRecord::Begin(sub(1)));
        assert!(w.is_dead());
        assert!(w.sync().is_err());
        assert!(w.pending_bytes() > 0, "a dead log still owes a flush point");
        let batch = w.seal_batch().expect("a dead log still seals");
        assert_eq!(batch.ticket(), w.append_ticket());
        let _ = batch.execute();
        assert_eq!(w.durable_ticket(), durable);
        assert!(w.sync().is_err());
    }

    #[test]
    fn compaction_write_fault_surfaces_instead_of_being_swallowed() {
        let (_dir, path) = tmp("compfault");
        let mut w = Wal::open(&path).unwrap();
        sample_workload(&mut w);
        w.sync().unwrap();
        // A directory squatting on the manifest's temp file: the data sync
        // passes, the manifest write fails, and the error must propagate
        // out of compact, not vanish.
        let tmp = manifest_path(&path).with_extension("manifest.tmp");
        std::fs::create_dir(&tmp).unwrap();
        let store = Store::from_iter(w.recover().0.items);
        w.checkpoint(CheckpointImage::of_store(&store));
        let err = w.compact();
        assert!(err.is_err(), "compaction durability failure must surface");
    }

    #[test]
    fn crash_mid_rotation_recovers_cleanly_with_tiny_segments() {
        let (_dir, path) = tmp("rotcrash");
        let mut w = small(&path, 80);
        for i in 0..6 {
            w.append(LogRecord::Begin(sub(i)));
        }
        w.sync().unwrap();
        let durable = w.records().to_vec();
        for i in 6..12 {
            w.append(LogRecord::Begin(sub(i))); // unsynced, spans a rotation
        }
        let w2 = w.crash().unwrap();
        assert_eq!(w2.records(), &durable[..]);
        // And the reopened WAL keeps appending across segments correctly.
        let mut w2 = w2;
        for i in 20..26 {
            w2.append(LogRecord::Begin(sub(i)));
        }
        w2.sync().unwrap();
        let all = w2.records().to_vec();
        drop(w2);
        assert_eq!(small(&path, 80).records(), &all[..]);
    }

    #[test]
    fn poisoned_progress_fails_waiters() {
        let p = FlushProgress::new(0);
        p.poison();
        assert!(p.wait_for(10).is_err());
        assert!(p.wait_for(0).is_ok(), "already-reached tickets still pass");
    }
}
