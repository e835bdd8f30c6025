//! Binary codec for [`LogRecord`]: length-prefixed, CRC32-checksummed frames.
//!
//! The on-disk WAL is a sequence of frames:
//!
//! ```text
//! ┌────────────┬────────────┬────────────────────┐
//! │ len: u32LE │ crc: u32LE │ payload (len bytes)│
//! └────────────┴────────────┴────────────────────┘
//! ```
//!
//! `crc` is the CRC-32 (IEEE, reflected) of the payload alone. The payload is
//! a tag byte followed by the record's fields in little-endian fixed-width
//! encoding — no varints, no schema evolution machinery; the format is
//! internal to one process generation and recovery only needs to detect a
//! *torn tail* (a final frame that is truncated or fails its checksum) and
//! discard it. Everything before a bad frame decodes and replays; nothing
//! after it is reachable (framing is lost), which is exactly the append-only
//! contract: a crash can only tear the tail.

use crate::store::{CommitRecord, UndoRecord};
use crate::wal::{ActiveExec, CheckpointImage, LogRecord};
use o2pc_common::{ExecId, GlobalTxnId, Key, LocalTxnId, Op, SiteId, Value};
use std::sync::Arc;

/// Frame header size: u32 length + u32 checksum.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a sane payload (a checkpoint of a very large store). A
/// length field above this is treated as tail corruption, not an allocation
/// request.
pub const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
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
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 of `data` (IEEE, as used by zip/png/ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_exec(out: &mut Vec<u8>, e: ExecId) {
    match e {
        ExecId::Sub(g) => {
            out.push(0);
            put_u64(out, g.0);
        }
        ExecId::CompSub(g) => {
            out.push(1);
            put_u64(out, g.0);
        }
        ExecId::Local(l) => {
            out.push(2);
            put_u32(out, l.site.0);
            put_u64(out, l.seq);
        }
    }
}

fn put_opt_value(out: &mut Vec<u8>, v: Option<Value>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_i64(out, v.0);
        }
    }
}

fn put_op(out: &mut Vec<u8>, op: &Op) {
    match *op {
        Op::Read(k) => {
            out.push(0);
            put_u64(out, k.0);
        }
        Op::Write(k, v) => {
            out.push(1);
            put_u64(out, k.0);
            put_i64(out, v.0);
        }
        Op::Add(k, d) => {
            out.push(2);
            put_u64(out, k.0);
            put_i64(out, d);
        }
        Op::Insert(k, v) => {
            out.push(3);
            put_u64(out, k.0);
            put_i64(out, v.0);
        }
        Op::Delete(k) => {
            out.push(4);
            put_u64(out, k.0);
        }
        Op::Reserve(k, n) => {
            out.push(5);
            put_u64(out, k.0);
            put_u32(out, n);
        }
        Op::Release(k, n) => {
            out.push(6);
            put_u64(out, k.0);
            put_u32(out, n);
        }
    }
}

fn put_undo(out: &mut Vec<u8>, undo: &[UndoRecord]) {
    put_u32(out, undo.len() as u32);
    for u in undo {
        put_u64(out, u.key.0);
        put_opt_value(out, u.before);
        put_opt_value(out, u.after);
    }
}

fn put_commit_record(out: &mut Vec<u8>, record: &CommitRecord) {
    put_undo(out, &record.undo);
    put_u32(out, record.ops.len() as u32);
    for op in &record.ops {
        put_op(out, op);
    }
}

fn encode_payload(rec: &LogRecord, out: &mut Vec<u8>) {
    match rec {
        LogRecord::Begin(e) => {
            out.push(0);
            put_exec(out, *e);
        }
        LogRecord::Update {
            exec,
            key,
            before,
            after,
        } => {
            out.push(1);
            put_exec(out, *exec);
            put_u64(out, key.0);
            put_opt_value(out, *before);
            put_opt_value(out, *after);
        }
        LogRecord::Commit(e) => {
            out.push(2);
            put_exec(out, *e);
        }
        LogRecord::Prepared(e) => {
            out.push(3);
            put_exec(out, *e);
        }
        LogRecord::LocalCommit { exec, record } => {
            out.push(4);
            put_exec(out, *exec);
            put_commit_record(out, record);
        }
        LogRecord::Outcome { txn, commit } => {
            out.push(5);
            put_u64(out, txn.0);
            out.push(*commit as u8);
        }
        LogRecord::Abort(e) => {
            out.push(6);
            put_exec(out, *e);
        }
        LogRecord::Checkpoint(cp) => {
            out.push(7);
            put_u64(out, cp.lsn);
            put_u64(out, cp.next_local_seq);
            put_u32(out, cp.items.len() as u32);
            for &(k, v) in &cp.items {
                put_u64(out, k.0);
                put_i64(out, v.0);
            }
            put_u32(out, cp.active.len() as u32);
            for a in &cp.active {
                put_exec(out, a.exec);
                out.push(a.prepared as u8);
                put_undo(out, &a.undo);
            }
            put_u32(out, cp.local_commits.len() as u32);
            for (g, record) in &cp.local_commits {
                put_u64(out, g.0);
                put_commit_record(out, record);
            }
            put_u32(out, cp.rolled_back_comps.len() as u32);
            for g in &cp.rolled_back_comps {
                put_u64(out, g.0);
            }
            put_u32(out, cp.decided.len() as u32);
            for &(g, commit) in &cp.decided {
                put_u64(out, g.0);
                out.push(commit as u8);
            }
        }
    }
}

/// Encode one record as a complete frame (header + payload) appended to
/// `out`. Returns the number of bytes appended.
pub fn encode_frame(rec: &LogRecord, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]); // header placeholder
    encode_payload(rec, out);
    let payload_len = out.len() - start - FRAME_HEADER;
    let crc = crc32(&out[start + FRAME_HEADER..]);
    out[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    out.len() - start
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The little-endian `u32` at the front of `b` (`None` when `b` is short).
pub(crate) fn le_u32(b: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(..4)?.try_into().ok()?))
}

/// The little-endian `u64` at the front of `b` (`None` when `b` is short).
pub(crate) fn le_u64(b: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(..8)?.try_into().ok()?))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let v = le_u32(self.buf.get(self.pos..)?)?;
        self.pos += 4;
        Some(v)
    }

    fn u64(&mut self) -> Option<u64> {
        let v = le_u64(self.buf.get(self.pos..)?)?;
        self.pos += 8;
        Some(v)
    }

    fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// A count, refused when even one byte per element would run past the
    /// payload: a corrupt count is a torn frame, not an allocation request.
    fn count(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        (n <= self.buf.len() - self.pos).then_some(n)
    }

    fn undo(&mut self) -> Option<Vec<UndoRecord>> {
        let n = self.count()?;
        let mut undo = Vec::with_capacity(n);
        for _ in 0..n {
            undo.push(UndoRecord {
                key: Key(self.u64()?),
                before: self.opt_value()?,
                after: self.opt_value()?,
            });
        }
        Some(undo)
    }

    fn commit_record(&mut self) -> Option<CommitRecord> {
        let undo = self.undo()?;
        let n = self.count()?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(self.op()?);
        }
        Some(CommitRecord { undo, ops })
    }

    fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }

    fn exec(&mut self) -> Option<ExecId> {
        match self.u8()? {
            0 => Some(ExecId::Sub(GlobalTxnId(self.u64()?))),
            1 => Some(ExecId::CompSub(GlobalTxnId(self.u64()?))),
            2 => {
                let site = SiteId(self.u32()?);
                let seq = self.u64()?;
                Some(ExecId::Local(LocalTxnId { site, seq }))
            }
            _ => None,
        }
    }

    fn opt_value(&mut self) -> Option<Option<Value>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(Value(self.i64()?))),
            _ => None,
        }
    }

    fn op(&mut self) -> Option<Op> {
        let tag = self.u8()?;
        let key = Key(self.u64()?);
        match tag {
            0 => Some(Op::Read(key)),
            1 => Some(Op::Write(key, Value(self.i64()?))),
            2 => Some(Op::Add(key, self.i64()?)),
            3 => Some(Op::Insert(key, Value(self.i64()?))),
            4 => Some(Op::Delete(key)),
            5 => Some(Op::Reserve(key, self.u32()?)),
            6 => Some(Op::Release(key, self.u32()?)),
            _ => None,
        }
    }
}

fn decode_checkpoint(c: &mut Cursor) -> Option<CheckpointImage> {
    let lsn = c.u64()?;
    let next_local_seq = c.u64()?;
    let n = c.count()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push((Key(c.u64()?), Value(c.i64()?)));
    }
    let n = c.count()?;
    let mut active = Vec::with_capacity(n);
    for _ in 0..n {
        active.push(ActiveExec {
            exec: c.exec()?,
            prepared: c.flag()?,
            undo: c.undo()?,
        });
    }
    let n = c.count()?;
    let mut local_commits = Vec::with_capacity(n);
    for _ in 0..n {
        local_commits.push((GlobalTxnId(c.u64()?), Arc::new(c.commit_record()?)));
    }
    let n = c.count()?;
    let mut rolled_back_comps = Vec::with_capacity(n);
    for _ in 0..n {
        rolled_back_comps.push(GlobalTxnId(c.u64()?));
    }
    let n = c.count()?;
    let mut decided = Vec::with_capacity(n);
    for _ in 0..n {
        decided.push((GlobalTxnId(c.u64()?), c.flag()?));
    }
    Some(CheckpointImage {
        lsn,
        items,
        active,
        local_commits,
        rolled_back_comps,
        decided,
        next_local_seq,
    })
}

fn decode_payload(payload: &[u8]) -> Option<LogRecord> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let rec = match c.u8()? {
        0 => LogRecord::Begin(c.exec()?),
        1 => LogRecord::Update {
            exec: c.exec()?,
            key: Key(c.u64()?),
            before: c.opt_value()?,
            after: c.opt_value()?,
        },
        2 => LogRecord::Commit(c.exec()?),
        3 => LogRecord::Prepared(c.exec()?),
        4 => LogRecord::LocalCommit {
            exec: c.exec()?,
            record: Arc::new(c.commit_record()?),
        },
        5 => LogRecord::Outcome {
            txn: GlobalTxnId(c.u64()?),
            commit: c.flag()?,
        },
        6 => LogRecord::Abort(c.exec()?),
        7 => LogRecord::Checkpoint(Box::new(decode_checkpoint(&mut c)?)),
        _ => return None,
    };
    // Trailing garbage inside a checksummed frame means the encoder and
    // decoder disagree — treat as corruption.
    (c.pos == payload.len()).then_some(rec)
}

/// Decode every complete, checksum-valid frame from the front of `bytes`.
///
/// Returns the decoded records and the byte offset one past the last good
/// frame. Decoding stops — without error — at the first torn frame: a
/// truncated header, a length that runs past the end of the buffer or
/// exceeds [`MAX_PAYLOAD`], a checksum mismatch, or an undecodable payload.
/// The returned offset is the durable prefix a recovering WAL must truncate
/// to.
pub fn decode_all(bytes: &[u8]) -> (Vec<LogRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + FRAME_HEADER) {
        let (Some(len), Some(crc)) = (le_u32(header), le_u32(&header[4..])) else {
            break; // unreachable: the header is FRAME_HEADER bytes
        };
        if len > MAX_PAYLOAD {
            break;
        }
        let Some(payload) = bytes.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len as usize) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Some(rec) = decode_payload(payload) else {
            break;
        };
        records.push(rec);
        pos += FRAME_HEADER + len as usize;
    }
    (records, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LogRecord> {
        let lc = Arc::new(CommitRecord {
            undo: vec![UndoRecord {
                key: Key(3),
                before: Some(Value(7)),
                after: None,
            }],
            ops: vec![Op::Add(Key(3), -7), Op::Read(Key(1))],
        });
        vec![
            LogRecord::Begin(ExecId::Sub(GlobalTxnId(9))),
            LogRecord::Update {
                exec: ExecId::Local(LocalTxnId {
                    site: SiteId(2),
                    seq: 17,
                }),
                key: Key(4),
                before: None,
                after: Some(Value(-5)),
            },
            LogRecord::Commit(ExecId::CompSub(GlobalTxnId(1))),
            LogRecord::Prepared(ExecId::Sub(GlobalTxnId(2))),
            LogRecord::LocalCommit {
                exec: ExecId::Sub(GlobalTxnId(9)),
                record: lc.clone(),
            },
            LogRecord::Outcome {
                txn: GlobalTxnId(9),
                commit: true,
            },
            LogRecord::Abort(ExecId::Sub(GlobalTxnId(2))),
            LogRecord::Checkpoint(Box::new(CheckpointImage {
                lsn: 8,
                items: vec![(Key(0), Value(10)), (Key(1), Value(-2))],
                active: vec![
                    ActiveExec {
                        exec: ExecId::Local(LocalTxnId {
                            site: SiteId(2),
                            seq: 18,
                        }),
                        undo: vec![],
                        prepared: false,
                    },
                    ActiveExec {
                        exec: ExecId::Sub(GlobalTxnId(11)),
                        undo: vec![UndoRecord {
                            key: Key(1),
                            before: None,
                            after: Some(Value(-2)),
                        }],
                        prepared: true,
                    },
                ],
                local_commits: vec![(GlobalTxnId(9), lc)],
                rolled_back_comps: vec![GlobalTxnId(9)],
                decided: vec![(GlobalTxnId(4), true), (GlobalTxnId(9), false)],
                next_local_seq: 19,
            })),
        ]
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" → 0xCBF43926 is the canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_every_variant() {
        let mut buf = Vec::new();
        let records = sample_records();
        for r in &records {
            encode_frame(r, &mut buf);
        }
        let (decoded, consumed) = decode_all(&buf);
        assert_eq!(consumed, buf.len());
        assert_eq!(decoded, records);
    }

    #[test]
    fn torn_tail_is_discarded_at_every_offset() {
        let mut buf = Vec::new();
        let records = sample_records();
        let mut boundary = 0;
        for (i, r) in records.iter().enumerate() {
            encode_frame(r, &mut buf);
            if i + 1 == records.len() - 1 {
                boundary = buf.len();
            }
        }
        for cut in boundary..buf.len() {
            let (decoded, consumed) = decode_all(&buf[..cut]);
            assert_eq!(decoded, records[..records.len() - 1], "cut at {cut}");
            assert_eq!(consumed, boundary, "cut at {cut}");
        }
    }

    #[test]
    fn checksum_corruption_discards_frame() {
        let mut buf = Vec::new();
        let records = sample_records();
        for r in &records {
            encode_frame(r, &mut buf);
        }
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let (decoded, _) = decode_all(&buf);
        assert_eq!(decoded, records[..records.len() - 1]);
    }

    #[test]
    fn insane_length_is_torn_tail() {
        let mut buf = Vec::new();
        encode_frame(&LogRecord::Begin(ExecId::Sub(GlobalTxnId(1))), &mut buf);
        let good = buf.len();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let (decoded, consumed) = decode_all(&buf);
        assert_eq!(decoded.len(), 1);
        assert_eq!(consumed, good);
    }
}
