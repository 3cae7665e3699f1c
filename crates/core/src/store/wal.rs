//! Per-relation segmented write-ahead log.
//!
//! Every ingest batch that changes a relation's visible point set is
//! serialized as **one** length-prefixed, CRC32-checksummed record — the
//! batch's original [`WriteOp`]s plus a monotonically increasing sequence
//! number — and appended to the relation's log *before* the batch publishes.
//! Cross-shard moves (a `Remove` in the old shard paired with the `Upsert`
//! in the new one) therefore live in a single record: replay can never
//! observe half a move.
//!
//! The log is split into fixed-size segments (`wal-000001.log`,
//! `wal-000002.log`, …) so a checkpoint can reclaim space by deleting whole
//! closed segments whose highest sequence number is already covered by every
//! shard's persisted block file. Within a segment, records are laid out
//! back-to-back:
//!
//! ```text
//! [payload len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = [seq: u64 LE][op count: u32 LE][op]*
//! op      = 0x00 [id: u64][x bits: u64][y bits: u64]   Upsert
//!         | 0x01 [id: u64]                             Remove
//! ```
//!
//! Recovery scans segments in order and stops at the first record that is
//! short, fails its checksum, or breaks sequence monotonicity — a torn tail
//! from a crash mid-append. The tail is truncated (and any later segments
//! deleted) so the log always ends on a fully written record; see
//! [`super::recover`] for how the surviving suffix is replayed.
//!
//! Appends go straight to the [`File`] with no userspace buffering, so an
//! in-process crash (panic, abort) loses nothing that was appended. What an
//! OS crash or power loss can lose is governed by [`SyncPolicy`].

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use twoknn_geometry::Point;

use super::delta::WriteOp;
use super::recover::RecoveryError;

/// When WAL appends are flushed to stable storage (`fsync`).
///
/// The policy only matters for machine crashes: process crashes lose nothing
/// under any policy because records are written straight to the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never `fsync`; the OS flushes on its own schedule. Fastest, and still
    /// fully durable against process crashes.
    Never,
    /// `fsync` after every appended batch record. Strongest guarantee.
    EveryBatch,
    /// `fsync` once every `n` appended batch records (and on segment roll).
    EveryN(u32),
}

/// IEEE CRC32 (the zlib/PNG polynomial), slice-by-8, with its tables
/// computed at compile time — the workspace takes no external
/// dependencies. `CRC32_TABLES[0]` is the classic bytewise table;
/// `CRC32_TABLES[k][b]` advances the CRC of byte `b` through `k` further
/// zero bytes, so eight table lookups consume eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 checksum of `bytes` (IEEE polynomial): eight bytes per step, then
/// the tail bytewise.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Serializes one batch record (framing + payload) for sequence `seq`.
pub(crate) fn encode_record(seq: u64, ops: &[WriteOp]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12 + ops.len() * 25);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match op {
            WriteOp::Upsert(p) => {
                payload.push(0);
                payload.extend_from_slice(&p.id.to_le_bytes());
                payload.extend_from_slice(&p.x.to_bits().to_le_bytes());
                payload.extend_from_slice(&p.y.to_bits().to_le_bytes());
            }
            WriteOp::Remove(id) => {
                payload.push(1);
                payload.extend_from_slice(&id.to_le_bytes());
            }
        }
    }
    let mut record = Vec::with_capacity(8 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

fn take_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let bytes = buf.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(bytes.try_into().unwrap()))
}

/// Decodes the record starting at byte `at` of `buf`.
///
/// Returns `None` — the torn-tail signal — when the record is short, its
/// checksum fails, or an op tag is unknown.
pub(crate) fn decode_record(buf: &[u8], at: usize) -> Option<(u64, Vec<WriteOp>, usize)> {
    let len = u32::from_le_bytes(buf.get(at..at + 4)?.try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf.get(at + 4..at + 8)?.try_into().unwrap());
    let payload = buf.get(at + 8..at + 8 + len)?;
    if crc32(payload) != crc {
        return None;
    }
    let mut pos = 0usize;
    let seq = take_u64(payload, &mut pos)?;
    let nops = u32::from_le_bytes(payload.get(pos..pos + 4)?.try_into().unwrap()) as usize;
    pos += 4;
    let mut ops = Vec::with_capacity(nops.min(payload.len()));
    for _ in 0..nops {
        let tag = *payload.get(pos)?;
        pos += 1;
        match tag {
            0 => {
                let id = take_u64(payload, &mut pos)?;
                let x = f64::from_bits(take_u64(payload, &mut pos)?);
                let y = f64::from_bits(take_u64(payload, &mut pos)?);
                ops.push(WriteOp::Upsert(Point::new(id, x, y)));
            }
            1 => ops.push(WriteOp::Remove(take_u64(payload, &mut pos)?)),
            _ => return None,
        }
    }
    if pos != payload.len() {
        return None;
    }
    Some((seq, ops, at + 8 + len))
}

fn segment_name(index: u64) -> String {
    format!("wal-{index:06}.log")
}

fn io_err(path: &Path, source: std::io::Error) -> RecoveryError {
    RecoveryError::Io {
        path: path.to_path_buf(),
        source,
    }
}

struct WalInner {
    file: File,
    /// Index of the open (tail) segment.
    segment: u64,
    /// Bytes appended to the open segment so far.
    written: u64,
    /// Highest sequence number ever assigned (recovered or appended).
    last_seq: u64,
    /// Appends since the last `fsync` (for [`SyncPolicy::EveryN`]).
    unsynced: u32,
    /// Closed segments still on disk: `(segment index, highest seq)`.
    closed: Vec<(u64, u64)>,
}

/// One intact record scanned back out of the log: the batch's sequence
/// number and its decoded operations.
pub(crate) type WalRecord = (u64, Vec<WriteOp>);

/// The segmented write-ahead log of one relation. Internally synchronized:
/// batches touching disjoint shards append concurrently, serialized only on
/// the log's own mutex (which also assigns sequence numbers).
pub(crate) struct Wal {
    dir: PathBuf,
    sync: SyncPolicy,
    segment_bytes: u64,
    inner: Mutex<WalInner>,
}

impl Wal {
    /// Creates a fresh log in `dir` (which must exist), starting sequence
    /// numbers at `1` in segment `wal-000001.log`.
    pub(crate) fn create(
        dir: &Path,
        sync: SyncPolicy,
        segment_bytes: u64,
    ) -> std::io::Result<Self> {
        let path = dir.join(segment_name(1));
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            sync,
            segment_bytes,
            inner: Mutex::new(WalInner {
                file,
                segment: 1,
                written: 0,
                last_seq: 0,
                unsynced: 0,
                closed: Vec::new(),
            }),
        })
    }

    /// Reopens the log in `dir` after a crash: scans existing segments in
    /// order, truncates the torn tail at the first bad record, and returns
    /// the log (positioned on a fresh segment) together with every intact
    /// record for replay. `base_seq` floors `last_seq` (the highest sequence
    /// any shard's block file already covers — trimmed segments may have
    /// removed the records that carried it).
    pub(crate) fn open(
        dir: &Path,
        sync: SyncPolicy,
        segment_bytes: u64,
        base_seq: u64,
    ) -> Result<(Self, Vec<WalRecord>), RecoveryError> {
        let mut segments: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(index) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                segments.push(index);
            }
        }
        segments.sort_unstable();

        let mut records: Vec<WalRecord> = Vec::new();
        let mut closed: Vec<(u64, u64)> = Vec::new();
        // Monotonicity floor across segments. Records with seq <= base_seq
        // are still *valid* (segments are only trimmed below the minimum
        // covered seq) — base_seq merely floors the reopened log's counter.
        let mut scan_seq = 0u64;
        let mut torn_at: Option<usize> = None; // position in `segments`
        for (si, &index) in segments.iter().enumerate() {
            let path = dir.join(segment_name(index));
            let mut buf = Vec::new();
            File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut buf))
                .map_err(|e| io_err(&path, e))?;
            let mut at = 0usize;
            while at < buf.len() {
                match decode_record(&buf, at) {
                    Some((seq, ops, next)) if seq > scan_seq => {
                        scan_seq = seq;
                        records.push((seq, ops));
                        at = next;
                    }
                    // Bad checksum, short record, or a non-monotonic
                    // sequence number: everything from here on is the torn
                    // tail of the crashed writer.
                    _ => break,
                }
            }
            if at < buf.len() {
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err(&path, e))?;
                file.set_len(at as u64).map_err(|e| io_err(&path, e))?;
                torn_at = Some(si);
            }
            closed.push((index, scan_seq));
            if torn_at.is_some() {
                break;
            }
        }
        // Records after a torn record have unrecoverable framing (and would
        // leave a sequence gap): delete any segments past the torn one.
        if let Some(si) = torn_at {
            for &index in &segments[si + 1..] {
                let path = dir.join(segment_name(index));
                std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }

        let last_seq = scan_seq.max(base_seq);
        let next_segment = segments.last().copied().unwrap_or(0) + 1;
        let path = dir.join(segment_name(next_segment));
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        Ok((
            Self {
                dir: dir.to_path_buf(),
                sync,
                segment_bytes,
                inner: Mutex::new(WalInner {
                    file,
                    segment: next_segment,
                    written: 0,
                    last_seq,
                    unsynced: 0,
                    closed,
                }),
            },
            records,
        ))
    }

    /// Appends one batch record, assigning it the next sequence number.
    /// Returns `(seq, bytes appended, fsync wall time)` — the last is `None`
    /// when the policy skipped the sync for this append.
    pub(crate) fn append(
        &self,
        ops: &[WriteOp],
    ) -> std::io::Result<(u64, u64, Option<std::time::Duration>)> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = inner.last_seq + 1;
        let record = encode_record(seq, ops);
        inner.file.write_all(&record)?;
        inner.last_seq = seq;
        inner.written += record.len() as u64;
        inner.unsynced += 1;
        let roll = inner.written >= self.segment_bytes;
        let mut fsync_wall = None;
        match self.sync {
            SyncPolicy::Never => {}
            SyncPolicy::EveryBatch => {
                let start = std::time::Instant::now();
                inner.file.sync_data()?;
                fsync_wall = Some(start.elapsed());
                inner.unsynced = 0;
            }
            SyncPolicy::EveryN(n) => {
                if roll || inner.unsynced >= n.max(1) {
                    let start = std::time::Instant::now();
                    inner.file.sync_data()?;
                    fsync_wall = Some(start.elapsed());
                    inner.unsynced = 0;
                }
            }
        }
        if roll {
            let closed = (inner.segment, inner.last_seq);
            inner.closed.push(closed);
            let next = inner.segment + 1;
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(self.dir.join(segment_name(next)))?;
            inner.file = file;
            inner.segment = next;
            inner.written = 0;
        }
        Ok((seq, record.len() as u64, fsync_wall))
    }

    /// The highest sequence number assigned so far (`0` before any append).
    pub(crate) fn last_seq(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .last_seq
    }

    /// Deletes closed segments whose highest sequence number is `<=
    /// covered_seq` (already folded into every shard's persisted base).
    /// Returns how many segments were removed.
    pub(crate) fn trim(&self, covered_seq: u64) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut removed = 0usize;
        inner.closed.retain(|&(index, max_seq)| {
            if max_seq <= covered_seq {
                // Best-effort: a segment that refuses to delete is replayed
                // harmlessly (replay is idempotent past covered records).
                if std::fs::remove_file(self.dir.join(segment_name(index))).is_ok() {
                    removed += 1;
                    return false;
                }
            }
            true
        });
        removed
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("segment", &inner.segment)
            .field("last_seq", &inner.last_seq)
            .field("closed_segments", &inner.closed.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "twoknn-wal-{}-{tag}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn batch(seed: u64) -> Vec<WriteOp> {
        vec![
            WriteOp::Upsert(Point::new(seed, seed as f64 * 0.5, -(seed as f64))),
            WriteOp::Remove(seed + 1),
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Bytewise, bit-at-a-time IEEE CRC32 — shares no table with `crc32`.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = u32::MAX;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_a_bytewise_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..(1 << 20) + 16)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        // Every length across the 8-byte step and its tail, at every
        // offset modulo 8.
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_reference(slice),
                    "offset {offset}, len {len}"
                );
            }
        }
        let mib = &bytes[3..3 + (1 << 20)];
        assert_eq!(crc32(mib), crc32_reference(mib));
    }

    #[test]
    fn records_roundtrip_including_non_finite_coordinates() {
        let ops = vec![
            WriteOp::Upsert(Point::new(7, f64::NEG_INFINITY, 1.25)),
            WriteOp::Remove(42),
            WriteOp::Upsert(Point::new(8, -0.0, 3.5)),
        ];
        let rec = encode_record(99, &ops);
        let (seq, decoded, next) = decode_record(&rec, 0).unwrap();
        assert_eq!(seq, 99);
        assert_eq!(next, rec.len());
        assert_eq!(decoded.len(), 3);
        match (&decoded[0], &ops[0]) {
            (WriteOp::Upsert(a), WriteOp::Upsert(b)) => {
                assert_eq!(a.id, b.id);
                assert_eq!(a.x.to_bits(), b.x.to_bits());
                assert_eq!(a.y.to_bits(), b.y.to_bits());
            }
            _ => panic!("op kind changed in roundtrip"),
        }
        assert!(matches!(decoded[1], WriteOp::Remove(42)));
    }

    #[test]
    fn corrupt_and_short_records_decode_to_none() {
        let mut rec = encode_record(1, &batch(10));
        assert!(decode_record(&rec[..rec.len() - 1], 0).is_none(), "short");
        let last = rec.len() - 1;
        rec[last] ^= 0x40;
        assert!(decode_record(&rec, 0).is_none(), "bad checksum");
    }

    #[test]
    fn append_scan_roundtrip_with_segment_rolls() {
        let dir = tmpdir("roundtrip");
        // Tiny segments force rolls every couple of records.
        let wal = Wal::create(&dir, SyncPolicy::EveryN(3), 128).unwrap();
        let mut expected = Vec::new();
        for i in 0..10u64 {
            let ops = batch(i * 10);
            let (seq, bytes, _) = wal.append(&ops).unwrap();
            assert_eq!(seq, i + 1);
            assert!(bytes > 0);
            expected.push((seq, ops));
        }
        assert_eq!(wal.last_seq(), 10);
        drop(wal);
        assert!(
            std::fs::read_dir(&dir).unwrap().count() > 2,
            "128-byte segments must have rolled"
        );

        let (reopened, records) = Wal::open(&dir, SyncPolicy::Never, 128, 0).unwrap();
        assert_eq!(records, expected);
        assert_eq!(reopened.last_seq(), 10);
        // The reopened log continues the sequence.
        assert_eq!(reopened.append(&batch(0)).unwrap().0, 11);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_later_segments_dropped() {
        let dir = tmpdir("torn");
        let wal = Wal::create(&dir, SyncPolicy::Never, u64::MAX).unwrap();
        for i in 0..4u64 {
            wal.append(&batch(i)).unwrap();
        }
        drop(wal);
        // Tear the last record: chop 3 bytes off the single segment.
        let seg = dir.join(segment_name(1));
        let len = std::fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        // A later segment that should be discarded along with the tail.
        std::fs::write(dir.join(segment_name(2)), encode_record(9, &batch(9))).unwrap();

        let (wal, records) = Wal::open(&dir, SyncPolicy::Never, u64::MAX, 0).unwrap();
        assert_eq!(records.len(), 3, "the torn 4th record is dropped");
        assert_eq!(records.last().unwrap().0, 3);
        assert_eq!(wal.last_seq(), 3);
        assert!(
            !dir.join(segment_name(2)).exists(),
            "segments past the tear are deleted"
        );
        assert!(
            std::fs::metadata(&seg).unwrap().len() < len - 3,
            "the torn segment is truncated back to its last intact record"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trim_deletes_only_fully_covered_closed_segments() {
        let dir = tmpdir("trim");
        let wal = Wal::create(&dir, SyncPolicy::Never, 64).unwrap();
        for i in 0..8u64 {
            wal.append(&batch(i)).unwrap();
        }
        let before: usize = std::fs::read_dir(&dir).unwrap().count();
        assert!(before > 2);
        assert_eq!(wal.trim(0), 0, "nothing covered, nothing trimmed");
        let removed = wal.trim(wal.last_seq());
        assert!(removed > 0);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            before - removed,
            "only closed segments are deleted; the open tail stays"
        );
        // The survivors still replay cleanly.
        drop(wal);
        let (_, records) = Wal::open(&dir, SyncPolicy::Never, 64, 0).unwrap();
        for (seq, _) in &records {
            assert!(*seq > 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
