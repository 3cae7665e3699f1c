//! Crash recovery: relation manifests, per-relation durability state, and
//! the store-open path that rebuilds a catalog from disk.
//!
//! On-disk layout of a durable store rooted at `dir`:
//!
//! ```text
//! dir/
//! └── rel-<hex(name)>/             one directory per relation
//!     ├── MANIFEST                 commit point: index family, sharding,
//!     │                            and per shard {block file, covered seq}
//!     ├── shard-<s>-<gen>.blk      immutable shard base images
//!     └── wal-<n>.log              WAL segments (see `super::wal`)
//! ```
//!
//! The **manifest rewrite is the commit point** of every persistence step:
//! a new shard block file only "exists" once the manifest (written via temp
//! file + rename) references it. If the process dies between writing a
//! block file and flipping the manifest, recovery uses the previous
//! generation and the WAL suffix still carries the missing ops — nothing is
//! lost, some work is redone.
//!
//! [`recover_relations`] opens each relation directory: block files become
//! the shard bases (checksum-verified, columns decoded lazily), the WAL is
//! scanned (torn tail truncated), and the ops of every record with a
//! sequence number past the *minimum* shard `covered_seq` are folded, in
//! log order, into **one** batch. That batch goes through the ingest path
//! in replay mode once: one route, one apply per touched shard, and one
//! publish per relation, however long the suffix. A batch applies as its
//! ops in order, so this equals replaying the records one by one.
//! Replaying an op a shard already covers is idempotent on the visible
//! set, and replay mode additionally retracts the stale copy of a point
//! whose cross-shard move was persisted by one shard but not the other —
//! shards checkpoint independently, so their bases may cover different WAL
//! prefixes.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use twoknn_geometry::Rect;
use twoknn_index::{Metrics, SpatialIndex};

use crate::obs::{EventKind, HistogramKind, Observability};

use super::blockfile::{write_block_file, BlockFileIndex};
use super::delta::WriteOp;
use super::snapshot::{BaseIndex, IndexConfig};
use super::version::VersionedRelation;
use super::wal::{crc32, SyncPolicy, Wal, WalRecord};
use super::StoreConfig;

/// Why opening a durable store failed.
///
/// Recovery *repairs* what a crash can legitimately produce (a torn WAL
/// tail) and *reports* what it cannot trust (checksum mismatches, missing
/// files) — it never panics on disk contents.
#[derive(Debug)]
pub enum RecoveryError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file or directory the operation targeted.
        path: PathBuf,
        /// The originating I/O error.
        source: std::io::Error,
    },
    /// A file's contents failed validation (bad magic, checksum mismatch,
    /// inconsistent structure).
    Corrupt {
        /// The file that failed validation.
        path: PathBuf,
        /// What check failed.
        detail: String,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => {
                write!(f, "recovery I/O error on {}: {source}", path.display())
            }
            Self::Corrupt { path, detail } => {
                write!(f, "corrupt store file {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Corrupt { .. } => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> RecoveryError {
    RecoveryError::Io {
        path: path.to_path_buf(),
        source,
    }
}

const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 4] = b"TKMF";

/// The directory name a relation persists under: a hex encoding of the name
/// bytes, so arbitrary relation names map to filesystem-safe paths.
pub(crate) fn relation_dir_name(name: &str) -> String {
    let mut out = String::with_capacity(4 + name.len() * 2);
    out.push_str("rel-");
    for b in name.as_bytes() {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// One shard's entry in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardManifest {
    /// Highest WAL sequence number the shard's block file covers.
    pub covered_seq: u64,
    /// Block file name within the relation directory (empty until the
    /// registration-time persist completes).
    pub file: String,
}

/// The durable description of one relation: everything needed to rebuild
/// its [`VersionedRelation`] besides the block files and the WAL.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Manifest {
    pub name: String,
    /// Index family compaction rebuilds with (structural, persisted).
    pub index: IndexConfig,
    /// Spatial sharding grid side (structural: `per_axis²` shards).
    pub per_axis: usize,
    /// The registration bounds the shard map routes against.
    pub bounds: Rect,
    pub shards: Vec<ShardManifest>,
}

fn encode_index_config(config: &IndexConfig, out: &mut Vec<u8>) {
    let (tag, a, b): (u8, u64, u64) = match config {
        IndexConfig::Grid { cells_per_axis } => (0, *cells_per_axis as u64, 0),
        IndexConfig::Quadtree {
            capacity,
            max_depth,
        } => (1, *capacity as u64, *max_depth as u64),
        IndexConfig::RTree { leaf_capacity } => (2, *leaf_capacity as u64, 0),
    };
    out.push(tag);
    out.extend_from_slice(&a.to_le_bytes());
    out.extend_from_slice(&b.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let slice = self
            .buf
            .get(self.at..self.at + n)
            .ok_or_else(|| format!("truncated at byte {}", self.at))?;
        self.at += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| "non-UTF-8 string".to_string())
    }
}

fn decode_index_config(c: &mut Cursor<'_>) -> Result<IndexConfig, String> {
    let tag = c.take(1)?[0];
    let a = c.u64()? as usize;
    let b = c.u64()? as usize;
    match tag {
        0 => Ok(IndexConfig::Grid { cells_per_axis: a }),
        1 => Ok(IndexConfig::Quadtree {
            capacity: a,
            max_depth: b,
        }),
        2 => Ok(IndexConfig::RTree { leaf_capacity: a }),
        _ => Err(format!("unknown index config tag {tag}")),
    }
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        payload.extend_from_slice(self.name.as_bytes());
        encode_index_config(&self.index, &mut payload);
        payload.extend_from_slice(&(self.per_axis as u64).to_le_bytes());
        for v in [
            self.bounds.min_x,
            self.bounds.min_y,
            self.bounds.max_x,
            self.bounds.max_y,
        ] {
            payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        payload.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for shard in &self.shards {
            payload.extend_from_slice(&shard.covered_seq.to_le_bytes());
            payload.extend_from_slice(&(shard.file.len() as u32).to_le_bytes());
            payload.extend_from_slice(shard.file.as_bytes());
        }
        let mut out = Vec::with_capacity(12 + payload.len());
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode(buf: &[u8]) -> Result<Self, String> {
        if buf.len() < 12 || &buf[0..4] != MANIFEST_MAGIC {
            return Err("bad magic (not a manifest)".into());
        }
        let len = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        let payload = buf
            .get(12..12 + len)
            .ok_or_else(|| "truncated payload".to_string())?;
        if crc32(payload) != crc {
            return Err("checksum mismatch".into());
        }
        let mut c = Cursor {
            buf: payload,
            at: 0,
        };
        let name = c.string()?;
        let index = decode_index_config(&mut c)?;
        let per_axis = c.u64()? as usize;
        let bounds = Rect::new(c.f64()?, c.f64()?, c.f64()?, c.f64()?);
        let nshards = c.u32()? as usize;
        if per_axis == 0 || nshards != per_axis * per_axis {
            return Err(format!("{nshards} shards for a {per_axis}×{per_axis} grid"));
        }
        let mut shards = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            let covered_seq = c.u64()?;
            let file = c.string()?;
            shards.push(ShardManifest { covered_seq, file });
        }
        if c.at != payload.len() {
            return Err("trailing bytes after manifest payload".into());
        }
        Ok(Self {
            name,
            index,
            per_axis,
            bounds,
            shards,
        })
    }

    fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        let tmp = dir.join("MANIFEST.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, dir.join(MANIFEST_NAME))
    }

    fn read_from(dir: &Path) -> Result<Self, RecoveryError> {
        let path = dir.join(MANIFEST_NAME);
        let buf = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        Self::decode(&buf).map_err(|detail| RecoveryError::Corrupt { path, detail })
    }
}

struct DurState {
    manifest: Manifest,
    /// Next block-file generation number.
    gen: u64,
    /// Per shard: the manifest's block file no longer matches the shard's
    /// in-memory base (a persist failed). Checkpoints must not advance such
    /// a shard's `covered_seq` — the WAL keeps it correct instead.
    stale: Vec<bool>,
    /// Set once the store lets go of the relation (store dropped, relation
    /// deregistered or replaced): nothing more is written to the directory.
    retired: bool,
}

/// The durable state of one relation: its directory, WAL, and manifest.
///
/// Shared (via `Arc`) between the [`VersionedRelation`] — whose ingest path
/// appends batches and whose compaction publish persists shard bases — and
/// the store's checkpoint/deregister paths.
pub(crate) struct RelationDurability {
    dir: PathBuf,
    wal: Wal,
    state: Mutex<DurState>,
    metrics: Arc<Mutex<Metrics>>,
    obs: Arc<Observability>,
}

impl RelationDurability {
    /// Creates the durable state for a freshly registered relation: wipes
    /// any previous directory of the same name and starts an empty WAL. The
    /// manifest is not written until the first
    /// [`RelationDurability::persist_shard`] — a crash before all shards
    /// persist leaves an incomplete directory that recovery skips.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn create(
        root: &Path,
        name: &str,
        index: IndexConfig,
        per_axis: usize,
        bounds: Rect,
        sync: SyncPolicy,
        segment_bytes: u64,
        metrics: Arc<Mutex<Metrics>>,
        obs: Arc<Observability>,
    ) -> std::io::Result<Self> {
        let dir = root.join(relation_dir_name(name));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        let wal = Wal::create(&dir, sync, segment_bytes)?;
        let shards = (0..per_axis * per_axis)
            .map(|_| ShardManifest {
                covered_seq: 0,
                file: String::new(),
            })
            .collect();
        Ok(Self {
            dir,
            wal,
            state: Mutex::new(DurState {
                manifest: Manifest {
                    name: name.to_string(),
                    index,
                    per_axis,
                    bounds,
                    shards,
                },
                gen: 0,
                stale: vec![false; per_axis * per_axis],
                retired: false,
            }),
            metrics,
            obs,
        })
    }

    /// Reopens the durable state from an existing relation directory,
    /// returning the persisted manifest and the intact WAL records.
    pub(crate) fn open(
        dir: &Path,
        sync: SyncPolicy,
        segment_bytes: u64,
        metrics: Arc<Mutex<Metrics>>,
        obs: Arc<Observability>,
    ) -> Result<(Self, Manifest, Vec<WalRecord>), RecoveryError> {
        let manifest = Manifest::read_from(dir)?;
        let base_seq = manifest
            .shards
            .iter()
            .map(|s| s.covered_seq)
            .max()
            .unwrap_or(0);
        let (wal, records) = Wal::open(dir, sync, segment_bytes, base_seq)?;
        // Continue generation numbers past every referenced block file.
        let gen = manifest
            .shards
            .iter()
            .filter_map(|s| {
                s.file
                    .strip_suffix(".blk")
                    .and_then(|stem| stem.rsplit('-').next())
                    .and_then(|g| g.parse::<u64>().ok())
            })
            .max()
            .unwrap_or(0);
        let nshards = manifest.shards.len();
        Ok((
            Self {
                dir: dir.to_path_buf(),
                wal,
                state: Mutex::new(DurState {
                    manifest: manifest.clone(),
                    gen,
                    stale: vec![false; nshards],
                    retired: false,
                }),
                metrics,
                obs,
            },
            manifest,
            records,
        ))
    }

    /// Appends one batch record to the WAL (called with every touched
    /// shard's writer lock held — see the ordering argument in
    /// [`super::version`]). Returns the assigned sequence number.
    pub(crate) fn append_batch(&self, ops: &[WriteOp]) -> std::io::Result<u64> {
        let start = std::time::Instant::now();
        let (seq, bytes, fsync_wall) = self.wal.append(ops)?;
        self.obs.record(HistogramKind::WalAppend, start.elapsed());
        if let Some(wall) = fsync_wall {
            self.obs.record(HistogramKind::WalFsync, wall);
        }
        let mut m = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        m.wal_appends += 1;
        m.wal_bytes += bytes;
        Ok(seq)
    }

    /// The highest WAL sequence number assigned so far.
    pub(crate) fn last_seq(&self) -> u64 {
        self.wal.last_seq()
    }

    /// Persists shard `s`'s base as a new block-file generation and commits
    /// it by rewriting the manifest with `covered_seq`. The previous
    /// generation is deleted afterwards (best effort — an orphaned file is
    /// unreferenced and harmless).
    ///
    /// On failure the shard is marked stale: its manifest entry keeps the
    /// old (still correct) generation and checkpoints stop advancing its
    /// `covered_seq`, so the WAL suffix keeps carrying the missing ops.
    /// A no-op once the relation is [retired](RelationDurability::retire).
    pub(crate) fn persist_shard(
        &self,
        s: usize,
        base: &dyn SpatialIndex,
        covered_seq: u64,
    ) -> std::io::Result<()> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.retired {
            return Ok(());
        }
        state.gen += 1;
        let file = format!("shard-{s}-{}.blk", state.gen);
        let result = write_block_file(&self.dir.join(&file), base).and_then(|_| {
            let old = std::mem::replace(
                &mut state.manifest.shards[s],
                ShardManifest { covered_seq, file },
            );
            state.manifest.write_to(&self.dir).map(|()| old)
        });
        match result {
            Ok(old) => {
                state.stale[s] = false;
                if !old.file.is_empty() && old.file != state.manifest.shards[s].file {
                    let _ = std::fs::remove_file(self.dir.join(&old.file));
                }
                Ok(())
            }
            Err(e) => {
                state.stale[s] = true;
                Err(e)
            }
        }
    }

    /// Advances shard `s`'s covered sequence in the in-memory manifest —
    /// valid only while the caller holds the shard's writer lock and has
    /// verified the shard is clean (empty delta and writer log, so its
    /// persisted base equals its visible set). No-op for stale shards.
    /// Callers follow up with [`RelationDurability::sync_manifest`].
    pub(crate) fn bump_covered(&self, s: usize, seq: u64) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.stale[s] && seq > state.manifest.shards[s].covered_seq {
            state.manifest.shards[s].covered_seq = seq;
        }
    }

    /// Rewrites the manifest from the in-memory state and deletes WAL
    /// segments every shard's `covered_seq` has moved past. Returns the
    /// number of segments trimmed (none once retired).
    pub(crate) fn sync_manifest_and_trim(&self) -> std::io::Result<usize> {
        let min_covered = {
            let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if state.retired {
                return Ok(0);
            }
            state.manifest.write_to(&self.dir)?;
            state
                .manifest
                .shards
                .iter()
                .map(|s| s.covered_seq)
                .min()
                .unwrap_or(0)
        };
        let trimmed = self.wal.trim(min_covered);
        if trimmed > 0 {
            self.obs.event(
                EventKind::SegmentTrim,
                format!(
                    "{trimmed} WAL segment(s) trimmed up to seq {min_covered} in {}",
                    self.dir.display()
                ),
            );
        }
        Ok(trimmed)
    }

    /// Stops all block-file and manifest writes. A background rebuild
    /// holds only its relation, so it can outlive the store that scheduled
    /// it; once retired it publishes in memory only and leaves the
    /// directory to whoever reopens or re-registers it. Waits for an
    /// in-progress persist to finish.
    pub(crate) fn retire(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retired = true;
    }

    /// Retires the relation and deletes its directory (deregistration).
    pub(crate) fn wipe(&self) {
        self.retire();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl std::fmt::Debug for RelationDurability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationDurability")
            .field("dir", &self.dir)
            .field("wal", &self.wal)
            .finish_non_exhaustive()
    }
}

/// The WAL suffix a store open replayed, summed over its relations.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Replayed {
    /// WAL records past their relation's minimum `covered_seq`.
    pub records: usize,
    /// The write ops those records carried.
    pub ops: usize,
}

/// Rebuilds the relation catalog from a durable store directory: for every
/// complete relation directory, opens the manifest, loads the shard block
/// files as bases, and replays the WAL suffix past the minimum persisted
/// `covered_seq` through replay-mode ingest, as one batch per relation.
pub(crate) fn recover_relations(
    root: &Path,
    sync: SyncPolicy,
    segment_bytes: u64,
    config: &StoreConfig,
    metrics: &Arc<Mutex<Metrics>>,
    obs: &Arc<Observability>,
) -> Result<(HashMap<String, Arc<VersionedRelation>>, Replayed), RecoveryError> {
    let mut out = HashMap::new();
    let mut replayed = Replayed::default();
    if !root.is_dir() {
        return Ok((out, replayed));
    }
    let mut dirs: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(root).map_err(|e| io_err(root, e))? {
        let entry = entry.map_err(|e| io_err(root, e))?;
        let path = entry.path();
        if path.is_dir()
            && path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("rel-"))
        {
            dirs.push(path);
        }
    }
    dirs.sort();
    for dir in dirs {
        // No manifest = a registration that never completed its first
        // persist; there is nothing consistent to recover.
        if !dir.join(MANIFEST_NAME).exists() {
            continue;
        }
        let (rel, rel_replayed) =
            recover_relation(&dir, sync, segment_bytes, config, metrics, obs)?;
        let mut m = metrics.lock().unwrap_or_else(PoisonError::into_inner);
        m.recoveries += 1;
        drop(m);
        replayed.records += rel_replayed.records;
        replayed.ops += rel_replayed.ops;
        out.insert(rel.name().to_string(), rel);
    }
    Ok((out, replayed))
}

fn recover_relation(
    dir: &Path,
    sync: SyncPolicy,
    segment_bytes: u64,
    config: &StoreConfig,
    metrics: &Arc<Mutex<Metrics>>,
    obs: &Arc<Observability>,
) -> Result<(Arc<VersionedRelation>, Replayed), RecoveryError> {
    let (dur, manifest, records) = RelationDurability::open(
        dir,
        sync,
        segment_bytes,
        Arc::clone(metrics),
        Arc::clone(obs),
    )?;
    let mut bases: Vec<BaseIndex> = Vec::with_capacity(manifest.shards.len());
    for shard in &manifest.shards {
        if shard.file.is_empty() {
            return Err(RecoveryError::Corrupt {
                path: dir.join(MANIFEST_NAME),
                detail: "manifest references an unpersisted shard".into(),
            });
        }
        bases.push(Arc::new(BlockFileIndex::open(&dir.join(&shard.file))?));
    }
    let min_covered = manifest
        .shards
        .iter()
        .map(|s| s.covered_seq)
        .min()
        .unwrap_or(0);
    let rel = Arc::new(VersionedRelation::from_recovered(
        manifest.name.clone(),
        manifest.bounds,
        manifest.per_axis,
        bases,
        manifest.index,
        config,
        Arc::new(dur),
    ));
    // Fold the suffix into one ordered batch, moving the ops out of the
    // records, and publish it once.
    let mut replayed = Replayed::default();
    let mut batch: Vec<WriteOp> = Vec::new();
    for (_, ops) in records.into_iter().filter(|(seq, _)| *seq > min_covered) {
        replayed.records += 1;
        batch.extend(ops);
    }
    replayed.ops = batch.len();
    if !batch.is_empty() {
        rel.ingest_replay(&batch);
    }
    Ok((rel, replayed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_dir_names_are_hex_and_distinct() {
        assert_eq!(relation_dir_name("AB"), "rel-4142");
        assert_ne!(relation_dir_name("a/b"), relation_dir_name("a_b"));
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let m = Manifest {
            name: "Vehicles".into(),
            index: IndexConfig::Quadtree {
                capacity: 64,
                max_depth: 12,
            },
            per_axis: 2,
            bounds: Rect::new(-1.0, -2.0, 3.0, 4.0),
            shards: (0..4)
                .map(|s| ShardManifest {
                    covered_seq: s as u64 * 10,
                    file: format!("shard-{s}-1.blk"),
                })
                .collect(),
        };
        let mut bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x02;
        assert!(Manifest::decode(&bytes).is_err(), "bit flip must be caught");
        assert!(Manifest::decode(&bytes[..6]).is_err());
        assert!(Manifest::decode(b"not a manifest at all").is_err());
    }

    #[test]
    fn a_retired_relation_writes_nothing_more() {
        let root = std::env::temp_dir().join(format!("twoknn-retire-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dur = RelationDurability::create(
            &root,
            "R",
            IndexConfig::Grid { cells_per_axis: 2 },
            1,
            Rect::new(0.0, 0.0, 1.0, 1.0),
            SyncPolicy::Never,
            1 << 20,
            Arc::new(Mutex::new(Metrics::default())),
            Arc::new(Observability::new(crate::obs::TraceConfig::default())),
        )
        .unwrap();
        let base =
            twoknn_index::GridIndex::build(vec![twoknn_geometry::Point::new(1, 0.5, 0.5)], 2)
                .unwrap();
        dur.persist_shard(0, &base, 0).unwrap();
        let dir = root.join(relation_dir_name("R"));
        let committed = Manifest::read_from(&dir).unwrap();

        dur.retire();
        dur.persist_shard(0, &base, 7).unwrap();
        assert_eq!(dur.sync_manifest_and_trim().unwrap(), 0);
        assert_eq!(Manifest::read_from(&dir).unwrap(), committed);
        assert!(
            !dir.join("shard-0-2.blk").exists(),
            "no block file after retirement"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn index_config_variants_all_roundtrip() {
        for config in [
            IndexConfig::Grid { cells_per_axis: 9 },
            IndexConfig::Quadtree {
                capacity: 32,
                max_depth: 8,
            },
            IndexConfig::RTree { leaf_capacity: 48 },
        ] {
            let m = Manifest {
                name: "R".into(),
                index: config,
                per_axis: 1,
                bounds: Rect::new(0.0, 0.0, 1.0, 1.0),
                shards: vec![ShardManifest {
                    covered_seq: 0,
                    file: "shard-0-1.blk".into(),
                }],
            };
            assert_eq!(Manifest::decode(&m.encode()).unwrap().index, config);
        }
    }
}
