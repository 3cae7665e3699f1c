//! One versioned relation: independently versioned spatial shards behind an
//! atomically swapped composed snapshot.
//!
//! # Concurrency model
//!
//! * **Readers** call [`VersionedRelation::load`], which clones the current
//!   composed snapshot `Arc` under a read lock held only for the clone — a
//!   few nanoseconds. The query then runs entirely against its pinned
//!   [`RelationSnapshot`], lock-free.
//! * **Writers** serialize on one relation-level `ingest_lock` only to
//!   *route* a batch (each op's target shard depends on what earlier ops
//!   made visible). The actual work happens under the **per-shard** writer
//!   mutexes of just the shards the batch touches — a write burst confined
//!   to one shard contends on that shard alone, and a per-shard compaction
//!   publish never blocks ingest into other shards.
//! * **Per-shard compaction** captures `(shard snapshot, log length)` under
//!   that shard's writer lock, rebuilds the shard's base *outside* all
//!   locks (ingest everywhere continues concurrently), then re-enters the
//!   shard lock to replay the shard ops logged since the capture and swap
//!   the shard in. Each shard has its own in-flight slot, so rebuilds of
//!   different shards overlap freely on the worker pool.
//! * **Publishing** — the only place shard state becomes visible — happens
//!   under the `compose_lock`: the affected shard pointers are swapped and a
//!   new composed [`RelationSnapshot`] (concatenated blocks + partition
//!   tier) is built and swapped in as one step, so readers never observe a
//!   torn batch. Lock order is always `ingest_lock → shard writers
//!   (ascending) → compose_lock`, which keeps the paths deadlock-free.
//! * **Durability** (when enabled): the original batch is appended to the
//!   relation's WAL as one record *between* apply and publish, while every
//!   touched shard's writer lock is held. A concurrent compaction capture
//!   of a touched shard therefore reads the WAL head either before the
//!   append (the batch stays in the uncovered suffix) or after the publish
//!   (the captured snapshot already contains the batch) — never in between,
//!   so `covered_seq` can never claim an op the persisted base misses.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use twoknn_geometry::{Point, PointId, Rect};
use twoknn_index::Metrics;

use crate::exec::WorkerPool;

use super::delta::{Delta, WriteOp};
use super::overlay::OverlayConfig;
use super::recover::RelationDurability;
use super::shard::{RelationSnapshot, ShardConfig, ShardMap};
use super::snapshot::{BaseIndex, IndexConfig, ShardSnapshot};
use super::StoreConfig;

/// One spatial shard's mutable state: its current snapshot, its writer log
/// (the ops since the shard's base was built), and its compaction slot.
struct ShardState {
    current: RwLock<Arc<ShardSnapshot>>,
    /// Ops applied to this shard since its last compaction publish.
    writer: Mutex<Vec<WriteOp>>,
    /// Guards against more than one in-flight rebuild of this shard.
    compacting: AtomicBool,
}

impl ShardState {
    fn snapshot(&self) -> Arc<ShardSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Everything one ingest batch produced, captured race-free under the
/// relation's ingest lock: per-op outcomes plus the snapshots on either side
/// of the publish. The continuous-query maintainer consumes `prev` (to
/// recover old positions of moved/removed points) and the published version
/// (the version standing queries re-evaluate against).
pub(crate) struct IngestReceipt {
    /// Number of ops that changed the visible point set.
    pub effective: usize,
    /// The published composed snapshot's version.
    pub version: u64,
    /// Per op: whether it changed the visible point set.
    pub changed: Vec<bool>,
    /// Per op: whether the op's id was visible immediately before it
    /// (within the batch: earlier ops of the same batch count).
    pub visible_before: Vec<bool>,
    /// The composed snapshot the batch was applied to — the pre-publish
    /// state the maintainer recovers old positions from. (Re-evaluations
    /// deliberately pin the *current* snapshot rather than the published
    /// one, so later evaluations always cover earlier publishes; the receipt
    /// therefore does not carry the published snapshot itself.)
    pub prev: Arc<RelationSnapshot>,
}

/// A relation whose current snapshot is replaced, never mutated, stored as
/// independently versioned spatial shards.
pub struct VersionedRelation {
    name: String,
    /// The composed view readers pin.
    current: RwLock<Arc<RelationSnapshot>>,
    map: ShardMap,
    shards: Vec<ShardState>,
    /// Serializes batch routing (op → shard resolution orders batches).
    ingest_lock: Mutex<()>,
    /// Serializes publishes of the composed snapshot.
    compose_lock: Mutex<()>,
    config: IndexConfig,
    compaction_threshold: usize,
    overlay: OverlayConfig,
    /// WAL + manifest of this relation, when the store is durable.
    durability: Option<Arc<RelationDurability>>,
}

impl VersionedRelation {
    pub(crate) fn new(
        name: String,
        base: BaseIndex,
        config: IndexConfig,
        compaction_threshold: usize,
        overlay: OverlayConfig,
        sharding: ShardConfig,
        durability: Option<Arc<RelationDurability>>,
    ) -> Self {
        let map = ShardMap::new(base.bounds(), sharding.shards_per_axis);
        let shard_snaps: Vec<Arc<ShardSnapshot>> = if map.num_shards() == 1 {
            // Unsharded: the registered index is used as-is.
            vec![Arc::new(ShardSnapshot::clean(base, 0, overlay))]
        } else {
            // Split the registered points by shard and build one base per
            // shard over its routing cell (extended by its points' bounds).
            let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); map.num_shards()];
            for p in base.all_points() {
                buckets[map.shard_of(&p)].push(p);
            }
            buckets
                .into_iter()
                .enumerate()
                .map(|(s, pts)| {
                    let shard_base = config.build(pts, map.shard_rect(s));
                    Arc::new(ShardSnapshot::clean(shard_base, 0, overlay))
                })
                .collect()
        };
        Self::assemble(
            name,
            map,
            shard_snaps,
            config,
            compaction_threshold,
            overlay,
            durability,
        )
    }

    /// Rebuilds a relation from recovered state: one pre-loaded base (the
    /// opened block file) per shard, with the shard map restored from the
    /// persisted registration `bounds` and `per_axis` — the relation keeps
    /// its persisted structure even if the store was reopened with a
    /// different [`super::ShardConfig`]. Runtime knobs (compaction
    /// threshold, overlay sizing) come from the current `store` config.
    pub(crate) fn from_recovered(
        name: String,
        bounds: Rect,
        per_axis: usize,
        bases: Vec<BaseIndex>,
        config: IndexConfig,
        store: &StoreConfig,
        durability: Arc<RelationDurability>,
    ) -> Self {
        let map = ShardMap::new(bounds, per_axis);
        debug_assert_eq!(map.num_shards(), bases.len());
        let shard_snaps = bases
            .into_iter()
            .map(|base| Arc::new(ShardSnapshot::clean(base, 0, store.overlay)))
            .collect();
        Self::assemble(
            name,
            map,
            shard_snaps,
            config,
            store.compaction_threshold,
            store.overlay,
            Some(durability),
        )
    }

    fn assemble(
        name: String,
        map: ShardMap,
        shard_snaps: Vec<Arc<ShardSnapshot>>,
        config: IndexConfig,
        compaction_threshold: usize,
        overlay: OverlayConfig,
        durability: Option<Arc<RelationDurability>>,
    ) -> Self {
        let shards = shard_snaps
            .iter()
            .map(|snap| ShardState {
                current: RwLock::new(Arc::clone(snap)),
                writer: Mutex::new(Vec::new()),
                compacting: AtomicBool::new(false),
            })
            .collect();
        let composed = RelationSnapshot::compose(map, shard_snaps, 0);
        Self {
            name,
            current: RwLock::new(Arc::new(composed)),
            map,
            shards,
            ingest_lock: Mutex::new(()),
            compose_lock: Mutex::new(()),
            config,
            compaction_threshold,
            overlay,
            durability,
        }
    }

    /// The relation's durable state, when the store is durable.
    pub(crate) fn durability(&self) -> Option<&Arc<RelationDurability>> {
        self.durability.as_ref()
    }

    /// Writes every shard's current base as a block file and commits the
    /// manifest — the registration-time persist that makes a fresh durable
    /// relation recoverable. (Shard bases at this point cover no WAL
    /// records, hence `covered_seq` 0.)
    pub(crate) fn persist_initial(&self) -> std::io::Result<()> {
        if let Some(d) = &self.durability {
            for (s, state) in self.shards.iter().enumerate() {
                d.persist_shard(s, state.snapshot().base().as_ref(), 0)?;
            }
        }
        Ok(())
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rebuild config compaction uses.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// The per-shard delta size at which ingest schedules a background
    /// rebuild of that shard.
    pub fn compaction_threshold(&self) -> usize {
        self.compaction_threshold
    }

    /// Number of spatial shards (≥ 1).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Pins the current composed snapshot. The returned `Arc` stays valid
    /// (and immutable) regardless of concurrent ingest or compaction.
    pub fn load(&self) -> Arc<RelationSnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Rebuilds and swaps the composed snapshot from the current shard
    /// snapshots at `current version + 1`, returning the new version.
    /// Callers must hold the `compose_lock`.
    fn recompose_locked(&self) -> u64 {
        let version = self.load().version() + 1;
        let snaps = self.shards.iter().map(ShardState::snapshot).collect();
        let composed = RelationSnapshot::compose(self.map, snaps, version);
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(composed);
        version
    }

    /// Applies a batch of write operations as **one** atomic visibility
    /// step: queries either see all of the batch or none of it.
    ///
    /// (Non-test code goes through
    /// [`VersionedRelation::ingest_with_receipt`], which this wraps.)
    #[cfg(test)]
    pub(crate) fn ingest(&self, ops: &[WriteOp]) -> (usize, u64) {
        let receipt = self.ingest_with_receipt(ops);
        (receipt.effective, receipt.version)
    }

    /// Ingests one batch, reporting — per op, race-free under the ingest
    /// lock — the full [`IngestReceipt`]: visibility before each op
    /// (`Database::update` uses this for its return value) and the pre-batch
    /// composed snapshot (the continuous-query maintainer uses it for guard
    /// probing).
    ///
    /// Each op is routed to the shard its coordinates map to; an upsert that
    /// moves a point across a shard boundary becomes a remove in the old
    /// shard plus the upsert in the new one, applied in the same publish so
    /// the point is never visible twice or not at all.
    pub(crate) fn ingest_with_receipt(&self, ops: &[WriteOp]) -> IngestReceipt {
        self.ingest_full(ops, false)
    }

    /// Recovery-time ingest: applies the WAL suffix — every replayed
    /// record's ops folded in log order into one batch — through the normal
    /// routing and publish machinery, publishing once. It (a) never
    /// re-appends to the WAL and (b) retracts *every* stale copy of an id
    /// on the batch's first touch of it. Shards persist their bases
    /// independently, so after a crash a moved point can be visible in two
    /// shards at once (old position in a shard persisted before the move,
    /// new position in one persisted after); the move op itself has a
    /// sequence number past the less-advanced shard's `covered_seq`, so it
    /// is guaranteed to be in the replayed suffix and cleans up the
    /// duplicate here. After that first touch the id is in at most one
    /// shard, and the batch's own routing tracks it exactly.
    pub(crate) fn ingest_replay(&self, ops: &[WriteOp]) {
        self.ingest_full(ops, true);
    }

    fn ingest_full(&self, ops: &[WriteOp], replay: bool) -> IngestReceipt {
        let _ingest = self
            .ingest_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let prev = self.load();
        let nshards = self.shards.len();

        // Route ops to per-shard sub-batches. Visibility is resolved against
        // the current shard snapshots (compaction never changes visibility,
        // so a concurrent publish cannot skew this) plus the batch's own
        // earlier ops.
        let shard_snaps: Vec<Arc<ShardSnapshot>> =
            self.shards.iter().map(ShardState::snapshot).collect();
        let mut where_is: HashMap<PointId, Option<usize>> = HashMap::new();
        let mut sub: Vec<Vec<WriteOp>> = vec![Vec::new(); nshards];
        // Per op: the (shard, sub-batch index) of its primary sub-op, `None`
        // for ineffective removes that route nowhere.
        let mut primary: Vec<Option<(usize, usize)>> = Vec::with_capacity(ops.len());
        let mut visible_before = Vec::with_capacity(ops.len());
        // The shards holding the op's id before it applies. Live ingest
        // keeps an id in at most one shard, and so does the batch once it
        // has touched the id (`where_is`). Replay mode collects *every*
        // holder on an id's first touch, in one pass over the shards:
        // independently persisted shard bases can briefly hold an id twice
        // (see `ingest_replay`), and the first touch retracts the stale
        // copies.
        let mut holders: Vec<usize> = Vec::new();
        for op in ops {
            let id = match op {
                WriteOp::Upsert(p) => p.id,
                WriteOp::Remove(id) => *id,
            };
            holders.clear();
            match where_is.get(&id) {
                Some(loc) => holders.extend(*loc),
                None if replay => {
                    holders.extend((0..nshards).filter(|&s| shard_snaps[s].contains_id(id)))
                }
                None => holders.extend(shard_snaps.iter().position(|s| s.contains_id(id))),
            }
            let old = holders.first().copied();
            visible_before.push(old.is_some());
            match op {
                WriteOp::Upsert(p) => {
                    let target = self.map.shard_of(p);
                    // Retract the id from every holder but an unmoved one:
                    // a cross-shard move removes from the old shard in the
                    // same publish.
                    let keep = old.filter(|&o| o == target);
                    for &h in &holders {
                        if Some(h) != keep {
                            sub[h].push(WriteOp::Remove(id));
                        }
                    }
                    primary.push(Some((target, sub[target].len())));
                    sub[target].push(*op);
                    where_is.insert(id, Some(target));
                }
                WriteOp::Remove(_) => {
                    primary.push(old.map(|o| (o, sub[o].len())));
                    for &h in &holders {
                        sub[h].push(*op);
                    }
                    where_is.insert(id, None);
                }
            }
        }

        // Apply the sub-batches under the affected shards' writer locks
        // (ascending order), holding them through the publish.
        struct Applied<'a> {
            /// Held (not read) through the publish so no other batch or
            /// compaction can slip between apply and swap on this shard.
            _writer: std::sync::MutexGuard<'a, Vec<WriteOp>>,
            snapshot: Arc<ShardSnapshot>,
            changed: Vec<bool>,
        }
        let mut applied: Vec<Option<Applied<'_>>> = Vec::with_capacity(nshards);
        for (s, batch) in sub.iter().enumerate() {
            if batch.is_empty() {
                applied.push(None);
                continue;
            }
            let state = &self.shards[s];
            let mut writer = state.writer.lock().unwrap_or_else(PoisonError::into_inner);
            let cur = state.snapshot();
            let (snapshot, outcome) = cur.apply_batch(batch, cur.version() + 1);
            // Only ops that changed the visible set enter the log:
            // ineffective ops would replay as no-ops anyway, and skipping
            // them keeps the log proportional to real work.
            for (op, changed) in batch.iter().zip(&outcome.changed) {
                if *changed {
                    writer.push(*op);
                }
            }
            // A delta that cancelled back to empty makes the shard equal its
            // base: the log has nothing a compaction would need to replay,
            // so drop it — unless a rebuild of this shard is in flight,
            // whose captured log position must stay valid until its publish
            // trims the log itself.
            if snapshot.delta().is_empty() && !state.compacting.load(Ordering::Acquire) {
                writer.clear();
            }
            applied.push(Some(Applied {
                _writer: writer,
                snapshot: Arc::new(snapshot),
                changed: outcome.changed,
            }));
        }

        let changed: Vec<bool> = primary
            .iter()
            .map(|slot| match slot {
                Some((s, i)) => applied[*s].as_ref().map(|a| a.changed[*i]).unwrap_or(false),
                None => false,
            })
            .collect();
        let effective = changed.iter().filter(|c| **c).count();

        // Log the batch — the ORIGINAL ops, so a cross-shard Remove+Upsert
        // pair is one atomic record — while every touched shard's writer
        // lock is still held (see the module doc's ordering argument).
        // Replay never re-appends, and a batch that touched no shard
        // (ineffective removes only) replays as a no-op, so skip it.
        if !replay && applied.iter().any(Option::is_some) {
            if let Some(d) = &self.durability {
                d.append_batch(ops)
                    .expect("WAL append failed; cannot publish an unlogged batch");
            }
        }

        // Publish: swap the affected shard pointers and the recomposed
        // relation snapshot as one step, then release the writer locks.
        let version = {
            let _compose = self
                .compose_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for (s, slot) in applied.iter().enumerate() {
                if let Some(a) = slot {
                    *self.shards[s]
                        .current
                        .write()
                        .unwrap_or_else(PoisonError::into_inner) = Arc::clone(&a.snapshot);
                }
            }
            self.recompose_locked()
        };
        drop(applied);

        IngestReceipt {
            effective,
            version,
            changed,
            visible_before,
            prev,
        }
    }

    /// The shards whose delta has outgrown the compaction threshold and have
    /// no rebuild in flight, in shard order.
    pub(crate) fn shards_needing_compaction(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&s| {
                let state = &self.shards[s];
                !state.compacting.load(Ordering::Acquire)
                    && state.snapshot().delta_len() >= self.compaction_threshold
            })
            .collect()
    }

    /// Whether any shard currently wants a background rebuild.
    #[cfg(test)]
    pub(crate) fn needs_compaction(&self) -> bool {
        !self.shards_needing_compaction().is_empty()
    }

    /// Attempts to claim shard `s`'s in-flight compaction slot. Returns
    /// `false` if another rebuild of this shard already holds it.
    pub(crate) fn begin_shard_compaction(&self, s: usize) -> bool {
        !self.shards[s].compacting.swap(true, Ordering::AcqRel)
    }

    /// Releases shard `s`'s compaction slot (publish finished or rebuild
    /// failed).
    pub(crate) fn end_shard_compaction(&self, s: usize) {
        self.shards[s].compacting.store(false, Ordering::Release);
    }

    /// Captures shard `s`'s rebuild source under its writer lock: the shard
    /// snapshot to merge, the log length it corresponds to, and the WAL
    /// sequence number the rebuilt base will cover. Reading the WAL head
    /// under the shard's writer lock makes the coverage claim race-free:
    /// every logged record that touches this shard is already applied to
    /// the captured snapshot (batches append mid-publish, holding this
    /// lock). Records touching only *other* shards may over-count — their
    /// coverage claim for this shard is vacuously true.
    pub(crate) fn capture_shard_for_compaction(
        &self,
        s: usize,
    ) -> (Arc<ShardSnapshot>, usize, u64) {
        let state = &self.shards[s];
        let writer = state.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let covered_seq = self.durability.as_ref().map_or(0, |d| d.last_seq());
        (state.snapshot(), writer.len(), covered_seq)
    }

    /// Publishes a rebuilt base for shard `s`: replays the shard ops
    /// ingested since the capture onto the new base, swaps the shard and the
    /// recomposed relation snapshot in, and trims the shard log to the
    /// replayed tail. Returns the published composed version.
    pub(crate) fn publish_shard_compacted(
        &self,
        s: usize,
        base: BaseIndex,
        captured_len: usize,
    ) -> u64 {
        let state = &self.shards[s];
        let mut writer = state.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let cur = state.snapshot();
        let clean = ShardSnapshot::clean(base, cur.version() + 1, self.overlay);
        let tail = writer.split_off(captured_len);
        *writer = tail;
        let snapshot = if writer.is_empty() {
            clean
        } else {
            let mut delta = Delta::with_config(self.overlay);
            for op in writer.iter() {
                delta.apply(op, |id| clean.base_ids().get().contains_key(&id));
            }
            let version = clean.version();
            clean.with_delta(delta, version)
        };
        let _compose = self
            .compose_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *state
            .current
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Arc::new(snapshot);
        self.recompose_locked()
    }

    /// Runs one full compaction cycle of shard `s` **synchronously on the
    /// calling thread**: capture → merge → rebuild → publish. Returns `None`
    /// without doing work when another rebuild of this shard holds the
    /// in-flight slot or the shard's delta is empty; otherwise the published
    /// composed version.
    ///
    /// `gather` turns the captured shard snapshot into the merged point set
    /// — the background path supplies a pool-sharded gatherer, tests can
    /// pass [`ShardSnapshot::merged_points`].
    pub(crate) fn compact_shard_with(
        &self,
        s: usize,
        gather: impl FnOnce(&ShardSnapshot) -> Vec<Point>,
        metrics: &Mutex<Metrics>,
    ) -> Option<u64> {
        if !self.begin_shard_compaction(s) {
            return None;
        }
        // Release the slot on every exit path, including panics in the
        // index build (run_job would otherwise leave the shard permanently
        // uncompactable).
        struct Slot<'a>(&'a VersionedRelation, usize);
        impl Drop for Slot<'_> {
            fn drop(&mut self) {
                self.0.end_shard_compaction(self.1);
            }
        }
        let _slot = Slot(self, s);

        let (source, captured_len, covered_seq) = self.capture_shard_for_compaction(s);
        if source.delta().is_empty() {
            return None;
        }
        let points = gather(&source);
        let gathered = points.len() as u64;
        let base = self.config.build(points, source.base().bounds());
        // Persist the rebuilt base *before* the in-memory publish and
        // outside all locks. The block file's contents equal the captured
        // visible set — exactly the WAL prefix up to `covered_seq` as it
        // affects this shard — regardless of when the publish lands. A
        // failed persist keeps the manifest on the previous generation
        // (whose smaller covered_seq keeps the WAL suffix long enough), so
        // durability degrades to slower recovery, never to data loss.
        if let Some(d) = &self.durability {
            if let Err(e) = d.persist_shard(s, base.as_ref(), covered_seq) {
                eprintln!(
                    "two-knn: failed to persist shard {s} of `{}`: {e} \
                     (recovery will replay the WAL instead)",
                    self.name
                );
            }
        }
        let version = self.publish_shard_compacted(s, base, captured_len);
        let mut m = metrics.lock().unwrap_or_else(PoisonError::into_inner);
        m.compactions += 1;
        m.shards_compacted += 1;
        m.points_scanned += gathered;
        Some(version)
    }

    /// Checkpoints the relation: folds (and thereby persists) every dirty
    /// shard, advances clean shards' covered sequence to the WAL head, and
    /// trims WAL segments no shard needs anymore. No-op without durability.
    ///
    /// The clean-shard bump is sound because under the shard's writer lock,
    /// an empty delta **and** empty writer log mean the shard's visible set
    /// *is* its in-memory base, which (unless marked stale by a failed
    /// persist — checked by `bump_covered`) is byte-for-byte the manifest's
    /// block file; every logged record that touches the shard is reflected
    /// in that visible set.
    pub(crate) fn checkpoint(
        &self,
        pool: &WorkerPool,
        metrics: &Mutex<Metrics>,
        obs: &crate::obs::Observability,
    ) {
        let Some(d) = &self.durability else { return };
        let _ = super::compact::compact_relation(self, pool, metrics, obs);
        let head = d.last_seq();
        for (s, state) in self.shards.iter().enumerate() {
            let writer = state.writer.lock().unwrap_or_else(PoisonError::into_inner);
            if writer.is_empty() && state.snapshot().delta().is_empty() {
                d.bump_covered(s, head);
            }
        }
        if let Err(e) = d.sync_manifest_and_trim() {
            eprintln!(
                "two-knn: checkpoint of `{}` could not rewrite its manifest: {e} \
                 (WAL segments are kept; recovery stays correct)",
                self.name
            );
        }
    }
}

impl std::fmt::Debug for VersionedRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedRelation")
            .field("name", &self.name)
            .field("version", &self.load().version())
            .field("num_shards", &self.shards.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoknn_index::{check_index_invariants, GridIndex, SpatialIndex};

    fn points(n: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(0x2545F4914F6CDD1D);
                Point::new(i, (h % 631) as f64 * 0.17, ((h / 631) % 631) as f64 * 0.17)
            })
            .collect()
    }

    fn relation_sharded(threshold: usize, shards_per_axis: usize) -> VersionedRelation {
        let base: BaseIndex = Arc::new(GridIndex::build(points(200), 5).unwrap());
        VersionedRelation::new(
            "R".into(),
            base,
            IndexConfig::Grid { cells_per_axis: 5 },
            threshold,
            OverlayConfig::default(),
            ShardConfig::per_axis(shards_per_axis),
            None,
        )
    }

    fn relation(threshold: usize) -> VersionedRelation {
        relation_sharded(threshold, 1)
    }

    fn log_len(rel: &VersionedRelation) -> usize {
        rel.shards
            .iter()
            .map(|s| s.writer.lock().unwrap().len())
            .sum()
    }

    #[test]
    fn ingest_batches_are_atomic_and_versioned() {
        let rel = relation(1_000);
        let before = rel.load();
        let (effective, v1) = rel.ingest(&[
            WriteOp::Upsert(Point::new(900, 1.0, 1.0)),
            WriteOp::Remove(3),
            WriteOp::Remove(9_999), // not present: ineffective
        ]);
        assert_eq!(effective, 2);
        assert_eq!(v1, 1);
        // The pinned pre-ingest snapshot is untouched.
        assert_eq!(before.version(), 0);
        assert_eq!(before.num_points(), 200);
        assert!(!before.contains_id(900));
        let after = rel.load();
        assert_eq!(after.version(), 1);
        assert_eq!(after.num_points(), 200);
        assert!(after.contains_id(900));
        assert!(!after.contains_id(3));
    }

    #[test]
    fn write_log_stays_proportional_to_the_delta() {
        let rel = relation(1_000_000); // never compacts on its own
                                       // Ineffective ops (removes of absent ids) must not grow the log.
        for _ in 0..100 {
            rel.ingest(&[WriteOp::Remove(555_555)]);
        }
        assert_eq!(log_len(&rel), 0, "no-op writes must not be logged");
        // A delta that cancels back to empty clears the log: an
        // upsert/remove cycle of a fresh id leaves nothing to replay.
        for round in 0..50 {
            rel.ingest(&[WriteOp::Upsert(Point::new(777, 1.0, 1.0))]);
            rel.ingest(&[WriteOp::Remove(777)]);
            assert!(
                log_len(&rel) <= 2,
                "log grew to {} after {round} cancelling cycles",
                log_len(&rel)
            );
        }
        assert_eq!(rel.load().delta_len(), 0);
        assert_eq!(log_len(&rel), 0);
        // visible_before is exact, including within one batch.
        let receipt = rel.ingest_with_receipt(&[
            WriteOp::Upsert(Point::new(888, 2.0, 2.0)), // fresh id
            WriteOp::Upsert(Point::new(888, 3.0, 3.0)), // now visible
            WriteOp::Remove(888),
            WriteOp::Upsert(Point::new(0, 4.0, 4.0)), // base id: visible
        ]);
        assert_eq!(receipt.visible_before, vec![false, true, true, true]);
        assert_eq!(receipt.changed.len(), 4);
        assert_eq!(receipt.prev.version() + 1, receipt.version);
    }

    #[test]
    fn compaction_folds_the_delta_into_a_fresh_base() {
        let rel = relation(4);
        rel.ingest(&[
            WriteOp::Upsert(Point::new(900, 1.0, 1.0)),
            WriteOp::Upsert(Point::new(901, 2.0, 2.0)),
            WriteOp::Remove(0),
        ]);
        assert!(!rel.needs_compaction(), "threshold is 4, delta is 3");
        rel.ingest(&[WriteOp::Remove(1)]);
        assert!(rel.needs_compaction());
        assert_eq!(rel.shards_needing_compaction(), vec![0]);

        let metrics = Mutex::new(Metrics::default());
        let version = rel
            .compact_shard_with(0, |s| s.merged_points(), &metrics)
            .expect("compaction must run");
        let snap = rel.load();
        assert_eq!(snap.version(), version);
        assert_eq!(snap.delta_len(), 0, "delta folded into the base");
        assert_eq!(snap.num_points(), 200);
        assert!(snap.contains_id(900) && !snap.contains_id(0));
        check_index_invariants(&*snap).unwrap();
        let m = metrics.lock().unwrap();
        assert_eq!(m.compactions, 1, "epoch counter advanced");
        assert_eq!(m.shards_compacted, 1);
        assert!(!rel.needs_compaction());
    }

    #[test]
    fn writes_during_compaction_survive_the_publish() {
        let rel = relation(1);
        rel.ingest(&[WriteOp::Upsert(Point::new(500, 3.0, 3.0))]);
        // Simulate a concurrent write landing between capture and publish:
        // capture first, ingest, then finish the rebuild from the capture.
        assert!(rel.begin_shard_compaction(0));
        let (source, captured_len, _covered) = rel.capture_shard_for_compaction(0);
        rel.ingest(&[
            WriteOp::Upsert(Point::new(501, 4.0, 4.0)),
            WriteOp::Remove(7),
        ]);
        let base = rel
            .config()
            .build(source.merged_points(), source.base().bounds());
        rel.publish_shard_compacted(0, base, captured_len);
        rel.end_shard_compaction(0);

        let snap = rel.load();
        assert!(snap.contains_id(500), "compacted write present in the base");
        assert!(snap.contains_id(501), "concurrent write replayed on top");
        assert!(!snap.contains_id(7), "concurrent remove replayed on top");
        assert_eq!(snap.delta_len(), 2, "only the replayed tail remains");
        check_index_invariants(&*snap).unwrap();
    }

    #[test]
    fn compaction_slot_is_exclusive() {
        let rel = relation(1);
        rel.ingest(&[WriteOp::Remove(0)]);
        assert!(rel.begin_shard_compaction(0));
        let metrics = Mutex::new(Metrics::default());
        assert_eq!(
            rel.compact_shard_with(0, |s| s.merged_points(), &metrics),
            None,
            "second compaction must refuse while one is in flight"
        );
        rel.end_shard_compaction(0);
        assert!(rel
            .compact_shard_with(0, |s| s.merged_points(), &metrics)
            .is_some());
    }

    #[test]
    fn sharded_relation_routes_and_stays_equivalent() {
        let sharded = relation_sharded(1_000_000, 3);
        let flat = relation(1_000_000);
        assert_eq!(sharded.num_shards(), 9);
        let snap = sharded.load();
        assert_eq!(snap.num_points(), 200);
        snap.check_overlay_invariants().unwrap();

        // The same mixed batch lands identically in both layouts.
        let batch = vec![
            WriteOp::Upsert(Point::new(900, 1.0, 1.0)),
            WriteOp::Upsert(Point::new(901, 100.0, 100.0)),
            WriteOp::Remove(3),
            WriteOp::Remove(9_999),
            WriteOp::Upsert(Point::new(5, 105.0, 2.0)), // moves a base point
        ];
        let rs = sharded.ingest_with_receipt(&batch);
        let rf = flat.ingest_with_receipt(&batch);
        assert_eq!(rs.effective, rf.effective);
        assert_eq!(rs.changed, rf.changed);
        assert_eq!(rs.visible_before, rf.visible_before);

        let (s, f) = (sharded.load(), flat.load());
        assert_eq!(s.num_points(), f.num_points());
        s.check_overlay_invariants().unwrap();
        let mut sp = s.merged_points();
        let mut fp = f.merged_points();
        sp.sort_by_key(|p| p.id);
        fp.sort_by_key(|p| p.id);
        assert_eq!(sp, fp);
    }

    #[test]
    fn cross_shard_move_is_atomic() {
        let rel = relation_sharded(1_000_000, 2);
        let snap = rel.load();
        // Pick a base point and move it to the far corner (another shard).
        let victim = snap.position_of(0).expect("base id 0 exists");
        let old_shard = snap.shard_map().shard_of(&victim);
        let moved = Point::new(0, 105.0, 105.0);
        let new_shard = snap.shard_map().shard_of(&moved);
        assert_ne!(old_shard, new_shard, "test point must cross shards");

        let (effective, _) = rel.ingest(&[WriteOp::Upsert(moved)]);
        assert_eq!(effective, 1);
        let after = rel.load();
        assert_eq!(after.num_points(), 200, "a move never duplicates");
        assert_eq!(after.position_of(0), Some(moved));
        after.check_overlay_invariants().unwrap();

        // Moving it back also works (and in-batch double moves settle on
        // the final position).
        rel.ingest(&[
            WriteOp::Upsert(Point::new(0, 105.0, 2.0)),
            WriteOp::Upsert(victim),
        ]);
        let back = rel.load();
        assert_eq!(back.num_points(), 200);
        assert_eq!(back.position_of(0), Some(victim));
        back.check_overlay_invariants().unwrap();
    }

    #[test]
    fn per_shard_compaction_leaves_other_shards_untouched() {
        let rel = relation_sharded(4, 2);
        // Burst confined to the first shard's region (near the origin).
        let burst: Vec<WriteOp> = (0..8u64)
            .map(|i| WriteOp::Upsert(Point::new(1_000 + i, 1.0 + i as f64 * 0.1, 1.0)))
            .collect();
        rel.ingest(&burst);
        let dirty = rel.shards_needing_compaction();
        assert_eq!(dirty.len(), 1, "burst must land in exactly one shard");
        let dirty_shard = dirty[0];
        let before: Vec<u64> = rel.shards.iter().map(|s| s.snapshot().version()).collect();

        let metrics = Mutex::new(Metrics::default());
        rel.compact_shard_with(dirty_shard, |s| s.merged_points(), &metrics)
            .expect("dirty shard compacts");
        for (s, state) in rel.shards.iter().enumerate() {
            if s == dirty_shard {
                assert_eq!(state.snapshot().delta_len(), 0);
                assert!(state.snapshot().version() > before[s]);
            } else {
                assert_eq!(
                    state.snapshot().version(),
                    before[s],
                    "untouched shard must keep its snapshot"
                );
            }
        }
        let m = metrics.lock().unwrap();
        assert_eq!((m.compactions, m.shards_compacted), (1, 1));
        assert_eq!(
            m.points_scanned,
            rel.shards[dirty_shard].snapshot().num_points() as u64,
            "rebuild gathered only the dirty shard's points"
        );
        rel.load().check_overlay_invariants().unwrap();
    }
}
