//! Immutable shard snapshots: a base index plus a materialized delta
//! overlay, presented through the ordinary [`SpatialIndex`] trait.
//!
//! A [`ShardSnapshot`] is the per-shard storage unit of a relation: each
//! spatial shard of a [`super::RelationSnapshot`] is one `ShardSnapshot`
//! (an unsharded relation is simply one shard covering the whole extent).
//! It is immutable — ingest and compaction never mutate a published
//! snapshot, they build a *new* one and atomically swap the shard's current
//! pointer — so a query (or a whole batch) that pinned a composed snapshot
//! keeps a frozen, consistent view no matter what writers do concurrently.
//!
//! The overlay is folded into the block structure the trait exposes:
//!
//! * every **base block** keeps its id and footprint; blocks containing
//!   tombstoned points expose a filtered copy of their point list (the
//!   filtered copies are built once, when the snapshot is created — reads
//!   are plain slice borrows, and a shard without tombstones skips the
//!   lookup altogether);
//! * the **inserted points** live in the delta's [`OverlayGrid`]: each
//!   occupied grid cell becomes one extra overlay block appended after the
//!   base blocks, with the **tight bounding box of the cell's points** as
//!   its footprint. A small delta degenerates to a single overlay block;
//!   a write burst is partitioned so MINDIST pruning and Block-Marking keep
//!   working instead of degrading toward a scan of the whole burst.
//!
//! Block ids therefore stay dense, counts stay consistent, and every
//! algorithm of the paper runs unmodified on a delta-bearing relation —
//! [`twoknn_index::check_index_invariants`] holds for any snapshot, and
//! [`ShardSnapshot::check_overlay_invariants`] additionally pins the
//! overlay-specific guarantees (exact per-cell counts/MBRs, tombstones
//! filtered everywhere, inserts locatable in O(cell)).
//!
//! A write batch reaches a shard through [`ShardSnapshot::apply_batch`]:
//! [`Delta::apply_batch`] merges the batch into the delta, reporting the
//! ids it newly tombstoned, and only the base blocks holding those ids get a
//! new filtered copy — one column-wise pass each, from the block's previous
//! filtered copy. Every other filtered copy and overlay cell is `Arc`-shared
//! with the predecessor, so a batch costs what it touches, not what the
//! shard holds. The id → block map and the tombstoned-block map are
//! [`IdMap`]s (integer hasher, not SipHash).
//!
//! Because a snapshot is immutable, its optimizer statistics are immutable
//! too: [`ShardSnapshot::profile`] memoizes the
//! [`RelationProfile`](crate::plan::RelationProfile) on first use; the
//! composed relation snapshot merges the per-shard state lazily the same
//! way, so a batch of queries planned against one snapshot profiles each
//! relation once, not once per query.

use std::sync::{Arc, OnceLock};

use twoknn_geometry::{IdMap, Point, PointId, Rect};
use twoknn_index::{BlockId, BlockMeta, BlockPoints, PointBlock, SpatialIndex};

use crate::plan::stats::RelationProfile;

use super::delta::{Delta, WriteOp};
use super::overlay::OverlayConfig;

/// A shared, immutable base index.
pub type BaseIndex = Arc<dyn SpatialIndex + Send + Sync>;

/// Maps every base point id to the block storing it, so ingest can
/// tombstone by id in O(affected block) instead of scanning the index.
///
/// The map is built **lazily** on first use (write paths and id lookups)
/// and shared by all snapshots over the same base. Laziness matters for
/// recovered relations, whose bases are lazily decoded
/// [`BlockFileIndex`](super::blockfile::BlockFileIndex)es: a read-only
/// workload after a restart never touches the map, so it never forces every
/// block's columns to decode.
pub(crate) struct BaseIds {
    base: BaseIndex,
    map: OnceLock<IdMap<BlockId>>,
}

impl BaseIds {
    pub(crate) fn new(base: &BaseIndex) -> Arc<Self> {
        Arc::new(Self {
            base: Arc::clone(base),
            map: OnceLock::new(),
        })
    }

    /// The id → block map, built on first call (one O(n) scan of the base).
    pub(crate) fn get(&self) -> &IdMap<BlockId> {
        self.map.get_or_init(|| index_ids(self.base.as_ref()))
    }
}

/// A shared [`BaseIds`] — one per base index, shared by its snapshots.
pub(crate) type BaseIdMap = Arc<BaseIds>;

/// Builds the id → block map of a base index.
pub(crate) fn index_ids(base: &dyn SpatialIndex) -> IdMap<BlockId> {
    let mut ids = IdMap::with_capacity_and_hasher(base.num_points(), Default::default());
    for block in base.blocks() {
        for &id in base.block_points(block.id).ids() {
            ids.insert(id, block.id);
        }
    }
    ids
}

/// Gives every base block holding one of the newly tombstoned `fresh` ids a
/// new filtered copy in `tombstoned`: each such block is re-filtered once,
/// from its previous filtered copy when it has one (the older tombstones
/// are already gone from it) or else from the base.
fn refilter(
    base: &dyn SpatialIndex,
    ids: &IdMap<BlockId>,
    tombstoned: &mut IdMap<Arc<PointBlock>, BlockId>,
    fresh: &[PointId],
) {
    let mut by_block: Vec<(BlockId, PointId)> = fresh
        .iter()
        .map(|id| {
            let block = *ids
                .get(id)
                .expect("delta tombstones only reference ids stored in the base");
            (block, *id)
        })
        .collect();
    by_block.sort_unstable();
    let mut rest = &by_block[..];
    while let Some(&(block, _)) = rest.first() {
        let (gone, tail) = rest.split_at(rest.partition_point(|&(of, _)| of == block));
        rest = tail;
        let source = match tombstoned.get(&block) {
            Some(filtered) => filtered.view(),
            None => base.block_points(block),
        };
        // `gone` is sorted by id: a binary search per row.
        let kept = source.without_ids(|id| gone.binary_search_by_key(&id, |&(_, g)| g).is_ok());
        tombstoned.insert(block, Arc::new(kept));
    }
}

/// An immutable versioned view of a relation: base index + delta overlay.
///
/// Implements [`SpatialIndex`], so every query algorithm (and
/// [`RelationProfile`](crate::plan::RelationProfile)) consumes it exactly
/// like a plain index.
pub struct ShardSnapshot {
    base: BaseIndex,
    base_ids: BaseIdMap,
    delta: Delta,
    /// Base blocks with tombstone-adjusted counts, plus one overlay block
    /// per occupied overlay-grid cell starting at id `base.num_blocks()`.
    blocks: Vec<BlockMeta>,
    /// Overlay-block ordinal → overlay-grid cell index, ascending. Maps the
    /// dense block ids the trait exposes back to the grid cells that store
    /// the points.
    overlay_cells: Vec<usize>,
    /// Filtered point lists (SoA blocks) of the base blocks that lost points
    /// to tombstones. `Arc`'d so successive snapshots share the lists of
    /// blocks an ingest batch did not touch.
    tombstoned: IdMap<Arc<PointBlock>, BlockId>,
    bounds: Rect,
    num_points: usize,
    version: u64,
    /// Memoized optimizer statistics — computed at most once per published
    /// version, shared by every query planned against this snapshot.
    profile: OnceLock<RelationProfile>,
}

impl ShardSnapshot {
    /// Wraps a freshly built base index with an empty overlay.
    pub(crate) fn clean(base: BaseIndex, version: u64, overlay: OverlayConfig) -> Self {
        let base_ids = BaseIds::new(&base);
        Self::finish(
            base,
            base_ids,
            Delta::with_config(overlay),
            IdMap::default(),
            version,
        )
    }

    /// Applies one ingest batch through [`Delta::apply_batch`], producing
    /// the successor snapshot plus, per op, whether it changed the visible
    /// point set. (Per-op *prior visibility* is resolved one level up,
    /// during shard routing, where a batch's ops may span shards.)
    ///
    /// The cost is proportional to the batch: one merge of the delta's
    /// sorted vectors, and a new filtered copy only of the base blocks that
    /// gained a tombstone **in this batch** (each re-filtered once, from its
    /// previous filtered copy). All other filtered lists are shared with
    /// `self` — tombstones never disappear between compactions, so stale
    /// sharing is impossible.
    pub(crate) fn apply_batch(&self, ops: &[WriteOp], version: u64) -> (Self, Vec<bool>) {
        let ids = self.base_ids.get();
        let applied = self.delta.apply_batch(ops, |id| ids.contains_key(&id));
        let mut tombstoned = self.tombstoned.clone();
        refilter(
            self.base.as_ref(),
            ids,
            &mut tombstoned,
            &applied.tombstoned,
        );
        let snapshot = Self::finish(
            Arc::clone(&self.base),
            Arc::clone(&self.base_ids),
            applied.delta,
            tombstoned,
            version,
        );
        (snapshot, applied.changed)
    }

    fn finish(
        base: BaseIndex,
        base_ids: BaseIdMap,
        delta: Delta,
        tombstoned: IdMap<Arc<PointBlock>, BlockId>,
        version: u64,
    ) -> Self {
        let mut blocks: Vec<BlockMeta> = base.blocks().to_vec();
        for (&block, filtered) in &tombstoned {
            blocks[block as usize] =
                BlockMeta::new(block, blocks[block as usize].mbr, filtered.len());
        }
        // One overlay block per occupied grid cell, each with the tight
        // bounding box of the points actually in the cell — far-away cells
        // prune under MINDIST exactly like base blocks. Assembling the metas
        // is O(cells); the cell contents themselves are Arc-shared with the
        // previous snapshot except where the batch dirtied them.
        let mut bounds = base.bounds();
        let mut overlay_cells = Vec::new();
        for (cell, mbr, points) in delta.grid().occupied() {
            blocks.push(BlockMeta::new(blocks.len() as BlockId, mbr, points.len()));
            overlay_cells.push(cell);
            bounds = bounds.union(&mbr);
        }
        let num_points = base.num_points() - delta.deletes().len() + delta.inserts().len();
        let snapshot = Self {
            base,
            base_ids,
            delta,
            blocks,
            overlay_cells,
            tombstoned,
            bounds,
            num_points,
            version,
            profile: OnceLock::new(),
        };
        debug_assert_eq!(snapshot.check_overlay_invariants(), Ok(()));
        snapshot
    }

    /// The snapshot's version: strictly increasing across a relation's
    /// publishes (ingest batches and compactions alike).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The delta overlay this snapshot carries on top of its base.
    pub fn delta(&self) -> &Delta {
        &self.delta
    }

    /// Number of overlay entries (inserts + deletes) — what the compaction
    /// threshold compares against.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// The shared base index.
    pub fn base(&self) -> &BaseIndex {
        &self.base
    }

    /// Whether a point with `id` is visible in this snapshot.
    pub fn contains_id(&self, id: PointId) -> bool {
        self.delta.inserted(id).is_some()
            || (self.base_ids.get().contains_key(&id) && !self.delta.is_deleted(id))
    }

    /// The visible position of the point with `id`, if any — an O(block)
    /// lookup (overlay inserts by binary search, base points via the
    /// id → block map). The continuous-query maintainer uses this on the
    /// pre-ingest snapshot to recover the *old* position of moved or
    /// removed points for guard probing.
    pub fn position_of(&self, id: PointId) -> Option<Point> {
        if let Some(p) = self.delta.inserted(id) {
            return Some(*p);
        }
        if self.delta.is_deleted(id) {
            return None;
        }
        let block = *self.base_ids.get().get(&id)?;
        self.base.block_points(block).iter().find(|p| p.id == id)
    }

    /// Number of overlay blocks (occupied overlay-grid cells) this snapshot
    /// exposes after its base blocks.
    pub fn overlay_block_count(&self) -> usize {
        self.overlay_cells.len()
    }

    /// The memoized optimizer statistics of this snapshot, computed on
    /// first use. Snapshots are immutable, so the profile of a published
    /// version never changes — `execute_batch` plans every query of a batch
    /// against one profile computation per relation instead of recomputing
    /// `O(num_blocks)` statistics per query.
    pub fn profile(&self) -> RelationProfile {
        *self.profile.get_or_init(|| RelationProfile::compute(self))
    }

    /// All currently visible points: filtered base points plus inserts.
    /// Mostly for tests and the serial compaction path; the background
    /// rebuild gathers points block-parallel instead.
    pub fn merged_points(&self) -> Vec<Point> {
        self.all_points()
    }

    /// Checks the overlay-specific structural invariants on top of
    /// [`twoknn_index::check_index_invariants`]:
    ///
    /// * every overlay block's count and MBR reflect its grid cell's
    ///   tombstone-free contents **exactly** (the MBR is the tight bounding
    ///   box, not a stale or padded footprint);
    /// * every delta insert is bucketed in exactly one overlay block and is
    ///   locatable through [`SpatialIndex::locate`];
    /// * no tombstoned id is visible in any block (base or overlay);
    /// * the visible point count adds up.
    pub fn check_overlay_invariants(&self) -> Result<(), String> {
        twoknn_index::check_index_invariants(self)?;
        let base_blocks = self.base.num_blocks();
        let mut bucketed = 0usize;
        for (ordinal, &cell) in self.overlay_cells.iter().enumerate() {
            let meta = self.blocks[base_blocks + ordinal];
            let points = self.delta.grid().cell_points(cell);
            if points.is_empty() {
                return Err(format!("overlay block {} maps to an empty cell", meta.id));
            }
            if meta.count != points.len() {
                return Err(format!(
                    "overlay block {} count {} != cell contents {}",
                    meta.id,
                    meta.count,
                    points.len()
                ));
            }
            let tight = points.bounding().expect("cell is non-empty");
            if meta.mbr != tight {
                return Err(format!(
                    "overlay block {} MBR {} is not the tight bounding box {tight}",
                    meta.id, meta.mbr
                ));
            }
            for p in points {
                if self.delta.inserted(p.id) != Some(&p) {
                    return Err(format!(
                        "overlay block {} holds {p}, which drifted from the delta's inserts",
                        meta.id
                    ));
                }
            }
            bucketed += points.len();
        }
        if bucketed != self.delta.inserts().len() {
            return Err(format!(
                "overlay blocks hold {bucketed} points, delta has {} inserts",
                self.delta.inserts().len()
            ));
        }
        for block in 0..base_blocks {
            for p in self.block_points(block as BlockId) {
                if self.delta.is_deleted(p.id) {
                    return Err(format!(
                        "tombstoned point {p} visible in base block {block}"
                    ));
                }
            }
        }
        for p in self.delta.inserts() {
            match self.locate(p) {
                Some(at) if (at as usize) >= base_blocks => {
                    if !self.block_points(at).iter().any(|q| q.id == p.id) {
                        return Err(format!("insert {p} locates to block {at} not storing it"));
                    }
                }
                other => {
                    return Err(format!(
                        "insert {p} must locate to its overlay block, got {other:?}"
                    ))
                }
            }
        }
        Ok(())
    }
}

impl SpatialIndex for ShardSnapshot {
    fn bounds(&self) -> Rect {
        self.bounds
    }

    fn num_points(&self) -> usize {
        self.num_points
    }

    fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    fn block_points(&self, id: BlockId) -> BlockPoints<'_> {
        if let Some(ordinal) = (id as usize).checked_sub(self.base.num_blocks()) {
            return self.delta.grid().cell_points(self.overlay_cells[ordinal]);
        }
        // Most shards carry no tombstones; skip the probe for them.
        if !self.tombstoned.is_empty() {
            if let Some(filtered) = self.tombstoned.get(&id) {
                return filtered.view();
            }
        }
        self.base.block_points(id)
    }

    fn locate(&self, p: &Point) -> Option<BlockId> {
        // Prefer the block that actually stores a point at these coordinates
        // (the trait's contract for overlapping footprints): results that
        // came from inserted points must locate to their overlay block so
        // that block-marking algorithms mark it as a Candidate. The grid
        // routes the check to the single cell `p`'s coordinates bucket into,
        // so this is O(cell), not O(inserts).
        if let Some(cell) = self.delta.grid().find_at(p) {
            let ordinal = self
                .overlay_cells
                .binary_search(&cell)
                .expect("a cell storing points has an overlay block");
            return Some((self.base.num_blocks() + ordinal) as BlockId);
        }
        if let Some(block) = self.base.locate(p) {
            return Some(block);
        }
        // Points outside the base bounds can still fall inside an overlay
        // block's footprint (overlay blocks only exist for occupied cells,
        // so this scan is bounded by the grid's occupied-cell count).
        self.blocks[self.base.num_blocks()..]
            .iter()
            .find(|meta| meta.mbr.contains(p))
            .map(|meta| meta.id)
    }
}

impl std::fmt::Debug for ShardSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSnapshot")
            .field("version", &self.version)
            .field("num_points", &self.num_points)
            .field("delta_len", &self.delta.len())
            .field("num_blocks", &self.blocks.len())
            .finish_non_exhaustive()
    }
}

/// How to rebuild a relation's base index at compaction time.
///
/// Compaction replaces the base wholesale, so the store must know the index
/// *family and granularity* to rebuild into. The three built-in families are
/// covered; [`StoredIndex`] infers the config automatically when registering
/// one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexConfig {
    /// Rebuild as a [`twoknn_index::GridIndex`] with `cells_per_axis` cells
    /// along each axis.
    Grid {
        /// Cells along each axis (clamped to ≥ 1 when building).
        cells_per_axis: usize,
    },
    /// Rebuild as a [`twoknn_index::QuadtreeIndex`] with the given leaf
    /// capacity and subdivision depth limit.
    Quadtree {
        /// Leaf split threshold (clamped to ≥ 1 when building).
        capacity: usize,
        /// Maximum subdivision depth
        /// ([`twoknn_index::DEFAULT_MAX_DEPTH`] reproduces
        /// [`twoknn_index::QuadtreeIndex::build`]).
        max_depth: usize,
    },
    /// Rebuild as a [`twoknn_index::StrRTree`] with the given leaf capacity.
    RTree {
        /// Points per leaf (clamped to ≥ 1 when building).
        leaf_capacity: usize,
    },
}

impl IndexConfig {
    /// Builds a fresh base index of this family over `points`.
    ///
    /// `bounds_hint` (the previous base's extent) keeps the space
    /// decomposition meaningful when `points` is empty or degenerate. An
    /// empty R-tree cannot be represented ([`twoknn_index::StrRTree`]
    /// requires points), so that corner case falls back to a single-cell
    /// grid over the hint bounds — the family is restored by the next
    /// compaction once the relation has points again.
    pub fn build(&self, points: Vec<Point>, bounds_hint: Rect) -> BaseIndex {
        let bounds = bounds_for(&points, bounds_hint);
        match *self {
            IndexConfig::Grid { cells_per_axis } => Arc::new(
                twoknn_index::GridIndex::build_with_bounds(points, bounds, cells_per_axis.max(1))
                    .expect("grid build with explicit bounds and ≥1 cells cannot fail"),
            ),
            IndexConfig::Quadtree {
                capacity,
                max_depth,
            } => Arc::new(
                twoknn_index::QuadtreeIndex::build_with_bounds(
                    points,
                    bounds,
                    capacity.max(1),
                    max_depth,
                )
                .expect("quadtree build with explicit bounds and ≥1 capacity cannot fail"),
            ),
            IndexConfig::RTree { leaf_capacity } => {
                if points.is_empty() {
                    return Arc::new(
                        twoknn_index::GridIndex::build_with_bounds(points, bounds_hint, 1)
                            .expect("empty grid build with explicit bounds cannot fail"),
                    );
                }
                Arc::new(
                    twoknn_index::StrRTree::build(points, leaf_capacity.max(1))
                        .expect("non-empty R-tree build with ≥1 leaf capacity cannot fail"),
                )
            }
        }
    }
}

/// The extent a rebuild should cover: the points' bounding box extended to
/// the previous base's bounds, so shrinking data never shrinks the space
/// decomposition mid-stream (and empty data keeps the old extent).
fn bounds_for(points: &[Point], hint: Rect) -> Rect {
    match Rect::bounding(points) {
        Ok(b) => b.union(&hint),
        Err(_) => hint,
    }
}

/// An index family the store can rebuild without an explicit
/// [`IndexConfig`]: the three built-in index types report their own build
/// parameters. Custom [`SpatialIndex`] implementations register through
/// [`Database::register_with_config`](crate::plan::Database::register_with_config)
/// instead.
pub trait StoredIndex: SpatialIndex + Send + Sync + 'static {
    /// The config that rebuilds an equivalent index over new points.
    fn rebuild_config(&self) -> IndexConfig;
}

impl StoredIndex for twoknn_index::GridIndex {
    fn rebuild_config(&self) -> IndexConfig {
        IndexConfig::Grid {
            cells_per_axis: self.cells_per_axis(),
        }
    }
}

impl StoredIndex for twoknn_index::QuadtreeIndex {
    fn rebuild_config(&self) -> IndexConfig {
        IndexConfig::Quadtree {
            capacity: self.capacity(),
            max_depth: self.max_depth(),
        }
    }
}

impl StoredIndex for twoknn_index::StrRTree {
    fn rebuild_config(&self) -> IndexConfig {
        IndexConfig::RTree {
            leaf_capacity: self.leaf_capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::delta::WriteOp;
    use super::*;
    use twoknn_index::{check_index_invariants, GridIndex};

    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seed;
                Point::new(
                    i as u64,
                    (h % 1013) as f64 * 0.11,
                    ((h / 1013) % 1013) as f64 * 0.11,
                )
            })
            .collect()
    }

    fn snapshot_with_config(ops: &[WriteOp], overlay: OverlayConfig) -> ShardSnapshot {
        let base: BaseIndex = Arc::new(GridIndex::build(scattered(300, 7), 6).unwrap());
        ShardSnapshot::clean(base, 0, overlay).apply_batch(ops, 1).0
    }

    fn snapshot_with(ops: &[WriteOp]) -> ShardSnapshot {
        snapshot_with_config(ops, OverlayConfig::default())
    }

    /// SplitMix64: a seeded, dependency-free op generator.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// `len` random ops over a pool of about `len / 3` ids, half of them
    /// base ids (0..300) and half overlay-only ids, so ids repeat within a
    /// batch; one op in twenty removes an id no batch ever writes.
    fn random_batch(rng: &mut SplitMix, len: usize) -> Vec<WriteOp> {
        let pool = (len as u64 / 3).max(4);
        (0..len)
            .map(|_| {
                let slot = rng.below(pool);
                let id = if slot % 2 == 0 {
                    (slot / 2 * 7) % 300
                } else {
                    10_000 + slot / 2
                };
                match rng.below(20) {
                    0 => WriteOp::Remove(1_000_000 + rng.below(50)),
                    1..=7 => WriteOp::Remove(id),
                    _ => WriteOp::Upsert(Point::new(
                        id,
                        rng.below(10_000) as f64 * 0.011,
                        rng.below(10_000) as f64 * 0.011,
                    )),
                }
            })
            .collect()
    }

    #[test]
    fn batch_apply_equals_the_per_op_fold() {
        let base_points = scattered(300, 7);
        for len in [1usize, 64, 5_000] {
            for seed in 0..6u64 {
                let mut rng = SplitMix(seed * 1_000 + len as u64);
                let base: BaseIndex = Arc::new(GridIndex::build(base_points.clone(), 6).unwrap());
                let mut snap = ShardSnapshot::clean(base, 0, OverlayConfig::default());
                let mut oracle = Delta::new();
                let base_has = |id: PointId| id < 300;
                // Successive batches exercise the merge against a non-empty
                // delta and re-filtering of already filtered blocks.
                for round in 1..=4u64 {
                    let mut ops = random_batch(&mut rng, len);
                    if round == 2 && len > 1 {
                        // Upsert-then-remove of a base and an overlay id.
                        ops[0] = WriteOp::Upsert(Point::new(21, 1.0, 1.0));
                        ops[len - 1] = WriteOp::Remove(21);
                        ops.push(WriteOp::Upsert(Point::new(20_000, 2.0, 2.0)));
                        ops.push(WriteOp::Remove(20_000));
                    }
                    let expected: Vec<bool> =
                        ops.iter().map(|op| oracle.apply(op, base_has)).collect();
                    let before = snap.delta().deletes().to_vec();
                    let applied = snap.delta().apply_batch(&ops, base_has);
                    let case = format!("len {len} seed {seed} round {round}");
                    assert_eq!(applied.changed, expected, "{case}: changed flags");
                    assert_eq!(applied.delta.inserts(), oracle.inserts(), "{case}: inserts");
                    assert_eq!(applied.delta.deletes(), oracle.deletes(), "{case}: deletes");
                    let fresh: Vec<PointId> = oracle
                        .deletes()
                        .iter()
                        .copied()
                        .filter(|id| before.binary_search(id).is_err())
                        .collect();
                    assert_eq!(applied.tombstoned, fresh, "{case}: new tombstones");

                    let (next, changed) = snap.apply_batch(&ops, round);
                    assert_eq!(changed, expected, "{case}: snapshot changed flags");
                    next.check_overlay_invariants()
                        .unwrap_or_else(|e| panic!("{case}: {e}"));
                    let mut visible = next.all_points();
                    visible.sort_by_key(|p| p.id);
                    let mut want: Vec<Point> = base_points
                        .iter()
                        .filter(|p| !oracle.is_deleted(p.id))
                        .chain(oracle.inserts())
                        .copied()
                        .collect();
                    want.sort_by_key(|p| p.id);
                    assert_eq!(visible, want, "{case}: visible point set");
                    assert_eq!(next.num_points(), want.len(), "{case}: point count");
                    snap = next;
                }
            }
        }
    }

    #[test]
    fn a_dense_block_losing_most_of_its_points_is_refiltered_exactly() {
        // One base block of 4,000 points; two batches tombstone 3,500 of
        // them, the second re-filtering the first one's filtered copy.
        let points = scattered(4_000, 11);
        let base: BaseIndex = Arc::new(GridIndex::build(points.clone(), 1).unwrap());
        assert_eq!(base.num_blocks(), 1);
        let gone = |id: PointId| id % 8 != 0;
        let removes = |range: std::ops::Range<PointId>| -> Vec<WriteOp> {
            range.filter(|&id| gone(id)).map(WriteOp::Remove).collect()
        };
        let snap = ShardSnapshot::clean(base, 0, OverlayConfig::default());
        let (snap, changed) = snap.apply_batch(&removes(0..2_000), 1);
        assert!(changed.iter().all(|&c| c));
        let (snap, changed) = snap.apply_batch(&removes(1_000..4_000), 2);
        assert_eq!(changed.iter().filter(|&&c| c).count(), 1_750);
        let want: Vec<Point> = points.into_iter().filter(|p| !gone(p.id)).collect();
        let mut kept: Vec<Point> = snap.block_points(0).iter().collect();
        kept.sort_by_key(|p| p.id);
        assert_eq!(kept, want);
        assert_eq!(snap.blocks()[0].count, 500);
        assert_eq!(snap.num_points(), 500);
        check_index_invariants(&snap).unwrap();
    }

    #[test]
    fn clean_snapshot_mirrors_its_base() {
        let snap = snapshot_with(&[]);
        assert_eq!(snap.num_points(), 300);
        assert_eq!(snap.num_blocks(), 36);
        check_index_invariants(&snap).unwrap();
        assert_eq!(snap.all_points().len(), 300);
    }

    #[test]
    fn overlay_upholds_index_invariants() {
        let snap = snapshot_with(&[
            WriteOp::Upsert(Point::new(1_000, 5.0, 5.0)),
            WriteOp::Upsert(Point::new(1_001, 200.0, 200.0)),
            WriteOp::Remove(10),
            WriteOp::Remove(20),
            WriteOp::Upsert(Point::new(30, 1.0, 1.0)), // moves a base point
        ]);
        assert_eq!(snap.num_points(), 300 + 3 - 3);
        assert_eq!(
            snap.num_blocks(),
            37,
            "a 3-insert delta fits one overlay cell"
        );
        assert_eq!(snap.overlay_block_count(), 1);
        snap.check_overlay_invariants().unwrap();
        assert!(snap.contains_id(1_000));
        assert!(!snap.contains_id(10));
        assert!(snap.contains_id(30));
    }

    #[test]
    fn write_bursts_partition_into_tight_overlay_blocks() {
        // A clustered burst big enough to outgrow one cell: the overlay must
        // split into multiple blocks whose MBRs hug the points, so MINDIST
        // pruning keeps working for queries away from the burst.
        let burst: Vec<WriteOp> = (0..400u64)
            .map(|i| {
                WriteOp::Upsert(Point::new(
                    5_000 + i,
                    60.0 + (i % 20) as f64 * 0.11,
                    60.0 + (i / 20) as f64 * 0.13,
                ))
            })
            .collect();
        let snap = snapshot_with(&burst);
        assert!(
            snap.overlay_block_count() > 1,
            "a 400-insert burst must partition, got {} overlay blocks",
            snap.overlay_block_count()
        );
        snap.check_overlay_invariants().unwrap();
        let base_blocks = snap.num_blocks() - snap.overlay_block_count();
        for meta in &snap.blocks()[base_blocks..] {
            assert!(
                meta.mbr.width() <= 2.2 && meta.mbr.height() <= 2.6,
                "overlay block {} MBR {} must stay tight around its cell",
                meta.id,
                meta.mbr
            );
        }
        // The same ops under a fanout cap of 1 reproduce the single giant
        // block (the ablation baseline) — equal contents, no partitioning.
        let single = snapshot_with_config(
            &burst,
            OverlayConfig {
                max_cells_per_axis: 1,
                ..OverlayConfig::default()
            },
        );
        assert_eq!(single.overlay_block_count(), 1);
        single.check_overlay_invariants().unwrap();
        assert_eq!(single.num_points(), snap.num_points());
    }

    #[test]
    fn profile_is_memoized_per_snapshot() {
        let snap = snapshot_with(&[WriteOp::Upsert(Point::new(900, 9.0, 9.0))]);
        let first = snap.profile();
        assert_eq!(first.num_points, 301);
        assert_eq!(first, snap.profile(), "repeat calls hit the memo");
        assert_eq!(
            first,
            crate::plan::RelationProfile::compute(&snap),
            "the memo equals a fresh computation"
        );
    }

    #[test]
    fn removed_points_disappear_from_block_scans() {
        let snap = snapshot_with(&[WriteOp::Remove(10)]);
        assert!(snap.all_points().iter().all(|p| p.id != 10));
        assert_eq!(snap.num_points(), 299);
        check_index_invariants(&snap).unwrap();
    }

    #[test]
    fn locate_prefers_the_overlay_block_for_inserted_points() {
        let inserted = Point::new(9_999, 3.0, 4.0);
        let snap = snapshot_with(&[WriteOp::Upsert(inserted)]);
        let at = snap.locate(&inserted).unwrap();
        assert_eq!(at as usize, snap.num_blocks() - 1);
        assert!(snap.block_points(at).iter().any(|p| p.id == 9_999));
        // Points outside base bounds but inside the overlay are locatable.
        let outside = Point::new(10_000, -50.0, -50.0);
        let snap = snapshot_with(&[WriteOp::Upsert(outside)]);
        assert!(snap.bounds().contains(&outside));
        let at = snap.locate(&outside).unwrap();
        assert!(snap.block_points(at).iter().any(|p| p.id == 10_000));
    }

    #[test]
    fn moved_point_is_visible_only_at_its_new_position() {
        let snap = snapshot_with(&[WriteOp::Upsert(Point::new(10, 77.7, 88.8))]);
        let stored: Vec<Point> = snap
            .all_points()
            .into_iter()
            .filter(|p| p.id == 10)
            .collect();
        assert_eq!(stored.len(), 1);
        assert_eq!((stored[0].x, stored[0].y), (77.7, 88.8));
        check_index_invariants(&snap).unwrap();
    }

    #[test]
    fn index_config_rebuilds_each_family() {
        let pts = scattered(120, 3);
        let hint = Rect::bounding(&pts).unwrap();
        for config in [
            IndexConfig::Grid { cells_per_axis: 5 },
            IndexConfig::Quadtree {
                capacity: 16,
                max_depth: twoknn_index::DEFAULT_MAX_DEPTH,
            },
            IndexConfig::RTree { leaf_capacity: 16 },
        ] {
            let base = config.build(pts.clone(), hint);
            assert_eq!(base.num_points(), 120);
            check_index_invariants(base.as_ref()).unwrap();
        }
        // The empty corner case keeps the hint bounds.
        for config in [
            IndexConfig::Grid { cells_per_axis: 4 },
            IndexConfig::Quadtree {
                capacity: 8,
                max_depth: twoknn_index::DEFAULT_MAX_DEPTH,
            },
            IndexConfig::RTree { leaf_capacity: 8 },
        ] {
            let base = config.build(Vec::new(), hint);
            assert_eq!(base.num_points(), 0);
            assert!(base.bounds().contains_rect(&hint));
        }
    }

    #[test]
    fn stored_index_reports_its_own_config() {
        let pts = scattered(80, 9);
        let grid = GridIndex::build(pts.clone(), 7).unwrap();
        assert_eq!(
            grid.rebuild_config(),
            IndexConfig::Grid { cells_per_axis: 7 }
        );
        let quad = twoknn_index::QuadtreeIndex::build(pts.clone(), 12).unwrap();
        assert_eq!(
            quad.rebuild_config(),
            IndexConfig::Quadtree {
                capacity: 12,
                max_depth: twoknn_index::DEFAULT_MAX_DEPTH,
            }
        );
        let rtree = twoknn_index::StrRTree::build(pts, 9).unwrap();
        assert_eq!(
            rtree.rebuild_config(),
            IndexConfig::RTree { leaf_capacity: 9 }
        );
    }
}
