//! Spatial sharding: the composed relation snapshot and the shard routing
//! map.
//!
//! A relation is stored as a set of spatial *shards*. [`ShardMap`] assigns
//! every point to one shard of a bounded, clamped uniform grid over the
//! relation's registration extent (the same clamping idiom as the delta
//! overlay's [`super::overlay::OverlayGrid`]: out-of-bounds points bucket
//! into the edge shards, so the map never needs re-anchoring and routing
//! stays stable for the relation's lifetime). Each shard owns an independent
//! [`ShardSnapshot`] — its own base index, delta overlay, writer log and
//! compaction slot — so a write burst or a background rebuild in one shard
//! never blocks ingest or readers elsewhere.
//!
//! [`RelationSnapshot`] is the immutable *composed* view queries run
//! against: the shard snapshots' blocks concatenated into one dense block-id
//! space, with one [`PartitionMeta`] per shard carrying a tight MBR over the
//! shard's non-empty blocks. Through [`SpatialIndex::partitions`] the kNN
//! driver sees the shard tier and executes scatter-gather: shards are
//! visited in MINDIST order and skipped wholesale once their MINDIST²
//! exceeds the running τ². Joins and Block-Marking inherit the coarse tier
//! for free — every composed block keeps its shard-tight MBR, so block-level
//! MINDIST pruning and the contour test see shard-local footprints instead
//! of one relation-wide decomposition.
//!
//! With `shards_per_axis == 1` (the default, and the ablation baseline) the
//! composed snapshot is a transparent wrapper over a single shard and every
//! query takes the flat single-walk path.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use twoknn_geometry::{Point, PointId, Rect};
use twoknn_index::{BlockId, BlockMeta, BlockPoints, PartitionMeta, SpatialIndex};

use crate::plan::stats::RelationProfile;

use super::snapshot::ShardSnapshot;

/// How a relation is spatially sharded.
///
/// `shards_per_axis = n` splits the registration extent into an `n × n`
/// clamped grid of shards that ingest, compact and rebuild independently.
/// The default of `1` keeps the relation in a single shard — the unsharded
/// baseline the `ablation_shard` bench compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Shards along each axis (clamped to ≥ 1 when used).
    pub shards_per_axis: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { shards_per_axis: 1 }
    }
}

impl ShardConfig {
    /// A sharded configuration with `n × n` shards.
    pub fn per_axis(n: usize) -> Self {
        Self { shards_per_axis: n }
    }
}

/// The routing map from points to shards: a clamped `n × n` uniform grid
/// anchored at the relation's registration bounds.
///
/// Copy-able and immutable — routing never changes after registration, so a
/// point's owning shard is a pure function of its coordinates. Points
/// outside the anchored bounds clamp into the nearest edge shard (whose
/// *partition* MBR grows to cover them, keeping pruning sound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShardMap {
    bounds: Rect,
    per_axis: usize,
}

impl ShardMap {
    pub(crate) fn new(bounds: Rect, per_axis: usize) -> Self {
        Self {
            bounds,
            per_axis: per_axis.max(1),
        }
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.per_axis * self.per_axis
    }

    /// The shard `p` routes to. Same clamping as the overlay grid: every
    /// point maps to exactly one shard, including NaN-free out-of-bounds
    /// coordinates.
    pub(crate) fn shard_of(&self, p: &Point) -> usize {
        let n = self.per_axis;
        let cell_w = self.bounds.width() / n as f64;
        let cell_h = self.bounds.height() / n as f64;
        let clamp = |v: isize| v.clamp(0, n as isize - 1) as usize;
        let ix = clamp(((p.x - self.bounds.min_x) / cell_w).floor() as isize);
        let iy = clamp(((p.y - self.bounds.min_y) / cell_h).floor() as isize);
        iy * n + ix
    }

    /// The routing cell of shard `idx` — the bounds hint its base indexes
    /// are built over.
    pub(crate) fn shard_rect(&self, idx: usize) -> Rect {
        let n = self.per_axis;
        let (ix, iy) = (idx % n, idx / n);
        let cell_w = self.bounds.width() / n as f64;
        let cell_h = self.bounds.height() / n as f64;
        Rect::new(
            self.bounds.min_x + ix as f64 * cell_w,
            self.bounds.min_y + iy as f64 * cell_h,
            self.bounds.min_x + (ix + 1) as f64 * cell_w,
            self.bounds.min_y + (iy + 1) as f64 * cell_h,
        )
    }
}

/// An immutable versioned view of a whole relation: every shard's
/// [`ShardSnapshot`] composed into one dense block-id space with a
/// [`PartitionMeta`] shard tier.
///
/// Implements [`SpatialIndex`], so every query algorithm (and
/// [`RelationProfile`]) consumes it exactly like a plain index; the kNN
/// driver additionally sees [`SpatialIndex::partitions`] and runs
/// scatter-gather with MINDIST-ordered shard pruning.
pub struct RelationSnapshot {
    map: ShardMap,
    shards: Vec<Arc<ShardSnapshot>>,
    /// All shards' blocks, re-identified into one dense ascending id space.
    blocks: Vec<BlockMeta>,
    /// One entry per shard: tight MBR + owned block-id range.
    partitions: Vec<PartitionMeta>,
    /// Per shard, the composed id of its first block; one trailing entry
    /// holds the total block count (so `block_base.len() == shards + 1`).
    block_base: Vec<BlockId>,
    bounds: Rect,
    num_points: usize,
    version: u64,
    /// Memoized optimizer statistics — the per-shard state is merged lazily,
    /// at most once per published version.
    profile: OnceLock<RelationProfile>,
}

impl RelationSnapshot {
    /// Composes the current shard snapshots into one immutable relation
    /// view at `version`.
    pub(crate) fn compose(map: ShardMap, shards: Vec<Arc<ShardSnapshot>>, version: u64) -> Self {
        debug_assert_eq!(shards.len(), map.num_shards());
        let total_blocks: usize = shards.iter().map(|s| s.num_blocks()).sum();
        let mut blocks = Vec::with_capacity(total_blocks);
        let mut partitions = Vec::with_capacity(shards.len());
        let mut block_base = Vec::with_capacity(shards.len() + 1);
        let mut bounds: Option<Rect> = None;
        let mut num_points = 0usize;
        for (s, shard) in shards.iter().enumerate() {
            let first = blocks.len() as BlockId;
            block_base.push(first);
            let mut mbr: Option<Rect> = None;
            for b in shard.blocks() {
                blocks.push(BlockMeta::new(blocks.len() as BlockId, b.mbr, b.count));
                if b.count > 0 {
                    mbr = Some(mbr.map_or(b.mbr, |m| m.union(&b.mbr)));
                }
            }
            partitions.push(PartitionMeta::new(
                mbr.unwrap_or_else(|| map.shard_rect(s)),
                first,
                shard.num_blocks() as u32,
                shard.num_points(),
            ));
            num_points += shard.num_points();
            let sb = shard.bounds();
            bounds = Some(bounds.map_or(sb, |b| b.union(&sb)));
        }
        block_base.push(blocks.len() as BlockId);
        Self {
            bounds: bounds.expect("a relation has at least one shard"),
            map,
            shards,
            blocks,
            partitions,
            block_base,
            num_points,
            version,
            profile: OnceLock::new(),
        }
    }

    /// The snapshot's version: strictly increasing across a relation's
    /// publishes (ingest batches and compactions alike).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total number of overlay entries (inserts + deletes) across all
    /// shards' deltas.
    pub fn delta_len(&self) -> usize {
        self.shards.iter().map(|s| s.delta_len()).sum()
    }

    /// The per-shard snapshots this view composes, in shard order.
    pub fn shards(&self) -> &[Arc<ShardSnapshot>] {
        &self.shards
    }

    /// Number of shards (≥ 1; `1` means the relation is unsharded).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[cfg(test)]
    pub(crate) fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Whether a point with `id` is visible in this snapshot.
    pub fn contains_id(&self, id: PointId) -> bool {
        self.shards.iter().any(|s| s.contains_id(id))
    }

    /// The visible position of the point with `id`, if any. The
    /// continuous-query maintainer uses this on the pre-ingest snapshot to
    /// recover the *old* position of moved or removed points for guard
    /// probing.
    pub fn position_of(&self, id: PointId) -> Option<Point> {
        self.shards.iter().find_map(|s| s.position_of(id))
    }

    /// Number of overlay blocks (occupied overlay-grid cells) across all
    /// shards.
    pub fn overlay_block_count(&self) -> usize {
        self.shards.iter().map(|s| s.overlay_block_count()).sum()
    }

    /// The memoized optimizer statistics of this snapshot, computed (merged
    /// across shards) on first use and shared by every query planned against
    /// this version.
    pub fn profile(&self) -> RelationProfile {
        *self.profile.get_or_init(|| RelationProfile::compute(self))
    }

    /// All currently visible points. Mostly for tests; the background
    /// rebuild gathers per-shard points block-parallel instead.
    pub fn merged_points(&self) -> Vec<Point> {
        self.all_points()
    }

    /// Checks the shard-tier structural invariants on top of every shard's
    /// [`ShardSnapshot::check_overlay_invariants`]:
    ///
    /// * composed blocks mirror their shard's blocks (dense ascending ids,
    ///   identical MBRs and counts);
    /// * every partition's metadata matches its shard (block range, point
    ///   count) and its MBR contains all of the shard's non-empty blocks;
    /// * every visible point is stored in exactly one shard, and (when
    ///   sharded) in the shard its coordinates route to.
    pub fn check_overlay_invariants(&self) -> Result<(), String> {
        for (s, shard) in self.shards.iter().enumerate() {
            shard
                .check_overlay_invariants()
                .map_err(|e| format!("shard {s}: {e}"))?;
        }
        twoknn_index::check_index_invariants(self)?;
        if self.shards.len() != self.map.num_shards() {
            return Err(format!(
                "snapshot has {} shards, map expects {}",
                self.shards.len(),
                self.map.num_shards()
            ));
        }
        if *self.block_base.last().unwrap() as usize != self.blocks.len() {
            return Err("block_base does not cover the composed block space".into());
        }
        let mut seen: HashSet<PointId> = HashSet::with_capacity(self.num_points);
        for (s, shard) in self.shards.iter().enumerate() {
            let part = self.partitions[s];
            if part.first_block != self.block_base[s]
                || part.num_blocks as usize != shard.num_blocks()
                || part.count != shard.num_points()
            {
                return Err(format!("partition {s} metadata drifted from its shard"));
            }
            for (local, b) in shard.blocks().iter().enumerate() {
                let composed = self.blocks[self.block_base[s] as usize + local];
                if composed.mbr != b.mbr || composed.count != b.count {
                    return Err(format!("composed block of shard {s} block {local} drifted"));
                }
                if b.count > 0 && !part.mbr.contains_rect(&b.mbr) {
                    return Err(format!(
                        "partition {s} MBR {} misses block {local} MBR {}",
                        part.mbr, b.mbr
                    ));
                }
                for p in shard.block_points(b.id) {
                    if !seen.insert(p.id) {
                        return Err(format!("point id {} visible in more than one shard", p.id));
                    }
                    if self.shards.len() > 1 && self.map.shard_of(&p) != s {
                        return Err(format!(
                            "point {p} stored in shard {s} but routes to shard {}",
                            self.map.shard_of(&p)
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The shard owning composed block `id`.
    #[inline]
    fn shard_of_block(&self, id: BlockId) -> usize {
        self.block_base.partition_point(|&b| b <= id) - 1
    }
}

impl SpatialIndex for RelationSnapshot {
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
        if self.shards.len() == 1 {
            return self.shards[0].block_points(id);
        }
        let s = self.shard_of_block(id);
        self.shards[s].block_points(id - self.block_base[s])
    }

    fn locate(&self, p: &Point) -> Option<BlockId> {
        if self.shards.len() == 1 {
            return self.shards[0].locate(p);
        }
        // Stored points always live in the shard their coordinates route to,
        // so the routed shard's answer is preferred (it upholds the trait's
        // "prefer the storing block" contract). Footprints of neighboring
        // shards can still overlap `p` (tight partition MBRs grow over
        // clamped out-of-bounds points), so fall back to scanning the rest.
        let routed = self.map.shard_of(p);
        if let Some(local) = self.shards[routed].locate(p) {
            return Some(self.block_base[routed] + local);
        }
        self.shards.iter().enumerate().find_map(|(s, shard)| {
            if s == routed {
                return None;
            }
            shard.locate(p).map(|local| self.block_base[s] + local)
        })
    }

    fn partitions(&self) -> Option<&[PartitionMeta]> {
        Some(&self.partitions)
    }
}

impl std::fmt::Debug for RelationSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationSnapshot")
            .field("version", &self.version)
            .field("num_shards", &self.shards.len())
            .field("num_points", &self.num_points)
            .field("delta_len", &self.delta_len())
            .field("num_blocks", &self.blocks.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::super::overlay::OverlayConfig;
    use super::super::snapshot::{BaseIndex, IndexConfig};
    use super::*;

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

    fn compose_sharded(points: Vec<Point>, per_axis: usize) -> RelationSnapshot {
        let bounds = Rect::bounding(&points).unwrap();
        let map = ShardMap::new(bounds, per_axis);
        let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); map.num_shards()];
        for p in points {
            buckets[map.shard_of(&p)].push(p);
        }
        let config = IndexConfig::Grid { cells_per_axis: 4 };
        let shards: Vec<Arc<ShardSnapshot>> = buckets
            .into_iter()
            .enumerate()
            .map(|(s, pts)| {
                let base: BaseIndex = config.build(pts, map.shard_rect(s));
                Arc::new(ShardSnapshot::clean(base, 0, OverlayConfig::default()))
            })
            .collect();
        RelationSnapshot::compose(map, shards, 0)
    }

    #[test]
    fn shard_map_routes_and_clamps() {
        let map = ShardMap::new(Rect::new(0.0, 0.0, 10.0, 10.0), 2);
        assert_eq!(map.num_shards(), 4);
        assert_eq!(map.shard_of(&Point::anonymous(1.0, 1.0)), 0);
        assert_eq!(map.shard_of(&Point::anonymous(9.0, 1.0)), 1);
        assert_eq!(map.shard_of(&Point::anonymous(1.0, 9.0)), 2);
        assert_eq!(map.shard_of(&Point::anonymous(9.0, 9.0)), 3);
        // Out-of-bounds points clamp to the edge shards.
        assert_eq!(map.shard_of(&Point::anonymous(-5.0, -5.0)), 0);
        assert_eq!(map.shard_of(&Point::anonymous(100.0, 100.0)), 3);
        // Every shard rect is contained in the anchored bounds and they tile.
        let total: f64 = (0..4).map(|i| map.shard_rect(i).area()).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn composed_snapshot_upholds_shard_tier_invariants() {
        let snap = compose_sharded(scattered(600, 11), 3);
        assert_eq!(snap.num_shards(), 9);
        assert_eq!(snap.num_points(), 600);
        snap.check_overlay_invariants().unwrap();
        let parts = snap.partitions().unwrap();
        assert_eq!(parts.len(), 9);
        assert_eq!(parts.iter().map(|p| p.count).sum::<usize>(), 600);
        // The composed view answers point lookups across shard boundaries.
        for p in snap.merged_points().iter().take(50) {
            let at = snap.locate(p).expect("stored point is locatable");
            assert!(snap.block_points(at).iter().any(|q| q.id == p.id));
            assert_eq!(snap.position_of(p.id), Some(*p));
            assert!(snap.contains_id(p.id));
        }
    }

    #[test]
    fn single_shard_composition_is_transparent() {
        let snap = compose_sharded(scattered(200, 5), 1);
        assert_eq!(snap.num_shards(), 1);
        assert_eq!(snap.num_points(), 200);
        snap.check_overlay_invariants().unwrap();
        let shard = &snap.shards()[0];
        assert_eq!(snap.num_blocks(), shard.num_blocks());
        assert_eq!(snap.bounds(), shard.bounds());
    }
}
