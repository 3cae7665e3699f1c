//! The [`SpatialIndex`] abstraction shared by all index implementations.
//!
//! Section 2 of the paper: "The algorithms we present do not assume a
//! specific indexing structure. The algorithms can be applied to a quadtree,
//! an R-tree, or any of their variants." The only capabilities the algorithms
//! need are captured by this trait: enumerate blocks with their point counts,
//! read the points inside a block, and locate the block containing a point.

use twoknn_geometry::{Point, Rect};

use crate::block::{BlockId, BlockMeta};
use crate::ordering::{BlockOrder, OrderMetric};
use crate::partition::PartitionMeta;
use crate::points::BlockPoints;

/// A block-based, in-memory spatial index over a set of 2-D points.
///
/// Implementations in this crate: [`crate::GridIndex`] (the structure used in
/// the paper's evaluation), [`crate::QuadtreeIndex`] (PR quadtree) and
/// [`crate::StrRTree`] (bulk-loaded R-tree whose leaves act as blocks).
pub trait SpatialIndex {
    /// The spatial extent covered by the index.
    fn bounds(&self) -> Rect;

    /// Total number of indexed points.
    fn num_points(&self) -> usize;

    /// Metadata (footprint + point count) for every block of the index.
    ///
    /// Block ids are dense in `0..blocks().len()`.
    fn blocks(&self) -> &[BlockMeta];

    /// The points stored in a block, as a borrowed SoA column view.
    ///
    /// Row-oriented consumers iterate the view (it yields [`Point`]s by
    /// value); the batched distance kernels read the `xs()`/`ys()` columns
    /// directly.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid block id of this index.
    fn block_points(&self, id: BlockId) -> BlockPoints<'_>;

    /// The block whose footprint contains `p`, if any.
    ///
    /// Used by Procedure 4 to mark the blocks that contain join-result points
    /// as *Candidate* blocks. When footprints overlap (R-tree), the block that
    /// actually stores a point with the same coordinates is preferred;
    /// otherwise any containing block may be returned.
    fn locate(&self, p: &Point) -> Option<BlockId>;

    /// Number of blocks in the index.
    fn num_blocks(&self) -> usize {
        self.blocks().len()
    }

    /// The coarse spatial partitions (shards) of this index, if it is
    /// sharded.
    ///
    /// Each [`PartitionMeta`] must own a contiguous, disjoint range of the
    /// dense block-id space, the ranges must cover `0..num_blocks()` in
    /// ascending order, and every partition's MBR must contain the footprints
    /// of its non-empty blocks. The kNN driver uses the partitions to visit
    /// shards in MINDIST order and skip the ones whose MINDIST² cannot beat
    /// the running k-th distance. Plain (unsharded) indexes keep the default
    /// `None` and are walked as one flat block set.
    fn partitions(&self) -> Option<&[PartitionMeta]> {
        None
    }

    /// Convenience: all indexed points, flattened. Mainly for tests and
    /// brute-force baselines; order is unspecified.
    fn all_points(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.num_points());
        for b in self.blocks() {
            out.extend(self.block_points(b.id));
        }
        out
    }

    /// A lazy ordering of this index's blocks by increasing MINDIST from `p`.
    fn mindist_order(&self, p: &Point) -> BlockOrder {
        BlockOrder::new(self.blocks(), p, OrderMetric::MinDist)
    }

    /// A lazy ordering of this index's blocks by increasing MAXDIST from `p`.
    fn maxdist_order(&self, p: &Point) -> BlockOrder {
        BlockOrder::new(self.blocks(), p, OrderMetric::MaxDist)
    }
}

/// Checks the structural invariants every implementation must maintain:
/// dense ids, per-block counts consistent with stored points, points inside
/// their block's footprint, and the total count matching `num_points`.
///
/// Exposed so that integration and property tests can validate any index.
pub fn check_index_invariants<I: SpatialIndex + ?Sized>(index: &I) -> Result<(), String> {
    let blocks = index.blocks();
    let mut total = 0usize;
    for (i, b) in blocks.iter().enumerate() {
        if b.id as usize != i {
            return Err(format!("block at position {i} has id {}", b.id));
        }
        let pts = index.block_points(b.id);
        if pts.len() != b.count {
            return Err(format!(
                "block {} count {} != stored points {}",
                b.id,
                b.count,
                pts.len()
            ));
        }
        for p in pts {
            if !b.mbr.contains(&p) {
                return Err(format!("point {p} outside block {} mbr {}", b.id, b.mbr));
            }
            if !index.bounds().contains(&p) {
                return Err(format!("point {p} outside index bounds"));
            }
        }
        total += pts.len();
    }
    if total != index.num_points() {
        return Err(format!(
            "sum of block counts {total} != num_points {}",
            index.num_points()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;

    #[test]
    fn default_methods_operate_on_blocks() {
        let pts: Vec<Point> = (0..100)
            .map(|i| Point::new(i, (i % 10) as f64, (i / 10) as f64))
            .collect();
        let g = GridIndex::build(pts.clone(), 4).unwrap();
        assert_eq!(g.num_points(), 100);
        assert_eq!(g.num_blocks(), g.blocks().len());
        assert_eq!(g.all_points().len(), 100);
        check_index_invariants(&g).unwrap();

        let origin = Point::anonymous(0.0, 0.0);
        let first = g.mindist_order(&origin).next().unwrap();
        assert_eq!(first.distance, 0.0);
        let mut max_order = g.maxdist_order(&origin);
        let first_max = max_order.next().unwrap();
        assert!(first_max.distance > 0.0);
    }
}
