//! `getkNN`: computing the neighborhood of a point.
//!
//! The paper (Section 2): "One can use any algorithm to compute the
//! neighborhood of a point. In this paper, we employ the locality algorithm
//! of [15]. Given a point, say p, the main idea of the algorithm is to build
//! the minimum locality of p, and then compute the neighborhood of p only
//! from its locality."
//!
//! This workspace takes the first sentence at its word. Three
//! implementations are provided:
//!
//! * [`get_knn`] — the hot path: **one MINDIST walk** per partition. Each
//!   non-empty block's MINDIST² from `p` goes into a reused buffer, keeping
//!   only the blocks within the running k-th distance τ (and within the
//!   caller's search threshold, for [`get_knn_bounded`]); the buffer is then
//!   popped lazily as a min-heap and every popped block runs the batched SoA
//!   block-scan kernel ([`crate::KthHeap::scan_block`]), whose root is τ. The
//!   walk stops at the first block whose MINDIST² exceeds τ² — strictly, so
//!   id tie-breaks at exactly τ stay reachable. It pays only for the blocks
//!   it reads; no locality is materialized. On a sharded index the same walk
//!   runs per partition, partitions visited in MINDIST order and skipped
//!   wholesale past τ.
//! * [`get_knn_best_first`] — the classic best-first (Hjaltason–Samet)
//!   incremental kNN, used for cross-checking and index ablations.
//! * [`brute_force_knn`] — an `O(n log n)` scan, the ground truth for tests.
//!
//! The paper's locality ([`Locality`], Definition 2) stays as the basis of
//! [`get_knn_scalar`], the retained pre-SoA gather path the `kernel_micro`
//! bench measures speedups against.
//!
//! Every entry point has an `*_in` variant taking an explicit
//! [`ScratchSpace`]; the plain variants borrow the calling thread's shared
//! scratch (see [`crate::scratch`]), so a batch of queries on one worker
//! thread allocates the walk buffer, heaps and distance buffer once, not per
//! query.

use std::cmp::{Ordering as CmpOrdering, Reverse};
use std::collections::BinaryHeap;

use twoknn_geometry::{Point, Predicate};

use crate::block::BlockMeta;
use crate::locality::Locality;
use crate::metrics::Metrics;
use crate::neighborhood::{Neighbor, Neighborhood};
use crate::ordering::OrderedF64;
use crate::partition::PartitionMeta;
use crate::scratch::{with_thread_scratch, KthHeap, ScratchSpace};
use crate::traits::SpatialIndex;

/// Computes the neighborhood (the `k` nearest neighbors) of `p` with the
/// MINDIST walk, counting the work into `metrics`.
///
/// When `p` itself is stored in the index (same id and coordinates), it is
/// *not* excluded: the paper's operators query focal points and outer-relation
/// points against *other* relations, so self-exclusion is handled by callers
/// that need it.
///
/// Uses the calling thread's shared [`ScratchSpace`]; pass one explicitly
/// through [`get_knn_in`] to control the reuse scope yourself.
pub fn get_knn<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    metrics: &mut Metrics,
) -> Neighborhood {
    with_thread_scratch(|scratch| get_knn_in(index, p, k, metrics, scratch))
}

/// [`get_knn`] with an explicit, reusable [`ScratchSpace`].
pub fn get_knn_in<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    metrics: &mut Metrics,
    scratch: &mut ScratchSpace,
) -> Neighborhood {
    knn_walk(index, p, k, None, None, metrics, scratch)
}

/// Computes the neighborhood of `p` restricted to a search threshold: only
/// blocks with MINDIST ≤ `threshold` are examined (the walk counterpart of
/// Procedure 5's bounded locality). The result is exact for every member whose distance from `p`
/// is at most `threshold`; members farther than the threshold may be missing.
pub fn get_knn_bounded<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    threshold: f64,
    metrics: &mut Metrics,
) -> Neighborhood {
    with_thread_scratch(|scratch| get_knn_bounded_in(index, p, k, threshold, metrics, scratch))
}

/// [`get_knn_bounded`] with an explicit, reusable [`ScratchSpace`].
pub fn get_knn_bounded_in<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    threshold: f64,
    metrics: &mut Metrics,
    scratch: &mut ScratchSpace,
) -> Neighborhood {
    knn_walk(index, p, k, Some(threshold), None, metrics, scratch)
}

/// Computes the `k` nearest points of `p` **matching a predicate** — the
/// "k nearest *matching* points" semantics of a pre-kNN filter placement.
///
/// Runs the same MINDIST walk as [`get_knn`] — per partition, shards visited
/// in MINDIST order — but scans each block through the predicate-masked
/// batched kernel ([`crate::KthHeap::scan_block_masked`]). The walk never
/// sizes itself by block counts (which overcount the matching points); it
/// stops only once the candidate heap holds `k` *matching* points and the
/// next block's MINDIST² exceeds τ² (strictly — id tie-breaks at exactly τ
/// stay reachable). τ is the k-th **matching** distance, never smaller than
/// the unfiltered one, so block and shard pruning against it stay
/// conservative and the result is exact.
///
/// Uses the calling thread's shared [`ScratchSpace`]; see
/// [`get_knn_filtered_in`] for explicit reuse.
pub fn get_knn_filtered<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    predicate: &Predicate,
    metrics: &mut Metrics,
) -> Neighborhood {
    with_thread_scratch(|scratch| get_knn_filtered_in(index, p, k, predicate, metrics, scratch))
}

/// [`get_knn_filtered`] with an explicit, reusable [`ScratchSpace`]: the
/// predicate mask, block-walk buffer, distance buffer, and candidate heap
/// are all borrowed from the scratch, so the filtered hot path allocates
/// nothing but the returned [`Neighborhood`] after warm-up.
pub fn get_knn_filtered_in<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    predicate: &Predicate,
    metrics: &mut Metrics,
    scratch: &mut ScratchSpace,
) -> Neighborhood {
    knn_walk(index, p, k, None, Some(predicate), metrics, scratch)
}

/// Ground-truth filtered kNN: filters every indexed point by the predicate,
/// then sorts. The reference the filtered kernel is tested against.
pub fn brute_force_knn_filtered<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    predicate: &Predicate,
) -> Neighborhood {
    let members = index
        .all_points()
        .into_iter()
        .filter(|q| predicate.matches_point(q))
        .map(|q| Neighbor {
            point: q,
            distance: p.distance(&q),
        })
        .collect();
    Neighborhood::from_unsorted(*p, k, members)
}

/// The body of every walking entry point: the MINDIST walk, reading each
/// block through the plain batched scan, or through the predicate-masked
/// scan when a pre-kNN `predicate` is given.
///
/// On a sharded index, partitions are visited in increasing MINDIST² from
/// `p`, all feeding the one shared `kth` heap, and each visited partition
/// runs its own [`walk_blocks`] over *its* block slice. As soon as the next
/// partition's MINDIST² exceeds τ² (or the square of the caller's search
/// threshold) — strictly, so distance ties keep resolving by id — every
/// remaining partition is skipped wholesale (`shards_pruned`). An unsharded
/// index is one walk over all of its blocks.
///
/// Exactness mirrors the block-level argument one level up: a true
/// k-nearest member inside some shard is within τ at every point of the scan
/// (otherwise the heap would already hold `k` strictly closer points), so
/// its shard passes the prefix test and the shard's walk reads its block.
fn knn_walk<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    threshold: Option<f64>,
    predicate: Option<&Predicate>,
    metrics: &mut Metrics,
    scratch: &mut ScratchSpace,
) -> Neighborhood {
    metrics.neighborhoods_computed += 1;
    if k == 0 || index.num_points() == 0 {
        return Neighborhood::empty(*p, k);
    }
    scratch.kth.reset(k);
    let ScratchSpace {
        dist,
        kth,
        mask,
        block_walk,
        shard_order,
        ..
    } = scratch;
    let mut read = |kth: &mut KthHeap, id: u32| {
        let points = index.block_points(id);
        match predicate {
            None => kth.scan_block(p, points, dist),
            Some(predicate) => {
                predicate.eval_block(points.ids(), points.xs(), points.ys(), mask);
                kth.scan_block_masked(p, points, mask, dist);
            }
        }
        points.len()
    };

    let all_blocks = index.blocks();
    let Some(parts) = sharded_partitions(index) else {
        walk_blocks(
            all_blocks, p, threshold, kth, block_walk, metrics, &mut read,
        );
        return kth.finish(*p, k);
    };
    shard_order.clear();
    for (i, part) in parts.iter().enumerate() {
        if !part.is_empty() {
            shard_order.push((OrderedF64(part.mindist_sq(p)), i as u32));
        }
    }
    shard_order.sort_unstable();

    let threshold_sq = threshold.map(|t| t * t);
    for (i, &(mindist_sq, part_idx)) in shard_order.iter().enumerate() {
        let beyond_bound = threshold_sq.is_some_and(|t| mindist_sq.0 > t);
        if beyond_bound || mindist_sq.0 > kth.threshold_sq() {
            metrics.shards_pruned += (shard_order.len() - i) as u64;
            break;
        }
        metrics.shards_scanned += 1;
        let shard_blocks = &all_blocks[parts[part_idx as usize].block_range()];
        walk_blocks(
            shard_blocks,
            p,
            threshold,
            kth,
            block_walk,
            metrics,
            &mut read,
        );
    }
    kth.finish(*p, k)
}

/// The partitions of `index` when scatter-gather is worthwhile: more than one
/// partition holds points. With zero or one populated shard the flat
/// single-walk scan is both simpler and at least as cheap.
#[inline]
fn sharded_partitions<I: SpatialIndex + ?Sized>(index: &I) -> Option<&[PartitionMeta]> {
    let parts = index.partitions()?;
    let populated = parts.iter().filter(|part| !part.is_empty()).count();
    (populated > 1).then_some(parts)
}

/// The MINDIST walk over one partition's blocks.
///
/// Admission: every non-empty block's MINDIST² from `p` is computed once, and
/// only blocks with MINDIST² ≤ τ² (the running k-th distance, infinite until
/// the heap is full) and MINDIST ≤ `threshold` enter the `(MINDIST², id)`
/// buffer (`locality_blocks`). The buffer is heapified in `O(n)` and popped
/// lazily; each popped block goes to `read`, which scans it into `kth` and
/// returns its point count (`blocks_scanned`), until the next MINDIST²
/// exceeds the current τ². Non-empty blocks that were never read count as
/// `blocks_pruned`.
///
/// Exact, ties included: a point at distance τ lies in a block whose
/// MINDIST² ≤ τ², and such a block is always admitted and read, so the heap
/// sees every candidate that could win an id tie-break. The threshold test
/// compares the non-squared MINDIST (`sqrt(MINDIST²) ≤ threshold`), so a
/// point whose distance equals the threshold is never lost to rounding.
fn walk_blocks(
    blocks: &[BlockMeta],
    p: &Point,
    threshold: Option<f64>,
    kth: &mut KthHeap,
    block_walk: &mut Vec<Reverse<(OrderedF64, u32)>>,
    metrics: &mut Metrics,
    read: &mut impl FnMut(&mut KthHeap, u32) -> usize,
) {
    let tau_sq = kth.threshold_sq();
    let mut non_empty = 0u64;
    block_walk.clear();
    for b in blocks {
        if b.count == 0 {
            continue;
        }
        non_empty += 1;
        let d2 = b.mindist_sq(p);
        if d2 <= tau_sq && threshold.map_or(true, |t| d2.sqrt() <= t) {
            block_walk.push(Reverse((OrderedF64(d2), b.id)));
        }
    }
    metrics.locality_blocks += block_walk.len() as u64;

    let mut heap = BinaryHeap::from(std::mem::take(block_walk));
    let mut blocks_read = 0u64;
    while let Some(&Reverse((d2, id))) = heap.peek() {
        if d2.0 > kth.threshold_sq() {
            break;
        }
        heap.pop();
        let points = read(kth, id) as u64;
        blocks_read += 1;
        metrics.points_scanned += points;
        metrics.distance_computations += points;
    }
    *block_walk = heap.into_vec();
    metrics.blocks_scanned += blocks_read;
    metrics.blocks_pruned += non_empty - blocks_read;
}

/// Extracts the `k` nearest points of `p` from the blocks of a locality.
///
/// This is the retained **scalar (pre-SoA) gather path**: every point of
/// every locality block is materialized as a [`Neighbor`] and the list is
/// sorted and truncated at the end. [`get_knn`] replaced it with the MINDIST
/// walk and the batched kth-distance kernel; it stays public as the ablation
/// baseline for the `kernel_micro` bench and the SoA-equivalence property
/// tests, and for callers that hold a pre-built [`Locality`].
pub fn neighborhood_from_locality<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    locality: &Locality,
    metrics: &mut Metrics,
) -> Neighborhood {
    let mut members = Vec::with_capacity(locality.point_count().min(4 * k + 16));
    for block in locality.blocks() {
        for q in index.block_points(block.id) {
            metrics.points_scanned += 1;
            metrics.distance_computations += 1;
            members.push(Neighbor {
                point: q,
                distance: p.distance(&q),
            });
        }
    }
    Neighborhood::from_unsorted(*p, k, members)
}

/// The complete pre-SoA `getkNN`: locality construction followed by the
/// scalar gather of [`neighborhood_from_locality`], with no τ-pruning and no
/// scratch reuse. Kept as the end-to-end ablation baseline so `kernel_micro`
/// can report the batched-vs-scalar speedup of the whole select hot path.
pub fn get_knn_scalar<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    metrics: &mut Metrics,
) -> Neighborhood {
    metrics.neighborhoods_computed += 1;
    if k == 0 || index.num_points() == 0 {
        return Neighborhood::empty(*p, k);
    }
    let locality = Locality::build(index, p, k, metrics);
    neighborhood_from_locality(index, p, k, &locality, metrics)
}

#[derive(Debug)]
enum BestFirstItem {
    Block(u32),
    Point(Point),
}

/// A prioritized entry of the best-first search queue. Public within the
/// crate so [`ScratchSpace`] can own the queue's storage between queries.
#[derive(Debug)]
pub(crate) struct BestFirstEntry {
    dist: OrderedF64,
    seq: u64,
    item: BestFirstItem,
}

impl PartialEq for BestFirstEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.seq == other.seq
    }
}
impl Eq for BestFirstEntry {}
impl PartialOrd for BestFirstEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for BestFirstEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Min-heap by distance; ties broken by insertion sequence so that
        // blocks at distance 0 are expanded before points at distance 0.
        other
            .dist
            .cmp(&self.dist)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Best-first incremental nearest-neighbor search (Hjaltason & Samet).
///
/// Maintains a priority queue of blocks (keyed by MINDIST) and points (keyed
/// by distance); pops the nearest element, expanding blocks into their points,
/// until `k` points have been reported. Provided as an independently
/// implemented cross-check of [`get_knn`] and for the index-ablation bench.
pub fn get_knn_best_first<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    metrics: &mut Metrics,
) -> Neighborhood {
    with_thread_scratch(|scratch| get_knn_best_first_in(index, p, k, metrics, scratch))
}

/// [`get_knn_best_first`] with an explicit, reusable [`ScratchSpace`]: the
/// priority queue's storage is borrowed from (and returned to) the scratch,
/// replacing the old per-query `BinaryHeap::with_capacity(num_blocks)`.
pub fn get_knn_best_first_in<I: SpatialIndex + ?Sized>(
    index: &I,
    p: &Point,
    k: usize,
    metrics: &mut Metrics,
    scratch: &mut ScratchSpace,
) -> Neighborhood {
    metrics.neighborhoods_computed += 1;
    if k == 0 || index.num_points() == 0 {
        return Neighborhood::empty(*p, k);
    }

    let mut storage = std::mem::take(&mut scratch.best_first);
    storage.clear();
    let mut heap: BinaryHeap<BestFirstEntry> = BinaryHeap::from(storage);
    let mut seq = 0u64;
    for b in index.blocks() {
        if b.count == 0 {
            continue;
        }
        heap.push(BestFirstEntry {
            dist: OrderedF64(b.mindist(p)),
            seq,
            item: BestFirstItem::Block(b.id),
        });
        seq += 1;
    }

    let mut members = Vec::with_capacity(k);
    while let Some(q) = heap.pop() {
        match q.item {
            BestFirstItem::Block(id) => {
                metrics.blocks_scanned += 1;
                for pt in index.block_points(id) {
                    metrics.points_scanned += 1;
                    metrics.distance_computations += 1;
                    heap.push(BestFirstEntry {
                        dist: OrderedF64(p.distance(&pt)),
                        seq,
                        item: BestFirstItem::Point(pt),
                    });
                    seq += 1;
                }
            }
            BestFirstItem::Point(pt) => {
                members.push(Neighbor {
                    point: pt,
                    distance: q.dist.0,
                });
                if members.len() == k {
                    break;
                }
            }
        }
    }
    scratch.best_first = heap.into_vec();
    Neighborhood::from_unsorted(*p, k, members)
}

/// Ground-truth `k` nearest neighbors by scanning every indexed point.
pub fn brute_force_knn<I: SpatialIndex + ?Sized>(index: &I, p: &Point, k: usize) -> Neighborhood {
    let members = index
        .all_points()
        .into_iter()
        .map(|q| Neighbor {
            point: q,
            distance: p.distance(&q),
        })
        .collect();
    Neighborhood::from_unsorted(*p, k, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;
    use crate::quadtree::QuadtreeIndex;
    use crate::rtree::StrRTree;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    ((i * 7919) % 1009) as f64 * 0.11,
                    ((i * 6131) % 997) as f64 * 0.13,
                )
            })
            .collect()
    }

    fn assert_same_ids(a: &Neighborhood, b: &Neighborhood) {
        let mut ai = a.ids();
        let mut bi = b.ids();
        ai.sort_unstable();
        bi.sort_unstable();
        assert_eq!(ai, bi);
    }

    #[test]
    fn locality_knn_matches_brute_force_on_grid() {
        let g = GridIndex::build(pts(1500), 14).unwrap();
        let mut m = Metrics::default();
        for (x, y, k) in [
            (10.0, 20.0, 1),
            (55.0, 64.0, 7),
            (0.0, 0.0, 25),
            (111.0, 1.0, 64),
        ] {
            let q = Point::anonymous(x, y);
            let got = get_knn(&g, &q, k, &mut m);
            let want = brute_force_knn(&g, &q, k);
            assert_same_ids(&got, &want);
        }
    }

    #[test]
    fn locality_knn_matches_brute_force_on_quadtree_and_rtree() {
        let data = pts(1200);
        let qt = QuadtreeIndex::build(data.clone(), 24).unwrap();
        let rt = StrRTree::build(data, 24).unwrap();
        let mut m = Metrics::default();
        for (x, y, k) in [(30.0, 30.0, 5), (80.0, 10.0, 17)] {
            let q = Point::anonymous(x, y);
            assert_same_ids(&get_knn(&qt, &q, k, &mut m), &brute_force_knn(&qt, &q, k));
            assert_same_ids(&get_knn(&rt, &q, k, &mut m), &brute_force_knn(&rt, &q, k));
        }
    }

    #[test]
    fn best_first_matches_locality_based() {
        let g = GridIndex::build(pts(900), 10).unwrap();
        let mut m = Metrics::default();
        for (x, y, k) in [(42.0, 17.0, 3), (5.0, 99.0, 20)] {
            let q = Point::anonymous(x, y);
            assert_same_ids(
                &get_knn(&g, &q, k, &mut m),
                &get_knn_best_first(&g, &q, k, &mut m),
            );
        }
    }

    /// The batched τ-pruning path and the retained scalar gather must return
    /// identical neighborhoods — members, order, distances, and tie choices.
    #[test]
    fn batched_knn_is_identical_to_scalar_baseline() {
        let g = GridIndex::build(pts(2000), 12).unwrap();
        let mut scratch = ScratchSpace::new();
        for (x, y, k) in [
            (10.0, 20.0, 1),
            (55.0, 64.0, 7),
            (0.0, 0.0, 25),
            (111.0, 1.0, 64),
            (-30.0, 200.0, 5),
        ] {
            let q = Point::anonymous(x, y);
            let mut m1 = Metrics::default();
            let mut m2 = Metrics::default();
            let batched = get_knn_in(&g, &q, k, &mut m1, &mut scratch);
            let scalar = get_knn_scalar(&g, &q, k, &mut m2);
            assert_eq!(batched, scalar, "query ({x},{y}) k={k}");
            assert!(
                m1.points_scanned <= m2.points_scanned,
                "τ-pruning must never scan more points than the full gather"
            );
        }
    }

    /// A minimal sharded index for driver tests: four quadrant GridIndexes
    /// with concatenated (re-identified) blocks and tight partition MBRs —
    /// the same shape the store's composed relation snapshot exposes.
    struct ShardedGrid {
        shards: Vec<GridIndex>,
        blocks: Vec<crate::BlockMeta>,
        parts: Vec<PartitionMeta>,
        bounds: twoknn_geometry::Rect,
        num_points: usize,
    }

    impl ShardedGrid {
        fn build(points: Vec<Point>, cells: usize) -> Self {
            use twoknn_geometry::Rect;
            let bounds = Rect::bounding(&points).unwrap();
            let (cx, cy) = {
                let c = bounds.center();
                (c.x, c.y)
            };
            let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); 4];
            for p in points {
                let q = (p.x >= cx) as usize + 2 * ((p.y >= cy) as usize);
                buckets[q].push(p);
            }
            let rects = [
                Rect::new(bounds.min_x, bounds.min_y, cx, cy),
                Rect::new(cx, bounds.min_y, bounds.max_x, cy),
                Rect::new(bounds.min_x, cy, cx, bounds.max_y),
                Rect::new(cx, cy, bounds.max_x, bounds.max_y),
            ];
            let shards: Vec<GridIndex> = buckets
                .into_iter()
                .zip(rects)
                .map(|(pts, r)| GridIndex::build_with_bounds(pts, r, cells).unwrap())
                .collect();
            let mut blocks = Vec::new();
            let mut parts = Vec::new();
            let mut num_points = 0;
            for (shard, rect) in shards.iter().zip(rects) {
                let first = blocks.len() as u32;
                let mut mbr: Option<Rect> = None;
                for b in shard.blocks() {
                    blocks.push(crate::BlockMeta::new(blocks.len() as u32, b.mbr, b.count));
                    if b.count > 0 {
                        mbr = Some(mbr.map_or(b.mbr, |m| m.union(&b.mbr)));
                    }
                }
                parts.push(PartitionMeta::new(
                    mbr.unwrap_or(rect),
                    first,
                    shard.num_blocks() as u32,
                    shard.num_points(),
                ));
                num_points += shard.num_points();
            }
            Self {
                shards,
                blocks,
                parts,
                bounds,
                num_points,
            }
        }
    }

    impl SpatialIndex for ShardedGrid {
        fn bounds(&self) -> twoknn_geometry::Rect {
            self.bounds
        }
        fn num_points(&self) -> usize {
            self.num_points
        }
        fn blocks(&self) -> &[crate::BlockMeta] {
            &self.blocks
        }
        fn block_points(&self, id: u32) -> crate::BlockPoints<'_> {
            let s = self
                .parts
                .iter()
                .position(|p| p.block_range().contains(&(id as usize)))
                .expect("block id in range");
            self.shards[s].block_points(id - self.parts[s].first_block)
        }
        fn locate(&self, p: &Point) -> Option<u32> {
            self.parts.iter().enumerate().find_map(|(s, part)| {
                self.shards[s]
                    .locate(p)
                    .map(|local| part.first_block + local)
            })
        }
        fn partitions(&self) -> Option<&[PartitionMeta]> {
            Some(&self.parts)
        }
    }

    #[test]
    fn scatter_gather_matches_brute_force_and_flat_scan() {
        let data = pts(1600);
        let sharded = ShardedGrid::build(data.clone(), 8);
        let flat = GridIndex::build(data, 16).unwrap();
        let mut scratch = ScratchSpace::new();
        for (x, y, k) in [
            (10.0, 20.0, 1),
            (55.0, 64.0, 7),
            (0.0, 0.0, 25),
            (111.0, 1.0, 64),
            (56.0, 65.0, 3),
        ] {
            let q = Point::anonymous(x, y);
            let mut m = Metrics::default();
            let got = get_knn_in(&sharded, &q, k, &mut m, &mut scratch);
            assert_eq!(got, brute_force_knn(&sharded, &q, k), "({x},{y}) k={k}");
            let mut mf = Metrics::default();
            assert_eq!(got, get_knn(&flat, &q, k, &mut mf));
            assert!(m.shards_scanned >= 1);
        }
    }

    #[test]
    fn scatter_gather_prunes_shards_beyond_tau() {
        // A dense cluster in one quadrant plus sparse points elsewhere: a
        // small-k query inside the cluster must resolve without visiting the
        // far quadrants.
        let mut data = Vec::new();
        for i in 0..500u64 {
            data.push(Point::new(
                i,
                10.0 + (i % 25) as f64 * 0.1,
                10.0 + (i / 25) as f64 * 0.1,
            ));
        }
        for i in 0..40u64 {
            data.push(Point::new(
                500 + i,
                80.0 + (i % 8) as f64,
                80.0 + (i / 8) as f64,
            ));
        }
        data.push(Point::new(990, 85.0, 12.0));
        data.push(Point::new(991, 12.0, 85.0));
        let sharded = ShardedGrid::build(data, 6);
        let q = Point::anonymous(11.0, 11.0);
        let mut m = Metrics::default();
        let got = get_knn(&sharded, &q, 5, &mut m);
        assert_eq!(got, brute_force_knn(&sharded, &q, 5));
        assert!(m.shards_pruned > 0, "{m}");
        assert!(m.shards_scanned < 4, "{m}");
        // Every pruned shard's MINDIST² must exceed the final τ².
        let tau_sq = got.radius() * got.radius();
        let visited = m.shards_scanned as usize;
        let mut order: Vec<(f64, usize)> = sharded
            .parts
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, p)| (p.mindist_sq(&q), i))
            .collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for &(mindist_sq, _) in &order[visited..] {
            assert!(mindist_sq > tau_sq, "pruned shard within τ");
        }
    }

    /// A tie at exactly τ that only a later shard holds: the point with the
    /// smaller id sits on the near edge of its shard, so both the shard's
    /// and its block's MINDIST² equal τ² exactly. Shard visit and block
    /// admission are inclusive, so it still wins the tie-break.
    #[test]
    fn scatter_gather_keeps_a_tie_at_exactly_tau_in_a_later_shard() {
        let data = vec![
            Point::new(0, 0.0, 0.0),
            Point::new(9, 8.0, 6.0),   // d² = 25, nearest shard
            Point::new(3, 10.0, 2.0),  // d² = 25, next shard's near edge
            Point::new(7, 20.0, 20.0), // pins the bounds to [0, 20]²
        ];
        let sharded = ShardedGrid::build(data, 2);
        let q = Point::anonymous(5.0, 2.0);
        let mut m = Metrics::default();
        let got = get_knn(&sharded, &q, 1, &mut m);
        assert_eq!(got.ids(), vec![3]);
        assert_eq!(got, brute_force_knn(&sharded, &q, 1));
        assert_eq!(m.shards_scanned, 2, "{m}");
    }

    #[test]
    fn scatter_gather_bounded_is_exact_within_threshold() {
        let data = pts(1600);
        let sharded = ShardedGrid::build(data, 8);
        let mut m = Metrics::default();
        let q = Point::anonymous(50.0, 50.0);
        let k = 12;
        let exact = brute_force_knn(&sharded, &q, k);
        let wide = get_knn_bounded(&sharded, &q, k, exact.radius() * 2.0 + 1.0, &mut m);
        assert_eq!(wide, exact);
        // Small threshold: every exact member within it must still appear.
        let threshold = 3.0;
        let bounded = get_knn_bounded(&sharded, &q, k, threshold, &mut m);
        let bounded_ids: std::collections::HashSet<u64> = bounded.ids().into_iter().collect();
        for nb in exact.members().iter().filter(|n| n.distance <= threshold) {
            assert!(bounded_ids.contains(&nb.point.id));
        }
    }

    #[test]
    fn k_zero_and_empty_relation_yield_empty_neighborhoods() {
        let g = GridIndex::build(pts(100), 5).unwrap();
        let mut m = Metrics::default();
        let q = Point::anonymous(1.0, 1.0);
        assert!(get_knn(&g, &q, 0, &mut m).is_empty());

        let empty =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        assert!(get_knn(&empty, &q, 3, &mut m).is_empty());
    }

    #[test]
    fn k_exceeding_dataset_returns_all_points() {
        let g = GridIndex::build(pts(37), 4).unwrap();
        let mut m = Metrics::default();
        let nbr = get_knn(&g, &Point::anonymous(3.0, 3.0), 100, &mut m);
        assert_eq!(nbr.len(), 37);
    }

    #[test]
    fn bounded_knn_is_exact_within_threshold() {
        let g = GridIndex::build(pts(2000), 18).unwrap();
        let mut m = Metrics::default();
        let q = Point::anonymous(50.0, 50.0);
        let k = 12;
        let exact = brute_force_knn(&g, &q, k);
        // Threshold comfortably larger than the true kNN radius: bounded
        // result must be identical.
        let threshold = exact.radius() * 2.0 + 1.0;
        let bounded = get_knn_bounded(&g, &q, k, threshold, &mut m);
        assert_same_ids(&bounded, &exact);
    }

    #[test]
    fn bounded_knn_members_within_threshold_are_correct() {
        let g = GridIndex::build(pts(2000), 18).unwrap();
        let mut m = Metrics::default();
        let q = Point::anonymous(50.0, 50.0);
        let k = 40;
        let threshold = 3.0; // deliberately small
        let exact = brute_force_knn(&g, &q, k);
        let bounded = get_knn_bounded(&g, &q, k, threshold, &mut m);
        // Every exact member within the threshold must appear in the bounded
        // result (the guarantee Procedure 5 relies on).
        let bounded_ids: std::collections::HashSet<u64> = bounded.ids().into_iter().collect();
        for nb in exact.members().iter().filter(|n| n.distance <= threshold) {
            assert!(bounded_ids.contains(&nb.point.id));
        }
    }

    #[test]
    fn metrics_count_neighborhood_computations() {
        let g = GridIndex::build(pts(200), 6).unwrap();
        let mut m = Metrics::default();
        get_knn(&g, &Point::anonymous(0.0, 0.0), 4, &mut m);
        get_knn(&g, &Point::anonymous(9.0, 9.0), 4, &mut m);
        assert_eq!(m.neighborhoods_computed, 2);
        assert!(m.points_scanned > 0);
        assert!(m.distance_computations >= m.points_scanned);
    }

    #[test]
    fn filtered_knn_matches_brute_force_across_index_families() {
        use twoknn_geometry::Rect;
        let data = pts(1500);
        let g = GridIndex::build(data.clone(), 14).unwrap();
        let qt = QuadtreeIndex::build(data.clone(), 24).unwrap();
        let rt = StrRTree::build(data, 24).unwrap();
        let preds = [
            Predicate::True,
            Predicate::InRect(Rect::new(20.0, 20.0, 70.0, 70.0)),
            Predicate::InCircle {
                center: Point::anonymous(55.0, 64.0),
                radius: 15.0,
            },
            Predicate::IdRange { lo: 100, hi: 700 },
            Predicate::And(vec![
                Predicate::InRect(Rect::new(0.0, 0.0, 90.0, 90.0)),
                Predicate::Not(Box::new(Predicate::IdRange { lo: 0, hi: 50 })),
            ]),
            // Zero-match filter: the neighborhood must come back empty.
            Predicate::False,
        ];
        let mut m = Metrics::default();
        for pred in &preds {
            for (x, y, k) in [(10.0, 20.0, 1), (55.0, 64.0, 7), (0.0, 0.0, 25)] {
                let q = Point::anonymous(x, y);
                let want = brute_force_knn_filtered(&g, &q, k, pred);
                assert_eq!(
                    get_knn_filtered(&g, &q, k, pred, &mut m),
                    want,
                    "{pred} grid"
                );
                assert_eq!(
                    get_knn_filtered(&qt, &q, k, pred, &mut m),
                    want,
                    "{pred} qt"
                );
                assert_eq!(
                    get_knn_filtered(&rt, &q, k, pred, &mut m),
                    want,
                    "{pred} rt"
                );
            }
        }
    }

    #[test]
    fn filtered_knn_matches_brute_force_on_sharded_index() {
        use twoknn_geometry::Rect;
        let data = pts(1600);
        let sharded = ShardedGrid::build(data, 8);
        let pred = Predicate::And(vec![
            Predicate::InRect(Rect::new(10.0, 10.0, 100.0, 100.0)),
            Predicate::IdRange { lo: 0, hi: 1200 },
        ]);
        let mut m = Metrics::default();
        for (x, y, k) in [(10.0, 20.0, 3), (55.0, 64.0, 12), (111.0, 1.0, 40)] {
            let q = Point::anonymous(x, y);
            assert_eq!(
                get_knn_filtered(&sharded, &q, k, &pred, &mut m),
                brute_force_knn_filtered(&sharded, &q, k, &pred),
                "({x},{y}) k={k}"
            );
        }
    }

    #[test]
    fn filtered_knn_with_permissive_filter_prunes_blocks() {
        // Selectivity 1.0: τ converges exactly as in the unfiltered kernel,
        // so the MINDIST-ordered walk must prune far blocks.
        let g = GridIndex::build(pts(2000), 18).unwrap();
        let q = Point::anonymous(50.0, 50.0);
        let mut m = Metrics::default();
        let got = get_knn_filtered(&g, &q, 8, &Predicate::True, &mut m);
        let mut mu = Metrics::default();
        assert_eq!(got, get_knn(&g, &q, 8, &mut mu));
        assert!(m.blocks_pruned > 0, "{m}");
        assert!(
            m.points_scanned < g.num_points() as u64,
            "τ-pruning must avoid the full scan: {m}"
        );
    }

    #[test]
    fn filtered_knn_survives_a_filter_eliminating_the_tau_neighborhood() {
        // The filter excludes everything near the query: the k nearest
        // *matching* points are far away, so τ stays wide and the walk must
        // keep going past the (unfiltered) τ-neighborhood without losing
        // exactness.
        let g = GridIndex::build(pts(1500), 14).unwrap();
        let q = Point::anonymous(55.0, 64.0);
        let near = Predicate::InCircle {
            center: q,
            radius: 30.0,
        };
        let pred = Predicate::Not(Box::new(near));
        let mut m = Metrics::default();
        let got = get_knn_filtered(&g, &q, 5, &pred, &mut m);
        assert_eq!(got, brute_force_knn_filtered(&g, &q, 5, &pred));
        assert!(got.radius() > 30.0, "all matches are outside the disk");
    }

    /// Reusing one scratch across queries must not leak state between them.
    #[test]
    fn scratch_reuse_does_not_leak_state_across_queries() {
        let g = GridIndex::build(pts(800), 9).unwrap();
        let mut scratch = ScratchSpace::new();
        let mut m = Metrics::default();
        let queries = [(3.0, 3.0, 9), (90.0, 90.0, 2), (40.0, 11.0, 30)];
        for &(x, y, k) in &queries {
            let q = Point::anonymous(x, y);
            let shared = get_knn_in(&g, &q, k, &mut m, &mut scratch);
            let fresh = get_knn_in(&g, &q, k, &mut m, &mut ScratchSpace::new());
            assert_eq!(shared, fresh);
            assert_same_ids(&shared, &brute_force_knn(&g, &q, k));
        }
    }
}
