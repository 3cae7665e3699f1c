//! The *locality* of a point (Definition 2) and the locality-construction
//! algorithm of Sankaranarayanan, Samet & Varshney (ref. [15] in the paper).
//!
//! Definition 2: "The locality of a point, say p, is a set of blocks inside
//! which the neighborhood of p exists." The construction (described in
//! Section 5.2 of the paper) is:
//!
//! 1. Scan blocks in increasing **MAXDIST** from `p`, accumulating their point
//!    counts, until the accumulated count reaches `k`. Record `M`, the largest
//!    MAXDIST seen so far. At this point at least `k` points are known to lie
//!    within distance `M` of `p`, so no point farther than `M` can be among
//!    the `k` nearest.
//! 2. Scan the remaining blocks in increasing **MINDIST** from `p` and add
//!    them to the locality until a block with MINDIST greater than `M` is
//!    found; all later blocks can be ignored.
//!
//! The 2-kNN-select algorithm (Procedure 5) uses a *bounded* variant: a block
//! is added to the locality only if its MINDIST from `p` does not exceed an
//! externally supplied *search threshold*. This crate exposes both variants
//! through [`Locality::build`] and [`Locality::build_bounded`].
//!
//! The `getkNN` hot path ([`crate::get_knn`]) no longer builds localities:
//! it runs a single MINDIST walk (see [`crate::knn`]). `Locality` remains the
//! paper's Definition 2 made concrete, and the basis of the scalar ablation
//! baseline [`crate::get_knn_scalar`].

use twoknn_geometry::Point;

use crate::block::BlockMeta;
use crate::metrics::Metrics;
use crate::ordering::{BlockOrder, OrderMetric};
use crate::traits::SpatialIndex;

/// The set of blocks guaranteed to contain the `k` nearest neighbors of a
/// query point (possibly restricted by a search threshold).
#[derive(Debug, Clone)]
pub struct Locality {
    query: Point,
    k: usize,
    /// Blocks in the locality, in the order they were added.
    blocks: Vec<BlockMeta>,
    /// The MAXDIST bound `M` established by phase 1 (infinite when fewer than
    /// `k` points exist in the whole index).
    maxdist_bound: f64,
    /// The external search threshold, if the bounded variant was used.
    threshold: Option<f64>,
}

impl Locality {
    /// Builds the (minimal) locality of `p` for a `k`-nearest-neighbor query,
    /// following the two-phase algorithm of reference \[15\] of the paper.
    pub fn build<I: SpatialIndex + ?Sized>(
        index: &I,
        p: &Point,
        k: usize,
        metrics: &mut Metrics,
    ) -> Self {
        Self::build_impl(index, p, k, None, metrics)
    }

    /// Builds the locality of `p`, adding only blocks whose MINDIST from `p`
    /// is at most `threshold`.
    ///
    /// This is the Procedure 5 variant used by the 2-kNN-select algorithm:
    /// when the final answer is known to lie within `threshold` of `p`
    /// (because it must come from the other predicate's neighborhood), blocks
    /// beyond the threshold cannot change the outcome of the intersection and
    /// are skipped.
    pub fn build_bounded<I: SpatialIndex + ?Sized>(
        index: &I,
        p: &Point,
        k: usize,
        threshold: f64,
        metrics: &mut Metrics,
    ) -> Self {
        Self::build_impl(index, p, k, Some(threshold), metrics)
    }

    fn build_impl<I: SpatialIndex + ?Sized>(
        index: &I,
        p: &Point,
        k: usize,
        threshold: Option<f64>,
        metrics: &mut Metrics,
    ) -> Self {
        let all_blocks = index.blocks();
        let mut in_locality = vec![false; all_blocks.len()];
        let mut blocks = Vec::new();
        let passes_threshold = |b: &BlockMeta| threshold.map_or(true, |t| b.mindist(p) <= t);

        // Phase 1: MAXDIST order until `k` points have been accumulated.
        let mut count = 0usize;
        let mut seen_maxdist: f64 = 0.0;
        let mut max_order = BlockOrder::new(all_blocks, p, OrderMetric::MaxDist);
        while count < k {
            let Some(ob) = max_order.next() else {
                break; // Fewer than k points in the whole index.
            };
            metrics.blocks_scanned += 1;
            seen_maxdist = seen_maxdist.max(ob.distance);
            if ob.block.count == 0 {
                continue;
            }
            count += ob.block.count;
            if passes_threshold(&ob.block) {
                in_locality[ob.block.id as usize] = true;
                blocks.push(ob.block);
                metrics.locality_blocks += 1;
            }
        }
        let maxdist_bound = if count >= k {
            seen_maxdist
        } else {
            f64::INFINITY
        };

        // Phase 2: remaining blocks in MINDIST order while MINDIST <= M.
        for ob in BlockOrder::new(all_blocks, p, OrderMetric::MinDist) {
            if ob.distance > maxdist_bound || threshold.is_some_and(|t| ob.distance > t) {
                break;
            }
            if in_locality[ob.block.id as usize] {
                continue;
            }
            metrics.blocks_scanned += 1;
            if ob.block.count == 0 {
                continue;
            }
            in_locality[ob.block.id as usize] = true;
            blocks.push(ob.block);
            metrics.locality_blocks += 1;
        }

        Self {
            query: *p,
            k,
            blocks,
            maxdist_bound,
            threshold,
        }
    }

    /// The query point this locality was built for.
    pub fn query(&self) -> Point {
        self.query
    }

    /// The `k` this locality was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The blocks that make up the locality.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// The MAXDIST bound `M` established by the first phase.
    pub fn maxdist_bound(&self) -> f64 {
        self.maxdist_bound
    }

    /// The search threshold used, for the bounded variant.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// Total number of points inside the locality's blocks.
    pub fn point_count(&self) -> usize {
        self.blocks.iter().map(|b| b.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridIndex;
    use crate::traits::SpatialIndex;

    fn grid(n: usize, cells: usize) -> GridIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    ((i * 37) % 211) as f64 * 0.45,
                    ((i * 59) % 197) as f64 * 0.55,
                )
            })
            .collect();
        GridIndex::build(pts, cells).unwrap()
    }

    /// The locality must contain the true k nearest neighbors.
    #[test]
    fn locality_covers_true_knn() {
        let g = grid(800, 12);
        let q = Point::anonymous(30.0, 40.0);
        let k = 13;
        let mut metrics = Metrics::default();
        let loc = Locality::build(&g, &q, k, &mut metrics);

        // Brute-force k nearest.
        let mut all = g.all_points();
        all.sort_by(|a, b| {
            q.distance_sq(a)
                .partial_cmp(&q.distance_sq(b))
                .unwrap()
                .then(a.id.cmp(&b.id))
        });
        let covered_ids: std::collections::HashSet<u64> = loc
            .blocks()
            .iter()
            .flat_map(|b| g.block_points(b.id))
            .map(|p| p.id)
            .collect();
        for p in all.iter().take(k) {
            assert!(
                covered_ids.contains(&p.id),
                "true neighbor {p} missing from locality"
            );
        }
        assert!(loc.point_count() >= k);
        assert!(metrics.locality_blocks > 0);
    }

    #[test]
    fn locality_is_much_smaller_than_the_index_for_small_k() {
        let g = grid(5000, 24);
        let q = Point::anonymous(45.0, 52.0);
        let mut m = Metrics::default();
        let loc = Locality::build(&g, &q, 8, &mut m);
        assert!(loc.blocks().len() < g.num_blocks() / 4);
    }

    #[test]
    fn bounded_locality_never_exceeds_threshold() {
        let g = grid(2000, 16);
        let q = Point::anonymous(10.0, 10.0);
        let threshold = 12.5;
        let mut m = Metrics::default();
        let loc = Locality::build_bounded(&g, &q, 64, threshold, &mut m);
        for b in loc.blocks() {
            assert!(b.mindist(&q) <= threshold + 1e-9);
        }
        assert_eq!(loc.threshold(), Some(threshold));
    }

    #[test]
    fn bounded_locality_is_subset_of_unbounded() {
        let g = grid(2000, 16);
        let q = Point::anonymous(60.0, 70.0);
        let mut m = Metrics::default();
        let unbounded: std::collections::HashSet<u32> = Locality::build(&g, &q, 32, &mut m)
            .blocks()
            .iter()
            .map(|b| b.id)
            .collect();
        let bounded = Locality::build_bounded(&g, &q, 32, 5.0, &mut m);
        for b in bounded.blocks() {
            assert!(unbounded.contains(&b.id));
        }
        assert!(bounded.blocks().len() <= unbounded.len());
    }

    #[test]
    fn k_larger_than_dataset_takes_every_nonempty_block() {
        let g = grid(50, 6);
        let q = Point::anonymous(0.0, 0.0);
        let mut m = Metrics::default();
        let loc = Locality::build(&g, &q, 10_000, &mut m);
        assert_eq!(loc.point_count(), 50);
        assert!(loc.maxdist_bound().is_infinite());
    }

    #[test]
    fn empty_blocks_do_not_enter_the_locality() {
        let g = grid(100, 20); // many empty cells
        let q = Point::anonymous(20.0, 20.0);
        let mut m = Metrics::default();
        let loc = Locality::build(&g, &q, 5, &mut m);
        for b in loc.blocks() {
            assert!(b.count > 0);
        }
    }
}
