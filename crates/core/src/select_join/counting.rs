//! The **Counting** algorithm (Procedure 1, Section 3.1).
//!
//! For each outer point `e1`, the algorithm decides *without computing e1's
//! neighborhood* whether that neighborhood could possibly intersect the
//! neighborhood of the focal point `f`:
//!
//! 1. the *search threshold* is the distance from `e1` to the nearest point
//!    of `nbr_f`;
//! 2. the point counts of the inner blocks *completely included* within the
//!    search threshold (MAXDIST strictly below it) are accumulated — the
//!    paper scans them in increasing MAXDIST order, but only the sum
//!    matters, so [`more_than_k_strictly_within`] sums them in storage
//!    order, skipping every partition that lies wholly beyond the threshold;
//! 3. if more than `k⋈` points are found this way, then `e1` already has more
//!    than `k⋈` inner points strictly closer than any member of `nbr_f`, so
//!    its neighborhood cannot intersect `nbr_f` and `e1` is skipped.
//!
//! Only the surviving outer points pay for a neighborhood computation.

use twoknn_geometry::{mindist, Point};
use twoknn_index::{get_knn, BlockMeta, Metrics, Neighborhood, SpatialIndex};

use crate::exec::{run_over_blocks, ExecutionMode};
use crate::output::{Pair, QueryOutput};
use crate::select::knn_select_neighborhood;

use super::SelectInnerJoinQuery;

/// Evaluates `(E1 ⋈kNN E2) ∩ (E1 × σ_{kσ,f}(E2))` with the Counting
/// algorithm (Procedure 1).
pub fn counting<O, I>(outer: &O, inner: &I, query: &SelectInnerJoinQuery) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    counting_with_mode(outer, inner, query, ExecutionMode::Serial)
}

/// The Counting algorithm under an explicit [`ExecutionMode`].
///
/// The per-outer-point test is independent of every other point, so in a
/// parallel mode the outer relation's blocks are partitioned across the
/// mode's workers — the shared persistent pool for `Pooled` (the default),
/// a freshly spawned scoped team for `Parallel`. The result rows (in order)
/// and the merged work counters are identical to the serial run.
pub fn counting_with_mode<O, I>(
    outer: &O,
    inner: &I,
    query: &SelectInnerJoinQuery,
    mode: ExecutionMode,
) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();

    // Line 1: the neighborhood of f (the kNN-select side).
    let nbr_f = knn_select_neighborhood(inner, &query.focal, query.k_select, &mut metrics);
    if nbr_f.is_empty() {
        // An empty select result can never intersect any join neighborhood.
        return QueryOutput::new(Vec::new(), metrics);
    }

    // Lines 3–22: per outer tuple, partitioned by outer block.
    let rows = run_over_blocks(
        outer.blocks(),
        mode,
        &mut metrics,
        |block, rows, metrics| {
            for e1 in outer.block_points(block.id) {
                counting_test_point(&e1, inner, &nbr_f, query, rows, metrics);
            }
        },
    );
    metrics.tuples_emitted = rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// Procedure 1, lines 5–21, for a single outer point.
fn counting_test_point<I>(
    e1: &Point,
    inner: &I,
    nbr_f: &Neighborhood,
    query: &SelectInnerJoinQuery,
    rows: &mut Vec<Pair>,
    metrics: &mut Metrics,
) where
    I: SpatialIndex + ?Sized,
{
    // Line 5: distance from e1 to the nearest member of nbr_f.
    let search_threshold = nbr_f
        .nearest_distance_from(e1)
        .expect("nbr_f is non-empty here");
    metrics.distance_computations += nbr_f.len() as u64;

    // Lines 6–14: count inner points in blocks completely included
    // within the search threshold.
    let pruned = more_than_k_strictly_within(inner, e1, search_threshold, query.k_join, metrics);

    // Lines 15–21: only compute e1's neighborhood if the count did not
    // prove the intersection impossible.
    if !pruned {
        let nbr_e1 = get_knn(inner, e1, query.k_join, metrics);
        for i in nbr_e1.intersect(nbr_f) {
            rows.push(Pair::new(*e1, i));
        }
    } else {
        metrics.points_pruned += 1;
    }
}

/// Procedure 1, lines 6–14: whether more than `k` points of `inner` lie in
/// blocks *completely included* within `threshold` of `p` — then `p` has more
/// than `k` inner points strictly closer than `threshold`, and none of its
/// `k` nearest neighbors can lie at or beyond it.
///
/// A block is included when its MAXDIST from `p` is strictly below the
/// threshold; `>=` excludes it, which keeps the pruning sound when an inner
/// point lies at exactly the threshold distance (a tie the paper's pseudocode
/// ignores). The included blocks' counts are summed in storage order — the
/// paper's MAXDIST order only decides *when* the sum is complete, not its
/// value — and the test returns as soon as the sum exceeds `k`. On a sharded
/// index, a partition whose MINDIST is not below the threshold holds no
/// included block and is skipped without looking at its blocks. Each block
/// whose count was summed counts as `blocks_scanned`; nothing is allocated.
pub(super) fn more_than_k_strictly_within<I>(
    inner: &I,
    p: &Point,
    threshold: f64,
    k: usize,
    metrics: &mut Metrics,
) -> bool
where
    I: SpatialIndex + ?Sized,
{
    let mut count = 0usize;
    let mut exceeds_k = |blocks: &[BlockMeta]| {
        for b in blocks {
            if b.count == 0 || b.maxdist(p) >= threshold {
                continue;
            }
            metrics.blocks_scanned += 1;
            count += b.count;
            if count > k {
                return true;
            }
        }
        false
    };
    let blocks = inner.blocks();
    match inner.partitions() {
        Some(parts) => parts.iter().any(|part| {
            !part.is_empty()
                && mindist(p, &part.mbr) < threshold
                && exceeds_k(&blocks[part.block_range()])
        }),
        None => exceeds_k(blocks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::pair_id_set;
    use crate::select_join::conceptual;
    use twoknn_geometry::Point;
    use twoknn_index::GridIndex;

    fn grid(points: Vec<Point>) -> GridIndex {
        GridIndex::build(points, 8).unwrap()
    }

    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64 * 2654435761) ^ seed.wrapping_mul(0x9E3779B97F4A7C15);
                Point::new(
                    i as u64,
                    (h % 1000) as f64 * 0.1,
                    ((h / 1000) % 1000) as f64 * 0.1,
                )
            })
            .collect()
    }

    #[test]
    fn counting_matches_conceptual_plan() {
        let outer = grid(scattered(150, 1));
        let inner = grid(scattered(400, 2));
        for (k_join, k_select) in [(1, 1), (2, 2), (4, 8), (8, 3)] {
            let query = SelectInnerJoinQuery::new(k_join, k_select, Point::anonymous(30.0, 40.0));
            let fast = counting(&outer, &inner, &query);
            let slow = conceptual(&outer, &inner, &query);
            assert_eq!(
                pair_id_set(&fast.rows),
                pair_id_set(&slow.rows),
                "k_join={k_join} k_select={k_select}"
            );
        }
    }

    #[test]
    fn counting_prunes_far_outer_points() {
        // Outer points far from the focal point with plenty of inner points
        // around them must be pruned without neighborhood computations.
        let mut inner_pts = scattered(500, 3);
        // Dense inner cloud near (90, 90) so that far outer points are
        // surrounded by many closer inner points.
        for i in 0..200 {
            inner_pts.push(Point::new(
                500 + i,
                90.0 + (i % 20) as f64 * 0.05,
                90.0 + (i / 20) as f64 * 0.05,
            ));
        }
        let inner = grid(inner_pts);
        let outer = grid(vec![
            Point::new(0, 90.2, 90.2),
            Point::new(1, 90.4, 90.4),
            Point::new(2, 5.0, 5.0),
        ]);
        let query = SelectInnerJoinQuery::new(2, 2, Point::anonymous(5.0, 5.0));
        let out = counting(&outer, &inner, &query);
        assert!(out.metrics.points_pruned >= 2, "{}", out.metrics);
        // Correctness still holds.
        let slow = conceptual(&outer, &inner, &query);
        assert_eq!(pair_id_set(&out.rows), pair_id_set(&slow.rows));
    }

    #[test]
    fn counting_does_fewer_neighborhood_computations_than_conceptual() {
        let outer = grid(scattered(300, 7));
        let inner = grid(scattered(600, 8));
        let query = SelectInnerJoinQuery::new(3, 3, Point::anonymous(10.0, 10.0));
        let fast = counting(&outer, &inner, &query);
        let slow = conceptual(&outer, &inner, &query);
        assert!(
            fast.metrics.neighborhoods_computed < slow.metrics.neighborhoods_computed,
            "counting {} vs conceptual {}",
            fast.metrics.neighborhoods_computed,
            slow.metrics.neighborhoods_computed
        );
    }

    #[test]
    fn empty_inner_relation_yields_empty_result() {
        let outer = grid(scattered(10, 1));
        let inner =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        let query = SelectInnerJoinQuery::new(2, 2, Point::anonymous(0.0, 0.0));
        assert!(counting(&outer, &inner, &query).is_empty());
    }
}
