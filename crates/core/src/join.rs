//! The kNN-join operator `E1 ⋈_kNN E2`.
//!
//! "E1 ⋈kNN E2 returns all the pairs of the form (e1, e2), where e1 ∈ E1 and
//! e2 ∈ E2, and e2 is among the k-closest points to e1." (Section 1.)
//!
//! The kNN-join is evaluated by computing, for every point of the outer
//! relation, its neighborhood in the inner relation via `getkNN` — exactly
//! the strategy the paper assumes for its conceptually correct QEPs (which
//! neighborhood algorithm runs underneath is left open by the paper; the
//! index layer uses a MINDIST block walk). A thread-parallel variant is provided for large outer
//! relations; it partitions the outer relation's blocks across threads and
//! merges per-thread metrics, producing the same result set as the
//! sequential operator.

use twoknn_geometry::Point;
use twoknn_index::{get_knn, Metrics, SpatialIndex};

use crate::exec::ExecutionMode;
use crate::output::{Pair, QueryOutput};

/// Evaluates `outer ⋈_kNN inner` with the given `k`.
pub fn knn_join<O, I>(outer: &O, inner: &I, k: usize) -> QueryOutput<Pair>
where
    O: SpatialIndex + ?Sized,
    I: SpatialIndex + ?Sized,
{
    let mut metrics = Metrics::default();
    let rows = knn_join_with_metrics(outer, inner, k, &mut metrics);
    QueryOutput::new(rows, metrics)
}

/// Evaluates the kNN-join under an explicit [`ExecutionMode`], accumulating
/// work into `metrics`. In parallel mode the outer relation's blocks are
/// partitioned across worker threads; rows come back in the same order as
/// the serial evaluation and metrics are the merged per-worker counters.
pub fn knn_join_rows_with_mode<O, I>(
    outer: &O,
    inner: &I,
    k: usize,
    mode: ExecutionMode,
    metrics: &mut Metrics,
) -> Vec<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let rows =
        crate::exec::run_over_blocks(outer.blocks(), mode, metrics, |block, pairs, metrics| {
            for e1 in outer.block_points(block.id) {
                let nbr = get_knn(inner, &e1, k, metrics);
                for n in nbr.members() {
                    pairs.push(Pair::new(e1, n.point));
                }
            }
        });
    metrics.tuples_emitted += rows.len() as u64;
    rows
}

/// Evaluates the kNN-join, accumulating work into `metrics`.
pub fn knn_join_with_metrics<O, I>(
    outer: &O,
    inner: &I,
    k: usize,
    metrics: &mut Metrics,
) -> Vec<Pair>
where
    O: SpatialIndex + ?Sized,
    I: SpatialIndex + ?Sized,
{
    let mut pairs = Vec::new();
    for block in outer.blocks() {
        for e1 in outer.block_points(block.id) {
            let nbr = get_knn(inner, &e1, k, metrics);
            for n in nbr.members() {
                pairs.push(Pair::new(e1, n.point));
            }
        }
    }
    metrics.tuples_emitted += pairs.len() as u64;
    pairs
}

/// Evaluates the kNN-join for a specific subset of outer points (used by the
/// two-predicate algorithms once pruning has decided which outer points can
/// contribute).
pub fn knn_join_points<I>(
    outer_points: &[Point],
    inner: &I,
    k: usize,
    metrics: &mut Metrics,
) -> Vec<Pair>
where
    I: SpatialIndex + ?Sized,
{
    let mut pairs = Vec::new();
    for e1 in outer_points {
        let nbr = get_knn(inner, e1, k, metrics);
        for n in nbr.members() {
            pairs.push(Pair::new(*e1, n.point));
        }
    }
    metrics.tuples_emitted += pairs.len() as u64;
    pairs
}

/// Multi-core kNN-join on the shared persistent worker pool: outer blocks
/// are distributed over the pool's workers with dynamic scheduling (each
/// team member pulls the next block), and the rows are reassembled in block
/// order. The result set is identical to [`knn_join`] (including row
/// order); metrics are the merged per-worker work.
///
/// Real threading requires the `parallel` cargo feature; without it this
/// runs serially (same results, one thread) — see
/// [`crate::exec::ExecutionMode`].
pub fn knn_join_pooled<O, I>(outer: &O, inner: &I, k: usize) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let rows = knn_join_rows_with_mode(outer, inner, k, ExecutionMode::Pooled, &mut metrics);
    QueryOutput::new(rows, metrics)
}

/// Thread-parallel kNN-join over a **freshly spawned** scoped team of
/// `num_threads` workers (the spawn-per-phase baseline; prefer
/// [`knn_join_pooled`], which amortizes thread creation across queries).
/// Scheduling, row order and metrics semantics match [`knn_join_pooled`].
///
/// Real threading requires the `parallel` cargo feature; without it this
/// runs serially (same results, one thread) — see
/// [`crate::exec::ExecutionMode`].
pub fn knn_join_parallel<O, I>(
    outer: &O,
    inner: &I,
    k: usize,
    num_threads: usize,
) -> QueryOutput<Pair>
where
    O: SpatialIndex + Sync + ?Sized,
    I: SpatialIndex + Sync + ?Sized,
{
    let mut metrics = Metrics::default();
    let rows = knn_join_rows_with_mode(
        outer,
        inner,
        k,
        ExecutionMode::Parallel {
            threads: num_threads,
        },
        &mut metrics,
    );
    QueryOutput::new(rows, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::pair_id_set;
    use twoknn_index::{brute_force_knn, GridIndex};

    fn relation(n: usize, stride: f64, offset: f64) -> GridIndex {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    offset + ((i * 13) % 50) as f64 * stride,
                    offset + ((i * 29) % 50) as f64 * stride,
                )
            })
            .collect();
        GridIndex::build(pts, 8).unwrap()
    }

    #[test]
    fn join_emits_k_pairs_per_outer_point() {
        let outer = relation(40, 1.0, 0.0);
        let inner = relation(100, 0.7, 2.0);
        let k = 3;
        let out = knn_join(&outer, &inner, k);
        assert_eq!(out.len(), 40 * k);
        assert_eq!(out.metrics.neighborhoods_computed, 40);
    }

    #[test]
    fn join_matches_brute_force_neighborhoods() {
        let outer = relation(25, 1.3, 0.0);
        let inner = relation(60, 0.9, 1.0);
        let k = 4;
        let got = pair_id_set(&knn_join(&outer, &inner, k).rows);
        let mut want = std::collections::BTreeSet::new();
        for e1 in outer.all_points() {
            for id in brute_force_knn(&inner, &e1, k).ids() {
                want.insert((e1.id, id));
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn join_is_not_symmetric() {
        let outer = relation(30, 1.0, 0.0);
        let inner = relation(30, 1.0, 10.0);
        let ab = pair_id_set(&knn_join(&outer, &inner, 2).rows);
        let ba: std::collections::BTreeSet<(u64, u64)> = knn_join(&inner, &outer, 2)
            .rows
            .iter()
            .map(|p| (p.right.id, p.left.id))
            .collect();
        // The same id pairs rarely coincide; assert the operator at least
        // produced different pair sets for this asymmetric layout.
        assert_ne!(ab, ba);
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let outer = relation(80, 1.1, 0.0);
        let inner = relation(120, 0.8, 0.5);
        let seq = knn_join(&outer, &inner, 5);
        let par = knn_join_parallel(&outer, &inner, 5, 4);
        assert_eq!(pair_id_set(&seq.rows), pair_id_set(&par.rows));
        assert_eq!(
            seq.metrics.neighborhoods_computed,
            par.metrics.neighborhoods_computed
        );
    }

    #[test]
    fn pooled_join_matches_sequential_exactly() {
        let outer = relation(80, 1.1, 0.0);
        let inner = relation(120, 0.8, 0.5);
        let seq = knn_join(&outer, &inner, 5);
        let pooled = knn_join_pooled(&outer, &inner, 5);
        // Not just the same set: the same rows in the same order, with the
        // same merged work counters.
        assert_eq!(seq.rows, pooled.rows);
        assert_eq!(seq.metrics, pooled.metrics);
    }

    #[test]
    fn join_points_subset_matches_full_join_restriction() {
        let outer = relation(50, 1.0, 0.0);
        let inner = relation(70, 1.0, 0.0);
        let mut m = Metrics::default();
        let subset: Vec<Point> = outer.all_points().into_iter().take(10).collect();
        let partial = knn_join_points(&subset, &inner, 3, &mut m);
        let full = knn_join(&outer, &inner, 3);
        let subset_ids: std::collections::BTreeSet<u64> = subset.iter().map(|p| p.id).collect();
        let expected: std::collections::BTreeSet<_> = full
            .rows
            .iter()
            .filter(|p| subset_ids.contains(&p.left.id))
            .map(Pair::ids)
            .collect();
        assert_eq!(pair_id_set(&partial), expected);
    }

    #[test]
    fn empty_inner_relation_produces_no_pairs() {
        let outer = relation(10, 1.0, 0.0);
        let inner =
            GridIndex::build_with_bounds(vec![], twoknn_geometry::Rect::new(0.0, 0.0, 1.0, 1.0), 2)
                .unwrap();
        assert!(knn_join(&outer, &inner, 3).is_empty());
    }
}
