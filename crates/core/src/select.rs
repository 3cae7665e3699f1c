//! The kNN-select operator `σ_{k,f}(E)`.
//!
//! "For a focal point f, σ_{k,f}(E1) returns from the set of points in E1 the
//! k-closest to f." (Section 1.) The operator is a thin wrapper over the
//! `getkNN` of the index layer; it exists as a named operator
//! so that plans, the optimizer and the conceptually correct QEPs can treat
//! it uniformly.

use twoknn_geometry::{Point, Predicate};
use twoknn_index::{get_knn, get_knn_filtered, Metrics, Neighborhood, SpatialIndex};

use crate::output::QueryOutput;

/// The single kNN-select query shape: the `k` points of a relation nearest to
/// a focal point. Filters, when present, ride on the enclosing
/// [`crate::plan::QuerySpec::Filtered`] wrapper — a *pre-kNN* filter turns
/// this into "the k nearest *matching* points".
#[derive(Debug, Clone, PartialEq)]
pub struct KnnSelectQuery {
    /// Number of nearest neighbors requested.
    pub k: usize,
    /// The focal point of the select.
    pub focal: Point,
}

impl KnnSelectQuery {
    /// A select for the `k` points nearest to `focal`.
    pub fn new(k: usize, focal: Point) -> Self {
        Self { k, focal }
    }
}

/// Evaluates `σ_{k,focal}(relation)` and returns the selected points ordered
/// by increasing distance from the focal point.
pub fn knn_select<I>(relation: &I, focal: &Point, k: usize) -> QueryOutput<Point>
where
    I: SpatialIndex + ?Sized,
{
    let mut metrics = Metrics::default();
    let nbr = knn_select_neighborhood(relation, focal, k, &mut metrics);
    let rows: Vec<Point> = nbr.points().copied().collect();
    metrics.tuples_emitted += rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// Evaluates the kNN-select but returns the full [`Neighborhood`] (points plus
/// distances), accumulating work into `metrics`. This is the form the
/// two-predicate algorithms use internally, because they need the nearest and
/// farthest members to derive search thresholds.
pub fn knn_select_neighborhood<I>(
    relation: &I,
    focal: &Point,
    k: usize,
    metrics: &mut Metrics,
) -> Neighborhood
where
    I: SpatialIndex + ?Sized,
{
    get_knn(relation, focal, k, metrics)
}

/// Evaluates the *filtered* kNN-select: the `k` points matching `predicate`
/// that are nearest to `focal` (pre-kNN filter placement). A
/// [`Predicate::True`] predicate degenerates to the plain kNN-select, which keeps the unfiltered fast path intact.
pub fn knn_select_filtered<I>(
    relation: &I,
    focal: &Point,
    k: usize,
    predicate: &Predicate,
) -> QueryOutput<Point>
where
    I: SpatialIndex + ?Sized,
{
    let mut metrics = Metrics::default();
    let nbr = knn_select_filtered_neighborhood(relation, focal, k, predicate, &mut metrics);
    let rows: Vec<Point> = nbr.points().copied().collect();
    metrics.tuples_emitted += rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// [`knn_select_filtered`] returning the full [`Neighborhood`], accumulating
/// work into `metrics` — the form guard derivation uses, because a standing
/// query's guard circle must span the **filtered** k-th distance (never
/// smaller than the unfiltered one).
pub fn knn_select_filtered_neighborhood<I>(
    relation: &I,
    focal: &Point,
    k: usize,
    predicate: &Predicate,
    metrics: &mut Metrics,
) -> Neighborhood
where
    I: SpatialIndex + ?Sized,
{
    if matches!(predicate, Predicate::True) {
        get_knn(relation, focal, k, metrics)
    } else {
        get_knn_filtered(relation, focal, k, predicate, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoknn_index::GridIndex;

    fn grid() -> GridIndex {
        let pts: Vec<Point> = (0..200)
            .map(|i| Point::new(i, (i % 20) as f64, (i / 20) as f64))
            .collect();
        GridIndex::build(pts, 8).unwrap()
    }

    #[test]
    fn select_returns_k_nearest_in_distance_order() {
        let g = grid();
        let focal = Point::anonymous(0.0, 0.0);
        let out = knn_select(&g, &focal, 3);
        assert_eq!(out.len(), 3);
        let d: Vec<f64> = out.rows.iter().map(|p| focal.distance(p)).collect();
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.metrics.neighborhoods_computed, 1);
        assert_eq!(out.metrics.tuples_emitted, 3);
    }

    #[test]
    fn select_matches_brute_force() {
        let g = grid();
        let focal = Point::anonymous(7.3, 4.1);
        let out = knn_select(&g, &focal, 10);
        let brute = twoknn_index::brute_force_knn(&g, &focal, 10);
        let mut got: Vec<u64> = out.rows.iter().map(|p| p.id).collect();
        let mut want = brute.ids();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn select_with_k_zero_is_empty() {
        let g = grid();
        assert!(knn_select(&g, &Point::anonymous(1.0, 1.0), 0).is_empty());
    }

    #[test]
    fn filtered_select_matches_filtered_brute_force() {
        let g = grid();
        let focal = Point::anonymous(7.3, 4.1);
        let pred = Predicate::IdRange { lo: 50, hi: 150 };
        let out = knn_select_filtered(&g, &focal, 10, &pred);
        let want = twoknn_index::brute_force_knn_filtered(&g, &focal, 10, &pred);
        let got: Vec<u64> = out.rows.iter().map(|p| p.id).collect();
        assert_eq!(got, want.ids());
        assert_eq!(out.metrics.tuples_emitted, 10);
    }

    #[test]
    fn filtered_select_with_true_predicate_equals_plain_select() {
        let g = grid();
        let focal = Point::anonymous(3.0, 9.0);
        let plain = knn_select(&g, &focal, 7);
        let filtered = knn_select_filtered(&g, &focal, 7, &Predicate::True);
        assert_eq!(plain.rows, filtered.rows);
    }
}
